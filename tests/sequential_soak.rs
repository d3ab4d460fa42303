//! Cycle-accurate differential guard on sequential simulation.
//!
//! The ISCAS-89 s27 corpus entries are driven with randomized clocked
//! suites and checked, cycle by cycle, against [`s27_reference_step`] —
//! the pure-integer model of the circuit's state machine.  Just before every rising clock edge the
//! combinational cone has settled as a function of the current register
//! state and the data inputs applied in the previous low phase, so the
//! simulated `g17` must equal the reference output and the registers
//! must latch the reference next-state.  This holds for every delay
//! model (DDM, CDM and the MIX per-cell override), and the batch runner
//! must reproduce the single-shot run bit-identically at two workers.

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::corpus::{mixed_model, StimulusSuite};
use halotis::netlist::{iscas, technology};
use halotis::sim::{BatchRunner, CompiledCircuit, Scenario, SimulationConfig};
use proptest::prelude::*;

/// One clock cycle of the cycle-accurate s27 reference model.
///
/// `state` is the register state `[g5, g6, g7]` at the start of the cycle
/// and `inputs` the data inputs `[g0, g1, g2, g3]`, held stable through
/// the cycle.  Returns the settled value of the primary output `g17`
/// before the next rising edge, and the state that edge captures.  Evolving
/// from the power-up state `[false; 3]` reproduces the timing simulation's
/// per-cycle settled outputs exactly.
fn s27_reference_step(state: [bool; 3], inputs: [bool; 4]) -> (bool, [bool; 3]) {
    let [s5, s6, s7] = state;
    let [g0, g1, g2, g3] = inputs;
    let g14 = !g0;
    let g12 = !(g1 || s7);
    let g8 = g14 && s6;
    let g15 = g12 || g8;
    let g16 = g3 || g8;
    let g9 = !(g16 && g15);
    let g11 = !(s5 || g9);
    let g17 = !g11;
    let g10 = !(g14 || g11);
    let g13 = !(g2 || g12);
    (g17, [g10, g11, g13])
}

#[test]
fn s27_reference_model_follows_known_cycles() {
    // Hand-traced from the netlist.  All-low inputs hold the reset
    // state and g17 = 1; raising g3 forces g9 low, so g11 (and with it
    // the captured g6) rises and g17 falls.
    let (g17, state) = s27_reference_step([false; 3], [false; 4]);
    assert!(g17);
    assert_eq!(state, [false; 3], "all-low inputs hold reset");
    let (g17, state) = s27_reference_step([false; 3], [false, false, false, true]);
    assert!(!g17);
    assert_eq!(state, [false, true, false]);
    // From that state the same inputs are a fixed point.
    let (g17, state) = s27_reference_step(state, [false, false, false, true]);
    assert!(!g17);
    assert_eq!(state, [false, true, false]);
}

/// The moment just before rising edge `cycle`: inputs from the previous
/// low phase and the pre-edge register state are both settled.
fn pre_edge(cycle: usize, period: TimeDelta) -> Time {
    Time::from_ns(1.0) + period * cycle as i64 - TimeDelta::from_ps(1.0)
}

fn model_configs() -> Vec<(&'static str, SimulationConfig)> {
    vec![
        ("ddm", SimulationConfig::default()),
        ("cdm", SimulationConfig::cdm()),
        ("mix", SimulationConfig::default().model(mixed_model())),
    ]
}

/// Runs one clocked suite on s27 and checks every cycle against the
/// reference model.
fn check_against_reference(cycles: usize, period: TimeDelta, suite: &StimulusSuite) {
    let netlist = iscas::s27();
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library).expect("s27 compiles");
    let stimuli = suite.stimuli(&netlist, &library);
    assert_eq!(stimuli.len(), 1, "clocked suites yield one stimulus");
    let (_, stimulus) = &stimuli[0];

    for (label, config) in model_configs() {
        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, stimulus, &config)
            .expect("clocked run succeeds");
        let output = result.ideal_waveform("g17").expect("g17 traced");
        let data: Vec<_> = ["g0", "g1", "g2", "g3"]
            .iter()
            .map(|net| result.ideal_waveform(net).expect("input traced"))
            .collect();

        // Registers power up Low, matching the engine's initial state.
        let mut registers = [false; 3];
        for cycle in 0..cycles {
            let t = pre_edge(cycle, period);
            let inputs = [
                data[0].level_at(t) == LogicLevel::High,
                data[1].level_at(t) == LogicLevel::High,
                data[2].level_at(t) == LogicLevel::High,
                data[3].level_at(t) == LogicLevel::High,
            ];
            let (expected, next) = s27_reference_step(registers, inputs);
            assert_eq!(
                output.level_at(t) == LogicLevel::High,
                expected,
                "{label}: g17 diverges from the reference just before edge {cycle} \
                 (state {registers:?}, inputs {inputs:?})"
            );
            registers = next;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized clocked suites: every delay model tracks the integer
    /// state machine over every cycle.  The clock must leave more than
    /// s27's ~1.6 ns data-to-register settle time between the data
    /// change and the next rising edge, or the run is a genuine setup
    /// violation and the reference (which assumes settled data) no
    /// longer applies.
    #[test]
    fn s27_tracks_the_reference_state_machine(
        cycles in 2usize..40,
        seed in any::<u64>(),
    ) {
        let period = TimeDelta::from_ns(6.0);
        let suite = StimulusSuite::Clocked {
            cycles,
            period,
            high: TimeDelta::from_ns(2.0),
            skew: TimeDelta::from_ps(500.0),
            seed,
        };
        check_against_reference(cycles, period, &suite);
    }
}

/// The committed soak entries replay deterministically: single-shot and
/// two-worker batch runs agree on every waveform bit and every counter.
#[test]
fn soak_entries_are_bit_identical_across_thread_counts() {
    let library = technology::cmos06();
    for entry in halotis::corpus::standard_corpus() {
        if !entry.name.starts_with("s27") {
            continue;
        }
        let circuit = CompiledCircuit::compile(&entry.netlist, &library).expect("compiles");
        let stimuli = entry.suite.stimuli(&entry.netlist, &library);
        for (stimulus_label, stimulus) in &stimuli {
            for (label, config) in model_configs() {
                let mut state = circuit.new_state();
                let single = circuit
                    .run_with(&mut state, stimulus, &config)
                    .expect("single-shot run succeeds");

                let scenarios = [
                    Scenario::new("a", stimulus.clone(), config.clone()),
                    Scenario::new("b", stimulus.clone(), config.clone()),
                ];
                let report = BatchRunner::with_threads(2).run(&circuit, &scenarios);
                for outcome in report.outcomes() {
                    let batch = outcome.result.as_ref().expect("batch run succeeds");
                    let context = format!("{}/{stimulus_label}/{label}", entry.name);
                    assert_eq!(single.stats(), batch.stats(), "{context}: stats diverge");
                    assert_eq!(
                        single.waveforms(),
                        batch.waveforms(),
                        "{context}: waveforms diverge"
                    );
                }
            }
        }
    }
}

/// The soak run is a genuine soak: thousands of clock cycles drain
/// through the queue and the telemetry proves it.
#[test]
fn soak_entry_reports_queue_and_event_telemetry() {
    let library = technology::cmos06();
    let entry = halotis::corpus::standard_corpus()
        .into_iter()
        .find(|entry| entry.name == "s27_soak")
        .expect("s27_soak entry exists");
    let cycles = entry.suite.cycles().expect("soak suite is clocked");
    assert!(cycles >= 2000, "soak covers at least 2000 cycles");

    let circuit = CompiledCircuit::compile(&entry.netlist, &library).expect("compiles");
    let (_, stimulus) = &entry.suite.stimuli(&entry.netlist, &library)[0];
    let mut state = circuit.new_state();
    let result = circuit
        .run_with(&mut state, stimulus, &SimulationConfig::default())
        .expect("soak run succeeds");
    let stats = result.stats();
    assert!(stats.events_processed > cycles, "events scale with cycles");
    assert!(stats.queue_high_water > 0, "queue high-water recorded");
}
