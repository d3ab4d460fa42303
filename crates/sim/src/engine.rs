//! The single-shot convenience front end of the HALOTIS engine.
//!
//! The actual Fig. 4 simulation loop lives in
//! [`CompiledCircuit`]: for every event popped from
//! the queue it
//!
//! 1. updates the level of the gate input where the event occurred,
//! 2. re-evaluates the gate; if the output value changes, it computes the
//!    output transition through the selected delay model (DDM applies the
//!    degradation of eq. 1 using `T`, the time since the gate's previous
//!    output transition),
//! 3. records the transition on the output net — **every** transition is
//!    recorded, even runt pulses, because in the IDDM filtering happens at
//!    the receiving inputs, not at the driving output,
//! 4. generates one candidate event per fanout input at the instant the new
//!    ramp crosses that input's own threshold (Fig. 3), letting the queue's
//!    per-input rule insert it or cancel the pulse for that input.  The
//!    queue is a bucketed time wheel ([`crate::queue`]) whose pop order —
//!    time, then schedule serial — makes the whole loop deterministic.
//!
//! [`Simulator`] wraps that core for one-off runs: each call to
//! [`Simulator::run`] compiles the circuit and executes once.  Multi-run
//! workloads should compile once via
//! [`CompiledCircuit::compile`](crate::CompiledCircuit::compile) and reuse
//! the compiled tables (and a [`SimState`](crate::SimState) arena, or a
//! [`BatchRunner`](crate::BatchRunner)) across stimuli.

use halotis_netlist::{Library, Netlist};
use halotis_waveform::Stimulus;

use crate::compiled::CompiledCircuit;
use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::result::SimulationResult;

/// The HALOTIS simulator: a netlist plus a characterised library, ready to
/// run stimuli under either delay model.
///
/// This type compiles the circuit on every [`run`](Simulator::run) — the
/// right trade-off for a single stimulus.  See the
/// [crate-level example](crate) for end-to-end usage and
/// [`CompiledCircuit`] for the compile-once/run-many path.
#[derive(Clone, Copy, Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `netlist` characterised by `library`.
    pub fn new(netlist: &'a Netlist, library: &'a Library) -> Self {
        Simulator { netlist, library }
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The cell library in use.
    pub fn library(&self) -> &Library {
        self.library
    }

    /// Compiles the circuit and runs one simulation.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::UndrivenPrimaryInput`] if the stimulus does not
    ///   cover every primary input,
    /// * [`SimulationError::Library`] if a gate uses an uncharacterised cell,
    /// * [`SimulationError::EventBudgetExhausted`] if the configured event
    ///   budget is exceeded.
    pub fn run(
        &self,
        stimulus: &Stimulus,
        config: &SimulationConfig,
    ) -> Result<SimulationResult, SimulationError> {
        CompiledCircuit::compile(self.netlist, self.library)?.run(stimulus, config)
    }

    /// Convenience: runs the same stimulus under both delay models and
    /// returns `(ddm, cdm)` — the comparison the paper's Table 1 makes.
    ///
    /// The circuit is compiled once and both runs share one state arena, so
    /// this costs one static preparation, not two.
    ///
    /// # Errors
    ///
    /// Propagates the first error of either run.
    pub fn run_both_models(
        &self,
        stimulus: &Stimulus,
        base: &SimulationConfig,
    ) -> Result<(SimulationResult, SimulationResult), SimulationError> {
        CompiledCircuit::compile(self.netlist, self.library)?.run_both_models(stimulus, base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::{LogicLevel, Time};
    use halotis_delay::DelayModelKind;
    use halotis_netlist::{generators, technology};

    fn chain_stimulus(library: &Library) -> Stimulus {
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(6.0), LogicLevel::Low);
        stimulus
    }

    #[test]
    fn inverter_chain_propagates_with_increasing_delay() {
        let netlist = generators::inverter_chain(4);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let result = simulator
            .run(&chain_stimulus(&library), &SimulationConfig::ddm())
            .unwrap();
        // The final output follows the input with the accumulated delay of
        // four inverters: it rises (even number of inversions) after 1 ns.
        let out = result.ideal_waveform("out").unwrap();
        assert_eq!(out.edge_count(), 2);
        let first_edge = out.changes()[0].0;
        assert!(first_edge > Time::from_ns(1.0));
        assert!(first_edge < Time::from_ns(4.0));
        // Each stage adds delay: intermediate nets switch earlier than `out`.
        let n1 = result.ideal_waveform("n1").unwrap();
        assert!(n1.changes()[0].0 < first_edge);
        assert!(result.stats().events_processed >= 8);
    }

    #[test]
    fn undriven_input_is_an_error() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let stimulus = Stimulus::new(library.default_input_slew());
        let err = simulator
            .run(&stimulus, &SimulationConfig::ddm())
            .unwrap_err();
        assert!(matches!(err, SimulationError::UndrivenPrimaryInput { .. }));
    }

    #[test]
    fn event_budget_is_enforced() {
        let netlist = generators::inverter_chain(8);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let config = SimulationConfig::ddm().with_max_events(2);
        let err = simulator
            .run(&chain_stimulus(&library), &config)
            .unwrap_err();
        assert_eq!(err, SimulationError::EventBudgetExhausted { budget: 2 });
    }

    #[test]
    fn time_limit_truncates_the_run() {
        let netlist = generators::inverter_chain(8);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let unlimited = simulator
            .run(&chain_stimulus(&library), &SimulationConfig::ddm())
            .unwrap();
        let limited = simulator
            .run(
                &chain_stimulus(&library),
                &SimulationConfig::ddm().with_time_limit(Time::from_ns(1.5)),
            )
            .unwrap();
        assert!(limited.stats().events_processed < unlimited.stats().events_processed);
    }

    #[test]
    fn both_models_agree_on_a_glitch_free_circuit() {
        // A single slow edge through an inverter chain never triggers the
        // degradation model, so DDM and CDM must give identical waveforms.
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(2.0), LogicLevel::High);
        let (ddm, cdm) = simulator
            .run_both_models(&stimulus, &SimulationConfig::default())
            .unwrap();
        assert_eq!(ddm.stats().events_processed, cdm.stats().events_processed);
        assert_eq!(ddm.stats().degraded_transitions, 0);
        let ddm_out = ddm.ideal_waveform("out").unwrap();
        let cdm_out = cdm.ideal_waveform("out").unwrap();
        assert_eq!(ddm_out.changes(), cdm_out.changes());
    }

    #[test]
    fn narrow_input_pulse_is_degraded_and_eventually_filtered() {
        // A pulse much narrower than the chain delay: with DDM the pulse
        // shrinks stage after stage and disappears; the total number of
        // half-swing edges seen downstream is smaller than with CDM.
        let netlist = generators::inverter_chain(6);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.25), LogicLevel::Low);
        let (ddm, cdm) = simulator
            .run_both_models(&stimulus, &SimulationConfig::default())
            .unwrap();
        assert!(ddm.stats().degraded_transitions > 0);
        let ddm_edges = ddm.ideal_waveform("out").unwrap().edge_count();
        let cdm_edges = cdm.ideal_waveform("out").unwrap().edge_count();
        assert!(
            ddm_edges <= cdm_edges,
            "DDM produced more output edges ({ddm_edges}) than CDM ({cdm_edges})"
        );
        // Both settle back to the quiescent value.
        assert_eq!(
            ddm.ideal_waveform("out").unwrap().final_level(),
            cdm.ideal_waveform("out").unwrap().final_level()
        );
    }

    #[test]
    fn per_input_thresholds_split_one_pulse_between_fanouts() {
        // The Fig. 1 circuit: a marginal pulse on out0 reaches the
        // low-threshold branch but not the high-threshold branch.
        let (netlist, nets) = generators::figure1(0.15, 0.85);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        // A pulse narrow enough to be marginal after the shaping chain.
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.35), LogicLevel::Low);
        let result = simulator.run(&stimulus, &SimulationConfig::ddm()).unwrap();
        let low_branch = result.waveform(&nets.out1).unwrap().len();
        let high_branch = result.waveform(&nets.out2).unwrap().len();
        assert!(
            low_branch >= high_branch,
            "low-threshold branch ({low_branch}) should see at least as many transitions as the high-threshold branch ({high_branch})"
        );
        assert!(result.stats().events_filtered > 0 || high_branch < 2);
    }

    #[test]
    fn multiplier_settles_to_the_correct_product() {
        let netlist = generators::multiplier(4, 4);
        let ports = generators::MultiplierPorts::new(4, 4);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        for (a, b) in [(0x7u64, 0x7u64), (0x5, 0xA), (0xE, 0x6), (0xF, 0xF)] {
            let mut stimulus = Stimulus::new(library.default_input_slew());
            for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
                stimulus.set_initial(*bit, LogicLevel::Low);
            }
            stimulus.drive_bus_value(&ports.a_refs(), a, Time::from_ns(1.0));
            stimulus.drive_bus_value(&ports.b_refs(), b, Time::from_ns(1.0));
            let result = simulator.run(&stimulus, &SimulationConfig::ddm()).unwrap();
            let mut product = 0u64;
            for (bit, name) in ports.s.iter().enumerate() {
                if result.ideal_waveform(name).unwrap().final_level() == LogicLevel::High {
                    product |= 1 << bit;
                }
            }
            assert_eq!(product, a * b, "{a:#x} x {b:#x}");
        }
    }

    #[test]
    fn model_kind_is_recorded_in_the_result() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let simulator = Simulator::new(&netlist, &library);
        assert_eq!(simulator.netlist().gate_count(), 2);
        assert_eq!(simulator.library().name(), "cmos06-synthetic");
        let result = simulator
            .run(&chain_stimulus(&library), &SimulationConfig::cdm())
            .unwrap();
        assert_eq!(result.model_kind(), Some(DelayModelKind::Conventional));
        assert_eq!(result.model_label(), "CDM");
    }
}
