//! Pins what a time-limited run reports.
//!
//! A run with `time_limit` stops popping events past the limit, but its
//! set-up pass still counts and records every primary-input transition,
//! including those after the limit: `output_transitions` and
//! `events_scheduled` cover the whole stimulus, and the recorded input
//! waveforms equal the stimulus.  The tables below hold every
//! `SimulationStats` field and a digest of the recorded primary-input
//! waveforms for two corpus entries — the clocked s27 and the
//! combinational c880 — at four limits, so a change to how stimulus
//! reaches the event queue cannot move any of them unnoticed.

use halotis::core::{Edge, Time};
use halotis::corpus::standard_corpus;
use halotis::netlist::technology;
use halotis::sim::{CompiledCircuit, SimulationConfig};

/// The time limits every entry runs under, in ns (`None` = unlimited).
const LIMITS: [Option<f64>; 4] = [Some(0.0), Some(5.0), Some(50.0), None];

/// Per entry and limit, the seven `SimulationStats` fields in declaration
/// order: scheduled, filtered, processed, output, degraded and collapsed
/// counts, and the queue high-water mark.
const STATS: [(&str, Option<f64>, [usize; 7]); 8] = [
    ("s27_clk64", Some(0.0), [524, 0, 0, 268, 0, 0, 524]),
    ("s27_clk64", Some(5.0), [529, 0, 13, 272, 0, 0, 524]),
    ("s27_clk64", Some(50.0), [569, 0, 111, 302, 13, 0, 524]),
    ("s27_clk64", None, [924, 6, 918, 584, 146, 2, 524]),
    ("c880", Some(0.0), [427, 0, 0, 173, 0, 0, 427]),
    ("c880", Some(5.0), [734, 11, 334, 384, 54, 8, 445]),
    ("c880", Some(50.0), [2662, 187, 2475, 1723, 1085, 101, 445]),
    ("c880", None, [2662, 187, 2475, 1723, 1085, 101, 445]),
];

/// Per entry, the number of recorded primary-input transitions and their
/// FNV-1a digest, the same at every limit.
const INPUTS: [(&str, usize, u64); 2] = [
    ("s27_clk64", 268, 10696255308439720876),
    ("c880", 173, 4862726646300821036),
];

/// Folds `bytes` into an FNV-1a hash.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn time_limited_runs_keep_their_stats_and_input_waveforms() {
    let library = technology::cmos06();
    let corpus = standard_corpus();
    let mut stats = Vec::new();
    for (name, pinned_transitions, pinned_digest) in INPUTS {
        let entry = corpus
            .iter()
            .find(|entry| entry.name == name)
            .expect("entry is in the corpus");
        let circuit = CompiledCircuit::compile(&entry.netlist, &library).expect("entry compiles");
        let stimuli = entry.suite.stimuli(&entry.netlist, &library);
        let (_, stimulus) = &stimuli[0];
        let mut state = circuit.new_state();
        for limit in LIMITS {
            let config = match limit {
                Some(ns) => SimulationConfig::ddm().with_time_limit(Time::from_ns(ns)),
                None => SimulationConfig::ddm(),
            };
            let result = circuit
                .run_with(&mut state, stimulus, &config)
                .expect("corpus run succeeds");
            let run = result.stats();
            stats.push((
                name,
                limit,
                [
                    run.events_scheduled,
                    run.events_filtered,
                    run.events_processed,
                    run.output_transitions,
                    run.degraded_transitions,
                    run.collapsed_transitions,
                    run.queue_high_water,
                ],
            ));
            // Name, then start and slew in fs and edge of every recorded
            // transition, input by input in primary-input order.
            let mut transitions = 0;
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for &input in entry.netlist.primary_inputs() {
                let net = entry.netlist.net(input).name();
                let recorded = result.waveform(net).expect("inputs are recorded");
                assert_eq!(
                    Some(recorded),
                    stimulus.waveform(net),
                    "{name} at {limit:?} ns: input {net} is not recorded as driven"
                );
                fnv1a(&mut digest, net.as_bytes());
                for transition in recorded.transitions() {
                    fnv1a(&mut digest, &transition.start().as_fs().to_le_bytes());
                    fnv1a(&mut digest, &transition.slew().as_fs().to_le_bytes());
                    fnv1a(&mut digest, &[u8::from(transition.edge() == Edge::Rise)]);
                    transitions += 1;
                }
            }
            assert_eq!(
                (transitions, digest),
                (pinned_transitions, pinned_digest),
                "{name} at {limit:?} ns: recorded primary-input waveforms moved"
            );
        }
    }
    assert_eq!(stats, STATS);
}
