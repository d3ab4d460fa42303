//! Shared fixtures, workload generators and test oracles for the HALOTIS
//! benchmark harness.
//!
//! Each Criterion bench regenerates one table or figure of the paper (or a
//! design-choice ablation); this library holds the pieces the benches share
//! so every target measures exactly the same workloads.  It also keeps the
//! retired event queue, [`reference::ReferenceEventQueue`], which the
//! `event_queue` bench and the queue property tests compare the production
//! queue against — out of the crates the simulator ships in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod reference;

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::experiments::{multiplier_stimulus, MultiplierFixture};
use halotis::netlist::{technology, Library, Netlist};
use halotis::sim::{Scenario, SimulationConfig};
use halotis::waveform::Stimulus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `count` random operand pairs for an `bits`-wide multiplier,
/// reproducibly from `seed`.
pub fn random_pairs(seed: u64, count: usize, bits: usize) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = (1u64 << bits) - 1;
    (0..count)
        .map(|_| (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask))
        .collect()
}

/// The stimulus used by the scaling benches: `vectors` random operand pairs
/// applied to `fixture` every 5 ns.
pub fn random_multiplier_stimulus(
    fixture: &MultiplierFixture,
    vectors: usize,
    seed: u64,
) -> Stimulus {
    let bits = fixture.ports.a.len().min(fixture.ports.b.len());
    multiplier_stimulus(&fixture.ports, &random_pairs(seed, vectors, bits))
}

/// Builds a batch of `count` scenarios for `fixture`, each applying a
/// distinct reproducible random operand sequence — the workload of the
/// batch-scaling bench and the compiled-vs-legacy comparison.
pub fn multiplier_batch_scenarios(
    fixture: &MultiplierFixture,
    count: usize,
    vectors: usize,
    seed: u64,
) -> Vec<Scenario> {
    (0..count)
        .map(|index| {
            Scenario::new(
                format!("scenario{index}"),
                random_multiplier_stimulus(
                    fixture,
                    vectors,
                    seed ^ (index as u64).wrapping_mul(0x9E37_79B9),
                ),
                SimulationConfig::ddm(),
            )
        })
        .collect()
}

/// A single positive pulse of `width` applied to the `in` input at 2 ns —
/// the workload of the degradation and inertial ablations.
pub fn pulse_stimulus(library: &Library, width: TimeDelta) -> Stimulus {
    let mut stimulus = Stimulus::new(library.default_input_slew());
    stimulus.set_initial("in", LogicLevel::Low);
    stimulus.drive("in", Time::from_ns(2.0), LogicLevel::High);
    stimulus.drive("in", Time::from_ns(2.0) + width, LogicLevel::Low);
    stimulus
}

/// A stimulus toggling every primary input of an arbitrary netlist once —
/// used by the event-queue stress bench on random logic.
pub fn toggle_all_inputs(netlist: &Netlist, at: Time) -> Stimulus {
    let library = technology::cmos06();
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for (index, &input) in netlist.primary_inputs().iter().enumerate() {
        let name = netlist.net(input).name();
        stimulus.set_initial(name, LogicLevel::Low);
        stimulus.drive(
            name,
            at + TimeDelta::from_ps(37.0 * index as f64),
            LogicLevel::High,
        );
    }
    stimulus
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis::experiments::multiplier_fixture;
    use halotis::netlist::generators;

    #[test]
    fn random_pairs_are_reproducible_and_in_range() {
        let a = random_pairs(7, 10, 4);
        let b = random_pairs(7, 10, 4);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(x, y)| x < 16 && y < 16));
    }

    #[test]
    fn stimuli_cover_all_inputs() {
        let fixture = multiplier_fixture();
        let stimulus = random_multiplier_stimulus(&fixture, 5, 1);
        assert_eq!(stimulus.input_names().count(), 8);
        let random = generators::random_logic(6, 50, 3);
        let toggles = toggle_all_inputs(&random, Time::from_ns(1.0));
        assert_eq!(toggles.input_names().count(), 6);
    }

    #[test]
    fn pulse_stimulus_has_two_edges() {
        let library = technology::cmos06();
        let stimulus = pulse_stimulus(&library, TimeDelta::from_ps(300.0));
        assert_eq!(stimulus.waveform("in").unwrap().len(), 2);
    }
}
