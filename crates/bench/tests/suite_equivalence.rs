//! The corpus suites generate each input's transitions on demand; these
//! properties hold the generators to the drive-by-drive expansion they
//! replaced, [`halotis_bench::reference::suite_stimuli`]: for every suite
//! kind, random parameters and every corpus circuit, each materialized
//! stimulus must equal the expansion's, label for label.

use std::sync::OnceLock;

use halotis::core::TimeDelta;
use halotis::corpus::standard_corpus;
use halotis::corpus::stimuli::{StimulusSuite, MAX_EXHAUSTIVE_INPUTS};
use halotis::netlist::{technology, Netlist};
use halotis_bench::reference::suite_stimuli;
use proptest::prelude::*;

/// Every distinct circuit of the standard corpus.
fn circuits() -> &'static [Netlist] {
    static CIRCUITS: OnceLock<Vec<Netlist>> = OnceLock::new();
    CIRCUITS.get_or_init(|| {
        let mut circuits: Vec<Netlist> = Vec::new();
        for entry in standard_corpus() {
            if circuits
                .iter()
                .all(|known| known.name() != entry.netlist.name())
            {
                circuits.push(entry.netlist);
            }
        }
        circuits
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn generated_suites_materialize_as_the_drive_based_expansion(
        circuit in 0usize..64,
        kind in 0u8..4,
        count in 0usize..40,
        period_ps in 0i64..3_000,
        seed in any::<u64>(),
        probes in 0usize..12,
        pulse_ps in 0i64..1_500,
        high_ps in 1i64..1_500,
        skew_ps in 0i64..1_500,
        slack_ps in 1i64..3_000,
    ) {
        let ps = |value: i64| TimeDelta::from_fs(value * 1_000);
        let suite = match kind {
            0 => StimulusSuite::RandomVectors { vectors: count, period: ps(period_ps), seed },
            1 => StimulusSuite::Exhaustive { period: ps(period_ps) },
            2 => StimulusSuite::ToggleProbes { seed, max_probes: probes, pulse: ps(pulse_ps) },
            _ => StimulusSuite::Clocked {
                cycles: count,
                period: ps(high_ps + skew_ps + slack_ps),
                high: ps(high_ps),
                skew: ps(skew_ps),
                seed,
            },
        };
        let candidates: Vec<&Netlist> = circuits()
            .iter()
            .filter(|netlist| {
                kind != 1 || netlist.primary_inputs().len() <= MAX_EXHAUSTIVE_INPUTS
            })
            .collect();
        let netlist = candidates[circuit % candidates.len()];
        let library = technology::cmos06();
        let generated = suite.stimuli(netlist, &library);
        let expanded = suite_stimuli(&suite, netlist, &library);
        prop_assert_eq!(&generated, &expanded, "{:?} on {}", suite, netlist.name());
        prop_assert_eq!(generated.len(), suite.sources(netlist, &library).len());
    }
}
