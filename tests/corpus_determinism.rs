//! Determinism suite for the corpus subsystem — the property the
//! `corpus-golden` CI gate stands on.
//!
//! The gate diffs `CORPUS_stats.json` bit-exactly against a committed
//! golden, so everything upstream of the document must be a pure function
//! of the corpus definition: the generated netlists, the suite stimuli,
//! the batch statistics, the glitch counts and the energy sums — across
//! independent runs *and* across worker-thread counts.

use halotis::core::TimeDelta;
use halotis::corpus::{standard_corpus, CorpusEntry, CorpusRunner, CorpusStats, StimulusSuite};
use halotis::netlist::{generators, technology};
use proptest::prelude::*;

/// Builds a seeded one-entry corpus over random logic: every knob that
/// could perturb the golden (netlist seed, suite seed, vector count) comes
/// from the property inputs.
fn seeded_entry(
    net_seed: u64,
    stim_seed: u64,
    inputs: usize,
    gates: usize,
    vectors: usize,
) -> CorpusEntry {
    CorpusEntry::new(
        format!("random{inputs}x{gates}"),
        generators::random_logic(inputs, gates, net_seed),
        StimulusSuite::RandomVectors {
            vectors,
            period: TimeDelta::from_ns(5.0),
            seed: stim_seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_reproduces_netlist_stimuli_and_stats_bit_identically(
        net_seed in 0u64..1_000_000,
        stim_seed in 0u64..1_000_000,
        inputs in 4usize..12,
        gates in 20usize..120,
        vectors in 2usize..6,
    ) {
        let library = technology::cmos06();

        // Two independent constructions from the same seeds.
        let first = seeded_entry(net_seed, stim_seed, inputs, gates, vectors);
        let second = seeded_entry(net_seed, stim_seed, inputs, gates, vectors);
        prop_assert_eq!(&first.netlist, &second.netlist);
        prop_assert_eq!(
            first.suite.stimuli(&first.netlist, &library),
            second.suite.stimuli(&second.netlist, &library)
        );

        // Two independent runs produce bit-identical documents...
        let corpus_a = vec![first];
        let corpus_b = vec![second];
        let mut stats_a = CorpusRunner::new().run(&corpus_a).unwrap().stats;
        let mut stats_b = CorpusRunner::new().run(&corpus_b).unwrap().stats;
        stats_a.strip_timing();
        stats_b.strip_timing();
        prop_assert_eq!(&stats_a, &stats_b);
        prop_assert_eq!(stats_a.to_json(), stats_b.to_json());

        // ...and a different stimulus seed produces a different stimulus
        // (the corpus is seeded, not degenerate).
        let perturbed = seeded_entry(net_seed, stim_seed ^ 0xDEAD_BEEF, inputs, gates, vectors);
        prop_assert_ne!(
            corpus_a[0].suite.stimuli(&corpus_a[0].netlist, &library),
            perturbed.suite.stimuli(&perturbed.netlist, &library)
        );
    }

    #[test]
    fn thread_count_cannot_leak_into_the_golden(
        net_seed in 0u64..1_000_000,
        stim_seed in 0u64..1_000_000,
        probes in 2usize..6,
    ) {
        // A mixed two-entry corpus (random vectors + toggle probes) run
        // sequentially and with 4 workers: the stripped documents must be
        // bit-identical, scenario order included.
        let corpus = vec![
            seeded_entry(net_seed, stim_seed, 8, 60, 3),
            CorpusEntry::new(
                "probe",
                generators::parity_tree(probes + 2),
                StimulusSuite::ToggleProbes {
                    seed: stim_seed,
                    max_probes: probes,
                    pulse: TimeDelta::from_ps(600.0),
                },
            ),
        ];
        let mut sequential = CorpusRunner::new().with_threads(1).run(&corpus).unwrap().stats;
        let mut parallel = CorpusRunner::new().with_threads(4).run(&corpus).unwrap().stats;
        sequential.strip_timing();
        parallel.strip_timing();
        prop_assert_eq!(&sequential, &parallel);
        prop_assert_eq!(sequential.to_json(), parallel.to_json());
    }
}

/// The standard corpus itself — the exact workload behind the committed
/// golden — reproduces bit-identically across runs and thread counts, and
/// across the arena hops of one reused runner: at each thread count, one
/// runner first serves every entry alone, last entry first (so s27_soak's
/// large arenas go on to serve small circuits), then the whole corpus.
#[test]
fn standard_corpus_document_is_bit_identical_across_runs_and_threads() {
    let corpus = standard_corpus();
    let mut one = CorpusRunner::new()
        .with_threads(1)
        .run(&corpus)
        .unwrap()
        .stats;
    one.strip_timing();
    let expected = one.to_json();
    for threads in [1, 2, 4] {
        let runner = CorpusRunner::new().with_threads(threads);
        let mut reversed = CorpusStats::default();
        for entry in corpus.iter().rev() {
            let report = runner.run(std::slice::from_ref(entry)).unwrap();
            reversed.entries.extend(report.stats.entries);
        }
        reversed.entries.reverse();
        reversed.strip_timing();
        assert_eq!(
            reversed.to_json(),
            expected,
            "{threads} threads, entry by entry in reverse"
        );
        let mut whole = runner.run(&corpus).unwrap().stats;
        whole.strip_timing();
        assert_eq!(
            whole.to_json(),
            expected,
            "{threads} threads, whole corpus after the reverse pass"
        );
    }
}

/// The committed golden matches what this tree computes — the same check
/// the `corpus-golden` CI job performs, kept in-tree so `cargo test` alone
/// catches a stale golden.
#[test]
fn committed_golden_matches_a_fresh_run() {
    let golden = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/CORPUS_stats.json"))
        .expect("committed CORPUS_stats.json exists");
    let mut stats = CorpusRunner::new().run(&standard_corpus()).unwrap().stats;
    stats.strip_timing();
    assert_eq!(
        stats.to_json(),
        golden,
        "CORPUS_stats.json is stale; regenerate with \
         `cargo run --release --bin halotis-corpus -- --deterministic --out CORPUS_stats.json`"
    );
}
