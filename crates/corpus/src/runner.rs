//! Executes a corpus through the no-waveform observed batch path.
//!
//! Every entry compiles once; its scenarios (each stimulus × the three
//! [`ModelColumn`](crate::ModelColumn)s) run through
//! [`BatchRunner::run_observed`] with the [`ScenarioObserver`] bundle the
//! daemon runs too — [`PowerAccumulator`](halotis_sim::PowerAccumulator) +
//! [`GlitchProfile`](crate::GlitchProfile) — plus a [`WallClockProbe`], so
//! no waveform is ever allocated, exactly the configuration the paper's
//! Table 1 statistics use.  The hotspot ranking folds each scenario's
//! per-net energy by net index and names the nets once per entry.  The
//! per-entry batch can be repeated to collect timing samples for the
//! criterion-style capture the perf gate consumes.

use std::fmt;
use std::time::Duration;

use halotis_core::Capacitance;
use halotis_netlist::technology;
use halotis_sim::{BatchRunner, CompiledCircuit, SimulationError};

use crate::entry::CorpusEntry;
use crate::observer::{ScenarioObserver, WallClockProbe};
use crate::stats::{CorpusStats, EntryRecord, ScenarioRecord};

/// A corpus scenario failed; the corpus is expected to be fully green, so
/// one failure aborts the run with full context.
#[derive(Debug)]
pub struct CorpusError {
    /// Entry whose batch failed.
    pub entry: String,
    /// Failing scenario label, when the failure is scenario-level.
    pub scenario: Option<String>,
    /// The underlying engine error.
    pub source: SimulationError,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.scenario {
            Some(scenario) => write!(
                f,
                "corpus entry {} scenario {} failed: {}",
                self.entry, scenario, self.source
            ),
            None => write!(f, "corpus entry {} failed: {}", self.entry, self.source),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Wall-clock samples of one entry's batch, one per repeat.
#[derive(Clone, Debug)]
pub struct EntryTiming {
    /// Corpus entry name.
    pub name: String,
    /// One batch wall-clock duration per repeat, in execution order.
    pub samples: Vec<Duration>,
}

impl EntryTiming {
    /// Renders the sample set as one line of the criterion-style capture
    /// `scripts/bench_to_json.py` parses:
    ///
    /// ```text
    /// corpus/mult4x4    median 1.2ms  mean 1.3ms  min 1.1ms
    /// ```
    pub fn criterion_line(&self) -> String {
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<Duration>() / sorted.len() as u32;
        let min = sorted[0];
        format!(
            "corpus/{}    median {median:?}  mean {mean:?}  min {min:?}",
            self.name
        )
    }
}

/// Total dynamic energy attributed to one net of one corpus entry, summed
/// over every scenario (each stimulus × the three model columns) of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct NetHotspot {
    /// Corpus entry name.
    pub entry: String,
    /// Net name within the entry's circuit.
    pub net: String,
    /// Switched capacitance of the net.
    pub capacitance: Capacitance,
    /// Transitions summed over all scenarios.
    pub transitions: usize,
    /// `C · Vdd² · transitions` summed over all scenarios, in joules.
    pub energy_joules: f64,
}

/// Everything one corpus run produces: the statistics document plus the
/// per-entry timing samples.
#[derive(Clone, Debug)]
pub struct CorpusReport {
    /// The statistics document (golden-gate material).
    pub stats: CorpusStats,
    /// Per-entry timing, in corpus order (perf-capture material).
    pub timings: Vec<EntryTiming>,
    /// Every net that switched at least once, most energetic first; ties
    /// break on `(entry, net)` names so the ranking is fully deterministic.
    /// Derived material — deliberately kept out of the golden-gated
    /// [`CorpusStats`] document.
    pub hotspots: Vec<NetHotspot>,
}

impl CorpusReport {
    /// The `count` most energetic nets of the whole corpus run.
    pub fn top_hotspots(&self, count: usize) -> &[NetHotspot] {
        &self.hotspots[..count.min(self.hotspots.len())]
    }
}

/// Runs corpus entries through the observed batch path.
#[derive(Clone, Copy, Debug)]
pub struct CorpusRunner {
    threads: usize,
    repeats: usize,
}

impl CorpusRunner {
    /// A runner using every hardware thread and a single timing repeat.
    pub fn new() -> Self {
        CorpusRunner {
            threads: 0,
            repeats: 1,
        }
    }

    /// Fixes the worker-thread count; `0` selects hardware parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Repeats every entry's batch `repeats` times (clamped to at least 1)
    /// to collect that many timing samples.  Statistics are identical on
    /// every repeat — only wall-clock differs — so the records are taken
    /// from the last repeat.
    pub fn with_repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// The configured repeat count.
    pub fn repeats(&self) -> usize {
        self.repeats.max(1)
    }

    /// Runs every entry, producing the statistics document and timing
    /// samples.  The first scenario failure aborts the run.
    pub fn run(&self, corpus: &[CorpusEntry]) -> Result<CorpusReport, CorpusError> {
        let library = technology::cmos06();
        let batch = if self.threads == 0 {
            BatchRunner::new()
        } else {
            BatchRunner::with_threads(self.threads)
        };
        let mut stats = CorpusStats::default();
        let mut timings = Vec::with_capacity(corpus.len());
        let mut hotspots = Vec::new();

        for entry in corpus {
            let circuit = CompiledCircuit::compile(&entry.netlist, &library).map_err(|source| {
                CorpusError {
                    entry: entry.name.clone(),
                    scenario: None,
                    source,
                }
            })?;
            let scenarios = entry.scenarios(&library);

            let mut samples = Vec::with_capacity(self.repeats());
            let mut last_report = None;
            for _ in 0..self.repeats() {
                let report = batch.run_observed(&circuit, &scenarios, |_, _| {
                    (ScenarioObserver::default(), WallClockProbe::new())
                });
                samples.push(report.wall_time());
                last_report = Some(report);
            }
            let report = last_report.expect("at least one repeat ran");

            // Per-net (transitions, joules), indexed by net and summed
            // across the entry's scenarios in scenario order — the float
            // additions happen in one fixed order, so the totals are
            // bit-reproducible regardless of worker-thread count.
            let mut net_energy = vec![(0usize, 0.0f64); entry.netlist.net_count()];
            let mut records = Vec::with_capacity(scenarios.len());
            for (scenario, outcome) in scenarios.iter().zip(report.outcomes()) {
                let run_stats = outcome.stats.as_ref().map_err(|source| CorpusError {
                    entry: entry.name.clone(),
                    scenario: Some(outcome.label.clone()),
                    source: source.clone(),
                })?;
                let ((power, glitches), clock) = &outcome.observer;
                for (sum, (transitions, joules)) in net_energy.iter_mut().zip(power.per_net()) {
                    sum.0 += transitions;
                    sum.1 += joules;
                }
                records.push(ScenarioRecord {
                    label: outcome.label.clone(),
                    model: scenario.config.model.label().to_string(),
                    stats: *run_stats,
                    events_per_cycle: entry
                        .suite
                        .cycles()
                        .map(|cycles| run_stats.events_processed as f64 / cycles as f64),
                    glitch_pulses: glitches.total_glitches(),
                    energy_joules: power.total_joules(),
                    wall_time_ns: clock.elapsed().map(|elapsed| elapsed.as_nanos()),
                });
            }

            stats.entries.push(EntryRecord {
                name: entry.name.clone(),
                circuit: entry.netlist.name().to_string(),
                gates: entry.netlist.gate_count(),
                nets: entry.netlist.net_count(),
                suite: entry.suite.label(),
                scenarios: records,
                wall_time_ns: Some(report.wall_time().as_nanos()),
            });
            timings.push(EntryTiming {
                name: entry.name.clone(),
                samples,
            });
            let nets = entry.netlist.nets().iter().zip(circuit.net_loads());
            for ((net, &capacitance), (transitions, energy_joules)) in nets.zip(net_energy) {
                if transitions > 0 {
                    hotspots.push(NetHotspot {
                        entry: entry.name.clone(),
                        net: net.name().to_string(),
                        capacitance,
                        transitions,
                        energy_joules,
                    });
                }
            }
        }
        hotspots.sort_by(|a: &NetHotspot, b: &NetHotspot| {
            b.energy_joules
                .total_cmp(&a.energy_joules)
                .then_with(|| a.entry.cmp(&b.entry))
                .then_with(|| a.net.cmp(&b.net))
        });
        Ok(CorpusReport {
            stats,
            timings,
            hotspots,
        })
    }
}

impl Default for CorpusRunner {
    fn default() -> Self {
        CorpusRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::standard_corpus;
    use crate::stimuli::StimulusSuite;
    use halotis_core::TimeDelta;
    use halotis_netlist::generators;

    fn small_corpus() -> Vec<CorpusEntry> {
        vec![
            CorpusEntry::new(
                "c17",
                generators::c17(),
                StimulusSuite::Exhaustive {
                    period: TimeDelta::from_ns(4.0),
                },
            ),
            CorpusEntry::new(
                "parity4",
                generators::parity_tree(4),
                StimulusSuite::ToggleProbes {
                    seed: 7,
                    max_probes: 2,
                    pulse: TimeDelta::from_ps(600.0),
                },
            ),
        ]
    }

    #[test]
    fn runner_produces_one_record_per_scenario() {
        let corpus = small_corpus();
        let report = CorpusRunner::new().run(&corpus).unwrap();
        assert_eq!(report.stats.entries.len(), 2);
        assert_eq!(report.stats.entries[0].scenarios.len(), 3); // exh × 3 models
        assert_eq!(report.stats.entries[1].scenarios.len(), 6); // 2 probes × 3
        assert_eq!(report.stats.scenario_count(), 9);
        assert_eq!(report.timings.len(), 2);
        for entry in &report.stats.entries {
            assert!(entry.wall_time_ns.is_some());
            for scenario in &entry.scenarios {
                assert!(scenario.stats.events_processed > 0, "{}", scenario.label);
                assert!(scenario.energy_joules > 0.0, "{}", scenario.label);
                assert!(scenario.wall_time_ns.is_some());
                assert!(
                    scenario.model == "DDM" || scenario.model == "CDM" || scenario.model == "MIX"
                );
            }
        }
    }

    #[test]
    fn statistics_are_thread_count_independent() {
        let corpus = small_corpus();
        let mut one = CorpusRunner::new()
            .with_threads(1)
            .run(&corpus)
            .unwrap()
            .stats;
        let mut four = CorpusRunner::new()
            .with_threads(4)
            .run(&corpus)
            .unwrap()
            .stats;
        one.strip_timing();
        four.strip_timing();
        assert_eq!(one, four);
        assert_eq!(one.to_json(), four.to_json());
    }

    #[test]
    fn repeats_collect_that_many_samples() {
        let corpus = small_corpus();
        let report = CorpusRunner::new().with_repeats(3).run(&corpus).unwrap();
        for timing in &report.timings {
            assert_eq!(timing.samples.len(), 3);
            let line = timing.criterion_line();
            assert!(line.contains("median"), "{line}");
            assert!(line.contains("mean"), "{line}");
            assert!(line.contains("min"), "{line}");
        }
    }

    #[test]
    fn hotspot_ranking_is_sorted_deterministic_and_complete() {
        let corpus = small_corpus();
        let report = CorpusRunner::new().with_threads(1).run(&corpus).unwrap();
        assert!(!report.hotspots.is_empty());
        // Most-energetic first, names breaking exact ties.
        for pair in report.hotspots.windows(2) {
            assert!(pair[0].energy_joules >= pair[1].energy_joules);
            if pair[0].energy_joules == pair[1].energy_joules {
                assert!((&pair[0].entry, &pair[0].net) < (&pair[1].entry, &pair[1].net));
            }
        }
        // Every ranked net switched, and the ranking conserves energy: the
        // summed hotspot energy matches the summed scenario energy (same
        // numbers, different addition order — hence the relative epsilon).
        let ranked: f64 = report.hotspots.iter().map(|h| h.energy_joules).sum();
        let scenario_total: f64 = report
            .stats
            .entries
            .iter()
            .flat_map(|entry| &entry.scenarios)
            .map(|scenario| scenario.energy_joules)
            .sum();
        assert!(report.hotspots.iter().all(|h| h.transitions > 0));
        assert!((ranked - scenario_total).abs() <= scenario_total * 1e-12);
        // The ranking is part of the determinism contract: a four-worker
        // run produces the identical vector, floats included.
        let four = CorpusRunner::new().with_threads(4).run(&corpus).unwrap();
        assert_eq!(report.hotspots, four.hotspots);
        // top_hotspots clamps like PowerReport::hotspots does.
        assert_eq!(report.top_hotspots(3).len(), 3);
        assert_eq!(report.top_hotspots(usize::MAX).len(), report.hotspots.len());
    }

    #[test]
    fn hotspots_equal_a_by_name_fold_of_every_scenario_power_report() {
        // The oracle folds each scenario's full per-net power report by net
        // name, in scenario order; the runner folds by net index.  The same
        // additions happen in the same order, so the energies agree to the
        // bit.
        let corpus = standard_corpus();
        let report = CorpusRunner::new().run(&corpus).unwrap();
        let library = technology::cmos06();
        let mut expected = Vec::new();
        for entry in &corpus {
            let circuit = CompiledCircuit::compile(&entry.netlist, &library).unwrap();
            let scenarios = entry.scenarios(&library);
            let batch = BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| {
                halotis_sim::PowerAccumulator::new()
            });
            let mut by_name: std::collections::BTreeMap<String, NetHotspot> = Default::default();
            for outcome in batch.outcomes() {
                for net in outcome.observer.report(&entry.netlist).per_net() {
                    if net.transitions == 0 {
                        continue;
                    }
                    let slot = by_name
                        .entry(net.net.clone())
                        .or_insert_with(|| NetHotspot {
                            entry: entry.name.clone(),
                            net: net.net.clone(),
                            capacitance: net.capacitance,
                            transitions: 0,
                            energy_joules: 0.0,
                        });
                    slot.transitions += net.transitions;
                    slot.energy_joules += net.energy_joules;
                }
            }
            expected.extend(by_name.into_values());
        }
        expected.sort_by(|a, b| {
            b.energy_joules
                .total_cmp(&a.energy_joules)
                .then_with(|| a.entry.cmp(&b.entry))
                .then_with(|| a.net.cmp(&b.net))
        });
        assert_eq!(report.hotspots.len(), expected.len());
        for (got, want) in report.hotspots.iter().zip(&expected) {
            assert_eq!(
                (&got.entry, &got.net, got.capacitance, got.transitions),
                (&want.entry, &want.net, want.capacitance, want.transitions)
            );
            assert_eq!(
                got.energy_joules.to_bits(),
                want.energy_joules.to_bits(),
                "{}/{}",
                got.entry,
                got.net
            );
        }
    }

    #[test]
    fn cdm_overestimates_activity_on_the_standard_corpus() {
        // The paper's headline claim, asserted corpus-wide: summed over all
        // entries, CDM schedules more events and produces at least as many
        // glitches as DDM.
        let corpus = standard_corpus();
        let stats = CorpusRunner::new().run(&corpus).unwrap().stats;
        let mut ddm = halotis_sim::SimulationStats::default();
        let mut cdm = halotis_sim::SimulationStats::default();
        let mut mix = halotis_sim::SimulationStats::default();
        let (mut ddm_glitches, mut cdm_glitches) = (0usize, 0usize);
        for entry in &stats.entries {
            for scenario in &entry.scenarios {
                match scenario.model.as_str() {
                    "DDM" => {
                        ddm.merge(&scenario.stats);
                        ddm_glitches += scenario.glitch_pulses;
                    }
                    "CDM" => {
                        cdm.merge(&scenario.stats);
                        cdm_glitches += scenario.glitch_pulses;
                    }
                    "MIX" => mix.merge(&scenario.stats),
                    other => panic!("unexpected model {other}"),
                }
            }
        }
        assert!(
            cdm.events_scheduled > ddm.events_scheduled,
            "CDM {} <= DDM {}",
            cdm.events_scheduled,
            ddm.events_scheduled
        );
        assert!(
            cdm_glitches >= ddm_glitches,
            "CDM glitches {cdm_glitches} < DDM glitches {ddm_glitches}"
        );
        assert!(ddm.degraded_transitions > 0);
        // The mixed column sits between the two pure models: conventional
        // on part of the cell set cannot filter more than full degradation.
        assert!(
            mix.events_scheduled >= ddm.events_scheduled,
            "MIX {} < DDM {}",
            mix.events_scheduled,
            ddm.events_scheduled
        );
        assert!(
            mix.events_scheduled <= cdm.events_scheduled,
            "MIX {} > CDM {}",
            mix.events_scheduled,
            cdm.events_scheduled
        );
        assert!(mix.degraded_transitions > 0, "MIX still degrades somewhere");
    }
}
