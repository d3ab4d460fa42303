//! Corpus entry definitions and the standard corpus.

use halotis_core::TimeDelta;
use halotis_delay::{Conventional, Degradation, DelayModelHandle, DelayModelKind, PerCellOverride};
use halotis_netlist::{generators, iscas, CellKind, Library, Netlist};
use halotis_sim::{Scenario, SimulationConfig};

use crate::stimuli::StimulusSuite;

/// The corpus's third model column: a [`PerCellOverride`] mix applying the
/// conventional model to the XOR family and the 4-input cells while every
/// other cell keeps the degradation model — the "degradation where
/// characterised" bring-up configuration, exercising the composite dispatch
/// path on every corpus circuit.
///
/// The composition is part of the golden contract: changing it changes
/// `CORPUS_stats.json` and must regenerate the committed golden.
///
/// # Example
///
/// ```
/// let mix = halotis_corpus::mixed_model();
/// assert_eq!(mix.label(), "MIX");
/// assert_eq!(mix.kind(), None); // composite, not a built-in
/// ```
pub fn mixed_model() -> DelayModelHandle {
    let mut mix = PerCellOverride::new(Degradation);
    for kind in [
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::And4,
        CellKind::Or4,
        CellKind::Nand4,
        CellKind::Nor4,
    ] {
        mix = mix.with(kind.class(), Conventional);
    }
    DelayModelHandle::new(mix.labelled("MIX"))
}

/// A delay-model column: every corpus stimulus runs under all three, and a
/// daemon `simulate` request names one.  Both take their run configuration
/// from [`ModelColumn::config`], so a column computes the same numbers in
/// process and over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelColumn {
    /// The degradation delay model (the paper's contribution).
    Ddm,
    /// The conventional inertial model.
    Cdm,
    /// The [`mixed_model`] per-cell override.
    Mix,
}

impl ModelColumn {
    /// Every column, in the order an entry's scenarios list them.
    pub const ALL: [ModelColumn; 3] = [ModelColumn::Ddm, ModelColumn::Cdm, ModelColumn::Mix];

    /// The spelling in scenario labels and on the wire: `ddm`, `cdm`, `mix`.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelColumn::Ddm => "ddm",
            ModelColumn::Cdm => "cdm",
            ModelColumn::Mix => "mix",
        }
    }

    /// The column's run configuration: the default settings under its model.
    pub fn config(self) -> SimulationConfig {
        let config = SimulationConfig::default();
        match self {
            ModelColumn::Ddm => config.model(DelayModelKind::Degradation),
            ModelColumn::Cdm => config.model(DelayModelKind::Conventional),
            ModelColumn::Mix => config.model(mixed_model()),
        }
    }
}

/// One corpus workload: a circuit paired with a stimulus suite.  Every
/// stimulus the suite produces runs under the **three** [`ModelColumn`]s —
/// DDM, CDM and the [`mixed_model`] per-cell override — so one entry
/// expands into `3 × stimuli` scenarios.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Unique entry name, the first segment of its scenario labels.
    pub name: String,
    /// The circuit under test.
    pub netlist: Netlist,
    /// The stimulus recipe.
    pub suite: StimulusSuite,
}

impl CorpusEntry {
    /// Creates an entry.
    pub fn new(name: impl Into<String>, netlist: Netlist, suite: StimulusSuite) -> Self {
        CorpusEntry {
            name: name.into(),
            netlist,
            suite,
        }
    }

    /// Expands the entry into its scenario set: every stimulus of the suite
    /// under all three [`ModelColumn`]s, labelled `entry/stimulus/model`
    /// (`.../ddm`, `.../cdm`, `.../mix` adjacent, in that order).
    pub fn scenarios(&self, library: &Library) -> Vec<Scenario> {
        self.suite
            .stimuli(&self.netlist, library)
            .into_iter()
            .flat_map(|(stimulus_label, stimulus)| {
                let label = format!("{}/{}", self.name, stimulus_label);
                let scenario = |column: ModelColumn, stimulus| {
                    Scenario::new(
                        format!("{label}/{}", column.as_str()),
                        stimulus,
                        column.config(),
                    )
                };
                let [ddm, cdm, mix] = ModelColumn::ALL;
                [
                    scenario(ddm, stimulus.clone()),
                    scenario(cdm, stimulus.clone()),
                    scenario(mix, stimulus),
                ]
            })
            .collect()
    }
}

/// The standard HALOTIS corpus: scalable multipliers (array and Wallace
/// tree), ripple-/carry-skip/Kogge-Stone adders, parity trees, layered
/// random logic, the ISCAS-85 circuits c17, c432 and c880 (the latter
/// two loaded from committed netlist files through the parser), and the
/// sequential ISCAS-89 s27 under clocked suites — including a
/// multi-thousand-cycle soak — each paired with the stimulus suite that
/// stresses it best.
///
/// The definition is **frozen by the golden-stats gate**: any change here
/// (an entry, a seed, a size) changes `CORPUS_stats.json` and must
/// regenerate the committed golden in the same commit.
pub fn standard_corpus() -> Vec<CorpusEntry> {
    let ns = TimeDelta::from_ns;
    let ps = TimeDelta::from_ps;
    vec![
        CorpusEntry::new(
            "mult4x4",
            generators::multiplier(4, 4),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(5.0),
                seed: 0xA11CE,
            },
        ),
        CorpusEntry::new(
            "mult5x3",
            generators::multiplier(5, 3),
            StimulusSuite::RandomVectors {
                vectors: 12,
                period: ns(5.0),
                seed: 0xB0B5,
            },
        ),
        CorpusEntry::new(
            "rca8",
            generators::ripple_carry_adder(8),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(5.0),
                seed: 0xADD8,
            },
        ),
        CorpusEntry::new(
            "rca12",
            generators::ripple_carry_adder(12),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(5.0),
                seed: 0xADD12,
            },
        ),
        CorpusEntry::new(
            "cska8b2",
            generators::carry_skip_adder(8, 2),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(5.0),
                seed: 0x5C1B,
            },
        ),
        CorpusEntry::new(
            "cska12b4",
            generators::carry_skip_adder(12, 4),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(5.0),
                seed: 0x5C1C,
            },
        ),
        CorpusEntry::new(
            "parity6",
            generators::parity_tree(6),
            StimulusSuite::Exhaustive { period: ns(4.0) },
        ),
        CorpusEntry::new(
            "parity8",
            generators::parity_tree(8),
            StimulusSuite::ToggleProbes {
                seed: 0xF00D,
                max_probes: 8,
                pulse: ps(600.0),
            },
        ),
        CorpusEntry::new(
            "parity16",
            generators::parity_tree(16),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(4.0),
                seed: 0x9A9,
            },
        ),
        CorpusEntry::new(
            "c17",
            generators::c17(),
            StimulusSuite::Exhaustive { period: ns(4.0) },
        ),
        CorpusEntry::new(
            "c17_probe",
            generators::c17(),
            StimulusSuite::ToggleProbes {
                seed: 0x17,
                max_probes: 5,
                pulse: ps(500.0),
            },
        ),
        CorpusEntry::new(
            "random16x300",
            generators::random_logic(16, 300, 0xC0FFEE),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(6.0),
                seed: 0xFACADE,
            },
        ),
        CorpusEntry::new(
            "random24x600",
            generators::random_logic(24, 600, 0xDECAF),
            StimulusSuite::RandomVectors {
                vectors: 4,
                period: ns(6.0),
                seed: 0xFEED,
            },
        ),
        CorpusEntry::new(
            "random12x150",
            generators::random_logic(12, 150, 0x7E57),
            StimulusSuite::ToggleProbes {
                seed: 0x7E57,
                max_probes: 6,
                pulse: ps(700.0),
            },
        ),
        CorpusEntry::new(
            "ks8",
            generators::kogge_stone_adder(8),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(5.0),
                seed: 0x5708,
            },
        ),
        CorpusEntry::new(
            "ks16",
            generators::kogge_stone_adder(16),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(5.0),
                seed: 0x5716,
            },
        ),
        CorpusEntry::new(
            "wallace4x4",
            generators::wallace_tree_multiplier(4, 4),
            StimulusSuite::RandomVectors {
                vectors: 16,
                period: ns(5.0),
                seed: 0x3A44,
            },
        ),
        CorpusEntry::new(
            "wallace6x6",
            generators::wallace_tree_multiplier(6, 6),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(6.0),
                seed: 0x3A66,
            },
        ),
        CorpusEntry::new(
            "c432",
            iscas::c432(),
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: ns(6.0),
                seed: 0x432,
            },
        ),
        CorpusEntry::new(
            "c432_probe",
            iscas::c432(),
            StimulusSuite::ToggleProbes {
                seed: 0x432,
                max_probes: 6,
                pulse: ps(700.0),
            },
        ),
        CorpusEntry::new(
            "c880",
            iscas::c880(),
            StimulusSuite::RandomVectors {
                vectors: 6,
                period: ns(8.0),
                seed: 0x880,
            },
        ),
        CorpusEntry::new(
            "c880_probe",
            iscas::c880(),
            StimulusSuite::ToggleProbes {
                seed: 0x880,
                max_probes: 4,
                pulse: ps(800.0),
            },
        ),
        // Sequential entries (appended so earlier scenario labels never
        // shift): the ISCAS-89 s27 under a short clocked suite and a
        // multi-thousand-cycle soak whose events-per-cycle and queue
        // high-water telemetry the golden gate pins.  The clock shapes
        // leave well over the circuit's ~1.6 ns data-to-register settle
        // time between the data change (fall + skew) and the next rising
        // edge, so the registers always latch settled values and the runs
        // track the cycle-accurate reference model.
        CorpusEntry::new(
            "s27_clk64",
            iscas::s27(),
            StimulusSuite::Clocked {
                cycles: 64,
                period: ns(6.0),
                high: ns(2.0),
                skew: ps(500.0),
                seed: 0x27,
            },
        ),
        CorpusEntry::new(
            "s27_soak",
            iscas::s27(),
            StimulusSuite::Clocked {
                cycles: 2500,
                period: ns(4.0),
                high: ns(1.0),
                skew: ps(250.0),
                seed: 0x527,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_netlist::technology;
    use std::collections::HashSet;

    #[test]
    fn standard_corpus_is_deterministic() {
        let a = standard_corpus();
        let b = standard_corpus();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.netlist, y.netlist);
            assert_eq!(x.suite, y.suite);
        }
    }

    #[test]
    fn entry_names_are_unique() {
        let corpus = standard_corpus();
        let names: HashSet<&str> = corpus.iter().map(|entry| entry.name.as_str()).collect();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn corpus_meets_the_scenario_floor() {
        // The acceptance floor: ≥ 22 entries expanding into ≥ 100 distinct
        // scenarios, every stimulus present in all three model columns.
        let corpus = standard_corpus();
        assert!(corpus.len() >= 22, "only {} entries", corpus.len());
        let library = technology::cmos06();
        let mut labels = HashSet::new();
        let (mut ddm, mut cdm, mut mix) = (0, 0, 0);
        for entry in &corpus {
            for scenario in entry.scenarios(&library) {
                assert!(
                    labels.insert(scenario.label.clone()),
                    "dup {}",
                    scenario.label
                );
                if scenario.label.ends_with("/ddm") {
                    ddm += 1;
                } else if scenario.label.ends_with("/cdm") {
                    cdm += 1;
                } else if scenario.label.ends_with("/mix") {
                    mix += 1;
                }
            }
        }
        assert!(labels.len() >= 100, "only {} scenarios", labels.len());
        assert_eq!(ddm, cdm, "every stimulus runs under both built-in models");
        assert_eq!(ddm, mix, "every stimulus runs under the mixed column");
    }

    #[test]
    fn corpus_covers_the_roadmap_circuit_families() {
        let corpus = standard_corpus();
        for name in ["c432", "c880", "ks8", "ks16", "wallace4x4", "wallace6x6"] {
            assert!(
                corpus.iter().any(|entry| entry.name == name),
                "missing corpus entry {name}"
            );
        }
    }

    #[test]
    fn scenario_labels_carry_entry_suite_and_model() {
        let corpus = standard_corpus();
        let library = technology::cmos06();
        let scenarios = corpus[0].scenarios(&library);
        assert_eq!(scenarios[0].label, "mult4x4/rand16/ddm");
        assert_eq!(scenarios[1].label, "mult4x4/rand16/cdm");
        assert_eq!(scenarios[2].label, "mult4x4/rand16/mix");
        assert_eq!(scenarios[0].config.model.label(), "DDM");
        assert_eq!(scenarios[1].config.model.label(), "CDM");
        assert_eq!(scenarios[2].config.model.label(), "MIX");
    }

    #[test]
    fn mixed_model_differs_from_both_builtins_per_cell() {
        use halotis_delay::{Conventional, Degradation, DelayContext, DelayModel, EdgeTiming};
        let mix = mixed_model();
        let arc = EdgeTiming::example();
        // A recently active gate makes DDM and CDM diverge.
        let ctx = |kind: CellKind| DelayContext {
            vdd: halotis_core::Voltage::from_volts(5.0),
            load: halotis_core::Capacitance::from_femtofarads(20.0),
            input_slew: halotis_core::TimeDelta::from_ps(150.0),
            time_since_last_output: Some(halotis_core::TimeDelta::from_ps(20.0)),
            cell_class: kind.class(),
        };
        let nand_ctx = ctx(CellKind::Nand2);
        let xor_ctx = ctx(CellKind::Xor2);
        assert_eq!(
            mix.evaluate(&arc, &nand_ctx),
            Degradation.evaluate(&arc, &nand_ctx)
        );
        assert_eq!(
            mix.evaluate(&arc, &xor_ctx),
            Conventional.evaluate(&arc, &xor_ctx)
        );
        assert_ne!(
            Degradation.evaluate(&arc, &xor_ctx),
            Conventional.evaluate(&arc, &xor_ctx),
            "the override must be observable"
        );
    }
}
