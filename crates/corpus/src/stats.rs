//! Corpus statistics records and their canonical JSON rendering.
//!
//! The JSON layout is the contract of the `corpus-golden` CI gate: every
//! field except the `wall_time_ns` timing fields is a deterministic
//! function of the corpus definition, so a freshly generated document must
//! match the committed `CORPUS_stats.json` byte for byte once timing is
//! stripped (or never recorded, via
//! [`CorpusStats::strip_timing`] / the CLI's `--deterministic` flag).
//!
//! Serialisation is hand-rolled: the build environment has no serde, and a
//! golden file needs full control over field order and number formatting
//! anyway.  Floats are rendered with Rust's shortest-roundtrip `{:e}`
//! formatting, which is platform-independent.

use std::fmt::Write as _;

use halotis_sim::SimulationStats;

/// Schema identifier embedded in every document.
pub const SCHEMA: &str = "halotis-corpus-v1";

/// Statistics of one scenario (one stimulus under one delay model).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRecord {
    /// Full scenario label: `entry/stimulus/model` (e.g. `mult4x4/rand16/ddm`).
    pub label: String,
    /// Delay-model label of the run (e.g. `DDM`, `CDM`).
    pub model: String,
    /// Engine counters of the run.
    pub stats: SimulationStats,
    /// Events processed per clock cycle — the event-budget telemetry of the
    /// clocked soak scenarios.  `None` for unclocked (combinational) suites.
    pub events_per_cycle: Option<f64>,
    /// Glitch pulses on the half-swing projection (see
    /// [`GlitchProfile`](crate::GlitchProfile)).
    pub glitch_pulses: usize,
    /// Switched-capacitance dynamic energy of the run, in joules.
    pub energy_joules: f64,
    /// Wall-clock time of the run in nanoseconds; `None` when timing was
    /// not recorded (deterministic mode).
    pub wall_time_ns: Option<u128>,
}

/// Statistics of one corpus entry: the circuit, its suite, and all its
/// scenarios in submission order.
#[derive(Clone, Debug, PartialEq)]
pub struct EntryRecord {
    /// Corpus entry name (e.g. `mult4x4`).
    pub name: String,
    /// Netlist name of the circuit.
    pub circuit: String,
    /// Gate count of the circuit.
    pub gates: usize,
    /// Net count of the circuit.
    pub nets: usize,
    /// Suite label (e.g. `rand16`).
    pub suite: String,
    /// Per-scenario records, in submission order (model pairs adjacent).
    pub scenarios: Vec<ScenarioRecord>,
    /// Wall-clock time of the entry's whole batch in nanoseconds.
    pub wall_time_ns: Option<u128>,
}

/// The whole corpus run: per-entry records plus aggregate totals.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CorpusStats {
    /// Per-entry records, in corpus order.
    pub entries: Vec<EntryRecord>,
}

impl CorpusStats {
    /// Total number of scenarios across all entries.
    pub fn scenario_count(&self) -> usize {
        self.entries.iter().map(|entry| entry.scenarios.len()).sum()
    }

    /// Engine counters summed over every scenario.
    pub fn totals(&self) -> SimulationStats {
        let mut totals = SimulationStats::default();
        for entry in &self.entries {
            for scenario in &entry.scenarios {
                totals.merge(&scenario.stats);
            }
        }
        totals
    }

    /// Glitch pulses summed over every scenario.
    pub fn total_glitches(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|entry| &entry.scenarios)
            .map(|scenario| scenario.glitch_pulses)
            .sum()
    }

    /// Dynamic energy summed over every scenario, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.entries
            .iter()
            .flat_map(|entry| &entry.scenarios)
            .map(|scenario| scenario.energy_joules)
            .sum()
    }

    /// Removes every wall-clock field, leaving only the deterministic
    /// quantities the golden gate compares.
    pub fn strip_timing(&mut self) {
        for entry in &mut self.entries {
            entry.wall_time_ns = None;
            for scenario in &mut entry.scenarios {
                scenario.wall_time_ns = None;
            }
        }
    }

    /// Renders the canonical JSON document (2-space indent, trailing
    /// newline, fixed field order).
    pub fn to_json(&self) -> String {
        let totals = self.totals();
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_string(SCHEMA));
        let _ = writeln!(out, "  \"scenario_count\": {},", self.scenario_count());
        out.push_str("  \"totals\": {\n");
        write_stats(&mut out, "    ", &totals);
        let _ = writeln!(out, "    \"glitch_pulses\": {},", self.total_glitches());
        let _ = writeln!(
            out,
            "    \"energy_joules\": {}",
            json_f64(self.total_energy_joules())
        );
        out.push_str("  },\n");
        out.push_str("  \"entries\": [");
        for (index, entry) in self.entries.iter().enumerate() {
            out.push_str(if index == 0 { "\n" } else { ",\n" });
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_string(&entry.name));
            let _ = writeln!(out, "      \"circuit\": {},", json_string(&entry.circuit));
            let _ = writeln!(out, "      \"gates\": {},", entry.gates);
            let _ = writeln!(out, "      \"nets\": {},", entry.nets);
            let _ = writeln!(out, "      \"suite\": {},", json_string(&entry.suite));
            let _ = writeln!(
                out,
                "      \"wall_time_ns\": {},",
                json_u128(entry.wall_time_ns)
            );
            out.push_str("      \"scenarios\": [");
            for (sindex, scenario) in entry.scenarios.iter().enumerate() {
                out.push_str(if sindex == 0 { "\n" } else { ",\n" });
                out.push_str("        {\n");
                let _ = writeln!(
                    out,
                    "          \"label\": {},",
                    json_string(&scenario.label)
                );
                let _ = writeln!(
                    out,
                    "          \"model\": {},",
                    json_string(&scenario.model)
                );
                write_stats(&mut out, "          ", &scenario.stats);
                let _ = writeln!(
                    out,
                    "          \"events_per_cycle\": {},",
                    match scenario.events_per_cycle {
                        Some(events) => json_f64(events),
                        None => "null".to_string(),
                    }
                );
                let _ = writeln!(
                    out,
                    "          \"glitch_pulses\": {},",
                    scenario.glitch_pulses
                );
                let _ = writeln!(
                    out,
                    "          \"energy_joules\": {},",
                    json_f64(scenario.energy_joules)
                );
                let _ = writeln!(
                    out,
                    "          \"wall_time_ns\": {}",
                    json_u128(scenario.wall_time_ns)
                );
                out.push_str("        }");
            }
            out.push_str("\n      ]\n");
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Writes the engine-counter fields of `stats` at `indent`, each line
/// comma-terminated.
fn write_stats(out: &mut String, indent: &str, stats: &SimulationStats) {
    let _ = writeln!(
        out,
        "{indent}\"events_scheduled\": {},",
        stats.events_scheduled
    );
    let _ = writeln!(
        out,
        "{indent}\"events_filtered\": {},",
        stats.events_filtered
    );
    let _ = writeln!(
        out,
        "{indent}\"events_processed\": {},",
        stats.events_processed
    );
    let _ = writeln!(
        out,
        "{indent}\"output_transitions\": {},",
        stats.output_transitions
    );
    let _ = writeln!(
        out,
        "{indent}\"degraded_transitions\": {},",
        stats.degraded_transitions
    );
    let _ = writeln!(
        out,
        "{indent}\"collapsed_transitions\": {},",
        stats.collapsed_transitions
    );
    let _ = writeln!(
        out,
        "{indent}\"queue_high_water\": {},",
        stats.queue_high_water
    );
}

/// Renders `value` as a JSON string literal, quotes and escapes included.
///
/// This and [`json_f64`] are the workspace's one JSON writer: the daemon
/// renders its responses with them too (as `halotis_serve::json::string`
/// and `number`), so a value crosses the wire exactly as the golden
/// document spells it.
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` in shortest-round-trip exponent form (`1.25e-13`),
/// deterministic across platforms, so parsing it back gives the same bits.
pub fn json_f64(value: f64) -> String {
    format!("{value:e}")
}

fn json_u128(value: Option<u128>) -> String {
    match value {
        Some(ns) => ns.to_string(),
        None => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusStats {
        CorpusStats {
            entries: vec![EntryRecord {
                name: "e1".into(),
                circuit: "c1".into(),
                gates: 6,
                nets: 11,
                suite: "exh".into(),
                wall_time_ns: Some(1234),
                scenarios: vec![
                    ScenarioRecord {
                        label: "e1/exh/ddm".into(),
                        model: "DDM".into(),
                        stats: SimulationStats {
                            events_scheduled: 10,
                            events_filtered: 2,
                            events_processed: 8,
                            output_transitions: 5,
                            degraded_transitions: 3,
                            collapsed_transitions: 1,
                            queue_high_water: 4,
                        },
                        events_per_cycle: Some(2.5),
                        glitch_pulses: 2,
                        energy_joules: 1.25e-13,
                        wall_time_ns: Some(999),
                    },
                    ScenarioRecord {
                        label: "e1/exh/cdm".into(),
                        model: "CDM".into(),
                        stats: SimulationStats::default(),
                        events_per_cycle: None,
                        glitch_pulses: 0,
                        energy_joules: 0.0,
                        wall_time_ns: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_contains_all_fields_in_order() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"halotis-corpus-v1\",\n"));
        assert!(json.ends_with("\n  ]\n}\n"));
        let schema = json.find("\"schema\"").unwrap();
        let totals = json.find("\"totals\"").unwrap();
        let entries = json.find("\"entries\"").unwrap();
        assert!(schema < totals && totals < entries);
        assert!(json.contains("\"energy_joules\": 1.25e-13"));
        assert!(json.contains("\"wall_time_ns\": 999"));
        assert!(json.contains("\"wall_time_ns\": null"));
        assert!(json.contains("\"glitch_pulses\": 2"));
        assert!(json.contains("\"queue_high_water\": 4"));
        assert!(json.contains("\"events_per_cycle\": 2.5e0"));
        assert!(json.contains("\"events_per_cycle\": null"));
    }

    #[test]
    fn totals_aggregate_scenarios() {
        let stats = sample();
        assert_eq!(stats.scenario_count(), 2);
        assert_eq!(stats.totals().events_scheduled, 10);
        assert_eq!(stats.total_glitches(), 2);
        assert!((stats.total_energy_joules() - 1.25e-13).abs() < 1e-30);
    }

    #[test]
    fn strip_timing_nulls_every_wall_time() {
        let mut stats = sample();
        stats.strip_timing();
        let json = stats.to_json();
        assert!(!json.contains("\"wall_time_ns\": 999"));
        assert!(!json.contains("\"wall_time_ns\": 1234"));
        assert_eq!(json.matches("\"wall_time_ns\": null").count(), 3);
    }

    #[test]
    fn rendering_is_reproducible() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn string_escaping_covers_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn float_rendering_is_exponent_form() {
        assert_eq!(json_f64(0.0), "0e0");
        assert_eq!(json_f64(1.25e-13), "1.25e-13");
    }
}
