//! The output oracle: the committed `CORPUS_stats.json` golden, parsed into
//! per-scenario expectations every measured result is checked against.

use std::collections::HashMap;

use halotis_corpus::ScenarioRecord;
use halotis_serve::json::{self, Value};
use halotis_sim::SimulationStats;

/// The fields every scenario result is compared on: the engine counters,
/// the glitch count and the energy, the latter bit for bit.  Daemon rows
/// and golden scenarios spell them the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub counters: [u64; 7],
    pub glitch_pulses: u64,
    pub energy_bits: u64,
}

const COUNTERS: [&str; 7] = [
    "events_scheduled",
    "events_filtered",
    "events_processed",
    "output_transitions",
    "degraded_transitions",
    "collapsed_transitions",
    "queue_high_water",
];

impl Expected {
    /// Reads a golden scenario or a daemon response row.
    pub fn from_value(doc: &Value) -> Option<Expected> {
        let mut counters = [0u64; 7];
        for (slot, field) in counters.iter_mut().zip(COUNTERS) {
            *slot = doc.get(field)?.as_u64()?;
        }
        Some(Expected {
            counters,
            glitch_pulses: doc.get("glitch_pulses")?.as_u64()?,
            energy_bits: doc.get("energy_joules")?.as_f64()?.to_bits(),
        })
    }

    pub fn from_parts(stats: &SimulationStats, glitch_pulses: usize, energy_joules: f64) -> Self {
        Expected {
            counters: [
                stats.events_scheduled as u64,
                stats.events_filtered as u64,
                stats.events_processed as u64,
                stats.output_transitions as u64,
                stats.degraded_transitions as u64,
                stats.collapsed_transitions as u64,
                stats.queue_high_water as u64,
            ],
            glitch_pulses: glitch_pulses as u64,
            energy_bits: energy_joules.to_bits(),
        }
    }

    pub fn from_record(record: &ScenarioRecord) -> Self {
        Self::from_parts(&record.stats, record.glitch_pulses, record.energy_joules)
    }

    pub fn events_scheduled(&self) -> u64 {
        self.counters[0]
    }

    pub fn events_filtered(&self) -> u64 {
        self.counters[1]
    }

    pub fn events_processed(&self) -> u64 {
        self.counters[2]
    }

    pub fn queue_high_water(&self) -> u64 {
        self.counters[6]
    }
}

/// The golden document: its exact text (the corpus pass must reproduce it
/// byte for byte) and its scenarios keyed by label.
pub struct Golden {
    pub text: String,
    pub rows: HashMap<String, Expected>,
}

impl Golden {
    pub fn parse(text: String) -> Result<Golden, String> {
        let doc = json::parse(&text).map_err(|err| format!("golden unparseable: {err}"))?;
        let mut rows = HashMap::new();
        for entry in doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("golden has no entries")?
        {
            for scenario in entry
                .get("scenarios")
                .and_then(Value::as_array)
                .ok_or("golden entry has no scenarios")?
            {
                let label = scenario
                    .get("label")
                    .and_then(Value::as_str)
                    .ok_or("golden scenario has no label")?;
                let expected = Expected::from_value(scenario)
                    .ok_or_else(|| format!("golden scenario {label} is incomplete"))?;
                rows.insert(label.to_string(), expected);
            }
        }
        Ok(Golden { text, rows })
    }

    /// The oracle self-test: bumps one expected `events_processed`, in the
    /// parsed rows and in the document text alike.
    pub fn corrupt(&mut self, label: &str) {
        if let Some(row) = self.rows.get_mut(label) {
            row.counters[2] += 1;
        }
        let anchor = format!("\"label\": {:?}", label);
        let Some(at) = self.text.find(&anchor) else {
            return;
        };
        let key = "\"events_processed\": ";
        let Some(offset) = self.text[at..].find(key) else {
            return;
        };
        let start = at + offset + key.len();
        let end = start
            + self.text[start..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(0);
        if let Ok(value) = self.text[start..end].parse::<u64>() {
            self.text
                .replace_range(start..end, &(value + 1).to_string());
        }
    }
}
