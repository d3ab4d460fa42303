//! What the workloads send: the corpus entries, their netlist texts, the
//! three model columns and the seeded what-if edits with their in-process
//! references.

use halotis_corpus::{mixed_model, standard_corpus, CorpusEntry, GlitchProfile};
use halotis_netlist::{parser, technology, verilog, writer, CellKind, Library, Netlist};
use halotis_sim::{
    ActivityCounter, CompiledCircuit, DelayModelKind, PowerAccumulator, SimulationConfig,
};

use crate::golden::Expected;
use crate::util::Rng;

/// The model columns, in the order every entry is simulated.
pub const MODELS: [&str; 3] = ["ddm", "cdm", "mix"];

/// The configuration of a model column, as the daemon builds it.
pub fn model_config(model: usize) -> SimulationConfig {
    match model {
        0 => SimulationConfig::default().model(DelayModelKind::Degradation),
        1 => SimulationConfig::default().model(DelayModelKind::Conventional),
        _ => SimulationConfig::default().model(mixed_model()),
    }
}

/// The cell kinds a what-if may swap between: the 2-input combinational
/// cells, which share one pin layout.
const SWAPPABLE: [CellKind; 6] = [
    CellKind::And2,
    CellKind::Or2,
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::Xor2,
    CellKind::Xnor2,
];

/// One distinct circuit of the workload in both interchange formats.
pub struct Circuit {
    pub text: String,
    pub verilog: String,
    /// The circuit as the daemon sees it: parsed back from `text`.
    pub netlist: Netlist,
}

pub struct Workload {
    pub entries: Vec<CorpusEntry>,
    /// Index into `circuits` of each entry's circuit.
    pub circuit_of: Vec<usize>,
    pub circuits: Vec<Circuit>,
}

impl Workload {
    /// The standard corpus, optionally without the 2500-cycle soak entry.
    pub fn new(with_soak: bool) -> Workload {
        let entries: Vec<CorpusEntry> = standard_corpus()
            .into_iter()
            .filter(|entry| with_soak || entry.name != "s27_soak")
            .collect();
        let mut circuits: Vec<Circuit> = Vec::new();
        let mut circuit_of = Vec::with_capacity(entries.len());
        for entry in &entries {
            let text = writer::to_text(&entry.netlist);
            let index = match circuits.iter().position(|circuit| circuit.text == text) {
                Some(index) => index,
                None => {
                    let netlist = parser::parse(&text).expect("corpus texts parse");
                    circuits.push(Circuit {
                        verilog: verilog::to_verilog(&netlist),
                        text,
                        netlist,
                    });
                    circuits.len() - 1
                }
            };
            circuit_of.push(index);
        }
        Workload {
            entries,
            circuit_of,
            circuits,
        }
    }

    pub fn circuit(&self, entry: usize) -> &Circuit {
        &self.circuits[self.circuit_of[entry]]
    }
}

/// Runs every stimulus of `entry`'s suite on `circuit` with the daemon's
/// observer set, returning `(stimulus label, result)` per stimulus.
pub fn observed_rows(
    circuit: &CompiledCircuit<'_>,
    entry: &CorpusEntry,
    library: &Library,
    model: usize,
) -> Vec<(String, Expected)> {
    let config = model_config(model);
    let mut state = circuit.new_state();
    entry
        .suite
        .stimuli(circuit.netlist(), library)
        .into_iter()
        .map(|(label, stimulus)| {
            let mut observer = (
                (ActivityCounter::new(), PowerAccumulator::new()),
                GlitchProfile::new(),
            );
            let stats = circuit
                .run_observed(&mut state, &stimulus, &config, &mut observer)
                .expect("corpus scenarios simulate");
            let ((_, power), glitches) = &observer;
            (
                label,
                Expected::from_parts(&stats, glitches.total_glitches(), power.total_joules()),
            )
        })
        .collect()
}

/// One seeded what-if: swap one 2-input gate's kind, simulate one column.
pub struct WhatIf {
    pub gate: String,
    pub kind: CellKind,
    pub model: usize,
    /// The edited circuit's rows, computed in process.
    pub reference: Vec<(String, Expected)>,
}

impl WhatIf {
    pub fn edit_request(&self, id: u64, key: &str) -> String {
        format!(
            r#"{{"op":"edit","id":{id},"key":{},"commands":[{{"action":"swap_kind","gate":{},"kind":"{}"}}]}}"#,
            halotis_serve::json::string(key),
            halotis_serve::json::string(&self.gate),
            self.kind.name()
        )
    }
}

/// `per_entry` seeded what-ifs for every entry, each with its reference:
/// the same swap applied through [`CompiledCircuit::edit`], then run.
pub fn what_ifs(workload: &Workload, rng: &mut Rng, per_entry: usize) -> Vec<Vec<WhatIf>> {
    let library = technology::cmos06();
    workload
        .entries
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let netlist = &workload.circuit(index).netlist;
            let candidates: Vec<usize> = netlist
                .gates()
                .iter()
                .enumerate()
                .filter(|(_, gate)| SWAPPABLE.contains(&gate.kind()))
                .map(|(position, _)| position)
                .collect();
            assert!(
                !candidates.is_empty(),
                "{} has no 2-input combinational gate",
                entry.name
            );
            (0..per_entry)
                .map(|_| {
                    let gate = &netlist.gates()[candidates[rng.below(candidates.len())]];
                    let kinds: Vec<CellKind> = SWAPPABLE
                        .into_iter()
                        .filter(|&kind| kind != gate.kind())
                        .collect();
                    let kind = kinds[rng.below(kinds.len())];
                    let model = rng.below(MODELS.len());
                    let mut circuit =
                        CompiledCircuit::compile(netlist, &library).expect("corpus compiles");
                    let gate_id = gate.id();
                    circuit
                        .edit(|session| session.swap_cell_kind(gate_id, kind))
                        .expect("a same-arity swap applies");
                    WhatIf {
                        gate: gate.name().to_string(),
                        kind,
                        model,
                        reference: observed_rows(&circuit, entry, &library, model),
                    }
                })
                .collect()
        })
        .collect()
}
