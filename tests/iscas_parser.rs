//! Golden tests for the committed ISCAS-85 netlist files.
//!
//! `circuits/c432.net` and `circuits/c880.net` enter the simulator through
//! the text parser, so this suite pins everything a parser (or netlist
//! file) regression could disturb, without paying for a full corpus run:
//!
//! * structural goldens — gate/net counts, I/O profile, levelization depth
//!   and the per-kind gate histogram of each parsed circuit,
//! * simulation fingerprints — the exact engine counters of one small
//!   seeded run per model column (DDM, CDM, MIX).
//!
//! Any intentional change to the committed files must update these numbers
//! *and* the corpus golden in the same commit.

use halotis::core::TimeDelta;
use halotis::corpus::{mixed_model, StimulusSuite};
use halotis::delay::DelayModelKind;
use halotis::netlist::{iscas, levelize, parser, technology, CellKind, Netlist};
use halotis::sim::{CompiledCircuit, SimulationConfig, SimulationStats};

/// One structural golden record.
struct StructureGolden {
    gates: usize,
    nets: usize,
    inputs: usize,
    outputs: usize,
    depth: usize,
    histogram: &'static [(CellKind, usize)],
}

fn assert_structure(name: &str, netlist: &Netlist, golden: &StructureGolden) {
    assert_eq!(netlist.name(), name);
    assert_eq!(netlist.gate_count(), golden.gates, "{name} gate count");
    assert_eq!(netlist.net_count(), golden.nets, "{name} net count");
    assert_eq!(
        netlist.primary_inputs().len(),
        golden.inputs,
        "{name} inputs"
    );
    assert_eq!(
        netlist.primary_outputs().len(),
        golden.outputs,
        "{name} outputs"
    );
    assert_eq!(
        levelize::levelize(netlist).unwrap().depth(),
        golden.depth,
        "{name} levelization depth"
    );
    assert_eq!(
        netlist.gate_histogram(),
        golden.histogram.to_vec(),
        "{name} gate histogram"
    );
}

#[test]
fn c432_structure_matches_the_golden() {
    assert_structure(
        "c432",
        &iscas::c432(),
        &StructureGolden {
            gates: 153,
            nets: 189,
            inputs: 36,
            outputs: 7,
            depth: 25,
            histogram: &[
                (CellKind::Inv, 45),
                (CellKind::Buf, 3),
                (CellKind::And2, 26),
                (CellKind::Or2, 42),
                (CellKind::Nor2, 28),
                (CellKind::Or3, 9),
            ],
        },
    );
}

#[test]
fn c880_structure_matches_the_golden() {
    assert_structure(
        "c880",
        &iscas::c880(),
        &StructureGolden {
            gates: 337,
            nets: 397,
            inputs: 60,
            outputs: 26,
            depth: 35,
            histogram: &[
                (CellKind::Inv, 14),
                (CellKind::And2, 158),
                (CellKind::Or2, 64),
                (CellKind::Xor2, 74),
                (CellKind::Xnor2, 8),
                (CellKind::And3, 1),
                (CellKind::And4, 4),
                (CellKind::Or4, 8),
                (CellKind::Nor4, 6),
            ],
        },
    );
}

/// The fingerprint stimulus: 4 seeded random vectors, shared by every model
/// column so the three fingerprints differ only through the delay model.
fn fingerprint_stats(netlist: &Netlist) -> [SimulationStats; 3] {
    let library = technology::cmos06();
    let suite = StimulusSuite::RandomVectors {
        vectors: 4,
        period: TimeDelta::from_ns(6.0),
        seed: 0xF1,
    };
    let stimuli = suite.stimuli(netlist, &library);
    let (_, stimulus) = &stimuli[0];
    let circuit = CompiledCircuit::compile(netlist, &library).expect("benchmark compiles");
    let mut state = circuit.new_state();
    [
        SimulationConfig::default().model(DelayModelKind::Degradation),
        SimulationConfig::default().model(DelayModelKind::Conventional),
        SimulationConfig::default().model(mixed_model()),
    ]
    .map(|config| {
        circuit
            .run_stats(&mut state, stimulus, &config)
            .expect("fingerprint run succeeds")
    })
}

fn stats(
    scheduled: usize,
    filtered: usize,
    processed: usize,
    transitions: usize,
    degraded: usize,
    collapsed: usize,
    peak: usize,
) -> SimulationStats {
    SimulationStats {
        events_scheduled: scheduled,
        events_filtered: filtered,
        events_processed: processed,
        output_transitions: transitions,
        degraded_transitions: degraded,
        collapsed_transitions: collapsed,
        queue_high_water: peak,
    }
}

#[test]
fn c432_simulation_fingerprints_are_pinned() {
    let [ddm, cdm, mix] = fingerprint_stats(&iscas::c432());
    assert_eq!(ddm, stats(436, 12, 424, 345, 107, 9, 88), "c432/ddm");
    assert_eq!(cdm, stats(634, 12, 622, 445, 0, 0, 88), "c432/cdm");
    // c432's cell mix contains none of the overridden classes, so the MIX
    // column must collapse onto pure degradation — itself a useful pin on
    // the composite dispatch.
    assert_eq!(mix, ddm, "c432/mix == c432/ddm");
}

#[test]
fn c880_simulation_fingerprints_are_pinned() {
    let [ddm, cdm, mix] = fingerprint_stats(&iscas::c880());
    assert_eq!(ddm, stats(1918, 157, 1761, 1248, 781, 74, 333), "c880/ddm");
    assert_eq!(cdm, stats(2631, 74, 2557, 1728, 0, 0, 333), "c880/cdm");
    // c880's XOR-heavy datapaths make all three columns distinct.
    assert_eq!(mix, stats(2185, 110, 2075, 1408, 464, 41, 333), "c880/mix");
}

#[test]
fn committed_text_round_trips_through_the_parser() {
    for text in [iscas::C432_TEXT, iscas::C880_TEXT, iscas::S27_TEXT] {
        let parsed = parser::parse(text).expect("committed netlist parses");
        let rendered = halotis::netlist::writer::to_text(&parsed);
        assert_eq!(rendered, text, "{}: parse/render round trip", parsed.name());
    }
}
