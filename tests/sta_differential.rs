//! The STA-vs-simulation differential layer: on every corpus entry, the
//! static-timing bound of `halotis_sim::sta` must dominate the settle time
//! the event-driven engine actually produces.
//!
//! The two sides share nothing but the compiled timing arcs: STA is a
//! longest-path pass over the compiled levelization, the engine is an
//! event queue over ramp crossings — so agreement here cross-checks the
//! topological order, the arc math and the engine's scheduling rules
//! against each other on all 24 corpus circuits.  The acceptance contract is the
//! Conventional column (STA bounds nominal scheduling directly); the
//! degradation and mixed columns are held too, since degradation only
//! shortens or cancels transitions.
//!
//! Sequential entries exercise the register-segmented pass: register
//! outputs are timing sources (arrival zero) and paths end at register
//! inputs, so the bound covers exactly one clock cycle's combinational
//! cone — which is also what the engine resolves between clock edges.

use halotis::core::{NetId, Time, TimeDelta};
use halotis::corpus::standard_corpus;
use halotis::netlist::technology;
use halotis::sim::observer::SimObserver;
use halotis::sim::{sta, CompiledCircuit};
use halotis::waveform::Transition;

/// Tracks the instant the last output ramp ends — "settled" in the
/// strongest sense: every net is at its final rail.
struct LastSettle(Time);

impl SimObserver for LastSettle {
    fn on_transition(&mut self, _net: NetId, transition: &Transition) {
        self.0 = self.0.max(transition.end());
    }
}

#[test]
fn sta_bound_dominates_simulated_settle_on_every_corpus_entry() {
    let library = technology::cmos06();
    let corpus = standard_corpus();
    assert!(corpus.len() >= 24, "corpus shrank to {}", corpus.len());

    for entry in &corpus {
        let circuit = CompiledCircuit::compile(&entry.netlist, &library)
            .unwrap_or_else(|err| panic!("{}: compile failed: {err}", entry.name));
        let report = sta::analyze(&circuit, library.default_input_slew());
        assert!(
            report.worst_arrival() > TimeDelta::ZERO,
            "{}: STA found no path",
            entry.name
        );

        let mut state = circuit.new_state();
        let mut checked = 0usize;
        let mut min_slack: Option<TimeDelta> = None;
        for scenario in entry.scenarios(&library) {
            let mut settle = LastSettle(Time::ZERO);
            let stats = circuit
                .run_observed(
                    &mut state,
                    &scenario.stimulus,
                    &scenario.config,
                    &mut settle,
                )
                .unwrap_or_else(|err| panic!("{}: run failed: {err}", scenario.label));
            let bound =
                report.settle_bound_with_margin(&scenario.stimulus, stats.output_transitions);
            assert!(
                settle.0 <= bound,
                "{}: simulated settle {} ps exceeds STA bound {} ps",
                scenario.label,
                settle.0.as_ps(),
                bound.as_ps()
            );
            let slack = bound.delta_since(settle.0);
            min_slack = Some(min_slack.map_or(slack, |s| s.min(slack)));
            checked += 1;
        }
        assert!(checked > 0, "{}: no scenarios ran", entry.name);
        // Slack report: how much headroom the topological bound leaves over
        // the worst observed settle across all model columns.
        println!(
            "{:<14} critical path {:>3} arcs, sta {:>9.1} ps, min slack {:>9.1} ps over {} scenarios",
            entry.name,
            report.critical_path().len(),
            report.worst_arrival().as_ps(),
            min_slack.expect("checked > 0").as_ps(),
            checked
        );
    }
}

/// The per-entry worst net must be reachable through the reported critical
/// path, and the path's arc count can never exceed the circuit depth.
#[test]
fn critical_paths_are_well_formed_on_the_corpus() {
    let library = technology::cmos06();
    for entry in standard_corpus() {
        let circuit = CompiledCircuit::compile(&entry.netlist, &library).unwrap();
        let report = sta::analyze(&circuit, library.default_input_slew());
        let path = report.critical_path();
        assert!(!path.is_empty(), "{}: empty critical path", entry.name);
        let start = path.first().unwrap().source;
        let starts_at_register = match entry.netlist.net(start).driver() {
            halotis::netlist::netlist::NetDriver::Gate(gate) => {
                entry.netlist.gate(gate).kind().is_sequential()
            }
            halotis::netlist::netlist::NetDriver::PrimaryInput => true,
        };
        assert!(
            entry.netlist.primary_inputs().contains(&start) || starts_at_register,
            "{}: critical path does not start at a timing source",
            entry.name
        );
        assert_eq!(
            path.last().unwrap().target,
            report.worst_net(),
            "{}: critical path does not end at the worst net",
            entry.name
        );
        for pair in path.windows(2) {
            assert_eq!(
                pair[0].target, pair[1].source,
                "{}: broken path",
                entry.name
            );
        }
        assert!(
            path.len() <= circuit.levels().depth(),
            "{}: path longer than circuit depth",
            entry.name
        );
    }
}

/// Register segmentation on the sequential corpus entry: every register
/// output is a timing source with zero arrival, no combinational arrival
/// exceeds the segment bound, and the clock net never accumulates
/// combinational delay.
#[test]
fn s27_is_register_segmented() {
    let library = technology::cmos06();
    let netlist = halotis::netlist::iscas::s27();
    let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
    let report = sta::analyze(&circuit, library.default_input_slew());

    let mut register_outputs = 0;
    for gate in netlist.gates() {
        if gate.kind().is_sequential() {
            assert_eq!(
                report.arrival(gate.output()),
                TimeDelta::ZERO,
                "register output {} must be a timing source",
                netlist.net(gate.output()).name()
            );
            register_outputs += 1;
        }
    }
    assert_eq!(register_outputs, 3, "s27 has three DFFs");

    // The clock is a pure source too: fanning out only to CK pins, it
    // accumulates no combinational arrival.
    let clk = netlist.net_id("clk").unwrap();
    assert_eq!(report.arrival(clk), TimeDelta::ZERO);

    // The worst segment is a genuine combinational path and it stays a
    // (per-cycle) bound: the deepest cone of s27 is a handful of arcs.
    assert!(report.worst_arrival() > TimeDelta::ZERO);
    let path = report.critical_path();
    assert!(!path.is_empty());
    for edge in &path {
        let target_gate = match netlist.net(edge.target).driver() {
            halotis::netlist::netlist::NetDriver::Gate(gate) => gate,
            halotis::netlist::netlist::NetDriver::PrimaryInput => {
                panic!("path edge targets a primary input")
            }
        };
        assert!(
            !netlist.gate(target_gate).kind().is_sequential(),
            "segmented paths never traverse a register"
        );
    }
}

/// One corpus entry's STA report: `worst_arrival()` in femtoseconds, the
/// worst net's name, the critical path's arc count, and the sums of every
/// net's arrival and slew bounds in femtoseconds.
type StaRow = (&'static str, i64, &'static str, usize, i64, i64);

/// Every corpus entry's report.  Any change to the pass or to the arcs it
/// reads moves a row here.
const STA_TABLE: [StaRow; 24] = [
    ("mult4x4", 12_185_811, "s7", 17, 360_542_160, 33_876_498),
    ("mult5x3", 10_395_320, "s7", 15, 263_123_160, 29_965_670),
    ("rca8", 11_414_684, "cout", 17, 165_116_877, 21_511_120),
    ("rca12", 16_781_540, "cout", 25, 344_358_901, 32_226_480),
    ("cska8b2", 14_201_619, "cout", 21, 263_181_946, 26_895_604),
    ("cska12b4", 18_875_316, "cout", 28, 456_142_407, 38_936_339),
    ("parity6", 2_258_588, "parity", 3, 6_110_484, 3_738_556),
    ("parity8", 2_291_742, "parity", 3, 8_478_076, 5_185_792),
    ("parity16", 3_108_722, "parity", 4, 20_266_768, 10_974_736),
    ("c17", 1_250_604, "o22", 3, 5_050_374, 2_530_006),
    ("c17_probe", 1_250_604, "o22", 3, 5_050_374, 2_530_006),
    (
        "random16x300",
        10_163_101,
        "w296",
        15,
        1_507_166_331,
        115_701_786,
    ),
    (
        "random24x600",
        14_090_518,
        "w568",
        21,
        4_124_689_003,
        227_225_755,
    ),
    (
        "random12x150",
        9_395_272,
        "w143",
        13,
        636_281_453,
        57_958_938,
    ),
    ("ks8", 5_678_661, "s7", 8, 244_661_833, 44_072_855),
    ("ks16", 7_075_840, "s15", 10, 736_787_322, 108_115_698),
    ("wallace4x4", 11_154_202, "p7", 16, 247_677_249, 31_902_270),
    ("wallace6x6", 15_179_344, "p11", 22, 701_336_800, 81_982_622),
    ("c432", 16_501_755, "chan0", 25, 910_365_568, 60_559_425),
    (
        "c432_probe",
        16_501_755,
        "chan0",
        25,
        910_365_568,
        60_559_425,
    ),
    ("c880", 25_553_702, "zero", 35, 2_718_197_627, 168_079_311),
    (
        "c880_probe",
        25_553_702,
        "zero",
        35,
        2_718_197_627,
        168_079_311,
    ),
    ("s27_clk64", 3_045_020, "g10", 6, 16_624_289, 5_942_769),
    ("s27_soak", 3_045_020, "g10", 6, 16_624_289, 5_942_769),
];

#[test]
fn sta_reports_are_pinned_on_every_corpus_entry() {
    let library = technology::cmos06();
    let corpus = standard_corpus();
    let names: Vec<&str> = corpus.iter().map(|entry| entry.name.as_str()).collect();
    let pinned: Vec<&str> = STA_TABLE.iter().map(|row| row.0).collect();
    assert_eq!(names, pinned, "the corpus changed; re-pin the table");
    for (entry, &(name, worst_fs, worst_net, path_len, arrival_sum, slew_sum)) in
        corpus.iter().zip(&STA_TABLE)
    {
        let circuit = CompiledCircuit::compile(&entry.netlist, &library).unwrap();
        let report = sta::analyze(&circuit, library.default_input_slew());
        assert_eq!(
            report.worst_arrival().as_fs(),
            worst_fs,
            "{name}: worst arrival"
        );
        assert_eq!(
            entry.netlist.net(report.worst_net()).name(),
            worst_net,
            "{name}: worst net"
        );
        assert_eq!(
            report.critical_path().len(),
            path_len,
            "{name}: path length"
        );
        let sums = entry
            .netlist
            .nets()
            .iter()
            .fold((0, 0), |(arrival, slew), net| {
                (
                    arrival + report.arrival(net.id()).as_fs(),
                    slew + report.slew(net.id()).as_fs(),
                )
            });
        assert_eq!(sums, (arrival_sum, slew_sum), "{name}: per-net bounds");
    }
}
