//! Cyclic netlists must be *rejected*, never panicked on.
//!
//! Before sequential support the levelizer asserted acyclicity with
//! `debug_assert!`/`panic!` paths that release builds either skipped
//! (miscompiling the schedule) or hit (killing the process).  These
//! regressions pin the contract at every entry point that accepts a
//! circuit from outside: the `.net` parser, the structural-Verilog
//! parser, the builder and the in-place edit API all return
//! [`NetlistError::CombinationalLoop`] — in release mode too, which is
//! how this suite runs under CI's `--release` pass.
//!
//! Register feedback is the legal counterpart: the same two-gate ring
//! broken by a DFF levelizes fine, because sequential outputs are level
//! sources.
//!
//! The error names one culprit: the lowest-indexed gate the loop leaves
//! without a level.  Each shape below pins that name through all three
//! entry points.

use halotis::netlist::parser::{self, ParseError};
use halotis::netlist::verilog::{parse_verilog, VerilogError};
use halotis::netlist::{levelize, CellKind, NetlistBuilder, NetlistError};

/// A two-inverter ring in `.net` syntax: every net is driven, the gate
/// graph is cyclic.
const RING_NET: &str = "circuit ring\n\
     input en\n\
     wire a b\n\
     output b\n\
     gate nand2 u1 en b -> a\n\
     gate inv u2 a -> b\n";

/// The same ring with a DFF in the loop: legal sequential feedback.
const REGISTER_RING_NET: &str = "circuit toggler\n\
     input en ck\n\
     wire a b\n\
     output b\n\
     gate nand2 u1 en b -> a\n\
     gate dff u2 a ck -> b\n";

#[test]
fn net_parser_reports_the_ring_as_a_combinational_loop() {
    assert_eq!(
        parser::parse(RING_NET).unwrap_err(),
        ParseError::Netlist(NetlistError::CombinationalLoop {
            gate: "u1".to_string()
        })
    );
}

#[test]
fn verilog_parser_reports_the_ring_as_a_combinational_loop() {
    let source = "module ring(en, b);\n\
         input en;\n\
         output b;\n\
         wire a;\n\
         nand u1(a, en, b);\n\
         not u2(b, a);\n\
         endmodule\n";
    assert_eq!(
        parse_verilog(source).unwrap_err(),
        VerilogError::Netlist(NetlistError::CombinationalLoop {
            gate: "u1".to_string()
        })
    );
}

#[test]
fn breaking_the_ring_with_a_register_makes_it_legal() {
    let netlist = parser::parse(REGISTER_RING_NET).expect("register feedback is not a loop");
    let levels = levelize::levelize(&netlist).expect("levelizes with the register as a source");
    // The DFF is a source and the NAND reads only sources (a primary input
    // and the register output), so the whole ring collapses to one level.
    assert_eq!(levels.depth(), 1);
}

#[test]
fn edits_that_close_a_loop_are_refused_and_leave_the_netlist_reusable() {
    // Start from the legal register ring and try to replace the DFF's
    // breaking role: rewiring the NAND's feedback input from the register
    // output to its own output closes a one-gate loop.
    let mut netlist = parser::parse(REGISTER_RING_NET).unwrap();
    let u1 = netlist
        .gates()
        .iter()
        .find(|gate| gate.name() == "u1")
        .unwrap()
        .id();
    let a = netlist.net_id("a").unwrap();
    let mut edit = netlist.begin_edit();
    let err = edit
        .rewire_input(u1, 1, a)
        .expect_err("self-loop through u1 must be refused");
    assert!(matches!(err, NetlistError::CombinationalLoop { .. }));
    edit.finish();
    // The failed edit must not have corrupted the netlist.
    let levels = levelize::levelize(&netlist).expect("netlist still levelizes after refusal");
    assert_eq!(levels.depth(), 1);
}

/// One gate statement: `(cell, instance, input nets, output net)`.
type GateLine = (
    &'static str,
    &'static str,
    &'static [&'static str],
    &'static str,
);

/// A circuit as gate statements in gate id order.
struct Shape {
    name: &'static str,
    inputs: &'static [&'static str],
    outputs: &'static [&'static str],
    gates: &'static [GateLine],
}

impl Shape {
    fn net_text(&self) -> String {
        let mut text = format!(
            "circuit {}\ninput {}\noutput {}\n",
            self.name,
            self.inputs.join(" "),
            self.outputs.join(" ")
        );
        for (cell, instance, inputs, output) in self.gates {
            text += &format!("gate {cell} {instance} {} -> {output}\n", inputs.join(" "));
        }
        text
    }

    fn verilog_text(&self) -> String {
        let ports: Vec<&str> = self.inputs.iter().chain(self.outputs).copied().collect();
        let mut text = format!(
            "module {}({});\n  input {};\n  output {};\n",
            self.name,
            ports.join(", "),
            self.inputs.join(", "),
            self.outputs.join(", ")
        );
        for (cell, instance, inputs, output) in self.gates {
            let primitive = match *cell {
                "nand2" => "nand",
                "nor2" => "nor",
                "inv" => "not",
                other => other,
            };
            text += &format!(
                "  {primitive} {instance} ({output}, {});\n",
                inputs.join(", ")
            );
        }
        text + "endmodule\n"
    }

    fn build(&self) -> Result<halotis::netlist::Netlist, NetlistError> {
        let mut builder = NetlistBuilder::new(self.name);
        for input in self.inputs {
            builder.add_input(*input);
        }
        for (cell, instance, inputs, output) in self.gates {
            let kind: CellKind = cell.parse().expect("a known cell");
            let inputs: Vec<_> = inputs.iter().map(|&net| builder.add_net(net)).collect();
            let output = builder.add_net(*output);
            builder.add_gate(kind, *instance, &inputs, output)?;
        }
        for output in self.outputs {
            let net = builder.add_net(*output);
            builder.mark_output(net);
        }
        builder.build()
    }

    /// Checks that the builder and both readers name `culprit`.
    fn assert_culprit(&self, culprit: &str) {
        let expected = NetlistError::CombinationalLoop {
            gate: culprit.to_string(),
        };
        assert_eq!(
            self.build().unwrap_err(),
            expected,
            "{}: builder",
            self.name
        );
        assert_eq!(
            parser::parse(&self.net_text()).unwrap_err(),
            ParseError::Netlist(expected.clone()),
            "{}: .net",
            self.name
        );
        assert_eq!(
            parse_verilog(&self.verilog_text()).unwrap_err(),
            VerilogError::Netlist(expected),
            "{}: Verilog",
            self.name
        );
    }
}

#[test]
fn a_loop_behind_an_acyclic_cone_names_its_first_gate() {
    Shape {
        name: "cone_then_loop",
        inputs: &["a", "b"],
        outputs: &["y"],
        gates: &[
            ("nand2", "c1", &["a", "b"], "p"),
            ("inv", "c2", &["p"], "q"),
            ("nand2", "l1", &["q", "y"], "x"),
            ("inv", "l2", &["x"], "y"),
        ],
    }
    .assert_culprit("l1");
}

#[test]
fn of_two_disjoint_loops_the_lowest_indexed_gate_is_named() {
    Shape {
        name: "two_loops",
        inputs: &["a", "b"],
        outputs: &["y", "z"],
        gates: &[
            ("inv", "b2", &["w"], "z"),
            ("nand2", "a1", &["a", "y"], "x"),
            ("nor2", "b1", &["b", "z"], "w"),
            ("inv", "a2", &["x"], "y"),
        ],
    }
    .assert_culprit("b2");
}

#[test]
fn a_register_loop_beside_a_register_free_loop_is_not_named() {
    Shape {
        name: "register_beside_loop",
        inputs: &["en", "ck"],
        outputs: &["q", "y"],
        gates: &[
            ("nand2", "r1", &["en", "q"], "d"),
            ("dff", "r2", &["d", "ck"], "q"),
            ("nand2", "l1", &["en", "y"], "x"),
            ("inv", "l2", &["x"], "y"),
        ],
    }
    .assert_culprit("l1");
}
