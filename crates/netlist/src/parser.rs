//! Parser for the structural netlist text format.
//!
//! The format is deliberately tiny — enough to store the paper's circuits in
//! version control and to feed hand-written test cases:
//!
//! ```text
//! # comments start with '#'
//! circuit half_adder
//! input a b
//! output sum carry
//! gate xor2 gx a b -> sum
//! gate and2 ga a b -> carry
//! # optional per-instance thresholds (fraction of Vdd, one per input):
//! gate inv  gl a -> n1 vt=0.30
//! ```
//!
//! Keywords: `circuit <name>`, `input <net>...`, `output <net>...`,
//! `wire <net>...`,
//! `gate <cell> <instance> <input net>... -> <output net> [vt=<f>,<f>,...]`.
//!
//! `wire` lines are optional: they pre-declare nets so their numbering is
//! exactly the declaration order rather than first-mention order.  The
//! [`writer`](crate::writer) always emits them, which makes
//! `parse(to_text(netlist))` reconstruct the original net numbering — and
//! therefore an identical event schedule — bit for bit.
//!
//! The parser borrows from the text.  It reads the lines into a
//! `CircuitSpec` of slices of the input, with one flat list for every
//! gate's input nets, and assembles the netlist from that: a name is copied
//! once, when its net or gate is created, and a net is looked up by `&str`.
//! The [`verilog`](crate::verilog) reader lowers into the same spec.

use std::fmt;
use std::ops::Range;
use std::str::SplitWhitespace;

use crate::cell::CellKind;
use crate::netlist::{Netlist, NetlistBuilder, NetlistError};

/// Errors produced while parsing netlist text.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The text was syntactically fine but the resulting circuit is invalid.
    Netlist(NetlistError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Netlist(err) => write!(f, "invalid netlist: {err}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<NetlistError> for ParseError {
    fn from(err: NetlistError) -> Self {
        ParseError::Netlist(err)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        message: message.into(),
    }
}

/// One gate statement, format-agnostic: what cell, which nets, where in the
/// source it came from.  Both the `.net` parser and the structural-Verilog
/// parser ([`verilog`](crate::verilog)) lower their surface syntax into this
/// shape.  Names are slices of the parsed text.
pub(crate) struct GateSpec<'a> {
    /// 1-based source line of the statement, for error anchoring.
    pub(crate) line: usize,
    pub(crate) kind: CellKind,
    pub(crate) instance: &'a str,
    /// The input nets, in pin order, as a range of [`CircuitSpec::pins`].
    pub(crate) inputs: Range<usize>,
    pub(crate) output: &'a str,
    pub(crate) thresholds: Option<Vec<f64>>,
}

/// A whole circuit as named sections — the format-independent intermediate
/// form between tokenization and [`NetlistBuilder`] assembly.  It borrows
/// every name from the parsed text, so building it allocates only its
/// vectors.
#[derive(Default)]
pub(crate) struct CircuitSpec<'a> {
    pub(crate) name: &'a str,
    pub(crate) inputs: Vec<&'a str>,
    pub(crate) outputs: Vec<&'a str>,
    /// Pre-declared nets in declaration order.  When present, these pin the
    /// [`NetId`](halotis_core::NetId) numbering exactly (see the module
    /// docs); nets first mentioned by a gate statement are appended after.
    pub(crate) wires: Vec<&'a str>,
    pub(crate) gates: Vec<GateSpec<'a>>,
    /// Every gate's input nets, gate after gate.
    pub(crate) pins: Vec<&'a str>,
}

/// Errors produced while assembling a [`CircuitSpec`] into a [`Netlist`].
pub(crate) enum AssembleError {
    /// A per-gate error (wrong arity, malformed threshold list) anchored to
    /// the source line of the offending statement.
    Gate { line: usize, message: String },
    /// A whole-circuit structural error.
    Netlist(NetlistError),
}

/// Builds the validated netlist from a format-independent [`CircuitSpec`].
///
/// This is the shared back half of every netlist parser: `wire` entries
/// pre-create nets so numbering is exactly the declaration order, primary
/// inputs keep their input-driver role regardless of which section mentions
/// them first, and nets first referenced by a gate are created on the spot.
pub(crate) fn assemble(spec: CircuitSpec<'_>) -> Result<Netlist, AssembleError> {
    // Every net is a wire entry, or else a primary input or a gate output.
    let nets = spec.wires.len().max(spec.inputs.len() + spec.gates.len());
    let mut builder = NetlistBuilder::with_capacity(spec.name, nets, spec.gates.len());
    // `wire` entries fix net numbering to declaration order; primary inputs
    // keep their input-driver role regardless of which line declares them
    // first.  Declaring a net no gate drives is still an error in `build`.
    for &wire in &spec.wires {
        builder.add_net(wire);
    }
    builder.declare_inputs(&spec.inputs);
    let mut input_ids = Vec::new();
    for gate in &spec.gates {
        input_ids.clear();
        for &net in &spec.pins[gate.inputs.clone()] {
            input_ids.push(builder.add_net(net));
        }
        let output_id = builder.add_net(gate.output);
        let result = match &gate.thresholds {
            Some(vt) => builder.add_gate_with_thresholds(
                gate.kind,
                gate.instance,
                &input_ids,
                output_id,
                vt,
            ),
            None => builder.add_gate(gate.kind, gate.instance, &input_ids, output_id),
        };
        result.map_err(|err| match err {
            NetlistError::ArityMismatch { .. } | NetlistError::ThresholdOverrideArity { .. } => {
                AssembleError::Gate {
                    line: gate.line,
                    message: err.to_string(),
                }
            }
            other => AssembleError::Netlist(other),
        })?;
    }
    for &output in &spec.outputs {
        let id = builder.add_net(output);
        builder.mark_output(id);
    }
    builder.build().map_err(AssembleError::Netlist)
}

/// Parses netlist text into a validated [`Netlist`].
///
/// # Errors
///
/// Returns [`ParseError::Syntax`] for malformed lines and
/// [`ParseError::Netlist`] when the described circuit is structurally
/// invalid.
///
/// # Example
///
/// ```
/// use halotis_netlist::parser;
///
/// let text = "\
/// circuit buffer_pair
/// input a
/// output y
/// gate inv g1 a -> n1
/// gate inv g2 n1 -> y
/// ";
/// let netlist = parser::parse(text)?;
/// assert_eq!(netlist.gate_count(), 2);
/// # Ok::<(), halotis_netlist::parser::ParseError>(())
/// ```
pub fn parse(text: &str) -> Result<Netlist, ParseError> {
    let mut spec = CircuitSpec {
        name: "unnamed",
        ..CircuitSpec::default()
    };
    for (index, raw) in text.lines().enumerate() {
        let line_number = index + 1;
        let line = raw.split('#').next().unwrap_or("");
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("circuit") => {
                spec.name = tokens
                    .next()
                    .ok_or_else(|| syntax(line_number, "circuit needs a name"))?;
            }
            Some("input") => spec.inputs.extend(tokens),
            Some("output") => spec.outputs.extend(tokens),
            Some("wire") => spec.wires.extend(tokens),
            Some("gate") => {
                let gate = parse_gate(line_number, tokens, &mut spec.pins)?;
                spec.gates.push(gate);
            }
            Some(other) => return Err(syntax(line_number, format!("unknown keyword {other}"))),
            None => {}
        }
    }
    assemble(spec).map_err(ParseError::from)
}

/// Parses the rest of the `gate` statement on line `line`, appending its
/// input nets to `pins`.
fn parse_gate<'a>(
    line: usize,
    mut tokens: SplitWhitespace<'a>,
    pins: &mut Vec<&'a str>,
) -> Result<GateSpec<'a>, ParseError> {
    let kind_token = tokens
        .next()
        .ok_or_else(|| syntax(line, "gate needs a cell kind"))?;
    let kind: CellKind = kind_token
        .parse()
        .map_err(|_| syntax(line, format!("unknown cell kind {kind_token}")))?;
    let instance = tokens
        .next()
        .ok_or_else(|| syntax(line, "gate needs an instance name"))?;
    let first_input = pins.len();
    loop {
        match tokens.next() {
            Some("->") => break,
            Some(net) => pins.push(net),
            None => return Err(syntax(line, "gate needs '-> <output net>'")),
        }
    }
    let inputs = first_input..pins.len();
    let output = tokens
        .next()
        .ok_or_else(|| syntax(line, "missing output net after '->'"))?;
    let mut thresholds = None;
    for extra in tokens {
        let Some(list) = extra.strip_prefix("vt=") else {
            return Err(syntax(line, format!("unexpected token {extra}")));
        };
        let parsed: Result<Vec<f64>, _> = list.split(',').map(str::parse::<f64>).collect();
        thresholds =
            Some(parsed.map_err(|_| syntax(line, format!("invalid threshold list {list}")))?);
    }
    Ok(GateSpec {
        line,
        kind,
        instance,
        inputs,
        output,
        thresholds,
    })
}

impl From<AssembleError> for ParseError {
    fn from(err: AssembleError) -> Self {
        match err {
            AssembleError::Gate { line, message } => syntax(line, message),
            AssembleError::Netlist(err) => ParseError::Netlist(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetDriver;

    const HALF_ADDER: &str = "\
# a tiny half adder
circuit half_adder
input a b
output sum carry
gate xor2 gx a b -> sum
gate and2 ga a b -> carry
";

    #[test]
    fn parses_a_simple_circuit() {
        let netlist = parse(HALF_ADDER).unwrap();
        assert_eq!(netlist.name(), "half_adder");
        assert_eq!(netlist.gate_count(), 2);
        assert_eq!(netlist.primary_inputs().len(), 2);
        assert_eq!(netlist.primary_outputs().len(), 2);
        let sum = netlist.net_id("sum").unwrap();
        assert!(matches!(netlist.net(sum).driver(), NetDriver::Gate(_)));
    }

    #[test]
    fn parses_threshold_overrides() {
        let text = "\
circuit vt_test
input a
output y
gate inv g1 a -> n1 vt=0.30
gate inv g2 n1 -> y
";
        let netlist = parse(text).unwrap();
        let g1 = netlist.gates().iter().find(|g| g.name() == "g1").unwrap();
        assert_eq!(g1.threshold_overrides(), Some(&[0.30][..]));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            "\n# nothing\ncircuit c\ninput a\n\noutput y\ngate buf g a -> y # trailing comment\n";
        let netlist = parse(text).unwrap();
        assert_eq!(netlist.gate_count(), 1);
    }

    #[test]
    fn nets_can_be_referenced_before_their_driver() {
        let text = "\
circuit order
input a
output y
gate inv g2 n1 -> y
gate inv g1 a -> n1
";
        let netlist = parse(text).unwrap();
        assert_eq!(netlist.gate_count(), 2);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let bad_kind = parse("circuit c\ninput a\ngate frob g a -> y\n").unwrap_err();
        assert!(bad_kind.to_string().contains("line 3"));
        let bad_arrow = parse("circuit c\ninput a\ngate inv g a y\n").unwrap_err();
        assert!(bad_arrow.to_string().contains("->"));
        let bad_keyword = parse("wires a b\n").unwrap_err();
        assert!(bad_keyword.to_string().contains("unknown keyword"));
        let bad_vt = parse("circuit c\ninput a\ngate inv g a -> y vt=abc\n").unwrap_err();
        assert!(bad_vt.to_string().contains("invalid threshold list"));
        let bad_arity = parse("circuit c\ninput a\ngate nand2 g a -> y\n").unwrap_err();
        assert!(bad_arity.to_string().contains("expects 2 inputs"));
    }

    #[test]
    fn structurally_invalid_circuits_are_rejected() {
        let undriven = parse("circuit c\ninput a\noutput y\ngate and2 g a n_missing -> y\n");
        assert!(matches!(
            undriven,
            Err(ParseError::Netlist(NetlistError::UndrivenNet { .. }))
        ));
        let duplicate_gate =
            parse("circuit c\ninput a\noutput y z\ngate inv g a -> y\ngate inv g a -> z\n")
                .unwrap_err();
        assert_eq!(
            duplicate_gate,
            ParseError::Netlist(NetlistError::DuplicateGate {
                name: "g".to_string()
            })
        );
        assert_eq!(
            duplicate_gate.to_string(),
            "invalid netlist: duplicate gate name: g"
        );
        let input_as_output =
            parse("circuit pt\ninput a b\nwire y\noutput a y\ngate nand2 g a b -> y\n")
                .unwrap_err();
        assert_eq!(
            input_as_output,
            ParseError::Netlist(NetlistError::ExposedPrimaryInput {
                net: "a".to_string()
            })
        );
        assert_eq!(
            input_as_output.to_string(),
            "invalid netlist: primary input a cannot be exposed as an output"
        );
    }
}
