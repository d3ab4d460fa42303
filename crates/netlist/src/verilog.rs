//! Structural-Verilog reader and writer for [`Netlist`]s.
//!
//! This module speaks the *structural* subset of Verilog-2001: one `module`
//! per file, non-ANSI port declarations, `wire` declarations and gate-level
//! primitive instances (`and`/`or`/`nand`/`nor`/`xor`/`xnor`/`not`/`buf`)
//! with output-first connection order.  That is exactly the shape produced
//! by logic-synthesis tools in "write out the mapped netlist" mode, which
//! makes any synthesized benchmark (ISCAS-85 originals, the EPFL suite) a
//! corpus candidate.  The full grammar, with the cell-library name mapping,
//! lives in `FORMATS.md` at the repository root.
//!
//! Like the [`writer`](crate::writer) for the `.net` format, [`to_verilog`]
//! emits `wire` declarations for **every** net in [`NetId`] order — legal
//! Verilog, since a port may be re-declared as a net — so the round trip
//! `parse_verilog(to_verilog(n))` is the **identity**: same net numbering,
//! same gate order, same event schedule.
//!
//! Per-instance threshold overrides survive the trip as Verilog-2001
//! attribute instances, which any other tool is free to ignore:
//!
//! ```text
//! (* vt = "0.30" *) not g1 (n1, a);
//! ```
//!
//! The reader borrows from the source: its tokens are slices of the text,
//! and it lowers the module into the same borrowed `CircuitSpec` the `.net`
//! [`parser`](crate::parser) builds, so a name is copied only into the
//! finished netlist.
//!
//! # Example
//!
//! ```
//! use halotis_netlist::{generators, verilog};
//!
//! let original = generators::inverter_chain(3);
//! let text = verilog::to_verilog(&original);
//! assert!(text.starts_with("module inv_chain_3"));
//! let reparsed = verilog::parse_verilog(&text)?;
//! assert_eq!(reparsed, original);
//! # Ok::<(), halotis_netlist::verilog::VerilogError>(())
//! ```
//!
//! [`NetId`]: halotis_core::NetId

use std::collections::HashSet;
use std::fmt;

use crate::cell::CellKind;
use crate::netlist::{Netlist, NetlistError};
use crate::parser::{assemble, AssembleError, CircuitSpec, GateSpec};

/// Errors produced while parsing structural Verilog.
#[derive(Debug, Clone, PartialEq)]
pub enum VerilogError {
    /// The text is outside the supported structural subset (or plain wrong).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The text was syntactically fine but the circuit is invalid.
    Netlist(NetlistError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            VerilogError::Netlist(err) => write!(f, "invalid netlist: {err}"),
        }
    }
}

impl std::error::Error for VerilogError {}

impl From<NetlistError> for VerilogError {
    fn from(err: NetlistError) -> Self {
        VerilogError::Netlist(err)
    }
}

impl From<AssembleError> for VerilogError {
    fn from(err: AssembleError) -> Self {
        match err {
            AssembleError::Gate { line, message } => VerilogError::Syntax { line, message },
            AssembleError::Netlist(err) => VerilogError::Netlist(err),
        }
    }
}

fn syntax(line: usize, message: impl Into<String>) -> VerilogError {
    VerilogError::Syntax {
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The gate-level primitive a [`CellKind`] maps to, paired with the arity
/// encoded in the connection count.  The inverse mapping is
/// [`cell_for_primitive`].
fn primitive_name(kind: CellKind) -> &'static str {
    match kind {
        CellKind::Inv => "not",
        CellKind::Buf => "buf",
        CellKind::And2 | CellKind::And3 | CellKind::And4 => "and",
        CellKind::Or2 | CellKind::Or3 | CellKind::Or4 => "or",
        CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => "nand",
        CellKind::Nor2 | CellKind::Nor3 | CellKind::Nor4 => "nor",
        CellKind::Xor2 => "xor",
        CellKind::Xnor2 => "xnor",
        // Sequential cells have no Verilog gate primitive; the subset
        // treats the library cell names as primitive keywords, mirroring
        // the `.net` grammar (connections stay output-first).
        CellKind::Dff => "dff",
        CellKind::DffRn => "dffrn",
        CellKind::LatchD => "latchd",
    }
}

/// The library cell for a primitive of the given input arity, or an error
/// message when the library has no cell of that shape.
fn cell_for_primitive(primitive: &str, input_count: usize) -> Result<CellKind, String> {
    let kind = match (primitive, input_count) {
        ("not", 1) => CellKind::Inv,
        ("buf", 1) => CellKind::Buf,
        ("and", 2) => CellKind::And2,
        ("and", 3) => CellKind::And3,
        ("and", 4) => CellKind::And4,
        ("or", 2) => CellKind::Or2,
        ("or", 3) => CellKind::Or3,
        ("or", 4) => CellKind::Or4,
        ("nand", 2) => CellKind::Nand2,
        ("nand", 3) => CellKind::Nand3,
        ("nand", 4) => CellKind::Nand4,
        ("nor", 2) => CellKind::Nor2,
        ("nor", 3) => CellKind::Nor3,
        ("nor", 4) => CellKind::Nor4,
        ("xor", 2) => CellKind::Xor2,
        ("xnor", 2) => CellKind::Xnor2,
        ("dff", 2) => CellKind::Dff,
        ("dffrn", 3) => CellKind::DffRn,
        ("latchd", 2) => CellKind::LatchD,
        _ => {
            return Err(format!(
                "the cell library has no {input_count}-input '{primitive}' \
                 (supported: not/buf with 1 input, and/or/nand/nor with 2-4, \
                 xor/xnor with 2, dff/latchd with 2, dffrn with 3)"
            ))
        }
    };
    Ok(kind)
}

/// Verilog-2001 keywords that force identifier escaping on emission.  Not
/// the full reserved list — just everything this subset's parser gives
/// meaning to, plus common net-type/procedural keywords a downstream tool
/// would choke on.
const KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "begin",
    "buf",
    "case",
    "dff",
    "dffrn",
    "end",
    "endcase",
    "endmodule",
    "for",
    "if",
    "initial",
    "inout",
    "input",
    "latchd",
    "module",
    "nand",
    "nor",
    "not",
    "or",
    "output",
    "parameter",
    "reg",
    "supply0",
    "supply1",
    "tri",
    "wire",
    "xnor",
    "xor",
];

fn is_simple_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
}

/// Renders a name as a Verilog identifier, falling back to the escaped form
/// (`\name` followed by whitespace) for keywords and names with characters
/// outside `[a-zA-Z0-9_$]`.  The escaped form *includes* its terminating
/// space, so callers can concatenate punctuation directly after it.
fn emit_identifier(name: &str) -> String {
    if is_simple_identifier(name) && !KEYWORDS.contains(&name) {
        name.to_string()
    } else {
        format!("\\{name} ")
    }
}

fn join_identifiers(names: impl Iterator<Item = impl AsRef<str>>) -> String {
    let rendered: Vec<String> = names.map(|n| emit_identifier(n.as_ref())).collect();
    rendered.join(", ")
}

/// Serialises a netlist as a structural-Verilog module.
///
/// The module's port list is primary inputs then primary outputs, each in
/// declaration order; `wire` statements cover **all** nets in
/// [`NetId`](halotis_core::NetId) order (16 names per statement, matching
/// the `.net` [`writer`](crate::writer)); instances follow in
/// [`GateId`](halotis_core::GateId) order with output-first connections.
/// Threshold overrides become `(* vt = "..." *)` attribute instances.
///
/// The result parses back to an equal netlist — see the module docs.
pub fn to_verilog(netlist: &Netlist) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let inputs: Vec<&str> = netlist
        .primary_inputs()
        .iter()
        .map(|&id| netlist.net(id).name())
        .collect();
    let outputs: Vec<&str> = netlist
        .primary_outputs()
        .iter()
        .map(|&id| netlist.net(id).name())
        .collect();

    let ports = join_identifiers(inputs.iter().chain(outputs.iter()));
    let module_name = emit_identifier(netlist.name());
    if ports.is_empty() {
        writeln!(out, "module {module_name};").expect("writing to String cannot fail");
    } else {
        writeln!(out, "module {module_name}({ports});").expect("writing to String cannot fail");
    }

    if !inputs.is_empty() {
        for chunk in inputs.chunks(16) {
            writeln!(out, "  input {};", join_identifiers(chunk.iter()))
                .expect("writing to String cannot fail");
        }
    }
    if !outputs.is_empty() {
        for chunk in outputs.chunks(16) {
            writeln!(out, "  output {};", join_identifiers(chunk.iter()))
                .expect("writing to String cannot fail");
        }
    }
    // Every net, in NetId order: this is what pins the numbering on re-parse
    // (re-declaring a port as a wire is legal Verilog-2001).
    for chunk in netlist.nets().chunks(16) {
        writeln!(
            out,
            "  wire {};",
            join_identifiers(chunk.iter().map(|net| net.name()))
        )
        .expect("writing to String cannot fail");
    }

    for gate in netlist.gates() {
        let mut connections = vec![emit_identifier(netlist.net(gate.output()).name())];
        connections.extend(
            gate.inputs()
                .iter()
                .map(|&id| emit_identifier(netlist.net(id).name())),
        );
        let attr = match gate.threshold_overrides() {
            Some(overrides) => {
                let list: Vec<String> = overrides.iter().map(|f| format!("{f}")).collect();
                format!("(* vt = \"{}\" *) ", list.join(","))
            }
            None => String::new(),
        };
        writeln!(
            out,
            "  {attr}{} {} ({});",
            primitive_name(gate.kind()),
            emit_identifier(gate.name()),
            connections.join(", ")
        )
        .expect("writing to String cannot fail");
    }
    out.push_str("endmodule\n");
    out
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    /// A simple or escaped identifier (escaping already stripped).  Keywords
    /// arrive as identifiers too; the parser tells them apart by value.
    Ident(&'a str),
    /// A quoted string literal, quotes stripped (attribute values).
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Semi,
    Equals,
    AttrOpen,
    AttrClose,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(name) => write!(f, "'{name}'"),
            Token::Str(value) => write!(f, "\"{value}\""),
            Token::LParen => f.write_str("'('"),
            Token::RParen => f.write_str("')'"),
            Token::Comma => f.write_str("','"),
            Token::Semi => f.write_str("';'"),
            Token::Equals => f.write_str("'='"),
            Token::AttrOpen => f.write_str("'(*'"),
            Token::AttrClose => f.write_str("'*)'"),
        }
    }
}

/// Tokenizes Verilog source, tracking 1-based line numbers and stripping
/// `//` and `/* */` comments.  The scan is over bytes: a character is
/// decoded only at a non-ASCII byte outside comments, strings and escaped
/// identifiers, where it must be whitespace.
fn lex(text: &str) -> Result<Vec<(Token<'_>, usize)>, VerilogError> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut at = 0;
    while let Some(&byte) = bytes.get(at) {
        let start = at;
        at += 1;
        let token = match byte {
            b'\n' => {
                line += 1;
                continue;
            }
            // The other ASCII characters `char::is_whitespace` accepts.
            b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => continue,
            b'/' => {
                match bytes.get(at) {
                    Some(b'/') => match bytes[at..].iter().position(|&b| b == b'\n') {
                        Some(end) => {
                            at += end + 1;
                            line += 1;
                        }
                        None => at = bytes.len(),
                    },
                    Some(b'*') => {
                        at += 1;
                        loop {
                            match bytes.get(at) {
                                None => return Err(syntax(line, "unterminated block comment")),
                                Some(b'\n') => line += 1,
                                Some(b'*') if bytes.get(at + 1) == Some(&b'/') => {
                                    at += 2;
                                    break;
                                }
                                Some(_) => {}
                            }
                            at += 1;
                        }
                    }
                    _ => return Err(syntax(line, "unexpected character '/'")),
                }
                continue;
            }
            b'(' if bytes.get(at) == Some(&b'*') => {
                at += 1;
                Token::AttrOpen
            }
            b'(' => Token::LParen,
            b'*' if bytes.get(at) == Some(&b')') => {
                at += 1;
                Token::AttrClose
            }
            b'*' => return Err(syntax(line, "unexpected character '*'")),
            b')' => Token::RParen,
            b',' => Token::Comma,
            b';' => Token::Semi,
            b'=' => Token::Equals,
            b'"' => match bytes[at..].iter().position(|&b| b == b'"' || b == b'\n') {
                Some(len) if bytes[at + len] == b'"' => {
                    let value = &text[at..at + len];
                    at += len + 1;
                    Token::Str(value)
                }
                _ => return Err(syntax(line, "unterminated string literal")),
            },
            b'\\' => {
                // Escaped identifier: everything up to the next whitespace.
                let rest = &text[at..];
                let len = rest.find(char::is_whitespace).unwrap_or(rest.len());
                if len == 0 {
                    return Err(syntax(line, "empty escaped identifier"));
                }
                at += len;
                Token::Ident(&rest[..len])
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                at += bytes[at..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_' || b == b'$'))
                    .unwrap_or(bytes.len() - at);
                Token::Ident(&text[start..at])
            }
            _ => {
                let c = text[start..]
                    .chars()
                    .next()
                    .expect("tokens end on char boundaries");
                if c.is_whitespace() {
                    at = start + c.len_utf8();
                    continue;
                }
                return Err(syntax(
                    line,
                    format!("unexpected character '{c}' (structural subset only)"),
                ));
            }
        };
        tokens.push((token, line));
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    position: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.position).map(|&(t, _)| t)
    }

    /// Line of the current token (or of the last token at end of input).
    fn line(&self) -> usize {
        self.tokens
            .get(self.position)
            .or_else(|| self.tokens.last())
            .map_or(1, |&(_, line)| line)
    }

    fn next(&mut self) -> Option<Token<'a>> {
        let token = self.peek();
        if token.is_some() {
            self.position += 1;
        }
        token
    }

    fn expect(&mut self, want: Token<'_>, context: &str) -> Result<(), VerilogError> {
        let line = self.line();
        match self.next() {
            Some(token) if token == want => Ok(()),
            Some(token) => Err(syntax(
                line,
                format!("expected {want} {context}, got {token}"),
            )),
            None => Err(syntax(
                line,
                format!("expected {want} {context}, got end of input"),
            )),
        }
    }

    fn expect_ident(&mut self, context: &str) -> Result<&'a str, VerilogError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(name)) => Ok(name),
            Some(token) => Err(syntax(
                line,
                format!("expected an identifier {context}, got {token}"),
            )),
            None => Err(syntax(
                line,
                format!("expected an identifier {context}, got end of input"),
            )),
        }
    }

    /// Parses `ident { "," ident }` up to (not consuming) the terminator,
    /// appending the names to `names`.
    fn ident_list(&mut self, context: &str, names: &mut Vec<&'a str>) -> Result<(), VerilogError> {
        names.push(self.expect_ident(context)?);
        while self.peek() == Some(Token::Comma) {
            self.next();
            names.push(self.expect_ident(context)?);
        }
        Ok(())
    }
}

/// Parses a structural-Verilog module into a validated [`Netlist`].
///
/// Accepts the subset documented in the module docs (and in `FORMATS.md`):
/// one module, non-ANSI `input`/`output`/`wire` declarations, gate-primitive
/// instances with instance names and output-first connections, optional
/// `(* vt = "..." *)` threshold attributes, `//` and `/* */` comments, and
/// escaped identifiers.  Vector ports, `assign`, behavioural blocks and
/// user-defined submodules are rejected with a line-anchored error.
///
/// # Errors
///
/// [`VerilogError::Syntax`] for text outside the subset;
/// [`VerilogError::Netlist`] when the described circuit is structurally
/// invalid (undriven nets, combinational loops, duplicate drivers).
///
/// # Example
///
/// ```
/// use halotis_netlist::verilog;
///
/// let source = "\
/// module half_adder(a, b, sum, carry);
///   input a, b;
///   output sum, carry;
///   xor gx (sum, a, b);
///   and ga (carry, a, b);
/// endmodule
/// ";
/// let netlist = verilog::parse_verilog(source)?;
/// assert_eq!(netlist.gate_count(), 2);
/// # Ok::<(), halotis_netlist::verilog::VerilogError>(())
/// ```
pub fn parse_verilog(text: &str) -> Result<Netlist, VerilogError> {
    let mut cursor = Cursor {
        tokens: lex(text)?,
        position: 0,
    };

    let line = cursor.line();
    match cursor.next() {
        Some(Token::Ident("module")) => {}
        _ => return Err(syntax(line, "expected 'module' at the start of the source")),
    }
    let mut spec = CircuitSpec {
        name: cursor.expect_ident("as the module name")?,
        ..CircuitSpec::default()
    };

    // The port list itself carries no information our assembly needs — the
    // input/output declarations repeat every name with its direction — so it
    // is validated for shape and recorded only to cross-check declarations.
    let mut port_list: Option<Vec<&str>> = None;
    if cursor.peek() == Some(Token::LParen) {
        cursor.next();
        let mut ports = Vec::new();
        if cursor.peek() == Some(Token::RParen) {
            cursor.next();
        } else {
            cursor.ident_list("in the module port list", &mut ports)?;
            cursor.expect(Token::RParen, "to close the module port list")?;
        }
        port_list = Some(ports);
    }
    cursor.expect(Token::Semi, "after the module header")?;

    loop {
        let line = cursor.line();
        // Attribute instance, if any, prefixes a gate instantiation.
        let mut thresholds: Option<Vec<f64>> = None;
        if cursor.peek() == Some(Token::AttrOpen) {
            cursor.next();
            loop {
                let attr_name = cursor.expect_ident("as an attribute name")?;
                cursor.expect(Token::Equals, "after the attribute name")?;
                let attr_line = cursor.line();
                let Some(Token::Str(value)) = cursor.next() else {
                    return Err(syntax(attr_line, "attribute values must be quoted strings"));
                };
                if attr_name == "vt" {
                    let parsed: Result<Vec<f64>, _> =
                        value.split(',').map(str::parse::<f64>).collect();
                    thresholds = Some(parsed.map_err(|_| {
                        syntax(attr_line, format!("invalid threshold list \"{value}\""))
                    })?);
                } else {
                    return Err(syntax(
                        attr_line,
                        format!("unknown attribute '{attr_name}' (supported: vt)"),
                    ));
                }
                match cursor.peek() {
                    Some(Token::Comma) => {
                        cursor.next();
                    }
                    _ => break,
                }
            }
            cursor.expect(Token::AttrClose, "to close the attribute instance")?;
        }

        let keyword_line = cursor.line();
        let keyword = match cursor.next() {
            Some(Token::Ident(keyword)) => keyword,
            Some(token) => {
                return Err(syntax(
                    keyword_line,
                    format!("expected a statement keyword, got {token}"),
                ))
            }
            None => return Err(syntax(keyword_line, "missing 'endmodule'")),
        };

        match keyword {
            "endmodule" => {
                if thresholds.is_some() {
                    return Err(syntax(line, "attribute instance before 'endmodule'"));
                }
                break;
            }
            "input" | "output" | "wire" => {
                if thresholds.is_some() {
                    return Err(syntax(
                        line,
                        "attribute instances are only supported on gate instances",
                    ));
                }
                let names = match keyword {
                    "input" => &mut spec.inputs,
                    "output" => &mut spec.outputs,
                    _ => &mut spec.wires,
                };
                cursor.ident_list("in the declaration", names)?;
                cursor.expect(Token::Semi, "to end the declaration")?;
            }
            "and" | "or" | "nand" | "nor" | "xor" | "xnor" | "not" | "buf" | "dff" | "dffrn"
            | "latchd" => {
                let instance = cursor.expect_ident(
                    "as the instance name (anonymous primitive instances are not supported)",
                )?;
                cursor.expect(Token::LParen, "to open the connection list")?;
                let first = spec.pins.len();
                cursor.ident_list("in the connection list", &mut spec.pins)?;
                cursor.expect(Token::RParen, "to close the connection list")?;
                cursor.expect(Token::Semi, "to end the instance")?;
                let connections = spec.pins.len() - first;
                if connections < 2 {
                    return Err(syntax(
                        keyword_line,
                        format!("'{keyword}' instance needs an output and at least one input"),
                    ));
                }
                let kind = cell_for_primitive(keyword, connections - 1)
                    .map_err(|message| syntax(keyword_line, message))?;
                // Connections are output-first; the inputs stay in `pins`.
                let output = spec.pins.remove(first);
                spec.gates.push(GateSpec {
                    line: keyword_line,
                    kind,
                    instance,
                    inputs: first..spec.pins.len(),
                    output,
                    thresholds,
                });
            }
            other => {
                return Err(syntax(
                    keyword_line,
                    format!(
                        "unsupported statement '{other}' (the structural subset allows \
                         input/output/wire declarations and gate primitives only)"
                    ),
                ))
            }
        }
    }

    if let Some(token) = cursor.peek() {
        return Err(syntax(
            cursor.line(),
            format!("unexpected {token} after 'endmodule'"),
        ));
    }

    if let Some(ports) = &port_list {
        let declared: HashSet<&str> = spec.inputs.iter().chain(&spec.outputs).copied().collect();
        for port in ports {
            if !declared.contains(port) {
                return Err(syntax(
                    1,
                    format!("port '{port}' has no input/output declaration"),
                ));
            }
        }
    }

    Ok(assemble(spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;
    use crate::{generators, parser, writer};

    fn circuit_with_overrides() -> Netlist {
        let mut builder = NetlistBuilder::new("override");
        let a = builder.add_input("a");
        let y = builder.add_net("y");
        let z = builder.add_net("z");
        builder
            .add_gate_with_thresholds(CellKind::Inv, "g1", &[a], y, &[0.35])
            .unwrap();
        builder.add_gate(CellKind::Inv, "g2", &[y], z).unwrap();
        builder.mark_output(z);
        builder.build().unwrap()
    }

    #[test]
    fn emission_contains_all_sections() {
        let text = to_verilog(&circuit_with_overrides());
        assert!(text.starts_with("module override(a, z);\n"));
        assert!(text.contains("  input a;\n"));
        assert!(text.contains("  output z;\n"));
        assert!(text.contains("  wire a, y, z;\n"));
        assert!(text.contains("  (* vt = \"0.35\" *) not g1 (y, a);\n"));
        assert!(text.contains("  not g2 (z, y);\n"));
        assert!(text.ends_with("endmodule\n"));
    }

    #[test]
    fn round_trip_is_the_identity() {
        for netlist in [
            circuit_with_overrides(),
            generators::inverter_chain(5),
            generators::ripple_carry_adder(4),
        ] {
            let reparsed = parse_verilog(&to_verilog(&netlist)).unwrap();
            assert_eq!(reparsed, netlist, "round trip of {}", netlist.name());
        }
    }

    /// `width` primary inputs feeding `width / 2` NAND gates whose outputs
    /// are all primary outputs: every net is a port or a wire declaration.
    fn wide_netlist(width: usize) -> Netlist {
        let mut builder = NetlistBuilder::new(format!("wide{width}"));
        let inputs: Vec<_> = (0..width)
            .map(|index| builder.add_input(format!("in{index}")))
            .collect();
        for (index, pair) in inputs.chunks(2).enumerate() {
            let out = builder.add_net(format!("out{index}"));
            builder
                .add_gate(CellKind::Nand2, format!("g{index}"), pair, out)
                .unwrap();
            builder.mark_output(out);
        }
        builder.build().unwrap()
    }

    #[test]
    fn wide_netlists_round_trip_in_both_formats() {
        // Wide enough that a per-net scan over the inputs or ports would
        // cost hundreds of millions of string comparisons.
        let netlist = wide_netlist(16_384);
        let text = writer::to_text(&netlist);
        let via_net = parser::parse(&text).unwrap();
        assert_eq!(via_net, netlist);
        assert_eq!(writer::to_text(&via_net), text);

        let source = to_verilog(&netlist);
        let via_verilog = parse_verilog(&source).unwrap();
        assert_eq!(via_verilog, netlist);
        assert_eq!(to_verilog(&via_verilog), source);
    }

    #[test]
    fn cross_format_round_trip_matches_net_text() {
        let original = generators::ripple_carry_adder(3);
        let via_net = parser::parse(&writer::to_text(&original)).unwrap();
        let via_verilog = parse_verilog(&to_verilog(&original)).unwrap();
        assert_eq!(via_net, via_verilog);
    }

    #[test]
    fn primitive_mapping_round_trips_every_cell_kind() {
        for kind in CellKind::ALL {
            let primitive = primitive_name(kind);
            let arity = kind.input_count();
            assert_eq!(cell_for_primitive(primitive, arity).unwrap(), kind);
        }
    }

    #[test]
    fn parses_comments_attributes_and_escaped_identifiers() {
        let source = "\
// a line comment
module c(a, \\end );
  input a; /* block
              comment */
  output \\end ;
  (* vt = \"0.4\" *) not g1 (\\end , a);
endmodule
";
        let netlist = parse_verilog(source).unwrap();
        assert_eq!(netlist.gate_count(), 1);
        assert!(netlist.net_id("end").is_some());
        let g1 = netlist.gates().iter().find(|g| g.name() == "g1").unwrap();
        assert_eq!(g1.threshold_overrides(), Some(&[0.4][..]));
    }

    #[test]
    fn unicode_whitespace_separates_tokens_like_ascii_whitespace() {
        // No-break space, line separator and vertical tab are whitespace to
        // `char::is_whitespace`, and the no-break space ends an escaped name.
        let source = "module\u{a0}m(a,\u{2028}y);\x0b input \\a\u{a0};\n output y;\n not g (y, a);\nendmodule\n";
        let netlist = parse_verilog(source).unwrap();
        assert_eq!(netlist.name(), "m");
        assert!(netlist.net_id("a").is_some());
        let err = parse_verilog("module m;\n  \u{e9}\nendmodule\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: unexpected character '\u{e9}' (structural subset only)"
        );
        let err = parse_verilog("module m(a);\n input \\\u{3000};\nendmodule\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2: empty escaped identifier");
    }

    #[test]
    fn keyword_net_names_are_emitted_escaped_and_survive_the_trip() {
        let mut builder = NetlistBuilder::new("kw");
        let a = builder.add_input("wire");
        let y = builder.add_net("not");
        builder.add_gate(CellKind::Buf, "g", &[a], y).unwrap();
        builder.mark_output(y);
        let netlist = builder.build().unwrap();
        let text = to_verilog(&netlist);
        assert!(text.contains("\\wire "));
        assert!(text.contains("\\not "));
        assert_eq!(parse_verilog(&text).unwrap(), netlist);
    }

    #[test]
    fn arity_is_derived_from_the_connection_count() {
        let source = "\
module arity(a, b, c, y);
  input a, b, c;
  output y;
  and g (y, a, b, c);
endmodule
";
        let netlist = parse_verilog(source).unwrap();
        assert_eq!(netlist.gates()[0].kind(), CellKind::And3);
    }

    #[test]
    fn errors_carry_line_numbers_and_name_the_problem() {
        let five_input_xor = "\
module m(a, y);
  input a;
  output y;
  xor g (y, a, a, a);
endmodule
";
        let err = parse_verilog(five_input_xor).unwrap_err();
        assert!(err.to_string().contains("line 4"), "{err}");
        assert!(err.to_string().contains("3-input 'xor'"), "{err}");

        let behavioural = "module m(a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule\n";
        let err = parse_verilog(behavioural).unwrap_err();
        assert!(
            err.to_string().contains("unsupported statement 'assign'"),
            "{err}"
        );

        let literal = "module m(y);\n  output y;\n  assign y = 1'b0;\nendmodule\n";
        let err = parse_verilog(literal).unwrap_err();
        assert!(err.to_string().contains("structural subset"), "{err}");

        let anonymous = "module m(a, y);\n  input a;\n  output y;\n  not (y, a);\nendmodule\n";
        let err = parse_verilog(anonymous).unwrap_err();
        assert!(err.to_string().contains("instance name"), "{err}");

        let undeclared_port = "module m(ghost);\nendmodule\n";
        let err = parse_verilog(undeclared_port).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");

        let bad_vt = "\
module m(a, y);
  input a;
  output y;
  (* vt = \"abc\" *) not g (y, a);
endmodule
";
        let err = parse_verilog(bad_vt).unwrap_err();
        assert!(err.to_string().contains("invalid threshold list"), "{err}");
    }

    #[test]
    fn structural_errors_are_reported_as_netlist_errors() {
        let undriven = "\
module m(a, y);
  input a;
  output y;
  and g (y, a, missing);
endmodule
";
        assert!(matches!(
            parse_verilog(undriven),
            Err(VerilogError::Netlist(NetlistError::UndrivenNet { .. }))
        ));
        let duplicate_gate = "\
module m(a, y, z);
  input a;
  output y, z;
  not g (y, a);
  not g (z, a);
endmodule
";
        assert_eq!(
            parse_verilog(duplicate_gate),
            Err(VerilogError::Netlist(NetlistError::DuplicateGate {
                name: "g".to_string()
            }))
        );
        let input_as_output = "\
module pt(a, b, y);
  input a, b;
  output a, y;
  nand g (y, a, b);
endmodule
";
        assert_eq!(
            parse_verilog(input_as_output),
            Err(VerilogError::Netlist(NetlistError::ExposedPrimaryInput {
                net: "a".to_string()
            }))
        );
    }
}
