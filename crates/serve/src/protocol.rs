//! The request/response vocabulary of the wire protocol.
//!
//! Every frame body is one JSON object.  Requests carry an `"op"` selector
//! and a client-chosen `"id"`; responses echo the `"id"` and carry either an
//! `"ok"` object or an `"error"` object with a machine-readable `"code"`.
//! The full grammar is documented in `PROTOCOL.md` at the repository root;
//! this module is the single place where it is parsed and rendered, so the
//! spec and the code cannot drift apart silently.

use halotis_core::TimeDelta;
use halotis_corpus::{ModelColumn, StimulusSuite};
use halotis_netlist::CellKind;

use crate::json::{self, Value};

/// Machine-readable error codes, one per failure path.
///
/// The daemon guarantees that *every* failure — malformed bytes, unknown
/// keys, overload, simulation errors — maps to exactly one of these and is
/// answered with a structured error frame (when a reply is still possible).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame body was not valid UTF-8.
    MalformedFrame,
    /// The length prefix exceeded the server's frame ceiling.
    FrameTooLarge,
    /// The body was not parseable JSON.
    BadJson,
    /// The JSON was well-formed but violated the request grammar.
    BadRequest,
    /// The `"op"` selector named no known operation.
    UnknownOp,
    /// The circuit key named no cached circuit (never loaded, or evicted).
    UnknownKey,
    /// An edit command referenced a net name absent from the circuit.
    UnknownNet,
    /// An edit command referenced a gate name absent from the circuit.
    UnknownGate,
    /// The worker pool's queue is full; retry later.
    Busy,
    /// The connection exceeded its in-flight request quota.
    Quota,
    /// A read timed out, mid-frame (slow-loris defence) or between frames
    /// with no `simulate` outstanding.
    Timeout,
    /// A netlist operation (parse or edit) was rejected.
    NetlistError,
    /// The simulation itself failed.
    SimError,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// A revert was requested but no edits are outstanding.
    NothingToRevert,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownKey => "unknown_key",
            ErrorCode::UnknownNet => "unknown_net",
            ErrorCode::UnknownGate => "unknown_gate",
            ErrorCode::Busy => "busy",
            ErrorCode::Quota => "quota",
            ErrorCode::Timeout => "timeout",
            ErrorCode::NetlistError => "netlist_error",
            ErrorCode::SimError => "sim_error",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::NothingToRevert => "nothing_to_revert",
        }
    }
}

/// A structured protocol failure, carrying the code and a human message.
#[derive(Clone, Debug)]
pub struct ProtocolError {
    /// Which failure path was taken.
    pub code: ErrorCode,
    /// Human-readable detail (never needed by a conforming client).
    pub message: String,
}

impl ProtocolError {
    /// Creates an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One parsed edit command, referencing circuit objects by *name* (the wire
/// has no stable ids — names are the only handle a client holds).
#[derive(Clone, Debug, PartialEq)]
pub enum EditCommand {
    /// Swap a gate's cell kind in place.
    SwapKind {
        /// Gate name.
        gate: String,
        /// Replacement kind.
        kind: CellKind,
    },
    /// Reconnect one gate input to a different net.
    Rewire {
        /// Gate name.
        gate: String,
        /// Zero-based input pin index.
        input: usize,
        /// New driving net, by name.
        net: String,
    },
    /// Insert a new gate (its output net is created with it).
    Insert {
        /// Cell kind of the new gate.
        kind: CellKind,
        /// Name for the new gate.
        name: String,
        /// Input nets, by name.
        inputs: Vec<String>,
        /// Name for the freshly created output net.
        output: String,
    },
    /// Remove a gate and its output net.
    Remove {
        /// Gate name.
        gate: String,
    },
    /// Promote a net to a primary output.
    Expose {
        /// Net name.
        net: String,
    },
    /// Demote a net from the primary outputs.
    Unexpose {
        /// Net name.
        net: String,
    },
}

/// Which interchange format a `load` request's netlist text is in.
///
/// Whatever the input format, the cache canonicalises through the native
/// `.net` writer before fingerprinting, so the same circuit loads to the
/// same key regardless of which format carried it over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetlistFormat {
    /// The repository's native `.net` format (the default).
    Net,
    /// The structural Verilog subset (see FORMATS.md).
    Verilog,
}

impl NetlistFormat {
    /// Parses the wire spelling (`"net"` / `"verilog"`).
    pub fn parse(value: &str) -> Result<Self, ProtocolError> {
        match value {
            "net" => Ok(NetlistFormat::Net),
            "verilog" => Ok(NetlistFormat::Verilog),
            other => Err(ProtocolError::new(
                ErrorCode::BadRequest,
                format!("unknown format {other:?} (expected \"net\" or \"verilog\")"),
            )),
        }
    }
}

/// A parsed request (the `"id"` is carried separately by the server loop).
#[derive(Clone, Debug)]
pub enum Request {
    /// Compile a netlist into the circuit cache.
    Load {
        /// Netlist source text, in `format`.
        netlist: String,
        /// Which parser to run the text through (`"net"` when omitted).
        format: NetlistFormat,
    },
    /// Run a stimulus suite against a cached circuit.
    Simulate {
        /// Cache key from a prior `load`.
        key: String,
        /// The stimulus recipe.
        suite: StimulusSuite,
        /// The delay-model column.
        model: ModelColumn,
    },
    /// Apply a what-if edit script to a cached circuit.
    Edit {
        /// Cache key from a prior `load`.
        key: String,
        /// The commands, applied in order inside one session.
        commands: Vec<EditCommand>,
    },
    /// Undo the most recent outstanding `edit` on a cached circuit.
    Revert {
        /// Cache key from a prior `load`.
        key: String,
    },
    /// Report daemon counters.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
}

fn require<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    doc.get(key)
        .ok_or_else(|| ProtocolError::new(ErrorCode::BadRequest, format!("missing field {key:?}")))
}

fn require_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, ProtocolError> {
    require(doc, key)?.as_str().ok_or_else(|| {
        ProtocolError::new(
            ErrorCode::BadRequest,
            format!("field {key:?} must be a string"),
        )
    })
}

fn require_u64(doc: &Value, key: &str) -> Result<u64, ProtocolError> {
    require(doc, key)?.as_u64().ok_or_else(|| {
        ProtocolError::new(
            ErrorCode::BadRequest,
            format!("field {key:?} must be a non-negative integer"),
        )
    })
}

fn require_time_fs(doc: &Value, key: &str) -> Result<TimeDelta, ProtocolError> {
    let fs = require_u64(doc, key)?;
    i64::try_from(fs)
        .ok()
        .filter(|&fs| fs > 0)
        .map(TimeDelta::from_fs)
        .ok_or_else(|| {
            ProtocolError::new(
                ErrorCode::BadRequest,
                format!("field {key:?} must be a positive femtosecond count"),
            )
        })
}

fn parse_suite(doc: &Value) -> Result<StimulusSuite, ProtocolError> {
    match require_str(doc, "kind")? {
        "random" => Ok(StimulusSuite::RandomVectors {
            vectors: require_u64(doc, "vectors")? as usize,
            period: require_time_fs(doc, "period_fs")?,
            seed: require_u64(doc, "seed")?,
        }),
        "exhaustive" => Ok(StimulusSuite::Exhaustive {
            period: require_time_fs(doc, "period_fs")?,
        }),
        "toggle" => Ok(StimulusSuite::ToggleProbes {
            seed: require_u64(doc, "seed")?,
            max_probes: require_u64(doc, "max_probes")? as usize,
            pulse: require_time_fs(doc, "pulse_fs")?,
        }),
        "clocked" => Ok(StimulusSuite::Clocked {
            cycles: require_u64(doc, "cycles")? as usize,
            period: require_time_fs(doc, "period_fs")?,
            high: require_time_fs(doc, "high_fs")?,
            skew: require_time_fs(doc, "skew_fs")?,
            seed: require_u64(doc, "seed")?,
        }),
        other => Err(ProtocolError::new(
            ErrorCode::BadRequest,
            format!(
                "unknown suite kind {other:?} (expected random, exhaustive, toggle or clocked)"
            ),
        )),
    }
}

/// Renders a suite spec back to its wire form (used by the load generator).
pub fn render_suite(suite: &StimulusSuite) -> String {
    match suite {
        StimulusSuite::RandomVectors {
            vectors,
            period,
            seed,
        } => format!(
            r#"{{"kind":"random","vectors":{vectors},"period_fs":{},"seed":{seed}}}"#,
            period.as_fs()
        ),
        StimulusSuite::Exhaustive { period } => {
            format!(r#"{{"kind":"exhaustive","period_fs":{}}}"#, period.as_fs())
        }
        StimulusSuite::ToggleProbes {
            seed,
            max_probes,
            pulse,
        } => format!(
            r#"{{"kind":"toggle","seed":{seed},"max_probes":{max_probes},"pulse_fs":{}}}"#,
            pulse.as_fs()
        ),
        StimulusSuite::Clocked {
            cycles,
            period,
            high,
            skew,
            seed,
        } => format!(
            r#"{{"kind":"clocked","cycles":{cycles},"period_fs":{},"high_fs":{},"skew_fs":{},"seed":{seed}}}"#,
            period.as_fs(),
            high.as_fs(),
            skew.as_fs()
        ),
    }
}

fn parse_model(text: &str) -> Result<ModelColumn, ProtocolError> {
    ModelColumn::ALL
        .into_iter()
        .find(|model| model.as_str() == text)
        .ok_or_else(|| {
            ProtocolError::new(
                ErrorCode::BadRequest,
                format!("unknown model {text:?} (expected ddm, cdm or mix)"),
            )
        })
}

fn parse_cell_kind(text: &str) -> Result<CellKind, ProtocolError> {
    text.parse().map_err(|_| {
        ProtocolError::new(ErrorCode::BadRequest, format!("unknown cell kind {text:?}"))
    })
}

fn parse_edit_command(doc: &Value) -> Result<EditCommand, ProtocolError> {
    match require_str(doc, "action")? {
        "swap_kind" => Ok(EditCommand::SwapKind {
            gate: require_str(doc, "gate")?.to_string(),
            kind: parse_cell_kind(require_str(doc, "kind")?)?,
        }),
        "rewire" => Ok(EditCommand::Rewire {
            gate: require_str(doc, "gate")?.to_string(),
            input: require_u64(doc, "input")? as usize,
            net: require_str(doc, "net")?.to_string(),
        }),
        "insert" => {
            let inputs = require(doc, "inputs")?
                .as_array()
                .ok_or_else(|| {
                    ProtocolError::new(ErrorCode::BadRequest, "field \"inputs\" must be an array")
                })?
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        ProtocolError::new(
                            ErrorCode::BadRequest,
                            "\"inputs\" entries must be net names",
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(EditCommand::Insert {
                kind: parse_cell_kind(require_str(doc, "kind")?)?,
                name: require_str(doc, "name")?.to_string(),
                inputs,
                output: require_str(doc, "output")?.to_string(),
            })
        }
        "remove" => Ok(EditCommand::Remove {
            gate: require_str(doc, "gate")?.to_string(),
        }),
        "expose" => Ok(EditCommand::Expose {
            net: require_str(doc, "net")?.to_string(),
        }),
        "unexpose" => Ok(EditCommand::Unexpose {
            net: require_str(doc, "net")?.to_string(),
        }),
        other => Err(ProtocolError::new(
            ErrorCode::BadRequest,
            format!("unknown edit action {other:?}"),
        )),
    }
}

/// Parses one frame body into `(request id, request)`.
///
/// The id is extracted first and returned even alongside grammar errors when
/// possible, so the server can address the error frame to the right request.
pub fn parse_request(body: &[u8]) -> (Option<u64>, Result<Request, ProtocolError>) {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            return (
                None,
                Err(ProtocolError::new(
                    ErrorCode::MalformedFrame,
                    "frame body is not UTF-8",
                )),
            )
        }
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(err) => {
            return (
                None,
                Err(ProtocolError::new(ErrorCode::BadJson, err.to_string())),
            )
        }
    };
    let id = doc.get("id").and_then(Value::as_u64);
    (id, parse_request_doc(&doc))
}

fn parse_request_doc(doc: &Value) -> Result<Request, ProtocolError> {
    if doc.as_object().is_none() {
        return Err(ProtocolError::new(
            ErrorCode::BadRequest,
            "request must be a JSON object",
        ));
    }
    require_u64(doc, "id")?;
    match require_str(doc, "op")? {
        "load" => Ok(Request::Load {
            netlist: require_str(doc, "netlist")?.to_string(),
            format: match doc.get("format") {
                None => NetlistFormat::Net,
                Some(value) => NetlistFormat::parse(value.as_str().ok_or_else(|| {
                    ProtocolError::new(ErrorCode::BadRequest, "field \"format\" must be a string")
                })?)?,
            },
        }),
        "simulate" => Ok(Request::Simulate {
            key: require_str(doc, "key")?.to_string(),
            suite: parse_suite(require(doc, "suite")?)?,
            model: parse_model(require_str(doc, "model")?)?,
        }),
        "edit" => {
            let commands = require(doc, "commands")?
                .as_array()
                .ok_or_else(|| {
                    ProtocolError::new(ErrorCode::BadRequest, "field \"commands\" must be an array")
                })?
                .iter()
                .map(parse_edit_command)
                .collect::<Result<Vec<_>, _>>()?;
            if commands.is_empty() {
                return Err(ProtocolError::new(
                    ErrorCode::BadRequest,
                    "edit requires at least one command",
                ));
            }
            Ok(Request::Edit {
                key: require_str(doc, "key")?.to_string(),
                commands,
            })
        }
        "revert" => Ok(Request::Revert {
            key: require_str(doc, "key")?.to_string(),
        }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtocolError::new(
            ErrorCode::UnknownOp,
            format!("unknown op {other:?}"),
        )),
    }
}

/// Renders a success frame: `{"id":N,"ok":<body>}`.
pub fn render_ok(id: u64, body: &str) -> String {
    format!(r#"{{"id":{id},"ok":{body}}}"#)
}

/// Renders an error frame: `{"id":N,"error":{"code":...,"message":...}}`.
/// A `null` id addresses failures seen before an id could be extracted.
pub fn render_error(id: Option<u64>, error: &ProtocolError) -> String {
    let id = id.map_or_else(|| "null".to_string(), |id| id.to_string());
    format!(
        r#"{{"id":{id},"error":{{"code":{},"message":{}}}}}"#,
        json::string(error.code.as_str()),
        json::string(&error.message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simulate_request() {
        let body = br#"{"op":"simulate","id":7,"key":"c-1234","model":"mix",
                        "suite":{"kind":"random","vectors":16,"period_fs":5000000,"seed":9}}"#;
        let (id, request) = parse_request(body);
        assert_eq!(id, Some(7));
        match request.unwrap() {
            Request::Simulate { key, suite, model } => {
                assert_eq!(key, "c-1234");
                assert_eq!(model, ModelColumn::Mix);
                match suite {
                    StimulusSuite::RandomVectors {
                        vectors,
                        period,
                        seed,
                    } => {
                        assert_eq!((vectors, seed), (16, 9));
                        assert_eq!(period.as_fs(), 5_000_000);
                    }
                    other => panic!("wrong suite {other:?}"),
                }
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn load_requests_default_to_the_net_format() {
        let (_, request) = parse_request(br#"{"op":"load","id":1,"netlist":"circuit x"}"#);
        match request.unwrap() {
            Request::Load { format, .. } => assert_eq!(format, NetlistFormat::Net),
            other => panic!("wrong request {other:?}"),
        }

        let (_, request) = parse_request(
            br#"{"op":"load","id":2,"netlist":"module x; endmodule","format":"verilog"}"#,
        );
        match request.unwrap() {
            Request::Load { format, .. } => assert_eq!(format, NetlistFormat::Verilog),
            other => panic!("wrong request {other:?}"),
        }

        let (_, request) =
            parse_request(br#"{"op":"load","id":3,"netlist":"circuit x","format":"edif"}"#);
        let err = request.unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("edif"), "{}", err.message);

        let (_, request) =
            parse_request(br#"{"op":"load","id":4,"netlist":"circuit x","format":7}"#);
        assert_eq!(request.unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn suite_specs_round_trip_through_render() {
        for suite in [
            StimulusSuite::RandomVectors {
                vectors: 8,
                period: TimeDelta::from_fs(5_000_000),
                seed: 0xFEED,
            },
            StimulusSuite::Exhaustive {
                period: TimeDelta::from_fs(4_000_000),
            },
            StimulusSuite::ToggleProbes {
                seed: 0x17,
                max_probes: 5,
                pulse: TimeDelta::from_fs(500_000),
            },
        ] {
            let doc = json::parse(&render_suite(&suite)).unwrap();
            assert_eq!(parse_suite(&doc).unwrap(), suite);
        }
    }

    #[test]
    fn grammar_violations_carry_the_id_when_extractable() {
        let (id, request) = parse_request(br#"{"op":"simulate","id":3}"#);
        assert_eq!(id, Some(3));
        let err = request.unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);

        let (id, request) = parse_request(br#"{"op":"warp","id":4}"#);
        assert_eq!(id, Some(4));
        assert_eq!(request.unwrap_err().code, ErrorCode::UnknownOp);

        let (id, request) = parse_request(
            br#"{"op":"simulate","id":5,"key":"k","model":"ddx","suite":{"kind":"exhaustive","period_fs":1}}"#,
        );
        assert_eq!(id, Some(5));
        let err = request.unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("\"ddx\""), "{}", err.message);

        let (id, request) = parse_request(b"\xff\xfe");
        assert_eq!(id, None);
        assert_eq!(request.unwrap_err().code, ErrorCode::MalformedFrame);

        let (id, request) = parse_request(b"{not json");
        assert_eq!(id, None);
        assert_eq!(request.unwrap_err().code, ErrorCode::BadJson);
    }

    #[test]
    fn error_frames_render_with_null_and_numeric_ids() {
        let err = ProtocolError::new(ErrorCode::Busy, "queue full");
        assert_eq!(
            render_error(Some(9), &err),
            r#"{"id":9,"error":{"code":"busy","message":"queue full"}}"#
        );
        assert!(render_error(None, &err).starts_with(r#"{"id":null,"#));
    }
}
