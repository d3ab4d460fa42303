//! Byte-level fuzzing of the three readers of untrusted input: the `.net`
//! parser, the Verilog parser and the daemon's request decoder.
//!
//! Each case takes a seed — a committed netlist, a golden Verilog file or a
//! `load`/`simulate` frame built with `halotis_serve::client` — and applies
//! a few random mutations: overwrite, delete or duplicate a span of bytes.
//! The reader must return a value or an error, never panic, and answer
//! within a generous time bound.  A netlist that parses is also compiled,
//! as the daemon's `load` does.  Cases are deterministic per test name
//! (the vendored proptest stand-in), so a failure reproduces exactly.
//!
//! The two netlist readers' outcomes are also pinned: a digest over a fixed
//! set of mutated inputs (what parsed, with its net numbering, and the text
//! of every error), and the net order of a few hand-written spellings that
//! the writers never emit.

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use halotis::corpus::standard_corpus;
use halotis::netlist::{parser, technology, verilog, writer, Netlist};
use halotis::serve::{client, protocol};
use halotis::sim::CompiledCircuit;
use proptest::prelude::*;
use proptest::TestRng;
use rand::SeedableRng;

/// The bound on one call, generous enough for an unoptimised build.
const PER_INPUT: Duration = Duration::from_secs(2);

/// Bytes an overwrite draws from 15 times in 16: the punctuation, digits
/// and letters the three grammars are made of, so mutations reach past the
/// first token.  The rest are raw bytes, most of them not UTF-8.
const GRAMMAR: &[u8] = b" \n\t#-> ()[],;:.\"\\{}0123456789eE+abcdgiowxyzAN'";

/// One mutation: `(kind, position, span length, byte)`.
type Mutation = (u8, u32, u8, u8);

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0u8..3, any::<u32>(), 1u8..33, any::<u8>()), 1..5)
}

/// Applies `mutations` to a copy of `seed`.
fn mutate(seed: &[u8], mutations: &[Mutation]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for &(kind, position, length, byte) in mutations {
        let at = position as usize % (bytes.len() + 1);
        let end = |length: u8| (at + usize::from(length)).min(bytes.len());
        match kind {
            // Overwrite 1 to 3 bytes with one.
            0 => {
                let fill = if byte < 240 {
                    GRAMMAR[usize::from(byte) % GRAMMAR.len()]
                } else {
                    byte
                };
                let end = end(1 + length % 3);
                bytes[at..end].fill(fill);
            }
            1 => {
                let end = end(length);
                bytes.drain(at..end);
            }
            _ => {
                let end = end(length);
                let span = bytes[at..end].to_vec();
                bytes.splice(end..end, span);
            }
        }
    }
    bytes
}

/// Runs `call`, failing when it takes longer than [`PER_INPUT`].
fn timed<T>(what: &str, call: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = call();
    let elapsed = started.elapsed();
    assert!(elapsed < PER_INPUT, "{what} took {elapsed:?}");
    value
}

/// The files in `dir` (relative to the workspace root) ending in
/// `extension`, sorted by name.
fn read_seeds(dir: &str, extension: &str) -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|err| panic!("{}: {err}", dir.display()))
        .map(|entry| entry.expect("a readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == extension))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no *.{extension} seeds in {}",
        dir.display()
    );
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("a readable seed"))
        .collect()
}

/// Compiles a netlist that parsed, as the daemon's `load` does.
fn compiles_or_errors(netlist: &Netlist) {
    let library = technology::cmos06();
    let _ = timed("compile", || CompiledCircuit::compile(netlist, &library));
}

/// The committed `.net` netlists.
fn net_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| read_seeds("crates/netlist/circuits", "net"))
}

/// The golden Verilog modules.
fn verilog_seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| read_seeds("tests/golden", "v"))
}

/// A `load` frame per committed netlist and per corpus circuit, and a
/// `simulate` frame per corpus entry's suite and model column.
fn request_frames() -> &'static [String] {
    static FRAMES: OnceLock<Vec<String>> = OnceLock::new();
    FRAMES.get_or_init(build_request_frames)
}

fn build_request_frames() -> Vec<String> {
    let mut frames: Vec<String> = net_seeds()
        .iter()
        .enumerate()
        .map(|(id, text)| client::load_request(id as u64, text))
        .collect();
    for (id, entry) in standard_corpus().iter().enumerate() {
        frames.push(client::load_request(
            id as u64,
            &writer::to_text(&entry.netlist),
        ));
        for model in ["ddm", "cdm", "mix"] {
            frames.push(client::simulate_request(
                id as u64,
                &entry.name,
                &entry.suite,
                model,
            ));
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn the_net_parser_survives_mutated_netlists(pick in any::<u32>(), edits in mutations()) {
        let seeds = net_seeds();
        let seed = &seeds[pick as usize % seeds.len()];
        let text = String::from_utf8_lossy(&mutate(seed.as_bytes(), &edits)).into_owned();
        if let Ok(netlist) = timed("parser::parse", || parser::parse(&text)) {
            compiles_or_errors(&netlist);
        }
    }

    #[test]
    fn the_verilog_parser_survives_mutated_modules(pick in any::<u32>(), edits in mutations()) {
        let seeds = verilog_seeds();
        let seed = &seeds[pick as usize % seeds.len()];
        let text = String::from_utf8_lossy(&mutate(seed.as_bytes(), &edits)).into_owned();
        if let Ok(netlist) = timed("verilog::parse_verilog", || verilog::parse_verilog(&text)) {
            compiles_or_errors(&netlist);
        }
    }

    #[test]
    fn the_request_decoder_survives_mutated_frames(pick in any::<u32>(), edits in mutations()) {
        let frames = request_frames();
        let frame = &frames[pick as usize % frames.len()];
        let body = mutate(frame.as_bytes(), &edits);
        let _ = timed("protocol::parse_request", || protocol::parse_request(&body));
    }
}

/// Mutated inputs per reader in the pinned-outcome digests.
const PINNED_CASES: usize = 1024;

/// `.net` cases that parse, and the digest of all outcomes.  One mutated
/// case lists a primary input as an output and is refused.
const NET_PARSED: usize = 31;
const NET_DIGEST: u64 = 5_822_190_944_010_914_684;
/// Verilog cases that parse, and the digest of all outcomes.
const VERILOG_PARSED: usize = 21;
const VERILOG_DIGEST: u64 = 11_578_727_492_216_447_668;

/// Folds `bytes` and a terminating zero into an FNV-1a hash.
fn fold(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes.iter().chain(&[0]) {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Reads [`PINNED_CASES`] mutations of `seeds`, drawn from a fixed seed, and
/// returns how many parsed and an FNV-1a digest of every outcome: the
/// canonical text and the net names in id order of a netlist, the `Display`
/// text of an error.
fn outcome_digest<E: std::fmt::Display>(
    seeds: &[String],
    read: impl Fn(&str) -> Result<Netlist, E>,
) -> (usize, u64) {
    let mut rng = TestRng::seed_from_u64(0x4841_4c4f_5449_5321);
    let mut parsed = 0;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for _ in 0..PINNED_CASES {
        let pick = any::<u32>().generate(&mut rng);
        let edits = mutations().generate(&mut rng);
        let seed = &seeds[pick as usize % seeds.len()];
        let text = String::from_utf8_lossy(&mutate(seed.as_bytes(), &edits)).into_owned();
        match read(&text) {
            Ok(netlist) => {
                parsed += 1;
                fold(&mut digest, writer::to_text(&netlist).as_bytes());
                for net in netlist.nets() {
                    fold(&mut digest, net.name().as_bytes());
                }
            }
            Err(err) => fold(&mut digest, err.to_string().as_bytes()),
        }
    }
    (parsed, digest)
}

#[test]
fn net_reader_outcomes_are_pinned() {
    assert_eq!(
        outcome_digest(net_seeds(), parser::parse),
        (NET_PARSED, NET_DIGEST)
    );
}

#[test]
fn verilog_reader_outcomes_are_pinned() {
    assert_eq!(
        outcome_digest(verilog_seeds(), verilog::parse_verilog),
        (VERILOG_PARSED, VERILOG_DIGEST)
    );
}

/// A netlist's nets in id order, its primary inputs and its primary outputs.
fn net_order(netlist: &Netlist) -> [Vec<&str>; 3] {
    let names = |ids: &[halotis::core::NetId]| {
        ids.iter()
            .map(|&id| netlist.net(id).name())
            .collect::<Vec<_>>()
    };
    [
        netlist.nets().iter().map(|net| net.name()).collect(),
        names(netlist.primary_inputs()),
        names(netlist.primary_outputs()),
    ]
}

#[test]
fn non_canonical_spellings_keep_their_net_order() {
    let no_wire_line = "\
circuit no_wires
input a b
output y z
gate inv g3 n2 -> z
gate nand2 g1 a b -> n1
gate nor2 g2 n1 a -> n2
gate inv g4 n1 -> y
";
    let gates_before_inputs = "\
circuit late_inputs
gate inv g2 n1 -> y
gate nand2 g1 b a -> n1
output y
input b a
";
    let input_in_wire_line = "\
circuit rewired
input a b
output y
wire y b n1
gate nand2 g1 a b -> n1
gate inv g2 n1 -> y
";
    let output_listed_twice = "\
circuit twice
input a
output y y
output y
gate inv g1 a -> y
";
    let cases: [(&str, &str, [&[&str]; 3]); 4] = [
        (
            "no wire line",
            no_wire_line,
            [&["a", "b", "n2", "z", "n1", "y"], &["a", "b"], &["y", "z"]],
        ),
        (
            "gates before inputs",
            gates_before_inputs,
            [&["b", "a", "n1", "y"], &["b", "a"], &["y"]],
        ),
        (
            "input in the wire line",
            input_in_wire_line,
            [&["y", "b", "n1", "a"], &["b", "a"], &["y"]],
        ),
        (
            "output listed twice",
            output_listed_twice,
            [&["a", "y"], &["a"], &["y"]],
        ),
    ];
    for (label, text, expected) in cases {
        let netlist = parser::parse(text).unwrap_or_else(|err| panic!("{label}: {err}"));
        assert_eq!(
            net_order(&netlist),
            expected.map(<[&str]>::to_vec),
            "{label}"
        );
    }

    let escaped_and_attributed = "\
module \\top.m (\\a+b , y);
  input \\a+b ;
  output y;
  (* vt = \"0.3\" *) not g1 (\\n[0] , \\a+b );
  (* vt = \"0.25,0.75\" *) nand \\g.2 (y, \\n[0] , \\a+b );
endmodule
";
    let gates_before_ports = "\
module late(y, a);
  not g2 (y, n1);
  output y;
  not g1 (n1, a);
  input a;
endmodule
";
    let netlist = verilog::parse_verilog(escaped_and_attributed).unwrap();
    assert_eq!(netlist.name(), "top.m");
    assert_eq!(
        net_order(&netlist),
        [vec!["a+b", "n[0]", "y"], vec!["a+b"], vec!["y"]]
    );
    assert_eq!(netlist.gates()[1].name(), "g.2");
    assert_eq!(
        netlist.gates()[1].threshold_overrides(),
        Some(&[0.25, 0.75][..])
    );
    let netlist = verilog::parse_verilog(gates_before_ports).unwrap();
    assert_eq!(
        net_order(&netlist),
        [vec!["a", "n1", "y"], vec!["a"], vec!["y"]]
    );
}
