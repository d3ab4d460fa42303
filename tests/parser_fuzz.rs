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

use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use halotis::corpus::standard_corpus;
use halotis::netlist::{parser, technology, verilog, writer, Netlist};
use halotis::serve::{client, protocol};
use halotis::sim::CompiledCircuit;
use proptest::prelude::*;

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
