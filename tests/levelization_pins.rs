//! Pins the levelization of every distinct corpus circuit.
//!
//! The compiled engine evaluates its initial state in level order, the STA
//! pass walks the levels, and `Levelization::update` must reproduce them
//! after every edit, so the level lists themselves are part of the
//! engine's contract: the depth and the gate ids of each level, ascending
//! within a level.  Each distinct circuit of the standard corpus (entries
//! that share a circuit, such as the probe variants, count once) pins its
//! depth and an FNV-1a digest of its level lists.

use halotis::corpus::standard_corpus;
use halotis::netlist::levelize::{self, Levelization};
use halotis::netlist::writer;

/// `(circuit name, depth, digest of the level lists)` per distinct corpus
/// circuit, in corpus order.
const PINNED: &[(&str, usize, u64)] = &[
    ("mult4x4", 17, 14_306_957_500_834_087_447),
    ("mult5x3", 15, 17_347_185_482_315_932_529),
    ("rca8", 17, 6_624_090_294_022_122_597),
    ("rca12", 25, 3_255_487_328_264_523_085),
    ("cska8b2", 21, 7_280_960_542_448_407_651),
    ("cska12b4", 28, 17_887_794_013_834_543_633),
    ("parity6", 3, 7_354_363_644_291_548_242),
    ("parity8", 3, 15_913_614_288_620_010_293),
    ("parity16", 4, 16_810_530_028_347_524_485),
    ("c17", 3, 7_085_185_429_920_833_238),
    ("random_16x300_12648430", 16, 3_542_931_212_238_541_511),
    ("random_24x600_912559", 22, 17_877_435_901_864_186_441),
    ("random_12x150_32343", 13, 680_473_406_253_289_838),
    ("ks8", 8, 17_560_136_657_059_403_109),
    ("ks16", 10, 17_846_215_509_111_400_835),
    ("wallace4x4", 16, 3_431_100_812_474_730_204),
    ("wallace6x6", 22, 17_052_786_072_197_827_614),
    ("c432", 25, 1_747_260_507_757_237_002),
    ("c880", 35, 11_094_460_782_096_252_303),
    ("s27", 6, 4_262_847_163_173_865_374),
];

/// An FNV-1a digest over each level's length followed by its gate ids, all
/// as little-endian `u32`s.
fn level_digest(levels: &Levelization) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for level in levels.levels() {
        let words = std::iter::once(level.len()).chain(level.iter().map(|gate| gate.index()));
        for word in words {
            let word = u32::try_from(word).expect("corpus ids fit u32");
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn corpus_levelizations_are_pinned() {
    let mut seen: Vec<String> = Vec::new();
    let mut actual = Vec::new();
    for entry in standard_corpus() {
        let text = writer::to_text(&entry.netlist);
        if seen.contains(&text) {
            continue;
        }
        seen.push(text);
        let levels = levelize::levelize(&entry.netlist).expect("corpus circuits levelize");
        for (depth, level) in levels.levels().iter().enumerate() {
            assert!(!level.is_empty(), "{}: level {depth} is empty", entry.name);
            assert!(
                level.windows(2).all(|pair| pair[0] < pair[1]),
                "{}: level {depth} is not ascending by gate id",
                entry.name
            );
            for &gate in level {
                assert_eq!(levels.level_of(gate), depth, "{}", entry.name);
            }
        }
        actual.push((
            entry.netlist.name().to_string(),
            levels.depth(),
            level_digest(&levels),
        ));
    }
    let pinned: Vec<(String, usize, u64)> = PINNED
        .iter()
        .map(|&(name, depth, digest)| (name.to_string(), depth, digest))
        .collect();
    assert_eq!(actual, pinned);
}
