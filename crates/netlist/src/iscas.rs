//! ISCAS-85 benchmark circuits, committed as netlist files.
//!
//! The corpus needs circuits that arrive through the *text format* rather
//! than a generator — that is how real benchmark suites enter a simulator —
//! so this module pairs committed netlist files under `circuits/` with
//! loader functions that run them through [`parser::parse`].
//!
//! The original ISCAS-85 gate-level distributions are not vendored in this
//! repository, so `c432.net` and `c880.net` are **functional
//! reconstructions** built from the benchmarks' published high-level
//! descriptions (Hansen, Yalcin & Hayes, "Unveiling the ISCAS-85
//! benchmarks", IEEE Design & Test 1999): c432 as a 27-channel interrupt
//! controller, c880 as an 8-bit ALU.  The primary-input/-output profiles
//! match the originals exactly (c432: 36 in / 7 out; c880: 60 in / 26 out);
//! gate counts are of the same order but not gate-for-gate identical.  The
//! committed files are the circuits' only source; this module's tests
//! check each against an executable model of its spec.
//!
//! (The tiny c17 — six NAND gates — is genuinely the original netlist and
//! lives in [`generators::c17`](crate::generators::c17).)
//!
//! The module also carries the first ISCAS-**89** sequential benchmark:
//! `s27.net` is the original published netlist gate for gate (three DFFs
//! and ten combinational gates), with the implicit clock made explicit as
//! the **first** primary input `clk` — the convention every clocked corpus
//! suite follows.  Its cycle-accurate reference model lives with the
//! differential test that evolves it alongside the timing simulation
//! (`tests/sequential_soak.rs`).

use crate::netlist::Netlist;
use crate::parser;

/// The committed c432 netlist text.
pub const C432_TEXT: &str = include_str!("../circuits/c432.net");

/// The committed c880 netlist text.
pub const C880_TEXT: &str = include_str!("../circuits/c880.net");

/// Loads the committed c432 benchmark through the netlist parser.
///
/// # Example
///
/// ```
/// let c432 = halotis_netlist::iscas::c432();
/// assert_eq!(c432.primary_inputs().len(), 36);
/// assert_eq!(c432.primary_outputs().len(), 7);
/// ```
pub fn c432() -> Netlist {
    parser::parse(C432_TEXT).expect("committed c432.net parses")
}

/// Loads the committed c880 benchmark through the netlist parser.
///
/// # Example
///
/// ```
/// let c880 = halotis_netlist::iscas::c880();
/// assert_eq!(c880.primary_inputs().len(), 60);
/// assert_eq!(c880.primary_outputs().len(), 26);
/// ```
pub fn c880() -> Netlist {
    parser::parse(C880_TEXT).expect("committed c880.net parses")
}

/// The committed s27 netlist text.
pub const S27_TEXT: &str = include_str!("../circuits/s27.net");

/// Loads the committed ISCAS-89 s27 benchmark through the netlist parser.
///
/// Registers `g5`/`g6`/`g7` capture `g10`/`g11`/`g13` on the rising edge
/// of `clk`; the single output `g17` is the complement of `g11`.
///
/// # Example
///
/// ```
/// let s27 = halotis_netlist::iscas::s27();
/// assert_eq!(s27.primary_inputs().len(), 5); // clk + g0..g3
/// assert_eq!(s27.primary_outputs().len(), 1);
/// ```
pub fn s27() -> Netlist {
    parser::parse(S27_TEXT).expect("committed s27.net parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::levelize;
    use halotis_core::{LogicLevel, NetId};

    use crate::generators::random::SplitMix64;

    fn bus_ids(netlist: &Netlist, prefix: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| {
                netlist
                    .net_id(&format!("{prefix}{i}"))
                    .unwrap_or_else(|| panic!("net {prefix}{i} exists"))
            })
            .collect()
    }

    /// The c432 reference: a 27-channel interrupt controller, the spec
    /// `circuits/c432.net` implements.
    ///
    /// The 27 request lines arrive as three 9-bit buses `a`, `b`, `c` (bus `a`
    /// has the highest priority, `c` the lowest) gated by a 9-bit enable bus
    /// `e`.  Outputs:
    ///
    /// * `pa` — some enabled channel on bus `a` requests,
    /// * `pb` — no `a` request, but some enabled `b` channel requests,
    /// * `pc` — no `a`/`b` request, but some enabled `c` channel requests,
    /// * `chan3..chan0` — the 4-bit index (1-based, 0 = idle) of the
    ///   highest-priority requesting channel within the winning bus.
    fn c432_reference(a: u16, b: u16, c: u16, e: u16) -> (bool, bool, bool, u8) {
        let reqa = a & e;
        let reqb = b & e;
        let reqc = c & e;
        let pa = reqa != 0;
        let visb = if pa { 0 } else { reqb };
        let pb = visb != 0;
        let visc = if pa || pb { 0 } else { reqc };
        let pc = visc != 0;
        let sel = reqa | visb | visc;
        let chan = if sel == 0 {
            0
        } else {
            sel.trailing_zeros() as u8 + 1
        };
        (pa, pb, pc, chan)
    }

    #[test]
    fn c432_matches_the_priority_reference() {
        let netlist = c432();
        let a = bus_ids(&netlist, "a", 9);
        let b = bus_ids(&netlist, "b", 9);
        let c = bus_ids(&netlist, "c", 9);
        let e = bus_ids(&netlist, "e", 9);
        let outputs: Vec<NetId> = ["pa", "pb", "pc", "chan0", "chan1", "chan2", "chan3"]
            .iter()
            .map(|n| netlist.net_id(n).unwrap())
            .collect();
        let mut rng = SplitMix64::new(0xC432);
        let mut cases: Vec<(u16, u16, u16, u16)> = (0..200)
            .map(|_| {
                let raw = rng.next_u64();
                (
                    (raw & 0x1FF) as u16,
                    ((raw >> 9) & 0x1FF) as u16,
                    ((raw >> 18) & 0x1FF) as u16,
                    ((raw >> 27) & 0x1FF) as u16,
                )
            })
            .collect();
        cases.extend([
            (0, 0, 0, 0),
            (0x1FF, 0x1FF, 0x1FF, 0x1FF),
            (0, 0x1FF, 0, 0x1FF),
            (0, 0, 0x101, 0x1FF),
            (4, 2, 1, 0x1FF),
            (0x1FF, 0, 0, 0),
        ]);
        for (av, bv, cv, ev) in cases {
            let mut assignment = eval::bus_assignment(&a, av as u64);
            assignment.extend(eval::bus_assignment(&b, bv as u64));
            assignment.extend(eval::bus_assignment(&c, cv as u64));
            assignment.extend(eval::bus_assignment(&e, ev as u64));
            let got = eval::evaluate_bus(&netlist, &assignment, &outputs).unwrap();
            let (pa, pb, pc, chan) = c432_reference(av, bv, cv, ev);
            let expected =
                u64::from(pa) | (u64::from(pb) << 1) | (u64::from(pc) << 2) | ((chan as u64) << 3);
            assert_eq!(got, expected, "a={av:#x} b={bv:#x} c={cv:#x} e={ev:#x}");
        }
    }

    /// The c880 reference: an 8-bit ALU, the spec `circuits/c880.net`
    /// implements.
    ///
    /// Buses (all LSB-first): operands `a`, `b` (via enable mask `e` and
    /// conditional invert `minv`), second datapath operands `c`, `d`, constant
    /// bus `k`, function-select bus `s`, plus `cin`, `mpass` and `tsel`.
    ///
    /// * main adder: `am = a · e`, `bx = b ^ minv`; `sum = am + bx + cin`
    ///   through a generate/propagate carry chain with a (redundant) AND4
    ///   group-propagate skip on the carry-out,
    /// * `y` bus: `s1 s0` select sum / AND / OR / XOR of `am`,`bx`; `s4`/`s5`
    ///   rotate the result left by 1 and 2,
    /// * `t` bus: `tsel` selects `c + d + cin` or `c - d`; `s2` inverts,
    /// * `u` bus: `y` when `mpass` or `y == tmux`, else the constant bus `k`;
    ///   `s3` inverts,
    /// * flags: `cout` (adder carry, `s6` inverts) and `zero`
    ///   (`y`, `t`, `u` all zero, `s7` inverts).
    #[allow(clippy::too_many_arguments)]
    fn c880_reference(
        a: u64,
        b: u64,
        c: u64,
        d: u64,
        k: u64,
        e: u64,
        s: u64,
        cin: u64,
        minv: u64,
        mpass: u64,
        tsel: u64,
    ) -> (u64, u64, u64, u64, u64) {
        let sbit = |i: usize| (s >> i) & 1 == 1;
        let am = a & e;
        let bx = if minv == 1 { !b & 0xFF } else { b };
        let wide = am + bx + cin;
        let sum = wide & 0xFF;
        let carry = (wide >> 8) & 1;
        let ymux = match (sbit(1), sbit(0)) {
            (false, false) => sum,
            (false, true) => am & bx,
            (true, false) => am | bx,
            (true, true) => am ^ bx,
        };
        let rol = |v: u64, by: u32| ((v << by) | (v >> (8 - by))) & 0xFF;
        let yr = if sbit(4) { rol(ymux, 1) } else { ymux };
        let y = if sbit(5) { rol(yr, 2) } else { yr };
        let tmux = if tsel == 1 {
            (c + (!d & 0xFF) + 1) & 0xFF
        } else {
            (c + d + cin) & 0xFF
        };
        let tout = tmux ^ if sbit(2) { 0xFF } else { 0 };
        let selu = mpass == 1 || y == tmux;
        let u = (if selu { y } else { k }) ^ if sbit(3) { 0xFF } else { 0 };
        let zero = u64::from(y == 0 && tout == 0 && u == 0) ^ u64::from(sbit(7));
        let cout = carry ^ u64::from(sbit(6));
        (y, tout, u, cout, zero)
    }

    #[test]
    fn c880_matches_the_alu_reference() {
        let netlist = c880();
        let a = bus_ids(&netlist, "a", 8);
        let b = bus_ids(&netlist, "b", 8);
        let c = bus_ids(&netlist, "c", 8);
        let d = bus_ids(&netlist, "d", 8);
        let k = bus_ids(&netlist, "k", 8);
        let e = bus_ids(&netlist, "e", 8);
        let s = bus_ids(&netlist, "s", 8);
        let scalars: Vec<NetId> = ["cin", "minv", "mpass", "tsel"]
            .iter()
            .map(|n| netlist.net_id(n).unwrap())
            .collect();
        let y = bus_ids(&netlist, "y", 8);
        let t = bus_ids(&netlist, "t", 8);
        let u = bus_ids(&netlist, "u", 8);
        let cout = netlist.net_id("cout").unwrap();
        let zero = netlist.net_id("zero").unwrap();

        let mut rng = SplitMix64::new(0xC880);
        let mut cases: Vec<[u64; 11]> = (0..300)
            .map(|_| {
                let r0 = rng.next_u64();
                let r1 = rng.next_u64();
                [
                    r0 & 0xFF,
                    (r0 >> 8) & 0xFF,
                    (r0 >> 16) & 0xFF,
                    (r0 >> 24) & 0xFF,
                    (r0 >> 32) & 0xFF,
                    (r0 >> 40) & 0xFF,
                    (r0 >> 48) & 0xFF,
                    r1 & 1,
                    (r1 >> 1) & 1,
                    (r1 >> 2) & 1,
                    (r1 >> 3) & 1,
                ]
            })
            .collect();
        cases.extend([
            [0; 11],
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 1, 1, 1],
            [0x0F, 0xF0, 0x55, 0xAA, 0x00, 0xFF, 0x00, 1, 0, 0, 1],
            [0x80, 0x80, 0x01, 0x01, 0x00, 0xFF, 0b00110011, 0, 1, 1, 0],
        ]);
        for case in cases {
            let [av, bv, cv, dv, kv, ev, sv, cinv, minvv, mpassv, tselv] = case;
            let mut assignment = eval::bus_assignment(&a, av);
            assignment.extend(eval::bus_assignment(&b, bv));
            assignment.extend(eval::bus_assignment(&c, cv));
            assignment.extend(eval::bus_assignment(&d, dv));
            assignment.extend(eval::bus_assignment(&k, kv));
            assignment.extend(eval::bus_assignment(&e, ev));
            assignment.extend(eval::bus_assignment(&s, sv));
            assignment.push((scalars[0], LogicLevel::from_bool(cinv == 1)));
            assignment.push((scalars[1], LogicLevel::from_bool(minvv == 1)));
            assignment.push((scalars[2], LogicLevel::from_bool(mpassv == 1)));
            assignment.push((scalars[3], LogicLevel::from_bool(tselv == 1)));
            let (ey, et, eu, ecout, ezero) =
                c880_reference(av, bv, cv, dv, kv, ev, sv, cinv, minvv, mpassv, tselv);
            let gy = eval::evaluate_bus(&netlist, &assignment, &y).unwrap();
            let gt = eval::evaluate_bus(&netlist, &assignment, &t).unwrap();
            let gu = eval::evaluate_bus(&netlist, &assignment, &u).unwrap();
            let gflags = eval::evaluate_bus(&netlist, &assignment, &[cout, zero]).unwrap();
            assert_eq!(gy, ey, "y: {case:?}");
            assert_eq!(gt, et, "t: {case:?}");
            assert_eq!(gu, eu, "u: {case:?}");
            assert_eq!(gflags, ecout | (ezero << 1), "flags: {case:?}");
        }
    }

    #[test]
    fn s27_has_the_original_structure() {
        let s27 = s27();
        assert_eq!(s27.primary_inputs().len(), 5);
        assert_eq!(s27.primary_outputs().len(), 1);
        assert_eq!(s27.gate_count(), 13);
        let registers = s27
            .gates()
            .iter()
            .filter(|gate| gate.kind().is_sequential())
            .count();
        assert_eq!(registers, 3, "s27 has exactly three DFFs");
        // Register feedback levelizes: the combinational cone behind the
        // registers is shallow but non-trivial.
        let levels = levelize::levelize(&s27).unwrap();
        assert!(levels.depth() >= 4, "depth {}", levels.depth());
    }

    #[test]
    fn io_profiles_match_the_original_benchmarks() {
        let c432 = c432();
        assert_eq!(c432.primary_inputs().len(), 36);
        assert_eq!(c432.primary_outputs().len(), 7);
        let c880 = c880();
        assert_eq!(c880.primary_inputs().len(), 60);
        assert_eq!(c880.primary_outputs().len(), 26);
        // Both are deep multi-level circuits, not trivial stand-ins.
        assert!(levelize::levelize(&c432).unwrap().depth() >= 10);
        assert!(levelize::levelize(&c880).unwrap().depth() >= 20);
        assert!(c432.gate_count() >= 120);
        assert!(c880.gate_count() >= 300);
    }
}
