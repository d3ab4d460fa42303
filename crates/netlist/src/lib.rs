//! Gate-level netlist substrate for the HALOTIS timing simulator.
//!
//! The paper evaluates HALOTIS on a 4×4 array multiplier designed in a
//! 0.6 µm CMOS technology.  This crate provides everything needed to
//! describe such circuits:
//!
//! * [`CellKind`] — the combinational cell family and its boolean behaviour,
//! * [`Library`] — per-cell, per-pin electrical/timing characterisation
//!   (input capacitance, input threshold voltage, nominal-delay and
//!   degradation coefficients), with a synthetic 0.6 µm-flavoured default in
//!   [`technology`],
//! * [`Netlist`] and [`NetlistBuilder`] — the circuit graph (gates, nets,
//!   primary inputs/outputs) with validation and levelization,
//! * two interchange formats — the in-house `.net` text form ([`parser`] /
//!   [`writer`]) and a structural-Verilog subset ([`verilog`]) — both
//!   round-trip **identities** (see `FORMATS.md` at the repository root),
//! * [`levelize`] — the topological levelization the compiled simulator
//!   keeps current across edits, and its static-timing pass walks,
//! * [`edit`] — an ECO-style mutation session whose edit log names the
//!   stale gates and nets, so compiled tables can be patched incrementally,
//! * [`generators`] — the circuits used by the paper's experiments
//!   (inverter chains, the Fig. 1 threshold circuit, ripple-carry adders,
//!   the Fig. 5 array multiplier) plus random logic for scaling studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod edit;
pub mod eval;
pub mod generators;
pub mod iscas;
pub mod levelize;
pub mod library;
pub mod netlist;
pub mod parser;
pub mod technology;
pub mod verilog;
pub mod writer;

pub use cell::CellKind;
pub use edit::{EditLog, EditOp, EditSession};
pub use library::{CellTiming, Library, PinSpec};
pub use netlist::{
    is_primary_input_net, Gate, Net, NetDriver, Netlist, NetlistBuilder, NetlistError,
};
