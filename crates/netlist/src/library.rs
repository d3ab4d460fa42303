//! Cell-library characterisation.
//!
//! A [`Library`] holds, for every [`CellKind`], one [`PinSpec`] per input
//! pin: the pin's input capacitance, its input threshold voltage `VT`
//! (expressed as a fraction of the supply) and its [`PinTiming`] — the
//! nominal-delay, output-slew and degradation coefficients of the timing
//! arcs through that pin.
//!
//! The per-pin threshold is the heart of the paper's inertial treatment: a
//! single transition on a net produces a *different event time for every
//! fanout input*, because each input observes the ramp at its own `VT`
//! (paper Fig. 3).

use std::fmt;

use halotis_core::{Capacitance, TimeDelta, Voltage};
use halotis_delay::PinTiming;

use crate::cell::CellKind;

/// Characterisation of one input pin of a cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PinSpec {
    /// Timing arcs (rise/fall output edges) through this pin.
    pub timing: PinTiming,
    /// Capacitance this pin presents to the net driving it.
    pub input_capacitance: Capacitance,
    /// Input threshold voltage as a fraction of the supply (`0.5` = `Vdd/2`).
    pub threshold_fraction: f64,
}

impl PinSpec {
    /// The absolute threshold voltage of this pin under the given supply.
    pub fn threshold_voltage(&self, vdd: Voltage) -> Voltage {
        vdd.fraction(self.threshold_fraction)
    }
}

/// Characterisation of one cell: one [`PinSpec`] per input pin.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTiming {
    pins: Vec<PinSpec>,
}

impl CellTiming {
    /// Builds a cell characterisation from explicit per-pin specs.
    pub fn new(pins: Vec<PinSpec>) -> Self {
        CellTiming { pins }
    }

    /// Builds a cell characterisation that uses the same spec on `count` pins.
    pub fn uniform(count: usize, spec: PinSpec) -> Self {
        CellTiming {
            pins: vec![spec; count],
        }
    }

    /// The spec of input pin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for this cell.
    pub fn pin(&self, index: usize) -> &PinSpec {
        &self.pins[index]
    }

    /// Number of characterised input pins.
    pub fn pin_count(&self) -> usize {
        self.pins.len()
    }

    /// Iterates the pin specs in pin order.
    pub fn pins(&self) -> impl Iterator<Item = &PinSpec> {
        self.pins.iter()
    }
}

/// Error returned when a cell or pin is missing from a library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// The library has no entry for the requested cell kind.
    MissingCell {
        /// The cell kind that was looked up.
        kind: CellKind,
    },
    /// The cell exists but the requested pin index is out of range.
    MissingPin {
        /// The cell kind that was looked up.
        kind: CellKind,
        /// The requested pin index.
        pin: usize,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::MissingCell { kind } => write!(f, "library has no cell {kind}"),
            LibraryError::MissingPin { kind, pin } => {
                write!(f, "cell {kind} has no input pin {pin}")
            }
        }
    }
}

impl std::error::Error for LibraryError {}

/// A characterised cell library plus its operating conditions.
///
/// The cells sit in a dense table with one slot per [`CellKind`], indexed
/// by the kind's discriminant (the tag [`CellKind::class`] stamps), so a
/// lookup is an array read.
///
/// # Example
///
/// ```
/// use halotis_netlist::{technology, CellKind};
///
/// let lib = technology::cmos06();
/// assert!(lib.contains(CellKind::Nand2));
/// let vt = lib.pin(CellKind::Nand2, 0).unwrap().threshold_voltage(lib.vdd());
/// assert!(vt > halotis_core::Voltage::ZERO);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Library {
    name: String,
    vdd: Voltage,
    default_input_slew: TimeDelta,
    wire_capacitance: Capacitance,
    cells: [Option<CellTiming>; CellKind::ALL.len()],
}

impl Library {
    /// Creates an empty library operating at `vdd`.
    pub fn new(name: impl Into<String>, vdd: Voltage) -> Self {
        Library {
            name: name.into(),
            vdd,
            default_input_slew: TimeDelta::from_ps(200.0),
            wire_capacitance: Capacitance::ZERO,
            cells: [const { None }; CellKind::ALL.len()],
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The supply voltage the characterisation was made at.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// The input transition time assumed for primary-input edges when the
    /// stimulus does not specify one.
    pub fn default_input_slew(&self) -> TimeDelta {
        self.default_input_slew
    }

    /// Sets the default primary-input transition time.
    pub fn set_default_input_slew(&mut self, slew: TimeDelta) {
        self.default_input_slew = slew.max(TimeDelta::from_fs(1));
    }

    /// Per-net parasitic wire capacitance added to every gate's load.
    pub fn wire_capacitance(&self) -> Capacitance {
        self.wire_capacitance
    }

    /// Sets the per-net parasitic wire capacitance.
    pub fn set_wire_capacitance(&mut self, capacitance: Capacitance) {
        self.wire_capacitance = capacitance;
    }

    /// Adds (or replaces) the characterisation of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the number of pin specs does not match the cell's input
    /// count — a characterisation bug that should never reach simulation.
    pub fn insert(&mut self, kind: CellKind, timing: CellTiming) {
        assert_eq!(
            timing.pin_count(),
            kind.input_count(),
            "cell {kind} needs {} pin specs, got {}",
            kind.input_count(),
            timing.pin_count()
        );
        self.cells[kind as usize] = Some(timing);
    }

    /// `true` when the library characterises `kind`.
    pub fn contains(&self, kind: CellKind) -> bool {
        self.cells[kind as usize].is_some()
    }

    /// The characterisation of `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::MissingCell`] when the cell is not present.
    pub fn cell(&self, kind: CellKind) -> Result<&CellTiming, LibraryError> {
        self.cells[kind as usize]
            .as_ref()
            .ok_or(LibraryError::MissingCell { kind })
    }

    /// The spec of pin `pin` of cell `kind`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError`] when the cell or the pin is missing.
    pub fn pin(&self, kind: CellKind, pin: usize) -> Result<&PinSpec, LibraryError> {
        let cell = self.cell(kind)?;
        if pin >= cell.pin_count() {
            return Err(LibraryError::MissingPin { kind, pin });
        }
        Ok(cell.pin(pin))
    }

    /// Cell kinds characterised by this library, in [`CellKind::ALL`] order.
    pub fn kinds(&self) -> impl Iterator<Item = CellKind> + '_ {
        CellKind::ALL
            .into_iter()
            .filter(|&kind| self.contains(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_delay::EdgeTiming;

    fn spec(threshold: f64) -> PinSpec {
        PinSpec {
            timing: PinTiming::symmetric(EdgeTiming::example()),
            input_capacitance: Capacitance::from_femtofarads(10.0),
            threshold_fraction: threshold,
        }
    }

    #[test]
    fn pin_spec_threshold_voltage() {
        let s = spec(0.4);
        assert_eq!(
            s.threshold_voltage(Voltage::from_volts(5.0)),
            Voltage::from_volts(2.0)
        );
    }

    #[test]
    fn cell_timing_uniform_and_explicit() {
        let uniform = CellTiming::uniform(3, spec(0.5));
        assert_eq!(uniform.pin_count(), 3);
        assert_eq!(uniform.pin(2).threshold_fraction, 0.5);
        let explicit = CellTiming::new(vec![spec(0.4), spec(0.6)]);
        assert_eq!(explicit.pin_count(), 2);
        assert_eq!(explicit.pins().count(), 2);
        assert_eq!(explicit.pin(1).threshold_fraction, 0.6);
    }

    #[test]
    fn library_insert_and_lookup() {
        let mut lib = Library::new("test", Voltage::from_volts(5.0));
        assert_eq!(lib.name(), "test");
        lib.insert(CellKind::Inv, CellTiming::uniform(1, spec(0.5)));
        assert!(lib.contains(CellKind::Inv));
        assert!(!lib.contains(CellKind::Nand2));
        assert!(lib.cell(CellKind::Inv).is_ok());
        assert_eq!(
            lib.cell(CellKind::Nand2).unwrap_err(),
            LibraryError::MissingCell {
                kind: CellKind::Nand2
            }
        );
        assert!(lib.pin(CellKind::Inv, 0).is_ok());
        assert_eq!(
            lib.pin(CellKind::Inv, 3).unwrap_err(),
            LibraryError::MissingPin {
                kind: CellKind::Inv,
                pin: 3
            }
        );
        assert_eq!(lib.kinds().count(), 1);
    }

    #[test]
    fn kinds_follow_the_dense_table_order() {
        // The table's slot of a kind is its discriminant, which must be its
        // position in `CellKind::ALL`.
        for kind in CellKind::ALL {
            assert_eq!(CellKind::ALL[kind as usize], kind);
        }
        let kinds: Vec<CellKind> = crate::technology::cmos06().kinds().collect();
        assert_eq!(kinds, CellKind::ALL);
        let mut lib = Library::new("test", Voltage::from_volts(5.0));
        lib.insert(CellKind::Xor2, CellTiming::uniform(2, spec(0.5)));
        lib.insert(CellKind::Inv, CellTiming::uniform(1, spec(0.5)));
        let kinds: Vec<CellKind> = lib.kinds().collect();
        assert_eq!(kinds, [CellKind::Inv, CellKind::Xor2]);
    }

    #[test]
    #[should_panic(expected = "needs 2 pin specs")]
    fn wrong_pin_count_panics() {
        let mut lib = Library::new("test", Voltage::from_volts(5.0));
        lib.insert(CellKind::Nand2, CellTiming::uniform(1, spec(0.5)));
    }

    #[test]
    fn defaults_are_sane_and_settable() {
        let mut lib = Library::new("test", Voltage::from_volts(3.3));
        assert!(lib.default_input_slew() > TimeDelta::ZERO);
        lib.set_default_input_slew(TimeDelta::from_ps(500.0));
        assert_eq!(lib.default_input_slew(), TimeDelta::from_ps(500.0));
        lib.set_wire_capacitance(Capacitance::from_femtofarads(3.0));
        assert_eq!(lib.wire_capacitance(), Capacitance::from_femtofarads(3.0));
        assert_eq!(lib.vdd(), Voltage::from_volts(3.3));
        let errors = format!(
            "{} / {}",
            LibraryError::MissingCell {
                kind: CellKind::Xor2
            },
            LibraryError::MissingPin {
                kind: CellKind::Xor2,
                pin: 5
            }
        );
        assert!(errors.contains("no cell xor2") && errors.contains("no input pin 5"));
    }
}
