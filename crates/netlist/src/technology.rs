//! Synthetic technology decks.
//!
//! The paper characterises its cells in a proprietary 0.6 µm CMOS process at
//! `Vdd = 5 V`; those coefficients are not published.  [`cmos06`] builds a
//! *synthetic* deck with the same qualitative properties, which is what the
//! paper's conclusions actually depend on:
//!
//! * gate delays of a few hundred picoseconds, inverting cells faster than
//!   their non-inverting counterparts, delay growing with fan-in,
//! * input thresholds spread around `Vdd/2` and *different from pin to pin*
//!   (so one transition generates distinct event times per fanout input),
//! * degradation time constants `tau` on the order of the gate delay and a
//!   dead-band `T0` proportional to the input slew (paper eq. 2–3).
//!
//! The exact numbers are documented constants so experiments are
//! reproducible.

use halotis_core::{Capacitance, TimeDelta, Voltage};
use halotis_delay::{DegradationCoeffs, EdgeTiming, PinTiming, PropagationCoeffs, SlewCoeffs};

use crate::cell::CellKind;
use crate::library::{CellTiming, Library, PinSpec};

/// Supply voltage of the synthetic 0.6 µm deck.
pub const CMOS06_VDD_VOLTS: f64 = 5.0;
/// Default primary-input transition time.
pub const CMOS06_INPUT_SLEW_PS: f64 = 200.0;
/// Parasitic wire capacitance added to every net.
pub const CMOS06_WIRE_CAP_FF: f64 = 5.0;

/// Per-kind base intrinsic delay in picoseconds (falling-output arc; rising
/// arcs are slightly slower, as in a real CMOS cell where the PMOS pull-up
/// is weaker).
fn base_delay_ps(kind: CellKind) -> f64 {
    match kind {
        CellKind::Inv => 110.0,
        CellKind::Buf => 210.0,
        CellKind::Nand2 => 140.0,
        CellKind::Nor2 => 160.0,
        CellKind::And2 => 230.0,
        CellKind::Or2 => 250.0,
        CellKind::Xor2 => 310.0,
        CellKind::Xnor2 => 320.0,
        CellKind::Nand3 => 180.0,
        CellKind::Nor3 => 210.0,
        CellKind::And3 => 270.0,
        CellKind::Or3 => 290.0,
        CellKind::Nand4 => 220.0,
        CellKind::Nor4 => 260.0,
        CellKind::And4 => 310.0,
        CellKind::Or4 => 330.0,
        // Registers: clock-to-Q is a full master/slave stage, slower than
        // any simple gate; the transparent latch is one stage lighter.
        CellKind::Dff => 380.0,
        CellKind::DffRn => 410.0,
        CellKind::LatchD => 290.0,
    }
}

/// Per-kind effective drive resistance in ohms (delay per farad of load).
fn drive_resistance_ohms(kind: CellKind) -> f64 {
    match kind {
        CellKind::Inv | CellKind::Buf => 2.4e3,
        CellKind::Nand2 | CellKind::Nor2 => 3.0e3,
        CellKind::And2 | CellKind::Or2 => 3.2e3,
        CellKind::Xor2 | CellKind::Xnor2 => 3.8e3,
        CellKind::Nand3 | CellKind::Nor3 => 3.6e3,
        CellKind::And3 | CellKind::Or3 => 3.8e3,
        CellKind::Nand4 | CellKind::Nor4 => 4.2e3,
        CellKind::And4 | CellKind::Or4 => 4.4e3,
        CellKind::Dff | CellKind::DffRn => 3.4e3,
        CellKind::LatchD => 3.2e3,
    }
}

/// Per-kind input-pin capacitance in femtofarads.
fn input_cap_ff(kind: CellKind) -> f64 {
    match kind {
        CellKind::Inv | CellKind::Buf => 8.0,
        CellKind::Nand2 | CellKind::Nor2 => 10.0,
        CellKind::And2 | CellKind::Or2 => 11.0,
        CellKind::Xor2 | CellKind::Xnor2 => 14.0,
        CellKind::Nand3 | CellKind::Nor3 => 12.0,
        CellKind::And3 | CellKind::Or3 => 13.0,
        CellKind::Nand4 | CellKind::Nor4 => 14.0,
        CellKind::And4 | CellKind::Or4 => 15.0,
        CellKind::Dff | CellKind::DffRn => 12.0,
        CellKind::LatchD => 10.0,
    }
}

/// Per-pin input threshold fraction.  Later pins (physically further from
/// the output node in the CMOS stack) switch at slightly higher thresholds,
/// and inverting cells sit a little below `Vdd/2`: this gives the per-input
/// spread the IDDM exploits while staying centred on the conventional value.
fn threshold_fraction(kind: CellKind, pin: usize) -> f64 {
    let base = if kind.is_inverting() { 0.47 } else { 0.50 };
    base + 0.04 * pin as f64
}

/// Builds one timing arc of the synthetic deck.
fn arc(kind: CellKind, pin: usize, rising_output: bool) -> EdgeTiming {
    let slower_pull_up = if rising_output { 1.15 } else { 1.0 };
    let pin_penalty = 1.0 + 0.06 * pin as f64;
    let base = base_delay_ps(kind) * slower_pull_up * pin_penalty;
    let resistance = drive_resistance_ohms(kind) * slower_pull_up;
    EdgeTiming {
        propagation: PropagationCoeffs {
            t_intrinsic: TimeDelta::from_ps(base),
            r_load_ohms: resistance,
            s_slew: 0.18,
        },
        output_slew: SlewCoeffs {
            base: TimeDelta::from_ps(base * 1.1),
            load_factor_ohms: resistance * 1.3,
        },
        degradation: DegradationCoeffs {
            // tau ~ 1.2x the intrinsic delay at zero load (eq. 2), growing
            // with load at the same rate as the delay does.
            a_volt_seconds: base * 1.2e-12 * CMOS06_VDD_VOLTS,
            b_volt_per_farad_seconds: resistance * 1.2 * CMOS06_VDD_VOLTS,
            // T0 ~ 0.25 * tau_in (eq. 3 with C = Vdd/4).
            c_volts: CMOS06_VDD_VOLTS / 4.0,
        },
    }
}

/// Builds the full synthetic 0.6 µm-flavoured library.
///
/// # Example
///
/// ```
/// use halotis_netlist::{technology, CellKind};
/// let lib = technology::cmos06();
/// assert_eq!(lib.vdd().as_volts(), 5.0);
/// assert!(lib.contains(CellKind::Xor2));
/// ```
pub fn cmos06() -> Library {
    let mut library = Library::new("cmos06-synthetic", Voltage::from_volts(CMOS06_VDD_VOLTS));
    library.set_default_input_slew(TimeDelta::from_ps(CMOS06_INPUT_SLEW_PS));
    library.set_wire_capacitance(Capacitance::from_femtofarads(CMOS06_WIRE_CAP_FF));
    for kind in CellKind::ALL {
        let pins = (0..kind.input_count())
            .map(|pin| PinSpec {
                timing: PinTiming {
                    rise: arc(kind, pin, true),
                    fall: arc(kind, pin, false),
                },
                input_capacitance: Capacitance::from_femtofarads(input_cap_ff(kind)),
                threshold_fraction: threshold_fraction(kind, pin),
            })
            .collect();
        library.insert(kind, CellTiming::new(pins));
    }
    library
}

/// A degradation-free copy of [`cmos06`]: same nominal delays and slews, but
/// with `tau == 0`, giving the abrupt classical behaviour.  Used by ablation
/// benches; note that the usual way to disable degradation is selecting the
/// conventional delay model at simulation time.
pub fn cmos06_without_degradation() -> Library {
    let mut library = cmos06();
    let kinds: Vec<CellKind> = library.kinds().collect();
    for kind in kinds {
        let cell = library.cell(kind).expect("kind just listed").clone();
        let pins = cell
            .pins()
            .map(|spec| {
                let mut spec = *spec;
                spec.timing.rise.degradation = DegradationCoeffs::disabled();
                spec.timing.fall.degradation = DegradationCoeffs::disabled();
                spec
            })
            .collect();
        library.insert(kind, CellTiming::new(pins));
    }
    library
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_characterises_every_cell_kind() {
        let lib = cmos06();
        for kind in CellKind::ALL {
            let cell = lib.cell(kind).unwrap();
            assert_eq!(cell.pin_count(), kind.input_count());
        }
        assert_eq!(lib.name(), "cmos06-synthetic");
    }

    #[test]
    fn inverting_cells_are_faster_than_their_complements() {
        let lib = cmos06();
        let nand = lib.pin(CellKind::Nand2, 0).unwrap();
        let and = lib.pin(CellKind::And2, 0).unwrap();
        assert!(nand.timing.fall.propagation.t_intrinsic < and.timing.fall.propagation.t_intrinsic);
    }

    #[test]
    fn thresholds_differ_between_pins() {
        let lib = cmos06();
        let pin0 = lib.pin(CellKind::Nand2, 0).unwrap().threshold_fraction;
        let pin1 = lib.pin(CellKind::Nand2, 1).unwrap().threshold_fraction;
        assert!(pin1 > pin0);
        // All thresholds remain inside the supply range.
        for kind in CellKind::ALL {
            for pin in 0..kind.input_count() {
                let f = lib.pin(kind, pin).unwrap().threshold_fraction;
                assert!((0.2..0.8).contains(&f), "{kind} pin {pin}: {f}");
            }
        }
    }

    #[test]
    fn rising_arcs_are_slower_than_falling_arcs() {
        let lib = cmos06();
        let pin = lib.pin(CellKind::Inv, 0).unwrap();
        assert!(pin.timing.rise.propagation.t_intrinsic > pin.timing.fall.propagation.t_intrinsic);
    }

    #[test]
    fn degradation_tau_is_on_the_order_of_the_gate_delay() {
        let lib = cmos06();
        let pin = lib.pin(CellKind::Nand2, 0).unwrap();
        let tau = pin
            .timing
            .fall
            .degradation
            .tau(lib.vdd(), Capacitance::from_femtofarads(20.0));
        let delay = pin.timing.fall.propagation.nominal_delay(
            Capacitance::from_femtofarads(20.0),
            TimeDelta::from_ps(200.0),
        );
        let ratio = tau.as_ps() / delay.as_ps();
        assert!((0.3..3.0).contains(&ratio), "tau/delay = {ratio}");
    }

    #[test]
    fn degradation_free_deck_has_zero_tau() {
        let lib = cmos06_without_degradation();
        let pin = lib.pin(CellKind::Xor2, 1).unwrap();
        assert_eq!(
            pin.timing
                .rise
                .degradation
                .tau(lib.vdd(), Capacitance::from_femtofarads(50.0)),
            TimeDelta::ZERO
        );
        // Nominal delay is unchanged with respect to the full deck.
        let full = cmos06();
        assert_eq!(
            pin.timing.rise.propagation,
            full.pin(CellKind::Xor2, 1).unwrap().timing.rise.propagation
        );
    }
}
