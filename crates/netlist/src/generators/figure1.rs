//! The paper's Fig. 1 circuit.
//!
//! Fig. 1 demonstrates why the classical inertial-delay rule is wrong: a
//! pulse-shaping inverter chain drives a net `out0` that fans out to two
//! inverters `g1` and `g2` whose transfer characteristics differ — `g1`
//! switches at a low input threshold `VT1`, `g2` at a high threshold `VT2`.
//! A partial-swing pulse on `out0` is seen by `g1` but not by `g2`; a
//! simulator that filters the pulse once, at the driving output, gets at
//! least one of the two fanout branches wrong.
//!
//! Each branch is followed by one more inverter (`out1c`, `out2c`) so the
//! effect is observable on full-swing outputs, exactly as in the figure.

use crate::cell::CellKind;
use crate::netlist::{Netlist, NetlistBuilder};

/// Default low input threshold of branch gate `g1` (fraction of `Vdd`),
/// mirroring the `VT1` marking in the figure's transfer characteristic.
pub const FIGURE1_LOW_VT: f64 = 0.28;
/// Default high input threshold of branch gate `g2` (fraction of `Vdd`),
/// mirroring `VT2`.
pub const FIGURE1_HIGH_VT: f64 = 0.72;

/// The signal names of the Fig. 1 circuit, for convenient lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Figure1Nets {
    /// Primary input.
    pub input: String,
    /// Output of the pulse-shaping chain; the fanout node of interest.
    pub out0: String,
    /// Output of the low-threshold branch inverter `g1`.
    pub out1: String,
    /// Output of the inverter following `out1`.
    pub out1c: String,
    /// Output of the high-threshold branch inverter `g2`.
    pub out2: String,
    /// Output of the inverter following `out2`.
    pub out2c: String,
}

impl Figure1Nets {
    /// The conventional names used by [`figure1`].
    pub fn standard() -> Self {
        Figure1Nets {
            input: "in".to_string(),
            out0: "out0".to_string(),
            out1: "out1".to_string(),
            out1c: "out1c".to_string(),
            out2: "out2".to_string(),
            out2c: "out2c".to_string(),
        }
    }
}

/// Builds the Fig. 1 circuit with the given branch input thresholds
/// (fractions of `Vdd`).
///
/// `low_vt` is assigned to `g1`, `high_vt` to `g2`; the chain and the
/// follower inverters use the library characterisation.
///
/// # Example
///
/// ```
/// use halotis_netlist::generators::{figure1, Figure1Nets};
///
/// let (netlist, nets) = figure1(0.3, 0.7);
/// assert_eq!(nets, Figure1Nets::standard());
/// assert_eq!(netlist.primary_outputs().len(), 5);
/// ```
pub fn figure1(low_vt: f64, high_vt: f64) -> (Netlist, Figure1Nets) {
    let names = Figure1Nets::standard();
    let mut builder = NetlistBuilder::new("figure1");
    let input = builder.add_input(&names.input);

    // Two-stage pulse-shaping chain: in -> chain0 -> out0.  Keeping the
    // chain non-inverting overall means a pulse applied at `in` appears with
    // the same polarity (and a softened edge) on `out0`.
    let chain0 = builder.add_net("chain0");
    let out0 = builder.add_net(&names.out0);
    builder
        .add_gate(CellKind::Inv, "chain_a", &[input], chain0)
        .expect("figure1 gates are valid");
    builder
        .add_gate(CellKind::Inv, "chain_b", &[chain0], out0)
        .expect("figure1 gates are valid");

    // Branch 1: low-threshold inverter followed by a plain inverter.
    let out1 = builder.add_net(&names.out1);
    let out1c = builder.add_net(&names.out1c);
    builder
        .add_gate_with_thresholds(CellKind::Inv, "g1", &[out0], out1, &[low_vt])
        .expect("figure1 gates are valid");
    builder
        .add_gate(CellKind::Inv, "g1c", &[out1], out1c)
        .expect("figure1 gates are valid");

    // Branch 2: high-threshold inverter followed by a plain inverter.
    let out2 = builder.add_net(&names.out2);
    let out2c = builder.add_net(&names.out2c);
    builder
        .add_gate_with_thresholds(CellKind::Inv, "g2", &[out0], out2, &[high_vt])
        .expect("figure1 gates are valid");
    builder
        .add_gate(CellKind::Inv, "g2c", &[out2], out2c)
        .expect("figure1 gates are valid");

    for net in [out0, out1, out1c, out2, out2c] {
        builder.mark_output(net);
    }
    (builder.build().expect("figure1 is a valid netlist"), names)
}

/// [`figure1`] with the default thresholds
/// [`FIGURE1_LOW_VT`] / [`FIGURE1_HIGH_VT`].
pub fn figure1_default() -> (Netlist, Figure1Nets) {
    figure1(FIGURE1_LOW_VT, FIGURE1_HIGH_VT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology;
    use halotis_core::PinRef;

    #[test]
    fn structure_matches_the_figure() {
        let (netlist, nets) = figure1_default();
        assert_eq!(netlist.gate_count(), 6);
        assert_eq!(netlist.primary_inputs().len(), 1);
        assert_eq!(netlist.primary_outputs().len(), 5);
        // out0 fans out to exactly the two branch inverters.
        let out0 = netlist.net_id(&nets.out0).unwrap();
        assert_eq!(netlist.net(out0).loads().len(), 2);
    }

    #[test]
    fn branch_gates_carry_their_threshold_overrides() {
        let (netlist, _) = figure1(0.25, 0.8);
        let library = technology::cmos06();
        let g1 = netlist.gates().iter().find(|g| g.name() == "g1").unwrap();
        let g2 = netlist.gates().iter().find(|g| g.name() == "g2").unwrap();
        assert_eq!(
            netlist
                .input_threshold_fraction(PinRef::new(g1.id(), 0), &library)
                .unwrap(),
            0.25
        );
        assert_eq!(
            netlist
                .input_threshold_fraction(PinRef::new(g2.id(), 0), &library)
                .unwrap(),
            0.8
        );
        // The follower inverters use the library threshold.
        let g1c = netlist.gates().iter().find(|g| g.name() == "g1c").unwrap();
        let default = library.pin(CellKind::Inv, 0).unwrap().threshold_fraction;
        assert_eq!(
            netlist
                .input_threshold_fraction(PinRef::new(g1c.id(), 0), &library)
                .unwrap(),
            default
        );
    }

    #[test]
    fn default_thresholds_bracket_the_midpoint() {
        const { assert!(FIGURE1_LOW_VT < 0.5) };
        const { assert!(FIGURE1_HIGH_VT > 0.5) };
        // The builder refuses overrides outside (0, 1): both branches got
        // theirs.
        let (netlist, _) = figure1_default();
        let overridden = netlist
            .gates()
            .iter()
            .filter(|gate| gate.threshold_overrides().is_some())
            .count();
        assert_eq!(overridden, 2);
    }
}
