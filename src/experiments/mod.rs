//! Reproductions of every experiment in the paper's evaluation section,
//! plus the extension study in the last row below.
//!
//! | Paper artefact | Function | Notes |
//! |---|---|---|
//! | Fig. 1 (inertial delay wrong results) | [`figure1::figure1_experiment`] | HALOTIS-DDM vs classical simulator vs analog reference |
//! | Fig. 3 (one transition, several events) | [`figure3::figure3`] | per-input threshold crossing times |
//! | Fig. 6 (waveforms, sequence `0x0, 7x7, 5xA, Ex6, FxF`) | [`figures67::figure6`] | three stacked traces |
//! | Fig. 7 (waveforms, sequence `0x0, FxF, 0x0, FxF, 0x0`) | [`figures67::figure7`] | three stacked traces |
//! | Table 1 (events / filtered events) | [`table1::table1`] | DDM vs CDM statistics |
//! | Table 2 (CPU time) | [`table2::table2`] | analog vs HALOTIS-DDM vs HALOTIS-CDM |
//! | Extension: pulse-width degradation sweep | [`pulse_width::pulse_width_sweep`] | continuous vs abrupt filtering |

pub mod figure1;
pub mod figure3;
pub mod figures67;
pub mod pulse_width;
pub mod report;
pub mod table1;
pub mod table2;

use halotis_core::{Time, TimeDelta};
use halotis_netlist::generators::{multiplier, MultiplierPorts};
use halotis_netlist::{technology, Library, Netlist};
use halotis_waveform::stimulus::vector_sequence;
use halotis_waveform::Stimulus;

/// The multiplication sequence of the paper's Fig. 6 and first Table 1 row:
/// `0x0, 7x7, 5xA, Ex6, FxF`.
pub const SEQUENCE_FIG6: &[(u64, u64)] =
    &[(0x0, 0x0), (0x7, 0x7), (0x5, 0xA), (0xE, 0x6), (0xF, 0xF)];

/// The multiplication sequence of the paper's Fig. 7 and second Table 1 row:
/// `0x0, FxF, 0x0, FxF, 0x0`.
pub const SEQUENCE_FIG7: &[(u64, u64)] =
    &[(0x0, 0x0), (0xF, 0xF), (0x0, 0x0), (0xF, 0xF), (0x0, 0x0)];

/// Vector spacing used by the paper's waveform plots (one multiplication
/// every 5 ns over a 25 ns window).
pub const VECTOR_PERIOD_NS: f64 = 5.0;

/// The observation window of the paper's Figs. 6–7.
pub const FIGURE_WINDOW_NS: f64 = 25.0;

/// A ready-to-simulate multiplier: netlist, port names and library.
#[derive(Clone, Debug)]
pub struct MultiplierFixture {
    /// The array-multiplier netlist.
    pub netlist: Netlist,
    /// Its port names.
    pub ports: MultiplierPorts,
    /// The synthetic 0.6 µm library.
    pub library: Library,
}

/// The paper's evaluation vehicle: the 4×4 multiplier in the synthetic
/// 0.6 µm technology.
pub fn multiplier_fixture() -> MultiplierFixture {
    multiplier_fixture_sized(4, 4)
}

/// A multiplier fixture of arbitrary size (used by the scaling benches).
pub fn multiplier_fixture_sized(a_bits: usize, b_bits: usize) -> MultiplierFixture {
    MultiplierFixture {
        netlist: multiplier(a_bits, b_bits),
        ports: MultiplierPorts::new(a_bits, b_bits),
        library: technology::cmos06(),
    }
}

/// Builds the stimulus applying `pairs` of operands to a multiplier every
/// [`VECTOR_PERIOD_NS`], exactly as the paper's evaluation does.
pub fn multiplier_stimulus(ports: &MultiplierPorts, pairs: &[(u64, u64)]) -> Stimulus {
    vector_sequence(
        &ports.a_refs(),
        &ports.b_refs(),
        pairs,
        Time::ZERO,
        TimeDelta::from_ns(VECTOR_PERIOD_NS),
        TimeDelta::from_ps(200.0),
    )
}

/// Human-readable label of a multiplication sequence (`"0x0, 7x7, ..."`).
pub fn sequence_label(pairs: &[(u64, u64)]) -> String {
    pairs
        .iter()
        .map(|(a, b)| format!("{a:X}x{b:X}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_matches_the_paper_setup() {
        let fixture = multiplier_fixture();
        assert_eq!(fixture.netlist.primary_inputs().len(), 8);
        assert_eq!(fixture.netlist.primary_outputs().len(), 8);
        assert_eq!(fixture.library.vdd().as_volts(), 5.0);
        assert_eq!(fixture.ports.s.len(), 8);
    }

    #[test]
    fn stimulus_covers_every_multiplier_input() {
        let fixture = multiplier_fixture();
        let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
        for &input in fixture.netlist.primary_inputs() {
            let name = fixture.netlist.net(input).name();
            assert!(
                stimulus.waveform(name).is_some(),
                "missing stimulus for {name}"
            );
        }
        assert!(stimulus.last_activity().unwrap() >= Time::from_ns(20.0));
    }

    #[test]
    fn sequence_labels_match_paper_notation() {
        assert_eq!(sequence_label(SEQUENCE_FIG6), "0x0, 7x7, 5xA, Ex6, FxF");
        assert_eq!(sequence_label(SEQUENCE_FIG7), "0x0, FxF, 0x0, FxF, 0x0");
    }
}
