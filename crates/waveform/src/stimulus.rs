//! Input stimulus description.
//!
//! A [`Stimulus`] assigns each primary input a starting level and a list of
//! driven transitions.  The helper [`Stimulus::drive_bus_value`] applies a
//! numeric value across a bus of named inputs, which is how the paper's
//! multiplication sequences (`0x0, 7x7, 5xA, Ex6, FxF`) are expressed.

use halotis_core::{Edge, LogicLevel, Time, TimeDelta};

use crate::digital::DigitalWaveform;
use crate::trace::Trace;
use crate::transition::Transition;

/// A set of driven primary-input waveforms.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time, TimeDelta};
/// use halotis_waveform::Stimulus;
///
/// let mut stim = Stimulus::new(TimeDelta::from_ps(200.0));
/// stim.set_initial("a", LogicLevel::Low);
/// stim.drive("a", Time::from_ns(1.0), LogicLevel::High);
/// stim.drive("a", Time::from_ns(4.0), LogicLevel::Low);
/// assert_eq!(stim.waveform("a").unwrap().len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Stimulus {
    default_slew: TimeDelta,
    inputs: Trace<DigitalWaveform>,
}

impl Stimulus {
    /// Creates an empty stimulus whose driven edges use `default_slew` as
    /// their input transition time.
    pub fn new(default_slew: TimeDelta) -> Self {
        Stimulus {
            default_slew: default_slew.max(TimeDelta::from_fs(1)),
            inputs: Trace::new(),
        }
    }

    /// The transition time applied to driven edges.
    pub fn default_slew(&self) -> TimeDelta {
        self.default_slew
    }

    /// Declares an input and its initial level (before any driven edge).
    /// Re-declaring an input resets its waveform.
    pub fn set_initial(&mut self, input: impl Into<String>, level: LogicLevel) {
        self.inputs.insert(input, DigitalWaveform::new(level));
    }

    /// Drives `input` towards `level` at `time` using the default slew.
    ///
    /// Driving the level the input already targets is a no-op, so vector
    /// sequences can be applied blindly.  Inputs that were never declared
    /// with [`set_initial`](Stimulus::set_initial) start at
    /// [`LogicLevel::Low`].  An input's drives come in time order, so its
    /// transitions have non-decreasing starts and alternate in edge.
    ///
    /// # Panics
    ///
    /// Panics, naming the input, on a drive that would add a transition
    /// starting before the input's last one.
    pub fn drive(&mut self, input: impl Into<String>, time: Time, level: LogicLevel) {
        let name = input.into();
        if self.inputs.get(&name).is_none() {
            self.inputs
                .insert(name.clone(), DigitalWaveform::new(LogicLevel::Low));
        }
        let slew = self.default_slew;
        let waveform = self.inputs.get_mut(&name).expect("just inserted");
        let current = waveform.final_target();
        let edge = match Edge::between(current, level) {
            Some(edge) => edge,
            // First defined value of an unknown input: drive it as an edge
            // from the opposite rail so downstream gates see a transition.
            None if current == LogicLevel::Unknown && level == LogicLevel::High => Edge::Rise,
            None if current == LogicLevel::Unknown && level == LogicLevel::Low => Edge::Fall,
            None => return,
        };
        if let Some(last) = waveform.transitions().last() {
            assert!(
                time >= last.start(),
                "input {name}: a drive at {time:?} starts before its last transition at {:?}",
                last.start()
            );
        }
        waveform.push(Transition::new(time, slew, edge));
    }

    /// Drives an ordered list of single-bit inputs (`bits[0]` = LSB) with the
    /// binary representation of `value` at `time`.
    pub fn drive_bus_value(&mut self, bits: &[&str], value: u64, time: Time) {
        for (position, bit) in bits.iter().enumerate() {
            let level = LogicLevel::from_bool((value >> position) & 1 == 1);
            self.drive(*bit, time, level);
        }
    }

    /// The waveform driven on `input`, if that input exists.
    pub fn waveform(&self, input: &str) -> Option<&DigitalWaveform> {
        self.inputs.get(input)
    }

    /// Names of all driven inputs.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.inputs.names()
    }

    /// The latest driven edge end time, or `None` for an empty stimulus.
    /// Simulators use this to size their time horizon.
    pub fn last_activity(&self) -> Option<Time> {
        self.inputs
            .iter()
            .flat_map(|(_, w)| w.transitions().iter().map(|t| t.end()))
            .max()
    }
}

/// Builds the multiplier stimulus used throughout the paper's evaluation:
/// a sequence of `(a, b)` operand pairs applied every `period` on buses
/// `a_bits` / `b_bits` (LSB first), starting at `start`.
///
/// # Example
///
/// ```
/// use halotis_core::{Time, TimeDelta};
/// use halotis_waveform::stimulus::vector_sequence;
///
/// let a = ["a0", "a1", "a2", "a3"];
/// let b = ["b0", "b1", "b2", "b3"];
/// // The paper's Figure 6 sequence: 0x0, 7x7, 5xA, Ex6, FxF.
/// let stim = vector_sequence(
///     &a, &b,
///     &[(0x0, 0x0), (0x7, 0x7), (0x5, 0xA), (0xE, 0x6), (0xF, 0xF)],
///     Time::from_ns(0.0),
///     TimeDelta::from_ns(5.0),
///     TimeDelta::from_ps(200.0),
/// );
/// assert_eq!(stim.input_names().count(), 8);
/// ```
pub fn vector_sequence(
    a_bits: &[&str],
    b_bits: &[&str],
    pairs: &[(u64, u64)],
    start: Time,
    period: TimeDelta,
    slew: TimeDelta,
) -> Stimulus {
    let mut stim = Stimulus::new(slew);
    for bit in a_bits.iter().chain(b_bits.iter()) {
        stim.set_initial(*bit, LogicLevel::Low);
    }
    for (index, &(a, b)) in pairs.iter().enumerate() {
        let at = start + period * index as i64;
        stim.drive_bus_value(a_bits, a, at);
        stim.drive_bus_value(b_bits, b, at);
    }
    stim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_only_records_real_changes() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        stim.set_initial("x", LogicLevel::Low);
        stim.drive("x", Time::from_ns(1.0), LogicLevel::Low); // no-op
        stim.drive("x", Time::from_ns(2.0), LogicLevel::High);
        stim.drive("x", Time::from_ns(3.0), LogicLevel::High); // no-op
        stim.drive("x", Time::from_ns(4.0), LogicLevel::Low);
        assert_eq!(stim.waveform("x").unwrap().len(), 2);
    }

    #[test]
    fn undeclared_inputs_default_to_low() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        stim.drive("y", Time::from_ns(1.0), LogicLevel::High);
        let w = stim.waveform("y").unwrap();
        assert_eq!(w.initial(), LogicLevel::Low);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn unknown_initial_gets_explicit_edge() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        stim.set_initial("z", LogicLevel::Unknown);
        stim.drive("z", Time::from_ns(1.0), LogicLevel::Low);
        assert_eq!(stim.waveform("z").unwrap().len(), 1);
        assert_eq!(
            stim.waveform("z").unwrap().transitions()[0].edge(),
            Edge::Fall
        );
    }

    #[test]
    fn bus_values_drive_individual_bits() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        let bits = ["d0", "d1", "d2", "d3"];
        for b in bits {
            stim.set_initial(b, LogicLevel::Low);
        }
        stim.drive_bus_value(&bits, 0xA, Time::from_ns(1.0)); // 1010
        assert_eq!(stim.waveform("d0").unwrap().len(), 0);
        assert_eq!(stim.waveform("d1").unwrap().len(), 1);
        assert_eq!(stim.waveform("d2").unwrap().len(), 0);
        assert_eq!(stim.waveform("d3").unwrap().len(), 1);
    }

    #[test]
    fn vector_sequence_covers_paper_figure6_inputs() {
        let a = ["a0", "a1", "a2", "a3"];
        let b = ["b0", "b1", "b2", "b3"];
        let stim = vector_sequence(
            &a,
            &b,
            &[(0x0, 0x0), (0x7, 0x7), (0x5, 0xA), (0xE, 0x6), (0xF, 0xF)],
            Time::from_ns(0.0),
            TimeDelta::from_ns(5.0),
            TimeDelta::from_ps(200.0),
        );
        // a0: 0,1,1,0,1 -> edges at 5 (rise), 15 (fall), 20 (rise)
        let a0 = stim.waveform("a0").unwrap();
        assert_eq!(a0.len(), 3);
        assert_eq!(a0.transitions()[0].start(), Time::from_ns(5.0));
        assert_eq!(a0.transitions()[1].start(), Time::from_ns(15.0));
        // b3: 0, 0, 1, 0, 1 -> edges at 10 (rise), 15 (fall), 20 (rise)
        let b3 = stim.waveform("b3").unwrap();
        assert_eq!(b3.len(), 3);
        assert!(stim.last_activity().unwrap() >= Time::from_ns(20.0));
    }

    #[test]
    #[should_panic(expected = "input x: a drive at")]
    fn an_out_of_order_drive_panics() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        stim.drive("x", Time::from_ns(5.0), LogicLevel::High);
        // Held at its level: a no-op, so the order does not matter.
        stim.drive("x", Time::from_ns(1.0), LogicLevel::High);
        stim.drive("x", Time::from_ns(3.0), LogicLevel::Low);
    }

    #[test]
    fn drives_at_the_last_transitions_start_are_in_order() {
        let mut stim = Stimulus::new(TimeDelta::from_ps(100.0));
        stim.drive("x", Time::from_ns(5.0), LogicLevel::High);
        stim.drive("x", Time::from_ns(5.0), LogicLevel::Low);
        let edges: Vec<Edge> = stim
            .waveform("x")
            .unwrap()
            .transitions()
            .iter()
            .map(|t| t.edge())
            .collect();
        assert_eq!(edges, vec![Edge::Rise, Edge::Fall]);
    }

    #[test]
    fn default_slew_is_clamped_positive() {
        let stim = Stimulus::new(TimeDelta::ZERO);
        assert!(stim.default_slew() > TimeDelta::ZERO);
        assert_eq!(stim.last_activity(), None);
    }
}
