//! Deterministic stimulus suites for corpus circuits.
//!
//! A [`StimulusSuite`] turns a netlist into a reproducible set of named
//! [`Stimulus`] objects.  All three suites are pure functions of the
//! netlist and the suite parameters (the random suite goes through a seeded
//! [`StdRng`]), so the same corpus definition always produces bit-identical
//! input waveforms — the foundation of the golden-stats CI gate.

use halotis_core::{LogicLevel, Time, TimeDelta};
use halotis_netlist::{Library, Netlist};
use halotis_waveform::Stimulus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most input patterns a suite may sweep exhaustively (2^12 vectors).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 12;

/// Why expanding a suite may assume its pattern times fit the clock.
const FITS_THE_CLOCK: &str = "pattern time overflows the femtosecond clock; \
     halotis-serve's validate_suite refuses suites whose pattern_start(period, count) is None";

/// The instant pattern (or clock cycle) `index` of a suite starts at:
/// patterns start at 1 ns, one every `period`.  `None` when it does not fit
/// the femtosecond clock — with `index` the suite's pattern count, this is
/// the end-of-suite bound a server checks before expanding a suite.
pub fn pattern_start(period: TimeDelta, index: usize) -> Option<Time> {
    let span = period.checked_mul(i64::try_from(index).ok()?)?;
    Time::from_ns(1.0).checked_add(span)
}

/// A reproducible recipe producing one or more stimuli for a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StimulusSuite {
    /// One stimulus applying `vectors` seeded random input patterns to all
    /// primary inputs, one pattern every `period` starting at 1 ns.
    RandomVectors {
        /// Number of random patterns in the sequence.
        vectors: usize,
        /// Spacing between consecutive patterns.
        period: TimeDelta,
        /// PRNG seed; the same seed always yields the same sequence.
        seed: u64,
    },
    /// One stimulus walking through **all** `2^n` input patterns in binary
    /// counting order, one pattern every `period` starting at 1 ns.  Only
    /// valid for circuits with at most [`MAX_EXHAUSTIVE_INPUTS`] inputs.
    Exhaustive {
        /// Spacing between consecutive patterns.
        period: TimeDelta,
    },
    /// One stimulus **per probed input**: the circuit is held at a seeded
    /// random base pattern and the probed input alone emits a single pulse
    /// of width `pulse` at 2 ns — the minimal glitch-injection experiment,
    /// isolating each input's reconvergent paths.
    ToggleProbes {
        /// Seed of the base pattern.
        seed: u64,
        /// Probe at most this many inputs (the first `max_probes` in
        /// primary-input order).
        max_probes: usize,
        /// Width of the injected pulse.
        pulse: TimeDelta,
    },
    /// One stimulus driving a sequential circuit for `cycles` clock
    /// periods: the **first** primary input (the ISCAS-89 clock
    /// convention) gets a periodic waveform — rising at the start of every
    /// cycle, falling `high` later — and the remaining data inputs receive
    /// a fresh seeded random pattern `skew` after each falling edge, so
    /// data settles during the low phase and is captured at the next rising
    /// edge.  All durations are integer femtoseconds.
    Clocked {
        /// Number of whole clock periods to run.
        cycles: usize,
        /// Clock period.
        period: TimeDelta,
        /// Clock high time (the duty cycle, as an absolute duration).
        high: TimeDelta,
        /// Offset from the falling edge to the data-input change.
        skew: TimeDelta,
        /// PRNG seed for the per-cycle data patterns.
        seed: u64,
    },
}

impl StimulusSuite {
    /// Compact suite label used in scenario names (`rand16`, `exh`,
    /// `toggle8`).
    pub fn label(&self) -> String {
        match self {
            StimulusSuite::RandomVectors { vectors, .. } => format!("rand{vectors}"),
            StimulusSuite::Exhaustive { .. } => "exh".to_string(),
            StimulusSuite::ToggleProbes { max_probes, .. } => format!("toggle{max_probes}"),
            StimulusSuite::Clocked { cycles, .. } => format!("clk{cycles}"),
        }
    }

    /// The number of clock cycles a [`Clocked`](StimulusSuite::Clocked)
    /// suite runs, `None` for the combinational suites — the denominator of
    /// the events-per-cycle soak telemetry.
    pub fn cycles(&self) -> Option<usize> {
        match *self {
            StimulusSuite::Clocked { cycles, .. } => Some(cycles),
            _ => None,
        }
    }

    /// Generates the suite's named stimuli for `netlist`, using the
    /// library's default input slew.
    ///
    /// # Panics
    ///
    /// Panics when an [`Exhaustive`](StimulusSuite::Exhaustive) suite is
    /// applied to a circuit with more than [`MAX_EXHAUSTIVE_INPUTS`] primary
    /// inputs, or any suite to a circuit with no primary inputs or more
    /// than 64.
    pub fn stimuli(&self, netlist: &Netlist, library: &Library) -> Vec<(String, Stimulus)> {
        let inputs: Vec<&str> = netlist
            .primary_inputs()
            .iter()
            .map(|&net| netlist.net(net).name())
            .collect();
        assert!(
            !inputs.is_empty(),
            "corpus suites need at least one primary input, {} has none",
            netlist.name()
        );
        assert!(
            inputs.len() <= 64,
            "corpus suites drive at most 64 inputs, {} has {}",
            netlist.name(),
            inputs.len()
        );
        let slew = library.default_input_slew();
        match *self {
            StimulusSuite::RandomVectors {
                vectors,
                period,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mask = u64::MAX >> (64 - inputs.len());
                let patterns: Vec<u64> = (0..vectors).map(|_| rng.gen::<u64>() & mask).collect();
                vec![(
                    self.label(),
                    pattern_sequence(&inputs, &patterns, period, slew),
                )]
            }
            StimulusSuite::Exhaustive { period } => {
                assert!(
                    inputs.len() <= MAX_EXHAUSTIVE_INPUTS,
                    "exhaustive sweep limited to {MAX_EXHAUSTIVE_INPUTS} inputs, {} has {}",
                    netlist.name(),
                    inputs.len()
                );
                let patterns: Vec<u64> = (0..1u64 << inputs.len()).collect();
                vec![(
                    self.label(),
                    pattern_sequence(&inputs, &patterns, period, slew),
                )]
            }
            StimulusSuite::ToggleProbes {
                seed,
                max_probes,
                pulse,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mask = u64::MAX >> (64 - inputs.len());
                let base = rng.gen::<u64>() & mask;
                (0..inputs.len().min(max_probes))
                    .map(|probe| {
                        let mut stimulus = Stimulus::new(slew);
                        for (bit, name) in inputs.iter().enumerate() {
                            stimulus
                                .set_initial(*name, LogicLevel::from_bool((base >> bit) & 1 == 1));
                        }
                        let resting = LogicLevel::from_bool((base >> probe) & 1 == 1);
                        let flipped = if resting == LogicLevel::High {
                            LogicLevel::Low
                        } else {
                            LogicLevel::High
                        };
                        stimulus.drive(inputs[probe], Time::from_ns(2.0), flipped);
                        stimulus.drive(inputs[probe], Time::from_ns(2.0) + pulse, resting);
                        (format!("probe{probe}"), stimulus)
                    })
                    .collect()
            }
            StimulusSuite::Clocked {
                cycles,
                period,
                high,
                skew,
                seed,
            } => {
                assert!(
                    TimeDelta::ZERO < high && high + skew < period,
                    "clock shape must satisfy 0 < high and high + skew < period"
                );
                let clock = inputs[0];
                let data = &inputs[1..];
                let mut rng = StdRng::seed_from_u64(seed);
                let mut stimulus = Stimulus::new(slew);
                for name in &inputs {
                    stimulus.set_initial(*name, LogicLevel::Low);
                }
                let mask = if data.is_empty() {
                    0
                } else {
                    u64::MAX >> (64 - data.len())
                };
                for cycle in 0..cycles {
                    let rise = pattern_start(period, cycle).expect(FITS_THE_CLOCK);
                    let fall = rise + high;
                    stimulus.drive(clock, rise, LogicLevel::High);
                    stimulus.drive(clock, fall, LogicLevel::Low);
                    if !data.is_empty() {
                        let pattern = rng.gen::<u64>() & mask;
                        stimulus.drive_bus_value(data, pattern, fall + skew);
                    }
                }
                vec![(self.label(), stimulus)]
            }
        }
    }
}

/// One stimulus applying `patterns` across `inputs` (LSB = `inputs[0]`),
/// one pattern every `period` starting at 1 ns, all inputs initially low.
fn pattern_sequence(
    inputs: &[&str],
    patterns: &[u64],
    period: TimeDelta,
    slew: TimeDelta,
) -> Stimulus {
    let mut stimulus = Stimulus::new(slew);
    for name in inputs {
        stimulus.set_initial(*name, LogicLevel::Low);
    }
    for (index, &pattern) in patterns.iter().enumerate() {
        let start = pattern_start(period, index).expect(FITS_THE_CLOCK);
        stimulus.drive_bus_value(inputs, pattern, start);
    }
    stimulus
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_netlist::{generators, technology};

    #[test]
    fn random_vectors_are_reproducible() {
        let netlist = generators::ripple_carry_adder(4);
        let library = technology::cmos06();
        let suite = StimulusSuite::RandomVectors {
            vectors: 8,
            period: TimeDelta::from_ns(5.0),
            seed: 0xFEED,
        };
        assert_eq!(
            suite.stimuli(&netlist, &library),
            suite.stimuli(&netlist, &library)
        );
        let other = StimulusSuite::RandomVectors {
            vectors: 8,
            period: TimeDelta::from_ns(5.0),
            seed: 0xFEEE,
        };
        assert_ne!(
            suite.stimuli(&netlist, &library),
            other.stimuli(&netlist, &library)
        );
        assert_eq!(suite.label(), "rand8");
    }

    #[test]
    fn exhaustive_covers_every_pattern_once() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let suite = StimulusSuite::Exhaustive {
            period: TimeDelta::from_ns(4.0),
        };
        let stimuli = suite.stimuli(&netlist, &library);
        assert_eq!(stimuli.len(), 1);
        let (label, stimulus) = &stimuli[0];
        assert_eq!(label, "exh");
        assert_eq!(stimulus.input_names().count(), 5);
        // The LSB input toggles on every pattern step: 16 rising + 15
        // falling edges over the 32-pattern count.
        assert_eq!(stimulus.waveform("i1").unwrap().len(), 31);
    }

    #[test]
    #[should_panic(expected = "exhaustive sweep limited")]
    fn exhaustive_refuses_wide_circuits() {
        let netlist = generators::random_logic(16, 20, 1);
        let library = technology::cmos06();
        StimulusSuite::Exhaustive {
            period: TimeDelta::from_ns(4.0),
        }
        .stimuli(&netlist, &library);
    }

    #[test]
    fn toggle_probes_pulse_exactly_one_input() {
        let netlist = generators::parity_tree(8);
        let library = technology::cmos06();
        let suite = StimulusSuite::ToggleProbes {
            seed: 0xF00D,
            max_probes: 8,
            pulse: TimeDelta::from_ps(600.0),
        };
        let stimuli = suite.stimuli(&netlist, &library);
        assert_eq!(stimuli.len(), 8);
        for (probe, (label, stimulus)) in stimuli.iter().enumerate() {
            assert_eq!(label, &format!("probe{probe}"));
            let mut driven = 0;
            for (bit, name) in (0..8).map(|i| (i, format!("in{i}"))) {
                let edges = stimulus.waveform(&name).unwrap().len();
                if bit == probe {
                    assert_eq!(edges, 2, "probed input pulses once");
                    driven += 1;
                } else {
                    assert_eq!(edges, 0, "unprobed inputs hold still");
                }
            }
            assert_eq!(driven, 1);
        }
    }

    #[test]
    fn clocked_suite_shapes_the_clock_and_randomizes_data() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let suite = StimulusSuite::Clocked {
            cycles: 16,
            period: TimeDelta::from_ns(2.0),
            high: TimeDelta::from_ns(1.0),
            skew: TimeDelta::from_ps(250.0),
            seed: 0xC10C,
        };
        assert_eq!(suite.label(), "clk16");
        assert_eq!(suite.cycles(), Some(16));
        assert_eq!(
            StimulusSuite::Exhaustive {
                period: TimeDelta::from_ns(4.0)
            }
            .cycles(),
            None
        );
        let stimuli = suite.stimuli(&netlist, &library);
        assert_eq!(stimuli.len(), 1);
        let (label, stimulus) = &stimuli[0];
        assert_eq!(label, "clk16");
        // The first input is the clock: one rising + one falling edge per
        // cycle, every edge at an exact period/high offset.
        let clock = stimulus.waveform("i1").unwrap();
        assert_eq!(clock.len(), 32);
        // Data inputs change strictly inside the low phase.
        let rise_fs = Time::from_ns(1.0).as_fs();
        let period_fs = TimeDelta::from_ns(2.0).as_fs();
        let high_fs = TimeDelta::from_ns(1.0).as_fs();
        for name in ["i2", "i3", "i6", "i7"] {
            for edge in stimulus.waveform(name).unwrap().transitions() {
                let offset = (edge.start().as_fs() - rise_fs) % period_fs;
                assert!(offset > high_fs && offset < period_fs, "{name} {offset}");
            }
        }
        // Reproducible: the same definition yields the same waveforms.
        assert_eq!(stimuli, suite.stimuli(&netlist, &library));
    }

    #[test]
    #[should_panic(expected = "clock shape")]
    fn clocked_suite_rejects_degenerate_shapes() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        StimulusSuite::Clocked {
            cycles: 4,
            period: TimeDelta::from_ns(1.0),
            high: TimeDelta::from_ns(1.0),
            skew: TimeDelta::ZERO,
            seed: 1,
        }
        .stimuli(&netlist, &library);
    }

    #[test]
    fn probe_count_clamps_to_input_count() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let suite = StimulusSuite::ToggleProbes {
            seed: 1,
            max_probes: 64,
            pulse: TimeDelta::from_ps(500.0),
        };
        assert_eq!(suite.stimuli(&netlist, &library).len(), 5);
    }
}
