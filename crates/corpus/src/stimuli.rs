//! Deterministic stimulus suites for corpus circuits.
//!
//! A [`StimulusSuite`] is a reproducible recipe for one or more stimuli of
//! a circuit.  [`StimulusSuite::sources`] turns it into [`SuiteStimulus`]
//! values, [`StimulusSource`]s that generate each primary input's
//! transitions on demand from the suite's parameters — the random suites
//! replay a seeded [`StdRng`] per input, the exhaustive and toggle-probe
//! suites are closed-form — so a run streams the stimulus without any
//! pattern vector or waveform being built.  [`StimulusSuite::stimuli`]
//! materializes the same generator into named [`Stimulus`] objects.  Every
//! suite is a pure function of the netlist and its parameters, so the same
//! corpus definition always produces bit-identical input waveforms — the
//! foundation of the golden-stats CI gate.

use halotis_core::{Edge, LogicLevel, Time, TimeDelta};
use halotis_netlist::{Library, Netlist};
use halotis_sim::StimulusSource;
use halotis_waveform::{Stimulus, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Most input patterns a suite may sweep exhaustively (2^12 vectors).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 12;

/// Why generating a suite may assume its transition times fit the clock.
const FITS_THE_CLOCK: &str = "pattern time overflows the femtosecond clock; \
     StimulusSuite::check refuses suites whose last transition does not fit";

/// When a toggle probe's pulse starts.
const PROBE_AT_NS: f64 = 2.0;

/// The instant pattern (or clock cycle) `index` of a suite starts at:
/// patterns start at 1 ns, one every `period`.  `None` when it does not fit
/// the femtosecond clock — with `index` the suite's pattern count, this is
/// the end-of-suite bound a server checks before running a suite.
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

    /// Checks that the suite can run on a circuit with `inputs` primary
    /// inputs within a run's `max_events` budget, naming the first rule
    /// it breaks:
    ///
    /// * a suite drives 1 to 64 inputs, and an
    ///   [`Exhaustive`](StimulusSuite::Exhaustive) one at most
    ///   [`MAX_EXHAUSTIVE_INPUTS`];
    /// * periods and pulses are not negative, and a clock shape satisfies
    ///   `0 < high`, `0 <= skew` and `high + skew < period`, so each
    ///   input's transitions come in order;
    /// * the suite drives at most `max_events` stimulus transitions;
    /// * its last transition time fits the femtosecond clock.
    ///
    /// # Errors
    ///
    /// The broken rule, as a message.
    pub fn check(&self, inputs: usize, max_events: usize) -> Result<(), String> {
        if inputs == 0 || inputs > 64 {
            return Err(format!(
                "stimulus suites need 1–64 primary inputs, circuit has {inputs}"
            ));
        }
        if matches!(self, StimulusSuite::Exhaustive { .. }) && inputs > MAX_EXHAUSTIVE_INPUTS {
            return Err(format!(
                "exhaustive sweep limited to {MAX_EXHAUSTIVE_INPUTS} inputs, circuit has {inputs}"
            ));
        }
        let broken = match *self {
            StimulusSuite::RandomVectors { period, .. } | StimulusSuite::Exhaustive { period } => {
                period
                    .is_negative()
                    .then_some("suite periods must not be negative")
            }
            StimulusSuite::ToggleProbes { pulse, .. } => pulse
                .is_negative()
                .then_some("probe pulses must not be negative"),
            StimulusSuite::Clocked {
                period, high, skew, ..
            } => {
                let in_order = TimeDelta::ZERO < high
                    && TimeDelta::ZERO <= skew
                    && high
                        .as_fs()
                        .checked_add(skew.as_fs())
                        .is_some_and(|sum| sum < period.as_fs());
                (!in_order).then_some(
                    "clock shape must satisfy 0 < high, 0 <= skew and high + skew < period",
                )
            }
        };
        if let Some(rule) = broken {
            return Err(rule.to_string());
        }
        // The stimulus transitions the suite drives, and a bound on the
        // instant its last one starts.
        let (transitions, last) = match *self {
            StimulusSuite::RandomVectors {
                vectors, period, ..
            } => (
                inputs.saturating_mul(vectors),
                pattern_start(period, vectors),
            ),
            StimulusSuite::Exhaustive { period } => {
                (inputs << inputs, pattern_start(period, 1 << inputs))
            }
            StimulusSuite::ToggleProbes { pulse, .. } => {
                (2, Time::from_ns(PROBE_AT_NS).checked_add(pulse))
            }
            StimulusSuite::Clocked { cycles, period, .. } => (
                cycles.saturating_mul(inputs + 1),
                pattern_start(period, cycles),
            ),
        };
        if transitions > max_events {
            return Err(format!(
                "the suite drives {transitions} stimulus transitions, over the run's \
                 {max_events}-event budget"
            ));
        }
        if last.is_none() {
            return Err(
                "the suite's last transition time overflows the femtosecond clock".to_string(),
            );
        }
        Ok(())
    }

    /// The suite's named stimuli for `netlist` as generators, using the
    /// library's default input slew: one per stimulus, each driving the
    /// circuit's primary inputs by position and storing no transition.
    ///
    /// # Panics
    ///
    /// Panics when the suite breaks a rule of
    /// [`check`](StimulusSuite::check) on `netlist`, with no event budget.
    pub fn sources(&self, netlist: &Netlist, library: &Library) -> Vec<(String, SuiteStimulus)> {
        let inputs = netlist.primary_inputs().len();
        if let Err(message) = self.check(inputs, usize::MAX) {
            panic!("{}: {message}", netlist.name());
        }
        let stimulus = |base: u64, probe: usize| SuiteStimulus {
            suite: self.clone(),
            inputs,
            base,
            probe,
            slew: library.default_input_slew(),
        };
        match *self {
            StimulusSuite::ToggleProbes {
                seed, max_probes, ..
            } => {
                let base = StdRng::seed_from_u64(seed).gen::<u64>() & (u64::MAX >> (64 - inputs));
                (0..inputs.min(max_probes))
                    .map(|probe| (format!("probe{probe}"), stimulus(base, probe)))
                    .collect()
            }
            _ => vec![(self.label(), stimulus(0, 0))],
        }
    }

    /// The suite's named stimuli for `netlist`, materialized from
    /// [`sources`](StimulusSuite::sources).
    ///
    /// # Panics
    ///
    /// As [`sources`](StimulusSuite::sources).
    pub fn stimuli(&self, netlist: &Netlist, library: &Library) -> Vec<(String, Stimulus)> {
        self.sources(netlist, library)
            .into_iter()
            .map(|(label, source)| (label, source.to_stimulus(netlist)))
            .collect()
    }
}

/// One stimulus of a [`StimulusSuite`], generated on demand: a
/// [`StimulusSource`] driving a circuit's primary inputs by position, whose
/// cursors compute each input's transitions from the suite's parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteStimulus {
    suite: StimulusSuite,
    /// The number of primary inputs driven.
    inputs: usize,
    /// Initial input levels, input `k` at bit `k`: the seeded base pattern
    /// of a toggle probe, all low otherwise.
    base: u64,
    /// The input a toggle probe pulses.
    probe: usize,
    slew: TimeDelta,
}

impl SuiteStimulus {
    /// Materializes the stimulus for `netlist`, the circuit it was
    /// generated for, naming each input after its net.
    pub fn to_stimulus(&self, netlist: &Netlist) -> Stimulus {
        let mut stimulus = Stimulus::new(self.slew);
        for (index, &net) in netlist.primary_inputs().iter().enumerate() {
            let name = netlist.net(net).name();
            if let Some(level) = self.initial(index, name) {
                stimulus.set_initial(name, level);
            }
            for transition in self.transitions(index, name) {
                stimulus.drive(name, transition.start(), transition.edge().target_level());
            }
        }
        stimulus
    }
}

impl StimulusSource for SuiteStimulus {
    type Transitions<'a> = SuiteTransitions;

    fn slew(&self) -> TimeDelta {
        self.slew
    }

    fn initial(&self, index: usize, _: &str) -> Option<LogicLevel> {
        (index < self.inputs).then(|| LogicLevel::from_bool((self.base >> index) & 1 == 1))
    }

    fn transitions(&self, index: usize, name: &str) -> SuiteTransitions {
        let Some(level) = self.initial(index, name) else {
            return SuiteTransitions::new(Drives::Idle, LogicLevel::Low, self.slew);
        };
        let drives = match self.suite {
            StimulusSuite::RandomVectors {
                vectors,
                period,
                seed,
            } => Drives::Random {
                rng: StdRng::seed_from_u64(seed),
                bit: index,
                step: 0,
                steps: vectors,
                period,
                offset: TimeDelta::ZERO,
            },
            StimulusSuite::Exhaustive { period } => Drives::Counting {
                bit: index,
                step: 1,
                patterns: 1 << self.inputs,
                period,
            },
            StimulusSuite::ToggleProbes { pulse, .. } if index == self.probe => {
                let flipped = if level == LogicLevel::High {
                    LogicLevel::Low
                } else {
                    LogicLevel::High
                };
                let at = Time::from_ns(PROBE_AT_NS);
                Drives::Listed {
                    drives: [(at, flipped), (at + pulse, level)],
                    step: 0,
                }
            }
            StimulusSuite::ToggleProbes { .. } => Drives::Idle,
            // The first input is the clock.
            StimulusSuite::Clocked {
                cycles,
                period,
                high,
                ..
            } if index == 0 => Drives::Clock {
                cycle: 0,
                cycles,
                period,
                high,
                risen: false,
            },
            // Data input `index` takes bit `index - 1` of each cycle's
            // pattern, `skew` after the falling clock edge.
            StimulusSuite::Clocked {
                cycles,
                period,
                high,
                skew,
                seed,
            } => Drives::Random {
                rng: StdRng::seed_from_u64(seed),
                bit: index - 1,
                step: 0,
                steps: cycles,
                period,
                offset: high + skew,
            },
        };
        SuiteTransitions::new(drives, level, self.slew)
    }
}

/// A cursor over one primary input's transitions in a [`SuiteStimulus`].
#[derive(Clone, Debug)]
pub struct SuiteTransitions {
    drives: Drives,
    /// The level the input heads for.
    level: LogicLevel,
    slew: TimeDelta,
}

/// Where an input is driven, step by step: a drive to the level the input
/// already heads for adds no transition, as with [`Stimulus::drive`].
#[derive(Clone, Debug)]
enum Drives {
    /// Step `k` of `steps` drives bit `bit` of the seeded generator's
    /// `k`-th draw, at `offset` past pattern `k`'s start.
    Random {
        rng: StdRng,
        bit: usize,
        step: usize,
        steps: usize,
        period: TimeDelta,
        offset: TimeDelta,
    },
    /// Binary counting through `patterns` patterns: bit `bit` changes at
    /// pattern `step << bit`, to high for odd `step`.
    Counting {
        bit: usize,
        step: usize,
        patterns: usize,
        period: TimeDelta,
    },
    /// A clock: high at the start of each cycle, low `high` later.
    Clock {
        cycle: usize,
        cycles: usize,
        period: TimeDelta,
        high: TimeDelta,
        risen: bool,
    },
    /// A fixed pair of drives, each a change.
    Listed {
        drives: [(Time, LogicLevel); 2],
        step: usize,
    },
    /// No drive at all.
    Idle,
}

impl Drives {
    /// The next drive that moves an input heading for `level` elsewhere.
    fn next_change(&mut self, level: LogicLevel) -> Option<(Time, LogicLevel)> {
        match self {
            Drives::Random {
                rng,
                bit,
                step,
                steps,
                period,
                offset,
            } => {
                while *step < *steps {
                    let drive = LogicLevel::from_bool((rng.gen::<u64>() >> *bit) & 1 == 1);
                    *step += 1;
                    if drive != level {
                        let at = pattern_start(*period, *step - 1).expect(FITS_THE_CLOCK);
                        return Some((at + *offset, drive));
                    }
                }
                None
            }
            // Every step below changes the level.
            Drives::Counting {
                bit,
                step,
                patterns,
                period,
            } => {
                let pattern = *step << *bit;
                if pattern >= *patterns {
                    return None;
                }
                let drive = LogicLevel::from_bool(*step & 1 == 1);
                *step += 1;
                Some((
                    pattern_start(*period, pattern).expect(FITS_THE_CLOCK),
                    drive,
                ))
            }
            Drives::Clock {
                cycle,
                cycles,
                period,
                high,
                risen,
            } => {
                if *cycle == *cycles {
                    return None;
                }
                let rise = pattern_start(*period, *cycle).expect(FITS_THE_CLOCK);
                *risen = !*risen;
                if *risen {
                    Some((rise, LogicLevel::High))
                } else {
                    *cycle += 1;
                    Some((rise + *high, LogicLevel::Low))
                }
            }
            Drives::Listed { drives, step } => {
                let drive = drives.get(*step).copied();
                *step += 1;
                drive
            }
            Drives::Idle => None,
        }
    }
}

impl SuiteTransitions {
    fn new(drives: Drives, level: LogicLevel, slew: TimeDelta) -> Self {
        SuiteTransitions {
            drives,
            level,
            slew,
        }
    }
}

impl Iterator for SuiteTransitions {
    type Item = Transition;

    fn next(&mut self) -> Option<Transition> {
        let (at, level) = self.drives.next_change(self.level)?;
        let edge = Edge::between(self.level, level).expect("suite inputs hold defined levels");
        self.level = level;
        Some(Transition::new(at, self.slew, edge))
    }
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
    fn check_names_the_broken_rule() {
        let random = |vectors, period| StimulusSuite::RandomVectors {
            vectors,
            period,
            seed: 1,
        };
        let toggle = |pulse| StimulusSuite::ToggleProbes {
            seed: 1,
            max_probes: 1,
            pulse,
        };
        let clocked = |high, skew| StimulusSuite::Clocked {
            cycles: 4,
            period: TimeDelta::from_ns(2.0),
            high,
            skew,
            seed: 1,
        };
        let ns = TimeDelta::from_ns;
        let cases = [
            (random(4, ns(1.0)), 0, "1–64 primary inputs"),
            (random(4, ns(1.0)), 65, "1–64 primary inputs"),
            (
                StimulusSuite::Exhaustive { period: ns(1.0) },
                13,
                "exhaustive sweep limited",
            ),
            (
                random(4, TimeDelta::from_fs(-1)),
                5,
                "periods must not be negative",
            ),
            (
                toggle(TimeDelta::from_fs(-1)),
                5,
                "pulses must not be negative",
            ),
            (clocked(TimeDelta::ZERO, ns(0.5)), 5, "clock shape"),
            (clocked(ns(1.0), TimeDelta::from_fs(-1)), 5, "clock shape"),
            (clocked(TimeDelta::MAX, TimeDelta::MAX), 5, "clock shape"),
            (random(1 << 52, TimeDelta::from_fs(1)), 5, "event budget"),
            (
                random(2000, TimeDelta::from_fs((1 << 53) - 1)),
                5,
                "overflows",
            ),
            (toggle(TimeDelta::MAX), 5, "overflows"),
        ];
        for (suite, inputs, rule) in cases {
            let message = suite.check(inputs, 10_000_000).unwrap_err();
            assert!(message.contains(rule), "{suite:?}: {message}");
        }
        assert_eq!(random(4, ns(1.0)).check(5, 20), Ok(()));
        assert!(random(4, ns(1.0)).check(5, 19).is_err());
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
