//! Retired implementations, kept verbatim as executable references.
//!
//! Neither is used by the simulator, and neither ships with it.
//!
//! * [`ReferenceEventQueue`], the original `BinaryHeap` + `HashSet` event
//!   queue, lets this crate's `tests/queue_properties.rs` proptest the
//!   production [`EventQueue`](halotis::sim::queue::EventQueue) against it
//!   (identical pop order including equal-time serial tie-breaks,
//!   identical scheduled/filtered counts, identical behaviour after
//!   `reset`, and streamed stimulus against the same stimulus scheduled up
//!   front), and lets the `event_queue` benchmark report the heap-vs-wheel
//!   ablation.
//! * [`suite_stimuli`], the original drive-by-drive expansion of a
//!   [`StimulusSuite`] into named [`Stimulus`] objects, is the oracle
//!   `tests/suite_equivalence.rs` holds the suites' on-demand generators
//!   to.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::corpus::stimuli::{pattern_start, StimulusSuite, MAX_EXHAUSTIVE_INPUTS};
use halotis::netlist::{Library, Netlist};
use halotis::sim::event::Event;
use halotis::sim::queue::ScheduleOutcome;
use halotis::waveform::Stimulus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct QueuedEvent {
    time: Time,
    serial: u64,
    pin_index: usize,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.serial).cmp(&(other.time, other.serial))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The pre-time-wheel queue: binary heap ordered by `(time, serial)`
/// with a `HashSet` of lazily cancelled serials.  Same public surface
/// and same observable behaviour as [`EventQueue`](halotis::sim::queue::EventQueue).
#[derive(Clone, Debug)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    pending: Vec<VecDeque<(Time, u64)>>,
    cancelled: HashSet<u64>,
    next_serial: u64,
    scheduled: usize,
    filtered: usize,
}

impl ReferenceEventQueue {
    /// Creates a queue for a circuit with `pin_count` gate input pins.
    pub fn new(pin_count: usize) -> Self {
        ReferenceEventQueue {
            heap: BinaryHeap::new(),
            pending: vec![VecDeque::new(); pin_count],
            cancelled: HashSet::new(),
            next_serial: 0,
            scheduled: 0,
            filtered: 0,
        }
    }

    /// The Fig. 4 rule, heap edition.
    pub fn schedule(&mut self, pin_index: usize, event: Event) -> ScheduleOutcome {
        if let Some(&(previous_time, previous_serial)) = self.pending[pin_index].back() {
            if event.time <= previous_time {
                self.cancelled.insert(previous_serial);
                self.pending[pin_index].pop_back();
                self.filtered += 1;
                return ScheduleOutcome::CancelledPrevious;
            }
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        self.pending[pin_index].push_back((event.time, serial));
        self.heap.push(Reverse(QueuedEvent {
            time: event.time,
            serial,
            pin_index,
            event,
        }));
        self.scheduled += 1;
        ScheduleOutcome::Inserted
    }

    /// Clears the queue, restarting serial numbering at zero.
    pub fn reset(&mut self) {
        self.heap.clear();
        for slot in &mut self.pending {
            slot.clear();
        }
        self.cancelled.clear();
        self.next_serial = 0;
        self.scheduled = 0;
        self.filtered = 0;
    }

    /// Pops the earliest live event, skipping lazily cancelled entries.
    pub fn pop(&mut self) -> Option<Event> {
        while let Some(Reverse(entry)) = self.heap.pop() {
            if self.cancelled.remove(&entry.serial) {
                continue;
            }
            let front = self.pending[entry.pin_index].pop_front();
            debug_assert_eq!(front, Some((entry.time, entry.serial)));
            return Some(entry.event);
        }
        None
    }

    /// Number of live (not cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// `true` when no live event remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events that were inserted into the queue.
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// Total number of Fig. 4 cancellations.
    pub fn filtered(&self) -> usize {
        self.filtered
    }
}

/// Why the reference expansion may assume its pattern times fit the clock.
const FITS_THE_CLOCK: &str = "pattern time overflows the femtosecond clock";

/// Expands `suite` for `netlist` into its named stimuli the way the suites
/// did before they generated transitions on demand: every pattern driven
/// onto every input through [`Stimulus::drive`].
///
/// # Panics
///
/// Under the conditions of [`StimulusSuite::sources`] for well-formed
/// parameters.
pub fn suite_stimuli(
    suite: &StimulusSuite,
    netlist: &Netlist,
    library: &Library,
) -> Vec<(String, Stimulus)> {
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
    match *suite {
        StimulusSuite::RandomVectors {
            vectors,
            period,
            seed,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mask = u64::MAX >> (64 - inputs.len());
            let patterns: Vec<u64> = (0..vectors).map(|_| rng.gen::<u64>() & mask).collect();
            vec![(
                suite.label(),
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
                suite.label(),
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
                        stimulus.set_initial(*name, LogicLevel::from_bool((base >> bit) & 1 == 1));
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
            vec![(suite.label(), stimulus)]
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
