//! The original `BinaryHeap` + `HashSet` event queue, kept verbatim as
//! an executable reference implementation.
//!
//! This is **not** used by the engine and does not ship with it.  It
//! exists so that this crate's `tests/queue_properties.rs` can proptest
//! the production [`EventQueue`](halotis::sim::queue::EventQueue) against
//! it (identical pop order including equal-time serial tie-breaks,
//! identical scheduled/filtered counts, identical behaviour after
//! `reset`, and staged stimulus fed lazily against the same stimulus
//! scheduled up front), and so the `event_queue` benchmark can report the
//! heap-vs-wheel ablation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use halotis::core::Time;
use halotis::sim::event::Event;
use halotis::sim::queue::ScheduleOutcome;

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
