//! The HALOTIS event queue.
//!
//! The queue implements the scheduling rule of the paper's Fig. 4.  Events
//! are kept globally ordered by time, and *per gate input* the queue
//! remembers the pending (not yet simulated) events in arrival order.  When
//! a new event `Ej` is generated for an input that already has a pending
//! event `Ej-1`:
//!
//! * if `Ej` happens **after** `Ej-1`, it is inserted normally — the input
//!   sees both edges;
//! * otherwise `Ej-1` is **removed** from the queue and `Ej` is *not*
//!   inserted: the pulse bounded by the two events never existed for this
//!   particular input.  This is the paper's per-input inertial effect — the
//!   same pulse may survive on other inputs whose thresholds give different
//!   event times.
//!
//! The per-input pending lists are the only record of which events are
//! live: an event is live exactly while it sits in its input's list.
//! Storage is a bucketed [`TimeWheel`] (see [`wheel`](crate::wheel)) rather
//! than a binary heap: simulation timestamps cluster at gate-delay
//! granularity, so insert is an array index plus a push and pop scans one
//! small bucket.  A cancellation only unlinks the back of a pending list;
//! its wheel entry stays put, and the pop loop drops every entry that is
//! not the front of its input's list.  A live entry always is: each list
//! is in time order, so its front is the earliest of the input's live
//! events.  Nothing is hashed on either path.
//!
//! Stimulus is **staged**, not scheduled up front.  [`EventQueue::stage`]
//! applies the same Fig. 4 rule, numbers a surviving event as scheduling it
//! would and counts it as pending, but only an event whose transition
//! starts within the current window goes into the wheel at once; a later
//! one waits in a buffer, and is fed even if a cancellation took it off
//! its pending list meanwhile.  Pops feed the buffer into the wheel half a
//! ring ahead of the queue's clock, one window at a time, through the
//! wheel's bounded `pop_through`.  A long stimulus (the s27 soak stages
//! 20,050 events) therefore never crowds the wheel: its pending set spans
//! about one ring, the range in which a calendar queue stays `O(1)`,
//! instead of spilling into the far-future heap.  Pop order, counters and the
//! high-water mark are exactly those of scheduling the whole stimulus up
//! front; `crates/bench/tests/queue_properties.rs` checks that against the
//! retired `BinaryHeap` + `HashSet` queue, which `halotis_bench` keeps as
//! its executable specification.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use halotis_core::{Time, TimeDelta};

use crate::event::Event;
use crate::wheel::TimeWheel;

/// The outcome of [`EventQueue::schedule`], mirroring the two branches of
/// the Fig. 4 flowchart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleOutcome {
    /// The event was inserted (`Ej > Ej-1`, or no pending event existed).
    Inserted,
    /// The pending previous event on the same input was cancelled and the
    /// new event discarded (`Ej <= Ej-1`): the pulse is filtered at this
    /// input.
    CancelledPrevious,
}

/// Wheel payload: the event plus the dense pin index it targets.
#[derive(Clone, Copy, Debug)]
struct QueuedEvent {
    pin_index: u32,
    event: Event,
}

/// Null link of the pending lists.
const NIL: u32 = u32::MAX;

// The back link fills what would be padding: a node stays 24 bytes.
const _: () = assert!(std::mem::size_of::<(Time, u64, u32, u32)>() == 24);

/// The per-pin pending FIFOs of the Fig. 4 rule, as doubly linked lists
/// through one shared node arena.
///
/// A `Vec<VecDeque<_>>` layout costs one heap buffer per active pin per
/// state — a few hundred allocations per batch on corpus circuits — while
/// the arena costs one, reused via a free list.  A stimulus-fed pin keeps
/// its whole stimulus pending from set-up on, so the Fig. 4 cancellation
/// (`pop_back`) follows the tail's back link instead of walking from the
/// head.
#[derive(Clone, Debug)]
struct PendingLists {
    /// Arena node: `(event time, wheel serial, next toward the back, previous
    /// toward the front)`.  The head's previous link goes stale when
    /// `pop_front_if` unlinks its predecessor; it is never read, because
    /// `pop_back` follows the link only from a tail that is not the head.
    nodes: Vec<(Time, u64, u32, u32)>,
    /// Recycled arena indices.
    free: Vec<u32>,
    /// Per-pin front node (the pop side), [`NIL`] when empty.
    heads: Vec<u32>,
    /// Per-pin back node (the schedule side), [`NIL`] when empty.
    tails: Vec<u32>,
}

impl PendingLists {
    fn new(pin_count: usize) -> Self {
        PendingLists {
            nodes: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; pin_count],
            tails: vec![NIL; pin_count],
        }
    }

    /// The time of the most recently scheduled pending entry for `pin`.
    fn back(&self, pin: usize) -> Option<Time> {
        let tail = self.tails[pin];
        (tail != NIL).then(|| self.nodes[tail as usize].0)
    }

    #[inline(always)]
    fn push_back(&mut self, pin: usize, time: Time, serial: u64) {
        let tail = self.tails[pin];
        let node = (time, serial, NIL, tail);
        let index = match self.free.pop() {
            Some(index) => {
                self.nodes[index as usize] = node;
                index
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if tail == NIL {
            self.heads[pin] = index;
        } else {
            self.nodes[tail as usize].2 = index;
        }
        self.tails[pin] = index;
    }

    /// Removes `pin`'s front entry if it is the one numbered `serial`:
    /// `false` when that entry is no longer pending.
    #[inline(always)]
    fn pop_front_if(&mut self, pin: usize, serial: u64) -> bool {
        let head = self.heads[pin];
        if head == NIL {
            return false;
        }
        let (_, front, next, _) = self.nodes[head as usize];
        if front != serial {
            return false;
        }
        self.heads[pin] = next;
        if next == NIL {
            self.tails[pin] = NIL;
        }
        self.free.push(head);
        true
    }

    /// Removes the most recently scheduled entry (the Fig. 4 cancellation).
    fn pop_back(&mut self, pin: usize) {
        let tail = self.tails[pin];
        debug_assert_ne!(tail, NIL, "pop_back on an empty pending list");
        let head = self.heads[pin];
        if head == tail {
            self.heads[pin] = NIL;
            self.tails[pin] = NIL;
        } else {
            let previous = self.nodes[tail as usize].3;
            self.nodes[previous as usize].2 = NIL;
            self.tails[pin] = previous;
        }
        self.free.push(tail);
    }

    /// Empties every list, keeping the arena and the per-pin tables.
    fn reset(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.heads.fill(NIL);
        self.tails.fill(NIL);
    }

    /// Re-dimensions the per-pin tables for another circuit, dropping every
    /// queued node: the tables may shrink, so any node a vanished slot
    /// still referenced must go too — hence the full reset.
    fn reshape_pins(&mut self, pin_count: usize) {
        self.nodes.clear();
        self.free.clear();
        self.heads.clear();
        self.heads.resize(pin_count, NIL);
        self.tails.clear();
        self.tails.resize(pin_count, NIL);
    }
}

/// A staged stimulus event waiting for the feed horizon to reach it.
#[derive(Clone, Copy, Debug)]
struct StagedEvent {
    /// Start of the causing transition, no later than the event's time:
    /// the key the feed walks each run by.
    start: Time,
    serial: u64,
    queued: QueuedEvent,
}

/// A feed reaches this fraction of the wheel's ring span past the queue's
/// clock: half a ring, which leaves the other half for a fed event's
/// distance from its transition's start and for the cursor's lag.
const FEED_WINDOW_DIVISOR: i64 = 2;

/// Time-ordered event queue with the per-input cancellation rule.
///
/// # Example
///
/// ```
/// use halotis_core::{GateId, LogicLevel, PinRef, Time, TimeDelta};
/// use halotis_sim::event::Event;
/// use halotis_sim::queue::{EventQueue, ScheduleOutcome};
///
/// let mut queue = EventQueue::new(1);
/// let pin = PinRef::new(GateId::new(0), 0);
/// let event = |ns| Event::new(Time::from_ns(ns), pin, LogicLevel::High, TimeDelta::from_ps(100.0));
/// assert_eq!(queue.schedule(0, event(2.0)), ScheduleOutcome::Inserted);
/// // An event arriving *before* the pending one cancels it: the pulse is
/// // invisible to this input.
/// assert_eq!(queue.schedule(0, event(1.5)), ScheduleOutcome::CancelledPrevious);
/// assert!(queue.pop().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue {
    wheel: TimeWheel<QueuedEvent>,
    pending: PendingLists,
    /// Staged events not due when staged, in staging (and serial) order.
    staged: Vec<StagedEvent>,
    /// One entry per run of staged events whose starts never decrease and
    /// that still has events to feed: the start and index of its next
    /// event, earliest start first.
    runs: BinaryHeap<Reverse<(Time, usize)>>,
    /// Stimulus starting before the horizon is in the wheel; every waiting
    /// event starts at or after it.  [`Time::MIN`] until the first stage.
    horizon: Time,
    /// The latest time the wheel may pop: just before the horizon while
    /// runs wait, [`Time::MAX`] otherwise.
    through: Time,
    /// Pending events: the entries of all pending lists.
    live: usize,
    scheduled: usize,
    filtered: usize,
    high_water: usize,
}

impl EventQueue {
    /// Creates a queue for a circuit with `pin_count` gate input pins.
    pub fn new(pin_count: usize) -> Self {
        EventQueue {
            wheel: TimeWheel::new(),
            pending: PendingLists::new(pin_count),
            staged: Vec::new(),
            runs: BinaryHeap::new(),
            horizon: Time::MIN,
            through: Time::MAX,
            live: 0,
            scheduled: 0,
            filtered: 0,
            high_water: 0,
        }
    }

    /// Applies the Fig. 4 rule to a candidate event for the input with dense
    /// index `pin_index`.
    ///
    /// # Panics
    ///
    /// Panics if `pin_index` is out of range for the queue.
    pub fn schedule(&mut self, pin_index: usize, event: Event) -> ScheduleOutcome {
        if self.cancels_previous(pin_index, event.time) {
            return ScheduleOutcome::CancelledPrevious;
        }
        let serial = self.wheel.push(
            event.time,
            QueuedEvent {
                pin_index: pin_index as u32,
                event,
            },
        );
        self.inserted(pin_index, event.time, serial);
        ScheduleOutcome::Inserted
    }

    /// [`schedule`](EventQueue::schedule) for a stimulus event: the same
    /// Fig. 4 outcome, counters, high-water mark and serial, but a surviving
    /// event that starts a window or more past the queue's clock waits in
    /// the staging buffer until a pop feeds it to the wheel.
    ///
    /// `start` is the start of the transition causing the event, no later
    /// than `event.time`.  The first staged event sets the first window.
    /// Consecutive waiting events whose starts never decrease form one run,
    /// and each run is fed in order, so staging every input's transitions
    /// in order costs one run per input.
    ///
    /// # Example
    ///
    /// ```
    /// use halotis_core::{GateId, LogicLevel, PinRef, Time, TimeDelta};
    /// use halotis_sim::event::Event;
    /// use halotis_sim::queue::EventQueue;
    ///
    /// let mut queue = EventQueue::new(2);
    /// let event = |ns, pin| {
    ///     let pin = PinRef::new(GateId::new(pin), 0);
    ///     Event::new(Time::from_ns(ns), pin, LogicLevel::High, TimeDelta::from_ps(100.0))
    /// };
    /// // The second event lies a microsecond out: it waits to be fed.
    /// queue.stage(0, event(1.0, 0), Time::from_ns(1.0));
    /// queue.stage(0, event(1000.0, 0), Time::from_ns(1000.0));
    /// assert_eq!(queue.len(), 2);
    /// // A gate event scheduled at the same instant pops after the staged one.
    /// queue.schedule(1, event(1000.0, 1));
    /// let order: Vec<usize> = std::iter::from_fn(|| queue.pop())
    ///     .map(|e| e.pin.gate().index())
    ///     .collect();
    /// assert_eq!(order, vec![0, 0, 1]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `start` is later than `event.time`.
    pub fn stage(&mut self, pin_index: usize, event: Event, start: Time) -> ScheduleOutcome {
        assert!(start <= event.time, "an event precedes its transition");
        if self.cancels_previous(pin_index, event.time) {
            return ScheduleOutcome::CancelledPrevious;
        }
        if self.horizon == Time::MIN {
            self.horizon = start.saturating_add(self.window());
        }
        let queued = QueuedEvent {
            pin_index: pin_index as u32,
            event,
        };
        let serial = if self.due(start) {
            self.wheel.push(event.time, queued)
        } else {
            let serial = self.wheel.reserve_serial();
            // A decreasing start, or a last event already fed, begins a run.
            if self
                .staged
                .last()
                .is_none_or(|last| start < last.start || self.due(last.start))
            {
                self.runs.push(Reverse((start, self.staged.len())));
            }
            self.staged.push(StagedEvent {
                start,
                serial,
                queued,
            });
            self.through = self.horizon - TimeDelta::from_fs(1);
            serial
        };
        self.inserted(pin_index, event.time, serial);
        ScheduleOutcome::Inserted
    }

    /// The Fig. 4 test: when an event at `time` does not come after the
    /// input's latest pending event, takes that event off the pending list
    /// — wherever its entry is, wheel or staging buffer, the pop loop will
    /// drop it — and returns `true`.  This and
    /// [`inserted`](EventQueue::inserted) serve both `schedule` and
    /// `stage`, and are always inlined so `schedule`, the event loop's,
    /// stays one function.
    #[inline(always)]
    fn cancels_previous(&mut self, pin_index: usize, time: Time) -> bool {
        match self.pending.back(pin_index) {
            Some(previous_time) if time <= previous_time => {
                self.pending.pop_back(pin_index);
                self.live -= 1;
                self.filtered += 1;
                true
            }
            _ => false,
        }
    }

    /// Books an inserted event: the input's pending list, the counters and
    /// the high-water mark.
    #[inline(always)]
    fn inserted(&mut self, pin_index: usize, time: Time, serial: u64) {
        self.pending.push_back(pin_index, time, serial);
        self.live += 1;
        self.scheduled += 1;
        self.high_water = self.high_water.max(self.live);
    }

    /// How far a feed reaches past the queue's clock.
    fn window(&self) -> TimeDelta {
        self.wheel.span() / FEED_WINDOW_DIVISOR
    }

    /// `true` for a stimulus start the wheel already covers: before the
    /// horizon, or anything once the horizon reached the end of time.
    #[inline]
    fn due(&self, start: Time) -> bool {
        start < self.horizon || self.horizon == Time::MAX
    }

    /// Called when the wheel holds nothing up to `through`: moves the
    /// horizon one window past the later of itself and the earliest unfed
    /// start, pushes every waiting event whose transition starts before it
    /// into the wheel, and lifts the bound once no run waits.  `false`
    /// when the bound was already lifted, so the queue is empty.
    #[cold]
    #[inline(never)]
    fn feed(&mut self) -> bool {
        if self.through == Time::MAX {
            return false;
        }
        let &Reverse((next_start, _)) = self.runs.peek().expect("a bounded queue has staged runs");
        self.horizon = self.horizon.max(next_start).saturating_add(self.window());
        while let Some(&Reverse((start, first))) = self.runs.peek() {
            if !self.due(start) {
                break;
            }
            self.runs.pop();
            let mut index = first;
            loop {
                let staged = self.staged[index];
                self.wheel
                    .push_reserved(staged.queued.event.time, staged.serial, staged.queued);
                index += 1;
                match self.staged.get(index) {
                    // A decreasing start begins another run.
                    Some(next) if next.start < staged.start => break,
                    Some(next) if !self.due(next.start) => {
                        self.runs.push(Reverse((next.start, index)));
                        break;
                    }
                    Some(_) => {}
                    None => break,
                }
            }
        }
        self.through = if self.runs.is_empty() {
            Time::MAX
        } else {
            self.horizon - TimeDelta::from_fs(1)
        };
        true
    }

    /// Re-dimensions the queue for another circuit (shrink allowed) and
    /// clears it back to the freshly constructed condition — the arena-reuse
    /// path behind [`SimState::reshape`](crate::SimState).
    pub(crate) fn reshape_pins(&mut self, pin_count: usize) {
        self.pending.reshape_pins(pin_count);
        self.clear();
    }

    /// Clears the queue back to its freshly constructed condition while
    /// keeping every allocation (wheel buckets, per-pin pending slots, the
    /// staging buffer), so a reused [`SimState`](crate::SimState) arena
    /// schedules its next run without reallocating.
    ///
    /// The serial counter restarts at zero too: equal-time events are
    /// ordered by insertion serial, so a reset queue must hand out the same
    /// serials a fresh queue would for runs to be bit-identical.
    pub fn reset(&mut self) {
        self.pending.reset();
        self.clear();
    }

    /// Everything [`reset`](EventQueue::reset) does besides the pending
    /// lists.
    fn clear(&mut self) {
        self.wheel.reset();
        self.staged.clear();
        self.runs.clear();
        self.horizon = Time::MIN;
        self.through = Time::MAX;
        self.live = 0;
        self.scheduled = 0;
        self.filtered = 0;
        self.high_water = 0;
    }

    /// Pops the earliest live event together with the dense pin index it was
    /// scheduled for — the engine's hot-loop entry point, saving it the
    /// `PinRef` → dense re-resolution.
    ///
    /// Takes the earliest wheel entry, feeding staged stimulus when the
    /// wheel runs dry, and returns it if it is its pin's pending front;
    /// any other entry was cancelled and is dropped.
    #[inline]
    pub fn pop_indexed(&mut self) -> Option<(usize, Event)> {
        loop {
            let Some((_, serial, queued)) = self.wheel.pop_through(self.through) else {
                if self.feed() {
                    continue;
                }
                return None;
            };
            let pin_index = queued.pin_index as usize;
            if self.pending.pop_front_if(pin_index, serial) {
                self.live -= 1;
                return Some((pin_index, queued.event));
            }
        }
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_indexed().map(|(_, event)| event)
    }

    /// Number of pending events, staged ones included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no pending event remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events that were inserted into the queue, staged
    /// ones included.
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// Total number of Fig. 4 cancellations (each removes one pending event
    /// and discards the incoming one) — the paper's "filtered events".
    pub fn filtered(&self) -> usize {
        self.filtered
    }

    /// The largest number of pending events — staged ones included — the
    /// queue held at any instant since construction or the last
    /// [`reset`](EventQueue::reset): the queue-depth high-water mark of the
    /// soak-scenario event-budget telemetry.  Sampled after every
    /// insertion, so cancellations can never hide a peak, and equal to what
    /// scheduling the stimulus up front would give.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::{GateId, LogicLevel, PinRef, TimeDelta};
    use proptest::prelude::*;

    fn event(ns: f64, pin_index: u32) -> Event {
        Event::new(
            Time::from_ns(ns),
            PinRef::new(GateId::new(pin_index), 0),
            LogicLevel::High,
            TimeDelta::from_ps(100.0),
        )
    }

    #[test]
    fn events_pop_in_time_order_across_pins() {
        let mut queue = EventQueue::new(3);
        queue.schedule(0, event(3.0, 0));
        queue.schedule(1, event(1.0, 1));
        queue.schedule(2, event(2.0, 2));
        let order: Vec<f64> = std::iter::from_fn(|| queue.pop())
            .map(|e| e.time.as_ns())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
        assert!(queue.is_empty());
        assert_eq!(queue.scheduled(), 3);
        assert_eq!(queue.filtered(), 0);
    }

    #[test]
    fn later_event_on_same_pin_is_appended() {
        let mut queue = EventQueue::new(1);
        assert_eq!(queue.schedule(0, event(1.0, 0)), ScheduleOutcome::Inserted);
        assert_eq!(queue.schedule(0, event(2.0, 0)), ScheduleOutcome::Inserted);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop().unwrap().time, Time::from_ns(1.0));
        assert_eq!(queue.pop().unwrap().time, Time::from_ns(2.0));
    }

    #[test]
    fn earlier_event_cancels_pending_one() {
        let mut queue = EventQueue::new(1);
        queue.schedule(0, event(2.0, 0));
        assert_eq!(
            queue.schedule(0, event(1.5, 0)),
            ScheduleOutcome::CancelledPrevious
        );
        assert_eq!(queue.len(), 0);
        assert!(queue.pop().is_none());
        assert_eq!(queue.filtered(), 1);
        assert_eq!(queue.scheduled(), 1);
    }

    #[test]
    fn equal_time_event_also_cancels() {
        let mut queue = EventQueue::new(1);
        queue.schedule(0, event(2.0, 0));
        assert_eq!(
            queue.schedule(0, event(2.0, 0)),
            ScheduleOutcome::CancelledPrevious
        );
        assert!(queue.is_empty());
    }

    #[test]
    fn cancelled_entries_never_pop_and_len_tracks_live() {
        let mut queue = EventQueue::new(2);
        queue.schedule(0, event(1.0, 0));
        queue.schedule(1, event(2.0, 1));
        // Cancels the 1.0 ns event, whose wheel entry surfaces first and is
        // dropped.
        queue.schedule(0, event(0.5, 0));
        assert_eq!(queue.len(), 1);
        assert_eq!(
            queue.pop_indexed().map(|(pin, e)| (pin, e.time)),
            Some((1, Time::from_ns(2.0)))
        );
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn cancelled_spill_entry_never_pops() {
        let mut queue = EventQueue::new(2);
        queue.schedule(0, event(1.0, 0));
        // A millisecond out, far beyond the ring: the entry waits in the
        // wheel's spill heap, and is dropped when it migrates back.
        queue.schedule(1, event(1.0e6, 1));
        queue.schedule(1, event(1.0e6, 1));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.pop().map(|e| e.time), Some(Time::from_ns(1.0)));
        assert_eq!(queue.pop(), None);
        assert!(queue.is_empty());
    }

    #[test]
    fn cancellation_only_touches_the_latest_pending_event() {
        let mut queue = EventQueue::new(1);
        queue.schedule(0, event(1.0, 0));
        queue.schedule(0, event(3.0, 0));
        // This event lands before the 3.0 ns one: they annihilate, but the
        // 1.0 ns event survives.
        queue.schedule(0, event(2.0, 0));
        assert_eq!(queue.len(), 1);
        assert_eq!(queue.pop().unwrap().time, Time::from_ns(1.0));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn consumed_events_do_not_block_new_ones() {
        let mut queue = EventQueue::new(1);
        queue.schedule(0, event(1.0, 0));
        assert_eq!(queue.pop().unwrap().time, Time::from_ns(1.0));
        // The previous event was consumed, not pending: an earlier-looking
        // new event is simply inserted.
        assert_eq!(queue.schedule(0, event(0.5, 0)), ScheduleOutcome::Inserted);
        assert_eq!(queue.pop().unwrap().time, Time::from_ns(0.5));
    }

    #[test]
    fn reset_restores_a_fresh_queue() {
        let mut queue = EventQueue::new(2);
        queue.schedule(0, event(2.0, 0));
        queue.schedule(0, event(1.5, 0)); // cancels the pending event
        queue.schedule(1, event(3.0, 1));
        queue.reset();
        assert!(queue.is_empty());
        assert_eq!(queue.scheduled(), 0);
        assert_eq!(queue.filtered(), 0);
        // Scheduling after a reset behaves exactly like a fresh queue,
        // including the serial-based tie-break for equal-time events.
        assert_eq!(queue.schedule(0, event(1.0, 0)), ScheduleOutcome::Inserted);
        assert_eq!(queue.schedule(1, event(1.0, 1)), ScheduleOutcome::Inserted);
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop())
            .map(|e| e.pin.gate().index())
            .collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn high_water_tracks_the_peak_live_depth() {
        let mut queue = EventQueue::new(3);
        assert_eq!(queue.high_water(), 0);
        queue.schedule(0, event(1.0, 0));
        queue.schedule(1, event(2.0, 1));
        queue.schedule(2, event(3.0, 2));
        assert_eq!(queue.high_water(), 3);
        // Draining does not lower the mark.
        while queue.pop().is_some() {}
        assert_eq!(queue.high_water(), 3);
        // Nor does a cancellation rewind it.
        queue.schedule(0, event(5.0, 0));
        queue.schedule(0, event(4.0, 0));
        assert_eq!(queue.high_water(), 3);
        queue.reset();
        assert_eq!(queue.high_water(), 0);
    }

    #[test]
    fn independent_pins_do_not_interact() {
        let mut queue = EventQueue::new(2);
        queue.schedule(0, event(2.0, 0));
        assert_eq!(queue.schedule(1, event(1.0, 1)), ScheduleOutcome::Inserted);
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn pop_indexed_returns_the_scheduled_dense_index() {
        let mut queue = EventQueue::new(5);
        queue.schedule(4, event(2.0, 9));
        queue.schedule(2, event(1.0, 7));
        assert_eq!(queue.pop_indexed().map(|(pin, _)| pin), Some(2));
        assert_eq!(queue.pop_indexed().map(|(pin, _)| pin), Some(4));
        assert_eq!(queue.pop_indexed(), None);
    }

    #[test]
    fn stimulus_at_the_end_of_time_is_fed_without_wrapping() {
        let mut queue = EventQueue::new(2);
        let late = Time::MAX - TimeDelta::from_fs(1);
        let last = Event::new(
            late,
            PinRef::new(GateId::new(1), 0),
            LogicLevel::High,
            TimeDelta::ZERO,
        );
        queue.stage(0, event(1.0, 0), Time::from_ns(1.0));
        // Far past the first window: it waits, and its feed clamps the
        // horizon at the end of time instead of overflowing.
        queue.stage(1, last, late);
        assert_eq!(queue.pop().map(|e| e.time), Some(Time::from_ns(1.0)));
        assert_eq!(queue.pop().map(|e| e.time), Some(late));
        assert_eq!(queue.pop(), None);
    }

    proptest! {
        #[test]
        fn prop_pops_are_time_ordered(times in proptest::collection::vec(0.0f64..100.0, 1..50)) {
            let mut queue = EventQueue::new(times.len());
            for (pin, &t) in times.iter().enumerate() {
                queue.schedule(pin, event(t, pin as u32));
            }
            let mut previous = Time::MIN;
            while let Some(e) = queue.pop() {
                prop_assert!(e.time >= previous);
                previous = e.time;
            }
        }

        #[test]
        fn prop_per_pin_pending_times_strictly_increase(times in proptest::collection::vec(0.0f64..100.0, 1..50)) {
            // All events target the same pin: after arbitrary scheduling the
            // surviving events must come out strictly increasing (the
            // cancellation rule guarantees it).
            let mut queue = EventQueue::new(1);
            for &t in &times {
                queue.schedule(0, event(t, 0));
            }
            let popped: Vec<Time> = std::iter::from_fn(|| queue.pop()).map(|e| e.time).collect();
            for pair in popped.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
            prop_assert_eq!(queue.scheduled() - popped.len(), queue.filtered());
        }
    }
}
