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
//! Primary-input stimulus does not pass through
//! [`schedule`](EventQueue::schedule): a pin a primary input drives gets
//! that input's events alone, so the run's set-up settles every such pin's
//! Fig. 4 outcomes for good without storing them, and the
//! [`StimulusFeed`](crate::feed::StimulusFeed) later pushes each surviving
//! event into the wheel, one window ahead of the queue's clock, under the
//! serial set-up gave it.  Until then an event is counted as scheduled and
//! pending — [`len`](EventQueue::len) and
//! [`high_water`](EventQueue::high_water) include it — but holds no wheel
//! entry and no pending-list node.  Pop order, counters and the high-water
//! mark are exactly those of scheduling the whole stimulus up front;
//! `crates/bench/tests/queue_properties.rs` checks that against the retired
//! `BinaryHeap` + `HashSet` queue, which `halotis_bench` keeps as its
//! executable specification.

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
/// the arena costs one, reused via a free list.  A list can run deep — a
/// primary input's fed window of stimulus, or a gate input under a fast
/// pulse train — so the Fig. 4 cancellation (`pop_back`) follows the
/// tail's back link instead of walking from the head.
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

/// A feed reaches this fraction of the wheel's ring span past the queue's
/// clock: half a ring, which leaves the other half for a fed event's
/// distance from its transition's start and for the feed's lag.
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
    /// Pending events: the entries of all pending lists plus the stimulus
    /// events counted at set-up and not fed yet.
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
        if let Some(previous_time) = self.pending.back(pin_index) {
            if event.time <= previous_time {
                // Its wheel entry stays; the pop loop will drop it.
                self.pending.pop_back(pin_index);
                self.count_cancel();
                return ScheduleOutcome::CancelledPrevious;
            }
        }
        let serial = self.wheel.push(
            event.time,
            QueuedEvent {
                pin_index: pin_index as u32,
                event,
            },
        );
        self.pending.push_back(pin_index, event.time, serial);
        self.count_insert();
        ScheduleOutcome::Inserted
    }

    /// Counts an inserted event: scheduled and pending, and the high-water
    /// mark.  A stimulus event is counted here at set-up, while it is
    /// stored nowhere: it enters the wheel and its pin's pending list only
    /// when [`feed`](EventQueue::feed) pushes it.
    #[inline(always)]
    pub(crate) fn count_insert(&mut self) {
        self.live += 1;
        self.scheduled += 1;
        self.high_water = self.high_water.max(self.live);
    }

    /// Counts a Fig. 4 cancellation: the previous event on the pin leaves
    /// the pending count, and the cancelling one is never inserted.
    #[inline(always)]
    pub(crate) fn count_cancel(&mut self) {
        self.live -= 1;
        self.filtered += 1;
    }

    /// Reserves the next `count` serials for stimulus events fed later,
    /// returning the first: every event scheduled afterwards is numbered
    /// after them.
    pub(crate) fn reserve_serials(&mut self, count: u64) -> u64 {
        self.wheel.reserve_serials(count)
    }

    /// Pushes a stimulus event that set-up counted and that no cancellation
    /// removed into the wheel, under its reserved `serial`, and onto its
    /// pin's pending list.  The counters do not move: the event has been
    /// pending since set-up.
    #[inline]
    pub(crate) fn feed(&mut self, pin_index: usize, event: Event, serial: u64) {
        let queued = QueuedEvent {
            pin_index: pin_index as u32,
            event,
        };
        self.wheel.push_reserved(event.time, serial, queued);
        self.pending.push_back(pin_index, event.time, serial);
    }

    /// How far a feed reaches past the queue's clock: half the wheel's
    /// ring, so fed stimulus never lands in the far-future spill.
    pub(crate) fn feed_window(&self) -> TimeDelta {
        self.wheel.span() / FEED_WINDOW_DIVISOR
    }

    /// Re-dimensions the queue for another circuit (shrink allowed) and
    /// clears it back to the freshly constructed condition — the arena-reuse
    /// path behind [`SimState::reshape`](crate::SimState).
    pub(crate) fn reshape_pins(&mut self, pin_count: usize) {
        self.pending.reshape_pins(pin_count);
        self.clear();
    }

    /// Clears the queue back to its freshly constructed condition while
    /// keeping every allocation (wheel buckets, per-pin pending slots), so
    /// a reused [`SimState`](crate::SimState) arena schedules its next run
    /// without reallocating.
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
        self.live = 0;
        self.scheduled = 0;
        self.filtered = 0;
        self.high_water = 0;
    }

    /// Pops the earliest live event together with the dense pin index it was
    /// scheduled for, saving the caller the `PinRef` → dense re-resolution.
    pub fn pop_indexed(&mut self) -> Option<(usize, Event)> {
        self.pop_through(Time::MAX)
    }

    /// [`pop_indexed`](EventQueue::pop_indexed) limited to events at or
    /// before `last` — the event loop's entry point, bounded just short of
    /// the stimulus feed's horizon.
    ///
    /// Takes the earliest wheel entry and returns it if it is its pin's
    /// pending front; any other entry was cancelled and is dropped.
    #[inline]
    pub(crate) fn pop_through(&mut self, last: Time) -> Option<(usize, Event)> {
        loop {
            let (_, serial, queued) = self.wheel.pop_through(last)?;
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

    /// Number of pending events, stimulus not yet fed included.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no pending event remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events that were inserted into the queue, stimulus
    /// counted at set-up included.
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// Total number of Fig. 4 cancellations (each removes one pending event
    /// and discards the incoming one) — the paper's "filtered events".
    pub fn filtered(&self) -> usize {
        self.filtered
    }

    /// The largest number of pending events — unfed stimulus included — the
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
        use crate::feed::{FeedPin, StimulusFeed};
        use halotis_core::{Edge, NetId};
        use halotis_waveform::Transition;

        let mut queue = EventQueue::new(2);
        let late = Time::MAX - TimeDelta::from_fs(1);
        let mut feed = StimulusFeed::with_capacity(2, 2);
        for (pin, start) in [(0, Time::from_ns(1.0)), (1, late)] {
            let edge = [Transition::new(start, TimeDelta::from_fs(1), Edge::Rise)];
            let pin = FeedPin {
                dense: pin,
                pin: PinRef::new(GateId::new(pin as u32), 0),
                progress: [0.0, 1.0],
            };
            feed.add_input(
                &mut queue,
                &mut (),
                NetId::from_usize(pin.dense),
                [pin],
                edge,
                edge.into_iter(),
            );
        }
        // The second edge lies far past the first window: its feed clamps
        // the horizon at the end of time instead of overflowing.
        assert_eq!(queue.len(), 2);
        let mut pop = || feed.pop(&mut queue).map(|(_, e)| e.time);
        assert_eq!(pop(), Some(Time::from_ns(1.0)));
        assert_eq!(pop(), Some(late));
        assert_eq!(pop(), None);
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
