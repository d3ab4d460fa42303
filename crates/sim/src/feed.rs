//! Primary-input stimulus as a stream.
//!
//! A run reads its stimulus through [`StimulusSource`]: per primary input
//! an initial level and a cursor over its transitions, which can be created
//! again to rewind.  [`Stimulus`] is one source; a corpus suite that
//! generates each input's transitions on demand is another.
//!
//! The [`StimulusFeed`] walks every input's cursor twice, storing nothing
//! per transition.  **Set-up** walks them in input-major order, reports
//! every transition and Fig. 4 cancellation to the observer, and counts
//! every event in the [`EventQueue`] as scheduling it up front would.  A
//! pin a primary input drives gets that input's events alone, so set-up
//! settles the pin's Fig. 4 outcomes for good: when an input's transitions
//! have non-decreasing starts, alternate in edge and share one slew, an
//! inserted event can only be cancelled by the very next event on its pin
//! (two same-edge events two apart are in order, and the one between them
//! was inserted later than the first), so set-up keeps one previous event
//! per pin.  The **feed** walks the cursors again, one transition of
//! lookahead each, as the event loop's clock advances: every transition
//! starting within half a wheel ring of the clock enters the queue, except
//! the events set-up cancelled, which the lookahead re-derives.  Each fed
//! event takes the serial set-up gave it — its input's base plus its
//! running count of insertions, cancelled ones included — so pop order,
//! equal-time ties, counters and the queue's high-water mark are exactly
//! those of scheduling the whole stimulus up front, while the queue holds
//! about one window of it.

use std::ops::Range;

use halotis_core::{Edge, LogicLevel, NetId, PinRef, Time, TimeDelta};
use halotis_waveform::{Stimulus, Transition};

use crate::event::Event;
use crate::observer::SimObserver;
use crate::queue::EventQueue;

/// What a run reads from its stimulus: each primary input's initial level
/// and a fresh cursor over its transitions, and one slew for them all.
///
/// Inputs are named by their position among the netlist's primary inputs
/// and by their net name; a source may go by either.  Every input's
/// transitions must have non-decreasing starts, alternate in edge and use
/// [`slew`](StimulusSource::slew) — the condition under which the
/// [`StimulusFeed`] reproduces the Fig. 4 rule without storing the
/// stimulus.
pub trait StimulusSource {
    /// A cursor over one input's transitions, in order.
    type Transitions<'a>: Iterator<Item = Transition>
    where
        Self: 'a;

    /// The slew of every transition.
    fn slew(&self) -> TimeDelta;

    /// The level primary input `index`, named `name`, holds before its
    /// first transition; `None` when the source does not drive it.
    fn initial(&self, index: usize, name: &str) -> Option<LogicLevel>;

    /// A fresh cursor over the transitions of primary input `index`, named
    /// `name`; empty for an input the source does not drive.
    fn transitions(&self, index: usize, name: &str) -> Self::Transitions<'_>;
}

/// A [`Stimulus`] goes by input name.  [`Stimulus::drive`] keeps every
/// input's transitions in order, alternating and at the default slew.
impl StimulusSource for Stimulus {
    type Transitions<'a> = std::iter::Copied<std::slice::Iter<'a, Transition>>;

    fn slew(&self) -> TimeDelta {
        self.default_slew()
    }

    fn initial(&self, _: usize, name: &str) -> Option<LogicLevel> {
        self.waveform(name).map(|waveform| waveform.initial())
    }

    fn transitions(&self, _: usize, name: &str) -> Self::Transitions<'_> {
        self.waveform(name)
            .map_or(&[][..], |waveform| waveform.transitions())
            .iter()
            .copied()
    }
}

/// A gate input pin a primary input drives, as the feed sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FeedPin {
    /// The pin's dense index in the [`EventQueue`].
    pub dense: usize,
    /// The pin.
    pub pin: PinRef,
    /// The `[rise, fall]` fraction of a transition's slew at which its
    /// ramp crosses the pin's threshold, each within `[0, 1]`.
    pub progress: [f64; 2],
}

/// One pin of the feed with its Fig. 4 state.
#[derive(Clone, Copy, Debug)]
struct PinState {
    pin: FeedPin,
    /// How long after a `[rise, fall]` transition's start its ramp crosses
    /// the pin's threshold (paper Fig. 3): fixed, as the input's
    /// transitions share one slew.
    delays: [TimeDelta; 2],
    /// Set-up: the time of the pin's previous event.  Feed: the time of its
    /// event of the input's next transition to feed.
    last: Time,
    /// Set-up: whether the pin's previous event was inserted.  Feed:
    /// whether its event of the input's next transition to feed was.
    inserted: bool,
}

impl PinState {
    /// The instant `transition`'s ramp crosses the pin's threshold.
    #[inline]
    fn crossing(&self, transition: &Transition) -> Time {
        let delay = match transition.edge() {
            Edge::Rise => self.delays[0],
            Edge::Fall => self.delays[1],
        };
        transition.start() + delay
    }
}

/// One primary input of the feed.
#[derive(Debug)]
struct FedInput<C> {
    cursor: C,
    /// The next transition to feed, and the one after it.
    next: Option<Transition>,
    after: Option<Transition>,
    /// The serial of the input's next inserted event.
    serial: u64,
    /// The input's pins in [`StimulusFeed::pins`].
    pins: Range<usize>,
}

/// Streams primary-input stimulus into an [`EventQueue`] (see the
/// [module docs](self)).
///
/// [`add_input`](StimulusFeed::add_input) runs one input's set-up; call it
/// for every input, in order, before the first
/// [`pop`](StimulusFeed::pop).  Between pops the caller may
/// [`schedule`](EventQueue::schedule) events on any pin no input drives;
/// they are numbered after every stimulus event.
///
/// # Example
///
/// ```
/// use halotis_core::{Edge, GateId, NetId, PinRef, Time, TimeDelta};
/// use halotis_sim::feed::{FeedPin, StimulusFeed};
/// use halotis_sim::queue::EventQueue;
/// use halotis_waveform::Transition;
///
/// let mut queue = EventQueue::new(1);
/// // A threshold at 75% of the swing.
/// let pin = FeedPin { dense: 0, pin: PinRef::new(GateId::new(0), 0), progress: [0.75, 0.25] };
/// let slew = TimeDelta::from_ps(400.0);
/// // A 100 ps pulse: its fall crosses the threshold before its rise does.
/// let pulse = [
///     Transition::new(Time::from_ns(1.0), slew, Edge::Rise),
///     Transition::new(Time::from_ns(1.1), slew, Edge::Fall),
///     Transition::new(Time::from_ns(5.0), slew, Edge::Rise),
/// ];
/// let mut feed = StimulusFeed::with_capacity(1, 1);
/// feed.add_input(&mut queue, &mut (), NetId::new(0), [pin], pulse, pulse.into_iter());
/// assert_eq!((queue.scheduled(), queue.filtered(), queue.len()), (2, 1, 1));
/// // The pulse never existed at this pin: only the last edge pops.
/// let popped: Vec<Time> = std::iter::from_fn(|| feed.pop(&mut queue))
///     .map(|(_, event)| event.time)
///     .collect();
/// assert_eq!(popped, vec![Time::from_ns(5.3)]);
/// ```
#[derive(Debug)]
pub struct StimulusFeed<C> {
    inputs: Vec<FedInput<C>>,
    /// Every input's pins, input by input.
    pins: Vec<PinState>,
    /// Every transition starting before the horizon has been fed.
    /// [`Time::MIN`] before the first feed.
    horizon: Time,
    /// The latest time the queue may pop: just before the horizon while
    /// inputs wait, [`Time::MAX`] once none does.
    through: Time,
    /// Transitions walked at set-up.
    transitions: usize,
}

impl<C: Iterator<Item = Transition>> StimulusFeed<C> {
    /// A feed with no inputs yet, and room for `inputs` primary inputs
    /// driving `pins` pins in all.
    pub fn with_capacity(inputs: usize, pins: usize) -> Self {
        StimulusFeed {
            inputs: Vec::with_capacity(inputs),
            pins: Vec::with_capacity(pins),
            horizon: Time::MIN,
            through: Time::MAX,
            transitions: 0,
        }
    }

    /// Runs the set-up of primary input `net`, which drives `pins`: walks
    /// `set_up` — the input's transitions — reporting each to `observer`,
    /// applies the Fig. 4 rule to the events each causes on `pins` in
    /// order, reporting every cancellation, and counts the outcomes in
    /// `queue`.  `cursor` is a fresh cursor over the same transitions,
    /// which the feed walks later.
    ///
    /// The transitions must have non-decreasing starts, alternate in edge
    /// and share one slew; debug builds check it.
    pub fn add_input<O: SimObserver + ?Sized>(
        &mut self,
        queue: &mut EventQueue,
        observer: &mut O,
        net: NetId,
        pins: impl IntoIterator<Item = FeedPin>,
        set_up: impl IntoIterator<Item = Transition>,
        mut cursor: C,
    ) {
        let first = self.pins.len();
        self.pins.extend(pins.into_iter().map(|pin| PinState {
            pin,
            delays: [TimeDelta::ZERO; 2],
            last: Time::MIN,
            inserted: false,
        }));
        let rows = first..self.pins.len();
        let mut inserted = 0;
        let mut previous: Option<Transition> = None;
        for transition in set_up {
            debug_assert!(
                previous.is_none_or(|previous| previous.start() <= transition.start()
                    && previous.edge() != transition.edge()
                    && previous.slew() == transition.slew()),
                "net {net:?}: {transition:?} does not follow {previous:?} in order, \
                 alternating and at one slew"
            );
            observer.on_transition(net, &transition);
            self.transitions += 1;
            for state in &mut self.pins[rows.clone()] {
                if previous.is_none() {
                    state.delays = state
                        .pin
                        .progress
                        .map(|progress| transition.slew().scale(progress));
                }
                let time = state.crossing(&transition);
                if state.inserted && time <= state.last {
                    // Fig. 4: the previous event is cancelled and this one
                    // is never inserted.
                    state.inserted = false;
                    queue.count_cancel();
                    observer.on_event_filtered(state.pin.pin, time);
                } else {
                    state.last = time;
                    state.inserted = true;
                    queue.count_insert();
                    inserted += 1;
                }
            }
            previous = Some(transition);
        }
        let serial = queue.reserve_serials(inserted);
        let next = cursor.next();
        let after = next.and_then(|_| cursor.next());
        if let Some(next) = next {
            self.through = Time::MIN;
            // Every pin's first event was inserted.
            for state in &mut self.pins[rows.clone()] {
                state.last = state.crossing(&next);
                state.inserted = true;
            }
        }
        self.inputs.push(FedInput {
            cursor,
            next,
            after,
            serial,
            pins: rows,
        });
    }

    /// The number of transitions set-up walked.
    pub fn transitions(&self) -> usize {
        self.transitions
    }

    /// Pops the earliest live event of `queue` with its dense pin index,
    /// feeding the next window of stimulus whenever the queue holds nothing
    /// before the horizon.
    #[inline]
    pub fn pop(&mut self, queue: &mut EventQueue) -> Option<(usize, Event)> {
        loop {
            if let Some(popped) = queue.pop_through(self.through) {
                return Some(popped);
            }
            if !self.refill(queue) {
                return None;
            }
        }
    }

    /// Called when the queue holds nothing up to `through`: moves the
    /// horizon one window past the later of itself and the earliest unfed
    /// start, feeds every transition starting before it, and lifts the
    /// bound once no input waits.  `false` when the bound was already
    /// lifted, so the queue is empty.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, queue: &mut EventQueue) -> bool {
        if self.through == Time::MAX {
            return false;
        }
        let earliest = self
            .inputs
            .iter()
            .filter_map(|input| input.next)
            .map(|next| next.start())
            .min();
        if let Some(start) = earliest {
            self.horizon = self.horizon.max(start).saturating_add(queue.feed_window());
        }
        let mut waiting = false;
        for index in 0..self.inputs.len() {
            while let Some(next) = self.inputs[index].next {
                if next.start() >= self.horizon && self.horizon != Time::MAX {
                    waiting = true;
                    break;
                }
                self.feed_next(queue, index);
            }
        }
        self.through = if waiting {
            self.horizon - TimeDelta::from_fs(1)
        } else {
            Time::MAX
        };
        true
    }

    /// Feeds input `index`'s next transition.  Each of its events that
    /// set-up inserted takes the input's next serial, and enters the queue
    /// unless the same pin's event of the following transition cancelled
    /// it.
    fn feed_next(&mut self, queue: &mut EventQueue, index: usize) {
        let input = &mut self.inputs[index];
        let transition = input.next.take().expect("a waiting input has a transition");
        let following = input.after;
        for state in &mut self.pins[input.pins.clone()] {
            let time = state.last;
            let following = following.map(|following| state.crossing(&following));
            if let Some(following) = following {
                state.last = following;
            }
            if !state.inserted {
                // Set-up discarded this event as it cancelled the previous
                // one, so it holds no serial and the next event is
                // inserted.
                state.inserted = true;
                continue;
            }
            let serial = input.serial;
            input.serial += 1;
            let cancelled = following.is_some_and(|following| following <= time);
            if !cancelled {
                let level = transition.edge().target_level();
                let event = Event::new(time, state.pin.pin, level, transition.slew());
                queue.feed(state.pin.dense, event, serial);
            }
            state.inserted = !cancelled;
        }
        input.next = following;
        input.after = following.and_then(|_| input.cursor.next());
    }
}
