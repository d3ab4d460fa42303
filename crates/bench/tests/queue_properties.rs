//! Property tests for the HALOTIS event queue (`halotis::sim::queue`).
//!
//! The queue implements the per-input insert/cancel rule of the paper's
//! Fig. 4: a new event on an input that already has a pending event either
//! appends (if strictly later) or annihilates with the *latest* pending
//! event (the runt pulse never existed for that input).  These tests drive
//! the queue with arbitrary schedules and check it against both global
//! invariants and an executable reference model of the flowchart — and
//! against the retired `BinaryHeap` + `HashSet` implementation
//! ([`ReferenceEventQueue`], kept verbatim in this crate's library as the
//! executable specification of the ordering contract).  Stimulus streamed
//! through a [`StimulusFeed`] — counted at set-up, fed to the wheel one
//! window at a time, storing nothing per transition — must match the
//! reference with the same stimulus scheduled up front.
//!
//! The queue decides liveness in one place: a popped wheel entry counts
//! only if it is the front of its pin's pending list.  Every drain below
//! compares each pop (and the live length) with the reference, whose
//! liveness is a separate `HashSet` of cancelled serials, so a dropped
//! live event or a returned cancelled one fails in every build profile.

use halotis::core::{Edge, GateId, LogicLevel, NetId, PinRef, Time, TimeDelta};
use halotis::sim::event::Event;
use halotis::sim::feed::{FeedPin, StimulusFeed};
use halotis::sim::queue::{EventQueue, ScheduleOutcome};
use halotis::waveform::Transition;
use halotis_bench::reference::ReferenceEventQueue;
use proptest::prelude::*;
use std::collections::VecDeque;

const PINS: usize = 8;

fn event(time_fs: i64, pin: usize) -> Event {
    Event::new(
        Time::from_fs(time_fs),
        PinRef::new(GateId::new(pin as u32), 0),
        LogicLevel::High,
        TimeDelta::from_ps(100.0),
    )
}

/// Executable reference model of the Fig. 4 rule: per input, keep pending
/// events in arrival order; a candidate at `t` later than the latest pending
/// event is appended, otherwise it annihilates with exactly that latest
/// pending event.  Returns the surviving events as `(time, serial, pin)`,
/// where `serial` numbers insertions globally (the queue's FIFO tie-break).
fn reference_schedule(schedule: &[(usize, i64)]) -> Vec<(i64, u64, usize)> {
    let mut pending: Vec<Vec<(i64, u64)>> = vec![Vec::new(); PINS];
    let mut serial = 0u64;
    for &(pin, time) in schedule {
        match pending[pin].last() {
            Some(&(previous, _)) if time <= previous => {
                pending[pin].pop();
            }
            _ => {
                pending[pin].push((time, serial));
                serial += 1;
            }
        }
    }
    let mut survivors: Vec<(i64, u64, usize)> = pending
        .iter()
        .enumerate()
        .flat_map(|(pin, events)| {
            events
                .iter()
                .map(move |&(time, serial)| (time, serial, pin))
        })
        .collect();
    survivors.sort();
    survivors
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue never pops out of global time order, whatever interleaving
    /// of inserts and cancellations the schedule produces.
    #[test]
    fn pops_never_go_backwards_in_time(
        schedule in proptest::collection::vec((0usize..PINS, 0i64..10_000), 1..200),
    ) {
        let mut queue = EventQueue::new(PINS);
        for &(pin, time) in &schedule {
            queue.schedule(pin, event(time, pin));
        }
        let mut previous = Time::MIN;
        while let Some(popped) = queue.pop() {
            prop_assert!(popped.time >= previous, "pop went backwards in time");
            previous = popped.time;
        }
    }

    /// Per input, surviving events always come out strictly increasing: the
    /// cancellation rule forbids two pending events at the same instant on
    /// one input.
    #[test]
    fn per_pin_pops_strictly_increase(
        schedule in proptest::collection::vec((0usize..PINS, 0i64..10_000), 1..200),
    ) {
        let mut queue = EventQueue::new(PINS);
        for &(pin, time) in &schedule {
            queue.schedule(pin, event(time, pin));
        }
        let mut last_per_pin = [Time::MIN; PINS];
        while let Some(popped) = queue.pop() {
            let pin = popped.pin.gate().index();
            prop_assert!(
                popped.time > last_per_pin[pin],
                "same-input events must pop at strictly increasing times"
            );
            last_per_pin[pin] = popped.time;
        }
    }

    /// The queue agrees exactly with the executable Fig. 4 reference model:
    /// a cancellation removes exactly the latest pending event on that input
    /// and nothing else, on any input.
    #[test]
    fn queue_matches_reference_model(
        schedule in proptest::collection::vec((0usize..PINS, 0i64..10_000), 1..200),
    ) {
        let mut queue = EventQueue::new(PINS);
        for &(pin, time) in &schedule {
            queue.schedule(pin, event(time, pin));
        }
        let expected = reference_schedule(&schedule);
        prop_assert_eq!(queue.len(), expected.len());
        let mut popped = Vec::new();
        while let Some(event) = queue.pop() {
            popped.push((event.time.as_fs(), event.pin.gate().index()));
        }
        let expected: Vec<(i64, usize)> =
            expected.into_iter().map(|(time, _, pin)| (time, pin)).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Bookkeeping invariant: every scheduled event is either popped or
    /// accounted for by exactly one cancellation.
    #[test]
    fn scheduled_minus_filtered_equals_popped(
        schedule in proptest::collection::vec((0usize..PINS, 0i64..10_000), 1..200),
    ) {
        let mut queue = EventQueue::new(PINS);
        let mut outcomes = (0usize, 0usize);
        for &(pin, time) in &schedule {
            match queue.schedule(pin, event(time, pin)) {
                ScheduleOutcome::Inserted => outcomes.0 += 1,
                ScheduleOutcome::CancelledPrevious => outcomes.1 += 1,
            }
        }
        prop_assert_eq!(queue.scheduled(), outcomes.0);
        prop_assert_eq!(queue.filtered(), outcomes.1);
        let popped = std::iter::from_fn(|| queue.pop()).count();
        prop_assert_eq!(queue.scheduled() - queue.filtered(), popped);
    }
}

/// Feeds the same schedule to the production wheel-backed queue and the
/// retired heap-backed [`ReferenceEventQueue`], popping `drain` times after
/// every `pop_stride`-th schedule call, and asserts both queues agree on
/// every observable: each popped [`Event`] (so equal-time pops must resolve
/// the serial tie-break identically), the live length, and the
/// scheduled/filtered counters.  Returns the events both queues popped.
fn assert_queues_agree(
    pin_count: usize,
    schedule: &[(usize, i64)],
    pop_stride: usize,
) -> Vec<Event> {
    let mut wheel = EventQueue::new(pin_count);
    let mut heap = ReferenceEventQueue::new(pin_count);
    let mut popped = Vec::new();
    let mut compare_pop = |wheel: &mut EventQueue, heap: &mut ReferenceEventQueue| {
        let ours = wheel.pop();
        let reference = heap.pop();
        assert_eq!(ours, reference, "pop order diverged from the heap queue");
        if let Some(event) = ours {
            popped.push(event);
        }
    };
    for (step, &(pin, time)) in schedule.iter().enumerate() {
        let candidate = event(time, pin);
        assert_eq!(
            wheel.schedule(pin, candidate),
            heap.schedule(pin, candidate),
            "schedule outcome diverged at step {step}"
        );
        if pop_stride != 0 && step % pop_stride == pop_stride - 1 {
            compare_pop(&mut wheel, &mut heap);
        }
        assert_eq!(wheel.len(), heap.len());
    }
    loop {
        let before = wheel.len();
        compare_pop(&mut wheel, &mut heap);
        if before == 0 {
            break;
        }
    }
    assert_eq!(wheel.scheduled(), heap.scheduled());
    assert_eq!(wheel.filtered(), heap.filtered());
    assert!(wheel.is_empty() && heap.is_empty());
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The wheel-backed queue is observationally identical to the retired
    /// binary-heap implementation on arbitrary schedules: same pop order
    /// (including equal-time serial tie-breaks — the narrow time domain
    /// forces collisions), same counters, same lengths throughout.
    #[test]
    fn wheel_queue_matches_heap_reference(
        schedule in proptest::collection::vec((0usize..PINS, 0i64..600), 1..250),
        pop_stride in 0usize..6,
    ) {
        assert_queues_agree(PINS, &schedule, pop_stride);
    }

    /// After `reset()` both implementations behave like fresh queues: serial
    /// numbering restarts, so the second half's equal-time tie-breaks must
    /// again agree event for event.
    #[test]
    fn wheel_queue_matches_heap_reference_after_reset(
        first in proptest::collection::vec((0usize..PINS, 0i64..600), 1..120),
        second in proptest::collection::vec((0usize..PINS, 0i64..600), 1..120),
        pops_before_reset in 0usize..8,
    ) {
        let mut wheel = EventQueue::new(PINS);
        let mut heap = ReferenceEventQueue::new(PINS);
        for &(pin, time) in &first {
            let candidate = event(time, pin);
            prop_assert_eq!(wheel.schedule(pin, candidate), heap.schedule(pin, candidate));
        }
        for _ in 0..pops_before_reset {
            prop_assert_eq!(wheel.pop(), heap.pop());
        }
        wheel.reset();
        heap.reset();
        prop_assert_eq!(wheel.len(), 0);
        prop_assert_eq!(wheel.scheduled(), 0);
        prop_assert_eq!(wheel.filtered(), 0);
        for &(pin, time) in &second {
            let candidate = event(time, pin);
            prop_assert_eq!(wheel.schedule(pin, candidate), heap.schedule(pin, candidate));
        }
        loop {
            let ours = wheel.pop();
            let reference = heap.pop();
            prop_assert_eq!(ours, reference);
            if ours.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.scheduled(), heap.scheduled());
        prop_assert_eq!(wheel.filtered(), heap.filtered());
    }
}

/// Stimulus inputs of the streamed-stimulus property: input `k` drives
/// pins `2k` and `2k + 1`, and the remaining pins up to [`PINS`] only ever
/// get scheduled events, as in the engine, where a pin a primary input
/// drives gets that input's events alone.
const STIMULUS_INPUTS: usize = 3;
/// The time grid of the streamed-stimulus property: 2^23 fs, an eighth of
/// the feed window (half the default wheel's 2^27-fs ring), so event times
/// also land exactly on feed horizons.
const UNIT: i64 = 1 << 23;
/// Gaps between an input's successive transition starts, in units: equal
/// starts, a fraction of a window, one window, and many windows.
const GAPS: [i64; 5] = [0, 1, 3, 8, 120];
/// Transition slews in units, one per input stream.
const SLEWS: [i64; 3] = [0, 4, 8];
/// Threshold crossings as `[rise, fall]` fractions of the slew, one per
/// pin: a high threshold lets a fall that closely follows a rise cross
/// first, which is the Fig. 4 cancellation.
const PROGRESS: [[f64; 2]; 5] = [
    [0.0, 1.0],
    [0.25, 0.75],
    [0.5, 0.5],
    [0.75, 0.25],
    [1.0, 0.0],
];
/// Delays of the scheduled events after the pop that causes them, in
/// units: slightly into the past, at the same instant, and up to three
/// windows on.
const DELAYS: [i64; 5] = [-1, 0, 1, 2, 24];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Stimulus streamed through a `StimulusFeed` is observationally
    /// identical to the reference queue with the same stimulus scheduled
    /// up front, while events are scheduled between pops: same pop
    /// sequence (all times sit on the [`UNIT`] grid, so equal-time serial
    /// tie-breaks between stimulus and scheduled events are common), same
    /// lengths, and the same scheduled, filtered and high-water counts.
    /// Each input's transitions start in order, alternate in edge and
    /// share one slew — what a stimulus source guarantees — and their
    /// events fall at a per-pin fraction of it, so a transition closely
    /// following another cancels it on some pins.
    #[test]
    fn streamed_stimulus_matches_up_front_reference(
        gaps in proptest::collection::vec((0usize..STIMULUS_INPUTS, 0usize..5), 1..60),
        slews in proptest::collection::vec(0usize..3, STIMULUS_INPUTS),
        progress in proptest::collection::vec(0usize..5, 2 * STIMULUS_INPUTS),
        scheduled in proptest::collection::vec((2 * STIMULUS_INPUTS..PINS, 0usize..5), 0..80),
    ) {
        let mut queue = EventQueue::new(PINS);
        let mut reference = ReferenceEventQueue::new(PINS);
        let mut reference_high_water = 0;
        let mut feed = StimulusFeed::with_capacity(STIMULUS_INPUTS, 2 * STIMULUS_INPUTS);
        for input in 0..STIMULUS_INPUTS {
            let slew = TimeDelta::from_fs(SLEWS[slews[input]] * UNIT);
            let mut start = 0;
            let mut edge = Edge::Rise;
            let mut transitions = Vec::new();
            for &(_, gap) in gaps.iter().filter(|(of, _)| *of == input) {
                start += GAPS[gap] * UNIT;
                transitions.push(Transition::new(Time::from_fs(start), slew, edge));
                edge = edge.inverted();
            }
            let pins: Vec<FeedPin> = [2 * input, 2 * input + 1]
                .into_iter()
                .map(|pin| FeedPin {
                    dense: pin,
                    pin: PinRef::new(GateId::new(pin as u32), 0),
                    progress: PROGRESS[progress[pin]],
                })
                .collect();
            // The reference schedules in the engine's set-up order: each
            // transition's pins in order.
            for transition in &transitions {
                for pin in &pins {
                    let edge_index = usize::from(transition.edge() == Edge::Fall);
                    let slew = transition.slew();
                    let time = transition.start() + slew.scale(pin.progress[edge_index]);
                    let level = transition.edge().target_level();
                    reference.schedule(pin.dense, Event::new(time, pin.pin, level, slew));
                    reference_high_water = reference_high_water.max(reference.len());
                }
            }
            feed.add_input(
                &mut queue,
                &mut (),
                NetId::from_usize(input),
                pins,
                transitions.iter().copied(),
                transitions.clone().into_iter(),
            );
            prop_assert_eq!(queue.len(), reference.len());
        }
        prop_assert_eq!(queue.scheduled(), reference.scheduled());
        prop_assert_eq!(queue.filtered(), reference.filtered());
        let mut scheduled = scheduled.into_iter();
        loop {
            let ours = feed.pop(&mut queue).map(|(_, event)| event);
            prop_assert_eq!(ours, reference.pop());
            let Some(popped) = ours else { break };
            if let Some((pin, delay)) = scheduled.next() {
                let time = popped.time.as_fs() + DELAYS[delay] * UNIT;
                let candidate = event(time, pin);
                prop_assert_eq!(queue.schedule(pin, candidate), reference.schedule(pin, candidate));
                reference_high_water = reference_high_water.max(reference.len());
            }
            prop_assert_eq!(queue.len(), reference.len());
        }
        prop_assert_eq!(queue.scheduled(), reference.scheduled());
        prop_assert_eq!(queue.filtered(), reference.filtered());
        prop_assert_eq!(queue.high_water(), reference_high_water);
        prop_assert!(queue.is_empty());
    }
}

/// Wheel-vs-heap equivalence on schedules with *real* timestamp
/// distributions: every corpus circuit is simulated, its net transition
/// times are folded onto a small pin set (so ascending per-net streams
/// interleave into non-monotone per-pin sequences and the Fig. 4
/// cancellation fires), and both queues must agree on the entire run.
/// Synthetic uniform schedules (above) miss the gate-delay clustering that
/// the wheel's bucket geometry is tuned for; this is the distribution the
/// production queue actually serves.
#[test]
fn corpus_circuit_schedules_match_heap_reference() {
    use halotis::corpus::standard_corpus;
    use halotis::netlist::technology;
    use halotis::sim::CompiledCircuit;

    const FOLDED_PINS: usize = 8;
    let library = technology::cmos06();
    let mut checked_entries = 0;
    let mut total_events = 0usize;
    for entry in standard_corpus() {
        // The big ISCAS parses dominate runtime without adding new timestamp
        // shapes; a gate-count cap keeps this test in tier-1 time.
        if entry.netlist.gate_count() > 64 {
            continue;
        }
        let circuit = CompiledCircuit::compile(&entry.netlist, &library).expect("corpus compiles");
        let scenarios = entry.scenarios(&library);
        let scenario = scenarios.first().expect("every corpus entry has scenarios");
        let result = circuit
            .run(&scenario.stimulus, &scenario.config)
            .expect("corpus scenario runs");

        let mut schedule: Vec<(i64, usize, usize)> = Vec::new();
        for (order, (name, waveform)) in result.waveforms().iter().enumerate() {
            let net_index = entry
                .netlist
                .net_id(name)
                .expect("traced nets exist in the netlist")
                .index();
            for transition in waveform.transitions() {
                schedule.push((transition.start().as_fs(), order, net_index % FOLDED_PINS));
            }
        }
        // Causal feed order: by time, then trace order — deterministic, and
        // equal-time events from different nets exercise the serial
        // tie-break with realistic clustering.
        schedule.sort_unstable();
        let schedule: Vec<(usize, i64)> = schedule
            .into_iter()
            .map(|(time, _, pin)| (pin, time))
            .collect();
        if schedule.is_empty() {
            continue;
        }
        total_events += schedule.len();
        assert_queues_agree(FOLDED_PINS, &schedule, 3);
        checked_entries += 1;
    }
    assert!(
        checked_entries >= 5 && total_events > 200,
        "corpus-derived coverage collapsed: {checked_entries} entries, {total_events} events"
    );
}

/// Directed Fig. 4 runt-pulse scenario: the cancelling event removes exactly
/// the latest pending event on its input, leaving earlier events on the same
/// input and every other input untouched.
#[test]
fn cancelling_removes_exactly_the_pending_event() {
    let mut queue = EventQueue::new(2);
    assert_eq!(
        queue.schedule(0, event(2_000, 0)),
        ScheduleOutcome::Inserted
    );
    assert_eq!(
        queue.schedule(0, event(5_000, 0)),
        ScheduleOutcome::Inserted
    );
    assert_eq!(
        queue.schedule(1, event(3_000, 1)),
        ScheduleOutcome::Inserted
    );
    // The runt: arrives before the pending 5 000 fs event on input 0, so the
    // two annihilate — per Fig. 4 the pulse never existed for input 0.
    assert_eq!(
        queue.schedule(0, event(4_000, 0)),
        ScheduleOutcome::CancelledPrevious
    );
    assert_eq!(queue.len(), 2);
    assert_eq!(queue.filtered(), 1);
    let popped: Vec<(i64, usize)> = std::iter::from_fn(|| queue.pop())
        .map(|e| (e.time.as_fs(), e.pin.gate().index()))
        .collect();
    assert_eq!(popped, vec![(2_000, 0), (3_000, 1)]);
}

/// One pin's pending list, thousands of events deep, is cancelled from its
/// back over and over — several times in a row, with appends in between
/// and pops taking its front — and every outcome, length and pop must
/// match the reference queue.  Most of the list lies beyond the wheel's
/// ring, in its far-future spill, when the cancellations start.
#[test]
fn deep_pending_list_cancels_from_its_back() {
    const DEPTH: i64 = 4_000;
    const SPACING_FS: i64 = 100_000;
    let mut queue = EventQueue::new(1);
    let mut reference = ReferenceEventQueue::new(1);
    // The pin's pending times, front first, as the Fig. 4 rule leaves them.
    let mut pending = VecDeque::new();
    /// Offers an event at `time` to both queues, checks that they agree,
    /// and books the outcome in `pending`.
    fn offer(
        queue: &mut EventQueue,
        reference: &mut ReferenceEventQueue,
        pending: &mut VecDeque<i64>,
        time: i64,
    ) {
        let candidate = event(time, 0);
        let outcome = queue.schedule(0, candidate);
        assert_eq!(
            outcome,
            reference.schedule(0, candidate),
            "outcome diverged at {time} fs"
        );
        match outcome {
            ScheduleOutcome::Inserted => pending.push_back(time),
            ScheduleOutcome::CancelledPrevious => {
                pending.pop_back();
            }
        }
    }
    for k in 1..=DEPTH {
        offer(&mut queue, &mut reference, &mut pending, k * SPACING_FS);
    }
    let mut step = 0;
    while pending.len() > 1 {
        step += 1;
        for _ in 0..1 + step % 3 {
            if let Some(&back) = pending.back() {
                offer(&mut queue, &mut reference, &mut pending, back);
            }
        }
        if step % 2 == 0 {
            if let Some(&back) = pending.back() {
                let time = back + SPACING_FS / 2;
                offer(&mut queue, &mut reference, &mut pending, time);
            }
        }
        if step % 4 == 0 {
            let popped = queue.pop();
            assert_eq!(popped, reference.pop(), "pop diverged at step {step}");
            assert_eq!(popped.map(|e| e.time.as_fs()), pending.pop_front());
        }
        assert_eq!(queue.len(), reference.len());
        assert_eq!(queue.len(), pending.len());
    }
    let mut last = 0;
    loop {
        let popped = queue.pop();
        assert_eq!(popped, reference.pop());
        assert_eq!(popped.map(|e| e.time.as_fs()), pending.pop_front());
        let Some(popped) = popped else { break };
        last = popped.time.as_fs();
    }
    // The drained list must behave like a fresh one, also after a
    // cancellation leaves one node and a pop takes it.
    let after = |k: i64| event(last + k * SPACING_FS, 0);
    for (k, outcome) in [
        (1, ScheduleOutcome::Inserted),
        (2, ScheduleOutcome::Inserted),
        (2, ScheduleOutcome::CancelledPrevious),
    ] {
        assert_eq!(queue.schedule(0, after(k)), outcome);
        assert_eq!(reference.schedule(0, after(k)), outcome);
    }
    assert_eq!(queue.pop(), Some(after(1)));
    assert_eq!(reference.pop(), Some(after(1)));
    assert_eq!(queue.schedule(0, after(3)), ScheduleOutcome::Inserted);
    assert_eq!(reference.schedule(0, after(3)), ScheduleOutcome::Inserted);
    assert_eq!(queue.pop(), Some(after(3)));
    assert_eq!(reference.pop(), Some(after(3)));
    assert_eq!(queue.pop(), None);
    assert_eq!(queue.scheduled(), reference.scheduled());
    assert_eq!(queue.filtered(), reference.filtered());
    assert!(
        queue.filtered() > DEPTH as usize,
        "{} cancellations",
        queue.filtered()
    );
}
