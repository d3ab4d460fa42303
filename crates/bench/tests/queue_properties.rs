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
//! executable specification of the ordering contract).  Stimulus staged
//! with [`EventQueue::stage`] and fed to the wheel lazily must match the
//! reference with the same stimulus scheduled up front.
//!
//! Drains go through [`EventQueue::pop_checked`]: it asserts in **every**
//! build profile that each popped entry matches its pin's pending-list
//! front (plain `pop` only `debug_assert`s it), so `cargo test --release`
//! still exercises the invariant that ties the time-ordered store to the
//! per-pin Fig. 4 bookkeeping.

use halotis::core::{GateId, LogicLevel, PinRef, Time, TimeDelta};
use halotis::sim::event::Event;
use halotis::sim::queue::{EventQueue, ScheduleOutcome};
use halotis_bench::reference::ReferenceEventQueue;
use proptest::prelude::*;

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
        while let Some(popped) = queue.pop_checked() {
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
        while let Some(popped) = queue.pop_checked() {
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
        while let Some(event) = queue.pop_checked() {
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
        let popped = std::iter::from_fn(|| queue.pop_checked()).count();
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
        let ours = wheel.pop_checked();
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
            prop_assert_eq!(wheel.pop_checked(), heap.pop());
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
            let ours = wheel.pop_checked();
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

/// Stimulus inputs of the staged-stimulus property: input `k` drives pins
/// `2k` and `2k + 1`, and the remaining pins up to [`PINS`] only ever get
/// scheduled events.
const STIMULUS_INPUTS: usize = 3;
/// The time grid of the staged-stimulus property: 2^23 fs, an eighth of
/// the feed window (half the default wheel's 2^27-fs ring), so event times
/// also land exactly on feed horizons.
const UNIT: i64 = 1 << 23;
/// Gaps between an input's successive transition starts, in units: equal
/// starts, a fraction of a window, one window, and many windows.
const GAPS: [i64; 5] = [0, 1, 3, 8, 120];
/// Transition slews in units.
const SLEWS: [i64; 3] = [0, 4, 8];
/// Delays of the scheduled events after the pop that causes them, in
/// units: slightly into the past, at the same instant, and up to three
/// windows on.
const DELAYS: [i64; 5] = [-1, 0, 1, 2, 24];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Stimulus staged with `EventQueue::stage` and fed to the wheel one
    /// window at a time is observationally identical to the reference
    /// queue with the same stimulus scheduled up front, while events are
    /// scheduled (or staged) between pops: same outcomes, same pop sequence
    /// (all times sit on the [`UNIT`] grid, so equal-time serial tie-breaks
    /// between staged and scheduled events are common), same lengths, and
    /// the same scheduled, filtered and high-water counts.  Each
    /// transition's crossings fall at a per-pin fraction of its slew, so a
    /// transition that follows a slower one closely cancels it on some
    /// pins.
    #[test]
    fn staged_stimulus_matches_up_front_reference(
        transitions in proptest::collection::vec((0usize..STIMULUS_INPUTS, 0usize..5, 0usize..3), 1..60),
        scheduled in proptest::collection::vec((0usize..PINS, 0usize..5, 0u8..4), 0..80),
    ) {
        let mut queue = EventQueue::new(PINS);
        let mut reference = ReferenceEventQueue::new(PINS);
        let mut reference_high_water = 0;
        // The engine's staging order: input by input, each input's
        // transitions in order, each transition's pins in order.
        for input in 0..STIMULUS_INPUTS {
            let mut start = 0;
            for &(_, gap, slew) in transitions.iter().filter(|(of, _, _)| *of == input) {
                start += GAPS[gap] * UNIT;
                for pin in [2 * input, 2 * input + 1] {
                    let time = start + SLEWS[slew] * UNIT * (pin as i64 % 5) / 4;
                    let candidate = event(time, pin);
                    prop_assert_eq!(
                        queue.stage(pin, candidate, Time::from_fs(start)),
                        reference.schedule(pin, candidate)
                    );
                    reference_high_water = reference_high_water.max(reference.len());
                }
            }
        }
        prop_assert_eq!(queue.len(), reference.len());
        let mut scheduled = scheduled.into_iter();
        loop {
            let ours = queue.pop_checked();
            prop_assert_eq!(ours, reference.pop());
            let Some(popped) = ours else { break };
            if let Some((pin, delay, how)) = scheduled.next() {
                let time = popped.time.as_fs() + DELAYS[delay] * UNIT;
                let candidate = event(time, pin);
                // One in four goes through `stage` after pops began: due
                // ones go straight to the wheel, later ones start new runs.
                let ours = if how == 0 {
                    queue.stage(pin, candidate, Time::from_fs(time))
                } else {
                    queue.schedule(pin, candidate)
                };
                prop_assert_eq!(ours, reference.schedule(pin, candidate));
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
    let popped: Vec<(i64, usize)> = std::iter::from_fn(|| queue.pop_checked())
        .map(|e| (e.time.as_fs(), e.pin.gate().index()))
        .collect();
    assert_eq!(popped, vec![(2_000, 0), (3_000, 1)]);
}
