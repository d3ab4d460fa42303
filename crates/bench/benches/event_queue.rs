//! Micro-benchmark of the HALOTIS event queue (a design-choice ablation):
//! the bucketed time wheel behind the Fig. 4 per-input insert/delete rule,
//! whose per-input pending lists alone decide which popped entries are
//! live, measured against the retired `BinaryHeap` + `HashSet`
//! implementation (`halotis_bench::reference`) on the same streams.
//!
//! Event times use gate-delay spacing (hundreds of picoseconds between
//! events, matching what the simulation engine actually schedules) rather
//! than a femtosecond-dense ramp: a calendar queue's cost profile is set by
//! how many events share a bucket, so a degenerately dense stream would
//! benchmark a distribution the production hot loop never produces.
//!
//! Three workloads are measured: a pure insert/pop stream (no
//! cancellations), a glitch-heavy stream where a large fraction of the
//! scheduled events annihilate, and the same ordered stream through the
//! reference heap — the ablation that justifies the wheel.  Run with
//! `cargo bench -p halotis_bench --bench event_queue`.
//!
//! Note on the larger counts: these streams bulk-insert everything before
//! the first pop, so at 10k/100k events nearly the whole schedule lands
//! beyond the wheel's ~134 ns window and the numbers measure the spill
//! min-heap, not the calendar fast path — expect rough parity with the
//! reference heap there.  The wheel's advantage shows at the 1000-event
//! size, which matches how the engine actually drives the queue (one delay
//! generation of look-ahead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use halotis::core::{GateId, LogicLevel, PinRef, Time, TimeDelta};
use halotis::sim::event::Event;
use halotis::sim::queue::EventQueue;
use halotis_bench::reference::ReferenceEventQueue;
use std::hint::black_box;

/// Gate-delay-scale spacing: successive events ~80 ps apart with a per-pin
/// phase shift, so a few events share each 262 ps wheel bucket — the
/// clustering the corpus hot loop produces.
fn gate_delay_time(i: usize, pin: usize) -> i64 {
    (i as i64) * 80_000 + (pin as i64) * 13_300
}

fn event(time_fs: i64, pin: u32) -> Event {
    Event::new(
        Time::from_fs(time_fs),
        PinRef::new(GateId::new(pin), 0),
        LogicLevel::High,
        TimeDelta::from_ps(100.0),
    )
}

fn bench_insert_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &count in &[1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(
            BenchmarkId::new("ordered_insert_pop", count),
            &count,
            |b, &count| {
                b.iter(|| {
                    let pins = 64;
                    let mut queue = EventQueue::new(pins);
                    for i in 0..count {
                        // Per-pin strictly increasing times: no cancellations.
                        let pin = (i * 7919) % pins;
                        queue.schedule(pin, event(gate_delay_time(i, pin), pin as u32));
                    }
                    while let Some(e) = queue.pop() {
                        black_box(e);
                    }
                    black_box(queue.scheduled());
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("glitchy_insert_cancel", count),
            &count,
            |b, &count| {
                b.iter(|| {
                    let pins = 64;
                    let mut queue = EventQueue::new(pins);
                    for i in 0..count {
                        let pin = (i * 7919) % pins;
                        // Alternate far-future and near events on the same
                        // pin so a large fraction of schedules cancel.
                        let time = if i % 2 == 0 {
                            80_000_000 + gate_delay_time(i, pin)
                        } else {
                            40_000_000 + gate_delay_time(i / 2, pin)
                        };
                        queue.schedule(pin, event(time, pin as u32));
                    }
                    while let Some(e) = queue.pop() {
                        black_box(e);
                    }
                    black_box(queue.filtered());
                })
            },
        );
        // The ablation: the retired heap queue on the identical ordered
        // stream.  The wheel-vs-heap ratio here is the justification for
        // the calendar-queue design (see README "hot loop").
        group.bench_with_input(
            BenchmarkId::new("reference_heap_insert_pop", count),
            &count,
            |b, &count| {
                b.iter(|| {
                    let pins = 64;
                    let mut queue = ReferenceEventQueue::new(pins);
                    for i in 0..count {
                        let pin = (i * 7919) % pins;
                        queue.schedule(pin, event(gate_delay_time(i, pin), pin as u32));
                    }
                    while let Some(e) = queue.pop() {
                        black_box(e);
                    }
                    black_box(queue.scheduled());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_insert_pop);
criterion_main!(benches);
