//! In-process replays of each layer on the workload's own inputs: the same
//! netlist texts, suites and request bodies the workload sends, timed one
//! public call at a time.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

use halotis_core::{PinRef, Time};
use halotis_corpus::{GlitchProfile, WallClockProbe};
use halotis_netlist::{levelize, parser, technology, verilog, writer};
use halotis_serve::cache::{self, CircuitCache};
use halotis_serve::client::simulate_request;
use halotis_serve::frame::{read_frame, write_frame};
use halotis_serve::json;
use halotis_serve::protocol::{parse_request, render_ok, EditCommand, NetlistFormat};
use halotis_serve::scheduler::Scheduler;
use halotis_sim::observer::SimObserver;
use halotis_sim::queue::EventQueue;
use halotis_sim::{
    ActivityCounter, BatchRunner, CompiledCircuit, Event, PowerAccumulator, SimulationConfig,
};
use halotis_waveform::Stimulus;

use crate::corpus::Timed;
use crate::golden::Expected;
use crate::util::{median, percentile, us_since, Rng};
use crate::workload::{model_config, observed_rows, what_ifs, Workload, MODELS};

/// Repetitions of each timed replay; a layer reports their median.
const REPS: usize = 7;

/// Median over [`REPS`] runs of `f`'s time per operation, in µs.
fn per_op_us(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            f();
            us_since(started) / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// One simulate's work for the worker-pool replay.
type PoolJob = (CompiledCircuit<'static>, Vec<Stimulus>, SimulationConfig);

/// Records the events a run processes, in processing order, as
/// `(time, pin)` — the stream the wheel replay schedules.
#[derive(Default)]
struct StreamRecorder(Vec<(Time, PinRef)>);

impl SimObserver for StreamRecorder {
    fn on_gate_evaluated(
        &mut self,
        _gate: halotis_core::GateId,
        event: &Event,
        _outcome: &halotis_delay::DelayOutcome,
    ) {
        self.0.push((event.time, event.pin));
    }
}

/// Runs every stimulus of every entry under `config`, a fresh observer from
/// `make` per run; returns the time in ns and the events processed.
fn sweep<O: SimObserver>(
    compiled: &[CompiledCircuit<'_>],
    states: &mut [halotis_sim::SimState],
    stimuli: &[Vec<Stimulus>],
    config: &SimulationConfig,
    mut make: impl FnMut() -> O,
) -> (f64, u64) {
    let started = Instant::now();
    let mut events = 0u64;
    for ((circuit, state), stimuli) in compiled.iter().zip(states.iter_mut()).zip(stimuli) {
        for stimulus in stimuli {
            let mut observer = make();
            let stats = circuit
                .run_observed(state, stimulus, config, &mut observer)
                .expect("corpus runs");
            events += stats.events_processed as u64;
        }
    }
    (us_since(started) * 1e3, events)
}

/// A daemon-shaped simulate response body built from in-process rows.
fn ok_body(model: usize, rows: &[(String, Expected)]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(stimulus, row)| {
            let c = row.counters;
            format!(
                concat!(
                    r#"{{"stimulus":{},"events_scheduled":{},"events_filtered":{},"#,
                    r#""events_processed":{},"output_transitions":{},"#,
                    r#""degraded_transitions":{},"collapsed_transitions":{},"#,
                    r#""queue_high_water":{},"transitions":{},"energy_joules":{},"glitch_pulses":{}}}"#
                ),
                json::string(stimulus),
                c[0],
                c[1],
                c[2],
                c[3],
                c[4],
                c[5],
                c[6],
                c[3],
                json::number(f64::from_bits(row.energy_bits)),
                row.glitch_pulses
            )
        })
        .collect();
    format!(
        r#"{{"key":"c-0123456789abcdef","model":"{}","scenarios":[{}],"wall_time_ns":123456}}"#,
        MODELS[model],
        rows.join(",")
    )
}

fn median_len(items: &[String]) -> usize {
    let mut lengths: Vec<usize> = items.iter().map(String::len).collect();
    lengths.sort_unstable();
    lengths[lengths.len() / 2]
}

/// Every in-process layer metric of the workload, as `(name, value, unit)`.
pub fn measure(
    workload: &Workload,
    churn: bool,
    threads: usize,
    seed: u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let library = technology::cmos06();
    let circuits = &workload.circuits;
    let entries = &workload.entries;
    let mut out = Vec::new();

    // Netlist text layers, on each distinct circuit's texts.
    out.push((
        "netlist.parser.parse_us",
        per_op_us(circuits.len(), || {
            for circuit in circuits {
                std::hint::black_box(parser::parse(&circuit.text).expect("corpus text parses"));
            }
        }),
        "us",
    ));
    out.push((
        "netlist.verilog.parse_us",
        per_op_us(circuits.len(), || {
            for circuit in circuits {
                std::hint::black_box(
                    verilog::parse_verilog(&circuit.verilog).expect("corpus Verilog parses"),
                );
            }
        }),
        "us",
    ));
    out.push((
        "netlist.writer.to_text_us",
        per_op_us(circuits.len(), || {
            for circuit in circuits {
                std::hint::black_box(writer::to_text(&circuit.netlist));
            }
        }),
        "us",
    ));
    let levelize_us = per_op_us(circuits.len(), || {
        for circuit in circuits {
            std::hint::black_box(levelize::levelize(&circuit.netlist).expect("corpus levelizes"));
        }
    });
    let compile_us = per_op_us(circuits.len(), || {
        for circuit in circuits {
            std::hint::black_box(
                CompiledCircuit::compile(&circuit.netlist, &library).expect("corpus compiles"),
            );
        }
    });
    out.push(("netlist.levelize.levelize_us", levelize_us, "us"));
    out.push(("sim.compiled.compile_us", compile_us, "us"));
    out.push(("sim.compiled.tables_us", compile_us - levelize_us, "us"));

    // Per-entry compiled circuits, stimuli and a state arena for each.
    let compiled: Vec<CompiledCircuit<'_>> = (0..entries.len())
        .map(|index| {
            CompiledCircuit::compile(&workload.circuit(index).netlist, &library)
                .expect("corpus compiles")
        })
        .collect();
    let stimuli: Vec<Vec<Stimulus>> = entries
        .iter()
        .zip(&compiled)
        .map(|(entry, circuit)| {
            entry
                .suite
                .stimuli(circuit.netlist(), &library)
                .into_iter()
                .map(|(_, stimulus)| stimulus)
                .collect()
        })
        .collect();
    let mut states: Vec<_> = compiled.iter().map(CompiledCircuit::new_state).collect();

    let mut arena = compiled[0].new_state();
    out.push((
        "sim.compiled.adapt_state_us",
        per_op_us(compiled.len(), || {
            for circuit in &compiled {
                circuit.adapt_state(&mut arena);
            }
        }),
        "us",
    ));
    let zero = SimulationConfig::ddm().with_time_limit(Time::ZERO);
    let run_setup_us = per_op_us(compiled.len(), || {
        for ((circuit, state), stimuli) in compiled.iter().zip(&mut states).zip(&stimuli) {
            std::hint::black_box(
                circuit
                    .run_observed(state, &stimuli[0], &zero, &mut ())
                    .expect("corpus runs"),
            );
        }
    });
    out.push(("sim.engine.run_setup_us", run_setup_us, "us"));
    out.push((
        "corpus.stimuli.expand_us",
        per_op_us(entries.len(), || {
            for (entry, circuit) in entries.iter().zip(&compiled) {
                std::hint::black_box(entry.suite.stimuli(circuit.netlist(), &library));
            }
        }),
        "us",
    ));

    // Event loop per model with the null observer, and each observer's
    // extra cost over it (DDM), measured in interleaved repetitions.
    let configs: Vec<SimulationConfig> = (0..MODELS.len()).map(model_config).collect();
    let mut per_model: Vec<Vec<f64>> = vec![Vec::new(); MODELS.len()];
    let mut extra: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for _ in 0..REPS {
        for (model, config) in configs.iter().enumerate() {
            let (ns, events) = sweep(&compiled, &mut states, &stimuli, config, || ());
            per_model[model].push(ns / events as f64);
        }
        let ddm = &configs[0];
        let (null_ns, events) = sweep(&compiled, &mut states, &stimuli, ddm, || ());
        let observed = [
            sweep(&compiled, &mut states, &stimuli, ddm, ActivityCounter::new).0,
            sweep(&compiled, &mut states, &stimuli, ddm, PowerAccumulator::new).0,
            sweep(&compiled, &mut states, &stimuli, ddm, GlitchProfile::new).0,
            sweep(&compiled, &mut states, &stimuli, ddm, || {
                (
                    (ActivityCounter::new(), PowerAccumulator::new()),
                    (GlitchProfile::new(), WallClockProbe::new()),
                )
            })
            .0,
        ];
        for (slot, ns) in extra.iter_mut().zip(observed) {
            slot.push((ns - null_ns) / events as f64);
        }
    }
    let ns_per_event: Vec<f64> = per_model.iter().map(|samples| median(samples)).collect();
    out.push(("sim.engine.ns_per_event.ddm", ns_per_event[0], "ns"));
    out.push(("sim.engine.ns_per_event.cdm", ns_per_event[1], "ns"));
    out.push(("sim.engine.ns_per_event.mix", ns_per_event[2], "ns"));
    out.push((
        "sim.observer.activity_ns_per_event",
        median(&extra[0]),
        "ns",
    ));
    out.push(("sim.observer.power_ns_per_event", median(&extra[1]), "ns"));
    out.push((
        "corpus.observer.glitch_ns_per_event",
        median(&extra[2]),
        "ns",
    ));
    out.push((
        "corpus.observer.bundle_ns_per_event",
        median(&extra[3]),
        "ns",
    ));

    // The wheel: schedule and pop the event streams the corpus produces,
    // with a short look-ahead window as the engine keeps.
    let streams: Vec<(usize, Vec<(usize, Event)>)> = compiled
        .iter()
        .zip(&mut states)
        .zip(&stimuli)
        .map(|((circuit, state), stimuli)| {
            let mut recorder = StreamRecorder::default();
            for stimulus in stimuli {
                circuit
                    .run_observed(state, stimulus, &configs[0], &mut recorder)
                    .expect("corpus runs");
            }
            let events = recorder
                .0
                .iter()
                .map(|&(time, pin)| {
                    let event = Event::new(
                        time,
                        pin,
                        halotis_core::LogicLevel::High,
                        halotis_core::TimeDelta::from_ps(100.0),
                    );
                    (circuit.pins().index(pin), event)
                })
                .collect();
            (circuit.pins().len(), events)
        })
        .collect();
    let wheel_ops: usize = streams.iter().map(|(_, events)| 2 * events.len()).sum();
    out.push((
        "sim.wheel.ns_per_op",
        per_op_us(wheel_ops, || {
            for (pins, events) in &streams {
                let mut queue = EventQueue::new(*pins);
                for &(pin, event) in events {
                    queue.schedule(pin, event);
                    if queue.len() > 8 {
                        std::hint::black_box(queue.pop());
                    }
                }
                while let Some(event) = queue.pop() {
                    std::hint::black_box(event);
                }
            }
        }) * 1e3,
        "ns",
    ));

    // Batch scaling: the workload's whole scenario set at 1 thread and at
    // `threads`, and the idle share of the parallel batches.
    let scenarios: Vec<_> = entries
        .iter()
        .map(|entry| entry.scenarios(&library))
        .collect();
    let batch_pass = |runner: BatchRunner| {
        let mut wall_us = 0.0;
        let mut idle_us = 0.0;
        for (circuit, scenarios) in compiled.iter().zip(&scenarios) {
            let report = runner.run_observed(circuit, scenarios, |_, _| Timed::new(()));
            let wall = report.wall_time().as_secs_f64() * 1e6;
            let busy: f64 = report
                .outcomes()
                .iter()
                .filter_map(|outcome| {
                    Some((outcome.observer.end? - outcome.observer.begin?).as_secs_f64() * 1e6)
                })
                .sum();
            wall_us += wall;
            idle_us += wall - busy / runner.threads() as f64;
        }
        (wall_us, idle_us)
    };
    let (mut serial, mut parallel, mut idle) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        serial.push(batch_pass(BatchRunner::with_threads(1)).0);
        let (wall, idle_us) = batch_pass(BatchRunner::with_threads(threads));
        parallel.push(wall);
        idle.push(idle_us);
    }
    out.push((
        "sim.batch.speedup",
        median(&serial) / median(&parallel),
        "x",
    ));
    out.push(("sim.batch.imbalance_ms", median(&idle) / 1e3, "ms"));

    // Wire layers on the workload's own simulate requests and responses.
    let mut requests = Vec::new();
    let mut bodies = Vec::new();
    let mut responses = Vec::new();
    let mut columns = Vec::new();
    for (index, entry) in entries.iter().enumerate() {
        for (model, name) in MODELS.iter().enumerate() {
            requests.push(simulate_request(
                index as u64 + 1,
                "c-0123456789abcdef",
                &entry.suite,
                name,
            ));
            let body = ok_body(
                model,
                &observed_rows(&compiled[index], entry, &library, model),
            );
            responses.push(render_ok(index as u64 + 1, &body));
            bodies.push(body);
            columns.push((index, model));
        }
    }
    let (request_len, response_len) = (median_len(&requests), median_len(&responses));
    let (mut near, mut far) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    let (request, response) = (vec![b'x'; request_len], vec![b'y'; response_len]);
    out.push((
        "serve.frame.rtt_us",
        per_op_us(1000, || {
            for _ in 0..1000 {
                write_frame(&mut near, &request).expect("frame write");
                std::hint::black_box(read_frame(&mut far, 1 << 24).expect("frame read"));
                write_frame(&mut far, &response).expect("frame write");
                std::hint::black_box(read_frame(&mut near, 1 << 24).expect("frame read"));
            }
        }),
        "us",
    ));
    out.push((
        "serve.protocol.parse_request_us",
        per_op_us(requests.len(), || {
            for body in &requests {
                std::hint::black_box(parse_request(body.as_bytes()).1.expect("requests parse"));
            }
        }),
        "us",
    ));
    out.push((
        "serve.protocol.render_us",
        per_op_us(bodies.len(), || {
            for (id, body) in bodies.iter().enumerate() {
                std::hint::black_box(render_ok(id as u64, body));
            }
        }),
        "us",
    ));
    out.push((
        "serve.json.parse_us",
        per_op_us(responses.len(), || {
            for frame in &responses {
                std::hint::black_box(json::parse(frame).expect("responses parse"));
            }
        }),
        "us",
    ));

    // The circuit cache: cold and hit loads in the workload's formats.
    let load_texts: Vec<(&str, NetlistFormat)> = circuits
        .iter()
        .enumerate()
        .map(|(index, circuit)| {
            if churn && index % 2 == 1 {
                (circuit.verilog.as_str(), NetlistFormat::Verilog)
            } else {
                (circuit.text.as_str(), NetlistFormat::Net)
            }
        })
        .collect();
    let (mut cold, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let cache = CircuitCache::new(64);
        let started = Instant::now();
        for &(text, format) in &load_texts {
            cache.load_as(text, format).expect("corpus loads");
        }
        cold.push(us_since(started) / load_texts.len() as f64);
        let started = Instant::now();
        for &(text, format) in &load_texts {
            cache.load_as(text, format).expect("corpus loads");
        }
        hit.push(us_since(started) / load_texts.len() as f64);
    }
    out.push(("serve.cache.load_cold_us", median(&cold), "us"));
    out.push(("serve.cache.load_hit_us", median(&hit), "us"));

    let warm = CircuitCache::new(64);
    let keys: Vec<String> = circuits
        .iter()
        .map(|circuit| warm.load(&circuit.text).expect("corpus loads").key)
        .collect();
    let timed_gets = |cache: &CircuitCache, count: usize| -> Vec<f64> {
        (0..count)
            .map(|index| {
                let started = Instant::now();
                std::hint::black_box(cache.get(&keys[index % keys.len()]));
                us_since(started)
            })
            .collect()
    };
    out.push((
        "serve.cache.get_us_p50",
        percentile(&timed_gets(&warm, 20_000), 50.0),
        "us",
    ));
    // `get` on a churning cache while a second thread cold-loads circuits.
    let churning = CircuitCache::new(8);
    for circuit in circuits {
        churning.load(&circuit.text).expect("corpus loads");
    }
    let done = AtomicBool::new(false);
    let loads = AtomicUsize::new(0);
    let waits = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let index = loads.fetch_add(1, Ordering::Relaxed);
                let (text, format) = load_texts[index % load_texts.len()];
                churning.load_as(text, format).expect("corpus loads");
            }
        });
        while loads.load(Ordering::Relaxed) == 0 {
            std::hint::spin_loop();
        }
        let waits = timed_gets(&churning, 200_000);
        done.store(true, Ordering::Relaxed);
        waits
    });
    out.push((
        "serve.cache.get_wait_us_p99",
        percentile(&waits, 99.0),
        "us",
    ));

    // The worker pool: two closed-loop submitters, time from submit until
    // the job starts, each job running one simulate's worth of work.
    let jobs: Arc<Vec<PoolJob>> = Arc::new(
        columns
            .iter()
            .map(|&(index, model)| {
                let circuit = CompiledCircuit::compile_owned(
                    workload.circuit(index).netlist.clone(),
                    cache::library(),
                )
                .expect("corpus compiles");
                (circuit, stimuli[index].clone(), model_config(model))
            })
            .collect(),
    );
    let scheduler = Scheduler::new(crate::serve::WORKERS, 32);
    let queue_waits: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crate::serve::CLIENTS)
            .map(|client| {
                let jobs = Arc::clone(&jobs);
                let scheduler = &scheduler;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed).fork(300 + client as u64);
                    let mut waits = Vec::new();
                    for _ in 0..2 {
                        for job in rng.permutation(jobs.len()) {
                            let (reply, done) = channel();
                            let jobs = Arc::clone(&jobs);
                            let submitted = Instant::now();
                            scheduler
                                .try_submit(Box::new(move |arena| {
                                    let waited = us_since(submitted);
                                    let (circuit, stimuli, config) = &jobs[job];
                                    let state = arena.adopt(circuit);
                                    for stimulus in stimuli.iter() {
                                        let mut observer = (
                                            (ActivityCounter::new(), PowerAccumulator::new()),
                                            GlitchProfile::new(),
                                        );
                                        let _ = circuit.run_observed(
                                            state,
                                            stimulus,
                                            config,
                                            &mut observer,
                                        );
                                    }
                                    let _ = reply.send(waited);
                                }))
                                .expect("two closed-loop submitters never fill the queue");
                            waits.push(done.recv().expect("jobs report back"));
                        }
                    }
                    waits
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("submitters do not panic"))
            .collect()
    });
    scheduler.shutdown();
    out.push((
        "serve.scheduler.queue_wait_us_p50",
        percentile(&queue_waits, 50.0),
        "us",
    ));
    out.push((
        "serve.scheduler.queue_wait_us_p99",
        percentile(&queue_waits, 99.0),
        "us",
    ));

    // What-if edits on cached circuit state: apply one swap, then revert.
    let specs = what_ifs(workload, &mut Rng::new(seed).fork(400), 1);
    let (mut apply, mut revert) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for (index, spec) in specs.iter().enumerate() {
            let spec = &spec[0];
            let entry = warm
                .get(&keys[workload.circuit_of[index]])
                .expect("the warm cache holds every circuit");
            let mut state = entry.write_state();
            let commands = [EditCommand::SwapKind {
                gate: spec.gate.clone(),
                kind: spec.kind,
            }];
            let started = Instant::now();
            state
                .apply_commands(&commands)
                .expect("what-if edits apply");
            apply.push(us_since(started));
            let started = Instant::now();
            state.revert().expect("what-if edits revert");
            revert.push(us_since(started));
        }
    }
    out.push(("serve.cache.apply_commands_us", median(&apply), "us"));
    out.push(("serve.cache.revert_us", median(&revert), "us"));
    out
}
