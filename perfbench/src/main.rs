//! The HALOTIS benchmark: three workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload corpus_batch|serve_hot|serve_churn --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--corrupt-oracle]
//! ```
//!
//! Run it from the repository root (`python3 perfbench/run.py` builds it
//! and the daemon first).  The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`.  `--corrupt-oracle`
//! bumps one expected value of the golden, so a working oracle must report
//! failures.  See `perfbench/README.md` for what each metric means.

mod corpus;
mod golden;
mod layers;
mod serve;
mod trace;
mod util;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use halotis_serve::json::{self, Value};
use trace::Trace;
use util::{median, percentile, ratio, Metrics};
use workload::Workload;

/// The golden scenario `--corrupt-oracle` falsifies; every workload runs it.
const CORRUPTED_LABEL: &str = "c17/exh/cdm";

/// An untraced run is split into this many epochs, each a fresh process
/// (and, over the daemon, a fresh daemon) measuring an equal share of the
/// run, and reports the median of the epochs' metrics: on small virtual
/// machines one process can run a fifth slower than the next, and a slow
/// stretch then moves one epoch, not the run.
const EPOCHS: u64 = 6;

/// Everything a workload run measured, before it becomes metrics.
#[derive(Default)]
pub struct RunData {
    /// One set-up time per repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Time the measured work took: the untraced passes in process, the
    /// whole client phase over the daemon.
    pub busy_s: f64,
    /// Events processed by the untraced measured work.
    pub events: u64,
    /// Operations completed: scenarios in process, `ok` answers over the
    /// daemon.
    pub ok_ops: u64,
    pub pass_ms: Vec<f64>,
    pub pass_traced_ms: Vec<f64>,
    /// Corpus only: untraced passes making the traced passes' calls.
    pub pass_manual_ms: Vec<f64>,
    /// Serve only: per untraced pass, the sum of its request latencies.
    pub request_sum_ms: Vec<f64>,
    pub simulate_us: Vec<f64>,
    pub simulate_traced_us: Vec<f64>,
    pub load_us: Vec<f64>,
    pub whatif_us: Vec<f64>,
    pub run_us: Vec<f64>,
    pub outside_run_us: Vec<f64>,
    pub build_us: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One golden pass: events processed, filtered, scheduled, queue
    /// high-water.
    pub counts: [u64; 4],
    /// Per simulate column of one pass: model, stimuli, events.
    pub columns: Vec<(usize, usize, u64)>,
    /// Corpus only: medians over traced passes of each layer's per-pass
    /// total, in µs.
    pub pass_layers: Vec<(&'static str, f64)>,
    /// Serve only: load hit share, evictions, busy rejections.
    pub cache: [f64; 3],
    /// Span logs, one per tracing thread.
    pub traces: Vec<Trace>,
}

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    corrupt: bool,
    /// Set in the epoch processes of an untraced run.
    epoch: Option<u64>,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/halotis-serve"),
        corrupt: false,
        epoch: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?
            }
            "--trace" => options.trace = value()? == "1",
            "--serve-bin" => options.serve_bin = PathBuf::from(value()?),
            "--corrupt-oracle" => options.corrupt = true,
            "--epoch" => {
                options.epoch = Some(value()?.parse().map_err(|_| "--epoch needs an integer")?)
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !["corpus_batch", "serve_hot", "serve_churn"].contains(&options.workload.as_str()) {
        return Err("--workload must be corpus_batch, serve_hot or serve_churn".to_string());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = std::fs::create_dir_all(".bench_out") {
        eprintln!("perfbench: cannot create .bench_out: {err}");
        return ExitCode::FAILURE;
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let corrupt = options.corrupt.then_some(CORRUPTED_LABEL);
    let serve = options.workload != "corpus_batch";
    let hot = options.workload == "serve_hot";
    if !options.trace && options.epoch.is_none() {
        return run_epochs(&options, threads);
    }
    // The serve workloads leave the soak entry out: one 2500-cycle request
    // would set the latency tail on its own.
    let workload = Workload::new(!serve);
    let seed = match options.epoch {
        Some(epoch) => util::Rng::new(options.seed).fork(1000 + epoch).next_u64(),
        None => options.seed,
    };
    let data = if serve {
        let run = serve::ServeRun {
            binary: &options.serve_bin,
            hot,
            seed,
            seconds: options.seconds,
            traced: options.trace,
            corrupt,
        };
        match serve::run(&run, &workload) {
            Ok(data) => data,
            Err(err) => {
                eprintln!("perfbench: {err}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        corpus::run(seed, options.seconds, options.trace, corrupt, threads)
    };
    let mut metrics = Metrics::default();
    if options.trace {
        per_layer(&mut metrics, &data, &workload, &options, threads);
    } else {
        // An epoch process: the run aggregates its result line.
        end_to_end(&mut metrics, &data);
        println!("{}", metrics.result_line(data.attempted, data.failed));
        return ExitCode::SUCCESS;
    }
    report(&options, &metrics, data.attempted, data.failed, threads)
}

/// Runs the epochs of an untraced run one after another; each metric of
/// the run is the median of the epochs' values.
fn run_epochs(options: &Options, threads: usize) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for epoch in 0..EPOCHS {
        let mut command = std::process::Command::new(&exe);
        command
            .args(["--workload", &options.workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &(options.seconds / EPOCHS as f64).to_string()])
            .args(["--trace", "0", "--epoch", &epoch.to_string()])
            .arg("--serve-bin")
            .arg(&options.serve_bin)
            .stderr(std::process::Stdio::inherit());
        if options.corrupt {
            command.arg("--corrupt-oracle");
        }
        let result = match command.output() {
            Ok(output) if output.status.success() => {
                let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
                stdout
                    .lines()
                    .last()
                    .and_then(|line| json::parse(line).ok())
            }
            Ok(output) => {
                eprintln!("perfbench: epoch {epoch} failed: {}", output.status);
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("perfbench: epoch {epoch} did not start: {err}");
                return ExitCode::FAILURE;
            }
        };
        let Some((result, members)) = result
            .as_ref()
            .and_then(|result| Some((result, result.get("metrics")?.as_object()?)))
        else {
            eprintln!("perfbench: epoch {epoch} printed no result");
            return ExitCode::FAILURE;
        };
        attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
        for (name, metric) in members {
            let value = metric.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            match values.iter_mut().find(|(known, _, _)| known == name) {
                Some((_, _, samples)) => samples.push(value),
                None => {
                    let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
                    values.push((name.clone(), unit.to_string(), vec![value]));
                }
            }
        }
    }
    let mut metrics = Metrics::default();
    for (name, unit, samples) in &values {
        metrics.add(name, median(samples), unit);
    }
    report(options, &metrics, attempted, failed, threads)
}

fn report(
    options: &Options,
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
    threads: usize,
) -> ExitCode {
    let serve = options.workload != "corpus_batch";
    let stamp = format!(
        concat!(
            r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"#,
            r#""rustc":{:?},"commit":{:?},"source_digest":{:?},"#,
            r#""clients":{},"daemon_workers":{},"batch_threads":{},"held_out_seed":424242}}"#
        ),
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        threads,
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into()),
        if serve { serve::CLIENTS } else { 0 },
        if serve { serve::WORKERS } else { 0 },
        threads,
    );
    println!("env {stamp}");

    let line = metrics.result_line(attempted, failed);
    println!(
        "oracle: {failed} of {attempted} operations failed (failed_frac {})",
        ratio(failed as f64, attempted as f64)
    );
    let _ = std::fs::write(
        format!(
            ".bench_out/result-{}-trace{}.json",
            options.workload,
            u8::from(options.trace)
        ),
        format!("{stamp}\n{line}\n"),
    );
    println!("{line}");
    ExitCode::SUCCESS
}

fn end_to_end(metrics: &mut Metrics, data: &RunData) {
    metrics.add("setup_s", median(&data.setup_s), "s");
    metrics.add(
        "events_per_s",
        ratio(data.events as f64, data.busy_s),
        "1/s",
    );
    metrics.add("pass_ms_p50", percentile(&data.pass_ms, 50.0), "ms");
    metrics.add("pass_ms_p95", percentile(&data.pass_ms, 95.0), "ms");
    metrics.add("simulate_us_p50", percentile(&data.simulate_us, 50.0), "us");
    metrics.add("simulate_us_p99", percentile(&data.simulate_us, 99.0), "us");
    metrics.add("load_us_p50", percentile(&data.load_us, 50.0), "us");
    metrics.add("load_us_p99", percentile(&data.load_us, 99.0), "us");
    metrics.add(
        "requests_per_s",
        ratio(data.ok_ops as f64, data.busy_s),
        "1/s",
    );
    metrics.add("peak_rss_mb", data.peak_rss_mb, "MB");
}

/// Prints one attribution block and returns the unexplained share.
fn attribution(title: &str, layers: &[(&str, f64)], end_to_end_us: f64) -> f64 {
    let sum: f64 = layers.iter().map(|(_, us)| us).sum();
    let remainder = end_to_end_us - sum;
    let mut out = format!("attribution of {title}:\n");
    for (name, us) in layers {
        let _ = writeln!(out, "  {name:<58} {us:>12.3} us");
    }
    let _ = writeln!(out, "  {:<58} {sum:>12.3} us", "sum of layer medians");
    let _ = writeln!(
        out,
        "  {:<58} {end_to_end_us:>12.3} us",
        "end-to-end median"
    );
    let share = ratio(remainder, end_to_end_us);
    let _ = writeln!(
        out,
        "  {:<58} {remainder:>12.3} us ({:.1}%)",
        "unexplained remainder",
        share * 100.0
    );
    print!("{out}");
    share
}

fn per_layer(
    metrics: &mut Metrics,
    data: &RunData,
    workload: &Workload,
    options: &Options,
    threads: usize,
) {
    let churn = options.workload == "serve_churn";
    for (name, value, unit) in layers::measure(workload, churn, threads, options.seed) {
        metrics.add(name, value, unit);
    }
    metrics.add(
        "sim.engine.events_processed",
        data.counts[0] as f64,
        "count",
    );
    metrics.add(
        "sim.engine.events_filtered_frac",
        ratio(data.counts[1] as f64, data.counts[2] as f64),
        "frac",
    );
    metrics.add("sim.wheel.queue_high_water", data.counts[3] as f64, "count");
    metrics.add(
        "serve.client.build_us_p50",
        percentile(&data.build_us, 50.0),
        "us",
    );
    metrics.add(
        "serve.server.run_us_p50",
        percentile(&data.run_us, 50.0),
        "us",
    );
    metrics.add(
        "serve.server.outside_run_us_p50",
        percentile(&data.outside_run_us, 50.0),
        "us",
    );
    metrics.add(
        "serve.server.outside_run_us_p99",
        percentile(&data.outside_run_us, 99.0),
        "us",
    );
    metrics.add(
        "serve.client.whatif_us_p50",
        percentile(&data.whatif_us, 50.0),
        "us",
    );
    metrics.add(
        "serve.client.whatif_us_p99",
        percentile(&data.whatif_us, 99.0),
        "us",
    );
    metrics.add("serve.cache.hit_frac", data.cache[0], "frac");
    metrics.add("serve.cache.evictions", data.cache[1], "count");
    metrics.add("serve.server.busy_rejections", data.cache[2], "count");

    // Pass attribution: the layers of a pass against the untraced median.
    let pass_us = median(&data.pass_ms) * 1e3;
    let pass_layers: Vec<(&str, f64)> = if data.pass_layers.is_empty() {
        vec![(
            "serve.client.requests (sum of request latencies)",
            median(&data.request_sum_ms) * 1e3,
        )]
    } else {
        data.pass_layers.clone()
    };
    let pass_share = attribution(
        &format!("pass_ms_p50 on {}", options.workload),
        &pass_layers,
        pass_us,
    );
    metrics.add("attribution.pass_remainder_frac", pass_share, "frac");

    // Simulate attribution.  Over the daemon: client, wire, queue, run and
    // render layers.  In process: per column, each stimulus's fixed run
    // set-up plus its events at the per-event costs of the model and the
    // observer bundle.
    let simulate_us = median(&data.simulate_us);
    let simulate_layers: Vec<(&str, f64)> = if options.workload == "corpus_batch" {
        let per_event = [
            metrics.get("sim.engine.ns_per_event.ddm"),
            metrics.get("sim.engine.ns_per_event.cdm"),
            metrics.get("sim.engine.ns_per_event.mix"),
        ];
        let bundle = metrics.get("corpus.observer.bundle_ns_per_event");
        let setup = metrics.get("sim.engine.run_setup_us");
        let column = |f: &dyn Fn(&(usize, usize, u64)) -> f64| -> f64 {
            median(&data.columns.iter().map(f).collect::<Vec<f64>>())
        };
        vec![
            (
                "sim.engine.run_setup_us x stimuli",
                column(&|&(_, stimuli, _)| stimuli as f64 * setup),
            ),
            (
                "events x sim.engine.ns_per_event.<model>",
                column(&|&(model, _, events)| events as f64 * per_event[model] / 1e3),
            ),
            (
                "events x corpus.observer.bundle_ns_per_event",
                column(&|&(_, _, events)| events as f64 * bundle / 1e3),
            ),
        ]
    } else {
        [
            "serve.client.build_us_p50",
            "serve.frame.rtt_us",
            "serve.protocol.parse_request_us",
            "serve.scheduler.queue_wait_us_p50",
            "serve.server.run_us_p50",
            "serve.protocol.render_us",
            "serve.json.parse_us",
        ]
        .iter()
        .map(|&name| (name, metrics.get(name)))
        .collect()
    };
    let simulate_share = attribution(
        &format!("simulate_us_p50 on {}", options.workload),
        &simulate_layers,
        simulate_us,
    );
    metrics.add(
        "attribution.simulate_remainder_frac",
        simulate_share,
        "frac",
    );

    // Tracing overhead: traced against untraced, in interleaved passes.
    let overhead = if options.workload == "corpus_batch" {
        ratio(median(&data.pass_traced_ms), median(&data.pass_manual_ms)) - 1.0
    } else {
        ratio(median(&data.simulate_traced_us), simulate_us) - 1.0
    };
    metrics.add("trace.overhead_frac", overhead, "frac");
    println!("trace overhead: {:.2}%", overhead * 100.0);

    let mut spans = String::new();
    for (index, trace) in data.traces.iter().enumerate() {
        trace.write_jsonl(index, &mut spans);
    }
    let _ = std::fs::write(
        format!(".bench_out/trace-{}.jsonl", options.workload),
        spans,
    );
    let self_times: Vec<(&str, f64)> = ["receive", "batch", "request", "entry"]
        .into_iter()
        .filter_map(|name| {
            let samples: Vec<f64> = data.traces.iter().flat_map(|t| t.self_us(name)).collect();
            (!samples.is_empty()).then(|| (name, median(&samples)))
        })
        .collect();
    for (name, self_us) in self_times {
        println!("span self time, median: {name} {self_us:.3} us");
    }
}
