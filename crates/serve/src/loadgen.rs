//! The load generator behind `halotis-load`.
//!
//! Replays the full standard corpus (every entry × every model column)
//! through the wire protocol as N concurrent clients, measuring per-request
//! latency.  The report renders in the same `name  median D  mean D  min D`
//! line format the Criterion captures use, so `scripts/bench_to_json.py`
//! ingests it unchanged and `scripts/bench_gate.py` can gate the committed
//! `BENCH_serve.json` baseline.
//!
//! [`check_against_golden`] is the deterministic-replay mode: responses are
//! compared field-by-field (floats bitwise) against `CORPUS_stats.json`,
//! proving the daemon's numbers are the in-process corpus runner's numbers.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use halotis_corpus::{standard_corpus, CorpusEntry, ModelColumn};
use halotis_netlist::writer;

use crate::client::{load_request, simulate_request, Client, Response};
use crate::json::{self, Value};

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Target {
    /// A TCP address, e.g. `127.0.0.1:7816`.
    Tcp(String),
    /// A Unix-domain socket path.
    Uds(PathBuf),
}

impl Target {
    fn connect(&self) -> std::io::Result<Client> {
        match self {
            Target::Tcp(addr) => Client::connect_tcp(addr),
            Target::Uds(path) => Client::connect_uds(path),
        }
    }
}

/// Load-run shape.
#[derive(Clone, Copy, Debug)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Corpus passes each client performs.
    pub repeats: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 4,
            repeats: 1,
        }
    }
}

/// Aggregated measurements of a load run.
#[derive(Clone, Debug, Default)]
pub struct LoadSummary {
    /// Requests answered `ok`.
    pub requests: u64,
    /// `busy` responses absorbed by retrying.
    pub busy_retries: u64,
    /// `unknown_key` responses absorbed by re-loading an evicted circuit.
    pub reloads: u64,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-request latency of every `load`.
    pub load_latencies: Vec<Duration>,
    /// Per-request latency of every `simulate`.
    pub simulate_latencies: Vec<Duration>,
}

fn call_with_busy_retry(
    client: &mut Client,
    frame: &str,
    busy_retries: &mut u64,
) -> Result<Response, String> {
    // Bounded retry: `busy` is explicit backpressure, so the generator backs
    // off instead of counting it as a failure. Everything else is fatal.
    for _ in 0..5000 {
        let response = client.call(frame).map_err(|err| err.to_string())?;
        match response.error_code() {
            Some("busy") => {
                *busy_retries += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Some(code) => {
                return Err(format!(
                    "daemon answered {code}: {}",
                    response.error_message().unwrap_or("")
                ))
            }
            None => return Ok(response),
        }
    }
    Err("daemon stayed busy for 5000 retries".to_string())
}

fn replay_corpus(
    target: &Target,
    corpus: &[CorpusEntry],
    repeats: usize,
) -> Result<LoadSummary, String> {
    let mut client = target.connect().map_err(|err| err.to_string())?;
    let mut summary = LoadSummary::default();
    let mut next_id = 1u64;
    let load_entry = |client: &mut Client,
                      next_id: &mut u64,
                      summary: &mut LoadSummary,
                      entry: &CorpusEntry|
     -> Result<String, String> {
        let frame = load_request(*next_id, &writer::to_text(&entry.netlist));
        *next_id += 1;
        let started = Instant::now();
        let response = call_with_busy_retry(client, &frame, &mut summary.busy_retries)?;
        summary.load_latencies.push(started.elapsed());
        summary.requests += 1;
        response
            .ok()
            .and_then(|ok| ok.get("key"))
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("load response for {} carried no key", entry.name))
    };
    for _ in 0..repeats.max(1) {
        for entry in corpus {
            let mut key = load_entry(&mut client, &mut next_id, &mut summary, entry)?;
            for model in ModelColumn::ALL {
                // Concurrent clients share one LRU cache, so a key can be
                // evicted between this client's load and simulate — the
                // protocol answers `unknown_key` and the client re-loads.
                loop {
                    let frame = simulate_request(next_id, &key, &entry.suite, model.as_str());
                    next_id += 1;
                    let started = Instant::now();
                    let response =
                        call_with_busy_retry(&mut client, &frame, &mut summary.busy_retries);
                    match response {
                        Ok(_) => {
                            summary.simulate_latencies.push(started.elapsed());
                            summary.requests += 1;
                            break;
                        }
                        Err(message) if message.starts_with("daemon answered unknown_key") => {
                            summary.reloads += 1;
                            if summary.reloads > 10_000 {
                                return Err("circuit evicted faster than it reloads".to_string());
                            }
                            key = load_entry(&mut client, &mut next_id, &mut summary, entry)?;
                        }
                        Err(message) => return Err(message),
                    }
                }
            }
        }
    }
    Ok(summary)
}

/// Runs the load: `options.clients` threads, each replaying the full
/// corpus `options.repeats` times over its own connection.
pub fn run_load(target: &Target, options: &LoadOptions) -> Result<LoadSummary, String> {
    let corpus = standard_corpus();
    let started = Instant::now();
    let results: Vec<Result<LoadSummary, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..options.clients.max(1))
            .map(|_| scope.spawn(|| replay_corpus(target, &corpus, options.repeats)))
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut total = LoadSummary {
        wall: started.elapsed(),
        ..LoadSummary::default()
    };
    for result in results {
        let summary = result?;
        total.requests += summary.requests;
        total.busy_retries += summary.busy_retries;
        total.reloads += summary.reloads;
        total.load_latencies.extend(summary.load_latencies);
        total.simulate_latencies.extend(summary.simulate_latencies);
    }
    Ok(total)
}

/// Nearest-rank percentile over unsorted samples (`p` in 0–100).
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn mean(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let total: Duration = samples.iter().sum();
    total / samples.len() as u32
}

fn push_metric(out: &mut String, name: &str, median: Duration, samples: &[Duration]) {
    let min = samples.iter().min().copied().unwrap_or(Duration::ZERO);
    let _ = writeln!(
        out,
        "{name}    median {median:?}  mean {:?}  min {min:?}",
        mean(samples)
    );
}

/// Renders the latency report in the capture format
/// `scripts/bench_to_json.py` parses (one metric per line).
pub fn render_report(summary: &LoadSummary) -> String {
    let mut out = String::new();
    for (name, samples) in [
        ("serve/load", &summary.load_latencies),
        ("serve/simulate", &summary.simulate_latencies),
    ] {
        for p in [50.0, 95.0, 99.0] {
            push_metric(
                &mut out,
                &format!("{name}/p{}", p as u32),
                percentile(samples, p),
                samples,
            );
        }
    }
    let period = if summary.requests == 0 {
        Duration::ZERO
    } else {
        summary.wall / summary.requests as u32
    };
    push_metric(&mut out, "serve/request_period", period, &[period]);
    let _ = writeln!(
        out,
        "# requests={} busy_retries={} reloads={} wall={:?}",
        summary.requests, summary.busy_retries, summary.reloads, summary.wall
    );
    out
}

fn expect_u64(doc: &Value, key: &str, label: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{label}: missing numeric field {key:?}"))
}

fn expect_f64(doc: &Value, key: &str, label: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{label}: missing float field {key:?}"))
}

/// Replays the corpus through the daemon and compares every scenario's
/// counters — and its energy, **bitwise** — against the committed
/// `CORPUS_stats.json` document.  Returns the number of scenarios checked.
///
/// Run this against a 1-worker daemon: the comparison itself needs no
/// ordering, but a single worker also proves the arena-reuse path (one
/// [`SimState`](halotis_sim::SimState) hopping across the 24 entries' 20
/// distinct circuits) reproduces fresh-arena numbers.
pub fn check_against_golden(target: &Target, golden_json: &str) -> Result<usize, String> {
    check_entries_against_golden(target, golden_json, None)
}

/// [`check_against_golden`] restricted to a subset of corpus entries
/// (`None` = all of them).  The debug-mode integration test replays a
/// representative slice; CI's release-mode serve job replays everything.
pub fn check_entries_against_golden(
    target: &Target,
    golden_json: &str,
    entries: Option<&[&str]>,
) -> Result<usize, String> {
    let golden =
        json::parse(golden_json).map_err(|err| format!("golden stats unparseable: {err}"))?;
    let mut expected: HashMap<String, &Value> = HashMap::new();
    for entry in golden
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("golden stats carry no entries")?
    {
        for scenario in entry
            .get("scenarios")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            if let Some(label) = scenario.get("label").and_then(Value::as_str) {
                expected.insert(label.to_string(), scenario);
            }
        }
    }

    let mut client = target.connect().map_err(|err| err.to_string())?;
    let mut next_id = 1u64;
    let mut busy_retries = 0u64;
    let mut checked = 0usize;
    for entry in standard_corpus()
        .into_iter()
        .filter(|entry| entries.is_none_or(|names| names.contains(&entry.name.as_str())))
    {
        let text = writer::to_text(&entry.netlist);
        let frame = load_request(next_id, &text);
        next_id += 1;
        let response = call_with_busy_retry(&mut client, &frame, &mut busy_retries)?;
        let key = response
            .ok()
            .and_then(|ok| ok.get("key"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("load response for {} carried no key", entry.name))?
            .to_string();
        for model in ModelColumn::ALL {
            let frame = simulate_request(next_id, &key, &entry.suite, model.as_str());
            next_id += 1;
            let response = call_with_busy_retry(&mut client, &frame, &mut busy_retries)?;
            let scenarios = response
                .ok()
                .and_then(|ok| ok.get("scenarios"))
                .and_then(Value::as_array)
                .ok_or_else(|| format!("simulate response for {} has no scenarios", entry.name))?;
            for row in scenarios {
                let stimulus = row
                    .get("stimulus")
                    .and_then(Value::as_str)
                    .ok_or("scenario row without stimulus label")?;
                let label = format!("{}/{stimulus}/{}", entry.name, model.as_str());
                let golden_row = expected
                    .get(&label)
                    .ok_or_else(|| format!("{label}: not present in the golden stats"))?;
                for field in [
                    "events_scheduled",
                    "events_filtered",
                    "events_processed",
                    "output_transitions",
                    "degraded_transitions",
                    "collapsed_transitions",
                    "glitch_pulses",
                ] {
                    let got = expect_u64(row, field, &label)?;
                    let want = expect_u64(golden_row, field, &label)?;
                    if got != want {
                        return Err(format!(
                            "{label}: {field} diverged: daemon {got}, golden {want}"
                        ));
                    }
                }
                let got = expect_f64(row, "energy_joules", &label)?;
                let want = expect_f64(golden_row, "energy_joules", &label)?;
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "{label}: energy_joules diverged bitwise: daemon {got:e}, golden {want:e}"
                    ));
                }
                checked += 1;
            }
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let samples: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&samples, 50.0), ms(50));
        assert_eq!(percentile(&samples, 95.0), ms(95));
        assert_eq!(percentile(&samples, 99.0), ms(99));
        assert_eq!(percentile(&samples, 100.0), ms(100));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
        assert_eq!(percentile(&[ms(7)], 99.0), ms(7));
    }

    #[test]
    fn report_lines_match_the_capture_grammar() {
        let summary = LoadSummary {
            requests: 10,
            busy_retries: 0,
            reloads: 0,
            wall: Duration::from_millis(100),
            load_latencies: vec![Duration::from_micros(120); 4],
            simulate_latencies: vec![Duration::from_millis(3); 6],
        };
        let report = render_report(&summary);
        for line in report.lines().filter(|line| !line.starts_with('#')) {
            let mut words = line.split_whitespace();
            let name = words.next().unwrap();
            assert!(name.starts_with("serve/"), "bad metric name in {line:?}");
            assert_eq!(words.next(), Some("median"));
            let median = words.next().unwrap();
            assert!(
                median.ends_with("ns")
                    || median.ends_with("µs")
                    || median.ends_with("ms")
                    || median.ends_with('s'),
                "unparseable duration {median:?}"
            );
            assert_eq!(words.next(), Some("mean"));
        }
        assert!(report.contains("serve/load/p50"));
        assert!(report.contains("serve/simulate/p99"));
        assert!(report.contains("serve/request_period"));
    }
}
