//! The `serve_hot` and `serve_churn` workloads: a `halotis-serve` daemon in
//! its own process, driven by two closed-loop Unix-socket clients.
//!
//! Each client replays the corpus (without the soak entry) in its own
//! seeded order: `load`, then `simulate` under ddm, cdm and mix.  On
//! `serve_churn` the daemon starts cold with the default 8-circuit cache,
//! every second `load` is structural Verilog, and each entry ends with a
//! what-if: `edit` (one seeded `swap_kind`), `simulate`, `revert`,
//! `simulate`.  Every answer is checked: golden rows, what-if references,
//! stable keys, and hits where the cache must hit.
//!
//! On `serve_churn` the two clients share a cache smaller than the corpus,
//! so one client's loads can evict the other's circuit between two of its
//! requests.  The daemon then answers `unknown_key`; the client reloads the
//! circuit and repeats the request (a what-if repeats from its `edit`, which
//! the eviction dropped), as `halotis-load` does.  Every load of a circuit
//! holds the client-side lock of that circuit, so a reload never lands
//! inside the other client's what-if.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::RwLock;
use std::time::{Duration, Instant};

use halotis_corpus::CorpusEntry;
use halotis_netlist::technology;
use halotis_serve::client::{load_request, revert_request, simulate_request, stats_request};
use halotis_serve::frame::{read_frame, write_frame};
use halotis_serve::json::{self, Value};

use crate::golden::{Expected, Golden};
use crate::trace::Trace;
use crate::util::{us, Rng};
use crate::workload::{what_ifs, WhatIf, Workload, MODELS};
use crate::RunData;

/// Concurrent clients, and the daemon's worker threads.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// What-ifs prepared per entry and client; passes cycle through them.
const WHAT_IFS_PER_ENTRY: usize = 3;
/// Daemon start-ups per process; `setup_s` is the median over all of them.
const SETUPS: usize = 2;
/// Tries one request gets when its circuit keeps being evicted.
const RELOADS: usize = 8;
/// The error [`Conn::call`] returns for an `unknown_key` answer.
const EVICTED: &str = "daemon answered unknown_key";
/// Failure reasons each client prints to standard error.
const REPORTED_FAILURES: u64 = 3;

/// A daemon child process; killed and reaped if dropped while running.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts the daemon and waits for its "listening" line, which it
    /// prints once the socket is bound, the corpus preloaded (when asked)
    /// and the accept loop started.  Returns the daemon and that delay.
    fn spawn(binary: &Path, socket: PathBuf, hot: bool) -> Result<(Daemon, f64), String> {
        let mut command = Command::new(binary);
        command
            .arg("--uds")
            .arg(&socket)
            .args(["--workers", &WORKERS.to_string()])
            .args(["--cache", if hot { "32" } else { "8" }]);
        if hot {
            command.arg("--preload");
        }
        let started = Instant::now();
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|err| format!("cannot start {}: {err}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            socket,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|err| format!("daemon stdout: {err}"))?;
        let elapsed = started.elapsed().as_secs_f64();
        if !line.contains("listening") {
            return Err(format!("daemon did not start: {line:?}"));
        }
        daemon.stdout = Some(stdout);
        Ok((daemon, elapsed))
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket).map_err(|err| format!("connect: {err}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|err| err.to_string())?;
        Ok(Conn { stream, next_id: 1 })
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) {
        if let Ok(mut conn) = self.connect() {
            let id = conn.next_id;
            let _ = conn.call(&halotis_serve::client::shutdown_request(id));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        if let Some(child) = self.child.as_mut() {
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(mut stdout) = self.stdout.take() {
            let _ = stdout.read_to_end(&mut Vec::new());
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The instants of one request: send start, sent, received, parsed.
struct Timing {
    send: Instant,
    sent: Instant,
    received: Instant,
    parsed: Instant,
}

impl Timing {
    fn latency_us(&self) -> f64 {
        us(self.parsed - self.send)
    }
}

struct Conn {
    stream: UnixStream,
    next_id: u64,
}

impl Conn {
    fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Sends one request and returns its `ok` payload (or the error code).
    fn call(&mut self, body: &str) -> Result<(Value, Timing), String> {
        let send = Instant::now();
        write_frame(&mut self.stream, body.as_bytes()).map_err(|err| format!("send: {err}"))?;
        let sent = Instant::now();
        let frame = read_frame(&mut self.stream, 64 << 20)
            .map_err(|err| format!("receive: {err}"))?
            .ok_or("daemon closed the connection")?;
        let received = Instant::now();
        let text = std::str::from_utf8(&frame).map_err(|err| err.to_string())?;
        let doc = json::parse(text).map_err(|err| format!("response: {err}"))?;
        let parsed = Instant::now();
        let timing = Timing {
            send,
            sent,
            received,
            parsed,
        };
        match doc.get("ok") {
            Some(_) => match doc {
                Value::Object(members) => members
                    .into_iter()
                    .find(|(name, _)| name == "ok")
                    .map(|(_, ok)| (ok, timing))
                    .ok_or_else(|| "response without ok".to_string()),
                _ => Err("response is not an object".to_string()),
            },
            None => Err(format!(
                "daemon answered {}",
                doc.get("error")
                    .and_then(|error| error.get("code"))
                    .and_then(Value::as_str)
                    .unwrap_or("an unreadable frame")
            )),
        }
    }
}

/// Checks a simulate answer against expected rows, in order.  Returns the
/// events it simulated and whether every row matched.
fn rows_match(
    ok: &Value,
    expected: &[(String, Expected)],
    observed: Option<(&str, &mut HashMap<String, Expected>)>,
) -> (u64, bool) {
    let Some(rows) = ok.get("scenarios").and_then(Value::as_array) else {
        return (0, false);
    };
    let mut events = 0;
    let mut all_match = rows.len() == expected.len();
    let mut observed = observed;
    for (row, (stimulus, want)) in rows.iter().zip(expected) {
        let got = Expected::from_value(row);
        events += got.map_or(0, |got| got.events_processed());
        let label_matches = row.get("stimulus").and_then(Value::as_str) == Some(stimulus);
        all_match &= label_matches && got.as_ref() == Some(want);
        if let (Some((prefix, map)), Some(got)) = (observed.as_mut(), got) {
            map.entry(format!("{prefix}/{stimulus}")).or_insert(got);
        }
    }
    (events, all_match)
}

/// What one client measured and checked.
#[derive(Default)]
struct ClientData {
    pass_ms: Vec<f64>,
    pass_traced_ms: Vec<f64>,
    request_sum_ms: Vec<f64>,
    simulate_us: Vec<f64>,
    simulate_traced_us: Vec<f64>,
    load_us: Vec<f64>,
    whatif_us: Vec<f64>,
    run_us: Vec<f64>,
    outside_run_us: Vec<f64>,
    build_us: Vec<f64>,
    events: u64,
    ok: u64,
    loads: u64,
    /// `unknown_key` answers, each followed by a reload.
    evicted: u64,
    attempted: u64,
    failed: u64,
    /// The key each circuit's first load answered; later loads must match.
    keys: HashMap<usize, String>,
    observed: HashMap<String, Expected>,
    trace: Option<Trace>,
}

struct Shared<'a> {
    workload: &'a Workload,
    expected: &'a [Vec<Vec<(String, Expected)>>],
    what_ifs: &'a [Vec<Vec<WhatIf>>],
    locks: &'a [RwLock<()>],
    hot: bool,
    traced: bool,
    seed: u64,
    deadline: Instant,
    origin: Instant,
}

/// What one request came back with.
enum Reply {
    /// The `ok` payload, the client latency in µs, the daemon's run time
    /// in ns and the time spent building the request in µs.
    Ok(Value, f64, u64, f64),
    /// `unknown_key` on `serve_churn`: the circuit was evicted.  Not a
    /// failure; the caller reloads it and repeats.
    Evicted,
    /// Any other error answer, counted as failed.
    Failed,
}

/// One client's requests inside a pass: sends them, records latency and
/// spans, and reloads evicted circuits.
struct Pass<'c, 's> {
    shared: &'c Shared<'s>,
    conn: &'c mut Conn,
    data: &'c mut ClientData,
    traced: bool,
    request_sum_us: f64,
}

impl Pass<'_, '_> {
    fn send(&mut self, id: u64, body: String, built_from: Instant) -> Reply {
        self.data.attempted += 1;
        match self.conn.call(&body) {
            Ok((ok, timing)) => {
                let latency = timing.latency_us();
                self.request_sum_us += latency;
                self.data.ok += 1;
                let run_ns = ok.get("wall_time_ns").and_then(Value::as_u64).unwrap_or(0);
                if self.traced {
                    let trace = self
                        .data
                        .trace
                        .as_mut()
                        .expect("traced clients keep a trace");
                    let root = trace.record("request", 0, id, built_from, timing.parsed);
                    trace.record("build", root, id, built_from, timing.send);
                    trace.record("send", root, id, timing.send, timing.sent);
                    let receive = trace.record("receive", root, id, timing.sent, timing.received);
                    trace.record("parse", root, id, timing.received, timing.parsed);
                    if run_ns > 0 {
                        let run_end = timing.sent + Duration::from_nanos(run_ns);
                        trace.record("server.run", receive, id, timing.sent, run_end);
                    }
                }
                Reply::Ok(ok, latency, run_ns, us(timing.send - built_from))
            }
            Err(err) if err == EVICTED && !self.shared.hot => {
                self.data.evicted += 1;
                Reply::Evicted
            }
            Err(err) => {
                self.fail(&err);
                Reply::Failed
            }
        }
    }

    fn fail(&mut self, why: &str) {
        self.data.failed += 1;
        if self.data.failed <= REPORTED_FAILURES {
            eprintln!("perfbench: serve: {why}");
        }
    }

    /// Loads a circuit, as structural Verilog on every second load of
    /// `serve_churn`, and returns its key; `None` if the load failed.
    fn load(&mut self, circuit_index: usize) -> Option<String> {
        let shared = self.shared;
        let circuit = &shared.workload.circuits[circuit_index];
        let built_from = Instant::now();
        let id = self.conn.take_id();
        let body = if !shared.hot && self.data.loads % 2 == 1 {
            format!(
                r#"{{"op":"load","id":{id},"netlist":{},"format":"verilog"}}"#,
                json::string(&circuit.verilog)
            )
        } else {
            load_request(id, &circuit.text)
        };
        self.data.loads += 1;
        let (ok, latency) = match self.send(id, body, built_from) {
            Reply::Ok(ok, latency, _, _) => (ok, latency),
            Reply::Evicted => {
                self.fail("load answered unknown_key");
                return None;
            }
            Reply::Failed => return None,
        };
        self.data.load_us.push(latency);
        let Some(key) = ok.get("key").and_then(Value::as_str).map(str::to_string) else {
            self.fail("load answered without a key");
            return None;
        };
        let first = self
            .data
            .keys
            .entry(circuit_index)
            .or_insert_with(|| key.clone())
            .clone();
        if first != key {
            self.fail(&format!("load answered key {key}, earlier {first}"));
        } else if shared.hot && ok.get("cached").and_then(Value::as_bool) != Some(true) {
            self.fail("load missed the preloaded cache");
        }
        Some(key)
    }

    /// Simulates `entry` under `model` on the circuit `key` names,
    /// reloading the circuit whenever it was evicted.  Returns the `ok`
    /// payload; `None` if the request failed.
    fn simulate(
        &mut self,
        key: &mut String,
        circuit_index: usize,
        entry: &CorpusEntry,
        model: usize,
    ) -> Option<Value> {
        for _ in 0..RELOADS {
            let built_from = Instant::now();
            let id = self.conn.take_id();
            let body = simulate_request(id, key, &entry.suite, MODELS[model]);
            match self.send(id, body, built_from) {
                Reply::Ok(ok, latency, run_ns, build_us) => {
                    record_simulate(self.data, self.traced, latency, run_ns, build_us);
                    return Some(ok);
                }
                Reply::Evicted => *key = self.load(circuit_index)?,
                Reply::Failed => return None,
            }
        }
        self.fail("circuit evicted on every try");
        None
    }

    /// One what-if: `edit`, `simulate`, `revert`, with the simulate checked
    /// against the in-process reference.  Starts over from the edit when
    /// the circuit was evicted before the simulate answered, because the
    /// eviction dropped the edit with it.
    fn what_if(
        &mut self,
        key: &mut String,
        circuit_index: usize,
        entry: &CorpusEntry,
        what_if: &WhatIf,
    ) {
        for _ in 0..RELOADS {
            let cycle_started = Instant::now();
            let id = self.conn.take_id();
            match self.send(id, what_if.edit_request(id, key), Instant::now()) {
                Reply::Ok(..) => {}
                Reply::Evicted => match self.load(circuit_index) {
                    Some(reloaded) => {
                        *key = reloaded;
                        continue;
                    }
                    None => return,
                },
                Reply::Failed => return,
            }
            let built_from = Instant::now();
            let id = self.conn.take_id();
            let body = simulate_request(id, key, &entry.suite, MODELS[what_if.model]);
            let (ok, latency, run_ns, build_us) = match self.send(id, body, built_from) {
                Reply::Ok(ok, latency, run_ns, build_us) => (ok, latency, run_ns, build_us),
                Reply::Evicted => match self.load(circuit_index) {
                    Some(reloaded) => {
                        *key = reloaded;
                        continue;
                    }
                    None => return,
                },
                Reply::Failed => return,
            };
            // Evicted here, the edited circuit is gone: nothing is left to
            // revert, and the next load compiles it afresh.
            let id = self.conn.take_id();
            if let Reply::Failed = self.send(id, revert_request(id, key), Instant::now()) {
                return;
            }
            self.data.whatif_us.push(us(cycle_started.elapsed()));
            record_simulate(self.data, self.traced, latency, run_ns, build_us);
            let (events, matched) = rows_match(&ok, &what_if.reference, None);
            self.data.events += events;
            if !matched {
                self.fail(&format!(
                    "{} what-if differs from its reference",
                    entry.name
                ));
            }
            return;
        }
        self.fail("circuit evicted on every try");
    }
}

fn client_loop(shared: &Shared<'_>, conn: &mut Conn, client: usize) -> ClientData {
    let mut data = ClientData {
        trace: shared.traced.then(|| Trace::new(shared.origin)),
        ..ClientData::default()
    };
    let workload = shared.workload;
    let mut rng = Rng::new(shared.seed).fork(100 + client as u64);
    let mut pass_no = 0usize;
    while pass_no == 0 || Instant::now() < shared.deadline {
        let traced = shared.traced && pass_no % 2 == 1;
        let pass_started = Instant::now();
        let mut pass = Pass {
            shared,
            conn,
            data: &mut data,
            traced,
            request_sum_us: 0.0,
        };
        for entry_index in rng.permutation(workload.entries.len()) {
            let entry = &workload.entries[entry_index];
            let circuit_index = workload.circuit_of[entry_index];
            let lock = &shared.locks[circuit_index];

            // The load and the golden simulates hold the circuit's read lock.
            let mut key = {
                let _guard =
                    (!shared.hot).then(|| lock.read().expect("client locks are never poisoned"));
                let Some(mut key) = pass.load(circuit_index) else {
                    continue;
                };
                for (model, expected) in shared.expected[entry_index].iter().enumerate() {
                    let Some(ok) = pass.simulate(&mut key, circuit_index, entry, model) else {
                        continue;
                    };
                    let column = format!("{}/{}", entry.name, MODELS[model]);
                    let (events, matched) =
                        rows_match(&ok, expected, Some((&column, &mut pass.data.observed)));
                    pass.data.events += events;
                    if !matched {
                        pass.fail(&format!("{column} differs from the golden"));
                    }
                }
                key
            };
            if shared.hot {
                continue;
            }

            // The what-if and the simulate after it hold the write lock.
            let what_if = &shared.what_ifs[client][entry_index][pass_no % WHAT_IFS_PER_ENTRY];
            let _guard = lock.write().expect("client locks are never poisoned");
            pass.what_if(&mut key, circuit_index, entry, what_if);
            // After the revert the circuit must answer with the golden.
            if let Some(ok) = pass.simulate(&mut key, circuit_index, entry, what_if.model) {
                let (events, matched) =
                    rows_match(&ok, &shared.expected[entry_index][what_if.model], None);
                pass.data.events += events;
                if !matched {
                    pass.fail(&format!(
                        "{} differs from the golden after revert",
                        entry.name
                    ));
                }
            }
        }
        let request_sum_ms = pass.request_sum_us / 1e3;
        let pass_ms = us(pass_started.elapsed()) / 1e3;
        if traced {
            data.pass_traced_ms.push(pass_ms);
        } else {
            data.pass_ms.push(pass_ms);
            data.request_sum_ms.push(request_sum_ms);
        }
        pass_no += 1;
    }
    data
}

fn record_simulate(data: &mut ClientData, traced: bool, latency: f64, run_ns: u64, build_us: f64) {
    let run_us = run_ns as f64 / 1e3;
    data.build_us.push(build_us);
    if traced {
        data.simulate_traced_us.push(latency);
    } else {
        data.simulate_us.push(latency);
    }
    data.run_us.push(run_us);
    data.outside_run_us.push(latency - run_us);
}

/// The daemon's `stats` answer.
fn daemon_stats(daemon: &Daemon) -> Result<Value, String> {
    Ok(daemon.connect()?.call(&stats_request(1))?.0)
}

/// Golden rows of every entry × model column, in stimulus order.
fn expected_rows(workload: &Workload, golden: &Golden) -> Vec<Vec<Vec<(String, Expected)>>> {
    let library = technology::cmos06();
    workload
        .entries
        .iter()
        .map(|entry| {
            let stimuli: Vec<String> = entry
                .suite
                .stimuli(&entry.netlist, &library)
                .into_iter()
                .map(|(label, _)| label)
                .collect();
            MODELS
                .iter()
                .map(|model| {
                    stimuli
                        .iter()
                        .map(|stimulus| {
                            let label = format!("{}/{stimulus}/{model}", entry.name);
                            let want = golden.rows.get(&label).copied().unwrap_or(Expected {
                                counters: [u64::MAX; 7],
                                glitch_pulses: u64::MAX,
                                energy_bits: u64::MAX,
                            });
                            (stimulus.clone(), want)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Options of one serve run.
pub struct ServeRun<'a> {
    pub binary: &'a Path,
    pub hot: bool,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub corrupt: Option<&'a str>,
}

pub fn run(options: &ServeRun<'_>, workload: &Workload) -> Result<RunData, String> {
    let mut data = RunData::default();
    let text = std::fs::read_to_string("CORPUS_stats.json")
        .map_err(|err| format!("CORPUS_stats.json: {err}"))?;
    let mut golden = Golden::parse(text)?;
    if let Some(label) = options.corrupt {
        golden.corrupt(label);
    }
    let expected = expected_rows(workload, &golden);
    let root_rng = Rng::new(options.seed);
    let what_ifs: Vec<Vec<Vec<WhatIf>>> = if options.hot {
        Vec::new()
    } else {
        (0..CLIENTS)
            .map(|client| {
                what_ifs(
                    workload,
                    &mut root_rng.fork(200 + client as u64),
                    WHAT_IFS_PER_ENTRY,
                )
            })
            .collect()
    };
    let locks: Vec<RwLock<()>> = workload.circuits.iter().map(|_| RwLock::new(())).collect();

    let mut daemon = None;
    for attempt in 0..SETUPS {
        let socket = PathBuf::from(format!(
            ".bench_out/serve-{}-{attempt}.sock",
            std::process::id()
        ));
        let (started, seconds) = Daemon::spawn(options.binary, socket, options.hot)?;
        data.setup_s.push(seconds);
        if attempt + 1 < SETUPS {
            started.shutdown();
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("the last daemon keeps running");
    let mut conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    // Counters before the clients start, so preload work is not counted.
    let before = daemon_stats(&daemon)?;

    let origin = Instant::now();
    let shared = Shared {
        workload,
        expected: &expected,
        what_ifs: &what_ifs,
        locks: &locks,
        hot: options.hot,
        traced: options.traced,
        seed: options.seed,
        deadline: origin + Duration::from_secs_f64(options.seconds),
        origin,
    };
    let results: Vec<ClientData> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(client, conn)| {
                let shared = &shared;
                scope.spawn(move || client_loop(shared, conn, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client threads do not panic"))
            .collect()
    });
    data.busy_s = origin.elapsed().as_secs_f64();
    drop(conns);

    let after = daemon_stats(&daemon)?;
    let counter = |path: &[&str]| {
        let read = |stats: &Value| {
            path.iter()
                .try_fold(stats, |doc, key| doc.get(key))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        read(&after) - read(&before)
    };
    data.peak_rss_mb = crate::util::peak_rss_mb(daemon.pid());
    daemon.shutdown();

    let mut observed = HashMap::new();
    let (mut loads, mut evicted) = (0, 0);
    for result in results {
        data.pass_ms.extend(result.pass_ms);
        data.pass_traced_ms.extend(result.pass_traced_ms);
        data.request_sum_ms.extend(result.request_sum_ms);
        data.simulate_us.extend(result.simulate_us);
        data.simulate_traced_us.extend(result.simulate_traced_us);
        data.load_us.extend(result.load_us);
        data.whatif_us.extend(result.whatif_us);
        data.run_us.extend(result.run_us);
        data.outside_run_us.extend(result.outside_run_us);
        data.build_us.extend(result.build_us);
        data.events += result.events;
        data.ok_ops += result.ok;
        data.attempted += result.attempted;
        data.failed += result.failed;
        loads += result.loads;
        evicted += result.evicted;
        for (label, row) in result.observed {
            observed.entry(label).or_insert(row);
        }
        if let Some(trace) = result.trace {
            data.traces.push(trace);
        }
    }
    println!("serve: {loads} loads, {evicted} unknown_key answers reloaded");
    data.cache = [
        crate::util::ratio(counter(&["cache", "hits"]), loads as f64),
        counter(&["cache", "evictions"]),
        counter(&["busy_rejections"]),
    ];
    for (entry, columns) in workload.entries.iter().zip(&expected) {
        for (model, rows) in MODELS.iter().zip(columns) {
            for (stimulus, _) in rows {
                let Some(row) = observed.get(&format!("{}/{model}/{stimulus}", entry.name)) else {
                    continue;
                };
                data.counts[0] += row.events_processed();
                data.counts[1] += row.events_filtered();
                data.counts[2] += row.events_scheduled();
                data.counts[3] = data.counts[3].max(row.queue_high_water());
            }
        }
    }
    data.columns = workload
        .entries
        .iter()
        .zip(&expected)
        .flat_map(|(_, columns)| {
            columns.iter().enumerate().map(|(model, rows)| {
                let events = rows.iter().map(|(_, row)| row.events_processed()).sum();
                (model, rows.len(), events)
            })
        })
        .collect();
    Ok(data)
}
