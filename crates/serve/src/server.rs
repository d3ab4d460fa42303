//! The daemon: listeners, per-connection protocol loops, dispatch.
//!
//! One thread per connection reads frames and dispatches them; cheap
//! operations (`load`, `edit`, `revert`, `stats`, `shutdown`) run inline,
//! while `simulate` is handed to the [`Scheduler`] worker pool and its
//! response is delivered through the connection's writer thread — so a
//! client may pipeline requests and receive responses out of order,
//! matched by `"id"`.
//!
//! Robustness invariants enforced here:
//!
//! * every failure path answers with a structured error frame (when the
//!   transport still permits one) and the daemon survives;
//! * per-connection read timeouts bound slow-loris clients;
//! * a per-connection in-flight quota plus the scheduler's bounded queue
//!   turn overload into explicit `quota` / `busy` errors, never unbounded
//!   queueing;
//! * shutdown drains: accepted work completes, new work is refused with
//!   `shutting_down`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use halotis_corpus::{mixed_model, GlitchProfile, StimulusSuite};
use halotis_delay::DelayModelKind;
use halotis_sim::{ActivityCounter, PowerAccumulator, SimulationConfig};

use crate::cache::{self, CacheEntry, CircuitCache};
use crate::frame::{read_frame, write_frame, FrameError};
use crate::json;
use crate::protocol::{
    parse_request, render_error, render_ok, ErrorCode, ModelSpec, ObserverSelection, ProtocolError,
    Request,
};
use crate::scheduler::{Scheduler, SubmitError};

/// Daemon tuning knobs; the defaults suit tests and small deployments.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// TCP bind address (e.g. `127.0.0.1:0`); `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix-domain socket path; `None` disables UDS.
    pub uds: Option<PathBuf>,
    /// Worker threads running simulations.
    pub workers: usize,
    /// Bounded depth of the simulation queue (overflow answers `busy`).
    pub queue_depth: usize,
    /// Circuits the LRU cache keeps compiled.
    pub cache_capacity: usize,
    /// Largest accepted frame body, in bytes.
    pub max_frame: usize,
    /// Simulations one connection may have in flight (overflow answers
    /// `quota`).
    pub max_inflight: usize,
    /// Per-connection read timeout (slow-loris bound).
    pub read_timeout: Duration,
    /// Replay the standard corpus into the compiled-circuit cache before
    /// accepting connections, so the first `simulate` of a well-known
    /// circuit never pays compilation latency.  The cache capacity is
    /// raised to hold the whole corpus if it is smaller.
    pub preload: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tcp: None,
            uds: None,
            workers: 2,
            queue_depth: 32,
            cache_capacity: 8,
            max_frame: 8 << 20,
            max_inflight: 8,
            read_timeout: Duration::from_secs(10),
            preload: false,
        }
    }
}

struct Shared {
    config: ServerConfig,
    cache: CircuitCache,
    scheduler: Scheduler,
    draining: AtomicBool,
    connections: AtomicUsize,
    requests: AtomicU64,
    errors: AtomicU64,
    busy_rejections: AtomicU64,
}

impl Shared {
    fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running daemon.  Dropping the handle does **not** stop it; call
/// [`wait`](ServerHandle::wait) (after a `shutdown` request or
/// [`initiate_shutdown`](ServerHandle::initiate_shutdown)) for an orderly
/// drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
    accepters: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The TCP address actually bound (resolves port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix-domain socket path, if one is bound.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// Flips the daemon into draining mode, as a `shutdown` request would.
    pub fn initiate_shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Blocks until the daemon has drained: accept loops exited, open
    /// connections finished (bounded by twice the read timeout), workers
    /// joined.  Returns only after a shutdown was initiated.
    pub fn wait(self) {
        for accepter in self.accepters {
            let _ = accepter.join();
        }
        let deadline =
            Instant::now() + self.shared.config.read_timeout * 2 + Duration::from_secs(1);
        while self.shared.connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.scheduler.shutdown();
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Binds the configured listeners and starts serving.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let tcp = match &config.tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };
    let uds = match &config.uds {
        Some(path) => {
            // A stale socket file from a dead daemon would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Some(listener)
        }
        None => None,
    };
    if tcp.is_none() && uds.is_none() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "server needs at least one of tcp / uds",
        ));
    }

    // Preload renders every standard-corpus netlist through the same path a
    // `load` request takes, so the cache keys match client fingerprints.
    // The capacity floor keeps the replay from evicting its own entries.
    let preload = if config.preload {
        Some(halotis_corpus::standard_corpus())
    } else {
        None
    };
    let mut config = config;
    if let Some(corpus) = &preload {
        config.cache_capacity = config.cache_capacity.max(corpus.len());
    }

    let shared = Arc::new(Shared {
        cache: CircuitCache::new(config.cache_capacity),
        scheduler: Scheduler::new(config.workers, config.queue_depth),
        draining: AtomicBool::new(false),
        connections: AtomicUsize::new(0),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        busy_rejections: AtomicU64::new(0),
        config,
    });

    if let Some(corpus) = preload {
        for entry in &corpus {
            let text = halotis_netlist::writer::to_text(&entry.netlist);
            shared
                .cache
                .load(&text)
                .expect("standard corpus circuits always compile");
        }
    }

    let tcp_addr = tcp
        .as_ref()
        .map(|listener| listener.local_addr())
        .transpose()?;
    let mut accepters = Vec::new();
    if let Some(listener) = tcp {
        let shared = Arc::clone(&shared);
        accepters.push(
            std::thread::Builder::new()
                .name("halotis-accept-tcp".into())
                .spawn(move || accept_loop_tcp(&listener, &shared))?,
        );
    }
    if let Some(listener) = uds {
        let shared = Arc::clone(&shared);
        accepters.push(
            std::thread::Builder::new()
                .name("halotis-accept-uds".into())
                .spawn(move || accept_loop_uds(&listener, &shared))?,
        );
    }
    let uds_path = shared.config.uds.clone();
    Ok(ServerHandle {
        shared,
        tcp_addr,
        uds_path,
        accepters,
    })
}

const ACCEPT_POLL: Duration = Duration::from_millis(25);

fn accept_loop_tcp(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => spawn_connection_tcp(stream, shared),
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn accept_loop_uds(listener: &UnixListener, shared: &Arc<Shared>) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => spawn_connection_uds(stream, shared),
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_connection_tcp(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(()) = stream.set_nonblocking(false) else {
        return;
    };
    let Ok(()) = stream.set_read_timeout(Some(shared.config.read_timeout)) else {
        return;
    };
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    spawn_connection(stream, writer, shared);
}

fn spawn_connection_uds(stream: UnixStream, shared: &Arc<Shared>) {
    let Ok(()) = stream.set_nonblocking(false) else {
        return;
    };
    let Ok(()) = stream.set_read_timeout(Some(shared.config.read_timeout)) else {
        return;
    };
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    spawn_connection(stream, writer, shared);
}

fn spawn_connection<S>(reader: S, writer: S, shared: &Arc<Shared>)
where
    S: Read + Write + Send + 'static,
{
    let shared = Arc::clone(shared);
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let shared_on_fail = Arc::clone(&shared);
    let spawned = std::thread::Builder::new()
        .name("halotis-conn".into())
        .spawn(move || {
            serve_connection(reader, writer, &shared);
            shared.connections.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        // The connection is dropped; the counter must not leak.
        shared_on_fail.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one connection: a writer thread serialises response frames, the
/// calling thread reads and dispatches requests.
fn serve_connection<S>(mut reader: S, mut writer: S, shared: &Arc<Shared>)
where
    S: Read + Write + Send + 'static,
{
    let (reply_tx, reply_rx) = channel::<String>();
    let writer_thread = std::thread::Builder::new()
        .name("halotis-conn-writer".into())
        .spawn(move || {
            while let Ok(frame) = reply_rx.recv() {
                if write_frame(&mut writer, frame.as_bytes()).is_err() {
                    break;
                }
            }
        });
    let Ok(writer_thread) = writer_thread else {
        return;
    };

    let inflight = Arc::new(AtomicUsize::new(0));
    loop {
        match read_frame(&mut reader, shared.config.max_frame) {
            Ok(None) => break,
            Ok(Some(body)) => {
                if !dispatch(&body, shared, &reply_tx, &inflight) {
                    break;
                }
            }
            Err(FrameError::TimedOut) => {
                shared.count_error();
                let error = ProtocolError::new(
                    ErrorCode::Timeout,
                    "read timed out mid-frame; closing connection",
                );
                let _ = reply_tx.send(render_error(None, &error));
                break;
            }
            Err(FrameError::TooLarge { announced, max }) => {
                shared.count_error();
                let error = ProtocolError::new(
                    ErrorCode::FrameTooLarge,
                    format!("frame of {announced} bytes exceeds the {max}-byte limit"),
                );
                let _ = reply_tx.send(render_error(None, &error));
                break;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => break,
        }
    }
    // In-flight jobs hold their own sender clones, so queued responses for
    // pipelined requests still flush before the writer exits.
    drop(reply_tx);
    let _ = writer_thread.join();
}

/// Handles one request frame. Returns `false` when the connection should
/// close (after `shutdown`).
fn dispatch(
    body: &[u8],
    shared: &Arc<Shared>,
    reply: &Sender<String>,
    inflight: &Arc<AtomicUsize>,
) -> bool {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let (id, request) = parse_request(body);
    let request = match request {
        Ok(request) => request,
        Err(error) => {
            shared.count_error();
            let _ = reply.send(render_error(id, &error));
            return true;
        }
    };
    let id = id.expect("parse_request validated the id");

    if shared.draining.load(Ordering::SeqCst) && !matches!(request, Request::Stats) {
        shared.count_error();
        let error = ProtocolError::new(ErrorCode::ShuttingDown, "daemon is draining");
        let _ = reply.send(render_error(Some(id), &error));
        return !matches!(request, Request::Shutdown);
    }

    match request {
        Request::Load { netlist, format } => {
            let outcome = shared.cache.load_as(&netlist, format);
            send_result(
                shared,
                reply,
                id,
                outcome.map(|report| render_load(&report)),
            );
            true
        }
        Request::Simulate {
            key,
            suite,
            model,
            observers,
        } => {
            submit_simulate(shared, reply, inflight, id, key, suite, model, observers);
            true
        }
        Request::Edit { key, commands } => {
            let outcome = with_entry(shared, &key, |entry| {
                entry.write_state().apply_commands(&commands).map(|report| {
                    format!(
                        r#"{{"edits":{},"revert_depth":{}}}"#,
                        report.edits, report.revert_depth
                    )
                })
            });
            send_result(shared, reply, id, outcome);
            true
        }
        Request::Revert { key } => {
            let outcome = with_entry(shared, &key, |entry| {
                entry
                    .write_state()
                    .revert()
                    .map(|report| format!(r#"{{"revert_depth":{}}}"#, report.revert_depth))
            });
            send_result(shared, reply, id, outcome);
            true
        }
        Request::Stats => {
            let cache = shared.cache.counters();
            let body = format!(
                concat!(
                    r#"{{"connections":{},"requests":{},"errors":{},"busy_rejections":{},"#,
                    r#""jobs_executed":{},"workers":{},"draining":{},"#,
                    r#""cache":{{"entries":{},"hits":{},"compiles":{},"evictions":{}}}}}"#
                ),
                shared.connections.load(Ordering::SeqCst),
                shared.requests.load(Ordering::Relaxed),
                shared.errors.load(Ordering::Relaxed),
                shared.busy_rejections.load(Ordering::Relaxed),
                shared.scheduler.executed(),
                shared.config.workers,
                shared.draining.load(Ordering::SeqCst),
                cache.entries,
                cache.hits,
                cache.compiles,
                cache.evictions,
            );
            let _ = reply.send(render_ok(id, &body));
            true
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = reply.send(render_ok(id, r#"{"draining":true}"#));
            false
        }
    }
}

fn send_result(
    shared: &Shared,
    reply: &Sender<String>,
    id: u64,
    outcome: Result<String, ProtocolError>,
) {
    let frame = match outcome {
        Ok(body) => render_ok(id, &body),
        Err(error) => {
            shared.count_error();
            render_error(Some(id), &error)
        }
    };
    let _ = reply.send(frame);
}

fn with_entry<T>(
    shared: &Shared,
    key: &str,
    f: impl FnOnce(&CacheEntry) -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    let entry = shared.cache.get(key).ok_or_else(|| {
        ProtocolError::new(
            ErrorCode::UnknownKey,
            format!("no circuit {key:?} is loaded (never loaded, or evicted)"),
        )
    })?;
    f(&entry)
}

fn render_load(report: &cache::LoadReport) -> String {
    format!(
        r#"{{"key":{},"circuit":{},"gates":{},"nets":{},"cached":{}}}"#,
        json::string(&report.key),
        json::string(&report.circuit),
        report.gates,
        report.nets,
        report.cached
    )
}

/// Decrements the connection's in-flight counter even if the job panics.
struct InflightGuard(Arc<AtomicUsize>);

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[allow(clippy::too_many_arguments)]
fn submit_simulate(
    shared: &Arc<Shared>,
    reply: &Sender<String>,
    inflight: &Arc<AtomicUsize>,
    id: u64,
    key: String,
    suite: StimulusSuite,
    model: ModelSpec,
    observers: ObserverSelection,
) {
    let entry = match shared.cache.get(&key) {
        Some(entry) => entry,
        None => {
            shared.count_error();
            let error = ProtocolError::new(
                ErrorCode::UnknownKey,
                format!("no circuit {key:?} is loaded (never loaded, or evicted)"),
            );
            let _ = reply.send(render_error(Some(id), &error));
            return;
        }
    };

    // The suite generators assert their input-count contracts; violating
    // them from the wire must be a structured error, not a worker panic.
    if let Some(error) = validate_suite(&entry, &suite) {
        shared.count_error();
        let _ = reply.send(render_error(Some(id), &error));
        return;
    }

    if inflight.fetch_add(1, Ordering::SeqCst) >= shared.config.max_inflight {
        inflight.fetch_sub(1, Ordering::SeqCst);
        shared.count_error();
        let error = ProtocolError::new(
            ErrorCode::Quota,
            format!(
                "connection already has {} simulations in flight",
                shared.config.max_inflight
            ),
        );
        let _ = reply.send(render_error(Some(id), &error));
        return;
    }
    let guard = InflightGuard(Arc::clone(inflight));

    let shared_for_job = Arc::clone(shared);
    let reply_for_job = reply.clone();
    let job = Box::new(move |arena: &mut crate::scheduler::WorkerArena| {
        let _guard = guard;
        let outcome = run_simulate(&shared_for_job, arena, &entry, &suite, model, observers);
        send_result(&shared_for_job, &reply_for_job, id, outcome);
    });
    match shared.scheduler.try_submit(job) {
        Ok(()) => {}
        Err(submit_error) => {
            // The job (and with it the guard) was dropped by the scheduler,
            // so the quota slot is already released.
            shared.count_error();
            if submit_error == SubmitError::Busy {
                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
            }
            let error = match submit_error {
                SubmitError::Busy => {
                    ProtocolError::new(ErrorCode::Busy, "simulation queue is full; retry later")
                }
                SubmitError::ShuttingDown => {
                    ProtocolError::new(ErrorCode::ShuttingDown, "daemon is draining")
                }
            };
            let _ = reply.send(render_error(Some(id), &error));
        }
    }
}

fn validate_suite(entry: &CacheEntry, suite: &StimulusSuite) -> Option<ProtocolError> {
    let state = entry.read_state();
    let inputs = state.active().netlist().primary_inputs().len();
    if inputs == 0 || inputs > 64 {
        return Some(ProtocolError::new(
            ErrorCode::BadRequest,
            format!("stimulus suites need 1–64 primary inputs, circuit has {inputs}"),
        ));
    }
    if matches!(suite, StimulusSuite::Exhaustive { .. })
        && inputs > halotis_corpus::stimuli::MAX_EXHAUSTIVE_INPUTS
    {
        return Some(ProtocolError::new(
            ErrorCode::BadRequest,
            format!(
                "exhaustive sweeps are limited to {} inputs, circuit has {inputs}",
                halotis_corpus::stimuli::MAX_EXHAUSTIVE_INPUTS
            ),
        ));
    }
    if let StimulusSuite::Clocked {
        period, high, skew, ..
    } = suite
    {
        if *high + *skew >= *period {
            return Some(ProtocolError::new(
                ErrorCode::BadRequest,
                "clocked suites need high_fs + skew_fs < period_fs",
            ));
        }
    }
    None
}

fn model_config(model: ModelSpec) -> SimulationConfig {
    // Must mirror the corpus columns exactly (see `CorpusEntry::scenarios`)
    // so daemon responses are bit-identical to in-process corpus runs.
    match model {
        ModelSpec::Ddm => SimulationConfig::default().model(DelayModelKind::Degradation),
        ModelSpec::Cdm => SimulationConfig::default().model(DelayModelKind::Conventional),
        ModelSpec::Mix => SimulationConfig::default().model(mixed_model()),
    }
}

fn run_simulate(
    shared: &Shared,
    arena: &mut crate::scheduler::WorkerArena,
    entry: &CacheEntry,
    suite: &StimulusSuite,
    model: ModelSpec,
    observers: ObserverSelection,
) -> Result<String, ProtocolError> {
    let started = Instant::now();
    // Holding the read lock for the whole run serialises against edits on
    // the same circuit; other circuits are unaffected.
    let state = entry.read_state();
    let circuit = state.active();
    let config = model_config(model);
    let stimuli = suite.stimuli(circuit.netlist(), cache::library());
    let sim_state = arena.adopt(circuit);

    let mut rows = String::new();
    for (index, (stimulus_label, stimulus)) in stimuli.iter().enumerate() {
        let mut observer = (
            (ActivityCounter::new(), PowerAccumulator::new()),
            GlitchProfile::new(),
        );
        let stats = circuit
            .run_observed(sim_state, stimulus, &config, &mut observer)
            .map_err(|err| ProtocolError::new(ErrorCode::SimError, err.to_string()))?;
        let ((activity, power), glitches) = &observer;
        if index > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            concat!(
                r#"{{"stimulus":{},"events_scheduled":{},"events_filtered":{},"#,
                r#""events_processed":{},"output_transitions":{},"#,
                r#""degraded_transitions":{},"collapsed_transitions":{},"#,
                r#""queue_high_water":{}"#
            ),
            json::string(stimulus_label),
            stats.events_scheduled,
            stats.events_filtered,
            stats.events_processed,
            stats.output_transitions,
            stats.degraded_transitions,
            stats.collapsed_transitions,
            stats.queue_high_water,
        ));
        if observers.activity {
            rows.push_str(&format!(
                r#","transitions":{}"#,
                activity.total_transitions()
            ));
        }
        if observers.power {
            rows.push_str(&format!(
                r#","energy_joules":{}"#,
                json::number(power.total_joules())
            ));
        }
        if observers.glitches {
            rows.push_str(&format!(
                r#","glitch_pulses":{}"#,
                glitches.total_glitches()
            ));
        }
        rows.push('}');
    }
    let _ = shared; // counters already tracked by the caller
    Ok(format!(
        r#"{{"key":{},"model":{},"scenarios":[{}],"wall_time_ns":{}}}"#,
        json::string(entry.key()),
        json::string(model.as_str()),
        rows,
        started.elapsed().as_nanos()
    ))
}
