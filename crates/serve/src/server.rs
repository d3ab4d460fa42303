//! The daemon: listeners, per-connection protocol loops, dispatch.
//!
//! Each connection has one thread, which reads request frames and dispatches
//! them.  Cheap operations (`load`, `edit`, `revert`, `stats`, `shutdown`)
//! run inline and that thread writes their answers; `simulate` is handed to
//! the [`Scheduler`] worker pool, and the worker that runs it writes its own
//! answer, or leaves it to the thread already writing to that connection.
//! One whole frame goes out at a time, so a client may pipeline requests and
//! receive `simulate` answers out of order, matched by `"id"`.
//!
//! Robustness invariants enforced here:
//!
//! * every failure path answers with a structured error frame (when the
//!   transport still permits one) and the daemon survives;
//! * `read_timeout` bounds every read and every turn of writes: a client
//!   that trickles a frame, or idles with no `simulate` outstanding, gets
//!   `timeout`, and a connection whose waiting answers cannot all be
//!   written within that long is closed;
//! * answers are never queued beyond the socket and the in-flight quota:
//!   while the connection's thread waits to write, it reads no further
//!   request, so a client that stops reading stops its own requests, not
//!   the daemon's memory;
//! * no worker waits on another thread's writes, so a client that reads
//!   slowly holds at most one worker, for at most `read_timeout` at a time;
//! * a per-connection in-flight quota plus the scheduler's bounded queue
//!   turn overload into explicit `quota` / `busy` errors, never unbounded
//!   queueing;
//! * shutdown drains: accepted work completes, new work is refused with
//!   `shutting_down`.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use halotis_corpus::stimuli::pattern_start;
use halotis_corpus::{ModelColumn, ScenarioObserver, StimulusSuite};
use halotis_sim::SimulationConfig;

use crate::cache::{self, CacheEntry, CircuitCache};
use crate::frame::{read_frame, write_frame, FrameError};
use crate::json;
use crate::protocol::{parse_request, render_error, render_ok, ErrorCode, ProtocolError, Request};
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
    /// Per-connection I/O timeout: it bounds each read (the slow-loris
    /// bound) and each turn of answer writes (a client that stops reading).
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

/// A running daemon.  Dropping the handle does **not** stop it; call
/// [`wait`](ServerHandle::wait) (after a `shutdown` request or
/// [`initiate_shutdown`](ServerHandle::initiate_shutdown)) for an orderly
/// drain.
pub struct ServerHandle {
    shared: Arc<Shared>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
    accepters: Vec<JoinHandle<()>>,
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
        accepters.push(spawn_accept_loop(
            "halotis-accept-tcp",
            &shared,
            move || listener.accept().map(|(stream, _)| stream),
        )?);
    }
    if let Some(listener) = uds {
        accepters.push(spawn_accept_loop(
            "halotis-accept-uds",
            &shared,
            move || listener.accept().map(|(stream, _)| stream),
        )?);
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

/// A connected stream socket of either transport.
trait Socket: Read + Write + Send + 'static {
    /// Makes the socket blocking with `timeout` on every read and write, and
    /// returns a second handle to it for the connection's write half.
    fn prepare(&self, timeout: Duration) -> std::io::Result<Self>
    where
        Self: Sized;

    /// Bounds each later write call to `timeout`.
    fn limit_writes(&self, timeout: Duration) -> std::io::Result<()>;

    /// The most bytes one write call may carry for the timeout to bound the
    /// whole call.  A TCP write's waits all count against one timeout, but
    /// a Unix-domain write waits afresh for each buffer of up to 32 KiB.
    fn max_write(&self) -> usize;
}

macro_rules! impl_socket {
    ($($stream:ty => $max_write:expr),*) => {$(
        impl Socket for $stream {
            fn prepare(&self, timeout: Duration) -> std::io::Result<Self> {
                self.set_nonblocking(false)?;
                self.set_read_timeout(Some(timeout))?;
                self.set_write_timeout(Some(timeout))?;
                self.try_clone()
            }

            fn limit_writes(&self, timeout: Duration) -> std::io::Result<()> {
                self.set_write_timeout(Some(timeout))
            }

            fn max_write(&self) -> usize {
                $max_write
            }
        }
    )*};
}

impl_socket!(TcpStream => usize::MAX, UnixStream => 32 << 10);

/// Spawns the thread that polls one non-blocking listener until the daemon
/// drains, giving each accepted connection its own thread.
fn spawn_accept_loop<S: Socket>(
    name: &str,
    shared: &Arc<Shared>,
    accept: impl Fn() -> std::io::Result<S> + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            while !shared.draining.load(Ordering::SeqCst) {
                match accept() {
                    Ok(stream) => spawn_connection(stream, &shared),
                    // Nothing pending (`WouldBlock`), or a transient failure.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        })
}

fn spawn_connection<S: Socket>(stream: S, shared: &Arc<Shared>) {
    let timeout = shared.config.read_timeout;
    let Ok(writer) = stream.prepare(timeout) else {
        return;
    };
    let conn = Arc::new(Conn {
        state: Mutex::new(ConnState {
            writer: Some(Box::new(writer)),
            queued: VecDeque::new(),
            inflight: 0,
        }),
        turn_ended: Condvar::new(),
        timeout,
        broken: AtomicBool::new(false),
    });
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("halotis-conn".into())
        .spawn(move || {
            serve_connection(stream, &conn, &thread_shared);
            thread_shared.connections.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        // The connection is dropped; the counter must not leak.
        shared.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's write path, shared by its thread (inline answers) and
/// the workers running its `simulate`s (their own answers).  One thread at a
/// time takes the socket's write half for a *turn*: it writes its answer and
/// every answer queued meanwhile, all within one `timeout`, then puts the
/// half back.  A worker that finds a turn under way queues its answer for
/// that turn instead of waiting, so no worker waits on another's writes.
struct Conn {
    state: Mutex<ConnState>,
    /// Wakes the connection's thread, waiting to write, when a turn ends.
    turn_ended: Condvar,
    /// How long one turn may take: the daemon's `read_timeout`.
    timeout: Duration,
    /// A write failed or a turn ran out of time: later answers are dropped,
    /// and the reader stops at its next frame.
    broken: AtomicBool,
}

struct ConnState {
    /// The socket's write half; `None` during a turn.
    writer: Option<Box<dyn Socket>>,
    /// `simulate` answers waiting for a turn.
    queued: VecDeque<String>,
    /// `simulate`s admitted whose answers no turn has taken yet: the
    /// `max_inflight` quota, which so also bounds `queued`.
    inflight: usize,
}

impl Conn {
    /// Locks the state.  No update to it can be left half-done by a panic,
    /// so a lock poisoned by a panicking job is recovered.
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn broken(&self) -> bool {
        self.broken.load(Ordering::Relaxed)
    }

    /// Whether a `simulate` of this connection is still to be answered.
    fn awaits_answers(&self) -> bool {
        !self.broken() && self.lock().inflight > 0
    }

    /// Takes a place in the in-flight quota, if one is free.
    fn admit(self: &Arc<Self>, max_inflight: usize) -> Option<Slot> {
        let mut state = self.lock();
        (state.inflight < max_inflight).then(|| {
            state.inflight += 1;
            Slot(Some(Arc::clone(self)))
        })
    }

    /// Writes an answer of the connection's own thread, first waiting for a
    /// worker's turn to end.  Meanwhile the thread reads no request, which
    /// is the backpressure on a client that stops reading.
    fn send(&self, frame: &str) {
        let mut state = self.lock();
        let writer = loop {
            match state.writer.take() {
                Some(writer) => break writer,
                None => {
                    state = self
                        .turn_ended
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        drop(state);
        self.turn(writer, Some(frame));
    }

    /// Queues a worker's `simulate` answer, and takes a turn to write it
    /// unless one is under way, which then writes it.
    fn answer(&self, frame: String) {
        let writer = {
            let mut state = self.lock();
            state.queued.push_back(frame);
            state.writer.take()
        };
        if let Some(writer) = writer {
            self.turn(writer, None);
        }
    }

    /// Writes `own`, then each queued answer, freeing its quota place as it
    /// is taken, and puts the write half back once none is left.
    fn turn(&self, mut writer: Box<dyn Socket>, own: Option<&str>) {
        let mut out = Deadline {
            socket: &mut *writer,
            ends: Instant::now() + self.timeout,
            started: false,
            shortened: false,
        };
        if let Some(frame) = own {
            self.write(&mut out, frame);
        }
        loop {
            let mut state = self.lock();
            let Some(frame) = state.queued.pop_front() else {
                if out.shortened && out.socket.limit_writes(self.timeout).is_err() {
                    self.broken.store(true, Ordering::Relaxed);
                }
                state.writer = Some(writer);
                drop(state);
                self.turn_ended.notify_one();
                return;
            };
            state.inflight -= 1;
            drop(state);
            self.write(&mut out, &frame);
        }
    }

    /// Writes one whole frame, unless the connection is already broken.
    fn write(&self, out: &mut Deadline<'_>, frame: &str) {
        if !self.broken() && write_frame(out, frame.as_bytes()).is_err() {
            self.broken.store(true, Ordering::Relaxed);
        }
    }
}

/// The writes of one turn.  The socket's write timeout bounds each write
/// call (of at most [`Socket::max_write`] bytes), so every call after the
/// turn's first gets only what is left of the turn: partial writes share one
/// deadline instead of each starting afresh.
struct Deadline<'a> {
    socket: &'a mut dyn Socket,
    ends: Instant,
    /// A write call was made; later ones shorten the socket's timeout.
    started: bool,
    /// The socket's write timeout was shortened and must be restored.
    shortened: bool,
}

impl Write for Deadline<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.started {
            let left = self.ends.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            self.socket.limit_writes(left)?;
            self.shortened = true;
        }
        self.started = true;
        let len = buf.len().min(self.socket.max_write());
        self.socket.write(&buf[..len])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.socket.flush()
    }
}

/// Runs one connection on the calling thread: reads each request frame and
/// dispatches it.  Nothing queues this thread's answers: while one waits to
/// be written, no further request is read, so a client that stops reading
/// meets socket backpressure, and after `read_timeout` of it the connection
/// closes.  An idle read times out only once every `simulate` of the
/// connection has been answered, so a client waiting on one is not cut off.
fn serve_connection(mut reader: impl Read, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    let error = loop {
        match read_frame(&mut reader, shared.config.max_frame) {
            Ok(Some(body)) => {
                if !dispatch(&body, shared, conn) || conn.broken() {
                    return;
                }
            }
            Ok(None) | Err(FrameError::Truncated | FrameError::Io(_)) => return,
            Err(FrameError::Idle) if conn.awaits_answers() => {}
            Err(FrameError::Idle | FrameError::TimedOut) => {
                break ProtocolError::new(ErrorCode::Timeout, "read timed out; closing connection")
            }
            Err(err @ FrameError::TooLarge { .. }) => {
                break ProtocolError::new(ErrorCode::FrameTooLarge, err.to_string())
            }
        }
    };
    conn.send(&error_frame(shared, None, &error));
}

/// Handles one request frame. Returns `false` when the connection should
/// close (after `shutdown`).
fn dispatch(body: &[u8], shared: &Arc<Shared>, conn: &Arc<Conn>) -> bool {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let (id, request) = parse_request(body);
    let request = match request {
        Ok(request) => request,
        Err(error) => {
            conn.send(&error_frame(shared, id, &error));
            return true;
        }
    };
    let id = id.expect("parse_request validated the id");

    if shared.draining.load(Ordering::SeqCst) && !matches!(request, Request::Stats) {
        let error = ProtocolError::new(ErrorCode::ShuttingDown, "daemon is draining");
        conn.send(&error_frame(shared, Some(id), &error));
        return !matches!(request, Request::Shutdown);
    }

    let outcome = match request {
        Request::Load { netlist, format } => shared
            .cache
            .load_as(&netlist, format)
            .map(|report| render_load(&report)),
        Request::Simulate { key, suite, model } => {
            submit_simulate(shared, conn, id, key, suite, model);
            return true;
        }
        Request::Edit { key, commands } => with_entry(shared, &key, |entry| {
            entry.write_state().apply_commands(&commands).map(|report| {
                format!(
                    r#"{{"edits":{},"revert_depth":{}}}"#,
                    report.edits, report.revert_depth
                )
            })
        }),
        Request::Revert { key } => with_entry(shared, &key, |entry| {
            entry
                .write_state()
                .revert()
                .map(|report| format!(r#"{{"revert_depth":{}}}"#, report.revert_depth))
        }),
        Request::Stats => {
            let cache = shared.cache.counters();
            Ok(format!(
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
            ))
        }
        Request::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            conn.send(&render_ok(id, r#"{"draining":true}"#));
            return false;
        }
    };
    conn.send(&result_frame(shared, id, outcome));
    true
}

/// Renders an error answer, counting it in `stats`.
fn error_frame(shared: &Shared, id: Option<u64>, error: &ProtocolError) -> String {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    render_error(id, error)
}

fn result_frame(shared: &Shared, id: u64, outcome: Result<String, ProtocolError>) -> String {
    match outcome {
        Ok(body) => render_ok(id, &body),
        Err(error) => error_frame(shared, Some(id), &error),
    }
}

fn with_entry<T>(
    shared: &Shared,
    key: &str,
    f: impl FnOnce(&CacheEntry) -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    let entry = shared.cache.get(key).ok_or_else(|| unknown_key(key))?;
    f(&entry)
}

fn unknown_key(key: &str) -> ProtocolError {
    ProtocolError::new(
        ErrorCode::UnknownKey,
        format!("no circuit {key:?} is loaded (never loaded, or evicted)"),
    )
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

/// A `simulate`'s place in its connection's in-flight quota.  Its answer is
/// queued for a turn, and the turn that takes the answer to write frees the
/// place, so a client that has read the answer never gets `quota` for that
/// place, and a client that reads nothing has at most its quota of answers
/// waiting.  Dropped unanswered (the scheduler refused the job, or it
/// panicked), the slot frees its place at once.
struct Slot(Option<Arc<Conn>>);

impl Slot {
    fn answer(mut self, frame: String) {
        if let Some(conn) = self.0.take() {
            conn.answer(frame);
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if let Some(conn) = self.0.take() {
            conn.lock().inflight -= 1;
        }
    }
}

fn submit_simulate(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    id: u64,
    key: String,
    suite: StimulusSuite,
    model: ModelColumn,
) {
    let Some(entry) = shared.cache.get(&key) else {
        conn.send(&error_frame(shared, Some(id), &unknown_key(&key)));
        return;
    };

    // The suite generators assert their input-count contracts; violating
    // them from the wire must be a structured error, not a worker panic.
    let config = model.config();
    if let Some(error) = validate_suite(&entry, &suite, config.max_events) {
        conn.send(&error_frame(shared, Some(id), &error));
        return;
    }

    let Some(slot) = conn.admit(shared.config.max_inflight) else {
        let error = ProtocolError::new(
            ErrorCode::Quota,
            format!(
                "connection already has {} simulations in flight",
                shared.config.max_inflight
            ),
        );
        conn.send(&error_frame(shared, Some(id), &error));
        return;
    };

    let shared_for_job = Arc::clone(shared);
    let job = Box::new(move |arena: &mut crate::scheduler::WorkerArena| {
        let outcome = run_simulate(arena, &entry, &suite, model, &config);
        slot.answer(result_frame(&shared_for_job, id, outcome));
    });
    if let Err(submit_error) = shared.scheduler.try_submit(job) {
        // The scheduler dropped the job, and with it the slot, so the quota
        // place is already released.
        let error = match submit_error {
            SubmitError::Busy => {
                shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                ProtocolError::new(ErrorCode::Busy, "simulation queue is full; retry later")
            }
            SubmitError::ShuttingDown => {
                ProtocolError::new(ErrorCode::ShuttingDown, "daemon is draining")
            }
        };
        conn.send(&error_frame(shared, Some(id), &error));
    }
}

fn validate_suite(
    entry: &CacheEntry,
    suite: &StimulusSuite,
    max_events: usize,
) -> Option<ProtocolError> {
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
    // A suite long enough to blow the run's event budget or to overflow
    // the femtosecond clock is refused before it is expanded: expanding it
    // could exhaust memory, and wrapped times would give wrong answers.
    // Patterns start at 1 ns, one every `period`, so the start of pattern
    // `count` bounds the last stimulus transition; expanding the suite
    // computes its pattern times with the same function.
    let (transitions, period, count) = match *suite {
        StimulusSuite::RandomVectors {
            vectors, period, ..
        } => (inputs.saturating_mul(vectors), period, vectors),
        StimulusSuite::Exhaustive { period } => (inputs << inputs, period, 1 << inputs),
        StimulusSuite::Clocked { cycles, period, .. } => {
            (cycles.saturating_mul(inputs + 1), period, cycles)
        }
        StimulusSuite::ToggleProbes { .. } => return None,
    };
    if transitions > max_events {
        return Some(ProtocolError::new(
            ErrorCode::BadRequest,
            format!(
                "the suite drives {transitions} stimulus transitions, over the run's \
                 {max_events}-event budget"
            ),
        ));
    }
    if pattern_start(period, count).is_none() {
        return Some(ProtocolError::new(
            ErrorCode::BadRequest,
            "the suite's last transition time overflows the femtosecond clock",
        ));
    }
    None
}

fn run_simulate(
    arena: &mut crate::scheduler::WorkerArena,
    entry: &CacheEntry,
    suite: &StimulusSuite,
    model: ModelColumn,
    config: &SimulationConfig,
) -> Result<String, ProtocolError> {
    let started = Instant::now();
    // Holding the read lock for the whole run serialises against edits on
    // the same circuit; other circuits are unaffected.
    let state = entry.read_state();
    let circuit = state.active();
    let stimuli = suite.stimuli(circuit.netlist(), cache::library());
    let sim_state = arena.adopt(circuit);

    let mut rows = String::new();
    for (index, (stimulus_label, stimulus)) in stimuli.iter().enumerate() {
        let mut observer = ScenarioObserver::default();
        let stats = circuit
            .run_observed(sim_state, stimulus, config, &mut observer)
            .map_err(|err| ProtocolError::new(ErrorCode::SimError, err.to_string()))?;
        let (power, glitches) = &observer;
        if index > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            concat!(
                r#"{{"stimulus":{},"events_scheduled":{},"events_filtered":{},"#,
                r#""events_processed":{},"output_transitions":{},"#,
                r#""degraded_transitions":{},"collapsed_transitions":{},"#,
                r#""queue_high_water":{},"transitions":{},"energy_joules":{},"#,
                r#""glitch_pulses":{}}}"#
            ),
            json::string(stimulus_label),
            stats.events_scheduled,
            stats.events_filtered,
            stats.events_processed,
            stats.output_transitions,
            stats.degraded_transitions,
            stats.collapsed_transitions,
            stats.queue_high_water,
            stats.output_transitions,
            json::number(power.total_joules()),
            glitches.total_glitches(),
        ));
    }
    Ok(format!(
        r#"{{"key":{},"model":{},"scenarios":[{}],"wall_time_ns":{}}}"#,
        json::string(entry.key()),
        json::string(model.as_str()),
        rows,
        started.elapsed().as_nanos()
    ))
}
