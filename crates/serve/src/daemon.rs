//! The service shell: accept loop, bounded connection queue with
//! shedding, and the per-connection session worker pool.
//!
//! The concurrency model is deliberately coarse: **one worker owns one
//! connection from accept to close**. Requests on a connection are
//! answered strictly in arrival order, one frame at a time — the reply
//! frame for a batch is fully written before the next request frame is
//! read — so a connection's reply bytes are a pure function of its
//! request bytes, regardless of `--workers`. Parallelism exists only
//! *across* connections.
//!
//! Backpressure, layer by layer:
//!
//! * **connections** — a bounded queue between the accept loop and the
//!   workers; when it is full, new connections are *shed* with a
//!   single `busy` error frame and closed, never buffered without
//!   bound;
//! * **frames** — [`Limits`] caps payload length and batch size before
//!   allocation, so a hostile length prefix costs nothing;
//! * **replies** — responses are written with blocking I/O straight to
//!   the connection; a slow reader blocks its worker (throttling that
//!   one connection) instead of growing a daemon-side buffer. Daemon
//!   memory per connection is O(max frame length): one payload buffer
//!   and one reply buffer, both reused from frame to frame.
//!
//! # The frame path
//!
//! [`serve_session`] is the only path a request takes, whatever its
//! kind and whether the telemetry gate is on. It reads a frame into the
//! reused payload buffer, decodes each message in place
//! ([`RequestRef`]), answers it — a validate through
//! [`ServePlans::check`], whose verdict borrows its notation — and
//! encodes the answer in place into the reused reply buffer, then
//! writes the reply frame with one `write_all`. A frame of validates
//! allocates nothing in steady state (`INV-SERVE-ZERO-ALLOC`,
//! `tests/serve_zero_alloc.rs`), and hostile bytes never panic it
//! (`INV-SERVE-HOSTILE-BYTES`, `tests/hostile_bytes.rs`). The session
//! adds a frame's counts to the daemon-global [`ServeCounters`] and
//! its worker's counters in one batch, before any `Stats` request in
//! the frame runs and before the reply is written, so a sequential
//! client reads the same numbers as if each request had added its own.
//!
//! # Why this worker model is TOCTOU-free by construction
//!
//! The simulated-thread work in `healers-simproc` exists precisely
//! because a robustness wrapper's check-vs-call window is exploitable
//! by a concurrent thread (see DESIGN.md §8). The daemon dodges that
//! class entirely: validation here is **stateless per frame** — a
//! `validate` request carries its argument *values* in the frame, the
//! check plan runs against those bytes, and nothing is re-read from
//! shared state between check and reply. There is no admitted pointer
//! for a sibling connection to revoke, workers share only the
//! immutable [`ServePlans`] and monotonic counters, and a connection's
//! verdicts therefore cannot depend on what any other connection is
//! doing. The `revalidate_on_preempt` hardening is an in-process
//! wrapper concern; the service boundary needs no analogue of it.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use healers_core::checker::CheckCounters;
use healers_trace::Histogram;

use healers_trace::recorder::flight;

use crate::frame::{read_frame_into, FrameEncoder, FrameError, Limits, DIR_REQUEST, DIR_RESPONSE};
use crate::plans::ServePlans;
use crate::proto::{
    FnOutcome, RequestRef, Response, StatsReply, TimingStat, VerdictRef, WorkerStat,
};
use healers_simproc::SimValue;

/// A serveable connection: blocking byte stream, movable to a worker.
pub trait Conn: Read + Write + Send {}

impl<T: Read + Write + Send> Conn for T {}

/// A source of connections the daemon accepts from.
pub trait Listener: Send {
    /// Wait up to `timeout` for one connection; `Ok(None)` on timeout
    /// (the daemon uses timeouts to poll its shutdown flag).
    ///
    /// # Errors
    ///
    /// A fatal accept failure stops the daemon.
    fn accept(&mut self, timeout: Duration) -> io::Result<Option<Box<dyn Conn>>>;
}

/// In-process listener over a channel of [`crate::pipe::DuplexStream`]
/// ends — the test and bench transport.
pub struct PipeListener {
    rx: Receiver<crate::pipe::DuplexStream>,
}

impl PipeListener {
    /// A listener plus the sender used to "dial" it.
    pub fn new() -> (
        std::sync::mpsc::Sender<crate::pipe::DuplexStream>,
        PipeListener,
    ) {
        let (tx, rx) = std::sync::mpsc::channel();
        (tx, PipeListener { rx })
    }
}

impl Listener for PipeListener {
    fn accept(&mut self, timeout: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        match self.rx.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(Box::new(conn))),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Ok(None),
            // All dialers gone: no more connections will ever arrive.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "all dialers disconnected",
            )),
        }
    }
}

/// Unix-domain-socket listener — the production transport.
#[cfg(unix)]
pub struct UnixSocketListener {
    inner: std::os::unix::net::UnixListener,
}

#[cfg(unix)]
impl UnixSocketListener {
    /// Bind `path`, removing a stale socket file first.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(path: &std::path::Path) -> io::Result<UnixSocketListener> {
        let _ = std::fs::remove_file(path);
        let inner = std::os::unix::net::UnixListener::bind(path)?;
        inner.set_nonblocking(true)?;
        Ok(UnixSocketListener { inner })
    }
}

#[cfg(unix)]
impl Listener for UnixSocketListener {
    fn accept(&mut self, timeout: Duration) -> io::Result<Option<Box<dyn Conn>>> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.inner.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Some(Box::new(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Session worker threads (= concurrently served connections).
    pub workers: usize,
    /// Connections queued beyond the busy workers before shedding.
    pub queue_depth: usize,
    /// Hostile-input frame limits.
    pub limits: Limits,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            queue_depth: 16,
            limits: Limits::default(),
        }
    }
}

/// Daemon-global counters. Exposed over the wire only through
/// [`Request::Stats`](crate::Request::Stats), whose reply is explicitly daemon-scoped — every
/// *other* reply stays a pure function of one connection's requests
/// (see the crate-level determinism contract). The deterministic
/// subset ([`ServeCounters::deterministic_totals`]) counts logical
/// events, so it is still byte-identical for any `--workers`. Sessions
/// add their counts once per frame (see [the frame path](self#the-frame-path)).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted and queued.
    pub connections: AtomicU64,
    /// Connections shed with a busy frame because the queue was full.
    pub shed: AtomicU64,
    /// Request frames served.
    pub frames: AtomicU64,
    /// Requests served (all kinds).
    pub requests: AtomicU64,
    /// Validate requests.
    pub validates: AtomicU64,
    /// Validate verdicts that admitted the call (checked or not).
    pub admits: AtomicU64,
    /// Validate verdicts that rejected the call.
    pub rejects: AtomicU64,
    /// Malformed frames or messages answered with an error.
    pub protocol_errors: AtomicU64,
}

impl ServeCounters {
    /// A deterministic-order snapshot for rendering.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("connections", self.connections.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("frames", self.frames.load(Ordering::Relaxed)),
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("validates", self.validates.load(Ordering::Relaxed)),
            ("admits", self.admits.load(Ordering::Relaxed)),
            ("rejects", self.rejects.load(Ordering::Relaxed)),
            (
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            ),
        ]
    }

    /// The **deterministic subset** carried in a `Stats` reply: every
    /// counter that counts logical events of the request history, in a
    /// fixed order. `shed` is excluded — whether a connection sheds
    /// depends on worker scheduling, not on the request bytes.
    pub fn deterministic_totals(&self) -> Vec<(String, u64)> {
        [
            ("connections", self.connections.load(Ordering::Relaxed)),
            ("frames", self.frames.load(Ordering::Relaxed)),
            ("requests", self.requests.load(Ordering::Relaxed)),
            ("validates", self.validates.load(Ordering::Relaxed)),
            ("admits", self.admits.load(Ordering::Relaxed)),
            ("rejects", self.rejects.load(Ordering::Relaxed)),
            (
                "protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Per-worker live counters.
#[derive(Debug, Default)]
struct WorkerCells {
    frames: AtomicU64,
    requests: AtomicU64,
}

/// The daemon-wide live statistics hub backing [`Request::Stats`](crate::Request::Stats):
/// per-function validate outcomes (deterministic, plan order),
/// per-worker frame/request counters, and the connection-queue
/// high-water mark (both live scheduling state, outside the
/// determinism contract).
#[derive(Debug)]
pub struct StatsHub {
    fn_names: Vec<String>,
    /// `[admitted, rejected, unchecked]` per function, plan order.
    fn_outcomes: Vec<[AtomicU64; 3]>,
    workers: Vec<WorkerCells>,
    queued: AtomicU64,
    queue_highwater: AtomicU64,
}

impl StatsHub {
    /// A hub for `workers` session workers over `functions` (the
    /// daemon's plan order).
    pub fn new(functions: &[String], workers: usize) -> StatsHub {
        StatsHub {
            fn_names: functions.to_vec(),
            fn_outcomes: functions.iter().map(|_| Default::default()).collect(),
            workers: (0..workers.max(1))
                .map(|_| WorkerCells::default())
                .collect(),
            queued: AtomicU64::new(0),
            queue_highwater: AtomicU64::new(0),
        }
    }

    /// Tally `verdict` for the function at index `function` of the
    /// plan order.
    fn record_outcome(&self, function: usize, verdict: VerdictRef<'_>) {
        let cell = match verdict {
            VerdictRef::Admit => 0,
            // A repair hint is still a failed validation; it lands in
            // the reject column so the deterministic stats are
            // identical whether or not the hint gate is on.
            VerdictRef::Reject { .. } | VerdictRef::WouldRepair { .. } => 1,
            VerdictRef::AdmitUnchecked => 2,
            VerdictRef::UnknownFunction => return,
        };
        if let Some(cells) = self.fn_outcomes.get(function) {
            cells[cell].fetch_add(1, Ordering::Relaxed);
        }
    }

    fn enqueue(&self) {
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    fn dequeue(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// Per-function validate outcomes, plan order — the deterministic
    /// half of the hub.
    pub fn fn_outcomes(&self) -> Vec<FnOutcome> {
        self.fn_names
            .iter()
            .zip(self.fn_outcomes.iter())
            .map(|(name, cells)| FnOutcome {
                function: name.clone(),
                admitted: cells[0].load(Ordering::Relaxed),
                rejected: cells[1].load(Ordering::Relaxed),
                unchecked: cells[2].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Highest connection-queue depth observed so far.
    pub fn queue_highwater(&self) -> u64 {
        self.queue_highwater.load(Ordering::Relaxed)
    }

    fn worker_stats(&self) -> Vec<WorkerStat> {
        self.workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerStat {
                worker: i as u16,
                frames: w.frames.load(Ordering::Relaxed),
                requests: w.requests.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Assemble a full [`StatsReply`] from the hub plus the global
    /// counters and (when `timings`) the gated latency telemetry.
    pub fn stats_reply(
        &self,
        counters: &ServeCounters,
        telemetry: &ServeTelemetry,
        timings: bool,
    ) -> StatsReply {
        StatsReply {
            totals: counters.deterministic_totals(),
            functions: self.fn_outcomes(),
            workers: self.worker_stats(),
            queue_highwater: self.queue_highwater(),
            shed: counters.shed.load(Ordering::Relaxed),
            timings: if timings {
                telemetry.timing_stats()
            } else {
                Vec::new()
            },
        }
    }
}

/// Gated per-request latency telemetry: one log2-bucket histogram per
/// request kind, recorded only while the [`healers_trace`] gate is on.
#[derive(Debug, Default)]
pub struct ServeTelemetry {
    hists: Mutex<std::collections::BTreeMap<&'static str, Histogram>>,
}

impl ServeTelemetry {
    fn record(&self, kind: &'static str, nanos: u64) {
        let mut hists = self.hists.lock().unwrap();
        hists.entry(kind).or_default().record(nanos);
    }

    /// The histograms as wire-ready [`TimingStat`]s, name order.
    pub fn timing_stats(&self) -> Vec<TimingStat> {
        let hists = self.hists.lock().unwrap();
        hists
            .iter()
            .map(|(name, h)| TimingStat {
                name: (*name).to_string(),
                count: h.count(),
                p50: h.percentile(50.0),
                p99: h.percentile(99.0),
            })
            .collect()
    }
}

/// Per-session (per-connection) counters: the payload of a `Report`
/// response. Purely session-local, so replies stay deterministic.
#[derive(Debug, Default, Clone)]
pub struct SessionStats {
    /// Request frames served.
    pub frames: u64,
    /// Requests served, the `Report` that reads this included.
    pub requests: u64,
    /// Ping requests.
    pub pings: u64,
    /// Validate requests.
    pub validates: u64,
    /// Validates admitted with all checks passing.
    pub admitted: u64,
    /// Validates admitted because the function carries no checks.
    pub admitted_unchecked: u64,
    /// Validates rejected by a failing check.
    pub rejected: u64,
    /// Validates naming a function the daemon has no plan for.
    pub unknown_functions: u64,
    /// Explain requests.
    pub explains: u64,
    /// Report requests (this one included).
    pub reports: u64,
    /// Individual argument checks executed.
    pub checks: u64,
    /// Bulk page-run probes executed.
    pub run_probes: u64,
    /// Bulk NUL scans executed.
    pub nul_scans: u64,
    /// Bytes covered by the bulk kernels.
    pub bytes_scanned: u64,
    /// Malformed messages answered with an error response.
    pub errors: u64,
}

impl SessionStats {
    /// The fixed-order counter list a `Report` response carries. The
    /// order is part of the wire contract: changing it changes reply
    /// bytes.
    pub fn as_counters(&self) -> Vec<(String, u64)> {
        [
            ("frames", self.frames),
            ("requests", self.requests),
            ("pings", self.pings),
            ("validates", self.validates),
            ("admitted", self.admitted),
            ("admitted_unchecked", self.admitted_unchecked),
            ("rejected", self.rejected),
            ("unknown_functions", self.unknown_functions),
            ("explains", self.explains),
            ("reports", self.reports),
            ("checks", self.checks),
            ("run_probes", self.run_probes),
            ("nul_scans", self.nul_scans),
            ("bytes_scanned", self.bytes_scanned),
            ("errors", self.errors),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// What a finished session reports back to its worker.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The session saw (and acknowledged) a `Shutdown` request.
    pub shutdown: bool,
    /// The session's counters.
    pub stats: SessionStats,
}

/// Counts of the frame being served that the daemon-global and
/// per-worker counters have not seen yet. A session adds them once
/// before a `Stats` request runs and once before the reply frame is
/// written, so a sequential client reads the same counts as if every
/// request had added its own.
#[derive(Debug, Default)]
struct Pending {
    frames: u64,
    requests: u64,
    validates: u64,
    admits: u64,
    rejects: u64,
    protocol_errors: u64,
    worker_requests: u64,
}

impl Pending {
    fn publish(&mut self, counters: &ServeCounters, cells: &WorkerCells) {
        let Pending {
            frames,
            requests,
            validates,
            admits,
            rejects,
            protocol_errors,
            worker_requests,
        } = std::mem::take(self);
        for (counter, n) in [
            (&counters.frames, frames),
            (&counters.requests, requests),
            (&counters.validates, validates),
            (&counters.admits, admits),
            (&counters.rejects, rejects),
            (&counters.protocol_errors, protocol_errors),
            (&cells.frames, frames),
            (&cells.requests, worker_requests),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// One connection's state: the daemon-wide state it reports to, and
/// its own counters and reused argument vector.
struct Session<'a> {
    plans: &'a ServePlans,
    counters: &'a ServeCounters,
    telemetry: &'a ServeTelemetry,
    hub: &'a StatsHub,
    cells: &'a WorkerCells,
    stats: SessionStats,
    pending: Pending,
    args: Vec<SimValue>,
}

impl Session<'_> {
    /// Answer one request message by encoding its response into `out`;
    /// returns whether it asked the daemon to shut down.
    fn handle_message(&mut self, raw: &[u8], traced: bool, out: &mut Vec<u8>) -> bool {
        let req = match RequestRef::decode(raw, &mut self.args) {
            Ok(req) => req,
            Err(e) => {
                self.stats.errors += 1;
                self.pending.protocol_errors += 1;
                flight().record("frame-error", "", &format!("bad request: {e}"));
                Response::Error {
                    message: format!("bad request: {e}"),
                }
                .encode(out);
                return false;
            }
        };
        let started = traced.then(std::time::Instant::now);
        let stop = self.handle_request(req, out);
        self.pending.worker_requests += 1;
        if let Some(s) = started {
            self.telemetry
                .record(request_kind(req), s.elapsed().as_nanos() as u64);
        }
        stop
    }

    /// Count a frame-level protocol error, publish the pending counts
    /// and answer with one error frame.
    fn protocol_error(&mut self, conn: &mut dyn Conn, out: &mut Vec<u8>, reason: String) {
        self.stats.errors += 1;
        self.pending.protocol_errors += 1;
        self.pending.publish(self.counters, self.cells);
        flight().record("frame-error", "", &reason);
        write_error(conn, out, format!("protocol error: {reason}"));
    }

    fn handle_request(&mut self, req: RequestRef<'_>, out: &mut Vec<u8>) -> bool {
        let stats = &mut self.stats;
        stats.requests += 1;
        self.pending.requests += 1;
        match req {
            RequestRef::Ping => {
                stats.pings += 1;
                Response::Pong.encode(out);
            }
            RequestRef::Validate { function } => {
                stats.validates += 1;
                self.pending.validates += 1;
                let mut ctrs = CheckCounters::default();
                let outcome = self.plans.check(function, &self.args, &mut ctrs);
                stats.checks += ctrs.table_hits + ctrs.run_probes + ctrs.nul_scans;
                stats.run_probes += ctrs.run_probes;
                stats.nul_scans += ctrs.nul_scans;
                stats.bytes_scanned += ctrs.bytes_scanned;
                if let Some(i) = outcome.function {
                    self.hub.record_outcome(i, outcome.verdict);
                }
                match outcome.verdict {
                    VerdictRef::Admit => {
                        stats.admitted += 1;
                        self.pending.admits += 1;
                    }
                    VerdictRef::AdmitUnchecked => {
                        stats.admitted_unchecked += 1;
                        self.pending.admits += 1;
                    }
                    VerdictRef::Reject { .. } | VerdictRef::WouldRepair { .. } => {
                        stats.rejected += 1;
                        self.pending.rejects += 1;
                    }
                    VerdictRef::UnknownFunction => stats.unknown_functions += 1,
                }
                outcome.verdict.encode(out);
            }
            RequestRef::Explain { function } => {
                stats.explains += 1;
                Response::Explained {
                    info: self.plans.explain(function),
                }
                .encode(out);
            }
            RequestRef::Report => {
                stats.reports += 1;
                Response::Reported {
                    counters: stats.as_counters(),
                }
                .encode(out);
            }
            RequestRef::Shutdown => {
                Response::Bye.encode(out);
                return true;
            }
            RequestRef::Stats { timings } => {
                self.pending.publish(self.counters, self.cells);
                Response::Stats(self.hub.stats_reply(self.counters, self.telemetry, timings))
                    .encode(out);
            }
        }
        false
    }
}

fn request_kind(req: RequestRef<'_>) -> &'static str {
    match req {
        RequestRef::Ping => "ping",
        RequestRef::Validate { .. } => "validate",
        RequestRef::Explain { .. } => "explain",
        RequestRef::Report => "report",
        RequestRef::Shutdown => "shutdown",
        RequestRef::Stats { .. } => "stats",
    }
}

/// Write a one-message frame answering with `Response::Error`.
fn write_error(conn: &mut (impl Write + ?Sized), out: &mut Vec<u8>, message: String) {
    let mut frame = FrameEncoder::new(out, DIR_RESPONSE);
    frame.message(|buf| Response::Error { message }.encode(buf));
    let _ = conn.write_all(frame.finish()).and_then(|()| conn.flush());
}

/// Serve one connection to completion: frames strictly in order, one
/// response message per request message, replies flushed before the
/// next frame is read. `worker` indexes the hub's per-worker counters
/// (pass 0 outside a worker pool).
///
/// This is the daemon's one frame path ([the frame path](self#the-frame-path)).
/// Its payload and reply buffers stay bounded by
/// [`Limits::max_frame_len`] between frames.
pub fn serve_session(
    conn: &mut dyn Conn,
    plans: &ServePlans,
    limits: &Limits,
    counters: &ServeCounters,
    telemetry: &ServeTelemetry,
    hub: &StatsHub,
    worker: usize,
) -> SessionOutcome {
    let mut session = Session {
        plans,
        counters,
        telemetry,
        hub,
        cells: &hub.workers[worker.min(hub.workers.len() - 1)],
        stats: SessionStats::default(),
        pending: Pending::default(),
        args: Vec::new(),
    };
    let mut shutdown = false;
    let (mut payload, mut out) = (Vec::new(), Vec::new());
    loop {
        let frame = match read_frame_into(conn, limits, &mut payload) {
            Ok(frame) if frame.direction == DIR_REQUEST => frame,
            Ok(_) => {
                session.protocol_error(conn, &mut out, "expected a request frame".to_string());
                break;
            }
            Err(FrameError::Eof) => break,
            Err(e) => {
                // Malformed framing: answer with one error frame and
                // close — resynchronizing an unframed byte stream is
                // guesswork this protocol refuses to do.
                session.protocol_error(conn, &mut out, format!("{e}"));
                break;
            }
        };
        session.stats.frames += 1;
        session.pending.frames += 1;
        let traced = healers_trace::enabled();
        let mut reply = FrameEncoder::new(&mut out, DIR_RESPONSE);
        for raw in frame.messages() {
            reply.message(|buf| shutdown |= session.handle_message(raw, traced, buf));
        }
        let reply = reply.finish();
        session.pending.publish(counters, session.cells);
        if conn.write_all(reply).and_then(|()| conn.flush()).is_err() {
            break; // peer gone mid-reply
        }
        if shutdown {
            break;
        }
        let bound = limits.max_frame_len as usize;
        payload.shrink_to(bound);
        out.shrink_to(bound);
    }
    SessionOutcome {
        shutdown,
        stats: session.stats,
    }
}

/// A running daemon: accept thread plus session workers.
pub struct Daemon {
    accept_handle: JoinHandle<io::Result<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ServeCounters>,
}

impl Daemon {
    /// Start the accept loop and `config.workers` session workers over
    /// `listener`, serving `plans`.
    pub fn spawn(
        mut listener: Box<dyn Listener>,
        plans: Arc<ServePlans>,
        config: DaemonConfig,
    ) -> Daemon {
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServeCounters::default());
        let telemetry = Arc::new(ServeTelemetry::default());
        let hub = Arc::new(StatsHub::new(plans.functions(), config.workers.max(1)));
        let limits = config.limits;
        let (queue_tx, queue_rx) = sync_channel::<Box<dyn Conn>>(config.queue_depth.max(1));
        let queue_rx = Arc::new(Mutex::new(queue_rx));

        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for worker in 0..config.workers.max(1) {
            let queue_rx = Arc::clone(&queue_rx);
            let plans = Arc::clone(&plans);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let telemetry = Arc::clone(&telemetry);
            let hub = Arc::clone(&hub);
            worker_handles.push(std::thread::spawn(move || loop {
                // Hold the lock only to dequeue: sessions run unlocked.
                let conn = { queue_rx.lock().unwrap().recv() };
                let Ok(mut conn) = conn else { return };
                hub.dequeue();
                let outcome = serve_session(
                    conn.as_mut(),
                    &plans,
                    &limits,
                    &counters,
                    &telemetry,
                    &hub,
                    worker,
                );
                if outcome.shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                }
            }));
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_counters = Arc::clone(&counters);
        let accept_hub = Arc::clone(&hub);
        let accept_handle = std::thread::spawn(move || -> io::Result<()> {
            while !accept_shutdown.load(Ordering::SeqCst) {
                let conn = match listener.accept(Duration::from_millis(10)) {
                    Ok(Some(conn)) => conn,
                    Ok(None) => continue,
                    Err(e) if e.kind() == io::ErrorKind::BrokenPipe => break,
                    Err(e) => return Err(e),
                };
                accept_counters.connections.fetch_add(1, Ordering::Relaxed);
                accept_hub.enqueue();
                match queue_tx.try_send(conn) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut conn)) => {
                        // Shed: bounded queue, never unbounded buffering.
                        accept_hub.dequeue();
                        accept_counters.shed.fetch_add(1, Ordering::Relaxed);
                        flight().record("queue-shed", "", "connection queue full");
                        write_error(
                            conn.as_mut(),
                            &mut Vec::new(),
                            "busy: connection queue full".to_string(),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Ok(())
            // queue_tx drops here: workers drain the queue, then exit.
        });

        Daemon {
            accept_handle,
            worker_handles,
            shutdown,
            counters,
        }
    }

    /// Daemon-global counters.
    pub fn counters(&self) -> Arc<ServeCounters> {
        Arc::clone(&self.counters)
    }

    /// Ask the accept loop to stop (without a `Shutdown` request).
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the accept loop and every worker to finish.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept-loop failure.
    ///
    /// # Panics
    ///
    /// Panics if a daemon thread panicked.
    pub fn join(self) -> io::Result<()> {
        let result = self.accept_handle.join().expect("accept thread panicked");
        for handle in self.worker_handles {
            handle.join().expect("worker thread panicked");
        }
        result
    }
}
