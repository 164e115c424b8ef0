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
//! kind. It reads a frame into the reused payload buffer, decodes each
//! message in place ([`RequestRef`]), answers it — a validate through
//! [`ServePlans::check`], whose verdict borrows its notation — and
//! encodes the answer in place into the reused reply buffer, then
//! writes the reply frame with one `write_all`. A frame of validates
//! allocates nothing in steady state (`INV-SERVE-ZERO-ALLOC`,
//! `tests/serve_zero_alloc.rs`), and hostile bytes never panic it
//! (`INV-SERVE-HOSTILE-BYTES`, `tests/hostile_bytes.rs`).
//!
//! Each request bumps the session's own [`SessionStats`] once, and a
//! validate's outcome lands in a session-local per-function tally. The
//! session hands the daemon's one [`StatsHub`] everything counted since
//! it last did so, under one lock: before a `Stats` request runs,
//! before the reply frame is written, and on the protocol-error path.
//! So a sequential client reads the same numbers as if each request had
//! published its own, and a finished session has published everything.
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
//! immutable [`ServePlans`] and the hub's counters, and a connection's
//! verdicts therefore cannot depend on what any other connection is
//! doing. The `revalidate_on_preempt` hardening is an in-process
//! wrapper concern; the service boundary needs no analogue of it.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use healers_core::checker::CheckCounters;
use healers_trace::recorder::flight;

use crate::frame::{read_frame_into, FrameEncoder, FrameError, Limits, DIR_REQUEST, DIR_RESPONSE};
use crate::plans::ServePlans;
use crate::proto::{FnOutcome, RequestRef, Response, StatsReply, VerdictRef, WorkerStat};
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

/// The daemon's one shared stats state, backing
/// [`Request::Stats`](crate::Request::Stats) and the daemon's exit
/// summary. One lock guards:
///
/// * every session's [`SessionStats`], summed;
/// * per-function `[admitted, rejected, unchecked]` validate outcomes,
///   plan order;
/// * per-worker `[frames, requests]`;
/// * the accept thread's connection, shed and queue-depth counts.
///
/// The `Stats` reply's **deterministic subset** (totals and
/// per-function outcomes) counts logical events of the request
/// history, so it is byte-identical for any `--workers`; per-worker
/// rows, the queue high-water mark and shed counts are live scheduling
/// state. Sessions publish once per frame (see
/// [the frame path](self#the-frame-path)).
#[derive(Debug)]
pub struct StatsHub {
    fn_names: Vec<String>,
    state: Mutex<HubState>,
}

#[derive(Debug, Default)]
struct HubState {
    sessions: SessionStats,
    fn_outcomes: Vec<[u64; 3]>,
    workers: Vec<[u64; 2]>,
    /// Connections accepted and queued.
    connections: u64,
    /// Connections shed with a busy frame because the queue was full.
    shed: u64,
    queued: u64,
    queue_highwater: u64,
}

impl HubState {
    /// The exit summary's counters, in their printed order. All but
    /// `shed` form the deterministic totals of a `Stats` reply.
    fn summary(&self) -> [(&'static str, u64); 8] {
        let s = &self.sessions;
        [
            ("connections", self.connections),
            ("shed", self.shed),
            ("frames", s.frames),
            ("requests", s.requests),
            ("validates", s.validates),
            ("admits", s.admitted + s.admitted_unchecked),
            ("rejects", s.rejected),
            ("protocol_errors", s.errors),
        ]
    }
}

impl StatsHub {
    /// A hub for `workers` session workers over `functions` (the
    /// daemon's plan order).
    pub fn new(functions: &[String], workers: usize) -> StatsHub {
        StatsHub {
            fn_names: functions.to_vec(),
            state: Mutex::new(HubState {
                fn_outcomes: vec![[0; 3]; functions.len()],
                workers: vec![[0; 2]; workers.max(1)],
                ..HubState::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        // Plain counters stay consistent even if a holder panicked.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add what a session on `worker` counted since it last published:
    /// `now − then` of its stats, and its per-function `outcomes`
    /// delta, which this drains to zero.
    fn publish(
        &self,
        worker: usize,
        now: &SessionStats,
        then: &SessionStats,
        outcomes: &mut [[u64; 3]],
    ) {
        let mut hub = self.lock();
        hub.sessions.add_since(now, then);
        let last = hub.workers.len() - 1;
        let row = &mut hub.workers[worker.min(last)];
        row[0] += now.frames - then.frames;
        row[1] += now.requests - then.requests;
        for (sum, delta) in hub.fn_outcomes.iter_mut().zip(outcomes) {
            if *delta != [0; 3] {
                for (s, d) in sum.iter_mut().zip(std::mem::take(delta)) {
                    *s += d;
                }
            }
        }
    }

    fn accept(&self) {
        let mut hub = self.lock();
        hub.connections += 1;
        hub.queued += 1;
        hub.queue_highwater = hub.queue_highwater.max(hub.queued);
    }

    /// Take a connection off the queue: to a worker, or `shed`.
    fn dequeue(&self, shed: bool) {
        let mut hub = self.lock();
        hub.queued -= 1;
        hub.shed += u64::from(shed);
    }

    /// The exit summary: connections, shed, frames, requests,
    /// validates, admits, rejects and protocol errors, in that order.
    pub fn snapshot(&self) -> [(&'static str, u64); 8] {
        self.lock().summary()
    }

    /// A full [`StatsReply`]. Its `timings` list is always empty: the
    /// daemon keeps no latency histograms.
    pub fn stats_reply(&self) -> StatsReply {
        let hub = self.lock();
        StatsReply {
            totals: hub
                .summary()
                .into_iter()
                .filter(|&(name, _)| name != "shed")
                .map(|(name, n)| (name.to_string(), n))
                .collect(),
            functions: self
                .fn_names
                .iter()
                .zip(&hub.fn_outcomes)
                .map(|(name, &[admitted, rejected, unchecked])| FnOutcome {
                    function: name.clone(),
                    admitted,
                    rejected,
                    unchecked,
                })
                .collect(),
            workers: hub
                .workers
                .iter()
                .enumerate()
                .map(|(i, &[frames, requests])| WorkerStat {
                    worker: i as u16,
                    frames,
                    requests,
                })
                .collect(),
            queue_highwater: hub.queue_highwater,
            shed: hub.shed,
            timings: Vec::new(),
        }
    }
}

/// Per-session (per-connection) counters: the payload of a `Report`
/// response. Purely session-local, so replies stay deterministic.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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
    /// The check kernels' work over every validate.
    pub checks: CheckCounters,
    /// Malformed messages answered with an error response.
    pub errors: u64,
}

impl SessionStats {
    /// The fixed-order counter list a `Report` response carries. The
    /// order is part of the wire contract: changing it changes reply
    /// bytes. `checks` counts individual argument checks: heap-table
    /// resolutions, page-run probes and NUL scans.
    pub fn as_counters(&self) -> Vec<(String, u64)> {
        let c = &self.checks;
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
            ("checks", c.table_hits + c.run_probes + c.nul_scans),
            ("run_probes", c.run_probes),
            ("nul_scans", c.nul_scans),
            ("bytes_scanned", c.bytes_scanned),
            ("errors", self.errors),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Add the counts `now` gathered since `then`, field by field.
    fn add_since(&mut self, now: &SessionStats, then: &SessionStats) {
        let SessionStats {
            frames,
            requests,
            pings,
            validates,
            admitted,
            admitted_unchecked,
            rejected,
            unknown_functions,
            explains,
            reports,
            checks,
            errors,
        } = *now;
        self.frames += frames - then.frames;
        self.requests += requests - then.requests;
        self.pings += pings - then.pings;
        self.validates += validates - then.validates;
        self.admitted += admitted - then.admitted;
        self.admitted_unchecked += admitted_unchecked - then.admitted_unchecked;
        self.rejected += rejected - then.rejected;
        self.unknown_functions += unknown_functions - then.unknown_functions;
        self.explains += explains - then.explains;
        self.reports += reports - then.reports;
        let c = &mut self.checks;
        c.table_hits += checks.table_hits - then.checks.table_hits;
        c.run_probes += checks.run_probes - then.checks.run_probes;
        c.nul_scans += checks.nul_scans - then.checks.nul_scans;
        c.bytes_scanned += checks.bytes_scanned - then.checks.bytes_scanned;
        self.errors += errors - then.errors;
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

/// One connection's state: the hub it publishes to, its own counters,
/// what of them the hub has seen, and its reused buffers.
struct Session<'a> {
    plans: &'a ServePlans,
    hub: &'a StatsHub,
    worker: usize,
    stats: SessionStats,
    /// `stats` as last published.
    published: SessionStats,
    /// Per-function `[admitted, rejected, unchecked]` not yet published.
    outcomes: Vec<[u64; 3]>,
    args: Vec<SimValue>,
}

impl Session<'_> {
    /// Hand the hub everything counted since the last publish.
    fn publish(&mut self) {
        self.hub.publish(
            self.worker,
            &self.stats,
            &self.published,
            &mut self.outcomes,
        );
        self.published = self.stats;
    }

    /// Answer one request message by encoding its response into `out`;
    /// returns whether it asked the daemon to shut down.
    fn handle_message(&mut self, raw: &[u8], out: &mut Vec<u8>) -> bool {
        match RequestRef::decode(raw, &mut self.args) {
            Ok(req) => self.handle_request(req, out),
            Err(e) => {
                self.stats.errors += 1;
                flight().record("frame-error", "", &format!("bad request: {e}"));
                Response::Error {
                    message: format!("bad request: {e}"),
                }
                .encode(out);
                false
            }
        }
    }

    /// Count a frame-level protocol error, publish and answer with one
    /// error frame.
    fn protocol_error(&mut self, conn: &mut dyn Conn, out: &mut Vec<u8>, reason: String) {
        self.stats.errors += 1;
        self.publish();
        flight().record("frame-error", "", &reason);
        write_error(conn, out, format!("protocol error: {reason}"));
    }

    fn handle_request(&mut self, req: RequestRef<'_>, out: &mut Vec<u8>) -> bool {
        let stats = &mut self.stats;
        stats.requests += 1;
        match req {
            RequestRef::Ping => {
                stats.pings += 1;
                Response::Pong.encode(out);
            }
            RequestRef::Validate { function } => {
                stats.validates += 1;
                let outcome = self.plans.check(function, &self.args, &mut stats.checks);
                let column = match outcome.verdict {
                    VerdictRef::Admit => {
                        stats.admitted += 1;
                        Some(0)
                    }
                    // A repair hint is still a failed validation; it
                    // lands in the reject column so the deterministic
                    // stats are identical whether or not the hint gate
                    // is on.
                    VerdictRef::Reject { .. } | VerdictRef::WouldRepair { .. } => {
                        stats.rejected += 1;
                        Some(1)
                    }
                    VerdictRef::AdmitUnchecked => {
                        stats.admitted_unchecked += 1;
                        Some(2)
                    }
                    VerdictRef::UnknownFunction => {
                        stats.unknown_functions += 1;
                        None
                    }
                };
                if let (Some(i), Some(column)) = (outcome.function, column) {
                    self.outcomes[i][column] += 1;
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
            // `timings` is accepted and answered with an empty list.
            RequestRef::Stats { .. } => {
                self.publish();
                Response::Stats(self.hub.stats_reply()).encode(out);
            }
        }
        false
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
    hub: &StatsHub,
    worker: usize,
) -> SessionOutcome {
    let mut session = Session {
        plans,
        hub,
        worker,
        stats: SessionStats::default(),
        published: SessionStats::default(),
        outcomes: vec![[0; 3]; hub.fn_names.len()],
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
        let mut reply = FrameEncoder::new(&mut out, DIR_RESPONSE);
        for raw in frame.messages() {
            reply.message(|buf| shutdown |= session.handle_message(raw, buf));
        }
        let reply = reply.finish();
        session.publish();
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
    hub: Arc<StatsHub>,
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
        let hub = Arc::new(StatsHub::new(plans.functions(), config.workers.max(1)));
        let limits = config.limits;
        let (queue_tx, queue_rx) = sync_channel::<Box<dyn Conn>>(config.queue_depth.max(1));
        let queue_rx = Arc::new(Mutex::new(queue_rx));

        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for worker in 0..config.workers.max(1) {
            let queue_rx = Arc::clone(&queue_rx);
            let plans = Arc::clone(&plans);
            let shutdown = Arc::clone(&shutdown);
            let hub = Arc::clone(&hub);
            worker_handles.push(std::thread::spawn(move || loop {
                // Hold the lock only to dequeue: sessions run unlocked.
                let conn = { queue_rx.lock().unwrap().recv() };
                let Ok(mut conn) = conn else { return };
                hub.dequeue(false);
                let outcome = serve_session(conn.as_mut(), &plans, &limits, &hub, worker);
                if outcome.shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                }
            }));
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_hub = Arc::clone(&hub);
        let accept_handle = std::thread::spawn(move || -> io::Result<()> {
            while !accept_shutdown.load(Ordering::SeqCst) {
                let conn = match listener.accept(Duration::from_millis(10)) {
                    Ok(Some(conn)) => conn,
                    Ok(None) => continue,
                    Err(e) if e.kind() == io::ErrorKind::BrokenPipe => break,
                    Err(e) => return Err(e),
                };
                accept_hub.accept();
                match queue_tx.try_send(conn) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut conn)) => {
                        // Shed: bounded queue, never unbounded buffering.
                        accept_hub.dequeue(true);
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
            hub,
        }
    }

    /// The daemon's stats hub; it outlives [`Daemon::join`].
    pub fn hub(&self) -> Arc<StatsHub> {
        Arc::clone(&self.hub)
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
