//! The request/response message model and its byte codec.
//!
//! Messages travel inside [`frame`](crate::frame)s, many per frame
//! (per-connection batching). Every integer is little-endian; every
//! string is length-prefixed UTF-8. The codec is written as this
//! repo's own medicine prescribes: decoding never panics, never
//! over-reads, and rejects every malformed byte sequence with a
//! [`WireError`] naming what went wrong. [`RequestRef::decode`] is the
//! one request decoder: it borrows names from the message and fills a
//! caller's reused argument vector, and [`Request::decode`] wraps it.
//! [`VerdictRef::encode`] is the one verdict encoder.
//!
//! Request kinds (wire tag in brackets):
//!
//! | kind | payload |
//! |------|---------|
//! | \[0\] `Ping` | — |
//! | \[1\] `Validate` | function name, argument values |
//! | \[2\] `Explain` | function name |
//! | \[3\] `Report` | — |
//! | \[4\] `Shutdown` | — |
//! | \[5\] `Stats` | flags (bit 0 = include timings) |
//!
//! Response kinds mirror them: `Pong`, `Validated` (admit / reject
//! with the failing argument and check notation / unknown function),
//! `Explained` (prototype plus the per-argument robust type and active
//! check), `Reported` (the session's counters, fixed order), `Bye`,
//! `Error` for a request the daemon could parse but not serve, and
//! `Stats` (\[6\]) — the daemon-wide live [`StatsReply`]: a
//! deterministic section (global totals and per-function validate
//! outcomes, byte-identical for any `--workers`) plus a live section
//! (per-worker counters, queue high-water, shed count) and opt-in
//! latency percentiles.

use std::fmt;

use healers_simproc::SimValue;

/// Decoding failure: the byte stream is not a valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// An unknown request/response/value tag.
    UnknownTag(u8),
    /// A string field is not UTF-8.
    BadString,
    /// A pointer value exceeds the simulated 32-bit address space.
    PtrOutOfRange(u64),
    /// The message decoded cleanly but left trailing bytes.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::PtrOutOfRange(p) => {
                write!(
                    f,
                    "pointer {p:#x} outside the 32-bit simulated address space"
                )
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// One request from a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Validate a call's arguments against `function`'s wrapper plan.
    Validate {
        /// Target function name.
        function: String,
        /// Argument values, in call order.
        args: Vec<SimValue>,
    },
    /// Walk `function`'s robust-type plan: prototype, per-argument
    /// robust type, and the active check each argument resolves to.
    Explain {
        /// Target function name.
        function: String,
    },
    /// The session's aggregated counters so far.
    Report,
    /// Stop the daemon (after acknowledging).
    Shutdown,
    /// The daemon-wide live statistics snapshot.
    Stats {
        /// Include wall-clock latency percentiles (nondeterministic;
        /// only populated while the telemetry gate is on).
        timings: bool,
    },
}

/// The verdict of one `Validate` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateVerdict {
    /// Every active check passed.
    Admit,
    /// The function is exported but carries no checks (safe, or checks
    /// disabled by configuration) — the call is passed through.
    AdmitUnchecked,
    /// A check failed.
    Reject {
        /// Index of the violating argument.
        arg: u16,
        /// Notation of the check that failed.
        check: String,
    },
    /// A check failed, but a repair-mode wrapper would fix the
    /// argument and let the call proceed. Only emitted when the daemon
    /// runs with [`repair_hints`](crate::PlanConfig::repair_hints)
    /// enabled — the flag is the wire version gate, so clients that
    /// predate this tag never see it.
    WouldRepair {
        /// Index of the violating (repairable) argument.
        arg: u16,
        /// Notation of the check that failed.
        check: String,
    },
    /// The daemon has no plan or declaration for the function.
    UnknownFunction,
}

/// A [`Request`] decoded in place by [`RequestRef::decode`]: names
/// borrow the message bytes, and a `Validate`'s arguments go into a
/// vector the caller passes in and reuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestRef<'a> {
    /// [`Request::Ping`].
    Ping,
    /// [`Request::Validate`]; the arguments are in the decoder's vector.
    Validate {
        /// Target function name.
        function: &'a str,
    },
    /// [`Request::Explain`].
    Explain {
        /// Target function name.
        function: &'a str,
    },
    /// [`Request::Report`].
    Report,
    /// [`Request::Shutdown`].
    Shutdown,
    /// [`Request::Stats`].
    Stats {
        /// Include latency percentiles.
        timings: bool,
    },
}

/// A [`ValidateVerdict`] whose check notation is borrowed — from the
/// plan set when [`ServePlans::check`](crate::ServePlans::check) makes
/// it, so a reject costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictRef<'a> {
    /// [`ValidateVerdict::Admit`].
    Admit,
    /// [`ValidateVerdict::AdmitUnchecked`].
    AdmitUnchecked,
    /// [`ValidateVerdict::Reject`].
    Reject {
        /// Index of the violating argument.
        arg: u16,
        /// Notation of the check that failed.
        check: &'a str,
    },
    /// [`ValidateVerdict::WouldRepair`].
    WouldRepair {
        /// Index of the violating (repairable) argument.
        arg: u16,
        /// Notation of the check that failed.
        check: &'a str,
    },
    /// [`ValidateVerdict::UnknownFunction`].
    UnknownFunction,
}

impl ValidateVerdict {
    /// The borrowed form of this verdict.
    pub fn view(&self) -> VerdictRef<'_> {
        match self {
            ValidateVerdict::Admit => VerdictRef::Admit,
            ValidateVerdict::AdmitUnchecked => VerdictRef::AdmitUnchecked,
            ValidateVerdict::Reject { arg, check } => VerdictRef::Reject { arg: *arg, check },
            ValidateVerdict::WouldRepair { arg, check } => {
                VerdictRef::WouldRepair { arg: *arg, check }
            }
            ValidateVerdict::UnknownFunction => VerdictRef::UnknownFunction,
        }
    }
}

impl VerdictRef<'_> {
    /// The owned form of this verdict.
    pub fn into_owned(self) -> ValidateVerdict {
        match self {
            VerdictRef::Admit => ValidateVerdict::Admit,
            VerdictRef::AdmitUnchecked => ValidateVerdict::AdmitUnchecked,
            VerdictRef::Reject { arg, check } => ValidateVerdict::Reject {
                arg,
                check: check.to_string(),
            },
            VerdictRef::WouldRepair { arg, check } => ValidateVerdict::WouldRepair {
                arg,
                check: check.to_string(),
            },
            VerdictRef::UnknownFunction => ValidateVerdict::UnknownFunction,
        }
    }
}

/// One argument's entry in an `Explained` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainArg {
    /// The discovered robust type notation (`-` if unconstrained).
    pub robust: String,
    /// The checkable supertype the wrapper actually enforces (`-` if
    /// the argument is left unchecked).
    pub check: String,
}

/// Per-function validate outcome totals in a [`StatsReply`] —
/// deterministic (logical-event counts, worker-count invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnOutcome {
    /// Function name, in the daemon's plan order.
    pub function: String,
    /// Validates admitted with all checks passing.
    pub admitted: u64,
    /// Validates rejected by a failing check.
    pub rejected: u64,
    /// Validates admitted because the function carries no checks.
    pub unchecked: u64,
}

/// One worker's live counters in a [`StatsReply`] — nondeterministic
/// (which worker serves which connection is a scheduling accident).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Worker index (0-based).
    pub worker: u16,
    /// Request frames this worker served.
    pub frames: u64,
    /// Requests this worker served.
    pub requests: u64,
}

/// One latency histogram summary in a [`StatsReply`] — opt-in, only
/// populated while the telemetry gate is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingStat {
    /// Metric name (request kind).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// p50 upper bound (nanoseconds).
    pub p50: u64,
    /// p99 upper bound (nanoseconds).
    pub p99: u64,
}

/// The payload of a `Stats` response: the daemon's live observability
/// snapshot.
///
/// The **deterministic subset** — [`totals`](StatsReply::totals) and
/// [`functions`](StatsReply::functions) — counts logical events, so
/// for the same sequential request history it is byte-identical for
/// any `--workers` value (`tests/golden/serve.stats.txt` pins it). Everything
/// else is live scheduling state and excluded from that contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Global `(name, value)` totals, fixed order — deterministic.
    pub totals: Vec<(String, u64)>,
    /// Per-function validate outcomes, plan order — deterministic.
    pub functions: Vec<FnOutcome>,
    /// Per-worker live counters — nondeterministic.
    pub workers: Vec<WorkerStat>,
    /// Highest connection-queue depth observed — nondeterministic.
    pub queue_highwater: u64,
    /// Connections shed with a busy frame — nondeterministic.
    pub shed: u64,
    /// Latency summaries (empty unless requested and the telemetry
    /// gate is on) — nondeterministic.
    pub timings: Vec<TimingStat>,
}

/// One response from the daemon. Mirrors [`Request`] one-to-one; a
/// request frame of *n* messages is answered by a response frame of
/// *n* messages in the same order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Validate`].
    Validated(ValidateVerdict),
    /// Answer to [`Request::Explain`].
    Explained {
        /// `Some((prototype, args))` when the function is known.
        info: Option<(String, Vec<ExplainArg>)>,
    },
    /// Answer to [`Request::Report`]: `(name, value)` counters in a
    /// fixed, documented order (see [`crate::daemon::SessionStats`]).
    Reported {
        /// Counter names and values, deterministic order.
        counters: Vec<(String, u64)>,
    },
    /// Answer to [`Request::Shutdown`].
    Bye,
    /// The request was well-formed but unserveable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
}

// ---- primitive readers/writers -------------------------------------

/// A bounds-checked cursor over a message payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadString)
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.str().map(str::to_string)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Strings longer than a u16 length prefix cannot be represented;
/// encoders truncate rather than wrap (checks/prototypes are far
/// shorter in practice).
fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    put_u16(out, len as u16);
    out.extend_from_slice(&bytes[..len]);
}

// ---- SimValue codec -------------------------------------------------

const VAL_INT: u8 = 0;
const VAL_PTR: u8 = 1;
const VAL_DOUBLE: u8 = 2;
const VAL_VOID: u8 = 3;

fn put_value(out: &mut Vec<u8>, v: SimValue) {
    match v {
        SimValue::Int(i) => {
            out.push(VAL_INT);
            put_u64(out, i as u64);
        }
        SimValue::Ptr(p) => {
            out.push(VAL_PTR);
            put_u64(out, u64::from(p));
        }
        SimValue::Double(d) => {
            out.push(VAL_DOUBLE);
            put_u64(out, d.to_bits());
        }
        SimValue::Void => out.push(VAL_VOID),
    }
}

fn get_value(c: &mut Cursor<'_>) -> Result<SimValue, WireError> {
    match c.u8()? {
        VAL_INT => Ok(SimValue::Int(c.u64()? as i64)),
        VAL_PTR => {
            let raw = c.u64()?;
            let p = u32::try_from(raw).map_err(|_| WireError::PtrOutOfRange(raw))?;
            Ok(SimValue::Ptr(p))
        }
        VAL_DOUBLE => Ok(SimValue::Double(f64::from_bits(c.u64()?))),
        VAL_VOID => Ok(SimValue::Void),
        t => Err(WireError::UnknownTag(t)),
    }
}

// ---- Request codec --------------------------------------------------

const REQ_PING: u8 = 0;
const REQ_VALIDATE: u8 = 1;
const REQ_EXPLAIN: u8 = 2;
const REQ_REPORT: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_STATS: u8 = 5;

/// `Stats` request flag: include latency percentiles.
const STATS_FLAG_TIMINGS: u8 = 1;

impl Request {
    /// Append the wire form of this request to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Validate { function, args } => {
                out.push(REQ_VALIDATE);
                put_string(out, function);
                out.push(args.len().min(u8::MAX as usize) as u8);
                for &a in args.iter().take(u8::MAX as usize) {
                    put_value(out, a);
                }
            }
            Request::Explain { function } => {
                out.push(REQ_EXPLAIN);
                put_string(out, function);
            }
            Request::Report => out.push(REQ_REPORT),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Stats { timings } => {
                out.push(REQ_STATS);
                out.push(if *timings { STATS_FLAG_TIMINGS } else { 0 });
            }
        }
    }

    /// Decode one request occupying exactly `buf`:
    /// [`RequestRef::decode`] plus [`RequestRef::into_owned`].
    ///
    /// # Errors
    ///
    /// As [`RequestRef::decode`].
    pub fn decode(buf: &[u8]) -> Result<Request, WireError> {
        let mut args = Vec::new();
        Ok(RequestRef::decode(buf, &mut args)?.into_owned(args))
    }
}

impl<'a> RequestRef<'a> {
    /// Decode one request occupying exactly `buf`, borrowing its names
    /// from `buf` and writing a `Validate`'s arguments over `args`.
    ///
    /// # Errors
    ///
    /// Rejects truncation, unknown tags, bad strings, out-of-range
    /// pointers, and trailing bytes.
    pub fn decode(buf: &'a [u8], args: &mut Vec<SimValue>) -> Result<RequestRef<'a>, WireError> {
        let mut c = Cursor::new(buf);
        args.clear();
        let req = match c.u8()? {
            REQ_PING => RequestRef::Ping,
            REQ_VALIDATE => {
                let function = c.str()?;
                for _ in 0..c.u8()? {
                    args.push(get_value(&mut c)?);
                }
                RequestRef::Validate { function }
            }
            REQ_EXPLAIN => RequestRef::Explain { function: c.str()? },
            REQ_REPORT => RequestRef::Report,
            REQ_SHUTDOWN => RequestRef::Shutdown,
            REQ_STATS => RequestRef::Stats {
                timings: c.u8()? & STATS_FLAG_TIMINGS != 0,
            },
            t => return Err(WireError::UnknownTag(t)),
        };
        if c.remaining() != 0 {
            return Err(WireError::TrailingBytes(c.remaining()));
        }
        Ok(req)
    }

    /// The owned request, taking `args` as a `Validate`'s arguments.
    pub fn into_owned(self, args: Vec<SimValue>) -> Request {
        match self {
            RequestRef::Ping => Request::Ping,
            RequestRef::Validate { function } => Request::Validate {
                function: function.to_string(),
                args,
            },
            RequestRef::Explain { function } => Request::Explain {
                function: function.to_string(),
            },
            RequestRef::Report => Request::Report,
            RequestRef::Shutdown => Request::Shutdown,
            RequestRef::Stats { timings } => Request::Stats { timings },
        }
    }
}

// ---- Response codec -------------------------------------------------

const RSP_PONG: u8 = 0;
const RSP_VALIDATED: u8 = 1;
const RSP_EXPLAINED: u8 = 2;
const RSP_REPORTED: u8 = 3;
const RSP_BYE: u8 = 4;
const RSP_ERROR: u8 = 5;
const RSP_STATS: u8 = 6;

const VERDICT_ADMIT: u8 = 0;
const VERDICT_ADMIT_UNCHECKED: u8 = 1;
const VERDICT_REJECT: u8 = 2;
const VERDICT_UNKNOWN_FUNCTION: u8 = 3;
const VERDICT_WOULD_REPAIR: u8 = 4;

impl VerdictRef<'_> {
    /// Append the wire form of the `Validated` response carrying this
    /// verdict to `out`.
    pub fn encode(self, out: &mut Vec<u8>) {
        out.push(RSP_VALIDATED);
        match self {
            VerdictRef::Admit => out.push(VERDICT_ADMIT),
            VerdictRef::AdmitUnchecked => out.push(VERDICT_ADMIT_UNCHECKED),
            VerdictRef::Reject { arg, check } => {
                out.push(VERDICT_REJECT);
                put_u16(out, arg);
                put_string(out, check);
            }
            VerdictRef::WouldRepair { arg, check } => {
                out.push(VERDICT_WOULD_REPAIR);
                put_u16(out, arg);
                put_string(out, check);
            }
            VerdictRef::UnknownFunction => out.push(VERDICT_UNKNOWN_FUNCTION),
        }
    }
}

impl Response {
    /// Append the wire form of this response to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(RSP_PONG),
            Response::Validated(v) => v.view().encode(out),
            Response::Explained { info } => {
                out.push(RSP_EXPLAINED);
                match info {
                    None => out.push(0),
                    Some((proto, args)) => {
                        out.push(1);
                        put_string(out, proto);
                        out.push(args.len().min(u8::MAX as usize) as u8);
                        for a in args.iter().take(u8::MAX as usize) {
                            put_string(out, &a.robust);
                            put_string(out, &a.check);
                        }
                    }
                }
            }
            Response::Reported { counters } => {
                out.push(RSP_REPORTED);
                put_u16(out, counters.len().min(u16::MAX as usize) as u16);
                for (name, value) in counters.iter().take(u16::MAX as usize) {
                    put_string(out, name);
                    put_u64(out, *value);
                }
            }
            Response::Bye => out.push(RSP_BYE),
            Response::Error { message } => {
                out.push(RSP_ERROR);
                put_string(out, message);
            }
            Response::Stats(s) => {
                out.push(RSP_STATS);
                put_u16(out, s.totals.len().min(u16::MAX as usize) as u16);
                for (name, value) in s.totals.iter().take(u16::MAX as usize) {
                    put_string(out, name);
                    put_u64(out, *value);
                }
                put_u16(out, s.functions.len().min(u16::MAX as usize) as u16);
                for f in s.functions.iter().take(u16::MAX as usize) {
                    put_string(out, &f.function);
                    put_u64(out, f.admitted);
                    put_u64(out, f.rejected);
                    put_u64(out, f.unchecked);
                }
                put_u16(out, s.workers.len().min(u16::MAX as usize) as u16);
                for w in s.workers.iter().take(u16::MAX as usize) {
                    put_u16(out, w.worker);
                    put_u64(out, w.frames);
                    put_u64(out, w.requests);
                }
                put_u64(out, s.queue_highwater);
                put_u64(out, s.shed);
                put_u16(out, s.timings.len().min(u16::MAX as usize) as u16);
                for t in s.timings.iter().take(u16::MAX as usize) {
                    put_string(out, &t.name);
                    put_u64(out, t.count);
                    put_u64(out, t.p50);
                    put_u64(out, t.p99);
                }
            }
        }
    }

    /// Decode one response occupying exactly `buf`.
    ///
    /// # Errors
    ///
    /// Rejects truncation, unknown tags, bad strings, and trailing
    /// bytes.
    pub fn decode(buf: &[u8]) -> Result<Response, WireError> {
        let mut c = Cursor::new(buf);
        let rsp = Self::decode_from(&mut c)?;
        if c.remaining() != 0 {
            return Err(WireError::TrailingBytes(c.remaining()));
        }
        Ok(rsp)
    }

    fn decode_from(c: &mut Cursor<'_>) -> Result<Response, WireError> {
        match c.u8()? {
            RSP_PONG => Ok(Response::Pong),
            RSP_VALIDATED => {
                let verdict = match c.u8()? {
                    VERDICT_ADMIT => ValidateVerdict::Admit,
                    VERDICT_ADMIT_UNCHECKED => ValidateVerdict::AdmitUnchecked,
                    VERDICT_REJECT => ValidateVerdict::Reject {
                        arg: c.u16()?,
                        check: c.string()?,
                    },
                    VERDICT_WOULD_REPAIR => ValidateVerdict::WouldRepair {
                        arg: c.u16()?,
                        check: c.string()?,
                    },
                    VERDICT_UNKNOWN_FUNCTION => ValidateVerdict::UnknownFunction,
                    t => return Err(WireError::UnknownTag(t)),
                };
                Ok(Response::Validated(verdict))
            }
            RSP_EXPLAINED => {
                let info = match c.u8()? {
                    0 => None,
                    1 => {
                        let proto = c.string()?;
                        let argc = c.u8()? as usize;
                        let mut args = Vec::with_capacity(argc);
                        for _ in 0..argc {
                            args.push(ExplainArg {
                                robust: c.string()?,
                                check: c.string()?,
                            });
                        }
                        Some((proto, args))
                    }
                    t => return Err(WireError::UnknownTag(t)),
                };
                Ok(Response::Explained { info })
            }
            RSP_REPORTED => {
                let n = c.u16()? as usize;
                let mut counters = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = c.string()?;
                    let value = c.u64()?;
                    counters.push((name, value));
                }
                Ok(Response::Reported { counters })
            }
            RSP_BYE => Ok(Response::Bye),
            RSP_ERROR => Ok(Response::Error {
                message: c.string()?,
            }),
            RSP_STATS => {
                let n = c.u16()? as usize;
                let mut totals = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = c.string()?;
                    let value = c.u64()?;
                    totals.push((name, value));
                }
                let n = c.u16()? as usize;
                let mut functions = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    functions.push(FnOutcome {
                        function: c.string()?,
                        admitted: c.u64()?,
                        rejected: c.u64()?,
                        unchecked: c.u64()?,
                    });
                }
                let n = c.u16()? as usize;
                let mut workers = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    workers.push(WorkerStat {
                        worker: c.u16()?,
                        frames: c.u64()?,
                        requests: c.u64()?,
                    });
                }
                let queue_highwater = c.u64()?;
                let shed = c.u64()?;
                let n = c.u16()? as usize;
                let mut timings = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    timings.push(TimingStat {
                        name: c.string()?,
                        count: c.u64()?,
                        p50: c.u64()?,
                        p99: c.u64()?,
                    });
                }
                Ok(Response::Stats(StatsReply {
                    totals,
                    functions,
                    workers,
                    queue_highwater,
                    shed,
                    timings,
                }))
            }
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    fn roundtrip_rsp(rsp: Response) {
        let mut buf = Vec::new();
        rsp.encode(&mut buf);
        assert_eq!(Response::decode(&buf).unwrap(), rsp);
    }

    #[test]
    fn every_kind_round_trips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Validate {
            function: "strcpy".into(),
            args: vec![
                SimValue::Ptr(0x1000),
                SimValue::Ptr(0),
                SimValue::Int(-1),
                SimValue::Double(2.5),
                SimValue::Void,
            ],
        });
        roundtrip_req(Request::Explain {
            function: "fgets".into(),
        });
        roundtrip_req(Request::Report);
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Stats { timings: false });
        roundtrip_req(Request::Stats { timings: true });

        roundtrip_rsp(Response::Pong);
        roundtrip_rsp(Response::Validated(ValidateVerdict::Admit));
        roundtrip_rsp(Response::Validated(ValidateVerdict::AdmitUnchecked));
        roundtrip_rsp(Response::Validated(ValidateVerdict::Reject {
            arg: 1,
            check: "RNTS".into(),
        }));
        roundtrip_rsp(Response::Validated(ValidateVerdict::WouldRepair {
            arg: 0,
            check: "WNTS".into(),
        }));
        roundtrip_rsp(Response::Validated(ValidateVerdict::UnknownFunction));
        roundtrip_rsp(Response::Explained { info: None });
        roundtrip_rsp(Response::Explained {
            info: Some((
                "char *strcpy(char *dst, const char *src)".into(),
                vec![
                    ExplainArg {
                        robust: "WNTS".into(),
                        check: "WNTS".into(),
                    },
                    ExplainArg {
                        robust: "-".into(),
                        check: "-".into(),
                    },
                ],
            )),
        });
        roundtrip_rsp(Response::Reported {
            counters: vec![("requests".into(), 7), ("validates".into(), 3)],
        });
        roundtrip_rsp(Response::Bye);
        roundtrip_rsp(Response::Error {
            message: "nope".into(),
        });
        roundtrip_rsp(Response::Stats(StatsReply::default()));
        roundtrip_rsp(Response::Stats(full_stats_reply()));
    }

    fn full_stats_reply() -> StatsReply {
        StatsReply {
            totals: vec![("frames".into(), 10), ("requests".into(), 25)],
            functions: vec![
                FnOutcome {
                    function: "strlen".into(),
                    admitted: 5,
                    rejected: 2,
                    unchecked: 0,
                },
                FnOutcome {
                    function: "abs".into(),
                    admitted: 0,
                    rejected: 0,
                    unchecked: 3,
                },
            ],
            workers: vec![
                WorkerStat {
                    worker: 0,
                    frames: 7,
                    requests: 20,
                },
                WorkerStat {
                    worker: 1,
                    frames: 3,
                    requests: 5,
                },
            ],
            queue_highwater: 4,
            shed: 1,
            timings: vec![TimingStat {
                name: "validate".into(),
                count: 7,
                p50: 1023,
                p99: 4095,
            }],
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Request::Validate {
            function: "abs".into(),
            args: vec![SimValue::Int(3)],
        }
        .encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Request::decode(&buf[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        buf.push(0);
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::TrailingBytes(1)),
            "a trailing byte must be rejected"
        );
    }

    #[test]
    fn stats_truncation_and_trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Response::Stats(full_stats_reply()).encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(
                Response::decode(&buf[..cut]).is_err(),
                "stats prefix of {cut} bytes must not decode"
            );
        }
        buf.push(0);
        assert_eq!(Response::decode(&buf), Err(WireError::TrailingBytes(1)));

        let mut buf = Vec::new();
        Request::Stats { timings: true }.encode(&mut buf);
        assert!(Request::decode(&buf[..1]).is_err(), "flag byte is required");
    }

    #[test]
    fn out_of_range_pointers_are_rejected() {
        let mut buf = vec![super::REQ_VALIDATE];
        put_string(&mut buf, "abs");
        buf.push(1);
        buf.push(super::VAL_PTR);
        put_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::PtrOutOfRange(u64::from(u32::MAX) + 1))
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(Request::decode(&[9]), Err(WireError::UnknownTag(9)));
        assert_eq!(Response::decode(&[9]), Err(WireError::UnknownTag(9)));
        assert_eq!(
            Response::decode(&[super::RSP_VALIDATED, 9]),
            Err(WireError::UnknownTag(9))
        );
        // Tag 5 is the first unassigned verdict tag: a client one
        // version ahead of this codec must get a clean decode error,
        // exactly as pre-repair clients do for tag 4.
        assert_eq!(
            Response::decode(&[super::RSP_VALIDATED, 5]),
            Err(WireError::UnknownTag(5))
        );
    }
}
