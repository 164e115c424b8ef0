//! healers-serve — hardening-as-a-service.
//!
//! The paper compiles its robustness wrappers into the protected
//! process; every client re-derives every check plan. This crate turns
//! the checking core into a long-lived facility (the ROADMAP's
//! millions-of-users story): a daemon builds the wrapper plans **once**
//! — from the persistent declaration cache, so a warm start performs
//! zero injected calls — freezes them behind an
//! [`Arc`](std::sync::Arc), and answers
//! validate/explain/report requests over a framed, length-prefixed
//! binary protocol.
//!
//! The crate split mirrors the harness/membrane separation of the
//! reference repos: the *service shell* ([`daemon`], [`frame`],
//! [`pipe`]) knows nothing about robustness checking, and the *checking
//! core* ([`plans`]) knows nothing about sockets. Everything is
//! dependency-free std: threads and blocking I/O — no async runtime.
//!
//! * [`proto`] — request/response message model and byte codec;
//! * [`frame`] — the versioned, length-prefixed batch frame around
//!   messages, with hostile-input limits;
//! * [`pipe`] — a bounded in-process duplex byte transport (the test
//!   and bench transport; Unix sockets are the production one);
//! * [`plans`] — [`ServePlans`]: the `Arc`-shared read-only checking
//!   core built from the declaration cache;
//! * [`daemon`] — the accept loop, bounded connection queue with
//!   shedding, and the per-connection session worker pool;
//! * [`script`] — the request-script DSL used by `healers serve exec`,
//!   `healers serve send`, and the serve goldens;
//! * [`client`] — drive a request script over any connection and
//!   collect the raw reply stream.
//!
//! Load throughput and round-trip latency are measured by the
//! repository's benchmark (`healbench --workload serve`), not by this
//! crate.
//!
//! # Determinism contract
//!
//! A connection's reply bytes are a pure function of that connection's
//! request bytes and the daemon's plan set. Sessions share only the
//! daemon's [`StatsHub`], which they write and only `Stats` reads —
//! [`proto::Request::Report`] answers with the *session's own*
//! counters, never daemon globals — and one worker owns a connection
//! from accept to close, answering frames strictly in order. Reply
//! streams are therefore byte-identical for any `--workers` value;
//! `tests/serve_goldens.rs` pins them against the committed
//! `tests/golden/serve.*` files at 1 and 4 workers, and the CI
//! serve-smoke job compares against the same files.
//!
//! [`proto::Request::Stats`] is the one deliberate, explicitly scoped
//! exception: its reply reports *daemon-wide* live state. The carve-out
//! is itself contractual — the reply's **deterministic subset**
//! (global totals and per-function validate outcomes) counts logical
//! events of the request history and stays byte-identical for any
//! `--workers` given the same sequential client traffic (pinned by
//! `tests/golden/serve.stats.txt` and, mid-frame, by
//! `serve.batched.*`), while per-worker counters, the queue
//! high-water mark and shed counts are live scheduling state outside
//! the contract. The reply's `timings` list is always empty: the wire
//! format can carry latency percentiles, but the daemon keeps none.
//! Script transcripts render only the deterministic subset.

pub mod client;
pub mod daemon;
pub mod frame;
pub mod pipe;
pub mod plans;
pub mod proto;
pub mod script;

pub use client::run_script;
pub use daemon::{Daemon, DaemonConfig, StatsHub};
pub use frame::{FrameError, Limits, MAGIC, PROTOCOL_VERSION};
pub use pipe::{duplex, DuplexStream};
pub use plans::{PlanConfig, ServePlans};
pub use proto::{
    FnOutcome, Request, Response, StatsReply, TimingStat, ValidateVerdict, WireError, WorkerStat,
};
pub use script::Script;
