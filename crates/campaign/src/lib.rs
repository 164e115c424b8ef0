//! Parallel campaign orchestration for whole-library analysis.
//!
//! The HEALERS pipeline is embarrassingly parallel at function
//! granularity: each fault-injection campaign and each Ballista
//! evaluation batch touches only its own sandboxed worlds. This crate
//! adds the production harness around that fact:
//!
//! - [`scheduler`] — a work-stealing scheduler over `std::thread::scope`
//!   whose merged output is bit-identical for any worker count;
//! - [`cache`] — a persistent, content-addressed declaration cache
//!   keyed by a [`mod@fingerprint`] of everything the injection outcome
//!   depends on, so re-runs over an unchanged library skip injection
//!   entirely;
//! - [`journal`] — a structured [`CampaignEvent`] stream drained to
//!   JSONL by a dedicated thread;
//! - [`chrome`] — a Chrome trace-event export of the journal's
//!   sequenced stream (worker lanes, queue-depth counters), derived
//!   purely from journal sequence numbers;
//! - [`campaign`] — the orchestrator tying the pieces together, with
//!   aggregate [`CampaignMetrics`].
//!
//! No external dependencies; the whole crate is std + the sibling
//! HEALERS crates.
//!
//! # Examples
//!
//! ```
//! use healers_campaign::{Campaign, CampaignConfig};
//! use healers_libc::Libc;
//!
//! let campaign = Campaign::new(&CampaignConfig {
//!     jobs: 4,
//!     ..CampaignConfig::default()
//! })
//! .unwrap();
//! let libc = Libc::standard();
//! let (decls, metrics) = campaign.analyze(&libc, &["strcpy", "abs"]).unwrap();
//! assert_eq!(decls.len(), 2);
//! assert_eq!(metrics.functions, 2);
//! campaign.finish().unwrap();
//! ```

pub mod cache;
pub mod campaign;
pub mod chrome;
pub mod journal;
pub mod metrics;
pub mod scheduler;

// JSON emission/validation moved down into healers-trace (every
// exporter shares it now); re-exported so `healers_campaign::json`
// call sites keep working.
pub use healers_trace::json;

pub use cache::{CacheCounters, CacheError, CacheErrorKind, DeclCache, CACHE_FORMAT_VERSION};
pub use campaign::{Campaign, CampaignConfig};
pub use chrome::chrome_trace;
// The fingerprint module lives in `healers-ballista` beside the
// runner whose per-function seeds it derives; re-exported here
// because the declaration cache keys are part of this crate's API.
pub use healers_ballista::fingerprint;
pub use healers_ballista::fingerprint::{derive_seed, fingerprint, Fingerprint, FORMAT_VERSION};
pub use journal::{CampaignEvent, Journal, JournalEvent, JournalSender, JournalTail};
pub use metrics::CampaignMetrics;
pub use scheduler::run_indexed;
