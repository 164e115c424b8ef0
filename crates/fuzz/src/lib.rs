//! Coverage-guided API-sequence fuzzing over the HEALERS corpus.
//!
//! Where the injection campaigns (healers-inject, healers-campaign)
//! probe each libc function *in isolation* with typed hostile
//! arguments, this crate fuzzes **call sequences**: typed chains in
//! which one call's outputs — heap blocks, `FILE *` streams, `DIR *`
//! handles, file descriptors — feed later calls' inputs. That is the
//! territory single-call injection cannot reach: use-after-free,
//! double-close, read-after-`fclose`, allocator state corruption, and
//! wrapper transparency over stateful histories.
//!
//! The pieces:
//!
//! - [`sequence`] — typed call sequences with a replayable text format;
//! - [`mod@generate`] — dependency-graph generation and mutation over the
//!   declaration corpus (resource-typed, RULF-style);
//! - [`exec`] — whole-sequence execution inside one CoW-snapshot child
//!   ([`healers_simproc::run_in_child`]), wrapped or unwrapped,
//!   with per-step outcome/`errno`/check records and a final
//!   world-image digest;
//! - [`coverage`] — an address-free coverage map keyed on simproc
//!   fault-provenance sites ([`healers_simproc::CoverageSite`]) plus
//!   per-function call-outcome and check edges;
//! - [`finding`] — what counts as a bug: absorbed check violations,
//!   wrapped crashes, and wrapped-vs-unwrapped transparency
//!   divergences;
//! - [`mod@shrink`] — delta-debugging over the call list, then a
//!   per-argument lattice walk toward the robust-type boundary;
//! - [`pin`] — crash-to-regression-test pinning: shrunk sequences plus
//!   their recorded behaviour, committed under `tests/fuzz_pins/` and
//!   replayed by `cargo test`;
//! - [`event`] — journal events (via the campaign's generic
//!   [`healers_campaign::Journal`]) and the Chrome-trace export;
//! - [`fuzzer`] — the batched derive/execute/merge loop whose
//!   artifacts are byte-identical for any `--jobs` value.
//!
//! # Examples
//!
//! ```
//! use healers_campaign::JournalSender;
//! use healers_fuzz::{FuzzConfig, PinMode};
//! use healers_libc::Libc;
//!
//! let libc = Libc::standard();
//! let config = FuzzConfig {
//!     seed: 1,
//!     budget: 32,
//!     functions: vec!["malloc".into(), "free".into(), "strcpy".into()],
//!     ..FuzzConfig::default()
//! };
//! let outcome = healers_fuzz::run(&libc, &config, &JournalSender::disabled());
//! assert_eq!(outcome.executed, 32);
//! assert!(!outcome.coverage.is_empty());
//! # let _ = PinMode::Full;
//! ```

pub mod coverage;
pub mod event;
pub mod exec;
pub mod finding;
pub mod fuzzer;
pub mod generate;
pub mod pin;
pub mod sequence;
pub mod shrink;

pub use coverage::{CoverageKey, CoverageMap};
pub use event::{chrome_trace, FuzzEvent};
pub use exec::{
    execute, execute_reference, execute_unwrapped, execute_with_schedule, execute_wrapped,
    world_digest, ExecMode, ExecResult, StepRecord,
};
pub use finding::{detect, Finding, FindingKind};
pub use fuzzer::{run, FindingReport, FuzzConfig, FuzzOutcome};
pub use generate::{generate, mutate, mutate_schedule, weave_schedule, Pool};
pub use pin::{Expectation, Pin, PinMode};
pub use sequence::{ArgSpec, CallStep, Preempt, Sequence, MAX_LANES};
pub use shrink::{shrink, ShrinkStats};
