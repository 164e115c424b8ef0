//! HEALERS — automated robustness wrappers for C libraries.
//!
//! Facade crate re-exporting the full HEALERS pipeline. See the individual
//! crates for detail:
//!
//! * [`healers_ctypes`] — C type model, prototype parser, target layout
//! * [`healers_simproc`] — simulated process (memory, heap, faults, sandbox)
//! * [`healers_os`] — simulated kernel (filesystem, fds, directories, ttys)
//! * [`healers_libc`] — the simulated C library under test
//! * [`healers_typesys`] — the extensible robust-argument type system
//! * [`healers_corpus`] — header/man-page corpus and prototype recovery
//! * [`healers_inject`] — adaptive fault injectors and test-case generators
//! * [`healers_core`] — function declarations and wrapper generation
//! * [`healers_ballista`] — Ballista-style robustness evaluation
//! * [`healers_campaign`] — parallel campaign orchestration, declaration cache, event journal
//! * [`healers_fuzz`] — coverage-guided API-sequence fuzzer with shrinking and pinning
//! * [`healers_serve`] — hardening-as-a-service daemon: framed binary protocol over Arc-shared wrapper plans
//! * [`healers_trace`] — telemetry core: latency histograms, Chrome trace export, campaign-progress counters, flight recorder

pub mod error;
pub mod prelude;

pub use error::Error;

pub use healers_ballista as ballista;
pub use healers_campaign as campaign;
pub use healers_core as core;
pub use healers_corpus as corpus;
pub use healers_ctypes as ctypes;
pub use healers_fuzz as fuzz;
pub use healers_inject as inject;
pub use healers_libc as libc;
pub use healers_os as os;
pub use healers_serve as serve;
pub use healers_simproc as simproc;
pub use healers_trace as trace;
pub use healers_typesys as typesys;
