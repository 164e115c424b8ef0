//! Ballista-style robustness evaluation (§6, Figure 6).
//!
//! The paper evaluates its wrapper by re-running the Ballista test
//! programs for the 86 POSIX functions previously found to suffer crash
//! failures. Ballista's methodology [Kropp, Koopman, Siewiorek,
//! FTCS-28] generates tests as the cross product of typed test-value
//! pools; every test here combines at least one exceptional value
//! (the published suite consists precisely of violation-exhibiting
//! tests).
//!
//! This crate reimplements that methodology against the simulated
//! library: typed pools ([`pools`]), the 86-function target list
//! ([`targets`]), and a runner ([`runner`]) that executes every test in
//! a sandboxed clone of a prepared world — unwrapped, through the fully
//! automatic wrapper, or through the semi-automatic wrapper — and
//! classifies the outcome on the CRASH-style scale. The runner
//! evaluates one function at a time; the loop over functions, at any
//! worker count, is `healers_campaign::Campaign::evaluate`.
//!
//! # Examples
//!
//! ```
//! use healers_ballista::{derive_seed, Ballista, Mode, TestClass};
//! use healers_libc::Libc;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let libc = Libc::standard();
//! let ballista = Ballista::new();
//! let prepared = ballista.prepare_mode(&libc, Mode::Unwrapped, Vec::new());
//! let crashes = |name: &str| {
//!     let mut rng = StdRng::seed_from_u64(derive_seed(ballista.seed(), name));
//!     let run = ballista.run_function_full(&libc, &prepared, name, &mut rng);
//!     run.classes.iter().filter(|&&c| c == TestClass::Crash).count()
//! };
//! assert!(crashes("strcpy") > 0);
//! assert_eq!(crashes("abs"), 0);
//! ```

pub mod bitflip;
pub mod fingerprint;
pub mod pools;
pub mod report;
pub mod runner;
pub mod targets;

pub use bitflip::run_bitflip;
pub use fingerprint::derive_seed;
pub use report::{BallistaReport, FunctionOutcomes, TestClass};
pub use runner::{Ballista, FunctionRun, Mode, ParseModeError, PreparedMode, TestRun};
pub use targets::{ballista_targets, NEVER_CRASHING};
