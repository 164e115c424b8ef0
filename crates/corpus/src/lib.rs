//! The §3 extraction substrate: shared-library symbol tables, a header
//! and manual-page corpus with realistic imperfections, and the
//! prototype-recovery pipeline.
//!
//! HEALERS extracts the C type of every global function of a shared
//! library *from the outside*: `objdump` yields symbol names and
//! versions, manual pages name the headers a caller must include, and
//! those headers (or, failing that, a scan of every header under a
//! path) yield the prototype. The paper quantifies how imperfect this
//! input is for glibc 2.2 on SUSE 7.2:
//!
//! * more than **34 %** of the global symbols are internal (leading
//!   underscore),
//! * only **51.1 %** of functions have a manual page,
//! * **1.2 %** of manual pages list no headers and **7.7 %** list wrong
//!   ones,
//! * prototypes are ultimately found for **96.0 %** of functions.
//!
//! This crate reproduces both sides: [`generate`] builds a corpus with
//! exactly those imperfection rates (seeded, deterministic), and
//! [`pipeline`] implements the recovery logic whose success statistics
//! `healers extract` reports.
//!
//! # Examples
//!
//! ```
//! use healers_corpus::{generate::CorpusConfig, pipeline::recover_all};
//!
//! let corpus = CorpusConfig::default().generate();
//! let report = recover_all(&corpus);
//! let strcpy = report.outcome("strcpy").unwrap();
//! assert!(strcpy.prototype.is_some());
//! ```

pub mod generate;
pub mod headers;
pub mod manpages;
pub mod pipeline;
pub mod symbols;

pub use generate::{Corpus, CorpusConfig};
pub use pipeline::{recover_all, RecoveryReport};
pub use symbols::{AppImports, Symbol, SymbolTable};
