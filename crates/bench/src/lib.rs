//! Benchmark harnesses: the workload programs of §7 and shared plumbing
//! for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper has a regenerating target:
//!
//! | Paper artifact | Target |
//! |---|---|
//! | Figure 6 (Ballista outcomes, 3 configurations) | `cargo run -p healers-bench --bin fig6_ballista --release` |
//! | Table 1 (error-return-code classes) | `cargo run -p healers-bench --bin table1_errcodes --release` |
//! | Table 2 (execution overhead of 4 utilities) | `cargo run -p healers-bench --bin table2_overhead --release` |
//! | §3 extraction statistics | `cargo run -p healers-bench --bin section3_extraction --release` |
//! | Figure 2 / Figure 5 artifacts | `cargo run -p healers-bench --bin fig2_fig5_artifacts --release` |
//!
//! Per-layer timings (kernels, per-check ops, wrapped calls) come from
//! `healbench --trace 1`, not from this crate.

pub mod workloads;

pub use workloads::{
    run_workload, run_workload_traced, workloads, CallCtx, TraceCall, Workload, WorkloadStats,
};
