//! Benchmark harnesses: the workload programs of §7 and the Table 2
//! overhead binary that runs them.
//!
//! Every table and figure of the paper has one regenerating command:
//!
//! | Paper artifact | Command |
//! |---|---|
//! | Figure 6 (Ballista outcomes, 3 configurations) | `healers campaign --mode all [--jobs N] [--cache DIR] [--on-violation P]` |
//! | Table 1 (error-return-code classes) | `healers campaign --mode table1 [--jobs N] [--cache DIR]` |
//! | Table 2 (execution overhead of 4 utilities) | `cargo run -p healers-bench --bin table2_overhead --release` |
//! | §3 extraction statistics | `healers extract` |
//! | Figure 2 / Figure 5 artifacts | `healers analyze asctime` / `healers wrap [--out FILE]` |
//! | Bit-flip study (§9) | `healers bitflip` |
//!
//! Per-layer timings (kernels, per-check ops, wrapped calls) come from
//! `healbench --trace 1`, not from this crate.

pub mod workloads;

pub use workloads::{
    run_workload, run_workload_traced, workloads, CallCtx, TraceCall, Workload, WorkloadStats,
};
