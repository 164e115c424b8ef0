//! Regenerates **Table 2**: execution overhead of the robustness
//! wrapper for the four utility workloads.
//!
//! Paper reference values:
//!
//! | | tar | gzip | gcc | ps2pdf |
//! |---|---|---|---|---|
//! | # wrapped func/sec | 3545 | 43 | 388 998 | 378 659 |
//! | time in library | 1.05 % | 0.01 % | 10.20 % | 7.96 % |
//! | checking overhead | 0.16 % | 0.0003 % | 1.72 % | 1.88 % |
//! | execution overhead | 3.14 % | 1.12 % | 16.1 % | 5.67 % |
//!
//! Absolute values depend on the machine (here: a simulated one); the
//! *ordering* — gcc worst, ps2pdf close behind, tar small, gzip
//! negligible — is the reproducible shape.
//!
//! Two throughput numbers are reported per workload:
//!
//! * `workload_calls_per_sec` — wrapped calls per second of workload
//!   wall-clock, the paper-comparable "# wrapped func/sec" row
//!   (compute-ballast dominated: it mostly measures the application);
//! * `calls_per_sec` — the **hot-path** number: the workload's
//!   checked-call trace replayed through the wrapper's compiled-plan
//!   `precheck` entry point against the end-of-run world and tracking
//!   tables. This is steady-state checking throughput (warm validity
//!   cache, no application compute, no library execution) — the
//!   number the regression baseline gates. The same replay with the
//!   telemetry gate enabled (`calls_per_sec_metrics_on`) is the
//!   observability ablation: every precheck then pays the latency
//!   clock read and histogram record on top of the always-on registry
//!   counters.
//!
//! Flags:
//!
//! * `--fast` — 3 reps instead of 7 (CI perf smoke);
//! * `--json PATH` — also emit the rows (plus the per-kernel check
//!   decomposition) as `BENCH_checks.json`;
//! * `--baseline PATH` — compare against a committed `BENCH_checks.json`
//!   and exit non-zero if gcc's checking overhead regressed by more
//!   than 10 % relative, or if gcc's compiled trace-replay throughput
//!   (measured with the metrics registry compiled in, as it always is)
//!   fell more than 10 % below the baseline.

use std::time::{Duration, Instant};

use healers_ballista::ballista_targets;
use healers_bench::{run_workload, run_workload_traced, workloads, TraceCall, Workload};
use healers_core::checker::{CheckCounters, CheckKind};
use healers_core::{
    analyze, FnId, FunctionDecl, RobustnessWrapper, ViolationAction, WrapperBuilder, WrapperConfig,
};
use healers_libc::Libc;
use healers_simproc::SimValue;

fn best(
    libc: &Libc,
    workload: &Workload,
    reps: usize,
    make_wrapper: impl Fn() -> Option<RobustnessWrapper>,
) -> (Duration, healers_bench::WorkloadStats) {
    let mut best_time = Duration::MAX;
    let mut best_stats = None;
    for _ in 0..reps {
        let stats = run_workload(libc, workload, make_wrapper());
        if stats.total < best_time {
            best_time = stats.total;
            best_stats = Some(stats);
        }
    }
    (best_time, best_stats.unwrap())
}

struct Row {
    name: &'static str,
    calls_per_sec: f64,
    calls_per_sec_metrics_on: f64,
    calls_per_sec_repair: f64,
    workload_calls_per_sec: f64,
    time_in_library: f64,
    checking_overhead: f64,
    execution_overhead: f64,
    check_kinds: CheckCounters,
    format_checks: u64,
    lat_p50_ns: u64,
    lat_p99_ns: u64,
}

fn build_wrapper(decls: &[FunctionDecl], action: ViolationAction) -> RobustnessWrapper {
    WrapperBuilder::new()
        .decls(decls.to_vec())
        .config(WrapperConfig {
            action,
            ..WrapperConfig::full_auto()
        })
        .build()
}

/// Resolve the recorded trace down to the checked calls only, with the
/// name dispatch hoisted out of the replay loop.
fn checked_calls(wrapper: &RobustnessWrapper, trace: &[TraceCall]) -> Vec<(FnId, Vec<SimValue>)> {
    trace
        .iter()
        .filter_map(|(name, args)| {
            wrapper
                .resolve(name)
                .filter(|&id| wrapper.is_checked(id))
                .map(|id| (id, args.clone()))
        })
        .collect()
}

/// Best-of-`reps` checked-call replay throughput: drive the trace
/// through `precheck` against the end-of-run world, enough passes to
/// amortize timer noise.
fn replay_throughput(
    world: &healers_libc::World,
    wrapper: &mut RobustnessWrapper,
    calls: &[(FnId, Vec<SimValue>)],
    reps: usize,
) -> f64 {
    if calls.is_empty() {
        return 0.0;
    }
    let passes = (50_000 / calls.len()).max(1);
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        let mut admitted = 0u64;
        for _ in 0..passes {
            for (id, args) in calls {
                admitted += u64::from(wrapper.precheck(world, *id, args));
            }
        }
        let elapsed = started.elapsed();
        std::hint::black_box(admitted);
        if elapsed < best {
            best = elapsed;
        }
    }
    (calls.len() * passes) as f64 / best.as_secs_f64()
}

/// The hot-path metric for one violation policy: run the workload once
/// to record its trace and final state, then replay the checked calls.
fn replay_calls_per_sec(
    libc: &Libc,
    decls: &[FunctionDecl],
    workload: &Workload,
    action: ViolationAction,
    reps: usize,
) -> f64 {
    let (_, trace, world, wrapper) =
        run_workload_traced(libc, workload, Some(build_wrapper(decls, action)));
    let mut wrapper = wrapper.expect("wrapper survives the workload");
    let calls = checked_calls(&wrapper, &trace);
    replay_throughput(&world, &mut wrapper, &calls, reps)
}

fn measure(libc: &Libc, decls: &[FunctionDecl], workload: &Workload, reps: usize) -> Row {
    // Execution overhead: plain wrapper vs. unwrapped (no timers in the
    // hot path for either).
    let (unwrapped, _) = best(libc, workload, reps, || None);
    let (wrapped, plain_stats) = best(libc, workload, reps, || {
        Some(
            WrapperBuilder::new()
                .decls(decls.to_vec())
                .config(WrapperConfig::full_auto())
                .build(),
        )
    });
    // Library/check shares: the measurement wrapper of §7.
    let (_, measured) = best(libc, workload, reps, || {
        Some(
            WrapperBuilder::new()
                .decls(decls.to_vec())
                .config(WrapperConfig {
                    measure: true,
                    ..WrapperConfig::full_auto()
                })
                .build(),
        )
    });
    let total = measured.total.as_secs_f64();
    // Wrapped-call latency percentiles: one extra run with the
    // telemetry gate on. Kept out of all three timing comparisons
    // above, which stay telemetry-off so the overhead columns (and the
    // regression gate on them) measure the shipping configuration.
    healers_trace::set_enabled(true);
    let traced = run_workload(
        libc,
        workload,
        Some(
            WrapperBuilder::new()
                .decls(decls.to_vec())
                .config(WrapperConfig::full_auto())
                .build(),
        ),
    );
    healers_trace::set_enabled(false);
    // Observability ablation: the identical compiled-plan replay with
    // the telemetry gate on, so each precheck also reads the clock and
    // records into the `wrapper_precheck_ns` histogram. The registry
    // counters themselves are unconditional and thus part of every
    // throughput number in this table.
    healers_trace::set_enabled(true);
    let metrics_on =
        replay_calls_per_sec(libc, decls, workload, ViolationAction::ReturnError, reps);
    healers_trace::set_enabled(false);
    Row {
        name: workload.name,
        calls_per_sec: replay_calls_per_sec(
            libc,
            decls,
            workload,
            ViolationAction::ReturnError,
            reps,
        ),
        calls_per_sec_metrics_on: metrics_on,
        // Repair-policy ablation: the identical compiled replay with
        // `--on-violation repair` semantics. The workloads are correct
        // programs, so nothing is actually repaired — this prices the
        // policy's pass-path cost, which must be indistinguishable
        // from reject mode (the repair machinery only runs after a
        // check has already failed).
        calls_per_sec_repair: replay_calls_per_sec(
            libc,
            decls,
            workload,
            ViolationAction::Repair,
            reps,
        ),
        workload_calls_per_sec: plain_stats.wrapped_calls as f64 / wrapped.as_secs_f64(),
        time_in_library: 100.0 * measured.time_in_library.as_secs_f64() / total,
        checking_overhead: 100.0 * measured.time_checking.as_secs_f64() / total,
        execution_overhead: 100.0 * (wrapped.as_secs_f64() - unwrapped.as_secs_f64())
            / unwrapped.as_secs_f64(),
        check_kinds: measured.check_kinds,
        format_checks: measured.check_outcomes.passed(CheckKind::Format)
            + measured.check_outcomes.failed(CheckKind::Format),
        lat_p50_ns: traced.latency_ns.percentile(50.0),
        lat_p99_ns: traced.latency_ns.percentile(99.0),
    }
}

fn json_for(rows: &[Row]) -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"calls_per_sec\": {:.0}, \
             \"calls_per_sec_metrics_on\": {:.0}, \
             \"calls_per_sec_repair\": {:.0}, \
             \"workload_calls_per_sec\": {:.0}, \
             \"time_in_library_pct\": {:.4}, \"checking_overhead_pct\": {:.4}, \
             \"execution_overhead_pct\": {:.4}, \"table_hits\": {}, \
             \"run_probes\": {}, \"nul_scans\": {}, \"bytes_scanned\": {}, \
             \"format_checks\": {}, \
             \"lat_p50_ns\": {}, \"lat_p99_ns\": {}}}{}\n",
            r.name,
            r.calls_per_sec,
            r.calls_per_sec_metrics_on,
            r.calls_per_sec_repair,
            r.workload_calls_per_sec,
            r.time_in_library,
            r.checking_overhead,
            r.execution_overhead,
            r.check_kinds.table_hits,
            r.check_kinds.run_probes,
            r.check_kinds.nul_scans,
            r.check_kinds.bytes_scanned,
            r.format_checks,
            r.lat_p50_ns,
            r.lat_p99_ns,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract `"<field>": <number>` for the named workload from a
/// `BENCH_checks.json` document (no JSON library available offline —
/// the emitter above keeps each workload on one line).
fn baseline_field(doc: &str, name: &str, field: &str) -> Option<f64> {
    let line = doc
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))?;
    let key = format!("\"{field}\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let path_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from)
    };
    let json_path = path_after("--json");
    let baseline_path = path_after("--baseline");
    let reps = if fast { 3 } else { 7 };

    let libc = Libc::standard();
    eprintln!("analyzing the 86 target functions…");
    let decls = analyze(&libc, &ballista_targets());

    let rows: Vec<Row> = workloads()
        .iter()
        .map(|w| {
            eprintln!(
                "measuring {} ({reps} reps × 3 configurations + 1 telemetry run + 3 trace replays)…",
                w.name
            );
            measure(&libc, &decls, w, reps)
        })
        .collect();

    println!("Table 2 — execution overhead of four utility workloads");
    println!("=======================================================");
    print!("{:<22}", "Applications");
    for r in &rows {
        print!("{:>12}", r.name);
    }
    println!();
    print!("{:<22}", "#wrapped func/sec");
    for r in &rows {
        print!("{:>12.0}", r.workload_calls_per_sec);
    }
    println!("   (paper: 3545 / 43 / 388998 / 378659)");
    print!("{:<22}", "hot-path checks/sec");
    for r in &rows {
        print!("{:>12.0}", r.calls_per_sec);
    }
    println!("   (trace replay, compiled plans)");
    print!("{:<22}", "  metrics-on");
    for r in &rows {
        print!("{:>12.0}", r.calls_per_sec_metrics_on);
    }
    println!("   (same replay, telemetry gate on)");
    print!("{:<22}", "  repair-mode");
    for r in &rows {
        print!("{:>12.0}", r.calls_per_sec_repair);
    }
    println!("   (same replay, --on-violation repair)");
    print!("{:<22}", "time in library");
    for r in &rows {
        print!("{:>11.2}%", r.time_in_library);
    }
    println!("   (paper: 1.05% / 0.01% / 10.20% / 7.96%)");
    print!("{:<22}", "checking overhead");
    for r in &rows {
        print!("{:>11.3}%", r.checking_overhead);
    }
    println!("   (paper: 0.16% / 0.0003% / 1.72% / 1.88%)");
    print!("{:<22}", "execution overhead");
    for r in &rows {
        print!("{:>11.2}%", r.execution_overhead);
    }
    println!("   (paper: 3.14% / 1.12% / 16.1% / 5.67%)");
    println!();
    println!("Check-kernel decomposition (measurement run):");
    print!("{:<22}", "table hits");
    for r in &rows {
        print!("{:>12}", r.check_kinds.table_hits);
    }
    println!();
    print!("{:<22}", "bulk run probes");
    for r in &rows {
        print!("{:>12}", r.check_kinds.run_probes);
    }
    println!();
    print!("{:<22}", "NUL scans");
    for r in &rows {
        print!("{:>12}", r.check_kinds.nul_scans);
    }
    println!();
    print!("{:<22}", "bytes scanned");
    for r in &rows {
        print!("{:>12}", r.check_kinds.bytes_scanned);
    }
    println!();
    print!("{:<22}", "format scans");
    for r in &rows {
        print!("{:>12}", r.format_checks);
    }
    println!();
    println!();
    println!("Wrapped-call latency (telemetry run, whole call incl. checks):");
    print!("{:<22}", "p50");
    for r in &rows {
        print!("{:>10}ns", r.lat_p50_ns);
    }
    println!();
    print!("{:<22}", "p99");
    for r in &rows {
        print!("{:>10}ns", r.lat_p99_ns);
    }
    println!();

    if let Some(path) = json_path {
        std::fs::write(&path, json_for(&rows)).expect("write BENCH_checks.json");
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = baseline_path {
        let doc = std::fs::read_to_string(&path).expect("read baseline");
        let gcc = rows.iter().find(|r| r.name == "gcc").expect("gcc workload");
        let base =
            baseline_field(&doc, "gcc", "checking_overhead_pct").expect("gcc row in baseline");
        let now = gcc.checking_overhead;
        eprintln!("gcc checking overhead: baseline {base:.3}% vs now {now:.3}%");
        if now > base * 1.1 {
            eprintln!("FAIL: gcc checking overhead regressed more than 10% vs baseline");
            std::process::exit(1);
        }
        // The hot-path throughput gate holds the always-compiled-in
        // metrics registry to its one-relaxed-add budget: if the
        // observability plane ever grows per-call work beyond that,
        // this trips before any profile does.
        let base_tp =
            baseline_field(&doc, "gcc", "calls_per_sec").expect("gcc calls_per_sec in baseline");
        let now_tp = gcc.calls_per_sec;
        eprintln!("gcc trace-replay throughput: baseline {base_tp:.0}/s vs now {now_tp:.0}/s");
        if now_tp < base_tp * 0.9 {
            eprintln!("FAIL: gcc trace-replay throughput regressed more than 10% vs baseline");
            std::process::exit(1);
        }
        // The repair policy and the format directive scan ride the same
        // hot path, so they answer to the same budget: repair-mode
        // replay throughput gets the identical 10% gate, and the
        // format scans must actually have run (a silently skipped
        // check family would otherwise look like a speedup).
        if gcc.format_checks == 0 {
            eprintln!("FAIL: gcc workload exercised no format checks");
            std::process::exit(1);
        }
        let base_rp = baseline_field(&doc, "gcc", "calls_per_sec_repair")
            .expect("gcc calls_per_sec_repair in baseline");
        let now_rp = gcc.calls_per_sec_repair;
        eprintln!(
            "gcc repair-mode replay throughput: baseline {base_rp:.0}/s vs now {now_rp:.0}/s"
        );
        if now_rp < base_rp * 0.9 {
            eprintln!(
                "FAIL: gcc repair-mode replay throughput regressed more than 10% vs baseline"
            );
            std::process::exit(1);
        }
        eprintln!("OK: within the 10% regression budget");
    }
}
