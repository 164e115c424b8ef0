//! Benchmarks the copy-on-write containment engine against the
//! deep-clone reference it replaced.
//!
//! Every Ballista test runs the call in a contained child image; before
//! the CoW engine each test paid a full deep copy of the world. This
//! harness times the same Figure 6 evaluation under both mechanisms and
//! reports the speedup plus the CoW page counters (how many pages were
//! reference-shared rather than copied, how many private copies
//! actually faulted in — the pages a rollback then discards — and how
//! many page-table entries diverging children copied).
//!
//! Flags:
//!
//! * `--fast` — smaller function subset, lower cap, 3 reps (CI perf
//!   smoke);
//! * `--json PATH` — emit the measurements as `BENCH_snapshot.json`;
//! * `--baseline PATH` — compare against a committed
//!   `BENCH_snapshot.json` and exit non-zero if the CoW evaluation
//!   copied more than 20 % more pages or page-table entries, or if the
//!   CoW-vs-deep speedup fell below 2×.

use std::time::{Duration, Instant};

use healers_ballista::{Ballista, Mode};
use healers_core::{analyze, FunctionDecl};
use healers_libc::Libc;
use healers_simproc::{Containment, CowStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Measurement {
    cow: Duration,
    deep: Duration,
    counters: CowStats,
}

fn evaluation_time(
    libc: &Libc,
    ballista: &Ballista,
    decls: &[FunctionDecl],
    reps: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let report = ballista.run_with_decls(libc, Mode::FullAuto, decls.to_vec());
        let elapsed = start.elapsed();
        assert!(report.totals().tests > 0, "evaluation ran no tests");
        best = best.min(elapsed);
    }
    best
}

fn measure(libc: &Libc, functions: &[&str], cap: usize, reps: usize) -> Measurement {
    let decls = analyze(libc, functions);
    let cow_ballista = Ballista::new()
        .with_functions(functions)
        .with_cap(cap)
        .with_containment(Containment::Cow);
    let deep_ballista = Ballista::new()
        .with_functions(functions)
        .with_cap(cap)
        .with_containment(Containment::DeepClone);

    eprintln!("timing CoW containment ({reps} reps, best-of)…");
    let cow = evaluation_time(libc, &cow_ballista, &decls, reps);
    eprintln!("timing deep-clone containment ({reps} reps, best-of)…");
    let deep = evaluation_time(libc, &deep_ballista, &decls, reps);

    // Page counters for the CoW run: one pass through the per-function
    // API, which reports the containment telemetry the timing loop
    // discards.
    let prepared = cow_ballista.prepare_mode(libc, Mode::FullAuto, decls);
    let mut counters = CowStats::default();
    for name in functions {
        let mut rng = StdRng::seed_from_u64(cow_ballista.seed() ^ name.len() as u64);
        let run = cow_ballista.run_function_full(libc, &prepared, name, &mut rng);
        counters.absorb(&run.cow);
    }
    Measurement {
        cow,
        deep,
        counters,
    }
}

fn json_for(m: &Measurement) -> String {
    let speedup = m.deep.as_secs_f64() / m.cow.as_secs_f64();
    format!(
        "{{\n  \"snapshot\": {{\"cow_ms\": {:.3}, \"deep_clone_ms\": {:.3}, \
         \"speedup\": {:.2}, \"snapshots\": {}, \"pages_shared\": {}, \
         \"pages_copied\": {}, \"pages_restored\": {}, \"table_entries_copied\": {}}}\n}}\n",
        m.cow.as_secs_f64() * 1e3,
        m.deep.as_secs_f64() * 1e3,
        speedup,
        m.counters.snapshots,
        m.counters.pages_shared,
        m.counters.pages_copied,
        // Run-and-discard containment: rollback frees exactly the
        // private copies the child faulted in.
        m.counters.pages_copied,
        m.counters.table_entries_copied,
    )
}

/// Extract a `"key": <number>` field from the one-line snapshot object
/// of a committed `BENCH_snapshot.json` (no JSON library offline).
fn baseline_field(doc: &str, key: &str) -> Option<f64> {
    let line = doc.lines().find(|l| l.contains("\"cow_ms\""))?;
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
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

    let libc = Libc::standard();
    // The measured subset is containment-dominated on purpose: cheap,
    // crash-prone calls where the per-test capture/rollback cost is the
    // bulk of the work. Fuel-burning functions (hang detection) would
    // only dilute the mechanism under test. The full-suite containment
    // telemetry is still visible in `healers report` and the campaign
    // metrics line.
    let functions: Vec<&str> = vec![
        "strcpy", "strcat", "strlen", "asctime", "mktime", "fgetc", "closedir", "gets",
    ];
    let (cap, reps) = if fast { (120, 3) } else { (120, 7) };
    eprintln!(
        "snapshot containment benchmark: {} functions, cap {cap}",
        functions.len()
    );

    let m = measure(&libc, &functions, cap, reps);
    let speedup = m.deep.as_secs_f64() / m.cow.as_secs_f64();

    println!("Snapshot containment — CoW engine vs deep-clone reference");
    println!("==========================================================");
    println!(
        "  cow evaluation        {:>10.3} ms",
        m.cow.as_secs_f64() * 1e3
    );
    println!(
        "  deep-clone evaluation {:>10.3} ms",
        m.deep.as_secs_f64() * 1e3
    );
    println!("  speedup               {speedup:>10.2}×");
    println!("  snapshots             {:>10}", m.counters.snapshots);
    println!("  pages shared          {:>10}", m.counters.pages_shared);
    println!("  pages copied          {:>10}", m.counters.pages_copied);
    println!("  pages restored        {:>10}", m.counters.pages_copied);
    println!(
        "  table entries copied  {:>10}",
        m.counters.table_entries_copied
    );

    if let Some(path) = json_path {
        std::fs::write(&path, json_for(&m)).expect("write json");
        eprintln!("wrote {}", path.display());
    }

    if let Some(path) = baseline_path {
        let doc = std::fs::read_to_string(&path).expect("read baseline");
        // The regression gates read *deterministic* counters, not a
        // wall clock: the engine's cost is the private pages and the
        // page-table entries it copies, and both counts are a pure
        // function of the seed. A >20 % rise in pages means someone
        // broke page sharing (every extra copy is also an extra page
        // for rollback to discard); in table entries, that a diverging
        // child copies more of the table than the chunks it touches.
        // Wall clock only backs the coarse floor below — the ratio is
        // noisy at smoke scale.
        let mut failed = false;
        for (key, current) in [
            ("pages_copied", m.counters.pages_copied),
            ("table_entries_copied", m.counters.table_entries_copied),
        ] {
            let base =
                baseline_field(&doc, key).unwrap_or_else(|| panic!("baseline has no {key} field"));
            let current = current as f64;
            let rel = (current - base) / base;
            eprintln!(
                "baseline {key} {base:.0}, current {current:.0} ({:+.1} %)",
                rel * 100.0
            );
            if rel > 0.20 {
                eprintln!("FAIL: CoW {key} regressed more than 20 % vs baseline");
                failed = true;
            }
        }
        if speedup < 2.0 {
            eprintln!("FAIL: CoW speedup fell below 2× vs deep clone");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("OK: page and table-entry copies within 20 % of baseline, speedup ≥ 2×");
    }
}
