//! INV-WORK-COUNTERS: the deterministic work the pipeline does is
//! pinned exactly, so a change that does more (or less) of it is seen
//! and reviewed rather than discovered as a slowdown.
//!
//! Three runs, each a pure function of the code:
//!
//! * **Snapshot containment**: the full-auto Figure 6 evaluation of
//!   eight containment-heavy functions at cap 120. Its copy-on-write
//!   counters are pinned, and so is the sharing property that makes
//!   containment cheap: a test copies at most one page per hundred it
//!   shares.
//! * **Table 2**: the check-kernel decomposition of the four utility
//!   workloads under the measurement wrapper (table hits, bulk run
//!   probes, NUL scans, bytes scanned, format scans).
//! * **Harden**: a cold analysis of the 86 Ballista targets and the
//!   three-configuration Figure 6 evaluation at two jobs: injected
//!   calls, adaptive retries, fuel, snapshots, pages shared and copied,
//!   tests and hangs. The same sharing property holds over it.
//!
//! The rendered counters are compared byte for byte with
//! `tests/golden/work_counters.txt` at the repository root. On a
//! mismatch the test prints the new text; a counter that moved on
//! purpose is updated by copying it into the golden file, with the
//! reason recorded in the change.

use std::fmt::Write as _;
use std::path::PathBuf;

use healers_ballista::{ballista_targets, Ballista, Mode};
use healers_bench::{run_workload, workloads};
use healers_campaign::{Campaign, CampaignConfig, CampaignMetrics};
use healers_core::checker::CheckKind;
use healers_core::{analyze, WrapperBuilder, WrapperConfig};
use healers_libc::Libc;
use healers_simproc::CowStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The containment-heavy subset: cheap, crash-prone calls where a
/// test's capture and rollback are most of its work.
const SNAPSHOT_FUNCTIONS: [&str; 8] = [
    "strcpy", "strcat", "strlen", "asctime", "mktime", "fgetc", "closedir", "gets",
];
const SNAPSHOT_CAP: usize = 120;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/work_counters.txt")
}

/// Copy-on-write counters of the subset's full-auto evaluation, one
/// `run_function_full` per function. Each function samples from its
/// own RNG seeded with the harness seed XOR the name's length.
fn snapshot_subset(libc: &Libc) -> String {
    let decls = analyze(libc, &SNAPSHOT_FUNCTIONS);
    let ballista = Ballista::new()
        .with_functions(&SNAPSHOT_FUNCTIONS)
        .with_cap(SNAPSHOT_CAP);
    let prepared = ballista.prepare_mode(libc, Mode::FullAuto, decls);
    let mut cow = CowStats::default();
    for name in SNAPSHOT_FUNCTIONS {
        let mut rng = StdRng::seed_from_u64(ballista.seed() ^ name.len() as u64);
        let run = ballista.run_function_full(libc, &prepared, name, &mut rng);
        cow.absorb(&run.cow);
    }
    assert!(
        cow.pages_copied * 100 <= cow.pages_shared,
        "the subset copied {} pages for {} shared",
        cow.pages_copied,
        cow.pages_shared
    );
    let mut out = format!(
        "[snapshot] full-auto, cap {SNAPSHOT_CAP}: {}\n",
        SNAPSHOT_FUNCTIONS.join(" ")
    );
    for (key, value) in [
        ("snapshots", cow.snapshots),
        ("pages_shared", cow.pages_shared),
        ("pages_copied", cow.pages_copied),
        ("table_entries_copied", cow.table_entries_copied),
    ] {
        let _ = writeln!(out, "{key} {value}");
    }
    out
}

/// Table 2's check-kernel decomposition rows, one workload per line.
fn table2(libc: &Libc) -> String {
    let decls = analyze(libc, &ballista_targets());
    let rows: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = workloads()
            .into_iter()
            .map(|workload| {
                let decls = decls.clone();
                s.spawn(move || {
                    let wrapper = WrapperBuilder::new()
                        .decls(decls)
                        .config(WrapperConfig {
                            measure: true,
                            ..WrapperConfig::full_auto()
                        })
                        .build();
                    let stats = run_workload(libc, &workload, Some(wrapper));
                    let kinds = stats.check_kinds;
                    let outcomes = stats.check_outcomes;
                    let format_scans =
                        outcomes.passed(CheckKind::Format) + outcomes.failed(CheckKind::Format);
                    format!(
                        "{} {} {} {} {} {}",
                        workload.name,
                        kinds.table_hits,
                        kinds.run_probes,
                        kinds.nul_scans,
                        kinds.bytes_scanned,
                        format_scans
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = String::from(
        "[table2] check kernels, measurement run\n\
         workload table_hits run_probes nul_scans bytes_scanned format_scans\n",
    );
    for row in rows {
        let _ = writeln!(out, "{row}");
    }
    out
}

/// The harden pipeline's counters: cold analysis, then Figure 6.
fn harden(libc: &Libc) -> String {
    let targets = ballista_targets();
    let campaign = Campaign::new(&CampaignConfig {
        jobs: 2,
        ..CampaignConfig::default()
    })
    .unwrap();
    let ballista = Ballista::new().with_functions(&targets);
    let (decls, mut metrics) = campaign.analyze(libc, &targets).unwrap();
    let (mut tests, mut hangs) = (0, 0);
    for mode in Mode::ALL {
        let (report, evaluated) = campaign.evaluate(libc, &ballista, mode, decls.clone());
        metrics.absorb(&evaluated);
        tests += report.totals().tests;
        hangs += report.totals().hangs;
    }
    campaign.finish().unwrap();
    let CampaignMetrics {
        injected_calls,
        adaptive_retries,
        fuel_used,
        evaluation_tests,
        snapshots,
        pages_shared,
        pages_copied,
        ..
    } = metrics;
    assert_eq!(evaluation_tests, tests as u64);
    assert!(
        pages_copied * 100 <= pages_shared,
        "the pipeline copied {pages_copied} pages for {pages_shared} shared"
    );
    let mut out = String::from("[harden] cold analysis of the 86 targets, Figure 6 at 2 jobs\n");
    for (key, value) in [
        ("injected_calls", injected_calls),
        ("adaptive_retries", adaptive_retries),
        ("fuel_used", fuel_used),
        ("snapshots", snapshots),
        ("pages_shared", pages_shared),
        ("pages_copied", pages_copied),
        ("ballista_tests", tests as u64),
        ("ballista_hangs", hangs as u64),
    ] {
        let _ = writeln!(out, "{key} {value}");
    }
    out
}

#[test]
fn work_counters_match_the_golden() {
    let libc = Libc::standard();
    let (snapshot, table2, harden) = std::thread::scope(|s| {
        let snapshot = s.spawn(|| snapshot_subset(&libc));
        let table2 = s.spawn(|| table2(&libc));
        let harden = harden(&libc);
        (snapshot.join().unwrap(), table2.join().unwrap(), harden)
    });
    let got = format!("{snapshot}\n{table2}\n{harden}");
    let path = golden_path();
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if got != want {
        panic!(
            "work counters differ from {}; the new text is:\n{got}",
            path.display()
        );
    }
}
