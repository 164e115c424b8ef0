//! INV-DET-JOBS: the paper artifacts the CLI regenerates are pinned
//! byte for byte against committed goldens under `tests/golden/`, at
//! every worker count each one is run with.
//!
//! | Golden | Command |
//! |---|---|
//! | `fig6.reject.txt` | `healers campaign --mode all --jobs {1,4}` |
//! | `fig6.repair.txt` | `healers campaign --mode all --on-violation repair --jobs {1,4}` |
//! | `table1.txt` | `healers campaign --mode table1 --jobs {1,4}` |
//! | `report.repair.txt` | `healers --seed 42 report --on-violation repair --jobs {1,4}` |
//! | `section3.txt` | `healers extract` |
//! | `bitflip.txt` | `healers bitflip` |
//! | `fuzz.seed1.txt`, `fuzz.seed1.journal.jsonl` | `healers fuzz run --seed 1 --budget 300 --jobs {1,4}` |
//! | `fuzz.seed7.threads.txt`, `fuzz.seed7.threads.journal.jsonl` | `healers fuzz run --seed 7 --threads --budget 300 --jobs {1,4} malloc free strlen strcpy` |
//!
//! The fuzz rows pin both the stdout summary and the `--journal` file.
//! Comparing with committed bytes (rather than one run with another)
//! also catches a change that moves an artifact at every worker count
//! at once. On a mismatch the test prints the new text; an artifact
//! that moved on purpose is updated by copying it into the golden file,
//! with the reason recorded in the change.

use std::path::PathBuf;
use std::process::Command;

const JOBS: [&str; 2] = ["1", "4"];

/// Run `healers args` and compare its stdout with `tests/golden/<golden>`.
fn assert_golden(golden: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_healers"))
        .args(args)
        .output()
        .expect("spawn healers");
    assert!(
        out.status.success(),
        "healers {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    compare_with_golden(golden, args, &got);
}

/// Compare `got` (produced by `healers args`) with `tests/golden/<golden>`.
fn compare_with_golden(golden: &str, args: &[&str], got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    if got != want {
        panic!(
            "healers {args:?} differs from {}; the new text is:\n{got}",
            path.display()
        );
    }
}

/// Run `healers fuzz run --budget 300 --jobs {1,4} --journal F` with
/// `args` spliced in, and compare stdout with `tests/golden/<stem>.txt`
/// and the journal with `tests/golden/<stem>.journal.jsonl`.
fn assert_fuzz_goldens(stem: &str, args: &[&str]) {
    for jobs in JOBS {
        let journal = std::env::temp_dir().join(format!(
            "healers-golden-{stem}-{jobs}-{}.jsonl",
            std::process::id()
        ));
        let journal_arg = journal.to_str().expect("UTF-8 temp path");
        let mut full = vec!["fuzz", "run", "--budget", "300", "--jobs", jobs];
        full.extend(["--journal", journal_arg]);
        full.extend_from_slice(args);
        assert_golden(&format!("{stem}.txt"), &full);
        let got = std::fs::read_to_string(&journal).expect("read the journal");
        let _ = std::fs::remove_file(&journal);
        compare_with_golden(&format!("{stem}.journal.jsonl"), &full, &got);
    }
}

#[test]
fn figure6_reject_matches_the_golden_at_every_jobs_count() {
    for jobs in JOBS {
        assert_golden(
            "fig6.reject.txt",
            &["campaign", "--mode", "all", "--jobs", jobs],
        );
    }
}

#[test]
fn figure6_repair_matches_the_golden_at_every_jobs_count() {
    for jobs in JOBS {
        assert_golden(
            "fig6.repair.txt",
            &[
                "campaign",
                "--mode",
                "all",
                "--on-violation",
                "repair",
                "--jobs",
                jobs,
            ],
        );
    }
}

#[test]
fn table1_matches_the_golden_at_every_jobs_count() {
    for jobs in JOBS {
        assert_golden(
            "table1.txt",
            &["campaign", "--mode", "table1", "--jobs", jobs],
        );
    }
}

#[test]
fn repair_report_matches_the_golden_at_every_jobs_count() {
    for jobs in JOBS {
        assert_golden(
            "report.repair.txt",
            &[
                "--seed",
                "42",
                "report",
                "--on-violation",
                "repair",
                "--jobs",
                jobs,
            ],
        );
    }
}

#[test]
fn section3_statistics_match_the_golden() {
    assert_golden("section3.txt", &["extract"]);
}

#[test]
fn bitflip_study_matches_the_golden() {
    assert_golden("bitflip.txt", &["bitflip"]);
}

#[test]
fn fuzz_run_matches_the_golden_at_every_jobs_count() {
    assert_fuzz_goldens("fuzz.seed1", &["--seed", "1"]);
}

#[test]
fn threaded_fuzz_run_matches_the_golden_at_every_jobs_count() {
    assert_fuzz_goldens(
        "fuzz.seed7.threads",
        &[
            "--seed",
            "7",
            "--threads",
            "malloc",
            "free",
            "strlen",
            "strcpy",
        ],
    );
}
