//! CLI contract tests: the usage listing enumerates every subcommand,
//! misuse exits with status 2, `healers report` output is
//! byte-identical across worker counts, `campaign --out` writes what
//! stdout would get, and `campaign --progress` reports on stderr only.

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn healers(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_healers"))
        .args(args)
        .output()
        .expect("spawn healers")
}

/// Every subcommand the binary dispatches. Adding a subcommand without
/// listing it here (and in `usage()`) fails the exact-set comparison
/// below, so the listing and this test cannot silently drift apart.
const SUBCOMMANDS: &[&str] = &[
    "analyze", "wrap", "campaign", "report", "explain", "extract", "bitflip", "fuzz", "serve",
    "tour", "help",
];

/// Parse the subcommand names out of the usage listing: on each
/// `healers …` line the subcommand is the first token after `healers`
/// that is not a bracketed global flag like `[--seed N]`.
fn listed_subcommands(stderr: &str) -> BTreeSet<String> {
    let mut subs = BTreeSet::new();
    for line in stderr.lines() {
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("healers") {
            continue;
        }
        // Bracketed flags like `[--seed N]` may span several tokens.
        let mut depth = 0i32;
        for token in tokens {
            if depth == 0 && !token.starts_with('[') {
                subs.insert(token.to_string());
                break;
            }
            depth += token.matches('[').count() as i32;
            depth -= token.matches(']').count() as i32;
        }
    }
    subs
}

#[test]
fn usage_lists_exactly_the_dispatched_subcommands() {
    let out = healers(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let listed = listed_subcommands(&stderr);
    let expected: BTreeSet<String> = SUBCOMMANDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        listed, expected,
        "usage() and the SUBCOMMANDS list disagree:\n{stderr}"
    );
}

#[test]
fn fuzz_subcommand_forms_are_all_listed() {
    // `fuzz` is the one subcommand with sub-subcommands; the listing
    // must name each form so `healers fuzz <form>` stays discoverable.
    let out = healers(&[]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    for form in ["fuzz run", "fuzz replay", "fuzz shrink"] {
        assert!(
            stderr.contains(form),
            "usage is missing `{form}`:\n{stderr}"
        );
    }
}

#[test]
fn serve_subcommand_forms_are_all_listed() {
    let out = healers(&[]);
    let stderr = String::from_utf8(out.stderr).unwrap();
    for form in ["serve daemon", "serve exec", "serve send", "serve stats"] {
        assert!(
            stderr.contains(form),
            "usage is missing `{form}`:\n{stderr}"
        );
    }
}

#[test]
fn unknown_subcommand_and_help_behave_identically() {
    let help = healers(&["help"]);
    let unknown = healers(&["frobnicate"]);
    assert_eq!(help.status.code(), Some(2));
    assert_eq!(unknown.status.code(), Some(2));
    assert_eq!(help.stderr, unknown.stderr, "both print the same listing");
    assert!(help.stdout.is_empty());
}

#[test]
fn unknown_flags_exit_2() {
    for args in [
        &["--frob", "analyze", "strlen"][..],
        &["report", "--frob"][..],
        &["campaign", "--trace"][..], // missing the path operand
        &["campaign", "--mode", "full", "--cap", "0", "strlen"][..],
        &["report", "--cap", "0"][..],
        &["extract", "--frob"][..],
        &["bitflip", "--frob"][..],
    ] {
        let out = healers(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn on_violation_misuse_exits_2_everywhere_it_is_accepted() {
    // Satellite contract: every subcommand that takes `--on-violation`
    // funnels the token through the same parser, so misuse is exit 2
    // with the same diagnostic wording regardless of subcommand.
    for args in [
        &["campaign", "--on-violation"][..], // missing operand
        &["campaign", "--on-violation", "panic"][..],
        &["wrap", "--on-violation", "heal"][..],
        &["campaign", "--on-violation", "Repair"][..], // tokens are lowercase
        &["report", "--on-violation", "none"][..],
        &["fuzz", "run", "--on-violation", "fix"][..],
        &[
            "fuzz",
            "shrink",
            "no-such-seed.txt",
            "--on-violation",
            "retry",
        ][..],
    ] {
        let out = healers(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        if args.len() > 2 {
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(
                stderr.contains("expected abort, error, or repair"),
                "args {args:?} stderr:\n{stderr}"
            );
        }
    }
}

#[test]
fn on_violation_repair_is_accepted_end_to_end() {
    let out = healers(&[
        "--seed",
        "7",
        "report",
        "--cap",
        "4",
        "--on-violation",
        "repair",
        "strcpy",
        "strlen",
    ]);
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("repairs="), "{text}");
}

#[test]
fn report_output_is_byte_identical_across_worker_counts() {
    let base = &["--seed", "7", "report", "--cap", "6", "strcpy", "strlen"];
    let one = healers(&[base as &[&str], &["--jobs", "1"]].concat());
    let four = healers(&[base as &[&str], &["--jobs", "4"]].concat());
    assert!(one.status.success() && four.status.success());
    assert!(!one.stdout.is_empty());
    assert_eq!(one.stdout, four.stdout);

    let text = String::from_utf8(one.stdout).unwrap();
    assert!(text.contains("healers report — Full-Auto Wrapped (seed 7)"));
    assert!(text.contains("checks by claim kind:"));
    assert!(text.contains("wrapper: calls="));
}

#[test]
fn explain_names_the_faulting_page_run_and_heap_block() {
    let out = healers(&["explain", "strcpy"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("robust type:"), "{text}");
    assert!(text.contains("rejected: would admit crashing"), "{text}");
    // The provenance line: a fault attributed to a page run …
    assert!(text.contains("fault at 0x"), "{text}");
    assert!(text.contains(" run 0x"), "{text}");
    // … and to the heap block whose guard page caught the overrun.
    assert!(text.contains("guard page after live block 0x"), "{text}");
    // The flight-recorder tail follows the provenance: the injection
    // campaign's resolved faults are events, so strcpy must appear.
    assert!(text.contains("flight recorder ("), "{text}");
    assert!(text.contains("fault-injected strcpy"), "{text}");
}

#[test]
fn campaign_out_writes_the_evaluation_to_the_file_not_stdout() {
    let path = std::env::temp_dir().join(format!("healers-cli-out-{}.txt", std::process::id()));
    let file = path.to_str().expect("UTF-8 temp path");
    let out = healers(&["campaign", "--mode", "all", "--jobs", "2", "--out", file]);
    assert!(out.status.success(), "{:?}", out);
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let written = std::fs::read_to_string(&path).expect("--out file written");
    let _ = std::fs::remove_file(&path);
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig6.reject.txt");
    assert_eq!(written, std::fs::read_to_string(golden).unwrap());
}

#[test]
fn campaign_progress_reports_on_stderr_and_leaves_stdout_alone() {
    let base = ["campaign", "--mode", "full", "--cap", "5"];
    let plain = healers(&[&base[..], &["strlen", "abs"]].concat());
    let watched = healers(&[&base[..], &["--progress", "strlen", "abs"]].concat());
    assert!(plain.status.success() && watched.status.success());
    assert!(!plain.stdout.is_empty());
    assert_eq!(plain.stdout, watched.stdout);
    let stderr = String::from_utf8(watched.stderr).unwrap();
    assert!(
        stderr.contains("progress final: analyzed 2/2 | evaluated 2"),
        "{stderr}"
    );
}
