//! Pins the user-visible artifacts against the worker count: the
//! Table 1 declarations and the `healers report` body must not change
//! a byte between a serial and a parallel run. That the copy-on-write
//! containment is invisible, test by test, is `INV-CONTAIN-EXACT`
//! (`tests/containment_exact.rs`).

use healers::prelude::*;

/// A small, fast subset that still exercises crashes (strcpy),
/// stateful handle checks (closedir), and static-buffer writers
/// (asctime).
const SUBSET: [&str; 3] = ["strcpy", "asctime", "closedir"];
const CAP: usize = 40;

fn ballista() -> Ballista {
    Ballista::new().with_functions(&SUBSET).with_cap(CAP)
}

/// The deterministic body of `healers report`: the Figure 6 render
/// plus the wrapper/check counter lines, exactly as `cmd_report`
/// prints them (minus the seed header, which is jobs-free by
/// construction).
fn report_body(report: &BallistaReport, stats: &WrapperStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", report.render());
    let failing = report.functions_with_failures();
    if !failing.is_empty() {
        let _ = writeln!(out, "  still failing: {}", failing.join(", "));
    }
    let _ = writeln!(
        out,
        "wrapper: calls={} wrapped={} checks={} violations={} repairs={} cache-hits={}",
        stats.calls,
        stats.wrapped_calls,
        stats.checks,
        stats.violations,
        stats.repairs,
        stats.check_cache_hits
    );
    for (kind, passed, failed, repaired) in stats.check_outcomes.iter() {
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>8} {:>8}",
            kind.label(),
            passed,
            failed,
            repaired
        );
    }
    out
}

#[test]
fn table1_declarations_are_byte_identical_across_jobs() {
    let libc = Libc::standard();
    // Table 1 is read off the declarations; the serial injector path
    // and the campaign orchestrator (any --jobs) must emit the same
    // XML bytes under the CoW engine.
    let serial = decls_to_xml(&analyze(&libc, &SUBSET));
    for jobs in [1, 4] {
        let campaign = Campaign::new(&CampaignConfig {
            jobs,
            ..CampaignConfig::default()
        })
        .unwrap();
        let (decls, _metrics) = campaign.analyze(&libc, &SUBSET).unwrap();
        assert_eq!(
            serial,
            decls_to_xml(&decls),
            "declaration XML changed at --jobs {jobs}"
        );
    }
}

#[test]
fn report_body_is_byte_identical_at_any_jobs() {
    let libc = Libc::standard();
    let decls = analyze(&libc, &SUBSET);
    let mut bodies = Vec::new();
    for jobs in [1, 3] {
        let campaign = Campaign::new(&CampaignConfig {
            jobs,
            ..CampaignConfig::default()
        })
        .unwrap();
        let (report, _metrics, stats) =
            campaign.evaluate_traced(&libc, &ballista(), Mode::FullAuto, decls.clone());
        campaign.finish().unwrap();
        bodies.push((jobs, report_body(&report, &stats)));
    }
    let (_, reference) = &bodies[0];
    for (jobs, body) in &bodies {
        assert_eq!(body, reference, "report body changed at jobs={jobs}");
    }
}
