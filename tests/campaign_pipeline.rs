//! End-to-end campaign orchestrator acceptance: worker-count
//! invariance, persistent-cache round trips, and the event journal.

use std::fs;
use std::path::PathBuf;

use healers::ballista::{derive_seed, Ballista, BallistaReport, Mode};
use healers::campaign::{json, Campaign, CampaignConfig};
use healers::core::{analyze, decls_to_xml, FunctionDecl};
use healers::libc::Libc;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FUNCS: &[&str] = &["asctime", "strcpy", "strlen", "abs", "fclose", "isatty"];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("healers-campaign-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn campaign_output_is_byte_identical_to_the_serial_pipeline() {
    let libc = Libc::standard();
    let serial = decls_to_xml(&analyze(&libc, FUNCS));
    for jobs in [1, 8] {
        let campaign = Campaign::new(&CampaignConfig {
            jobs,
            ..CampaignConfig::default()
        })
        .unwrap();
        let (decls, _) = campaign.analyze(&libc, FUNCS).unwrap();
        assert_eq!(decls_to_xml(&decls), serial, "jobs={jobs}");
        campaign.finish().unwrap();
    }
}

#[test]
fn evaluation_reports_are_worker_count_invariant() {
    let libc = Libc::standard();
    let names = ["strcpy", "strlen", "abs", "fgetc"];
    let ballista = Ballista::new()
        .with_functions(&names)
        .with_cap(60)
        .with_seed(42);
    let run = |jobs: usize| {
        let campaign = Campaign::new(&CampaignConfig {
            jobs,
            ..CampaignConfig::default()
        })
        .unwrap();
        let decls = analyze(&libc, &names);
        let mut renders = Vec::new();
        for mode in [Mode::Unwrapped, Mode::FullAuto, Mode::SemiAuto] {
            let (report, _) = campaign.evaluate(&libc, &ballista, mode, decls.clone());
            renders.push(report.render());
        }
        campaign.finish().unwrap();
        renders
    };
    assert_eq!(run(1), run(8));
}

/// The differential oracle for the campaign's evaluation: a plain
/// serial loop over the functions, each sampling from its own
/// [`derive_seed`] RNG through `run_function_full`.
fn serial_report(
    ballista: &Ballista,
    libc: &Libc,
    mode: Mode,
    decls: Vec<FunctionDecl>,
) -> BallistaReport {
    let prepared = ballista.prepare_mode(libc, mode, decls);
    let mut report = BallistaReport::new(prepared.label());
    for name in ballista.functions() {
        let mut rng = StdRng::seed_from_u64(derive_seed(ballista.seed(), name));
        for class in ballista
            .run_function_full(libc, &prepared, name, &mut rng)
            .classes
        {
            report.record(name, class);
        }
    }
    report
}

#[test]
fn serial_runner_matches_campaign_evaluation_exactly() {
    // A serial loop deriving per-function seeds exactly like the
    // orchestrator gives reports byte-identical to a campaign
    // evaluation at any worker count — not merely a different
    // deterministic sample.
    let libc = Libc::standard();
    let names = ["strcpy", "strlen", "abs", "fgetc", "closedir"];
    let ballista = Ballista::new()
        .with_functions(&names)
        .with_cap(60)
        .with_seed(7);
    let decls = analyze(&libc, &names);
    for mode in [Mode::Unwrapped, Mode::FullAuto, Mode::SemiAuto] {
        let serial = serial_report(&ballista, &libc, mode, decls.clone()).render();
        for jobs in [1, 8] {
            let campaign = Campaign::new(&CampaignConfig {
                jobs,
                ..CampaignConfig::default()
            })
            .unwrap();
            let (report, _) = campaign.evaluate(&libc, &ballista, mode, decls.clone());
            assert_eq!(report.render(), serial, "mode={mode:?} jobs={jobs}");
            campaign.finish().unwrap();
        }
    }
}

#[test]
fn warm_cache_skips_injection_and_journals_it() {
    let dir = scratch("warm");
    let cache_dir = dir.join("cache");
    let config = |journal: &str| CampaignConfig {
        jobs: 4,
        cache_dir: Some(cache_dir.clone()),
        journal_path: Some(dir.join(journal)),
        trace_path: None,
    };
    let libc = Libc::standard();

    let cold = Campaign::new(&config("cold.jsonl")).unwrap();
    let (cold_decls, cold_metrics) = cold.analyze(&libc, FUNCS).unwrap();
    assert!(cold_metrics.injected_calls > 0);
    assert_eq!(cold_metrics.cache_misses, FUNCS.len() as u64);
    assert!(cold.finish().unwrap() > 0);

    let warm = Campaign::new(&config("warm.jsonl")).unwrap();
    let (warm_decls, warm_metrics) = warm.analyze(&libc, FUNCS).unwrap();
    assert_eq!(warm_metrics.injected_calls, 0, "warm cache must not inject");
    assert_eq!(warm_metrics.cache_hits, FUNCS.len() as u64);
    assert_eq!(
        decls_to_xml(&warm_decls),
        decls_to_xml(&cold_decls),
        "cache round-trip must be byte-identical"
    );
    warm.finish().unwrap();

    // Every journal line is valid JSON; the warm journal records one
    // cached event per function and no classifications.
    for (name, expect_cached) in [("cold.jsonl", 0), ("warm.jsonl", FUNCS.len())] {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        let mut cached = 0;
        for (i, line) in text.lines().enumerate() {
            json::validate(line).unwrap_or_else(|e| panic!("{name} line {i}: {e}\n{line}"));
            assert!(line.contains(&format!("\"seq\":{i}")), "{name} line {i}");
            if line.contains("\"event\":\"cached\"") {
                cached += 1;
            }
        }
        assert_eq!(cached, expect_cached, "{name}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_export_is_valid_chrome_json_covering_the_whole_run() {
    let dir = scratch("trace");
    let trace_path = dir.join("campaign.trace.json");
    let libc = Libc::standard();
    let ballista = Ballista::new()
        .with_functions(&["strcpy", "strlen", "abs"])
        .with_cap(20)
        .with_seed(11);
    let campaign = Campaign::new(&CampaignConfig {
        jobs: 4,
        trace_path: Some(trace_path.clone()),
        ..CampaignConfig::default()
    })
    .unwrap();
    let (decls, _) = campaign
        .analyze(&libc, &["strcpy", "strlen", "abs"])
        .unwrap();
    let _ = campaign.evaluate(&libc, &ballista, Mode::FullAuto, decls);
    campaign.finish().unwrap();

    let text = fs::read_to_string(&trace_path).unwrap();
    json::validate(text.trim()).unwrap();
    assert!(text.starts_with("{\"traceEvents\":["));
    // Injection spans from the analyze phase, evaluation spans from the
    // evaluate phase, and the two scheduler counter tracks.
    for needle in [
        "\"name\":\"inject:strcpy\",\"ph\":\"X\"",
        "\"name\":\"eval:Full-Auto Wrapped:strlen\",\"ph\":\"X\"",
        "\"name\":\"workers\",\"ph\":\"C\"",
        "\"name\":\"pending\",\"ph\":\"C\"",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_counters_are_worker_count_invariant() {
    // The deterministic half of WrapperStats — everything `healers
    // report` prints by default — must not depend on `--jobs`. (The
    // latency histograms are empty here: the telemetry gate is off.)
    let libc = Libc::standard();
    let names = ["strcpy", "strlen", "fclose"];
    let ballista = Ballista::new()
        .with_functions(&names)
        .with_cap(20)
        .with_seed(42);
    let decls = analyze(&libc, &names);
    let run = |jobs: usize| {
        let campaign = Campaign::new(&CampaignConfig {
            jobs,
            ..CampaignConfig::default()
        })
        .unwrap();
        let (report, _, stats) =
            campaign.evaluate_traced(&libc, &ballista, Mode::FullAuto, decls.clone());
        campaign.finish().unwrap();
        (report.render(), stats)
    };
    let (render1, stats1) = run(1);
    let (render4, stats4) = run(4);
    assert_eq!(render1, render4);
    assert_eq!(stats1.calls, stats4.calls);
    assert_eq!(stats1.wrapped_calls, stats4.wrapped_calls);
    assert_eq!(stats1.checks, stats4.checks);
    assert_eq!(stats1.violations, stats4.violations);
    assert_eq!(stats1.check_cache_hits, stats4.check_cache_hits);
    assert_eq!(stats1.check_outcomes, stats4.check_outcomes);
    assert!(stats1.calls > 0);
    assert!(
        stats1.per_function.is_empty() && stats4.per_function.is_empty(),
        "latency telemetry must stay off without the gate"
    );
}

#[test]
fn journal_drop_flushes_and_post_shutdown_sends_are_harmless() {
    // Regression: a campaign that is dropped without finish() must not
    // lose journal lines, and a worker still holding a sender after
    // shutdown must not panic the process.
    let dir = scratch("hardening");
    let journal_path = dir.join("dropped.jsonl");
    let libc = Libc::standard();
    let late_sender;
    {
        let campaign = Campaign::new(&CampaignConfig {
            jobs: 2,
            journal_path: Some(journal_path.clone()),
            ..CampaignConfig::default()
        })
        .unwrap();
        let (_, metrics) = campaign.analyze(&libc, &["abs", "strlen"]).unwrap();
        assert_eq!(metrics.functions, 2);
        late_sender = campaign.journal_sender();
        // No finish(): Drop must flush the sink and join the drainer.
    }
    let text = fs::read_to_string(&journal_path).unwrap();
    for kind in ["\"event\":\"started\"", "\"event\":\"classified\""] {
        let n = text.lines().filter(|l| l.contains(kind)).count();
        assert_eq!(n, 2, "one {kind} per function:\n{text}");
    }
    for line in text.lines() {
        json::validate(line).unwrap();
    }
    // The campaign (and its drainer) are gone; emitting is a no-op.
    late_sender.emit(healers::campaign::CampaignEvent::Started {
        function: "ghost".into(),
    });
    assert_eq!(fs::read_to_string(&journal_path).unwrap(), text);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_new_seed_invalidates_nothing_but_a_changed_signature_does() {
    // The fingerprint covers the injector signature; the same functions
    // re-analyzed with identical settings always hit.
    let dir = scratch("stability");
    let config = CampaignConfig {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        journal_path: None,
        trace_path: None,
    };
    let libc = Libc::standard();
    for expected_hits in [0, 2] {
        let campaign = Campaign::new(&config).unwrap();
        let (_, metrics) = campaign.analyze(&libc, &["abs", "strlen"]).unwrap();
        assert_eq!(metrics.cache_hits, expected_hits);
        campaign.finish().unwrap();
    }
    // Entries are named <function>.<fingerprint>.xml.
    let mut names: Vec<String> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2);
    assert!(names[0].starts_with("abs.") && names[0].ends_with(".xml"));
    assert!(names[1].starts_with("strlen.") && names[1].ends_with(".xml"));
    fs::remove_dir_all(&dir).unwrap();
}
