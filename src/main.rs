//! `healers` — the command-line front end to the HEALERS pipeline.
//!
//! ```text
//! healers [--seed N] analyze <function>...   print generated declarations (Figure 2 XML)
//! healers [--seed N] wrap [--out FILE] [--on-violation M]  emit the C wrapper library for all 86 targets
//! healers [--seed N] campaign [--jobs N] [--cache DIR] [--journal FILE] [--trace FILE]
//!                             [--mode M] [--cap N] [--out FILE] [--progress] [<function>...]
//!                                            declarations, Table 1 or the Figure 6 evaluation
//! healers [--seed N] report [--mode M] [--cap N] [--jobs N] [--json] [--timings]
//!                           [<function>...]  deterministic telemetry report of one evaluation
//! healers [--seed N] fuzz run [--budget N] [--jobs N] [--max-len N] [--mode full|semi] [--threads]
//!                             [--journal FILE] [--trace FILE] [--pins DIR] [<function>...]
//!                                            coverage-guided API-sequence fuzzing
//! healers fuzz replay [--flight-dump FILE] <file>...
//!                                            replay pinned regression tests
//! healers fuzz shrink <file> [--out FILE]    shrink a seed file's first finding
//! healers explain <function>...              replay a declaration's lattice walk with
//!                                            per-case fault provenance
//! healers serve daemon --socket PATH [--workers N] [--queue N] [--cache DIR] [--repair-hints] [<function>...]
//!                                            long-lived hardening-as-a-service daemon
//! healers serve exec --script FILE [--workers N] [--raw-out FILE] [--cache DIR] [--repair-hints] [<function>...]
//!                                            replay a request script against an in-process daemon
//! healers serve send --socket PATH --script FILE [--raw-out FILE]
//!                                            replay a request script against a running daemon
//! healers serve stats --socket PATH [--prom | --deterministic] [--timings] [--watch]
//!                                            scrape a running daemon's live stats
//! healers extract                            run the §3 prototype-extraction statistics
//! healers bitflip                            run the bit-flip robustness study
//! healers tour <function>...                 show discovered robust argument types
//! healers help                               this listing
//! ```
//!
//! Every subcommand returns `Result<(), healers::Error>`; [`main`] is
//! the single place errors become process exit codes (usage errors
//! exit 2, runtime failures exit 1). Mode strings are parsed once,
//! through [`Mode`]'s `FromStr`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use healers::ballista::{ballista_targets, run_bitflip, Ballista, Mode};
use healers::campaign::json::JsonObject;
use healers::campaign::{Campaign, CampaignConfig, Journal};
use healers::core::{
    analyze, decls_to_xml, emit_checks_header, emit_wrapper_source_as, ViolationAction,
    WrapperBuilder, WrapperConfig, WrapperStats,
};
use healers::corpus::generate::CorpusConfig;
use healers::corpus::pipeline::{recover_all, RecoverySource};
use healers::fuzz::{FuzzConfig, FuzzEvent, Pin, PinMode};
use healers::inject::{ErrCodeClass, FaultInjector};
use healers::libc::Libc;
use healers::typesys::{robust_type_traced, SelectionCriterion};
use healers::Error;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  healers [--seed N] analyze <function>...\n  \
         healers [--seed N] wrap [--out FILE] [--on-violation abort|error|repair]\n  \
         healers [--seed N] campaign [--jobs N] [--cache DIR] [--journal FILE]\n  \
         \x20                        [--trace FILE] [--mode decls|table1|unwrapped|full|semi|all]\n  \
         \x20                        [--cap N] [--out FILE] [--progress]\n  \
         \x20                        [--on-violation abort|error|repair] [<function>...]\n  \
         healers [--seed N] report [--mode unwrapped|full|semi] [--cap N] [--jobs N]\n  \
         \x20                      [--json] [--timings]\n  \
         \x20                      [--on-violation abort|error|repair] [<function>...]\n  \
         healers [--seed N] fuzz run [--budget N] [--jobs N] [--max-len N]\n  \
         \x20                        [--mode full|semi] [--threads] [--journal FILE]\n  \
         \x20                        [--trace FILE] [--pins DIR]\n  \
         \x20                        [--on-violation abort|error|repair] [<function>...]\n  \
         healers fuzz replay [--flight-dump FILE] <file>...\n  \
         healers fuzz shrink <file> [--out FILE] [--mode full|semi]\n  \
         \x20                [--on-violation abort|error|repair]\n  \
         healers explain <function>...\n  \
         healers serve daemon --socket PATH [--workers N] [--queue N] [--cache DIR] [--repair-hints] [<function>...]\n  \
         healers serve exec --script FILE [--workers N] [--raw-out FILE] [--cache DIR] [--repair-hints] [<function>...]\n  \
         healers serve send --socket PATH --script FILE [--raw-out FILE]\n  \
         healers serve stats --socket PATH [--prom | --deterministic] [--timings] [--watch]\n  \
         healers extract\n  \
         healers bitflip\n  \
         healers tour <function>...\n  \
         healers help"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage) => usage(),
        Err(err) => {
            eprintln!("{err}");
            ExitCode::from(err.exit_code())
        }
    }
}

fn run() -> Result<(), Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Global flags precede the subcommand.
    let mut seed: Option<u64> = None;
    while args.first().is_some_and(|a| a.starts_with("--")) {
        match args[0].as_str() {
            "--seed" => {
                let value = args
                    .get(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or(Error::Usage)?;
                seed = Some(value);
                args.drain(..2);
            }
            _ => return Err(Error::Usage),
        }
    }

    let command = args.first().ok_or(Error::Usage)?;
    match command.as_str() {
        "analyze" => cmd_analyze(&args[1..]),
        "wrap" => cmd_wrap(&args[1..]),
        "campaign" => cmd_campaign(&args[1..], seed),
        "report" => cmd_report(&args[1..], seed),
        "fuzz" => cmd_fuzz(&args[1..], seed),
        "explain" => cmd_explain(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "extract" => cmd_extract(&args[1..]),
        "bitflip" => cmd_bitflip(&args[1..]),
        "tour" => cmd_tour(&args[1..]),
        _ => Err(Error::Usage), // includes `help`: print the listing, exit 2
    }
}

/// Parse a `--mode` token into the list of modes to run: `all`
/// expands to every mode in Figure 6 order, anything else must be a
/// single [`Mode`] token.
fn parse_modes(command: &'static str, token: &str) -> Result<Vec<Mode>, Error> {
    if token == "all" {
        return Ok(Mode::ALL.to_vec());
    }
    token
        .parse::<Mode>()
        .map(|m| vec![m])
        .map_err(|e| Error::BadArgument(format!("{command}: {e}")))
}

/// Parse an `--on-violation` token into a [`ViolationAction`]. Every
/// subcommand that takes the flag funnels through here so the token
/// set and the error message stay identical across the CLI.
fn parse_action(command: &'static str, token: &str) -> Result<ViolationAction, Error> {
    token
        .parse::<ViolationAction>()
        .map_err(|e| Error::BadArgument(format!("{command}: {e}")))
}

/// Reject any function name the library does not export, with the
/// historic `cmd: name is not exported by the library` message.
fn require_exported(command: &'static str, libc: &Libc, names: &[String]) -> Result<(), Error> {
    for f in names {
        if libc.get(f).is_none() {
            return Err(Error::NotExported {
                command,
                function: f.clone(),
            });
        }
    }
    Ok(())
}

fn cmd_analyze(functions: &[String]) -> Result<(), Error> {
    if functions.iter().any(|a| a.starts_with("--")) {
        return Err(Error::Usage);
    }
    if functions.is_empty() {
        return Err(Error::BadArgument(
            "analyze: name at least one function".into(),
        ));
    }
    let libc = Libc::standard();
    require_exported("analyze", &libc, functions)?;
    let names: Vec<&str> = functions.iter().map(|s| s.as_str()).collect();
    let decls = analyze(&libc, &names);
    print!("{}", decls_to_xml(&decls));
    Ok(())
}

fn cmd_wrap(rest: &[String]) -> Result<(), Error> {
    let mut out: Option<String> = None;
    let mut action = ViolationAction::ReturnError;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(it.next().ok_or(Error::Usage)?.clone()),
            "--on-violation" => action = parse_action("wrap", it.next().ok_or(Error::Usage)?)?,
            _ => return Err(Error::Usage),
        }
    }
    let libc = Libc::standard();
    eprintln!("analyzing {} functions…", ballista_targets().len());
    let decls = analyze(&libc, &ballista_targets());
    let source = emit_wrapper_source_as(&decls, action);
    let header = emit_checks_header(&decls);
    match out {
        Some(path) => {
            let header_path = format!("{path}.checks.h");
            std::fs::write(&path, &source)
                .map_err(|e| Error::io(format!("wrap: cannot write {path}"), e))?;
            std::fs::write(&header_path, &header)
                .map_err(|e| Error::io(format!("wrap: cannot write {header_path}"), e))?;
            eprintln!(
                "wrote {} lines to {path} and {} lines to {header_path}",
                source.lines().count(),
                header.lines().count()
            );
        }
        None => {
            print!("{header}");
            print!("{source}");
        }
    }
    Ok(())
}

fn cmd_campaign(rest: &[String], seed: Option<u64>) -> Result<(), Error> {
    let mut jobs = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut journal_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut mode = "decls".to_string();
    let mut cap = 180usize;
    let mut out: Option<PathBuf> = None;
    let mut progress = false;
    let mut action: Option<ViolationAction> = None;
    let mut functions: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(j) if j >= 1 => jobs = j,
                _ => return Err(Error::Usage),
            },
            "--cache" => cache_dir = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--journal" => journal_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--trace" => trace_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--mode" => mode = it.next().ok_or(Error::Usage)?.clone(),
            "--cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(c) if c >= 1 => cap = c,
                _ => return Err(Error::Usage),
            },
            "--out" => out = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--progress" => progress = true,
            "--on-violation" => {
                action = Some(parse_action("campaign", it.next().ok_or(Error::Usage)?)?);
            }
            flag if flag.starts_with("--") => return Err(Error::Usage),
            name => functions.push(name.to_string()),
        }
    }
    // `decls` (the XML) and `table1` (the error-return-code classes)
    // are analysis-only views of the declarations, campaign-specific
    // pseudo modes on top of the shared Mode tokens.
    let analysis_only = mode == "decls" || mode == "table1";
    let modes: Vec<Mode> = if analysis_only {
        Vec::new()
    } else {
        parse_modes("campaign", &mode)?
    };

    let libc = Libc::standard();
    let names: Vec<String> = if functions.is_empty() {
        ballista_targets().iter().map(|s| s.to_string()).collect()
    } else {
        functions
    };
    require_exported("campaign", &libc, &names)?;
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();

    // The `--progress` heartbeat: a monitor thread samples the
    // process-global metrics registry and the flight recorder every
    // 500 ms and reports on stderr — workers never synchronize with
    // it, so the campaign output stays byte-identical with it on.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let monitor = progress.then(|| {
        let stop = std::sync::Arc::clone(&stop);
        let total = names.len() as u64;
        std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            let registry = healers::trace::metrics::global();
            let heartbeat = |label: &str| {
                eprintln!(
                    "{label}: analyzed {}/{total} | evaluated {} | faults {} | flight {}",
                    registry.counter("campaign_analyzed_total").get(),
                    registry.counter("campaign_evaluated_total").get(),
                    registry.counter("campaign_faults_total").get(),
                    healers::trace::recorder::flight().len(),
                );
            };
            while !stop.load(Ordering::Relaxed) {
                heartbeat("progress");
                std::thread::sleep(std::time::Duration::from_millis(500));
            }
            heartbeat("progress final");
        })
    });

    let journaling = journal_path.is_some();
    let tracing = trace_path.clone();
    let campaign = Campaign::new(&CampaignConfig {
        jobs,
        cache_dir,
        journal_path,
        trace_path,
    })
    .map_err(|e| Error::io("campaign", e))?;

    // The declarations feed the analysis-only views and the wrapped
    // evaluation modes; a pure-unwrapped run skips injection entirely.
    let needs_decls = analysis_only || modes.iter().any(|m| !matches!(m, Mode::Unwrapped));
    let mut decls = Vec::new();
    if needs_decls {
        let (d, metrics) = campaign
            .analyze(&libc, &name_refs)
            .map_err(|e| Error::io("campaign: cache write failed", e))?;
        eprintln!("{metrics}");
        decls = d;
    }
    // Stdout streams as each view is ready; with `--out FILE` the same
    // bytes are collected and written to FILE at the end instead.
    let mut collected = String::new();
    let mut emit = |text: &str| match out {
        Some(_) => collected.push_str(text),
        None => print!("{text}"),
    };
    if analysis_only {
        emit(&if mode == "decls" {
            decls_to_xml(&decls)
        } else {
            render_table1(&decls)
        });
    }

    let mut ballista = Ballista::new().with_functions(&name_refs).with_cap(cap);
    if let Some(seed) = seed {
        ballista = ballista.with_seed(seed);
    }
    if let Some(action) = action {
        ballista = ballista.with_action(action);
    }
    for m in modes {
        let (report, metrics) = campaign.evaluate(&libc, &ballista, m, decls.clone());
        emit(&format!("{}\n", report.render()));
        let failing = report.functions_with_failures();
        if !failing.is_empty() {
            emit(&format!("    still failing: {}\n", failing.join(", ")));
        }
        eprintln!("{metrics}");
    }
    if let Some(path) = &out {
        std::fs::write(path, &collected)
            .map_err(|e| Error::io(format!("campaign: cannot write {}", path.display()), e))?;
    }

    if let Some(handle) = monitor {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }

    let lines = campaign
        .finish()
        .map_err(|e| Error::io("campaign: journal write failed", e))?;
    if journaling {
        eprintln!("journal: {lines} events");
    }
    if let Some(path) = tracing {
        eprintln!("trace: wrote {}", path.display());
    }
    Ok(())
}

/// Table 1: the declarations grouped by error-return-code class, each
/// class with its count, share and the paper's value, then the
/// inconsistent functions and whether `fflush` found no error code.
fn render_table1(decls: &[healers::core::FunctionDecl]) -> String {
    use std::fmt::Write as _;
    let mut by_class: BTreeMap<&'static str, Vec<&str>> = BTreeMap::new();
    for decl in decls {
        by_class
            .entry(decl.errcode_class.label())
            .or_default()
            .push(&decl.name);
    }
    let total = decls.len();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — error return code determination ({total} functions)"
    );
    let _ = writeln!(
        out,
        "=============================================================="
    );
    let _ = writeln!(
        out,
        "{:<34} {:>6} {:>11}   (paper)",
        "Return Code Class", "Number", "Percentage"
    );
    let order = [
        (ErrCodeClass::NoReturnCode.label(), "8 / 9.3%"),
        (ErrCodeClass::Consistent.label(), "39 / 45.3%"),
        (ErrCodeClass::Inconsistent.label(), "2 / 2.3%"),
        (ErrCodeClass::NoErrorReturnCodeFound.label(), "37 / 43.0%"),
    ];
    for (label, paper) in order {
        let n = by_class.get(label).map_or(0, Vec::len);
        let _ = writeln!(
            out,
            "{:<34} {:>6} {:>10.1}%   ({paper})",
            label,
            n,
            100.0 * n as f64 / total as f64
        );
    }
    let _ = writeln!(out);
    if let Some(inconsistent) = by_class.get(ErrCodeClass::Inconsistent.label()) {
        let _ = writeln!(out, "inconsistent functions: {}", inconsistent.join(", "));
        let _ = writeln!(
            out,
            "(paper: fdopen, freopen — errno sometimes set on success)"
        );
    }
    if let Some(none) = by_class.get(ErrCodeClass::NoErrorReturnCodeFound.label()) {
        let _ = writeln!(
            out,
            "fflush in the none-found class: {} (paper: the one function that should set errno)",
            none.contains(&"fflush")
        );
    }
    out
}

/// `healers report` — one evaluation run rendered as a telemetry
/// report. The default output is **deterministic**: identical seeds
/// produce byte-identical output regardless of `--jobs`, because only
/// logical counters are printed (test outcomes, check-kind tallies,
/// wrapper counters) — never wall-clock data. `--timings` opts into
/// the gated latency histograms (p50/p99 per function), which are
/// explicitly excluded from that guarantee.
fn cmd_report(rest: &[String], seed: Option<u64>) -> Result<(), Error> {
    let mut mode = "full".to_string();
    let mut cap = 40usize;
    let mut jobs = 1usize;
    let mut json = false;
    let mut timings = false;
    let mut action: Option<ViolationAction> = None;
    let mut functions: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => mode = it.next().ok_or(Error::Usage)?.clone(),
            "--cap" => match it.next().and_then(|v| v.parse().ok()) {
                Some(c) if c >= 1 => cap = c,
                _ => return Err(Error::Usage),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(j) if j >= 1 => jobs = j,
                _ => return Err(Error::Usage),
            },
            "--json" => json = true,
            "--timings" => timings = true,
            "--on-violation" => {
                action = Some(parse_action("report", it.next().ok_or(Error::Usage)?)?);
            }
            flag if flag.starts_with("--") => return Err(Error::Usage),
            name => functions.push(name.to_string()),
        }
    }
    let mode: Mode = mode
        .parse()
        .map_err(|e| Error::BadArgument(format!("report: {e}")))?;
    if timings {
        healers::trace::set_enabled(true);
    }

    let libc = Libc::standard();
    let names: Vec<String> = if functions.is_empty() {
        ballista_targets().iter().map(|s| s.to_string()).collect()
    } else {
        functions
    };
    require_exported("report", &libc, &names)?;
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();

    let campaign = Campaign::new(&CampaignConfig {
        jobs,
        ..CampaignConfig::default()
    })
    .map_err(|e| Error::io("report", e))?;
    let decls = if matches!(mode, Mode::Unwrapped) {
        Vec::new()
    } else {
        campaign
            .analyze(&libc, &name_refs)
            .map_err(|e| Error::io("report", e))?
            .0
    };
    let mut ballista = Ballista::new().with_functions(&name_refs).with_cap(cap);
    if let Some(seed) = seed {
        ballista = ballista.with_seed(seed);
    }
    if let Some(action) = action {
        ballista = ballista.with_action(action);
    }
    let report_seed = ballista.seed();
    let (report, _metrics, stats) = campaign.evaluate_traced(&libc, &ballista, mode, decls);
    campaign.finish().map_err(|e| Error::io("report", e))?;

    if json {
        print!(
            "{}",
            render_report_json(&report, &stats, report_seed, timings)
        );
    } else {
        print!(
            "{}",
            render_report_text(&report, &stats, report_seed, timings)
        );
    }
    Ok(())
}

fn render_report_text(
    report: &healers::ballista::BallistaReport,
    stats: &WrapperStats,
    seed: u64,
    timings: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "healers report — {} (seed {seed})", report.label);
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
    let _ = writeln!(out, "checks by claim kind:");
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>8} {:>8}",
        "kind", "passed", "failed", "repaired"
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
    if timings {
        let _ = writeln!(
            out,
            "latency per function (wall clock; excluded from the determinism guarantee):"
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>10} {:>10}",
            "function", "calls", "p50(ns)", "p99(ns)"
        );
        for (name, t) in &stats.per_function {
            let _ = writeln!(
                out,
                "  {:<14} {:>8} {:>10} {:>10}",
                name,
                t.calls,
                t.latency_ns.percentile(50.0),
                t.latency_ns.percentile(99.0)
            );
        }
    }
    out
}

fn render_report_json(
    report: &healers::ballista::BallistaReport,
    stats: &WrapperStats,
    seed: u64,
    timings: bool,
) -> String {
    let totals = report.totals();
    let wrapper = JsonObject::new()
        .u64("calls", stats.calls)
        .u64("wrapped_calls", stats.wrapped_calls)
        .u64("checks", stats.checks)
        .u64("violations", stats.violations)
        .u64("repairs", stats.repairs)
        .u64("cache_hits", stats.check_cache_hits)
        .finish();
    let mut checks = JsonObject::new();
    for (kind, passed, failed, repaired) in stats.check_outcomes.iter() {
        let entry = JsonObject::new()
            .u64("passed", passed)
            .u64("failed", failed)
            .u64("repaired", repaired)
            .finish();
        checks = checks.raw(kind.label(), &entry);
    }
    let mut doc = JsonObject::new()
        .str("mode", &report.label)
        .u64("seed", seed)
        .u64("tests", totals.tests as u64)
        .u64("crashes", totals.crashes as u64)
        .u64("aborts", totals.aborts as u64)
        .u64("hangs", totals.hangs as u64)
        .u64("errno_set", totals.errno_set as u64)
        .u64("silent", totals.silent as u64)
        .raw("wrapper", &wrapper)
        .raw("checks", &checks.finish());
    if timings {
        let mut latency = JsonObject::new();
        for (name, t) in &stats.per_function {
            let entry = JsonObject::new()
                .u64("calls", t.calls)
                .u64("p50_ns", t.latency_ns.percentile(50.0))
                .u64("p99_ns", t.latency_ns.percentile(99.0))
                .finish();
            latency = latency.raw(name, &entry);
        }
        doc = doc.raw("latency", &latency.finish());
    }
    let mut text = doc.finish();
    text.push('\n');
    text
}

/// `healers fuzz` — coverage-guided API-sequence fuzzing with
/// automatic shrinking and crash-to-regression-test pinning. The
/// default subcommand is `run`; `replay` re-executes committed pins
/// and `shrink` minimizes a seed file's first finding.
fn cmd_fuzz(rest: &[String], seed: Option<u64>) -> Result<(), Error> {
    match rest.first().map(String::as_str) {
        Some("replay") => cmd_fuzz_replay(&rest[1..]),
        Some("shrink") => cmd_fuzz_shrink(&rest[1..]),
        Some("run") => cmd_fuzz_run(&rest[1..], seed),
        _ => cmd_fuzz_run(rest, seed),
    }
}

/// Parse a `--mode full|semi` token for the fuzzer's wrapper
/// configuration.
fn parse_pin_mode(token: &str) -> Result<PinMode, Error> {
    match token {
        "full" => Ok(PinMode::Full),
        "semi" => Ok(PinMode::Semi),
        other => Err(Error::BadArgument(format!(
            "fuzz: unknown mode {other:?} (expected full or semi)"
        ))),
    }
}

fn cmd_fuzz_run(rest: &[String], seed: Option<u64>) -> Result<(), Error> {
    let mut config = FuzzConfig::default();
    if let Some(seed) = seed {
        config.seed = seed;
    }
    let mut journal_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut pins_dir: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // `--seed` is accepted here too (not just globally) so a
            // fuzz invocation is self-contained in scripts and CI.
            "--seed" => {
                config.seed = it.next().and_then(|v| v.parse().ok()).ok_or(Error::Usage)?;
            }
            "--budget" => {
                config.budget = it.next().and_then(|v| v.parse().ok()).ok_or(Error::Usage)?;
            }
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(j) if j >= 1 => config.jobs = j,
                _ => return Err(Error::Usage),
            },
            "--max-len" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.max_len = n,
                _ => return Err(Error::Usage),
            },
            "--mode" => config.mode = parse_pin_mode(it.next().ok_or(Error::Usage)?)?,
            "--on-violation" => {
                config.action = parse_action("fuzz", it.next().ok_or(Error::Usage)?)?;
            }
            "--threads" => config.threads = true,
            "--journal" => journal_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--trace" => trace_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--pins" => pins_dir = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            flag if flag.starts_with("--") => return Err(Error::Usage),
            name => config.functions.push(name.to_string()),
        }
    }
    let libc = Libc::standard();
    require_exported("fuzz", &libc, &config.functions)?;
    let pool_size = if config.functions.is_empty() {
        ballista_targets().len()
    } else {
        config.functions.len()
    };

    let sink: Option<Box<dyn std::io::Write + Send>> = match &journal_path {
        Some(path) => Some(Box::new(std::fs::File::create(path).map_err(|e| {
            Error::io(format!("fuzz: cannot write {}", path.display()), e)
        })?)),
        None => None,
    };
    let mut journal: Journal<FuzzEvent> = match (sink, trace_path.is_some()) {
        (None, false) => Journal::disabled(),
        (sink, true) => Journal::start_recording(sink),
        (Some(sink), false) => Journal::start(sink),
    };

    let outcome = healers::fuzz::run(&libc, &config, &journal.sender());
    let tail = journal
        .shutdown()
        .map_err(|e| Error::io("fuzz: journal write failed", e))?;
    if journal_path.is_some() {
        eprintln!("journal: {} events", tail.lines);
    }
    if let Some(path) = &trace_path {
        let doc = healers::fuzz::chrome_trace(&tail.events).render();
        std::fs::write(path, doc)
            .map_err(|e| Error::io(format!("fuzz: cannot write {}", path.display()), e))?;
        eprintln!("trace: wrote {}", path.display());
    }

    // The summary is part of the determinism guarantee: only logical
    // counters, in BTree order — byte-identical for any --jobs value.
    println!(
        "healers fuzz — seed {} budget {} mode {}{} pool {pool_size}",
        config.seed,
        config.budget,
        match config.mode {
            PinMode::Full => "full",
            PinMode::Semi => "semi",
        },
        if config.threads { " threads" } else { "" }
    );
    println!("coverage: {} keys", outcome.coverage.len());
    println!("corpus: {} sequences", outcome.corpus_len);
    println!("findings: {}", outcome.findings.len());
    for report in &outcome.findings {
        println!(
            "  {}: {} -> {} steps ({} probes)",
            report.key,
            report.original.len(),
            report.shrunk.len(),
            report.stats.probes
        );
    }
    if let Some(dir) = &pins_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("fuzz: cannot create {}", dir.display()), e))?;
        for report in &outcome.findings {
            let pin_path = dir.join(report.pin.file_name());
            std::fs::write(&pin_path, report.pin.render())
                .map_err(|e| Error::io(format!("fuzz: cannot write {}", pin_path.display()), e))?;
            let seed_path = dir.join(format!("{}.seed", report.key));
            std::fs::write(&seed_path, report.shrunk.render())
                .map_err(|e| Error::io(format!("fuzz: cannot write {}", seed_path.display()), e))?;
        }
        eprintln!(
            "pins: wrote {} file(s) to {}",
            2 * outcome.findings.len(),
            dir.display()
        );
    }
    Ok(())
}

/// The functions a sequence calls, sorted and deduplicated, each
/// checked against the library's export list.
fn fuzz_decls_for(
    command: &'static str,
    libc: &Libc,
    seq: &healers::fuzz::Sequence,
) -> Result<Vec<healers::core::FunctionDecl>, Error> {
    let mut functions: Vec<String> = seq.steps.iter().map(|s| s.function.clone()).collect();
    functions.sort_unstable();
    functions.dedup();
    require_exported(command, libc, &functions)?;
    let refs: Vec<&str> = functions.iter().map(String::as_str).collect();
    Ok(analyze(libc, &refs))
}

fn cmd_fuzz_replay(rest: &[String]) -> Result<(), Error> {
    let mut flight_dump: Option<PathBuf> = None;
    let mut files: Vec<&String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flight-dump" => flight_dump = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            flag if flag.starts_with("--") => return Err(Error::Usage),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return Err(Error::BadArgument(
            "fuzz replay: name at least one pin file".into(),
        ));
    }
    let libc = Libc::standard();
    let mut failures = 0usize;
    for file in files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| Error::io(format!("fuzz replay: cannot read {file}"), e))?;
        let pin = Pin::parse(&text)
            .map_err(|e| Error::BadArgument(format!("fuzz replay: {file}: {e}")))?;
        let decls = fuzz_decls_for("fuzz replay", &libc, &pin.seq)?;
        match pin.replay(&libc, &decls) {
            Ok(()) => println!("replay {file}: ok ({})", pin.finding),
            Err(e) => {
                failures += 1;
                println!("replay {file}: FAILED\n{e}");
            }
        }
    }
    // Dump before the divergence check: the flight recorder is most
    // valuable exactly when a replay crashed or diverged.
    if let Some(path) = &flight_dump {
        let flight = healers::trace::recorder::flight();
        std::fs::write(path, flight.to_jsonl())
            .map_err(|e| Error::io(format!("fuzz replay: cannot write {}", path.display()), e))?;
        eprintln!(
            "flight recorder: wrote {} event(s) to {}",
            flight.len(),
            path.display()
        );
    }
    if failures > 0 {
        return Err(Error::Msg(format!(
            "fuzz replay: {failures} pin(s) diverged"
        )));
    }
    Ok(())
}

fn cmd_fuzz_shrink(rest: &[String]) -> Result<(), Error> {
    let mut file: Option<&String> = None;
    let mut out: Option<PathBuf> = None;
    let mut mode = PinMode::Full;
    let mut action = ViolationAction::ReturnError;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--mode" => mode = parse_pin_mode(it.next().ok_or(Error::Usage)?)?,
            "--on-violation" => {
                action = parse_action("fuzz shrink", it.next().ok_or(Error::Usage)?)?;
            }
            flag if flag.starts_with("--") => return Err(Error::Usage),
            _ if file.is_none() => file = Some(arg),
            _ => return Err(Error::Usage),
        }
    }
    let file = file.ok_or(Error::BadArgument("fuzz shrink: name a seed file".into()))?;
    let text = std::fs::read_to_string(file)
        .map_err(|e| Error::io(format!("fuzz shrink: cannot read {file}"), e))?;
    let seq = healers::fuzz::Sequence::parse(&text)
        .map_err(|e| Error::BadArgument(format!("fuzz shrink: {file}: {e}")))?;
    let libc = Libc::standard();
    let decls = fuzz_decls_for("fuzz shrink", &libc, &seq)?;

    let execute_pair = |s: &healers::fuzz::Sequence| {
        let mut config = mode.config();
        config.action = action;
        let wrapped = healers::fuzz::execute(
            &libc,
            s,
            healers::fuzz::ExecMode::Wrapped {
                decls: &decls,
                config,
            },
        );
        let unwrapped = healers::fuzz::execute_unwrapped(&libc, s);
        (wrapped, unwrapped)
    };
    let (wrapped, unwrapped) = execute_pair(&seq);
    let findings = healers::fuzz::detect(&wrapped, &unwrapped);
    let Some(finding) = findings.first() else {
        return Err(Error::Msg(
            "fuzz shrink: the sequence exhibits no finding (no check violation, \
             wrapped crash, or divergence)"
                .into(),
        ));
    };
    let oracle = |s: &healers::fuzz::Sequence, f: &healers::fuzz::Finding| {
        let (w, u) = execute_pair(s);
        healers::fuzz::finding::reproduces(f, &w, &u)
    };
    let (shrunk, stats) = healers::fuzz::shrink(&seq, finding, &oracle);
    eprintln!(
        "shrink: {} — {} -> {} steps ({} probes)",
        finding.key(),
        seq.len(),
        shrunk.len(),
        stats.probes
    );
    let (wrapped, _) = execute_pair(&shrunk);
    let pin = Pin {
        finding: finding.key(),
        mode,
        action,
        seq: shrunk,
        expect: healers::fuzz::Expectation::from_result(&wrapped),
    };
    match &out {
        Some(path) => {
            std::fs::write(path, pin.render()).map_err(|e| {
                Error::io(format!("fuzz shrink: cannot write {}", path.display()), e)
            })?;
            eprintln!("shrink: wrote {}", path.display());
        }
        None => print!("{}", pin.render()),
    }
    Ok(())
}

/// `healers explain` — replay the fault-injection campaign for each
/// function and show *why* each argument got its robust type: the
/// lattice walk (must-admit set, crashing set, admissible candidates,
/// chosen type, and the boundary justification for every rejected
/// supertype) plus fault provenance for the crashing test cases (the
/// faulting page run and the heap block it is attributed to).
fn cmd_explain(functions: &[String]) -> Result<(), Error> {
    if functions.iter().any(|a| a.starts_with("--")) {
        return Err(Error::Usage);
    }
    if functions.is_empty() {
        return Err(Error::BadArgument(
            "explain: name at least one function".into(),
        ));
    }
    let libc = Libc::standard();
    for name in functions {
        let injector = FaultInjector::new(&libc, name).ok_or_else(|| Error::NotExported {
            command: "explain",
            function: name.clone(),
        })?;
        let report = injector.run();
        println!(
            "{} — {} ({} calls, {} adaptive retries)",
            report.function,
            if report.safe { "safe" } else { "unsafe" },
            report.calls,
            report.adaptive_retries
        );
        println!("  prototype: extern {};", report.proto);
        for (i, arg) in report.args.iter().enumerate() {
            let (robust, trace) = robust_type_traced(
                &arg.universe,
                &arg.observations,
                SelectionCriterion::SuccessfulReturns,
            );
            println!("  arg {i} ({}):", arg.generator);
            let notations = |ts: &[healers::typesys::TypeExpr]| {
                ts.iter()
                    .map(|t| t.notation())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!("    must admit: [{}]", notations(&trace.must_admit));
            println!("    crashing:   [{}]", notations(&trace.crashing));
            println!(
                "    admissible: {} of {} candidates, best admits {} crashing type(s)",
                trace.admissible.len(),
                arg.universe.len(),
                trace.min_crashes
            );
            println!(
                "    robust type: {}{}",
                robust.robust.notation(),
                if robust.safe { " (safe)" } else { "" }
            );
            for (sup, crash) in &trace.boundary {
                println!(
                    "      ↳ {} rejected: would admit crashing {}",
                    sup.notation(),
                    crash.notation()
                );
            }
            let faults: Vec<_> = report
                .records
                .iter()
                .filter(|r| r.arg_index == Some(i))
                .filter_map(|r| r.provenance.as_ref().map(|site| (r, site)))
                .collect();
            for (r, site) in faults.iter().take(4) {
                println!("    fault [{}]: {site}", r.label);
            }
            if faults.len() > 4 {
                println!("    … and {} more faulting case(s)", faults.len() - 4);
            }
        }
    }
    // The flight recorder saw every resolved fault of the campaigns
    // above; its tail is the cross-function event timeline, printed
    // after the per-argument provenance so existing output stays a
    // prefix of the new output.
    let flight = healers::trace::recorder::flight();
    if !flight.is_empty() {
        println!(
            "flight recorder ({} of {} event(s) retained):",
            flight.len(),
            flight.recorded()
        );
        for e in flight.snapshot() {
            println!("  [{}] {} {} — {}", e.seq, e.kind, e.function, e.detail);
        }
    }
    Ok(())
}

/// `healers serve` — hardening-as-a-service. `daemon` binds a Unix
/// socket and serves until a `shutdown` request; `exec` replays a
/// request script against an in-process daemon (no socket, CI's
/// determinism workhorse); `send` replays a script against a running
/// daemon. All three build the wrapper plans once, up front — with
/// `--cache` pointing at a warm declaration cache the startup performs
/// zero injected calls.
fn cmd_serve(rest: &[String]) -> Result<(), Error> {
    match rest.first().map(String::as_str) {
        Some("daemon") => cmd_serve_daemon(&rest[1..]),
        Some("exec") => cmd_serve_exec(&rest[1..]),
        Some("send") => cmd_serve_send(&rest[1..]),
        Some("stats") => cmd_serve_stats(&rest[1..]),
        _ => Err(Error::Usage),
    }
}

/// Build the Arc-shared plan set for a serve invocation, reporting the
/// campaign metrics (cache hits, injected calls) on stderr.
fn build_serve_plans(
    functions: Vec<String>,
    cache_dir: Option<PathBuf>,
    jobs: usize,
    repair_hints: bool,
) -> Result<std::sync::Arc<healers::serve::ServePlans>, Error> {
    let libc = Libc::standard();
    let config = healers::serve::PlanConfig {
        functions,
        cache_dir,
        jobs,
        repair_hints,
    };
    let (plans, metrics) = healers::serve::ServePlans::build(&libc, &config)?;
    eprintln!("{metrics}");
    Ok(std::sync::Arc::new(plans))
}

fn cmd_serve_daemon(rest: &[String]) -> Result<(), Error> {
    let mut socket: Option<PathBuf> = None;
    let mut workers = 4usize;
    let mut queue = 16usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut repair_hints = false;
    let mut functions: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return Err(Error::Usage),
            },
            "--queue" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => queue = n,
                _ => return Err(Error::Usage),
            },
            "--cache" => cache_dir = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--repair-hints" => repair_hints = true,
            flag if flag.starts_with("--") => return Err(Error::Usage),
            name => functions.push(name.to_string()),
        }
    }
    let socket = socket
        .ok_or_else(|| Error::BadArgument("serve daemon: --socket PATH is required".into()))?;

    let plans = build_serve_plans(functions, cache_dir, workers, repair_hints)?;
    let listener = healers::serve::daemon::UnixSocketListener::bind(&socket)
        .map_err(|e| Error::io(format!("serve daemon: cannot bind {}", socket.display()), e))?;
    eprintln!(
        "serving {} function plan(s) on {} ({workers} worker(s), queue {queue})",
        plans.functions().len(),
        socket.display()
    );
    let daemon = healers::serve::Daemon::spawn(
        Box::new(listener),
        plans,
        healers::serve::DaemonConfig {
            workers,
            queue_depth: queue,
            limits: healers::serve::Limits::default(),
        },
    );
    let hub = daemon.hub();
    let result = daemon.join();
    let _ = std::fs::remove_file(&socket);
    result.map_err(|e| Error::io("serve daemon: accept loop failed", e))?;
    for (name, value) in hub.snapshot() {
        eprintln!("  {name:<16} {value}");
    }
    Ok(())
}

/// Replay `script` over `conn`, print the rendered replies, and
/// optionally dump the exact reply bytes (the determinism artifact).
fn replay_script(
    conn: &mut (impl std::io::Read + std::io::Write),
    script: &healers::serve::Script,
    raw_out: Option<&PathBuf>,
) -> Result<(), Error> {
    let replies = healers::serve::run_script(conn, script, &healers::serve::Limits::default())
        .map_err(|e| Error::Msg(e.to_string()))?;
    if let Some(path) = raw_out {
        std::fs::write(path, &replies.raw)
            .map_err(|e| Error::io(format!("serve: cannot write {}", path.display()), e))?;
        eprintln!(
            "raw replies: wrote {} byte(s) to {}",
            replies.raw.len(),
            path.display()
        );
    }
    print!("{}", healers::serve::client::render(&replies.frames));
    Ok(())
}

fn cmd_serve_exec(rest: &[String]) -> Result<(), Error> {
    let mut script_path: Option<PathBuf> = None;
    let mut workers = 4usize;
    let mut raw_out: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut repair_hints = false;
    let mut functions: Vec<String> = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--script" => script_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return Err(Error::Usage),
            },
            "--raw-out" => raw_out = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--cache" => cache_dir = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--repair-hints" => repair_hints = true,
            flag if flag.starts_with("--") => return Err(Error::Usage),
            name => functions.push(name.to_string()),
        }
    }
    let script_path = script_path
        .ok_or_else(|| Error::BadArgument("serve exec: --script FILE is required".into()))?;
    let text = std::fs::read_to_string(&script_path).map_err(|e| {
        Error::io(
            format!("serve exec: cannot read {}", script_path.display()),
            e,
        )
    })?;
    let script = healers::serve::Script::parse(&text)
        .map_err(|e| Error::BadArgument(format!("serve exec: {e}")))?;

    let plans = build_serve_plans(functions, cache_dir, workers, repair_hints)?;
    let (dial, listener) = healers::serve::daemon::PipeListener::new();
    let daemon = healers::serve::Daemon::spawn(
        Box::new(listener),
        plans,
        healers::serve::DaemonConfig {
            workers,
            queue_depth: workers + 1,
            limits: healers::serve::Limits::default(),
        },
    );
    let (mut local, remote) = healers::serve::duplex(64 * 1024);
    dial.send(remote)
        .map_err(|_| Error::Msg("serve exec: daemon accept loop died".into()))?;
    let result = replay_script(&mut local, &script, raw_out.as_ref());
    drop(local); // EOF ends the session even without a shutdown request
    drop(dial);
    daemon.trigger_shutdown();
    daemon
        .join()
        .map_err(|e| Error::io("serve exec: daemon failed", e))?;
    result
}

fn cmd_serve_send(rest: &[String]) -> Result<(), Error> {
    let mut socket: Option<PathBuf> = None;
    let mut script_path: Option<PathBuf> = None;
    let mut raw_out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--script" => script_path = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--raw-out" => raw_out = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            _ => return Err(Error::Usage),
        }
    }
    let socket =
        socket.ok_or_else(|| Error::BadArgument("serve send: --socket PATH is required".into()))?;
    let script_path = script_path
        .ok_or_else(|| Error::BadArgument("serve send: --script FILE is required".into()))?;
    let text = std::fs::read_to_string(&script_path).map_err(|e| {
        Error::io(
            format!("serve send: cannot read {}", script_path.display()),
            e,
        )
    })?;
    let script = healers::serve::Script::parse(&text)
        .map_err(|e| Error::BadArgument(format!("serve send: {e}")))?;
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).map_err(|e| {
        Error::io(
            format!("serve send: cannot connect to {}", socket.display()),
            e,
        )
    })?;
    replay_script(&mut stream, &script, raw_out.as_ref())
}

/// `healers serve stats` — scrape a running daemon's live stats over
/// its socket. The default view shows everything, including the
/// scheduling-dependent sections; `--deterministic` restricts the
/// output to the worker-count-invariant subset (what the CI stats-smoke
/// job byte-diffs) and `--prom` renders the Prometheus text exposition
/// format. `--timings` asks the daemon for latency percentiles, which
/// it answers with an empty list (it keeps no latency histograms);
/// `--watch` re-polls every second on the same connection until the
/// daemon goes away.
fn cmd_serve_stats(rest: &[String]) -> Result<(), Error> {
    let mut socket: Option<PathBuf> = None;
    let mut prom = false;
    let mut deterministic = false;
    let mut timings = false;
    let mut watch = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or(Error::Usage)?)),
            "--prom" => prom = true,
            "--deterministic" => deterministic = true,
            "--timings" => timings = true,
            "--watch" => watch = true,
            _ => return Err(Error::Usage),
        }
    }
    if prom && deterministic {
        return Err(Error::BadArgument(
            "serve stats: --prom and --deterministic are mutually exclusive".into(),
        ));
    }
    let socket = socket
        .ok_or_else(|| Error::BadArgument("serve stats: --socket PATH is required".into()))?;
    let mut stream = std::os::unix::net::UnixStream::connect(&socket).map_err(|e| {
        Error::io(
            format!("serve stats: cannot connect to {}", socket.display()),
            e,
        )
    })?;
    let script = healers::serve::Script {
        frames: vec![vec![healers::serve::Request::Stats { timings }]],
    };
    loop {
        let replies =
            healers::serve::run_script(&mut stream, &script, &healers::serve::Limits::default())
                .map_err(|e| Error::Msg(format!("serve stats: {e}")))?;
        let Some(healers::serve::Response::Stats(s)) =
            replies.frames.first().and_then(|f| f.first())
        else {
            return Err(Error::Msg(
                "serve stats: the daemon did not return a stats reply".into(),
            ));
        };
        let text = if prom {
            healers::serve::client::render_stats_prometheus(s)
        } else if deterministic {
            healers::serve::client::render_stats_deterministic(s)
        } else {
            healers::serve::client::render_stats(s)
        };
        print!("{text}");
        if !watch {
            return Ok(());
        }
        println!();
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

/// `healers extract` — the §3 prototype-extraction statistics over
/// the simulated glibc-2.2-scale corpus, beside the paper's values.
fn cmd_extract(rest: &[String]) -> Result<(), Error> {
    if !rest.is_empty() {
        return Err(Error::Usage);
    }
    let corpus = CorpusConfig::default().generate();
    let report = recover_all(&corpus);
    let pct = |fraction: f64| format!("{:>5.1}%", 100.0 * fraction);
    println!("Section 3 — prototype extraction over the simulated corpus");
    println!("===========================================================");
    println!("global symbols:           {}", corpus.symbols.symbols.len());
    println!("external functions:       {}", report.externals());
    println!(
        "internal symbols:         {}   (paper: >34%)",
        pct(report.internal_fraction())
    );
    println!(
        "man-page coverage:        {}   (paper: 51.1%)",
        pct(report.manpage_coverage())
    );
    println!(
        "pages listing no headers: {}   (paper: 1.2%)",
        pct(report.manpage_no_headers_fraction())
    );
    println!(
        "pages with wrong headers: {}   (paper: 7.7%)",
        pct(report.manpage_wrong_headers_fraction())
    );
    println!(
        "prototypes found:         {}   (paper: 96.0%)",
        pct(report.found_fraction())
    );
    let routes = |source: RecoverySource| report.iter().filter(|r| r.source == source).count();
    println!();
    println!(
        "recovery routes: man-page headers {}, global scan {}, not found {}",
        routes(RecoverySource::ManPageHeaders),
        routes(RecoverySource::GlobalScan),
        routes(RecoverySource::NotFound)
    );
    Ok(())
}

/// `healers bitflip` — the §9 future-work experiment: starting from
/// valid calls, every single-bit corruption of every argument word is
/// injected, with and without the fully automatic wrapper.
fn cmd_bitflip(rest: &[String]) -> Result<(), Error> {
    if !rest.is_empty() {
        return Err(Error::Usage);
    }
    let libc = Libc::standard();
    let targets = ballista_targets();
    eprintln!("analyzing {} functions…", targets.len());
    let wrapper = WrapperBuilder::new()
        .decls(analyze(&libc, &targets))
        .config(WrapperConfig::full_auto())
        .build();
    let unwrapped = run_bitflip(&libc, &targets, None, "Unwrapped");
    let wrapped = run_bitflip(&libc, &targets, Some(wrapper), "Full-Auto Wrapped");

    println!("Bit-flip fault injection over {} functions", targets.len());
    println!("==================================================");
    println!("{}", unwrapped.render());
    println!("{}", wrapped.render());
    let u = unwrapped.totals().failures();
    let w = wrapped.totals().failures();
    println!();
    println!(
        "crash+abort+hang reduction: {u} -> {w}  ({:.1}% prevented)",
        100.0 * (u as f64 - w as f64) / u.max(1) as f64
    );
    let mut residual = wrapped.functions_with_failures();
    residual.sort_unstable();
    println!(
        "functions still failing under bit flips: {}",
        residual.join(", ")
    );
    Ok(())
}

fn cmd_tour(functions: &[String]) -> Result<(), Error> {
    if functions.iter().any(|a| a.starts_with("--")) {
        return Err(Error::Usage);
    }
    let libc = Libc::standard();
    let names: Vec<String> = if functions.is_empty() {
        ballista_targets().iter().map(|s| s.to_string()).collect()
    } else {
        functions.to_vec()
    };
    for name in names {
        let injector = FaultInjector::new(&libc, &name).ok_or_else(|| Error::NotExported {
            command: "tour",
            function: name.clone(),
        })?;
        let report = injector.run();
        let types: Vec<String> = report
            .args
            .iter()
            .map(|a| a.robust.robust.notation())
            .collect();
        println!(
            "{:<14} {:<7} ⟨{}⟩",
            report.function,
            if report.safe { "safe" } else { "unsafe" },
            types.join(", ")
        );
    }
    Ok(())
}
