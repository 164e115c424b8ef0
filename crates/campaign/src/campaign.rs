//! The campaign orchestrator: fans per-function work over the
//! work-stealing scheduler, consults the persistent declaration cache,
//! and narrates everything into the event journal.
//!
//! Determinism contract: the analysis path contains no randomness at
//! all, and the evaluation path gives every function its own RNG seeded
//! by [`derive_seed`], so both produce bit-identical results for any
//! `--jobs` value. This is the one loop over functions: `--jobs 1` is
//! the serial run.

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use healers_ballista::{Ballista, BallistaReport, Mode, TestClass};
use healers_core::{FunctionDecl, WrapperStats};
use healers_inject::FaultInjector;
use healers_libc::Libc;

use crate::cache::DeclCache;
use crate::fingerprint::{derive_seed, fingerprint};
use crate::journal::{CampaignEvent, Journal, JournalSender};
use crate::metrics::CampaignMetrics;
use crate::scheduler::run_indexed;

/// Configuration for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (values above the item count are clamped).
    pub jobs: usize,
    /// Persistent declaration cache directory (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// JSONL journal sink (`None` disables journaling).
    pub journal_path: Option<PathBuf>,
    /// Chrome trace-event timeline sink (`None` disables the export).
    /// Derived from the journal's sequence numbers, so it needs no
    /// journal file to be configured — recording happens in memory.
    pub trace_path: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            jobs: 1,
            cache_dir: None,
            journal_path: None,
            trace_path: None,
        }
    }
}

/// A running campaign: open cache, live journal, and the scheduler
/// settings shared by [`Campaign::analyze`] and [`Campaign::evaluate`].
pub struct Campaign {
    jobs: usize,
    cache: Option<DeclCache>,
    journal: Journal,
    trace_path: Option<PathBuf>,
}

impl Campaign {
    /// Open the configured cache and journal.
    ///
    /// # Errors
    ///
    /// Propagates failures creating the cache directory or journal file.
    pub fn new(config: &CampaignConfig) -> io::Result<Campaign> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(DeclCache::open(dir)?),
            None => None,
        };
        let sink: Option<Box<dyn io::Write + Send>> = match &config.journal_path {
            Some(path) => Some(Box::new(BufWriter::new(File::create(path)?))),
            None => None,
        };
        let journal = match (sink, config.trace_path.is_some()) {
            // Trace export needs the sequenced event stream recorded.
            (sink, true) => Journal::start_recording(sink),
            (Some(sink), false) => Journal::start(sink),
            (None, false) => Journal::disabled(),
        };
        Ok(Campaign {
            jobs: config.jobs.max(1),
            cache,
            journal,
            trace_path: config.trace_path.clone(),
        })
    }

    /// The open declaration cache, if caching is enabled.
    pub fn cache(&self) -> Option<&DeclCache> {
        self.cache.as_ref()
    }

    /// A cloneable handle for emitting events into this campaign's
    /// journal. Emissions after the campaign finishes (or is dropped)
    /// are silent no-ops, so worker threads outliving the campaign
    /// cannot panic it.
    pub fn journal_sender(&self) -> JournalSender {
        self.journal.sender()
    }

    /// Run the fault-injection analysis for `functions` in parallel and
    /// return their declarations in input order — bit-identical to
    /// [`healers_core::analyze`] for any worker count — plus the run's
    /// metrics. Cached declarations are returned without performing a
    /// single injected call.
    ///
    /// # Errors
    ///
    /// Propagates cache-write failures.
    ///
    /// # Panics
    ///
    /// Panics if a requested function is not exported by the library,
    /// matching [`healers_core::analyze`].
    pub fn analyze(
        &self,
        libc: &Libc,
        functions: &[&str],
    ) -> io::Result<(Vec<FunctionDecl>, CampaignMetrics)> {
        for name in functions {
            assert!(
                libc.get(name).is_some(),
                "{name} is not exported by the library"
            );
        }
        let start = Instant::now();
        let journal = self.journal.sender();
        let results = run_indexed(self.jobs, functions, |_, &name| {
            analyze_one(libc, name, self.cache.as_ref(), &journal)
        });

        let mut decls = Vec::with_capacity(functions.len());
        let mut metrics = CampaignMetrics {
            jobs: self.jobs as u64,
            ..CampaignMetrics::default()
        };
        for result in results {
            let (decl, per_fn) = result?;
            metrics.absorb(&per_fn);
            decls.push(decl);
        }
        metrics.elapsed = start.elapsed();
        Ok((decls, metrics))
    }

    /// Evaluate one Ballista configuration in parallel, merging
    /// per-function outcomes into a report in target-list order. Every
    /// function draws from its own RNG seeded by
    /// [`derive_seed`]`(ballista.seed(), name)`, so the report is
    /// bit-identical for any worker count.
    pub fn evaluate(
        &self,
        libc: &Libc,
        ballista: &Ballista,
        mode: Mode,
        decls: Vec<FunctionDecl>,
    ) -> (BallistaReport, CampaignMetrics) {
        let (report, metrics, _) = self.evaluate_traced(libc, ballista, mode, decls);
        (report, metrics)
    }

    /// [`Campaign::evaluate`], additionally merging the wrapper
    /// statistics of every per-test wrapper clone — the input of
    /// `healers report`. Each evaluation batch is bracketed by
    /// `Evaluating`/`Evaluated` journal events, which is what the trace
    /// export turns into per-function evaluation spans. The merged
    /// stats' counter fields are worker-count invariant (per-function
    /// stats merge in target-list order); the latency histograms inside
    /// are wall-clock and only populated while the `healers-trace` gate
    /// is on.
    pub fn evaluate_traced(
        &self,
        libc: &Libc,
        ballista: &Ballista,
        mode: Mode,
        decls: Vec<FunctionDecl>,
    ) -> (BallistaReport, CampaignMetrics, WrapperStats) {
        let start = Instant::now();
        let prepared = ballista.prepare_mode(libc, mode, decls);
        let journal = self.journal.sender();
        let functions = ballista.functions();
        let results = run_indexed(self.jobs, functions, |_, name| {
            journal.emit(CampaignEvent::Evaluating {
                function: name.clone(),
                mode: prepared.label().to_string(),
            });
            let mut rng = StdRng::seed_from_u64(derive_seed(ballista.seed(), name));
            let run = ballista.run_function_full(libc, &prepared, name, &mut rng);
            let failures = run
                .classes
                .iter()
                .filter(|c| matches!(c, TestClass::Crash | TestClass::Abort | TestClass::Hang))
                .count() as u64;
            journal.emit(CampaignEvent::Evaluated {
                function: name.clone(),
                mode: prepared.label().to_string(),
                tests: run.classes.len() as u64,
                failures,
                pages_shared: run.cow.pages_shared,
                pages_copied: run.cow.pages_copied,
            });
            // Live-progress counters: the `--progress` heartbeat reads
            // these from the process-global registry while workers run.
            let registry = healers_trace::metrics::global();
            registry.counter("campaign_evaluated_total").inc();
            registry.counter("campaign_faults_total").add(failures);
            run
        });

        let mut report = BallistaReport::new(prepared.label());
        let mut metrics = CampaignMetrics {
            jobs: self.jobs as u64,
            ..CampaignMetrics::default()
        };
        let mut wrapper_stats = WrapperStats::default();
        for (name, run) in functions.iter().zip(results) {
            metrics.functions += 1;
            metrics.evaluation_tests += run.classes.len() as u64;
            metrics.absorb_cow(&run.cow);
            wrapper_stats.absorb(&run.stats);
            for class in run.classes {
                report.record(name, class);
            }
        }
        metrics.elapsed = start.elapsed();
        (report, metrics, wrapper_stats)
    }

    /// Flush and close the journal, write the Chrome trace (when
    /// configured), and return the number of JSONL lines written (0
    /// when journaling is disabled).
    ///
    /// # Errors
    ///
    /// Propagates the journal drainer's I/O failure or a trace-file
    /// write failure.
    pub fn finish(mut self) -> io::Result<u64> {
        let tail = self.journal.shutdown()?;
        if let Some(path) = &self.trace_path {
            let trace = crate::chrome::chrome_trace(&tail.events);
            std::fs::write(path, trace.render())?;
        }
        Ok(tail.lines)
    }
}

/// One function's injection campaign: cache lookup, else run + store.
fn analyze_one(
    libc: &Libc,
    name: &str,
    cache: Option<&DeclCache>,
    journal: &JournalSender,
) -> io::Result<(FunctionDecl, CampaignMetrics)> {
    journal.emit(CampaignEvent::Started {
        function: name.to_string(),
    });
    // Completion and fault tallies land in the process-global registry
    // so `--progress` can report them without touching the journal.
    let registry = healers_trace::metrics::global();
    let injector = FaultInjector::new(libc, name).expect("validated before dispatch");
    let fp = fingerprint(&[&injector.signature()]);

    let mut per_fn = CampaignMetrics {
        functions: 1,
        ..CampaignMetrics::default()
    };
    if let Some(cache) = cache {
        if let Some(decl) = cache.lookup(name, fp) {
            journal.emit(CampaignEvent::Cached {
                function: name.to_string(),
                fingerprint: fp.to_string(),
            });
            per_fn.cache_hits = 1;
            registry.counter("campaign_analyzed_total").inc();
            return Ok((decl, per_fn));
        }
        per_fn.cache_misses = 1;
    }

    let report = injector.run();
    if report.adaptive_retries > 0 {
        journal.emit(CampaignEvent::Retried {
            function: name.to_string(),
            retries: report.adaptive_retries as u64,
        });
    }
    let failures = report
        .records
        .iter()
        .filter(|r| r.outcome.is_failure())
        .count() as u64;
    if failures > 0 {
        journal.emit(CampaignEvent::Faulted {
            function: name.to_string(),
            failures,
        });
    }
    journal.emit(CampaignEvent::Classified {
        function: name.to_string(),
        safe: report.safe,
        calls: report.calls as u64,
        retries: report.adaptive_retries as u64,
        fuel_used: report.fuel_used,
        pages_shared: report.cow.pages_shared,
        pages_copied: report.cow.pages_copied,
        robust: report
            .args
            .iter()
            .map(|a| a.robust.robust.notation())
            .collect(),
    });
    per_fn.injected_calls = report.calls as u64;
    per_fn.adaptive_retries = report.adaptive_retries as u64;
    per_fn.fuel_used = report.fuel_used;
    per_fn.absorb_cow(&report.cow);
    registry.counter("campaign_analyzed_total").inc();
    registry.counter("campaign_faults_total").add(failures);

    let decl = FunctionDecl::from_report(&report);
    if let Some(cache) = cache {
        cache.store(name, fp, &decl)?;
    }
    Ok((decl, per_fn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_core::decls_to_xml;

    const FUNCS: &[&str] = &["abs", "strlen", "asctime", "isatty"];

    #[test]
    fn parallel_analysis_matches_the_serial_pipeline() {
        let libc = Libc::standard();
        let serial = healers_core::analyze(&libc, FUNCS);
        for jobs in [1, 8] {
            let campaign = Campaign::new(&CampaignConfig {
                jobs,
                ..CampaignConfig::default()
            })
            .unwrap();
            let (decls, metrics) = campaign.analyze(&libc, FUNCS).unwrap();
            assert_eq!(
                decls_to_xml(&decls),
                decls_to_xml(&serial),
                "jobs={jobs} output differs from serial analyze"
            );
            assert_eq!(metrics.functions, FUNCS.len() as u64);
            assert!(metrics.injected_calls > 0);
            campaign.finish().unwrap();
        }
    }

    #[test]
    fn evaluation_is_worker_count_invariant() {
        let libc = Libc::standard();
        let ballista = Ballista::new()
            .with_functions(&["strcpy", "abs", "strlen"])
            .with_cap(40);
        let mut renders = Vec::new();
        for jobs in [1, 8] {
            let campaign = Campaign::new(&CampaignConfig {
                jobs,
                ..CampaignConfig::default()
            })
            .unwrap();
            let (report, metrics) =
                campaign.evaluate(&libc, &ballista, Mode::Unwrapped, Vec::new());
            assert!(metrics.evaluation_tests > 0);
            renders.push(report.render());
            campaign.finish().unwrap();
        }
        assert_eq!(renders[0], renders[1]);
    }

    #[test]
    fn evaluation_snapshot_telemetry_is_worker_count_invariant() {
        let libc = Libc::standard();
        let ballista = Ballista::new()
            .with_functions(&["strcpy", "abs", "strlen"])
            .with_cap(30);
        let mut seen = Vec::new();
        for jobs in [1, 8] {
            let campaign = Campaign::new(&CampaignConfig {
                jobs,
                ..CampaignConfig::default()
            })
            .unwrap();
            let (_, metrics) = campaign.evaluate(&libc, &ballista, Mode::Unwrapped, Vec::new());
            assert_eq!(
                metrics.snapshots, metrics.evaluation_tests,
                "one containment snapshot per evaluation test"
            );
            assert!(metrics.pages_shared > 0);
            assert_eq!(metrics.pages_restored, metrics.pages_copied);
            seen.push((
                metrics.snapshots,
                metrics.pages_shared,
                metrics.pages_copied,
            ));
            campaign.finish().unwrap();
        }
        assert_eq!(seen[0], seen[1], "cow counters must not depend on --jobs");
    }

    #[test]
    fn report_totals_include_check_work_of_crashed_calls() {
        // Full-auto closedir: the wrapper cannot fully validate DIR
        // pointers, so its checks run and some calls still crash. The
        // crashed tests' wrapper stats must still reach the campaign
        // totals — before the snapshot API they died with the child
        // image that ran them.
        let libc = Libc::standard();
        let ballista = Ballista::new().with_functions(&["closedir"]).with_cap(50);
        let decls = healers_core::analyze(&libc, &["closedir"]);
        let campaign = Campaign::new(&CampaignConfig::default()).unwrap();
        let (report, metrics, stats) =
            campaign.evaluate_traced(&libc, &ballista, Mode::FullAuto, decls);
        let outcome = report.function("closedir").unwrap();
        assert!(outcome.failures() > 0, "full-auto closedir must still fail");
        assert_eq!(
            stats.calls, metrics.evaluation_tests,
            "every test must contribute its wrapper call, crashed or not"
        );
        assert!(stats.checks > 0, "crashed calls still ran their checks");
        campaign.finish().unwrap();
    }

    #[test]
    fn warm_cache_performs_zero_injected_calls() {
        let dir =
            std::env::temp_dir().join(format!("healers-campaign-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CampaignConfig {
            jobs: 4,
            cache_dir: Some(dir.clone()),
            ..CampaignConfig::default()
        };
        let libc = Libc::standard();

        let cold = Campaign::new(&config).unwrap();
        let (cold_decls, cold_metrics) = cold.analyze(&libc, FUNCS).unwrap();
        assert_eq!(cold_metrics.cache_misses, FUNCS.len() as u64);
        assert!(cold_metrics.injected_calls > 0);
        cold.finish().unwrap();

        let warm = Campaign::new(&config).unwrap();
        let (warm_decls, warm_metrics) = warm.analyze(&libc, FUNCS).unwrap();
        assert_eq!(warm_metrics.cache_hits, FUNCS.len() as u64);
        assert_eq!(warm_metrics.injected_calls, 0, "warm run must not inject");
        assert_eq!(warm_metrics.fuel_used, 0);
        assert_eq!(decls_to_xml(&warm_decls), decls_to_xml(&cold_decls));
        warm.finish().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
