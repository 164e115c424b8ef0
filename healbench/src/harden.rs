//! `harden`: the cold pipeline a hardener waits for. Fault-injection
//! analysis of the 86 Ballista targets with no declaration cache, then
//! the Figure 6 evaluation in all three configurations, all at
//! [`JOBS`] campaign jobs.
//!
//! The seed orders the targets, afresh for every pipeline of a run.
//! Declarations and Figure 6 totals do not depend on the order, since
//! every function is analysed and sampled on its own; which worker
//! meets the stragglers (`fwrite`, `fread`) when does, so a run's
//! median is taken over several orders.

use std::thread::ThreadId;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use healers_ballista::fingerprint::derive_seed;
use healers_ballista::{ballista_targets, Ballista, BallistaReport, Mode};
use healers_campaign::{run_indexed, Campaign, CampaignConfig, CampaignMetrics};
use healers_core::{decls_to_xml, CheckCounters, FunctionDecl};
use healers_inject::FaultInjector;
use healers_libc::Libc;

use crate::speed::Pace;
use crate::stats::{Checked, Fnv, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Traced, JOBS};

/// Figure 6 outcome of one configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fig6 {
    pub tests: usize,
    pub failing_functions: usize,
    pub crashes: usize,
}

impl Fig6 {
    fn of(report: &BallistaReport) -> Fig6 {
        let totals = report.totals();
        Fig6 {
            tests: totals.tests,
            failing_functions: report.functions_with_failures().len(),
            crashes: totals.crashes,
        }
    }
}

/// What the pipeline must produce: the declarations' digest and
/// Figure 6 for the unwrapped, full-auto and semi-auto configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// [`decls_digest`] of the 86 declarations.
    pub decls: u64,
    pub fig6: [Fig6; 3],
}

/// The reference outputs, recorded from this reproduction.
pub const REFERENCE: Reference = Reference {
    decls: 0x2f81_7963_6f84_4e86,
    fig6: [
        Fig6 {
            tests: 4718,
            failing_functions: 77,
            crashes: 2118,
        },
        Fig6 {
            tests: 4718,
            failing_functions: 11,
            crashes: 45,
        },
        Fig6 {
            tests: 4718,
            failing_functions: 0,
            crashes: 0,
        },
    ],
};

/// FNV-1a over the Figure 2 XML of `decls` in name order, so the digest
/// does not depend on the seeded target order.
pub fn decls_digest(decls: &[FunctionDecl]) -> u64 {
    let mut sorted = decls.to_vec();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut hash = Fnv::new();
    hash.eat(decls_to_xml(&sorted).as_bytes());
    hash.finish()
}

/// Compare one pipeline's outputs with `reference`: one checked
/// operation for the declarations and one per configuration.
pub fn check(decls: u64, fig6: &[Fig6; 3], reference: &Reference, checked: &mut Checked) {
    if decls != reference.decls {
        eprintln!(
            "harden: declarations digest {decls:#018x}, reference {:#018x}",
            reference.decls
        );
    }
    checked.check(decls == reference.decls);
    for (got, want) in fig6.iter().zip(&reference.fig6) {
        if got != want {
            eprintln!("harden: Figure 6 {got:?}, reference {want:?}");
        }
        checked.check(got == want);
    }
}

/// The 86 targets in the order `seed` gives pipeline `pass`.
fn targets(seed: u64, pass: u64) -> Vec<&'static str> {
    let mut rng = StdRng::seed_from_u64(seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut targets = ballista_targets();
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.random_range(0..=i));
    }
    targets
}

/// Wall times and counters of one pipeline through the campaign
/// orchestrator.
struct Pass {
    decls_s: f64,
    fig6_s: f64,
    /// Slowdown of the analysis and of the evaluation.
    slowdown: [f64; 2],
    metrics: CampaignMetrics,
}

/// The analysis and the evaluation are each a step between two speed
/// probes; [`Pass`] holds the times as measured and the slowdowns.
fn pipeline(libc: &Libc, targets: &[&str], checked: &mut Checked, pace: &mut Pace) -> Pass {
    let campaign = Campaign::new(&CampaignConfig {
        jobs: JOBS,
        ..CampaignConfig::default()
    })
    .expect("a campaign without cache or journal opens no files");
    let ballista = Ballista::new().with_functions(targets);
    pace.restart();
    let started = Instant::now();
    let (decls, mut metrics) = campaign.analyze(libc, targets).expect("no cache to write");
    let decls_s = started.elapsed().as_secs_f64();
    let decls_slowdown = pace.step();
    let started = Instant::now();
    let mut fig6 = [Fig6::default(); 3];
    for (slot, mode) in fig6.iter_mut().zip(Mode::ALL) {
        let (report, evaluated) = campaign.evaluate(libc, &ballista, mode, decls.clone());
        metrics.absorb(&evaluated);
        *slot = Fig6::of(&report);
    }
    let fig6_s = started.elapsed().as_secs_f64();
    let fig6_slowdown = pace.step();
    campaign.finish().expect("no journal to flush");
    check(decls_digest(&decls), &fig6, &REFERENCE, checked);
    Pass {
        decls_s,
        fig6_s,
        slowdown: [decls_slowdown, fig6_slowdown],
        metrics,
    }
}

/// Results of the untraced `harden` phase, one sample per pipeline, at
/// the reference speed.
#[derive(Default)]
pub struct Run {
    pub decls_s: Samples,
    pub fig6_s: Samples,
    pub checked: Checked,
}

/// Run the next pipeline.
pub fn run(libc: &Libc, seed: u64, run: &mut Run, pace: &mut Pace) {
    let targets = targets(seed, run.decls_s.len() as u64);
    let pass = pipeline(libc, &targets, &mut run.checked, pace);
    run.decls_s.push(pass.decls_s / pass.slowdown[0]);
    run.fig6_s.push(pass.fig6_s / pass.slowdown[1]);
}

/// A traced pipeline: the public calls the orchestrator makes — one
/// `FaultInjector::run` per function, then per configuration
/// `Ballista::prepare_mode` and one `Ballista::run_function_full` per
/// function — on the orchestrator's scheduler, each call a span. An
/// untraced pipeline runs first as the overhead baseline and the source
/// of the containment counters.
pub fn trace(libc: &Libc, seed: u64, tracer: &mut Tracer, m: &mut Metrics) -> Traced {
    let targets = targets(seed, 0);
    let mut checked = Checked::default();
    let phase = tracer.begin("harden");
    // The first pipeline of a process pays one-time costs, so the
    // baseline is the second.
    let mut pace = Pace::start(JOBS);
    pipeline(libc, &targets, &mut checked, &mut pace);
    let base = pipeline(libc, &targets, &mut checked, &mut pace);

    let span = tracer.begin("campaign.analyze");
    let started = Instant::now();
    let analysed = run_indexed(JOBS, &targets, |_, &name| {
        let start = Instant::now();
        let report = FaultInjector::new(libc, name)
            .expect("Ballista targets are exported")
            .run();
        let counts = [
            report.calls as u64,
            report.adaptive_retries as u64,
            report.fuel_used,
        ];
        (
            FunctionDecl::from_report(&report),
            counts,
            Timed::since(start),
        )
    });
    let analyse_s = started.elapsed().as_secs_f64();
    let (mut inject_ms, mut busy_s, mut counts) = (Samples::default(), 0.0, [0u64; 3]);
    let mut decls = Vec::with_capacity(targets.len());
    for (name, (decl, c, timed)) in targets.iter().zip(analysed) {
        timed.record(tracer, format!("inject {name}"));
        inject_ms.push(timed.secs() * 1e3);
        busy_s += timed.secs();
        for (total, c) in counts.iter_mut().zip(c) {
            *total += c;
        }
        decls.push(decl);
    }
    tracer.end(span);

    let ballista = Ballista::new().with_functions(&targets);
    let (mut fig6, mut mode_s) = ([Fig6::default(); 3], [0.0; 3]);
    let (mut tests, mut hangs) = (0, 0);
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        let span = tracer.begin(format!("ballista {}", mode.token()));
        let started = Instant::now();
        let prepared = ballista.prepare_mode(libc, mode, decls.clone());
        let runs = run_indexed(JOBS, ballista.functions(), |_, name| {
            let start = Instant::now();
            let mut rng = StdRng::seed_from_u64(derive_seed(ballista.seed(), name));
            let run = ballista.run_function_full(libc, &prepared, name, &mut rng);
            (run.classes, Timed::since(start))
        });
        mode_s[i] = started.elapsed().as_secs_f64();
        let mut report = BallistaReport::new(prepared.label());
        for (name, (classes, timed)) in ballista.functions().iter().zip(runs) {
            timed.record(tracer, format!("ballista {} {name}", mode.token()));
            busy_s += timed.secs();
            for class in classes {
                report.record(name, class);
            }
        }
        tracer.end(span);
        fig6[i] = Fig6::of(&report);
        tests += report.totals().tests;
        hangs += report.totals().hangs;
    }
    check(decls_digest(&decls), &fig6, &REFERENCE, &mut checked);
    tracer.end(phase);

    let traced_s = analyse_s + mode_s.iter().sum::<f64>();
    m.put("inject.fn_ms.p50", inject_ms.median());
    m.put("inject.fn_ms.max", inject_ms.max());
    m.put("inject.straggler_share", inject_ms.max() / inject_ms.sum());
    m.put("inject.injected_calls", counts[0] as f64);
    m.put("inject.adaptive_retries", counts[1] as f64);
    m.put("inject.fuel_used", counts[2] as f64);
    m.put("ballista.mode_s.unwrapped", mode_s[0]);
    m.put("ballista.mode_s.full", mode_s[1]);
    m.put("ballista.mode_s.semi", mode_s[2]);
    m.put("ballista.tests", tests as f64);
    m.put("ballista.hangs", hangs as f64);
    m.put(
        "campaign.parallel_efficiency",
        busy_s / (JOBS as f64 * traced_s),
    );
    m.put("simproc.snapshots", base.metrics.snapshots as f64);
    m.put("simproc.pages_shared", base.metrics.pages_shared as f64);
    m.put("simproc.pages_copied", base.metrics.pages_copied as f64);
    println!(
        "{}",
        inject_ms.describe("inject per-function analysis", "ms")
    );
    Traced {
        checked,
        overhead_pct: (traced_s / (base.decls_s + base.fig6_s) - 1.0) * 100.0,
        kernels: CheckCounters::default(),
    }
}

/// A call timed on a worker thread, recorded as a span once back on
/// the main thread.
struct Timed {
    start: Instant,
    end: Instant,
    thread: ThreadId,
}

impl Timed {
    fn since(start: Instant) -> Timed {
        Timed {
            start,
            end: Instant::now(),
            thread: std::thread::current().id(),
        }
    }

    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    fn record(&self, tracer: &mut Tracer, name: String) {
        tracer.record(name, self.start, self.end, self.thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_outputs_pass_every_check() {
        let mut checked = Checked::default();
        check(REFERENCE.decls, &REFERENCE.fig6, &REFERENCE, &mut checked);
        assert_eq!(
            checked,
            Checked {
                attempted: 4,
                failed: 0
            }
        );
    }

    #[test]
    fn a_corrupted_reference_value_is_a_failed_operation() {
        let mut corrupted = REFERENCE;
        corrupted.fig6[1].crashes += 1;
        let mut checked = Checked::default();
        check(REFERENCE.decls, &REFERENCE.fig6, &corrupted, &mut checked);
        assert_eq!(
            checked,
            Checked {
                attempted: 4,
                failed: 1
            }
        );
        corrupted.decls ^= 1;
        check(REFERENCE.decls, &REFERENCE.fig6, &corrupted, &mut checked);
        assert_eq!(checked.failed, 3);
    }

    #[test]
    fn the_seed_orders_the_targets_without_changing_them() {
        let (mut a, mut b) = (targets(1, 0), targets(2, 0));
        assert_ne!(a, b);
        assert_ne!(a, targets(1, 1));
        assert_eq!(a, targets(1, 0));
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.len(), 86);
    }
}
