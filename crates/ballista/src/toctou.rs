//! Deterministic TOCTOU robustness scenarios (check-vs-call windows).
//!
//! The Ballista methodology drives single calls with exceptional
//! *values*; this module drives them with exceptional *schedules*. Each
//! scenario prepares a perfectly valid call, opens the wrapper's
//! check-vs-call window with [`begin_call`], runs one canned
//! [`WindowMutator`] on a second simulated thread inside the window —
//! revoking exactly the resource the checks just blessed — and then
//! lets [`finish_call`] issue the library call. Every step is explicit
//! and seeded by nothing: the same scenario table produces the same
//! report bytes on every run.
//!
//! Each scenario runs twice: once with the stock wrapper (the 2002
//! design, which validates once) and once with
//! `revalidate_on_preempt` — the hardening this reproduction adds. The
//! report is the argument for that knob: stock wrappers let the race
//! straight through to a crash; revalidation turns it into the
//! declared error return.
//!
//! [`begin_call`]: healers_core::RobustnessWrapper::begin_call
//! [`finish_call`]: healers_core::RobustnessWrapper::finish_call

use healers_core::{analyze, RobustnessWrapper, Verdict, WrapperBuilder, WrapperConfig};
use healers_inject::WindowMutator;
use healers_libc::{Libc, World};
use healers_simproc::{run_in_child, ChildResult, SimFault, SimValue};

/// A scenario's world preparation: returns `(victim args, mutator
/// target)`. Setup calls go through the wrapper: under interposition
/// every thread of the process is wrapped, and the stateful stream/dir
/// tables only know resources they watched being created.
type SetupFn =
    fn(&Libc, &mut RobustnessWrapper, &mut World) -> Result<(Vec<SimValue>, SimValue), SimFault>;

/// One check-vs-call race scenario.
struct Scenario {
    /// Report label, `victim/mutator`.
    name: &'static str,
    /// The wrapped function whose window the race exploits.
    victim: &'static str,
    /// Every function the scenario touches (victim first) — the
    /// declaration corpus the wrapper is built from.
    functions: &'static [&'static str],
    /// The racing thread's body.
    mutator: WindowMutator,
    /// Prepare the world and produce `(victim args, mutator target)`.
    setup: SetupFn,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "strlen/free",
            victim: "strlen",
            functions: &["strlen", "malloc", "strcpy", "free"],
            mutator: WindowMutator::FreeArg,
            setup: |libc, wr, w| {
                let block = wr.call(libc, w, "malloc", &[SimValue::Int(16)])?;
                let s = w.alloc_cstr("hello");
                wr.call(libc, w, "strcpy", &[block, SimValue::Ptr(s)])?;
                Ok((vec![block], block))
            },
        },
        Scenario {
            name: "memset/realloc-shrink",
            victim: "memset",
            functions: &["memset", "malloc", "realloc"],
            mutator: WindowMutator::ShrinkArg(8),
            setup: |libc, wr, w| {
                let block = wr.call(libc, w, "malloc", &[SimValue::Int(64)])?;
                Ok((vec![block, SimValue::Int(7), SimValue::Int(64)], block))
            },
        },
        Scenario {
            name: "fwrite/fclose",
            victim: "fwrite",
            functions: &["fwrite", "fopen", "fclose"],
            mutator: WindowMutator::CloseStream,
            setup: |libc, wr, w| {
                let path = w.alloc_cstr("/tmp/toctou");
                let mode = w.alloc_cstr("w");
                let f = wr.call(
                    libc,
                    w,
                    "fopen",
                    &[SimValue::Ptr(path), SimValue::Ptr(mode)],
                )?;
                let buf = w.alloc_buf(32);
                Ok((
                    vec![SimValue::Ptr(buf), SimValue::Int(1), SimValue::Int(8), f],
                    f,
                ))
            },
        },
        Scenario {
            name: "readdir/closedir",
            victim: "readdir",
            functions: &["readdir", "opendir", "closedir"],
            mutator: WindowMutator::CloseDir,
            setup: |libc, wr, w| {
                let path = w.alloc_cstr("/tmp");
                let d = wr.call(libc, w, "opendir", &[SimValue::Ptr(path)])?;
                Ok((vec![d], d))
            },
        },
    ]
}

/// How one raced call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceOutcome {
    /// The admitted call segfaulted — the race got through the wrapper.
    Crashed,
    /// The wrapper refused the call (window revalidation caught the
    /// revoked resource) and returned the declared error instead.
    Rejected,
    /// The call went through and the library happened to tolerate the
    /// mutated state.
    Survived,
}

impl RaceOutcome {
    /// Stable lowercase token for the report.
    pub fn label(self) -> &'static str {
        match self {
            RaceOutcome::Crashed => "crashed",
            RaceOutcome::Rejected => "rejected",
            RaceOutcome::Survived => "survived",
        }
    }
}

/// One scenario's pair of outcomes.
#[derive(Debug, Clone)]
pub struct ToctouRow {
    /// `victim/mutator` label.
    pub scenario: String,
    /// Outcome under the stock single-validation wrapper.
    pub stock: RaceOutcome,
    /// Outcome with `revalidate_on_preempt`.
    pub revalidated: RaceOutcome,
}

/// The full scenario sweep.
#[derive(Debug, Clone)]
pub struct ToctouReport {
    /// One row per scenario, in table order.
    pub rows: Vec<ToctouRow>,
}

impl ToctouReport {
    /// Scenarios the stock wrapper lost to the race.
    pub fn stock_crashes(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.stock == RaceOutcome::Crashed)
            .count()
    }

    /// Scenarios that still crash with revalidation on.
    pub fn revalidated_crashes(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.revalidated == RaceOutcome::Crashed)
            .count()
    }

    /// Render the fixed-width table (deterministic bytes).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>10} {:>12}\n",
            "scenario", "stock", "revalidated"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>10} {:>12}\n",
                row.scenario,
                row.stock.label(),
                row.revalidated.label()
            ));
        }
        out.push_str(&format!(
            "crashes: stock {} / revalidated {}\n",
            self.stock_crashes(),
            self.revalidated_crashes()
        ));
        out
    }
}

/// Run one scenario under one wrapper configuration. The racing
/// thread's mutation also goes through the wrapper — interposition
/// wraps every thread of the process, which is exactly why the stock
/// design is vulnerable: the mutator's call is individually valid, so
/// validation passes it, and only the *victim's* stale admission is
/// left holding a revoked resource.
fn run_scenario(
    libc: &Libc,
    scenario: &Scenario,
    decls: Vec<healers_core::FunctionDecl>,
    revalidate: bool,
) -> RaceOutcome {
    let mut config = WrapperConfig::semi_auto();
    config.revalidate_on_preempt = revalidate;
    let mut wrapper = WrapperBuilder::new().decls(decls).config(config).build();
    let parent = World::new_guarded();
    let mut verdict: Option<Verdict> = None;
    let (result, _child) = run_in_child(&parent, |w: &mut World| {
        w.proc.spawn_thread();
        let (args, target) = (scenario.setup)(libc, &mut wrapper, w)?;
        let pending = wrapper.begin_call(libc, w, scenario.victim, &args);
        w.proc.switch_to(1);
        let margs = scenario.mutator.args(target);
        wrapper.call(libc, w, scenario.mutator.function(), &margs)?;
        w.proc.switch_to(0);
        let (value, v) = wrapper.finish_call(libc, w, pending, true)?;
        verdict = Some(v);
        Ok(value)
    });
    match result {
        ChildResult::Returned(_) => match verdict {
            Some(Verdict::Rejected { .. }) => RaceOutcome::Rejected,
            _ => RaceOutcome::Survived,
        },
        _ => RaceOutcome::Crashed,
    }
}

/// Sweep every scenario under both wrapper configurations.
pub fn run_toctou_scenarios(libc: &Libc) -> ToctouReport {
    let rows = scenarios()
        .iter()
        .map(|s| {
            let decls = analyze(libc, s.functions);
            ToctouRow {
                scenario: s.name.to_string(),
                stock: run_scenario(libc, s, decls.clone(), false),
                revalidated: run_scenario(libc, s, decls, true),
            }
        })
        .collect();
    ToctouReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_wrapper_loses_at_least_one_race() {
        let libc = Libc::standard();
        let report = run_toctou_scenarios(&libc);
        assert_eq!(report.rows.len(), 4);
        assert!(
            report.stock_crashes() >= 1,
            "some race must get through the single-validation wrapper:\n{}",
            report.render()
        );
    }

    #[test]
    fn revalidation_wins_every_race() {
        let libc = Libc::standard();
        let report = run_toctou_scenarios(&libc);
        assert_eq!(
            report.revalidated_crashes(),
            0,
            "window revalidation must absorb every scenario:\n{}",
            report.render()
        );
    }

    #[test]
    fn report_bytes_are_deterministic() {
        let libc = Libc::standard();
        let a = run_toctou_scenarios(&libc).render();
        let b = run_toctou_scenarios(&libc).render();
        assert_eq!(a, b);
        assert!(a.starts_with("scenario"), "{a}");
    }
}
