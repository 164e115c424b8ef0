//! Contained sequence execution.
//!
//! A whole sequence runs inside **one** copy-on-write child
//! ([`run_in_child`]) of a pristine guarded world: state flows
//! between the steps (that is the point of sequence fuzzing), but
//! nothing a sequence does — partial writes, allocator corruption, a
//! fault at step 3 — can leak into the fuzzer or the next sequence.
//! The same sequence can be executed *unwrapped* (calls go straight to
//! the library; crashes are the coverage signal) or *wrapped* (calls
//! route through a [`RobustnessWrapper`]; check outcomes are the
//! coverage signal and a crash is a finding).
//!
//! # Threaded execution
//!
//! Steps carry thread lanes and the genome may place check-vs-call
//! windows ([`crate::sequence::Preempt`]). Execution is still one pass
//! over the step list — steps of the same lane always run in list
//! order — but when a windowed step's wrapper checks complete, up to
//! `budget` *immediately following, other-lane* steps are pulled
//! forward and executed before its library call. The pull stops at the
//! first same-lane step, at any step consuming the windowed step's
//! result, and at the budget; pulled steps get no windows of their own
//! (depth one). The identical window runs in unwrapped mode (pulled
//! steps execute just before the library call), so wrapped and
//! unwrapped executions see the same world-mutation order and the
//! transparency oracle stays sound: checks are world-read-only, so the
//! only behavioral difference a window can make *is* a TOCTOU.
//!
//! Three schedule sources: the genome's own `preempt` lines
//! ([`execute`]), a seeded [`Scheduler`] deriving budgets from the
//! master seed ([`execute_with_schedule`]), or none at all
//! ([`execute_reference`] — the single-threaded reference executor the
//! schedule-invariance tests compare against; lanes still run on their
//! own simulated threads, only the windows are gone).

use healers_core::checker::CheckKind;
use healers_core::wrapper::{RobustnessWrapper, WrapperBuilder, WrapperConfig};
use healers_core::{CheckOutcomes, FunctionDecl};
use healers_inject::benign_arg;
use healers_libc::{Libc, World};
use healers_simproc::{
    run_in_child, ChildResult, CoverageSite, FaultSite, PageRun, Protection, Scheduler, SimFault,
    SimValue,
};
use healers_trace::recorder::flight;
use healers_typesys::Outcome;

use crate::sequence::{ArgSpec, Sequence};

/// Stable lowercase token for an [`Outcome`].
pub fn outcome_label(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Success => "success",
        Outcome::ErrorReturn => "error",
        Outcome::Crash => "crash",
        Outcome::Hang => "hang",
        Outcome::Abort => "abort",
    }
}

/// Parse an outcome token back (pin replay).
pub fn outcome_from_label(label: &str) -> Option<Outcome> {
    Some(match label {
        "success" => Outcome::Success,
        "error" => Outcome::ErrorReturn,
        "crash" => Outcome::Crash,
        "hang" => Outcome::Hang,
        "abort" => Outcome::Abort,
        _ => return None,
    })
}

/// What one executed step did.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// The step's index in the sequence. Records are sorted by index,
    /// but with windows a faulting window can leave a gap (the victim
    /// whose window crashed never reaches its own call).
    pub index: usize,
    /// The function called.
    pub function: String,
    /// The thread lane the step ran on.
    pub thread: u32,
    /// Robustness classification of the call.
    pub outcome: Outcome,
    /// The returned value, if the call returned.
    pub returned: Option<SimValue>,
    /// `errno` after the call (zeroed before each step; per-thread, so
    /// window steps cannot clobber the victim's value).
    pub errno: i32,
    /// Address-free fault provenance, when the step segfaulted.
    pub site: Option<CoverageSite>,
    /// Check-outcome deltas this step contributed (wrapped mode only):
    /// `(kind, passed, failed, repaired)` for kinds with activity.
    pub checks: Vec<(CheckKind, u64, u64, u64)>,
    /// Whether this step executed inside another step's window.
    pub in_window: bool,
    /// Functions pulled into *this* step's check-vs-call window, in
    /// execution order (empty for unwindowed steps) — the fuzzer's
    /// schedule-edge coverage signal.
    pub window: Vec<String>,
}

/// The result of executing one sequence in one mode.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Per-step records in index order; shorter than the sequence if a
    /// step faulted.
    pub steps: Vec<StepRecord>,
    /// Whether every step ran without a fault.
    pub completed: bool,
    /// Index of the step whose call faulted, if any (with windows the
    /// faulting record is not necessarily the last by index).
    pub fault: Option<usize>,
    /// Violations the wrapper absorbed (0 in unwrapped mode).
    pub violations: u64,
    /// Argument fixes the wrapper applied (0 outside
    /// `ViolationAction::Repair`).
    pub repairs: u64,
    /// Wrapped calls preempted inside their window (0 when unthreaded).
    pub preempted_calls: u64,
    /// Total wrapped check outcomes (empty in unwrapped mode).
    pub check_outcomes: CheckOutcomes,
    /// FNV-1a digest of the final world image (page-run layout +
    /// readable page contents + every thread's `errno`); 0 when the
    /// run faulted.
    pub digest: u64,
}

/// How to execute a sequence.
pub enum ExecMode<'d> {
    /// Straight to the library.
    Unwrapped,
    /// Through a robustness wrapper built from these declarations.
    Wrapped {
        /// The declaration corpus for the wrapper.
        decls: &'d [FunctionDecl],
        /// Wrapper configuration (full-auto for `mode full`, semi-auto
        /// with overrides for `mode semi`).
        config: WrapperConfig,
    },
}

/// Where window budgets come from.
enum WindowSource {
    /// The genome's own `preempt` lines.
    Genome,
    /// Derived from a seed at every step with pending other-lane work —
    /// identical decisions in wrapped and unwrapped mode, because the
    /// decision consumes randomness only as a function of the sequence
    /// shape, never of check results.
    Seeded(Scheduler),
    /// No windows at all: the reference executor.
    Reference,
}

/// Materialize one argument spec into a concrete [`SimValue`],
/// allocating strings/buffers in the child world as needed.
fn materialize(
    world: &mut World,
    libc: &Libc,
    function: &str,
    index: usize,
    spec: &ArgSpec,
    results: &[Option<SimValue>],
) -> SimValue {
    match spec {
        ArgSpec::Int(v) => SimValue::Int(*v),
        ArgSpec::Dbl(v) => SimValue::Double(*v),
        ArgSpec::Null => SimValue::NULL,
        ArgSpec::Wild(a) => SimValue::Ptr(*a),
        ArgSpec::Str(s) => SimValue::Ptr(world.alloc_cstr(s)),
        ArgSpec::Buf(n) => SimValue::Ptr(world.alloc_buf(*n)),
        ArgSpec::Out(i) => match results.get(*i).copied().flatten() {
            Some(SimValue::Void) | None => SimValue::Int(0),
            Some(v) => v,
        },
        ArgSpec::Benign => {
            let proto = &libc
                .get(function)
                .unwrap_or_else(|| panic!("undefined symbol: {function}"))
                .proto;
            benign_arg(proto, index, world)
        }
    }
}

/// The steps eligible for step `i`'s window, uncapped: the immediately
/// following other-lane steps, stopping at the first same-lane step and
/// at any step consuming `out:i`. A pure function of the sequence
/// shape, so wrapped and unwrapped executions always agree on it.
fn eligible_window(seq: &Sequence, i: usize, done: &[bool]) -> Vec<usize> {
    let me = seq.steps[i].thread;
    let mut out = Vec::new();
    for (j, step) in seq.steps.iter().enumerate().skip(i + 1) {
        if done[j] || step.thread == me {
            break;
        }
        if step
            .args
            .iter()
            .any(|a| matches!(a, ArgSpec::Out(r) if *r == i))
        {
            break;
        }
        out.push(j);
    }
    out
}

/// Check-outcome deltas between two snapshots, filtered to active kinds.
fn outcome_delta(after: &CheckOutcomes, before: &CheckOutcomes) -> Vec<(CheckKind, u64, u64, u64)> {
    CheckKind::ALL
        .iter()
        .map(|&k| {
            (
                k,
                after.passed(k) - before.passed(k),
                after.failed(k) - before.failed(k),
                after.repaired(k) - before.repaired(k),
            )
        })
        .filter(|(_, p, f, _)| *p + *f > 0)
        .collect()
}

/// Merge two per-step check deltas (a windowed step's begin + finish).
fn merge_checks(
    mut a: Vec<(CheckKind, u64, u64, u64)>,
    b: Vec<(CheckKind, u64, u64, u64)>,
) -> Vec<(CheckKind, u64, u64, u64)> {
    for (kind, p, f, r) in b {
        match a.iter_mut().find(|(k, ..)| *k == kind) {
            Some((_, ap, af, ar)) => {
                *ap += p;
                *af += f;
                *ar += r;
            }
            None => a.push((kind, p, f, r)),
        }
    }
    a.sort_by_key(|(k, ..)| *k as u8);
    a
}

/// Execute one step (and, if `pulled` is non-empty, its window).
/// Returns `Err` on a fault, after recording the faulting step.
#[allow(clippy::too_many_arguments)]
fn exec_step(
    libc: &Libc,
    seq: &Sequence,
    w: &mut World,
    wrapper: &mut Option<RobustnessWrapper>,
    records: &mut Vec<StepRecord>,
    results: &mut [Option<SimValue>],
    done: &mut [bool],
    i: usize,
    in_window: bool,
    pulled: &[usize],
) -> Result<(), SimFault> {
    let step = &seq.steps[i];
    done[i] = true;
    w.proc.switch_to(step.thread);
    let proto_len = libc
        .get(&step.function)
        .unwrap_or_else(|| panic!("undefined symbol: {}", step.function))
        .proto
        .params
        .len();
    // Materialize exactly the declared arity: missing specs fall back
    // to benign, extras are dropped.
    let args: Vec<SimValue> = (0..proto_len)
        .map(|k| {
            let spec = step.args.get(k).unwrap_or(&ArgSpec::Benign);
            materialize(w, libc, &step.function, k, spec, results)
        })
        .collect();
    w.proc.set_errno(0);
    let preempted = !pulled.is_empty();
    let window: Vec<String> = pulled
        .iter()
        .map(|&j| seq.steps[j].function.clone())
        .collect();

    let (call_result, checks) = if wrapper.is_some() {
        let before = wrapper.as_ref().unwrap().stats.check_outcomes;
        let pending = wrapper
            .as_mut()
            .unwrap()
            .begin_call(libc, w, &step.function, &args);
        let mut checks = outcome_delta(&wrapper.as_ref().unwrap().stats.check_outcomes, &before);
        for &j in pulled {
            exec_step(libc, seq, w, wrapper, records, results, done, j, true, &[])?;
        }
        w.proc.switch_to(step.thread);
        let before = wrapper.as_ref().unwrap().stats.check_outcomes;
        let call_result = wrapper
            .as_mut()
            .unwrap()
            .finish_call(libc, w, pending, preempted)
            .map(|(v, _)| v);
        checks = merge_checks(
            checks,
            outcome_delta(&wrapper.as_ref().unwrap().stats.check_outcomes, &before),
        );
        (call_result, checks)
    } else {
        // The identical window in unwrapped mode: pulled steps run just
        // before the library call (there are no checks to separate
        // them from).
        for &j in pulled {
            exec_step(libc, seq, w, wrapper, records, results, done, j, true, &[])?;
        }
        w.proc.switch_to(step.thread);
        (libc.call(w, &step.function, &args), Vec::new())
    };

    match call_result {
        Ok(v) => {
            let child_result = ChildResult::Returned(v);
            let (outcome, returned, errno) =
                healers_inject::classify_child_result(&child_result, w);
            records.push(StepRecord {
                index: i,
                function: step.function.clone(),
                thread: step.thread,
                outcome,
                returned,
                errno,
                site: None,
                checks,
                in_window,
                window,
            });
            results[i] = Some(v);
            Ok(())
        }
        Err(fault) => {
            let child_result = ChildResult::Faulted(fault.clone());
            let (outcome, returned, errno) =
                healers_inject::classify_child_result(&child_result, w);
            let site = FaultSite::resolve(&fault, &w.proc).map(|s| {
                let mut site = s.coverage_site();
                // The schedule-edge component: a fault inside a window,
                // or in a call that was preempted, is a TOCTOU-class
                // site that single-threaded execution cannot express.
                site.preempted = in_window || preempted;
                site
            });
            // The crash that ends a sequence is exactly what the
            // flight recorder exists to explain: the faulting call
            // with its resolved site joins the event ring the
            // `--flight-dump` artifact snapshots.
            flight().record(
                "crash",
                &step.function,
                &site
                    .as_ref()
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| format!("{fault:?}")),
            );
            records.push(StepRecord {
                index: i,
                function: step.function.clone(),
                thread: step.thread,
                outcome,
                returned,
                errno,
                site,
                checks,
                in_window,
                window,
            });
            Err(fault)
        }
    }
}

fn execute_inner(
    libc: &Libc,
    seq: &Sequence,
    mode: ExecMode<'_>,
    source: WindowSource,
) -> ExecResult {
    let parent = World::new_guarded();
    let mut wrapper: Option<RobustnessWrapper> = match mode {
        ExecMode::Unwrapped => None,
        ExecMode::Wrapped { decls, config } => Some(
            WrapperBuilder::new()
                .decls(decls.to_vec())
                .config(config)
                .build(),
        ),
    };

    let mut records: Vec<StepRecord> = Vec::with_capacity(seq.len());
    let lanes = seq.max_thread();
    let (result, child) = run_in_child(&parent, |w: &mut World| {
        for _ in 0..lanes {
            w.proc.spawn_thread();
        }
        let mut source = source;
        let mut results: Vec<Option<SimValue>> = vec![None; seq.len()];
        let mut done = vec![false; seq.len()];
        for i in 0..seq.len() {
            if done[i] {
                continue;
            }
            let eligible = eligible_window(seq, i, &done);
            let budget = match &mut source {
                WindowSource::Genome => seq.window_budget_at(i).unwrap_or(0),
                WindowSource::Seeded(sched) => sched.window_budget(eligible.len()),
                WindowSource::Reference => 0,
            } as usize;
            let pulled: Vec<usize> = eligible.into_iter().take(budget).collect();
            exec_step(
                libc,
                seq,
                w,
                &mut wrapper,
                &mut records,
                &mut results,
                &mut done,
                i,
                false,
                &pulled,
            )?;
        }
        // Wind the lanes down so the final thread states (and thus the
        // digest surface) are schedule-independent.
        for t in 1..=lanes {
            w.proc.finish_thread(t);
            w.proc.join_thread(t);
        }
        Ok(SimValue::Void)
    });

    let completed = matches!(result, ChildResult::Returned(_));
    // The faulting record is the last one *pushed* (execution order),
    // which with windows is not necessarily the last by index.
    let fault = if completed {
        None
    } else {
        records.last().map(|r| r.index)
    };
    records.sort_by_key(|r| r.index);
    let digest = if completed { world_digest(&child) } else { 0 };
    let (violations, repairs, preempted_calls, check_outcomes) = match &wrapper {
        Some(wr) => (
            wr.stats.violations,
            wr.stats.repairs,
            wr.stats.preempted_calls,
            wr.stats.check_outcomes,
        ),
        None => (0, 0, 0, CheckOutcomes::default()),
    };
    // The parent is the rollback: dropping the child discards exactly
    // the pages the sequence dirtied.
    drop(child);
    drop(parent);
    ExecResult {
        steps: records,
        completed,
        fault,
        violations,
        repairs,
        preempted_calls,
        check_outcomes,
        digest,
    }
}

/// Execute `seq` in `mode` against a fresh guarded world, honoring the
/// genome's own `preempt` windows. The whole run happens inside a
/// single CoW child; the parent world never changes.
pub fn execute(libc: &Libc, seq: &Sequence, mode: ExecMode<'_>) -> ExecResult {
    execute_inner(libc, seq, mode, WindowSource::Genome)
}

/// Execute `seq` with window budgets derived from `schedule_seed`
/// instead of the genome's `preempt` lines — the seeded-scheduler mode
/// the schedule-invariance property sweeps over. A sequence with no
/// cross-lane adjacency (or no lanes at all) executes identically for
/// every seed.
pub fn execute_with_schedule(
    libc: &Libc,
    seq: &Sequence,
    mode: ExecMode<'_>,
    schedule_seed: u64,
) -> ExecResult {
    execute_inner(
        libc,
        seq,
        mode,
        WindowSource::Seeded(Scheduler::from_seed(schedule_seed)),
    )
}

/// Execute `seq` with **no** windows: the single-threaded reference
/// executor. Lanes still run their steps on their own simulated
/// threads (stacks and per-thread `errno` behave identically), but
/// every step's checks and call are adjacent — the execution model of
/// the 2002 paper.
pub fn execute_reference(libc: &Libc, seq: &Sequence, mode: ExecMode<'_>) -> ExecResult {
    execute_inner(libc, seq, mode, WindowSource::Reference)
}

/// FNV-1a over the final world image: every page run's layout, the
/// contents of readable runs, and every thread's `errno` (id order).
/// Two worlds with the same digest went through the same observable
/// history — this is the transparency oracle for wrapped-vs-unwrapped
/// differential runs. Single-threaded worlds digest exactly the bytes
/// they did before threads existed.
pub fn world_digest(world: &World) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let mut addr: u32 = 0;
    loop {
        let run: PageRun = world.proc.mem.page_run(addr);
        let prot_tag: u8 = match run.prot {
            None => 0,
            Some(Protection::None) => 1,
            Some(Protection::ReadOnly) => 2,
            Some(Protection::ReadWrite) => 3,
            Some(Protection::WriteOnly) => 4,
        };
        eat(&run.start.to_le_bytes());
        eat(&run.pages.to_le_bytes());
        eat(&[prot_tag]);
        if run.prot.is_some_and(|p| p.allows_read()) {
            let len = (u64::from(run.last()) - u64::from(run.start) + 1) as u32;
            let bytes = world
                .proc
                .mem
                .read_bytes(run.start, len)
                .expect("readable run must read");
            eat(&bytes);
        }
        if run.last() == u32::MAX {
            break;
        }
        addr = run.last() + 1;
    }
    for t in world.proc.threads() {
        eat(&t.errno.to_le_bytes());
    }
    hash
}

/// Convenience: execute wrapped with the full-auto configuration.
pub fn execute_wrapped(libc: &Libc, seq: &Sequence, decls: &[FunctionDecl]) -> ExecResult {
    execute(
        libc,
        seq,
        ExecMode::Wrapped {
            decls,
            config: WrapperConfig::full_auto(),
        },
    )
}

/// Convenience: execute straight against the library.
pub fn execute_unwrapped(libc: &Libc, seq: &Sequence) -> ExecResult {
    execute(libc, seq, ExecMode::Unwrapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{CallStep, Preempt};
    use healers_core::analyze;

    fn seq(steps: Vec<CallStep>) -> Sequence {
        Sequence::from_steps(steps)
    }

    fn step(function: &str, args: Vec<ArgSpec>) -> CallStep {
        CallStep::new(function, args)
    }

    fn lane_step(function: &str, args: Vec<ArgSpec>, thread: u32) -> CallStep {
        let mut s = CallStep::new(function, args);
        s.thread = thread;
        s
    }

    #[test]
    fn outputs_flow_into_later_steps() {
        let libc = Libc::standard();
        let s = seq(vec![
            step("malloc", vec![ArgSpec::Int(24)]),
            step(
                "strcpy",
                vec![ArgSpec::Out(0), ArgSpec::Str("hello".into())],
            ),
            step("strlen", vec![ArgSpec::Out(0)]),
            step("free", vec![ArgSpec::Out(0)]),
        ]);
        let r = execute_unwrapped(&libc, &s);
        assert!(r.completed, "{:?}", r.steps);
        assert_eq!(r.steps.len(), 4);
        assert_eq!(r.steps[2].returned, Some(SimValue::Int(5)));
        assert!(r.digest != 0);
        assert_eq!(r.fault, None);
    }

    #[test]
    fn faulting_step_stops_the_sequence_and_yields_a_site() {
        let libc = Libc::standard();
        let s = seq(vec![
            step("malloc", vec![ArgSpec::Int(8)]),
            step(
                "strcpy",
                vec![ArgSpec::Out(0), ArgSpec::Str("way too long for 8".into())],
            ),
            step("free", vec![ArgSpec::Out(0)]),
        ]);
        let r = execute_unwrapped(&libc, &s);
        assert!(!r.completed);
        assert_eq!(r.steps.len(), 2, "sequence stops at the faulting step");
        assert_eq!(r.steps[1].outcome, Outcome::Crash);
        assert_eq!(r.fault, Some(1));
        let site = r.steps[1].site.expect("segv has provenance");
        assert_eq!(site.to_string(), "write:unmapped:guard-overrun");
    }

    #[test]
    fn use_after_free_is_its_own_coverage_site() {
        let libc = Libc::standard();
        let s = seq(vec![
            step("malloc", vec![ArgSpec::Int(24)]),
            step("free", vec![ArgSpec::Out(0)]),
            step("strlen", vec![ArgSpec::Out(0)]),
        ]);
        let r = execute_unwrapped(&libc, &s);
        assert!(!r.completed);
        let site = r.steps[2].site.expect("uaf faults");
        assert!(site.to_string().contains("freed-block"), "{site}");
    }

    #[test]
    fn wrapper_absorbs_the_overrun_and_reports_check_outcomes() {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["malloc", "strcpy", "free"]);
        let s = seq(vec![
            step("malloc", vec![ArgSpec::Int(8)]),
            step(
                "strcpy",
                vec![ArgSpec::Out(0), ArgSpec::Str("way too long for 8".into())],
            ),
            step("free", vec![ArgSpec::Out(0)]),
        ]);
        let r = execute_wrapped(&libc, &s, &decls);
        assert!(
            r.completed,
            "wrapper must absorb the overrun: {:?}",
            r.steps
        );
        assert!(r.violations >= 1);
        assert_eq!(r.steps[1].outcome, Outcome::ErrorReturn);
        // The strcpy step performed region/string checks.
        assert!(!r.steps[1].checks.is_empty());
        let failed: u64 = r.steps[1].checks.iter().map(|(_, _, f, _)| f).sum();
        assert!(failed >= 1, "{:?}", r.steps[1].checks);
    }

    #[test]
    fn digests_are_deterministic_and_transparent_when_benign() {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["malloc", "strcpy", "free"]);
        let s = seq(vec![
            step("malloc", vec![ArgSpec::Int(64)]),
            step("strcpy", vec![ArgSpec::Out(0), ArgSpec::Str("ok".into())]),
            step("free", vec![ArgSpec::Out(0)]),
        ]);
        let unwrapped = execute_unwrapped(&libc, &s);
        let unwrapped2 = execute_unwrapped(&libc, &s);
        let wrapped = execute_wrapped(&libc, &s, &decls);
        assert_eq!(unwrapped.digest, unwrapped2.digest);
        assert_eq!(wrapped.violations, 0);
        assert_eq!(
            unwrapped.digest, wrapped.digest,
            "no check fired — images must be identical"
        );
    }

    /// The canonical TOCTOU genome: `strlen` checks a live block, then
    /// thread 1 frees it inside the window, then `strlen`'s library
    /// call reads freed memory.
    fn toctou_free_seq() -> Sequence {
        let mut s = seq(vec![
            step("malloc", vec![ArgSpec::Int(16)]),
            step(
                "strcpy",
                vec![ArgSpec::Out(0), ArgSpec::Str("hello".into())],
            ),
            step("strlen", vec![ArgSpec::Out(0)]),
            lane_step("free", vec![ArgSpec::Out(0)], 1),
        ]);
        s.preempts.push(Preempt { step: 2, budget: 1 });
        s
    }

    #[test]
    fn window_pulls_the_mutator_between_check_and_call() {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["malloc", "strcpy", "strlen", "free"]);
        let s = toctou_free_seq();

        // Without the window (reference executor) the wrapper is
        // perfectly safe: strlen runs before the free.
        let reference = execute_reference(
            &libc,
            &s,
            ExecMode::Wrapped {
                decls: &decls,
                config: WrapperConfig::full_auto(),
            },
        );
        assert!(reference.completed, "{:?}", reference.steps);
        assert_eq!(reference.preempted_calls, 0);

        // With the genome window, the check passes, the free runs in
        // the window, and the admitted call faults on freed memory —
        // straight through the wrapper.
        let raced = execute_wrapped(&libc, &s, &decls);
        assert!(!raced.completed, "the TOCTOU must crash the wrapped run");
        assert_eq!(raced.fault, Some(2), "the victim call faults, not the free");
        assert_eq!(raced.preempted_calls, 1);
        let victim = raced.steps.iter().find(|r| r.index == 2).unwrap();
        assert_eq!(victim.window, vec!["free".to_string()]);
        let site = victim.site.expect("uaf has provenance");
        assert!(site.preempted, "schedule-edge component must be set");
        assert!(site.to_string().ends_with(":preempted"), "{site}");
        // The free itself completed fine, inside the window, on lane 1.
        let mutator = raced.steps.iter().find(|r| r.index == 3).unwrap();
        assert!(mutator.in_window);
        assert_eq!(mutator.thread, 1);
        assert_eq!(mutator.outcome, Outcome::Success);
    }

    #[test]
    fn revalidation_closes_the_window_in_the_executor() {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["malloc", "strcpy", "strlen", "free"]);
        let mut config = WrapperConfig::full_auto();
        config.revalidate_on_preempt = true;
        let r = execute(
            &libc,
            &toctou_free_seq(),
            ExecMode::Wrapped {
                decls: &decls,
                config,
            },
        );
        assert!(
            r.completed,
            "recheck must reject instead of fault: {:?}",
            r.steps
        );
        assert!(r.violations >= 1);
        let victim = r.steps.iter().find(|r| r.index == 2).unwrap();
        assert_eq!(victim.outcome, Outcome::ErrorReturn);
    }

    #[test]
    fn unwrapped_window_matches_wrapped_mutation_order() {
        // Transparency under schedules: for a sequence where no check
        // fires, wrapped and unwrapped runs of the same windowed genome
        // end in identical worlds.
        let libc = Libc::standard();
        let decls = analyze(&libc, &["malloc", "memset", "strlen", "free"]);
        let mut s = seq(vec![
            step("malloc", vec![ArgSpec::Int(32)]),
            step(
                "memset",
                vec![ArgSpec::Out(0), ArgSpec::Int(7), ArgSpec::Int(8)],
            ),
            lane_step(
                "memset",
                vec![ArgSpec::Out(0), ArgSpec::Int(9), ArgSpec::Int(8)],
                1,
            ),
            step("free", vec![ArgSpec::Out(0)]),
        ]);
        s.preempts.push(Preempt { step: 1, budget: 1 });
        let wrapped = execute_wrapped(&libc, &s, &decls);
        let unwrapped = execute_unwrapped(&libc, &s);
        assert!(wrapped.completed && unwrapped.completed);
        assert_eq!(wrapped.violations, 0);
        assert_eq!(wrapped.preempted_calls, 1);
        assert_eq!(
            wrapped.digest, unwrapped.digest,
            "windows must not break transparency"
        );
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let libc = Libc::standard();
        let mut s = toctou_free_seq();
        s.preempts.clear(); // seeded mode ignores the genome windows anyway
        for seed in 0..8u64 {
            let a = execute_with_schedule(&libc, &s, ExecMode::Unwrapped, seed);
            let b = execute_with_schedule(&libc, &s, ExecMode::Unwrapped, seed);
            assert_eq!(a.completed, b.completed, "seed {seed}");
            assert_eq!(a.digest, b.digest, "seed {seed}");
            assert_eq!(a.steps, b.steps, "seed {seed}");
        }
    }
}
