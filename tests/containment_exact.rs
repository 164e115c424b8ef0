//! INV-CONTAIN-EXACT: a contained Ballista test sees exactly what a
//! deep copy would.
//!
//! Paper §4 runs every test in a forked child. `PreparedMode::run_test`
//! gets the same isolation by sharing: `run_in_child` runs the call on
//! a copy-on-write snapshot of the world (page table, frames, heap
//! table, named statics, filesystem, descriptor table, terminals, pipes
//! and environment all `Arc`-shared until written) and the wrapper is a
//! `RobustnessWrapper::child`, which shares the compiled program and
//! starts with empty stats.
//!
//! The reference here copies instead of sharing: it deep-clones the
//! world and clones the whole per-run wrapper state, stats included,
//! then resets the stats — the containment the sharing replaced. The
//! reference keeps the address space a copy-on-write snapshot, so both
//! sides report comparable `CowStats`; `INV-COW-EXACT`
//! (`tests/cow_page_table.rs`) holds that snapshot to a deep clone.
//!
//! Over the 86 Ballista targets in all three configurations at a low
//! cap, and over strcpy, asctime and closedir at a higher one, every
//! test must agree with the reference on its class, on every
//! deterministic `WrapperStats` field and on its `CowStats`; and the
//! child the call ran in must end in the same state as the reference
//! child: the same raw result (value or fault), memory image, `errno`,
//! kernel, environment and heap block table. After all of a
//! configuration's tests, the parent world and wrapper must be what
//! they were before the first.
//!
//! The prepared worlds hold no named static buffers (`asctime`'s
//! result, `strtok`'s saved position), so the higher-cap functions run
//! a second time on a parent that does: a snapshot that lost them would
//! hand the call a fresh buffer where the reference reuses the old one.

use healers::ballista::{derive_seed, PreparedMode, TestClass, TestRun};
use healers::core::{CheckCounters, CheckOutcomes};
use healers::fuzz::exec::world_digest;
use healers::prelude::*;
use healers::simproc::{rollback, ChildResult, SimFault};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tests per function over all 86 targets: low, so the deep-clone
/// reference stays cheap.
const CAP: usize = 20;

/// Crashes (strcpy), a static-buffer writer (asctime) and stateful
/// handle checks (closedir), at a cap that reaches more of their pools.
const PINNED: [&str; 3] = ["strcpy", "asctime", "closedir"];
const PINNED_CAP: usize = 40;

/// Everything a contained call can leave behind in its child, printed.
fn child_state(result: &ChildResult, child: &World) -> String {
    format!(
        "{result:?}\n{:#x}\n{:?}\n{:?}\n{:?}",
        world_digest(child),
        child.kernel,
        child.env,
        child.proc.heap
    )
}

fn class_of(result: &ChildResult, child: &World) -> TestClass {
    match result {
        ChildResult::Returned(_) if child.proc.errno() != 0 => TestClass::ErrnoSet,
        ChildResult::Returned(_) => TestClass::Silent,
        ChildResult::Faulted(SimFault::FuelExhausted) => TestClass::Hang,
        ChildResult::Faulted(SimFault::Abort { .. }) => TestClass::Abort,
        ChildResult::Faulted(_) => TestClass::Crash,
    }
}

/// One test contained the way `run_test` contains it, on `parent`:
/// `run_in_child` runs `call_in` on a snapshot and hands the child
/// back, so its final state can be read before the rollback.
fn shared_run(
    libc: &Libc,
    prepared: &PreparedMode,
    parent: &World,
    name: &str,
    args: &[SimValue],
) -> (TestRun, String) {
    let mut stats = WrapperStats::default();
    let (result, child) = run_in_child(parent, |child| {
        prepared.call_in(libc, child, name, args, &mut stats)
    });
    let class = class_of(&result, &child);
    let state = child_state(&result, &child);
    let cow = rollback(parent, child);
    (TestRun { class, stats, cow }, state)
}

/// The pre-sharing containment: a deep copy of `parent` (address
/// space aside) and a full clone of the wrapper with its stats reset.
/// Returns the test's run and its child's final state.
fn reference_run(
    libc: &Libc,
    prepared: &PreparedMode,
    parent: &World,
    name: &str,
    args: &[SimValue],
) -> (TestRun, String) {
    let mut child = parent.deep_clone();
    child.proc.mem = parent.proc.mem.snapshot();
    child.proc.set_errno(0);
    let (result, stats) = match prepared.wrapper() {
        Some(w) => {
            let mut w = w.clone();
            w.reset_stats();
            let result = w.call(libc, &mut child, name, args);
            (result, w.stats)
        }
        None => (libc.call(&mut child, name, args), WrapperStats::default()),
    };
    let result = match result {
        Ok(v) => ChildResult::Returned(v),
        Err(f) => ChildResult::Faulted(f),
    };
    let class = class_of(&result, &child);
    let state = child_state(&result, &child);
    let cow = rollback(parent, child);
    (TestRun { class, stats, cow }, state)
}

/// Every deterministic field of `stats`. The exhaustive destructure
/// makes a new field a compile error here until it is sorted into
/// compared or wall-clock.
fn deterministic(stats: &WrapperStats) -> (Vec<u64>, CheckCounters, CheckOutcomes) {
    let WrapperStats {
        calls,
        wrapped_calls,
        checks,
        violations,
        repairs,
        check_cache_hits,
        preempted_calls,
        window_rechecks,
        recheck_failures,
        check_kinds,
        check_outcomes,
        per_function: _,
        time_checking: _,
        time_in_library: _,
    } = stats;
    (
        vec![
            *calls,
            *wrapped_calls,
            *checks,
            *violations,
            *repairs,
            *check_cache_hits,
            *preempted_calls,
            *window_rechecks,
            *recheck_failures,
        ],
        *check_kinds,
        *check_outcomes,
    )
}

/// What a test must leave untouched in its parent: the kernel, the
/// environment, the heap's block table, the memory image and `errno`,
/// the CoW counters, and the wrapper's per-run state.
fn parent_state(prepared: &PreparedMode, world: &World) -> String {
    let wrapper = prepared.wrapper().map(|w| {
        (
            deterministic(&w.stats),
            w.violations().len(),
            w.check_cache_len(),
        )
    });
    format!(
        "{:?}\n{:?}\n{:?}\n{:#x}\n{:?}\n{:?}",
        world.kernel,
        world.env,
        world.proc.heap,
        world_digest(world),
        world.cow_stats(),
        wrapper
    )
}

/// `world` after one ordinary call each of `asctime` and `strtok`, so
/// it holds their named static buffers.
fn with_named_statics(libc: &Libc, world: &World) -> World {
    let mut warm = world.deep_clone();
    let tm = SimValue::Ptr(warm.alloc_buf(64));
    let text = SimValue::Ptr(warm.alloc_cstr("a b"));
    let delim = SimValue::Ptr(warm.alloc_cstr(" "));
    libc.call(&mut warm, "asctime", &[tm]).unwrap();
    libc.call(&mut warm, "strtok", &[text, delim]).unwrap();
    warm
}

/// Run every test of `b` in every configuration against the reference,
/// on the prepared world or, with `statics`, on a copy of it that holds
/// named static buffers. Returns how many tests ran.
fn check_against_reference(libc: &Libc, b: &Ballista, statics: bool) -> usize {
    let names: Vec<&str> = b.functions().iter().map(String::as_str).collect();
    let decls = healers::core::analyze(libc, &names);
    let mut tests = 0;
    for mode in Mode::ALL {
        let decls = match mode {
            Mode::Unwrapped => Vec::new(),
            _ => decls.clone(),
        };
        let prepared = b.prepare_mode(libc, mode, decls);
        let warm = statics.then(|| with_named_statics(libc, prepared.world()));
        let parent = warm.as_ref().unwrap_or(prepared.world());
        let before = parent_state(&prepared, parent);
        for name in b.functions() {
            let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), name));
            for args in b.test_vectors(libc, &prepared, name, &mut rng) {
                let (got, got_state) = shared_run(libc, &prepared, parent, name, &args);
                let (want, want_state) = reference_run(libc, &prepared, parent, name, &args);
                let at = format!("{mode} {name}{args:?}");
                assert_eq!(got.class, want.class, "class of {at}");
                assert_eq!(
                    deterministic(&got.stats),
                    deterministic(&want.stats),
                    "wrapper stats of {at}"
                );
                assert_eq!(got.cow, want.cow, "CoW stats of {at}");
                assert_eq!(got_state, want_state, "child state after {at}");
                if !statics {
                    // `run_test` is exactly this containment.
                    let run = prepared.run_test(libc, name, &args);
                    assert_eq!(run.class, got.class, "run_test class of {at}");
                    assert_eq!(
                        deterministic(&run.stats),
                        deterministic(&got.stats),
                        "run_test stats of {at}"
                    );
                    assert_eq!(run.cow, got.cow, "run_test CoW stats of {at}");
                }
                tests += 1;
            }
        }
        assert_eq!(
            parent_state(&prepared, parent),
            before,
            "{mode}: a test wrote through to its parent"
        );
    }
    tests
}

#[test]
fn shared_children_match_the_deep_clone_reference() {
    let libc = Libc::standard();
    let tests = check_against_reference(&libc, &Ballista::new().with_cap(CAP), false);
    assert!(tests > 2500, "only {tests} tests ran");
    let pinned = Ballista::new().with_functions(&PINNED).with_cap(PINNED_CAP);
    for statics in [false, true] {
        let tests = check_against_reference(&libc, &pinned, statics);
        assert!(tests > 100, "only {tests} pinned tests ran");
    }
}
