//! INV-CONTAIN-EXACT: a contained Ballista test sees exactly what a
//! deep copy would.
//!
//! Paper §4 runs every test in a forked child. `PreparedMode::run_test`
//! gets the same isolation by sharing: the world is a copy-on-write
//! snapshot (page table, frames, heap table, named statics, filesystem,
//! descriptor table, terminals, pipes and environment all `Arc`-shared
//! until written) and the wrapper is a `RobustnessWrapper::child`,
//! which shares the compiled program and starts with empty stats.
//!
//! The reference here copies instead of sharing: it deep-clones the
//! world and clones the whole per-run wrapper state, stats included,
//! then resets the stats — the containment the sharing replaced. The
//! reference keeps the address space a copy-on-write snapshot, so both
//! sides report comparable `CowStats`; `INV-COW-EXACT`
//! (`tests/cow_page_table.rs`) holds that snapshot to a deep clone.
//!
//! Over the 86 Ballista targets in all three configurations at a low
//! cap, every test must agree on its class, on every deterministic
//! `WrapperStats` field and on its `CowStats`. After all of a
//! configuration's tests, the parent world and wrapper must be what
//! they were before the first.

use healers::ballista::{derive_seed, PreparedMode, TestClass, TestRun};
use healers::core::{CheckCounters, CheckOutcomes};
use healers::fuzz::exec::world_digest;
use healers::prelude::*;
use healers::simproc::{rollback, SimFault};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tests per function: low, so the deep-clone reference stays cheap.
const CAP: usize = 20;

/// The pre-sharing containment: a deep copy of the world (address
/// space aside) and a full clone of the wrapper with its stats reset.
fn reference_run(libc: &Libc, prepared: &PreparedMode, name: &str, args: &[SimValue]) -> TestRun {
    let world = prepared.world();
    let mut child = world.deep_clone();
    child.proc.mem = world.proc.mem.snapshot();
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
    let class = match result {
        Ok(_) if child.proc.errno() != 0 => TestClass::ErrnoSet,
        Ok(_) => TestClass::Silent,
        Err(SimFault::FuelExhausted) => TestClass::Hang,
        Err(SimFault::Abort { .. }) => TestClass::Abort,
        Err(_) => TestClass::Crash,
    };
    let cow = rollback(world, child);
    TestRun { class, stats, cow }
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
fn parent_state(prepared: &PreparedMode) -> String {
    let world = prepared.world();
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

#[test]
fn shared_children_match_the_deep_clone_reference() {
    let libc = Libc::standard();
    let b = Ballista::new().with_cap(CAP);
    let decls = b.analyze_targets(&libc);
    let mut tests = 0;
    for mode in Mode::ALL {
        let decls = match mode {
            Mode::Unwrapped => Vec::new(),
            _ => decls.clone(),
        };
        let prepared = b.prepare_mode(&libc, mode, decls);
        let before = parent_state(&prepared);
        for name in b.functions() {
            let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), name));
            for args in b.test_vectors(&libc, &prepared, name, &mut rng) {
                let got = prepared.run_test(&libc, name, &args);
                let want = reference_run(&libc, &prepared, name, &args);
                let at = format!("{mode} {name}{args:?}");
                assert_eq!(got.class, want.class, "class of {at}");
                assert_eq!(
                    deterministic(&got.stats),
                    deterministic(&want.stats),
                    "wrapper stats of {at}"
                );
                assert_eq!(got.cow, want.cow, "CoW stats of {at}");
                tests += 1;
            }
        }
        assert_eq!(
            parent_state(&prepared),
            before,
            "{mode}: a test wrote through to its parent"
        );
    }
    assert!(tests > 2500, "only {tests} tests ran");
}
