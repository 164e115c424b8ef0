//! Check-vs-call (TOCTOU) races against the shipping wrapper.
//!
//! Each race prepares a valid call, opens the wrapper's window with
//! [`begin_call`](crate::RobustnessWrapper::begin_call), runs one
//! [`WindowMutator`](healers_inject::WindowMutator) on a second
//! simulated thread that revokes exactly the resource the checks just
//! passed, and then lets
//! [`finish_call`](crate::RobustnessWrapper::finish_call) issue the
//! library call. The stock wrapper (the paper's design, which checks
//! once) crashes on every race; with `revalidate_on_preempt` the same
//! race ends in a rejected call.

#[cfg(test)]
mod tests {
    use healers_inject::WindowMutator;
    use healers_libc::{Libc, World};
    use healers_simproc::{run_in_child, ChildResult, SimFault, SimValue};

    use crate::{analyze, RobustnessWrapper, Verdict, WrapperBuilder, WrapperConfig};

    /// A race's world preparation, through the wrapper (interposition
    /// wraps every thread, and the stream/dir tables only know what
    /// they saw created): returns `(victim args, mutator target)`.
    type RaceSetup = fn(
        &Libc,
        &mut RobustnessWrapper,
        &mut World,
    ) -> Result<(Vec<SimValue>, SimValue), SimFault>;

    /// (victim, every function the race touches, racing thread's body,
    /// setup). Each setup makes a valid victim call; the mutator revokes
    /// exactly the resource the checks just passed.
    type Race = (
        &'static str,
        &'static [&'static str],
        WindowMutator,
        RaceSetup,
    );

    const RACES: [Race; 4] = [
        (
            "strlen",
            &["strlen", "malloc", "strcpy", "free"],
            WindowMutator::FreeArg,
            |libc, wr, w| {
                let block = wr.call(libc, w, "malloc", &[SimValue::Int(16)])?;
                let s = w.alloc_cstr("hello");
                wr.call(libc, w, "strcpy", &[block, SimValue::Ptr(s)])?;
                Ok((vec![block], block))
            },
        ),
        (
            "memset",
            &["memset", "malloc", "realloc"],
            WindowMutator::ShrinkArg(8),
            |libc, wr, w| {
                let block = wr.call(libc, w, "malloc", &[SimValue::Int(64)])?;
                Ok((vec![block, SimValue::Int(7), SimValue::Int(64)], block))
            },
        ),
        (
            "fwrite",
            &["fwrite", "fopen", "fclose"],
            WindowMutator::CloseStream,
            |libc, wr, w| {
                let (path, mode) = (w.alloc_cstr("/tmp/toctou"), w.alloc_cstr("w"));
                let f = wr.call(
                    libc,
                    w,
                    "fopen",
                    &[SimValue::Ptr(path), SimValue::Ptr(mode)],
                )?;
                let buf = w.alloc_buf(32);
                let args = vec![SimValue::Ptr(buf), SimValue::Int(1), SimValue::Int(8), f];
                Ok((args, f))
            },
        ),
        (
            "readdir",
            &["readdir", "opendir", "closedir"],
            WindowMutator::CloseDir,
            |libc, wr, w| {
                let path = w.alloc_cstr("/tmp");
                let d = wr.call(libc, w, "opendir", &[SimValue::Ptr(path)])?;
                Ok((vec![d], d))
            },
        ),
    ];

    /// Runs one race in a contained child and returns how the child
    /// ended, the victim's verdict if it returned one, and a label.
    fn run_race(
        libc: &Libc,
        (victim, functions, mutator, setup): Race,
        revalidate: bool,
    ) -> (ChildResult, Option<Verdict>, String) {
        let mut config = WrapperConfig::semi_auto();
        config.revalidate_on_preempt = revalidate;
        let mut wrapper = WrapperBuilder::new()
            .decls(analyze(libc, functions))
            .config(config)
            .build();
        let mut verdict = None;
        // The mutator's call is individually valid, so the wrapper
        // passes it; only the victim's stale admission is left holding
        // the revoked resource.
        let (result, _) = run_in_child(&World::new_guarded(), |w: &mut World| {
            w.proc.spawn_thread();
            let (args, target) = setup(libc, &mut wrapper, w)?;
            let pending = wrapper.begin_call(libc, w, victim, &args);
            w.proc.switch_to(1);
            wrapper.call(libc, w, mutator.function(), &mutator.args(target))?;
            w.proc.switch_to(0);
            let (value, v) = wrapper.finish_call(libc, w, pending, true)?;
            verdict = Some(v);
            Ok(value)
        });
        let what = format!("{victim}/{mutator:?}, revalidate {revalidate}");
        (result, verdict, what)
    }

    #[test]
    fn stock_wrapper_loses_at_least_one_race() {
        // The paper's wrapper checks once, so every race gets through
        // to the library and crashes the child.
        let libc = Libc::standard();
        for race in RACES {
            let (result, verdict, what) = run_race(&libc, race, false);
            assert!(
                matches!(result, ChildResult::Faulted(_)),
                "{what}: expected a crash, got {result:?} / {verdict:?}"
            );
        }
    }

    #[test]
    fn revalidation_wins_every_race() {
        let libc = Libc::standard();
        for race in RACES {
            let (result, verdict, what) = run_race(&libc, race, true);
            assert!(
                matches!(result, ChildResult::Returned(_))
                    && matches!(verdict, Some(Verdict::Rejected { .. })),
                "{what}: expected a rejected call, got {result:?} / {verdict:?}"
            );
        }
    }
}
