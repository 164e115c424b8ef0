//! The interpreted check walk: the wrapper's original prefix loop over
//! the per-argument claim lists and the assertion list, kept as the
//! test oracle the compiled [`CheckOp`](crate::CheckOp) programs are
//! held to (`INV-PLAN-EXACT`). It derives everything from the claim
//! lists and `WrapperConfig::assertions` on every call; the shipping
//! wrapper runs only `run_compiled`.

use super::*;
use crate::checker::check_value_counted;

impl RobustnessWrapper {
    /// Execute entry `idx`'s checks by interpreting the per-argument
    /// plan and assertion lists. Stats, cache traffic, the reported
    /// [`CheckFailure`] and the failed check's text must match
    /// [`RobustnessWrapper::run_compiled`] and
    /// [`RobustnessWrapper::check_text`] exactly.
    pub(super) fn run_interpreted(
        &mut self,
        world: &World,
        idx: usize,
        args: &[SimValue],
    ) -> Result<(), (CheckFailure, String)> {
        let name: &str = &self.entries[idx].name;
        let caps = self.caps;
        // Running op index, kept in lockstep with the compiled program:
        // claims in argument order, then the format op, then assertions.
        let mut opno = 0usize;

        // Prefix: robust-type checks.
        if let Some(plan) = self.plans.get(name) {
            for (i, check) in plan.iter().enumerate() {
                let Some(t) = check else { continue };
                self.stats.checks += 1;
                let value = args.get(i).copied().unwrap_or(SimValue::Void);
                let cache_key = (value.as_ptr(), *t);
                let cacheable =
                    self.config.check_cache && matches!(value, SimValue::Ptr(p) if p != 0);
                if cacheable && self.check_cache.get(&cache_key) == Some(&self.generation) {
                    self.stats.check_cache_hits += 1;
                    self.stats.check_outcomes.record(CheckKind::of(*t), true);
                    opno += 1;
                    continue;
                }
                let ok = check_value_counted(
                    world,
                    &self.tables,
                    &caps,
                    value,
                    *t,
                    &mut self.stats.check_kinds,
                );
                self.stats.check_outcomes.record(CheckKind::of(*t), ok);
                if !ok {
                    let failure = CheckFailure {
                        op: opno,
                        arg: i,
                        kind: CheckKind::of(*t),
                        value,
                    };
                    return Err((failure, t.notation()));
                }
                if cacheable {
                    if self.check_cache.len() >= 4096 {
                        self.check_cache.clear();
                    }
                    self.check_cache.insert(cache_key, self.generation);
                }
                opno += 1;
            }
        }

        // Prefix: printf-family format directive scan. Gated exactly
        // like the compiled build: only functions with a robust-type
        // plan get a format op.
        if self.plans.contains_key(name) {
            if let Some((fmt_arg, varargs_from)) = format_spec(name) {
                self.stats.checks += 1;
                let ok = check_format(
                    world,
                    args,
                    fmt_arg,
                    varargs_from,
                    &mut self.stats.check_kinds,
                )
                .is_none();
                self.stats.check_outcomes.record(CheckKind::Format, ok);
                if !ok {
                    let failure = CheckFailure {
                        op: opno,
                        arg: fmt_arg as usize,
                        kind: CheckKind::Format,
                        value: args
                            .get(fmt_arg as usize)
                            .copied()
                            .unwrap_or(SimValue::Void),
                    };
                    return Err((failure, "printf-format directives".to_string()));
                }
                opno += 1;
            }
        }

        // Prefix: executable assertions.
        let asserts: Vec<&SizeAssertion> = self
            .config
            .assertions
            .iter()
            .filter(|a| a.function == name)
            .collect();
        for a in asserts {
            self.stats.checks += 1;
            let value = args.get(a.buf_arg).copied().unwrap_or(SimValue::Void);
            let ok = match assertion_size(world, args, &a.terms, &mut self.stats.check_kinds) {
                Some(needed) if needed <= u64::from(u32::MAX) => {
                    let t = if a.write {
                        TypeExpr::WArray(needed as u32)
                    } else {
                        TypeExpr::RArray(needed as u32)
                    };
                    needed == 0
                        || check_value_counted(
                            world,
                            &self.tables,
                            &caps,
                            value,
                            t,
                            &mut self.stats.check_kinds,
                        )
                }
                _ => false,
            };
            self.stats.check_outcomes.record(CheckKind::Assertion, ok);
            if !ok {
                let failure = CheckFailure {
                    op: opno,
                    arg: a.buf_arg,
                    kind: CheckKind::Assertion,
                    value,
                };
                return Err((failure, format!("size assertion over {:?}", a.terms)));
            }
            opno += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::analyze;
    use crate::overrides::semi_auto_overrides;
    use healers_simproc::{Protection, INVALID_PTR};

    /// The observable effect of one prefix run on the wrapper: every
    /// counter the check programs touch.
    fn counters(w: &RobustnessWrapper) -> (u64, u64, CheckCounters, CheckOutcomes) {
        (
            w.stats.checks,
            w.stats.check_cache_hits,
            w.stats.check_kinds,
            w.stats.check_outcomes,
        )
    }

    fn call(
        w: &mut RobustnessWrapper,
        libc: &Libc,
        world: &mut World,
        name: &str,
        args: &[SimValue],
    ) -> SimValue {
        w.call(libc, world, name, args)
            .unwrap_or_else(|e| panic!("setup call {name} faulted: {e:?}"))
    }

    fn filled(world: &mut World, len: u32, byte: u8) -> SimValue {
        let p = world.alloc_buf(len);
        for i in 0..len {
            world.proc.mem.write_u8(p + i, byte).unwrap();
        }
        SimValue::Ptr(p)
    }

    /// The value zoo, built through the wrapper so the tracking tables
    /// know the live heap blocks, streams and directories.
    fn zoo(w: &mut RobustnessWrapper, libc: &Libc, world: &mut World) -> Vec<SimValue> {
        let mut zoo = vec![SimValue::NULL, SimValue::Ptr(INVALID_PTR)];
        // Tracked, freed and undersized heap blocks.
        let tracked = call(w, libc, world, "malloc", &[SimValue::Int(256)]);
        world.proc.write_cstr(tracked.as_ptr(), b"tracked").unwrap();
        let freed = call(w, libc, world, "malloc", &[SimValue::Int(32)]);
        world.proc.write_cstr(freed.as_ptr(), b"freed").unwrap();
        call(w, libc, world, "free", &[freed]);
        let small = call(w, libc, world, "malloc", &[SimValue::Int(4)]);
        world.proc.write_cstr(small.as_ptr(), b"abc").unwrap();
        zoo.extend([tracked, freed, small]);
        // Untracked strings, a read-only one, and one with no NUL in
        // its accessible run.
        zoo.push(SimValue::Ptr(world.alloc_cstr("untracked string")));
        zoo.push(SimValue::Ptr(world.alloc_cstr("r")));
        let ro: Addr = 0x2100_0000;
        world.proc.mem.map(ro, 4096, Protection::ReadWrite);
        world.proc.write_cstr(ro, b"read-only").unwrap();
        world.proc.mem.protect(ro, 4096, Protection::ReadOnly);
        zoo.push(SimValue::Ptr(ro));
        let open: Addr = 0x2000_0000;
        world.proc.mem.map(open, 4096, Protection::ReadWrite);
        for i in 0..4096 {
            world.proc.mem.write_u8(open + i, b'A').unwrap();
        }
        zoo.push(SimValue::Ptr(open));
        // Real and garbage FILE* and DIR* handles.
        world.kernel.write_file("/tmp/zoo", &[b'z'; 512]).unwrap();
        let path = world.alloc_cstr("/tmp/zoo");
        let mode = world.alloc_cstr("r+");
        zoo.push(call(
            w,
            libc,
            world,
            "fopen",
            &[SimValue::Ptr(path), SimValue::Ptr(mode)],
        ));
        zoo.push(filled(world, file::FILE_SIZE, 0xCC));
        let dir = world.alloc_cstr("/tmp");
        zoo.push(call(w, libc, world, "opendir", &[SimValue::Ptr(dir)]));
        zoo.push(filled(world, healers_libc::dirent::DIR_SIZE, 0xCC));
        // Formats with a %n and with a %s directive.
        zoo.push(SimValue::Ptr(world.alloc_cstr("n=%n")));
        zoo.push(SimValue::Ptr(world.alloc_cstr("[%s|%d]")));
        // Scalars: counts, sizes, descriptors, signs.
        zoo.extend([0, 1, 3, 8, 64, 4096, -1, 1 << 40].map(SimValue::Int));
        zoo
    }

    /// `INV-PLAN-EXACT`: for every analysed function of the standard
    /// library, under the minimal, full-auto and semi-auto configs, the
    /// compiled program and the interpreted walk report the same
    /// [`CheckFailure`] and check text and leave identical counters and
    /// validity caches, call by call from the same wrapper state.
    #[test]
    fn compiled_plans_match_the_interpreted_oracle() {
        let libc = Libc::standard();
        let names: Vec<&str> = libc.names().collect();
        let decls = analyze(&libc, &names);
        let configs = [
            ("minimal", WrapperConfig::minimal(), None),
            ("full_auto", WrapperConfig::full_auto(), None),
            (
                "semi_auto",
                WrapperConfig::semi_auto(),
                Some(semi_auto_overrides()),
            ),
        ];
        let mut failed_kinds = BTreeSet::new();
        let (mut runs, mut passes, mut hits) = (0u64, 0u64, 0u64);
        for (label, config, overrides) in configs {
            let mut builder = WrapperBuilder::new().decls(decls.clone()).config(config);
            if let Some(o) = &overrides {
                builder = builder.overrides(o);
            }
            let mut w = builder.build();
            let mut world = World::new_guarded();
            let zoo = zoo(&mut w, &libc, &mut world);
            let bases = [zoo[2], zoo[6], zoo[10], SimValue::Int(8)];
            for name in &names {
                let Some(id) = w.resolve(name) else { continue };
                if !w.is_checked(id) {
                    continue;
                }
                let idx = id.0 as usize;
                let proto = &libc.get(name).unwrap().proto;
                let arity = proto.params.len() + if proto.variadic { 2 } else { 0 };
                let mut vectors: Vec<Vec<SimValue>> = zoo.iter().map(|&v| vec![v; arity]).collect();
                for base in bases {
                    for i in 0..arity {
                        for &v in &zoo {
                            let mut args = vec![base; arity];
                            args[i] = v;
                            vectors.push(args);
                        }
                    }
                }
                for args in &vectors {
                    let mut oracle = w.clone();
                    let hits_before = w.stats.check_cache_hits;
                    let got = w.run_compiled(&world, idx, args).map_err(|f| {
                        let text = w.entries[idx].plan.ops().get(f.op).map(CheckOp::describe);
                        (f, text)
                    });
                    let want = oracle
                        .run_interpreted(&world, idx, args)
                        .map_err(|(f, text)| (f, Some(text)));
                    let at = || format!("{label} {name}{args:?}");
                    assert_eq!(got, want, "verdicts differ: {}", at());
                    assert_eq!(counters(&w), counters(&oracle), "counters differ: {}", at());
                    assert_eq!(w.check_cache_len(), oracle.check_cache_len(), "{}", at());
                    assert_eq!(w.check_cache, oracle.check_cache, "{}", at());
                    runs += 1;
                    hits += w.stats.check_cache_hits - hits_before;
                    match got {
                        Ok(()) => passes += 1,
                        Err((f, _)) => {
                            failed_kinds.insert(format!("{:?}", f.kind));
                        }
                    }
                }
            }
        }
        // The sweep must reach both sides of every kind of check and
        // the cache, or agreement proves little.
        assert!(passes > 0 && passes < runs, "{passes} of {runs} passed");
        assert!(hits > 0, "no validity-cache hits");
        let all: BTreeSet<String> = CheckKind::ALL.iter().map(|k| format!("{k:?}")).collect();
        assert_eq!(failed_kinds, all, "not every check kind failed");
    }
}
