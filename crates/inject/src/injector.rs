//! The per-function fault injector (§4.1, §4.3) and its report.

use healers_ctypes::FunctionPrototype;
use healers_libc::{Libc, World};
use healers_simproc::{run_in_child, CowStats, FaultSite, SimValue, WorldSnapshot};
use healers_trace::recorder::flight;
use healers_typesys::{robust_type, Observation, RobustType, SelectionCriterion, TypeExpr};

use crate::adaptive::{self, Found, Probe};
use crate::case::{classify_child_result, CallRecord, TestCase};
use crate::errcode::{classify_error_returns, ErrCodeReport};
use crate::generators::{ArrayGen, TestCaseGenerator};
use crate::select_gen::generator_for;

/// Maximum adaptive retries for a single test case (the paper retries
/// "a finite number of times").
pub const MAX_RETRIES_PER_CASE: usize = 8192;

/// Fuel budget per injected call — the hang-detection timeout.
pub const INJECTION_FUEL: u64 = 200_000;

/// The robust-type selection criterion every campaign uses (§4.3).
const CRITERION: SelectionCriterion = SelectionCriterion::SuccessfulReturns;

/// Robust-type result for a single argument.
#[derive(Debug, Clone)]
pub struct ArgReport {
    /// Generator used for this argument.
    pub generator: &'static str,
    /// All observations gathered for this argument.
    pub observations: Vec<Observation>,
    /// Candidate universe the generator contributed.
    pub universe: Vec<TypeExpr>,
    /// The selected robust type.
    pub robust: RobustType,
}

/// Everything the injector learned about one function — the input to
/// function-declaration generation.
#[derive(Debug, Clone)]
pub struct InjectionReport {
    /// Function name.
    pub function: String,
    /// The function's prototype.
    pub proto: FunctionPrototype,
    /// Per-argument results.
    pub args: Vec<ArgReport>,
    /// Error-return-code classification (§3.3).
    pub errcode: ErrCodeReport,
    /// `false` iff at least one test case crashed, hung or aborted
    /// (§3.4: such functions are *unsafe* and need wrapping).
    pub safe: bool,
    /// Raw call records (diagnostics, Table 1 tooling).
    pub records: Vec<CallRecord>,
    /// Total sandboxed calls performed.
    pub calls: usize,
    /// Adaptive array probes beyond the first, summed over arguments.
    pub adaptive_retries: usize,
    /// Total fuel consumed across all sandboxed calls (hang-detection
    /// budget units; see [`INJECTION_FUEL`]).
    pub fuel_used: u64,
    /// Copy-on-write containment cost summed over all sandboxed calls:
    /// one snapshot per call, pages shared at each split, private pages
    /// the calls dirtied (equal to the pages discarded on rollback).
    pub cow: CowStats,
}

/// A fault injector specialized to one library function.
pub struct FaultInjector<'l> {
    libc: &'l Libc,
    name: String,
    proto: FunctionPrototype,
}

impl<'l> FaultInjector<'l> {
    /// Create the injector for `name`, or `None` if the library does not
    /// export it.
    pub fn new(libc: &'l Libc, name: &str) -> Option<Self> {
        let proto = libc.get(name)?.proto.clone();
        Some(FaultInjector {
            libc,
            name: name.to_string(),
            proto,
        })
    }

    /// Run the full campaign and compute the report.
    pub fn run(&self) -> InjectionReport {
        self.run_sized(|probe| adaptive::search(probe))
    }

    /// The campaign, with `sizing` choosing the adaptive array sizes to
    /// probe and the probe to record.
    pub(crate) fn run_sized(
        &self,
        sizing: impl Fn(&mut dyn FnMut(u32) -> (Probe, CallRecord)) -> Found<CallRecord>,
    ) -> InjectionReport {
        let mut world = World::new_guarded();
        world.proc.set_fuel_budget(INJECTION_FUEL);
        // The environment is part of the test surface: functions that
        // read the controlling terminal (gets) must find input there.
        world.kernel.type_input(0, b"healers stdin line\n");
        let func = self.libc.get(&self.name).expect("checked in new()");

        let mut gens: Vec<Box<dyn TestCaseGenerator>> = self
            .proto
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| generator_for(&self.name, i, p))
            .collect();
        let benign: Vec<SimValue> = gens.iter_mut().map(|g| g.benign(&mut world)).collect();

        let mut calls = 0usize;
        let mut fuel_used = 0u64;
        let mut cow = CowStats::default();
        // One contained call with `case` as argument `arg` (all benign
        // for the baseline), and the faulting address if it segfaulted.
        let mut invoke = |world: &World, arg: Option<usize>, case: &TestCase| {
            let mut args = benign.clone();
            if let Some(i) = arg {
                args[i] = case.value;
            }
            calls += 1;
            let (result, child) = run_in_child(world, |w: &mut World| {
                w.proc.set_errno(0);
                w.proc.reset_fuel();
                func.invoke(w, &args)
            });
            fuel_used += child.proc.fuel_used();
            let (outcome, returned, errno) = classify_child_result(&result, &child);
            let fault_addr = result.fault().and_then(|f| f.segv_addr());
            // Provenance must be resolved against the *child* image —
            // the faulting page run and heap block exist in the snapshot
            // the call mutated, not in the pristine parent.
            let provenance = result
                .fault()
                .and_then(|f| FaultSite::resolve(f, &child.proc));
            cow.absorb(&child.cow_stats().delta_since(&world.cow_stats()));
            let record = CallRecord {
                arg_index: arg,
                value: case.value,
                fundamental: case.fundamental,
                outcome,
                returned,
                errno,
                label: case.label.clone(),
                provenance,
            };
            (record, fault_addr)
        };

        let mut records: Vec<CallRecord> = Vec::new();
        // Only the records kept — not the adaptive probes the search
        // discards — enter the flight recorder, and only resolved
        // faults: the benign majority of injected calls would otherwise
        // drown the ring.
        let mut keep = |record: CallRecord| {
            if let Some(site) = &record.provenance {
                let what = match record.arg_index {
                    Some(i) => format!("arg {i} {}", record.label),
                    None => record.label.clone(),
                };
                flight().record("fault-injected", &self.name, &format!("{what} — {site}"));
            }
            records.push(record);
        };

        // Baseline call with all-benign arguments (also the only call
        // for zero-argument functions). Its fundamental type is a
        // placeholder, unused for the baseline.
        let baseline = TestCase::new(SimValue::Void, TypeExpr::IntZero, "benign baseline");
        keep(invoke(&world, None, &baseline).0);

        // Per-argument campaigns: the initial cases, the adaptive array
        // at the size the search settles on, then the cases that depend
        // on that size.
        let mut adaptive_retries = 0usize;
        for (i, gen) in gens.iter_mut().enumerate() {
            for case in gen.initial_cases(&mut world) {
                keep(invoke(&world, Some(i), &case).0);
            }
            if let Some(array) = gen.adaptive_array() {
                let found = sizing(&mut |n| {
                    let case = array.adaptive_case(&mut world, n);
                    let (record, fault_addr) = invoke(&world, Some(i), &case);
                    let needs = fault_addr
                        .and_then(|addr| ArrayGen::fault_needs(case.value.as_ptr(), n, addr));
                    let probe = match needs {
                        Some(needs) => Probe::PastEnd { needs },
                        None => Probe::Stopped,
                    };
                    (probe, record)
                });
                adaptive_retries += found.probes - 1;
                array.settle(found.size, found.record.outcome);
                keep(found.record);
            }
            for case in gen.followup_cases(&mut world) {
                keep(invoke(&world, Some(i), &case).0);
            }
        }

        // Robust types per argument.
        let args: Vec<ArgReport> = gens
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let observations: Vec<Observation> = records
                    .iter()
                    .filter(|r| r.arg_index == Some(i))
                    .map(|r| Observation::new(r.fundamental, r.outcome))
                    .collect();
                let universe = g.universe();
                let robust = robust_type(&universe, &observations, CRITERION);
                ArgReport {
                    generator: g.name(),
                    observations,
                    universe,
                    robust,
                }
            })
            .collect();

        let errcode = classify_error_returns(&self.proto.ret, &records);
        let safe = !records.iter().any(|r| r.outcome.is_failure());

        InjectionReport {
            function: self.name.clone(),
            proto: self.proto.clone(),
            args,
            errcode,
            safe,
            records,
            calls,
            adaptive_retries,
            fuel_used,
            cow,
        }
    }

    /// A canonical text rendering of everything the injection outcome
    /// depends on: the prototype, the selected generator and candidate
    /// universe per argument, the selection criterion, and the injector
    /// constants. Two functions with equal signatures produce equal
    /// declarations, which makes this the natural key for persistent
    /// declaration caches (the campaign orchestrator fingerprints it).
    pub fn signature(&self) -> String {
        use std::fmt::Write as _;
        let mut sig = String::new();
        let _ = writeln!(sig, "proto extern {};", self.proto);
        for (i, p) in self.proto.params.iter().enumerate() {
            let g = generator_for(&self.name, i, p);
            let universe: Vec<String> = g.universe().iter().map(|t| t.notation()).collect();
            let _ = writeln!(sig, "arg{i} {} [{}]", g.name(), universe.join(" "));
        }
        let _ = writeln!(
            sig,
            "criterion {:?} fuel {} retries {}",
            CRITERION, INJECTION_FUEL, MAX_RETRIES_PER_CASE
        );
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errcode::ErrCodeClass;
    use healers_typesys::TypeExpr::*;

    fn report(name: &str) -> InjectionReport {
        let libc = Libc::standard();
        FaultInjector::new(&libc, name).unwrap().run()
    }

    #[test]
    fn asctime_reproduces_figure_2() {
        let r = report("asctime");
        // Robust argument type: R_ARRAY_NULL[44].
        assert_eq!(r.args[0].robust.robust, RArrayNull(44));
        assert!(r.args[0].robust.safe);
        // Error return code: NULL with errno EINVAL, consistently.
        assert_eq!(r.errcode.class, ErrCodeClass::Consistent);
        assert_eq!(r.errcode.error_value, Some(SimValue::NULL));
        assert_eq!(r.errcode.errno_value, healers_os::errno::EINVAL);
        // asctime is unsafe (it crashed for some inputs).
        assert!(!r.safe);
        // The adaptive array was grown (the size itself is pinned by
        // the robust type above).
        assert!(r.adaptive_retries >= 1, "retries {}", r.adaptive_retries);
    }

    #[test]
    fn ctime_needs_four_readable_bytes() {
        let r = report("ctime");
        assert_eq!(r.args[0].robust.robust, RArray(4));
    }

    #[test]
    fn mktime_needs_read_write_access() {
        let r = report("mktime");
        assert_eq!(r.args[0].robust.robust, RwArray(44));
    }

    #[test]
    fn cfset_speed_asymmetry_is_discovered() {
        // §6: "while function cfsetispeed only needs write access to its
        // argument, function cfsetospeed needs both read and write
        // access."
        let ri = report("cfsetispeed");
        let ro = report("cfsetospeed");
        match ri.args[0].robust.robust {
            WArray(s) => assert!(s >= 56, "ispeed size {s}"),
            other => panic!("cfsetispeed robust type {other}"),
        }
        match ro.args[0].robust.robust {
            RwArray(s) => assert!(s >= 12, "ospeed size {s}"),
            other => panic!("cfsetospeed robust type {other}"),
        }
        // Speed argument: only valid baud constants avoid the error
        // return, but no crash ever — so the speed arg is unconstrained.
        assert_eq!(ri.args[1].robust.admitted_crashes, 0);
    }

    #[test]
    fn fopen_mode_string_findings() {
        // §6: "fopen and freopen crash when the mode string is invalid
        // but can cope with invalid file names."
        let r = report("fopen");
        // The overlong mode string crashed:
        assert!(r.records.iter().any(|rec| rec.arg_index == Some(1)
            && rec.fundamental == NtsRw(40)
            && rec.outcome.is_failure()));
        // Invalid file *names* (content) did not crash; invalid file
        // name *pointers* did.
        assert!(r.records.iter().any(|rec| rec.arg_index == Some(0)
            && rec.fundamental == NtsRw(12)
            && !rec.outcome.is_failure()));
        // The robust mode type bounds the string length.
        assert_eq!(r.args[1].robust.robust, NtsMax(7));
    }

    #[test]
    fn fflush_has_no_error_return_code() {
        // §6: fflush is "supposed to set errno" but the injector finds
        // no error return code.
        let r = report("fflush");
        assert_eq!(r.errcode.class, ErrCodeClass::NoErrorReturnCodeFound);
        assert!(!r.safe);
    }

    #[test]
    fn fdopen_and_freopen_are_inconsistent() {
        // §6/Table 1: exactly the two functions with inconsistent error
        // return codes.
        for name in ["fdopen", "freopen"] {
            let r = report(name);
            assert_eq!(r.errcode.class, ErrCodeClass::Inconsistent, "{name}");
        }
    }

    #[test]
    fn strlen_needs_a_string() {
        let r = report("strlen");
        assert_eq!(r.args[0].robust.robust, Nts);
        assert!(!r.safe);
    }

    #[test]
    fn closedir_selects_the_uncheckable_open_dir_type() {
        let r = report("closedir");
        assert_eq!(r.args[0].robust.robust, OpenDir);
        assert!(!r.safe);
    }

    #[test]
    fn fclose_requires_an_open_file() {
        let r = report("fclose");
        assert_eq!(r.args[0].robust.robust, OpenFile);
    }

    #[test]
    fn the_robust_scalar_functions_are_safe() {
        let libc = Libc::standard();
        for name in [
            "close", "dup", "dup2", "lseek", "isatty", "sleep", "umask", "abs", "labs",
        ] {
            let r = FaultInjector::new(&libc, name).unwrap().run();
            assert!(r.safe, "{name} should be safe");
        }
    }

    #[test]
    fn void_functions_classified_no_return_code() {
        let r = report("rewind");
        assert_eq!(r.errcode.class, ErrCodeClass::NoReturnCode);
    }

    #[test]
    fn stat_discovers_the_88_byte_out_buffer() {
        let r = report("stat");
        match r.args[1].robust.robust {
            WArray(s) | RwArray(s) => assert_eq!(s, 88),
            other => panic!("stat buf robust type {other}"),
        }
    }

    #[test]
    fn crashing_records_carry_fault_provenance() {
        let r = report("strcpy");
        // Every segfaulting record resolved a fault site; addressless
        // failures (hangs, aborts) and returns carry none.
        let crashes: Vec<_> = r
            .records
            .iter()
            .filter(|rec| rec.outcome == healers_typesys::Outcome::Crash)
            .collect();
        assert!(!crashes.is_empty());
        assert!(crashes.iter().any(|rec| rec.provenance.is_some()));
        assert!(r
            .records
            .iter()
            .filter(|rec| rec.outcome.returned())
            .all(|rec| rec.provenance.is_none()));
        // At least one fault is attributed to a concrete heap block —
        // a protection fault inside a test array or a guard-page
        // overrun past one.
        assert!(
            r.records
                .iter()
                .filter_map(|rec| rec.provenance.as_ref())
                .any(|site| site.block.is_some()),
            "no fault attributed to a heap block"
        );
    }

    #[test]
    fn unknown_function_yields_none() {
        let libc = Libc::standard();
        assert!(FaultInjector::new(&libc, "no_such").is_none());
    }

    #[test]
    fn zero_argument_functions_run_one_call() {
        let r = report("getpid");
        assert!(r.safe);
        assert_eq!(r.calls, 1);
        assert!(r.args.is_empty());
    }

    #[test]
    fn every_injected_call_is_contained_by_one_snapshot() {
        let r = report("asctime");
        assert_eq!(r.cow.snapshots, r.calls as u64);
        assert!(r.cow.pages_shared > 0);
        assert!(
            r.cow.pages_copied > 0,
            "asctime writes its static buffer, so pages must fault in"
        );
    }
}
