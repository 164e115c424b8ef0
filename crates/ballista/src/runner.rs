//! The evaluation runner: cross-product test generation and sandboxed
//! execution in three configurations (Figure 6's three bars).

use rand::rngs::StdRng;
use rand::RngExt;

use healers_core::{
    FunctionDecl, RobustnessWrapper, ViolationAction, WrapperBuilder, WrapperConfig, WrapperStats,
};
use healers_libc::{Libc, World};
use healers_simproc::{rollback, run_in_child, CowStats, SimFault, SimValue};

use crate::pools::{param_kind, prepare, ParamKind, Pools};
use crate::report::TestClass;
use crate::targets::ballista_targets;

/// Fuel budget per Ballista test (hang detection).
pub const BALLISTA_FUEL: u64 = 300_000;

/// The configuration under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Call the library directly.
    Unwrapped,
    /// Through the automatically generated wrapper.
    FullAuto,
    /// Through the wrapper built from manually edited declarations
    /// with directory/stream tracking and executable assertions.
    SemiAuto,
}

impl Mode {
    /// Every mode, in Figure 6 bar order. `--mode all` iterates this.
    pub const ALL: [Mode; 3] = [Mode::Unwrapped, Mode::FullAuto, Mode::SemiAuto];

    /// The human-readable configuration label (Figure 6 bar name).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Unwrapped => "Unwrapped",
            Mode::FullAuto => "Full-Auto Wrapped",
            Mode::SemiAuto => "Semi-Auto Wrapped",
        }
    }

    /// The command-line token naming this mode (`unwrapped`/`full`/`semi`),
    /// the inverse of [`FromStr`](std::str::FromStr) parsing.
    pub fn token(self) -> &'static str {
        match self {
            Mode::Unwrapped => "unwrapped",
            Mode::FullAuto => "full",
            Mode::SemiAuto => "semi",
        }
    }
}

/// A mode token that no [`Mode`] answers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModeError(pub String);

impl std::fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown mode '{}' (expected unwrapped, full, or semi)",
            self.0
        )
    }
}

impl std::error::Error for ParseModeError {}

impl std::str::FromStr for Mode {
    type Err = ParseModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unwrapped" => Ok(Mode::Unwrapped),
            "full" => Ok(Mode::FullAuto),
            "semi" => Ok(Mode::SemiAuto),
            other => Err(ParseModeError(other.to_string())),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// The Ballista-style evaluation harness.
pub struct Ballista {
    functions: Vec<String>,
    cap_per_function: usize,
    seed: u64,
    action: Option<ViolationAction>,
}

impl Ballista {
    /// A harness over the full 86-function target list.
    pub fn new() -> Self {
        Ballista {
            functions: ballista_targets().iter().map(|s| s.to_string()).collect(),
            cap_per_function: 180,
            seed: 0x2002_0623,
            action: None,
        }
    }

    /// Override the wrapped configurations' violation policy (the CLI's
    /// `--on-violation`). `None` keeps each mode's default
    /// ([`ViolationAction::ReturnError`]); [`Mode::Unwrapped`] runs are
    /// unaffected either way.
    pub fn with_action(mut self, action: ViolationAction) -> Self {
        self.action = Some(action);
        self
    }

    /// Restrict to a subset of functions (tests, quick runs).
    pub fn with_functions(mut self, functions: &[&str]) -> Self {
        self.functions = functions.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Cap the number of tests per function (sampled deterministically
    /// when the cross product is larger).
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap_per_function = cap;
        self
    }

    /// Change the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The functions under evaluation, in execution order.
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// The configured sampling seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Build the wrapper, prepared world, and test-value pools for one
    /// configuration — the immutable evaluation context that
    /// [`Ballista::run_function_full`] executes against. Splitting this from
    /// the per-function loop lets orchestrators (the campaign crate) fan
    /// functions out over worker threads against a shared context.
    pub fn prepare_mode(&self, libc: &Libc, mode: Mode, decls: Vec<FunctionDecl>) -> PreparedMode {
        let override_action = |mut config: WrapperConfig| {
            if let Some(action) = self.action {
                config.action = action;
            }
            config
        };
        let wrapper = match mode {
            Mode::Unwrapped => None,
            Mode::FullAuto => Some(
                WrapperBuilder::new()
                    .decls(decls)
                    .config(override_action(WrapperConfig::full_auto()))
                    .build(),
            ),
            Mode::SemiAuto => Some(
                WrapperBuilder::new()
                    .decls(decls)
                    .overrides(&healers_core::semi_auto_overrides())
                    .config(override_action(WrapperConfig::semi_auto()))
                    .build(),
            ),
        };
        PreparedMode::new(libc, mode.label(), wrapper)
    }

    /// Evaluate one function and return everything the run produced:
    /// the classified outcomes, the wrapper statistics accumulated
    /// across every per-test wrapper child, and the copy-on-write cost
    /// of containing the tests.
    ///
    /// Each test runs against a fresh snapshot whose wrapper stats and
    /// CoW counters would otherwise be discarded with it; this hands
    /// them back so orchestrators absorb the check work of crashed
    /// calls too (a wrapper validates arguments even when the call
    /// then dies). The counter fields are deterministic at any worker
    /// count; the latency histograms inside `stats` are wall-clock and
    /// only populated while the `healers-trace` gate is on. Unwrapped
    /// configurations return default (all-zero) stats.
    pub fn run_function_full(
        &self,
        libc: &Libc,
        prepared: &PreparedMode,
        name: &str,
        rng: &mut StdRng,
    ) -> FunctionRun {
        let vectors = self.test_vectors(libc, prepared, name, rng);
        let mut stats = WrapperStats::default();
        let mut cow = CowStats::default();
        let classes = vectors
            .iter()
            .map(|vector| {
                let test = prepared.run_test(libc, name, vector);
                stats.absorb(&test.stats);
                cow.absorb(&test.cow);
                test.class
            })
            .collect();
        FunctionRun {
            classes,
            stats,
            cow,
        }
    }

    /// The test vectors of one function, in generation order, drawing
    /// sampling decisions from `rng` exactly as
    /// [`Ballista::run_function_full`] does.
    pub fn test_vectors(
        &self,
        libc: &Libc,
        prepared: &PreparedMode,
        name: &str,
        rng: &mut StdRng,
    ) -> Vec<Vec<SimValue>> {
        let func = libc
            .get(name)
            .unwrap_or_else(|| panic!("{name} not exported"));
        let kinds: Vec<ParamKind> = func.proto.params.iter().map(param_kind).collect();
        generate_vectors(&prepared.pools, &kinds, self.cap_per_function, rng)
    }
}

/// Everything one [`Ballista::run_function_full`] invocation produced.
#[derive(Debug, Clone, Default)]
pub struct FunctionRun {
    /// The classified outcome of every test vector, in generation order.
    pub classes: Vec<TestClass>,
    /// Wrapper statistics summed over all per-test wrapper children
    /// (including tests whose call crashed — the checks still ran).
    pub stats: WrapperStats,
    /// Copy-on-write containment cost summed over all test snapshots.
    pub cow: CowStats,
}

/// The immutable per-mode evaluation context built by
/// [`Ballista::prepare_mode`]: the (optional) wrapper, the world every
/// test is contained in, and the typed test-value pools.
pub struct PreparedMode {
    label: &'static str,
    wrapper: Option<RobustnessWrapper>,
    world: World,
    pub(crate) pools: Pools,
}

/// One contained test: its classification, the child wrapper's stats
/// (all zero when unwrapped) and the CoW cost of its snapshot.
#[derive(Debug, Clone)]
pub struct TestRun {
    /// How the call ended.
    pub class: TestClass,
    /// What the child wrapper counted — exactly this test's checks.
    pub stats: WrapperStats,
    /// Copy-on-write work attributable to the test's snapshot.
    pub cow: CowStats,
}

impl PreparedMode {
    /// Build the world the tests run in — Ballista's fuel budget and
    /// the pools' streams, buffers and handles, created through
    /// `wrapper` when there is one so its tables track them.
    pub(crate) fn new(
        libc: &Libc,
        label: &'static str,
        mut wrapper: Option<RobustnessWrapper>,
    ) -> PreparedMode {
        let mut world = World::new();
        world.proc.set_fuel_budget(BALLISTA_FUEL);
        let pools = prepare(libc, &mut wrapper, &mut world);
        PreparedMode {
            label,
            wrapper,
            world,
            pools,
        }
    }

    /// The human-readable configuration label (Figure 6 bar name).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The parent world every test is contained in.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The parent wrapper (`None` for [`Mode::Unwrapped`]).
    pub fn wrapper(&self) -> Option<&RobustnessWrapper> {
        self.wrapper.as_ref()
    }

    /// Execute one test the way paper §4 runs it in a forked child:
    /// [`run_in_child`] runs [`PreparedMode::call_in`] on a
    /// copy-on-write snapshot of the prepared world, and [`rollback`]
    /// drops the child and reports what the snapshot cost. The parent
    /// world and wrapper are never touched.
    pub fn run_test(&self, libc: &Libc, name: &str, args: &[SimValue]) -> TestRun {
        let mut stats = WrapperStats::default();
        let (result, child) = run_in_child(&self.world, |child| {
            self.call_in(libc, child, name, args, &mut stats)
        });
        let class = classify(result.fault(), child.proc.errno());
        let cow = rollback(&self.world, child);
        TestRun { class, stats, cow }
    }

    /// Make one test's call inside `child`, a copy of
    /// [`PreparedMode::world`]: clear `errno`, then call `name` through a
    /// [`RobustnessWrapper::child`] of the prepared wrapper (which shares
    /// the compiled program and starts with empty stats) or, unwrapped,
    /// straight into the library. Returns the call's result; what the
    /// child wrapper counted is stored in `stats` (left as it is when
    /// unwrapped). `stats` is written in place because returning it
    /// beside the result made Figure 6 about 5 % slower on the harden
    /// workload.
    pub fn call_in(
        &self,
        libc: &Libc,
        child: &mut World,
        name: &str,
        args: &[SimValue],
        stats: &mut WrapperStats,
    ) -> Result<SimValue, SimFault> {
        child.proc.set_errno(0);
        match &self.wrapper {
            Some(w) => {
                let mut w = w.child();
                let result = w.call(libc, child, name, args);
                *stats = w.stats;
                result
            }
            None => libc.call(child, name, args),
        }
    }
}

/// How a contained call ended: by its fault, or, if it returned, by
/// whether it set `errno`.
fn classify(fault: Option<&SimFault>, errno: i32) -> TestClass {
    match fault {
        None if errno != 0 => TestClass::ErrnoSet,
        None => TestClass::Silent,
        Some(SimFault::FuelExhausted) => TestClass::Hang,
        Some(SimFault::Abort { .. }) => TestClass::Abort,
        Some(_) => TestClass::Crash,
    }
}

impl Default for Ballista {
    fn default() -> Self {
        Ballista::new()
    }
}

/// Build the test vectors for one function: the full cross product of
/// its parameter pools when small enough, a deterministic sample
/// otherwise — always excluding all-valid combinations.
fn generate_vectors(
    pools: &Pools,
    kinds: &[ParamKind],
    cap: usize,
    rng: &mut StdRng,
) -> Vec<Vec<SimValue>> {
    if kinds.is_empty() {
        return Vec::new();
    }
    let sizes: Vec<usize> = kinds.iter().map(|k| pools.for_kind(*k).len()).collect();
    let total: usize = sizes.iter().product();

    let mut vector_at = |mut index: usize| -> Option<Vec<SimValue>> {
        let mut values = Vec::with_capacity(kinds.len());
        let mut any_invalid = false;
        for (kind, size) in kinds.iter().zip(&sizes) {
            let pool = pools.for_kind(*kind);
            let v = &pool[index % size];
            index /= size;
            any_invalid |= !v.valid;
            values.push(v.value);
        }
        any_invalid.then_some(values)
    };

    if total <= cap {
        (0..total).filter_map(&mut vector_at).collect()
    } else {
        // Deterministic sample without replacement (indices may repeat
        // across functions but never within one).
        let mut indices: Vec<usize> = Vec::with_capacity(cap);
        while indices.len() < cap {
            let i = rng.random_range(0..total);
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
        indices.into_iter().filter_map(&mut vector_at).collect()
    }
}

#[cfg(test)]
mod tests {
    use rand::SeedableRng;

    use super::*;
    use crate::fingerprint::derive_seed;
    use crate::report::BallistaReport;
    use healers_core::analyze;

    /// The serial Figure 6 loop: every function of `b` in order, each
    /// sampling from its own [`derive_seed`] RNG, as the campaign does.
    fn run(b: &Ballista, mode: Mode) -> BallistaReport {
        let libc = Libc::standard();
        let decls = match mode {
            Mode::Unwrapped => Vec::new(),
            _ => {
                let names: Vec<&str> = b.functions().iter().map(String::as_str).collect();
                analyze(&libc, &names)
            }
        };
        let prepared = b.prepare_mode(&libc, mode, decls);
        let mut report = BallistaReport::new(mode.label());
        for name in b.functions() {
            let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), name));
            for class in b
                .run_function_full(&libc, &prepared, name, &mut rng)
                .classes
            {
                report.record(name, class);
            }
        }
        report
    }

    #[test]
    fn unwrapped_strcpy_crashes_and_wrapped_does_not() {
        let b = Ballista::new().with_functions(&["strcpy"]).with_cap(100);
        let unwrapped = run(&b, Mode::Unwrapped);
        assert!(unwrapped.function("strcpy").unwrap().failures() > 0);

        let full = run(&b, Mode::FullAuto);
        let f = full.function("strcpy").unwrap();
        assert_eq!(f.failures(), 0, "full-auto strcpy still failing");
        assert!(f.errno_set > 0, "violations should become errno returns");
    }

    #[test]
    fn never_crashing_functions_have_no_failures_even_unwrapped() {
        let b = Ballista::new()
            .with_functions(crate::targets::NEVER_CRASHING)
            .with_cap(100);
        let r = run(&b, Mode::Unwrapped);
        for (name, o) in r.iter() {
            assert_eq!(o.failures(), 0, "{name} crashed unwrapped");
            assert!(o.tests > 0, "{name} had no tests");
        }
    }

    #[test]
    fn closedir_is_fixed_only_by_the_semi_auto_wrapper() {
        let b = Ballista::new().with_functions(&["closedir"]).with_cap(50);
        let unwrapped = run(&b, Mode::Unwrapped);
        assert!(unwrapped.function("closedir").unwrap().failures() > 0);

        let full = run(&b, Mode::FullAuto);
        assert!(
            full.function("closedir").unwrap().failures() > 0,
            "full-auto should NOT be able to validate DIR pointers (§5.2)"
        );

        let semi = run(&b, Mode::SemiAuto);
        assert_eq!(semi.function("closedir").unwrap().failures(), 0);
    }

    #[test]
    fn corrupted_streams_survive_full_auto_but_not_semi_auto() {
        let b = Ballista::new().with_functions(&["fgetc"]).with_cap(50);
        let full = run(&b, Mode::FullAuto);
        assert!(
            full.function("fgetc").unwrap().failures() > 0,
            "corrupted FILE should slip past fileno+fstat"
        );
        let semi = run(&b, Mode::SemiAuto);
        assert_eq!(semi.function("fgetc").unwrap().failures(), 0);
    }

    #[test]
    fn run_function_stats_accumulates_per_test_wrapper_stats() {
        let libc = Libc::standard();
        let b = Ballista::new().with_functions(&["strcpy"]).with_cap(40);
        let decls = analyze(&libc, &["strcpy"]);
        let prepared = b.prepare_mode(&libc, Mode::FullAuto, decls);
        let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), "strcpy"));
        let FunctionRun { classes, stats, .. } =
            b.run_function_full(&libc, &prepared, "strcpy", &mut rng);
        assert!(!classes.is_empty());
        assert_eq!(stats.calls, classes.len() as u64);
        assert!(stats.checks > 0);
        assert!(stats.violations > 0, "strcpy tests include invalid args");
        // The same seed replays the same classes.
        let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), "strcpy"));
        assert_eq!(
            b.run_function_full(&libc, &prepared, "strcpy", &mut rng)
                .classes,
            classes
        );
        // Unwrapped configurations have no wrapper stats to report.
        let unwrapped = b.prepare_mode(&libc, Mode::Unwrapped, Vec::new());
        let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), "strcpy"));
        let run = b.run_function_full(&libc, &unwrapped, "strcpy", &mut rng);
        assert_eq!(run.stats.calls, 0);
    }

    #[test]
    fn mode_tokens_round_trip_through_from_str() {
        for mode in Mode::ALL {
            assert_eq!(mode.token().parse::<Mode>().unwrap(), mode);
            assert_eq!(format!("{mode}").parse::<Mode>().unwrap(), mode);
        }
        let err = "warped".parse::<Mode>().unwrap_err();
        assert!(err.to_string().contains("warped"));
    }

    #[test]
    fn cow_and_deep_clone_reports_are_identical() {
        // Every test classifies the same on a snapshot of the prepared
        // world as on a deep copy of it.
        let libc = Libc::standard();
        let names = ["strcpy", "closedir", "atoi"];
        let b = Ballista::new().with_functions(&names).with_cap(60);
        let prepared = b.prepare_mode(&libc, Mode::SemiAuto, analyze(&libc, &names));
        let mut cow = BallistaReport::new(prepared.label());
        let mut deep = BallistaReport::new(prepared.label());
        for name in b.functions() {
            let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), name));
            for args in b.test_vectors(&libc, &prepared, name, &mut rng) {
                cow.record(name, prepared.run_test(&libc, name, &args).class);
                let mut child = prepared.world().deep_clone();
                let mut stats = WrapperStats::default();
                let result = prepared.call_in(&libc, &mut child, name, &args, &mut stats);
                deep.record(name, classify(result.as_ref().err(), child.proc.errno()));
            }
        }
        assert!(cow.totals().tests > 0);
        assert_eq!(cow.render(), deep.render());
    }

    #[test]
    fn run_function_full_reports_snapshot_telemetry() {
        let libc = Libc::standard();
        let b = Ballista::new().with_functions(&["strcpy"]).with_cap(40);
        let decls = analyze(&libc, &["strcpy"]);

        let prepared = b.prepare_mode(&libc, Mode::FullAuto, decls);
        let mut rng = StdRng::seed_from_u64(derive_seed(b.seed(), "strcpy"));
        let run = b.run_function_full(&libc, &prepared, "strcpy", &mut rng);
        assert_eq!(
            run.cow.snapshots,
            run.classes.len() as u64,
            "every test must be contained by exactly one snapshot"
        );
        assert!(run.cow.pages_shared > 0);
        assert!(
            run.cow.pages_copied < run.cow.pages_shared,
            "tests should dirty only a fraction of the shared image"
        );
    }

    #[test]
    fn vectors_never_contain_only_valid_values() {
        let libc = Libc::standard();
        let mut world = World::new();
        let mut none = None;
        let pools = prepare(&libc, &mut none, &mut world);
        let mut rng = StdRng::seed_from_u64(1);
        let kinds = [ParamKind::Buffer, ParamKind::CString];
        let vectors = generate_vectors(&pools, &kinds, 10_000, &mut rng);
        // Count: full product minus the all-valid combinations.
        let bufs = pools.for_kind(ParamKind::Buffer);
        let strs = pools.for_kind(ParamKind::CString);
        let valid_b = bufs.iter().filter(|v| v.valid).count();
        let valid_s = strs.iter().filter(|v| v.valid).count();
        assert_eq!(vectors.len(), bufs.len() * strs.len() - valid_b * valid_s);
    }

    #[test]
    fn sampling_respects_the_cap() {
        let libc = Libc::standard();
        let mut world = World::new();
        let mut none = None;
        let pools = prepare(&libc, &mut none, &mut world);
        let mut rng = StdRng::seed_from_u64(1);
        let kinds = [ParamKind::Buffer, ParamKind::CString, ParamKind::GenericInt];
        let vectors = generate_vectors(&pools, &kinds, 50, &mut rng);
        assert!(vectors.len() <= 50);
        assert!(vectors.len() >= 40); // a few all-valid samples dropped
    }
}
