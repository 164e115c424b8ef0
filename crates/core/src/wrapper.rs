//! The robustness wrapper (§5): interposition, argument checking,
//! stateful tracking, and the configurable violation policy.
//!
//! A wrapped call has the structure of Figure 5: a recursion flag test,
//! prefix argument checks, the call to the original function, and
//! postfix bookkeeping (table updates for `malloc`/`fopen`/`opendir`
//! and friends). "Robustness wrappers in our system provide a flexible
//! trade-off between efficiency and robustness" — the
//! [`WrapperConfig`] selects which functions are wrapped, which
//! checking techniques are on, and what happens on a violation
//! (production: return an error and log; debugging: abort).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use healers_libc::{file, CFunction, Libc, World};
use healers_os::OpenFlags;
use healers_simproc::{Addr, SimFault, SimValue};
use healers_typesys::TypeExpr;

use healers_trace::recorder::flight;
use healers_trace::Histogram;

use crate::checker::{
    checkable_supertype, scan_string, CheckCapabilities, CheckCounters, CheckKind, CheckOutcomes,
    Tables, MAX_STRING_SCAN,
};
use crate::decl::FunctionDecl;
use crate::overrides::{ManualOverride, SizeAssertion, SizeTerm};
use crate::plan::{
    assertion_size, check_format, eval_op, format_spec, CheckOp, CompiledPlan, FormatViolation,
    IntCond, OpAction, ValidityCache,
};

#[cfg(test)]
mod oracle;

/// What the wrapper does when an argument check fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationAction {
    /// Set `errno` and return the declared error value — the deployed
    /// ("keep the application running") policy.
    #[default]
    ReturnError,
    /// Abort the process — the debugging-phase policy.
    Abort,
    /// Substitute or clamp the offending argument and let the call
    /// proceed — the ISO TR 24731-style bounded-safe policy. Failures
    /// with no safe substitute fall back to
    /// [`ViolationAction::ReturnError`].
    Repair,
}

impl ViolationAction {
    /// Every policy, in CLI presentation order.
    pub const ALL: [ViolationAction; 3] = [
        ViolationAction::Abort,
        ViolationAction::ReturnError,
        ViolationAction::Repair,
    ];

    /// The CLI token (`--on-violation <token>`).
    pub fn token(self) -> &'static str {
        match self {
            ViolationAction::Abort => "abort",
            ViolationAction::ReturnError => "error",
            ViolationAction::Repair => "repair",
        }
    }
}

impl std::fmt::Display for ViolationAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// Error from parsing a [`ViolationAction`] token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseViolationActionError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParseViolationActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown violation policy '{}' (expected abort, error, or repair)",
            self.input
        )
    }
}

impl std::error::Error for ParseViolationActionError {}

impl std::str::FromStr for ViolationAction {
    type Err = ParseViolationActionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ViolationAction::ALL
            .into_iter()
            .find(|a| a.token() == s)
            .ok_or_else(|| ParseViolationActionError {
                input: s.to_string(),
            })
    }
}

/// Wrapper configuration.
#[derive(Debug, Clone)]
pub struct WrapperConfig {
    /// Wrap only these functions (`None` = every unsafe function).
    pub enabled: Option<BTreeSet<String>>,
    /// Violation policy.
    pub action: ViolationAction,
    /// Consult the heap table (stateful memory checking, §5.1).
    pub stateful_heap: bool,
    /// Track directory handles (semi-automatic, §5.2).
    pub dir_tracking: bool,
    /// Track stream objects (semi-automatic).
    pub file_tracking: bool,
    /// Executable assertions (semi-automatic).
    pub assertions: Vec<SizeAssertion>,
    /// Record a log entry per violation.
    pub log_violations: bool,
    /// Measure wall-clock time spent checking and in the library (the
    /// measurement wrapper of §7).
    pub measure: bool,
    /// Cache successful pointer checks until the next tracking-table
    /// mutation — the validity-caching optimization §7 points to
    /// ("further improvements can be achieved using the caching
    /// techniques to check the validity of pointer as described in
    /// \[3\]").
    pub check_cache: bool,
    /// Re-run the checks at [`RobustnessWrapper::finish_call`] when the
    /// call was preempted inside its check-vs-call window. Off by
    /// default — the 2002 paper's wrapper checks once, which is exactly
    /// the TOCTOU exposure the threaded fuzzer hunts; turning this on
    /// closes the window (a recheck failure is handled like any other
    /// violation, including repair under [`ViolationAction::Repair`]).
    pub revalidate_on_preempt: bool,
}

impl WrapperConfig {
    /// The fully automatic configuration of Figure 6: stateful heap
    /// checking and the wrapper library's built-in boundary checks
    /// (§5.1) on; no manual tracking.
    pub fn full_auto() -> Self {
        WrapperConfig {
            enabled: None,
            action: ViolationAction::ReturnError,
            stateful_heap: true,
            dir_tracking: false,
            file_tracking: false,
            assertions: crate::overrides::builtin_assertions(),
            log_violations: false,
            measure: false,
            // The §7-cited validity-caching optimization ([3]): cached
            // successful pointer checks are invalidated by the table
            // generation, so enabling it never changes check outcomes —
            // only skips re-probing unchanged pointers.
            check_cache: true,
            revalidate_on_preempt: false,
        }
    }

    /// The semi-automatic configuration of Figure 6: full-auto plus
    /// directory and stream tracking (with structure-integrity probes)
    /// and any assertions carried by the applied manual overrides.
    pub fn semi_auto() -> Self {
        let overrides = crate::overrides::semi_auto_overrides();
        let mut config = WrapperConfig {
            dir_tracking: true,
            file_tracking: true,
            ..WrapperConfig::full_auto()
        };
        config.assertions.extend(
            overrides
                .values()
                .flat_map(|o| o.assertions.iter().cloned()),
        );
        config
    }

    /// A minimal wrapper: stateless probing only ("a process owned by
    /// an ordinary user may use only a minimal wrapper", §2).
    pub fn minimal() -> Self {
        WrapperConfig {
            stateful_heap: false,
            ..WrapperConfig::full_auto()
        }
    }

    fn caps(&self) -> CheckCapabilities {
        CheckCapabilities {
            stateful_heap: self.stateful_heap,
            dir_tracking: self.dir_tracking,
            file_tracking: self.file_tracking,
        }
    }
}

/// Counters (and, in measurement mode, timings) the wrapper gathers —
/// the measurement wrapper of §7.
#[derive(Debug, Clone, Default)]
pub struct WrapperStats {
    /// Calls routed through the wrapper (wrapped or not).
    pub calls: u64,
    /// Calls to functions with active checks.
    pub wrapped_calls: u64,
    /// Individual argument checks performed.
    pub checks: u64,
    /// Violations detected.
    pub violations: u64,
    /// Individual argument fixes applied under
    /// [`ViolationAction::Repair`].
    pub repairs: u64,
    /// Checks skipped thanks to the validity cache.
    pub check_cache_hits: u64,
    /// Wrapped calls preempted inside their check-vs-call window
    /// (another simulated thread ran between checks and library call).
    pub preempted_calls: u64,
    /// Re-validations performed at the end of a preempted window
    /// ([`WrapperConfig::revalidate_on_preempt`]).
    pub window_rechecks: u64,
    /// Re-validations that failed — checks that passed before the
    /// window but no longer hold after it: a caught TOCTOU mutation.
    pub recheck_failures: u64,
    /// Per-kernel decomposition of the checks above: tracking-table
    /// hits, bulk page-run probes, NUL scans, and bytes scanned.
    pub check_kinds: CheckCounters,
    /// Pass/fail tallies per check kind (region, string, stream, …) —
    /// unconditional plain increments, deterministic, part of the
    /// stable `healers report` output.
    pub check_outcomes: CheckOutcomes,
    /// Per-function call counts and latency histograms, collected only
    /// while the [`healers_trace`] gate is on (empty otherwise). Wall
    /// times — excluded from byte-identical report output.
    pub per_function: BTreeMap<String, FnTelemetry>,
    /// Wall-clock time spent in argument checking (measurement mode).
    pub time_checking: Duration,
    /// Wall-clock time spent in the library itself (measurement mode).
    pub time_in_library: Duration,
}

/// Per-function telemetry: a call count and a log2-bucket histogram of
/// whole wrapped-call latencies (checks + library) in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct FnTelemetry {
    /// Calls observed while telemetry was on.
    pub calls: u64,
    /// Latency distribution (nanoseconds per call).
    pub latency_ns: Histogram,
}

impl WrapperStats {
    /// Fold another stats set into this one — the merge the campaign
    /// uses to aggregate per-worker wrapper stats. The exhaustive
    /// destructure (no `..`) makes adding a field without deciding how
    /// it merges a compile error.
    pub fn absorb(&mut self, other: &WrapperStats) {
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
            per_function,
            time_checking,
            time_in_library,
        } = other;
        self.calls += calls;
        self.wrapped_calls += wrapped_calls;
        self.checks += checks;
        self.violations += violations;
        self.repairs += repairs;
        self.check_cache_hits += check_cache_hits;
        self.preempted_calls += preempted_calls;
        self.window_rechecks += window_rechecks;
        self.recheck_failures += recheck_failures;
        self.check_kinds.absorb(check_kinds);
        self.check_outcomes.absorb(check_outcomes);
        for (name, telemetry) in per_function {
            let mine = self.per_function.entry(name.clone()).or_default();
            mine.calls += telemetry.calls;
            mine.latency_ns.merge(&telemetry.latency_ns);
        }
        self.time_checking += *time_checking;
        self.time_in_library += *time_in_library;
    }
}

/// One logged violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Function whose check failed.
    pub function: String,
    /// Argument index.
    pub arg: usize,
    /// The check that failed (type notation or assertion description).
    pub check: String,
    /// The offending value.
    pub value: SimValue,
}

/// What happened to one wrapped call — the explicit outcome the old
/// implicit bool/errno plumbing couldn't express. Returned by
/// [`RobustnessWrapper::call_verdict`]; per-[`CheckKind`] tallies land
/// in [`WrapperStats::check_outcomes`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Verdict {
    /// Every check passed; the call went through unmodified.
    #[default]
    Pass,
    /// A check failed and the call was refused.
    Rejected {
        /// The `errno` value set.
        errno: i32,
        /// The declared error value returned in place of the result.
        error_value: SimValue,
    },
    /// Checks failed but every offending argument was substituted or
    /// clamped ([`ViolationAction::Repair`]); the call went through
    /// with the fixed arguments.
    Repaired {
        /// The fixes applied, in order.
        fixes: Vec<Repair>,
    },
}

/// One applied repair: which argument was fixed, the check it failed,
/// and the value before and after — both outcomes stay visible to
/// `healers explain` and the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// Argument index that was fixed.
    pub arg: usize,
    /// Outcome-tally classification of the failed check.
    pub kind: CheckKind,
    /// The check that failed (type notation or description).
    pub check: String,
    /// The argument value before the fix.
    pub before: SimValue,
    /// The substituted or clamped value.
    pub after: SimValue,
}

/// The first failing check of a call's prefix: everything the
/// violation and repair paths need about it. `op` indexes the entry's
/// compiled program, which is what the repair dispatch reads and what
/// names the check in diagnostics ([`RobustnessWrapper::check_text`]),
/// so a failure allocates nothing until it is reported.
#[derive(Debug, Clone, PartialEq)]
struct CheckFailure {
    op: usize,
    arg: usize,
    kind: CheckKind,
    value: SimValue,
}

/// An in-flight wrapped call between its checks and its library call —
/// the check-vs-call window, reified. Produced by
/// [`RobustnessWrapper::begin_call`]; consumed by
/// [`RobustnessWrapper::finish_call`]. Between the two, other simulated
/// threads may mutate the world (free the checked buffer, close the
/// checked stream) — exactly the TOCTOU races the threaded fuzzer
/// explores and `revalidate_on_preempt` closes.
///
/// The window borrows the caller's name and arguments and the library
/// function `begin_call` resolved, so opening one allocates nothing;
/// it owns an argument vector only after a repair changed it.
#[derive(Debug, Clone)]
pub struct PendingCall<'a> {
    func: &'a CFunction,
    /// The arguments the library call receives: the caller's, unless
    /// repair fixed some of them.
    args: Cow<'a, [SimValue]>,
    /// Dispatch slot; meaningless for [`PendingPhase::Bare`].
    idx: usize,
    phase: PendingPhase,
}

#[derive(Debug, Clone)]
enum PendingPhase {
    /// Recursive or unknown call: straight through, no tracking.
    Bare,
    /// Known but unwrapped (safe or disabled): call through and keep
    /// the tracking tables current.
    Passthrough,
    /// Checks passed — possibly after repair, in which case `fixes`
    /// records what was changed.
    Admitted { fixes: Vec<Repair> },
    /// Checks failed with no safe substitute: the violation is
    /// delivered at finish (after the window — the refusal happens at
    /// the call point).
    Refused { failure: CheckFailure },
}

impl PendingCall<'_> {
    /// The function this call targets.
    pub fn function(&self) -> &str {
        &self.func.name
    }

    /// Whether the checks admitted the call (the library call will
    /// actually execute at finish).
    pub fn admitted(&self) -> bool {
        matches!(self.phase, PendingPhase::Admitted { .. })
    }

    /// Whether this call's prefix checks actually ran (i.e. the
    /// function is wrapped and this was not a recursive entry).
    pub fn checked(&self) -> bool {
        matches!(
            self.phase,
            PendingPhase::Admitted { .. } | PendingPhase::Refused { .. }
        )
    }
}

/// Builder-style construction of a [`RobustnessWrapper`] — the public
/// entry point of phase two (Figure 1): declarations in, wrapper out.
///
/// The stages mirror the pipeline: [`decls`](WrapperBuilder::decls)
/// supplies the analysis output, [`config`](WrapperBuilder::config)
/// picks the robustness/efficiency trade-off (defaults to
/// [`WrapperConfig::full_auto`]), [`overrides`](WrapperBuilder::overrides)
/// applies the semi-automatic manual edits, and
/// [`build`](WrapperBuilder::build) precomputes the check plans.
///
/// ```
/// use healers_core::{WrapperBuilder, WrapperConfig};
///
/// let wrapper = WrapperBuilder::new()
///     .decls(Vec::new())
///     .config(WrapperConfig::full_auto())
///     .build();
/// assert!(wrapper.violations().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct WrapperBuilder {
    decls: Vec<FunctionDecl>,
    config: WrapperConfig,
    overrides: Option<BTreeMap<String, ManualOverride>>,
}

impl Default for WrapperBuilder {
    fn default() -> Self {
        WrapperBuilder::new()
    }
}

impl WrapperBuilder {
    /// A builder with no declarations and the fully automatic
    /// configuration.
    pub fn new() -> Self {
        WrapperBuilder {
            decls: Vec::new(),
            config: WrapperConfig::full_auto(),
            overrides: None,
        }
    }

    /// The function declarations to wrap (phase-one analysis output).
    pub fn decls(mut self, decls: Vec<FunctionDecl>) -> Self {
        self.decls = decls;
        self
    }

    /// The wrapper configuration (defaults to
    /// [`WrapperConfig::full_auto`]).
    pub fn config(mut self, config: WrapperConfig) -> Self {
        self.config = config;
        self
    }

    /// Manual declaration overrides to apply before planning — the
    /// semi-automatic pipeline's edited declarations (§5.2).
    pub fn overrides(mut self, overrides: &BTreeMap<String, ManualOverride>) -> Self {
        self.overrides = Some(overrides.clone());
        self
    }

    /// Apply any overrides and generate the wrapper: resolve each
    /// unsafe declaration's arguments to their checkable supertypes and
    /// attach the executable assertions of every declared, enabled
    /// function.
    pub fn build(self) -> RobustnessWrapper {
        let WrapperBuilder {
            decls,
            config,
            overrides,
        } = self;
        let decls = match &overrides {
            Some(overrides) => crate::overrides::apply_overrides(decls, overrides),
            None => decls,
        };
        let caps = config.caps();
        let enabled = |name: &str| {
            config
                .enabled
                .as_ref()
                .map(|set| set.contains(name))
                .unwrap_or(true)
        };
        let mut plans = BTreeMap::new();
        let mut decl_map = BTreeMap::new();
        for decl in decls {
            if decl.is_unsafe() && enabled(&decl.name) {
                let plan: Vec<Option<TypeExpr>> = decl
                    .robust_args
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        // A size assertion on this argument subsumes the
                        // discovered fixed-size check: the assertion
                        // bounds the buffer by the *actual* counts of
                        // each call, where the injector's discovered
                        // size is an artifact of its benign counts.
                        let covered_by_assertion = config.assertions.iter().any(|a| {
                            a.function == decl.name
                                && a.buf_arg == i
                                && matches!(
                                    r,
                                    Some(
                                        TypeExpr::RArray(_)
                                            | TypeExpr::WArray(_)
                                            | TypeExpr::RwArray(_)
                                            | TypeExpr::RArrayNull(_)
                                            | TypeExpr::WArrayNull(_)
                                            | TypeExpr::RwArrayNull(_)
                                            | TypeExpr::RonlyFixed(_)
                                            | TypeExpr::RwFixed(_)
                                            | TypeExpr::WonlyFixed(_)
                                    )
                                )
                        });
                        if covered_by_assertion {
                            return None;
                        }
                        r.map(|t| checkable_supertype(t, &caps))
                            .filter(|t| !matches!(t, TypeExpr::Unconstrained | TypeExpr::IntAny))
                    })
                    .collect();
                plans.insert(decl.name.clone(), plan);
            }
            decl_map.insert(decl.name.clone(), decl);
        }
        // Assertions ride with the declaration they guard: a function
        // that is disabled or undeclared gets none (and so has no
        // error return for a failed assertion to deliver).
        let mut assertions: BTreeMap<&str, Vec<SizeAssertion>> = BTreeMap::new();
        for a in &config.assertions {
            if decl_map.contains_key(&a.function) && enabled(&a.function) {
                assertions.entry(&a.function).or_default().push(a.clone());
            }
        }

        // Hoisted dispatch + compiled plans: one index entry per
        // function the call path must recognize — every declaration
        // (so a single lookup also answers "known but safe") and every
        // tracked allocator/handle function. Each entry fuses its
        // claim list and assertions into one flat CheckOp program at
        // build time.
        let mut names: BTreeSet<String> = decl_map.keys().cloned().collect();
        names.extend(TRACKED.iter().map(|s| s.to_string()));
        let mut index = BTreeMap::new();
        let mut entries = Vec::with_capacity(names.len());
        for name in names {
            let plan = plans.get(&name).map(|p| p.as_slice());
            let asserts = assertions.get(name.as_str()).map(|a| a.as_slice());
            let decl = decl_map.get(&name);
            // The printf-family directive scan rides with the claim
            // plan: a disabled or declared-safe function gets neither.
            let format = if plan.is_some() {
                format_spec(&name)
            } else {
                None
            };
            entries.push(FnEntry {
                wrapped: plan.is_some() || asserts.is_some(),
                has_plan: plan.is_some(),
                has_decl: decl.is_some(),
                track: track_for(&name),
                on_error: decl.map_or((0, None), |d| (d.errno_value, d.error_value)),
                plan: CompiledPlan::compile(plan, format, asserts, config.check_cache),
                name: name.clone(),
            });
            index.insert(name, entries.len() - 1);
        }

        RobustnessWrapper {
            program: Arc::new(Program {
                decls: decl_map,
                plans,
                index,
                entries,
                config,
                caps,
            }),
            tables: Tables::default(),
            check_cache: ValidityCache::default(),
            generation: 0,
            in_flag: false,
            stats: WrapperStats::default(),
            log: Vec::new(),
        }
    }
}

/// The allocator/handle functions whose postfix effects keep the
/// tracking tables current (§5.1–5.2) — each bumps the cache
/// generation, so `TRACKED` membership and generation bumps are the
/// same set by construction.
/// Copy of a format string with every `%...n` directive removed and
/// all other bytes untouched. The directive grammar mirrors the
/// renderer and [`check_format`]: flags, width, `.precision`, and
/// `l`/`h`/`z` length modifiers, then one conversion byte.
fn strip_percent_n(fmt: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(fmt.len());
    let mut i = 0usize;
    while i < fmt.len() {
        if fmt[i] != b'%' {
            out.push(fmt[i]);
            i += 1;
            continue;
        }
        let start = i;
        i += 1;
        while i < fmt.len() && matches!(fmt[i], b'-' | b'0' | b'+' | b' ' | b'#') {
            i += 1;
        }
        while i < fmt.len() && fmt[i].is_ascii_digit() {
            i += 1;
        }
        if i < fmt.len() && fmt[i] == b'.' {
            i += 1;
            while i < fmt.len() && fmt[i].is_ascii_digit() {
                i += 1;
            }
        }
        while i < fmt.len() && matches!(fmt[i], b'l' | b'h' | b'z') {
            i += 1;
        }
        if i >= fmt.len() {
            out.extend_from_slice(&fmt[start..]);
            break;
        }
        let conv = fmt[i];
        i += 1;
        if conv != b'n' {
            out.extend_from_slice(&fmt[start..i]);
        }
    }
    out
}

const TRACKED: [&str; 13] = [
    "malloc", "calloc", "realloc", "free", "strdup", "getcwd", "fopen", "fdopen", "tmpfile",
    "freopen", "fclose", "opendir", "closedir",
];

/// Postfix tracking role, resolved once at build time so the call path
/// never string-matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Track {
    None,
    Malloc,
    Calloc,
    Realloc,
    Free,
    Strdup,
    Getcwd,
    FopenLike,
    Fclose,
    Opendir,
    Closedir,
}

fn track_for(name: &str) -> Track {
    match name {
        "malloc" => Track::Malloc,
        "calloc" => Track::Calloc,
        "realloc" => Track::Realloc,
        "free" => Track::Free,
        "strdup" => Track::Strdup,
        "getcwd" => Track::Getcwd,
        "fopen" | "fdopen" | "tmpfile" | "freopen" => Track::FopenLike,
        "fclose" => Track::Fclose,
        "opendir" => Track::Opendir,
        "closedir" => Track::Closedir,
        _ => Track::None,
    }
}

/// One hoisted-dispatch entry: everything the call path needs about a
/// function, resolved once at [`WrapperBuilder::build`] time.
#[derive(Debug, Clone)]
struct FnEntry {
    /// Function name (violation and repair diagnostics).
    name: String,
    /// Whether calls are checked (a claim plan or assertions exist).
    wrapped: bool,
    /// Whether a claim plan exists — distinguishes "declared safe"
    /// (admit unchecked) from "unknown" for the serve daemon.
    has_plan: bool,
    /// Whether a declaration exists.
    has_decl: bool,
    /// Postfix tracking role.
    track: Track,
    /// `ReturnError` data from the declaration: (errno, error value).
    /// Only wrapped entries reach the violation path, and every wrapped
    /// entry has a declaration; the rest carry `(0, None)`.
    on_error: (i32, Option<SimValue>),
    /// The compiled check program.
    plan: CompiledPlan,
}

/// Stable hot-path handle for a function, resolved once via
/// [`RobustnessWrapper::resolve`] and then driven through
/// [`RobustnessWrapper::precheck`] with zero name lookups per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnId(u32);

/// The compiled program a [`RobustnessWrapper`] runs: declarations,
/// claim lists, the dispatch index and entries, the configuration and
/// the metric handles. [`WrapperBuilder::build`] makes it once; every
/// wrapper cloned or forked from that one shares it behind one `Arc`.
#[derive(Debug)]
struct Program {
    decls: BTreeMap<String, FunctionDecl>,
    /// Per-function claim lists: the checkable supertype of each
    /// argument's robust type (`None` = no check) — the source the
    /// compiled programs are built from, kept for diagnostics
    /// ([`RobustnessWrapper::plan`]) and wrapper emission.
    plans: BTreeMap<String, Vec<Option<TypeExpr>>>,
    /// Hoisted dispatch: name → [`FnEntry`] slot. One lookup per call
    /// answers wrapped/safe/tracked/unknown at once.
    index: BTreeMap<String, usize>,
    /// Per-function compiled programs and call-path metadata.
    entries: Vec<FnEntry>,
    config: WrapperConfig,
    /// Capability snapshot of the config (plan-build capabilities ==
    /// check-evaluation capabilities).
    caps: CheckCapabilities,
}

/// The generated robustness wrapper: a drop-in layer over [`Libc`].
///
/// A wrapper is one shared, immutable program — declarations,
/// compiled plans, dispatch entries and the build configuration,
/// fixed at [`WrapperBuilder::build`] — plus its per-run state:
/// tracking tables, validity cache, recursion flag, stats and
/// violation log. `clone()` copies the per-run state and shares the
/// program; [`RobustnessWrapper::child`] is the contained copy one
/// Ballista test runs on.
#[derive(Debug, Clone)]
pub struct RobustnessWrapper {
    program: Arc<Program>,
    tables: Tables,
    /// Cached successful pointer checks: (pointer, type) → the table
    /// generation it was validated under.
    check_cache: ValidityCache,
    /// Bumped on every tracking-table mutation, which also evicts the
    /// now-stale cache entries — a long-lived wrapper (the serve
    /// daemon) stays bounded by live pointers, not call history.
    generation: u64,
    in_flag: bool,
    /// Counters and timings.
    pub stats: WrapperStats,
    log: Vec<Violation>,
}

impl RobustnessWrapper {
    /// The declaration for `name`, if the wrapper knows it.
    pub fn decl(&self, name: &str) -> Option<&FunctionDecl> {
        self.program.decls.get(name)
    }

    /// The active check plan for `name` (diagnostics).
    pub fn plan(&self, name: &str) -> Option<&[Option<TypeExpr>]> {
        self.program.plans.get(name).map(|p| p.as_slice())
    }

    /// Resolve a function name to its hot-path [`FnId`] — the one-time
    /// dispatch lookup. `None` means the wrapper knows nothing about
    /// the name (no declaration and no tracking role).
    pub fn resolve(&self, name: &str) -> Option<FnId> {
        self.program.index.get(name).map(|&i| FnId(i as u32))
    }

    /// Whether the resolved function's calls are checked (a claim plan
    /// or executable assertions exist).
    pub fn is_checked(&self, id: FnId) -> bool {
        self.program.entries[id.0 as usize].wrapped
    }

    /// Whether the resolved function carries a declaration (as opposed
    /// to being known only through its tracking role).
    pub fn has_decl(&self, id: FnId) -> bool {
        self.program.entries[id.0 as usize].has_decl
    }

    /// The resolved function's compiled typed-claim ops, or `None` if
    /// it has no claim plan (declared safe or disabled). Assertion ops
    /// are excluded — they relate multiple arguments of a concrete
    /// call, which a stateless validator cannot judge.
    pub fn claim_ops(&self, id: FnId) -> Option<&[CheckOp]> {
        let e = &self.program.entries[id.0 as usize];
        e.has_plan.then(|| e.plan.claim_ops())
    }

    /// The full compiled program for `name` (diagnostics and benches).
    pub fn compiled_plan(&self, name: &str) -> Option<&CompiledPlan> {
        self.program
            .index
            .get(name)
            .map(|&i| &self.program.entries[i].plan)
    }

    /// Live validity-cache entries (diagnostics; bounded-growth tests).
    pub fn check_cache_len(&self) -> usize {
        self.check_cache.len()
    }

    /// Violations logged so far.
    pub fn violations(&self) -> &[Violation] {
        &self.log
    }

    /// Reset counters (between measurement phases).
    pub fn reset_stats(&mut self) {
        self.stats = WrapperStats::default();
    }

    /// The contained copy one test runs on, as a forked child is: it
    /// shares the program, inherits the tracking tables, validity cache
    /// and generation, and starts with empty stats and an empty
    /// violation log, so both report only the child's own run.
    pub fn child(&self) -> RobustnessWrapper {
        RobustnessWrapper {
            program: Arc::clone(&self.program),
            tables: self.tables.clone(),
            check_cache: self.check_cache.clone(),
            generation: self.generation,
            in_flag: self.in_flag,
            stats: WrapperStats::default(),
            log: Vec::new(),
        }
    }

    fn violation(
        &mut self,
        world: &mut World,
        idx: usize,
        failure: &CheckFailure,
    ) -> Result<(SimValue, Verdict), SimFault> {
        let check = self.check_text(idx, failure);
        let name = self.program.entries[idx].name.as_str();
        let arg = failure.arg;
        self.stats.violations += 1;
        // Violations are rare by construction (the hot path is the
        // admit side), so the flight recorder can afford a formatted
        // detail string here.
        flight().record(
            "check-failure",
            name,
            &format!("argument {arg} failed {check}"),
        );
        if self.program.config.log_violations {
            self.log.push(Violation {
                function: name.to_string(),
                arg,
                check: check.clone(),
                value: failure.value,
            });
        }
        self.in_flag = false;
        match self.program.config.action {
            ViolationAction::Abort => Err(SimFault::Abort {
                reason: format!("healers: {name} argument {arg} failed {check}"),
            }),
            // Repair lands here only when the failure had no safe
            // substitute — the documented fallback to the error return.
            ViolationAction::ReturnError | ViolationAction::Repair => {
                let (errno, error_value) = self.program.entries[idx].on_error;
                world.proc.set_errno(errno);
                let value = error_value.unwrap_or(SimValue::Void);
                Ok((
                    value,
                    Verdict::Rejected {
                        errno,
                        error_value: value,
                    },
                ))
            }
        }
    }

    /// The interposed call: Figure 5 as a runtime.
    ///
    /// # Errors
    ///
    /// Propagates faults from the library itself (the wrapper prevents
    /// the ones its checks cover, not all conceivable ones) and, in
    /// [`ViolationAction::Abort`] mode, reports violations as aborts.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not exported by `libc`.
    pub fn call(
        &mut self,
        libc: &Libc,
        world: &mut World,
        name: &str,
        args: &[SimValue],
    ) -> Result<SimValue, SimFault> {
        self.call_verdict(libc, world, name, args)
            .map(|(value, _)| value)
    }

    /// The interposed call with its explicit [`Verdict`]: what the
    /// checks decided about this call and — under
    /// [`ViolationAction::Repair`] — exactly which arguments were
    /// fixed, with their before/after values. It is
    /// [`begin_call`](RobustnessWrapper::begin_call) followed at once by
    /// an unpreempted [`finish_call`](RobustnessWrapper::finish_call).
    ///
    /// # Errors
    ///
    /// Same contract as [`RobustnessWrapper::call`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is not exported by `libc`.
    pub fn call_verdict(
        &mut self,
        libc: &Libc,
        world: &mut World,
        name: &str,
        args: &[SimValue],
    ) -> Result<(SimValue, Verdict), SimFault> {
        // The telemetry gate: with tracing off this costs one relaxed
        // atomic load; with it on, the whole call (checks + library) is
        // timed into the per-function latency histogram.
        let started = healers_trace::enabled().then(Instant::now);
        let pending = self.begin_call(libc, world, name, args);
        let result = self.finish_call(libc, world, pending, false);
        if let Some(started) = started {
            let nanos = started.elapsed().as_nanos() as u64;
            let telemetry = self.stats.per_function.entry(name.to_string()).or_default();
            telemetry.calls += 1;
            telemetry.latency_ns.record(nanos);
        }
        result
    }

    /// First half of the interposed call: dispatch and the prefix
    /// checks (and, under [`ViolationAction::Repair`], the fixes). The
    /// returned [`PendingCall`] is the reified check-vs-call window —
    /// other simulated threads may run between `begin_call` and
    /// [`RobustnessWrapper::finish_call`], which is precisely the
    /// TOCTOU surface the threaded fuzzer explores.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not exported by `libc`.
    pub fn begin_call<'a>(
        &mut self,
        libc: &'a Libc,
        world: &mut World,
        name: &'a str,
        args: &'a [SimValue],
    ) -> PendingCall<'a> {
        self.stats.calls += 1;
        let func = libc
            .get(name)
            .unwrap_or_else(|| panic!("undefined symbol: {name}"));
        let pending = |idx, phase| PendingCall {
            func,
            args: Cow::Borrowed(args),
            idx,
            phase,
        };

        // Recursion detection: a wrapped function internally invoking
        // another wrapped function must reach the real library directly.
        if self.in_flag {
            return pending(0, PendingPhase::Bare);
        }

        // The single hoisted dispatch lookup: wrapped, safe, tracked,
        // and error-return data resolve in one probe. A miss means the
        // wrapper knows nothing about the function — straight through
        // (tracked functions are always in the index).
        let Some(&idx) = self.program.index.get(name) else {
            return pending(0, PendingPhase::Bare);
        };
        if !self.program.entries[idx].wrapped {
            // Unwrapped (safe or disabled): call through at finish, but
            // keep the tracking tables current — the cost §5.2 points
            // out.
            return pending(idx, PendingPhase::Passthrough);
        }

        self.stats.wrapped_calls += 1;
        self.in_flag = true;
        let check_started = self.program.config.measure.then(Instant::now);
        let verdict = self.run_compiled(world, idx, args);
        if let Some(s) = check_started {
            self.stats.time_checking += s.elapsed();
        }
        let (args, phase) = match verdict {
            Ok(()) => (
                Cow::Borrowed(args),
                PendingPhase::Admitted { fixes: Vec::new() },
            ),
            Err(failure) => match self.repair_call(libc, world, idx, args, failure) {
                Ok((repaired, fixes)) => (Cow::Owned(repaired), PendingPhase::Admitted { fixes }),
                Err(failure) => (Cow::Borrowed(args), PendingPhase::Refused { failure }),
            },
        };
        // The window itself runs with the recursion flag clear — the
        // steps another thread pulls into it are ordinary wrapped calls.
        self.in_flag = false;
        PendingCall {
            func,
            args,
            idx,
            phase,
        }
    }

    /// Second half of the interposed call: the library call itself (or
    /// the deferred violation). `preempted` says whether any other
    /// simulated thread ran inside the window; with
    /// [`WrapperConfig::revalidate_on_preempt`] set, the checks are
    /// re-run against the post-window world before the call is allowed
    /// through.
    ///
    /// # Errors
    ///
    /// Same contract as [`RobustnessWrapper::call`].
    pub fn finish_call(
        &mut self,
        libc: &Libc,
        world: &mut World,
        pending: PendingCall<'_>,
        preempted: bool,
    ) -> Result<(SimValue, Verdict), SimFault> {
        let PendingCall {
            func,
            mut args,
            idx,
            phase,
        } = pending;
        let mut fixes = match phase {
            PendingPhase::Bare => {
                world.proc.reset_fuel();
                return func.invoke(world, &args).map(|v| (v, Verdict::Pass));
            }
            PendingPhase::Passthrough => {
                world.proc.reset_fuel();
                let result = func.invoke(world, &args);
                self.post_track(world, self.program.entries[idx].track, &args, &result);
                return result.map(|v| (v, Verdict::Pass));
            }
            PendingPhase::Refused { failure } => return self.violation(world, idx, &failure),
            PendingPhase::Admitted { fixes } => fixes,
        };
        if preempted {
            self.stats.preempted_calls += 1;
            if self.program.config.revalidate_on_preempt {
                // The world may have changed under the admitted
                // arguments; check again before trusting them.
                self.stats.window_rechecks += 1;
                if let Err(failure) = self.run_compiled(world, idx, &args) {
                    self.stats.recheck_failures += 1;
                    flight().record(
                        "window-recheck-failure",
                        &func.name,
                        &format!(
                            "argument {} failed {} after preemption",
                            failure.arg,
                            self.check_text(idx, &failure)
                        ),
                    );
                    match self.repair_call(libc, world, idx, &args, failure) {
                        Ok((repaired, more)) => {
                            args = Cow::Owned(repaired);
                            fixes.extend(more);
                        }
                        Err(failure) => return self.violation(world, idx, &failure),
                    }
                }
            }
        }

        // The call itself.
        self.in_flag = true;
        world.proc.reset_fuel();
        let lib_started = self.program.config.measure.then(Instant::now);
        let result = func.invoke(world, &args);
        if let Some(s) = lib_started {
            self.stats.time_in_library += s.elapsed();
        }

        // Postfix.
        self.in_flag = false;
        self.post_track(world, self.program.entries[idx].track, &args, &result);
        let verdict = if fixes.is_empty() {
            Verdict::Pass
        } else {
            Verdict::Repaired { fixes }
        };
        result.map(|v| (v, verdict))
    }

    /// Run the prefix checks for entry `idx` without invoking the
    /// library — the wrapper's validate/replay hot path. Stats, cache
    /// traffic, outcome tallies, and the violation counter behave
    /// exactly as [`RobustnessWrapper::call`]'s prefix does; `world`
    /// stays read-only (no errno, no logging, no per-call flight
    /// events), so a pre-resolved [`FnId`] can be driven through a
    /// shared world with zero name lookups and zero allocations per
    /// call. Returns whether the call would have been admitted.
    pub fn precheck(&mut self, world: &World, id: FnId, args: &[SimValue]) -> bool {
        let idx = id.0 as usize;
        self.stats.calls += 1;
        if !self.program.entries[idx].wrapped {
            return true;
        }
        self.stats.wrapped_calls += 1;
        let admitted = self.run_compiled(world, idx, args).is_ok();
        if !admitted {
            self.stats.violations += 1;
        }
        admitted
    }

    /// The failed check of entry `idx`, in type notation or as an
    /// assertion description.
    fn check_text(&self, idx: usize, failure: &CheckFailure) -> String {
        self.program.entries[idx].plan.ops()[failure.op].describe()
    }

    /// Execute entry `idx`'s compiled program. `Err` carries the first
    /// violation as a [`CheckFailure`].
    fn run_compiled(
        &mut self,
        world: &World,
        idx: usize,
        args: &[SimValue],
    ) -> Result<(), CheckFailure> {
        // Field-disjoint borrows: `ops` pins `self.program.entries` while the
        // loop mutates `self.stats`/`self.check_cache` and reads
        // `self.tables`/`self.program.caps`.
        let ops: &[CheckOp] = self.program.entries[idx].plan.ops();
        for (opno, op) in ops.iter().enumerate() {
            self.stats.checks += 1;
            let value = args.get(op.arg as usize).copied().unwrap_or(SimValue::Void);
            // Validity caching ([3]): a pointer validated under the
            // current table generation needs no re-probing. Compiled
            // claim ops carry the config switch; assertions never cache.
            let cacheable = op.cacheable && matches!(value, SimValue::Ptr(p) if p != 0);
            if cacheable {
                let key = (value.as_ptr(), op.ty.expect("cacheable ops carry a claim"));
                if self.check_cache.get(&key) == Some(&self.generation) {
                    self.stats.check_cache_hits += 1;
                    // A cache hit is a check that (still) passes.
                    self.stats.check_outcomes.record(op.kind, true);
                    continue;
                }
                let ok = eval_op(
                    world,
                    &self.tables,
                    &self.program.caps,
                    args,
                    op,
                    &mut self.stats.check_kinds,
                );
                self.stats.check_outcomes.record(op.kind, ok);
                if !ok {
                    return Err(CheckFailure {
                        op: opno,
                        arg: op.arg as usize,
                        kind: op.kind,
                        value,
                    });
                }
                if self.check_cache.len() >= 4096 {
                    self.check_cache.clear();
                }
                self.check_cache.insert(key, self.generation);
            } else {
                let ok = eval_op(
                    world,
                    &self.tables,
                    &self.program.caps,
                    args,
                    op,
                    &mut self.stats.check_kinds,
                );
                self.stats.check_outcomes.record(op.kind, ok);
                if !ok {
                    return Err(CheckFailure {
                        op: opno,
                        arg: op.arg as usize,
                        kind: op.kind,
                        value,
                    });
                }
            }
        }
        Ok(())
    }

    /// Upper bound on fix-and-recheck iterations per call under
    /// [`ViolationAction::Repair`]. The bound is a safety net, not a
    /// tuning knob: each iteration fixes the first failing op, op order
    /// is fixed, and fixed ops stay fixed, so the loop converges in at
    /// most one pass over the program in practice.
    const MAX_REPAIRS_PER_CALL: usize = 32;

    /// Write `v` into slot `i` of the owned argument vector, growing it
    /// with `Int(0)` — the renderer's missing-vararg default — if the
    /// call site passed fewer arguments. Returns the previous value.
    fn set_arg(args: &mut Vec<SimValue>, i: usize, v: SimValue) -> SimValue {
        if args.len() <= i {
            args.resize(i + 1, SimValue::Int(0));
        }
        std::mem::replace(&mut args[i], v)
    }

    /// The shared one-byte empty C string used by string substitutions.
    fn empty_cstr(world: &mut World) -> Addr {
        let s = world.proc.named_static("healers.repair.empty", 1);
        let _ = world.proc.mem.write_u8(s, 0);
        s
    }

    /// The fix-and-recheck loop behind [`ViolationAction::Repair`]:
    /// substitute or clamp the argument named by `first`, re-run the
    /// whole prefix over the fixed vector, and repeat until the checks
    /// admit the call or a failure has no safe substitute. Every fix is
    /// tallied into [`WrapperStats::repairs`] and
    /// [`CheckOutcomes::repaired`] and recorded on the flight recorder
    /// with its before/after values; re-run tallies count again each
    /// iteration, so repair-mode reports stay byte-stable across
    /// `--jobs`. Under any other policy `first` comes straight back.
    fn repair_call(
        &mut self,
        libc: &Libc,
        world: &mut World,
        idx: usize,
        args: &[SimValue],
        first: CheckFailure,
    ) -> Result<(Vec<SimValue>, Vec<Repair>), CheckFailure> {
        if self.program.config.action != ViolationAction::Repair {
            return Err(first);
        }
        let name = self.program.entries[idx].name.clone();
        let mut repaired = args.to_vec();
        let mut fixes = Vec::new();
        let mut failure = first;
        for _ in 0..Self::MAX_REPAIRS_PER_CALL {
            let Some(fix) = self.repair_one(libc, world, idx, &mut repaired, &failure) else {
                return Err(failure);
            };
            self.stats.repairs += 1;
            self.stats.check_outcomes.record_repair(failure.kind);
            flight().record(
                "check-repair",
                &name,
                &format!(
                    "argument {} failed {}: {:?} -> {:?}",
                    fix.arg, fix.check, fix.before, fix.after
                ),
            );
            fixes.push(fix);
            match self.run_compiled(world, idx, &repaired) {
                Ok(()) => return Ok((repaired, fixes)),
                Err(f) => failure = f,
            }
        }
        Err(failure)
    }

    /// Attempt one bounded-safe substitution for `failure`. `None`
    /// means the failure has no safe substitute and the caller falls
    /// back to the declared error return.
    fn repair_one(
        &mut self,
        libc: &Libc,
        world: &mut World,
        idx: usize,
        args: &mut Vec<SimValue>,
        failure: &CheckFailure,
    ) -> Option<Repair> {
        let op = self.program.entries[idx]
            .plan
            .ops()
            .get(failure.op)?
            .clone();
        let arg = failure.arg;
        let value = args.get(arg).copied().unwrap_or(SimValue::Void);
        let (target, after): (usize, SimValue) = match op.action {
            // Trivially-true ops never fail, so never reach repair.
            OpAction::Always => return None,
            OpAction::Null => (arg, SimValue::NULL),
            OpAction::Region { size, .. } => {
                // Swap in a zeroed scratch region of the claimed size,
                // preserving whatever prefix of the original argument
                // is actually accessible.
                let size = size.max(1);
                let scratch = world
                    .proc
                    .named_static(&format!("healers.repair.region.{size}"), size);
                world
                    .proc
                    .mem
                    .write_bytes(scratch, &vec![0u8; size as usize])
                    .ok()?;
                world.proc.mem.bounded_copy(scratch, value.as_ptr(), size);
                (arg, SimValue::Ptr(scratch))
            }
            OpAction::File { .. } => {
                // Substitute a safe read/write scratch stream for the
                // wild `FILE*` and register it with the stream table so
                // the re-run admits it (the FopenLike arm reads only
                // the returned pointer).
                let path = world.alloc_cstr("/healers.repair.stream");
                let mode = world.alloc_cstr("w+");
                let stream = libc
                    .get("fopen")?
                    .invoke(world, &[SimValue::Ptr(path), SimValue::Ptr(mode)])
                    .ok()?;
                if stream.as_ptr() == 0 {
                    return None;
                }
                self.post_track(world, Track::FopenLike, &[], &Ok(stream));
                (arg, stream)
            }
            OpAction::Dir { .. } => {
                let path = world.alloc_cstr("/tmp");
                let dirp = libc
                    .get("opendir")?
                    .invoke(world, &[SimValue::Ptr(path)])
                    .ok()?;
                if dirp.as_ptr() == 0 {
                    return None;
                }
                self.post_track(world, Track::Opendir, &[], &Ok(dirp));
                (arg, dirp)
            }
            OpAction::Nts { limit, .. } => {
                // Truncate in place at the end of the accessible run —
                // the discovered robust scan limit. Truncation needs
                // the bytes writable; a read-only or unmapped argument
                // gets the empty scratch string instead.
                let ptr = value.as_ptr();
                let run = world
                    .proc
                    .mem
                    .accessible_run(ptr, limit.saturating_add(1), true, true);
                if ptr != 0 && run > 0 {
                    world.proc.mem.write_u8(ptr + run - 1, 0).ok()?;
                    (arg, value)
                } else {
                    (arg, SimValue::Ptr(Self::empty_cstr(world)))
                }
            }
            OpAction::ModeValid => {
                let m = world.proc.named_static("healers.repair.mode", 2);
                world.proc.mem.write_bytes(m, b"r\0").ok()?;
                (arg, SimValue::Ptr(m))
            }
            OpAction::Int(cond) => {
                // Clamp to the nearest value in the claimed domain.
                let v = value.as_int();
                let new = match cond {
                    IntCond::Neg => -1,
                    IntCond::Zero => 0,
                    IntCond::Pos => 1,
                    IntCond::NonNeg => v.max(0),
                    IntCond::NonPos => v.min(0),
                };
                (arg, SimValue::Int(new))
            }
            OpAction::FdOpen | OpAction::FdFlags { .. } => {
                let fd = world
                    .kernel
                    .open(
                        "/healers.repair.fd",
                        OpenFlags {
                            read: true,
                            write: true,
                            create: true,
                            ..OpenFlags::default()
                        },
                        0o644,
                    )
                    .ok()?;
                (arg, SimValue::Int(i64::from(fd)))
            }
            OpAction::Speed => (arg, SimValue::Int(i64::from(healers_os::B9600))),
            OpAction::Assertion { ref terms, write } => {
                self.repair_assertion(world, args, arg, terms, write)?
            }
            OpAction::Format { varargs_from } => {
                Self::repair_format(world, args, op.arg, varargs_from)?
            }
        };
        let before = Self::set_arg(args, target, after);
        Some(Repair {
            arg: target,
            kind: failure.kind,
            check: self.check_text(idx, failure),
            before,
            after,
        })
    }

    /// Repair a failing size assertion: shrink the first count-like
    /// term so the size expression fits the buffer's real capacity (the
    /// owning heap block's remainder, else the accessible page run), or
    /// substitute a scratch buffer when the argument has no usable
    /// memory at all. One fix per invocation; the repair loop iterates.
    fn repair_assertion(
        &self,
        world: &mut World,
        args: &[SimValue],
        buf_arg: usize,
        terms: &[SizeTerm],
        write: bool,
    ) -> Option<(usize, SimValue)> {
        // Diagnostic re-scans use throwaway counters so repair mode's
        // kernel tallies count only the checks themselves.
        let mut scratch = CheckCounters::default();
        let Some(needed) = assertion_size(world, args, terms, &mut scratch) else {
            // The size expression itself is broken: some strlen term
            // points at a non-string. Give that term the empty string.
            for t in terms {
                if let SizeTerm::StrlenArg(i) = *t {
                    let p = args.get(i).copied().unwrap_or(SimValue::Int(0)).as_ptr();
                    if scan_string(world, p, MAX_STRING_SCAN, false, &mut scratch).is_none() {
                        return Some((i, SimValue::Ptr(Self::empty_cstr(world))));
                    }
                }
            }
            return None;
        };
        let ptr = args
            .get(buf_arg)
            .copied()
            .unwrap_or(SimValue::Void)
            .as_ptr();
        let cap = if ptr == 0 {
            0
        } else {
            match self.tables.block_containing(ptr) {
                Some((base, size)) => u64::from(size - (ptr - base)),
                None => u64::from(world.proc.mem.accessible_run(ptr, u32::MAX, !write, write)),
            }
        };
        if cap == 0 {
            // No usable buffer at all: substitute a scratch buffer big
            // enough for the requested size (clamped to the scan cap).
            let n = needed.clamp(1, u64::from(MAX_STRING_SCAN)) as u32;
            let buf = world
                .proc
                .named_static(&format!("healers.repair.buf.{n}"), n);
            return Some((buf_arg, SimValue::Ptr(buf)));
        }
        let deficit = needed.saturating_sub(cap);
        if deficit > 0 {
            // The buffer is real but small: shrink the first nonzero
            // count-like term so the expression fits the capacity.
            for t in terms {
                match *t {
                    SizeTerm::Arg(i) => {
                        let v = args
                            .get(i)
                            .copied()
                            .unwrap_or(SimValue::Int(0))
                            .as_int()
                            .max(0) as u64;
                        if v > 0 {
                            return Some((i, SimValue::Int((v - v.min(deficit)) as i64)));
                        }
                    }
                    SizeTerm::ArgProduct(i, j) => {
                        let a = args
                            .get(i)
                            .copied()
                            .unwrap_or(SimValue::Int(0))
                            .as_int()
                            .max(0) as u64;
                        let b = args
                            .get(j)
                            .copied()
                            .unwrap_or(SimValue::Int(0))
                            .as_int()
                            .max(0) as u64;
                        if a > 0 && b > 0 {
                            let total = a.saturating_mul(b);
                            let new_a = (total - total.min(deficit)) / b;
                            return Some((i, SimValue::Int(new_a as i64)));
                        }
                    }
                    SizeTerm::StrlenArg(i) => {
                        let p = args.get(i).copied().unwrap_or(SimValue::Int(0)).as_ptr();
                        let Some(len) = scan_string(world, p, MAX_STRING_SCAN, false, &mut scratch)
                        else {
                            continue;
                        };
                        let len = u64::from(len);
                        if len == 0 {
                            continue;
                        }
                        let new_len = (len - len.min(deficit)) as u32;
                        // Truncate the source in place when writable;
                        // otherwise copy the surviving prefix out.
                        if world.proc.mem.write_u8(p + new_len, 0).is_ok() {
                            return Some((i, SimValue::Ptr(p)));
                        }
                        let dst = world
                            .proc
                            .named_static(&format!("healers.repair.str.{new_len}"), new_len + 1);
                        world.proc.mem.bounded_copy(dst, p, new_len);
                        world.proc.mem.write_u8(dst + new_len, 0).ok()?;
                        return Some((i, SimValue::Ptr(dst)));
                    }
                    SizeTerm::Const(_) => {}
                }
            }
        }
        // Nothing shrinkable (constants only, or the failure wasn't a
        // size deficit): swap in a scratch buffer of the needed size.
        let n = needed.clamp(1, u64::from(MAX_STRING_SCAN)) as u32;
        let buf = world
            .proc
            .named_static(&format!("healers.repair.buf.{n}"), n);
        Some((buf_arg, SimValue::Ptr(buf)))
    }

    /// Repair a failing printf-family call: replace an unreadable
    /// format with the empty string, strip `%n` directives from the
    /// format, or replace the offending `%s` vararg with the empty
    /// string.
    fn repair_format(
        world: &mut World,
        args: &[SimValue],
        fmt_arg: u32,
        varargs_from: u32,
    ) -> Option<(usize, SimValue)> {
        let mut scratch = CheckCounters::default();
        match check_format(world, args, fmt_arg, varargs_from, &mut scratch)? {
            FormatViolation::BadFormat { arg } | FormatViolation::BadString { arg } => {
                Some((arg as usize, SimValue::Ptr(Self::empty_cstr(world))))
            }
            FormatViolation::PercentN { arg } => {
                let fmt = args
                    .get(arg as usize)
                    .copied()
                    .unwrap_or(SimValue::Int(0))
                    .as_ptr();
                let len = scan_string(world, fmt, MAX_STRING_SCAN, false, &mut scratch)?;
                let bytes = world.proc.mem.read_bytes(fmt, len).ok()?;
                let out = strip_percent_n(&bytes);
                let dst = world.alloc_buf(out.len() as u32 + 1);
                world.proc.mem.write_bytes(dst, &out).ok()?;
                world.proc.mem.write_u8(dst + out.len() as u32, 0).ok()?;
                Some((arg as usize, SimValue::Ptr(dst)))
            }
        }
    }

    /// Postfix bookkeeping: keep the heap/stream/directory tables
    /// current by observing the calls that create and destroy the
    /// objects (§5.1–5.2 — "the wrapper intercepts the call and records
    /// the address and size of the allocated block"). The role is
    /// resolved at build time ([`Track`]), so the hot path never
    /// string-matches.
    fn post_track(
        &mut self,
        world: &mut World,
        track: Track,
        args: &[SimValue],
        result: &Result<SimValue, SimFault>,
    ) {
        if track == Track::None {
            return;
        }
        let Ok(value) = result else { return };
        let returned_ptr = value.as_ptr();
        // Any table mutation invalidates cached pointer validations:
        // freed blocks and closed handles must be re-checked. Evicting
        // eagerly (rather than leaving stale generations to be lazily
        // ignored) keeps a long-lived wrapper's cache bounded by the
        // pointers live in the current generation.
        self.generation += 1;
        self.check_cache.clear();
        match track {
            Track::None => unreachable!(),
            Track::Malloc => {
                if returned_ptr != 0 {
                    self.tables
                        .heap_blocks
                        .insert(returned_ptr, args[0].as_int().max(0) as u32);
                }
            }
            Track::Calloc => {
                if returned_ptr != 0 {
                    let size = (args[0].as_int() as u32).wrapping_mul(args[1].as_int() as u32);
                    self.tables.heap_blocks.insert(returned_ptr, size);
                }
            }
            Track::Realloc => {
                if returned_ptr != 0 {
                    self.tables.heap_blocks.remove(&args[0].as_ptr());
                    self.tables
                        .heap_blocks
                        .insert(returned_ptr, args[1].as_int().max(0) as u32);
                }
            }
            Track::Free => {
                self.tables.heap_blocks.remove(&args[0].as_ptr());
            }
            Track::Strdup | Track::Getcwd => {
                if returned_ptr != 0 {
                    // Track the returned allocation; its size is the
                    // string length + 1.
                    let mut len = 0u32;
                    while len < crate::checker::MAX_STRING_SCAN
                        && world
                            .proc
                            .mem
                            .read_u8(returned_ptr + len)
                            .map(|b| b != 0)
                            .unwrap_or(false)
                    {
                        len += 1;
                    }
                    // getcwd with a caller buffer is not an allocation.
                    if track == Track::Strdup || args.first().map(|a| a.is_null()).unwrap_or(false)
                    {
                        self.tables.heap_blocks.insert(returned_ptr, len + 1);
                    }
                }
            }
            Track::FopenLike => {
                if returned_ptr != 0 {
                    self.tables.open_files.insert(returned_ptr);
                    self.tables
                        .heap_blocks
                        .insert(returned_ptr, file::FILE_SIZE);
                }
            }
            Track::Fclose => {
                let p = args[0].as_ptr();
                self.tables.open_files.remove(&p);
                self.tables.heap_blocks.remove(&p);
            }
            Track::Opendir => {
                if returned_ptr != 0 {
                    self.tables.open_dirs.insert(returned_ptr);
                    self.tables
                        .heap_blocks
                        .insert(returned_ptr, healers_libc::dirent::DIR_SIZE);
                }
            }
            Track::Closedir => {
                // The handle is dead whether or not closedir succeeded.
                let p = args[0].as_ptr();
                self.tables.open_dirs.remove(&p);
                self.tables.heap_blocks.remove(&p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decl::analyze;
    use crate::plan::action_for;
    use healers_simproc::INVALID_PTR;

    fn build(functions: &[&str], config: WrapperConfig) -> (Libc, RobustnessWrapper, World) {
        let libc = Libc::standard();
        let decls = analyze(&libc, functions);
        let wrapper = WrapperBuilder::new().decls(decls).config(config).build();
        (libc, wrapper, World::new())
    }

    #[test]
    fn wrapper_prevents_asctime_crashes() {
        let (libc, mut w, mut world) = build(&["asctime"], WrapperConfig::full_auto());
        // Invalid pointer: caught, errno = EINVAL, returns NULL.
        let r = w
            .call(&libc, &mut world, "asctime", &[SimValue::Ptr(INVALID_PTR)])
            .unwrap();
        assert_eq!(r, SimValue::NULL);
        assert_eq!(world.proc.errno(), healers_os::errno::EINVAL);
        // An undersized buffer allocated *outside* the wrapper's sight:
        // the stateless probe sees a readable page and lets it through —
        // sub-page undersizing is exactly what only stateful tracking
        // catches (see `malloc_interception_enables_stateful_checks`).
        let small = world.alloc_buf(43);
        let r = w
            .call(&libc, &mut world, "asctime", &[SimValue::Ptr(small)])
            .unwrap();
        assert_ne!(r, SimValue::NULL);
        // A valid 44-byte struct passes through and works.
        let ok = world.alloc_buf(44);
        let r = w
            .call(&libc, &mut world, "asctime", &[SimValue::Ptr(ok)])
            .unwrap();
        assert_ne!(r, SimValue::NULL);
        // NULL is in the robust type: passes through (and the library
        // itself handles it).
        let r = w
            .call(&libc, &mut world, "asctime", &[SimValue::NULL])
            .unwrap();
        assert_eq!(r, SimValue::NULL);
        assert_eq!(w.stats.violations, 1);
    }

    #[test]
    fn safe_functions_pass_through_unchecked() {
        let (libc, mut w, mut world) = build(&["abs"], WrapperConfig::full_auto());
        let r = w
            .call(&libc, &mut world, "abs", &[SimValue::Int(-9)])
            .unwrap();
        assert_eq!(r, SimValue::Int(9));
        assert_eq!(w.stats.wrapped_calls, 0);
        assert_eq!(w.stats.checks, 0);
    }

    #[test]
    fn abort_mode_aborts_on_violation() {
        let config = WrapperConfig {
            action: ViolationAction::Abort,
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strlen"], config);
        let err = w
            .call(&libc, &mut world, "strlen", &[SimValue::NULL])
            .unwrap_err();
        assert!(err.is_abort());
    }

    #[test]
    fn violations_are_logged() {
        let config = WrapperConfig {
            log_violations: true,
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strlen"], config);
        let _ = w.call(&libc, &mut world, "strlen", &[SimValue::NULL]);
        assert_eq!(w.violations().len(), 1);
        assert_eq!(w.violations()[0].function, "strlen");
    }

    #[test]
    fn malloc_interception_enables_stateful_checks() {
        let (libc, mut w, mut world) = build(&["malloc", "free", "strcpy"], {
            let mut c = WrapperConfig::semi_auto();
            c.enabled = None;
            c
        });
        // Allocate through the wrapper so the block is tracked.
        let block = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(8)])
            .unwrap();
        assert!(w.tables.heap_blocks.contains_key(&block.as_ptr()));

        // strcpy with a source longer than the tracked destination is a
        // violation (the Libsafe-style overflow prevention of §5.1) —
        // note the overflow stays inside one page, so only the stateful
        // check can see it.
        let long = world.alloc_cstr("a string that is far longer than eight bytes");
        let r = w
            .call(&libc, &mut world, "strcpy", &[block, SimValue::Ptr(long)])
            .unwrap();
        assert_eq!(r, SimValue::NULL);
        assert!(w.stats.violations > 0);

        // A short source is fine.
        let short = world.alloc_cstr("ok");
        let r = w
            .call(&libc, &mut world, "strcpy", &[block, SimValue::Ptr(short)])
            .unwrap();
        assert_eq!(r, block);

        // Freeing unregisters the block.
        w.call(&libc, &mut world, "free", &[block]).unwrap();
        assert!(!w.tables.heap_blocks.contains_key(&block.as_ptr()));
    }

    #[test]
    fn dir_tracking_closes_the_closedir_hole() {
        let functions = ["opendir", "closedir", "readdir"];
        // Full auto: a garbage DIR-sized block slips through the memory
        // check and closedir aborts.
        let (libc, mut w, mut world) = build(&functions, WrapperConfig::full_auto());
        let garbage = world.alloc_buf(32);
        for i in 0..32 {
            world.proc.mem.write_u8(garbage + i, 0xCC).unwrap();
        }
        let r = w.call(&libc, &mut world, "closedir", &[SimValue::Ptr(garbage)]);
        assert!(r.is_err(), "full-auto wrapper should not catch garbage DIR");

        // Semi auto: directory tracking rejects it.
        let (libc, mut w, mut world) = build(&functions, WrapperConfig::semi_auto());
        let garbage = world.alloc_buf(32);
        let r = w
            .call(&libc, &mut world, "closedir", &[SimValue::Ptr(garbage)])
            .unwrap();
        assert_eq!(r, SimValue::Int(-1));

        // And a legitimate opendir/closedir cycle still works.
        let path = world.alloc_cstr("/tmp");
        let dirp = w
            .call(&libc, &mut world, "opendir", &[SimValue::Ptr(path)])
            .unwrap();
        assert_ne!(dirp, SimValue::NULL);
        let e = w.call(&libc, &mut world, "readdir", &[dirp]).unwrap();
        let _ = e;
        let r = w.call(&libc, &mut world, "closedir", &[dirp]).unwrap();
        assert_eq!(r, SimValue::Int(0));
        // Second closedir on the now-stale handle: rejected, not crashed.
        let r = w.call(&libc, &mut world, "closedir", &[dirp]).unwrap();
        assert_eq!(r, SimValue::Int(-1));
    }

    #[test]
    fn fread_assertion_relates_buffer_and_counts() {
        let (libc, mut w, mut world) =
            build(&["fopen", "fread", "malloc"], WrapperConfig::semi_auto());
        world.kernel.write_file("/tmp/data", &[7u8; 256]).unwrap();
        let path = world.alloc_cstr("/tmp/data");
        let mode = world.alloc_cstr("r");
        let stream = w
            .call(
                &libc,
                &mut world,
                "fopen",
                &[SimValue::Ptr(path), SimValue::Ptr(mode)],
            )
            .unwrap();
        assert_ne!(stream, SimValue::NULL);

        let buf = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(64)])
            .unwrap();
        // 8 * 8 = 64 bytes: fits.
        let r = w
            .call(
                &libc,
                &mut world,
                "fread",
                &[buf, SimValue::Int(8), SimValue::Int(8), stream],
            )
            .unwrap();
        assert_eq!(r, SimValue::Int(8));
        // 16 * 8 = 128 bytes: the assertion rejects it even though the
        // raw pointer is valid.
        let r = w
            .call(
                &libc,
                &mut world,
                "fread",
                &[buf, SimValue::Int(16), SimValue::Int(8), stream],
            )
            .unwrap();
        assert_eq!(r, SimValue::Int(0));
        assert!(w.stats.violations > 0);
    }

    #[test]
    fn recursion_flag_bypasses_checks() {
        let (libc, mut w, mut world) = build(&["strlen"], WrapperConfig::full_auto());
        w.in_flag = true;
        // With the flag set the wrapper calls straight through — and the
        // library itself crashes, proving no check ran.
        let r = w.call(&libc, &mut world, "strlen", &[SimValue::NULL]);
        assert!(r.is_err());
    }

    #[test]
    fn per_function_enablement() {
        let config = WrapperConfig {
            enabled: Some(["strcpy".to_string()].into_iter().collect()),
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strcpy", "strlen"], config);
        // strlen is not wrapped: NULL crashes.
        assert!(w
            .call(&libc, &mut world, "strlen", &[SimValue::NULL])
            .is_err());
        // strcpy is wrapped: NULL dst is caught.
        let src = world.alloc_cstr("x");
        let r = w
            .call(
                &libc,
                &mut world,
                "strcpy",
                &[SimValue::NULL, SimValue::Ptr(src)],
            )
            .unwrap();
        assert_eq!(r, SimValue::NULL);
    }

    #[test]
    fn file_check_catches_garbage_streams() {
        let (libc, mut w, mut world) = build(&["fclose"], WrapperConfig::full_auto());
        let garbage = world.alloc_buf(file::FILE_SIZE);
        for i in 0..file::FILE_SIZE {
            world.proc.mem.write_u8(garbage + i, 0xCC).unwrap();
        }
        // The fileno+fstat check rejects it (garbage fd).
        let r = w
            .call(&libc, &mut world, "fclose", &[SimValue::Ptr(garbage)])
            .unwrap();
        assert_eq!(r, SimValue::Int(healers_libc::EOF));
        assert_eq!(w.stats.violations, 1);
    }

    #[test]
    fn validity_cache_hits_but_never_goes_stale() {
        let config = WrapperConfig {
            check_cache: true,
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strlen", "malloc", "free"], config);
        let s = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(16)])
            .unwrap();
        world.proc.write_cstr(s.as_ptr(), b"cached").unwrap();
        // First call validates and caches; repeats hit the cache.
        for _ in 0..5 {
            let r = w.call(&libc, &mut world, "strlen", &[s]).unwrap();
            assert_eq!(r, SimValue::Int(6));
        }
        assert!(
            w.stats.check_cache_hits >= 4,
            "hits {}",
            w.stats.check_cache_hits
        );
        // A free invalidates the cache: the stale pointer is re-checked
        // and, since the block is gone from the table... the stateless
        // probe may still see accessible packed memory, so use the
        // *guarded* failure path: free makes the table forget the block,
        // and the cache must not short-circuit the re-check.
        w.call(&libc, &mut world, "free", &[s]).unwrap();
        let before = w.stats.check_cache_hits;
        let _ = w.call(&libc, &mut world, "strlen", &[s]);
        assert_eq!(
            w.stats.check_cache_hits, before,
            "stale cache entry was used after free"
        );
    }

    #[test]
    fn check_outcome_tallies_are_always_on() {
        let (libc, mut w, mut world) = build(&["strlen"], WrapperConfig::full_auto());
        let s = world.alloc_cstr("hi");
        w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        let _ = w.call(&libc, &mut world, "strlen", &[SimValue::NULL]);
        assert_eq!(w.stats.check_outcomes.passed(CheckKind::String), 1);
        assert_eq!(w.stats.check_outcomes.failed(CheckKind::String), 1);
        assert_eq!(w.stats.check_outcomes.passed(CheckKind::Region), 0);
    }

    #[test]
    fn per_function_telemetry_obeys_the_gate() {
        // The only test in this binary that touches the global gate, so
        // the off-state assertions cannot race another test.
        let (libc, mut w, mut world) = build(&["strlen"], WrapperConfig::full_auto());
        let s = world.alloc_cstr("gated");
        w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        assert!(
            w.stats.per_function.is_empty(),
            "telemetry collected with the gate off"
        );
        healers_trace::set_enabled(true);
        w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        healers_trace::set_enabled(false);
        let telemetry = &w.stats.per_function["strlen"];
        assert_eq!(telemetry.calls, 2);
        assert_eq!(telemetry.latency_ns.count(), 2);
        // Gate back off: no further collection.
        w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        assert_eq!(w.stats.per_function["strlen"].calls, 2);
        assert_eq!(w.stats.calls, 4, "the base counters never pause");
    }

    #[test]
    fn stats_absorb_merges_every_field() {
        let mut hist = Histogram::new();
        hist.record(100);
        let mut part = WrapperStats {
            calls: 1,
            wrapped_calls: 2,
            checks: 3,
            violations: 4,
            check_cache_hits: 5,
            preempted_calls: 21,
            window_rechecks: 22,
            recheck_failures: 23,
            ..Default::default()
        };
        part.check_kinds.table_hits = 6;
        part.check_outcomes.record(CheckKind::String, true);
        part.per_function.insert(
            "strlen".into(),
            FnTelemetry {
                calls: 7,
                latency_ns: hist.clone(),
            },
        );
        part.time_checking = Duration::from_micros(8);
        part.time_in_library = Duration::from_micros(9);

        let mut total = WrapperStats::default();
        total.absorb(&part);
        total.absorb(&part);
        assert_eq!(total.calls, 2);
        assert_eq!(total.wrapped_calls, 4);
        assert_eq!(total.checks, 6);
        assert_eq!(total.violations, 8);
        assert_eq!(total.check_cache_hits, 10);
        assert_eq!(total.preempted_calls, 42);
        assert_eq!(total.window_rechecks, 44);
        assert_eq!(total.recheck_failures, 46);
        assert_eq!(total.check_kinds.table_hits, 12);
        assert_eq!(total.check_outcomes.passed(CheckKind::String), 2);
        assert_eq!(total.per_function["strlen"].calls, 14);
        assert_eq!(total.per_function["strlen"].latency_ns.count(), 2);
        assert_eq!(total.time_checking, Duration::from_micros(16));
        assert_eq!(total.time_in_library, Duration::from_micros(18));
    }

    #[test]
    fn toctou_free_in_window_slips_past_the_single_check() {
        // The paper's wrapper checks once: a buffer freed by another
        // thread *after* the checks but *before* the library call sails
        // through — the fault the threaded fuzzer exists to find.
        let libc = Libc::standard();
        let decls = analyze(&libc, &["strlen", "malloc", "free"]);
        let mut w = WrapperBuilder::new()
            .decls(decls)
            .config(WrapperConfig::full_auto())
            .build();
        let mut world = World::new_guarded();
        let SimValue::Ptr(p) = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(16)])
            .unwrap()
        else {
            panic!("malloc returned a non-pointer")
        };
        world.proc.write_cstr(p, b"hello").unwrap();
        let args = [SimValue::Ptr(p)];

        let pending = w.begin_call(&libc, &mut world, "strlen", &args);
        assert!(pending.admitted(), "live NTS must pass the checks");
        // "Another thread" frees the checked buffer inside the window.
        w.call(&libc, &mut world, "free", &[SimValue::Ptr(p)])
            .unwrap();
        let err = w.finish_call(&libc, &mut world, pending, true).unwrap_err();
        assert!(err.segv_addr().is_some(), "expected a fault, got {err:?}");
        assert_eq!(w.stats.preempted_calls, 1);
        assert_eq!(w.stats.window_rechecks, 0, "revalidation is off");
    }

    #[test]
    fn revalidate_on_preempt_closes_the_window() {
        let libc = Libc::standard();
        let decls = analyze(&libc, &["strlen", "malloc", "free"]);
        let mut config = WrapperConfig::full_auto();
        config.revalidate_on_preempt = true;
        let mut w = WrapperBuilder::new().decls(decls).config(config).build();
        let mut world = World::new_guarded();
        let SimValue::Ptr(p) = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(16)])
            .unwrap()
        else {
            panic!("malloc returned a non-pointer")
        };
        world.proc.write_cstr(p, b"hello").unwrap();
        let args = [SimValue::Ptr(p)];

        // Unpreempted windows never re-check: zero added cost.
        let pending = w.begin_call(&libc, &mut world, "strlen", &args);
        let (len, verdict) = w.finish_call(&libc, &mut world, pending, false).unwrap();
        assert_eq!((len, verdict), (SimValue::Int(5), Verdict::Pass));
        assert_eq!(w.stats.window_rechecks, 0);

        // Preempted + mutated: the re-check catches the freed buffer
        // and the call is refused instead of faulting.
        let pending = w.begin_call(&libc, &mut world, "strlen", &args);
        assert!(pending.admitted());
        w.call(&libc, &mut world, "free", &[SimValue::Ptr(p)])
            .unwrap();
        let (_, verdict) = w.finish_call(&libc, &mut world, pending, true).unwrap();
        assert!(
            matches!(verdict, Verdict::Rejected { .. }),
            "recheck must reject the stale argument, got {verdict:?}"
        );
        assert_eq!(w.stats.preempted_calls, 1);
        assert_eq!(w.stats.window_rechecks, 1);
        assert_eq!(w.stats.recheck_failures, 1);
    }

    #[test]
    fn begin_finish_matches_plain_call_without_preemption() {
        // `call` is literally begin+finish(false); a split drive of the
        // same sequence must agree on results and every counter.
        let functions = ["strlen", "malloc", "free"];
        let (libc, mut a, mut world_a) = build(&functions, WrapperConfig::full_auto());
        let (_, mut b, mut world_b) = build(&functions, WrapperConfig::full_auto());
        let s_a = world_a.alloc_cstr("window");
        let s_b = world_b.alloc_cstr("window");
        let ra = a
            .call(&libc, &mut world_a, "strlen", &[SimValue::Ptr(s_a)])
            .unwrap();
        let args = [SimValue::Ptr(s_b)];
        let pending = b.begin_call(&libc, &mut world_b, "strlen", &args);
        let (rb, _) = b.finish_call(&libc, &mut world_b, pending, false).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.stats.calls, b.stats.calls);
        assert_eq!(a.stats.wrapped_calls, b.stats.wrapped_calls);
        assert_eq!(a.stats.checks, b.stats.checks);
        assert_eq!(a.stats.preempted_calls, 0);
        assert_eq!(b.stats.preempted_calls, 0);
    }

    #[test]
    fn validity_cache_is_evicted_on_table_mutations() {
        // Regression: the cache used to keep entries from dead
        // generations forever — unbounded growth in a long-lived
        // wrapper. Hammer one wrapper through many tracking-table
        // mutations with a *distinct* pointer per generation and
        // assert the cache stays bounded by live entries, with check
        // outcomes identical to a cache-off wrapper.
        let functions = ["strlen", "malloc"];
        let (libc, mut w, mut world) = build(&functions, WrapperConfig::full_auto());
        let (_, mut w_off, mut world_off) = build(
            &functions,
            WrapperConfig {
                check_cache: false,
                ..WrapperConfig::full_auto()
            },
        );
        for round in 0..600u32 {
            // malloc mutates the heap table: generation bump + evict.
            let p = w
                .call(&libc, &mut world, "malloc", &[SimValue::Int(16)])
                .unwrap();
            let p_off = w_off
                .call(&libc, &mut world_off, "malloc", &[SimValue::Int(16)])
                .unwrap();
            assert_eq!(p, p_off, "worlds diverged");
            world.proc.write_cstr(p.as_ptr(), b"bounded").unwrap();
            world_off.proc.write_cstr(p.as_ptr(), b"bounded").unwrap();
            for _ in 0..3 {
                w.call(&libc, &mut world, "strlen", &[p]).unwrap();
                w_off.call(&libc, &mut world_off, "strlen", &[p]).unwrap();
            }
            assert!(
                w.check_cache_len() <= 1,
                "cache grew beyond the live generation at round {round}: {}",
                w.check_cache_len()
            );
        }
        // Within each generation the repeats still hit.
        assert_eq!(w.stats.check_cache_hits, 600 * 2);
        assert_eq!(w_off.stats.check_cache_hits, 0);
        // Eviction is an optimization, not a semantic change.
        assert_eq!(w.stats.check_outcomes, w_off.stats.check_outcomes);
        assert_eq!(w.stats.violations, w_off.stats.violations);
        assert_eq!(w.stats.checks, w_off.stats.checks);
    }

    #[test]
    fn precheck_replays_the_call_prefix() {
        let (libc, mut w, mut world) = build(&["strlen", "abs"], WrapperConfig::full_auto());
        let s = world.alloc_cstr("replay");
        let id = w.resolve("strlen").unwrap();
        assert!(w.is_checked(id));
        assert!(w.has_decl(id));
        assert!(!w.claim_ops(id).unwrap().is_empty());
        assert!(w.precheck(&world, id, &[SimValue::Ptr(s)]));
        assert!(!w.precheck(&world, id, &[SimValue::NULL]));
        assert_eq!(w.stats.violations, 1);
        assert_eq!(w.stats.wrapped_calls, 2);
        assert_eq!(w.stats.check_cache_hits, 0);
        // The validity cache works across prechecks too.
        assert!(w.precheck(&world, id, &[SimValue::Ptr(s)]));
        assert_eq!(w.stats.check_cache_hits, 1);
        // Safe functions resolve but admit unchecked, with no claim ops.
        let abs_id = w.resolve("abs").unwrap();
        assert!(!w.is_checked(abs_id));
        assert!(w.claim_ops(abs_id).is_none());
        assert!(w.precheck(&world, abs_id, &[SimValue::Int(-1)]));
        // Unknown names don't resolve at all.
        assert!(w.resolve("no_such_function").is_none());
        // The calls driven through precheck still behave through call():
        // same world, same wrapper, real invocation afterwards.
        let r = w
            .call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
            .unwrap();
        assert_eq!(r, SimValue::Int(6));
    }

    #[test]
    fn measurement_mode_collects_timings() {
        let config = WrapperConfig {
            measure: true,
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strlen"], config);
        let s = world.alloc_cstr("measure me");
        for _ in 0..100 {
            w.call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
                .unwrap();
        }
        assert_eq!(w.stats.wrapped_calls, 100);
        assert!(w.stats.time_in_library > Duration::ZERO);
    }

    #[test]
    fn violation_action_tokens_round_trip() {
        for a in ViolationAction::ALL {
            assert_eq!(a.to_string(), a.token());
            assert_eq!(a.token().parse::<ViolationAction>().unwrap(), a);
        }
        assert_eq!(
            "error".parse::<ViolationAction>().unwrap(),
            ViolationAction::ReturnError
        );
        let err = "fix".parse::<ViolationAction>().unwrap_err();
        assert_eq!(err.input, "fix");
        assert!(err.to_string().contains("abort, error, or repair"));
    }

    fn repair(base: WrapperConfig) -> WrapperConfig {
        WrapperConfig {
            action: ViolationAction::Repair,
            ..base
        }
    }

    #[test]
    fn repair_mode_substitutes_strings_and_regions() {
        let (libc, mut w, mut world) =
            build(&["strlen", "asctime"], repair(WrapperConfig::full_auto()));
        // A wild string argument has no safe truncation point, so the
        // empty scratch string is substituted and the call succeeds.
        let (r, v) = w
            .call_verdict(&libc, &mut world, "strlen", &[SimValue::Ptr(INVALID_PTR)])
            .unwrap();
        assert_eq!(r, SimValue::Int(0));
        let Verdict::Repaired { fixes } = v else {
            panic!("expected a repair, got {v:?}");
        };
        assert_eq!(fixes.len(), 1);
        assert_eq!(fixes[0].arg, 0);
        assert_eq!(fixes[0].before, SimValue::Ptr(INVALID_PTR));
        assert_ne!(fixes[0].after, fixes[0].before);
        assert_eq!(w.stats.repairs, 1);
        assert_eq!(w.stats.check_outcomes.repaired(fixes[0].kind), 1);

        // A wild struct-tm pointer: a zeroed scratch region stands in
        // and the render succeeds.
        let (r, v) = w
            .call_verdict(&libc, &mut world, "asctime", &[SimValue::Ptr(INVALID_PTR)])
            .unwrap();
        assert_ne!(r, SimValue::NULL);
        assert!(matches!(v, Verdict::Repaired { .. }), "got {v:?}");
    }

    #[test]
    fn repair_mode_truncates_unterminated_strings_in_place() {
        use healers_simproc::Protection;
        let (libc, mut w, mut world) = build(&["strlen"], repair(WrapperConfig::full_auto()));
        // One RW page full of 'A's with nothing mapped after it: no NUL
        // anywhere in the accessible run.
        let base: Addr = 0x2000_0000;
        world.proc.mem.map(base, 4096, Protection::ReadWrite);
        for i in 0..4096 {
            world.proc.mem.write_u8(base + i, b'A').unwrap();
        }
        let (r, v) = w
            .call_verdict(&libc, &mut world, "strlen", &[SimValue::Ptr(base)])
            .unwrap();
        // Truncated in place at the end of the discovered run: the last
        // accessible byte became the terminator.
        assert_eq!(r, SimValue::Int(4095));
        let Verdict::Repaired { fixes } = v else {
            panic!("expected a repair, got {v:?}");
        };
        assert_eq!(fixes[0].before, SimValue::Ptr(base));
        assert_eq!(fixes[0].after, SimValue::Ptr(base));
        assert_eq!(world.proc.mem.read_u8(base + 4095).unwrap(), 0);
    }

    #[test]
    fn repair_mode_sanitizes_hostile_formats() {
        // Reject mode refuses %n outright...
        let (libc, mut w, mut world) = build(&["sprintf"], WrapperConfig::full_auto());
        let dst = world.alloc_buf(64);
        let fmt = world.alloc_cstr("x%n!");
        let (_, v) = w
            .call_verdict(
                &libc,
                &mut world,
                "sprintf",
                &[SimValue::Ptr(dst), SimValue::Ptr(fmt), SimValue::Int(0)],
            )
            .unwrap();
        assert!(matches!(v, Verdict::Rejected { .. }), "got {v:?}");

        // ...repair mode strips the directive and lets the call run.
        let (libc, mut w, mut world) = build(&["sprintf"], repair(WrapperConfig::full_auto()));
        let dst = world.alloc_buf(64);
        let fmt = world.alloc_cstr("x%n!");
        let (_, v) = w
            .call_verdict(
                &libc,
                &mut world,
                "sprintf",
                &[SimValue::Ptr(dst), SimValue::Ptr(fmt), SimValue::Int(0)],
            )
            .unwrap();
        let Verdict::Repaired { fixes } = v else {
            panic!("expected a repair, got {v:?}");
        };
        assert_eq!(fixes[0].arg, 1, "the format argument was replaced");
        assert_eq!(fixes[0].kind, CheckKind::Format);
        assert_eq!(world.proc.mem.read_bytes(dst, 3).unwrap(), b"x!\0");

        // A %s whose vararg points nowhere: the vararg itself is
        // replaced with the empty string.
        let fmt = world.alloc_cstr("[%s]");
        let (_, v) = w
            .call_verdict(
                &libc,
                &mut world,
                "sprintf",
                &[
                    SimValue::Ptr(dst),
                    SimValue::Ptr(fmt),
                    SimValue::Ptr(INVALID_PTR),
                ],
            )
            .unwrap();
        let Verdict::Repaired { fixes } = v else {
            panic!("expected a repair, got {v:?}");
        };
        assert_eq!(fixes[0].arg, 2, "the %s vararg was replaced");
        assert_eq!(world.proc.mem.read_bytes(dst, 3).unwrap(), b"[]\0");
    }

    #[test]
    fn repair_mode_clamps_overflowing_copies() {
        let (libc, mut w, mut world) = build(&["malloc", "strcpy"], {
            let mut c = repair(WrapperConfig::semi_auto());
            c.enabled = None;
            c
        });
        // Allocate through the wrapper so the block's true size is
        // tracked, then overflow it — §5.1's Libsafe scenario, but with
        // the bounded-safe answer instead of a refusal.
        let block = w
            .call(&libc, &mut world, "malloc", &[SimValue::Int(8)])
            .unwrap();
        let long = world.alloc_cstr("a string that is far longer than eight bytes");
        let (r, v) = w
            .call_verdict(&libc, &mut world, "strcpy", &[block, SimValue::Ptr(long)])
            .unwrap();
        assert_eq!(r, block);
        let Verdict::Repaired { fixes } = v else {
            panic!("expected a repair, got {v:?}");
        };
        assert!(!fixes.is_empty());
        // The source was truncated in place to the block's capacity:
        // exactly strlen 7 + NUL landed in the 8-byte block.
        let copied = world.proc.mem.read_bytes(block.as_ptr(), 8).unwrap();
        assert_eq!(&copied[..7], b"a strin");
        assert_eq!(copied[7], 0);
    }

    #[test]
    fn repair_mode_resolves_every_reject() {
        // Acceptance criterion: every call reject-mode answers with
        // `Rejected` completes under repair-mode with `Repaired` or
        // `Pass` — zero aborts, zero wrapped crashes.
        let functions = [
            "strlen", "strcpy", "sprintf", "asctime", "fclose", "closedir", "malloc",
        ];
        let drive = |action: ViolationAction| {
            let config = WrapperConfig {
                action,
                ..WrapperConfig::semi_auto()
            };
            let (libc, mut w, mut world) = build(&functions, config);
            let block = w
                .call(&libc, &mut world, "malloc", &[SimValue::Int(8)])
                .unwrap();
            let long = world.alloc_cstr("definitely longer than eight bytes");
            let fmt = world.alloc_cstr("n=%n");
            let garbage = world.alloc_buf(32);
            let calls: Vec<(&str, Vec<SimValue>)> = vec![
                ("strlen", vec![SimValue::Ptr(INVALID_PTR)]),
                ("strcpy", vec![block, SimValue::Ptr(long)]),
                ("sprintf", vec![block, SimValue::Ptr(fmt), SimValue::Int(0)]),
                ("asctime", vec![SimValue::Ptr(INVALID_PTR)]),
                ("fclose", vec![SimValue::Ptr(garbage)]),
                ("closedir", vec![SimValue::Ptr(garbage)]),
                ("strlen", vec![SimValue::Ptr(long)]),
            ];
            let mut verdicts = Vec::new();
            for (name, args) in calls {
                let (_, v) = w
                    .call_verdict(&libc, &mut world, name, &args)
                    .unwrap_or_else(|e| panic!("{name} crashed under {action}: {e:?}"));
                verdicts.push(v);
            }
            (verdicts, w.stats.repairs)
        };
        let (rejected, _) = drive(ViolationAction::ReturnError);
        let (repaired, nfix) = drive(ViolationAction::Repair);
        for (i, v) in rejected.iter().enumerate() {
            if matches!(v, Verdict::Rejected { .. }) {
                assert!(
                    matches!(repaired[i], Verdict::Repaired { .. } | Verdict::Pass),
                    "call {i}: reject-mode said {v:?} but repair-mode said {:?}",
                    repaired[i]
                );
            }
        }
        assert!(rejected
            .iter()
            .any(|v| matches!(v, Verdict::Rejected { .. })));
        assert!(nfix > 0);
    }

    /// A call whose check of `action` fails on argument `arg` and that
    /// runs safely once that argument is repaired: `(function, arg,
    /// args)`. `None` for [`OpAction::Always`], which never fails. The
    /// match has no `_` arm, so a new variant does not compile until it
    /// is sorted here.
    fn repair_witness(
        world: &mut World,
        action: &OpAction,
    ) -> Option<(&'static str, usize, Vec<SimValue>)> {
        let wild = SimValue::Ptr(INVALID_PTR);
        Some(match action {
            OpAction::Always => return None,
            OpAction::Null => ("asctime", 0, vec![SimValue::Ptr(world.alloc_buf(64))]),
            OpAction::Region { .. } => ("asctime", 0, vec![wild]),
            OpAction::File { .. } => ("fclose", 0, vec![wild]),
            OpAction::Dir { .. } => ("closedir", 0, vec![wild]),
            OpAction::Nts { .. } => ("strlen", 0, vec![wild]),
            OpAction::ModeValid => {
                let path = SimValue::Ptr(world.alloc_cstr("/tmp/witness"));
                ("fopen", 1, vec![path, SimValue::Ptr(world.alloc_cstr("x"))])
            }
            OpAction::Int(cond) => {
                let bad = match cond {
                    IntCond::Neg | IntCond::Zero | IntCond::NonPos => 1,
                    IntCond::Pos | IntCond::NonNeg => -1,
                };
                let buf = SimValue::Ptr(world.alloc_buf(16));
                (
                    "memchr",
                    1,
                    vec![buf, SimValue::Int(bad), SimValue::Int(16)],
                )
            }
            OpAction::FdOpen | OpAction::FdFlags { .. } => {
                let buf = SimValue::Ptr(world.alloc_buf(8192));
                ("read", 0, vec![SimValue::Int(999), buf, SimValue::Int(1)])
            }
            OpAction::Speed => {
                let termios = SimValue::Ptr(world.alloc_buf(256));
                ("cfsetospeed", 1, vec![termios, SimValue::Int(12345)])
            }
            OpAction::Assertion { .. } => {
                // Six writable bytes before unmapped memory: too small
                // for the copy.
                let base: Addr = 0x2000_0000;
                world
                    .proc
                    .mem
                    .map(base, 4096, healers_simproc::Protection::ReadWrite);
                let src = SimValue::Ptr(world.alloc_cstr("longer than six bytes"));
                ("strcpy", 0, vec![SimValue::Ptr(base + 4090), src])
            }
            OpAction::Format { .. } => {
                let dst = SimValue::Ptr(world.alloc_buf(256));
                let fmt = SimValue::Ptr(world.alloc_cstr("%n"));
                ("sprintf", 1, vec![dst, fmt, SimValue::Int(0)])
            }
        })
    }

    #[test]
    fn repair_is_total_over_op_actions() {
        // Serve's `WouldRepair` hint rests on every failing claim having
        // a repair. Drive each variant's witness under repair mode: the
        // claims through a declaration override that puts exactly that
        // claim on the witness argument, the format scan and the size
        // assertion through their own functions' plans.
        use TypeExpr::*;
        let libc = Libc::standard();
        let claims = [
            Null,
            RArray(44),
            WArray(44),
            RwArray(44),
            RArrayNull(44),
            WArrayNull(44),
            RwArrayNull(44),
            OpenFile,
            OpenFileNull,
            RFile,
            WFile,
            OpenDir,
            OpenDirNull,
            Nts,
            NtsWritable,
            NtsNull,
            NtsMax(16),
            ModeShort,
            ModeValid,
            IntNeg,
            IntZero,
            IntPos,
            IntNonNeg,
            IntNonPos,
            FdOpen,
            FdReadable,
            FdWritable,
            SpeedValid,
        ];
        let unclaimed = [
            OpAction::Format { varargs_from: 2 },
            OpAction::Assertion {
                terms: Box::new([]),
                write: true,
            },
        ];
        let cases = claims
            .iter()
            .map(|&t| (action_for(t), Some(t)))
            .chain(unclaimed.into_iter().map(|a| (a, None)));
        let mut driven = BTreeSet::new();
        for (action, claim) in cases {
            let mut world = World::new();
            let (function, arg, args) = repair_witness(&mut world, &action).unwrap();
            let mut overrides = crate::semi_auto_overrides();
            if let Some(t) = claim {
                overrides
                    .entry(function.to_string())
                    .or_default()
                    .robust_args = [(arg, t)].into();
            }
            let mut w = WrapperBuilder::new()
                .decls(analyze(&libc, &[function]))
                .overrides(&overrides)
                .config(repair(WrapperConfig::semi_auto()))
                .build();
            let op = w
                .compiled_plan(function)
                .and_then(|p| {
                    p.ops().iter().find(|op| {
                        op.arg as usize == arg
                            && std::mem::discriminant(&op.action) == std::mem::discriminant(&action)
                    })
                })
                .unwrap_or_else(|| panic!("{function} has no {action:?} op on argument {arg}"));
            if claim.is_some() {
                assert_eq!(format!("{:?}", op.action), format!("{action:?}"));
            }
            let kind = op.kind;
            let (_, verdict) = w
                .call_verdict(&libc, &mut world, function, &args)
                .unwrap_or_else(|e| panic!("{function} faulted after repair of {action:?}: {e:?}"));
            let Verdict::Repaired { fixes } = verdict else {
                panic!("{action:?} on {function}: expected a repair, got {verdict:?}");
            };
            assert!(
                fixes.iter().any(|f| f.kind == kind),
                "{action:?} on {function}: no {kind:?} fix: {fixes:?}"
            );
            driven.insert(format!("{:?}", std::mem::discriminant(&action)));
        }
        // Every variant but `Always`: one per arm of `repair_witness`
        // that returns a witness.
        assert_eq!(driven.len(), 12);

        // `Always` never fails, whatever the value.
        let mut world = World::new();
        assert!(repair_witness(&mut world, &OpAction::Always).is_none());
        let always = CheckOp {
            arg: 0,
            kind: CheckKind::Region,
            ty: None,
            cacheable: false,
            action: action_for(Unconstrained),
        };
        let buf = SimValue::Ptr(world.alloc_buf(8));
        for value in [
            SimValue::NULL,
            SimValue::Ptr(INVALID_PTR),
            buf,
            SimValue::Int(-1),
        ] {
            assert!(eval_op(
                &world,
                &Tables::default(),
                &WrapperConfig::semi_auto().caps(),
                &[value],
                &always,
                &mut CheckCounters::default(),
            ));
        }
    }

    #[test]
    fn assertions_follow_the_enabled_set() {
        // memset is declared but not enabled: its size assertion must
        // not fire, so a NULL destination reaches the library.
        let config = WrapperConfig {
            enabled: Some(["strlen".to_string()].into_iter().collect()),
            ..WrapperConfig::full_auto()
        };
        let (libc, mut w, mut world) = build(&["strlen", "memset"], config);
        let id = w.resolve("memset").unwrap();
        assert!(!w.is_checked(id));
        world.proc.set_errno(0);
        let r = w.call(
            &libc,
            &mut world,
            "memset",
            &[SimValue::NULL, SimValue::Int(0), SimValue::Int(8)],
        );
        assert!(r.is_err(), "a disabled function was checked: {r:?}");
        assert_eq!(w.stats.wrapped_calls, 0);
        assert_eq!(w.stats.violations, 0);
    }

    #[test]
    fn assertions_without_a_declaration_are_not_attached() {
        // memset has a built-in assertion but no declaration here: the
        // call passes through instead of panicking on a missing error
        // return.
        let (libc, mut w, mut world) = build(&["strlen"], WrapperConfig::full_auto());
        assert!(w.resolve("memset").is_none());
        let r = w.call(
            &libc,
            &mut world,
            "memset",
            &[SimValue::NULL, SimValue::Int(0), SimValue::Int(8)],
        );
        assert!(r.is_err(), "the library itself should fault: {r:?}");
        assert_eq!(w.stats.violations, 0);
    }
}
