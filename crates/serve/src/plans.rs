//! The checking core: `Arc`-shared, read-only wrapper plans.
//!
//! [`ServePlans::build`] runs once at daemon startup. It verifies the
//! persistent declaration cache strictly (a corrupt or truncated entry
//! is a startup error, never a silent re-derivation), obtains every
//! target's declaration through the campaign orchestrator — on a warm
//! cache this performs **zero injected calls**, which the returned
//! [`CampaignMetrics`] proves — and freezes the result into an
//! immutable plan set: the precomputed per-argument checkable
//! supertypes of [`healers_core::WrapperBuilder`], a canonical
//! simulated [`World`] to probe against, and empty tracking tables.
//!
//! Everything here is `&self`: validation walks the wrapper's
//! build-time [`healers_core::CompiledPlan`] claim ops through
//! [`healers_core::eval_op`], which probes the world read-only, so one
//! `Arc<ServePlans>` serves every worker thread without locks or
//! clones. `build` also makes one slot per served function: its
//! wrapper handle and the check notation of each claim op, computed
//! once. [`ServePlans::check`] pays one name lookup for the slot, and
//! its [`Outcome`] borrows the notation from it, so a validate
//! allocates nothing: the daemon's frame path, which holds
//! `INV-SERVE-ZERO-ALLOC` (`tests/serve_zero_alloc.rs`), runs on it.
//! [`ServePlans::validate`] is the owned wrapper over `check`.
//!
//! # The canonical world
//!
//! Pointer checks need memory to probe. The plan set carries a world
//! built deterministically at startup: [`World::new`] plus two scratch
//! allocations — a NUL-terminated string ([`ServePlans::scratch_str`])
//! and a 4 KiB writable buffer ([`ServePlans::scratch_buf`]). Because
//! world construction is deterministic, these addresses are the same
//! in every daemon and every client ([`scratch_addrs`] recomputes them
//! without a daemon), which is what lets request scripts name them
//! symbolically (`ptr:str`, `ptr:buf+N`) and still produce
//! byte-identical reply streams everywhere.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::PathBuf;

use healers_ballista::ballista_targets;
use healers_campaign::cache::CacheError;
use healers_campaign::{fingerprint::fingerprint, Campaign, CampaignConfig, CampaignMetrics};
use healers_core::checker::{CheckCapabilities, CheckCounters, Tables};
use healers_core::{eval_op, FnId, WrapperBuilder, WrapperConfig};
use healers_inject::FaultInjector;
use healers_libc::{Libc, World};
use healers_simproc::{Addr, SimValue};

use crate::proto::{ExplainArg, ValidateVerdict, VerdictRef};

/// The scratch string every daemon world carries.
pub const SCRATCH_TEXT: &str = "healers-serve scratch";

/// Size of the writable scratch buffer (bytes).
pub const SCRATCH_BUF_LEN: u32 = 4096;

/// Configuration for [`ServePlans::build`].
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Functions to serve plans for (empty = all 86 Ballista targets).
    pub functions: Vec<String>,
    /// Persistent declaration cache directory (`None` = derive fresh).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for a cold-start analysis.
    pub jobs: usize,
    /// Answer failing validates with
    /// [`ValidateVerdict::WouldRepair`] instead of
    /// [`ValidateVerdict::Reject`]. Off by default: the flag is the
    /// wire version gate for verdict tag 4, so a daemon only emits it
    /// when the operator opted every client in.
    pub repair_hints: bool,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            functions: Vec::new(),
            cache_dir: None,
            jobs: 1,
            repair_hints: false,
        }
    }
}

/// Everything that can fail building the plan set.
#[derive(Debug)]
pub enum BuildError {
    /// A requested function is not exported by the library.
    NotExported(String),
    /// The declaration cache holds a corrupt, truncated, or
    /// version-mismatched entry.
    Cache(CacheError),
    /// Filesystem failure (cache directory creation or write).
    Io(io::Error),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NotExported(name) => {
                write!(f, "serve: {name} is not exported by the library")
            }
            BuildError::Cache(e) => write!(f, "serve: {e}"),
            BuildError::Io(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Cache(e) => Some(e),
            BuildError::Io(e) => Some(e),
            BuildError::NotExported(_) => None,
        }
    }
}

impl From<io::Error> for BuildError {
    fn from(e: io::Error) -> Self {
        BuildError::Io(e)
    }
}

impl From<CacheError> for BuildError {
    fn from(e: CacheError) -> Self {
        BuildError::Cache(e)
    }
}

/// The deterministic scratch addresses of the canonical serve world:
/// `(string, buffer)`. Recomputable anywhere — clients use this to
/// encode symbolic pointers without talking to a daemon.
pub fn scratch_addrs() -> (Addr, Addr) {
    let mut world = World::new();
    let s = world.alloc_cstr(SCRATCH_TEXT);
    let b = world.alloc_buf(SCRATCH_BUF_LEN);
    (s, b)
}

/// The immutable, share-everywhere checking core.
pub struct ServePlans {
    wrapper: healers_core::RobustnessWrapper,
    world: World,
    tables: Tables,
    caps: CheckCapabilities,
    scratch_str: Addr,
    scratch_buf: Addr,
    functions: Vec<String>,
    /// Served function name → its slot; only functions with a
    /// declaration have one.
    slots: BTreeMap<String, Slot>,
    repair_hints: bool,
}

/// One served function's validate state, fixed at build.
struct Slot {
    /// Index in [`ServePlans::functions`].
    function: usize,
    id: FnId,
    /// The check notation of each claim op, in op order.
    notations: Box<[String]>,
}

/// What [`ServePlans::check`] found for one validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome<'a> {
    /// The verdict; a failing check's notation borrows the plan set.
    pub verdict: VerdictRef<'a>,
    /// The function's index in [`ServePlans::functions`], by which
    /// per-function stats tally the verdict; `None` for an unknown
    /// function.
    pub function: Option<usize>,
}

impl fmt::Debug for ServePlans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServePlans")
            .field("functions", &self.functions.len())
            .field("scratch_str", &format_args!("{:#x}", self.scratch_str))
            .field("scratch_buf", &format_args!("{:#x}", self.scratch_buf))
            .finish()
    }
}

impl ServePlans {
    /// Build the plan set: strict cache verification, campaign-backed
    /// analysis (warm cache ⇒ zero injected calls), wrapper planning,
    /// and the canonical world.
    ///
    /// # Errors
    ///
    /// A function the library does not export, a corrupt cache entry,
    /// or a filesystem failure.
    pub fn build(
        libc: &Libc,
        config: &PlanConfig,
    ) -> Result<(ServePlans, CampaignMetrics), BuildError> {
        let functions: Vec<String> = if config.functions.is_empty() {
            ballista_targets().iter().map(|s| s.to_string()).collect()
        } else {
            config.functions.clone()
        };
        for name in &functions {
            if libc.get(name).is_none() {
                return Err(BuildError::NotExported(name.clone()));
            }
        }

        // Strict cache pass: reject damage before the lenient campaign
        // lookup could paper over it as a miss (and silently re-inject).
        if let Some(dir) = &config.cache_dir {
            let cache = healers_campaign::DeclCache::open(dir)?;
            for name in &functions {
                let injector = FaultInjector::new(libc, name).expect("validated above");
                let fp = fingerprint(&[&injector.signature()]);
                cache.load_checked(name, fp)?;
            }
        }

        let campaign = Campaign::new(&CampaignConfig {
            jobs: config.jobs.max(1),
            cache_dir: config.cache_dir.clone(),
            ..CampaignConfig::default()
        })?;
        let refs: Vec<&str> = functions.iter().map(String::as_str).collect();
        let (decls, metrics) = campaign.analyze(libc, &refs)?;
        campaign.finish()?;

        let wrapper = WrapperBuilder::new()
            .decls(decls)
            .config(WrapperConfig::full_auto())
            .build();
        let mut slots = BTreeMap::new();
        for (function, name) in functions.iter().enumerate() {
            let Some(id) = wrapper.resolve(name).filter(|&id| wrapper.has_decl(id)) else {
                continue;
            };
            let notations = wrapper
                .claim_ops(id)
                .unwrap_or_default()
                .iter()
                .map(|op| op.ty.expect("claim ops carry a claim").notation())
                .collect();
            slots.insert(
                name.clone(),
                Slot {
                    function,
                    id,
                    notations,
                },
            );
        }

        let mut world = World::new();
        let scratch_str = world.alloc_cstr(SCRATCH_TEXT);
        let scratch_buf = world.alloc_buf(SCRATCH_BUF_LEN);

        Ok((
            ServePlans {
                wrapper,
                world,
                tables: Tables::default(),
                caps: CheckCapabilities {
                    stateful_heap: false, // the service tracks no client heap
                    dir_tracking: false,
                    file_tracking: false,
                },
                scratch_str,
                scratch_buf,
                functions,
                slots,
                repair_hints: config.repair_hints,
            },
            metrics,
        ))
    }

    /// The functions this plan set serves, in request order.
    pub fn functions(&self) -> &[String] {
        &self.functions
    }

    /// Address of the canonical NUL-terminated scratch string.
    pub fn scratch_str(&self) -> Addr {
        self.scratch_str
    }

    /// Address of the canonical writable scratch buffer.
    pub fn scratch_buf(&self) -> Addr {
        self.scratch_buf
    }

    /// Validate `args` against `function`'s compiled wrapper plan:
    /// one name lookup, then the claim ops straight off the flat op
    /// array. Pure read: probes the canonical world, mutates nothing
    /// but the caller's check counters, and allocates nothing.
    pub fn check(
        &self,
        function: &str,
        args: &[SimValue],
        ctrs: &mut CheckCounters,
    ) -> Outcome<'_> {
        let Some(slot) = self.slots.get(function) else {
            return Outcome {
                verdict: VerdictRef::UnknownFunction,
                function: None,
            };
        };
        let verdict = match self.wrapper.claim_ops(slot.id) {
            None => VerdictRef::AdmitUnchecked,
            Some(ops) => ops
                .iter()
                .zip(&slot.notations)
                .find(|(op, _)| !eval_op(&self.world, &self.tables, &self.caps, args, op, ctrs))
                .map_or(VerdictRef::Admit, |(op, check)| {
                    let arg = op.arg as u16;
                    // Every claim op has a repair strategy in the
                    // wrapper (`repair_one` is total over `OpAction`),
                    // so under the hint gate a failing claim is always
                    // repairable.
                    if self.repair_hints {
                        VerdictRef::WouldRepair { arg, check }
                    } else {
                        VerdictRef::Reject { arg, check }
                    }
                }),
        };
        Outcome {
            verdict,
            function: Some(slot.function),
        }
    }

    /// [`ServePlans::check`]'s verdict, owned.
    pub fn validate(
        &self,
        function: &str,
        args: &[SimValue],
        ctrs: &mut CheckCounters,
    ) -> ValidateVerdict {
        self.check(function, args, ctrs).verdict.into_owned()
    }

    /// The lattice-walk summary for `function`: its prototype plus, per
    /// argument, the discovered robust type and the checkable
    /// supertype the wrapper actually enforces.
    pub fn explain(&self, function: &str) -> Option<(String, Vec<ExplainArg>)> {
        let decl = self.wrapper.decl(function)?;
        let plan = self.wrapper.plan(function);
        let dash = || "-".to_string();
        let args = decl
            .robust_args
            .iter()
            .enumerate()
            .map(|(i, r)| ExplainArg {
                robust: r.map(|t| t.notation()).unwrap_or_else(dash),
                check: plan
                    .and_then(|p| p.get(i).copied().flatten())
                    .map(|t| t.notation())
                    .unwrap_or_else(dash),
            })
            .collect();
        Some((format!("extern {};", decl.proto), args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans_for(functions: &[&str]) -> ServePlans {
        let libc = Libc::standard();
        let config = PlanConfig {
            functions: functions.iter().map(|s| s.to_string()).collect(),
            ..PlanConfig::default()
        };
        ServePlans::build(&libc, &config).unwrap().0
    }

    #[test]
    fn scratch_addresses_are_deterministic_and_recomputable() {
        let plans = plans_for(&["abs"]);
        let (s, b) = scratch_addrs();
        assert_eq!(plans.scratch_str(), s);
        assert_eq!(plans.scratch_buf(), b);
        let again = plans_for(&["strcpy", "strlen"]);
        assert_eq!(again.scratch_str(), s, "independent of the target list");
    }

    #[test]
    fn validate_admits_rejects_and_classifies() {
        let plans = plans_for(&["strlen", "abs", "strcpy"]);
        let mut ctrs = CheckCounters::default();

        // A readable NUL-terminated string: admitted.
        let verdict = plans.validate("strlen", &[SimValue::Ptr(plans.scratch_str())], &mut ctrs);
        assert_eq!(verdict, ValidateVerdict::Admit);

        // A null pointer where a string is required: rejected with the
        // violating argument and check named.
        match plans.validate("strlen", &[SimValue::NULL], &mut ctrs) {
            ValidateVerdict::Reject { arg: 0, check } => {
                assert!(!check.is_empty());
            }
            v => panic!("expected Reject, got {v:?}"),
        }

        // A safe function has no plan: passed through unchecked.
        assert_eq!(
            plans.validate("abs", &[SimValue::Int(-5)], &mut ctrs),
            ValidateVerdict::AdmitUnchecked
        );

        // Unknown function.
        assert_eq!(
            plans.validate("frobnicate", &[], &mut ctrs),
            ValidateVerdict::UnknownFunction
        );

        // strcpy into the writable scratch buffer from the scratch
        // string: both pointer checks pass.
        assert_eq!(
            plans.validate(
                "strcpy",
                &[
                    SimValue::Ptr(plans.scratch_buf()),
                    SimValue::Ptr(plans.scratch_str()),
                ],
                &mut ctrs,
            ),
            ValidateVerdict::Admit
        );
        assert!(ctrs.run_probes > 0 || ctrs.nul_scans > 0);
    }

    #[test]
    fn check_borrows_what_validate_owns_and_names_the_stats_slot() {
        let plans = plans_for(&["strlen", "abs", "strcpy"]);
        let cases: Vec<(&str, Vec<SimValue>)> = vec![
            ("strlen", vec![SimValue::Ptr(plans.scratch_str())]),
            ("strlen", vec![SimValue::NULL]),
            ("strlen", vec![SimValue::Ptr(0xdead_0000)]),
            ("strlen", vec![SimValue::Int(7)]),
            ("strlen", vec![]),
            ("abs", vec![SimValue::Int(1)]),
            (
                "strcpy",
                vec![SimValue::NULL, SimValue::Ptr(plans.scratch_str())],
            ),
            ("frobnicate", vec![]),
        ];
        for (function, args) in &cases {
            let mut a = CheckCounters::default();
            let mut b = CheckCounters::default();
            let outcome = plans.check(function, args, &mut a);
            let owned = plans.validate(function, args, &mut b);
            assert_eq!(outcome.verdict.into_owned(), owned, "{function} {args:?}");
            assert_eq!(a, b, "counters diverged for {function} {args:?}");
            assert_eq!(
                outcome.function,
                plans.functions().iter().position(|f| f == function),
                "{function}"
            );
        }
    }

    #[test]
    fn repair_hints_turn_rejects_into_would_repair() {
        let libc = Libc::standard();
        let config = PlanConfig {
            functions: vec!["strlen".into(), "abs".into()],
            repair_hints: true,
            ..PlanConfig::default()
        };
        let plans = ServePlans::build(&libc, &config).unwrap().0;
        let mut ctrs = CheckCounters::default();
        // Passing and unchecked verdicts are untouched by the gate.
        assert_eq!(
            plans.validate("strlen", &[SimValue::Ptr(plans.scratch_str())], &mut ctrs),
            ValidateVerdict::Admit
        );
        assert_eq!(
            plans.validate("abs", &[SimValue::Int(-5)], &mut ctrs),
            ValidateVerdict::AdmitUnchecked
        );
        // A failing claim now carries the repair hint, with the same
        // argument index and check notation a Reject would name.
        let hinted = plans.validate("strlen", &[SimValue::NULL], &mut ctrs);
        let plain = plans_for(&["strlen"]).validate("strlen", &[SimValue::NULL], &mut ctrs);
        match (hinted, plain) {
            (
                ValidateVerdict::WouldRepair { arg: ha, check: hc },
                ValidateVerdict::Reject { arg: pa, check: pc },
            ) => {
                assert_eq!(ha, pa);
                assert_eq!(hc, pc);
            }
            (h, p) => panic!("expected WouldRepair/Reject, got {h:?} / {p:?}"),
        }
    }

    #[test]
    fn explain_names_robust_types_and_active_checks() {
        let plans = plans_for(&["strcpy", "abs"]);
        let (proto, args) = plans.explain("strcpy").unwrap();
        assert!(proto.starts_with("extern "));
        assert_eq!(args.len(), 2);
        assert!(args.iter().any(|a| a.check != "-"), "{args:?}");
        let (_, abs_args) = plans.explain("abs").unwrap();
        assert!(abs_args.iter().all(|a| a.check == "-"));
        assert!(plans.explain("frobnicate").is_none());
    }
}
