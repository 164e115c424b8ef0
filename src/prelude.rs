//! One-stop imports for driving the HEALERS pipeline.
//!
//! The facade crates are fine-grained; most programs want the same
//! dozen names. `use healers::prelude::*;` brings in everything needed
//! to analyze a library, build a wrapper, contain faulty calls, and
//! run a Ballista evaluation or a parallel campaign:
//!
//! ```
//! use healers::prelude::*;
//!
//! let libc = Libc::standard();
//! let decls = analyze(&libc, &["strlen"]);
//! let mut wrapper = WrapperBuilder::new()
//!     .decls(decls)
//!     .config(WrapperConfig::full_auto())
//!     .build();
//! let mut world = World::new();
//! let r = wrapper
//!     .call(&libc, &mut world, "strlen", &[SimValue::NULL])
//!     .unwrap();
//! assert_eq!(r, SimValue::Int(-1));
//! ```

pub use healers_ballista::{ballista_targets, Ballista, BallistaReport, Mode, ParseModeError};
pub use healers_campaign::{Campaign, CampaignConfig, CampaignMetrics};
pub use healers_core::{
    analyze, decls_from_xml, decls_to_xml, semi_auto_overrides, FunctionDecl,
    ParseViolationActionError, Repair, RobustnessWrapper, Verdict, ViolationAction, WrapperBuilder,
    WrapperConfig, WrapperStats,
};
pub use healers_inject::FaultInjector;
pub use healers_libc::{Libc, World};
pub use healers_simproc::{run_in_child, CowStats, SimValue, WorldSnapshot};

pub use crate::error::Error;
