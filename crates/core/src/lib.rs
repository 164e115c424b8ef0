//! The HEALERS core: function declarations and robustness-wrapper
//! generation (§3, §5).
//!
//! This crate ties the pipeline together:
//!
//! 1. [`analyze`] runs the fault injectors over a set of library
//!    functions and produces a [`FunctionDecl`] for each — the artifact
//!    of Figure 2, with robust argument types, the error return
//!    code, the `errno` value, and the safe/unsafe attribute. The
//!    declarations serialize to and from the paper's XML-ish format
//!    ([`xml`]).
//! 2. Declarations can be edited, either by hand or by applying the
//!    packaged [`overrides`] — the "manual editing" step that closes the
//!    gap between the fully automatic wrapper and the zero-crash
//!    semi-automatic wrapper of Figure 6.
//! 3. [`RobustnessWrapper`] interposes between an application and the
//!    library: it validates every argument of an unsafe function against
//!    its robust type — statefully, against its own tables of heap
//!    blocks, streams and directory handles, or statelessly, by probing
//!    page accessibility — and returns the declared error code instead
//!    of letting the library crash. [`emit`] renders the equivalent C
//!    wrapper source (Figure 5).
//!
//! # Examples
//!
//! ```
//! use healers_core::{analyze, WrapperBuilder, WrapperConfig};
//! use healers_libc::{Libc, World};
//! use healers_simproc::SimValue;
//!
//! let libc = Libc::standard();
//! let decls = analyze(&libc, &["strlen"]);
//! let mut wrapper = WrapperBuilder::new()
//!     .decls(decls)
//!     .config(WrapperConfig::full_auto())
//!     .build();
//! let mut world = World::new();
//!
//! // An invalid pointer that would crash strlen is caught and turned
//! // into an error return.
//! let r = wrapper
//!     .call(&libc, &mut world, "strlen", &[SimValue::Ptr(0xdead_0000)])
//!     .unwrap();
//! assert_eq!(r, SimValue::Int(-1));
//! assert_eq!(world.proc.errno(), healers_os::errno::EINVAL);
//!
//! // Valid calls pass through untouched.
//! let s = world.alloc_cstr("ok");
//! let r = wrapper
//!     .call(&libc, &mut world, "strlen", &[SimValue::Ptr(s)])
//!     .unwrap();
//! assert_eq!(r, SimValue::Int(2));
//! ```

pub mod checker;
pub mod decl;
pub mod emit;
pub mod overrides;
pub mod plan;
mod toctou;
pub mod wrapper;
pub mod xml;

pub use checker::{CheckCounters, CheckKind, CheckOutcomes};
pub use decl::{analyze, FunctionAttribute, FunctionDecl};
pub use emit::{emit_checks_header, emit_wrapper_source, emit_wrapper_source_as};
pub use overrides::{semi_auto_overrides, ManualOverride, SizeAssertion};
pub use plan::{eval_op, CheckOp, CompiledPlan, FormatViolation, OpAction};
pub use wrapper::{
    FnId, FnTelemetry, ParseViolationActionError, PendingCall, Repair, RobustnessWrapper, Verdict,
    ViolationAction, WrapperBuilder, WrapperConfig, WrapperStats,
};
pub use xml::{decls_from_xml, decls_to_xml};
