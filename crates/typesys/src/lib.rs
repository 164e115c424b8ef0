//! The extensible type system of HEALERS (§4.2–4.3).
//!
//! HEALERS computes, for every argument of every library function, a
//! **robust argument type**: a set of values the wrapper can admit,
//! chosen so that (a) every input the function handled gracefully is
//! admitted and (b) the type cannot be weakened without admitting an
//! input that crashed the function.
//!
//! The machinery is a partially ordered set of types `(𝒯, ≤)`:
//!
//! * **Fundamental types** have pairwise-disjoint value sets; every test
//!   case produced by a test-case generator is tagged with exactly one
//!   fundamental type.
//! * **Unified types** are unions of their strict subtypes and are what
//!   the wrapper can actually check (`R_ARRAY_NULL[44]`, `OPEN_FILE`, …).
//!
//! This crate implements the paper's published hierarchies — fixed-size
//! arrays (Figure 3) and file pointers (Figure 4) — plus the companion
//! hierarchies its evaluation needs (directory pointers, C strings, mode
//! strings, file descriptors, scalar integers), the subtype relation
//! including the cross-hierarchy edges (`OPEN_FILE ≤ RW_ARRAY[s]`), and
//! the robust/safe selection algorithm.
//!
//! # Examples
//!
//! Reproducing the `asctime` example from Figure 2: NULL and readable
//! 44-byte blocks succeed, everything else crashes, and the computed
//! robust argument type is `R_ARRAY_NULL[44]` — which is also safe.
//!
//! ```
//! use healers_typesys::{
//!     robust_type, universe, Observation, Outcome, SelectionCriterion, TypeExpr,
//! };
//!
//! let universe = universe::fixed_size_arrays(&[43, 44]);
//! let obs = vec![
//!     Observation::new(TypeExpr::Null, Outcome::Success),
//!     Observation::new(TypeExpr::RonlyFixed(44), Outcome::Success),
//!     Observation::new(TypeExpr::RwFixed(44), Outcome::Success),
//!     Observation::new(TypeExpr::RonlyFixed(43), Outcome::Crash),
//!     Observation::new(TypeExpr::WonlyFixed(44), Outcome::Crash),
//!     Observation::new(TypeExpr::Invalid, Outcome::Crash),
//! ];
//! let r = robust_type(&universe, &obs, SelectionCriterion::SuccessfulReturns);
//! assert_eq!(r.robust, TypeExpr::RArrayNull(44));
//! assert!(r.safe);
//! ```

pub mod expr;
pub mod order;
pub mod select;
pub mod universe;

pub use expr::TypeExpr;
pub use order::{is_strict_subtype, is_subtype};
pub use select::{
    robust_type, robust_type_traced, Observation, Outcome, RobustType, SelectionCriterion,
    SelectionTrace,
};
