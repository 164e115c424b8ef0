//! Adaptive fault injection (§3.3–§4).
//!
//! For every global function of the library, HEALERS generates a
//! specialized **fault injector**: a program that calls the function with
//! a sequence of test cases — each tagged with a fundamental type from
//! the extensible hierarchy — and from the outcomes computes
//!
//! * the **robust argument type** of every argument (§4.3),
//! * the **error return code** class and `errno` convention (§3.3),
//! * the **safe/unsafe attribute** (§3.4).
//!
//! Test-case generation is *adaptive*: when a call crashes, the injector
//! asks the generators whether the faulting address belongs to one of
//! their test values; the owning generator may adjust the value (most
//! importantly, the fixed-size array generator grows a guard-page-backed
//! array until the faults stop — discovering, e.g., that `asctime` needs
//! exactly 44 readable bytes). Every call runs against a cloned process
//! image, so a crashing call can never corrupt the injector (§4.1).
//!
//! # Examples
//!
//! ```
//! use healers_inject::FaultInjector;
//! use healers_libc::Libc;
//! use healers_typesys::TypeExpr;
//!
//! let libc = Libc::standard();
//! let report = FaultInjector::new(&libc, "asctime").unwrap().run();
//! assert_eq!(report.args[0].robust.robust, TypeExpr::RArrayNull(44));
//! assert!(!report.safe);
//! ```

pub mod case;
pub mod errcode;
pub mod generators;
pub mod injector;
pub mod mutator;
pub mod select_gen;

pub use case::{classify_child_result, CallRecord, TestCase};
pub use errcode::{ErrCodeClass, ErrCodeReport};
pub use generators::TestCaseGenerator;
pub use injector::{ArgReport, FaultInjector, InjectionReport};
pub use mutator::WindowMutator;
pub use select_gen::{benign_arg, benign_args, generator_for};
