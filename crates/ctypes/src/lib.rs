//! C type model and declaration parser for the HEALERS target machine.
//!
//! HEALERS ("An Automated Approach to Increasing the Robustness of C
//! Libraries", DSN 2002) extracts the C type of every global function of a
//! shared library from header files and manual pages. This crate provides
//! the pieces that stage of the pipeline needs:
//!
//! * [`CType`] — a structural model of C types (primitives, pointers,
//!   qualified types, named structs/unions/enums, arrays, function types),
//! * [`FunctionPrototype`] — the parsed prototype of a library function,
//! * [`parse`] — a recursive-descent parser for C declarations as they
//!   appear in real header files (storage classes, qualifiers, GNU
//!   attributes, typedef names).
//!
//! Object sizes on the simulated target (`struct tm`'s 44 bytes, `FILE`'s
//! 148) live with the objects themselves in `healers-libc`.
//!
//! # Examples
//!
//! ```
//! use healers_ctypes::{parse_prototype, CType};
//!
//! let proto = parse_prototype(
//!     "extern char *strcpy(char *__dest, const char *__src);",
//! ).unwrap();
//! assert_eq!(proto.name, "strcpy");
//! assert_eq!(proto.params.len(), 2);
//! assert!(matches!(proto.ret, CType::Pointer { .. }));
//! assert_eq!(proto.params[1].name.as_deref(), Some("__src"));
//! ```

pub mod parse;
pub mod proto;
pub mod types;

pub use parse::{parse_declarations, parse_prototype, ParseError};
pub use proto::{FunctionPrototype, Param};
pub use types::{CType, Primitive};
