//! Structural model of C types.

use std::fmt;

/// A C primitive (builtin arithmetic or `void`) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Primitive {
    /// `void` (only valid behind a pointer or as a return type).
    Void,
    /// `char` (signedness is implementation defined; signed on the target).
    Char,
    /// `signed char`
    SChar,
    /// `unsigned char`
    UChar,
    /// `short`
    Short,
    /// `unsigned short`
    UShort,
    /// `int`
    Int,
    /// `unsigned int`
    UInt,
    /// `long`
    Long,
    /// `unsigned long`
    ULong,
    /// `long long`
    LongLong,
    /// `unsigned long long`
    ULongLong,
    /// `float`
    Float,
    /// `double`
    Double,
    /// `long double`
    LongDouble,
}

impl Primitive {
    /// Whether this is an integer type (including `char` variants).
    pub fn is_integer(self) -> bool {
        !matches!(
            self,
            Primitive::Void | Primitive::Float | Primitive::Double | Primitive::LongDouble
        )
    }

    /// Whether this is a floating point type.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            Primitive::Float | Primitive::Double | Primitive::LongDouble
        )
    }

    /// Whether values of this type are signed.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            Primitive::Char
                | Primitive::SChar
                | Primitive::Short
                | Primitive::Int
                | Primitive::Long
                | Primitive::LongLong
        ) || self.is_float()
    }

    /// The canonical C spelling.
    pub fn spelling(self) -> &'static str {
        match self {
            Primitive::Void => "void",
            Primitive::Char => "char",
            Primitive::SChar => "signed char",
            Primitive::UChar => "unsigned char",
            Primitive::Short => "short",
            Primitive::UShort => "unsigned short",
            Primitive::Int => "int",
            Primitive::UInt => "unsigned int",
            Primitive::Long => "long",
            Primitive::ULong => "unsigned long",
            Primitive::LongLong => "long long",
            Primitive::ULongLong => "unsigned long long",
            Primitive::Float => "float",
            Primitive::Double => "double",
            Primitive::LongDouble => "long double",
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spelling())
    }
}

/// The kind of a named aggregate/enum type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TagKind {
    /// `struct tag`
    Struct,
    /// `union tag`
    Union,
    /// `enum tag`
    Enum,
}

impl TagKind {
    /// The C keyword for the tag kind.
    pub fn keyword(self) -> &'static str {
        match self {
            TagKind::Struct => "struct",
            TagKind::Union => "union",
            TagKind::Enum => "enum",
        }
    }
}

/// A structural C type.
///
/// Typedef names that resolve to well-known opaque library types (`FILE`,
/// `DIR`, …) are preserved as [`CType::Named`] so downstream stages (the
/// fault-injector generator in particular) can select specialized test-case
/// generators by name, exactly as the paper selects a specific generator
/// for `FILE *` pointers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CType {
    /// A builtin type.
    Primitive(Primitive),
    /// A pointer. `is_const` records whether the *pointee* is
    /// const-qualified (`const char *`), the piece of qualification that
    /// matters for robust-type discovery (a const pointee never needs write
    /// access).
    Pointer {
        /// The pointed-to type.
        pointee: Box<CType>,
        /// Whether the pointee is `const`-qualified.
        is_const: bool,
    },
    /// A named struct/union/enum (`struct tm`). The body is not modeled.
    Tagged {
        /// struct / union / enum.
        kind: TagKind,
        /// The tag name.
        tag: String,
    },
    /// A typedef name that is treated as opaque (`FILE`, `DIR`, `size_t`
    /// resolves instead — only *unresolvable* names end up here).
    Named(String),
    /// An array of a known or unknown length (function parameters decay to
    /// pointers; this appears inside structs or behind typedefs).
    Array {
        /// Element type.
        elem: Box<CType>,
        /// Declared length, if any.
        len: Option<u32>,
    },
    /// A function type (used for function-pointer parameters).
    Function {
        /// Return type.
        ret: Box<CType>,
        /// Parameter types.
        params: Vec<CType>,
        /// Whether the function is variadic.
        variadic: bool,
    },
}

impl CType {
    /// Convenience constructor for a (non-const) pointer to `pointee`.
    pub fn ptr(pointee: CType) -> CType {
        CType::Pointer {
            pointee: Box::new(pointee),
            is_const: false,
        }
    }

    /// Convenience constructor for a pointer to a `const` pointee.
    pub fn const_ptr(pointee: CType) -> CType {
        CType::Pointer {
            pointee: Box::new(pointee),
            is_const: true,
        }
    }

    /// Convenience constructor for `int`.
    pub fn int() -> CType {
        CType::Primitive(Primitive::Int)
    }

    /// Convenience constructor for `void`.
    pub fn void() -> CType {
        CType::Primitive(Primitive::Void)
    }

    /// Convenience constructor for `char`.
    pub fn char_() -> CType {
        CType::Primitive(Primitive::Char)
    }

    /// Whether this is `void`.
    pub fn is_void(&self) -> bool {
        matches!(self, CType::Primitive(Primitive::Void))
    }

    /// Whether this is any pointer type.
    pub fn is_pointer(&self) -> bool {
        matches!(self, CType::Pointer { .. })
    }

    /// Whether this is an arithmetic (integer or floating) type.
    pub fn is_arithmetic(&self) -> bool {
        match self {
            CType::Primitive(p) => p.is_integer() || p.is_float(),
            CType::Tagged {
                kind: TagKind::Enum,
                ..
            } => true,
            _ => false,
        }
    }

    /// For a pointer type, the pointee; otherwise `None`.
    pub fn pointee(&self) -> Option<&CType> {
        match self {
            CType::Pointer { pointee, .. } => Some(pointee),
            _ => None,
        }
    }

    /// Whether this is a pointer whose pointee is const-qualified.
    pub fn points_to_const(&self) -> bool {
        matches!(self, CType::Pointer { is_const: true, .. })
    }

    /// Whether values of this type support `==`/`!=` in C. The paper's
    /// error-return-code classification needs this: a function whose return
    /// type has no equality operator is classified "no return code".
    pub fn supports_equality(&self) -> bool {
        match self {
            CType::Primitive(Primitive::Void) => false,
            CType::Primitive(_) => true,
            CType::Pointer { .. } => true,
            CType::Tagged {
                kind: TagKind::Enum,
                ..
            } => true,
            // struct/union values cannot be compared with == in C.
            CType::Tagged { .. } => false,
            CType::Named(_) => false,
            CType::Array { .. } => true, // decays to pointer
            CType::Function { .. } => true,
        }
    }

    /// Render the type in C syntax, with an optional declarator name.
    pub fn display_with(&self, name: &str) -> String {
        match self {
            CType::Primitive(p) => {
                if name.is_empty() {
                    p.spelling().to_string()
                } else {
                    format!("{} {}", p.spelling(), name)
                }
            }
            CType::Pointer { pointee, is_const } => {
                let inner = if *is_const {
                    format!("const {}", pointee.display_with(""))
                } else {
                    pointee.display_with("")
                };
                if name.is_empty() {
                    format!("{inner}*")
                } else {
                    format!("{inner}* {name}")
                }
            }
            CType::Tagged { kind, tag } => {
                if name.is_empty() {
                    format!("{} {}", kind.keyword(), tag)
                } else {
                    format!("{} {} {}", kind.keyword(), tag, name)
                }
            }
            CType::Named(n) => {
                if name.is_empty() {
                    n.clone()
                } else {
                    format!("{n} {name}")
                }
            }
            CType::Array { elem, len } => {
                let dims = match len {
                    Some(l) => format!("[{l}]"),
                    None => "[]".to_string(),
                };
                format!("{} {name}{dims}", elem.display_with(""))
            }
            CType::Function {
                ret,
                params,
                variadic,
            } => {
                let mut ps: Vec<String> = params.iter().map(|p| p.display_with("")).collect();
                if *variadic {
                    ps.push("...".to_string());
                }
                format!("{} (*{name})({})", ret.display_with(""), ps.join(", "))
            }
        }
    }
}

impl fmt::Display for CType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_with(""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_properties() {
        assert!(Primitive::Int.is_integer());
        assert!(Primitive::Int.is_signed());
        assert!(!Primitive::UInt.is_signed());
        assert!(Primitive::Double.is_float());
        assert!(!Primitive::Void.is_integer());
        assert!(Primitive::Char.is_signed());
    }

    #[test]
    fn display_simple() {
        assert_eq!(CType::int().to_string(), "int");
        assert_eq!(CType::ptr(CType::char_()).to_string(), "char*");
        assert_eq!(
            CType::const_ptr(CType::Tagged {
                kind: TagKind::Struct,
                tag: "tm".into()
            })
            .to_string(),
            "const struct tm*"
        );
    }

    #[test]
    fn display_with_name() {
        assert_eq!(CType::int().display_with("x"), "int x");
        assert_eq!(CType::ptr(CType::char_()).display_with("s"), "char* s");
    }

    #[test]
    fn equality_support() {
        assert!(CType::int().supports_equality());
        assert!(CType::ptr(CType::void()).supports_equality());
        assert!(!CType::void().supports_equality());
        assert!(!CType::Tagged {
            kind: TagKind::Struct,
            tag: "div_t".into()
        }
        .supports_equality());
    }

    #[test]
    fn pointee_and_const() {
        let t = CType::const_ptr(CType::char_());
        assert!(t.points_to_const());
        assert_eq!(t.pointee(), Some(&CType::char_()));
        assert!(!CType::int().points_to_const());
        assert_eq!(CType::int().pointee(), None);
    }
}
