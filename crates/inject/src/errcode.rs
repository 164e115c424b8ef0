//! Error-return-code determination (§3.3, Table 1).
//!
//! From the fault-injection campaign's returned calls, classify how the
//! function signals errors: does it have a return value at all, does it
//! return one consistent value whenever it sets `errno`, several
//! different ones (the paper found exactly two such functions, `fdopen`
//! and `freopen`), or was `errno` never observed set?

use std::collections::BTreeMap;

use healers_ctypes::CType;
use healers_simproc::SimValue;

use crate::case::CallRecord;

/// The four classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrCodeClass {
    /// Return type is `void` (or supports no equality operator).
    NoReturnCode,
    /// Always returns the same value when `errno` is set.
    Consistent,
    /// Returns different values when `errno` is set.
    Inconsistent,
    /// Never observed setting `errno`.
    NoErrorReturnCodeFound,
}

impl ErrCodeClass {
    /// The row label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            ErrCodeClass::NoReturnCode => "No Return Code",
            ErrCodeClass::Consistent => "Consistent Error Return Code",
            ErrCodeClass::Inconsistent => "Inconsistent Error Return Code",
            ErrCodeClass::NoErrorReturnCodeFound => "No Error Return Code Found",
        }
    }
}

/// The classification result for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrCodeReport {
    /// Which class the function falls into.
    pub class: ErrCodeClass,
    /// The error return value the wrapper should use (the value most
    /// often co-observed with `errno`), if any.
    pub error_value: Option<SimValue>,
    /// The `errno` value the wrapper should set (the most frequently
    /// observed one; `EINVAL` if none was seen).
    pub errno_value: i32,
}

/// A hashable key for `SimValue` (doubles are keyed by bit pattern).
fn value_key(v: SimValue) -> (u8, u64) {
    match v {
        SimValue::Int(i) => (0, i as u64),
        SimValue::Ptr(p) => (1, u64::from(p)),
        SimValue::Double(d) => (2, d.to_bits()),
        SimValue::Void => (3, 0),
    }
}

/// Classify a function's error-return convention from campaign records.
pub fn classify_error_returns(ret: &CType, records: &[CallRecord]) -> ErrCodeReport {
    if !ret.supports_equality() {
        return ErrCodeReport {
            class: ErrCodeClass::NoReturnCode,
            error_value: None,
            errno_value: healers_os::errno::EINVAL,
        };
    }

    // Returned calls that set errno.
    let mut value_counts: BTreeMap<(u8, u64), (SimValue, usize)> = BTreeMap::new();
    let mut errno_counts: BTreeMap<i32, usize> = BTreeMap::new();
    for r in records {
        if let Some(v) = r.returned {
            if r.errno != 0 {
                let e = value_counts.entry(value_key(v)).or_insert((v, 0));
                e.1 += 1;
                *errno_counts.entry(r.errno).or_insert(0) += 1;
            }
        }
    }

    let errno_value = errno_counts
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(e, _)| *e)
        .unwrap_or(healers_os::errno::EINVAL);

    match value_counts.len() {
        0 => ErrCodeReport {
            class: ErrCodeClass::NoErrorReturnCodeFound,
            error_value: None,
            errno_value,
        },
        1 => ErrCodeReport {
            class: ErrCodeClass::Consistent,
            error_value: value_counts.values().next().map(|(v, _)| *v),
            errno_value,
        },
        _ => ErrCodeReport {
            class: ErrCodeClass::Inconsistent,
            error_value: value_counts
                .values()
                .max_by_key(|(_, c)| *c)
                .map(|(v, _)| *v),
            errno_value,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_typesys::{Outcome, TypeExpr};

    fn record(returned: Option<SimValue>, errno: i32) -> CallRecord {
        CallRecord {
            arg_index: Some(0),
            value: SimValue::NULL,
            fundamental: TypeExpr::Null,
            outcome: if returned.is_some() {
                if errno != 0 {
                    Outcome::ErrorReturn
                } else {
                    Outcome::Success
                }
            } else {
                Outcome::Crash
            },
            returned,
            errno,
            provenance: None,
            label: "t".into(),
        }
    }

    #[test]
    fn void_functions_have_no_return_code() {
        let r = classify_error_returns(&CType::void(), &[]);
        assert_eq!(r.class, ErrCodeClass::NoReturnCode);
        assert_eq!(r.class.label(), "No Return Code");
    }

    #[test]
    fn consistent_error_value() {
        let records = vec![
            record(Some(SimValue::Int(0)), 0),
            record(Some(SimValue::Int(-1)), 22),
            record(Some(SimValue::Int(-1)), 9),
            record(None, 0),
        ];
        let r = classify_error_returns(&CType::int(), &records);
        assert_eq!(r.class, ErrCodeClass::Consistent);
        assert_eq!(r.error_value, Some(SimValue::Int(-1)));
        // Most frequent errno wins the tie deterministically.
        assert!(r.errno_value == 22 || r.errno_value == 9);
    }

    #[test]
    fn inconsistent_error_values() {
        // The fdopen/freopen pattern: errno set both on failure (NULL)
        // and spuriously on success (valid pointer).
        let records = vec![
            record(Some(SimValue::NULL), 9),
            record(Some(SimValue::NULL), 9),
            record(Some(SimValue::Ptr(0x1000)), 25),
        ];
        let r = classify_error_returns(&CType::ptr(CType::void()), &records);
        assert_eq!(r.class, ErrCodeClass::Inconsistent);
        assert_eq!(r.error_value, Some(SimValue::NULL));
    }

    #[test]
    fn no_error_code_found() {
        let records = vec![
            record(Some(SimValue::Int(5)), 0),
            record(Some(SimValue::Int(-1)), 0), // fflush-style: EOF without errno
            record(None, 0),
        ];
        let r = classify_error_returns(&CType::int(), &records);
        assert_eq!(r.class, ErrCodeClass::NoErrorReturnCodeFound);
        assert_eq!(r.error_value, None);
        assert_eq!(r.errno_value, healers_os::errno::EINVAL);
    }
}
