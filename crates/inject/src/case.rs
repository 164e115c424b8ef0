//! Test cases and outcome classification.

use healers_libc::World;
use healers_simproc::{ChildResult, FaultSite, SimValue};
use healers_typesys::{Outcome, TypeExpr};

/// One concrete test value, tagged with the fundamental type its
/// generator assigned it (§4.2: "each test case is … a pair (v, T) such
/// that T is a fundamental type and v ∈ V(T)").
#[derive(Debug, Clone)]
pub struct TestCase {
    /// The machine value passed to the function.
    pub value: SimValue,
    /// The fundamental type of the value.
    pub fundamental: TypeExpr,
    /// Human-readable description for reports.
    pub label: String,
}

impl TestCase {
    /// Construct a test case.
    ///
    /// # Panics
    ///
    /// Panics if `fundamental` is not a fundamental type.
    pub fn new(value: SimValue, fundamental: TypeExpr, label: impl Into<String>) -> Self {
        assert!(fundamental.is_fundamental(), "{fundamental} is unified");
        TestCase {
            value,
            fundamental,
            label: label.into(),
        }
    }
}

/// The full record of one injected call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Index of the argument under test (`None` for the benign baseline
    /// call of a campaign).
    pub arg_index: Option<usize>,
    /// The injected value (the benign baseline has none: `Void`).
    pub value: SimValue,
    /// The fundamental type of the injected value.
    pub fundamental: TypeExpr,
    /// Classified outcome.
    pub outcome: Outcome,
    /// The returned value, if the call returned.
    pub returned: Option<SimValue>,
    /// `errno` in the child after the call (0 = untouched).
    pub errno: i32,
    /// Test case label.
    pub label: String,
    /// Fault provenance — the faulting address attributed to its page
    /// run and heap block in the child's memory image — when the call
    /// segfaulted; `None` otherwise.
    pub provenance: Option<FaultSite>,
}

/// Classify a sandboxed call result into the robustness outcome scale.
/// The child's `errno` was zeroed before the call, so a non-zero value
/// means the callee set it.
pub fn classify_child_result(
    result: &ChildResult,
    child: &World,
) -> (Outcome, Option<SimValue>, i32) {
    match result {
        ChildResult::Returned(v) => {
            let errno = child.proc.errno();
            let outcome = if errno != 0 {
                Outcome::ErrorReturn
            } else {
                Outcome::Success
            };
            (outcome, Some(*v), errno)
        }
        ChildResult::Faulted(f) => {
            let outcome = if f.is_hang() {
                Outcome::Hang
            } else if f.is_abort() {
                Outcome::Abort
            } else {
                Outcome::Crash
            };
            (outcome, None, child.proc.errno())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_simproc::SimFault;

    #[test]
    fn classification() {
        let w = World::new();
        let (o, v, e) = classify_child_result(&ChildResult::Returned(SimValue::Int(0)), &w);
        assert_eq!(o, Outcome::Success);
        assert_eq!(v, Some(SimValue::Int(0)));
        assert_eq!(e, 0);

        let mut we = World::new();
        we.proc.set_errno(22);
        let (o, _, e) = classify_child_result(&ChildResult::Returned(SimValue::Int(-1)), &we);
        assert_eq!(o, Outcome::ErrorReturn);
        assert_eq!(e, 22);

        let (o, v, _) = classify_child_result(
            &ChildResult::Faulted(SimFault::Segv {
                addr: 0,
                access: healers_simproc::AccessKind::Read,
            }),
            &w,
        );
        assert_eq!(o, Outcome::Crash);
        assert_eq!(v, None);

        let (o, _, _) = classify_child_result(&ChildResult::Faulted(SimFault::FuelExhausted), &w);
        assert_eq!(o, Outcome::Hang);

        let (o, _, _) = classify_child_result(
            &ChildResult::Faulted(SimFault::Abort { reason: "x".into() }),
            &w,
        );
        assert_eq!(o, Outcome::Abort);
    }

    #[test]
    #[should_panic(expected = "unified")]
    fn test_case_requires_fundamental() {
        let _ = TestCase::new(SimValue::NULL, TypeExpr::OpenFile, "bad");
    }
}
