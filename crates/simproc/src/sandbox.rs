//! Fault containment: run a call against a snapshot of the process image.
//!
//! The paper's fault injector "spawns a child process … the child sets a
//! signal handler for segmentation faults and then calls the function"
//! (§4.1), because some faults cannot be intercepted in-process and a
//! crashing call must never corrupt the injector. The simulation gets the
//! same guarantee by snapshotting the world before the call: whatever the
//! call does — partial writes, allocator corruption, a fault — happens to
//! the snapshot only.
//!
//! Real HEALERS paid `fork()`'s copy-on-write price rather than a full
//! copy; so does this module. [`WorldSnapshot::snapshot`] is O(1) —
//! page frames and tables are reference-shared and private copies fault
//! in on first write — and discarding the child ("restore") costs only
//! the dirty pages it actually touched. The pre-CoW behaviour survives
//! as [`Containment::DeepClone`] / [`WorldSnapshot::deep_clone`], kept
//! as the reference implementation for differential tests and the
//! snapshot benchmark baseline.

use crate::mem::{CowStats, SimFault};
use crate::proc::SimProcess;
use crate::value::SimValue;

/// The raw result of a sandboxed call, before robustness classification.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildResult {
    /// The call returned normally with this value.
    Returned(SimValue),
    /// The call died with a fault (segv / fpe / abort / fuel exhaustion).
    Faulted(SimFault),
}

impl ChildResult {
    /// The returned value, if the call completed.
    pub fn value(&self) -> Option<SimValue> {
        match self {
            ChildResult::Returned(v) => Some(*v),
            ChildResult::Faulted(_) => None,
        }
    }

    /// The fault, if the call died.
    pub fn fault(&self) -> Option<&SimFault> {
        match self {
            ChildResult::Faulted(f) => Some(f),
            ChildResult::Returned(_) => None,
        }
    }
}

/// A world that supports cheap copy-on-write snapshots for fault
/// containment, alongside the reference deep-copy path.
///
/// Implemented by [`SimProcess`] and by `healers-libc`'s `World`; any
/// wrapper type that contains one of those can forward to it.
pub trait WorldSnapshot: Clone {
    /// An O(1) copy-on-write snapshot of the world. Writes to either
    /// image after the split fault in private page copies; neither image
    /// can observe the other's mutations.
    fn snapshot(&self) -> Self;

    /// A full deep copy sharing no storage with `self` — the pre-CoW
    /// containment behaviour, kept for differential testing and as the
    /// benchmark baseline.
    fn deep_clone(&self) -> Self;

    /// The cumulative copy-on-write counters of this image. A child's
    /// divergence cost is `child.cow_stats().delta_since(&parent.cow_stats())`.
    fn cow_stats(&self) -> CowStats;
}

impl WorldSnapshot for SimProcess {
    fn snapshot(&self) -> Self {
        let mut child = self.clone();
        child.mem = self.mem.snapshot();
        child
    }

    fn deep_clone(&self) -> Self {
        let mut child = self.clone();
        child.mem = self.mem.deep_clone();
        child.heap = self.heap.deep_clone();
        child
    }

    fn cow_stats(&self) -> CowStats {
        self.mem.cow_stats()
    }
}

/// How a contained call captures the parent image (Ballista's
/// `with_containment`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Containment {
    /// Copy-on-write snapshot: O(1) capture, O(dirty pages) divergence.
    #[default]
    Cow,
    /// Full deep clone of the world per call — the pre-snapshot
    /// behaviour, kept for differential testing and benchmarking.
    DeepClone,
}

/// Run `call` against a copy-on-write snapshot of `world`, returning the
/// outcome together with the child image (so the caller can inspect
/// `errno`, output buffers, the fault site, or the CoW counters). The
/// parent `world` is untouched: keeping it *is* the restore, and costs
/// only the dirty pages the child faulted in.
pub fn run_in_child<W, F>(world: &W, call: F) -> (ChildResult, W)
where
    W: WorldSnapshot,
    F: FnOnce(&mut W) -> Result<SimValue, SimFault>,
{
    let mut child = world.snapshot();
    let result = match call(&mut child) {
        Ok(v) => ChildResult::Returned(v),
        Err(f) => ChildResult::Faulted(f),
    };
    (result, child)
}

/// Discard a child image, returning the copy-on-write activity that was
/// attributable to it (snapshot taken, pages shared at the split, private
/// pages faulted in, table unsharings). Dropping the child frees exactly
/// its private copies — the O(dirty pages) restore.
pub fn rollback<W: WorldSnapshot>(parent: &W, child: W) -> CowStats {
    let delta = child.cow_stats().delta_since(&parent.cow_stats());
    drop(child);
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::SimProcess;

    #[test]
    fn parent_survives_child_crash() {
        let mut parent = SimProcess::new();
        let buf = parent.heap_alloc(4).unwrap();
        parent.mem.write_u32(buf, 7).unwrap();

        let (result, child) = run_in_child(&parent, |p: &mut SimProcess| {
            // Scribble, then crash.
            p.mem.write_u32(buf, 999)?;
            p.mem.read_u8(0)?; // null deref
            Ok(SimValue::Void)
        });

        assert!(matches!(
            result,
            ChildResult::Faulted(SimFault::Segv { addr: 0, .. })
        ));
        // Child saw the scribble; parent did not.
        assert_eq!(child.mem.read_u32(buf).unwrap(), 999);
        assert_eq!(parent.mem.read_u32(buf).unwrap(), 7);
    }

    #[test]
    fn cow_and_deep_clone_containment_agree() {
        let mut parent = SimProcess::new();
        let buf = parent.heap_alloc(16).unwrap();
        parent.mem.write_bytes(buf, b"0123456789abcdef").unwrap();

        let call = |p: &mut SimProcess| {
            p.mem.write_bytes(buf, b"XY")?;
            p.mem.read_u8(0xdead_0000)?;
            Ok(SimValue::Void)
        };
        let (cow_result, cow_child) = run_in_child(&parent, call);
        let cow_bytes = cow_child.mem.read_bytes(buf, 16).unwrap();
        let mut deep = parent.deep_clone();
        let deep_result = match call(&mut deep) {
            Ok(v) => ChildResult::Returned(v),
            Err(f) => ChildResult::Faulted(f),
        };
        let deep_bytes = deep.mem.read_bytes(buf, 16).unwrap();
        assert_eq!(cow_result, deep_result);
        assert_eq!(cow_bytes, deep_bytes);
        // Parent untouched either way.
        assert_eq!(parent.mem.read_bytes(buf, 16).unwrap(), b"0123456789abcdef");
    }

    #[test]
    fn rollback_reports_dirty_page_cost() {
        let mut parent = SimProcess::new();
        let buf = parent.heap_alloc(4).unwrap();
        parent.mem.write_u32(buf, 7).unwrap();

        let (_, child) = run_in_child(&parent, |p: &mut SimProcess| {
            p.mem.write_u32(buf, 999)?; // dirties exactly one page
            Ok(SimValue::Void)
        });
        let cost = rollback(&parent, child);
        assert_eq!(cost.snapshots, 1);
        assert_eq!(cost.pages_copied, 1);
        assert!(cost.pages_shared as usize >= parent.mem.mapped_pages());

        // An untouched child rolls back with zero copied pages.
        let (_, child) = run_in_child(&parent, |_| Ok(SimValue::Void));
        assert_eq!(rollback(&parent, child).pages_copied, 0);
    }

    #[test]
    fn successful_call_returns_value() {
        let parent = SimProcess::new();
        let (result, child) = run_in_child(&parent, |p: &mut SimProcess| {
            p.set_errno(22);
            Ok(SimValue::Int(-1))
        });
        assert_eq!(result.value(), Some(SimValue::Int(-1)));
        assert_eq!(child.errno(), 22);
        assert!(result.fault().is_none());
    }
}
