//! Simulated process substrate for HEALERS.
//!
//! The paper's fault injectors and robustness wrappers operate on a real
//! Unix process: segmentation faults carry the faulting address, pages have
//! hardware protection bits, the heap allocator knows block boundaries, and
//! hangs are detected with a timeout. This crate reproduces all of that as
//! a deterministic, in-process simulation:
//!
//! * [`AddressSpace`] — a sparse paged 32-bit address space with per-page
//!   protection; every access either succeeds or produces a [`SimFault`]
//!   carrying the faulting address and access kind (the information the
//!   paper's adaptive test-case generators rely on),
//! * [`Heap`] — a `malloc`-style allocator with a block table (the basis of
//!   the wrapper's *stateful* checking) and an optional guard-page
//!   ("electric fence") placement mode used by the fault injector to grow
//!   arrays adaptively,
//! * [`FaultSite`] — fault provenance: the page-run and heap-block
//!   attribution of a faulting address (which page run was hit, which
//!   block was overrun, whether a guard page caught it),
//! * [`SimProcess`] — address space + heap + `errno` + a fuel budget that
//!   deterministically models the paper's hang timeout,
//! * [`run_in_child`] — fault containment: a call executes against a
//!   copy-on-write snapshot of the process image ([`WorldSnapshot`]), so
//!   a crashing call can never corrupt the caller's state, exactly like
//!   the paper's `fork()`ed child processes — and at the same
//!   share-until-written price.
//!
//! # Examples
//!
//! ```
//! use healers_simproc::SimProcess;
//!
//! let mut proc = SimProcess::new();
//! let buf = proc.heap_alloc(16).unwrap();
//! proc.mem.write_bytes(buf, b"hello").unwrap();
//! assert_eq!(proc.mem.read_bytes(buf, 5).unwrap(), b"hello");
//!
//! // Unmapped accesses fault with the faulting address, like SIGSEGV.
//! let fault = proc.mem.read_bytes(0xdead_0000, 1).unwrap_err();
//! assert_eq!(fault.segv_addr(), Some(0xdead_0000));
//! ```

pub mod heap;
pub mod mem;
pub mod proc;
pub mod provenance;
pub mod sandbox;
pub mod sched;
pub mod thread;
pub mod value;

pub use heap::{Heap, HeapBlock, HeapError, HeapMode};
pub use mem::{
    AccessKind, AddressSpace, BulkFault, CowStats, PageRun, Protection, SimFault, PAGE_SIZE,
};
pub use proc::{SimProcess, HEAP_BASE, INVALID_PTR, STACK_BASE, STACK_SIZE, STATIC_BASE};
pub use provenance::{BlockAttribution, CoverageSite, FaultSite};
pub use sandbox::{rollback, run_in_child, ChildResult, WorldSnapshot};
pub use sched::{Scheduler, MAX_WINDOW_BUDGET};
pub use thread::{SimThread, ThreadId, ThreadRegs, ThreadState, ThreadTable, MAX_THREADS};
pub use value::SimValue;

/// A simulated 32-bit address.
pub type Addr = u32;
