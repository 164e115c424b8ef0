//! The simulated process: address space, heap, threads (stacks,
//! registers, per-thread `errno`), statics, and the fuel budget that
//! models hang detection.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::heap::{Heap, HeapError, HeapMode};
use crate::mem::{AddressSpace, BulkFault, CowStats, Protection, SimFault, PAGE_SIZE};
use crate::sandbox::WorldSnapshot;
use crate::thread::{SimThread, ThreadId, ThreadState, ThreadTable};
use crate::Addr;

/// Base of the static-data region (libc internal buffers, `errno`
/// storage, ctype tables, environment strings).
pub const STATIC_BASE: Addr = 0x0801_0000;
/// Size of the static-data region. Kept small so that cloning a
/// process image (fault containment) stays cheap.
pub const STATIC_SIZE: u32 = 0x0002_0000;
/// Base of the heap region.
pub const HEAP_BASE: Addr = 0x1000_0000;
/// End of the heap region (exclusive).
pub const HEAP_LIMIT: Addr = 0x7000_0000;
/// Top of the downward-growing stack.
pub const STACK_BASE: Addr = 0xbfff_f000;
/// Mapped stack size. Kept small so process clones stay cheap.
pub const STACK_SIZE: u32 = 16 * PAGE_SIZE;
/// A canonical pointer that is never mapped — the classic "invalid
/// non-null pointer" test value.
pub const INVALID_PTR: Addr = 0xdead_0000;

/// Default fuel budget per library call. One unit corresponds roughly to
/// one byte processed or one loop iteration; exhausting the budget raises
/// [`SimFault::FuelExhausted`], the deterministic analogue of the paper's
/// hang-detection timeout.
pub const DEFAULT_FUEL: u64 = 2_000_000;

/// A simulated process image.
///
/// Cloning a `SimProcess` is copy-on-write: the page table, page frames,
/// the heap block table and the named statics are reference-shared
/// until written. This is how
/// the fault injector "spawns a child process" for each test case (§4.1)
/// — at `fork()`'s share-until-written price, not a full copy.
#[derive(Debug, Clone)]
pub struct SimProcess {
    /// The paged address space.
    pub mem: AddressSpace,
    /// The heap allocator.
    pub heap: Heap,
    /// The thread table: per-thread stacks, registers, and `errno`.
    /// Thread 0 (the main thread) always exists; single-threaded
    /// workloads never notice the table.
    threads: ThreadTable,
    /// Fuel remaining for the current call.
    fuel_left: u64,
    /// Configured fuel budget per call.
    fuel_budget: u64,
    /// Bump cursor for static allocations.
    static_cursor: Addr,
    /// Named static buffers (e.g. `asctime`'s result buffer), shared
    /// copy-on-write: a child creates one rarely and looks one up often.
    statics: Arc<BTreeMap<String, Addr>>,
}

impl SimProcess {
    /// A fresh process: stack and static regions mapped, heap in packed
    /// (production) mode.
    pub fn new() -> Self {
        let mut mem = AddressSpace::new();
        mem.map(STATIC_BASE, STATIC_SIZE, Protection::ReadWrite);
        mem.map(STACK_BASE - STACK_SIZE, STACK_SIZE, Protection::ReadWrite);
        SimProcess {
            mem,
            heap: Heap::new(HEAP_BASE, HEAP_LIMIT, HeapMode::Packed),
            threads: ThreadTable::new(STACK_BASE, STACK_SIZE),
            fuel_left: DEFAULT_FUEL,
            fuel_budget: DEFAULT_FUEL,
            static_cursor: STATIC_BASE,
            statics: Arc::new(BTreeMap::new()),
        }
    }

    /// A fresh process with the heap in guarded (electric-fence) mode, as
    /// the fault injector uses.
    pub fn new_guarded() -> Self {
        let mut p = SimProcess::new();
        p.heap.set_mode(HeapMode::Guarded);
        p
    }

    /// Current `errno` value (of the current thread).
    pub fn errno(&self) -> i32 {
        self.threads.current().errno
    }

    /// Set the current thread's `errno`.
    pub fn set_errno(&mut self, e: i32) {
        self.threads.current_mut().errno = e;
    }

    /// Spawn a new simulated thread with its own stack window, one
    /// guard page below the previous thread's stack. Returns its id.
    ///
    /// # Panics
    ///
    /// Panics past [`crate::thread::MAX_THREADS`] — callers that take
    /// thread counts from external input cap them first.
    pub fn spawn_thread(&mut self) -> ThreadId {
        let k = self.threads.len() as u32;
        let top = STACK_BASE - k * (STACK_SIZE + PAGE_SIZE);
        self.mem
            .map(top - STACK_SIZE, STACK_SIZE, Protection::ReadWrite);
        self.threads.push(top, STACK_SIZE)
    }

    /// Id of the currently running thread.
    pub fn current_thread(&self) -> ThreadId {
        self.threads.current_id()
    }

    /// Make `id` the current thread (a context switch). All subsequent
    /// `errno` and stack operations act on that thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or non-runnable thread — scheduling bugs,
    /// not application errors.
    pub fn switch_to(&mut self, id: ThreadId) {
        self.threads.switch_to(id);
    }

    /// Mark `id` finished (its stack stays mapped until joined). If it
    /// was the current thread, control returns to the main thread.
    pub fn finish_thread(&mut self, id: ThreadId) {
        if let Some(t) = self.threads.get_mut(id) {
            if t.state == ThreadState::Runnable {
                t.state = ThreadState::Finished;
            }
        }
        if self.threads.current_id() == id {
            self.threads.switch_to(0);
        }
    }

    /// Join a thread: reaps it if finished. Returns `true` once joined
    /// (idempotent), `false` while the thread is still runnable.
    pub fn join_thread(&mut self, id: ThreadId) -> bool {
        match self.threads.get_mut(id) {
            Some(t) if t.state == ThreadState::Finished => {
                t.state = ThreadState::Joined;
                true
            }
            Some(t) => t.state == ThreadState::Joined,
            None => false,
        }
    }

    /// Look up a thread by id.
    pub fn thread(&self, id: ThreadId) -> Option<&SimThread> {
        self.threads.get(id)
    }

    /// Iterate over all threads in id order (deterministic — used by
    /// the world digest).
    pub fn threads(&self) -> impl Iterator<Item = &SimThread> {
        self.threads.iter()
    }

    /// Number of threads ever spawned (including finished/joined).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Ids of all runnable threads, in id order.
    pub fn runnable_threads(&self) -> Vec<ThreadId> {
        self.threads.runnable()
    }

    /// Allocate on the heap (read-write).
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfMemory`] when the heap is exhausted.
    pub fn heap_alloc(&mut self, size: u32) -> Result<Addr, HeapError> {
        self.heap.malloc(&mut self.mem, size)
    }

    /// Free a heap block.
    ///
    /// # Errors
    ///
    /// Propagates allocator consistency errors (invalid pointer / double
    /// free) for the caller to convert into an abort.
    pub fn heap_free(&mut self, addr: Addr) -> Result<(), HeapError> {
        self.heap.free(&mut self.mem, addr)
    }

    /// Carve `size` bytes from the static region (never freed). Used for
    /// libc-internal tables and buffers.
    ///
    /// # Panics
    ///
    /// Panics if the static region overflows — a simulator configuration
    /// bug, not an application error.
    pub fn static_alloc(&mut self, size: u32) -> Addr {
        let addr = self.static_cursor.next_multiple_of(8);
        assert!(
            addr + size <= STATIC_BASE + STATIC_SIZE,
            "static region exhausted"
        );
        self.static_cursor = addr + size;
        addr
    }

    /// Get or create a named static buffer of `size` bytes.
    pub fn named_static(&mut self, name: &str, size: u32) -> Addr {
        if let Some(&a) = self.statics.get(name) {
            return a;
        }
        let a = self.static_alloc(size);
        Arc::make_mut(&mut self.statics).insert(name.to_string(), a);
        a
    }

    /// Look up a named static buffer without creating it.
    pub fn named_static_get(&self, name: &str) -> Option<Addr> {
        self.statics.get(name).copied()
    }

    /// Carve `size` bytes of mapped stack space (for application-owned
    /// buffers in examples and workloads) from the *current thread's*
    /// stack window. Wraps around when that window is exhausted.
    ///
    /// Because each thread bumps its own `sp`, the addresses a thread's
    /// steps receive depend only on that thread's own allocation order
    /// — not on how its steps interleave with other threads'. That is
    /// one of the properties the schedule-invariance tests lean on.
    pub fn stack_alloc(&mut self, size: u32) -> Addr {
        let size = size.next_multiple_of(8);
        let t = self.threads.current_mut();
        if t.regs.sp - size < t.stack_limit {
            t.regs.sp = t.stack_top;
        }
        t.regs.sp -= size;
        t.regs.sp
    }

    /// Whether `addr` is inside any thread's mapped stack window.
    pub fn in_stack(&self, addr: Addr) -> bool {
        self.threads.iter().any(|t| t.owns_stack(addr))
    }

    /// Consume `n` units of fuel.
    ///
    /// # Errors
    ///
    /// [`SimFault::FuelExhausted`] once the per-call budget is spent —
    /// the caller treats this as a hang.
    pub fn tick(&mut self, n: u64) -> Result<(), SimFault> {
        if self.fuel_left < n {
            self.fuel_left = 0;
            return Err(SimFault::FuelExhausted);
        }
        self.fuel_left -= n;
        Ok(())
    }

    /// Reset the fuel budget (called at every library-call boundary).
    pub fn reset_fuel(&mut self) {
        self.fuel_left = self.fuel_budget;
    }

    /// Configure the per-call fuel budget.
    pub fn set_fuel_budget(&mut self, budget: u64) {
        self.fuel_budget = budget;
        self.fuel_left = budget;
    }

    /// Fuel consumed since the last reset.
    pub fn fuel_used(&self) -> u64 {
        self.fuel_budget - self.fuel_left
    }

    /// Run a bulk kernel from [`AddressSpace`] under the fuel rule of
    /// the byte loop it replaces: one unit per byte, charged before the
    /// byte is touched. The kernel gets the number of bytes the fuel
    /// covers (at most `len`) and reports where it stopped; the fuel
    /// used, and whether a fault or [`SimFault::FuelExhausted`] ends
    /// the call, come out as `tick(1)` per byte would leave them.
    fn metered(
        &mut self,
        len: u64,
        kernel: impl FnOnce(&mut AddressSpace, u32) -> Result<Option<u32>, BulkFault>,
    ) -> Result<Option<u32>, SimFault> {
        // An unbounded scan passes `u64::MAX`. Clamping it to the
        // 32-bit range loses nothing a real layout reaches: 2^32 - 1
        // consecutive bytes cross the never-mapped null page unless
        // they start at address 1 and every other page is mapped.
        let budget = len.min(self.fuel_left).min(u64::from(u32::MAX)) as u32;
        match kernel(&mut self.mem, budget) {
            Ok(Some(i)) => {
                self.fuel_left -= u64::from(i) + 1;
                Ok(Some(i))
            }
            Err(stop) => {
                self.fuel_left -= u64::from(stop.index) + 1;
                Err(stop.fault)
            }
            Ok(None) if u64::from(budget) == len => {
                self.fuel_left -= len;
                Ok(None)
            }
            Ok(None) => {
                self.fuel_left = 0;
                Err(SimFault::FuelExhausted)
            }
        }
    }

    /// Fuel-metered [`AddressSpace::fill`] (`memset`).
    ///
    /// # Errors
    ///
    /// The first unwritable byte, or fuel exhaustion.
    pub fn fill(&mut self, dst: Addr, value: u8, len: u32) -> Result<(), SimFault> {
        self.metered(u64::from(len), |m, k| m.fill(dst, value, k).map(|()| None))
            .map(|_| ())
    }

    /// Fuel-metered [`AddressSpace::copy`] (`memcpy`).
    ///
    /// # Errors
    ///
    /// The first faulting byte, or fuel exhaustion.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u32) -> Result<(), SimFault> {
        self.metered(u64::from(len), |m, k| m.copy(dst, src, k).map(|()| None))
            .map(|_| ())
    }

    /// Fuel-metered [`AddressSpace::copy_until_nul`]: copy at most
    /// `len` bytes, stopping after a NUL. The NUL's index, if copied.
    ///
    /// # Errors
    ///
    /// The first faulting byte, or fuel exhaustion.
    pub fn copy_until_nul(
        &mut self,
        dst: Addr,
        src: Addr,
        len: u32,
    ) -> Result<Option<u32>, SimFault> {
        self.metered(u64::from(len), |m, k| m.copy_until_nul(dst, src, k))
    }

    /// `strcpy`: copy the string at `src` and its NUL to `dst`,
    /// returning the string's length. Only a fault or the fuel budget
    /// ends an unterminated copy.
    ///
    /// # Errors
    ///
    /// The first faulting byte, or fuel exhaustion.
    pub fn copy_cstr(&mut self, dst: Addr, src: Addr) -> Result<u32, SimFault> {
        self.metered(u64::MAX, |m, k| m.copy_until_nul(dst, src, k))?
            .ok_or(SimFault::FuelExhausted)
    }

    /// Fuel-metered [`AddressSpace::compare`] (`memcmp`).
    ///
    /// # Errors
    ///
    /// The first unreadable byte before a difference, or fuel
    /// exhaustion.
    pub fn compare(&mut self, a: Addr, b: Addr, len: u32) -> Result<Option<(u8, u8)>, SimFault> {
        let mut diff = None;
        self.metered(u64::from(len), |m, k| {
            let found = m.compare(a, b, k)?;
            diff = found.map(|(_, x, y)| (x, y));
            Ok(found.map(|(i, ..)| i))
        })?;
        Ok(diff)
    }

    /// Fuel-metered [`AddressSpace::scan`] over at most `len` bytes
    /// (`memchr`, `strnlen`).
    ///
    /// # Errors
    ///
    /// The first unreadable byte before a match, or fuel exhaustion.
    pub fn scan(
        &mut self,
        addr: Addr,
        len: u32,
        stop: impl Fn(u8) -> bool,
    ) -> Result<Option<u32>, SimFault> {
        self.metered(u64::from(len), |m, k| m.scan(addr, k, stop))
    }

    /// [`SimProcess::scan`] with no length bound (`strlen`,
    /// `strchr`): the index of the first byte matching `stop`. Only a
    /// fault or the fuel budget ends a scan that finds none.
    ///
    /// # Errors
    ///
    /// The first unreadable byte before a match, or fuel exhaustion.
    pub fn scan_until(&mut self, addr: Addr, stop: impl Fn(u8) -> bool) -> Result<u32, SimFault> {
        self.metered(u64::MAX, |m, k| m.scan(addr, k, stop))?
            .ok_or(SimFault::FuelExhausted)
    }

    /// Read a NUL-terminated C string, consuming fuel per byte.
    ///
    /// # Errors
    ///
    /// Faults if any byte before the terminator is unreadable, or with
    /// [`SimFault::FuelExhausted`] on unterminated gigantic regions.
    pub fn read_cstr(&mut self, addr: Addr) -> Result<Vec<u8>, SimFault> {
        let len = self.scan_until(addr, |b| b == 0)?;
        // The scan read every byte up to the NUL, and a string that
        // reached the NUL never wrapped (that would pass address 0).
        self.mem.read_bytes(addr, len)
    }

    /// Write a NUL-terminated C string.
    ///
    /// # Errors
    ///
    /// Faults at the first unwritable byte (partial writes persist).
    pub fn write_cstr(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimFault> {
        self.mem.write_bytes(addr, bytes)?;
        self.mem.write_u8(addr + bytes.len() as u32, 0)
    }
}

impl SimProcess {
    /// A full deep copy sharing no storage with `self` — the
    /// containment a copy-on-write snapshot replaced, kept as the
    /// reference that differential tests compare snapshots against.
    pub fn deep_clone(&self) -> Self {
        SimProcess {
            mem: self.mem.deep_clone(),
            heap: self.heap.deep_clone(),
            threads: self.threads.clone(),
            fuel_left: self.fuel_left,
            fuel_budget: self.fuel_budget,
            static_cursor: self.static_cursor,
            statics: Arc::new((*self.statics).clone()),
        }
    }
}

impl WorldSnapshot for SimProcess {
    fn snapshot(&self) -> Self {
        SimProcess {
            mem: self.mem.snapshot(),
            heap: self.heap.clone(),
            threads: self.threads.clone(),
            fuel_left: self.fuel_left,
            fuel_budget: self.fuel_budget,
            static_cursor: self.static_cursor,
            statics: Arc::clone(&self.statics),
        }
    }

    fn cow_stats(&self) -> CowStats {
        self.mem.cow_stats()
    }
}

impl Default for SimProcess {
    fn default() -> Self {
        SimProcess::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_process_layout() {
        let p = SimProcess::new();
        assert!(p.mem.probe_read(STATIC_BASE));
        assert!(p.mem.probe_write(STACK_BASE - 8));
        assert!(!p.mem.probe_read(0));
        assert!(!p.mem.probe_read(INVALID_PTR));
        assert_eq!(p.errno(), 0);
    }

    #[test]
    fn cstr_roundtrip() {
        let mut p = SimProcess::new();
        let a = p.heap_alloc(16).unwrap();
        p.write_cstr(a, b"hi there").unwrap();
        assert_eq!(p.read_cstr(a).unwrap(), b"hi there");
    }

    #[test]
    fn unterminated_cstr_hangs_or_faults() {
        let mut p = SimProcess::new_guarded();
        let a = p.heap_alloc(8).unwrap();
        p.mem.write_bytes(a, &[1; 8]).unwrap();
        // Guarded block: the read runs off the end and faults at the guard.
        let err = p.read_cstr(a).unwrap_err();
        assert_eq!(err.segv_addr(), Some(a + 8));
    }

    #[test]
    fn fuel_exhaustion_is_hang() {
        let mut p = SimProcess::new();
        p.set_fuel_budget(10);
        assert!(p.tick(5).is_ok());
        assert_eq!(p.tick(6).unwrap_err(), SimFault::FuelExhausted);
        p.reset_fuel();
        assert!(p.tick(10).is_ok());
    }

    #[test]
    fn named_statics_are_stable() {
        let mut p = SimProcess::new();
        let a = p.named_static("asctime_buf", 26);
        let b = p.named_static("asctime_buf", 26);
        assert_eq!(a, b);
        let c = p.named_static("other", 8);
        assert_ne!(a, c);
        assert_eq!(p.named_static_get("asctime_buf"), Some(a));
        assert_eq!(p.named_static_get("missing"), None);
    }

    #[test]
    fn stack_alloc_is_mapped() {
        let mut p = SimProcess::new();
        let a = p.stack_alloc(128);
        assert!(p.in_stack(a));
        p.mem.write_bytes(a, &[7; 128]).unwrap();
    }

    #[test]
    fn clone_is_independent() {
        let mut parent = SimProcess::new();
        let a = parent.heap_alloc(8).unwrap();
        parent.mem.write_u32(a, 1).unwrap();
        let mut child = parent.clone();
        child.mem.write_u32(a, 2).unwrap();
        child.set_errno(42);
        assert_eq!(parent.mem.read_u32(a).unwrap(), 1);
        assert_eq!(parent.errno(), 0);
        assert_eq!(child.mem.read_u32(a).unwrap(), 2);
    }

    #[test]
    fn spawned_threads_have_disjoint_mapped_stacks() {
        let mut p = SimProcess::new();
        let t1 = p.spawn_thread();
        let t2 = p.spawn_thread();
        assert_eq!((t1, t2), (1, 2));

        let main_buf = p.stack_alloc(64);
        p.switch_to(t1);
        let t1_buf = p.stack_alloc(64);
        p.switch_to(t2);
        let t2_buf = p.stack_alloc(64);

        // All three live in their own windows, all mapped writable.
        for buf in [main_buf, t1_buf, t2_buf] {
            assert!(p.in_stack(buf));
            p.mem.write_bytes(buf, &[9; 64]).unwrap();
        }
        assert!(p.thread(0).unwrap().owns_stack(main_buf));
        assert!(p.thread(t1).unwrap().owns_stack(t1_buf));
        assert!(!p.thread(t1).unwrap().owns_stack(t2_buf));
        assert!(p.thread(t2).unwrap().owns_stack(t2_buf));

        // The guard page between stack windows stays unmapped.
        let gap = p.thread(t1).unwrap().stack_limit - 1;
        assert!(!p.mem.probe_read(gap));
    }

    #[test]
    fn errno_is_per_thread() {
        let mut p = SimProcess::new();
        let t1 = p.spawn_thread();
        p.set_errno(7);
        p.switch_to(t1);
        assert_eq!(p.errno(), 0);
        p.set_errno(22);
        p.switch_to(0);
        assert_eq!(p.errno(), 7);
        assert_eq!(p.thread(t1).unwrap().errno, 22);
    }

    #[test]
    fn thread_lifecycle_spawn_finish_join() {
        let mut p = SimProcess::new();
        let t1 = p.spawn_thread();
        assert!(!p.join_thread(t1), "runnable thread must not join");
        p.switch_to(t1);
        p.finish_thread(t1);
        // Finishing the current thread hands control back to main.
        assert_eq!(p.current_thread(), 0);
        assert_eq!(p.runnable_threads(), vec![0]);
        assert!(p.join_thread(t1));
        assert!(p.join_thread(t1), "join is idempotent");
        assert_eq!(p.thread_count(), 2);
    }

    #[test]
    fn clone_carries_per_thread_state() {
        let mut parent = SimProcess::new();
        let t1 = parent.spawn_thread();
        parent.switch_to(t1);
        parent.set_errno(5);
        let sp_before = parent.thread(t1).unwrap().regs.sp;
        let mut child = parent.clone();
        child.stack_alloc(32);
        child.set_errno(9);
        // Child diverged; parent's thread state is untouched.
        assert_eq!(parent.thread(t1).unwrap().regs.sp, sp_before);
        assert_eq!(parent.thread(t1).unwrap().errno, 5);
        assert_eq!(child.thread(t1).unwrap().errno, 9);
        assert!(child.thread(t1).unwrap().regs.sp < sp_before);
    }
}
