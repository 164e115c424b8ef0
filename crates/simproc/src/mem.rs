//! Sparse paged address space with per-page protection.
//!
//! Page frames are copy-on-write: [`AddressSpace::snapshot`] is O(1) (it
//! bumps reference counts on a persistent page table), writes fault
//! private page copies in on demand, and discarding a snapshot costs
//! O(dirty pages) — the same economics as the `fork()` the paper's fault
//! injectors rely on for cheap containment. The page table is a
//! two-level radix tree of `Arc`-shared 64-entry chunks under an
//! `Arc`-shared root, so an image diverging from its snapshot copies the
//! root's chunk pointers and the chunks it touches, not every entry.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::Addr;

/// Page size of the simulated machine, in bytes (matching i386 Linux).
pub const PAGE_SIZE: u32 = 4096;

/// Per-page protection bits, mirroring `mprotect` modes. Write-only pages
/// exist on the simulated machine because the paper's type hierarchy
/// distinguishes `WONLY_FIXED[s]` regions (real hardware rarely supports
/// them, but the abstraction is exactly what the fault injector probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protection {
    /// Mapped but inaccessible (like `PROT_NONE`); used for guard pages.
    None,
    /// Readable only.
    ReadOnly,
    /// Readable and writable.
    ReadWrite,
    /// Writable only.
    WriteOnly,
}

impl Protection {
    /// Whether reads are permitted.
    pub fn allows_read(self) -> bool {
        matches!(self, Protection::ReadOnly | Protection::ReadWrite)
    }

    /// Whether writes are permitted.
    pub fn allows_write(self) -> bool {
        matches!(self, Protection::ReadWrite | Protection::WriteOnly)
    }

    /// Whether every access asked for is permitted.
    fn permits(self, read: bool, write: bool) -> bool {
        (!read || self.allows_read()) && (!write || self.allows_write())
    }
}

/// The kind of memory access that faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// A failure raised by the simulated machine — the analogue of a fatal
/// signal delivered to a real process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// Segmentation fault: an access to `addr` was not permitted. Carries
    /// the faulting address — the paper's adaptive generators use it to
    /// decide which argument caused a crash and how to adjust it.
    Segv {
        /// The address whose access faulted.
        addr: Addr,
        /// Whether the faulting access was a read or a write.
        access: AccessKind,
    },
    /// Arithmetic fault (SIGFPE), e.g. integer division by zero.
    Fpe,
    /// The callee deliberately aborted (SIGABRT), e.g. glibc's heap
    /// consistency checks in `free`.
    Abort {
        /// Diagnostic printed by the aborting code.
        reason: String,
    },
    /// The fuel budget was exhausted — the deterministic analogue of the
    /// paper's hang-detection timeout.
    FuelExhausted,
}

impl SimFault {
    /// The faulting address, if this is a segmentation fault.
    pub fn segv_addr(&self) -> Option<Addr> {
        match self {
            SimFault::Segv { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// Whether this fault is a hang (fuel exhaustion) rather than a crash.
    pub fn is_hang(&self) -> bool {
        matches!(self, SimFault::FuelExhausted)
    }

    /// Whether this fault is an abort.
    pub fn is_abort(&self) -> bool {
        matches!(self, SimFault::Abort { .. })
    }
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::Segv { addr, access } => {
                let what = match access {
                    AccessKind::Read => "read",
                    AccessKind::Write => "write",
                };
                write!(f, "segmentation fault ({what} at {addr:#010x})")
            }
            SimFault::Fpe => write!(f, "arithmetic exception"),
            SimFault::Abort { reason } => write!(f, "abort: {reason}"),
            SimFault::FuelExhausted => write!(f, "hang (fuel exhausted)"),
        }
    }
}

impl std::error::Error for SimFault {}

/// The bytes of one page.
type Frame = [u8; PAGE_SIZE as usize];

/// The all-zero page frame every fresh mapping reads, like the
/// kernel's shared zero page: `map` never allocates or memsets a frame,
/// and the first write to such a page faults in a private copy.
static ZERO_FRAME: Frame = [0u8; PAGE_SIZE as usize];

#[derive(Clone)]
struct Page {
    // Protection lives beside the frame (not inside it) so `protect`
    // never copies page contents.
    prot: Protection,
    /// `None` until the first write: the page reads [`ZERO_FRAME`].
    /// Unlike an `Arc` of a shared zero frame, copying such an entry
    /// touches no reference count that every image shares.
    data: Option<Arc<Frame>>,
}

impl Page {
    fn new(prot: Protection) -> Self {
        Page { prot, data: None }
    }

    fn bytes(&self) -> &Frame {
        self.data.as_deref().unwrap_or(&ZERO_FRAME)
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page {{ prot: {:?} }}", self.prot)
    }
}

/// log2 of the pages per page-table chunk.
const CHUNK_SHIFT: u32 = 6;
/// Pages per page-table chunk: the unit of table copy-on-write.
const CHUNK_PAGES: usize = 1 << CHUNK_SHIFT;
/// The last page of the 32-bit address space.
const TOP_PAGE: u32 = u32::MAX / PAGE_SIZE;

fn chunk_of(page: u32) -> u32 {
    page >> CHUNK_SHIFT
}

fn slot_of(page: u32) -> usize {
    page as usize & (CHUNK_PAGES - 1)
}

/// The slots of chunk `c` that hold pages `first..=last`.
fn slots_in(c: u32, first: u32, last: u32) -> std::ops::RangeInclusive<usize> {
    let base = c << CHUNK_SHIFT;
    (first.max(base) - base) as usize..=(last.min(base + (CHUNK_PAGES as u32 - 1)) - base) as usize
}

/// 64 consecutive page-table entries.
#[derive(Clone)]
struct Chunk {
    slots: [Option<Page>; CHUNK_PAGES],
    /// Occupied slots; a chunk that empties leaves the root.
    mapped: u32,
}

impl Chunk {
    fn empty() -> Arc<Chunk> {
        Arc::new(Chunk {
            slots: [const { None }; CHUNK_PAGES],
            mapped: 0,
        })
    }
}

/// The chunk, unshared for mutation: a chunk still shared with another
/// root is copied (64 `table_entries_copied`).
fn chunk_mut<'a>(chunk: &'a mut Arc<Chunk>, cow: &mut CowStats) -> &'a mut Chunk {
    if Arc::strong_count(chunk) > 1 {
        cow.table_entries_copied += CHUNK_PAGES as u64;
    }
    Arc::make_mut(chunk)
}

/// A two-level copy-on-write radix table: an `Arc`-shared root maps
/// chunk numbers (page number / 64) to `Arc`-shared chunks. Only
/// chunks holding a mapped page exist. Cloning is O(1); a mutation
/// copies the root if it is shared (`table_clones`, one
/// `table_entries_copied` per chunk pointer) and then only the chunks
/// it changes — O(chunks + 64 × touched chunks), never O(mapped pages).
#[derive(Clone, Default)]
struct PageTable {
    root: Arc<BTreeMap<u32, Arc<Chunk>>>,
    /// Mapped pages across all chunks.
    mapped: usize,
}

impl PageTable {
    fn get(&self, page: u32) -> Option<&Page> {
        self.root.get(&chunk_of(page))?.slots[slot_of(page)].as_ref()
    }

    /// The mapped pages of `first..=last` (`first <= last`) in address
    /// order, from either end.
    fn range(&self, first: u32, last: u32) -> impl DoubleEndedIterator<Item = (u32, &Page)> {
        self.root
            .range(chunk_of(first)..=chunk_of(last))
            .flat_map(move |(&c, chunk)| {
                let slots = slots_in(c, first, last);
                let base = (c << CHUNK_SHIFT) + *slots.start() as u32;
                chunk.slots[slots]
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, slot)| Some((base + i as u32, slot.as_ref()?)))
            })
    }

    /// The entries of the consecutive pages `first..=last`, `None`
    /// where a page is unmapped: one root search per chunk entered,
    /// then an array index per page.
    fn walk(&self, first: u32, last: u32) -> impl Iterator<Item = (u32, Option<&Page>)> {
        let mut entered: Option<(u32, Option<&Chunk>)> = None;
        (first..=last).map(move |p| {
            let chunk = match entered {
                Some((c, chunk)) if c == chunk_of(p) => chunk,
                _ => {
                    let chunk = self.root.get(&chunk_of(p)).map(|c| &**c);
                    entered = Some((chunk_of(p), chunk));
                    chunk
                }
            };
            (p, chunk.and_then(|c| c.slots[slot_of(p)].as_ref()))
        })
    }

    /// The root, unshared for mutation.
    fn root_mut(&mut self, cow: &mut CowStats) -> &mut BTreeMap<u32, Arc<Chunk>> {
        if Arc::strong_count(&self.root) > 1 {
            cow.table_clones += 1;
            cow.table_entries_copied += self.root.len() as u64;
        }
        Arc::make_mut(&mut self.root)
    }

    /// Map pages `first..=last` afresh (zero frame, protection `prot`).
    fn map(&mut self, first: u32, last: u32, prot: Protection, cow: &mut CowStats) {
        let mut added = 0;
        let root = self.root_mut(cow);
        for c in chunk_of(first)..=chunk_of(last) {
            let chunk = chunk_mut(root.entry(c).or_insert_with(Chunk::empty), cow);
            for slot in &mut chunk.slots[slots_in(c, first, last)] {
                if slot.replace(Page::new(prot)).is_none() {
                    chunk.mapped += 1;
                    added += 1;
                }
            }
        }
        self.mapped += added;
    }

    /// Unmap pages `first..=last`. A chunk left empty is dropped from
    /// the root without being copied.
    fn unmap(&mut self, first: u32, last: u32, cow: &mut CowStats) {
        let mut removed = 0;
        let mut emptied = Vec::new();
        let root = self.root_mut(cow);
        for (&c, chunk) in root.range_mut(chunk_of(first)..=chunk_of(last)) {
            let slots = slots_in(c, first, last);
            let n = chunk.slots[slots.clone()].iter().flatten().count() as u32;
            if n == 0 {
                continue;
            }
            removed += n as usize;
            if n == chunk.mapped {
                emptied.push(c);
                continue;
            }
            let chunk = chunk_mut(chunk, cow);
            chunk.slots[slots].fill(None);
            chunk.mapped -= n;
        }
        for c in emptied {
            root.remove(&c);
        }
        self.mapped -= removed;
    }

    /// Set the protection of the mapped pages of `first..=last`,
    /// copying only chunks in which a protection actually changes.
    fn protect(&mut self, first: u32, last: u32, prot: Protection, cow: &mut CowStats) {
        let root = self.root_mut(cow);
        for (&c, chunk) in root.range_mut(chunk_of(first)..=chunk_of(last)) {
            let slots = slots_in(c, first, last);
            if chunk.slots[slots.clone()]
                .iter()
                .flatten()
                .all(|pg| pg.prot == prot)
            {
                continue;
            }
            for page in chunk_mut(chunk, cow).slots[slots].iter_mut().flatten() {
                page.prot = prot;
            }
        }
    }

    /// The entry of `page` unshared for a store, if its protection
    /// permits writes. Protection is checked through the shared
    /// structure first, so a faulting store copies nothing.
    fn writable(&mut self, page: u32, cow: &mut CowStats) -> Option<&mut Page> {
        if !self.get(page).is_some_and(|pg| pg.prot.allows_write()) {
            return None;
        }
        let chunk = self.root_mut(cow).get_mut(&chunk_of(page))?;
        chunk_mut(chunk, cow).slots[slot_of(page)].as_mut()
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.range(0, TOP_PAGE)).finish()
    }
}

/// Copy-on-write activity counters, carried by every [`AddressSpace`].
///
/// Counters only ever grow, and a snapshot inherits its parent's values,
/// so the work attributable to one snapshot's lifetime is the child
/// counter minus the parent counter at snapshot time
/// ([`CowStats::delta_since`]). All counts are deterministic for a given
/// operation sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Snapshots taken via [`AddressSpace::snapshot`].
    pub snapshots: u64,
    /// Pages shared (reference-counted, not copied) across all snapshots.
    pub pages_shared: u64,
    /// Private page frames faulted in by writes to shared frames —
    /// including first writes to the shared zero frame.
    pub pages_copied: u64,
    /// Page-table root unsharings (one per diverging mapping operation
    /// or store after a snapshot).
    pub table_clones: u64,
    /// Page-table entries copied while unsharing table structure: one
    /// per chunk pointer of each unshared root, plus 64 slots per
    /// unshared chunk.
    pub table_entries_copied: u64,
}

impl CowStats {
    /// The activity since `base` was captured (field-wise saturating
    /// subtraction; a child's counters never trail its parent's).
    pub fn delta_since(&self, base: &CowStats) -> CowStats {
        CowStats {
            snapshots: self.snapshots.saturating_sub(base.snapshots),
            pages_shared: self.pages_shared.saturating_sub(base.pages_shared),
            pages_copied: self.pages_copied.saturating_sub(base.pages_copied),
            table_clones: self.table_clones.saturating_sub(base.table_clones),
            table_entries_copied: self
                .table_entries_copied
                .saturating_sub(base.table_entries_copied),
        }
    }

    /// Accumulate another delta into this one.
    pub fn absorb(&mut self, other: &CowStats) {
        let CowStats {
            snapshots,
            pages_shared,
            pages_copied,
            table_clones,
            table_entries_copied,
        } = other;
        self.snapshots += snapshots;
        self.pages_shared += pages_shared;
        self.pages_copied += pages_copied;
        self.table_clones += table_clones;
        self.table_entries_copied += table_entries_copied;
    }
}

/// A maximal run of contiguous pages sharing one protection — or one
/// maximal unmapped hole — as reported by [`AddressSpace::page_run`].
/// This is the page-table context of a faulting address: "the store
/// landed in a 3-page read-only run" or "the load fell in the unmapped
/// hole after the last heap mapping".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// First byte of the run (page aligned).
    pub start: Addr,
    /// Number of pages in the run (at least 1).
    pub pages: u32,
    /// The run's protection; `None` for an unmapped hole.
    pub prot: Option<Protection>,
}

impl PageRun {
    /// Last byte of the run, inclusive (the exclusive end of a run
    /// touching the top of memory would not fit in 32 bits).
    pub fn last(&self) -> Addr {
        self.start + (self.pages * PAGE_SIZE - 1)
    }

    /// Whether `addr` falls inside the run.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.start && addr <= self.last()
    }

    /// A short human-readable description of the run's accessibility.
    pub fn describe_prot(&self) -> &'static str {
        match self.prot {
            None => "unmapped",
            Some(Protection::None) => "inaccessible",
            Some(Protection::ReadOnly) => "read-only",
            Some(Protection::ReadWrite) => "read-write",
            Some(Protection::WriteOnly) => "write-only",
        }
    }
}

impl fmt::Display for PageRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} run {:#010x}+{}p",
            self.describe_prot(),
            self.start,
            self.pages
        )
    }
}

/// A sparse, paged 32-bit address space with copy-on-write snapshots.
///
/// Page 0 is never mapped, so null-pointer dereferences fault exactly as on
/// a real Unix machine.
///
/// `Clone` is O(1): the page table and every frame are `Arc`-shared, and
/// mutation unshares lazily ([`Arc::make_mut`]) — the table's root and
/// the 64-entry chunks a mapping change or store touches, and each 4 KiB
/// frame on the first write to it.
/// Use [`AddressSpace::snapshot`] rather than `clone()` when the copy
/// models fault containment, so the [`CowStats`] telemetry records it.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    pages: PageTable,
    cow: CowStats,
}

fn page_of(addr: Addr) -> u32 {
    addr / PAGE_SIZE
}

/// The first and last pages overlapping `[addr, addr+len)`, `len > 0`.
/// A range running past the top of the address space stops at the top
/// page, as [`AddressSpace::find_nul`]'s budget does: the wrapped part
/// would start on the never-mapped null page.
fn page_span(addr: Addr, len: u32) -> (u32, u32) {
    (page_of(addr), page_of(addr.saturating_add(len - 1)))
}

/// Offset of `addr` within its page.
fn page_off(addr: Addr) -> usize {
    (addr % PAGE_SIZE) as usize
}

/// Bytes from `addr` to the end of its page (1..=[`PAGE_SIZE`]).
fn page_room(addr: Addr) -> u32 {
    PAGE_SIZE - addr % PAGE_SIZE
}

fn segv(addr: Addr, access: AccessKind) -> SimFault {
    SimFault::Segv { addr, access }
}

/// Where a bulk kernel stopped on a fault: every byte before `index`
/// was processed (and stays written), the byte at `index` faulted.
/// The index is what a fuel-metered caller charges for — the byte loop
/// it replaces would have ticked `index + 1` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkFault {
    /// Position (from the start of the operation) of the faulting byte.
    pub index: u32,
    /// The fault that byte raised.
    pub fault: SimFault,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// An O(1) copy-on-write snapshot: both images share every page frame
    /// and the page table itself until one of them writes or remaps.
    /// The snapshot inherits the parent's [`CowStats`] plus a record of
    /// its own creation, so the total cost of its divergence is
    /// `child.cow_stats().delta_since(&parent.cow_stats())`.
    pub fn snapshot(&self) -> AddressSpace {
        let mut child = self.clone();
        child.cow.snapshots += 1;
        child.cow.pages_shared += self.pages.mapped as u64;
        child
    }

    /// A full deep copy sharing no frames with `self` — the pre-CoW
    /// containment behaviour, kept as the reference implementation for
    /// differential tests and benchmarks.
    pub fn deep_clone(&self) -> AddressSpace {
        let root = self
            .pages
            .root
            .iter()
            .map(|(&c, chunk)| {
                let mut copy = Chunk::clone(chunk);
                for page in copy.slots.iter_mut().flatten() {
                    page.data = Some(Arc::new(*page.bytes()));
                }
                (c, Arc::new(copy))
            })
            .collect();
        AddressSpace {
            pages: PageTable {
                root: Arc::new(root),
                mapped: self.pages.mapped,
            },
            cow: self.cow,
        }
    }

    /// The copy-on-write activity counters accumulated so far.
    pub fn cow_stats(&self) -> CowStats {
        self.cow
    }

    /// Map `len` bytes starting at `addr` (rounded out to page boundaries)
    /// with protection `prot`. Remapping an already-mapped page resets its
    /// contents to zero.
    ///
    /// # Panics
    ///
    /// Panics if the region would include page 0 (the null page) or wrap
    /// around the address space — both indicate a bug in the simulator.
    pub fn map(&mut self, addr: Addr, len: u32, prot: Protection) {
        assert!(len > 0, "cannot map an empty region");
        let first = page_of(addr);
        let last = page_of(
            addr.checked_add(len - 1)
                .expect("mapping wraps address space"),
        );
        assert!(first > 0, "cannot map the null page");
        self.pages.map(first, last, prot, &mut self.cow);
    }

    /// Unmap all pages overlapping `[addr, addr+len)`, saturating at the
    /// top of the address space.
    pub fn unmap(&mut self, addr: Addr, len: u32) {
        if len == 0 {
            return;
        }
        let (first, last) = page_span(addr, len);
        self.pages.unmap(first, last, &mut self.cow);
    }

    /// Change the protection of all pages overlapping `[addr, addr+len)`,
    /// saturating at the top of the address space. Pages that are not
    /// mapped are ignored. Protection lives in the page-table entry, not
    /// the frame, so this never copies page data.
    pub fn protect(&mut self, addr: Addr, len: u32, prot: Protection) {
        if len == 0 {
            return;
        }
        let (first, last) = page_span(addr, len);
        self.pages.protect(first, last, prot, &mut self.cow);
    }

    /// Whether `addr` lies in a mapped page (regardless of protection).
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.pages.get(page_of(addr)).is_some()
    }

    /// Non-faulting probe: whether one byte at `addr` is readable. This is
    /// the primitive behind the wrapper's *stateless* memory validation
    /// (the paper tests one byte per page via a signal handler).
    pub fn probe_read(&self, addr: Addr) -> bool {
        self.pages
            .get(page_of(addr))
            .map(|p| p.prot.allows_read())
            .unwrap_or(false)
    }

    /// Non-faulting probe: whether one byte at `addr` is writable.
    pub fn probe_write(&self, addr: Addr) -> bool {
        self.pages
            .get(page_of(addr))
            .map(|p| p.prot.allows_write())
            .unwrap_or(false)
    }

    /// The protection of the page containing `addr`, if mapped.
    pub fn protection_at(&self, addr: Addr) -> Option<Protection> {
        self.pages.get(page_of(addr)).map(|p| p.prot)
    }

    /// Bulk range probe: whether every byte of `[addr, addr+len)`
    /// permits the required access. Equivalent to probing
    /// [`AddressSpace::probe_read`]/[`AddressSpace::probe_write`] on
    /// each byte, but resolved with one root search per 64-page chunk
    /// of the range and an array index per page, instead of one (or
    /// two) page-table lookups per byte.
    ///
    /// Zero-length contract (pinned): a probe for zero bytes — or for
    /// no access at all (`!need_read && !need_write`) — asserts
    /// nothing about memory and is satisfied at *any* address: mapped,
    /// unmapped, or guard page alike. This is exactly what the
    /// byte-at-a-time reference loop decides, since it iterates zero
    /// times. A range that would wrap the 32-bit address space is not
    /// satisfiable (the wrapped portion would land on the never-mapped
    /// null page).
    ///
    /// Unlike [`find_nul`](AddressSpace::find_nul), this kernel never
    /// scans resident bytes — access rights are a per-page property, so
    /// the walk costs one page-table entry per page regardless of
    /// `len`.
    pub fn probe_range(&self, addr: Addr, len: u32, need_read: bool, need_write: bool) -> bool {
        if len == 0 || (!need_read && !need_write) {
            return true;
        }
        let Some(end) = addr.checked_add(len - 1) else {
            return false;
        };
        self.pages
            .walk(page_of(addr), page_of(end))
            .all(|(_, page)| page.is_some_and(|pg| pg.prot.permits(need_read, need_write)))
    }

    /// Bulk NUL scan: the index of the first zero byte at
    /// `addr..=addr+max_index`, requiring every byte up to and
    /// including the terminator to be readable (and writable when
    /// `need_write`). Bytes past the terminator are never probed.
    ///
    /// Equivalent to the byte-at-a-time probe-then-read loop, but the
    /// page table is consulted once per page (one root search per
    /// chunk) and the resident page bytes are scanned word-wise
    /// ([`find_nul_in`]).
    /// Returns `None` when an inaccessible byte precedes the
    /// terminator or no terminator lies within the index budget — a
    /// scan running off the top of the address space fails like the
    /// byte loop does, since the next byte would wrap to the null
    /// page.
    pub fn find_nul(&self, addr: Addr, max_index: u32, need_write: bool) -> Option<u32> {
        // Last byte the budget allows us to examine; clamping (rather
        // than failing) on overflow keeps byte-loop equivalence: the
        // loop scans up to 0xffff_ffff and then fails at the wrap.
        let budget_end = addr.saturating_add(max_index);
        for (p, page) in self.pages.walk(page_of(addr), page_of(budget_end)) {
            let page = page.filter(|pg| pg.prot.permits(true, need_write))?;
            let page_base = p * PAGE_SIZE;
            let start = addr.max(page_base);
            let end = budget_end.min(page_base + (PAGE_SIZE - 1));
            let lo = (start - page_base) as usize;
            let hi = (end - page_base) as usize;
            if let Some(i) = find_nul_in(&page.bytes()[lo..=hi]) {
                return Some(start - addr + i as u32);
            }
            if end == budget_end {
                return None; // budget exhausted without a terminator
            }
        }
        None
    }

    /// Length of the maximal accessible byte run starting at `addr`,
    /// bounded by `max`: the largest `n <= max` such that every byte
    /// of `[addr, addr+n)` permits the required access. The discovery
    /// half of [`probe_range`](AddressSpace::probe_range): instead of
    /// a yes/no on a known length, it finds the length a clamped
    /// substitute may safely use. Page-table walk only — one entry per
    /// page, no byte scans.
    pub fn accessible_run(&self, addr: Addr, max: u32, need_read: bool, need_write: bool) -> u32 {
        if max == 0 {
            return 0;
        }
        if !need_read && !need_write {
            return max;
        }
        // A budget past the top of the address space clamps: the wrap
        // would land on the never-mapped null page anyway.
        let end = addr.saturating_add(max - 1);
        let mut last_ok: Option<Addr> = None;
        for (p, page) in self.pages.walk(page_of(addr), page_of(end)) {
            if !page.is_some_and(|pg| pg.prot.permits(need_read, need_write)) {
                break;
            }
            last_ok = Some((p * PAGE_SIZE + (PAGE_SIZE - 1)).min(end));
        }
        match last_ok {
            Some(e) => e - addr + 1,
            None => 0,
        }
    }

    /// Copy up to `len` bytes from `src` to `dst`, stopping early at
    /// the first unreadable source byte or unwritable destination byte
    /// — never faulting, never writing past either bound. Returns the
    /// count copied. The bounded-copy primitive repair mode uses to
    /// move a wild argument's accessible prefix into a safe substitute
    /// buffer.
    pub fn bounded_copy(&mut self, dst: Addr, src: Addr, len: u32) -> u32 {
        let n = self
            .accessible_run(src, len, true, false)
            .min(self.accessible_run(dst, len, false, true));
        match self.copy(dst, src, n) {
            Ok(()) => n,
            Err(stop) => stop.index,
        }
    }

    /// Number of mapped pages (diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.pages.mapped
    }

    /// The maximal run of contiguous pages around `addr` sharing its
    /// page's protection — or, for an unmapped `addr`, the maximal
    /// unmapped hole containing it. This is the page-table half of
    /// fault provenance: it tells a report *what kind of memory* a
    /// faulting access landed in and how far that region extends.
    pub fn page_run(&self, addr: Addr) -> PageRun {
        let p = page_of(addr);
        // The mapped pages below and above `p`, nearest first.
        let below = (p > 0).then(|| self.pages.range(0, p - 1).rev());
        let above = (p < TOP_PAGE).then(|| self.pages.range(p + 1, TOP_PAGE));
        let mut below = below.into_iter().flatten();
        let mut above = above.into_iter().flatten();
        match self.pages.get(p) {
            Some(page) => {
                let prot = page.prot;
                let mut first = p;
                for (q, pg) in below {
                    if q + 1 == first && pg.prot == prot {
                        first = q;
                    } else {
                        break;
                    }
                }
                let mut last = p;
                for (q, pg) in above {
                    if q == last + 1 && pg.prot == prot {
                        last = q;
                    } else {
                        break;
                    }
                }
                PageRun {
                    start: first * PAGE_SIZE,
                    pages: last - first + 1,
                    prot: Some(prot),
                }
            }
            None => {
                let first = below.next().map(|(q, _)| q + 1).unwrap_or(0);
                let last = above.next().map(|(q, _)| q - 1).unwrap_or(TOP_PAGE);
                PageRun {
                    start: first * PAGE_SIZE,
                    pages: last - first + 1,
                    prot: None,
                }
            }
        }
    }

    /// The frame holding `addr`, if its page permits reads — the one
    /// page-table lookup behind every read.
    fn frame(&self, addr: Addr) -> Result<&Frame, SimFault> {
        match self.pages.get(page_of(addr)) {
            Some(page) if page.prot.allows_read() => Ok(page.bytes()),
            _ => Err(segv(addr, AccessKind::Read)),
        }
    }

    /// The frame holding `addr`, unshared for a write if its page
    /// permits writes. Protection is checked before anything is
    /// unshared, so a faulting write never copies. A table root still
    /// shared with a snapshot is copied once (`table_clones`), then the
    /// page's chunk if it is shared, and a shared frame once per page
    /// (`pages_copied`) — the counts the byte-at-a-time store has
    /// always produced.
    fn frame_mut(&mut self, addr: Addr) -> Result<&mut Frame, SimFault> {
        let Some(page) = self.pages.writable(page_of(addr), &mut self.cow) else {
            return Err(segv(addr, AccessKind::Write));
        };
        if page.data.as_ref().is_none_or(|d| Arc::strong_count(d) > 1) {
            self.cow.pages_copied += 1;
        }
        Ok(Arc::make_mut(
            page.data.get_or_insert_with(|| Arc::new(ZERO_FRAME)),
        ))
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Faults with [`SimFault::Segv`] if the byte is not readable.
    pub fn read_u8(&self, addr: Addr) -> Result<u8, SimFault> {
        Ok(self.frame(addr)?[page_off(addr)])
    }

    /// Write one byte. Writing a frame shared with a snapshot (or the
    /// zero frame) first faults in a private 4 KiB copy.
    ///
    /// # Errors
    ///
    /// Faults with [`SimFault::Segv`] if the byte is not writable.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), SimFault> {
        self.frame_mut(addr)?[page_off(addr)] = value;
        Ok(())
    }

    /// Hand `[addr, addr+len)` to `sink` one page chunk at a time, in
    /// address order. A range running past the top of the address
    /// space faults at `u32::MAX` once the top byte has been read.
    fn read_chunks(
        &self,
        addr: Addr,
        len: u32,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), SimFault> {
        let mut done = 0u32;
        while done < len {
            let a = addr
                .checked_add(done)
                .ok_or(segv(u32::MAX, AccessKind::Read))?;
            let n = page_room(a).min(len - done);
            let off = page_off(a);
            sink(&self.frame(a)?[off..off + n as usize]);
            done += n;
        }
        Ok(())
    }

    /// Read `N` bytes into a stack array.
    fn read_array<const N: usize>(&self, addr: Addr) -> Result<[u8; N], SimFault> {
        let mut out = [0u8; N];
        let mut at = 0;
        self.read_chunks(addr, N as u32, |chunk| {
            out[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        })?;
        Ok(out)
    }

    /// Read `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults at the first inaccessible byte, reporting its exact address —
    /// partial progress is discarded, as with a real fault.
    pub fn read_bytes(&self, addr: Addr, len: u32) -> Result<Vec<u8>, SimFault> {
        let mut out = Vec::with_capacity(len as usize);
        self.read_chunks(addr, len, |chunk| out.extend_from_slice(chunk))?;
        Ok(out)
    }

    /// Write `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults at the first non-writable byte. Bytes before the fault *are*
    /// written — exactly the partial-write behavior a real buffer overflow
    /// exhibits before the signal arrives.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), SimFault> {
        let mut done = 0usize;
        while done < bytes.len() {
            let a = addr
                .checked_add(done as u32)
                .ok_or(segv(u32::MAX, AccessKind::Write))?;
            let n = (page_room(a) as usize).min(bytes.len() - done);
            let off = page_off(a);
            self.frame_mut(a)?[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Faults if any of the four bytes is unreadable.
    pub fn read_u32(&self, addr: Addr) -> Result<u32, SimFault> {
        Ok(u32::from_le_bytes(self.read_array(addr)?))
    }

    /// Write a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Faults if any of the four bytes is unwritable.
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> Result<(), SimFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Read a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// Faults if any of the four bytes is unreadable.
    pub fn read_i32(&self, addr: Addr) -> Result<i32, SimFault> {
        Ok(self.read_u32(addr)? as i32)
    }

    /// Write a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// Faults if any of the four bytes is unwritable.
    pub fn write_i32(&mut self, addr: Addr, value: i32) -> Result<(), SimFault> {
        self.write_u32(addr, value as u32)
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Faults if either byte is unreadable.
    pub fn read_u16(&self, addr: Addr) -> Result<u16, SimFault> {
        Ok(u16::from_le_bytes(self.read_array(addr)?))
    }

    /// Write a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Faults if either byte is unwritable.
    pub fn write_u16(&mut self, addr: Addr, value: u16) -> Result<(), SimFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Read a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Faults if any of the eight bytes is unreadable.
    pub fn read_f64(&self, addr: Addr) -> Result<f64, SimFault> {
        Ok(f64::from_le_bytes(self.read_array(addr)?))
    }

    /// Write a little-endian `f64`.
    ///
    /// # Errors
    ///
    /// Faults if any of the eight bytes is unwritable.
    pub fn write_f64(&mut self, addr: Addr, value: f64) -> Result<(), SimFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    // Bulk kernels. Each does what a C byte loop `for (i = 0; i < len;
    // i++) … p[i] …` does on the simulated machine — addresses wrap
    // like `p.wrapping_add(i)`, so a run off the top of memory lands on
    // the never-mapped null page and faults at 0 — but touches the page
    // table once per page chunk instead of once per byte. Access rights
    // are per page, so within a chunk every byte succeeds or the
    // chunk's first byte (in loop order) faults: the fault reported is
    // the byte loop's, at the same index, with the same bytes written
    // before it and the same copy-on-write counts.

    /// `memset`: store `value` into `[dst, dst+len)`.
    ///
    /// # Errors
    ///
    /// The first unwritable byte; the bytes before it are written.
    pub fn fill(&mut self, dst: Addr, value: u8, len: u32) -> Result<(), BulkFault> {
        let mut done = 0u32;
        while done < len {
            let a = dst.wrapping_add(done);
            let n = page_room(a).min(len - done);
            let frame = self
                .frame_mut(a)
                .map_err(|fault| BulkFault { index: done, fault })?;
            let off = page_off(a);
            frame[off..off + n as usize].fill(value);
            done += n;
        }
        Ok(())
    }

    /// `memcpy`'s forward byte loop: byte `i` is read from `src+i`,
    /// then written to `dst+i`. Overlap behaves as that loop does — a
    /// `dst` inside `(src, src+len)` re-reads bytes the copy already
    /// wrote and smears the head of `src` forward.
    ///
    /// # Errors
    ///
    /// The first byte whose read or write faults (the read first);
    /// the bytes before it are copied.
    pub fn copy(&mut self, dst: Addr, src: Addr, len: u32) -> Result<(), BulkFault> {
        self.copy_forward(dst, src, len, false).map(|_| ())
    }

    /// `strncpy`'s copying phase: [`copy`](AddressSpace::copy) that
    /// also stops after copying a NUL. Returns the NUL's index, or
    /// `None` when `len` bytes were copied without one.
    ///
    /// # Errors
    ///
    /// As [`copy`](AddressSpace::copy).
    pub fn copy_until_nul(
        &mut self,
        dst: Addr,
        src: Addr,
        len: u32,
    ) -> Result<Option<u32>, BulkFault> {
        self.copy_forward(dst, src, len, true)
    }

    fn copy_forward(
        &mut self,
        dst: Addr,
        src: Addr,
        len: u32,
        stop_at_nul: bool,
    ) -> Result<Option<u32>, BulkFault> {
        // A chunk no longer than `dst - src` never reads a byte it
        // writes itself, and later chunks read what earlier ones wrote
        // — the byte loop's order, preserved under overlap.
        let gap = dst.wrapping_sub(src);
        let step = if gap > 0 && gap < len { gap } else { len };
        let mut buf = [0u8; PAGE_SIZE as usize];
        let mut done = 0u32;
        while done < len {
            let (s, d) = (src.wrapping_add(done), dst.wrapping_add(done));
            let mut n = page_room(s).min(page_room(d)).min(step).min(len - done);
            let fail = |fault| BulkFault { index: done, fault };
            let off = page_off(s);
            let chunk = &mut buf[..n as usize];
            chunk.copy_from_slice(&self.frame(s).map_err(fail)?[off..off + n as usize]);
            let nul = if stop_at_nul {
                find_nul_in(chunk)
            } else {
                None
            };
            if let Some(i) = nul {
                n = i as u32 + 1;
            }
            let off = page_off(d);
            self.frame_mut(d).map_err(fail)?[off..off + n as usize]
                .copy_from_slice(&buf[..n as usize]);
            if nul.is_some() {
                return Ok(Some(done + n - 1));
            }
            done += n;
        }
        Ok(None)
    }

    /// The descending byte loop `memmove` runs when `dst` lies above an
    /// overlapping `src`: byte `len-1` first, down to byte 0. Every
    /// write lands above the bytes still to be read, so whole chunks
    /// copy as the loop does.
    fn copy_backward(&mut self, dst: Addr, src: Addr, len: u32) -> Result<(), SimFault> {
        let mut buf = [0u8; PAGE_SIZE as usize];
        let mut left = len;
        while left > 0 {
            // Bytes [left - n, left), the top one met first.
            let (s_top, d_top) = (src.wrapping_add(left - 1), dst.wrapping_add(left - 1));
            let n = (s_top % PAGE_SIZE + 1).min(d_top % PAGE_SIZE + 1).min(left) as usize;
            let off = page_off(s_top) + 1 - n;
            buf[..n].copy_from_slice(&self.frame(s_top)?[off..off + n]);
            let off = page_off(d_top) + 1 - n;
            self.frame_mut(d_top)?[off..off + n].copy_from_slice(&buf[..n]);
            left -= n as u32;
        }
        Ok(())
    }

    /// `memmove`: copy forward unless `dst` lies inside `(src,
    /// src+len)`, then backward — the direction rule (and its
    /// non-wrapping comparison) of the byte loops it replaces.
    ///
    /// # Errors
    ///
    /// The first faulting byte in copy order; bytes copied before it
    /// stay copied.
    pub fn move_bytes(&mut self, dst: Addr, src: Addr, len: u32) -> Result<(), SimFault> {
        if dst <= src || src.wrapping_add(len) <= dst {
            self.copy(dst, src, len).map_err(|stop| stop.fault)
        } else {
            self.copy_backward(dst, src, len)
        }
    }

    /// `memcmp`'s byte loop: the first index where `a` and `b` differ,
    /// with the two bytes found there (`a`'s first), or `None` when the
    /// ranges are equal.
    ///
    /// # Errors
    ///
    /// The first unreadable byte before any difference (`a`'s byte
    /// before `b`'s at the same index).
    pub fn compare(&self, a: Addr, b: Addr, len: u32) -> Result<Option<(u32, u8, u8)>, BulkFault> {
        let mut done = 0u32;
        while done < len {
            let (x, y) = (a.wrapping_add(done), b.wrapping_add(done));
            let n = page_room(x).min(page_room(y)).min(len - done) as usize;
            let fail = |fault| BulkFault { index: done, fault };
            let xs = &self.frame(x).map_err(fail)?[page_off(x)..][..n];
            let ys = &self.frame(y).map_err(fail)?[page_off(y)..][..n];
            if let Some(i) = xs.iter().zip(ys).position(|(p, q)| p != q) {
                return Ok(Some((done + i as u32, xs[i], ys[i])));
            }
            done += n as u32;
        }
        Ok(None)
    }

    /// A read loop over `[addr, addr+len)` that stops at the first byte
    /// for which `stop` holds, returning its index (`None` when no byte
    /// in the range matches) — `memchr`, `strlen`, `strchr`. `stop`
    /// sees the bytes once each in address order, so it may carry
    /// state: a parser can run over the resident frames in place.
    ///
    /// # Errors
    ///
    /// The first unreadable byte before a match.
    pub fn scan(
        &self,
        addr: Addr,
        len: u32,
        mut stop: impl FnMut(u8) -> bool,
    ) -> Result<Option<u32>, BulkFault> {
        let mut done = 0u32;
        while done < len {
            let a = addr.wrapping_add(done);
            let n = page_room(a).min(len - done) as usize;
            let frame = self
                .frame(a)
                .map_err(|fault| BulkFault { index: done, fault })?;
            if let Some(i) = frame[page_off(a)..][..n].iter().position(|&b| stop(b)) {
                return Ok(Some(done + i as u32));
            }
            done += n as u32;
        }
        Ok(None)
    }
}

/// Superword NUL search over resident bytes. 32-byte chunks are
/// examined as four 64-bit words with the classic zero-in-word trick
/// (`(w - 0x0101…) & !w & 0x8080…`); the OR of the four flag words
/// decides in a single branch whether the whole chunk is zero-free,
/// which lets the compiler keep the loads flowing without a
/// per-word branch. The 8-byte word loop handles the chunk tail and
/// the byte loop the final sub-word remainder, so every width agrees
/// with the byte-at-a-time reference by construction. Index of the
/// first zero byte, if any.
pub fn find_nul_in(haystack: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    #[inline(always)]
    fn zero_flags(chunk: &[u8]) -> u64 {
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        word.wrapping_sub(LO) & !word & HI
    }
    let mut wide = haystack.chunks_exact(32);
    let mut offset = 0;
    for chunk in &mut wide {
        let f0 = zero_flags(&chunk[0..8]);
        let f1 = zero_flags(&chunk[8..16]);
        let f2 = zero_flags(&chunk[16..24]);
        let f3 = zero_flags(&chunk[24..32]);
        if (f0 | f1 | f2 | f3) != 0 {
            // Borrow propagation can raise false flags, but only above
            // a true zero byte; in little-endian order the lowest flag
            // of the first flagged word is therefore the first zero.
            let (word_off, flags) = if f0 != 0 {
                (0, f0)
            } else if f1 != 0 {
                (8, f1)
            } else if f2 != 0 {
                (16, f2)
            } else {
                (24, f3)
            };
            return Some(offset + word_off + (flags.trailing_zeros() / 8) as usize);
        }
        offset += 32;
    }
    let mut chunks = wide.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        let flags = zero_flags(chunk);
        if flags != 0 {
            return Some(offset + (flags.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == 0)
        .map(|i| offset + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_page_faults() {
        let m = AddressSpace::new();
        let err = m.read_u8(0).unwrap_err();
        assert_eq!(
            err,
            SimFault::Segv {
                addr: 0,
                access: AccessKind::Read
            }
        );
    }

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4096, Protection::ReadWrite);
        m.write_u32(0x1000, 0xdeadbeef).unwrap();
        assert_eq!(m.read_u32(0x1000).unwrap(), 0xdeadbeef);
    }

    #[test]
    fn protection_enforced() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4096, Protection::ReadOnly);
        assert!(m.read_u8(0x1000).is_ok());
        let err = m.write_u8(0x1000, 1).unwrap_err();
        assert_eq!(err.segv_addr(), Some(0x1000));

        m.protect(0x1000, 4096, Protection::WriteOnly);
        assert!(m.write_u8(0x1000, 1).is_ok());
        assert!(m.read_u8(0x1000).is_err());
    }

    #[test]
    fn fault_reports_exact_address() {
        let mut m = AddressSpace::new();
        // One mapped page followed by an unmapped one: a read crossing the
        // boundary must fault exactly at the first unmapped byte. This is
        // the property the adaptive array generator depends on.
        m.map(0x2000, 4096, Protection::ReadWrite);
        let err = m.read_bytes(0x2ffe, 8).unwrap_err();
        assert_eq!(err.segv_addr(), Some(0x3000));
    }

    #[test]
    fn partial_writes_persist_before_fault() {
        let mut m = AddressSpace::new();
        m.map(0x2000, 4096, Protection::ReadWrite);
        let err = m.write_bytes(0x2ffe, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err.segv_addr(), Some(0x3000));
        assert_eq!(m.read_bytes(0x2ffe, 2).unwrap(), vec![1, 2]);
    }

    #[test]
    fn unmap_revokes_access() {
        let mut m = AddressSpace::new();
        m.map(0x5000, 4096, Protection::ReadWrite);
        assert!(m.probe_read(0x5000));
        m.unmap(0x5000, 4096);
        assert!(!m.probe_read(0x5000));
        assert!(m.read_u8(0x5000).is_err());
    }

    #[test]
    fn guard_page_protection_none() {
        let mut m = AddressSpace::new();
        m.map(0x7000, 4096, Protection::None);
        assert!(m.is_mapped(0x7000));
        assert!(!m.probe_read(0x7000));
        assert!(!m.probe_write(0x7000));
    }

    #[test]
    fn multibyte_little_endian() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4096, Protection::ReadWrite);
        m.write_u32(0x1010, 0x11223344).unwrap();
        assert_eq!(m.read_u8(0x1010).unwrap(), 0x44);
        assert_eq!(m.read_u16(0x1010).unwrap(), 0x3344);
        m.write_f64(0x1020, 2.5).unwrap();
        assert_eq!(m.read_f64(0x1020).unwrap(), 2.5);
    }

    #[test]
    fn remap_zeroes_contents() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4096, Protection::ReadWrite);
        m.write_u8(0x1000, 0xff).unwrap();
        m.map(0x1000, 4096, Protection::ReadWrite);
        assert_eq!(m.read_u8(0x1000).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "null page")]
    fn mapping_null_page_panics() {
        let mut m = AddressSpace::new();
        m.map(0, 4096, Protection::ReadWrite);
    }

    #[test]
    fn accessible_run_and_bounded_copy_respect_bounds() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 2 * 4096, Protection::ReadWrite);
        m.map(0x3000, 4096, Protection::ReadOnly);
        // 0x4000 unmapped.
        assert_eq!(m.accessible_run(0x1000, 64, true, false), 64);
        assert_eq!(m.accessible_run(0x2ff0, 8192, true, false), 0x1010);
        assert_eq!(m.accessible_run(0x2ff0, 8192, true, true), 16);
        assert_eq!(m.accessible_run(0x3ff0, 8192, true, false), 16);
        assert_eq!(m.accessible_run(0x4000, 16, true, false), 0);
        assert_eq!(m.accessible_run(0x1000, 0, true, false), 0);
        assert_eq!(
            m.accessible_run(0x4000, 16, false, false),
            16,
            "a no-access run asserts nothing, like probe_range"
        );

        // The copy stops at the writable end of the destination...
        m.write_bytes(0x1000, b"abcdefgh").unwrap();
        assert_eq!(m.bounded_copy(0x2ffa, 0x1000, 8), 6);
        assert_eq!(m.read_bytes(0x2ffa, 6).unwrap(), b"abcdef");
        assert_eq!(m.read_u8(0x3000).unwrap(), 0, "never writes past the bound");
        // ...and at the readable end of the source.
        assert_eq!(m.bounded_copy(0x1100, 0x3ffc, 16), 4);
        assert_eq!(m.bounded_copy(0x1100, 0x4000, 8), 0);
    }

    #[test]
    fn probe_range_matches_per_byte_probes() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 2 * 4096, Protection::ReadWrite);
        m.map(0x3000, 4096, Protection::ReadOnly);
        // 0x4000 unmapped, then a guard page and another RW page.
        m.map(0x5000, 4096, Protection::None);
        m.map(0x6000, 4096, Protection::ReadWrite);

        // Within one mapping, across a permission boundary, across a
        // hole, and across a guard page.
        assert!(m.probe_range(0x1004, 8188, true, true)); // RW run to 0x3000
        assert!(m.probe_range(0x1004, 12284, true, false)); // RW+RO read to 0x4000
        assert!(!m.probe_range(0x1004, 12284, true, true)); // RO breaks write
        assert!(!m.probe_range(0x1004, 12285, true, false)); // into the hole
        assert!(!m.probe_range(0x3ffc, 8, true, false)); // runs into the hole
        assert!(!m.probe_range(0x5ffc, 8, true, false)); // starts on the guard
        assert!(!m.probe_range(0x4ffc, 8, false, true)); // unmapped start
                                                         // Zero length is trivially fine, even at an unmapped address.
        assert!(m.probe_range(0x4000, 0, true, true));
        // Wrapping ranges are unsatisfiable.
        assert!(!m.probe_range(0xffff_fff0, 32, true, false));
        // The pinned zero-length contract: satisfied everywhere the
        // byte loop would iterate zero times — a mapped RW page, a
        // read-only page even for writes, an unmapped hole, a guard
        // page, and the very top of the address space.
        assert!(m.probe_range(0x1004, 0, true, true)); // mapped
        assert!(m.probe_range(0x3000, 0, true, true)); // RO, write asked
        assert!(m.probe_range(0x4800, 0, true, false)); // unmapped
        assert!(m.probe_range(0x5000, 0, true, true)); // guard page
        assert!(m.probe_range(u32::MAX, 0, true, true)); // address top
        assert!(m.probe_range(0, 0, true, true)); // null page
                                                  // No-access probes are vacuous the same way, at any length.
        assert!(m.probe_range(0x4800, 123, false, false));
        assert!(m.probe_range(0x5000, 4096, false, false));
        // Single byte at the very top of a mapping.
        assert!(m.probe_range(0x2fff, 1, true, true));
        assert!(!m.probe_range(0x2fff, 2, false, true));
    }

    #[test]
    fn find_nul_scans_across_pages_and_respects_budget() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 2 * 4096, Protection::ReadWrite);
        for a in 0x1000..0x2010u32 {
            m.write_u8(a, b'x').unwrap();
        }
        m.write_u8(0x2010, 0).unwrap(); // NUL 0x1010 bytes in

        let len = 0x2010 - 0x1000;
        assert_eq!(m.find_nul(0x1000, len, false), Some(len)); // exactly at budget
        assert_eq!(m.find_nul(0x1000, len + 1, false), Some(len));
        assert_eq!(m.find_nul(0x1000, len - 1, false), None); // one short
        assert_eq!(m.find_nul(0x1004, len, true), Some(len - 4));

        // A read-only page fails the writable scan but not the read one.
        m.protect(0x2000, 4096, Protection::ReadOnly);
        assert_eq!(m.find_nul(0x1000, len, false), Some(len));
        assert_eq!(m.find_nul(0x1000, len, true), None);

        // Unmapped byte before the terminator.
        m.unmap(0x2000, 4096);
        assert_eq!(m.find_nul(0x1000, 2 * 4096, false), None);
        // NUL before the boundary is still found.
        m.write_u8(0x1fff, 0).unwrap();
        assert_eq!(m.find_nul(0x1000, 2 * 4096, false), Some(0xfff));
        // Unmapped start address.
        assert_eq!(m.find_nul(0x2000, 16, false), None);
        assert_eq!(m.find_nul(0, 16, false), None);
    }

    #[test]
    fn find_nul_at_the_address_space_top_fails_like_the_byte_loop() {
        let mut m = AddressSpace::new();
        let top = u32::MAX - (PAGE_SIZE - 1);
        m.map(top, PAGE_SIZE, Protection::ReadWrite);
        for a in top..=u32::MAX {
            m.write_u8(a, b'x').unwrap();
        }
        // No terminator before the wrap: None, even with a huge budget.
        assert_eq!(m.find_nul(u32::MAX - 8, u32::MAX, false), None);
        // A terminator below the top is found despite the overflowing
        // budget.
        m.write_u8(u32::MAX, 0).unwrap();
        assert_eq!(m.find_nul(u32::MAX - 8, u32::MAX, false), Some(8));
    }

    #[test]
    fn find_nul_in_word_scan_matches_position() {
        assert_eq!(find_nul_in(b""), None);
        assert_eq!(find_nul_in(b"abc"), None);
        assert_eq!(find_nul_in(b"\0"), Some(0));
        assert_eq!(find_nul_in(b"abc\0def"), Some(3));
        assert_eq!(find_nul_in(b"abcdefgh\0"), Some(8));
        assert_eq!(find_nul_in(b"abcdefghijk\0mno\0"), Some(11));
        // High-bit bytes must not read as zeros.
        assert_eq!(find_nul_in(&[0x80u8; 16]), None);
        assert_eq!(find_nul_in(&[0xff, 0xff, 0, 0xff]), Some(2));
        // Exhaustive position check across the 32-byte superword, the
        // 8-byte word tail, and the byte tail: every NUL position in
        // every haystack length around the chunk boundaries.
        for len in 0..=100 {
            for n in 0..len {
                let mut v = vec![0xa5u8; len];
                v[n] = 0;
                assert_eq!(find_nul_in(&v), Some(n), "len {len} position {n}");
            }
            assert_eq!(find_nul_in(&vec![0xa5u8; len]), None, "len {len}");
        }
        // The first of several NULs wins, whichever words they land in.
        for (a, b) in [(0, 31), (7, 8), (15, 16), (30, 31), (5, 70)] {
            let mut v = vec![0xa5u8; 96];
            v[b] = 0;
            v[a] = 0;
            assert_eq!(find_nul_in(&v), Some(a), "first of {a},{b}");
        }
    }

    #[test]
    fn page_run_merges_contiguous_same_protection_pages() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 3 * 4096, Protection::ReadWrite);
        m.map(0x4000, 4096, Protection::ReadOnly);
        m.map(0x6000, 4096, Protection::ReadWrite);

        // Middle of the RW run: the whole run, not just one page.
        let run = m.page_run(0x2abc);
        assert_eq!(run.start, 0x1000);
        assert_eq!(run.pages, 3);
        assert_eq!(run.prot, Some(Protection::ReadWrite));
        assert_eq!(run.last(), 0x3fff);
        assert!(run.contains(0x1000) && run.contains(0x3fff));
        assert!(!run.contains(0x4000));

        // A protection change breaks the run even without a hole.
        let ro = m.page_run(0x4123);
        assert_eq!(
            (ro.start, ro.pages, ro.prot),
            (0x4000, 1, Some(Protection::ReadOnly))
        );

        // The hole between 0x5000 and 0x6000 is a 1-page unmapped run.
        let hole = m.page_run(0x5800);
        assert_eq!((hole.start, hole.pages, hole.prot), (0x5000, 1, None));
        assert_eq!(hole.describe_prot(), "unmapped");

        // The hole below the first mapping starts at address 0.
        let low = m.page_run(0x0123);
        assert_eq!((low.start, low.prot), (0, None));
        assert_eq!(low.pages, 1);

        // The hole above the last mapping extends to the top of memory.
        let high = m.page_run(0xdead_0000);
        assert_eq!(high.start, 0x7000);
        assert_eq!(high.last(), u32::MAX);
        assert_eq!(high.prot, None);
    }

    #[test]
    fn page_run_display_names_protection_and_extent() {
        let mut m = AddressSpace::new();
        m.map(0x7000, 2 * 4096, Protection::None);
        let run = m.page_run(0x7004);
        assert_eq!(run.to_string(), "inaccessible run 0x00007000+2p");
    }

    #[test]
    fn snapshot_shares_frames_until_written() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4 * 4096, Protection::ReadWrite);
        m.write_u32(0x1000, 0xdeadbeef).unwrap();
        let base = m.cow_stats();

        let mut child = m.snapshot();
        let at_split = child.cow_stats().delta_since(&base);
        assert_eq!(at_split.snapshots, 1);
        assert_eq!(at_split.pages_shared, 4);
        assert_eq!(at_split.pages_copied, 0);

        // Child reads see parent data without any copying.
        assert_eq!(child.read_u32(0x1000).unwrap(), 0xdeadbeef);
        assert_eq!(child.cow_stats().delta_since(&base).pages_copied, 0);

        // First write to a shared frame faults in exactly one private
        // copy; further writes to the same page are free.
        child.write_u32(0x1000, 0xcafe).unwrap();
        child.write_u32(0x1100, 0x1234).unwrap();
        let after = child.cow_stats().delta_since(&base);
        assert_eq!(after.pages_copied, 1);
        assert_eq!(after.table_clones, 1);

        // Divergence is invisible to the parent, and vice versa.
        assert_eq!(m.read_u32(0x1000).unwrap(), 0xdeadbeef);
        m.write_u32(0x2000, 7).unwrap();
        assert!(child.read_u32(0x2000).unwrap() != 7 || child.read_u32(0x2000).unwrap() == 0);
        assert_eq!(child.read_u32(0x2000).unwrap(), 0);
    }

    #[test]
    fn protect_and_unmap_never_copy_frames() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4 * 4096, Protection::ReadWrite);
        let base = m.cow_stats();
        let mut child = m.snapshot();
        child.protect(0x1000, 4096, Protection::ReadOnly);
        child.unmap(0x2000, 4096);
        child.map(0x9000, 4096, Protection::ReadWrite);
        let delta = child.cow_stats().delta_since(&base);
        assert_eq!(delta.pages_copied, 0, "mapping ops must not copy data");
        assert!(delta.table_clones >= 1);
        // Parent mappings are untouched.
        assert!(m.probe_write(0x1000));
        assert!(m.probe_read(0x2000));
        assert!(!m.is_mapped(0x9000));
    }

    #[test]
    fn fresh_pages_share_the_zero_frame() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 16 * 4096, Protection::ReadWrite);
        // Mapping allocated no frames; the first write to each page
        // faults in a private copy of the shared zero frame.
        let base = m.cow_stats();
        m.write_u8(0x1000, 1).unwrap();
        m.write_u8(0x2000, 2).unwrap();
        m.write_u8(0x2001, 3).unwrap();
        assert_eq!(m.cow_stats().delta_since(&base).pages_copied, 2);
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 4096, Protection::ReadWrite);
        m.write_u8(0x1000, 0xaa).unwrap();
        let base = m.cow_stats();
        let mut copy = m.deep_clone();
        // Writes to the copy are private and cost no CoW page faults —
        // everything was already copied up front.
        copy.write_u8(0x1000, 0xbb).unwrap();
        assert_eq!(copy.cow_stats().delta_since(&base).pages_copied, 0);
        assert_eq!(m.read_u8(0x1000).unwrap(), 0xaa);
        assert_eq!(copy.read_u8(0x1000).unwrap(), 0xbb);
    }

    #[test]
    fn snapshot_of_snapshot_composes() {
        let mut gen0 = AddressSpace::new();
        gen0.map(0x1000, 4096, Protection::ReadWrite);
        gen0.write_u8(0x1000, 1).unwrap();
        let gen1 = gen0.snapshot();
        let mut gen2 = gen1.snapshot();
        gen2.write_u8(0x1000, 3).unwrap();
        assert_eq!(gen0.read_u8(0x1000).unwrap(), 1);
        assert_eq!(gen1.read_u8(0x1000).unwrap(), 1);
        assert_eq!(gen2.read_u8(0x1000).unwrap(), 3);
        let delta = gen2.cow_stats().delta_since(&gen0.cow_stats());
        assert_eq!(delta.snapshots, 2);
    }

    #[test]
    fn cow_stats_absorb_is_exhaustive() {
        let mut total = CowStats::default();
        let delta = CowStats {
            snapshots: 1,
            pages_shared: 2,
            pages_copied: 3,
            table_clones: 4,
            table_entries_copied: 5,
        };
        total.absorb(&delta);
        total.absorb(&delta);
        assert_eq!(
            total,
            CowStats {
                snapshots: 2,
                pages_shared: 4,
                pages_copied: 6,
                table_clones: 8,
                table_entries_copied: 10,
            }
        );
        assert_eq!(delta.delta_since(&delta), CowStats::default());
    }

    #[test]
    fn first_store_after_a_snapshot_copies_one_chunk_not_the_table() {
        let mut m = AddressSpace::new();
        m.map(0x1000, 10_000 * PAGE_SIZE, Protection::ReadWrite);
        let chunks = m.pages.root.len() as u64;
        let base = m.cow_stats();
        let mut child = m.snapshot();
        child.write_u8(0x1000 + 5_000 * PAGE_SIZE, 1).unwrap();
        let delta = child.cow_stats().delta_since(&base);
        assert_eq!(delta.pages_shared, 10_000);
        assert_eq!((delta.table_clones, delta.pages_copied), (1, 1));
        assert!(
            delta.table_entries_copied <= chunks + CHUNK_PAGES as u64,
            "{} entries copied for one store",
            delta.table_entries_copied
        );
        // A faulting store copies nothing at all.
        let mut child = m.snapshot();
        child.protect(0x1000, PAGE_SIZE, Protection::ReadOnly);
        let before = child.cow_stats();
        assert!(child.write_u8(0x1000, 1).is_err());
        assert_eq!(child.cow_stats(), before);
        assert_eq!(m.read_u8(0x1000 + 5_000 * PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn unmap_saturates_at_the_top_of_the_address_space() {
        let mut m = AddressSpace::new();
        m.map(0xffff_e000, 2 * PAGE_SIZE, Protection::ReadWrite);
        m.unmap(0xffff_f000, 0x2000);
        assert!(m.is_mapped(0xffff_e000));
        assert!(!m.is_mapped(0xffff_f000));
        assert_eq!(m.mapped_pages(), 1);
        m.unmap(0xffff_e000, u32::MAX);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn protect_saturates_at_the_top_of_the_address_space() {
        let mut m = AddressSpace::new();
        m.map(0xffff_e000, 2 * PAGE_SIZE, Protection::ReadWrite);
        m.protect(0xffff_f000, 0x2000, Protection::ReadOnly);
        assert_eq!(m.protection_at(0xffff_e000), Some(Protection::ReadWrite));
        assert_eq!(m.protection_at(u32::MAX), Some(Protection::ReadOnly));
        m.protect(0xffff_e000, u32::MAX, Protection::None);
        assert_eq!(m.protection_at(0xffff_e000), Some(Protection::None));
        assert_eq!(m.protection_at(u32::MAX), Some(Protection::None));
    }

    #[test]
    fn display_formats() {
        let f = SimFault::Segv {
            addr: 0x1234,
            access: AccessKind::Write,
        };
        assert!(f.to_string().contains("write"));
        assert!(SimFault::FuelExhausted.is_hang());
        assert!(SimFault::Abort {
            reason: "free(): invalid pointer".into()
        }
        .is_abort());
    }
}
