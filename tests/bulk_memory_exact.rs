//! INV-BULK-EXACT: page-granular simulated memory is exact.
//!
//! The accessors and bulk kernels of `AddressSpace` and `SimProcess`
//! resolve one page-table entry per page chunk, where the byte loops
//! they replaced resolved two or three per byte. This suite holds them
//! to those byte loops, over random layouts: unmapped holes, pages of
//! every protection, a mapped top page that makes ranges wrap onto the
//! null page, layouts straddling a 64-page table chunk boundary,
//! zero-frame pages, snapshot-shared frames and table chunks, small fuel
//! budgets and overlapping `src`/`dst` ranges. Every case compares the
//! return value, the fault (address and access), the memory image
//! (partial writes included), the fuel used and the copy-on-write
//! counters.
//!
//! Three layers, each against a byte-at-a-time reference written here:
//!
//! 1. `AddressSpace` accessors and kernels against a plain model of
//!    the page table (per-page protection, bytes, and whether the
//!    table root, each 64-page chunk and each frame are shared) that
//!    counts copy-on-write work the way a per-byte store does;
//! 2. the fuel-metered `SimProcess` kernels against `tick(1)`-per-byte
//!    loops;
//! 3. the libc functions moved onto those kernels against the byte
//!    loops they used to run.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use healers_libc::world::{int_arg, ptr_arg};
use healers_libc::{Libc, World};
use healers_simproc::{
    AccessKind, AddressSpace, BulkFault, CowStats, Protection, SimFault, SimProcess, SimValue,
    WorldSnapshot, PAGE_SIZE,
};
use proptest::prelude::*;

/// Where a layout starts unless it sits at the top of memory or is
/// shifted down. Clear of the heap, stack, static and stdio mappings of
/// a fresh `World`, and the first page of a 64-page table chunk, so a
/// layout shifted down by a page or more straddles a chunk boundary.
const LAYOUT_BASE: u32 = 0x6000_0000;
/// Pages in one page-table chunk.
const CHUNK_PAGES: u32 = 64;
/// A page mapped after a snapshot to unshare the page table alone.
const UNSHARE_PAGE: u32 = 0x5f00_0000;

#[derive(Debug, Clone, Copy)]
enum Content {
    /// Never written: the page keeps the shared zero frame.
    Zero,
    /// Pattern bytes, about one in four a NUL.
    Dense,
    /// Pattern bytes with no NUL, so string scans cross the page.
    NoNul,
}

#[derive(Debug, Clone)]
struct PageSpec {
    /// `None` is an unmapped hole.
    prot: Option<Protection>,
    content: Content,
    /// Under snapshot mode 2, write this page once after the snapshot
    /// so its frame is private again.
    rewrite: bool,
}

#[derive(Debug, Clone)]
struct Layout {
    pages: Vec<PageSpec>,
    pattern: Vec<u8>,
    /// Place the last page at the top of the address space (page
    /// 0xfffff, in the top table chunk).
    top: bool,
    /// Otherwise start this many pages below `LAYOUT_BASE`.
    shift: u32,
    /// 0: no snapshot. 1: operate on a fresh snapshot (table and every
    /// frame shared). 2: snapshot, then unshare the table and rewrite
    /// the `rewrite` pages.
    snap: u8,
}

impl Layout {
    fn start(&self) -> u32 {
        if self.top {
            0u32.wrapping_sub(self.pages.len() as u32 * PAGE_SIZE)
        } else {
            LAYOUT_BASE - self.shift * PAGE_SIZE
        }
    }

    fn page_addr(&self, i: usize) -> u32 {
        self.start() + i as u32 * PAGE_SIZE
    }

    /// An address around the layout: page `k` (wrapping past the end,
    /// which for a top layout is the null page), offset `d`, shifted
    /// down 32 bytes so ranges also start in the hole before it.
    fn addr(&self, k: u32, d: u32) -> u32 {
        let k = k % (self.pages.len() as u32 + 1);
        self.start()
            .wrapping_add(k * PAGE_SIZE + d)
            .wrapping_sub(32)
    }

    fn byte(&self, page: usize, j: usize) -> u8 {
        let b = self.pattern[(j * 7 + page * 13) % self.pattern.len()];
        match self.pages[page].content {
            Content::Zero => 0,
            Content::Dense => b,
            Content::NoNul => b.max(1),
        }
    }

    /// Lay the pages out in `mem`.
    fn build(&self, mem: &mut AddressSpace) {
        for (i, spec) in self.pages.iter().enumerate() {
            let Some(prot) = spec.prot else { continue };
            let a = self.page_addr(i);
            mem.map(a, PAGE_SIZE, Protection::ReadWrite);
            if !matches!(spec.content, Content::Zero) {
                let bytes: Vec<u8> = (0..PAGE_SIZE as usize).map(|j| self.byte(i, j)).collect();
                mem.write_bytes(a, &bytes).unwrap();
            }
            mem.protect(a, PAGE_SIZE, prot);
        }
    }

    /// Snapshot mode 2's divergence, applied to the snapshot child.
    fn diverge(&self, mem: &mut AddressSpace) {
        mem.map(UNSHARE_PAGE, PAGE_SIZE, Protection::ReadWrite);
        for (i, spec) in self.pages.iter().enumerate() {
            let (Some(prot), true) = (spec.prot, spec.rewrite) else {
                continue;
            };
            let a = self.page_addr(i);
            mem.protect(a, PAGE_SIZE, Protection::ReadWrite);
            mem.write_u8(a, self.byte(i, 0)).unwrap();
            mem.protect(a, PAGE_SIZE, prot);
        }
    }

    /// The layout in a bare address space, plus the snapshot parent
    /// that must stay alive for the frames to stay shared.
    fn address_space(&self) -> (AddressSpace, Option<AddressSpace>) {
        let mut mem = AddressSpace::new();
        self.build(&mut mem);
        self.split(mem, |m| m.snapshot(), |m| m)
    }

    /// The layout in a fresh simulated process.
    fn process(&self) -> (SimProcess, Option<SimProcess>) {
        let mut proc = SimProcess::new();
        self.build(&mut proc.mem);
        self.split(proc, |p| p.snapshot(), |p| &mut p.mem)
    }

    /// The layout in a fresh `World`.
    fn world(&self) -> (World, Option<World>) {
        let mut w = World::new();
        self.build(&mut w.proc.mem);
        self.split(w, |w| w.snapshot(), |w| &mut w.proc.mem)
    }

    fn split<T>(
        &self,
        image: T,
        snapshot: impl Fn(&T) -> T,
        mem: impl Fn(&mut T) -> &mut AddressSpace,
    ) -> (T, Option<T>) {
        if self.snap == 0 {
            return (image, None);
        }
        let mut child = snapshot(&image);
        if self.snap == 2 {
            self.diverge(mem(&mut child));
        }
        (child, Some(image))
    }
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    let prot = prop_oneof![
        Just(None),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadOnly)),
        Just(Some(Protection::WriteOnly)),
        Just(Some(Protection::None)),
    ];
    let content = prop_oneof![
        Just(Content::Zero),
        Just(Content::Dense),
        Just(Content::NoNul),
        Just(Content::NoNul),
    ];
    let page = (prot, content, any::<bool>()).prop_map(|(prot, content, rewrite)| PageSpec {
        prot,
        content,
        rewrite,
    });
    let byte = prop_oneof![any::<u8>(), any::<u8>(), any::<u8>(), Just(0u8)];
    (
        prop::collection::vec(page, 1..6),
        prop::collection::vec(byte, 64),
        any::<bool>(),
        prop_oneof![Just(0u32), 1u32..6],
        0u8..3,
    )
        .prop_map(|(pages, pattern, top, shift, snap)| Layout {
            pages,
            pattern,
            top,
            shift,
            snap,
        })
}

/// Operands of one operation: a kind selector, two addresses (the
/// second near the first half the time, so ranges overlap), a length
/// and a byte.
#[derive(Debug, Clone)]
struct Operands {
    kind: usize,
    a: (u32, u32),
    b: (u32, u32),
    /// `Some(d)`: the second address is the first plus `d`.
    near: Option<i32>,
    len: u32,
    value: u8,
}

impl Operands {
    fn addrs(&self, layout: &Layout) -> (u32, u32) {
        let a = layout.addr(self.a.0, self.a.1);
        let b = match self.near {
            Some(d) => a.wrapping_add(d as u32),
            None => layout.addr(self.b.0, self.b.1),
        };
        (a, b)
    }
}

fn operands_strategy(kinds: usize) -> impl Strategy<Value = Operands> {
    let offset = || prop_oneof![0u32..64, (PAGE_SIZE - 64)..PAGE_SIZE, 0u32..PAGE_SIZE];
    let near = prop_oneof![Just(None), (-48i32..48).prop_map(Some)];
    let len = prop_oneof![0u32..8, 0u32..200, 0u32..3 * PAGE_SIZE];
    (
        0..kinds,
        (0u32..8, offset()),
        (0u32..8, offset()),
        (near, len, prop_oneof![any::<u8>(), Just(0u8)]),
    )
        .prop_map(|(kind, a, b, (near, len, value))| Operands {
            kind,
            a,
            b,
            near,
            len,
            value,
        })
}

fn fuel_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..16, 0u64..6000, Just(2_000_000u64)]
}

/// Every mapped page of the layout: address, protection and bytes —
/// read through a clone opened up to read-write, so unreadable pages
/// are compared too.
fn image(layout: &Layout, mem: &AddressSpace) -> Vec<(u32, Protection, Vec<u8>)> {
    let mut open = mem.clone();
    (0..layout.pages.len())
        .filter_map(|i| {
            let a = layout.page_addr(i);
            let prot = mem.protection_at(a)?;
            open.protect(a, PAGE_SIZE, Protection::ReadWrite);
            Some((a, prot, open.read_bytes(a, PAGE_SIZE).unwrap()))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Layer 1: AddressSpace against a model of the page table.
// ---------------------------------------------------------------------

struct ModelPage {
    prot: Protection,
    bytes: Vec<u8>,
    /// The frame is shared (zero frame or snapshot parent): the first
    /// store copies it.
    shared: bool,
}

/// A page table with no sharing machinery at all: the byte-at-a-time
/// semantics, copy-on-write counts included, spelled out directly.
struct Model {
    pages: BTreeMap<u32, ModelPage>,
    /// The table root is shared with a snapshot parent: the first store
    /// copies it, one entry per chunk.
    table_shared: bool,
    /// Chunks still shared with a snapshot parent: the first store to
    /// each copies its 64 entries.
    shared_chunks: BTreeSet<u32>,
    cow: CowStats,
}

impl Model {
    fn new(layout: &Layout) -> Model {
        let mut pages = BTreeMap::new();
        let mut shared_chunks = BTreeSet::new();
        let mut private_chunks = BTreeSet::new();
        for (i, spec) in layout.pages.iter().enumerate() {
            let Some(prot) = spec.prot else { continue };
            let page = layout.page_addr(i) / PAGE_SIZE;
            let rewritten = layout.snap == 2 && spec.rewrite;
            let zero = matches!(spec.content, Content::Zero) && !rewritten;
            if layout.snap != 0 {
                shared_chunks.insert(page / CHUNK_PAGES);
            }
            if rewritten {
                // The rewrite's store unshared the page's chunk.
                private_chunks.insert(page / CHUNK_PAGES);
            }
            pages.insert(
                page,
                ModelPage {
                    prot,
                    bytes: (0..PAGE_SIZE as usize).map(|j| layout.byte(i, j)).collect(),
                    shared: zero || (layout.snap != 0 && !rewritten),
                },
            );
        }
        Model {
            pages,
            table_shared: layout.snap == 1,
            shared_chunks: &shared_chunks - &private_chunks,
            cow: CowStats::default(),
        }
    }

    fn read_u8(&self, addr: u32) -> Result<u8, SimFault> {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) if p.prot.allows_read() => Ok(p.bytes[(addr % PAGE_SIZE) as usize]),
            _ => Err(SimFault::Segv {
                addr,
                access: AccessKind::Read,
            }),
        }
    }

    fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), SimFault> {
        let n = addr / PAGE_SIZE;
        if !self.pages.get(&n).is_some_and(|p| p.prot.allows_write()) {
            return Err(SimFault::Segv {
                addr,
                access: AccessKind::Write,
            });
        }
        if self.table_shared {
            let chunks: BTreeSet<u32> = self.pages.keys().map(|p| p / CHUNK_PAGES).collect();
            self.table_shared = false;
            self.cow.table_clones += 1;
            self.cow.table_entries_copied += chunks.len() as u64;
        }
        if self.shared_chunks.remove(&(n / CHUNK_PAGES)) {
            self.cow.table_entries_copied += u64::from(CHUNK_PAGES);
        }
        let page = self.pages.get_mut(&n).expect("checked above");
        if page.shared {
            page.shared = false;
            self.cow.pages_copied += 1;
        }
        page.bytes[(addr % PAGE_SIZE) as usize] = value;
        Ok(())
    }

    fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, SimFault> {
        let mut out = Vec::new();
        for i in 0..len {
            let a = addr.checked_add(i).ok_or(SimFault::Segv {
                addr: u32::MAX,
                access: AccessKind::Read,
            })?;
            out.push(self.read_u8(a)?);
        }
        Ok(out)
    }

    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), SimFault> {
        for (i, b) in bytes.iter().enumerate() {
            let a = addr.checked_add(i as u32).ok_or(SimFault::Segv {
                addr: u32::MAX,
                access: AccessKind::Write,
            })?;
            self.write_u8(a, *b)?;
        }
        Ok(())
    }

    fn fill(&mut self, dst: u32, value: u8, len: u32) -> Result<(), BulkFault> {
        for i in 0..len {
            self.write_u8(dst.wrapping_add(i), value)
                .map_err(|fault| BulkFault { index: i, fault })?;
        }
        Ok(())
    }

    fn copy(
        &mut self,
        dst: u32,
        src: u32,
        len: u32,
        until_nul: bool,
    ) -> Result<Option<u32>, BulkFault> {
        for i in 0..len {
            let fail = |fault| BulkFault { index: i, fault };
            let b = self.read_u8(src.wrapping_add(i)).map_err(fail)?;
            self.write_u8(dst.wrapping_add(i), b).map_err(fail)?;
            if until_nul && b == 0 {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    fn move_bytes(&mut self, dst: u32, src: u32, len: u32) -> Result<(), SimFault> {
        if dst <= src || src.wrapping_add(len) <= dst {
            for i in 0..len {
                let b = self.read_u8(src.wrapping_add(i))?;
                self.write_u8(dst.wrapping_add(i), b)?;
            }
        } else {
            for i in (0..len).rev() {
                let b = self.read_u8(src.wrapping_add(i))?;
                self.write_u8(dst.wrapping_add(i), b)?;
            }
        }
        Ok(())
    }

    fn compare(&self, a: u32, b: u32, len: u32) -> Result<Option<(u32, u8, u8)>, BulkFault> {
        for i in 0..len {
            let fail = |fault| BulkFault { index: i, fault };
            let x = self.read_u8(a.wrapping_add(i)).map_err(fail)?;
            let y = self.read_u8(b.wrapping_add(i)).map_err(fail)?;
            if x != y {
                return Ok(Some((i, x, y)));
            }
        }
        Ok(None)
    }

    fn scan(&self, addr: u32, len: u32, value: u8) -> Result<Option<u32>, BulkFault> {
        for i in 0..len {
            let b = self
                .read_u8(addr.wrapping_add(i))
                .map_err(|fault| BulkFault { index: i, fault })?;
            if b == value {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// The old `bounded_copy` loop over a precomputed accessible length.
    fn bounded_copy(&mut self, dst: u32, src: u32, n: u32) -> u32 {
        for i in 0..n {
            let Ok(b) = self.read_u8(src + i) else {
                return i;
            };
            if self.write_u8(dst + i, b).is_err() {
                return i;
            }
        }
        n
    }

    fn image(&self, layout: &Layout) -> Vec<(u32, Protection, Vec<u8>)> {
        (0..layout.pages.len())
            .filter_map(|i| {
                let a = layout.page_addr(i);
                let p = self.pages.get(&(a / PAGE_SIZE))?;
                Some((a, p.prot, p.bytes.clone()))
            })
            .collect()
    }
}

const MEM_OPS: usize = 16;

fn run_mem(mem: &mut AddressSpace, op: &Operands, a: u32, b: u32) -> String {
    let (len, v) = (op.len, op.value);
    let data: Vec<u8> = (0..len).map(|i| v.wrapping_add(i as u8)).collect();
    match op.kind {
        0 => format!("{:?}", mem.read_u8(a)),
        1 => format!("{:?}", mem.write_u8(a, v)),
        2 => format!("{:?}", mem.read_bytes(a, len)),
        3 => format!("{:?}", mem.write_bytes(a, &data)),
        4 => format!("{:?}", mem.read_u16(a)),
        5 => format!("{:?}", mem.read_u32(a)),
        6 => format!("{:?}", mem.read_f64(a).map(f64::to_bits)),
        7 => format!("{:?}", mem.write_u32(a, u32::from_le_bytes([v, 1, v, 2]))),
        8 => format!("{:?}", mem.fill(a, v, len)),
        9 => format!("{:?}", mem.copy(a, b, len)),
        10 => format!("{:?}", mem.copy_until_nul(a, b, len)),
        11 => format!("{:?}", mem.move_bytes(a, b, len)),
        12 => format!("{:?}", mem.compare(a, b, len)),
        13 => format!("{:?}", mem.scan(a, len, |x| x == v)),
        14 => format!("{:?}", mem.bounded_copy(a, b, len)),
        _ => format!("{:?}", mem.write_u16(a, u16::from_le_bytes([v, 3]))),
    }
}

fn run_model(m: &mut Model, mem: &AddressSpace, op: &Operands, a: u32, b: u32) -> String {
    let (len, v) = (op.len, op.value);
    let data: Vec<u8> = (0..len).map(|i| v.wrapping_add(i as u8)).collect();
    match op.kind {
        0 => format!("{:?}", m.read_u8(a)),
        1 => format!("{:?}", m.write_u8(a, v)),
        2 => format!("{:?}", m.read_bytes(a, len)),
        3 => format!("{:?}", m.write_bytes(a, &data)),
        4 => format!(
            "{:?}",
            m.read_bytes(a, 2)
                .map(|x| u16::from_le_bytes(x.try_into().unwrap()))
        ),
        5 => format!(
            "{:?}",
            m.read_bytes(a, 4)
                .map(|x| u32::from_le_bytes(x.try_into().unwrap()))
        ),
        6 => format!(
            "{:?}",
            m.read_bytes(a, 8)
                .map(|x| u64::from_le_bytes(x.try_into().unwrap()))
        ),
        7 => format!("{:?}", m.write_bytes(a, &[v, 1, v, 2])),
        8 => format!("{:?}", m.fill(a, v, len)),
        9 => format!("{:?}", m.copy(a, b, len, false).map(|_| ())),
        10 => format!("{:?}", m.copy(a, b, len, true)),
        11 => format!("{:?}", m.move_bytes(a, b, len)),
        12 => format!("{:?}", m.compare(a, b, len)),
        13 => format!("{:?}", m.scan(a, len, v)),
        14 => {
            let n = mem
                .accessible_run(b, len, true, false)
                .min(mem.accessible_run(a, len, false, true));
            format!("{:?}", m.bounded_copy(a, b, n))
        }
        _ => format!("{:?}", m.write_bytes(a, &[v, 3])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Accessors and kernels match the per-byte model: result, fault,
    /// memory image and copy-on-write counts.
    #[test]
    fn address_space_matches_the_byte_model(
        layout in layout_strategy(),
        op in operands_strategy(MEM_OPS),
    ) {
        let (mut mem, _parent) = layout.address_space();
        let mut model = Model::new(&layout);
        let (a, b) = op.addrs(&layout);
        let before = mem.cow_stats();
        let expected = run_model(&mut model, &mem, &op, a, b);
        let got = run_mem(&mut mem, &op, a, b);
        prop_assert_eq!(&got, &expected, "{:?} a={:#x} b={:#x}", op, a, b);
        prop_assert_eq!(image(&layout, &mem), model.image(&layout), "image after {:?}", op);
        prop_assert_eq!(mem.cow_stats().delta_since(&before), model.cow, "cow after {:?}", op);
    }
}

// ---------------------------------------------------------------------
// Layer 2: fuel-metered SimProcess kernels against tick(1) loops.
// ---------------------------------------------------------------------

const PROC_OPS: usize = 8;

fn run_proc(p: &mut SimProcess, op: &Operands, a: u32, b: u32) -> String {
    let (len, v) = (op.len, op.value);
    match op.kind {
        0 => format!("{:?}", p.fill(a, v, len)),
        1 => format!("{:?}", p.copy(a, b, len)),
        2 => format!("{:?}", p.copy_until_nul(a, b, len)),
        3 => format!("{:?}", p.copy_cstr(a, b)),
        4 => format!("{:?}", p.compare(a, b, len)),
        5 => format!("{:?}", p.scan(a, len, |x| x == v)),
        6 => format!("{:?}", p.scan_until(a, |x| x == v)),
        _ => format!("{:?}", p.read_cstr(a)),
    }
}

fn ref_proc(p: &mut SimProcess, op: &Operands, a: u32, b: u32) -> String {
    let (len, v) = (op.len, op.value);
    match op.kind {
        0 => format!(
            "{:?}",
            (|| {
                for i in 0..len {
                    p.tick(1)?;
                    p.mem.write_u8(a.wrapping_add(i), v)?;
                }
                Ok::<_, SimFault>(())
            })()
        ),
        1 | 2 => {
            let until_nul = op.kind == 2;
            let r = (|| {
                for i in 0..len {
                    p.tick(1)?;
                    let x = p.mem.read_u8(b.wrapping_add(i))?;
                    p.mem.write_u8(a.wrapping_add(i), x)?;
                    if until_nul && x == 0 {
                        return Ok(Some(i));
                    }
                }
                Ok::<_, SimFault>(None)
            })();
            if until_nul {
                format!("{r:?}")
            } else {
                format!("{:?}", r.map(|_| ()))
            }
        }
        3 => format!(
            "{:?}",
            (|| {
                let mut i = 0u32;
                loop {
                    p.tick(1)?;
                    let x = p.mem.read_u8(b.wrapping_add(i))?;
                    p.mem.write_u8(a.wrapping_add(i), x)?;
                    if x == 0 {
                        return Ok::<_, SimFault>(i);
                    }
                    i = i.wrapping_add(1);
                }
            })()
        ),
        4 => format!(
            "{:?}",
            (|| {
                for i in 0..len {
                    p.tick(1)?;
                    let x = p.mem.read_u8(a.wrapping_add(i))?;
                    let y = p.mem.read_u8(b.wrapping_add(i))?;
                    if x != y {
                        return Ok(Some((x, y)));
                    }
                }
                Ok::<_, SimFault>(None)
            })()
        ),
        5 => format!(
            "{:?}",
            (|| {
                for i in 0..len {
                    p.tick(1)?;
                    if p.mem.read_u8(a.wrapping_add(i))? == v {
                        return Ok(Some(i));
                    }
                }
                Ok::<_, SimFault>(None)
            })()
        ),
        6 => format!(
            "{:?}",
            (|| {
                let mut i = 0u32;
                loop {
                    p.tick(1)?;
                    if p.mem.read_u8(a.wrapping_add(i))? == v {
                        return Ok::<_, SimFault>(i);
                    }
                    i = i.wrapping_add(1);
                }
            })()
        ),
        _ => format!(
            "{:?}",
            (|| {
                let mut out = Vec::new();
                let mut at = a;
                loop {
                    p.tick(1)?;
                    let x = p.mem.read_u8(at)?;
                    if x == 0 {
                        return Ok::<_, SimFault>(out);
                    }
                    out.push(x);
                    at = at.wrapping_add(1);
                }
            })()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Metered kernels charge fuel, fault and count exactly as a
    /// `tick(1)`-per-byte loop does — including which of a fault and
    /// fuel exhaustion comes first.
    #[test]
    fn metered_kernels_match_tick_per_byte_loops(
        layout in layout_strategy(),
        op in operands_strategy(PROC_OPS),
        fuel in fuel_strategy(),
    ) {
        let (mut got_p, _got_parent) = layout.process();
        let (mut ref_p, _ref_parent) = layout.process();
        got_p.set_fuel_budget(fuel);
        ref_p.set_fuel_budget(fuel);
        let (a, b) = op.addrs(&layout);
        let expected = ref_proc(&mut ref_p, &op, a, b);
        let got = run_proc(&mut got_p, &op, a, b);
        prop_assert_eq!(&got, &expected, "{:?} fuel={} a={:#x} b={:#x}", op, fuel, a, b);
        prop_assert_eq!(got_p.fuel_used(), ref_p.fuel_used(), "fuel after {:?}", op);
        prop_assert_eq!(got_p.cow_stats(), ref_p.cow_stats(), "cow after {:?}", op);
        prop_assert_eq!(image(&layout, &got_p.mem), image(&layout, &ref_p.mem));
    }
}

// ---------------------------------------------------------------------
// Layer 3: libc functions against the byte loops they replaced.
// ---------------------------------------------------------------------

/// Functions on the bulk kernels, with the shape of their arguments:
/// (name, takes a second pointer, takes a byte, takes a length).
const LIBC_FNS: [(&str, bool, bool, bool); 15] = [
    ("memset", false, true, true),
    ("bzero", false, false, true),
    ("memcpy", true, false, true),
    ("memmove", true, false, true),
    ("bcopy", true, false, true),
    ("strncpy", true, false, true),
    ("strcpy", true, false, false),
    ("strcat", true, false, false),
    ("memcmp", true, false, true),
    ("bcmp", true, false, true),
    ("memchr", false, true, true),
    ("strlen", false, false, false),
    ("strnlen", false, false, true),
    ("strchr", false, true, false),
    ("index", false, true, false),
];

fn libc() -> &'static Libc {
    static LIBC: OnceLock<Libc> = OnceLock::new();
    LIBC.get_or_init(Libc::standard)
}

fn libc_args(op: &Operands, a: u32, b: u32) -> Vec<SimValue> {
    let (name, two_ptrs, byte, len) = LIBC_FNS[op.kind];
    let mut args = vec![SimValue::Ptr(a)];
    if two_ptrs {
        args.push(SimValue::Ptr(b));
    }
    if byte {
        args.push(SimValue::Int(i64::from(op.value)));
    }
    if len {
        args.push(SimValue::Int(i64::from(op.len)));
    }
    if name == "bcopy" {
        args.swap(0, 1); // bcopy(src, dst, n)
    }
    args
}

fn ref_strlen(w: &mut World, s: u32) -> Result<u32, SimFault> {
    let mut n = 0u32;
    loop {
        w.proc.tick(1)?;
        if w.proc.mem.read_u8(s.wrapping_add(n))? == 0 {
            return Ok(n);
        }
        n = n.wrapping_add(1);
    }
}

fn ref_copy_str(w: &mut World, dst: u32, src: u32) -> Result<(), SimFault> {
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(src.wrapping_add(i))?;
        w.proc.mem.write_u8(dst.wrapping_add(i), b)?;
        if b == 0 {
            return Ok(());
        }
        i = i.wrapping_add(1);
    }
}

fn ref_move(w: &mut World, dst: u32, src: u32, n: u32) -> Result<(), SimFault> {
    w.proc.tick(u64::from(n))?;
    if dst <= src || src.wrapping_add(n) <= dst {
        for i in 0..n {
            let b = w.proc.mem.read_u8(src.wrapping_add(i))?;
            w.proc.mem.write_u8(dst.wrapping_add(i), b)?;
        }
    } else {
        for i in (0..n).rev() {
            let b = w.proc.mem.read_u8(src.wrapping_add(i))?;
            w.proc.mem.write_u8(dst.wrapping_add(i), b)?;
        }
    }
    Ok(())
}

/// The byte loops the libc functions ran before the bulk kernels.
fn ref_libc(w: &mut World, name: &str, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let p = |i| ptr_arg(args, i);
    let n = |i| int_arg(args, i) as u32;
    let c = |i| (int_arg(args, i) & 0xff) as u8;
    match name {
        "memset" | "bzero" => {
            let (dst, v, len) = if name == "bzero" {
                (p(0), 0, n(1))
            } else {
                (p(0), c(1), n(2))
            };
            for i in 0..len {
                w.proc.tick(1)?;
                w.proc.mem.write_u8(dst.wrapping_add(i), v)?;
            }
            Ok(if name == "bzero" {
                SimValue::Void
            } else {
                SimValue::Ptr(dst)
            })
        }
        "memcpy" => {
            for i in 0..n(2) {
                w.proc.tick(1)?;
                let b = w.proc.mem.read_u8(p(1).wrapping_add(i))?;
                w.proc.mem.write_u8(p(0).wrapping_add(i), b)?;
            }
            Ok(SimValue::Ptr(p(0)))
        }
        "memmove" => ref_move(w, p(0), p(1), n(2)).map(|()| SimValue::Ptr(p(0))),
        "bcopy" => ref_move(w, p(1), p(0), n(2)).map(|()| SimValue::Void),
        "strncpy" => {
            let mut copying = true;
            for i in 0..n(2) {
                w.proc.tick(1)?;
                let b = if copying {
                    let b = w.proc.mem.read_u8(p(1).wrapping_add(i))?;
                    copying = b != 0;
                    b
                } else {
                    0
                };
                w.proc.mem.write_u8(p(0).wrapping_add(i), b)?;
            }
            Ok(SimValue::Ptr(p(0)))
        }
        "strcpy" => ref_copy_str(w, p(0), p(1)).map(|()| SimValue::Ptr(p(0))),
        "strcat" => {
            let end = ref_strlen(w, p(0))?;
            ref_copy_str(w, p(0).wrapping_add(end), p(1)).map(|()| SimValue::Ptr(p(0)))
        }
        "memcmp" | "bcmp" => {
            for i in 0..n(2) {
                w.proc.tick(1)?;
                let x = w.proc.mem.read_u8(p(0).wrapping_add(i))?;
                let y = w.proc.mem.read_u8(p(1).wrapping_add(i))?;
                if x != y {
                    return Ok(SimValue::Int(i64::from(x) - i64::from(y)));
                }
            }
            Ok(SimValue::Int(0))
        }
        "memchr" => {
            for i in 0..n(2) {
                w.proc.tick(1)?;
                if w.proc.mem.read_u8(p(0).wrapping_add(i))? == c(1) {
                    return Ok(SimValue::Ptr(p(0).wrapping_add(i)));
                }
            }
            Ok(SimValue::NULL)
        }
        "strlen" => ref_strlen(w, p(0)).map(|len| SimValue::Int(i64::from(len))),
        "strnlen" => {
            for i in 0..n(1) {
                w.proc.tick(1)?;
                if w.proc.mem.read_u8(p(0).wrapping_add(i))? == 0 {
                    return Ok(SimValue::Int(i64::from(i)));
                }
            }
            Ok(SimValue::Int(i64::from(n(1))))
        }
        "strchr" | "index" => {
            let mut i = 0u32;
            loop {
                w.proc.tick(1)?;
                let b = w.proc.mem.read_u8(p(0).wrapping_add(i))?;
                if b == c(1) {
                    return Ok(SimValue::Ptr(p(0).wrapping_add(i)));
                }
                if b == 0 {
                    return Ok(SimValue::NULL);
                }
                i = i.wrapping_add(1);
            }
        }
        other => unreachable!("no reference loop for {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Each libc function moved onto the bulk kernels returns, faults,
    /// writes, burns fuel and copies pages exactly as its old byte
    /// loop did.
    #[test]
    fn libc_bulk_functions_match_their_byte_loops(
        layout in layout_strategy(),
        op in operands_strategy(LIBC_FNS.len()),
        fuel in fuel_strategy(),
    ) {
        let (mut got_w, _got_parent) = layout.world();
        let (mut ref_w, _ref_parent) = layout.world();
        got_w.proc.set_fuel_budget(fuel);
        ref_w.proc.set_fuel_budget(fuel);
        let (a, b) = op.addrs(&layout);
        let name = LIBC_FNS[op.kind].0;
        let args = libc_args(&op, a, b);
        ref_w.proc.reset_fuel();
        let expected = ref_libc(&mut ref_w, name, &args);
        let got = libc().call(&mut got_w, name, &args);
        prop_assert_eq!(&got, &expected, "{}{:?} fuel={}", name, args, fuel);
        prop_assert_eq!(got_w.proc.fuel_used(), ref_w.proc.fuel_used(), "fuel of {}", name);
        prop_assert_eq!(got_w.proc.cow_stats(), ref_w.proc.cow_stats(), "cow of {}", name);
        prop_assert_eq!(image(&layout, &got_w.proc.mem), image(&layout, &ref_w.proc.mem));
    }
}

/// The partial-write and exact-address contract at the page boundary,
/// pinned by hand: a `memset` running off a read-write page into a
/// read-only one writes every byte of the first page, faults at the
/// second page's first byte, and charges one unit per byte touched.
#[test]
fn memset_across_a_protection_boundary_is_exact() {
    let mut w = World::new();
    w.proc
        .mem
        .map(LAYOUT_BASE, PAGE_SIZE, Protection::ReadWrite);
    w.proc
        .mem
        .map(LAYOUT_BASE + PAGE_SIZE, PAGE_SIZE, Protection::ReadOnly);
    let start = LAYOUT_BASE + PAGE_SIZE - 10;
    let args = [SimValue::Ptr(start), SimValue::Int(0x41), SimValue::Int(20)];
    let err = libc().call(&mut w, "memset", &args).unwrap_err();
    assert_eq!(
        err,
        SimFault::Segv {
            addr: LAYOUT_BASE + PAGE_SIZE,
            access: AccessKind::Write
        }
    );
    assert_eq!(w.proc.fuel_used(), 11);
    assert_eq!(w.proc.mem.read_bytes(start, 10).unwrap(), vec![0x41; 10]);
}

// ---------------------------------------------------------------------
// Named regression cases: forward copies whose destination overlaps
// their source `gap` bytes ahead. The byte loop re-reads what it wrote
// `gap` steps earlier, so the copy repeats its first `gap` bytes.
// ---------------------------------------------------------------------

/// The gaps pinned: one byte (every read re-reads the previous write),
/// small odd periods, and a page minus and plus one.
const GAPS: [u32; 5] = [1, 2, 3, PAGE_SIZE - 1, PAGE_SIZE + 1];

/// Read-write `NoNul` pages, then `tail` (`None` for a hole), so a
/// long copy runs for pages and then faults.
fn overlap_layout(rw_pages: usize, tail: Option<Protection>, content: Content, snap: u8) -> Layout {
    let page = |prot| PageSpec {
        prot,
        content,
        rewrite: false,
    };
    let mut pages: Vec<PageSpec> = (0..rw_pages)
        .map(|_| page(Some(Protection::ReadWrite)))
        .collect();
    pages.push(page(tail));
    pages.push(page(tail));
    Layout {
        pages,
        pattern: (1..=64).collect(),
        top: false,
        shift: 0,
        snap,
    }
}

/// Run one `copy` (or `copy_until_nul`) against the byte model and
/// compare result, memory image and copy-on-write counts; return the
/// result.
fn overlap_case(
    layout: &Layout,
    dst: u32,
    src: u32,
    len: u32,
    until_nul: bool,
) -> Result<Option<u32>, BulkFault> {
    let (mut mem, _parent) = layout.address_space();
    let mut model = Model::new(layout);
    let before = mem.cow_stats();
    let want = model.copy(dst, src, len, until_nul);
    let got = if until_nul {
        mem.copy_until_nul(dst, src, len)
    } else {
        mem.copy(dst, src, len).map(|()| None)
    };
    let at = format!("dst={dst:#x} src={src:#x} len={len} until_nul={until_nul}");
    assert_eq!(got, want, "result of {at}");
    assert_eq!(image(layout, &mem), model.image(layout), "image of {at}");
    assert_eq!(
        mem.cow_stats().delta_since(&before),
        model.cow,
        "cow of {at}"
    );
    got
}

/// Many pages of overlapping copy, then a hole: the copy smears its
/// head across every page and faults where the byte loop does.
#[test]
fn overlapping_forward_copy_faults_partway_exactly() {
    for gap in GAPS {
        for snap in [0, 1] {
            for until_nul in [false, true] {
                let layout = overlap_layout(6, None, Content::NoNul, snap);
                let src = layout.page_addr(0) + 100;
                let len = 7 * PAGE_SIZE;
                let got = overlap_case(&layout, src + gap, src, len, until_nul);
                let stop = got.expect_err("the copy runs into the hole");
                assert_eq!(
                    stop.index,
                    layout.page_addr(6) - 100 - gap - layout.page_addr(0)
                );
            }
        }
    }
}

/// The destination is write-only: the copy's stores land, and the
/// first read of a byte it stored there faults at the byte loop's
/// index, with everything before it copied.
#[test]
fn overlapping_copy_faults_reading_its_write_only_destination() {
    for gap in GAPS {
        for snap in [0, 1] {
            let layout = overlap_layout(3, Some(Protection::WriteOnly), Content::NoNul, snap);
            let src = layout.page_addr(3) - 3000;
            let len = 5 * PAGE_SIZE;
            let got = overlap_case(&layout, src + gap, src, len, false);
            let stop = got.expect_err("the read of the write-only page faults");
            assert_eq!(stop.index, 3000);
            assert!(
                matches!(
                    stop.fault,
                    SimFault::Segv {
                        access: AccessKind::Read,
                        ..
                    }
                ),
                "{stop:?}"
            );
        }
    }
}

/// `copy_until_nul` with a NUL among the first `gap` bytes stops there
/// at once, before the period repeats.
#[test]
fn overlapping_copy_until_nul_stops_in_the_first_gap_bytes() {
    for gap in GAPS {
        for snap in [0, 1] {
            // A NUL every 64 bytes: the pattern holds one zero.
            let mut layout = overlap_layout(6, None, Content::Dense, snap);
            layout.pattern[5] = 0;
            let first_nul = (0..PAGE_SIZE as usize)
                .find(|&j| j >= 200 && layout.byte(0, j) == 0)
                .expect("a NUL in every 64 bytes") as u32;
            // Put the NUL at the last of the first `gap` bytes when it
            // fits, else within the first 64.
            let back = (gap - 1).min(63);
            let src = layout.page_addr(0) + first_nul - back;
            let got = overlap_case(&layout, src + gap, src, 6 * PAGE_SIZE, true);
            assert_eq!(got, Ok(Some(back)));
        }
    }
}
