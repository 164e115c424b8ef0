//! INV-COW-EXACT: the two-level copy-on-write page table is exact.
//!
//! `AddressSpace` keeps its page table as an `Arc`-shared root over
//! `Arc`-shared 64-page chunks, and a diverging image copies only the
//! root and the chunks it touches. This suite runs random `map`,
//! `unmap`, `protect` and `write_bytes` sequences — across chunk
//! boundaries, and up to and past the top page 0xfffff — on a parent,
//! its snapshot and the snapshot's snapshot, all alive at once, and
//! after every step holds each image to the same steps applied to a
//! `deep_clone` (which shares nothing), and that reference to a flat
//! model of the page table spelled out here:
//!
//! - bytes, `protection_at`, `page_run` and `mapped_pages`;
//! - the `probe_range`, `find_nul` and `accessible_run` answers;
//! - `pages_copied` and `table_clones`, which the model predicts from
//!   which images hold the same table root and the same frame;
//! - and `table_entries_copied` stays within the root's chunk count
//!   plus 64 per chunk the step overlaps.
//!
//! Since every image matches a reference that never saw another
//! image's steps, no image observes another's writes.

use std::collections::{BTreeMap, BTreeSet};

use healers_simproc::{
    AccessKind, AddressSpace, CowStats, PageRun, Protection, SimFault, PAGE_SIZE,
};
use proptest::prelude::*;

/// Pages in one page-table chunk.
const CHUNK_PAGES: u32 = 64;
/// The last page of the address space.
const TOP_PAGE: u32 = 0xf_ffff;
/// Pages in each window steps land in.
const WINDOW: u32 = 3 * CHUNK_PAGES;
/// First pages of the two windows: three chunks around the chunk
/// boundary at page 0x60000, and the top three chunks of memory.
const WINDOWS: [u32; 2] = [0x6_0000 - 96, 0x10_0000 - WINDOW];

fn window_pages() -> impl Iterator<Item = u32> {
    WINDOWS.iter().flat_map(|&w| w..w + WINDOW)
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Map(Protection),
    Unmap,
    Protect(Protection),
    Write(u8),
}

/// One step on one image: `kind` over `len` bytes from `addr`.
#[derive(Debug, Clone)]
struct Step {
    image: usize,
    kind: Kind,
    addr: u32,
    len: u32,
}

impl Step {
    /// The pages the step overlaps, saturating at the top page.
    fn pages(&self) -> (u32, u32) {
        let last = self.addr.saturating_add(self.len.max(1) - 1);
        (self.addr / PAGE_SIZE, last / PAGE_SIZE)
    }

    fn data(&self, value: u8) -> Vec<u8> {
        (0..self.len).map(|i| value.wrapping_add(i as u8)).collect()
    }

    fn apply(&self, mem: &mut AddressSpace) -> String {
        match self.kind {
            Kind::Map(prot) => mem.map(self.addr, self.len, prot),
            Kind::Unmap => mem.unmap(self.addr, self.len),
            Kind::Protect(prot) => mem.protect(self.addr, self.len, prot),
            Kind::Write(v) => return format!("{:?}", mem.write_bytes(self.addr, &self.data(v))),
        }
        String::new()
    }
}

fn prot_strategy() -> impl Strategy<Value = Protection> {
    prop_oneof![
        Just(Protection::ReadWrite),
        Just(Protection::ReadWrite),
        Just(Protection::ReadOnly),
        Just(Protection::WriteOnly),
        Just(Protection::None),
    ]
}

fn step_strategy(images: usize) -> impl Strategy<Value = Step> {
    let kind = (0u8..11, prot_strategy(), any::<u8>()).prop_map(|(k, prot, v)| match k {
        0..=2 => Kind::Map(prot),
        3 => Kind::Unmap,
        4..=5 => Kind::Protect(prot),
        _ => Kind::Write(v),
    });
    (
        (0..images, kind),
        (0..WINDOWS.len(), 0..WINDOW, 0..PAGE_SIZE),
        (prop_oneof![1u32..8, 1u32..140], 0..PAGE_SIZE),
    )
        .prop_map(|((image, kind), (w, page, off), (pages, extra))| {
            let start = (WINDOWS[w] + page) * PAGE_SIZE;
            let (addr, len) = match kind {
                // Whole pages, inside the window (so at most up to the
                // top of memory: `map` rejects a wrapping range).
                Kind::Map(_) => (start, pages.min(WINDOW - page) * PAGE_SIZE),
                // Up to three pages of data.
                Kind::Write(_) => (start + off, (pages % 3) * PAGE_SIZE + extra),
                // Unaligned, and past the top of memory in the top
                // window.
                _ => (start + off, pages * PAGE_SIZE + extra),
            };
            Step {
                image,
                kind,
                addr,
                len,
            }
        })
}

#[derive(Clone)]
struct ModelPage {
    prot: Protection,
    bytes: Vec<u8>,
    /// Which frame holds the bytes: 0 is the shared zero frame, other
    /// ids are shared by the images a snapshot copied them into.
    frame: u64,
}

/// One image as a flat page table with no sharing machinery, plus the
/// id of the table root it holds and the copy-on-write counts its steps
/// caused.
#[derive(Default)]
struct Model {
    pages: BTreeMap<u32, ModelPage>,
    root: u64,
    counts: CowStats,
}

/// The models of every live image and the ids they share.
#[derive(Default)]
struct Models {
    images: Vec<Model>,
    next: u64,
}

impl Models {
    fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn snapshot(&mut self, from: usize) {
        let image = Model {
            pages: self.images[from].pages.clone(),
            root: self.images[from].root,
            counts: CowStats::default(),
        };
        self.images.push(image);
    }

    /// A table mutation on image `i`: it copies a root another image
    /// holds.
    fn unshare_root(&mut self, i: usize) {
        let root = self.images[i].root;
        if self.images.iter().filter(|m| m.root == root).count() > 1 {
            self.images[i].counts.table_clones += 1;
            self.images[i].root = self.fresh();
        }
    }

    /// The first store to `page` in a step: it copies a frame another
    /// image holds, or the zero frame.
    fn store(&mut self, i: usize, page: u32) {
        self.unshare_root(i);
        let frame = self.images[i].pages[&page].frame;
        let holders = self
            .images
            .iter()
            .filter(|m| m.pages.get(&page).map(|pg| pg.frame) == Some(frame))
            .count();
        if frame == 0 || holders > 1 {
            self.images[i].counts.pages_copied += 1;
            let fresh = self.fresh();
            self.images[i]
                .pages
                .get_mut(&page)
                .expect("stored to")
                .frame = fresh;
        }
    }

    fn apply(&mut self, i: usize, step: &Step) -> String {
        let (first, last) = step.pages();
        match step.kind {
            Kind::Map(prot) => {
                self.unshare_root(i);
                for p in first..=last {
                    let page = ModelPage {
                        prot,
                        bytes: vec![0; PAGE_SIZE as usize],
                        frame: 0,
                    };
                    self.images[i].pages.insert(p, page);
                }
            }
            Kind::Unmap => {
                self.unshare_root(i);
                self.images[i].pages.retain(|&p, _| p < first || p > last);
            }
            Kind::Protect(prot) => {
                self.unshare_root(i);
                for (_, page) in self.images[i].pages.range_mut(first..=last) {
                    page.prot = prot;
                }
            }
            Kind::Write(v) => return format!("{:?}", self.write(i, step.addr, &step.data(v))),
        }
        String::new()
    }

    /// The byte loop: each byte stored in turn, up to the first
    /// unwritable one or the top of memory.
    fn write(&mut self, i: usize, addr: u32, bytes: &[u8]) -> Result<(), SimFault> {
        let mut stored = BTreeSet::new();
        for (k, &b) in bytes.iter().enumerate() {
            let a = addr.checked_add(k as u32).ok_or(SimFault::Segv {
                addr: u32::MAX,
                access: AccessKind::Write,
            })?;
            let p = a / PAGE_SIZE;
            if !self.images[i]
                .pages
                .get(&p)
                .is_some_and(|pg| pg.prot.allows_write())
            {
                return Err(SimFault::Segv {
                    addr: a,
                    access: AccessKind::Write,
                });
            }
            if stored.insert(p) {
                self.store(i, p);
            }
            self.images[i]
                .pages
                .get_mut(&p)
                .expect("checked above")
                .bytes[(a % PAGE_SIZE) as usize] = b;
        }
        Ok(())
    }
}

impl Model {
    fn allows(&self, p: u32, read: bool, write: bool) -> bool {
        self.pages.get(&p).is_some_and(|pg| {
            (!read || pg.prot.allows_read()) && (!write || pg.prot.allows_write())
        })
    }

    fn image(&self) -> Vec<(u32, Protection, Vec<u8>)> {
        let window: BTreeSet<u32> = window_pages().collect();
        self.pages
            .iter()
            .filter(|(p, _)| window.contains(p))
            .map(|(&p, pg)| (p, pg.prot, pg.bytes.clone()))
            .collect()
    }

    fn probe_range(&self, addr: u32, len: u32, read: bool, write: bool) -> bool {
        if len == 0 || (!read && !write) {
            return true;
        }
        match addr.checked_add(len - 1) {
            Some(end) => (addr / PAGE_SIZE..=end / PAGE_SIZE).all(|p| self.allows(p, read, write)),
            None => false,
        }
    }

    fn accessible_run(&self, addr: u32, max: u32, read: bool, write: bool) -> u32 {
        if max == 0 || (!read && !write) {
            return max;
        }
        let end = addr.saturating_add(max - 1);
        let mut last_ok = None;
        for p in addr / PAGE_SIZE..=end / PAGE_SIZE {
            if !self.allows(p, read, write) {
                break;
            }
            last_ok = Some(p);
        }
        last_ok.map_or(0, |p| (p * PAGE_SIZE + (PAGE_SIZE - 1)).min(end) - addr + 1)
    }

    fn find_nul(&self, addr: u32, max_index: u32, write: bool) -> Option<u32> {
        for i in 0..=max_index {
            let a = addr.checked_add(i)?;
            if !self.allows(a / PAGE_SIZE, true, write) {
                return None;
            }
            if self.pages[&(a / PAGE_SIZE)].bytes[(a % PAGE_SIZE) as usize] == 0 {
                return Some(i);
            }
        }
        None
    }

    fn page_run(&self, addr: u32) -> PageRun {
        let p = addr / PAGE_SIZE;
        let (first, last, prot) = match self.pages.get(&p) {
            Some(pg) => {
                let same = |q: u32| self.pages.get(&q).is_some_and(|x| x.prot == pg.prot);
                let (mut first, mut last) = (p, p);
                while first > 0 && same(first - 1) {
                    first -= 1;
                }
                while last < TOP_PAGE && same(last + 1) {
                    last += 1;
                }
                (first, last, Some(pg.prot))
            }
            None => {
                let first = self.pages.range(..p).next_back().map_or(0, |(&q, _)| q + 1);
                let last = self
                    .pages
                    .range(p..)
                    .next()
                    .map_or(TOP_PAGE, |(&q, _)| q - 1);
                (first, last, None)
            }
        };
        PageRun {
            start: first * PAGE_SIZE,
            pages: last - first + 1,
            prot,
        }
    }
}

/// Every mapped window page: number, protection and bytes, read
/// through a throwaway clone opened up to read-write.
fn image(mem: &AddressSpace) -> Vec<(u32, Protection, Vec<u8>)> {
    let mut open = mem.clone();
    for &w in &WINDOWS {
        open.protect(w * PAGE_SIZE, WINDOW * PAGE_SIZE, Protection::ReadWrite);
    }
    window_pages()
        .filter_map(|p| {
            let prot = mem.protection_at(p * PAGE_SIZE)?;
            Some((p, prot, open.read_bytes(p * PAGE_SIZE, PAGE_SIZE).unwrap()))
        })
        .collect()
}

/// The read-side answers at `probes`: page runs and every probe form.
/// Takes either an `AddressSpace` or a `Model`.
macro_rules! answers {
    ($mem:expr, $probes:expr) => {
        $probes
            .iter()
            .map(|&(addr, len)| {
                let mut out = format!("{:?} ", $mem.page_run(addr));
                for (r, w) in [(true, false), (false, true), (true, true)] {
                    out += &format!(
                        "{} {} ",
                        $mem.probe_range(addr, len, r, w),
                        $mem.accessible_run(addr, len, r, w)
                    );
                }
                out + &format!(
                    "{:?} {:?}",
                    $mem.find_nul(addr, len, false),
                    $mem.find_nul(addr, len, true)
                )
            })
            .collect::<Vec<String>>()
    };
}

/// Chunks holding a mapped window page: the root's entry count.
fn root_chunks(mem: &AddressSpace) -> u64 {
    window_pages()
        .filter(|&p| mem.is_mapped(p * PAGE_SIZE))
        .map(|p| p / CHUNK_PAGES)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

fn probe_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    let probe = (
        0..WINDOWS.len(),
        0..WINDOW,
        0..PAGE_SIZE,
        0u32..3 * PAGE_SIZE,
    )
        .prop_map(|(w, page, off, len)| ((WINDOWS[w] + page) * PAGE_SIZE + off, len));
    prop::collection::vec(probe, 6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A parent, its snapshot and a snapshot of that snapshot diverge
    /// exactly as three deep clones do, with the copy-on-write counts
    /// of their sharing.
    #[test]
    fn snapshots_diverge_like_deep_clones(
        setup in prop::collection::vec(step_strategy(1), 4..16),
        middle in prop::collection::vec(step_strategy(2), 0..12),
        end in prop::collection::vec(step_strategy(3), 1..20),
        probes in probe_strategy(),
    ) {
        let mut cow = vec![AddressSpace::new()];
        let mut reference = vec![AddressSpace::new()];
        let mut bases = vec![CowStats::default()];
        let mut models = Models::default();
        models.images.push(Model::default());

        for (phase, steps) in [setup, middle, end].iter().enumerate() {
            if phase > 0 {
                let from = phase - 1;
                let child = cow[from].snapshot();
                bases.push(child.cow_stats());
                reference.push(reference[from].deep_clone());
                cow.push(child);
                models.snapshot(from);
            }
            for step in steps {
                let i = step.image;
                let chunks = root_chunks(&cow[i]);
                let (first, last) = step.pages();
                let before = cow[i].cow_stats();
                let got = step.apply(&mut cow[i]);
                prop_assert_eq!(&got, &step.apply(&mut reference[i]), "{:?}", step);
                prop_assert_eq!(&got, &models.apply(i, step), "{:?}", step);
                let delta = cow[i].cow_stats().delta_since(&before);
                let touched = u64::from(last / CHUNK_PAGES - first / CHUNK_PAGES + 1);
                prop_assert!(
                    delta.table_entries_copied <= chunks + u64::from(CHUNK_PAGES) * touched,
                    "{} entries copied by {:?}", delta.table_entries_copied, step
                );
                // The stepped image's reference against the flat model.
                let (reference_i, model) = (&reference[i], &models.images[i]);
                prop_assert_eq!(reference_i.mapped_pages(), model.pages.len());
                prop_assert_eq!(image(reference_i), model.image(), "after {:?}", step);
                prop_assert_eq!(answers!(reference_i, probes), answers!(model, probes));
                // Every image against its reference.
                for (j, (mem, reference)) in cow.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(mem.mapped_pages(), reference.mapped_pages());
                    prop_assert_eq!(image(mem), image(reference), "image {} after {:?}", j, step);
                    prop_assert_eq!(answers!(mem, probes), answers!(reference, probes));
                    let counts = mem.cow_stats().delta_since(&bases[j]);
                    let model = models.images[j].counts;
                    prop_assert_eq!(
                        (counts.pages_copied, counts.table_clones),
                        (model.pages_copied, model.table_clones),
                        "image {} after {:?}", j, step
                    );
                }
            }
        }
    }
}
