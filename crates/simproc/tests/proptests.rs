//! Property tests for the simulated process substrate: allocator
//! invariants, memory semantics, and fault precision.

use proptest::prelude::*;

use healers_simproc::{AddressSpace, Heap, HeapMode, Protection, SimProcess, PAGE_SIZE};

/// Byte-at-a-time reference for [`AddressSpace::probe_range`]: the loop
/// the bulk kernel replaced. Per the pinned contract, a probe that
/// requests no access at all asserts nothing — the loop below would
/// visit each byte without checking anything, so it is skipped outright
/// (this also sidesteps the address computation for ranges past the
/// top of the address space, which no byte would ever need).
fn probe_range_ref(mem: &AddressSpace, addr: u32, len: u32, read: bool, write: bool) -> bool {
    if !read && !write {
        return true;
    }
    for i in 0..len {
        let Some(a) = addr.checked_add(i) else {
            return false;
        };
        if (read && !mem.probe_read(a)) || (write && !mem.probe_write(a)) {
            return false;
        }
    }
    true
}

/// Byte-at-a-time reference for [`AddressSpace::find_nul`]: probe each
/// byte for accessibility before reading it, stop at the first NUL,
/// give up past `max_index`.
fn find_nul_ref(mem: &AddressSpace, addr: u32, max_index: u32, write: bool) -> Option<u32> {
    let mut i: u32 = 0;
    loop {
        let a = addr.checked_add(i)?;
        if !mem.probe_read(a) || (write && !mem.probe_write(a)) {
            return None;
        }
        if mem.read_u8(a).ok()? == 0 {
            return Some(i);
        }
        if i == max_index {
            return None;
        }
        i += 1;
    }
}

/// A random run of pages: each either unmapped (a guard hole) or mapped
/// with a random protection, filled with bytes drawn from a NUL-heavy
/// alphabet so string scans terminate inside pages often enough.
fn layout_strategy() -> impl Strategy<Value = (AddressSpace, u32, u32)> {
    // Repetition stands in for weights (the vendored prop_oneof! is
    // uniform): guard holes and RW pages dominate, but every protection
    // appears.
    let page = prop_oneof![
        Just(None),
        Just(None),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadWrite)),
        Just(Some(Protection::ReadOnly)),
        Just(Some(Protection::ReadOnly)),
        Just(Some(Protection::WriteOnly)),
        Just(Some(Protection::None)),
    ];
    let byte = prop_oneof![any::<u8>(), any::<u8>(), any::<u8>(), Just(0u8)];
    (
        prop::collection::vec(page, 1..8),
        prop::collection::vec(byte, 64),
        1u32..200,
    )
        .prop_map(|(pages, pattern, base_page)| {
            let mut mem = AddressSpace::new();
            let base = base_page * PAGE_SIZE;
            let span = pages.len() as u32 * PAGE_SIZE;
            for (i, prot) in pages.iter().enumerate() {
                if let Some(p) = prot {
                    let start = base + i as u32 * PAGE_SIZE;
                    mem.map(start, PAGE_SIZE, Protection::ReadWrite);
                    for off in 0..PAGE_SIZE {
                        mem.write_u8(start + off, pattern[(off % 64) as usize])
                            .unwrap();
                    }
                    mem.protect(start, PAGE_SIZE, *p);
                }
            }
            (mem, base, span)
        })
}

proptest! {
    /// The bulk page-run probe agrees with probing every byte, across
    /// guard holes, protection boundaries, and range edges.
    #[test]
    fn probe_range_matches_the_byte_loop(
        layout in layout_strategy(),
        start_off in 0u32..40_000,
        len in 0u32..40_000,
        read in any::<bool>(),
        write in any::<bool>(),
    ) {
        let (mem, base, span) = layout;
        // Bias the window to straddle the layout (including its edges).
        let addr = (base - PAGE_SIZE.min(base)) + start_off % (span + 2 * PAGE_SIZE);
        let expect = probe_range_ref(&mem, addr, len, read, write);
        prop_assert_eq!(
            mem.probe_range(addr, len, read, write),
            expect,
            "probe_range({:#x}, {}, {}, {}) disagrees with byte loop",
            addr, len, read, write
        );
    }

    /// The word-wise NUL scan finds exactly the byte the reference loop
    /// finds — same index, same accessibility failures, same budget.
    #[test]
    fn find_nul_matches_the_byte_loop(
        layout in layout_strategy(),
        start_off in 0u32..40_000,
        max_index in 0u32..20_000,
        write in any::<bool>(),
    ) {
        let (mem, base, span) = layout;
        let addr = (base - PAGE_SIZE.min(base)) + start_off % (span + 2 * PAGE_SIZE);
        let expect = find_nul_ref(&mem, addr, max_index, write);
        prop_assert_eq!(
            mem.find_nul(addr, max_index, write),
            expect,
            "find_nul({:#x}, {}, {}) disagrees with byte loop",
            addr, max_index, write
        );
    }

    /// Kernels behave at the very top of the address space exactly like
    /// the byte loops (the wrap-around edge).
    #[test]
    fn kernels_match_at_the_address_space_top(
        map_top in any::<bool>(),
        has_nul in any::<bool>(),
        nul_back in 0u32..64,
        back_off in 1u32..100,
        len in 0u32..200,
    ) {
        let nul_off = has_nul.then_some(nul_back);
        let mut mem = AddressSpace::new();
        let top = u32::MAX - (PAGE_SIZE - 1);
        if map_top {
            mem.map(top, PAGE_SIZE, Protection::ReadWrite);
            for off in 0..PAGE_SIZE {
                mem.write_u8(top + off, 0x41).unwrap();
            }
            if let Some(o) = nul_off {
                mem.write_u8(u32::MAX - o, 0).unwrap();
            }
        }
        let addr = u32::MAX - back_off;
        prop_assert_eq!(
            mem.probe_range(addr, len, true, false),
            probe_range_ref(&mem, addr, len, true, false)
        );
        prop_assert_eq!(
            mem.find_nul(addr, u32::MAX, false),
            find_nul_ref(&mem, addr, u32::MAX, false)
        );
        prop_assert_eq!(
            mem.find_nul(addr, back_off, false),
            find_nul_ref(&mem, addr, back_off, false)
        );
    }

    /// The 32-byte-chunk NUL scan with its chunk machinery deliberately
    /// stressed: starts at every misalignment within a chunk, the NUL
    /// placed anywhere from the first wide chunk through the 8-byte
    /// word tail into the byte tail, and budgets landing on every
    /// offset within a chunk. The byte loop is the oracle throughout.
    #[test]
    fn wide_nul_scan_matches_at_every_chunk_offset(
        misalign in 0u32..32,
        has_nul in any::<bool>(),
        nul_pos in 0u32..96,
        budget_in_chunk in 0u32..64,
        budget_chunks in 0u32..3,
        write in any::<bool>(),
    ) {
        let mut mem = AddressSpace::new();
        let base = 0x20_000;
        mem.map(base, 2 * PAGE_SIZE, Protection::ReadWrite);
        for off in 0..(2 * PAGE_SIZE) {
            mem.write_u8(base + off, 0x41).unwrap();
        }
        let start = base + misalign;
        let nul_at = has_nul.then_some(nul_pos);
        if let Some(n) = nul_at {
            mem.write_u8(start + n, 0).unwrap();
        }
        let budget = budget_chunks * 32 + budget_in_chunk;
        prop_assert_eq!(
            mem.find_nul(start, budget, write),
            find_nul_ref(&mem, start, budget, write),
            "find_nul(+{}, {}, {}) with NUL at {:?} disagrees with byte loop",
            misalign, budget, write, nul_at
        );
    }

    /// The pinned zero-length / no-access `probe_range` contract:
    /// vacuously true at any address — mapped, unmapped, guard page,
    /// or the very top of the address space — because a probe that
    /// examines no byte asserts nothing.
    #[test]
    fn zero_length_probes_hold_anywhere(
        layout in layout_strategy(),
        start_off in 0u32..40_000,
        read in any::<bool>(),
        write in any::<bool>(),
        len in 0u32..40_000,
    ) {
        let (mem, base, span) = layout;
        let addr = (base - PAGE_SIZE.min(base)) + start_off % (span + 2 * PAGE_SIZE);
        prop_assert!(mem.probe_range(addr, 0, read, write));
        prop_assert!(mem.probe_range(u32::MAX, 0, read, write));
        // No access requested: true for any length, even one whose
        // range would run past the top of the address space.
        prop_assert!(mem.probe_range(addr, len, false, false));
        prop_assert!(mem.probe_range(u32::MAX, len, false, false));
        prop_assert_eq!(
            mem.probe_range(addr, len, false, false),
            probe_range_ref(&mem, addr, len, false, false)
        );
    }

    /// Live heap blocks never overlap, in either placement mode.
    #[test]
    fn live_blocks_never_overlap(
        sizes in prop::collection::vec(0u32..6000, 1..24),
        guarded in any::<bool>(),
    ) {
        let mut mem = AddressSpace::new();
        let mode = if guarded { HeapMode::Guarded } else { HeapMode::Packed };
        let mut heap = Heap::new(0x1000_0000, 0x4000_0000, mode);
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        for size in sizes {
            let base = heap.malloc(&mut mem, size).unwrap();
            for &(b, s) in &blocks {
                let a_end = u64::from(base) + u64::from(size.max(1));
                let b_end = u64::from(b) + u64::from(s.max(1));
                prop_assert!(
                    a_end <= u64::from(b) || b_end <= u64::from(base),
                    "blocks ({base:#x},{size}) and ({b:#x},{s}) overlap"
                );
            }
            blocks.push((base, size));
        }
    }

    /// In guarded mode every block's last byte is accessible and the
    /// byte after it faults at exactly that address.
    #[test]
    fn guarded_blocks_fault_precisely(size in 1u32..9000) {
        let mut mem = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 0x4000_0000, HeapMode::Guarded);
        let base = heap.malloc(&mut mem, size).unwrap();
        prop_assert!(mem.write_u8(base + size - 1, 0xAB).is_ok());
        let fault = mem.read_u8(base + size).unwrap_err();
        prop_assert_eq!(fault.segv_addr(), Some(base + size));
    }

    /// Whatever bytes are written are read back, and byte-granular
    /// faults never corrupt neighboring data.
    #[test]
    fn write_read_roundtrip(
        offset in 0u32..(PAGE_SIZE * 2 - 64),
        data in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut mem = AddressSpace::new();
        mem.map(0x8000, PAGE_SIZE * 2, Protection::ReadWrite);
        mem.write_bytes(0x8000 + offset, &data).unwrap();
        prop_assert_eq!(mem.read_bytes(0x8000 + offset, data.len() as u32).unwrap(), data);
    }

    /// free() then re-malloc never hands out a region overlapping a
    /// still-live block, and double frees are always caught.
    #[test]
    fn free_is_caught_exactly_once(sizes in prop::collection::vec(1u32..512, 2..12)) {
        let mut mem = AddressSpace::new();
        let mut heap = Heap::new(0x1000_0000, 0x4000_0000, HeapMode::Packed);
        let blocks: Vec<u32> = sizes.iter().map(|s| heap.malloc(&mut mem, *s).unwrap()).collect();
        for &b in &blocks {
            prop_assert!(heap.free(&mut mem, b).is_ok());
            prop_assert!(heap.free(&mut mem, b).is_err());
        }
    }

    /// The fuel budget makes every loop terminate: a cstr read over
    /// non-NUL memory exhausts its fuel before escaping the region.
    #[test]
    fn fuel_bounds_unterminated_scans(budget in 1u64..4000) {
        let mut proc = SimProcess::new();
        proc.set_fuel_budget(budget);
        // A large non-NUL region in the statics.
        let addr = proc.static_alloc(4096);
        for i in 0..4096 {
            proc.mem.write_u8(addr + i, 0x41).unwrap();
        }
        let r = proc.read_cstr(addr);
        prop_assert!(r.is_err());
    }

    /// Cloned processes are fully independent (fault containment).
    #[test]
    fn clone_isolation(writes in prop::collection::vec((0u32..4096, any::<u8>()), 1..32)) {
        let mut parent = SimProcess::new();
        let base = parent.heap_alloc(4096).unwrap();
        let mut child = parent.clone();
        for (off, byte) in &writes {
            child.mem.write_u8(base + off, *byte).unwrap();
        }
        for (off, _) in &writes {
            prop_assert_eq!(parent.mem.read_u8(base + off).unwrap(), 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential containment: the copy-on-write snapshot must be
// observationally *equal* to the deep-clone reference it replaced. Both
// mechanisms run the same random op sequence — mapping, protection
// changes, heap traffic, reads, writes, faults, nested re-snapshots —
// and must produce the same per-op results (including exact fault
// addresses), a bit-identical final child image, and an untouched
// parent.

/// A window of pages private to the differential test, below the
/// statics and well away from heap/stack, with a guard page either side.
const DIFF_BASE: u32 = 0x0009_0000;
const DIFF_PAGES: u32 = 6;

/// Build the seeded parent both mechanisms start from: one mapped
/// pattern page in the window plus one live heap block.
fn diff_parent() -> (healers_simproc::SimProcess, Vec<u32>) {
    use healers_simproc::SimProcess;
    let mut parent = SimProcess::new();
    parent.mem.map(DIFF_BASE, PAGE_SIZE, Protection::ReadWrite);
    for off in 0..PAGE_SIZE {
        parent
            .mem
            .write_u8(DIFF_BASE + off, (off % 251) as u8)
            .unwrap();
    }
    let seed_block = parent.heap_alloc(512).unwrap();
    parent.mem.write_bytes(seed_block, &[0xAA; 64]).unwrap();
    (parent, vec![seed_block])
}

/// Interpret one raw op triple against the child image, appending the
/// op's full observable outcome (values, heap errors, faults with their
/// exact addresses) to the observation log.
fn diff_apply(
    child: &mut healers_simproc::SimProcess,
    deep: bool,
    blocks: &mut Vec<u32>,
    op: (u8, u32, u32),
    obs: &mut String,
) {
    use healers_simproc::WorldSnapshot;
    use std::fmt::Write as _;
    let (sel, a, b) = op;
    // Addresses biased to straddle the window's guard pages.
    let addr = (DIFF_BASE - PAGE_SIZE) + a % ((DIFF_PAGES + 2) * PAGE_SIZE);
    match sel % 8 {
        0 => {
            let page = DIFF_BASE + (a % DIFF_PAGES) * PAGE_SIZE;
            child.mem.map(page, PAGE_SIZE, Protection::ReadWrite);
            let _ = writeln!(obs, "map {page:#x}");
        }
        1 => {
            let page = DIFF_BASE + (a % DIFF_PAGES) * PAGE_SIZE;
            let prot = match b % 4 {
                0 => Protection::ReadWrite,
                1 => Protection::ReadOnly,
                2 => Protection::WriteOnly,
                _ => Protection::None,
            };
            child.mem.protect(page, PAGE_SIZE, prot);
            let _ = writeln!(obs, "protect {page:#x} {prot:?}");
        }
        2 => {
            let r = child.heap_alloc(b % 6000);
            if let Ok(base) = r {
                blocks.push(base);
            }
            let _ = writeln!(obs, "alloc -> {r:?}");
        }
        3 => {
            // Free a tracked block (possibly already freed) or a wild
            // address — both error paths must agree too.
            let target = if blocks.is_empty() || b % 4 == 0 {
                addr
            } else {
                blocks[a as usize % blocks.len()]
            };
            let r = child.heap_free(target);
            let _ = writeln!(obs, "free {target:#x} -> {r:?}");
        }
        4 => {
            let r = child.mem.write_u8(addr, b as u8);
            let _ = writeln!(obs, "write {addr:#x} -> {r:?}");
        }
        5 => {
            let r = child.mem.read_u8(addr);
            let _ = writeln!(obs, "read {addr:#x} -> {r:?}");
        }
        6 => {
            // A multi-byte write spanning a page edge: partial-progress
            // semantics must match exactly.
            let data: Vec<u8> = (0..(b % 96) as u8).collect();
            let r = child.mem.write_bytes(addr, &data);
            let _ = writeln!(obs, "write_bytes {addr:#x}+{} -> {r:?}", data.len());
        }
        _ => {
            // Re-snapshot mid-sequence: CoW chains snapshots of
            // snapshots, the reference chains deep copies.
            *child = if deep {
                child.deep_clone()
            } else {
                child.snapshot()
            };
            let _ = writeln!(obs, "resnapshot");
        }
    }
}

/// Bit-exact dump of everything an image can observe: protection and
/// bytes of every window page (guards included) and the head of every
/// heap block the sequence ever allocated.
fn diff_dump(proc: &healers_simproc::SimProcess, blocks: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for page in 0..DIFF_PAGES + 2 {
        let base = DIFF_BASE - PAGE_SIZE + page * PAGE_SIZE;
        let _ = writeln!(out, "page {base:#x}: {:?}", proc.mem.protection_at(base));
        let _ = writeln!(out, "  {:?}", proc.mem.read_bytes(base, PAGE_SIZE));
    }
    for &block in blocks {
        let _ = writeln!(
            out,
            "block {block:#x}: {:?}",
            proc.mem.read_bytes(block, 64)
        );
    }
    out
}

/// Run the whole sequence under one containment mechanism; returns the
/// op-by-op observation log, the final child dump, and the parent dump.
fn diff_run(ops: &[(u8, u32, u32)], deep: bool) -> (String, String, String) {
    use healers_simproc::WorldSnapshot;
    let (parent, seed_blocks) = diff_parent();
    let mut child = if deep {
        parent.deep_clone()
    } else {
        parent.snapshot()
    };
    let mut blocks = seed_blocks;
    let mut obs = String::new();
    for op in ops {
        diff_apply(&mut child, deep, &mut blocks, *op, &mut obs);
    }
    let child_dump = diff_dump(&child, &blocks);
    let parent_dump = diff_dump(&parent, &blocks);
    (obs, child_dump, parent_dump)
}

// ---------------------------------------------------------------------------
// Snapshot-boundary properties the sequence fuzzer's coverage signal
// rests on: fault provenance must be a property of the *world image*,
// not of the snapshot generation it is resolved in, and the stateful
// queries the wrapper uses (`block_containing`, `probe_range`) must
// answer identically on both sides of a snapshot → fault → rollback
// cycle.

/// Hostile probe addresses biased around the edges of real blocks:
/// in-bounds, one-past-end (guard page in guarded mode), far overruns,
/// and underruns.
fn hostile_addrs(blocks: &[u32], offsets: &[u32]) -> Vec<u32> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, off)| {
            blocks[i % blocks.len()]
                .wrapping_add(*off)
                .wrapping_sub(PAGE_SIZE)
        })
        .collect()
}

proptest! {
    /// Coverage sites survive snapshot → fault → rollback: a hostile
    /// access resolved inside a CoW child yields the same address-free
    /// [`CoverageSite`] as resolving the same address against the
    /// parent, on every round, and the parent's own resolution is
    /// unchanged after each child is rolled away. This is what makes
    /// the fuzzer's coverage map meaningful: a site recorded in one
    /// containment child deduplicates against the same crash found in
    /// any other.
    #[test]
    fn coverage_sites_survive_snapshot_fault_rollback(
        sizes in prop::collection::vec(1u32..512, 1..8),
        free_mask in any::<u8>(),
        offsets in prop::collection::vec(0u32..(2 * PAGE_SIZE), 1..16),
        write in any::<bool>(),
        rounds in 1usize..4,
    ) {
        use healers_simproc::{AccessKind, FaultSite, WorldSnapshot};
        let mut parent = SimProcess::new_guarded();
        let blocks: Vec<u32> =
            sizes.iter().map(|s| parent.heap_alloc(*s).unwrap()).collect();
        for (i, &b) in blocks.iter().enumerate() {
            if free_mask & (1 << (i % 8)) != 0 {
                parent.heap_free(b).unwrap();
            }
        }
        let access = if write { AccessKind::Write } else { AccessKind::Read };
        let addrs = hostile_addrs(&blocks, &offsets);
        let baseline: Vec<_> = addrs
            .iter()
            .map(|&a| FaultSite::resolve_addr(a, access, &parent).coverage_site())
            .collect();
        for round in 0..rounds {
            let child = parent.snapshot();
            for (&a, expect) in addrs.iter().zip(&baseline) {
                // The real fault path where the access actually traps,
                // and the direct resolution path, must agree with the
                // parent baseline.
                let attempted = if write {
                    let mut probe = child.snapshot();
                    probe.mem.write_u8(a, 0xEE).err()
                } else {
                    child.mem.read_u8(a).err()
                };
                if let Some(site) =
                    attempted.as_ref().and_then(|f| FaultSite::resolve(f, &child))
                {
                    prop_assert_eq!(
                        site.coverage_site(), *expect,
                        "trapped site diverged in round {} at {:#x}", round, a
                    );
                }
                prop_assert_eq!(
                    FaultSite::resolve_addr(a, access, &child).coverage_site(),
                    *expect,
                    "child resolution diverged in round {} at {:#x}", round, a
                );
            }
            drop(child); // rollback
            for (&a, expect) in addrs.iter().zip(&baseline) {
                prop_assert_eq!(
                    FaultSite::resolve_addr(a, access, &parent).coverage_site(),
                    *expect,
                    "rollback changed the parent's site for {:#x}", a
                );
            }
        }
    }

    /// `block_containing` and `probe_range` at the snapshot boundary:
    /// a fresh child answers exactly like its parent, and arbitrary
    /// child heap traffic (allocs, frees, double frees) leaves the
    /// parent's answers bit-identical once the child is rolled away.
    #[test]
    fn heap_and_probe_queries_agree_across_snapshot_boundaries(
        sizes in prop::collection::vec(1u32..2048, 1..10),
        child_ops in prop::collection::vec((any::<bool>(), 0u32..4096), 0..16),
        offsets in prop::collection::vec(0u32..(2 * PAGE_SIZE), 1..16),
        lens in prop::collection::vec(1u32..256, 1..16),
    ) {
        use healers_simproc::WorldSnapshot;
        let mut parent = SimProcess::new_guarded();
        let blocks: Vec<u32> =
            sizes.iter().map(|s| parent.heap_alloc(*s).unwrap()).collect();
        let addrs = hostile_addrs(&blocks, &offsets);
        let query = |p: &SimProcess| -> Vec<String> {
            addrs
                .iter()
                .zip(lens.iter().cycle())
                .map(|(&a, &len)| {
                    format!(
                        "{:#x}: {:?} r={} rw={}",
                        a,
                        p.heap.block_containing(a),
                        p.mem.probe_range(a, len, true, false),
                        p.mem.probe_range(a, len, true, true),
                    )
                })
                .collect()
        };
        let before = query(&parent);
        let mut child = parent.snapshot();
        prop_assert_eq!(
            query(&child), before.clone(),
            "a fresh snapshot answers differently from its parent"
        );
        let mut child_blocks = blocks.clone();
        for &(do_alloc, v) in &child_ops {
            if do_alloc {
                if let Ok(b) = child.heap_alloc(v) {
                    child_blocks.push(b);
                }
            } else if !child_blocks.is_empty() {
                let target = child_blocks[v as usize % child_blocks.len()];
                let _ = child.heap_free(target); // double frees included
            }
        }
        drop(child); // rollback
        prop_assert_eq!(
            query(&parent), before,
            "child heap traffic leaked across the rollback boundary"
        );
    }
}

proptest! {
    /// Differential: for any op sequence, CoW snapshots and deep clones
    /// yield the same per-op outcomes, a bit-identical final memory
    /// image, and a parent identical to one that never had a child.
    #[test]
    fn cow_and_deep_clone_children_are_bit_identical(
        ops in prop::collection::vec(
            (any::<u8>(), 0u32..0xffff_ffff, 0u32..0xffff_ffff),
            0..48,
        ),
    ) {
        let (obs_cow, child_cow, parent_cow) = diff_run(&ops, false);
        let (obs_deep, child_deep, parent_deep) = diff_run(&ops, true);
        prop_assert_eq!(obs_cow, obs_deep, "op outcomes diverged");
        prop_assert_eq!(child_cow, child_deep, "final child images diverged");
        prop_assert_eq!(&parent_cow, &parent_deep, "parent images diverged");
        // The parent is bit-identical to one that never spawned a child.
        let (pristine, seed_blocks) = diff_parent();
        let all_blocks: Vec<u32> = {
            // Re-derive the block list the dumps used: replay allocations
            // against a throwaway deep clone.
            let mut child = pristine.deep_clone();
            let mut blocks = seed_blocks;
            let mut obs = String::new();
            for op in &ops {
                diff_apply(&mut child, true, &mut blocks, *op, &mut obs);
            }
            blocks
        };
        prop_assert_eq!(parent_cow, diff_dump(&pristine, &all_blocks), "child leaked into parent");
    }
}
