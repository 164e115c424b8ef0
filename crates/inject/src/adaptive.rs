//! Adaptive array sizing (§4.1) in O(log n) contained calls.
//!
//! The injector passes a read-write array that ends flush against a
//! guard page. A call that faults in that guard page, `f` bytes past
//! the array's start, needs at least `f + 1` bytes. The paper grows the
//! array "until no more segmentation faults occur": grow it to exactly
//! `f + 1` bytes and call again. That walk costs one call per distinct
//! fault offset, so a sequential access costs one call per byte (4 096
//! calls for `fwrite`).
//!
//! [`search`] ends on the walk's size in O(log n) calls. It relies on
//! one property: if a size faults past the end at `f`, every size up to
//! `f` faults too. That holds whenever the call touches the same offsets
//! whatever the array's size (prefix-stable access). Under it the walk
//! ends on the smallest size that does not fault past the end, and so
//! does the search. `INV-ADAPTIVE-MIN` (the crate's tests) checks that
//! both give the same declarations and records for every export of the
//! standard library.

use crate::generators::MAX_ADAPTIVE_SIZE;
use crate::injector::MAX_RETRIES_PER_CASE;

/// What one call on an adaptive array of a given size showed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The call faulted in the guard page past the array's end. Covering
    /// the fault takes `needs` bytes, always more than the probed size.
    PastEnd {
        /// Fault offset from the array's start, plus one.
        needs: u32,
    },
    /// Anything else: the call returned, or failed in a way that growing
    /// the array cannot fix.
    Stopped,
}

/// The probe a sizing run ended on.
#[derive(Debug)]
pub(crate) struct Found<T> {
    /// The array size of the recorded probe.
    pub(crate) size: u32,
    /// That probe's own result (not a re-run).
    pub(crate) record: T,
    /// Calls made, the recorded one included.
    pub(crate) probes: usize,
}

/// Find the smallest array size at which `probe` stops faulting past
/// the end, and keep that probe's result.
///
/// Gallop from size 0: while a probe faults past the end, the next size
/// is `max(needs, 2 × size)`. Then bisect between the largest faulting
/// size and the first that stopped. Every faulting probe raises the
/// lower bound to its `needs`, the size the walk would jump to.
///
/// The caps keep their walk meaning. The walk gives up on the probe in
/// hand once it has grown the array [`MAX_RETRIES_PER_CASE`] times, or
/// once a fault needs more than [`MAX_ADAPTIVE_SIZE`] bytes. Each growth
/// adds at least one byte, so the walk reaches any answer of at most
/// `MAX_RETRIES_PER_CASE` bytes. Past that, the probe the walk gave up
/// on depends on how many distinct fault offsets lie below it, and only
/// following the faults from size 0 counts them. No export of the
/// standard library needs that.
pub(crate) fn search<T>(mut probe: impl FnMut(u32) -> (Probe, T)) -> Found<T> {
    let mut probes = 0usize;
    // Every size below `lo` faults past the end.
    let mut lo = 0u32;
    let mut size = 0u32;
    let mut stopped = None;
    while lo <= MAX_ADAPTIVE_SIZE {
        probes += 1;
        match probe(size) {
            (Probe::Stopped, record) => {
                stopped = Some((size, record));
                break;
            }
            (Probe::PastEnd { needs }, _) => {
                debug_assert!(needs > size, "a fault past the end needs more bytes");
                lo = lo.max(needs);
                size = needs.max(size.saturating_mul(2)).min(MAX_ADAPTIVE_SIZE);
            }
        }
    }
    if let Some((mut hi, mut record)) = stopped {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match probe(mid) {
                (Probe::Stopped, r) => (hi, record) = (mid, r),
                (Probe::PastEnd { needs }, _) => lo = lo.max(needs),
            }
        }
        if hi as usize <= MAX_RETRIES_PER_CASE {
            return Found {
                size: hi,
                record,
                probes,
            };
        }
    }
    let followed = follow_faults(probe);
    Found {
        probes: probes + followed.probes,
        ..followed
    }
}

/// Grow to each fault's `needs` from size 0 until a probe stops or a cap
/// is hit: the only way to tell which probe the walk gave up on.
fn follow_faults<T>(mut probe: impl FnMut(u32) -> (Probe, T)) -> Found<T> {
    let mut size = 0u32;
    let mut probes = 0usize;
    loop {
        probes += 1;
        match probe(size) {
            (Probe::PastEnd { needs }, _)
                if probes <= MAX_RETRIES_PER_CASE && needs <= MAX_ADAPTIVE_SIZE =>
            {
                size = needs;
            }
            (_, record) => {
                return Found {
                    size,
                    record,
                    probes,
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's walk, the oracle the search is held to: grow the
    /// array to each past-the-end fault's `needs` and call again, giving
    /// up after `MAX_RETRIES_PER_CASE` growths or when a fault needs more
    /// than `MAX_ADAPTIVE_SIZE` bytes.
    pub(crate) fn walk<T>(mut probe: impl FnMut(u32) -> (Probe, T)) -> Found<T> {
        let mut size = 0u32;
        let mut retries = 0usize;
        loop {
            let (p, record) = probe(size);
            if let Probe::PastEnd { needs } = p {
                if retries < MAX_RETRIES_PER_CASE && needs <= MAX_ADAPTIVE_SIZE {
                    size = needs;
                    retries += 1;
                    continue;
                }
            }
            return Found {
                size,
                record,
                probes: retries + 1,
            };
        }
    }

    /// A synthetic call that touches `offsets` in order and faults on the
    /// first one the array does not cover. The record is the probed size.
    fn touching(offsets: &[u32]) -> impl FnMut(u32) -> (Probe, u32) + '_ {
        move |size| match offsets.iter().find(|&&o| o >= size) {
            Some(&o) => (Probe::PastEnd { needs: o + 1 }, size),
            None => (Probe::Stopped, size),
        }
    }

    /// Run the search and the walk on one probe; both must end on the
    /// same size with the record of a probe at that size. Returns the
    /// search's result.
    fn agrees(mut probe: impl FnMut(u32) -> (Probe, u32)) -> Found<u32> {
        let walked = walk(&mut probe);
        let found = search(&mut probe);
        assert_eq!(found.size, walked.size);
        assert_eq!(found.record, found.size, "kept a probe at another size");
        assert_eq!(walked.record, walked.size);
        found
    }

    #[test]
    fn monotone_threshold() {
        // asctime-like: a sequential read of 44 bytes.
        let offsets: Vec<u32> = (0..44).collect();
        let found = agrees(touching(&offsets));
        assert_eq!(found.size, 44);
        assert!(found.probes <= 16, "{} probes", found.probes);
        // fwrite-like: 4 096 bytes, sequentially.
        let offsets: Vec<u32> = (0..4096).collect();
        let found = agrees(touching(&offsets));
        assert_eq!(found.size, 4096);
        assert!(found.probes <= 30, "{} probes", found.probes);
    }

    #[test]
    fn faults_that_jump_ahead() {
        // Prefix-stable but sparse: every 7th byte, then a far field.
        let mut offsets: Vec<u32> = (0..300).step_by(7).collect();
        offsets.push(3000);
        let found = agrees(touching(&offsets));
        assert_eq!(found.size, 3001);
        // A single far access is one jump for both.
        let found = agrees(touching(&[999]));
        assert_eq!((found.size, found.probes), (1000, 2));
    }

    #[test]
    fn size_zero_already_stops() {
        let found = agrees(touching(&[]));
        assert_eq!((found.size, found.probes), (0, 1));
    }

    #[test]
    fn threshold_of_exactly_one() {
        let found = agrees(touching(&[0]));
        assert_eq!((found.size, found.probes), (1, 2));
    }

    #[test]
    fn never_stopping_gives_up_where_the_walk_does() {
        // One byte past the end, whatever the size: the walk runs out of
        // retries at MAX_RETRIES_PER_CASE bytes.
        let one_past = |size: u32| (Probe::PastEnd { needs: size + 1 }, size);
        let found = agrees(one_past);
        assert_eq!(found.size as usize, MAX_RETRIES_PER_CASE);
        // A page past the end: the walk gives up when a fault needs more
        // than MAX_ADAPTIVE_SIZE bytes, 16 growths in.
        let page_past = |size: u32| (Probe::PastEnd { needs: size + 4096 }, size);
        let found = agrees(page_past);
        assert_eq!(found.size, MAX_ADAPTIVE_SIZE);
        // The very first fault needs too much: the walk keeps size 0.
        let far = |size: u32| {
            (
                Probe::PastEnd {
                    needs: MAX_ADAPTIVE_SIZE + 1,
                },
                size,
            )
        };
        let found = agrees(far);
        assert_eq!(found.size, 0);
        // A sequential access that would stop at 10 000 bytes: the walk
        // runs out of retries first, and so must the search.
        let offsets: Vec<u32> = (0..10_000).collect();
        let found = agrees(touching(&offsets));
        assert_eq!(found.size as usize, MAX_RETRIES_PER_CASE);
        // Sparse enough for the walk to get there: it stops at 10 000.
        let offsets: Vec<u32> = (0..10_000).step_by(100).chain([9_999]).collect();
        let found = agrees(touching(&offsets));
        assert_eq!(found.size, 10_000);
    }

    #[test]
    fn non_monotone_probe_returns_the_stop_above_the_gap() {
        // Stops at size 5 only, faults one byte past the end at every
        // other size below 64, stops from 64 on. The walk grows byte by
        // byte and ends on 5. The search gallops 0, 1, 2, 4, 8, 16, 32,
        // 64, takes the fault at 4 as proof that 0..=4 fault, and the
        // one at 8 as proof that 5..=8 fault too: it returns 64.
        let probe = |size: u32| {
            if size == 5 || size >= 64 {
                (Probe::Stopped, size)
            } else {
                (Probe::PastEnd { needs: size + 1 }, size)
            }
        };
        assert_eq!(walk(probe).size, 5);
        let found = search(probe);
        assert_eq!((found.size, found.record), (64, 64));
    }
}
