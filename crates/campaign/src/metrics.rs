//! Aggregate campaign accounting.

use std::fmt;
use std::time::Duration;

/// Totals across one campaign run, printed at the end and asserted on
/// by the warm-cache acceptance test (a warm run performs zero injected
/// calls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignMetrics {
    /// Functions processed.
    pub functions: u64,
    /// Declarations served from the persistent cache.
    pub cache_hits: u64,
    /// Declarations that required a fresh injection campaign.
    pub cache_misses: u64,
    /// Sandboxed injected calls performed (0 on a fully warm cache).
    pub injected_calls: u64,
    /// Adaptive retries performed.
    pub adaptive_retries: u64,
    /// Hang-detection fuel consumed across all injected calls.
    pub fuel_used: u64,
    /// Ballista evaluation tests executed (0 in declarations-only mode).
    pub evaluation_tests: u64,
    /// Copy-on-write world snapshots taken to contain sandboxed calls
    /// (0 when the deep-clone reference containment is selected).
    pub snapshots: u64,
    /// Pages reference-shared across those snapshots instead of copied.
    pub pages_shared: u64,
    /// Private page copies faulted in by contained calls (their dirty
    /// footprint).
    pub pages_copied: u64,
    /// Pages discarded when child images were rolled back. Every
    /// contained call here is run-and-discard, so this equals the dirty
    /// footprint — the restore cost is O(dirty pages), never O(world).
    pub pages_restored: u64,
    /// Worker threads used.
    pub jobs: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl CampaignMetrics {
    /// Fold another function's per-campaign contribution in.
    ///
    /// The exhaustive destructure (no `..`) is deliberate: adding a
    /// field to [`CampaignMetrics`] without deciding how it aggregates
    /// must be a compile error here, not a silently dropped counter.
    pub fn absorb(&mut self, other: &CampaignMetrics) {
        let CampaignMetrics {
            functions,
            cache_hits,
            cache_misses,
            injected_calls,
            adaptive_retries,
            fuel_used,
            evaluation_tests,
            snapshots,
            pages_shared,
            pages_copied,
            pages_restored,
            // Run-level properties, not per-function contributions: the
            // worker count is fixed by the orchestrator and wall time is
            // stamped once at the end of the run.
            jobs: _,
            elapsed: _,
        } = other;
        self.functions += functions;
        self.cache_hits += cache_hits;
        self.cache_misses += cache_misses;
        self.injected_calls += injected_calls;
        self.adaptive_retries += adaptive_retries;
        self.fuel_used += fuel_used;
        self.evaluation_tests += evaluation_tests;
        self.snapshots += snapshots;
        self.pages_shared += pages_shared;
        self.pages_copied += pages_copied;
        self.pages_restored += pages_restored;
    }

    /// Fold one sandbox containment delta in (injection or evaluation).
    pub fn absorb_cow(&mut self, cow: &healers_simproc::CowStats) {
        self.snapshots += cow.snapshots;
        self.pages_shared += cow.pages_shared;
        self.pages_copied += cow.pages_copied;
        // Every sandboxed call in a campaign discards its child image,
        // so the pages restored (freed at rollback) are exactly the
        // private copies the child faulted in.
        self.pages_restored += cow.pages_copied;
    }
}

impl fmt::Display for CampaignMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign: {} functions | cache {} hit / {} miss | {} injected calls | \
             {} adaptive retries | {} fuel | {} evaluation tests | \
             cow {} snapshots / {} shared / {} copied / {} restored | {} jobs | {:.2}s",
            self.functions,
            self.cache_hits,
            self.cache_misses,
            self.injected_calls,
            self.adaptive_retries,
            self.fuel_used,
            self.evaluation_tests,
            self.snapshots,
            self.pages_shared,
            self.pages_copied,
            self.pages_restored,
            self.jobs,
            self.elapsed.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_folds_every_counter_and_skips_run_level_fields() {
        // One distinct prime per counter so a cross-wired addition (or
        // a counter absorbed twice) cannot cancel out.
        let contribution = CampaignMetrics {
            functions: 2,
            cache_hits: 3,
            cache_misses: 5,
            injected_calls: 7,
            adaptive_retries: 11,
            fuel_used: 13,
            evaluation_tests: 17,
            snapshots: 19,
            pages_shared: 23,
            pages_copied: 29,
            pages_restored: 31,
            jobs: 37,
            elapsed: Duration::from_secs(41),
        };
        let mut total = CampaignMetrics {
            jobs: 4,
            elapsed: Duration::from_secs(1),
            ..CampaignMetrics::default()
        };
        total.absorb(&contribution);
        total.absorb(&contribution);
        assert_eq!(
            total,
            CampaignMetrics {
                functions: 4,
                cache_hits: 6,
                cache_misses: 10,
                injected_calls: 14,
                adaptive_retries: 22,
                fuel_used: 26,
                evaluation_tests: 34,
                snapshots: 38,
                pages_shared: 46,
                pages_copied: 58,
                pages_restored: 62,
                // Run-level fields belong to the accumulator, not the
                // contributions.
                jobs: 4,
                elapsed: Duration::from_secs(1),
            }
        );
    }

    #[test]
    fn absorb_cow_equates_restored_with_copied() {
        let mut m = CampaignMetrics::default();
        m.absorb_cow(&healers_simproc::CowStats {
            snapshots: 2,
            pages_shared: 100,
            pages_copied: 7,
            table_clones: 3,
            table_entries_copied: 11,
        });
        assert_eq!(m.snapshots, 2);
        assert_eq!(m.pages_shared, 100);
        assert_eq!(m.pages_copied, 7);
        assert_eq!(m.pages_restored, 7);
    }
}
