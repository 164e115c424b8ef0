//! Process-global named counters: the live progress of a campaign.
//!
//! The wrapper's `WrapperStats` and the campaign's `CampaignMetrics`
//! are *session-scoped*: they answer "what happened in this run" after
//! the run ends. The serve daemon keeps its live counts apart, in one
//! `StatsHub` that its `Stats` request reads. The
//! [`MetricsRegistry`] is the live complement — a process-global table
//! of named counters that workers bump while an observer samples them.
//! Its one observer is the `healers campaign --progress` heartbeat,
//! which reads `campaign_analyzed_total`, `campaign_evaluated_total`
//! and `campaign_faults_total` while the workers run.
//!
//! # Cost model
//!
//! A [`Counter`] is one `AtomicU64`; incrementing it is a single
//! `Relaxed` `fetch_add`. Registration (name lookup) takes a lock, so
//! a caller that bumps a counter often resolves its `Arc<Counter>`
//! handle once and keeps it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing event counter. One relaxed atomic add
/// per event; safe to share across threads via `Arc`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named table of [`Counter`]s. Most code uses the process-wide
/// [`global`] instance; tests construct their own to stay isolated
/// from parallel tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register-or-get the counter named `name`. Takes a lock: call
    /// once and keep the `Arc` where a counter is bumped often.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }
}

/// The process-global registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_by_name() {
        let reg = MetricsRegistry::new();
        let b = reg.counter("b_total");
        let a = reg.counter("a_total");
        a.add(3);
        b.inc();
        // Register-or-get returns the same underlying counter.
        reg.counter("a_total").inc();
        assert_eq!(reg.counter("a_total").get(), 4);
        assert_eq!(reg.counter("b_total").get(), 1);
        assert_eq!(reg.counter("c_total").get(), 0);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let c = global().counter("test_metrics_global_singleton");
        let before = c.get();
        global().counter("test_metrics_global_singleton").inc();
        assert_eq!(c.get(), before + 1);
    }
}
