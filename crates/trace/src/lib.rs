//! healers-trace — the unified telemetry core.
//!
//! The pipeline's instrumentation used to be three disconnected pieces:
//! `WrapperStats` counters in the wrapper, the JSONL journal in
//! healers-campaign, and raw fault values in simproc. This crate is the
//! shared layer under all of them:
//!
//! * [`hist`] — fixed log2-bucket latency [`Histogram`]s: 64 buckets,
//!   constant memory, mergeable, with percentile queries;
//! * [`chrome`] — a [`ChromeTrace`] builder emitting trace-event JSON
//!   loadable in `chrome://tracing` / Perfetto;
//! * [`json`] — the workspace's hand-rolled JSON emitter and
//!   validating parser (moved here from healers-campaign so every
//!   exporter shares one implementation);
//! * [`metrics`] — a process-global [`MetricsRegistry`] of named
//!   counters; it holds only the campaign's progress counters, which
//!   the `healers campaign --progress` heartbeat samples;
//! * [`recorder`] — the fault [`FlightRecorder`]: a fixed-capacity
//!   ring buffer of recent structured events (check failures, injected
//!   faults, frame errors, queue sheds), snapshotted on crashes and
//!   attached to `healers explain`.
//!
//! # The gate
//!
//! Telemetry that costs anything on a hot path is switched by one
//! process-global atomic: instrumentation sites call [`enabled`] —
//! a single `Relaxed` load — and skip all collection work when it is
//! off. Counters that are plain integer increments stay unconditional;
//! only clock reads, allocations, and histogram updates hide behind
//! the gate. The crate has no dependencies, so any layer of the
//! workspace can use it.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod recorder;

use std::sync::atomic::{AtomicBool, Ordering};

pub use chrome::ChromeTrace;
pub use hist::Histogram;
pub use metrics::{Counter, MetricsRegistry};
pub use recorder::{FlightEvent, FlightRecorder};

/// The process-global telemetry gate. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is telemetry collection switched on? One relaxed atomic load — the
/// entire disabled-mode cost at an instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch telemetry collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_defaults_off_and_toggles() {
        // Other tests in this binary do not touch the gate, so the
        // default is observable here.
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
