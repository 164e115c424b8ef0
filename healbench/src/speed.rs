//! The machine's speed, probed between steps of work, so that every
//! end-to-end timing can be scaled to one reference speed.
//!
//! On a shared host the speed of this kind of code — heap allocation,
//! string formatting, branches through many small functions — drifts by
//! up to 1.6× over tens of seconds, longer than a run, while a tight
//! arithmetic loop hardly moves. A step of work is bracketed by two
//! probes of a fixed reference loop of that kind, run on as many threads
//! at once as the step keeps busy. The step's slowdown is the mean probe
//! time over [`NOMINAL_MS`], and its time is divided by that slowdown (a
//! rate is multiplied by it). The probe is this crate's own code, so no
//! change to the system under test moves it.
//!
//! A serve round trip of a one-request frame is mostly two thread
//! hand-offs through a mutex and condition variable, whose cost the host
//! moves on its own. Those round trips are scaled by [`handoff`], the
//! same hand-off between two threads of this crate.

use std::hint::black_box;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Rounds of the reference loop per probe, about a millisecond.
const ROUNDS: u64 = 8000;

/// The probe's time at the reference speed. On a two-vCPU Intel Xeon
/// guest at 2.1 GHz the median probe of a run took 0.9 to 1.3 ms.
pub const NOMINAL_MS: f64 = 1.0;

/// Round trips of one [`handoff`] probe.
const HANDOFFS: u64 = 300;

/// A hand-off round trip's time at the reference speed. On the guest
/// above the median was 12 to 15 µs.
pub const HANDOFF_NOMINAL_US: f64 = 12.0;

/// One probe: the reference loop on `threads` threads at once, this one
/// among them; mean time in ms.
pub fn probe(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(reference)).collect();
        let mine = reference();
        let mut times: Vec<f64> = others
            .into_iter()
            .map(|h| h.join().expect("the reference loop does not panic"))
            .collect();
        times.push(mine);
        times
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The reference loop: format short strings, keep a few, drop the rest.
fn reference() -> f64 {
    let started = Instant::now();
    let mut kept: Vec<String> = Vec::with_capacity(128);
    for i in 0..black_box(ROUNDS) {
        let s = format!("sym_{i}_{}", i * 7);
        if s.contains("77") {
            kept.push(s);
        } else if kept.len() > 64 {
            kept.swap_remove((i % 64) as usize);
        }
    }
    black_box(&kept);
    started.elapsed().as_secs_f64() * 1e3
}

/// The mean round trip, in µs, of [`HANDOFFS`] hand-offs between this
/// thread and a helper: each side waits on a condition variable until the
/// other has bumped a shared counter.
pub fn handoff() -> f64 {
    let turn = (Mutex::new(0u64), Condvar::new());
    let wait_for = |want: u64| {
        let (count, changed) = &turn;
        let mut n = count.lock().expect("no hand-off side panics");
        while *n != want {
            n = changed.wait(n).expect("no hand-off side panics");
        }
        *n += 1;
        changed.notify_all();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| (0..HANDOFFS).for_each(|i| wait_for(2 * i + 1)));
        let started = Instant::now();
        (0..HANDOFFS).for_each(|i| wait_for(2 * i));
        let (count, changed) = &turn;
        let mut n = count.lock().expect("no hand-off side panics");
        while *n != 2 * HANDOFFS {
            n = changed.wait(n).expect("no hand-off side panics");
        }
        started.elapsed().as_secs_f64() * 1e6 / HANDOFFS as f64
    })
}

/// Probes chained between consecutive steps of work: each step is
/// bracketed by the probe before it and the probe after it.
pub struct Pace {
    threads: usize,
    last_ms: f64,
    /// Every probe so far, in ms.
    pub probes_ms: Vec<f64>,
}

impl Pace {
    /// Probe now, before the first step; every probe runs on `threads`
    /// threads.
    pub fn start(threads: usize) -> Pace {
        let last_ms = probe(threads);
        Pace {
            threads,
            last_ms,
            probes_ms: vec![last_ms],
        }
    }

    /// Probe afresh before a step, when something else ran since the
    /// last probe.
    pub fn restart(&mut self) {
        self.last_ms = probe(self.threads);
        self.probes_ms.push(self.last_ms);
    }

    /// Probe after a step; the step's slowdown against the reference
    /// speed, from the probes on either side of it.
    pub fn step(&mut self) -> f64 {
        let now = probe(self.threads);
        self.probes_ms.push(now);
        let slowdown = (self.last_ms + now) / 2.0 / NOMINAL_MS;
        self.last_ms = now;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_is_scaled_by_the_probes_on_either_side() {
        let mut pace = Pace::start(2);
        let slowdown = pace.step();
        let p = &pace.probes_ms;
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|ms| ms.is_finite() && *ms > 0.0));
        assert_eq!(slowdown, (p[0] + p[1]) / 2.0 / NOMINAL_MS);
        pace.restart();
        let slowdown = pace.step();
        let p = &pace.probes_ms;
        assert_eq!(p.len(), 4);
        assert_eq!(slowdown, (p[2] + p[3]) / 2.0 / NOMINAL_MS);
    }

    #[test]
    fn a_handoff_round_trip_takes_some_time() {
        let us = handoff();
        assert!(us.is_finite() && us > 0.0, "{us}");
    }
}
