//! Bit-flip fault injection — the paper's §9 future work ("we plan to
//! evaluate the robustness of our system using other types of fault
//! injection techniques (e.g. bit-flips)"), implemented as an
//! additional evaluation mode.
//!
//! Starting from a *valid* call (every argument drawn from the ordinary
//! pool values), each campaign flips exactly one bit of one argument
//! word and executes the corrupted call — once directly against the
//! library and once through a wrapper. This models the classic
//! hardware-fault / wild-store scenario rather than Ballista's
//! exceptional-input scenario: the corrupted values are *near misses*
//! (a pointer one page off, a count with a high bit set), which is a
//! different, and in some ways harsher, regime for argument checking.

use healers_core::RobustnessWrapper;
use healers_libc::Libc;
use healers_simproc::SimValue;

use crate::pools::{param_kind, Pools};
use crate::report::BallistaReport;
use crate::runner::PreparedMode;

/// Flip bit `bit` of an argument value (pointers and integers flip in
/// their 32-bit machine representation; doubles in their low word).
fn flip(value: SimValue, bit: u32) -> SimValue {
    match value {
        SimValue::Ptr(p) => SimValue::Ptr(p ^ (1 << bit)),
        SimValue::Int(i) => SimValue::Int(i64::from((i as u32 ^ (1 << bit)) as i32)),
        SimValue::Double(d) => SimValue::Double(f64::from_bits(d.to_bits() ^ (1u64 << bit))),
        SimValue::Void => SimValue::Void,
    }
}

/// A valid baseline argument vector for `name`, drawn from the pools'
/// ordinary values.
fn baseline(libc: &Libc, pools: &Pools, name: &str) -> Vec<SimValue> {
    libc.get(name)
        .expect("target function")
        .proto
        .params
        .iter()
        .map(|p| {
            pools
                .for_kind(param_kind(p))
                .iter()
                .find(|v| v.valid)
                .expect("every pool has a valid value")
                .value
        })
        .collect()
}

/// Run the bit-flip campaign for a set of functions under one
/// configuration (`wrapper = None` for the unwrapped library). Every
/// single-bit corruption of every argument of every function is one
/// test, contained as a Ballista test is.
pub fn run_bitflip(
    libc: &Libc,
    functions: &[&str],
    wrapper: Option<RobustnessWrapper>,
    label: &str,
) -> BallistaReport {
    let prepared = PreparedMode::new(libc, "bit-flip", wrapper);
    let mut report = BallistaReport::new(label);
    for name in functions {
        let base = baseline(libc, &prepared.pools, name);
        for arg in 0..base.len() {
            for bit in 0..32u32 {
                let mut args = base.clone();
                args[arg] = flip(args[arg], bit);
                report.record(name, prepared.run_test(libc, name, &args).class);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_core::{analyze, WrapperBuilder, WrapperConfig};

    #[test]
    fn flip_is_an_involution() {
        for bit in [0u32, 7, 31] {
            for v in [
                SimValue::Ptr(0x1234_5678),
                SimValue::Int(-17),
                SimValue::Double(2.5),
            ] {
                assert_eq!(flip(flip(v, bit), bit), v);
                assert_ne!(flip(v, bit), v);
            }
        }
        assert_eq!(flip(SimValue::Void, 3), SimValue::Void);
    }

    #[test]
    fn wrapper_reduces_bitflip_crashes() {
        let libc = Libc::standard();
        let functions = ["strlen", "asctime", "mktime", "fgetc"];
        let unwrapped = run_bitflip(&libc, &functions, None, "unwrapped");
        let decls = analyze(&libc, &functions);
        let wrapper = WrapperBuilder::new()
            .decls(decls)
            .config(WrapperConfig::full_auto())
            .build();
        let wrapped = run_bitflip(&libc, &functions, Some(wrapper), "wrapped");

        let u = unwrapped.totals();
        let w = wrapped.totals();
        assert_eq!(u.tests, w.tests);
        assert!(
            u.failures() > 0,
            "bit flips must crash the bare library: {u:?}"
        );
        assert!(
            w.failures() * 4 <= u.failures(),
            "wrapper should prevent most bit-flip crashes: {} -> {}",
            u.failures(),
            w.failures()
        );
    }

    #[test]
    fn high_bit_pointer_flips_are_caught() {
        // Flipping bit 31 of a valid heap pointer lands far outside any
        // mapping — the easiest case for the checks, the deadliest for
        // the bare library.
        let libc = Libc::standard();
        let unwrapped = run_bitflip(&libc, &["strlen"], None, "unwrapped");
        assert!(unwrapped.function("strlen").unwrap().failures() > 8);
    }
}
