//! `stdlib.h`: conversions, the allocator interface, and the environment.

use std::sync::Arc;

use healers_os::errno::{EINVAL, ENOMEM, ERANGE};
use healers_simproc::{Addr, SimFault, SimValue};

use crate::registry::CFuncImpl;
use crate::world::{int_arg, ptr_arg, World};

/// Name → implementation table for this module.
pub(crate) fn funcs() -> Vec<(&'static str, CFuncImpl)> {
    vec![
        ("atoi", atoi),
        ("atol", atoi), // long == int on the ILP32 target
        ("atoll", atoll),
        ("atof", atof),
        ("strtol", strtol),
        ("strtoul", strtoul),
        ("strtod", strtod),
        ("malloc", malloc),
        ("calloc", calloc),
        ("realloc", realloc),
        ("free", free),
        ("getenv", getenv),
        ("setenv", setenv),
        ("unsetenv", unsetenv),
        ("abs", abs_),
        ("labs", abs_),
        ("rand", rand_),
        ("srand", srand),
        ("rand_r", rand_r),
        ("abort", abort_),
    ]
}

/// Scan an integer literal at `s` (whitespace, sign, digits in `base`).
/// Returns `(value, bytes_consumed, overflowed)`.
fn scan_int(w: &mut World, s: Addr, base: u32) -> Result<(i64, u32, bool), SimFault> {
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if !b.is_ascii_whitespace() {
            break;
        }
        i += 1;
    }
    let mut negative = false;
    let sign_byte = w.proc.mem.read_u8(s.wrapping_add(i))?;
    if sign_byte == b'-' || sign_byte == b'+' {
        negative = sign_byte == b'-';
        i += 1;
    }
    // Auto-base: leading 0x → 16, leading 0 → 8.
    let mut base = base;
    if base == 0 {
        let b0 = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b0 == b'0' {
            let b1 = w.proc.mem.read_u8(s.wrapping_add(i + 1))?;
            if b1 == b'x' || b1 == b'X' {
                base = 16;
                i += 2;
            } else {
                base = 8;
                i += 1;
            }
        } else {
            base = 10;
        }
    } else if base == 16 {
        let b0 = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b0 == b'0' {
            let b1 = w.proc.mem.read_u8(s.wrapping_add(i + 1))?;
            if b1 == b'x' || b1 == b'X' {
                i += 2;
            }
        }
    }
    let mut value: i64 = 0;
    let mut digits = 0u32;
    let mut overflow = false;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        let Some(d) = (b as char).to_digit(base) else {
            break;
        };
        value = value
            .checked_mul(i64::from(base))
            .and_then(|v| v.checked_add(i64::from(d)))
            .unwrap_or_else(|| {
                overflow = true;
                i64::MAX
            });
        digits += 1;
        i += 1;
    }
    if digits == 0 {
        return Ok((0, 0, false));
    }
    Ok((if negative { -value } else { value }, i, overflow))
}

fn atoi(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (v, _, _) = scan_int(w, ptr_arg(args, 0), 10)?;
    Ok(SimValue::Int(v as i32 as i64))
}

fn atoll(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    // long long is 64-bit even on the ILP32 target: no truncation.
    let (v, _, _) = scan_int(w, ptr_arg(args, 0), 10)?;
    Ok(SimValue::Int(v))
}

/// Scan a float literal; returns `(value, bytes_consumed)`.
fn scan_float(w: &mut World, s: Addr) -> Result<(f64, u32), SimFault> {
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if !b.is_ascii_whitespace() {
            break;
        }
        i += 1;
    }
    let start = i;
    let mut text = String::new();
    let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
    if b == b'-' || b == b'+' {
        text.push(b as char);
        i += 1;
    }
    let mut seen_dot = false;
    let mut seen_e = false;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        match b {
            b'0'..=b'9' => text.push(b as char),
            b'.' if !seen_dot && !seen_e => {
                seen_dot = true;
                text.push('.');
            }
            b'e' | b'E' if !seen_e && text.chars().any(|c| c.is_ascii_digit()) => {
                seen_e = true;
                text.push('e');
                let nxt = w.proc.mem.read_u8(s.wrapping_add(i + 1))?;
                if nxt == b'-' || nxt == b'+' {
                    text.push(nxt as char);
                    i += 1;
                }
            }
            _ => break,
        }
        i += 1;
    }
    let value: f64 = text.parse().unwrap_or(0.0);
    if !text.chars().any(|c| c.is_ascii_digit()) {
        return Ok((0.0, 0));
    }
    let _ = start;
    Ok((value, i))
}

fn atof(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (v, _) = scan_float(w, ptr_arg(args, 0))?;
    Ok(SimValue::Double(v))
}

fn strtol(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let endptr = ptr_arg(args, 1);
    let base = int_arg(args, 2);
    if base < 0 || base == 1 || base > 36 {
        return w.fail(EINVAL, SimValue::Int(0));
    }
    let (v, consumed, overflow) = scan_int(w, s, base as u32)?;
    if endptr != 0 {
        // Writing *endptr faults on a bad pointer — authentic.
        w.proc.mem.write_u32(endptr, s.wrapping_add(consumed))?;
    }
    let clamped = v.clamp(i64::from(i32::MIN), i64::from(i32::MAX));
    if overflow || clamped != v {
        let lim = if v < 0 {
            i64::from(i32::MIN)
        } else {
            i64::from(i32::MAX)
        };
        return w.fail(ERANGE, SimValue::Int(lim));
    }
    Ok(SimValue::Int(clamped))
}

fn strtoul(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let endptr = ptr_arg(args, 1);
    let base = int_arg(args, 2);
    if base < 0 || base == 1 || base > 36 {
        return w.fail(EINVAL, SimValue::Int(0));
    }
    let (v, consumed, overflow) = scan_int(w, s, base as u32)?;
    if endptr != 0 {
        w.proc.mem.write_u32(endptr, s.wrapping_add(consumed))?;
    }
    if overflow || v > i64::from(u32::MAX) || v < -i64::from(u32::MAX) {
        return w.fail(ERANGE, SimValue::Int(i64::from(u32::MAX)));
    }
    Ok(SimValue::Int(i64::from(v as u32)))
}

fn strtod(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let endptr = ptr_arg(args, 1);
    let (v, consumed) = scan_float(w, s)?;
    if endptr != 0 {
        w.proc.mem.write_u32(endptr, s.wrapping_add(consumed))?;
    }
    Ok(SimValue::Double(v))
}

fn malloc(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let size = int_arg(args, 0) as u32;
    match w.proc.heap_alloc(size) {
        Ok(p) => Ok(SimValue::Ptr(p)),
        Err(_) => w.fail(ENOMEM, SimValue::NULL),
    }
}

fn calloc(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let nmemb = int_arg(args, 0) as u32;
    // The 2002-era multiplication-overflow bug: nmemb*size wraps, so a
    // huge request under-allocates (pages arrive zeroed either way).
    let size = nmemb.wrapping_mul(int_arg(args, 1) as u32);
    match w.proc.heap_alloc(size) {
        Ok(p) => Ok(SimValue::Ptr(p)),
        Err(_) => w.fail(ENOMEM, SimValue::NULL),
    }
}

fn realloc(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let ptr = ptr_arg(args, 0);
    let size = int_arg(args, 1) as u32;
    if ptr == 0 {
        return malloc(w, &args[1..]);
    }
    if size == 0 {
        return free(w, args);
    }
    let (heap, mem) = (&mut w.proc.heap, &mut w.proc.mem);
    match heap.realloc(mem, ptr, size) {
        Ok(p) => Ok(SimValue::Ptr(p)),
        Err(healers_simproc::HeapError::OutOfMemory) => w.fail(ENOMEM, SimValue::NULL),
        Err(e) => Err(SimFault::Abort {
            reason: format!("realloc(): {e}"),
        }),
    }
}

fn free(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let ptr = ptr_arg(args, 0);
    if ptr == 0 {
        return Ok(SimValue::Void); // free(NULL) is a no-op
    }
    match w.proc.heap_free(ptr) {
        Ok(()) => Ok(SimValue::Void),
        // glibc's consistency check: invalid/double free aborts.
        Err(e) => Err(SimFault::Abort {
            reason: e.to_string(),
        }),
    }
}

fn getenv(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let name = ptr_arg(args, 0);
    let key = w.read_cstr_lossy(name)?;
    let Some(value) = w.env.get(&key).cloned() else {
        return Ok(SimValue::NULL);
    };
    // Materialize (and cache) the value string in static memory so the
    // returned pointer stays valid, like the real environ block.
    let slot = w.proc.named_static(&format!("env:{key}"), 128);
    w.proc.write_cstr(slot, value.as_bytes())?;
    Ok(SimValue::Ptr(slot))
}

fn setenv(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let name = ptr_arg(args, 0);
    let value = ptr_arg(args, 1);
    let overwrite = int_arg(args, 2) != 0;
    let key = w.read_cstr_lossy(name)?;
    if key.is_empty() || key.contains('=') {
        return w.fail(EINVAL, SimValue::Int(-1));
    }
    let val = w.read_cstr_lossy(value)?;
    if overwrite || !w.env.contains_key(&key) {
        Arc::make_mut(&mut w.env).insert(key, val);
    }
    Ok(SimValue::Int(0))
}

fn unsetenv(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let name = ptr_arg(args, 0);
    let key = w.read_cstr_lossy(name)?;
    if key.is_empty() || key.contains('=') {
        return w.fail(EINVAL, SimValue::Int(-1));
    }
    if w.env.contains_key(&key) {
        Arc::make_mut(&mut w.env).remove(&key);
    }
    Ok(SimValue::Int(0))
}

fn abs_(_w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let v = int_arg(args, 0) as i32;
    // abs(INT_MIN) is UB in C; the common implementation returns INT_MIN.
    Ok(SimValue::Int(i64::from(v.wrapping_abs())))
}

fn rand_(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let _ = args;
    w.rand_state = w
        .rand_state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    Ok(SimValue::Int(i64::from(
        (w.rand_state >> 33) as u32 & 0x7fff_ffff,
    )))
}

fn srand(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    w.rand_state = int_arg(args, 0) as u64;
    Ok(SimValue::Void)
}

fn rand_r(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let seedp = ptr_arg(args, 0);
    // Reads and writes the caller's seed — crash-capable on bad pointers.
    let seed = w.proc.mem.read_u32(seedp)?;
    let next = seed.wrapping_mul(1103515245).wrapping_add(12345);
    w.proc.mem.write_u32(seedp, next)?;
    Ok(SimValue::Int(i64::from(next & 0x7fff_ffff)))
}

fn abort_(_w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let _ = args;
    Err(SimFault::Abort {
        reason: "abort() called".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Libc;
    use healers_simproc::INVALID_PTR;

    fn setup() -> (Libc, World) {
        (Libc::standard(), World::new())
    }

    fn p(a: u32) -> SimValue {
        SimValue::Ptr(a)
    }

    #[test]
    fn atoi_parses() {
        let (libc, mut w) = setup();
        for (text, expect) in [
            ("42", 42i64),
            ("  -17abc", -17),
            ("+9", 9),
            ("abc", 0),
            ("", 0),
        ] {
            let s = w.alloc_cstr(text);
            assert_eq!(
                libc.call(&mut w, "atoi", &[p(s)]).unwrap(),
                SimValue::Int(expect),
                "atoi({text:?})"
            );
        }
    }

    #[test]
    fn atoi_crashes_on_bad_pointer() {
        let (libc, mut w) = setup();
        assert!(libc.call(&mut w, "atoi", &[SimValue::NULL]).is_err());
        assert!(libc.call(&mut w, "atoi", &[p(INVALID_PTR)]).is_err());
    }

    #[test]
    fn atof_parses() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("  -2.5e2xyz");
        let r = libc.call(&mut w, "atof", &[p(s)]).unwrap();
        assert_eq!(r, SimValue::Double(-250.0));
    }

    #[test]
    fn strtol_endptr_and_base() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("0x1f rest");
        let end = w.alloc_buf(4);
        let r = libc
            .call(&mut w, "strtol", &[p(s), p(end), SimValue::Int(0)])
            .unwrap();
        assert_eq!(r, SimValue::Int(31));
        assert_eq!(w.proc.mem.read_u32(end).unwrap(), s + 4);
        // Invalid base.
        let r = libc
            .call(&mut w, "strtol", &[p(s), SimValue::NULL, SimValue::Int(1)])
            .unwrap();
        assert_eq!(r, SimValue::Int(0));
        assert_eq!(w.proc.errno(), EINVAL);
    }

    #[test]
    fn strtol_overflow_is_erange() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("99999999999999999999");
        let r = libc
            .call(&mut w, "strtol", &[p(s), SimValue::NULL, SimValue::Int(10)])
            .unwrap();
        assert_eq!(r, SimValue::Int(i64::from(i32::MAX)));
        assert_eq!(w.proc.errno(), ERANGE);
    }

    #[test]
    fn strtol_bad_endptr_crashes() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("5");
        assert!(libc
            .call(&mut w, "strtol", &[p(s), p(INVALID_PTR), SimValue::Int(10)])
            .is_err());
    }

    #[test]
    fn strtoul_wraps_to_u32() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("4294967295");
        let r = libc
            .call(
                &mut w,
                "strtoul",
                &[p(s), SimValue::NULL, SimValue::Int(10)],
            )
            .unwrap();
        assert_eq!(r, SimValue::Int(i64::from(u32::MAX)));
    }

    #[test]
    fn strtod_parses_with_endptr() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("3.25rest");
        let end = w.alloc_buf(4);
        let r = libc.call(&mut w, "strtod", &[p(s), p(end)]).unwrap();
        assert_eq!(r, SimValue::Double(3.25));
        assert_eq!(w.proc.mem.read_u32(end).unwrap(), s + 4);
    }

    #[test]
    fn malloc_free_realloc() {
        let (libc, mut w) = setup();
        let a = libc.call(&mut w, "malloc", &[SimValue::Int(64)]).unwrap();
        assert_ne!(a, SimValue::NULL);
        w.proc.mem.write_bytes(a.as_ptr(), b"contents").unwrap();
        let b = libc
            .call(&mut w, "realloc", &[a, SimValue::Int(128)])
            .unwrap();
        assert_eq!(w.proc.mem.read_bytes(b.as_ptr(), 8).unwrap(), b"contents");
        libc.call(&mut w, "free", &[b]).unwrap();
        // Double free aborts.
        let err = libc.call(&mut w, "free", &[b]).unwrap_err();
        assert!(err.is_abort());
    }

    #[test]
    fn free_invalid_pointer_aborts() {
        let (libc, mut w) = setup();
        let block = libc.call(&mut w, "malloc", &[SimValue::Int(32)]).unwrap();
        let interior = SimValue::Ptr(block.as_ptr() + 8);
        let err = libc.call(&mut w, "free", &[interior]).unwrap_err();
        assert!(err.is_abort());
        // free(NULL) is fine.
        libc.call(&mut w, "free", &[SimValue::NULL]).unwrap();
    }

    #[test]
    fn calloc_overflow_underallocates() {
        let (libc, mut w) = setup();
        // 0x1000_0001 * 0x10 wraps to 0x10 — the authentic 2002 bug.
        let r = libc
            .call(
                &mut w,
                "calloc",
                &[SimValue::Int(0x1000_0001), SimValue::Int(0x10)],
            )
            .unwrap();
        assert_ne!(r, SimValue::NULL);
        let block = w.proc.heap.block_containing(r.as_ptr()).unwrap();
        assert_eq!(block.size, 0x10);
    }

    #[test]
    fn env_roundtrip() {
        let (libc, mut w) = setup();
        let name = w.alloc_cstr("HOME");
        let r = libc.call(&mut w, "getenv", &[p(name)]).unwrap();
        assert_eq!(w.read_cstr_lossy(r.as_ptr()).unwrap(), "/home/user");

        let key = w.alloc_cstr("NEWVAR");
        let val = w.alloc_cstr("value1");
        libc.call(&mut w, "setenv", &[p(key), p(val), SimValue::Int(0)])
            .unwrap();
        let r = libc.call(&mut w, "getenv", &[p(key)]).unwrap();
        assert_eq!(w.read_cstr_lossy(r.as_ptr()).unwrap(), "value1");

        // overwrite=0 keeps the old value.
        let val2 = w.alloc_cstr("value2");
        libc.call(&mut w, "setenv", &[p(key), p(val2), SimValue::Int(0)])
            .unwrap();
        let r = libc.call(&mut w, "getenv", &[p(key)]).unwrap();
        assert_eq!(w.read_cstr_lossy(r.as_ptr()).unwrap(), "value1");

        libc.call(&mut w, "unsetenv", &[p(key)]).unwrap();
        let r = libc.call(&mut w, "getenv", &[p(key)]).unwrap();
        assert_eq!(r, SimValue::NULL);
    }

    #[test]
    fn setenv_validates_name() {
        let (libc, mut w) = setup();
        let bad = w.alloc_cstr("A=B");
        let val = w.alloc_cstr("v");
        let r = libc
            .call(&mut w, "setenv", &[p(bad), p(val), SimValue::Int(1)])
            .unwrap();
        assert_eq!(r, SimValue::Int(-1));
        assert_eq!(w.proc.errno(), EINVAL);
    }

    #[test]
    fn abs_family_never_crashes() {
        let (libc, mut w) = setup();
        assert_eq!(
            libc.call(&mut w, "abs", &[SimValue::Int(-5)]).unwrap(),
            SimValue::Int(5)
        );
        assert_eq!(
            libc.call(&mut w, "labs", &[SimValue::Int(7)]).unwrap(),
            SimValue::Int(7)
        );
        // INT_MIN: returns INT_MIN without crashing (classic behavior).
        assert_eq!(
            libc.call(&mut w, "abs", &[SimValue::Int(i64::from(i32::MIN))])
                .unwrap(),
            SimValue::Int(i64::from(i32::MIN))
        );
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let (libc, mut w) = setup();
        libc.call(&mut w, "srand", &[SimValue::Int(7)]).unwrap();
        let a = libc.call(&mut w, "rand", &[]).unwrap();
        libc.call(&mut w, "srand", &[SimValue::Int(7)]).unwrap();
        let b = libc.call(&mut w, "rand", &[]).unwrap();
        assert_eq!(a, b);
        assert!(a.as_int() >= 0);
    }

    #[test]
    fn rand_r_uses_caller_seed() {
        let (libc, mut w) = setup();
        let seed = w.alloc_buf(4);
        w.proc.mem.write_u32(seed, 1).unwrap();
        let a = libc.call(&mut w, "rand_r", &[p(seed)]).unwrap();
        assert!(a.as_int() >= 0);
        assert_ne!(w.proc.mem.read_u32(seed).unwrap(), 1);
        assert!(libc.call(&mut w, "rand_r", &[SimValue::NULL]).is_err());
    }

    #[test]
    fn abort_aborts() {
        let (libc, mut w) = setup();
        let err = libc.call(&mut w, "abort", &[]).unwrap_err();
        assert!(err.is_abort());
    }
}
