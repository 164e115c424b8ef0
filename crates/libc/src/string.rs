//! `string.h`: the classic unchecked memory and string functions.
//!
//! None of these validate their pointer arguments — exactly like the
//! real library, which is why the Ballista suite crashes them and why the
//! paper's wrapper exists. Crashes here are genuine memory faults raised
//! by the simulated address space.

use healers_os::errno::ENOMEM;
use healers_simproc::{Addr, SimFault, SimValue};

use crate::registry::CFuncImpl;
use crate::world::{int_arg, ptr_arg, World};

/// Name → implementation table for this module.
pub(crate) fn funcs() -> Vec<(&'static str, CFuncImpl)> {
    vec![
        ("strcpy", strcpy),
        ("strncpy", strncpy),
        ("strcat", strcat),
        ("strncat", strncat),
        ("strcmp", strcmp),
        ("strncmp", strncmp),
        ("strlen", strlen),
        ("strchr", strchr),
        ("strrchr", strrchr),
        ("strstr", strstr),
        ("strpbrk", strpbrk),
        ("strspn", strspn),
        ("strcspn", strcspn),
        ("strtok", strtok),
        ("strdup", strdup),
        ("strcoll", strcmp), // the C locale collates bytewise
        ("strxfrm", strxfrm),
        ("strerror", strerror),
        ("memcpy", memcpy),
        ("memmove", memmove),
        ("memset", memset),
        ("memcmp", memcmp),
        ("memchr", memchr),
        ("strcasecmp", strcasecmp),
        ("strncasecmp", strncasecmp),
        ("strnlen", strnlen),
        ("strsep", strsep),
        ("index", strchr),
        ("rindex", strrchr),
        ("bzero", bzero),
        ("bcopy", bcopy),
        ("bcmp", memcmp),
    ]
}

/// Read the length of the string at `s` (internal strlen; no NUL write).
pub(crate) fn c_strlen(w: &mut World, s: Addr) -> Result<u32, SimFault> {
    w.proc.scan_until(s, |b| b == 0)
}

fn strcpy(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    w.proc.copy_cstr(dst, src)?;
    Ok(SimValue::Ptr(dst))
}

fn strncpy(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32; // size_t: negative becomes huge, authentically
    if let Some(nul) = w.proc.copy_until_nul(dst, src, n)? {
        w.proc.fill(dst.wrapping_add(nul + 1), 0, n - nul - 1)?;
    }
    Ok(SimValue::Ptr(dst))
}

fn strcat(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let end = c_strlen(w, dst)?;
    w.proc.copy_cstr(dst.wrapping_add(end), src)?;
    Ok(SimValue::Ptr(dst))
}

fn strncat(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    let end = c_strlen(w, dst)?;
    let mut i = 0u32;
    while i < n {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(src.wrapping_add(i))?;
        if b == 0 {
            break;
        }
        w.proc.mem.write_u8(dst.wrapping_add(end + i), b)?;
        i += 1;
    }
    w.proc.mem.write_u8(dst.wrapping_add(end + i), 0)?;
    Ok(SimValue::Ptr(dst))
}

fn strcmp(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (a, b) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let x = w.proc.mem.read_u8(a.wrapping_add(i))?;
        let y = w.proc.mem.read_u8(b.wrapping_add(i))?;
        if x != y || x == 0 {
            return Ok(SimValue::Int(i64::from(x) - i64::from(y)));
        }
        i = i.wrapping_add(1);
    }
}

fn strncmp(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (a, b) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    for i in 0..n {
        w.proc.tick(1)?;
        let x = w.proc.mem.read_u8(a.wrapping_add(i))?;
        let y = w.proc.mem.read_u8(b.wrapping_add(i))?;
        if x != y || x == 0 {
            return Ok(SimValue::Int(i64::from(x) - i64::from(y)));
        }
    }
    Ok(SimValue::Int(0))
}

fn strlen(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let n = c_strlen(w, ptr_arg(args, 0))?;
    Ok(SimValue::Int(i64::from(n)))
}

fn strchr(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let c = (int_arg(args, 1) & 0xff) as u8;
    let at = s.wrapping_add(w.proc.scan_until(s, |b| b == c || b == 0)?);
    if w.proc.mem.read_u8(at)? == c {
        Ok(SimValue::Ptr(at))
    } else {
        Ok(SimValue::NULL)
    }
}

fn strrchr(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let c = (int_arg(args, 1) & 0xff) as u8;
    let mut found: Option<Addr> = None;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b == c {
            found = Some(s.wrapping_add(i));
        }
        if b == 0 {
            return Ok(found.map_or(SimValue::NULL, SimValue::Ptr));
        }
        i = i.wrapping_add(1);
    }
}

fn strstr(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let hay = ptr_arg(args, 0);
    let needle = ptr_arg(args, 1);
    let nlen = c_strlen(w, needle)?;
    if nlen == 0 {
        // Still touches the haystack, like the real function.
        w.proc.mem.read_u8(hay)?;
        return Ok(SimValue::Ptr(hay));
    }
    let needle_bytes = w.proc.mem.read_bytes(needle, nlen)?;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(hay.wrapping_add(i))?;
        if b == 0 {
            return Ok(SimValue::NULL);
        }
        if b == needle_bytes[0] {
            let mut ok = true;
            for (j, nb) in needle_bytes.iter().enumerate().skip(1) {
                w.proc.tick(1)?;
                let hb = w.proc.mem.read_u8(hay.wrapping_add(i + j as u32))?;
                if hb != *nb {
                    ok = false;
                    break;
                }
                if hb == 0 {
                    return Ok(SimValue::NULL);
                }
            }
            if ok {
                return Ok(SimValue::Ptr(hay.wrapping_add(i)));
            }
        }
        i = i.wrapping_add(1);
    }
}

fn read_set(w: &mut World, set: Addr) -> Result<Vec<u8>, SimFault> {
    w.proc.read_cstr(set)
}

fn strpbrk(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let accept = read_set(w, ptr_arg(args, 1))?;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b == 0 {
            return Ok(SimValue::NULL);
        }
        if accept.contains(&b) {
            return Ok(SimValue::Ptr(s.wrapping_add(i)));
        }
        i = i.wrapping_add(1);
    }
}

fn strspn(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let accept = read_set(w, ptr_arg(args, 1))?;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b == 0 || !accept.contains(&b) {
            return Ok(SimValue::Int(i64::from(i)));
        }
        i = i.wrapping_add(1);
    }
}

fn strcspn(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let reject = read_set(w, ptr_arg(args, 1))?;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(s.wrapping_add(i))?;
        if b == 0 || reject.contains(&b) {
            return Ok(SimValue::Int(i64::from(i)));
        }
        i = i.wrapping_add(1);
    }
}

/// `strtok` keeps its scan position in libc-internal static storage, like
/// the real (non-`_r`) function. Calling `strtok(NULL, …)` with no prior
/// token genuinely dereferences a null saved pointer — an authentic crash
/// the Ballista suite finds.
fn strtok(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let state = w.proc.named_static("strtok_save", 4);
    let s = ptr_arg(args, 0);
    let delim = read_set(w, ptr_arg(args, 1))?;
    let mut cur = if s != 0 {
        s
    } else {
        w.proc.mem.read_u32(state)?
    };

    // Skip leading delimiters.
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(cur)?;
        if b == 0 {
            w.proc.mem.write_u32(state, cur)?;
            return Ok(SimValue::NULL);
        }
        if !delim.contains(&b) {
            break;
        }
        cur = cur.wrapping_add(1);
    }
    let token = cur;
    // Find the end of the token.
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(cur)?;
        if b == 0 {
            w.proc.mem.write_u32(state, cur)?;
            return Ok(SimValue::Ptr(token));
        }
        if delim.contains(&b) {
            w.proc.mem.write_u8(cur, 0)?; // terminate token in place
            w.proc.mem.write_u32(state, cur.wrapping_add(1))?;
            return Ok(SimValue::Ptr(token));
        }
        cur = cur.wrapping_add(1);
    }
}

fn strdup(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let len = c_strlen(w, s)?;
    let bytes = w.proc.mem.read_bytes(s, len)?;
    match w.proc.heap_alloc(len + 1) {
        Ok(copy) => {
            w.proc.write_cstr(copy, &bytes)?;
            Ok(SimValue::Ptr(copy))
        }
        Err(_) => w.fail(ENOMEM, SimValue::NULL),
    }
}

fn strxfrm(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    let len = c_strlen(w, src)?;
    if n > 0 {
        let copy = len.min(n - 1);
        let bytes = w.proc.mem.read_bytes(src, copy)?;
        w.proc.mem.write_bytes(dst, &bytes)?;
        w.proc.mem.write_u8(dst + copy, 0)?;
    }
    Ok(SimValue::Int(i64::from(len)))
}

fn strerror(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let e = int_arg(args, 0) as i32;
    let msg = healers_os::errno::strerror(e);
    let buf = w.proc.named_static("strerror_buf", 64);
    w.proc.write_cstr(buf, msg.as_bytes())?;
    Ok(SimValue::Ptr(buf))
}

fn memcpy(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    w.proc.copy(dst, src, n)?;
    Ok(SimValue::Ptr(dst))
}

fn memmove(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (dst, src) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    w.proc.tick(u64::from(n))?;
    w.proc.mem.move_bytes(dst, src, n)?;
    Ok(SimValue::Ptr(dst))
}

fn memset(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let dst = ptr_arg(args, 0);
    let c = (int_arg(args, 1) & 0xff) as u8;
    let n = int_arg(args, 2) as u32;
    w.proc.fill(dst, c, n)?;
    Ok(SimValue::Ptr(dst))
}

fn memcmp(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (a, b) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    let diff = w
        .proc
        .compare(a, b, n)?
        .map_or(0, |(x, y)| i64::from(x) - i64::from(y));
    Ok(SimValue::Int(diff))
}

fn memchr(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let c = (int_arg(args, 1) & 0xff) as u8;
    let n = int_arg(args, 2) as u32;
    let found = w.proc.scan(s, n, |b| b == c)?;
    Ok(found.map_or(SimValue::NULL, |i| SimValue::Ptr(s.wrapping_add(i))))
}

fn strcasecmp(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (a, b) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let x = w.proc.mem.read_u8(a.wrapping_add(i))?.to_ascii_lowercase();
        let y = w.proc.mem.read_u8(b.wrapping_add(i))?.to_ascii_lowercase();
        if x != y || x == 0 {
            return Ok(SimValue::Int(i64::from(x) - i64::from(y)));
        }
        i = i.wrapping_add(1);
    }
}

fn strncasecmp(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (a, b) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    for i in 0..n {
        w.proc.tick(1)?;
        let x = w.proc.mem.read_u8(a.wrapping_add(i))?.to_ascii_lowercase();
        let y = w.proc.mem.read_u8(b.wrapping_add(i))?.to_ascii_lowercase();
        if x != y || x == 0 {
            return Ok(SimValue::Int(i64::from(x) - i64::from(y)));
        }
    }
    Ok(SimValue::Int(0))
}

/// The *bounded* strlen — one of the few genuinely robust string
/// functions (it never reads past `maxlen`).
fn strnlen(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let maxlen = int_arg(args, 1) as u32;
    let len = w.proc.scan(s, maxlen, |b| b == 0)?.unwrap_or(maxlen);
    Ok(SimValue::Int(i64::from(len)))
}

/// BSD strsep: reads *and updates* a `char **` — a two-level pointer
/// the injector's generic array generator has to cope with.
fn strsep(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let stringp = ptr_arg(args, 0);
    let cur = w.proc.mem.read_u32(stringp)?; // crashes on bad stringp
    if cur == 0 {
        return Ok(SimValue::NULL);
    }
    let delim = read_set(w, ptr_arg(args, 1))?;
    let mut i = 0u32;
    loop {
        w.proc.tick(1)?;
        let b = w.proc.mem.read_u8(cur.wrapping_add(i))?;
        if b == 0 {
            w.proc.mem.write_u32(stringp, 0)?;
            return Ok(SimValue::Ptr(cur));
        }
        if delim.contains(&b) {
            w.proc.mem.write_u8(cur.wrapping_add(i), 0)?;
            w.proc.mem.write_u32(stringp, cur.wrapping_add(i + 1))?;
            return Ok(SimValue::Ptr(cur));
        }
        i = i.wrapping_add(1);
    }
}

fn bzero(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let s = ptr_arg(args, 0);
    let n = int_arg(args, 1) as u32;
    w.proc.fill(s, 0, n)?;
    Ok(SimValue::Void)
}

/// BSD bcopy: note the (src, dest) argument order, reversed from
/// memcpy — a classic source of both bugs and injector findings.
fn bcopy(w: &mut World, args: &[SimValue]) -> Result<SimValue, SimFault> {
    let (src, dst) = (ptr_arg(args, 0), ptr_arg(args, 1));
    let n = int_arg(args, 2) as u32;
    w.proc.tick(u64::from(n))?;
    w.proc.mem.move_bytes(dst, src, n)?;
    Ok(SimValue::Void)
}

#[cfg(test)]
mod tests {
    use crate::registry::Libc;
    use crate::world::World;
    use healers_simproc::{SimValue, INVALID_PTR};

    fn setup() -> (Libc, World) {
        (Libc::standard(), World::new())
    }

    fn p(a: u32) -> SimValue {
        SimValue::Ptr(a)
    }

    #[test]
    fn strcpy_copies_and_returns_dst() {
        let (libc, mut w) = setup();
        let src = w.alloc_cstr("robustness");
        let dst = w.alloc_buf(32);
        let r = libc.call(&mut w, "strcpy", &[p(dst), p(src)]).unwrap();
        assert_eq!(r, p(dst));
        assert_eq!(w.read_cstr_lossy(dst).unwrap(), "robustness");
    }

    #[test]
    fn strcpy_overflows_guarded_buffer() {
        let libc = Libc::standard();
        let mut w = World::new_guarded();
        let src = w.alloc_cstr("this string is longer than the buffer");
        let dst = w.alloc_buf(8);
        let err = libc.call(&mut w, "strcpy", &[p(dst), p(src)]).unwrap_err();
        assert_eq!(err.segv_addr(), Some(dst + 8));
    }

    #[test]
    fn strcpy_null_src_crashes() {
        let (libc, mut w) = setup();
        let dst = w.alloc_buf(8);
        let err = libc
            .call(&mut w, "strcpy", &[p(dst), SimValue::NULL])
            .unwrap_err();
        assert_eq!(err.segv_addr(), Some(0));
    }

    #[test]
    fn strlen_and_invalid_pointer() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("abc");
        assert_eq!(
            libc.call(&mut w, "strlen", &[p(s)]).unwrap(),
            SimValue::Int(3)
        );
        assert!(libc.call(&mut w, "strlen", &[p(INVALID_PTR)]).is_err());
    }

    #[test]
    fn strncpy_pads_with_nuls() {
        let (libc, mut w) = setup();
        let src = w.alloc_cstr("ab");
        let dst = w.alloc_buf(8);
        w.proc.mem.write_bytes(dst, &[0xff; 8]).unwrap();
        libc.call(&mut w, "strncpy", &[p(dst), p(src), SimValue::Int(6)])
            .unwrap();
        assert_eq!(
            w.proc.mem.read_bytes(dst, 8).unwrap(),
            vec![b'a', b'b', 0, 0, 0, 0, 0xff, 0xff]
        );
    }

    #[test]
    fn strcat_appends() {
        let (libc, mut w) = setup();
        let dst = w.alloc_buf(16);
        w.proc.write_cstr(dst, b"foo").unwrap();
        let src = w.alloc_cstr("bar");
        libc.call(&mut w, "strcat", &[p(dst), p(src)]).unwrap();
        assert_eq!(w.read_cstr_lossy(dst).unwrap(), "foobar");
    }

    #[test]
    fn strncat_limits_and_terminates() {
        let (libc, mut w) = setup();
        let dst = w.alloc_buf(16);
        w.proc.write_cstr(dst, b"ab").unwrap();
        let src = w.alloc_cstr("cdefgh");
        libc.call(&mut w, "strncat", &[p(dst), p(src), SimValue::Int(3)])
            .unwrap();
        assert_eq!(w.read_cstr_lossy(dst).unwrap(), "abcde");
    }

    #[test]
    fn strcmp_orders() {
        let (libc, mut w) = setup();
        let a = w.alloc_cstr("apple");
        let b = w.alloc_cstr("apricot");
        let r = libc.call(&mut w, "strcmp", &[p(a), p(b)]).unwrap();
        assert!(r.as_int() < 0);
        let r = libc.call(&mut w, "strcmp", &[p(b), p(a)]).unwrap();
        assert!(r.as_int() > 0);
        let r = libc.call(&mut w, "strcmp", &[p(a), p(a)]).unwrap();
        assert_eq!(r.as_int(), 0);
    }

    #[test]
    fn strncmp_stops_at_n() {
        let (libc, mut w) = setup();
        let a = w.alloc_cstr("abcX");
        let b = w.alloc_cstr("abcY");
        let r = libc
            .call(&mut w, "strncmp", &[p(a), p(b), SimValue::Int(3)])
            .unwrap();
        assert_eq!(r.as_int(), 0);
    }

    #[test]
    fn strchr_family() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("hello");
        let r = libc
            .call(&mut w, "strchr", &[p(s), SimValue::Int(i64::from(b'l'))])
            .unwrap();
        assert_eq!(r, p(s + 2));
        let r = libc
            .call(&mut w, "strrchr", &[p(s), SimValue::Int(i64::from(b'l'))])
            .unwrap();
        assert_eq!(r, p(s + 3));
        let r = libc
            .call(&mut w, "strchr", &[p(s), SimValue::Int(i64::from(b'z'))])
            .unwrap();
        assert_eq!(r, SimValue::NULL);
        // strchr(s, 0) finds the terminator.
        let r = libc
            .call(&mut w, "strchr", &[p(s), SimValue::Int(0)])
            .unwrap();
        assert_eq!(r, p(s + 5));
    }

    #[test]
    fn strstr_finds_substring() {
        let (libc, mut w) = setup();
        let hay = w.alloc_cstr("automated approach");
        let needle = w.alloc_cstr("mated");
        let r = libc.call(&mut w, "strstr", &[p(hay), p(needle)]).unwrap();
        assert_eq!(r, p(hay + 4));
        let missing = w.alloc_cstr("zzz");
        let r = libc.call(&mut w, "strstr", &[p(hay), p(missing)]).unwrap();
        assert_eq!(r, SimValue::NULL);
        let empty = w.alloc_cstr("");
        let r = libc.call(&mut w, "strstr", &[p(hay), p(empty)]).unwrap();
        assert_eq!(r, p(hay));
    }

    #[test]
    fn spn_family() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("123abc");
        let digits = w.alloc_cstr("0123456789");
        assert_eq!(
            libc.call(&mut w, "strspn", &[p(s), p(digits)]).unwrap(),
            SimValue::Int(3)
        );
        assert_eq!(
            libc.call(&mut w, "strcspn", &[p(s), p(digits)]).unwrap(),
            SimValue::Int(0)
        );
        let letters = w.alloc_cstr("abc");
        let r = libc.call(&mut w, "strpbrk", &[p(s), p(letters)]).unwrap();
        assert_eq!(r, p(s + 3));
    }

    #[test]
    fn strtok_tokenizes_in_place() {
        let (libc, mut w) = setup();
        let s = w.alloc_buf(32);
        w.proc.write_cstr(s, b"a,b,,c").unwrap();
        let sep = w.alloc_cstr(",");
        let t1 = libc.call(&mut w, "strtok", &[p(s), p(sep)]).unwrap();
        assert_eq!(w.read_cstr_lossy(t1.as_ptr()).unwrap(), "a");
        let t2 = libc
            .call(&mut w, "strtok", &[SimValue::NULL, p(sep)])
            .unwrap();
        assert_eq!(w.read_cstr_lossy(t2.as_ptr()).unwrap(), "b");
        let t3 = libc
            .call(&mut w, "strtok", &[SimValue::NULL, p(sep)])
            .unwrap();
        assert_eq!(w.read_cstr_lossy(t3.as_ptr()).unwrap(), "c");
        let t4 = libc
            .call(&mut w, "strtok", &[SimValue::NULL, p(sep)])
            .unwrap();
        assert_eq!(t4, SimValue::NULL);
    }

    #[test]
    fn strtok_null_without_prior_call_crashes() {
        let (libc, mut w) = setup();
        let sep = w.alloc_cstr(",");
        let err = libc
            .call(&mut w, "strtok", &[SimValue::NULL, p(sep)])
            .unwrap_err();
        assert_eq!(err.segv_addr(), Some(0));
    }

    #[test]
    fn strdup_allocates_copy() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("dup me");
        let r = libc.call(&mut w, "strdup", &[p(s)]).unwrap();
        assert_ne!(r.as_ptr(), s);
        assert_eq!(w.read_cstr_lossy(r.as_ptr()).unwrap(), "dup me");
    }

    #[test]
    fn mem_family_roundtrip() {
        let (libc, mut w) = setup();
        let a = w.alloc_buf(16);
        let b = w.alloc_buf(16);
        libc.call(
            &mut w,
            "memset",
            &[p(a), SimValue::Int(0x41), SimValue::Int(16)],
        )
        .unwrap();
        libc.call(&mut w, "memcpy", &[p(b), p(a), SimValue::Int(16)])
            .unwrap();
        assert_eq!(
            libc.call(&mut w, "memcmp", &[p(a), p(b), SimValue::Int(16)])
                .unwrap(),
            SimValue::Int(0)
        );
        w.proc.mem.write_u8(b + 7, 0x42).unwrap();
        let r = libc
            .call(&mut w, "memcmp", &[p(a), p(b), SimValue::Int(16)])
            .unwrap();
        assert!(r.as_int() < 0);
        let r = libc
            .call(
                &mut w,
                "memchr",
                &[p(b), SimValue::Int(0x42), SimValue::Int(16)],
            )
            .unwrap();
        assert_eq!(r, p(b + 7));
    }

    #[test]
    fn memmove_handles_overlap() {
        let (libc, mut w) = setup();
        let buf = w.alloc_buf(16);
        w.proc.mem.write_bytes(buf, b"0123456789").unwrap();
        // Shift right by 2 with overlap.
        libc.call(&mut w, "memmove", &[p(buf + 2), p(buf), SimValue::Int(8)])
            .unwrap();
        assert_eq!(w.proc.mem.read_bytes(buf, 10).unwrap(), b"0101234567");
    }

    #[test]
    fn strxfrm_returns_full_length() {
        let (libc, mut w) = setup();
        let src = w.alloc_cstr("transform");
        let dst = w.alloc_buf(4);
        let r = libc
            .call(&mut w, "strxfrm", &[p(dst), p(src), SimValue::Int(4)])
            .unwrap();
        assert_eq!(r, SimValue::Int(9));
        assert_eq!(w.read_cstr_lossy(dst).unwrap(), "tra");
    }

    #[test]
    fn strcasecmp_ignores_case() {
        let (libc, mut w) = setup();
        let a = w.alloc_cstr("Hello");
        let b = w.alloc_cstr("hELLO");
        assert_eq!(
            libc.call(&mut w, "strcasecmp", &[p(a), p(b)]).unwrap(),
            SimValue::Int(0)
        );
        let c = w.alloc_cstr("hellp");
        let r = libc.call(&mut w, "strcasecmp", &[p(a), p(c)]).unwrap();
        assert!(r.as_int() < 0);
        let r = libc
            .call(&mut w, "strncasecmp", &[p(a), p(c), SimValue::Int(4)])
            .unwrap();
        assert_eq!(r, SimValue::Int(0));
    }

    #[test]
    fn strnlen_is_bounded() {
        // One of the few genuinely robust string functions: it never
        // reads past maxlen, even on an unterminated buffer.
        let libc = Libc::standard();
        let mut w = crate::world::World::new_guarded();
        let buf = w.alloc_buf(8);
        w.proc.mem.write_bytes(buf, &[1; 8]).unwrap();
        let r = libc
            .call(&mut w, "strnlen", &[p(buf), SimValue::Int(8)])
            .unwrap();
        assert_eq!(r, SimValue::Int(8));
        let s = w.alloc_cstr("abc");
        let r = libc
            .call(&mut w, "strnlen", &[p(s), SimValue::Int(100)])
            .unwrap();
        assert_eq!(r, SimValue::Int(3));
    }

    #[test]
    fn strsep_splits_and_advances() {
        let (libc, mut w) = setup();
        let s = w.alloc_buf(16);
        w.proc.write_cstr(s, b"a:b::c").unwrap();
        let sp = w.alloc_buf(4);
        w.proc.mem.write_u32(sp, s).unwrap();
        let delim = w.alloc_cstr(":");
        let mut tokens = Vec::new();
        loop {
            let t = libc.call(&mut w, "strsep", &[p(sp), p(delim)]).unwrap();
            if t.is_null() {
                break;
            }
            tokens.push(w.read_cstr_lossy(t.as_ptr()).unwrap());
        }
        assert_eq!(tokens, vec!["a", "b", "", "c"]);
        // And the classic strsep crash: an invalid stringp.
        assert!(libc
            .call(&mut w, "strsep", &[p(INVALID_PTR), p(delim)])
            .is_err());
    }

    #[test]
    fn bsd_aliases_behave() {
        let (libc, mut w) = setup();
        let s = w.alloc_cstr("xylophone");
        let r = libc
            .call(&mut w, "index", &[p(s), SimValue::Int(i64::from(b'l'))])
            .unwrap();
        assert_eq!(r, p(s + 2));
        let r = libc
            .call(&mut w, "rindex", &[p(s), SimValue::Int(i64::from(b'o'))])
            .unwrap();
        assert_eq!(r, p(s + 6));

        let buf = w.alloc_buf(8);
        w.proc.mem.write_bytes(buf, &[7; 8]).unwrap();
        libc.call(&mut w, "bzero", &[p(buf), SimValue::Int(8)])
            .unwrap();
        assert_eq!(w.proc.mem.read_bytes(buf, 8).unwrap(), vec![0; 8]);

        // bcopy's (src, dest) order.
        let src = w.alloc_cstr("data");
        libc.call(&mut w, "bcopy", &[p(src), p(buf), SimValue::Int(5)])
            .unwrap();
        assert_eq!(w.read_cstr_lossy(buf).unwrap(), "data");
        assert_eq!(
            libc.call(&mut w, "bcmp", &[p(src), p(buf), SimValue::Int(5)])
                .unwrap(),
            SimValue::Int(0)
        );
    }

    #[test]
    fn strerror_never_crashes_on_any_int() {
        let (libc, mut w) = setup();
        for e in [-1i64, 0, 22, 9999, i64::from(i32::MAX)] {
            let r = libc.call(&mut w, "strerror", &[SimValue::Int(e)]).unwrap();
            assert!(r.as_ptr() != 0);
        }
    }
}
