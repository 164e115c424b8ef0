//! `FILE` object marshaling.
//!
//! A `FILE` is a 148-byte structure ([`FILE_SIZE`]) living in *simulated
//! memory*. Keeping the object in simulated memory — rather than in Rust
//! state — is essential to faithfulness: a corrupted or garbage `FILE*`
//! behaves exactly like on a real machine (e.g. `fileno` returns whatever
//! garbage integer happens to be at offset 56), which is what both the
//! fault injector and the wrapper's `fileno`+`fstat` validity check
//! exercise.

use healers_simproc::{Addr, SimFault, SimProcess};

use crate::world::World;

/// Size of the `FILE` structure in bytes.
pub const FILE_SIZE: u32 = 148;

/// Offset of the `_flags` word (contains [`F_MAGIC`] plus mode bits).
pub const OFF_FLAGS: u32 = 0;
/// Offset of the pushback pointer. Like real stdio's `_IO_read_ptr`
/// games, pushback is pointer-based: the slot holds the address of the
/// pushed-back byte (normally [`OFF_UNGETC_BYTE`] within the stream
/// itself), or 0 when empty. Reading the pushback *dereferences* the
/// slot — which is exactly why a garbage `FILE` object crashes `fgetc`
/// on a real machine.
pub const OFF_UNGETC: u32 = 16;
/// Offset of the one-byte pushback storage.
pub const OFF_UNGETC_BYTE: u32 = 20;
/// Offset of the end-of-file indicator.
pub const OFF_EOF: u32 = 24;
/// Offset of the error indicator.
pub const OFF_ERROR: u32 = 28;
/// Offset of the file descriptor.
pub const OFF_FILENO: u32 = 56;
/// Offset of the buffering-mode word (set by `setvbuf`).
pub const OFF_BUFMODE: u32 = 60;
/// Offset of the caller-supplied buffer pointer (set by `setbuf`).
pub const OFF_BUFPTR: u32 = 8;

/// Magic value glibc stores in `_flags` (`_IO_MAGIC`).
pub const F_MAGIC: u32 = 0xFBAD_0000;
/// Stream open for reading.
pub const F_READ: u32 = 0x1;
/// Stream open for writing.
pub const F_WRITE: u32 = 0x2;
/// Stream in append mode.
pub const F_APPEND: u32 = 0x4;

/// Create a `FILE` object in static memory (for the standard streams).
pub fn create_file_object(proc: &mut SimProcess, fd: i32, mode_bits: u32) -> Addr {
    let addr = proc.static_alloc(FILE_SIZE);
    init_file_object(proc, addr, fd, mode_bits).expect("static memory must be writable");
    addr
}

/// Initialize the fields of a `FILE` object at `addr`.
///
/// # Errors
///
/// Faults if `addr` is not writable for [`FILE_SIZE`] bytes — which is
/// exactly what happens when `freopen` is handed a bogus stream.
pub fn init_file_object(
    proc: &mut SimProcess,
    addr: Addr,
    fd: i32,
    mode_bits: u32,
) -> Result<(), SimFault> {
    proc.mem.write_u32(addr + OFF_FLAGS, F_MAGIC | mode_bits)?;
    proc.mem.write_u32(addr + OFF_UNGETC, 0)?;
    proc.mem.write_i32(addr + OFF_EOF, 0)?;
    proc.mem.write_i32(addr + OFF_ERROR, 0)?;
    proc.mem.write_i32(addr + OFF_FILENO, fd)?;
    proc.mem.write_u32(addr + OFF_BUFMODE, 0)?;
    proc.mem.write_u32(addr + OFF_BUFPTR, 0)?;
    Ok(())
}

/// Read the descriptor stored in a `FILE`. No validation — garbage in,
/// garbage out, as on a real machine.
///
/// # Errors
///
/// Faults if the field is unreadable.
pub fn read_fileno(world: &mut World, stream: Addr) -> Result<i32, SimFault> {
    world.proc.mem.read_i32(stream + OFF_FILENO)
}

/// Read the `_flags` word.
///
/// # Errors
///
/// Faults if the field is unreadable.
pub fn read_flags(world: &mut World, stream: Addr) -> Result<u32, SimFault> {
    world.proc.mem.read_u32(stream + OFF_FLAGS)
}

/// Whether the `_flags` word carries the stream magic (used only by
/// diagnostic tooling; the simulated library itself never checks).
pub fn has_magic(flags: u32) -> bool {
    flags & 0xFFFF_0000 == F_MAGIC
}

/// Set the end-of-file indicator.
///
/// # Errors
///
/// Faults if the field is unwritable.
pub fn set_eof(world: &mut World, stream: Addr, eof: bool) -> Result<(), SimFault> {
    world.proc.mem.write_i32(stream + OFF_EOF, i32::from(eof))
}

/// Set the error indicator.
///
/// # Errors
///
/// Faults if the field is unwritable.
pub fn set_error(world: &mut World, stream: Addr, err: bool) -> Result<(), SimFault> {
    world.proc.mem.write_i32(stream + OFF_ERROR, i32::from(err))
}

/// Take the pushed-back character, if any. A non-zero pushback pointer
/// is dereferenced unconditionally — garbage streams crash here, like
/// real stdio chasing its read pointers.
///
/// # Errors
///
/// Faults if the slot is inaccessible or holds a garbage pointer.
pub fn take_ungetc(world: &mut World, stream: Addr) -> Result<Option<u8>, SimFault> {
    let slot = world.proc.mem.read_u32(stream + OFF_UNGETC)?;
    if slot == 0 {
        Ok(None)
    } else {
        let byte = world.proc.mem.read_u8(slot)?;
        world.proc.mem.write_u32(stream + OFF_UNGETC, 0)?;
        Ok(Some(byte))
    }
}

/// Push back one character.
///
/// # Errors
///
/// Faults if the stream object is unwritable.
pub fn store_ungetc(world: &mut World, stream: Addr, c: u8) -> Result<(), SimFault> {
    world.proc.mem.write_u8(stream + OFF_UNGETC_BYTE, c)?;
    world
        .proc
        .mem
        .write_u32(stream + OFF_UNGETC, stream + OFF_UNGETC_BYTE)
}

/// Parse an `fopen`-style mode string that has already been copied into
/// Rust. Returns `(read, write, append)` or `None` for an invalid leading
/// character.
pub fn parse_mode(mode: &[u8]) -> Option<(bool, bool, bool)> {
    let first = *mode.first()?;
    let plus = mode[1..].contains(&b'+');
    match first {
        b'r' => Some((true, plus, false)),
        b'w' => Some((plus, true, false)),
        b'a' => Some((plus, true, true)),
        _ => None,
    }
}

/// Mode bits for the `_flags` word from a parsed mode triple.
pub fn mode_bits(read: bool, write: bool, append: bool) -> u32 {
    let mut bits = 0;
    if read {
        bits |= F_READ;
    }
    if write {
        bits |= F_WRITE;
    }
    if append {
        bits |= F_APPEND;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_object_layout_roundtrip() {
        let mut w = World::new();
        let f = w.alloc_buf(FILE_SIZE);
        init_file_object(&mut w.proc, f, 7, F_READ | F_WRITE).unwrap();
        assert_eq!(read_fileno(&mut w, f).unwrap(), 7);
        assert!(has_magic(read_flags(&mut w, f).unwrap()));
        set_eof(&mut w, f, true).unwrap();
        assert_eq!(w.proc.mem.read_i32(f + OFF_EOF).unwrap(), 1);
    }

    #[test]
    fn ungetc_slot() {
        let mut w = World::new();
        let f = w.alloc_buf(FILE_SIZE);
        init_file_object(&mut w.proc, f, 3, F_READ).unwrap();
        assert_eq!(take_ungetc(&mut w, f).unwrap(), None);
        store_ungetc(&mut w, f, b'x').unwrap();
        assert_eq!(take_ungetc(&mut w, f).unwrap(), Some(b'x'));
        assert_eq!(take_ungetc(&mut w, f).unwrap(), None);
        // A NUL byte is representable.
        store_ungetc(&mut w, f, 0).unwrap();
        assert_eq!(take_ungetc(&mut w, f).unwrap(), Some(0));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode(b"r"), Some((true, false, false)));
        assert_eq!(parse_mode(b"r+"), Some((true, true, false)));
        assert_eq!(parse_mode(b"w"), Some((false, true, false)));
        assert_eq!(parse_mode(b"wb+"), Some((true, true, false)));
        assert_eq!(parse_mode(b"a"), Some((false, true, true)));
        assert_eq!(parse_mode(b"x"), None);
        assert_eq!(parse_mode(b""), None);
    }

    #[test]
    fn garbage_file_reports_garbage_fileno() {
        // The essential authenticity property: fileno on a readable but
        // garbage region returns the garbage, it does not fail.
        let mut w = World::new();
        let junk = w.alloc_buf(FILE_SIZE);
        w.proc.mem.write_i32(junk + OFF_FILENO, -123456).unwrap();
        assert_eq!(read_fileno(&mut w, junk).unwrap(), -123456);
    }
}
