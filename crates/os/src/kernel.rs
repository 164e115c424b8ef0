//! The syscall surface: file descriptors, I/O, directories, terminals.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::errno::{self, Errno};
use crate::fs::{FileStat, NodeId, NodeKind, Vfs, S_IFCHR};
use crate::tty::{Termios, Tty};

/// A file descriptor.
pub type Fd = i32;

/// Open mode flags (a structured view of `O_RDONLY`/`O_WRONLY`/…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Permit reads.
    pub read: bool,
    /// Permit writes.
    pub write: bool,
    /// Position writes at end of file.
    pub append: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn read_only() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    pub fn write_create() -> Self {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..Default::default()
        }
    }

    /// `O_RDWR`.
    pub fn read_write() -> Self {
        OpenFlags {
            read: true,
            write: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_APPEND`.
    pub fn append() -> Self {
        OpenFlags {
            write: true,
            create: true,
            append: true,
            ..Default::default()
        }
    }
}

/// A directory entry as returned by the kernel's directory iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number.
    pub ino: u32,
    /// Entry name.
    pub name: String,
    /// `DT_REG` (8) or `DT_DIR` (4).
    pub d_type: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Desc {
    File(NodeId),
    Tty(usize),
    PipeRead(usize),
    PipeWrite(usize),
}

#[derive(Debug, Clone)]
struct OpenFile {
    desc: Desc,
    offset: u32,
    flags: OpenFlags,
}

#[derive(Debug, Clone, Default)]
struct Pipe {
    buf: VecDeque<u8>,
    write_open: bool,
}

/// Maximum number of open descriptors per process.
pub const OPEN_MAX: usize = 256;

/// The simulated kernel: filesystem + descriptor table + terminals + a
/// deterministic clock.
///
/// `Clone` is a `fork()`: the filesystem, the descriptor table, the
/// terminals (with their I/O buffers) and the pipes are `Arc`-shared,
/// and each is copied on the first write to it ([`Arc::make_mut`]).
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The filesystem.
    pub vfs: Vfs,
    fds: Arc<Vec<Option<OpenFile>>>,
    ttys: Arc<Vec<Tty>>,
    pipes: Arc<Vec<Pipe>>,
    umask: u32,
    clock: i64,
    pid: i32,
}

impl Kernel {
    /// An empty kernel: bare root filesystem, no descriptors, one tty.
    pub fn new() -> Self {
        Kernel {
            vfs: Vfs::new(),
            fds: Arc::new(vec![None; OPEN_MAX]),
            ttys: Arc::new(vec![Tty::default()]),
            pipes: Arc::new(Vec::new()),
            umask: 0o022,
            clock: 1_000_000_000, // a fixed epoch; determinism over realism
            pid: 4242,
        }
    }

    /// A kernel with the standard layout: `/tmp`, `/etc`, `/home`, `/dev`,
    /// a few seed files, and fds 0/1/2 connected to the tty.
    pub fn with_standard_layout() -> Self {
        let mut k = Kernel::new();
        for d in ["/tmp", "/etc", "/home", "/dev", "/home/user"] {
            k.vfs.mkdir(d, 0o755, k.clock).unwrap();
        }
        k.write_file(
            "/etc/passwd",
            b"root:x:0:0:root:/root:/bin/sh\nuser:x:1000:1000::/home/user:/bin/sh\n",
        )
        .unwrap();
        k.write_file("/etc/hosts", b"127.0.0.1 localhost\n")
            .unwrap();
        k.write_file(
            "/home/user/data.txt",
            b"The quick brown fox jumps over the lazy dog.\n",
        )
        .unwrap();
        for fd in 0..3 {
            k.fds_mut()[fd] = Some(OpenFile {
                desc: Desc::Tty(0),
                offset: 0,
                flags: OpenFlags::read_write(),
            });
        }
        k
    }

    /// A copy sharing no storage with `self` — the reference deep-copy
    /// path for world snapshots. Plain `clone()` shares the filesystem,
    /// the descriptor table, the terminals and the pipes copy-on-write.
    pub fn deep_clone(&self) -> Kernel {
        Kernel {
            vfs: self.vfs.deep_clone(),
            fds: Arc::new(self.fds.to_vec()),
            ttys: Arc::new(self.ttys.to_vec()),
            pipes: Arc::new(self.pipes.to_vec()),
            ..self.clone()
        }
    }

    fn fds_mut(&mut self) -> &mut Vec<Option<OpenFile>> {
        Arc::make_mut(&mut self.fds)
    }

    fn ttys_mut(&mut self) -> &mut Vec<Tty> {
        Arc::make_mut(&mut self.ttys)
    }

    fn pipes_mut(&mut self) -> &mut Vec<Pipe> {
        Arc::make_mut(&mut self.pipes)
    }

    /// The simulated wall clock (seconds).
    pub fn now(&self) -> i64 {
        self.clock
    }

    /// Advance the clock.
    pub fn advance_clock(&mut self, secs: i64) {
        self.clock += secs;
    }

    /// The process id.
    pub fn getpid(&self) -> i32 {
        self.pid
    }

    /// Set the file-mode creation mask, returning the previous mask.
    pub fn umask(&mut self, mask: u32) -> u32 {
        std::mem::replace(&mut self.umask, mask & 0o777)
    }

    fn alloc_fd(&mut self) -> Result<Fd, Errno> {
        for (i, slot) in self.fds.iter().enumerate() {
            if slot.is_none() {
                return Ok(i as Fd);
            }
        }
        Err(errno::EMFILE)
    }

    fn entry(&self, fd: Fd) -> Result<&OpenFile, Errno> {
        if fd < 0 {
            return Err(errno::EBADF);
        }
        self.fds
            .get(fd as usize)
            .and_then(|e| e.as_ref())
            .ok_or(errno::EBADF)
    }

    fn entry_mut(&mut self, fd: Fd) -> Result<&mut OpenFile, Errno> {
        if fd < 0 {
            return Err(errno::EBADF);
        }
        self.fds_mut()
            .get_mut(fd as usize)
            .and_then(|e| e.as_mut())
            .ok_or(errno::EBADF)
    }

    /// Whether `fd` names an open descriptor.
    pub fn fd_is_open(&self, fd: Fd) -> bool {
        self.entry(fd).is_ok()
    }

    /// The open flags of a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for closed descriptors.
    pub fn fd_flags(&self, fd: Fd) -> Result<OpenFlags, Errno> {
        Ok(self.entry(fd)?.flags)
    }

    /// Open a file.
    ///
    /// # Errors
    ///
    /// Standard open errors: `ENOENT`, `EISDIR` for write access to a
    /// directory, `EACCES`, `EMFILE`.
    pub fn open(&mut self, path: &str, flags: OpenFlags, mode: u32) -> Result<Fd, Errno> {
        let node = match self.vfs.resolve(path) {
            Ok(n) => {
                if flags.truncate && self.vfs.kind(n) == NodeKind::File {
                    self.vfs.truncate(n, 0)?;
                }
                n
            }
            Err(errno::ENOENT) if flags.create => {
                let now = self.clock;
                self.vfs.create_file(path, mode & !self.umask, now)?
            }
            Err(e) => return Err(e),
        };
        if self.vfs.kind(node) == NodeKind::Directory && flags.write {
            return Err(errno::EISDIR);
        }
        let offset = if flags.append {
            self.vfs.stat(node).size
        } else {
            0
        };
        let fd = self.alloc_fd()?;
        self.fds_mut()[fd as usize] = Some(OpenFile {
            desc: Desc::File(node),
            offset,
            flags,
        });
        Ok(fd)
    }

    /// Close a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for closed descriptors.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let entry = self.entry(fd)?.clone();
        if let Desc::PipeWrite(p) = entry.desc {
            self.pipes_mut()[p].write_open = false;
        }
        self.fds_mut()[fd as usize] = None;
        Ok(())
    }

    /// Read up to `len` bytes from a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` if closed or not opened for reading; `EISDIR` for
    /// directory descriptors.
    pub fn read(&mut self, fd: Fd, len: u32) -> Result<Vec<u8>, Errno> {
        let entry = self.entry(fd)?.clone();
        if !entry.flags.read {
            return Err(errno::EBADF);
        }
        match entry.desc {
            Desc::File(node) => {
                if self.vfs.kind(node) == NodeKind::Directory {
                    return Err(errno::EISDIR);
                }
                let data = self.vfs.read_at(node, entry.offset, len)?;
                self.entry_mut(fd)?.offset += data.len() as u32;
                Ok(data)
            }
            Desc::Tty(t) => {
                let tty = &mut self.ttys_mut()[t];
                let n = (len as usize).min(tty.input.len());
                Ok(tty.input.drain(..n).collect())
            }
            Desc::PipeRead(p) => {
                let pipe = &mut self.pipes_mut()[p];
                let n = (len as usize).min(pipe.buf.len());
                Ok(pipe.buf.drain(..n).collect())
            }
            Desc::PipeWrite(_) => Err(errno::EBADF),
        }
    }

    /// Write bytes to a descriptor, returning the count written.
    ///
    /// # Errors
    ///
    /// `EBADF` if closed or not opened for writing; `EPIPE` for a pipe
    /// with no reader.
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<u32, Errno> {
        let entry = self.entry(fd)?.clone();
        if !entry.flags.write {
            return Err(errno::EBADF);
        }
        match entry.desc {
            Desc::File(node) => {
                let now = self.clock;
                let n = self.vfs.write_at(node, entry.offset, bytes, now)?;
                self.entry_mut(fd)?.offset += n;
                Ok(n)
            }
            Desc::Tty(t) => {
                self.ttys_mut()[t].output.extend_from_slice(bytes);
                Ok(bytes.len() as u32)
            }
            Desc::PipeWrite(p) => {
                self.pipes_mut()[p].buf.extend(bytes.iter().copied());
                Ok(bytes.len() as u32)
            }
            Desc::PipeRead(_) => Err(errno::EBADF),
        }
    }

    /// Reposition a file descriptor. `whence`: 0=SET, 1=CUR, 2=END.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ESPIPE` for ttys/pipes, `EINVAL` for bad whence or a
    /// negative result.
    pub fn lseek(&mut self, fd: Fd, offset: i64, whence: i32) -> Result<u32, Errno> {
        let entry = self.entry(fd)?.clone();
        let Desc::File(node) = entry.desc else {
            return Err(errno::ESPIPE);
        };
        let size = self.vfs.stat(node).size as i64;
        let base = match whence {
            0 => 0,
            1 => entry.offset as i64,
            2 => size,
            _ => return Err(errno::EINVAL),
        };
        let target = base + offset;
        if !(0..=u32::MAX as i64).contains(&target) {
            return Err(errno::EINVAL);
        }
        self.entry_mut(fd)?.offset = target as u32;
        Ok(target as u32)
    }

    /// Duplicate a descriptor onto the lowest free slot.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EMFILE`.
    pub fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let entry = self.entry(fd)?.clone();
        let new = self.alloc_fd()?;
        self.fds_mut()[new as usize] = Some(entry);
        Ok(new)
    }

    /// Duplicate `fd` onto `newfd`, closing `newfd` first if open.
    ///
    /// # Errors
    ///
    /// `EBADF` for a bad source or an out-of-range target.
    pub fn dup2(&mut self, fd: Fd, newfd: Fd) -> Result<Fd, Errno> {
        let entry = self.entry(fd)?.clone();
        if newfd < 0 || newfd as usize >= OPEN_MAX {
            return Err(errno::EBADF);
        }
        self.fds_mut()[newfd as usize] = Some(entry);
        Ok(newfd)
    }

    /// Create a pipe, returning (read end, write end).
    ///
    /// # Errors
    ///
    /// `EMFILE` when the descriptor table is full.
    pub fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        let p = self.pipes.len();
        self.pipes_mut().push(Pipe {
            buf: VecDeque::new(),
            write_open: true,
        });
        let r = self.alloc_fd()?;
        self.fds_mut()[r as usize] = Some(OpenFile {
            desc: Desc::PipeRead(p),
            offset: 0,
            flags: OpenFlags::read_only(),
        });
        let w = self.alloc_fd()?;
        self.fds_mut()[w as usize] = Some(OpenFile {
            desc: Desc::PipeWrite(p),
            offset: 0,
            flags: OpenFlags {
                write: true,
                ..Default::default()
            },
        });
        Ok((r, w))
    }

    /// `stat` by path.
    ///
    /// # Errors
    ///
    /// Path resolution errors.
    pub fn stat(&self, path: &str) -> Result<FileStat, Errno> {
        Ok(self.vfs.stat(self.vfs.resolve(path)?))
    }

    /// `fstat` by descriptor. Terminals report a character device.
    ///
    /// # Errors
    ///
    /// `EBADF` for closed descriptors.
    pub fn fstat(&self, fd: Fd) -> Result<FileStat, Errno> {
        let entry = self.entry(fd)?;
        match entry.desc {
            Desc::File(node) => Ok(self.vfs.stat(node)),
            Desc::Tty(_) => Ok(FileStat {
                ino: 0,
                mode: S_IFCHR | 0o620,
                nlink: 1,
                size: 0,
                mtime: self.clock,
            }),
            Desc::PipeRead(_) | Desc::PipeWrite(_) => Ok(FileStat {
                ino: 0,
                mode: 0o010600, // FIFO
                nlink: 1,
                size: 0,
                mtime: self.clock,
            }),
        }
    }

    /// `access`: check whether `path` exists (mode checks are advisory).
    ///
    /// # Errors
    ///
    /// Path resolution errors.
    pub fn access(&self, path: &str, _mode: i32) -> Result<(), Errno> {
        self.vfs.resolve(path).map(|_| ())
    }

    /// Whether a descriptor refers to a terminal.
    ///
    /// # Errors
    ///
    /// `EBADF` for closed descriptors, `ENOTTY` for non-terminals (so the
    /// caller can distinguish "no" from "bad fd", as `isatty` must).
    pub fn isatty(&self, fd: Fd) -> Result<(), Errno> {
        match self.entry(fd)?.desc {
            Desc::Tty(_) => Ok(()),
            _ => Err(errno::ENOTTY),
        }
    }

    /// Read a terminal's attributes.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ENOTTY`.
    pub fn tcgetattr(&self, fd: Fd) -> Result<Termios, Errno> {
        match self.entry(fd)?.desc {
            Desc::Tty(t) => Ok(self.ttys[t].termios.clone()),
            _ => Err(errno::ENOTTY),
        }
    }

    /// Set a terminal's attributes.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ENOTTY`, `EINVAL` for invalid baud rates.
    pub fn tcsetattr(&mut self, fd: Fd, attrs: Termios) -> Result<(), Errno> {
        if !Termios::is_valid_speed(attrs.c_ispeed) || !Termios::is_valid_speed(attrs.c_ospeed) {
            return Err(errno::EINVAL);
        }
        match self.entry(fd)?.desc {
            Desc::Tty(t) => {
                self.ttys_mut()[t].termios = attrs;
                Ok(())
            }
            _ => Err(errno::ENOTTY),
        }
    }

    /// Queue bytes as terminal input (test helper).
    pub fn type_input(&mut self, tty: usize, bytes: &[u8]) {
        self.ttys_mut()[tty].input.extend_from_slice(bytes);
    }

    /// The bytes written to a terminal so far (test helper).
    pub fn tty_output(&self, tty: usize) -> &[u8] {
        &self.ttys[tty].output
    }

    /// Directory iteration: the `index`-th entry of the directory open at
    /// `fd`.
    ///
    /// # Errors
    ///
    /// `EBADF` for closed descriptors, `ENOTDIR` for non-directories.
    pub fn read_dir_entry(&self, fd: Fd, index: u32) -> Result<Option<DirEntry>, Errno> {
        let entry = self.entry(fd)?;
        let Desc::File(node) = entry.desc else {
            return Err(errno::ENOTDIR);
        };
        let list = self.vfs.list(node)?;
        Ok(list.get(index as usize).map(|(name, id, kind)| DirEntry {
            ino: id.0,
            name: name.clone(),
            d_type: match kind {
                NodeKind::File => 8,      // DT_REG
                NodeKind::Directory => 4, // DT_DIR
            },
        }))
    }

    /// Convenience: create/overwrite a file with contents.
    ///
    /// # Errors
    ///
    /// Path resolution / creation errors.
    pub fn write_file(&mut self, path: &str, contents: &[u8]) -> Result<(), Errno> {
        let now = self.clock;
        let node = self.vfs.create_file(path, 0o644, now)?;
        self.vfs.write_at(node, 0, contents, now)?;
        Ok(())
    }

    /// Convenience: read a whole file.
    ///
    /// # Errors
    ///
    /// Path resolution errors.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let node = self.vfs.resolve(path)?;
        let size = self.vfs.stat(node).size;
        self.vfs.read_at(node, 0, size)
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::with_standard_layout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_read_write_close() {
        let mut k = Kernel::with_standard_layout();
        let fd = k.open("/tmp/f", OpenFlags::write_create(), 0o644).unwrap();
        assert_eq!(k.write(fd, b"hello").unwrap(), 5);
        k.close(fd).unwrap();

        let fd = k.open("/tmp/f", OpenFlags::read_only(), 0).unwrap();
        assert_eq!(k.read(fd, 100).unwrap(), b"hello");
        // Read past EOF returns empty.
        assert!(k.read(fd, 100).unwrap().is_empty());
        // Writing a read-only fd is EBADF.
        assert_eq!(k.write(fd, b"x").unwrap_err(), errno::EBADF);
        k.close(fd).unwrap();
        assert_eq!(k.close(fd).unwrap_err(), errno::EBADF);
    }

    #[test]
    fn lseek_semantics() {
        let mut k = Kernel::with_standard_layout();
        let fd = k.open("/tmp/f", OpenFlags::write_create(), 0o644).unwrap();
        k.write(fd, b"0123456789").unwrap();
        assert_eq!(k.lseek(fd, -4, 2).unwrap(), 6);
        assert_eq!(k.lseek(fd, 2, 1).unwrap(), 8);
        assert_eq!(k.lseek(fd, 0, 0).unwrap(), 0);
        assert_eq!(k.lseek(fd, -1, 0).unwrap_err(), errno::EINVAL);
        assert_eq!(k.lseek(fd, 0, 9).unwrap_err(), errno::EINVAL);
        assert_eq!(k.lseek(0, 0, 0).unwrap_err(), errno::ESPIPE);
        assert_eq!(k.lseek(77, 0, 0).unwrap_err(), errno::EBADF);
    }

    #[test]
    fn bad_fd_is_ebadf_never_a_crash() {
        let mut k = Kernel::with_standard_layout();
        for fd in [-1, 77, 9999] {
            assert_eq!(k.read(fd, 1).unwrap_err(), errno::EBADF);
            assert_eq!(k.write(fd, b"x").unwrap_err(), errno::EBADF);
            assert_eq!(k.fstat(fd).unwrap_err(), errno::EBADF);
        }
    }

    #[test]
    fn dup_and_dup2_share_state() {
        let mut k = Kernel::with_standard_layout();
        let fd = k.open("/etc/passwd", OpenFlags::read_only(), 0).unwrap();
        let d = k.dup(fd).unwrap();
        assert_ne!(fd, d);
        assert!(k.fd_is_open(d));
        let e = k.dup2(fd, 10).unwrap();
        assert_eq!(e, 10);
        assert!(k.fd_is_open(10));
        assert_eq!(k.dup(999).unwrap_err(), errno::EBADF);
        assert_eq!(k.dup2(fd, -3).unwrap_err(), errno::EBADF);
    }

    #[test]
    fn tty_io_and_isatty() {
        let mut k = Kernel::with_standard_layout();
        assert!(k.isatty(0).is_ok());
        k.type_input(0, b"typed");
        assert_eq!(k.read(0, 3).unwrap(), b"typ");
        k.write(1, b"printed").unwrap();
        assert_eq!(k.tty_output(0), b"printed");
        let fd = k.open("/etc/hosts", OpenFlags::read_only(), 0).unwrap();
        assert_eq!(k.isatty(fd).unwrap_err(), errno::ENOTTY);
    }

    #[test]
    fn termios_roundtrip_and_validation() {
        let mut k = Kernel::with_standard_layout();
        let mut t = k.tcgetattr(0).unwrap();
        t.c_ispeed = crate::tty::B38400;
        k.tcsetattr(0, t.clone()).unwrap();
        assert_eq!(k.tcgetattr(0).unwrap().c_ispeed, crate::tty::B38400);
        t.c_ospeed = 31337;
        assert_eq!(k.tcsetattr(0, t).unwrap_err(), errno::EINVAL);
        assert_eq!(k.tcgetattr(50).unwrap_err(), errno::EBADF);
    }

    #[test]
    fn directory_iteration() {
        let mut k = Kernel::with_standard_layout();
        k.write_file("/tmp/a", b"1").unwrap();
        k.write_file("/tmp/b", b"2").unwrap();
        let fd = k.open("/tmp", OpenFlags::read_only(), 0).unwrap();
        let e0 = k.read_dir_entry(fd, 0).unwrap().unwrap();
        let e1 = k.read_dir_entry(fd, 1).unwrap().unwrap();
        assert_eq!(e0.name, "a");
        assert_eq!(e1.name, "b");
        assert_eq!(e0.d_type, 8);
        assert!(k.read_dir_entry(fd, 2).unwrap().is_none());
        // Iterating a regular file is ENOTDIR.
        let f = k.open("/tmp/a", OpenFlags::read_only(), 0).unwrap();
        assert_eq!(k.read_dir_entry(f, 0).unwrap_err(), errno::ENOTDIR);
    }

    #[test]
    fn pipes_move_bytes() {
        let mut k = Kernel::with_standard_layout();
        let (r, w) = k.pipe().unwrap();
        k.write(w, b"through the pipe").unwrap();
        assert_eq!(k.read(r, 7).unwrap(), b"through");
        // Wrong-direction operations are EBADF.
        assert_eq!(k.read(w, 1).unwrap_err(), errno::EBADF);
        assert_eq!(k.write(r, b"x").unwrap_err(), errno::EBADF);
    }

    #[test]
    fn append_mode_positions_at_end() {
        let mut k = Kernel::with_standard_layout();
        k.write_file("/tmp/log", b"first\n").unwrap();
        let fd = k.open("/tmp/log", OpenFlags::append(), 0o644).unwrap();
        k.write(fd, b"second\n").unwrap();
        assert_eq!(k.read_file("/tmp/log").unwrap(), b"first\nsecond\n");
    }

    #[test]
    fn umask_applies_to_created_files() {
        let mut k = Kernel::with_standard_layout();
        let old = k.umask(0o077);
        assert_eq!(old, 0o022);
        let fd = k
            .open("/tmp/secret", OpenFlags::write_create(), 0o666)
            .unwrap();
        k.close(fd).unwrap();
        assert_eq!(k.stat("/tmp/secret").unwrap().mode & 0o777, 0o600);
    }

    #[test]
    fn descriptor_table_exhaustion_is_emfile() {
        let mut k = Kernel::with_standard_layout();
        k.write_file("/tmp/x", b"1").unwrap();
        let mut opened = Vec::new();
        loop {
            match k.open("/tmp/x", OpenFlags::read_only(), 0) {
                Ok(fd) => opened.push(fd),
                Err(e) => {
                    assert_eq!(e, errno::EMFILE);
                    break;
                }
            }
            assert!(opened.len() <= OPEN_MAX, "never ran out of descriptors");
        }
        // Closing one frees a slot again.
        k.close(opened[0]).unwrap();
        assert!(k.open("/tmp/x", OpenFlags::read_only(), 0).is_ok());
    }

    #[test]
    fn rename_replaces_existing_target() {
        let mut k = Kernel::with_standard_layout();
        k.write_file("/tmp/a", b"source").unwrap();
        k.write_file("/tmp/b", b"target").unwrap();
        k.vfs.rename("/tmp/a", "/tmp/b").unwrap();
        assert!(k.stat("/tmp/a").is_err());
        assert_eq!(k.read_file("/tmp/b").unwrap(), b"source");
    }

    #[test]
    fn open_directory_for_write_is_eisdir() {
        let mut k = Kernel::with_standard_layout();
        assert_eq!(
            k.open("/tmp", OpenFlags::write_create(), 0o644)
                .unwrap_err(),
            errno::EISDIR
        );
        // Read-only directory opens are fine (opendir needs them).
        assert!(k.open("/tmp", OpenFlags::read_only(), 0).is_ok());
    }

    #[test]
    fn clock_and_pid() {
        let mut k = Kernel::with_standard_layout();
        let t0 = k.now();
        k.advance_clock(5);
        assert_eq!(k.now(), t0 + 5);
        assert!(k.getpid() > 0);
    }
}
