//! The combined machine image: process memory + kernel + libc-internal
//! state.

use std::collections::BTreeMap;
use std::sync::Arc;

use healers_os::Kernel;
use healers_simproc::{Addr, CowStats, SimFault, SimProcess, SimValue, WorldSnapshot};

use crate::file;

/// The complete state a simulated program runs against. Cloning a `World`
/// copies everything — process memory, heap metadata, kernel state,
/// environment — and [`WorldSnapshot::snapshot`] is the clone calls are
/// sandboxed in for fault containment. The copy is copy-on-write
/// throughout, as a `fork()` is: page frames, the page table, the heap
/// block table, the named statics, filesystem contents, the descriptor
/// table, terminals, pipes and the environment are all reference-shared
/// until one image writes. What is copied eagerly is a few words of
/// cursors and counters plus the thread table, whose `errno` every
/// contained call resets.
#[derive(Debug, Clone)]
pub struct World {
    /// The process image (memory, heap, errno, fuel).
    pub proc: SimProcess,
    /// The kernel (filesystem, descriptors, terminals, clock).
    pub kernel: Kernel,
    /// Environment variables (canonical store; string images are
    /// materialized into static memory on demand by `getenv`), shared
    /// copy-on-write: write through [`Arc::make_mut`].
    pub env: Arc<BTreeMap<String, String>>,
    /// `rand`/`srand` LCG state.
    pub rand_state: u64,
    /// Counter for `tmpfile`/`tmpnam` names.
    pub tmp_counter: u32,
    /// Address of the `stdin` FILE object.
    pub stdin_file: Addr,
    /// Address of the `stdout` FILE object.
    pub stdout_file: Addr,
    /// Address of the `stderr` FILE object.
    pub stderr_file: Addr,
}

impl World {
    /// A fresh world: standard kernel layout, standard streams wired to
    /// the terminal, a small default environment.
    pub fn new() -> Self {
        let mut proc = SimProcess::new();
        // The stdio mode-string scratch buffer: an 8-byte internal buffer
        // placed at the very end of its own page, with the next page
        // unmapped. `fopen`/`freopen`/`fdopen` copy the caller's mode
        // string here without a bounds check — the glibc-2.2-era bug the
        // paper's fault injector discovers (mode strings longer than 7
        // characters overflow and fault).
        proc.mem.map(
            crate::stdio::MODE_SCRATCH_PAGE,
            healers_simproc::PAGE_SIZE,
            healers_simproc::Protection::ReadWrite,
        );
        let kernel = Kernel::with_standard_layout();
        let stdin_file = file::create_file_object(&mut proc, 0, file::F_READ);
        let stdout_file = file::create_file_object(&mut proc, 1, file::F_WRITE);
        let stderr_file = file::create_file_object(&mut proc, 2, file::F_WRITE);
        let mut env = BTreeMap::new();
        env.insert("HOME".to_string(), "/home/user".to_string());
        env.insert("PATH".to_string(), "/bin:/usr/bin".to_string());
        env.insert("TZ".to_string(), "UTC".to_string());
        World {
            proc,
            kernel,
            env: Arc::new(env),
            rand_state: 1,
            tmp_counter: 0,
            stdin_file,
            stdout_file,
            stderr_file,
        }
    }

    /// A fresh world with the heap in guarded (electric-fence) mode, as
    /// used by the fault injector.
    pub fn new_guarded() -> Self {
        let mut w = World::new();
        w.proc.heap.set_mode(healers_simproc::HeapMode::Guarded);
        w
    }

    /// Allocate a NUL-terminated string on the heap and return its
    /// address.
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion (a harness configuration error).
    pub fn alloc_cstr(&mut self, s: &str) -> Addr {
        let bytes = s.as_bytes();
        let addr = self
            .proc
            .heap_alloc(bytes.len() as u32 + 1)
            .expect("harness out of simulated memory");
        self.proc
            .write_cstr(addr, bytes)
            .expect("fresh allocation must be writable");
        addr
    }

    /// Allocate a raw buffer on the heap.
    ///
    /// # Panics
    ///
    /// Panics on heap exhaustion (a harness configuration error).
    pub fn alloc_buf(&mut self, len: u32) -> Addr {
        self.proc
            .heap_alloc(len)
            .expect("harness out of simulated memory")
    }

    /// Read a NUL-terminated string at `addr` as UTF-8 (lossy).
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    pub fn read_cstr_lossy(&mut self, addr: Addr) -> Result<String, SimFault> {
        let bytes = self.proc.read_cstr(addr)?;
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Set `errno` and return an error value — the standard C error
    /// convention (`errno = e; return v;`).
    pub fn fail(&mut self, e: i32, v: SimValue) -> Result<SimValue, SimFault> {
        self.proc.set_errno(e);
        Ok(v)
    }
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

impl World {
    /// A full deep copy sharing no storage with `self` — the
    /// containment a copy-on-write snapshot replaced, kept as the
    /// reference that differential tests compare snapshots against.
    pub fn deep_clone(&self) -> Self {
        World {
            proc: self.proc.deep_clone(),
            kernel: self.kernel.deep_clone(),
            env: Arc::new((*self.env).clone()),
            ..*self
        }
    }
}

impl WorldSnapshot for World {
    fn snapshot(&self) -> Self {
        World {
            proc: self.proc.snapshot(),
            kernel: self.kernel.clone(),
            env: Arc::clone(&self.env),
            ..*self
        }
    }

    fn cow_stats(&self) -> CowStats {
        self.proc.cow_stats()
    }
}

/// Fetch argument `i` as a pointer (C's weakly-typed call boundary:
/// integers coerce).
pub fn ptr_arg(args: &[SimValue], i: usize) -> Addr {
    args.get(i).copied().unwrap_or(SimValue::Void).as_ptr()
}

/// Fetch argument `i` as an integer.
pub fn int_arg(args: &[SimValue], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(SimValue::Void).as_int()
}

/// Fetch argument `i` as a double.
pub fn dbl_arg(args: &[SimValue], i: usize) -> f64 {
    args.get(i).copied().unwrap_or(SimValue::Void).as_double()
}

#[cfg(test)]
mod tests {
    use super::*;
    use healers_os::OpenFlags;

    #[test]
    fn fresh_world_has_standard_streams() {
        let mut w = World::new();
        assert_ne!(w.stdin_file, 0);
        let (fin, fout, ferr) = (w.stdin_file, w.stdout_file, w.stderr_file);
        assert_eq!(file::read_fileno(&mut w, fin).unwrap(), 0);
        assert_eq!(file::read_fileno(&mut w, fout).unwrap(), 1);
        assert_eq!(file::read_fileno(&mut w, ferr).unwrap(), 2);
    }

    #[test]
    fn alloc_cstr_roundtrip() {
        let mut w = World::new();
        let a = w.alloc_cstr("robust");
        assert_eq!(w.read_cstr_lossy(a).unwrap(), "robust");
    }

    #[test]
    fn world_clone_isolates_env() {
        let mut w = World::new();
        let mut w2 = w.clone();
        Arc::make_mut(&mut w2.env).insert("X".into(), "1".into());
        assert!(!w.env.contains_key("X"));
        Arc::make_mut(&mut w.env).insert("Y".into(), "2".into());
        assert!(!w2.env.contains_key("Y"));
    }

    // Snapshot isolation of each copy-on-write part of the kernel and
    // process: a write in the child leaves the parent as it was, and a
    // write in the parent leaves the child as it was.

    #[test]
    fn snapshot_isolates_env() {
        let libc = crate::Libc::standard();
        let mut parent = World::new();
        let mut child = parent.snapshot();
        let (x, one) = (child.alloc_cstr("X"), child.alloc_cstr("1"));
        let args = [SimValue::Ptr(x), SimValue::Ptr(one), SimValue::Int(1)];
        libc.call(&mut child, "setenv", &args).unwrap();
        assert_eq!(child.env.get("X").map(String::as_str), Some("1"));
        assert!(!parent.env.contains_key("X"));
        let home = parent.alloc_cstr("HOME");
        libc.call(&mut parent, "unsetenv", &[SimValue::Ptr(home)])
            .unwrap();
        assert!(!parent.env.contains_key("HOME"));
        assert!(child.env.contains_key("HOME"));
        // Unsetting a name that is not set copies nothing.
        let mut grandchild = child.snapshot();
        let missing = grandchild.alloc_cstr("NOT_SET");
        libc.call(&mut grandchild, "unsetenv", &[SimValue::Ptr(missing)])
            .unwrap();
        assert!(Arc::ptr_eq(&child.env, &grandchild.env));
    }

    #[test]
    fn snapshot_isolates_fds_and_offsets() {
        let mut parent = World::new();
        let hosts = parent
            .kernel
            .open("/etc/hosts", OpenFlags::read_only(), 0)
            .unwrap();
        let mut child = parent.snapshot();
        // Child: a read moves only its own offset; open and close stay
        // in its own table.
        assert_eq!(child.kernel.read(hosts, 4).unwrap(), b"127.");
        let fd = child
            .kernel
            .open("/tmp/c", OpenFlags::write_create(), 0o644)
            .unwrap();
        child.kernel.close(0).unwrap();
        assert!(!parent.kernel.fd_is_open(fd));
        assert!(parent.kernel.fd_is_open(0));
        assert_eq!(parent.kernel.read(hosts, 4).unwrap(), b"127.");
        // Parent: the reverse.
        parent.kernel.close(1).unwrap();
        assert_eq!(parent.kernel.dup(hosts).unwrap(), 1);
        assert!(child.kernel.isatty(1).is_ok());
        assert_eq!(child.kernel.read(hosts, 4).unwrap(), b"0.0.");
    }

    #[test]
    fn snapshot_isolates_tty_input_and_output() {
        let mut parent = World::new();
        parent.kernel.type_input(0, b"abc");
        let mut child = parent.snapshot();
        assert_eq!(child.kernel.read(0, 2).unwrap(), b"ab");
        child.kernel.write(1, b"from child").unwrap();
        assert_eq!(parent.kernel.tty_output(0), b"");
        assert_eq!(parent.kernel.read(0, 3).unwrap(), b"abc");
        parent.kernel.write(1, b"from parent").unwrap();
        parent.kernel.type_input(0, b"more");
        assert_eq!(child.kernel.tty_output(0), b"from child");
        assert_eq!(child.kernel.read(0, 8).unwrap(), b"c");
    }

    #[test]
    fn snapshot_isolates_pipes() {
        let mut parent = World::new();
        let (r, w) = parent.kernel.pipe().unwrap();
        parent.kernel.write(w, b"p").unwrap();
        let mut child = parent.snapshot();
        assert_eq!(child.kernel.read(r, 8).unwrap(), b"p");
        child.kernel.write(w, b"c").unwrap();
        let (r2, _) = child.kernel.pipe().unwrap();
        assert!(!parent.kernel.fd_is_open(r2));
        assert_eq!(parent.kernel.read(r, 8).unwrap(), b"p");
        parent.kernel.write(w, b"q").unwrap();
        assert_eq!(child.kernel.read(r, 8).unwrap(), b"c");
    }

    #[test]
    fn snapshot_isolates_named_statics() {
        let mut parent = World::new();
        let a = parent.proc.named_static("a", 8);
        let mut child = parent.snapshot();
        let b = child.proc.named_static("b", 8);
        assert_eq!(child.proc.named_static_get("a"), Some(a));
        assert_eq!(parent.proc.named_static_get("b"), None);
        let c = parent.proc.named_static("c", 8);
        assert_eq!(child.proc.named_static_get("c"), None);
        // Each image carved its static from the same cursor.
        assert_eq!(b, c);
    }

    #[test]
    fn arg_helpers_tolerate_missing_args() {
        assert_eq!(ptr_arg(&[], 0), 0);
        assert_eq!(int_arg(&[SimValue::Int(9)], 0), 9);
        assert_eq!(int_arg(&[SimValue::Int(9)], 5), 0);
        assert_eq!(dbl_arg(&[SimValue::Double(1.5)], 0), 1.5);
    }
}
