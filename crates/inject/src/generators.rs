//! Test-case generators (§4.1–4.2).
//!
//! Each generator produces a finite sequence of test cases, each tagged
//! with a fundamental type, and contributes a candidate universe of
//! types for robust-type selection. The fixed-size array generator is
//! *adaptive*. Its array starts at zero bytes, ends flush against a
//! guard page, and grows while the function faults just past its end:
//! "the array is iteratively enlarged until no more segmentation faults
//! occur". The injector does not grow it one fault at a time. It asks
//! [`ArrayGen`] for arrays of chosen sizes and runs a gallop-then-bisect
//! search over them (`adaptive::search`), which ends on the size the
//! one-fault-at-a-time walk ends on. `INV-ADAPTIVE-MIN` checks that for
//! every export of the standard library.

use healers_libc::{dirent, file, World};
use healers_os::OpenFlags;
use healers_simproc::{Addr, Protection, SimValue, INVALID_PTR, PAGE_SIZE};
use healers_typesys::{universe, Outcome, TypeExpr};

use crate::case::TestCase;

/// Give-up bound for adaptive array growth.
pub const MAX_ADAPTIVE_SIZE: u32 = 64 * 1024;

/// A test-case generator for one argument.
pub trait TestCaseGenerator {
    /// Generator name (diagnostics).
    fn name(&self) -> &'static str;

    /// A value expected to be handled gracefully, used for the other
    /// arguments while this argument's cases run.
    fn benign(&mut self, world: &mut World) -> SimValue;

    /// The initial test cases (values are materialized in `world`).
    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase>;

    /// The adaptive array the injector sizes after the initial cases,
    /// if this generator has one.
    fn adaptive_array(&mut self) -> Option<&mut ArrayGen> {
        None
    }

    /// Cases that depend on what the adaptive sizing discovered — e.g.
    /// the read-only/write-only probes at the discovered array size.
    fn followup_cases(&mut self, _world: &mut World) -> Vec<TestCase> {
        Vec::new()
    }

    /// The candidate type universe this generator contributes
    /// (instantiated at discovered sizes; call after the campaign).
    fn universe(&self) -> Vec<TypeExpr>;
}

// ---------------------------------------------------------------------
// Fixed-size arrays
// ---------------------------------------------------------------------

/// The adaptive fixed-size array generator (Figure 3's hierarchy).
pub struct ArrayGen {
    /// The size adaptive sizing ended on, and whether the call returned
    /// there.
    sized: Option<(u32, bool)>,
}

impl ArrayGen {
    /// A fresh array generator.
    pub fn new() -> Self {
        ArrayGen { sized: None }
    }

    /// The array size the adaptive phase discovered, if any.
    pub fn discovered_size(&self) -> Option<u32> {
        match self.sized {
            Some((size, true)) => Some(size),
            _ => None,
        }
    }

    /// A fresh read-write array of exactly `size` bytes, ending flush
    /// against its guard page: the adaptive case at that size.
    pub(crate) fn adaptive_case(&mut self, world: &mut World, size: u32) -> TestCase {
        let base = self.alloc(world, size, Protection::ReadWrite);
        let label = match size {
            0 => "adaptive rw array".to_string(),
            _ => format!("adaptive rw array grown to {size}"),
        };
        TestCase::new(SimValue::Ptr(base), TypeExpr::RwFixed(size), label)
    }

    /// How many bytes the array at `base` of `size` bytes must have to
    /// cover a fault at `addr`, if the fault is in its guard page
    /// `[base + size, base + size + PAGE_SIZE)`. A fault anywhere else
    /// (inside the block: a protection mismatch) is not fixed by growth.
    pub(crate) fn fault_needs(base: Addr, size: u32, addr: Addr) -> Option<u32> {
        let end = base + size;
        if (end..end + PAGE_SIZE).contains(&addr) {
            Some(addr - base + 1)
        } else {
            None
        }
    }

    /// Record where adaptive sizing ended: the final probe's size and
    /// outcome.
    pub(crate) fn settle(&mut self, size: u32, outcome: Outcome) {
        self.sized = Some((size, outcome.returned()));
    }

    fn alloc(&mut self, world: &mut World, size: u32, prot: Protection) -> Addr {
        world
            .proc
            .heap
            .alloc_with_prot(&mut world.proc.mem, size, prot)
            .expect("injector heap exhausted")
    }
}

impl Default for ArrayGen {
    fn default() -> Self {
        ArrayGen::new()
    }
}

impl TestCaseGenerator for ArrayGen {
    fn name(&self) -> &'static str {
        "fixed-size-array"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        SimValue::Ptr(self.alloc(world, 4096, Protection::ReadWrite))
    }

    fn initial_cases(&mut self, _world: &mut World) -> Vec<TestCase> {
        vec![
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null pointer"),
            TestCase::new(
                SimValue::Ptr(INVALID_PTR),
                TypeExpr::Invalid,
                "invalid pointer",
            ),
        ]
    }

    fn adaptive_array(&mut self) -> Option<&mut ArrayGen> {
        Some(self)
    }

    fn followup_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let Some(s) = self.discovered_size() else {
            return Vec::new();
        };
        let mut cases = vec![
            TestCase::new(
                SimValue::Ptr(self.alloc(world, s, Protection::ReadOnly)),
                TypeExpr::RonlyFixed(s),
                format!("read-only array of {s}"),
            ),
            TestCase::new(
                SimValue::Ptr(self.alloc(world, s, Protection::WriteOnly)),
                TypeExpr::WonlyFixed(s),
                format!("write-only array of {s}"),
            ),
        ];
        if s > 0 {
            cases.push(TestCase::new(
                SimValue::Ptr(self.alloc(world, s - 1, Protection::ReadWrite)),
                TypeExpr::RwFixed(s - 1),
                format!("boundary array of {}", s - 1),
            ));
        }
        cases
    }

    fn universe(&self) -> Vec<TypeExpr> {
        // Candidates at every size the campaign observed: the discovered
        // size s* and the boundary s* - 1 of its follow-ups, or the size
        // sizing gave up on.
        let sizes = match self.sized {
            Some((s, true)) => vec![s, s.saturating_sub(1)],
            Some((s, false)) => vec![s],
            None => vec![0],
        };
        universe::fixed_size_arrays(&sizes)
    }
}

// ---------------------------------------------------------------------
// File pointers
// ---------------------------------------------------------------------

/// The `FILE*` generator (Figure 4's hierarchy) — the paper's example of
/// a *specific* generator registered for a certain type.
pub struct FileGen {
    benign_addr: Option<Addr>,
}

const INJECT_FILE: &str = "/tmp/healers_inject_data";

impl FileGen {
    /// A fresh FILE generator.
    pub fn new() -> Self {
        FileGen { benign_addr: None }
    }

    fn make_stream(world: &mut World, path: &str, flags: OpenFlags, bits: u32) -> Addr {
        if world.kernel.stat(path).is_err() {
            world
                .kernel
                .write_file(path, &vec![b'x'; 2048])
                .expect("injector file creation");
        }
        let fd = world
            .kernel
            .open(path, flags, 0o644)
            .expect("injector open");
        let addr = world
            .proc
            .heap_alloc(file::FILE_SIZE)
            .expect("injector heap");
        file::init_file_object(&mut world.proc, addr, fd, bits)
            .expect("fresh FILE must be writable");
        addr
    }
}

impl Default for FileGen {
    fn default() -> Self {
        FileGen::new()
    }
}

impl TestCaseGenerator for FileGen {
    fn name(&self) -> &'static str {
        "file-pointer"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        let addr = *self.benign_addr.get_or_insert_with(|| {
            FileGen::make_stream(
                world,
                INJECT_FILE,
                OpenFlags::read_write(),
                file::F_READ | file::F_WRITE,
            )
        });
        SimValue::Ptr(addr)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let ro = FileGen::make_stream(world, INJECT_FILE, OpenFlags::read_only(), file::F_READ);
        let wo = FileGen::make_stream(
            world,
            "/tmp/healers_inject_out",
            OpenFlags::write_create(),
            file::F_WRITE,
        );
        let rw = FileGen::make_stream(
            world,
            INJECT_FILE,
            OpenFlags::read_write(),
            file::F_READ | file::F_WRITE,
        );
        // A closed stream: descriptor closed, object freed.
        let closed = FileGen::make_stream(world, INJECT_FILE, OpenFlags::read_only(), file::F_READ);
        let closed_fd = file::read_fileno(world, closed).unwrap();
        let _ = world.kernel.close(closed_fd);
        let _ = world.proc.heap_free(closed);
        // Plausible garbage: right size, accessible, nonsense contents.
        let garbage = world
            .proc
            .heap_alloc(file::FILE_SIZE)
            .expect("injector heap");
        for i in 0..file::FILE_SIZE {
            let _ = world.proc.mem.write_u8(garbage + i, 0xCC);
        }
        // A corrupted stream: real descriptor, scribbled buffer pointer
        // — valid to every descriptor-level probe, lethal to buffered
        // I/O. Without this case the robust type degenerates to a plain
        // memory type (garbage streams fail *gracefully* on their bad
        // descriptor).
        let corrupt = FileGen::make_stream(
            world,
            INJECT_FILE,
            OpenFlags::read_write(),
            file::F_READ | file::F_WRITE,
        );
        let _ = world
            .proc
            .mem
            .write_u32(corrupt + file::OFF_BUFPTR, INVALID_PTR);
        vec![
            TestCase::new(SimValue::Ptr(ro), TypeExpr::RonlyFile, "read-only stream"),
            TestCase::new(SimValue::Ptr(wo), TypeExpr::WonlyFile, "write-only stream"),
            TestCase::new(SimValue::Ptr(rw), TypeExpr::RwFile, "read-write stream"),
            TestCase::new(SimValue::Ptr(closed), TypeExpr::ClosedFile, "closed stream"),
            TestCase::new(
                SimValue::Ptr(garbage),
                TypeExpr::RwFixed(file::FILE_SIZE),
                "garbage FILE-sized block",
            ),
            TestCase::new(
                SimValue::Ptr(corrupt),
                TypeExpr::RwFixed(file::FILE_SIZE),
                "corrupted stream (scribbled buffer pointer)",
            ),
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null stream"),
            TestCase::new(
                SimValue::Ptr(INVALID_PTR),
                TypeExpr::Invalid,
                "invalid stream",
            ),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        let mut u = universe::file_pointers();
        u.push(TypeExpr::RwFixed(file::FILE_SIZE));
        u.sort();
        u.dedup();
        u
    }
}

// ---------------------------------------------------------------------
// Directory pointers
// ---------------------------------------------------------------------

/// The `DIR*` generator. Its hierarchy exists, but §5.2's point is that
/// the *wrapper* has no stateless way to check `OPEN_DIR`.
pub struct DirGen {
    benign_addr: Option<Addr>,
}

const INJECT_DIR: &str = "/tmp/healers_inject_dir";

impl DirGen {
    /// A fresh DIR generator.
    pub fn new() -> Self {
        DirGen { benign_addr: None }
    }

    fn make_dir_stream(world: &mut World) -> Addr {
        if world.kernel.stat(INJECT_DIR).is_err() {
            let now = world.kernel.now();
            world
                .kernel
                .vfs
                .mkdir(INJECT_DIR, 0o755, now)
                .expect("injector mkdir");
            world
                .kernel
                .write_file(&format!("{INJECT_DIR}/entry"), b"x")
                .expect("injector file");
        }
        let fd = world
            .kernel
            .open(INJECT_DIR, OpenFlags::read_only(), 0)
            .expect("injector opendir");
        let dirp = world.proc.heap_alloc(dirent::DIR_SIZE).expect("heap");
        let buf = world.proc.heap_alloc(dirent::DIRENT_SIZE).expect("heap");
        world.proc.mem.write_i32(dirp + dirent::OFF_FD, fd).unwrap();
        world.proc.mem.write_i32(dirp + dirent::OFF_LOC, 0).unwrap();
        world
            .proc
            .mem
            .write_u32(dirp + dirent::OFF_BUF, buf)
            .unwrap();
        dirp
    }
}

impl Default for DirGen {
    fn default() -> Self {
        DirGen::new()
    }
}

impl TestCaseGenerator for DirGen {
    fn name(&self) -> &'static str {
        "dir-pointer"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        let addr = *self
            .benign_addr
            .get_or_insert_with(|| DirGen::make_dir_stream(world));
        SimValue::Ptr(addr)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let open = DirGen::make_dir_stream(world);
        // Stale: close its fd and free both blocks.
        let stale = DirGen::make_dir_stream(world);
        let fd = world.proc.mem.read_i32(stale + dirent::OFF_FD).unwrap();
        let buf = world.proc.mem.read_u32(stale + dirent::OFF_BUF).unwrap();
        let _ = world.kernel.close(fd);
        let _ = world.proc.heap_free(buf);
        let _ = world.proc.heap_free(stale);
        // Plausible garbage.
        let garbage = world.proc.heap_alloc(dirent::DIR_SIZE).expect("heap");
        for i in 0..dirent::DIR_SIZE {
            let _ = world.proc.mem.write_u8(garbage + i, 0xCC);
        }
        // Corrupted handle: live descriptor, scribbled dirent-buffer
        // pointer (see FileGen for why this case matters).
        let corrupt = DirGen::make_dir_stream(world);
        let _ = world
            .proc
            .mem
            .write_u32(corrupt + dirent::OFF_BUF, INVALID_PTR);
        vec![
            TestCase::new(SimValue::Ptr(open), TypeExpr::OpenDirF, "open DIR"),
            TestCase::new(SimValue::Ptr(stale), TypeExpr::StaleDir, "stale DIR"),
            TestCase::new(
                SimValue::Ptr(garbage),
                TypeExpr::RwFixed(dirent::DIR_SIZE),
                "garbage DIR-sized block",
            ),
            TestCase::new(
                SimValue::Ptr(corrupt),
                TypeExpr::RwFixed(dirent::DIR_SIZE),
                "corrupted DIR (scribbled buffer pointer)",
            ),
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null DIR"),
            TestCase::new(SimValue::Ptr(INVALID_PTR), TypeExpr::Invalid, "invalid DIR"),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        let mut u = universe::dir_pointers();
        u.push(TypeExpr::RwFixed(dirent::DIR_SIZE));
        u.sort();
        u.dedup();
        u
    }
}

// ---------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------

fn alloc_string(world: &mut World, text: &[u8], read_only: bool) -> Addr {
    let size = text.len() as u32 + 1;
    let addr = world
        .proc
        .heap
        .alloc_with_prot(&mut world.proc.mem, size, Protection::ReadWrite)
        .expect("injector heap");
    world.proc.write_cstr(addr, text).unwrap();
    if read_only {
        world.proc.mem.protect(addr, size, Protection::ReadOnly);
    }
    addr
}

/// The generic C-string generator.
pub struct StringGen {
    benign_addr: Option<Addr>,
}

impl StringGen {
    /// A fresh string generator.
    pub fn new() -> Self {
        StringGen { benign_addr: None }
    }
}

impl Default for StringGen {
    fn default() -> Self {
        StringGen::new()
    }
}

impl TestCaseGenerator for StringGen {
    fn name(&self) -> &'static str {
        "c-string"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        let addr = *self
            .benign_addr
            .get_or_insert_with(|| alloc_string(world, b"sample", false));
        SimValue::Ptr(addr)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let ro = alloc_string(world, b"sample", true);
        let rw = alloc_string(world, b"sample", false);
        let empty = alloc_string(world, b"", false);
        let long = alloc_string(world, &[b'A'; 200], false);
        // Unterminated: a guarded block full of non-NUL bytes.
        let unterminated = world
            .proc
            .heap
            .alloc_with_prot(&mut world.proc.mem, 64, Protection::ReadWrite)
            .expect("injector heap");
        for i in 0..64 {
            world.proc.mem.write_u8(unterminated + i, 0xAA).unwrap();
        }
        vec![
            TestCase::new(SimValue::Ptr(ro), TypeExpr::NtsRo(6), "read-only string"),
            TestCase::new(SimValue::Ptr(rw), TypeExpr::NtsRw(6), "writable string"),
            TestCase::new(SimValue::Ptr(empty), TypeExpr::NtsRw(0), "empty string"),
            TestCase::new(SimValue::Ptr(long), TypeExpr::NtsRw(200), "long string"),
            TestCase::new(
                SimValue::Ptr(unterminated),
                TypeExpr::RwFixed(64),
                "unterminated buffer",
            ),
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null string"),
            TestCase::new(
                SimValue::Ptr(INVALID_PTR),
                TypeExpr::Invalid,
                "invalid string",
            ),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        let mut u = universe::strings(&[0, 6, 200]);
        // Include small array candidates: when the function tolerates
        // unterminated buffers (atoi does), its robust type is a plain
        // readable region, not a string type.
        u.extend(universe::fixed_size_arrays(&[1, 64]));
        u.sort();
        u.dedup();
        u
    }
}

/// The `fopen`-mode-string generator (specific generator by parameter
/// name).
pub struct ModeGen {
    benign_addr: Option<Addr>,
}

impl ModeGen {
    /// A fresh mode-string generator.
    pub fn new() -> Self {
        ModeGen { benign_addr: None }
    }
}

impl Default for ModeGen {
    fn default() -> Self {
        ModeGen::new()
    }
}

impl TestCaseGenerator for ModeGen {
    fn name(&self) -> &'static str {
        "mode-string"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        let addr = *self
            .benign_addr
            .get_or_insert_with(|| alloc_string(world, b"r", false));
        SimValue::Ptr(addr)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let r = alloc_string(world, b"r", false);
        let wplus = alloc_string(world, b"w+", false);
        let bogus = alloc_string(world, b"q", false);
        let long = alloc_string(world, &[b'r'; 40], false);
        vec![
            TestCase::new(SimValue::Ptr(r), TypeExpr::ModeValid, "mode \"r\""),
            TestCase::new(SimValue::Ptr(wplus), TypeExpr::ModeValid, "mode \"w+\""),
            TestCase::new(SimValue::Ptr(bogus), TypeExpr::ModeBogus, "mode \"q\""),
            TestCase::new(SimValue::Ptr(long), TypeExpr::NtsRw(40), "overlong mode"),
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null mode"),
            TestCase::new(
                SimValue::Ptr(INVALID_PTR),
                TypeExpr::Invalid,
                "invalid mode",
            ),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        let mut u = universe::mode_strings();
        u.extend(universe::strings(&[40]));
        u.sort();
        u.dedup();
        u
    }
}

/// The path-string generator (specific generator by parameter name).
pub struct PathGen {
    benign_addr: Option<Addr>,
}

impl PathGen {
    /// A fresh path generator.
    pub fn new() -> Self {
        PathGen { benign_addr: None }
    }
}

impl Default for PathGen {
    fn default() -> Self {
        PathGen::new()
    }
}

impl TestCaseGenerator for PathGen {
    fn name(&self) -> &'static str {
        "path-string"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        let addr = *self.benign_addr.get_or_insert_with(|| {
            let _ = world.kernel.write_file("/tmp/healers_benign", b"benign");
            alloc_string(world, b"/tmp/healers_benign", false)
        });
        SimValue::Ptr(addr)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let dir = alloc_string(world, b"/tmp", false);
        let file_path = alloc_string(world, b"/etc/passwd", false);
        let missing = alloc_string(world, b"/nonexistent", false);
        let empty = alloc_string(world, b"", false);
        let unterminated = world
            .proc
            .heap
            .alloc_with_prot(&mut world.proc.mem, 64, Protection::ReadWrite)
            .expect("injector heap");
        for i in 0..64 {
            world.proc.mem.write_u8(unterminated + i, b'/').unwrap();
        }
        vec![
            TestCase::new(SimValue::Ptr(dir), TypeExpr::NtsRw(4), "existing directory"),
            TestCase::new(
                SimValue::Ptr(file_path),
                TypeExpr::NtsRw(11),
                "existing file",
            ),
            TestCase::new(SimValue::Ptr(missing), TypeExpr::NtsRw(12), "missing path"),
            TestCase::new(SimValue::Ptr(empty), TypeExpr::NtsRw(0), "empty path"),
            TestCase::new(
                SimValue::Ptr(unterminated),
                TypeExpr::RwFixed(64),
                "unterminated path",
            ),
            TestCase::new(SimValue::NULL, TypeExpr::Null, "null path"),
            TestCase::new(
                SimValue::Ptr(INVALID_PTR),
                TypeExpr::Invalid,
                "invalid path",
            ),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        let mut u = universe::strings(&[0, 4, 11, 12]);
        u.extend(universe::fixed_size_arrays(&[1, 64]));
        u.sort();
        u.dedup();
        u
    }
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

/// The generic integer generator.
pub struct IntGen {
    benign_value: i64,
}

impl IntGen {
    /// An integer generator whose benign value is 1.
    pub fn new() -> Self {
        IntGen { benign_value: 1 }
    }

    /// An integer generator with a parameter-specific benign value
    /// (e.g. 10 for a `base` parameter).
    pub fn with_benign(benign_value: i64) -> Self {
        IntGen { benign_value }
    }
}

impl Default for IntGen {
    fn default() -> Self {
        IntGen::new()
    }
}

impl TestCaseGenerator for IntGen {
    fn name(&self) -> &'static str {
        "integer"
    }

    fn benign(&mut self, _world: &mut World) -> SimValue {
        SimValue::Int(self.benign_value)
    }

    fn initial_cases(&mut self, _world: &mut World) -> Vec<TestCase> {
        vec![
            TestCase::new(SimValue::Int(-1), TypeExpr::IntNeg, "-1"),
            TestCase::new(
                SimValue::Int(i64::from(i32::MIN)),
                TypeExpr::IntNeg,
                "INT_MIN",
            ),
            TestCase::new(SimValue::Int(0), TypeExpr::IntZero, "0"),
            TestCase::new(SimValue::Int(1), TypeExpr::IntPos, "1"),
            TestCase::new(SimValue::Int(2), TypeExpr::IntPos, "2"),
            TestCase::new(SimValue::Int(42), TypeExpr::IntPos, "42"),
            TestCase::new(
                SimValue::Int(i64::from(i32::MAX)),
                TypeExpr::IntPos,
                "INT_MAX",
            ),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        universe::integers()
    }
}

/// The file-descriptor generator.
pub struct FdGen {
    fds: Option<(i32, i32, i32)>,
}

impl FdGen {
    /// A fresh fd generator.
    pub fn new() -> Self {
        FdGen { fds: None }
    }

    fn setup(&mut self, world: &mut World) -> (i32, i32, i32) {
        if let Some(f) = self.fds {
            return f;
        }
        if world.kernel.stat(INJECT_FILE).is_err() {
            world
                .kernel
                .write_file(INJECT_FILE, &vec![b'y'; 2048])
                .expect("injector file");
        }
        let ro = world
            .kernel
            .open(INJECT_FILE, OpenFlags::read_only(), 0)
            .unwrap();
        let wo = world
            .kernel
            .open(
                "/tmp/healers_inject_fdout",
                OpenFlags::write_create(),
                0o644,
            )
            .unwrap();
        let rw = world
            .kernel
            .open(INJECT_FILE, OpenFlags::read_write(), 0)
            .unwrap();
        // Make sure reads from the controlling tty have something to
        // deliver (the benign fd is the tty).
        world.kernel.type_input(0, &vec![b'z'; 256]);
        self.fds = Some((ro, wo, rw));
        (ro, wo, rw)
    }
}

impl Default for FdGen {
    fn default() -> Self {
        FdGen::new()
    }
}

impl TestCaseGenerator for FdGen {
    fn name(&self) -> &'static str {
        "file-descriptor"
    }

    fn benign(&mut self, world: &mut World) -> SimValue {
        self.setup(world);
        // The controlling terminal: readable, writable, and a valid
        // target for the termios family.
        SimValue::Int(0)
    }

    fn initial_cases(&mut self, world: &mut World) -> Vec<TestCase> {
        let (ro, wo, rw) = self.setup(world);
        vec![
            TestCase::new(
                SimValue::Int(i64::from(ro)),
                TypeExpr::FdRonly,
                "read-only fd",
            ),
            TestCase::new(
                SimValue::Int(i64::from(wo)),
                TypeExpr::FdWonly,
                "write-only fd",
            ),
            TestCase::new(
                SimValue::Int(i64::from(rw)),
                TypeExpr::FdRdwr,
                "read-write fd",
            ),
            TestCase::new(SimValue::Int(77), TypeExpr::FdClosed, "closed fd 77"),
            TestCase::new(SimValue::Int(-3), TypeExpr::FdNegative, "negative fd"),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        universe::file_descriptors()
    }
}

/// The termios-speed generator.
pub struct SpeedGen;

impl SpeedGen {
    /// A fresh speed generator.
    pub fn new() -> Self {
        SpeedGen
    }
}

impl Default for SpeedGen {
    fn default() -> Self {
        SpeedGen::new()
    }
}

impl TestCaseGenerator for SpeedGen {
    fn name(&self) -> &'static str {
        "baud-speed"
    }

    fn benign(&mut self, _world: &mut World) -> SimValue {
        SimValue::Int(i64::from(healers_os::B9600))
    }

    fn initial_cases(&mut self, _world: &mut World) -> Vec<TestCase> {
        vec![
            TestCase::new(
                SimValue::Int(i64::from(healers_os::B9600)),
                TypeExpr::SpeedValid,
                "B9600",
            ),
            TestCase::new(
                SimValue::Int(i64::from(healers_os::B38400)),
                TypeExpr::SpeedValid,
                "B38400",
            ),
            TestCase::new(
                SimValue::Int(i64::from(healers_os::B0)),
                TypeExpr::SpeedValid,
                "B0",
            ),
            TestCase::new(SimValue::Int(31337), TypeExpr::SpeedBogus, "31337"),
            TestCase::new(SimValue::Int(12345), TypeExpr::SpeedBogus, "12345"),
        ]
    }

    fn universe(&self) -> Vec<TypeExpr> {
        universe::speeds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_gen_grows_on_faults() {
        let mut world = World::new_guarded();
        let mut g = ArrayGen::new();
        let cases = g.initial_cases(&mut world);
        let fundamentals: Vec<_> = cases.iter().map(|c| c.fundamental).collect();
        assert_eq!(fundamentals, [TypeExpr::Null, TypeExpr::Invalid]);
        // A zero-byte array ends at its guard page: a fault at the base
        // needs one byte.
        let empty = g.adaptive_case(&mut world, 0);
        assert_eq!(empty.fundamental, TypeExpr::RwFixed(0));
        assert_eq!(empty.label, "adaptive rw array");
        let base = empty.value.as_ptr();
        assert!(world.proc.mem.read_u8(base).is_err());
        assert_eq!(ArrayGen::fault_needs(base, 0, base), Some(1));
        // A fault 43 bytes past the start of a one-byte array needs 44.
        let one = g.adaptive_case(&mut world, 1);
        let base = one.value.as_ptr();
        assert_eq!(ArrayGen::fault_needs(base, 1, base + 43), Some(44));
        let grown = g.adaptive_case(&mut world, 44);
        assert_eq!(grown.fundamental, TypeExpr::RwFixed(44));
        assert_eq!(grown.label, "adaptive rw array grown to 44");
        let base = grown.value.as_ptr();
        assert!(world.proc.mem.write_u8(base + 43, 1).is_ok());
        assert!(world.proc.mem.read_u8(base + 44).is_err());
        // A call that returns at 44 bytes ends sizing: 44 is the
        // discovered size, and the follow-ups probe it.
        assert!(g.followup_cases(&mut world).is_empty());
        g.settle(44, Outcome::Success);
        assert_eq!(g.discovered_size(), Some(44));
        let followups = g.followup_cases(&mut world);
        let fundamentals: Vec<_> = followups.iter().map(|c| c.fundamental).collect();
        assert_eq!(
            fundamentals,
            [
                TypeExpr::RonlyFixed(44),
                TypeExpr::WonlyFixed(44),
                TypeExpr::RwFixed(43)
            ]
        );
        assert_eq!(g.universe(), universe::fixed_size_arrays(&[44, 43]));
    }

    #[test]
    fn array_gen_gives_up_on_protection_faults() {
        let mut world = World::new_guarded();
        let mut g = ArrayGen::new();
        let case = g.adaptive_case(&mut world, 8);
        // A fault *inside* the block is not fixable by growth.
        assert_eq!(
            ArrayGen::fault_needs(case.value.as_ptr(), 8, case.value.as_ptr() + 3),
            None
        );
        // Sizing that ends on a failure discovers nothing: no follow-ups,
        // and candidates at the size it ended on.
        g.settle(8, Outcome::Crash);
        assert_eq!(g.discovered_size(), None);
        assert!(g.followup_cases(&mut world).is_empty());
        assert_eq!(g.universe(), universe::fixed_size_arrays(&[8]));
        // Before any sizing the universe is instantiated at size 0.
        assert_eq!(
            ArrayGen::new().universe(),
            universe::fixed_size_arrays(&[0])
        );
    }

    #[test]
    fn array_gen_gives_up_past_max_size() {
        // A call that always faults on the last byte of the guard page
        // grows the array a page at a time until a fault needs more than
        // MAX_ADAPTIVE_SIZE bytes, and sizing keeps that last probe.
        let mut world = World::new_guarded();
        let mut g = ArrayGen::new();
        let found = crate::adaptive::search(|n| {
            let case = g.adaptive_case(&mut world, n);
            let fault = case.value.as_ptr() + n + PAGE_SIZE - 1;
            let needs = ArrayGen::fault_needs(case.value.as_ptr(), n, fault)
                .expect("the guard page's last byte is past the end");
            (crate::adaptive::Probe::PastEnd { needs }, case.label)
        });
        assert_eq!(found.size, MAX_ADAPTIVE_SIZE);
        assert_eq!(
            found.record,
            format!("adaptive rw array grown to {MAX_ADAPTIVE_SIZE}")
        );
    }

    #[test]
    fn fault_needs_covers_exactly_the_guard_page() {
        let (base, size) = (0x10_0000, 8);
        // Inside the block: a protection mismatch, not fixable by growth.
        assert_eq!(ArrayGen::fault_needs(base, size, base), None);
        assert_eq!(ArrayGen::fault_needs(base, size, base + 7), None);
        // The first and the last byte of the guard page.
        assert_eq!(ArrayGen::fault_needs(base, size, base + 8), Some(9));
        let last_guard = base + size + PAGE_SIZE - 1;
        assert_eq!(
            ArrayGen::fault_needs(base, size, last_guard),
            Some(size + PAGE_SIZE)
        );
        // The first byte after the guard page belongs to someone else.
        assert_eq!(ArrayGen::fault_needs(base, size, last_guard + 1), None);
        // Below the block.
        assert_eq!(ArrayGen::fault_needs(base, size, base - 1), None);
    }

    #[test]
    fn file_gen_materializes_streams() {
        let mut world = World::new_guarded();
        let mut g = FileGen::new();
        let cases = g.initial_cases(&mut world);
        assert_eq!(cases.len(), 8);
        // The read-only stream has a live descriptor.
        let ro = &cases[0];
        let fd = file::read_fileno(&mut world, ro.value.as_ptr()).unwrap();
        assert!(world.kernel.fd_is_open(fd));
        // The closed stream's memory is revoked (guarded heap).
        let closed = &cases[3];
        assert!(world.proc.mem.read_u8(closed.value.as_ptr()).is_err());
        assert!(g.universe().contains(&TypeExpr::OpenFileNull));
    }

    #[test]
    fn string_gen_case_fundamentals_are_accurate() {
        let mut world = World::new_guarded();
        let mut g = StringGen::new();
        let cases = g.initial_cases(&mut world);
        for case in &cases {
            match case.fundamental {
                TypeExpr::NtsRo(l) => {
                    let s = world.proc.read_cstr(case.value.as_ptr()).unwrap();
                    assert_eq!(s.len() as u32, l);
                    assert!(world.proc.mem.write_u8(case.value.as_ptr(), 1).is_err());
                }
                TypeExpr::NtsRw(l) => {
                    let s = world.proc.read_cstr(case.value.as_ptr()).unwrap();
                    assert_eq!(s.len() as u32, l);
                }
                TypeExpr::RwFixed(64) => {
                    // Unterminated: reading the C string runs into the guard.
                    assert!(world.proc.read_cstr(case.value.as_ptr()).is_err());
                }
                TypeExpr::Null => assert!(case.value.is_null()),
                TypeExpr::Invalid => assert_eq!(case.value.as_ptr(), INVALID_PTR),
                other => panic!("unexpected fundamental {other}"),
            }
        }
    }

    #[test]
    fn fd_gen_descriptors_are_live() {
        let mut world = World::new_guarded();
        let mut g = FdGen::new();
        let cases = g.initial_cases(&mut world);
        let ro = cases[0].value.as_int() as i32;
        assert!(world.kernel.fd_is_open(ro));
        assert!(!world.kernel.fd_is_open(77));
        // Benign fd is the tty with input queued.
        assert_eq!(g.benign(&mut world), SimValue::Int(0));
        assert!(!world.kernel.read(0, 10).unwrap().is_empty());
    }

    #[test]
    fn dir_gen_stale_dir_is_inaccessible() {
        let mut world = World::new_guarded();
        let mut g = DirGen::new();
        let cases = g.initial_cases(&mut world);
        let open = &cases[0];
        let stale = &cases[1];
        assert!(world.proc.mem.read_u8(open.value.as_ptr()).is_ok());
        assert!(world.proc.mem.read_u8(stale.value.as_ptr()).is_err());
    }
}
