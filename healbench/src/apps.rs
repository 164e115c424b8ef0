//! `wrapped_apps`: a long seeded stream of library calls in the Table 2
//! call-mix profiles, with no compute ballast between them, run through
//! the full-auto wrapper next to an unwrapped twin.
//!
//! The stream is a run of sessions and every session starts on fresh
//! worlds. A session makes the library calls of one run of each of the
//! Table 2 programs `gcc`, `ps2pdf` and `tar` of `healers-bench`
//! (`crates/bench/src/workloads.rs`) with their compute left out, plus
//! a stretch of heap churn, in a seeded order over seeded file
//! contents. The call shares are therefore those of the programs
//! themselves. The twin makes the session's calls through `Libc::call`
//! and records every result; the wrapped run makes the same calls
//! through `RobustnessWrapper::call`, timed in windows of consecutive
//! calls. It must return the twin's result for every call and leave a
//! world with the twin's digest, with no violation and no repair.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use healers_campaign::{Campaign, CampaignConfig};
use healers_core::checker::{CheckCapabilities, Tables, MAX_STRING_SCAN};
use healers_core::{
    eval_op, CheckCounters, CheckKind, CompiledPlan, OpAction, RobustnessWrapper, WrapperBuilder,
    WrapperConfig,
};
use healers_libc::file::FILE_SIZE;
use healers_libc::{Libc, World};
use healers_simproc::{Protection, SimValue};
use healers_typesys::TypeExpr;

use crate::speed::Pace;
use crate::stats::{Checked, Fnv, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Traced, JOBS};

/// The functions the stream calls, analysed at set-up for the wrapper's
/// declarations. `free` is not among them: the wrapper tracks it
/// without a declaration.
const STREAM_FUNCTIONS: &[&str] = &[
    "fopen", "fclose", "fgets", "fgetc", "fputc", "fputs", "fread", "fwrite", "strlen", "strcpy",
    "strchr", "strncmp", "strstr", "sprintf", "strcmp", "strdup",
];
/// Consecutive wrapped calls per latency window. The `tar` calls, the
/// heaviest, are about 0.8 % of a session's. A window of 512 calls
/// holds most of them, and such windows are about 2 % of all, so the
/// p99 is one of them, not the edge between them and the rest: at that
/// edge, where windows of 128 calls put it, it moved by a sixth from run
/// to run.
const WINDOW_CALLS: usize = 512;
/// Consecutive windows per block: `app_window_p99_us` is the median of
/// the blocks' p99, so a burst of machine noise that hits one block
/// does not decide a run, while a stall that recurs in every block
/// does. A block is about five sessions.
pub const WINDOW_BLOCK: usize = 250;
/// Sessions in a traced run.
const TRACED_SESSIONS: u64 = 2;
/// Repetitions per timing of one op or kernel in the traced run, so
/// the clock reads do not swamp an operation of a few nanoseconds.
const REPEAT: u32 = 8;
/// Timings per session of each check kind the stream does not compile.
const UNUSED_KIND_TIMINGS: usize = 1000;

/// The inputs of the Table 2 programs, sized as there: `gcc` reads a
/// 200-line source once per compiler process (cpp, cc1, as, collect2,
/// ld), `ps2pdf` an 8 KiB document, `tar` 16 members of 2 KiB.
const GCC_PASSES: usize = 5;
const PROGRAM_LINES: usize = 200;
const DOCUMENT_LEN: usize = 8192;
const MEMBERS: usize = 16;
const MEMBER_LEN: usize = 2048;
/// Library calls of one run of each program: `gcc` 5 × (1 + 201 + 7 ×
/// 200 + 1) = 8015, `ps2pdf` 2 + 8193 + 8192 + 2 × 128 + 2 = 16 645,
/// `tar` 2 + 16 × 13 = 210. `gzip`, the fourth Table 2 program, makes
/// 13 calls a run and is left out.
pub const PROGRAM_CALLS: [usize; 3] = [8015, 16_645, 210];
/// Heap-churn calls per session: a ninth of the programs' calls, so a
/// tenth of the session. Table 2 has no such program; the churn is
/// there for the tracked write path. The programs alone make a tracked
/// write (`fopen`, `fclose`) in about 0.2 % of their calls, too few for
/// a slower write path to show in `app_calls_per_s`; with the churn,
/// where two of every three calls are `strdup` or `free`, about 7 % of
/// the session's calls are tracked writes.
const CHURN_CALLS: usize = (PROGRAM_CALLS[0] + PROGRAM_CALLS[1] + PROGRAM_CALLS[2]) / 9;
/// Most `strdup` copies the churn keeps live at once.
const CHURN_LIVE: usize = 16;
const DUP_SOURCES: usize = 8;

/// The capabilities of [`WrapperConfig::full_auto`].
const CAPS: CheckCapabilities = CheckCapabilities {
    stateful_heap: true,
    dir_tracking: false,
    file_tracking: false,
};

/// The wrapper every session starts from: full-auto over declarations
/// from a cold campaign analysis of [`STREAM_FUNCTIONS`].
pub struct Setup {
    wrapper: RobustnessWrapper,
}

impl Setup {
    pub fn build(libc: &Libc) -> Setup {
        let campaign = Campaign::new(&CampaignConfig {
            jobs: JOBS,
            ..CampaignConfig::default()
        })
        .expect("a campaign without cache or journal opens no files");
        let (decls, _) = campaign
            .analyze(libc, STREAM_FUNCTIONS)
            .expect("no cache to write");
        campaign.finish().expect("no journal to flush");
        let wrapper = WrapperBuilder::new()
            .decls(decls)
            .config(WrapperConfig::full_auto())
            .build();
        Setup { wrapper }
    }
}

/// Results of the untraced `wrapped_apps` phase.
#[derive(Default)]
pub struct Run {
    /// Wrapped calls per second, one sample per session.
    pub rates: Samples,
    /// Wrapped calls made, and the seconds they took.
    pub calls: u64,
    pub secs: f64,
    /// Time of each window of [`WINDOW_CALLS`] consecutive wrapped
    /// calls, in µs. Every time here is at the reference speed.
    pub windows_us: Samples,
    pub checked: Checked,
}

/// Run the next session of the stream; every session of a run has its
/// own seed. The wrapped run is timed between two speed probes and its
/// times scaled to the reference speed.
pub fn run(libc: &Libc, setup: &Setup, seed: u64, run: &mut Run, pace: &mut Pace) {
    let seed = session_seed(seed, run.rates.len() as u64);
    let session = session(seed);
    let mut twin = Exec::new(libc, seed, None, None);
    twin.drive(&session);
    let mut wrapped = Exec::new(libc, seed, Some(setup.wrapper.clone()), Some(&twin.results));
    pace.restart();
    wrapped.windows = Some((Instant::now(), Vec::with_capacity(twin.n / WINDOW_CALLS)));
    let t = Instant::now();
    wrapped.drive(&session);
    let wall = t.elapsed().as_secs_f64();
    let slowdown = pace.step();
    let wall = wall / slowdown;
    run.rates.push(wrapped.n as f64 / wall);
    run.calls += wrapped.n as u64;
    run.secs += wall;
    if let Some((_, windows)) = wrapped.windows.take() {
        run.windows_us
            .extend(windows.into_iter().map(|us| us / slowdown));
    }
    verify(&twin, &wrapped, &mut run.checked);
}

/// A traced run over [`TRACED_SESSIONS`] sessions. Each runs four
/// times: the twin with every `Libc::call` timed, the wrapped run
/// untraced (the overhead baseline), the wrapped run with every
/// `RobustnessWrapper::call` timed, and a shadow wrapped run that times
/// each call's checks piece by piece — every compiled op through
/// `eval_op`, the simproc kernels on the op's own pointer, and the
/// whole prefix through `precheck` — before making the call.
pub fn trace(
    libc: &Libc,
    setup: &Setup,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Traced {
    let phase = tracer.begin("wrapped_apps");
    let mut checked = Checked::default();
    let mut kernels = CheckCounters::default();
    let (mut libc_ns, mut call_ns) = (Samples::default(), Samples::default());
    let mut checks = CheckSamples::default();
    let (mut cache_checks, mut cache_hits, mut violations, mut libc_calls) = (0, 0, 0, 0);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for k in 0..TRACED_SESSIONS {
        let seed = session_seed(seed, k);
        let stream = session(seed);
        let session_span = tracer.begin(format!("session {k}"));

        let span = tracer.begin("libc twin");
        let mut twin = Exec::new(libc, seed, None, None);
        twin.probe = Some(Probe::default());
        twin.drive(&stream);
        tracer.end(span);
        libc_calls += twin.n;
        libc_ns.extend(twin.probe.take().expect("set above").call_ns);

        let mut plain = Exec::new(libc, seed, Some(setup.wrapper.clone()), Some(&twin.results));
        let t = Instant::now();
        plain.drive(&stream);
        plain_s += t.elapsed().as_secs_f64();
        verify(&twin, &plain, &mut checked);

        let span = tracer.begin("wrapper calls");
        let mut wrapped = Exec::new(libc, seed, Some(setup.wrapper.clone()), Some(&twin.results));
        wrapped.probe = Some(Probe::default());
        let t = Instant::now();
        wrapped.drive(&stream);
        traced_s += t.elapsed().as_secs_f64();
        tracer.end(span);
        verify(&twin, &wrapped, &mut checked);
        call_ns.extend(wrapped.probe.take().expect("set above").call_ns);
        let stats = &wrapped.wrapper.as_ref().expect("a wrapped run").stats;
        kernels.absorb(&stats.check_kinds);
        cache_checks += stats.checks;
        cache_hits += stats.check_cache_hits;
        violations += stats.violations;

        let span = tracer.begin("wrapper checks");
        let mut shadow = Exec::new(libc, seed, Some(setup.wrapper.clone()), Some(&twin.results));
        let mut tables = Tables::default();
        tables.open_dirs.insert(shadow.layout.dir.as_ptr());
        shadow.probe = Some(Probe {
            checks: Some((tables, CheckSamples::default())),
            ..Probe::default()
        });
        shadow.drive(&stream);
        let (tables, samples) = shadow
            .probe
            .take()
            .and_then(|p| p.checks)
            .expect("set above");
        checks.absorb(samples);
        time_unused_kinds(&shadow.world, &tables, shadow.layout.dir, &mut checks.op_ns);
        tracer.end(span);
        tracer.end(session_span);
    }
    tracer.end(phase);

    let (call, precheck, library) = (
        call_ns.median(),
        checks.precheck_ns.median(),
        libc_ns.median(),
    );
    m.put("core.call_ns.p50", call);
    m.put("core.call_ns.p99", call_ns.percentile(99.0));
    m.put("core.precheck_ns", precheck);
    m.put("core.dispatch_track_ns", call - precheck - library);
    // `checks` counts every op the wrapper ran, cache hits included.
    m.put(
        "core.cache_hit_ratio",
        cache_hits as f64 / cache_checks as f64,
    );
    m.put("core.violations", violations as f64);
    for (kind, samples) in &checks.op_ns {
        m.put(format!("core.op_ns.{}", kind.label()), samples.median());
    }
    m.put("libc.call_ns", library);
    m.put("libc.calls", libc_calls as f64);
    m.put("simproc.find_nul_ns", checks.find_nul_ns.median());
    m.put("simproc.probe_range_ns", checks.probe_range_ns.median());
    println!("{}", call_ns.describe("core.call_ns", "ns"));
    println!("{}", libc_ns.describe("libc.call_ns", "ns"));
    Traced {
        checked,
        overhead_pct: (traced_s / plain_s - 1.0) * 100.0,
        kernels,
    }
}

/// Compare a wrapped execution with its twin: every result, the final
/// world digest, and a wrapper that neither rejected nor repaired.
fn verify(twin: &Exec, wrapped: &Exec, checked: &mut Checked) {
    let faults = twin.results.iter().filter(|r| r.is_none()).count() as u64;
    checked.attempted += wrapped.n as u64;
    checked.failed += wrapped.mismatches + faults;
    checked.check(wrapped.n == twin.n && digest(&wrapped.world) == digest(&twin.world));
    let stats = &wrapped.wrapper.as_ref().expect("a wrapped run").stats;
    checked.check(stats.violations == 0 && stats.repairs == 0);
}

fn session_seed(seed: u64, session: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ session
}

/// One stretch of a session: the library calls of one Table 2 program,
/// in the order `healers-bench` makes them, or the heap churn.
enum Segment {
    /// `gcc_like`: per compiler process, open the source, then per line
    /// `fgets`, `strlen`, `strcpy`, `strchr`, `strncmp`, `strstr`,
    /// `sprintf`, `strcmp` until `fgets` returns NULL; close it.
    Gcc,
    /// `ps2pdf_like`: `fgetc`/`fputc` per character and an
    /// `sprintf`/`fputs` object reference per 64, between two
    /// `fopen`/`fclose` pairs.
    Ps2pdf,
    /// `tar_like`: open the archive; per member `fopen`, an `sprintf`
    /// header and its `fwrite`, `fread`/`fwrite` blocks, `fclose`; close
    /// the archive.
    Tar,
    /// Heap churn: per step a `strdup` (and a `strlen` of the copy) or a
    /// `free` over a bounded live set; the rest are freed at the end.
    Churn(Vec<Churn>),
}

#[derive(Clone, Copy)]
enum Churn {
    Dup(usize),
    Free(usize),
}

/// The segments of one session in the order `seed` gives them.
fn session(seed: u64) -> Vec<Segment> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    let (mut live, mut calls) = (0, 0);
    while calls + live < CHURN_CALLS {
        if live < CHURN_LIVE && (live == 0 || rng.random_range(0..3u32) > 0) {
            live += 1;
            calls += 2;
            steps.push(Churn::Dup(rng.random_range(0..DUP_SOURCES)));
        } else {
            live -= 1;
            calls += 1;
            steps.push(Churn::Free(rng.random_range(0..=live)));
        }
    }
    let mut segments = vec![
        Segment::Gcc,
        Segment::Ps2pdf,
        Segment::Tar,
        Segment::Churn(steps),
    ];
    for i in (1..segments.len()).rev() {
        segments.swap(i, rng.random_range(0..=i));
    }
    segments
}

/// Heap addresses of the stream's strings and buffers: the same in
/// every world built from one seed.
#[derive(Clone)]
struct Layout {
    line: SimValue,
    token: SimValue,
    symbol: SimValue,
    header: SimValue,
    block: SimValue,
    obj: SimValue,
    read: SimValue,
    write: SimValue,
    keyword_int: SimValue,
    keyword_return: SimValue,
    symbol_fmt: SimValue,
    obj_fmt: SimValue,
    member_fmt: SimValue,
    tag: SimValue,
    program: SimValue,
    document: SimValue,
    pdf: SimValue,
    archive: SimValue,
    members: Vec<SimValue>,
    dups: Vec<SimValue>,
    /// An open directory stream, for the directory-check timing.
    dir: SimValue,
}

/// A fresh world holding the stream's input files, strings and
/// buffers, with contents drawn from `seed`.
fn fresh_world(libc: &Libc, seed: u64) -> (World, Layout) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::new();
    let program: String = (0..PROGRAM_LINES)
        .map(|i| {
            let k = rng.random_range(0..1000u32);
            match rng.random_range(0..3u32) {
                0 => format!("int f{i}(int x) {{ return x + {k}; }}\n"),
                1 => format!("static int v{i} = {k};\n"),
                _ => format!("  total += f{i}(total) * {k};\n"),
            }
        })
        .collect();
    let document = text(&mut rng, DOCUMENT_LEN);
    for (path, body) in [
        ("/tmp/program.c", program.as_bytes()),
        ("/tmp/document.ps", &document),
    ] {
        world
            .kernel
            .write_file(path, body)
            .expect("a writable /tmp");
    }
    let mut members = Vec::with_capacity(MEMBERS);
    for i in 0..MEMBERS {
        let path = format!("/tmp/member{i}.txt");
        world
            .kernel
            .write_file(&path, &text(&mut rng, MEMBER_LEN))
            .expect("a writable /tmp");
        members.push(cstr(&mut world, &path));
    }
    let dups = (0..DUP_SOURCES)
        .map(|_| {
            let len = rng.random_range(1..=120usize);
            let s = String::from_utf8(text(&mut rng, len)).expect("printable ASCII");
            cstr(&mut world, &s)
        })
        .collect();
    let tmp = cstr(&mut world, "/tmp");
    let dir = libc
        .call(&mut world, "opendir", &[tmp])
        .expect("opendir /tmp");
    let layout = Layout {
        line: buf(&mut world, 256),
        token: buf(&mut world, 256),
        symbol: buf(&mut world, 128),
        header: buf(&mut world, 512),
        block: buf(&mut world, 512),
        obj: buf(&mut world, 128),
        read: cstr(&mut world, "r"),
        write: cstr(&mut world, "w"),
        keyword_int: cstr(&mut world, "int"),
        keyword_return: cstr(&mut world, "return"),
        symbol_fmt: cstr(&mut world, "sym_%d"),
        obj_fmt: cstr(&mut world, "obj %d 0 R"),
        member_fmt: cstr(&mut world, "member-%s-%04d"),
        tag: cstr(&mut world, "src"),
        program: cstr(&mut world, "/tmp/program.c"),
        document: cstr(&mut world, "/tmp/document.ps"),
        pdf: cstr(&mut world, "/tmp/document.pdf"),
        archive: cstr(&mut world, "/tmp/archive.tar"),
        members,
        dups,
        dir,
    };
    (world, layout)
}

fn cstr(world: &mut World, s: &str) -> SimValue {
    SimValue::Ptr(world.alloc_cstr(s))
}

fn buf(world: &mut World, len: u32) -> SimValue {
    SimValue::Ptr(world.alloc_buf(len))
}

/// `len` printable ASCII bytes.
fn text(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.random_range(b' '..=b'~')).collect()
}

/// FNV-1a over the world image — every page run's layout and the bytes
/// of the readable ones — plus the files the stream writes and `errno`.
fn digest(world: &World) -> u64 {
    let mut hash = Fnv::new();
    let mut addr: u32 = 0;
    loop {
        let run = world.proc.mem.page_run(addr);
        let prot: u8 = match run.prot {
            None => 0,
            Some(Protection::None) => 1,
            Some(Protection::ReadOnly) => 2,
            Some(Protection::ReadWrite) => 3,
            Some(Protection::WriteOnly) => 4,
        };
        hash.eat(&run.start.to_le_bytes());
        hash.eat(&run.pages.to_le_bytes());
        hash.eat(&[prot]);
        if run.prot.is_some_and(|p| p.allows_read()) {
            let len = run.last() - run.start + 1;
            let bytes = world
                .proc
                .mem
                .read_bytes(run.start, len)
                .expect("a readable run reads");
            hash.eat(&bytes);
        }
        if run.last() == u32::MAX {
            break;
        }
        addr = run.last() + 1;
    }
    for path in ["/tmp/document.pdf", "/tmp/archive.tar"] {
        hash.eat(&world.kernel.read_file(path).unwrap_or_default());
    }
    hash.eat(&world.proc.errno().to_le_bytes());
    hash.finish()
}

/// One execution of a session on its own world: the unwrapped twin
/// (`wrapper` is `None`) or a wrapped run.
struct Exec<'a> {
    libc: &'a Libc,
    world: World,
    layout: Layout,
    wrapper: Option<RobustnessWrapper>,
    /// The twin's results to compare against; the twin itself has none
    /// and fills `results` instead. `None` marks a call that faulted.
    twin: Option<&'a [Option<SimValue>]>,
    results: Vec<Option<SimValue>>,
    mismatches: u64,
    /// Calls made.
    n: usize,
    /// Start of the current latency window, and the windows so far (µs).
    windows: Option<(Instant, Vec<f64>)>,
    probe: Option<Probe>,
}

impl<'a> Exec<'a> {
    fn new(
        libc: &'a Libc,
        seed: u64,
        wrapper: Option<RobustnessWrapper>,
        twin: Option<&'a [Option<SimValue>]>,
    ) -> Exec<'a> {
        let (world, layout) = fresh_world(libc, seed);
        Exec {
            libc,
            world,
            layout,
            wrapper,
            twin,
            results: Vec::new(),
            mismatches: 0,
            n: 0,
            windows: None,
            probe: None,
        }
    }

    /// One library call through this execution's path.
    fn call(&mut self, name: &'static str, args: &[SimValue]) -> SimValue {
        if let (Some(probe), Some(wrapper)) = (self.probe.as_mut(), self.wrapper.as_mut()) {
            probe.before(wrapper, &self.world, name, args);
        }
        let started = self.probe.is_some().then(Instant::now);
        let result = match self.wrapper.as_mut() {
            Some(w) => w.call(self.libc, &mut self.world, name, args),
            None => self.libc.call(&mut self.world, name, args),
        }
        .ok();
        if let Some(probe) = self.probe.as_mut() {
            if let Some(t) = started {
                probe.call_ns.push(t.elapsed().as_nanos() as f64);
            }
            probe.after(&self.world, name, args, result);
        }
        match self.twin {
            Some(twin) => self.mismatches += u64::from(twin.get(self.n) != Some(&result)),
            None => self.results.push(result),
        }
        self.n += 1;
        if let Some((start, windows)) = self.windows.as_mut() {
            if self.n.is_multiple_of(WINDOW_CALLS) {
                let now = Instant::now();
                windows.push((now - *start).as_secs_f64() * 1e6);
                *start = now;
            }
        }
        result.unwrap_or(SimValue::Void)
    }

    /// Make every call of `stream`, in order.
    fn drive(&mut self, stream: &[Segment]) {
        let l = self.layout.clone();
        let int = SimValue::Int;
        for segment in stream {
            match segment {
                Segment::Gcc => {
                    for _ in 0..GCC_PASSES {
                        let src = self.call("fopen", &[l.program, l.read]);
                        let mut symbol = 0;
                        while self.call("fgets", &[l.line, int(256), src]) != SimValue::NULL {
                            self.call("strlen", &[l.line]);
                            self.call("strcpy", &[l.token, l.line]);
                            self.call("strchr", &[l.token, int(i64::from(b'('))]);
                            self.call("strncmp", &[l.token, l.keyword_int, int(3)]);
                            self.call("strstr", &[l.token, l.keyword_return]);
                            self.call("sprintf", &[l.symbol, l.symbol_fmt, int(symbol)]);
                            self.call("strcmp", &[l.symbol, l.token]);
                            symbol += 1;
                        }
                        self.call("fclose", &[src]);
                    }
                }
                Segment::Ps2pdf => {
                    let input = self.call("fopen", &[l.document, l.read]);
                    let output = self.call("fopen", &[l.pdf, l.write]);
                    let mut n = 0;
                    loop {
                        let c = self.call("fgetc", &[input]);
                        if c.as_int() < 0 {
                            break;
                        }
                        self.call("fputc", &[c, output]);
                        n += 1;
                        if n % 64 == 0 {
                            self.call("sprintf", &[l.obj, l.obj_fmt, int(n / 64)]);
                            self.call("fputs", &[l.obj, output]);
                        }
                    }
                    self.call("fclose", &[input]);
                    self.call("fclose", &[output]);
                }
                Segment::Tar => {
                    let archive = self.call("fopen", &[l.archive, l.write]);
                    for (i, &path) in l.members.iter().enumerate() {
                        let member = self.call("fopen", &[path, l.read]);
                        self.call("sprintf", &[l.header, l.member_fmt, l.tag, int(i as i64)]);
                        self.call("fwrite", &[l.header, int(1), int(512), archive]);
                        loop {
                            let got = self.call("fread", &[l.block, int(1), int(512), member]);
                            if got.as_int() <= 0 {
                                break;
                            }
                            self.call("fwrite", &[l.block, int(1), got, archive]);
                        }
                        self.call("fclose", &[member]);
                    }
                    self.call("fclose", &[archive]);
                }
                Segment::Churn(steps) => {
                    let mut live = Vec::with_capacity(CHURN_LIVE);
                    for step in steps {
                        match *step {
                            Churn::Dup(k) => {
                                let copy = self.call("strdup", &[l.dups[k]]);
                                self.call("strlen", &[copy]);
                                live.push(copy);
                            }
                            Churn::Free(k) => {
                                let copy = live.swap_remove(k);
                                self.call("free", &[copy]);
                            }
                        }
                    }
                    for copy in live {
                        self.call("free", &[copy]);
                    }
                }
            }
        }
    }
}

/// Per-call instrumentation of a traced execution.
#[derive(Default)]
struct Probe {
    /// Every call's time: `Libc::call` for the twin,
    /// `RobustnessWrapper::call` for a wrapped run.
    call_ns: Samples,
    /// Set for the shadow run: a mirror of the wrapper's tracking
    /// tables, kept by the wrapper's rules so each op sees the state the
    /// wrapper's own checks saw, and the piecewise check timings.
    checks: Option<(Tables, CheckSamples)>,
}

/// Piecewise check timings, in nanoseconds.
#[derive(Default)]
struct CheckSamples {
    precheck_ns: Samples,
    op_ns: BTreeMap<CheckKind, Samples>,
    find_nul_ns: Samples,
    probe_range_ns: Samples,
}

impl CheckSamples {
    fn absorb(&mut self, other: CheckSamples) {
        self.precheck_ns.extend(other.precheck_ns);
        for (kind, samples) in other.op_ns {
            self.op_ns.entry(kind).or_default().extend(samples);
        }
        self.find_nul_ns.extend(other.find_nul_ns);
        self.probe_range_ns.extend(other.probe_range_ns);
    }
}

impl Probe {
    /// Before a wrapped call of the shadow run: time each compiled op,
    /// the kernel behind it on the op's own pointer, and the whole
    /// prefix.
    fn before(
        &mut self,
        wrapper: &mut RobustnessWrapper,
        world: &World,
        name: &str,
        args: &[SimValue],
    ) {
        let Some((tables, samples)) = self.checks.as_mut() else {
            return;
        };
        let Some(id) = wrapper.resolve(name) else {
            return;
        };
        if !wrapper.is_checked(id) {
            return;
        }
        let plan = wrapper
            .compiled_plan(name)
            .expect("a resolved function has a plan");
        let mut ctrs = CheckCounters::default();
        for op in plan.ops() {
            let t = Instant::now();
            for _ in 0..REPEAT {
                black_box(eval_op(world, tables, &CAPS, args, op, &mut ctrs));
            }
            samples
                .op_ns
                .entry(op.kind)
                .or_default()
                .push(per_repeat(t));
            let ptr = args.get(op.arg as usize).map_or(0, |v| v.as_ptr());
            if ptr == 0 {
                continue;
            }
            match op.action {
                OpAction::Nts {
                    limit, need_write, ..
                } => {
                    let t = Instant::now();
                    for _ in 0..REPEAT {
                        black_box(world.proc.mem.find_nul(ptr, limit, need_write));
                    }
                    samples.find_nul_ns.push(per_repeat(t));
                }
                OpAction::Region {
                    size,
                    need_read,
                    need_write,
                    ..
                } => {
                    let t = Instant::now();
                    for _ in 0..REPEAT {
                        black_box(world.proc.mem.probe_range(ptr, size, need_read, need_write));
                    }
                    samples.probe_range_ns.push(per_repeat(t));
                }
                _ => {}
            }
        }
        let t = Instant::now();
        black_box(wrapper.precheck(world, id, args));
        samples.precheck_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// After a call: keep the mirror tables by the wrapper's tracking
    /// rules for the functions the stream calls.
    fn after(&mut self, world: &World, name: &str, args: &[SimValue], result: Option<SimValue>) {
        let (Some((tables, _)), Some(value)) = (self.checks.as_mut(), result) else {
            return;
        };
        let returned = value.as_ptr();
        let first = args.first().map_or(0, |v| v.as_ptr());
        match name {
            "strdup" if returned != 0 => {
                let len = world
                    .proc
                    .mem
                    .find_nul(returned, MAX_STRING_SCAN, false)
                    .unwrap_or(MAX_STRING_SCAN);
                tables.heap_blocks.insert(returned, len + 1);
            }
            "fopen" if returned != 0 => {
                tables.open_files.insert(returned);
                tables.heap_blocks.insert(returned, FILE_SIZE);
            }
            "free" => {
                tables.heap_blocks.remove(&first);
            }
            "fclose" => {
                tables.open_files.remove(&first);
                tables.heap_blocks.remove(&first);
            }
            _ => {}
        }
    }
}

/// No call of the stream compiles a directory or a scalar claim under
/// full-auto, so those two kinds are timed on their own against the
/// stream's world: `OPEN_DIR` on its open directory stream and
/// `INT_POS` on the `fgets` buffer size.
fn time_unused_kinds(
    world: &World,
    tables: &Tables,
    dir: SimValue,
    op_ns: &mut BTreeMap<CheckKind, Samples>,
) {
    for (claim, arg) in [
        (TypeExpr::OpenDir, dir),
        (TypeExpr::IntPos, SimValue::Int(256)),
    ] {
        let plan = CompiledPlan::compile(Some(&[Some(claim)]), None, None, false);
        let op = &plan.ops()[0];
        let mut ctrs = CheckCounters::default();
        let samples = op_ns.entry(op.kind).or_default();
        for _ in 0..UNUSED_KIND_TIMINGS {
            let t = Instant::now();
            for _ in 0..REPEAT {
                black_box(eval_op(world, tables, &CAPS, &[arg], op, &mut ctrs));
            }
            samples.push(per_repeat(t));
        }
    }
}

fn per_repeat(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / f64::from(REPEAT)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session's segments as (kind, churn steps, churn picks).
    fn shape(s: &[Segment]) -> Vec<(u8, Vec<(bool, usize)>)> {
        s.iter()
            .map(|seg| match seg {
                Segment::Gcc => (0, Vec::new()),
                Segment::Ps2pdf => (1, Vec::new()),
                Segment::Tar => (2, Vec::new()),
                Segment::Churn(steps) => (
                    3,
                    steps
                        .iter()
                        .map(|step| match *step {
                            Churn::Dup(k) => (true, k),
                            Churn::Free(k) => (false, k),
                        })
                        .collect(),
                ),
            })
            .collect()
    }

    #[test]
    fn a_session_is_a_function_of_the_seed_and_runs_every_segment_once() {
        let a = shape(&session(5));
        assert_eq!(a, shape(&session(5)));
        assert!((6..20).any(|seed| shape(&session(seed)) != a));
        let mut kinds: Vec<u8> = a.iter().map(|(k, _)| *k).collect();
        kinds.sort_unstable();
        assert_eq!(kinds, [0, 1, 2, 3]);
    }

    #[test]
    fn each_program_makes_the_calls_of_its_table2_run() {
        let libc = Libc::standard();
        for (segment, calls) in [Segment::Gcc, Segment::Ps2pdf, Segment::Tar]
            .into_iter()
            .zip(PROGRAM_CALLS)
        {
            let mut twin = Exec::new(&libc, 3, None, None);
            twin.drive(&[segment]);
            assert_eq!(twin.n, calls);
            assert!(twin.results.iter().all(Option::is_some), "a call faulted");
        }
    }

    #[test]
    fn a_corrupted_twin_result_is_a_failed_operation() {
        let libc = Libc::standard();
        let wrapper = WrapperBuilder::new().build();
        let mut twin = Exec::new(&libc, 3, None, None);
        twin.drive(&[Segment::Tar]);
        let compare = |results: &[Option<SimValue>]| {
            let mut wrapped = Exec::new(&libc, 3, Some(wrapper.clone()), Some(results));
            wrapped.drive(&[Segment::Tar]);
            let mut checked = Checked::default();
            verify(&twin, &wrapped, &mut checked);
            checked
        };
        let mut results = twin.results.clone();
        assert_eq!(compare(&results).failed, 0);
        results[5] = Some(SimValue::Int(-7));
        assert_eq!(compare(&results).failed, 1);
    }

    #[test]
    fn churn_is_a_tenth_of_a_session_and_frees_only_live_copies() {
        for seed in 0..50 {
            for segment in session(seed) {
                if let Segment::Churn(steps) = segment {
                    let (mut live, mut calls) = (0usize, 0);
                    for step in steps {
                        match step {
                            Churn::Dup(_) => {
                                live += 1;
                                calls += 2;
                            }
                            Churn::Free(k) => {
                                assert!(k < live);
                                live -= 1;
                                calls += 1;
                            }
                        }
                        assert!(live <= CHURN_LIVE);
                    }
                    // The copies still live are freed at the end; the
                    // last `strdup` may overshoot by its two calls.
                    assert!((CHURN_CALLS..CHURN_CALLS + 3).contains(&(calls + live)));
                }
            }
        }
    }
}
