//! The HEALERS benchmark: three seeded workloads, the checks on their
//! outputs, and every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path healbench/Cargo.toml -- \
//!     --workload <wrapped_apps|harden|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) starts child processes in turn and
//! pools their samples. Each child runs one phase: it builds that
//! phase's system, times the set-up, and runs the phase for its share of
//! `--seconds` (see [`Workload::share`]). Every run reports every
//! end-to-end metric, so every run runs all three phases; the named
//! workload's phase gets a larger share, and only its children give
//! `setup_s` and `peak_rss_mib`. Every time is scaled to the reference
//! speed of [`speed`]. A traced run (`--trace 1`) runs each phase once,
//! instrumented from this crate's own files, reports the per-layer
//! metrics, and writes its spans under `.healbench/` when it ends. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `README.md` says why
//! each workload exists.

mod apps;
mod harden;
mod serve;
mod speed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use healers_core::CheckCounters;
use healers_libc::Libc;

use crate::speed::Pace;
use crate::stats::{Checked, Metrics, Samples};
use crate::trace::Tracer;

/// Campaign jobs for every parallel step. The run sizes are chosen for
/// a two-core machine, and no phase runs more threads of work.
pub const JOBS: usize = 2;

/// Child processes per phase in an untraced run, so that no metric rests
/// on one process.
const CHILDREN_PER_PHASE: u64 = 2;

/// A set-up is repeated until this much time has gone into it, at least
/// once, and `setup_s` is the median.
const SETUP_MIN_S: f64 = 0.25;

/// Rounds of the calibration loop per timing, and timings per run.
const CALIB_ITERS: u64 = 4_000_000;
const CALIB_REPS: usize = 7;

/// Speed probes a traced run reports the median of.
const PROBES: usize = 15;

/// Where a traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".healbench";

/// End-to-end metrics (`--trace 0`): name and unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("app_calls_per_s", "1/s"),
    ("app_window_p99_us", "us"),
    ("decls_s", "s"),
    ("fig6_s", "s"),
    ("serve_bulk_req_per_s", "1/s"),
    ("serve_rtt_p50_us", "us"),
    ("serve_rtt_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.calib_ns_per_iter", "ns"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.probe_ms", "ms"),
    ("simproc.find_nul_ns", "ns"),
    ("simproc.probe_range_ns", "ns"),
    ("simproc.nul_scans", "count"),
    ("simproc.run_probes", "count"),
    ("simproc.table_hits", "count"),
    ("simproc.bytes_scanned", "count"),
    ("simproc.snapshots", "count"),
    ("simproc.pages_shared", "count"),
    ("simproc.pages_copied", "count"),
    ("core.call_ns.p50", "ns"),
    ("core.call_ns.p99", "ns"),
    ("core.precheck_ns", "ns"),
    ("core.dispatch_track_ns", "ns"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.violations", "count"),
    ("core.op_ns.region", "ns"),
    ("core.op_ns.string", "ns"),
    ("core.op_ns.stream", "ns"),
    ("core.op_ns.dir", "ns"),
    ("core.op_ns.scalar", "ns"),
    ("core.op_ns.assertion", "ns"),
    ("core.op_ns.format", "ns"),
    ("libc.call_ns", "ns"),
    ("libc.calls", "count"),
    ("inject.fn_ms.p50", "ms"),
    ("inject.fn_ms.max", "ms"),
    ("inject.straggler_share", "ratio"),
    ("inject.injected_calls", "count"),
    ("inject.adaptive_retries", "count"),
    ("inject.fuel_used", "count"),
    ("ballista.mode_s.unwrapped", "s"),
    ("ballista.mode_s.full", "s"),
    ("ballista.mode_s.semi", "s"),
    ("ballista.tests", "count"),
    ("ballista.hangs", "count"),
    ("campaign.parallel_efficiency", "ratio"),
    ("serve.read_frame_ns", "ns"),
    ("serve.decode_ns", "ns"),
    ("serve.validate_ns", "ns"),
    ("serve.encode_ns", "ns"),
    ("serve.write_frame_ns", "ns"),
    ("serve.interactive.read_frame_ns", "ns"),
    ("serve.interactive.decode_ns", "ns"),
    ("serve.interactive.validate_ns", "ns"),
    ("serve.interactive.encode_ns", "ns"),
    ("serve.interactive.write_frame_ns", "ns"),
    ("serve.reject_ratio", "ratio"),
];

/// The workloads, each named after the phase it runs most.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    WrappedApps,
    Harden,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::WrappedApps, Workload::Harden, Workload::Serve];

    /// Threads this phase keeps busy: an application session runs on
    /// one, a serve exchange on the client's and the daemon's, a harden
    /// pipeline on [`JOBS`].
    fn threads(self) -> usize {
        match self {
            Workload::WrappedApps => 1,
            Workload::Harden | Workload::Serve => JOBS,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::WrappedApps => "wrapped_apps",
            Workload::Harden => "harden",
            Workload::Serve => "serve",
        }
    }

    /// The phase child `child` of an untraced run of this workload
    /// runs: this workload's phase, then the other two, in turn.
    fn phase_of(self, child: u64) -> Workload {
        let mut order = vec![self];
        order.extend(Workload::ALL.into_iter().filter(|&w| w != self));
        order[(child % order.len() as u64) as usize]
    }

    /// The share of an untraced run of a workload that this phase gets
    /// when another workload is named. A `harden` step is a whole
    /// pipeline of about two seconds, and one pipeline's analysis time
    /// varies by about 15 %, so `harden` needs most of every run for a
    /// steady median. An application session takes milliseconds and
    /// settles in a few seconds; the serve round trips take a little
    /// longer.
    fn side_share(self) -> f64 {
        match self {
            Workload::WrappedApps => 0.1,
            Workload::Harden => 0.6,
            Workload::Serve => 0.15,
        }
    }

    /// The share of an untraced run of this workload that goes to
    /// `phase`: its side share, or for the named phase all the rest.
    fn share(self, phase: Workload) -> f64 {
        if phase == self {
            let others = Workload::ALL.into_iter().filter(|&w| w != self);
            1.0 - others.map(Workload::side_share).sum::<f64>()
        } else {
            phase.side_share()
        }
    }
}

/// What a phase's traced run hands back besides the metrics it records.
pub struct Traced {
    pub checked: Checked,
    /// Traced over untraced time of the same work, minus one, in %.
    pub overhead_pct: f64,
    /// Check-kernel work of the phase (zero where it runs no checks).
    pub kernels: CheckCounters,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes an untraced run starts.
    child: Option<u64>,
}

const USAGE: &str =
    "usage: healbench --workload <wrapped_apps|harden|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload '{value}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed '{value}'"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(|| format!("bad seconds '{value}'"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace '{value}'")),
                });
            }
            "--child" => {
                child = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad child '{value}'"))?,
                );
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

/// The system under test for the given phases: the library, and where
/// needed the wrapper the application stream runs through and a serve
/// daemon with one client connected. The `harden` phase needs only the
/// library; its pipeline builds everything else cold.
struct System {
    libc: Libc,
    apps: Option<apps::Setup>,
    server: Option<serve::Server>,
}

impl System {
    fn build(phases: &[Workload]) -> System {
        let libc = Libc::standard();
        let apps = phases
            .contains(&Workload::WrappedApps)
            .then(|| apps::Setup::build(&libc));
        let server = phases
            .contains(&Workload::Serve)
            .then(|| serve::Server::start(&libc));
        System { libc, apps, server }
    }

    fn apps(&self) -> &apps::Setup {
        self.apps.as_ref().expect("built for wrapped_apps")
    }

    fn server(&mut self) -> &mut serve::Server {
        self.server.as_mut().expect("built for serve")
    }

    fn stop(self) {
        if let Some(server) = self.server {
            server.stop();
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("healbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(child) = args.child {
        run_child(&args, child);
        return ExitCode::SUCCESS;
    }
    println!(
        "healbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // The reference loop runs in every run, so machine drift shows next
    // to the workload numbers.
    let calib = calibrate();
    println!("{}", calib.describe("bench.calib_ns_per_iter", "ns"));
    let line = if args.trace {
        let (checked, metrics) = traced(&args, &calib);
        stats::result_line(&checked, PER_LAYER, &metrics)
    } else {
        let (checked, metrics) = untraced(&args);
        stats::result_line(&checked, END_TO_END, &metrics)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// An untraced run: [`CHILDREN_PER_PHASE`] child processes per phase,
/// one after the other, each for its part of its phase's share of
/// `--seconds`, their samples pooled.
fn untraced(args: &Args) -> (Checked, Metrics) {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let children = CHILDREN_PER_PHASE * Workload::ALL.len() as u64;
    let mut pool: BTreeMap<String, Samples> = BTreeMap::new();
    // Work done and the seconds it took, for the two rates.
    let mut totals: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut checked = Checked::default();
    for child in 0..children {
        let share = args.workload.share(args.workload.phase_of(child));
        let seconds = (args.seconds * share / CHILDREN_PER_PHASE as f64).to_string();
        let output = Command::new(&exe)
            .args([
                "--workload",
                args.workload.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .args([
                "--seconds",
                &seconds,
                "--trace",
                "0",
                "--child",
                &child.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .expect("start a child run");
        assert!(
            output.status.success(),
            "child run {child} failed: {}",
            output.status
        );
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut words = line.split_whitespace();
            match (words.next(), words.next()) {
                (Some("sample"), Some(name)) => {
                    let values = words.map(|w| w.parse::<f64>().expect("a child prints numbers"));
                    pool.entry(name.to_string()).or_default().extend(values);
                }
                (Some("total"), Some(name)) => {
                    let mut value = || -> f64 {
                        let word = words.next().expect("a child prints a count and seconds");
                        word.parse().expect("a child prints numbers")
                    };
                    let (count, secs) = (value(), value());
                    let total = totals.entry(name.to_string()).or_default();
                    total.0 += count;
                    total.1 += secs;
                }
                (Some("checked"), Some(attempted)) => checked.absorb(Checked {
                    attempted: attempted.parse().expect("a child prints counts"),
                    failed: words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .expect("a child prints counts"),
                }),
                _ => {}
            }
        }
    }
    let series = |name: &str| {
        pool.get(name)
            .unwrap_or_else(|| panic!("no {name} samples"))
    };
    // A rate is the work of the whole run over the time it took. On a
    // shared host the speed can flip between two levels for seconds at
    // a time, so a median of per-pass rates jumps between them when the
    // slow share is near half; the total moves in proportion to it, and
    // no slow pass is left out.
    let rate = |m: &mut Metrics, name: &str| {
        let label = format!("{name} of each pass");
        println!("{}", series(name).describe(&label, "1/s"));
        let (count, secs) = totals[name];
        m.put(name, count / secs);
    };
    println!(
        "{} (reference {} ms; every time below is scaled to it)",
        series("probe_ms").describe("speed probe", "ms"),
        speed::NOMINAL_MS
    );
    let mut m = Metrics::default();
    m.timing("setup_s", "s", series("setup_s"), 50.0);
    m.timing("peak_rss_mib", "MiB", series("peak_rss_mib"), 50.0);
    rate(&mut m, "app_calls_per_s");
    println!(
        "{}",
        series("app_window_us").describe("app call window", "us")
    );
    // Tail percentiles are taken per block of consecutive samples, and
    // the median over blocks reported.
    m.timing("app_window_p99_us", "us", series("app_window_p99_us"), 50.0);
    m.timing("decls_s", "s", series("decls_s"), 50.0);
    m.timing("fig6_s", "s", series("fig6_s"), 50.0);
    rate(&mut m, "serve_bulk_req_per_s");
    println!(
        "{}",
        series("serve_bulk_rtt_us").describe("serve bulk frame round trip", "us")
    );
    println!(
        "{} (reference {} us; the interactive round trips are scaled to it)",
        series("handoff_us").describe("hand-off probe", "us"),
        speed::HANDOFF_NOMINAL_US
    );
    println!(
        "{}",
        series("serve_rtt_us").describe("serve interactive round trip", "us")
    );
    m.timing("serve_rtt_p50_us", "us", series("serve_rtt_p50_us"), 50.0);
    m.timing("serve_rtt_p99_us", "us", series("serve_rtt_p99_us"), 50.0);
    println!(
        "checked: {} operations, {} failed",
        checked.attempted, checked.failed
    );
    (checked, m)
}

/// One child of an untraced run: build the system its phase needs,
/// timing the set-up, run the phase for about `--seconds` (it starts no
/// step that it expects to end later), and print every sample for the
/// parent. Only a child of the named workload's phase gives `setup_s`
/// and `peak_rss_mib`. Each child draws its own inputs from the run's
/// seed.
fn run_child(args: &Args, child: u64) {
    let phase = args.workload.phase_of(child);
    let seed = args.seed.wrapping_mul(0x100).wrapping_add(child);
    let mut setup_s = Samples::default();
    // Every set-up runs a campaign analysis on `JOBS` threads.
    let mut pace = Pace::start(JOBS);
    let mut system = loop {
        let started = Instant::now();
        let system = System::build(&[phase]);
        let secs = started.elapsed().as_secs_f64();
        setup_s.push(secs / pace.step());
        if setup_s.sum() >= SETUP_MIN_S {
            break system;
        }
        system.stop();
    };

    let mix = system
        .server
        .as_ref()
        .map(|server| serve::mix(&server.plans, &system.libc, seed));
    let mut apps = apps::Run::default();
    let mut harden = harden::Run::default();
    let mut serve = serve::Run::default();
    let mut probes_ms = std::mem::take(&mut pace.probes_ms);
    let mut pace = Pace::start(phase.threads());
    let started = Instant::now();
    for steps in 1.. {
        match phase {
            Workload::WrappedApps => {
                apps::run(&system.libc, system.apps(), seed, &mut apps, &mut pace);
            }
            Workload::Harden => harden::run(&system.libc, seed, &mut harden, &mut pace),
            Workload::Serve => {
                let mix = mix.as_ref().expect("built above");
                serve::run(system.server(), mix, &mut serve, &mut pace);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed * (steps + 1) as f64 / steps as f64 > args.seconds {
            break;
        }
    }

    if phase == args.workload {
        let peak: Samples = [peak_rss_mib()].into_iter().collect();
        println!("sample setup_s {}", setup_s.words());
        println!("sample peak_rss_mib {}", peak.words());
    }
    system.stop();
    let (samples, checked) = match phase {
        Workload::WrappedApps => {
            println!("total app_calls_per_s {} {}", apps.calls, apps.secs);
            let p99 = apps.windows_us.per_block(apps::WINDOW_BLOCK, 99.0);
            (
                vec![
                    ("app_calls_per_s", apps.rates),
                    ("app_window_us", apps.windows_us),
                    ("app_window_p99_us", p99),
                ],
                apps.checked,
            )
        }
        Workload::Harden => (
            vec![("decls_s", harden.decls_s), ("fig6_s", harden.fig6_s)],
            harden.checked,
        ),
        Workload::Serve => {
            let (requests, secs) = (serve.bulk_requests, serve.bulk_secs);
            println!("total serve_bulk_req_per_s {requests} {secs}");
            let round = serve::INTERACTIVE_PER_ROUND;
            let (p50, p99) = (
                serve.rtt_us.per_block(round, 50.0),
                serve.rtt_us.per_block(round, 99.0),
            );
            (
                vec![
                    ("serve_bulk_req_per_s", serve.bulk_rates),
                    ("serve_bulk_rtt_us", serve.bulk_rtt_us),
                    ("serve_rtt_us", serve.rtt_us),
                    ("handoff_us", serve.handoff_us),
                    ("serve_rtt_p50_us", p50),
                    ("serve_rtt_p99_us", p99),
                ],
                serve.checked,
            )
        }
    };
    for (name, samples) in samples {
        println!("sample {name} {}", samples.words());
    }
    probes_ms.append(&mut pace.probes_ms);
    let probes: Samples = probes_ms.into_iter().collect();
    println!("sample probe_ms {}", probes.words());
    println!("checked {} {}", checked.attempted, checked.failed);
}

fn traced(args: &Args, calib: &Samples) -> (Checked, Metrics) {
    let system = System::build(&Workload::ALL);
    let plans = &system.server.as_ref().expect("built for serve").plans;
    let mix = serve::mix(plans, &system.libc, args.seed);
    let mut tracer = Tracer::new();
    let mut m = Metrics::default();
    let apps = apps::trace(&system.libc, system.apps(), args.seed, &mut tracer, &mut m);
    let harden = harden::trace(&system.libc, args.seed, &mut tracer, &mut m);
    let serve = serve::trace(plans, &mix, &mut tracer, &mut m);
    system.stop();

    // One total over the application stream and the serve mix.
    let mut kernels = apps.kernels;
    kernels.absorb(&serve.kernels);
    m.put("simproc.nul_scans", kernels.nul_scans as f64);
    m.put("simproc.run_probes", kernels.run_probes as f64);
    m.put("simproc.table_hits", kernels.table_hits as f64);
    m.put("simproc.bytes_scanned", kernels.bytes_scanned as f64);
    m.put("bench.calib_ns_per_iter", calib.median());
    let probes: Samples = (0..PROBES).map(|_| speed::probe(JOBS)).collect();
    println!("{}", probes.describe("speed probe", "ms"));
    m.put("bench.probe_ms", probes.median());
    let own = match args.workload {
        Workload::WrappedApps => &apps,
        Workload::Harden => &harden,
        Workload::Serve => &serve,
    };
    m.put("bench.trace_overhead_pct", own.overhead_pct);

    std::fs::create_dir_all(TRACE_DIR).expect("create the trace directory");
    let path =
        Path::new(TRACE_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    tracer.write_chrome(&path).expect("write the spans");
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );

    let mut checked = Checked::default();
    for phase in [&apps, &harden, &serve] {
        checked.absorb(phase.checked);
    }
    println!(
        "checked: {} operations, {} failed",
        checked.attempted, checked.failed
    );
    (checked, m)
}

/// Time the fixed reference loop: [`CALIB_ITERS`] rounds of integer
/// mixing, [`CALIB_REPS`] times; nanoseconds per round.
fn calibrate() -> Samples {
    (0..CALIB_REPS)
        .map(|_| {
            let started = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..black_box(CALIB_ITERS) {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i)
                    .rotate_left(17);
            }
            black_box(x);
            started.elapsed().as_nanos() as f64 / CALIB_ITERS as f64
        })
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn arguments_parse_and_misuse_is_rejected() {
        let args = parse("--workload serve --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::Serve);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        for bad in [
            "",
            "--workload",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve --seed x --seconds 1 --trace 0",
            "--workload serve --seed 1 --seconds 0 --trace 0",
            "--workload serve --seed 1 --seconds 1 --trace 2",
            "--workload serve --seed 1 --seconds 1",
            "--workload serve --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn every_run_runs_every_phase_and_the_named_one_longer() {
        let children = CHILDREN_PER_PHASE * Workload::ALL.len() as u64;
        for w in Workload::ALL {
            let phases: Vec<Workload> = (0..children).map(|c| w.phase_of(c)).collect();
            assert_eq!(phases[0], w);
            for p in Workload::ALL {
                let n = phases.iter().filter(|&&q| q == p).count() as u64;
                assert_eq!(n, CHILDREN_PER_PHASE, "{} in {}", p.name(), w.name());
                if p != w {
                    assert!(w.share(p) < p.share(p), "{} in {}", p.name(), w.name());
                }
            }
            let total: f64 = Workload::ALL.into_iter().map(|p| w.share(p)).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{} shares sum to {total}",
                w.name()
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = doc.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            assert!(doc.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
        }
    }
}
