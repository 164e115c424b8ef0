//! `serve`: one in-process daemon over duplex pipes, built with
//! `ServePlans::build` for all 86 targets and driven closed loop by one
//! client: a bulk phase of 1024-request validate frames, then an
//! interactive phase of 1-request frames.
//!
//! Requests draw a seeded mix across the 86 functions and across
//! argument kinds — scratch string, scratch buffer, NULL, wild pointer,
//! scalar — so some are admitted, some rejected, and some pass
//! unchecked. Every reply must be byte-equal to the one computed in
//! advance with `ServePlans::validate`.

use std::io::Write;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use healers_core::CheckCounters;
use healers_libc::Libc;
use healers_serve::daemon::PipeListener;
use healers_serve::frame::{encode_frame, read_frame, write_frame, DIR_REQUEST, DIR_RESPONSE};
use healers_serve::plans::SCRATCH_BUF_LEN;
use healers_serve::{
    duplex, Daemon, DaemonConfig, DuplexStream, Limits, PlanConfig, Request, Response, ServePlans,
    ValidateVerdict,
};
use healers_simproc::{SimValue, INVALID_PTR};

use crate::speed::{self, Pace};
use crate::stats::{Checked, Metrics, Samples};
use crate::trace::Tracer;
use crate::{Traced, JOBS};

/// Requests per bulk frame.
const BULK_BATCH: usize = 1024;
/// Distinct frames of each phase in the mix, replayed round robin.
const BULK_FRAMES: usize = 8;
const INTERACTIVE_FRAMES: usize = 512;
/// One round of the untraced phase: passes over the bulk frames, then
/// interactive frames. Each half takes about a tenth of a second on two
/// cores. The round-trip percentiles are taken per round and the
/// median over rounds reported, so a burst of machine noise that hits
/// one round does not decide a run, while a stall that recurs in every
/// round does.
const BULK_PASSES: usize = 20;
pub const INTERACTIVE_PER_ROUND: usize = 8_000;
/// Passes over the mix in a traced run.
const TRACED_PASSES: usize = 4;
const PIPE_CAPACITY: usize = 1 << 20;
const LIMITS: Limits = Limits {
    max_frame_len: 16 << 20,
    max_batch: u16::MAX,
};
/// The daemon's steps for one frame, in order.
const STAGES: [&str; 5] = ["read_frame", "decode", "validate", "encode", "write_frame"];

/// A running daemon with one client connection.
pub struct Server {
    pub plans: Arc<ServePlans>,
    daemon: Daemon,
    dial: Sender<DuplexStream>,
    conn: DuplexStream,
}

impl Server {
    /// Build the plans with a cold analysis, start the daemon, connect,
    /// and wait for the answer to a first ping.
    pub fn start(libc: &Libc) -> Server {
        let config = PlanConfig {
            jobs: JOBS,
            ..PlanConfig::default()
        };
        let (plans, _) = ServePlans::build(libc, &config).expect("plans for the 86 targets");
        let plans = Arc::new(plans);
        let (dial, listener) = PipeListener::new();
        let daemon = Daemon::spawn(
            Box::new(listener),
            Arc::clone(&plans),
            DaemonConfig {
                workers: 1,
                queue_depth: 1,
                limits: LIMITS,
            },
        );
        let (mut conn, remote) = duplex(PIPE_CAPACITY);
        dial.send(remote).expect("the daemon accepts connections");
        let mut ping = Vec::new();
        Request::Ping.encode(&mut ping);
        conn.write_all(&encode_frame(DIR_REQUEST, &[ping]))
            .expect("daemon connection open");
        let pong = read_frame(&mut conn, &LIMITS).expect("the daemon replies");
        assert!(
            matches!(
                pong.messages.first().map(|m| Response::decode(m)),
                Some(Ok(Response::Pong))
            ),
            "the daemon answers a ping with a pong"
        );
        Server {
            plans,
            daemon,
            dial,
            conn,
        }
    }

    /// Hang up and wait for every daemon thread to end.
    pub fn stop(self) {
        let Server {
            daemon, dial, conn, ..
        } = self;
        drop(conn);
        drop(dial);
        daemon.trigger_shutdown();
        daemon.join().expect("the daemon stops cleanly");
    }
}

/// A request frame and the reply messages it must get.
pub struct Exchange {
    request: Vec<u8>,
    reply: Vec<Vec<u8>>,
}

/// The seeded traffic of both phases, with the expected replies and
/// the check work one pass over it costs.
pub struct Mix {
    bulk: Vec<Exchange>,
    interactive: Vec<Exchange>,
    validates: u64,
    rejects: u64,
    kernels: CheckCounters,
}

pub fn mix(plans: &ServePlans, libc: &Libc, seed: u64) -> Mix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mix = Mix {
        bulk: Vec::with_capacity(BULK_FRAMES),
        interactive: Vec::with_capacity(INTERACTIVE_FRAMES),
        validates: 0,
        rejects: 0,
        kernels: CheckCounters::default(),
    };
    for (frames, batch) in [(BULK_FRAMES, BULK_BATCH), (INTERACTIVE_FRAMES, 1)] {
        for _ in 0..frames {
            let (mut messages, mut reply) = (Vec::with_capacity(batch), Vec::with_capacity(batch));
            for _ in 0..batch {
                let (function, args) = request(plans, libc, &mut rng);
                let verdict = plans.validate(&function, &args, &mut mix.kernels);
                mix.validates += 1;
                mix.rejects += u64::from(matches!(verdict, ValidateVerdict::Reject { .. }));
                let mut buf = Vec::new();
                Request::Validate { function, args }.encode(&mut buf);
                messages.push(buf);
                let mut buf = Vec::new();
                Response::Validated(verdict).encode(&mut buf);
                reply.push(buf);
            }
            let exchange = Exchange {
                request: encode_frame(DIR_REQUEST, &messages),
                reply,
            };
            if batch == 1 {
                mix.interactive.push(exchange);
            } else {
                mix.bulk.push(exchange);
            }
        }
    }
    mix
}

/// One validate request: a function the plans serve, each argument of
/// one of five kinds.
fn request(plans: &ServePlans, libc: &Libc, rng: &mut StdRng) -> (String, Vec<SimValue>) {
    let functions = plans.functions();
    let function = functions[rng.random_range(0..functions.len())].clone();
    let arity = libc
        .get(&function)
        .expect("the plans serve exported functions")
        .proto
        .params
        .len();
    let args = (0..arity)
        .map(|_| match rng.random_range(0..5u32) {
            0 => SimValue::Ptr(plans.scratch_str()),
            1 => SimValue::Ptr(plans.scratch_buf() + rng.random_range(0..SCRATCH_BUF_LEN)),
            2 => SimValue::NULL,
            3 => SimValue::Ptr(INVALID_PTR + rng.random_range(0..0x1000u32)),
            _ => SimValue::Int(rng.random_range(-2..=4096i64)),
        })
        .collect();
    (function, args)
}

/// Results of the untraced `serve` phase, accumulated over its rounds.
#[derive(Default)]
pub struct Run {
    /// Requests per second over each pass of every bulk frame once.
    pub bulk_rates: Samples,
    /// Bulk requests answered, and the seconds they took.
    pub bulk_requests: u64,
    pub bulk_secs: f64,
    /// Round trip of each bulk frame, in µs.
    pub bulk_rtt_us: Samples,
    /// Round trip of each interactive frame, in µs.
    pub rtt_us: Samples,
    /// Every hand-off probe, in µs.
    pub handoff_us: Samples,
    pub checked: Checked,
}

/// One round: [`BULK_PASSES`] passes over the bulk frames, then
/// [`INTERACTIVE_PER_ROUND`] 1-request frames, each frame waiting for
/// its reply.
/// Each bulk pass is one step between two speed probes, its times
/// scaled to the reference speed. The interactive frames are one step
/// between two hand-off probes, and their round trips are scaled by the
/// hand-off instead; no probe runs among them, where it would delay the
/// next frame and show in the tail.
pub fn run(server: &mut Server, mix: &Mix, run: &mut Run, pace: &mut Pace) {
    let mut rtts = Vec::with_capacity(INTERACTIVE_PER_ROUND);
    pace.restart();
    for _ in 0..BULK_PASSES {
        let pass = Instant::now();
        for exchange in &mix.bulk {
            rtts.push(round_trip(&mut server.conn, exchange, &mut run.checked));
        }
        let secs = pass.elapsed().as_secs_f64();
        let slowdown = pace.step();
        let (requests, secs) = (mix.bulk.len() * BULK_BATCH, secs / slowdown);
        run.bulk_rates.push(requests as f64 / secs);
        run.bulk_requests += requests as u64;
        run.bulk_secs += secs;
        run.bulk_rtt_us
            .extend(rtts.drain(..).map(|us| us / slowdown));
    }
    let before = speed::handoff();
    for i in 0..INTERACTIVE_PER_ROUND {
        let exchange = &mix.interactive[i % mix.interactive.len()];
        rtts.push(round_trip(&mut server.conn, exchange, &mut run.checked));
    }
    let after = speed::handoff();
    run.handoff_us.extend([before, after]);
    let slowdown = (before + after) / 2.0 / speed::HANDOFF_NOMINAL_US;
    run.rtt_us.extend(rtts.drain(..).map(|us| us / slowdown));
}

/// Send one frame and read its reply; a reply that is not byte-equal to
/// the expected one is a failed operation. Returns the round trip in µs.
fn round_trip(conn: &mut DuplexStream, exchange: &Exchange, checked: &mut Checked) -> f64 {
    let started = Instant::now();
    conn.write_all(&exchange.request)
        .expect("daemon connection open");
    let reply = read_frame(conn, &LIMITS);
    let rtt = started.elapsed().as_secs_f64() * 1e6;
    checked.check(matches!(
        &reply,
        Ok(frame) if frame.direction == DIR_RESPONSE && frame.messages == exchange.reply
    ));
    rtt
}

/// A traced run: the daemon's per-frame steps replayed from this file
/// with the same public calls — `read_frame`, `Request::decode`,
/// `ServePlans::validate`, `Response::encode`, `write_frame` — each step
/// of each frame a span. The same replay untraced is the overhead
/// baseline.
pub fn trace(plans: &ServePlans, mix: &Mix, tracer: &mut Tracer, m: &mut Metrics) -> Traced {
    let phase = tracer.begin("serve");
    let mut checked = Checked::default();
    let started = Instant::now();
    for _ in 0..TRACED_PASSES {
        for exchange in mix.bulk.iter().chain(&mix.interactive) {
            checked.check(replay(plans, exchange, |_| {}));
        }
    }
    let untraced_s = started.elapsed().as_secs_f64();

    let here = std::thread::current().id();
    // Nanoseconds per step, bulk then interactive.
    let mut step_ns = [[0.0f64; STAGES.len()]; 2];
    let started = Instant::now();
    for pass in 0..TRACED_PASSES {
        for (kind, (label, exchanges)) in [("bulk", &mix.bulk), ("interactive", &mix.interactive)]
            .into_iter()
            .enumerate()
        {
            let span = tracer.begin(format!("{label} pass {pass}"));
            for exchange in exchanges {
                let frame = tracer.begin("frame");
                let mut last = Instant::now();
                let ok = replay(plans, exchange, |step| {
                    let now = Instant::now();
                    tracer.record(STAGES[step], last, now, here);
                    step_ns[kind][step] += (now - last).as_nanos() as f64;
                    last = now;
                });
                tracer.end(frame);
                checked.check(ok);
            }
            tracer.end(span);
        }
    }
    let traced_s = started.elapsed().as_secs_f64();
    tracer.end(phase);

    let requests = [
        (mix.bulk.len() * BULK_BATCH * TRACED_PASSES) as f64,
        (mix.interactive.len() * TRACED_PASSES) as f64,
    ];
    for (step, name) in STAGES.iter().enumerate() {
        m.put(format!("serve.{name}_ns"), step_ns[0][step] / requests[0]);
        m.put(
            format!("serve.interactive.{name}_ns"),
            step_ns[1][step] / requests[1],
        );
    }
    m.put(
        "serve.reject_ratio",
        mix.rejects as f64 / mix.validates as f64,
    );
    Traced {
        checked,
        overhead_pct: (traced_s / untraced_s - 1.0) * 100.0,
        kernels: mix.kernels,
    }
}

/// The daemon's steps for one frame; `mark(i)` runs as step `i` of
/// [`STAGES`] ends. Returns whether the reply frame is byte-equal to
/// the expected one.
fn replay(plans: &ServePlans, exchange: &Exchange, mut mark: impl FnMut(usize)) -> bool {
    let frame =
        read_frame(&mut exchange.request.as_slice(), &LIMITS).expect("mix frames are well formed");
    mark(0);
    let requests: Vec<Request> = frame
        .messages
        .iter()
        .map(|m| Request::decode(m).expect("mix requests decode"))
        .collect();
    mark(1);
    let mut ctrs = CheckCounters::default();
    let verdicts: Vec<ValidateVerdict> = requests
        .iter()
        .map(|request| match request {
            Request::Validate { function, args } => plans.validate(function, args, &mut ctrs),
            other => unreachable!("the mix holds validate requests only, not {other:?}"),
        })
        .collect();
    mark(2);
    let replies: Vec<Vec<u8>> = verdicts
        .into_iter()
        .map(|verdict| {
            let mut buf = Vec::new();
            Response::Validated(verdict).encode(&mut buf);
            buf
        })
        .collect();
    mark(3);
    let mut out = Vec::new();
    write_frame(&mut out, DIR_RESPONSE, &replies).expect("writing to memory");
    mark(4);
    out == encode_frame(DIR_RESPONSE, &exchange.reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expected_reply_is_a_failed_operation() {
        let libc = Libc::standard();
        let config = PlanConfig {
            functions: vec!["strlen".into(), "abs".into()],
            ..PlanConfig::default()
        };
        let (plans, _) = ServePlans::build(&libc, &config).expect("plans");
        let mut mix = mix(&plans, &libc, 1);
        assert!(mix.rejects > 0 && mix.rejects < mix.validates);
        for exchange in mix.bulk.iter().chain(&mix.interactive) {
            assert!(replay(&plans, exchange, |_| {}));
        }
        mix.interactive[0].reply[0][0] ^= 1;
        assert!(!replay(&plans, &mix.interactive[0], |_| {}));
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let libc = Libc::standard();
        let config = PlanConfig {
            functions: vec!["strcpy".into(), "abs".into()],
            ..PlanConfig::default()
        };
        let (plans, _) = ServePlans::build(&libc, &config).expect("plans");
        let (a, b, c) = (
            mix(&plans, &libc, 3),
            mix(&plans, &libc, 3),
            mix(&plans, &libc, 4),
        );
        assert!(a
            .bulk
            .iter()
            .zip(&b.bulk)
            .all(|(x, y)| x.request == y.request));
        assert!(a
            .bulk
            .iter()
            .zip(&c.bulk)
            .any(|(x, y)| x.request != y.request));
    }
}
