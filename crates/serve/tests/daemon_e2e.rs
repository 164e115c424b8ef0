//! End-to-end daemon tests over the in-process transport: the
//! determinism contract (byte-identical reply streams for any worker
//! count), warm-start behaviour (zero injected calls off a warm
//! declaration cache), backpressure (slow readers throttle, full
//! queues shed), session isolation, and hostile-input handling.

use std::io::{Read, Write};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use healers_libc::Libc;
use healers_serve::daemon::PipeListener;
use healers_serve::frame::{read_frame, write_frame, Limits, DIR_REQUEST, DIR_RESPONSE};
use healers_serve::pipe::{duplex, DuplexStream};
use healers_serve::{
    run_script, Daemon, DaemonConfig, PlanConfig, Request, Response, Script, ServePlans,
};

const SCRIPT: &str = "\
ping
validate strlen ptr:str
validate strlen ptr:null
validate strcpy ptr:buf ptr:str
validate abs int:-7
validate frobnicate void

explain strcpy
explain abs
report

validate strcpy ptr:null ptr:str
report
shutdown
";

fn test_plans() -> Arc<ServePlans> {
    let libc = Libc::standard();
    let config = PlanConfig {
        functions: vec!["strlen".into(), "strcpy".into(), "abs".into()],
        ..PlanConfig::default()
    };
    Arc::new(ServePlans::build(&libc, &config).unwrap().0)
}

fn spawn_daemon(
    plans: &Arc<ServePlans>,
    workers: usize,
    queue_depth: usize,
) -> (Sender<DuplexStream>, Daemon) {
    let (dial, listener) = PipeListener::new();
    let daemon = Daemon::spawn(
        Box::new(listener),
        Arc::clone(plans),
        DaemonConfig {
            workers,
            queue_depth,
            limits: Limits::default(),
        },
    );
    (dial, daemon)
}

fn dial(dial: &Sender<DuplexStream>) -> DuplexStream {
    let (local, remote) = duplex(64 * 1024);
    dial.send(remote).expect("accept loop alive");
    local
}

fn finish(daemon: Daemon) {
    daemon.trigger_shutdown();
    daemon.join().unwrap();
}

/// The tentpole guarantee: the reply stream for a fixed script is a
/// pure function of the script, not of `--workers`.
#[test]
fn reply_streams_are_byte_identical_for_any_worker_count() {
    let plans = test_plans();
    let script = Script::parse(SCRIPT).unwrap();
    let mut streams = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (tx, daemon) = spawn_daemon(&plans, workers, 8);
        let mut conn = dial(&tx);
        let replies = run_script(&mut conn, &script, &Limits::default()).unwrap();
        drop(conn);
        drop(tx);
        finish(daemon);
        assert!(!replies.raw.is_empty());
        streams.push((workers, replies.raw));
    }
    let (_, reference) = &streams[0];
    for (workers, raw) in &streams[1..] {
        assert_eq!(
            raw, reference,
            "reply bytes for --workers {workers} diverge from --workers 1"
        );
    }
}

/// Warm start: with a warm declaration cache, building the plan set
/// performs zero injected calls — proven by the campaign trace
/// counters, not by timing.
#[test]
fn warm_start_builds_plans_with_zero_injected_calls() {
    let dir = std::env::temp_dir().join(format!("healers-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let libc = Libc::standard();
    let config = PlanConfig {
        functions: vec!["strlen".into(), "strcpy".into(), "abs".into()],
        cache_dir: Some(dir.clone()),
        ..PlanConfig::default()
    };

    let (_, cold) = ServePlans::build(&libc, &config).unwrap();
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.cache_misses, 3);
    assert!(cold.injected_calls > 0, "cold start must inject");

    let (warm_plans, warm) = ServePlans::build(&libc, &config).unwrap();
    assert_eq!(warm.cache_hits, 3, "every function served from cache");
    assert_eq!(warm.cache_misses, 0);
    assert_eq!(
        warm.injected_calls, 0,
        "a warm start must perform zero injected calls"
    );
    // And the warm plan set still checks correctly.
    let mut ctrs = healers_core::checker::CheckCounters::default();
    assert_eq!(
        warm_plans.validate(
            "strlen",
            &[healers_simproc::SimValue::Ptr(warm_plans.scratch_str())],
            &mut ctrs
        ),
        healers_serve::ValidateVerdict::Admit
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupt cache entry fails a serve startup loudly instead of being
/// silently re-derived.
#[test]
fn corrupt_cache_entry_fails_startup() {
    let dir = std::env::temp_dir().join(format!("healers-serve-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let libc = Libc::standard();
    let config = PlanConfig {
        functions: vec!["strlen".into()],
        cache_dir: Some(dir.clone()),
        ..PlanConfig::default()
    };
    ServePlans::build(&libc, &config).unwrap();
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "xml"))
        .expect("cache entry written");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() - 7]).unwrap();

    let err = ServePlans::build(&libc, &config).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("checksum"),
        "truncation must be named: {text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Report counters are session-scoped: two interleaved connections
/// each see only their own traffic.
#[test]
fn report_counters_are_session_scoped() {
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 4, 8);
    let mut a = dial(&tx);
    let mut b = dial(&tx);

    let ping = Script::parse("ping\nping\nping\n\nreport\n").unwrap();
    let one = Script::parse("ping\n\nreport\n").unwrap();
    let ra = run_script(&mut a, &ping, &Limits::default()).unwrap();
    let rb = run_script(&mut b, &one, &Limits::default()).unwrap();

    let counters = |frames: &[Vec<Response>]| -> Vec<(String, u64)> {
        match &frames[1][0] {
            Response::Reported { counters } => counters.clone(),
            other => panic!("expected Reported, got {other:?}"),
        }
    };
    let ca = counters(&ra.frames);
    let cb = counters(&rb.frames);
    let get = |c: &[(String, u64)], k: &str| c.iter().find(|(n, _)| n == k).unwrap().1;
    assert_eq!(get(&ca, "pings"), 3);
    assert_eq!(get(&ca, "requests"), 4, "the report counts itself");
    assert_eq!(get(&cb, "pings"), 1);
    assert_eq!(get(&cb, "requests"), 2);

    drop((a, b, tx));
    finish(daemon);
}

/// A slow reader throttles its own connection: the daemon writes
/// replies straight into the bounded pipe and blocks there, so the
/// bytes buffered toward the client never exceed the pipe capacity,
/// and the next frame is not even processed until the reader drains.
#[test]
fn slow_reader_is_throttled_not_buffered() {
    const CAPACITY: usize = 1024;
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 1, 2);
    let (mut conn, remote) = duplex(CAPACITY);
    tx.send(remote).unwrap();

    // One frame whose reply (~5 bytes/pong plus framing) far exceeds
    // the pipe capacity.
    let ping: Vec<u8> = {
        let mut m = Vec::new();
        Request::Ping.encode(&mut m);
        m
    };
    let messages = vec![ping; 400];
    write_frame(&mut conn, DIR_REQUEST, &messages).unwrap();

    // Without reading a byte, the daemon must park on the full pipe.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        conn.buffered() <= CAPACITY,
        "daemon buffered {} bytes toward a non-reading client",
        conn.buffered()
    );

    // Draining releases the worker and the full reply arrives intact.
    let reply = read_frame(&mut conn, &Limits::default()).unwrap();
    assert_eq!(reply.direction, DIR_RESPONSE);
    assert_eq!(reply.messages.len(), 400);
    for msg in &reply.messages {
        assert_eq!(Response::decode(msg).unwrap(), Response::Pong);
    }

    drop((conn, tx));
    finish(daemon);
}

/// A full connection queue sheds new connections with a `busy` error
/// frame instead of queueing without bound.
#[test]
fn full_connection_queue_sheds_with_a_busy_frame() {
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 1, 1);
    let settle = || std::thread::sleep(Duration::from_millis(150));

    // A occupies the single worker (a served ping proves it was
    // dequeued, leaving the queue empty).
    let mut a = dial(&tx);
    let ping = Script::parse("ping\n").unwrap();
    run_script(&mut a, &ping, &Limits::default()).unwrap();

    // B fills the 1-deep queue; C must be shed.
    let b = dial(&tx);
    settle();
    let mut c = dial(&tx);
    settle();

    let reply = read_frame(&mut c, &Limits::default()).unwrap();
    assert_eq!(reply.direction, DIR_RESPONSE);
    assert_eq!(reply.messages.len(), 1);
    match Response::decode(&reply.messages[0]).unwrap() {
        Response::Error { message } => assert!(message.contains("busy"), "{message}"),
        other => panic!("expected a busy error, got {other:?}"),
    }
    // And the shed connection is closed.
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    assert_eq!(daemon.hub().stats_reply().shed, 1);

    // A and B are still serviceable: close A so the worker picks up B.
    drop(a);
    let mut b = b;
    run_script(&mut b, &ping, &Limits::default()).unwrap();

    drop((b, tx));
    finish(daemon);
}

/// Malformed framing gets one error frame back, then the connection is
/// closed — no resynchronization guesswork, no panic.
#[test]
fn malformed_frames_get_an_error_frame_then_eof() {
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 1, 2);
    let mut conn = dial(&tx);
    conn.write_all(b"GARBAGEGARBAGEGARBAGE").unwrap();

    let reply = read_frame(&mut conn, &Limits::default()).unwrap();
    assert_eq!(reply.direction, DIR_RESPONSE);
    match Response::decode(&reply.messages[0]).unwrap() {
        Response::Error { message } => {
            assert!(message.contains("protocol error"), "{message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must be closed after the error");

    drop((conn, tx));
    finish(daemon);
}

/// An undecodable message inside a well-formed frame is answered in
/// position, keeping the one-reply-per-request alignment for the rest
/// of the batch.
#[test]
fn bad_messages_are_answered_in_position() {
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 1, 2);
    let mut conn = dial(&tx);

    let mut ping = Vec::new();
    Request::Ping.encode(&mut ping);
    let messages = vec![ping.clone(), vec![0xEE], ping];
    write_frame(&mut conn, DIR_REQUEST, &messages).unwrap();
    let reply = read_frame(&mut conn, &Limits::default()).unwrap();
    assert_eq!(reply.messages.len(), 3);
    assert_eq!(
        Response::decode(&reply.messages[0]).unwrap(),
        Response::Pong
    );
    assert!(matches!(
        Response::decode(&reply.messages[1]).unwrap(),
        Response::Error { .. }
    ));
    assert_eq!(
        Response::decode(&reply.messages[2]).unwrap(),
        Response::Pong
    );

    drop((conn, tx));
    finish(daemon);
}

/// A `Stats` request reports daemon-wide live counters, and its
/// deterministic subset (global totals, per-function outcomes) is
/// identical for any worker count after the same sequential traffic.
#[test]
fn stats_deterministic_subset_is_worker_count_invariant() {
    let plans = test_plans();
    let traffic =
        Script::parse("validate strlen ptr:str\nvalidate strlen ptr:null\nvalidate abs int:-7\n")
            .unwrap();
    let stats_script = Script::parse("stats\n").unwrap();
    let mut snapshots = Vec::new();
    for workers in [1usize, 4] {
        let (tx, daemon) = spawn_daemon(&plans, workers, 8);
        let mut conn = dial(&tx);
        run_script(&mut conn, &traffic, &Limits::default()).unwrap();
        drop(conn);
        // Sequential: the traffic connection is closed before stats.
        let mut conn = dial(&tx);
        let replies = run_script(&mut conn, &stats_script, &Limits::default()).unwrap();
        drop((conn, tx));
        finish(daemon);
        let Response::Stats(s) = &replies.frames[0][0] else {
            panic!("expected Stats, got {:?}", replies.frames[0][0]);
        };
        // Live sections are present and plausible.
        assert_eq!(s.workers.len(), workers);
        assert!(s.queue_highwater >= 1);
        assert!(s.timings.is_empty(), "timings are opt-in");
        snapshots.push((s.totals.clone(), s.functions.clone()));
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "deterministic stats subset diverged between workers 1 and 4"
    );
    let (totals, functions) = &snapshots[0];
    let get = |k: &str| totals.iter().find(|(n, _)| n == k).unwrap().1;
    assert_eq!(get("connections"), 2);
    assert_eq!(get("validates"), 3);
    assert_eq!(get("admits"), 2, "strlen ptr:str + abs unchecked");
    assert_eq!(get("rejects"), 1);
    let strlen = functions.iter().find(|f| f.function == "strlen").unwrap();
    assert_eq!(
        (strlen.admitted, strlen.rejected, strlen.unchecked),
        (1, 1, 0)
    );
    let abs = functions.iter().find(|f| f.function == "abs").unwrap();
    assert_eq!((abs.admitted, abs.rejected, abs.unchecked), (0, 0, 1));
}

/// The per-worker rows of a `Stats` reply count the same frames and
/// requests as its totals, the `Stats` request itself included, even
/// mid-frame; and `stats timings` is answered with no timings.
#[test]
fn stats_worker_rows_sum_to_the_totals() {
    let plans = test_plans();
    let script = Script::parse(
        "validate strlen ptr:str\nping\nstats timings\nreport\n\nvalidate abs int:-7\nstats\n",
    )
    .unwrap();
    for workers in [1usize, 4] {
        let (tx, daemon) = spawn_daemon(&plans, workers, 8);
        let mut conn = dial(&tx);
        run_script(&mut conn, &script, &Limits::default()).unwrap();
        drop(conn);
        let mut conn = dial(&tx);
        let replies = run_script(&mut conn, &script, &Limits::default()).unwrap();
        drop((conn, tx));
        finish(daemon);
        let stats: Vec<_> = replies
            .frames
            .iter()
            .flatten()
            .filter_map(|r| match r {
                Response::Stats(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(stats.len(), 2);
        for s in stats {
            let total = |k: &str| s.totals.iter().find(|(n, _)| n == k).unwrap().1;
            let frames: u64 = s.workers.iter().map(|w| w.frames).sum();
            let requests: u64 = s.workers.iter().map(|w| w.requests).sum();
            assert_eq!(
                (frames, requests),
                (total("frames"), total("requests")),
                "--workers {workers}: worker rows {:?} vs totals {:?}",
                s.workers,
                s.totals
            );
            assert!(s.timings.is_empty(), "--workers {workers}: {:?}", s.timings);
        }
    }
}

/// A `Shutdown` request is acknowledged with `Bye` and stops the
/// daemon: the accept loop exits and every worker drains.
#[test]
fn shutdown_request_stops_the_daemon() {
    let plans = test_plans();
    let (tx, daemon) = spawn_daemon(&plans, 2, 4);
    let mut conn = dial(&tx);
    let script = Script::parse("shutdown\n").unwrap();
    let replies = run_script(&mut conn, &script, &Limits::default()).unwrap();
    assert_eq!(replies.frames, vec![vec![Response::Bye]]);
    drop(conn);
    // join() without trigger_shutdown(): the request did the stopping.
    drop(tx);
    daemon.join().unwrap();
}
