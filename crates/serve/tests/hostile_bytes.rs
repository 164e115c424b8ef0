//! INV-SERVE-HOSTILE-BYTES: the daemon never panics on hostile bytes.
//!
//! A session is fed, over a duplex pipe, seeded random frames and valid
//! frames with one mutation each: a flipped header byte, a rewritten
//! message length prefix, a replaced request tag, a changed argument
//! count, a cut. Whatever arrives, the session must not panic, and it
//! must answer the way the framing dictates: every message of a
//! well-formed request frame is answered in position (an undecodable
//! one with an `Error`), and a malformed frame gets one error frame,
//! after which the session closes. The decoders' half of the contract
//! is `random_bytes_never_panic_the_decoders` in `proto_roundtrip.rs`.
//!
//! However the session ends (EOF, a protocol error, a shutdown, or a
//! peer gone mid-reply), the hub's deterministic totals must then equal
//! the session's own counters: every exit path publishes.

use std::io::{Read, Write};
use std::thread;

use healers_libc::Libc;
use healers_serve::daemon::{serve_session, SessionOutcome};
use healers_serve::frame::{
    encode_frame, read_frame, FrameError, Limits, DIR_REQUEST, DIR_RESPONSE, HEADER_LEN,
};
use healers_serve::{duplex, PlanConfig, Request, Response, ServePlans, StatsHub};
use healers_simproc::SimValue;

const CASES: u64 = 600;
const LIMITS: Limits = Limits {
    max_frame_len: 4096,
    max_batch: 16,
};

/// splitmix64: a seeded, dependency-free byte source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn request(rng: &mut Rng, plans: &ServePlans) -> Request {
    let s = SimValue::Ptr(plans.scratch_str());
    match rng.below(20) {
        0 => Request::Ping,
        1 | 2 => Request::Validate {
            function: "strlen".into(),
            args: vec![s],
        },
        3 | 4 => Request::Validate {
            function: "strcpy".into(),
            args: vec![SimValue::NULL, s],
        },
        5 | 6 => Request::Validate {
            function: "abs".into(),
            args: vec![SimValue::Int(rng.next() as i64)],
        },
        7 => Request::Validate {
            function: "frobnicate".into(),
            args: Vec::new(),
        },
        8 => Request::Explain {
            function: "strcpy".into(),
        },
        9 => Request::Report,
        10 => Request::Stats { timings: false },
        11 => Request::Shutdown,
        _ => Request::Validate {
            function: "strlen".into(),
            args: vec![SimValue::Ptr(rng.next() as u32)],
        },
    }
}

/// A well-formed request frame of 1–6 messages, with each message's
/// offset in the frame.
fn valid_frame(rng: &mut Rng, plans: &ServePlans) -> (Vec<u8>, Vec<usize>) {
    let messages: Vec<Vec<u8>> = (0..1 + rng.below(6))
        .map(|_| {
            let mut buf = Vec::new();
            request(rng, plans).encode(&mut buf);
            buf
        })
        .collect();
    let mut at = HEADER_LEN;
    let offsets = messages
        .iter()
        .map(|m| {
            let here = at;
            at += 4 + m.len();
            here
        })
        .collect();
    (encode_frame(DIR_REQUEST, &messages), offsets)
}

/// One hostile frame: random, or a valid one with one mutation.
fn hostile_frame(rng: &mut Rng, plans: &ServePlans) -> Vec<u8> {
    let (mut frame, offsets) = valid_frame(rng, plans);
    let message = offsets[rng.below(offsets.len())];
    match rng.below(7) {
        // Bytes that are not a frame at all.
        0 => {
            let len = rng.below(64);
            rng.bytes(len)
        }
        // A well-formed header over a random payload.
        1 => {
            let len = rng.below(96);
            let payload = rng.bytes(len);
            let mut bytes = encode_frame(DIR_REQUEST, &[]);
            bytes[7..9].copy_from_slice(&(rng.below(20) as u16).to_le_bytes());
            bytes[9..13].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend(payload);
            bytes
        }
        // A flipped header byte.
        2 => {
            frame[rng.below(HEADER_LEN)] ^= 1 << rng.below(8);
            frame
        }
        // A rewritten message length prefix.
        3 => {
            let len = u32::from_le_bytes(frame[message..message + 4].try_into().unwrap());
            let new = match rng.below(3) {
                0 => len.wrapping_add(1),
                1 => len.wrapping_sub(1),
                _ => rng.next() as u32,
            };
            frame[message..message + 4].copy_from_slice(&new.to_le_bytes());
            frame
        }
        // A replaced request tag.
        4 => {
            if frame.len() > message + 4 {
                frame[message + 4] = rng.next() as u8;
            }
            frame
        }
        // A changed argument count (the byte after a validate's name)
        // or any other payload byte.
        5 => {
            let at = if frame.get(message + 4) == Some(&1) {
                let name = u16::from_le_bytes([frame[message + 5], frame[message + 6]]);
                message + 7 + usize::from(name)
            } else {
                HEADER_LEN + rng.below(frame.len() - HEADER_LEN)
            };
            if at < frame.len() {
                frame[at] = rng.next() as u8;
            }
            frame
        }
        // A cut.
        _ => {
            frame.truncate(rng.below(frame.len()));
            frame
        }
    }
}

/// What the session must send back for an input stream, frame by frame.
struct Expected {
    /// Per answered frame, the request each message decodes to (`None`
    /// for one that does not).
    frames: Vec<Vec<Option<Request>>>,
    /// The stream holds a malformed frame: one error frame follows the
    /// answered ones, then the session closes.
    error: bool,
    /// An answered frame held a `Shutdown`: the session closes after it.
    shutdown: bool,
    /// The stream ends at a frame boundary, so the session is waiting
    /// for the next frame.
    waiting: bool,
}

fn expected(mut input: &[u8]) -> Expected {
    let mut want = Expected {
        frames: Vec::new(),
        error: false,
        shutdown: false,
        waiting: false,
    };
    loop {
        match read_frame(&mut input, &LIMITS) {
            Ok(frame) if frame.direction == DIR_REQUEST => {
                let requests: Vec<Option<Request>> = frame
                    .messages
                    .iter()
                    .map(|m| Request::decode(m).ok())
                    .collect();
                want.shutdown = requests.contains(&Some(Request::Shutdown));
                want.frames.push(requests);
                if want.shutdown {
                    return want;
                }
            }
            Err(FrameError::Eof) => {
                want.waiting = true;
                return want;
            }
            // Mid-frame at the end of the input: the session waits for
            // the rest, and nothing further is answered.
            Err(FrameError::Truncated) => return want,
            Ok(_) | Err(_) => {
                want.error = true;
                return want;
            }
        }
    }
}

fn answers(request: &Option<Request>, response: &Response) -> bool {
    matches!(
        (request, response),
        (None, Response::Error { .. })
            | (Some(Request::Ping), Response::Pong)
            | (Some(Request::Validate { .. }), Response::Validated(_))
            | (Some(Request::Explain { .. }), Response::Explained { .. })
            | (Some(Request::Report), Response::Reported { .. })
            | (Some(Request::Shutdown), Response::Bye)
            | (Some(Request::Stats { .. }), Response::Stats(_))
    )
}

/// The hub a lone session published to holds exactly that session's
/// counts. `connections` stays 0: the accept loop counts those.
fn assert_published(what: &str, hub: &StatsHub, outcome: &SessionOutcome) {
    let s = &outcome.stats;
    let want: Vec<(String, u64)> = [
        ("connections", 0),
        ("frames", s.frames),
        ("requests", s.requests),
        ("validates", s.validates),
        ("admits", s.admitted + s.admitted_unchecked),
        ("rejects", s.rejected),
        ("protocol_errors", s.errors),
    ]
    .into_iter()
    .map(|(name, n)| (name.to_string(), n))
    .collect();
    let reply = hub.stats_reply();
    assert_eq!(reply.totals, want, "{what}: unpublished counts");
    let tallied: u64 = reply
        .functions
        .iter()
        .map(|f| f.admitted + f.rejected + f.unchecked)
        .sum();
    assert_eq!(
        tallied,
        s.validates - s.unknown_functions,
        "{what}: unpublished validate outcomes"
    );
}

/// Feed `input` to a fresh session and check its answers.
fn check(case: u64, plans: &ServePlans, input: &[u8]) {
    let want = expected(input);
    let (mut client, mut server) = duplex(1 << 20);
    let hub = StatsHub::new(plans.functions(), 1);
    thread::scope(|scope| {
        let hub = &hub;
        let session = scope.spawn(move || serve_session(&mut server, plans, &LIMITS, hub, 0));
        client.write_all(input).unwrap();
        for (i, requests) in want.frames.iter().enumerate() {
            let reply = read_frame(&mut client, &LIMITS)
                .unwrap_or_else(|e| panic!("case {case}: frame {i} unanswered: {e}"));
            assert_eq!(reply.direction, DIR_RESPONSE, "case {case}");
            assert_eq!(
                reply.messages.len(),
                requests.len(),
                "case {case}: frame {i}"
            );
            for (j, (request, raw)) in requests.iter().zip(&reply.messages).enumerate() {
                let response = Response::decode(raw).expect("replies decode");
                assert!(
                    answers(request, &response),
                    "case {case}: frame {i} message {j}: {request:?} answered by {response:?}"
                );
            }
        }
        if want.error {
            let reply = read_frame(&mut client, &LIMITS).expect("an error frame");
            assert_eq!(reply.messages.len(), 1, "case {case}");
            assert!(
                matches!(
                    Response::decode(&reply.messages[0]),
                    Ok(Response::Error { .. })
                ),
                "case {case}"
            );
        }
        if want.error || want.shutdown {
            let mut rest = Vec::new();
            client.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "case {case}: the session must close");
        } else if want.waiting {
            // Nothing was sent beyond the answers: the next frame's
            // reply comes straight after them.
            let mut ping = Vec::new();
            Request::Ping.encode(&mut ping);
            client
                .write_all(&encode_frame(DIR_REQUEST, &[ping]))
                .unwrap();
            let reply = read_frame(&mut client, &LIMITS).expect("a pong frame");
            assert_eq!(
                reply
                    .messages
                    .iter()
                    .map(|m| Response::decode(m))
                    .collect::<Vec<_>>(),
                vec![Ok(Response::Pong)],
                "case {case}"
            );
        }
        drop(client);
        let outcome = session.join().expect("the session never panics");
        assert_eq!(outcome.shutdown, want.shutdown, "case {case}");
        assert_published(&format!("case {case}"), hub, &outcome);
    });
}

/// The peer hangs up before reading a reply too large for the pipe, so
/// the session's reply write fails.
fn check_peer_gone(plans: &ServePlans) {
    let (mut client, mut server) = duplex(16);
    let hub = StatsHub::new(plans.functions(), 1);
    let mut validate = Vec::new();
    Request::Validate {
        function: "strlen".into(),
        args: vec![SimValue::NULL],
    }
    .encode(&mut validate);
    thread::scope(|scope| {
        let hub = &hub;
        let session = scope.spawn(move || serve_session(&mut server, plans, &LIMITS, hub, 0));
        client
            .write_all(&encode_frame(DIR_REQUEST, &[validate]))
            .unwrap();
        drop(client);
        let outcome = session.join().expect("the session never panics");
        assert_eq!(
            (outcome.stats.frames, outcome.stats.rejected),
            (1, 1),
            "peer gone"
        );
        assert_published("peer gone", hub, &outcome);
    });
}

#[test]
fn hostile_frames_never_panic_and_are_answered_in_position_or_closed() {
    let libc = Libc::standard();
    let config = PlanConfig {
        functions: vec!["strlen".into(), "strcpy".into(), "abs".into()],
        ..PlanConfig::default()
    };
    let (plans, _) = ServePlans::build(&libc, &config).unwrap();
    let mut outcomes = [0usize; 3];
    for case in 0..CASES {
        let mut rng = Rng(case);
        // A valid frame, the hostile one, then another valid frame: the
        // session must answer the first and decide the rest correctly.
        let mut input = valid_frame(&mut rng, &plans).0;
        input.extend(hostile_frame(&mut rng, &plans));
        input.extend(valid_frame(&mut rng, &plans).0);
        let want = expected(&input);
        outcomes[usize::from(want.error) + 2 * usize::from(want.shutdown && !want.error)] += 1;
        check(case, &plans, &input);
    }
    // The mutations must reach every branch of the contract.
    assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
    check_peer_gone(&plans);
}
