//! Property tests for the serve wire format: every request/response
//! kind round-trips through its codec, whole frames round-trip through
//! the frame codec, and hostile bytes — truncations, oversized length
//! prefixes, unknown protocol versions, random garbage — are rejected
//! with an error, never a panic or an over-read.

use proptest::prelude::*;

use healers_serve::frame::{
    encode_frame, read_frame, FrameError, Limits, DIR_REQUEST, DIR_RESPONSE, HEADER_LEN,
};
use healers_serve::proto::{ExplainArg, Request, Response, ValidateVerdict};
use healers_simproc::SimValue;

fn arb_value() -> impl Strategy<Value = SimValue> {
    prop_oneof![
        any::<i64>().prop_map(SimValue::Int),
        any::<u32>().prop_map(SimValue::Ptr),
        any::<i64>().prop_map(|b| SimValue::Double(b as f64)),
        Just(SimValue::Void),
    ]
}

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_]{0,24}"
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        (arb_name(), prop::collection::vec(arb_value(), 0..8))
            .prop_map(|(function, args)| { Request::Validate { function, args } }),
        arb_name().prop_map(|function| Request::Explain { function }),
        Just(Request::Report),
        Just(Request::Shutdown),
    ]
}

fn arb_verdict() -> impl Strategy<Value = ValidateVerdict> {
    prop_oneof![
        Just(ValidateVerdict::Admit),
        Just(ValidateVerdict::AdmitUnchecked),
        (any::<u16>(), "[A-Z0-9_]{1,12}")
            .prop_map(|(arg, check)| ValidateVerdict::Reject { arg, check }),
        Just(ValidateVerdict::UnknownFunction),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    let explain_args = prop::collection::vec(
        ("[A-Z-]{1,8}", "[A-Z-]{1,8}").prop_map(|(robust, check)| ExplainArg { robust, check }),
        0..6,
    );
    prop_oneof![
        Just(Response::Pong),
        arb_verdict().prop_map(Response::Validated),
        Just(Response::Explained { info: None }),
        ("[ -~]{0,40}", explain_args).prop_map(|(proto, args)| Response::Explained {
            info: Some((proto, args)),
        }),
        prop::collection::vec((arb_name(), any::<u64>()), 0..16)
            .prop_map(|counters| Response::Reported { counters }),
        Just(Response::Bye),
        "[ -~]{0,60}".prop_map(|message| Response::Error { message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_request_round_trips(req in arb_request()) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        prop_assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    #[test]
    fn every_response_round_trips(rsp in arb_response()) {
        let mut buf = Vec::new();
        rsp.encode(&mut buf);
        prop_assert_eq!(Response::decode(&buf).unwrap(), rsp);
    }

    #[test]
    fn truncated_requests_never_decode_and_never_panic(req in arb_request()) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        for cut in 0..buf.len() {
            prop_assert!(Request::decode(&buf[..cut]).is_err(), "cut at {}", cut);
        }
    }

    #[test]
    fn frames_round_trip(
        direction in prop_oneof![Just(DIR_REQUEST), Just(DIR_RESPONSE)],
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..12),
    ) {
        let bytes = encode_frame(direction, &messages);
        let frame = read_frame(&mut bytes.as_slice(), &Limits::default()).unwrap();
        prop_assert_eq!(frame.direction, direction);
        prop_assert_eq!(frame.messages, messages);
    }

    #[test]
    fn truncated_frames_are_rejected(
        messages in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..6),
        frac in 0.0f64..1.0,
    ) {
        let bytes = encode_frame(DIR_REQUEST, &messages);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        let err = read_frame(&mut &bytes[..cut], &Limits::default()).unwrap_err();
        prop_assert!(
            matches!(err, FrameError::Truncated | FrameError::Eof),
            "cut at {}: {:?}", cut, err
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocation(extra in 1u32..u32::MAX >> 1) {
        let limits = Limits::default();
        let mut bytes = encode_frame(DIR_REQUEST, &[b"hello".to_vec()]);
        let hostile = limits.max_frame_len + extra.min(u32::MAX - limits.max_frame_len);
        bytes[9..13].copy_from_slice(&hostile.to_le_bytes());
        // Only the header is supplied: if the reader tried to consume
        // the advertised payload it would report truncation instead.
        let err = read_frame(&mut &bytes[..HEADER_LEN], &limits).unwrap_err();
        prop_assert!(matches!(err, FrameError::Oversized(n) if n == hostile), "{:?}", err);
    }

    #[test]
    fn unknown_protocol_versions_are_rejected(version in 0u16..u16::MAX) {
        prop_assume!(version != healers_serve::PROTOCOL_VERSION);
        let mut bytes = encode_frame(DIR_REQUEST, &[b"x".to_vec()]);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), &Limits::default()).unwrap_err();
        prop_assert!(matches!(err, FrameError::BadVersion(v) if v == version), "{:?}", err);
    }

    /// The decoder half of `INV-SERVE-HOSTILE-BYTES`; the session half
    /// is `tests/hostile_bytes.rs`.
    #[test]
    fn random_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        // Errors are fine; panics and over-reads are not.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = read_frame(&mut bytes.as_slice(), &Limits::default());
    }

    #[test]
    fn batch_counts_that_cannot_fit_are_rejected(count in 2u16..1024) {
        // A frame whose header claims `count` messages but whose
        // payload is a single empty message's length prefix.
        let mut bytes = encode_frame(DIR_REQUEST, &[Vec::new()]);
        bytes[7..9].copy_from_slice(&count.to_le_bytes());
        let err = read_frame(&mut bytes.as_slice(), &Limits::default()).unwrap_err();
        prop_assert!(matches!(err, FrameError::MisframedPayload), "{:?}", err);
    }
}
