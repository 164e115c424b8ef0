//! INV-SERVE-ZERO-ALLOC: in steady state the daemon's frame path
//! allocates nothing for a frame of validates.
//!
//! The session reads each frame into one payload buffer it reuses,
//! decodes each request in place, takes a reject's check notation from
//! the plan set, and encodes the reply frame in place in one reused
//! output buffer. So once a warm-up frame has sized those buffers, a
//! further 1024-validate frame, or a 1-request frame, must add no heap
//! allocation to the session's thread, traced or not. A counting
//! global allocator tallies allocations per thread; the session runs
//! on the test thread over an in-memory connection whose writer never
//! grows, so every allocation it counts is the session's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Read, Write};

use healers::core::CheckCounters;
use healers::libc::Libc;
use healers::serve::daemon::serve_session;
use healers::serve::frame::{encode_frame, read_frame, DIR_REQUEST, DIR_RESPONSE};
use healers::serve::{
    Limits, PlanConfig, Request, Response, ServePlans, StatsHub, ValidateVerdict,
};
use healers::simproc::{SimValue, INVALID_PTR};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` with a const initializer, so bumping it neither
// allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const FUNCTIONS: [&str; 5] = ["strlen", "strcpy", "memset", "fgets", "abs"];
const BULK: usize = 1024;

fn limits() -> Limits {
    Limits::default()
}

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// An in-memory connection: reads a fixed request stream, and writes
/// into a buffer reserved up front that it refuses to grow.
struct Memory<'a> {
    input: &'a [u8],
    output: Vec<u8>,
}

impl Read for Memory<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Memory<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        assert!(
            self.output.len() + buf.len() <= self.output.capacity(),
            "the connection's writer must not grow"
        );
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `n` validates cycling through admitted, rejected, unchecked and
/// unknown-function calls, as (request frame, expected reply frame).
fn validates(plans: &ServePlans, n: usize) -> (Vec<u8>, Vec<u8>) {
    let (s, b) = (
        SimValue::Ptr(plans.scratch_str()),
        SimValue::Ptr(plans.scratch_buf()),
    );
    let cases: [(&str, Vec<SimValue>); 10] = [
        ("strlen", vec![s]),
        ("strlen", vec![SimValue::NULL]),
        ("strcpy", vec![b, s]),
        ("strcpy", vec![SimValue::Ptr(INVALID_PTR), s]),
        ("memset", vec![b, SimValue::Int(0), SimValue::Int(64)]),
        ("memset", vec![b, SimValue::Int(0), SimValue::Int(1 << 20)]),
        ("fgets", vec![b, SimValue::Int(16), SimValue::NULL]),
        ("abs", vec![SimValue::Int(-3)]),
        ("frobnicate", vec![s]),
        ("strlen", vec![]),
    ];
    let mut ctrs = CheckCounters::default();
    let (mut requests, mut replies) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for (function, args) in cases.iter().cycle().take(n) {
        let verdict = plans.validate(function, args, &mut ctrs);
        let mut buf = Vec::new();
        Request::Validate {
            function: function.to_string(),
            args: args.clone(),
        }
        .encode(&mut buf);
        requests.push(buf);
        let mut buf = Vec::new();
        Response::Validated(verdict).encode(&mut buf);
        replies.push(buf);
    }
    (
        encode_frame(DIR_REQUEST, &requests),
        encode_frame(DIR_RESPONSE, &replies),
    )
}

/// Run one session over the concatenated request frames and return the
/// allocations it made and the reply bytes it wrote.
fn session(plans: &ServePlans, requests: &[&[u8]], reply_room: usize) -> (u64, Vec<u8>) {
    let input = requests.concat();
    let mut conn = Memory {
        input: &input,
        output: Vec::with_capacity(reply_room),
    };
    let hub = StatsHub::new(plans.functions(), 1);
    let (allocs, outcome) = allocations(|| serve_session(&mut conn, plans, &limits(), &hub, 0));
    assert!(!outcome.shutdown);
    assert_eq!(outcome.stats.errors, 0);
    (allocs, conn.output)
}

#[test]
fn a_steady_state_frame_of_validates_allocates_nothing() {
    let libc = Libc::standard();
    let config = PlanConfig {
        functions: FUNCTIONS.iter().map(|f| f.to_string()).collect(),
        ..PlanConfig::default()
    };
    let (plans, _) = ServePlans::build(&libc, &config).expect("plans");
    let (bulk, bulk_reply) = validates(&plans, BULK);
    let (one, one_reply) = validates(&plans, 1);
    let verdicts: Vec<Response> = read_frame(&mut bulk_reply.as_slice(), &limits())
        .expect("the expected reply is a frame")
        .messages
        .iter()
        .map(|m| Response::decode(m).expect("the expected replies decode"))
        .collect();
    for wanted in [
        ValidateVerdict::Admit,
        ValidateVerdict::AdmitUnchecked,
        ValidateVerdict::UnknownFunction,
    ] {
        assert!(verdicts.contains(&Response::Validated(wanted)));
    }
    assert!(
        verdicts
            .iter()
            .any(|r| matches!(r, Response::Validated(ValidateVerdict::Reject { .. }))),
        "the mix must hold rejects"
    );
    let room = 4 * (bulk_reply.len() + one_reply.len());

    for traced in [false, true] {
        healers::trace::set_enabled(traced);
        let (warm, warm_out) = session(&plans, &[&bulk], room);
        assert_eq!(warm_out, bulk_reply, "traced {traced}: warm-up reply");
        for (what, frame, reply) in [
            ("a 1024-validate frame", &bulk, &bulk_reply),
            ("a 1-request frame", &one, &one_reply),
        ] {
            let (allocs, out) = session(&plans, &[&bulk, frame], room);
            assert_eq!(out, [bulk_reply.as_slice(), reply].concat());
            assert_eq!(
                allocs - warm,
                0,
                "traced {traced}: {what} after a warm-up frame allocated"
            );
        }
    }
    healers::trace::set_enabled(false);
}
