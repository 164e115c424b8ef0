//! INV-CALL-ZERO-ALLOC: a wrapped call allocates exactly as often as
//! the bare library call it wraps.
//!
//! The wrapper's prefix (dispatch, compiled checks, validity cache) and
//! postfix (tracking) run on preallocated state, and the check-vs-call
//! window `begin_call` opens borrows the caller's name and arguments.
//! So after a warm-up, `call` and `begin_call` + `finish_call(false)`
//! must add no heap allocation to `Libc::call`. A counting global
//! allocator tallies allocations per thread, which keeps the test
//! harness's own threads out of the count. The `printf`-family
//! format check parses the format in place, so `sprintf`, `snprintf`
//! and `fprintf` are held to the same count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use healers::core::{analyze, RobustnessWrapper, WrapperBuilder, WrapperConfig};
use healers::libc::{Libc, World};
use healers::simproc::SimValue;

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

const WARMUP: usize = 100;
const CALLS: usize = 1_000;

/// Allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[derive(Clone, Copy)]
enum Path {
    Bare,
    Call,
    Split,
}

fn drive(
    path: Path,
    n: usize,
    libc: &Libc,
    world: &mut World,
    w: &mut RobustnessWrapper,
    name: &str,
    args: &[SimValue],
) {
    for _ in 0..n {
        let r = match path {
            Path::Bare => libc.call(world, name, args),
            Path::Call => w.call(libc, world, name, args),
            Path::Split => {
                let pending = w.begin_call(libc, world, name, args);
                w.finish_call(libc, world, pending, false).map(|(v, _)| v)
            }
        };
        std::hint::black_box(r.expect("a valid call succeeds"));
    }
}

#[test]
fn wrapped_calls_allocate_no_more_than_bare_calls() {
    let libc = Libc::standard();
    let functions = [
        "strlen", "strcmp", "strcpy", "fread", "fgets", "sprintf", "snprintf", "fprintf",
    ];
    let decls = analyze(&libc, &functions);
    let mut w = WrapperBuilder::new()
        .decls(decls)
        .config(WrapperConfig::full_auto())
        .build();
    let mut world = World::new();

    // Tracked buffers and a tracked stream, so the checks take their
    // stateful paths.
    let dst = w
        .call(&libc, &mut world, "malloc", &[SimValue::Int(256)])
        .unwrap();
    let src = SimValue::Ptr(world.alloc_cstr("zero allocations"));
    let other = SimValue::Ptr(world.alloc_cstr("zero allocation"));
    world
        .kernel
        .write_file("/tmp/zero-alloc", &[b'z'; 128 * 1024])
        .unwrap();
    let path = SimValue::Ptr(world.alloc_cstr("/tmp/zero-alloc"));
    let mode = SimValue::Ptr(world.alloc_cstr("r"));
    let stream = w.call(&libc, &mut world, "fopen", &[path, mode]).unwrap();
    assert_ne!(stream, SimValue::NULL);
    let out_path = SimValue::Ptr(world.alloc_cstr("/tmp/zero-alloc-out"));
    let out_mode = SimValue::Ptr(world.alloc_cstr("w"));
    let out = w
        .call(&libc, &mut world, "fopen", &[out_path, out_mode])
        .unwrap();
    assert_ne!(out, SimValue::NULL);
    // Every directive kind the format check walks: flags, width,
    // precision, a length modifier, `%%`, and a checked `%s`.
    let fmt = SimValue::Ptr(world.alloc_cstr("%-4d|%08.3lx|%%|%s|%c"));
    let printf_args = |head: &[SimValue]| {
        let mut args = head.to_vec();
        args.extend([
            fmt,
            SimValue::Int(42),
            SimValue::Int(7),
            src,
            SimValue::Int(65),
        ]);
        args
    };

    let cases: [(&str, Vec<SimValue>); 8] = [
        ("strlen", vec![src]),
        ("strcmp", vec![src, other]),
        ("strcpy", vec![dst, src]),
        (
            "fread",
            vec![dst, SimValue::Int(8), SimValue::Int(8), stream],
        ),
        ("fgets", vec![dst, SimValue::Int(32), stream]),
        ("sprintf", printf_args(&[dst])),
        ("snprintf", printf_args(&[dst, SimValue::Int(64)])),
        ("fprintf", printf_args(&[out])),
    ];
    for (name, args) in &cases {
        let id = w.resolve(name).expect("declared");
        assert!(w.is_checked(id), "{name} must run prefix checks");
        // Grow the output file to its full size once, so no measured
        // batch pays for the file's own growth.
        libc.call(&mut world, "rewind", &[out]).unwrap();
        drive(Path::Bare, CALLS, &libc, &mut world, &mut w, name, args);
        let mut counts = Vec::new();
        for path in [Path::Bare, Path::Call, Path::Split] {
            // Every batch starts from the same stream positions.
            for s in [stream, out] {
                libc.call(&mut world, "rewind", &[s]).unwrap();
            }
            drive(path, WARMUP, &libc, &mut world, &mut w, name, args);
            for s in [stream, out] {
                libc.call(&mut world, "rewind", &[s]).unwrap();
            }
            counts.push(allocations(|| {
                drive(path, CALLS, &libc, &mut world, &mut w, name, args)
            }));
        }
        let [bare, call, split] = counts[..] else {
            unreachable!()
        };
        assert_eq!(call, bare, "{name}: `call` allocated beyond the library");
        assert_eq!(
            split, bare,
            "{name}: `begin_call` + `finish_call` allocated beyond the library"
        );
    }
    assert_eq!(w.stats.violations, 0, "every driven call must pass");
}
