//! Compiled check plans: build-time specialization of each wrapped
//! function's checks into one flat superword-bytecode program.
//!
//! Interpreting the declarations would re-derive everything on every
//! call: a `BTreeMap` dispatch per table, a walk over
//! `Vec<Option<TypeExpr>>` skipping unchecked slots, a `match` over the
//! full type lattice per claim, and a second loop over the executable
//! assertions. All of that is known at
//! [`WrapperBuilder::build`](crate::WrapperBuilder) time, so the
//! builder *compiles* it once: per function, one
//! contiguous [`CheckOp`] array — typed claims in argument order, then
//! assertions — where every op carries its argument index, its
//! pre-resolved [`CheckKind`], its cacheability, and a flattened
//! [`OpAction`] that [`eval_op`] dispatches on with a single shallow
//! match. The hot path walks a dense slice with no `Option` skips, no
//! lattice match, and no allocation.
//!
//! Outcome equivalence is by construction *and* by test:
//! [`action_for`] is a bijective re-encoding of the
//! [`check_value_counted`](crate::checker::check_value_counted) match
//! arms (each `OpAction` arm calls the *same* `pub(crate)` checker
//! kernels with the same operands), and the differential tests below
//! drive both evaluators over the entire checkable universe asserting
//! identical verdicts and identical [`CheckCounters`] traffic. At the
//! wrapper level, `INV-PLAN-EXACT` holds whole compiled programs to the
//! interpreted walk (a test-only oracle) over every analysed function.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use healers_libc::World;
use healers_os::Termios;
use healers_simproc::{Addr, SimValue};
use healers_typesys::TypeExpr;

use crate::checker::{
    check_dir_integrity, check_file, check_region, scan_string, CheckCapabilities, CheckCounters,
    CheckKind, Tables, MAX_STRING_SCAN,
};
use crate::overrides::{SizeAssertion, SizeTerm};

/// Integer-domain comparison for the scalar claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntCond {
    /// `v < 0`
    Neg,
    /// `v == 0`
    Zero,
    /// `v > 0`
    Pos,
    /// `v >= 0`
    NonNeg,
    /// `v <= 0`
    NonPos,
}

/// The flattened checking action of one compiled op: every claim in
/// the checkable lattice collapses into one of these shapes, each a
/// direct call into the checker kernels.
#[derive(Debug, Clone)]
pub enum OpAction {
    /// Trivially true (`Unconstrained`/`IntAny` — kept for totality;
    /// the builder filters these out of wrapper plans).
    Always,
    /// The value must be the null pointer.
    Null,
    /// Memory-region accessibility/bounds (the array families).
    Region {
        /// Required size in bytes.
        size: u32,
        /// Region must be readable.
        need_read: bool,
        /// Region must be writable.
        need_write: bool,
        /// NULL is accepted without probing.
        allow_null: bool,
    },
    /// Stream (`FILE*`) validation.
    File {
        /// Stream must be readable.
        need_read: bool,
        /// Stream must be writable.
        need_write: bool,
        /// NULL is accepted.
        allow_null: bool,
    },
    /// Directory handle validation against the tracking table.
    Dir {
        /// NULL is accepted.
        allow_null: bool,
    },
    /// NUL-terminated string scan.
    Nts {
        /// Inclusive terminator-index budget.
        limit: u32,
        /// Bytes must also be writable.
        need_write: bool,
        /// NULL is accepted without scanning.
        allow_null: bool,
    },
    /// `fopen`-style mode string: short and starting with `r`/`w`/`a`.
    ModeValid,
    /// Integer domain check.
    Int(IntCond),
    /// The descriptor must be open.
    FdOpen,
    /// The descriptor must be open with the required directions.
    FdFlags {
        /// Descriptor must be readable.
        need_read: bool,
        /// Descriptor must be writable.
        need_write: bool,
    },
    /// Valid termios speed constant.
    Speed,
    /// Executable size assertion over other arguments (semi-automatic).
    Assertion {
        /// The size expression, summed and clamped like the callee's
        /// `size_t` arithmetic.
        terms: Box<[SizeTerm]>,
        /// The buffer must be writable (else readable).
        write: bool,
    },
    /// `printf`-family directive scan: the op's argument is the format
    /// string; every `%s` pointer vararg must be a readable NUL
    /// terminated string and `%n` (the format-string attack vector) is
    /// rejected outright.
    Format {
        /// Index of the first variadic argument in the call vector.
        varargs_from: u32,
    },
}

/// One compiled check: which argument, what to assert about it, and
/// the pre-resolved bookkeeping the wrapper needs around the verdict.
#[derive(Debug, Clone)]
pub struct CheckOp {
    /// Argument index the op checks.
    pub arg: u32,
    /// Outcome-tally classification, resolved at compile time.
    pub kind: CheckKind,
    /// The claim this op enforces — the validity-cache key and the
    /// violation notation. `None` for assertion ops, which are never
    /// cacheable (their verdict depends on *other* arguments).
    pub ty: Option<TypeExpr>,
    /// Whether a passing pointer check may enter the validity cache
    /// (the config switch, resolved at compile time; the runtime still
    /// requires a non-null pointer value).
    pub cacheable: bool,
    /// The flattened checking action.
    pub action: OpAction,
}

impl CheckOp {
    /// The violation description: the claim's type notation, or the
    /// assertion's term dump (identical to the interpreted wrapper's
    /// message).
    pub fn describe(&self) -> String {
        match (&self.ty, &self.action) {
            (Some(t), _) => t.notation(),
            (None, OpAction::Assertion { terms, .. }) => {
                format!("size assertion over {terms:?}")
            }
            (None, OpAction::Format { .. }) => "printf-format directives".to_string(),
            (None, other) => format!("{other:?}"),
        }
    }
}

/// The `printf`-family functions that receive a compiled
/// [`OpAction::Format`] op, keyed by name: `(fmt_arg, varargs_from)`.
/// `sscanf` is deliberately absent — its `%s` varargs are *written*,
/// the opposite contract.
pub fn format_spec(function: &str) -> Option<(u32, u32)> {
    match function {
        "sprintf" => Some((1, 2)),
        "snprintf" => Some((2, 3)),
        "fprintf" => Some((1, 2)),
        _ => None,
    }
}

/// A function's checks, compiled at build time: typed claims in
/// argument order first, then the `printf`-family format op (if the
/// function has one), then executable assertions in configuration
/// order. `claims` counts the leading claim ops —
/// [`claim_ops`](CompiledPlan::claim_ops) is the slice the serve
/// daemon validates against by default (its verdicts exclude
/// assertions, which relate multiple arguments of a concrete call).
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    ops: Box<[CheckOp]>,
    claims: usize,
}

impl CompiledPlan {
    /// Fuse a per-argument claim list, an optional format spec, and an
    /// assertion list into one flat program. `cache` is the config's
    /// validity-cache switch, burned into each claim op's `cacheable`
    /// flag.
    pub fn compile(
        plan: Option<&[Option<TypeExpr>]>,
        format: Option<(u32, u32)>,
        asserts: Option<&[SizeAssertion]>,
        cache: bool,
    ) -> CompiledPlan {
        let mut ops = Vec::new();
        if let Some(plan) = plan {
            for (i, t) in plan.iter().enumerate() {
                let Some(t) = t else { continue };
                ops.push(CheckOp {
                    arg: i as u32,
                    kind: CheckKind::of(*t),
                    ty: Some(*t),
                    cacheable: cache,
                    action: action_for(*t),
                });
            }
        }
        let claims = ops.len();
        if let Some((fmt_arg, varargs_from)) = format {
            ops.push(CheckOp {
                arg: fmt_arg,
                kind: CheckKind::Format,
                ty: None,
                cacheable: false,
                action: OpAction::Format { varargs_from },
            });
        }
        if let Some(asserts) = asserts {
            for a in asserts {
                ops.push(CheckOp {
                    arg: a.buf_arg as u32,
                    kind: CheckKind::Assertion,
                    ty: None,
                    cacheable: false,
                    action: OpAction::Assertion {
                        terms: a.terms.clone().into_boxed_slice(),
                        write: a.write,
                    },
                });
            }
        }
        CompiledPlan {
            ops: ops.into_boxed_slice(),
            claims,
        }
    }

    /// The full program: claims then assertions.
    pub fn ops(&self) -> &[CheckOp] {
        &self.ops
    }

    /// The leading typed-claim ops only (what serve validates).
    pub fn claim_ops(&self) -> &[CheckOp] {
        &self.ops[..self.claims]
    }

    /// Whether the program has no ops at all.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The compiled encoding of one checkable claim — a one-to-one
/// re-statement of the
/// [`check_value_counted`](crate::checker::check_value_counted) match
/// arms.
///
/// # Panics
///
/// Panics for claims that are not checkable under any capability set —
/// the same contract as the interpreted checker; builders degrade via
/// [`checkable_supertype`](crate::checker::checkable_supertype) first.
pub fn action_for(t: TypeExpr) -> OpAction {
    use TypeExpr::*;
    let region = |size, need_read, need_write, allow_null| OpAction::Region {
        size,
        need_read,
        need_write,
        allow_null,
    };
    let nts = |limit, need_write, allow_null| OpAction::Nts {
        limit,
        need_write,
        allow_null,
    };
    match t {
        Unconstrained | IntAny => OpAction::Always,
        Null => OpAction::Null,
        RArray(s) => region(s, true, false, false),
        WArray(s) => region(s, false, true, false),
        RwArray(s) => region(s, true, true, false),
        RArrayNull(s) => region(s, true, false, true),
        WArrayNull(s) => region(s, false, true, true),
        RwArrayNull(s) => region(s, true, true, true),
        OpenFile => OpAction::File {
            need_read: false,
            need_write: false,
            allow_null: false,
        },
        OpenFileNull => OpAction::File {
            need_read: false,
            need_write: false,
            allow_null: true,
        },
        RFile => OpAction::File {
            need_read: true,
            need_write: false,
            allow_null: false,
        },
        WFile => OpAction::File {
            need_read: false,
            need_write: true,
            allow_null: false,
        },
        OpenDir => OpAction::Dir { allow_null: false },
        OpenDirNull => OpAction::Dir { allow_null: true },
        Nts => nts(MAX_STRING_SCAN, false, false),
        NtsWritable => nts(MAX_STRING_SCAN, true, false),
        NtsNull => nts(MAX_STRING_SCAN, false, true),
        NtsMax(l) => nts(l, false, false),
        ModeShort => nts(healers_typesys::order::MODE_MAX_LEN, false, false),
        ModeValid => OpAction::ModeValid,
        IntNeg => OpAction::Int(IntCond::Neg),
        IntZero => OpAction::Int(IntCond::Zero),
        IntPos => OpAction::Int(IntCond::Pos),
        IntNonNeg => OpAction::Int(IntCond::NonNeg),
        IntNonPos => OpAction::Int(IntCond::NonPos),
        FdOpen => OpAction::FdOpen,
        FdReadable => OpAction::FdFlags {
            need_read: true,
            need_write: false,
        },
        FdWritable => OpAction::FdFlags {
            need_read: false,
            need_write: true,
        },
        SpeedValid => OpAction::Speed,
        other => panic!("no checking function for {other}"),
    }
}

/// Why a `printf`-family directive scan failed — the detail repair
/// mode needs to know *which* argument to fix and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatViolation {
    /// The format string itself is not a readable NUL-terminated string
    /// within the robust scan limit.
    BadFormat {
        /// The format-string argument index.
        arg: u32,
    },
    /// The format contains `%n`, which writes the running byte count
    /// through a pointer vararg — rejected outright.
    PercentN {
        /// The format-string argument index.
        arg: u32,
    },
    /// A `%s` directive's pointer vararg is not a readable string.
    BadString {
        /// The offending vararg's index in the call vector.
        arg: u32,
    },
}

/// Where a `printf` directive parse stands after a byte: in literal
/// text, or inside a directive past its `%`, flags, width, precision
/// or length modifiers.
#[derive(Clone, Copy)]
enum Directive {
    Text,
    Flags,
    Width,
    Precision,
    Length,
}

impl Directive {
    /// Feed one format byte. `Err(conv)` when the byte is a directive's
    /// conversion: flags, width, precision and length modifiers are
    /// skipped exactly as the renderer parses them, so both agree on
    /// which byte is the conversion.
    fn step(self, b: u8) -> Result<Directive, u8> {
        use Directive::*;
        match self {
            Text if b == b'%' => Ok(Flags),
            Text => Ok(Text),
            Flags if matches!(b, b'-' | b'0' | b'+' | b' ' | b'#') => Ok(Flags),
            Flags | Width if b.is_ascii_digit() => Ok(Width),
            Flags | Width if b == b'.' => Ok(Precision),
            Precision if b.is_ascii_digit() => Ok(Precision),
            _ if matches!(b, b'l' | b'h' | b'z') => Ok(Length),
            _ => Err(b),
        }
    }
}

/// Scan a `printf`-family call's format string and varargs, mirroring
/// the renderer's directive grammar exactly: `%%` and unknown
/// conversions consume no vararg, the numeric/char/pointer conversions
/// consume one (any value formats safely), `%s` consumes one whose
/// pointer must be a readable NUL-terminated string (the renderer
/// dereferences it blindly), and `%n` fails the call outright. A
/// directive cut short by the terminator renders literally. `None`
/// means the call is safe to forward. The format is parsed in place
/// over the resident frames, so the check allocates nothing.
pub fn check_format(
    world: &World,
    args: &[SimValue],
    fmt_arg: u32,
    varargs_from: u32,
    ctrs: &mut CheckCounters,
) -> Option<FormatViolation> {
    let fmt = args
        .get(fmt_arg as usize)
        .copied()
        .unwrap_or(SimValue::Void)
        .as_ptr();
    // The format itself must be a readable string within the robust
    // scan limit before any directive in it is trusted.
    let Some(len) = scan_string(world, fmt, MAX_STRING_SCAN, false, ctrs) else {
        return Some(FormatViolation::BadFormat { arg: fmt_arg });
    };
    let mut vararg = varargs_from as usize;
    let mut state = Directive::Text;
    let mut violation = None;
    let parsed = world.proc.mem.scan(fmt, len, |b| {
        let conv = match state.step(b) {
            Ok(next) => {
                state = next;
                return false;
            }
            Err(conv) => conv,
        };
        state = Directive::Text;
        match conv {
            b'%' => {}
            b'd' | b'i' | b'u' | b'x' | b'X' | b'o' | b'c' | b'p' | b'f' | b'g' | b'e' => {
                vararg += 1;
            }
            b's' => {
                // A missing vararg defaults to `Int(0)` in the
                // renderer, whose blind dereference faults on NULL.
                let ptr = args
                    .get(vararg)
                    .copied()
                    .unwrap_or(SimValue::Int(0))
                    .as_ptr();
                if scan_string(world, ptr, MAX_STRING_SCAN, false, ctrs).is_none() {
                    violation = Some(FormatViolation::BadString { arg: vararg as u32 });
                }
                vararg += 1;
            }
            b'n' => violation = Some(FormatViolation::PercentN { arg: fmt_arg }),
            // Unknown conversions render literally, consuming nothing.
            _ => {}
        }
        violation.is_some()
    });
    match parsed {
        Ok(_) => violation,
        Err(_) => Some(FormatViolation::BadFormat { arg: fmt_arg }),
    }
}

/// Evaluate a size assertion's required byte count. `None` means the
/// expression itself is invalid (e.g. an unreadable string operand) —
/// treated as a violation.
pub(crate) fn assertion_size(
    world: &World,
    args: &[SimValue],
    terms: &[SizeTerm],
    ctrs: &mut CheckCounters,
) -> Option<u64> {
    let mut total: u64 = 0;
    for term in terms {
        let v = match *term {
            // Counts are reinterpreted exactly as the callee's size_t
            // sees them: a negative int becomes a huge unsigned count
            // (which the buffer then cannot satisfy).
            SizeTerm::Arg(i) => u64::from(args.get(i)?.as_int() as u32),
            SizeTerm::ArgProduct(i, j) => {
                // Mirror the callee's 32-bit wrap-around so the check
                // constrains the bytes actually processed.
                let a = args.get(i)?.as_int() as u32;
                let b = args.get(j)?.as_int() as u32;
                u64::from(a.wrapping_mul(b))
            }
            SizeTerm::StrlenArg(i) => {
                let ptr = args.get(i)?.as_ptr();
                ctrs.nul_scans += 1;
                let len = world.proc.mem.find_nul(ptr, MAX_STRING_SCAN, false)?;
                ctrs.bytes_scanned += u64::from(len) + 1;
                u64::from(len)
            }
            SizeTerm::Const(c) => u64::from(c),
        };
        total = total.saturating_add(v);
    }
    Some(total)
}

/// Execute one compiled op against a call's argument vector. Verdict
/// and [`CheckCounters`] traffic are identical to interpreting the
/// op's source claim through
/// [`check_value_counted`](crate::checker::check_value_counted) (or,
/// for assertions, through the wrapper's assertion loop): both paths
/// call the same checker kernels with the same operands.
pub fn eval_op(
    world: &World,
    tables: &Tables,
    caps: &CheckCapabilities,
    args: &[SimValue],
    op: &CheckOp,
    ctrs: &mut CheckCounters,
) -> bool {
    let value = args.get(op.arg as usize).copied().unwrap_or(SimValue::Void);
    let ptr = value.as_ptr();
    match op.action {
        OpAction::Always => true,
        OpAction::Null => value.is_null(),
        OpAction::Region {
            size,
            need_read,
            need_write,
            allow_null,
        } => {
            (allow_null && value.is_null())
                || check_region(world, tables, caps, ptr, size, need_read, need_write, ctrs)
        }
        OpAction::File {
            need_read,
            need_write,
            allow_null,
        } => {
            (allow_null && value.is_null())
                || check_file(world, tables, caps, ptr, need_read, need_write, ctrs)
        }
        OpAction::Dir { allow_null } => {
            (allow_null && value.is_null())
                || (tables.open_dirs.contains(&ptr) && check_dir_integrity(world, ptr, ctrs))
        }
        OpAction::Nts {
            limit,
            need_write,
            allow_null,
        } => {
            (allow_null && value.is_null())
                || scan_string(world, ptr, limit, need_write, ctrs).is_some()
        }
        OpAction::ModeValid => {
            match scan_string(
                world,
                ptr,
                healers_typesys::order::MODE_MAX_LEN,
                false,
                ctrs,
            ) {
                Some(len) if len > 0 => {
                    let first = world.proc.mem.read_u8(ptr).unwrap_or(0);
                    matches!(first, b'r' | b'w' | b'a')
                }
                _ => false,
            }
        }
        OpAction::Int(cond) => {
            let v = value.as_int();
            match cond {
                IntCond::Neg => v < 0,
                IntCond::Zero => v == 0,
                IntCond::Pos => v > 0,
                IntCond::NonNeg => v >= 0,
                IntCond::NonPos => v <= 0,
            }
        }
        OpAction::FdOpen => world.kernel.fd_is_open(value.as_int() as i32),
        OpAction::FdFlags {
            need_read,
            need_write,
        } => world
            .kernel
            .fd_flags(value.as_int() as i32)
            .map(|f| (!need_read || f.read) && (!need_write || f.write))
            .unwrap_or(false),
        OpAction::Speed => {
            let v = value.as_int();
            v >= 0 && v <= i64::from(u32::MAX) && Termios::is_valid_speed(v as u32)
        }
        OpAction::Assertion { ref terms, write } => {
            match assertion_size(world, args, terms, ctrs) {
                Some(needed) if needed <= u64::from(u32::MAX) => {
                    // `needed == 0` short-circuits exactly like the
                    // interpreted loop; otherwise the buffer claim is a
                    // plain region check of the computed size.
                    needed == 0
                        || check_region(
                            world,
                            tables,
                            caps,
                            ptr,
                            needed as u32,
                            !write,
                            write,
                            ctrs,
                        )
                }
                _ => false,
            }
        }
        OpAction::Format { varargs_from } => {
            check_format(world, args, op.arg, varargs_from, ctrs).is_none()
        }
    }
}

/// A deterministic FNV-1a hasher for the validity cache: no SipHash
/// keying, no per-process seed — cache traffic (and therefore the
/// `check_cache_hits` counter in `healers report`) is a pure function
/// of the call sequence.
#[derive(Debug, Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        if self.0 == 0 {
            self.0 = OFFSET;
        }
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}

/// The validity cache: (pointer, claim) → the table generation the
/// pair was validated under. Hash-indexed with the deterministic
/// [`FnvHasher`] — one probe instead of a `BTreeMap`'s pointer-chasing
/// comparisons on the hot path.
pub(crate) type ValidityCache = HashMap<(Addr, TypeExpr), u64, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_value_counted, checkable, checkable_supertype};
    use healers_libc::Libc;

    fn all_caps() -> Vec<CheckCapabilities> {
        let mut v = Vec::new();
        for heap in [false, true] {
            for dir in [false, true] {
                for file in [false, true] {
                    v.push(CheckCapabilities {
                        stateful_heap: heap,
                        dir_tracking: dir,
                        file_tracking: file,
                    });
                }
            }
        }
        v
    }

    /// A world populated with one of everything the checker can
    /// classify, plus the tables that track it.
    fn rich_world() -> (World, Tables, Vec<SimValue>) {
        let libc = Libc::standard();
        let mut world = World::new();
        let mut tables = Tables::default();

        let block = world.alloc_buf(48);
        tables.heap_blocks.insert(block, 48);
        let cstr = world.alloc_cstr("differential");
        let mode = world.alloc_cstr("r+");
        let bad_mode = world.alloc_cstr("x");
        world.kernel.write_file("/tmp/plan", b"plan bytes").unwrap();
        let path = world.alloc_cstr("/tmp/plan");
        let m = world.alloc_cstr("r");
        let stream = libc
            .get("fopen")
            .unwrap()
            .invoke(&mut world, &[SimValue::Ptr(path), SimValue::Ptr(m)])
            .unwrap();
        tables.open_files.insert(stream.as_ptr());
        tables
            .heap_blocks
            .insert(stream.as_ptr(), healers_libc::file::FILE_SIZE);
        let dpath = world.alloc_cstr("/tmp");
        let dirp = libc
            .get("opendir")
            .unwrap()
            .invoke(&mut world, &[SimValue::Ptr(dpath)])
            .unwrap();
        tables.open_dirs.insert(dirp.as_ptr());

        let values = vec![
            SimValue::NULL,
            SimValue::Ptr(block),
            SimValue::Ptr(block + 40),
            SimValue::Ptr(cstr),
            SimValue::Ptr(mode),
            SimValue::Ptr(bad_mode),
            stream,
            dirp,
            SimValue::Ptr(0xdead_0000),
            SimValue::Ptr(u32::MAX - 2),
            SimValue::Int(-5),
            SimValue::Int(0),
            SimValue::Int(1),
            SimValue::Int(3),
            SimValue::Int(9600),
            SimValue::Int(i64::from(u32::MAX) + 7),
            SimValue::Void,
        ];
        (world, tables, values)
    }

    #[test]
    fn compiled_ops_match_the_interpreter_over_the_checkable_universe() {
        let (world, tables, values) = rich_world();
        let universe = healers_typesys::universe::full_universe(&[0, 1, 16, 44, 48, 65536]);
        let mut covered = 0;
        for caps in all_caps() {
            for &t in &universe {
                // Exactly what the builder does: degrade, then compile.
                let t = checkable_supertype(t, &caps);
                assert!(checkable(t, &caps));
                let op = CheckOp {
                    arg: 0,
                    kind: CheckKind::of(t),
                    ty: Some(t),
                    cacheable: false,
                    action: action_for(t),
                };
                for &value in &values {
                    let mut c1 = CheckCounters::default();
                    let mut c2 = CheckCounters::default();
                    let compiled = eval_op(&world, &tables, &caps, &[value], &op, &mut c1);
                    let interpreted =
                        check_value_counted(&world, &tables, &caps, value, t, &mut c2);
                    assert_eq!(
                        compiled, interpreted,
                        "verdict diverged for {t:?} on {value:?}"
                    );
                    assert_eq!(c1, c2, "counter traffic diverged for {t:?} on {value:?}");
                    covered += 1;
                }
            }
        }
        assert!(covered > 1000, "universe unexpectedly small: {covered}");
    }

    #[test]
    fn compiled_assertions_match_the_interpreted_assertion_loop() {
        let (world, tables, values) = rich_world();
        let caps = CheckCapabilities {
            stateful_heap: true,
            dir_tracking: false,
            file_tracking: false,
        };
        let assertions = crate::overrides::builtin_assertions();
        assert!(!assertions.is_empty());
        for a in &assertions {
            let plan = CompiledPlan::compile(None, None, Some(std::slice::from_ref(a)), true);
            assert_eq!(plan.ops().len(), 1);
            assert!(plan.claim_ops().is_empty(), "assertions are not claims");
            let op = &plan.ops()[0];
            assert!(!op.cacheable, "assertions must never be cacheable");
            // Three-argument vectors drawn from the value pool exercise
            // Arg/ArgProduct/StrlenArg operands against real memory.
            for &v0 in &values {
                for &v1 in &values {
                    let args = [v0, v1, SimValue::Int(2), SimValue::Int(3)];
                    let mut c1 = CheckCounters::default();
                    let mut c2 = CheckCounters::default();
                    let compiled = eval_op(&world, &tables, &caps, &args, op, &mut c1);
                    // The interpreted reference: the wrapper's original
                    // assertion block, verbatim.
                    let value = args.get(a.buf_arg).copied().unwrap_or(SimValue::Void);
                    let interpreted = match assertion_size(&world, &args, &a.terms, &mut c2) {
                        Some(needed) if needed <= u64::from(u32::MAX) => {
                            let t = if a.write {
                                TypeExpr::WArray(needed as u32)
                            } else {
                                TypeExpr::RArray(needed as u32)
                            };
                            needed == 0
                                || check_value_counted(&world, &tables, &caps, value, t, &mut c2)
                        }
                        _ => false,
                    };
                    assert_eq!(
                        compiled, interpreted,
                        "assertion verdict diverged for {a:?} on {args:?}"
                    );
                    assert_eq!(c1, c2, "assertion counters diverged for {a:?} on {args:?}");
                }
            }
        }
    }

    #[test]
    fn compile_orders_claims_before_assertions_and_keeps_indices() {
        let plan = [None, Some(TypeExpr::Nts), None, Some(TypeExpr::RwArray(8))];
        let asserts = vec![SizeAssertion {
            function: "f".into(),
            buf_arg: 0,
            terms: vec![SizeTerm::Arg(1), SizeTerm::Const(1)],
            write: true,
        }];
        let compiled = CompiledPlan::compile(Some(&plan), None, Some(&asserts), true);
        assert_eq!(compiled.ops().len(), 3);
        assert_eq!(compiled.claim_ops().len(), 2);
        assert_eq!(compiled.ops()[0].arg, 1);
        assert_eq!(compiled.ops()[0].ty, Some(TypeExpr::Nts));
        assert!(compiled.ops()[0].cacheable);
        assert_eq!(compiled.ops()[1].arg, 3);
        assert_eq!(compiled.ops()[2].arg, 0);
        assert_eq!(compiled.ops()[2].ty, None);
        assert_eq!(
            compiled.ops()[2].describe(),
            format!("size assertion over {:?}", asserts[0].terms),
            "assertion violation text must match the interpreted wrapper's"
        );
        assert!(CompiledPlan::default().is_empty());
    }

    #[test]
    fn format_op_scans_directives_like_the_renderer() {
        let (mut world, tables, _) = rich_world();
        let caps = CheckCapabilities {
            stateful_heap: true,
            dir_tracking: true,
            file_tracking: true,
        };
        // The sprintf shape: fmt at 1, varargs from 2.
        assert_eq!(format_spec("sprintf"), Some((1, 2)));
        assert_eq!(format_spec("snprintf"), Some((2, 3)));
        assert_eq!(format_spec("fprintf"), Some((1, 2)));
        assert_eq!(format_spec("sscanf"), None, "scanf writes its %s varargs");
        let plan = CompiledPlan::compile(None, Some((1, 2)), None, true);
        assert_eq!(plan.ops().len(), 1);
        assert!(plan.claim_ops().is_empty(), "format ops are not claims");
        let op = &plan.ops()[0];
        assert_eq!(op.arg, 1);
        assert_eq!(op.kind, CheckKind::Format);
        assert!(!op.cacheable, "verdicts depend on varargs, never cacheable");
        assert_eq!(op.describe(), "printf-format directives");

        let good = world.alloc_cstr("x=%d s=%-8.3ls pct=%% q=%q tail=%");
        let pn = world.alloc_cstr("count%n");
        let sfmt = world.alloc_cstr("%s");
        let payload = world.alloc_cstr("payload");
        let block = world.proc.heap_alloc(3 * 4096).unwrap();
        let split = (block + 4096) & !4095;
        world.proc.mem.write_bytes(split - 4, b"%-8.3ls\0").unwrap();
        let split_fmt = SimValue::Ptr(split - 4);
        let check = |args: &[SimValue]| {
            let mut c = CheckCounters::default();
            eval_op(&world, &tables, &caps, args, op, &mut c)
        };
        let dst = SimValue::Int(0);
        assert!(
            check(&[
                dst,
                SimValue::Ptr(good),
                SimValue::Int(7),
                SimValue::Ptr(payload)
            ]),
            "flags/width/precision/modifiers parse, %% and unknown consume nothing"
        );
        assert!(
            !check(&[dst, SimValue::Ptr(good), SimValue::Int(7)]),
            "a missing %s vararg defaults to NULL and must fail"
        );
        assert!(
            !check(&[
                dst,
                SimValue::Ptr(good),
                SimValue::Int(7),
                SimValue::Ptr(0xdead_0000)
            ]),
            "a wild %s pointer must fail"
        );
        assert!(!check(&[dst, SimValue::Ptr(pn)]), "%n is rejected outright");
        assert!(!check(&[dst, SimValue::Ptr(0xdead_0000)]), "unreadable fmt");
        assert!(check(&[dst, SimValue::Ptr(sfmt), SimValue::Ptr(payload)]));

        // A directive split across a page boundary parses as one: the
        // parse runs over the resident frames in place.
        assert!(check(&[dst, split_fmt, SimValue::Ptr(payload)]));
        assert!(
            !check(&[dst, split_fmt, SimValue::Ptr(0xdead_0000)]),
            "the %s after the boundary must be checked"
        );

        // The violation detail names the argument repair must fix.
        let mut c = CheckCounters::default();
        assert_eq!(
            check_format(&world, &[dst, SimValue::Ptr(pn)], 1, 2, &mut c),
            Some(FormatViolation::PercentN { arg: 1 })
        );
        assert_eq!(
            check_format(
                &world,
                &[dst, SimValue::Ptr(sfmt), SimValue::Ptr(0xdead_0000)],
                1,
                2,
                &mut c
            ),
            Some(FormatViolation::BadString { arg: 2 })
        );
        assert_eq!(
            check_format(&world, &[dst, SimValue::NULL], 1, 2, &mut c),
            Some(FormatViolation::BadFormat { arg: 1 })
        );
    }

    #[test]
    fn fnv_hasher_is_deterministic() {
        fn h(key: (Addr, TypeExpr)) -> u64 {
            use std::hash::BuildHasher;
            BuildHasherDefault::<FnvHasher>::default().hash_one(key)
        }
        let a = h((0x1000, TypeExpr::Nts));
        assert_eq!(a, h((0x1000, TypeExpr::Nts)));
        assert_ne!(a, h((0x1001, TypeExpr::Nts)));
        assert_ne!(a, h((0x1000, TypeExpr::NtsWritable)));
    }
}
