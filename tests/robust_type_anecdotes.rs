//! The §6 findings, as executable assertions: the paper's anecdotes
//! about what the fault injector discovered.

use healers::inject::{ErrCodeClass, FaultInjector};
use healers::libc::Libc;
use healers::typesys::TypeExpr;

fn injector_report(name: &str) -> healers::inject::InjectionReport {
    let libc = Libc::standard();
    FaultInjector::new(&libc, name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .run()
}

/// "while function cfsetispeed (sets the input baud rate) only needs
/// write access to its argument, function cfsetospeed (sets the output
/// baud rate) needs both read and write access."
#[test]
fn cfsetispeed_needs_write_cfsetospeed_needs_read_write() {
    let ispeed = injector_report("cfsetispeed");
    let ospeed = injector_report("cfsetospeed");
    assert!(
        matches!(ispeed.args[0].robust.robust, TypeExpr::WArray(_)),
        "cfsetispeed: {}",
        ispeed.args[0].robust.robust
    );
    assert!(
        matches!(ospeed.args[0].robust.robust, TypeExpr::RwArray(_)),
        "cfsetospeed: {}",
        ospeed.args[0].robust.robust
    );
}

/// §4.1's access-permission discovery, pinned at the injector's exact
/// answers: `strcmp` only reads its two strings, `strcpy` writes its
/// destination, and `strtol` writes `*endptr` (or takes NULL).
#[test]
fn strcmp_reads_while_strcpy_and_strtol_write() {
    let robust = |name: &str| -> Vec<TypeExpr> {
        let report = injector_report(name);
        report.args.iter().map(|a| a.robust.robust).collect()
    };
    assert_eq!(robust("strcmp"), [TypeExpr::RArray(1), TypeExpr::RArray(1)]);
    assert_eq!(robust("strcpy")[0], TypeExpr::WArray(7));
    assert_eq!(robust("strtol")[1], TypeExpr::WArrayNull(4));
}

/// "functions fopen and freopen crash when the mode string is invalid
/// but can cope with invalid file names."
#[test]
fn fopen_and_freopen_mode_vs_filename() {
    for name in ["fopen", "freopen"] {
        let report = injector_report(name);
        // Some mode-string test case crashed…
        assert!(
            report
                .records
                .iter()
                .any(|r| r.arg_index == Some(1) && r.outcome.is_failure()),
            "{name}: no mode-string crash observed"
        );
        // …while every well-formed (string-content) filename merely
        // produced an error return.
        assert!(
            report
                .records
                .iter()
                .filter(|r| r.arg_index == Some(0)
                    && matches!(r.fundamental, TypeExpr::NtsRw(_) | TypeExpr::NtsRo(_)))
                .all(|r| !r.outcome.is_failure()),
            "{name}: a filename *content* case crashed"
        );
    }
}

/// "Only one of these 37 functions, fflush, is supposed to set errno."
#[test]
fn fflush_fails_without_setting_errno() {
    let report = injector_report("fflush");
    assert_eq!(report.errcode.class, ErrCodeClass::NoErrorReturnCodeFound);
    // It does return EOF for a bad stream — silently.
    assert!(report
        .records
        .iter()
        .any(|r| r.returned == Some(healers::simproc::SimValue::Int(-1)) && r.errno == 0));
}

/// "The two functions that set errno inconsistently are fdopen and
/// freopen: they sometimes set errno even though a valid file
/// descriptor is returned."
#[test]
fn fdopen_and_freopen_set_errno_inconsistently() {
    for name in ["fdopen", "freopen"] {
        let report = injector_report(name);
        assert_eq!(report.errcode.class, ErrCodeClass::Inconsistent, "{name}");
        // The witness: a *successful* return (non-NULL pointer) with
        // errno set.
        assert!(
            report
                .records
                .iter()
                .any(|r| r.errno != 0 && r.returned.map(|v| !v.is_null()).unwrap_or(false)),
            "{name}: no spurious-errno success observed"
        );
    }
}

/// `closedir` requires "its argument be a directory pointer returned by
/// a previous call to opendir" — a property no stateless check can
/// verify (§5.2), reflected in the discovered OPEN_DIR robust type.
#[test]
fn closedir_robust_type_is_the_uncheckable_open_dir() {
    let report = injector_report("closedir");
    assert_eq!(report.args[0].robust.robust, TypeExpr::OpenDir);
    let caps = healers::core::checker::CheckCapabilities {
        stateful_heap: true,
        dir_tracking: false,
        file_tracking: false,
    };
    // Without tracking the wrapper degrades to a memory check…
    assert!(!healers::core::checker::checkable(TypeExpr::OpenDir, &caps));
    // …with tracking it checks the real thing.
    let caps_semi = healers::core::checker::CheckCapabilities {
        dir_tracking: true,
        ..caps
    };
    assert!(healers::core::checker::checkable(
        TypeExpr::OpenDir,
        &caps_semi
    ));
}

/// The adaptive generator's headline: asctime needs exactly 44 bytes,
/// discovered by growing a guard-paged array until the faults stop.
#[test]
fn adaptive_growth_discovers_44_bytes_for_asctime() {
    let report = injector_report("asctime");
    assert!(report.adaptive_retries >= 1);
    assert_eq!(report.args[0].robust.robust, TypeExpr::RArrayNull(44));
    assert!(report.args[0].robust.safe);
}

/// The nine never-crashing functions are classified safe and left
/// unwrapped — "it avoids the overhead of unnecessary argument checks"
/// (§3.4).
#[test]
fn the_nine_robust_functions_are_safe() {
    for name in healers::ballista::NEVER_CRASHING {
        let report = injector_report(name);
        assert!(report.safe, "{name} should be safe");
    }
}

/// §6's headline split, pinned exactly: of the 86 evaluation targets,
/// the injector finds 77 unsafe and 9 safe — the same 9 scalar-only
/// functions that never crash ("Only 9 functions never crash. All
/// other 77 functions crashed for at least one test case.").
#[test]
fn exactly_77_of_86_functions_are_unsafe() {
    let libc = Libc::standard();
    let decls = healers::core::analyze(&libc, &healers::ballista::ballista_targets());
    let safe: Vec<&str> = decls
        .iter()
        .filter(|d| !d.is_unsafe())
        .map(|d| d.name.as_str())
        .collect();
    let mut expected: Vec<&str> = healers::ballista::NEVER_CRASHING.to_vec();
    let mut actual = safe.clone();
    expected.sort_unstable();
    actual.sort_unstable();
    assert_eq!(actual, expected);
    assert_eq!(decls.len() - safe.len(), 77);
}
