//! A fast Figure 6 slice: the three-configuration Ballista comparison
//! over a representative subset of the 86 functions, evaluated by the
//! campaign at one job. (The full run is `healers campaign --mode all`.)

use healers::ballista::{Ballista, BallistaReport, Mode};
use healers::campaign::{Campaign, CampaignConfig};
use healers::core::{analyze, FunctionDecl};
use healers::libc::Libc;

/// One representative per family: string copy, string scan, stdio
/// stream, stdio open, time struct, termios, dirent, conversion, plus
/// two of the never-crashing scalars.
const SUBSET: &[&str] = &[
    "strcpy",
    "strlen",
    "fgetc",
    "fopen",
    "asctime",
    "cfsetospeed",
    "closedir",
    "strtol",
    "lseek",
    "abs",
];

/// One configuration evaluated through the campaign at `--jobs 1`.
fn evaluate(
    ballista: &Ballista,
    libc: &Libc,
    mode: Mode,
    decls: Vec<FunctionDecl>,
) -> BallistaReport {
    let campaign = Campaign::new(&CampaignConfig::default()).unwrap();
    let (report, _) = campaign.evaluate(libc, ballista, mode, decls);
    campaign.finish().unwrap();
    report
}

#[test]
fn wrapper_configurations_are_strictly_ordered() {
    let ballista = Ballista::new().with_functions(SUBSET).with_cap(120);
    let libc = Libc::standard();
    let decls = analyze(&libc, SUBSET);

    let unwrapped = evaluate(&ballista, &libc, Mode::Unwrapped, decls.clone());
    let full = evaluate(&ballista, &libc, Mode::FullAuto, decls.clone());
    let semi = evaluate(&ballista, &libc, Mode::SemiAuto, decls);

    let u = unwrapped.totals();
    let f = full.totals();
    let s = semi.totals();

    // All three configurations ran the same tests.
    assert_eq!(u.tests, f.tests);
    assert_eq!(f.tests, s.tests);

    // The paper's trajectory: each configuration strictly reduces
    // failures, and the semi-automatic wrapper eliminates them.
    assert!(u.failures() > f.failures(), "full-auto must help");
    assert!(f.failures() >= s.failures(), "semi-auto must not be worse");
    assert_eq!(
        s.failures(),
        0,
        "semi-auto must eliminate all failures: {semi:?}"
    );

    // Prevented failures become errno returns, not silent successes.
    assert!(f.errno_set > u.errno_set);
    assert!(s.errno_set >= f.errno_set);
}

#[test]
fn never_crashing_functions_stay_clean_in_every_configuration() {
    let names = ["lseek", "abs"];
    let ballista = Ballista::new().with_functions(&names).with_cap(80);
    let libc = Libc::standard();
    let decls = analyze(&libc, &names);
    for mode in [Mode::Unwrapped, Mode::FullAuto, Mode::SemiAuto] {
        let report = evaluate(&ballista, &libc, mode, decls.clone());
        assert_eq!(report.totals().failures(), 0, "{mode:?}");
    }
}

#[test]
fn results_are_deterministic() {
    let names = ["strcpy", "fgetc"];
    let ballista = Ballista::new().with_functions(&names).with_cap(60);
    let libc = Libc::standard();
    let decls = analyze(&libc, &names);
    let a = evaluate(&ballista, &libc, Mode::FullAuto, decls.clone());
    let b = evaluate(&ballista, &libc, Mode::FullAuto, decls);
    assert_eq!(a.totals(), b.totals());
    for (name, outcomes) in a.iter() {
        assert_eq!(Some(outcomes), b.function(name));
    }
}

#[test]
fn seed_changes_sampling_but_not_the_headline() {
    // For a function whose cross product exceeds the cap, different
    // seeds sample different vectors — but semi-auto stays at zero.
    let libc = Libc::standard();
    let names = ["fread", "strncpy"];
    for seed in [1u64, 2, 3] {
        let ballista = Ballista::new()
            .with_functions(&names)
            .with_cap(60)
            .with_seed(seed);
        let decls = analyze(&libc, &names);
        let semi = evaluate(&ballista, &libc, Mode::SemiAuto, decls);
        assert_eq!(semi.totals().failures(), 0, "seed {seed}");
    }
}
