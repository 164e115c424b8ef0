//! The §2 trade-off, measured: "a process with root privilege may use
//! our wrapper to detect buffer overflow attacks … a process owned by
//! an ordinary user may use only a minimal wrapper to prevent system
//! crashes without much performance overhead." Each configuration must
//! be at least as protective as the weaker ones.

use healers::ballista::pools::{param_kind, prepare, ParamKind};
use healers::core::{analyze, WrapperBuilder, WrapperConfig};
use healers::libc::{Libc, World};
use healers::simproc::SimValue;

const SUBSET: &[&str] = &["strcpy", "strlen", "asctime", "fgetc", "mktime", "gets"];

fn failures_with(config: WrapperConfig) -> usize {
    let libc = Libc::standard();
    let decls = analyze(&libc, SUBSET);
    let mut wrapper = Some(WrapperBuilder::new().decls(decls).config(config).build());
    let mut world = World::new();
    world.proc.set_fuel_budget(300_000);
    let pools = prepare(&libc, &mut wrapper, &mut world);

    let mut failures = 0;
    for name in SUBSET {
        let proto = libc.get(name).unwrap().proto.clone();
        let kinds: Vec<ParamKind> = proto.params.iter().map(param_kind).collect();
        // Vary one argument at a time over its pool with the others at
        // the first valid value — a small deterministic probe suite.
        for vary in 0..kinds.len() {
            for value in pools.for_kind(kinds[vary]) {
                let args: Vec<SimValue> = kinds
                    .iter()
                    .enumerate()
                    .map(|(i, k)| {
                        if i == vary {
                            value.value
                        } else {
                            pools.for_kind(*k).iter().find(|v| v.valid).unwrap().value
                        }
                    })
                    .collect();
                let mut child = world.clone();
                let mut w = wrapper.clone().unwrap();
                if w.call(&libc, &mut child, name, &args).is_err() {
                    failures += 1;
                }
            }
        }
    }
    failures
}

#[test]
fn stronger_configurations_never_fail_more() {
    let minimal = failures_with(WrapperConfig::minimal());
    let full = failures_with(WrapperConfig::full_auto());
    let semi = failures_with(WrapperConfig::semi_auto());
    assert!(
        full <= minimal,
        "full-auto ({full}) worse than minimal ({minimal})"
    );
    assert!(
        semi <= full,
        "semi-auto ({semi}) worse than full-auto ({full})"
    );
    assert_eq!(semi, 0, "semi-auto must eliminate the probe-suite failures");
}

#[test]
fn per_function_wrapping_only_protects_the_chosen_functions() {
    // §2: "a system developer could decide which functions should be
    // wrapped". Wrapping only strcpy leaves strlen exposed — and the
    // Ballista comparison shows exactly that.
    let libc = Libc::standard();
    let decls = analyze(&libc, &["strcpy", "strlen"]);

    let config = WrapperConfig {
        enabled: Some(["strcpy".to_string()].into_iter().collect()),
        ..WrapperConfig::full_auto()
    };
    let wrapper = WrapperBuilder::new()
        .decls(decls.clone())
        .config(config)
        .build();
    // Hand-run the Ballista subset through the partial wrapper.
    let mut world = World::new();
    let mut opt = Some(wrapper);
    let pools = prepare(&libc, &mut opt, &mut world);
    let wrapper = opt.unwrap();

    let strlen_arg = pools.for_kind(ParamKind::CString);
    let null = strlen_arg.iter().find(|v| v.label == "NULL").unwrap();
    // strlen is not wrapped: NULL crashes.
    let mut child = world.clone();
    let mut w = wrapper.clone();
    assert!(w.call(&libc, &mut child, "strlen", &[null.value]).is_err());
    // strcpy is wrapped: NULL destination is caught.
    let mut child = world.clone();
    let mut w = wrapper.clone();
    let src = pools
        .for_kind(ParamKind::CString)
        .iter()
        .find(|v| v.label == "short string")
        .unwrap();
    let r = w
        .call(&libc, &mut child, "strcpy", &[null.value, src.value])
        .unwrap();
    assert_eq!(r, SimValue::NULL);
}
