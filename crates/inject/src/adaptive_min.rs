//! `INV-ADAPTIVE-MIN`: the adaptive search ends where the paper's walk
//! ends. For every export of the standard library the injector runs
//! once with [`adaptive::search`](crate::adaptive::search) and once
//! with the walk oracle. Both runs must discover the same sizes and
//! agree on each argument's candidate universe and robust type, on the
//! declaration XML, and on every record.
//!
//! The search allocates fewer arrays, so later heap blocks sit at other
//! addresses. Two record fields carry addresses, and they are compared
//! with the address taken out: a returned pointer must be the same
//! value or, in both runs, the case's own pointer; a fault's provenance
//! must be absent in both runs or resolve to the same address-free
//! [`CoverageSite`].

use healers_libc::Libc;
use healers_simproc::{CoverageSite, SimValue};
use healers_typesys::{Outcome, TypeExpr};

use crate::adaptive::tests::walk;
use crate::{CallRecord, ErrCodeClass, FaultInjector, InjectionReport};

/// What a call returned, with the case's own pointer abstracted.
#[derive(Debug, PartialEq)]
enum Returned {
    /// The pointer that was passed in as the argument under test.
    CasePointer,
    /// Anything else, exactly.
    Value(Option<SimValue>),
}

/// Everything a record must agree on between the two runs.
type RecordKey = (
    Option<usize>,
    TypeExpr,
    Outcome,
    i32,
    String,
    Returned,
    Option<CoverageSite>,
);

fn key(r: &CallRecord) -> RecordKey {
    let returned = match r.returned {
        Some(SimValue::Ptr(p)) if p != 0 && r.value == SimValue::Ptr(p) => Returned::CasePointer,
        other => Returned::Value(other),
    };
    (
        r.arg_index,
        r.fundamental,
        r.outcome,
        r.errno,
        r.label.clone(),
        returned,
        r.provenance.map(|site| site.coverage_site()),
    )
}

/// The size adaptive sizing ended on, per argument that has an array.
fn adaptive_sizes(r: &InjectionReport) -> Vec<(Option<usize>, TypeExpr)> {
    r.records
        .iter()
        .filter(|rec| rec.label.starts_with("adaptive rw array"))
        .map(|rec| (rec.arg_index, rec.fundamental))
        .collect()
}

/// The declaration XML `healers-core` generates from a report. This
/// test crate is a second copy of `healers-inject`, so the report is
/// first rebuilt as the library's own type.
fn decl_xml(r: &InjectionReport) -> String {
    use healers_inject as lib;
    let class = match r.errcode.class {
        ErrCodeClass::NoReturnCode => lib::ErrCodeClass::NoReturnCode,
        ErrCodeClass::Consistent => lib::ErrCodeClass::Consistent,
        ErrCodeClass::Inconsistent => lib::ErrCodeClass::Inconsistent,
        ErrCodeClass::NoErrorReturnCodeFound => lib::ErrCodeClass::NoErrorReturnCodeFound,
    };
    let report = lib::InjectionReport {
        function: r.function.clone(),
        proto: r.proto.clone(),
        args: r
            .args
            .iter()
            .map(|a| lib::ArgReport {
                generator: a.generator,
                observations: a.observations.clone(),
                universe: a.universe.clone(),
                robust: a.robust.clone(),
            })
            .collect(),
        errcode: lib::ErrCodeReport {
            class,
            error_value: r.errcode.error_value,
            errno_value: r.errcode.errno_value,
        },
        safe: r.safe,
        records: r
            .records
            .iter()
            .map(|rec| lib::CallRecord {
                arg_index: rec.arg_index,
                value: rec.value,
                fundamental: rec.fundamental,
                outcome: rec.outcome,
                returned: rec.returned,
                errno: rec.errno,
                label: rec.label.clone(),
                provenance: rec.provenance,
            })
            .collect(),
        calls: r.calls,
        adaptive_retries: r.adaptive_retries,
        fuel_used: r.fuel_used,
        cow: r.cow,
    };
    healers_core::decls_to_xml(&[healers_core::FunctionDecl::from_report(&report)])
}

#[test]
fn search_matches_the_walk_for_every_export() {
    let libc = Libc::standard();
    let names: Vec<&str> = libc.names().collect();
    assert_eq!(names.len(), 144, "the standard library changed size");
    for name in names {
        let injector = FaultInjector::new(&libc, name).unwrap();
        let searched = injector.run();
        let walked = injector.run_sized(|probe| walk(probe));
        assert_eq!(adaptive_sizes(&searched), adaptive_sizes(&walked), "{name}");
        assert_eq!(searched.args.len(), walked.args.len(), "{name}");
        for (i, (s, w)) in searched.args.iter().zip(&walked.args).enumerate() {
            assert_eq!(s.universe, w.universe, "{name} arg {i} universe");
            assert_eq!(s.robust, w.robust, "{name} arg {i} robust type");
        }
        assert_eq!(decl_xml(&searched), decl_xml(&walked), "{name} declaration");
        let keys = |r: &InjectionReport| r.records.iter().map(key).collect::<Vec<_>>();
        assert_eq!(keys(&searched), keys(&walked), "{name} records");
    }
}
