//! Golden analyzer behaviour on the paper's Figure-1 enterprise-XYZ
//! policy: the pristine pool is clean and proved terminating; a
//! deliberately broken variant produces a stable, ordered set of
//! diagnostics.

use policy::{analyze, instantiate, rule_dependency_dot, DiagCode, PolicyGraph, Severity};
use sentinel::{attach_rule, ActionSpec, Check, CondExpr, Rule};
use snoop::Ts;

#[test]
fn xyz_pool_is_clean_and_proved_terminating() {
    let inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    let report = analyze(&inst);
    assert!(report.proved_terminating());
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.rules, 5 * 4 + 3, "Figure-1 pool size");
    assert_eq!(
        report.summary(),
        format!(
            "PROVED-TERMINATING — 23 rules over {} events, 0 errors, 0 warnings",
            report.events
        )
    );
}

#[test]
fn broken_variant_produces_stable_diagnostics() {
    let mut inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    let ca_event = inst.detector.lookup(policy::events::CHECK_ACCESS).unwrap();
    // (a) An unconditional high-priority denier on checkAccess: shadows
    //     every weaker rule on the event, including the paper's CA rule.
    attach_rule(
        &mut inst.detector,
        &mut inst.pool,
        Rule::new("DENY_ALL", ca_event, CondExpr::True)
            .then(vec![ActionSpec::RaiseError("locked down".into())])
            .priority(100),
    );
    // (b) A rule referencing event names nobody registered.
    attach_rule(
        &mut inst.detector,
        &mut inst.pool,
        Rule::new(
            "GHOST",
            ca_event,
            CondExpr::check(Check::SourceIs("no_such_event".into())),
        )
        .then(vec![ActionSpec::RaiseEvent {
            event: "also_missing".into(),
            params: vec![],
        }]),
    );
    // (c) A dead rule: its When-clause can never hold.
    attach_rule(
        &mut inst.detector,
        &mut inst.pool,
        Rule::new("DEAD", ca_event, CondExpr::False),
    );

    let report = analyze(&inst);
    assert!(report.proved_terminating(), "breakage is not a loop");
    assert_eq!(report.error_count(), 2);
    assert_eq!(report.warning_count(), 3);

    // Stable snapshot: (severity, code, anchored rules), errors first,
    // deterministic order within each severity.
    let got: Vec<(Severity, DiagCode, Vec<&str>)> = report
        .diagnostics
        .iter()
        .map(|d| {
            (
                d.severity,
                d.code,
                d.rules.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            (Severity::Error, DiagCode::UnregisteredEvent, vec!["GHOST"]),
            (Severity::Error, DiagCode::UnregisteredEvent, vec!["GHOST"]),
            (Severity::Warning, DiagCode::UnsatisfiableWhen, vec!["DEAD"]),
            (
                Severity::Warning,
                DiagCode::ShadowedRule,
                vec!["CA", "DENY_ALL"]
            ),
            (
                Severity::Warning,
                DiagCode::ShadowedRule,
                vec!["GHOST", "DENY_ALL"]
            ),
        ],
        "{report}"
    );
    let unregistered: Vec<&str> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == DiagCode::UnregisteredEvent)
        .flat_map(|d| d.events.iter().map(String::as_str))
        .collect();
    assert_eq!(unregistered, vec!["also_missing", "no_such_event"]);
}

#[test]
fn rule_dependency_dot_exported() {
    let inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    let dot = rule_dependency_dot(&inst.detector, &inst.pool);
    assert!(dot.starts_with("digraph rules {"), "{dot}");
    for (_, r) in inst.pool.iter() {
        assert!(
            dot.contains(&format!("[label=\"{}\"]", r.name)),
            "missing node for {}",
            r.name
        );
    }
    // Refresh the committed artifact so `dot/rules_xyz.dot` always matches
    // the generator.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("dot");
    if dir.is_dir() {
        std::fs::write(dir.join("rules_xyz.dot"), &dot).unwrap();
    }
}
