//! The verification gate rejects exactly what the analyzer rejects.
//!
//! `policy::verdict` runs only the passes that can find an error
//! (termination, coverage); `policy::analyze` runs every pass. On
//! generated enterprises, sound and with one fault injected, the two must
//! agree on the termination verdict and on every `Error` diagnostic —
//! then no pool the full analyzer would refuse gets past the gate — and a
//! change the gate refuses must leave the instantiation it was tried on
//! exactly as it was.
//!
//! Seeded loops, no registry `proptest` needed.

use policy::{
    analyze, instantiate, regenerate_verified, verdict, DiagCode, Diagnostic, InstantiateError,
    Instantiated, PolicyGraph, PostConditionSpec, Severity, VerifyGate,
};
use sentinel::{attach_rule, ActionSpec, CondExpr, Rule};
use snoop::Ts;
use workload::{generate_enterprise, EnterpriseSpec};

const SEEDS: u64 = 56;

fn errors(diagnostics: &[Diagnostic]) -> Vec<&Diagnostic> {
    diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// Gate and analyzer agree on `inst`; returns the error codes they found.
fn agree(inst: &Instantiated, at: &str) -> Vec<DiagCode> {
    let (gate, report) = (verdict(inst), analyze(inst));
    assert_eq!(gate.termination, report.termination, "{at}");
    assert_eq!(
        errors(&gate.diagnostics),
        errors(&report.diagnostics),
        "{at}"
    );
    assert_eq!(gate.error_count(), report.error_count(), "{at}");
    assert_eq!((gate.rules, gate.events), (report.rules, report.events));
    // The gate's findings are the report's, in the report's order.
    let mut rest = report.diagnostics.iter();
    assert!(
        gate.diagnostics.iter().all(|d| rest.any(|r| r == d)),
        "{at}: {:?}",
        gate.diagnostics
    );
    errors(&report.diagnostics).iter().map(|d| d.code).collect()
}

/// Everything a committed regeneration replaces, rendered.
fn state_of(inst: &Instantiated) -> (PolicyGraph, String, usize, String) {
    (
        inst.graph.clone(),
        inst.pool.dump(),
        inst.detector.node_count(),
        serde_json::to_string(&inst.system).expect("the monitor serializes"),
    )
}

/// `change` must be refused with exactly the analyzer's errors for the
/// pool it would have produced, and `inst` must come through untouched.
fn refused(inst: &mut Instantiated, change: &PolicyGraph, expected: &[&Diagnostic], at: &str) {
    let before = state_of(inst);
    match regenerate_verified(inst, change, VerifyGate::DenyOnError) {
        Err(InstantiateError::Rejected(diagnostics)) => {
            assert_eq!(diagnostics.iter().collect::<Vec<_>>(), expected, "{at}")
        }
        other => panic!("{at}: expected a rejection, got {:?}", other.map(|r| r.0)),
    }
    assert!(state_of(inst) == before, "{at}: the rejection left a mark");
}

#[test]
fn the_gate_rejects_exactly_what_the_analyzer_rejects() {
    let mut injected = [0usize; 4];
    for seed in 0..SEEDS {
        let roles = 8 + (seed % 10) as usize;
        let spec = EnterpriseSpec {
            roles,
            users: roles + 3,
            permissions: roles + 3,
            ssd_pairs: 1 + roles / 8,
            dsd_pairs: 1,
            capped_fraction: 0.3,
            temporal_fraction: 0.3,
            duration_fraction: 0.3,
            context_fraction: 0.2,
            ..EnterpriseSpec::default()
        };
        let graph = generate_enterprise(&spec, seed);
        let sound = instantiate(&graph, Ts::ZERO).expect("generated policies instantiate");
        assert!(
            agree(&sound, &format!("seed {seed}, sound")).is_empty(),
            "seed {seed}: generated pools are clean"
        );

        // A harmless change — to the last role, which no fault below
        // touches — to try on the faulty instantiations.
        let mut harmless = graph.clone();
        let cap = &mut harmless.roles[roles - 1].max_active_users;
        *cap = Some(cap.map_or(3, |c| c + 1));

        let fault = (seed % 4) as usize;
        let at = format!("seed {seed}, fault {fault}");
        let mut inst = sound.clone();
        let codes = match fault {
            // Mutual post-conditions: ENR rules that raise each other's
            // enabling event — a synchronous rule loop. A policy-level
            // fault: the gate meets it as a (full-rebuild) change.
            0 => {
                let (a, b) = (graph.roles[0].name.clone(), graph.roles[1].name.clone());
                let mut looping = graph.clone();
                for (role, requires) in [(&a, &b), (&b, &a)] {
                    looping.post_conditions.push(PostConditionSpec {
                        role: role.clone(),
                        requires: requires.clone(),
                    });
                }
                let built = instantiate(&looping, Ts::ZERO).expect("consistency lets it through");
                let codes = agree(&built, &at);
                assert!(!verdict(&built).proved_terminating(), "{at}");
                refused(
                    &mut inst,
                    &looping,
                    &errors(&analyze(&built).diagnostics),
                    &at,
                );
                codes
            }
            // A disabled guard rule: an operation nothing enabled covers.
            1 => {
                let suffix = format!("_{}", graph.roles[1].name);
                let guard = inst
                    .pool
                    .iter()
                    .map(|(_, r)| r.name.to_string())
                    .find(|n| n.starts_with("AAR") && n.ends_with(&suffix))
                    .expect("every role has an activation rule");
                assert!(inst.pool.set_enabled(&guard, false));
                agree(&inst, &at)
            }
            // A rule naming an event nobody registered.
            2 => {
                let trigger = inst.detector.primitive("faultInjected");
                attach_rule(
                    &mut inst.detector,
                    &mut inst.pool,
                    Rule::new("GHOST", trigger, CondExpr::True).then(vec![
                        ActionSpec::RaiseEvent {
                            event: "no_such_event".into(),
                            params: vec![],
                        },
                    ]),
                );
                agree(&inst, &at)
            }
            // An SSD pair under a common senior. `instantiate` refuses
            // such a graph before any rule exists (consistency), so the
            // hierarchy is edited on the instantiation.
            _ => {
                let pair: Vec<String> = graph.ssd[0].roles.iter().cloned().collect();
                inst.graph.role("Boss");
                inst.graph.inherits("Boss", &pair[0]);
                inst.graph.inherits("Boss", &pair[1]);
                agree(&inst, &at)
            }
        };
        let expected = [
            DiagCode::RuleLoop,
            DiagCode::UncoveredOperation,
            DiagCode::UnregisteredEvent,
            DiagCode::SodHierarchyConflict,
        ][fault];
        assert!(codes.contains(&expected), "{at}: {codes:?}");
        injected[fault] += 1;
        // Pool-level faults survive an incremental change, which the gate
        // must therefore refuse — without committing any of it.
        if matches!(fault, 1 | 2) {
            let mut staged = inst.clone();
            policy::regenerate(&mut staged, &harmless).expect("the change itself is fine");
            refused(
                &mut inst,
                &harmless,
                &errors(&analyze(&staged).diagnostics),
                &at,
            );
        }
    }
    assert_eq!(injected, [SEEDS as usize / 4; 4]);
}
