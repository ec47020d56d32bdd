//! Agreement between the static analyzer's termination verdict and the
//! runtime executor: pools the analyzer proves terminating never trip the
//! executor's cascade-depth guard, and pools it flags as loopy do.

use owte_core::{Engine, EngineError};
use policy::{analyze, events, instantiate, PolicyGraph, Termination, VerifyGate};
use proptest::prelude::*;
use sentinel::{
    attach_rule, ActionSpec, AuditLog, CondExpr, Executor, PermissiveState, Rule, Runtime,
};
use snoop::{Dur, Params, Ts};
use workload::{generate_enterprise, EnterpriseSpec};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every generated enterprise pool is proved terminating, and driving
    /// it with the depth guard armed (gate off, `assume_acyclic` false)
    /// never cuts a cascade.
    #[test]
    fn proved_pools_never_hit_the_depth_guard(seed in 0u64..200, roles in 3usize..25) {
        let g = generate_enterprise(&EnterpriseSpec::sized(roles), seed);
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        let report = analyze(&inst);
        prop_assert!(report.proved_terminating(), "{report}");

        let mut engine = Engine::from_policy_gated(&g, Ts::ZERO, VerifyGate::Off).unwrap();
        prop_assert!(!engine.proved_acyclic(), "gate off: guard stays armed");
        let assignments = engine.policy().assignments.clone();
        for (u, r) in assignments.into_iter().take(8) {
            let uid = engine.user_id(&u).unwrap();
            let rid = engine.role_id(&r).unwrap();
            match engine.create_session(uid, &[rid]) {
                Ok(s) => {
                    let _ = engine.drop_active_role(uid, s, rid);
                }
                Err(EngineError::Denied(_)) => {} // caps/SoD/windows: fine
                Err(EngineError::Unhandled(m)) => {
                    prop_assert!(!m.contains("cascade depth"), "{m}");
                }
                Err(e) => return Err(TestCaseError::fail(e.to_string())),
            }
        }
        // Temporal cascades (Δ expiry, windows) stay bounded too.
        for _ in 0..4 {
            let rep = engine.advance(Dur::from_hours(6)).unwrap();
            for m in &rep.errors {
                prop_assert!(!m.contains("cascade depth"), "{m}");
            }
        }
    }
}

/// A rule raising its own triggering event: the analyzer must flag the
/// pool POTENTIAL-LOOP with the rule on the cycle, and the runtime guard
/// must actually cut the cascade.
#[test]
fn injected_self_loop_is_flagged_and_cut_at_runtime() {
    let mut inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
    let event_name = events::enable_role("PC");
    let ev = inst.detector.lookup(&event_name).unwrap();
    attach_rule(
        &mut inst.detector,
        &mut inst.pool,
        Rule::new("ECHO", ev, CondExpr::True)
            .then(vec![ActionSpec::RaiseEvent {
                event: event_name.clone(),
                params: vec![],
            }])
            .priority(100),
    );

    let report = analyze(&inst);
    match &report.termination {
        Termination::PotentialLoop { cycles } => {
            assert!(
                cycles.iter().any(|c| c.contains(&"ECHO".to_string())),
                "{cycles:?}"
            );
        }
        other => panic!("expected PotentialLoop, got {other:?}"),
    }
    assert!(report.error_count() > 0, "loops are Error severity");

    // Runtime agreement: the armed guard cuts the cascade at its limit.
    let exec = Executor {
        max_cascade_depth: 8,
        ..Executor::default()
    };
    let mut state = PermissiveState::default();
    let mut log = AuditLog::new();
    let mut rt = Runtime {
        detector: &mut inst.detector,
        pool: &mut inst.pool,
        state: &mut state,
        log: &mut log,
        plan: None,
    };
    let rep = exec.dispatch(&mut rt, ev, Params::new()).unwrap();
    assert!(
        rep.errors.iter().any(|m| m.contains("cascade depth")),
        "{:?}",
        rep.errors
    );
}

/// The same loopy pool is refused end-to-end by the gated engine builder.
#[test]
fn gated_engine_refuses_what_the_analyzer_flags() {
    use policy::{InstantiateError, PostConditionSpec};
    let mut g = PolicyGraph::new("loopy");
    g.role("a");
    g.role("b");
    g.post_conditions.push(PostConditionSpec {
        role: "a".into(),
        requires: "b".into(),
    });
    g.post_conditions.push(PostConditionSpec {
        role: "b".into(),
        requires: "a".into(),
    });
    let err = Engine::from_policy(&g, Ts::ZERO).unwrap_err();
    assert!(matches!(err, InstantiateError::Rejected(_)), "{err}");
    let text = err.to_string();
    assert!(text.contains("failed verification"), "{text}");
    assert!(text.contains("rule-loop"), "{text}");
}
