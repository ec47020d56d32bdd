//! Failure injection: malformed rules, runaway cascades, buffer pressure,
//! clock misuse, entity deletion under live rules. The system must fail
//! *closed* (no grant ever results from a broken rule), log the problem,
//! and keep serving.

use sentinel::{
    attach_rule, ActionSpec, AuditKind, AuditLog, Check, CondExpr, Executor, ParamRef,
    PermissiveState, Rule, RulePool, Runtime,
};
use snoop::{Context, Detector, Dur, EventExpr, Params, Ts};

struct Fx {
    detector: Detector,
    pool: RulePool,
    state: PermissiveState,
    log: AuditLog,
}

impl Fx {
    fn new() -> Fx {
        Fx {
            detector: Detector::new(Ts::ZERO),
            pool: RulePool::new(),
            state: PermissiveState::default(),
            log: AuditLog::new(),
        }
    }

    fn rt(&mut self) -> Runtime<'_> {
        Runtime {
            detector: &mut self.detector,
            pool: &mut self.pool,
            state: &mut self.state,
            log: &mut self.log,
            plan: None,
        }
    }
}

#[test]
fn rule_with_missing_parameter_fails_closed() {
    // An administrator hand-writes a rule whose condition reads a parameter
    // the event never carries: the condition errors, the Else (deny) path
    // runs, and the problem is logged.
    let mut fx = Fx::new();
    let e = fx.detector.primitive("op");
    attach_rule(
        &mut fx.detector,
        &mut fx.pool,
        Rule::new(
            "broken",
            e,
            CondExpr::check(Check::UserExists(ParamRef::param("ghost_param"))),
        )
        .then(vec![ActionSpec::Allow])
        .otherwise(vec![ActionSpec::RaiseError("denied".into())]),
    );
    let mut rt = fx.rt();
    let rep = Executor::new()
        .dispatch_named(&mut rt, "op", Params::new())
        .unwrap();
    assert_eq!(rep.allows, 0, "no grant from a broken rule");
    assert!(rep.denied());
    assert_eq!(rep.errors.len(), 1);
    assert_eq!(fx.log.of_kind(&AuditKind::EngineError).count(), 1);
}

#[test]
fn action_with_missing_parameter_is_logged_not_applied() {
    let mut fx = Fx::new();
    let e = fx.detector.primitive("op");
    attach_rule(
        &mut fx.detector,
        &mut fx.pool,
        Rule::new("broken", e, CondExpr::True).then(vec![ActionSpec::AddSessionRole {
            user: ParamRef::param("nope"),
            session: ParamRef::param("nope"),
            role: ParamRef::Int(1),
        }]),
    );
    let mut rt = fx.rt();
    let rep = Executor::new()
        .dispatch_named(&mut rt, "op", Params::new())
        .unwrap();
    assert_eq!(rep.errors.len(), 1);
    assert!(fx.state.log.is_empty(), "no mutation happened");
}

#[test]
fn mutually_recursive_rules_are_cut_by_depth_guard() {
    let mut fx = Fx::new();
    let ping = fx.detector.primitive("ping");
    let pong = fx.detector.primitive("pong");
    attach_rule(
        &mut fx.detector,
        &mut fx.pool,
        Rule::new("ping", ping, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
            event: "pong".into(),
            params: vec![],
        }]),
    );
    attach_rule(
        &mut fx.detector,
        &mut fx.pool,
        Rule::new("pong", pong, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
            event: "ping".into(),
            params: vec![],
        }]),
    );
    let exec = Executor {
        max_cascade_depth: 10,
        ..Executor::new()
    };
    let mut rt = fx.rt();
    let rep = exec.dispatch_named(&mut rt, "ping", Params::new()).unwrap();
    assert_eq!(rep.fired, 11, "initial + 10 cascade levels");
    assert_eq!(rep.errors.len(), 1, "depth guard reported once");
    // The system still works afterwards.
    let mut rt = fx.rt();
    let rep = exec.dispatch_named(&mut rt, "pong", Params::new()).unwrap();
    assert!(rep.fired >= 1);
}

#[test]
fn raise_of_unknown_event_is_an_error_not_a_panic() {
    let mut fx = Fx::new();
    let e = fx.detector.primitive("op");
    attach_rule(
        &mut fx.detector,
        &mut fx.pool,
        Rule::new("r", e, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
            event: "never_defined".into(),
            params: vec![],
        }]),
    );
    let mut rt = fx.rt();
    let rep = Executor::new()
        .dispatch_named(&mut rt, "op", Params::new())
        .unwrap();
    assert_eq!(rep.errors.len(), 1);
    assert!(rep.errors[0].contains("never_defined"));
}

#[test]
fn buffer_cap_bounds_unrestricted_contexts() {
    // A hostile or buggy event source floods an Unrestricted SEQ initiator:
    // memory stays bounded by the cap and detection still works.
    let mut d = Detector::new(Ts::ZERO);
    d.set_buffer_cap(16);
    d.primitive("a");
    d.primitive("b");
    let root = d
        .define(
            &EventExpr::seq(EventExpr::named("a"), EventExpr::named("b"))
                .context(Context::Unrestricted),
        )
        .unwrap();
    d.watch(root);
    for _ in 0..10_000 {
        d.raise_named("a", Params::new()).unwrap();
        d.advance(Dur::from_micros(1)).unwrap();
    }
    let dets = d.raise_named("b", Params::new()).unwrap();
    assert_eq!(dets.len(), 16, "only the retained (capped) initiators pair");
}

#[test]
fn clock_regression_is_rejected_cleanly() {
    let mut fx = Fx::new();
    fx.detector.advance(Dur::from_secs(100)).unwrap();
    let exec = Executor::new();
    let mut rt = fx.rt();
    assert!(exec.advance_to(&mut rt, Ts::from_secs(50)).is_err());
    // State intact; the clock did not move backwards.
    assert_eq!(fx.detector.now(), Ts::from_secs(100));
}

#[test]
fn engine_survives_deleted_entities_behind_live_rules() {
    // Delete a user out from under the OWTE engine via the monitor-level
    // rules (deassign + activation attempts on stale ids must deny, not
    // panic or grant).
    use active_authz::{Engine, EngineError, PolicyGraph};
    let mut g = PolicyGraph::new("t");
    g.role("r");
    g.user("u");
    g.assign("u", "r");
    let mut e = Engine::from_policy(&g, Ts::ZERO).unwrap();
    let u = e.user_id("u").unwrap();
    let r = e.role_id("r").unwrap();
    let s = e.create_session(u, &[r]).unwrap();
    // Simulate out-of-band deletion (e.g. an HR feed) directly on ids that
    // the rules will subsequently resolve.
    e.delete_session(u, s).unwrap();
    let err = e.add_active_role(u, s, r).unwrap_err();
    assert!(matches!(err, EngineError::Denied(_)));
    let op_err = e.check_access(s, rbac::OpId(0), rbac::ObjId(0)).unwrap();
    assert!(!op_err, "stale session gets deny, not panic");
}

#[test]
fn disabled_rule_pool_fails_closed_everywhere() {
    use active_authz::{Engine, PolicyGraph};
    use sentinel::RuleClass;
    let mut g = PolicyGraph::new("t");
    g.role("r");
    g.user("u");
    g.assign("u", "r");
    g.permission("p", "read", "doc");
    g.grant("p", "r");
    let mut e = Engine::from_policy(&g, Ts::ZERO).unwrap();
    let u = e.user_id("u").unwrap();
    let r = e.role_id("r").unwrap();
    let s = e.create_session(u, &[r]).unwrap();
    let read = e.system().op_by_name("read").unwrap();
    let doc = e.system().obj_by_name("doc").unwrap();
    assert!(e.check_access(s, read, doc).unwrap());

    // Kill every rule class: all decisions become deny/unhandled.
    e.with_pool_disabled();
    assert!(!e.check_access(s, read, doc).unwrap());
    assert!(e.drop_active_role(u, s, r).is_err());
    // Recovery restores service.
    e.enable_rule_class(RuleClass::ActivityControl);
    assert!(e.check_access(s, read, doc).unwrap());
}

/// Test-support trait impl: disable everything (modelled as an extension
/// trait so the production API stays minimal).
trait DisableAll {
    fn with_pool_disabled(&mut self);
}

impl DisableAll for active_authz::Engine {
    fn with_pool_disabled(&mut self) {
        for class in [
            sentinel::RuleClass::Administrative,
            sentinel::RuleClass::ActivityControl,
            sentinel::RuleClass::ActiveSecurity,
        ] {
            self.disable_rule_class(class);
        }
    }
}
