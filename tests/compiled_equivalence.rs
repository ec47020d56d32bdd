//! Property test: the compiled dispatch plan and the rule interpreter make
//! **identical decisions** on random enterprises and random workload traces
//! — compilation is a pure performance transformation.
//!
//! Two full OWTE engines are built from the same policy; one runs its
//! compiled plan, the other is the reference evaluator,
//! [`Engine::interpreted`]. Both are driven step by step through the
//! shared [`workload::drive`] runner; after every step the decision must
//! match, and after the whole trace the observable state (sessions, active
//! role sets, enabled flags) **and the complete audit log** must be equal —
//! the compiled path is required to write byte-identical audit records.

use owte_core::{Engine, EngineError};
use proptest::prelude::*;
use rbac::{RoleId, SessionId, UserId};
use snoop::{Dur, Ts};
use workload::{
    drive, generate_enterprise, generate_trace, Driver, EnterpriseSpec, Step, TraceSpec,
};

/// Decision outcome, comparable across engines.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Granted,
    Denied,
    Access(bool),
}

fn outcome(r: Result<(), EngineError>) -> Outcome {
    match r {
        Ok(()) => Outcome::Granted,
        Err(_) => Outcome::Denied,
    }
}

struct Harness {
    compiled: Engine,
    interp: Engine,
    /// Replay context (seeds + current step) prepended to divergence panics.
    ctx: String,
    at: String,
}

impl Harness {
    fn new(spec: &EnterpriseSpec, seed: u64, ctx: String) -> Harness {
        let graph = generate_enterprise(spec, seed);
        let compiled = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        let interp = Engine::interpreted(&graph, Ts::ZERO).unwrap();
        assert!(compiled.compiled_active() && !interp.compiled_active());
        Harness {
            compiled,
            interp,
            ctx,
            at: String::new(),
        }
    }

    fn user(&self, idx: usize) -> UserId {
        self.compiled
            .user_id(&workload::enterprise::user_name(idx))
            .unwrap()
    }

    fn role(&self, idx: usize) -> RoleId {
        self.compiled
            .role_id(&workload::enterprise::role_name(idx))
            .unwrap()
    }

    fn agree(&self, a: Outcome, b: Outcome) {
        assert_eq!(
            a, b,
            "{} diverged: compiled {a:?} vs interpreted {b:?} [{}]",
            self.at, self.ctx
        );
    }

    /// Compare final observable state and the complete audit trail.
    fn assert_states_equal(&self) {
        let a = self.compiled.system();
        let b = self.interp.system();
        let sa: Vec<_> = a.all_sessions().collect();
        let sb: Vec<_> = b.all_sessions().collect();
        assert_eq!(sa, sb, "live session sets differ");
        for s in sa {
            assert_eq!(
                a.session_roles(s).unwrap(),
                b.session_roles(s).unwrap(),
                "active role sets differ in session {s}"
            );
        }
        for r in a.all_roles() {
            assert_eq!(
                a.is_enabled(r).unwrap(),
                b.is_enabled(r).unwrap(),
                "enabled flag differs for role {r}"
            );
        }
        assert_eq!(
            self.compiled.now(),
            self.interp.now(),
            "detector clocks differ"
        );
        assert_eq!(
            self.compiled.log().entries(),
            self.interp.log().entries(),
            "audit logs differ"
        );
    }
}

impl Driver for Harness {
    type Session = SessionId;

    fn on_step(&mut self, index: usize, step: &Step) {
        self.at = format!("step {index} ({})", step.describe());
    }

    fn create_session(&mut self, user: usize) -> Option<SessionId> {
        let u = self.user(user);
        let a = self.compiled.create_session(u, &[]);
        let b = self.interp.create_session(u, &[]);
        self.agree(Outcome::Access(a.is_ok()), Outcome::Access(b.is_ok()));
        if let (Ok(sa), Ok(sb)) = (&a, &b) {
            assert_eq!(sa, sb, "session id allocation must match");
        }
        a.ok()
    }

    fn delete_session(&mut self, user: usize, session: SessionId) {
        let u = self.user(user);
        let a = outcome(self.compiled.delete_session(u, session));
        let b = outcome(self.interp.delete_session(u, session));
        self.agree(a, b);
    }

    fn add_active_role(&mut self, user: usize, session: SessionId, role: usize) {
        let (u, r) = (self.user(user), self.role(role));
        let a = outcome(self.compiled.add_active_role(u, session, r));
        let b = outcome(self.interp.add_active_role(u, session, r));
        self.agree(a, b);
    }

    fn drop_active_role(&mut self, user: usize, session: SessionId, role: usize) {
        let (u, r) = (self.user(user), self.role(role));
        let a = outcome(self.compiled.drop_active_role(u, session, r));
        let b = outcome(self.interp.drop_active_role(u, session, r));
        self.agree(a, b);
    }

    fn check_access(&mut self, session: SessionId, op: usize, obj: usize) {
        let (Ok(op), Ok(obj)) = (
            self.compiled.system().op_by_name(&format!("op{op}")),
            self.compiled.system().obj_by_name(&format!("obj{obj}")),
        ) else {
            return;
        };
        let a = Outcome::Access(self.compiled.check_access(session, op, obj).unwrap());
        let b = Outcome::Access(self.interp.check_access(session, op, obj).unwrap());
        self.agree(a, b);
    }

    fn advance(&mut self, secs: u64) {
        self.compiled.advance(Dur::from_secs(secs)).unwrap();
        self.interp.advance(Dur::from_secs(secs)).unwrap();
    }

    fn set_context(&mut self, zone: &str) {
        self.compiled.set_context("zone", zone).unwrap();
        self.interp.set_context("zone", zone).unwrap();
    }
}

fn run_equivalence(spec: EnterpriseSpec, ent_seed: u64, trace_seed: u64, steps: usize) {
    let trace_spec = TraceSpec {
        steps,
        users: spec.users,
        roles: spec.roles,
        objects: spec.permissions,
        w_context: if spec.context_fraction > 0.0 { 5 } else { 0 },
        ..TraceSpec::default()
    };
    let trace = generate_trace(&trace_spec, trace_seed);
    let ctx = format!("enterprise seed {ent_seed}, trace seed {trace_seed}");
    let mut h = Harness::new(&spec, ent_seed, ctx);
    drive(&mut h, &trace, spec.users);
    h.assert_states_equal();
}

#[test]
fn compiled_plan_arms_on_generated_enterprises() {
    let graph = generate_enterprise(&EnterpriseSpec::flat(10), 1);
    let e = Engine::from_policy(&graph, Ts::ZERO).unwrap();
    assert!(
        e.compiled_active(),
        "verified generated pools must compile eagerly"
    );
}

#[test]
fn compiled_equivalence_on_flat_core_rbac() {
    run_equivalence(EnterpriseSpec::flat(10), 1, 1, 400);
}

#[test]
fn compiled_equivalence_with_hierarchy_and_sod() {
    let spec = EnterpriseSpec {
        roles: 15,
        users: 20,
        permissions: 20,
        hierarchy_density: 0.7,
        ssd_pairs: 2,
        dsd_pairs: 2,
        capped_fraction: 0.0,
        temporal_fraction: 0.0,
        duration_fraction: 0.0,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 2, 2, 400);
}

#[test]
fn compiled_equivalence_with_caps_and_temporal() {
    let spec = EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        capped_fraction: 0.4,
        temporal_fraction: 0.4,
        duration_fraction: 0.4,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 3, 3, 400);
}

#[test]
fn compiled_equivalence_with_context_constraints() {
    let spec = EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        context_fraction: 0.5,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 4, 4, 400);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// The headline property: arbitrary enterprise shape, arbitrary trace —
    /// identical decisions, identical final state, identical audit trail.
    #[test]
    fn compiled_equals_interpreted(
        ent_seed in 0u64..1000,
        trace_seed in 0u64..1000,
        roles in 4usize..20,
        hierarchy in 0.0f64..1.0,
        capped in 0.0f64..0.5,
        temporal in 0.0f64..0.5,
        duration in 0.0f64..0.5,
        context in 0.0f64..0.5,
    ) {
        let spec = EnterpriseSpec {
            roles,
            users: roles + 5,
            permissions: roles + 5,
            hierarchy_density: hierarchy,
            ssd_pairs: roles / 6,
            dsd_pairs: roles / 6,
            capped_fraction: capped,
            temporal_fraction: temporal,
            duration_fraction: duration,
            context_fraction: context,
            ..EnterpriseSpec::default()
        };
        run_equivalence(spec, ent_seed, trace_seed, 200);
    }
}
