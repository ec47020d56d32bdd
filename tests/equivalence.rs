//! Property test: the rule-driven OWTE engine and the hard-coded direct
//! baseline make **identical decisions** on random enterprises and random
//! workload traces — the paper's flexibility does not change semantics.
//!
//! Both engines are driven step by step via the shared [`support::drive`]
//! runner; after every step the answer (outcome or refusal) must match,
//! and after the whole trace the observable state (per-session active role
//! sets, per-role enabled flags) must be equal.

mod support;

use owte_core::{DirectEngine, Engine, JournalOp, Outcome};
use snoop::Ts;
use support::{drive, Driver};
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, Step, TraceSpec};

struct Harness {
    owte: Engine,
    direct: DirectEngine,
    /// Replay context (seeds + current step) prepended to divergence panics.
    ctx: String,
    at: String,
    seen: Tally,
}

/// Decisions compared over a run, split by outcome.
#[derive(Debug, Default)]
struct Tally {
    grants: usize,
    denials: usize,
}

impl Harness {
    fn new(spec: &EnterpriseSpec, seed: u64, ctx: String) -> Harness {
        let graph = generate_enterprise(spec, seed);
        let owte = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        let direct = DirectEngine::from_policy(&graph, Ts::ZERO).unwrap();
        Harness {
            owte,
            direct,
            ctx,
            at: String::new(),
            seen: Tally::default(),
        }
    }

    /// Compare final observable state.
    fn assert_states_equal(&self) {
        let a = self.owte.system();
        let b = &self.direct.sys;
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
    }
}

impl Driver for Harness {
    fn on_step(&mut self, index: usize, step: &Step) {
        self.at = format!("step {index} ({step})");
    }

    fn engine(&self) -> &Engine {
        &self.owte
    }

    /// Both engines answer alike — outcome, session id, or a refusal.
    /// Requests, not clock or context events, are tallied.
    fn submit(&mut self, op: &JournalOp) -> Option<Outcome> {
        let a = self.owte.submit(op).ok();
        let b = self.direct.submit(op).ok();
        assert_eq!(
            a, b,
            "{} diverged: OWTE {a:?} vs direct {b:?} [{}]",
            self.at, self.ctx
        );
        match support::granted(op, a) {
            Some(true) => self.seen.grants += 1,
            Some(false) => self.seen.denials += 1,
            None => {}
        }
        a
    }
}

fn run_equivalence(spec: EnterpriseSpec, ent_seed: u64, trace_seed: u64, steps: usize) -> Tally {
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
    h.seen
}

#[test]
fn equivalence_on_flat_core_rbac() {
    run_equivalence(EnterpriseSpec::flat(10), 1, 1, 400);
}

#[test]
fn equivalence_with_hierarchy_and_sod() {
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
fn equivalence_with_caps_and_temporal() {
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
fn equivalence_with_context_constraints() {
    let spec = EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        context_fraction: 0.5,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 4, 4, 400);
}

/// The headline property: arbitrary enterprise shape, arbitrary trace —
/// identical decisions and identical final state.
#[test]
fn owte_equals_direct() {
    let Some(seen) = support::cases("owte_equals_direct", 24, |rng, seen: &mut Tally| {
        let spec = support::enterprise_spec(rng, 20);
        let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
        let run = run_equivalence(spec, ent_seed, trace_seed, 200);
        seen.grants += run.grants;
        seen.denials += run.denials;
    }) else {
        return;
    };
    println!("{seen:?}");
    assert!(seen.grants > 0 && seen.denials > 0, "{seen:?}");
}
