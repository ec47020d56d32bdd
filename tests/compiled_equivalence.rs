//! Property test: the compiled dispatch plan and the rule interpreter make
//! **identical decisions** on random enterprises and random workload traces
//! — compilation is a pure performance transformation.
//!
//! Two full OWTE engines are built from the same policy; one runs its
//! compiled plan, the other is the reference evaluator,
//! [`Engine::interpreted`]. Both are driven step by step through the
//! shared [`support::drive`] runner; after every step the answer must
//! match, and after the whole trace the observable state (sessions, active
//! role sets, enabled flags) **and the complete audit log** must be equal —
//! the compiled path is required to write byte-identical audit records.
//!
//! The same holds across policy changes in the middle of a trace: the plan
//! engine then carries over the lowering of every rule the regeneration
//! left alone, the oracle has no plan to carry, and nothing may tell them
//! apart.

mod support;

use owte_core::{Engine, JournalOp, Outcome, SplitMix64};
use policy::PolicyGraph;
use snoop::Ts;
use support::{drive, Driver};
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, Step, TraceSpec};

struct Harness {
    compiled: Engine,
    interp: Engine,
    /// Replay context (seeds + current step) prepended to divergence panics.
    ctx: String,
    at: String,
    /// The policy in force, and — for the suites that change it while the
    /// trace runs — how many steps lie between edits and the edit stream.
    graph: PolicyGraph,
    change_every: Option<usize>,
    rng: SplitMix64,
    seen: PolicyChanges,
}

/// What the policy changes of one run amounted to.
#[derive(Debug, Default)]
struct PolicyChanges {
    incremental: usize,
    full_rebuilds: usize,
    /// Rules the plan engine kept lowered across incremental changes.
    carried: usize,
    /// Requests both engines granted after the first change.
    granted_since: usize,
    /// Decisions compared over the run, split by outcome.
    grants: usize,
    denials: usize,
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
            graph,
            change_every: None,
            rng: SplitMix64(seed),
            seen: PolicyChanges::default(),
        }
    }

    /// Change the policy under both engines: a role-property edit, or —
    /// every fifth time — a new role under the first one, which rebuilds
    /// the whole pool and closes every session, on both sides alike.
    fn change_policy(&mut self) {
        let before = self.graph.clone();
        let nth = self.seen.incremental + self.seen.full_rebuilds;
        let what = if nth % 5 == 4 {
            let top = self.graph.roles[0].name.clone();
            let annex = format!("annex{nth}");
            self.graph.role(&annex);
            self.graph.inherits(&top, &annex);
            format!("hierarchy: {annex} below {top}")
        } else {
            let mut what = support::edit_role_property(&mut self.graph, &mut self.rng);
            while self.graph == before {
                what = support::edit_role_property(&mut self.graph, &mut self.rng);
            }
            what
        };
        self.at = format!("{}, then policy change ({what})", self.at);
        let a = self.compiled.apply_policy(&self.graph);
        let b = self.interp.apply_policy(&self.graph);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "{} regenerated differently [{}]", self.at, self.ctx);
                assert!(self.compiled.compiled_active() && !self.interp.compiled_active());
                let lowered = self.compiled.plan_rules_lowered().expect("armed");
                if a.full_rebuild {
                    self.seen.full_rebuilds += 1;
                } else {
                    self.seen.incremental += 1;
                    self.seen.carried += a.total_rules - lowered;
                }
            }
            (a, b) => panic!(
                "{} refused: compiled {a:?}, interpreted {b:?} [{}]",
                self.at, self.ctx
            ),
        }
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
    fn on_step(&mut self, index: usize, step: &Step) {
        self.at = format!("step {index} ({step})");
        if self
            .change_every
            .is_some_and(|every| index % every == every - 1)
        {
            self.change_policy();
        }
    }

    fn engine(&self) -> &Engine {
        &self.compiled
    }

    /// Both engines answer alike — outcome, session id, or a refusal.
    /// Requests, not clock or context events, are tallied.
    fn submit(&mut self, op: &JournalOp) -> Option<Outcome> {
        let a = self.compiled.submit(op).ok();
        let b = self.interp.submit(op).ok();
        assert_eq!(
            a, b,
            "{} diverged: compiled {a:?} vs interpreted {b:?} [{}]",
            self.at, self.ctx
        );
        if let Some(granted) = support::granted(op, a) {
            if granted {
                self.seen.grants += 1;
            } else {
                self.seen.denials += 1;
            }
            let changed = self.seen.incremental + self.seen.full_rebuilds > 0;
            if changed && granted {
                self.seen.granted_since += 1;
            }
        }
        a
    }
}

fn run_equivalence(
    spec: EnterpriseSpec,
    ent_seed: u64,
    trace_seed: u64,
    steps: usize,
) -> PolicyChanges {
    run(spec, ent_seed, trace_seed, steps, None)
}

/// Drive both engines through one trace, changing the policy under them
/// every `change_every` steps if asked to; returns what those changes
/// amounted to.
fn run(
    spec: EnterpriseSpec,
    ent_seed: u64,
    trace_seed: u64,
    steps: usize,
    change_every: Option<usize>,
) -> PolicyChanges {
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
    h.change_every = change_every;
    drive(&mut h, &trace, spec.users);
    h.assert_states_equal();
    h.seen
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

/// Policy changes while the trace runs: decisions, state, clock and audit
/// log stay identical across every `apply_policy`, whether the plan
/// carried its rules over (role-property edits) or lowered them all again
/// (the hierarchy edits).
#[test]
fn compiled_equivalence_across_policy_changes() {
    for seed in 0..8u64 {
        let roles = 10 + seed as usize;
        let spec = EnterpriseSpec {
            roles,
            users: roles + 5,
            permissions: roles + 5,
            hierarchy_density: 0.6,
            ssd_pairs: 1,
            dsd_pairs: 2,
            capped_fraction: 0.3,
            temporal_fraction: 0.2,
            duration_fraction: 0.3,
            context_fraction: if seed % 2 == 0 { 0.3 } else { 0.0 },
            ..EnterpriseSpec::default()
        };
        let seen = run(spec, 40 + seed, 70 + seed, 600, Some(30));
        assert_eq!(
            (seen.incremental, seen.full_rebuilds),
            (16, 4),
            "seed {seed}: {seen:?}"
        );
        assert!(seen.carried > 16 * roles, "seed {seed}: {seen:?}");
        assert!(seen.granted_since > 50, "seed {seed}: {seen:?}");
    }
}

/// The headline property: arbitrary enterprise shape, arbitrary trace —
/// identical decisions, identical final state, identical audit trail.
#[test]
fn compiled_equals_interpreted() {
    let Some(seen) = support::cases(
        "compiled_equals_interpreted",
        24,
        |rng, seen: &mut PolicyChanges| {
            let spec = support::enterprise_spec(rng, 20);
            let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
            let run = run_equivalence(spec, ent_seed, trace_seed, 200);
            seen.grants += run.grants;
            seen.denials += run.denials;
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    assert!(seen.grants > 0 && seen.denials > 0, "{seen:?}");
}
