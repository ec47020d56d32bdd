//! Incremental snapshot publish: a snapshot shares the monitor's session
//! table and the engine's cached policy view instead of copying them, so
//! the properties that the whole-state copy had for free need a test.
//!
//! Over random enterprises and random traces that take every path by
//! which a session or the policy view changes — session create/delete,
//! role add/drop, the `disable_role` cascade, `deassign_user`,
//! `set_context` force-deactivation, Δ timers fired by `advance`, the
//! denial-threshold lockdown and `apply_policy` — after **every** step:
//!
//! * a fresh snapshot is sound: for each session and `(op, obj)`,
//!   `grants` implies the monitor's own `check_access`, and the two are
//!   equal (purpose decision included) while the fast path is armed;
//! * every snapshot retained from an earlier step still answers exactly as
//!   it did at its own epoch — sharing structure with the live engine
//!   never leaks a later write into it;
//! * the engine's cached `PolicyView` equals one built from scratch.
//!
//! A failure prints its seeds; replay one with
//!
//! ```text
//! OWTE_REPLAY_SEEDS=ent,trace cargo test --test snapshot_incremental \
//!     replay_from_env -- --ignored --nocapture
//! ```

use owte_core::{AuthSnapshot, Engine, PolicyView, PurposeId, SplitMix64};
use policy::{ObjectPolicySpec, PolicyGraph, PurposeSpec, SecurityAction, SecuritySpec};
use proptest::prelude::*;
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use sentinel::RuleClass;
use snoop::{Dur, Ts};
use std::collections::BTreeSet;
use workload::enterprise::{role_name, user_name, ZONES};
use workload::{generate_enterprise, EnterpriseSpec};

const STEPS: usize = 150;
/// Snapshots kept alive (and re-asked after every step) at any time.
const RETAINED: usize = 6;

/// One `grants` question.
type Question = (SessionId, OpId, ObjId, Option<PurposeId>);

/// A snapshot kept past its epoch, with what it was asked and answered.
struct Kept {
    taken_at: usize,
    snap: AuthSnapshot,
    questions: Vec<Question>,
    answers: Vec<bool>,
}

struct Harness {
    engine: Engine,
    graph: PolicyGraph,
    spec: EnterpriseSpec,
    rng: SplitMix64,
    /// One past the highest session id ever handed out.
    session_ids: u32,
    kept: Vec<Kept>,
    step: usize,
    ctx: String,
    /// Role activations in force at the last `verify`.
    activations: usize,
    /// Which of the paths in the module docs this run has taken.
    reached: BTreeSet<&'static str>,
}

fn replay_hint(ent_seed: u64, trace_seed: u64) -> String {
    format!(
        "[ent_seed={ent_seed} trace_seed={trace_seed}; replay: \
         OWTE_REPLAY_SEEDS={ent_seed},{trace_seed} cargo test --test snapshot_incremental \
         replay_from_env -- --ignored --nocapture]"
    )
}

/// A generated enterprise with what the generator leaves out: a lockdown
/// that a run of denials trips, and (for odd seeds) an object policy, so
/// the purpose decision and the view's dominance closure are in play.
fn enterprise(seed: u64) -> (EnterpriseSpec, PolicyGraph) {
    let mut knobs = SplitMix64(seed);
    let spec = EnterpriseSpec {
        roles: 6 + knobs.below(6),
        users: 8,
        permissions: 12,
        hierarchy_density: knobs.unit(),
        capped_fraction: knobs.unit() * 0.4,
        temporal_fraction: knobs.unit() * 0.4,
        duration_fraction: knobs.unit() * 0.4,
        context_fraction: 0.2 + knobs.unit() * 0.4,
        grants_per_role: 3,
        ..EnterpriseSpec::default()
    };
    let mut graph = generate_enterprise(&spec, seed);
    graph.security.push(SecuritySpec {
        name: "storm".into(),
        threshold: 12,
        window: Dur::from_hours(24 * 30),
        actions: vec![SecurityAction::Alert, SecurityAction::DisableActivityRules],
    });
    if seed % 2 == 1 {
        graph.purposes.push(PurposeSpec {
            name: "care".into(),
            parent: None,
        });
        for p in 0..3 {
            graph.object_policies.push(ObjectPolicySpec {
                op: format!("op{}", p % 8),
                obj: format!("obj{p}"),
                role: role_name(knobs.below(spec.roles)),
                purpose: "care".into(),
            });
        }
    }
    (spec, graph)
}

impl Harness {
    fn new(ent_seed: u64, trace_seed: u64) -> Harness {
        let (spec, graph) = enterprise(ent_seed);
        let engine = Engine::from_policy(&graph, Ts::ZERO)
            .unwrap_or_else(|e| panic!("generated enterprise {ent_seed} instantiates: {e}"));
        Harness {
            engine,
            graph,
            spec,
            rng: SplitMix64(trace_seed),
            session_ids: 0,
            kept: Vec::new(),
            step: 0,
            ctx: replay_hint(ent_seed, trace_seed),
            activations: 0,
            reached: BTreeSet::new(),
        }
    }

    /// Every question worth asking now: each session id ever handed out
    /// plus a few not yet (a later `create_session` must not show up in a
    /// snapshot taken before it), each interned permission, with and
    /// without a purpose.
    fn questions(&self) -> Vec<Question> {
        let purposes: Vec<Option<PurposeId>> = std::iter::once(None)
            .chain((0..self.engine.privacy().purpose_count()).map(|p| Some(PurposeId(p as u32))))
            .collect();
        let mut out = Vec::new();
        for s in 0..self.session_ids + 3 {
            for ((op, obj), _) in self.engine.system().permission_pairs() {
                for &purpose in &purposes {
                    out.push((SessionId(s), op, obj, purpose));
                }
            }
        }
        out
    }

    /// The three properties, after a step.
    fn verify(&mut self, what: &'static str) {
        let at = format!("step {} ({what}) {}", self.step, self.ctx);
        let sys = self.engine.system();
        let snap = self.engine.snapshot();
        assert_eq!(snap.epoch(), self.engine.state_version(), "{at}");
        assert_eq!(snap.session_count(), sys.session_count(), "{at}");

        // A step other than a plain drop or delete that left fewer roles
        // active took one of the forced-deactivation paths.
        let activations = sys
            .all_sessions()
            .map(|s| sys.session_roles(s).map_or(0, |active| active.len()))
            .sum();
        if activations < self.activations {
            self.reached.insert(what);
        }
        self.activations = activations;
        if !snap.has_fast_path() {
            self.reached.insert("lockdown");
        }

        let questions = self.questions();
        let mut answers = Vec::with_capacity(questions.len());
        for &(s, op, obj, purpose) in &questions {
            let granted = snap.grants(s, op, obj, purpose);
            let monitor = sys.check_access(s, op, obj).unwrap_or(false);
            assert!(
                !granted || monitor,
                "{at}: snapshot grants {s} {op} {obj}, the monitor does not"
            );
            if snap.has_fast_path() {
                let decision = monitor && self.engine.privacy().check(sys, s, op, obj, purpose);
                assert_eq!(
                    granted, decision,
                    "{at}: armed snapshot and monitor differ on {s} {op} {obj} {purpose:?}"
                );
            }
            answers.push(granted);
        }

        for kept in &self.kept {
            for (&(s, op, obj, purpose), &then) in kept.questions.iter().zip(&kept.answers) {
                assert_eq!(
                    kept.snap.grants(s, op, obj, purpose),
                    then,
                    "{at}: the snapshot taken at step {} answered {then} on {s} {op} {obj} \
                     {purpose:?} then",
                    kept.taken_at
                );
            }
        }

        // (Not `assert_eq!`: it would print both views.)
        assert!(
            **self.engine.policy_view() == PolicyView::build(sys, self.engine.privacy()),
            "{at}: cached policy view is stale"
        );

        if self.kept.len() == RETAINED {
            // Drop a random one, so both old and recent epochs stay around.
            let victim = self.rng.below(RETAINED);
            self.kept.swap_remove(victim);
        }
        self.kept.push(Kept {
            taken_at: self.step,
            snap,
            questions,
            answers,
        });
    }

    /// A random open session, if any.
    fn some_session(&mut self) -> Option<SessionId> {
        let open: Vec<SessionId> = self.engine.system().all_sessions().collect();
        open.get(self.rng.below(open.len())).copied()
    }

    /// One random operation, chosen knowing the policy and the state well
    /// enough that most requests are granted (a generator blind to both
    /// gets nearly every activation refused and never has a role active
    /// for the forced-deactivation paths to take away), then `verify`.
    fn random_step(&mut self) {
        let role = self.random_role();
        let user = self.random_user();
        let what = match self.rng.below(100) {
            0..=9 => {
                if let Ok(s) = self.engine.create_session(user, &[]) {
                    self.session_ids = self.session_ids.max(s.0 + 1);
                }
                "create_session"
            }
            10..=13 => {
                let Some(s) = self.some_session() else { return };
                let owner = self.engine.system().session_user(s).expect("open");
                let _ = self.engine.delete_session(owner, s);
                "delete_session"
            }
            14..=43 => {
                let Some(s) = self.some_session() else { return };
                let sys = self.engine.system();
                let owner = sys.session_user(s).expect("open");
                // Usually a role the owner may activate, sometimes any.
                let allowed: Vec<_> = sys
                    .authorized_roles(owner)
                    .unwrap_or_default()
                    .into_iter()
                    .collect();
                let r = match allowed.get(self.rng.below(allowed.len())) {
                    Some(&r) if self.rng.below(5) > 0 => r,
                    _ => role,
                };
                let _ = self.engine.add_active_role(owner, s, r);
                "add_active_role"
            }
            44..=51 => {
                let Some(s) = self.some_session() else { return };
                let sys = self.engine.system();
                let owner = sys.session_user(s).expect("open");
                let active = sys.session_roles(s).unwrap_or_default();
                let r = active.iter().next().copied().unwrap_or(role);
                let _ = self.engine.drop_active_role(owner, s, r);
                "drop_active_role"
            }
            52..=63 => {
                // Through the rules: a refusal feeds the lockdown threshold.
                let s = self.some_session().unwrap_or(SessionId(self.session_ids));
                let pairs: Vec<_> = self.engine.system().permission_pairs().collect();
                if let Some(&((op, obj), _)) = pairs.get(self.rng.below(pairs.len())) {
                    let _ = self.engine.check_access(s, op, obj);
                }
                "check_access"
            }
            64..=71 => {
                // Far enough for Δ timers and enabling windows to fire.
                let secs = 60 + self.rng.below(3 * 3600) as u64;
                let _ = self.engine.advance(Dur::from_secs(secs));
                "advance"
            }
            72..=77 => {
                let _ = self
                    .engine
                    .set_context("zone", ZONES[self.rng.below(ZONES.len())]);
                "set_context"
            }
            78..=81 => {
                let _ = self.engine.disable_role(role);
                "disable_role"
            }
            82..=84 => {
                let _ = self.engine.enable_role(role);
                "enable_role"
            }
            85..=88 => {
                // Deassign from the owner of an open session a role it has
                // active there, if one is directly assigned.
                let Some(s) = self.some_session() else { return };
                let sys = self.engine.system();
                let owner = sys.session_user(s).expect("open");
                let held = sys.assigned_roles(owner).unwrap_or_default();
                let active = sys.session_roles(s).unwrap_or_default();
                let Some(&r) = active.intersection(&held).next().or(held.iter().next()) else {
                    return;
                };
                let _ = self.engine.deassign_user(owner, r);
                "deassign_user"
            }
            89..=91 => {
                let _ = self.engine.assign_user(user, role);
                "assign_user"
            }
            92..=94 => {
                self.engine.enable_rule_class(RuleClass::ActivityControl);
                "enable_rule_class"
            }
            _ => {
                self.change_policy();
                "apply_policy"
            }
        };
        self.verify(what);
    }

    /// One random edit of the policy graph, applied if the analyzer
    /// accepts it (a refused change must leave everything as it was, which
    /// the caller's `verify` checks either way).
    fn change_policy(&mut self) {
        let mut next = self.graph.clone();
        let role = role_name(self.rng.below(self.spec.roles));
        match self.rng.below(4) {
            0 => next.grant(
                &format!("perm{}", self.rng.below(self.spec.permissions)),
                &role,
            ),
            1 if !next.grants.is_empty() => {
                let i = self.rng.below(next.grants.len());
                next.grants.remove(i);
            }
            2 if !next.hierarchy.is_empty() => {
                let i = self.rng.below(next.hierarchy.len());
                next.hierarchy.remove(i);
            }
            _ => {
                let node = next.role(&role);
                node.max_activation = match node.max_activation {
                    Some(_) => None,
                    None => Some(Dur::from_mins(45)),
                };
            }
        }
        if self.engine.apply_policy(&next).is_ok() {
            self.graph = next;
            self.reached.insert("policy change");
        }
    }

    fn random_user(&mut self) -> UserId {
        let name = user_name(self.rng.below(self.spec.users));
        self.engine.user_id(&name).expect("generated user")
    }

    fn random_role(&mut self) -> RoleId {
        let name = role_name(self.rng.below(self.spec.roles));
        self.engine.role_id(&name).expect("generated role")
    }
}

/// Body of the property, callable with explicit seeds for replay.
/// Returns the paths the run took.
fn check_incremental_snapshots(ent_seed: u64, trace_seed: u64) -> BTreeSet<&'static str> {
    let mut h = Harness::new(ent_seed, trace_seed);
    h.verify("initial");
    for step in 1..=STEPS {
        h.step = step;
        h.random_step();
    }
    h.reached
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn snapshots_share_structure_soundly(ent_seed in 0u64..1000, trace_seed in 0u64..1000) {
        check_incremental_snapshots(ent_seed, trace_seed);
    }
}

/// One-command replay of a failing `snapshots_share_structure_soundly`
/// case (see the module docs).
#[test]
#[ignore = "replay harness; set OWTE_REPLAY_SEEDS=ent_seed,trace_seed"]
fn replay_from_env() {
    let raw =
        std::env::var("OWTE_REPLAY_SEEDS").expect("set OWTE_REPLAY_SEEDS=ent_seed,trace_seed");
    let seeds: Vec<u64> = raw
        .split(',')
        .map(|p| p.trim().parse().expect("seeds must be integers"))
        .collect();
    assert_eq!(
        seeds.len(),
        2,
        "expected 2 comma-separated seeds, got {raw:?}"
    );
    check_incremental_snapshots(seeds[0], seeds[1]);
}

/// The runs must actually take the paths the module docs name; a
/// generator change that stopped, say, tripping the lockdown would
/// otherwise make the property vacuous without failing it.
#[test]
fn the_traces_reach_every_path() {
    let reached: BTreeSet<&str> = (0..32)
        .flat_map(|seed| check_incremental_snapshots(seed, seed + 100))
        .collect();
    for path in [
        "advance",
        "set_context",
        "disable_role",
        "deassign_user",
        "lockdown",
        "policy change",
    ] {
        assert!(reached.contains(path), "no run took {path}: {reached:?}");
    }
}
