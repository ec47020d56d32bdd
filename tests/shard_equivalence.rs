//! Property test: the sharded engine preserves single-engine semantics
//! — sharding is a pure scaling transformation.
//!
//! A [`ShardedEngine`] over 1, 2, 4 and 8 shards is driven step by step
//! through the same random workload as a single reference [`Engine`]
//! built from the same policy. After every routed (per-user) step the
//! decision must match and the step's audit delta must agree on
//! `(time, kind, rule, event)` — and on one shard, where session ids
//! cannot diverge, the *complete* audit log and id allocation must be
//! byte-identical. After the whole trace, every user's observable state
//! (live sessions, active role set), every role's enabled flag on every
//! shard, and every shard's clock must equal the reference.
//!
//! A directed test then races two users on *different* shards for a
//! cap-1 role from two threads: the coordinator's reserve/commit round
//! must let exactly one activation commit, and every constrained
//! decision must carry a distinct coordinator epoch (the total order
//! audit stamps advertise).

mod support;

use owte_core::{Engine, JournalOp, Outcome};
use rbac::{RoleId, SessionId, UserId};
use sentinel::{AuditEntry, AuditKind};
use shard::{ShardSession, ShardedEngine};
use snoop::{EventId, Ts};
use std::collections::{BTreeMap, BTreeSet};
use support::{drive, Driver};
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, Step};

/// The session-id-free audit projection compared at shard counts where
/// allocation order may legitimately differ from the reference.
type Projected = (Ts, AuditKind, Option<std::sync::Arc<str>>, Option<EventId>);

fn project(e: &AuditEntry) -> Projected {
    (e.time, e.kind.clone(), e.rule.clone(), e.event)
}

struct Harness {
    base: Engine,
    sharded: ShardedEngine,
    shards: usize,
    users: usize,
    /// The sharded session behind each of the reference's session ids.
    sessions: BTreeMap<SessionId, ShardSession>,
    /// Replay context (seeds + current step) prepended to divergence panics.
    ctx: String,
    at: String,
}

impl Harness {
    fn new(spec: &EnterpriseSpec, seed: u64, shards: usize, ctx: String) -> Harness {
        let graph = generate_enterprise(spec, seed);
        let base = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        let sharded = ShardedEngine::new(&graph, shards, Ts::ZERO)
            .expect("generated enterprises carry no unshardable rules");
        Harness {
            base,
            sharded,
            shards,
            users: spec.users,
            sessions: BTreeMap::new(),
            ctx,
            at: String::new(),
        }
    }

    fn user(&self, idx: usize) -> UserId {
        self.base
            .user_id(&workload::enterprise::user_name(idx))
            .unwrap()
    }

    fn agree(&self, base: bool, sharded: bool) {
        assert_eq!(
            base, sharded,
            "{} diverged on {} shard(s): reference {base} vs sharded {sharded} [{}]",
            self.at, self.shards, self.ctx
        );
    }

    /// Run one routed step on both engines and compare its audit delta.
    /// On one shard the full entries must match; on more, the projection
    /// (session id allocation may differ across shard-local engines).
    fn routed<B, S>(&mut self, user: UserId, on_base: B, on_sharded: S) -> (bool, bool)
    where
        B: FnOnce(&mut Engine) -> bool,
        S: FnOnce(&ShardedEngine) -> bool,
    {
        let shard = self.sharded.shard_of(user);
        let b0 = self.base.log().len();
        let s0 = self.sharded.with_engine(shard, |e| e.log().len());
        let base_ok = on_base(&mut self.base);
        let sharded_ok = on_sharded(&self.sharded);
        self.agree(base_ok, sharded_ok);
        let base_delta: Vec<AuditEntry> =
            self.base.log().entries().iter().skip(b0).cloned().collect();
        let shard_delta: Vec<AuditEntry> = self.sharded.with_engine(shard, |e| {
            e.log().entries().iter().skip(s0).cloned().collect()
        });
        if self.shards == 1 {
            assert_eq!(
                base_delta, shard_delta,
                "{}: single-shard audit delta must be byte-identical [{}]",
                self.at, self.ctx
            );
        } else {
            let b: Vec<Projected> = base_delta.iter().map(project).collect();
            let s: Vec<Projected> = shard_delta.iter().map(project).collect();
            assert_eq!(
                b, s,
                "{}: audit projection diverged on shard {shard} of {} [{}]",
                self.at, self.shards, self.ctx
            );
        }
        (base_ok, sharded_ok)
    }

    /// Compare final observable state, per user, against the reference.
    fn assert_states_equal(&self) {
        let sys = self.base.system();
        for idx in 0..self.users {
            let u = self.user(idx);
            let shard = self.sharded.shard_of(u);
            let base_active: BTreeSet<RoleId> = sys.active_roles_of_user(u).unwrap_or_default();
            let shard_active: BTreeSet<RoleId> = self.sharded.with_engine(shard, |e| {
                e.system().active_roles_of_user(u).unwrap_or_default()
            });
            assert_eq!(
                base_active, shard_active,
                "active role set of user {idx} differs on shard {shard} [{}]",
                self.ctx
            );
            let base_sessions = sys
                .all_sessions()
                .filter(|s| sys.session_user(*s).ok() == Some(u))
                .count();
            let shard_sessions = self.sharded.with_engine(shard, |e| {
                let sy = e.system();
                sy.all_sessions()
                    .filter(|s| sy.session_user(*s).ok() == Some(u))
                    .count()
            });
            assert_eq!(
                base_sessions, shard_sessions,
                "live session count of user {idx} differs [{}]",
                self.ctx
            );
        }
        for s in 0..self.shards {
            for r in sys.all_roles() {
                let base_enabled = sys.is_enabled(r).unwrap();
                let shard_enabled = self
                    .sharded
                    .with_engine(s, |e| e.system().is_enabled(r).unwrap());
                assert_eq!(
                    base_enabled, shard_enabled,
                    "enabled flag of role {r} differs on shard {s} [{}]",
                    self.ctx
                );
            }
            assert_eq!(
                self.base.now(),
                self.sharded.with_engine(s, |e| e.now()),
                "clock differs on shard {s} [{}]",
                self.ctx
            );
        }
        if self.shards == 1 {
            assert_eq!(
                self.base.log().entries(),
                &self.sharded.with_engine(0, |e| e.log().entries().clone()),
                "single-shard complete audit log must be byte-identical [{}]",
                self.ctx
            );
        }
        // Constrained decisions are totally ordered: every epoch-stamped
        // audit range across every shard carries a distinct epoch.
        let mut epochs = Vec::new();
        for s in 0..self.shards {
            epochs.extend(self.sharded.stamps(s).iter().filter_map(|st| st.epoch));
        }
        let distinct: BTreeSet<u64> = epochs.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            epochs.len(),
            "constrained ops must carry distinct coordinator epochs [{}]",
            self.ctx
        );
    }
}

impl Harness {
    /// `CreateSession` on both sides; remember the sharded session.
    fn create_session(&mut self, u: UserId) -> Option<SessionId> {
        let mut pair = (None, None);
        let p = &mut pair;
        self.routed(
            u,
            |e| e.create_session(u, &[]).map(|sid| p.0 = Some(sid)).is_ok(),
            |sh| {
                sh.create_session(u, &[])
                    .map(|sess| p.1 = Some(sess))
                    .is_ok()
            },
        );
        let (Some(sid), Some(sess)) = pair else {
            return None;
        };
        if self.shards == 1 {
            assert_eq!(
                sid, sess.session,
                "single-shard session id allocation must match [{}]",
                self.ctx
            );
        }
        self.sessions.insert(sid, sess);
        Some(sid)
    }

    fn check_access(&mut self, session: SessionId, base_op: rbac::OpId, base_obj: rbac::ObjId) {
        let sys = self.base.system();
        let (op_name, obj_name) = (
            sys.op_name(base_op).unwrap(),
            sys.obj_name(base_obj).unwrap(),
        );
        let Some((shard_op, shard_obj)) = self.sharded.perm_ids(op_name, obj_name) else {
            panic!(
                "permission vocabulary differs: {op_name}/{obj_name} [{}]",
                self.ctx
            );
        };
        let sess = self.sessions[&session];
        // Sessions come from the driver, so the user owning them is not
        // at hand — resolve the home shard from the handle itself.
        let shard = sess.shard;
        let b0 = self.base.log().len();
        let s0 = self.sharded.with_engine(shard, |e| e.log().len());
        let base_ok = self.base.check_access(session, base_op, base_obj).unwrap();
        let sharded_ok = self
            .sharded
            .check_access(sess, shard_op, shard_obj)
            .unwrap();
        self.agree(base_ok, sharded_ok);
        let base_delta: Vec<Projected> = self
            .base
            .log()
            .entries()
            .iter()
            .skip(b0)
            .map(project)
            .collect();
        let shard_delta: Vec<Projected> = self.sharded.with_engine(shard, |e| {
            e.log().entries().iter().skip(s0).map(project).collect()
        });
        assert_eq!(
            base_delta, shard_delta,
            "{}: access-check audit delta diverged [{}]",
            self.at, self.ctx
        );
    }
}

impl Driver for Harness {
    fn on_step(&mut self, index: usize, step: &Step) {
        self.at = format!("step {index} ({step})");
    }

    fn engine(&self) -> &Engine {
        &self.base
    }

    /// Answers are compared inside; the runner only needs the sessions.
    fn submit(&mut self, op: &JournalOp) -> Option<Outcome> {
        match *op {
            JournalOp::CreateSession { user, .. } => {
                return self.create_session(user).map(Outcome::Session)
            }
            JournalOp::DeleteSession { user, session } => {
                let sess = self.sessions[&session];
                self.routed(
                    user,
                    |e| e.delete_session(user, session).is_ok(),
                    |sh| sh.delete_session(user, sess).is_ok(),
                );
            }
            JournalOp::AddActiveRole {
                user,
                session,
                role,
            } => {
                let sess = self.sessions[&session];
                self.routed(
                    user,
                    |e| e.add_active_role(user, session, role).is_ok(),
                    |sh| sh.add_active_role(user, sess, role).is_ok(),
                );
            }
            JournalOp::DropActiveRole {
                user,
                session,
                role,
            } => {
                let sess = self.sessions[&session];
                self.routed(
                    user,
                    |e| e.drop_active_role(user, session, role).is_ok(),
                    |sh| sh.drop_active_role(user, sess, role).is_ok(),
                );
            }
            JournalOp::CheckAccess {
                session, op, obj, ..
            } => self.check_access(session, op, obj),
            JournalOp::AdvanceTo { to } => {
                let by = to.since(self.base.now());
                self.base.advance_to(to).unwrap();
                self.sharded.advance(by).unwrap();
            }
            JournalOp::SetContext {
                ref key, ref value, ..
            } => {
                self.base.set_context(key, value).unwrap();
                self.sharded.set_context(key, value).unwrap();
            }
            ref other => panic!("traces do not produce {other:?}"),
        }
        None
    }
}

fn run_equivalence(spec: EnterpriseSpec, ent_seed: u64, trace_seed: u64, steps: usize) {
    let trace = generate_trace(&generate_enterprise(&spec, ent_seed), steps, trace_seed);
    for shards in [1usize, 2, 4, 8] {
        let ctx = format!("enterprise seed {ent_seed}, trace seed {trace_seed}, {shards} shard(s)");
        let mut h = Harness::new(&spec, ent_seed, shards, ctx);
        drive(&mut h, &trace, spec.users);
        h.assert_states_equal();
    }
}

#[test]
fn sharded_equivalence_on_flat_core_rbac() {
    run_equivalence(EnterpriseSpec::flat(10), 1, 1, 300);
}

#[test]
fn sharded_equivalence_with_caps_and_temporal() {
    let spec = EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        capped_fraction: 0.4,
        temporal_fraction: 0.4,
        duration_fraction: 0.4,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 2, 2, 300);
}

#[test]
fn sharded_equivalence_with_sod_and_context() {
    let spec = EnterpriseSpec {
        roles: 15,
        users: 20,
        permissions: 20,
        ssd_pairs: 2,
        dsd_pairs: 2,
        context_fraction: 0.5,
        ..EnterpriseSpec::default()
    };
    run_equivalence(spec, 3, 3, 300);
}

/// Directed race: two users on different shards of a 2-group, one
/// cap-1 role (also an SSD-set member, so the coordinator tracks its
/// membership), two OS threads racing the activation. Exactly one may
/// commit — under every thread interleaving the mutex fabric allows.
#[test]
fn racing_cross_shard_capped_activations_commit_exactly_once() {
    use policy::PolicyGraph;

    let mut g = PolicyGraph::new("race");
    g.role("Auditor").max_active_users = Some(1);
    g.role("Treasurer");
    g.ssd_set("aud-treas", &["Auditor", "Treasurer"], 2);
    for u in ["u_a", "u_b", "u_c", "u_d"] {
        g.user(u);
        g.assign(u, "Auditor");
    }

    for round in 0..16 {
        let sharded = ShardedEngine::new(&g, 2, Ts::ZERO).expect("policy shards");
        let users: Vec<UserId> = ["u_a", "u_b", "u_c", "u_d"]
            .iter()
            .map(|n| sharded.user_id(n).unwrap())
            .collect();
        let (a, b) = users
            .iter()
            .flat_map(|x| users.iter().map(move |y| (*x, *y)))
            .find(|(x, y)| sharded.shard_of(*x) != sharded.shard_of(*y))
            .expect("four users must span both shards");
        let auditor = sharded.role_id("Auditor").unwrap();
        let sa = sharded.create_session(a, &[]).unwrap();
        let sb = sharded.create_session(b, &[]).unwrap();

        let (ra, rb) = std::thread::scope(|scope| {
            let ta = scope.spawn(|| sharded.add_active_role(a, sa, auditor).is_ok());
            let tb = scope.spawn(|| sharded.add_active_role(b, sb, auditor).is_ok());
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert!(
            ra ^ rb,
            "round {round}: exactly one racing activation must commit \
             (a: {ra}, b: {rb})"
        );
        let total: usize = (0..2)
            .map(|s| {
                sharded.with_engine(s, |e| e.system().active_users_of_role(auditor).unwrap_or(0))
            })
            .sum();
        assert_eq!(total, 1, "round {round}: cap-1 must hold globally");
        // Both decisions were constrained, so both shards hold an
        // epoch-stamped audit range, and the epochs are distinct.
        let epochs: Vec<u64> = (0..2)
            .flat_map(|s| {
                sharded
                    .stamps(s)
                    .iter()
                    .filter_map(|st| st.epoch)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(epochs.len(), 2, "round {round}: both decisions stamped");
        assert_ne!(epochs[0], epochs[1], "round {round}: epochs total-order");
    }
}

/// The headline property: arbitrary enterprise shape, arbitrary trace,
/// shard counts 1/2/4/8 — identical decisions, equivalent audit,
/// identical per-user final state.
#[test]
fn sharded_equals_single_engine() {
    let Some(runs) = support::cases(
        "sharded_equals_single_engine",
        24,
        |rng, runs: &mut usize| {
            let spec = support::enterprise_spec(rng, 16);
            let (ent_seed, trace_seed) = (rng.below(1000) as u64, rng.below(1000) as u64);
            run_equivalence(spec, ent_seed, trace_seed, 200);
            *runs += 1;
        },
    ) else {
        return;
    };
    assert_eq!(runs, 24);
}
