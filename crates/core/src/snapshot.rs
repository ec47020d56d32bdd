//! Immutable authorization snapshots: the lock-free read path.
//!
//! `checkAccess` is by far the hottest operation and, in the common case,
//! is *decision-only*: the generated CA rule inspects state (session
//! exists, session has the permission, purpose acceptable) and either
//! allows or raises an error, changing nothing. [`AuthSnapshot`] holds
//! exactly the state that decision reads — per-session active-role sets,
//! role → permission closures, the `(op, obj)` permission index and the
//! privacy state — so that a grant can be computed without holding the
//! engine mutex at all. [`crate::SharedEngine`] publishes one snapshot per
//! engine epoch and routes reads through it.
//!
//! # One decision procedure
//!
//! The paper's CA rule grants when `ForANY role IN getSessionRoles(session):
//! checkPermissions(op, obj, role)`. [`PolicyView::session_holds`] is that
//! test, and it is the only copy: a snapshot read calls it with the
//! captured active set, and the engine's own `SessionHasPermission`
//! condition (see [`crate::bridge`]) calls it with the monitor's live one,
//! under either evaluator. A follower's reads go through a snapshot too.
//! The view settles at policy time whatever no request can change:
//!
//! * one bit row per role, in `RoleId` order, holding the role's full
//!   permission closure (direct grants and everything inherited from its
//!   juniors), one bit per `PermId`; on a 200-role enterprise that is
//!   200 rows of 7 words, 11 KiB;
//! * an `(op, obj)` → `PermId` index hashed with one multiply, not SipHash.
//!
//! A request is then one index probe and one bit test per active role.
//!
//! # What a capture costs
//!
//! A snapshot copies none of that state; it shares it with the engine:
//!
//! * the session table is the monitor's own [`SessionTable`], cloned in
//!   O(1). The monitor's next write to a session copies that session's
//!   chunk and record for itself and leaves the snapshot's untouched, so
//!   no write site has to report what it changed;
//! * everything that depends only on the policy — the closure rows, the
//!   permission index, the privacy state — is one [`PolicyView`] behind an
//!   `Arc`, built by the engine on first use and again only after
//!   `apply_policy`, the one operation that changes PA, the hierarchy or
//!   the privacy state (no rule action does);
//! * per capture: the epoch, the clock, the validity horizon and the
//!   soundness gate below, which is re-proved every time because a rule
//!   action can disable the CA rule in the middle of any dispatch.
//!
//! # Soundness
//!
//! The snapshot is only consulted when, at capture time, the `checkAccess`
//! dispatch is *provably* equivalent to the pure decision procedure below.
//! [`AuthSnapshot::capture`] verifies structurally that:
//!
//! * the `checkAccess` event is a plain primitive with no composite-event
//!   ancestors (nothing upstream consumes it, so dispatching it fires no
//!   other machinery);
//! * exactly one enabled rule subscribes to it, and that rule is the
//!   generated CA rule, matched *structurally*: its When conditions are
//!   exactly `SessionExists(session) && SessionHasPermission(session, op,
//!   obj)` (plus the `purpose_ok` custom check when object policies
//!   exist), its Then is `[Allow]` and its Else a single `raise error`.
//!
//! If any of this fails — an administrator disabled the CA rule, a custom
//! pool subscribed extra rules to `checkAccess`, a composite event watches
//! it — [`AuthSnapshot::has_fast_path`] is `false` and every read takes
//! the locked path. Rule pools are data, so this gate is re-evaluated on
//! every capture.
//!
//! Even with the fast path armed, **only a grant is authoritative**:
//! [`AuthSnapshot::grants`] returning `false` means "not provably allowed
//! from this snapshot", and the caller must fall back to the locked
//! engine. This keeps the OWTE denial semantics intact — the Else branch
//! (`raise error "Permission Denied"`), the audit log entry and the
//! `accessDenied` feed into the active-security rules all still happen
//! under the lock. The one documented relaxation: fast-path *grants* do
//! not append `Fired` audit entries.
//!
//! # Validity horizon
//!
//! A snapshot answers queries for logical times `t` in `[from,
//! valid_until)`. `from` is the engine clock at capture; `valid_until` is
//! the earliest instant at which deferred machinery may change the
//! decision — the next pending detector timer (role deactivation Δs,
//! lockout expiries) or the next GTRBAC periodic enable/disable boundary.
//! A query exactly **at** `valid_until` must take the locked path: the
//! timer fires at that instant, and only the serialized write path may
//! run it. Snapshots of engines with no pending timers and no periodic
//! policies are valid forever (until invalidated by a write).

use crate::engine::Engine;
use crate::privacy::{PrivacyState, PurposeId};
use policy::events;
use rbac::{ObjId, OpId, PermId, RoleId, SessionId, SessionTable, System};
use sentinel::{ActionSpec, Check, CondExpr, ParamRef};
use snoop::Ts;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// What the structural gate proved about the CA rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FastPath {
    /// The CA rule carries the `purpose_ok` check (object policies exist),
    /// so the snapshot must replicate the privacy decision.
    needs_purpose: bool,
}

/// The part of a snapshot that depends only on the policy: PA with the
/// role hierarchy folded in, the permission index and the privacy state.
/// Rule actions cannot change any of its inputs (they activate, enable
/// and assign), so the engine builds it once per `apply_policy`, and every
/// snapshot in between and the engine's own CA condition share it
/// ([`Engine::policy_view`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyView {
    /// Role → full permission closure (direct + inherited from juniors)
    /// as a bit row: bit `p` of role `r`'s row is set iff `r` holds
    /// `PermId(p)`. Rows are `words` long and laid end to end in `RoleId`
    /// order; a deleted role's row is all zero.
    closures: Vec<u64>,
    /// Words per row: one bit per interned permission.
    words: usize,
    /// Role → roles it dominates (reflexive junior closure); drives the
    /// privacy policy's role-dominance applicability test. Empty when
    /// there are no object policies to apply.
    dominated: HashMap<RoleId, BTreeSet<RoleId>>,
    /// `(op, obj)` → permission id, keyed by [`pair_key`].
    perm_index: HashMap<u64, PermId, BuildHasherDefault<PairHasher>>,
    /// Purposes, purpose hierarchy and object policies.
    privacy: PrivacyState,
}

/// `(op, obj)` packed into the one word the permission index hashes.
fn pair_key(op: OpId, obj: ObjId) -> u64 {
    (u64::from(op.0) << 32) | u64::from(obj.0)
}

/// The permission index's hasher: one folded multiply per word instead of
/// SipHash. Its keys are the policy's own permissions, fixed when the view
/// is built; a request only probes.
#[derive(Debug, Clone, Copy, Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

impl PolicyView {
    /// Compute the view of `sys` and `privacy`: O(roles × permissions).
    pub fn build(sys: &System, privacy: &PrivacyState) -> PolicyView {
        let words = sys.perm_count().div_ceil(64);
        let slots = sys.all_roles().last().map_or(0, |r| r.index() + 1);
        let mut direct = vec![0u64; slots * words];
        for r in sys.all_roles() {
            for p in sys.role_direct_permissions(r).unwrap_or_default() {
                direct[r.index() * words + p.index() / 64] |= 1 << (p.index() % 64);
            }
        }
        let mut closures = direct.clone();
        let mut dominated = HashMap::new();
        for r in sys.all_roles() {
            let mut juniors = sys.juniors_closure(r).unwrap_or_default();
            for j in &juniors {
                let (row, junior) = (r.index() * words, j.index() * words);
                for w in 0..words {
                    closures[row + w] |= direct[junior + w];
                }
            }
            if !privacy.policies().is_empty() {
                juniors.insert(r);
                dominated.insert(r, juniors);
            }
        }
        PolicyView {
            closures,
            words,
            dominated,
            perm_index: sys
                .permission_pairs()
                .map(|((op, obj), p)| (pair_key(op, obj), p))
                .collect(),
            privacy: privacy.clone(),
        }
    }

    /// The CA rule's `SessionHasPermission`: does one of the `active`
    /// roles hold `(op, obj)`, directly or through a junior? One index
    /// probe, then one bit per active role; a role past the last row
    /// holds nothing.
    pub fn session_holds(&self, active: &BTreeSet<RoleId>, op: OpId, obj: ObjId) -> bool {
        let Some(&p) = self.perm_index.get(&pair_key(op, obj)) else {
            return false;
        };
        let (word, bit) = (p.index() / 64, p.index() % 64);
        active.iter().any(|r| {
            self.closures
                .get(r.index() * self.words + word)
                .is_some_and(|w| w >> bit & 1 == 1)
        })
    }
}

/// An immutable view of everything `checkAccess` reads, valid for one
/// engine epoch over the interval `[from, valid_until)`.
///
/// Build via [`Engine::snapshot`]; share via `Arc`. All methods are
/// `&self` — the snapshot never changes after capture.
#[derive(Debug, Clone)]
pub struct AuthSnapshot {
    epoch: u64,
    from: Ts,
    valid_until: Option<Ts>,
    fast: Option<FastPath>,
    /// Session → active role set: the monitor's table as of the capture.
    sessions: SessionTable,
    view: Arc<PolicyView>,
}

impl AuthSnapshot {
    /// Capture the engine's current authorization state. Called by
    /// [`Engine::snapshot`]; runs under whatever lock protects the engine.
    pub(crate) fn capture(engine: &Engine) -> AuthSnapshot {
        AuthSnapshot {
            epoch: engine.state_version(),
            from: engine.now(),
            valid_until: engine.validity_horizon(),
            fast: Self::prove_fast_path(engine),
            sessions: engine.system().sessions().clone(),
            view: Arc::clone(engine.policy_view()),
        }
    }

    /// The structural soundness gate (see module docs): is dispatching
    /// `checkAccess` provably equivalent to the pure decision procedure?
    fn prove_fast_path(engine: &Engine) -> Option<FastPath> {
        let det = engine.detector_ref();
        let pool = engine.pool();
        let ev = det.lookup(events::CHECK_ACCESS)?;
        // No composite event may consume checkAccess: its ancestor closure
        // must be just itself.
        if det.ancestor_closure(ev, false) != vec![ev] {
            return None;
        }
        // Exactly one enabled subscriber.
        let enabled: Vec<_> = pool
            .triggered_by(ev)
            .iter()
            .filter_map(|&id| pool.get(id))
            .filter(|r| r.enabled)
            .collect();
        let [rule] = enabled[..] else {
            return None;
        };
        // Structurally the generated CA rule, nothing else.
        let session = || ParamRef::param("session");
        let base = || {
            vec![
                CondExpr::check(Check::SessionExists(session())),
                CondExpr::check(Check::SessionHasPermission {
                    session: session(),
                    op: ParamRef::param("op"),
                    obj: ParamRef::param("obj"),
                }),
            ]
        };
        let purpose_check = CondExpr::check(Check::Custom {
            name: "purpose_ok".into(),
            args: vec![
                session(),
                ParamRef::param("op"),
                ParamRef::param("obj"),
                ParamRef::param("purpose"),
            ],
        });
        let needs_purpose = if rule.when == CondExpr::all(base()) {
            false
        } else {
            let mut with_purpose = base();
            with_purpose.push(purpose_check);
            if rule.when == CondExpr::all(with_purpose) {
                true
            } else {
                return None;
            }
        };
        if rule.then != [ActionSpec::Allow] {
            return None;
        }
        if !matches!(rule.otherwise[..], [ActionSpec::RaiseError(_)]) {
            return None;
        }
        Some(FastPath { needs_purpose })
    }

    /// The engine `state_version` this snapshot was captured at. A
    /// published snapshot is current iff this equals the engine's version.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Engine clock at capture (inclusive start of the validity interval).
    pub fn from(&self) -> Ts {
        self.from
    }

    /// Exclusive end of the validity interval: the next timer firing or
    /// temporal enable/disable boundary. `None` = valid until invalidated.
    pub fn valid_until(&self) -> Option<Ts> {
        self.valid_until
    }

    /// Can this snapshot answer a query at logical time `t`? True iff
    /// `from <= t` and `t` is strictly before [`valid_until`]
    /// (queries exactly at the horizon belong to the write path, which
    /// must fire the timer due at that instant first).
    ///
    /// [`valid_until`]: AuthSnapshot::valid_until
    pub fn answers_at(&self, t: Ts) -> bool {
        t >= self.from && self.valid_until.is_none_or(|u| t < u)
    }

    /// Did the capture-time soundness gate pass? When `false`,
    /// [`grants`](AuthSnapshot::grants) always returns `false` and every
    /// read takes the locked path.
    pub fn has_fast_path(&self) -> bool {
        self.fast.is_some()
    }

    /// Resolve a purpose name against the captured purpose registry.
    pub fn purpose_by_name(&self, name: &str) -> Option<PurposeId> {
        self.view.privacy.purpose_by_name(name)
    }

    /// Number of sessions captured.
    pub fn session_count(&self) -> usize {
        self.sessions.count()
    }

    /// The pure `checkAccess` decision. **Only `true` is authoritative**:
    /// `false` means "not provably allowed from this snapshot" and the
    /// caller must re-ask the locked engine, which runs the full OWTE
    /// machinery (denial audit entry + `accessDenied` feed).
    pub fn grants(
        &self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: Option<PurposeId>,
    ) -> bool {
        let Some(fast) = self.fast else {
            return false;
        };
        // SessionExists(session)
        let Some(active) = self.sessions.active_roles(session) else {
            return false;
        };
        // SessionHasPermission(session, op, obj)
        if !self.view.session_holds(active, op, obj) {
            return false;
        }
        // purpose_ok(session, op, obj, purpose)
        if fast.needs_purpose && !self.purpose_ok(active, op, obj, purpose) {
            return false;
        }
        true
    }

    /// Replicates [`PrivacyState::check`] over captured data: every object
    /// policy whose role is dominated by an active role constrains the
    /// access; the stated purpose must satisfy one applicable policy.
    fn purpose_ok(
        &self,
        active: &BTreeSet<RoleId>,
        op: OpId,
        obj: ObjId,
        purpose: Option<PurposeId>,
    ) -> bool {
        let view = &*self.view;
        let mut applicable = false;
        for p in view.privacy.policies() {
            if p.op != op || p.obj != obj {
                continue;
            }
            let role_applies = active
                .iter()
                .any(|a| view.dominated.get(a).is_some_and(|d| d.contains(&p.role)));
            if !role_applies {
                continue;
            }
            applicable = true;
            if let Some(given) = purpose {
                if view.privacy.satisfies(given, p.purpose) {
                    return true;
                }
            }
        }
        !applicable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::PolicyGraph;
    use snoop::Dur;

    fn xyz_engine() -> Engine {
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.user("bob");
        g.assign("alice", "PM");
        g.assign("bob", "AC");
        Engine::from_policy(&g, Ts::ZERO).unwrap()
    }

    #[test]
    fn snapshot_grants_match_engine_decisions() {
        let mut e = xyz_engine();
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        let s = e.create_session(alice, &[pm]).unwrap();
        let create = e.system().op_by_name("create").unwrap();
        let approve = e.system().op_by_name("approve").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();

        let snap = e.snapshot();
        assert!(snap.has_fast_path(), "XYZ pool passes the soundness gate");
        assert_eq!(snap.epoch(), e.state_version());
        assert_eq!(snap.session_count(), 1);

        // Inherited permission (PM dominates PC): granted on both paths.
        assert!(snap.grants(s, create, po, None));
        assert!(e.check_access(s, create, po).unwrap());
        assert_eq!(
            snap.grants(s, approve, po, None),
            e.check_access(s, approve, po).unwrap()
        );
        // Unknown session: not provable; the engine denies it too.
        let bogus = SessionId(999);
        assert!(!snap.grants(bogus, create, po, None));
        assert!(!e.check_access(bogus, create, po).unwrap());
    }

    #[test]
    fn denials_are_never_authoritative() {
        let mut e = xyz_engine();
        let bob = e.user_id("bob").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        let create = e.system().op_by_name("create").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();
        let snap = e.snapshot();
        // No active roles: the snapshot cannot prove a grant. The locked
        // path must still be consulted so the denial is audited.
        assert!(!snap.grants(s, create, po, None));
        let before = e.log().denial_count();
        assert!(!e.check_access(s, create, po).unwrap());
        assert_eq!(e.log().denial_count(), before + 1);
    }

    #[test]
    fn epoch_tracks_mutations_but_not_reads() {
        let mut e = xyz_engine();
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        let create = e.system().op_by_name("create").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();

        let v0 = e.state_version();
        let s = e.create_session(alice, &[pm]).unwrap();
        assert!(e.state_version() > v0, "session creation is a write");

        let v1 = e.state_version();
        assert!(e.check_access(s, create, po).unwrap());
        assert_eq!(e.state_version(), v1, "granted checkAccess mutates nothing");

        let snap = e.snapshot();
        assert_eq!(snap.epoch(), v1);
        e.drop_active_role(alice, s, pm).unwrap();
        assert!(e.state_version() > v1, "role drop invalidates the snapshot");
        // The stale snapshot must no longer be treated as current…
        assert_ne!(snap.epoch(), e.state_version());
        // …because it would now grant what the engine denies.
        assert!(snap.grants(s, create, po, None));
        assert!(!e.check_access(s, create, po).unwrap());
    }

    #[test]
    fn gate_refuses_disabled_or_foreign_pools() {
        let mut e = xyz_engine();
        assert!(e.snapshot().has_fast_path());
        // Lockdown disables the activity-control class (CA included):
        // the snapshot must refuse to answer.
        e.disable_rule_class(sentinel::RuleClass::ActivityControl);
        let snap = e.snapshot();
        assert!(!snap.has_fast_path());
        assert!(!snap.grants(SessionId(0), OpId(0), ObjId(0), None));
        e.enable_rule_class(sentinel::RuleClass::ActivityControl);
        assert!(e.snapshot().has_fast_path(), "re-armed after recovery");
    }

    #[test]
    fn validity_horizon_follows_timers() {
        let mut e = xyz_engine();
        // Untimed engine: valid forever.
        assert_eq!(e.snapshot().valid_until(), None);
        let snap = e.snapshot();
        assert!(snap.answers_at(Ts::ZERO));
        assert!(snap.answers_at(Ts::from_secs(1_000_000)));

        // An activation-duration policy arms a timer on activation.
        let mut g = e.policy().clone();
        g.role("PM").max_activation = Some(Dur::from_hours(2));
        e.apply_policy(&g).unwrap();
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        e.create_session(alice, &[pm]).unwrap();
        let snap = e.snapshot();
        let until = snap.valid_until().expect("pending Δ timer bounds validity");
        assert_eq!(until, Ts::ZERO + Dur::from_hours(2));
        assert!(snap.answers_at(Ts(until.0 - 1)));
        assert!(
            !snap.answers_at(until),
            "the instant the timer fires belongs to the write path"
        );
        assert!(!snap.answers_at(Ts(until.0 + 1)));
    }

    /// A write through the handle, under a published snapshot a reader
    /// still holds, copies the written session's chunk and nothing else,
    /// and the reader's snapshot keeps answering from its own epoch.
    #[test]
    fn a_published_snapshot_keeps_sharing_every_untouched_chunk() {
        let mut g = PolicyGraph::new("shared");
        g.role("worker");
        g.user("u");
        g.assign("u", "worker");
        g.permission("use_tool", "use", "tool");
        g.grant("use_tool", "worker");
        let engine = crate::SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap());
        let (u, worker) = (
            engine.user_id("u").unwrap(),
            engine.role_id("worker").unwrap(),
        );
        // Three chunks of sessions.
        let sessions: Vec<SessionId> = (0..150)
            .map(|_| engine.create_session(u, &[]).unwrap())
            .collect();
        let (op, obj) = engine.with(|e| {
            let sys = e.system();
            (
                sys.op_by_name("use").unwrap(),
                sys.obj_by_name("tool").unwrap(),
            )
        });
        let shared_with = |snap: &AuthSnapshot| {
            engine.with(|e| e.system().sessions().chunks_shared_with(&snap.sessions))
        };

        let held = engine.snapshot().expect("published after the last write");
        assert_eq!(shared_with(&held), 3);
        engine.add_active_role(u, sessions[70], worker).unwrap();
        assert_eq!(shared_with(&held), 2, "one chunk copied for one activation");
        engine.delete_session(u, sessions[71]).unwrap();
        assert_eq!(shared_with(&held), 2, "and written again in place");
        engine.with(|e| e.disable_role(worker)).unwrap();
        assert_eq!(
            shared_with(&held),
            2,
            "a deactivation visits the holders only"
        );

        assert!(!held.grants(sessions[70], op, obj, None));
        assert_eq!(held.session_count(), 150);
        let now = engine.snapshot().expect("republished");
        assert_eq!(shared_with(&now), 3);
        assert_eq!(now.session_count(), 149);
    }

    #[test]
    fn purpose_constraints_replicated() {
        let mut g = PolicyGraph::new("clinic");
        g.user("nina");
        g.role("Nurse");
        g.assign("nina", "Nurse");
        g.permission("read_record", "read", "patient_record");
        g.grant("read_record", "Nurse");
        g.purposes.push(policy::PurposeSpec {
            name: "treatment".into(),
            parent: None,
        });
        g.purposes.push(policy::PurposeSpec {
            name: "billing".into(),
            parent: Some("treatment".into()),
        });
        g.object_policies.push(policy::ObjectPolicySpec {
            op: "read".into(),
            obj: "patient_record".into(),
            role: "Nurse".into(),
            purpose: "treatment".into(),
        });
        let mut e = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let nina = e.user_id("nina").unwrap();
        let nurse = e.role_id("Nurse").unwrap();
        let s = e.create_session(nina, &[nurse]).unwrap();
        let read = e.system().op_by_name("read").unwrap();
        let rec = e.system().obj_by_name("patient_record").unwrap();

        let snap = e.snapshot();
        assert!(snap.has_fast_path());
        let treatment = snap.purpose_by_name("treatment").unwrap();
        let billing = snap.purpose_by_name("billing").unwrap();
        // Right purpose (and descendant): provable grants, agreeing with
        // the engine.
        assert!(snap.grants(s, read, rec, Some(treatment)));
        assert!(e
            .check_access_for_purpose(s, read, rec, "treatment")
            .unwrap());
        assert!(snap.grants(s, read, rec, Some(billing)));
        // Constrained access without a purpose: not provable; engine denies.
        assert!(!snap.grants(s, read, rec, None));
        assert!(!e.check_access(s, read, rec).unwrap());
    }
}
