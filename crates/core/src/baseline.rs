//! The baseline comparator: a conventional, hard-coded RBAC enforcement
//! engine with **no** rules, events or detector.
//!
//! §1/§6 of the paper argue against "custom-implemented, domain-specific"
//! systems whose enforcement logic is compiled in. [`DirectEngine`] is that
//! strawman built honestly: the same policy, the same monitor, the same
//! decisions — but every check is hand-written, temporal behaviour is
//! polled on clock advance, and a policy change means rebuilding. It serves
//! two purposes: the performance baseline for the E5 benchmarks, and the
//! semantic oracle for the OWTE ≡ Direct equivalence property tests.

use crate::context::ContextState;
use crate::engine::EngineError;
use crate::journal::{JournalOp, Outcome};
use crate::privacy::{PrivacyState, PurposeId};
use gtrbac::{
    RoleAction, RoleEvent, RoleTrigger, StatusPred, TemporalConstraints, TemporalPolicies,
};
use policy::{Binding, InstantiateError, PolicyGraph, SecurityAction, SecuritySpec};
use rbac::{ObjId, OpId, RoleId, SessionId, System, UserId};
use snoop::{Dur, Ts};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// One scheduled Δ-expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expiry {
    user: UserId,
    session: SessionId,
    role: RoleId,
}

/// The hard-coded enforcement engine.
pub struct DirectEngine {
    /// The reference monitor (with built-in cap enforcement on).
    pub sys: System,
    temporal: TemporalPolicies,
    constraints: TemporalConstraints,
    privacy: PrivacyState,
    context: ContextState,
    binding: Binding,
    security: Vec<SecuritySpec>,
    triggers: Vec<RoleTrigger>,
    now: Ts,
    /// The next shift boundary of each role with an enabling window,
    /// keyed by (when, role); the value is whether the window opens there.
    boundaries: BTreeMap<(Ts, RoleId), bool>,
    /// Δ-expiry timers, keyed by (when, sequence).
    timers: BTreeMap<(Ts, u64), Expiry>,
    /// The key of every pending Δ-expiry timer, by the (session, role)
    /// activation it expires: a deactivation cancels its own timers by
    /// key. A stale timer — its activation ended another way — stays
    /// listed until it fires or its pair is deactivated again.
    timers_by_activation: BTreeSet<(SessionId, RoleId, (Ts, u64))>,
    /// Delayed trigger actions, keyed by (when, sequence).
    trigger_timers: BTreeMap<(Ts, u64), RoleAction>,
    timer_seq: u64,
    /// Recursion guard for trigger cascades (mirrors the OWTE executor's
    /// cascade depth limit).
    cascade_depth: usize,
    denials: VecDeque<Ts>,
    /// Alerts raised by security policies.
    pub alerts: Vec<String>,
    tripped: HashSet<String>,
    /// Lockdown flag (the DisableActivityRules response).
    pub locked_down: bool,
}

impl DirectEngine {
    /// Build from a policy (same instantiation path as the OWTE engine, so
    /// both enforce an identical monitor state; rules and events are simply
    /// not constructed).
    pub fn from_policy(graph: &PolicyGraph, start: Ts) -> Result<DirectEngine, InstantiateError> {
        let inst = policy::instantiate(graph, start)?;
        let mut sys = inst.system;
        sys.set_enforce_caps(true);
        let privacy = PrivacyState::from_policy(graph, &inst.binding);
        let context = ContextState::from_policy(graph, &inst.binding);
        let triggers = graph
            .triggers
            .iter()
            .map(|t| {
                let role = |n: &str| inst.binding.role(n);
                let to_event = |k, r| match k {
                    policy::StatusKind::Enabled => RoleEvent::Enabled(r),
                    policy::StatusKind::Disabled => RoleEvent::Disabled(r),
                };
                RoleTrigger {
                    name: t.name.clone(),
                    on: to_event(t.on_kind, role(&t.on_role)),
                    conditions: t
                        .when
                        .iter()
                        .map(|(r, enabled)| {
                            if *enabled {
                                StatusPred::IsEnabled(role(r))
                            } else {
                                StatusPred::IsDisabled(role(r))
                            }
                        })
                        .collect(),
                    action: match t.action_kind {
                        policy::StatusKind::Enabled => RoleAction::Enable(role(&t.action_role)),
                        policy::StatusKind::Disabled => RoleAction::Disable(role(&t.action_role)),
                    },
                    delay: t.after,
                }
            })
            .collect();
        let boundaries = inst
            .temporal
            .constrained_roles()
            .filter_map(|r| {
                let (t, open) = next_boundary(&inst.temporal, r, start)?;
                Some(((t, r), open))
            })
            .collect();
        Ok(DirectEngine {
            sys,
            temporal: inst.temporal,
            constraints: inst.constraints,
            privacy,
            context,
            binding: inst.binding,
            security: graph.security.clone(),
            triggers,
            now: start,
            boundaries,
            timers: BTreeMap::new(),
            timers_by_activation: BTreeSet::new(),
            trigger_timers: BTreeMap::new(),
            timer_seq: 0,
            cascade_depth: 0,
            denials: VecDeque::new(),
            alerts: Vec::new(),
            tripped: HashSet::new(),
            locked_down: false,
        })
    }

    /// Current logical time.
    pub fn now(&self) -> Ts {
        self.now
    }

    /// Name ↔ id bindings.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Resolve a user name.
    pub fn user_id(&self, name: &str) -> Result<UserId, EngineError> {
        self.binding
            .users
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))
    }

    /// Resolve a role name.
    pub fn role_id(&self, name: &str) -> Result<RoleId, EngineError> {
        self.binding
            .roles
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))
    }

    fn deny(&mut self, msg: String) -> EngineError {
        self.note_denial();
        EngineError::Denied(vec![msg])
    }

    fn note_denial(&mut self) {
        self.denials.push_back(self.now);
        if self.denials.len() > 65_536 {
            self.denials.pop_front();
        }
        let now = self.now;
        let mut actions = Vec::new();
        for s in &self.security {
            if self.tripped.contains(&s.name) {
                continue;
            }
            let since = now - s.window;
            let hits = self.denials.iter().filter(|&&t| t >= since).count();
            if hits >= s.threshold {
                self.tripped.insert(s.name.clone());
                actions.push(s.clone());
            }
        }
        for s in actions {
            for a in &s.actions {
                match a {
                    SecurityAction::Alert => self.alerts.push(format!(
                        "internal security alert `{}`: more than {} denials within {}",
                        s.name, s.threshold, s.window
                    )),
                    SecurityAction::DisableActivityRules => self.locked_down = true,
                    SecurityAction::DisableRole(r) => {
                        if let Some(&rid) = self.binding.roles.get(r) {
                            if self.constraints.check_disable(&self.sys, rid, now).is_ok() {
                                let _ = self.sys.disable_role(rid, true);
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- the RBAC functional surface, hard-coded ---------------------------

    /// Run one request: the twin of [`crate::Engine::submit`] for the
    /// oracle. The baseline has no events, so a `RawEvent` is unhandled.
    pub fn submit(&mut self, op: &JournalOp) -> Result<Outcome, EngineError> {
        match op {
            JournalOp::CreateSession { user, initial } => {
                self.create_session(*user, initial).map(Outcome::Session)
            }
            JournalOp::DeleteSession { user, session } => {
                Outcome::done(self.delete_session(*user, *session))
            }
            JournalOp::AddActiveRole {
                user,
                session,
                role,
            } => Outcome::done(self.add_active_role(*user, *session, *role)),
            JournalOp::DropActiveRole {
                user,
                session,
                role,
            } => Outcome::done(self.drop_active_role(*user, *session, *role)),
            JournalOp::CheckAccess {
                session,
                op,
                obj,
                purpose,
            } => {
                let purpose = u32::try_from(*purpose).ok().map(PurposeId);
                self.check_access_inner(*session, *op, *obj, purpose)
                    .map(Outcome::Access)
            }
            JournalOp::AssignUser { user, role } => Outcome::done(self.assign_user(*user, *role)),
            JournalOp::DeassignUser { user, role } => {
                Outcome::done(self.deassign_user(*user, *role))
            }
            JournalOp::EnableRole { role } => Outcome::done(self.enable_role(*role)),
            JournalOp::DisableRole { role } => Outcome::done(self.disable_role(*role)),
            JournalOp::SetContext { key, value } => {
                self.set_context(key, value);
                Ok(Outcome::Done)
            }
            JournalOp::AdvanceTo { to } => Outcome::done(self.advance_to(*to)),
            JournalOp::RawEvent { event, .. } => Err(EngineError::Unhandled(format!(
                "the direct baseline raises no events ({event})"
            ))),
        }
    }

    /// `CreateSession` with an initial active set.
    pub fn create_session(
        &mut self,
        user: UserId,
        initial: &[RoleId],
    ) -> Result<SessionId, EngineError> {
        let session = self
            .sys
            .create_session(user, &[])
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))?;
        for &r in initial {
            if let Err(e) = self.add_active_role(user, session, r) {
                let _ = self.sys.delete_session(user, session);
                return Err(e);
            }
        }
        Ok(session)
    }

    /// `DeleteSession`.
    pub fn delete_session(&mut self, user: UserId, session: SessionId) -> Result<(), EngineError> {
        self.sys
            .delete_session(user, session)
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))
    }

    /// `AddActiveRole`: every check the generated rules perform, inlined.
    pub fn add_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        if self.locked_down {
            return Err(EngineError::Unhandled(
                "no rule handled the request (activity rules disabled?)".into(),
            ));
        }
        if let Err(v) = self.constraints.check_activate(&self.sys, role) {
            return Err(self.deny(v.to_string()));
        }
        if !self.context.check(role) {
            return Err(self.deny(format!(
                "Access Denied Cannot Activate (context constraint on {role})"
            )));
        }
        if let Err(e) = self.sys.add_active_role(user, session, role) {
            return Err(self.deny(e.to_string()));
        }
        // Δ-expiry scheduling (paper Rule 7).
        if let Some(limit) = self.temporal.activation_limit(role, user) {
            let key = (self.now + limit, self.timer_seq);
            self.timer_seq += 1;
            self.timers.insert(
                key,
                Expiry {
                    user,
                    session,
                    role,
                },
            );
            self.timers_by_activation.insert((session, role, key));
        }
        Ok(())
    }

    /// `DropActiveRole`, with prerequisite cascade and Δ-timer cancel.
    pub fn drop_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        if self.sys.session_user(session) != Ok(user) {
            return Err(self.deny(format!("Cannot Deactivate {role}: not active")));
        }
        if let Err(e) = self.sys.drop_active_role(user, session, role) {
            return Err(self.deny(e.to_string()));
        }
        let first = (session, role, (Ts::ZERO, 0));
        while let Some(&entry) = self.timers_by_activation.range(first..).next() {
            let (s, r, key) = entry;
            if (s, r) != (session, role) {
                break;
            }
            self.timers_by_activation.remove(&entry);
            self.timers.remove(&key);
        }
        self.cascade_dropped(role);
        Ok(())
    }

    /// Rule 9's ASEC₂ side: when a prerequisite role stops being active
    /// anywhere, its dependents are deactivated everywhere.
    fn cascade_dropped(&mut self, role: RoleId) {
        if self.sys.role_active_anywhere(role) {
            return;
        }
        for dep in self.constraints.dependents_of(role) {
            let _ = self.sys.deactivate_everywhere(dep);
        }
    }

    /// `CheckAccess`.
    pub fn check_access(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool, EngineError> {
        self.check_access_inner(session, op, obj, None)
    }

    /// Privacy-aware `CheckAccess`.
    pub fn check_access_for_purpose(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: &str,
    ) -> Result<bool, EngineError> {
        let pid = self
            .privacy
            .purpose_by_name(purpose)
            .ok_or_else(|| EngineError::UnknownName(purpose.to_string()))?;
        self.check_access_inner(session, op, obj, Some(pid))
    }

    fn check_access_inner(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: Option<crate::privacy::PurposeId>,
    ) -> Result<bool, EngineError> {
        if self.locked_down {
            return Ok(false);
        }
        let ok = self.sys.session_user(session).is_ok()
            && self.sys.check_access(session, op, obj).unwrap_or(false)
            && self.privacy.check(&self.sys, session, op, obj, purpose);
        if !ok {
            self.note_denial();
        }
        Ok(ok)
    }

    /// `AssignUser`.
    pub fn assign_user(&mut self, user: UserId, role: RoleId) -> Result<(), EngineError> {
        if self.locked_down {
            return Err(EngineError::Unhandled("activity rules disabled".into()));
        }
        match self.sys.assign_user(user, role) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.deny(e.to_string())),
        }
    }

    /// `DeassignUser`.
    pub fn deassign_user(&mut self, user: UserId, role: RoleId) -> Result<(), EngineError> {
        match self.sys.deassign_user(user, role) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.deny(e.to_string())),
        }
    }

    /// Request enabling a role (post-condition cascade, Rule 8; guarded by
    /// enabling-time SoD like the generated ENR rules).
    pub fn enable_role(&mut self, role: RoleId) -> Result<(), EngineError> {
        if !self.temporal.should_be_enabled(role, self.now) {
            let name = self.binding.role_name(role).unwrap_or_default().to_string();
            return Err(self.deny(format!("Cannot Enable {name}")));
        }
        if let Err(v) = self.constraints.check_enable(&self.sys, role, self.now) {
            return Err(self.deny(v.to_string()));
        }
        self.sys
            .enable_role(role)
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))?;
        self.run_triggers(RoleEvent::Enabled(role));
        // Cascade post-conditions; a failing requirement rolls us back.
        let required: Vec<RoleId> = self
            .constraints
            .post_conditions
            .iter()
            .filter(|pc| pc.role == role)
            .map(|pc| pc.required)
            .collect();
        for req in required {
            if let Err(e) = self.enable_role(req) {
                let _ = self.sys.disable_role(role, true);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Request disabling a role (disabling-time SoD guarded, Rule 6).
    pub fn disable_role(&mut self, role: RoleId) -> Result<(), EngineError> {
        if let Err(v) = self.constraints.check_disable(&self.sys, role, self.now) {
            return Err(self.deny(v.to_string()));
        }
        self.sys
            .disable_role(role, true)
            .map(|_| ())
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))?;
        self.run_triggers(RoleEvent::Disabled(role));
        Ok(())
    }

    /// Interpret the TRBAC triggers for a role-status event — the direct
    /// analogue of the generated `TRIG_*` rules on `roleEnabled_*` /
    /// `roleDisabled_*`. Actions go through the guarded request paths;
    /// cascade depth is bounded like the OWTE executor's.
    fn run_triggers(&mut self, event: RoleEvent) {
        if self.cascade_depth >= 16 {
            return;
        }
        let fired: Vec<(RoleAction, snoop::Dur)> = self
            .triggers
            .iter()
            .filter_map(|t| gtrbac::fire(t, event, &self.sys))
            .collect();
        for (action, delay) in fired {
            if delay.is_zero() {
                self.cascade_depth += 1;
                self.apply_trigger_action(action);
                self.cascade_depth -= 1;
            } else {
                let key = (self.now + delay, self.timer_seq);
                self.timer_seq += 1;
                self.trigger_timers.insert(key, action);
            }
        }
    }

    fn apply_trigger_action(&mut self, action: RoleAction) {
        // Guarded request path; refusals (windows, SoD) are simply denials.
        let result = match action {
            RoleAction::Enable(r) => self.enable_role(r),
            RoleAction::Disable(r) => self.disable_role(r),
        };
        let _ = result;
    }

    // ---- polled temporal behaviour -------------------------------------------

    /// An external context change: update the environment, then deactivate
    /// every constrained role whose requirements no longer hold.
    pub fn set_context(&mut self, key: &str, value: &str) {
        self.context.set(key, value);
        let violated: Vec<RoleId> = self
            .context
            .constrained_roles()
            .filter(|&r| !self.context.check(r))
            .collect();
        for r in violated {
            let _ = self.sys.deactivate_everywhere(r);
        }
    }

    /// Advance the clock, applying shift boundaries and Δ-expiries in time
    /// order — the hand-rolled equivalent of the detector's timer queue.
    pub fn advance_to(&mut self, ts: Ts) -> Result<(), EngineError> {
        if ts < self.now {
            return Err(EngineError::Unhandled("clock regression".into()));
        }
        #[derive(Debug)]
        enum Evt {
            Boundary(RoleId, bool),
            Expire(Expiry),
            Trigger(RoleAction),
        }
        // Collect every due event, including *simultaneous* boundaries of
        // different roles (the detector's timer queue delivers those too).
        // At equal instants, shift boundaries apply before Δ-expiries —
        // matching the OWTE engine, whose calendar timers are scheduled at
        // instantiation, before any Δ timer.
        let mut due: Vec<(Ts, u8, u64, Evt)> = Vec::new();
        while let Some(entry) = self.boundaries.first_entry() {
            let &(bt, role) = entry.key();
            if bt > ts {
                break;
            }
            due.push((bt, 0, 0, Evt::Boundary(role, entry.remove())));
            if let Some((next, open)) = next_boundary(&self.temporal, role, bt) {
                self.boundaries.insert((next, role), open);
            }
        }
        let expired: Vec<((Ts, u64), Expiry)> = self
            .timers
            .range(..=(ts, u64::MAX))
            .map(|(&k, &v)| (k, v))
            .collect();
        for ((t, seq), exp) in expired {
            self.timers.remove(&(t, seq));
            self.timers_by_activation
                .remove(&(exp.session, exp.role, (t, seq)));
            due.push((t, 1, seq, Evt::Expire(exp)));
        }
        let delayed: Vec<((Ts, u64), RoleAction)> = self
            .trigger_timers
            .range(..=(ts, u64::MAX))
            .map(|(&k, &v)| (k, v))
            .collect();
        for ((t, seq), action) in delayed {
            self.trigger_timers.remove(&(t, seq));
            due.push((t, 2, seq, Evt::Trigger(action)));
        }
        due.sort_by_key(|(t, kind, seq, _)| (*t, *kind, *seq));
        for (t, _, _, evt) in due {
            self.now = t;
            match evt {
                Evt::Boundary(role, open) => {
                    if open {
                        let _ = self.sys.enable_role(role);
                        self.run_triggers(RoleEvent::Enabled(role));
                    } else {
                        let _ = self.sys.disable_role(role, true);
                        self.run_triggers(RoleEvent::Disabled(role));
                    }
                }
                Evt::Expire(e) => {
                    // Only if the very same activation is still in place.
                    if self
                        .sys
                        .session_roles(e.session)
                        .is_ok_and(|rs| rs.contains(&e.role))
                    {
                        let _ = self.sys.drop_active_role(e.user, e.session, e.role);
                        self.cascade_dropped(e.role);
                    }
                }
                Evt::Trigger(action) => {
                    self.apply_trigger_action(action);
                }
            }
        }
        self.now = ts;
        Ok(())
    }

    /// Advance by a duration.
    pub fn advance(&mut self, d: Dur) -> Result<(), EngineError> {
        self.advance_to(self.now + d)
    }
}

/// The first boundary of `role`'s enabling window strictly after `t`, and
/// whether the window opens there.
fn next_boundary(temporal: &TemporalPolicies, role: RoleId, t: Ts) -> Option<(Ts, bool)> {
    let window = temporal.get(role)?.enabling.as_ref()?.window.as_ref()?;
    window.next_boundary(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::graph::DailyWindow;
    use snoop::Civil;

    fn hospital() -> PolicyGraph {
        let mut g = PolicyGraph::new("hospital");
        g.role("Doctor");
        g.role("DayDoctor").enabling = Some(DailyWindow {
            start_h: 8,
            start_m: 0,
            end_h: 16,
            end_m: 0,
        });
        g.role("Nurse").max_activation = Some(Dur::from_hours(2));
        g.user("bob");
        g.assign("bob", "Doctor");
        g.assign("bob", "DayDoctor");
        g.assign("bob", "Nurse");
        g
    }

    /// What the direct engine lets a caller observe.
    fn observed(e: &DirectEngine) -> impl PartialEq + std::fmt::Debug {
        let sys = &e.sys;
        let sessions: Vec<_> = sys
            .all_sessions()
            .map(|s| (s, sys.session_roles(s).ok()))
            .collect();
        let enabled: Vec<_> = sys.all_roles().map(|r| sys.is_enabled(r).ok()).collect();
        let assigned: Vec<_> = sys
            .all_users()
            .map(|u| sys.assigned_roles(u).ok())
            .collect();
        let history = (e.now, e.alerts.clone(), e.locked_down, e.denials.clone());
        (sessions, enabled, assigned, history)
    }

    /// `op` through `submit` on `a`, `named` on `b`: the answers and the
    /// states after must agree. Returns whether the request was refused.
    fn same(
        a: &mut DirectEngine,
        b: &mut DirectEngine,
        op: JournalOp,
        named: impl Fn(&mut DirectEngine) -> Result<Outcome, EngineError>,
    ) -> bool {
        let answer = a.submit(&op);
        assert_eq!(answer, named(b), "{op:?}");
        assert_eq!(observed(a), observed(b), "{op:?}");
        answer.is_err()
    }

    /// Every request variant answers the same and leaves the same state
    /// whether it goes through `submit` or through the named method.
    #[test]
    fn submit_equals_the_named_methods() {
        let mut g = hospital();
        g.purposes.push(policy::PurposeSpec {
            name: "treatment".into(),
            parent: None,
        });
        g.object_policies.push(policy::ObjectPolicySpec {
            op: "read".into(),
            obj: "chart".into(),
            role: "Doctor".into(),
            purpose: "treatment".into(),
        });
        g.permission("read_chart", "read", "chart");
        g.grant("read_chart", "Doctor");
        let a = &mut DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let b = &mut DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = a.user_id("bob").unwrap();
        let role = |name| a.role_id(name).unwrap();
        let (doctor, day, nurse) = (role("Doctor"), role("DayDoctor"), role("Nurse"));
        let (read, chart) = (
            a.sys.op_by_name("read").unwrap(),
            a.sys.obj_by_name("chart").unwrap(),
        );
        let treatment = a.privacy.purpose_by_name("treatment").unwrap();
        let s = SessionId(0);
        let open = JournalOp::CreateSession {
            user: bob,
            initial: vec![doctor],
        };
        let add = |role| JournalOp::AddActiveRole {
            user: bob,
            session: s,
            role,
        };
        let drop = |role| JournalOp::DropActiveRole {
            user: bob,
            session: s,
            role,
        };
        let check = |purpose| JournalOp::CheckAccess {
            session: s,
            op: read,
            obj: chart,
            purpose,
        };
        let context = JournalOp::SetContext {
            key: "zone".into(),
            value: "z1".into(),
        };
        let raw = JournalOp::RawEvent {
            event: "badgeSwipe".into(),
            params: snoop::Params::new(),
        };
        let nine = Civil::new(2000, 1, 1, 9, 0, 0).to_ts();
        let close = JournalOp::DeleteSession {
            user: bob,
            session: s,
        };
        let refused = [
            same(a, b, open, |e| {
                e.create_session(bob, &[doctor]).map(Outcome::Session)
            }),
            same(a, b, add(day), |e| {
                Outcome::done(e.add_active_role(bob, s, day))
            }),
            same(a, b, add(nurse), |e| {
                Outcome::done(e.add_active_role(bob, s, nurse))
            }),
            same(a, b, check(-1), |e| {
                e.check_access(s, read, chart).map(Outcome::Access)
            }),
            same(a, b, check(i64::from(treatment.0)), |e| {
                e.check_access_for_purpose(s, read, chart, "treatment")
                    .map(Outcome::Access)
            }),
            same(a, b, drop(nurse), |e| {
                Outcome::done(e.drop_active_role(bob, s, nurse))
            }),
            same(
                a,
                b,
                JournalOp::DeassignUser {
                    user: bob,
                    role: nurse,
                },
                |e| Outcome::done(e.deassign_user(bob, nurse)),
            ),
            same(
                a,
                b,
                JournalOp::AssignUser {
                    user: bob,
                    role: nurse,
                },
                |e| Outcome::done(e.assign_user(bob, nurse)),
            ),
            same(a, b, JournalOp::EnableRole { role: day }, |e| {
                Outcome::done(e.enable_role(day))
            }),
            same(a, b, JournalOp::DisableRole { role: doctor }, |e| {
                Outcome::done(e.disable_role(doctor))
            }),
            same(a, b, context, |e| {
                e.set_context("zone", "z1");
                Ok(Outcome::Done)
            }),
            same(a, b, raw, |_| {
                let refusal = "the direct baseline raises no events (badgeSwipe)";
                Err(EngineError::Unhandled(refusal.into()))
            }),
            same(a, b, JournalOp::AdvanceTo { to: nine }, |e| {
                Outcome::done(e.advance_to(nine))
            }),
            same(a, b, JournalOp::AdvanceTo { to: Ts::ZERO }, |e| {
                Outcome::done(e.advance_to(Ts::ZERO))
            }),
            same(a, b, close, |e| Outcome::done(e.delete_session(bob, s))),
        ];
        assert!(refused.contains(&true) && refused.contains(&false));
    }

    #[test]
    fn shift_windows_polled_on_advance() {
        let g = hospital();
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let day = e.role_id("DayDoctor").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        // Midnight: disabled.
        assert!(e.add_active_role(bob, s, day).is_err());
        // 9 a.m.: enabled.
        e.advance_to(Civil::new(2000, 1, 1, 9, 0, 0).to_ts())
            .unwrap();
        e.add_active_role(bob, s, day).unwrap();
        // 5 p.m.: disabled again, and the activation was dropped.
        e.advance_to(Civil::new(2000, 1, 1, 17, 0, 0).to_ts())
            .unwrap();
        assert!(!e.sys.session_roles(s).unwrap().contains(&day));
    }

    /// One advance over many shift boundaries ends where many advances of
    /// an hour do, and the timer map holds one next boundary either way.
    #[test]
    fn one_long_advance_equals_many_short_ones() {
        let g = hospital();
        let mut long = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let mut short = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let day = long.role_id("DayDoctor").unwrap();
        for hours in [9, 40, 61, 100] {
            let to = Ts::ZERO + Dur::from_hours(hours);
            long.advance_to(to).unwrap();
            while short.now() < to {
                short.advance(Dur::from_hours(1)).unwrap();
            }
            assert_eq!(long.sys.is_enabled(day), short.sys.is_enabled(day));
            assert_eq!(
                long.sys.is_enabled(day),
                Ok((8..16).contains(&(hours % 24)))
            );
            assert_eq!(long.boundaries, short.boundaries);
            assert_eq!(long.boundaries.len(), 1);
        }
    }

    #[test]
    fn delta_expiry_drops_activation() {
        let g = hospital();
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let nurse = e.role_id("Nurse").unwrap();
        let s = e.create_session(bob, &[nurse]).unwrap();
        e.advance(Dur::from_hours(1)).unwrap();
        assert!(e.sys.session_roles(s).unwrap().contains(&nurse));
        e.advance(Dur::from_hours(2)).unwrap();
        assert!(!e.sys.session_roles(s).unwrap().contains(&nurse));
        // Re-activation restarts the clock.
        e.add_active_role(bob, s, nurse).unwrap();
        e.advance(Dur::from_hours(1)).unwrap();
        assert!(e.sys.session_roles(s).unwrap().contains(&nurse));
    }

    #[test]
    fn manual_drop_cancels_delta_timer() {
        let g = hospital();
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let nurse = e.role_id("Nurse").unwrap();
        let s = e.create_session(bob, &[nurse]).unwrap();
        e.advance(Dur::from_hours(1)).unwrap();
        e.drop_active_role(bob, s, nurse).unwrap();
        e.add_active_role(bob, s, nurse).unwrap();
        // The stale timer (from the first activation) must not fire at 2h.
        e.advance(Dur::from_hours(1)).unwrap();
        assert!(e.sys.session_roles(s).unwrap().contains(&nurse));
        e.advance(Dur::from_hours(1)).unwrap();
        assert!(!e.sys.session_roles(s).unwrap().contains(&nurse));
    }

    /// A deactivation cancels its own Δ timer by key: the same role's
    /// timer in another session survives and expires that activation.
    #[test]
    fn drop_cancels_only_its_own_delta_timer() {
        let g = hospital();
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let nurse = e.role_id("Nurse").unwrap();
        let mine = e.create_session(bob, &[nurse]).unwrap();
        e.advance(Dur::from_mins(10)).unwrap();
        let other = e.create_session(bob, &[nurse]).unwrap();
        assert_eq!((e.timers.len(), e.timers_by_activation.len()), (2, 2));
        e.drop_active_role(bob, mine, nurse).unwrap();
        assert_eq!((e.timers.len(), e.timers_by_activation.len()), (1, 1));
        let &(session, role, _) = e.timers_by_activation.first().unwrap();
        assert_eq!((session, role), (other, nurse));
        e.advance(Dur::from_hours(2)).unwrap();
        assert!(e.sys.session_roles(mine).unwrap().is_empty());
        assert!(
            !e.sys.session_roles(other).unwrap().contains(&nurse),
            "the other session's timer fired"
        );
        assert!(e.timers.is_empty() && e.timers_by_activation.is_empty());
    }

    #[test]
    fn security_threshold_trips_once() {
        let mut g = hospital();
        g.security.push(SecuritySpec {
            name: "storm".into(),
            threshold: 3,
            window: Dur::from_secs(60),
            actions: vec![SecurityAction::Alert],
        });
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        let doctor = e.role_id("Doctor").unwrap();
        let day = e.role_id("DayDoctor").unwrap();
        for _ in 0..5 {
            // DayDoctor is disabled at midnight: each attempt denies.
            let _ = e.add_active_role(bob, s, day);
            let _ = e.drop_active_role(bob, s, doctor);
        }
        assert_eq!(e.alerts.len(), 1, "tripped once, then latched");
    }

    #[test]
    fn lockdown_blocks_activity() {
        let mut g = hospital();
        g.security.push(SecuritySpec {
            name: "storm".into(),
            threshold: 2,
            window: Dur::from_secs(60),
            actions: vec![SecurityAction::Alert, SecurityAction::DisableActivityRules],
        });
        let mut e = DirectEngine::from_policy(&g, Ts::ZERO).unwrap();
        let bob = e.user_id("bob").unwrap();
        let day = e.role_id("DayDoctor").unwrap();
        let doctor = e.role_id("Doctor").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        let _ = e.add_active_role(bob, s, day);
        let _ = e.add_active_role(bob, s, day);
        assert!(e.locked_down);
        // Even a legitimate activation is now refused.
        assert!(matches!(
            e.add_active_role(bob, s, doctor),
            Err(EngineError::Unhandled(_))
        ));
    }
}
