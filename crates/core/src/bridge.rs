//! The bridge: implements sentinel's [`AuthState`] over the `rbac` monitor
//! plus the temporal, privacy and active-security state.
//!
//! Rule conditions written by the generator (`checkAssigned`,
//! `checkDynamicSoDSet`, `Cardinality`, `disabling_sod_ok`, `may_enable`,
//! `denials_at_least`, `purpose_ok`, …) resolve here. Ids cross the
//! boundary as `i64`; anything out of range or stale evaluates to `false`
//! so a malformed rule fails closed.
//!
//! The CA rule's `SessionHasPermission` reads the session's active roles
//! from the monitor and decides against the engine's [`PolicyView`], the
//! same procedure a lock-free [`crate::AuthSnapshot`] read runs, so the
//! locked and the snapshot answer cannot drift apart. The monitor's own
//! `CheckAccess` stays the independent ANSI answer the direct baseline
//! gives.

use crate::context::ContextState;
use crate::privacy::{PrivacyState, PurposeId};
use crate::snapshot::PolicyView;
use gtrbac::{TemporalConstraints, TemporalPolicies};
use rbac::{ObjId, OpId, RoleId, SessionId, System, UserId};
use sentinel::{ActionOutcome, AuthState};
use snoop::{Dur, Ts};
use std::collections::VecDeque;

fn role(id: i64) -> Option<RoleId> {
    u32::try_from(id).ok().map(RoleId)
}

fn user(id: i64) -> Option<UserId> {
    u32::try_from(id).ok().map(UserId)
}

fn session(id: i64) -> Option<SessionId> {
    u32::try_from(id).ok().map(SessionId)
}

/// A per-dispatch view over the engine's disjointly-borrowed state.
pub struct BridgeView<'a> {
    /// The RBAC reference monitor.
    pub sys: &'a mut System,
    /// Temporal enabling/duration policies.
    pub temporal: &'a TemporalPolicies,
    /// Dependency/time-SoD constraints.
    pub constraints: &'a TemporalConstraints,
    /// Purposes and object policies.
    pub privacy: &'a PrivacyState,
    /// The engine's permission closure and `(op, obj)` index.
    pub policy: &'a PolicyView,
    /// Environment state and context constraints.
    pub context: &'a ContextState,
    /// Timestamps of recent denials (active-security windows).
    pub denials: &'a VecDeque<Ts>,
    /// Per-role activation counts injected from outside this engine
    /// ([`crate::Engine::set_external_active`]): cross-user reads add
    /// these so a shard sees the global count. Empty when unsharded.
    pub external: &'a std::collections::BTreeMap<RoleId, usize>,
}

impl AuthState for BridgeView<'_> {
    fn user_exists(&self, u: i64) -> bool {
        user(u).is_some_and(|u| self.sys.user_name(u).is_ok())
    }

    fn session_exists(&self, s: i64) -> bool {
        session(s).is_some_and(|s| self.sys.session_user(s).is_ok())
    }

    fn session_owned_by(&self, s: i64, u: i64) -> bool {
        match (session(s), user(u)) {
            (Some(s), Some(u)) => self.sys.session_user(s) == Ok(u),
            _ => false,
        }
    }

    fn role_active(&self, s: i64, r: i64) -> bool {
        match (session(s), role(r)) {
            (Some(s), Some(r)) => self.sys.is_active_in_session(s, r).unwrap_or(false),
            _ => false,
        }
    }

    fn assigned(&self, u: i64, r: i64) -> bool {
        match (user(u), role(r)) {
            (Some(u), Some(r)) => self.sys.is_assigned(u, r).unwrap_or(false),
            _ => false,
        }
    }

    fn authorized(&self, u: i64, r: i64) -> bool {
        match (user(u), role(r)) {
            (Some(u), Some(r)) => self.sys.is_authorized(u, r).unwrap_or(false),
            _ => false,
        }
    }

    fn authorized_any(&self, u: i64, roles: &[i64]) -> bool {
        // Baked-closure form of `authorized`: one user lookup, then
        // membership tests against the role's precomputed ancestor set.
        let Some(u) = user(u) else { return false };
        let Ok(assigned) = self.sys.assigned_roles_ref(u) else {
            return false;
        };
        roles
            .iter()
            .any(|&r| role(r).is_some_and(|r| assigned.contains(&r)))
    }

    fn dsd_satisfied(&self, s: i64, r: i64) -> bool {
        match (session(s), role(r)) {
            (Some(s), Some(r)) => self.sys.check_dsd_activate(s, r).is_ok(),
            _ => false,
        }
    }

    fn role_enabled(&self, r: i64) -> bool {
        role(r).is_some_and(|r| self.sys.is_enabled(r).unwrap_or(false))
    }

    fn role_active_anywhere(&self, r: i64) -> bool {
        role(r).is_some_and(|r| {
            self.external.get(&r).copied().unwrap_or(0) > 0 || self.sys.role_active_anywhere(r)
        })
    }

    fn active_users_of_role(&self, r: i64) -> usize {
        role(r)
            .map(|r| {
                self.sys.active_users_of_role(r).unwrap_or(0)
                    + self.external.get(&r).copied().unwrap_or(0)
            })
            .unwrap_or(0)
    }

    fn user_active_in_role(&self, u: i64, r: i64) -> bool {
        match (user(u), role(r)) {
            (Some(u), Some(r)) => self.sys.user_active_in_role(u, r),
            _ => false,
        }
    }

    fn active_roles_of_user(&self, u: i64) -> usize {
        user(u)
            .and_then(|u| self.sys.active_roles_of_user(u).ok())
            .map(|rs| rs.len())
            .unwrap_or(0)
    }

    fn session_has_permission(&self, s: i64, op: i64, obj: i64) -> bool {
        let (Some(s), Ok(op), Ok(obj)) = (
            session(s),
            u32::try_from(op).map(OpId),
            u32::try_from(obj).map(ObjId),
        ) else {
            return false;
        };
        self.sys
            .sessions()
            .active_roles(s)
            .is_some_and(|active| self.policy.session_holds(active, op, obj))
    }

    fn user_cap_ok(&self, u: i64, r: i64) -> bool {
        let (Some(u), Some(r)) = (user(u), role(r)) else {
            return false;
        };
        match self.sys.user_active_role_cap(u) {
            Ok(Some(max)) => {
                let active = self.sys.active_roles_of_user(u).unwrap_or_default();
                active.contains(&r) || active.len() < max
            }
            Ok(None) => true,
            Err(_) => false,
        }
    }

    fn custom_check(&self, name: &str, args: &[i64], now: Ts) -> bool {
        // `now` is the triggering event's time, the evaluation time of
        // every temporal check (the detector delivers timer-fired
        // occurrences at their logical instant).
        match (name, args) {
            ("disabling_sod_ok", [r]) => {
                role(*r).is_some_and(|r| self.constraints.check_disable(self.sys, r, now).is_ok())
            }
            ("context_ok", [r]) => role(*r).is_some_and(|r| self.context.check(r)),
            ("enabling_sod_ok", [r]) => {
                role(*r).is_some_and(|r| self.constraints.check_enable(self.sys, r, now).is_ok())
            }
            ("may_enable", [r]) => {
                role(*r).is_some_and(|r| self.temporal.should_be_enabled(r, now))
            }
            ("denials_at_least", [n, window_secs]) => {
                let window = Dur::from_secs(u64::try_from(*window_secs).unwrap_or(0));
                let since = now - window;
                let hits = self.denials.iter().filter(|&&t| t >= since).count();
                hits >= usize::try_from(*n).unwrap_or(usize::MAX)
            }
            ("purpose_ok", [s, op, obj, purpose]) => {
                let (Some(s), Ok(op), Ok(obj)) = (
                    session(*s),
                    u32::try_from(*op).map(OpId),
                    u32::try_from(*obj).map(ObjId),
                ) else {
                    return false;
                };
                let purpose = u32::try_from(*purpose).ok().map(PurposeId);
                self.privacy.check(self.sys, s, op, obj, purpose)
            }
            _ => false,
        }
    }

    fn add_session_role(&mut self, u: i64, s: i64, r: i64) -> ActionOutcome {
        let (Some(u), Some(s), Some(r)) = (user(u), session(s), role(r)) else {
            return ActionOutcome::Rejected("bad ids in add_session_role".into());
        };
        match self.sys.add_active_role(u, s, r) {
            Ok(()) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn drop_session_role(&mut self, u: i64, s: i64, r: i64) -> ActionOutcome {
        let (Some(u), Some(s), Some(r)) = (user(u), session(s), role(r)) else {
            return ActionOutcome::Rejected("bad ids in drop_session_role".into());
        };
        match self.sys.drop_active_role(u, s, r) {
            Ok(()) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn deactivate_role_everywhere(&mut self, r: i64) -> ActionOutcome {
        let Some(r) = role(r) else {
            return ActionOutcome::Rejected("bad role id".into());
        };
        match self.sys.deactivate_everywhere(r) {
            Ok(_) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn enable_role(&mut self, r: i64) -> ActionOutcome {
        let Some(r) = role(r) else {
            return ActionOutcome::Rejected("bad role id".into());
        };
        match self.sys.enable_role(r) {
            Ok(()) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn disable_role(&mut self, r: i64, deactivate: bool) -> ActionOutcome {
        let Some(r) = role(r) else {
            return ActionOutcome::Rejected("bad role id".into());
        };
        match self.sys.disable_role(r, deactivate) {
            Ok(_) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn assign_user(&mut self, u: i64, r: i64) -> ActionOutcome {
        let (Some(u), Some(r)) = (user(u), role(r)) else {
            return ActionOutcome::Rejected("bad ids in assign_user".into());
        };
        match self.sys.assign_user(u, r) {
            Ok(()) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }

    fn deassign_user(&mut self, u: i64, r: i64) -> ActionOutcome {
        let (Some(u), Some(r)) = (user(u), role(r)) else {
            return ActionOutcome::Rejected("bad ids in deassign_user".into());
        };
        match self.sys.deassign_user(u, r) {
            Ok(()) => ActionOutcome::Done,
            Err(e) => ActionOutcome::Rejected(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(sys: &mut System) -> BridgeView<'_> {
        // Test-only: leak tiny empty defaults for the read-only parts.
        static EMPTY_DENIALS: VecDeque<Ts> = VecDeque::new();
        let policy = Box::leak(Box::new(PolicyView::build(sys, &PrivacyState::default())));
        BridgeView {
            sys,
            temporal: Box::leak(Box::default()),
            constraints: Box::leak(Box::default()),
            privacy: Box::leak(Box::default()),
            policy,
            context: Box::leak(Box::default()),
            denials: &EMPTY_DENIALS,
            external: Box::leak(Box::default()),
        }
    }

    #[test]
    fn queries_map_to_monitor() {
        let mut sys = System::new();
        let u = sys.add_user("bob").unwrap();
        let r = sys.add_role("clerk").unwrap();
        sys.assign_user(u, r).unwrap();
        let s = sys.create_session(u, &[r]).unwrap();
        let v = view(&mut sys);
        assert!(v.user_exists(i64::from(u.0)));
        assert!(!v.user_exists(99));
        assert!(!v.user_exists(-1), "negative ids fail closed");
        assert!(v.session_owned_by(i64::from(s.0), i64::from(u.0)));
        assert!(v.role_active(i64::from(s.0), i64::from(r.0)));
        assert!(v.assigned(i64::from(u.0), i64::from(r.0)));
        assert!(v.role_active_anywhere(i64::from(r.0)));
        assert_eq!(v.active_users_of_role(i64::from(r.0)), 1);
    }

    #[test]
    fn mutations_report_rejections() {
        let mut sys = System::new();
        let u = sys.add_user("bob").unwrap();
        let r = sys.add_role("clerk").unwrap();
        let s = sys.create_session(u, &[]).unwrap();
        let mut v = view(&mut sys);
        // Not assigned: the monitor rejects activation.
        let out = v.add_session_role(i64::from(u.0), i64::from(s.0), i64::from(r.0));
        assert!(matches!(out, ActionOutcome::Rejected(_)));
        assert!(matches!(
            v.add_session_role(-1, 0, 0),
            ActionOutcome::Rejected(_)
        ));
        assert!(matches!(
            v.assign_user(i64::from(u.0), i64::from(r.0)),
            ActionOutcome::Done
        ));
    }

    #[test]
    fn denials_window_check() {
        let mut sys = System::new();
        let denials: VecDeque<Ts> =
            [Ts::from_secs(10), Ts::from_secs(50), Ts::from_secs(55)].into();
        let policy = PolicyView::build(&sys, &PrivacyState::default());
        let v = BridgeView {
            sys: &mut sys,
            temporal: Box::leak(Box::default()),
            constraints: Box::leak(Box::default()),
            privacy: Box::leak(Box::default()),
            policy: &policy,
            context: Box::leak(Box::default()),
            denials: &denials,
            external: Box::leak(Box::default()),
        };
        // At t=60 with a 20s window: denials at 50 and 55 count.
        let now = Ts::from_secs(60);
        assert!(v.custom_check("denials_at_least", &[2, 20], now));
        assert!(!v.custom_check("denials_at_least", &[3, 20], now));
        assert!(v.custom_check("denials_at_least", &[3, 60], now));
        assert!(!v.custom_check("no_such_check", &[], now));
    }

    #[test]
    fn external_counts_bias_cross_user_reads() {
        let mut sys = System::new();
        let u = sys.add_user("bob").unwrap();
        let r = sys.add_role("clerk").unwrap();
        sys.assign_user(u, r).unwrap();
        static EMPTY_DENIALS: VecDeque<Ts> = VecDeque::new();
        let external: std::collections::BTreeMap<RoleId, usize> = [(r, 2)].into();
        let policy = PolicyView::build(&sys, &PrivacyState::default());
        let v = BridgeView {
            sys: &mut sys,
            temporal: Box::leak(Box::default()),
            constraints: Box::leak(Box::default()),
            privacy: Box::leak(Box::default()),
            policy: &policy,
            context: Box::leak(Box::default()),
            denials: &EMPTY_DENIALS,
            external: &external,
        };
        // No local session, but two remote users are active in the role.
        assert_eq!(v.active_users_of_role(i64::from(r.0)), 2);
        assert!(v.role_active_anywhere(i64::from(r.0)));
    }

    #[test]
    fn deactivate_everywhere_preserves_enablement() {
        let mut sys = System::new();
        let u = sys.add_user("bob").unwrap();
        let r = sys.add_role("clerk").unwrap();
        sys.assign_user(u, r).unwrap();
        sys.create_session(u, &[r]).unwrap();
        let mut v = view(&mut sys);
        assert_eq!(
            v.deactivate_role_everywhere(i64::from(r.0)),
            ActionOutcome::Done
        );
        assert!(!v.role_active_anywhere(i64::from(r.0)));
        assert!(v.role_enabled(i64::from(r.0)), "still enabled");
        assert!(matches!(
            v.deactivate_role_everywhere(99),
            ActionOutcome::Rejected(_)
        ));
    }
}
