//! Core RBAC: administrative commands and supporting system functions
//! (ANSI 359-2004 §6.1), plus role enabling/disabling and activation caps
//! used by the temporal extension and the paper's cardinality rules.

use crate::error::{RbacError, Result};
use crate::ids::{ObjId, OpId, PermId, RoleId, SessionId, UserId};
use crate::system::{RoleRec, System, UserRec};
use std::collections::BTreeSet;

impl System {
    // ---- administrative commands: users --------------------------------------

    /// `AddUser`: create a user.
    pub fn add_user(&mut self, name: &str) -> Result<UserId> {
        if self.user_names.contains_key(name) {
            return Err(RbacError::DuplicateName(name.to_string()));
        }
        let id = UserId(u32::try_from(self.users.len()).expect("user count fits u32"));
        self.users.push(Some(UserRec {
            name: name.to_string(),
            roles: BTreeSet::new(),
            sessions: BTreeSet::new(),
            max_active_roles: None,
        }));
        self.user_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// `DeleteUser`: remove a user, closing their sessions and deassigning
    /// their roles.
    pub fn delete_user(&mut self, u: UserId) -> Result<()> {
        let rec = self.user(u)?.clone();
        for s in rec.sessions {
            self.delete_session_internal(s);
        }
        for r in rec.roles {
            if let Ok(role) = self.role_mut(r) {
                role.users.remove(&u);
            }
        }
        self.user_names.remove(&rec.name);
        self.users[u.index()] = None;
        Ok(())
    }

    // ---- administrative commands: roles ---------------------------------------

    /// `AddRole`: create a role (enabled by default).
    pub fn add_role(&mut self, name: &str) -> Result<RoleId> {
        if self.role_names.contains_key(name) {
            return Err(RbacError::DuplicateName(name.to_string()));
        }
        let id = RoleId(u32::try_from(self.roles.len()).expect("role count fits u32"));
        self.roles.push(Some(RoleRec {
            name: name.to_string(),
            users: BTreeSet::new(),
            perms: BTreeSet::new(),
            seniors: BTreeSet::new(),
            juniors: BTreeSet::new(),
            junior_closure: BTreeSet::new(),
            enabled: true,
            activation_cap: None,
        }));
        self.role_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// `DeleteRole`: remove a role, deactivating it everywhere, deassigning
    /// users, dropping grants, hierarchy edges and SoD memberships.
    pub fn delete_role(&mut self, r: RoleId) -> Result<()> {
        let rec = self.role(r)?.clone();
        self.sessions.deactivate_everywhere(r);
        for u in rec.users {
            if let Ok(user) = self.user_mut(u) {
                user.roles.remove(&r);
            }
        }
        for senior in rec.seniors {
            if let Ok(sr) = self.role_mut(senior) {
                sr.juniors.remove(&r);
            }
        }
        for junior in rec.juniors {
            if let Ok(jr) = self.role_mut(junior) {
                jr.seniors.remove(&r);
            }
        }
        for set in self.ssd.iter_mut().flatten() {
            set.roles.remove(&r);
        }
        for set in self.dsd.iter_mut().flatten() {
            set.roles.remove(&r);
        }
        self.role_names.remove(&rec.name);
        self.roles[r.index()] = None;
        crate::hierarchy::rebuild_junior_closures(&mut self.roles);
        Ok(())
    }

    // ---- operations and objects ------------------------------------------------

    /// Register an operation (read, write, approve, …).
    pub fn add_operation(&mut self, name: &str) -> Result<OpId> {
        if self.op_names.contains_key(name) {
            return Err(RbacError::DuplicateName(name.to_string()));
        }
        let id = OpId(u32::try_from(self.ops.len()).expect("op count fits u32"));
        self.ops.push(name.to_string());
        self.op_names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Register a protected object.
    pub fn add_object(&mut self, name: &str) -> Result<ObjId> {
        if self.obj_names.contains_key(name) {
            return Err(RbacError::DuplicateName(name.to_string()));
        }
        let id = ObjId(u32::try_from(self.objs.len()).expect("obj count fits u32"));
        self.objs.push(name.to_string());
        self.obj_names.insert(name.to_string(), id);
        Ok(id)
    }

    // ---- UA: user-role assignment -----------------------------------------------

    /// `AssignUser`: add (u, r) to UA, subject to SSD constraints.
    pub fn assign_user(&mut self, u: UserId, r: RoleId) -> Result<()> {
        self.user(u)?;
        self.role(r)?;
        if self.user(u)?.roles.contains(&r) {
            return Err(RbacError::AlreadyAssigned(u, r));
        }
        self.check_ssd_assign(u, r)?;
        self.user_mut(u)?.roles.insert(r);
        self.role_mut(r)?.users.insert(u);
        Ok(())
    }

    /// `DeassignUser`: remove (u, r) from UA; the role (and any of its
    /// juniors whose authorization derived solely from it) is deactivated in
    /// the user's sessions if no longer authorized.
    pub fn deassign_user(&mut self, u: UserId, r: RoleId) -> Result<()> {
        self.user(u)?;
        self.role(r)?;
        if !self.user(u)?.roles.contains(&r) {
            return Err(RbacError::NotAssigned(u, r));
        }
        self.user_mut(u)?.roles.remove(&r);
        self.role_mut(r)?.users.remove(&u);
        // Deactivate roles the user is no longer authorized for.
        let authorized = self.authorized_roles(u)?;
        for s in self.user(u)?.sessions.clone() {
            self.sessions
                .retain_active(s, |role| authorized.contains(&role));
        }
        Ok(())
    }

    // ---- PA: permission-role assignment --------------------------------------------

    /// `GrantPermission`: grant (op, obj) to a role.
    pub fn grant_permission(&mut self, r: RoleId, op: OpId, obj: ObjId) -> Result<PermId> {
        self.role(r)?;
        let p = self.perm_id(op, obj)?;
        if !self.role_mut(r)?.perms.insert(p) {
            return Err(RbacError::AlreadyGranted(r));
        }
        Ok(p)
    }

    /// `RevokePermission`: revoke (op, obj) from a role.
    pub fn revoke_permission(&mut self, r: RoleId, op: OpId, obj: ObjId) -> Result<()> {
        self.role(r)?;
        let p = self.find_perm(op, obj).ok_or(RbacError::NotGranted(r))?;
        if !self.role_mut(r)?.perms.remove(&p) {
            return Err(RbacError::NotGranted(r));
        }
        Ok(())
    }

    // ---- sessions ------------------------------------------------------------------

    /// `CreateSession`: open a session for `u` with an initial set of active
    /// roles (each must be authorized, enabled, and jointly DSD-consistent).
    pub fn create_session(&mut self, u: UserId, initial: &[RoleId]) -> Result<SessionId> {
        self.user(u)?;
        let id = self.sessions.open(u);
        self.user_mut(u)?.sessions.insert(id);
        for &r in initial {
            if let Err(e) = self.add_active_role(u, id, r) {
                // Roll the session back so failed creation has no effect.
                self.delete_session_internal(id);
                return Err(e);
            }
        }
        Ok(id)
    }

    /// `DeleteSession`: close a session owned by `u`.
    pub fn delete_session(&mut self, u: UserId, s: SessionId) -> Result<()> {
        let sess = self.session(s)?;
        if sess.user != u {
            return Err(RbacError::NotSessionOwner(s, u));
        }
        self.delete_session_internal(s);
        Ok(())
    }

    pub(crate) fn delete_session_internal(&mut self, s: SessionId) {
        if let Some(owner) = self.sessions.close(s) {
            if let Ok(user) = self.user_mut(owner) {
                user.sessions.remove(&s);
            }
        }
    }

    /// `AddActiveRole`: activate `r` in session `s` of user `u`.
    ///
    /// Checks, in order (mirroring the paper's AAR rule conditions):
    /// user exists ∧ session exists ∧ session owned by user ∧ role not
    /// already active ∧ user authorized (assigned, or assigned to a senior)
    /// ∧ role enabled ∧ DSD sets satisfied ∧ (optionally) activation caps.
    pub fn add_active_role(&mut self, u: UserId, s: SessionId, r: RoleId) -> Result<()> {
        self.user(u)?;
        self.role(r)?;
        let sess = self.session(s)?;
        if sess.user != u {
            return Err(RbacError::NotSessionOwner(s, u));
        }
        if sess.active.contains(&r) {
            return Err(RbacError::RoleAlreadyActive(s, r));
        }
        if !self.is_authorized(u, r)? {
            return Err(RbacError::NotAuthorized(u, r));
        }
        if !self.role(r)?.enabled {
            return Err(RbacError::RoleDisabled(r));
        }
        self.check_dsd_activate(s, r)?;
        if self.enforce_caps {
            self.check_caps(u, s, r)?;
        }
        self.sessions.activate(s, r);
        Ok(())
    }

    /// `DropActiveRole`: deactivate `r` in session `s` of user `u`.
    pub fn drop_active_role(&mut self, u: UserId, s: SessionId, r: RoleId) -> Result<()> {
        let sess = self.session(s)?;
        if sess.user != u {
            return Err(RbacError::NotSessionOwner(s, u));
        }
        if !sess.active.contains(&r) {
            return Err(RbacError::RoleNotActive(s, r));
        }
        self.sessions.deactivate(s, r);
        Ok(())
    }

    /// `CheckAccess`: may session `s` perform `op` on `obj`? True iff some
    /// active role of the session (or one of its juniors, via inheritance)
    /// holds the permission.
    pub fn check_access(&self, s: SessionId, op: OpId, obj: ObjId) -> Result<bool> {
        let sess = self.session(s)?;
        let Some(p) = self.find_perm(op, obj) else {
            return Ok(false);
        };
        for &r in &sess.active {
            if self.role_has_perm_closure(r, p)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // ---- role enabling (temporal substrate) ---------------------------------------

    /// Is the role currently enabled?
    pub fn is_enabled(&self, r: RoleId) -> Result<bool> {
        Ok(self.role(r)?.enabled)
    }

    /// Enable a role (GTRBAC role-status event).
    pub fn enable_role(&mut self, r: RoleId) -> Result<()> {
        self.role_mut(r)?.enabled = true;
        Ok(())
    }

    /// Disable a role. When `deactivate` is set, the role is also dropped
    /// from every session; the affected sessions are returned so enforcement
    /// layers can react (alert, cascade, …).
    pub fn disable_role(&mut self, r: RoleId, deactivate: bool) -> Result<Vec<SessionId>> {
        self.role_mut(r)?.enabled = false;
        if deactivate {
            self.deactivate_everywhere(r)
        } else {
            Ok(Vec::new())
        }
    }

    /// Drop `r` from every session that has it active, leaving its
    /// enabling status alone; the affected sessions, in ascending order.
    pub fn deactivate_everywhere(&mut self, r: RoleId) -> Result<Vec<SessionId>> {
        self.role(r)?;
        Ok(self.sessions.deactivate_everywhere(r))
    }

    // ---- activation caps (paper Rule 4) ---------------------------------------------

    /// Bound the number of distinct users that may be active in `r` at once.
    pub fn set_role_activation_cap(&mut self, r: RoleId, cap: Option<usize>) -> Result<()> {
        self.role_mut(r)?.activation_cap = cap;
        Ok(())
    }

    /// The configured cap for `r`.
    pub fn role_activation_cap(&self, r: RoleId) -> Result<Option<usize>> {
        Ok(self.role(r)?.activation_cap)
    }

    /// Bound the number of roles `u` may have active at once (across all of
    /// their sessions; the paper's scenario 1, "Jane ≤ 5 active roles").
    pub fn set_user_active_role_cap(&mut self, u: UserId, cap: Option<usize>) -> Result<()> {
        self.user_mut(u)?.max_active_roles = cap;
        Ok(())
    }

    /// The configured cap for `u`.
    pub fn user_active_role_cap(&self, u: UserId) -> Result<Option<usize>> {
        Ok(self.user(u)?.max_active_roles)
    }

    /// Distinct users with `r` active in at least one session.
    pub fn active_users_of_role(&self, r: RoleId) -> Result<usize> {
        self.role(r)?;
        Ok(self.sessions.users_holding(r))
    }

    /// Is `r` active in at least one session?
    pub fn role_active_anywhere(&self, r: RoleId) -> bool {
        self.sessions.users_holding(r) > 0
    }

    /// Does `u` have `r` active in at least one of their sessions?
    pub fn user_active_in_role(&self, u: UserId, r: RoleId) -> bool {
        self.sessions.user_holds(u, r)
    }

    /// Distinct roles `u` has active across all their sessions.
    pub fn active_roles_of_user(&self, u: UserId) -> Result<BTreeSet<RoleId>> {
        let rec = self.user(u)?;
        let mut roles = BTreeSet::new();
        for &s in &rec.sessions {
            if let Ok(sess) = self.session(s) {
                roles.extend(sess.active.iter().copied());
            }
        }
        Ok(roles)
    }

    fn check_caps(&self, u: UserId, _s: SessionId, r: RoleId) -> Result<()> {
        if let Some(max) = self.role(r)?.activation_cap {
            // The activating user may already be active in the role in
            // another session; only *new* users count against the cap.
            if !self.sessions.user_holds(u, r) && self.sessions.users_holding(r) >= max {
                return Err(RbacError::CardinalityExceeded { role: r, max });
            }
        }
        if let Some(max) = self.user(u)?.max_active_roles {
            let active = self.active_roles_of_user(u)?;
            if !active.contains(&r) && active.len() >= max {
                return Err(RbacError::CardinalityExceeded { role: r, max });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> System {
        System::new()
    }

    /// A tiny world: bob assigned to "clerk" which may read "ledger".
    fn small_world() -> (System, UserId, RoleId, OpId, ObjId) {
        let mut s = sys();
        let bob = s.add_user("bob").unwrap();
        let clerk = s.add_role("clerk").unwrap();
        let read = s.add_operation("read").unwrap();
        let ledger = s.add_object("ledger").unwrap();
        s.assign_user(bob, clerk).unwrap();
        s.grant_permission(clerk, read, ledger).unwrap();
        (s, bob, clerk, read, ledger)
    }

    #[test]
    fn add_and_lookup_entities() {
        let mut s = sys();
        let u = s.add_user("jane").unwrap();
        assert_eq!(s.user_by_name("jane").unwrap(), u);
        assert_eq!(s.user_name(u).unwrap(), "jane");
        assert!(s.add_user("jane").is_err(), "duplicate names rejected");
        assert!(s.user_by_name("nope").is_err());
        assert_eq!(s.user_count(), 1);
    }

    #[test]
    fn assign_and_deassign() {
        let (mut s, bob, clerk, _, _) = small_world();
        assert!(matches!(
            s.assign_user(bob, clerk),
            Err(RbacError::AlreadyAssigned(_, _))
        ));
        s.deassign_user(bob, clerk).unwrap();
        assert!(matches!(
            s.deassign_user(bob, clerk),
            Err(RbacError::NotAssigned(_, _))
        ));
    }

    #[test]
    fn grant_and_revoke() {
        let (mut s, _, clerk, read, ledger) = small_world();
        assert!(matches!(
            s.grant_permission(clerk, read, ledger),
            Err(RbacError::AlreadyGranted(_))
        ));
        s.revoke_permission(clerk, read, ledger).unwrap();
        assert!(matches!(
            s.revoke_permission(clerk, read, ledger),
            Err(RbacError::NotGranted(_))
        ));
    }

    #[test]
    fn session_lifecycle_and_check_access() {
        let (mut s, bob, clerk, read, ledger) = small_world();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        assert!(s.check_access(sess, read, ledger).unwrap());
        s.drop_active_role(bob, sess, clerk).unwrap();
        assert!(!s.check_access(sess, read, ledger).unwrap());
        s.add_active_role(bob, sess, clerk).unwrap();
        assert!(matches!(
            s.add_active_role(bob, sess, clerk),
            Err(RbacError::RoleAlreadyActive(_, _))
        ));
        s.delete_session(bob, sess).unwrap();
        assert!(s.check_access(sess, read, ledger).is_err());
    }

    #[test]
    fn activation_requires_assignment() {
        let (mut s, bob, _, _, _) = small_world();
        let other = s.add_role("approver").unwrap();
        let sess = s.create_session(bob, &[]).unwrap();
        assert!(matches!(
            s.add_active_role(bob, sess, other),
            Err(RbacError::NotAuthorized(_, _))
        ));
    }

    #[test]
    fn session_ownership_enforced() {
        let (mut s, bob, clerk, _, _) = small_world();
        let eve = s.add_user("eve").unwrap();
        let sess = s.create_session(bob, &[]).unwrap();
        assert!(matches!(
            s.add_active_role(eve, sess, clerk),
            Err(RbacError::NotSessionOwner(_, _))
        ));
        assert!(matches!(
            s.delete_session(eve, sess),
            Err(RbacError::NotSessionOwner(_, _))
        ));
    }

    #[test]
    fn create_session_rolls_back_on_failure() {
        let (mut s, bob, clerk, _, _) = small_world();
        let approver = s.add_role("approver").unwrap();
        let before = s.session_count();
        assert!(s.create_session(bob, &[clerk, approver]).is_err());
        assert_eq!(s.session_count(), before, "failed create leaves no session");
    }

    #[test]
    fn disabled_role_cannot_activate() {
        let (mut s, bob, clerk, _, _) = small_world();
        s.disable_role(clerk, false).unwrap();
        let sess = s.create_session(bob, &[]).unwrap();
        assert!(matches!(
            s.add_active_role(bob, sess, clerk),
            Err(RbacError::RoleDisabled(_))
        ));
        s.enable_role(clerk).unwrap();
        s.add_active_role(bob, sess, clerk).unwrap();
    }

    #[test]
    fn disable_role_deactivates_sessions() {
        let (mut s, bob, clerk, _, _) = small_world();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        let affected = s.disable_role(clerk, true).unwrap();
        assert_eq!(affected, vec![sess]);
        assert!(s.session_roles(sess).unwrap().is_empty());
    }

    #[test]
    fn delete_user_closes_sessions() {
        let (mut s, bob, clerk, _, _) = small_world();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        s.delete_user(bob).unwrap();
        assert!(s.session(sess).is_err());
        assert!(s.assigned_users(clerk).unwrap().is_empty());
    }

    #[test]
    fn delete_role_cleans_up() {
        let (mut s, bob, clerk, read, ledger) = small_world();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        s.delete_role(clerk).unwrap();
        assert!(s.session_roles(sess).unwrap().is_empty());
        assert!(s.assigned_roles(bob).unwrap().is_empty());
        assert!(!s.check_access(sess, read, ledger).unwrap());
    }

    #[test]
    fn role_activation_cap_enforced_when_on() {
        let (mut s, _, clerk, _, _) = small_world();
        s.set_enforce_caps(true);
        s.set_role_activation_cap(clerk, Some(1)).unwrap();
        let u1 = s.add_user("u1").unwrap();
        let u2 = s.add_user("u2").unwrap();
        s.assign_user(u1, clerk).unwrap();
        s.assign_user(u2, clerk).unwrap();
        let s1 = s.create_session(u1, &[]).unwrap();
        let s2 = s.create_session(u2, &[]).unwrap();
        s.add_active_role(u1, s1, clerk).unwrap();
        assert!(matches!(
            s.add_active_role(u2, s2, clerk),
            Err(RbacError::CardinalityExceeded { .. })
        ));
        // Same user in a second session does not consume the cap.
        let s1b = s.create_session(u1, &[clerk]).unwrap();
        assert!(s.session_roles(s1b).unwrap().contains(&clerk));
    }

    #[test]
    fn user_active_role_cap_enforced_when_on() {
        let mut s = sys();
        s.set_enforce_caps(true);
        let jane = s.add_user("jane").unwrap();
        let r1 = s.add_role("r1").unwrap();
        let r2 = s.add_role("r2").unwrap();
        s.assign_user(jane, r1).unwrap();
        s.assign_user(jane, r2).unwrap();
        s.set_user_active_role_cap(jane, Some(1)).unwrap();
        let sess = s.create_session(jane, &[r1]).unwrap();
        assert!(matches!(
            s.add_active_role(jane, sess, r2),
            Err(RbacError::CardinalityExceeded { .. })
        ));
    }

    #[test]
    fn caps_ignored_when_off() {
        let (mut s, _, clerk, _, _) = small_world();
        s.set_role_activation_cap(clerk, Some(1)).unwrap();
        let u1 = s.add_user("u1").unwrap();
        let u2 = s.add_user("u2").unwrap();
        s.assign_user(u1, clerk).unwrap();
        s.assign_user(u2, clerk).unwrap();
        s.create_session(u1, &[clerk]).unwrap();
        // enforce_caps is false: second activation allowed by the monitor
        // (the OWTE layer is responsible for the check).
        s.create_session(u2, &[clerk]).unwrap();
        assert_eq!(s.active_users_of_role(clerk).unwrap(), 2);
    }

    #[test]
    fn check_access_unknown_perm_is_false() {
        let (mut s, bob, clerk, read, _) = small_world();
        let vault = s.add_object("vault").unwrap();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        assert!(!s.check_access(sess, read, vault).unwrap());
    }

    #[test]
    fn deassign_deactivates() {
        let (mut s, bob, clerk, _, _) = small_world();
        let sess = s.create_session(bob, &[clerk]).unwrap();
        s.deassign_user(bob, clerk).unwrap();
        assert!(s.session_roles(sess).unwrap().is_empty());
    }
}
