//! Review functions (ANSI 359-2004 §6.1.2 / §6.2.2): the query side of the
//! functional specification. All are read-only.

use crate::error::Result;
use crate::ids::{ObjId, OpId, PermId, RoleId, SessionId, UserId};
use crate::system::{Permission, System};
use std::collections::{BTreeSet, HashMap};

impl System {
    /// `AssignedUsers(r)`: users directly assigned to `r`.
    pub fn assigned_users(&self, r: RoleId) -> Result<BTreeSet<UserId>> {
        Ok(self.role(r)?.users.clone())
    }

    /// `AssignedRoles(u)`: roles directly assigned to `u`.
    pub fn assigned_roles(&self, u: UserId) -> Result<BTreeSet<RoleId>> {
        Ok(self.user(u)?.roles.clone())
    }

    /// `RolePermissions(r)`: permissions granted to `r`, including those
    /// inherited from juniors.
    pub fn role_permissions(&self, r: RoleId) -> Result<BTreeSet<PermId>> {
        self.role_perms_closure(r)
    }

    /// Permissions granted *directly* to `r` (no inheritance).
    pub fn role_direct_permissions(&self, r: RoleId) -> Result<BTreeSet<PermId>> {
        Ok(self.role(r)?.perms.clone())
    }

    /// Permission closures of every live role (role → direct permissions
    /// plus everything inherited from juniors), in one call instead of
    /// one [`role_permissions`](Self::role_permissions) call per role.
    pub fn all_role_perm_closures(&self) -> HashMap<RoleId, BTreeSet<PermId>> {
        self.all_roles()
            .filter_map(|r| Some((r, self.role_perms_closure(r).ok()?)))
            .collect()
    }

    /// `UserPermissions(u)`: permissions of every role the user is
    /// authorized for.
    pub fn user_permissions(&self, u: UserId) -> Result<BTreeSet<PermId>> {
        let mut out = BTreeSet::new();
        for r in self.authorized_roles(u)? {
            out.extend(self.role(r)?.perms.iter().copied());
        }
        Ok(out)
    }

    /// `SessionRoles(s)`: the session's active role set.
    pub fn session_roles(&self, s: SessionId) -> Result<BTreeSet<RoleId>> {
        Ok(self.session(s)?.active.clone())
    }

    /// Borrow `u`'s direct assignment set without cloning (hot-path
    /// form of [`assigned_roles`](Self::assigned_roles)).
    pub fn assigned_roles_ref(&self, u: UserId) -> Result<&BTreeSet<RoleId>> {
        Ok(&self.user(u)?.roles)
    }

    /// Is `u` directly assigned to `r`? Allocation-free form of
    /// [`assigned_roles`](Self::assigned_roles)` + contains` for the
    /// enforcement hot path.
    pub fn is_assigned(&self, u: UserId, r: RoleId) -> Result<bool> {
        Ok(self.user(u)?.roles.contains(&r))
    }

    /// Is `r` active in session `s`? Allocation-free form of
    /// [`session_roles`](Self::session_roles)` + contains` for the
    /// enforcement hot path.
    pub fn is_active_in_session(&self, s: SessionId, r: RoleId) -> Result<bool> {
        Ok(self.session(s)?.active.contains(&r))
    }

    /// The user who owns session `s`.
    pub fn session_user(&self, s: SessionId) -> Result<UserId> {
        Ok(self.session(s)?.user)
    }

    /// Sessions currently owned by `u`.
    pub fn user_sessions(&self, u: UserId) -> Result<BTreeSet<SessionId>> {
        Ok(self.user(u)?.sessions.clone())
    }

    /// `SessionPermissions(s)`: permissions available through the session's
    /// active roles (with inheritance).
    pub fn session_permissions(&self, s: SessionId) -> Result<BTreeSet<PermId>> {
        let mut out = BTreeSet::new();
        for &r in &self.session(s)?.active {
            out.extend(self.role_perms_closure(r)?);
        }
        Ok(out)
    }

    /// `RoleOperationsOnObject(r, obj)`: operations `r` may perform on `obj`
    /// (with inheritance).
    pub fn role_operations_on_object(&self, r: RoleId, obj: ObjId) -> Result<BTreeSet<OpId>> {
        self.obj_name(obj)?;
        let mut out = BTreeSet::new();
        for p in self.role_perms_closure(r)? {
            if let Some(Permission { op, obj: o }) = self.perm(p) {
                if o == obj {
                    out.insert(op);
                }
            }
        }
        Ok(out)
    }

    /// `UserOperationsOnObject(u, obj)`: operations `u` could obtain on
    /// `obj` through any authorized role.
    pub fn user_operations_on_object(&self, u: UserId, obj: ObjId) -> Result<BTreeSet<OpId>> {
        self.obj_name(obj)?;
        let mut out = BTreeSet::new();
        for r in self.authorized_roles(u)? {
            out.extend(self.role_operations_on_object(r, obj)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn review_functions_cover_inheritance() {
        let mut s = System::new();
        let alice = s.add_user("alice").unwrap();
        let pm = s.add_role("PM").unwrap();
        let pc = s.add_descendant("PC", pm).unwrap();
        let read = s.add_operation("read").unwrap();
        let approve = s.add_operation("approve").unwrap();
        let po = s.add_object("purchase-order").unwrap();
        let p_read = s.grant_permission(pc, read, po).unwrap();
        let p_approve = s.grant_permission(pm, approve, po).unwrap();
        s.assign_user(alice, pm).unwrap();

        assert_eq!(s.assigned_roles(alice).unwrap(), [pm].into());
        assert_eq!(s.assigned_users(pm).unwrap(), [alice].into());
        assert_eq!(s.assigned_users(pc).unwrap(), BTreeSet::new());
        assert_eq!(s.authorized_users(pc).unwrap(), [alice].into());

        // PM inherits PC's read.
        assert_eq!(s.role_permissions(pm).unwrap(), [p_read, p_approve].into());
        assert_eq!(s.role_direct_permissions(pm).unwrap(), [p_approve].into());
        assert_eq!(s.role_permissions(pc).unwrap(), [p_read].into());

        // User permissions span all authorized roles.
        assert_eq!(
            s.user_permissions(alice).unwrap(),
            [p_read, p_approve].into()
        );

        assert!(s.is_assigned(alice, pm).unwrap());
        assert!(!s.is_assigned(alice, pc).unwrap());

        let sess = s.create_session(alice, &[pm]).unwrap();
        assert_eq!(s.session_roles(sess).unwrap(), [pm].into());
        assert!(s.is_active_in_session(sess, pm).unwrap());
        assert!(!s.is_active_in_session(sess, pc).unwrap());
        assert_eq!(s.session_user(sess).unwrap(), alice);
        assert_eq!(s.user_sessions(alice).unwrap(), [sess].into());
        assert_eq!(
            s.session_permissions(sess).unwrap(),
            [p_read, p_approve].into()
        );

        assert_eq!(
            s.role_operations_on_object(pm, po).unwrap(),
            [read, approve].into()
        );
        assert_eq!(s.role_operations_on_object(pc, po).unwrap(), [read].into());
        assert_eq!(
            s.user_operations_on_object(alice, po).unwrap(),
            [read, approve].into()
        );
    }

    #[test]
    fn bulk_closures_match_per_role_queries() {
        // Diamond: top inherits via two middles from one shared bottom.
        let mut s = System::new();
        let top = s.add_role("top").unwrap();
        let m1 = s.add_descendant("m1", top).unwrap();
        let m2 = s.add_descendant("m2", top).unwrap();
        let bottom = s.add_descendant("bottom", m1).unwrap();
        s.add_inheritance(m2, bottom).unwrap();
        let read = s.add_operation("read").unwrap();
        let doc = s.add_object("doc").unwrap();
        s.grant_permission(bottom, read, doc).unwrap();
        let memo = s.add_object("memo").unwrap();
        s.grant_permission(m1, read, memo).unwrap();

        let all = s.all_role_perm_closures();
        assert_eq!(all.len(), s.role_count());
        for r in s.all_roles() {
            assert_eq!(all[&r], s.role_permissions(r).unwrap(), "role {r:?}");
        }
    }
}
