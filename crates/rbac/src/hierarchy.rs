//! Hierarchical RBAC (ANSI 359-2004 §6.2): a partial order ⪰ over roles.
//!
//! "Senior roles acquire the permissions of their juniors, and junior roles
//! acquire the user membership of their seniors." The hierarchy is a DAG of
//! immediate edges; authorization and permission queries take the reflexive
//! transitive closure.
//!
//! The downward closure is what every access check and authorization asks
//! for, so each role carries its strict junior closure as derived state
//! (`RoleRec::junior_closure`): extended in place when an edge is added,
//! recomputed when an edge or a role is deleted, and, being derived, not
//! serialized but recomputed when the roles are read back.

use crate::error::{RbacError, Result};
use crate::ids::{PermId, RoleId, UserId};
use crate::system::{HierarchyKind, RoleRec, System};
use std::collections::BTreeSet;

/// Roles reachable from `r` over immediate edges, upward or downward
/// (excluding `r`).
fn reachable(roles: &[Option<RoleRec>], r: RoleId, up: bool) -> BTreeSet<RoleId> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![r];
    while let Some(cur) = stack.pop() {
        let Some(rec) = roles.get(cur.index()).and_then(Option::as_ref) else {
            continue;
        };
        let next = if up { &rec.seniors } else { &rec.juniors };
        for &n in next {
            if seen.insert(n) {
                stack.push(n);
            }
        }
    }
    seen
}

/// Recompute every role's junior closure from the immediate edges.
pub(crate) fn rebuild_junior_closures(roles: &mut [Option<RoleRec>]) {
    let closures: Vec<BTreeSet<RoleId>> = (0..roles.len())
        .map(|i| reachable(roles, RoleId(i as u32), false))
        .collect();
    for (rec, closure) in roles.iter_mut().zip(closures) {
        if let Some(rec) = rec {
            rec.junior_closure = closure;
        }
    }
}

impl System {
    /// `AddInheritance`: make `senior ⪰ junior` an immediate edge.
    ///
    /// Rejected if either role is missing, the edge exists, it would create
    /// a cycle, the hierarchy is limited and `junior` already has an
    /// immediate senior, or some user's *authorized* role set would come to
    /// violate an SSD constraint (the standard's SSD/hierarchy consistency
    /// requirement).
    pub fn add_inheritance(&mut self, senior: RoleId, junior: RoleId) -> Result<()> {
        self.role(senior)?;
        self.role(junior)?;
        if senior == junior {
            return Err(RbacError::HierarchyCycle(senior, junior));
        }
        if self.role(senior)?.juniors.contains(&junior) {
            return Err(RbacError::InheritanceExists(senior, junior));
        }
        // Cycle: senior must not already be junior-reachable from `junior`.
        if self.role(junior)?.junior_closure.contains(&senior) {
            return Err(RbacError::HierarchyCycle(senior, junior));
        }
        if self.hierarchy_kind() == HierarchyKind::Limited && !self.role(junior)?.seniors.is_empty()
        {
            return Err(RbacError::LimitedHierarchy(junior));
        }
        // SSD consistency: simulate the edge, then re-check every user
        // authorized for the new senior (they gain the junior's subtree).
        self.role_mut(senior)?.juniors.insert(junior);
        self.role_mut(junior)?.seniors.insert(senior);
        // `senior` and everything above it gain `junior` and its closure.
        let mut gained = self.role(junior)?.junior_closure.clone();
        gained.insert(junior);
        let mut gainers = self.seniors_closure(senior)?;
        gainers.insert(senior);
        for g in gainers {
            self.role_mut(g)?.junior_closure.extend(&gained);
        }
        let check = self.check_all_users_ssd();
        if let Err(e) = check {
            self.role_mut(senior)?.juniors.remove(&junior);
            self.role_mut(junior)?.seniors.remove(&senior);
            rebuild_junior_closures(&mut self.roles);
            return Err(e);
        }
        Ok(())
    }

    /// `DeleteInheritance`: remove the immediate edge `senior ⪰ junior`.
    /// Roles that become unauthorized for some user are deactivated in that
    /// user's sessions.
    pub fn delete_inheritance(&mut self, senior: RoleId, junior: RoleId) -> Result<()> {
        self.role(senior)?;
        self.role(junior)?;
        if !self.role(senior)?.juniors.contains(&junior) {
            return Err(RbacError::NoSuchInheritance(senior, junior));
        }
        self.role_mut(senior)?.juniors.remove(&junior);
        self.role_mut(junior)?.seniors.remove(&senior);
        rebuild_junior_closures(&mut self.roles);
        // Deactivate newly unauthorized roles.
        for u in self.all_users().collect::<Vec<_>>() {
            let authorized = self.authorized_roles(u)?;
            for s in self.user(u)?.sessions.clone() {
                self.sessions.retain_active(s, |r| authorized.contains(&r));
            }
        }
        Ok(())
    }

    /// `AddAscendant`: create a new role as an immediate senior of `junior`.
    pub fn add_ascendant(&mut self, name: &str, junior: RoleId) -> Result<RoleId> {
        self.role(junior)?;
        let senior = self.add_role(name)?;
        self.add_inheritance(senior, junior)?;
        Ok(senior)
    }

    /// `AddDescendant`: create a new role as an immediate junior of `senior`.
    pub fn add_descendant(&mut self, name: &str, senior: RoleId) -> Result<RoleId> {
        self.role(senior)?;
        let junior = self.add_role(name)?;
        self.add_inheritance(senior, junior)?;
        Ok(junior)
    }

    /// Immediate juniors of `r`.
    pub fn immediate_juniors(&self, r: RoleId) -> Result<BTreeSet<RoleId>> {
        Ok(self.role(r)?.juniors.clone())
    }

    /// Immediate seniors of `r`.
    pub fn immediate_seniors(&self, r: RoleId) -> Result<BTreeSet<RoleId>> {
        Ok(self.role(r)?.seniors.clone())
    }

    /// All roles reachable downward from `r` (excluding `r`).
    pub fn juniors_closure(&self, r: RoleId) -> Result<BTreeSet<RoleId>> {
        Ok(self.role(r)?.junior_closure.clone())
    }

    /// All roles reachable upward from `r` (excluding `r`).
    pub fn seniors_closure(&self, r: RoleId) -> Result<BTreeSet<RoleId>> {
        self.role(r)?;
        Ok(reachable(&self.roles, r, true))
    }

    /// Does `senior ⪰ junior` hold in the closure (reflexive)?
    pub fn dominates(&self, senior: RoleId, junior: RoleId) -> Result<bool> {
        if senior == junior {
            self.role(senior)?;
            return Ok(true);
        }
        Ok(self.role(senior)?.junior_closure.contains(&junior))
    }

    /// Roles the user may activate: direct assignments plus all juniors of
    /// those assignments ("junior roles acquire the user membership of their
    /// seniors").
    pub fn authorized_roles(&self, u: UserId) -> Result<BTreeSet<RoleId>> {
        let assigned = &self.user(u)?.roles;
        let mut out = assigned.clone();
        for &r in assigned {
            out.extend(&self.role(r)?.junior_closure);
        }
        Ok(out)
    }

    /// Is `u` authorized for `r` (assigned to `r` or to any senior of it)?
    pub fn is_authorized(&self, u: UserId, r: RoleId) -> Result<bool> {
        self.role(r)?;
        let assigned = &self.user(u)?.roles;
        if assigned.contains(&r) {
            return Ok(true);
        }
        for &a in assigned {
            if self.role(a)?.junior_closure.contains(&r) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Users authorized for `r`: assigned to `r` or any of its seniors.
    pub fn authorized_users(&self, r: RoleId) -> Result<BTreeSet<UserId>> {
        let mut out = self.role(r)?.users.clone();
        for s in self.seniors_closure(r)? {
            out.extend(self.role(s)?.users.iter().copied());
        }
        Ok(out)
    }

    /// Permissions of `r` including everything inherited from juniors.
    pub fn role_perms_closure(&self, r: RoleId) -> Result<BTreeSet<PermId>> {
        let rec = self.role(r)?;
        let mut out = rec.perms.clone();
        for &j in &rec.junior_closure {
            out.extend(&self.role(j)?.perms);
        }
        Ok(out)
    }

    /// Does `r` hold `p` directly or via a junior?
    pub fn role_has_perm_closure(&self, r: RoleId, p: PermId) -> Result<bool> {
        let rec = self.role(r)?;
        if rec.perms.contains(&p) {
            return Ok(true);
        }
        for &j in &rec.junior_closure {
            if self.role(j)?.perms.contains(&p) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Does the role participate in any hierarchy relationship? (Drives the
    /// paper's choice between rule variants AAR₁/AAR₃ vs AAR₂/AAR₄.)
    pub fn in_hierarchy(&self, r: RoleId) -> Result<bool> {
        let rec = self.role(r)?;
        Ok(!rec.seniors.is_empty() || !rec.juniors.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's enterprise XYZ purchase branch: PM ⪰ PC ⪰ Clerk.
    fn chain() -> (System, RoleId, RoleId, RoleId) {
        let mut s = System::new();
        let pm = s.add_role("PM").unwrap();
        let pc = s.add_role("PC").unwrap();
        let clerk = s.add_role("Clerk").unwrap();
        s.add_inheritance(pm, pc).unwrap();
        s.add_inheritance(pc, clerk).unwrap();
        (s, pm, pc, clerk)
    }

    #[test]
    fn closure_and_dominates() {
        let (s, pm, pc, clerk) = chain();
        assert_eq!(s.juniors_closure(pm).unwrap(), [pc, clerk].into());
        assert_eq!(s.seniors_closure(clerk).unwrap(), [pm, pc].into());
        assert!(s.dominates(pm, clerk).unwrap());
        assert!(s.dominates(pm, pm).unwrap());
        assert!(!s.dominates(clerk, pm).unwrap());
    }

    /// The closure is derived: absent from the stored form (which is byte
    /// for byte what it was before the closure existed), back after a
    /// read, and put right when an edge is refused after it was tried.
    #[test]
    fn junior_closure_is_derived_not_stored() {
        let (mut s, pm, pc, clerk) = chain();
        assert_eq!(
            serde_json::to_string(&s.roles[pc.index()]).unwrap(),
            r#"{"name":"PC","users":[],"perms":[],"seniors":[0],"juniors":[2],"enabled":true,"activation_cap":null}"#
        );
        let back: System = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back.role(pm).unwrap().junior_closure, [pc, clerk].into());
        assert_eq!(back.role(clerk).unwrap().junior_closure, BTreeSet::new());

        // ann holds `other`, which an SSD set keeps apart from clerk: an
        // edge other ⪰ PC would authorize her for both and is refused.
        let other = s.add_role("other").unwrap();
        let ann = s.add_user("ann").unwrap();
        s.assign_user(ann, other).unwrap();
        s.create_ssd_set("apart", &[other, clerk], 2).unwrap();
        assert!(matches!(
            s.add_inheritance(other, pc),
            Err(RbacError::SsdInheritanceConflict { .. })
        ));
        assert_eq!(s.role(other).unwrap().junior_closure, BTreeSet::new());
        assert_eq!(s.authorized_roles(ann).unwrap(), [other].into());
    }

    #[test]
    fn cycles_rejected() {
        let (mut s, pm, _, clerk) = chain();
        assert!(matches!(
            s.add_inheritance(clerk, pm),
            Err(RbacError::HierarchyCycle(_, _))
        ));
        assert!(matches!(
            s.add_inheritance(pm, pm),
            Err(RbacError::HierarchyCycle(_, _))
        ));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut s, pm, pc, _) = chain();
        assert!(matches!(
            s.add_inheritance(pm, pc),
            Err(RbacError::InheritanceExists(_, _))
        ));
    }

    #[test]
    fn senior_acquires_junior_permissions() {
        let (mut s, pm, _, clerk) = chain();
        let read = s.add_operation("read").unwrap();
        let doc = s.add_object("doc").unwrap();
        let p = s.grant_permission(clerk, read, doc).unwrap();
        assert!(s.role_has_perm_closure(pm, p).unwrap());
        assert!(s.role_perms_closure(pm).unwrap().contains(&p));
        // Junior does NOT acquire senior permissions.
        let approve = s.add_operation("approve").unwrap();
        let p2 = s.grant_permission(pm, approve, doc).unwrap();
        assert!(!s.role_has_perm_closure(clerk, p2).unwrap());
    }

    #[test]
    fn junior_acquires_user_membership_of_senior() {
        let (mut s, pm, pc, clerk) = chain();
        let alice = s.add_user("alice").unwrap();
        s.assign_user(alice, pm).unwrap();
        assert!(s.is_authorized(alice, clerk).unwrap());
        assert_eq!(s.authorized_roles(alice).unwrap(), [pm, pc, clerk].into());
        assert_eq!(s.authorized_users(clerk).unwrap(), [alice].into());
        // Activation of a junior role is allowed via the senior assignment.
        let sess = s.create_session(alice, &[]).unwrap();
        s.add_active_role(alice, sess, clerk).unwrap();
        // Activating juniors grants only junior permissions in check_access.
        let read = s.add_operation("read").unwrap();
        let doc = s.add_object("doc").unwrap();
        s.grant_permission(pm, read, doc).unwrap();
        assert!(!s.check_access(sess, read, doc).unwrap());
    }

    #[test]
    fn limited_hierarchy_single_senior() {
        let mut s = System::with_hierarchy(HierarchyKind::Limited);
        let a = s.add_role("a").unwrap();
        let b = s.add_role("b").unwrap();
        let c = s.add_role("c").unwrap();
        s.add_inheritance(a, c).unwrap();
        assert!(matches!(
            s.add_inheritance(b, c),
            Err(RbacError::LimitedHierarchy(_))
        ));
        // General hierarchy allows the diamond.
        let mut g = System::new();
        let a = g.add_role("a").unwrap();
        let b = g.add_role("b").unwrap();
        let c = g.add_role("c").unwrap();
        g.add_inheritance(a, c).unwrap();
        g.add_inheritance(b, c).unwrap();
    }

    #[test]
    fn add_ascendant_descendant() {
        let mut s = System::new();
        let mid = s.add_role("mid").unwrap();
        let top = s.add_ascendant("top", mid).unwrap();
        let bot = s.add_descendant("bot", mid).unwrap();
        assert!(s.dominates(top, bot).unwrap());
    }

    #[test]
    fn delete_inheritance_deactivates_orphans() {
        let (mut s, pm, pc, _) = chain();
        let alice = s.add_user("alice").unwrap();
        s.assign_user(alice, pm).unwrap();
        let sess = s.create_session(alice, &[pc]).unwrap();
        s.delete_inheritance(pm, pc).unwrap();
        assert!(
            s.session_roles(sess).unwrap().is_empty(),
            "PC no longer authorized for alice once PM ⪰ PC is removed"
        );
        assert!(matches!(
            s.delete_inheritance(pm, pc),
            Err(RbacError::NoSuchInheritance(_, _))
        ));
    }

    #[test]
    fn diamond_closure() {
        // top ⪰ {l, r} ⪰ bottom — closure must not double count or loop.
        let mut s = System::new();
        let top = s.add_role("top").unwrap();
        let l = s.add_role("l").unwrap();
        let r = s.add_role("r").unwrap();
        let bot = s.add_role("bot").unwrap();
        s.add_inheritance(top, l).unwrap();
        s.add_inheritance(top, r).unwrap();
        s.add_inheritance(l, bot).unwrap();
        s.add_inheritance(r, bot).unwrap();
        assert_eq!(s.juniors_closure(top).unwrap(), [l, r, bot].into());
        assert_eq!(s.seniors_closure(bot).unwrap(), [top, l, r].into());
    }
}
