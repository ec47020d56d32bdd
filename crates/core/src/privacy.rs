//! Privacy-aware RBAC (He, TR-2003-09; §4.4 of the paper): purposes,
//! purpose hierarchies and object policies.
//!
//! A privacy *purpose* is "the purpose for which an operation is executed".
//! Object policies bind (operation, object, role) triples to a required
//! purpose; an access carrying purpose `p` satisfies a policy requiring `q`
//! iff `p` is `q` or a descendant of `q` in the purpose hierarchy. The
//! paper notes privacy-aware RBAC "also follows the Entity Relationship
//! model described before" — purposes are just one more entity whose
//! relationships become rule conditions (the generated `purpose_ok` check).

use policy::{Binding, PolicyGraph};
use rbac::{ObjId, OpId, RoleId, System};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PurposeId(pub u32);

/// An object policy: performing `op` on `obj` through `role` requires an
/// access purpose at or under `purpose`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectPolicy {
    /// The operation.
    pub op: OpId,
    /// The object.
    pub obj: ObjId,
    /// The role the policy binds.
    pub role: RoleId,
    /// The required purpose.
    pub purpose: PurposeId,
}

/// Purpose registry + hierarchy + object policies.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PrivacyState {
    names: Vec<String>,
    by_name: HashMap<String, PurposeId>,
    parent: Vec<Option<PurposeId>>,
    policies: Vec<ObjectPolicy>,
}

impl PrivacyState {
    /// No purposes, no policies (all accesses purpose-unconstrained).
    pub fn new() -> PrivacyState {
        PrivacyState::default()
    }

    /// Build from a policy graph and its bindings.
    pub fn from_policy(graph: &PolicyGraph, binding: &Binding) -> PrivacyState {
        let mut p = PrivacyState::new();
        for spec in &graph.purposes {
            let parent = spec.parent.as_deref().map(|n| p.by_name[n]);
            p.add_purpose(&spec.name, parent);
        }
        for op in &graph.object_policies {
            // Consistency checking validated these names; ops/objs exist in
            // the binding because the permission statements introduced them.
            // Object policies may reference op/obj names that no permission
            // used; skip those (they can never be exercised).
            let (Some(&opid), Some(&objid)) = (binding.ops.get(&op.op), binding.objs.get(&op.obj))
            else {
                continue;
            };
            p.policies.push(ObjectPolicy {
                op: opid,
                obj: objid,
                role: binding.role(&op.role),
                purpose: p.by_name[&op.purpose],
            });
        }
        p
    }

    /// Register a purpose under an optional parent.
    pub fn add_purpose(&mut self, name: &str, parent: Option<PurposeId>) -> PurposeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = PurposeId(u32::try_from(self.names.len()).expect("purpose count fits u32"));
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        self.parent.push(parent);
        id
    }

    /// Add an object policy.
    pub fn add_policy(&mut self, policy: ObjectPolicy) {
        self.policies.push(policy);
    }

    /// Look up a purpose by name.
    pub fn purpose_by_name(&self, name: &str) -> Option<PurposeId> {
        self.by_name.get(name).copied()
    }

    /// A purpose's name.
    pub fn purpose_name(&self, id: PurposeId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Number of registered purposes.
    pub fn purpose_count(&self) -> usize {
        self.names.len()
    }

    /// Number of object policies.
    pub fn policy_count(&self) -> usize {
        self.policies.len()
    }

    /// The object policies (read-only; the read-path snapshot replicates
    /// the purpose decision over these).
    pub fn policies(&self) -> &[ObjectPolicy] {
        &self.policies
    }

    /// Is `child` equal to or a descendant of `ancestor`?
    pub fn satisfies(&self, child: PurposeId, ancestor: PurposeId) -> bool {
        let mut cur = Some(child);
        let mut steps = 0;
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.parent.get(c.0 as usize).copied().flatten();
            steps += 1;
            if steps > self.parent.len() {
                return false; // defensive: malformed hierarchy
            }
        }
        false
    }

    /// The privacy check behind the generated `purpose_ok` condition: given
    /// the session's active roles, is the access purpose acceptable for
    /// (op, obj)?
    ///
    /// Semantics: each object policy whose role is active (directly or as a
    /// junior of an active role) *constrains* the access; the stated
    /// purpose must satisfy at least one applicable policy when any apply.
    /// Accesses with no applicable policy are purpose-unconstrained.
    pub fn check(
        &self,
        sys: &System,
        session: rbac::SessionId,
        op: OpId,
        obj: ObjId,
        purpose: Option<PurposeId>,
    ) -> bool {
        let Ok(active) = sys.session_roles(session) else {
            return false;
        };
        let mut applicable = false;
        for p in &self.policies {
            if p.op != op || p.obj != obj {
                continue;
            }
            let role_applies = active.contains(&p.role)
                || active
                    .iter()
                    .any(|&a| sys.dominates(a, p.role).unwrap_or(false));
            if !role_applies {
                continue;
            }
            applicable = true;
            if let Some(given) = purpose {
                if self.satisfies(given, p.purpose) {
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

    fn setup() -> (
        System,
        PrivacyState,
        rbac::SessionId,
        OpId,
        ObjId,
        PurposeId,
        PurposeId,
    ) {
        let mut sys = System::new();
        let nurse = sys.add_role("Nurse").unwrap();
        let u = sys.add_user("u").unwrap();
        sys.assign_user(u, nurse).unwrap();
        let read = sys.add_operation("read").unwrap();
        let rec = sys.add_object("patient_record").unwrap();
        sys.grant_permission(nurse, read, rec).unwrap();
        let session = sys.create_session(u, &[nurse]).unwrap();

        let mut privacy = PrivacyState::new();
        let treatment = privacy.add_purpose("treatment", None);
        let billing = privacy.add_purpose("billing", Some(treatment));
        privacy.add_policy(ObjectPolicy {
            op: read,
            obj: rec,
            role: nurse,
            purpose: treatment,
        });
        (sys, privacy, session, read, rec, treatment, billing)
    }

    #[test]
    fn purpose_hierarchy_satisfaction() {
        let (_, p, _, _, _, treatment, billing) = setup();
        assert!(p.satisfies(treatment, treatment));
        assert!(
            p.satisfies(billing, treatment),
            "descendant satisfies ancestor"
        );
        assert!(!p.satisfies(treatment, billing), "not the other way");
    }

    #[test]
    fn policy_constrains_matching_access() {
        let (sys, p, session, read, rec, treatment, billing) = setup();
        // Correct purpose: allowed.
        assert!(p.check(&sys, session, read, rec, Some(treatment)));
        // Descendant purpose: allowed.
        assert!(p.check(&sys, session, read, rec, Some(billing)));
        // No purpose stated but a policy applies: denied.
        assert!(!p.check(&sys, session, read, rec, None));
        // Unrelated purpose: denied.
        let mut p2 = p.clone();
        let marketing = p2.add_purpose("marketing", None);
        assert!(!p2.check(&sys, session, read, rec, Some(marketing)));
    }

    #[test]
    fn unconstrained_access_needs_no_purpose() {
        let (mut sys, p, session, read, _, _, _) = setup();
        let other = sys.add_object("cafeteria_menu").unwrap();
        assert!(p.check(&sys, session, read, other, None));
    }

    #[test]
    fn policy_applies_via_role_dominance() {
        // A senior role activating inherits the junior's privacy constraint.
        let (mut sys, p, _, read, rec, treatment, _) = setup();
        let nurse = sys.role_by_name("Nurse").unwrap();
        let head = sys.add_ascendant("HeadNurse", nurse).unwrap();
        let boss = sys.add_user("boss").unwrap();
        sys.assign_user(boss, head).unwrap();
        let s2 = sys.create_session(boss, &[head]).unwrap();
        assert!(!p.check(&sys, s2, read, rec, None));
        assert!(p.check(&sys, s2, read, rec, Some(treatment)));
    }

    #[test]
    fn registry_basics() {
        let mut p = PrivacyState::new();
        let a = p.add_purpose("a", None);
        let a2 = p.add_purpose("a", None);
        assert_eq!(a, a2, "idempotent");
        assert_eq!(p.purpose_by_name("a"), Some(a));
        assert_eq!(p.purpose_name(a), Some("a"));
        assert_eq!(p.purpose_count(), 1);
    }
}
