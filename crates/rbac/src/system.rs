//! The RBAC reference monitor state: element sets and relations of the
//! ANSI INCITS 359-2004 standard.
//!
//! [`System`] holds USERS, ROLES, OPS, OBS, PRMS, SESSIONS, the UA and PA
//! relations, the role hierarchy (RH), and the SSD/DSD constraint sets. The
//! functional specification is split across sibling modules:
//!
//! * entity management and Core RBAC — [`crate::core`]
//! * Hierarchical RBAC — [`crate::hierarchy`]
//! * Static SoD — [`crate::ssd`]
//! * Dynamic SoD — [`crate::dsd`]
//! * review functions — [`crate::review`]
//!
//! The monitor is deliberately *passive*: it validates and records. The
//! paper's point is that active (OWTE) rules sit on top, turning every
//! mutation into an event and every constraint into rule conditions; the
//! same state machine also backs the non-active baseline engine.

use crate::error::{RbacError, Result};
use crate::ids::{DsdId, ObjId, OpId, PermId, RoleId, SessionId, SsdId, UserId};
use crate::sessions::{SessionTable, Sessions};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Shape restriction on the role hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum HierarchyKind {
    /// Arbitrary partial order (DAG).
    #[default]
    General,
    /// Each role has at most one immediate senior (inverted forest).
    Limited,
}

/// A user record: UA assignments and open sessions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct UserRec {
    pub name: String,
    /// Immediate UA assignments.
    pub roles: BTreeSet<RoleId>,
    pub sessions: BTreeSet<SessionId>,
    /// Paper Rule 4 variant: max roles this user may have active at once.
    pub max_active_roles: Option<usize>,
}

/// A role record: assigned users, granted permissions, hierarchy edges.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RoleRec {
    pub name: String,
    /// Users directly assigned (UA).
    pub users: BTreeSet<UserId>,
    /// Permissions directly granted (PA).
    pub perms: BTreeSet<PermId>,
    /// Immediate seniors (roles that inherit this role's permissions).
    pub seniors: BTreeSet<RoleId>,
    /// Immediate juniors.
    pub juniors: BTreeSet<RoleId>,
    /// Derived (see [`crate::hierarchy`]): every role below this one.
    #[serde(skip)]
    pub junior_closure: BTreeSet<RoleId>,
    /// Temporal state: a disabled role cannot be activated (GTRBAC).
    pub enabled: bool,
    /// Paper Rule 4: max distinct users active in this role at once.
    pub activation_cap: Option<usize>,
}

/// A session: one user, a set of activated roles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SessionRec {
    pub user: UserId,
    pub active: BTreeSet<RoleId>,
}

/// An (operation, object) pair — a member of PRMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permission {
    /// The approved operation.
    pub op: OpId,
    /// The object it applies to.
    pub obj: ObjId,
}

/// A named SSD or DSD role set with cardinality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SodSet {
    pub name: String,
    pub roles: BTreeSet<RoleId>,
    /// A user may be assigned to (SSD) / have active (DSD) at most `n - 1`
    /// roles from `roles`.
    pub n: usize,
}

/// The RBAC reference monitor.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct System {
    pub(crate) users: Vec<Option<UserRec>>,
    #[serde(with = "serde_roles")]
    pub(crate) roles: Vec<Option<RoleRec>>,
    pub(crate) sessions: Sessions,
    pub(crate) ops: Vec<String>,
    pub(crate) objs: Vec<String>,
    pub(crate) perms: Vec<Permission>,
    /// Tuple-keyed, which JSON map keys cannot express; stored as a
    /// sorted pair list on the wire.
    #[serde(with = "serde_perm_index")]
    pub(crate) perm_index: HashMap<(OpId, ObjId), PermId>,
    pub(crate) ssd: Vec<Option<SodSet>>,
    pub(crate) dsd: Vec<Option<SodSet>>,

    pub(crate) user_names: HashMap<String, UserId>,
    pub(crate) role_names: HashMap<String, RoleId>,
    pub(crate) op_names: HashMap<String, OpId>,
    pub(crate) obj_names: HashMap<String, ObjId>,
    pub(crate) ssd_names: HashMap<String, SsdId>,
    pub(crate) dsd_names: HashMap<String, DsdId>,

    /// Hierarchy shape restriction.
    pub(crate) hierarchy_kind: HierarchyKind,
    /// When true, `add_active_role` itself enforces activation-cardinality
    /// caps (used by the direct baseline; the OWTE engine enforces caps in
    /// generated rules instead and leaves this off).
    pub(crate) enforce_caps: bool,
}

impl System {
    /// An empty monitor with a general role hierarchy.
    pub fn new() -> System {
        System::default()
    }

    /// An empty monitor with the given hierarchy restriction.
    pub fn with_hierarchy(kind: HierarchyKind) -> System {
        System {
            hierarchy_kind: kind,
            ..System::default()
        }
    }

    /// Enable/disable built-in activation-cardinality enforcement.
    pub fn set_enforce_caps(&mut self, on: bool) {
        self.enforce_caps = on;
    }

    /// Is built-in cap enforcement on?
    pub fn enforces_caps(&self) -> bool {
        self.enforce_caps
    }

    /// The hierarchy restriction in force.
    pub fn hierarchy_kind(&self) -> HierarchyKind {
        self.hierarchy_kind
    }

    // ---- internal accessors -------------------------------------------------

    pub(crate) fn user(&self, u: UserId) -> Result<&UserRec> {
        self.users
            .get(u.index())
            .and_then(Option::as_ref)
            .ok_or(RbacError::NoSuchUser(u))
    }

    pub(crate) fn user_mut(&mut self, u: UserId) -> Result<&mut UserRec> {
        self.users
            .get_mut(u.index())
            .and_then(Option::as_mut)
            .ok_or(RbacError::NoSuchUser(u))
    }

    pub(crate) fn role(&self, r: RoleId) -> Result<&RoleRec> {
        self.roles
            .get(r.index())
            .and_then(Option::as_ref)
            .ok_or(RbacError::NoSuchRole(r))
    }

    pub(crate) fn role_mut(&mut self, r: RoleId) -> Result<&mut RoleRec> {
        self.roles
            .get_mut(r.index())
            .and_then(Option::as_mut)
            .ok_or(RbacError::NoSuchRole(r))
    }

    pub(crate) fn session(&self, s: SessionId) -> Result<&SessionRec> {
        self.sessions.get(s).ok_or(RbacError::NoSuchSession(s))
    }

    // ---- entity counts (for stats / workload assertions) --------------------

    /// Number of live users.
    pub fn user_count(&self) -> usize {
        self.users.iter().flatten().count()
    }

    /// Number of live roles.
    pub fn role_count(&self) -> usize {
        self.roles.iter().flatten().count()
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.table().count()
    }

    /// The session table. Cloning it is O(1) and the clone is immutable
    /// from then on (see [`SessionTable`]): the read-path snapshot's view
    /// of SESSIONS.
    pub fn sessions(&self) -> &SessionTable {
        self.sessions.table()
    }

    /// Number of distinct permissions ever defined.
    pub fn perm_count(&self) -> usize {
        self.perms.len()
    }

    // ---- name lookups --------------------------------------------------------

    /// Resolve a user by name.
    pub fn user_by_name(&self, name: &str) -> Result<UserId> {
        self.user_names
            .get(name)
            .copied()
            .ok_or_else(|| RbacError::UnknownName(name.to_string()))
    }

    /// Resolve a role by name.
    pub fn role_by_name(&self, name: &str) -> Result<RoleId> {
        self.role_names
            .get(name)
            .copied()
            .ok_or_else(|| RbacError::UnknownName(name.to_string()))
    }

    /// Resolve an operation by name.
    pub fn op_by_name(&self, name: &str) -> Result<OpId> {
        self.op_names
            .get(name)
            .copied()
            .ok_or_else(|| RbacError::UnknownName(name.to_string()))
    }

    /// Resolve an object by name.
    pub fn obj_by_name(&self, name: &str) -> Result<ObjId> {
        self.obj_names
            .get(name)
            .copied()
            .ok_or_else(|| RbacError::UnknownName(name.to_string()))
    }

    /// A user's name.
    pub fn user_name(&self, u: UserId) -> Result<&str> {
        Ok(&self.user(u)?.name)
    }

    /// A role's name.
    pub fn role_name(&self, r: RoleId) -> Result<&str> {
        Ok(&self.role(r)?.name)
    }

    /// An operation's name.
    pub fn op_name(&self, o: OpId) -> Result<&str> {
        self.ops
            .get(o.index())
            .map(String::as_str)
            .ok_or(RbacError::NoSuchOp(o))
    }

    /// An object's name.
    pub fn obj_name(&self, o: ObjId) -> Result<&str> {
        self.objs
            .get(o.index())
            .map(String::as_str)
            .ok_or(RbacError::NoSuchObject(o))
    }

    /// The (op, obj) pair behind a permission id.
    pub fn perm(&self, p: PermId) -> Option<Permission> {
        self.perms.get(p.index()).copied()
    }

    /// Look up (or lazily create) the permission id for (op, obj).
    pub fn perm_id(&mut self, op: OpId, obj: ObjId) -> Result<PermId> {
        self.op_name(op)?;
        self.obj_name(obj)?;
        if let Some(&p) = self.perm_index.get(&(op, obj)) {
            return Ok(p);
        }
        let p = PermId(u32::try_from(self.perms.len()).expect("perm count fits u32"));
        self.perms.push(Permission { op, obj });
        self.perm_index.insert((op, obj), p);
        Ok(p)
    }

    /// Look up a permission id without creating it.
    pub fn find_perm(&self, op: OpId, obj: ObjId) -> Option<PermId> {
        self.perm_index.get(&(op, obj)).copied()
    }

    /// Every interned permission as `((op, obj), perm)` pairs, in no
    /// particular order. Lets callers (e.g. a published read-path
    /// snapshot) rebuild the `(op, obj) → permission` index without a
    /// per-request `find_perm` round trip into the locked system.
    pub fn permission_pairs(&self) -> impl Iterator<Item = ((OpId, ObjId), PermId)> + '_ {
        self.perm_index.iter().map(|(&k, &v)| (k, v))
    }

    // ---- iteration -----------------------------------------------------------

    /// All live user ids.
    pub fn all_users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users
            .iter()
            .enumerate()
            .filter(|(_, u)| u.is_some())
            .map(|(i, _)| UserId(i as u32))
    }

    /// All live role ids.
    pub fn all_roles(&self) -> impl Iterator<Item = RoleId> + '_ {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(i, _)| RoleId(i as u32))
    }

    /// All open session ids.
    pub fn all_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.sessions
            .table()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| SessionId(i as u32))
    }

    /// All SSD set ids.
    pub fn all_ssd_sets(&self) -> impl Iterator<Item = SsdId> + '_ {
        self.ssd
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| SsdId(i as u32))
    }

    /// All DSD set ids.
    pub fn all_dsd_sets(&self) -> impl Iterator<Item = DsdId> + '_ {
        self.dsd
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| DsdId(i as u32))
    }
}

/// ROLES is written field for field; the junior closures, which are not
/// stored, are recomputed on the way back in.
mod serde_roles {
    use super::RoleRec;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(roles: &[Option<RoleRec>], s: S) -> Result<S::Ok, S::Error> {
        roles.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<Option<RoleRec>>, D::Error> {
        let mut roles = Vec::<Option<RoleRec>>::deserialize(d)?;
        crate::hierarchy::rebuild_junior_closures(&mut roles);
        Ok(roles)
    }
}

/// `perm_index` has tuple keys; serialize as a pair list sorted by key so
/// the wire form is deterministic.
mod serde_perm_index {
    use crate::ids::{ObjId, OpId, PermId};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    #[allow(clippy::type_complexity)]
    pub fn serialize<S: Serializer>(
        map: &HashMap<(OpId, ObjId), PermId>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let mut pairs: Vec<(&(OpId, ObjId), &PermId)> = map.iter().collect();
        pairs.sort_by_key(|(k, _)| **k);
        pairs.serialize(s)
    }

    #[allow(clippy::type_complexity)]
    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<HashMap<(OpId, ObjId), PermId>, D::Error> {
        Ok(Vec::<((OpId, ObjId), PermId)>::deserialize(d)?
            .into_iter()
            .collect())
    }
}
