//! The rule language: the **W** (condition) and **T/E** (action) parts of
//! OWTE rules as *data*, not code.
//!
//! The paper's rules are generated from high-level policy, inspected by
//! administrators, and regenerated on policy change — which requires the
//! condition/action parts to be first-class values that can be printed in
//! the paper's OWTE syntax, compared, serialized, and re-synthesized. This
//! module defines that small interpreted language; evaluation happens in
//! [`crate::executor`] against a [`crate::state::AuthState`].

use crate::bindings::Bindings;
use serde::{Deserialize, Serialize};
use snoop::{Key, Value};
use std::borrow::Cow;
use std::fmt;

/// A reference to a value: either a parameter of the triggering occurrence
/// (e.g. `sessionId`) or a literal baked into the generated rule (localized
/// and specialized rules fix their role/user at generation time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamRef {
    /// Named parameter of the triggering occurrence.
    Param(String),
    /// Literal integer (entity ids are integers).
    Int(i64),
    /// Literal string.
    Str(String),
}

impl ParamRef {
    /// Shorthand for a parameter reference.
    pub fn param(name: impl Into<String>) -> ParamRef {
        ParamRef::Param(name.into())
    }

    /// Resolve against the triggering event. `None` when a named
    /// parameter is absent (the executor treats that as a failed
    /// condition / action).
    pub fn resolve<B: Bindings>(&self, occ: &B) -> Option<Value> {
        match self {
            ParamRef::Param(name) => occ.value(name).map(Cow::into_owned),
            ParamRef::Int(i) => Some(Value::Int(*i)),
            ParamRef::Str(s) => Some(Value::Str(s.clone())),
        }
    }

    /// Would [`ParamRef::resolve`] find a value? Builds nothing.
    pub fn resolves<B: Bindings>(&self, occ: &B) -> bool {
        match self {
            ParamRef::Param(name) => occ.value(name).is_some(),
            ParamRef::Int(_) | ParamRef::Str(_) => true,
        }
    }

    /// Resolve to an integer (entity ids).
    pub fn resolve_int<B: Bindings>(&self, occ: &B) -> Option<i64> {
        match self {
            ParamRef::Param(name) => occ.int(name),
            ParamRef::Int(i) => Some(*i),
            ParamRef::Str(_) => None,
        }
    }
}

impl fmt::Display for ParamRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamRef::Param(n) => write!(f, "{n}"),
            ParamRef::Int(i) => write!(f, "{i}"),
            ParamRef::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// An atomic predicate over the authorization state, evaluated with the
/// triggering occurrence's parameters. Each variant corresponds to one of
/// the check functions the paper's rules call (`checkAssignedR1`,
/// `checkAuthorizationR1`, `checkDynamicSoDSet`, `CardinalityR1`, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// `user IN userL`
    UserExists(ParamRef),
    /// `sessionId IN sessionL`
    SessionExists(ParamRef),
    /// `sessionId IN checkUserSessions(user)`
    SessionOwnedBy {
        /// The session to test.
        session: ParamRef,
        /// The claimed owner.
        user: ParamRef,
    },
    /// `R1 NOT IN checkSessionRoles(user)` — role not already active.
    RoleNotActive {
        /// The session.
        session: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// Role currently active in the given session.
    RoleActive {
        /// The session.
        session: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// `checkAssignedR1(user)` — direct UA assignment (core RBAC).
    Assigned {
        /// The user.
        user: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// `checkAuthorizationR1(user)` — assignment via role hierarchies.
    Authorized {
        /// The user.
        user: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// `checkDynamicSoDSet(user, R1)` — activation keeps all DSD sets
    /// satisfied.
    DsdSatisfied {
        /// The session whose active set grows.
        session: ParamRef,
        /// The candidate role.
        role: ParamRef,
    },
    /// Role is currently enabled (temporal RBAC).
    RoleEnabled(ParamRef),
    /// Role has at least one active session anywhere (`checkActiveDoctor`).
    RoleActiveAnywhere(ParamRef),
    /// `CardinalityR1(INCR)` — adding one more *user* to the role stays
    /// under `max` (paper Rule 4).
    RoleCardinalityBelow {
        /// The role.
        role: ParamRef,
        /// The user attempting activation (already-active users don't
        /// consume a new slot).
        user: ParamRef,
        /// Maximum distinct active users.
        max: usize,
    },
    /// The user having one more active role stays under `max`
    /// (paper scenario 1: "Jane ≤ 5 active roles").
    UserCardinalityBelow {
        /// The user.
        user: ParamRef,
        /// The role being added (idempotent re-activation is free).
        role: ParamRef,
        /// Maximum active roles.
        max: usize,
    },
    /// The user's configured active-role cap (if any) permits one more
    /// role. Unlike [`Check::UserCardinalityBelow`] the bound is looked up
    /// in the state at evaluation time, so one check covers every
    /// specialized per-user cap.
    UserCapOk {
        /// The user.
        user: ParamRef,
        /// The role being added.
        role: ParamRef,
    },
    /// `For ANY role IN getSessionRoles(sessionId): checkPermissions(...)`
    /// — some active role of the session holds (op, obj).
    SessionHasPermission {
        /// The session.
        session: ParamRef,
        /// The operation.
        op: ParamRef,
        /// The object.
        obj: ParamRef,
    },
    /// Did the named primitive event contribute to the triggering
    /// occurrence? Distinguishes OR branches (Rule 6's
    /// `if roleDisableNurse == TRUE`).
    SourceIs(String),
    /// Occurrence parameter equals a value.
    ParamEquals {
        /// Parameter name.
        name: String,
        /// Expected value.
        value: Value,
    },
    /// Escape hatch: a named check resolved by the host state
    /// (context-aware constraints, privacy purposes, …).
    Custom {
        /// Host-registered check name.
        name: String,
        /// Arguments.
        args: Vec<ParamRef>,
    },
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Check::UserExists(u) => write!(f, "({u} IN userL)"),
            Check::SessionExists(s) => write!(f, "({s} IN sessionL)"),
            Check::SessionOwnedBy { session, user } => {
                write!(f, "({session} IN checkUserSessions({user}))")
            }
            Check::RoleNotActive { session, role } => {
                write!(f, "({role} NOT IN checkSessionRoles({session}))")
            }
            Check::RoleActive { session, role } => {
                write!(f, "({role} IN checkSessionRoles({session}))")
            }
            Check::Assigned { user, role } => write!(f, "(checkAssigned({user}, {role}))"),
            Check::Authorized { user, role } => write!(f, "(checkAuthorization({user}, {role}))"),
            Check::DsdSatisfied { session, role } => {
                write!(f, "(checkDynamicSoDSet({session}, {role}))")
            }
            Check::RoleEnabled(r) => write!(f, "(checkEnabled({r}))"),
            Check::RoleActiveAnywhere(r) => write!(f, "(checkActive({r}))"),
            Check::RoleCardinalityBelow { role, max, .. } => {
                write!(f, "(Cardinality({role}, INCR) <= {max})")
            }
            Check::UserCardinalityBelow { user, max, .. } => {
                write!(f, "(UserCardinality({user}, INCR) <= {max})")
            }
            Check::UserCapOk { user, role } => {
                write!(f, "(UserCapOk({user}, {role}))")
            }
            Check::SessionHasPermission { session, op, obj } => write!(
                f,
                "(ForANY role IN getSessionRoles({session}): checkPermissions({op}, {obj}, role))"
            ),
            Check::SourceIs(name) => write!(f, "(source == {name})"),
            Check::ParamEquals { name, value } => write!(f, "({name} == {value})"),
            Check::Custom { name, args } => {
                write!(f, "({name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "))")
            }
        }
    }
}

/// The **W** part: a boolean combination of checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CondExpr {
    /// Always true (paper Rule 2's `WHEN TRUE`).
    True,
    /// Always false.
    False,
    /// One atomic check.
    Check(Check),
    /// Conjunction (`&&`).
    All(Vec<CondExpr>),
    /// Disjunction (`||`).
    Any(Vec<CondExpr>),
    /// Negation.
    Not(Box<CondExpr>),
    /// Guarded branch: `if guard { then } else { otherwise }` — the shape of
    /// Rule 6's per-source conditions.
    If {
        /// The branch guard.
        guard: Box<CondExpr>,
        /// Evaluated when the guard holds.
        then: Box<CondExpr>,
        /// Evaluated when it does not.
        otherwise: Box<CondExpr>,
    },
}

impl CondExpr {
    /// Conjunction builder that flattens trivial cases.
    pub fn all(mut conds: Vec<CondExpr>) -> CondExpr {
        conds.retain(|c| *c != CondExpr::True);
        match conds.len() {
            0 => CondExpr::True,
            1 => conds.pop().expect("len checked"),
            _ => CondExpr::All(conds),
        }
    }

    /// Shorthand for a single check.
    pub fn check(c: Check) -> CondExpr {
        CondExpr::Check(c)
    }

    /// Count atomic checks (used for rule-pool statistics).
    pub fn check_count(&self) -> usize {
        match self {
            CondExpr::True | CondExpr::False => 0,
            CondExpr::Check(_) => 1,
            CondExpr::All(v) | CondExpr::Any(v) => v.iter().map(CondExpr::check_count).sum(),
            CondExpr::Not(c) => c.check_count(),
            CondExpr::If {
                guard,
                then,
                otherwise,
            } => guard.check_count() + then.check_count() + otherwise.check_count(),
        }
    }
}

impl fmt::Display for CondExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CondExpr::True => write!(f, "TRUE"),
            CondExpr::False => write!(f, "FALSE"),
            CondExpr::Check(c) => write!(f, "{c}"),
            CondExpr::All(v) => {
                for (i, c) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            CondExpr::Any(v) => {
                for (i, c) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            CondExpr::Not(c) => write!(f, "!{c}"),
            CondExpr::If {
                guard,
                then,
                otherwise,
            } => write!(f, "(if {guard} then {then} else {otherwise})"),
        }
    }
}

/// The **T**/**E** parts: actions and alternative actions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ActionSpec {
    /// `addSessionRole(sessionId)` — activate the role in the session.
    AddSessionRole {
        /// The user.
        user: ParamRef,
        /// The session.
        session: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// Deactivate the role in the session.
    DropSessionRole {
        /// The user.
        user: ParamRef,
        /// The session.
        session: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// Deactivate the role in *every* session (forced deactivation).
    DeactivateRoleEverywhere(ParamRef),
    /// Enable a role (temporal/post-condition rules).
    EnableRole(ParamRef),
    /// Disable a role; optionally force deactivation.
    DisableRole {
        /// The role.
        role: ParamRef,
        /// Also deactivate it in open sessions.
        deactivate: bool,
    },
    /// Assign the user to the role (administrative rules).
    AssignUser {
        /// The user.
        user: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// Deassign the user from the role.
    DeassignUser {
        /// The user.
        user: ParamRef,
        /// The role.
        role: ParamRef,
    },
    /// Record an explicit allow (CheckAccess rules' `<allow Access>`).
    Allow,
    /// `raise error "..."` — deny and record.
    RaiseError(String),
    /// Raise a primitive event (cascading rules; `startEventET7(sessionId)`),
    /// copying the listed occurrence parameters plus fixed extras.
    RaiseEvent {
        /// Primitive event name.
        event: String,
        /// `(target param name, source)` pairs to pass along. The names
        /// are [`Key`]s: every raise hands them to the new occurrence by
        /// reference count.
        params: Vec<(Key, ParamRef)>,
    },
    /// Cancel pending PLUS timers of a named event whose base occurrence
    /// matches `key_param == key value from this occurrence` (retract a
    /// scheduled Δ-deactivation).
    CancelPlus {
        /// The PLUS event name.
        event: String,
        /// Parameter to match between the base occurrence and this one.
        key_param: String,
    },
    /// Active security: alert the administrators.
    Alert(String),
    /// Active security: disable all rules of a class (e.g. critical rules
    /// during an internal security alert).
    DisableRuleClass(crate::rule::RuleClass),
    /// Re-enable all rules of a class.
    EnableRuleClass(crate::rule::RuleClass),
    /// Disable one rule by name.
    DisableRule(String),
    /// Enable one rule by name.
    EnableRule(String),
    /// Escape hatch: host-defined action.
    Custom {
        /// Host-registered action name.
        name: String,
        /// Arguments.
        args: Vec<ParamRef>,
    },
}

impl fmt::Display for ActionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ActionSpec::*;
        match self {
            AddSessionRole { session, role, .. } => {
                write!(f, "addSessionRole({session}, {role})")
            }
            DropSessionRole { session, role, .. } => {
                write!(f, "dropSessionRole({session}, {role})")
            }
            DeactivateRoleEverywhere(r) => write!(f, "deactivateRoleEverywhere({r})"),
            EnableRole(r) => write!(f, "enableRole({r})"),
            DisableRole { role, deactivate } => {
                if *deactivate {
                    write!(f, "disableRole({role}, deactivate)")
                } else {
                    write!(f, "disableRole({role})")
                }
            }
            AssignUser { user, role } => write!(f, "assignUser({user}, {role})"),
            DeassignUser { user, role } => write!(f, "deassignUser({user}, {role})"),
            Allow => write!(f, "<allow>"),
            RaiseError(m) => write!(f, "raise error {m:?}"),
            RaiseEvent { event, .. } => write!(f, "raiseEvent({event})"),
            CancelPlus { event, key_param } => write!(f, "cancelPlus({event}, by {key_param})"),
            Alert(m) => write!(f, "alert({m:?})"),
            DisableRuleClass(c) => write!(f, "disableRules({c})"),
            EnableRuleClass(c) => write!(f, "enableRules({c})"),
            DisableRule(n) => write!(f, "disableRule({n})"),
            EnableRule(n) => write!(f, "enableRule({n})"),
            Custom { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop::{EventId, Occurrence, Params, Ts};

    fn occ() -> Occurrence {
        Occurrence::primitive(
            EventId(1),
            Ts::from_secs(1),
            Params::new().with("user", 7i64).with("name", "bob"),
        )
    }

    #[test]
    fn param_ref_resolution() {
        let o = occ();
        assert_eq!(ParamRef::param("user").resolve_int(&o), Some(7));
        assert_eq!(ParamRef::Int(3).resolve_int(&o), Some(3));
        assert_eq!(ParamRef::param("missing").resolve(&o), None);
        assert!(!ParamRef::param("missing").resolves(&o));
        assert!(ParamRef::param("name").resolves(&o));
        assert_eq!(
            ParamRef::Str("x".into()).resolve(&o),
            Some(Value::Str("x".into()))
        );
        // Type mismatch: string param is not an int.
        assert_eq!(ParamRef::param("name").resolve_int(&o), None);
    }

    #[test]
    fn cond_all_flattens() {
        assert_eq!(CondExpr::all(vec![]), CondExpr::True);
        assert_eq!(CondExpr::all(vec![CondExpr::True]), CondExpr::True);
        let c = CondExpr::check(Check::UserExists(ParamRef::param("user")));
        assert_eq!(CondExpr::all(vec![CondExpr::True, c.clone()]), c.clone());
        let both = CondExpr::all(vec![c.clone(), c.clone()]);
        assert!(matches!(both, CondExpr::All(ref v) if v.len() == 2));
        assert_eq!(both.check_count(), 2);
    }

    #[test]
    fn display_matches_paper_style() {
        let c = CondExpr::All(vec![
            CondExpr::check(Check::UserExists(ParamRef::param("user"))),
            CondExpr::check(Check::SessionExists(ParamRef::param("sessionId"))),
            CondExpr::check(Check::Assigned {
                user: ParamRef::param("user"),
                role: ParamRef::Int(1),
            }),
        ]);
        assert_eq!(
            c.to_string(),
            "(user IN userL) && (sessionId IN sessionL) && (checkAssigned(user, 1))"
        );
        let a = ActionSpec::RaiseError("Access Denied Cannot Activate".into());
        assert_eq!(
            a.to_string(),
            "raise error \"Access Denied Cannot Activate\""
        );
    }
}
