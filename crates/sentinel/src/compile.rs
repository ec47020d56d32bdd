//! Compilation of a verified rule pool into a flat execution plan.
//!
//! The interpreter in [`crate::executor`] walks `CondExpr`/`ActionSpec`
//! trees and re-resolves names, hierarchy closures and SoD sets on every
//! firing. This module lowers a pool into a [`CompiledPool`]: per-event
//! dispatch tables of pre-resolved rule indices (priority order preserved),
//! conditions flattened into a small accumulator bytecode ([`CondOp`]),
//! parameter references pre-parsed ([`CRef`]), raised events pre-resolved
//! to [`EventId`]s, and — where the [`CompileHost`] can prove the targets
//! fixed — hierarchy ancestor closures and DSD sets baked into dense
//! arrays.
//!
//! **Decision identity is the contract**: for every occurrence the
//! compiled fast path must produce the same decisions, the same
//! [`crate::ExecReport`] counters and byte-identical audit entries as the
//! interpreter. Every error message format below is copied from
//! `executor.rs` verbatim; any change there must be mirrored here (the
//! equivalence proptests and the simulator's `CompiledDivergence`
//! invariant enforce this).
//!
//! Compilation is *licensed*: callers may only lower a pool that static
//! analysis proved terminating and error-free (`policy::compile_pool`
//! checks the verdict). A pool that fails to compile simply keeps running
//! interpreted — the plan is an optimization, never a semantic gate.

use crate::executor::{ExecReport, Executor, Runtime};
use crate::lang::{ActionSpec, Check, CondExpr, ParamRef};
use crate::log::{AuditEntry, AuditKind};
use crate::pool::RulePool;
use crate::rule::{RuleClass, RuleId};
use crate::state::{ActionOutcome, AuthState};
use snoop::{Detection, Detector, DetectorError, Dur, EventId, Key, Occurrence, Params, Ts, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a pool could not be lowered. Compile failure is non-fatal: the
/// caller keeps the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A rule references an event name the detector does not know.
    UnknownEvent {
        /// The referencing rule.
        rule: String,
        /// The unresolved event name.
        event: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownEvent { rule, event } => {
                write!(f, "rule {rule}: unknown event {event:?}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Monitor-side closures the compiler may bake into the plan. Returning
/// `None` keeps the corresponding check generic (evaluated through
/// [`AuthState`] exactly like the interpreter), so a host that cannot
/// answer is always safe.
pub trait CompileHost {
    /// The role ids whose direct assignment authorizes `role`: `role`
    /// itself plus its seniors closure. `None` if the role is unknown.
    fn authorized_closure(&self, role: i64) -> Option<Vec<i64>>;
    /// The DSD sets `role` participates in, as `(member role ids,
    /// cardinality)` pairs, in the monitor's check order. `None` if the
    /// role is unknown.
    fn dsd_sets(&self, role: i64) -> Option<Vec<(Vec<i64>, usize)>>;
}

/// A [`CompileHost`] that bakes nothing; every check stays generic.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBake;

impl CompileHost for NoBake {
    fn authorized_closure(&self, _role: i64) -> Option<Vec<i64>> {
        None
    }
    fn dsd_sets(&self, _role: i64) -> Option<Vec<(Vec<i64>, usize)>> {
        None
    }
}

/// A compiled [`ParamRef`]: literals carry their value, parameters their
/// name. `Display` matches [`ParamRef`] exactly — runtime error messages
/// interpolate these and must stay byte-identical to the interpreter's.
#[derive(Debug, Clone, PartialEq)]
pub enum CRef {
    /// Literal integer (entity id).
    Lit(i64),
    /// Named parameter of the triggering occurrence.
    Param(String),
    /// Literal string.
    Str(String),
}

impl CRef {
    fn lower(p: &ParamRef) -> CRef {
        match p {
            ParamRef::Param(n) => CRef::Param(n.clone()),
            ParamRef::Int(i) => CRef::Lit(*i),
            ParamRef::Str(s) => CRef::Str(s.clone()),
        }
    }

    /// Resolve to a value (mirror of [`ParamRef::resolve`]).
    pub fn resolve(&self, occ: &Occurrence) -> Option<Value> {
        match self {
            CRef::Param(name) => occ.params.get(name).cloned(),
            CRef::Lit(i) => Some(Value::Int(*i)),
            CRef::Str(s) => Some(Value::Str(s.clone())),
        }
    }

    /// Resolve to an integer id without cloning string values (mirror of
    /// [`ParamRef::resolve_int`], which only succeeds on `Int` anyway).
    pub fn resolve_int(&self, occ: &Occurrence) -> Option<i64> {
        match self {
            CRef::Lit(i) => Some(*i),
            CRef::Param(name) => occ.params.get(name).and_then(Value::as_int),
            CRef::Str(_) => None,
        }
    }
}

impl fmt::Display for CRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CRef::Param(n) => write!(f, "{n}"),
            CRef::Lit(i) => write!(f, "{i}"),
            CRef::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// One opcode of the condition bytecode. Evaluation runs a single boolean
/// accumulator over a flat instruction array; jump targets are absolute
/// instruction indices. Lowering preserves the interpreter's evaluation
/// order, short-circuiting and error propagation exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondOp {
    /// Load a constant into the accumulator.
    Push(bool),
    /// Evaluate check `#n` into the accumulator.
    Check(u32),
    /// Negate the accumulator.
    Not,
    /// Jump when the accumulator is false (short-circuit `&&`).
    JumpIfFalse(u32),
    /// Jump when the accumulator is true (short-circuit `||`).
    JumpIfTrue(u32),
    /// Unconditional jump (skip an `If` else-arm).
    Jump(u32),
}

/// A baked DSD set: member role ids and the paper's `n` cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct DsdSetBaked {
    /// Member role ids.
    pub roles: Box<[i64]>,
    /// Violation threshold: activating a member with `n - 1` members
    /// already active is denied.
    pub n: usize,
}

/// A pre-bound [`Check`]. Generic variants mirror the interpreter's
/// one-to-one; `AuthorizedBaked`/`DsdBaked` replace monitor-side closure
/// recomputation with dense arrays when the role was a literal the
/// [`CompileHost`] could resolve at compile time.
#[derive(Debug, Clone, PartialEq)]
pub enum CCheck {
    /// `user IN userL`
    UserExists(CRef),
    /// `sessionId IN sessionL`
    SessionExists(CRef),
    /// Session ownership.
    SessionOwnedBy {
        /// The session.
        session: CRef,
        /// The claimed owner.
        user: CRef,
    },
    /// Role not already active in the session.
    RoleNotActive {
        /// The session.
        session: CRef,
        /// The role.
        role: CRef,
    },
    /// Role active in the session.
    RoleActive {
        /// The session.
        session: CRef,
        /// The role.
        role: CRef,
    },
    /// Direct UA assignment.
    Assigned {
        /// The user.
        user: CRef,
        /// The role.
        role: CRef,
    },
    /// Assignment via hierarchy, generic form.
    Authorized {
        /// The user.
        user: CRef,
        /// The role.
        role: CRef,
    },
    /// Assignment via hierarchy with the ancestor closure baked: the user
    /// is authorized iff directly assigned to any listed role.
    AuthorizedBaked {
        /// The user.
        user: CRef,
        /// The role itself plus its seniors closure.
        roles: Box<[i64]>,
    },
    /// DSD satisfaction, generic form.
    DsdSatisfied {
        /// The session.
        session: CRef,
        /// The candidate role.
        role: CRef,
    },
    /// DSD satisfaction with the role's sets baked.
    DsdBaked {
        /// The session.
        session: CRef,
        /// Sets the candidate role participates in.
        sets: Box<[DsdSetBaked]>,
    },
    /// Role enabled (temporal RBAC).
    RoleEnabled(CRef),
    /// Role active in at least one session.
    RoleActiveAnywhere(CRef),
    /// Role-cardinality bound.
    RoleCardinalityBelow {
        /// The role.
        role: CRef,
        /// The activating user.
        user: CRef,
        /// Maximum distinct active users.
        max: usize,
    },
    /// User-cardinality bound.
    UserCardinalityBelow {
        /// The user.
        user: CRef,
        /// The role being added.
        role: CRef,
        /// Maximum active roles.
        max: usize,
    },
    /// Per-user active-role cap looked up in the state.
    UserCapOk {
        /// The user.
        user: CRef,
        /// The role being added.
        role: CRef,
    },
    /// Some active role of the session holds (op, obj).
    SessionHasPermission {
        /// The session.
        session: CRef,
        /// The operation.
        op: CRef,
        /// The object.
        obj: CRef,
    },
    /// Source test with the event pre-resolved.
    SourceIs {
        /// The resolved event.
        id: EventId,
        /// The event name (plan listings only).
        name: String,
    },
    /// Occurrence parameter equals a value.
    ParamEquals {
        /// Parameter name.
        name: String,
        /// Expected value.
        value: Value,
    },
    /// Host-defined check.
    Custom {
        /// Host-registered check name.
        name: String,
        /// Arguments.
        args: Vec<CRef>,
    },
}

impl fmt::Display for CCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CCheck::UserExists(u) => write!(f, "({u} IN userL)"),
            CCheck::SessionExists(s) => write!(f, "({s} IN sessionL)"),
            CCheck::SessionOwnedBy { session, user } => {
                write!(f, "({session} IN checkUserSessions({user}))")
            }
            CCheck::RoleNotActive { session, role } => {
                write!(f, "({role} NOT IN checkSessionRoles({session}))")
            }
            CCheck::RoleActive { session, role } => {
                write!(f, "({role} IN checkSessionRoles({session}))")
            }
            CCheck::Assigned { user, role } => write!(f, "(checkAssigned({user}, {role}))"),
            CCheck::Authorized { user, role } => write!(f, "(checkAuthorization({user}, {role}))"),
            CCheck::AuthorizedBaked { user, roles } => {
                write!(f, "(checkAuthorization*({user}, roles{roles:?}))")
            }
            CCheck::DsdSatisfied { session, role } => {
                write!(f, "(checkDynamicSoDSet({session}, {role}))")
            }
            CCheck::DsdBaked { session, sets } => {
                write!(f, "(checkDynamicSoDSet*({session}")?;
                for s in sets.iter() {
                    write!(f, ", {:?}<{}", s.roles, s.n)?;
                }
                write!(f, "))")
            }
            CCheck::RoleEnabled(r) => write!(f, "(checkEnabled({r}))"),
            CCheck::RoleActiveAnywhere(r) => write!(f, "(checkActive({r}))"),
            CCheck::RoleCardinalityBelow { role, max, .. } => {
                write!(f, "(Cardinality({role}, INCR) <= {max})")
            }
            CCheck::UserCardinalityBelow { user, max, .. } => {
                write!(f, "(UserCardinality({user}, INCR) <= {max})")
            }
            CCheck::UserCapOk { user, role } => write!(f, "(UserCapOk({user}, {role}))"),
            CCheck::SessionHasPermission { session, op, obj } => write!(
                f,
                "(ForANY role IN getSessionRoles({session}): checkPermissions({op}, {obj}, role))"
            ),
            CCheck::SourceIs { id, name } => write!(f, "(source == {name} #{})", id.0),
            CCheck::ParamEquals { name, value } => write!(f, "({name} == {value})"),
            CCheck::Custom { name, args } => {
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

/// A pre-bound [`ActionSpec`]. Event-raising actions carry the resolved
/// [`EventId`] plus the original name (error messages interpolate the
/// name and must stay byte-identical to the interpreter's).
#[derive(Debug, Clone, PartialEq)]
pub enum CAction {
    /// Record an explicit allow.
    Allow,
    /// Deny with a message.
    RaiseError(String),
    /// Alert the administrators.
    Alert(String),
    /// Raise a primitive event (cascade), pre-resolved.
    RaiseEvent {
        /// The resolved event.
        id: EventId,
        /// The event name (for error messages).
        name: String,
        /// `(target param name, source)` pairs.
        params: Vec<(Key, CRef)>,
    },
    /// Cancel pending PLUS timers, pre-resolved.
    CancelPlus {
        /// The resolved PLUS event.
        id: EventId,
        /// Parameter matched between base and current occurrence.
        key_param: String,
    },
    /// Disable all rules of a class.
    DisableRuleClass(RuleClass),
    /// Enable all rules of a class.
    EnableRuleClass(RuleClass),
    /// Disable one rule by name.
    DisableRule(String),
    /// Enable one rule by name.
    EnableRule(String),
    /// Activate a role in a session.
    AddSessionRole {
        /// The user.
        user: CRef,
        /// The session.
        session: CRef,
        /// The role.
        role: CRef,
    },
    /// Deactivate a role in a session.
    DropSessionRole {
        /// The user.
        user: CRef,
        /// The session.
        session: CRef,
        /// The role.
        role: CRef,
    },
    /// Deactivate a role in every session.
    DeactivateRoleEverywhere(CRef),
    /// Enable a role.
    EnableRole(CRef),
    /// Disable a role.
    DisableRole {
        /// The role.
        role: CRef,
        /// Also deactivate it in open sessions.
        deactivate: bool,
    },
    /// Assign a user to a role.
    AssignUser {
        /// The user.
        user: CRef,
        /// The role.
        role: CRef,
    },
    /// Deassign a user from a role.
    DeassignUser {
        /// The user.
        user: CRef,
        /// The role.
        role: CRef,
    },
    /// Host-defined action.
    Custom {
        /// Host-registered action name.
        name: String,
        /// Arguments.
        args: Vec<CRef>,
    },
}

impl fmt::Display for CAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CAction::AddSessionRole { session, role, .. } => {
                write!(f, "addSessionRole({session}, {role})")
            }
            CAction::DropSessionRole { session, role, .. } => {
                write!(f, "dropSessionRole({session}, {role})")
            }
            CAction::DeactivateRoleEverywhere(r) => write!(f, "deactivateRoleEverywhere({r})"),
            CAction::EnableRole(r) => write!(f, "enableRole({r})"),
            CAction::DisableRole { role, deactivate } => {
                if *deactivate {
                    write!(f, "disableRole({role}, deactivate)")
                } else {
                    write!(f, "disableRole({role})")
                }
            }
            CAction::AssignUser { user, role } => write!(f, "assignUser({user}, {role})"),
            CAction::DeassignUser { user, role } => write!(f, "deassignUser({user}, {role})"),
            CAction::Allow => write!(f, "<allow>"),
            CAction::RaiseError(m) => write!(f, "raise error {m:?}"),
            CAction::RaiseEvent { id, name, .. } => write!(f, "raiseEvent({name} #{})", id.0),
            CAction::CancelPlus { id, key_param } => {
                write!(f, "cancelPlus(#{}, by {key_param})", id.0)
            }
            CAction::Alert(m) => write!(f, "alert({m:?})"),
            CAction::DisableRuleClass(c) => write!(f, "disableRules({c})"),
            CAction::EnableRuleClass(c) => write!(f, "enableRules({c})"),
            CAction::DisableRule(n) => write!(f, "disableRule({n})"),
            CAction::EnableRule(n) => write!(f, "enableRule({n})"),
            CAction::Custom { name, args } => {
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

/// One rule lowered into bytecode + pre-bound actions. Enablement is NOT
/// baked: the executor reads the live pool entry per firing, exactly like
/// the interpreter, so `disableRule`/class toggles keep working without
/// invalidating the plan.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The pool slot this rule was lowered from (live enablement lookup).
    pub pool_id: RuleId,
    /// Rule name, shared with the pool's rule (audit entries).
    pub name: Arc<str>,
    /// Triggering event.
    pub event: EventId,
    /// Condition bytecode.
    pub when: Box<[CondOp]>,
    /// Check table referenced by [`CondOp::Check`].
    pub checks: Box<[CCheck]>,
    /// Then actions.
    pub then: Box<[CAction]>,
    /// Else actions.
    pub otherwise: Box<[CAction]>,
}

/// The execution plan: per-event dispatch tables over a flat rule array.
#[derive(Debug, Clone, Default)]
pub struct CompiledPool {
    /// Indexed by `EventId.0`; each entry lists indices into
    /// [`CompiledPool::rules`] in the pool's priority order for that
    /// event. Events without rules have empty (or absent) entries.
    pub dispatch: Vec<Box<[u32]>>,
    /// All lowered rules, ordered by pool id.
    pub rules: Vec<CompiledRule>,
}

/// Lower a pool against a detector (event resolution) and a host (closure
/// baking). Fails only on unresolvable event names — which the static
/// analyzer reports as errors, so a *licensed* pool always compiles.
pub fn compile(
    pool: &RulePool,
    detector: &Detector,
    host: &dyn CompileHost,
) -> Result<CompiledPool, CompileError> {
    let mut live: Vec<(RuleId, &crate::rule::Rule)> = pool.iter().collect();
    live.sort_by_key(|(id, _)| *id);

    let mut rules = Vec::with_capacity(live.len());
    let mut index: HashMap<RuleId, u32> = HashMap::with_capacity(live.len());
    for (id, rule) in &live {
        let mut checks = Vec::new();
        let mut when = Vec::new();
        lower_cond(
            &rule.when,
            &rule.name,
            detector,
            host,
            &mut checks,
            &mut when,
        )?;
        let lower_actions = |specs: &[ActionSpec]| -> Result<Box<[CAction]>, CompileError> {
            specs
                .iter()
                .map(|a| lower_action(a, &rule.name, detector))
                .collect()
        };
        index.insert(
            *id,
            u32::try_from(rules.len()).expect("rule count fits u32"),
        );
        rules.push(CompiledRule {
            pool_id: *id,
            name: Arc::clone(&rule.name),
            event: rule.event,
            when: when.into_boxed_slice(),
            checks: checks.into_boxed_slice(),
            then: lower_actions(&rule.then)?,
            otherwise: lower_actions(&rule.otherwise)?,
        });
    }

    let max_event = rules.iter().map(|r| r.event.0 as usize).max();
    let mut dispatch = vec![Box::<[u32]>::default(); max_event.map_or(0, |m| m + 1)];
    for slot in dispatch.iter_mut().enumerate() {
        let (eid, slot) = slot;
        let table: Vec<u32> = pool
            .triggered_by(EventId(u32::try_from(eid).expect("event id fits u32")))
            .iter()
            .filter_map(|id| index.get(id).copied())
            .collect();
        *slot = table.into_boxed_slice();
    }
    Ok(CompiledPool { dispatch, rules })
}

fn lower_cond(
    cond: &CondExpr,
    rule: &str,
    detector: &Detector,
    host: &dyn CompileHost,
    checks: &mut Vec<CCheck>,
    code: &mut Vec<CondOp>,
) -> Result<(), CompileError> {
    match cond {
        CondExpr::True => code.push(CondOp::Push(true)),
        CondExpr::False => code.push(CondOp::Push(false)),
        CondExpr::Check(c) => {
            let idx = u32::try_from(checks.len()).expect("check count fits u32");
            checks.push(lower_check(c, rule, detector, host)?);
            code.push(CondOp::Check(idx));
        }
        CondExpr::Not(c) => {
            lower_cond(c, rule, detector, host, checks, code)?;
            code.push(CondOp::Not);
        }
        CondExpr::All(v) => {
            if v.is_empty() {
                code.push(CondOp::Push(true));
            } else {
                let mut jumps = Vec::new();
                for (i, c) in v.iter().enumerate() {
                    if i > 0 {
                        jumps.push(code.len());
                        code.push(CondOp::JumpIfFalse(0));
                    }
                    lower_cond(c, rule, detector, host, checks, code)?;
                }
                let end = u32::try_from(code.len()).expect("code fits u32");
                for j in jumps {
                    code[j] = CondOp::JumpIfFalse(end);
                }
            }
        }
        CondExpr::Any(v) => {
            if v.is_empty() {
                code.push(CondOp::Push(false));
            } else {
                let mut jumps = Vec::new();
                for (i, c) in v.iter().enumerate() {
                    if i > 0 {
                        jumps.push(code.len());
                        code.push(CondOp::JumpIfTrue(0));
                    }
                    lower_cond(c, rule, detector, host, checks, code)?;
                }
                let end = u32::try_from(code.len()).expect("code fits u32");
                for j in jumps {
                    code[j] = CondOp::JumpIfTrue(end);
                }
            }
        }
        CondExpr::If {
            guard,
            then,
            otherwise,
        } => {
            lower_cond(guard, rule, detector, host, checks, code)?;
            let jf = code.len();
            code.push(CondOp::JumpIfFalse(0));
            lower_cond(then, rule, detector, host, checks, code)?;
            let jend = code.len();
            code.push(CondOp::Jump(0));
            let else_at = u32::try_from(code.len()).expect("code fits u32");
            code[jf] = CondOp::JumpIfFalse(else_at);
            lower_cond(otherwise, rule, detector, host, checks, code)?;
            let end = u32::try_from(code.len()).expect("code fits u32");
            code[jend] = CondOp::Jump(end);
        }
    }
    Ok(())
}

fn lower_check(
    check: &Check,
    rule: &str,
    detector: &Detector,
    host: &dyn CompileHost,
) -> Result<CCheck, CompileError> {
    Ok(match check {
        Check::UserExists(u) => CCheck::UserExists(CRef::lower(u)),
        Check::SessionExists(s) => CCheck::SessionExists(CRef::lower(s)),
        Check::SessionOwnedBy { session, user } => CCheck::SessionOwnedBy {
            session: CRef::lower(session),
            user: CRef::lower(user),
        },
        Check::RoleNotActive { session, role } => CCheck::RoleNotActive {
            session: CRef::lower(session),
            role: CRef::lower(role),
        },
        Check::RoleActive { session, role } => CCheck::RoleActive {
            session: CRef::lower(session),
            role: CRef::lower(role),
        },
        Check::Assigned { user, role } => CCheck::Assigned {
            user: CRef::lower(user),
            role: CRef::lower(role),
        },
        Check::Authorized { user, role } => {
            // Bake the ancestor closure when the role is a literal the
            // host knows: `authorized(u, r)` ⇔ `u` directly assigned to
            // `r` or any senior — a membership test over a fixed array.
            match role {
                ParamRef::Int(r) => match host.authorized_closure(*r) {
                    Some(closure) => CCheck::AuthorizedBaked {
                        user: CRef::lower(user),
                        roles: closure.into_boxed_slice(),
                    },
                    None => CCheck::Authorized {
                        user: CRef::lower(user),
                        role: CRef::lower(role),
                    },
                },
                _ => CCheck::Authorized {
                    user: CRef::lower(user),
                    role: CRef::lower(role),
                },
            }
        }
        Check::DsdSatisfied { session, role } => match role {
            ParamRef::Int(r) => match host.dsd_sets(*r) {
                Some(sets) => CCheck::DsdBaked {
                    session: CRef::lower(session),
                    sets: sets
                        .into_iter()
                        .map(|(roles, n)| DsdSetBaked {
                            roles: roles.into_boxed_slice(),
                            n,
                        })
                        .collect(),
                },
                None => CCheck::DsdSatisfied {
                    session: CRef::lower(session),
                    role: CRef::lower(role),
                },
            },
            _ => CCheck::DsdSatisfied {
                session: CRef::lower(session),
                role: CRef::lower(role),
            },
        },
        Check::RoleEnabled(r) => CCheck::RoleEnabled(CRef::lower(r)),
        Check::RoleActiveAnywhere(r) => CCheck::RoleActiveAnywhere(CRef::lower(r)),
        Check::RoleCardinalityBelow { role, user, max } => CCheck::RoleCardinalityBelow {
            role: CRef::lower(role),
            user: CRef::lower(user),
            max: *max,
        },
        Check::UserCardinalityBelow { user, role, max } => CCheck::UserCardinalityBelow {
            user: CRef::lower(user),
            role: CRef::lower(role),
            max: *max,
        },
        Check::UserCapOk { user, role } => CCheck::UserCapOk {
            user: CRef::lower(user),
            role: CRef::lower(role),
        },
        Check::SessionHasPermission { session, op, obj } => CCheck::SessionHasPermission {
            session: CRef::lower(session),
            op: CRef::lower(op),
            obj: CRef::lower(obj),
        },
        Check::SourceIs(name) => {
            let id = detector
                .lookup(name)
                .ok_or_else(|| CompileError::UnknownEvent {
                    rule: rule.to_string(),
                    event: name.clone(),
                })?;
            CCheck::SourceIs {
                id,
                name: name.clone(),
            }
        }
        Check::ParamEquals { name, value } => CCheck::ParamEquals {
            name: name.clone(),
            value: value.clone(),
        },
        Check::Custom { name, args } => CCheck::Custom {
            name: name.clone(),
            args: args.iter().map(CRef::lower).collect(),
        },
    })
}

fn lower_action(
    action: &ActionSpec,
    rule: &str,
    detector: &Detector,
) -> Result<CAction, CompileError> {
    Ok(match action {
        ActionSpec::Allow => CAction::Allow,
        ActionSpec::RaiseError(m) => CAction::RaiseError(m.clone()),
        ActionSpec::Alert(m) => CAction::Alert(m.clone()),
        ActionSpec::RaiseEvent { event, params } => {
            let id = detector
                .lookup(event)
                .ok_or_else(|| CompileError::UnknownEvent {
                    rule: rule.to_string(),
                    event: event.clone(),
                })?;
            CAction::RaiseEvent {
                id,
                name: event.clone(),
                params: params
                    .iter()
                    .map(|(n, p)| (n.clone(), CRef::lower(p)))
                    .collect(),
            }
        }
        ActionSpec::CancelPlus { event, key_param } => {
            let id = detector
                .lookup(event)
                .ok_or_else(|| CompileError::UnknownEvent {
                    rule: rule.to_string(),
                    event: event.clone(),
                })?;
            CAction::CancelPlus {
                id,
                key_param: key_param.clone(),
            }
        }
        ActionSpec::DisableRuleClass(c) => CAction::DisableRuleClass(*c),
        ActionSpec::EnableRuleClass(c) => CAction::EnableRuleClass(*c),
        ActionSpec::DisableRule(n) => CAction::DisableRule(n.clone()),
        ActionSpec::EnableRule(n) => CAction::EnableRule(n.clone()),
        ActionSpec::AddSessionRole {
            user,
            session,
            role,
        } => CAction::AddSessionRole {
            user: CRef::lower(user),
            session: CRef::lower(session),
            role: CRef::lower(role),
        },
        ActionSpec::DropSessionRole {
            user,
            session,
            role,
        } => CAction::DropSessionRole {
            user: CRef::lower(user),
            session: CRef::lower(session),
            role: CRef::lower(role),
        },
        ActionSpec::DeactivateRoleEverywhere(r) => {
            CAction::DeactivateRoleEverywhere(CRef::lower(r))
        }
        ActionSpec::EnableRole(r) => CAction::EnableRole(CRef::lower(r)),
        ActionSpec::DisableRole { role, deactivate } => CAction::DisableRole {
            role: CRef::lower(role),
            deactivate: *deactivate,
        },
        ActionSpec::AssignUser { user, role } => CAction::AssignUser {
            user: CRef::lower(user),
            role: CRef::lower(role),
        },
        ActionSpec::DeassignUser { user, role } => CAction::DeassignUser {
            user: CRef::lower(user),
            role: CRef::lower(role),
        },
        ActionSpec::Custom { name, args } => CAction::Custom {
            name: name.clone(),
            args: args.iter().map(CRef::lower).collect(),
        },
    })
}

/// Evaluate condition bytecode. Mirrors `eval_cond_rec` including error
/// texts; short-circuited checks are never evaluated.
fn eval_compiled_cond(
    code: &[CondOp],
    checks: &[CCheck],
    occ: &Occurrence,
    state: &dyn AuthState,
) -> Result<bool, String> {
    let mut acc = false;
    let mut pc = 0usize;
    while let Some(op) = code.get(pc) {
        match *op {
            CondOp::Push(b) => acc = b,
            CondOp::Check(i) => acc = eval_ccheck(&checks[i as usize], occ, state)?,
            CondOp::Not => acc = !acc,
            CondOp::JumpIfFalse(t) => {
                if !acc {
                    pc = t as usize;
                    continue;
                }
            }
            CondOp::JumpIfTrue(t) => {
                if acc {
                    pc = t as usize;
                    continue;
                }
            }
            CondOp::Jump(t) => {
                pc = t as usize;
                continue;
            }
        }
        pc += 1;
    }
    Ok(acc)
}

fn eval_ccheck(check: &CCheck, occ: &Occurrence, state: &dyn AuthState) -> Result<bool, String> {
    let int = |p: &CRef| {
        p.resolve_int(occ)
            .ok_or_else(|| format!("parameter {p} missing or not an id in {occ}"))
    };
    match check {
        CCheck::UserExists(u) => Ok(state.user_exists(int(u)?)),
        CCheck::SessionExists(s) => Ok(state.session_exists(int(s)?)),
        CCheck::SessionOwnedBy { session, user } => {
            Ok(state.session_owned_by(int(session)?, int(user)?))
        }
        CCheck::RoleNotActive { session, role } => {
            Ok(!state.role_active(int(session)?, int(role)?))
        }
        CCheck::RoleActive { session, role } => Ok(state.role_active(int(session)?, int(role)?)),
        CCheck::Assigned { user, role } => Ok(state.assigned(int(user)?, int(role)?)),
        CCheck::Authorized { user, role } => Ok(state.authorized(int(user)?, int(role)?)),
        CCheck::AuthorizedBaked { user, roles } => Ok(state.authorized_any(int(user)?, roles)),
        CCheck::DsdSatisfied { session, role } => {
            Ok(state.dsd_satisfied(int(session)?, int(role)?))
        }
        CCheck::DsdBaked { session, sets } => {
            let s = int(session)?;
            // The monitor's check errors (= evaluates false through the
            // bridge) on an unknown session before consulting any set.
            if !state.session_exists(s) {
                return Ok(false);
            }
            for set in sets.iter() {
                let active = set
                    .roles
                    .iter()
                    .filter(|&&r| state.role_active(s, r))
                    .count();
                if active + 1 >= set.n {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        CCheck::RoleEnabled(r) => Ok(state.role_enabled(int(r)?)),
        CCheck::RoleActiveAnywhere(r) => Ok(state.role_active_anywhere(int(r)?)),
        CCheck::RoleCardinalityBelow { role, user, max } => {
            let r = int(role)?;
            let u = int(user)?;
            Ok(state.user_active_in_role(u, r) || state.active_users_of_role(r) < *max)
        }
        CCheck::UserCardinalityBelow { user, role, max } => {
            let u = int(user)?;
            let r = int(role)?;
            Ok(state.user_active_in_role(u, r) || state.active_roles_of_user(u) < *max)
        }
        CCheck::UserCapOk { user, role } => Ok(state.user_cap_ok(int(user)?, int(role)?)),
        CCheck::SessionHasPermission { session, op, obj } => {
            Ok(state.session_has_permission(int(session)?, int(op)?, int(obj)?))
        }
        CCheck::SourceIs { id, .. } => Ok(occ.has_source(*id)),
        CCheck::ParamEquals { name, value } => Ok(occ.params.get(name) == Some(value)),
        CCheck::Custom { name, args } => {
            let mut resolved = Vec::with_capacity(args.len());
            for a in args {
                resolved.push(int(a)?);
            }
            Ok(state.custom_check(name, &resolved, occ))
        }
    }
}

impl Executor {
    /// Raise a primitive event and run the triggered rules through the
    /// compiled plan (fast-path twin of [`Executor::dispatch`]).
    pub fn dispatch_compiled(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        event: EventId,
        params: Params,
    ) -> Result<ExecReport, DetectorError> {
        let detections = rt.detector.raise(event, params)?;
        Ok(self.process_compiled(rt, plan, detections, 0))
    }

    /// Advance the clock through the compiled plan (fast-path twin of
    /// [`Executor::advance_to`]).
    pub fn advance_to_compiled(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        ts: Ts,
    ) -> Result<ExecReport, DetectorError> {
        let mut report = ExecReport::default();
        while let Some(at) = rt.detector.next_timer_due().filter(|&at| at <= ts) {
            let detections = rt.detector.advance_to(at)?;
            report.absorb(self.process_compiled(rt, plan, detections, 0));
        }
        let detections = rt.detector.advance_to(ts)?;
        report.absorb(self.process_compiled(rt, plan, detections, 0));
        Ok(report)
    }

    /// Advance by a duration through the compiled plan.
    pub fn advance_compiled(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        d: Dur,
    ) -> Result<ExecReport, DetectorError> {
        let now = rt.detector.now();
        self.advance_to_compiled(rt, plan, now + d)
    }

    /// Run compiled rules for already-collected detections.
    pub fn process_compiled(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        detections: Vec<Detection>,
        depth: usize,
    ) -> ExecReport {
        // Effect recording keeps the interpreter's exact footprint shape;
        // the engine routes such dispatches away from the compiled path.
        debug_assert!(!self.record_effects, "compiled path records no effects");
        let mut report = ExecReport::default();
        for det in detections {
            let occ = det.occurrence;
            let Some(table) = plan.dispatch.get(occ.event.0 as usize) else {
                continue;
            };
            for &ci in table.iter() {
                let crule = &plan.rules[ci as usize];
                // Enablement is read live from the pool slot, exactly like
                // the interpreter's per-rule fetch.
                if !rt.pool.get(crule.pool_id).is_some_and(|r| r.enabled) {
                    continue;
                }
                let sub = self.run_compiled_rule(rt, plan, crule, &occ, depth);
                let denied = !sub.denials.is_empty();
                report.absorb(sub);
                if denied {
                    break;
                }
            }
        }
        report
    }

    fn run_compiled_rule(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        crule: &CompiledRule,
        occ: &Occurrence,
        depth: usize,
    ) -> ExecReport {
        let mut report = ExecReport {
            max_depth: depth,
            ..ExecReport::default()
        };
        let cond = match eval_compiled_cond(&crule.when, &crule.checks, occ, rt.state) {
            Ok(b) => b,
            Err(msg) => {
                let m = format!("condition error in {}: {msg}", crule.name);
                rt.log.push(AuditEntry {
                    time: rt.detector.now(),
                    kind: AuditKind::EngineError,
                    rule: Some(Arc::clone(&crule.name)),
                    event: Some(occ.event),
                    message: m.clone(),
                });
                report.errors.push(m);
                false
            }
        };
        let (actions, kind) = if cond {
            report.fired += 1;
            (&crule.then, AuditKind::Fired)
        } else {
            report.else_taken += 1;
            (&crule.otherwise, AuditKind::ElseTaken)
        };
        rt.log.push(AuditEntry {
            time: rt.detector.now(),
            kind,
            rule: Some(Arc::clone(&crule.name)),
            event: Some(occ.event),
            message: String::new(),
        });
        for action in actions.iter() {
            let before = report.denials.len();
            let sub = self.run_compiled_action(rt, plan, crule, action, occ, depth);
            report.absorb(sub);
            if report.denials.len() > before {
                break;
            }
        }
        report
    }

    fn run_compiled_action(
        &self,
        rt: &mut Runtime<'_>,
        plan: &CompiledPool,
        crule: &CompiledRule,
        action: &CAction,
        occ: &Occurrence,
        depth: usize,
    ) -> ExecReport {
        let mut report = ExecReport::default();
        let now = rt.detector.now();
        let log_entry = |rt: &mut Runtime<'_>, kind: AuditKind, message: String| {
            rt.log.push(AuditEntry {
                time: now,
                kind,
                rule: Some(Arc::clone(&crule.name)),
                event: Some(occ.event),
                message,
            });
        };
        // Resolve an integer argument or record an engine error
        // (byte-identical to the interpreter's `arg!`).
        macro_rules! arg {
            ($p:expr) => {
                match $p.resolve_int(occ) {
                    Some(v) => v,
                    None => {
                        let m = format!("rule {}: parameter {} missing in {}", crule.name, $p, occ);
                        log_entry(rt, AuditKind::EngineError, m.clone());
                        report.errors.push(m);
                        return report;
                    }
                }
            };
        }
        // Apply a monitor mutation (byte-identical to the interpreter's
        // `apply`).
        macro_rules! apply {
            ($f:expr) => {{
                let f: &mut dyn FnMut(&mut dyn AuthState) -> ActionOutcome = &mut $f;
                match f(rt.state) {
                    ActionOutcome::Done => report.mutations += 1,
                    ActionOutcome::Rejected(m) => {
                        report.denials.push(m.clone());
                        log_entry(rt, AuditKind::ActionRejected, m);
                    }
                }
            }};
        }

        match action {
            CAction::Allow => {
                report.allows += 1;
                log_entry(rt, AuditKind::Allowed, String::new());
            }
            CAction::RaiseError(m) => {
                report.denials.push(m.clone());
                log_entry(rt, AuditKind::Denied, m.clone());
            }
            CAction::Alert(m) => {
                report.alerts.push(m.clone());
                log_entry(rt, AuditKind::Alert, m.clone());
            }
            CAction::RaiseEvent { id, name, params } => {
                let event = name;
                if !self.assume_acyclic && depth + 1 > self.max_cascade_depth {
                    let m = format!(
                        "rule {}: cascade depth {} exceeded raising {event}",
                        crule.name, self.max_cascade_depth
                    );
                    log_entry(rt, AuditKind::EngineError, m.clone());
                    report.errors.push(m);
                    return report;
                }
                let mut p = Params::with_capacity(params.len());
                for (name, src) in params {
                    match src.resolve(occ) {
                        Some(v) => p.set(name, v),
                        None => {
                            let m = format!(
                                "rule {}: parameter {src} missing for raised event {event}",
                                crule.name
                            );
                            log_entry(rt, AuditKind::EngineError, m.clone());
                            report.errors.push(m);
                            return report;
                        }
                    }
                }
                // Raise by the pre-resolved id: the detector's name table
                // is append-only, so this is `raise_named` minus the
                // lookup.
                match rt.detector.raise(*id, p) {
                    Ok(dets) => {
                        let sub = self.process_compiled(rt, plan, dets, depth + 1);
                        report.absorb(sub);
                    }
                    Err(e) => {
                        let m = format!("rule {}: raise {event} failed: {e}", crule.name);
                        log_entry(rt, AuditKind::EngineError, m.clone());
                        report.errors.push(m);
                    }
                }
            }
            CAction::CancelPlus { id, key_param } => {
                let key = occ.params.get(key_param).cloned();
                let n = rt.detector.cancel_timers_where(*id, |base| {
                    base.is_some_and(|b| b.params.get(key_param) == key.as_ref())
                });
                report.mutations += n;
            }
            CAction::DisableRuleClass(c) => {
                let n = rt.pool.set_class_enabled(*c, false);
                report.mutations += 1;
                log_entry(rt, AuditKind::RuleToggle, format!("disabled {n} {c} rules"));
            }
            CAction::EnableRuleClass(c) => {
                let n = rt.pool.set_class_enabled(*c, true);
                report.mutations += 1;
                log_entry(rt, AuditKind::RuleToggle, format!("enabled {n} {c} rules"));
            }
            CAction::DisableRule(name) => {
                rt.pool.set_enabled(name, false);
                report.mutations += 1;
                log_entry(rt, AuditKind::RuleToggle, format!("disabled rule {name}"));
            }
            CAction::EnableRule(name) => {
                rt.pool.set_enabled(name, true);
                report.mutations += 1;
                log_entry(rt, AuditKind::RuleToggle, format!("enabled rule {name}"));
            }
            CAction::AddSessionRole {
                user,
                session,
                role,
            } => {
                let (u, s, r) = (arg!(user), arg!(session), arg!(role));
                apply!(|st: &mut dyn AuthState| st.add_session_role(u, s, r));
            }
            CAction::DropSessionRole {
                user,
                session,
                role,
            } => {
                let (u, s, r) = (arg!(user), arg!(session), arg!(role));
                apply!(|st: &mut dyn AuthState| st.drop_session_role(u, s, r));
            }
            CAction::DeactivateRoleEverywhere(role) => {
                let r = arg!(role);
                apply!(|st: &mut dyn AuthState| st.deactivate_role_everywhere(r));
            }
            CAction::EnableRole(role) => {
                let r = arg!(role);
                apply!(|st: &mut dyn AuthState| st.enable_role(r));
            }
            CAction::DisableRole { role, deactivate } => {
                let r = arg!(role);
                let d = *deactivate;
                apply!(|st: &mut dyn AuthState| st.disable_role(r, d));
            }
            CAction::AssignUser { user, role } => {
                let (u, r) = (arg!(user), arg!(role));
                apply!(|st: &mut dyn AuthState| st.assign_user(u, r));
            }
            CAction::DeassignUser { user, role } => {
                let (u, r) = (arg!(user), arg!(role));
                apply!(|st: &mut dyn AuthState| st.deassign_user(u, r));
            }
            CAction::Custom { name, args } => {
                let mut resolved = Vec::with_capacity(args.len());
                for a in args {
                    resolved.push(arg!(a));
                }
                let outcome = rt.state.custom_action(name, &resolved, occ);
                match outcome {
                    ActionOutcome::Done => report.mutations += 1,
                    ActionOutcome::Rejected(m) => {
                        report.denials.push(m.clone());
                        log_entry(rt, AuditKind::ActionRejected, m);
                    }
                }
            }
        }
        report
    }
}

impl CompiledPool {
    /// Number of events with at least one dispatch entry.
    pub fn dispatch_events(&self) -> usize {
        self.dispatch.iter().filter(|t| !t.is_empty()).count()
    }

    /// Render the plan deterministically: dispatch tables by ascending
    /// event id, then each rule's bytecode, check table and action lists.
    /// Golden-filed by the shell's `analyze --plan`.
    pub fn dump(&self, detector: &Detector) -> String {
        use std::fmt::Write as _;
        let ev_name = |id: EventId| {
            detector
                .name_of(id)
                .map_or_else(|| format!("event#{}", id.0), str::to_string)
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compiled plan: {} rules, {} dispatch events",
            self.rules.len(),
            self.dispatch_events()
        );
        let _ = writeln!(out);
        for (eid, table) in self.dispatch.iter().enumerate() {
            if table.is_empty() {
                continue;
            }
            let names: Vec<&str> = table
                .iter()
                .map(|&ci| &*self.rules[ci as usize].name)
                .collect();
            let _ = writeln!(
                out,
                "on {} (#{eid}): {}",
                ev_name(EventId(eid as u32)),
                names.join(", ")
            );
        }
        for rule in &self.rules {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "rule {} [pool #{} on {}]",
                rule.name,
                rule.pool_id.0,
                ev_name(rule.event)
            );
            for (i, op) in rule.when.iter().enumerate() {
                let line = match op {
                    CondOp::Push(b) => format!("push {b}"),
                    CondOp::Check(c) => format!("check {}", rule.checks[*c as usize]),
                    CondOp::Not => "not".to_string(),
                    CondOp::JumpIfFalse(t) => format!("jfalse -> {t}"),
                    CondOp::JumpIfTrue(t) => format!("jtrue -> {t}"),
                    CondOp::Jump(t) => format!("jump -> {t}"),
                };
                let _ = writeln!(out, "  w{i:<3} {line}");
            }
            for a in rule.then.iter() {
                let _ = writeln!(out, "  then {a}");
            }
            for a in rule.otherwise.iter() {
                let _ = writeln!(out, "  else {a}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::attach_rule;
    use crate::log::AuditLog;
    use crate::rule::Rule;
    use crate::state::PermissiveState;

    fn lower_expr(cond: &CondExpr) -> (Vec<CondOp>, Vec<CCheck>) {
        let detector = Detector::new(Ts::ZERO);
        let mut checks = Vec::new();
        let mut code = Vec::new();
        lower_cond(cond, "t", &detector, &NoBake, &mut checks, &mut code).unwrap();
        (code, checks)
    }

    fn eval(cond: &CondExpr, occ: &Occurrence, state: &dyn AuthState) -> Result<bool, String> {
        let (code, checks) = lower_expr(cond);
        eval_compiled_cond(&code, &checks, occ, state)
    }

    fn occ() -> Occurrence {
        Occurrence::primitive(
            EventId(1),
            Ts::from_secs(1),
            Params::new().with("user", 7i64),
        )
    }

    #[test]
    fn bytecode_matches_interpreter_on_boolean_shapes() {
        let state = PermissiveState::default();
        let detector = Detector::new(Ts::ZERO);
        let t = CondExpr::True;
        let f = CondExpr::False;
        let shapes = vec![
            t.clone(),
            f.clone(),
            CondExpr::Not(Box::new(t.clone())),
            CondExpr::All(vec![]),
            CondExpr::Any(vec![]),
            CondExpr::All(vec![t.clone(), f.clone(), t.clone()]),
            CondExpr::Any(vec![f.clone(), t.clone(), f.clone()]),
            CondExpr::If {
                guard: Box::new(t.clone()),
                then: Box::new(f.clone()),
                otherwise: Box::new(t.clone()),
            },
            CondExpr::If {
                guard: Box::new(f.clone()),
                then: Box::new(f.clone()),
                otherwise: Box::new(CondExpr::Not(Box::new(f.clone()))),
            },
            CondExpr::All(vec![
                CondExpr::Any(vec![f.clone(), t.clone()]),
                CondExpr::Not(Box::new(f.clone())),
            ]),
        ];
        let o = occ();
        for shape in shapes {
            let want = crate::executor::eval_cond(&shape, &o, &state, &detector).unwrap();
            let got = eval(&shape, &o, &state).unwrap();
            assert_eq!(got, want, "shape {shape}");
        }
    }

    #[test]
    fn short_circuit_skips_errors_like_interpreter() {
        let state = PermissiveState::default();
        let o = occ();
        // Missing param in the second conjunct: only reached when the
        // first is true.
        let bad = CondExpr::check(Check::UserExists(ParamRef::param("missing")));
        let all = CondExpr::All(vec![CondExpr::False, bad.clone()]);
        assert_eq!(eval(&all, &o, &state), Ok(false), "short-circuited");
        let all = CondExpr::All(vec![CondExpr::True, bad.clone()]);
        assert!(eval(&all, &o, &state).is_err(), "reached -> propagates");
        let any = CondExpr::Any(vec![CondExpr::True, bad]);
        assert_eq!(eval(&any, &o, &state), Ok(true), "short-circuited");
    }

    #[test]
    fn error_text_matches_interpreter() {
        let state = PermissiveState::default();
        let detector = Detector::new(Ts::ZERO);
        let o = occ();
        let cond = CondExpr::check(Check::Assigned {
            user: ParamRef::param("ghost"),
            role: ParamRef::Int(3),
        });
        let want = crate::executor::eval_cond(&cond, &o, &state, &detector).unwrap_err();
        let got = eval(&cond, &o, &state).unwrap_err();
        assert_eq!(got, want);
    }

    #[test]
    fn compile_resolves_dispatch_in_priority_order() {
        let mut detector = Detector::new(Ts::ZERO);
        let mut pool = RulePool::new();
        let e = detector.primitive("e");
        attach_rule(
            &mut detector,
            &mut pool,
            Rule::new("low", e, CondExpr::True),
        );
        attach_rule(
            &mut detector,
            &mut pool,
            Rule::new("high", e, CondExpr::True).priority(10),
        );
        let plan = compile(&pool, &detector, &NoBake).unwrap();
        let table = &plan.dispatch[e.0 as usize];
        let names: Vec<&str> = table
            .iter()
            .map(|&ci| &*plan.rules[ci as usize].name)
            .collect();
        assert_eq!(names, vec!["high", "low"]);
        assert!(plan.dump(&detector).contains("on e"));
    }

    #[test]
    fn unknown_raise_event_fails_compile() {
        let mut detector = Detector::new(Ts::ZERO);
        let mut pool = RulePool::new();
        let e = detector.primitive("e");
        attach_rule(
            &mut detector,
            &mut pool,
            Rule::new("ghost", e, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
                event: "nothing".into(),
                params: vec![],
            }]),
        );
        let err = compile(&pool, &detector, &NoBake).unwrap_err();
        assert_eq!(
            err,
            CompileError::UnknownEvent {
                rule: "ghost".into(),
                event: "nothing".into()
            }
        );
    }

    #[test]
    fn compiled_dispatch_matches_interpreter_report_and_audit() {
        // One denying guard + one applying rule + a cascade: the report
        // counters and the audit log must be byte-identical on both paths.
        let build = || {
            let mut detector = Detector::new(Ts::ZERO);
            let mut pool = RulePool::new();
            let e = detector.primitive("req");
            let _cascade = detector.primitive("go");
            attach_rule(
                &mut detector,
                &mut pool,
                Rule::new(
                    "guard",
                    e,
                    CondExpr::check(Check::UserExists(ParamRef::param("user"))),
                )
                .priority(10)
                .otherwise(vec![ActionSpec::RaiseError("no user".into())]),
            );
            attach_rule(
                &mut detector,
                &mut pool,
                Rule::new("apply", e, CondExpr::True).then(vec![
                    ActionSpec::RaiseEvent {
                        event: "go".into(),
                        params: vec![("user".into(), ParamRef::param("user"))],
                    },
                    ActionSpec::Allow,
                ]),
            );
            let go = detector.lookup("go").unwrap();
            attach_rule(
                &mut detector,
                &mut pool,
                Rule::new("cascaded", go, CondExpr::True).then(vec![ActionSpec::AddSessionRole {
                    user: ParamRef::param("user"),
                    session: ParamRef::Int(2),
                    role: ParamRef::Int(5),
                }]),
            );
            (detector, pool)
        };
        let exec = Executor::new();

        for params in [Params::new().with("user", 1i64), Params::new()] {
            let (mut d1, mut p1) = build();
            let mut s1 = PermissiveState::default();
            let mut l1 = AuditLog::new();
            let e = d1.lookup("req").unwrap();
            let mut rt = Runtime {
                detector: &mut d1,
                pool: &mut p1,
                state: &mut s1,
                log: &mut l1,
            };
            let interp = exec.dispatch(&mut rt, e, params.clone()).unwrap();

            let (mut d2, mut p2) = build();
            let plan = compile(&p2, &d2, &NoBake).unwrap();
            let mut s2 = PermissiveState::default();
            let mut l2 = AuditLog::new();
            let mut rt = Runtime {
                detector: &mut d2,
                pool: &mut p2,
                state: &mut s2,
                log: &mut l2,
            };
            let compiled = exec.dispatch_compiled(&mut rt, &plan, e, params).unwrap();

            assert_eq!(interp, compiled);
            assert_eq!(s1.log, s2.log, "same mutations in the same order");
            assert_eq!(l1.entries(), l2.entries(), "byte-identical audit");
        }
    }

    #[test]
    fn baked_dsd_empty_sets_reduce_to_session_existence() {
        struct Host;
        impl CompileHost for Host {
            fn authorized_closure(&self, role: i64) -> Option<Vec<i64>> {
                Some(vec![role, 99])
            }
            fn dsd_sets(&self, _role: i64) -> Option<Vec<(Vec<i64>, usize)>> {
                Some(vec![])
            }
        }
        let detector = Detector::new(Ts::ZERO);
        let cond = CondExpr::All(vec![
            CondExpr::check(Check::Authorized {
                user: ParamRef::param("user"),
                role: ParamRef::Int(3),
            }),
            CondExpr::check(Check::DsdSatisfied {
                session: ParamRef::param("session"),
                role: ParamRef::Int(3),
            }),
        ]);
        let mut checks = Vec::new();
        let mut code = Vec::new();
        lower_cond(&cond, "t", &detector, &Host, &mut checks, &mut code).unwrap();
        assert!(matches!(checks[0], CCheck::AuthorizedBaked { .. }));
        assert!(matches!(checks[1], CCheck::DsdBaked { .. }));
        let state = PermissiveState::default();
        let o = Occurrence::primitive(
            EventId(1),
            Ts::from_secs(1),
            Params::new().with("user", 7i64).with("session", 2i64),
        );
        // PermissiveState: session exists, authorized_any -> assigned -> true.
        assert_eq!(eval_compiled_cond(&code, &checks, &o, &state), Ok(true));
    }
}
