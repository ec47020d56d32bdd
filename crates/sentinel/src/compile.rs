//! Compilation of a verified rule pool into a flat execution plan.
//!
//! The interpreter in [`crate::executor`] walks `CondExpr` trees and
//! re-resolves names, hierarchy closures and SoD sets on every firing.
//! This module lowers a pool into a [`CompiledPool`]: per-event dispatch
//! tables of pre-resolved rule indices (priority order preserved),
//! conditions flattened into a small accumulator bytecode ([`CondOp`]),
//! raised and cancelled events pre-resolved to [`EventId`]s, and — where
//! the [`CompileHost`] can prove the targets fixed — hierarchy ancestor
//! closures and DSD sets baked into dense arrays.
//!
//! The plan has no rule language of its own. A compiled rule's actions
//! are the pool's [`ActionSpec`]s, and a check that pre-binds nothing is
//! the pool's [`Check`] ([`CCheck::Plain`]). One cascade driver
//! ([`crate::executor::Executor`]) runs either form: this module only
//! says how a plan yields an occurrence's rules and how a lowered
//! condition is evaluated.
//!
//! **Decision identity is the contract**: for every occurrence the plan
//! must produce the same decisions, the same [`crate::ExecReport`]
//! counters and byte-identical audit entries as the interpreter, which is
//! the oracle the equivalence properties and the simulator's
//! `CompiledDivergence` invariant compare it against.
//!
//! Compilation is *licensed*: callers may only lower a pool that static
//! analysis proved terminating and error-free (`policy::compile_pool`
//! checks the verdict). A pool that fails to compile simply keeps running
//! interpreted — the plan is an optimization, never a semantic gate.

use crate::bindings::Bindings;
use crate::executor::{eval_check, id_arg, RuleSource, Triggered};
use crate::lang::{ActionSpec, Check, CondExpr, ParamRef};
use crate::pool::RulePool;
use crate::rule::{Rule, RuleId};
use crate::state::AuthState;
use snoop::{Detector, EventId};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Weak};

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

/// A check as the plan evaluates it: the pool's own, or one of the three
/// forms that pre-bind something the interpreter looks up per firing.
#[derive(Debug, Clone, PartialEq)]
pub enum CCheck {
    /// Nothing to pre-bind: evaluated exactly as the interpreter does.
    Plain(Check),
    /// [`Check::SourceIs`] with the event pre-resolved.
    SourceIs {
        /// The resolved event.
        id: EventId,
        /// The event name (plan listings only).
        name: String,
    },
    /// [`Check::Authorized`] with the ancestor closure baked: the user is
    /// authorized iff directly assigned to any listed role.
    AuthorizedBaked {
        /// The user.
        user: ParamRef,
        /// The role itself plus its seniors closure.
        roles: Box<[i64]>,
    },
    /// [`Check::DsdSatisfied`] with the role's sets baked.
    DsdBaked {
        /// The session.
        session: ParamRef,
        /// Sets the candidate role participates in.
        sets: Box<[DsdSetBaked]>,
    },
}

impl fmt::Display for CCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CCheck::Plain(c) => write!(f, "{c}"),
            CCheck::SourceIs { id, name } => write!(f, "(source == {name} #{})", id.0),
            CCheck::AuthorizedBaked { user, roles } => {
                write!(f, "(checkAuthorization*({user}, roles{roles:?}))")
            }
            CCheck::DsdBaked { session, sets } => {
                write!(f, "(checkDynamicSoDSet*({session}")?;
                for s in sets.iter() {
                    write!(f, ", {:?}<{}", s.roles, s.n)?;
                }
                write!(f, "))")
            }
        }
    }
}

/// An action list of a compiled rule: the pool's actions, each with the
/// event it raises or cancels (if it does) resolved against the detector.
pub type BoundActions = Box<[(ActionSpec, Option<EventId>)]>;

/// One rule lowered into bytecode + bound actions. Enablement is NOT
/// baked: the executor reads the live pool entry per firing, exactly like
/// the interpreter, so `disableRule`/class toggles keep working without
/// invalidating the plan.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The pool slot this rule was lowered from (live enablement lookup).
    pub pool_id: RuleId,
    /// The pool's rule this was lowered from, by identity: [`compile`]
    /// carries the lowering over for as long as the slot holds this very
    /// `Arc`. Weak, because the plan only remembers the rule — a strong
    /// handle would make every `Arc::make_mut` in the pool
    /// ([`RulePool::set_enabled`]) deep-copy the rule it toggles.
    pub source: Weak<Rule>,
    /// Rule name, shared with the pool's rule (audit entries).
    pub name: Arc<str>,
    /// Triggering event.
    pub event: EventId,
    /// Condition bytecode.
    pub when: Box<[CondOp]>,
    /// Check table referenced by [`CondOp::Check`].
    pub checks: Box<[CCheck]>,
    /// Then actions.
    pub then: BoundActions,
    /// Else actions.
    pub otherwise: BoundActions,
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
    /// How many of `rules` the [`compile`] that built this plan lowered
    /// itself; the others it carried over from the plan before.
    pub lowered: usize,
}

/// Lower a pool against a detector (event resolution) and a host (closure
/// baking). Fails only on unresolvable event names — which the static
/// analyzer reports as errors, so a *licensed* pool always compiles.
///
/// `previous` is the plan lowered from an earlier state of this pool
/// (empty for a first lowering). A rule of it is carried over iff the
/// pool slot still holds the very `Arc` it was lowered from
/// ([`CompiledRule::source`]): then the rule's text is unchanged, and the
/// caller guarantees the rest — whatever changes what `host` bakes, or
/// re-binds an event name an untouched rule refers to, replaces every
/// rule of the pool, so nothing of `previous` matches and everything is
/// lowered here.
pub fn compile(
    pool: &RulePool,
    detector: &Detector,
    host: &dyn CompileHost,
    previous: CompiledPool,
) -> Result<CompiledPool, CompileError> {
    let mut live: Vec<(RuleId, &Arc<Rule>)> = pool.iter_shared().collect();
    live.sort_by_key(|(id, _)| *id);

    // Both sides are ordered by pool id: one pass over each.
    let mut carried = previous.rules.into_iter().peekable();
    let mut rules = Vec::with_capacity(live.len());
    let mut index: HashMap<RuleId, u32> = HashMap::with_capacity(live.len());
    let mut lowered = 0;
    for (id, rule) in live {
        while carried.next_if(|c| c.pool_id < id).is_some() {}
        // The `Weak` keeps its allocation from being reused, so an equal
        // address is the same `Arc`, and the pool holding it keeps the
        // rule alive.
        let same = |c: &CompiledRule| {
            c.pool_id == id && std::ptr::eq(c.source.as_ptr(), Arc::as_ptr(rule))
        };
        let compiled = match carried.next_if(same) {
            Some(kept) => {
                debug_assert!(
                    still_bound(&kept, detector),
                    "rule {} was carried over a change that re-bound one of its events",
                    kept.name
                );
                kept
            }
            None => {
                lowered += 1;
                lower_rule(id, rule, detector, host)?
            }
        };
        index.insert(id, u32::try_from(rules.len()).expect("rule count fits u32"));
        rules.push(compiled);
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
    Ok(CompiledPool {
        dispatch,
        rules,
        lowered,
    })
}

/// Lower one rule of the pool.
fn lower_rule(
    id: RuleId,
    rule: &Arc<Rule>,
    detector: &Detector,
    host: &dyn CompileHost,
) -> Result<CompiledRule, CompileError> {
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
    let bind = |specs: &[ActionSpec]| -> Result<BoundActions, CompileError> {
        specs
            .iter()
            .map(|a| Ok((a.clone(), bound_event(a, &rule.name, detector)?)))
            .collect()
    };
    Ok(CompiledRule {
        pool_id: id,
        source: Arc::downgrade(rule),
        name: Arc::clone(&rule.name),
        event: rule.event,
        when: when.into_boxed_slice(),
        checks: checks.into_boxed_slice(),
        then: bind(&rule.then)?,
        otherwise: bind(&rule.otherwise)?,
    })
}

/// Does every event name `rule` resolved at lowering still resolve to the
/// same event?
fn still_bound(rule: &CompiledRule, detector: &Detector) -> bool {
    let mut actions = rule.then.iter().chain(rule.otherwise.iter());
    let mut checks = rule.checks.iter();
    actions.all(|(action, id)| match action {
        ActionSpec::RaiseEvent { event, .. } | ActionSpec::CancelPlus { event, .. } => {
            detector.lookup(event) == *id
        }
        _ => true,
    }) && checks.all(|check| match check {
        CCheck::SourceIs { id, name } => detector.lookup(name) == Some(*id),
        _ => true,
    })
}

/// Resolve `event` for `rule`, or say which rule names an unknown one.
fn resolve(detector: &Detector, rule: &str, event: &str) -> Result<EventId, CompileError> {
    detector
        .lookup(event)
        .ok_or_else(|| CompileError::UnknownEvent {
            rule: rule.to_string(),
            event: event.to_string(),
        })
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
    // Baking needs a literal role the host knows; anything else stays the
    // pool's check.
    let baked = match check {
        // `authorized(u, r)` ⇔ `u` directly assigned to `r` or any senior
        // — a membership test over a fixed array.
        Check::Authorized {
            user,
            role: ParamRef::Int(r),
        } => host
            .authorized_closure(*r)
            .map(|closure| CCheck::AuthorizedBaked {
                user: user.clone(),
                roles: closure.into_boxed_slice(),
            }),
        Check::DsdSatisfied {
            session,
            role: ParamRef::Int(r),
        } => host.dsd_sets(*r).map(|sets| CCheck::DsdBaked {
            session: session.clone(),
            sets: sets
                .into_iter()
                .map(|(roles, n)| DsdSetBaked {
                    roles: roles.into_boxed_slice(),
                    n,
                })
                .collect(),
        }),
        Check::SourceIs(name) => Some(CCheck::SourceIs {
            id: resolve(detector, rule, name)?,
            name: name.clone(),
        }),
        _ => None,
    };
    Ok(baked.unwrap_or_else(|| CCheck::Plain(check.clone())))
}

/// The event an action raises or cancels, resolved.
fn bound_event(
    action: &ActionSpec,
    rule: &str,
    detector: &Detector,
) -> Result<Option<EventId>, CompileError> {
    match action {
        ActionSpec::RaiseEvent { event, .. } | ActionSpec::CancelPlus { event, .. } => {
            resolve(detector, rule, event).map(Some)
        }
        _ => Ok(None),
    }
}

/// Evaluate condition bytecode: same evaluation order, short-circuiting
/// and error propagation as the interpreter's tree walk.
fn eval_compiled_cond<B: Bindings>(
    code: &[CondOp],
    checks: &[CCheck],
    occ: &B,
    state: &dyn AuthState,
    detector: &Detector,
) -> Result<bool, String> {
    let mut acc = false;
    let mut pc = 0usize;
    while let Some(op) = code.get(pc) {
        match *op {
            CondOp::Push(b) => acc = b,
            CondOp::Check(i) => acc = eval_ccheck(&checks[i as usize], occ, state, detector)?,
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

fn eval_ccheck<B: Bindings>(
    check: &CCheck,
    occ: &B,
    state: &dyn AuthState,
    detector: &Detector,
) -> Result<bool, String> {
    match check {
        CCheck::Plain(c) => eval_check(c, occ, state, detector),
        CCheck::SourceIs { id, .. } => Ok(occ.has_source(*id)),
        CCheck::AuthorizedBaked { user, roles } => {
            Ok(state.authorized_any(id_arg(user, occ)?, roles))
        }
        CCheck::DsdBaked { session, sets } => {
            let s = id_arg(session, occ)?;
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
    }
}

impl<'p> RuleSource for &'p CompiledPool {
    type Rule = &'p CompiledRule;

    fn next_enabled(
        self,
        pool: &RulePool,
        event: EventId,
        next: &mut usize,
    ) -> Option<&'p CompiledRule> {
        let table = self.dispatch.get(event.0 as usize)?;
        while let Some(&ci) = table.get(*next) {
            *next += 1;
            let rule = &self.rules[ci as usize];
            if pool.get(rule.pool_id).is_some_and(|r| r.enabled) {
                return Some(rule);
            }
        }
        None
    }
}

impl Triggered for &CompiledRule {
    fn name(&self) -> &Arc<str> {
        &self.name
    }

    fn holds<B: Bindings>(
        &self,
        occ: &B,
        state: &dyn AuthState,
        detector: &Detector,
    ) -> Result<bool, String> {
        eval_compiled_cond(&self.when, &self.checks, occ, state, detector)
    }

    fn actions(&self, then: bool) -> impl Iterator<Item = (&ActionSpec, Option<EventId>)> {
        let list = if then { &self.then } else { &self.otherwise };
        list.iter().map(|(a, id)| (a, *id))
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
            for (arm, actions) in [("then", &rule.then), ("else", &rule.otherwise)] {
                for (a, id) in actions.iter() {
                    // The resolved id next to (for a cancel: in place of)
                    // the name the pool's action carries.
                    let _ = match (a, id) {
                        (ActionSpec::RaiseEvent { event, .. }, Some(id)) => {
                            writeln!(out, "  {arm} raiseEvent({event} #{})", id.0)
                        }
                        (ActionSpec::CancelPlus { key_param, .. }, Some(id)) => {
                            writeln!(out, "  {arm} cancelPlus(#{}, by {key_param})", id.0)
                        }
                        _ => writeln!(out, "  {arm} {a}"),
                    };
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{attach_rule, ExecReport, Executor, Runtime};
    use crate::log::{AuditEntry, AuditKind, AuditLog};
    use crate::rule::{Rule, RuleClass};
    use crate::state::PermissiveState;
    use snoop::{Dur, EventExpr, Occurrence, Params, Ts};

    fn lower_expr(cond: &CondExpr) -> (Vec<CondOp>, Vec<CCheck>) {
        let detector = Detector::new(Ts::ZERO);
        let mut checks = Vec::new();
        let mut code = Vec::new();
        lower_cond(cond, "t", &detector, &NoBake, &mut checks, &mut code).unwrap();
        (code, checks)
    }

    fn eval(cond: &CondExpr, occ: &Occurrence, state: &dyn AuthState) -> Result<bool, String> {
        let (code, checks) = lower_expr(cond);
        eval_compiled_cond(&code, &checks, occ, state, &Detector::new(Ts::ZERO))
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
        let plan = compile(&pool, &detector, &NoBake, CompiledPool::default()).unwrap();
        let table = &plan.dispatch[e.0 as usize];
        let names: Vec<&str> = table
            .iter()
            .map(|&ci| &*plan.rules[ci as usize].name)
            .collect();
        assert_eq!(names, vec!["high", "low"]);
        assert!(plan.dump(&detector).contains("on e"));
    }

    /// A rule is carried over exactly while its pool slot holds the `Arc`
    /// it was lowered from; whatever replaces, toggles or removes the rule
    /// ends that, and the plan equals a fresh lowering either way.
    #[test]
    fn compile_carries_over_what_the_pool_still_holds() {
        let mut detector = Detector::new(Ts::ZERO);
        let mut pool = RulePool::new();
        let e = detector.primitive("e");
        for name in ["a", "b", "c"] {
            attach_rule(&mut detector, &mut pool, Rule::new(name, e, CondExpr::True));
        }
        let relower = |pool: &RulePool, previous: CompiledPool| {
            let plan = compile(pool, &detector, &NoBake, previous).unwrap();
            let fresh = compile(pool, &detector, &NoBake, CompiledPool::default()).unwrap();
            assert_eq!(fresh.lowered, fresh.rules.len());
            assert_eq!(plan.dump(&detector), fresh.dump(&detector));
            assert_eq!(plan.dispatch, fresh.dispatch);
            plan
        };
        let plan = relower(&pool, CompiledPool::default());
        assert_eq!(plan.lowered, 3);
        // Nothing changed, and a clone of the pool shares every `Arc`.
        let plan = relower(&pool.clone(), plan);
        assert_eq!(plan.lowered, 0);
        // A toggle moves the rule to a new `Arc` (the plan's `Weak` does
        // not make `make_mut` copy it: the old handle is simply dead).
        pool.set_enabled("b", false);
        assert_eq!(plan.rules[1].source.upgrade().map(|r| r.enabled), None);
        let plan = relower(&pool, plan);
        assert_eq!(plan.lowered, 1);
        // A replaced rule is lowered from its new text.
        pool.add(Rule::new("a", e, CondExpr::False).priority(5));
        let plan = relower(&pool, plan);
        assert_eq!(plan.lowered, 1);
        assert_eq!(&*plan.rules[0].when, [CondOp::Push(false)]);
        // A removed rule leaves the plan; its neighbours stay carried.
        pool.remove("b");
        let plan = relower(&pool, plan);
        assert_eq!((plan.lowered, plan.rules.len()), (0, 2));
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
        let err = compile(&pool, &detector, &NoBake, CompiledPool::default()).unwrap_err();
        assert_eq!(
            err,
            CompileError::UnknownEvent {
                rule: "ghost".into(),
                event: "nothing".into()
            }
        );
    }

    /// What one run of the scaffold leaves behind.
    #[derive(Debug, PartialEq)]
    struct Observed {
        report: ExecReport,
        mutations: Vec<String>,
        audit: Vec<AuditEntry>,
        enabled: Vec<(String, bool)>,
    }

    /// Run `then` as the actions of rule `r` (priority 10 on `req`), with
    /// the plan or interpreted. Around it: `victim` (enabled) and `sleeper`
    /// (disabled) also listen on `req`, below `r`, so a toggle by `r`
    /// shows in the same occurrence; `go` is raisable and cascades into
    /// one rule; `expire` names `open + 10s` — cancellable, not raisable —
    /// and has one timer pending for session 2.
    fn run(exec: &Executor, then: &[ActionSpec], params: &Params, planned: bool) -> Observed {
        let mut detector = Detector::new(Ts::ZERO);
        let mut pool = RulePool::new();
        let req = detector.primitive("req");
        let go = detector.primitive("go");
        let open = detector.primitive("open");
        let plus = EventExpr::plus(EventExpr::named("open"), Dur::from_secs(10));
        let expire = detector.define(&plus).unwrap();
        detector.name(expire, "expire").unwrap();
        detector.watch(expire);
        let alert = |m: &str| vec![ActionSpec::Alert(m.into())];
        let mut sleeper = Rule::new("sleeper", req, CondExpr::True)
            .class(RuleClass::Administrative)
            .then(alert("sleeper ran"));
        sleeper.enabled = false;
        for rule in [
            Rule::new("r", req, CondExpr::True)
                .priority(10)
                .class(RuleClass::ActiveSecurity)
                .then(then.to_vec()),
            Rule::new("victim", req, CondExpr::True)
                .class(RuleClass::ActivityControl)
                .then(alert("victim ran")),
            sleeper,
            Rule::new("cascaded", go, CondExpr::True)
                .class(RuleClass::ActiveSecurity)
                .then(alert("cascaded")),
        ] {
            attach_rule(&mut detector, &mut pool, rule);
        }
        let plan =
            planned.then(|| compile(&pool, &detector, &NoBake, CompiledPool::default()).unwrap());
        let mut state = PermissiveState::default();
        let mut log = AuditLog::new();
        let mut rt = Runtime {
            detector: &mut detector,
            pool: &mut pool,
            state: &mut state,
            log: &mut log,
            plan: plan.as_ref(),
        };
        exec.dispatch(&mut rt, open, Params::new().with("session", 2i64))
            .unwrap();
        let report = exec.dispatch(&mut rt, req, params.clone()).unwrap();
        let mut enabled: Vec<(String, bool)> = pool
            .iter()
            .map(|(_, r)| (r.name.to_string(), r.enabled))
            .collect();
        enabled.sort();
        Observed {
            report,
            mutations: state.log,
            audit: log.entries().iter().cloned().collect(),
            enabled,
        }
    }

    /// Every action of the rule language and the ways an action fails,
    /// through both evaluators of the one driver: same report, same
    /// monitor calls, same audit entries, same pool afterwards.
    #[test]
    fn plan_and_interpreter_agree_on_every_action_and_error_path() {
        use ActionSpec::*;
        const QUIET: &[&str] = &["victim ran"];
        let p = ParamRef::param;
        let five = || ParamRef::Int(5);
        let raise = |event: &str, params| RaiseEvent {
            event: event.into(),
            params,
        };
        let cancel = || CancelPlus {
            event: "expire".into(),
            key_param: "session".into(),
        };
        let full = Params::new().with("user", 1i64).with("session", 2i64);
        let free = Executor::new();
        let guarded = Executor {
            max_cascade_depth: 0,
            ..Executor::default()
        };
        let agree = |exec: &Executor, action: &ActionSpec, errors: usize, alerts: &[&str]| {
            let then = std::slice::from_ref(action);
            let planned = run(exec, then, &full, true);
            assert_eq!(run(exec, then, &full, false), planned, "{action:?}");
            assert_eq!(planned.report.alerts, alerts, "{action:?}");
            let audited = planned.audit.iter();
            let audited = audited.filter(|e| e.kind == AuditKind::EngineError);
            assert_eq!(planned.report.errors.len(), errors, "{action:?}");
            assert_eq!(audited.count(), errors, "{action:?}");
        };

        // Each action alone in `r`, and the alerts its occurrence raises.
        let (user, session) = (p("user"), p("session"));
        let actions: Vec<(ActionSpec, &[&str])> = vec![
            (
                AddSessionRole {
                    user: user.clone(),
                    session: session.clone(),
                    role: five(),
                },
                QUIET,
            ),
            (
                DropSessionRole {
                    user: user.clone(),
                    session,
                    role: five(),
                },
                QUIET,
            ),
            (DeactivateRoleEverywhere(five()), QUIET),
            (EnableRole(five()), QUIET),
            (
                DisableRole {
                    role: five(),
                    deactivate: true,
                },
                QUIET,
            ),
            (
                AssignUser {
                    user: user.clone(),
                    role: five(),
                },
                QUIET,
            ),
            (
                DeassignUser {
                    user: user.clone(),
                    role: five(),
                },
                QUIET,
            ),
            (Allow, QUIET),
            // A denial skips every rule below `r`.
            (RaiseError("no".into()), &[]),
            (
                raise("go", vec![("user".into(), user.clone())]),
                &["cascaded", "victim ran"],
            ),
            (cancel(), QUIET),
            (Alert("seen".into()), &["seen", "victim ran"]),
            (DisableRuleClass(RuleClass::ActivityControl), &[]),
            (
                EnableRuleClass(RuleClass::Administrative),
                &["victim ran", "sleeper ran"],
            ),
            (DisableRule("victim".into()), &[]),
            (EnableRule("sleeper".into()), &["victim ran", "sleeper ran"]),
            (
                Custom {
                    name: "notify".into(),
                    args: vec![user, five()],
                },
                QUIET,
            ),
        ];
        for (action, alerts) in &actions {
            agree(&free, action, 0, alerts);
        }

        // One engine error each, and the occurrence goes on: a parameter
        // the occurrence lacks, for an argument and for a raised event;
        // the depth guard; an event the detector resolves but will not
        // raise.
        let ghost = vec![("user".into(), p("ghost"))];
        agree(&free, &EnableRole(p("ghost")), 1, QUIET);
        agree(&free, &raise("go", ghost), 1, QUIET);
        agree(&guarded, &raise("go", vec![]), 1, QUIET);
        agree(&free, &raise("expire", vec![]), 1, QUIET);

        // The cancel found the pending timer through the resolved id.
        assert_eq!(run(&free, &[cancel()], &full, true).report.mutations, 1);
        let other = Params::new().with("session", 3i64);
        assert_eq!(run(&free, &[cancel()], &other, true).report.mutations, 0);
    }

    /// The driver takes rules from the plan it is handed — an empty one
    /// fires nothing — and interprets the pool only when it has none.
    #[test]
    fn driver_runs_the_plan_it_is_handed() {
        let mut detector = Detector::new(Ts::ZERO);
        let mut pool = RulePool::new();
        let e = detector.primitive("e");
        let rule = Rule::new(
            "r",
            e,
            CondExpr::check(Check::UserExists(ParamRef::param("user"))),
        )
        .then(vec![ActionSpec::EnableRole(ParamRef::Int(3))]);
        attach_rule(&mut detector, &mut pool, rule);
        let empty = CompiledPool::default();
        let mut dispatch = |exec: &Executor, plan| {
            let mut rt = Runtime {
                detector: &mut detector,
                pool: &mut pool,
                state: &mut PermissiveState::default(),
                log: &mut AuditLog::new(),
                plan,
            };
            exec.dispatch(&mut rt, e, Params::new().with("user", 1i64))
                .unwrap()
        };
        let exec = Executor::new();
        assert_eq!(dispatch(&exec, Some(&empty)).fired, 0);
        assert_eq!(dispatch(&exec, None).fired, 1);
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
        assert_eq!(
            eval_compiled_cond(&code, &checks, &o, &state, &detector),
            Ok(true)
        );
    }
}
