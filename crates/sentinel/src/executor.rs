//! The rule executor: couples the event detector, the rule pool and the
//! authorization state.
//!
//! An event occurrence triggers the rules subscribed to it (highest priority
//! first); each rule's **W** conditions are evaluated against the
//! [`AuthState`]; **T** or **E** actions run accordingly. Actions may raise
//! further primitive events — the paper's *nested/cascaded rules* (Rule 4's
//! `addSessionRoleR1` → CC₁, Rule 8's CFD pair, Rule 9's transaction-based
//! activation) — which are processed in the same dispatch up to a depth
//! limit.
//!
//! There is one cascade driver. It is generic, with static dispatch, over
//! two things:
//!
//! - where an event's rules come from (`RuleSource`): the pool, whose
//!   condition trees it walks — the *interpreter*, the reference — or the
//!   plan [`crate::compile`] lowered the pool into. [`Executor::process`]
//!   picks between the two from what the [`Runtime`] carries;
//! - what the rules read of the event ([`Bindings`]): a
//!   [`snoop::Occurrence`], which every detection is, or a [`Request`] — the
//!   typed fields of a request to a primitive no composite listens to,
//!   entered through [`Executor::dispatch_request`] without a parameter
//!   list or an occurrence being built.
//!
//! Both kinds of bindings give the same decisions, reports and audit
//! entries. A rule-raised event that nothing watches and no composite
//! subscribes to is only counted ([`snoop::Detector::raise_inert`]) once
//! the plan has resolved it; everything else a rule raises goes through
//! the detector.

use crate::bindings::{params_of, Bindings, Request};
use crate::compile::CompiledPool;
use crate::lang::{ActionSpec, Check, CondExpr, ParamRef};
use crate::log::{AuditEntry, AuditKind, AuditLog};
use crate::pool::RulePool;
use crate::rule::Rule;
use crate::state::{ActionOutcome, AuthState};
use serde::{Deserialize, Serialize};
use snoop::{Delivered, Detector, DetectorError, Dur, EventId, Params, Ts};
use std::borrow::Cow;
use std::sync::Arc;

/// Outcome of one dispatch (an external event plus everything it cascaded
/// into).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Rules whose Then actions ran.
    pub fired: usize,
    /// Rules whose Else actions ran.
    pub else_taken: usize,
    /// Denial messages (`raise error` actions and rejected state actions).
    pub denials: Vec<String>,
    /// Number of explicit `<allow>` actions.
    pub allows: usize,
    /// Alerts raised.
    pub alerts: Vec<String>,
    /// Engine errors (missing parameters, unknown events, depth exceeded).
    pub errors: Vec<String>,
    /// Number of state-changing actions that actually applied: successful
    /// monitor mutations (activations, assignments, role status), rule
    /// enable/disable toggles and timer cancellations. Zero means the
    /// dispatch was decision-only, which lets callers keep published
    /// read-path snapshots valid across it.
    pub mutations: usize,
    /// Deepest cascade level at which any rule ran during this dispatch
    /// (0 = only directly-triggered rules; each synchronous `raise`
    /// adds one). Checkable against the static analyzer's proved bound.
    pub max_depth: usize,
}

impl ExecReport {
    /// Was the request denied by any rule?
    pub fn denied(&self) -> bool {
        !self.denials.is_empty()
    }
}

/// Drives rule evaluation. Stateless apart from configuration; all mutable
/// state lives in the detector, pool, auth state and log it is handed.
///
/// Stored inside engine snapshots. Unknown keys are ignored on read, so a
/// snapshot written when this struct still carried the two
/// independence-certificate fields or the effect-recording flag opens as
/// is.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Executor {
    /// Maximum cascade depth before the executor cuts a rule loop.
    pub max_cascade_depth: usize,
    /// Skip the per-dispatch cascade-depth guard.
    ///
    /// Only set this when a static analysis has *proved* the pool free of
    /// synchronous rule cycles (`policy::analyze`, verdict
    /// `ProvedTerminating`): the guard is the last line of defence against
    /// a looping pool, and with this flag an actual loop runs unbounded.
    /// Legitimate cascades deeper than `max_cascade_depth` then complete
    /// instead of being cut.
    #[serde(default)]
    pub assume_acyclic: bool,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor {
            max_cascade_depth: 32,
            assume_acyclic: false,
        }
    }
}

/// Everything the executor operates on, borrowed together.
pub struct Runtime<'a> {
    /// The event detector (clock, event graph).
    pub detector: &'a mut Detector,
    /// The rule pool.
    pub pool: &'a mut RulePool,
    /// The guarded authorization state.
    pub state: &'a mut dyn AuthState,
    /// The audit log.
    pub log: &'a mut AuditLog,
    /// The plan `pool` was lowered into, when it was licensed for one
    /// (see [`crate::compile`]). With a plan the executor evaluates rules
    /// from it; without, it interprets the pool. Both give the same
    /// decisions, reports and audit entries.
    pub plan: Option<&'a CompiledPool>,
}

/// Register a rule: watches its triggering event in the detector (so
/// occurrences are delivered) and adds it to the pool.
pub fn attach_rule(
    detector: &mut Detector,
    pool: &mut RulePool,
    rule: Rule,
) -> crate::rule::RuleId {
    detector.watch(rule.event);
    pool.add(rule)
}

/// Where the cascade driver takes the rules of an occurrence from: the
/// pool itself ([`Interpreter`]) or the plan lowered from it
/// (`&CompiledPool`). The driver is generic over this, so neither costs a
/// dynamic call per rule.
pub(crate) trait RuleSource: Copy {
    /// One triggered rule, held while its actions run (they may toggle
    /// the pool it came from).
    type Rule: Triggered;

    /// The next *enabled* rule `event` triggers, from position `*next` of
    /// the pool's priority order on; `*next` ends up past it. Enablement
    /// is read from the live pool entry each time: an earlier rule of the
    /// same occurrence may have toggled it.
    fn next_enabled(self, pool: &RulePool, event: EventId, next: &mut usize) -> Option<Self::Rule>;
}

/// A rule as the cascade driver sees it.
pub(crate) trait Triggered {
    /// The rule's name (audit entries, error messages).
    fn name(&self) -> &Arc<str>;

    /// Evaluate the **W** part.
    fn holds<B: Bindings>(
        &self,
        occ: &B,
        state: &dyn AuthState,
        detector: &Detector,
    ) -> Result<bool, String>;

    /// The **T** (`then`) or **E** action list, each action with the id
    /// of the event it raises or cancels where the source resolved it.
    fn actions(&self, then: bool) -> impl Iterator<Item = (&ActionSpec, Option<EventId>)>;
}

/// The reference evaluator: rules are fetched from the pool and their
/// `CondExpr` trees walked, names resolved as they are met.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interpreter;

impl RuleSource for Interpreter {
    type Rule = Arc<Rule>;

    fn next_enabled(self, pool: &RulePool, event: EventId, next: &mut usize) -> Option<Arc<Rule>> {
        while let Some(&id) = pool.triggered_by(event).get(*next) {
            *next += 1;
            if let Some(rule) = pool.get_arc(id).filter(|r| r.enabled) {
                return Some(rule);
            }
        }
        None
    }
}

impl Triggered for Arc<Rule> {
    fn name(&self) -> &Arc<str> {
        &self.name
    }

    fn holds<B: Bindings>(
        &self,
        occ: &B,
        state: &dyn AuthState,
        detector: &Detector,
    ) -> Result<bool, String> {
        eval_cond(&self.when, occ, state, detector)
    }

    fn actions(&self, then: bool) -> impl Iterator<Item = (&ActionSpec, Option<EventId>)> {
        let list = if then { &self.then } else { &self.otherwise };
        list.iter().map(|a| (a, None))
    }
}

/// One rule running on one event: what every audit entry and error
/// message of the firing names.
struct Firing<'a, B> {
    rule: &'a Arc<str>,
    occ: &'a B,
    depth: usize,
}

impl<B: Bindings> Firing<'_, B> {
    fn audit(&self, rt: &mut Runtime<'_>, kind: AuditKind, message: String) {
        rt.log.push(AuditEntry {
            time: rt.detector.now(),
            kind,
            rule: Some(Arc::clone(self.rule)),
            event: Some(self.occ.event()),
            message,
        });
    }

    /// Record an engine error in the audit log and the report.
    fn error(&self, rt: &mut Runtime<'_>, report: &mut ExecReport, message: String) {
        self.audit(rt, AuditKind::EngineError, message.clone());
        report.errors.push(message);
    }

    /// Book what the monitor answered to a state action: applied, or
    /// rejected — which denies the request.
    fn settle(&self, rt: &mut Runtime<'_>, report: &mut ExecReport, outcome: ActionOutcome) {
        match outcome {
            ActionOutcome::Done => report.mutations += 1,
            ActionOutcome::Rejected(m) => {
                report.denials.push(m.clone());
                self.audit(rt, AuditKind::ActionRejected, m);
            }
        }
    }
}

impl Executor {
    /// A new executor with the default depth limit.
    pub fn new() -> Executor {
        Executor::default()
    }

    /// Raise a primitive event and run all triggered (and cascaded) rules.
    pub fn dispatch(
        &self,
        rt: &mut Runtime<'_>,
        event: EventId,
        params: Params,
    ) -> Result<ExecReport, DetectorError> {
        let delivered = rt.detector.deliver(event, params)?;
        Ok(self.process(rt, delivered, 0))
    }

    /// Raise a primitive event by name.
    pub fn dispatch_named(
        &self,
        rt: &mut Runtime<'_>,
        event: &str,
        params: Params,
    ) -> Result<ExecReport, DetectorError> {
        let delivered = rt.detector.deliver_named(event, params)?;
        Ok(self.process(rt, delivered, 0))
    }

    /// Advance the detector clock, running rules for every temporal event
    /// that fires on the way.
    ///
    /// Advancing happens timer by timer: rules triggered by a firing run
    /// *at* that instant (so their conditions, cascades and audit entries
    /// see the correct logical time), before the clock moves on.
    pub fn advance_to(&self, rt: &mut Runtime<'_>, ts: Ts) -> Result<ExecReport, DetectorError> {
        let mut report = ExecReport::default();
        while let Some(at) = rt.detector.next_timer_due().filter(|&at| at <= ts) {
            let detections = rt.detector.advance_to(at)?;
            self.process_into(rt, Delivered::Many(detections), 0, &mut report);
        }
        let detections = rt.detector.advance_to(ts)?;
        self.process_into(rt, Delivered::Many(detections), 0, &mut report);
        Ok(report)
    }

    /// Advance the detector clock by a duration.
    pub fn advance(&self, rt: &mut Runtime<'_>, d: Dur) -> Result<ExecReport, DetectorError> {
        let now = rt.detector.now();
        self.advance_to(rt, now + d)
    }

    /// Run the rules of a request to primitive `event` whose parameters
    /// are `fields`, in order. When `event` is a leaf — watched, no
    /// composite subscribes to it ([`Detector::deliver_leaf`]) — the rules
    /// read the fields as they are, a [`Request`]: no parameter list and
    /// no occurrence is built. Any other event is raised with the fields
    /// as its parameters through [`Executor::dispatch`]. Reports, audit
    /// entries and detector counts are those of `dispatch` either way.
    pub fn dispatch_request(
        &self,
        rt: &mut Runtime<'_>,
        event: EventId,
        fields: &[(&'static str, i64)],
    ) -> Result<ExecReport, DetectorError> {
        if !rt.detector.deliver_leaf(event)? {
            return self.dispatch(rt, event, params_of(fields));
        }
        let request = Request {
            event,
            time: rt.detector.now(),
            fields,
        };
        let mut report = ExecReport::default();
        match rt.plan {
            Some(plan) => self.run_rules(rt, plan, &request, 0, &mut report),
            None => self.run_rules(rt, Interpreter, &request, 0, &mut report),
        }
        Ok(report)
    }

    /// Run rules for already-delivered detections.
    pub fn process(&self, rt: &mut Runtime<'_>, delivered: Delivered, depth: usize) -> ExecReport {
        let mut report = ExecReport::default();
        self.process_into(rt, delivered, depth, &mut report);
        report
    }

    /// [`Executor::process`] into a report the caller already has. This is
    /// where the evaluator is chosen: a runtime that carries a plan runs
    /// through it, one that does not is interpreted.
    fn process_into(
        &self,
        rt: &mut Runtime<'_>,
        delivered: Delivered,
        depth: usize,
        report: &mut ExecReport,
    ) {
        match rt.plan {
            Some(plan) => self.drive(rt, plan, delivered, depth, report),
            None => self.drive(rt, Interpreter, delivered, depth, report),
        }
    }

    /// The cascade driver: every detection's rules in priority order.
    /// One report per dispatch: rules, actions and cascades all book into
    /// `report`, in the order things happen.
    fn drive<S: RuleSource>(
        &self,
        rt: &mut Runtime<'_>,
        rules: S,
        delivered: Delivered,
        depth: usize,
        report: &mut ExecReport,
    ) {
        match delivered {
            Delivered::One(occ) => self.run_rules(rt, rules, &occ, depth, report),
            Delivered::Many(detections) => {
                for det in detections {
                    self.run_rules(rt, rules, &det.occurrence, depth, report);
                }
            }
        }
    }

    /// One event's rules, in priority order.
    fn run_rules<S: RuleSource, B: Bindings>(
        &self,
        rt: &mut Runtime<'_>,
        rules: S,
        occ: &B,
        depth: usize,
        report: &mut ExecReport,
    ) {
        // By position: rule actions toggle enablement, never the
        // per-event order, so nothing is snapshotted.
        let mut next = 0;
        while let Some(rule) = rules.next_enabled(rt.pool, occ.event(), &mut next) {
            let before = report.denials.len();
            self.run_rule(rt, rules, &rule, occ, depth, report);
            // Deny-overrides, priority-ordered: once a rule denies this
            // occurrence, lower-priority rules on the same occurrence
            // are skipped. This is what lets generated guard rules
            // (specialized caps, SoD guards) precede the apply rule.
            if report.denials.len() > before {
                break;
            }
        }
    }

    fn run_rule<S: RuleSource, B: Bindings>(
        &self,
        rt: &mut Runtime<'_>,
        rules: S,
        rule: &S::Rule,
        occ: &B,
        depth: usize,
        report: &mut ExecReport,
    ) {
        let at = Firing {
            rule: rule.name(),
            occ,
            depth,
        };
        report.max_depth = report.max_depth.max(depth);
        let cond = match rule.holds(occ, rt.state, rt.detector) {
            Ok(b) => b,
            Err(msg) => {
                let m = format!("condition error in {}: {msg}", at.rule);
                at.error(rt, report, m);
                false
            }
        };
        let kind = if cond {
            report.fired += 1;
            AuditKind::Fired
        } else {
            report.else_taken += 1;
            AuditKind::ElseTaken
        };
        at.audit(rt, kind, String::new());
        for (action, resolved) in rule.actions(cond) {
            let before = report.denials.len();
            self.run_action(rt, rules, &at, action, resolved, report);
            // A rejected/denying action aborts the rest of this rule's
            // action list (later actions usually depend on its success,
            // e.g. raising the "role added" event after adding it).
            if report.denials.len() > before {
                break;
            }
        }
    }

    /// Run one action. `resolved` is the id of the event it raises or
    /// cancels when the rule source looked it up ahead of time; the
    /// detector's name table is append-only, so that id is what the name
    /// resolves to now.
    fn run_action<S: RuleSource, B: Bindings>(
        &self,
        rt: &mut Runtime<'_>,
        rules: S,
        at: &Firing<'_, B>,
        action: &ActionSpec,
        resolved: Option<EventId>,
        report: &mut ExecReport,
    ) {
        let occ = at.occ;
        // Resolve an integer argument or record an engine error.
        macro_rules! arg {
            ($p:expr) => {
                match $p.resolve_int(occ) {
                    Some(v) => v,
                    None => {
                        let m = format!("rule {}: parameter {} missing in {}", at.rule, $p, occ);
                        at.error(rt, report, m);
                        return;
                    }
                }
            };
        }

        match action {
            ActionSpec::Allow => {
                report.allows += 1;
                at.audit(rt, AuditKind::Allowed, String::new());
            }
            ActionSpec::RaiseError(m) => {
                report.denials.push(m.clone());
                at.audit(rt, AuditKind::Denied, m.clone());
            }
            ActionSpec::Alert(m) => {
                report.alerts.push(m.clone());
                at.audit(rt, AuditKind::Alert, m.clone());
            }
            ActionSpec::RaiseEvent { event, params } => {
                if !self.assume_acyclic && at.depth + 1 > self.max_cascade_depth {
                    let m = format!(
                        "rule {}: cascade depth {} exceeded raising {event}",
                        at.rule, self.max_cascade_depth
                    );
                    at.error(rt, report, m);
                    return;
                }
                let missing = |src: &ParamRef| {
                    format!(
                        "rule {}: parameter {src} missing for raised event {event}",
                        at.rule
                    )
                };
                // Nothing listens to an inert event: once its parameters
                // are known to resolve, the raise is only counted.
                if let Some(id) = resolved.filter(|&id| rt.detector.is_inert(id)) {
                    match params.iter().find(|(_, src)| !src.resolves(occ)) {
                        Some((_, src)) => at.error(rt, report, missing(src)),
                        None => {
                            rt.detector.raise_inert(id);
                        }
                    }
                    return;
                }
                let mut p = Params::with_capacity(params.len());
                for (name, src) in params {
                    match src.resolve(occ) {
                        Some(v) => p.set(name, v),
                        None => {
                            at.error(rt, report, missing(src));
                            return;
                        }
                    }
                }
                let raised = match resolved {
                    Some(id) => rt.detector.deliver(id, p),
                    None => rt.detector.deliver_named(event, p),
                };
                match raised {
                    Ok(delivered) => self.drive(rt, rules, delivered, at.depth + 1, report),
                    Err(e) => {
                        let m = format!("rule {}: raise {event} failed: {e}", at.rule);
                        at.error(rt, report, m);
                    }
                }
            }
            ActionSpec::CancelPlus { event, key_param } => {
                let Some(id) = resolved.or_else(|| rt.detector.lookup(event)) else {
                    let m = format!("rule {}: cancelPlus unknown event {event}", at.rule);
                    at.error(rt, report, m);
                    return;
                };
                let key = occ.value(key_param).map(Cow::into_owned);
                let n = rt.detector.cancel_timers_where(id, |base| {
                    base.is_some_and(|b| b.params.get(key_param) == key.as_ref())
                });
                report.mutations += n;
            }
            ActionSpec::DisableRuleClass(c) => {
                let n = rt.pool.set_class_enabled(*c, false);
                report.mutations += 1;
                at.audit(rt, AuditKind::RuleToggle, format!("disabled {n} {c} rules"));
            }
            ActionSpec::EnableRuleClass(c) => {
                let n = rt.pool.set_class_enabled(*c, true);
                report.mutations += 1;
                at.audit(rt, AuditKind::RuleToggle, format!("enabled {n} {c} rules"));
            }
            ActionSpec::DisableRule(name) => {
                rt.pool.set_enabled(name, false);
                report.mutations += 1;
                at.audit(rt, AuditKind::RuleToggle, format!("disabled rule {name}"));
            }
            ActionSpec::EnableRule(name) => {
                rt.pool.set_enabled(name, true);
                report.mutations += 1;
                at.audit(rt, AuditKind::RuleToggle, format!("enabled rule {name}"));
            }
            ActionSpec::AddSessionRole {
                user,
                session,
                role,
            } => {
                let (u, s, r) = (arg!(user), arg!(session), arg!(role));
                let outcome = rt.state.add_session_role(u, s, r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::DropSessionRole {
                user,
                session,
                role,
            } => {
                let (u, s, r) = (arg!(user), arg!(session), arg!(role));
                let outcome = rt.state.drop_session_role(u, s, r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::DeactivateRoleEverywhere(role) => {
                let r = arg!(role);
                let outcome = rt.state.deactivate_role_everywhere(r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::EnableRole(role) => {
                let r = arg!(role);
                let outcome = rt.state.enable_role(r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::DisableRole { role, deactivate } => {
                let r = arg!(role);
                let outcome = rt.state.disable_role(r, *deactivate);
                at.settle(rt, report, outcome);
            }
            ActionSpec::AssignUser { user, role } => {
                let (u, r) = (arg!(user), arg!(role));
                let outcome = rt.state.assign_user(u, r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::DeassignUser { user, role } => {
                let (u, r) = (arg!(user), arg!(role));
                let outcome = rt.state.deassign_user(u, r);
                at.settle(rt, report, outcome);
            }
            ActionSpec::Custom { name, args } => {
                let mut ids = Vec::with_capacity(args.len());
                for a in args {
                    ids.push(arg!(a));
                }
                let outcome = rt.state.custom_action(name, &ids, occ.time());
                at.settle(rt, report, outcome);
            }
        }
    }
}

/// Evaluate a condition expression. `Err` carries a description of a
/// malformed rule (missing parameter / unknown event name).
pub fn eval_cond<B: Bindings>(
    cond: &CondExpr,
    occ: &B,
    state: &dyn AuthState,
    detector: &Detector,
) -> Result<bool, String> {
    match cond {
        CondExpr::True => Ok(true),
        CondExpr::False => Ok(false),
        CondExpr::Not(c) => Ok(!eval_cond(c, occ, state, detector)?),
        CondExpr::All(v) => {
            for c in v {
                if !eval_cond(c, occ, state, detector)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        CondExpr::Any(v) => {
            for c in v {
                if eval_cond(c, occ, state, detector)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        CondExpr::If {
            guard,
            then,
            otherwise,
        } => {
            if eval_cond(guard, occ, state, detector)? {
                eval_cond(then, occ, state, detector)
            } else {
                eval_cond(otherwise, occ, state, detector)
            }
        }
        CondExpr::Check(check) => eval_check(check, occ, state, detector),
    }
}

/// An entity-id argument of a check.
pub(crate) fn id_arg<B: Bindings>(p: &ParamRef, occ: &B) -> Result<i64, String> {
    p.resolve_int(occ)
        .ok_or_else(|| format!("parameter {p} missing or not an id in {occ}"))
}

/// Evaluate one check of the rule language.
pub(crate) fn eval_check<B: Bindings>(
    check: &Check,
    occ: &B,
    state: &dyn AuthState,
    detector: &Detector,
) -> Result<bool, String> {
    let int = |p| id_arg(p, occ);
    match check {
        Check::UserExists(u) => Ok(state.user_exists(int(u)?)),
        Check::SessionExists(s) => Ok(state.session_exists(int(s)?)),
        Check::SessionOwnedBy { session, user } => {
            Ok(state.session_owned_by(int(session)?, int(user)?))
        }
        Check::RoleNotActive { session, role } => Ok(!state.role_active(int(session)?, int(role)?)),
        Check::RoleActive { session, role } => Ok(state.role_active(int(session)?, int(role)?)),
        Check::Assigned { user, role } => Ok(state.assigned(int(user)?, int(role)?)),
        Check::Authorized { user, role } => Ok(state.authorized(int(user)?, int(role)?)),
        Check::DsdSatisfied { session, role } => Ok(state.dsd_satisfied(int(session)?, int(role)?)),
        Check::RoleEnabled(r) => Ok(state.role_enabled(int(r)?)),
        Check::RoleActiveAnywhere(r) => Ok(state.role_active_anywhere(int(r)?)),
        Check::RoleCardinalityBelow { role, user, max } => {
            let r = int(role)?;
            let u = int(user)?;
            // A user already active in the role does not consume a new slot.
            Ok(state.user_active_in_role(u, r) || state.active_users_of_role(r) < *max)
        }
        Check::UserCardinalityBelow { user, role, max } => {
            let u = int(user)?;
            let r = int(role)?;
            Ok(state.user_active_in_role(u, r) || state.active_roles_of_user(u) < *max)
        }
        Check::UserCapOk { user, role } => Ok(state.user_cap_ok(int(user)?, int(role)?)),
        Check::SessionHasPermission { session, op, obj } => {
            Ok(state.session_has_permission(int(session)?, int(op)?, int(obj)?))
        }
        Check::SourceIs(name) => {
            let id = detector
                .lookup(name)
                .ok_or_else(|| format!("unknown event {name:?} in SourceIs"))?;
            Ok(occ.has_source(id))
        }
        Check::ParamEquals { name, value } => Ok(occ.value(name).as_deref() == Some(value)),
        Check::Custom { name, args } => {
            let mut resolved = Vec::with_capacity(args.len());
            for a in args {
                resolved.push(int(a)?);
            }
            Ok(state.custom_check(name, &resolved, occ.time()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::ParamRef;
    use crate::rule::RuleClass;
    use crate::state::PermissiveState;

    struct Fixture {
        detector: Detector,
        pool: RulePool,
        state: PermissiveState,
        log: AuditLog,
    }

    impl Fixture {
        fn new() -> Fixture {
            Fixture {
                detector: Detector::new(Ts::ZERO),
                pool: RulePool::new(),
                state: PermissiveState::default(),
                log: AuditLog::new(),
            }
        }

        fn attach(&mut self, rule: Rule) {
            attach_rule(&mut self.detector, &mut self.pool, rule);
        }

        fn rt(&mut self) -> Runtime<'_> {
            Runtime {
                detector: &mut self.detector,
                pool: &mut self.pool,
                state: &mut self.state,
                log: &mut self.log,
                plan: None,
            }
        }
    }

    #[test]
    fn then_branch_runs_actions() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("activate");
        fx.attach(
            Rule::new("r", e, CondExpr::True)
                .then(vec![ActionSpec::AddSessionRole {
                    user: ParamRef::param("user"),
                    session: ParamRef::param("session"),
                    role: ParamRef::Int(5),
                }])
                .otherwise(vec![ActionSpec::RaiseError("no".into())]),
        );
        let mut rt = fx.rt();
        let exec = Executor::new();
        let rep = exec
            .dispatch(
                &mut rt,
                e,
                Params::new().with("user", 1i64).with("session", 2i64),
            )
            .unwrap();
        assert_eq!(rep.fired, 1);
        assert!(!rep.denied());
        assert_eq!(fx.state.log, vec!["add_session_role(1,2,5)"]);
        assert_eq!(fx.log.entries().len(), 1, "one fired record");
    }

    #[test]
    fn mutation_counter_tracks_applied_state_actions() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("activate");
        fx.attach(Rule::new("r", e, CondExpr::True).then(vec![
            ActionSpec::Allow,
            ActionSpec::AddSessionRole {
                user: ParamRef::Int(1),
                session: ParamRef::Int(2),
                role: ParamRef::Int(3),
            },
        ]));
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(rep.mutations, 1, "Allow is decision-only, the add mutates");

        // A pure decision dispatch reports zero mutations, so read-path
        // snapshots survive it.
        let mut fx2 = Fixture::new();
        let e2 = fx2.detector.primitive("check");
        fx2.attach(Rule::new("ca", e2, CondExpr::True).then(vec![ActionSpec::Allow]));
        let mut rt = fx2.rt();
        let rep = Executor::new()
            .dispatch(&mut rt, e2, Params::new())
            .unwrap();
        assert_eq!(rep.mutations, 0);
    }

    #[test]
    fn else_branch_on_false_condition() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("activate");
        fx.attach(
            Rule::new("r", e, CondExpr::False)
                .then(vec![ActionSpec::Allow])
                .otherwise(vec![ActionSpec::RaiseError("denied".into())]),
        );
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(rep.else_taken, 1);
        assert_eq!(rep.denials, vec!["denied".to_string()]);
        assert!(rep.denied());
        assert_eq!(fx.log.denial_count(), 1);
    }

    #[test]
    fn missing_param_is_engine_error_and_else() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("activate");
        fx.attach(
            Rule::new(
                "r",
                e,
                CondExpr::check(Check::UserExists(ParamRef::param("user"))),
            )
            .otherwise(vec![ActionSpec::RaiseError("denied".into())]),
        );
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(rep.errors.len(), 1);
        assert!(rep.denied(), "malformed condition falls through to Else");
    }

    #[test]
    fn cascaded_rules_via_raise_event() {
        // The paper's Rule 4 shape: AAR raises addSessionRole, CC guards it.
        let mut fx = Fixture::new();
        let e_req = fx.detector.primitive("addActiveRole");
        let e_add = fx.detector.primitive("addSessionRole");
        fx.attach(
            Rule::new("AAR", e_req, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
                event: "addSessionRole".into(),
                params: vec![
                    ("user".into(), ParamRef::param("user")),
                    ("session".into(), ParamRef::param("session")),
                ],
            }]),
        );
        fx.attach(
            Rule::new("CC", e_add, CondExpr::True).then(vec![ActionSpec::AddSessionRole {
                user: ParamRef::param("user"),
                session: ParamRef::param("session"),
                role: ParamRef::Int(9),
            }]),
        );
        let mut rt = fx.rt();
        let rep = Executor::new()
            .dispatch(
                &mut rt,
                e_req,
                Params::new().with("user", 1i64).with("session", 2i64),
            )
            .unwrap();
        assert_eq!(rep.fired, 2, "both AAR and cascaded CC fired");
        assert_eq!(fx.state.log, vec!["add_session_role(1,2,9)"]);
    }

    #[test]
    fn cascade_depth_limited() {
        // A rule that re-raises its own event loops forever without a limit.
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("loop");
        fx.attach(
            Rule::new("L", e, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
                event: "loop".into(),
                params: vec![],
            }]),
        );
        let exec = Executor {
            max_cascade_depth: 5,
            ..Executor::default()
        };
        let mut rt = fx.rt();
        let rep = exec.dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(rep.fired, 6, "initial + 5 cascades");
        assert_eq!(rep.errors.len(), 1, "then the depth guard cut it");
    }

    #[test]
    fn acyclic_hint_lifts_depth_guard() {
        // A finite chain deeper than the limit: cut without the hint,
        // completed with it.
        let mut fx = Fixture::new();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(fx.detector.primitive(&format!("c{i}")));
        }
        for (i, &id) in ids.iter().enumerate().take(9) {
            fx.attach(Rule::new(format!("C{i}"), id, CondExpr::True).then(vec![
                ActionSpec::RaiseEvent {
                    event: format!("c{}", i + 1),
                    params: vec![],
                },
            ]));
        }
        let guarded = Executor {
            max_cascade_depth: 5,
            ..Executor::default()
        };
        let mut rt = fx.rt();
        let rep = guarded.dispatch(&mut rt, ids[0], Params::new()).unwrap();
        assert_eq!(rep.errors.len(), 1, "chain cut at depth 5");

        let proved = Executor {
            max_cascade_depth: 5,
            assume_acyclic: true,
        };
        let mut rt = fx.rt();
        let rep = proved.dispatch(&mut rt, ids[0], Params::new()).unwrap();
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
        assert_eq!(rep.fired, 9, "whole chain ran");
    }

    #[test]
    fn priority_order_and_disable() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("e");
        fx.attach(
            Rule::new("second", e, CondExpr::True)
                .priority(1)
                .then(vec![ActionSpec::Custom {
                    name: "b".into(),
                    args: vec![],
                }]),
        );
        fx.attach(
            Rule::new("first", e, CondExpr::True)
                .priority(10)
                .then(vec![ActionSpec::Custom {
                    name: "a".into(),
                    args: vec![],
                }]),
        );
        let mut rt = fx.rt();
        Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(fx.state.log, vec!["custom(a,[])", "custom(b,[])"]);
        // Disabling skips a rule.
        fx.pool.set_enabled("first", false);
        fx.state.log.clear();
        let mut rt = fx.rt();
        Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(fx.state.log, vec!["custom(b,[])"]);
    }

    #[test]
    fn denial_short_circuits_lower_priority_rules() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("e");
        fx.attach(
            Rule::new("guard", e, CondExpr::False)
                .priority(10)
                .otherwise(vec![ActionSpec::RaiseError("capped".into())]),
        );
        fx.attach(
            Rule::new("apply", e, CondExpr::True).then(vec![ActionSpec::AddSessionRole {
                user: ParamRef::Int(1),
                session: ParamRef::Int(2),
                role: ParamRef::Int(3),
            }]),
        );
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert!(rep.denied());
        assert!(
            fx.state.log.is_empty(),
            "the apply rule must not run after a guard denial"
        );
    }

    #[test]
    fn denying_action_aborts_rest_of_rule() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("e");
        fx.attach(Rule::new("r", e, CondExpr::True).then(vec![
            ActionSpec::RaiseError("stop".into()),
            ActionSpec::Alert("never".into()),
        ]));
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert!(rep.denied());
        assert!(rep.alerts.is_empty(), "actions after a denial are skipped");
    }

    #[test]
    fn active_security_disables_rule_class() {
        let mut fx = Fixture::new();
        let e = fx.detector.primitive("storm");
        let x = fx.detector.primitive("x");
        fx.attach(Rule::new("victim", x, CondExpr::True).class(RuleClass::ActivityControl));
        fx.attach(
            Rule::new("guard", e, CondExpr::True)
                .class(RuleClass::ActiveSecurity)
                .then(vec![
                    ActionSpec::Alert("storm detected".into()),
                    ActionSpec::DisableRuleClass(RuleClass::ActivityControl),
                ]),
        );
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, e, Params::new()).unwrap();
        assert_eq!(rep.alerts, vec!["storm detected".to_string()]);
        assert!(!fx.pool.get_by_name("victim").unwrap().enabled);
        assert!(fx.pool.get_by_name("guard").unwrap().enabled);
        assert_eq!(fx.log.alert_count(), 1);
    }

    #[test]
    fn advance_runs_temporal_rules() {
        use snoop::EventExpr;
        let mut fx = Fixture::new();
        let open = fx.detector.primitive("open");
        let plus = fx
            .detector
            .define(&EventExpr::plus(
                EventExpr::named("open"),
                Dur::from_secs(10),
            ))
            .unwrap();
        fx.detector.watch(plus);
        fx.attach(Rule::new("close-after", plus, CondExpr::True).then(vec![
            ActionSpec::DropSessionRole {
                user: ParamRef::param("user"),
                session: ParamRef::param("session"),
                role: ParamRef::Int(4),
            },
        ]));
        let mut rt = fx.rt();
        let exec = Executor::new();
        exec.dispatch(
            &mut rt,
            open,
            Params::new().with("user", 1i64).with("session", 7i64),
        )
        .unwrap();
        let rep = exec.advance(&mut rt, Dur::from_secs(20)).unwrap();
        assert_eq!(rep.fired, 1);
        assert_eq!(fx.state.log, vec!["drop_session_role(1,7,4)"]);
    }

    #[test]
    fn source_is_distinguishes_or_branches() {
        use snoop::EventExpr;
        let mut fx = Fixture::new();
        let nurse = fx.detector.primitive("nurse_disable");
        let _doctor = fx.detector.primitive("doctor_disable");
        let or = fx
            .detector
            .define(&EventExpr::or(
                EventExpr::named("nurse_disable"),
                EventExpr::named("doctor_disable"),
            ))
            .unwrap();
        fx.detector.watch(or);
        fx.attach(
            Rule::new(
                "tsod",
                or,
                CondExpr::check(Check::SourceIs("nurse_disable".into())),
            )
            .then(vec![ActionSpec::Alert("nurse branch".into())])
            .otherwise(vec![ActionSpec::Alert("doctor branch".into())]),
        );
        let mut rt = fx.rt();
        let exec = Executor::new();
        let rep = exec.dispatch(&mut rt, nurse, Params::new()).unwrap();
        assert_eq!(rep.alerts, vec!["nurse branch".to_string()]);
        let doctor = fx.detector.lookup("doctor_disable").unwrap();
        let mut rt = fx.rt();
        let rep = exec.dispatch(&mut rt, doctor, Params::new()).unwrap();
        assert_eq!(rep.alerts, vec!["doctor branch".to_string()]);
    }

    /// A request runs its rules on its fields where the event is a leaf
    /// and is raised with them as parameters where a composite listens:
    /// either way the report, the audit entries and the detector's counts
    /// are those of `dispatch`, interpreted and through a plan. The rule's
    /// follow-up raise forwards a parameter the request lacks to an event
    /// nothing listens to — counted without being built through the plan,
    /// raised through the detector by the interpreter, and failing alike.
    #[test]
    fn dispatch_request_is_dispatch() {
        use crate::compile::{compile, NoBake};
        use snoop::EventExpr;
        let fixture = || {
            let mut fx = Fixture::new();
            let leaf = fx.detector.primitive("activate");
            let fed = fx.detector.primitive("fed");
            fx.detector.primitive("added");
            let plus = fx
                .detector
                .define(&EventExpr::plus(EventExpr::named("fed"), Dur::from_secs(5)))
                .unwrap();
            fx.detector.watch(plus);
            let when = |source: &str| {
                CondExpr::all(vec![
                    CondExpr::check(Check::UserExists(ParamRef::param("user"))),
                    CondExpr::check(Check::ParamEquals {
                        name: "session".into(),
                        value: snoop::Value::Int(2),
                    }),
                    CondExpr::check(Check::SourceIs(source.into())),
                ])
            };
            let then = |forward: &str| {
                vec![
                    ActionSpec::AddSessionRole {
                        user: ParamRef::param("user"),
                        session: ParamRef::param("session"),
                        role: ParamRef::Int(5),
                    },
                    ActionSpec::RaiseEvent {
                        event: "added".into(),
                        params: vec![("role".into(), ParamRef::param(forward))],
                    },
                ]
            };
            fx.attach(Rule::new("on-leaf", leaf, when("activate")).then(then("role")));
            fx.attach(Rule::new("on-fed", fed, when("fed")).then(then("user")));
            (fx, leaf, fed)
        };
        // `(fired, else taken, errors, timers)` each case must show.
        let cases: [(usize, &[(&str, i64)], _); 4] = [
            (0, &[("user", 1), ("session", 2), ("role", 5)], (1, 0, 0, 0)),
            (0, &[("user", 1), ("session", 2)], (1, 0, 1, 0)),
            (0, &[("user", 1), ("session", 3)], (0, 1, 0, 0)),
            (1, &[("user", 1), ("session", 2)], (1, 0, 0, 1)),
        ];
        for planned in [false, true] {
            for (event, fields, shows) in cases {
                let (mut typed, leaf, fed) = fixture();
                let (mut occ, ..) = fixture();
                let event = [leaf, fed][event];
                let plan = planned
                    .then(|| {
                        compile(
                            &typed.pool,
                            &typed.detector,
                            &NoBake,
                            CompiledPool::default(),
                        )
                    })
                    .map(Result::unwrap);
                let mut params = Params::new();
                for &(n, v) in fields {
                    params.set(n, v);
                }
                let exec = Executor::new();
                let mut rt = typed.rt();
                rt.plan = plan.as_ref();
                let a = exec.dispatch_request(&mut rt, event, fields).unwrap();
                let mut rt = occ.rt();
                rt.plan = plan.as_ref();
                let b = exec.dispatch(&mut rt, event, params).unwrap();
                let case = format!("plan {planned}, {event} {fields:?}");
                assert_eq!(a, b, "{case}");
                let timers = typed.detector.pending_timers();
                assert_eq!(
                    (a.fired, a.else_taken, a.errors.len(), timers),
                    shows,
                    "{case}"
                );
                assert_eq!(typed.log.entries(), occ.log.entries(), "{case}");
                assert_eq!(typed.state.log, occ.state.log, "{case}");
                let counts =
                    |d: &Detector| (d.raised_count(), d.detected_count(), d.pending_timers());
                assert_eq!(counts(&typed.detector), counts(&occ.detector), "{case}");
            }
        }
        assert_eq!(
            Executor::new().dispatch_request(&mut Fixture::new().rt(), EventId(0), &[]),
            Err(DetectorError::UnknownEvent("E0".into()))
        );
    }

    #[test]
    fn unwatched_composite_does_not_trigger() {
        use snoop::EventExpr;
        let mut fx = Fixture::new();
        let a = fx.detector.primitive("a");
        let seq = fx
            .detector
            .define(&EventExpr::seq(EventExpr::named("a"), EventExpr::prim("b")))
            .unwrap();
        // Rule subscribed but event NOT watched: adding a rule should go
        // hand in hand with watching; the engine layer does that. Here we
        // verify the executor simply sees no detection.
        fx.pool.add(Rule::new("r", seq, CondExpr::True));
        let mut rt = fx.rt();
        let rep = Executor::new().dispatch(&mut rt, a, Params::new()).unwrap();
        assert_eq!(rep.fired, 0);
    }
}

#[cfg(test)]
mod cond_if_tests {
    use super::*;
    use crate::lang::{Check, ParamRef};
    use crate::state::PermissiveState;

    /// Rule 6's branch shape: `if source == nurse { doctor active } else
    /// { nurse active }`, evaluated through CondExpr::If.
    #[test]
    fn if_condition_branches_on_guard() {
        let mut detector = Detector::new(Ts::ZERO);
        let nurse = detector.primitive("nurse_disable");
        let doctor = detector.primitive("doctor_disable");
        let or = detector
            .define(&snoop::EventExpr::or(
                snoop::EventExpr::named("nurse_disable"),
                snoop::EventExpr::named("doctor_disable"),
            ))
            .unwrap();
        let mut pool = RulePool::new();
        let cond = CondExpr::If {
            guard: Box::new(CondExpr::check(Check::SourceIs("nurse_disable".into()))),
            then: Box::new(CondExpr::check(Check::ParamEquals {
                name: "doctor_ok".into(),
                value: snoop::Value::Bool(true),
            })),
            otherwise: Box::new(CondExpr::check(Check::ParamEquals {
                name: "nurse_ok".into(),
                value: snoop::Value::Bool(true),
            })),
        };
        attach_rule(
            &mut detector,
            &mut pool,
            Rule::new("tsod", or, cond)
                .then(vec![ActionSpec::Alert("disable allowed".into())])
                .otherwise(vec![ActionSpec::RaiseError("denied".into())]),
        );
        let mut state = PermissiveState::default();
        let mut log = AuditLog::new();
        let exec = Executor::new();

        // Nurse branch, doctor still active: allowed.
        let mut rt = Runtime {
            detector: &mut detector,
            pool: &mut pool,
            state: &mut state,
            log: &mut log,
            plan: None,
        };
        let rep = exec
            .dispatch(&mut rt, nurse, Params::new().with("doctor_ok", true))
            .unwrap();
        assert_eq!(rep.alerts.len(), 1);
        // Doctor branch, nurse not active: denied.
        let rep = exec
            .dispatch(&mut rt, doctor, Params::new().with("nurse_ok", false))
            .unwrap();
        assert!(rep.denied());
        // ParamRef sanity: unrelated literals don't disturb branching.
        let _ = ParamRef::Int(0);
    }
}
