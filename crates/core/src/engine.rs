//! The OWTE access-control engine — the paper's contribution, assembled.
//!
//! [`Engine`] owns an instantiated policy (monitor, event graph, generated
//! rule pool) and exposes the RBAC functional-specification surface. Every
//! operation is raised as a primitive event and *enforced by the generated
//! rules*: the engine itself contains no authorization logic beyond
//! interpreting the executor's report. Denials feed the `accessDenied`
//! event, driving the active-security rules.

use crate::bridge::BridgeView;
use crate::context::ContextState;
use crate::journal::{JournalOp, Outcome};
use crate::privacy::PrivacyState;
use crate::snapshot::PolicyView;
use parking_lot::Mutex;
use policy::{
    events, CompiledPolicy, InstantiateError, Instantiated, PolicyGraph, RegenReport, VerifyGate,
};
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use sentinel::{AuditLog, CompiledPool, ExecReport, Executor, Runtime};
use serde::{Deserialize, Serialize};
use snoop::{DetectorError, Dur, EventId, Params, Ts};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why an engine operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The rules denied the request (messages from `raise error` actions
    /// and monitor rejections).
    Denied(Vec<String>),
    /// A name could not be resolved.
    UnknownName(String),
    /// The detector rejected the operation (unknown event, clock
    /// regression).
    Detector(DetectorError),
    /// No rule handled the request, or a rule was malformed.
    Unhandled(String),
    /// The shared engine was poisoned by a panic mid-write and fails
    /// closed: state may be torn, so mutations and locked reads are
    /// refused until the process restarts (snapshot reads keep serving).
    Poisoned,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Denied(msgs) => write!(f, "denied: {}", msgs.join("; ")),
            EngineError::UnknownName(n) => write!(f, "unknown name {n:?}"),
            EngineError::Detector(e) => write!(f, "detector: {e}"),
            EngineError::Unhandled(m) => write!(f, "unhandled: {m}"),
            EngineError::Poisoned => {
                write!(f, "engine poisoned by a panicking writer; failing closed")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DetectorError> for EngineError {
    fn from(e: DetectorError) -> Self {
        EngineError::Detector(e)
    }
}

/// The rule-driven access-control engine.
///
/// Serializable so the durable layer can snapshot the complete running
/// state (detector graph, timers, monitor, audit log) and restore it
/// without replaying history.
#[derive(Clone, Serialize, Deserialize)]
pub struct Engine {
    inst: Instantiated,
    privacy: PrivacyState,
    context: ContextState,
    denials: VecDeque<Ts>,
    log: AuditLog,
    exec: Executor,
    /// Re-entrancy guard for the denial → `accessDenied` cascade.
    in_denial_cascade: bool,
    /// Cap on remembered denial timestamps.
    denial_history: usize,
    /// Monotonic write epoch: bumped by every state-changing operation
    /// (applied mutations, clock movement, session churn, policy or rule
    /// changes). Published read-path snapshots are current iff their epoch
    /// equals this. Decision-only dispatches do not bump it.
    #[serde(default)]
    state_version: u64,
    /// High-water mark of [`ExecReport::max_depth`] over every dispatch —
    /// the deepest synchronous cascade ever observed, checkable against
    /// the static analyzer's proved bound
    /// ([`policy::AnalysisReport::max_sync_depth`]).
    #[serde(default)]
    deepest_cascade: usize,
    /// The compiled execution plan, when the pool has one (see [`Plan`]).
    /// Pure derived state — rebuilt from the instantiation on demand,
    /// never persisted; a restored engine lowers its pool on first use,
    /// which the sim's crash-restart schedules exercise.
    #[serde(skip)]
    plan: Plan,
    /// Per-role count of users active in that role **outside** this
    /// engine, injected by a sharding front so cross-user reads
    /// (cardinality caps, `RoleActiveAnywhere`) see the global picture.
    /// Volatile front-state: not journaled; a recovered shard gets a
    /// fresh push from its coordinator.
    #[serde(skip)]
    external_active: BTreeMap<RoleId, usize>,
    /// What read-path snapshots and the CA rule's `SessionHasPermission`
    /// share of the policy (see [`PolicyView`]).
    /// Derived state with the compiled plan's lifecycle: built on first
    /// use, never persisted, dropped by [`Engine::apply_policy`] — the
    /// only operation that changes PA, the hierarchy, the permission set
    /// or the privacy state.
    #[serde(skip)]
    view: OnceLock<Arc<PolicyView>>,
    /// The GTRBAC half of [`Engine::validity_horizon`], remembered.
    #[serde(skip)]
    temporal_horizon: HorizonMemo,
}

/// `(computed_at, next)`: the answer `next_transition_after(computed_at)`
/// gave. The transitions after an instant are a fixed set of instants, so
/// the same answer holds for every `t` with `computed_at <= t < next`, and
/// for good when `next` is `None`; [`Engine::apply_policy`], which changes
/// the periodic policies, clears it. Behind a lock only because
/// [`Engine::validity_horizon`] takes `&self` and the engine stays `Sync`.
struct HorizonMemo(Mutex<Option<(Ts, Option<Ts>)>>);

impl Default for HorizonMemo {
    fn default() -> HorizonMemo {
        HorizonMemo(Mutex::new(None))
    }
}

impl Clone for HorizonMemo {
    fn clone(&self) -> HorizonMemo {
        HorizonMemo(Mutex::new(*self.0.lock()))
    }
}

/// What the engine knows about lowering its current pool. The executor is
/// handed the plan when there is one and interprets the pool otherwise:
/// nothing else selects the evaluator.
#[derive(Clone, Default)]
enum Plan {
    /// Not tried for this pool yet: a restored engine.
    #[default]
    Untried,
    /// The analyzer licensed the pool (proved terminating, zero errors).
    Armed(CompiledPolicy),
    /// The pool is not licensed, or was built with the gate off.
    Unlicensed,
    /// [`Engine::interpreted`]: the reference evaluator never lowers.
    Oracle,
}

impl Plan {
    /// Lower `inst` under the analyzer's verdict, carrying over what
    /// `previous` — this engine's plan before `inst` last changed, or an
    /// empty one — lowered from rules the pool still holds.
    fn lowered(inst: &Instantiated, verdict: &policy::Verdict, previous: CompiledPool) -> Plan {
        policy::compile_pool(inst, verdict, previous).map_or(Plan::Unlicensed, Plan::Armed)
    }

    /// The plan, lowering `inst` first if that was never tried. The
    /// analyzer only runs when the executor holds a termination proof
    /// (`provable`) — which is exactly when it can license the pool.
    fn get(&mut self, inst: &Instantiated, provable: bool) -> Option<&CompiledPolicy> {
        if matches!(self, Plan::Untried) {
            *self = if provable {
                Plan::lowered(inst, &policy::verdict(inst), CompiledPool::default())
            } else {
                Plan::Unlicensed
            };
        }
        match self {
            Plan::Armed(compiled) => Some(compiled),
            _ => None,
        }
    }
}

/// An event to dispatch: pre-resolved (from the plan's tables) or by name.
#[derive(Clone, Copy)]
enum EventRef<'a> {
    /// A pre-resolved event id.
    Id(EventId),
    /// An event name, resolved by the detector at dispatch time.
    Name(&'a str),
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.inst.graph.name)
            .field("now", &self.now())
            .field("rules", &self.inst.pool.len())
            .field("log_entries", &self.log.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Instantiate a policy and build the engine over it, with the logical
    /// clock starting at `start`.
    ///
    /// The generated pool is statically verified first
    /// ([`VerifyGate::DenyOnError`]): pools with `Error`-severity
    /// diagnostics are refused, and a proved-terminating pool lets the
    /// executor skip its per-dispatch cascade-depth bookkeeping. Use
    /// [`Engine::from_policy_gated`] to change the gate.
    pub fn from_policy(graph: &PolicyGraph, start: Ts) -> Result<Engine, InstantiateError> {
        Engine::from_policy_gated(graph, start, VerifyGate::DenyOnError)
    }

    /// [`Engine::from_policy`] with an explicit verification gate.
    pub fn from_policy_gated(
        graph: &PolicyGraph,
        start: Ts,
        gate: VerifyGate,
    ) -> Result<Engine, InstantiateError> {
        let (inst, verdict) = policy::instantiate_verified(graph, start, gate)?;
        let privacy = PrivacyState::from_policy(graph, &inst.binding);
        let context = ContextState::from_policy(graph, &inst.binding);
        // Only trust the termination proof when the gate actually
        // verified the pool: with the gate off, the cascade-depth guard
        // stays armed.
        let verified = gate != VerifyGate::Off;
        let exec = Executor {
            assume_acyclic: verified && verdict.proved_terminating(),
            ..Executor::new()
        };
        // Eagerly lower the verified pool into the compiled plan; an
        // unlicensed pool (or an ungated build) keeps the interpreter.
        let plan = if verified {
            Plan::lowered(&inst, &verdict, CompiledPool::default())
        } else {
            Plan::Unlicensed
        };
        Ok(Engine {
            inst,
            privacy,
            context,
            denials: VecDeque::new(),
            log: AuditLog::new(),
            exec,
            in_denial_cascade: false,
            denial_history: 65_536,
            state_version: 0,
            deepest_cascade: 0,
            plan,
            external_active: BTreeMap::new(),
            view: OnceLock::new(),
            temporal_horizon: HorizonMemo::default(),
        })
    }

    /// The reference evaluator: [`Engine::from_policy`], except that this
    /// engine interprets its rule pool on every dispatch and never lowers
    /// it, [`Engine::apply_policy`] included. Decisions, reports and audit
    /// entries are the same by contract; it is the oracle the compiled
    /// plan is held against, the way [`crate::DirectEngine`] is the
    /// reference monitor. For tests and benchmarks: nothing a deployment
    /// runs builds one.
    pub fn interpreted(graph: &PolicyGraph, start: Ts) -> Result<Engine, InstantiateError> {
        let mut engine = Engine::from_policy(graph, start)?;
        engine.plan = Plan::Oracle;
        Ok(engine)
    }

    /// Parse a DSL policy text and build the engine.
    pub fn from_source(src: &str, start: Ts) -> Result<Engine, Box<dyn std::error::Error>> {
        let graph = policy::parse(src)?;
        Ok(Engine::from_policy(&graph, start)?)
    }

    // ---- introspection ------------------------------------------------------

    /// The underlying monitor (read-only).
    pub fn system(&self) -> &rbac::System {
        &self.inst.system
    }

    /// The generated rule pool (read-only).
    pub fn pool(&self) -> &sentinel::RulePool {
        &self.inst.pool
    }

    /// Name ↔ id bindings.
    pub fn binding(&self) -> &policy::Binding {
        &self.inst.binding
    }

    /// The high-level policy this engine was generated from.
    pub fn policy(&self) -> &PolicyGraph {
        &self.inst.graph
    }

    /// Generation statistics.
    pub fn stats(&self) -> policy::GenStats {
        self.inst.stats
    }

    /// The audit log.
    pub fn log(&self) -> &AuditLog {
        &self.log
    }

    /// Cap the audit log's retention (`None` = unbounded). Eviction keeps
    /// running totals correct — see [`AuditLog::set_cap`]. Size the cap
    /// above the largest active-security window so `denials_since`
    /// queries stay complete.
    pub fn set_log_cap(&mut self, cap: Option<usize>) {
        self.log.set_cap(cap);
    }

    /// Purposes and object policies.
    pub fn privacy(&self) -> &PrivacyState {
        &self.privacy
    }

    /// The environment context (read-only; mutate via
    /// [`Engine::set_context`]).
    pub fn context(&self) -> &ContextState {
        &self.context
    }

    /// Current logical time.
    pub fn now(&self) -> Ts {
        self.inst.detector.now()
    }

    /// The write epoch (see the field docs): compare against a captured
    /// [`crate::AuthSnapshot::epoch`] to decide whether the snapshot is
    /// still current.
    pub fn state_version(&self) -> u64 {
        self.state_version
    }

    fn bump_version(&mut self) {
        self.state_version = self.state_version.wrapping_add(1);
    }

    /// Deepest synchronous rule cascade any dispatch has reached (see the
    /// field docs). The model checker asserts this never exceeds the
    /// analyzer's proved bound.
    pub fn deepest_cascade(&self) -> usize {
        self.deepest_cascade
    }

    /// Inject the per-role counts of users active **outside** this engine
    /// (see the field docs). Cross-user rule reads — cardinality caps,
    /// `RoleActiveAnywhere` — add these to the local counts, so a shard
    /// makes the same decision (and writes the same audit entries) a
    /// single global engine would. A changed map bumps the write epoch:
    /// published snapshots may answer differently once remote activations
    /// move.
    pub fn set_external_active(&mut self, map: BTreeMap<RoleId, usize>) {
        if self.external_active != map {
            self.external_active = map;
            self.bump_version();
        }
    }

    /// The externally-injected per-role activation counts (empty outside a
    /// sharded deployment).
    pub fn external_active(&self) -> &BTreeMap<RoleId, usize> {
        &self.external_active
    }

    /// Record a denial that happened on a **different** shard so
    /// `denials_at_least` windows (active-security rules) see the global
    /// denial stream. History-only: no `accessDenied` event is raised here
    /// — the home shard already ran that cascade.
    pub fn note_external_denial(&mut self, at: Ts) {
        self.denials.push_back(at);
        while self.denials.len() > self.denial_history {
            self.denials.pop_front();
        }
        self.bump_version();
    }

    /// Capture an immutable read-path snapshot of the current
    /// authorization state (see [`crate::AuthSnapshot`]). Shares the
    /// session table and the policy view with the engine: O(1) plus the
    /// per-capture header.
    pub fn snapshot(&self) -> crate::snapshot::AuthSnapshot {
        crate::snapshot::AuthSnapshot::capture(self)
    }

    /// The policy-only state every snapshot shares and the CA rule's
    /// `SessionHasPermission` reads, built on first use after
    /// construction, restore or [`Engine::apply_policy`].
    pub fn policy_view(&self) -> &Arc<PolicyView> {
        self.view
            .get_or_init(|| Arc::new(PolicyView::build(&self.inst.system, &self.privacy)))
    }

    /// The event detector (read-only; the snapshot soundness gate walks the
    /// event graph).
    pub(crate) fn detector_ref(&self) -> &snoop::Detector {
        &self.inst.detector
    }

    /// When the earliest pending detector timer fires, if any. A virtual-
    /// time scheduler advances to exactly this instant to fire it.
    pub fn next_timer_at(&self) -> Option<Ts> {
        self.inst.detector.next_timer_at()
    }

    /// `(primitive raises, watched detections)` so far: the detector's
    /// counters, which a request counts the same whichever way it enters.
    pub fn event_counts(&self) -> (u64, u64) {
        let detector = &self.inst.detector;
        (detector.raised_count(), detector.detected_count())
    }

    /// Deadlines of all pending detector timers, sorted and deduplicated
    /// (see [`snoop::Detector::pending_timer_deadlines`]).
    pub fn pending_timer_deadlines(&self) -> Vec<Ts> {
        self.inst.detector.pending_timer_deadlines()
    }

    /// The earliest instant at which deferred machinery (a pending
    /// detector timer or a GTRBAC periodic enable/disable boundary) may
    /// change an authorization decision — the validity horizon a
    /// [`crate::AuthSnapshot`] captured now would carry. `None` means no
    /// deferred transition is scheduled. Replica monitors recompute this
    /// from engine state to cross-check a published snapshot's horizon.
    pub fn validity_horizon(&self) -> Option<Ts> {
        let next_timer = self.inst.detector.next_timer_at();
        match (next_timer, self.next_temporal_transition()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The next GTRBAC periodic enable/disable boundary after the current
    /// clock: a walk over every periodic policy, so remembered (see
    /// [`HorizonMemo`]) for as long as the answer holds.
    fn next_temporal_transition(&self) -> Option<Ts> {
        let now = self.now();
        let mut memo = self.temporal_horizon.0.lock();
        match *memo {
            Some((at, next)) if at <= now && next.is_none_or(|n| now < n) => {
                debug_assert_eq!(next, self.inst.temporal.next_transition_after(now));
                next
            }
            _ => {
                let next = self.inst.temporal.next_transition_after(now);
                *memo = Some((now, next));
                next
            }
        }
    }

    /// Run the static rule-pool analyzer over the current instantiation.
    pub fn analyze(&self) -> policy::AnalysisReport {
        policy::analyze(&self.inst)
    }

    /// Is the executor running with the proved-acyclic fast path (set when
    /// the analyzer proved the pool terminating at build/apply time)?
    pub fn proved_acyclic(&self) -> bool {
        self.exec.assume_acyclic
    }

    /// Alerts raised so far (active security).
    pub fn alerts(&self) -> Vec<String> {
        self.log
            .of_kind(&sentinel::AuditKind::Alert)
            .map(|e| e.message.clone())
            .collect()
    }

    /// Resolve entity names.
    pub fn user_id(&self, name: &str) -> Result<UserId, EngineError> {
        self.inst
            .binding
            .users
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))
    }

    /// Resolve a role name.
    pub fn role_id(&self, name: &str) -> Result<RoleId, EngineError> {
        self.inst
            .binding
            .roles
            .get(name)
            .copied()
            .ok_or_else(|| EngineError::UnknownName(name.to_string()))
    }

    fn role_name(&self, role: RoleId) -> Result<String, EngineError> {
        self.inst
            .binding
            .role_name(role)
            .map(str::to_string)
            .ok_or_else(|| EngineError::UnknownName(role.to_string()))
    }

    // ---- the event pump ------------------------------------------------------

    /// Raise a primitive event through the rule system and post-process
    /// denials (active-security feed).
    pub fn dispatch(&mut self, event: &str, params: Params) -> Result<ExecReport, EngineError> {
        self.dispatch_ref(EventRef::Name(event), params)
    }

    /// Run `f` on the executor and the engine's parts borrowed as its
    /// runtime. The plan goes along when the pool has one; which
    /// evaluator then runs is the executor's decision, not made here.
    fn with_runtime<R>(&mut self, f: impl FnOnce(&Executor, &mut Runtime<'_>) -> R) -> R {
        let plan = self.plan.get(&self.inst, self.exec.assume_acyclic);
        // `policy_view()` by field: the monitor is borrowed mutably below.
        let policy = self
            .view
            .get_or_init(|| Arc::new(PolicyView::build(&self.inst.system, &self.privacy)));
        let mut view = BridgeView {
            sys: &mut self.inst.system,
            temporal: &self.inst.temporal,
            constraints: &self.inst.constraints,
            privacy: &self.privacy,
            policy,
            context: &self.context,
            denials: &self.denials,
            external: &self.external_active,
        };
        let mut rt = Runtime {
            detector: &mut self.inst.detector,
            pool: &mut self.inst.pool,
            state: &mut view,
            log: &mut self.log,
            plan: plan.map(|compiled| &compiled.plan),
        };
        f(&self.exec, &mut rt)
    }

    /// Book what a dispatch or a clock advance did and feed its denials
    /// to active security.
    fn settle(&mut self, report: &ExecReport, moved: bool) -> Result<(), EngineError> {
        if moved || report.mutations > 0 {
            self.bump_version();
        }
        self.deepest_cascade = self.deepest_cascade.max(report.max_depth);
        self.after_dispatch(report)
    }

    /// Raise `ev` through the rule system. An unknown name comes back as
    /// the detector's error, whichever evaluator the pool runs on.
    fn dispatch_ref(
        &mut self,
        ev: EventRef<'_>,
        params: Params,
    ) -> Result<ExecReport, EngineError> {
        let report = self.with_runtime(|exec, rt| match ev {
            EventRef::Id(id) => exec.dispatch(rt, id, params),
            EventRef::Name(name) => exec.dispatch_named(rt, name, params),
        })?;
        self.settle(&report, false)?;
        Ok(report)
    }

    /// Run a request whose event the armed plan resolved: its fields go to
    /// the rules as they are ([`Executor::dispatch_request`]).
    fn dispatch_request(
        &mut self,
        id: EventId,
        fields: &[(&'static str, i64)],
    ) -> Result<ExecReport, EngineError> {
        let report = self.with_runtime(|exec, rt| exec.dispatch_request(rt, id, fields))?;
        self.settle(&report, false)?;
        Ok(report)
    }

    /// The by-name fallback of a request, taken without an armed plan —
    /// and by [`Engine::interpreted`], which raises everything through the
    /// detector: the fields become the occurrence's parameters.
    fn dispatch_fields_named(
        &mut self,
        name: &str,
        fields: &[(&'static str, i64)],
    ) -> Result<ExecReport, EngineError> {
        self.dispatch(name, sentinel::params_of(fields))
    }

    /// Advance the logical clock, firing temporal rules on the way.
    pub fn advance_to(&mut self, ts: Ts) -> Result<ExecReport, EngineError> {
        let before = self.now();
        let report = self.with_runtime(|exec, rt| exec.advance_to(rt, ts))?;
        // Clock movement alone invalidates snapshots: their `from` anchor
        // is stale even when no timer fired.
        let moved = self.now() != before;
        self.settle(&report, moved)?;
        Ok(report)
    }

    /// Advance the clock by a duration.
    pub fn advance(&mut self, d: Dur) -> Result<ExecReport, EngineError> {
        self.advance_to(self.now() + d)
    }

    /// Record denials and feed the `accessDenied` event (once per dispatch;
    /// re-entrancy guarded so security rules cannot recurse).
    fn after_dispatch(&mut self, report: &ExecReport) -> Result<(), EngineError> {
        if report.denials.is_empty() || self.in_denial_cascade {
            return Ok(());
        }
        let now = self.now();
        for _ in &report.denials {
            self.denials.push_back(now);
        }
        while self.denials.len() > self.denial_history {
            self.denials.pop_front();
        }
        self.in_denial_cascade = true;
        // A timestamp, not an id, and the active-security counters are
        // composites: this one goes through the detector.
        let result = self.dispatch_admin_params(
            |c| c.access_denied,
            events::ACCESS_DENIED,
            Params::with_capacity(1).with("time", now),
        );
        self.in_denial_cascade = false;
        result.map(|_| ())
    }

    // ---- compiled-plan lifecycle ----------------------------------------------

    /// The armed plan and its pre-resolved operation events, if the pool
    /// has one.
    fn armed_plan(&mut self) -> Option<&CompiledPolicy> {
        self.plan.get(&self.inst, self.exec.assume_acyclic)
    }

    /// Is a compiled plan currently armed?
    pub fn compiled_active(&self) -> bool {
        matches!(self.plan, Plan::Armed(_))
    }

    /// How many rules the armed plan's last (re)build lowered itself, the
    /// rest having been carried over from the plan before it (see
    /// [`sentinel::compile()`]). `None` when no plan is armed.
    pub fn plan_rules_lowered(&self) -> Option<usize> {
        match &self.plan {
            Plan::Armed(compiled) => Some(compiled.plan.lowered),
            _ => None,
        }
    }

    /// Deterministic listing of the compiled plan (dispatch tables,
    /// condition bytecode, bound actions), compiling first if needed.
    /// `None` when the pool is not licensed.
    pub fn plan_text(&mut self) -> Option<String> {
        let plan = self.plan.get(&self.inst, self.exec.assume_acyclic)?;
        Some(plan.plan.dump(&self.inst.detector))
    }

    /// Dispatch a per-role operation request: by pre-resolved id on a
    /// table hit, else by constructed name (also the path that reports
    /// unknown roles).
    fn dispatch_role_event(
        &mut self,
        table: fn(&CompiledPolicy) -> &[Option<EventId>],
        named: fn(&str) -> String,
        role: RoleId,
        fields: &[(&'static str, i64)],
    ) -> Result<ExecReport, EngineError> {
        let hit = self
            .armed_plan()
            .and_then(|c| CompiledPolicy::role_event(table(c), role));
        match hit {
            Some(id) => self.dispatch_request(id, fields),
            None => {
                let name = self.role_name(role)?;
                self.dispatch_fields_named(&named(&name), fields)
            }
        }
    }

    /// Raise a fixed administrative event whose parameters are not ids,
    /// through the detector: by pre-resolved id when the plan is armed,
    /// else by name.
    fn dispatch_admin_params(
        &mut self,
        resolved: fn(&CompiledPolicy) -> Option<EventId>,
        name: &str,
        params: Params,
    ) -> Result<ExecReport, EngineError> {
        match self.armed_plan().and_then(resolved) {
            Some(id) => self.dispatch_ref(EventRef::Id(id), params),
            None => self.dispatch(name, params),
        }
    }

    /// Dispatch a request to a fixed administrative event: by pre-resolved
    /// id when the plan is armed, else by name.
    fn dispatch_admin_event(
        &mut self,
        resolved: fn(&CompiledPolicy) -> Option<EventId>,
        name: &str,
        fields: &[(&'static str, i64)],
    ) -> Result<ExecReport, EngineError> {
        match self.armed_plan().and_then(resolved) {
            Some(id) => self.dispatch_request(id, fields),
            None => self.dispatch_fields_named(name, fields),
        }
    }

    fn expect_granted(report: ExecReport) -> Result<(), EngineError> {
        if report.denied() {
            return Err(EngineError::Denied(report.denials));
        }
        if !report.errors.is_empty() {
            return Err(EngineError::Unhandled(report.errors.join("; ")));
        }
        if report.fired == 0 {
            return Err(EngineError::Unhandled(
                "no rule handled the request (activity rules disabled?)".into(),
            ));
        }
        Ok(())
    }

    // ---- the RBAC functional surface, rule-enforced ---------------------------

    /// Run one request: the single mapping from a [`JournalOp`] to the
    /// per-operation methods below. A `CheckAccess` keeps its purpose.
    pub fn submit(&mut self, op: &JournalOp) -> Result<Outcome, EngineError> {
        match op {
            JournalOp::CreateSession { user, initial } => {
                self.create_session(*user, initial).map(Outcome::Session)
            }
            JournalOp::DeleteSession { user, session } => {
                Outcome::done(self.delete_session(*user, *session))
            }
            JournalOp::AddActiveRole {
                user,
                session,
                role,
            } => Outcome::done(self.add_active_role(*user, *session, *role)),
            JournalOp::DropActiveRole {
                user,
                session,
                role,
            } => Outcome::done(self.drop_active_role(*user, *session, *role)),
            JournalOp::CheckAccess {
                session,
                op,
                obj,
                purpose,
            } => self
                .check_access_inner(*session, *op, *obj, *purpose)
                .map(Outcome::Access),
            JournalOp::AssignUser { user, role } => Outcome::done(self.assign_user(*user, *role)),
            JournalOp::DeassignUser { user, role } => {
                Outcome::done(self.deassign_user(*user, *role))
            }
            JournalOp::EnableRole { role } => Outcome::done(self.enable_role(*role)),
            JournalOp::DisableRole { role } => Outcome::done(self.disable_role(*role)),
            JournalOp::SetContext { key, value } => Outcome::done(self.set_context(key, value)),
            JournalOp::AdvanceTo { to } => Outcome::done(self.advance_to(*to)),
            JournalOp::RawEvent { event, params } => {
                Outcome::done(self.dispatch(event, params.clone()))
            }
        }
    }

    /// `CreateSession`: opened directly on the monitor; the initial role
    /// set is activated through the rules, and a rule denial rolls the
    /// session back (matching `rbac::System::create_session`).
    pub fn create_session(
        &mut self,
        user: UserId,
        initial: &[RoleId],
    ) -> Result<SessionId, EngineError> {
        let session = self
            .inst
            .system
            .create_session(user, &[])
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))?;
        self.bump_version();
        for &r in initial {
            if let Err(e) = self.add_active_role(user, session, r) {
                let _ = self.inst.system.delete_session(user, session);
                return Err(e);
            }
        }
        Ok(session)
    }

    /// `DeleteSession`.
    pub fn delete_session(&mut self, user: UserId, session: SessionId) -> Result<(), EngineError> {
        self.inst
            .system
            .delete_session(user, session)
            .map_err(|e| EngineError::Denied(vec![e.to_string()]))?;
        self.bump_version();
        Ok(())
    }

    /// `AddActiveRole` — raises `addActiveRole_<role>`; the generated
    /// AAR/CC rules decide.
    pub fn add_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        let report = self.dispatch_role_event(
            |c| &c.add_active,
            events::add_active,
            role,
            &[
                ("user", i64::from(user.0)),
                ("session", i64::from(session.0)),
                ("role", i64::from(role.0)),
            ],
        )?;
        Self::expect_granted(report)?;
        // A lookup, not `session_roles`: the check must not allocate, or a
        // debug build measures an allocation the request does not make.
        debug_assert_eq!(
            self.inst.system.is_active_in_session(session, role),
            Ok(true),
            "granted activation must be visible in the monitor"
        );
        Ok(())
    }

    /// `DropActiveRole` — raises `dropActiveRole_<role>`.
    pub fn drop_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        let report = self.dispatch_role_event(
            |c| &c.drop_active,
            events::drop_active,
            role,
            &[
                ("user", i64::from(user.0)),
                ("session", i64::from(session.0)),
                ("role", i64::from(role.0)),
            ],
        )?;
        Self::expect_granted(report)
    }

    /// `CheckAccess` — raises `checkAccess`; the globalized CA rule
    /// decides. A denial is an `Ok(false)` (and feeds active security).
    pub fn check_access(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool, EngineError> {
        self.check_access_inner(session, op, obj, -1)
    }

    /// Privacy-aware `CheckAccess` with an explicit access purpose.
    pub fn check_access_for_purpose(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: &str,
    ) -> Result<bool, EngineError> {
        let pid = self
            .privacy
            .purpose_by_name(purpose)
            .ok_or_else(|| EngineError::UnknownName(purpose.to_string()))?;
        self.check_access_inner(session, op, obj, i64::from(pid.0))
    }

    fn check_access_inner(
        &mut self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: i64,
    ) -> Result<bool, EngineError> {
        let report = self.dispatch_admin_event(
            |c| c.check_access,
            events::CHECK_ACCESS,
            &[
                ("session", i64::from(session.0)),
                ("op", i64::from(op.0)),
                ("obj", i64::from(obj.0)),
                ("purpose", purpose),
            ],
        )?;
        if !report.errors.is_empty() {
            return Err(EngineError::Unhandled(report.errors.join("; ")));
        }
        Ok(report.allows > 0 && !report.denied())
    }

    /// `AssignUser` via the administrative rule.
    pub fn assign_user(&mut self, user: UserId, role: RoleId) -> Result<(), EngineError> {
        let report = self.dispatch_admin_event(
            |c| c.assign_user,
            events::ASSIGN_USER,
            &[("user", i64::from(user.0)), ("role", i64::from(role.0))],
        )?;
        Self::expect_granted(report)
    }

    /// `DeassignUser` via the administrative rule.
    pub fn deassign_user(&mut self, user: UserId, role: RoleId) -> Result<(), EngineError> {
        let report = self.dispatch_admin_event(
            |c| c.deassign_user,
            events::DEASSIGN_USER,
            &[("user", i64::from(user.0)), ("role", i64::from(role.0))],
        )?;
        Self::expect_granted(report)
    }

    /// Request enabling a role (post-condition CFDs cascade).
    pub fn enable_role(&mut self, role: RoleId) -> Result<(), EngineError> {
        let report = self.dispatch_role_event(
            |c| &c.enable_role,
            events::enable_role,
            role,
            &[("role", i64::from(role.0))],
        )?;
        Self::expect_granted(report)
    }

    /// Request disabling a role (disabling-time SoD guarded).
    pub fn disable_role(&mut self, role: RoleId) -> Result<(), EngineError> {
        let report = self.dispatch_role_event(
            |c| &c.disable_role,
            events::disable_role,
            role,
            &[("role", i64::from(role.0))],
        )?;
        Self::expect_granted(report)
    }

    /// An external sensor reports a context change (§3's external events).
    /// Updates the environment and raises `contextChanged`; the generated
    /// `CTX_<role>` rules force-deactivate roles whose constraints no
    /// longer hold.
    pub fn set_context(&mut self, key: &str, value: &str) -> Result<ExecReport, EngineError> {
        self.context.set(key, value);
        self.bump_version();
        // Text fields: a context change goes through the detector.
        self.dispatch_admin_params(
            |c| c.context_changed,
            events::CONTEXT_CHANGED,
            Params::with_capacity(2)
                .with("key", key)
                .with("value", value),
        )
    }

    // ---- policy maintenance ----------------------------------------------------

    /// Apply a changed policy: incremental rule regeneration when possible,
    /// full rebuild otherwise (§5's shift-change scenario). A policy equal
    /// to the one in force changes nothing, the write epoch included.
    ///
    /// The regenerated pool is put before the analyzer's gate (the passes
    /// that can reject, see [`policy::verdict`]) before being committed; a
    /// pool with `Error`-severity diagnostics is refused with
    /// [`InstantiateError::Rejected`] and the running instantiation is left
    /// untouched. The executor's acyclic fast-path hint follows the new
    /// pool's termination verdict, and the plan lowers again only the rules
    /// the regeneration replaced.
    pub fn apply_policy(&mut self, new: &PolicyGraph) -> Result<RegenReport, InstantiateError> {
        if *new == self.inst.graph {
            return Ok(RegenReport {
                total_rules: self.inst.pool.len(),
                ..RegenReport::default()
            });
        }
        // A rejected regeneration returns here before the plan is touched:
        // the running pool is unchanged, so the existing compiled plan
        // (baked closures included) remains valid — invalidation and
        // rebuild are atomic with the pool swap below.
        let (report, verdict) =
            policy::regenerate_verified(&mut self.inst, new, VerifyGate::DenyOnError)?;
        if !matches!(self.plan, Plan::Oracle) {
            let previous = match std::mem::take(&mut self.plan) {
                Plan::Armed(compiled) => compiled.plan,
                _ => CompiledPool::default(),
            };
            self.plan = Plan::lowered(&self.inst, &verdict, previous);
        }
        self.view = OnceLock::new();
        self.temporal_horizon = HorizonMemo::default();
        self.exec.assume_acyclic = verdict.proved_terminating();
        self.privacy = PrivacyState::from_policy(new, &self.inst.binding);
        // Constraints follow the new policy; runtime environment values
        // (where the user *is*) are preserved.
        self.context = ContextState::from_policy(new, &self.inst.binding)
            .with_values(self.context.values().clone());
        self.bump_version();
        Ok(report)
    }

    /// Dump the rule pool in OWTE syntax, events shown by name (sorted by
    /// rule name; stable golden output).
    ///
    /// Errors (instead of panicking) if a listed rule cannot be resolved
    /// by name — which means the pool was mutated between listing and
    /// lookup, e.g. by a concurrent policy regeneration.
    pub fn dump_rules(&self) -> Result<String, EngineError> {
        let mut names: Vec<&str> = self.inst.pool.iter().map(|(_, r)| &*r.name).collect();
        names.sort_unstable();
        let mut out = String::new();
        for n in names {
            let text = self
                .rule_text(n)
                .ok_or_else(|| EngineError::UnknownName(format!("rule {n}")))?;
            out.push_str(&text);
            out.push_str("\n\n");
        }
        Ok(out)
    }

    /// Render the event graph in Graphviz DOT form.
    pub fn event_graph_dot(&self) -> String {
        self.inst.detector.to_dot()
    }

    /// Render the rule-dependency graph in Graphviz DOT form (solid edges
    /// synchronous, dashed edges delayed through timers).
    pub fn rule_graph_dot(&self) -> String {
        policy::rule_dependency_dot(&self.inst.detector, &self.inst.pool)
    }

    /// One rule in OWTE syntax, with the triggering event shown by name
    /// (or its operator label for unnamed composites).
    pub fn rule_text(&self, name: &str) -> Option<String> {
        let rule = self.inst.pool.get_by_name(name)?;
        Some(rule.to_owte_string_named(|id| {
            self.inst
                .detector
                .name_of(id)
                .map(str::to_string)
                .or_else(|| Some(self.inst.detector.label(id).to_string()))
        }))
    }

    /// Re-enable all rules of a class (administrator recovery after an
    /// active-security lockdown).
    pub fn enable_rule_class(&mut self, class: sentinel::RuleClass) -> usize {
        self.bump_version();
        self.inst.pool.set_class_enabled(class, true)
    }

    /// Disable all rules of a class (manual lockdown; the active-security
    /// rules do this automatically on threshold breaches).
    pub fn disable_rule_class(&mut self, class: sentinel::RuleClass) -> usize {
        self.bump_version();
        self.inst.pool.set_class_enabled(class, false)
    }
}

/// First externally observable authorization fact on which two engines
/// differ — session sets, active roles, role enablement, audit log or
/// clock — or `None` when they agree. This is the state equality of the
/// durability, replication and model-checking suites.
pub fn state_diff(a: &Engine, b: &Engine) -> Option<String> {
    let (sa, sb) = (a.system(), b.system());
    let (la, lb): (Vec<_>, Vec<_>) = (sa.all_sessions().collect(), sb.all_sessions().collect());
    if la != lb {
        return Some(format!("session sets differ: {la:?} vs {lb:?}"));
    }
    for s in la {
        let (ra, rb) = (sa.session_roles(s), sb.session_roles(s));
        match (&ra, &rb) {
            (Ok(x), Ok(y)) if x == y => {}
            _ => return Some(format!("active roles differ for {s}: {ra:?} vs {rb:?}")),
        }
    }
    for r in sa.all_roles() {
        if sa.is_enabled(r).ok() != sb.is_enabled(r).ok() {
            return Some(format!("enablement differs for {r}"));
        }
    }
    let (ea, eb) = (a.log().entries(), b.log().entries());
    if ea != eb {
        return Some(match ea.iter().zip(eb).position(|(x, y)| x != y) {
            Some(i) => format!("audit entry {i} differs: {} vs {}", ea[i], eb[i]),
            None => format!("audit logs differ ({} vs {} entries)", ea.len(), eb.len()),
        });
    }
    if a.now() != b.now() {
        return Some(format!("clocks differ: {} vs {}", a.now(), b.now()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::PolicyGraph;

    fn xyz_engine() -> Engine {
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.user("bob");
        g.assign("alice", "PM");
        g.assign("bob", "AC");
        Engine::from_policy(&g, Ts::ZERO).unwrap()
    }

    #[test]
    fn activation_and_access_through_rules() {
        let mut e = xyz_engine();
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        let pc = e.role_id("PC").unwrap();
        let s = e.create_session(alice, &[pm]).unwrap();
        // PM inherits PC's place_order permission.
        let create = e.system().op_by_name("create").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();
        assert!(e.check_access(s, create, po).unwrap());
        // Alice can also activate the junior role PC (AAR₂ authorization).
        e.add_active_role(alice, s, pc).unwrap();
        // But activating it twice is denied by the rules.
        let err = e.add_active_role(alice, s, pc).unwrap_err();
        assert!(matches!(err, EngineError::Denied(_)));
    }

    #[test]
    fn denial_when_not_authorized() {
        let mut e = xyz_engine();
        let bob = e.user_id("bob").unwrap();
        let pm = e.role_id("PM").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        let err = e.add_active_role(bob, s, pm).unwrap_err();
        let EngineError::Denied(msgs) = err else {
            panic!("expected denial");
        };
        assert!(msgs[0].contains("Access Denied Cannot Activate PM"));
        assert_eq!(e.log().denial_count(), 1);
    }

    #[test]
    fn check_access_denied_is_false_and_logged() {
        let mut e = xyz_engine();
        let bob = e.user_id("bob").unwrap();
        let s = e.create_session(bob, &[]).unwrap();
        let create = e.system().op_by_name("create").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();
        assert!(!e.check_access(s, create, po).unwrap());
        assert_eq!(e.log().denial_count(), 1);
    }

    #[test]
    fn assign_and_deassign_via_admin_rules() {
        let mut e = xyz_engine();
        let bob = e.user_id("bob").unwrap();
        let clerk = e.role_id("Clerk").unwrap();
        e.assign_user(bob, clerk).unwrap();
        assert!(e.system().assigned_roles(bob).unwrap().contains(&clerk));
        e.deassign_user(bob, clerk).unwrap();
        assert!(!e.system().assigned_roles(bob).unwrap().contains(&clerk));
        // SSD enforcement comes from the monitor via the rule action: bob
        // has AC, so PC must be rejected.
        let pc = e.role_id("PC").unwrap();
        let err = e.assign_user(bob, pc).unwrap_err();
        assert!(matches!(err, EngineError::Denied(_)));
    }

    /// `op` through `submit` on `a`, `named` on `b`: the answers and the
    /// states after must agree. Returns whether the request was refused.
    fn same(
        a: &mut Engine,
        b: &mut Engine,
        op: JournalOp,
        named: impl Fn(&mut Engine) -> Result<Outcome, EngineError>,
    ) -> bool {
        let answer = a.submit(&op);
        assert_eq!(answer, named(b), "{op:?}");
        assert_eq!(state_diff(a, b), None, "{op:?}");
        answer.is_err()
    }

    /// Every request variant answers the same and leaves the same state
    /// whether it goes through `submit` or through the named method.
    #[test]
    fn submit_equals_the_named_methods() {
        let (a, b) = (&mut xyz_engine(), &mut xyz_engine());
        let (alice, bob) = (a.user_id("alice").unwrap(), a.user_id("bob").unwrap());
        let role = |name| a.role_id(name).unwrap();
        let (pm, pc, clerk) = (role("PM"), role("PC"), role("Clerk"));
        let (create, po) = (
            a.system().op_by_name("create").unwrap(),
            a.system().obj_by_name("purchase_order").unwrap(),
        );
        let s = SessionId(0);
        let open = JournalOp::CreateSession {
            user: alice,
            initial: vec![pm],
        };
        let add = |role| JournalOp::AddActiveRole {
            user: alice,
            session: s,
            role,
        };
        let drop = |role| JournalOp::DropActiveRole {
            user: alice,
            session: s,
            role,
        };
        let assign = |role| JournalOp::AssignUser { user: bob, role };
        let deassign = |role| JournalOp::DeassignUser { user: bob, role };
        let check = JournalOp::CheckAccess {
            session: s,
            op: create,
            obj: po,
            purpose: -1,
        };
        let params = Params::new()
            .with("session", i64::from(s.0))
            .with("op", i64::from(create.0))
            .with("obj", i64::from(po.0))
            .with("purpose", -1i64);
        let raw = |event: &str| JournalOp::RawEvent {
            event: event.into(),
            params: params.clone(),
        };
        let context = JournalOp::SetContext {
            key: "zone".into(),
            value: "z1".into(),
        };
        let (hour, minute) = (Ts::from_secs(3600), Ts::from_secs(60));
        let advance = |to| JournalOp::AdvanceTo { to };
        let close = JournalOp::DeleteSession {
            user: alice,
            session: s,
        };
        let refused = [
            same(a, b, open, |e| {
                e.create_session(alice, &[pm]).map(Outcome::Session)
            }),
            same(a, b, add(pc), |e| {
                Outcome::done(e.add_active_role(alice, s, pc))
            }),
            same(a, b, add(pc), |e| {
                Outcome::done(e.add_active_role(alice, s, pc))
            }),
            same(a, b, check, |e| {
                e.check_access(s, create, po).map(Outcome::Access)
            }),
            same(a, b, raw(events::CHECK_ACCESS), |e| {
                Outcome::done(e.dispatch(events::CHECK_ACCESS, params.clone()))
            }),
            same(a, b, raw("no_such_event"), |e| {
                Outcome::done(e.dispatch("no_such_event", params.clone()))
            }),
            same(a, b, drop(pc), |e| {
                Outcome::done(e.drop_active_role(alice, s, pc))
            }),
            same(a, b, assign(clerk), |e| {
                Outcome::done(e.assign_user(bob, clerk))
            }),
            same(a, b, assign(pc), |e| Outcome::done(e.assign_user(bob, pc))),
            same(a, b, deassign(clerk), |e| {
                Outcome::done(e.deassign_user(bob, clerk))
            }),
            same(a, b, JournalOp::DisableRole { role: clerk }, |e| {
                Outcome::done(e.disable_role(clerk))
            }),
            same(a, b, JournalOp::EnableRole { role: clerk }, |e| {
                Outcome::done(e.enable_role(clerk))
            }),
            same(a, b, context, |e| {
                Outcome::done(e.set_context("zone", "z1"))
            }),
            same(a, b, advance(hour), |e| Outcome::done(e.advance_to(hour))),
            same(a, b, advance(minute), |e| {
                Outcome::done(e.advance_to(minute))
            }),
            same(a, b, close, |e| Outcome::done(e.delete_session(alice, s))),
        ];
        assert!(refused.contains(&true) && refused.contains(&false));
    }

    #[test]
    fn session_rollback_on_denied_initial_role() {
        let mut e = xyz_engine();
        let bob = e.user_id("bob").unwrap();
        let pm = e.role_id("PM").unwrap();
        let before = e.system().session_count();
        assert!(e.create_session(bob, &[pm]).is_err());
        assert_eq!(e.system().session_count(), before);
    }

    #[test]
    fn analyzer_gates_construction_and_sets_fast_path() {
        let e = xyz_engine();
        assert!(e.proved_acyclic(), "XYZ pool is proved terminating");
        let report = e.analyze();
        assert!(report.is_clean(), "{report}");
        assert!(e.rule_graph_dot().contains("AAR2_PC"));

        // Mutual post-conditions generate a synchronous ENR loop: the
        // default gate refuses the policy outright.
        let mut g = PolicyGraph::new("loopy");
        g.role("a");
        g.role("b");
        g.post_conditions.push(policy::PostConditionSpec {
            role: "a".into(),
            requires: "b".into(),
        });
        g.post_conditions.push(policy::PostConditionSpec {
            role: "b".into(),
            requires: "a".into(),
        });
        let err = Engine::from_policy(&g, Ts::ZERO).unwrap_err();
        assert!(matches!(err, InstantiateError::Rejected(_)), "{err}");
        // Explicitly ungated, the engine runs with the depth guard on.
        let e2 = Engine::from_policy_gated(&g, Ts::ZERO, policy::VerifyGate::Off).unwrap();
        assert!(!e2.proved_acyclic());
    }

    #[test]
    fn rejected_policy_change_leaves_engine_running() {
        let mut e = xyz_engine();
        let mut bad = e.policy().clone();
        bad.post_conditions.push(policy::PostConditionSpec {
            role: "PM".into(),
            requires: "AM".into(),
        });
        bad.post_conditions.push(policy::PostConditionSpec {
            role: "AM".into(),
            requires: "PM".into(),
        });
        let (plan, version) = (e.plan_text(), e.state_version());
        let err = e.apply_policy(&bad).unwrap_err();
        assert!(matches!(err, InstantiateError::Rejected(_)), "{err}");
        assert!(e.proved_acyclic(), "old verdict still in force");
        assert!(e.compiled_active(), "rejected change keeps the old plan");
        assert_eq!((e.plan_text(), e.state_version()), (plan, version));
        // The engine still enforces the old policy.
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        let s = e.create_session(alice, &[pm]).unwrap();
        let create = e.system().op_by_name("create").unwrap();
        let po = e.system().obj_by_name("purchase_order").unwrap();
        assert!(e.check_access(s, create, po).unwrap());
    }

    #[test]
    fn compiled_plan_armed_and_identical_to_interpreter() {
        let e = xyz_engine();
        assert!(e.compiled_active(), "verified pool compiles eagerly");
        // Ungated construction never compiles.
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.assign("alice", "PM");
        let ungated = Engine::from_policy_gated(&g, Ts::ZERO, policy::VerifyGate::Off).unwrap();
        assert!(!ungated.compiled_active());

        // Same workload on both paths: decisions, counters and the audit
        // trail must match byte for byte.
        let run = |mut e: Engine| {
            let alice = e.user_id("alice").unwrap();
            let pm = e.role_id("PM").unwrap();
            let pc = e.role_id("PC").unwrap();
            let s = e.create_session(alice, &[pm]).unwrap();
            e.add_active_role(alice, s, pc).unwrap();
            assert!(matches!(
                e.add_active_role(alice, s, pc),
                Err(EngineError::Denied(_))
            ));
            let create = e.system().op_by_name("create").unwrap();
            let po = e.system().obj_by_name("purchase_order").unwrap();
            assert!(e.check_access(s, create, po).unwrap());
            e.drop_active_role(alice, s, pc).unwrap();
            e.advance(Dur::from_secs(3600)).unwrap();
            e
        };
        let compiled = run(xyz_engine());
        let interp = Engine::interpreted(xyz_engine().policy(), Ts::ZERO).unwrap();
        assert!(!interp.compiled_active());
        let interp = run(interp);
        assert_eq!(
            compiled.log().entries(),
            interp.log().entries(),
            "audit trails diverge"
        );
        assert_eq!(compiled.now(), interp.now());
    }

    #[test]
    fn the_oracle_never_lowers_and_a_restored_engine_lowers_on_first_use() {
        let mut oracle = Engine::interpreted(xyz_engine().policy(), Ts::ZERO).unwrap();
        assert!(oracle.proved_acyclic(), "same executor configuration");
        assert_eq!(oracle.plan_text(), None);
        let mut g2 = oracle.policy().clone();
        g2.role("Auditor");
        oracle.apply_policy(&g2).unwrap();
        oracle.advance(Dur::from_secs(1)).unwrap();
        assert!(!oracle.compiled_active(), "also across a policy change");
        assert!(oracle.clone().plan_text().is_none());

        // The plan is derived state: it is not stored, and comes back.
        let e = xyz_engine();
        let mut restored: Engine =
            serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert!(!restored.compiled_active());
        restored.advance(Dur::from_secs(1)).unwrap();
        assert!(restored.compiled_active());
        assert_eq!(restored.plan_text(), e.clone().plan_text());
    }

    #[test]
    fn plan_text_lists_dispatch_and_bytecode() {
        let mut e = xyz_engine();
        let plan = e.plan_text().unwrap();
        assert!(plan.starts_with("compiled plan:"), "{plan}");
        assert!(plan.contains("on checkAccess"), "{plan}");
        assert!(plan.contains("rule CA"), "{plan}");
    }

    #[test]
    fn successful_policy_change_rebuilds_plan() {
        let mut e = xyz_engine();
        let before = e.plan_text().unwrap();
        assert!(!before.contains("Auditor"));
        let mut g2 = e.policy().clone();
        g2.role("Auditor");
        e.apply_policy(&g2).unwrap();
        assert!(e.compiled_active(), "regenerated pool recompiles");
        let after = e.plan_text().unwrap();
        assert!(
            after.contains("Auditor"),
            "plan follows the regenerated pool: {after}"
        );
    }

    /// Rules a change does not touch keep their lowering; the plan still
    /// equals the one a restored engine lowers from scratch.
    #[test]
    fn incremental_policy_change_lowers_only_what_it_rewrote() {
        let mut e = xyz_engine();
        let total = e.pool().len();
        assert_eq!(e.plan_rules_lowered(), Some(total));
        let mut g = e.policy().clone();
        g.role("PM").max_active_users = Some(2);
        let report = e.apply_policy(&g).unwrap();
        assert!(!report.full_rebuild);
        let lowered = e.plan_rules_lowered().unwrap();
        assert!(
            0 < lowered && lowered <= report.rules_rewritten && lowered < total,
            "{lowered} lowered, {report:?}"
        );
        let mut restored: Engine =
            serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(e.plan_text(), restored.plan_text());
        assert_eq!(restored.plan_rules_lowered(), Some(e.pool().len()));
        // A full rebuild replaces every rule, so nothing is carried.
        g.role("Auditor");
        assert!(e.apply_policy(&g).unwrap().full_rebuild);
        assert_eq!(e.plan_rules_lowered(), Some(e.pool().len()));
    }

    #[test]
    fn an_unchanged_policy_changes_nothing() {
        let mut e = xyz_engine();
        let mut g = e.policy().clone();
        g.role("PM").max_active_users = Some(2);
        e.apply_policy(&g).unwrap();
        let (version, plan, lowered) = (e.state_version(), e.plan_text(), e.plan_rules_lowered());
        let view = Arc::clone(e.policy_view());
        let report = e.apply_policy(&g).unwrap();
        assert_eq!(
            report,
            RegenReport {
                total_rules: e.pool().len(),
                ..RegenReport::default()
            }
        );
        assert_eq!(
            e.state_version(),
            version,
            "published snapshots stay current"
        );
        assert_eq!((e.plan_text(), e.plan_rules_lowered()), (plan, lowered));
        assert!(Arc::ptr_eq(&view, e.policy_view()));
    }

    #[test]
    fn unknown_names_rejected() {
        let e = xyz_engine();
        assert!(matches!(
            e.user_id("nobody"),
            Err(EngineError::UnknownName(_))
        ));
        assert!(matches!(
            e.role_id("Ghost"),
            Err(EngineError::UnknownName(_))
        ));
    }

    /// The two derived caches behind `snapshot()`: the remembered GTRBAC
    /// horizon follows the clock across a boundary and a policy change
    /// that moves the boundary, and the policy view is rebuilt by
    /// `apply_policy` and by nothing else.
    #[test]
    fn snapshot_caches_follow_clock_and_policy() {
        let window = |start_h, end_h| policy::DailyWindow {
            start_h,
            start_m: 0,
            end_h,
            end_m: 0,
        };
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.assign("alice", "PM");
        g.role("PM").enabling = Some(window(9, 17));
        let mut e = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let truth = |e: &Engine| e.inst.temporal.next_transition_after(e.now());

        let opens = e.next_temporal_transition().expect("a window opens");
        assert_eq!(Some(opens), truth(&e));
        assert_eq!(*e.temporal_horizon.0.lock(), Some((Ts::ZERO, Some(opens))));
        // Inside [computed_at, next): answered from the memo, unchanged.
        e.advance_to(Ts(opens.0 - 1)).unwrap();
        assert_eq!(e.next_temporal_transition(), Some(opens));
        assert_eq!(*e.temporal_horizon.0.lock(), Some((Ts::ZERO, Some(opens))));
        // At the boundary the memo no longer holds and is recomputed.
        e.advance_to(opens).unwrap();
        let closes = e.next_temporal_transition().expect("the window closes");
        assert!(closes > opens);
        assert_eq!(Some(closes), truth(&e));

        // Rule actions (an activation here) leave the view alone...
        let view = Arc::clone(e.policy_view());
        let alice = e.user_id("alice").unwrap();
        let pm = e.role_id("PM").unwrap();
        e.create_session(alice, &[pm]).unwrap();
        assert!(Arc::ptr_eq(&view, e.policy_view()));
        assert!(Arc::ptr_eq(&view, e.clone().policy_view()));
        // ...a policy change drops both caches.
        g.role("PM").enabling = Some(window(9, 12));
        g.permission("audit_po", "audit", "purchase_order");
        g.grant("audit_po", "PM");
        e.apply_policy(&g).unwrap();
        assert_eq!(e.next_temporal_transition(), truth(&e));
        assert!(e.next_temporal_transition().expect("closes at noon") < closes);
        assert!(!Arc::ptr_eq(&view, e.policy_view()));
        assert_eq!(
            **e.policy_view(),
            PolicyView::build(e.system(), e.privacy())
        );
        assert_ne!(**e.policy_view(), *view, "the new grant is in the view");
        // A restored engine starts with neither and rebuilds the same.
        let restored: Engine = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert!(restored.view.get().is_none());
        assert_eq!(**restored.policy_view(), **e.policy_view());
        assert_eq!(restored.validity_horizon(), e.validity_horizon());
    }
}

#[cfg(test)]
mod error_path_tests {
    use super::*;
    use policy::PolicyGraph;
    use snoop::Ts;

    fn tiny() -> Engine {
        let mut g = PolicyGraph::new("tiny");
        g.role("r");
        g.user("u");
        g.assign("u", "r");
        Engine::from_policy(&g, Ts::ZERO).unwrap()
    }

    #[test]
    fn clock_regression_surfaces_as_detector_error() {
        let mut e = tiny();
        e.advance(snoop::Dur::from_secs(100)).unwrap();
        let err = e.advance_to(Ts::from_secs(10)).unwrap_err();
        assert!(matches!(err, EngineError::Detector(_)));
        assert_eq!(e.now(), Ts::from_secs(100), "clock unchanged");
    }

    #[test]
    fn dispatch_of_unknown_event_errors() {
        let mut e = tiny();
        assert!(matches!(
            e.dispatch("no_such_event", Params::new()),
            Err(EngineError::Detector(_))
        ));
    }

    #[test]
    fn error_display_forms() {
        assert!(EngineError::Denied(vec!["a".into(), "b".into()])
            .to_string()
            .contains("a; b"));
        assert!(EngineError::UnknownName("x".into())
            .to_string()
            .contains("x"));
        assert!(EngineError::Unhandled("m".into()).to_string().contains("m"));
    }

    #[test]
    fn bad_purpose_and_bad_ids() {
        let mut e = tiny();
        let u = e.user_id("u").unwrap();
        let r = e.role_id("r").unwrap();
        let s = e.create_session(u, &[r]).unwrap();
        // No purposes registered at all.
        assert!(matches!(
            e.check_access_for_purpose(s, rbac::OpId(0), rbac::ObjId(0), "ghost"),
            Err(EngineError::UnknownName(_))
        ));
        // Foreign session id: rules deny, nothing panics.
        let bogus = rbac::SessionId(999);
        assert!(e.add_active_role(u, bogus, r).is_err());
        assert!(!e
            .check_access(bogus, rbac::OpId(0), rbac::ObjId(0))
            .unwrap());
    }

    #[test]
    fn set_context_works_without_constraints() {
        let mut e = tiny();
        let rep = e.set_context("weather", "sunny").unwrap();
        assert!(!rep.denied());
        assert_eq!(e.context().get("weather"), Some("sunny"));
    }
}
