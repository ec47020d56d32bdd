//! A simulated process: one durable engine over a simulated disk, plus
//! everything the scheduler needs to fork, crash, restart and compare
//! worlds.

use owte_core::{
    DurableConfig, DurableEngine, Engine, FaultKind, FaultPlan, FaultyStorage, JournalOp,
    MemStorage, ScriptedFault,
};
use policy::PolicyGraph;
use snoop::Ts;
use std::fmt;
use std::rc::Rc;
use workload::{Client, Step};

/// The storage stack every simulated process runs on: deterministic
/// fault injection over a crashable in-memory disk.
pub type SimStore = FaultyStorage<MemStorage>;

/// One scheduler decision. Schedules are position-independent: each
/// choice resolves against the current world state ("the next client
/// op", "the earliest pending timer"), so a recorded schedule replays
/// deterministically from the initial world with no absolute indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Choice {
    /// Run the next client operation to completion.
    NextOp,
    /// Run the next client operation, but kill the store at its `at`-th
    /// storage operation (1-based); if that operation is an append,
    /// exactly `keep` bytes still reach the disk (a torn write). The
    /// process then power-fails: unsynced bytes are dropped.
    CrashDuringNextOp {
        /// Which storage op of the client op dies.
        at: u64,
        /// Bytes of the in-flight append that land first.
        keep: usize,
    },
    /// Power-fail between operations (unsynced bytes are dropped).
    CrashNow,
    /// Advance virtual time to the earliest pending detector timer,
    /// firing it (and any rules it cascades into).
    FireNextTimer,
    /// Restart the crashed process: recover from surviving bytes.
    Restart,
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::NextOp => write!(f, "op"),
            Choice::CrashDuringNextOp { at, keep } => {
                write!(f, "crash-during-op(storage-op {at}, keep {keep}B)")
            }
            Choice::CrashNow => write!(f, "crash"),
            Choice::FireNextTimer => write!(f, "fire-timer"),
            Choice::Restart => write!(f, "restart"),
        }
    }
}

/// Why an apply call did not produce a successor state. Generic over the
/// choice alphabet so every [`crate::explore::SimWorld`] shares it; the
/// default parameter keeps the single-process `StepError` spelling.
#[derive(Debug, Clone)]
pub enum StepError<C = Choice> {
    /// The choice is not enabled in the current state (e.g. `Restart`
    /// while running) — schedules being shrunk hit this; explorers never
    /// should.
    NotEnabled(C),
    /// The step itself surfaced a violation (recovery failed outright).
    Violation(crate::invariants::Violation),
}

/// The process half of a world: either a live engine or a crashed disk
/// waiting for a restart.
#[derive(Clone)]
enum Node {
    Running(Box<DurableEngine<SimStore>>),
    Crashed(MemStorage),
}

/// One complete simulated state: process, pending client script, the
/// acknowledged-operation ledger with the reference interpreter fed from
/// it, and the schedule that produced it.
#[derive(Clone)]
pub struct World {
    node: Node,
    ops: Rc<Vec<Step>>,
    cursor: usize,
    client: Client,
    acked: Vec<JournalOp>,
    interpreted: Engine,
    crashes: usize,
    just_restarted: bool,
    config: DurableConfig,
    cascade_bound: Option<usize>,
    schedule: Vec<Choice>,
}

impl World {
    /// Boot a fresh world: instantiate `graph`, write the genesis
    /// snapshot, and stage `ops` as the client script. The process runs
    /// the engine a deployment runs, compiled plan included; beside it,
    /// [`Engine::interpreted`] over the same policy applies every
    /// acknowledged op as it is acknowledged.
    pub fn new(
        graph: &PolicyGraph,
        ops: Vec<Step>,
        config: DurableConfig,
    ) -> Result<World, String> {
        let storage = FaultyStorage::new(MemStorage::new(), 0, FaultPlan::default());
        let engine = DurableEngine::create(storage, graph, Ts::ZERO, config.clone())
            .map_err(|e| format!("world genesis failed: {e}"))?;
        let cascade_bound = engine.engine().analyze().max_sync_depth;
        let interpreted = Engine::interpreted(graph, Ts::ZERO)
            .map_err(|e| format!("reference interpreter failed: {e}"))?;
        Ok(World {
            node: Node::Running(Box::new(engine)),
            ops: Rc::new(ops),
            cursor: 0,
            client: Client::new(graph.users.len()),
            acked: Vec::new(),
            interpreted,
            crashes: 0,
            just_restarted: false,
            config,
            cascade_bound,
            schedule: Vec::new(),
        })
    }

    /// Hold this world's engine against the interpreter of `reference`
    /// instead of its own policy. The seeded-bug hook for
    /// [`crate::Violation::CompiledDivergence`]: an engine that decides
    /// otherwise than the reference evaluator on the same ledger is what
    /// a miscompiled plan looks like from outside, the way a doctored
    /// graph is an under-enforcing monitor to the SoD invariants.
    pub fn with_reference(mut self, reference: &PolicyGraph) -> Result<World, String> {
        self.interpreted = Engine::interpreted(reference, Ts::ZERO)
            .map_err(|e| format!("reference interpreter failed: {e}"))?;
        for op in &self.acked {
            let _ = self.interpreted.submit(op);
        }
        Ok(self)
    }

    /// The live engine, if the process is up.
    pub fn engine(&self) -> Option<&DurableEngine<SimStore>> {
        match &self.node {
            Node::Running(d) => Some(d),
            Node::Crashed(_) => None,
        }
    }

    /// Is the process down, waiting for a restart?
    pub fn is_crashed(&self) -> bool {
        matches!(self.node, Node::Crashed(_))
    }

    /// Operations the engine acknowledged journaling, in execution order.
    pub fn acked(&self) -> &[JournalOp] {
        &self.acked
    }

    /// The reference interpreter, fed exactly [`World::acked`]: what the
    /// live engine must equal whenever it is up.
    pub fn interpreted(&self) -> &Engine {
        &self.interpreted
    }

    /// Book an acknowledged op: into the ledger, and through the
    /// reference interpreter.
    fn ack(&mut self, op: JournalOp) {
        let _ = self.interpreted.submit(&op);
        self.acked.push(op);
    }

    /// Crash/restart cycles taken so far.
    pub fn crashes(&self) -> usize {
        self.crashes
    }

    /// Did the immediately preceding step recover from a crash? The
    /// invariant layer runs its durability checks exactly then.
    pub fn just_restarted(&self) -> bool {
        self.just_restarted
    }

    /// The analyzer's proved synchronous cascade bound for this policy.
    pub fn cascade_bound(&self) -> Option<usize> {
        self.cascade_bound
    }

    /// The schedule (sequence of applied choices) that produced this
    /// world from its initial state.
    pub fn schedule(&self) -> &[Choice] {
        &self.schedule
    }

    /// Is a step of the client script left to run?
    pub fn ops_left(&self) -> bool {
        self.cursor < self.ops.len()
    }

    /// Human-readable description of what `choice` would do here.
    pub fn describe(&self, choice: &Choice) -> String {
        let next = self
            .ops
            .get(self.cursor)
            .map(|o| o.to_string())
            .unwrap_or_else(|| "<none>".into());
        match choice {
            Choice::NextOp => format!("op[{}]: {next}", self.cursor),
            Choice::CrashDuringNextOp { at, keep } => format!(
                "op[{}]: {next} — killed at storage op {at} (keep {keep}B), then power loss",
                self.cursor
            ),
            Choice::CrashNow => "power loss (unsynced bytes dropped)".to_string(),
            Choice::FireNextTimer => match self.engine().and_then(|d| d.engine().next_timer_at()) {
                Some(t) => format!("advance to {t} and fire pending timers"),
                None => "fire-timer (none pending)".to_string(),
            },
            Choice::Restart => "restart: recover from surviving bytes".to_string(),
        }
    }

    /// How many storage operations the next client op performs, measured
    /// on a throwaway clone of the engine. `0` when it resolves to a
    /// no-op (unknown name, no session) or nothing is pending.
    pub fn probe_next_op_storage_ops(&self) -> u64 {
        let (Node::Running(d), Some(op)) = (&self.node, self.ops.get(self.cursor)) else {
            return 0;
        };
        let mut clone = d.clone();
        let mut client = self.client.clone();
        let before = clone.storage().ops();
        let _ = apply_client_op(&mut clone, &mut client, op);
        clone.storage().ops() - before
    }

    /// Apply one scheduler choice, transforming this world into its
    /// successor.
    pub fn apply(&mut self, choice: &Choice) -> Result<(), StepError> {
        self.just_restarted = false;
        match choice {
            Choice::NextOp => {
                let Node::Running(d) = &mut self.node else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let Some(op) = self.ops.get(self.cursor) else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                if let Some(j) = apply_client_op(d, &mut self.client, op) {
                    self.ack(j);
                }
                self.cursor += 1;
            }
            Choice::CrashDuringNextOp { at, keep } => {
                let Node::Running(d) = &mut self.node else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let Some(op) = self.ops.get(self.cursor) else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let base = d.storage().ops();
                d.storage_mut().plan_mut().scripted.push(ScriptedFault {
                    at: base + at,
                    kind: FaultKind::Kill { keep: *keep },
                });
                if let Some(j) = apply_client_op(d, &mut self.client, op) {
                    // The journal append (and its sync) beat the kill
                    // point: the op is acknowledged even though the
                    // client saw an error from a later storage op.
                    self.ack(j);
                }
                self.cursor += 1;
                self.power_fail();
            }
            Choice::CrashNow => {
                if !matches!(self.node, Node::Running(_)) {
                    return Err(StepError::NotEnabled(choice.clone()));
                }
                self.power_fail();
            }
            Choice::FireNextTimer => {
                let Node::Running(d) = &mut self.node else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let Some(deadline) = d.engine().next_timer_at() else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let before = d.op_count();
                let _ = d.advance_to(deadline);
                if d.op_count() > before {
                    self.ack(JournalOp::AdvanceTo { to: deadline });
                }
            }
            Choice::Restart => {
                let Node::Crashed(_) = &self.node else {
                    return Err(StepError::NotEnabled(choice.clone()));
                };
                let Node::Crashed(mem) =
                    std::mem::replace(&mut self.node, Node::Crashed(MemStorage::new()))
                else {
                    unreachable!("matched Crashed above");
                };
                let storage = FaultyStorage::new(mem, 0, FaultPlan::default());
                match DurableEngine::open(storage, self.config.clone()) {
                    Ok(d) => {
                        self.node = Node::Running(Box::new(d));
                        self.just_restarted = true;
                    }
                    Err(e) => {
                        self.schedule.push(choice.clone());
                        return Err(StepError::Violation(
                            crate::invariants::Violation::RecoveryFailed {
                                error: e.to_string(),
                            },
                        ));
                    }
                }
            }
        }
        self.schedule.push(choice.clone());
        Ok(())
    }

    /// Drop the engine mid-flight and keep only what a real power loss
    /// would: the synced bytes of the inner store.
    fn power_fail(&mut self) {
        let node = std::mem::replace(&mut self.node, Node::Crashed(MemStorage::new()));
        let mut mem = match node {
            Node::Running(d) => d.into_storage().into_inner(),
            Node::Crashed(mem) => mem,
        };
        mem.crash();
        self.node = Node::Crashed(mem);
        self.crashes += 1;
        // Session handles do not survive the process.
        self.client = Client::new(self.client.sessions().len());
    }

    /// An order-independent fingerprint of everything observable about
    /// this state: process status, disk digest, engine-visible RBAC
    /// state, clock, pending timers, audit log and client-script cursor.
    /// Two worlds with equal fingerprints behave identically under every
    /// future schedule, so the exhaustive explorer prunes revisits.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.cursor as u64);
        h.u64(self.acked.len() as u64);
        for s in self.client.sessions() {
            match s {
                Some(sid) => h.str(&format!("S{sid}")),
                None => h.str("-"),
            }
        }
        match &self.node {
            Node::Crashed(mem) => {
                h.str("crashed");
                h.u64(mem.state_digest());
            }
            Node::Running(d) => {
                h.str("running");
                h.u64(d.storage().inner().state_digest());
                h.u64(d.op_count());
                hash_engine(&mut h, d.engine());
            }
        }
        h.finish()
    }
}

/// Fold everything observable about a live engine into `h`: clock,
/// cascade depth, pending timers, sessions with their users and active
/// roles, role enablement, assignments, context and the audit log.
/// Shared by the single-process and cluster fingerprints.
pub(crate) fn hash_engine(h: &mut Fnv, e: &owte_core::Engine) {
    h.str(&format!("{}", e.now()));
    h.u64(e.deepest_cascade() as u64);
    for t in e.pending_timer_deadlines() {
        h.str(&format!("{t}"));
    }
    let sys = e.system();
    for s in sys.all_sessions() {
        h.str(&format!("{s}"));
        if let Ok(u) = sys.session_user(s) {
            h.str(&format!("{u}"));
        }
        if let Ok(roles) = sys.session_roles(s) {
            for r in roles {
                h.str(&format!("{r}"));
            }
        }
    }
    for r in sys.all_roles() {
        h.str(if sys.is_enabled(r).unwrap_or(false) {
            "e"
        } else {
            "d"
        });
    }
    for u in sys.all_users() {
        if let Ok(assigned) = sys.assigned_roles(u) {
            for r in assigned {
                h.str(&format!("{r}"));
            }
        }
        h.str(";");
    }
    let ctx: std::collections::BTreeMap<_, _> = e.context().values().iter().collect();
    for (k, v) in ctx {
        h.str(k);
        h.str(v);
    }
    h.u64(e.log().entries().len() as u64);
    for entry in e.log().entries() {
        h.str(&format!("{entry}"));
    }
}

/// Run one script step against a live engine, returning the journal
/// record to add to the acknowledged ledger if the engine acknowledged it
/// (the op counter moved), regardless of the client-visible result. A
/// step the client skips (unknown name, no session) is a silent no-op.
/// Shared with the cluster world (whose leader runs the identical storage
/// stack) and the replication integration tests.
pub fn apply_client_op(
    d: &mut DurableEngine<SimStore>,
    client: &mut Client,
    step: &Step,
) -> Option<JournalOp> {
    let request = client.resolve(step, d.engine().system(), d.engine().now())?;
    let before = d.op_count();
    client.record(step, d.submit(&request).ok());
    (d.op_count() > before).then_some(request)
}

/// FNV-1a, built up from strings and integers. Shared by every world's
/// fingerprint.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.byte(*b);
        }
        self.byte(0xFF); // separator
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.byte(*b);
        }
        self.byte(0xFE); // separator distinct from str's
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}
