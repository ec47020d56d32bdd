//! The refinement ladder every trace-equivalence suite runs: one
//! policy-aware trace goes down every implementation of the engine in
//! lock-step, and each rung is checked against the rung above it after
//! every step.
//!
//! 1. [`DirectEngine`], the hard-coded reference.
//! 2. [`Engine::interpreted`], the rules without a plan: the same answer
//!    (error *variant*; the texts differ by design), sessions, active
//!    roles and enabled flags as rung 1.
//! 3. [`Engine::from_policy`], the compiled plan, which must also keep the
//!    safety invariants (SoD, hierarchy, session, temporal).
//! 4. [`DurableEngine`] over a `MemStorage`, crashed and reopened every
//!    [`K`] steps.
//! 5. [`SharedEngine`]: writes through `submit`, checks through the read
//!    path.
//! 6. A 3-node [`Cluster`]: the leader answers; every [`K`] steps each
//!    follower equals rung 3 and a follower grant is a rung-3 grant; at
//!    the end of the trace the replay of the acknowledged journal and each
//!    follower's disk, reopened, equal rung 3.
//!
//! Rungs 3 to 6 answer exactly as the rung above (error text included)
//! and `state_diff` finds nothing between them, audit and clock included.
//! The suites differ only in the enterprises and traces they send down.

use owte_core::{
    replay, state_diff, DirectEngine, DurableConfig, DurableEngine, DurableError, Engine,
    EngineError, JournalOp, MemStorage, Outcome, RecoveryStats, SharedEngine,
};
use policy::PolicyGraph;
use repl::{Cluster, ReadOutcome, ReplConfig};
use sentinel::AuditKind;
use snoop::Ts;
use std::collections::BTreeMap;
use std::mem::{discriminant, Discriminant};
use workload::{generate_trace, Client, EnterpriseSpec, Step};

/// Steps between durable crash/reopen cycles and cluster settles.
pub const K: usize = 16;

type Answer = Result<Outcome, EngineError>;

/// The answer rung 1 and rung 2 must share: the error variant, not its text.
fn variant(a: &Answer) -> Result<Outcome, Discriminant<EngineError>> {
    a.as_ref().copied().map_err(discriminant)
}

fn engine_answer(r: Result<Outcome, DurableError>) -> Answer {
    r.map_err(|e| match e {
        DurableError::Engine(e) => e,
        other => panic!("storage failed under a lossless disk: {other}"),
    })
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        snapshot_every: Some(16),
        ..DurableConfig::default()
    }
}

/// What the runs of a suite reached, per request class and per rule
/// family, for its non-vacuity floors.
#[derive(Debug, Default)]
pub struct Reached {
    pub checks_granted: usize,
    pub checks_denied: usize,
    pub activations_accepted: usize,
    pub activations_refused: usize,
    pub session_deletes: usize,
    pub follower_grants: usize,
    pub reopens_from_snapshot: usize,
    /// Δ-bounded roles found inactive after the closing quiet period.
    pub quiet_delta_roles: usize,
    /// Family → (`Then`, `Else`, `ActionRejected`) entries on rung 3.
    pub families: BTreeMap<String, [usize; 3]>,
    /// `ActionRejected` entries by family and monitor message.
    pub rejections: BTreeMap<String, usize>,
}

/// The rule families of RULES.md, in its order.
pub const FAMILIES: [&str; 18] = [
    "AAR", "CC", "DAR", "DELTA", "CANCEL", "DELTAS", "ENA", "DIS", "ENR", "DISR", "CTX", "PREDROP",
    "TRIG", "TRIGD", "CA", "ASSIGN", "DEASSIGN", "SEC",
];

/// `AAR2_role3` → `AAR`, `DELTAS_role1_user0` → `DELTAS`, `CA` → `CA`.
fn family(rule: &str) -> &str {
    let head = rule.split('_').next().unwrap_or(rule);
    head.trim_end_matches(|c: char| c.is_ascii_digit())
}

struct Ladder {
    graph: PolicyGraph,
    client: Client,
    direct: DirectEngine,
    interp: Engine,
    plan: Engine,
    durable: DurableEngine<MemStorage>,
    shared: SharedEngine,
    cluster: Cluster,
    at: String,
}

impl Ladder {
    fn new(graph: PolicyGraph) -> Ladder {
        let plan = Engine::from_policy(&graph, Ts::ZERO).unwrap();
        assert!(plan.compiled_active(), "verified generated pools compile");
        let lossless = ReplConfig {
            jitter: false,
            ..ReplConfig::default()
        };
        Ladder {
            client: Client::new(graph.users.len()),
            direct: DirectEngine::from_policy(&graph, Ts::ZERO).unwrap(),
            interp: Engine::interpreted(&graph, Ts::ZERO).unwrap(),
            shared: SharedEngine::new(plan.clone()),
            durable: DurableEngine::create(MemStorage::new(), &graph, Ts::ZERO, durable_config())
                .unwrap(),
            cluster: Cluster::new(&graph, 3, lossless).unwrap(),
            plan,
            graph,
            at: String::new(),
        }
    }

    /// Run `step` on every rung and compare each with the one above.
    fn step(&mut self, i: usize, step: &Step, seen: &mut Reached) {
        self.at = format!("step {i} ({step})");
        let at = &self.at;
        let Some(op) = self
            .client
            .resolve(step, &self.direct.sys, self.direct.now())
        else {
            return;
        };
        let direct = self.direct.submit(&op);
        let interp = self.interp.submit(&op);
        assert_eq!(variant(&interp), variant(&direct), "{at}: rung 2 vs 1");
        let plan = self.plan.submit(&op);
        assert_eq!(plan, interp, "{at}: rung 3 vs 2");
        if matches!(
            op,
            JournalOp::AdvanceTo { .. } | JournalOp::SetContext { .. }
        ) {
            assert!(
                plan.is_ok(),
                "{at}: clock and context events decide nothing"
            );
        }
        let durable = engine_answer(self.durable.submit(&op));
        assert_eq!(durable, plan, "{at}: rung 4 vs 3");
        let (fast, _) = self.shared.read_stats();
        let shared = self.shared.submit(&op);
        assert_eq!(shared, durable, "{at}: rung 5 vs 4");
        if self.shared.read_stats().0 > fast {
            // A grant from the snapshot writes no audit entry; the locked
            // path decides it again and writes the ones the rungs above did.
            assert_eq!(self.shared.with(|e| e.submit(&op)), shared, "{at}: rung 5");
        }
        let leader = self.cluster.with_leader(|d| d.submit(&op)).unwrap();
        assert_eq!(engine_answer(leader), shared, "{at}: rung 6 vs 5");
        self.client.record(step, direct.as_ref().ok().copied());

        match (&op, &plan) {
            (JournalOp::CheckAccess { .. }, Ok(Outcome::Access(true))) => seen.checks_granted += 1,
            (JournalOp::CheckAccess { .. }, _) => seen.checks_denied += 1,
            (JournalOp::AddActiveRole { .. }, Ok(_)) => seen.activations_accepted += 1,
            (JournalOp::AddActiveRole { .. }, Err(_)) => seen.activations_refused += 1,
            (JournalOp::DeleteSession { .. }, Ok(_)) => seen.session_deletes += 1,
            _ => {}
        }
        self.compare_states();
        check_invariants(&self.plan);
        if i % K == K - 1 {
            self.reopen(seen);
            self.settle(&op, &plan, seen);
        }
    }

    /// Rung 2 against rung 1 on sessions, active roles and enabled flags;
    /// rungs 3 to 6 on `state_diff`.
    fn compare_states(&self) {
        let at = &self.at;
        let (a, b) = (self.interp.system(), &self.direct.sys);
        let sessions: Vec<_> = a.all_sessions().collect();
        assert_eq!(sessions, b.all_sessions().collect::<Vec<_>>(), "{at}");
        for s in sessions {
            assert_eq!(
                a.session_roles(s).ok(),
                b.session_roles(s).ok(),
                "{at}: {s}"
            );
        }
        for r in a.all_roles() {
            assert_eq!(a.is_enabled(r).ok(), b.is_enabled(r).ok(), "{at}: {r}");
        }
        let durable = self.durable.engine();
        let leader = self.cluster.node_engine(0).expect("leader up").engine();
        self.shared.with(|shared| {
            for (rung, (x, y)) in [
                (&self.plan, &self.interp),
                (durable, &self.plan),
                (&*shared, durable),
                (leader, &*shared),
            ]
            .into_iter()
            .enumerate()
            {
                assert_eq!(
                    state_diff(x, y),
                    None,
                    "{at}: rung {} vs {}",
                    rung + 3,
                    rung + 2
                );
            }
        });
    }

    /// Crash rung 4's disk and reopen it: nothing to repair, nothing lost.
    fn reopen(&mut self, seen: &mut Reached) {
        let mut disk = self.durable.storage().clone();
        disk.crash();
        let reopened = DurableEngine::open(disk, durable_config()).unwrap();
        assert_eq!(
            reopened.recovery_stats(),
            RecoveryStats::default(),
            "{}",
            self.at
        );
        assert_eq!(reopened.op_count(), self.durable.op_count(), "{}", self.at);
        assert_eq!(
            state_diff(reopened.engine(), &self.plan),
            None,
            "{}",
            self.at
        );
        seen.reopens_from_snapshot += usize::from(reopened.snapshot_ops() > 0);
        self.durable = reopened;
    }

    /// Settle rung 6 and hold every follower against rung 3; a follower
    /// that grants the step's check from its snapshot agrees with rung 3.
    fn settle(&mut self, op: &JournalOp, plan: &Answer, seen: &mut Reached) {
        let at = &self.at;
        self.cluster.settle();
        let now = self.cluster.leader_now().unwrap();
        for n in 1..self.cluster.len() {
            let follower = self.cluster.node_engine(n).expect("follower up");
            assert_eq!(
                state_diff(follower.engine(), &self.plan),
                None,
                "{at}: n{n}"
            );
            if let JournalOp::CheckAccess {
                session, op, obj, ..
            } = *op
            {
                if self.cluster.read_at(n, session, op, obj, now).unwrap() == ReadOutcome::Granted {
                    assert_eq!(*plan, Ok(Outcome::Access(true)), "{at}: n{n} read");
                    seen.follower_grants += 1;
                }
            }
        }
    }

    /// At the end of the trace, the replay of the acknowledged journal
    /// and every follower's disk, reopened, equal rung 3.
    fn recover_cluster(&mut self) {
        self.cluster.settle();
        let replayed = replay(&self.graph, Ts::ZERO, self.cluster.acked_ops()).unwrap();
        assert_eq!(state_diff(&replayed, &self.plan), None, "acked replay");
        for n in 1..self.cluster.len() {
            let disk = self
                .cluster
                .node_engine(n)
                .expect("up")
                .storage()
                .inner()
                .clone();
            let reopened = DurableEngine::open(disk, DurableConfig::default()).unwrap();
            assert_eq!(state_diff(reopened.engine(), &self.plan), None, "n{n} disk");
        }
    }
}

/// The safety invariants of the rule-driven engine: SoD, hierarchy,
/// session and temporal.
fn check_invariants(e: &Engine) {
    let sys = e.system();
    for id in sys.all_ssd_sets() {
        let (name, roles, n) = sys.ssd_set_info(id).unwrap();
        for u in sys.all_users() {
            let auth = sys.authorized_roles(u).unwrap();
            assert!(
                auth.intersection(&roles).count() < n,
                "SSD `{name}` violated for {u}"
            );
        }
    }
    for id in sys.all_dsd_sets() {
        let (name, roles, n) = sys.dsd_set_info(id).unwrap();
        for s in sys.all_sessions() {
            let active = sys.session_roles(s).unwrap();
            assert!(
                active.intersection(&roles).count() < n,
                "DSD `{name}` violated in {s}"
            );
        }
    }
    // Sessions only hold authorized roles of their owner.
    for s in sys.all_sessions() {
        let owner = sys.session_user(s).unwrap();
        for &r in &sys.session_roles(s).unwrap() {
            assert!(sys.is_authorized(owner, r).unwrap(), "{s} holds {r}");
        }
    }
    // A role with an enabling window is enabled only inside it; a disable
    // request may switch it off early.
    for (name, id) in e.binding().roles.iter() {
        if let Some(w) = &e.policy().role_node(name).expect("policy role").enabling {
            let open = gtrbac::PeriodicWindow::daily(w.start_h, w.start_m, w.end_h, w.end_m)
                .contains(e.now());
            assert!(
                open || !sys.is_enabled(*id).unwrap(),
                "{name} enabled at {}",
                e.now()
            );
        }
    }
}

/// Run one enterprise and trace down the ladder; afterwards a quiet period
/// longer than every Δ leaves no Δ-bounded role active, and rung 3's audit
/// log is tallied by rule family and branch.
pub fn run(graph: PolicyGraph, steps: usize, seed: u64, seen: &mut Reached) {
    let mut trace = generate_trace(&graph, steps, seed);
    trace.push(Step::Advance { secs: 5 * 3600 });
    let mut ladder = Ladder::new(graph);
    for (i, step) in trace.iter().enumerate() {
        ladder.step(i, step, seen);
    }
    ladder.recover_cluster();
    let e = &ladder.plan;
    for (name, id) in e.binding().roles.iter() {
        if e.policy()
            .role_node(name)
            .expect("policy role")
            .max_activation
            .is_some()
        {
            let active = e.system().active_users_of_role(*id).unwrap();
            assert_eq!(active, 0, "Δ-bounded {name} active after the quiet period");
            seen.quiet_delta_roles += 1;
        }
    }
    for entry in e.log().entries() {
        let column = match entry.kind {
            AuditKind::Fired => 0,
            AuditKind::ElseTaken => 1,
            AuditKind::ActionRejected => 2,
            _ => continue,
        };
        let rule = family(entry.rule.as_deref().unwrap_or("-"));
        seen.families.entry(rule.to_string()).or_default()[column] += 1;
        if column == 2 {
            // Ids masked, so the count is per kind of refusal.
            let what: String = entry
                .message
                .chars()
                .filter(|c| !c.is_ascii_digit())
                .collect();
            *seen
                .rejections
                .entry(format!("{rule}: {what}"))
                .or_default() += 1;
        }
    }
}

/// Core RBAC alone: no hierarchy, constraints or temporal properties.
pub fn flat_core() -> EnterpriseSpec {
    EnterpriseSpec::flat(10)
}

/// A dense hierarchy under two SSD and two DSD pairs, nothing temporal.
pub fn hierarchy_and_sod() -> EnterpriseSpec {
    EnterpriseSpec {
        roles: 15,
        users: 20,
        permissions: 20,
        hierarchy_density: 0.7,
        ssd_pairs: 2,
        dsd_pairs: 2,
        capped_fraction: 0.0,
        temporal_fraction: 0.0,
        duration_fraction: 0.0,
        ..EnterpriseSpec::default()
    }
}

/// Cardinality caps, enabling windows and Δ durations on 40 % of roles.
pub fn caps_and_temporal() -> EnterpriseSpec {
    EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        capped_fraction: 0.4,
        temporal_fraction: 0.4,
        duration_fraction: 0.4,
        ..EnterpriseSpec::default()
    }
}

/// Half of the roles need a context value to be activated.
pub fn context_constraints() -> EnterpriseSpec {
    EnterpriseSpec {
        roles: 12,
        users: 15,
        permissions: 15,
        context_fraction: 0.5,
        ..EnterpriseSpec::default()
    }
}
