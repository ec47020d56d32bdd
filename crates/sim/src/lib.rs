//! Deterministic simulation and bounded model checking of the durable,
//! concurrent OWTE stack.
//!
//! Every source of nondeterminism in a real deployment — *when* detector
//! timers fire relative to client operations, *where* in a storage write
//! sequence the process dies, and *when* it restarts — is owned here by a
//! virtual-time scheduler and released one decision at a time. A
//! [`World`] wraps a [`DurableEngine`](owte_core::DurableEngine) over
//! [`FaultyStorage`](owte_core::FaultyStorage)/[`MemStorage`](owte_core::MemStorage);
//! a *crash* drops the in-memory engine at an exact storage-op boundary
//! (surviving bytes only), a *restart* replays recovery from whatever the
//! simulated disk retained.
//!
//! Two exploration strategies drive the scheduler ([`Strategy`]):
//!
//! * **Seeded-random** — samples whole schedules from a seed; cheap
//!   enough for CI on medium configurations.
//! * **Exhaustive** — depth-first enumeration of *every* interleaving of
//!   client ops, timer firings and crash/restart points up to a step
//!   budget, with state-fingerprint pruning and a crash-stutter
//!   partial-order rule (sound for the state invariants checked here).
//!
//! A pluggable invariant layer ([`Invariants`]) is evaluated after every
//! scheduler step: no SSD/DSD or cardinality violation is ever
//! observable, no acknowledged journal operation is lost across any
//! crash point, the engine — which runs the compiled plan, as a
//! deployment does — always equals the rule interpreter's replay of the
//! acknowledged prefix, and rule cascades stay within the static
//! analyzer's proved depth bound.
//!
//! Violations are reported as a minimal replayable schedule: a
//! [`Schedule`] shrinks to the shortest step script that still fails and
//! replays deterministically via [`run_schedule`].
//!
//! The explorer is generic over worlds ([`SimWorld`]) and invariant
//! suites ([`Checker`]): the single-process [`World`] above is one
//! instance, and [`ClusterWorld`] extends the same machinery to a whole
//! replication group — message deliveries, losses, duplicates, per-node
//! crashes and failovers join the choice alphabet, and
//! [`ClusterInvariants`] additionally asserts that no interleaving loses
//! a cluster-acknowledged operation, diverges a follower from the
//! acked-prefix replay, or serves a follower read past its staleness
//! bound.

pub mod cluster;
pub mod explore;
pub mod invariants;
pub mod shard;
pub mod world;

pub use crate::shard::{ShardChoice, ShardInvariants, ShardWorld};
pub use cluster::{ClusterInvariants, ClusterWorld, NetChoice, ReadRecord};
pub use explore::{
    explore, run_schedule, Budget, CheckReport, Checker, Outcome, Schedule, SimWorld, Stats,
    Strategy,
};
pub use invariants::{Invariants, Violation};
pub use world::{apply_client_op, Choice, SimStore, World};

use owte_core::DurableConfig;
use policy::{DailyWindow, PolicyGraph};
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, Step};

/// Everything one checking run needs: the enterprise and workload to
/// simulate (by spec + seed, so any report is replayable), the durable
/// engine tunables, and how hard to explore.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Enterprise shape.
    pub enterprise: EnterpriseSpec,
    /// Client script length, in steps.
    pub steps: usize,
    /// Seed for [`generate_enterprise`].
    pub ent_seed: u64,
    /// Seed for [`generate_trace`].
    pub trace_seed: u64,
    /// Durable-engine tunables under test.
    pub durable: DurableConfig,
    /// Exploration strategy.
    pub strategy: Strategy,
    /// Exploration budget.
    pub budget: Budget,
}

/// Check an enterprise/workload pair against the full invariant suite.
///
/// This is the front-end the ISSUE/CI use: generate the policy graph and
/// client trace from seeds, build the initial [`World`], derive the
/// invariants from the same (trusted) graph, and explore. The returned
/// [`CheckReport`] carries explored/pruned state counts and, on failure,
/// the minimal failing schedule plus the seeds needed to replay it.
pub fn check(cfg: &CheckConfig) -> CheckReport {
    let graph = generate_enterprise(&cfg.enterprise, cfg.ent_seed);
    let trace = generate_trace(&graph, cfg.steps, cfg.trace_seed);
    let world =
        World::new(&graph, trace, cfg.durable.clone()).expect("generated policy instantiates");
    let invariants = Invariants::from_reference(&graph);
    let outcome = explore(
        &world,
        &invariants,
        cfg.strategy.clone(),
        cfg.budget.clone(),
    );
    CheckReport::new(outcome, cfg.ent_seed, cfg.trace_seed)
}

/// The smallest enterprise that still exercises every invariant class:
/// two users, three roles with an SSD pair (`billing` ⊥ `auditing`), a
/// DSD pair, a GTRBAC daily enabling window on `clerk`, a per-role
/// activation cap, and one guarded permission.
///
/// `user0` is assigned `clerk` + `billing`; `user1` is assigned `clerk` +
/// `auditing`. Any state in which one user holds both `billing` and
/// `auditing` is an SSD violation the checker must flag.
pub fn tiny_enterprise() -> PolicyGraph {
    let mut g = PolicyGraph::new("tiny");
    g.role("clerk").enabling = Some(DailyWindow {
        start_h: 9,
        start_m: 0,
        end_h: 17,
        end_m: 0,
    });
    g.role("clerk").max_active_users = Some(2);
    g.role("billing");
    g.role("auditing");
    g.user("user0");
    g.user("user1");
    g.permission("file-claim", "write", "claims");
    g.grant("file-claim", "clerk");
    g.assign("user0", "clerk");
    g.assign("user0", "billing");
    g.assign("user1", "clerk");
    g.assign("user1", "auditing");
    g.ssd_set("bill-audit", &["billing", "auditing"], 2);
    g.dsd_set("bill-audit-dyn", &["billing", "auditing"], 2);
    g
}

/// A short client script over [`tiny_enterprise`] touching sessions,
/// activation, an SSD-violating assignment attempt, access checks and
/// virtual time (so GTRBAC window timers are pending throughout).
pub fn tiny_ops() -> Vec<Step> {
    vec![
        Step::CreateSession { user: 0 },
        Step::CreateSession { user: 1 },
        Step::AddActiveRole {
            user: 0,
            role: "clerk".into(),
        },
        // user1 tries to pick up `billing` while assigned `auditing`: the
        // monitor must refuse (SSD), in every interleaving, crash or not.
        Step::AssignUser {
            user: 1,
            role: "billing".into(),
        },
        Step::CheckAccess {
            user: 0,
            op: "write".into(),
            obj: "claims".into(),
        },
        Step::AddActiveRole {
            user: 1,
            role: "auditing".into(),
        },
        Step::DeleteSession { user: 1 },
    ]
}

/// Doctor a policy graph by stripping its SoD sets — the seeded-bug
/// variant: an engine built from this graph happily accepts conflicting
/// assignments, which the invariant layer (still derived from the
/// *original* graph) must catch and report as a minimal schedule.
pub fn strip_sod(mut graph: PolicyGraph) -> PolicyGraph {
    graph.ssd.clear();
    graph.dsd.clear();
    graph
}
