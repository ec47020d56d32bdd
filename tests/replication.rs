//! Replication property: for any random enterprise and policy-aware
//! trace, a replica rebuilt from the primary's journal is state-identical
//! — the determinism that makes the paper's "distributed access control"
//! future work implementable as state-machine replication.
//!
//! The primary is the one that ships: a `DurableEngine<MemStorage>` that
//! never compacts its log (`snapshot_every: None`, as cluster nodes run).
//! Replicas are built two ways — by replaying the decoded journal on a
//! fresh engine, and by recovering a second durable engine from the
//! journal bytes. The 3-node `repl::Cluster` that ships this journal is
//! rung 6 of the refinement ladder (`support::ladder`).

mod support;

use owte_core::{
    replay, state_diff, DurableConfig, DurableEngine, Engine, JournalOp, MemStorage, Outcome,
};
use snoop::Ts;
use support::{drive, Driver};
use workload::{generate_enterprise, generate_trace, EnterpriseSpec};

/// [`Driver`] over the primary: every request is journaled, then applied;
/// decisions are irrelevant here (denied requests are journaled too).
struct Primary<'a>(&'a mut DurableEngine<MemStorage>);

impl Driver for Primary<'_> {
    fn engine(&self) -> &Engine {
        self.0.engine()
    }

    fn submit(&mut self, op: &JournalOp) -> Option<Outcome> {
        self.0.submit(op).ok()
    }
}

/// What the replicated runs journaled.
#[derive(Debug, Default)]
struct Journaled {
    ops: usize,
    sessions: usize,
}

fn config() -> DurableConfig {
    DurableConfig {
        snapshot_every: None,
        ..DurableConfig::default()
    }
}

/// A primary built from enterprise `spec` (seed `ent_seed`), driven
/// through a policy-aware trace of `steps` steps (seed `trace_seed`), and
/// the policy it started from.
fn primary_run(
    spec: &EnterpriseSpec,
    ent_seed: u64,
    steps: usize,
    trace_seed: u64,
) -> (DurableEngine<MemStorage>, policy::PolicyGraph) {
    let graph = generate_enterprise(spec, ent_seed);
    let trace = generate_trace(&graph, steps, trace_seed);
    let mut primary = DurableEngine::create(MemStorage::new(), &graph, Ts::ZERO, config()).unwrap();
    drive(&mut Primary(&mut primary), &trace, spec.users);
    (primary, graph)
}

/// Replaying the primary's decoded journal from its first record on a
/// fresh engine reaches the primary's state.
#[test]
fn replica_equals_primary() {
    let Some(seen) = support::cases("replica_equals_primary", 16, |rng, seen: &mut Journaled| {
        let spec = EnterpriseSpec {
            roles: 10,
            users: 12,
            permissions: 12,
            temporal_fraction: 0.3,
            duration_fraction: 0.3,
            context_fraction: 0.3,
            capped_fraction: 0.3,
            ..EnterpriseSpec::default()
        };
        let (ent_seed, trace_seed) = (rng.below(500) as u64, rng.below(500) as u64);
        let (primary, graph) = primary_run(&spec, ent_seed, 150, trace_seed);
        let ops: Vec<JournalOp> = primary
            .ops_from(0)
            .unwrap()
            .into_iter()
            .map(|(_, op)| op)
            .collect();
        assert_eq!(ops.len() as u64, primary.op_count());
        let replica =
            replay(&graph, Ts::ZERO, &ops).unwrap_or_else(|e| panic!("journal replays: {e}"));
        assert_eq!(state_diff(primary.engine(), &replica), None);
        seen.ops += ops.len();
        seen.sessions += primary.engine().system().session_count();
    }) else {
        return;
    };
    println!("{seen:?}");
    assert!(seen.ops > 0 && seen.sessions > 0, "{seen:?}");
}

/// The journal survives serialization (a real replica receives it over
/// the wire): a durable engine recovered from the primary's log bytes,
/// with nothing but the genesis snapshot to start from, is state-equal.
#[test]
fn replica_from_serialized_journal() {
    let Some(seen) = support::cases(
        "replica_from_serialized_journal",
        16,
        |rng, seen: &mut Journaled| {
            let seed = rng.below(200) as u64;
            let spec = EnterpriseSpec::sized(8);
            let (primary, _) = primary_run(&spec, seed, 80, seed);
            let replica = DurableEngine::open(primary.storage().clone(), config())
                .unwrap_or_else(|e| panic!("recovers: {e}"));
            assert_eq!(replica.snapshot_ops(), 0, "replayed from genesis");
            assert_eq!(replica.op_count(), primary.op_count());
            assert_eq!(state_diff(primary.engine(), replica.engine()), None);
            seen.ops += owte_core::checked_index(replica.op_count());
            seen.sessions += primary.engine().system().session_count();
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    assert!(seen.ops > 0 && seen.sessions > 0, "{seen:?}");
}
