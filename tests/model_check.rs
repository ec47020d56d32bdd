//! Bounded model checking of the durable OWTE stack (tier-1 for the
//! simulation subsystem).
//!
//! The centerpiece: on a small but complete enterprise — two users, an
//! SSD/DSD role pair, a GTRBAC daily enabling window, a per-role
//! activation cap, and a durable journal underneath — *no interleaving*
//! of client operations, detector timer firings and crash/restart points
//! violates separation-of-duty or loses an acknowledged journal
//! operation. And when a violation is deliberately seeded (an engine
//! built from a doctored policy, or a journal that acknowledges before
//! syncing), the checker finds it and reports a minimal replayable
//! schedule.

use owte_core::DurableConfig;
use repl::ReplConfig;
use sentinel::AuditKind;
use sim::{
    explore, run_schedule, strip_sod, tiny_enterprise, tiny_ops, Budget, Checker, Choice,
    ClusterInvariants, ClusterWorld, Invariants, NetChoice, Outcome, SimWorld, Strategy, Violation,
    World,
};
use workload::Step;

/// The durable config the clean sweep runs under: snapshot every 4 ops
/// so the exhaustive sweep crosses snapshot writes and log compaction,
/// not just plain appends.
fn clean_config() -> DurableConfig {
    DurableConfig {
        snapshot_every: Some(4),
        ..DurableConfig::default()
    }
}

/// Acceptance sweep: every interleaving of the 7-op client script with
/// timer firings and one crash/restart cycle — including crashes at
/// every storage-op boundary inside each client op, clean and torn —
/// satisfies every invariant.
#[test]
fn exhaustive_tiny_enterprise_is_clean() {
    let graph = tiny_enterprise();
    let world = World::new(&graph, tiny_ops(), clean_config()).expect("tiny policy instantiates");
    assert!(
        world
            .engine()
            .expect("world boots running")
            .engine()
            .next_timer_at()
            .is_some(),
        "the GTRBAC enabling window must arm a detector timer at boot, \
         or the sweep never interleaves timer firings"
    );
    // The sweep explores the engine a deployment runs: the compiled
    // plan, held against the interpreter after every step.
    assert!(
        world
            .engine()
            .expect("world boots running")
            .engine()
            .compiled_active(),
        "the tiny enterprise must compile, or the sweep explores the interpreter"
    );
    let invariants = Invariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 10,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    match explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    ) {
        Outcome::Clean(stats) => {
            println!("tiny sweep: {stats:?}");
            assert!(
                stats.complete,
                "sweep must cover the whole bounded space, not give up: {stats:?}"
            );
            assert!(
                stats.explored > 100,
                "suspiciously small sweep — is the choice enumeration broken? {stats:?}"
            );
            assert!(
                stats.pruned_fingerprint > 0,
                "fingerprint dedup never fired on a space with commuting steps: {stats:?}"
            );
        }
        Outcome::Violation {
            violation,
            schedule,
            ..
        } => panic!(
            "invariant violation in the honest stack: {violation}\nschedule:\n{}",
            schedule.script(&world)
        ),
    }
}

/// Seeded-bug 1: the engine is built from the policy with its SoD sets
/// stripped, while the invariants still check the original policy. The
/// checker must catch the under-enforcing engine and shrink the failure
/// to exactly the four client ops leading to the conflicting assignment.
#[test]
fn seeded_ssd_violation_is_found_and_minimized() {
    let reference = tiny_enterprise();
    let doctored = strip_sod(tiny_enterprise());
    let world =
        World::new(&doctored, tiny_ops(), DurableConfig::default()).expect("doctored instantiates");
    let invariants = Invariants::from_reference(&reference);
    // No crash budget here: crash/restart exploration has its own tests,
    // and without it the minimal schedule is exact, not merely small.
    let budget = Budget {
        max_steps: 10,
        max_crashes: 0,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let outcome = explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    );
    let Outcome::Violation {
        violation,
        schedule,
        ..
    } = outcome
    else {
        panic!("stripped-SoD engine passed the original policy's invariants");
    };
    assert_eq!(
        violation,
        Violation::Ssd {
            set: "bill-audit".into(),
            user: "user1".into(),
            held: vec!["auditing".into(), "billing".into()],
        },
        "wrong violation reported"
    );
    assert_eq!(
        schedule.0,
        vec![Choice::NextOp; 4],
        "minimal schedule must be exactly the ops up to the conflicting \
         assignment (ops[3]), timers shrunk away:\n{}",
        schedule.script(&world)
    );
    // The reported schedule replays deterministically to the same
    // violation at its final step.
    let replayed = run_schedule(&world, &invariants, &schedule.0)
        .expect("minimal schedule stays enabled")
        .expect("minimal schedule still violates");
    assert_eq!(replayed, (violation, 3));
}

/// The plan check compares real evidence: after every step of the client
/// script the live engine, running the compiled plan, is in the state the
/// reference interpreter reaches on the acknowledged ledger, and both
/// logged rule firings, grants and denials along the way.
#[test]
fn plan_check_compares_the_deployed_plan_with_the_interpreter() {
    let graph = tiny_enterprise();
    let mut world =
        World::new(&graph, tiny_ops(), DurableConfig::default()).expect("tiny policy instantiates");
    let invariants = Invariants::from_reference(&graph);
    for _ in 0..tiny_ops().len() {
        world.apply(&Choice::NextOp).expect("script step applies");
        assert!(
            invariants.check(&world).is_none(),
            "honest stack violated an invariant mid-script"
        );
    }
    let live = world.engine().expect("world still running").engine();
    assert!(live.compiled_active(), "the live engine runs the plan");
    assert!(
        !world.interpreted().compiled_active(),
        "the reference walks the rule pool"
    );
    assert_eq!(live.log().entries(), world.interpreted().log().entries());
    let count = |kinds: &[AuditKind]| {
        live.log()
            .entries()
            .iter()
            .filter(|e| kinds.contains(&e.kind))
            .count()
    };
    let fired = count(&[AuditKind::Fired]);
    let denied = count(&[AuditKind::Denied, AuditKind::ActionRejected]);
    assert!(
        fired > 0 && denied > 0,
        "a 7-op script over an enterprise with SoD, windows and caps must \
         fire rules and deny something: {fired} fired, {denied} denied"
    );
}

/// Seeded-bug: the world's engine enforces a policy with its SoD sets
/// stripped, while the reference interpreter runs the real one and the
/// state invariants are derived from the stripped one, so only the plan
/// check can see the difference. It must report `CompiledDivergence` on
/// the step where the engine grants the assignment the reference refuses,
/// and shrink the schedule to the ops up to it.
#[test]
fn seeded_plan_divergence_is_found_and_minimized() {
    let reference = tiny_enterprise();
    let doctored = strip_sod(tiny_enterprise());
    let world = World::new(&doctored, tiny_ops(), DurableConfig::default())
        .and_then(|w| w.with_reference(&reference))
        .expect("tiny policy instantiates");
    let invariants = Invariants::from_reference(&doctored);
    let budget = Budget {
        max_steps: 10,
        max_crashes: 0,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let outcome = explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    );
    let Outcome::Violation {
        violation,
        schedule,
        ..
    } = outcome
    else {
        panic!("an engine diverging from the reference interpreter passed the plan check");
    };
    assert!(
        matches!(violation, Violation::CompiledDivergence { .. }),
        "wrong violation reported: {violation}"
    );
    // ops[3] is the SSD-conflicting assignment the doctored engine grants.
    assert_eq!(
        schedule.0,
        vec![Choice::NextOp; 4],
        "minimal schedule must stop at the conflicting assignment:\n{}",
        schedule.script(&world)
    );
    let replayed = run_schedule(&world, &invariants, &schedule.0)
        .expect("minimal schedule stays enabled")
        .expect("minimal schedule still violates");
    assert_eq!(replayed, (violation, 3));
    // The same schedule is clean when the engine and the reference run
    // one policy.
    let honest = World::new(&doctored, tiny_ops(), DurableConfig::default())
        .expect("tiny policy instantiates");
    assert!(
        run_schedule(&honest, &invariants, &schedule.0)
            .expect("schedule stays enabled")
            .is_none(),
        "an engine and a reference on the same policy must agree"
    );
}

/// Seeded-bug 2: `sync_on_append: false` acknowledges journal appends
/// that are still in the page cache. The checker must find the
/// acked-but-lost window and shrink it to three steps: one acknowledged
/// operation, a power loss, a restart.
#[test]
fn seeded_durability_bug_is_found_and_minimized() {
    let graph = tiny_enterprise();
    let lossy = DurableConfig {
        sync_on_append: false,
        snapshot_every: None,
        ..DurableConfig::default()
    };
    let world = World::new(&graph, tiny_ops(), lossy).expect("tiny policy instantiates");
    let invariants = Invariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 8,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let outcome = explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    );
    let Outcome::Violation {
        violation,
        schedule,
        ..
    } = outcome
    else {
        panic!("unsynced-acknowledgement config passed the durability invariants");
    };
    assert_eq!(
        violation,
        Violation::AckedOpsLost {
            acked: 1,
            recovered: 0,
        },
        "wrong violation reported"
    );
    assert_eq!(
        schedule.0.len(),
        3,
        "minimal schedule is ack/crash/restart:\n{}",
        schedule.script(&world)
    );
    assert_eq!(
        schedule.0.last(),
        Some(&Choice::Restart),
        "the loss is observed on the recovery step"
    );
    // The canonical counterexample replays on the lossy config…
    let canonical = vec![Choice::NextOp, Choice::CrashNow, Choice::Restart];
    let (v, at) = run_schedule(&world, &invariants, &canonical)
        .expect("canonical schedule stays enabled")
        .expect("canonical schedule violates on the lossy config");
    assert_eq!(at, 2);
    assert_eq!(
        v,
        Violation::AckedOpsLost {
            acked: 1,
            recovered: 0,
        }
    );
    // …and the very same schedule is clean under durable acknowledgement.
    let honest =
        World::new(&graph, tiny_ops(), DurableConfig::default()).expect("tiny policy instantiates");
    assert!(
        run_schedule(&honest, &invariants, &canonical)
            .expect("canonical schedule stays enabled")
            .is_none(),
        "synced appends must survive the same crash point"
    );
}

/// The seeded-random walker (the CI strategy for configurations too big
/// to exhaust) also finds the durability bug, and shrinking still
/// reduces whatever long random schedule found it to the 3-step core.
#[test]
fn random_strategy_finds_durability_bug() {
    let graph = tiny_enterprise();
    let lossy = DurableConfig {
        sync_on_append: false,
        snapshot_every: None,
        ..DurableConfig::default()
    };
    let world = World::new(&graph, tiny_ops(), lossy).expect("tiny policy instantiates");
    let invariants = Invariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 12,
        max_crashes: 2,
        max_schedules: 256,
        ..Budget::default()
    };
    let outcome = explore(
        &world,
        &invariants,
        Strategy::Random { seed: 0xC0FFEE },
        budget,
    );
    let Outcome::Violation {
        violation,
        schedule,
        ..
    } = outcome
    else {
        panic!("256 random schedules with crashes never lost an unsynced ack");
    };
    assert!(
        matches!(violation, Violation::AckedOpsLost { recovered: 0, .. }),
        "wrong violation reported: {violation}"
    );
    assert_eq!(
        schedule.0.len(),
        3,
        "random find must shrink to the same 3-step core:\n{}",
        schedule.script(&world)
    );
    assert_eq!(schedule.0.last(), Some(&Choice::Restart));
}

/// Validate the reduction against ground truth: on a space small enough
/// to walk raw, the pruned and unpruned exhaustive sweeps must agree on
/// the verdict, and the reduction must actually reduce.
#[test]
fn reduction_agrees_with_raw_tree_walk() {
    let graph = tiny_enterprise();
    let two_ops = tiny_ops()[..2].to_vec();
    let budget = Budget {
        max_steps: 5,
        max_crashes: 2,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let invariants = Invariants::from_reference(&graph);
    let run = |reduction: bool| {
        let world = World::new(&graph, two_ops.clone(), DurableConfig::default())
            .expect("tiny policy instantiates");
        explore(
            &world,
            &invariants,
            Strategy::Exhaustive { reduction },
            budget.clone(),
        )
    };
    let (Outcome::Clean(reduced), Outcome::Clean(raw)) = (run(true), run(false)) else {
        panic!("reduced and raw sweeps must both be clean on the honest stack");
    };
    println!("tiny reduction: reduced {reduced:?}, raw {raw:?}");
    assert!(reduced.complete && raw.complete);
    assert_eq!(
        raw.pruned_fingerprint + raw.pruned_stutter,
        0,
        "the raw walk must not prune: {raw:?}"
    );
    assert!(
        reduced.pruned_fingerprint > 0 && reduced.pruned_stutter > 0,
        "both reduction rules must fire on this space: {reduced:?}"
    );
    assert!(
        reduced.explored < raw.explored,
        "reduction must shrink the explored space: {} vs {}",
        reduced.explored,
        raw.explored
    );
}

/// Replication config for the multi-node sweeps: deterministic backoff
/// (no jitter), no probabilistic faults — loss, duplication and
/// reordering are *scheduler choices*, so the explorer owns them.
fn cluster_config() -> ReplConfig {
    ReplConfig {
        jitter: false,
        ..ReplConfig::default()
    }
}

/// The multi-node acceptance sweep: on a 3-node group over the tiny
/// enterprise, every interleaving of client ops, message deliveries,
/// losses, duplicates, per-node crashes, restarts, failovers and
/// follower reads — up to the step budget — keeps every invariant: no
/// acknowledged op is lost, every node is the replay of its journaled
/// prefix, SSD/DSD/caps hold on every node, and no follower read outruns
/// the validity horizon.
#[test]
fn exhaustive_cluster_sweep_is_clean() {
    let graph = tiny_enterprise();
    let ops = vec![
        Step::CreateSession { user: 0 },
        Step::AssignUser {
            user: 1,
            role: "billing".into(),
        },
    ];
    let world =
        ClusterWorld::new(&graph, 3, ops, cluster_config()).expect("tiny cluster instantiates");
    let invariants = ClusterInvariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 6,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    match explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    ) {
        Outcome::Clean(stats) => {
            println!("cluster sweep: {stats:?}");
            assert!(
                stats.complete,
                "sweep must cover the whole bounded space: {stats:?}"
            );
            assert!(
                stats.explored > 500,
                "suspiciously small multi-node sweep: {stats:?}"
            );
            assert!(
                stats.pruned_commute > 0,
                "delivery commutation never fired on a 3-node group: {stats:?}"
            );
            assert!(
                stats.pruned_fingerprint > 0,
                "fingerprint dedup never fired: {stats:?}"
            );
        }
        Outcome::Violation {
            violation,
            schedule,
            ..
        } => panic!(
            "invariant violation in the honest cluster: {violation}\nschedule:\n{}",
            schedule.script(&world)
        ),
    }
}

/// Regression, as a fixed schedule: the leader journals an op nobody
/// receives and dies; a follower is promoted and writes a different op at
/// the same index; the deposed leader restarts. Its log is no longer than
/// the new leader's, and still it must not be kept: `FollowerDivergence`
/// has to stay silent, with the node wiped and waiting for a resync.
#[test]
fn cluster_deposed_leader_rejoins_without_its_unacked_suffix() {
    let graph = tiny_enterprise();
    let ops = vec![
        Step::CreateSession { user: 0 },
        Step::AssignUser {
            user: 1,
            role: "billing".into(),
        },
    ];
    let world =
        ClusterWorld::new(&graph, 3, ops, cluster_config()).expect("tiny cluster instantiates");
    let invariants = ClusterInvariants::from_reference(&graph);
    let schedule = [
        NetChoice::ClientOp,
        NetChoice::CrashNode { node: 0 },
        NetChoice::Promote { node: 1 },
        NetChoice::ClientOp,
        NetChoice::RestartNode { node: 0 },
    ];
    let mut end = world.clone();
    for choice in &schedule {
        assert!(end.apply_choice(choice).is_ok(), "{choice} is enabled");
        if let Some(violation) = invariants.check(&end) {
            panic!("after {choice}: {violation}");
        }
    }
    // Not vacuously: both ops were journaled, each by the leader of its
    // term alone, and the restart did wipe node 0.
    let cluster = end.cluster();
    assert_eq!(cluster.history().len(), 1, "op[0] went with its term");
    assert_eq!(cluster.node_op_count(1), Some(1));
    assert_eq!(cluster.node_op_count(0), Some(0));
}

/// Seeded-bug 3: `premature_ack` advances the commit index the moment
/// the *leader* journals, without waiting for follower acks — the
/// classic lost-ack bug. The checker must find it and shrink it to the
/// 2-step core: one client op, then a bare follower is promoted before
/// anyone received the Append. `promote` may depose a live leader (that
/// is what a partitioned leader looks like to the rest of the group), so
/// no crash is needed.
#[test]
fn cluster_seeded_premature_ack_is_found_and_minimized() {
    let graph = tiny_enterprise();
    let buggy = ReplConfig {
        premature_ack: true,
        ..cluster_config()
    };
    let ops = vec![Step::CreateSession { user: 0 }];
    let world = ClusterWorld::new(&graph, 2, ops, buggy).expect("tiny cluster instantiates");
    let invariants = ClusterInvariants::from_reference(&graph);
    let budget = Budget {
        max_steps: 5,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let outcome = explore(
        &world,
        &invariants,
        Strategy::Exhaustive { reduction: true },
        budget,
    );
    let Outcome::Violation {
        violation,
        schedule,
        ..
    } = outcome
    else {
        panic!("premature-ack cluster passed the durability invariants");
    };
    assert_eq!(
        violation,
        Violation::AckedOpsLost {
            acked: 1,
            recovered: 0,
        },
        "wrong violation reported"
    );
    assert_eq!(
        schedule.0,
        vec![NetChoice::ClientOp, NetChoice::Promote { node: 1 }],
        "minimal schedule is op / bare follower promoted:\n{}",
        schedule.script(&world)
    );
    // The minimal schedule replays deterministically to the same
    // violation on its final step…
    let replayed = run_schedule(&world, &invariants, &schedule.0)
        .expect("minimal schedule stays enabled")
        .expect("minimal schedule still violates");
    assert_eq!(replayed, (violation, 1));
    // …and the same schedule is clean when acks are honest: the honest
    // commit index never covers the op nobody replicated.
    let honest = ClusterWorld::new(&graph, 2, vec![Step::CreateSession { user: 0 }], {
        cluster_config()
    })
    .expect("tiny cluster instantiates");
    assert!(
        run_schedule(&honest, &invariants, &schedule.0)
            .expect("schedule stays enabled")
            .is_none(),
        "an honest commit index must survive the same crash point"
    );
}

/// Validate the delivery-commutation reduction against ground truth on
/// the cluster space: reduced and raw sweeps agree on the verdict, and
/// the reduction actually reduces.
#[test]
fn cluster_reduction_agrees_with_raw_tree_walk() {
    let graph = tiny_enterprise();
    let ops = vec![Step::CreateSession { user: 0 }];
    let budget = Budget {
        max_steps: 5,
        max_crashes: 1,
        max_states: 2_000_000,
        ..Budget::default()
    };
    let invariants = ClusterInvariants::from_reference(&graph);
    let run = |reduction: bool| {
        let world = ClusterWorld::new(&graph, 3, ops.clone(), cluster_config())
            .expect("tiny cluster instantiates");
        explore(
            &world,
            &invariants,
            Strategy::Exhaustive { reduction },
            budget.clone(),
        )
    };
    let (Outcome::Clean(reduced), Outcome::Clean(raw)) = (run(true), run(false)) else {
        panic!("reduced and raw cluster sweeps must both be clean on the honest stack");
    };
    println!("cluster reduction: reduced {reduced:?}, raw {raw:?}");
    assert!(reduced.complete && raw.complete);
    assert_eq!(
        raw.pruned_commute, 0,
        "the raw walk must not prune deliveries: {raw:?}"
    );
    assert!(
        reduced.pruned_commute > 0,
        "delivery commutation must fire on this space: {reduced:?}"
    );
    assert!(
        reduced.explored < raw.explored,
        "reduction must shrink the explored cluster space: {} vs {}",
        reduced.explored,
        raw.explored
    );
}
