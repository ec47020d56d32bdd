//! Replication robustness: convergence under a lossy transport, failover
//! that recovers from the promoted follower's own WAL and re-ships from
//! the last acked index, term fencing of rejoining stale leaders, and
//! follower reads bounded by the temporal validity horizon.

mod support;

use rbac::SessionId;
use repl::{state_matches, Cluster, NetFaultKind, NetFaultPlan, ReadOutcome, ReplConfig};
use sim::{apply_client_op, tiny_enterprise};
use snoop::{Civil, Ts};
use workload::{generate_enterprise, generate_trace, Client, EnterpriseSpec, Step};

fn at(h: u32, m: u32) -> Ts {
    Civil::new(2000, 1, 1, h, m, 0).to_ts()
}

fn lockstep() -> ReplConfig {
    ReplConfig {
        jitter: false,
        ..ReplConfig::default()
    }
}

/// Run `steps` through the leader, driving sessions the same way the
/// model checker does.
fn run_script(c: &mut Cluster, steps: &[Step], client: &mut Client) {
    for step in steps {
        c.with_leader(|d| {
            apply_client_op(d, client, step);
        })
        .expect("leader is up");
    }
}

/// At 10:00, inside clerk's 09:00–17:00 enabling window, `user0` opens a
/// session and activates `clerk` through the leader; the session, once
/// every follower has it.
fn clerk_at_ten(c: &mut Cluster) -> SessionId {
    let mut client = Client::new(2);
    let clerk = "clerk".to_string();
    let script = [
        Step::Advance { secs: 36_000 },
        Step::CreateSession { user: 0 },
        Step::AddActiveRole {
            user: 0,
            role: clerk,
        },
    ];
    run_script(c, &script, &mut client);
    c.settle();
    client.sessions()[0].expect("session created")
}

/// The ids of `tiny_enterprise`'s one permission, `write` on `claims`, on
/// node `n`.
fn write_claims(c: &Cluster, n: usize) -> (rbac::OpId, rbac::ObjId) {
    let sys = c.node_engine(n).unwrap().engine().system();
    (
        sys.op_by_name("write").unwrap(),
        sys.obj_by_name("claims").unwrap(),
    )
}

/// Assert every up follower is state-identical to the leader.
fn assert_converged(c: &Cluster, ctx: &str) {
    let li = c.leader().expect("leader up");
    let leader = c.node_engine(li).unwrap().engine();
    for n in 0..c.len() {
        if n == li || !c.is_up(n) {
            continue;
        }
        let f = c.node_engine(n).unwrap();
        assert_eq!(
            f.op_count(),
            c.node_engine(li).unwrap().op_count(),
            "{ctx}: n{n} journal length differs from leader"
        );
        assert!(
            state_matches(leader, f.engine()),
            "{ctx}: n{n} state diverged from leader"
        );
    }
}

/// Core property: whatever the transport does (drop / duplicate /
/// reorder, seeded), after settling every follower is state-identical to
/// the leader and holds exactly the leader's journal — for random
/// enterprises and traces.
#[test]
fn lossy_transport_converges() {
    #[derive(Debug, Default)]
    struct Seen {
        committed: u64,
        dropped: u64,
        duplicated: u64,
    }
    let Some(seen) = support::cases("lossy_transport_converges", 24, |rng, seen: &mut Seen| {
        let spec = EnterpriseSpec {
            roles: 4,
            users: 3,
            permissions: 4,
            ..EnterpriseSpec::default()
        };
        let graph = generate_enterprise(&spec, rng.below(1000) as u64);
        let trace = generate_trace(&graph, 24, rng.below(1000) as u64);
        let config = ReplConfig {
            net: NetFaultPlan {
                p_drop: 0.35,
                p_duplicate: 0.2,
                p_reorder: 0.3,
                scripted: Vec::new(),
            },
            net_seed: rng.below(1000) as u64,
            ..ReplConfig::default()
        };
        let mut c = Cluster::new(&graph, 3, config).expect("cluster boots");
        let mut client = Client::new(graph.users.len());
        run_script(&mut c, &trace, &mut client);
        c.settle();
        assert_converged(&c, "after settle");
        assert_eq!(
            c.commit(),
            c.node_engine(c.leader().unwrap()).unwrap().op_count(),
            "commit index short of the leader log after settle"
        );
        let net = c.transport().stats();
        seen.committed += c.commit();
        seen.dropped += net.dropped;
        seen.duplicated += net.duplicated;
    }) else {
        return;
    };
    println!("{seen:?}");
    assert!(
        seen.committed > 0 && seen.dropped > 0 && seen.duplicated > 0,
        "{seen:?}"
    );
}

/// Scripted transport faults bite at exact send indexes, so a specific
/// lost Append is replayable byte-for-byte — the same `Scripted<K>`
/// format the storage fault injector uses.
#[test]
fn scripted_drop_is_deterministic() {
    let graph = tiny_enterprise();
    let script = |seed: u64| {
        let config = ReplConfig {
            net: NetFaultPlan::scripted_one(1, NetFaultKind::Drop),
            net_seed: seed,
            jitter: false,
            ..ReplConfig::default()
        };
        let mut c = Cluster::new(&graph, 3, config).expect("cluster boots");
        run_script(
            &mut c,
            &[Step::CreateSession { user: 0 }],
            &mut Client::new(2),
        );
        c.settle();
        (c.transport().stats().dropped, c.commit())
    };
    // The scripted fault fires regardless of the probabilistic seed.
    assert_eq!(script(1), script(99));
    let (dropped, commit) = script(1);
    assert_eq!(dropped, 1, "exactly the scripted send is lost");
    assert_eq!(commit, 1, "retransmission recovers the lost Append");
}

/// The headline failover scenario: the leader dies with one follower
/// lagging; the promoted follower recovers from its own durable WAL,
/// re-ships from the last acked index, and the fenced old leader rejoins
/// as a follower of the new term.
#[test]
fn promoted_follower_reships_and_fences_old_leader() {
    let graph = tiny_enterprise();
    let mut c = Cluster::new(&graph, 3, lockstep()).expect("cluster boots");
    let mut client = Client::new(2);

    // Two ops reach everyone.
    run_script(
        &mut c,
        &[
            // 09:30 — inside clerk's 09:00–17:00 enabling window.
            Step::Advance { secs: 34_200 },
            Step::CreateSession { user: 0 },
        ],
        &mut client,
    );
    c.settle();
    assert_eq!(c.commit(), 2);

    // Partition n2 so the next op reaches n1 only.
    c.transport_mut()
        .partition(repl::NodeId(0), repl::NodeId(2));
    run_script(
        &mut c,
        &[Step::AddActiveRole {
            user: 0,
            role: "clerk".into(),
        }],
        &mut client,
    );
    c.settle();
    assert_eq!(
        c.node_engine(1).unwrap().op_count(),
        3,
        "n1 holds the partitioned-era op"
    );
    assert_eq!(c.node_engine(2).unwrap().op_count(), 2, "n2 lags");
    let acked_n2 = c.acked_index(2);
    assert_eq!(acked_n2, 2, "leader acked n2 only through the prefix");

    // Leader dies; heal the partition; promote the up-to-date follower.
    c.crash(0).unwrap();
    c.transport_mut().heal();
    c.promote(1).unwrap();
    assert_eq!(c.leader(), Some(1));
    assert_eq!(c.term(), 2, "promotion bumps the term");
    assert_eq!(
        c.node_engine(1).unwrap().op_count(),
        3,
        "the new leader recovered its full log from its own WAL"
    );
    assert_eq!(
        c.next_index(2),
        acked_n2,
        "re-shipping to n2 resumes from its last acked index"
    );
    // Lose that first Append: retransmission still reaches n2.
    assert!(
        c.transport_mut().drop_slot(0),
        "the Append to n2 is in flight"
    );

    // The lagging follower catches up from the new leader. The commit
    // index waits for every follower, the crashed old leader included.
    c.settle();
    assert_converged(&c, "after failover");
    assert_eq!(c.commit(), 2);

    // The old leader rejoins: recovered from its WAL, fenced to term 2,
    // and converges as a follower.
    c.restart(0).unwrap();
    assert_eq!(
        c.node_term(0),
        2,
        "rejoining node is fenced to the new term"
    );
    c.settle();
    assert_converged(&c, "after old leader rejoins");
    assert_eq!(c.commit(), 3, "every node holds the partitioned-era op");
}

/// A session created before failover keeps working after it: the
/// replicated state machine preserves session IDs, so the promoted
/// leader answers `check_access` for a session minted by its
/// predecessor.
#[test]
fn sessions_survive_failover() {
    let graph = tiny_enterprise();
    let mut c = Cluster::new(&graph, 3, lockstep()).expect("cluster boots");
    let s = clerk_at_ten(&mut c);
    c.crash(0).unwrap();
    c.promote(2).unwrap();
    c.settle();
    let (op, obj) = write_claims(&c, 2);
    assert!(
        c.check_access_via(2, s, op, obj).unwrap(),
        "the promoted leader honours a session its predecessor created"
    );
}

/// Satellite: follower staleness against the GTRBAC window flip, pinned
/// at the exact boundary. `tiny_enterprise`'s `clerk` is enabled
/// 09:00–17:00; a follower snapshot taken mid-window vouches for reads
/// strictly before the 17:00 flip and refuses at and past it.
#[test]
fn follower_refuses_reads_at_the_window_flip() {
    let graph = tiny_enterprise();
    let mut c = Cluster::new(&graph, 3, lockstep()).expect("cluster boots");
    let s = clerk_at_ten(&mut c);
    let (op, obj) = write_claims(&c, 1);

    // The follower's snapshot is valid exactly until the 17:00 flip.
    let snap = c.node_snapshot(1).expect("follower published a snapshot");
    assert_eq!(snap.valid_until(), Some(at(17, 0)));

    // Strictly inside the window: the follower answers authoritatively.
    assert_eq!(
        c.read_at(1, s, op, obj, at(16, 59)).unwrap(),
        ReadOutcome::Granted,
        "one minute before the flip the snapshot still vouches"
    );
    // At the boundary itself the snapshot can no longer vouch: the
    // DIS rule fires *at* 17:00, so the follower must refuse.
    assert_eq!(
        c.read_at(1, s, op, obj, at(17, 0)).unwrap(),
        ReadOutcome::Stale,
        "at the flip the follower degrades"
    );
    assert_eq!(
        c.read_at(1, s, op, obj, at(17, 1)).unwrap(),
        ReadOutcome::Stale,
        "past the flip the follower degrades"
    );
    assert_eq!(c.stale_reads(), 2);
}

/// Degradation end-to-end: once the leader's clock crosses the flip, a
/// routed `check_access` ignores the follower's (now stale) snapshot and
/// asks the leader — who, post-flip, denies because the DIS rule
/// disabled `clerk` and force-deactivated the session.
#[test]
fn stale_follower_degrades_to_leader_after_window_flip() {
    let graph = tiny_enterprise();
    let mut c = Cluster::new(&graph, 3, lockstep()).expect("cluster boots");
    let s = clerk_at_ten(&mut c);
    let (op, obj) = write_claims(&c, 1);

    // Mid-window, the follower's snapshot answers the routed check.
    let before = c.stale_reads();
    assert!(c.check_access_via(1, s, op, obj).unwrap());
    assert_eq!(c.stale_reads(), before, "fresh read served by the follower");

    // Partition the follower, then advance the leader across the flip:
    // the follower still holds the mid-window snapshot, but the query
    // time is now past its horizon.
    c.transport_mut()
        .partition(repl::NodeId(0), repl::NodeId(1));
    run_script(
        &mut c,
        // 10:00 → 17:30, across the flip.
        &[Step::Advance { secs: 27_000 }],
        &mut Client::new(2),
    );
    c.settle();
    let granted = c.check_access_via(1, s, op, obj).unwrap();
    assert!(
        !granted,
        "post-flip the leader denies: clerk is disabled and deactivated"
    );
    assert!(
        c.stale_reads() > before,
        "the routed check counted the follower's refusal"
    );
}
