//! A 3-node replicated authorization service, end to end: the leader
//! journals every operation and ships CRC-framed WAL records over a
//! lossy transport; followers journal-before-apply and answer
//! `check_access` from lock-free snapshots bounded by the temporal
//! validity horizon; when the leader dies, a promoted follower recovers
//! from its own durable WAL, re-ships from the last acked index, and
//! fences the old leader — which later rejoins as a follower of the new
//! term.
//!
//! Run with: `cargo run --release --example replicated`
//!
//! Exits nonzero if any step of the narrative fails, so CI can run it as
//! an acceptance check.

use repl::{state_matches, Cluster, NetFaultPlan, NodeId, ReadOutcome, ReplConfig};
use sim::{apply_client_op, tiny_enterprise};
use workload::{Client, Step};

fn converged(c: &Cluster) -> bool {
    let li = c.leader().expect("leader up");
    let leader = c.node_engine(li).unwrap();
    (0..c.len()).filter(|&n| n != li && c.is_up(n)).all(|n| {
        let f = c.node_engine(n).unwrap();
        f.op_count() == leader.op_count() && state_matches(leader.engine(), f.engine())
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = tiny_enterprise();
    // A deliberately hostile network: a third of all messages lost, a
    // fifth duplicated, frequent reordering. Retransmission with
    // exponential backoff rides over all of it.
    let config = ReplConfig {
        net: NetFaultPlan {
            p_drop: 0.33,
            p_duplicate: 0.2,
            p_reorder: 0.25,
            scripted: Vec::new(),
        },
        net_seed: 42,
        ..ReplConfig::default()
    };
    let mut c = Cluster::new(&graph, 3, config)?;
    let mut client = Client::new(2);

    println!("== 3-node cluster, leader n0, term {} ==", c.term());

    // Client traffic: move into the clerk window, open a session,
    // activate the role.
    let script = [
        Step::Advance { secs: 10 * 3600 }, // 10:00, inside clerk's window
        Step::CreateSession { user: 0 },
        Step::AddActiveRole {
            user: 0,
            role: "clerk".into(),
        },
    ];
    for step in &script {
        c.with_leader(|d| {
            apply_client_op(d, &mut client, step);
        })?;
    }
    let delivered = c.settle();
    let stats = c.transport().stats();
    println!(
        "shipped {} ops over the lossy wire: {} sends, {} dropped, {} duplicated, {} bytes",
        c.commit(),
        stats.sends,
        stats.dropped,
        stats.duplicated,
        stats.bytes_sent
    );
    println!("  ({delivered} deliveries until settled)");
    assert!(converged(&c), "followers converged to the leader");

    // Followers answer authorization queries from their snapshots.
    let s = client.sessions()[0].expect("session created");
    let (w, claims) = {
        let sys = c.node_engine(0).unwrap().engine().system();
        (sys.op_by_name("write")?, sys.obj_by_name("claims")?)
    };
    let at = c.leader_now()?;
    for n in 1..3 {
        let outcome = c.read_at(n, s, w, claims, at)?;
        println!("follower n{n} answers check_access(write, claims): {outcome:?}");
        assert_eq!(outcome, ReadOutcome::Granted);
    }

    // Partition n2, push one more op so it lags, then kill the leader.
    c.transport_mut().partition(NodeId(0), NodeId(2));
    c.with_leader(|d| {
        apply_client_op(
            d,
            &mut client,
            &Step::CheckAccess {
                user: 0,
                op: "write".into(),
                obj: "claims".into(),
            },
        );
    })?;
    c.settle();
    let lag = c.acked_index(2);
    println!(
        "\n== partition n0⊥n2, one more op: n1 at {}, n2 acked only {lag} ==",
        c.node_engine(1).unwrap().op_count()
    );
    c.crash(0)?;
    c.transport_mut().heal();
    println!("== leader n0 power-fails; promoting n1 ==");

    // The promoted follower recovers from its own WAL and re-ships to
    // the lagging follower from its last acked index.
    c.promote(1)?;
    println!(
        "n1 leads term {}: recovered {} ops from its own WAL, re-shipping to n2 from index {}",
        c.term(),
        c.node_engine(1).unwrap().op_count(),
        c.next_index(2)
    );
    assert_eq!(c.term(), 2);
    assert_eq!(c.next_index(2), lag, "re-ship resumes at the acked index");
    c.settle();
    assert!(converged(&c), "n2 caught up from the new leader");

    // The replicated session keeps working across the failover.
    assert!(
        c.check_access_via(2, s, w, claims)?,
        "session survives failover"
    );
    println!("session {s} still authorized through the new leader");

    // The fenced old leader rejoins as a follower.
    c.restart(0)?;
    c.settle();
    println!(
        "\n== n0 rejoins: recovered {} ops from its own disk, fenced to term {}, converged: {} ==",
        c.node_engine(0).unwrap().op_count(),
        c.node_term(0),
        converged(&c)
    );
    assert_eq!(c.node_term(0), 2, "rejoining node is fenced");
    assert!(converged(&c), "old leader converged as a follower");

    println!("\nall replication expectations held");
    Ok(())
}
