//! `replicated_mixed`: a 3-node `repl::Cluster` over `ent200` on a
//! lossless `SimTransport`, one closed-loop client on the mixed trace —
//! `with_leader(op)` then `settle()` per operation, so the client is
//! acknowledged at commit — then a failover phase.
//!
//! Delivery is instant, so latency here is processor time only: framing,
//! shipping, the followers' journal-before-apply, and the leader
//! re-reading and re-decoding its whole WAL on every operation (clusters
//! force `snapshot_every = None`), which makes cost per operation grow
//! with history. This is the only workload where a log index or an
//! in-memory tail shows; `durable_mixed` is its single-node baseline.

use crate::fixture::ent200;
use crate::hist::median;
use crate::run::{
    apply_all, closed_loop, monitor_matches_model, push_loop_metrics, timed_setup, Config,
    LoopShape, Report,
};
use crate::spans::SharedRecorder;
use crate::tracegen::{Mix, TraceGen};
use repl::{Cluster, ReplConfig};
use std::time::Instant;

/// Nodes in the cluster.
pub const NODES: usize = 3;
/// Clones failed over in the phase.
pub const FAILOVERS: usize = 5;
/// The users the client acts for. A fifth of the enterprise: every
/// operation costs about a millisecond and more as history grows, and the
/// warm start (which set-up repeats) is proportional to this.
const CLIENT_USERS: std::ops::Range<usize> = 0..200;
const SHAPE: LoopShape = LoopShape {
    slices: 5,
    chunk: 64,
};

struct State {
    gen: TraceGen,
    cluster: Cluster,
}

fn repl_config() -> ReplConfig {
    ReplConfig {
        jitter: false,
        ..ReplConfig::default()
    }
}

fn setup(cfg: &Config, report: &mut Report) -> State {
    let graph = ent200();
    let mut gen = TraceGen::new(&graph, cfg.seed, Mix::MIXED, CLIENT_USERS);
    let mut cluster = Cluster::new(&graph, NODES, repl_config()).expect("the cluster boots");
    let mut warm = Vec::new();
    gen.warm_start(&mut warm);
    apply_all(&mut cluster, &warm, report);
    State { gen, cluster }
}

fn op_counts(cluster: &Cluster) -> Vec<u64> {
    (0..cluster.len())
        .filter_map(|n| cluster.node_op_count(n))
        .collect()
}

/// Run the workload.
pub fn run(cfg: &Config, recorder: &SharedRecorder) -> Report {
    let mut report = Report::default();
    let (mut state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg, &mut report));
    report.metric("setup_s", setup_s, "s", cfg.setup_reps as u64);
    report.notes.push(format!(
        "deployment: repl::Cluster::new(ent200, {NODES}, jitter off), lossless SimTransport with \
         instant delivery (latency is processor time only); no audit-log cap (followers are not \
         reachable through the public API); 1 closed-loop client, acknowledged at commit; warm \
         start only"
    ));

    let slices = closed_loop(
        &mut state.cluster,
        &mut state.gen,
        cfg,
        SHAPE,
        recorder,
        &mut report,
    );
    push_loop_metrics(&slices, &mut report);
    let cluster = &state.cluster;
    let counts = op_counts(cluster);
    report.check(
        format!(
            "commit index {} equals every node's op_count {counts:?}",
            cluster.commit()
        ),
        counts.len() == NODES && counts.iter().all(|c| *c == cluster.commit()),
    );
    report.check(
        "the leader's sessions, active roles and clock equal the DirectEngine model's",
        cluster
            .node_engine(0)
            .is_some_and(|leader| monitor_matches_model(leader.engine(), &state.gen)),
    );
    let net = cluster.transport().stats();
    let committed = cluster.commit();

    // Failover phase: on clones of the settled cluster, power-fail the
    // leader, promote a follower and run to convergence.
    let mut failover_ms = Vec::with_capacity(FAILOVERS);
    for i in 0..FAILOVERS {
        let mut clone = cluster.clone();
        let start = Instant::now();
        let done = clone.crash(0).and_then(|()| clone.promote(1));
        clone.settle();
        failover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let survivors_agree = match (clone.node_engine(1), clone.node_engine(2)) {
            (Some(a), Some(b)) => {
                a.op_count() == b.op_count()
                    && a.op_count() == committed
                    && repl::state_matches(a.engine(), b.engine())
            }
            _ => false,
        };
        report.check(
            format!("failover #{i}: the survivors converge on the committed history"),
            done.is_ok() && clone.leader() == Some(1) && survivors_agree,
        );
    }
    report.metric("phase_ms", median(&failover_ms), "ms", FAILOVERS as u64);
    report.notes.push(format!(
        "phase: on {FAILOVERS} clones, crash(0), promote(1), settle() at a history of {committed} operations"
    ));

    if cfg.trace {
        super::push_trace_metrics(&slices, state.gen.stats(), recorder, &mut report);
        let ops = committed.max(1) as f64;
        report.metric(
            "repl.sends_per_op",
            net.sends as f64 / ops,
            "count",
            committed,
        );
        report.metric(
            "repl.shipped_bytes_per_op",
            net.bytes_sent as f64 / ops,
            "B",
            committed,
        );
    }
    report
}
