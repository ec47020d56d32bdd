//! Per-layer probes: each layer's public functions timed in isolation on
//! `ent200`, from outside the product crates.
//!
//! The probes are the same in every traced run whatever the workload, so
//! a layer's cost is always a measured number, also on the workloads that
//! bypass the layer. What cannot be told apart from outside — detection
//! versus dispatch versus condition evaluation inside one `Engine` call —
//! is deliberately left as one number (`sentinel.engine_ns_per_op`).

use crate::fixture::{ent200, shift_changed, ScratchDir};
use crate::hist::{median, Hist};
use crate::run::{apply_all, Deployment, Metric, Report};
use crate::spans::Recorder;
use crate::timed_storage::TimedStorage;
use crate::tracegen::{decision_of, Class, Mix, Op, Outcome, Step, TraceGen};
use crate::workloads::shared_read_write;
use owte_core::{
    DirectEngine, DurableConfig, DurableEngine, Engine, FileStorage, MemStorage, SharedEngine,
};
use policy::PolicyGraph;
use repl::{Cluster, Payload, ReplConfig};
use shard::{Coordinator, ReserveOutcome, Ring, ShardPlan, ShardedEngine};
use snoop::{Dur, Params, Ts};
use std::hint::black_box;
use std::time::Instant;

/// Operations replayed through the engine, the direct baseline and the
/// in-memory journal.
const REPLAY_OPS: usize = 40_000;
/// Operations replayed through the fsynced journal and the cluster.
const SLOW_REPLAY_OPS: usize = 1_000;

/// Probe sizes are stated for a full run; shorter runs (`--scale`, the
/// smoke test) shrink them in proportion, down to a floor that keeps
/// every probe meaningful.
#[derive(Clone, Copy)]
struct Scale(f64);

impl Scale {
    fn of(self, full: usize) -> usize {
        ((full as f64 * self.0) as usize).max(full.min(64))
    }
}

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Median of `reps` timings of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

impl Deployment for DirectEngine {
    fn apply(&mut self, op: &Op) -> Outcome {
        match *op {
            Op::Create { user } => match self.create_session(user, &[]) {
                Ok(s) => Outcome::Session(s),
                Err(_) => Outcome::Decision(false),
            },
            Op::Delete { user, session } => {
                decision_of(self.delete_session(user, session).map(drop))
            }
            Op::Add {
                user,
                session,
                role,
            } => decision_of(self.add_active_role(user, session, role)),
            Op::Drop {
                user,
                session,
                role,
            } => decision_of(self.drop_active_role(user, session, role)),
            Op::Check { session, op, obj } => self
                .check_access(session, op, obj)
                .map_or(Outcome::Error, Outcome::Decision),
            Op::Advance { secs } => match self.advance(Dur::from_secs(secs)) {
                Ok(_) => Outcome::Done,
                Err(_) => Outcome::Error,
            },
        }
    }
}

/// Time spent per latency class while replaying `steps`.
struct Replay {
    total_ns: u64,
    check: Hist,
    activate: Hist,
}

fn replay<D: Deployment>(deployment: &mut D, steps: &[Step], report: &mut Report) -> Replay {
    let mut out = Replay {
        total_ns: 0,
        check: Hist::new(),
        activate: Hist::new(),
    };
    let begin = Instant::now();
    let mut prev = begin;
    for step in steps {
        let got = deployment.apply(&step.op);
        let now = Instant::now();
        let ns = (now - prev).as_nanos() as u64;
        match step.op {
            Op::Check { .. } => out.check.record(ns),
            Op::Add { .. } => out.activate.record(ns),
            _ => {}
        }
        report.compare(step, got);
        prev = now;
    }
    out.total_ns = (prev - begin).as_nanos() as u64;
    out
}

fn mixed_steps(graph: &PolicyGraph, seed: u64, n: usize) -> (Vec<Step>, Vec<Step>) {
    let mut gen = TraceGen::new(graph, seed, Mix::MIXED, 0..graph.users.len());
    let (mut warm, mut steps) = (Vec::new(), Vec::new());
    gen.warm_start(&mut warm);
    gen.fill(&mut steps, n);
    (warm, steps)
}

fn snoop(graph: &PolicyGraph, scale: Scale, out: &mut Vec<Metric>) {
    let inst = policy::instantiate(graph, Ts::ZERO).expect("ent200 instantiates");
    let mut detector = inst.detector;
    // The primitive events the mixed trace raises: checkAccess and the
    // per-role activation requests.
    let mut events = vec![detector
        .lookup(policy::events::CHECK_ACCESS)
        .expect("checkAccess is registered")];
    events.extend(
        graph
            .roles
            .iter()
            .filter_map(|r| detector.lookup(&policy::events::add_active(&r.name))),
    );
    let params = Params::new()
        .with("user", 1i64)
        .with("session", 1i64)
        .with("role", 1i64)
        .with("op", 1i64)
        .with("obj", 1i64)
        .with("purpose", -1i64);
    let (raised0, detected0) = (detector.raised_count(), detector.detected_count());
    let raises = scale.of(200_000);
    let start = Instant::now();
    for i in 0..raises {
        let id = events[i % events.len()];
        black_box(
            detector
                .raise(id, params.clone())
                .expect("registered event"),
        );
    }
    out.push(Metric::new(
        "snoop.raise_ns",
        ns_per(start, raises),
        "ns",
        raises as u64,
    ));
    let raised = detector.raised_count() - raised0;
    out.push(Metric::new(
        "snoop.detections_per_raise",
        (detector.detected_count() - detected0) as f64 / raised.max(1) as f64,
        "ratio",
        raised,
    ));
    // Ten-minute steps across the daily windows, so timers are pending
    // and some fire.
    let advances = scale.of(2_000);
    let start = Instant::now();
    for _ in 0..advances {
        black_box(
            detector
                .advance(Dur::from_secs(600))
                .expect("clock moves forward"),
        );
    }
    out.push(Metric::new(
        "snoop.advance_us",
        ns_per(start, advances) / 1e3,
        "us",
        advances as u64,
    ));
    out.push(Metric::new(
        "snoop.event_nodes",
        detector.node_count() as f64,
        "count",
        0,
    ));
}

/// The engine, the direct baseline and the in-memory journal on one
/// trace; returns the journaled engine for the WAL read probes.
fn engine_direct_journal(
    graph: &PolicyGraph,
    seed: u64,
    scale: Scale,
    out: &mut Vec<Metric>,
    report: &mut Report,
) {
    let (warm, steps) = mixed_steps(graph, seed, scale.of(REPLAY_OPS));
    let ops = steps.len() as u64;

    let mut engine = Engine::from_policy(graph, Ts::ZERO).expect("ent200 instantiates");
    apply_all(&mut engine, &warm, report);
    let entries0 = engine.log().total_len();
    let through_engine = replay(&mut engine, &steps, report);
    let engine_ns = through_engine.total_ns as f64 / ops as f64;
    out.push(Metric::new(
        "sentinel.engine_ns_per_op",
        engine_ns,
        "ns",
        ops,
    ));
    out.push(Metric::new(
        "sentinel.audit_entries_per_op",
        (engine.log().total_len() - entries0) as f64 / ops as f64,
        "count",
        ops,
    ));
    out.push(Metric::new(
        "sentinel.cascade_depth_max",
        engine.deepest_cascade() as f64,
        "count",
        0,
    ));

    let mut direct = DirectEngine::from_policy(graph, Ts::ZERO).expect("ent200 instantiates");
    apply_all(&mut direct, &warm, report);
    let through_direct = replay(&mut direct, &steps, report);
    out.push(Metric::new(
        "rbac.direct_check_ns",
        through_direct.check.quantile(0.5),
        "ns",
        through_direct.check.count(),
    ));
    out.push(Metric::new(
        "rbac.direct_activate_ns",
        through_direct.activate.quantile(0.5),
        "ns",
        through_direct.activate.count(),
    ));
    out.push(Metric::new(
        "core.engine_over_direct_ratio",
        through_engine.total_ns as f64 / through_direct.total_ns.max(1) as f64,
        "ratio",
        ops,
    ));

    // Journal to memory without snapshots (as cluster nodes do): what is
    // left after subtracting the engine is serde encoding, framing, CRC
    // and the copy into the segment.
    let config = DurableConfig {
        snapshot_every: None,
        ..DurableConfig::default()
    };
    let mut journaled = DurableEngine::create(MemStorage::new(), graph, Ts::ZERO, config)
        .expect("a fresh durable engine over empty memory");
    apply_all(&mut journaled, &warm, report);
    let through_journal = replay(&mut journaled, &steps, report);
    out.push(Metric::new(
        "wal.encode_ns_per_op",
        (through_journal.total_ns as f64 / ops as f64 - engine_ns).max(0.0),
        "ns",
        ops,
    ));
}

/// `records_from(n - 1)` — the read a leader does per follower per
/// operation — at two history lengths.
fn wal_reads(
    graph: &PolicyGraph,
    seed: u64,
    scale: Scale,
    out: &mut Vec<Metric>,
    report: &mut Report,
) {
    // From a cold start (no warm start), so history length is exactly the
    // number of trace operations.
    let mut steps = Vec::new();
    TraceGen::new(graph, seed, Mix::MIXED, 0..graph.users.len()).fill(&mut steps, scale.of(8_000));
    let config = DurableConfig {
        snapshot_every: None,
        ..DurableConfig::default()
    };
    let mut journaled = DurableEngine::create(MemStorage::new(), graph, Ts::ZERO, config)
        .expect("a fresh durable engine over empty memory");
    let mut last_records = Vec::new();
    for (name, upto) in [
        ("wal.records_from_us_at_1k", scale.of(1_000)),
        ("wal.records_from_us_at_8k", scale.of(8_000)),
    ] {
        let done = journaled.op_count() as usize;
        apply_all(&mut journaled, &steps[done..upto], report);
        let from = journaled.op_count() - 1;
        let secs = median_secs(15, || {
            black_box(journaled.records_from(from).expect("the log is readable"));
        });
        out.push(Metric::new(name, secs * 1e6, "us", 15));
        last_records = journaled
            .records_from(journaled.op_count() - 64)
            .expect("the log is readable");
    }

    // Framing a full shipping batch, as the leader and follower do.
    let payload = Payload::Append {
        term: 1,
        records: last_records,
        commit: journaled.op_count(),
    };
    let reps = 2_000;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(repl::frame(black_box(&payload)));
    }
    out.push(Metric::new(
        "repl.frame_ns",
        ns_per(start, reps),
        "ns",
        reps as u64,
    ));
    let framed = repl::frame(&payload);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(repl::unframe(black_box(&framed)).expect("a frame we just made"));
    }
    out.push(Metric::new(
        "repl.unframe_ns",
        ns_per(start, reps),
        "ns",
        reps as u64,
    ));
}

fn policy_layer(graph: &PolicyGraph, out: &mut Vec<Metric>) {
    let secs = median_secs(3, || {
        black_box(policy::instantiate(graph, Ts::ZERO).expect("ent200 instantiates"));
    });
    out.push(Metric::new("policy.instantiate_ms", secs * 1e3, "ms", 3));
    let mut inst = policy::instantiate(graph, Ts::ZERO).expect("ent200 instantiates");
    let secs = median_secs(3, || {
        black_box(policy::analyze(&inst));
    });
    out.push(Metric::new("policy.analyze_ms", secs * 1e3, "ms", 3));
    out.push(Metric::new(
        "policy.rules",
        inst.pool.len() as f64,
        "count",
        0,
    ));
    let twin = shift_changed(graph);
    let mut rewritten = 0;
    let mut flip = 0;
    let secs = median_secs(6, || {
        let target = if flip % 2 == 0 { &twin } else { graph };
        flip += 1;
        rewritten = policy::regenerate(&mut inst, target)
            .expect("the twin regenerates")
            .rules_rewritten;
    });
    out.push(Metric::new("policy.regenerate_ms", secs * 1e3, "ms", 6));
    out.push(Metric::new(
        "policy.rules_rewritten",
        rewritten as f64,
        "count",
        0,
    ));
}

/// The fsynced journal: storage calls timed by the wrapper, then a
/// snapshot of the whole engine.
fn storage_and_snapshot(
    graph: &PolicyGraph,
    seed: u64,
    scale: Scale,
    out: &mut Vec<Metric>,
    report: &mut Report,
) {
    let (warm, steps) = mixed_steps(graph, seed, scale.of(SLOW_REPLAY_OPS));
    let dir = ScratchDir::new("probe-wal").expect("scratch directory under the target directory");
    let recorder = Recorder::shared(0);
    recorder.borrow_mut().set_enabled(true);
    let files = FileStorage::open(dir.path()).expect("WAL directory opens");
    let mut engine = DurableEngine::create(
        TimedStorage::traced(files, recorder),
        graph,
        Ts::ZERO,
        DurableConfig::default(),
    )
    .expect("a fresh durable engine over an empty directory");
    apply_all(&mut engine, &warm, report);
    apply_all(&mut engine, &steps, report);
    let stats = engine.storage().stats().clone();
    out.push(Metric::new(
        "storage.append_us",
        stats.append_ns as f64 / stats.appends.max(1) as f64 / 1e3,
        "us",
        stats.appends,
    ));
    out.push(Metric::new(
        "storage.sync_p50_us",
        stats.sync_latency.quantile(0.5) / 1e3,
        "us",
        stats.sync_latency.count(),
    ));
    out.push(Metric::new(
        "storage.sync_p99_us",
        stats.sync_latency.quantile(0.99) / 1e3,
        "us",
        stats.sync_latency.count(),
    ));
    let bytes_before = engine.storage().stats().append_bytes;
    let secs = median_secs(3, || {
        engine.snapshot_now().expect("the snapshot is written")
    });
    out.push(Metric::new("durable.snapshot_ms", secs * 1e3, "ms", 3));
    out.push(Metric::new(
        "durable.snapshot_bytes",
        (engine.storage().stats().append_bytes - bytes_before) as f64 / 3.0,
        "B",
        3,
    ));
}

/// The read path: building a snapshot of 1000 sessions, answering from
/// it, and the locked path a denial takes.
fn snapshot_layer(seed: u64, scale: Scale, out: &mut Vec<Metric>, report: &mut Report) {
    let state = shared_read_write::setup(seed, 0, report);
    let secs = state.shared.with(|engine| {
        median_secs(20, || {
            black_box(engine.snapshot());
        })
    });
    out.push(Metric::new("snapshot.build_us", secs * 1e6, "us", 20));
    let snapshot = state.shared.snapshot().expect("published at construction");
    let reads = scale.of(1_000_000);
    let start = Instant::now();
    let mut granted = 0u64;
    for i in 0..reads {
        let (session, op, obj) = state.grants[i % state.grants.len()];
        granted += u64::from(snapshot.grants(session, op, obj, None));
    }
    out.push(Metric::new(
        "snapshot.grants_ns",
        ns_per(start, reads),
        "ns",
        reads as u64,
    ));
    report.attempted += 1;
    report.failed += u64::from(granted != reads as u64);
    let shared: &SharedEngine = &state.shared;
    let denials = scale.of(5_000);
    let start = Instant::now();
    let mut refused = 0u64;
    for i in 0..denials {
        let (session, op, obj) = state.denials[i % state.denials.len()];
        refused += u64::from(matches!(shared.check_access(session, op, obj), Ok(false)));
    }
    out.push(Metric::new(
        "shared.slow_read_us",
        ns_per(start, denials) / 1e3,
        "us",
        denials as u64,
    ));
    report.attempted += 1;
    report.failed += u64::from(refused != denials as u64);
}

/// The parts of `shard` that can be driven: placement and the
/// coordinator's reserve/commit, plus whether the front can be built.
fn shard_layer(graph: &PolicyGraph, scale: Scale, out: &mut Vec<Metric>) {
    let ring = Ring::new(2);
    let lookups = scale.of(1_000_000);
    let start = Instant::now();
    let mut on_shard_one = 0usize;
    for i in 0..lookups {
        on_shard_one += ring.shard_of(rbac::UserId((i % 1000) as u32));
    }
    black_box(on_shard_one);
    out.push(Metric::new(
        "shard.ring_ns",
        ns_per(start, lookups),
        "ns",
        lookups as u64,
    ));

    // `ShardPlan::from_policy` refuses every generated policy (see the
    // README finding), so the plan is assembled from its public fields the
    // way `from_policy` would: caps and membership from the policy graph.
    let engine = Engine::from_policy(graph, Ts::ZERO).expect("ent200 instantiates");
    let caps: std::collections::BTreeMap<_, _> = graph
        .roles
        .iter()
        .filter_map(|r| Some((engine.role_id(&r.name).ok()?, r.max_active_users?)))
        .collect();
    let plan = ShardPlan {
        membership: caps.keys().copied().collect(),
        caps,
        cross_user_rules: Vec::new(),
        mirror_denials: false,
    };
    out.push(Metric::new(
        "shard.constrained_share",
        plan.caps.len() as f64 / graph.roles.len().max(1) as f64,
        "ratio",
        graph.roles.len() as u64,
    ));
    let capped: Vec<_> = plan.caps.keys().copied().collect();
    let mut coord = Coordinator::new(2, &plan, u64::MAX);
    let rounds = scale.of(200_000);
    let start = Instant::now();
    for i in 0..rounds {
        let user = rbac::UserId((i % 1000) as u32);
        let role = capped[i % capped.len()];
        let token = coord.token();
        let shard = i % 2;
        if let ReserveOutcome::Granted { .. } = coord.reserve(shard, token, user, role, 0) {
            coord.commit(token, true);
            // Give the slot back, as the deactivation sync would.
            coord.sync_member(shard, user, role, false);
        }
    }
    out.push(Metric::new(
        "shard.coord_reserve_commit_ns",
        ns_per(start, rounds),
        "ns",
        rounds as u64,
    ));
    out.push(Metric::new(
        "shard.front_constructible",
        f64::from(u8::from(ShardedEngine::new(graph, 2, Ts::ZERO).is_ok())),
        "count",
        1,
    ));
}

/// The cluster's two halves of an operation timed apart, and how commit
/// latency grows with history.
fn repl_layer(
    graph: &PolicyGraph,
    seed: u64,
    scale: Scale,
    out: &mut Vec<Metric>,
    report: &mut Report,
) {
    let (warm, steps) = mixed_steps(graph, seed, scale.of(SLOW_REPLAY_OPS));
    let config = ReplConfig {
        jitter: false,
        ..ReplConfig::default()
    };
    let mut cluster = Cluster::new(graph, 3, config).expect("the cluster boots");
    apply_all(&mut cluster, &warm, report);
    let (mut lead, mut settle) = (Hist::new(), Hist::new());
    let mut commit_ns = Vec::with_capacity(steps.len());
    for step in &steps {
        let start = Instant::now();
        let got = cluster.with_leader(|leader| leader.apply(&step.op));
        let shipped = Instant::now();
        cluster.settle();
        let done = Instant::now();
        lead.record((shipped - start).as_nanos() as u64);
        settle.record((done - shipped).as_nanos() as u64);
        if step.op.class() != Class::Advance {
            commit_ns.push((done - start).as_nanos() as f64);
        }
        report.compare(step, got.unwrap_or(Outcome::Error));
    }
    out.push(Metric::new(
        "repl.with_leader_us",
        lead.quantile(0.5) / 1e3,
        "us",
        lead.count(),
    ));
    out.push(Metric::new(
        "repl.settle_us",
        settle.quantile(0.5) / 1e3,
        "us",
        settle.count(),
    ));
    let decile = (commit_ns.len() / 10).max(1);
    let first = median(&commit_ns[..decile]);
    let last = median(&commit_ns[commit_ns.len() - decile..]);
    out.push(Metric::new(
        "repl.history_growth_ratio",
        last / first.max(1.0),
        "ratio",
        commit_ns.len() as u64,
    ));
}

/// Run every probe. The report collects the oracle comparisons made on
/// the way; the metrics are every `Source::Probe` entry of the catalogue.
///
/// `scale` (0..=1) shrinks the probe sizes for short runs; 1 is the size
/// the recorded numbers are taken at.
pub fn run(seed: u64, scale: f64) -> (Vec<Metric>, Report) {
    let graph = ent200();
    let scale = Scale(scale.clamp(0.0, 1.0));
    let mut out = Vec::new();
    let mut report = Report::default();
    snoop(&graph, scale, &mut out);
    engine_direct_journal(&graph, seed, scale, &mut out, &mut report);
    wal_reads(&graph, seed, scale, &mut out, &mut report);
    policy_layer(&graph, &mut out);
    storage_and_snapshot(&graph, seed, scale, &mut out, &mut report);
    snapshot_layer(seed, scale, &mut out, &mut report);
    shard_layer(&graph, scale, &mut out);
    repl_layer(&graph, seed, scale, &mut out, &mut report);
    (out, report)
}
