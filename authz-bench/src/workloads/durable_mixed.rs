//! `durable_mixed`: `DurableEngine<FileStorage>` in a fresh directory on
//! the checkout's disk, default configuration (`sync_on_append = true`,
//! `snapshot_every = 4096`), one closed-loop client on the mixed trace,
//! then a restart phase.
//!
//! Every operation, `check_access` included, is journaled and fsynced, so
//! journal encoding, `Wal::append` and `Storage::sync` dominate and the
//! rule engine is a small share: group commit shows here and must not move
//! `engine_mixed`. The periodic JSON snapshot of the whole engine is what
//! the slowest operations are.

use crate::fixture::{ent200, ScratchDir, LOG_CAP};
use crate::hist::median;
use crate::run::{
    apply_all, closed_loop, monitor_matches_model, push_loop_metrics, timed_setup, Config,
    Deployment, LoopShape, Report,
};
use crate::spans::SharedRecorder;
use crate::timed_storage::TimedStorage;
use crate::tracegen::{Mix, TraceGen};
use owte_core::{DurableConfig, DurableEngine, FileStorage, MemStorage};
use snoop::Ts;
use std::time::Instant;

/// Reopens in the restart phase.
pub const RESTARTS: usize = 10;
/// Journal records after the newest snapshot when the restart phase
/// begins: half of `DurableConfig::default().snapshot_every`.
const REPLAY_TAIL: u64 = 2048;
/// Operations acknowledged before the simulated power loss, at the full
/// run length; shorter runs scale it down.
const CRASH_PREFIX_OPS: f64 = 10_000.0;
const SHAPE: LoopShape = LoopShape {
    slices: 10,
    chunk: 256,
};
/// The users the client acts for: 300 of the 1000. Every warm-start
/// operation costs an fsync, and the disk's fsync drifts by tens of percent
/// within the hour; with all users the warm start was 60 % of `setup_s`
/// and `setup_s` drifted with the disk. The rule engine's working set is
/// not what this workload is about (it is 1 % of an operation).
const CLIENT_USERS: std::ops::Range<usize> = 0..300;

type Store = TimedStorage<FileStorage>;

struct State {
    gen: TraceGen,
    engine: DurableEngine<Store>,
    /// Owns the WAL directory; removed when the run ends.
    dir: ScratchDir,
}

fn setup(cfg: &Config, recorder: &SharedRecorder, report: &mut Report) -> State {
    let graph = ent200();
    let mut gen = TraceGen::new(&graph, cfg.seed, Mix::MIXED, CLIENT_USERS);
    let dir = ScratchDir::new("wal").expect("scratch directory under the target directory");
    let files = FileStorage::open(dir.path()).expect("WAL directory opens");
    let mut engine = DurableEngine::create(
        TimedStorage::traced(files, recorder.clone()),
        &graph,
        Ts::ZERO,
        DurableConfig::default(),
    )
    .expect("a fresh durable engine over an empty directory");
    engine.engine_mut().set_log_cap(Some(LOG_CAP));
    let mut warm = Vec::new();
    gen.warm_start(&mut warm);
    apply_all(&mut engine, &warm, report);
    State { gen, engine, dir }
}

/// Run the workload.
pub fn run(cfg: &Config, recorder: &SharedRecorder) -> Report {
    let mut report = Report::default();
    let (state, setup_s) = timed_setup(cfg.setup_reps, || setup(cfg, recorder, &mut report));
    let State {
        mut gen,
        mut engine,
        dir,
    } = state;
    report.metric("setup_s", setup_s, "s", cfg.setup_reps as u64);
    report.notes.push(format!(
        "deployment: DurableEngine<FileStorage> with DurableConfig::default() in {} \
         (not a tmpfs unless the checkout is), log cap {LOG_CAP}; 1 closed-loop client; \
         warm start only (every operation costs an fsync)",
        dir.path().display()
    ));

    let slices = closed_loop(&mut engine, &mut gen, cfg, SHAPE, recorder, &mut report);
    push_loop_metrics(&slices, &mut report);
    report.check(
        "sessions, active roles and clock equal the DirectEngine model's",
        monitor_matches_model(engine.engine(), &gen),
    );
    // Recovery time is snapshot load plus replay of the records after it,
    // and where the measured phase stops relative to the last automatic
    // snapshot is chance. Run on (unmeasured) to a fixed tail, half the
    // snapshot interval, so every run recovers the same amount of log.
    while engine.op_count() - engine.snapshot_ops() != REPLAY_TAIL {
        let step = gen.next_step();
        let got = engine.apply(&step.op);
        report.compare(&step, got);
    }
    let journaled = engine.op_count();
    let storage = engine.storage().stats().clone();

    // Restart phase: drop the engine and reopen it from its directory.
    let mut reference = engine.engine().clone();
    let mut files = Some(engine.into_storage());
    let mut recover_ms = Vec::with_capacity(RESTARTS);
    let mut replayed_tail = 0;
    // Each reopen serves (and journals) one decision.
    for (i, expected_ops) in (journaled..).take(RESTARTS).enumerate() {
        let store = files
            .take()
            .expect("the previous reopen returned the storage");
        let start = Instant::now();
        let reopened = DurableEngine::open(store, DurableConfig::default());
        let open_time = start.elapsed();
        let mut reopened = match reopened {
            Ok(e) => e,
            Err(e) => {
                report.check(format!("reopen #{i} succeeds ({e})"), false);
                break;
            }
        };
        report.check(
            format!("reopen #{i}: state equals the live engine's and op_count is unchanged"),
            repl::state_matches(&reference, reopened.engine())
                && reopened.op_count() == expected_ops,
        );
        replayed_tail = expected_ops - reopened.snapshot_ops();
        // The cap is a monitoring toggle, not journaled: re-apply it.
        reopened.engine_mut().set_log_cap(Some(LOG_CAP));
        let Some(first) = gen.check_step() else {
            report.check("a live session exists for the first decision", false);
            break;
        };
        let start = Instant::now();
        let got = reopened.apply(&first.op);
        recover_ms.push((open_time + start.elapsed()).as_secs_f64() * 1e3);
        report.compare(&first, got);
        reference.apply(&first.op);
        files = Some(reopened.into_storage());
    }
    report.metric(
        "phase_ms",
        median(&recover_ms),
        "ms",
        recover_ms.len() as u64,
    );
    report.notes.push(format!(
        "phase: {RESTARTS} times DurableEngine::open until the first decision is served \
         ({replayed_tail} journal records replayed after the newest snapshot)"
    ));

    acked_ops_survive_power_loss(cfg, &mut report);

    if cfg.trace {
        super::push_trace_metrics(&slices, gen.stats(), recorder, &mut report);
        let ops = journaled.max(1) as f64;
        report.metric(
            "storage.syncs_per_op",
            storage.syncs as f64 / ops,
            "count",
            journaled,
        );
        report.metric(
            "storage.bytes_per_op",
            storage.append_bytes as f64 / ops,
            "B",
            journaled,
        );
        report.metric(
            "storage.creates_deletes_per_kop",
            (storage.creates + storage.deletes) as f64 * 1e3 / ops,
            "count",
            journaled,
        );
        // The genesis snapshot of `create` is not an automatic one.
        report.metric(
            "durable.snapshots",
            storage.snapshot_creates.saturating_sub(1) as f64,
            "count",
            journaled,
        );
        report.metric(
            "durable.replayed_tail_ops",
            replayed_tail as f64,
            "count",
            0,
        );
    }
    report
}

/// Killing a process leaves the OS page cache intact, so a reopen of the
/// real directory cannot show that acknowledged operations are durable.
/// `MemStorage::crash` can: it drops every byte that was not synced.
fn acked_ops_survive_power_loss(cfg: &Config, report: &mut Report) {
    let prefix = ((CRASH_PREFIX_OPS * (cfg.seconds / 10.0).min(1.0)) as usize).max(100);
    let graph = ent200();
    let mut gen = TraceGen::new(&graph, cfg.seed, Mix::MIXED, 0..graph.users.len());
    let mut engine = DurableEngine::create(
        MemStorage::new(),
        &graph,
        Ts::ZERO,
        DurableConfig::default(),
    )
    .expect("a fresh durable engine over empty memory");
    let mut steps = Vec::new();
    gen.warm_start(&mut steps);
    gen.fill(&mut steps, prefix);
    apply_all(&mut engine, &steps, report);
    let acknowledged = engine.op_count();
    let reference = engine.engine().clone();
    let mut disk = engine.into_storage();
    disk.crash();
    let survived = DurableEngine::open(disk, DurableConfig::default()).is_ok_and(|back| {
        back.op_count() == acknowledged && repl::state_matches(&reference, back.engine())
    });
    report.check(
        format!("all {acknowledged} acknowledged operations survive MemStorage::crash()"),
        survived,
    );
}
