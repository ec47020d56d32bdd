//! Crash-consistency properties of the durable engine.
//!
//! The central property: **for any random enterprise, trace and crash
//! point, reopening the store yields exactly the state of replaying the
//! acknowledged operation prefix on a fresh engine.** Crashes are injected
//! with the deterministic `FaultyStorage` wrapper (torn final frames,
//! transient I/O errors, failed fsyncs, hard kill points) over a
//! `MemStorage` whose `crash()` models the page cache: only synced bytes
//! survive.
//!
//! Damage a crash cannot explain — a flipped bit mid-log — must instead
//! fail recovery closed, and a journal whose virtual clock runs backwards
//! must be rejected before a single operation is applied.

mod support;

use owte_core::{
    replay, state_diff, DurableConfig, DurableEngine, DurableError, Engine, FaultPlan,
    FaultyStorage, FileStorage, JournalOp, MemStorage, Outcome, Storage, Wal, WalConfig, WalError,
};
use rbac::SessionId;
use snoop::Ts;
use support::Driver;
use workload::{generate_enterprise, generate_trace, EnterpriseSpec, Step};

/// [`Driver`] over a [`DurableEngine`], recording every operation the
/// engine *acknowledged journaling* (detected via the op counter, since a
/// denied request is journaled too while a storage failure is not).
/// Operations keep being attempted after the storage dies — the engine
/// must reject them without corrupting its history.
struct Durable<'a, S: Storage> {
    d: &'a mut DurableEngine<S>,
    acked: &'a mut Vec<JournalOp>,
}

impl<S: Storage> Driver for Durable<'_, S> {
    fn engine(&self) -> &Engine {
        self.d.engine()
    }

    fn submit(&mut self, op: &JournalOp) -> Option<Outcome> {
        let before = self.d.op_count();
        let answer = self.d.submit(op);
        if self.d.op_count() > before {
            self.acked.push(op.clone());
        }
        answer.ok()
    }
}

fn drive_durable<S: Storage>(
    d: &mut DurableEngine<S>,
    trace: &[Step],
    users: usize,
    acked: &mut Vec<JournalOp>,
) {
    support::drive(&mut Durable { d, acked }, trace, users);
}

fn enterprise(seed: u64) -> (workload::EnterpriseSpec, policy::PolicyGraph) {
    let spec = EnterpriseSpec {
        roles: 8,
        users: 10,
        permissions: 10,
        temporal_fraction: 0.3,
        duration_fraction: 0.3,
        context_fraction: 0.3,
        capped_fraction: 0.3,
        ..EnterpriseSpec::default()
    };
    let graph = generate_enterprise(&spec, seed);
    (spec, graph)
}

/// What the crash-consistency cases recovered.
#[derive(Debug, Default)]
struct Recovered {
    /// Cases whose store was created before the kill point fired.
    opened: usize,
    /// Acknowledged operations recovered, summed.
    ops: usize,
    /// Cases whose kill point fired while the trace ran.
    killed: usize,
    /// Cases that recovered from a snapshot past genesis.
    from_snapshot: usize,
}

/// The crash-consistency property, over random enterprises, traces and
/// kill points, with torn writes, transient I/O errors and failed fsyncs
/// all enabled.
#[test]
fn recovery_equals_prefix_replay() {
    let Some(seen) = support::cases(
        "recovery_equals_prefix_replay",
        10,
        |rng, seen: &mut Recovered| {
            let (ent_seed, trace_seed) = (rng.below(200) as u64, rng.below(200) as u64);
            let kill_at = 1 + rng.below(119) as u64;
            let (spec, graph) = enterprise(ent_seed);
            let trace = generate_trace(&graph, 100, trace_seed);
            let plan = FaultPlan {
                kill_at_op: Some(kill_at),
                torn_writes: true,
                p_transient_io: 0.05,
                p_failed_sync: 0.05,
                ..FaultPlan::default()
            };
            let storage = FaultyStorage::new(MemStorage::new(), rng.next(), plan);
            let config = DurableConfig {
                snapshot_every: Some(25),
                ..DurableConfig::default()
            };
            let Ok(mut d) = DurableEngine::create(storage, &graph, Ts::ZERO, config.clone()) else {
                // The kill point fired during genesis; nothing to recover.
                return;
            };
            let mut acked = Vec::new();
            drive_durable(&mut d, &trace, spec.users, &mut acked);

            // Power loss: only synced bytes survive.
            let storage = d.into_storage();
            seen.killed += usize::from(storage.is_dead());
            let mut disk = storage.into_inner();
            disk.crash();

            let recovered = DurableEngine::open(disk, config)
                .unwrap_or_else(|e| panic!("crash at any point must be recoverable: {e}"));
            assert_eq!(
                recovered.op_count(),
                acked.len() as u64,
                "recovered op count != acknowledged prefix"
            );
            seen.opened += 1;
            seen.ops += acked.len();

            let expected = replay(&graph, Ts::ZERO, &acked)
                .unwrap_or_else(|e| panic!("acknowledged prefix replays: {e}"));
            assert_eq!(state_diff(recovered.engine(), &expected), None);
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    assert!(
        seen.opened > 0 && seen.ops > 0 && seen.killed > 0,
        "{seen:?}"
    );
}

/// Without any injected faults, reopening is lossless for the whole trace
/// (and exercises the snapshot/compaction path heavily).
#[test]
fn clean_reopen_is_lossless() {
    let Some(seen) = support::cases(
        "clean_reopen_is_lossless",
        10,
        |rng, seen: &mut Recovered| {
            let (spec, graph) = enterprise(rng.below(200) as u64);
            let trace = generate_trace(&graph, 80, rng.below(200) as u64);
            let config = DurableConfig {
                snapshot_every: Some(16),
                ..DurableConfig::default()
            };
            let mut d =
                DurableEngine::create(MemStorage::new(), &graph, Ts::ZERO, config.clone()).unwrap();
            let mut acked = Vec::new();
            drive_durable(&mut d, &trace, spec.users, &mut acked);
            assert_eq!(d.snapshot_failures(), 0, "snapshot failed");
            let live = d.engine().clone();
            let total = d.op_count();

            let mut disk = d.into_storage();
            disk.crash(); // sync_on_append: everything acknowledged survives
            let recovered = DurableEngine::open(disk, config).unwrap();
            assert_eq!(recovered.op_count(), total, "op count changed");
            assert_eq!(
                recovered.recovery_stats(),
                owte_core::RecoveryStats::default(),
                "a clean reopen repairs nothing"
            );
            assert_eq!(state_diff(recovered.engine(), &live), None);
            seen.opened += 1;
            seen.ops += acked.len();
            seen.from_snapshot += usize::from(recovered.snapshot_ops() > 0);
        },
    ) else {
        return;
    };
    println!("{seen:?}");
    assert!(seen.opened == 10 && seen.from_snapshot > 0, "{seen:?}");
}

/// Helper: run a small deterministic workload and return storage + the
/// acknowledged ops + the policy.
fn small_run(snapshot_every: Option<u64>) -> (MemStorage, Vec<JournalOp>, policy::PolicyGraph) {
    let (spec, graph) = enterprise(7);
    let trace = generate_trace(&graph, 40, 11);
    let config = DurableConfig {
        snapshot_every,
        ..DurableConfig::default()
    };
    let mut d = DurableEngine::create(MemStorage::new(), &graph, Ts::ZERO, config).unwrap();
    let mut acked = Vec::new();
    drive_durable(&mut d, &trace, spec.users, &mut acked);
    (d.into_storage(), acked, graph)
}

fn active_segment_name(storage: &MemStorage) -> String {
    let mut segs: Vec<String> = storage
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

#[test]
fn torn_final_frame_truncates_to_previous_op() {
    let (mut storage, acked, graph) = small_run(None);
    let seg = active_segment_name(&storage);
    let len = storage.raw(&seg).unwrap().len();
    storage.truncate(&seg, len - 2); // tear the last record

    let recovered =
        DurableEngine::open(storage, DurableConfig::default()).expect("a torn tail is recoverable");
    assert_eq!(recovered.op_count(), acked.len() as u64 - 1);
    assert!(
        recovered.recovery_stats().truncated_tail,
        "the dropped torn record must be surfaced to the caller"
    );
    let expected = replay(&graph, Ts::ZERO, &acked[..acked.len() - 1]).unwrap();
    assert_eq!(state_diff(recovered.engine(), &expected), None);
}

#[test]
fn midlog_corruption_fails_closed() {
    let (mut storage, _acked, _graph) = small_run(None);
    // Flip a bit inside the first record's payload: segment header (28)
    // plus frame header (12) plus a couple of payload bytes.
    let seg = {
        let mut segs: Vec<String> = storage
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| n.starts_with("wal-") && n.ends_with(".seg"))
            .collect();
        segs.sort();
        segs.remove(0)
    };
    assert!(storage.raw(&seg).unwrap().len() > 44, "segment has records");
    storage.corrupt(&seg, 28 + 12 + 2);

    match DurableEngine::open(storage, DurableConfig::default()) {
        Err(DurableError::Wal(WalError::Corrupt(m))) => {
            assert!(m.contains("checksum"), "unexpected corruption message: {m}")
        }
        Ok(_) => panic!("corrupted log must not recover"),
        Err(other) => panic!("expected corruption error, got {other}"),
    }
}

#[test]
fn clock_regression_in_journal_is_rejected_before_apply() {
    let (spec, graph) = enterprise(3);
    let _ = spec;
    let d = DurableEngine::create(
        MemStorage::new(),
        &graph,
        Ts::from_secs(1_000),
        DurableConfig::default(),
    )
    .unwrap();
    let storage = d.into_storage();

    // Forge a journal tail whose clock runs backwards: a valid advance,
    // then one into the past. The durable engine's own API refuses to
    // journal such a record, so write it through the WAL directly.
    let (mut wal, _) = Wal::open(storage, WalConfig::default()).unwrap();
    for op in [
        JournalOp::AdvanceTo {
            to: Ts::from_secs(2_000),
        },
        JournalOp::AdvanceTo {
            to: Ts::from_secs(500),
        },
    ] {
        wal.append(&serde_json::to_vec(&op).unwrap()).unwrap();
    }

    match DurableEngine::open(wal.into_storage(), DurableConfig::default()) {
        Err(DurableError::ClockRegression { record, .. }) => {
            assert_eq!(record, 1, "the second tail record is the regression");
        }
        Ok(_) => panic!("a regressing journal must not recover"),
        Err(other) => panic!("expected clock-regression error, got {other}"),
    }
}

#[test]
fn file_storage_survives_process_restart() {
    let dir = std::env::temp_dir().join(format!("owte-durability-file-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (spec, graph) = enterprise(5);
    let trace = generate_trace(&graph, 60, 9);
    let config = DurableConfig {
        snapshot_every: Some(16),
        ..DurableConfig::default()
    };

    let live = {
        let storage = FileStorage::open(&dir).unwrap();
        let mut d = DurableEngine::create(storage, &graph, Ts::ZERO, config.clone()).unwrap();
        let mut acked = Vec::new();
        drive_durable(&mut d, &trace, spec.users, &mut acked);
        d.engine().clone()
    }; // drop = process exit

    let storage = FileStorage::open(&dir).unwrap();
    let recovered = DurableEngine::open(storage, config).unwrap();
    assert_eq!(state_diff(recovered.engine(), &live), None);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshotting_bounds_recovery_work() {
    // Same workload, with and without snapshots: the snapshotted store
    // must recover from a tail much shorter than the full history.
    let (storage_snap, acked, _) = small_run(Some(8));
    let (storage_full, acked_full, _) = small_run(None);
    assert_eq!(acked.len(), acked_full.len(), "identical workloads");

    let snap = DurableEngine::open(storage_snap, DurableConfig::default()).unwrap();
    let full = DurableEngine::open(storage_full, DurableConfig::default()).unwrap();
    assert_eq!(snap.op_count(), full.op_count());
    assert!(
        snap.snapshot_ops() > 0,
        "snapshotted store recovered from a snapshot"
    );
    assert_eq!(full.snapshot_ops(), 0, "genesis snapshot only");
}

/// A store written by the commit before the session table became a
/// copy-on-write structure (`tests/fixtures/wal_pr12`: genesis, three
/// sessions of which one closed, a snapshot, then three more operations)
/// opens: the snapshot's flat `sessions` sequence restores into the
/// chunked table and the journal tail replays over it.
#[test]
fn store_written_before_the_session_table_opens() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_pr12");
    // Work on a copy: opening a store may repair or rotate its files.
    let dir = std::env::temp_dir().join(format!("owte-wal-pr12-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }

    let mut d = DurableEngine::open(FileStorage::open(&dir).unwrap(), DurableConfig::default())
        .expect("a store written by the previous commit opens");
    assert_eq!((d.op_count(), d.snapshot_ops()), (7, 4));
    assert_eq!(d.recovery_stats(), owte_core::RecoveryStats::default());
    let (clerk, auditor) = (d.role_id("clerk").unwrap(), d.role_id("auditor").unwrap());
    {
        let sys = d.engine().system();
        let live: Vec<SessionId> = sys.all_sessions().collect();
        assert_eq!(live, [SessionId(0), SessionId(2), SessionId(3)]);
        // From the snapshot, then changed by the replayed tail.
        assert!(sys.session_roles(SessionId(0)).unwrap().is_empty());
        assert_eq!(
            sys.session_roles(SessionId(2)).unwrap(),
            [clerk, auditor].into()
        );
        assert_eq!(sys.session_roles(SessionId(3)).unwrap(), [clerk].into());
    }
    // Session ids carry on from the restored table.
    let ann = d.user_id("ann").unwrap();
    assert_eq!(d.create_session(ann, &[clerk]).unwrap(), SessionId(4));

    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}
