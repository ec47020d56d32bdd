//! Crash-tolerant engine: write-ahead journaling over a [`Storage`]
//! backend, with snapshot recovery.
//!
//! [`DurableEngine::submit`] is its one write path: every request is a
//! [`JournalOp`], appended to the WAL *before* it touches the in-memory
//! engine, so the persisted history is always at least as long as the
//! applied one. An operation whose append fails is rejected without
//! being applied — the caller's acknowledgement and the log never
//! disagree, which is the invariant the crash-consistency property tests
//! pin down:
//!
//! > reopening after a crash at any point yields exactly the state of
//! > replaying the acknowledged prefix.
//!
//! Recovery ([`DurableEngine::open`]) loads the newest intact snapshot —
//! a full serialized [`Engine`], so restoring is `O(tail)`, not
//! `O(history)` — replays the tail records, and fails closed on anything
//! a crash cannot explain (checksum mismatches, index gaps, snapshots
//! from a future format version, a journal whose clock runs backwards).

use crate::engine::{Engine, EngineError};
use crate::journal::{resubmit, JournalOp, Outcome};
use crate::storage::Storage;
use crate::wal::{Recovered, Wal, WalConfig, WalError};
use policy::PolicyGraph;
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use snoop::Ts;
use std::fmt;

/// An error from the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// The WAL could not record or recover.
    Wal(WalError),
    /// The engine rejected the operation (after it was journaled — the
    /// rejection is part of history).
    Engine(EngineError),
    /// The policy could not be instantiated on `create`.
    Instantiate(policy::InstantiateError),
    /// A snapshot or record failed to encode/decode.
    Codec(String),
    /// Recovery found no usable snapshot to restore from.
    NoSnapshot,
    /// The journal's virtual clock runs backwards; nothing was applied.
    ClockRegression {
        /// Index of the offending record within the recovered tail.
        record: usize,
        /// Clock value before the record.
        from: Ts,
        /// The (earlier) instant the record tries to advance to.
        to: Ts,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "durable: {e}"),
            DurableError::Engine(e) => write!(f, "durable: engine: {e}"),
            DurableError::Instantiate(e) => write!(f, "durable: instantiate: {e}"),
            DurableError::Codec(m) => write!(f, "durable: codec: {m}"),
            DurableError::NoSnapshot => {
                write!(f, "durable: recovery found no usable snapshot")
            }
            DurableError::ClockRegression { record, from, to } => write!(
                f,
                "durable: journal clock regresses at tail record {record}: \
                 {from} -> {to}; refusing to replay"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        DurableError::Wal(e)
    }
}

impl From<EngineError> for DurableError {
    fn from(e: EngineError) -> Self {
        DurableError::Engine(e)
    }
}

/// Result alias for durable operations.
pub type Result<T> = std::result::Result<T, DurableError>;

/// Tunables for [`DurableEngine`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Segment rotation threshold (bytes).
    pub segment_max_bytes: usize,
    /// Sync the log on every append (durable acknowledgements).
    pub sync_on_append: bool,
    /// Write a snapshot (and compact the log) every this many operations.
    /// `None` disables automatic snapshots.
    pub snapshot_every: Option<u64>,
}

impl Default for DurableConfig {
    fn default() -> DurableConfig {
        DurableConfig {
            segment_max_bytes: 256 * 1024,
            sync_on_append: true,
            snapshot_every: Some(4096),
        }
    }
}

impl DurableConfig {
    fn wal(&self) -> WalConfig {
        WalConfig {
            segment_max_bytes: self.segment_max_bytes,
            sync_on_append: self.sync_on_append,
        }
    }
}

/// What the last recovery had to repair. All-zero after a fresh
/// [`DurableEngine::create`] or a clean reopen; callers that care about
/// data loss at the durability boundary (records written but never
/// acknowledged) should inspect this after [`DurableEngine::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// A torn final record (an interrupted, never-acknowledged append)
    /// was dropped during recovery.
    pub truncated_tail: bool,
    /// Records dropped because a later segment superseded them — written
    /// by a failed append/sync but never acknowledged to the caller.
    pub dropped_unacked: usize,
}

/// A crash-tolerant, journaled engine over a storage backend.
///
/// `Clone` (available when the backend is cloneable, e.g.
/// [`crate::MemStorage`]) forks the engine *and* its storage into an
/// independent world — the model checker branches states this way.
#[derive(Clone)]
pub struct DurableEngine<S: Storage> {
    engine: Engine,
    wal: Wal<S>,
    config: DurableConfig,
    /// Operation count covered by the last successful snapshot.
    snapshot_ops: u64,
    /// Automatic snapshots that failed (storage trouble); the operation
    /// itself stays acknowledged and the snapshot is retried later.
    snapshot_failures: u64,
    /// What [`DurableEngine::open`] had to repair.
    recovery: RecoveryStats,
}

impl<S: Storage> DurableEngine<S> {
    /// Instantiate `graph` and initialize a fresh durable log on
    /// `storage`, writing the genesis snapshot so recovery always has a
    /// restore point.
    pub fn create(
        storage: S,
        graph: &PolicyGraph,
        start: Ts,
        config: DurableConfig,
    ) -> Result<DurableEngine<S>> {
        let engine = Engine::from_policy(graph, start).map_err(DurableError::Instantiate)?;
        let mut wal = Wal::create(storage, config.wal())?;
        let blob = serde_json::to_vec(&engine).map_err(|e| DurableError::Codec(e.to_string()))?;
        wal.snapshot(&blob)?;
        Ok(DurableEngine {
            engine,
            wal,
            config,
            snapshot_ops: 0,
            snapshot_failures: 0,
            recovery: RecoveryStats::default(),
        })
    }

    /// Recover from `storage`: load the newest intact snapshot, validate
    /// the tail (fail closed on clock regression *before* applying
    /// anything), then replay it.
    pub fn open(storage: S, config: DurableConfig) -> Result<DurableEngine<S>> {
        let (wal, recovered) = Wal::open(storage, config.wal())?;
        let Recovered {
            snapshot,
            snapshot_ops,
            tail,
            truncated_tail,
            dropped_unacked,
        } = recovered;
        let blob = snapshot.ok_or(DurableError::NoSnapshot)?;
        let mut engine: Engine =
            serde_json::from_slice(&blob).map_err(|e| DurableError::Codec(e.to_string()))?;

        // Decode the whole tail up front …
        let ops: Vec<JournalOp> = tail
            .iter()
            .map(|bytes| {
                serde_json::from_slice(bytes)
                    .map_err(|e| DurableError::Codec(format!("tail record: {e}")))
            })
            .collect::<Result<_>>()?;

        // … and validate its clock before applying a single record: a
        // regressing journal must reject recovery with the engine
        // untouched, not half-applied.
        let mut clock = engine.now();
        for (record, op) in ops.iter().enumerate() {
            if let JournalOp::AdvanceTo { to } = op {
                if *to < clock {
                    return Err(DurableError::ClockRegression {
                        record,
                        from: clock,
                        to: *to,
                    });
                }
                clock = *to;
            }
        }

        for op in &ops {
            // Only `AdvanceTo` can fail a resubmission, and the pre-scan
            // above proved it cannot here.
            resubmit(&mut engine, op).map_err(DurableError::Engine)?;
        }

        Ok(DurableEngine {
            engine,
            wal,
            config,
            snapshot_ops,
            snapshot_failures: 0,
            recovery: RecoveryStats {
                truncated_tail,
                dropped_unacked,
            },
        })
    }

    /// Journal `op` durably; only then may it be applied.
    fn record(&mut self, op: &JournalOp) -> Result<()> {
        let bytes = serde_json::to_vec(op).map_err(|e| DurableError::Codec(e.to_string()))?;
        self.wal.append(&bytes)?;
        Ok(())
    }

    /// After an acknowledged operation: snapshot if the configured
    /// interval has passed. Snapshot failures never un-acknowledge the
    /// operation — the log still holds it — so they are counted and
    /// retried on the next operation instead of being propagated.
    fn maybe_snapshot(&mut self) {
        let Some(every) = self.config.snapshot_every else {
            return;
        };
        if self.wal.next_op() - self.snapshot_ops < every {
            return;
        }
        if self.snapshot_now().is_err() {
            self.snapshot_failures += 1;
        }
    }

    /// Write a snapshot of the current state and compact the log.
    pub fn snapshot_now(&mut self) -> Result<()> {
        let blob =
            serde_json::to_vec(&self.engine).map_err(|e| DurableError::Codec(e.to_string()))?;
        self.wal.snapshot(&blob)?;
        self.snapshot_ops = self.wal.next_op();
        Ok(())
    }

    /// Run one request, journal-before-apply: the only write path, shared
    /// by client operations and the records a follower receives from its
    /// leader, so a promoted follower recovers replicated history from its
    /// *own* log.
    ///
    /// A regressing `AdvanceTo` is refused before it is journaled: a
    /// recorded clock regression would poison the log (recovery refuses
    /// it). Otherwise the op is appended to the WAL, and only once that
    /// succeeded is it applied; if the append fails, nothing was applied
    /// and the caller must not acknowledge the op. Refused requests are
    /// journaled too: denials change state (audit log, security windows),
    /// and come back as [`DurableError::Engine`].
    pub fn submit(&mut self, op: &JournalOp) -> Result<Outcome> {
        if let JournalOp::AdvanceTo { to } = op {
            if *to < self.engine.now() {
                return Err(DurableError::Engine(EngineError::Unhandled(format!(
                    "clock regression: now {} -> {}",
                    self.engine.now(),
                    to
                ))));
            }
        }
        self.record(op)?;
        let r = self.engine.submit(op);
        self.maybe_snapshot();
        r.map_err(DurableError::Engine)
    }

    /// `CreateSession` through [`DurableEngine::submit`].
    pub fn create_session(&mut self, user: UserId, initial: &[RoleId]) -> Result<SessionId> {
        let initial = initial.to_vec();
        match self.submit(&JournalOp::CreateSession { user, initial })? {
            Outcome::Session(s) => Ok(s),
            other => unreachable!("CreateSession answered {other:?}"),
        }
    }

    /// `DeleteSession` through [`DurableEngine::submit`].
    pub fn delete_session(&mut self, user: UserId, session: SessionId) -> Result<()> {
        self.submit(&JournalOp::DeleteSession { user, session })
            .map(|_| ())
    }

    /// `AddActiveRole` through [`DurableEngine::submit`].
    pub fn add_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<()> {
        self.submit(&JournalOp::AddActiveRole {
            user,
            session,
            role,
        })
        .map(|_| ())
    }

    /// `DropActiveRole` through [`DurableEngine::submit`].
    pub fn drop_active_role(
        &mut self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<()> {
        self.submit(&JournalOp::DropActiveRole {
            user,
            session,
            role,
        })
        .map(|_| ())
    }

    /// `CheckAccess` without a purpose through [`DurableEngine::submit`]
    /// — journaled because denials feed the active-security rules, so
    /// checks are state-changing.
    pub fn check_access(&mut self, session: SessionId, op: OpId, obj: ObjId) -> Result<bool> {
        self.submit(&JournalOp::CheckAccess {
            session,
            op,
            obj,
            purpose: -1,
        })
        .map(|outcome| outcome == Outcome::Access(true))
    }

    /// A clock advance through [`DurableEngine::submit`].
    pub fn advance_to(&mut self, to: Ts) -> Result<()> {
        self.submit(&JournalOp::AdvanceTo { to }).map(|_| ())
    }

    /// Decode the journaled operations with global index `>= from` from
    /// the local log (the leader's shipping read — see
    /// [`Wal::records_from`] for the compaction caveat).
    pub fn ops_from(&self, from: u64) -> Result<Vec<(u64, JournalOp)>> {
        self.wal
            .records_from(from)?
            .into_iter()
            .map(|(idx, bytes)| {
                serde_json::from_slice(&bytes)
                    .map(|op| (idx, op))
                    .map_err(|e| DurableError::Codec(format!("record {idx}: {e}")))
            })
            .collect()
    }

    /// Read back the raw journal records with global index `>= from` (the
    /// byte-level shipping read; see [`Wal::records_from`]).
    pub fn records_from(&self, from: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.wal.records_from(from).map_err(DurableError::Wal)
    }

    /// The wrapped engine (read-only; mutations must go through the
    /// journaling methods or the log would be incomplete).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine, for *monitoring* toggles
    /// only (log caps). Anything semantic
    /// changed through this handle bypasses the journal and will not
    /// survive recovery — re-apply such toggles after
    /// [`DurableEngine::open`].
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Resolve a user name through the engine.
    pub fn user_id(&self, name: &str) -> Result<UserId> {
        self.engine.user_id(name).map_err(DurableError::Engine)
    }

    /// Resolve a role name through the engine.
    pub fn role_id(&self, name: &str) -> Result<RoleId> {
        self.engine.role_id(name).map_err(DurableError::Engine)
    }

    /// Total operations ever journaled (the global record index).
    pub fn op_count(&self) -> u64 {
        self.wal.next_op()
    }

    /// Operations covered by the newest snapshot.
    pub fn snapshot_ops(&self) -> u64 {
        self.snapshot_ops
    }

    /// Automatic snapshots that failed and will be retried.
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures
    }

    /// What recovery had to repair when this engine was opened (all-zero
    /// for a freshly created engine or a clean reopen).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Borrow the storage backend.
    pub fn storage(&self) -> &S {
        self.wal.storage()
    }

    /// Borrow the storage backend mutably. Intended for fault-injection
    /// harnesses (installing scripted faults on a live store); rewriting
    /// journal bytes underneath a live engine is undefined behaviour as
    /// far as recovery guarantees go.
    pub fn storage_mut(&mut self) -> &mut S {
        self.wal.storage_mut()
    }

    /// Take the storage backend back (e.g. to crash and reopen it).
    pub fn into_storage(self) -> S {
        self.wal.into_storage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn policy() -> PolicyGraph {
        let mut g = PolicyGraph::new("durable-test");
        g.role("clerk");
        g.user("ann");
        g.assign("ann", "clerk");
        g.permission("p", "read", "ledger");
        g.grant("p", "clerk");
        g
    }

    #[test]
    fn reopen_restores_identical_state() {
        let g = policy();
        let mut d =
            DurableEngine::create(MemStorage::new(), &g, Ts::ZERO, DurableConfig::default())
                .unwrap();
        let ann = d.user_id("ann").unwrap();
        let clerk = d.role_id("clerk").unwrap();
        let s = d.create_session(ann, &[clerk]).unwrap();
        let read = d.engine().system().op_by_name("read").unwrap();
        let ledger = d.engine().system().obj_by_name("ledger").unwrap();
        assert!(d.check_access(s, read, ledger).unwrap());
        d.advance_to(Ts::from_secs(60)).unwrap();
        let live = d.engine().clone();

        let reopened = DurableEngine::open(d.into_storage(), DurableConfig::default()).unwrap();
        assert_eq!(crate::state_diff(reopened.engine(), &live), None);
        assert_eq!(reopened.op_count(), 3);
        // A clean shutdown loses nothing and repairs nothing.
        assert_eq!(reopened.recovery_stats(), RecoveryStats::default());
    }

    #[test]
    fn snapshots_compact_and_preserve_state() {
        let g = policy();
        let config = DurableConfig {
            snapshot_every: Some(4),
            ..DurableConfig::default()
        };
        let mut d = DurableEngine::create(MemStorage::new(), &g, Ts::ZERO, config.clone()).unwrap();
        let ann = d.user_id("ann").unwrap();
        let clerk = d.role_id("clerk").unwrap();
        let s = d.create_session(ann, &[clerk]).unwrap();
        let read = d.engine().system().op_by_name("read").unwrap();
        let ledger = d.engine().system().obj_by_name("ledger").unwrap();
        for _ in 0..10 {
            d.check_access(s, read, ledger).unwrap();
        }
        assert!(d.snapshot_ops() >= 4, "automatic snapshot should have run");
        assert_eq!(d.snapshot_failures(), 0);
        let live = d.engine().clone();
        let reopened = DurableEngine::open(d.into_storage(), config).unwrap();
        assert_eq!(crate::state_diff(reopened.engine(), &live), None);
        // Snapshot compaction is not data loss: recovery must be clean.
        assert_eq!(reopened.recovery_stats(), RecoveryStats::default());
    }

    #[test]
    fn regressing_advance_is_rejected_without_journaling() {
        let g = policy();
        let mut d =
            DurableEngine::create(MemStorage::new(), &g, Ts::ZERO, DurableConfig::default())
                .unwrap();
        d.advance_to(Ts::from_secs(100)).unwrap();
        let before = d.op_count();
        assert!(d.advance_to(Ts::from_secs(50)).is_err());
        assert_eq!(d.op_count(), before, "rejected op must not be journaled");
        // And the log still replays cleanly, with nothing to repair: the
        // rejected op left no torn or unacknowledged record behind.
        let reopened = DurableEngine::open(d.into_storage(), DurableConfig::default()).unwrap();
        assert_eq!(reopened.recovery_stats(), RecoveryStats::default());
    }

    /// A purpose-bound check decides with its purpose when submitted, and
    /// again when recovery replays it from the journal.
    #[test]
    fn a_replayed_check_keeps_its_purpose() {
        let g = policy::parse(
            r#"policy "clinic" {
                roles Nurse;
                users nina;
                assign nina -> Nurse;
                permission read_record = read on patient_record;
                grant read_record -> Nurse;
                purpose treatment;
                object_policy read on patient_record for Nurse requires treatment;
            }"#,
        )
        .unwrap();
        let mut d =
            DurableEngine::create(MemStorage::new(), &g, Ts::ZERO, DurableConfig::default())
                .unwrap();
        let mut reference = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let nina = d.user_id("nina").unwrap();
        let nurse = d.role_id("Nurse").unwrap();
        let s = d.create_session(nina, &[nurse]).unwrap();
        assert_eq!(reference.create_session(nina, &[nurse]), Ok(s));
        let read = d.engine().system().op_by_name("read").unwrap();
        let record = d.engine().system().obj_by_name("patient_record").unwrap();
        let treatment = d.engine().privacy().purpose_by_name("treatment").unwrap();

        let check = JournalOp::CheckAccess {
            session: s,
            op: read,
            obj: record,
            purpose: i64::from(treatment.0),
        };
        assert_eq!(d.submit(&check).unwrap(), Outcome::Access(true));
        assert_eq!(
            reference.check_access_for_purpose(s, read, record, "treatment"),
            Ok(true)
        );
        let reopened = DurableEngine::open(d.into_storage(), DurableConfig::default()).unwrap();
        assert_eq!(crate::state_diff(reopened.engine(), &reference), None);
    }
}
