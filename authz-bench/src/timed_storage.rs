//! A counting (and, when traced, timing) wrapper over any
//! [`owte_core::Storage`].
//!
//! The durable engine only sees the public `Storage` trait, so wrapping the
//! backend is how the benchmark observes the journal from outside: how
//! many appends, bytes, syncs and file creations an operation costs. With
//! a recorder attached every call is also timed and recorded as a child
//! span of the operation that made it.

use crate::hist::Hist;
use crate::spans::SharedRecorder;
use owte_core::storage::Result;
use owte_core::Storage;
use std::time::Instant;

/// What the wrapper has seen so far.
#[derive(Clone, Default)]
pub struct StorageStats {
    /// `append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `create` calls.
    pub creates: u64,
    /// `create` calls that named a snapshot file.
    pub snapshot_creates: u64,
    /// `delete` calls.
    pub deletes: u64,
    /// Time inside `append` (traced only).
    pub append_ns: u64,
    /// Time inside `create` + `delete` (traced only).
    pub create_delete_ns: u64,
    /// Latency of each `sync` (traced only).
    pub sync_latency: Hist,
}

/// `Storage` wrapper; see the module docs.
pub struct TimedStorage<S> {
    inner: S,
    stats: StorageStats,
    recorder: Option<SharedRecorder>,
}

impl<S: Storage> TimedStorage<S> {
    /// Wrap `inner`, counting only.
    pub fn new(inner: S) -> TimedStorage<S> {
        TimedStorage {
            inner,
            stats: StorageStats::default(),
            recorder: None,
        }
    }

    /// Wrap `inner`; while `recorder` is enabled, calls are timed and
    /// recorded as spans.
    pub fn traced(inner: S, recorder: SharedRecorder) -> TimedStorage<S> {
        TimedStorage {
            recorder: Some(recorder),
            ..TimedStorage::new(inner)
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Run `f` on the backend; when tracing, time it, record the span and
    /// hand the duration to `account`.
    fn call<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut S) -> R,
        account: impl FnOnce(&mut StorageStats, u64),
    ) -> R {
        let tracing = self.recorder.as_ref().is_some_and(|r| r.borrow().enabled());
        if !tracing {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        account(&mut self.stats, (end - start).as_nanos() as u64);
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().child(name, start, end);
        }
        r
    }
}

/// The WAL names snapshot files `snap-…`; everything else it creates is a
/// segment (or the replication term file).
fn is_snapshot(name: &str) -> bool {
    name.starts_with("snap")
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn create(&mut self, name: &str) -> Result<()> {
        self.stats.creates += 1;
        self.stats.snapshot_creates += u64::from(is_snapshot(name));
        self.call(
            if is_snapshot(name) {
                "storage.create_snapshot"
            } else {
                "storage.create"
            },
            |s| s.create(name),
            |st, ns| st.create_delete_ns += ns,
        )
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.stats.appends += 1;
        self.stats.append_bytes += data.len() as u64;
        self.call(
            "storage.append",
            |s| s.append(name, data),
            |st, ns| st.append_ns += ns,
        )
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.stats.syncs += 1;
        self.call(
            "storage.sync",
            |s| s.sync(name),
            |st, ns| st.sync_latency.record(ns),
        )
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.stats.deletes += 1;
        self.call(
            "storage.delete",
            |s| s.delete(name),
            |st, ns| st.create_delete_ns += ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::ent200;
    use crate::run::{apply_all, Report};
    use crate::spans::Recorder;
    use crate::tracegen::{Mix, Step, TraceGen};
    use owte_core::{DurableConfig, DurableEngine, MemStorage, Wal, WalConfig};
    use snoop::Ts;

    fn trace() -> (policy::PolicyGraph, Vec<Step>) {
        let graph = ent200();
        let mut gen = TraceGen::new(&graph, 9, Mix::MIXED, 0..100);
        let mut steps = Vec::new();
        gen.warm_start(&mut steps);
        gen.fill(&mut steps, 1_000);
        (graph, steps)
    }

    /// Journal the trace straight into a WAL over `storage` with small
    /// segments and a snapshot every 256 records, so files are created,
    /// rotated and deleted on the way. (Not through `DurableEngine`: its
    /// snapshots serialize `HashMap`s in per-instance order, so two
    /// identical runs already differ byte for byte.)
    fn journal<S: Storage>(storage: S) -> S {
        let config = WalConfig {
            segment_max_bytes: 4096,
            sync_on_append: true,
        };
        let mut wal = Wal::create(storage, config).unwrap();
        for (i, step) in trace().1.iter().enumerate() {
            wal.append(format!("{:?} -> {:?}", step.op, step.expect).as_bytes())
                .unwrap();
            if i % 256 == 255 {
                wal.snapshot(format!("state after {i}").as_bytes()).unwrap();
            }
        }
        wal.into_storage()
    }

    #[test]
    fn wrapping_leaves_the_stored_bytes_unchanged() {
        let bare = journal(MemStorage::new());
        let recorder = Recorder::shared(1 << 16);
        recorder.borrow_mut().set_enabled(true);
        let wrapped = journal(TimedStorage::traced(MemStorage::new(), recorder));
        assert_eq!(wrapped.inner().state_digest(), bare.state_digest());
        let plain = journal(TimedStorage::new(MemStorage::new()));
        assert_eq!(plain.inner().state_digest(), bare.state_digest());
        let stats = wrapped.stats();
        assert!(stats.creates > stats.snapshot_creates && stats.snapshot_creates >= 4);
        assert!(stats.deletes > 0, "snapshots compact the log");
    }

    /// The same trace through a durable engine over `storage`.
    fn drive<S: Storage>(storage: S) -> (S, Report) {
        let (graph, steps) = trace();
        let mut engine =
            DurableEngine::create(storage, &graph, Ts::ZERO, DurableConfig::default()).unwrap();
        let mut report = Report::default();
        apply_all(&mut engine, &steps, &mut report);
        (engine.into_storage(), report)
    }

    #[test]
    fn a_traced_wrapper_times_every_call_as_a_span() {
        let recorder = Recorder::shared(1 << 16);
        recorder.borrow_mut().set_enabled(true);
        let (wrapped, report) = drive(TimedStorage::traced(MemStorage::new(), recorder.clone()));
        assert!(report.correct(), "{:?}", report.failures);
        let stats = wrapped.stats();
        assert!(
            stats.appends >= report.attempted,
            "one append per operation at least"
        );
        assert_eq!(
            stats.syncs,
            stats.sync_latency.count(),
            "every sync was timed"
        );
        assert!(stats.append_bytes > 0);
        let spans = recorder.borrow();
        assert_eq!(
            spans
                .spans()
                .iter()
                .filter(|s| s.name == "storage.sync")
                .count() as u64,
            stats.syncs
        );
    }

    #[test]
    fn an_untraced_wrapper_counts_but_does_not_time() {
        let (wrapped, _) = drive(TimedStorage::new(MemStorage::new()));
        let stats = wrapped.stats();
        assert!(stats.syncs > 0 && stats.appends > 0);
        assert_eq!(stats.sync_latency.count(), 0);
        assert_eq!(stats.append_ns, 0);
    }
}
