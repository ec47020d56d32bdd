//! Storage backends for the durable journal.
//!
//! The WAL ([`crate::wal`]) is written against the narrow [`Storage`] trait
//! rather than `std::fs` directly, for two reasons:
//!
//! * **Testability** — [`MemStorage`] models a page cache with an explicit
//!   synced-prefix per file, so tests can "crash" the store and observe
//!   exactly the bytes a real machine would have kept after power loss.
//! * **Fault injection** — [`FaultyStorage`] wraps any backend and, driven
//!   by a seeded deterministic PRNG, injects the failure modes that matter
//!   for crash consistency: torn (partial) writes, transient I/O errors,
//!   failed syncs, and a hard kill after a scheduled number of operations.
//!   Every failure schedule is reproducible from its seed.
//!
//! [`FileStorage`] is the production backend: one directory, one file per
//! segment/snapshot, `File::sync_data` for file contents plus an fsync of
//! the directory itself whenever an entry is created or removed — without
//! the directory fsync a crashed OS could forget a freshly created
//! segment (or remember a deletion while forgetting the file that
//! superseded it), breaking the ordering [`MemStorage`] models with its
//! durable-names set.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::rc::Rc;

/// An error from a storage backend.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure (real, or injected by [`FaultyStorage`]).
    Io(String),
    /// The named file does not exist.
    NotFound(String),
    /// The injected crash point was reached; the store is dead until reopened.
    Crashed,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage i/o error: {m}"),
            StorageError::NotFound(n) => write!(f, "storage file not found: {n}"),
            StorageError::Crashed => write!(f, "storage crashed (injected kill point)"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// A minimal append-oriented file store.
///
/// The WAL only ever appends to files, reads them whole, lists the
/// directory, and deletes obsolete files — so that is the whole contract.
/// `append` may be torn: on error, any prefix of `data` (including none)
/// may have reached the file. Bytes are only guaranteed durable across a
/// crash once `sync` for that file has returned `Ok`.
pub trait Storage {
    /// Names of all files in the store, in unspecified order.
    fn list(&self) -> Result<Vec<String>>;
    /// Entire contents of `name`.
    fn read(&self, name: &str) -> Result<Vec<u8>>;
    /// Create `name` empty, truncating any existing file.
    fn create(&mut self, name: &str) -> Result<()>;
    /// Append `data` to `name`. On `Err`, a prefix may have been written.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<()>;
    /// Make all written bytes of `name` durable.
    fn sync(&mut self, name: &str) -> Result<()>;
    /// Remove `name`. Removing a missing file is an error.
    fn delete(&mut self, name: &str) -> Result<()>;
}

/// One in-memory file: written bytes plus the length of the synced prefix.
#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    synced_len: usize,
}

/// In-memory storage with an explicit crash model.
///
/// Writes land in `data` (the "page cache"); `sync` advances `synced_len`
/// (the "disk"). [`MemStorage::crash`] discards every unsynced suffix,
/// yielding exactly the post-power-loss image. Files created but never
/// synced disappear entirely on crash, like real directory entries whose
/// metadata never hit the journal.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: HashMap<String, MemFile>,
    /// Files whose creation has been made durable (any successful sync).
    durable_names: std::collections::HashSet<String>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// Simulate power loss: drop unsynced bytes and unsynced files.
    pub fn crash(&mut self) {
        let durable = self.durable_names.clone();
        self.files.retain(|name, _| durable.contains(name));
        for f in self.files.values_mut() {
            f.data.truncate(f.synced_len);
        }
    }

    /// Flip one bit at `offset` of `name` — test hook for corruption tests.
    pub fn corrupt(&mut self, name: &str, offset: usize) {
        if let Some(f) = self.files.get_mut(name) {
            if offset < f.data.len() {
                f.data[offset] ^= 0x01;
                if f.synced_len > f.data.len() {
                    f.synced_len = f.data.len();
                }
            }
        }
    }

    /// Truncate `name` to `len` bytes — test hook for torn-tail tests.
    pub fn truncate(&mut self, name: &str, len: usize) {
        if let Some(f) = self.files.get_mut(name) {
            f.data.truncate(len);
            if f.synced_len > len {
                f.synced_len = len;
            }
        }
    }

    /// Raw current contents of `name`, if present (test hook).
    pub fn raw(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|f| f.data.as_slice())
    }

    /// Order-independent FNV-1a digest of the full store state (names,
    /// bytes, synced prefixes, durable-entry set). Deterministic across
    /// processes — the model checker uses it to deduplicate explored
    /// states, so it must not depend on `HashMap` iteration order or any
    /// per-process hasher seed.
    pub fn state_digest(&self) -> u64 {
        fn fnv1a(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut names: Vec<&String> = self.files.keys().collect();
        names.sort_unstable();
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for name in names {
            let f = &self.files[name];
            fnv1a(&mut h, name.as_bytes());
            fnv1a(&mut h, &[0xFF]);
            fnv1a(&mut h, &(f.data.len() as u64).to_le_bytes());
            fnv1a(&mut h, &f.data);
            fnv1a(&mut h, &(f.synced_len as u64).to_le_bytes());
            fnv1a(&mut h, &[u8::from(self.durable_names.contains(name))]);
        }
        h
    }
}

impl Storage for MemStorage {
    fn list(&self) -> Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or_else(|| StorageError::NotFound(name.to_string()))
    }

    fn create(&mut self, name: &str) -> Result<()> {
        self.files.insert(name.to_string(), MemFile::default());
        self.durable_names.remove(name);
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        let f = self
            .files
            .get_mut(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        f.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        let f = self
            .files
            .get_mut(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        f.synced_len = f.data.len();
        self.durable_names.insert(name.to_string());
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.files
            .remove(name)
            .ok_or_else(|| StorageError::NotFound(name.to_string()))?;
        self.durable_names.remove(name);
        Ok(())
    }
}

/// Directory-backed storage using real files.
///
/// Open handles are cached so a hot append path does not reopen the
/// segment on every record. `sync` maps to `File::sync_data`.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    handles: HashMap<String, File>,
}

impl FileStorage {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileStorage> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileStorage {
            dir,
            handles: HashMap::new(),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Make directory-entry changes (file creation/removal) durable. On
    /// POSIX, syncing a file persists its contents but not the entry that
    /// names it; that lives in the directory, which must be fsynced
    /// separately.
    fn sync_dir(&self) -> Result<()> {
        #[cfg(unix)]
        File::open(&self.dir)?.sync_all()?;
        // Non-POSIX platforms don't expose directory fsync (and mostly
        // don't need it); entry durability is best-effort there.
        Ok(())
    }

    fn handle(&mut self, name: &str) -> Result<&mut File> {
        if !self.handles.contains_key(name) {
            let path = self.dir.join(name);
            if !path.exists() {
                return Err(StorageError::NotFound(name.to_string()));
            }
            let f = OpenOptions::new().append(true).read(true).open(path)?;
            self.handles.insert(name.to_string(), f);
        }
        Ok(self.handles.get_mut(name).expect("inserted above"))
    }
}

impl Storage for FileStorage {
    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let path = self.dir.join(name);
        if !path.exists() {
            return Err(StorageError::NotFound(name.to_string()));
        }
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn create(&mut self, name: &str) -> Result<()> {
        let path = self.dir.join(name);
        let f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .read(true)
            .open(path)?;
        self.handles.insert(name.to_string(), f);
        // The new directory entry must be durable before any bytes
        // appended to the file are acknowledged as synced.
        self.sync_dir()?;
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.handle(name)?.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.handle(name)?.sync_data()?;
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.handles.remove(name);
        let path = self.dir.join(name);
        if !path.exists() {
            return Err(StorageError::NotFound(name.to_string()));
        }
        std::fs::remove_file(path)?;
        // Compaction relies on deletions being durable in the order they
        // were issued; an un-fsynced directory could reorder them.
        self.sync_dir()?;
        Ok(())
    }
}

/// SplitMix64 — a tiny deterministic PRNG so fault injectors need no
/// external dependency and every failure schedule replays from its seed.
///
/// Shared by the storage fault injector here and the simulated transport
/// in `repl`: one generator, one replay story — a `(seed, plan)` pair
/// reproduces the exact same fault sequence wherever it is interpreted.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next raw 64-bit output.
    #[allow(
        clippy::should_implement_trait,
        reason = "an endless seeded stream, not an iterator that may end"
    )]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

/// What a [`ScriptedFault`] does when its operation index is reached.
///
/// Unlike the probabilistic knobs on [`FaultPlan`], scripted faults are
/// exact: the model checker uses them to enumerate every crash boundary
/// of an engine operation instead of sampling them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the store at this op. If the op is an append, exactly
    /// `min(keep, data.len())` bytes of the record still reach the file
    /// first (`keep: 0` models a clean pre-op crash, anything shorter
    /// than the record a torn write).
    Kill {
        /// Bytes of the in-flight append that still land before death.
        keep: usize,
    },
    /// The operation fails transiently having done nothing; the store
    /// stays alive.
    TransientIo,
    /// A sync returns an error without making bytes durable. On non-sync
    /// operations this behaves like [`FaultKind::TransientIo`].
    FailedSync,
}

/// A fault pinned to an exact 1-based event index — the shared script
/// format for every seeded, replayable fault injector in the workspace.
///
/// The storage layer instantiates it as [`ScriptedFault`] (`K =
/// [`FaultKind`]`, indices count mutating storage ops); the simulated
/// transport in `repl` instantiates it with its own network fault kinds,
/// indices counting message sends. Keeping the `{at, kind}` shape
/// identical means one replay convention — "the Nth event misbehaves
/// like this" — covers disks and networks alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scripted<K> {
    /// Which event (1-based: the injector's counter value once the event
    /// is underway) triggers the fault.
    pub at: u64,
    /// What happens when it does.
    pub kind: K,
}

/// A storage fault pinned to an exact mutating-operation index (1-based,
/// i.e. the value [`FaultyStorage::ops`] reports once the op is underway).
pub type ScriptedFault = Scripted<FaultKind>;

/// What [`FaultyStorage`] is allowed to break, and how often.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Kill the store (permanently, until the inner storage is recovered)
    /// after this many mutating operations. `None` disables the kill point.
    pub kill_at_op: Option<u64>,
    /// When the kill point lands on an append, write a random strict prefix
    /// of the record first (a torn write) instead of nothing.
    pub torn_writes: bool,
    /// Probability that an append or sync fails transiently (the operation
    /// did nothing, the store stays alive).
    pub p_transient_io: f64,
    /// Probability that a sync silently fails to make bytes durable while
    /// still returning an error (callers must treat it as failed).
    pub p_failed_sync: f64,
    /// Deterministic faults at exact operation indices, checked before the
    /// probabilistic knobs. Empty by default.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            kill_at_op: None,
            torn_writes: true,
            p_transient_io: 0.0,
            p_failed_sync: 0.0,
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan with a single scripted fault and nothing probabilistic.
    pub fn scripted_one(at_op: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            scripted: vec![ScriptedFault { at: at_op, kind }],
            ..FaultPlan::default()
        }
    }
}

/// A deterministic fault-injecting wrapper over any [`Storage`].
///
/// Mutating operations count toward the kill point; when it fires during
/// an `append` with `torn_writes` on, a random strict prefix of the data
/// is written before the error — the classic torn write. After the kill
/// the wrapper answers every call with [`StorageError::Crashed`]; tests
/// then take the inner storage back (e.g. via [`FaultyStorage::into_inner`]
/// plus [`MemStorage::crash`]) and reopen it to model the restart.
#[derive(Debug, Clone)]
pub struct FaultyStorage<S: Storage> {
    inner: S,
    rng: SplitMix64,
    plan: FaultPlan,
    ops: u64,
    dead: bool,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wrap `inner`, with all faults driven by `seed` and `plan`.
    pub fn new(inner: S, seed: u64, plan: FaultPlan) -> FaultyStorage<S> {
        FaultyStorage {
            inner,
            rng: SplitMix64(seed),
            plan,
            ops: 0,
            dead: false,
        }
    }

    /// Whether the kill point has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of mutating operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Take the wrapped storage back (for post-crash inspection/reopen).
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Borrow the wrapped storage (inspection hook).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Borrow the wrapped storage mutably (test hook).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Borrow the fault plan mutably. The simulator uses this to install
    /// [`ScriptedFault`]s on a live store — e.g. "kill at the 3rd storage
    /// op of whatever the engine does next".
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.plan
    }

    /// Count a mutating op; `Err(Crashed)` exactly when the kill point fires.
    fn tick(&mut self) -> Result<()> {
        if self.dead {
            return Err(StorageError::Crashed);
        }
        self.ops += 1;
        if let Some(k) = self.plan.kill_at_op {
            if self.ops >= k {
                self.dead = true;
                return Err(StorageError::Crashed);
            }
        }
        Ok(())
    }

    /// The scripted fault (if any) pinned to the op `tick` just counted.
    fn scripted_now(&self) -> Option<FaultKind> {
        self.plan
            .scripted
            .iter()
            .find(|f| f.at == self.ops)
            .map(|f| f.kind.clone())
    }

    /// Apply a scripted fault on a non-append operation.
    fn apply_scripted(&mut self, what: &'static str) -> Result<()> {
        match self.scripted_now() {
            None => Ok(()),
            Some(FaultKind::Kill { .. }) => {
                self.dead = true;
                Err(StorageError::Crashed)
            }
            Some(FaultKind::TransientIo) | Some(FaultKind::FailedSync) => Err(StorageError::Io(
                format!("scripted fault: {what} failed at op {}", self.ops),
            )),
        }
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn list(&self) -> Result<Vec<String>> {
        if self.dead {
            return Err(StorageError::Crashed);
        }
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        if self.dead {
            return Err(StorageError::Crashed);
        }
        self.inner.read(name)
    }

    fn create(&mut self, name: &str) -> Result<()> {
        self.tick()?;
        self.apply_scripted("create")?;
        self.inner.create(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        match self.tick() {
            Ok(()) => {}
            Err(e) => {
                // Kill point during an append: optionally tear the record.
                if self.plan.torn_writes && !data.is_empty() {
                    let cut = self.rng.below(data.len());
                    if cut > 0 {
                        let _ = self.inner.append(name, &data[..cut]);
                    }
                }
                return Err(e);
            }
        }
        match self.scripted_now() {
            None => {}
            Some(FaultKind::Kill { keep }) => {
                // Exact torn write: precisely `keep` bytes reach the file.
                let cut = keep.min(data.len());
                if cut > 0 {
                    let _ = self.inner.append(name, &data[..cut]);
                }
                self.dead = true;
                return Err(StorageError::Crashed);
            }
            Some(FaultKind::TransientIo) | Some(FaultKind::FailedSync) => {
                return Err(StorageError::Io(format!(
                    "scripted fault: append failed at op {}",
                    self.ops
                )));
            }
        }
        if self.plan.p_transient_io > 0.0 && self.rng.unit() < self.plan.p_transient_io {
            return Err(StorageError::Io("injected transient append failure".into()));
        }
        self.inner.append(name, data)
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.tick()?;
        self.apply_scripted("sync")?;
        if self.plan.p_transient_io > 0.0 && self.rng.unit() < self.plan.p_transient_io {
            return Err(StorageError::Io("injected transient sync failure".into()));
        }
        if self.plan.p_failed_sync > 0.0 && self.rng.unit() < self.plan.p_failed_sync {
            return Err(StorageError::Io("injected failed fsync".into()));
        }
        self.inner.sync(name)
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.tick()?;
        self.apply_scripted("delete")?;
        self.inner.delete(name)
    }
}

/// A shared handle to a storage, so a test can keep inspecting the store a
/// [`crate::durable::DurableEngine`] owns. Single-threaded by design
/// (`Rc<RefCell>`); the durable engine itself is wrapped by
/// [`crate::shared::SharedEngine`] when concurrency is needed.
#[derive(Debug, Default, Clone)]
pub struct SharedStorage<S: Storage>(Rc<RefCell<S>>);

impl<S: Storage> SharedStorage<S> {
    /// Wrap `inner` in a shared handle.
    pub fn new(inner: S) -> SharedStorage<S> {
        SharedStorage(Rc::new(RefCell::new(inner)))
    }

    /// Run `f` with mutable access to the underlying storage.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl<S: Storage> Storage for SharedStorage<S> {
    fn list(&self) -> Result<Vec<String>> {
        self.0.borrow().list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.0.borrow().read(name)
    }

    fn create(&mut self, name: &str) -> Result<()> {
        self.0.borrow_mut().create(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.0.borrow_mut().append(name, data)
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.0.borrow_mut().sync(name)
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.0.borrow_mut().delete(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_crash_discards_unsynced_suffix() {
        let mut s = MemStorage::new();
        s.create("a").unwrap();
        s.append("a", b"hello").unwrap();
        s.sync("a").unwrap();
        s.append("a", b" world").unwrap();
        s.crash();
        assert_eq!(s.read("a").unwrap(), b"hello");
    }

    #[test]
    fn mem_storage_crash_discards_unsynced_files() {
        let mut s = MemStorage::new();
        s.create("kept").unwrap();
        s.sync("kept").unwrap();
        s.create("lost").unwrap();
        s.append("lost", b"x").unwrap();
        s.crash();
        let names = s.list().unwrap();
        assert!(names.contains(&"kept".to_string()));
        assert!(!names.contains(&"lost".to_string()));
    }

    #[test]
    fn faulty_storage_kill_point_is_deterministic() {
        for seed in [1u64, 42, 999] {
            let run = |seed: u64| {
                let plan = FaultPlan {
                    kill_at_op: Some(5),
                    ..FaultPlan::default()
                };
                let mut s = FaultyStorage::new(MemStorage::new(), seed, plan);
                let mut outcomes = Vec::new();
                s.create("f").unwrap();
                for i in 0..10u8 {
                    outcomes.push(s.append("f", &[i; 16]).is_ok());
                }
                let inner = s.into_inner();
                (outcomes, inner.raw("f").map(|d| d.to_vec()))
            };
            assert_eq!(run(seed), run(seed));
        }
    }

    #[test]
    fn torn_write_leaves_strict_prefix() {
        let plan = FaultPlan {
            kill_at_op: Some(2),
            torn_writes: true,
            ..FaultPlan::default()
        };
        let mut s = FaultyStorage::new(MemStorage::new(), 7, plan);
        s.create("f").unwrap();
        let record = [0xABu8; 64];
        assert!(s.append("f", &record).is_err());
        let inner = s.into_inner();
        let written = inner.raw("f").unwrap();
        assert!(written.len() < record.len());
        assert_eq!(written, &record[..written.len()]);
    }

    #[test]
    fn scripted_kill_tears_exactly_keep_bytes() {
        for keep in [0usize, 1, 7, 63, 64, 1000] {
            let plan = FaultPlan::scripted_one(2, FaultKind::Kill { keep });
            let mut s = FaultyStorage::new(MemStorage::new(), 0, plan);
            s.create("f").unwrap();
            let record = [0xCDu8; 64];
            assert!(matches!(s.append("f", &record), Err(StorageError::Crashed)));
            assert!(s.is_dead());
            let inner = s.into_inner();
            let written = inner.raw("f").unwrap();
            assert_eq!(written.len(), keep.min(record.len()));
            assert_eq!(written, &record[..written.len()]);
        }
    }

    #[test]
    fn scripted_transient_io_leaves_store_alive() {
        let plan = FaultPlan::scripted_one(2, FaultKind::TransientIo);
        let mut s = FaultyStorage::new(MemStorage::new(), 0, plan);
        s.create("f").unwrap();
        assert!(matches!(s.append("f", b"lost"), Err(StorageError::Io(_))));
        assert!(!s.is_dead());
        s.append("f", b"kept").unwrap();
        assert_eq!(s.into_inner().raw("f").unwrap(), b"kept");
    }

    #[test]
    fn scripted_failed_sync_keeps_bytes_unsynced() {
        let plan = FaultPlan::scripted_one(3, FaultKind::FailedSync);
        let mut s = FaultyStorage::new(MemStorage::new(), 0, plan);
        s.create("f").unwrap();
        s.append("f", b"data").unwrap();
        assert!(matches!(s.sync("f"), Err(StorageError::Io(_))));
        let mut inner = s.into_inner();
        inner.crash();
        // The failed sync made nothing durable: file never synced → gone.
        assert!(inner.raw("f").is_none());
    }

    #[test]
    fn state_digest_tracks_observable_state() {
        let mut a = MemStorage::new();
        let mut b = MemStorage::new();
        for s in [&mut a, &mut b] {
            s.create("x").unwrap();
            s.append("x", b"abc").unwrap();
            s.sync("x").unwrap();
            s.create("y").unwrap();
        }
        assert_eq!(a.state_digest(), b.state_digest());
        b.append("y", b"!").unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        // Sync state matters even when bytes agree.
        a.append("y", b"!").unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        b.sync("y").unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn dead_storage_refuses_everything() {
        let plan = FaultPlan {
            kill_at_op: Some(1),
            torn_writes: false,
            ..FaultPlan::default()
        };
        let mut s = FaultyStorage::new(MemStorage::new(), 3, plan);
        assert!(matches!(s.create("f"), Err(StorageError::Crashed)));
        assert!(matches!(s.list(), Err(StorageError::Crashed)));
        assert!(matches!(s.append("f", b"x"), Err(StorageError::Crashed)));
    }

    #[test]
    fn file_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "owte-storage-test-{}-{:x}",
            std::process::id(),
            dir_nonce()
        ));
        let mut s = FileStorage::open(&dir).unwrap();
        s.create("seg").unwrap();
        s.append("seg", b"abc").unwrap();
        s.append("seg", b"def").unwrap();
        s.sync("seg").unwrap();
        assert_eq!(s.read("seg").unwrap(), b"abcdef");
        assert_eq!(s.list().unwrap(), vec!["seg".to_string()]);
        s.delete("seg").unwrap();
        assert!(s.list().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn dir_nonce() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        N.fetch_add(1, Ordering::Relaxed)
    }
}
