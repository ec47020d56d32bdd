//! A thread-safe handle over the engine: serialized writes, lock-free
//! reads.
//!
//! The OWTE engine is intentionally a single-threaded state machine (every
//! event is a serializable transaction over the rule pool and the
//! monitor), so [`SharedEngine`] serializes every state-changing operation
//! through one mutex. Reads are different: `checkAccess` is the hot path
//! and is usually decision-only, so the handle keeps an immutable
//! [`AuthSnapshot`] published per write epoch and answers **grants**
//! straight from it — no mutex, readers scale with cores (see the E10
//! benchmark).
//!
//! # Read-path protocol
//!
//! * Every write bumps the engine's `state_version`; the handle mirrors it
//!   in an atomic after each lock release. A published snapshot is used
//!   only while its epoch equals the mirror.
//! * Only a **grant** is taken from the snapshot. Anything else — denials,
//!   unknown sessions, stale or missing snapshots, reads at or past the
//!   snapshot's [`valid_until`](AuthSnapshot::valid_until) horizon — falls
//!   back to the locked engine, which runs the full OWTE machinery
//!   (denial audit entry, `accessDenied` feed into active security). The
//!   one relaxation: fast-path grants skip the `Fired`/`Allowed` audit
//!   entries a locked grant would append.
//! * Every mutator republishes before it releases the mutex, if its
//!   operation moved the epoch (a refused request usually does not). A
//!   reader that loaded the previous snapshot a moment earlier finishes
//!   its read on it, which is linearizable (that read orders before the
//!   write); a reader that finds the published epoch behind the mirror
//!   takes the locked path.
//!
//! # What a write costs
//!
//! A published snapshot does not copy the engine's state, it shares it
//! (see [`crate::snapshot`]), so a republish is O(1) in the number of
//! sessions, roles and permissions:
//!
//! * *shared, never copied*: the session table (a persistent chunked
//!   vector owned by the monitor) and the policy view (role → permission
//!   closures, `(op, obj)` index, privacy state) behind one `Arc`;
//! * *copied by a write*: the monitor's first write to a session after a
//!   publish copies the table's spine, the 64 slot pointers of that
//!   session's chunk and the one session record — the old snapshot keeps
//!   the originals. Sessions a write does not touch are not copied, and
//!   sweeps (`disable_role`, `deassign_user`) look before they write;
//! * *recomputed per publish*: epoch, clock, validity horizon (its GTRBAC
//!   half remembered between boundaries) and the structural fast-path
//!   proof;
//! * *rebuilt only after `apply_policy`*: the policy view,
//!   O(roles × permissions), on the first publish after the change.
//!
//! The previous snapshot is dropped by the writer when it publishes, or
//! by the last reader still holding it.
//!
//! # Re-entrancy contract
//!
//! The engine mutex is **not** re-entrant. Calling any `SharedEngine`
//! method from inside a [`SharedEngine::with`] closure (or any other
//! method) **on the same thread** would self-deadlock; the handle detects
//! this and panics with a clear message instead of hanging. Perform
//! compound operations on the `&mut Engine` the closure receives, not on
//! the handle. [`SharedEngine::try_with`] returns `None` instead of
//! panicking on same-thread re-entry.
//!
//! # Poisoning
//!
//! A panic inside a `with`/`try_with` closure (or any locked operation)
//! can leave the engine holding a torn half-transaction. The parking_lot
//! mutex does not poison, so the handle tracks this itself: the panicking
//! release marks the handle poisoned, after which every locked path fails
//! closed — the `Result`-returning methods yield
//! [`EngineError::Poisoned`], `try_with` returns `None`, and the
//! infallible conveniences panic with a clear message instead of touching
//! torn state. The version mirror is left at the last pre-panic epoch, so
//! the published snapshot (captured from consistent state) keeps
//! answering fast-path grant reads: a wedged writer does not take reads
//! down with it. Recovery is process restart (or rebuilding the
//! `SharedEngine` from durable state); there is no in-place un-poison.

use crate::engine::{Engine, EngineError};
use crate::journal::{JournalOp, Outcome};
use crate::privacy::PurposeId;
use crate::snapshot::AuthSnapshot;
use parking_lot::{Mutex, RwLock};
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use sentinel::ExecReport;
use snoop::{Dur, Ts};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A unique, never-zero id for the current thread (0 = "no owner").
fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TOKEN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TOKEN.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

struct Shared {
    engine: Mutex<Engine>,
    /// The published read-path snapshot for the current write epoch.
    published: RwLock<Option<Arc<AuthSnapshot>>>,
    /// Mirror of the engine's `state_version`, updated on lock release, so
    /// readers can check snapshot currency without the mutex.
    version: AtomicU64,
    /// Thread token currently holding the engine mutex (re-entry guard).
    lock_owner: AtomicU64,
    /// Reads answered from the published snapshot.
    fast_hits: AtomicU64,
    /// Reads that took the locked path.
    slow_hits: AtomicU64,
    /// Set when a writer panicked mid-closure: the engine state may be
    /// torn, so every locked path fails closed with
    /// [`EngineError::Poisoned`] from then on. The version mirror is
    /// deliberately **not** advanced by the panicking release, so the
    /// last published (pre-panic, consistent) snapshot keeps serving
    /// fast-path reads.
    poisoned: AtomicBool,
}

/// A clonable, `Send + Sync` handle to a shared [`Engine`] with a
/// lock-free `checkAccess` read path. See the module docs for the
/// concurrency model and the re-entrancy contract.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<Shared>,
}

/// Mutex guard that tracks the owning thread and refreshes the version
/// mirror on release.
struct EngineGuard<'a> {
    guard: parking_lot::MutexGuard<'a, Engine>,
    shared: &'a Shared,
}

impl Drop for EngineGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The closure panicked mid-write: the engine may hold a torn
            // half-transaction. parking_lot releases the mutex without
            // std's PoisonError, so mark the poison explicitly and skip
            // the version-mirror update — the pre-panic snapshot stays
            // "current" and keeps answering fast-path reads while every
            // locked path fails closed (`EngineError::Poisoned`).
            self.shared.poisoned.store(true, Ordering::Release);
        } else {
            self.shared
                .version
                .store(self.guard.state_version(), Ordering::Release);
        }
        self.shared.lock_owner.store(0, Ordering::Release);
    }
}

impl std::ops::Deref for EngineGuard<'_> {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.guard
    }
}

impl std::ops::DerefMut for EngineGuard<'_> {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.guard
    }
}

impl SharedEngine {
    /// Wrap an engine and publish its first read-path snapshot.
    pub fn new(engine: Engine) -> SharedEngine {
        let version = engine.state_version();
        let snapshot = Arc::new(engine.snapshot());
        SharedEngine {
            inner: Arc::new(Shared {
                engine: Mutex::new(engine),
                published: RwLock::new(Some(snapshot)),
                version: AtomicU64::new(version),
                lock_owner: AtomicU64::new(0),
                fast_hits: AtomicU64::new(0),
                slow_hits: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
            }),
        }
    }

    /// Acquire the engine mutex, panicking on same-thread re-entry (which
    /// would otherwise deadlock forever) and failing closed with
    /// [`EngineError::Poisoned`] once a writer has panicked mid-closure.
    fn lock(&self) -> Result<EngineGuard<'_>, EngineError> {
        if self.is_poisoned() {
            return Err(EngineError::Poisoned);
        }
        let me = thread_token();
        assert!(
            self.inner.lock_owner.load(Ordering::Acquire) != me,
            "SharedEngine re-entry: this thread already holds the engine lock \
             (a SharedEngine method was called from inside `with`/`try_with`, \
             which would deadlock); use the `&mut Engine` passed to the closure \
             for compound operations"
        );
        let guard = self.inner.engine.lock();
        // Re-check: the writer we queued behind may be the one that
        // panicked, setting the poison while we waited.
        if self.is_poisoned() {
            return Err(EngineError::Poisoned);
        }
        self.inner.lock_owner.store(me, Ordering::Release);
        Ok(EngineGuard {
            guard,
            shared: &self.inner,
        })
    }

    /// [`SharedEngine::lock`] for the infallible conveniences: panics with
    /// a clear message on a poisoned engine instead of returning an error.
    fn lock_or_panic(&self) -> EngineGuard<'_> {
        self.lock().unwrap_or_else(|_| {
            panic!(
                "SharedEngine is poisoned: a previous writer panicked mid-closure, \
                 so the engine fails closed (snapshot reads keep serving); use the \
                 Result-returning methods to observe EngineError::Poisoned"
            )
        })
    }

    /// Has a writer panicked inside the lock? Once set, every locked
    /// operation returns [`EngineError::Poisoned`] (or panics, for the
    /// infallible conveniences); fast-path snapshot reads keep serving
    /// the last consistent pre-panic state.
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// The published snapshot, if it is current for the latest write epoch.
    fn current_snapshot(&self) -> Option<Arc<AuthSnapshot>> {
        let snap = self.inner.published.read().clone()?;
        (snap.epoch() == self.inner.version.load(Ordering::Acquire)).then_some(snap)
    }

    /// Rebuild and publish the snapshot if the published one is stale.
    /// Caller holds the engine lock, so the capture is consistent.
    fn republish_if_stale(&self, engine: &Engine) {
        let current = engine.state_version();
        let stale = self
            .inner
            .published
            .read()
            .as_ref()
            .is_none_or(|s| s.epoch() != current);
        if stale {
            *self.inner.published.write() = Some(Arc::new(engine.snapshot()));
        }
    }

    /// `(fast, slow)` read counters: reads answered from the published
    /// snapshot vs. reads that took the locked path.
    pub fn read_stats(&self) -> (u64, u64) {
        (
            self.inner.fast_hits.load(Ordering::Relaxed),
            self.inner.slow_hits.load(Ordering::Relaxed),
        )
    }

    /// The currently published snapshot (may be stale; compare
    /// [`AuthSnapshot::epoch`] against a fresh write if that matters).
    pub fn snapshot(&self) -> Option<Arc<AuthSnapshot>> {
        self.inner.published.read().clone()
    }

    /// Run an arbitrary closure under the lock (escape hatch for compound
    /// read-modify-write sequences that must be atomic).
    ///
    /// # Panics
    ///
    /// Panics if called from a thread that already holds the engine lock —
    /// i.e. from inside another `with`/`try_with` closure or any
    /// `SharedEngine` method on the same thread. Such a call would
    /// deadlock: the mutex is not re-entrant. Use the provided
    /// `&mut Engine` instead of the handle inside the closure.
    pub fn with<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut guard = self.lock_or_panic();
        let r = f(&mut guard);
        self.republish_if_stale(&guard);
        r
    }

    /// Like [`SharedEngine::with`], but gives up after `timeout` instead of
    /// blocking indefinitely behind a stuck compound operation. Returns
    /// `None` (without running `f`) if the lock was not acquired in time —
    /// including immediately on same-thread re-entry, which could never
    /// succeed, and on a poisoned engine, whose lock must not be used.
    pub fn try_with<R>(
        &self,
        timeout: std::time::Duration,
        f: impl FnOnce(&mut Engine) -> R,
    ) -> Option<R> {
        let me = thread_token();
        if self.is_poisoned() || self.inner.lock_owner.load(Ordering::Acquire) == me {
            return None;
        }
        let guard = self.inner.engine.try_lock_for(timeout)?;
        if self.is_poisoned() {
            return None;
        }
        self.inner.lock_owner.store(me, Ordering::Release);
        let mut guard = EngineGuard {
            guard,
            shared: &self.inner,
        };
        let r = f(&mut guard);
        self.republish_if_stale(&guard);
        Some(r)
    }

    /// See [`Engine::user_id`].
    pub fn user_id(&self, name: &str) -> Result<UserId, EngineError> {
        self.lock()?.user_id(name)
    }

    /// See [`Engine::role_id`].
    pub fn role_id(&self, name: &str) -> Result<RoleId, EngineError> {
        self.lock()?.role_id(name)
    }

    /// Run one request, like [`Engine::submit`]. A write runs under the
    /// lock and republishes the snapshot before the lock is released; a
    /// `CheckAccess` takes the read path of [`SharedEngine::check_access`],
    /// its purpose included.
    pub fn submit(&self, request: &JournalOp) -> Result<Outcome, EngineError> {
        if let JournalOp::CheckAccess {
            session,
            op,
            obj,
            purpose,
        } = *request
        {
            let purpose = u32::try_from(purpose).ok().map(PurposeId);
            return self
                .read(
                    |snap| snap.grants(session, op, obj, purpose),
                    |e| Ok(e.submit(request)? == Outcome::Access(true)),
                )
                .map(Outcome::Access);
        }
        self.write(|e| e.submit(request))
    }

    /// Run `f` under the lock and republish the snapshot before the lock
    /// is released, if `f` moved the epoch.
    fn write<T>(
        &self,
        f: impl FnOnce(&mut Engine) -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let mut e = self.lock()?;
        let r = f(&mut e);
        self.republish_if_stale(&e);
        r
    }

    /// The read path of every `checkAccess`: a grant `fast` proves on the
    /// current snapshot is answered without the lock; anything else runs
    /// `slow` on the locked engine, after the snapshot is brought up to
    /// date, so OWTE denial semantics (audit entry + active-security
    /// feed) are preserved.
    fn read(
        &self,
        fast: impl FnOnce(&AuthSnapshot) -> bool,
        slow: impl FnOnce(&mut Engine) -> Result<bool, EngineError>,
    ) -> Result<bool, EngineError> {
        if self.current_snapshot().is_some_and(|snap| fast(&snap)) {
            self.inner.fast_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(true);
        }
        self.inner.slow_hits.fetch_add(1, Ordering::Relaxed);
        let mut e = self.lock()?;
        self.republish_if_stale(&e);
        slow(&mut e)
    }

    /// See [`Engine::create_session`].
    pub fn create_session(
        &self,
        user: UserId,
        initial: &[RoleId],
    ) -> Result<SessionId, EngineError> {
        self.write(|e| e.create_session(user, initial))
    }

    /// See [`Engine::delete_session`].
    pub fn delete_session(&self, user: UserId, session: SessionId) -> Result<(), EngineError> {
        self.write(|e| e.delete_session(user, session))
    }

    /// See [`Engine::add_active_role`].
    pub fn add_active_role(
        &self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        self.write(|e| e.add_active_role(user, session, role))
    }

    /// See [`Engine::drop_active_role`].
    pub fn drop_active_role(
        &self,
        user: UserId,
        session: SessionId,
        role: RoleId,
    ) -> Result<(), EngineError> {
        self.write(|e| e.drop_active_role(user, session, role))
    }

    /// See [`Engine::check_access`]. Grants are answered from the
    /// published snapshot when possible (no lock); everything else takes
    /// the locked path.
    pub fn check_access(
        &self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool, EngineError> {
        self.read(
            |snap| snap.grants(session, op, obj, None),
            |e| e.check_access(session, op, obj),
        )
    }

    /// See [`Engine::check_access_for_purpose`]; same read path as
    /// [`SharedEngine::check_access`].
    pub fn check_access_for_purpose(
        &self,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        purpose: &str,
    ) -> Result<bool, EngineError> {
        self.read(
            |snap| {
                snap.purpose_by_name(purpose)
                    .is_some_and(|pid| snap.grants(session, op, obj, Some(pid)))
            },
            |e| e.check_access_for_purpose(session, op, obj, purpose),
        )
    }

    /// `checkAccess` at a future logical time `t`: answered from the
    /// snapshot only while `t` is strictly inside its validity interval
    /// `[from, valid_until)` — a read exactly at the horizon (or past it)
    /// takes the locked path, which first advances the clock to `t`,
    /// firing any timers due on the way (deactivation Δs, temporal
    /// enable/disable boundaries).
    pub fn check_access_at(
        &self,
        t: Ts,
        session: SessionId,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool, EngineError> {
        self.read(
            |snap| snap.answers_at(t) && snap.grants(session, op, obj, None),
            |e| {
                if t > e.now() {
                    e.advance_to(t)?;
                    self.republish_if_stale(e);
                }
                e.check_access(session, op, obj)
            },
        )
    }

    /// See [`Engine::set_context`].
    pub fn set_context(&self, key: &str, value: &str) -> Result<ExecReport, EngineError> {
        self.write(|e| e.set_context(key, value))
    }

    /// See [`Engine::advance`].
    pub fn advance(&self, d: Dur) -> Result<ExecReport, EngineError> {
        self.write(|e| e.advance(d))
    }

    /// Current logical time.
    pub fn now(&self) -> Ts {
        self.lock_or_panic().now()
    }

    /// Snapshot of the alert list.
    pub fn alerts(&self) -> Vec<String> {
        self.lock_or_panic().alerts()
    }

    /// Total denials in the audit log.
    pub fn denial_count(&self) -> usize {
        self.lock_or_panic().log().denial_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::PolicyGraph;
    use std::thread;

    fn shared() -> SharedEngine {
        let mut g = PolicyGraph::new("shared");
        g.role("worker");
        for i in 0..8 {
            let name = format!("u{i}");
            g.user(&name);
            g.assign(&name, "worker");
        }
        SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap())
    }

    fn xyz() -> SharedEngine {
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.assign("alice", "PM");
        SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap())
    }

    #[test]
    fn handles_are_send_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SharedEngine>();
    }

    #[test]
    fn concurrent_sessions_from_many_threads() {
        let engine = shared();
        let role = engine.role_id("worker").unwrap();
        let mut handles = Vec::new();
        for i in 0..8 {
            let e = engine.clone();
            handles.push(thread::spawn(move || {
                let u = e.user_id(&format!("u{i}")).unwrap();
                for _ in 0..50 {
                    let s = e.create_session(u, &[role]).unwrap();
                    e.drop_active_role(u, s, role).unwrap();
                    e.add_active_role(u, s, role).unwrap();
                    e.delete_session(u, s).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        engine.with(|e| {
            assert_eq!(e.system().session_count(), 0, "all sessions closed");
            assert_eq!(e.log().denial_count(), 0, "no spurious denials");
        });
    }

    #[test]
    fn grants_come_from_the_snapshot() {
        let engine = xyz();
        let alice = engine.user_id("alice").unwrap();
        let pm = engine.role_id("PM").unwrap();
        let s = engine.create_session(alice, &[pm]).unwrap();
        let (create, po) = engine.with(|e| {
            (
                e.system().op_by_name("create").unwrap(),
                e.system().obj_by_name("purchase_order").unwrap(),
            )
        });
        let (fast0, _) = engine.read_stats();
        for _ in 0..10 {
            assert!(engine.check_access(s, create, po).unwrap());
        }
        let (fast1, _) = engine.read_stats();
        assert!(
            fast1 >= fast0 + 9,
            "repeated grants are served lock-free (fast {fast0} -> {fast1})"
        );
        // Fast-path grants leave no audit residue; the locked replay of
        // the same decision would (documented relaxation).
        engine.with(|e| assert_eq!(e.log().denial_count(), 0));
    }

    #[test]
    fn mutation_invalidates_published_snapshot() {
        let engine = xyz();
        let alice = engine.user_id("alice").unwrap();
        let pm = engine.role_id("PM").unwrap();
        let s = engine.create_session(alice, &[pm]).unwrap();
        let (create, po) = engine.with(|e| {
            (
                e.system().op_by_name("create").unwrap(),
                e.system().obj_by_name("purchase_order").unwrap(),
            )
        });
        assert!(engine.check_access(s, create, po).unwrap());
        // Drop the role: the old snapshot would still grant; the handle
        // must not use it.
        engine.drop_active_role(alice, s, pm).unwrap();
        assert!(
            !engine.check_access(s, create, po).unwrap(),
            "stale snapshot must not leak a grant"
        );
        assert_eq!(engine.denial_count(), 1, "denial went through the lock");
    }

    /// `op` through [`SharedEngine::submit`] on `a` and through
    /// [`Engine::submit`] on `b`: the answers and the states after agree.
    fn same(a: &SharedEngine, b: &mut Engine, op: &JournalOp) -> Result<Outcome, EngineError> {
        let answer = a.submit(op);
        assert_eq!(answer, b.submit(op), "{op:?}");
        a.with(|a| assert_eq!(crate::state_diff(a, b), None, "{op:?}"));
        answer
    }

    /// Every request variant answers the same and leaves the same state
    /// through the handle as through a plain engine; a denied check takes
    /// the locked path, a granted one is served from the snapshot.
    #[test]
    fn submit_equals_the_named_methods() {
        let mut g = PolicyGraph::enterprise_xyz();
        g.user("alice");
        g.user("bob");
        g.assign("alice", "PM");
        g.assign("bob", "AC");
        let a = SharedEngine::new(Engine::from_policy(&g, Ts::ZERO).unwrap());
        let b = &mut Engine::from_policy(&g, Ts::ZERO).unwrap();
        let (alice, bob) = (b.user_id("alice").unwrap(), b.user_id("bob").unwrap());
        let [pm, pc, clerk] = ["PM", "PC", "Clerk"].map(|r| b.role_id(r).unwrap());
        let op = b.system().op_by_name("create").unwrap();
        let obj = b.system().obj_by_name("purchase_order").unwrap();
        let (s, t) = (SessionId(0), SessionId(1));
        let check = |session| JournalOp::CheckAccess {
            session,
            op,
            obj,
            purpose: -1,
        };
        let activate = |role| JournalOp::AddActiveRole {
            user: alice,
            session: s,
            role,
        };
        let deactivate = |role| JournalOp::DropActiveRole {
            user: alice,
            session: s,
            role,
        };
        let assign = |role| JournalOp::AssignUser { user: bob, role };
        let open = |user, initial| JournalOp::CreateSession { user, initial };
        let raw = JournalOp::RawEvent {
            event: "no_such_event".into(),
            params: snoop::Params::new(),
        };
        let context = JournalOp::SetContext {
            key: "zone".into(),
            value: "z1".into(),
        };
        let advance = |secs| JournalOp::AdvanceTo {
            to: Ts::from_secs(secs),
        };
        let answers = [
            open(alice, vec![pm]),
            open(bob, vec![]),
            activate(pc),
            activate(pc),
            raw,
            deactivate(pc),
            assign(clerk),
            assign(pc),
            JournalOp::DeassignUser {
                user: bob,
                role: clerk,
            },
            JournalOp::DisableRole { role: clerk },
            JournalOp::EnableRole { role: clerk },
            context,
            advance(3600),
            advance(60),
        ]
        .map(|op| same(&a, b, &op));
        assert!(answers.iter().any(Result::is_ok) && answers.iter().any(Result::is_err));

        let ((fast, slow), denials) = (a.read_stats(), a.denial_count());
        assert_eq!(same(&a, b, &check(t)), Ok(Outcome::Access(false)));
        assert_eq!(a.read_stats(), (fast, slow + 1));
        assert_eq!(a.denial_count(), denials + 1);
        // A grant from the snapshot skips the audit entries a locked grant
        // appends, so the plain engine answers it on a copy.
        assert_eq!(a.submit(&check(s)), b.clone().submit(&check(s)));
        assert_eq!(a.read_stats(), (fast + 1, slow + 1));
        a.with(|a| assert_eq!(crate::state_diff(a, b), None));
        let close = JournalOp::DeleteSession {
            user: alice,
            session: s,
        };
        assert_eq!(same(&a, b, &close), Ok(Outcome::Done));
    }

    #[test]
    #[should_panic(expected = "SharedEngine re-entry")]
    fn with_reentry_panics_instead_of_deadlocking() {
        let engine = shared();
        let inner = engine.clone();
        engine.with(|_| {
            // Same thread, lock already held: must panic, not hang.
            let _ = inner.now();
        });
    }

    #[test]
    fn try_with_refuses_reentry_without_running() {
        let engine = shared();
        let inner = engine.clone();
        let out = engine.with(|_| {
            inner.try_with(std::time::Duration::from_millis(100), |_| {
                unreachable!("closure must not run on re-entry")
            })
        });
        assert!(out.is_none(), "same-thread re-entry can never succeed");
    }

    #[test]
    fn try_with_succeeds_on_uncontended_lock() {
        let engine = shared();
        let n = engine.try_with(std::time::Duration::from_millis(10), |e| {
            e.system().session_count()
        });
        assert_eq!(n, Some(0));
    }

    #[test]
    fn try_with_times_out_behind_a_stuck_holder() {
        let engine = shared();
        let other = engine.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let holder = thread::spawn(move || {
            other.with(|_| {
                // Hold the lock until the main thread has observed the
                // timeout.
                rx.recv().unwrap();
            });
        });
        // Wait until the holder actually has the lock.
        while engine
            .try_with(std::time::Duration::from_millis(1), |_| ())
            .is_some()
        {
            std::thread::yield_now();
        }
        let res = engine.try_with(std::time::Duration::from_millis(5), |_| ());
        assert!(res.is_none(), "lock is held; try_with must give up");
        tx.send(()).unwrap();
        holder.join().unwrap();
    }

    #[test]
    fn panicking_writer_poisons_instead_of_wedging() {
        let engine = xyz();
        let alice = engine.user_id("alice").unwrap();
        let pm = engine.role_id("PM").unwrap();
        let s = engine.create_session(alice, &[pm]).unwrap();
        let (create, po) = engine.with(|e| {
            (
                e.system().op_by_name("create").unwrap(),
                e.system().obj_by_name("purchase_order").unwrap(),
            )
        });
        // Prime the fast path with a published grant.
        assert!(engine.check_access(s, create, po).unwrap());
        assert!(!engine.is_poisoned());

        // A writer panics mid-closure on another thread.
        let poisoner = engine.clone();
        let joined = thread::spawn(move || {
            poisoner.with(|_| panic!("writer bug"));
        })
        .join();
        assert!(joined.is_err(), "closure panic propagates to its thread");
        assert!(engine.is_poisoned());

        // Writes fail closed with the typed error — no deadlock, no panic.
        assert!(matches!(
            engine.create_session(alice, &[pm]),
            Err(EngineError::Poisoned)
        ));
        assert!(matches!(
            engine.add_active_role(alice, s, pm),
            Err(EngineError::Poisoned)
        ));
        assert!(matches!(
            engine.advance(Dur::from_secs(1)),
            Err(EngineError::Poisoned)
        ));
        assert!(matches!(
            engine.user_id("alice"),
            Err(EngineError::Poisoned)
        ));

        // try_with refuses without running the closure.
        let ran = engine.try_with(std::time::Duration::from_millis(10), |_| {
            unreachable!("closure must not run on a poisoned engine")
        });
        assert!(ran.is_none());

        // Snapshot reads keep serving the last consistent pre-panic state.
        let (fast0, _) = engine.read_stats();
        assert!(engine.check_access(s, create, po).unwrap());
        let (fast1, _) = engine.read_stats();
        assert_eq!(fast1, fast0 + 1, "grant came from the snapshot, lock-free");

        // Anything that would need the lock fails closed too.
        assert!(matches!(
            engine.check_access_for_purpose(s, create, po, "no-such-purpose"),
            Err(EngineError::Poisoned)
        ));
    }

    #[test]
    #[should_panic(expected = "SharedEngine is poisoned")]
    fn infallible_conveniences_panic_once_poisoned() {
        let engine = shared();
        let poisoner = engine.clone();
        let _ = thread::spawn(move || poisoner.with(|_| panic!("writer bug"))).join();
        let _ = engine.now();
    }

    #[test]
    fn atomic_compound_operations() {
        let engine = shared();
        let role = engine.role_id("worker").unwrap();
        let u = engine.user_id("u0").unwrap();
        // A compound invariant: session creation + first access decision
        // must observe the same state.
        let allowed = engine.with(|e| {
            let s = e.create_session(u, &[role]).unwrap();
            e.system().session_roles(s).unwrap().contains(&role)
        });
        assert!(allowed);
    }
}
