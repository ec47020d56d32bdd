//! The concurrent sharded front: N independent durable engines behind
//! per-shard locks, one small coordinator mutex for constrained ops.
//!
//! [`ShardedEngine`] is the deployable counterpart of the deterministic
//! [`crate::group::ShardGroup`]: same [`crate::coord::Coordinator`],
//! same external-view injection, but driven synchronously by concurrent
//! callers instead of an explicit message scheduler. Each shard owns a
//! full [`owte_core::DurableEngine`] — its own WAL, snapshot cadence and
//! compiled dispatch plan — so unconstrained ops on different shards
//! proceed with zero shared state beyond the brief coordinator touch
//! that constrained ops make.
//!
//! ## Locking discipline
//!
//! A thread never holds two locks at once: constrained ops go
//! coordinator → (release) → shard → (release) → coordinator, and
//! global ops take shard locks strictly one at a time in index order
//! before a final coordinator resync. This makes deadlock impossible by
//! construction and keeps the coordinator critical sections O(tracked
//! roles), never O(engine).
//!
//! A writer that panics between reserve and commit would orphan its
//! slot; the front frees it *eagerly* (no timeout needed in-process)
//! with a drop guard that aborts the reservation during unwind — the
//! in-flight-crash analogue of the probe/timeout path the asynchronous
//! fabric model-checks.
//!
//! ## Audit semantics
//!
//! Per-user decision and audit semantics are exactly the single
//! engine's: a user's ops all land on their home shard, in invocation
//! order, so the home shard's audit log *is* the user's audit stream.
//! For a total order across shards, every op is stamped with its
//! shard-local audit range ([`OpStamp`]) and constrained ops carry the
//! coordinator epoch minted at reservation time — the linearization
//! point at which the slot decision was made.

use crate::coord::{Coordinator, OpToken, ReserveOutcome};
use crate::plan::{membership_of, ShardPlan, Unshardable};
use crate::ring::Ring;
use owte_core::{DurableConfig, DurableEngine, DurableError, Engine, JournalOp, MemStorage};
use parking_lot::Mutex;
use policy::PolicyGraph;
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use snoop::{Dur, Ts};
use std::collections::{BTreeMap, BTreeSet};

/// A session handle in a sharded group: the owning shard plus the
/// shard-local session id. Shard-local ids collide across shards, so the
/// pair is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShardSession {
    /// The home shard (of the session's user).
    pub shard: usize,
    /// The shard-local session id.
    pub session: SessionId,
}

/// One front op's mark in a shard's audit stream: the half-open entry
/// range it appended, plus the coordinator epoch when it was a
/// constrained op. Sorting constrained stamps by epoch across shards
/// yields the protocol's total order on constrained decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStamp {
    /// First audit entry index written by this op.
    pub from: usize,
    /// One past the last audit entry index.
    pub to: usize,
    /// The coordinator epoch, for constrained ops.
    pub epoch: Option<u64>,
}

/// Construction failure: the policy itself cannot be sharded.
#[derive(Debug)]
pub enum ShardError {
    /// A flagged rule's footprint defeats routing.
    Unshardable(Unshardable),
    /// A shard engine failed to instantiate.
    Durable(DurableError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Unshardable(u) => write!(f, "{u}"),
            ShardError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

struct Cell {
    eng: DurableEngine<MemStorage>,
    stamps: Vec<OpStamp>,
}

/// The concurrent sharded engine front. See the module docs.
pub struct ShardedEngine {
    ring: Ring,
    plan: ShardPlan,
    cells: Vec<Mutex<Cell>>,
    coord: Mutex<Coordinator>,
}

/// Frees a granted reservation if the applying writer unwinds before
/// committing: the coroner for in-process shard "crashes".
struct AbortGuard<'a> {
    coord: &'a Mutex<Coordinator>,
    tokens: Vec<OpToken>,
    armed: bool,
}

impl AbortGuard<'_> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut coord = self.coord.lock();
            for t in &self.tokens {
                coord.abort(*t);
            }
        }
    }
}

impl ShardedEngine {
    /// Build `shards` engines over `graph`, starting clocks at `start`.
    /// Fails when the policy's flagged rules are not coordinable.
    pub fn new(graph: &PolicyGraph, shards: usize, start: Ts) -> Result<ShardedEngine, ShardError> {
        let cells: Vec<Mutex<Cell>> = (0..shards)
            .map(|_| {
                DurableEngine::create(MemStorage::new(), graph, start, DurableConfig::default())
                    .map(|eng| {
                        Mutex::new(Cell {
                            eng,
                            stamps: Vec::new(),
                        })
                    })
                    .map_err(ShardError::Durable)
            })
            .collect::<Result<_, _>>()?;
        let plan = {
            let cell = cells[0].lock();
            let engine = cell.eng.engine();
            ShardPlan::from_policy(graph, engine, &engine.analyze())
                .map_err(ShardError::Unshardable)?
        };
        let coord = Mutex::new(Coordinator::new(shards, &plan, u64::MAX));
        Ok(ShardedEngine {
            ring: Ring::new(shards),
            plan,
            cells,
            coord,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The sharding plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The home shard of `user`.
    pub fn shard_of(&self, user: UserId) -> usize {
        self.ring.shard_of(user)
    }

    /// The coordinator's high-water epoch (total-order position of the
    /// last constrained decision).
    pub fn epoch(&self) -> u64 {
        self.coord.lock().epoch()
    }

    /// Resolve a user name (vocabulary is identical on every shard).
    pub fn user_id(&self, name: &str) -> Result<UserId, DurableError> {
        self.cells[0].lock().eng.user_id(name)
    }

    /// Resolve a role name.
    pub fn role_id(&self, name: &str) -> Result<RoleId, DurableError> {
        self.cells[0].lock().eng.role_id(name)
    }

    /// Look up an operation and object by name, as `check_access` wants
    /// them.
    pub fn perm_ids(&self, op: &str, obj: &str) -> Option<(OpId, ObjId)> {
        let cell = self.cells[0].lock();
        let sys = cell.eng.engine().system();
        Some((sys.op_by_name(op).ok()?, sys.obj_by_name(obj).ok()?))
    }

    /// Run `f` against `shard`'s engine under its lock (state
    /// inspection for suites and benches).
    pub fn with_engine<R>(&self, shard: usize, f: impl FnOnce(&Engine) -> R) -> R {
        f(self.cells[shard].lock().eng.engine())
    }

    /// Copy of `shard`'s per-op audit stamps.
    pub fn stamps(&self, shard: usize) -> Vec<OpStamp> {
        self.cells[shard].lock().stamps.clone()
    }

    /// Total journaled ops across all shards (each shard's WAL is
    /// independent; this is the aggregate mutation count).
    pub fn op_count(&self) -> u64 {
        self.cells.iter().map(|c| c.lock().eng.op_count()).sum()
    }

    /// `user` opens a session with `initial` roles, which may include
    /// constrained ones (each is reserved before the engine sees the
    /// op).
    pub fn create_session(
        &self,
        user: UserId,
        initial: &[RoleId],
    ) -> Result<ShardSession, DurableError> {
        let shard = self.ring.shard_of(user);
        let constrained: Vec<RoleId> = initial
            .iter()
            .copied()
            .filter(|r| self.plan.constrained(*r))
            .collect();
        if constrained.is_empty() {
            let session =
                self.mutate(shard, user, None, |eng| eng.create_session(user, initial))?;
            return Ok(ShardSession { shard, session });
        }
        let (tokens, external, epoch) = self.reserve_all(shard, user, &constrained);
        let guard = AbortGuard {
            coord: &self.coord,
            tokens: tokens
                .iter()
                .filter_map(|t| t.granted.then_some(t.token))
                .collect(),
            armed: true,
        };
        let result = self.mutate(shard, user, Some((constrained, external, epoch)), |eng| {
            eng.create_session(user, initial)
        });
        self.settle_reservations(shard, user, &tokens);
        guard.disarm();
        result.map(|session| ShardSession { shard, session })
    }

    /// `user` closes `sess`.
    pub fn delete_session(&self, user: UserId, sess: ShardSession) -> Result<(), DurableError> {
        self.mutate(sess.shard, user, None, |eng| {
            eng.delete_session(user, sess.session)
        })
    }

    /// `user` activates `role` in `sess` — the constrained op when the
    /// role is capped or prerequisite-consulting.
    pub fn add_active_role(
        &self,
        user: UserId,
        sess: ShardSession,
        role: RoleId,
    ) -> Result<(), DurableError> {
        if !self.plan.constrained(role) {
            return self.mutate(sess.shard, user, None, |eng| {
                eng.add_active_role(user, sess.session, role)
            });
        }
        let (tokens, external, epoch) = self.reserve_all(sess.shard, user, &[role]);
        let guard = AbortGuard {
            coord: &self.coord,
            tokens: tokens
                .iter()
                .filter_map(|t| t.granted.then_some(t.token))
                .collect(),
            armed: true,
        };
        let result = self.mutate(
            sess.shard,
            user,
            Some((vec![role], external, epoch)),
            |eng| eng.add_active_role(user, sess.session, role),
        );
        self.settle_reservations(sess.shard, user, &tokens);
        guard.disarm();
        result
    }

    /// `user` deactivates `role` in `sess`. Never constrained: the
    /// counter decrement travels as an asynchronous-safe membership sync.
    pub fn drop_active_role(
        &self,
        user: UserId,
        sess: ShardSession,
        role: RoleId,
    ) -> Result<(), DurableError> {
        self.mutate(sess.shard, user, None, |eng| {
            eng.drop_active_role(user, sess.session, role)
        })
    }

    /// `sess` requests `(op, obj)`. Entirely shard-local unless the
    /// policy has active-security rules, in which case a denial is
    /// mirrored into every other shard's denial window (history only —
    /// threshold rules there fire at their own next denial).
    pub fn check_access(
        &self,
        sess: ShardSession,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool, DurableError> {
        let (result, at) = {
            let mut cell = self.cells[sess.shard].lock();
            let from = cell.eng.engine().log().len();
            let result = cell.eng.check_access(sess.session, op, obj);
            let to = cell.eng.engine().log().len();
            cell.stamps.push(OpStamp {
                from,
                to,
                epoch: None,
            });
            (result, cell.eng.engine().now())
        };
        if self.plan.mirror_denials && matches!(result, Ok(false)) {
            for (s, cell) in self.cells.iter().enumerate() {
                if s != sess.shard {
                    cell.lock().eng.engine_mut().note_external_denial(at);
                }
            }
        }
        result
    }

    /// Advance every shard's clock by `d` (index order), then resync the
    /// coordinator wholesale — timers may have expired activations
    /// without any per-op membership sync.
    pub fn advance(&self, d: Dur) -> Result<(), DurableError> {
        self.broadcast(|eng| {
            let to = eng.engine().now() + d;
            eng.advance_to(to)
        })
    }

    /// Set a context variable on every shard, then resync.
    pub fn set_context(&self, key: &str, value: &str) -> Result<(), DurableError> {
        let op = JournalOp::SetContext {
            key: key.to_string(),
            value: value.to_string(),
        };
        self.broadcast(|eng| eng.submit(&op).map(|_| ()))
    }

    fn broadcast(
        &self,
        f: impl Fn(&mut DurableEngine<MemStorage>) -> Result<(), DurableError>,
    ) -> Result<(), DurableError> {
        let mut columns = Vec::with_capacity(self.cells.len());
        let mut first_err = None;
        for cell in &self.cells {
            let mut cell = cell.lock();
            let from = cell.eng.engine().log().len();
            let r = f(&mut cell.eng);
            let to = cell.eng.engine().log().len();
            cell.stamps.push(OpStamp {
                from,
                to,
                epoch: None,
            });
            columns.push(membership_of(cell.eng.engine(), &self.plan.membership));
            if let (Err(e), None) = (r, &first_err) {
                first_err = Some(e);
            }
        }
        let mut coord = self.coord.lock();
        for (s, col) in columns.into_iter().enumerate() {
            coord.sync_shard(s, col);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Reserve a slot for each constrained role, then compute one frozen
    /// external view excluding all of this op's own reservations.
    fn reserve_all(
        &self,
        shard: usize,
        user: UserId,
        roles: &[RoleId],
    ) -> (Vec<Held>, BTreeMap<RoleId, usize>, u64) {
        let mut coord = self.coord.lock();
        let mut held = Vec::with_capacity(roles.len());
        let mut epoch = 0;
        for role in roles {
            let token = coord.token();
            let granted = match coord.reserve(shard, token, user, *role, 0) {
                ReserveOutcome::Granted { epoch: e, .. } => {
                    epoch = e;
                    true
                }
                ReserveOutcome::Refused { epoch: e, .. } => {
                    epoch = e;
                    false
                }
                ReserveOutcome::Deferred => {
                    unreachable!("the in-process front never fences a shard out")
                }
            };
            held.push(Held {
                token,
                role: *role,
                granted,
            });
        }
        let exclude: Vec<OpToken> = held.iter().map(|h| h.token).collect();
        let external = coord.external_for(shard, &exclude);
        (held, external, epoch)
    }

    /// Commit or discard this op's reservations according to what
    /// actually changed, reading the post-state the `mutate` call left in
    /// its wake.
    fn settle_reservations(&self, shard: usize, user: UserId, held: &[Held]) {
        let after = {
            let cell = self.cells[shard].lock();
            Self::tracked_of(cell.eng.engine(), &self.plan, user)
        };
        let mut coord = self.coord.lock();
        for h in held {
            if h.granted {
                coord.commit(h.token, after.contains(&h.role));
            }
        }
    }

    /// The shared per-op skeleton: inject the external view when given,
    /// run the op under the shard lock, stamp its audit range, then sync
    /// tracked-membership changes to the coordinator. The constrained
    /// role's own change is *not* synced here — `settle_reservations`
    /// converts its pending slot instead, so the slot is never double
    /// counted.
    fn mutate<R>(
        &self,
        shard: usize,
        user: UserId,
        constrained: Option<(Vec<RoleId>, BTreeMap<RoleId, usize>, u64)>,
        f: impl FnOnce(&mut DurableEngine<MemStorage>) -> Result<R, DurableError>,
    ) -> Result<R, DurableError> {
        let epoch = constrained.as_ref().map(|(_, _, e)| *e);
        let reserved: BTreeSet<RoleId> = match &constrained {
            Some((roles, _, _)) => roles.iter().copied().collect(),
            None => BTreeSet::new(),
        };
        let (result, before, after) = {
            let mut cell = self.cells[shard].lock();
            if let Some((_, external, _)) = constrained {
                cell.eng.engine_mut().set_external_active(external);
            }
            let before = Self::tracked_of(cell.eng.engine(), &self.plan, user);
            let from = cell.eng.engine().log().len();
            let result = f(&mut cell.eng);
            let to = cell.eng.engine().log().len();
            cell.stamps.push(OpStamp { from, to, epoch });
            let after = Self::tracked_of(cell.eng.engine(), &self.plan, user);
            // The frozen view was for this one op only; a lingering bias
            // would distort later unconstrained reads on this shard.
            if epoch.is_some() {
                cell.eng.engine_mut().set_external_active(BTreeMap::new());
            }
            (result, before, after)
        };
        if before != after {
            let mut coord = self.coord.lock();
            for gained in after.difference(&before) {
                if !reserved.contains(gained) {
                    coord.sync_member(shard, user, *gained, true);
                }
            }
            for lost in before.difference(&after) {
                coord.sync_member(shard, user, *lost, false);
            }
        }
        result
    }

    fn tracked_of(engine: &Engine, plan: &ShardPlan, user: UserId) -> BTreeSet<RoleId> {
        engine
            .system()
            .active_roles_of_user(user)
            .map(|active| plan.tracked(&active))
            .unwrap_or_default()
    }
}

/// One reserved slot of a constrained front op.
struct Held {
    token: OpToken,
    role: RoleId,
    granted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> PolicyGraph {
        let mut g = PolicyGraph::new("front");
        g.role("Auditor").max_active_users = Some(1);
        g.role("Clerk");
        for u in ["dana", "erin", "finn"] {
            g.user(u);
            g.assign(u, "Auditor");
            g.assign(u, "Clerk");
        }
        g
    }

    #[test]
    fn cap_holds_across_shards_and_slot_frees_on_drop() {
        let front = ShardedEngine::new(&graph(), 4, Ts::ZERO).unwrap();
        let auditor = front.role_id("Auditor").unwrap();
        let dana = front.user_id("dana").unwrap();
        let erin = front.user_id("erin").unwrap();
        let s_d = front.create_session(dana, &[]).unwrap();
        let s_e = front.create_session(erin, &[]).unwrap();
        front.add_active_role(dana, s_d, auditor).unwrap();
        assert!(
            front.add_active_role(erin, s_e, auditor).is_err(),
            "cap 1 must deny the second user even from another shard"
        );
        front.drop_active_role(dana, s_d, auditor).unwrap();
        front.add_active_role(erin, s_e, auditor).unwrap();
    }

    #[test]
    fn constrained_ops_are_epoch_stamped() {
        let front = ShardedEngine::new(&graph(), 2, Ts::ZERO).unwrap();
        let auditor = front.role_id("Auditor").unwrap();
        let dana = front.user_id("dana").unwrap();
        let s = front.create_session(dana, &[]).unwrap();
        front.add_active_role(dana, s, auditor).unwrap();
        let stamps = front.stamps(s.shard);
        let constrained: Vec<_> = stamps.iter().filter(|s| s.epoch.is_some()).collect();
        assert_eq!(constrained.len(), 1);
        assert!(front.epoch() >= 1);
        assert!(
            stamps.iter().all(|s| s.to >= s.from),
            "audit ranges are well-formed"
        );
    }

    #[test]
    fn session_create_with_capped_initial_role_reserves() {
        let front = ShardedEngine::new(&graph(), 2, Ts::ZERO).unwrap();
        let auditor = front.role_id("Auditor").unwrap();
        let dana = front.user_id("dana").unwrap();
        let erin = front.user_id("erin").unwrap();
        let _s = front.create_session(dana, &[auditor]).unwrap();
        let s_e = front.create_session(erin, &[]).unwrap();
        assert!(
            front.add_active_role(erin, s_e, auditor).is_err(),
            "the initial-role activation must hold the slot"
        );
    }

    #[test]
    fn panicking_writer_frees_its_reservation() {
        let front = std::sync::Arc::new(ShardedEngine::new(&graph(), 2, Ts::ZERO).unwrap());
        let auditor = front.role_id("Auditor").unwrap();
        let dana = front.user_id("dana").unwrap();
        let erin = front.user_id("erin").unwrap();
        let s_e = front.create_session(erin, &[]).unwrap();
        // A session handle pointing at the wrong shard makes the engine
        // call fail inside `mutate` *after* the reservation was granted;
        // an unwinding variant of the same shape is what the drop guard
        // exists for. Simulate the unwind directly:
        let f2 = front.clone();
        let bogus = ShardSession {
            shard: front.shard_of(dana),
            session: SessionId(9999),
        };
        let _ = std::thread::spawn(move || {
            // The engine rejects the dangling session; the guard and
            // settle path must still run and free the slot.
            let _ = f2.add_active_role(dana, bogus, auditor);
        })
        .join();
        front
            .add_active_role(erin, s_e, auditor)
            .expect("a failed constrained op must not leak its reservation slot");
    }
}
