//! SESSIONS: a persistent (copy-on-write) chunked table, and its inverse.
//!
//! Slots are addressed by session id and never reused, exactly like the
//! `Vec<Option<SessionRec>>` this replaces, but a [`SessionTable`] clones
//! in O(1): the spine, each chunk of [`CHUNK`] slots and each record sit
//! behind an `Arc`, and a clone shares all of them. A write goes through
//! `Arc::make_mut` at each of the three levels, so it costs nothing extra
//! while the table is uniquely owned, and copies one spine, one chunk of
//! pointers and one record when a clone (a published read-path snapshot)
//! still shares them. The clone keeps the records it was taken with: a
//! reader can never observe a later write, and no write site has to
//! announce what it changed. A chunk whose slots have all been closed is
//! one pointer to a single shared empty chunk, so a table's memory follows
//! the sessions that are open, not the ones that ever were.
//!
//! The monitor does not hold the table bare but inside [`Sessions`], which
//! keeps the inverse relation beside it: for each role, the sessions that
//! have it active. "Who has role r active right now" (cardinality caps,
//! prerequisite checks, role deactivation) is then a lookup, not a walk
//! over every slot ever allocated. The index is derived state: it is not
//! serialized but rebuilt when a table is read back, and it is not part of
//! the table a snapshot clones. Only this module can reach a record for
//! writing, so an active set cannot change without the index.

use crate::ids::{RoleId, SessionId, UserId};
use crate::system::SessionRec;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Slots per chunk: what one write to a shared table copies (as pointers).
const CHUNK: usize = 64;

type Slot = Option<Arc<SessionRec>>;
type Chunk = [Slot; CHUNK];

/// The one all-closed chunk every fully closed chunk points at. A write
/// into such a chunk copies it first, like any other shared chunk.
fn empty_chunk() -> Arc<Chunk> {
    static EMPTY: OnceLock<Arc<Chunk>> = OnceLock::new();
    EMPTY
        .get_or_init(|| Arc::new(std::array::from_fn(|_| None)))
        .clone()
}

/// Every session slot ever allocated, live or closed. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    chunks: Arc<Vec<Arc<Chunk>>>,
    /// Slots allocated; the tail of the last chunk past it is padding.
    len: usize,
    /// Slots open.
    live: usize,
}

impl SessionTable {
    /// The active role set of session `s`, or `None` if it is not open.
    pub fn active_roles(&self, s: SessionId) -> Option<&BTreeSet<RoleId>> {
        self.get(s.index()).map(|rec| &rec.active)
    }

    /// Number of open sessions.
    pub fn count(&self) -> usize {
        self.live
    }

    pub(crate) fn get(&self, i: usize) -> Option<&SessionRec> {
        self.chunks.get(i / CHUNK)?[i % CHUNK].as_deref()
    }

    /// The record in slot `i` for writing. Unshares the path to it; a
    /// closed or unallocated slot unshares nothing.
    fn get_mut(&mut self, i: usize) -> Option<&mut SessionRec> {
        self.get(i)?;
        self.slot_mut(i).as_mut().map(Arc::make_mut)
    }

    /// Allocate the next slot for `rec` and return its index.
    fn push(&mut self, rec: SessionRec) -> usize {
        let i = self.len;
        let spine = Arc::make_mut(&mut self.chunks);
        if i / CHUNK == spine.len() {
            spine.push(Arc::new(std::array::from_fn(|_| None)));
        }
        self.len += 1;
        self.live += 1;
        *self.slot_mut(i) = Some(Arc::new(rec));
        i
    }

    /// Close slot `i`, returning the record it held. The chunk is released
    /// with its last open slot.
    fn take(&mut self, i: usize) -> Option<Arc<SessionRec>> {
        self.get(i)?;
        let chunk = &mut Arc::make_mut(&mut self.chunks)[i / CHUNK];
        let rec = Arc::make_mut(chunk)[i % CHUNK].take();
        if chunk.iter().all(Option::is_none) {
            *chunk = empty_chunk();
        }
        self.live -= 1;
        rec
    }

    /// Every slot in id order, `None` for closed ones and for the padding
    /// that fills the last chunk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&SessionRec>> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(Option::as_deref)
    }

    /// How many chunks this table and `other` hold in common: what a write
    /// under a live snapshot left shared.
    pub fn chunks_shared_with(&self, other: &SessionTable) -> usize {
        let pairs = self.chunks.iter().zip(other.chunks.iter());
        pairs.filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Slot `i` (allocated) for writing, its spine and chunk unshared.
    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        let chunk = &mut Arc::make_mut(&mut self.chunks)[i / CHUNK];
        &mut Arc::make_mut(chunk)[i % CHUNK]
    }
}

/// On the wire the table is the flat sequence of `Option<SessionRec>` a
/// `Vec` would write, so stored engine snapshots do not depend on the
/// chunking.
impl Serialize for SessionTable {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let slots: Vec<Option<&SessionRec>> = self.iter().take(self.len).collect();
        slots.serialize(s)
    }
}

impl<'de> Deserialize<'de> for SessionTable {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let flat = Vec::<Option<SessionRec>>::deserialize(d)?;
        let len = flat.len();
        let live = flat.iter().flatten().count();
        let mut slots = flat.into_iter().map(|slot| slot.map(Arc::new));
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|_| {
                let chunk: Chunk = std::array::from_fn(|_| slots.next().flatten());
                if chunk.iter().all(Option::is_none) {
                    empty_chunk()
                } else {
                    Arc::new(chunk)
                }
            })
            .collect();
        Ok(SessionTable {
            chunks: Arc::new(chunks),
            len,
            live,
        })
    }
}

/// The sessions that have one role active.
#[derive(Debug, Clone, Default, PartialEq)]
struct Holders {
    /// Ordered by user, so one user's sessions are a range.
    sessions: BTreeSet<(UserId, SessionId)>,
    /// Distinct users in `sessions`.
    users: usize,
}

impl Holders {
    fn has_user(&self, u: UserId) -> bool {
        let all = (u, SessionId(0))..=(u, SessionId(u32::MAX));
        self.sessions.range(all).next().is_some()
    }

    fn insert(&mut self, u: UserId, s: SessionId) {
        if !self.has_user(u) {
            self.users += 1;
        }
        self.sessions.insert((u, s));
    }

    fn remove(&mut self, u: UserId, s: SessionId) {
        if self.sessions.remove(&(u, s)) && !self.has_user(u) {
            self.users -= 1;
        }
    }
}

/// The entry for `r`, the vector grown to reach it.
fn holders_of(holders: &mut Vec<Holders>, r: RoleId) -> &mut Holders {
    if holders.len() <= r.index() {
        holders.resize_with(r.index() + 1, Holders::default);
    }
    &mut holders[r.index()]
}

/// The monitor's SESSIONS: the table plus, derived from it, who holds each
/// role active. Every write to an active set goes through here. On the
/// wire this is the table alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sessions {
    table: SessionTable,
    /// By role id; grows with the highest role ever activated.
    holders: Vec<Holders>,
}

impl Sessions {
    /// The table alone: what a read-path snapshot clones.
    pub(crate) fn table(&self) -> &SessionTable {
        &self.table
    }

    pub(crate) fn get(&self, s: SessionId) -> Option<&SessionRec> {
        self.table.get(s.index())
    }

    /// Open a session for `user` with nothing active.
    pub(crate) fn open(&mut self, user: UserId) -> SessionId {
        let slot = self.table.push(SessionRec {
            user,
            active: BTreeSet::new(),
        });
        SessionId(u32::try_from(slot).expect("session count fits u32"))
    }

    /// Close session `s`, deactivating what it held; its owner, if it was
    /// open.
    pub(crate) fn close(&mut self, s: SessionId) -> Option<UserId> {
        let rec = self.table.take(s.index())?;
        for &r in &rec.active {
            self.holders[r.index()].remove(rec.user, s);
        }
        Some(rec.user)
    }

    /// Make `r` active in the open session `s`.
    pub(crate) fn activate(&mut self, s: SessionId, r: RoleId) {
        let Some(rec) = self.table.get_mut(s.index()) else {
            return;
        };
        if rec.active.insert(r) {
            holders_of(&mut self.holders, r).insert(rec.user, s);
        }
    }

    /// Make `r` inactive in session `s`.
    pub(crate) fn deactivate(&mut self, s: SessionId, r: RoleId) {
        self.retain_active(s, |active| active != r);
    }

    /// Deactivate in session `s` every role `keep` rejects. Looks before
    /// it writes: on a table a snapshot shares, reaching a record for
    /// writing copies its chunk, which a session left as it is must not
    /// pay for.
    pub(crate) fn retain_active(&mut self, s: SessionId, keep: impl Fn(RoleId) -> bool) {
        let drops = |rec: &SessionRec| rec.active.iter().any(|&r| !keep(r));
        if !self.get(s).is_some_and(drops) {
            return;
        }
        let Some(rec) = self.table.get_mut(s.index()) else {
            return;
        };
        let user = rec.user;
        rec.active.retain(|&r| {
            let kept = keep(r);
            if !kept {
                self.holders[r.index()].remove(user, s);
            }
            kept
        });
    }

    /// Deactivate `r` in every session that holds it; those sessions, in
    /// ascending order.
    pub(crate) fn deactivate_everywhere(&mut self, r: RoleId) -> Vec<SessionId> {
        let Some(holders) = self.holders.get_mut(r.index()) else {
            return Vec::new();
        };
        let held = std::mem::take(holders).sessions;
        let mut affected: Vec<SessionId> = held.into_iter().map(|(_, s)| s).collect();
        affected.sort_unstable();
        for &s in &affected {
            if let Some(rec) = self.table.get_mut(s.index()) {
                rec.active.remove(&r);
            }
        }
        affected
    }

    /// Distinct users with `r` active in at least one session.
    pub(crate) fn users_holding(&self, r: RoleId) -> usize {
        self.holders.get(r.index()).map_or(0, |h| h.users)
    }

    /// Does `u` have `r` active in at least one session?
    pub(crate) fn user_holds(&self, u: UserId, r: RoleId) -> bool {
        self.holders.get(r.index()).is_some_and(|h| h.has_user(u))
    }

    /// The sessions indexed under `r`, ascending.
    #[cfg(test)]
    pub(crate) fn held_in(&self, r: RoleId) -> Vec<SessionId> {
        let held = self.holders.get(r.index());
        let mut out: Vec<SessionId> =
            held.map_or(Vec::new(), |h| h.sessions.iter().map(|&(_, s)| s).collect());
        out.sort_unstable();
        out
    }
}

impl From<SessionTable> for Sessions {
    /// Index `table`: the one sweep, paid when a stored table is read back.
    fn from(table: SessionTable) -> Sessions {
        let mut holders: Vec<Holders> = Vec::new();
        for (i, rec) in table.iter().enumerate() {
            let Some(rec) = rec else { continue };
            let s = SessionId(u32::try_from(i).expect("session count fits u32"));
            for &r in &rec.active {
                holders_of(&mut holders, r).insert(rec.user, s);
            }
        }
        Sessions { table, holders }
    }
}

impl Serialize for Sessions {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.table.serialize(s)
    }
}

impl<'de> Deserialize<'de> for Sessions {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        SessionTable::deserialize(d).map(Sessions::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UserId;
    use crate::System;

    fn rec(user: u32, active: &[u32]) -> SessionRec {
        SessionRec {
            user: UserId(user),
            active: active.iter().map(|&r| RoleId(r)).collect(),
        }
    }

    /// What a reader can see of a table: every slot's user and roles.
    fn contents(t: &SessionTable) -> Vec<Option<(u32, Vec<u32>)>> {
        t.iter()
            .map(|slot| slot.map(|r| (r.user.0, r.active.iter().map(|r| r.0).collect())))
            .collect()
    }

    #[test]
    fn clone_then_mutate_leaves_the_clone_untouched() {
        let mut t = SessionTable::default();
        // Three chunks, so writes land in shared and unshared chunks.
        for i in 0..150 {
            t.push(rec(i, &[i % 7]));
        }
        let frozen = t.clone();
        let before = contents(&frozen);

        t.get_mut(3).unwrap().active.insert(RoleId(99));
        t.get_mut(70).unwrap().active.clear();
        assert_eq!(t.take(149).unwrap().user, UserId(149));
        assert_eq!(t.push(rec(1000, &[1])), 150);

        assert_eq!(contents(&frozen), before, "the clone kept its records");
        assert_eq!(frozen.len, 150);
        assert_eq!(frozen.active_roles(SessionId(3)), Some(&[RoleId(3)].into()));
        assert_eq!(
            t.active_roles(SessionId(3)),
            Some(&[RoleId(3), RoleId(99)].into())
        );
        assert_eq!(t.active_roles(SessionId(70)), Some(&BTreeSet::new()));
        assert_eq!(t.active_roles(SessionId(149)), None);
        assert_eq!((t.count(), frozen.count()), (150, 150));
    }

    #[test]
    fn a_write_to_a_shared_table_copies_one_chunk() {
        let mut live = Sessions::default();
        for i in 0..150 {
            live.open(UserId(i));
        }
        let frozen = live.table().clone();
        live.activate(SessionId(70), RoleId(1));
        let t = live.table();
        let shared = |i: usize| Arc::ptr_eq(&t.chunks[i], &frozen.chunks[i]);
        assert!(shared(0) && !shared(1) && shared(2));
        assert_eq!(t.chunks_shared_with(&frozen), 2);
        // Within the copied chunk only the written record is new.
        let same_rec = |i: usize| {
            Arc::ptr_eq(
                t.chunks[i / CHUNK][i % CHUNK].as_ref().unwrap(),
                frozen.chunks[i / CHUNK][i % CHUNK].as_ref().unwrap(),
            )
        };
        assert!(same_rec(69) && !same_rec(70) && same_rec(71));

        // Writes that change nothing unshare nothing: a role that is not
        // active, a session that keeps all it has, a missing or closed slot.
        let frozen = live.table().clone();
        live.deactivate(SessionId(3), RoleId(1));
        live.retain_active(SessionId(70), |_| true);
        live.activate(SessionId(5000), RoleId(1));
        assert!(live.close(SessionId(5000)).is_none());
        assert!(live.deactivate_everywhere(RoleId(9)).is_empty());
        assert!(Arc::ptr_eq(&live.table().chunks, &frozen.chunks));
        // Deactivating everywhere copies the chunks of the holders only.
        live.activate(SessionId(140), RoleId(1));
        let frozen = live.table().clone();
        assert_eq!(
            live.deactivate_everywhere(RoleId(1)),
            [SessionId(70), SessionId(140)]
        );
        assert_eq!(live.table().chunks_shared_with(&frozen), 1);
        assert_eq!(
            frozen.active_roles(SessionId(70)),
            Some(&[RoleId(1)].into())
        );
        assert_eq!(live.users_holding(RoleId(1)), 0);
    }

    #[test]
    fn take_and_push_keep_ids_monotonic() {
        let mut t = SessionTable::default();
        assert_eq!(t.push(rec(0, &[])), 0);
        assert_eq!(t.push(rec(1, &[])), 1);
        assert!(t.take(1).is_some());
        assert!(t.take(1).is_none(), "already closed");
        assert!(t.get_mut(1).is_none());
        assert_eq!(t.push(rec(2, &[])), 2, "a closed slot is not reused");
        assert_eq!((t.len, t.count()), (3, 2));
        // Across a chunk boundary too.
        for i in 3..CHUNK + 2 {
            assert_eq!(t.push(rec(0, &[])), i);
        }
        assert!(t.get(CHUNK + 1).is_some() && t.get(CHUNK + 2).is_none());
    }

    #[test]
    fn a_chunk_is_released_with_its_last_open_slot() {
        let mut t = SessionTable::default();
        for i in 0..3 * CHUNK as u32 {
            t.push(rec(i, &[]));
        }
        let released = |t: &SessionTable, c: usize| Arc::ptr_eq(&t.chunks[c], &empty_chunk());
        for i in CHUNK..2 * CHUNK - 1 {
            t.take(i);
        }
        assert!(!released(&t, 1), "one slot of the chunk is still open");
        let frozen = t.clone();
        t.take(2 * CHUNK - 1);
        assert!(released(&t, 1) && !released(&t, 0) && !released(&t, 2));
        assert!(
            frozen.get(2 * CHUNK - 1).is_some(),
            "the clone kept its chunk"
        );
        // Ids, iteration and the wire form do not see the difference.
        assert_eq!((t.len, t.count()), (3 * CHUNK, 2 * CHUNK));
        let slots = contents(&t);
        assert_eq!(slots.len(), 3 * CHUNK);
        assert!(slots[CHUNK..2 * CHUNK].iter().all(Option::is_none));
        assert_eq!(t.push(rec(7, &[])), 3 * CHUNK);
        let json = serde_json::to_string(&t).unwrap();
        let back: SessionTable = serde_json::from_str(&json).unwrap();
        assert_eq!(contents(&back)[..t.len], contents(&t)[..t.len]);
        assert_eq!((back.len, back.count()), (t.len, t.count()));
        assert!(released(&back, 1), "and a table read back is as small");
        // The chunk being filled can be released too; the next push
        // unshares it like any other write to a shared chunk.
        t.take(3 * CHUNK);
        assert!(released(&t, 3));
        assert_eq!(t.push(rec(8, &[])), 3 * CHUNK + 1);
        assert!(!released(&t, 3) && t.get(3 * CHUNK).is_none());
        assert_eq!(t.get(3 * CHUNK + 1).unwrap().user, UserId(8));
        assert!(empty_chunk().iter().all(Option::is_none));
    }

    /// Three sessions (one closed) exactly as the `Vec<Option<SessionRec>>`
    /// field encoded them before the table existed.
    const GOLDEN_SESSIONS: &str = r#"[{"user":0,"active":[0,1]},null,{"user":1,"active":[]}]"#;

    fn three_session_system() -> System {
        let mut s = System::new();
        let ann = s.add_user("ann").unwrap();
        let bob = s.add_user("bob").unwrap();
        let r0 = s.add_role("r0").unwrap();
        let r1 = s.add_role("r1").unwrap();
        s.assign_user(ann, r0).unwrap();
        s.assign_user(ann, r1).unwrap();
        s.create_session(ann, &[r0, r1]).unwrap();
        let closed = s.create_session(bob, &[]).unwrap();
        s.create_session(bob, &[]).unwrap();
        s.delete_session(bob, closed).unwrap();
        s
    }

    #[test]
    fn wire_format_is_the_flat_option_sequence() {
        let s = three_session_system();
        assert_eq!(serde_json::to_string(&s.sessions).unwrap(), GOLDEN_SESSIONS);
        assert_eq!(
            serde_json::to_string(s.sessions.table()).unwrap(),
            GOLDEN_SESSIONS
        );
        // And in place inside the monitor, between its neighbouring fields.
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains(&format!(r#","sessions":{GOLDEN_SESSIONS},"ops":[]"#)),
            "{json}"
        );

        let back: System = serde_json::from_str(&json).unwrap();
        assert_eq!(
            contents(back.sessions.table()),
            contents(s.sessions.table())
        );
        assert_eq!(back.sessions.table.len, 3);
        assert_eq!(back.sessions.holders, s.sessions.holders);
        assert_eq!(back.active_users_of_role(RoleId(1)).unwrap(), 1);
        assert_eq!(
            serde_json::to_string(&back.sessions).unwrap(),
            GOLDEN_SESSIONS
        );
        // What the old encoder wrote reads back as the same table.
        let old: Vec<Option<SessionRec>> = serde_json::from_str(GOLDEN_SESSIONS).unwrap();
        assert_eq!(serde_json::to_string(&old).unwrap(), GOLDEN_SESSIONS);
    }
}
