//! The SESSIONS table: a persistent (copy-on-write) chunked vector.
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
//! announce what it changed.

use crate::ids::{RoleId, SessionId};
use crate::system::SessionRec;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Slots per chunk: what one write to a shared table copies (as pointers).
const CHUNK: usize = 64;

type Slot = Option<Arc<SessionRec>>;

/// Every session slot ever allocated, live or closed. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    chunks: Arc<Vec<Arc<[Slot; CHUNK]>>>,
    /// Slots allocated; the tail of the last chunk past it is padding.
    len: usize,
}

impl SessionTable {
    /// The active role set of session `s`, or `None` if it is not open.
    pub fn active_roles(&self, s: SessionId) -> Option<&BTreeSet<RoleId>> {
        self.get(s.index()).map(|rec| &rec.active)
    }

    /// Number of open sessions.
    pub fn count(&self) -> usize {
        self.iter().flatten().count()
    }

    pub(crate) fn get(&self, i: usize) -> Option<&SessionRec> {
        self.chunks.get(i / CHUNK)?[i % CHUNK].as_deref()
    }

    /// The record in slot `i` for writing. Unshares the path to it; a
    /// closed or unallocated slot unshares nothing.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut SessionRec> {
        self.get(i)?;
        self.slot_mut(i).as_mut().map(Arc::make_mut)
    }

    /// Allocate the next slot for `rec` and return its index.
    pub(crate) fn push(&mut self, rec: SessionRec) -> usize {
        let i = self.len;
        let spine = Arc::make_mut(&mut self.chunks);
        if i / CHUNK == spine.len() {
            spine.push(Arc::new(std::array::from_fn(|_| None)));
        }
        self.len += 1;
        *self.slot_mut(i) = Some(Arc::new(rec));
        i
    }

    /// Close slot `i`, returning the record it held.
    pub(crate) fn take(&mut self, i: usize) -> Option<Arc<SessionRec>> {
        self.get(i)?;
        self.slot_mut(i).take()
    }

    /// Every slot in id order, `None` for closed ones and for the padding
    /// that fills the last chunk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&SessionRec>> + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(Option::as_deref)
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
        let mut slots = flat.into_iter().map(|slot| slot.map(Arc::new));
        let chunks = (0..len.div_ceil(CHUNK))
            .map(|_| Arc::new(std::array::from_fn(|_| slots.next().flatten())))
            .collect();
        Ok(SessionTable {
            chunks: Arc::new(chunks),
            len,
        })
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
        let mut t = SessionTable::default();
        for i in 0..150 {
            t.push(rec(i, &[]));
        }
        let frozen = t.clone();
        t.get_mut(70).unwrap().active.insert(RoleId(1));
        let shared = |i: usize| Arc::ptr_eq(&t.chunks[i], &frozen.chunks[i]);
        assert!(shared(0) && !shared(1) && shared(2));
        // Within the copied chunk only the written record is new.
        let same_rec = |i: usize| {
            Arc::ptr_eq(
                t.chunks[i / CHUNK][i % CHUNK].as_ref().unwrap(),
                frozen.chunks[i / CHUNK][i % CHUNK].as_ref().unwrap(),
            )
        };
        assert!(same_rec(69) && !same_rec(70) && same_rec(71));
        // Missing and closed slots unshare nothing.
        let mut t2 = frozen.clone();
        assert!(t2.get_mut(5000).is_none() && t2.take(5000).is_none());
        assert!(Arc::ptr_eq(&t2.chunks, &frozen.chunks));
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
        // And in place inside the monitor, between its neighbouring fields.
        let json = serde_json::to_string(&s).unwrap();
        assert!(
            json.contains(&format!(r#","sessions":{GOLDEN_SESSIONS},"ops":[]"#)),
            "{json}"
        );

        let back: System = serde_json::from_str(&json).unwrap();
        assert_eq!(contents(&back.sessions), contents(&s.sessions));
        assert_eq!(back.sessions.len, 3);
        assert_eq!(
            serde_json::to_string(&back.sessions).unwrap(),
            GOLDEN_SESSIONS
        );
        // What the old encoder wrote reads back as the same table.
        let old: Vec<Option<SessionRec>> = serde_json::from_str(GOLDEN_SESSIONS).unwrap();
        assert_eq!(serde_json::to_string(&old).unwrap(), GOLDEN_SESSIONS);
    }
}
