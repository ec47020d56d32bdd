//! The request alphabet: one [`JournalOp`] per externally-driven
//! operation, the [`Outcome`] an engine answers it with, and [`replay`] —
//! deterministic state-machine replication of the engine, the primitive
//! behind the paper's future-work direction ("to provide *distributed*
//! access control for enterprises").
//!
//! Every engine runs a request through one `submit`
//! ([`Engine::submit`], [`crate::DirectEngine::submit`],
//! [`crate::DurableEngine::submit`]). Because the engine is a
//! deterministic function of (policy, request sequence) — the virtual
//! clock removes all wall-time dependence — a replica that submits the
//! same requests reaches the same state. Only the *external* inputs are
//! requests; everything derived (cascaded events, `accessDenied` feeds,
//! timer firings) is reproduced by the rules during replay.

use crate::engine::{Engine, EngineError};
use policy::PolicyGraph;
use rbac::{ObjId, OpId, RoleId, SessionId, UserId};
use serde::{Deserialize, Serialize};
use snoop::{Params, Ts};

/// One externally-driven operation: a request, and the unit the durable
/// layer journals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// `CreateSession(user, initial roles)`.
    CreateSession {
        /// The user.
        user: UserId,
        /// Initial active roles.
        initial: Vec<RoleId>,
    },
    /// `DeleteSession(user, session)`.
    DeleteSession {
        /// The owner.
        user: UserId,
        /// The session.
        session: SessionId,
    },
    /// `AddActiveRole(user, session, role)`.
    AddActiveRole {
        /// The user.
        user: UserId,
        /// The session.
        session: SessionId,
        /// The role.
        role: RoleId,
    },
    /// `DropActiveRole(user, session, role)`.
    DropActiveRole {
        /// The user.
        user: UserId,
        /// The session.
        session: SessionId,
        /// The role.
        role: RoleId,
    },
    /// `CheckAccess(session, op, obj, purpose)` — recorded because denials
    /// feed active security, so checks *are* state-changing.
    CheckAccess {
        /// The session.
        session: SessionId,
        /// The operation.
        op: OpId,
        /// The object.
        obj: ObjId,
        /// Purpose id, −1 for none.
        purpose: i64,
    },
    /// `AssignUser`.
    AssignUser {
        /// The user.
        user: UserId,
        /// The role.
        role: RoleId,
    },
    /// `DeassignUser`.
    DeassignUser {
        /// The user.
        user: UserId,
        /// The role.
        role: RoleId,
    },
    /// `EnableRole` request.
    EnableRole {
        /// The role.
        role: RoleId,
    },
    /// `DisableRole` request.
    DisableRole {
        /// The role.
        role: RoleId,
    },
    /// External context event.
    SetContext {
        /// Context key.
        key: String,
        /// Context value.
        value: String,
    },
    /// Clock advance to an absolute instant.
    AdvanceTo {
        /// The target time.
        to: Ts,
    },
    /// A raw external event (escape hatch for custom primitives).
    RawEvent {
        /// Event name.
        event: String,
        /// Parameters.
        params: Params,
    },
}

/// What an engine answers a [`JournalOp`] with when it succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request took effect.
    Done,
    /// `CreateSession` opened this session.
    Session(SessionId),
    /// `CheckAccess` decided: granted or not.
    Access(bool),
}

impl Outcome {
    /// `Done` for any successful result of an operation that answers
    /// nothing a client reads.
    pub(crate) fn done<T>(r: Result<T, EngineError>) -> Result<Outcome, EngineError> {
        r.map(|_| Outcome::Done)
    }
}

/// Rebuild an engine by submitting `ops` to a fresh instantiation of
/// `policy` at `start`. Deterministic: the result is state-equal to the
/// engine the requests were first submitted to, which is what the
/// durability and replication suites compare against.
///
/// A refused request is part of history (a denial still counts toward
/// security windows), so engine errors are swallowed exactly as the
/// original caller observed them. The exception is `AdvanceTo`: the
/// virtual clock going backwards means the history itself is malformed,
/// so that error propagates.
pub fn replay(policy: &PolicyGraph, start: Ts, ops: &[JournalOp]) -> Result<Engine, EngineError> {
    let mut e = Engine::from_policy(policy, start)
        .map_err(|err| EngineError::Unhandled(err.to_string()))?;
    for op in ops {
        resubmit(&mut e, op)?;
    }
    Ok(e)
}

/// Submit one request of a recorded history to `e`: only the error of an
/// `AdvanceTo` comes back (see [`replay`]).
pub(crate) fn resubmit(e: &mut Engine, op: &JournalOp) -> Result<(), EngineError> {
    match (op, e.submit(op)) {
        (JournalOp::AdvanceTo { .. }, Err(err)) => Err(err),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop::Dur;

    fn policy() -> PolicyGraph {
        let mut g = PolicyGraph::new("replicated");
        g.role("clerk");
        g.role("night").enabling = Some(policy::DailyWindow {
            start_h: 22,
            start_m: 0,
            end_h: 6,
            end_m: 0,
        });
        g.role("timed").max_activation = Some(Dur::from_hours(1));
        g.user("ann");
        g.assign("ann", "clerk");
        g.assign("ann", "timed");
        g.permission("p", "read", "ledger");
        g.grant("p", "clerk");
        g
    }

    /// Submit `ops` to `e`, returning what each answered.
    fn submit_all(e: &mut Engine, ops: &[JournalOp]) -> Vec<Result<Outcome, EngineError>> {
        ops.iter().map(|op| e.submit(op)).collect()
    }

    #[test]
    fn replica_converges_to_primary_state() {
        let g = policy();
        let mut primary = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let ann = primary.user_id("ann").unwrap();
        let (clerk, timed) = (
            primary.role_id("clerk").unwrap(),
            primary.role_id("timed").unwrap(),
        );
        let read = primary.system().op_by_name("read").unwrap();
        let ledger = primary.system().obj_by_name("ledger").unwrap();
        let s = SessionId(0);
        let ops = [
            JournalOp::CreateSession {
                user: ann,
                initial: vec![clerk],
            },
            JournalOp::AddActiveRole {
                user: ann,
                session: s,
                role: timed,
            },
            JournalOp::AdvanceTo {
                to: Ts::from_secs(30 * 60),
            },
            JournalOp::CheckAccess {
                session: s,
                op: read,
                obj: ledger,
                purpose: -1,
            },
            // Past the Δ expiry of `timed`.
            JournalOp::AdvanceTo {
                to: Ts::from_secs(2 * 3600),
            },
            JournalOp::SetContext {
                key: "zone".into(),
                value: "z1".into(),
            },
        ];
        let answers = submit_all(&mut primary, &ops);
        assert_eq!(answers[0], Ok(Outcome::Session(s)));
        assert_eq!(answers[3], Ok(Outcome::Access(true)));

        let replica = replay(&g, Ts::ZERO, &ops).unwrap();
        assert_eq!(crate::state_diff(&primary, &replica), None);
        // Replay is a function of its input.
        let again = replay(&g, Ts::ZERO, &ops).unwrap();
        assert_eq!(crate::state_diff(&replica, &again), None);
    }

    #[test]
    fn denied_operations_replay_identically() {
        let g = policy();
        let mut primary = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let ann = primary.user_id("ann").unwrap();
        let night = primary.role_id("night").unwrap();
        // `night` is enabled 22:00–06:00, but ann is not assigned to it.
        let denied = JournalOp::AddActiveRole {
            user: ann,
            session: SessionId(0),
            role: night,
        };
        let ops = [
            JournalOp::CreateSession {
                user: ann,
                initial: vec![],
            },
            denied.clone(),
            denied,
        ];
        let answers = submit_all(&mut primary, &ops);
        assert!(answers[1].is_err() && answers[2].is_err());
        let replica = replay(&g, Ts::ZERO, &ops).unwrap();
        assert_eq!(crate::state_diff(&primary, &replica), None);
        assert_eq!(replica.log().denial_count(), 2);
    }

    #[test]
    fn a_regressing_clock_fails_the_replay() {
        let ops = [
            JournalOp::AdvanceTo {
                to: Ts::from_secs(100),
            },
            JournalOp::AdvanceTo {
                to: Ts::from_secs(50),
            },
        ];
        assert!(matches!(
            replay(&policy(), Ts::ZERO, &ops),
            Err(EngineError::Detector(_))
        ));
    }
}
