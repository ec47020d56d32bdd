//! The client side of a script: which session each user holds, and the
//! one mapping from a [`Step`] to the [`JournalOp`] an engine runs.

use crate::enterprise::user_name;
use crate::trace::Step;
use owte_core::{JournalOp, Outcome};
use rbac::{SessionId, System};
use snoop::{Dur, Ts};

/// Each user's most recent session, by user index. Every harness that
/// runs a script — the root suites, the simulator, the replication
/// tests — turns its steps into requests through one `Client`.
#[derive(Debug, Clone)]
pub struct Client {
    sessions: Vec<Option<SessionId>>,
}

impl Client {
    /// A client for `users` users, none holding a session.
    pub fn new(users: usize) -> Client {
        Client {
            sessions: vec![None; users],
        }
    }

    /// The session each user holds, by user index.
    pub fn sessions(&self) -> &[Option<SessionId>] {
        &self.sessions
    }

    /// The request `step` stands for against the names of `sys`, with the
    /// engine's clock at `now` (a fired timer may have moved it since the
    /// last step). `None` skips the step: the user holds no session, or a
    /// user, role, operation or object name is unknown. A delete forgets
    /// the user's session whatever the engine answers.
    pub fn resolve(&mut self, step: &Step, sys: &System, now: Ts) -> Option<JournalOp> {
        let user = |i: usize| sys.user_by_name(&user_name(i)).ok();
        let role = |name: &str| sys.role_by_name(name).ok();
        let session = |i: usize| self.sessions.get(i).copied().flatten();
        Some(match step {
            Step::CreateSession { user: i } => JournalOp::CreateSession {
                user: user(*i)?,
                initial: vec![],
            },
            Step::DeleteSession { user: i } => {
                let session = self.sessions.get_mut(*i)?.take()?;
                JournalOp::DeleteSession {
                    user: user(*i)?,
                    session,
                }
            }
            Step::AddActiveRole { user: i, role: r } => JournalOp::AddActiveRole {
                session: session(*i)?,
                user: user(*i)?,
                role: role(r)?,
            },
            Step::DropActiveRole { user: i, role: r } => JournalOp::DropActiveRole {
                session: session(*i)?,
                user: user(*i)?,
                role: role(r)?,
            },
            Step::CheckAccess { user: i, op, obj } => JournalOp::CheckAccess {
                session: session(*i)?,
                op: sys.op_by_name(op).ok()?,
                obj: sys.obj_by_name(obj).ok()?,
                purpose: -1,
            },
            Step::AssignUser { user: i, role: r } => JournalOp::AssignUser {
                user: user(*i)?,
                role: role(r)?,
            },
            Step::DeassignUser { user: i, role: r } => JournalOp::DeassignUser {
                user: user(*i)?,
                role: role(r)?,
            },
            Step::EnableRole { role: r } => JournalOp::EnableRole { role: role(r)? },
            Step::DisableRole { role: r } => JournalOp::DisableRole { role: role(r)? },
            Step::Advance { secs } => JournalOp::AdvanceTo {
                to: now + Dur::from_secs(*secs),
            },
            Step::SetContext { key, value } => JournalOp::SetContext {
                key: key.clone(),
                value: value.clone(),
            },
        })
    }

    /// Hold the session the engine's `answer` (`None`: a refusal) to the
    /// request of `step` opened, if it opened one.
    pub fn record(&mut self, step: &Step, answer: Option<Outcome>) {
        if let (Step::CreateSession { user }, Some(Outcome::Session(s))) = (step, answer) {
            if let Some(held) = self.sessions.get_mut(*user) {
                *held = Some(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owte_core::Engine;
    use policy::PolicyGraph;

    fn add(user: usize, role: &str) -> Step {
        let role = role.into();
        Step::AddActiveRole { user, role }
    }

    fn check(user: usize, op: &str, obj: &str) -> Step {
        let (op, obj) = (op.into(), obj.into());
        Step::CheckAccess { user, op, obj }
    }

    #[test]
    fn resolves_what_it_can_and_skips_the_rest() {
        // `user0` may activate `clerk` for a minute; `clerk` may `write`
        // `claims`. There is no `user1`.
        let mut g = PolicyGraph::new("client");
        g.role("clerk").max_activation = Some(Dur::from_secs(60));
        g.user("user0");
        g.permission("file-claim", "write", "claims");
        g.grant("file-claim", "clerk");
        g.assign("user0", "clerk");
        let mut e = Engine::from_policy(&g, Ts::ZERO).unwrap();
        let mut client = Client::new(2);
        let (open, close) = (
            Step::CreateSession { user: 0 },
            Step::DeleteSession { user: 0 },
        );
        for (step, resolves) in [
            (add(0, "clerk"), false), // no session yet
            (close.clone(), false),
            (Step::CreateSession { user: 1 }, false), // unknown user
            (open.clone(), true),
            (add(0, "auditor"), false),           // unknown role
            (check(0, "read", "claims"), false),  // unknown operation
            (check(0, "write", "ledger"), false), // unknown object
            (add(0, "clerk"), true),
            (check(0, "write", "claims"), true),
        ] {
            let op = client.resolve(&step, e.system(), e.now());
            assert_eq!(op.is_some(), resolves, "{step}");
            if let Some(op) = op {
                client.record(&step, e.submit(&op).ok());
            }
        }

        // `Advance` counts from the clock it is handed, which the Δ timer
        // of `clerk` has moved on its own.
        let fired = e.next_timer_at().expect("Δ timer pending");
        e.advance_to(fired).unwrap();
        let to = fired + Dur::from_secs(5);
        let advance = client.resolve(&Step::Advance { secs: 5 }, e.system(), e.now());
        assert_eq!(advance, Some(JournalOp::AdvanceTo { to }));

        // A delete forgets the session before the engine answers; a
        // refused `CreateSession` leaves the user without one.
        assert!(client.resolve(&close, e.system(), e.now()).is_some());
        client.record(&open, None);
        assert_eq!(client.sessions(), [None, None]);
        assert_eq!(
            client.resolve(&check(0, "write", "claims"), e.system(), e.now()),
            None
        );
    }
}
