//! The boundary between the rule system and the authorization state it
//! guards.
//!
//! Sentinel evaluates rule *conditions* through read-only queries and
//! performs rule *actions* through mutations on an [`AuthState`]. The
//! `owte-core` crate implements this trait over the `rbac` reference
//! monitor; tests implement it over toy states. Entity ids cross the
//! boundary as `i64` (the parameter value type), keeping this crate
//! independent of any particular monitor.

use snoop::Ts;

/// Outcome of a state action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActionOutcome {
    /// The mutation was applied.
    Done,
    /// The mutation was rejected by the monitor (message explains why).
    /// The executor records this as a denial, like `raise error`.
    Rejected(String),
}

/// Read/write interface the rule executor uses.
///
/// The read methods mirror the check functions the paper's rules call; all
/// take raw `i64` entity ids resolved from occurrence parameters. Queries on
/// unknown ids must return `false`/`0` (a rule condition over a vanished
/// entity simply fails, triggering the rule's Else actions).
pub trait AuthState {
    /// `user IN userL`
    fn user_exists(&self, user: i64) -> bool;
    /// `sessionId IN sessionL`
    fn session_exists(&self, session: i64) -> bool;
    /// Is the session owned by the user?
    fn session_owned_by(&self, session: i64, user: i64) -> bool;
    /// Is the role active in the session?
    fn role_active(&self, session: i64, role: i64) -> bool;
    /// Direct UA assignment.
    fn assigned(&self, user: i64, role: i64) -> bool;
    /// Assignment via hierarchy (user assigned to the role or a senior).
    fn authorized(&self, user: i64, role: i64) -> bool;
    /// Would activating `role` in `session` keep all DSD sets satisfied?
    fn dsd_satisfied(&self, session: i64, role: i64) -> bool;
    /// Is the role enabled?
    fn role_enabled(&self, role: i64) -> bool;
    /// Is the role active in at least one session?
    fn role_active_anywhere(&self, role: i64) -> bool;
    /// Distinct users currently active in the role.
    fn active_users_of_role(&self, role: i64) -> usize;
    /// Is `user` one of the users currently active in `role`?
    fn user_active_in_role(&self, user: i64, role: i64) -> bool;
    /// Distinct roles the user has active (across sessions).
    fn active_roles_of_user(&self, user: i64) -> usize;
    /// Does some active role of the session hold (op, obj)?
    fn session_has_permission(&self, session: i64, op: i64, obj: i64) -> bool;
    /// Is the user directly assigned to *any* of `roles`? The compiled
    /// executor evaluates baked hierarchy closures through this; with
    /// `roles` = the target role plus its seniors closure it is
    /// equivalent to [`AuthState::authorized`]. Implementors may
    /// override it with a cheaper membership test.
    fn authorized_any(&self, user: i64, roles: &[i64]) -> bool {
        roles.iter().any(|&r| self.assigned(user, r))
    }
    /// Does the user's configured active-role cap (if any) permit adding
    /// `role`? Users without a cap always pass.
    fn user_cap_ok(&self, user: i64, role: i64) -> bool {
        let _ = (user, role);
        true
    }
    /// Host-defined check (context constraints, privacy purposes, …),
    /// evaluated at `now`, the time of the triggering event.
    fn custom_check(&self, name: &str, args: &[i64], now: Ts) -> bool {
        let _ = (name, args, now);
        false
    }

    // ---- mutations ---------------------------------------------------------

    /// Activate `role` in `session` (owned by `user`).
    fn add_session_role(&mut self, user: i64, session: i64, role: i64) -> ActionOutcome;
    /// Deactivate `role` in `session`.
    fn drop_session_role(&mut self, user: i64, session: i64, role: i64) -> ActionOutcome;
    /// Deactivate `role` in every session.
    fn deactivate_role_everywhere(&mut self, role: i64) -> ActionOutcome;
    /// Enable a role.
    fn enable_role(&mut self, role: i64) -> ActionOutcome;
    /// Disable a role, optionally deactivating it.
    fn disable_role(&mut self, role: i64, deactivate: bool) -> ActionOutcome;
    /// Assign a user to a role.
    fn assign_user(&mut self, user: i64, role: i64) -> ActionOutcome;
    /// Deassign a user from a role.
    fn deassign_user(&mut self, user: i64, role: i64) -> ActionOutcome;
    /// Host-defined action, run at `now`, the time of the triggering
    /// event.
    fn custom_action(&mut self, name: &str, args: &[i64], now: Ts) -> ActionOutcome {
        let _ = (name, args, now);
        ActionOutcome::Rejected(format!("unknown custom action {name:?}"))
    }
}

/// A trivial [`AuthState`] where every check succeeds and every action is
/// accepted. Useful for exercising the executor machinery in isolation.
#[derive(Debug, Default, Clone)]
pub struct PermissiveState {
    /// Mutations performed, in order (action name, user/session/role args).
    pub log: Vec<String>,
}

impl AuthState for PermissiveState {
    fn user_exists(&self, _: i64) -> bool {
        true
    }
    fn session_exists(&self, _: i64) -> bool {
        true
    }
    fn session_owned_by(&self, _: i64, _: i64) -> bool {
        true
    }
    fn role_active(&self, _: i64, _: i64) -> bool {
        false
    }
    fn assigned(&self, _: i64, _: i64) -> bool {
        true
    }
    fn authorized(&self, _: i64, _: i64) -> bool {
        true
    }
    fn dsd_satisfied(&self, _: i64, _: i64) -> bool {
        true
    }
    fn role_enabled(&self, _: i64) -> bool {
        true
    }
    fn role_active_anywhere(&self, _: i64) -> bool {
        true
    }
    fn active_users_of_role(&self, _: i64) -> usize {
        0
    }
    fn user_active_in_role(&self, _: i64, _: i64) -> bool {
        false
    }
    fn active_roles_of_user(&self, _: i64) -> usize {
        0
    }
    fn session_has_permission(&self, _: i64, _: i64, _: i64) -> bool {
        true
    }

    fn add_session_role(&mut self, u: i64, s: i64, r: i64) -> ActionOutcome {
        self.log.push(format!("add_session_role({u},{s},{r})"));
        ActionOutcome::Done
    }
    fn drop_session_role(&mut self, u: i64, s: i64, r: i64) -> ActionOutcome {
        self.log.push(format!("drop_session_role({u},{s},{r})"));
        ActionOutcome::Done
    }
    fn deactivate_role_everywhere(&mut self, r: i64) -> ActionOutcome {
        self.log.push(format!("deactivate_everywhere({r})"));
        ActionOutcome::Done
    }
    fn enable_role(&mut self, r: i64) -> ActionOutcome {
        self.log.push(format!("enable_role({r})"));
        ActionOutcome::Done
    }
    fn disable_role(&mut self, r: i64, d: bool) -> ActionOutcome {
        self.log.push(format!("disable_role({r},{d})"));
        ActionOutcome::Done
    }
    fn assign_user(&mut self, u: i64, r: i64) -> ActionOutcome {
        self.log.push(format!("assign_user({u},{r})"));
        ActionOutcome::Done
    }
    fn deassign_user(&mut self, u: i64, r: i64) -> ActionOutcome {
        self.log.push(format!("deassign_user({u},{r})"));
        ActionOutcome::Done
    }
    fn custom_action(&mut self, name: &str, args: &[i64], _now: Ts) -> ActionOutcome {
        self.log.push(format!("custom({name},{args:?})"));
        ActionOutcome::Done
    }
}
