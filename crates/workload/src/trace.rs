//! Seeded, policy-aware client scripts: streams of sessions, activations,
//! deactivations, access checks and administrative requests that reach the
//! grant paths of the policy they are drawn from, to drive every engine
//! identically.

use crate::client::Client;
use crate::enterprise::user_name;
use owte_core::{DirectEngine, SplitMix64};
use policy::PolicyGraph;
use rbac::{PermId, RoleId, System};
use snoop::Ts;
use std::fmt;

/// One step of a client script. Users are named by index
/// ([`user_name`]), so a script stays valid across crash/restart cycles;
/// roles, operations and objects by name. [`crate::Client`] resolves a
/// step to the request it stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// `user` opens a session.
    CreateSession {
        /// User index.
        user: usize,
    },
    /// `user` closes their most recent open session.
    DeleteSession {
        /// User index.
        user: usize,
    },
    /// `user` activates `role` in their most recent session.
    AddActiveRole {
        /// User index.
        user: usize,
        /// Role name.
        role: String,
    },
    /// `user` deactivates `role` in their most recent session.
    DropActiveRole {
        /// User index.
        user: usize,
        /// Role name.
        role: String,
    },
    /// `user`'s most recent session asks for (op, obj).
    CheckAccess {
        /// User index.
        user: usize,
        /// Operation name.
        op: String,
        /// Object name.
        obj: String,
    },
    /// Administrative `AssignUser(user, role)`.
    AssignUser {
        /// User index.
        user: usize,
        /// Role name.
        role: String,
    },
    /// Administrative `DeassignUser(user, role)`.
    DeassignUser {
        /// User index.
        user: usize,
        /// Role name.
        role: String,
    },
    /// `EnableRole(role)` request.
    EnableRole {
        /// Role name.
        role: String,
    },
    /// `DisableRole(role)` request.
    DisableRole {
        /// Role name.
        role: String,
    },
    /// Advance logical time by `secs` seconds.
    Advance {
        /// Seconds to advance.
        secs: u64,
    },
    /// An external context event: set `key` to `value`.
    SetContext {
        /// Context key.
        key: String,
        /// Context value.
        value: String,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let who = |user: &usize| user_name(*user);
        match self {
            Step::CreateSession { user } => write!(f, "{} opens a session", who(user)),
            Step::DeleteSession { user } => write!(f, "{} closes a session", who(user)),
            Step::AddActiveRole { user, role } => write!(f, "{} activates {role}", who(user)),
            Step::DropActiveRole { user, role } => write!(f, "{} deactivates {role}", who(user)),
            Step::CheckAccess { user, op, obj } => {
                write!(f, "{} requests {op} on {obj}", who(user))
            }
            Step::AssignUser { user, role } => write!(f, "{} is assigned {role}", who(user)),
            Step::DeassignUser { user, role } => write!(f, "{} is deassigned {role}", who(user)),
            Step::EnableRole { role } => write!(f, "enable {role}"),
            Step::DisableRole { role } => write!(f, "disable {role}"),
            Step::Advance { secs } => write!(f, "advance {secs}s"),
            Step::SetContext { key, value } => write!(f, "context {key} = {value}"),
        }
    }
}

/// Steps per thousand of the aimed share, by kind; whatever is left over
/// after them is clock advances. Session churn is one symmetric toggle, so
/// the live set hovers around half the users.
const CHURN: usize = 90;
const CHECK: usize = 600;
const ACTIVATE: usize = 200;
const DROP: usize = 80;
const TOGGLE: usize = 10;
/// Share of steps drawn blind from the whole policy, whatever the state.
const BLIND: f64 = 0.1;

/// Generate `steps` steps over `graph`, whose users are `user<i>` (the
/// enterprise generator's names), deterministically from `seed`.
///
/// A [`DirectEngine`] runs as the model of the deployment: every step is
/// drawn from what the model's state allows, then submitted to it. Checks
/// ask for a permission in the closure of a role active in the session
/// nine times in ten; activations aim at an authorized, enabled, inactive
/// role eight times in ten; deactivations at an active role. Clock
/// advances cross Δ durations and window edges, and enable/disable
/// requests toggle roles. A tenth of the steps is blind: a random user,
/// role or permission, an assignment change, or a context change when the
/// policy constrains context. The trace carries no expected answers.
pub fn generate(graph: &PolicyGraph, steps: usize, seed: u64) -> Vec<Step> {
    let mut gen = Gen {
        model: DirectEngine::from_policy(graph, Ts::ZERO).expect("the policy instantiates"),
        client: Client::new(graph.users.len()),
        rng: SplitMix64(seed ^ 0x7A5C_E6E1_0000_0001),
        graph,
    };
    (0..steps).map(|_| gen.step()).collect()
}

struct Gen<'g> {
    graph: &'g PolicyGraph,
    model: DirectEngine,
    client: Client,
    rng: SplitMix64,
}

impl Gen<'_> {
    fn step(&mut self) -> Step {
        let step = if self.rng.unit() < BLIND {
            self.blind()
        } else {
            self.aimed()
        };
        if let Some(op) = self
            .client
            .resolve(&step, &self.model.sys, self.model.now())
        {
            let answer = self.model.submit(&op).ok();
            self.client.record(&step, answer);
        }
        step
    }

    fn sys(&self) -> &System {
        &self.model.sys
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> Option<T> {
        (!from.is_empty()).then(|| from[self.rng.below(from.len())].clone())
    }

    fn name(&self, role: RoleId) -> String {
        self.sys().role_name(role).expect("bound role").to_string()
    }

    fn random_user(&mut self) -> usize {
        self.rng.below(self.graph.users.len().max(1))
    }

    fn random_role(&mut self) -> String {
        let at = self.rng.below(self.graph.roles.len().max(1));
        self.graph
            .roles
            .get(at)
            .map_or_else(String::new, |r| r.name.clone())
    }

    fn random_check(&mut self, user: usize) -> Step {
        let at = self.rng.below(self.graph.permissions.len().max(1));
        let (op, obj) = self
            .graph
            .permissions
            .get(at)
            .map_or_else(Default::default, |p| (p.op.clone(), p.obj.clone()));
        Step::CheckAccess { user, op, obj }
    }

    fn churn(&mut self, user: usize) -> Step {
        match self.client.sessions().get(user).copied().flatten() {
            Some(_) => Step::DeleteSession { user },
            None => Step::CreateSession { user },
        }
    }

    /// The roles active in `user`'s session, in the model.
    fn active(&self, user: usize) -> Vec<RoleId> {
        let session = self.client.sessions()[user].expect("a live user");
        let roles = self.sys().session_roles(session).unwrap_or_default();
        roles.into_iter().collect()
    }

    fn aimed(&mut self) -> Step {
        let live: Vec<usize> = (0..self.client.sessions().len())
            .filter(|&u| self.client.sessions()[u].is_some())
            .collect();
        let pick = self.rng.below(1000);
        let Some(user) = self.pick(&live).filter(|_| pick >= CHURN) else {
            let user = self.random_user();
            return self.churn(user);
        };
        if pick < CHURN + CHECK {
            self.check(user, &live)
        } else if pick < CHURN + CHECK + ACTIVATE {
            self.activate(user)
        } else if pick < CHURN + CHECK + ACTIVATE + DROP {
            let role = match self.pick(&self.active(user)) {
                Some(role) => self.name(role),
                None => self.random_role(),
            };
            Step::DropActiveRole { user, role }
        } else if pick < CHURN + CHECK + ACTIVATE + DROP + TOGGLE {
            self.toggle()
        } else {
            self.advance()
        }
    }

    /// Nine times in ten a permission of a role active in the session,
    /// looking at up to eight live users for one holding such a role.
    fn check(&mut self, mut user: usize, live: &[usize]) -> Step {
        if self.rng.unit() < 0.9 {
            for _ in 0..8 {
                let held: Vec<PermId> = self
                    .active(user)
                    .into_iter()
                    .flat_map(|r| self.sys().role_perms_closure(r).unwrap_or_default())
                    .collect();
                if let Some(perm) = self.pick(&held).and_then(|p| self.sys().perm(p)) {
                    let sys = self.sys();
                    let op = sys.op_name(perm.op).expect("bound op").to_string();
                    let obj = sys.obj_name(perm.obj).expect("bound object").to_string();
                    return Step::CheckAccess { user, op, obj };
                }
                user = self.pick(live).expect("a live user");
            }
        }
        self.random_check(user)
    }

    /// Eight times in ten an authorized, enabled role not yet active.
    fn activate(&mut self, user: usize) -> Step {
        let sys = self.sys();
        let active = self.active(user);
        let candidates: Vec<RoleId> = sys
            .user_by_name(&user_name(user))
            .and_then(|u| sys.authorized_roles(u))
            .unwrap_or_default()
            .into_iter()
            .filter(|r| sys.is_enabled(*r).unwrap_or(false) && !active.contains(r))
            .collect();
        let role = match self.pick(&candidates).filter(|_| self.rng.unit() < 0.8) {
            Some(role) => self.name(role),
            None => self.random_role(),
        };
        Step::AddActiveRole { user, role }
    }

    /// Half the time a disabled role is asked back, else a random role is
    /// asked to go.
    fn toggle(&mut self) -> Step {
        let sys = self.sys();
        let disabled: Vec<RoleId> = sys
            .all_roles()
            .filter(|r| !sys.is_enabled(*r).unwrap_or(true))
            .collect();
        match self.pick(&disabled).filter(|_| self.rng.unit() < 0.5) {
            Some(role) => Step::EnableRole {
                role: self.name(role),
            },
            None => Step::DisableRole {
                role: self.random_role(),
            },
        }
    }

    /// Half the time up to ten minutes; else one second past a Δ of the
    /// policy or past the next edge of an enabling window.
    fn advance(&mut self) -> Step {
        const DAY: u64 = 24 * 3600;
        let now = self.model.now().as_secs() % DAY;
        let mut marks = Vec::new();
        for role in &self.graph.roles {
            marks.extend(role.max_activation.map(|d| d.as_secs()));
            marks.extend(role.per_user_activation.values().map(|d| d.as_secs()));
            if let Some(w) = &role.enabling {
                for (h, m) in [(w.start_h, w.start_m), (w.end_h, w.end_m)] {
                    let edge = u64::from(h) * 3600 + u64::from(m) * 60;
                    marks.push((edge + DAY - now - 1) % DAY + 1);
                }
            }
        }
        let secs = match self.pick(&marks).filter(|_| self.rng.unit() < 0.5) {
            Some(mark) => mark + 1,
            None => 1 + self.rng.below(600) as u64,
        };
        Step::Advance { secs }
    }

    fn blind(&mut self) -> Step {
        let user = self.random_user();
        let contexts = &self.graph.context_constraints;
        match self.rng.below(if contexts.is_empty() { 6 } else { 7 }) {
            0 => self.churn(user),
            1 => Step::AddActiveRole {
                user,
                role: self.random_role(),
            },
            2 => Step::DropActiveRole {
                user,
                role: self.random_role(),
            },
            3 => self.random_check(user),
            4 => Step::AssignUser {
                user,
                role: self.random_role(),
            },
            5 => Step::DeassignUser {
                user,
                role: self.random_role(),
            },
            _ => {
                // A value some constraint asks for, or one none does.
                let key = contexts[self.rng.below(contexts.len())].key.clone();
                let at = self.rng.below(contexts.len() + 1);
                let value = contexts
                    .get(at)
                    .map_or("elsewhere", |c| &c.value)
                    .to_string();
                Step::SetContext { key, value }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enterprise::{generate as generate_enterprise, EnterpriseSpec};

    fn enterprise() -> PolicyGraph {
        generate_enterprise(&EnterpriseSpec::sized(20), 7)
    }

    #[test]
    fn deterministic_and_sized() {
        let g = enterprise();
        let a = generate(&g, 1000, 5);
        assert_eq!(a, generate(&g, 1000, 5));
        assert_eq!(a.len(), 1000);
        assert_ne!(a, generate(&g, 1000, 6));
    }

    /// The stream every seeded suite draws from: the first steps of one
    /// trace, as text. A change to the generator's draws or naming moves
    /// every suite's floors, and shows here first.
    #[test]
    fn generated_stream_is_pinned() {
        let text: Vec<String> = generate(&enterprise(), 40, 5)
            .iter()
            .map(Step::to_string)
            .collect();
        let expected = "\
user22 opens a session
user22 requests op5 on obj21
user22 activates role13
user22 requests op7 on obj23
user22 requests op0 on obj8
user22 requests op4 on obj28
user22 requests op3 on obj35
user22 requests op4 on obj28
user22 requests op4 on obj28
user22 requests op3 on obj35
user18 opens a session
user22 requests op5 on obj37
user33 opens a session
user22 requests op3 on obj35
user24 opens a session
user22 requests op3 on obj35
disable role19
user24 closes a session
user18 activates role3
user33 activates role5
user22 activates role17
user18 requests op5 on obj37
user18 requests op4 on obj36
user18 deactivates role3
user18 activates role1
user22 deactivates role13
user22 requests op0 on obj16
user18 activates role14
user18 requests op6 on obj30
user33 requests op3 on obj27
user18 activates role3
user18 activates role2
user22 activates role13
user22 requests op4 on obj28
user33 requests op1 on obj9
user33 requests op7 on obj15
user33 activates role11
user18 requests op0 on obj32
user22 requests op0 on obj16
user33 activates role4";
        assert_eq!(text.join("\n"), expected);
    }
}
