//! The pluggable invariant layer, evaluated after every scheduler step.
//!
//! Invariants are derived from a *reference* policy graph — normally the
//! same graph the engine was built from, but deliberately *not* trusted
//! to be: the seeded-bug harness builds the engine from a doctored graph
//! (SoD sets stripped, durability relaxed) while the invariants keep
//! checking the original specification, so the checker proves it can
//! catch an engine that silently enforces less than the policy demands.

use crate::world::World;
use owte_core::{state_diff, Engine};
use policy::PolicyGraph;
use std::collections::BTreeSet;
use std::fmt;

/// A property violation, with enough detail to read the failure without
/// re-running anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Some user's authorized roles break a static SoD set.
    Ssd {
        /// The SoD set name.
        set: String,
        /// The offending user.
        user: String,
        /// The conflicting roles the user holds.
        held: Vec<String>,
    },
    /// Some session's active roles break a dynamic SoD set.
    Dsd {
        /// The SoD set name.
        set: String,
        /// The offending session.
        session: String,
        /// The conflicting roles active together.
        active: Vec<String>,
    },
    /// More users hold a role active than its cardinality allows.
    RoleCardinality {
        /// The role.
        role: String,
        /// The cap from the policy.
        cap: usize,
        /// Users currently active in it.
        active: usize,
    },
    /// A user has more roles active than their cardinality allows.
    UserCardinality {
        /// The user.
        user: String,
        /// The cap from the policy.
        cap: usize,
        /// Roles currently active.
        active: usize,
    },
    /// A dispatch cascaded deeper than the analyzer's proved bound.
    CascadeExceeded {
        /// The proved bound.
        bound: usize,
        /// The depth actually observed.
        observed: usize,
    },
    /// Recovery after a crash failed outright.
    RecoveryFailed {
        /// The recovery error.
        error: String,
    },
    /// Recovery came back with a different number of operations than
    /// were acknowledged before the crash.
    AckedOpsLost {
        /// Operations the engine acknowledged journaling.
        acked: usize,
        /// Operations recovery restored.
        recovered: u64,
    },
    /// The recovered state is not the sequential replay of the
    /// acknowledged prefix — reads after recovery would grant or deny
    /// outside any linearization of what was acknowledged.
    StateDivergence {
        /// First difference found.
        detail: String,
    },
    /// The live engine, which runs the compiled dispatch plan, is not in
    /// the state the rule interpreter reaches on the same acknowledged
    /// ledger: different sessions, roles, enablement, clock or audit
    /// records — compilation changed semantics on this schedule.
    CompiledDivergence {
        /// First difference found.
        detail: String,
    },
    /// A replica's live state is not the sequential replay of the prefix
    /// of cluster history it has durably journaled — reads at that node
    /// would answer outside any linearization of the shipped log.
    FollowerDivergence {
        /// The diverged node.
        node: usize,
        /// First difference found.
        detail: String,
    },
    /// A follower answered a read from its published snapshot at a
    /// timestamp on or past the validity horizon recomputed from its own
    /// engine — the read should have degraded to the leader.
    StaleReadServed {
        /// The node that served the read.
        node: usize,
        /// The query timestamp.
        at: String,
        /// The engine-recomputed horizon it violated.
        horizon: String,
    },
    /// A sharded client operation was acknowledged to the client but can
    /// no longer resolve: its home shard holds no parked copy, no
    /// in-flight message carries it, and the coordinator has no pending
    /// reservation for it — the ack was handed out for work the group
    /// then lost.
    ShardAckLost {
        /// The lost op's token.
        op: u64,
        /// What the op was.
        desc: String,
    },
    /// At quiescence the coordinator's committed membership view differs
    /// from the ground truth in the shard engines — future cap and SoD
    /// decisions would be made against counts that are simply wrong.
    CoordinatorDrift {
        /// First difference found.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Ssd { set, user, held } => write!(
                f,
                "SSD violation: user {user} holds {{{}}} from set `{set}`",
                held.join(", ")
            ),
            Violation::Dsd {
                set,
                session,
                active,
            } => write!(
                f,
                "DSD violation: session {session} has {{{}}} active from set `{set}`",
                active.join(", ")
            ),
            Violation::RoleCardinality { role, cap, active } => write!(
                f,
                "cardinality violation: {active} users active in role {role} (cap {cap})"
            ),
            Violation::UserCardinality { user, cap, active } => write!(
                f,
                "cardinality violation: user {user} has {active} roles active (cap {cap})"
            ),
            Violation::CascadeExceeded { bound, observed } => write!(
                f,
                "cascade depth {observed} exceeds the analyzer's proved bound {bound}"
            ),
            Violation::RecoveryFailed { error } => write!(f, "recovery failed: {error}"),
            Violation::AckedOpsLost { acked, recovered } => write!(
                f,
                "durability violation: {acked} ops acknowledged, {recovered} recovered"
            ),
            Violation::StateDivergence { detail } => {
                write!(f, "recovered state diverges from prefix replay: {detail}")
            }
            Violation::ShardAckLost { op, desc } => write!(
                f,
                "shard durability violation: op #{op} ({desc}) was acknowledged but can never resolve"
            ),
            Violation::CoordinatorDrift { detail } => {
                write!(f, "coordinator membership drifted from shard ground truth: {detail}")
            }
            Violation::CompiledDivergence { detail } => {
                write!(
                    f,
                    "compiled dispatch diverges from the interpreter: {detail}"
                )
            }
            Violation::FollowerDivergence { node, detail } => {
                write!(
                    f,
                    "replication violation: node n{node} diverges from its journaled \
                     prefix of cluster history: {detail}"
                )
            }
            Violation::StaleReadServed { node, at, horizon } => {
                write!(
                    f,
                    "staleness violation: node n{node} answered a read at {at}, on or \
                     past its validity horizon {horizon}"
                )
            }
        }
    }
}

/// One SoD constraint as the invariant layer checks it.
#[derive(Debug, Clone)]
struct SodCheck {
    name: String,
    roles: Vec<String>,
    cardinality: usize,
}

/// The invariant suite for one reference policy.
#[derive(Debug, Clone)]
pub struct Invariants {
    ssd: Vec<SodCheck>,
    dsd: Vec<SodCheck>,
    role_caps: Vec<(String, usize)>,
    user_caps: Vec<(String, usize)>,
}

impl Invariants {
    /// Derive the suite from the policy that *should* be enforced.
    pub fn from_reference(graph: &PolicyGraph) -> Invariants {
        let sod = |sets: &[policy::SodSpec]| {
            sets.iter()
                .map(|s| SodCheck {
                    name: s.name.clone(),
                    roles: s.roles.iter().cloned().collect(),
                    cardinality: s.cardinality,
                })
                .collect::<Vec<_>>()
        };
        Invariants {
            ssd: sod(&graph.ssd),
            dsd: sod(&graph.dsd),
            role_caps: graph
                .roles
                .iter()
                .filter_map(|r| r.max_active_users.map(|n| (r.name.clone(), n)))
                .collect(),
            user_caps: graph
                .users
                .iter()
                .filter_map(|u| u.max_active_roles.map(|n| (u.name.clone(), n)))
                .collect(),
        }
    }

    /// Evaluate every invariant against `world`, returning the first
    /// violation found. Crashed worlds have nothing observable; the
    /// durability invariants run on the step that restarts them.
    pub fn check(&self, world: &World) -> Option<Violation> {
        let d = world.engine()?;
        let e = d.engine();

        // --- SSD/DSD and cardinality, on the live engine. ---
        if let Some(v) = self.check_rbac(e) {
            return Some(v);
        }

        // --- Cascades stay within the analyzer's proved depth. ---
        if let Some(bound) = world.cascade_bound() {
            if e.deepest_cascade() > bound {
                return Some(Violation::CascadeExceeded {
                    bound,
                    observed: e.deepest_cascade(),
                });
            }
        }

        // --- Durability, on the step that recovered from a crash. ---
        if world.just_restarted() && d.op_count() != world.acked().len() as u64 {
            return Some(Violation::AckedOpsLost {
                acked: world.acked().len(),
                recovered: d.op_count(),
            });
        }

        // --- The live engine is the reference interpreter's replay of
        // the acknowledged ledger. --- Checked after every step: the live
        // engine runs the compiled plan (recompiled on recovery), the
        // reference walks the rule pool, and the two must agree on state,
        // clock and the byte-for-byte audit trail. Right after a restart,
        // a difference is lost durability rather than miscompilation.
        if let Some(detail) = state_diff(e, world.interpreted()) {
            return Some(if world.just_restarted() {
                Violation::StateDivergence { detail }
            } else {
                Violation::CompiledDivergence { detail }
            });
        }

        None
    }

    /// The RBAC state invariants alone — SSD over authorized roles, DSD
    /// over active roles, and activation cardinality — against one live
    /// engine. The single-process suite runs this on *the* engine; the
    /// cluster suite runs it on every up node, because replication must
    /// not make a constraint violation observable anywhere.
    pub fn check_rbac(&self, e: &Engine) -> Option<Violation> {
        let sys = e.system();

        // --- Static SoD over every user's authorized roles. ---
        for u in sys.all_users().collect::<Vec<_>>() {
            let Ok(authorized) = sys.authorized_roles(u) else {
                continue;
            };
            let names: BTreeSet<String> = authorized
                .iter()
                .filter_map(|r| sys.role_name(*r).ok().map(str::to_string))
                .collect();
            for set in &self.ssd {
                let held: Vec<String> = set
                    .roles
                    .iter()
                    .filter(|r| names.contains(*r))
                    .cloned()
                    .collect();
                if held.len() >= set.cardinality {
                    return Some(Violation::Ssd {
                        set: set.name.clone(),
                        user: sys.user_name(u).unwrap_or("?").to_string(),
                        held,
                    });
                }
            }
        }

        // --- Dynamic SoD over every session's active roles. ---
        for s in sys.all_sessions().collect::<Vec<_>>() {
            let Ok(roles) = sys.session_roles(s) else {
                continue;
            };
            let names: BTreeSet<String> = roles
                .iter()
                .filter_map(|r| sys.role_name(*r).ok().map(str::to_string))
                .collect();
            for set in &self.dsd {
                let active: Vec<String> = set
                    .roles
                    .iter()
                    .filter(|r| names.contains(*r))
                    .cloned()
                    .collect();
                if active.len() >= set.cardinality {
                    return Some(Violation::Dsd {
                        set: set.name.clone(),
                        session: format!("{s}"),
                        active,
                    });
                }
            }
        }

        // --- Activation cardinality (paper Rule 4 and scenario 1). ---
        for (role, cap) in &self.role_caps {
            let Ok(r) = sys.role_by_name(role) else {
                continue;
            };
            let active = sys.active_users_of_role(r).unwrap_or(0);
            if active > *cap {
                return Some(Violation::RoleCardinality {
                    role: role.clone(),
                    cap: *cap,
                    active,
                });
            }
        }
        for (user, cap) in &self.user_caps {
            let Ok(u) = sys.user_by_name(user) else {
                continue;
            };
            let active = sys.active_roles_of_user(u).map(|s| s.len()).unwrap_or(0);
            if active > *cap {
                return Some(Violation::UserCardinality {
                    user: user.clone(),
                    cap: *cap,
                    active,
                });
            }
        }

        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_divergence_display_names_the_first_difference() {
        let v = Violation::CompiledDivergence {
            detail: "clocks differ: 1s vs 2s".into(),
        };
        assert_eq!(
            v.to_string(),
            "compiled dispatch diverges from the interpreter: clocks differ: 1s vs 2s"
        );
    }
}
