//! The pluggable invariant layer, evaluated after every scheduler step.
//!
//! Invariants are derived from a *reference* policy graph — normally the
//! same graph the engine was built from, but deliberately *not* trusted
//! to be: the seeded-bug harness builds the engine from a doctored graph
//! (SoD sets stripped, durability relaxed) while the invariants keep
//! checking the original specification, so the checker proves it can
//! catch an engine that silently enforces less than the policy demands.

use crate::world::World;
use owte_core::{apply_op, replay, Engine, Journal, JournalOp};
use policy::PolicyGraph;
use sentinel::{Access, Region};
use snoop::Ts;
use std::cell::RefCell;
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
    /// A rule execution touched a state region outside the footprint the
    /// static effect analysis declared for it — the soundness claim
    /// `observed ⊆ declared` does not hold on this schedule.
    FootprintViolated {
        /// The rule whose execution escaped its declared footprint.
        rule: String,
        /// Whether the escape was a read or a write.
        access: Access,
        /// The region touched but not declared.
        region: Region,
    },
    /// Replaying the acknowledged prefix through the compiled dispatch
    /// plan and through the rule interpreter produced different
    /// decisions, state, or audit records — compilation changed
    /// semantics on this schedule.
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
            Violation::FootprintViolated {
                rule,
                access,
                region,
            } => write!(
                f,
                "footprint violation: rule `{rule}` performed an undeclared {access} of {region}"
            ),
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
    stripped_footprints: BTreeSet<String>,
    /// Acked-ledger hashes whose compiled-vs-interpreted replay already
    /// passed — the schedule explorer revisits identical prefixes
    /// constantly, and each dual replay is the expensive part of the
    /// suite.
    compiled_checked: RefCell<BTreeSet<u64>>,
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
            stripped_footprints: BTreeSet::new(),
            compiled_checked: RefCell::new(BTreeSet::new()),
        }
    }

    /// Doctor the suite: treat `rule`'s declared footprint as *empty*, so
    /// its first recorded touch raises [`Violation::FootprintViolated`].
    /// This is the seeded-bug hook for the effect analysis — it proves
    /// the checker would catch an analyzer that under-declares, the same
    /// way the stripped-SoD harness proves it catches an engine that
    /// under-enforces.
    pub fn with_stripped_footprint(mut self, rule: &str) -> Invariants {
        self.stripped_footprints.insert(rule.to_string());
        self
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

        // --- Observed effects stay within declared footprints. ---
        // Touches are recorded under the rule that actually executed
        // (cascaded rules record under their own name), so each one is
        // checked against that rule's *direct* footprint — tighter than
        // the sync-closed effective footprint used for interference.
        for t in e.observed_touches() {
            let declared_covers = !self.stripped_footprints.contains(&t.rule)
                && world
                    .effects()
                    .effect_of(&t.rule)
                    .is_some_and(|fp| fp.direct.covers(t.access, &t.region));
            if !declared_covers {
                return Some(Violation::FootprintViolated {
                    rule: t.rule.clone(),
                    access: t.access,
                    region: t.region.clone(),
                });
            }
        }

        // --- Durability, on the step that recovered from a crash. ---
        if world.just_restarted() {
            let acked = world.acked();
            if d.op_count() != acked.len() as u64 {
                return Some(Violation::AckedOpsLost {
                    acked: acked.len(),
                    recovered: d.op_count(),
                });
            }
            let journal = Journal {
                policy: world.graph().clone(),
                start: world.start(),
                ops: acked.to_vec(),
            };
            match replay(&journal) {
                Err(err) => {
                    return Some(Violation::StateDivergence {
                        detail: format!("acknowledged prefix does not replay: {err}"),
                    })
                }
                Ok(expected) => {
                    if let Some(detail) = state_diff(e, &expected) {
                        return Some(Violation::StateDivergence { detail });
                    }
                }
            }
        }

        // --- Compiled dispatch ≡ interpreter on the acked prefix. ---
        // Every distinct acknowledged ledger is replayed through a
        // compiled engine and an interpreter-pinned engine and the two
        // must agree on decisions, state, clock, and the byte-for-byte
        // audit trail. Together with the durability check above — which
        // compares the post-restart engine (whose plan was *recompiled*
        // on recovery) against a compiled replay — this also pins the
        // crash-restart recompilation to interpreter semantics. Dual
        // replay is expensive, so each ledger is checked once.
        let acked = world.acked();
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for op in acked {
            for b in format!("{op:?}").bytes() {
                fnv ^= u64::from(b);
                fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        if self.compiled_checked.borrow_mut().insert(fnv) {
            if let Some(detail) = compiled_divergence(world.graph(), world.start(), acked) {
                return Some(Violation::CompiledDivergence { detail });
            }
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

/// Replay `ops` through a compiled engine and the reference evaluator
/// ([`Engine::interpreted`]) of the same policy; return the first observable difference
/// (including the audit trail), if any. Policies that fail to build are
/// someone else's violation — this check only speaks to compilation.
fn compiled_divergence(graph: &PolicyGraph, start: Ts, ops: &[JournalOp]) -> Option<String> {
    let (Ok(mut compiled), Ok(mut interp)) = (
        Engine::from_policy(graph, start),
        Engine::interpreted(graph, start),
    ) else {
        return None;
    };
    for (i, op) in ops.iter().enumerate() {
        let a = apply_op(&mut compiled, op);
        let b = apply_op(&mut interp, op);
        if a.is_ok() != b.is_ok() {
            return Some(format!(
                "op {i} ({op:?}): compiled {a:?} vs interpreted {b:?}"
            ));
        }
    }
    state_diff(&compiled, &interp)
}

/// First observable difference between two engines, if any — the same
/// equality the durability/replication suites assert, as a value.
pub fn state_diff(a: &Engine, b: &Engine) -> Option<String> {
    let (sa, sb) = (a.system(), b.system());
    let (la, lb): (Vec<_>, Vec<_>) = (sa.all_sessions().collect(), sb.all_sessions().collect());
    if la != lb {
        return Some(format!("session sets differ: {la:?} vs {lb:?}"));
    }
    for s in la {
        let (ra, rb) = (sa.session_roles(s), sb.session_roles(s));
        match (&ra, &rb) {
            (Ok(x), Ok(y)) if x == y => {}
            _ => return Some(format!("active roles differ for {s}: {ra:?} vs {rb:?}")),
        }
    }
    for r in sa.all_roles().collect::<Vec<_>>() {
        if sa.is_enabled(r).ok() != sb.is_enabled(r).ok() {
            return Some(format!("enablement differs for {r}"));
        }
    }
    if a.log().entries() != b.log().entries() {
        return Some(format!(
            "audit logs differ ({} vs {} entries)",
            a.log().entries().len(),
            b.log().entries().len()
        ));
    }
    if a.now() != b.now() {
        return Some(format!("clocks differ: {} vs {}", a.now(), b.now()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Choice;
    use crate::{tiny_enterprise, tiny_ops};
    use owte_core::DurableConfig;

    /// The compiled-divergence invariant is clean on the honest stack,
    /// non-vacuous (the reference replay really arms a plan), and
    /// memoized per distinct acked ledger.
    #[test]
    fn compiled_divergence_clean_and_nonvacuous_on_tiny_enterprise() {
        let graph = tiny_enterprise();
        let mut world =
            World::new(&graph, tiny_ops(), DurableConfig::default()).expect("tiny instantiates");
        let inv = Invariants::from_reference(&graph);
        for _ in 0..tiny_ops().len() {
            world.apply(&Choice::NextOp).expect("script step applies");
            assert!(inv.check(&world).is_none(), "honest stack must be clean");
        }
        assert!(!world.acked().is_empty());
        let probe = Engine::from_policy(&graph, world.start()).expect("reference builds");
        assert!(
            probe.compiled_active(),
            "tiny enterprise must compile, or the divergence check is vacuous"
        );
        assert_eq!(
            compiled_divergence(&graph, world.start(), world.acked()),
            None
        );
        // Each distinct acked ledger is dual-replayed exactly once.
        let distinct = inv.compiled_checked.borrow().len();
        assert!(distinct >= 1, "at least one ledger must have been checked");
        assert!(inv.check(&world).is_none());
        assert_eq!(
            inv.compiled_checked.borrow().len(),
            distinct,
            "re-checking an unchanged ledger must hit the memo"
        );
    }

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
