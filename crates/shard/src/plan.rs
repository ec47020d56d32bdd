//! The sharding plan: which roles the coordinator must track, and the
//! static *license* that the policy is shardable at all.
//!
//! The plan is derived from two sources and checked against a third:
//!
//! * the [`policy::PolicyGraph`] names the roles with cross-user
//!   semantics — activation caps (paper Rule 4), SSD sets and
//!   prerequisite targets (`RoleActiveAnywhere` reads);
//! * the analyzer's [`EffectReport::cross_user_footprints`] flags
//!   exactly the generated rules whose effective footprint
//!   spans users — every op dispatching only unflagged rules commutes
//!   freely across shards and never touches the coordinator;
//! * the license check walks the flagged rules and verifies each one's
//!   cross-user surface is of a *coordinable* shape (cap counters the
//!   coordinator owns, denial windows the front mirrors, global
//!   configuration the front broadcasts). Opaque footprints, host
//!   regions and `Any`-target per-user effects defeat routing, so a
//!   policy containing them is rejected up front instead of silently
//!   enforced wrong.

use policy::{AnalysisReport, EffectReport, Footprint, PolicyGraph, Region, Target};
use rbac::{RoleId, UserId};
use std::collections::{BTreeMap, BTreeSet};

/// Why a policy cannot be sharded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unshardable {
    /// The offending rules, each with the footprint feature that defeats
    /// routing.
    pub rules: Vec<(String, String)>,
}

impl std::fmt::Display for Unshardable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy is not shardable:")?;
        for (rule, why) in &self.rules {
            write!(f, " [{rule}: {why}]")?;
        }
        Ok(())
    }
}

/// The static sharding plan for one policy.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-role activation caps (max distinct active users), by id.
    pub caps: BTreeMap<RoleId, usize>,
    /// Every role whose cross-shard membership the coordinator tracks:
    /// capped roles, SSD-set members, and prerequisite targets.
    pub membership: BTreeSet<RoleId>,
    /// The rules the analyzer flagged as spanning users — kept so suites
    /// can assert the license is non-vacuous (a capped policy must flag
    /// its cap rules).
    pub cross_user_rules: Vec<String>,
    /// Whether denials must be mirrored to the other shards (the policy
    /// has active-security specs whose conditions read the denial
    /// window). False for plain RBAC policies, making `checkAccess`
    /// entirely shard-local.
    pub mirror_denials: bool,
}

/// Resolve a role name against the engine's system, ignoring roles the
/// policy names but instantiation dropped (none today, but the plan must
/// not panic on them).
fn role_id(engine: &owte_core::Engine, name: &str) -> Option<RoleId> {
    engine.role_id(name).ok()
}

impl ShardPlan {
    /// Derive the plan for `graph` from `report` (the analysis of an
    /// engine instantiated from that same graph). Fails with the list of
    /// offending rules when a flagged footprint is not coordinable.
    pub fn from_policy(
        graph: &PolicyGraph,
        engine: &owte_core::Engine,
        report: &AnalysisReport,
    ) -> Result<ShardPlan, Unshardable> {
        let cross_user_rules = report.effects.cross_user_footprints();
        license(&report.effects, &cross_user_rules)?;

        let mut caps = BTreeMap::new();
        let mut membership = BTreeSet::new();
        for role in &graph.roles {
            if let (Some(max), Some(id)) = (role.max_active_users, role_id(engine, &role.name)) {
                caps.insert(id, max);
                membership.insert(id);
            }
        }
        for set in &graph.ssd {
            for name in &set.roles {
                membership.extend(role_id(engine, name));
            }
        }
        for p in &graph.prerequisites {
            membership.extend(role_id(engine, &p.requires_active));
        }

        Ok(ShardPlan {
            caps,
            membership,
            cross_user_rules,
            mirror_denials: !graph.security.is_empty(),
        })
    }

    /// Does activating `role` need a coordinator reservation? Only caps
    /// are slot-limited; membership-only roles (SSD members, prerequisite
    /// targets) propagate through the asynchronous membership sync.
    pub fn constrained(&self, role: RoleId) -> bool {
        self.caps.contains_key(&role)
    }

    /// The subset of `active` roles the coordinator tracks.
    pub fn tracked(&self, active: &BTreeSet<RoleId>) -> BTreeSet<RoleId> {
        active.intersection(&self.membership).copied().collect()
    }
}

/// Per-shard membership snapshot: for every tracked role, the distinct
/// users active in it on that shard. This is the ground truth a shard
/// reports at fence time and what global-op resyncs push wholesale.
pub fn membership_of(
    engine: &owte_core::Engine,
    tracked: &BTreeSet<RoleId>,
) -> BTreeMap<RoleId, BTreeSet<UserId>> {
    let sys = engine.system();
    let mut map: BTreeMap<RoleId, BTreeSet<UserId>> = BTreeMap::new();
    for s in sys.all_sessions() {
        let (Ok(user), Ok(roles)) = (sys.session_user(s), sys.session_roles(s)) else {
            continue;
        };
        for r in roles.intersection(tracked) {
            map.entry(*r).or_default().insert(user);
        }
    }
    map
}

/// Verify every flagged rule's cross-user surface is coordinable.
fn license(effects: &EffectReport, flagged: &[String]) -> Result<(), Unshardable> {
    let mut rules = Vec::new();
    for name in flagged {
        let Some(effect) = effects.effect_of(name) else {
            rules.push((name.clone(), "no effect entry in the report".to_string()));
            continue;
        };
        if let Some(why) = refuse(&effect.effective) {
            rules.push((name.clone(), why));
        }
    }
    if rules.is_empty() {
        Ok(())
    } else {
        Err(Unshardable { rules })
    }
}

/// The footprint features no coordinator protocol can route. Everything
/// else the flagged set can contain maps onto one of the three shard
/// mechanisms: `RoleActivation` reads/writes onto reserve/commit
/// counters, `DenialWindow` onto mirrored appends, and global-config
/// writes (`RoleStatus`, `SodState`, `TemporalWindows`, `ContextVars`,
/// `RuleToggles`) onto broadcast ops or documented per-shard toggles.
fn refuse(fp: &Footprint) -> Option<String> {
    if fp.opaque {
        return Some("opaque footprint (unknown custom check/action)".to_string());
    }
    let per_user_any = |r: &Region| {
        matches!(
            r,
            Region::SessionRoles(Target::Any)
                | Region::UserActivation(Target::Any)
                | Region::Assignments(Target::Any)
        )
    };
    for r in fp.reads.iter().chain(fp.writes.iter()) {
        if let Region::Host(name) = r {
            return Some(format!("host region `{name}` is not partitionable"));
        }
        if per_user_any(r) {
            return Some(format!("bulk per-user effect {r:?} defeats user routing"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use owte_core::Engine;
    use snoop::Ts;

    fn plan_for(graph: &PolicyGraph) -> ShardPlan {
        let engine = Engine::from_policy(graph, Ts::ZERO).unwrap();
        ShardPlan::from_policy(graph, &engine, &engine.analyze()).unwrap()
    }

    #[test]
    fn caps_and_ssd_members_are_tracked() {
        let mut g = PolicyGraph::new("plan");
        g.role("A").max_active_users = Some(1);
        g.role("B");
        g.role("C");
        g.ssd_set("no-ab", &["A", "B"], 2);
        let plan = plan_for(&g);
        assert_eq!(plan.caps.len(), 1);
        assert_eq!(plan.membership.len(), 2, "A (capped) and B (SSD member)");
        assert!(
            !plan.cross_user_rules.is_empty(),
            "the cap rule must be flagged by the analyzer — the license is not vacuous"
        );
    }

    #[test]
    fn plain_policy_needs_no_coordinator() {
        let mut g = PolicyGraph::new("plain");
        g.role("A");
        let plan = plan_for(&g);
        assert!(plan.caps.is_empty());
        assert!(plan.membership.is_empty());
        assert!(!plan.mirror_denials);
    }
}
