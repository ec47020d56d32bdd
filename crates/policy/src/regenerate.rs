//! Rule regeneration on policy change (§5 of the paper).
//!
//! "When there is a change in the policy — for example, the shift time of
//! role 'day doctor' is changed from (8–4) to (9–5) — it can be easily
//! changed in the high level specification and the corresponding rules can
//! be regenerated … without burdening the administrator."
//!
//! [`regenerate`] diffs the old and new policy graphs role by role, rewrites
//! only the affected roles' rules in place (rule names are deterministic, so
//! [`sentinel::RulePool::add`] overwrites), and updates the monitor-side
//! policy data. Entity-set changes (roles/users/permissions added or
//! removed, hierarchy or SoD membership changes) alter the enforcement of
//! *other* roles too; those fall back to full re-instantiation, which
//! [`needs_full_rebuild`] detects.

use crate::analyze::Verdict;
use crate::generate::{self, GenStats, InstantiateError, Instantiated};
use crate::graph::{PolicyGraph, RoleNode};
use gtrbac::{BoundedPeriodic, PeriodicWindow};
use std::collections::BTreeSet;

/// What a regeneration did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegenReport {
    /// Roles whose rules were rewritten.
    pub regenerated_roles: Vec<String>,
    /// Rules rewritten (sum over regenerated roles).
    pub rules_rewritten: usize,
    /// True when the change forced a full rebuild instead.
    pub full_rebuild: bool,
    /// Total live rules after regeneration.
    pub total_rules: usize,
}

/// Does the change require a full rebuild? True when anything beyond
/// per-role properties (caps, windows, durations) changed.
pub fn needs_full_rebuild(old: &PolicyGraph, new: &PolicyGraph) -> bool {
    fn role_names(g: &PolicyGraph) -> BTreeSet<&str> {
        g.roles.iter().map(|r| r.name.as_str()).collect()
    }
    role_names(old) != role_names(new)
        || old.users != new.users
        || old.permissions != new.permissions
        || old.hierarchy != new.hierarchy
        || old.assignments != new.assignments
        || old.grants != new.grants
        || old.ssd != new.ssd
        || old.dsd != new.dsd
        || old.disabling_sod != new.disabling_sod
        || old.enabling_sod != new.enabling_sod
        || old.post_conditions != new.post_conditions
        || old.prerequisites != new.prerequisites
        || old.security != new.security
        || old.context_constraints != new.context_constraints
        || old.triggers != new.triggers
        || old.purposes != new.purposes
        || old.object_policies != new.object_policies
}

/// Roles whose node properties differ between the two graphs.
pub fn changed_roles<'a>(old: &'a PolicyGraph, new: &'a PolicyGraph) -> Vec<&'a RoleNode> {
    new.roles
        .iter()
        .filter(|nr| old.role_node(&nr.name) != Some(*nr))
        .collect()
}

/// Apply the `new` policy to an existing instantiation.
///
/// Incremental when only role properties changed; otherwise rebuilds from
/// scratch (the report says which happened). On success `inst.graph` is the
/// new policy.
pub fn regenerate(
    inst: &mut Instantiated,
    new: &PolicyGraph,
) -> Result<RegenReport, InstantiateError> {
    if needs_full_rebuild(&inst.graph, new) {
        let fresh = generate::instantiate(new, inst.detector.now())?;
        let total = fresh.pool.len();
        *inst = fresh;
        return Ok(RegenReport {
            regenerated_roles: Vec::new(),
            rules_rewritten: 0,
            full_rebuild: true,
            total_rules: total,
        });
    }

    let changed: Vec<RoleNode> = changed_roles(&inst.graph, new)
        .into_iter()
        .cloned()
        .collect();
    let mut report = RegenReport::default();
    for node in &changed {
        let rid = inst.binding.role(&node.name);
        // Monitor-side policy data.
        inst.system
            .set_role_activation_cap(rid, node.max_active_users)?;
        let mut policy = gtrbac::RoleTemporalPolicy::default();
        if let Some(w) = &node.enabling {
            policy.enabling = Some(BoundedPeriodic::window(PeriodicWindow::daily(
                w.start_h, w.start_m, w.end_h, w.end_m,
            )));
        }
        policy.max_activation = node.max_activation;
        for (u, d) in &node.per_user_activation {
            policy
                .per_user_max_activation
                .insert(inst.binding.user(u), *d);
        }
        inst.temporal.set(rid, policy);
        // The role's enabled state must follow the new window immediately.
        if inst.temporal.should_be_enabled(rid, inst.detector.now()) {
            inst.system.enable_role(rid)?;
        } else {
            inst.system.disable_role(rid, true)?;
        }
        // Retract Δ state scheduled under the old policy. A *changed*
        // duration hash-conses to a different Plus node, so the old node
        // must be fully retired (timers cancelled, deterministic name
        // unbound, detached so future activations stop feeding it) before
        // the regenerated rules can claim `delta_<role>` for the new node.
        // An unchanged duration keeps its node; only pending timers go.
        let old_role = inst.graph.role_node(&node.name).cloned();
        let mut stale_deltas = Vec::new();
        let before = rules_of_role(inst, &node.name);
        if let Some(old) = &old_role {
            if old.max_activation != node.max_activation {
                stale_deltas.push(crate::events::delta(&node.name));
            }
            for user in old.per_user_activation.keys() {
                if old.per_user_activation.get(user) != node.per_user_activation.get(user) {
                    stale_deltas.push(crate::events::delta_user(&node.name, user));
                }
                // A withdrawn per-user Δ takes its rules along: nothing
                // below regenerates them, and the one that cancels timers
                // would name an event that is about to be retired.
                if !node.per_user_activation.contains_key(user) {
                    for rule in generate::per_user_delta_rules(&node.name, user) {
                        inst.pool.remove(&rule);
                    }
                }
            }
        }
        for name in &stale_deltas {
            if let Some(plus) = inst.detector.lookup(name) {
                inst.detector.retire(plus)?;
            }
        }
        if let Some(plus) = inst.detector.lookup(&crate::events::delta(&node.name)) {
            inst.detector.cancel_timers(plus);
        }

        // Rewrite the role's rules in place.
        let mut stats = GenStats::default();
        generate::generate_role(
            new,
            &inst.binding,
            node,
            &mut inst.detector,
            &mut inst.pool,
            &mut stats,
        )?;
        let after = rules_of_role(inst, &node.name);
        report.rules_rewritten += before.union(&after).count();
        report.regenerated_roles.push(node.name.clone());
    }
    inst.graph = new.clone();
    inst.stats.event_nodes = inst.detector.node_count();
    report.total_rules = inst.pool.len();
    Ok(report)
}

/// [`regenerate`] with the static analyzer as a commit gate.
///
/// The new pool is built on a clone of the instantiation and put before
/// the passes that can reject it ([`crate::analyze::verdict`]) *before*
/// being committed, so a rejected change leaves `inst` exactly as it was.
/// On success the regeneration report is returned together with the
/// verdict (e.g. so an engine can refresh its acyclic fast-path hint).
pub fn regenerate_verified(
    inst: &mut Instantiated,
    new: &PolicyGraph,
    gate: generate::VerifyGate,
) -> Result<(RegenReport, Verdict), InstantiateError> {
    let mut staged = inst.clone();
    let report = regenerate(&mut staged, new)?;
    let verdict = gate.admit(crate::analyze::verdict(&staged))?;
    *inst = staged;
    Ok((report, verdict))
}

/// Names of the live rules scoped to one role (deterministic suffix match).
fn rules_of_role(inst: &Instantiated, role: &str) -> BTreeSet<String> {
    inst.pool
        .iter()
        .filter(|(_, r)| {
            r.name
                .rsplit_once('_')
                .is_some_and(|(_, tail)| tail == role)
                || r.name.contains(&format!("_{role}_"))
        })
        .map(|(_, r)| r.name.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DailyWindow;
    use snoop::{Civil, Dur, Ts};

    fn day_doctor_policy(start_h: u32, end_h: u32) -> PolicyGraph {
        let mut g = PolicyGraph::new("hospital");
        g.role("DayDoctor").enabling = Some(DailyWindow {
            start_h,
            start_m: 0,
            end_h,
            end_m: 0,
        });
        g.role("Nurse");
        g.user("bob");
        g.assign("bob", "DayDoctor");
        g
    }

    #[test]
    fn shift_change_is_incremental() {
        // The paper's §5 scenario: 8–4 becomes 9–5.
        let old = day_doctor_policy(8, 16);
        let new = day_doctor_policy(9, 17);
        assert!(!needs_full_rebuild(&old, &new));
        let mut inst = generate::instantiate(&old, Ts::ZERO).unwrap();
        let rules_before = inst.pool.len();
        let report = regenerate(&mut inst, &new).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.regenerated_roles, vec!["DayDoctor".to_string()]);
        assert!(report.rules_rewritten >= 4, "AAR/DAR/ENA/DIS at least");
        assert_eq!(inst.pool.len(), rules_before, "same rule population");
        assert_eq!(inst.graph, new);
    }

    #[test]
    fn regenerated_window_changes_enabled_state() {
        let old = day_doctor_policy(8, 16);
        let mut inst =
            generate::instantiate(&old, Civil::new(2000, 1, 5, 8, 30, 0).to_ts()).unwrap();
        let rid = inst.binding.role("DayDoctor");
        assert!(inst.system.is_enabled(rid).unwrap(), "8:30 is inside 8–16");
        // Shift moves to 9–17: at 8:30 the role must now be disabled.
        let new = day_doctor_policy(9, 17);
        regenerate(&mut inst, &new).unwrap();
        assert!(!inst.system.is_enabled(rid).unwrap());
    }

    #[test]
    fn cap_added_and_removed() {
        let base = day_doctor_policy(8, 16);
        let mut capped = base.clone();
        capped.role("Nurse").max_active_users = Some(3);
        let mut inst = generate::instantiate(&base, Ts::ZERO).unwrap();
        assert!(inst.pool.get_by_name("CC_Nurse").is_none());
        regenerate(&mut inst, &capped).unwrap();
        assert!(inst.pool.get_by_name("CC_Nurse").is_some());
        assert_eq!(
            inst.system
                .role_activation_cap(inst.binding.role("Nurse"))
                .unwrap(),
            Some(3)
        );
        // Removing the cap removes the CC rule again.
        regenerate(&mut inst, &base).unwrap();
        assert!(inst.pool.get_by_name("CC_Nurse").is_none());
    }

    #[test]
    fn delta_added_incrementally() {
        let base = day_doctor_policy(8, 16);
        let mut with_delta = base.clone();
        with_delta.role("Nurse").max_activation = Some(Dur::from_hours(2));
        let mut inst = generate::instantiate(&base, Ts::ZERO).unwrap();
        regenerate(&mut inst, &with_delta).unwrap();
        assert!(inst.pool.get_by_name("DELTA_Nurse").is_some());
        assert_eq!(
            inst.temporal
                .activation_limit(inst.binding.role("Nurse"), inst.binding.user("bob")),
            Some(Dur::from_hours(2))
        );
    }

    #[test]
    fn withdrawn_per_user_delta_takes_its_rules_along() {
        use crate::generate::VerifyGate;
        let base = day_doctor_policy(8, 16);
        let mut with_delta = base.clone();
        with_delta
            .role("Nurse")
            .per_user_activation
            .insert("bob".into(), Dur::from_hours(1));
        let mut inst = generate::instantiate(&base, Ts::ZERO).unwrap();
        let names = |inst: &Instantiated| -> BTreeSet<String> {
            inst.pool.iter().map(|(_, r)| r.name.to_string()).collect()
        };
        let base_rules = names(&inst);
        regenerate_verified(&mut inst, &with_delta, VerifyGate::DenyOnError).unwrap();
        assert!(inst.pool.get_by_name("CANCEL_Nurse_bob").is_some());
        // The rule that cancels bob's timers names `delta_Nurse_bob`, which
        // the withdrawal retires: left behind, it fails the gate.
        regenerate_verified(&mut inst, &base, VerifyGate::DenyOnError).unwrap();
        assert_eq!(names(&inst), base_rules);
    }

    #[test]
    fn structural_change_forces_full_rebuild() {
        let old = day_doctor_policy(8, 16);
        let mut new = old.clone();
        new.role("Surgeon"); // new entity
        assert!(needs_full_rebuild(&old, &new));
        let mut inst = generate::instantiate(&old, Ts::ZERO).unwrap();
        let report = regenerate(&mut inst, &new).unwrap();
        assert!(report.full_rebuild);
        assert!(inst.pool.get_by_name("AAR1_Surgeon").is_some());
    }

    #[test]
    fn verified_regeneration_rejects_without_committing() {
        use crate::generate::VerifyGate;
        use crate::graph::PostConditionSpec;
        let g = PolicyGraph::enterprise_xyz();
        let mut inst = generate::instantiate(&g, Ts::ZERO).unwrap();
        let rules_before = inst.pool.len();
        let mut bad = g.clone();
        bad.post_conditions.push(PostConditionSpec {
            role: "PM".into(),
            requires: "AM".into(),
        });
        bad.post_conditions.push(PostConditionSpec {
            role: "AM".into(),
            requires: "PM".into(),
        });
        let err = regenerate_verified(&mut inst, &bad, VerifyGate::DenyOnError).unwrap_err();
        assert!(matches!(err, InstantiateError::Rejected(_)), "{err}");
        assert_eq!(inst.graph, g, "rejected change must not commit");
        assert_eq!(inst.pool.len(), rules_before);
        // The same change goes through with the gate off, and the report
        // says why it would have been refused.
        let (report, analysis) = regenerate_verified(&mut inst, &bad, VerifyGate::Off).unwrap();
        assert!(report.full_rebuild);
        assert!(!analysis.proved_terminating());
        assert_eq!(inst.graph, bad);
    }

    #[test]
    fn unchanged_policy_is_a_noop() {
        let g = day_doctor_policy(8, 16);
        let mut inst = generate::instantiate(&g, Ts::ZERO).unwrap();
        let report = regenerate(&mut inst, &g.clone()).unwrap();
        assert!(report.regenerated_roles.is_empty());
        assert_eq!(report.rules_rewritten, 0);
    }
}
