//! Lowering a verified, instantiated policy into an execution plan.
//!
//! `sentinel::compile` is monitor-agnostic; this module supplies the
//! monitor-side closures — the RBAC hierarchy ancestor sets and DSD set
//! memberships baked into dense arrays — and enforces the **license**:
//! only a pool the static analyzer proved terminating with zero errors
//! may be lowered. The license is what makes baking sound: a licensed
//! pool only references registered events, and the baked closures go with
//! the rules they are baked into: hierarchy and SoD sets only change
//! through a regeneration that rebuilds the whole pool
//! ([`crate::needs_full_rebuild`]), after which no rule of the previous
//! plan is carried over (see [`sentinel::compile()`]).
//!
//! Beyond the rule plan itself, [`CompiledPolicy`] pre-resolves the
//! engine's operation entry points (per-role activation/enablement events
//! and the fixed administrative events) to [`EventId`]s, so the hot path
//! skips the `format!`-and-name-lookup on every operation.

use crate::analyze::Verdict;
use crate::events;
use crate::generate::Instantiated;
use rbac::{RoleId, System};
use sentinel::{compile as compile_rules, CompileHost, CompiledPool};
use snoop::EventId;
use std::fmt;

/// Why a policy could not be lowered. Never fatal: the engine keeps the
/// interpreter when compilation is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The analyzer verdict does not license compilation (not proved
    /// terminating, or error diagnostics present).
    NotLicensed(String),
    /// Rule lowering failed (unresolvable event name — implies the
    /// license check was bypassed).
    Rule(sentinel::CompileError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotLicensed(summary) => {
                write!(f, "pool not licensed for compilation: {summary}")
            }
            CompileError::Rule(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Per-role operation events, indexed by `RoleId.0`. `None` entries mean
/// the role has no such event (or the id is out of range) — callers fall
/// back to the name path.
type RoleEventTable = Vec<Option<EventId>>;

/// A compiled policy: the rule-dispatch plan plus pre-resolved operation
/// entry events.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// The lowered rule pool.
    pub plan: CompiledPool,
    /// `addActiveRole_<role>` per role.
    pub add_active: RoleEventTable,
    /// `dropActiveRole_<role>` per role.
    pub drop_active: RoleEventTable,
    /// `enableRole_<role>` per role.
    pub enable_role: RoleEventTable,
    /// `disableRole_<role>` per role.
    pub disable_role: RoleEventTable,
    /// `checkAccess`.
    pub check_access: Option<EventId>,
    /// `assignUser`.
    pub assign_user: Option<EventId>,
    /// `deassignUser`.
    pub deassign_user: Option<EventId>,
    /// `contextChanged`.
    pub context_changed: Option<EventId>,
    /// `accessDenied`.
    pub access_denied: Option<EventId>,
}

impl CompiledPolicy {
    /// Look up a per-role operation event.
    pub fn role_event(table: &[Option<EventId>], r: RoleId) -> Option<EventId> {
        table.get(r.index()).copied().flatten()
    }
}

/// [`CompileHost`] over the RBAC reference monitor.
struct SystemHost<'a> {
    sys: &'a System,
}

impl CompileHost for SystemHost<'_> {
    fn authorized_closure(&self, role: i64) -> Option<Vec<i64>> {
        let r = u32::try_from(role).ok().map(RoleId)?;
        let seniors = self.sys.seniors_closure(r).ok()?;
        let mut out = Vec::with_capacity(seniors.len() + 1);
        out.push(role);
        out.extend(seniors.into_iter().map(|s| i64::from(s.0)));
        Some(out)
    }

    fn dsd_sets(&self, role: i64) -> Option<Vec<(Vec<i64>, usize)>> {
        let r = u32::try_from(role).ok().map(RoleId)?;
        self.sys.role_name(r).ok()?;
        let mut out = Vec::new();
        for id in self.sys.all_dsd_sets() {
            let (_, roles, n) = self.sys.dsd_set_info(id).ok()?;
            if roles.contains(&r) {
                out.push((roles.iter().map(|x| i64::from(x.0)).collect(), n));
            }
        }
        Some(out)
    }
}

/// Lower an instantiated policy under the analyzer's license. Refuses —
/// with [`CompileError::NotLicensed`] — unless the verdict proves
/// termination with zero error diagnostics. Rules `previous` — the plan
/// of this instantiation before its last regeneration, or an empty one —
/// lowered from a rule the pool still holds are carried over.
pub fn compile_pool(
    inst: &Instantiated,
    verdict: &Verdict,
    previous: CompiledPool,
) -> Result<CompiledPolicy, CompileError> {
    if !verdict.proved_terminating() || verdict.error_count() > 0 {
        return Err(CompileError::NotLicensed(format!(
            "termination {}, {} errors",
            if verdict.proved_terminating() {
                "proved"
            } else {
                "not proved"
            },
            verdict.error_count()
        )));
    }
    let host = SystemHost { sys: &inst.system };
    let plan =
        compile_rules(&inst.pool, &inst.detector, &host, previous).map_err(CompileError::Rule)?;

    let slots = inst
        .binding
        .roles
        .values()
        .map(|r| r.index() + 1)
        .max()
        .unwrap_or(0);
    let mut add_active = vec![None; slots];
    let mut drop_active = vec![None; slots];
    let mut enable_role = vec![None; slots];
    let mut disable_role = vec![None; slots];
    for (name, &rid) in &inst.binding.roles {
        let i = rid.index();
        add_active[i] = inst.detector.lookup(&events::add_active(name));
        drop_active[i] = inst.detector.lookup(&events::drop_active(name));
        enable_role[i] = inst.detector.lookup(&events::enable_role(name));
        disable_role[i] = inst.detector.lookup(&events::disable_role(name));
    }

    Ok(CompiledPolicy {
        plan,
        add_active,
        drop_active,
        enable_role,
        disable_role,
        check_access: inst.detector.lookup(events::CHECK_ACCESS),
        assign_user: inst.detector.lookup(events::ASSIGN_USER),
        deassign_user: inst.detector.lookup(events::DEASSIGN_USER),
        context_changed: inst.detector.lookup(events::CONTEXT_CHANGED),
        access_denied: inst.detector.lookup(events::ACCESS_DENIED),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::verdict;
    use crate::generate::instantiate;
    use crate::graph::PolicyGraph;
    use snoop::Ts;

    #[test]
    fn xyz_pool_compiles_under_license() {
        let inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
        let compiled = compile_pool(&inst, &verdict(&inst), CompiledPool::default()).unwrap();
        assert_eq!(compiled.plan.rules.len(), inst.pool.len());
        assert!(compiled.check_access.is_some());
        // Every bound role resolves its activation event.
        for (name, &rid) in &inst.binding.roles {
            assert_eq!(
                CompiledPolicy::role_event(&compiled.add_active, rid),
                inst.detector.lookup(&events::add_active(name)),
                "role {name}"
            );
        }
    }

    #[test]
    fn unlicensed_pool_is_refused() {
        let inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
        let mut unproved = verdict(&inst);
        unproved.termination = crate::analyze::Termination::PotentialLoop { cycles: vec![] };
        assert!(matches!(
            compile_pool(&inst, &unproved, CompiledPool::default()),
            Err(CompileError::NotLicensed(_))
        ));
    }

    #[test]
    fn baked_closures_match_monitor_queries() {
        let inst = instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap();
        let host = SystemHost { sys: &inst.system };
        for &rid in inst.binding.roles.values() {
            let closure = host.authorized_closure(i64::from(rid.0)).unwrap();
            assert_eq!(closure[0], i64::from(rid.0), "role itself first");
            let seniors = inst.system.seniors_closure(rid).unwrap();
            assert_eq!(closure.len(), seniors.len() + 1);
            for s in seniors {
                assert!(closure.contains(&i64::from(s.0)));
            }
            let sets = host.dsd_sets(i64::from(rid.0)).unwrap();
            for (roles, n) in &sets {
                assert!(roles.contains(&i64::from(rid.0)));
                assert!(*n >= 2, "DSD cardinality is at least 2");
            }
        }
        // Unknown roles refuse to bake.
        assert_eq!(host.authorized_closure(-1), None);
        assert_eq!(host.dsd_sets(1_000_000), None);
    }
}
