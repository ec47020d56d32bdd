//! Per-rule effect footprints: which state regions each rule can read or
//! write, directly and through its synchronous cascades.
//!
//! The *direct* footprint of a rule is a path-insensitive walk of its
//! When/Then/Else trees over an abstract partition of the monitor state
//! ([`Region`]): literals stay concrete ids, occurrence parameters widen
//! to one unknown entity, custom checks/actions missing from the table
//! below widen to ⊤ (`opaque`). The *effective* footprint closes the
//! direct one over the synchronous edges of the rule-dependency graph
//! ([`super::termination::build_rule_graph`]): if rule A can raise an
//! event that triggers rule B within the same dispatch, everything B may
//! touch is attributed to A as well.
//!
//! The footprints decide one thing: the sharding license
//! (`shard::plan`), which routes a policy only when every rule whose
//! effective footprint spans users ([`EffectReport::cross_user_footprints`])
//! has a coordinable shape.

use super::termination::RuleGraph;
use super::{DiagCode, Diagnostic, Severity};
use sentinel::{ActionSpec, Check, CondExpr, ParamRef, RulePool};
use serde::{Deserialize, Serialize};

/// Which entity instance(s) of a region family an effect touches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Target {
    /// One statically-known entity (generated rules bake ids in).
    Id(i64),
    /// One entity per dispatch, bound by a triggering-occurrence
    /// parameter — unknown statically, but a *single* instance.
    Param,
    /// Potentially every instance of the family (bulk operations,
    /// malformed references).
    Any,
}

/// An abstract region of the authorization state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// The session table itself: which sessions exist and who owns them.
    SessionSet,
    /// The active-role set of one session.
    SessionRoles(Target),
    /// The cross-session activation aggregate of one role (who is active
    /// in it anywhere — the paper's cardinality counters).
    RoleActivation(Target),
    /// The active-role aggregate of one user across their sessions
    /// (per-user cardinality caps).
    UserActivation(Target),
    /// The user↔role assignment relation, per user (UA and the derived
    /// authorization closure).
    Assignments(Target),
    /// The enabled/disabled status of one role (GTRBAC).
    RoleStatus(Target),
    /// SSD/DSD set membership (which roles conflict).
    SodState,
    /// GTRBAC enabling windows and durations.
    TemporalWindows,
    /// Context variables consulted by context-aware constraints.
    ContextVars,
    /// The recent-denial history that active-security rules read
    /// (`denials_at_least`) and every denial appends to. Fired/allow
    /// audit entries are pure observability and not a region.
    DenialWindow,
    /// Pending detector timers (PLUS events, scheduled deactivations).
    Timers,
    /// The enabled bits of the rule pool itself (active security).
    RuleToggles,
    /// An uninterpreted host-side region, named by the custom check or
    /// action that touches it.
    Host(String),
}

/// A set of region effects: what something reads, what it writes, and
/// whether part of it escaped the analysis (`opaque` — an unknown custom
/// check/action, treated as touching *everything*).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Footprint {
    /// Regions read.
    pub reads: Vec<Region>,
    /// Regions written.
    pub writes: Vec<Region>,
    /// Some effect could not be mapped to regions; assume it touches
    /// every region (⊤ of the lattice).
    pub opaque: bool,
}

impl Footprint {
    /// Merge another footprint in (lattice join).
    fn absorb(&mut self, other: Footprint) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.opaque |= other.opaque;
    }

    /// Sort and deduplicate the region lists (canonical form for reports).
    fn normalize(&mut self) {
        self.reads.sort();
        self.reads.dedup();
        self.writes.sort();
        self.writes.dedup();
    }
}

/// The declared effect of one rule: what it may touch on its own and
/// through every synchronous cascade it can start.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleEffect {
    /// Rule name.
    pub rule: String,
    /// The rule's own footprint closed over synchronous trigger edges.
    pub effective: Footprint,
}

/// The per-rule footprints of one pool.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffectReport {
    /// One entry per live rule, sorted by rule name.
    pub effects: Vec<RuleEffect>,
}

impl EffectReport {
    /// Look up one rule's declared effect.
    pub fn effect_of(&self, rule: &str) -> Option<&RuleEffect> {
        self.effects
            .binary_search_by(|e| e.rule.as_str().cmp(rule))
            .ok()
            .map(|i| &self.effects[i])
    }

    /// The rules whose effective footprint genuinely spans users — the
    /// placement input for a sharded coordinator. A rule stays shardable
    /// per-user when everything it touches is keyed by a single
    /// user/session (sessions belong to one user) or is a *read* of global
    /// configuration (role status, SoD sets, temporal windows, context —
    /// replicable to every shard). It spans users when it consults or
    /// maintains a cross-user aggregate (role activation counters, the
    /// denial history), writes global configuration or rule toggles,
    /// touches a per-user family with an `Any` target, or is opaque.
    /// Denial-history *writes* are commutative appends (mergeable
    /// asynchronously) and timer writes are event plumbing the coordinator
    /// routes anyway; neither forces cross-user placement.
    pub fn cross_user_footprints(&self) -> Vec<String> {
        self.effects
            .iter()
            .filter(|e| spans_users(&e.effective))
            .map(|e| e.rule.clone())
            .collect()
    }
}

/// Placement predicate for [`EffectReport::cross_user_footprints`].
fn spans_users(fp: &Footprint) -> bool {
    if fp.opaque {
        return true;
    }
    let per_user_any = |r: &Region| {
        matches!(
            r,
            Region::SessionRoles(Target::Any)
                | Region::UserActivation(Target::Any)
                | Region::Assignments(Target::Any)
        )
    };
    fp.reads.iter().any(|r| {
        matches!(
            r,
            Region::RoleActivation(_) | Region::DenialWindow | Region::Host(_)
        ) || per_user_any(r)
    }) || fp.writes.iter().any(|w| {
        matches!(
            w,
            Region::RoleActivation(_)
                | Region::RoleStatus(_)
                | Region::SodState
                | Region::TemporalWindows
                | Region::ContextVars
                | Region::RuleToggles
                | Region::Host(_)
        ) || per_user_any(w)
    })
}

/// Compute the footprints of a pool, appending an
/// [`DiagCode::OpaqueFootprint`] warning for every custom check/action
/// the region table does not know (each site flagged where it appears —
/// the report-level dedup collapses repeats).
pub(crate) fn compute(
    g: &RuleGraph,
    pool: &RulePool,
    diagnostics: &mut Vec<Diagnostic>,
) -> EffectReport {
    let direct = direct_footprints(pool, &g.names);
    for (name, fp) in g.names.iter().zip(&direct) {
        if !fp.opaque {
            continue;
        }
        for r in fp.reads.iter().chain(&fp.writes) {
            if let Region::Host(n) = r {
                diagnostics.push(Diagnostic {
                    severity: Severity::Warning,
                    code: DiagCode::OpaqueFootprint,
                    message: format!(
                        "rule '{name}' has an opaque effect footprint: custom '{n}' is not in the region table"
                    ),
                    rules: vec![name.clone()],
                    roles: vec![],
                    events: vec![],
                    hint: "register the custom in policy::analyze::footprint so its regions are \
                           known; an opaque rule makes its policy unshardable"
                        .into(),
                });
            }
        }
    }
    let effects = g
        .names
        .iter()
        .zip(effective_footprints(g, &direct))
        .map(|(rule, effective)| RuleEffect {
            rule: rule.clone(),
            effective,
        })
        .collect();
    EffectReport { effects }
}

/// Direct footprint of every rule, index-aligned with `names` (the
/// sorted rule-name order of [`RuleGraph`]).
fn direct_footprints(pool: &RulePool, names: &[String]) -> Vec<Footprint> {
    let mut out = vec![Footprint::default(); names.len()];
    for (_, rule) in pool.iter() {
        let i = names
            .binary_search_by(|n| n.as_str().cmp(&rule.name))
            .expect("graph names cover the pool");
        let mut fp = cond_footprint(&rule.when);
        for action in rule.then.iter().chain(&rule.otherwise) {
            fp.absorb(action_footprint(action));
        }
        fp.normalize();
        out[i] = fp;
    }
    out
}

/// Close direct footprints over synchronous trigger edges: the effective
/// footprint of rule `i` is the union of the direct footprints of every
/// rule reachable from `i` through sync edges (including `i` itself).
///
/// Sound even on cyclic graphs (the DFS memoizes visited nodes per
/// source), though a synchronous cycle will already have failed the
/// termination gate.
fn effective_footprints(g: &RuleGraph, direct: &[Footprint]) -> Vec<Footprint> {
    let n = direct.len();
    let mut out = Vec::with_capacity(n);
    for start in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        let mut fp = Footprint::default();
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            fp.absorb(direct[v].clone());
            for &(t, sync) in &g.edges[v] {
                if sync && !seen[t] {
                    stack.push(t);
                }
            }
        }
        fp.normalize();
        out.push(fp);
    }
    out
}

/// Literal ids stay concrete, occurrence parameters become the
/// single-unknown [`Target::Param`], strings (never a valid entity id)
/// widen to `Any`.
fn target(p: &ParamRef) -> Target {
    match p {
        ParamRef::Int(i) => Target::Id(*i),
        ParamRef::Param(_) => Target::Param,
        ParamRef::Str(_) => Target::Any,
    }
}

/// Regions read by one atomic check.
fn check_footprint(check: &Check) -> Footprint {
    let mut fp = Footprint::default();
    let mut read = |r: Region| fp.reads.push(r);
    match check {
        Check::UserExists(u) => read(Region::Assignments(target(u))),
        Check::SessionExists(_) | Check::SessionOwnedBy { .. } => read(Region::SessionSet),
        Check::RoleNotActive { session, .. } | Check::RoleActive { session, .. } => {
            read(Region::SessionRoles(target(session)))
        }
        Check::Assigned { user, .. } | Check::Authorized { user, .. } => {
            read(Region::Assignments(target(user)))
        }
        Check::DsdSatisfied { session, .. } => {
            read(Region::SodState);
            read(Region::SessionRoles(target(session)));
        }
        Check::RoleEnabled(r) => read(Region::RoleStatus(target(r))),
        Check::RoleActiveAnywhere(r) => read(Region::RoleActivation(target(r))),
        Check::RoleCardinalityBelow { role, user, .. } => {
            read(Region::RoleActivation(target(role)));
            read(Region::UserActivation(target(user)));
        }
        Check::UserCardinalityBelow { user, .. } | Check::UserCapOk { user, .. } => {
            read(Region::UserActivation(target(user)))
        }
        Check::SessionHasPermission { session, .. } => read(Region::SessionRoles(target(session))),
        // Pure occurrence inspection: no authorization state at all.
        Check::SourceIs(_) | Check::ParamEquals { .. } => {}
        Check::Custom { name, args } => fp.absorb(custom_check_footprint(name, args)),
    }
    fp
}

/// The bridge's registered custom checks (`owte-core`'s `BridgeView`),
/// mapped to the regions they consult. Anything not in this table is
/// opaque.
fn custom_check_footprint(name: &str, args: &[ParamRef]) -> Footprint {
    let mut fp = Footprint::default();
    match name {
        // SoD feasibility of disabling/enabling a role: scans role status
        // and activations across the whole SoD neighbourhood.
        "disabling_sod_ok" => {
            fp.reads.push(Region::SodState);
            fp.reads.push(Region::RoleStatus(Target::Any));
            fp.reads.push(Region::RoleActivation(Target::Any));
            fp.reads.push(Region::TemporalWindows);
        }
        "enabling_sod_ok" => {
            fp.reads.push(Region::SodState);
            fp.reads.push(Region::RoleStatus(Target::Any));
            fp.reads.push(Region::TemporalWindows);
        }
        "context_ok" => fp.reads.push(Region::ContextVars),
        "may_enable" => fp.reads.push(Region::TemporalWindows),
        "denials_at_least" => fp.reads.push(Region::DenialWindow),
        // purpose_ok(session, op, obj, purpose): privacy check over the
        // session's active roles plus the (static) purpose bindings.
        "purpose_ok" => {
            let t = args.first().map_or(Target::Any, target);
            fp.reads.push(Region::SessionRoles(t));
        }
        _ => {
            fp.reads.push(Region::Host(name.to_string()));
            fp.opaque = true;
        }
    }
    fp
}

/// Regions read/written by one action.
///
/// Monitor mutations that can be *rejected* (SoD, cardinality, temporal
/// guards inside the reference monitor) also write [`Region::DenialWindow`]
/// — a rejection appends to the security-relevant denial history.
fn action_footprint(action: &ActionSpec) -> Footprint {
    let mut fp = Footprint::default();
    let mut write = |r: Region| fp.writes.push(r);
    match action {
        ActionSpec::AddSessionRole {
            user,
            session,
            role,
        }
        | ActionSpec::DropSessionRole {
            user,
            session,
            role,
        } => {
            write(Region::SessionRoles(target(session)));
            write(Region::RoleActivation(target(role)));
            write(Region::UserActivation(target(user)));
            write(Region::DenialWindow);
        }
        ActionSpec::DeactivateRoleEverywhere(role) => {
            write(Region::RoleActivation(target(role)));
            write(Region::SessionRoles(Target::Any));
            write(Region::UserActivation(Target::Any));
            write(Region::DenialWindow);
        }
        ActionSpec::EnableRole(role) => {
            write(Region::RoleStatus(target(role)));
            write(Region::DenialWindow);
        }
        ActionSpec::DisableRole { role, deactivate } => {
            write(Region::RoleStatus(target(role)));
            if *deactivate {
                write(Region::RoleActivation(target(role)));
                write(Region::SessionRoles(Target::Any));
                write(Region::UserActivation(Target::Any));
            }
            write(Region::DenialWindow);
        }
        ActionSpec::AssignUser { user, .. } | ActionSpec::DeassignUser { user, .. } => {
            write(Region::Assignments(target(user)));
            write(Region::DenialWindow);
        }
        // Pure decision/observability: an explicit allow and an alert
        // append to the audit log only, which is not a region.
        ActionSpec::Allow | ActionSpec::Alert(_) => {}
        ActionSpec::RaiseError(_) => write(Region::DenialWindow),
        // A raise schedules/produces occurrences: the *synchronous* part
        // is accounted transitively (effective footprints close over the
        // rule-dependency graph); composite events may arm timers.
        ActionSpec::RaiseEvent { .. } | ActionSpec::CancelPlus { .. } => write(Region::Timers),
        ActionSpec::DisableRuleClass(_)
        | ActionSpec::EnableRuleClass(_)
        | ActionSpec::DisableRule(_)
        | ActionSpec::EnableRule(_) => write(Region::RuleToggles),
        ActionSpec::Custom { name, .. } => {
            write(Region::Host(name.clone()));
            fp.opaque = true;
        }
    }
    fp
}

/// The footprint of one condition tree: the union of every atomic check's
/// reads, on every branch (path-insensitive, hence an over-approximation).
fn cond_footprint(cond: &CondExpr) -> Footprint {
    let mut fp = Footprint::default();
    match cond {
        CondExpr::True | CondExpr::False => {}
        CondExpr::Check(c) => fp.absorb(check_footprint(c)),
        CondExpr::All(v) | CondExpr::Any(v) => {
            for c in v {
                fp.absorb(cond_footprint(c));
            }
        }
        CondExpr::Not(c) => fp.absorb(cond_footprint(c)),
        CondExpr::If {
            guard,
            then,
            otherwise,
        } => {
            fp.absorb(cond_footprint(guard));
            fp.absorb(cond_footprint(then));
            fp.absorb(cond_footprint(otherwise));
        }
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::super::termination::build_rule_graph;
    use super::*;
    use sentinel::{attach_rule, Rule};
    use snoop::{Detector, Ts};

    #[test]
    fn effective_footprint_closes_over_sync_cascade() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let mut pool = RulePool::new();
        // r1 only raises `b`; r2 assigns a user. Effectively r1 writes
        // what r2 writes.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("r1", a, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
                event: "b".into(),
                params: vec![],
            }]),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("r2", b, CondExpr::True).then(vec![ActionSpec::AssignUser {
                user: ParamRef::param("user"),
                role: ParamRef::Int(1),
            }]),
        );
        let g = build_rule_graph(&d, &pool);
        let direct = direct_footprints(&pool, &g.names);
        let eff = effective_footprints(&g, &direct);
        let i1 = g.names.iter().position(|n| n == "r1").unwrap();
        assert!(
            !direct[i1]
                .writes
                .contains(&Region::Assignments(Target::Param)),
            "direct footprint of r1 has no assignment write"
        );
        assert!(
            eff[i1].writes.contains(&Region::Assignments(Target::Param)),
            "effective footprint of r1 absorbs r2's: {:?}",
            eff[i1]
        );
    }

    #[test]
    fn cross_user_footprints_flag_aggregates_not_per_user_rules() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        // Per-user: reads/writes only the triggering user's assignments.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new(
                "per-user",
                a,
                CondExpr::Check(Check::Assigned {
                    user: ParamRef::param("user"),
                    role: ParamRef::Int(1),
                }),
            )
            .then(vec![ActionSpec::AssignUser {
                user: ParamRef::param("user"),
                role: ParamRef::Int(2),
            }]),
        );
        // Cross-user: consults a role's activation aggregate.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new(
                "aggregate",
                a,
                CondExpr::Check(Check::RoleActiveAnywhere(ParamRef::Int(1))),
            )
            .then(vec![ActionSpec::Alert("busy".into())]),
        );
        let report = compute(&build_rule_graph(&d, &pool), &pool, &mut Vec::new());
        assert_eq!(
            report.cross_user_footprints(),
            vec!["aggregate".to_string()]
        );
    }

    #[test]
    fn unknown_custom_is_opaque_and_warns_once_per_site() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new(
                "mystic",
                a,
                CondExpr::Check(Check::Custom {
                    name: "mystery".into(),
                    args: vec![],
                }),
            )
            .then(vec![ActionSpec::Custom {
                name: "mystery".into(),
                args: vec![],
            }]),
        );
        let mut diags = Vec::new();
        let report = compute(&build_rule_graph(&d, &pool), &pool, &mut diags);
        assert_eq!(diags.len(), 2, "one per site (read and write)");
        assert_eq!(diags[0], diags[1], "identical — the report dedups them");
        assert_eq!(diags[0].code, DiagCode::OpaqueFootprint);
        assert!(report.effect_of("mystic").unwrap().effective.opaque);
        assert_eq!(report.cross_user_footprints(), vec!["mystic".to_string()]);

        let known = check_footprint(&Check::Custom {
            name: "denials_at_least".into(),
            args: vec![ParamRef::Int(3), ParamRef::Int(60)],
        });
        assert!(!known.opaque);
        assert_eq!(known.reads, vec![Region::DenialWindow]);
    }
}
