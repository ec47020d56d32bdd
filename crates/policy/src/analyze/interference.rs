//! Rule interference and commutativity certificates.
//!
//! Built on the per-rule effective footprints of [`super::footprint`]:
//! two rules *interfere* when one's effective writes overlap the other's
//! effective reads or (non-commuting) writes — reordering them could
//! change the outcome. The connected components of the interference graph
//! are **commutativity classes**: rules in different classes touch
//! disjoint (or read-only-shared) state and may be dispatched in any
//! order. Two certificates are derived from the footprints:
//!
//! * per *event*, [`EffectReport::independent_events`]: every rule the
//!   event triggers is unable to toggle rule enablement, even
//!   transitively. Analyzer output only — the executor reads enablement
//!   live before every rule and needs no certificate for it;
//! * shard placement: [`EffectReport::cross_user_footprints`] lists the
//!   rules whose state genuinely spans users and therefore cannot be
//!   confined to a per-user shard.
//!
//! Everything here is a sound over-approximation: a reported interference
//! may be cut by runtime conditions, but two rules reported independent
//! really commute on every schedule — the model checker in `crates/sim`
//! certifies the underlying footprints against observed executions.

use super::footprint::{direct_footprints, effective_footprints};
use super::termination::RuleGraph;
use super::{DiagCode, Diagnostic, Severity};
use sentinel::{Footprint, Region, RulePool, Target};
use serde::{Deserialize, Serialize};
use snoop::{Detector, EventId};
use std::collections::BTreeMap;

/// The declared effect of one rule: what it may touch on its own and
/// through every synchronous cascade it can start.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleEffect {
    /// Rule name.
    pub rule: String,
    /// Footprint of the rule's own condition and actions.
    pub direct: Footprint,
    /// Direct footprint closed over synchronous trigger edges.
    pub effective: Footprint,
}

/// The effect-analysis half of an analysis report: per-rule footprints,
/// the interference structure they induce, and the independence
/// certificates derived from it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffectReport {
    /// One entry per live rule, sorted by rule name.
    pub effects: Vec<RuleEffect>,
    /// Commutativity classes: connected components of the interference
    /// graph over effective footprints. Each class is sorted; classes are
    /// sorted by first member. Rules in different classes commute.
    pub classes: Vec<Vec<String>>,
    /// Number of interfering rule pairs (edges of the interference
    /// graph; the graph itself is re-derivable from `effects`).
    pub interference_edges: usize,
    /// Labels of the events whose triggered rules are certified
    /// independence-safe: none of them — enabled or not, since a cascade
    /// could re-enable them — can reach a rule-toggle write (or an opaque
    /// effect) even transitively, so the set of rules such an event runs
    /// is fixed before its first rule does. Sorted.
    pub independent_events: Vec<String>,
}

impl EffectReport {
    /// Look up one rule's declared effect.
    pub fn effect_of(&self, rule: &str) -> Option<&RuleEffect> {
        self.effects
            .binary_search_by(|e| e.rule.as_str().cmp(rule))
            .ok()
            .map(|i| &self.effects[i])
    }

    /// Do two rules interfere (on their effective footprints)? Unknown
    /// rules conservatively interfere.
    pub fn interferes(&self, a: &str, b: &str) -> bool {
        match (self.effect_of(a), self.effect_of(b)) {
            (Some(x), Some(y)) => x.effective.interferes(&y.effective),
            _ => true,
        }
    }

    /// The rules whose effective footprint genuinely spans users — the
    /// placement input for a sharded coordinator (ROADMAP item 2). A rule
    /// stays shardable per-user when everything it touches is keyed by a
    /// single user/session (sessions belong to one user) or is a *read*
    /// of global configuration (role status, SoD sets, temporal windows,
    /// context — replicable to every shard). It spans users when it
    /// consults or maintains a cross-user aggregate (role activation
    /// counters, the denial history), writes global configuration or rule
    /// toggles, touches a per-user family with an `Any` target, or is
    /// opaque. Denial-history *writes* are commutative appends (mergeable
    /// asynchronously) and timer writes are event-plumbing the
    /// coordinator routes anyway; neither forces cross-user placement.
    pub fn cross_user_footprints(&self) -> Vec<String> {
        self.effects
            .iter()
            .filter(|e| spans_users(&e.effective))
            .map(|e| e.rule.clone())
            .collect()
    }

    /// One-line summary, e.g.
    /// `23 rules in 4 commutativity classes, 87 interfering pairs, 12 independent events`.
    pub fn summary(&self) -> String {
        format!(
            "{} rules in {} commutativity classes, {} interfering pairs, {} independent events",
            self.effects.len(),
            self.classes.len(),
            self.interference_edges,
            self.independent_events.len()
        )
    }
}

/// Can this effective footprint not reach a rule-enablement write?
fn toggle_free(fp: &Footprint) -> bool {
    !fp.opaque && !fp.writes.contains(&Region::RuleToggles)
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

/// Compute the effect report for a pool, appending an
/// [`DiagCode::OpaqueFootprint`] warning for every custom check/action
/// the effect table does not know (each site flagged where it appears —
/// the report-level dedup collapses repeats).
pub(crate) fn compute(
    g: &RuleGraph,
    detector: &Detector,
    pool: &RulePool,
    diagnostics: &mut Vec<Diagnostic>,
) -> EffectReport {
    let direct = direct_footprints(pool, &g.names);
    let effective = effective_footprints(g, &direct);

    for (i, name) in g.names.iter().enumerate() {
        if !direct[i].opaque {
            continue;
        }
        // Host regions appear once per lens (condition reads, action
        // writes) — a custom used in both produces two identical
        // diagnostics here, deduplicated by the report.
        for r in direct[i].reads.iter().chain(direct[i].writes.iter()) {
            if let Region::Host(n) = r {
                diagnostics.push(Diagnostic {
                    severity: Severity::Warning,
                    code: DiagCode::OpaqueFootprint,
                    message: format!(
                        "rule '{name}' has an opaque effect footprint: custom '{n}' is not in the effect table"
                    ),
                    rules: vec![name.clone()],
                    roles: vec![],
                    events: vec![],
                    hint: "register the custom in sentinel::effect so its regions are known; \
                           opaque rules interfere with everything and void independence certificates"
                        .into(),
                });
            }
        }
    }

    // Union-find over interfering pairs; the pair scan is O(n²) footprint
    // comparisons but allocates nothing per pair.
    let n = g.names.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut interference_edges = 0;
    for i in 0..n {
        for j in i + 1..n {
            if effective[i].interferes(&effective[j]) {
                interference_edges += 1;
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(g.names[i].clone());
    }
    let mut classes: Vec<Vec<String>> = groups.into_values().collect();
    // Members are pushed in `names` order (sorted); sort classes by their
    // first member for a stable report.
    classes.sort();

    let mut independent_events: Vec<String> = Vec::new();
    {
        let mut by_event: BTreeMap<EventId, bool> = BTreeMap::new();
        for (_, rule) in pool.iter() {
            let i = g
                .names
                .binary_search_by(|n| n.as_str().cmp(&rule.name))
                .expect("graph names cover the pool");
            *by_event.entry(rule.event).or_insert(true) &= toggle_free(&effective[i]);
        }
        for (event, ok) in by_event {
            if ok {
                independent_events.push(detector.label(event).to_string());
            }
        }
        independent_events.sort();
        independent_events.dedup();
    }

    let effects = g
        .names
        .iter()
        .zip(direct)
        .zip(effective)
        .map(|((rule, direct), effective)| RuleEffect {
            rule: rule.clone(),
            direct,
            effective,
        })
        .collect();
    EffectReport {
        effects,
        classes,
        interference_edges,
        independent_events,
    }
}

/// Is an interfering pair a (non-commuting) write-write conflict, as
/// opposed to read-write only? Opaque counts as write-write.
fn write_write(a: &Footprint, b: &Footprint) -> bool {
    if a.opaque || b.opaque {
        return true;
    }
    a.writes.iter().any(|w| {
        b.writes
            .iter()
            .any(|r| w.overlaps(r) && !w.commutes_on_write())
    })
}

/// Render the interference graph in Graphviz DOT: one node per rule,
/// filled by commutativity class (a palette cycles, so distinct adjacent
/// classes may share a color on huge pools); solid red edges are
/// write-write conflicts, dashed orange edges read-write only. Node
/// tooltips carry the effective footprint. Edges are re-derived from the
/// stored footprints, so the export needs no edge list in the report.
pub fn effect_dot(report: &EffectReport) -> String {
    const PALETTE: [&str; 8] = [
        "lightblue",
        "lightyellow",
        "lightpink",
        "palegreen",
        "lavender",
        "mistyrose",
        "khaki",
        "lightgray",
    ];
    let mut class_of: BTreeMap<&str, usize> = BTreeMap::new();
    for (c, members) in report.classes.iter().enumerate() {
        for m in members {
            class_of.insert(m, c);
        }
    }
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let regions = |rs: &[Region]| {
        rs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out =
        String::from("digraph effects {\n  rankdir=LR;\n  node [shape=box, style=filled];\n");
    for (i, e) in report.effects.iter().enumerate() {
        let color = class_of
            .get(e.rule.as_str())
            .map_or("white", |&c| PALETTE[c % PALETTE.len()]);
        let mut tip = format!(
            "reads: {}; writes: {}",
            regions(&e.effective.reads),
            regions(&e.effective.writes)
        );
        if e.effective.opaque {
            tip.push_str(" (opaque)");
        }
        out.push_str(&format!(
            "  n{i} [label=\"{}\", fillcolor=\"{color}\", tooltip=\"{}\"];\n",
            esc(&e.rule),
            esc(&tip)
        ));
    }
    for i in 0..report.effects.len() {
        for j in i + 1..report.effects.len() {
            let (a, b) = (&report.effects[i].effective, &report.effects[j].effective);
            if !a.interferes(b) {
                continue;
            }
            if write_write(a, b) {
                out.push_str(&format!("  n{i} -> n{j} [dir=none, color=red];\n"));
            } else {
                out.push_str(&format!(
                    "  n{i} -> n{j} [dir=none, color=orange, style=dashed];\n"
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::termination::build_rule_graph;
    use super::*;
    use sentinel::{attach_rule, ActionSpec, Check, CondExpr, ParamRef, Rule};
    use snoop::Ts;

    fn assign_rule(name: &str, event: EventId, user: i64) -> Rule {
        Rule::new(name, event, CondExpr::True).then(vec![ActionSpec::AssignUser {
            user: ParamRef::Int(user),
            role: ParamRef::Int(1),
        }])
    }

    #[test]
    fn disjoint_rules_split_into_classes() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let mut pool = RulePool::new();
        attach_rule(&mut d, &mut pool, assign_rule("r1", a, 1));
        attach_rule(&mut d, &mut pool, assign_rule("r2", b, 2));
        let mut diags = Vec::new();
        let report = compute(&build_rule_graph(&d, &pool), &d, &pool, &mut diags);
        assert!(diags.is_empty());
        assert_eq!(report.interference_edges, 0);
        assert_eq!(
            report.classes,
            vec![vec!["r1".to_string()], vec!["r2".to_string()]],
            "distinct users, denial appends commute → rules commute"
        );
        // A denial-window *reader* joins both classes into one.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new(
                "watch",
                a,
                CondExpr::Check(Check::Custom {
                    name: "denials_at_least".into(),
                    args: vec![ParamRef::Int(3), ParamRef::Int(60)],
                }),
            )
            .then(vec![ActionSpec::Alert("m".into())]),
        );
        let report = compute(&build_rule_graph(&d, &pool), &d, &pool, &mut Vec::new());
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.interference_edges, 2);
        assert!(report.interferes("r1", "watch"));
        assert!(!report.interferes("r1", "r2"));
    }

    #[test]
    fn toggle_writes_disqualify_events_transitively() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let c = d.primitive("c");
        let mut pool = RulePool::new();
        attach_rule(&mut d, &mut pool, assign_rule("plain", a, 1));
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("toggler", b, CondExpr::True)
                .then(vec![ActionSpec::DisableRule("plain".into())]),
        );
        // `chain` only raises b — its own footprint has no toggle write,
        // but its effective one does.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("chain", c, CondExpr::True).then(vec![ActionSpec::RaiseEvent {
                event: "b".into(),
                params: vec![],
            }]),
        );
        let report = compute(&build_rule_graph(&d, &pool), &d, &pool, &mut Vec::new());
        assert_eq!(
            report.independent_events,
            vec!["a".to_string()],
            "not b, and not c: toggle reach is transitive"
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
        let report = compute(&build_rule_graph(&d, &pool), &d, &pool, &mut Vec::new());
        assert_eq!(
            report.cross_user_footprints(),
            vec!["aggregate".to_string()]
        );
    }

    #[test]
    fn opaque_custom_warns_once_per_site_and_dot_renders() {
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
        let report = compute(&build_rule_graph(&d, &pool), &d, &pool, &mut diags);
        assert_eq!(diags.len(), 2, "one per site (read and write lens)");
        assert_eq!(diags[0], diags[1], "identical — the report dedups them");
        assert_eq!(diags[0].code, DiagCode::OpaqueFootprint);
        assert!(report.effect_of("mystic").unwrap().direct.opaque);
        assert!(report.independent_events.is_empty());
        let dot = effect_dot(&report);
        assert!(dot.starts_with("digraph effects {"));
        assert!(dot.contains("mystic"));
        assert!(dot.contains("(opaque)"));
        assert!(dot.ends_with("}\n"));
    }
}
