//! Per-rule effect footprints: which state regions each rule can read or
//! write, directly and through its synchronous cascades.
//!
//! The *direct* footprint of a rule is a path-insensitive walk of its
//! When/Then/Else trees through the shared region mapping in
//! [`sentinel::effect`] (literals stay concrete ids, occurrence
//! parameters widen to one-unknown-entity, unknown custom checks/actions
//! widen to ⊤). The *effective* footprint closes the direct one over the
//! synchronous edges of the rule-dependency graph
//! ([`super::termination::build_rule_graph`]): if rule A can raise an
//! event that triggers rule B within the same dispatch, everything B may
//! touch is attributed to A as well. Interference and the executor's
//! independence certificates are judged on effective footprints — a rule
//! is accountable for its whole cascade.

use super::termination::RuleGraph;
use sentinel::{action_footprint, cond_footprint, static_target, Footprint, RulePool};

/// Direct footprint of every rule, index-aligned with `names` (the
/// sorted rule-name order of [`RuleGraph`]).
pub(crate) fn direct_footprints(pool: &RulePool, names: &[String]) -> Vec<Footprint> {
    let mut out = vec![Footprint::empty(); names.len()];
    for (_, rule) in pool.iter() {
        let i = names
            .binary_search_by(|n| n.as_str().cmp(&rule.name))
            .expect("graph names cover the pool");
        let mut fp = cond_footprint(&rule.when, &mut static_target);
        for action in rule.then.iter().chain(&rule.otherwise) {
            fp.absorb(action_footprint(action, static_target));
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
pub(crate) fn effective_footprints(g: &RuleGraph, direct: &[Footprint]) -> Vec<Footprint> {
    let n = direct.len();
    let mut out = Vec::with_capacity(n);
    for start in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        let mut fp = Footprint::empty();
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

#[cfg(test)]
mod tests {
    use super::super::termination::build_rule_graph;
    use super::*;
    use sentinel::{attach_rule, ActionSpec, CondExpr, ParamRef, Region, Rule, Target};
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
}
