//! Cascade-termination proof over the rule-dependency graph.
//!
//! An OWTE rule depends on another when an event its Then/Else actions
//! raise can — directly or through composite-operator nodes of the Snoop
//! event graph — trigger the other rule. If that dependency relation is
//! acyclic when restricted to *synchronous* event-graph edges, every
//! dispatch terminates: each cascade step consumes one edge of a DAG.
//! Cycles that are only closed through *delayed* edges (PLUS / PERIODIC
//! timers) cannot recurse within a dispatch — they are reported as timer
//! loops (warnings), not termination failures.

use super::{Diagnostic, Severity, Termination};
use sentinel::{ActionSpec, RulePool};
use snoop::Detector;
use std::collections::HashMap;

/// The rule-dependency graph: one node per live rule, edges labelled with
/// whether every event-graph path behind them crosses a delayed operator.
pub(crate) struct RuleGraph {
    /// Rule names, index-aligned with `edges`.
    pub names: Vec<String>,
    /// Adjacency: `edges[i]` holds `(j, sync)` when rule `i` raises an
    /// event that can trigger rule `j`; `sync` is true when the trigger
    /// can happen within the same dispatch.
    pub edges: Vec<Vec<(usize, bool)>>,
}

/// Build the dependency graph. Disabled rules are included: runtime
/// actions can re-enable them, so a proof that ignored them would not
/// survive an `EnableRule` / `EnableRuleClass` action.
pub(crate) fn build_rule_graph(detector: &Detector, pool: &RulePool) -> RuleGraph {
    let mut names: Vec<String> = pool.iter().map(|(_, r)| r.name.to_string()).collect();
    names.sort_unstable();
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    let mut edges: Vec<Vec<(usize, bool)>> = vec![Vec::new(); names.len()];
    for (_, rule) in pool.iter() {
        let from = index[&*rule.name];
        for action in rule.then.iter().chain(&rule.otherwise) {
            let ActionSpec::RaiseEvent { event, .. } = action else {
                continue;
            };
            let Some(eid) = detector.lookup(event) else {
                // Unregistered: reported by the coverage pass; no edge.
                continue;
            };
            let sync_reach = detector.ancestor_closure(eid, true);
            for anc in detector.ancestor_closure(eid, false) {
                let sync = sync_reach.contains(&anc);
                for &rid in pool.triggered_by(anc) {
                    let target = pool.get(rid).expect("indexed rule exists");
                    let to = index[&*target.name];
                    let edge = &mut edges[from];
                    // Keep the strongest label per (from, to) pair.
                    match edge.iter_mut().find(|(t, _)| *t == to) {
                        Some((_, s)) => *s = *s || sync,
                        None => edge.push((to, sync)),
                    }
                }
            }
        }
    }
    for e in &mut edges {
        e.sort_unstable();
    }
    RuleGraph { names, edges }
}

/// Iterative Tarjan SCC. Returns the components in reverse topological
/// order; each is a sorted list of node indices.
fn sccs(edges: &[Vec<(usize, bool)>], sync_only: bool) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out = Vec::new();

    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(frame) = frames.last_mut() {
            let v = frame.0;
            let ci = frame.1;
            frame.1 += 1;
            if ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let succ = edges[v]
                .iter()
                .filter(|(_, sync)| !sync_only || *sync)
                .map(|(t, _)| *t)
                .nth(ci);
            match succ {
                Some(w) if index[w] == usize::MAX => frames.push((w, 0)),
                Some(w) => {
                    if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
    }
    out
}

/// Does node `v` have an edge to itself (respecting `sync_only`)?
fn self_loop(edges: &[Vec<(usize, bool)>], v: usize, sync_only: bool) -> bool {
    edges[v]
        .iter()
        .any(|(t, sync)| *t == v && (!sync_only || *sync))
}

/// A concrete cycle `start → … → start` inside `members`, as a rule-name
/// path, found by BFS (shortest cycle through `start`). `start` must lie
/// on a cycle of the restricted subgraph; if it somehow does not, the
/// member names are returned as a degenerate path.
fn cycle_path(g: &RuleGraph, members: &[usize], sync_only: bool, start: usize) -> Vec<String> {
    use std::collections::VecDeque;
    let in_set = |x: usize| members.binary_search(&x).is_ok();
    let allowed = |t: usize, sync: bool| in_set(t) && (!sync_only || sync);
    let close = |rev: Vec<usize>| {
        let mut names = vec![g.names[start].clone()];
        names.extend(rev.into_iter().rev().map(|i| g.names[i].clone()));
        names.push(g.names[start].clone());
        names
    };

    let mut parent: Vec<Option<usize>> = vec![None; g.edges.len()];
    let mut queue = VecDeque::new();
    for &(t, sync) in &g.edges[start] {
        if !allowed(t, sync) {
            continue;
        }
        if t == start {
            return close(Vec::new());
        }
        if parent[t].is_none() {
            parent[t] = Some(start);
            queue.push_back(t);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &(t, sync) in &g.edges[v] {
            if !allowed(t, sync) {
                continue;
            }
            if t == start {
                let mut rev = Vec::new();
                let mut cur = v;
                loop {
                    rev.push(cur);
                    match parent[cur] {
                        Some(p) if p != start => cur = p,
                        _ => break,
                    }
                }
                return close(rev);
            }
            if parent[t].is_none() {
                parent[t] = Some(v);
                queue.push_back(t);
            }
        }
    }
    let mut names: Vec<String> = members.iter().map(|&i| g.names[i].clone()).collect();
    names.push(g.names[start].clone());
    names
}

/// Longest chain of synchronous rule-to-rule triggers, counted in edges:
/// a rule running at cascade depth `d` can only have been reached through
/// `d` synchronous raises, so this bounds the executor's observable
/// `max_depth` for any run. `Some(0)` means no rule can synchronously
/// trigger another; `None` means a synchronous cycle exists and no finite
/// bound holds.
pub(crate) fn max_sync_depth(g: &RuleGraph) -> Option<usize> {
    let n = g.edges.len();
    let mut indeg = vec![0usize; n];
    for outs in &g.edges {
        for &(t, sync) in outs {
            if sync {
                indeg[t] += 1;
            }
        }
    }
    // Kahn's algorithm over the sync-only subgraph: longest-path DP while
    // peeling indegree-zero nodes. A self-loop or larger sync cycle keeps
    // its nodes' indegrees positive, so `seen != n` detects cycles.
    let mut depth = vec![0usize; n];
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut seen = 0usize;
    while let Some(v) = queue.pop() {
        seen += 1;
        for &(t, sync) in &g.edges[v] {
            if !sync {
                continue;
            }
            depth[t] = depth[t].max(depth[v] + 1);
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if seen != n {
        return None;
    }
    Some(depth.into_iter().max().unwrap_or(0))
}

/// Run the termination analysis over the pool's rule graph: compute the
/// verdict and append loop diagnostics.
pub(crate) fn check(g: &RuleGraph, diagnostics: &mut Vec<Diagnostic>) -> Termination {
    let mut cycles: Vec<Vec<String>> = Vec::new();

    // A node lies on a synchronous cycle when its sync-only SCC is
    // non-trivial or it raises its own triggering event synchronously.
    let mut on_sync_cycle = vec![false; g.edges.len()];
    for sc in sccs(&g.edges, true) {
        if sc.len() > 1 {
            for &v in &sc {
                on_sync_cycle[v] = true;
            }
        }
    }
    for (v, on) in on_sync_cycle.iter_mut().enumerate() {
        *on |= self_loop(&g.edges, v, true);
    }

    for comp in sccs(&g.edges, false) {
        let cyclic = comp.len() > 1 || self_loop(&g.edges, comp[0], false);
        if !cyclic {
            continue;
        }
        let sync_start = comp.iter().copied().find(|&v| on_sync_cycle[v]);
        let names: Vec<String> = comp.iter().map(|&i| g.names[i].clone()).collect();
        if let Some(start) = sync_start {
            let path = cycle_path(g, &comp, true, start);
            diagnostics.push(Diagnostic {
                severity: Severity::Error,
                code: super::DiagCode::RuleLoop,
                message: format!(
                    "rules can cascade forever within one dispatch: {}",
                    path.join(" -> ")
                ),
                rules: names,
                roles: vec![],
                events: vec![],
                hint: "break the cycle: make one rule raise its event through a PLUS delay, \
                       or guard it with a condition that the cascade falsifies"
                    .into(),
            });
            cycles.push(path);
        } else {
            let path = cycle_path(g, &comp, false, comp[0]);
            diagnostics.push(Diagnostic {
                severity: Severity::Warning,
                code: super::DiagCode::TimerLoop,
                message: format!(
                    "rules form a loop through delayed (timer) events: {}",
                    path.join(" -> ")
                ),
                rules: names,
                roles: vec![],
                events: vec![],
                hint: "each dispatch terminates, but the rules re-trigger each other \
                       indefinitely over time; verify the conditions eventually falsify"
                    .into(),
            });
        }
    }

    if cycles.is_empty() {
        Termination::ProvedTerminating
    } else {
        Termination::PotentialLoop { cycles }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel::{attach_rule, CondExpr, Rule};
    use snoop::{Dur, EventExpr, Ts};

    fn raise(event: &str) -> ActionSpec {
        ActionSpec::RaiseEvent {
            event: event.into(),
            params: vec![],
        }
    }

    #[test]
    fn acyclic_pool_proved_terminating() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("r1", a, CondExpr::True).then(vec![raise("b")]),
        );
        attach_rule(&mut d, &mut pool, Rule::new("r2", b, CondExpr::True));
        let mut diags = Vec::new();
        assert_eq!(
            check(&build_rule_graph(&d, &pool), &mut diags),
            Termination::ProvedTerminating
        );
        assert!(diags.is_empty());
        assert_eq!(
            max_sync_depth(&build_rule_graph(&d, &pool)),
            Some(1),
            "r1 -> r2 is one synchronous trigger edge"
        );
    }

    #[test]
    fn max_sync_depth_on_longer_chain_and_cycles() {
        // a chain r1 -> r2 -> r3 (depth 2) plus an unrelated leaf rule.
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let c = d.primitive("c");
        let lone = d.primitive("lone");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("r1", a, CondExpr::True).then(vec![raise("b")]),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("r2", b, CondExpr::True).then(vec![raise("c")]),
        );
        attach_rule(&mut d, &mut pool, Rule::new("r3", c, CondExpr::True));
        attach_rule(&mut d, &mut pool, Rule::new("leaf", lone, CondExpr::True));
        assert_eq!(max_sync_depth(&build_rule_graph(&d, &pool)), Some(2));

        // adding a synchronous self-loop destroys the bound.
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("echo", c, CondExpr::True).then(vec![raise("c")]),
        );
        assert_eq!(max_sync_depth(&build_rule_graph(&d, &pool)), None);
    }

    #[test]
    fn self_raising_rule_is_a_loop() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("echo", a, CondExpr::True).then(vec![raise("a")]),
        );
        let mut diags = Vec::new();
        let verdict = check(&build_rule_graph(&d, &pool), &mut diags);
        assert!(matches!(verdict, Termination::PotentialLoop { .. }));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, super::super::DiagCode::RuleLoop);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("echo -> echo"));
    }

    #[test]
    fn two_rule_cycle_reported_as_path() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let b = d.primitive("b");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("ping", a, CondExpr::True).then(vec![raise("b")]),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("pong", b, CondExpr::True).otherwise(vec![raise("a")]),
        );
        let mut diags = Vec::new();
        let verdict = check(&build_rule_graph(&d, &pool), &mut diags);
        let Termination::PotentialLoop { cycles } = verdict else {
            panic!("expected loop");
        };
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3, "a -> b -> a closes the path");
    }

    #[test]
    fn plus_delayed_cycle_is_only_a_warning() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let plus = d
            .define(&EventExpr::plus(EventExpr::named("a"), Dur::from_secs(5)))
            .unwrap();
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("again", plus, CondExpr::True).then(vec![raise("a")]),
        );
        let _ = a;
        let mut diags = Vec::new();
        assert_eq!(
            check(&build_rule_graph(&d, &pool), &mut diags),
            Termination::ProvedTerminating,
            "delayed cycles do not break per-dispatch termination"
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, super::super::DiagCode::TimerLoop);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(
            max_sync_depth(&build_rule_graph(&d, &pool)),
            Some(0),
            "a purely delayed cycle never deepens a single dispatch"
        );
    }

    #[test]
    fn composite_operators_carry_dependencies() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let seq = d
            .define(&EventExpr::seq(EventExpr::named("a"), EventExpr::prim("b")))
            .unwrap();
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("through_seq", seq, CondExpr::True).then(vec![raise("a")]),
        );
        let _ = a;
        // through_seq raises `a`, `a` feeds SEQ(a,b), SEQ triggers
        // through_seq: a synchronous cycle through a composite node.
        let mut diags = Vec::new();
        assert!(matches!(
            check(&build_rule_graph(&d, &pool), &mut diags),
            Termination::PotentialLoop { .. }
        ));
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
