//! Abstract interpretation of rule conditions.
//!
//! Conditions are evaluated over a three-valued domain (true / false /
//! unknown): state-dependent checks are unknown, constants and
//! event-structure facts (`SourceIs` against the triggering event's
//! constituents) are decided, and contradictory conjunctions (`c ∧ ¬c`)
//! are folded to false. A When-clause that is *false* makes the Then
//! branch dead; one that is *true* makes a non-empty Else branch dead.
//! Same-event shadowing is detected syntactically: a strictly
//! higher-priority denying rule whose conjunction is a subset of a lower
//! rule's conjunction fires (and short-circuits the dispatch) whenever the
//! lower rule could.

use super::{DiagCode, Diagnostic, Severity};
use sentinel::{ActionSpec, Check, CondExpr, Rule, RulePool};
use snoop::{Detector, EventId};
use std::collections::HashSet;

/// Three-valued verdict of the abstract evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Abs {
    True,
    False,
    Unknown,
}

fn not(a: Abs) -> Abs {
    match a {
        Abs::True => Abs::False,
        Abs::False => Abs::True,
        Abs::Unknown => Abs::Unknown,
    }
}

/// Facts about the triggering event the evaluation may use.
pub(crate) struct EventFacts {
    /// Primitive constituents of the triggering event.
    constituents: Vec<EventId>,
    /// The trigger is itself primitive (its occurrences have exactly one
    /// source), so `SourceIs` is fully decided.
    primitive: bool,
}

impl EventFacts {
    pub(crate) fn of(detector: &Detector, event: EventId) -> EventFacts {
        EventFacts {
            constituents: detector.constituent_primitives(event),
            primitive: detector.is_primitive(event),
        }
    }
}

/// Evaluate one atomic check.
fn eval_check(check: &Check, detector: &Detector, facts: &EventFacts) -> Abs {
    match check {
        Check::SourceIs(name) => match detector.lookup(name) {
            // Unregistered name: a runtime eval error (the coverage pass
            // reports it); don't additionally call the branch dead.
            None => Abs::Unknown,
            Some(id) if !facts.constituents.contains(&id) => Abs::False,
            Some(_) if facts.primitive => Abs::True,
            Some(_) => Abs::Unknown,
        },
        // Everything else depends on authorization state or parameters.
        _ => Abs::Unknown,
    }
}

/// Evaluate a condition; `literals` (rendered check strings seen positively
/// / negatively along the current conjunction) powers contradiction
/// detection across `All` branches.
pub(crate) fn eval(cond: &CondExpr, detector: &Detector, facts: &EventFacts) -> Abs {
    match cond {
        CondExpr::True => Abs::True,
        CondExpr::False => Abs::False,
        CondExpr::Check(c) => eval_check(c, detector, facts),
        CondExpr::All(cs) => {
            let mut pos: HashSet<String> = HashSet::new();
            let mut neg: HashSet<String> = HashSet::new();
            let mut result = Abs::True;
            for c in cs {
                match c {
                    CondExpr::Check(chk) => {
                        let key = chk.to_string();
                        if neg.contains(&key) {
                            return Abs::False;
                        }
                        pos.insert(key);
                    }
                    CondExpr::Not(inner) => {
                        if let CondExpr::Check(chk) = inner.as_ref() {
                            let key = chk.to_string();
                            if pos.contains(&key) {
                                return Abs::False;
                            }
                            neg.insert(key);
                        }
                    }
                    _ => {}
                }
                match eval(c, detector, facts) {
                    Abs::False => return Abs::False,
                    Abs::Unknown => result = Abs::Unknown,
                    Abs::True => {}
                }
            }
            result
        }
        CondExpr::Any(cs) => {
            let mut result = Abs::False;
            for c in cs {
                match eval(c, detector, facts) {
                    Abs::True => return Abs::True,
                    Abs::Unknown => result = Abs::Unknown,
                    Abs::False => {}
                }
            }
            result
        }
        CondExpr::Not(c) => not(eval(c, detector, facts)),
        CondExpr::If {
            guard,
            then,
            otherwise,
        } => match eval(guard, detector, facts) {
            Abs::True => eval(then, detector, facts),
            Abs::False => eval(otherwise, detector, facts),
            Abs::Unknown => {
                let t = eval(then, detector, facts);
                let o = eval(otherwise, detector, facts);
                if t == o {
                    t
                } else {
                    Abs::Unknown
                }
            }
        },
    }
}

/// The literal set of a pure conjunction: rendered checks, prefixed with
/// `!` when negated. `True` is the empty conjunction. Returns `None` for
/// conditions that are not plain conjunctions of (possibly negated)
/// atomic checks — those are excluded from subsumption.
fn conjunction_literals(cond: &CondExpr) -> Option<HashSet<String>> {
    fn literal(c: &CondExpr) -> Option<String> {
        match c {
            CondExpr::Check(chk) => Some(chk.to_string()),
            CondExpr::Not(inner) => match inner.as_ref() {
                CondExpr::Check(chk) => Some(format!("!{chk}")),
                _ => None,
            },
            _ => None,
        }
    }
    match cond {
        CondExpr::True => Some(HashSet::new()),
        CondExpr::All(cs) => cs.iter().map(literal).collect(),
        _ => literal(cond).map(|l| HashSet::from([l])),
    }
}

/// Does the rule deny (short-circuiting lower-priority rules) when its
/// condition holds?
fn denies_on_true(rule: &Rule) -> bool {
    rule.then
        .iter()
        .any(|a| matches!(a, ActionSpec::RaiseError(_)))
}

/// Run the condition analysis over every live rule.
pub(crate) fn check(detector: &Detector, pool: &RulePool, diagnostics: &mut Vec<Diagnostic>) {
    for (_, rule) in pool.iter() {
        let facts = EventFacts::of(detector, rule.event);
        match eval(&rule.when, detector, &facts) {
            Abs::False => {
                let (message, hint) = if rule.otherwise.is_empty() {
                    (
                        format!(
                            "rule `{}` is dead: its When-clause can never hold and it has \
                             no Else actions",
                            rule.name
                        ),
                        "remove the rule or fix the contradictory condition".to_string(),
                    )
                } else {
                    (
                        format!(
                            "rule `{}` always takes its Else branch: the When-clause can \
                             never hold",
                            rule.name
                        ),
                        "the Then actions are unreachable; fix the condition or move the \
                         Else actions into Then"
                            .to_string(),
                    )
                };
                diagnostics.push(Diagnostic {
                    severity: Severity::Warning,
                    code: DiagCode::UnsatisfiableWhen,
                    message,
                    rules: vec![rule.name.to_string()],
                    roles: vec![],
                    events: vec![],
                    hint,
                });
            }
            Abs::True if !rule.otherwise.is_empty() => {
                diagnostics.push(Diagnostic {
                    severity: Severity::Warning,
                    code: DiagCode::TautologicalWhen,
                    message: format!(
                        "rule `{}` has a tautological When-clause: its Else actions are dead",
                        rule.name
                    ),
                    rules: vec![rule.name.to_string()],
                    roles: vec![],
                    events: vec![],
                    hint: "remove the Else actions or strengthen the condition".into(),
                });
            }
            _ => {}
        }
    }

    // Same-event shadowing, per triggering event in priority order.
    let mut events: Vec<EventId> = pool.iter().map(|(_, r)| r.event).collect();
    events.sort_unstable();
    events.dedup();
    for event in events {
        let ids = pool.triggered_by(event);
        for (hi, &high_id) in ids.iter().enumerate() {
            let high = pool.get(high_id).expect("indexed rule exists");
            if !high.enabled || !denies_on_true(high) {
                continue;
            }
            let Some(high_lits) = conjunction_literals(&high.when) else {
                continue;
            };
            for &low_id in &ids[hi + 1..] {
                let low = pool.get(low_id).expect("indexed rule exists");
                if !low.enabled || low.priority >= high.priority {
                    continue;
                }
                let Some(low_lits) = conjunction_literals(&low.when) else {
                    continue;
                };
                if high_lits.is_subset(&low_lits) {
                    diagnostics.push(Diagnostic {
                        severity: Severity::Warning,
                        code: DiagCode::ShadowedRule,
                        message: format!(
                            "rule `{}` is shadowed by higher-priority rule `{}`: whenever \
                             `{}` could fire, `{}` denies first and stops the dispatch",
                            low.name, high.name, low.name, high.name
                        ),
                        rules: vec![low.name.to_string(), high.name.to_string()],
                        roles: vec![],
                        events: vec![],
                        hint: "lower the shadowing rule's priority, or make its condition \
                               strictly stronger than the shadowed rule's"
                            .into(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel::{attach_rule, ParamRef, Rule};
    use snoop::Ts;

    fn exists() -> CondExpr {
        CondExpr::check(Check::UserExists(ParamRef::param("user")))
    }

    #[test]
    fn contradiction_is_false() {
        let d = Detector::new(Ts::ZERO);
        let facts = EventFacts {
            constituents: vec![],
            primitive: true,
        };
        let cond = CondExpr::All(vec![exists(), CondExpr::Not(Box::new(exists()))]);
        assert_eq!(eval(&cond, &d, &facts), Abs::False);
        let fine = CondExpr::All(vec![exists()]);
        assert_eq!(eval(&fine, &d, &facts), Abs::Unknown);
        assert_eq!(eval(&CondExpr::True, &d, &facts), Abs::True);
    }

    #[test]
    fn source_is_decided_by_constituents() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        d.primitive("b");
        let facts = EventFacts::of(&d, a);
        let same = CondExpr::check(Check::SourceIs("a".into()));
        let other = CondExpr::check(Check::SourceIs("b".into()));
        let unknown = CondExpr::check(Check::SourceIs("nope".into()));
        assert_eq!(eval(&same, &d, &facts), Abs::True);
        assert_eq!(eval(&other, &d, &facts), Abs::False);
        assert_eq!(eval(&unknown, &d, &facts), Abs::Unknown);
    }

    #[test]
    fn dead_and_tautological_rules_flagged() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new(
                "dead",
                a,
                CondExpr::All(vec![exists(), CondExpr::Not(Box::new(exists()))]),
            ),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("taut", a, CondExpr::True).otherwise(vec![ActionSpec::Alert("never".into())]),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("fine", a, CondExpr::True).then(vec![ActionSpec::Allow]),
        );
        let mut diags = Vec::new();
        check(&d, &pool, &mut diags);
        assert!(diags
            .iter()
            .any(|x| x.code == DiagCode::UnsatisfiableWhen && x.rules == vec!["dead"]));
        assert!(diags
            .iter()
            .any(|x| x.code == DiagCode::TautologicalWhen && x.rules == vec!["taut"]));
        assert_eq!(diags.len(), 2, "`fine` is not flagged: {diags:?}");
    }

    #[test]
    fn higher_priority_denier_shadows_weaker_rule() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("deny_all", a, CondExpr::True)
                .then(vec![ActionSpec::RaiseError("no".into())])
                .priority(5),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("guarded", a, exists()).then(vec![ActionSpec::Allow]),
        );
        let mut diags = Vec::new();
        check(&d, &pool, &mut diags);
        let shadow: Vec<_> = diags
            .iter()
            .filter(|x| x.code == DiagCode::ShadowedRule)
            .collect();
        assert_eq!(shadow.len(), 1);
        assert_eq!(shadow[0].rules, vec!["guarded", "deny_all"]);
    }

    #[test]
    fn non_denying_high_priority_rule_does_not_shadow() {
        let mut d = Detector::new(Ts::ZERO);
        let a = d.primitive("a");
        let mut pool = RulePool::new();
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("logger", a, CondExpr::True)
                .then(vec![ActionSpec::Alert("seen".into())])
                .priority(5),
        );
        attach_rule(
            &mut d,
            &mut pool,
            Rule::new("worker", a, exists()).then(vec![ActionSpec::Allow]),
        );
        let mut diags = Vec::new();
        check(&d, &pool, &mut diags);
        assert!(diags.iter().all(|x| x.code != DiagCode::ShadowedRule));
    }
}
