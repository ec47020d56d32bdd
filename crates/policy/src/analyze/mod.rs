//! `owte-analyze`: static analysis of a generated OWTE rule pool.
//!
//! The generator ([`crate::generate`]) compiles a [`PolicyGraph`] into an
//! event graph plus a pool of On-When-Then-Else rules. Because Then/Else
//! actions can raise further events, a pool is a program — and like any
//! program it can loop, contain dead code, or shadow itself. This module
//! proves properties about the pool *before* it is allowed to run:
//!
//! * **Cascade termination** ([`Termination`]): a rule-dependency graph is
//!   built (rule → event it raises → rules triggered by that event or any
//!   composite it feeds) and checked for strongly connected components.
//!   Cycles through synchronous edges mean a single dispatch can cascade
//!   forever ([`DiagCode::RuleLoop`], verdict
//!   [`Termination::PotentialLoop`]); cycles that only close through
//!   delayed (timer) edges terminate per-dispatch and are reported as
//!   [`DiagCode::TimerLoop`] warnings.
//! * **Condition analysis**: each When-clause is abstractly evaluated; a
//!   clause that can never hold makes the rule dead
//!   ([`DiagCode::UnsatisfiableWhen`]), one that always holds makes its
//!   Else branch dead ([`DiagCode::TautologicalWhen`]), and a
//!   higher-priority denying rule with a weaker condition shadows rules
//!   below it ([`DiagCode::ShadowedRule`]).
//! * **Coverage and conflicts**: every guarded RBAC operation must keep at
//!   least one enabled rule ([`DiagCode::UncoveredOperation`]), every
//!   referenced event name must resolve
//!   ([`DiagCode::UnregisteredEvent`]), and SoD sets are checked against
//!   the transitive hierarchy closure
//!   ([`DiagCode::SodHierarchyConflict`]).
//! * **Effect footprints** ([`EffectReport`]): each rule's
//!   condition/action trees are abstractly interpreted into read/write
//!   footprints over a partition of the monitor state ([`Region`]),
//!   closed over synchronous cascades. Custom checks/actions missing from
//!   the region table widen to ⊤ and are flagged
//!   ([`DiagCode::OpaqueFootprint`]). The sharding license is what reads
//!   them.
//!
//! Only the termination and coverage passes can find an
//! [`Severity::Error`]; condition and footprint analysis describe the pool
//! and never refuse it. [`verdict`] therefore runs those two passes alone
//! — it is what the verification gate and the compilation license decide
//! on, every time a policy changes — and [`analyze`] is that same verdict
//! plus the report-only passes.
//!
//! The analysis is a sound over-approximation of reachability (it ignores
//! runtime conditions, so a reported loop may be cut by a condition in
//! practice) and an under-approximation of dead code (only decidable
//! condition fragments are flagged). See DESIGN.md for the full soundness
//! discussion.

pub mod closure;
mod conditions;
mod coverage;
mod footprint;
mod termination;

pub use crate::consistency::Severity;
pub use footprint::{EffectReport, Footprint, Region, RuleEffect, Target};

use crate::generate::Instantiated;
use crate::graph::PolicyGraph;
use sentinel::RulePool;
use serde::{Deserialize, Serialize};
use snoop::Detector;
use std::fmt;
use termination::RuleGraph;

/// Machine-readable classification of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DiagCode {
    /// Rules can cascade forever within one dispatch.
    RuleLoop,
    /// Rules form a loop that only closes through delayed (timer) events.
    TimerLoop,
    /// A When-clause that can never hold.
    UnsatisfiableWhen,
    /// A When-clause that always holds, making the Else branch dead.
    TautologicalWhen,
    /// A rule that can never fire because a higher-priority rule denies
    /// first.
    ShadowedRule,
    /// A guarded RBAC operation with no enabled rule.
    UncoveredOperation,
    /// A rule references an event name missing from the detector.
    UnregisteredEvent,
    /// A common senior defeats an SoD set through the transitive
    /// hierarchy.
    SodHierarchyConflict,
    /// A rule uses a custom check/action the region table cannot map to
    /// state regions; its footprint widens to ⊤.
    OpaqueFootprint,
}

impl DiagCode {
    /// Stable kebab-case name, used in rendered diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::RuleLoop => "rule-loop",
            DiagCode::TimerLoop => "timer-loop",
            DiagCode::UnsatisfiableWhen => "unsatisfiable-when",
            DiagCode::TautologicalWhen => "tautological-when",
            DiagCode::ShadowedRule => "shadowed-rule",
            DiagCode::UncoveredOperation => "uncovered-operation",
            DiagCode::UnregisteredEvent => "unregistered-event",
            DiagCode::SodHierarchyConflict => "sod-hierarchy-conflict",
            DiagCode::OpaqueFootprint => "opaque-footprint",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding, anchored to the rules, roles and events it is
/// about so tools can navigate from the diagnostic to the artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// How bad ([`Severity::Error`] findings block a gated generation).
    pub severity: Severity,
    /// Machine-readable classification.
    pub code: DiagCode,
    /// Human-readable description.
    pub message: String,
    /// Names of the rules involved (cycle members, shadow pairs, …).
    pub rules: Vec<String>,
    /// Names of the roles involved.
    pub roles: Vec<String>,
    /// Names of the events involved.
    pub events: Vec<String>,
    /// A suggested fix.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{tag}[{}]: {}", self.code, self.message)?;
        if !self.hint.is_empty() {
            write!(f, "\n    hint: {}", self.hint)?;
        }
        Ok(())
    }
}

/// The cascade-termination verdict for a rule pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// No synchronous rule cycle exists: every dispatch finishes without
    /// hitting the executor's cascade-depth guard, regardless of state.
    ProvedTerminating,
    /// At least one synchronous rule cycle exists; each cycle is a rule
    /// path `[r1, r2, …, r1]`.
    PotentialLoop {
        /// The offending cycles, as rule-name paths closing on their first
        /// element.
        cycles: Vec<Vec<String>>,
    },
}

impl Termination {
    /// Did the proof go through?
    pub fn is_proved(&self) -> bool {
        matches!(self, Termination::ProvedTerminating)
    }
}

/// Everything the analyzer found out about one pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// The cascade-termination verdict.
    pub termination: Termination,
    /// All findings, errors first, in a stable order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of live rules analyzed.
    pub rules: usize,
    /// Number of registered events in the detector.
    pub events: usize,
    /// Proved upper bound on the synchronous cascade depth any dispatch
    /// can reach (in rule-to-rule trigger edges; `Some(0)` = no rule ever
    /// triggers another synchronously). `None` when a synchronous cycle
    /// exists, i.e. exactly when termination is [`Termination::PotentialLoop`]
    /// with a synchronous cycle. The executor's observed `max_depth` must
    /// never exceed this bound; the model checker asserts it.
    #[serde(default)]
    pub max_sync_depth: Option<usize>,
    /// Per-rule effect footprints.
    #[serde(default)]
    pub effects: EffectReport,
}

impl AnalysisReport {
    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        error_count(&self.diagnostics)
    }

    /// Number of `Warning`-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// No findings at all (not even warnings)?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Shorthand for [`Termination::is_proved`].
    pub fn proved_terminating(&self) -> bool {
        self.termination.is_proved()
    }

    /// One-line verdict, e.g.
    /// `PROVED-TERMINATING — 23 rules over 57 events, 0 errors, 0 warnings`.
    pub fn summary(&self) -> String {
        let verdict = match &self.termination {
            Termination::ProvedTerminating => "PROVED-TERMINATING".to_string(),
            Termination::PotentialLoop { cycles } => {
                format!("POTENTIAL-LOOP ({} cycles)", cycles.len())
            }
        };
        format!(
            "{verdict} — {} rules over {} events, {} errors, {} warnings",
            self.rules,
            self.events,
            self.error_count(),
            self.warning_count()
        )
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule-pool analysis: {}", self.summary())?;
        for d in &self.diagnostics {
            writeln!(f, "  {}", d.to_string().replace('\n', "\n  "))?;
        }
        Ok(())
    }
}

/// What the verification gate decides on: the outcome of the passes that
/// can reject a pool. Termination and coverage are the only passes that
/// emit [`Severity::Error`], so a pool this verdict accepts is a pool the
/// full [`analyze`] report has no error for, and the other way round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The cascade-termination verdict.
    pub termination: Termination,
    /// The findings of the termination and coverage passes, errors first,
    /// in the order the full report lists them.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of live rules analyzed.
    pub rules: usize,
    /// Number of registered events in the detector.
    pub events: usize,
}

impl Verdict {
    /// Shorthand for [`Termination::is_proved`].
    pub fn proved_terminating(&self) -> bool {
        self.termination.is_proved()
    }

    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        error_count(&self.diagnostics)
    }

    /// The `Error`-severity diagnostics: what a refusing gate reports.
    pub fn into_errors(self) -> Vec<Diagnostic> {
        let mut diagnostics = self.diagnostics;
        diagnostics.retain(|d| d.severity == Severity::Error);
        diagnostics
    }
}

fn error_count(diagnostics: &[Diagnostic]) -> usize {
    diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

/// Deterministic order over *every* field, then collapse duplicates — the
/// same finding can be reached through several closure paths (or, for
/// opaque footprints, several sites in one rule).
fn canonical(diagnostics: &mut Vec<Diagnostic>) {
    diagnostics.sort_by(|a, b| {
        (
            a.severity, a.code, &a.message, &a.rules, &a.events, &a.roles, &a.hint,
        )
            .cmp(&(
                b.severity, b.code, &b.message, &b.rules, &b.events, &b.roles, &b.hint,
            ))
    });
    diagnostics.dedup();
}

/// A pool under analysis, with its rule-dependency graph built once: the
/// termination proof, the depth bound, the footprint closure and the DOT
/// export all walk this graph, none builds its own.
struct Subject<'a> {
    detector: &'a Detector,
    pool: &'a RulePool,
    rules: RuleGraph,
}

impl<'a> Subject<'a> {
    fn new(detector: &'a Detector, pool: &'a RulePool) -> Subject<'a> {
        Subject {
            detector,
            pool,
            rules: termination::build_rule_graph(detector, pool),
        }
    }

    /// The passes that can reject.
    fn verdict(&self, graph: &PolicyGraph) -> Verdict {
        let mut diagnostics = Vec::new();
        let termination = termination::check(&self.rules, &mut diagnostics);
        coverage::check(graph, self.detector, self.pool, &mut diagnostics);
        canonical(&mut diagnostics);
        Verdict {
            termination,
            diagnostics,
            rules: self.pool.len(),
            events: self.detector.event_ids().count(),
        }
    }

    /// The passes that only describe, added to `verdict`.
    fn report(&self, verdict: Verdict) -> AnalysisReport {
        let mut diagnostics = verdict.diagnostics;
        conditions::check(self.detector, self.pool, &mut diagnostics);
        let effects = footprint::compute(&self.rules, self.pool, &mut diagnostics);
        canonical(&mut diagnostics);
        AnalysisReport {
            termination: verdict.termination,
            diagnostics,
            rules: verdict.rules,
            events: verdict.events,
            max_sync_depth: termination::max_sync_depth(&self.rules),
            effects,
        }
    }
}

/// Run the passes that can reject an instantiated policy's pool: what
/// [`crate::instantiate_verified`], [`crate::regenerate_verified`] and
/// [`crate::compile_pool`] decide on.
pub fn verdict(inst: &Instantiated) -> Verdict {
    Subject::new(&inst.detector, &inst.pool).verdict(&inst.graph)
}

/// Analyze an instantiated policy: the [`verdict`] plus the report-only
/// passes (conditions and effect footprints).
pub fn analyze(inst: &Instantiated) -> AnalysisReport {
    let subject = Subject::new(&inst.detector, &inst.pool);
    subject.report(subject.verdict(&inst.graph))
}

/// Render the rule-dependency graph in Graphviz DOT. Solid edges are
/// synchronous (the raised event can trigger the target rule within the
/// same dispatch); dashed edges only fire through a later timer.
pub fn rule_dependency_dot(detector: &Detector, pool: &RulePool) -> String {
    let g = Subject::new(detector, pool).rules;
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = String::from("digraph rules {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, name) in g.names.iter().enumerate() {
        out.push_str(&format!("  n{i} [label=\"{}\"];\n", esc(name)));
    }
    for (from, outs) in g.edges.iter().enumerate() {
        for &(to, sync) in outs {
            if sync {
                out.push_str(&format!("  n{from} -> n{to};\n"));
            } else {
                out.push_str(&format!(
                    "  n{from} -> n{to} [style=dashed, label=\"delayed\"];\n"
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::instantiate;
    use snoop::Ts;

    fn xyz() -> Instantiated {
        instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap()
    }

    #[test]
    fn xyz_report_is_clean_and_proved() {
        let report = analyze(&xyz());
        assert!(report.is_clean(), "{report}");
        assert!(report.proved_terminating());
        assert_eq!(report.rules, 5 * 4 + 3);
        assert_eq!(report.error_count(), 0);
        assert!(report.summary().starts_with("PROVED-TERMINATING"));
    }

    #[test]
    fn report_orders_errors_before_warnings() {
        let mut inst = xyz();
        // Uncover an operation (Error) and shadow nothing; then check a
        // Warning sorts after it by disabling a rule that also leaves a
        // warning-free pool — instead inject a tautological rule.
        inst.pool.set_enabled("AAR2_PC", false);
        let ev = inst.detector.lookup(crate::events::CHECK_ACCESS).unwrap();
        sentinel::attach_rule(
            &mut inst.detector,
            &mut inst.pool,
            sentinel::Rule::new("TAUT", ev, sentinel::CondExpr::True)
                .otherwise(vec![sentinel::ActionSpec::RaiseError("dead".into())]),
        );
        let report = analyze(&inst);
        assert!(report.error_count() >= 1);
        assert!(report.warning_count() >= 1);
        let first_warning = report
            .diagnostics
            .iter()
            .position(|d| d.severity == Severity::Warning)
            .unwrap();
        assert!(report.diagnostics[..first_warning]
            .iter()
            .all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn display_renders_tag_code_and_hint() {
        let d = Diagnostic {
            severity: Severity::Error,
            code: DiagCode::RuleLoop,
            message: "m".into(),
            rules: vec![],
            roles: vec![],
            events: vec![],
            hint: "h".into(),
        };
        assert_eq!(d.to_string(), "error[rule-loop]: m\n    hint: h");
    }

    #[test]
    fn dot_export_names_rules() {
        let inst = xyz();
        let dot = rule_dependency_dot(&inst.detector, &inst.pool);
        assert!(dot.starts_with("digraph rules {"));
        assert!(dot.contains("AAR2_PC"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn xyz_effects_cover_pool_and_flag_cross_user_rules() {
        let report = analyze(&xyz());
        let fx = &report.effects;
        assert_eq!(fx.effects.len(), report.rules);
        assert!(
            fx.effects.iter().all(|e| !e.effective.opaque),
            "every generated custom is in the region table"
        );
        // Activation rules maintain cross-user role aggregates; the
        // check-access rule reads only one session's state.
        let cross = fx.cross_user_footprints();
        assert!(cross.iter().any(|r| r.starts_with("AAR")), "{cross:?}");
        assert!(!cross.contains(&"CA".to_string()), "{cross:?}");
    }

    #[test]
    fn duplicate_opaque_diagnostics_are_deduped() {
        let mut inst = xyz();
        let ev = inst.detector.lookup(crate::events::CHECK_ACCESS).unwrap();
        // The same unknown custom in When and Then flags the rule via two
        // sites (condition walk and action walk) — one diagnostic must
        // survive.
        sentinel::attach_rule(
            &mut inst.detector,
            &mut inst.pool,
            sentinel::Rule::new(
                "OPQ",
                ev,
                sentinel::CondExpr::check(sentinel::Check::Custom {
                    name: "mystery".into(),
                    args: vec![],
                }),
            )
            .then(vec![sentinel::ActionSpec::Custom {
                name: "mystery".into(),
                args: vec![],
            }]),
        );
        let report = analyze(&inst);
        let opaque: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == DiagCode::OpaqueFootprint)
            .collect();
        assert_eq!(opaque.len(), 1, "{opaque:?}");
        assert_eq!(opaque[0].rules, vec!["OPQ".to_string()]);
        assert!(report.effects.effect_of("OPQ").unwrap().effective.opaque);
    }

    #[test]
    fn report_serializes_round_trip() {
        let report = analyze(&xyz());
        let json = serde_json::to_string(&report).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
