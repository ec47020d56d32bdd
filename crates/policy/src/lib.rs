//! # policy — high-level specification and OWTE rule generation
//!
//! The paper's key usability claim is that administrators never write OWTE
//! rules: they specify enterprise access-control policies at a high level
//! (the RBAC Manager GUI of §5 / Figure 1), and the system *generates* —
//! and on change *regenerates* — the thousands of authorization rules.
//!
//! * [`graph::PolicyGraph`] — the Figure-1 policy graph: role nodes with
//!   relationship flags, hierarchy edges, SoD "dashed lines", plus the
//!   temporal, dependency, cardinality, active-security and privacy
//!   annotations of the extensions;
//! * [`spec`] — a small textual DSL producing the same graph (our stand-in
//!   for the drag-and-drop GUI);
//! * [`consistency`] — policy validation (the "advanced consistency
//!   checking mechanisms" the paper lists as work in progress);
//! * [`generate`] — rule synthesis: instantiates the RBAC monitor, builds
//!   the event graph, and emits the rule pool (AAR₁…AAR₄ variants chosen
//!   per role flags, CC cardinality cascades, Δ PLUS rules, calendar
//!   enable/disable, CFD and prerequisite rules, check-access,
//!   administrative and active-security rules);
//! * [`mod@regenerate`] — incremental regeneration on policy change (§5's
//!   day-doctor shift scenario);
//! * [`analyze`] — `owte-analyze`, the static rule-pool analyzer: proves
//!   cascade termination, finds dead/shadowed/unsatisfiable rules and
//!   coverage gaps, and gates generation on a verified pool.

#![warn(missing_docs)]

pub mod analyze;
pub mod compile;
pub mod consistency;
pub mod events;
pub mod generate;
pub mod graph;
pub mod regenerate;
pub mod spec;

pub use analyze::{
    analyze, rule_dependency_dot, verdict, AnalysisReport, DiagCode, Diagnostic, EffectReport,
    Footprint, Region, RuleEffect, Target, Termination, Verdict,
};
pub use compile::{compile_pool, CompileError, CompiledPolicy};
pub use consistency::{check, is_consistent, Issue, Severity};
pub use generate::{
    instantiate, instantiate_verified, Binding, GenStats, InstantiateError, Instantiated,
    VerifyGate,
};
pub use graph::{
    ContextConstraintSpec, DailyWindow, DisablingSodSpec, ObjectPolicySpec, PolicyGraph,
    PostConditionSpec, PrerequisiteSpec, PurposeSpec, RoleFlags, RoleNode, SecurityAction,
    SecuritySpec, SodSpec, StatusKind, TriggerSpec, UserNode,
};
pub use regenerate::{needs_full_rebuild, regenerate, regenerate_verified, RegenReport};
pub use spec::{parse, print, SpecError};
