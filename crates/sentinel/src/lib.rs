//! # sentinel — the OWTE active rule system
//!
//! A from-scratch reimplementation of the rule layer of Sentinel+ (§3, §5 of
//! the paper): **On-When-Then-Else** authorization rules — ECA rules
//! enhanced with *alternative actions* and access-control-aware operator
//! semantics.
//!
//! * [`rule::Rule`] — the five-component rule (name, On event, When
//!   conditions, Then actions, Else alternative actions) with the paper's
//!   classifications (administrative / activity-control / active-security)
//!   and granularities (specialized / localized / globalized);
//! * [`lang`] — conditions and actions as inspectable *data*, renderable in
//!   the paper's OWTE syntax (rules are generated, printed, compared and
//!   regenerated — never hand-written closures);
//! * [`pool::RulePool`] — the rule pool, indexed by triggering event with
//!   priorities and bulk enable/disable;
//! * [`executor::Executor`] — evaluation: condition checks against an
//!   [`state::AuthState`], Then/Else action execution, cascaded rule
//!   triggering via raised events, depth-guarded; one driver, fed either
//!   by the pool (the interpreter) or by the plan [`compile`] lowers a
//!   verified pool into, and reading the triggering event through
//!   [`bindings::Bindings`] — a Snoop occurrence, or a typed
//!   [`bindings::Request`];
//! * [`log::AuditLog`] — every firing, denial, alert and failure, queryable
//!   for active-security windows.
//!
//! The crate is monitor-agnostic: it depends only on the `snoop` event
//! substrate and sees the authorization state through the [`state::AuthState`]
//! trait (implemented over the `rbac` reference monitor by `owte-core`).

#![warn(missing_docs)]

pub mod bindings;
pub mod compile;
pub mod executor;
pub mod lang;
pub mod log;
pub mod pool;
pub mod rule;
pub mod state;

pub use bindings::{params_of, Bindings, Request};
pub use compile::{
    compile, BoundActions, CCheck, CompileError, CompileHost, CompiledPool, CompiledRule, CondOp,
    DsdSetBaked, NoBake,
};
pub use executor::{attach_rule, eval_cond, ExecReport, Executor, Runtime};
pub use lang::{ActionSpec, Check, CondExpr, ParamRef};
pub use log::{AuditEntry, AuditKind, AuditLog};
pub use pool::{PoolStats, RulePool};
pub use rule::{Granularity, Rule, RuleClass, RuleId};
pub use state::{ActionOutcome, AuthState, PermissiveState};
