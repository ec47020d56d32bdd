//! Rule synthesis: compile a [`PolicyGraph`] into the event graph, the OWTE
//! rule pool and the instantiated RBAC monitor — §4 and §5 of the paper.
//!
//! "OWTE rules shown … are **not** created manually by administrators":
//! this module is the generator. Per role it emits the activation rule
//! variant the role's flags call for (AAR₁ core / AAR₂ hierarchies / AAR₃
//! DSD / AAR₄ DSD+hierarchies), cardinality cascades (Rule 4), Δ-expiry
//! PLUS rules (Rule 7), enabling/disabling rules with disabling-time SoD
//! guards (Rule 6), post-condition CFD pairs (Rule 8), prerequisite
//! cascades (Rule 9), plus the globalized check-access (Rule 5),
//! administrative, and active-security rules.

use crate::analyze::Verdict;
use crate::consistency::{self, Issue, Severity};
use crate::events;
use crate::graph::{PolicyGraph, RoleNode, SecurityAction};
use gtrbac::{
    BoundedPeriodic, DisablingTimeSod, PeriodicWindow, PostConditionCfd, PrerequisiteActivation,
    TemporalConstraints, TemporalPolicies,
};
use rbac::{ObjId, OpId, RoleId, UserId};
use sentinel::{
    attach_rule, ActionSpec, Check, CondExpr, Granularity, ParamRef, Rule, RuleClass, RulePool,
};
use serde::{Deserialize, Serialize};
use snoop::{CalendarExpr, Detector, DetectorError, EventExpr, Key, Ts};
use std::collections::HashMap;
use std::fmt;

/// Name → id maps produced by instantiation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Binding {
    /// Role names to monitor ids.
    pub roles: HashMap<String, RoleId>,
    /// User names to monitor ids.
    pub users: HashMap<String, UserId>,
    /// Operation names to ids.
    pub ops: HashMap<String, OpId>,
    /// Object names to ids.
    pub objs: HashMap<String, ObjId>,
    /// Reverse map for event naming.
    pub role_names: HashMap<RoleId, String>,
}

impl Binding {
    /// Role id by name (must exist after instantiation).
    pub fn role(&self, name: &str) -> RoleId {
        self.roles[name]
    }

    /// User id by name.
    pub fn user(&self, name: &str) -> UserId {
        self.users[name]
    }

    /// Role name by id.
    pub fn role_name(&self, id: RoleId) -> Option<&str> {
        self.role_names.get(&id).map(String::as_str)
    }
}

/// Rule-pool composition statistics (the E2 experiment's dependent
/// variable: roles in → rules out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenStats {
    /// Activation rules (AAR₁…AAR₄).
    pub activation: usize,
    /// Cardinality cascades (CC).
    pub cardinality: usize,
    /// Deactivation rules (DAR).
    pub deactivation: usize,
    /// Δ-expiry and Δ-cancel rules.
    pub duration: usize,
    /// Enable/disable rules (calendar + request paths).
    pub enabling: usize,
    /// CFD / prerequisite dependency rules.
    pub dependency: usize,
    /// Context-aware re-validation rules.
    pub context: usize,
    /// Globalized check-access rules.
    pub check_access: usize,
    /// Administrative rules.
    pub administrative: usize,
    /// Active-security rules.
    pub security: usize,
    /// Event-graph nodes in the detector.
    pub event_nodes: usize,
}

impl GenStats {
    /// Total rules generated.
    pub fn total_rules(&self) -> usize {
        self.activation
            + self.cardinality
            + self.deactivation
            + self.duration
            + self.enabling
            + self.dependency
            + self.context
            + self.check_access
            + self.administrative
            + self.security
    }
}

/// Why instantiation failed.
#[derive(Debug)]
pub enum InstantiateError {
    /// The policy has consistency errors.
    Inconsistent(Vec<Issue>),
    /// The monitor rejected the policy while materializing it.
    Rbac(rbac::RbacError),
    /// Event-graph construction failed.
    Detector(DetectorError),
    /// The verification gate refused the generated pool
    /// (see [`instantiate_verified`]).
    Rejected(Vec<crate::analyze::Diagnostic>),
}

impl fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantiateError::Inconsistent(issues) => {
                writeln!(f, "policy is inconsistent:")?;
                for i in issues {
                    writeln!(f, "  {i}")?;
                }
                Ok(())
            }
            InstantiateError::Rbac(e) => write!(f, "monitor rejected policy: {e}"),
            InstantiateError::Detector(e) => write!(f, "event graph error: {e}"),
            InstantiateError::Rejected(diags) => {
                writeln!(f, "generated pool failed verification:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for InstantiateError {}

impl From<rbac::RbacError> for InstantiateError {
    fn from(e: rbac::RbacError) -> Self {
        InstantiateError::Rbac(e)
    }
}

impl From<DetectorError> for InstantiateError {
    fn from(e: DetectorError) -> Self {
        InstantiateError::Detector(e)
    }
}

/// A fully instantiated policy: monitor state, event graph, rule pool and
/// temporal constraint data, ready to be driven by an engine.
///
/// Serializable as a unit so the durable engine can snapshot a running
/// policy instantiation and restore it without re-generating rules.
#[derive(Clone, Serialize, Deserialize)]
pub struct Instantiated {
    /// The policy it was generated from.
    pub graph: PolicyGraph,
    /// The event detector (graph + clock + timers).
    pub detector: Detector,
    /// The generated rule pool.
    pub pool: RulePool,
    /// The instantiated reference monitor.
    pub system: rbac::System,
    /// Temporal enabling/duration policies.
    pub temporal: TemporalPolicies,
    /// Dependency/time-SoD constraints.
    pub constraints: TemporalConstraints,
    /// Name ↔ id bindings.
    pub binding: Binding,
    /// Generation statistics.
    pub stats: GenStats,
}

impl std::fmt::Debug for Instantiated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instantiated")
            .field("policy", &self.graph.name)
            .field("events", &self.detector.node_count())
            .field("rules", &self.pool.len())
            .finish_non_exhaustive()
    }
}

/// Compile `graph` into an [`Instantiated`] policy with the detector clock
/// starting at `start`.
pub fn instantiate(graph: &PolicyGraph, start: Ts) -> Result<Instantiated, InstantiateError> {
    let issues: Vec<Issue> = consistency::check(graph)
        .into_iter()
        .filter(|i| i.severity == Severity::Error)
        .collect();
    if !issues.is_empty() {
        return Err(InstantiateError::Inconsistent(issues));
    }

    // ---- 1. materialize the monitor -------------------------------------
    let mut system = rbac::System::new();
    let mut binding = Binding::default();
    for r in &graph.roles {
        let id = system.add_role(&r.name)?;
        binding.roles.insert(r.name.clone(), id);
        binding.role_names.insert(id, r.name.clone());
    }
    for u in &graph.users {
        let id = system.add_user(&u.name)?;
        binding.users.insert(u.name.clone(), id);
    }
    for p in &graph.permissions {
        let op = match binding.ops.get(&p.op) {
            Some(&id) => id,
            None => {
                let id = system.add_operation(&p.op)?;
                binding.ops.insert(p.op.clone(), id);
                id
            }
        };
        let obj = match binding.objs.get(&p.obj) {
            Some(&id) => id,
            None => {
                let id = system.add_object(&p.obj)?;
                binding.objs.insert(p.obj.clone(), id);
                id
            }
        };
        system.perm_id(op, obj)?;
    }
    for (senior, junior) in &graph.hierarchy {
        system.add_inheritance(binding.role(senior), binding.role(junior))?;
    }
    for s in &graph.ssd {
        let roles: Vec<RoleId> = s.roles.iter().map(|r| binding.role(r)).collect();
        system.create_ssd_set(&s.name, &roles, s.cardinality)?;
    }
    for s in &graph.dsd {
        let roles: Vec<RoleId> = s.roles.iter().map(|r| binding.role(r)).collect();
        system.create_dsd_set(&s.name, &roles, s.cardinality)?;
    }
    for (perm, role) in &graph.grants {
        let p = graph
            .permissions
            .iter()
            .find(|x| x.name == *perm)
            .expect("consistency checked");
        system.grant_permission(binding.role(role), binding.ops[&p.op], binding.objs[&p.obj])?;
    }
    for (user, role) in &graph.assignments {
        system.assign_user(binding.user(user), binding.role(role))?;
    }
    for r in &graph.roles {
        if let Some(cap) = r.max_active_users {
            system.set_role_activation_cap(binding.role(&r.name), Some(cap))?;
        }
    }
    for u in &graph.users {
        if let Some(cap) = u.max_active_roles {
            system.set_user_active_role_cap(binding.user(&u.name), Some(cap))?;
        }
    }

    // ---- 2. temporal policies and constraints ---------------------------
    let mut temporal = TemporalPolicies::new();
    for r in &graph.roles {
        let rid = binding.role(&r.name);
        if let Some(w) = &r.enabling {
            temporal.set_enabling(
                rid,
                BoundedPeriodic::window(PeriodicWindow::daily(
                    w.start_h, w.start_m, w.end_h, w.end_m,
                )),
            );
        }
        if let Some(d) = r.max_activation {
            temporal.set_max_activation(rid, d);
        }
        for (user, d) in &r.per_user_activation {
            temporal.set_user_max_activation(rid, binding.user(user), *d);
        }
    }
    let mut constraints = TemporalConstraints::new();
    for d in &graph.disabling_sod {
        constraints.disabling_sod.push(DisablingTimeSod {
            name: d.name.clone(),
            roles: d.roles.iter().map(|r| binding.role(r)).collect(),
            window: BoundedPeriodic::window(PeriodicWindow::daily(
                d.window.start_h,
                d.window.start_m,
                d.window.end_h,
                d.window.end_m,
            )),
        });
    }
    for d in &graph.enabling_sod {
        constraints.enabling_sod.push(gtrbac::EnablingTimeSod {
            name: d.name.clone(),
            roles: d.roles.iter().map(|r| binding.role(r)).collect(),
            window: BoundedPeriodic::window(PeriodicWindow::daily(
                d.window.start_h,
                d.window.start_m,
                d.window.end_h,
                d.window.end_m,
            )),
        });
    }
    for pc in &graph.post_conditions {
        constraints.post_conditions.push(PostConditionCfd {
            role: binding.role(&pc.role),
            required: binding.role(&pc.requires),
        });
    }
    for p in &graph.prerequisites {
        constraints.prerequisites.push(PrerequisiteActivation {
            role: binding.role(&p.role),
            prerequisite: binding.role(&p.requires_active),
        });
    }

    // Initial enabled state per temporal window.
    for r in &graph.roles {
        let rid = binding.role(&r.name);
        if !temporal.should_be_enabled(rid, start) {
            system.disable_role(rid, false)?;
        }
    }

    // ---- 3. event graph and rules ---------------------------------------
    let mut detector = Detector::new(start);
    let mut pool = RulePool::new();
    let mut stats = GenStats::default();

    for r in &graph.roles {
        generate_role(graph, &binding, r, &mut detector, &mut pool, &mut stats)?;
    }
    generate_global(graph, &binding, &mut detector, &mut pool, &mut stats)?;

    stats.event_nodes = detector.node_count();
    Ok(Instantiated {
        graph: graph.clone(),
        detector,
        pool,
        system,
        temporal,
        constraints,
        binding,
        stats,
    })
}

/// Whether generation runs the static analyzer and refuses bad pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VerifyGate {
    /// Skip the gate: the verdict is returned but never blocks.
    Off,
    /// Refuse pools carrying any `Error`-severity diagnostic (warnings
    /// pass). The default.
    #[default]
    DenyOnError,
}

impl VerifyGate {
    /// Pass `verdict` through, or refuse it with its `Error` diagnostics.
    pub(crate) fn admit(self, verdict: Verdict) -> Result<Verdict, InstantiateError> {
        if self == VerifyGate::DenyOnError && verdict.error_count() > 0 {
            return Err(InstantiateError::Rejected(verdict.into_errors()));
        }
        Ok(verdict)
    }
}

/// [`instantiate`], then run the passes of the static analyzer that can
/// reject ([`crate::analyze::verdict`]) over the generated pool.
///
/// With [`VerifyGate::DenyOnError`], a pool carrying `Error`-severity
/// diagnostics — a synchronous rule loop, an uncovered operation, an
/// unregistered event reference — is refused with
/// [`InstantiateError::Rejected`]. The verdict is returned on success so
/// callers can act on it (e.g. enable the executor's acyclic fast path
/// when the termination proof went through). The report-only passes
/// (conditions, effects) are [`crate::analyze()`]'s to run, for whoever
/// reads them.
pub fn instantiate_verified(
    graph: &PolicyGraph,
    start: Ts,
    gate: VerifyGate,
) -> Result<(Instantiated, Verdict), InstantiateError> {
    let inst = instantiate(graph, start)?;
    let verdict = gate.admit(crate::analyze::verdict(&inst))?;
    Ok((inst, verdict))
}

/// Parameter shorthands.
fn p_user() -> ParamRef {
    ParamRef::param("user")
}
fn p_session() -> ParamRef {
    ParamRef::param("session")
}
fn p_role() -> ParamRef {
    ParamRef::param("role")
}
/// The three params every role-scoped event carries along cascades.
fn usr_params() -> Vec<(Key, ParamRef)> {
    vec![
        ("user".into(), p_user()),
        ("session".into(), p_session()),
        ("role".into(), p_role()),
    ]
}

/// Names of the three rules a per-user Δ of (`role`, `user`) generates:
/// the filter that starts the user's own activation event, the expiry and
/// the timer cancellation. Regeneration removes them by these names when
/// the user's Δ is withdrawn.
pub(crate) fn per_user_delta_rules(role: &str, user: &str) -> [String; 3] {
    [
        format!("DELTAS_{role}_{user}"),
        format!("DELTA_{role}_{user}"),
        format!("CANCEL_{role}_{user}"),
    ]
}

/// Generate (or regenerate) all rules and event nodes for one role.
///
/// Rule names are deterministic functions of the role name, so re-running
/// this after a policy change overwrites the previous generation in place.
pub(crate) fn generate_role(
    graph: &PolicyGraph,
    binding: &Binding,
    node: &RoleNode,
    detector: &mut Detector,
    pool: &mut RulePool,
    stats: &mut GenStats,
) -> Result<(), DetectorError> {
    let role = &node.name;
    let rid = i64::from(binding.role(role).0);
    let flags = graph.role_flags(role);

    let ev_add = detector.primitive(&events::add_active(role));
    let ev_stage = detector.primitive(&events::session_role_add(role));
    let ev_added = detector.primitive(&events::role_added(role));
    let ev_drop = detector.primitive(&events::drop_active(role));
    let ev_dropped = detector.primitive(&events::role_dropped(role));
    let ev_enable = detector.primitive(&events::enable_role(role));
    let ev_disable = detector.primitive(&events::disable_role(role));
    detector.primitive(&events::role_enabled(role));
    detector.primitive(&events::role_disabled(role));
    let status_params = |rid: i64| vec![(Key::Static("role"), ParamRef::Int(rid))];

    // ---- AAR: the activation rule, variant per flags (paper §4.3.1) ------
    let mut when = vec![
        CondExpr::check(Check::UserExists(p_user())),
        CondExpr::check(Check::SessionExists(p_session())),
        CondExpr::check(Check::SessionOwnedBy {
            session: p_session(),
            user: p_user(),
        }),
        CondExpr::check(Check::RoleNotActive {
            session: p_session(),
            role: ParamRef::Int(rid),
        }),
    ];
    let variant = match (flags.hierarchy, flags.dynamic_sod) {
        (false, false) => "AAR1",
        (true, false) => "AAR2",
        (false, true) => "AAR3",
        (true, true) => "AAR4",
    };
    if flags.hierarchy {
        when.push(CondExpr::check(Check::Authorized {
            user: p_user(),
            role: ParamRef::Int(rid),
        }));
    } else {
        when.push(CondExpr::check(Check::Assigned {
            user: p_user(),
            role: ParamRef::Int(rid),
        }));
    }
    if flags.dynamic_sod {
        when.push(CondExpr::check(Check::DsdSatisfied {
            session: p_session(),
            role: ParamRef::Int(rid),
        }));
    }
    if node.enabling.is_some() {
        when.push(CondExpr::check(Check::RoleEnabled(ParamRef::Int(rid))));
    }
    // Context-aware constraints (context-aware RBAC): activation requires
    // the environment context to satisfy the role's constraints.
    let has_context = graph.context_constraints.iter().any(|c| c.role == *role);
    if has_context {
        when.push(CondExpr::check(Check::Custom {
            name: "context_ok".into(),
            args: vec![ParamRef::Int(rid)],
        }));
    }
    // Specialized per-user caps, folded as a state-resolved check.
    when.push(CondExpr::check(Check::UserCapOk {
        user: p_user(),
        role: ParamRef::Int(rid),
    }));
    // Prerequisite roles (Rule 9): must be active somewhere.
    for p in graph.prerequisites.iter().filter(|p| p.role == *role) {
        when.push(CondExpr::check(Check::RoleActiveAnywhere(ParamRef::Int(
            i64::from(binding.role(&p.requires_active).0),
        ))));
    }
    let apply_actions = vec![
        ActionSpec::AddSessionRole {
            user: p_user(),
            session: p_session(),
            role: ParamRef::Int(rid),
        },
        ActionSpec::RaiseEvent {
            event: events::role_added(role),
            params: usr_params(),
        },
    ];
    let then = if node.max_active_users.is_some() {
        // Stage through the CC rule (the paper's Rule 4 cascade).
        vec![ActionSpec::RaiseEvent {
            event: events::session_role_add(role),
            params: usr_params(),
        }]
    } else {
        apply_actions.clone()
    };
    attach_rule(
        detector,
        pool,
        Rule::new(format!("{variant}_{role}"), ev_add, CondExpr::all(when))
            .then(then)
            .otherwise(vec![ActionSpec::RaiseError(format!(
                "Access Denied Cannot Activate {role}"
            ))])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Localized),
    );
    stats.activation += 1;

    // ---- CC: cardinality cascade (Rule 4) --------------------------------
    if let Some(max) = node.max_active_users {
        attach_rule(
            detector,
            pool,
            Rule::new(
                format!("CC_{role}"),
                ev_stage,
                CondExpr::check(Check::RoleCardinalityBelow {
                    role: ParamRef::Int(rid),
                    user: p_user(),
                    max,
                }),
            )
            .then(apply_actions.clone())
            .otherwise(vec![ActionSpec::RaiseError(
                "Maximum Number of Roles Reached".into(),
            )])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Localized),
        );
        stats.cardinality += 1;
    } else {
        pool.remove(&format!("CC_{role}"));
    }

    // ---- DAR: deactivation ------------------------------------------------
    attach_rule(
        detector,
        pool,
        Rule::new(
            format!("DAR_{role}"),
            ev_drop,
            CondExpr::all(vec![
                CondExpr::check(Check::SessionOwnedBy {
                    session: p_session(),
                    user: p_user(),
                }),
                CondExpr::check(Check::RoleActive {
                    session: p_session(),
                    role: ParamRef::Int(rid),
                }),
            ]),
        )
        .then(vec![
            ActionSpec::DropSessionRole {
                user: p_user(),
                session: p_session(),
                role: ParamRef::Int(rid),
            },
            ActionSpec::RaiseEvent {
                event: events::role_dropped(role),
                params: usr_params(),
            },
        ])
        .otherwise(vec![ActionSpec::RaiseError(format!(
            "Cannot Deactivate {role}: not active"
        ))])
        .class(RuleClass::ActivityControl)
        .granularity(Granularity::Localized),
    );
    stats.deactivation += 1;

    // ---- Δ-expiry (Rule 7), role-wide ------------------------------------
    if let Some(delta) = node.max_activation {
        let plus = detector.define(&EventExpr::plus(
            EventExpr::named(events::role_added(role)),
            delta,
        ))?;
        detector.name(plus, &events::delta(role))?;
        attach_rule(
            detector,
            pool,
            Rule::new(
                format!("DELTA_{role}"),
                plus,
                CondExpr::check(Check::RoleActive {
                    session: p_session(),
                    role: ParamRef::Int(rid),
                }),
            )
            .then(vec![
                ActionSpec::DropSessionRole {
                    user: p_user(),
                    session: p_session(),
                    role: ParamRef::Int(rid),
                },
                ActionSpec::RaiseEvent {
                    event: events::role_dropped(role),
                    params: usr_params(),
                },
            ])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Localized),
        );
        attach_rule(
            detector,
            pool,
            Rule::new(format!("CANCEL_{role}"), ev_dropped, CondExpr::True)
                .then(vec![ActionSpec::CancelPlus {
                    event: events::delta(role),
                    key_param: "session".into(),
                }])
                .class(RuleClass::ActivityControl)
                .granularity(Granularity::Localized),
        );
        stats.duration += 2;
    } else {
        pool.remove(&format!("DELTA_{role}"));
        pool.remove(&format!("CANCEL_{role}"));
    }

    // ---- Δ-expiry per user (Rule 7's Bob/R3 form) -------------------------
    for (user, delta) in &node.per_user_activation {
        let [starts, expires, cancels] = per_user_delta_rules(role, user);
        let uid = i64::from(binding.user(user).0);
        let filtered_name = events::user_activation(role, user);
        detector.primitive(&filtered_name);
        let plus = detector.define(&EventExpr::plus(
            EventExpr::named(events::user_activation(role, user)),
            *delta,
        ))?;
        detector.name(plus, &events::delta_user(role, user))?;
        // Start the filtered event when this user activates the role.
        attach_rule(
            detector,
            pool,
            Rule::new(
                starts,
                ev_added,
                CondExpr::check(Check::ParamEquals {
                    name: "user".into(),
                    value: snoop::Value::Int(uid),
                }),
            )
            .then(vec![ActionSpec::RaiseEvent {
                event: filtered_name.clone(),
                params: usr_params(),
            }])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Specialized),
        );
        attach_rule(
            detector,
            pool,
            Rule::new(
                expires,
                plus,
                CondExpr::check(Check::RoleActive {
                    session: p_session(),
                    role: ParamRef::Int(rid),
                }),
            )
            .then(vec![
                ActionSpec::DropSessionRole {
                    user: p_user(),
                    session: p_session(),
                    role: ParamRef::Int(rid),
                },
                ActionSpec::RaiseEvent {
                    event: events::role_dropped(role),
                    params: usr_params(),
                },
            ])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Specialized),
        );
        attach_rule(
            detector,
            pool,
            Rule::new(
                cancels,
                ev_dropped,
                CondExpr::check(Check::ParamEquals {
                    name: "user".into(),
                    value: snoop::Value::Int(uid),
                }),
            )
            .then(vec![ActionSpec::CancelPlus {
                event: events::delta_user(role, user),
                key_param: "session".into(),
            }])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Specialized),
        );
        stats.duration += 3;
    }

    // ---- temporal enabling (shifts) ---------------------------------------
    if let Some(w) = &node.enabling {
        let start_cal = detector.calendar(CalendarExpr::daily(w.start_h, w.start_m, 0));
        let end_cal = detector.calendar(CalendarExpr::daily(w.end_h, w.end_m, 0));
        attach_rule(
            detector,
            pool,
            Rule::new(format!("ENA_{role}"), start_cal, CondExpr::True)
                .then(vec![
                    ActionSpec::EnableRole(ParamRef::Int(rid)),
                    ActionSpec::RaiseEvent {
                        event: events::role_enabled(role),
                        params: status_params(rid),
                    },
                ])
                .class(RuleClass::ActivityControl)
                .granularity(Granularity::Localized),
        );
        attach_rule(
            detector,
            pool,
            Rule::new(format!("DIS_{role}"), end_cal, CondExpr::True)
                .then(vec![
                    ActionSpec::DisableRole {
                        role: ParamRef::Int(rid),
                        deactivate: true,
                    },
                    ActionSpec::RaiseEvent {
                        event: events::role_disabled(role),
                        params: status_params(rid),
                    },
                ])
                .class(RuleClass::ActivityControl)
                .granularity(Granularity::Localized),
        );
        stats.enabling += 2;
    } else {
        pool.remove(&format!("ENA_{role}"));
        pool.remove(&format!("DIS_{role}"));
    }

    // ---- enable/disable request paths (Rules 6 and 8) --------------------
    // Disable requests honour disabling-time SoD via a state-resolved check
    // (same semantics as the paper's Aperiodic-window guard: inside the
    // window the conflicting role must still be enabled).
    attach_rule(
        detector,
        pool,
        Rule::new(
            format!("DISR_{role}"),
            ev_disable,
            CondExpr::check(Check::Custom {
                name: "disabling_sod_ok".into(),
                args: vec![ParamRef::Int(rid)],
            }),
        )
        .then(vec![
            ActionSpec::DisableRole {
                role: ParamRef::Int(rid),
                deactivate: true,
            },
            ActionSpec::RaiseEvent {
                event: events::role_disabled(role),
                params: status_params(rid),
            },
        ])
        .otherwise(vec![ActionSpec::RaiseError(format!(
            "Denied: disabling {role} violates a disabling-time SoD"
        ))])
        .class(RuleClass::ActivityControl)
        .granularity(Granularity::Localized),
    );
    stats.enabling += 1;

    // Enable requests cascade post-condition requirements (Rule 8: CFD₁
    // raises the required role's enable event; its failure disables us).
    let mut enable_then = vec![
        ActionSpec::EnableRole(ParamRef::Int(rid)),
        ActionSpec::RaiseEvent {
            event: events::role_enabled(role),
            params: status_params(rid),
        },
    ];
    for pc in graph.post_conditions.iter().filter(|pc| pc.role == *role) {
        enable_then.push(ActionSpec::RaiseEvent {
            event: events::enable_role(&pc.requires),
            params: vec![],
        });
        stats.dependency += 1;
    }
    let mut enable_else = Vec::new();
    for pc in graph
        .post_conditions
        .iter()
        .filter(|pc| pc.requires == *role)
    {
        // CFD₂: if we cannot be enabled, the trigger role must come down.
        enable_else.push(ActionSpec::DisableRole {
            role: ParamRef::Int(i64::from(binding.role(&pc.role).0)),
            deactivate: true,
        });
    }
    enable_else.push(ActionSpec::RaiseError(format!("Cannot Enable {role}")));
    attach_rule(
        detector,
        pool,
        Rule::new(
            format!("ENR_{role}"),
            ev_enable,
            CondExpr::all(vec![
                CondExpr::check(Check::Custom {
                    name: "may_enable".into(),
                    args: vec![ParamRef::Int(rid)],
                }),
                CondExpr::check(Check::Custom {
                    name: "enabling_sod_ok".into(),
                    args: vec![ParamRef::Int(rid)],
                }),
            ]),
        )
        .then(enable_then)
        .otherwise(enable_else)
        .class(RuleClass::ActivityControl)
        .granularity(Granularity::Localized),
    );
    stats.enabling += 1;

    // ---- context re-validation -------------------------------------------
    // On any context change, a constrained role whose context no longer
    // holds is force-deactivated (the rule's *alternative* actions — the
    // OWTE Else at work).
    if has_context {
        let ev_ctx = detector.primitive(events::CONTEXT_CHANGED);
        attach_rule(
            detector,
            pool,
            Rule::new(
                format!("CTX_{role}"),
                ev_ctx,
                CondExpr::check(Check::Custom {
                    name: "context_ok".into(),
                    args: vec![ParamRef::Int(rid)],
                }),
            )
            .otherwise(vec![ActionSpec::DeactivateRoleEverywhere(ParamRef::Int(
                rid,
            ))])
            .class(RuleClass::ActiveSecurity)
            .granularity(Granularity::Localized),
        );
        stats.context += 1;
    } else {
        pool.remove(&format!("CTX_{role}"));
    }

    // ---- prerequisite cascade (Rule 9's ASEC₂ side) -----------------------
    let dependents: Vec<&str> = graph
        .prerequisites
        .iter()
        .filter(|p| p.requires_active == *role)
        .map(|p| p.role.as_str())
        .collect();
    if !dependents.is_empty() {
        let then: Vec<ActionSpec> = dependents
            .iter()
            .map(|d| {
                ActionSpec::DeactivateRoleEverywhere(ParamRef::Int(i64::from(binding.role(d).0)))
            })
            .collect();
        attach_rule(
            detector,
            pool,
            Rule::new(
                format!("PREDROP_{role}"),
                ev_dropped,
                CondExpr::Not(Box::new(CondExpr::check(Check::RoleActiveAnywhere(
                    ParamRef::Int(rid),
                )))),
            )
            .then(then)
            .class(RuleClass::ActiveSecurity)
            .granularity(Granularity::Localized),
        );
        stats.dependency += 1;
    } else {
        pool.remove(&format!("PREDROP_{role}"));
    }

    Ok(())
}

/// Globalized rules: check-access, administrative, active security.
fn generate_global(
    graph: &PolicyGraph,
    binding: &Binding,
    detector: &mut Detector,
    pool: &mut RulePool,
    stats: &mut GenStats,
) -> Result<(), DetectorError> {
    let ev_check = detector.primitive(events::CHECK_ACCESS);
    let ev_assign = detector.primitive(events::ASSIGN_USER);
    let ev_deassign = detector.primitive(events::DEASSIGN_USER);
    let ev_denied = detector.primitive(events::ACCESS_DENIED);
    // Context events exist even when no role is constrained (sensors may
    // report before an administrator adds the first constraint).
    detector.primitive(events::CONTEXT_CHANGED);

    // CA (Rule 5), globalized: same rule for every role, "invoked with
    // different parameters".
    let mut when = vec![
        CondExpr::check(Check::SessionExists(p_session())),
        CondExpr::check(Check::SessionHasPermission {
            session: p_session(),
            op: ParamRef::param("op"),
            obj: ParamRef::param("obj"),
        }),
    ];
    if !graph.object_policies.is_empty() {
        when.push(CondExpr::check(Check::Custom {
            name: "purpose_ok".into(),
            args: vec![
                p_session(),
                ParamRef::param("op"),
                ParamRef::param("obj"),
                ParamRef::param("purpose"),
            ],
        }));
    }
    attach_rule(
        detector,
        pool,
        Rule::new("CA", ev_check, CondExpr::all(when))
            .then(vec![ActionSpec::Allow])
            .otherwise(vec![ActionSpec::RaiseError("Permission Denied".into())])
            .class(RuleClass::ActivityControl)
            .granularity(Granularity::Globalized),
    );
    stats.check_access += 1;

    // Administrative rules (scenario 3: "same rule is invoked with
    // different parameters").
    attach_rule(
        detector,
        pool,
        Rule::new(
            "ASSIGN",
            ev_assign,
            CondExpr::check(Check::UserExists(p_user())),
        )
        .then(vec![ActionSpec::AssignUser {
            user: p_user(),
            role: p_role(),
        }])
        .otherwise(vec![ActionSpec::RaiseError("Cannot Assign".into())])
        .class(RuleClass::Administrative)
        .granularity(Granularity::Globalized),
    );
    attach_rule(
        detector,
        pool,
        Rule::new(
            "DEASSIGN",
            ev_deassign,
            CondExpr::all(vec![
                CondExpr::check(Check::UserExists(p_user())),
                CondExpr::check(Check::Assigned {
                    user: p_user(),
                    role: p_role(),
                }),
            ]),
        )
        .then(vec![ActionSpec::DeassignUser {
            user: p_user(),
            role: p_role(),
        }])
        .otherwise(vec![ActionSpec::RaiseError("Cannot Deassign".into())])
        .class(RuleClass::Administrative)
        .granularity(Granularity::Globalized),
    );
    stats.administrative += 2;

    // TRBAC role triggers, lowered onto the status-notification events.
    // Actions go through the guarded request path (enableRole_*/
    // disableRole_* events), so window/SoD checks still apply; delayed
    // actions go through a PLUS event (TRBAC's "after Δ").
    for t in &graph.triggers {
        use crate::graph::StatusKind;
        let base = match t.on_kind {
            StatusKind::Enabled => events::role_enabled(&t.on_role),
            StatusKind::Disabled => events::role_disabled(&t.on_role),
        };
        let base_ev = detector.primitive(&base);
        let mut conds = Vec::new();
        for (r, must_be_enabled) in &t.when {
            let check = CondExpr::check(Check::RoleEnabled(ParamRef::Int(i64::from(
                binding.role(r).0,
            ))));
            conds.push(if *must_be_enabled {
                check
            } else {
                CondExpr::Not(Box::new(check))
            });
        }
        let action_event = match t.action_kind {
            StatusKind::Enabled => events::enable_role(&t.action_role),
            StatusKind::Disabled => events::disable_role(&t.action_role),
        };
        let action = ActionSpec::RaiseEvent {
            event: action_event,
            params: vec![(
                "role".into(),
                ParamRef::Int(i64::from(binding.role(&t.action_role).0)),
            )],
        };
        if t.after.is_zero() {
            attach_rule(
                detector,
                pool,
                Rule::new(format!("TRIG_{}", t.name), base_ev, CondExpr::all(conds))
                    .then(vec![action])
                    .class(RuleClass::ActiveSecurity)
                    .granularity(Granularity::Localized),
            );
            stats.dependency += 1;
        } else {
            // Conditions evaluate at trigger time (TRBAC), action after Δ.
            let fire_name = events::trigger_fire(&t.name);
            detector.primitive(&fire_name);
            attach_rule(
                detector,
                pool,
                Rule::new(format!("TRIG_{}", t.name), base_ev, CondExpr::all(conds))
                    .then(vec![ActionSpec::RaiseEvent {
                        event: fire_name.clone(),
                        params: vec![],
                    }])
                    .class(RuleClass::ActiveSecurity)
                    .granularity(Granularity::Localized),
            );
            let plus = detector.define(&EventExpr::plus(EventExpr::named(fire_name), t.after))?;
            detector.name(plus, &events::trigger_delay(&t.name))?;
            attach_rule(
                detector,
                pool,
                Rule::new(format!("TRIGD_{}", t.name), plus, CondExpr::True)
                    .then(vec![action])
                    .class(RuleClass::ActiveSecurity)
                    .granularity(Granularity::Localized),
            );
            stats.dependency += 2;
        }
    }

    // Active-security threshold rules. Each disables itself after firing
    // ("some critical authorization rules are disabled and the
    // administrators are alerted") so one storm produces one alert.
    for s in &graph.security {
        let name = format!("SEC_{}", s.name);
        let mut then = Vec::new();
        for a in &s.actions {
            match a {
                SecurityAction::Alert => then.push(ActionSpec::Alert(format!(
                    "internal security alert `{}`: more than {} denials within {}",
                    s.name, s.threshold, s.window
                ))),
                SecurityAction::DisableActivityRules => {
                    then.push(ActionSpec::DisableRuleClass(RuleClass::ActivityControl))
                }
                SecurityAction::DisableRole(r) => {
                    then.push(ActionSpec::RaiseEvent {
                        event: events::disable_role(r),
                        params: vec![],
                    });
                }
            }
        }
        then.push(ActionSpec::DisableRule(name.clone()));
        attach_rule(
            detector,
            pool,
            Rule::new(
                name,
                ev_denied,
                CondExpr::check(Check::Custom {
                    name: "denials_at_least".into(),
                    args: vec![
                        ParamRef::Int(s.threshold as i64),
                        ParamRef::Int(s.window.as_secs() as i64),
                    ],
                }),
            )
            .then(then)
            .priority(10)
            .class(RuleClass::ActiveSecurity)
            .granularity(Granularity::Globalized),
        );
        stats.security += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xyz() -> Instantiated {
        instantiate(&PolicyGraph::enterprise_xyz(), Ts::ZERO).unwrap()
    }

    #[test]
    fn xyz_generates_expected_pool() {
        let inst = xyz();
        // Per role: AAR + DAR + DISR + ENR = 4; globals: CA + 2 admin = 3.
        assert_eq!(inst.stats.total_rules(), 5 * 4 + 3);
        assert_eq!(inst.pool.len(), inst.stats.total_rules());
        // PC participates in hierarchy (and static SoD): AAR₂ variant,
        // exactly as §5 says ("this rule is similar to rule AAR₂").
        assert!(inst.pool.get_by_name("AAR2_PC").is_some());
        // Clerk also sits in the hierarchy.
        assert!(inst.pool.get_by_name("AAR2_Clerk").is_some());
        // No DSD in XYZ: no AAR₃/AAR₄.
        assert!(!inst
            .pool
            .iter()
            .any(|(_, r)| r.name.starts_with("AAR3") || r.name.starts_with("AAR4")));
    }

    #[test]
    fn verified_instantiation_passes_clean_pools() {
        let (inst, report) = instantiate_verified(
            &PolicyGraph::enterprise_xyz(),
            Ts::ZERO,
            VerifyGate::DenyOnError,
        )
        .unwrap();
        assert!(report.proved_terminating());
        assert_eq!(report.error_count(), 0);
        assert_eq!(inst.pool.len(), report.rules);
    }

    #[test]
    fn verified_instantiation_gates_on_rule_loops() {
        use crate::graph::PostConditionSpec;
        // Mutual post-conditions pass the graph-level consistency check but
        // generate ENR rules that raise each other's enabling event — a
        // synchronous rule loop the analyzer refuses.
        let mut g = PolicyGraph::new("t");
        g.role("a");
        g.role("b");
        g.post_conditions.push(PostConditionSpec {
            role: "a".into(),
            requires: "b".into(),
        });
        g.post_conditions.push(PostConditionSpec {
            role: "b".into(),
            requires: "a".into(),
        });
        assert!(instantiate(&g, Ts::ZERO).is_ok(), "ungated path accepts");
        let err = instantiate_verified(&g, Ts::ZERO, VerifyGate::DenyOnError).unwrap_err();
        match err {
            InstantiateError::Rejected(diags) => {
                assert!(!diags.is_empty());
                assert!(diags.iter().all(|d| d.severity == Severity::Error));
            }
            other => panic!("expected Rejected, got {other}"),
        }
        // With the gate off the report is returned for inspection instead.
        let (_, report) = instantiate_verified(&g, Ts::ZERO, VerifyGate::Off).unwrap();
        assert!(!report.proved_terminating());
    }

    #[test]
    fn variant_selection_follows_flags() {
        let mut g = PolicyGraph::new("v");
        g.role("lone");
        g.role("d1");
        g.role("d2");
        g.dsd_set("x", &["d1", "d2"], 2);
        g.role("top");
        g.role("mid");
        g.inherits("top", "mid");
        g.role("both");
        g.inherits("both", "d1"); // hmm: gives d1 hierarchy flag too
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        assert!(inst.pool.get_by_name("AAR1_lone").is_some());
        assert!(
            inst.pool.get_by_name("AAR4_d1").is_some(),
            "dsd + hierarchy"
        );
        assert!(inst.pool.get_by_name("AAR3_d2").is_some(), "dsd only");
        assert!(inst.pool.get_by_name("AAR2_top").is_some());
    }

    #[test]
    fn cardinality_rule_generated_only_when_capped() {
        let mut g = PolicyGraph::new("c");
        g.role("capped").max_active_users = Some(5);
        g.role("free");
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        assert!(inst.pool.get_by_name("CC_capped").is_some());
        assert!(inst.pool.get_by_name("CC_free").is_none());
        // The AAR for the capped role stages through the CC event.
        let aar = inst.pool.get_by_name("AAR1_capped").unwrap();
        assert!(matches!(
            aar.then.as_slice(),
            [ActionSpec::RaiseEvent { event, .. }] if event == "addSessionRole_capped"
        ));
    }

    #[test]
    fn temporal_rules_and_initial_state() {
        let mut g = PolicyGraph::new("t");
        g.role("shift").enabling = Some(crate::graph::DailyWindow {
            start_h: 8,
            start_m: 0,
            end_h: 16,
            end_m: 0,
        });
        // Start the clock at midnight: the role must begin disabled.
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        assert!(inst.pool.get_by_name("ENA_shift").is_some());
        assert!(inst.pool.get_by_name("DIS_shift").is_some());
        let rid = inst.binding.role("shift");
        assert!(!inst.system.is_enabled(rid).unwrap());
    }

    #[test]
    fn duration_rules_role_and_user() {
        let mut g = PolicyGraph::new("d");
        g.user("bob");
        g.role("r3").max_activation = Some(snoop::Dur::from_hours(4));
        g.role("r3")
            .per_user_activation
            .insert("bob".into(), snoop::Dur::from_hours(2));
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        assert!(inst.pool.get_by_name("DELTA_r3").is_some());
        assert!(inst.pool.get_by_name("CANCEL_r3").is_some());
        assert!(inst.pool.get_by_name("DELTAS_r3_bob").is_some());
        assert!(inst.pool.get_by_name("DELTA_r3_bob").is_some());
        assert!(inst.pool.get_by_name("CANCEL_r3_bob").is_some());
        assert_eq!(inst.stats.duration, 5);
        // Specialized granularity for the per-user rules.
        assert_eq!(
            inst.pool.get_by_name("DELTA_r3_bob").unwrap().granularity,
            Granularity::Specialized
        );
    }

    #[test]
    fn dependency_rules() {
        let mut g = PolicyGraph::new("dep");
        for r in ["SysAdmin", "SysAudit", "Manager", "JuniorEmp"] {
            g.role(r);
        }
        g.post_conditions.push(crate::graph::PostConditionSpec {
            role: "SysAdmin".into(),
            requires: "SysAudit".into(),
        });
        g.prerequisites.push(crate::graph::PrerequisiteSpec {
            role: "JuniorEmp".into(),
            requires_active: "Manager".into(),
        });
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        // CFD₁: enabling SysAdmin raises SysAudit's enable event.
        let enr = inst.pool.get_by_name("ENR_SysAdmin").unwrap();
        assert!(enr.then.iter().any(|a| matches!(
            a,
            ActionSpec::RaiseEvent { event, .. } if event == "enableRole_SysAudit"
        )));
        // CFD₂: SysAudit's failure path disables SysAdmin.
        let enr2 = inst.pool.get_by_name("ENR_SysAudit").unwrap();
        assert!(enr2
            .otherwise
            .iter()
            .any(|a| matches!(a, ActionSpec::DisableRole { .. })));
        // Rule 9: dropping Manager cascades to JuniorEmp.
        assert!(inst.pool.get_by_name("PREDROP_Manager").is_some());
        // And JuniorEmp's AAR requires Manager active.
        let aar = inst.pool.get_by_name("AAR1_JuniorEmp").unwrap();
        assert!(aar.when.to_string().contains("checkActive"));
    }

    #[test]
    fn security_rules_self_disable() {
        let mut g = PolicyGraph::new("s");
        g.security.push(crate::graph::SecuritySpec {
            name: "storm".into(),
            threshold: 10,
            window: snoop::Dur::from_secs(60),
            actions: vec![SecurityAction::Alert, SecurityAction::DisableActivityRules],
        });
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        let sec = inst.pool.get_by_name("SEC_storm").unwrap();
        assert_eq!(sec.class, RuleClass::ActiveSecurity);
        assert!(sec
            .then
            .iter()
            .any(|a| matches!(a, ActionSpec::DisableRule(n) if n == "SEC_storm")));
    }

    #[test]
    fn inconsistent_policy_rejected() {
        let mut g = PolicyGraph::new("bad");
        g.role("a");
        g.inherits("a", "ghost");
        assert!(matches!(
            instantiate(&g, Ts::ZERO),
            Err(InstantiateError::Inconsistent(_))
        ));
    }

    #[test]
    fn rule_pool_dump_is_owte_syntax() {
        let inst = xyz();
        let dump = inst.pool.dump();
        assert!(dump.contains("RULE [ AAR2_PC"));
        assert!(dump.contains("ELSE  raise error \"Access Denied Cannot Activate PC\""));
    }

    #[test]
    fn hundreds_of_roles_thousands_of_checks() {
        // The paper's scaling claim: hundreds of roles need thousands of
        // rules. 200 roles → ≥ 800 rules (4 per role) + globals.
        let mut g = PolicyGraph::new("big");
        for i in 0..200 {
            g.role(&format!("r{i}"));
        }
        let inst = instantiate(&g, Ts::ZERO).unwrap();
        assert!(inst.pool.len() >= 800);
        let stats = inst.pool.stats();
        assert!(stats.checks >= 1000, "thousands of condition checks");
    }
}
