//! The OWTE rule: On–When–Then–Else (§3 of the paper).
//!
//! A rule has five components: a name, an event ("O"), conditions ("W"),
//! actions ("T", run when the conditions hold) and *alternative actions*
//! ("E", run when they do not) — the extension over plain ECA that makes
//! denial-side behaviour (raise error, alert, cascade-deactivate) first
//! class.

use crate::lang::{ActionSpec, CondExpr};
use serde::{Deserialize, Serialize};
use snoop::EventId;
use std::fmt;
use std::sync::Arc;

/// Serde for a shared name (`Arc<str>`) as the plain string a `String`
/// field wrote; [`shared_name::opt`] does the same for an optional one.
pub(crate) mod shared_name {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::sync::Arc;

    pub fn serialize<S: Serializer>(name: &Arc<str>, s: S) -> Result<S::Ok, S::Error> {
        str::serialize(name, s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Arc<str>, D::Error> {
        String::deserialize(d).map(Arc::from)
    }

    pub mod opt {
        use serde::{Deserialize, Deserializer, Serialize, Serializer};
        use std::sync::Arc;

        pub fn serialize<S: Serializer>(name: &Option<Arc<str>>, s: S) -> Result<S::Ok, S::Error> {
            name.as_deref().serialize(s)
        }

        pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Option<Arc<str>>, D::Error> {
            Ok(Option::<String>::deserialize(d)?.map(Arc::from))
        }
    }
}

/// Index of a rule in a [`crate::pool::RulePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RuleId(pub u32);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// The paper's three rule-pool classifications (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleClass {
    /// Used with high-level specification of access control policies
    /// (assignments, grants, …).
    Administrative,
    /// Controls the activities of users (activations, access checks,
    /// cardinality, …).
    ActivityControl,
    /// Monitors state changes and takes preventive measures.
    ActiveSecurity,
}

impl fmt::Display for RuleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleClass::Administrative => "administrative",
            RuleClass::ActivityControl => "activity-control",
            RuleClass::ActiveSecurity => "active-security",
        };
        f.write_str(s)
    }
}

/// The paper's rule granularities (§4.3): how widely a generated rule
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// Specific to one user instance (e.g. "Jane ≤ 5 active roles").
    Specialized,
    /// Specific to one role, derived from role properties (e.g. "≤ 5 users
    /// active in Programmer").
    Localized,
    /// Generic; invoked with different parameters (e.g. the check-access
    /// rule).
    Globalized,
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Granularity::Specialized => "specialized",
            Granularity::Localized => "localized",
            Granularity::Globalized => "globalized",
        };
        f.write_str(s)
    }
}

/// An active authorization rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Rule name (`R_name`), unique within a pool. One allocation per rule,
    /// shared with the compiled plan and with every audit entry the rule
    /// writes, which therefore costs a reference count, not a copy.
    #[serde(with = "shared_name")]
    pub name: Arc<str>,
    /// "O": the (possibly composite) event that triggers the rule.
    pub event: EventId,
    /// "W": conditions checked when the event occurs.
    pub when: CondExpr,
    /// "T": actions when the conditions evaluate to TRUE.
    pub then: Vec<ActionSpec>,
    /// "E": alternative actions when they evaluate to FALSE.
    pub otherwise: Vec<ActionSpec>,
    /// Higher priority fires first among rules on the same event.
    pub priority: i32,
    /// Disabled rules are skipped (active-security responses flip this).
    pub enabled: bool,
    /// Pool classification.
    pub class: RuleClass,
    /// Generation granularity.
    pub granularity: Granularity,
}

impl Rule {
    /// A new enabled activity-control, localized rule with default priority.
    pub fn new(name: impl Into<Arc<str>>, event: EventId, when: CondExpr) -> Rule {
        Rule {
            name: name.into(),
            event,
            when,
            then: Vec::new(),
            otherwise: Vec::new(),
            priority: 0,
            enabled: true,
            class: RuleClass::ActivityControl,
            granularity: Granularity::Localized,
        }
    }

    /// Builder: set the Then actions.
    pub fn then(mut self, actions: Vec<ActionSpec>) -> Rule {
        self.then = actions;
        self
    }

    /// Builder: set the Else (alternative) actions.
    pub fn otherwise(mut self, actions: Vec<ActionSpec>) -> Rule {
        self.otherwise = actions;
        self
    }

    /// Builder: set the priority.
    pub fn priority(mut self, p: i32) -> Rule {
        self.priority = p;
        self
    }

    /// Builder: set the class.
    pub fn class(mut self, c: RuleClass) -> Rule {
        self.class = c;
        self
    }

    /// Builder: set the granularity.
    pub fn granularity(mut self, g: Granularity) -> Rule {
        self.granularity = g;
        self
    }

    /// Render in the paper's OWTE syntax.
    pub fn to_owte_string(&self) -> String {
        self.to_owte_string_named(|_| None)
    }

    /// Render in OWTE syntax with a resolver mapping event ids to names
    /// (usually [`snoop::Detector::name_of`]), so the `ON` clause reads
    /// `addActiveRole_PC` instead of `E7`.
    pub fn to_owte_string_named(&self, resolve: impl Fn(EventId) -> Option<String>) -> String {
        let event = resolve(self.event).unwrap_or_else(|| self.event.to_string());
        let mut s = format!("RULE [ {}\n", self.name);
        s.push_str(&format!("  ON    {event}\n"));
        s.push_str(&format!("  WHEN  {}\n", self.when));
        if !self.then.is_empty() {
            s.push_str("  THEN  ");
            for (i, a) in self.then.iter().enumerate() {
                if i > 0 {
                    s.push_str("; ");
                }
                s.push_str(&a.to_string());
            }
            s.push('\n');
        }
        if !self.otherwise.is_empty() {
            s.push_str("  ELSE  ");
            for (i, a) in self.otherwise.iter().enumerate() {
                if i > 0 {
                    s.push_str("; ");
                }
                s.push_str(&a.to_string());
            }
            s.push('\n');
        }
        s.push(']');
        s
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_owte_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{Check, ParamRef};

    #[test]
    fn owte_rendering() {
        let r = Rule::new(
            "AAR_1",
            EventId(2),
            CondExpr::All(vec![
                CondExpr::check(Check::UserExists(ParamRef::param("user"))),
                CondExpr::check(Check::Assigned {
                    user: ParamRef::param("user"),
                    role: ParamRef::Int(1),
                }),
            ]),
        )
        .then(vec![ActionSpec::AddSessionRole {
            user: ParamRef::param("user"),
            session: ParamRef::param("sessionId"),
            role: ParamRef::Int(1),
        }])
        .otherwise(vec![ActionSpec::RaiseError(
            "Access Denied Cannot Activate".into(),
        )]);
        let text = r.to_owte_string();
        assert!(text.starts_with("RULE [ AAR_1"));
        assert!(text.contains("ON    E2"));
        assert!(text.contains("WHEN  (user IN userL) && (checkAssigned(user, 1))"));
        assert!(text.contains("THEN  addSessionRole(sessionId, 1)"));
        assert!(text.contains("ELSE  raise error \"Access Denied Cannot Activate\""));
    }

    #[test]
    fn builder_defaults() {
        let r = Rule::new("x", EventId(0), CondExpr::True)
            .priority(5)
            .class(RuleClass::ActiveSecurity)
            .granularity(Granularity::Globalized);
        assert!(r.enabled);
        assert_eq!(r.priority, 5);
        assert_eq!(r.class, RuleClass::ActiveSecurity);
        assert_eq!(r.granularity, Granularity::Globalized);
        assert_eq!(r.class.to_string(), "active-security");
        assert_eq!(r.granularity.to_string(), "globalized");
    }
}
