//! The rule pool: "all the active authorization rules that are generated
//! form a *rule pool*" (§4.3).
//!
//! Rules are indexed by triggering event and ordered by priority; pools know
//! their classification/granularity breakdown and support the bulk
//! enable/disable the active-security rules perform ("some critical
//! authorization rules are disabled").

use crate::rule::{Granularity, Rule, RuleClass, RuleId};
use serde::{Deserialize, Serialize};
use snoop::EventId;
use std::collections::HashMap;
use std::sync::Arc;

/// An indexed collection of OWTE rules.
///
/// Rules are stored behind [`Arc`] so the executor's per-dispatch rule
/// snapshot is a refcount bump, not a deep clone of the condition/action
/// trees; mutation paths go through [`Arc::make_mut`] (copy-on-write, so
/// a snapshot taken mid-dispatch stays consistent).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RulePool {
    rules: Vec<Arc<Rule>>,
    by_event: HashMap<EventId, Vec<RuleId>>,
    by_name: HashMap<String, RuleId>,
}

/// Counts per classification and granularity (pool statistics for the
/// rule-generation experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total rules.
    pub total: usize,
    /// Enabled rules.
    pub enabled: usize,
    /// Administrative rules.
    pub administrative: usize,
    /// Activity-control rules.
    pub activity_control: usize,
    /// Active-security rules.
    pub active_security: usize,
    /// Specialized rules.
    pub specialized: usize,
    /// Localized rules.
    pub localized: usize,
    /// Globalized rules.
    pub globalized: usize,
    /// Total atomic checks across all conditions.
    pub checks: usize,
}

impl RulePool {
    /// An empty pool.
    pub fn new() -> RulePool {
        RulePool::default()
    }

    /// Add a rule; names must be unique (replaces any same-named rule, so
    /// regeneration can overwrite in place).
    pub fn add(&mut self, rule: Rule) -> RuleId {
        if let Some(&existing) = self.by_name.get(&*rule.name) {
            let old_event = self.rules[existing.0 as usize].event;
            if old_event != rule.event {
                if let Some(v) = self.by_event.get_mut(&old_event) {
                    v.retain(|&r| r != existing);
                }
                self.by_event.entry(rule.event).or_default().push(existing);
            }
            self.rules[existing.0 as usize] = Arc::new(rule);
            self.resort(self.rules[existing.0 as usize].event);
            return existing;
        }
        let id = RuleId(u32::try_from(self.rules.len()).expect("rule count fits u32"));
        self.by_name.insert(rule.name.to_string(), id);
        self.by_event.entry(rule.event).or_default().push(id);
        self.rules.push(Arc::new(rule));
        self.resort(self.rules[id.0 as usize].event);
        id
    }

    fn resort(&mut self, event: EventId) {
        if let Some(ids) = self.by_event.get_mut(&event) {
            ids.sort_by_key(|&id| (std::cmp::Reverse(self.rules[id.0 as usize].priority), id));
        }
    }

    /// Remove a rule by name. Returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(&id) = self.by_name.get(name) else {
            return false;
        };
        // Tombstone: disable and strip from the event index (ids stay
        // stable so the audit log's references remain valid).
        let event = self.rules[id.0 as usize].event;
        if let Some(v) = self.by_event.get_mut(&event) {
            v.retain(|&r| r != id);
        }
        self.by_name.remove(name);
        Arc::make_mut(&mut self.rules[id.0 as usize]).enabled = false;
        true
    }

    /// Rule ids triggered by `event`, highest priority first (enabled and
    /// disabled alike; the executor filters).
    pub fn triggered_by(&self, event: EventId) -> &[RuleId] {
        self.by_event.get(&event).map_or(&[], Vec::as_slice)
    }

    /// Fetch a rule.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(id.0 as usize).map(Arc::as_ref)
    }

    /// Fetch a shared handle to a rule (cheap clone for dispatch
    /// snapshots).
    pub fn get_arc(&self, id: RuleId) -> Option<Arc<Rule>> {
        self.rules.get(id.0 as usize).cloned()
    }

    /// Fetch a rule by name.
    pub fn get_by_name(&self, name: &str) -> Option<&Rule> {
        self.by_name
            .get(name)
            .map(|&id| self.rules[id.0 as usize].as_ref())
    }

    /// Look up a rule id by name.
    pub fn id_of(&self, name: &str) -> Option<RuleId> {
        self.by_name.get(name).copied()
    }

    /// Enable or disable one rule by name. Returns whether it existed.
    pub fn set_enabled(&mut self, name: &str, on: bool) -> bool {
        match self.by_name.get(name) {
            Some(&id) => {
                Arc::make_mut(&mut self.rules[id.0 as usize]).enabled = on;
                true
            }
            None => false,
        }
    }

    /// Enable or disable every rule of a class. Returns how many changed.
    pub fn set_class_enabled(&mut self, class: RuleClass, on: bool) -> usize {
        let mut n = 0;
        let named: Vec<RuleId> = self.by_name.values().copied().collect();
        for id in named {
            let r = &self.rules[id.0 as usize];
            if r.class == class && r.enabled != on {
                Arc::make_mut(&mut self.rules[id.0 as usize]).enabled = on;
                n += 1;
            }
        }
        n
    }

    /// Iterate over live (non-removed) rules.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.iter_shared().map(|(id, rule)| (id, rule.as_ref()))
    }

    /// [`RulePool::iter`] over the shared handles themselves: a slot keeps
    /// its `Arc` until the rule is replaced or mutated, which is how the
    /// compiled plan recognizes a rule it has already lowered.
    pub fn iter_shared(&self) -> impl Iterator<Item = (RuleId, &Arc<Rule>)> {
        self.by_name
            .values()
            .map(move |&id| (id, &self.rules[id.0 as usize]))
    }

    /// Number of live rules.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Classification/granularity statistics.
    pub fn stats(&self) -> PoolStats {
        let mut s = PoolStats::default();
        for (_, r) in self.iter() {
            s.total += 1;
            if r.enabled {
                s.enabled += 1;
            }
            match r.class {
                RuleClass::Administrative => s.administrative += 1,
                RuleClass::ActivityControl => s.activity_control += 1,
                RuleClass::ActiveSecurity => s.active_security += 1,
            }
            match r.granularity {
                Granularity::Specialized => s.specialized += 1,
                Granularity::Localized => s.localized += 1,
                Granularity::Globalized => s.globalized += 1,
            }
            s.checks += r.when.check_count();
        }
        s
    }

    /// Render every live rule in OWTE syntax (sorted by name for stable
    /// golden-file comparisons).
    pub fn dump(&self) -> String {
        let mut names: Vec<&String> = self.by_name.keys().collect();
        names.sort();
        let mut out = String::new();
        for n in names {
            out.push_str(&self.get_by_name(n).expect("name indexed").to_owte_string());
            out.push_str("\n\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::CondExpr;

    fn rule(name: &str, event: u32, prio: i32) -> Rule {
        Rule::new(name, EventId(event), CondExpr::True).priority(prio)
    }

    #[test]
    fn add_and_lookup() {
        let mut p = RulePool::new();
        let a = p.add(rule("a", 1, 0));
        assert_eq!(p.id_of("a"), Some(a));
        assert_eq!(p.len(), 1);
        assert_eq!(p.triggered_by(EventId(1)), &[a]);
        assert!(p.triggered_by(EventId(9)).is_empty());
    }

    #[test]
    fn priority_ordering() {
        let mut p = RulePool::new();
        let low = p.add(rule("low", 1, 0));
        let high = p.add(rule("high", 1, 10));
        assert_eq!(p.triggered_by(EventId(1)), &[high, low]);
    }

    #[test]
    fn same_name_replaces() {
        let mut p = RulePool::new();
        let id1 = p.add(rule("x", 1, 0));
        let id2 = p.add(rule("x", 2, 0));
        assert_eq!(id1, id2, "regeneration reuses the slot");
        assert!(p.triggered_by(EventId(1)).is_empty());
        assert_eq!(p.triggered_by(EventId(2)), &[id1]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn remove_tombstones() {
        let mut p = RulePool::new();
        p.add(rule("x", 1, 0));
        assert!(p.remove("x"));
        assert!(!p.remove("x"));
        assert_eq!(p.len(), 0);
        assert!(p.triggered_by(EventId(1)).is_empty());
    }

    #[test]
    fn class_enable_disable() {
        let mut p = RulePool::new();
        p.add(rule("a", 1, 0).class(RuleClass::ActiveSecurity));
        p.add(rule("b", 1, 0).class(RuleClass::ActivityControl));
        p.add(rule("c", 2, 0).class(RuleClass::ActivityControl));
        assert_eq!(p.set_class_enabled(RuleClass::ActivityControl, false), 2);
        assert_eq!(p.stats().enabled, 1);
        assert_eq!(p.set_class_enabled(RuleClass::ActivityControl, true), 2);
        assert!(p.set_enabled("a", false));
        assert!(!p.set_enabled("zz", false));
    }

    #[test]
    fn stats_counts() {
        let mut p = RulePool::new();
        p.add(rule("a", 1, 0).class(RuleClass::Administrative));
        p.add(
            rule("b", 1, 0)
                .class(RuleClass::ActiveSecurity)
                .granularity(Granularity::Globalized),
        );
        let s = p.stats();
        assert_eq!(s.total, 2);
        assert_eq!(s.administrative, 1);
        assert_eq!(s.active_security, 1);
        assert_eq!(s.globalized, 1);
        assert_eq!(s.localized, 1);
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let mut p = RulePool::new();
        p.add(rule("zeta", 1, 0));
        p.add(rule("alpha", 1, 0));
        let d = p.dump();
        let zi = d.find("zeta").unwrap();
        let ai = d.find("alpha").unwrap();
        assert!(ai < zi);
        assert_eq!(d, p.dump());
    }
}
