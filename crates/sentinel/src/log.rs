//! The audit log: every rule firing, denial, alert and action failure.
//!
//! Active security needs history ("access requests … more than a certain
//! number of times within a duration"), administrators need reports, and the
//! tests need an observable record of what the rule system did.

use serde::{Deserialize, Serialize};
use snoop::{EventId, Ts};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditKind {
    /// A rule's conditions held and its Then actions ran.
    Fired,
    /// A rule's conditions failed and its Else actions ran.
    ElseTaken,
    /// A `raise error` action: the request was denied.
    Denied,
    /// An explicit `<allow>` action.
    Allowed,
    /// An active-security alert for the administrators.
    Alert,
    /// A state action was rejected by the monitor.
    ActionRejected,
    /// Rule machinery problem (missing parameter, unknown event, …).
    EngineError,
    /// Rules were enabled/disabled in bulk.
    RuleToggle,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditKind::Fired => "fired",
            AuditKind::ElseTaken => "else",
            AuditKind::Denied => "denied",
            AuditKind::Allowed => "allowed",
            AuditKind::Alert => "ALERT",
            AuditKind::ActionRejected => "action-rejected",
            AuditKind::EngineError => "engine-error",
            AuditKind::RuleToggle => "rule-toggle",
        };
        f.write_str(s)
    }
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Detector time of the triggering occurrence.
    pub time: Ts,
    /// Kind of record.
    pub kind: AuditKind,
    /// Rule that produced it, if any: the rule's own name, shared.
    #[serde(default, with = "crate::rule::shared_name::opt")]
    pub rule: Option<Arc<str>>,
    /// Triggering event.
    pub event: Option<EventId>,
    /// Free-form message (error text, alert text, …).
    pub message: String,
}

impl fmt::Display for AuditEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.time, self.kind)?;
        if let Some(r) = &self.rule {
            write!(f, " rule={r}")?;
        }
        if let Some(e) = &self.event {
            write!(f, " on={e}")?;
        }
        if !self.message.is_empty() {
            write!(f, ": {}", self.message)?;
        }
        Ok(())
    }
}

/// Audit log with simple query helpers and an optional retention cap.
///
/// Uncapped (the default) it is append-only. With a cap set, the oldest
/// entries are evicted as new ones arrive; running totals (`denial_count`,
/// `alert_count`, `total_len`) still count evicted entries, so
/// threshold-style queries stay correct after eviction. Only
/// `denials_since` and `entries` are limited to what is retained.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AuditLog {
    entries: VecDeque<AuditEntry>,
    /// Max retained entries; `None` = unbounded.
    #[serde(default)]
    cap: Option<usize>,
    /// Entries evicted by the cap, total.
    #[serde(default)]
    evicted: usize,
    /// Evicted entries that were denials.
    #[serde(default)]
    evicted_denials: usize,
    /// Evicted entries that were alerts.
    #[serde(default)]
    evicted_alerts: usize,
}

impl AuditLog {
    /// An empty, unbounded log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// An empty log retaining at most `cap` entries.
    pub fn with_cap(cap: usize) -> AuditLog {
        let mut log = AuditLog::default();
        log.set_cap(Some(cap));
        log
    }

    /// Change the retention cap (`None` = unbounded). Shrinking evicts the
    /// oldest entries immediately.
    ///
    /// A capped log is a ring of fixed size, so its buffer is reserved
    /// here, once, for `cap` entries, and `push` keeps it at that: it
    /// evicts before it appends, and a buffer that is too short (a clone's
    /// is as long as its contents) grows to the ring's size in one step.
    /// Grown by doubling, the ring would copy itself inside whichever
    /// operation crosses a power of two and end at up to twice the cap -
    /// and a full ring that appended before it evicted would get there for
    /// the one entry over, on its first push after every clone and every
    /// restore. Whether such a block (8 MiB for 65 536 entries) fits into
    /// the process's recycled heap is a matter of allocator layout:
    /// identical runs differed by 3 to 9 MiB of resident memory. A cap too
    /// large to reserve grows on demand instead.
    pub fn set_cap(&mut self, cap: Option<usize>) {
        self.cap = cap;
        self.enforce_cap();
        if let Some(cap) = cap {
            self.reserve_ring(cap);
        }
    }

    fn reserve_ring(&mut self, cap: usize) {
        let room = cap.saturating_sub(self.entries.len());
        let _ = self.entries.try_reserve_exact(room);
    }

    /// The retention cap in force.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    fn enforce_cap(&mut self) {
        if let Some(cap) = self.cap {
            self.evict_down_to(cap);
        }
    }

    fn evict_down_to(&mut self, keep: usize) {
        while self.entries.len() > keep {
            let Some(old) = self.entries.pop_front() else {
                break;
            };
            self.evicted += 1;
            match old.kind {
                AuditKind::Denied => self.evicted_denials += 1,
                AuditKind::Alert => self.evicted_alerts += 1,
                _ => {}
            }
        }
    }

    /// Append an entry; at the cap, the oldest is evicted first.
    pub fn push(&mut self, entry: AuditEntry) {
        if let Some(cap @ 1..) = self.cap {
            self.evict_down_to(cap - 1);
            if self.entries.len() == self.entries.capacity() {
                self.reserve_ring(cap);
            }
        }
        self.entries.push_back(entry);
        // A cap of zero retains nothing, the entry just pushed included.
        self.enforce_cap();
    }

    /// The retained entries in order (oldest first).
    pub fn entries(&self) -> &VecDeque<AuditEntry> {
        &self.entries
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total entries ever recorded, including evicted ones.
    pub fn total_len(&self) -> usize {
        self.entries.len() + self.evicted
    }

    /// Entries evicted by the retention cap so far.
    pub fn evicted_count(&self) -> usize {
        self.evicted
    }

    /// Is the log empty (nothing retained)?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained entries of one kind.
    pub fn of_kind(&self, kind: &AuditKind) -> impl Iterator<Item = &AuditEntry> {
        let kind = kind.clone();
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Total denials recorded, including evicted ones.
    pub fn denial_count(&self) -> usize {
        self.evicted_denials + self.of_kind(&AuditKind::Denied).count()
    }

    /// Total alerts recorded, including evicted ones.
    pub fn alert_count(&self) -> usize {
        self.evicted_alerts + self.of_kind(&AuditKind::Alert).count()
    }

    /// Denials with `time > since` (active-security sliding windows). Only
    /// retained entries are visible; size the cap above the largest window.
    pub fn denials_since(&self, since: Ts) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == AuditKind::Denied && e.time > since)
            .count()
    }

    /// Drop everything, including eviction totals (test hygiene between
    /// scenario phases). The cap itself is kept.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.evicted = 0;
        self.evicted_denials = 0;
        self.evicted_alerts = 0;
    }

    /// Render the whole log (administrator "report generation").
    pub fn report(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&e.to_string());
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: AuditKind, t: u64) -> AuditEntry {
        AuditEntry {
            time: Ts::from_secs(t),
            kind,
            rule: Some("r".into()),
            event: Some(EventId(1)),
            message: "m".into(),
        }
    }

    #[test]
    fn counts_and_windows() {
        let mut log = AuditLog::new();
        log.push(entry(AuditKind::Denied, 1));
        log.push(entry(AuditKind::Denied, 5));
        log.push(entry(AuditKind::Alert, 6));
        log.push(entry(AuditKind::Fired, 7));
        assert_eq!(log.denial_count(), 2);
        assert_eq!(log.alert_count(), 1);
        assert_eq!(log.denials_since(Ts::from_secs(1)), 1);
        assert_eq!(log.denials_since(Ts::ZERO), 2);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn retention_cap_evicts_but_totals_survive() {
        let mut log = AuditLog::with_cap(3);
        for t in 0..10 {
            let kind = if t % 2 == 0 {
                AuditKind::Denied
            } else {
                AuditKind::Alert
            };
            log.push(entry(kind, t));
        }
        assert_eq!(log.len(), 3, "only the cap is retained");
        assert_eq!(log.total_len(), 10);
        assert_eq!(log.evicted_count(), 7);
        // Totals count evicted entries: 5 denials (even t), 5 alerts.
        assert_eq!(log.denial_count(), 5);
        assert_eq!(log.alert_count(), 5);
        // The retained window is the newest entries.
        assert_eq!(log.entries().front().unwrap().time, Ts::from_secs(7));
        // Windowed queries see only the retained tail.
        assert_eq!(log.denials_since(Ts::ZERO), 1);
        log.clear();
        assert_eq!(log.denial_count(), 0);
        assert_eq!(log.cap(), Some(3), "cap survives clear");
    }

    #[test]
    fn capped_log_never_reallocates() {
        let mut log = AuditLog::with_cap(100);
        let reserved = log.entries.capacity();
        assert!(reserved >= 100, "room for the cap");
        for t in 0..1000 {
            log.push(entry(AuditKind::Fired, t));
        }
        assert_eq!((log.len(), log.entries.capacity()), (100, reserved));
        // Neither does a full ring whose buffer has no slot to spare, as
        // after a clone or a restore.
        let mut full = AuditLog::with_cap(64);
        for t in 0..64 {
            full.push(entry(AuditKind::Denied, t));
        }
        full.entries.shrink_to_fit();
        let exact = full.entries.capacity();
        for t in 64..200 {
            full.push(entry(AuditKind::Fired, t));
        }
        assert_eq!((full.len(), full.entries.capacity()), (64, exact));
        assert_eq!((full.evicted_count(), full.denial_count()), (136, 64));
        // A part-full clone grows once, to the ring and not past it.
        let mut part = AuditLog::with_cap(1000);
        for t in 0..600 {
            part.push(entry(AuditKind::Fired, t));
        }
        let mut copy = part.clone();
        assert!(
            copy.entries.capacity() < 1000,
            "a clone is as long as its contents"
        );
        copy.push(entry(AuditKind::Fired, 600));
        let ring = copy.entries.capacity();
        assert!(
            (1000..1200).contains(&ring),
            "{ring}: the ring, not twice the contents"
        );
        for t in 601..3000 {
            copy.push(entry(AuditKind::Fired, t));
        }
        assert_eq!((copy.len(), copy.entries.capacity()), (1000, ring));
        // A cap of zero retains nothing and still counts.
        let mut none = AuditLog::with_cap(0);
        none.push(entry(AuditKind::Alert, 0));
        assert_eq!(
            (none.len(), none.total_len(), none.alert_count()),
            (0, 1, 1)
        );
        // A cap that cannot be reserved is still a cap.
        let mut huge = AuditLog::with_cap(usize::MAX);
        huge.push(entry(AuditKind::Fired, 0));
        assert_eq!((huge.len(), huge.cap()), (1, Some(usize::MAX)));
    }

    #[test]
    fn shrinking_cap_evicts_immediately() {
        let mut log = AuditLog::new();
        for t in 0..5 {
            log.push(entry(AuditKind::Denied, t));
        }
        assert_eq!(log.denial_count(), 5);
        log.set_cap(Some(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.denial_count(), 5, "totals unchanged by eviction");
        log.set_cap(None);
        log.push(entry(AuditKind::Denied, 9));
        assert_eq!(log.len(), 3);
        assert_eq!(log.denial_count(), 6);
    }

    #[test]
    fn report_formats_entries() {
        let mut log = AuditLog::new();
        log.push(entry(AuditKind::Alert, 3));
        let r = log.report();
        assert!(r.contains("ALERT"));
        assert!(r.contains("rule=r"));
        assert!(r.contains("on=E1"));
        log.clear();
        assert!(log.is_empty());
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn audit_log_serializes_round_trip() {
        let mut log = AuditLog::new();
        log.push(AuditEntry {
            time: Ts::from_secs(1),
            kind: AuditKind::Denied,
            rule: Some("AAR2_PC".into()),
            event: Some(EventId(7)),
            message: "Access Denied".into(),
        });
        let json = serde_json::to_string(&log).unwrap();
        let back: AuditLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries(), log.entries());
    }
}
