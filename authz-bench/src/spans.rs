//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary: one
//! per call into a deployment's public operation, with the storage calls
//! that operation makes as its children (see
//! [`crate::timed_storage::TimedStorage`]). They are kept in memory and
//! written out once, after measuring. A layer's self time is its span
//! minus its children.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Marker for "no parent".
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `op.check` or `storage.sync`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
}

/// Span sink for one thread.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    /// Spans kept; later ones are counted but not stored.
    cap: usize,
    dropped: u64,
    /// The open operation span children attach to.
    current: u32,
}

/// A recorder shared between a workload loop and the storage wrapper
/// underneath the engine it drives.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// A recorder that keeps at most `cap` spans. Starts disabled.
    pub fn new(cap: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            cap,
            dropped: 0,
            current: NO_PARENT,
        }
    }

    /// [`Recorder::new`] behind the handle the storage wrapper takes.
    pub fn shared(cap: usize) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder::new(cap)))
    }

    /// A recorder on the same clock, for another thread of the same run.
    pub fn sibling(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            ..Recorder::new(self.cap)
        }
    }

    /// Append a sibling's spans (as far as the cap allows).
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut span in other.spans {
            if span.parent != NO_PARENT {
                span.parent += offset;
            }
            if self.spans.len() < self.cap {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Turn recording on or off. The first enabling reserves the memory,
    /// so an untraced run never pays for it.
    pub fn set_enabled(&mut self, on: bool) {
        if on && self.spans.capacity() == 0 {
            self.spans.reserve_exact(self.cap);
        }
        self.enabled = on;
    }

    /// Is recording on?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() < self.cap {
            self.spans.push(span);
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        }
    }

    /// Open an operation span at `start`; storage spans recorded until
    /// [`Recorder::end_op`] become its children.
    #[inline]
    pub fn begin_op(&mut self, name: &'static str, start: Instant) {
        if self.enabled {
            let start_ns = self.ns(start);
            self.current = self.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: NO_PARENT,
            });
        }
    }

    /// Close the open operation span at `end`.
    #[inline]
    pub fn end_op(&mut self, end: Instant) {
        if self.enabled {
            let end_ns = self.ns(end);
            if let Some(span) = self.spans.get_mut(self.current as usize) {
                span.end_ns = end_ns;
            }
            self.current = NO_PARENT;
        }
    }

    /// Record a finished child of the open operation span.
    #[inline]
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.current,
            };
            self.push(span);
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded, including the ones beyond the cap.
    pub fn total(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Total self time (duration minus children) per span name, in
    /// nanoseconds, with the span count.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = child_ns.get_mut(s.parent as usize) {
                *slot += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*children);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += own;
                    row.2 += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 72);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent == NO_PARENT {
                out.push_str("null}");
            } else {
                let _ = write!(out, "{}}}", s.parent);
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_attach_to_the_open_op_and_self_time_excludes_them() {
        let mut r = Recorder::new(16);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        r.begin_op("op.check", at(0));
        r.child("storage.append", at(1), at(2));
        assert!(r.spans().is_empty(), "disabled recorder keeps nothing");
        r.set_enabled(true);
        r.begin_op("op.add", at(10));
        r.child("storage.append", at(11), at(13));
        r.child("storage.sync", at(13), at(18));
        r.end_op(at(20));
        r.child("storage.sync", at(30), at(31));
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, NO_PARENT, "no op is open");
        let own = r.self_times();
        let op = own.iter().find(|(n, _, _)| *n == "op.add").unwrap();
        assert_eq!((op.1, op.2), (3_000, 1), "10 us minus 7 us of children");
        let json = r.to_json("w");
        assert!(json.contains("\"name\":\"storage.sync\""));
        assert!(json.contains("\"parent\":null"));
    }

    #[test]
    fn cap_counts_what_it_drops() {
        let mut r = Recorder::new(2);
        r.set_enabled(true);
        let t = Instant::now();
        for _ in 0..5 {
            r.begin_op("op", t);
            r.end_op(t);
        }
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.total(), 5);
    }
}
