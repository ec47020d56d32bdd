//! The event detector: owns the event graph, the virtual clock and the timer
//! queue, and propagates occurrences bottom-up.
//!
//! This plays the role of Sentinel's *event detector* ("responsible for
//! processing all the notifications from different objects and eventually
//! signaling to the rules that some event has occurred"). Rules are outside
//! this crate: callers mark the events they care about with [`Detector::watch`]
//! and receive [`Detection`]s back from [`Detector::raise`] / [`Detector::advance_to`].
//!
//! Two kinds of primitive need no [`Occurrence`] at all, and the detector
//! says which ones they are: a *leaf* — watched, no composite subscribes to
//! it — whose only detection is its own occurrence
//! ([`Detector::deliver_leaf`] counts it and leaves the parameters with the
//! caller), and an *inert* primitive — unwatched, no composite subscribes
//! to it — whose raise detects nothing ([`Detector::raise_inert`] only
//! counts it). Everything that feeds a composite goes through
//! [`Detector::deliver`].

use crate::builder::EventExpr;
use crate::calendar::CalendarExpr;
use crate::context::Context;
use crate::event::{Detection, EventId, Occurrence, Params};
use crate::node::{BinState, NodeOutput, NodeState, Slot, TimerReq, WindowedState};
use crate::time::{Dur, Ts};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Errors from detector operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorError {
    /// Raising or referencing an event name that was never defined.
    UnknownEvent(String),
    /// Raising a non-primitive event directly.
    NotPrimitive(EventId),
    /// Attempted to move the clock backwards.
    ClockRegression {
        /// The clock's current position.
        now: Ts,
        /// The earlier time requested.
        requested: Ts,
    },
    /// A name was defined twice with different meanings.
    DuplicateName(String),
    /// An operation that only applies to composite events was attempted
    /// on a primitive (e.g. [`Detector::retire`]).
    NotComposite(EventId),
}

impl fmt::Display for DetectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorError::UnknownEvent(n) => write!(f, "unknown event {n:?}"),
            DetectorError::NotPrimitive(id) => {
                write!(f, "event {id} is composite and cannot be raised directly")
            }
            DetectorError::ClockRegression { now, requested } => {
                write!(f, "clock regression: now={now}, requested={requested}")
            }
            DetectorError::DuplicateName(n) => write!(f, "event name {n:?} already defined"),
            DetectorError::NotComposite(id) => {
                write!(f, "event {id} is primitive and cannot be retired")
            }
        }
    }
}

impl std::error::Error for DetectorError {}

/// What one raise delivered (see [`Detector::deliver`]).
#[derive(Debug)]
pub enum Delivered {
    /// The raised primitive's own occurrence, its only detection.
    One(Occurrence),
    /// The detections propagation found, in order; possibly none.
    Many(Vec<Detection>),
}

impl Delivered {
    /// The delivery as the detection list [`Detector::raise`] returns.
    pub fn into_vec(self) -> Vec<Detection> {
        match self {
            Delivered::One(occurrence) => vec![Detection { occurrence }],
            Delivered::Many(detections) => detections,
        }
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct Node {
    state: NodeState,
    context: Context,
    /// Parent nodes subscribed to this node's occurrences, with the slot
    /// each subscription feeds.
    parents: Vec<(EventId, Slot)>,
    /// Deliver detections of this node to the caller.
    watched: bool,
    /// Human-readable label (primitive name or operator description).
    label: String,
    /// `[id]`, the source list of every occurrence of a leaf (primitive
    /// or calendar) node: built by the first one and shared by reference
    /// count from then on.
    #[serde(skip)]
    own_sources: Option<Arc<Vec<EventId>>>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Timer {
    node: EventId,
    req: TimerReq,
}

/// One generation-tagged slot in the timer slab.
///
/// Heap entries carry `(generation, index)` packed into a `u64`; freeing a
/// slot (timer fired or cancelled) bumps the generation, so stale heap
/// entries are detected and skipped lazily. Freed slots go on a free list
/// and are reused, keeping slab size bounded by the high-water mark of
/// *concurrent* timers rather than growing with schedule/cancel history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct TimerSlot {
    gen: u32,
    timer: Option<Timer>,
}

fn pack_timer_key(gen: u32, idx: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(idx)
}

fn unpack_timer_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Structural key for hash-consing composite nodes (common subexpression
/// sharing across generated rules — large rule pools share event graphs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum NodeKey {
    And(EventId, EventId, Context),
    Or(EventId, EventId, Context),
    Seq(EventId, EventId, Context),
    Not(EventId, EventId, EventId, Context),
    Aperiodic(EventId, EventId, EventId, Context, bool),
    Periodic(EventId, u64, EventId, Context, bool),
    Plus(EventId, u64, Context),
    Calendar(String),
}

/// The composite event detector.
///
/// A raise goes through [`Detector::deliver`] (or [`Detector::raise`]),
/// except for two kinds of primitive that no composite subscribes to: a
/// watched *leaf*, whose one detection is its own occurrence, which
/// [`Detector::deliver_leaf`] counts and leaves to the caller to bind, and
/// an *inert* primitive ([`Detector::is_inert`]: not watched either),
/// whose raise [`Detector::raise_inert`] only counts. Both answer from the
/// event graph as it is at the call, so they stay right across policy
/// changes.
///
/// Serializable: the durable engine's snapshots persist the full detector
/// state (graph, buffered partial detections, pending timers, clock), so a
/// deserialized detector resumes exactly where the serialized one stopped.
#[derive(Clone, Serialize, Deserialize)]
pub struct Detector {
    nodes: Vec<Node>,
    by_name: HashMap<String, EventId>,
    /// Hash-consing table. Its keys are structural (an enum), which JSON
    /// map keys cannot express, so it is serialized as a pair list.
    #[serde(with = "serde_interned")]
    interned: HashMap<NodeKey, EventId>,
    timers: Vec<TimerSlot>,
    /// Indices of free slab slots, reused before the slab grows.
    free_timers: Vec<u32>,
    /// Timers scheduled and not yet fired or cancelled.
    live_timers: usize,
    /// Serialized as a sorted `Vec<(Ts, u64)>`; rebuilt into a heap on load.
    /// The `u64` packs a slab `(generation, index)` pair.
    #[serde(with = "serde_timer_queue")]
    timer_queue: BinaryHeap<Reverse<(Ts, u64)>>,
    now: Ts,
    /// Per-node occurrence buffer cap.
    buffer_cap: usize,
    /// Counts of raised primitives / detected composites (for stats).
    raised: u64,
    detected: u64,
}

impl Detector {
    /// A detector whose clock starts at `start`.
    pub fn new(start: Ts) -> Detector {
        Detector {
            nodes: Vec::new(),
            by_name: HashMap::new(),
            interned: HashMap::new(),
            timers: Vec::new(),
            free_timers: Vec::new(),
            live_timers: 0,
            timer_queue: BinaryHeap::new(),
            now: start,
            buffer_cap: 4096,
            raised: 0,
            detected: 0,
        }
    }

    /// Change the per-node buffer cap (Unrestricted contexts are unbounded
    /// in theory; the cap keeps memory bounded, evicting oldest).
    pub fn set_buffer_cap(&mut self, cap: usize) {
        self.buffer_cap = cap.max(1);
    }

    /// Current logical time.
    pub fn now(&self) -> Ts {
        self.now
    }

    /// Number of event-graph nodes (primitive + composite).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Primitive occurrences raised so far.
    pub fn raised_count(&self) -> u64 {
        self.raised
    }

    /// Watched detections delivered so far.
    pub fn detected_count(&self) -> u64 {
        self.detected
    }

    /// Define (or look up) a named primitive event.
    pub fn primitive(&mut self, name: &str) -> EventId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.push(Node {
            state: NodeState::Primitive {
                name: name.to_string(),
            },
            context: Context::Recent,
            parents: Vec::new(),
            watched: false,
            label: name.to_string(),
            own_sources: None,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up an event by name.
    pub fn lookup(&self, name: &str) -> Option<EventId> {
        self.by_name.get(name).copied()
    }

    /// The label of an event (primitive name or operator sketch).
    pub fn label(&self, id: EventId) -> &str {
        &self.nodes[id.0 as usize].label
    }

    /// The registered name of an event, if it has one (primitives always
    /// do; composites only when [`Detector::name`]d). Unlike labels, names
    /// are stable across detectors built from the same policy, so they make
    /// good fingerprints.
    pub fn name_of(&self, id: EventId) -> Option<&str> {
        if let NodeState::Primitive { name } = &self.nodes.get(id.0 as usize)?.state {
            return Some(name);
        }
        self.by_name
            .iter()
            .find(|(_, &v)| v == id)
            .map(|(k, _)| k.as_str())
    }

    /// Give a composite event a name (so rules can refer to it).
    pub fn name(&mut self, id: EventId, name: &str) -> Result<(), DetectorError> {
        match self.by_name.get(name) {
            Some(&existing) if existing != id => {
                Err(DetectorError::DuplicateName(name.to_string()))
            }
            _ => {
                self.by_name.insert(name.to_string(), id);
                Ok(())
            }
        }
    }

    /// Remove a composite event's name binding, returning the id it was
    /// bound to. Primitive names are identity and cannot be removed.
    ///
    /// Policy regeneration uses this to retarget a deterministic name
    /// (e.g. `delta_<role>`) to a replacement node when the underlying
    /// expression changed.
    pub fn unname(&mut self, name: &str) -> Option<EventId> {
        let &id = self.by_name.get(name)?;
        if matches!(self.nodes[id.0 as usize].state, NodeState::Primitive { .. }) {
            return None;
        }
        self.by_name.remove(name)
    }

    /// Permanently detach a composite node from the event graph: its
    /// pending timers are cancelled, no child occurrence will feed it
    /// again, its name bindings are removed, and it leaves the
    /// hash-consing table so an identical later [`Detector::define`]
    /// builds a fresh live node. The node's slot remains (event ids are
    /// stable for the audit log) but it can never fire again.
    ///
    /// Returns the number of timers cancelled. Retiring a primitive is
    /// refused ([`DetectorError::NotComposite`]): rules raise primitives
    /// by name, so their bindings must stay.
    pub fn retire(&mut self, id: EventId) -> Result<usize, DetectorError> {
        let node = self
            .nodes
            .get(id.0 as usize)
            .ok_or_else(|| DetectorError::UnknownEvent(id.to_string()))?;
        if matches!(node.state, NodeState::Primitive { .. }) {
            return Err(DetectorError::NotComposite(id));
        }
        let cancelled = self.cancel_timers(id);
        for n in &mut self.nodes {
            n.parents.retain(|&(p, _)| p != id);
        }
        self.interned.retain(|_, v| *v != id);
        self.by_name.retain(|_, v| *v != id);
        self.nodes[id.0 as usize].watched = false;
        Ok(cancelled)
    }

    /// Build the node graph for `expr`, sharing structurally identical
    /// subgraphs, and return the root id.
    pub fn define(&mut self, expr: &EventExpr) -> Result<EventId, DetectorError> {
        let ctx = Context::default();
        self.define_in(expr, ctx)
    }

    fn define_in(&mut self, expr: &EventExpr, ctx: Context) -> Result<EventId, DetectorError> {
        match expr {
            EventExpr::Named(name) => self
                .by_name
                .get(name.as_str())
                .copied()
                .ok_or_else(|| DetectorError::UnknownEvent(name.clone())),
            EventExpr::Primitive(name) => Ok(self.primitive(name)),
            EventExpr::WithContext(inner, c) => self.define_in(inner, *c),
            EventExpr::And(a, b) => {
                let (a, b) = (self.define_in(a, ctx)?, self.define_in(b, ctx)?);
                Ok(self.intern(
                    NodeKey::And(a, b, ctx),
                    ctx,
                    format!("AND({a}, {b})"),
                    NodeState::And(BinState::default()),
                    &[(a, Slot::Left), (b, Slot::Right)],
                ))
            }
            EventExpr::Or(a, b) => {
                let (a, b) = (self.define_in(a, ctx)?, self.define_in(b, ctx)?);
                Ok(self.intern(
                    NodeKey::Or(a, b, ctx),
                    ctx,
                    format!("OR({a}, {b})"),
                    NodeState::Or,
                    &[(a, Slot::Left), (b, Slot::Right)],
                ))
            }
            EventExpr::Seq(a, b) => {
                let (a, b) = (self.define_in(a, ctx)?, self.define_in(b, ctx)?);
                Ok(self.intern(
                    NodeKey::Seq(a, b, ctx),
                    ctx,
                    format!("SEQ({a}, {b})"),
                    NodeState::Seq(BinState::default()),
                    &[(a, Slot::Left), (b, Slot::Right)],
                ))
            }
            EventExpr::Not { start, middle, end } => {
                let s = self.define_in(start, ctx)?;
                let m = self.define_in(middle, ctx)?;
                let e = self.define_in(end, ctx)?;
                Ok(self.intern(
                    NodeKey::Not(s, m, e, ctx),
                    ctx,
                    format!("NOT({m})[{s}, {e}]"),
                    NodeState::Not(WindowedState::default()),
                    &[(s, Slot::Left), (m, Slot::Middle), (e, Slot::End)],
                ))
            }
            EventExpr::Aperiodic {
                start,
                middle,
                end,
                cumulative,
            } => {
                let s = self.define_in(start, ctx)?;
                let m = self.define_in(middle, ctx)?;
                let e = self.define_in(end, ctx)?;
                let star = if *cumulative { "*" } else { "" };
                Ok(self.intern(
                    NodeKey::Aperiodic(s, m, e, ctx, *cumulative),
                    ctx,
                    format!("A{star}({s}, {m}, {e})"),
                    NodeState::Aperiodic {
                        st: WindowedState::default(),
                        cumulative: *cumulative,
                    },
                    &[(s, Slot::Left), (m, Slot::Middle), (e, Slot::End)],
                ))
            }
            EventExpr::Periodic {
                start,
                period,
                end,
                cumulative,
            } => {
                let s = self.define_in(start, ctx)?;
                let e = self.define_in(end, ctx)?;
                let star = if *cumulative { "*" } else { "" };
                Ok(self.intern(
                    NodeKey::Periodic(s, period.as_micros(), e, ctx, *cumulative),
                    ctx,
                    format!("P{star}({s}, {period}, {e})"),
                    NodeState::Periodic {
                        st: WindowedState::default(),
                        period: *period,
                        cumulative: *cumulative,
                    },
                    &[(s, Slot::Left), (e, Slot::End)],
                ))
            }
            EventExpr::Plus(base, delta) => {
                let b = self.define_in(base, ctx)?;
                Ok(self.intern(
                    NodeKey::Plus(b, delta.as_micros(), ctx),
                    ctx,
                    format!("PLUS({b}, {delta})"),
                    NodeState::Plus { delta: *delta },
                    &[(b, Slot::Left)],
                ))
            }
            EventExpr::Calendar(expr) => Ok(self.calendar(*expr)),
        }
    }

    /// Define a recurring calendar (temporal) event; its first firing is
    /// scheduled immediately.
    pub fn calendar(&mut self, expr: CalendarExpr) -> EventId {
        let key = NodeKey::Calendar(expr.to_string());
        if let Some(&id) = self.interned.get(&key) {
            return id;
        }
        let id = self.push(Node {
            state: NodeState::Calendar {
                expr,
                scheduled: false,
            },
            context: Context::Recent,
            parents: Vec::new(),
            watched: false,
            label: format!("[{}]", key_label(&key)),
            own_sources: None,
        });
        self.interned.insert(key, id);
        self.schedule_calendar(id);
        id
    }

    fn schedule_calendar(&mut self, id: EventId) {
        let NodeState::Calendar { expr, scheduled } = &mut self.nodes[id.0 as usize].state else {
            return;
        };
        if *scheduled {
            return;
        }
        if let Some(at) = expr.next_after(self.now) {
            *scheduled = true;
            self.push_timer(id, TimerReq::Calendar { at });
        }
    }

    fn intern(
        &mut self,
        key: NodeKey,
        ctx: Context,
        label: String,
        state: NodeState,
        children: &[(EventId, Slot)],
    ) -> EventId {
        if let Some(&id) = self.interned.get(&key) {
            return id;
        }
        let id = self.push(Node {
            state,
            context: ctx,
            parents: Vec::new(),
            watched: false,
            label,
            own_sources: None,
        });
        for &(child, slot) in children {
            self.nodes[child.0 as usize].parents.push((id, slot));
        }
        self.interned.insert(key, id);
        id
    }

    fn push(&mut self, node: Node) -> EventId {
        let id = EventId(u32::try_from(self.nodes.len()).expect("node count fits u32"));
        self.nodes.push(node);
        id
    }

    /// Deliver this node's occurrences to the caller as [`Detection`]s.
    pub fn watch(&mut self, id: EventId) {
        self.nodes[id.0 as usize].watched = true;
    }

    /// Stop delivering this node's occurrences.
    pub fn unwatch(&mut self, id: EventId) {
        self.nodes[id.0 as usize].watched = false;
    }

    /// Raise a primitive event at the current time.
    pub fn raise(&mut self, id: EventId, params: Params) -> Result<Vec<Detection>, DetectorError> {
        self.deliver(id, params).map(Delivered::into_vec)
    }

    /// [`Detector::raise`] without the result vector when there is one
    /// result: a watched primitive no composite subscribes to, which is
    /// what most raises are, delivers its own occurrence by itself.
    pub fn deliver(&mut self, id: EventId, params: Params) -> Result<Delivered, DetectorError> {
        let now = self.now;
        let node = self.primitive_node(id)?;
        let occ = Occurrence::leaf(id, now, params, &mut node.own_sources);
        let leaf = node.watched && node.parents.is_empty();
        self.raised += 1;
        if leaf {
            self.detected += 1;
            return Ok(Delivered::One(occ));
        }
        let mut detections = Vec::new();
        self.propagate(occ, &mut detections);
        Ok(Delivered::Many(detections))
    }

    /// The raise of a *leaf*: a watched primitive no composite subscribes
    /// to. Such a raise has exactly one result, the primitive's own
    /// occurrence, and nothing in the graph keeps it, so a caller that
    /// already holds the occurrence's parameters in a form of its own
    /// needs no [`Occurrence`] built: for a leaf this counts the raise and
    /// the detection, as [`Detector::deliver`] would, and returns `true`;
    /// the caller then runs the rules on what it holds, at [`Detector::now`].
    ///
    /// Any other primitive returns `false` and counts nothing: it must be
    /// raised through [`Detector::deliver`]. The id is validated exactly
    /// as `deliver` validates it.
    pub fn deliver_leaf(&mut self, id: EventId) -> Result<bool, DetectorError> {
        let node = self.primitive_node(id)?;
        if !(node.watched && node.parents.is_empty()) {
            return Ok(false);
        }
        self.raised += 1;
        self.detected += 1;
        Ok(true)
    }

    /// Is `id` an *inert* primitive: not watched, and no composite
    /// subscribes to it? Raising one detects nothing and changes no node,
    /// so it is only counted ([`Detector::raise_inert`]).
    pub fn is_inert(&self, id: EventId) -> bool {
        self.nodes.get(id.0 as usize).is_some_and(|n| {
            matches!(n.state, NodeState::Primitive { .. }) && !n.watched && n.parents.is_empty()
        })
    }

    /// Raise `id` if it is inert ([`Detector::is_inert`]): count the raise
    /// and return `true`, with nothing built and nothing delivered — what
    /// [`Detector::deliver`] would have done. Any other event returns
    /// `false` and counts nothing.
    pub fn raise_inert(&mut self, id: EventId) -> bool {
        let inert = self.is_inert(id);
        if inert {
            self.raised += 1;
        }
        inert
    }

    /// The node of primitive `id`, or why `id` cannot be raised.
    fn primitive_node(&mut self, id: EventId) -> Result<&mut Node, DetectorError> {
        let node = self
            .nodes
            .get_mut(id.0 as usize)
            .ok_or_else(|| DetectorError::UnknownEvent(id.to_string()))?;
        if !matches!(node.state, NodeState::Primitive { .. }) {
            return Err(DetectorError::NotPrimitive(id));
        }
        Ok(node)
    }

    /// Raise a primitive event by name.
    pub fn raise_named(
        &mut self,
        name: &str,
        params: Params,
    ) -> Result<Vec<Detection>, DetectorError> {
        self.deliver_named(name, params).map(Delivered::into_vec)
    }

    /// [`Detector::deliver`] by name.
    pub fn deliver_named(
        &mut self,
        name: &str,
        params: Params,
    ) -> Result<Delivered, DetectorError> {
        let id = self
            .lookup(name)
            .ok_or_else(|| DetectorError::UnknownEvent(name.to_string()))?;
        self.deliver(id, params)
    }

    /// Advance the clock to `ts`, firing all timers due on the way (in
    /// timestamp order). Returns the detections those firings produced.
    pub fn advance_to(&mut self, ts: Ts) -> Result<Vec<Detection>, DetectorError> {
        if ts < self.now {
            return Err(DetectorError::ClockRegression {
                now: self.now,
                requested: ts,
            });
        }
        let mut detections = Vec::new();
        let mut out = NodeOutput::default();
        while let Some(&Reverse((at, key))) = self.timer_queue.peek() {
            if at > ts {
                break;
            }
            self.timer_queue.pop();
            if !self.timer_key_live(key) {
                continue; // stale entry: the timer was cancelled
            }
            let (_, idx) = unpack_timer_key(key);
            let Timer { node: node_id, req } = self.free_timer_slot(idx);
            self.now = at;
            // Calendar nodes may reschedule; clear their flag first.
            if let NodeState::Calendar { scheduled, .. } = &mut self.nodes[node_id.0 as usize].state
            {
                *scheduled = false;
            }
            let node = &mut self.nodes[node_id.0 as usize];
            node.state
                .on_timer(node_id, at, &req, &mut node.own_sources, &mut out);
            if let NodeState::Calendar { scheduled, .. } = &mut self.nodes[node_id.0 as usize].state
            {
                if out
                    .timers
                    .iter()
                    .any(|t| matches!(t, TimerReq::Calendar { .. }))
                {
                    *scheduled = true;
                }
            }
            for t in out.timers.drain(..) {
                self.push_timer(node_id, t);
            }
            for occ in out.occurrences.drain(..) {
                self.propagate(occ, &mut detections);
            }
        }
        self.now = ts;
        Ok(detections)
    }

    /// Advance the clock by `d`.
    pub fn advance(&mut self, d: Dur) -> Result<Vec<Detection>, DetectorError> {
        self.advance_to(self.now + d)
    }

    /// When the earliest pending timer fires, if any. Lets callers advance
    /// in steps and run rules *at* each firing instant rather than after a
    /// long advance.
    ///
    /// The head of the queue answers unless it is a cancelled timer's
    /// entry, which `&self` cannot discard; only then is the queue
    /// searched. A caller that holds the detector mutably should use
    /// [`Detector::next_timer_due`].
    pub fn next_timer_at(&self) -> Option<Ts> {
        match self.timer_queue.peek() {
            None => None,
            Some(Reverse((at, key))) if self.timer_key_live(*key) => Some(*at),
            Some(_) => self
                .timer_queue
                .iter()
                .filter(|Reverse((_, key))| self.timer_key_live(*key))
                .map(|Reverse((at, _))| *at)
                .min(),
        }
    }

    /// [`Detector::next_timer_at`] in amortized constant time: discards
    /// the cancelled timers' entries at the head of the queue (each is
    /// popped once, here or by [`Detector::advance_to`]) and reads the head.
    pub fn next_timer_due(&mut self) -> Option<Ts> {
        while let Some(&Reverse((at, key))) = self.timer_queue.peek() {
            if self.timer_key_live(key) {
                return Some(at);
            }
            self.timer_queue.pop();
        }
        None
    }

    /// Does `key` still refer to a live (scheduled, uncancelled) timer?
    fn timer_key_live(&self, key: u64) -> bool {
        let (gen, idx) = unpack_timer_key(key);
        self.timers
            .get(idx as usize)
            .is_some_and(|s| s.gen == gen && s.timer.is_some())
    }

    /// Free a slab slot holding a live timer: take the timer out, bump the
    /// slot's generation (invalidating any heap entry still pointing at
    /// it), and put the slot on the free list.
    fn free_timer_slot(&mut self, idx: u32) -> Timer {
        let slot = &mut self.timers[idx as usize];
        let timer = slot.timer.take().expect("freeing a live timer slot");
        slot.gen = slot.gen.wrapping_add(1);
        self.free_timers.push(idx);
        self.live_timers -= 1;
        timer
    }

    /// Drop stale heap entries once they outnumber live ones: cancellation
    /// is O(1) per timer (generation bump), and this amortized sweep keeps
    /// the heap itself bounded by the live count, not by history.
    fn maybe_compact_queue(&mut self) {
        if self.timer_queue.len() <= 2 * self.live_timers + 64 {
            return;
        }
        let queue = std::mem::take(&mut self.timer_queue);
        self.timer_queue = queue
            .into_iter()
            .filter(|Reverse((_, key))| self.timer_key_live(*key))
            .collect();
    }

    /// Cancel every pending timer belonging to `node` for which `pred`
    /// returns true on the timer's stored base occurrence (PLUS timers carry
    /// their base; other timer kinds match on `None`).
    ///
    /// Used to retract scheduled relative-temporal events, e.g. cancelling a
    /// Δ-deactivation when the role was already dropped.
    pub fn cancel_timers_where(
        &mut self,
        node: EventId,
        mut pred: impl FnMut(Option<&Occurrence>) -> bool,
    ) -> usize {
        let mut n = 0;
        for idx in 0..self.timers.len() {
            let hit = {
                let Some(t) = &self.timers[idx].timer else {
                    continue;
                };
                t.node == node
                    && pred(match &t.req {
                        TimerReq::Plus { base, .. } => Some(base),
                        _ => None,
                    })
            };
            if hit {
                self.free_timer_slot(idx as u32);
                n += 1;
            }
        }
        if n > 0 {
            self.maybe_compact_queue();
        }
        n
    }

    /// Cancel all pending timers of `node`.
    pub fn cancel_timers(&mut self, node: EventId) -> usize {
        self.cancel_timers_where(node, |_| true)
    }

    /// Number of timers scheduled and not yet fired or cancelled (the live
    /// count; O(1)).
    pub fn pending_timers(&self) -> usize {
        self.live_timers
    }

    /// Deadlines of every live timer, sorted and deduplicated. A virtual-
    /// time scheduler uses this to enumerate the distinct instants at
    /// which "fire the next timer batch" is a schedulable choice.
    pub fn pending_timer_deadlines(&self) -> Vec<Ts> {
        let mut out: Vec<Ts> = self
            .timer_queue
            .iter()
            .filter(|Reverse((_, key))| self.timer_key_live(*key))
            .map(|Reverse((at, _))| *at)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Current capacity of the timer slab (live + reusable free slots).
    ///
    /// Bounded by the high-water mark of *concurrent* timers — not by how
    /// many timers were ever scheduled — so long-running detectors with
    /// periodic or Δ events stay in bounded memory.
    pub fn timer_slab_len(&self) -> usize {
        self.timers.len()
    }

    fn push_timer(&mut self, node: EventId, req: TimerReq) {
        let at = match &req {
            TimerReq::Plus { at, .. } => *at,
            TimerReq::PeriodicTick { at, .. } => *at,
            TimerReq::Calendar { at } => *at,
        };
        let idx = match self.free_timers.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.timers.len()).expect("timer slab fits u32");
                self.timers.push(TimerSlot::default());
                i
            }
        };
        let slot = &mut self.timers[idx as usize];
        debug_assert!(slot.timer.is_none(), "free-list slot must be empty");
        slot.timer = Some(Timer { node, req });
        self.live_timers += 1;
        self.timer_queue
            .push(Reverse((at, pack_timer_key(slot.gen, idx))));
    }

    /// Breadth-first propagation of an occurrence up the event graph,
    /// appending what watched nodes detect to `detections`.
    ///
    /// A watched node nothing subscribes to moves the occurrence into its
    /// detection and touches neither the queue nor a node output; an
    /// occurrence is only copied when it is both delivered and passed on
    /// to a parent.
    fn propagate(&mut self, root: Occurrence, detections: &mut Vec<Detection>) {
        let mut queue: VecDeque<Occurrence> = VecDeque::new();
        let mut out = NodeOutput::default();
        let mut next = Some(root);
        while let Some(occ) = next.take().or_else(|| queue.pop_front()) {
            let id = occ.event.0 as usize;
            let fanout = self.nodes[id].parents.len();
            if self.nodes[id].watched {
                self.detected += 1;
                if fanout == 0 {
                    detections.push(Detection { occurrence: occ });
                    continue;
                }
                detections.push(Detection {
                    occurrence: occ.clone(),
                });
            }
            // By index: handling a child never changes a parent list.
            for i in 0..fanout {
                let (parent, slot) = self.nodes[id].parents[i];
                let pnode = &mut self.nodes[parent.0 as usize];
                let ctx = pnode.context;
                let is_periodic_end =
                    matches!(pnode.state, NodeState::Periodic { .. }) && slot == Slot::End;
                if is_periodic_end {
                    pnode.state.on_periodic_end(parent, &occ, &mut out);
                } else {
                    pnode
                        .state
                        .on_child(parent, ctx, self.buffer_cap, slot, &occ, &mut out);
                }
                for t in out.timers.drain(..) {
                    self.push_timer(parent, t);
                }
                queue.extend(out.occurrences.drain(..));
            }
        }
    }
}

impl Detector {
    /// All event ids in the graph, in definition order.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.nodes.len()).map(|i| EventId(i as u32))
    }

    /// Whether `id` is a primitive (externally raisable) event.
    pub fn is_primitive(&self, id: EventId) -> bool {
        self.nodes
            .get(id.0 as usize)
            .is_some_and(|n| matches!(n.state, NodeState::Primitive { .. }))
    }

    /// Parent operator edges of `id`: each `(parent, delayed)` pair is an
    /// operator node subscribed to `id`'s occurrences. `delayed` is true
    /// when the parent can only emit through a **timer** in response to
    /// this input (PLUS; PERIODIC window opens), so the composite never
    /// fires within the same propagation pass as the child. Edges into
    /// AND / OR / SEQ / NOT / APERIODIC — and a PERIODIC terminator, which
    /// flushes P* synchronously — are classified synchronous. The
    /// classification over-approximates: a "synchronous" edge may still
    /// need more constituents before the parent actually emits.
    pub fn parent_edges(&self, id: EventId) -> Vec<(EventId, bool)> {
        let Some(node) = self.nodes.get(id.0 as usize) else {
            return Vec::new();
        };
        node.parents
            .iter()
            .map(|&(parent, slot)| {
                let delayed = match self.nodes[parent.0 as usize].state {
                    NodeState::Plus { .. } => true,
                    NodeState::Periodic { .. } => slot != Slot::End,
                    _ => false,
                };
                (parent, delayed)
            })
            .collect()
    }

    /// Transitive closure of parent edges from `id`, **including `id`
    /// itself**: every event whose detection can be caused by an
    /// occurrence of `id`. With `sync_only`, delayed edges (see
    /// [`Detector::parent_edges`]) are not followed, restricting the
    /// closure to events that can fire within the same propagation pass.
    pub fn ancestor_closure(&self, id: EventId, sync_only: bool) -> Vec<EventId> {
        if self.nodes.get(id.0 as usize).is_none() {
            return Vec::new();
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            if std::mem::replace(&mut seen[cur.0 as usize], true) {
                continue;
            }
            out.push(cur);
            for (parent, delayed) in self.parent_edges(cur) {
                if !(sync_only && delayed) {
                    stack.push(parent);
                }
            }
        }
        out
    }

    /// The primitive events underneath `id` — the possible `sources` of an
    /// occurrence of `id` ([`crate::Occurrence::has_source`] can only hold
    /// for these). A primitive is its own sole constituent; calendar
    /// events have none.
    pub fn constituent_primitives(&self, id: EventId) -> Vec<EventId> {
        if self.nodes.get(id.0 as usize).is_none() {
            return Vec::new();
        }
        // Children are not stored on nodes; invert the parent adjacency.
        let mut children: Vec<Vec<EventId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &(parent, _) in &node.parents {
                children[parent.0 as usize].push(EventId(i as u32));
            }
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            if std::mem::replace(&mut seen[cur.0 as usize], true) {
                continue;
            }
            if matches!(
                self.nodes[cur.0 as usize].state,
                NodeState::Primitive { .. }
            ) {
                out.push(cur);
            }
            stack.extend(children[cur.0 as usize].iter().copied());
        }
        out.sort();
        out
    }
}

impl Detector {
    /// Render the event graph in Graphviz DOT form: one box per node
    /// (primitives as ellipses, composites as boxes, watched nodes bold),
    /// edges from constituents to the operators they feed, labelled with
    /// the input slot.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph events {\n  rankdir=BT;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = if matches!(node.state, NodeState::Primitive { .. }) {
                "ellipse"
            } else {
                "box"
            };
            let style = if node.watched { ",penwidth=2" } else { "" };
            writeln!(
                out,
                "  n{i} [label=\"{}\",shape={shape}{style}];",
                node.label.replace('\"', "'")
            )
            .expect("string write");
            for (parent, slot) in &node.parents {
                writeln!(out, "  n{i} -> n{} [label=\"{slot:?}\"];", parent.0)
                    .expect("string write");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// `interned` has structural (enum) keys, which JSON cannot use as map
/// keys; persist it as a list of pairs, sorted by node id so serialized
/// detectors are byte-deterministic.
mod serde_interned {
    use super::{EventId, NodeKey};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    pub fn serialize<S: Serializer>(
        map: &HashMap<NodeKey, EventId>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let mut pairs: Vec<(&NodeKey, &EventId)> = map.iter().collect();
        pairs.sort_by_key(|(_, id)| **id);
        pairs.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<HashMap<NodeKey, EventId>, D::Error> {
        Ok(Vec::<(NodeKey, EventId)>::deserialize(d)?
            .into_iter()
            .collect())
    }
}

/// The timer queue is persisted as a sorted `Vec<(Ts, u64)>` and rebuilt
/// into a heap on load (heaps have no canonical serialized form).
mod serde_timer_queue {
    use super::{Reverse, Ts};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::BinaryHeap;

    pub fn serialize<S: Serializer>(
        q: &BinaryHeap<Reverse<(Ts, u64)>>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let mut v: Vec<(Ts, u64)> = q.iter().map(|Reverse(x)| *x).collect();
        v.sort_unstable();
        v.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<BinaryHeap<Reverse<(Ts, u64)>>, D::Error> {
        Ok(Vec::<(Ts, u64)>::deserialize(d)?
            .into_iter()
            .map(Reverse)
            .collect())
    }
}

fn key_label(key: &NodeKey) -> String {
    match key {
        NodeKey::Calendar(s) => s.clone(),
        _ => String::new(),
    }
}

impl fmt::Debug for Detector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Detector")
            .field("nodes", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_timers", &self.pending_timers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::EventExpr as E;
    use crate::calendar::Civil;

    fn det() -> Detector {
        Detector::new(Ts::ZERO)
    }

    #[test]
    fn primitive_raise_and_watch() {
        let mut d = det();
        let e = d.primitive("open_file");
        // Unwatched: no detections returned.
        assert!(d.raise(e, Params::new()).unwrap().is_empty());
        d.watch(e);
        let dets = d.raise(e, Params::new().with("user", "bob")).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].occurrence.params.get_str("user"), Some("bob"));
    }

    /// A watched leaf comes back by itself; a primitive a composite
    /// subscribes to, or an unwatched one, through propagation. Either
    /// way the counts are those of `raise`.
    #[test]
    fn deliver_skips_the_vector_only_for_a_watched_leaf() {
        let mut d = det();
        let leaf = d.primitive("leaf");
        let both = d.define(&E::and(E::prim("a"), E::prim("b"))).unwrap();
        let a = d.lookup("a").unwrap();
        for id in [leaf, a, both] {
            d.watch(id);
        }
        let one = d.deliver(leaf, Params::new().with("user", "bob")).unwrap();
        assert!(matches!(&one, Delivered::One(occ) if occ.event == leaf));
        assert_eq!(one.into_vec().len(), 1);
        assert!(matches!(
            d.deliver(a, Params::new()).unwrap(),
            Delivered::Many(dets) if dets.len() == 1
        ));
        let b = d.deliver_named("b", Params::new()).unwrap().into_vec();
        assert_eq!(b.len(), 1, "b is unwatched; the AND detects");
        assert_eq!(b[0].event(), both);
        assert_eq!((d.raised_count(), d.detected_count()), (3, 3));
    }

    /// The two raises that build no occurrence count what `deliver` counts,
    /// refuse what it refuses, and decline every other primitive without
    /// counting it.
    #[test]
    fn leaf_and_inert_raises_count_like_deliver() {
        let mut d = det();
        let leaf = d.primitive("leaf");
        let quiet = d.primitive("quiet");
        let both = d.define(&E::and(E::prim("a"), E::prim("b"))).unwrap();
        let a = d.lookup("a").unwrap();
        d.watch(leaf);
        d.watch(a);
        assert_eq!(d.deliver_leaf(leaf), Ok(true));
        assert_eq!((d.raised_count(), d.detected_count()), (1, 1));
        // Subscribed to by the AND, unwatched, or not a primitive: declined.
        assert_eq!(d.deliver_leaf(a), Ok(false));
        assert_eq!(d.deliver_leaf(quiet), Ok(false));
        assert_eq!(d.deliver_leaf(both), Err(DetectorError::NotPrimitive(both)));
        assert!(matches!(
            d.deliver_leaf(EventId(99)),
            Err(DetectorError::UnknownEvent(_))
        ));
        assert_eq!((d.raised_count(), d.detected_count()), (1, 1));

        let b = d.lookup("b").unwrap();
        assert!(d.is_inert(quiet));
        for busy in [leaf, a, b, both, EventId(99)] {
            assert!(!d.is_inert(busy), "{busy}");
            assert!(!d.raise_inert(busy));
        }
        assert_eq!(d.raised_count(), 1);
        assert!(d.raise_inert(quiet));
        assert_eq!((d.raised_count(), d.detected_count()), (2, 1));
        assert!(d.raise(quiet, Params::new()).unwrap().is_empty());
        assert_eq!((d.raised_count(), d.detected_count()), (3, 1));
    }

    #[test]
    fn raise_composite_rejected() {
        let mut d = det();
        let a = E::prim("a");
        let b = E::prim("b");
        let seq = d.define(&E::seq(a, b)).unwrap();
        assert!(matches!(
            d.raise(seq, Params::new()),
            Err(DetectorError::NotPrimitive(_))
        ));
    }

    #[test]
    fn timer_slab_stays_bounded_over_many_cycles() {
        // Regression: the slab used to grow by one slot per scheduled timer
        // and never reclaim cancelled entries. 100k schedule/cancel cycles
        // must reuse a handful of slots and keep the heap compacted.
        let mut d = det();
        let root = d
            .define(&E::plus(E::prim("open"), Dur::from_secs(100)))
            .unwrap();
        d.watch(root);
        let open = d.lookup("open").unwrap();
        for i in 0..100_000i64 {
            d.raise(open, Params::new().with("n", i)).unwrap();
            assert_eq!(d.pending_timers(), 1);
            assert_eq!(d.cancel_timers(root), 1);
            assert_eq!(d.pending_timers(), 0);
        }
        assert!(
            d.timer_slab_len() <= 8,
            "slab grew to {} slots over 100k cycles",
            d.timer_slab_len()
        );
        // The lazy heap must have been compacted along the way, not kept
        // one stale entry per cycle.
        assert!(d.timer_queue.len() <= 2 * d.live_timers + 64);
        // Slots are safely reusable: a fresh timer still fires.
        d.raise(open, Params::new().with("n", -1i64)).unwrap();
        let dets = d.advance(Dur::from_secs(100)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].occurrence.params.get_int("n"), Some(-1));
    }

    #[test]
    fn stale_generation_never_fires_recycled_slot() {
        // Cancel a timer, reuse its slot for a later deadline, then advance
        // past the *original* deadline: the stale heap entry must be skipped.
        let mut d = det();
        let short = d
            .define(&E::plus(E::prim("a"), Dur::from_secs(10)))
            .unwrap();
        let long = d
            .define(&E::plus(E::prim("b"), Dur::from_secs(50)))
            .unwrap();
        d.watch(short);
        d.watch(long);
        d.raise_named("a", Params::new()).unwrap();
        assert_eq!(d.cancel_timers(short), 1);
        // Reuses the freed slot with a bumped generation.
        d.raise_named("b", Params::new()).unwrap();
        assert!(d.advance(Dur::from_secs(20)).unwrap().is_empty());
        let dets = d.advance(Dur::from_secs(40)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event(), long);
    }

    #[test]
    fn next_timer_skips_cancelled_heads() {
        // Three deadlines (10, 20, 30 s); cancelling the two earliest
        // leaves their entries at the head of the queue.
        let mut d = det();
        let mut roots = Vec::new();
        for (name, secs) in [("a", 10), ("b", 20), ("c", 30)] {
            let root = d
                .define(&E::plus(E::prim(name), Dur::from_secs(secs)))
                .unwrap();
            d.watch(root);
            d.raise_named(name, Params::new()).unwrap();
            roots.push(root);
        }
        assert_eq!(d.next_timer_at(), Some(Ts::from_secs(10)));
        assert_eq!(d.cancel_timers(roots[0]), 1);
        assert_eq!(d.cancel_timers(roots[1]), 1);
        // The shared accessor looks past them without touching the queue…
        assert_eq!(d.next_timer_at(), Some(Ts::from_secs(30)));
        assert_eq!(d.timer_queue.len(), 3);
        // …the exclusive one discards them and leaves a live head.
        assert_eq!(d.next_timer_due(), Some(Ts::from_secs(30)));
        assert_eq!(d.timer_queue.len(), 1);
        assert_eq!(d.next_timer_at(), Some(Ts::from_secs(30)));
        let dets = d.advance(Dur::from_secs(30)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event(), roots[2]);
        assert_eq!((d.next_timer_due(), d.next_timer_at()), (None, None));
    }

    #[test]
    fn a_primitive_shares_one_source_list_with_all_its_occurrences() {
        let mut d = det();
        let e = d.primitive("open");
        d.watch(e);
        let first = d.raise(e, Params::new()).unwrap().remove(0).occurrence;
        let second = d.raise(e, Params::new()).unwrap().remove(0).occurrence;
        assert_eq!(*first.sources, vec![e]);
        assert!(Arc::ptr_eq(&first.sources, &second.sources));
        // The list is derived state: a restored detector builds its own.
        let mut back: Detector = serde_json::from_str(&serde_json::to_string(&d).unwrap()).unwrap();
        let third = back.raise(e, Params::new()).unwrap().remove(0).occurrence;
        assert_eq!(third.sources, first.sources);
        assert!(!Arc::ptr_eq(&third.sources, &first.sources));
    }

    #[test]
    fn retire_unbinds_name_and_cancels_timers() {
        let mut d = det();
        let plus = d
            .define(&E::plus(E::prim("open"), Dur::from_secs(5)))
            .unwrap();
        d.name(plus, "deadline").unwrap();
        d.watch(plus);
        d.raise_named("open", Params::new()).unwrap();
        assert_eq!(d.pending_timers(), 1);

        let cancelled = d.retire(plus).unwrap();
        assert_eq!(cancelled, 1);
        assert!(d.lookup("deadline").is_none());
        // The retired node no longer observes its base event, and the same
        // structure can be re-defined under a fresh node and renamed.
        assert!(d.advance(Dur::from_secs(10)).unwrap().is_empty());
        let plus2 = d
            .define(&E::plus(E::named("open"), Dur::from_secs(5)))
            .unwrap();
        assert_ne!(plus, plus2, "retired node must not be re-interned");
        d.name(plus2, "deadline").unwrap();
        d.watch(plus2);
        d.raise_named("open", Params::new()).unwrap();
        let dets = d.advance(Dur::from_secs(5)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event(), plus2);
    }

    #[test]
    fn retire_rejects_primitives() {
        let mut d = det();
        let a = d.primitive("a");
        assert!(matches!(d.retire(a), Err(DetectorError::NotComposite(_))));
        assert_eq!(d.unname("a"), None, "unname refuses primitives");
    }

    #[test]
    fn seq_detection_through_graph() {
        let mut d = det();
        let root = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        d.watch(root);
        let a = d.lookup("a").unwrap();
        let b = d.lookup("b").unwrap();
        d.raise(a, Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();
        let dets = d.raise(b, Params::new()).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].event(), root);
    }

    #[test]
    fn sharing_identical_subexpressions() {
        let mut d = det();
        let r1 = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        let r2 = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        assert_eq!(r1, r2, "structurally identical events share a node");
        let r3 = d
            .define(&E::seq(E::prim("a"), E::prim("b")).context(Context::Chronicle))
            .unwrap();
        assert_ne!(r1, r3, "different context, different node");
    }

    #[test]
    fn topology_edges_closures_and_constituents() {
        let mut d = det();
        let seq = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        let plus = d
            .define(&E::plus(E::named("a"), Dur::from_secs(5)))
            .unwrap();
        let a = d.lookup("a").unwrap();
        let b = d.lookup("b").unwrap();

        assert!(d.is_primitive(a));
        assert!(!d.is_primitive(seq));
        assert_eq!(d.event_ids().count(), d.node_count());

        // `a` feeds SEQ synchronously and PLUS through a timer.
        let edges = d.parent_edges(a);
        assert!(edges.contains(&(seq, false)));
        assert!(edges.contains(&(plus, true)));

        let full = d.ancestor_closure(a, false);
        assert!(full.contains(&a) && full.contains(&seq) && full.contains(&plus));
        let sync = d.ancestor_closure(a, true);
        assert!(sync.contains(&seq) && !sync.contains(&plus));

        assert_eq!(d.constituent_primitives(seq), vec![a, b]);
        assert_eq!(d.constituent_primitives(a), vec![a]);
    }

    #[test]
    fn plus_fires_via_clock() {
        let mut d = det();
        let root = d
            .define(&E::plus(E::prim("open"), Dur::from_hours(2)))
            .unwrap();
        d.watch(root);
        let open = d.lookup("open").unwrap();
        d.raise(open, Params::new().with("file", "patient.dat"))
            .unwrap();
        // Nothing before the deadline.
        assert!(d.advance(Dur::from_hours(1)).unwrap().is_empty());
        let dets = d.advance(Dur::from_hours(1)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(
            dets[0].occurrence.params.get_str("file"),
            Some("patient.dat")
        );
        assert_eq!(dets[0].occurrence.interval.end, Ts::from_secs(2 * 3600));
    }

    #[test]
    fn plus_cancellation() {
        let mut d = det();
        let root = d
            .define(&E::plus(E::prim("open"), Dur::from_secs(100)))
            .unwrap();
        d.watch(root);
        let open = d.lookup("open").unwrap();
        d.raise(open, Params::new().with("session", 1i64)).unwrap();
        d.raise(open, Params::new().with("session", 2i64)).unwrap();
        let n = d.cancel_timers_where(root, |base| {
            base.is_some_and(|b| b.params.get_int("session") == Some(1))
        });
        assert_eq!(n, 1);
        let dets = d.advance(Dur::from_secs(200)).unwrap();
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].occurrence.params.get_int("session"), Some(2));
    }

    #[test]
    fn periodic_between_events() {
        let mut d = det();
        let root = d
            .define(&E::periodic(
                E::prim("start"),
                Dur::from_secs(10),
                E::prim("stop"),
            ))
            .unwrap();
        d.watch(root);
        d.raise_named("start", Params::new()).unwrap();
        let dets = d.advance(Dur::from_secs(35)).unwrap();
        assert_eq!(dets.len(), 3, "ticks at 10, 20, 30");
        d.raise_named("stop", Params::new()).unwrap();
        let dets = d.advance(Dur::from_secs(100)).unwrap();
        assert!(dets.is_empty(), "terminated by stop");
    }

    #[test]
    fn aperiodic_between_events() {
        let mut d = det();
        let root = d
            .define(&E::aperiodic(
                E::prim("txn_begin"),
                E::prim("enable_role"),
                E::prim("txn_end"),
            ))
            .unwrap();
        d.watch(root);
        // Before the window: no detection.
        d.raise_named("enable_role", Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();
        d.raise_named("txn_begin", Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();
        let dets = d.raise_named("enable_role", Params::new()).unwrap();
        assert_eq!(dets.len(), 1);
        d.advance(Dur::from_secs(1)).unwrap();
        d.raise_named("txn_end", Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();
        let dets = d.raise_named("enable_role", Params::new()).unwrap();
        assert!(dets.is_empty());
    }

    #[test]
    fn calendar_event_fires_daily() {
        let mut d = det();
        let id = d.calendar(CalendarExpr::daily(10, 0, 0));
        d.watch(id);
        let two_days = Civil::new(2000, 1, 3, 0, 0, 0).to_ts();
        let dets = d.advance_to(two_days).unwrap();
        assert_eq!(dets.len(), 2, "Jan 1 10:00 and Jan 2 10:00");
        assert_eq!(
            Civil::from_ts(dets[0].occurrence.interval.start),
            Civil::new(2000, 1, 1, 10, 0, 0)
        );
    }

    #[test]
    fn clock_regression_rejected() {
        let mut d = det();
        d.advance(Dur::from_secs(10)).unwrap();
        assert!(matches!(
            d.advance_to(Ts::from_secs(5)),
            Err(DetectorError::ClockRegression { .. })
        ));
    }

    #[test]
    fn or_propagates_sources() {
        let mut d = det();
        let root = d
            .define(&E::or(E::prim("nurse_off"), E::prim("doctor_off")))
            .unwrap();
        d.watch(root);
        let nurse = d.lookup("nurse_off").unwrap();
        let dets = d.raise(nurse, Params::new()).unwrap();
        assert_eq!(dets.len(), 1);
        assert!(dets[0].occurrence.has_source(nurse));
        assert!(!dets[0]
            .occurrence
            .has_source(d.lookup("doctor_off").unwrap()));
    }

    #[test]
    fn named_composite() {
        let mut d = det();
        let root = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        d.name(root, "ab").unwrap();
        assert_eq!(d.lookup("ab"), Some(root));
        // Redefining the same name for the same node is fine.
        d.name(root, "ab").unwrap();
        // A different node may not steal the name.
        let other = d.define(&E::or(E::prim("a"), E::prim("b"))).unwrap();
        assert!(d.name(other, "ab").is_err());
    }

    #[test]
    fn nested_composition_rule6_shape() {
        // The TSOD₁ event tree from the paper:
        //   ET3 = OR(nurse_disable, doctor_disable)
        //   ET5 = A([10:00 daily], ET3, [17:00 daily])
        let mut d = det();
        let expr = E::aperiodic(
            E::calendar(CalendarExpr::daily(10, 0, 0)),
            E::or(E::prim("nurse_disable"), E::prim("doctor_disable")),
            E::calendar(CalendarExpr::daily(17, 0, 0)),
        );
        let root = d.define(&expr).unwrap();
        d.watch(root);
        // 09:00 on Jan 1: outside window — no detection.
        d.advance_to(Civil::new(2000, 1, 1, 9, 0, 0).to_ts())
            .unwrap();
        assert!(d
            .raise_named("nurse_disable", Params::new())
            .unwrap()
            .is_empty());
        // 11:00: inside window — detection.
        d.advance_to(Civil::new(2000, 1, 1, 11, 0, 0).to_ts())
            .unwrap();
        let dets = d.raise_named("nurse_disable", Params::new()).unwrap();
        assert_eq!(dets.len(), 1);
        // 18:00: after close — no detection.
        d.advance_to(Civil::new(2000, 1, 1, 18, 0, 0).to_ts())
            .unwrap();
        assert!(d
            .raise_named("doctor_disable", Params::new())
            .unwrap()
            .is_empty());
        // Next day 12:00: window reopened — detection again.
        d.advance_to(Civil::new(2000, 1, 2, 12, 0, 0).to_ts())
            .unwrap();
        let dets = d.raise_named("doctor_disable", Params::new()).unwrap();
        assert_eq!(dets.len(), 1);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::builder::EventExpr as E;

    #[test]
    fn event_graph_dot_rendering() {
        let mut d = Detector::new(Ts::ZERO);
        let root = d.define(&E::seq(E::prim("a"), E::prim("b"))).unwrap();
        d.watch(root);
        let dot = d.to_dot();
        assert!(dot.starts_with("digraph events {"));
        assert!(dot.contains("shape=ellipse"), "primitives are ellipses");
        assert!(dot.contains("SEQ(E0, E1)"));
        assert!(dot.contains("penwidth=2"), "watched node is bold");
        assert!(dot.contains("n0 -> n2 [label=\"Left\"];"));
        assert!(dot.ends_with("}\n"));
    }
}

#[cfg(test)]
mod star_tests {
    use super::*;
    use crate::builder::EventExpr as E;

    #[test]
    fn periodic_star_accumulates_ticks_until_end() {
        let mut d = Detector::new(Ts::ZERO);
        let root = d
            .define(&E::periodic_star(
                E::prim("start"),
                Dur::from_secs(10),
                E::prim("stop"),
            ))
            .unwrap();
        d.watch(root);
        d.raise_named("start", Params::new().with("who", "p*"))
            .unwrap();
        // Ticks at 10, 20, 30 accumulate silently.
        assert!(d.advance(Dur::from_secs(35)).unwrap().is_empty());
        let dets = d.raise_named("stop", Params::new()).unwrap();
        assert_eq!(dets.len(), 1, "P* emits once, at the terminator");
        let occ = &dets[0].occurrence;
        assert_eq!(occ.params.get_int("ticks"), Some(3));
        assert_eq!(occ.params.get_str("who"), Some("p*"));
        // After termination: no more ticks, no more detections.
        assert!(d.advance(Dur::from_secs(100)).unwrap().is_empty());
    }

    #[test]
    fn periodic_star_without_ticks_detects_nothing() {
        let mut d = Detector::new(Ts::ZERO);
        let root = d
            .define(&E::periodic_star(
                E::prim("start"),
                Dur::from_secs(100),
                E::prim("stop"),
            ))
            .unwrap();
        d.watch(root);
        d.raise_named("start", Params::new()).unwrap();
        d.advance(Dur::from_secs(5)).unwrap();
        let dets = d.raise_named("stop", Params::new()).unwrap();
        assert!(dets.is_empty(), "no ticks happened inside the window");
    }

    #[test]
    fn aperiodic_multiple_windows_chronicle_vs_continuous() {
        // Two overlapping windows; Chronicle pairs the middle with the
        // oldest window only, Continuous with all of them.
        for (ctx, expected) in [(Context::Chronicle, 1usize), (Context::Continuous, 2)] {
            let mut d = Detector::new(Ts::ZERO);
            let root = d
                .define(&E::aperiodic(E::prim("s"), E::prim("m"), E::prim("e")).context(ctx))
                .unwrap();
            d.watch(root);
            d.raise_named("s", Params::new()).unwrap();
            d.advance(Dur::from_secs(1)).unwrap();
            d.raise_named("s", Params::new()).unwrap();
            d.advance(Dur::from_secs(1)).unwrap();
            let dets = d.raise_named("m", Params::new()).unwrap();
            assert_eq!(dets.len(), expected, "context {ctx}");
        }
    }

    #[test]
    fn detector_round_trips_mid_detection() {
        // Serialize a detector with a buffered SEQ initiator and a pending
        // PLUS timer; the deserialized copy must finish both detections
        // exactly like the original (the durable engine's snapshots rely
        // on this).
        let mut d = Detector::new(Ts::ZERO);
        let seq = d
            .define(&E::seq(E::prim("a"), E::prim("b")).context(Context::Chronicle))
            .unwrap();
        let plus = d
            .define(&E::plus(E::prim("a"), Dur::from_secs(30)))
            .unwrap();
        d.watch(seq);
        d.watch(plus);
        d.raise_named("a", Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();

        let json = serde_json::to_string(&d).unwrap();
        let mut back: Detector = serde_json::from_str(&json).unwrap();
        assert_eq!(back.now(), d.now());
        assert_eq!(back.pending_timers(), d.pending_timers());

        for r in [&mut d, &mut back] {
            let dets = r.raise_named("b", Params::new()).unwrap();
            assert_eq!(dets.len(), 1, "buffered SEQ initiator survived");
            let dets = r.advance(Dur::from_secs(60)).unwrap();
            assert_eq!(dets.len(), 1, "pending PLUS timer survived");
        }
        // They stay alike: same clock, same timers, and the same detections
        // for one more identical event sequence.
        assert_eq!(back.now(), d.now());
        assert_eq!(back.pending_timers(), d.pending_timers());
        let [a, b] = [&mut d, &mut back].map(|r| {
            let mut dets = r.raise_named("a", Params::new()).unwrap();
            dets.extend(r.advance(Dur::from_secs(1)).unwrap());
            dets.extend(r.raise_named("b", Params::new()).unwrap());
            dets.extend(r.advance(Dur::from_secs(60)).unwrap());
            dets
        });
        assert_eq!(a.len(), 2, "one SEQ and one PLUS detection");
        assert_eq!(a, b, "states stay identical after further events");
    }

    #[test]
    fn not_operator_recent_window_replacement() {
        // Under Recent, a second opener replaces the first, so a middle
        // that killed the old window does not affect the new one.
        let mut d = Detector::new(Ts::ZERO);
        let root = d
            .define(&E::not(E::prim("m"), E::prim("s"), E::prim("e")).context(Context::Recent))
            .unwrap();
        d.watch(root);
        d.raise_named("s", Params::new()).unwrap();
        d.advance(Dur::from_secs(1)).unwrap();
        d.raise_named("m", Params::new()).unwrap(); // kills window 1
        d.advance(Dur::from_secs(1)).unwrap();
        d.raise_named("s", Params::new()).unwrap(); // fresh window 2
        d.advance(Dur::from_secs(1)).unwrap();
        let dets = d.raise_named("e", Params::new()).unwrap();
        assert_eq!(dets.len(), 1, "the fresh window is clean");
    }
}
