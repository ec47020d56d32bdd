//! Event-graph nodes: one state machine per Snoop operator.
//!
//! Each node receives constituent occurrences on a [`Slot`] and may emit
//! occurrences of its own and/or request timers. All pairing decisions are
//! governed by the node's [`Context`]. The detector owns the nodes and
//! drives propagation; this module is pure state-machine logic so it can be
//! unit-tested without a detector.

use crate::calendar::CalendarExpr;
use crate::context::Context;
use crate::event::{EventId, Occurrence, Params};
use crate::time::{Dur, Interval, Ts};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which input of an operator an occurrence arrives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Slot {
    /// Left child of a binary operator, or the initiator (E₁) of a
    /// windowed operator (NOT / APERIODIC / PERIODIC), or PLUS's base.
    Left,
    /// Right child of a binary operator.
    Right,
    /// Middle event (E₂) of NOT / APERIODIC.
    Middle,
    /// Terminator (E₃) of a windowed operator.
    End,
}

/// A request the node makes of the detector's timer queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TimerReq {
    /// Fire a PLUS detection at `at`, built from the stored base occurrence.
    Plus {
        /// When to fire.
        at: Ts,
        /// The occurrence that started the PLUS.
        base: Occurrence,
    },
    /// Fire a PERIODIC tick for window `serial` at `at`.
    PeriodicTick {
        /// When to fire.
        at: Ts,
        /// The window the tick belongs to.
        serial: u64,
    },
    /// Fire the node's calendar event at `at`.
    Calendar {
        /// When to fire.
        at: Ts,
    },
}

/// An open window of a windowed operator (NOT / APERIODIC / PERIODIC),
/// opened by an initiator occurrence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Window {
    /// Identity for timer routing.
    pub serial: u64,
    /// The initiator occurrence that opened the window.
    pub opener: Occurrence,
    /// NOT: set when a middle event occurred inside the window.
    pub killed: bool,
    /// A* / P*: accumulated middle occurrences.
    pub accum: Vec<Occurrence>,
    /// P / P*: ticks delivered so far.
    pub ticks: u64,
}

impl Window {
    fn new(serial: u64, opener: Occurrence) -> Window {
        Window {
            serial,
            opener,
            killed: false,
            accum: Vec::new(),
            ticks: 0,
        }
    }
}

/// Node behaviour + state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NodeState {
    /// Externally raised event (`U → F(…)`), including external/sensor events.
    Primitive {
        /// The registered event name.
        name: String,
    },
    /// Recurring temporal event from a calendar expression.
    Calendar {
        /// The pattern whose instants fire this event.
        expr: CalendarExpr,
        /// A timer for the next instant is pending.
        scheduled: bool,
    },
    /// Conjunction (any order).
    And(BinState),
    /// Disjunction.
    Or,
    /// Strict sequence.
    Seq(BinState),
    /// Non-occurrence inside a window.
    Not(WindowedState),
    /// Occurrences of a middle event inside a window (A / A*).
    Aperiodic {
        /// Open windows.
        st: WindowedState,
        /// A*: defer to the terminator, accumulated.
        cumulative: bool,
    },
    /// Regular ticks inside a window (P / P*).
    Periodic {
        /// Open windows.
        st: WindowedState,
        /// Tick interval τ.
        period: Dur,
        /// P*: defer to the terminator, counted.
        cumulative: bool,
    },
    /// Relative temporal event: fires Δ after the base event.
    Plus {
        /// The offset Δ.
        delta: Dur,
    },
}

/// Buffers for binary operators (AND buffers both sides, SEQ only the left).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BinState {
    /// Buffered left-side occurrences.
    pub left: VecDeque<Occurrence>,
    /// Buffered right-side occurrences.
    pub right: VecDeque<Occurrence>,
}

/// Open windows of a windowed operator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WindowedState {
    /// Currently open windows, oldest first.
    pub windows: VecDeque<Window>,
    /// Serial for the next window.
    pub next_serial: u64,
}

impl WindowedState {
    fn open(&mut self, opener: Occurrence, ctx: Context) -> u64 {
        // Recent context keeps only the newest window.
        if ctx == Context::Recent {
            self.windows.clear();
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        self.windows.push_back(Window::new(serial, opener));
        serial
    }
}

/// Everything a node emits while handling one input.
#[derive(Debug, Default)]
pub struct NodeOutput {
    /// Occurrences this node produced.
    pub occurrences: Vec<Occurrence>,
    /// Timers this node wants scheduled.
    pub timers: Vec<TimerReq>,
}

fn push_buf(buf: &mut VecDeque<Occurrence>, occ: Occurrence, ctx: Context, cap: usize) {
    if ctx == Context::Recent {
        buf.clear();
    }
    if buf.len() >= cap {
        buf.pop_front();
    }
    buf.push_back(occ);
}

/// Pair a terminator `t` against an initiator buffer per `ctx`.
/// `eligible` decides which buffered occurrences may pair. Returns the
/// composed occurrences; consumed initiators are removed from `buf`.
fn pair(
    me: EventId,
    buf: &mut VecDeque<Occurrence>,
    t: &Occurrence,
    ctx: Context,
    eligible: impl Fn(&Occurrence) -> bool,
) -> Vec<Occurrence> {
    let idxs: Vec<usize> = buf
        .iter()
        .enumerate()
        .filter(|(_, o)| eligible(o))
        .map(|(i, _)| i)
        .collect();
    if idxs.is_empty() {
        return Vec::new();
    }
    let compose = |i: &Occurrence| Occurrence::composite(me, i.interval.hull(&t.interval), &[i, t]);
    match ctx {
        Context::Unrestricted => idxs.iter().map(|&i| compose(&buf[i])).collect(),
        Context::Recent => {
            // Latest eligible initiator; it survives.
            let &i = idxs.last().expect("nonempty");
            vec![compose(&buf[i])]
        }
        Context::Chronicle => {
            let i = idxs[0];
            let init = buf.remove(i).expect("index valid");
            vec![compose(&init)]
        }
        Context::Continuous => {
            let mut out = Vec::with_capacity(idxs.len());
            for &i in idxs.iter().rev() {
                let init = buf.remove(i).expect("index valid");
                out.push(compose(&init));
            }
            out.reverse();
            out
        }
        Context::Cumulative => {
            // Merge all eligible initiators + terminator into one occurrence.
            let mut parts: Vec<Occurrence> = Vec::with_capacity(idxs.len());
            for &i in idxs.iter().rev() {
                parts.push(buf.remove(i).expect("index valid"));
            }
            parts.reverse();
            let mut interval = t.interval;
            for p in &parts {
                interval = interval.hull(&p.interval);
            }
            let mut refs: Vec<&Occurrence> = parts.iter().collect();
            refs.push(t);
            vec![Occurrence::composite(me, interval, &refs)]
        }
    }
}

impl NodeState {
    /// Handle a constituent occurrence arriving on `slot`.
    ///
    /// `me` is this node's id, `ctx` its context, `cap` the buffer cap.
    pub fn on_child(
        &mut self,
        me: EventId,
        ctx: Context,
        cap: usize,
        slot: Slot,
        occ: &Occurrence,
        out: &mut NodeOutput,
    ) {
        match self {
            NodeState::Primitive { .. } | NodeState::Calendar { .. } => {
                unreachable!("leaf nodes have no children")
            }
            NodeState::Or => {
                // OR re-emits the child occurrence under this node's id.
                out.occurrences
                    .push(Occurrence::composite(me, occ.interval, &[occ]));
            }
            NodeState::And(st) => {
                let (mine, other) = match slot {
                    Slot::Left => (&mut st.left, &mut st.right),
                    Slot::Right => (&mut st.right, &mut st.left),
                    _ => unreachable!("AND has only left/right"),
                };
                let dets = pair(me, other, occ, ctx, |_| true);
                if dets.is_empty() {
                    push_buf(mine, occ.clone(), ctx, cap);
                } else {
                    out.occurrences.extend(dets);
                    // Non-consuming contexts also remember the new arrival
                    // for future pairings.
                    if matches!(ctx, Context::Unrestricted | Context::Recent) {
                        push_buf(mine, occ.clone(), ctx, cap);
                    }
                }
            }
            NodeState::Seq(st) => match slot {
                Slot::Left => push_buf(&mut st.left, occ.clone(), ctx, cap),
                Slot::Right => {
                    let dets = pair(me, &mut st.left, occ, ctx, |l| {
                        l.interval.before(&occ.interval)
                    });
                    out.occurrences.extend(dets);
                }
                _ => unreachable!("SEQ has only left/right"),
            },
            NodeState::Not(st) => match slot {
                Slot::Left => {
                    st.open(occ.clone(), ctx);
                }
                Slot::Middle => {
                    for w in st.windows.iter_mut() {
                        if w.opener.interval.before(&occ.interval) {
                            w.killed = true;
                        }
                    }
                }
                Slot::End => {
                    // Collect surviving windows ended by this terminator.
                    let mut survivors: VecDeque<Occurrence> = st
                        .windows
                        .iter()
                        .filter(|w| !w.killed && w.opener.interval.before(&occ.interval))
                        .map(|w| w.opener.clone())
                        .collect();
                    let dets = pair(me, &mut survivors, occ, ctx, |_| true);
                    out.occurrences.extend(dets);
                    // The terminator closes every window it sequences after.
                    st.windows
                        .retain(|w| !w.opener.interval.before(&occ.interval));
                }
                Slot::Right => unreachable!("NOT uses left/middle/end"),
            },
            NodeState::Aperiodic { st, cumulative } => match slot {
                Slot::Left => {
                    st.open(occ.clone(), ctx);
                }
                Slot::Middle => {
                    let eligible: Vec<usize> = st
                        .windows
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| w.opener.interval.before(&occ.interval))
                        .map(|(i, _)| i)
                        .collect();
                    if eligible.is_empty() {
                        return;
                    }
                    if *cumulative {
                        for &i in &eligible {
                            st.windows[i].accum.push(occ.clone());
                        }
                        return;
                    }
                    // Detection interval is the middle event's (SnoopIB: A is
                    // detected whenever E₂ occurs inside the window).
                    let chosen: Vec<usize> = match ctx {
                        Context::Recent => vec![*eligible.last().expect("nonempty")],
                        Context::Chronicle => vec![eligible[0]],
                        _ => eligible,
                    };
                    for i in chosen {
                        let opener = &st.windows[i].opener;
                        out.occurrences.push(Occurrence::composite(
                            me,
                            occ.interval,
                            &[opener, occ],
                        ));
                    }
                }
                Slot::End => {
                    if *cumulative {
                        for w in st
                            .windows
                            .iter()
                            .filter(|w| w.opener.interval.before(&occ.interval))
                        {
                            if w.accum.is_empty() {
                                continue;
                            }
                            let mut interval = occ.interval;
                            interval = interval.hull(&w.opener.interval);
                            let mut refs: Vec<&Occurrence> = vec![&w.opener];
                            refs.extend(w.accum.iter());
                            refs.push(occ);
                            for r in &w.accum {
                                interval = interval.hull(&r.interval);
                            }
                            out.occurrences
                                .push(Occurrence::composite(me, interval, &refs));
                        }
                    }
                    st.windows
                        .retain(|w| !w.opener.interval.before(&occ.interval));
                }
                Slot::Right => unreachable!("APERIODIC uses left/middle/end"),
            },
            NodeState::Periodic { st, period, .. } => match slot {
                Slot::Left => {
                    let at = occ.interval.end + *period;
                    let serial = st.open(occ.clone(), ctx);
                    out.timers.push(TimerReq::PeriodicTick { at, serial });
                }
                // The detector routes PERIODIC's End slot to `on_periodic_end`
                // (it needs `st` and `cumulative` together).
                _ => unreachable!("PERIODIC uses left/end; end routed separately"),
            },
            NodeState::Plus { delta } => {
                debug_assert_eq!(slot, Slot::Left, "PLUS has a single base input");
                out.timers.push(TimerReq::Plus {
                    at: occ.interval.end + *delta,
                    base: occ.clone(),
                });
            }
        }
    }

    /// PERIODIC's `End` slot needs both `st` and `cumulative`; handled here
    /// to keep the borrow simple.
    pub fn on_periodic_end(&mut self, me: EventId, occ: &Occurrence, out: &mut NodeOutput) {
        if let NodeState::Periodic { st, cumulative, .. } = self {
            if *cumulative {
                for w in st
                    .windows
                    .iter()
                    .filter(|w| w.opener.interval.before(&occ.interval) && w.ticks > 0)
                {
                    let interval = w.opener.interval.hull(&occ.interval);
                    let mut o = Occurrence::composite_with_room(me, interval, &[&w.opener, occ], 1);
                    o.params.set("ticks", w.ticks as i64);
                    out.occurrences.push(o);
                }
            }
            st.windows
                .retain(|w| !w.opener.interval.before(&occ.interval));
        } else {
            unreachable!("on_periodic_end on non-periodic node")
        }
    }

    /// Handle a timer firing at `now`. `own` is the node's shared source
    /// list (see [`Occurrence::leaf`]), which a calendar firing uses.
    pub fn on_timer(
        &mut self,
        me: EventId,
        now: Ts,
        req: &TimerReq,
        own: &mut Option<Arc<Vec<EventId>>>,
        out: &mut NodeOutput,
    ) {
        match (self, req) {
            (NodeState::Plus { .. }, TimerReq::Plus { base, .. }) => {
                let interval = Interval::new(base.interval.start, now);
                let mut o = Occurrence::composite_with_room(me, interval, &[base], 1);
                o.params.set("fired_at", now);
                out.occurrences.push(o);
            }
            (
                NodeState::Periodic {
                    st,
                    period,
                    cumulative,
                },
                TimerReq::PeriodicTick { serial, .. },
            ) => {
                let Some(w) = st.windows.iter_mut().find(|w| w.serial == *serial) else {
                    return; // window already closed
                };
                w.ticks += 1;
                if !*cumulative {
                    let mut o =
                        Occurrence::composite_with_room(me, Interval::at(now), &[&w.opener], 2);
                    o.params.set("tick", now);
                    o.params.set("tick_no", w.ticks as i64);
                    out.occurrences.push(o);
                }
                out.timers.push(TimerReq::PeriodicTick {
                    at: now + *period,
                    serial: *serial,
                });
            }
            (NodeState::Calendar { expr, .. }, TimerReq::Calendar { .. }) => {
                let params = Params::new().with("time", now);
                out.occurrences.push(Occurrence::leaf(me, now, params, own));
                if let Some(next) = expr.next_after(now) {
                    out.timers.push(TimerReq::Calendar { at: next });
                }
            }
            _ => unreachable!("timer/node kind mismatch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(id: u32, t: u64) -> Occurrence {
        Occurrence::primitive(EventId(id), Ts::from_secs(t), Params::new())
    }

    fn seq_node() -> NodeState {
        NodeState::Seq(BinState::default())
    }

    fn run_seq(ctx: Context, events: &[(Slot, Occurrence)]) -> Vec<Occurrence> {
        let mut n = seq_node();
        let mut all = Vec::new();
        for (slot, o) in events {
            let mut out = NodeOutput::default();
            n.on_child(EventId(99), ctx, 1024, *slot, o, &mut out);
            all.extend(out.occurrences);
        }
        all
    }

    #[test]
    fn seq_requires_order() {
        // Right before left: no detection.
        let dets = run_seq(
            Context::Chronicle,
            &[(Slot::Right, occ(2, 1)), (Slot::Left, occ(1, 2))],
        );
        assert!(dets.is_empty());
        // Left then right: one detection spanning both.
        let dets = run_seq(
            Context::Chronicle,
            &[(Slot::Left, occ(1, 1)), (Slot::Right, occ(2, 3))],
        );
        assert_eq!(dets.len(), 1);
        assert_eq!(
            dets[0].interval,
            Interval::new(Ts::from_secs(1), Ts::from_secs(3))
        );
    }

    #[test]
    fn seq_simultaneous_does_not_pair() {
        let dets = run_seq(
            Context::Chronicle,
            &[(Slot::Left, occ(1, 5)), (Slot::Right, occ(2, 5))],
        );
        assert!(dets.is_empty(), "strictly-before required");
    }

    #[test]
    fn seq_contexts_differ() {
        // Two initiators then one terminator.
        let evs = [
            (Slot::Left, occ(1, 1)),
            (Slot::Left, occ(1, 2)),
            (Slot::Right, occ(2, 5)),
            (Slot::Right, occ(2, 6)),
        ];
        // Recent: latest initiator only, reused by both terminators.
        let d = run_seq(Context::Recent, &evs);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].interval.start, Ts::from_secs(2));
        assert_eq!(d[1].interval.start, Ts::from_secs(2));
        // Chronicle: oldest pairs first and is consumed; second terminator
        // gets the second initiator.
        let d = run_seq(Context::Chronicle, &evs);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].interval.start, Ts::from_secs(1));
        assert_eq!(d[1].interval.start, Ts::from_secs(2));
        // Continuous: first terminator consumes both initiators; second gets none.
        let d = run_seq(Context::Continuous, &evs);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].interval.start, Ts::from_secs(1));
        assert_eq!(d[1].interval.start, Ts::from_secs(2));
        assert_eq!(d[0].interval.end, Ts::from_secs(5));
        assert_eq!(d[1].interval.end, Ts::from_secs(5));
        // Cumulative: both initiators merged into one detection.
        let d = run_seq(Context::Cumulative, &evs);
        assert_eq!(d.len(), 1);
        assert_eq!(
            d[0].interval,
            Interval::new(Ts::from_secs(1), Ts::from_secs(5))
        );
        // Unrestricted: all pairings, nothing consumed: 2 + 2.
        let d = run_seq(Context::Unrestricted, &evs);
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn and_pairs_either_order() {
        for order in [[Slot::Left, Slot::Right], [Slot::Right, Slot::Left]] {
            let mut n = NodeState::And(BinState::default());
            let mut out = NodeOutput::default();
            n.on_child(
                EventId(9),
                Context::Chronicle,
                16,
                order[0],
                &occ(1, 1),
                &mut out,
            );
            assert!(out.occurrences.is_empty());
            n.on_child(
                EventId(9),
                Context::Chronicle,
                16,
                order[1],
                &occ(2, 2),
                &mut out,
            );
            assert_eq!(out.occurrences.len(), 1);
        }
    }

    #[test]
    fn and_chronicle_consumes() {
        let mut n = NodeState::And(BinState::default());
        let mut out = NodeOutput::default();
        n.on_child(
            EventId(9),
            Context::Chronicle,
            16,
            Slot::Left,
            &occ(1, 1),
            &mut out,
        );
        n.on_child(
            EventId(9),
            Context::Chronicle,
            16,
            Slot::Right,
            &occ(2, 2),
            &mut out,
        );
        assert_eq!(out.occurrences.len(), 1);
        // Initiator consumed: another right alone does not detect.
        let mut out2 = NodeOutput::default();
        n.on_child(
            EventId(9),
            Context::Chronicle,
            16,
            Slot::Right,
            &occ(2, 3),
            &mut out2,
        );
        assert!(out2.occurrences.is_empty());
    }

    #[test]
    fn and_recent_initiator_survives() {
        let mut n = NodeState::And(BinState::default());
        let mut out = NodeOutput::default();
        n.on_child(
            EventId(9),
            Context::Recent,
            16,
            Slot::Left,
            &occ(1, 1),
            &mut out,
        );
        n.on_child(
            EventId(9),
            Context::Recent,
            16,
            Slot::Right,
            &occ(2, 2),
            &mut out,
        );
        n.on_child(
            EventId(9),
            Context::Recent,
            16,
            Slot::Right,
            &occ(2, 3),
            &mut out,
        );
        // Left initiator reused by both right occurrences.
        assert_eq!(out.occurrences.len(), 2);
    }

    #[test]
    fn not_detects_only_without_middle() {
        let me = EventId(9);
        // S at 1, E at 5, no M: detection.
        let mut n = NodeState::Not(WindowedState::default());
        let mut out = NodeOutput::default();
        n.on_child(me, Context::Chronicle, 16, Slot::Left, &occ(1, 1), &mut out);
        n.on_child(me, Context::Chronicle, 16, Slot::End, &occ(3, 5), &mut out);
        assert_eq!(out.occurrences.len(), 1);
        assert_eq!(
            out.occurrences[0].interval,
            Interval::new(Ts::from_secs(1), Ts::from_secs(5))
        );

        // S at 1, M at 3, E at 5: no detection.
        let mut n = NodeState::Not(WindowedState::default());
        let mut out = NodeOutput::default();
        n.on_child(me, Context::Chronicle, 16, Slot::Left, &occ(1, 1), &mut out);
        n.on_child(
            me,
            Context::Chronicle,
            16,
            Slot::Middle,
            &occ(2, 3),
            &mut out,
        );
        n.on_child(me, Context::Chronicle, 16, Slot::End, &occ(3, 5), &mut out);
        assert!(out.occurrences.is_empty());
    }

    #[test]
    fn aperiodic_detects_middle_in_window() {
        let me = EventId(9);
        let mut n = NodeState::Aperiodic {
            st: WindowedState::default(),
            cumulative: false,
        };
        let mut out = NodeOutput::default();
        // M before window opens: nothing.
        n.on_child(me, Context::Recent, 16, Slot::Middle, &occ(2, 1), &mut out);
        assert!(out.occurrences.is_empty());
        // Open window, then M inside: detection with M's interval.
        n.on_child(me, Context::Recent, 16, Slot::Left, &occ(1, 2), &mut out);
        n.on_child(me, Context::Recent, 16, Slot::Middle, &occ(2, 4), &mut out);
        assert_eq!(out.occurrences.len(), 1);
        assert_eq!(out.occurrences[0].interval, Interval::at(Ts::from_secs(4)));
        // Close window; M afterwards: nothing.
        n.on_child(me, Context::Recent, 16, Slot::End, &occ(3, 6), &mut out);
        let before = out.occurrences.len();
        n.on_child(me, Context::Recent, 16, Slot::Middle, &occ(2, 8), &mut out);
        assert_eq!(out.occurrences.len(), before);
    }

    #[test]
    fn aperiodic_star_accumulates() {
        let me = EventId(9);
        let mut n = NodeState::Aperiodic {
            st: WindowedState::default(),
            cumulative: true,
        };
        let mut out = NodeOutput::default();
        n.on_child(me, Context::Recent, 16, Slot::Left, &occ(1, 1), &mut out);
        n.on_child(me, Context::Recent, 16, Slot::Middle, &occ(2, 2), &mut out);
        n.on_child(me, Context::Recent, 16, Slot::Middle, &occ(2, 3), &mut out);
        assert!(out.occurrences.is_empty(), "A* defers to terminator");
        n.on_child(me, Context::Recent, 16, Slot::End, &occ(3, 5), &mut out);
        assert_eq!(out.occurrences.len(), 1);
        // Both middles contributed.
        assert_eq!(out.occurrences[0].sources.len(), 4);
    }

    #[test]
    fn plus_schedules_timer_then_fires() {
        let me = EventId(9);
        let mut n = NodeState::Plus {
            delta: Dur::from_secs(10),
        };
        let mut out = NodeOutput::default();
        n.on_child(me, Context::Recent, 16, Slot::Left, &occ(1, 5), &mut out);
        assert!(out.occurrences.is_empty());
        assert_eq!(out.timers.len(), 1);
        let req = out.timers.pop().unwrap();
        let TimerReq::Plus { at, .. } = &req else {
            panic!("wrong timer kind")
        };
        assert_eq!(*at, Ts::from_secs(15));
        let mut out2 = NodeOutput::default();
        n.on_timer(me, Ts::from_secs(15), &req, &mut None, &mut out2);
        assert_eq!(out2.occurrences.len(), 1);
        assert_eq!(
            out2.occurrences[0].interval,
            Interval::new(Ts::from_secs(5), Ts::from_secs(15))
        );
    }

    #[test]
    fn periodic_ticks_until_closed() {
        let me = EventId(9);
        let mut n = NodeState::Periodic {
            st: WindowedState::default(),
            period: Dur::from_secs(10),
            cumulative: false,
        };
        let mut out = NodeOutput::default();
        n.on_child(me, Context::Recent, 16, Slot::Left, &occ(1, 0), &mut out);
        assert_eq!(out.timers.len(), 1);
        // Fire two ticks.
        let t1 = out.timers.remove(0);
        let mut o1 = NodeOutput::default();
        n.on_timer(me, Ts::from_secs(10), &t1, &mut None, &mut o1);
        assert_eq!(o1.occurrences.len(), 1);
        assert_eq!(o1.timers.len(), 1);
        // Close the window; pending tick becomes a no-op.
        n.on_periodic_end(me, &occ(3, 15), &mut o1);
        let t2 = o1.timers.remove(0);
        let mut o2 = NodeOutput::default();
        n.on_timer(me, Ts::from_secs(20), &t2, &mut None, &mut o2);
        assert!(o2.occurrences.is_empty());
        assert!(o2.timers.is_empty());
    }

    #[test]
    fn buffer_cap_evicts_oldest() {
        let mut buf = VecDeque::new();
        for t in 0..5 {
            push_buf(&mut buf, occ(1, t), Context::Chronicle, 3);
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf[0].interval.start, Ts::from_secs(2));
    }
}
