//! Multi-node model checking: a replication group as one explorable
//! state, with message deliveries, losses, duplicates, per-node crashes
//! and failovers in the choice alphabet.
//!
//! [`ClusterWorld`] wraps a [`repl::Cluster`] (leader + followers over
//! the simulated lossy transport) plus the client script and leader-side
//! session handles. Every source of distributed nondeterminism becomes a
//! [`NetChoice`] the generic explorer branches on: *which* in-flight
//! message is delivered, dropped or duplicated next, *which* node
//! power-fails, *when* the retransmission timeout fires, *who* gets
//! promoted after the leader dies, and *when* a follower read happens
//! relative to shipping.
//!
//! Under reduction, two partial-order rules keep the tree tractable:
//! deliveries to distinct destinations commute (each node consumes its
//! own mail in FIFO order, and handlers touch only the destination node
//! plus the shared leader bookkeeping — which delivery order per
//! destination already determines), so only the earliest in-flight
//! message per destination is branched on; and the in-flight queue is
//! fingerprinted per destination, order-independent across destinations,
//! so interleavings that differ only in cross-destination send order
//! merge.
//!
//! [`ClusterInvariants`] asserts after every step that no interleaving
//! loses a cluster-acknowledged operation, that every up node's state is
//! the sequential replay of its journaled prefix of cluster history,
//! that SSD/DSD/cardinality hold on every node, and that no follower
//! answers a read past its snapshot's validity horizon.

use crate::explore::{Budget, Checker, SimWorld, Stats};
use crate::invariants::{Invariants, Violation};
use crate::world::{apply_client_op, hash_engine, Fnv, StepError};
use owte_core::{checked_index, replay, state_diff};
use policy::PolicyGraph;
use rbac::SessionId;
use repl::{Cluster, Payload, ReadOutcome, ReplConfig, Transport};
use snoop::Ts;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use workload::{Client, Step};

/// One scheduler decision over a replication group. Slot indices address
/// the transport's in-flight queue (oldest first) at the moment the
/// choice applies; everything else is position-independent, so recorded
/// schedules replay deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetChoice {
    /// Run the next client operation on the leader (journal + ship).
    ClientOp,
    /// Deliver the in-flight message at `slot` to its destination.
    Deliver {
        /// Queue slot (0 = oldest).
        slot: usize,
    },
    /// The network loses the in-flight message at `slot`.
    DropMsg {
        /// Queue slot (0 = oldest).
        slot: usize,
    },
    /// The network duplicates the in-flight message at `slot`.
    DupMsg {
        /// Queue slot (0 = oldest).
        slot: usize,
    },
    /// Power-fail node `node` (unsynced bytes dropped, disk survives).
    CrashNode {
        /// Which node dies.
        node: usize,
    },
    /// Restart crashed node `node`: recover from its own WAL, fenced to
    /// the current term.
    RestartNode {
        /// Which node recovers.
        node: usize,
    },
    /// Fail over to node `node` (enabled only while the leader is down).
    Promote {
        /// The follower to promote.
        node: usize,
    },
    /// Advance the virtual clock to the next retransmission deadline and
    /// resend (enabled only when the network is quiet and a follower
    /// still lags — the "all my messages were lost" timeout path).
    Tick,
    /// A client reads through follower `node`'s published snapshot at
    /// the leader's current logical time.
    Read {
        /// The follower asked.
        node: usize,
    },
}

impl fmt::Display for NetChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetChoice::ClientOp => write!(f, "op"),
            NetChoice::Deliver { slot } => write!(f, "deliver[{slot}]"),
            NetChoice::DropMsg { slot } => write!(f, "drop[{slot}]"),
            NetChoice::DupMsg { slot } => write!(f, "dup[{slot}]"),
            NetChoice::CrashNode { node } => write!(f, "crash(n{node})"),
            NetChoice::RestartNode { node } => write!(f, "restart(n{node})"),
            NetChoice::Promote { node } => write!(f, "promote(n{node})"),
            NetChoice::Tick => write!(f, "tick"),
            NetChoice::Read { node } => write!(f, "read(n{node})"),
        }
    }
}

/// Duplication choices are only offered while the in-flight queue is at
/// most this long — one duplicate per protocol round is enough to prove
/// idempotence, and unbounded duplication makes the tree infinite.
const DUP_QUEUE_BOUND: usize = 2;

/// The last follower read a schedule performed, for the staleness
/// invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRecord {
    /// The follower that answered.
    pub node: usize,
    /// The query timestamp.
    pub at: Ts,
    /// What it answered.
    pub outcome: ReadOutcome,
}

/// A replication group as one explorable state: the cluster, the client
/// script, leader-side session handles, and the schedule so far.
#[derive(Clone)]
pub struct ClusterWorld {
    cluster: Cluster,
    graph: Rc<PolicyGraph>,
    ops: Rc<Vec<Step>>,
    cursor: usize,
    client: Client,
    crashes: usize,
    /// The read performed by the immediately preceding step, if any —
    /// the staleness invariant runs exactly then.
    last_read: Option<ReadRecord>,
    /// Operation/object names follower reads ask about (the policy's
    /// first permission).
    read_target: Option<(String, String)>,
    schedule: Vec<NetChoice>,
}

impl ClusterWorld {
    /// Boot an `n`-node group from `graph` with `ops` staged as the
    /// client script.
    pub fn new(
        graph: &PolicyGraph,
        n: usize,
        ops: Vec<Step>,
        config: ReplConfig,
    ) -> Result<ClusterWorld, String> {
        let cluster =
            Cluster::new(graph, n, config).map_err(|e| format!("cluster genesis failed: {e}"))?;
        let read_target = graph
            .permissions
            .first()
            .map(|p| (p.op.clone(), p.obj.clone()));
        Ok(ClusterWorld {
            cluster,
            graph: Rc::new(graph.clone()),
            ops: Rc::new(ops),
            cursor: 0,
            client: Client::new(graph.users.len()),
            crashes: 0,
            last_read: None,
            read_target,
            schedule: Vec::new(),
        })
    }

    /// The replication group.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The policy graph the group was built from.
    pub fn graph(&self) -> &PolicyGraph {
        &self.graph
    }

    /// The read performed by the immediately preceding step, if any.
    pub fn last_read(&self) -> Option<&ReadRecord> {
        self.last_read.as_ref()
    }

    /// The schedule (sequence of applied choices) that produced this
    /// world from its initial state.
    pub fn schedule(&self) -> &[NetChoice] {
        &self.schedule
    }

    /// First live session handle and the read target, if both exist —
    /// what a [`NetChoice::Read`] asks about.
    fn read_query(&self) -> Option<(SessionId, &str, &str)> {
        let s = self.client.sessions().iter().flatten().next().copied()?;
        let (op, obj) = self.read_target.as_ref()?;
        Some((s, op, obj))
    }

    fn not_enabled(choice: &NetChoice) -> StepError<NetChoice> {
        StepError::NotEnabled(choice.clone())
    }
}

impl SimWorld for ClusterWorld {
    type Choice = NetChoice;

    fn enabled_choices(
        &self,
        budget: &Budget,
        reduction: bool,
        stats: &mut Stats,
    ) -> Vec<NetChoice> {
        let c = &self.cluster;
        let leader_up = c.leader().is_some();
        let mut out = Vec::new();
        if leader_up && self.cursor < self.ops.len() {
            out.push(NetChoice::ClientOp);
        }
        // Message choices: under reduction, deliveries to distinct
        // destinations commute, so branch only on the earliest in-flight
        // message per destination.
        let pending = c.transport().pending();
        let mut slots: Vec<usize> = Vec::new();
        if reduction {
            let mut seen_dest = std::collections::BTreeSet::new();
            for (i, env) in pending.iter().enumerate() {
                if seen_dest.insert(env.to.0) {
                    slots.push(i);
                } else {
                    stats.pruned_commute += 1;
                }
            }
        } else {
            slots.extend(0..pending.len());
        }
        for s in slots {
            out.push(NetChoice::Deliver { slot: s });
            out.push(NetChoice::DropMsg { slot: s });
            if pending.len() <= DUP_QUEUE_BOUND {
                out.push(NetChoice::DupMsg { slot: s });
            }
        }
        if self.crashes < budget.max_crashes {
            for n in 0..c.len() {
                if c.is_up(n) {
                    out.push(NetChoice::CrashNode { node: n });
                }
            }
        }
        for n in 0..c.len() {
            if !c.is_up(n) {
                out.push(NetChoice::RestartNode { node: n });
            }
        }
        if !leader_up {
            for n in 0..c.len() {
                if c.is_up(n) {
                    out.push(NetChoice::Promote { node: n });
                }
            }
        }
        if leader_up && c.transport().in_flight() == 0 && c.next_retransmit_due().is_some() {
            out.push(NetChoice::Tick);
        }
        if leader_up && self.read_query().is_some() {
            for n in 0..c.len() {
                if c.is_up(n) && c.leader() != Some(n) {
                    out.push(NetChoice::Read { node: n });
                }
            }
        }
        out
    }

    fn apply_choice(&mut self, choice: &NetChoice) -> Result<(), StepError<NetChoice>> {
        self.last_read = None;
        match choice {
            NetChoice::ClientOp => {
                let Some(op) = self.ops.get(self.cursor).cloned() else {
                    return Err(Self::not_enabled(choice));
                };
                let client = &mut self.client;
                if self
                    .cluster
                    .with_leader(|d| {
                        apply_client_op(d, client, &op);
                    })
                    .is_err()
                {
                    return Err(Self::not_enabled(choice));
                }
                self.cursor += 1;
            }
            NetChoice::Deliver { slot } => {
                if !self.cluster.deliver_slot(*slot) {
                    return Err(Self::not_enabled(choice));
                }
            }
            NetChoice::DropMsg { slot } => {
                if !self.cluster.transport_mut().drop_slot(*slot) {
                    return Err(Self::not_enabled(choice));
                }
            }
            NetChoice::DupMsg { slot } => {
                if !self.cluster.transport_mut().dup_slot(*slot) {
                    return Err(Self::not_enabled(choice));
                }
            }
            NetChoice::CrashNode { node } => {
                if self.cluster.crash(*node).is_err() {
                    return Err(Self::not_enabled(choice));
                }
                self.crashes += 1;
                // Session handles stay valid across leader crashes:
                // session state is replicated, and a promoted leader
                // serves the same session IDs.
            }
            NetChoice::RestartNode { node } => {
                match self.cluster.restart(*node) {
                    Ok(_) => {}
                    Err(repl::ReplError::Durable(e)) => {
                        // Recovery failed outright: that *is* the
                        // violation, like the single-process world.
                        self.schedule.push(choice.clone());
                        return Err(StepError::Violation(Violation::RecoveryFailed {
                            error: e.to_string(),
                        }));
                    }
                    Err(_) => return Err(Self::not_enabled(choice)),
                }
            }
            NetChoice::Promote { node } => {
                if self.cluster.promote(*node).is_err() {
                    return Err(Self::not_enabled(choice));
                }
            }
            NetChoice::Tick => {
                let Some(due) = self.cluster.next_retransmit_due() else {
                    return Err(Self::not_enabled(choice));
                };
                let wait = due.saturating_sub(self.cluster.clock_ms()).max(1);
                self.cluster.tick(wait);
            }
            NetChoice::Read { node } => {
                let Some((session, op, obj)) = self.read_query() else {
                    return Err(Self::not_enabled(choice));
                };
                let Ok(at) = self.cluster.leader_now() else {
                    return Err(Self::not_enabled(choice));
                };
                let (op, obj) = {
                    let Some(d) = self.cluster.node_engine(*node) else {
                        return Err(Self::not_enabled(choice));
                    };
                    let sys = d.engine().system();
                    let (Ok(o), Ok(b)) = (sys.op_by_name(op), sys.obj_by_name(obj)) else {
                        return Err(Self::not_enabled(choice));
                    };
                    (o, b)
                };
                match self.cluster.read_at(*node, session, op, obj, at) {
                    Ok(outcome) => {
                        self.last_read = Some(ReadRecord {
                            node: *node,
                            at,
                            outcome,
                        });
                    }
                    Err(_) => return Err(Self::not_enabled(choice)),
                }
            }
        }
        self.schedule.push(choice.clone());
        Ok(())
    }

    fn describe_choice(&self, choice: &NetChoice) -> String {
        let msg = |slot: &usize| -> String {
            match self.cluster.transport().pending().get(*slot) {
                Some(env) => {
                    let kind = match env.payload() {
                        Ok(Payload::Append { term, records, .. }) => {
                            format!("Append(term {term}, {} recs)", records.len())
                        }
                        Ok(Payload::Ack { term, next_index }) => {
                            format!("Ack(term {term}, next {next_index})")
                        }
                        Err(_) => "<corrupt>".to_string(),
                    };
                    format!("{}→{} {kind}", env.from, env.to)
                }
                None => "<empty slot>".to_string(),
            }
        };
        match choice {
            NetChoice::ClientOp => {
                let next = self
                    .ops
                    .get(self.cursor)
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| "<none>".into());
                format!("op[{}] on leader: {next}", self.cursor)
            }
            NetChoice::Deliver { slot } => format!("deliver msg[{slot}]: {}", msg(slot)),
            NetChoice::DropMsg { slot } => format!("network loses msg[{slot}]: {}", msg(slot)),
            NetChoice::DupMsg { slot } => format!("network duplicates msg[{slot}]: {}", msg(slot)),
            NetChoice::CrashNode { node } => format!("power-fail n{node}"),
            NetChoice::RestartNode { node } => {
                format!("restart n{node}: recover from its WAL, fence to current term")
            }
            NetChoice::Promote { node } => format!("fail over: promote n{node}"),
            NetChoice::Tick => "advance clock to retransmission deadline and resend".to_string(),
            NetChoice::Read { node } => {
                format!("client reads via n{node}'s snapshot at leader time")
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        let c = &self.cluster;
        let mut h = Fnv::new();
        h.u64(self.cursor as u64);
        h.u64(self.crashes as u64);
        for s in self.client.sessions() {
            match s {
                Some(sid) => h.str(&format!("S{sid}")),
                None => h.str("-"),
            }
        }
        h.u64(c.term());
        h.u64(c.commit());
        match c.leader() {
            Some(l) => h.u64(l as u64 + 1),
            None => h.u64(0),
        }
        for op in c.history() {
            h.str(&format!("{op:?}"));
        }
        for n in 0..c.len() {
            h.u64(c.node_term(n));
            h.u64(c.node_disk_digest(n));
            match c.node_engine(n) {
                Some(d) => {
                    h.str("up");
                    h.u64(d.op_count());
                    hash_engine(&mut h, d.engine());
                }
                None => h.str("down"),
            }
            // What a restart will trust of a down node's log.
            h.u64(c.rejoin_floor(n).map_or(0, |floor| floor + 1));
            // Leader-side shipping state: indices, backoff stage, and the
            // *relative* retransmission deadline (absolute virtual time is
            // behavior-irrelevant, so time-shifted states merge).
            h.u64(c.acked_index(n));
            h.u64(c.next_index(n));
            h.u64(u64::from(c.attempts(n)));
            h.u64(c.due_in(n));
        }
        // In-flight messages: per-destination FIFO order matters, order
        // across destinations commutes — hash each destination's queue in
        // order, combine destinations order-independently.
        let mut per_dest: BTreeMap<usize, Fnv> = BTreeMap::new();
        for env in c.transport().pending() {
            let f = per_dest.entry(env.to.0).or_insert_with(Fnv::new);
            f.u64(env.from.0 as u64);
            f.bytes(&env.frame);
        }
        let mut acc: u64 = 0;
        for (dest, f) in per_dest {
            let mut g = Fnv::new();
            g.u64(dest as u64);
            g.u64(f.finish());
            acc ^= g.finish();
        }
        h.u64(acc);
        h.finish()
    }

    fn crashes(&self) -> usize {
        self.crashes
    }

    fn schedule_choices(&self) -> &[NetChoice] {
        &self.schedule
    }
}

/// The replication invariant suite: cluster-level durability plus the
/// single-process RBAC invariants on every node.
#[derive(Debug, Clone)]
pub struct ClusterInvariants {
    rbac: Invariants,
}

impl ClusterInvariants {
    /// Derive the suite from the policy that *should* be enforced on
    /// every node.
    pub fn from_reference(graph: &PolicyGraph) -> ClusterInvariants {
        ClusterInvariants {
            rbac: Invariants::from_reference(graph),
        }
    }
}

impl Checker<ClusterWorld> for ClusterInvariants {
    fn check(&self, world: &ClusterWorld) -> Option<Violation> {
        let c = world.cluster();

        // --- No acknowledged operation is ever lost. ---
        // Whoever currently leads must durably hold the entire
        // cluster-acknowledged prefix; a promoted follower with a shorter
        // log than the commit index means acks were handed out for
        // operations nobody but the dead leader had journaled.
        if let Some(li) = c.leader() {
            let len = c.node_op_count(li).unwrap_or(0);
            if len < c.commit() {
                return Some(Violation::AckedOpsLost {
                    acked: checked_index(c.commit()),
                    recovered: len,
                });
            }
        }

        // --- Every node: RBAC invariants + acked-prefix replay. ---
        for n in 0..c.len() {
            let Some(d) = c.node_engine(n) else {
                continue; // crashed nodes have nothing observable
            };
            let e = d.engine();
            if let Some(v) = self.rbac.check_rbac(e) {
                return Some(v);
            }
            let k = checked_index(d.op_count());
            if k > c.history().len() {
                return Some(Violation::FollowerDivergence {
                    node: n,
                    detail: format!(
                        "journal length {k} exceeds cluster history ({} ops)",
                        c.history().len()
                    ),
                });
            }
            match replay(world.graph(), Ts::ZERO, &c.history()[..k]) {
                Err(err) => {
                    return Some(Violation::FollowerDivergence {
                        node: n,
                        detail: format!("journaled prefix does not replay: {err}"),
                    })
                }
                Ok(expected) => {
                    if let Some(detail) = state_diff(e, &expected) {
                        return Some(Violation::FollowerDivergence { node: n, detail });
                    }
                }
            }
        }

        // --- Follower reads never outrun the validity horizon. ---
        // The horizon is recomputed from the node's *engine* (not the
        // published snapshot), so a snapshot the node forgot to refresh
        // cannot vouch for itself.
        if let Some(r) = world.last_read() {
            if r.outcome != ReadOutcome::Stale {
                if let Some(d) = c.node_engine(r.node) {
                    if let Some(hz) = d.engine().validity_horizon() {
                        if r.at >= hz {
                            return Some(Violation::StaleReadServed {
                                node: r.node,
                                at: format!("{}", r.at),
                                horizon: format!("{hz}"),
                            });
                        }
                    }
                }
            }
        }

        None
    }
}
