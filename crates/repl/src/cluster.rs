//! A WAL-shipping replication group with term-fenced failover.
//!
//! One leader accepts client operations through its [`DurableEngine`]
//! (journal-before-apply, exactly as standalone); every journal record it
//! acknowledges is shipped to the followers as a CRC-framed
//! [`Payload::Append`] batch over a [`Transport`]. Followers journal each
//! record to their *own* durable WAL before applying it
//! ([`DurableEngine::submit`]), so a promoted follower recovers
//! replicated history from its own disk, then acknowledge with their new
//! journal length. The leader's *commit index* is the longest prefix
//! durably journaled everywhere — `min(leader length, min follower acked
//! index)` — and only that prefix counts as cluster-acknowledged.
//!
//! ## Failover & fencing
//!
//! Promotion models an operator/failover controller with fencing power:
//! [`Cluster::promote`] bumps the monotonic cluster term, durably writes
//! it (via the [`Storage`] trait, in a `term` file the WAL scanners
//! ignore) on every reachable node before the new leader serves anything,
//! and wipes any surviving node whose log ran past the new leader's (its
//! unacknowledged suffix is gone by definition of commit). In-flight
//! messages from the deposed epoch carry the old term and are rejected on
//! receipt; a crashed old leader is fenced on [`Cluster::restart`] before
//! it rejoins, and a node that was down through a promotion is wiped there
//! if it journaled anything past the commit index of that promotion:
//! such a record was never acknowledged, and the new epoch may since have
//! written another one at its index. The new leader probes followers with
//! an empty `Append` and re-ships from each follower's acknowledged index.
//!
//! ## Follower reads
//!
//! Followers publish an [`AuthSnapshot`] after every applied batch and
//! answer `check_access` from it without any engine lock — but only
//! inside the snapshot's temporal validity horizon. A query timestamped
//! past the horizon (a GTRBAC boundary or detector timer the follower may
//! not have replayed yet) returns [`ReadOutcome::Stale`] and must be
//! re-asked at the leader, as must any non-provable denial.
//!
//! Replica logs are kept compaction-free (`snapshot_every` is forced off)
//! so the leader can always re-ship from any acknowledged index; log
//! compaction coordinated with follower progress is future work.

use crate::msg::{Envelope, NodeId, Payload};
use crate::transport::{NetFaultPlan, SimTransport, Transport};
use owte_core::{
    checked_index, AuthSnapshot, DurableConfig, DurableEngine, DurableError, FaultPlan,
    FaultyStorage, JournalOp, MemStorage, RecoveryStats, SplitMix64, Storage,
};
use policy::PolicyGraph;
use rbac::{ObjId, OpId, SessionId};
use snoop::Ts;
use std::fmt;

/// The storage stack cluster nodes run on: deterministic fault injection
/// over a crashable in-memory disk (the same stack the single-node model
/// checker uses).
pub type ReplStore = FaultyStorage<MemStorage>;

/// Name of the durable term file (ignored by the WAL's segment/snapshot
/// name parsers).
pub const TERM_FILE: &str = "term";

/// Durably record `term` through the storage trait (create + append +
/// sync, so it survives a crash).
pub fn write_term<S: Storage>(
    storage: &mut S,
    term: u64,
) -> std::result::Result<(), owte_core::StorageError> {
    if storage.list()?.iter().any(|n| n == TERM_FILE) {
        storage.delete(TERM_FILE)?;
    }
    storage.create(TERM_FILE)?;
    storage.append(TERM_FILE, &term.to_le_bytes())?;
    storage.sync(TERM_FILE)
}

/// Read back the durable term; 0 if absent or unreadable (a pre-fencing
/// store).
pub fn read_term<S: Storage>(storage: &S) -> u64 {
    match storage.read(TERM_FILE) {
        Ok(b) if b.len() >= 8 => u64::from_le_bytes(b[..8].try_into().unwrap()),
        _ => 0,
    }
}

/// Tunables for a replication group.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Durable-engine tunables for every node. `snapshot_every` is forced
    /// to `None` (see the module docs on compaction).
    pub durable: DurableConfig,
    /// Transport fault plan (seeded, replayable).
    pub net: NetFaultPlan,
    /// Seed for the transport's fault PRNG and the leader's jitter.
    pub net_seed: u64,
    /// Base retransmission timeout (virtual milliseconds).
    pub retransmit_after: u64,
    /// Cap for the exponential backoff (virtual milliseconds).
    pub backoff_max: u64,
    /// Add seeded jitter to each backoff so retransmissions desynchronize.
    pub jitter: bool,
    /// Maximum records per `Append` batch.
    pub max_batch: usize,
    /// Seeded bug: count a client op as committed the moment the *leader*
    /// journals it, before any follower acknowledges — the lost-ack bug
    /// the model checker must find and shrink.
    pub premature_ack: bool,
}

impl Default for ReplConfig {
    fn default() -> ReplConfig {
        ReplConfig {
            durable: DurableConfig::default(),
            net: NetFaultPlan::default(),
            net_seed: 0,
            retransmit_after: 10,
            backoff_max: 160,
            jitter: true,
            max_batch: 64,
            premature_ack: false,
        }
    }
}

/// An error from the replication layer.
#[derive(Debug)]
pub enum ReplError {
    /// No live leader to route the operation to.
    NoLeader,
    /// The addressed node is down (or the operation needs it up).
    NodeDown(usize),
    /// The addressed node is not down (restart needs a crashed node).
    NodeUp(usize),
    /// No node with this index exists.
    BadNode(usize),
    /// The durable layer failed.
    Durable(DurableError),
    /// A raw storage operation (term fencing) failed.
    Storage(owte_core::StorageError),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::NoLeader => write!(f, "repl: no live leader"),
            ReplError::NodeDown(n) => write!(f, "repl: node n{n} is down"),
            ReplError::NodeUp(n) => write!(f, "repl: node n{n} is not down"),
            ReplError::BadNode(n) => write!(f, "repl: no node n{n}"),
            ReplError::Durable(e) => write!(f, "repl: {e}"),
            ReplError::Storage(e) => write!(f, "repl: {e}"),
        }
    }
}

impl std::error::Error for ReplError {}

/// Result alias for cluster operations.
pub type Result<T> = std::result::Result<T, ReplError>;

/// What a follower read produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Provably allowed from the follower's snapshot — authoritative.
    Granted,
    /// Not provable from the snapshot. Not authoritative: the caller must
    /// re-ask the leader, whose locked path audits the denial.
    NotGranted,
    /// The query's timestamp is outside the snapshot's validity horizon
    /// (a temporal transition the follower may not have replayed yet).
    /// The read degrades to the leader.
    Stale,
}

/// The process half of a node: a live durable engine, or a crashed disk.
#[derive(Clone)]
enum NodeState {
    Up(Box<DurableEngine<ReplStore>>),
    Down(MemStorage),
}

/// One replica.
#[derive(Clone)]
struct Node {
    state: NodeState,
    /// Cached copy of the node's durable term file.
    term: u64,
    /// Published read snapshot (refreshed after every applied batch).
    snap: Option<AuthSnapshot>,
    /// Set while the node is down, by the first promotion it misses: the
    /// commit index at that promotion. Records up to it are on every
    /// disk; whatever this node journaled past it belongs to a term that
    /// ended unacknowledged, so [`Cluster::restart`] wipes the node rather
    /// than compare lengths with a leader that has moved on.
    rejoin_floor: Option<u64>,
}

/// Leader-side shipping state for one follower.
#[derive(Debug, Clone, Copy)]
struct Peer {
    /// Next record index to ship.
    next_index: u64,
    /// Longest prefix the follower has durably acknowledged.
    acked_index: u64,
    /// Unacknowledged (re)transmissions since the last ack.
    attempts: u32,
    /// Virtual instant the next (re)transmission is allowed.
    due: u64,
}

impl Peer {
    fn fresh(next_index: u64, acked_index: u64) -> Peer {
        Peer {
            next_index,
            acked_index,
            attempts: 0,
            due: 0,
        }
    }
}

/// A replication group: N durable nodes, one leader, a simulated lossy
/// transport, and the client-visible history/commit ledger.
#[derive(Clone)]
pub struct Cluster {
    nodes: Vec<Node>,
    peers: Vec<Peer>,
    transport: SimTransport,
    leader: Option<usize>,
    /// Monotonic cluster epoch; bumped by every promotion.
    term: u64,
    /// Longest prefix of `history` durably journaled cluster-wide (or
    /// leader-journaled, under the `premature_ack` bug).
    commit: u64,
    /// Every operation journaled by successive leaders, in global index
    /// order; truncated to the new leader's log on promotion.
    history: Vec<JournalOp>,
    graph: PolicyGraph,
    start: Ts,
    config: ReplConfig,
    /// Virtual transport clock (milliseconds) driving retransmission.
    clock_ms: u64,
    rng: SplitMix64,
    stale_reads: u64,
}

impl Cluster {
    /// Boot a group of `n` nodes from `graph`; node 0 leads at term 1.
    pub fn new(graph: &PolicyGraph, n: usize, config: ReplConfig) -> Result<Cluster> {
        assert!(n >= 1, "a cluster needs at least one node");
        let durable = DurableConfig {
            snapshot_every: None,
            ..config.durable.clone()
        };
        let start = Ts::ZERO;
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let storage = FaultyStorage::new(MemStorage::new(), i as u64, FaultPlan::default());
            let mut d = DurableEngine::create(storage, graph, start, durable.clone())
                .map_err(ReplError::Durable)?;
            write_term(d.storage_mut(), 1).map_err(ReplError::Storage)?;
            let snap = d.engine().snapshot();
            nodes.push(Node {
                state: NodeState::Up(Box::new(d)),
                term: 1,
                snap: Some(snap),
                rejoin_floor: None,
            });
        }
        Ok(Cluster {
            nodes,
            peers: vec![Peer::fresh(0, 0); n],
            transport: SimTransport::new(config.net_seed, config.net.clone()),
            leader: Some(0),
            term: 1,
            commit: 0,
            history: Vec::new(),
            graph: graph.clone(),
            start,
            rng: SplitMix64(config.net_seed ^ 0xD1B5_4A32_D192_ED03),
            config,
            clock_ms: 0,
            stale_reads: 0,
        })
    }

    fn durable_config(&self) -> DurableConfig {
        DurableConfig {
            snapshot_every: None,
            ..self.config.durable.clone()
        }
    }

    /// Number of nodes in the group.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for a degenerate zero-node group (never constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The current leader, if one is designated and up.
    pub fn leader(&self) -> Option<usize> {
        let li = self.leader?;
        matches!(self.nodes[li].state, NodeState::Up(_)).then_some(li)
    }

    /// The current cluster term (epoch).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// A node's cached durable term.
    pub fn node_term(&self, n: usize) -> u64 {
        self.nodes[n].term
    }

    /// Is node `n` up?
    pub fn is_up(&self, n: usize) -> bool {
        matches!(self.nodes[n].state, NodeState::Up(_))
    }

    /// The cluster commit index: length of the acknowledged prefix.
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Every operation journaled by successive leaders.
    pub fn history(&self) -> &[JournalOp] {
        &self.history
    }

    /// The cluster-acknowledged prefix of [`Cluster::history`].
    pub fn acked_ops(&self) -> &[JournalOp] {
        let n = checked_index(self.commit).min(self.history.len());
        &self.history[..n]
    }

    /// Borrow a node's live engine, if up.
    pub fn node_engine(&self, n: usize) -> Option<&DurableEngine<ReplStore>> {
        match self.nodes.get(n)?.state {
            NodeState::Up(ref d) => Some(d),
            NodeState::Down(_) => None,
        }
    }

    /// A node's journal length (its durable log), if up.
    pub fn node_op_count(&self, n: usize) -> Option<u64> {
        self.node_engine(n).map(|d| d.op_count())
    }

    /// A node's published read snapshot, if up.
    pub fn node_snapshot(&self, n: usize) -> Option<&AuthSnapshot> {
        match self.nodes.get(n)?.state {
            NodeState::Up(_) => self.nodes[n].snap.as_ref(),
            NodeState::Down(_) => None,
        }
    }

    /// The commit index of the first promotion node `n` has missed since
    /// it went down, if any: how much of its log [`Cluster::restart`] will
    /// trust.
    pub fn rejoin_floor(&self, n: usize) -> Option<u64> {
        self.nodes[n].rejoin_floor
    }

    /// The leader-side acked index for follower `n`.
    pub fn acked_index(&self, n: usize) -> u64 {
        self.peers[n].acked_index
    }

    /// The leader-side next shipping index for follower `n`.
    pub fn next_index(&self, n: usize) -> u64 {
        self.peers[n].next_index
    }

    /// Unacknowledged (re)transmissions to follower `n` since its last
    /// ack (drives the exponential backoff).
    pub fn attempts(&self, n: usize) -> u32 {
        self.peers[n].attempts
    }

    /// Virtual milliseconds until follower `n`'s next allowed
    /// (re)transmission; 0 when it may be shipped to immediately.
    pub fn due_in(&self, n: usize) -> u64 {
        self.peers[n].due.saturating_sub(self.clock_ms)
    }

    /// Digest of node `n`'s durable bytes — for a live node, what its
    /// disk would hold after a power loss; for a crashed node, what the
    /// disk holds now. Model-checker fingerprint material.
    pub fn node_disk_digest(&self, n: usize) -> u64 {
        match &self.nodes[n].state {
            NodeState::Up(d) => {
                let mut mem = d.storage().inner().clone();
                mem.crash();
                mem.state_digest()
            }
            NodeState::Down(mem) => mem.state_digest(),
        }
    }

    /// The simulated transport (inspection).
    pub fn transport(&self) -> &SimTransport {
        &self.transport
    }

    /// The simulated transport, mutable (partitions, scripted faults).
    pub fn transport_mut(&mut self) -> &mut SimTransport {
        &mut self.transport
    }

    /// The virtual transport clock (milliseconds).
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Follower reads answered `Stale` so far.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }

    /// The leader engine's logical clock (client-perceived time).
    pub fn leader_now(&self) -> Result<Ts> {
        let li = self.leader().ok_or(ReplError::NoLeader)?;
        Ok(self
            .node_engine(li)
            .expect("leader() checked liveness")
            .engine()
            .now())
    }

    /// Run a client operation on the leader's durable engine, extend the
    /// cluster history with whatever it journaled, and ship the new
    /// records to the followers.
    pub fn with_leader<R>(
        &mut self,
        f: impl FnOnce(&mut DurableEngine<ReplStore>) -> R,
    ) -> Result<R> {
        let li = self.leader.ok_or(ReplError::NoLeader)?;
        let NodeState::Up(d) = &mut self.nodes[li].state else {
            return Err(ReplError::NodeDown(li));
        };
        let before = d.op_count();
        let r = f(d);
        let appended = d.ops_from(before).map_err(ReplError::Durable)?;
        let after = d.op_count();
        for (idx, op) in appended {
            let i = checked_index(idx);
            debug_assert_eq!(i, self.history.len(), "history tracks the leader log");
            if i == self.history.len() {
                self.history.push(op);
            }
        }
        // The leader's own writes invalidate its published snapshot too.
        let NodeState::Up(d) = &mut self.nodes[li].state else {
            unreachable!("checked above");
        };
        if after > before {
            self.nodes[li].snap = Some(d.engine().snapshot());
        }
        if self.config.premature_ack {
            // Seeded bug: "committed" the moment the leader journals it.
            self.commit = self.commit.max(after);
        }
        self.ship();
        Ok(r)
    }

    /// Ship pending records to every lagging, non-backing-off follower.
    pub fn ship(&mut self) {
        let Some(li) = self.leader() else {
            return;
        };
        let leader_len = self.node_op_count(li).unwrap_or(0);
        for i in 0..self.nodes.len() {
            if i == li || !self.is_up(i) {
                continue;
            }
            if self.peers[i].next_index >= leader_len {
                continue;
            }
            if self.clock_ms < self.peers[i].due {
                continue;
            }
            self.send_append(li, i);
        }
    }

    /// Build and send one `Append` (records from the peer's `next_index`,
    /// or an empty probe), arming the retransmission backoff.
    fn send_append(&mut self, li: usize, i: usize) {
        let Some(d) = self.node_engine(li) else {
            return;
        };
        let records: Vec<(u64, Vec<u8>)> = d
            .records_from(self.peers[i].next_index)
            .unwrap_or_default()
            .into_iter()
            .take(self.config.max_batch)
            .collect();
        let env = Envelope::new(
            NodeId(li),
            NodeId(i),
            &Payload::Append {
                term: self.term,
                records,
                commit: self.commit,
            },
        );
        self.transport.send(env);
        let exp = self.peers[i].attempts.min(10);
        let backoff = (self.config.retransmit_after << exp).min(self.config.backoff_max);
        let jitter = if self.config.jitter {
            self.rng.next() % (backoff / 4 + 1)
        } else {
            0
        };
        self.peers[i].due = self.clock_ms + backoff + jitter;
        self.peers[i].attempts = self.peers[i].attempts.saturating_add(1);
    }

    /// Advance the virtual transport clock and retransmit to every lagging
    /// follower whose backoff deadline has passed.
    pub fn tick(&mut self, ms: u64) {
        self.clock_ms += ms;
        self.ship();
    }

    /// The earliest instant a retransmission is due, if the leader is up
    /// and some live follower still lags. Drives [`Cluster::settle`] and
    /// the model checker's tick choice.
    pub fn next_retransmit_due(&self) -> Option<u64> {
        let li = self.leader()?;
        let leader_len = self.node_op_count(li)?;
        (0..self.nodes.len())
            .filter(|&i| i != li && self.is_up(i) && self.peers[i].next_index < leader_len)
            .map(|i| self.peers[i].due)
            .min()
    }

    /// Deliver the in-flight message at `slot` to its destination,
    /// running the protocol handler. `false` if the slot is out of range.
    pub fn deliver_slot(&mut self, slot: usize) -> bool {
        match self.transport.take_slot(slot) {
            Some(env) => {
                self.handle(env);
                true
            }
            None => false,
        }
    }

    /// Drive delivery and retransmission until the network is quiet and
    /// nothing more is due — the "eventually connected network runs to
    /// convergence" loop. Returns the number of deliveries + ticks.
    pub fn settle(&mut self) -> usize {
        let mut steps = 0usize;
        loop {
            if self.transport.in_flight() > 0 {
                self.deliver_slot(0);
            } else if let Some(due) = self.next_retransmit_due() {
                let wait = due.saturating_sub(self.clock_ms).max(1);
                self.tick(wait);
            } else {
                break;
            }
            steps += 1;
            if steps > 100_000 {
                break; // livelock guard; settled clusters never get here
            }
        }
        steps
    }

    fn handle(&mut self, env: Envelope) {
        // A frame the checksum rejects is indistinguishable from a loss.
        let Ok(payload) = env.payload() else {
            return;
        };
        match payload {
            Payload::Append {
                term,
                records,
                commit,
            } => self.on_append(env.from, env.to, term, records, commit),
            Payload::Ack { term, next_index } => self.on_ack(env.from, env.to, term, next_index),
        }
    }

    /// Follower path: fence stale terms, journal-before-apply each
    /// contiguous record, refresh the read snapshot, acknowledge.
    fn on_append(
        &mut self,
        from: NodeId,
        to: NodeId,
        term: u64,
        records: Vec<(u64, Vec<u8>)>,
        _commit: u64,
    ) {
        let i = to.0;
        if i >= self.nodes.len() {
            return;
        }
        let node_term = self.nodes[i].term;
        let NodeState::Up(d) = &mut self.nodes[i].state else {
            return; // down nodes lose their mail
        };
        if term < node_term {
            // Fencing: the sender's epoch is over; tell it so.
            let reply = Envelope::new(
                to,
                from,
                &Payload::Ack {
                    term: node_term,
                    next_index: d.op_count(),
                },
            );
            self.transport.send(reply);
            return;
        }
        if term > node_term {
            self.nodes[i].term = term;
            let NodeState::Up(d) = &mut self.nodes[i].state else {
                unreachable!("checked above");
            };
            let _ = write_term(d.storage_mut(), term);
        }
        let NodeState::Up(d) = &mut self.nodes[i].state else {
            unreachable!("checked above");
        };
        let mut applied = false;
        for (idx, bytes) in &records {
            if *idx < d.op_count() {
                continue; // duplicate of something already journaled
            }
            if *idx > d.op_count() {
                break; // gap: ack our length so the leader rewinds
            }
            let Ok(op) = serde_json::from_slice::<JournalOp>(bytes) else {
                break;
            };
            let before = d.op_count();
            // Engine-level rejections are part of history (denials change
            // audit state), exactly as on the leader; only a failed
            // journal append stops the batch unacknowledged.
            let _ = d.submit(&op);
            if d.op_count() == before {
                break;
            }
            applied = true;
        }
        if applied {
            self.nodes[i].snap = Some(match &self.nodes[i].state {
                NodeState::Up(d) => d.engine().snapshot(),
                NodeState::Down(_) => unreachable!("checked above"),
            });
        }
        let NodeState::Up(d) = &self.nodes[i].state else {
            unreachable!("checked above");
        };
        let reply = Envelope::new(
            to,
            from,
            &Payload::Ack {
                term: self.nodes[i].term,
                next_index: d.op_count(),
            },
        );
        self.transport.send(reply);
    }

    /// Leader path: fold a follower acknowledgement into the shipping
    /// state and advance the commit index.
    fn on_ack(&mut self, from: NodeId, to: NodeId, term: u64, next_index: u64) {
        let li = to.0;
        if self.leader != Some(li) || !self.is_up(li) {
            return; // addressed to a deposed or dead leader
        }
        if term != self.term {
            return; // an ack from another epoch carries stale indices
        }
        let i = from.0;
        if i >= self.peers.len() || i == li {
            return;
        }
        let p = &mut self.peers[i];
        p.acked_index = p.acked_index.max(next_index);
        p.next_index = next_index;
        p.attempts = 0;
        p.due = self.clock_ms;
        self.advance_commit();
        self.ship();
    }

    /// Recompute the commit index: the longest prefix durably journaled
    /// on the leader *and* acknowledged by every follower. Monotone.
    fn advance_commit(&mut self) {
        let Some(li) = self.leader() else {
            return;
        };
        let mut c = self.node_op_count(li).unwrap_or(0);
        for i in 0..self.nodes.len() {
            if i != li {
                c = c.min(self.peers[i].acked_index);
            }
        }
        self.commit = self.commit.max(c);
    }

    /// Power-fail node `n`: unsynced bytes are dropped, in-memory state is
    /// gone, the disk survives. A crashed leader leaves the cluster
    /// leaderless until a promotion.
    pub fn crash(&mut self, n: usize) -> Result<()> {
        if n >= self.nodes.len() {
            return Err(ReplError::BadNode(n));
        }
        let state = std::mem::replace(&mut self.nodes[n].state, NodeState::Down(MemStorage::new()));
        match state {
            NodeState::Up(d) => {
                let mut mem = d.into_storage().into_inner();
                mem.crash();
                self.nodes[n].state = NodeState::Down(mem);
                self.nodes[n].snap = None;
                if self.leader == Some(n) {
                    self.leader = None;
                }
                Ok(())
            }
            down => {
                self.nodes[n].state = down;
                Err(ReplError::NodeDown(n))
            }
        }
    }

    /// Restart a crashed node: recover the engine from its own durable
    /// WAL, fence it to the current epoch, and (as a follower) resume
    /// shipping from its last acknowledged index. A node that holds
    /// records of a deposed epoch — past the commit index of a promotion
    /// it missed, or past the current leader's log — is wiped for a full
    /// resync.
    pub fn restart(&mut self, n: usize) -> Result<RecoveryStats> {
        if n >= self.nodes.len() {
            return Err(ReplError::BadNode(n));
        }
        let NodeState::Down(_) = &self.nodes[n].state else {
            return Err(ReplError::NodeUp(n));
        };
        let NodeState::Down(mem) =
            std::mem::replace(&mut self.nodes[n].state, NodeState::Down(MemStorage::new()))
        else {
            unreachable!("matched Down above");
        };
        let storage = FaultyStorage::new(mem, n as u64, FaultPlan::default());
        let mut d = match DurableEngine::open(storage, self.durable_config()) {
            Ok(d) => d,
            Err(e) => return Err(ReplError::Durable(e)),
        };
        let stats = d.recovery_stats();
        write_term(d.storage_mut(), self.term).map_err(ReplError::Storage)?;
        self.nodes[n].term = self.term;
        // How much of the recovered log is known to be the cluster's:
        // what was committed when the node's epoch ended, and no more
        // than the leader of the current one holds.
        let mut trusted = self.nodes[n].rejoin_floor.take().unwrap_or(u64::MAX);
        if let Some(li) = self.leader().filter(|&li| li != n) {
            trusted = trusted.min(self.node_op_count(li).unwrap_or(0));
        }
        if d.op_count() > trusted {
            self.reset_node(n)?;
            self.ship();
            return Ok(stats);
        }
        self.nodes[n].snap = Some(d.engine().snapshot());
        self.nodes[n].state = NodeState::Up(Box::new(d));
        if self.leader().is_some_and(|li| li != n) {
            // Re-ship from the follower's last acknowledged index.
            self.peers[n] = Peer::fresh(self.peers[n].acked_index, self.peers[n].acked_index);
            self.ship();
        }
        Ok(stats)
    }

    /// Wipe node `n` to a fresh genesis state fenced at the current term,
    /// to be fully resynced by shipping from index 0.
    fn reset_node(&mut self, n: usize) -> Result<()> {
        let storage = FaultyStorage::new(MemStorage::new(), n as u64, FaultPlan::default());
        let mut d = DurableEngine::create(storage, &self.graph, self.start, self.durable_config())
            .map_err(ReplError::Durable)?;
        write_term(d.storage_mut(), self.term).map_err(ReplError::Storage)?;
        self.nodes[n].term = self.term;
        self.nodes[n].snap = Some(d.engine().snapshot());
        self.nodes[n].state = NodeState::Up(Box::new(d));
        self.peers[n] = Peer::fresh(0, 0);
        Ok(())
    }

    /// Fail over to node `n`: bump the monotonic term, fence every up
    /// node, truncate the client-visible history to the new leader's
    /// durable log (its journal is now the cluster truth), wipe any
    /// surviving longer log, and probe the followers so shipping resumes
    /// from their acknowledged indices.
    pub fn promote(&mut self, n: usize) -> Result<()> {
        if n >= self.nodes.len() {
            return Err(ReplError::BadNode(n));
        }
        if !self.is_up(n) {
            return Err(ReplError::NodeDown(n));
        }
        if self.leader == Some(n) {
            return Ok(());
        }
        self.term += 1;
        let new_len = self.node_op_count(n).expect("liveness checked");
        self.history.truncate(checked_index(new_len));
        self.leader = Some(n);
        let (term, commit) = (self.term, self.commit);
        for node in &mut self.nodes {
            match &mut node.state {
                NodeState::Up(d) => {
                    node.term = term;
                    write_term(d.storage_mut(), term).map_err(ReplError::Storage)?;
                }
                // Not here to be compared with the new leader's log: what
                // it holds past today's commit index ends with this term.
                NodeState::Down(_) => {
                    node.rejoin_floor.get_or_insert(commit);
                }
            }
        }
        // Wipe survivors whose logs ran past the new leader's: their
        // suffix was never cluster-acknowledged and contradicts the new
        // epoch.
        for i in 0..self.nodes.len() {
            if i != n && self.is_up(i) && self.node_op_count(i).unwrap_or(0) > new_len {
                self.reset_node(i)?;
            }
        }
        // Re-ship to every follower from its last acknowledged index (an
        // empty Append when it has everything, which still fences it).
        // A lagging follower stays behind `next_index`, so a lost Append
        // is retransmitted; its Ack reports the journal length, which
        // moves `next_index` to exactly where shipping must go on.
        for i in 0..self.nodes.len() {
            if i == n {
                continue;
            }
            let acked = self.peers[i].acked_index.min(new_len);
            self.peers[i] = Peer::fresh(acked, acked);
            if self.is_up(i) {
                self.send_append(n, i);
            }
        }
        Ok(())
    }

    /// A follower read at logical time `at`, answered lock-free from the
    /// node's published snapshot — or [`ReadOutcome::Stale`] when `at`
    /// lies outside the snapshot's validity horizon.
    pub fn read_at(
        &mut self,
        n: usize,
        session: SessionId,
        op: OpId,
        obj: ObjId,
        at: Ts,
    ) -> Result<ReadOutcome> {
        if n >= self.nodes.len() {
            return Err(ReplError::BadNode(n));
        }
        if !self.is_up(n) {
            return Err(ReplError::NodeDown(n));
        }
        let Some(snap) = self.nodes[n].snap.as_ref() else {
            self.stale_reads += 1;
            return Ok(ReadOutcome::Stale);
        };
        if !snap.answers_at(at) {
            self.stale_reads += 1;
            return Ok(ReadOutcome::Stale);
        }
        Ok(if snap.grants(session, op, obj, None) {
            ReadOutcome::Granted
        } else {
            ReadOutcome::NotGranted
        })
    }

    /// Client-facing `check_access` routed through replica `n`: answered
    /// from the follower snapshot when provable and fresh, degraded to
    /// the leader (who audits) on `NotGranted` or `Stale`.
    pub fn check_access_via(
        &mut self,
        n: usize,
        session: SessionId,
        op: OpId,
        obj: ObjId,
    ) -> Result<bool> {
        let at = self.leader_now()?;
        if self.leader() != Some(n) {
            if let ReadOutcome::Granted = self.read_at(n, session, op, obj, at)? {
                return Ok(true);
            }
        }
        self.with_leader(|d| d.check_access(session, op, obj))?
            .map_err(ReplError::Durable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owte_core::Engine;

    fn policy() -> PolicyGraph {
        let mut g = PolicyGraph::new("repl-test");
        g.role("clerk");
        g.user("ann");
        g.assign("ann", "clerk");
        g.permission("p", "read", "ledger");
        g.grant("p", "clerk");
        g
    }

    fn lockstep() -> ReplConfig {
        ReplConfig {
            jitter: false,
            ..ReplConfig::default()
        }
    }

    fn run_ops(c: &mut Cluster) -> SessionId {
        let s = c
            .with_leader(|d| {
                let ann = d.user_id("ann").unwrap();
                let clerk = d.role_id("clerk").unwrap();
                d.create_session(ann, &[clerk]).unwrap()
            })
            .unwrap();
        c.with_leader(|d| {
            let read = d.engine().system().op_by_name("read").unwrap();
            let ledger = d.engine().system().obj_by_name("ledger").unwrap();
            assert!(d.check_access(s, read, ledger).unwrap());
        })
        .unwrap();
        s
    }

    fn replay_state(c: &Cluster, upto: u64) -> Engine {
        owte_core::replay(&policy(), Ts::ZERO, &c.history()[..checked_index(upto)]).unwrap()
    }

    #[test]
    fn followers_converge_to_leader_history() {
        let mut c = Cluster::new(&policy(), 3, lockstep()).unwrap();
        run_ops(&mut c);
        c.settle();
        assert_eq!(c.commit(), c.history().len() as u64);
        for n in 0..3 {
            let d = c.node_engine(n).expect("all up");
            assert_eq!(d.op_count(), c.commit());
            let expected = replay_state(&c, c.commit());
            assert!(
                crate::state_matches(d.engine(), &expected),
                "node n{n} diverged from the acked-prefix replay"
            );
        }
    }

    #[test]
    fn failover_recovers_from_own_wal_and_reships() {
        let mut c = Cluster::new(&policy(), 3, lockstep()).unwrap();
        run_ops(&mut c);
        c.settle();
        let committed = c.commit();
        assert!(committed > 0);
        c.crash(0).unwrap();
        assert!(c.leader().is_none());
        c.promote(1).unwrap();
        assert_eq!(c.leader(), Some(1));
        assert_eq!(c.term(), 2);
        // The promoted follower's own WAL already holds the acked prefix.
        assert!(c.node_op_count(1).unwrap() >= committed);
        assert_eq!(c.commit(), committed, "promotion must not lose acks");
        // New client ops flow through the new leader and reach node 2.
        c.with_leader(|d| {
            let ann = d.user_id("ann").unwrap();
            let clerk = d.role_id("clerk").unwrap();
            d.create_session(ann, &[clerk]).unwrap()
        })
        .unwrap();
        c.settle();
        assert_eq!(c.node_op_count(2).unwrap(), c.history().len() as u64);
        // The deposed leader restarts, is fenced, and resyncs as follower.
        c.restart(0).unwrap();
        assert_eq!(c.node_term(0), 2);
        c.settle();
        assert_eq!(c.node_op_count(0).unwrap(), c.history().len() as u64);
        assert_eq!(c.commit(), c.history().len() as u64);
    }

    /// A deposed leader whose unacknowledged suffix is no longer than what
    /// the new leader has written since must not keep it: comparing log
    /// lengths at restart cannot tell `c` at index 1 from `d` at index 1.
    #[test]
    fn deposed_leader_restarts_without_its_unacknowledged_suffix() {
        let mut c = Cluster::new(&policy(), 3, lockstep()).unwrap();
        let open_session = |d: &mut DurableEngine<ReplStore>| {
            let ann = d.user_id("ann").unwrap();
            d.create_session(ann, &[]).unwrap()
        };
        // a: acknowledged by everyone.
        c.with_leader(open_session).unwrap();
        c.settle();
        let acked = c.commit();
        assert_eq!(acked, c.node_op_count(0).unwrap());
        // c: journaled by the leader only, every Append lost.
        c.with_leader(open_session).unwrap();
        while c.transport().in_flight() > 0 {
            c.transport_mut().drop_slot(0);
        }
        let suffix = c.node_op_count(0).unwrap() - acked;
        assert!(suffix > 0);
        c.crash(0).unwrap();
        c.promote(1).unwrap();
        assert_eq!(c.rejoin_floor(0), Some(acked));
        // d: a different operation, as long as c, through the new leader.
        c.with_leader(|d| {
            let ann = d.user_id("ann").unwrap();
            let clerk = d.role_id("clerk").unwrap();
            d.submit(&JournalOp::DeassignUser {
                user: ann,
                role: clerk,
            })
            .unwrap();
        })
        .unwrap();
        c.settle();
        assert_eq!(c.node_op_count(1).unwrap(), acked + suffix);
        c.restart(0).unwrap();
        assert_eq!(c.rejoin_floor(0), None);
        c.settle();
        assert_eq!(c.commit(), c.history().len() as u64);
        let expected = replay_state(&c, c.commit());
        for n in 0..3 {
            let d = c.node_engine(n).expect("all up");
            assert_eq!(d.op_count(), c.commit());
            assert!(
                crate::state_matches(d.engine(), &expected),
                "node n{n} diverged from the cluster history"
            );
        }
    }

    #[test]
    fn stale_epoch_appends_are_fenced() {
        let mut c = Cluster::new(&policy(), 3, lockstep()).unwrap();
        run_ops(&mut c);
        // Leave the leader's Appends in flight, fail over, then deliver
        // the stale messages: every node must reject them.
        c.crash(0).unwrap();
        c.promote(1).unwrap();
        let before = c.node_op_count(2).unwrap();
        let stale: Vec<usize> = (0..c.transport().pending().len()).collect();
        for _ in stale {
            c.deliver_slot(0);
        }
        c.settle();
        // Node 2 only holds what the *new* leader shipped (nothing new),
        // never a record accepted under the deposed term after fencing…
        assert_eq!(c.node_term(2), 2);
        // …and the history it does hold matches the promoted leader's.
        assert_eq!(
            c.node_op_count(2).unwrap().max(before),
            c.node_op_count(2).unwrap()
        );
    }

    #[test]
    fn premature_ack_loses_acked_ops_on_failover() {
        let cfg = ReplConfig {
            premature_ack: true,
            jitter: false,
            ..ReplConfig::default()
        };
        let mut c = Cluster::new(&policy(), 3, cfg).unwrap();
        // Journal on the leader but drop every Append before delivery.
        run_ops(&mut c);
        while c.transport().in_flight() > 0 {
            c.transport_mut().drop_slot(0);
        }
        assert!(c.commit() > 0, "the bug acks without follower journaling");
        c.crash(0).unwrap();
        c.promote(1).unwrap();
        // The promoted follower's log is shorter than the claimed commit:
        // acknowledged operations are gone.
        assert!(c.node_op_count(1).unwrap() < c.commit());
    }

    #[test]
    fn lossy_transport_still_converges_via_retransmission() {
        let cfg = ReplConfig {
            net: NetFaultPlan {
                p_drop: 0.4,
                p_duplicate: 0.2,
                p_reorder: 0.3,
                ..NetFaultPlan::default()
            },
            net_seed: 7,
            jitter: true,
            ..ReplConfig::default()
        };
        let mut c = Cluster::new(&policy(), 3, cfg).unwrap();
        run_ops(&mut c);
        c.settle();
        assert_eq!(c.commit(), c.history().len() as u64);
        for n in 0..3 {
            assert_eq!(c.node_op_count(n).unwrap(), c.commit());
        }
        assert!(
            c.transport().stats().dropped > 0,
            "a 40% drop rate must actually drop something"
        );
    }
}
