//! Versioned job snapshots: checkpoint/restore for the runtime engines.
//!
//! A [`JobSnapshot`] captures everything a job needs to resume exactly where
//! it stopped: per-channel in-flight messages, per-node [`DummyWrapper`]
//! gap counters, per-node input progress (source cursors, EOS flags, staged
//! but undelivered outputs) and the cumulative delivery counters — plus the
//! identity of the *certified plan* the job was running under (an exact
//! labelled topology hash and a digest of the avoidance plan's interval
//! table).  Restoring under anything else is a
//! [`RestoreError::PlanMismatch`], never a silent re-plan: the deadlock-
//! freedom certificate attests to one specific `(topology, plan, filter)`
//! triple, and a resumed job must provably still be the run it certifies.
//!
//! ## Consistency: sequence numbers as barrier epochs
//!
//! Two engines produce snapshots:
//!
//! * [`crate::Simulator`] stops between scheduler steps, where *any* cut is
//!   trivially consistent — channels are captured verbatim.
//! * [`crate::SharedPool`] cannot stop the world (other jobs keep running),
//!   so it takes an asynchronous barrier snapshot in the spirit of Carbone
//!   et al.'s ABS — but needs no barrier *markers*: the min-sequence Kahn
//!   acceptance rule already makes sequence numbers a global logical clock.
//!   The pool freezes the job's sources just long enough to pick a barrier
//!   sequence number `k` (the maximum source cursor), and every task
//!   contributes its state exactly once, at its own *alignment*: the moment
//!   it would first consume or produce a sequence number `≥ k`.  At a
//!   producer's alignment its delivery counters count exactly its pre-`k`
//!   deliveries, at a consumer's alignment it has consumed exactly the
//!   pre-`k` prefix of every input, and everything the ring still holds at
//!   that point carries `seq ≥ k` — produced *after* the producer's aligned
//!   state was captured, and therefore regenerated deterministically on
//!   resume.  Channels are thus recorded empty (EOS markers aside), and the
//!   restored wrapper gap counters continue exactly where they stopped: no
//!   dummy interval is ever counted twice.
//!
//! Snapshots serialise to a small, versioned, magic-tagged byte format
//! ([`JobSnapshot::to_bytes`] / [`JobSnapshot::from_bytes`]; hand-rolled,
//! no serde in this workspace); foreign or corrupted blobs are rejected,
//! not misinterpreted.  The header keeps the byte that named the
//! Propagation trigger when there were two: it is written as 0, and any
//! other value is refused.
//!
//! [`DummyWrapper`]: crate::wrapper::DummyWrapper

use fila_graph::fingerprint::labeled_fingerprint;

use crate::message::Message;
use crate::report::ExecutionReport;
use crate::shared_pool::JobVerdict;
use crate::topology::Program;
use crate::wrapper::AvoidanceMode;

/// The snapshot format version this build writes and accepts.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Leading magic of the byte format (`b"FILASNAP"`).
const MAGIC: [u8; 8] = *b"FILASNAP";

/// The checkpointed state of one node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSnapshot {
    /// The node's [`DummyWrapper`](crate::wrapper::DummyWrapper) gap
    /// counters, aligned with its out-edges.
    pub gaps: Vec<u64>,
    /// Next sequence number this node would emit if it is a source.
    pub next_source_seq: u64,
    /// The node has staged its end-of-stream markers.
    pub eos_queued: bool,
    /// The node reached end-of-stream and drained all outputs.
    pub done: bool,
    /// Behaviour firings so far (source emissions + data acceptances).
    pub firings: u64,
    /// Data-bearing sequence numbers consumed so far, if the node is a sink.
    pub sink_firings: u64,
    /// Outputs produced but not yet delivered to their channel, in staging
    /// order: `(edge index, message)` pairs.
    pub staged: Vec<(u32, Message)>,
}

/// A versioned, self-describing checkpoint of one job (see the module docs
/// for the consistency model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`] when produced by this
    /// build).
    pub version: u32,
    /// Exact labelled topology hash
    /// ([`fila_graph::fingerprint::labeled_fingerprint`]) of the graph the
    /// snapshot was taken on — the precondition for transplanting the
    /// per-edge state below onto a restore-side graph.
    pub labeled_topology: u64,
    /// The service-level job identity (structural fingerprint) the snapshot
    /// was stamped with, if it passed through
    /// `JobService::checkpoint_job`; `None` for bare runtime snapshots.
    pub fingerprint: Option<u64>,
    /// The filter signature (certification-key component) the job was
    /// certified under, if stamped by the service.
    pub filter_signature: Option<u64>,
    /// Digest of the avoidance plan the job ran under (`None` = avoidance
    /// disabled); see [`plan_digest`].
    pub plan_digest: Option<u64>,
    /// Input sequence numbers offered at every source.
    pub inputs: u64,
    /// Progress marker at capture time: scheduler steps (simulator) or
    /// total firings (pool).  Restored runs report this as
    /// [`ExecutionReport::resumed_from`].
    pub steps: u64,
    /// Sink firings at capture time (cumulative, schedule-invariant).
    pub sink_firings: u64,
    /// Data messages delivered per channel at capture time.
    pub per_edge_data: Vec<u64>,
    /// Dummy messages delivered per channel at capture time.
    pub per_edge_dummies: Vec<u64>,
    /// In-flight messages per channel.  Simulator snapshots record channels
    /// verbatim; pool barrier snapshots record only the already-delivered
    /// EOS markers (everything else is regenerated on resume — see the
    /// module docs).
    pub channels: Vec<Vec<Message>>,
    /// Per-node state, indexed by node id.
    pub nodes: Vec<NodeSnapshot>,
}

/// Why a checkpoint request produced no snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The job already settled with this verdict; there is no in-flight
    /// state left to capture.
    Settled(JobVerdict),
    /// Another checkpoint of the same job is still being collected.
    InProgress,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Settled(v) => write!(f, "job already settled: {v:?}"),
            SnapshotError::InProgress => write!(f, "a checkpoint of this job is already in progress"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why a snapshot was rejected at restore time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot was written by an incompatible format version.
    VersionMismatch {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this build accepts.
        expected: u32,
    },
    /// The restore-side topology or avoidance plan differs from what the
    /// snapshot was certified under.  Resuming would silently run
    /// the job under a plan its certificate does not attest to, so the
    /// restore is rejected instead of re-planned.
    PlanMismatch(String),
    /// The snapshot is structurally inconsistent (truncated blob, counts
    /// that do not fit the topology, over-capacity channels, sequence
    /// numbers out of order, …).
    Corrupted(String),
    /// A node's recorded dummy-gap counter is not strictly below the
    /// restore-side plan's finite interval on that channel.  Every legally
    /// captured gap lies in `[0, interval)` (the wrapper resets on firing),
    /// so an out-of-range gap means the snapshot does not belong to this
    /// plan's interval table — e.g. a hot-swap that skipped
    /// [`JobSnapshot::rebase`], or a doctored blob.  Restoring it anyway
    /// could postpone a due dummy beyond the certified interval.
    GapExceedsInterval {
        /// Node whose wrapper state is out of range.
        node: u32,
        /// Index of the offending channel within the node's out-edges.
        out_index: u32,
        /// The recorded gap counter.
        gap: u64,
        /// The restore-side plan's finite dummy interval on that channel.
        interval: u64,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} not supported (expected {expected})")
            }
            RestoreError::PlanMismatch(why) => write!(f, "plan mismatch: {why}"),
            RestoreError::Corrupted(why) => write!(f, "corrupted snapshot: {why}"),
            RestoreError::GapExceedsInterval {
                node,
                out_index,
                gap,
                interval,
            } => write!(
                f,
                "dummy-gap counter {gap} on node {node} out-channel {out_index} is not \
                 below the plan's interval {interval} (snapshot not rebased onto this plan?)"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// What a [`Simulator::run_with_checkpoint`](crate::Simulator::run_with_checkpoint)
/// run ended with.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// The run settled before reaching the kill step.
    Finished(ExecutionReport),
    /// The run was killed at the requested step; this snapshot resumes it.
    Killed(Box<JobSnapshot>),
}

/// The message deficit a partial restart would incur on its frontier
/// edges: messages a cone-side consumer had already consumed past the base
/// cut which its (not-rolled-back) producer will never re-send.  Produced
/// by [`JobSnapshot::splice_downstream`]; an exact recovery requires both
/// components to be zero, while an approximate recovery accepts a bounded
/// `data` deficit and reports it (Cheng et al.'s bounded-divergence trade,
/// specialised to replay cursors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpliceDivergence {
    /// Data messages consumed inside the cone since the base cut that
    /// cannot be replayed.
    pub data: u64,
    /// Dummy messages likewise lost.  Dummies carry no payload — a lost
    /// dummy only delays liveness information that the frontier producer's
    /// preserved gap counters will regenerate — so approximate mode bounds
    /// only `data`; an exact recovery still refuses any deficit.
    pub dummies: u64,
}

/// A digest of the avoidance plan a job runs under: protocol and the full
/// per-edge dummy-interval table.  `None` when avoidance is disabled.  Two
/// modes share the digest exactly when the runtime wrapper behaves
/// identically under them — the unit restore validation compares.
pub fn plan_digest(mode: &AvoidanceMode) -> Option<u64> {
    let AvoidanceMode::Plan(plan) = mode else {
        return None;
    };
    let mut h = fold(0xF11A_5A4B, match plan.algorithm() {
        fila_avoidance::Algorithm::Propagation => 1,
        fila_avoidance::Algorithm::NonPropagation => 2,
    });
    // The word plans used to carry beside the protocol, folded as it always
    // was, so no digest and no snapshot byte changes.
    h = fold(h, 2);
    h = fold(h, plan.edge_count() as u64);
    for raw in 0..plan.edge_count() {
        let e = fila_graph::EdgeId::from_raw(raw as u32);
        // Finite intervals map to v+1 so interval 0 and "infinite" differ
        // (wrapping: an interval of `u64::MAX` never fires either).
        h = fold(h, plan.interval(e).finite().map_or(0, |v| v.wrapping_add(1)));
    }
    Some(h)
}

/// splitmix64-style mixing fold (same construction as the graph
/// fingerprints, different stream constant).
fn fold(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl JobSnapshot {
    /// Validates that this snapshot can be restored onto `topology` running
    /// under `mode`: the format version is supported, the exact labelled
    /// topology hash and plan digest match what the snapshot was taken
    /// under, and every recorded vector fits the graph (channel contents
    /// within capacity, wrapper state per out-degree, staged messages on
    /// real out-edges).  Every channel's sequence numbers — in flight, then
    /// staged by its producer — strictly increase, as a run produces them,
    /// and at most one message per channel is staged: the model fires no
    /// node with output pending, a barrier contribution needs empty
    /// staging, and a settled pool task flushed last, which leaves at most
    /// the one overshooting acceptance's message per port.  A node's staged
    /// list is in out-edge order, the order both engines capture it in and
    /// the model flushes it in.
    pub fn validate_for(
        &self,
        topology: &dyn Program,
        mode: &AvoidanceMode,
    ) -> Result<(), RestoreError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(RestoreError::VersionMismatch {
                found: self.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let g = topology.graph();
        if self.labeled_topology != labeled_fingerprint(g) {
            return Err(RestoreError::PlanMismatch(
                "topology fingerprint drifted since the snapshot was taken".into(),
            ));
        }
        if self.plan_digest != plan_digest(mode) {
            return Err(RestoreError::PlanMismatch(
                "avoidance plan differs from the one the snapshot was certified under".into(),
            ));
        }
        let corrupted = |why: &str| Err(RestoreError::Corrupted(why.into()));
        if self.nodes.len() != g.node_count() {
            return corrupted("node count does not match the topology");
        }
        if self.channels.len() != g.edge_count()
            || self.per_edge_data.len() != g.edge_count()
            || self.per_edge_dummies.len() != g.edge_count()
        {
            return corrupted("edge-indexed vectors do not match the topology");
        }
        for e in g.edge_ids() {
            let channel = &self.channels[e.index()];
            if channel.len() > g.capacity(e) as usize {
                return corrupted("channel contents exceed the channel capacity");
            }
            let producer = &self.nodes[g.tail(e).index()];
            let mut staged = producer
                .staged
                .iter()
                .filter(|&&(se, _)| se as usize == e.index())
                .map(|(_, m)| m);
            let staged_here = staged.next();
            if staged.next().is_some() {
                return corrupted("more than one staged message on a channel");
            }
            let seqs = channel.iter().chain(staged_here).map(Message::seq);
            if seqs.clone().zip(seqs.skip(1)).any(|(a, b)| a >= b) {
                return corrupted("sequence numbers on a channel are out of order");
            }
        }
        for (idx, ns) in self.nodes.iter().enumerate() {
            let node = fila_graph::NodeId::from_raw(idx as u32);
            let outs = g.out_edges(node);
            if ns.gaps.len() != outs.len() {
                return corrupted("wrapper state does not match the node's out-degree");
            }
            let mut last = None;
            for &(edge, _) in &ns.staged {
                let Some(at) = outs.iter().position(|e| e.index() == edge as usize) else {
                    return corrupted("staged message on an edge the node does not produce");
                };
                if last >= Some(at) {
                    return corrupted("staged messages out of out-edge order");
                }
                last = Some(at);
            }
            // Dummy-gap counters must be strictly below the restore-side
            // plan's finite intervals: the wrapper resets a counter the
            // moment it reaches the threshold, so every legally captured
            // gap is in `[0, interval)`.  This is what makes a swapped
            // resume that skipped [`JobSnapshot::rebase`] fail closed
            // instead of silently stretching a certified dummy interval.
            if let AvoidanceMode::Plan(plan) = mode {
                for (out_index, (&gap, &e)) in ns.gaps.iter().zip(outs).enumerate() {
                    if let Some(interval) = plan.interval(e).finite() {
                        if gap >= interval.max(1) {
                            return Err(RestoreError::GapExceedsInterval {
                                node: idx as u32,
                                out_index: out_index as u32,
                                gap,
                                interval,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebases this snapshot onto `mode`'s plan — the one deliberate
    /// exception to the exact-plan restore rule
    /// ([`RestoreError::PlanMismatch`]): an adaptive hot swap, where the
    /// party that re-certified the job against its observed filter profile
    /// moves the snapshot onto the new certified plan.  A resume that
    /// skipped the rebase still fails closed, on the plan digest and on
    /// out-of-range gaps ([`RestoreError::GapExceedsInterval`]).
    ///
    /// The only runtime state that depends on the interval table is the
    /// per-node dummy-gap counters, and rebasing them is behaviour-
    /// preserving: a counter `g ≥ t′` under a new finite threshold `t′`
    /// acts on the next accepted sequence number exactly like `g = t′ − 1`
    /// (one dummy fires, the counter resets), so each gap is clamped to
    /// `min(g, t′ − 1)`.  After a successful rebase the snapshot carries
    /// the new plan digest and passes [`JobSnapshot::validate_for`] under
    /// `mode` — the swapped resume then goes through the ordinary restore
    /// path with full structural validation.
    pub fn rebase(
        &mut self,
        topology: &dyn Program,
        mode: &AvoidanceMode,
    ) -> Result<(), RestoreError> {
        let g = topology.graph();
        if self.nodes.len() != g.node_count() {
            return Err(RestoreError::Corrupted(
                "node count does not match the topology".into(),
            ));
        }
        if let AvoidanceMode::Plan(plan) = mode {
            for (idx, ns) in self.nodes.iter_mut().enumerate() {
                let node = fila_graph::NodeId::from_raw(idx as u32);
                let outs = g.out_edges(node);
                if ns.gaps.len() != outs.len() {
                    return Err(RestoreError::Corrupted(
                        "wrapper state does not match the node's out-degree".into(),
                    ));
                }
                for (gap, &e) in ns.gaps.iter_mut().zip(outs) {
                    if let Some(interval) = plan.interval(e).finite() {
                        *gap = (*gap).min(interval.saturating_sub(1));
                    }
                }
            }
        }
        self.plan_digest = plan_digest(mode);
        Ok(())
    }

    /// Splices a **partial restart** snapshot: the nodes inside `cone`
    /// (the failed node and everything downstream of it) are rolled back
    /// to the consistent `base` cut, while every node outside the cone
    /// keeps its `wreck` state — the verbatim final state the job died in
    /// ([`JobHandle::salvage`](crate::shared_pool::JobHandle::salvage)).
    /// The base cut's per-edge cumulative counts act as replay cursors:
    /// a rolled-back producer re-sends exactly what its counter says is
    /// undelivered.
    ///
    /// `cone` is indexed by node, `cone_edges` by edge as
    /// `(tail_in_cone, head_in_cone)`.  Edge classes:
    ///
    /// * `(true, true)` — interior: both endpoints roll back; counters and
    ///   channel contents come from `base`.
    /// * `(false, false)` — exterior: untouched; everything from `wreck`.
    /// * `(false, true)` — **frontier**: the producer keeps its wreck
    ///   state, the consumer rolls back.  The wreck's ring contents and
    ///   counters are kept; anything the consumer had consumed *past the
    ///   base cut* was re-sent by nobody and counts as divergence.
    /// * `(true, false)` — the cone is not downstream-closed (a rolled-back
    ///   producer would feed a consumer that already consumed ahead):
    ///   rejected as [`RestoreError::Corrupted`].
    ///
    /// Returns the spliced snapshot plus the total [`SpliceDivergence`]
    /// across frontier edges.  Exact recovery requires a zero divergence;
    /// approximate recovery accepts a bounded data deficit.  The caller
    /// must still certify the spliced cut against the restore-side plan
    /// ([`JobSnapshot::validate_for`] / `rebase`) before staging any task.
    pub fn splice_downstream(
        base: &JobSnapshot,
        wreck: &JobSnapshot,
        cone: &[bool],
        cone_edges: &[(bool, bool)],
    ) -> Result<(JobSnapshot, SpliceDivergence), RestoreError> {
        if base.version != wreck.version {
            return Err(RestoreError::VersionMismatch {
                found: wreck.version,
                expected: base.version,
            });
        }
        if base.labeled_topology != wreck.labeled_topology
            || base.plan_digest != wreck.plan_digest
            || base.inputs != wreck.inputs
        {
            return Err(RestoreError::PlanMismatch(
                "base cut and wreck do not describe the same job".into(),
            ));
        }
        let nodes = base.nodes.len();
        let edges = base.per_edge_data.len();
        if wreck.nodes.len() != nodes
            || cone.len() != nodes
            || wreck.per_edge_data.len() != edges
            || wreck.per_edge_dummies.len() != edges
            || base.per_edge_dummies.len() != edges
            || base.channels.len() != edges
            || wreck.channels.len() != edges
            || cone_edges.len() != edges
        {
            return Err(RestoreError::Corrupted(
                "base cut and wreck shapes disagree".into(),
            ));
        }
        let mut spliced = JobSnapshot {
            version: base.version,
            labeled_topology: base.labeled_topology,
            fingerprint: None,
            filter_signature: None,
            plan_digest: base.plan_digest,
            inputs: base.inputs,
            steps: 0,
            sink_firings: 0,
            per_edge_data: vec![0; edges],
            per_edge_dummies: vec![0; edges],
            channels: vec![Vec::new(); edges],
            nodes: Vec::with_capacity(nodes),
        };
        for (idx, &in_cone) in cone.iter().enumerate() {
            let donor = if in_cone { base } else { wreck };
            spliced.nodes.push(donor.nodes[idx].clone());
        }
        let mut divergence = SpliceDivergence::default();
        for (e, &(tail_in, head_in)) in cone_edges.iter().enumerate() {
            match (tail_in, head_in) {
                (true, false) => {
                    return Err(RestoreError::Corrupted(
                        "cone is not downstream-closed: a rolled-back producer \
                         would feed an un-rolled-back consumer"
                            .into(),
                    ));
                }
                (true, true) => {
                    spliced.per_edge_data[e] = base.per_edge_data[e];
                    spliced.per_edge_dummies[e] = base.per_edge_dummies[e];
                    spliced.channels[e] = base.channels[e].clone();
                }
                (false, false) => {
                    spliced.per_edge_data[e] = wreck.per_edge_data[e];
                    spliced.per_edge_dummies[e] = wreck.per_edge_dummies[e];
                    spliced.channels[e] = wreck.channels[e].clone();
                }
                (false, true) => {
                    // Frontier: producer state and ring contents are the
                    // wreck's; the rolled-back consumer resumes consuming
                    // from that ring.  delivered − in-ring = consumed;
                    // whatever the consumer consumed beyond the base cut
                    // is gone for good.
                    let consumed = |snap: &JobSnapshot| {
                        let (mut ring_data, mut ring_dummies) = (0u64, 0u64);
                        for m in &snap.channels[e] {
                            match m {
                                Message::Data { .. } => ring_data += 1,
                                Message::Dummy { .. } => ring_dummies += 1,
                                Message::Eos => {}
                            }
                        }
                        (
                            snap.per_edge_data[e].saturating_sub(ring_data),
                            snap.per_edge_dummies[e].saturating_sub(ring_dummies),
                        )
                    };
                    let (wreck_data, wreck_dummies) = consumed(wreck);
                    let (base_data, base_dummies) = consumed(base);
                    divergence.data += wreck_data.saturating_sub(base_data);
                    divergence.dummies += wreck_dummies.saturating_sub(base_dummies);
                    spliced.per_edge_data[e] = wreck.per_edge_data[e];
                    spliced.per_edge_dummies[e] = wreck.per_edge_dummies[e];
                    spliced.channels[e] = wreck.channels[e].clone();
                }
            }
        }
        spliced.steps = spliced.nodes.iter().map(|n| n.firings).sum();
        spliced.sink_firings = spliced.nodes.iter().map(|n| n.sink_firings).sum();
        Ok((spliced, divergence))
    }

    /// Serialises the snapshot into the versioned byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            64 + 16 * self.per_edge_data.len() + 64 * self.nodes.len(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        put_u64(&mut out, self.labeled_topology);
        put_opt(&mut out, self.fingerprint);
        put_opt(&mut out, self.filter_signature);
        put_opt(&mut out, self.plan_digest);
        out.push(0);
        put_u64(&mut out, self.inputs);
        put_u64(&mut out, self.steps);
        put_u64(&mut out, self.sink_firings);
        put_u64s(&mut out, &self.per_edge_data);
        put_u64s(&mut out, &self.per_edge_dummies);
        put_u64(&mut out, self.channels.len() as u64);
        for channel in &self.channels {
            put_u64(&mut out, channel.len() as u64);
            for &m in channel {
                put_message(&mut out, m);
            }
        }
        put_u64(&mut out, self.nodes.len() as u64);
        for node in &self.nodes {
            put_u64s(&mut out, &node.gaps);
            put_u64(&mut out, node.next_source_seq);
            out.push(node.eos_queued as u8);
            out.push(node.done as u8);
            put_u64(&mut out, node.firings);
            put_u64(&mut out, node.sink_firings);
            put_u64(&mut out, node.staged.len() as u64);
            for &(edge, m) in &node.staged {
                out.extend_from_slice(&edge.to_le_bytes());
                put_message(&mut out, m);
            }
        }
        out
    }

    /// Deserialises a snapshot, rejecting foreign blobs (bad magic),
    /// unsupported versions and truncated or inconsistent encodings.
    pub fn from_bytes(bytes: &[u8]) -> Result<JobSnapshot, RestoreError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(RestoreError::Corrupted("bad magic: not a fila snapshot".into()));
        }
        let version = u32::from_le_bytes(r.take(4)?[..4].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(RestoreError::VersionMismatch {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let labeled_topology = r.u64()?;
        let fingerprint = r.opt()?;
        let filter_signature = r.opt()?;
        let plan_digest = r.opt()?;
        if r.u8()? != 0 {
            return Err(RestoreError::Corrupted(
                "unknown propagation trigger".into(),
            ));
        }
        let inputs = r.u64()?;
        let steps = r.u64()?;
        let sink_firings = r.u64()?;
        let per_edge_data = r.u64s()?;
        let per_edge_dummies = r.u64s()?;
        let channel_count = r.len(9)?;
        let mut channels = Vec::with_capacity(channel_count);
        for _ in 0..channel_count {
            let n = r.len(1)?;
            let mut channel = Vec::with_capacity(n);
            for _ in 0..n {
                channel.push(r.message()?);
            }
            channels.push(channel);
        }
        let node_count = r.len(27)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let gaps = r.u64s()?;
            let next_source_seq = r.u64()?;
            let eos_queued = r.u8()? != 0;
            let done = r.u8()? != 0;
            let firings = r.u64()?;
            let sink_firings = r.u64()?;
            let staged_count = r.len(5)?;
            let mut staged = Vec::with_capacity(staged_count);
            for _ in 0..staged_count {
                let edge = u32::from_le_bytes(r.take(4)?[..4].try_into().expect("4 bytes"));
                staged.push((edge, r.message()?));
            }
            nodes.push(NodeSnapshot {
                gaps,
                next_source_seq,
                eos_queued,
                done,
                firings,
                sink_firings,
                staged,
            });
        }
        if r.pos != bytes.len() {
            return Err(RestoreError::Corrupted("trailing bytes after snapshot".into()));
        }
        Ok(JobSnapshot {
            version,
            labeled_topology,
            fingerprint,
            filter_signature,
            plan_digest,
            inputs,
            steps,
            sink_firings,
            per_edge_data,
            per_edge_dummies,
            channels,
            nodes,
        })
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v);
    }
}

fn put_opt(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn put_message(out: &mut Vec<u8>, m: Message) {
    match m {
        Message::Data { seq, payload } => {
            out.push(0);
            put_u64(out, seq);
            put_u64(out, payload);
        }
        Message::Dummy { seq } => {
            out.push(1);
            put_u64(out, seq);
        }
        Message::Eos => out.push(2),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], RestoreError> {
        if self.buf.len() - self.pos < n {
            return Err(RestoreError::Corrupted("truncated snapshot".into()));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, RestoreError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, RestoreError> {
        Ok(u64::from_le_bytes(self.take(8)?[..8].try_into().expect("8 bytes")))
    }

    /// Reads a declared element count, bounding it by the bytes actually
    /// remaining (each element occupies at least `min_elem` bytes) so a
    /// corrupted length can never drive an allocation.
    fn len(&mut self, min_elem: usize) -> Result<usize, RestoreError> {
        let n = self.u64()? as usize;
        match n.checked_mul(min_elem.max(1)) {
            Some(bytes) if bytes <= self.buf.len() - self.pos => Ok(n),
            _ => Err(RestoreError::Corrupted("declared length exceeds the blob".into())),
        }
    }

    fn u64s(&mut self) -> Result<Vec<u64>, RestoreError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn opt(&mut self) -> Result<Option<u64>, RestoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(RestoreError::Corrupted("bad option tag".into())),
        }
    }

    fn message(&mut self) -> Result<Message, RestoreError> {
        match self.u8()? {
            0 => Ok(Message::Data {
                seq: self.u64()?,
                payload: self.u64()?,
            }),
            1 => Ok(Message::Dummy { seq: self.u64()? }),
            2 => Ok(Message::Eos),
            _ => Err(RestoreError::Corrupted("bad message tag".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobSnapshot {
        JobSnapshot {
            version: SNAPSHOT_VERSION,
            labeled_topology: 0xDEAD_BEEF,
            fingerprint: Some(42),
            filter_signature: None,
            plan_digest: Some(7),
            inputs: 100,
            steps: 12,
            sink_firings: 3,
            per_edge_data: vec![5, 0],
            per_edge_dummies: vec![0, 2],
            channels: vec![
                vec![Message::Data { seq: 9, payload: 1 }, Message::Dummy { seq: 10 }],
                vec![Message::Eos],
            ],
            nodes: vec![
                NodeSnapshot {
                    gaps: vec![1, 2],
                    next_source_seq: 11,
                    eos_queued: false,
                    done: false,
                    firings: 11,
                    sink_firings: 0,
                    staged: vec![(0, Message::Data { seq: 10, payload: 4 })],
                },
                NodeSnapshot {
                    gaps: vec![],
                    next_source_seq: 0,
                    eos_queued: true,
                    done: true,
                    firings: 3,
                    sink_firings: 3,
                    staged: vec![],
                },
            ],
        }
    }

    #[test]
    fn bytes_roundtrip_exactly() {
        let snapshot = sample();
        let bytes = snapshot.to_bytes();
        assert_eq!(JobSnapshot::from_bytes(&bytes).unwrap(), snapshot);
    }

    #[test]
    fn foreign_blob_is_rejected() {
        let r = JobSnapshot::from_bytes(b"not a snapshot at all");
        assert!(matches!(r, Err(RestoreError::Corrupted(_))), "{r:?}");
        let r = JobSnapshot::from_bytes(&[]);
        assert!(matches!(r, Err(RestoreError::Corrupted(_))), "{r:?}");
    }

    #[test]
    fn unsupported_version_is_rejected_not_misread() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version little-endian low byte
        match JobSnapshot::from_bytes(&bytes) {
            Err(RestoreError::VersionMismatch { found: 99, expected }) => {
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = sample().to_bytes();
        for cut in [bytes.len() - 1, bytes.len() / 2, 9] {
            let r = JobSnapshot::from_bytes(&bytes[..cut]);
            assert!(matches!(r, Err(RestoreError::Corrupted(_))), "cut {cut}: {r:?}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        let r = JobSnapshot::from_bytes(&extended);
        assert!(matches!(r, Err(RestoreError::Corrupted(_))), "{r:?}");
    }

    #[test]
    fn corrupted_length_cannot_drive_allocation() {
        let mut bytes = sample().to_bytes();
        // The per_edge_data length field sits right after the fixed header;
        // blow it up to a value no blob of this size could hold.
        let offset = 8 + 4 + 8 + 2 + 9 + 9 + 1 + 8 + 8 + 8;
        bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let r = JobSnapshot::from_bytes(&bytes);
        assert!(matches!(r, Err(RestoreError::Corrupted(_))), "{r:?}");
    }

    #[test]
    fn plan_digest_distinguishes_plans_and_disabled() {
        use fila_avoidance::{Algorithm, Planner};
        use fila_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "c", 2).unwrap();
        b.edge_with_capacity("a", "c", 2).unwrap();
        let g = b.build().unwrap();
        assert_eq!(plan_digest(&AvoidanceMode::Disabled), None);
        let prop = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let nonprop = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let d_prop = plan_digest(&AvoidanceMode::plan(prop.clone()));
        let d_nonprop = plan_digest(&AvoidanceMode::plan(nonprop));
        assert!(d_prop.is_some() && d_nonprop.is_some());
        assert_ne!(d_prop, d_nonprop);
        // Same plan twice: identical digest.
        assert_eq!(d_prop, plan_digest(&AvoidanceMode::plan(prop)));
    }
}
