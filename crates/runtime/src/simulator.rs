//! A deterministic, single-threaded executor with exact deadlock detection.
//!
//! The simulator is a driver of the scalar model
//! ([`fila_avoidance::model::Engine`]): the model owns the firing rule — the
//! per-node step, pending-output delivery and the worklist scheduler — and
//! this module adds what a *run of an application* needs around it: the
//! node behaviours (the model's firing decision is
//! [`NodeBehavior::fire_into`]), the [`ExecutionReport`] with its
//! blocked-node diagnosis, and checkpoint capture/resume.
//!
//! A run is the model's event-driven ready queue
//! ([`Engine::run_worklist`]): per-step cost proportional to the fired
//! node's degree, deadlock detected exactly as "ready queue empty but not
//! every node finished".  When no node can progress and not every node has
//! reached end-of-stream, the run is *deadlocked* — exactly the condition
//! the paper's avoidance machinery is designed to prevent — and the report
//! records which node is blocked on which channel.
//!
//! Determinism makes the simulator the reference engine for the tests and
//! benchmarks; the pooled engine ([`crate::SharedPool`]) runs the same rule
//! under real concurrency.

use std::sync::Arc;

use fila_avoidance::model::{Engine, Halt};
use fila_avoidance::AvoidancePlan;
use fila_graph::fingerprint::labeled_fingerprint;
use fila_graph::{EdgeId, NodeId};

use crate::checkpoint::{
    self, CheckpointOutcome, JobSnapshot, NodeSnapshot, RestoreError, SNAPSHOT_VERSION,
};
use crate::node::{FireInput, NodeBehavior};
use crate::report::{BlockedInfo, BlockedReason, ExecutionReport};
use crate::topology::Topology;
use crate::wrapper::AvoidanceMode;

/// Deterministic single-threaded execution engine.
#[derive(Debug, Clone)]
pub struct Simulator<'t> {
    topology: &'t Topology,
    mode: AvoidanceMode,
    max_steps: u64,
}

impl<'t> Simulator<'t> {
    /// Creates a simulator with deadlock avoidance disabled.
    pub fn new(topology: &'t Topology) -> Self {
        Simulator {
            topology,
            mode: AvoidanceMode::Disabled,
            max_steps: u64::MAX,
        }
    }

    /// Enables deadlock avoidance following `plan`.
    pub fn with_plan(mut self, plan: &AvoidancePlan) -> Self {
        self.mode = AvoidanceMode::plan(plan.clone());
        self
    }

    /// Enables deadlock avoidance following an already-shared plan without
    /// copying the interval table.
    pub fn with_shared_plan(mut self, plan: Arc<AvoidancePlan>) -> Self {
        self.mode = AvoidanceMode::Plan(plan);
        self
    }

    /// Sets the avoidance mode explicitly.
    pub fn avoidance(mut self, mode: AvoidanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// Bounds the number of scheduler steps (a safety valve for exploratory
    /// runs; the default is effectively unbounded).
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs the application, offering `inputs` sequence numbers at every
    /// source node, and returns the execution report.
    pub fn run(&self, inputs: u64) -> ExecutionReport {
        let started = std::time::Instant::now();
        let mut run = Run::new(self, inputs);
        let halt = run.drive(self.max_steps, false);
        run.report(halt, started)
    }

    /// Runs like [`Simulator::run`], but kills the run as soon as `kill_at`
    /// scheduler steps have executed and returns a [`JobSnapshot`] of the
    /// exact point of death (all channel contents, node progress and
    /// wrapper state); if the run settles first, the finished report is
    /// returned instead.  Since the simulator stops *between* steps, any
    /// cut is consistent — no barrier is needed.
    pub fn run_with_checkpoint(&self, inputs: u64, kill_at: u64) -> CheckpointOutcome {
        let started = std::time::Instant::now();
        let mut run = Run::new(self, inputs);
        let halt = run.drive(kill_at.min(self.max_steps), false);
        if halt == Halt::StepBound && run.engine.steps >= kill_at {
            return CheckpointOutcome::Killed(Box::new(run.capture(
                labeled_fingerprint(self.topology.graph()),
                checkpoint::plan_digest(&self.mode),
            )));
        }
        CheckpointOutcome::Finished(run.report(halt, started))
    }

    /// Resumes a killed run from its snapshot and drives it to a verdict.
    ///
    /// The snapshot must have been taken under *this* simulator's exact
    /// topology and avoidance plan ([`JobSnapshot::validate_for`]); anything
    /// else is a [`RestoreError`], never a silent re-plan.  The returned
    /// report is **cumulative**: a resumed run that completes reports
    /// exactly the counts the uninterrupted run would have (and
    /// [`ExecutionReport::resumed_from`] records the snapshot's progress
    /// marker).
    pub fn resume(&self, snapshot: &JobSnapshot) -> Result<ExecutionReport, RestoreError> {
        let started = std::time::Instant::now();
        snapshot.validate_for(self.topology, &self.mode)?;
        let mut run = Run::new(self, snapshot.inputs);
        run.resumed_from = Some(snapshot.steps);
        let engine = &mut run.engine;
        for (channel, contents) in engine.channels.iter_mut().zip(&snapshot.channels) {
            *channel = contents.iter().copied().collect();
        }
        engine.steps = snapshot.steps;
        engine.sink_firings = snapshot.sink_firings;
        engine.per_edge_data.clone_from(&snapshot.per_edge_data);
        engine.per_edge_dummies.clone_from(&snapshot.per_edge_dummies);
        for (node, ns) in self.topology.graph().node_ids().zip(&snapshot.nodes) {
            let state = &mut engine.nodes[node.index()];
            state.next_source_seq = ns.next_source_seq;
            state.eos_queued = ns.eos_queued;
            state.done = ns.done;
            state.firings = ns.firings;
            state.sink_firings = ns.sink_firings;
            engine.gaps_mut(node).copy_from_slice(&ns.gaps);
            for &(e, m) in &ns.staged {
                engine.stage(node, EdgeId::from_raw(e), m);
            }
        }
        // Seed every unfinished node: unlike a fresh run, restored interior
        // nodes may already hold consumable channel contents.
        let halt = run.drive(self.max_steps, true);
        Ok(run.report(halt, started))
    }
}

/// One run: the model state plus what the application adds to it.
struct Run<'t> {
    engine: Engine<'t>,
    behaviors: Vec<Box<dyn NodeBehavior>>,
    resumed_from: Option<u64>,
}

impl<'t> Run<'t> {
    fn new(sim: &Simulator<'t>, inputs: u64) -> Self {
        Run {
            engine: Engine::new(sim.topology.graph(), &sim.mode, inputs),
            behaviors: sim.topology.build_behaviors(),
            resumed_from: None,
        }
    }

    /// Drives the model with the node behaviours as its firing decision.
    fn drive(&mut self, step_bound: u64, seed_all: bool) -> Halt {
        let behaviors = &mut self.behaviors;
        let fire = &mut |node: NodeId, seq, data_in: &[_], emit: &mut [_]| {
            behaviors[node.index()].fire_into(&FireInput { seq, data_in }, emit)
        };
        self.engine.run_worklist(fire, step_bound, seed_all)
    }

    /// Captures the run's entire state as a [`JobSnapshot`] (channels
    /// verbatim: the simulator stops between steps, where any cut is
    /// consistent).
    fn capture(&self, labeled_topology: u64, plan_digest: Option<u64>) -> JobSnapshot {
        let engine = &self.engine;
        JobSnapshot {
            version: SNAPSHOT_VERSION,
            labeled_topology,
            fingerprint: None,
            filter_signature: None,
            plan_digest,
            inputs: engine.inputs,
            steps: engine.steps,
            sink_firings: engine.sink_firings,
            per_edge_data: engine.per_edge_data.clone(),
            per_edge_dummies: engine.per_edge_dummies.clone(),
            channels: engine
                .channels
                .iter()
                .map(|c| c.iter().copied().collect())
                .collect(),
            nodes: (engine.graph().node_ids().zip(&engine.nodes))
                .map(|(node, state)| NodeSnapshot {
                    gaps: engine.gaps(node).to_vec(),
                    next_source_seq: state.next_source_seq,
                    eos_queued: state.eos_queued,
                    done: state.done,
                    firings: state.firings,
                    sink_firings: state.sink_firings,
                    staged: (engine.pending(node))
                        .map(|(e, m)| (e.index() as u32, m))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Assembles the report; a deadlock names, per unfinished node, the full
    /// channel it cannot send on or else the empty one it waits for.  (A
    /// run stopped by the step bound is inconclusive and names nothing.)
    fn report(self, halt: Halt, started: std::time::Instant) -> ExecutionReport {
        let Run { engine, resumed_from, .. } = self;
        let mut blocked = Vec::new();
        if halt == Halt::Deadlocked {
            for (node, state) in engine.graph().node_ids().zip(&engine.nodes) {
                if state.done {
                    continue;
                }
                let reason = if let Some((edge, _)) = engine.pending(node).next() {
                    BlockedReason::WaitingForSpace(edge)
                } else if let Some(&edge) = engine
                    .graph()
                    .in_edges(node)
                    .iter()
                    .find(|&&e| engine.channels[e.index()].is_empty())
                {
                    BlockedReason::WaitingForInput(edge)
                } else {
                    continue;
                };
                blocked.push(BlockedInfo { node, reason });
            }
        }
        ExecutionReport {
            completed: halt == Halt::Completed,
            deadlocked: halt == Halt::Deadlocked,
            inputs_offered: engine.inputs,
            data_messages: engine.per_edge_data.iter().sum(),
            dummy_messages: engine.per_edge_dummies.iter().sum(),
            sink_firings: engine.sink_firings,
            per_node_firings: engine.nodes.iter().map(|s| s.firings).collect(),
            steps: engine.steps,
            per_edge_data: engine.per_edge_data,
            per_edge_dummies: engine.per_edge_dummies,
            blocked,
            wall: started.elapsed(),
            resumed_from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{Broadcast, ModuloFilter, Predicate};
    use fila_avoidance::{Algorithm, Planner};
    use fila_graph::{Graph, GraphBuilder};

    fn fig2(buffer: u64) -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", buffer).unwrap();
        b.edge_with_capacity("B", "C", buffer).unwrap();
        b.edge_with_capacity("A", "C", buffer).unwrap();
        b.build().unwrap()
    }

    fn pipeline() -> Graph {
        let mut b = GraphBuilder::new();
        b.chain(&["src", "mid", "dst"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn pipeline_without_filtering_completes() {
        let g = pipeline();
        let topo = Topology::from_graph(&g);
        let report = Simulator::new(&topo).run(100);
        assert!(report.completed);
        assert!(!report.deadlocked);
        assert_eq!(report.data_messages, 200);
        assert_eq!(report.dummy_messages, 0);
        assert_eq!(report.sink_firings, 100);
    }

    #[test]
    fn fig2_deadlocks_without_avoidance() {
        // A filters everything it sends to C; with finite buffers the
        // application deadlocks exactly as in Fig. 2.
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let topo = Topology::from_graph(&g)
            // A sends data to B always, to C never (out_edges(A) = [A->B, A->C]).
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).run(1000);
        assert!(report.deadlocked, "{report:?}");
        assert!(!report.completed);
        assert!(!report.blocked.is_empty());
    }

    #[test]
    fn fig2_completes_with_propagation_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed, "avoidance must prevent deadlock: {report:?}");
        assert!(!report.deadlocked);
        assert!(report.dummy_messages > 0, "dummies must actually flow");
    }

    #[test]
    fn fig2_completes_with_nonpropagation_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed, "{report:?}");
        assert!(report.dummy_messages > 0);
    }

    #[test]
    fn periodic_filtering_with_plan_is_safe_at_tiny_buffers() {
        let g = fig2(1);
        let a = g.node_by_name("A").unwrap();
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
            let topo = Topology::from_graph(&g)
                .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 7 == 0));
            let report = Simulator::new(&topo).with_plan(&plan).run(500);
            assert!(report.completed, "{algorithm}: {report:?}");
        }
    }

    #[test]
    fn split_join_with_heavy_filtering_completes_with_plan() {
        // Fig. 1 style split/join where one recogniser keeps only a sliver
        // of the traffic: the classic filtering deadlock.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("split", "left", 4).unwrap();
        b.edge_with_capacity("split", "right", 4).unwrap();
        b.edge_with_capacity("left", "join", 4).unwrap();
        b.edge_with_capacity("right", "join", 4).unwrap();
        let g = b.build().unwrap();
        let split = g.node_by_name("split").unwrap();
        let left = g.node_by_name("left").unwrap();
        let right = g.node_by_name("right").unwrap();
        let topo = Topology::from_graph(&g)
            .with(split, || Broadcast::new(2))
            .with(left, || ModuloFilter::new(1, 5, 0))
            .with(right, || ModuloFilter::new(1, 50, 3));
        // Without a plan the application deadlocks.
        let without = Simulator::new(&topo).run(2000);
        assert!(without.deadlocked, "{without:?}");
        // The filtering happens at the recognisers (interior nodes of the
        // cycle), which the Non-Propagation protocol handles.
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let with_plan = Simulator::new(&topo).with_plan(&plan).run(2000);
        assert!(with_plan.completed, "{with_plan:?}");
    }

    #[test]
    fn interior_filtering_defeats_the_literal_trigger() {
        // Reproduction finding (see the wrapper module docs): when the
        // filtering happens at an interior node of the empty path, the
        // literal "only after filtering" trigger never creates a dummy and
        // the deadlock persists.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("split", "left", 4).unwrap();
        b.edge_with_capacity("split", "right", 4).unwrap();
        b.edge_with_capacity("left", "join", 4).unwrap();
        b.edge_with_capacity("right", "join", 4).unwrap();
        let g = b.build().unwrap();
        let split = g.node_by_name("split").unwrap();
        let right = g.node_by_name("right").unwrap();
        let topo = Topology::from_graph(&g)
            .with(split, || Broadcast::new(2))
            .with(right, || ModuloFilter::new(1, 64, 1));
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let literal = Simulator::new(&topo).with_plan(&plan).run(2000);
        assert!(literal.deadlocked, "{literal:?}");
        // The Non-Propagation protocol handles interior filtering by
        // construction.
        let np_plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        let np = Simulator::new(&topo).with_plan(&np_plan).run(2000);
        assert!(np.completed, "{np:?}");
    }

    #[test]
    fn dummy_traffic_is_bounded_by_data_traffic_shape() {
        // Propagation should send noticeably fewer dummies than the number
        // of filtered inputs when buffers are large.
        let g = fig2(16);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(1000);
        assert!(report.completed);
        // Interval on A->C is 32 (two hops of 16), so at most ~1000/32 + 1
        // dummies on that channel.
        let ac = g.edge_by_names("A", "C").unwrap();
        assert!(report.per_edge_dummies[ac.index()] <= 1000 / 32 + 2);
    }

    #[test]
    fn max_steps_yields_inconclusive_report() {
        let g = pipeline();
        let topo = Topology::from_graph(&g);
        let report = Simulator::new(&topo).max_steps(5).run(1_000_000);
        assert!(report.inconclusive(), "{report:?}");
    }

    #[test]
    fn zero_inputs_complete_immediately() {
        let g = fig2(2);
        let topo = Topology::from_graph(&g);
        let report = Simulator::new(&topo).run(0);
        assert!(report.completed);
        assert_eq!(report.data_messages, 0);
    }

    #[test]
    fn per_edge_counters_sum_to_totals() {
        let g = fig2(4);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |seq, out| out == 0 || seq % 3 == 0));
        let report = Simulator::new(&topo).with_plan(&plan).run(300);
        assert!(report.completed);
        assert_eq!(
            report.per_edge_data.iter().sum::<u64>(),
            report.data_messages
        );
        assert_eq!(
            report.per_edge_dummies.iter().sum::<u64>(),
            report.dummy_messages
        );
    }

    #[test]
    fn shared_plan_runs_like_owned_plan() {
        let g = fig2(2);
        let a = g.node_by_name("A").unwrap();
        let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let shared = std::sync::Arc::new(plan.clone());
        let topo = Topology::from_graph(&g)
            .with(a, || Predicate::new(2, |_seq, out| out == 0));
        let owned = Simulator::new(&topo).with_plan(&plan).run(400);
        let arced = Simulator::new(&topo).with_shared_plan(shared).run(400);
        assert_eq!(owned.completed, arced.completed);
        assert_eq!(owned.per_edge_data, arced.per_edge_data);
        assert_eq!(owned.per_edge_dummies, arced.per_edge_dummies);
    }
}
