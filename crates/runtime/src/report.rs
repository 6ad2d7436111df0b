//! Execution reports: what happened during a run.

use std::time::Duration;

use fila_graph::{EdgeId, NodeId};

/// Why a node was unable to make progress when the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedReason {
    /// The node is waiting for a message on an empty input channel.
    WaitingForInput(EdgeId),
    /// The node is waiting for space on a full output channel.
    WaitingForSpace(EdgeId),
}

/// One blocked node in a deadlock report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedInfo {
    /// The blocked node.
    pub node: NodeId,
    /// What it is blocked on.
    pub reason: BlockedReason,
}

/// Summary of one execution (simulated or pooled).
#[derive(Debug, Clone, Default)]
pub struct ExecutionReport {
    /// True if every node reached end-of-stream.
    pub completed: bool,
    /// True if the run was declared deadlocked.
    pub deadlocked: bool,
    /// Number of input sequence numbers offered at each source.
    pub inputs_offered: u64,
    /// Total data messages delivered over all channels.
    pub data_messages: u64,
    /// Total dummy messages delivered over all channels.
    pub dummy_messages: u64,
    /// Data messages delivered per channel, indexed by edge id.
    pub per_edge_data: Vec<u64>,
    /// Dummy messages delivered per channel, indexed by edge id.
    pub per_edge_dummies: Vec<u64>,
    /// Number of data-bearing sequence numbers consumed by sink nodes.
    pub sink_firings: u64,
    /// Firings (accepted sequence numbers) per node, indexed by node id.
    /// Together with `per_edge_data` this is the observed filter profile of
    /// the run: node `n` emitted `per_edge_data[e] / per_node_firings[n]`
    /// data messages per accepted sequence number on each out-edge `e` —
    /// what the service's drift detector compares against the declared
    /// `FilterSpec`.  Maintained by every engine from counters the tasks
    /// already kept, so the cost is one `Vec` per report, not per firing.
    pub per_node_firings: Vec<u64>,
    /// Scheduler steps (simulator) or total firings (pooled engine).
    pub steps: u64,
    /// Nodes that were blocked when the run stopped (empty on completion).
    pub blocked: Vec<BlockedInfo>,
    /// Wall-clock time of the run, measured by the engine (submit-to-verdict
    /// for jobs on a shared pool).
    pub wall: Duration,
    /// For restored runs, the `steps` progress marker of the
    /// [`JobSnapshot`](crate::checkpoint::JobSnapshot) this run resumed
    /// from; `None` for runs started fresh.  All counters in a resumed
    /// run's report are **cumulative** across the original and resumed
    /// executions — a resumed run that finishes reports exactly what the
    /// uninterrupted run would have.
    pub resumed_from: Option<u64>,
}

impl ExecutionReport {
    /// Total messages delivered over all channels (data + dummies; the
    /// unit the throughput benchmarks report per second).
    pub fn total_messages(&self) -> u64 {
        self.data_messages + self.dummy_messages
    }

    /// Fraction of delivered messages that were dummies (0.0 when nothing
    /// was delivered).
    pub fn dummy_overhead(&self) -> f64 {
        let total = self.data_messages + self.dummy_messages;
        if total == 0 {
            0.0
        } else {
            self.dummy_messages as f64 / total as f64
        }
    }

    /// True if the run neither completed nor deadlocked (e.g. it was stopped
    /// by a step bound).
    pub fn inconclusive(&self) -> bool {
        !self.completed && !self.deadlocked
    }

    /// Wall-clock time of the run as measured by the engine.
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Delivered messages (data + dummies) per wall-clock second — the unit
    /// the throughput benchmarks and the service stats report.  `None` when
    /// the engine recorded no elapsed time (a zero-duration micro-job has
    /// *no* rate — reporting 0 msg/s would poison any average or minimum
    /// computed over it).
    pub fn messages_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| self.total_messages() as f64 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_overhead_handles_empty_runs() {
        let r = ExecutionReport::default();
        assert_eq!(r.dummy_overhead(), 0.0);
        assert!(r.inconclusive());
    }

    #[test]
    fn dummy_overhead_ratio() {
        let r = ExecutionReport {
            data_messages: 75,
            dummy_messages: 25,
            completed: true,
            ..Default::default()
        };
        assert!((r.dummy_overhead() - 0.25).abs() < 1e-9);
        assert_eq!(r.total_messages(), 100);
        assert!(!r.inconclusive());
    }

    #[test]
    fn messages_per_sec_uses_wall_time() {
        let r = ExecutionReport {
            data_messages: 150,
            dummy_messages: 50,
            wall: Duration::from_millis(100),
            ..Default::default()
        };
        assert_eq!(r.wall_time(), Duration::from_millis(100));
        let rate = r.messages_per_sec().expect("elapsed time was recorded");
        assert!((rate - 2000.0).abs() < 1e-6);
        // No recorded time -> no rate (not a fake 0), never a division by
        // zero.
        let zero = ExecutionReport::default();
        assert_eq!(zero.messages_per_sec(), None);
    }
}
