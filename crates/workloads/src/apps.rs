//! Runnable application topologies modelled on the paper's motivating
//! examples (§I and the case studies of reference \[14\]).

use fila_graph::Graph;
use fila_runtime::filters::Predicate;
use fila_runtime::{Bernoulli, ModuloFilter, Topology};

use crate::figures;

/// The object-recognition application of Fig. 1: a segmentation split node
/// forwards each video frame to two recognisers, each recogniser reports a
/// success message only for the frames it recognises, and a join node merges
/// the reports.
///
/// * `keep_left` / `keep_right` — recognition probabilities of the two
///   recognisers (their filtering rates are `1 - keep`);
/// * `buffer` — channel capacity;
/// * `seed` — RNG seed for the recognisers.
pub fn object_recognition(buffer: u64, keep_left: f64, keep_right: f64, seed: u64) -> (Graph, Topology) {
    let g = figures::fig1_split_join(buffer);
    let left = g.node_by_name("B").expect("left recogniser");
    let right = g.node_by_name("C").expect("right recogniser");
    // The split node runs the default broadcast.
    let topo = Topology::from_graph(&g)
        .with(left, move || Bernoulli::new(keep_left, seed))
        .with(right, move || Bernoulli::new(keep_right, seed.wrapping_add(1)));
    (g, topo)
}

/// A cross-coupled monitoring pipeline on the Fig. 4 (left) CS4 topology:
/// the primary analysis path `X -> a -> Y` occasionally hands work to the
/// secondary path via the cross channel `a -> b`, and the secondary path
/// reports only its alarms.
pub fn crosslinked_monitor(buffer: u64, alarm_period: u64) -> (Graph, Topology) {
    let g = figures::fig4_crosslink(buffer);
    let primary = g.node_by_name("a").expect("primary");
    let secondary = g.node_by_name("b").expect("secondary");
    let period = alarm_period.max(1);
    let topo = Topology::from_graph(&g)
        // out_edges(a) = [a->Y, a->b]: always report downstream, escalate to
        // the secondary path once per `period`.
        .with(primary, move || {
            Predicate::new(move |seq, out| out == 0 || seq % period == 0)
        })
        // The secondary path reports only every fourth escalation.
        .with(secondary, || ModuloFilter::new(4, 0));
    (g, topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_avoidance::{Algorithm, Planner};
    use fila_runtime::Simulator;

    #[test]
    fn object_recognition_runs_safely_with_a_plan() {
        let (g, topo) = object_recognition(4, 0.3, 0.1, 7);
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let report = Simulator::new(&topo).with_plan(&plan).run(5_000);
        assert!(report.completed, "{report:?}");
        assert!(report.sink_firings > 0);
        // Heavy filtering means the join sees far fewer frames than offered.
        assert!(report.sink_firings < 5_000);
    }

    #[test]
    fn object_recognition_deadlocks_without_a_plan() {
        let (_, topo) = object_recognition(4, 0.05, 0.05, 11);
        let report = Simulator::new(&topo).run(5_000);
        assert!(report.deadlocked, "{report:?}");
    }

    #[test]
    fn crosslinked_monitor_runs_on_the_cs4_plan() {
        let (g, topo) = crosslinked_monitor(4, 16);
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let report = Simulator::new(&topo).with_plan(&plan).run(5_000);
        assert!(report.completed, "{report:?}");
        assert!(report.dummy_messages > 0);
    }
}
