//! The exponential cycle-enumeration baseline for general DAGs (§II.B).
//!
//! For arbitrary DAG topologies the only known way to compute dummy
//! intervals is to enumerate every undirected simple cycle and apply the
//! definitions directly:
//!
//! * **Propagation**: for an edge `e` out of node `u`, consider every cycle
//!   `C` on which `u` is a *source* (both incident cycle edges leave `u`)
//!   and `e` is one of them; `[e]` is the minimum, over such cycles, of the
//!   buffer length of the opposite directed branch leaving `u`.
//! * **Non-Propagation**: for every cycle `C` containing `e`, let `P` be the
//!   maximal directed run of `C` containing `e` and `s` its start; `[e]` is
//!   the minimum over cycles of `⌊L^(1/h)⌋` where `L` is the buffer length
//!   of the opposite run leaving `s` and `h = |P|` is the hop count of `e`'s
//!   own run.  The paper's §II.B definition divides `L` by `h` instead;
//!   that bound assumes interior nodes re-emit data, which per-node
//!   *interior* filtering violates — a Non-Propagation node relays at most
//!   one message per `[e]` messages reaching it, so the worst-case gap at
//!   the end of a run is the **product** of its intervals and the sound
//!   uniform bound is the integer `h`-th root (E17 postmortem, DESIGN.md).
//!
//! On cycles with a single source and a single sink — the only cycles that
//! occur in SP and CS4 graphs — these definitions coincide exactly with the
//! component-tree formulas of §IV, which is what makes this module the
//! ground truth that the efficient algorithms are validated against
//! (experiment E11).  Its cost is exponential in general: a DAG with `k`
//! parallel two-hop branches has `k(k−1)/2` cycles, and richer topologies
//! explode combinatorially (experiment E8).

use fila_graph::cycles::{enumerate_cycles_bounded, UndirectedCycle};
use fila_graph::{Graph, GraphError, Result};

use crate::interval::{DummyInterval, IntervalMap};
use crate::plan::Algorithm;

/// Default bound on the number of cycles the baseline will enumerate before
/// giving up; prevents accidental runaway on large general graphs.
pub const DEFAULT_CYCLE_BOUND: usize = 5_000_000;

/// Computes dummy intervals for either protocol by exhaustive cycle
/// enumeration, with the default cycle bound.
pub fn exhaustive_intervals(g: &Graph, algorithm: Algorithm) -> Result<IntervalMap> {
    exhaustive_intervals_bounded(g, algorithm, DEFAULT_CYCLE_BOUND)
}

/// Computes dummy intervals by exhaustive cycle enumeration, aborting with
/// an error if the graph has more than `max_cycles` undirected simple
/// cycles.
pub fn exhaustive_intervals_bounded(
    g: &Graph,
    algorithm: Algorithm,
    max_cycles: usize,
) -> Result<IntervalMap> {
    intervals_from_cycles(g, algorithm, &enumerate(g, max_cycles)?)
}

/// Validates `g` and enumerates its cycles under the budget: the exponential,
/// protocol-independent half of the baseline, which a certification walk
/// makes once for all its exhaustive candidates.
pub(crate) fn enumerate(g: &Graph, max_cycles: usize) -> Result<Vec<UndirectedCycle>> {
    #[cfg(test)]
    ENUMERATIONS.with(|n| n.set(n.get() + 1));
    g.validate()?;
    enumerate_cycles_bounded(g, max_cycles)
}

#[cfg(test)]
thread_local! {
    /// Calls of [`enumerate`] on this thread ("once per admission").
    pub(crate) static ENUMERATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The intervals `cycles` (every cycle of `g`) demand under `algorithm`.
pub(crate) fn intervals_from_cycles(
    g: &Graph,
    algorithm: Algorithm,
    cycles: &[UndirectedCycle],
) -> Result<IntervalMap> {
    let mut intervals = IntervalMap::for_graph(g);
    for cycle in cycles {
        apply_cycle(g, cycle, algorithm, &mut intervals)?;
    }
    Ok(intervals)
}

/// Applies the constraints of a single undirected cycle to the interval map.
fn apply_cycle(
    g: &Graph,
    cycle: &UndirectedCycle,
    algorithm: Algorithm,
    intervals: &mut IntervalMap,
) -> Result<()> {
    let runs = cycle.directed_runs(g);
    // Group the runs by their start node; each cycle source contributes
    // exactly two runs.
    for (i, run_a) in runs.iter().enumerate() {
        for run_b in runs.iter().skip(i + 1) {
            if run_a.start != run_b.start {
                continue;
            }
            let len_a = UndirectedCycle::run_buffer_length(g, run_a);
            let len_b = UndirectedCycle::run_buffer_length(g, run_b);
            match algorithm {
                Algorithm::Propagation => {
                    // Only the first edge of each run leaves the cycle source.
                    let first_a = *run_a.edges.first().ok_or_else(|| {
                        GraphError::Structure("directed run cannot be empty".into())
                    })?;
                    let first_b = *run_b.edges.first().ok_or_else(|| {
                        GraphError::Structure("directed run cannot be empty".into())
                    })?;
                    intervals.tighten(first_a, DummyInterval::from_length(len_b));
                    intervals.tighten(first_b, DummyInterval::from_length(len_a));
                }
                Algorithm::NonPropagation => {
                    let hops_a = run_a.edges.len() as u64;
                    let hops_b = run_b.edges.len() as u64;
                    for &e in &run_a.edges {
                        intervals.tighten(e, DummyInterval::from_run_budget(len_b, hops_a));
                    }
                    for &e in &run_b.edges {
                        intervals.tighten(e, DummyInterval::from_run_budget(len_a, hops_b));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use fila_spdag::{build_sp, SpSpec};

    fn fig3() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn fig3_exhaustive_matches_paper_for_both_algorithms() {
        let g = fig3();
        let e = |s: &str, t: &str| g.edge_by_names(s, t).unwrap();
        let prop = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert_eq!(prop.get(e("a", "b")), DummyInterval::Finite(6));
        assert_eq!(prop.get(e("a", "c")), DummyInterval::Finite(8));
        assert_eq!(prop.get(e("b", "e")), DummyInterval::Infinite);
        // Robust Non-Propagation: 3-hop runs take the cube root of the
        // opposite slack (paper's division gave 6/3 = 2 and ⌈8/3⌉ = 3).
        let np = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
        assert_eq!(np.get(e("a", "b")), DummyInterval::Finite(1));
        assert_eq!(np.get(e("d", "f")), DummyInterval::Finite(2));
    }

    #[test]
    fn exhaustive_matches_sp_algorithms_on_generated_sp_dags() {
        let specs = vec![
            SpSpec::Parallel(vec![SpSpec::pipeline(&[2, 3, 4]), SpSpec::Edge(5)]),
            SpSpec::Series(vec![
                SpSpec::Parallel(vec![
                    SpSpec::Edge(7),
                    SpSpec::MultiEdge(vec![1, 6]),
                    SpSpec::pipeline(&[2, 2]),
                ]),
                SpSpec::Parallel(vec![SpSpec::Edge(3), SpSpec::pipeline(&[1, 1, 1])]),
            ]),
        ];
        for spec in specs {
            let (g, d) = build_sp(&spec);
            let prop_fast = crate::prop_sp::setivals(&g, &d);
            let prop_exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
            assert_eq!(prop_fast, prop_exact, "propagation mismatch for {spec:?}");
            let np_fast = crate::nonprop_sp::nonprop_intervals(&g, &d);
            let np_exact = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
            assert_eq!(np_fast, np_exact, "non-propagation mismatch for {spec:?}");
        }
    }

    #[test]
    fn crosslinked_split_join_intervals() {
        // Fig. 4 left with explicit capacities.  Cycles:
        //   x-a-y-b-x (outer), x-a-b-x... (through the cross edge), a-b-y-a.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "a", 2).unwrap();
        b.edge_with_capacity("x", "b", 3).unwrap();
        b.edge_with_capacity("a", "y", 4).unwrap();
        b.edge_with_capacity("b", "y", 5).unwrap();
        b.edge_with_capacity("a", "b", 1).unwrap();
        let g = b.build().unwrap();
        let e = |s: &str, t: &str| g.edge_by_names(s, t).unwrap();
        let prop = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        // Cycle sources: x (outer cycle and the x-a-b cycle) and a (a-b-y cycle).
        // [xa]: other branches: outer x->b->y (3+5=8) and x->b against a->b (3).
        assert_eq!(prop.get(e("x", "a")), DummyInterval::Finite(3));
        // [xb]: other branches: x->a->y (6) and x->a->b... the cycle x-a-b uses
        // runs x->a->b (len 3) vs x->b (len 3): other branch length 3.
        assert_eq!(prop.get(e("x", "b")), DummyInterval::Finite(3));
        // [ay]: cycle a-y-b with source a: other branch a->b->y = 1+5 = 6.
        assert_eq!(prop.get(e("a", "y")), DummyInterval::Finite(6));
        // [ab]: cycles with source a: a->b vs a->y: other branch 4.
        assert_eq!(prop.get(e("a", "b")), DummyInterval::Finite(4));
        // [by] is never the first edge out of a cycle source.
        assert_eq!(prop.get(e("b", "y")), DummyInterval::Infinite);
    }

    #[test]
    fn butterfly_two_source_cycles_are_handled() {
        // The butterfly's 4-cycle a-c-b-d has two sources (a, b) and two
        // sinks (c, d); both sources' outgoing cycle edges must be bounded.
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge_with_capacity(s, t, 2).unwrap();
        }
        let g = b.build().unwrap();
        let prop = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        // Every edge out of x, a, and b lies on some cycle as a source edge.
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")] {
            assert!(
                prop.get(g.edge_by_names(s, t).unwrap()).is_finite(),
                "[{s}{t}] should be finite"
            );
        }
        // The two-source cycle a-c-b-d alone gives [ac] <= 2 (the opposite
        // run b->c has buffer length 2).
        assert!(
            prop.get(g.edge_by_names("a", "c").unwrap()) <= DummyInterval::Finite(2)
        );
    }

    #[test]
    fn cycle_bound_is_enforced() {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            let mid = format!("m{i}");
            b.edge("s", &mid).unwrap();
            b.edge(&mid, "t").unwrap();
        }
        let g = b.build().unwrap();
        assert!(exhaustive_intervals_bounded(&g, Algorithm::Propagation, 5).is_err());
        assert!(exhaustive_intervals_bounded(&g, Algorithm::Propagation, 100).is_ok());
    }

    #[test]
    fn acyclic_tree_needs_no_dummies() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        let g = b.build().unwrap();
        let prop = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert_eq!(prop.finite_count(), 0);
    }
}
