//! Enumeration and classification of **undirected simple cycles**.
//!
//! Deadlocks in the filtering streaming model correspond to undirected
//! simple cycles of the application DAG (§II.B of the paper), and the
//! general-DAG dummy-interval definitions minimise over all such cycles.
//! A DAG can have exponentially many undirected simple cycles, which is
//! exactly why the paper's polynomial algorithms for SP / CS4 topologies
//! matter; this module provides the exponential baseline they are compared
//! against, plus the per-cycle source/sink classification used by the CS4
//! definition.

use crate::error::{GraphError, Result};
use crate::ids::{EdgeId, NodeId};
use crate::multigraph::Graph;

/// An undirected simple cycle, stored as an alternating node/edge walk.
///
/// `nodes[i]` and `nodes[(i + 1) % len]` are the endpoints of `edges[i]`.
/// Every node appears at most once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndirectedCycle {
    /// The nodes of the cycle in traversal order.
    pub nodes: Vec<NodeId>,
    /// The edges of the cycle in traversal order; `edges[i]` joins
    /// `nodes[i]` to `nodes[(i + 1) % nodes.len()]`.
    pub edges: Vec<EdgeId>,
}

/// A maximal directed run inside an undirected cycle: a sequence of
/// consecutive cycle edges that all point "forward" along the traversal (or
/// all point "backward"), from one cycle source to one cycle sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectedRun {
    /// The node the run starts at (a source of the cycle).
    pub start: NodeId,
    /// The node the run ends at (a sink of the cycle).
    pub end: NodeId,
    /// The edges of the run in path order (each directed `start -> ... -> end`).
    pub edges: Vec<EdgeId>,
}

impl UndirectedCycle {
    /// Number of edges (= number of nodes) on the cycle.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the cycle is empty (never produced by the enumerator).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The cycle's **sources**: nodes whose two incident cycle edges are both
    /// directed out of the node.
    pub fn sources(&self, g: &Graph) -> Vec<NodeId> {
        self.classify(g, true)
    }

    /// The cycle's **sinks**: nodes whose two incident cycle edges are both
    /// directed into the node.
    pub fn sinks(&self, g: &Graph) -> Vec<NodeId> {
        self.classify(g, false)
    }

    fn classify(&self, g: &Graph, want_sources: bool) -> Vec<NodeId> {
        let k = self.len();
        let mut out = Vec::new();
        for i in 0..k {
            let v = self.nodes[i];
            let prev_edge = self.edges[(i + k - 1) % k];
            let next_edge = self.edges[i];
            let prev_out = g.tail(prev_edge) == v;
            let next_out = g.tail(next_edge) == v;
            let is_source = prev_out && next_out;
            let is_sink = !prev_out && !next_out;
            if (want_sources && is_source) || (!want_sources && is_sink) {
                out.push(v);
            }
        }
        out
    }

    /// True if the cycle has exactly one source and one sink — the defining
    /// property of cycles in CS4 graphs (§V).
    pub fn has_single_source_and_sink(&self, g: &Graph) -> bool {
        self.sources(g).len() == 1 && self.sinks(g).len() == 1
    }

    /// Decomposes the cycle into its maximal directed runs.  A cycle with
    /// `s` sources and `s` sinks decomposes into exactly `2 s` runs.
    pub fn directed_runs(&self, g: &Graph) -> Vec<DirectedRun> {
        let k = self.len();
        let sources = self.sources(g);
        let mut runs = Vec::new();
        for &src in &sources {
            let i = self
                .nodes
                .iter()
                .position(|&n| n == src)
                .expect("source is on the cycle");
            // Forward run: follow edges[i], edges[i+1], ... while they point
            // forward along the traversal.
            let mut edges = Vec::new();
            let mut pos = i;
            loop {
                let e = self.edges[pos];
                if g.tail(e) != self.nodes[pos] {
                    break;
                }
                edges.push(e);
                pos = (pos + 1) % k;
                if pos == i {
                    break;
                }
            }
            if !edges.is_empty() {
                runs.push(DirectedRun {
                    start: src,
                    end: self.nodes[pos],
                    edges,
                });
            }
            // Backward run: follow edges[i-1], edges[i-2], ... while they
            // point backward along the traversal (i.e. out of the source).
            let mut edges = Vec::new();
            let mut pos = i;
            loop {
                let prev = (pos + k - 1) % k;
                let e = self.edges[prev];
                if g.tail(e) != self.nodes[pos] {
                    break;
                }
                edges.push(e);
                pos = prev;
                if pos == i {
                    break;
                }
            }
            if !edges.is_empty() {
                runs.push(DirectedRun {
                    start: src,
                    end: self.nodes[pos],
                    edges,
                });
            }
        }
        runs
    }

    /// Total buffer capacity of the given run of edges.
    pub fn run_buffer_length(g: &Graph, run: &DirectedRun) -> u64 {
        run.edges.iter().map(|&e| g.capacity(e)).sum()
    }
}

/// Enumerates undirected simple cycles, aborting once more than `max_cycles`
/// have been produced (worst-case exponential in the size of the graph).
///
/// # Errors
///
/// Returns [`GraphError::Structure`] if the bound is exceeded.
pub fn enumerate_cycles_bounded(g: &Graph, max_cycles: usize) -> Result<Vec<UndirectedCycle>> {
    let mut cycles = Vec::new();
    let within_bound = for_each_cycle(g, |nodes, edges| {
        if cycles.len() >= max_cycles {
            return false;
        }
        cycles.push(UndirectedCycle {
            nodes: nodes.to_vec(),
            edges: edges.to_vec(),
        });
        true
    });
    if within_bound {
        Ok(cycles)
    } else {
        Err(GraphError::Structure(format!(
            "cycle enumeration exceeded the bound of {max_cycles}"
        )))
    }
}

/// The one traversal behind every function below: calls `visit(nodes,
/// edges)` once per undirected simple cycle (`edges[i]` joins `nodes[i]` to
/// `nodes[(i + 1) % len]`, as in [`UndirectedCycle`]) until it returns
/// `false`; returns whether every cycle was visited.
///
/// Canonical representation: every cycle is reported exactly once, anchored
/// at its minimum edge id, traversed starting from that edge's source node
/// (tail).  Only edges with a larger id may complete the cycle, and no node
/// repeats.
fn for_each_cycle(g: &Graph, visit: impl FnMut(&[NodeId], &[EdgeId]) -> bool) -> bool {
    let mut dfs = CycleDfs {
        g,
        path_nodes: Vec::new(),
        path_edges: Vec::new(),
        on_path: vec![false; g.node_count()],
        visit,
    };
    for (anchor, edge) in g.edges() {
        dfs.path_nodes.extend([edge.src, edge.dst]);
        dfs.path_edges.push(anchor);
        dfs.on_path[edge.src.index()] = true;
        dfs.on_path[edge.dst.index()] = true;
        if !dfs.extend_from(anchor, edge.src, edge.dst) {
            return false;
        }
        dfs.on_path[edge.src.index()] = false;
        dfs.on_path[edge.dst.index()] = false;
        dfs.path_nodes.clear();
        dfs.path_edges.clear();
    }
    true
}

/// The depth-first search of [`for_each_cycle`]: the path from the anchor
/// edge's tail to the node being extended.
struct CycleDfs<'g, V> {
    g: &'g Graph,
    path_nodes: Vec<NodeId>,
    path_edges: Vec<EdgeId>,
    on_path: Vec<bool>,
    visit: V,
}

impl<V: FnMut(&[NodeId], &[EdgeId]) -> bool> CycleDfs<'_, V> {
    /// Extends the path, which began at `start` along `anchor`, from its
    /// last node `current`; `false` once the visitor has asked to stop.
    fn extend_from(&mut self, anchor: EdgeId, start: NodeId, current: NodeId) -> bool {
        let g = self.g;
        // Every incident edge of `current` with id greater than the anchor
        // (canonicalisation) that the path has not already used, iterated in
        // place: this runs once per search step.
        for &e in g.out_edges(current).iter().chain(g.in_edges(current)) {
            if e <= anchor || self.path_edges.contains(&e) {
                continue;
            }
            let (s, d) = g.endpoints(e);
            let next = if s == current { d } else { s };
            if next == start {
                // Completed a cycle: nodes = the path (start .. current),
                // edges = the path's + e.
                self.path_edges.push(e);
                let go_on = (self.visit)(&self.path_nodes, &self.path_edges);
                self.path_edges.pop();
                if !go_on {
                    return false;
                }
                continue;
            }
            if self.on_path[next.index()] {
                continue;
            }
            self.on_path[next.index()] = true;
            self.path_nodes.push(next);
            self.path_edges.push(e);
            let go_on = self.extend_from(anchor, start, next);
            self.path_edges.pop();
            self.path_nodes.pop();
            self.on_path[next.index()] = false;
            if !go_on {
                return false;
            }
        }
        true
    }
}

/// Counts the undirected simple cycles without materialising them (still
/// exponential time, but constant memory beyond the DFS stack).
pub fn count_cycles(g: &Graph) -> usize {
    let mut count = 0;
    for_each_cycle(g, |_, _| {
        count += 1;
        true
    });
    count
}

/// Returns `true` if every undirected simple cycle of `g` has exactly one
/// source and one sink — the brute-force CS4 check used to validate the
/// structural recogniser in `fila-avoidance`.  Stops at the first cycle
/// that has more.
pub fn all_cycles_single_source_sink(g: &Graph) -> bool {
    for_each_cycle(g, |nodes, edges| {
        let cycle = UndirectedCycle {
            nodes: nodes.to_vec(),
            edges: edges.to_vec(),
        };
        cycle.has_single_source_and_sink(g)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn diamond_has_one_cycle() {
        let g = diamond();
        let cycles = enumerate_cycles_bounded(&g, usize::MAX).unwrap();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.len(), 4);
        assert_eq!(c.sources(&g), vec![g.node_by_name("a").unwrap()]);
        assert_eq!(c.sinks(&g), vec![g.node_by_name("d").unwrap()]);
        assert!(c.has_single_source_and_sink(&g));
    }

    #[test]
    fn parallel_edges_make_two_cycles_pairwise() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        // Three parallel edges: C(3,2) = 3 two-edge cycles.
        assert_eq!(count_cycles(&g), 3);
    }

    #[test]
    fn triangle_dag_cycle_runs() {
        // Fig. 2 of the paper: A->B, B->C, A->C.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("A", "B", 4).unwrap();
        b.edge_with_capacity("B", "C", 5).unwrap();
        b.edge_with_capacity("A", "C", 6).unwrap();
        let g = b.build().unwrap();
        let cycles = enumerate_cycles_bounded(&g, usize::MAX).unwrap();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert!(c.has_single_source_and_sink(&g));
        let runs = c.directed_runs(&g);
        assert_eq!(runs.len(), 2);
        let mut lens: Vec<u64> = runs
            .iter()
            .map(|r| UndirectedCycle::run_buffer_length(&g, r))
            .collect();
        lens.sort();
        assert_eq!(lens, vec![6, 9]);
        for r in &runs {
            assert_eq!(r.start, g.node_by_name("A").unwrap());
            assert_eq!(r.end, g.node_by_name("C").unwrap());
        }
    }

    #[test]
    fn butterfly_cycle_with_two_sources_is_detected() {
        // Fig. 4 right: the butterfly contains cycle a-c-b-d with two
        // sources and two sinks.
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        assert!(!all_cycles_single_source_sink(&g));
        let bad: Vec<_> = enumerate_cycles_bounded(&g, usize::MAX)
            .unwrap()
            .into_iter()
            .filter(|c| !c.has_single_source_and_sink(&g))
            .collect();
        assert!(!bad.is_empty());
        // The specific 4-node cycle a-c-b-d must be among them.
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        let c = g.node_by_name("c").unwrap();
        let d = g.node_by_name("d").unwrap();
        assert!(bad.iter().any(|cy| {
            cy.len() == 4
                && cy.nodes.contains(&a)
                && cy.nodes.contains(&bb)
                && cy.nodes.contains(&c)
                && cy.nodes.contains(&d)
        }));
    }

    #[test]
    fn cycle_count_grows_exponentially_with_parallel_chains() {
        // k parallel two-hop chains from s to t: every pair of chains forms a
        // cycle, so the number of simple cycles is C(k, 2).
        for k in 2..6usize {
            let mut b = GraphBuilder::new();
            for i in 0..k {
                let mid = format!("m{i}");
                b.edge("s", &mid).unwrap();
                b.edge(&mid, "t").unwrap();
            }
            let g = b.build().unwrap();
            assert_eq!(count_cycles(&g), k * (k - 1) / 2);
        }
    }

    #[test]
    fn bounded_enumeration_aborts() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            let mid = format!("m{i}");
            b.edge("s", &mid).unwrap();
            b.edge(&mid, "t").unwrap();
        }
        let g = b.build().unwrap();
        assert!(enumerate_cycles_bounded(&g, 3).is_err());
        assert!(enumerate_cycles_bounded(&g, 100).is_ok());
    }

    #[test]
    fn counting_and_the_cs4_check_visit_what_enumeration_collects() {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        let butterfly = b.build().unwrap();
        for g in [diamond(), butterfly] {
            let cycles = enumerate_cycles_bounded(&g, usize::MAX).unwrap();
            assert_eq!(count_cycles(&g), cycles.len());
            assert_eq!(
                all_cycles_single_source_sink(&g),
                cycles.iter().all(|c| c.has_single_source_and_sink(&g))
            );
            // The bound is on what is produced: exactly that many fit.
            assert_eq!(enumerate_cycles_bounded(&g, cycles.len()).unwrap(), cycles);
            assert!(enumerate_cycles_bounded(&g, cycles.len() - 1).is_err());
        }
    }

    #[test]
    fn acyclic_tree_has_no_cycles() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("b", "e").unwrap();
        let g = b.build().unwrap();
        assert_eq!(count_cycles(&g), 0);
    }

    #[test]
    fn every_cycle_is_simple() {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
            ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        for c in enumerate_cycles_bounded(&g, usize::MAX).unwrap() {
            let mut nodes = c.nodes.clone();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), c.nodes.len(), "cycle revisits a node");
            let mut edges = c.edges.clone();
            edges.sort();
            edges.dedup();
            assert_eq!(edges.len(), c.edges.len(), "cycle revisits an edge");
        }
        assert_eq!(count_cycles(&g), 2);
    }
}
