//! Per-component metrics `L(H)`, `h(H)` and `h(H, e)`.
//!
//! §IV of the paper parameterises its interval computations with three
//! quantities per component `H` of the SP decomposition tree:
//!
//! * `L(H)` — the length (total buffer capacity) of a *shortest* directed
//!   path from `H`'s source to its sink;
//! * `h(H)` — the number of edges on a *longest* directed path from `H`'s
//!   source to its sink;
//! * `h(H, e)` — the number of edges on a longest source-to-sink path of `H`
//!   that passes through edge `e`.
//!
//! All three follow the simple recurrences of the paper over the component
//! tree (leaf / series / parallel) and are computed here in one bottom-up
//! pass (for `L` and `h`) plus one top-down pass per queried component (for
//! `h(H, e)`).

use fila_graph::{EdgeId, Graph};

use crate::forest::{CompId, SpForest, SpKind};

/// Bottom-up metrics for every component of a forest.
#[derive(Debug, Clone)]
pub struct SpMetrics {
    /// `L(H)` per component id: shortest source→sink buffer length.
    pub shortest_buffer: Vec<u64>,
    /// `h(H)` per component id: longest source→sink hop count.
    pub longest_hops: Vec<u64>,
}

impl SpMetrics {
    /// Computes `L(H)` and `h(H)` for every component in the arena.
    ///
    /// Components are created children-first by both the reduction and the
    /// composer, so a single pass in id order suffices.  (A composition the
    /// reduction absorbed is in the arena without children; its values are
    /// zero and nothing reads them.)
    pub fn compute(g: &Graph, forest: &SpForest) -> Self {
        let n = forest.len();
        let mut shortest = vec![0u64; n];
        let mut hops = vec![0u64; n];
        for idx in 0..n {
            let id = CompId(idx as u32);
            match &forest.component(id).kind {
                SpKind::Leaf(e) => {
                    shortest[idx] = g.capacity(*e);
                    hops[idx] = 1;
                }
                SpKind::Series(children) => {
                    shortest[idx] = children.iter().map(|c| shortest[c.index()]).sum();
                    hops[idx] = children.iter().map(|c| hops[c.index()]).sum();
                }
                SpKind::Parallel(children) => {
                    shortest[idx] = children
                        .iter()
                        .map(|c| shortest[c.index()])
                        .min()
                        .unwrap_or(0);
                    hops[idx] = children
                        .iter()
                        .map(|c| hops[c.index()])
                        .max()
                        .unwrap_or(0);
                }
            }
        }
        SpMetrics {
            shortest_buffer: shortest,
            longest_hops: hops,
        }
    }

    /// `L(H)` for a component.
    #[inline]
    pub fn l(&self, id: CompId) -> u64 {
        self.shortest_buffer[id.index()]
    }

    /// `h(H)` for a component.
    #[inline]
    pub fn h(&self, id: CompId) -> u64 {
        self.longest_hops[id.index()]
    }

    /// Computes `h(H, e)` for every original edge `e` in the subtree rooted
    /// at `comp`, following the paper's recurrence:
    ///
    /// * leaf: `h(H, e) = 1`;
    /// * series: `h(H, e) = h(H_i, e) + Σ_{j≠i} h(H_j)` for `e ∈ H_i`;
    /// * parallel: `h(H, e) = h(H_i, e)` for `e ∈ H_i`.
    ///
    /// Runs in time linear in the size of the subtree.
    pub fn h_per_edge(&self, forest: &SpForest, comp: CompId) -> Vec<(EdgeId, u64)> {
        let mut out = Vec::new();
        // Each stack entry carries the hop-count contribution of everything
        // outside the current component but inside `comp`.
        let mut stack = vec![(comp, 0u64)];
        while let Some((id, context)) = stack.pop() {
            match &forest.component(id).kind {
                SpKind::Leaf(e) => out.push((*e, context + 1)),
                SpKind::Parallel(children) => {
                    for &c in children {
                        stack.push((c, context));
                    }
                }
                SpKind::Series(children) => {
                    let total: u64 = children.iter().map(|c| self.h(*c)).sum();
                    for &c in children {
                        stack.push((c, context + total - self.h(c)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::reduce;
    use fila_graph::GraphBuilder;

    /// Fig. 3: parallel of series(2,5,1) and series(3,1,2).
    fn fig3() -> (Graph, crate::forest::SpDecomposition) {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        (g, d)
    }

    #[test]
    fn fig3_l_and_h() {
        let (g, d) = fig3();
        let m = SpMetrics::compute(&g, &d.forest);
        // Whole graph: shortest branch is a->c->d->f with 3+1+2 = 6;
        // longest hop path has 3 edges.
        assert_eq!(m.l(d.root), 6);
        assert_eq!(m.h(d.root), 3);
    }

    #[test]
    fn fig3_h_per_edge_is_three_for_all_edges() {
        let (g, d) = fig3();
        let m = SpMetrics::compute(&g, &d.forest);
        let per_edge = m.h_per_edge(&d.forest, d.root);
        assert_eq!(per_edge.len(), g.edge_count());
        for (_, h) in per_edge {
            assert_eq!(h, 3);
        }
    }

    #[test]
    fn series_metrics_add_up() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 4).unwrap();
        b.edge_with_capacity("b", "c", 6).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        let m = SpMetrics::compute(&g, &d.forest);
        assert_eq!(m.l(d.root), 10);
        assert_eq!(m.h(d.root), 2);
    }

    #[test]
    fn parallel_metrics_take_min_and_max() {
        // Two branches of different length between the same terminals.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("s", "t", 9).unwrap();
        b.edge_with_capacity("s", "m", 1).unwrap();
        b.edge_with_capacity("m", "n", 1).unwrap();
        b.edge_with_capacity("n", "t", 1).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        let m = SpMetrics::compute(&g, &d.forest);
        assert_eq!(m.l(d.root), 3, "shortest branch by buffer length");
        assert_eq!(m.h(d.root), 3, "longest branch by hops");
    }

    #[test]
    fn h_per_edge_distinguishes_branches() {
        // Branch A: one hop; branch B: three hops.  Edges on branch A have
        // h(G, e) = 1, edges on branch B have h(G, e) = 3.
        let mut b = GraphBuilder::new();
        let direct = b.edge_with_capacity("s", "t", 9).unwrap();
        b.edge_with_capacity("s", "m", 1).unwrap();
        b.edge_with_capacity("m", "n", 1).unwrap();
        b.edge_with_capacity("n", "t", 1).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        let m = SpMetrics::compute(&g, &d.forest);
        for (e, h) in m.h_per_edge(&d.forest, d.root) {
            if e == direct {
                assert_eq!(h, 1);
            } else {
                assert_eq!(h, 3);
            }
        }
    }

    #[test]
    fn metrics_match_graph_level_path_computations() {
        // Cross-check component metrics at the root against the generic DAG
        // path sweeps from fila-graph on a nested SP topology.
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("s", "a", 2).unwrap();
        b.edge_with_capacity("a", "b", 3).unwrap();
        b.edge_with_capacity("a", "c", 1).unwrap();
        b.edge_with_capacity("c", "b", 1).unwrap();
        b.edge_with_capacity("b", "t", 5).unwrap();
        b.edge_with_capacity("s", "t", 20).unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        let m = SpMetrics::compute(&g, &d.forest);
        let s = g.node_by_name("s").unwrap();
        let t = g.node_by_name("t").unwrap();
        assert_eq!(
            Some(m.l(d.root)),
            fila_graph::paths::shortest_buffer_path(&g, s, t).unwrap()
        );
        assert_eq!(
            Some(m.h(d.root)),
            fila_graph::paths::longest_hop_path(&g, s, t).unwrap()
        );
    }
}
