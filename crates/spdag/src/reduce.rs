//! Tracked series/parallel reduction of two-terminal DAGs.
//!
//! The classical recognition algorithm for two-terminal series-parallel
//! multigraphs (Valdes, Tarjan and Lawler, cited as \[16\] by the paper)
//! repeatedly applies two local rewrites:
//!
//! * **parallel reduction** — two edges with the same tail and head are
//!   replaced by one;
//! * **series reduction** — an internal vertex with exactly one incoming and
//!   one outgoing edge is suppressed, its two edges merged into one.
//!
//! The graph is SP iff the rewrites reduce it to a single edge between its
//! two terminals.  We *track* the rewrites: every surviving "virtual edge"
//! carries the [`CompId`] of the SP component tree built from the original
//! edges it absorbed, so a successful reduction directly yields the
//! decomposition tree `T` that the paper's interval algorithms traverse, and
//! an unsuccessful one yields the reduced **skeleton** (virtual edges plus
//! their component trees) that the SP-ladder analysis of §VI starts from.
//!
//! A reduction *moves* the child list of a component it absorbs and
//! flattens into the component it creates (the absorbed one is dead: no
//! surviving virtual edge, and so no tree, can reach it); a series
//! reduction grows the shorter list onto the longer, at either end.  The
//! returned arena therefore holds one component per original edge plus one
//! per reduction — `forest.len() < 2 × edges` — and fewer children than
//! that in all; a dead composition stays in the arena with an empty list.

use std::collections::{HashMap, VecDeque};

use fila_graph::{Graph, GraphError, NodeId, Result};

use crate::forest::{CompId, SpDecomposition, SpForest, SpKind};

/// An edge of the reduced graph: a contracted SP subgraph of the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualEdge {
    /// Source terminal of the contracted subgraph.
    pub src: NodeId,
    /// Sink terminal of the contracted subgraph.
    pub dst: NodeId,
    /// The component tree describing the contracted subgraph.
    pub comp: CompId,
}

/// Result of running the tracked reduction to a fixed point.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Arena holding every component tree built during the reduction.
    pub forest: SpForest,
    /// The virtual edges that survived (the *skeleton*).  For an SP-DAG this
    /// is a single edge from `source` to `sink`.
    pub skeleton: Vec<VirtualEdge>,
    /// The unique source of the input graph.
    pub source: NodeId,
    /// The unique sink of the input graph.
    pub sink: NodeId,
}

impl Reduction {
    /// True if the input graph was series-parallel.
    pub fn is_sp(&self) -> bool {
        matches!(self.skeleton.as_slice(),
            [only] if only.src == self.source && only.dst == self.sink)
    }

    /// Converts a successful reduction into an [`SpDecomposition`]; returns
    /// `None` if the graph was not SP.
    pub fn into_decomposition(self) -> Option<SpDecomposition> {
        if !self.is_sp() {
            return None;
        }
        let root = self.skeleton[0].comp;
        Some(SpDecomposition {
            forest: self.forest,
            root,
        })
    }
}

struct Work {
    forest: SpForest,
    /// `edges[i]` is `None` once the virtual edge has been merged away.
    edges: Vec<Option<VirtualEdge>>,
    /// Per node, indices into `edges`; entries merged away since the last
    /// [`Work::live`] scan of the list are still in it.
    out: Vec<Vec<usize>>,
    inn: Vec<Vec<usize>>,
    /// Child lists of the series components no series reduction has
    /// absorbed, handed to the forest when the reduction ends.
    chains: HashMap<CompId, VecDeque<CompId>>,
}

impl Work {
    /// Drops the dead entries of one per-node list where it stands, so
    /// each is scanned once however often its node is revisited.
    fn live<'a>(list: &'a mut Vec<usize>, edges: &[Option<VirtualEdge>]) -> &'a [usize] {
        list.retain(|&i| edges[i].is_some());
        list
    }

    fn add_virtual(&mut self, ve: VirtualEdge) -> usize {
        let idx = self.edges.len();
        self.out[ve.src.index()].push(idx);
        self.inn[ve.dst.index()].push(idx);
        self.edges.push(Some(ve));
        idx
    }

    /// Creates a parallel composition, flattening nested parallel children
    /// (a parallel operand gives up its list).
    fn make_parallel(&mut self, children: Vec<CompId>) -> CompId {
        let mut flat = Vec::new();
        for c in children {
            match self.forest.kind_mut(c) {
                SpKind::Parallel(grand) if flat.is_empty() => flat = std::mem::take(grand),
                SpKind::Parallel(grand) => flat.append(grand),
                _ => flat.push(c),
            }
        }
        self.forest.add_parallel(flat)
    }

    /// Creates a series composition, flattening nested series children:
    /// a series operand gives up its list, and the shorter list joins the
    /// longer.
    fn make_series(&mut self, first: CompId, second: CompId) -> CompId {
        let mut chain_of = |c| self.chains.remove(&c).unwrap_or_else(|| VecDeque::from([c]));
        let (mut head, mut tail) = (chain_of(first), chain_of(second));
        if head.len() >= tail.len() {
            head.extend(tail);
        } else {
            head.into_iter().rev().for_each(|c| tail.push_front(c));
            head = tail;
        }
        let (source, sink) = (self.forest.source(first), self.forest.sink(second));
        let comp = self.forest.add_open_series(source, sink);
        self.chains.insert(comp, head);
        comp
    }
}

/// Runs the tracked reduction on a two-terminal DAG.
///
/// # Errors
///
/// Fails if the graph is not a valid two-terminal DAG (empty, cyclic,
/// disconnected, or without unique source/sink), or if it has no edges.
pub fn reduce(g: &Graph) -> Result<Reduction> {
    let (source, sink) = g.validate_two_terminal()?;
    if g.edge_count() == 0 {
        return Err(GraphError::Structure(
            "series-parallel analysis requires at least one edge".into(),
        ));
    }

    let n = g.node_count();
    let mut work = Work {
        forest: SpForest::new(),
        edges: Vec::with_capacity(g.edge_count()),
        out: vec![Vec::new(); n],
        inn: vec![Vec::new(); n],
        chains: HashMap::new(),
    };
    for e in g.edge_ids() {
        let (src, dst) = g.endpoints(e);
        let comp = work.forest.add_leaf(g, e);
        work.add_virtual(VirtualEdge { src, dst, comp });
    }

    let mut queue: Vec<NodeId> = g.node_ids().collect();
    let mut queued = vec![true; n];
    while let Some(v) = queue.pop() {
        queued[v.index()] = false;

        // Parallel reductions at v: merge bundles of live out-edges of v
        // that share a head.
        let mut changed = true;
        while changed {
            changed = false;
            let live = Work::live(&mut work.out[v.index()], &work.edges);
            'outer: for (i, &a) in live.iter().enumerate() {
                let dst = work.edges[a].expect("live").dst;
                let mut bundle = vec![a];
                for &b in live.iter().skip(i + 1) {
                    if work.edges[b].expect("live").dst == dst {
                        bundle.push(b);
                    }
                }
                if bundle.len() >= 2 {
                    let comps: Vec<CompId> = bundle
                        .iter()
                        .map(|&idx| work.edges[idx].expect("live").comp)
                        .collect();
                    for &idx in &bundle {
                        work.edges[idx] = None;
                    }
                    let comp = work.make_parallel(comps);
                    work.add_virtual(VirtualEdge { src: v, dst, comp });
                    if !queued[dst.index()] {
                        queued[dst.index()] = true;
                        queue.push(dst);
                    }
                    changed = true;
                    break 'outer;
                }
            }
        }

        // Series reduction at v (only for internal vertices).
        if v != source && v != sink {
            let live_in = Work::live(&mut work.inn[v.index()], &work.edges);
            let live_out = Work::live(&mut work.out[v.index()], &work.edges);
            if let (&[a], &[b]) = (live_in, live_out) {
                let ea = work.edges[a].expect("live");
                let eb = work.edges[b].expect("live");
                debug_assert_eq!(ea.dst, v);
                debug_assert_eq!(eb.src, v);
                work.edges[a] = None;
                work.edges[b] = None;
                let comp = work.make_series(ea.comp, eb.comp);
                work.add_virtual(VirtualEdge {
                    src: ea.src,
                    dst: eb.dst,
                    comp,
                });
                for w in [ea.src, eb.dst] {
                    if !queued[w.index()] {
                        queued[w.index()] = true;
                        queue.push(w);
                    }
                }
            }
        }
    }

    for (comp, chain) in work.chains {
        *work.forest.kind_mut(comp) = SpKind::Series(chain.into());
    }
    let skeleton: Vec<VirtualEdge> = work.edges.iter().flatten().copied().collect();
    Ok(Reduction {
        forest: work.forest,
        skeleton,
        source,
        sink,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{build_sp, SpSpec};
    use crate::validate::validate_decomposition;
    use fila_graph::GraphBuilder;

    fn names(g: &Graph, v: NodeId) -> String {
        g.node(v).name.clone()
    }

    #[test]
    fn pipeline_reduces_to_single_edge() {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "c", "d", "e"]).unwrap();
        let g = b.build().unwrap();
        let r = reduce(&g).unwrap();
        assert!(r.is_sp());
        let d = r.into_decomposition().unwrap();
        assert_eq!(d.edges().len(), 4);
        assert!(matches!(
            d.forest.component(d.root).kind,
            SpKind::Series(ref c) if c.len() == 4
        ));
    }

    #[test]
    fn multi_edge_is_sp() {
        let mut b = GraphBuilder::new();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        b.edge("a", "b").unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        assert!(matches!(
            d.forest.component(d.root).kind,
            SpKind::Parallel(ref c) if c.len() == 3
        ));
    }

    #[test]
    fn fig3_cycle_is_sp_with_two_branches() {
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "e", "f"]).unwrap();
        b.chain(&["a", "c", "d", "f"]).unwrap();
        let g = b.build().unwrap();
        let r = reduce(&g).unwrap();
        assert!(r.is_sp());
        let d = r.into_decomposition().unwrap();
        assert_eq!(names(&g, d.source()), "a");
        assert_eq!(names(&g, d.sink()), "f");
        // Root is a parallel of two 3-edge series chains.
        match &d.forest.component(d.root).kind {
            SpKind::Parallel(children) => {
                assert_eq!(children.len(), 2);
                for &c in children {
                    assert!(matches!(
                        d.forest.component(c).kind,
                        SpKind::Series(ref s) if s.len() == 3
                    ));
                }
            }
            other => panic!("expected parallel root, got {other:?}"),
        }
    }

    #[test]
    fn nested_split_join_is_sp() {
        // a -> {b -> {c,d} -> e, f} -> g : a diamond nested inside a split.
        let mut b = GraphBuilder::new();
        b.chain(&["a", "b", "c", "e", "g"]).unwrap();
        b.edge("b", "d").unwrap();
        b.edge("d", "e").unwrap();
        b.edge("a", "f").unwrap();
        b.edge("f", "g").unwrap();
        let g = b.build().unwrap();
        let r = reduce(&g).unwrap();
        assert!(r.is_sp());
        assert_eq!(r.into_decomposition().unwrap().edges().len(), 8);
    }

    #[test]
    fn crosslinked_split_join_is_not_sp() {
        // Fig. 4 left: the simplest non-SP two-terminal DAG.
        let mut b = GraphBuilder::new();
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y"), ("a", "b")] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let r = reduce(&g).unwrap();
        assert!(!r.is_sp());
        // The irreducible skeleton keeps all five edges (nothing can merge).
        assert_eq!(r.skeleton.len(), 5);
        assert!(r.clone().into_decomposition().is_none());
    }

    #[test]
    fn ladder_skeleton_contracts_sp_limbs() {
        // A ladder whose side rails are two-hop chains: the reduction must
        // contract each rail segment into one virtual edge but cannot finish.
        let mut b = GraphBuilder::new();
        // left rail with intermediate nodes, right rail direct.
        b.chain(&["x", "l1", "u", "l2", "y"]).unwrap();
        b.chain(&["x", "v", "y"]).unwrap();
        b.edge("u", "v").unwrap();
        let g = b.build().unwrap();
        let r = reduce(&g).unwrap();
        assert!(!r.is_sp());
        // Skeleton: x->u, u->y, x->v, v->y, u->v  (five virtual edges).
        assert_eq!(r.skeleton.len(), 5);
        let u = g.node_by_name("u").unwrap();
        let x = g.node_by_name("x").unwrap();
        let xu = r
            .skeleton
            .iter()
            .find(|ve| ve.src == x && ve.dst == u)
            .expect("contracted rail x->u exists");
        // That virtual edge absorbed the two original edges x->l1->u.
        assert_eq!(r.forest.edges_in(xu.comp).len(), 2);
    }

    #[test]
    fn butterfly_is_not_sp() {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        assert!(!reduce(&g).unwrap().is_sp());
    }

    #[test]
    fn rejects_graphs_without_two_terminals() {
        let mut b = GraphBuilder::new();
        b.edge("a", "c").unwrap();
        b.edge("b", "c").unwrap();
        let g = b.build().unwrap();
        assert!(reduce(&g).is_err());
    }

    #[test]
    fn rejects_single_node_graph() {
        let mut g = Graph::new();
        g.add_node("only");
        assert!(reduce(&g).is_err());
    }

    #[test]
    fn decomposition_covers_each_edge_exactly_once() {
        let mut b = GraphBuilder::new();
        b.chain(&["s", "p", "t"]).unwrap();
        b.edge("s", "t").unwrap();
        b.edge("s", "q").unwrap();
        b.edge("q", "t").unwrap();
        let g = b.build().unwrap();
        let d = reduce(&g).unwrap().into_decomposition().unwrap();
        let mut edges = d.edges();
        edges.sort();
        edges.dedup();
        assert_eq!(edges.len(), g.edge_count());
    }

    /// A small deterministic corpus of nested specifications.
    fn spec(state: &mut u64, depth: u32) -> SpSpec {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let (pick, arity) = ((*state >> 33) % 4, 2 + (*state >> 40) as usize % 3);
        match pick {
            _ if depth == 0 => SpSpec::Edge(1 + (*state >> 50) % 5),
            0 => SpSpec::MultiEdge(vec![1; arity]),
            1 => SpSpec::Parallel((0..arity).map(|_| spec(state, depth - 1)).collect()),
            _ => SpSpec::Series((0..arity + 2).map(|_| spec(state, depth - 1)).collect()),
        }
    }

    /// The reduction's whole arena — dead components included — is linear
    /// in the graph: a count, so a return of the per-reduction copy fails
    /// here without a stopwatch.
    fn assert_linear_arena(g: &Graph, what: &str) -> Reduction {
        let r = reduce(g).unwrap();
        let stored: usize = (0..r.forest.len())
            .map(|i| r.forest.children(CompId(i as u32)).len())
            .sum();
        assert!(r.forest.len() <= 2 * g.edge_count(), "{what}: {} components", r.forest.len());
        assert!(stored <= 2 * g.edge_count(), "{what}: {stored} children stored");
        r
    }

    #[test]
    fn the_arena_is_linear_in_the_edges() {
        for n in [2usize, 3, 4, 5, 9, 64, 1_000, 4_096] {
            for against_the_flow in [false, true] {
                let mut g = Graph::new();
                let mut ids: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
                if against_the_flow {
                    ids.reverse();
                }
                for w in ids.windows(2) {
                    g.add_edge(w[0], w[1], 2).unwrap();
                }
                let what = format!("pipeline {n} (reversed: {against_the_flow})");
                let d = assert_linear_arena(&g, &what).into_decomposition().expect(&what);
                validate_decomposition(&g, &d).expect(&what);
                // One flat series over the edges, in pipeline order.
                let order: Vec<NodeId> = d.edges().iter().map(|&e| g.tail(e)).collect();
                assert_eq!(order, ids[..n - 1], "{what}");
                assert!(n == 2 || d.forest.children(d.root).len() == n - 1, "{what}");
            }
        }
        // Parallel two-hop chains with the terminals declared last, so
        // each chain's series reduction is followed by a parallel one.
        let mut g = Graph::new();
        let mids: Vec<NodeId> = (0..300).map(|i| g.add_node(format!("m{i}"))).collect();
        let (s, t) = (g.add_node("s"), g.add_node("t"));
        for m in mids {
            g.add_edge(s, m, 1).unwrap();
            g.add_edge(m, t, 1).unwrap();
        }
        let d = assert_linear_arena(&g, "parallel chains").into_decomposition().unwrap();
        validate_decomposition(&g, &d).unwrap();
        assert_eq!(d.forest.children(d.root).len(), 300);
        let mut state = 0xF11A;
        for case in 0..200 {
            let (g, _) = build_sp(&spec(&mut state, 1 + case % 4));
            let what = format!("spec {case}");
            let d = assert_linear_arena(&g, &what).into_decomposition().expect(&what);
            validate_decomposition(&g, &d).expect(&what);
        }
    }
}
