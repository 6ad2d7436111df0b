//! Arena-based series-parallel component trees.
//!
//! The paper's algorithms are stated as traversals of the tree `T` produced
//! by decomposing an SP-DAG according to its recursive construction: leaves
//! are single edges, internal nodes are labelled `Sc` (series) or `Pc`
//! (parallel).  We store such trees in an arena ([`SpForest`]) so that a
//! single reduction pass over a non-SP graph can produce many independent
//! trees (one per surviving skeleton edge) without allocation churn, and so
//! that components can be addressed by small copyable ids ([`CompId`]).
//!
//! Compositions are **n-ary**: `Series([a, b, c])` means `Sc(Sc(a, b), c)`
//! and `Parallel([a, b, c])` means `Pc(Pc(a, b), c)`.  The interval
//! algorithms only ever need "this child" versus "the other children
//! combined", so n-ary nodes lose no information while keeping trees
//! shallow.

use fila_graph::{EdgeId, Graph, NodeId};

/// Identifier of a component inside an [`SpForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// The dense index of this component.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a component: a single graph edge, or a series / parallel
/// composition of child components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpKind {
    /// A single original graph edge.
    Leaf(EdgeId),
    /// Serial composition of the children, in pipeline order: the sink of
    /// `children[i]` is the source of `children[i + 1]`.
    Series(Vec<CompId>),
    /// Parallel composition of the children: all children share this
    /// component's source and sink.
    Parallel(Vec<CompId>),
}

/// A component of an SP decomposition: its kind plus its two terminals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpComponent {
    /// What the component is made of.
    pub kind: SpKind,
    /// The component's source terminal in the original graph.
    pub source: NodeId,
    /// The component's sink terminal in the original graph.
    pub sink: NodeId,
}

/// An arena of SP components; may hold several disjoint trees.
#[derive(Debug, Clone, Default)]
pub struct SpForest {
    comps: Vec<SpComponent>,
}

impl SpForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        SpForest::default()
    }

    /// Number of components in the arena.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True if the arena holds no components.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Adds a leaf component for a single graph edge.
    pub fn add_leaf(&mut self, g: &Graph, edge: EdgeId) -> CompId {
        let (src, sink) = g.endpoints(edge);
        self.push(SpComponent {
            kind: SpKind::Leaf(edge),
            source: src,
            sink,
        })
    }

    /// Adds a series composition of `children` (already in pipeline order).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if consecutive children do not share a
    /// terminal, since that indicates a broken construction.
    pub fn add_series(&mut self, children: Vec<CompId>) -> CompId {
        debug_assert!(children.len() >= 2, "series composition needs >= 2 children");
        for pair in children.windows(2) {
            debug_assert_eq!(
                self.sink(pair[0]),
                self.source(pair[1]),
                "series children must chain sink-to-source"
            );
        }
        let source = self.source(children[0]);
        let sink = self.sink(*children.last().expect("non-empty"));
        self.push(SpComponent {
            kind: SpKind::Series(children),
            source,
            sink,
        })
    }

    /// Adds a parallel composition of `children` (all sharing terminals).
    pub fn add_parallel(&mut self, children: Vec<CompId>) -> CompId {
        debug_assert!(children.len() >= 2, "parallel composition needs >= 2 children");
        let source = self.source(children[0]);
        let sink = self.sink(children[0]);
        for &c in &children {
            debug_assert_eq!(self.source(c), source, "parallel children share a source");
            debug_assert_eq!(self.sink(c), sink, "parallel children share a sink");
        }
        self.push(SpComponent {
            kind: SpKind::Parallel(children),
            source,
            sink,
        })
    }

    /// Adds a series composition whose children the tracked reduction is
    /// still collecting, to be supplied through [`SpForest::kind_mut`].
    pub(crate) fn add_open_series(&mut self, source: NodeId, sink: NodeId) -> CompId {
        self.push(SpComponent {
            kind: SpKind::Series(Vec::new()),
            source,
            sink,
        })
    }

    /// The tracked reduction's access to a child list: it moves one out of
    /// a component it absorbs and hands an open series its own.
    pub(crate) fn kind_mut(&mut self, id: CompId) -> &mut SpKind {
        &mut self.comps[id.index()].kind
    }

    fn push(&mut self, c: SpComponent) -> CompId {
        let id = CompId(self.comps.len() as u32);
        self.comps.push(c);
        id
    }

    /// Returns the component for `id`.
    #[inline]
    pub fn component(&self, id: CompId) -> &SpComponent {
        &self.comps[id.index()]
    }

    /// Source terminal of a component.
    #[inline]
    pub fn source(&self, id: CompId) -> NodeId {
        self.comps[id.index()].source
    }

    /// Sink terminal of a component.
    #[inline]
    pub fn sink(&self, id: CompId) -> NodeId {
        self.comps[id.index()].sink
    }

    /// The children of a component (empty for leaves).
    pub fn children(&self, id: CompId) -> &[CompId] {
        match &self.comps[id.index()].kind {
            SpKind::Leaf(_) => &[],
            SpKind::Series(c) | SpKind::Parallel(c) => c,
        }
    }

    /// Iterates the component ids of the subtree rooted at `root` in
    /// post-order (children before parents).
    pub fn post_order(&self, root: CompId) -> Vec<CompId> {
        let mut out = Vec::new();
        // Explicit stack with a visited marker to avoid recursion depth
        // limits on deep pipelines.
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                out.push(id);
            } else {
                stack.push((id, true));
                for &c in self.children(id).iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// All original graph edges contained in the subtree rooted at `root`.
    pub fn edges_in(&self, root: CompId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        for id in self.post_order(root) {
            if let SpKind::Leaf(e) = self.comps[id.index()].kind {
                out.push(e);
            }
        }
        out
    }

    /// Number of original graph edges in the subtree rooted at `root`.
    pub fn edge_count_in(&self, root: CompId) -> usize {
        self.post_order(root)
            .into_iter()
            .filter(|id| matches!(self.comps[id.index()].kind, SpKind::Leaf(_)))
            .count()
    }

    /// Depth of the subtree rooted at `root` (a leaf has depth 1).
    pub fn depth(&self, root: CompId) -> usize {
        // Post-order guarantees children are computed before parents.
        let order = self.post_order(root);
        let max_id = order.iter().map(|c| c.index()).max().unwrap_or(0);
        let mut depth = vec![0usize; max_id + 1];
        for id in order {
            let d = self
                .children(id)
                .iter()
                .map(|c| depth[c.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[id.index()] = d;
        }
        depth[root.index()]
    }
}

/// A complete SP decomposition of a two-terminal graph: the forest arena and
/// the root component covering the whole graph.
#[derive(Debug, Clone)]
pub struct SpDecomposition {
    /// The arena holding every component of the tree.
    pub forest: SpForest,
    /// The root component: its source/sink are the graph's terminals and its
    /// leaves are exactly the graph's edges.
    pub root: CompId,
}

impl SpDecomposition {
    /// Source terminal of the decomposed graph.
    pub fn source(&self) -> NodeId {
        self.forest.source(self.root)
    }

    /// Sink terminal of the decomposed graph.
    pub fn sink(&self) -> NodeId {
        self.forest.sink(self.root)
    }

    /// All graph edges covered by the decomposition.
    pub fn edges(&self) -> Vec<EdgeId> {
        self.forest.edges_in(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;

    /// Builds the Fig. 3 cycle and a hand-made decomposition for it:
    /// Parallel( Series(ab, be, ef), Series(ac, cd, df) ).
    fn fig3_decomposition() -> (Graph, SpDecomposition) {
        let mut b = GraphBuilder::new();
        let ab = b.edge_with_capacity("a", "b", 2).unwrap();
        let be = b.edge_with_capacity("b", "e", 5).unwrap();
        let ef = b.edge_with_capacity("e", "f", 1).unwrap();
        let ac = b.edge_with_capacity("a", "c", 3).unwrap();
        let cd = b.edge_with_capacity("c", "d", 1).unwrap();
        let df = b.edge_with_capacity("d", "f", 2).unwrap();
        let g = b.build().unwrap();
        let mut f = SpForest::new();
        let l_ab = f.add_leaf(&g, ab);
        let l_be = f.add_leaf(&g, be);
        let l_ef = f.add_leaf(&g, ef);
        let l_ac = f.add_leaf(&g, ac);
        let l_cd = f.add_leaf(&g, cd);
        let l_df = f.add_leaf(&g, df);
        let top = f.add_series(vec![l_ab, l_be, l_ef]);
        let bottom = f.add_series(vec![l_ac, l_cd, l_df]);
        let root = f.add_parallel(vec![top, bottom]);
        (g, SpDecomposition { forest: f, root })
    }

    #[test]
    fn terminals_propagate_through_compositions() {
        let (g, d) = fig3_decomposition();
        assert_eq!(d.source(), g.node_by_name("a").unwrap());
        assert_eq!(d.sink(), g.node_by_name("f").unwrap());
    }

    #[test]
    fn post_order_visits_children_first() {
        let (_, d) = fig3_decomposition();
        let order = d.forest.post_order(d.root);
        assert_eq!(order.len(), d.forest.len());
        assert_eq!(*order.last().unwrap(), d.root);
        let pos = |c: CompId| order.iter().position(|&x| x == c).unwrap();
        for id in &order {
            for &child in d.forest.children(*id) {
                assert!(pos(child) < pos(*id));
            }
        }
    }

    #[test]
    fn edges_in_covers_all_edges_once() {
        let (g, d) = fig3_decomposition();
        let mut edges = d.edges();
        edges.sort();
        let mut all: Vec<_> = g.edge_ids().collect();
        all.sort();
        assert_eq!(edges, all);
        assert_eq!(d.forest.edge_count_in(d.root), 6);
    }

    #[test]
    fn depth_of_fig3_tree() {
        let (_, d) = fig3_decomposition();
        // parallel -> series -> leaf
        assert_eq!(d.forest.depth(d.root), 3);
    }

    #[test]
    fn children_of_leaf_is_empty() {
        let (g, _) = fig3_decomposition();
        let mut f = SpForest::new();
        let leaf = f.add_leaf(&g, g.edge_ids().next().unwrap());
        assert!(f.children(leaf).is_empty());
        assert_eq!(f.edges_in(leaf).len(), 1);
        assert_eq!(f.depth(leaf), 1);
    }
}
