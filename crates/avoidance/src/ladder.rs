//! SP-ladder decomposition (§V–VI of the paper).
//!
//! An **SP-ladder** is a two-terminal DAG consisting of an outer 2-path
//! cycle (a "left" and a "right" directed path from the source `X` to the
//! sink `Y`) decorated with chord graphs, at least one of which is a
//! **cross-link** connecting the two paths; chord graphs are SP-DAGs and may
//! not cross (Definition in §V).  Together with SP-DAGs, SP-ladders are
//! exactly the biconnected building blocks of CS4 graphs (Theorem V.7).
//!
//! The decomposition here operates on the *skeleton* left behind by the
//! tracked series/parallel reduction of `fila-spdag`: every SP portion of
//! the ladder (the rail segments `S_i`/`D_i`, the cross-links `K_i`, and any
//! non-cross-link chord graphs that do not span a fork vertex) has already
//! been contracted to a single virtual edge carrying its component tree.
//! What remains to be discovered is which skeleton vertices lie on the left
//! and right outer paths and which virtual edges are rails versus rungs.
//!
//! The paper (§VI.A step 1) identifies the outer cycle "using DFS in linear
//! time" without further detail; as discussed in `DESIGN.md`, we implement
//! the side assignment as a topological sweep with bounded backtracking on
//! the (rare) locally ambiguous vertices, and reject skeletons that are not
//! simple two-rail ladders (e.g. chord graphs that span fork vertices on one
//! side).  Rejected graphs fall back to the exhaustive general-DAG
//! algorithm, which is conservative but always available.

use fila_graph::{GraphError, NodeId, Result};
use fila_spdag::{CompId, VirtualEdge};

/// Which outer path of the ladder a vertex or rail belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The path labelled `u_0 .. u_{k+1}` in the paper's Fig. 6.
    Left,
    /// The path labelled `v_0 .. v_{k+1}`.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One contracted rail segment of the outer cycle (an `S_i` or `D_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rail {
    /// Upper endpoint (closer to the source).
    pub from: NodeId,
    /// Lower endpoint (closer to the sink).
    pub to: NodeId,
    /// Which outer path the segment belongs to.
    pub side: Side,
    /// The contracted SP component for the segment.
    pub comp: CompId,
}

/// One contracted cross-link (`K_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// The vertex the cross-link leaves (an internal source of the ladder).
    pub tail: NodeId,
    /// The vertex the cross-link enters.
    pub head: NodeId,
    /// The side `tail` lies on (`head` lies on the other side).
    pub tail_side: Side,
    /// The contracted SP component for the cross-link.
    pub comp: CompId,
}

/// A fully identified SP-ladder block.
#[derive(Debug, Clone)]
pub struct LadderDecomposition {
    /// The block's source `X`.
    pub source: NodeId,
    /// The block's sink `Y`.
    pub sink: NodeId,
    /// Vertices of the left outer path, in order, including `X` and `Y`.
    pub left: Vec<NodeId>,
    /// Vertices of the right outer path, in order, including `X` and `Y`.
    pub right: Vec<NodeId>,
    /// All rail segments (both sides), ordered top-down per side.
    pub rails: Vec<Rail>,
    /// All cross-links; the paper's `k` is their number.
    pub rungs: Vec<Rung>,
}

impl LadderDecomposition {
    /// The side an internal vertex lies on, or `None` for `X`, `Y`, and
    /// vertices not in this block.
    pub fn side_of(&self, v: NodeId) -> Option<Side> {
        if v == self.source || v == self.sink {
            return None;
        }
        if self.left.contains(&v) {
            Some(Side::Left)
        } else if self.right.contains(&v) {
            Some(Side::Right)
        } else {
            None
        }
    }
}

/// Maximum number of backtracking steps the side-assignment search may take
/// before the skeleton is declared unsupported.
const MAX_SEARCH_STEPS: usize = 200_000;

/// Attempts to decompose one biconnected skeleton block as an SP-ladder.
///
/// * `topo_pos[v]` must give the topological position of node `v` in the
///   original graph (any topological order works).
/// * `block` is the list of skeleton virtual edges of the block.
///
/// # Errors
///
/// Returns [`GraphError::Structure`] if the block is not a simple two-rail
/// ladder skeleton (see the module documentation for the supported shape).
pub fn decompose_ladder(topo_pos: &[usize], block: &[VirtualEdge]) -> Result<LadderDecomposition> {
    if block.len() < 3 {
        return Err(GraphError::Structure(
            "a ladder block needs at least three skeleton edges".into(),
        ));
    }
    // Block-local ids (a vertex's rank in `verts`), out-degrees and
    // in-neighbour lists in block order.
    let mut verts: Vec<NodeId> = block.iter().flat_map(|ve| [ve.src, ve.dst]).collect();
    verts.sort_unstable();
    verts.dedup();
    let id = |v: NodeId| local_id(&verts, v);
    let mut out_deg = vec![0usize; verts.len()];
    let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); verts.len()];
    for ve in block {
        out_deg[id(ve.src)] += 1;
        preds[id(ve.dst)].push(ve.src);
    }

    let sources: Vec<NodeId> = verts
        .iter()
        .copied()
        .filter(|&v| preds[id(v)].is_empty())
        .collect();
    let sinks: Vec<NodeId> = verts
        .iter()
        .copied()
        .filter(|&v| out_deg[id(v)] == 0)
        .collect();
    let [source] = sources.as_slice() else {
        return Err(GraphError::Structure(format!(
            "ladder block must have one source, found {}",
            sources.len()
        )));
    };
    let [sink] = sinks.as_slice() else {
        return Err(GraphError::Structure(format!(
            "ladder block must have one sink, found {}",
            sinks.len()
        )));
    };
    let (source, sink) = (*source, *sink);
    if out_deg[id(source)] != 2 {
        return Err(GraphError::Structure(
            "ladder source must have exactly two outgoing skeleton edges".into(),
        ));
    }
    if preds[id(sink)].len() != 2 {
        return Err(GraphError::Structure(
            "ladder sink must have exactly two incoming skeleton edges".into(),
        ));
    }

    // Internal vertices in topological order.
    let mut internal: Vec<NodeId> = verts
        .iter()
        .copied()
        .filter(|&v| v != source && v != sink)
        .collect();
    internal.sort_by_key(|v| topo_pos[v.index()]);
    if internal.is_empty() {
        return Err(GraphError::Structure(
            "ladder block has no internal vertices".into(),
        ));
    }

    let mut search = Search {
        verts: &verts,
        preds: &preds,
        source,
        sink,
        internal: &internal,
        steps: 0,
        sides: vec![None; verts.len()],
    };
    if !search.assign(0, source, source) {
        return Err(GraphError::Structure(
            "skeleton block is not a simple two-rail ladder (side assignment failed)".into(),
        ));
    }
    let sides = search.sides;

    // Build the ordered outer paths, and each vertex's position along each
    // (the source and the sink lie on both).
    let mut paths = [vec![source], vec![source]];
    let mut pos = [vec![None; verts.len()], vec![None; verts.len()]];
    for &v in &internal {
        let side = sides[id(v)].expect("every internal vertex has a side") as usize;
        pos[side][id(v)] = Some(paths[side].len());
        paths[side].push(v);
    }
    for (path, pos) in paths.iter_mut().zip(&mut pos) {
        pos[id(source)] = Some(0);
        pos[id(sink)] = Some(path.len());
        path.push(sink);
    }

    // Classify edges into rails and rungs, counting the rails of each
    // segment of each path.
    let mut covered = [0, 1].map(|side| vec![0usize; paths[side].len() - 1]);
    let mut rails = Vec::new();
    let mut rungs = Vec::new();
    for ve in block {
        let (s, t) = (id(ve.src), id(ve.dst));
        let rail = [Side::Left, Side::Right].into_iter().find_map(|side| {
            let p = &pos[side as usize];
            p[s].filter(|&i| p[t] == Some(i + 1)).map(|i| (side, i))
        });
        if let Some((side, segment)) = rail {
            covered[side as usize][segment] += 1;
            rails.push(Rail {
                from: ve.src,
                to: ve.dst,
                side,
                comp: ve.comp,
            });
        } else {
            // Must be a cross-link between internal vertices of opposite sides.
            let (Some(ts), Some(hs)) = (sides[s], sides[t]) else {
                return Err(GraphError::Structure(
                    "chord graph attached to the ladder source or sink is not supported".into(),
                ));
            };
            if ts == hs {
                return Err(GraphError::Structure(
                    "chord graph spanning fork vertices on one side is not supported".into(),
                ));
            }
            rungs.push(Rung {
                tail: ve.src,
                head: ve.dst,
                tail_side: ts,
                comp: ve.comp,
            });
        }
    }
    if rungs.is_empty() {
        return Err(GraphError::Structure(
            "ladder block has no cross-links; it should have reduced to an SP-DAG".into(),
        ));
    }

    // Verify the rails really form the two paths (every consecutive pair is
    // connected by exactly one rail).
    if covered.iter().flatten().any(|&count| count != 1) {
        return Err(GraphError::Structure(
            "outer path is not covered by exactly one rail per segment".into(),
        ));
    }

    // Non-crossing check (crossing chords imply a K4 subdivision, i.e. the
    // graph is not CS4; Lemma V.6): sorted by their left endpoints, no rung
    // may land on the right above a rung that leaves strictly higher left.
    let mut ends: Vec<(usize, usize)> = rungs
        .iter()
        .map(|r| {
            let (left, right) = match r.tail_side {
                Side::Left => (r.tail, r.head),
                Side::Right => (r.head, r.tail),
            };
            let ends = pos[0][id(left)].zip(pos[1][id(right)]);
            ends.expect("a rung joins internal vertices of opposite sides")
        })
        .collect();
    ends.sort_unstable();
    let mut higher = 0;
    for (i, &(l, r)) in ends.iter().enumerate() {
        if i > 0 && ends[i - 1].0 < l {
            higher = higher.max(ends[i - 1].1);
        }
        if r < higher {
            return Err(GraphError::Structure(
                "cross-links cross; the graph is not CS4".into(),
            ));
        }
    }

    let [left, right] = paths;
    Ok(LadderDecomposition {
        source,
        sink,
        left,
        right,
        rails,
        rungs,
    })
}

/// The block-local id of `v`: its rank among the block's sorted vertices.
fn local_id(verts: &[NodeId], v: NodeId) -> usize {
    verts
        .binary_search(&v)
        .expect("vertex belongs to the block")
}

struct Search<'a> {
    /// The block's vertices, sorted (see [`local_id`]).
    verts: &'a [NodeId],
    /// Per local id: the tails of the block edges entering it, in block order.
    preds: &'a [Vec<NodeId>],
    source: NodeId,
    sink: NodeId,
    internal: &'a [NodeId],
    steps: usize,
    /// Per local id: the side assigned so far.
    sides: Vec<Option<Side>>,
}

impl Search<'_> {
    /// Recursive side assignment over the topologically sorted internal
    /// vertices.  `left_bottom` / `right_bottom` are the current lowest
    /// vertices of each path (`source` until the path has left it).
    fn assign(&mut self, idx: usize, left_bottom: NodeId, right_bottom: NodeId) -> bool {
        self.steps += 1;
        if self.steps > MAX_SEARCH_STEPS {
            return false;
        }
        if idx == self.internal.len() {
            // Finalise: the sink must be fed by exactly the two bottoms.
            // Every internal vertex then feeds exactly one rail edge
            // downwards (the bottoms-chain construction implies it).
            let sink_preds = &self.preds[local_id(self.verts, self.sink)];
            return sink_preds.len() == 2
                && sink_preds.contains(&left_bottom)
                && sink_preds.contains(&right_bottom)
                && left_bottom != right_bottom;
        }
        let w = self.internal[idx];
        let w_l = local_id(self.verts, w);
        let wpreds = &self.preds[w_l];

        let mut candidates: Vec<Side> = Vec::new();
        if wpreds.contains(&left_bottom) {
            candidates.push(Side::Left);
        }
        if right_bottom != left_bottom && wpreds.contains(&right_bottom) {
            candidates.push(Side::Right);
        }
        // Symmetry breaking: while both bottoms are still the source the two
        // sides are interchangeable, so force the first vertex to the left.
        if left_bottom == self.source && right_bottom == self.source {
            candidates = if wpreds.contains(&self.source) {
                vec![Side::Left]
            } else {
                vec![]
            };
        }

        for side in candidates {
            if !self.rung_edges_valid(w, side, left_bottom, right_bottom) {
                continue;
            }
            self.sides[w_l] = Some(side);
            let (lb, rb) = match side {
                Side::Left => (w, right_bottom),
                Side::Right => (left_bottom, w),
            };
            if self.assign(idx + 1, lb, rb) {
                return true;
            }
            self.sides[w_l] = None;
        }
        false
    }

    /// Checks that every in-edge of `w` other than its rail-in is a valid
    /// rung: its tail is an already assigned vertex on the opposite side.
    fn rung_edges_valid(
        &self,
        w: NodeId,
        side: Side,
        left_bottom: NodeId,
        right_bottom: NodeId,
    ) -> bool {
        let rail_pred = match side {
            Side::Left => left_bottom,
            Side::Right => right_bottom,
        };
        for &t in &self.preds[local_id(self.verts, w)] {
            if t == rail_pred {
                continue;
            }
            if t == self.source {
                // A second edge from the source into an internal vertex is a
                // chord attached at X, which the simple-ladder shape
                // excludes.
                return false;
            }
            if self.sides[local_id(self.verts, t)] != Some(side.other()) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::{Graph, GraphBuilder};
    use fila_spdag::reduce;

    /// Reduces a graph and returns everything `decompose_ladder` needs,
    /// assuming the whole skeleton is a single block.
    fn skeleton_of(g: &Graph) -> (Vec<usize>, Vec<VirtualEdge>) {
        let order = fila_graph::topo::topological_order(g).unwrap();
        let pos = fila_graph::topo::topo_positions(g, &order);
        let r = reduce(g).unwrap();
        assert!(!r.is_sp(), "test graphs here must not be SP");
        (pos, r.skeleton)
    }

    #[test]
    fn simplest_crosslinked_split_join() {
        // Fig. 4 left.
        let mut b = GraphBuilder::new();
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y"), ("a", "b")] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        assert_eq!(lad.source, g.node_by_name("x").unwrap());
        assert_eq!(lad.sink, g.node_by_name("y").unwrap());
        assert_eq!(lad.rungs.len(), 1);
        assert_eq!(lad.rails.len(), 4);
        let a = g.node_by_name("a").unwrap();
        let bb = g.node_by_name("b").unwrap();
        // a and b are on opposite sides, and the rung goes a -> b.
        assert_ne!(lad.side_of(a), lad.side_of(bb));
        assert_eq!(lad.rungs[0].tail, a);
        assert_eq!(lad.rungs[0].head, bb);
    }

    #[test]
    fn multi_rung_ladder_with_sp_limbs() {
        // Left rail has a contracted two-hop segment; two rungs in the same
        // direction.
        let mut b = GraphBuilder::new();
        b.chain(&["x", "u1", "u2", "y"]).unwrap();
        b.chain(&["x", "v1", "v2", "y"]).unwrap();
        b.edge("u1", "v1").unwrap();
        b.edge("u2", "v2").unwrap();
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        assert_eq!(lad.rungs.len(), 2);
        assert_eq!(lad.left.len(), 4);
        assert_eq!(lad.right.len(), 4);
        // All rung tails are on one side (u side).
        let tails: Vec<_> = lad.rungs.iter().map(|r| r.tail_side).collect();
        assert!(tails.iter().all(|&s| s == tails[0]));
    }

    #[test]
    fn opposite_direction_rungs_are_supported() {
        let mut b = GraphBuilder::new();
        b.chain(&["x", "u1", "u2", "y"]).unwrap();
        b.chain(&["x", "v1", "v2", "y"]).unwrap();
        b.edge("u1", "v1").unwrap();
        b.edge("v2", "u2").unwrap();
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        assert_eq!(lad.rungs.len(), 2);
        let sides: Vec<_> = lad.rungs.iter().map(|r| r.tail_side).collect();
        assert_ne!(sides[0], sides[1]);
    }

    #[test]
    fn crossing_rungs_are_rejected() {
        let mut b = GraphBuilder::new();
        b.chain(&["x", "u1", "u2", "y"]).unwrap();
        b.chain(&["x", "v1", "v2", "y"]).unwrap();
        b.edge("u1", "v2").unwrap();
        b.edge("u2", "v1").unwrap();
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let err = decompose_ladder(&pos, &skel).unwrap_err();
        assert_eq!(
            err.to_string(),
            "structural requirement violated: cross-links cross; the graph is not CS4"
        );
    }

    #[test]
    fn butterfly_is_rejected() {
        let mut b = GraphBuilder::new();
        for (s, t) in [
            ("x", "a"),
            ("x", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "y"),
            ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let err = decompose_ladder(&pos, &skel).unwrap_err();
        assert_eq!(
            err.to_string(),
            "structural requirement violated: cross-links cross; the graph is not CS4"
        );
    }

    #[test]
    fn shared_rung_endpoints_are_supported() {
        // One vertex is the tail of two rungs (the paper's u_i = u_{i+1}
        // case from Fig. 6).
        let mut b = GraphBuilder::new();
        b.chain(&["x", "u1", "y"]).unwrap();
        b.chain(&["x", "v1", "v2", "v3", "y"]).unwrap();
        b.edge("u1", "v1").unwrap();
        b.edge("u1", "v2").unwrap();
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        assert_eq!(lad.rungs.len(), 2);
        let u1 = g.node_by_name("u1").unwrap();
        assert!(lad.rungs.iter().all(|r| r.tail == u1));
    }

    #[test]
    fn side_queries() {
        let mut b = GraphBuilder::new();
        for (s, t) in [("x", "a"), ("x", "b"), ("a", "y"), ("b", "y"), ("a", "b")] {
            b.edge(s, t).unwrap();
        }
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        assert_eq!(lad.side_of(lad.source), None);
        assert_eq!(lad.side_of(lad.sink), None);
        assert_eq!(lad.rails.len() + lad.rungs.len(), 5);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(lad.left[1], a);
        assert_eq!(lad.side_of(a), Some(Side::Left));
    }
}
