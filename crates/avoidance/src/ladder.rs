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
//! time" without further detail.  We assign the sides in one walk over the
//! internal vertices in topological order, in which each vertex continues
//! the one rail the block's shape allows (`DESIGN.md`, "Ladder outer-cycle
//! identification"), and reject skeletons that are not simple two-rail
//! ladders (e.g. chord graphs that span fork vertices on one side).
//! Rejected graphs fall back to the exhaustive general-DAG algorithm, which
//! is conservative but always available.  The decomposition also keeps the
//! block's vertices in topological order with the constituents leaving each,
//! which is all the ladder planners read.

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
    /// The block's vertices in topological order; a vertex's index here is
    /// its local id (`X` is 0, `Y` the last).
    pub(crate) vertices: Vec<BlockVertex>,
    /// `(vertex, local id)` for every vertex of the block, sorted.
    by_node: Vec<(NodeId, usize)>,
}

/// One vertex of a ladder block as the ladder planners read it.
#[derive(Debug, Clone)]
pub(crate) struct BlockVertex {
    /// The vertex.
    pub(crate) node: NodeId,
    /// The side it lies on; `None` for `X` and `Y`.
    pub(crate) side: Option<Side>,
    /// The constituents leaving it, as `(head's local id, component)`: its
    /// rails first (two at `X`, one at an internal vertex, none at `Y`),
    /// then its rungs in [`LadderDecomposition::rungs`] order.
    pub(crate) out: Vec<(usize, CompId)>,
    /// The number of rungs arriving at it.
    pub(crate) rung_heads: usize,
}

impl BlockVertex {
    /// How many entries of `out` are rails: no rung touches `X` or `Y`.
    fn rail_count(&self) -> usize {
        if self.side.is_some() {
            1
        } else {
            self.out.len()
        }
    }

    /// The rails leaving the vertex.
    pub(crate) fn rails(&self) -> &[(usize, CompId)] {
        &self.out[..self.rail_count()]
    }

    /// The rungs leaving the vertex.
    pub(crate) fn rungs(&self) -> &[(usize, CompId)] {
        &self.out[self.rail_count()..]
    }
}

impl LadderDecomposition {
    /// The side an internal vertex lies on, or `None` for `X`, `Y`, and
    /// vertices not in this block.
    pub fn side_of(&self, v: NodeId) -> Option<Side> {
        self.vertices[local_id(&self.by_node, v)?].side
    }

    /// The local ids of the block's forks — `X` and every rung tail — in
    /// topological order.
    pub(crate) fn forks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.vertices.len()).filter(|&v| v == 0 || !self.vertices[v].rungs().is_empty())
    }
}

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
    // Block-local ids are ranks in topological order, so a unique source is
    // 0 and a unique sink the last (every other vertex lies below the one and
    // above the other).  Edge endpoints, out-degrees and in-neighbour lists
    // (in block order) are kept by local id.
    let mut order: Vec<NodeId> = block.iter().flat_map(|ve| [ve.src, ve.dst]).collect();
    order.sort_unstable_by_key(|v| topo_pos[v.index()]);
    order.dedup();
    let n = order.len();
    let mut by_node: Vec<(NodeId, usize)> =
        order.iter().enumerate().map(|(l, &v)| (v, l)).collect();
    by_node.sort_unstable();
    let id = |v: NodeId| local_id(&by_node, v).expect("vertex belongs to the block");
    let ends: Vec<(usize, usize)> = block.iter().map(|ve| (id(ve.src), id(ve.dst))).collect();
    let mut out_deg = vec![0usize; n];
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, t) in &ends {
        out_deg[s] += 1;
        preds[t].push(s);
    }

    let sources = preds.iter().filter(|p| p.is_empty()).count();
    if sources != 1 {
        return Err(GraphError::Structure(format!(
            "ladder block must have one source, found {sources}"
        )));
    }
    let sinks = out_deg.iter().filter(|&&d| d == 0).count();
    if sinks != 1 {
        return Err(GraphError::Structure(format!(
            "ladder block must have one sink, found {sinks}"
        )));
    }
    let (source, sink) = (0, n - 1);
    debug_assert!(preds[source].is_empty() && out_deg[sink] == 0);
    if out_deg[source] != 2 {
        return Err(GraphError::Structure(
            "ladder source must have exactly two outgoing skeleton edges".into(),
        ));
    }
    if preds[sink].len() != 2 {
        return Err(GraphError::Structure(
            "ladder sink must have exactly two incoming skeleton edges".into(),
        ));
    }

    // Side assignment: each internal vertex, in topological order, continues
    // the rail of a bottom (the lowest vertex of a side so far) that feeds
    // it.  When both do, it continues the one whose only unplaced successor
    // it is: the other bottom's edge into it is a rung, and an unplaced
    // successor of the continued bottom would be a rung crossing that one.
    // The first vertex goes left, and so does one whose bottoms both or
    // neither qualify, which only a block that is no ladder has.
    let assignment_failed = || {
        GraphError::Structure(
            "skeleton block is not a simple two-rail ladder (side assignment failed)".into(),
        )
    };
    let mut unplaced = out_deg;
    let mut sides: Vec<Option<Side>> = vec![None; n];
    let mut bottoms = [source, source];
    for w in 1..sink {
        let feeds = |b: usize| preds[w].contains(&b);
        let [left, right] = bottoms;
        let side = match (feeds(left), feeds(right)) {
            (true, true) if left != right && unplaced[left] != 1 && unplaced[right] == 1 => {
                Side::Right
            }
            (true, _) => Side::Left,
            (false, true) => Side::Right,
            (false, false) => return Err(assignment_failed()),
        };
        // Every other in-edge is a rung from the opposite side.
        let rail_pred = bottoms[side as usize];
        if !preds[w]
            .iter()
            .all(|&t| t == rail_pred || sides[t] == Some(side.other()))
        {
            return Err(assignment_failed());
        }
        sides[w] = Some(side);
        bottoms[side as usize] = w;
        for &t in &preds[w] {
            unplaced[t] -= 1;
        }
    }
    // The sink must be fed by exactly the two bottoms.
    let [left, right] = bottoms;
    if left == right || !preds[sink].contains(&left) || !preds[sink].contains(&right) {
        return Err(assignment_failed());
    }

    // Build the ordered outer paths, and each vertex's position along each
    // (the source and the sink lie on both).
    let mut paths = [vec![order[source]], vec![order[source]]];
    let mut pos = [vec![None; n], vec![None; n]];
    for w in 1..sink {
        let side = sides[w].expect("every internal vertex has a side") as usize;
        pos[side][w] = Some(paths[side].len());
        paths[side].push(order[w]);
    }
    for (path, pos) in paths.iter_mut().zip(&mut pos) {
        pos[source] = Some(0);
        pos[sink] = Some(path.len());
        path.push(order[sink]);
    }

    // Classify edges into rails and rungs, counting the rails of each
    // segment of each path; each rail joins its tail's constituents.
    let mut vertices: Vec<BlockVertex> = order
        .iter()
        .zip(&sides)
        .map(|(&node, &side)| BlockVertex {
            node,
            side,
            out: Vec::new(),
            rung_heads: 0,
        })
        .collect();
    let mut covered = [0, 1].map(|side| vec![0usize; paths[side].len() - 1]);
    let mut rails = Vec::new();
    let mut rungs = Vec::new();
    let mut rung_ends = Vec::new();
    for (ve, &(s, t)) in block.iter().zip(&ends) {
        let rail = [Side::Left, Side::Right].into_iter().find_map(|side| {
            let p = &pos[side as usize];
            p[s].filter(|&i| p[t] == Some(i + 1)).map(|i| (side, i))
        });
        if let Some((side, segment)) = rail {
            covered[side as usize][segment] += 1;
            vertices[s].out.push((t, ve.comp));
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
            rung_ends.push((s, t));
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
    let mut landings: Vec<(usize, usize)> = rung_ends
        .iter()
        .map(|&(tail, head)| {
            let (left, right) = match sides[tail] {
                Some(Side::Left) => (tail, head),
                _ => (head, tail),
            };
            let ends = pos[0][left].zip(pos[1][right]);
            ends.expect("a rung joins internal vertices of opposite sides")
        })
        .collect();
    landings.sort_unstable();
    let mut higher = 0;
    for (i, &(l, r)) in landings.iter().enumerate() {
        if i > 0 && landings[i - 1].0 < l {
            higher = higher.max(landings[i - 1].1);
        }
        if r < higher {
            return Err(GraphError::Structure(
                "cross-links cross; the graph is not CS4".into(),
            ));
        }
    }

    for (&(tail, head), rung) in rung_ends.iter().zip(&rungs) {
        vertices[tail].out.push((head, rung.comp));
        vertices[head].rung_heads += 1;
    }
    let [left, right] = paths;
    Ok(LadderDecomposition {
        source: order[source],
        sink: order[sink],
        left,
        right,
        rails,
        rungs,
        vertices,
        by_node,
    })
}

/// The block-local id of `v`, looked up in the block's sorted
/// `(vertex, local id)` pairs; `None` if `v` is not in the block.
fn local_id(by_node: &[(NodeId, usize)], v: NodeId) -> Option<usize> {
    let i = by_node.binary_search_by_key(&v, |&(n, _)| n).ok()?;
    Some(by_node[i].1)
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
    fn a_vertex_both_bottoms_feed_continues_the_one_it_is_the_last_successor_of() {
        // When v2 is placed the bottoms are u2 (left) and v1 (right), and
        // both feed it.  Continuing the left rail passes every check at v2
        // and fails only at the sink; the walk continues v1, whose only
        // unplaced successor v2 is, while u2 still feeds the sink.
        let mut b = GraphBuilder::new();
        b.chain(&["x", "u1", "u2", "y"]).unwrap();
        b.chain(&["x", "v1", "v2", "y"]).unwrap();
        b.edge("u1", "v1").unwrap();
        b.edge("u2", "v2").unwrap();
        let g = b.build().unwrap();
        let (pos, skel) = skeleton_of(&g);
        let lad = decompose_ladder(&pos, &skel).unwrap();
        let nodes = |names: [&str; 4]| names.map(|name| g.node_by_name(name).unwrap());
        assert_eq!(lad.left, nodes(["x", "u1", "u2", "y"]));
        assert_eq!(lad.right, nodes(["x", "v1", "v2", "y"]));
        let u2 = g.node_by_name("u2").unwrap();
        let v2 = g.node_by_name("v2").unwrap();
        assert!(lad.rungs.iter().any(|r| (r.tail, r.head) == (u2, v2)));
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
