//! Propagation-algorithm intervals on SP-ladders (§VI.A of the paper),
//! `O(|G|)` after the SP reduction.
//!
//! The cycles *internal* to each contracted constituent (rail segment,
//! cross-link, or absorbed chord graph) are handled by running `SETIVALS` on
//! that constituent's component tree; this module adds the constraints from
//! *external* cycles — those that traverse at least two constituents.
//! External cycles have their sources at the ladder source `X` or at
//! cross-link tails (Fact VI.1), so only edges leaving those fork vertices
//! get new constraints.
//!
//! For a fork `w` the paper defines `Ls(w)` (the shortest "escape" starting
//! down `w`'s own rail and ending at a potential sink) and `Lk(w)` (the
//! shortest escape starting across `w`'s cross-link), computed by the
//! bottom-up recurrences of §VI.A; every edge leaving `w` inside one
//! constituent is then bounded by the best escape through any *other*
//! constituent leaving `w`.  We generalise the recurrences slightly (see
//! `DESIGN.md`): a vertex may be the tail of several cross-links, and a
//! branch that has just crossed to the other side may stop at its landing
//! vertex only if a *second* cross-link also arrives there.

use fila_graph::{Graph, NodeId};
use fila_spdag::{CompId, SpForest, SpMetrics};

use crate::interval::{DummyInterval, IntervalMap};
use crate::ladder::{LadderDecomposition, Side};

/// Applies the external-cycle Propagation constraints of one SP-ladder block
/// to `intervals`.  Internal-cycle constraints must be applied separately by
/// running `SETIVALS` on every constituent component (the planner does so).
pub fn apply_ladder_propagation(
    g: &Graph,
    forest: &SpForest,
    metrics: &SpMetrics,
    ladder: &LadderDecomposition,
    intervals: &mut IntervalMap,
) {
    let index = LadderIndex::new(ladder);
    let starts = compute_start_values(metrics, ladder, &index);

    for (fork_idx, &w) in index.forks().iter().enumerate() {
        let outgoing = &starts[fork_idx];
        if outgoing.len() < 2 {
            // A single outgoing constituent cannot be the source of an
            // external cycle.
            continue;
        }
        for (i, &(comp_i, _)) in outgoing.iter().enumerate() {
            let mut bound = DummyInterval::Infinite;
            for (j, &(_, start_j)) in outgoing.iter().enumerate() {
                if i != j && start_j != u64::MAX {
                    bound = bound.min(DummyInterval::from_length(start_j));
                }
            }
            if !bound.is_finite() {
                continue;
            }
            for e in forest.edges_in(comp_i) {
                if g.tail(e) == w {
                    intervals.tighten(e, bound);
                }
            }
        }
    }
}

/// Ladder-local dense vertex numbering.  A block's algorithms only ever key
/// tables by the block's own vertices, so every per-vertex table can be a
/// dense `Vec` indexed by this local id instead of a `HashMap<NodeId, _>`
/// (the planner benches exercise these tables on every CS4 topology).
pub(crate) struct LadderLocal {
    /// Number of distinct vertices in the block (local ids are `0..len`).
    len: usize,
    /// Global raw node index → local id (`u32::MAX` = not in the block),
    /// sized by the largest member's raw index.
    local: Vec<u32>,
}

impl LadderLocal {
    fn new(ladder: &LadderDecomposition) -> Self {
        let mut len = 0usize;
        let mut local: Vec<u32> = Vec::new();
        for &v in ladder.left.iter().chain(ladder.right.iter()) {
            if local.len() <= v.index() {
                local.resize(v.index() + 1, u32::MAX);
            }
            if local[v.index()] == u32::MAX {
                local[v.index()] = len as u32;
                len += 1;
            }
        }
        LadderLocal { len, local }
    }

    /// Number of vertices in the block.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The local id of `n`, if it belongs to the block.
    pub(crate) fn get(&self, n: NodeId) -> Option<usize> {
        match self.local.get(n.index()) {
            Some(&l) if l != u32::MAX => Some(l as usize),
            _ => None,
        }
    }

    /// The local id of a vertex known to belong to the block.
    pub(crate) fn of(&self, n: NodeId) -> usize {
        self.get(n).expect("vertex belongs to the ladder block")
    }
}

/// Static shape information about a ladder block shared by the Propagation
/// and Non-Propagation ladder algorithms.  All per-vertex tables are dense
/// vectors over the [`LadderLocal`] numbering.
pub(crate) struct LadderIndex {
    local: LadderLocal,
    forks: Vec<NodeId>,
    side_vertices: [Vec<NodeId>; 2],
    /// Per local vertex: the rail leaving it downwards (for the source,
    /// which has one rail per side, the last rail in declaration order wins
    /// — callers treat the source specially).
    rail_out: Vec<Option<(NodeId, CompId)>>,
    /// Per local vertex: the cross-links leaving it.
    rungs_by_tail: Vec<Vec<(NodeId, CompId)>>,
    /// Per local vertex: the number of cross-links arriving.
    rung_head_count: Vec<usize>,
}

impl LadderIndex {
    pub(crate) fn new(ladder: &LadderDecomposition) -> Self {
        let local = LadderLocal::new(ladder);
        let n = local.len();
        let mut rail_out = vec![None; n];
        for r in &ladder.rails {
            rail_out[local.of(r.from)] = Some((r.to, r.comp));
        }
        let mut rungs_by_tail: Vec<Vec<(NodeId, CompId)>> = vec![Vec::new(); n];
        let mut rung_head_count = vec![0usize; n];
        for r in &ladder.rungs {
            rungs_by_tail[local.of(r.tail)].push((r.head, r.comp));
            rung_head_count[local.of(r.head)] += 1;
        }
        let mut forks: Vec<NodeId> = vec![ladder.source];
        for r in &ladder.rungs {
            if !forks.contains(&r.tail) {
                forks.push(r.tail);
            }
        }
        LadderIndex {
            local,
            forks,
            side_vertices: [ladder.left.clone(), ladder.right.clone()],
            rail_out,
            rungs_by_tail,
            rung_head_count,
        }
    }

    /// The block-local vertex numbering.
    pub(crate) fn local(&self) -> &LadderLocal {
        &self.local
    }

    /// The ladder source plus every cross-link tail.
    pub(crate) fn forks(&self) -> &[NodeId] {
        &self.forks
    }

    /// Ordered vertices of one side, including the source and sink.
    pub(crate) fn vertices(&self, side: Side) -> &[NodeId] {
        match side {
            Side::Left => &self.side_vertices[0],
            Side::Right => &self.side_vertices[1],
        }
    }

    /// The rail leaving `v` downwards, as `(next vertex, component)`.
    pub(crate) fn rail_out(&self, v: NodeId) -> Option<(NodeId, CompId)> {
        self.local.get(v).and_then(|l| self.rail_out[l])
    }

    /// Cross-links leaving `v`, as `(head, component)` pairs.
    pub(crate) fn rungs_out(&self, v: NodeId) -> &[(NodeId, CompId)] {
        self.local
            .get(v)
            .map(|l| self.rungs_by_tail[l].as_slice())
            .unwrap_or(&[])
    }

    /// Number of cross-links whose head is `v`.
    pub(crate) fn rung_heads_at(&self, v: NodeId) -> usize {
        self.local.get(v).map_or(0, |l| self.rung_head_count[l])
    }

    /// All constituents leaving `w`: its rail(s) plus its cross-links.  The
    /// source has two rails (one per side); internal forks have one.
    pub(crate) fn outgoing_constituents(
        &self,
        ladder: &LadderDecomposition,
        w: NodeId,
    ) -> Vec<(CompId, NodeId)> {
        let mut out = Vec::new();
        if w == ladder.source {
            for side in [Side::Left, Side::Right] {
                let first = self.vertices(side)[1];
                if let Some(rail) = ladder
                    .rails
                    .iter()
                    .find(|r| r.from == w && r.to == first)
                {
                    out.push((rail.comp, first));
                }
            }
        } else if let Some((next, comp)) = self.rail_out(w) {
            out.push((comp, next));
        }
        for &(head, comp) in self.rungs_out(w) {
            out.push((comp, head));
        }
        out
    }
}

/// Computes, for every fork `w` (in [`LadderIndex::forks`] order), the list
/// of `(outgoing constituent, shortest escape length through that
/// constituent)` pairs — the `Ls` / `Lk` values of §VI.A.
fn compute_start_values(
    metrics: &SpMetrics,
    ladder: &LadderDecomposition,
    index: &LadderIndex,
) -> Vec<Vec<(CompId, u64)>> {
    // `down[side][v]` (dense over local vertex ids, `u64::MAX` = no
    // completion) = cheapest completion of a branch that is at `v`, having
    // arrived along its own side's rail, and may now stop (if a cross-link
    // arrives at `v` or `v` is the sink), cross a cross-link at `v` and stop
    // at its head, or keep descending.
    let local = index.local();
    let mut down = [vec![u64::MAX; local.len()], vec![u64::MAX; local.len()]];
    for side in [Side::Left, Side::Right] {
        let verts = index.vertices(side);
        for &v in verts.iter().rev() {
            if v == ladder.source {
                continue;
            }
            let mut best = u64::MAX;
            if v == ladder.sink || index.rung_heads_at(v) >= 1 {
                best = 0;
            }
            for &(_, comp) in index.rungs_out(v) {
                best = best.min(metrics.l(comp));
            }
            if let Some((next, rail)) = index.rail_out(v) {
                let below = down[side_key(side) as usize][local.of(next)];
                best = best.min(metrics.l(rail).saturating_add(below));
            }
            down[side_key(side) as usize][local.of(v)] = best;
        }
    }

    let down_at = |v: NodeId| -> u64 {
        if v == ladder.sink {
            return 0;
        }
        let side = ladder.side_of(v).map(side_key).unwrap_or(0);
        local.get(v).map_or(u64::MAX, |l| down[side as usize][l])
    };

    let mut starts: Vec<Vec<(CompId, u64)>> = Vec::with_capacity(index.forks().len());
    for &w in index.forks() {
        let mut list = Vec::new();
        // Rails leaving w (two for the source, at most one otherwise): the
        // escape descends that side and may not stop at w itself.
        let rail_list: Vec<(CompId, NodeId)> = index
            .outgoing_constituents(ladder, w)
            .into_iter()
            .filter(|(comp, _)| !index.rungs_out(w).iter().any(|&(_, c)| c == *comp))
            .collect();
        for (comp, next) in rail_list {
            let below = if next == ladder.sink { 0 } else { down_at(next) };
            list.push((comp, metrics.l(comp).saturating_add(below)));
        }
        // Cross-links leaving w: cross, then either stop at the landing
        // vertex (only if a second cross-link arrives there), cross again,
        // or descend the other side.
        for &(head, comp) in index.rungs_out(w) {
            let mut cont = u64::MAX;
            if index.rung_heads_at(head) >= 2 {
                cont = 0;
            }
            for &(_, c2) in index.rungs_out(head) {
                cont = cont.min(metrics.l(c2));
            }
            if let Some((next, rail)) = index.rail_out(head) {
                let below = if next == ladder.sink { 0 } else { down_at(next) };
                cont = cont.min(metrics.l(rail).saturating_add(below));
            }
            list.push((comp, metrics.l(comp).saturating_add(cont)));
        }
        starts.push(list);
    }
    starts
}

fn side_key(side: Side) -> u8 {
    match side {
        Side::Left => 0,
        Side::Right => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs4::GraphClass;
    use crate::exhaustive::exhaustive_intervals;
    use crate::plan::Algorithm;
    use crate::planner::Planner;
    use fila_graph::GraphBuilder;

    /// The planner's Propagation intervals for a CS4 graph: SETIVALS inside
    /// every contracted constituent, then the ladder updates of this module
    /// for every ladder block.
    fn cs4_propagation(g: &Graph) -> IntervalMap {
        let (class, plan) = Planner::new(g).plan_with_class().unwrap();
        assert_eq!(class, GraphClass::Cs4);
        plan.intervals().clone()
    }

    #[test]
    fn fig4_left_matches_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "a", 2).unwrap();
        b.edge_with_capacity("x", "b", 3).unwrap();
        b.edge_with_capacity("a", "y", 4).unwrap();
        b.edge_with_capacity("b", "y", 5).unwrap();
        b.edge_with_capacity("a", "b", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert_eq!(fast, exact);
    }

    #[test]
    fn two_rung_ladder_matches_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "u2", 3).unwrap();
        b.edge_with_capacity("u2", "y", 4).unwrap();
        b.edge_with_capacity("x", "v1", 5).unwrap();
        b.edge_with_capacity("v1", "v2", 1).unwrap();
        b.edge_with_capacity("v2", "y", 2).unwrap();
        b.edge_with_capacity("u1", "v1", 6).unwrap();
        b.edge_with_capacity("u2", "v2", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        // The efficient plan must never be laxer than the exact one
        // (safety); on this ladder it is in fact identical.
        assert!(exact.dominates(&fast));
        assert_eq!(fast, exact);
    }

    #[test]
    fn opposite_direction_rungs_match_exhaustive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "u2", 3).unwrap();
        b.edge_with_capacity("u2", "y", 4).unwrap();
        b.edge_with_capacity("x", "v1", 5).unwrap();
        b.edge_with_capacity("v1", "v2", 1).unwrap();
        b.edge_with_capacity("v2", "y", 2).unwrap();
        b.edge_with_capacity("u1", "v1", 6).unwrap();
        b.edge_with_capacity("v2", "u2", 1).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast), "ladder plan must be safe");
    }

    #[test]
    fn ladder_with_contracted_limbs_is_safe_and_internal_cycles_exact() {
        // Rails and rungs that are themselves SP subgraphs (diamonds and
        // chains) — the contracted constituents carry internal cycles too.
        let mut b = GraphBuilder::new();
        // left rail: x -> u1 via a diamond, u1 -> y via a chain
        b.edge_with_capacity("x", "p", 2).unwrap();
        b.edge_with_capacity("x", "q", 3).unwrap();
        b.edge_with_capacity("p", "u1", 1).unwrap();
        b.edge_with_capacity("q", "u1", 1).unwrap();
        b.edge_with_capacity("u1", "m", 2).unwrap();
        b.edge_with_capacity("m", "y", 2).unwrap();
        // right rail: x -> v1 -> y
        b.edge_with_capacity("x", "v1", 4).unwrap();
        b.edge_with_capacity("v1", "y", 5).unwrap();
        // cross-link u1 -> v1 (two parallel edges => internal cycle).
        b.edge_with_capacity("u1", "v1", 3).unwrap();
        b.edge_with_capacity("u1", "v1", 7).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast), "must be at least as tight as exact");
        // Internal cycle of the diamond: [xp] and [xq] bounded by the
        // sibling branch, exactly as the exhaustive result says.
        let xp = g.edge_by_names("x", "p").unwrap();
        let xq = g.edge_by_names("x", "q").unwrap();
        assert_eq!(fast.get(xp), exact.get(xp));
        assert_eq!(fast.get(xq), exact.get(xq));
    }

    #[test]
    fn shared_tail_rungs_are_safe() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "u1", 2).unwrap();
        b.edge_with_capacity("u1", "y", 3).unwrap();
        b.edge_with_capacity("x", "v1", 4).unwrap();
        b.edge_with_capacity("v1", "v2", 5).unwrap();
        b.edge_with_capacity("v2", "y", 6).unwrap();
        b.edge_with_capacity("u1", "v1", 7).unwrap();
        b.edge_with_capacity("u1", "v2", 8).unwrap();
        let g = b.build().unwrap();
        let fast = cs4_propagation(&g);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        assert!(exact.dominates(&fast));
    }
}
