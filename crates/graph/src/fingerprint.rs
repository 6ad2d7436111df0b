//! Canonical structural fingerprints of streaming topologies.
//!
//! A multi-tenant job service amortises compile-time planning by recognising
//! that two submitted graphs have the *same shape*: the same nodes, channels
//! and buffer capacities, regardless of what the client named the nodes or
//! in which order it happened to declare them.  This module provides that
//! notion as a 64-bit [`Fingerprint`].  Every topology the system admits is a
//! DAG, so colours are refined *along* it, in two peels, not in rounds:
//!
//! 1. every node starts from a colour derived from its in-degree, out-degree
//!    and an optional caller-supplied attribute (e.g. a filter-spec
//!    signature);
//! 2. a Kahn peel in topological order gives each node the hash of its
//!    **ancestor unfolding**: its initial colour and the sorted multiset of
//!    `(capacity, hash(predecessor))` over its incoming channels;
//! 3. the same peel against the channels gives it the hash of its
//!    **descendant unfolding**; the node's colour is the fold of the two;
//! 4. the fingerprint hashes the node/edge counts, the sorted final node
//!    colours and the sorted edge signatures `(capacity, colour(src),
//!    colour(dst))`.
//!
//! The result is **invariant under renaming and re-ordering**: a peel visits
//! a node only once all its predecessors hold their final hashes, so the
//! hash is a function of the unfolding alone — whichever topological order
//! the peel happens to take, whatever the ids are — and multisets are sorted
//! before they are folded.  A node no peel reaches lies on or behind a
//! directed cycle (this function is total; callers hash before they
//! validate); the set of such nodes is itself invariant, and they keep
//! their initial colour for that direction.  Any two graphs related by an
//! isomorphism (including capacities and attributes) therefore produce the
//! same fingerprint.  The converse does not hold: a node is told apart by
//! what lies upstream and what lies downstream of it, not by walks that mix
//! the two directions, so two shapes whose nodes pair up with equal
//! unfoldings share a value (Weisfeiler–Lehman refinement to stability
//! separates more, at a round per hop of diameter).  The value is therefore
//! only ever a *bucket key*: consumers that key semantic decisions on it
//! (such as a plan cache whose entries are indexed by
//! [`EdgeId`](crate::EdgeId)) must pair it with the order-**sensitive**
//! [`labeled_fingerprint`], which two graphs share only if they were built
//! with the identical node/edge insertion sequence and capacities, making a
//! cached per-edge table directly applicable.
//!
//! All hashing is done with a fixed splitmix64-based mixer, so fingerprints
//! are stable across processes, platforms and Rust releases (unlike
//! [`std::collections::hash_map::DefaultHasher`], which is only documented
//! to be stable within one process).

use std::fmt;

use crate::ids::NodeId;
use crate::multigraph::Graph;

/// A 64-bit canonical structural hash of a graph (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// splitmix64: the finalising permutation used as the base mixer.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-dependent combination of an accumulator with one value.
#[inline]
fn fold(acc: u64, value: u64) -> u64 {
    mix64(acc ^ mix64(value))
}

/// Canonical structural fingerprint of `g`: shape + capacities, insensitive
/// to node names and to the order nodes and edges were inserted in.
pub fn fingerprint(g: &Graph) -> Fingerprint {
    fingerprint_with(g, |_| 0)
}

/// Like [`fingerprint`], additionally folding a caller-supplied attribute
/// into every node's initial colour.  Callers use this to make semantically
/// different per-node configurations — for example different filter specs
/// attached to the same graph shape — produce different fingerprints.  The
/// attribute must itself be assigned isomorphism-invariantly (a property of
/// the node, not of its id) for the invariance guarantee to carry over.
pub fn fingerprint_with(g: &Graph, node_attr: impl Fn(NodeId) -> u64) -> Fingerprint {
    let n = g.node_count();
    if n == 0 {
        return Fingerprint(mix64(0));
    }

    // Initial colours: degrees + caller attribute.
    let init: Vec<u64> = g
        .node_ids()
        .map(|v| {
            let mut h = fold(0x0F11_A000, g.in_degree(v) as u64);
            h = fold(h, g.out_degree(v) as u64);
            fold(h, node_attr(v))
        })
        .collect();
    let mut color = unfolding::<true>(g, &init);
    for (c, down) in color.iter_mut().zip(unfolding::<false>(g, &init)) {
        *c = fold(*c, down);
    }

    // Final combination: counts, sorted node colours, sorted edge signatures.
    let mut h = fold(0xF1FA, n as u64);
    h = fold(h, g.edge_count() as u64);
    let mut final_colors = color.clone();
    final_colors.sort_unstable();
    for c in final_colors {
        h = fold(h, c);
    }
    let mut edge_sigs: Vec<u64> = g
        .edges()
        .map(|(_, e)| {
            fold(
                fold(e.capacity, color[e.src.index()]),
                color[e.dst.index()],
            )
        })
        .collect();
    edge_sigs.sort_unstable();
    for s in edge_sigs {
        h = fold(h, s);
    }
    Fingerprint(h)
}

/// Order-**sensitive** exact hash of `g` as labelled by its ids: nodes in id
/// order (degrees only, names are still ignored) and edges in id order as
/// `(src, dst, capacity)` triples.  Two graphs share this value exactly when
/// they have identical node/edge arenas up to names — the precondition for
/// transplanting any per-[`EdgeId`](crate::EdgeId)-indexed table (such as a
/// deadlock-avoidance plan) from one to the other.
pub fn labeled_fingerprint(g: &Graph) -> u64 {
    let mut h = fold(0x1ABE1, g.node_count() as u64);
    for (_, e) in g.edges() {
        h = fold(h, e.src.index() as u64);
        h = fold(h, e.dst.index() as u64);
        h = fold(h, e.capacity);
    }
    h
}

/// One Kahn peel of `g`, with the channels (`FORWARD`: ancestor unfoldings)
/// or against them (descendant unfoldings).  A node is hashed when the last
/// of its feeding neighbours has been, so every value it reads is final;
/// nodes on or behind a directed cycle are never ready and keep `init`.
fn unfolding<const FORWARD: bool>(g: &Graph, init: &[u64]) -> Vec<u64> {
    let feeding = |v: NodeId| if FORWARD { g.in_edges(v) } else { g.out_edges(v) };
    let fed = |v: NodeId| if FORWARD { g.out_edges(v) } else { g.in_edges(v) };
    let mut hash = init.to_vec();
    let mut waiting: Vec<usize> = g.node_ids().map(|v| feeding(v).len()).collect();
    let mut ready: Vec<NodeId> = g.node_ids().filter(|&v| waiting[v.index()] == 0).collect();
    let mut scratch: Vec<u64> = Vec::new();
    while let Some(v) = ready.pop() {
        // Sorted multiset, so insertion order is irrelevant.
        scratch.clear();
        scratch.extend(feeding(v).iter().map(|&e| {
            let from = if FORWARD { g.tail(e) } else { g.head(e) };
            fold(g.capacity(e), hash[from.index()])
        }));
        scratch.sort_unstable();
        let seed = if FORWARD { 0x5EED } else { 0xD1F0 };
        hash[v.index()] = scratch.iter().fold(fold(seed, init[v.index()]), |h, &s| fold(h, s));
        for &e in fed(v) {
            let to = if FORWARD { g.head(e) } else { g.tail(e) };
            waiting[to.index()] -= 1;
            if waiting[to.index()] == 0 {
                ready.push(to);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn fig3_named(names: [&str; 6], order: &[usize]) -> Graph {
        // Fig. 3 shape: a -> b -> e -> f and a -> c -> d -> f, declared in
        // the node order given by `order` and with arbitrary names.
        let [a, b, c, d, e, f] = names;
        let caps = [
            (a, b, 2u64),
            (b, e, 5),
            (e, f, 1),
            (a, c, 3),
            (c, d, 1),
            (d, f, 2),
        ];
        let mut builder = GraphBuilder::new();
        for &i in order {
            builder.node(names[i]);
        }
        for (s, t, cap) in caps {
            builder.edge_with_capacity(s, t, cap).unwrap();
        }
        builder.build().unwrap()
    }

    #[test]
    fn isomorphic_rebuilds_collide() {
        let g1 = fig3_named(["a", "b", "c", "d", "e", "f"], &[0, 1, 2, 3, 4, 5]);
        // Different names, different node declaration order, same shape.
        let g2 = fig3_named(["n0", "n1", "n2", "n3", "n4", "n5"], &[5, 3, 1, 0, 2, 4]);
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        // Edge insertion order must not matter either.
        let mut b = GraphBuilder::new();
        for (s, t, cap) in [
            ("d", "f", 2u64),
            ("a", "c", 3),
            ("c", "d", 1),
            ("a", "b", 2),
            ("b", "e", 5),
            ("e", "f", 1),
        ] {
            b.edge_with_capacity(s, t, cap).unwrap();
        }
        let g3 = b.build().unwrap();
        assert_eq!(fingerprint(&g1), fingerprint(&g3));
    }

    #[test]
    fn perturbed_capacity_changes_the_fingerprint() {
        let g1 = fig3_named(["a", "b", "c", "d", "e", "f"], &[0, 1, 2, 3, 4, 5]);
        let mut g2 = g1.clone();
        let e = g2.edge_by_names("b", "e").unwrap();
        g2.set_capacity(e, 6).unwrap();
        assert_ne!(fingerprint(&g1), fingerprint(&g2));
    }

    #[test]
    fn different_shapes_differ() {
        let mut b = GraphBuilder::new().default_capacity(2);
        b.chain(&["a", "b", "c", "d"]).unwrap();
        let pipeline = b.build().unwrap();
        let mut b = GraphBuilder::new().default_capacity(2);
        b.edge("a", "b").unwrap();
        b.edge("a", "c").unwrap();
        b.edge("b", "d").unwrap();
        b.edge("c", "d").unwrap();
        let diamond = b.build().unwrap();
        assert_ne!(fingerprint(&pipeline), fingerprint(&diamond));
    }

    #[test]
    fn parallel_edge_capacities_are_distinguished() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("a", "b", 5).unwrap();
        let g1 = b.build().unwrap();
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 5).unwrap();
        b.edge_with_capacity("a", "b", 2).unwrap();
        let g2 = b.build().unwrap();
        // Same multiset of parallel capacities, different order: isomorphic.
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("a", "b", 4).unwrap();
        let g3 = b.build().unwrap();
        assert_ne!(fingerprint(&g1), fingerprint(&g3));
    }

    #[test]
    fn node_attributes_salt_the_fingerprint() {
        let g = fig3_named(["a", "b", "c", "d", "e", "f"], &[0, 1, 2, 3, 4, 5]);
        let plain = fingerprint(&g);
        let a = g.node_by_name("a").unwrap();
        let salted = fingerprint_with(&g, |n| if n == a { 7 } else { 0 });
        assert_ne!(plain, salted);
        // The same attribute assignment reproduces the same value.
        let again = fingerprint_with(&g, |n| if n == a { 7 } else { 0 });
        assert_eq!(salted, again);
    }

    #[test]
    fn labeled_fingerprint_is_order_sensitive() {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "c", 3).unwrap();
        let g1 = b.build().unwrap();
        // Same shape, but nodes declared in reverse: ids differ.
        let mut b = GraphBuilder::new();
        b.node("c");
        b.node("b");
        b.node("a");
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "c", 3).unwrap();
        let g2 = b.build().unwrap();
        assert_eq!(fingerprint(&g1), fingerprint(&g2));
        assert_ne!(labeled_fingerprint(&g1), labeled_fingerprint(&g2));
        // Identically built graphs agree (names are irrelevant).
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("x", "y", 2).unwrap();
        b.edge_with_capacity("y", "z", 3).unwrap();
        let g3 = b.build().unwrap();
        assert_eq!(labeled_fingerprint(&g1), labeled_fingerprint(&g3));
    }

    #[test]
    fn empty_graph_has_a_stable_fingerprint() {
        let g = Graph::new();
        assert_eq!(fingerprint(&g), fingerprint(&Graph::new()));
    }

    #[test]
    fn long_pipelines_of_different_capacity_layouts_differ() {
        // Positions are distinguished by distance from the terminals, so a
        // capacity bump in the middle must be visible.
        let build = |bump_at: usize| {
            let mut b = GraphBuilder::new();
            let names: Vec<String> = (0..64).map(|i| format!("n{i}")).collect();
            for w in names.windows(2) {
                let cap = if names.iter().position(|x| x == &w[0]) == Some(bump_at) {
                    9
                } else {
                    2
                };
                b.edge_with_capacity(&w[0], &w[1], cap).unwrap();
            }
            b.build().unwrap()
        };
        assert_ne!(fingerprint(&build(10)), fingerprint(&build(40)));
        assert_eq!(fingerprint(&build(10)), fingerprint(&build(10)));
        // ... at any depth: a bump 600 hops from either end of a 2 000-chain
        // (round-based refinement capped at 256 rounds could not place it).
        let deep = |bump_at: usize| {
            let mut g = Graph::new();
            let ids: Vec<NodeId> = (0..2_000).map(|i| g.add_node(format!("n{i}"))).collect();
            for (i, w) in ids.windows(2).enumerate() {
                g.add_edge(w[0], w[1], if i == bump_at { 9 } else { 2 }).unwrap();
            }
            g
        };
        assert_ne!(fingerprint(&deep(600)), fingerprint(&deep(1_200)));
    }
}
