//! What the structural fingerprint claims, over every graph family the
//! generators produce: it is blind to node names, declaration order and edge
//! insertion order; it sees a changed capacity, a rewired edge and a changed
//! node attribute; and it is total — a directed cycle is hashed, not a panic.

use fila::graph::fingerprint::{fingerprint, fingerprint_with};
use fila::graph::{Graph, NodeId};
use fila::workloads::generators::{
    fanout_tree, layered_dag, pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig,
    LadderConfig,
};
use proptest::prelude::*;

/// splitmix64 stream (the vendored proptest shim hands each case one seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// One graph of the family `seed` selects.
fn graph_of(seed: u64) -> Graph {
    let size = 2 + (seed / 6 % 40) as usize;
    match seed % 6 {
        0 => {
            random_sp_dag(&GeneratorConfig {
                target_edges: size,
                max_fanout: 4,
                capacity_range: (1, 6),
                seed,
            })
            .0
        }
        1 => random_ladder(&LadderConfig {
            rungs: 1 + size % 12,
            capacity_range: (1, 6),
            reverse_probability: 0.3,
            seed,
        }),
        2 => layered_dag(1 + size % 4, 1 + size % 5, 1 + seed % 4, seed),
        3 => fanout_tree(1 + size % 3, 1 + size % 4, 1 + seed % 4),
        4 => pipeline_graph(size, 1 + seed % 4, false),
        _ => pipeline_graph(size, 1 + seed % 4, true),
    }
}

/// `g` rebuilt by another client: nodes declared in a random order under
/// other names, edges inserted in a random order.  Also returns, per node
/// of the copy, the node of `g` it stands for.
fn relabelled(g: &Graph, rng: &mut Rng) -> (Graph, Vec<NodeId>) {
    let originals: Vec<NodeId> = g.node_ids().collect();
    let order = rng.shuffled(g.node_count());
    let mut copy = Graph::new();
    let mut id_in_copy = vec![None; g.node_count()];
    for (position, &old) in order.iter().enumerate() {
        id_in_copy[old] = Some(copy.add_node(format!("renamed-{position}")));
    }
    let edges: Vec<_> = g.edges().map(|(_, e)| e.clone()).collect();
    for i in rng.shuffled(edges.len()) {
        let e = &edges[i];
        let (src, dst) = (id_in_copy[e.src.index()], id_in_copy[e.dst.index()]);
        copy.add_edge(src.unwrap(), dst.unwrap(), e.capacity)
            .unwrap();
    }
    (copy, order.into_iter().map(|old| originals[old]).collect())
}

/// An attribute that is a property of the node, not of its id.
fn attribute(g: &Graph, v: NodeId) -> u64 {
    g.node(v).name.len() as u64 % 3
}

/// `g` with edge `moved` re-pointed at a head chosen so the in-degree
/// sequence — and therefore the isomorphism class — changes.
fn rewired(g: &Graph, rng: &mut Rng) -> Option<Graph> {
    let edges: Vec<_> = g.edges().map(|(_, e)| e.clone()).collect();
    let moved = rng.below(edges.len());
    let old = &edges[moved];
    let head = g
        .node_ids()
        .find(|&w| w != old.src && w != old.dst && g.in_degree(w) + 1 != g.in_degree(old.dst))?;
    let mut out = Graph::new();
    for (_, node) in g.nodes() {
        out.add_node(node.name.clone());
    }
    for (i, e) in edges.iter().enumerate() {
        let dst = if i == moved { head } else { e.dst };
        out.add_edge(e.src, dst, e.capacity).unwrap();
    }
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn relabelling_is_invisible_and_every_edit_is_seen(seed in 0u64..4294967296u64) {
        let mut rng = Rng(seed);
        let g = graph_of(seed);
        let (copy, stands_for) = relabelled(&g, &mut rng);
        prop_assert_eq!(fingerprint(&g), fingerprint(&copy));
        let salted = fingerprint_with(&g, |v| attribute(&g, v));
        prop_assert_eq!(salted, fingerprint_with(&copy, |v| attribute(&g, stands_for[v.index()])));

        // One capacity changed.
        let mut bumped = g.clone();
        let e = g.edge_ids().nth(rng.below(g.edge_count())).unwrap();
        bumped.set_capacity(e, g.capacity(e) + 1).unwrap();
        prop_assert_ne!(fingerprint(&g), fingerprint(&bumped));
        // One edge rewired.
        if let Some(rewired) = rewired(&g, &mut rng) {
            prop_assert_ne!(fingerprint(&g), fingerprint(&rewired));
        }
        // One attribute changed.
        let odd = g.node_ids().nth(rng.below(g.node_count())).unwrap();
        let resalted = fingerprint_with(&g, |v| attribute(&g, v) + u64::from(v == odd) * 7);
        prop_assert_ne!(salted, resalted);

        // A directed cycle (never validated): hashed, and still invariant.
        let mut cyclic = g.clone();
        let (source, sink) = (g.sources()[0], g.sinks()[0]);
        cyclic.add_edge(sink, source, 1).unwrap();
        let (cyclic_copy, _) = relabelled(&cyclic, &mut rng);
        prop_assert_eq!(fingerprint(&cyclic), fingerprint(&cyclic_copy));
        prop_assert_ne!(fingerprint(&cyclic), fingerprint(&g));
    }
}

#[test]
fn a_pipeline_hashes_the_same_with_and_against_its_ids() {
    for n in [2, 3, 64, 1_000] {
        let along = pipeline_graph(n, 5, false);
        assert_eq!(
            fingerprint(&along),
            fingerprint(&pipeline_graph(n, 5, true)),
            "{n}"
        );
        assert_ne!(
            fingerprint(&along),
            fingerprint(&pipeline_graph(n + 1, 5, false)),
            "{n}"
        );
    }
}
