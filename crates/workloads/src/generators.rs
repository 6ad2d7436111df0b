//! Seeded random topology generators used by tests and the benchmark
//! harness.
//!
//! All generators are deterministic for a given seed so that benchmark
//! sweeps and property tests are reproducible.

use fila_graph::{Graph, GraphBuilder};
use fila_spdag::{build_sp, SpDecomposition, SpSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for the random SP-DAG generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Target number of edges (the result has at least this many).
    pub target_edges: usize,
    /// Maximum children per composition node.
    pub max_fanout: usize,
    /// Buffer capacities are drawn uniformly from this inclusive range.
    pub capacity_range: (u64, u64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            target_edges: 64,
            max_fanout: 4,
            capacity_range: (1, 8),
            seed: 0xF11A,
        }
    }
}

/// Generates a random [`SpSpec`] with roughly `config.target_edges` edges by
/// recursively choosing series or parallel compositions.
pub fn random_sp_spec(config: &GeneratorConfig) -> SpSpec {
    let mut rng = StdRng::seed_from_u64(config.seed);
    grow_spec(&mut rng, config, config.target_edges, 0)
}

fn grow_spec(rng: &mut StdRng, config: &GeneratorConfig, budget: usize, depth: usize) -> SpSpec {
    let cap = rng.gen_range(config.capacity_range.0..=config.capacity_range.1);
    if budget <= 1 || depth > 24 {
        return SpSpec::Edge(cap);
    }
    let fanout = rng.gen_range(2..=config.max_fanout.max(2));
    let mut children = Vec::with_capacity(fanout);
    let mut remaining = budget;
    for i in 0..fanout {
        let share = if i + 1 == fanout {
            remaining
        } else {
            let upper = remaining.saturating_sub(fanout - i - 1).max(1);
            rng.gen_range(1..=upper)
        };
        remaining = remaining.saturating_sub(share);
        children.push(grow_spec(rng, config, share, depth + 1));
        if remaining == 0 {
            break;
        }
    }
    if children.len() < 2 {
        return children.pop().unwrap_or(SpSpec::Edge(cap));
    }
    if rng.gen_bool(0.5) {
        SpSpec::Series(children)
    } else {
        SpSpec::Parallel(children)
    }
}

/// Generates a random SP-DAG together with its ground-truth decomposition.
pub fn random_sp_dag(config: &GeneratorConfig) -> (Graph, SpDecomposition) {
    build_sp(&random_sp_spec(config))
}

/// Parameters for the random SP-ladder generator.
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Number of cross-links (rungs).
    pub rungs: usize,
    /// Buffer capacities are drawn uniformly from this inclusive range.
    pub capacity_range: (u64, u64),
    /// Probability that a rung runs right-to-left instead of left-to-right.
    pub reverse_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            rungs: 8,
            capacity_range: (1, 8),
            reverse_probability: 0.3,
            seed: 0x1ADD,
        }
    }
}

/// Generates a random SP-ladder: two rails of `rungs + 1` segments each and
/// `rungs` non-crossing cross-links at increasing depths.
///
/// The result is CS4 but not series-parallel (for `rungs >= 1`).
pub fn random_ladder(config: &LadderConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = GraphBuilder::new();
    let caps = |rng: &mut StdRng| {
        rng.gen_range(config.capacity_range.0..=config.capacity_range.1)
    };
    let k = config.rungs.max(1);
    // Rails: X -> u1 -> ... -> uk -> Y and X -> v1 -> ... -> vk -> Y.
    let left: Vec<String> = (1..=k).map(|i| format!("u{i}")).collect();
    let right: Vec<String> = (1..=k).map(|i| format!("v{i}")).collect();
    let mut prev = "X".to_string();
    for u in &left {
        let c = caps(&mut rng);
        b.edge_with_capacity(&prev, u, c).unwrap();
        prev = u.clone();
    }
    b.edge_with_capacity(&prev, "Y", caps(&mut rng)).unwrap();
    let mut prev = "X".to_string();
    for v in &right {
        let c = caps(&mut rng);
        b.edge_with_capacity(&prev, v, c).unwrap();
        prev = v.clone();
    }
    b.edge_with_capacity(&prev, "Y", caps(&mut rng)).unwrap();
    // Rungs: u_i <-> v_i, direction chosen per rung (same index keeps them
    // non-crossing).
    for i in 1..=k {
        let c = caps(&mut rng);
        if rng.gen_bool(config.reverse_probability) {
            b.edge_with_capacity(&format!("v{i}"), &format!("u{i}"), c).unwrap();
        } else {
            b.edge_with_capacity(&format!("u{i}"), &format!("v{i}"), c).unwrap();
        }
    }
    b.build().expect("generated ladder is a valid two-terminal DAG")
}

/// Generates a linear pipeline of `n` nodes with uniform channel
/// `capacity`.  With `reversed = true` the nodes are *declared* against the
/// flow direction, so node ids are anti-topological — the adversarial case
/// for any scheduler that visits nodes in id order (the Simulator's worklist
/// and the pooled engine are insensitive to declaration order).
///
/// This is the scaling workload of the engine benchmarks: it is trivially
/// deadlock-free at any filter rate (no undirected cycles), so it isolates
/// pure scheduling and message-passing cost at node counts far beyond what
/// thread-per-node execution can reach.
pub fn pipeline_graph(n: usize, capacity: u64, reversed: bool) -> Graph {
    let n = n.max(2);
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = GraphBuilder::new().default_capacity(capacity);
    if reversed {
        for name in refs.iter().rev() {
            b.node(name);
        }
    }
    b.chain(&refs).unwrap();
    b.build().expect("pipeline is a valid two-terminal DAG")
}

/// Generates the exponential-baseline stress topology: `k` parallel two-hop
/// chains between a common source and sink, which has `k (k - 1) / 2`
/// undirected simple cycles.
pub fn parallel_chains(k: usize, capacity: u64) -> Graph {
    let mut b = GraphBuilder::new().default_capacity(capacity);
    for i in 0..k.max(1) {
        let mid = format!("m{i}");
        b.edge("S", &mid).unwrap();
        b.edge(&mid, "T").unwrap();
    }
    b.build().expect("parallel chains are a valid two-terminal DAG")
}

/// Generates a complete `fanout`-ary broadcast tree: `levels` levels below
/// one source, every leaf a sink.  No undirected cycles, so it cannot
/// deadlock at any filter rate; every interior node is a single-input fork.
pub fn fanout_tree(fanout: usize, levels: usize, capacity: u64) -> Graph {
    let mut b = GraphBuilder::new().default_capacity(capacity);
    let mut frontier = vec!["n".to_string()];
    for _ in 0..levels.max(1) {
        let mut next = Vec::new();
        for parent in &frontier {
            for child in 0..fanout.max(1) {
                let name = format!("{parent}_{child}");
                b.edge(parent, &name).unwrap();
                next.push(name);
            }
        }
        frontier = next;
    }
    b.build().expect("a tree is a valid DAG")
}

/// One graph of the deep-buffer family, by seed: a pipeline, a broadcast
/// fan-out tree, a random SP DAG or a random ladder with capacities in
/// 16..=256 — deep enough that containers fill to the batch size and the
/// pooled engine's runs are dozens of messages long, cut by the slice budget
/// and delivered in parts.  The flag says whether the graph has undirected
/// cycles, i.e. needs an avoidance plan once a node filters.
pub fn deep_buffer_graph(seed: u64) -> (Graph, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = rng.gen_range(16..=256u64);
    match rng.gen_range(0..4u32) {
        0 => (pipeline_graph(rng.gen_range(3..=10), capacity, rng.gen_bool(0.5)), false),
        1 => (fanout_tree(rng.gen_range(2..=3), rng.gen_range(2..=3), capacity), false),
        2 => {
            let config = GeneratorConfig {
                target_edges: rng.gen_range(12..36),
                max_fanout: 3,
                capacity_range: (16, 256),
                seed,
            };
            (random_sp_dag(&config).0, true)
        }
        _ => {
            let config = LadderConfig {
                rungs: rng.gen_range(1..=6),
                capacity_range: (16, 256),
                reverse_probability: 0.3,
                seed,
            };
            (random_ladder(&config), true)
        }
    }
}

/// Generates a layered random DAG that is in general neither SP nor CS4:
/// `layers` layers of `width` nodes, each node wired to 1–3 random nodes of
/// the next layer, with a shared source and sink.
pub fn layered_dag(layers: usize, width: usize, capacity: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new().default_capacity(capacity);
    let layers = layers.max(1);
    let width = width.max(1);
    for l in 0..layers {
        for w in 0..width {
            b.node(&format!("n{l}_{w}"));
        }
    }
    for w in 0..width {
        b.edge("S", &format!("n0_{w}")).unwrap();
        b.edge(&format!("n{}_{w}", layers - 1), "T").unwrap();
    }
    for l in 0..layers - 1 {
        for w in 0..width {
            let fanout = rng.gen_range(1..=3usize.min(width));
            let mut targets: Vec<usize> = (0..width).collect();
            for _ in 0..fanout {
                let pick = rng.gen_range(0..targets.len());
                let t = targets.swap_remove(pick);
                b.edge(&format!("n{l}_{w}"), &format!("n{}_{t}", l + 1)).unwrap();
            }
        }
    }
    b.build().expect("layered DAG is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_avoidance::{classify, GraphClass};
    use fila_graph::cycles;
    use fila_spdag::recognize;
    use fila_spdag::validate::validate_decomposition;

    #[test]
    fn random_sp_dags_are_recognised_and_consistent() {
        for seed in 0..8 {
            let config = GeneratorConfig {
                target_edges: 40,
                seed,
                ..Default::default()
            };
            let (g, d) = random_sp_dag(&config);
            assert!(g.edge_count() >= 40, "seed {seed}");
            validate_decomposition(&g, &d).unwrap();
            assert!(recognize(&g).unwrap().is_sp(), "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GeneratorConfig::default();
        let (g1, _) = random_sp_dag(&config);
        let (g2, _) = random_sp_dag(&config);
        assert_eq!(g1, g2);
    }

    #[test]
    fn random_ladders_are_cs4_not_sp() {
        for seed in 0..6 {
            let config = LadderConfig { rungs: 5, seed, ..Default::default() };
            let g = random_ladder(&config);
            assert!(!recognize(&g).unwrap().is_sp(), "seed {seed}");
            assert_eq!(classify(&g).unwrap(), GraphClass::Cs4, "seed {seed}");
        }
    }

    #[test]
    fn ladder_size_scales_with_rungs() {
        let small = random_ladder(&LadderConfig { rungs: 2, ..Default::default() });
        let large = random_ladder(&LadderConfig { rungs: 20, ..Default::default() });
        assert!(large.edge_count() > small.edge_count());
        assert_eq!(large.edge_count(), 3 * 20 + 2);
    }

    #[test]
    fn parallel_chains_cycle_count_is_quadratic() {
        for k in [2usize, 4, 6] {
            let g = parallel_chains(k, 1);
            assert_eq!(cycles::count_cycles(&g), k * (k - 1) / 2);
        }
    }

    #[test]
    fn pipeline_graph_shape_and_reversal() {
        let fwd = pipeline_graph(16, 4, false);
        assert_eq!(fwd.node_count(), 16);
        assert_eq!(fwd.edge_count(), 15);
        let rev = pipeline_graph(16, 4, true);
        assert_eq!(rev.edge_count(), 15);
        // Reversed declaration: the source has the highest node id.
        let src = rev.single_source().unwrap();
        assert_eq!(src.index(), 15);
        let src_fwd = fwd.single_source().unwrap();
        assert_eq!(src_fwd.index(), 0);
    }

    #[test]
    fn layered_dags_are_valid_two_terminal() {
        let g = layered_dag(4, 3, 2, 99);
        g.validate_two_terminal().unwrap();
        assert!(g.edge_count() >= 4 * 3);
    }
}
