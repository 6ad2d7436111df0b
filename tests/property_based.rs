//! Property-based tests over randomly generated SP specifications:
//! structural invariants of the decomposition and exactness of the interval
//! algorithms against the exponential baseline.

use fila::avoidance::exhaustive::exhaustive_intervals;
use fila::avoidance::Algorithm;
use fila::spdag::validate::validate_decomposition;
use fila::spdag::{build_sp, recognize, reduce, SpSpec};
use fila::workloads::figures;
use fila::workloads::generators::pipeline_graph;
use proptest::prelude::*;

/// Strategy producing small random SP specifications.
fn sp_spec(depth: u32) -> impl Strategy<Value = SpSpec> {
    let leaf = (1u64..6).prop_map(SpSpec::Edge);
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(SpSpec::Series),
            prop::collection::vec(inner, 2..4).prop_map(SpSpec::Parallel),
            prop::collection::vec(1u64..6, 2..4).prop_map(SpSpec::MultiEdge),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_sp_dags_are_recognised(spec in sp_spec(3)) {
        let (g, d) = build_sp(&spec);
        validate_decomposition(&g, &d).unwrap();
        prop_assert!(recognize(&g).unwrap().is_sp());
    }

    #[test]
    fn recognised_decompositions_describe_their_graph(spec in sp_spec(3)) {
        let (g, _) = build_sp(&spec);
        let reduction = reduce(&g).unwrap();
        prop_assert!(reduction.forest.len() <= 2 * g.edge_count());
        let d = reduction.into_decomposition().expect("generated SP DAGs reduce");
        // Terminals, series children chaining sink-to-source, every edge in
        // exactly one leaf.
        validate_decomposition(&g, &d).unwrap();
        let mut leaves = d.edges();
        leaves.sort();
        prop_assert_eq!(leaves, g.edge_ids().collect::<Vec<_>>());
    }

    #[test]
    fn every_cycle_of_an_sp_dag_has_one_source_and_sink(spec in sp_spec(3)) {
        let (g, _) = build_sp(&spec);
        prop_assert!(fila::graph::cycles::all_cycles_single_source_sink(&g));
    }

    #[test]
    fn setivals_matches_the_exhaustive_definition(spec in sp_spec(3)) {
        let (g, d) = build_sp(&spec);
        prop_assume!(g.edge_count() <= 40);
        let fast = fila::avoidance::prop_sp::setivals(&g, &d);
        let exact = exhaustive_intervals(&g, Algorithm::Propagation).unwrap();
        prop_assert_eq!(fast, exact);
    }

    #[test]
    fn nonprop_matches_the_exhaustive_definition(spec in sp_spec(3)) {
        let (g, d) = build_sp(&spec);
        prop_assume!(g.edge_count() <= 40);
        let fast = fila::avoidance::nonprop_sp::nonprop_intervals(&g, &d);
        let exact = exhaustive_intervals(&g, Algorithm::NonPropagation).unwrap();
        prop_assert_eq!(fast, exact);
    }

    #[test]
    fn intervals_never_exceed_the_opposite_branch_capacity(spec in sp_spec(3)) {
        let (g, d) = build_sp(&spec);
        let total: u64 = g.total_capacity();
        let ivals = fila::avoidance::prop_sp::setivals(&g, &d);
        for (_, iv) in ivals.iter() {
            if let Some(v) = iv.finite() {
                prop_assert!(v <= total);
            }
        }
    }
}

/// Pipelines of every size the service sees, ids with and against the flow:
/// one flat series over the edges in pipeline order, in an arena that is
/// linear in them.
#[test]
fn pipelines_recognise_to_one_flat_series() {
    for n in [2usize, 3, 4, 7, 64, 1_000, 4_096] {
        for reversed in [false, true] {
            let g = pipeline_graph(n, 3, reversed);
            let reduction = reduce(&g).unwrap();
            assert!(reduction.forest.len() <= 2 * g.edge_count(), "{n} {reversed}");
            let d = reduction.into_decomposition().expect("a pipeline is SP");
            validate_decomposition(&g, &d).unwrap();
            let children = d.forest.children(d.root);
            assert_eq!(children.len(), if n == 2 { 0 } else { n - 1 }, "{n} {reversed}");
            let mut at = d.source();
            for e in d.edges() {
                assert_eq!(g.tail(e), at, "{n} {reversed}");
                at = g.head(e);
            }
            assert_eq!(at, d.sink(), "{n} {reversed}");
        }
    }
}

/// What is left of a graph that is not SP is a property of the reduction
/// order, which the ladder analysis reads: pinned edge for edge (terminals by
/// name, original edges absorbed), in skeleton order.
#[test]
fn non_sp_skeletons_are_pinned_edge_for_edge() {
    let skeleton = |g: &fila::graph::Graph| -> Vec<String> {
        let r = reduce(g).unwrap();
        assert!(!r.is_sp());
        r.skeleton
            .iter()
            .map(|ve| {
                let (s, t) = (&g.node(ve.src).name, &g.node(ve.dst).name);
                format!("{s}>{t}:{}", r.forest.edge_count_in(ve.comp))
            })
            .collect()
    };
    assert_eq!(
        skeleton(&figures::fig4_crosslink(2)),
        ["X>a:1", "X>b:1", "a>Y:1", "b>Y:1", "a>b:1"]
    );
    assert_eq!(
        skeleton(&figures::fig4_butterfly(2)),
        ["X>a:1", "X>b:1", "a>c:1", "a>d:1", "b>c:1", "b>d:1", "c>Y:1", "d>Y:1"]
    );
    assert_eq!(
        skeleton(&figures::butterfly_rewritten(2)),
        ["X>a:1", "a>c:1", "a>d:1", "d>c:1", "c>Y:1", "d>Y:1", "X>d:2"]
    );
    assert_eq!(
        skeleton(&figures::fig5_ladder(2)),
        ["a>b:1", "k>m:1", "a>f:1", "j>m:1", "b>f:1", "j>k:2", "f>j:5", "b>k:5"]
    );
}
