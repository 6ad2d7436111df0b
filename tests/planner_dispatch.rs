//! Integration coverage for the planner front door: `Planner` must classify
//! each topology family and dispatch it to the matching algorithm variant —
//! SP-DAGs to the linear/quadratic SP algorithms, CS4 SP-ladders to the
//! ladder algorithms, and everything else to the exponential baseline.

use fila::avoidance::cs4::decompose_cs4;
use fila::avoidance::Cs4Segment;
use fila::prelude::*;
use fila::workloads::figures::{
    butterfly_rewritten, fig2_triangle, fig3_cycle, fig4_butterfly, fig5_ladder,
};
use fila::workloads::generators::{layered_dag, random_sp_dag, GeneratorConfig};

#[test]
fn sp_dag_dispatches_to_series_parallel_algorithms() {
    for g in [fig2_triangle(2), fig3_cycle()] {
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let (class, plan) = Planner::new(&g)
                .algorithm(algorithm)
                .plan_with_class()
                .unwrap();
            assert_eq!(class, GraphClass::SeriesParallel);
            assert_eq!(plan.algorithm(), algorithm);
        }
    }
    // The worked example of the paper's Fig. 3 pins the actual numbers: the
    // SP path computed them if the intervals match the published values.
    let g = fig3_cycle();
    let plan = Planner::new(&g)
        .algorithm(Algorithm::Propagation)
        .plan()
        .unwrap();
    let ab = g.edge_by_names("a", "b").unwrap();
    assert_eq!(plan.interval(ab), DummyInterval::Finite(6));
}

#[test]
fn cs4_ladder_dispatches_to_ladder_algorithms() {
    for g in [fig5_ladder(2), butterfly_rewritten(2)] {
        assert_eq!(classify(&g).unwrap(), GraphClass::Cs4);
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let (class, plan) = Planner::new(&g)
                .algorithm(algorithm)
                .plan_with_class()
                .unwrap();
            assert_eq!(class, GraphClass::Cs4);
            assert_eq!(plan.algorithm(), algorithm);
            // A ladder has undirected cycles through its cross-links, so a
            // correct CS4 plan must assign dummies somewhere.
            assert!(plan.channels_needing_dummies() > 0, "{algorithm}");
        }
    }
}

#[test]
fn general_dag_dispatches_to_the_exhaustive_baseline() {
    // Fig. 4's butterfly contains a K4 subdivision, and a layered random DAG
    // is neither SP nor CS4: both must fall through to the general-DAG path.
    for g in [fig4_butterfly(2), layered_dag(4, 3, 2, 7)] {
        let (class, _plan) = Planner::new(&g).plan_with_class().unwrap();
        assert_eq!(class, GraphClass::General);
    }
}

#[test]
fn forced_exhaustive_dispatch_agrees_with_the_structural_path() {
    // Dispatch is an optimisation, not a semantic choice: forcing the
    // exponential baseline onto an SP-DAG must yield the identical plan.
    let g = fig3_cycle();
    for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
        let fast = Planner::new(&g).algorithm(algorithm).plan().unwrap();
        let (class, slow) = Planner::new(&g)
            .algorithm(algorithm)
            .force_exhaustive(true)
            .plan_with_class()
            .unwrap();
        assert_eq!(class, GraphClass::General);
        assert_eq!(fast.intervals(), slow.intervals());
    }
}

#[test]
fn an_sp_dag_decomposes_to_one_skeleton_edge_and_no_ladder() {
    // What lets one planning arm serve SP-DAGs and CS4 graphs alike
    // (Theorem V.7): an SP-DAG is the serial composition with no ladder, its
    // whole component tree hanging off a single source→sink skeleton edge.
    let generated = (0..24u64).map(|seed| {
        random_sp_dag(&GeneratorConfig {
            target_edges: 1 + seed as usize * 5,
            seed,
            ..GeneratorConfig::default()
        })
        .0
    });
    for g in [fig2_triangle(2), fig3_cycle()].into_iter().chain(generated) {
        let d = decompose_cs4(&g).unwrap();
        let [only] = d.skeleton.as_slice() else {
            panic!("{} skeleton edges", d.skeleton.len());
        };
        assert_eq!((only.src, only.dst), (d.source, d.sink));
        assert_eq!(
            (d.source, d.sink),
            (g.single_source().unwrap(), g.single_sink().unwrap())
        );
        assert_eq!(d.forest.edge_count_in(only.comp), g.edge_count());
        assert_eq!(d.ladder_count(), 0);
        assert!(matches!(d.segments.as_slice(), [Cs4Segment::Sp { comp, .. }] if *comp == only.comp));
    }
}
