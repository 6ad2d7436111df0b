//! Integration coverage for the planner front door: `Planner` must classify
//! each topology family and dispatch it to the matching algorithm variant —
//! SP-DAGs to the linear/quadratic SP algorithms, CS4 SP-ladders to the
//! ladder algorithms, and everything else to the exponential baseline.

use fila::avoidance::cs4::{decompose_cs4, is_cs4_by_cycle_enumeration};
use fila::avoidance::Cs4Segment;
use fila::graph::topo::topological_order;
use fila::prelude::*;
use fila::workloads::figures::{
    butterfly_rewritten, fig2_triangle, fig3_cycle, fig4_butterfly, fig5_ladder,
};
use fila::workloads::generators::{
    layered_dag, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};

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
    for g in [fig2_triangle(2), fig3_cycle()]
        .into_iter()
        .chain(generated)
    {
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
        assert!(
            matches!(d.segments.as_slice(), [Cs4Segment::Sp { comp, .. }] if *comp == only.comp)
        );
    }
}

#[test]
fn a_long_ladder_is_one_cs4_block_whatever_its_length() {
    // The side walk has no step budget: a 2 048-rung ladder is one ladder
    // block with every rung, like a short one.
    let g = random_ladder(&LadderConfig {
        rungs: 2048,
        seed: 2048,
        ..LadderConfig::default()
    });
    let d = decompose_cs4(&g).unwrap();
    let [Cs4Segment::Ladder(ladder)] = d.segments.as_slice() else {
        panic!(
            "{} segments, {} ladders",
            d.segments.len(),
            d.ladder_count()
        );
    };
    assert_eq!(ladder.rungs.len(), 2048);
    assert_eq!((ladder.left.len(), ladder.right.len()), (2050, 2050));
    assert_eq!(classify(&g).unwrap(), GraphClass::Cs4);
}

/// A SplitMix64 step: the seeded choices of the perturbed-ladder corpus.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn perturbed_ladders_are_structural_only_when_the_cycle_definition_agrees() {
    // Ladders of 2-5 rungs with one or two chords between random vertices
    // in topological order, about half of which stay CS4.  A structural class
    // must be one the cycle-level definition confirms, and the planner must
    // plan every graph under both protocols, whichever path it takes.
    let mut state = 0x5eed_1adde2u64;
    let mut structural = 0;
    for seed in 0..600u64 {
        let mut g = random_ladder(&LadderConfig {
            rungs: 2 + (seed % 4) as usize,
            seed,
            reverse_probability: 0.5,
            ..LadderConfig::default()
        });
        let order = topological_order(&g).unwrap();
        for _ in 0..1 + splitmix(&mut state) % 2 {
            let a = (splitmix(&mut state) % order.len() as u64) as usize;
            let b = (splitmix(&mut state) % order.len() as u64) as usize;
            if a != b {
                let capacity = 1 + splitmix(&mut state) % 8;
                g.add_edge(order[a.min(b)], order[a.max(b)], capacity)
                    .unwrap();
            }
        }
        let class = classify(&g).unwrap();
        if class != GraphClass::General {
            structural += 1;
            assert!(is_cs4_by_cycle_enumeration(&g), "seed {seed}: {class:?}");
        }
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            Planner::new(&g).algorithm(algorithm).plan().unwrap();
        }
    }
    assert!(
        (1..600).contains(&structural),
        "{structural} of 600 structural: the corpus must hold both kinds"
    );
}
