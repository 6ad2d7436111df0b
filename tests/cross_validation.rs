//! Experiment E11: the efficient interval algorithms agree with (or are
//! safely tighter than) the exponential cycle-enumeration baseline on
//! randomly generated topologies.

use fila::avoidance::{verify_plan, Algorithm, GraphClass, Planner};
use fila::workloads::generators::{
    random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};

#[test]
fn sp_dag_plans_are_exact_for_both_protocols() {
    for seed in 0..10u64 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 30,
            seed,
            ..Default::default()
        });
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let (class, plan) = Planner::new(&g)
                .algorithm(algorithm)
                .plan_with_class()
                .unwrap();
            assert_eq!(class, GraphClass::SeriesParallel, "seed {seed}");
            let v = verify_plan(&g, &plan).unwrap();
            assert!(v.exact, "seed {seed} {algorithm}: {}", v.summary());
        }
    }
}

#[test]
fn ladder_plans_are_safe_and_propagation_is_exact_on_simple_ladders() {
    for seed in 0..8u64 {
        let g = random_ladder(&LadderConfig {
            rungs: 6,
            seed,
            reverse_probability: 0.25,
            ..Default::default()
        });
        for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
            let (class, plan) = Planner::new(&g)
                .algorithm(algorithm)
                .plan_with_class()
                .unwrap();
            assert_eq!(class, GraphClass::Cs4, "seed {seed}");
            let v = verify_plan(&g, &plan).unwrap();
            assert!(v.safe, "seed {seed} {algorithm}: {}", v.summary());
        }
    }
}

#[test]
fn forced_exhaustive_never_disagrees_with_structural_dispatch_on_sp() {
    for seed in 20..26u64 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 24,
            seed,
            ..Default::default()
        });
        let fast = Planner::new(&g).plan().unwrap();
        let slow = Planner::new(&g).force_exhaustive(true).plan().unwrap();
        assert_eq!(fast.intervals(), slow.intervals(), "seed {seed}");
    }
}
