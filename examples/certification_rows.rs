//! Certification's rows on `admit_cold`-like shapes, one at a time: how
//! many turns each row steps, the `steps` it reports, whether the
//! steady-state fast-forward skipped, and how long it took (DESIGN.md
//! "Steady-state fast-forward (E25)", EXPERIMENTS.md E43).
//!
//! The corpus is `--seeds N` seeds `s` (default 2), each with random SP
//! DAGs of 128/256/512 edges (fan-out 4, capacities 2..8, period-3 forks)
//! and CS4 ladders of 192/256 edges (`edges / 3` rungs, period-3 source),
//! generated with seed `s·7919 + edges`.  Every shape gets a
//! Non-Propagation plan and is run at the `certification_inputs` budget,
//! row by row as `certification_rows` lays them out, each row observed by
//! `SteadyState` exactly as certification observes it.  The step bound is
//! unlimited: every row of this corpus completes well inside
//! certification's own.
//!
//! ```sh
//! cargo run --release --example certification_rows -- --seeds 24
//! ```

use std::time::{Duration, Instant};

use fila::avoidance::model::{periodic_emits, AvoidanceMode, Engine, Halt, Payload, SteadyState};
use fila::avoidance::verify::{certification_inputs, certification_rows, AdversaryPattern};
use fila::avoidance::{Algorithm, Planner};
use fila::graph::{Graph, NodeId};
use fila::workloads::generators::{random_ladder, random_sp_dag, GeneratorConfig, LadderConfig};

/// What one row did.
struct Row {
    turns: u64,
    steps: u64,
    skipped: bool,
    completed: bool,
    time: Duration,
}

/// One row of a certification of `g` under `periods`: the declared profile
/// (`pattern: None`) or an adversary, with the firing rule certification's
/// rows use.
fn run_row(
    g: &Graph,
    mode: &AvoidanceMode,
    periods: &[u64],
    pattern: Option<AdversaryPattern>,
    inputs: u64,
) -> Row {
    let start = Instant::now();
    let mut fire = |n: NodeId, seq: u64, _: &[Option<Payload>], emit: &mut [Option<Payload>]| {
        let (period, outs) = (periods[n.index()], emit.len());
        for (j, slot) in emit.iter_mut().enumerate() {
            let emits = match pattern {
                Some(pattern) if period > 1 => pattern(n.index(), j, outs),
                _ => periodic_emits(period, seq, j),
            };
            *slot = emits.then_some(0);
        }
    };
    let rule = if pattern.is_some() { &[] } else { periods };
    let mut steady = SteadyState::new(g, rule, inputs);
    let mut engine = Engine::new(g, mode, inputs);
    let mut turns = 0;
    let halt = engine.run_worklist_observed(&mut fire, u64::MAX, false, |engine, node| {
        turns += 1;
        steady.observe(engine, node, u64::MAX);
    });
    Row {
        turns,
        steps: engine.steps,
        skipped: steady.skip().is_some(),
        completed: halt == Halt::Completed,
        time: start.elapsed(),
    }
}

/// The shapes of one seed: `(label, graph, periods)`.
fn shapes(seed: u64) -> Vec<(String, Graph, Vec<u64>)> {
    let mut shapes = Vec::new();
    for edges in [128, 256, 512] {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: edges,
            max_fanout: 4,
            capacity_range: (2, 8),
            seed: seed * 7919 + edges as u64,
        });
        let periods = g
            .node_ids()
            .map(|n| if g.out_degree(n) > 1 { 3 } else { 1 })
            .collect();
        shapes.push((format!("sp{edges}"), g, periods));
    }
    for edges in [192, 256] {
        let g = random_ladder(&LadderConfig {
            rungs: edges / 3,
            capacity_range: (2, 8),
            reverse_probability: 0.3,
            seed: seed * 7919 + edges as u64,
        });
        let periods = g
            .node_ids()
            .map(|n| if g.in_degree(n) == 0 { 3 } else { 1 })
            .collect();
        shapes.push((format!("ladder{edges}"), g, periods));
    }
    shapes
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seeds = match args.iter().position(|a| a == "--seeds") {
        Some(at) => args
            .get(at + 1)
            .and_then(|n| n.parse().ok())
            .expect("--seeds N"),
        None => 2,
    };
    println!("seed shape row(adversaries) turns steps skipped completed time_us");
    let mut rows = Vec::new();
    for seed in 0..seeds {
        for (label, g, periods) in shapes(seed) {
            let plan = Planner::new(&g)
                .algorithm(Algorithm::NonPropagation)
                .plan()
                .expect("generated SP DAGs and ladders have a plan");
            let mode = AvoidanceMode::plan(plan);
            let inputs = certification_inputs(&g);
            let (patterns, adversaries) = certification_rows(&g, &periods);
            for (at, &pattern) in patterns.iter().enumerate() {
                let names: Vec<&str> = (adversaries.iter())
                    .filter(|&&(_, row)| row == at)
                    .map(|&(name, _)| name)
                    .collect();
                let name = if at == 0 {
                    "declared".to_string()
                } else {
                    names.join("+")
                };
                let row = run_row(&g, &mode, &periods, pattern, inputs);
                println!(
                    "{seed} {label} {name} {} {} {} {} {}",
                    row.turns,
                    row.steps,
                    row.skipped,
                    row.completed,
                    row.time.as_micros()
                );
                rows.push(row);
            }
        }
    }
    let time = |stepped_only: bool| {
        let rows = rows.iter().filter(|r| !(stepped_only && r.skipped));
        rows.map(|r| r.time).sum::<Duration>().as_secs_f64()
    };
    println!(
        "{} rows, {} completed, {} turns stepped, {} steps; {} never fast-forwarded, \
         {:.1} % of {:.2} s of row time",
        rows.len(),
        rows.iter().filter(|r| r.completed).count(),
        rows.iter().map(|r| r.turns).sum::<u64>(),
        rows.iter().map(|r| r.steps).sum::<u64>(),
        rows.iter().filter(|r| !r.skipped).count(),
        100.0 * time(true) / time(false),
        time(false),
    );
}
