//! Quickstart: build a filtering split/join, compute a deadlock-avoidance
//! plan, and run it on both execution engines.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fila::prelude::*;
use fila::runtime::filters::Predicate;

fn main() {
    // Fig. 2 of the paper: A -> B -> C with a bypass channel A -> C, buffers
    // of two messages each.  A filters aggressively towards C.
    let g = fila::workloads::figures::fig2_triangle(2);
    let a = g.node_by_name("A").unwrap();
    let topo = Topology::from_graph(&g).with(a, || Predicate::new(|seq, out| out == 0 || seq % 64 == 0));

    // Without avoidance the application deadlocks.
    let unprotected = Simulator::new(&topo).run(10_000);
    println!("without avoidance: deadlocked = {}", unprotected.deadlocked);

    // Compute the dummy intervals (Propagation protocol) and run again.
    let plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
    println!("{}", plan.render(&g));
    let safe = Simulator::new(&topo).with_plan(&plan).run(10_000);
    println!(
        "with avoidance: completed = {}, data = {}, dummies = {} ({:.2}% overhead)",
        safe.completed,
        safe.data_messages,
        safe.dummy_messages,
        100.0 * safe.dummy_overhead()
    );

    // The pooled engine exercises the same plan under real concurrency.
    let pooled = SharedPool::new(0)
        .submit_with(&topo, AvoidanceMode::plan(plan), 10_000)
        .wait();
    println!(
        "pooled engine: completed = {}, sink consumed {} flagged reads",
        pooled.completed, pooled.sink_firings
    );
}
