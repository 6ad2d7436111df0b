//! Experiment E1 (Fig. 1): the object-recognition split/join application
//! with data-dependent recognisers, run safely under a Non-Propagation plan
//! on both engines.
//!
//! ```sh
//! cargo run --example object_recognition
//! ```

use fila::prelude::*;
use fila::workloads::apps::object_recognition;

fn main() {
    let frames = 50_000;
    for (keep_left, keep_right) in [(0.5, 0.5), (0.2, 0.05), (0.02, 0.01)] {
        let (g, topo) = object_recognition(8, keep_left, keep_right, 42);
        let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let report = Simulator::new(&topo).with_plan(&plan).run(frames);
        let unprotected = Simulator::new(&topo).run(frames);
        println!(
            "recognition rates ({keep_left:.2}, {keep_right:.2}): protected = {}, \
             joined frames = {}, dummy overhead = {:.2}%, unprotected deadlocks = {}",
            if report.completed { "ok" } else { "DEADLOCK" },
            report.sink_firings,
            100.0 * report.dummy_overhead(),
            unprotected.deadlocked
        );
    }
    // The pooled engine on the most aggressive configuration.
    let (g, topo) = object_recognition(8, 0.02, 0.01, 42);
    let plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
    let pooled = SharedPool::new(0)
        .submit_with(&topo, AvoidanceMode::plan(plan), frames)
        .wait();
    println!(
        "pooled run: completed = {}, data messages = {}, dummies = {}",
        pooled.completed, pooled.data_messages, pooled.dummy_messages
    );
}
