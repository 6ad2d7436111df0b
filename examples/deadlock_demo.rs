//! Experiment E2 (Fig. 2): demonstrate that filtering plus finite buffers
//! deadlocks, and that both avoidance protocols prevent it, across a sweep
//! of buffer sizes.
//!
//! ```sh
//! cargo run --example deadlock_demo
//! ```

use fila::prelude::*;
use fila::runtime::filters::Predicate;

fn main() {
    println!("buffer  unprotected  propagation  non-propagation  dummy-overhead(np)");
    for buffer in [1u64, 2, 4, 8, 16, 32] {
        let g = fila::workloads::figures::fig2_triangle(buffer);
        let a = g.node_by_name("A").unwrap();
        let topo =
            Topology::from_graph(&g).with(a, || Predicate::new(|seq, out| out == 0 || seq % 97 == 0));
        let inputs = 20_000;
        let unprotected = Simulator::new(&topo).run(inputs);
        let prop_plan = Planner::new(&g).algorithm(Algorithm::Propagation).plan().unwrap();
        let prop = Simulator::new(&topo).with_plan(&prop_plan).run(inputs);
        let np_plan = Planner::new(&g).algorithm(Algorithm::NonPropagation).plan().unwrap();
        let np = Simulator::new(&topo).with_plan(&np_plan).run(inputs);
        println!(
            "{:>6}  {:>11}  {:>11}  {:>15}  {:>17.3}%",
            buffer,
            if unprotected.deadlocked { "deadlock" } else { "ok" },
            if prop.completed { "ok" } else { "deadlock" },
            if np.completed { "ok" } else { "deadlock" },
            100.0 * np.dummy_overhead()
        );
    }
}
