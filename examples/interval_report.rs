//! Experiment E3 (Fig. 3): print the dummy-interval tables for the paper's
//! worked example and cross-check them against the exponential baseline.
//!
//! Since the E17 filtering-robustness fix, the Non-Propagation intervals
//! are the integer hop-count root of the opposite slack rather than the
//! paper's rounded-up ratio, so they are strictly tighter than the figure's
//! printed `⌈8/3⌉ = 3` values.
//!
//! ```sh
//! cargo run --example interval_report
//! ```

use fila::avoidance::verify_plan;
use fila::prelude::*;

fn main() {
    let g = fila::workloads::figures::fig3_cycle();
    for algorithm in [Algorithm::Propagation, Algorithm::NonPropagation] {
        let plan = Planner::new(&g).algorithm(algorithm).plan().unwrap();
        println!("--- {algorithm} ---");
        println!("{}", plan.render(&g));
        let verification = verify_plan(&g, &plan).unwrap();
        println!("verified against exhaustive baseline: {}\n", verification.summary());
    }
}
