//! Scale demo: a 16 384-node filtered pipeline on the pooled work-stealing
//! engine — a topology size where one-OS-thread-per-node execution stops
//! being practical (16 k threads for a machine with a handful of cores).
//!
//! Run with `cargo run --release --example pooled_scale`.  Environment
//! knobs:
//!
//! * `NODES` (default 16384) — pipeline length,
//! * `INPUTS` (default 64) — sequence numbers offered at the source,
//! * `WORKERS` (default: available parallelism) — pool size.

use std::time::Instant;

use fila::prelude::*;
use fila::workloads::generators::pipeline_graph;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nodes = env_u64("NODES", 16_384) as usize;
    let inputs = env_u64("INPUTS", 64);
    let workers = env_u64("WORKERS", 0) as usize;

    // Anti-topological declaration order and a 4-deep filter: every node
    // passes only every 4th sequence number, so ~1/4 of the traffic
    // survives past the first hop.
    let g = pipeline_graph(nodes, 4, true);
    let topo = Periodic::from_fn(&g, |_| 4);

    let pool = SharedPool::new(workers);
    let start = Instant::now();
    let report = pool.submit(&topo, inputs).wait();
    let elapsed = start.elapsed();
    assert!(report.completed, "{report:?}");
    println!(
        "pooled: {nodes} nodes, {inputs} inputs -> {} messages in {elapsed:.2?} \
         ({:.2} M msg/s)",
        report.total_messages(),
        report.total_messages() as f64 / elapsed.as_secs_f64() / 1e6,
    );
}
