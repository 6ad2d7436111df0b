//! Experiment E26: a channel's memory follows its occupancy, not its
//! declared capacity — measured with a counting allocator, so the bounds are
//! deterministic — and a declared capacity of any size can therefore no
//! longer take the process down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use fila::prelude::*;
use fila::runtime::spsc::{self, MsgCap};
use fila::runtime::{Message, Single};
use fila::workloads::generators::pipeline_graph;

/// Live bytes, their peak, and the number of allocations.
struct Tally {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocations: AtomicUsize,
}

/// What a measured closure allocated, in bytes relative to the level it
/// started from.
struct Usage {
    /// Highest level of live bytes.
    peak: usize,
    /// Level of live bytes when it returned.
    kept: usize,
    /// Number of allocations.
    allocations: usize,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocations: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self
            .live
            .fetch_add(bytes, Ordering::Relaxed)
            .wrapping_add(bytes);
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Wrapping: a thread may free what another allocated.
    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn measured<R>(&self, f: impl FnOnce() -> R) -> (R, Usage) {
        let base = self.live.load(Ordering::Relaxed);
        let allocations = self.allocations.load(Ordering::Relaxed);
        self.peak.store(base, Ordering::Relaxed);
        let result = f();
        let usage = Usage {
            peak: self.peak.load(Ordering::Relaxed) - base,
            kept: self.live.load(Ordering::Relaxed).saturating_sub(base),
            allocations: self.allocations.load(Ordering::Relaxed) - allocations,
        };
        (result, usage)
    }
}

/// Every thread's allocations: what a pool's workers do for a job.  The
/// test harness reports results on its own thread meanwhile (a few hundred
/// bytes), so only coarse bounds are asserted against this one.
static PROCESS: Tally = Tally::new();

thread_local! {
    /// The calling thread's own allocations, for the exact assertions.
    static THREAD: Tally = const { Tally::new() };
}

struct Counting;

// SAFETY: defers to `System`; the tallies touch no allocator state (the
// thread-local is const-initialised and has no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            PROCESS.grow(layout.size());
            let _ = THREAD.try_with(|t| t.grow(layout.size()));
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        PROCESS.shrink(layout.size());
        let _ = THREAD.try_with(|t| t.shrink(layout.size()));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `PROCESS` is shared and the harness runs tests on parallel threads:
/// every test holds this while it runs.
fn alone() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `a → b → c` with one edge declared 2^40 messages deep.
fn deep_job() -> Graph {
    let mut b = GraphBuilder::new();
    b.edge_with_capacity("a", "b", 1 << 40).unwrap();
    b.edge_with_capacity("b", "c", 4).unwrap();
    b.build().unwrap()
}

const DEEP_INPUTS: u64 = 100;

fn assert_deep_reference(report: &ExecutionReport) {
    assert!(report.completed, "{report:?}");
    assert_eq!(report.per_edge_data, [DEEP_INPUTS; 2]);
    assert_eq!(report.per_edge_dummies, [0; 2]);
    assert_eq!(report.sink_firings, DEEP_INPUTS);
}

#[test]
fn a_deep_pipeline_costs_its_occupancy_per_edge() {
    let _alone = alone();
    let g = pipeline_graph(2048, 256, false);
    let topology = Topology::from_graph(&g);
    let pool = SharedPool::new(1);
    let (report, usage) = PROCESS.measured(|| pool.submit(&topology, 600).wait());
    assert!(report.completed);
    assert!(report.per_edge_data.iter().all(|&n| n == 600));
    // The flat slot arrays alone were 256 × 64 B = 16 KB per edge.
    let per_edge = usage.peak / g.edge_count();
    assert!(per_edge <= 6 * 1024, "{per_edge} B per edge");
}

#[test]
fn a_warm_ring_allocates_nothing() {
    let _alone = alone();
    let (mut tx, mut rx) = spsc::ring::<Single>(MsgCap::new(256));
    let mut cycle = |seq| {
        tx.push(Single(Message::Dummy { seq })).unwrap();
        assert_eq!(rx.pop(), Some(Single(Message::Dummy { seq })));
    };
    (0..64).for_each(&mut cycle);
    let ((), usage) = THREAD.with(|t| t.measured(|| (64..10_064).for_each(&mut cycle)));
    assert_eq!(usage.allocations, 0);
}

#[test]
fn a_filled_and_drained_ring_returns_to_two_blocks() {
    let _alone = alone();
    const CAP: usize = 4096;
    let slot = std::mem::size_of::<Single>();
    let (mut tx, mut rx) = spsc::ring::<Single>(MsgCap::new(CAP));
    let fill_and_drain = || {
        for seq in 0..CAP as u64 {
            tx.push(Single(Message::Dummy { seq })).unwrap();
        }
        assert!(
            tx.push(Single(Message::Eos)).is_err(),
            "full at its capacity in messages"
        );
        for seq in 0..CAP as u64 {
            assert_eq!(rx.pop(), Some(Single(Message::Dummy { seq })));
        }
    };
    let ((), usage) = THREAD.with(|t| t.measured(fill_and_drain));
    // The worst case — one message per container — costs a slot per message
    // (plus a link per block), as the flat array did ...
    assert!(
        (CAP * slot..CAP * slot * 9 / 8).contains(&usage.peak),
        "{} B",
        usage.peak
    );
    // ... and all of it but one spare block is handed back.
    assert!(usage.kept <= 8 * slot + 16, "{} B kept", usage.kept);
}

#[test]
fn a_huge_declared_capacity_costs_nothing_and_aborts_nothing() {
    let _alone = alone();
    let g = deep_job();
    let topology = Topology::from_graph(&g);
    let pool = SharedPool::new(1);
    let (report, usage) = PROCESS.measured(|| pool.submit(&topology, DEEP_INPUTS).wait());
    assert_deep_reference(&report);
    assert!(usage.peak < 1 << 20, "{} B", usage.peak);

    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new(g, FilterSpec::Broadcast, DEEP_INPUTS);
    let outcome = service.submit(spec.clone().unplanned()).unwrap().wait();
    assert_eq!(outcome.verdict, JobVerdict::Completed);
    assert_deep_reference(&outcome.report);
    // Planned (Non-Propagation, certified): admitted and completed, or a
    // typed rejection (today: uncertifiable within the input budget).
    match service.submit(spec) {
        Ok(ticket) => assert_deep_reference(&ticket.wait().report),
        Err(_typed) => {}
    }
}

#[test]
fn a_declared_capacity_of_u64_max_runs() {
    let _alone = alone();
    for parallel_edges in [1, 2] {
        let mut b = GraphBuilder::new();
        for _ in 0..parallel_edges {
            b.edge_with_capacity("x", "y", u64::MAX).unwrap();
        }
        let g = b.build().unwrap();
        let topology = Topology::from_graph(&g);
        let reference = Simulator::new(&topology).run(10);
        assert!(reference.completed);
        let same_as_reference = |report: &ExecutionReport| {
            assert!(report.completed, "{report:?}");
            assert_eq!(report.per_edge_data, reference.per_edge_data);
            assert_eq!(report.per_edge_dummies, reference.per_edge_dummies);
            assert_eq!(report.sink_firings, reference.sink_firings);
        };

        let pool = SharedPool::new(1);
        let plan = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap();
        for mode in [AvoidanceMode::Disabled, AvoidanceMode::plan(plan)] {
            let job = pool.submit_with(&topology, mode, 10);
            same_as_reference(&job.wait());
            assert_eq!(job.verdict(), Some(JobVerdict::Completed));
        }

        let service = JobService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let spec = JobSpec::new(g, FilterSpec::Broadcast, 10);
        let outcome = service.submit(spec.clone().unplanned()).unwrap().wait();
        assert_eq!(outcome.verdict, JobVerdict::Completed);
        same_as_reference(&outcome.report);
        // Planned: admitted and completed, or the typed rejection of a
        // fill horizon beyond the certification input budget.
        match service.submit(spec) {
            Ok(ticket) => same_as_reference(&ticket.wait().report),
            Err(RejectReason::Uncertifiable(_)) => assert_eq!(parallel_edges, 2),
            Err(other) => panic!("{other:?}"),
        }
    }
}

#[test]
fn a_huge_declared_capacity_in_a_job_file_runs() {
    let _alone = alone();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep_capacity.job");
    let job = format!(
        "job deep\n  inputs {DEEP_INPUTS}\n  algorithm none\n  \
         edge a b {}\n  edge b c 4\nend\n",
        1u64 << 40
    );
    std::fs::write(&path, job).unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_fila"))
        .arg("run")
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let row = stdout
        .lines()
        .find(|l| l.starts_with("deep"))
        .expect("a row per job");
    let columns: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(columns[1..3], ["completed", "200"], "{row}");
}
