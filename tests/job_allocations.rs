//! Experiment E41: a job costs its messages, not its nodes.  Submitting a
//! job builds one task per node and one ring per edge, and what that costs
//! is counted here with a counting allocator, so the bounds are
//! deterministic: allocations per node of a submission and of a simulated
//! run, allocations of a small warm job, and every byte of a job handed
//! back however it ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::runtime::{Batch, JobHandle};
use fila::workloads::generators::pipeline_graph;

/// Live bytes and the number of allocations.
struct Tally {
    live: AtomicUsize,
    allocations: AtomicUsize,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            live: AtomicUsize::new(0),
            allocations: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        self.live.fetch_add(bytes, Ordering::Relaxed);
        self.allocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Wrapping: a thread may free what another allocated.
    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The allocations `f` made.
    fn allocations_of<R>(&self, f: impl FnOnce() -> R) -> (R, usize) {
        let before = self.allocations.load(Ordering::Relaxed);
        let result = f();
        (result, self.allocations.load(Ordering::Relaxed) - before)
    }
}

/// Every thread's allocations: a job's bytes are allocated by the
/// submitter and by the workers, and freed by whoever drops them last.
static PROCESS: Tally = Tally::new();

thread_local! {
    /// The calling thread's own allocations: what a submission costs the
    /// submitter, without the running job's.
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

/// The submitting thread's allocations for one unplanned `nodes`-node
/// pipeline, on a service that has run the same shape once already.
fn submit_allocations(service: &JobService, nodes: usize) -> usize {
    let spec =
        || JobSpec::new(pipeline_graph(nodes, 4, false), FilterSpec::Broadcast, 16).unplanned();
    assert!(service.submit(spec()).unwrap().wait().report.completed);
    let spec = spec();
    let (ticket, allocations) = THREAD.with(|t| t.allocations_of(|| service.submit(spec)));
    assert!(ticket.unwrap().wait().report.completed);
    allocations
}

#[test]
fn a_submission_costs_few_allocations_per_node() {
    let _alone = alone();
    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let small = submit_allocations(&service, 1024);
    let large = submit_allocations(&service, 4096);
    let per_node = (large - small) as f64 / 3072.0;
    println!("submit: {small} allocations at 1024 nodes, {large} at 4096: {per_node:.2} a node");
    assert!(per_node <= 4.0, "{per_node:.2} allocations a node");
}

/// The calling thread's allocations for one `run(0)` of an unfiltered
/// `nodes`-node pipeline in the simulator.
fn simulator_allocations(nodes: usize) -> usize {
    let g = pipeline_graph(nodes, 4, false);
    let program = Periodic::new(&g, vec![1; nodes]);
    let (report, allocations) =
        THREAD.with(|t| t.allocations_of(|| Simulator::new(&program).run(0)));
    assert!(report.completed);
    allocations
}

/// The simulator holds a default broadcast inline, as the pool does: what a
/// run allocates per node is the model's, one queue per channel (each
/// channel carries its end-of-stream marker), and no behaviour.
#[test]
fn a_simulated_run_allocates_no_behaviour_per_default_node() {
    let _alone = alone();
    let small = simulator_allocations(64);
    let large = simulator_allocations(1024);
    let per_node = (large - small) as f64 / 960.0;
    println!("run(0): {small} allocations at 64 nodes, {large} at 1024: {per_node:.2} a node");
    assert!(per_node <= 1.0, "{per_node:.2} allocations a node");
}

/// A 9-node, 10-edge series-parallel DAG, two diamonds in series, whose
/// source filters with period 3.
fn small_sp() -> JobSpec {
    let mut b = GraphBuilder::new().default_capacity(4);
    for (from, to) in [
        ("s", "a"),
        ("s", "b"),
        ("a", "c"),
        ("b", "c"),
        ("c", "d"),
        ("d", "e"),
        ("d", "f"),
        ("e", "g"),
        ("f", "g"),
        ("g", "t"),
    ] {
        b.edge(from, to).unwrap();
    }
    JobSpec::new(b.build().unwrap(), FilterSpec::Fork(3), 64)
}

#[test]
fn a_warm_small_job_costs_few_allocations() {
    let _alone = alone();
    let service = JobService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    assert!(service.submit(small_sp()).unwrap().wait().report.completed);
    let spec = small_sp();
    let (ticket, allocations) = THREAD.with(|t| t.allocations_of(|| service.submit(spec)));
    let ticket = ticket.unwrap();
    assert_eq!(ticket.cache_hit, Some(true), "the plan is warm");
    assert!(ticket.wait().report.completed);
    println!("a warm 9-node job: {allocations} allocations");
    assert!(allocations <= 60, "{allocations} allocations");
}

fn fig2(buffer: u64) -> Graph {
    let mut b = GraphBuilder::new().default_capacity(buffer);
    b.edge("A", "B").unwrap();
    b.edge("B", "C").unwrap();
    b.edge("A", "C").unwrap();
    b.build().unwrap()
}

/// Fills the calling thread's container recycling pool, asking for more
/// containers than it holds, so a container dropped here afterwards is
/// freed rather than kept for reuse.
fn fill_recycling_pool() {
    drop((0..1024).map(|_| Batch::new()).collect::<Vec<_>>());
}

/// Runs one job on a pool of its own, and checks that every byte the pool
/// and the job allocated is freed once the handle and then the pool are
/// dropped.  A job's containers are recycled by the threads that drop them,
/// so the byte count is exact only once the workers' recycling pools have
/// gone with the workers; the calling thread's is full beforehand.  That
/// the handle is the job's last owner however it ends is
/// `shared_pool::tests::a_jobs_memory_is_released_however_it_ends`.
fn hands_back(what: &str, workers: usize, run: impl FnOnce(&SharedPool) -> JobHandle) {
    fill_recycling_pool();
    let base = PROCESS.live();
    let pool = SharedPool::new(workers);
    let job = run(&pool);
    drop(job);
    drop(pool);
    let kept = PROCESS.live() as isize - base as isize;
    assert_eq!(kept, 0, "{what}: {kept} bytes kept");
}

#[test]
fn a_jobs_bytes_are_handed_back_however_it_ends() {
    let _alone = alone();
    // Whatever the first pool of the process allocates once and for all.
    drop(SharedPool::new(2));

    let chain = Topology::from_graph(&pipeline_graph(256, 8, false));
    hands_back("completed", 2, |pool| {
        let job = pool.submit(&chain, 200);
        assert!(job.wait().completed);
        job
    });

    // Fig. 2 without avoidance, its fork filtering the A -> C output
    // completely: C waits on A -> C forever, behind it B and A block.
    let g = fig2(2);
    let a = g.node_by_name("A").unwrap();
    let wedged = Topology::from_graph(&g).with(a, || Predicate::new(|_, out| out == 0));
    hands_back("deadlocked", 2, |pool| {
        let job = pool.submit(&wedged, 100);
        assert!(job.wait().deadlocked);
        job
    });

    let g = pipeline_graph(64, 4, false);
    let n1 = g.node_by_name("n1").unwrap();
    let bad = Topology::from_graph(&g).with(n1, || {
        Predicate::new(|seq, _| seq < 40 || panic!("blew up at {seq}"))
    });
    // Quietly: the default hook's backtrace caches symbols for good.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    hands_back("failed", 2, |pool| {
        let job = pool.submit(&bad, 100);
        job.wait();
        assert_eq!(job.verdict(), Some(JobVerdict::Failed));
        job
    });
    std::panic::set_hook(hook);

    // Cancelled while queued behind a slice that waits for the test to
    // open the gate.
    let gate = Arc::new(Mutex::new(()));
    let entered = Arc::new(AtomicBool::new(false));
    let source = g.single_source().unwrap();
    let (gate_in, entered_in) = (Arc::clone(&gate), Arc::clone(&entered));
    let gated = Topology::from_graph(&g).with(source, move || {
        let (gate, entered) = (Arc::clone(&gate_in), Arc::clone(&entered_in));
        Predicate::new(move |_, _| {
            entered.store(true, Ordering::SeqCst);
            drop(gate.lock().unwrap_or_else(|e| e.into_inner()));
            true
        })
    });
    hands_back("cancelled", 1, |pool| {
        let closed = gate.lock().unwrap();
        let holding = pool.submit(&gated, 100);
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let job = pool.submit(&chain, 200);
        assert!(job.cancel());
        drop(closed);
        assert!(holding.wait().completed);
        assert_eq!(job.verdict(), Some(JobVerdict::Cancelled));
        job
    });

    // The pool dropped under a live job: cancelled, and its bytes freed
    // when the handle goes.
    let slow = Topology::from_graph(&g).with(source, || {
        Predicate::new(|_, _| {
            std::thread::sleep(Duration::from_millis(1));
            true
        })
    });
    fill_recycling_pool();
    let base = PROCESS.live();
    let job = {
        let pool = SharedPool::new(1);
        pool.submit(&slow, 10_000)
    };
    assert_eq!(job.verdict(), Some(JobVerdict::Cancelled));
    drop(job);
    let kept = PROCESS.live() as isize - base as isize;
    assert_eq!(kept, 0, "dropped pool: {kept} bytes kept");
}
