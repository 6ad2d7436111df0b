//! Barrier snapshots on the live multi-tenant pool: checkpoint one job
//! while the pool keeps executing other jobs, restore the snapshot, and
//! cross-check the resumed job's cumulative counts against the
//! deterministic simulator; plus the crash-recovery story — a job whose
//! behaviour panics *after* a checkpoint is recovered from its last
//! snapshot and finishes with the exact uninterrupted counts.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fila::avoidance::{AvoidancePlan, IntervalMap};
use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::runtime::{AvoidanceMode, PropagationTrigger};
use fila::workloads::figures::fig2_triangle;

/// Fig. 2 with a filtering fork at `A` whose firings are slowed down, so a
/// checkpoint issued right after submission reliably lands mid-run.
fn slow_filtered_topology(g: &Graph, pause: Duration) -> Topology {
    let a = g.node_by_name("A").unwrap();
    Topology::from_graph(g).with(a, move || {
        Predicate::new(move |seq, out| {
            std::thread::sleep(pause);
            out == 0 || seq % 4 == 0
        })
    })
}

fn pipeline(n: usize) -> Graph {
    let names: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = GraphBuilder::new().default_capacity(4);
    b.chain(&refs).unwrap();
    b.build().unwrap()
}

#[test]
fn busy_pool_barrier_snapshot_restores_to_simulator_counts() {
    let inputs = 300;
    let g = fig2_triangle(4);
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap(),
    );
    let topo = slow_filtered_topology(&g, Duration::from_micros(100));
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan))
        .run(inputs);
    assert!(reference.completed);

    let pool = SharedPool::new(3);
    // A bystander job keeps the pool busy across the whole snapshot; it
    // must be completely unaffected by the barrier.
    let bystander_topo = Topology::from_graph(&pipeline(12));
    let bystander = pool.submit(&bystander_topo, 5_000);
    let handle = pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), inputs);

    // Snapshot the target while it runs.  The job is slowed enough that
    // the first checkpoint overwhelmingly lands mid-run; if it still
    // settles first, `Settled` is the documented (and correct) answer.
    let snapshot = handle.checkpoint();
    let original = handle.wait();
    assert!(original.completed, "{original:?}");
    assert_eq!(original.per_edge_data, reference.per_edge_data);
    assert!(bystander.wait().completed);

    match snapshot {
        Ok(snapshot) => {
            let resumed = pool
                .resume_full(
                    &topo,
                    AvoidanceMode::Plan(Arc::clone(&plan)),
                    PropagationTrigger::default(),
                    &snapshot,
                    None,
                )
                .expect("same topology and plan restores")
                .wait();
            // Cumulative counts: resuming from a mid-run cut reproduces
            // the uninterrupted totals exactly.
            assert!(resumed.completed, "{resumed:?}");
            assert_eq!(resumed.resumed_from, Some(snapshot.steps));
            assert_eq!(resumed.per_edge_data, reference.per_edge_data);
            assert_eq!(resumed.per_edge_dummies, reference.per_edge_dummies);
            assert_eq!(resumed.sink_firings, reference.sink_firings);
        }
        Err(err) => assert!(
            matches!(err, fila::runtime::SnapshotError::Settled(JobVerdict::Completed)),
            "{err:?}"
        ),
    }

    // Checkpointing a settled job always reports the verdict.
    assert!(matches!(
        handle.checkpoint(),
        Err(fila::runtime::SnapshotError::Settled(JobVerdict::Completed))
    ));
}

#[test]
fn panic_after_checkpoint_recovers_from_last_snapshot() {
    let inputs = 300;
    let g = fig2_triangle(4);
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap(),
    );
    let a = g.node_by_name("A").unwrap();
    let bomb = Arc::new(AtomicBool::new(false));
    let topo = {
        let bomb = Arc::clone(&bomb);
        Topology::from_graph(&g).with(a, move || {
            let bomb = Arc::clone(&bomb);
            Predicate::new(move |seq, out| {
                std::thread::sleep(Duration::from_micros(100));
                assert!(!bomb.load(Ordering::SeqCst), "injected crash at seq {seq}");
                out == 0 || seq % 4 == 0
            })
        })
    };
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan))
        .run(inputs);
    assert!(reference.completed);

    let pool = SharedPool::new(2);
    let handle = pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), inputs);
    let snapshot = handle.checkpoint();
    // Arm the bomb only after the checkpoint: the snapshot predates the
    // crash, which is exactly the recovery contract.
    bomb.store(true, Ordering::SeqCst);
    let crashed = handle.wait();

    let Ok(snapshot) = snapshot else {
        // The job finished before the checkpoint (and before the bomb).
        assert!(crashed.completed);
        return;
    };
    assert_eq!(handle.verdict(), Some(JobVerdict::Failed));
    // Recovery: disarm and restore the last snapshot; the job must finish
    // with the exact uninterrupted counts.
    bomb.store(false, Ordering::SeqCst);
    let recovered = pool
        .resume_full(
            &topo,
            AvoidanceMode::Plan(Arc::clone(&plan)),
            PropagationTrigger::default(),
            &snapshot,
            None,
        )
        .expect("snapshot predates the crash")
        .wait();
    assert!(recovered.completed, "{recovered:?}");
    assert_eq!(recovered.per_edge_data, reference.per_edge_data);
    assert_eq!(recovered.per_edge_dummies, reference.per_edge_dummies);
    assert_eq!(recovered.sink_firings, reference.sink_firings);
}

#[test]
fn snapshots_cross_container_batching_modes() {
    // The batch size is invisible on the snapshot wire: a barrier cut
    // taken on a run-batched pool flattens its containers to the exact
    // `FILASNAP` per-message state, restores into a scalar pool (batch 1),
    // and vice versa — cumulative counts land on the uninterrupted totals
    // either way.
    let inputs = 300;
    let g = fig2_triangle(4);
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap(),
    );
    let topo = slow_filtered_topology(&g, Duration::from_micros(100));
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan))
        .run(inputs);
    assert!(reference.completed);

    for (capture_batch, restore_batch) in [(64, 1), (1, 64)] {
        let capture_pool = SharedPool::with(PoolOptions {
            workers: 2,
            batch: capture_batch,
            ..PoolOptions::default()
        });
        let handle =
            capture_pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), inputs);
        let snapshot = handle.checkpoint();
        let original = handle.wait();
        assert!(original.completed, "{original:?}");
        assert_eq!(original.per_edge_data, reference.per_edge_data);
        let Ok(snapshot) = snapshot else {
            // The job outran the checkpoint (vanishingly unlikely with the
            // slowed fork); the uninterrupted counts above still hold.
            continue;
        };
        // Round-trip through the wire format: what the batched capture
        // wrote must be plain per-message `FILASNAP` state.
        let snapshot = JobSnapshot::from_bytes(&snapshot.to_bytes()).expect("wire round-trip");
        let restore_pool = SharedPool::with(PoolOptions {
            workers: 2,
            batch: restore_batch,
            ..PoolOptions::default()
        });
        let resumed = restore_pool
            .resume_full(
                &topo,
                AvoidanceMode::Plan(Arc::clone(&plan)),
                PropagationTrigger::default(),
                &snapshot,
                None,
            )
            .expect("cross-mode restore validates")
            .wait();
        assert!(resumed.completed, "{resumed:?}");
        assert_eq!(resumed.resumed_from, Some(snapshot.steps));
        assert_eq!(resumed.per_edge_data, reference.per_edge_data);
        assert_eq!(resumed.per_edge_dummies, reference.per_edge_dummies);
        assert_eq!(resumed.sink_firings, reference.sink_firings);
    }
}

#[test]
fn slower_source_stops_at_the_barrier_at_every_batch_limit() {
    // Two sources at unequal rates feeding a fork-join: the fast one runs
    // ahead by the buffered capacity, so a checkpoint picks its cursor as
    // the barrier while the slow one is still below it.  The slow source
    // must fire up to the barrier and stop *at* it — inside the batched
    // source run loop, whatever the batch limit — or its counters freeze
    // past a cut its consumers never saw.
    let inputs = 600;
    let mut b = GraphBuilder::new().default_capacity(8);
    b.edge("fast", "left").unwrap();
    b.edge("fast", "right").unwrap();
    b.edge("left", "join").unwrap();
    b.edge("right", "join").unwrap();
    b.edge("slow", "join").unwrap();
    b.edge("join", "sink").unwrap();
    let g = b.build().unwrap();
    let fast = g.node_by_name("fast").unwrap();
    let slow = g.node_by_name("slow").unwrap();
    // The slow source is paced by the test.  HELD: it stops at `HOLD`, so
    // the job cannot settle before the cut is requested, however long this
    // thread is descheduled (sleeping 100 µs per input instead lost that
    // race 1 run in 25).  CRAWL, while `checkpoint()` collects: 1 ms per
    // input, ≈ 0.6 s of margin for a cut that needs ≈ 20 of them.  FREE
    // after.  It holds *inside* a firing, with its task mutex, so the wait
    // for the fast source's lead reads an atomic rather than `observe()`.
    const HOLD: u64 = 8;
    const HELD: u8 = 0;
    const CRAWL: u8 = 1;
    const FREE: u8 = 2;
    let pace = Arc::new(AtomicU8::new(FREE)); // the reference run
    let fast_at = Arc::new(AtomicU64::new(0));
    let (slow_pace, fast_progress) = (Arc::clone(&pace), Arc::clone(&fast_at));
    let topo = Topology::from_graph(&g)
        .with(fast, move || {
            let at = Arc::clone(&fast_progress);
            Predicate::new(move |seq, out| {
                at.fetch_max(seq, Ordering::SeqCst);
                out == 0 || seq % 4 == 0
            })
        })
        .with(slow, move || {
            let pace = Arc::clone(&slow_pace);
            Predicate::new(move |seq, _| {
                while seq >= HOLD && pace.load(Ordering::SeqCst) == HELD {
                    std::thread::sleep(Duration::from_micros(100));
                }
                if pace.load(Ordering::SeqCst) == CRAWL {
                    std::thread::sleep(Duration::from_millis(1));
                }
                seq % 3 != 0
            })
        });
    // The planner wants one source; a uniform tight Non-Propagation
    // interval is safe on any DAG (smaller intervals only add dummies).
    let mut intervals = IntervalMap::for_graph(&g);
    for e in g.edge_ids() {
        intervals.set(e, DummyInterval::Finite(2));
    }
    let plan = Arc::new(AvoidancePlan::new(&g, Algorithm::NonPropagation, intervals));
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan))
        .run(inputs);
    assert!(reference.completed, "{reference:?}");
    assert!(reference.dummy_messages > 0);

    for limit in [1u32, 4, 64] {
        let pool = SharedPool::with(PoolOptions {
            workers: 2,
            batch: limit,
            ..PoolOptions::default()
        });
        pace.store(HELD, Ordering::SeqCst);
        fast_at.store(0, Ordering::SeqCst);
        let handle = pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), inputs);
        // Let the fast source build its lead over the held slow one, then cut.
        while fast_at.load(Ordering::SeqCst) < HOLD + 4 {
            std::thread::yield_now();
        }
        pace.store(CRAWL, Ordering::SeqCst);
        let snapshot = handle.checkpoint();
        pace.store(FREE, Ordering::SeqCst);
        let original = handle.wait();
        assert!(original.completed, "limit {limit}: {original:?}");
        assert_eq!(original.per_edge_data, reference.per_edge_data, "limit {limit}");
        assert_eq!(original.per_edge_dummies, reference.per_edge_dummies, "limit {limit}");
        let snapshot = snapshot.expect("the slow source crawls until the cut is taken");
        // Both sources contributed exactly at the barrier.
        assert_eq!(
            snapshot.nodes[slow.index()].next_source_seq,
            snapshot.nodes[fast.index()].next_source_seq,
            "limit {limit}"
        );
        let resumed = pool
            .resume_full(
                &topo,
                AvoidanceMode::Plan(Arc::clone(&plan)),
                PropagationTrigger::default(),
                &snapshot,
                None,
            )
            .expect("same topology and plan restores")
            .wait();
        assert!(resumed.completed, "limit {limit}: {resumed:?}");
        assert_eq!(resumed.per_edge_data, reference.per_edge_data, "limit {limit}");
        assert_eq!(resumed.per_edge_dummies, reference.per_edge_dummies, "limit {limit}");
        assert_eq!(resumed.sink_firings, reference.sink_firings, "limit {limit}");
    }
}

#[test]
fn pool_restore_rejects_drifted_plan_and_foreign_bytes() {
    let inputs = 200;
    let g = fig2_triangle(4);
    let prop = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap(),
    );
    let nonprop = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .plan()
            .unwrap(),
    );
    let topo = slow_filtered_topology(&g, Duration::from_micros(100));
    let pool = SharedPool::new(2);
    let handle = pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&prop)), inputs);
    let Ok(snapshot) = handle.checkpoint() else {
        // Vanishingly unlikely with the slowed source; nothing to assert.
        return;
    };
    let _ = handle.wait();

    // Plan drift: same topology, different certified intervals.
    assert!(matches!(
        pool.resume_full(
            &topo,
            AvoidanceMode::Plan(Arc::clone(&nonprop)),
            PropagationTrigger::default(),
            &snapshot,
            None,
        ),
        Err(RestoreError::PlanMismatch(_))
    ));
    // Wire-level: a corrupted version byte is rejected before any
    // validation against the pool.
    let mut bytes = snapshot.to_bytes();
    bytes[8] = 0x63;
    assert!(matches!(
        JobSnapshot::from_bytes(&bytes),
        Err(RestoreError::VersionMismatch { .. })
    ));
    // The unmodified snapshot restores fine.
    let resumed = pool
        .resume_full(
            &topo,
            AvoidanceMode::Plan(prop),
            PropagationTrigger::default(),
            &snapshot,
            None,
        )
        .expect("original plan restores");
    assert!(resumed.wait().completed);
}

#[test]
fn checkpoint_resume_checkpoint_chain_never_double_counts() {
    // Crash-recovery archives are chains, not single hops: a restored job
    // must itself be checkpointable, and a snapshot taken *from the
    // resumed generation* must carry the cumulative counters forward —
    // resuming it reproduces the uninterrupted totals exactly (nothing
    // from the first generation is replayed or counted twice).
    let inputs = 400;
    let g = fig2_triangle(4);
    let plan = Arc::new(
        Planner::new(&g)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap(),
    );
    let topo = slow_filtered_topology(&g, Duration::from_micros(100));
    let reference = Simulator::new(&topo)
        .with_shared_plan(Arc::clone(&plan))
        .run(inputs);
    assert!(reference.completed);

    let pool = SharedPool::new(2);
    let first = pool.submit_with(&topo, AvoidanceMode::Plan(Arc::clone(&plan)), inputs);
    let Ok(snapshot1) = first.checkpoint() else {
        // The job outran its first checkpoint; the chain has nothing to
        // exercise (vanishingly unlikely with the slowed fork).
        assert!(first.wait().completed);
        return;
    };
    assert!(first.wait().completed);

    // Generation 2: resume the cut, then checkpoint the *resumed* run.
    let second = pool
        .resume_full(
            &topo,
            AvoidanceMode::Plan(Arc::clone(&plan)),
            PropagationTrigger::default(),
            &snapshot1,
            None,
        )
        .expect("generation-1 snapshot restores");
    let snapshot2 = second.checkpoint();
    let second_report = second.wait();
    assert!(second_report.completed, "{second_report:?}");
    assert_eq!(second_report.per_edge_data, reference.per_edge_data);
    assert_eq!(second_report.per_edge_dummies, reference.per_edge_dummies);

    let Ok(snapshot2) = snapshot2 else {
        // Generation 2 settled before its checkpoint; the counts above
        // already pin the no-double-counting contract for the first hop.
        return;
    };
    // Counters are cumulative across the chain, never reset per
    // generation and never replayed into the next one.
    assert!(
        snapshot2.steps >= snapshot1.steps,
        "generation-2 cut ({}) precedes generation-1 cut ({})",
        snapshot2.steps,
        snapshot1.steps
    );
    for (e, (d2, d1)) in snapshot2
        .per_edge_data
        .iter()
        .zip(&snapshot1.per_edge_data)
        .enumerate()
    {
        assert!(d2 >= d1, "edge {e}: generation-2 data count {d2} < generation-1 {d1}");
    }

    // Generation 3: resume the second-generation cut; the totals must be
    // the uninterrupted reference, bit-exactly.
    let third = pool
        .resume_full(
            &topo,
            AvoidanceMode::Plan(Arc::clone(&plan)),
            PropagationTrigger::default(),
            &snapshot2,
            None,
        )
        .expect("generation-2 snapshot restores")
        .wait();
    assert!(third.completed, "{third:?}");
    assert_eq!(third.resumed_from, Some(snapshot2.steps));
    assert_eq!(third.per_edge_data, reference.per_edge_data);
    assert_eq!(third.per_edge_dummies, reference.per_edge_dummies);
    assert_eq!(third.sink_firings, reference.sink_firings);
}

#[test]
fn deep_buffer_cuts_are_aligned_and_restore_at_any_batch_limit() {
    // Capacity-64 channels under batches up to 64 messages: when a cut is
    // requested, whole runs are in flight on every hop and the relay nodes
    // (default `Broadcast`) are moving them a run at a time.  Wherever the
    // barrier `k` falls relative to those runs, every node must contribute
    // having fired exactly `0..k` — so the snapshot is a function of `k`
    // alone — and the cut must restore, at any other batch size, to the
    // uninterrupted totals.
    use fila::runtime::{FireInput, Payload};
    let inputs = 2_000;
    let pipeline = {
        let mut b = GraphBuilder::new().default_capacity(64);
        b.chain(&["src", "hub", "mid", "sink0"]).unwrap();
        b.build().unwrap()
    };
    let fanout = {
        let mut b = GraphBuilder::new().default_capacity(64);
        b.edge("src", "hub").unwrap();
        for sink in ["sink0", "sink1", "sink2"] {
            b.edge("hub", sink).unwrap();
        }
        b.build().unwrap()
    };
    let mut mid_run = 0;
    for g in [&pipeline, &fanout] {
        // Sinks pause every 16th message, so the job outlives the request
        // and its buffers stay full behind them.
        let mut topo = Topology::from_graph(g);
        for n in g.node_ids().filter(|&n| g.out_degree(n) == 0) {
            topo = topo.with(n, || {
                |input: &FireInput<'_>, _: &mut [Option<Payload>]| {
                    if input.seq % 16 == 0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            });
        }
        let reference = Simulator::new(&topo).run(inputs);
        assert!(reference.completed);
        let limits = [1u32, 4, 17, 64];
        for (i, &capture) in limits.iter().enumerate() {
            for delay_ms in [1, 4, 8] {
                let restore = limits[(i + 1 + delay_ms as usize % 3) % 4];
                let what = format!(
                    "{} nodes, batch {capture} -> {restore}, {delay_ms} ms",
                    g.node_count()
                );
                let pool = SharedPool::with(PoolOptions {
                    workers: 2,
                    batch: capture,
                    ..PoolOptions::default()
                });
                let handle = pool.submit(&topo, inputs);
                std::thread::sleep(Duration::from_millis(delay_ms));
                let snapshot = handle.checkpoint();
                let original = handle.wait();
                assert_eq!(original.per_edge_data, reference.per_edge_data, "{what}");
                assert_eq!(original.per_node_firings, reference.per_node_firings, "{what}");
                let Ok(snapshot) = snapshot else {
                    continue; // the job settled first
                };
                // Aligned: nothing in flight, every node exactly at `k`.
                let k = snapshot.nodes[g.node_by_name("src").unwrap().index()].next_source_seq;
                mid_run += usize::from(0 < k && k < inputs);
                for (n, node) in snapshot.nodes.iter().enumerate() {
                    assert_eq!(node.firings, k.min(inputs), "{what}: node {n} at barrier {k}");
                    assert!(node.staged.is_empty(), "{what}: node {n}");
                }
                assert!(snapshot.per_edge_data.iter().all(|&d| d == k.min(inputs)), "{what}");
                let bytes = snapshot.to_bytes();
                let decoded = JobSnapshot::from_bytes(&bytes).expect("wire round-trip");
                assert_eq!(decoded, snapshot, "{what}");
                assert_eq!(decoded.to_bytes(), bytes, "{what}");

                let restore_pool = SharedPool::with(PoolOptions {
                    workers: 2,
                    batch: restore,
                    ..PoolOptions::default()
                });
                let resumed = restore_pool
                    .resume_full(&topo, AvoidanceMode::Disabled, PropagationTrigger::default(), &decoded, None)
                    .expect("same topology restores")
                    .wait();
                assert!(resumed.completed, "{what}: {resumed:?}");
                assert_eq!(resumed.per_edge_data, reference.per_edge_data, "{what}");
                assert_eq!(resumed.per_node_firings, reference.per_node_firings, "{what}");
                assert_eq!(resumed.sink_firings, reference.sink_firings, "{what}");
            }
        }
    }
    assert!(mid_run > 0, "no cut landed mid-run: the pacing is too fast for this host");
}
