//! Fuzzing the snapshot wire codec: `JobSnapshot::from_bytes` is the one
//! decoder that eats bytes from *outside* the process (checkpoint stores,
//! crash-recovery archives, the chaos storm's deliberately corrupted
//! blobs), so it must never panic and never let a corrupted length field
//! drive an allocation — whatever it is fed: random garbage, bit-flipped
//! real snapshots, truncations, or absurd declared lengths.  Every
//! rejection must be a typed [`RestoreError`].

use std::sync::OnceLock;

use fila::prelude::*;
use fila::runtime::filters::Predicate;
use fila::runtime::{Message, PropagationTrigger};
use fila::workloads::figures::fig2_triangle;
use fila::workloads::generators::periodic_filtered_topology;
use proptest::prelude::*;

/// Real snapshot buffers killed at several depths: a bare pipeline (data
/// messages and staged sends only) and a planned filtering triangle
/// (dummies in flight, gap counters, Eos markers).  Built once — the
/// corpus is the honest half of every mutation strategy below.
fn corpus() -> &'static Vec<Vec<u8>> {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Vec::new();
        let mut b = GraphBuilder::new().default_capacity(3);
        b.chain(&["s", "m0", "m1", "sink"]).unwrap();
        let pipeline = b.build().unwrap();
        let bare = periodic_filtered_topology(&pipeline, |_| 1);
        let triangle = fig2_triangle(3);
        let plan = Planner::new(&triangle)
            .algorithm(Algorithm::Propagation)
            .plan()
            .unwrap();
        let fork = triangle.node_by_name("A").unwrap();
        let filtered = periodic_filtered_topology(&triangle, |n| if n == fork { 2 } else { 1 });
        for kill_at in [1, 7, 40, 200] {
            for (topology, plan) in [(&bare, None), (&filtered, Some(&plan))] {
                let sim = match plan {
                    Some(p) => Simulator::new(topology).with_plan(p),
                    None => Simulator::new(topology),
                };
                if let CheckpointOutcome::Killed(snapshot) = sim.run_with_checkpoint(120, kill_at)
                {
                    corpus.push(snapshot.to_bytes());
                }
            }
        }
        assert!(corpus.len() >= 6, "corpus kills must land mid-run");
        corpus
    })
}

/// splitmix64 — derives the mutation coordinates (corpus pick, offset,
/// bit, bomb value) from the single proptest seed, since the vendored
/// proptest shim generates one strategy argument per test.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes: decode returns, it never panics.  (An OOM from a
    /// corrupted length field would abort the whole test binary, so this
    /// also pins the allocation guard.)
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = JobSnapshot::from_bytes(&bytes);
    }

    /// Random garbage behind a *valid* magic + version header — the
    /// adversarial case the magic check no longer shields.
    #[test]
    fn garbage_behind_valid_header_never_panics(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let mut buf = corpus[mix(seed) as usize % corpus.len()][..12].to_vec();
        let n = (mix(seed ^ 1) % 384) as usize;
        buf.extend((0..n).map(|i| mix(seed ^ (i as u64) << 9) as u8));
        let _ = JobSnapshot::from_bytes(&buf);
    }

    /// Every strict prefix of a real snapshot is rejected with a typed
    /// error (the parse is deterministic, so a cut buffer must run out of
    /// bytes or fail a length bound before the trailing-bytes check).
    #[test]
    fn truncations_error_cleanly(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let full = &corpus[mix(seed) as usize % corpus.len()];
        let len = mix(seed ^ 2) as usize % full.len();
        prop_assert!(JobSnapshot::from_bytes(&full[..len]).is_err());
    }

    /// A single flipped bit anywhere: decode returns Ok or a typed Err,
    /// never a panic; flips inside the magic/version header always reject.
    #[test]
    fn bit_flips_never_panic(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let mut bytes = corpus[mix(seed) as usize % corpus.len()].clone();
        let pos = mix(seed ^ 3) as usize % bytes.len();
        bytes[pos] ^= 1 << (mix(seed ^ 4) % 8);
        let decoded = JobSnapshot::from_bytes(&bytes);
        if pos < 12 {
            prop_assert!(decoded.is_err(), "corrupted header byte {} decoded", pos);
        }
    }

    /// Length-field bombs: stamp `u64::MAX` (and friends) over any
    /// 8-byte window of a real snapshot.  The reader bounds every
    /// declared count by the bytes actually remaining, so the decode must
    /// return (with an error or a reinterpreted-but-valid snapshot)
    /// instead of attempting a multi-exabyte allocation.
    #[test]
    fn huge_declared_lengths_never_allocate(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let mut bytes = corpus[mix(seed) as usize % corpus.len()].clone();
        let bomb = match mix(seed ^ 5) % 4 {
            0 => u64::MAX,
            1 => u64::MAX / 8,
            2 => 1u64 << 56,
            _ => (1u64 << 32) | mix(seed ^ 6),
        };
        let pos = mix(seed ^ 7) as usize % bytes.len();
        let end = (pos + 8).min(bytes.len());
        bytes[pos..end].copy_from_slice(&bomb.to_le_bytes()[..end - pos]);
        let _ = JobSnapshot::from_bytes(&bytes);
    }

    /// The honest half: every corpus buffer round-trips bit-exactly.
    #[test]
    fn corpus_round_trips(seed in 0u64..u64::MAX) {
        let corpus = corpus();
        let bytes = &corpus[mix(seed) as usize % corpus.len()];
        let decoded = JobSnapshot::from_bytes(bytes).expect("own bytes decode");
        prop_assert_eq!(&decoded.to_bytes(), bytes);
    }
}

/// The header byte that named the Propagation trigger when there were two
/// is written as 0; any other value is refused as corrupted.
#[test]
fn a_nonzero_trigger_byte_is_refused_as_corrupted() {
    for bytes in corpus() {
        let snapshot = JobSnapshot::from_bytes(bytes).unwrap();
        let opt_len = |v: Option<u64>| if v.is_some() { 9 } else { 1 };
        // Magic, version and labelled topology, then the three optional ids.
        let header = 8 + 4 + 8;
        let at = header
            + opt_len(snapshot.fingerprint)
            + opt_len(snapshot.filter_signature)
            + opt_len(snapshot.plan_digest);
        assert_eq!(bytes[at], 0);
        for value in [1, 2, 0xFF] {
            let mut doctored = bytes.clone();
            doctored[at] = value;
            let decoded = JobSnapshot::from_bytes(&doctored);
            assert!(
                matches!(decoded, Err(RestoreError::Corrupted(_))),
                "{value}: {decoded:?}"
            );
        }
    }
}

/// A channel whose sequence numbers do not strictly increase — in flight,
/// or staged by its producer — is refused as corrupted by both engines,
/// though every count and edge in the cut fits the topology.
#[test]
fn out_of_order_sequence_numbers_are_refused_as_corrupted() {
    let mut b = GraphBuilder::new().default_capacity(3);
    b.chain(&["s", "m0", "m1", "sink"]).unwrap();
    let pipeline = b.build().unwrap();
    let triangle = fig2_triangle(3);
    let plan = Planner::new(&triangle)
        .algorithm(Algorithm::Propagation)
        .plan()
        .unwrap();
    let fork = triangle.node_by_name("A").unwrap();
    let pool = SharedPool::new(1);
    let (mut channels, mut staged) = (0, 0);
    for (topology, mode) in [
        (
            periodic_filtered_topology(&pipeline, |_| 1),
            AvoidanceMode::Disabled,
        ),
        (
            periodic_filtered_topology(&triangle, |n| if n == fork { 2 } else { 1 }),
            AvoidanceMode::plan(plan.clone()),
        ),
        // Fig. 2's deadlock: full channels leave sends staged.
        (
            Topology::from_graph(&triangle).with(fork, || Predicate::new(2, |_, out| out == 0)),
            AvoidanceMode::Disabled,
        ),
    ] {
        let sim = Simulator::new(&topology).avoidance(mode.clone());
        let refused = |cut: &JobSnapshot| {
            let trigger = PropagationTrigger::default();
            let pooled = pool.resume_full(&topology, mode.clone(), trigger, cut, None);
            matches!(sim.resume(cut), Err(RestoreError::Corrupted(_)))
                && matches!(pooled, Err(RestoreError::Corrupted(_)))
        };
        for kill_at in 1..80 {
            let CheckpointOutcome::Killed(cut) = sim.run_with_checkpoint(120, kill_at) else {
                continue;
            };
            assert!(
                sim.resume(&cut).is_ok(),
                "kill {kill_at}: the honest cut resumes"
            );
            // Two in-flight messages swapped.
            if let Some(e) = cut.channels.iter().position(|c| c.len() >= 2) {
                let mut swapped = (*cut).clone();
                swapped.channels[e].swap(0, 1);
                assert!(refused(&swapped), "kill {kill_at}: channel {e}");
                channels += 1;
            }
            // A staged message followed by a lower-numbered one on its edge.
            for (node, ns) in cut.nodes.iter().enumerate() {
                let Some(&(edge, m)) = ns
                    .staged
                    .iter()
                    .find(|(_, m)| (1..u64::MAX).contains(&m.seq()))
                else {
                    continue;
                };
                let mut behind = (*cut).clone();
                behind.nodes[node]
                    .staged
                    .push((edge, Message::Dummy { seq: m.seq() - 1 }));
                assert!(refused(&behind), "kill {kill_at}: node {node} edge {edge}");
                staged += 1;
            }
        }
    }
    assert!(
        channels > 0 && staged > 0,
        "{channels} channel and {staged} staged cases"
    );
}

/// No engine's cut holds two staged messages on one channel, so a cut that
/// does is refused as corrupted by both engines — even one made from an
/// honest cut by moving the last in-flight message back into staging, where
/// order and the channel's capacity still hold.
#[test]
fn a_second_staged_message_on_a_channel_is_refused_as_corrupted() {
    let mut b = GraphBuilder::new().default_capacity(3);
    b.chain(&["s", "m0", "m1", "sink"]).unwrap();
    let pipeline = b.build().unwrap();
    let triangle = fig2_triangle(3);
    let fork = triangle.node_by_name("A").unwrap();
    let pool = SharedPool::new(1);
    let mut cases = 0;
    for topology in [
        periodic_filtered_topology(&pipeline, |_| 1),
        // Fig. 2's deadlock: full channels leave sends staged.
        Topology::from_graph(&triangle).with(fork, || Predicate::new(2, |_, out| out == 0)),
    ] {
        let sim = Simulator::new(&topology);
        for kill_at in 1..80 {
            let CheckpointOutcome::Killed(cut) = sim.run_with_checkpoint(120, kill_at) else {
                continue;
            };
            for (node, ns) in cut.nodes.iter().enumerate() {
                for (at, &(edge, _)) in ns.staged.iter().enumerate() {
                    let mut doubled = (*cut).clone();
                    let Some(moved) = doubled.channels[edge as usize].pop() else {
                        continue;
                    };
                    doubled.nodes[node].staged.insert(at, (edge, moved));
                    let trigger = PropagationTrigger::default();
                    let pooled = pool.resume_full(
                        &topology,
                        AvoidanceMode::Disabled,
                        trigger,
                        &doubled,
                        None,
                    );
                    assert!(
                        matches!(sim.resume(&doubled), Err(RestoreError::Corrupted(_)))
                            && matches!(pooled, Err(RestoreError::Corrupted(_))),
                        "kill {kill_at}: node {node} edge {edge}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert!(
        cases > 0,
        "no cut had a staged message behind a non-empty channel"
    );
}

/// Both engines capture a node's staged messages in out-edge order, and the
/// model flushes them in that order, so a staged list in another order is
/// refused as corrupted by both engines, though each message on its own
/// fits its channel.
#[test]
fn a_staged_list_out_of_out_edge_order_is_refused_as_corrupted() {
    // A fork whose two capacity-1 outputs are both full after its second
    // emission: it stages one message on each.
    let mut b = GraphBuilder::new().default_capacity(1);
    b.edge("s", "a").unwrap();
    b.edge("s", "b").unwrap();
    let fork = Topology::from_graph(&b.build().unwrap());
    let sim = Simulator::new(&fork);
    let pool = SharedPool::new(1);
    let mut cases = 0;
    for kill_at in 1..40 {
        let CheckpointOutcome::Killed(cut) = sim.run_with_checkpoint(120, kill_at) else {
            continue;
        };
        for (node, ns) in cut.nodes.iter().enumerate() {
            if ns.staged.len() < 2 {
                continue;
            }
            let mut reversed = (*cut).clone();
            reversed.nodes[node].staged.reverse();
            let trigger = PropagationTrigger::default();
            let pooled = pool.resume_full(&fork, AvoidanceMode::Disabled, trigger, &reversed, None);
            assert!(sim.resume(&cut).is_ok(), "kill {kill_at}: the honest cut resumes");
            assert!(
                matches!(sim.resume(&reversed), Err(RestoreError::Corrupted(_)))
                    && matches!(pooled, Err(RestoreError::Corrupted(_))),
                "kill {kill_at}: node {node}"
            );
            cases += 1;
        }
    }
    assert!(cases > 0, "no cut staged two messages at one node");
}
