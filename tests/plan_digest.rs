//! The planning witness: one FNV-1a value over everything planning and
//! certification decide for a fixed corpus.  A refactor of classification,
//! planning dispatch or the plan cache must leave [`EXPECTED_DIGEST`]
//! untouched; the constant was recorded at the parent of the PR that made
//! the CS4 decomposition *be* the classification (E29), before any other
//! edit.
//!
//! The corpus is generated (random SP DAGs, CS4 ladders, layered general
//! DAGs) plus the paper's Figs. 2–4 and a 2 048-node pipeline, each under
//! both protocols and a declared filter profile derived from its index.

use std::collections::HashSet;

use fila::avoidance::cs4::decompose_cs4;
use fila::avoidance::ladder::Side;
use fila::avoidance::{
    Algorithm, Certification, CertifyError, Cs4Segment, GraphClass, GraphIdentity,
    LadderDecomposition, ModelOutcome, PlanCache, Planner, Rounding,
};
use fila::graph::{Graph, GraphBuilder};
use fila::workloads::figures::{
    butterfly_rewritten, fig2_triangle, fig3_cycle, fig4_butterfly, fig4_crosslink, fig5_ladder,
};
use fila::workloads::generators::{
    layered_dag, pipeline_graph, random_ladder, random_sp_dag, GeneratorConfig, LadderConfig,
};

/// The fold over every graph but the last — `deep`, the one corpus entry
/// whose outcome E31 changed on purpose (a certification truncated before
/// its first step is no longer run: one attempt and zero steps where there
/// were four attempts of six runs each).  Recorded at commit e37dbc3, the
/// parent of E31, where the whole fold still read `0x156e_6bb0_6736_ed78`
/// as recorded at 8fa9418 (the parent of E29).
const EXPECTED_DIGEST_BEFORE_DEEP: u64 = 0xebbd_a870_2c06_448b;

/// The whole fold, `deep`'s truncated rejection included (since E31).
const EXPECTED_DIGEST: u64 = 0xad2e_ac03_8308_54d8;

/// The ladder witness: every ladder block's decomposition (or the error
/// text) and both protocols' interval tables over [`ladder_corpus`].
/// Recorded at the parent of E47, which replaced the ladder Non-Propagation
/// loops and the decomposition's linear scans, before either was edited.
const EXPECTED_LADDER_TABLES: u64 = 0x46b3_2594_2fe5_4f98;

/// Small enough that an exhaustive fallback on a 40-edge SP DAG gives up
/// (and is folded as the error it is) instead of enumerating for seconds.
const CYCLE_BOUND: usize = 2048;

const ALGORITHMS: [Algorithm; 2] = [Algorithm::Propagation, Algorithm::NonPropagation];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u64(u64::from(byte));
        }
    }

    fn algorithm(&mut self, a: Algorithm) {
        self.u64(match a {
            Algorithm::Propagation => 1,
            Algorithm::NonPropagation => 2,
        });
    }

    fn outcome(&mut self, o: &ModelOutcome) {
        self.u64(u64::from(o.completed));
        self.u64(u64::from(o.deadlocked));
        self.u64(o.steps);
    }

    fn side(&mut self, side: Side) {
        self.u64(match side {
            Side::Left => 1,
            Side::Right => 2,
        });
    }

    fn ladder(&mut self, l: &LadderDecomposition) {
        for path in [&l.left, &l.right] {
            self.u64(path.len() as u64);
            for v in path {
                self.u64(v.index() as u64);
            }
        }
        self.u64(l.rails.len() as u64);
        for r in &l.rails {
            self.u64(r.from.index() as u64);
            self.u64(r.to.index() as u64);
            self.side(r.side);
            self.u64(r.comp.index() as u64);
        }
        self.u64(l.rungs.len() as u64);
        for r in &l.rungs {
            self.u64(r.tail.index() as u64);
            self.u64(r.head.index() as u64);
            self.side(r.tail_side);
            self.u64(r.comp.index() as u64);
        }
    }

    fn certification(&mut self, c: &Certification) {
        self.u64(u64::from(c.certified));
        self.outcome(&c.declared);
        self.outcome(&c.worst_case);
        self.str(c.failing_adversary.unwrap_or("-"));
        self.u64(c.inputs);
        self.u64(u64::from(c.truncated));
    }
}

/// Which nodes of a corpus graph declare a filter.
#[derive(Clone, Copy)]
enum Profile {
    /// Every node: the profile that walks the fallback chain.
    Everywhere,
    /// The source only: the paper's protected scenario.
    ForkOnly,
    /// No node: certification is the declared run alone.
    Broadcast,
}

const PROFILES: [Profile; 3] = [Profile::Everywhere, Profile::ForkOnly, Profile::Broadcast];

/// The corpus with each graph's declared per-node filter periods.
fn corpus() -> Vec<(Graph, Vec<u64>)> {
    let mut graphs = Vec::new();
    for seed in 0..110u64 {
        let (g, _) = random_sp_dag(&GeneratorConfig {
            target_edges: 1 + (seed as usize * 7) % 40,
            max_fanout: 2 + (seed as usize) % 3,
            capacity_range: (1, 2 + seed % 7),
            seed,
        });
        graphs.push((g, PROFILES[seed as usize % 3]));
    }
    for seed in 0..80u64 {
        let g = random_ladder(&LadderConfig {
            rungs: 1 + (seed as usize) % 8,
            capacity_range: (1 + seed % 2, 3 + seed % 6),
            reverse_probability: 0.3,
            seed,
        });
        graphs.push((g, PROFILES[seed as usize % 3]));
    }
    for seed in 0..60u64 {
        let g = layered_dag(
            2 + (seed as usize) % 3,
            2 + (seed as usize / 3) % 2,
            1 + seed % 4,
            seed,
        );
        graphs.push((g, PROFILES[seed as usize % 3]));
    }
    // Two parallel edges too deep for the input ceiling: the check is
    // truncated before its first step, so the walk ends `Uncertifiable` at
    // its first candidate.  Kept last: see `EXPECTED_DIGEST_BEFORE_DEEP`.
    let mut deep = GraphBuilder::new();
    deep.edge_with_capacity("x", "y", 20_000).unwrap();
    deep.edge_with_capacity("x", "y", 20_000).unwrap();
    graphs.extend([
        (fig2_triangle(2), Profile::Everywhere),
        (fig3_cycle(), Profile::ForkOnly),
        (fig4_crosslink(2), Profile::Everywhere),
        (fig4_butterfly(2), Profile::ForkOnly),
        (butterfly_rewritten(2), Profile::Everywhere),
        (fig5_ladder(3), Profile::ForkOnly),
        // Broadcast: one model-check run of the chain per certification
        // instead of six.
        (pipeline_graph(2048, 4, false), Profile::Broadcast),
        (deep.build().unwrap(), Profile::Broadcast),
    ]);
    graphs
        .into_iter()
        .enumerate()
        .map(|(i, (g, profile))| {
            let period = 2 + (i as u64 / 3) % 4;
            let source = g.single_source().ok();
            let periods = g
                .node_ids()
                .map(|n| match profile {
                    Profile::Everywhere => period,
                    Profile::ForkOnly if Some(n) == source => period,
                    _ => 1,
                })
                .collect();
            (g, periods)
        })
        .collect()
}

#[test]
fn planning_and_certification_digest_is_unchanged() {
    // Distinct graphs (tiny random SP DAGs repeat), so the cache counts
    // below are exact.
    let mut identities: Vec<GraphIdentity> = Vec::new();
    let mut corpus = corpus();
    corpus.retain(|(g, _)| {
        let identity = GraphIdentity::of(g);
        let new = !identities.contains(&identity);
        identities.push(identity);
        new
    });
    assert!(corpus.len() >= 240, "{} distinct graphs", corpus.len());

    let mut digest = Fnv::new();
    let cache = PlanCache::new(4 * corpus.len());
    // What the plan table holds, and what the counters must read.
    let mut planned: HashSet<(usize, Algorithm)> = HashSet::new();
    let (mut plan_hits, mut plan_misses) = (0u64, 0u64);
    let (mut cert_hits, mut cert_misses) = (0u64, 0u64);
    let mut lookup = |key: (usize, Algorithm)| {
        if planned.insert(key) {
            plan_misses += 1;
            false
        } else {
            plan_hits += 1;
            true
        }
    };

    for (index, (g, periods)) in corpus.iter().enumerate() {
        if index + 1 == corpus.len() {
            assert_eq!(digest.0, EXPECTED_DIGEST_BEFORE_DEEP, "digest is {:#018x}", digest.0);
        }
        for algorithm in ALGORITHMS {
            let planner = Planner::new(g)
                .algorithm(algorithm)
                .cycle_bound(CYCLE_BOUND);
            digest.algorithm(algorithm);

            // Class and every edge's interval.
            let fresh = planner.plan_with_class();
            match &fresh {
                Ok((class, plan)) => {
                    digest.u64(match class {
                        GraphClass::SeriesParallel => 1,
                        GraphClass::Cs4 => 2,
                        GraphClass::General => 3,
                    });
                    for (_, interval) in plan.intervals().iter() {
                        digest.u64(interval.finite().unwrap_or(u64::MAX));
                    }
                }
                Err(e) => digest.str(&e.to_string()),
            }

            // The certification walk.
            let direct = planner.certify(periods);
            match &direct {
                Ok(c) => {
                    digest.algorithm(c.used);
                    digest.u64(u64::from(c.exhaustive));
                    digest.u64(u64::from(c.fell_back));
                    for attempt in &c.attempts {
                        digest.algorithm(attempt.algorithm);
                        digest.u64(u64::from(attempt.exhaustive));
                        digest.u64(u64::from(attempt.certified));
                    }
                    digest.certification(&c.certification);
                    for (_, interval) in c.plan.intervals().iter() {
                        digest.u64(interval.finite().unwrap_or(u64::MAX));
                    }
                }
                Err(CertifyError::Uncertifiable { attempts, last }) => {
                    digest.u64(attempts.len() as u64);
                    digest.certification(last);
                }
                Err(CertifyError::Unplannable(e)) => digest.str(&e.to_string()),
            }

            // The same walk through the cache: cold, then warm.
            let attempts = match &direct {
                Ok(c) => c.attempts.as_slice(),
                Err(CertifyError::Uncertifiable { attempts, .. }) => attempts.as_slice(),
                Err(CertifyError::Unplannable(_)) => &[],
            };
            for attempt in attempts.iter().filter(|a| !a.exhaustive) {
                lookup((index, attempt.algorithm));
            }
            let cached = |expect_hit: bool| {
                let got = cache.certify(g, algorithm, Rounding::Ceil, CYCLE_BOUND, periods);
                match (&direct, got) {
                    (Ok(want), Ok(got)) => {
                        assert_eq!(got.hit, expect_hit, "graph {index} {algorithm}");
                        assert_eq!(*got.plan, *want.plan, "graph {index} {algorithm}");
                        assert_eq!(
                            (got.used, got.exhaustive, got.fell_back),
                            (want.used, want.exhaustive, want.fell_back),
                            "graph {index} {algorithm}"
                        );
                    }
                    (
                        Err(CertifyError::Uncertifiable {
                            attempts: want,
                            last: want_last,
                        }),
                        Err(CertifyError::Uncertifiable {
                            attempts: got,
                            last: got_last,
                        }),
                    ) => {
                        assert_eq!(*want, got, "graph {index} {algorithm}");
                        assert_eq!(*want_last, got_last, "graph {index} {algorithm}");
                    }
                    (Err(CertifyError::Unplannable(_)), Err(CertifyError::Unplannable(_))) => {}
                    (want, got) => panic!(
                        "graph {index} {algorithm}: cache and planner disagree: \
                         {want:?} vs {got:?}"
                    ),
                }
            };
            cached(false);
            cached(true);
            // Every outcome is a verdict, a planning failure included (E31).
            cert_misses += 1;
            cert_hits += 1;

            // A plain plan lookup serves the plan the walk left behind.
            let plain = cache.plan(g, algorithm, CYCLE_BOUND);
            match (&fresh, plain) {
                (Ok((_, want)), Ok(got)) => {
                    assert_eq!(
                        got.hit,
                        lookup((index, algorithm)),
                        "graph {index} {algorithm}"
                    );
                    assert_eq!(*got.plan, *want, "graph {index} {algorithm}");
                }
                (Err(_), Err(_)) => {}
                (want, got) => panic!(
                    "graph {index} {algorithm}: cache and planner disagree: {want:?} vs {got:?}"
                ),
            }
        }
    }

    assert_eq!(
        (
            cache.hits(),
            cache.misses(),
            cache.cert_hits(),
            cache.cert_misses()
        ),
        (plan_hits, plan_misses, cert_hits, cert_misses)
    );
    assert_eq!(digest.0, EXPECTED_DIGEST, "digest is {:#018x}", digest.0);
}

/// `random_ladder` at every third rung count from 9 to 63, rotating through
/// three reverse probabilities and four capacity ranges (up to 2^44, so that
/// intervals stay above 1 over many hops), each also with a diagonal
/// cross-link `u_i -> v_{i+1}` at every other rung (a fork with three
/// outgoing constituents); plus hand-built graphs whose ladder blocks the
/// decomposition rejects.
fn ladder_corpus() -> Vec<Graph> {
    const CAPACITIES: [(u64, u64); 4] =
        [(1, 8), (1, 1 << 20), (1 << 20, 1 << 21), (1 << 40, 1 << 44)];
    const REVERSE: [f64; 3] = [0.0, 0.3, 0.5];
    let mut graphs = Vec::new();
    for (i, rungs) in (9..=64usize).step_by(3).enumerate() {
        let g = random_ladder(&LadderConfig {
            rungs,
            capacity_range: CAPACITIES[i % CAPACITIES.len()],
            reverse_probability: REVERSE[i % REVERSE.len()],
            seed: i as u64,
        });
        graphs.push(g.clone());
        if rungs > 36 {
            continue;
        }
        // The same ladder with capacities spread over 2^0..2^59, so that
        // near and far escapes bound different edges.
        let spread = |e| 1 << (g.capacity(e) % 60);
        let mut b = GraphBuilder::new();
        let name = |n| g.node(n).name.as_str();
        for (e, _) in g.edges() {
            b.edge_with_capacity(name(g.tail(e)), name(g.head(e)), spread(e))
                .unwrap();
        }
        for k in (1..rungs).step_by(2) {
            let rail = g.edge_by_names(&format!("u{k}"), &format!("u{}", k + 1)).unwrap();
            b.edge_with_capacity(&format!("u{k}"), &format!("v{}", k + 1), spread(rail))
                .unwrap();
        }
        graphs.push(b.build().unwrap());
    }
    let hand_built: [&[(&str, &str)]; 4] = [
        // Crossing cross-links.
        &[
            ("x", "u1"), ("u1", "u2"), ("u2", "y"),
            ("x", "v1"), ("v1", "v2"), ("v2", "y"),
            ("u1", "v2"), ("u2", "v1"),
        ],
        // A chord spanning a fork vertex on one side.
        &[
            ("x", "u1"), ("u1", "u2"), ("u2", "u3"), ("u3", "y"),
            ("x", "v1"), ("v1", "y"),
            ("u2", "v1"), ("u1", "u3"),
        ],
        // Three rails out of the source.
        &[
            ("x", "a"), ("x", "b"), ("x", "c"),
            ("a", "y"), ("b", "y"), ("c", "y"),
            ("a", "b"), ("b", "c"),
        ],
        // A chord into the sink spanning a fork vertex.
        &[
            ("x", "u1"), ("u1", "u2"), ("u2", "y"),
            ("x", "v1"), ("v1", "v2"), ("v2", "y"),
            ("u1", "v1"), ("u2", "v2"), ("u1", "y"),
        ],
    ];
    for edges in hand_built {
        let mut b = GraphBuilder::new();
        for (i, &(s, t)) in edges.iter().enumerate() {
            b.edge_with_capacity(s, t, 1 + i as u64 % 3).unwrap();
        }
        graphs.push(b.build().unwrap());
    }
    graphs.push(fig4_butterfly(2));
    graphs
}

#[test]
fn ladder_tables_and_decompositions_are_unchanged() {
    let mut digest = Fnv::new();
    for g in ladder_corpus() {
        match decompose_cs4(&g) {
            Ok(d) => {
                digest.u64(d.segments.len() as u64);
                for segment in &d.segments {
                    if let Cs4Segment::Ladder(l) = segment {
                        digest.ladder(l);
                    }
                }
            }
            Err(e) => digest.str(&e.to_string()),
        }
        for algorithm in ALGORITHMS {
            digest.algorithm(algorithm);
            match Planner::new(&g).algorithm(algorithm).cycle_bound(CYCLE_BOUND).plan() {
                Ok(plan) => {
                    for (_, interval) in plan.intervals().iter() {
                        digest.u64(interval.finite().unwrap_or(u64::MAX));
                    }
                }
                Err(e) => digest.str(&e.to_string()),
            }
        }
    }
    assert_eq!(digest.0, EXPECTED_LADDER_TABLES, "digest is {:#018x}", digest.0);
}
