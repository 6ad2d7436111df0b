//! A certification cache: amortises the admission-time walk of the
//! certification fallback chain across jobs that share a topology shape
//! and a declared filter profile.
//!
//! The service layer's unit of work is the *job*: a submitted graph plus a
//! filter spec and an input count.  In a multi-tenant deployment the same
//! handful of topology shapes is submitted over and over (a million users
//! running the same pipeline template differ only in their payloads), so
//! planning and model-checking every submission again is pure waste.
//! `PlanCache` keys the verdict of [`Planner::certify`]'s walk — the
//! certified plan, or the rejection — by the canonical structural
//! [`Fingerprint`] of the graph (capacities included), the requested
//! protocol, the declared filter profile and the cycle budget, and hands
//! out `Arc`-shared plans, so a hit costs one hash of the graph and one
//! reference-count bump — no interval table is ever copied.
//!
//! ## Why the cache double-checks with an exact hash
//!
//! An [`AvoidancePlan`](crate::AvoidancePlan) is indexed by [`EdgeId`](fila_graph::EdgeId), so it
//! is only transplantable between graphs whose edge arenas line up exactly.
//! The canonical fingerprint is deliberately insensitive to node/edge
//! insertion order (that is what makes isomorphic rebuilds collide), and —
//! like every polynomial-time graph hash — it can in principle collide for
//! different shapes.  Each cache entry therefore also records the
//! order-*sensitive* [`labeled_fingerprint`] **and the exact
//! `(src, dst, capacity)` edge arena** of the graph it was computed from
//! (and the exact periods, which the filter signature only hashes); a
//! lookup only hits when the hashes match *and* these compare equal, which
//! in particular means clients that build the same shape with a different
//! insertion order certify once per ordering (correct, merely a smaller
//! saving) and a hash collision between genuinely different shapes
//! degrades to a miss — never to a wrong plan, by comparison, not by 64-bit
//! probability.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use fila_graph::fingerprint::{fingerprint, labeled_fingerprint};
use fila_graph::{Fingerprint, Graph};

use crate::interval::Rounding;
use crate::plan::Algorithm;
use crate::planner::{CertifiedPlan, CertifyError, Planner};
use crate::verify::{filter_signature, Helpers};

/// Default maximum number of cached verdicts.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// What the cache identifies a graph by, computed once per admission and
/// handed down to every lookup it makes; entries match by equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIdentity {
    /// Canonical structural fingerprint of the graph: the bucket.
    pub fingerprint: Fingerprint,
    /// Order-sensitive hash: the cheap first-pass filter.
    labeled: u64,
    /// The exact edge arena `(src, dst, capacity)`: the final word on
    /// transplantability.  This comparison is what makes "never a wrong
    /// plan" a guarantee rather than a 64-bit-hash probability.
    arena: Vec<(u32, u32, u64)>,
}

impl GraphIdentity {
    /// Hashes `g` (once) into its cache identity.
    pub fn of(g: &Graph) -> Self {
        GraphIdentity {
            fingerprint: fingerprint(g),
            labeled: labeled_fingerprint(g),
            arena: g
                .edges()
                .map(|(_, e)| (e.src.index() as u32, e.dst.index() as u32, e.capacity))
                .collect(),
        }
    }
}

/// The bucket of one cached verdict: the structural fingerprint, the
/// requested protocol, the canonical signature of the declared filter
/// profile and the cycle budget the chain was walked under.  The budget
/// must be part of the key because negative verdicts are cached too: a
/// chain that ran out of candidates at `cycle_bound = 16` (exhaustive
/// enumeration over budget) may well certify — or become plannable at all
/// — at a larger budget, and serving the stale `Uncertifiable` or
/// `Unplannable` there would be a wrong rejection.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: Fingerprint,
    algorithm: Algorithm,
    filter: u64,
    cycle_bound: usize,
}

/// A cached certification verdict — positive or negative.  Negative
/// verdicts are cached too, both kinds: re-walking the whole fallback chain
/// (or re-enumerating a dense graph's cycles up to the budget) for every
/// repeat submission of a shape that is rejected anyway would hand a storm
/// of them a planner-CPU amplification attack.  A flood of *distinct*
/// rejected shapes cannot grow memory — negative entries are evicted by the
/// same FIFO bound as positive ones — but it can evict warm entries, exactly
/// as a flood of distinct admitted shapes can; admission-weighted eviction
/// is out of scope.  A positive one is stored as the walker's own answer
/// (`hit: false`, its times); a lookup that serves it says otherwise.
type Verdict = std::result::Result<CertifiedPlan, CertifyError>;

/// One graph and filter profile, as a key's bucket tells them apart: the
/// hashed key is only the fast filter.
type Entry = (GraphIdentity, Vec<u64>);

struct Inner {
    /// The verdicts, bucketed by key.
    verdicts: HashMap<Key, Vec<(Entry, Verdict)>>,
    /// Insertion order for FIFO eviction; `(key, labeled)` identifies one
    /// entry.
    order: VecDeque<(Key, u64)>,
    /// The verdicts being walked for right now (single flight): a second
    /// submitter of one waits on `PlanCache::walked` for the first's.
    walking: Vec<(Key, Entry)>,
}

impl Inner {
    fn get(&self, key: &Key, entry: &Entry) -> Option<Verdict> {
        self.verdicts
            .get(key)?
            .iter()
            .find(|(e, _)| e == entry)
            .map(|(_, verdict)| verdict.clone())
    }

    /// Inserts unless a racing submitter already did (the first copy is
    /// kept), then evicts down to `capacity` entries.
    fn insert(&mut self, capacity: usize, key: Key, entry: Entry, verdict: Verdict) {
        let bucket = self.verdicts.entry(key).or_default();
        if bucket.iter().any(|(e, _)| *e == entry) {
            return;
        }
        self.order.push_back((key, entry.0.labeled));
        bucket.push((entry, verdict));
        while self.order.len() > capacity {
            let Some((old_key, old_labeled)) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.verdicts.get_mut(&old_key) {
                // One record, one entry: the bucket's oldest of that graph.
                if let Some(at) = bucket.iter().position(|(e, _)| e.0.labeled == old_labeled) {
                    drop(bucket.remove(at));
                }
                if bucket.is_empty() {
                    self.verdicts.remove(&old_key);
                }
            }
        }
    }
}

/// A bounded, thread-safe certification cache (see the module docs).
pub struct PlanCache {
    inner: Mutex<Inner>,
    /// Signalled whenever a certification walk ends, however it ends.
    walked: Condvar,
    capacity: usize,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("cert_len", &self.cert_len())
            .field("cert_hits", &self.cert_hits())
            .field("cert_misses", &self.cert_misses())
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` verdicts (clamped to
    /// ≥ 1); the oldest entry is evicted first.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                verdicts: HashMap::new(),
                order: VecDeque::new(),
                walking: Vec::new(),
            }),
            walked: Condvar::new(),
            capacity: capacity.max(1),
            cert_hits: AtomicU64::new(0),
            cert_misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached certification verdict for `g` under `algorithm`
    /// and the declared per-node filter `periods`, or walks
    /// [`Planner::certify`]'s fallback chain, caches the verdict, and
    /// returns it.
    ///
    /// Verdicts — positive *and* negative — are keyed by
    /// `(fingerprint, algorithm, filter signature, cycle_bound)` with the
    /// labeled-hash + exact-arena + exact-periods double check, so a
    /// fallback decision is made **once per topology shape** and a hash
    /// collision degrades to a miss, never a wrong verdict.  The cycle
    /// budget is part of the key so a negative verdict reached by
    /// exhausting a small budget is never served to a caller asking under a
    /// larger one.  The third argument is inert: `ledger/` passing it is
    /// the only reason it exists.  A miss certifies on the calling thread
    /// alone.
    pub fn certify(
        &self,
        g: &Graph,
        algorithm: Algorithm,
        _: Rounding,
        cycle_bound: usize,
        periods: &[u64],
    ) -> Verdict {
        self.certify_identified(
            g,
            &GraphIdentity::of(g),
            algorithm,
            cycle_bound,
            periods,
            None,
        )
    }

    /// [`PlanCache::certify`] for a caller that already hashed `g` into
    /// `identity` (which must be `GraphIdentity::of(g)`); a walk offers its
    /// model-check runs to `helpers` (a service: its pool).
    pub fn certify_identified(
        &self,
        g: &Graph,
        identity: &GraphIdentity,
        algorithm: Algorithm,
        cycle_bound: usize,
        periods: &[u64],
        helpers: Option<&dyn Helpers>,
    ) -> Verdict {
        let key = Key {
            fingerprint: identity.fingerprint,
            algorithm,
            filter: filter_signature(periods),
            cycle_bound,
        };
        let entry: Entry = (
            identity.clone(),
            periods.iter().map(|&p| p.max(1)).collect(),
        );
        // Single flight: the first submitter of an unseen shape walks, the
        // others wait (the table lock is held neither while waiting nor
        // while walking) and read what it stored.  A walk that panicked, or
        // whose verdict was evicted at once, leaves neither: they walk.
        let flying = |f: &(Key, Entry)| f.0 == key && f.1 == entry;
        let mut inner = self.lock();
        let cached = loop {
            let cached = inner.get(&key, &entry);
            if cached.is_some() || !inner.walking.iter().any(flying) {
                break cached;
            }
            inner = self
                .walked
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        let counter = if cached.is_some() {
            &self.cert_hits
        } else {
            &self.cert_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let Some(cached) = cached else {
            inner.walking.push((key, entry.clone()));
            drop(inner);
            // The walk is `Planner::certify`'s own, so the two can never
            // select differently; whatever it finds is the verdict, a
            // rejection included.
            let planner = Planner::new(g)
                .algorithm(algorithm)
                .cycle_bound(cycle_bound);
            let verdict = catch_unwind(AssertUnwindSafe(|| planner.walk(&entry.1, helpers)));
            // However the walk ended its waiters go on: they find the
            // verdict stored under this lock, or nothing.
            let mut inner = self.lock();
            inner.walking.retain(|f| !flying(f));
            if let Ok(verdict) = &verdict {
                inner.insert(self.capacity, key, entry, verdict.clone());
            }
            drop(inner);
            self.walked.notify_all();
            return verdict.unwrap_or_else(|panic| resume_unwind(panic));
        };
        drop(inner);
        cached.map(|cached| CertifiedPlan {
            hit: true,
            plan_time: Duration::ZERO,
            certify_time: Duration::ZERO,
            ..cached
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Certification lookups served from the verdict cache.
    pub fn cert_hits(&self) -> u64 {
        self.cert_hits.load(Ordering::Relaxed)
    }

    /// Certification lookups that walked the fallback chain.
    pub fn cert_misses(&self) -> u64 {
        self.cert_misses.load(Ordering::Relaxed)
    }

    /// Certification verdicts currently cached.
    pub fn cert_len(&self) -> usize {
        self.lock().order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;
    use std::sync::Arc;

    fn fig3() -> Graph {
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        b.build().unwrap()
    }

    /// A Non-Propagation verdict for `g` with every node filtering at 4.
    fn certify(cache: &PlanCache, g: &Graph) -> CertifiedPlan {
        let periods = vec![4u64; g.node_count()];
        cache
            .certify(g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &periods)
            .unwrap()
    }

    #[test]
    fn renamed_rebuild_hits_the_same_entry() {
        // Same shape, same insertion order, different node names: the
        // canonical fingerprint AND the labeled hash agree, so this is the
        // million-users-one-template scenario.
        let cache = PlanCache::new(8);
        let g1 = fig3();
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("n0", "n1", 2).unwrap();
        b.edge_with_capacity("n1", "n4", 5).unwrap();
        b.edge_with_capacity("n4", "n5", 1).unwrap();
        b.edge_with_capacity("n0", "n2", 3).unwrap();
        b.edge_with_capacity("n2", "n3", 1).unwrap();
        b.edge_with_capacity("n3", "n5", 2).unwrap();
        let g2 = b.build().unwrap();
        let first = certify(&cache, &g1);
        assert!(!first.hit);
        let hit = certify(&cache, &g2);
        assert!(hit.hit);
        assert!(Arc::ptr_eq(&first.plan, &hit.plan));
    }

    #[test]
    fn different_algorithms_cache_separately() {
        let cache = PlanCache::new(8);
        let g = fig3();
        let periods = vec![1u64; g.node_count()];
        let verdict = |algorithm| {
            cache
                .certify(&g, algorithm, Rounding::Ceil, 1000, &periods)
                .unwrap()
        };
        let p = verdict(Algorithm::Propagation);
        let np = verdict(Algorithm::NonPropagation);
        assert!(!np.hit);
        assert_eq!(
            (p.used, np.used),
            (Algorithm::Propagation, Algorithm::NonPropagation)
        );
        assert_ne!(p.plan.intervals(), np.plan.intervals());
        assert_eq!(cache.cert_len(), 2);
    }

    #[test]
    fn capacity_perturbation_misses() {
        let cache = PlanCache::new(8);
        let g1 = fig3();
        let mut g2 = g1.clone();
        let e = g2.edge_by_names("b", "e").unwrap();
        g2.set_capacity(e, 7).unwrap();
        assert!(!certify(&cache, &g1).hit);
        assert!(!certify(&cache, &g2).hit);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (0, 2));
    }

    #[test]
    fn reordered_rebuild_is_a_safe_miss() {
        // Same shape declared in a different edge order: the canonical
        // fingerprints collide (by design) but the EdgeId arenas differ, so
        // the cache must NOT serve the first plan for the second graph.
        let cache = PlanCache::new(8);
        let g1 = fig3();
        let mut b = GraphBuilder::new();
        b.edge_with_capacity("a", "c", 3).unwrap();
        b.edge_with_capacity("c", "d", 1).unwrap();
        b.edge_with_capacity("d", "f", 2).unwrap();
        b.edge_with_capacity("a", "b", 2).unwrap();
        b.edge_with_capacity("b", "e", 5).unwrap();
        b.edge_with_capacity("e", "f", 1).unwrap();
        let g2 = b.build().unwrap();
        assert_eq!(
            fila_graph::fingerprint::fingerprint(&g1),
            fila_graph::fingerprint::fingerprint(&g2)
        );
        assert!(!certify(&cache, &g1).hit);
        let second = certify(&cache, &g2);
        assert!(
            !second.hit,
            "reordered arena must not reuse EdgeId-indexed plan"
        );
        let fresh = Planner::new(&g2)
            .algorithm(Algorithm::NonPropagation)
            .plan();
        assert_eq!(*second.plan, fresh.unwrap());
        // Both orderings are now cached under the same fingerprint bucket.
        assert_eq!(cache.cert_len(), 2);
        assert!(certify(&cache, &g2).hit);
    }

    #[test]
    fn certification_verdicts_are_cached_per_shape_and_filter() {
        let cache = PlanCache::new(8);
        let g = fig3();
        let periods = vec![4u64; g.node_count()];
        let first = cache
            .certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                1000,
                &periods,
            )
            .unwrap();
        assert!(!first.hit);
        assert!(!first.fell_back);
        assert_eq!(first.used, Algorithm::NonPropagation);
        let second = cache
            .certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                1000,
                &periods,
            )
            .unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
        assert_eq!(
            (second.plan_time, second.certify_time),
            (Duration::ZERO, Duration::ZERO)
        );
        assert_eq!(cache.cert_hits(), 1);
        assert_eq!(cache.cert_misses(), 1);
        // A different filter profile is a different verdict key.
        let other = vec![2u64; g.node_count()];
        assert!(
            !cache
                .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &other)
                .unwrap()
                .hit
        );
        assert_eq!(cache.cert_len(), 2);
    }

    #[test]
    fn certification_verdicts_are_keyed_by_cycle_bound() {
        // Negative verdicts are cached, and a chain that exhausted a small
        // cycle budget (exhaustive candidates skipped) may certify under a
        // larger one — so the budget must be part of the verdict key, or a
        // stale `Uncertifiable` would wrongly reject the larger-budget call.
        let cache = PlanCache::new(8);
        let g = fig3();
        let periods = vec![4u64; g.node_count()];
        let first = cache
            .certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                1000,
                &periods,
            )
            .unwrap();
        assert!(!first.hit);
        let other_budget = cache
            .certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                2000,
                &periods,
            )
            .unwrap();
        assert!(
            !other_budget.hit,
            "a different cycle budget must not share a verdict"
        );
        assert_eq!(cache.cert_misses(), 2);
        // Same budget again is still a hit.
        assert!(
            cache
                .certify(
                    &g,
                    Algorithm::NonPropagation,
                    Rounding::Ceil,
                    2000,
                    &periods
                )
                .unwrap()
                .hit
        );
    }

    #[test]
    fn certification_fallback_is_decided_once_per_shape() {
        // Interior filtering defeats the literal Propagation trigger, so a
        // Propagation-requested certification falls back to
        // Non-Propagation — and the second submission gets the fallback
        // verdict from the cache without re-walking the chain.
        let g = fig3();
        let mut periods = vec![1u64; g.node_count()];
        periods[g.node_by_name("b").unwrap().index()] = 3;
        periods[g.node_by_name("c").unwrap().index()] = 3;
        let cache = PlanCache::new(8);
        let first = cache
            .certify(&g, Algorithm::Propagation, Rounding::Ceil, 1000, &periods)
            .unwrap();
        assert!(first.fell_back);
        assert_eq!(first.used, Algorithm::NonPropagation);
        assert!(!first.hit);
        let second = cache
            .certify(&g, Algorithm::Propagation, Rounding::Ceil, 1000, &periods)
            .unwrap();
        assert!(second.hit);
        assert!(second.fell_back);
        assert_eq!(second.used, Algorithm::NonPropagation);
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
    }

    /// A general-class dense bipartite core (`lefts` × 6) between a source
    /// and a sink: far more cycles than a 16-cycle budget.
    fn dense(lefts: usize) -> Graph {
        let mut b = GraphBuilder::new().default_capacity(2);
        for l in 0..lefts {
            b.edge("x", &format!("l{l}")).unwrap();
            for r in 0..6 {
                b.edge(&format!("l{l}"), &format!("r{r}")).unwrap();
            }
        }
        for r in 0..6 {
            b.edge(&format!("r{r}"), "y").unwrap();
        }
        b.build().unwrap()
    }

    /// The butterfly: general, 7 cycles — unplannable at a budget of 3,
    /// plannable at 1 000.
    fn butterfly() -> Graph {
        let mut b = GraphBuilder::new().default_capacity(2);
        for (s, t) in [
            ("x", "a"),
            ("x", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "d"),
            ("c", "y"),
            ("d", "y"),
        ] {
            b.edge(s, t).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn unplannable_certification_is_a_cached_verdict() {
        let g = dense(3);
        let periods = vec![2u64; g.node_count()];
        let cache = PlanCache::new(8);
        let certify = |bound| {
            cache.certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                bound,
                &periods,
            )
        };
        let cold = certify(16).unwrap_err();
        assert!(matches!(cold, CertifyError::Unplannable(_)), "{cold}");
        let before = (cache.cert_misses(), cache.cert_len());
        assert_eq!(before, (1, 1));
        // The repeat is a probe: the planner is not entered, and the answer
        // is the same in kind and text.
        let warm = certify(16).unwrap_err();
        assert!(matches!(warm, CertifyError::Unplannable(_)), "{warm}");
        assert_eq!(warm.to_string(), cold.to_string());
        assert_eq!(cache.cert_hits(), 1);
        assert_eq!((cache.cert_misses(), cache.cert_len()), before);
        // The uncached walk says the same thing.
        let direct = Planner::new(&g)
            .algorithm(Algorithm::NonPropagation)
            .cycle_bound(16)
            .certify(&periods)
            .unwrap_err();
        assert_eq!(direct.to_string(), cold.to_string());
        // Another budget is another question.
        let _ = certify(3).unwrap_err();
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 2));
    }

    #[test]
    fn a_negative_verdict_does_not_answer_a_larger_budget() {
        let g = butterfly();
        let periods = vec![1u64; g.node_count()];
        let cache = PlanCache::new(8);
        let certify = |bound| {
            cache.certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                bound,
                &periods,
            )
        };
        assert!(matches!(certify(3), Err(CertifyError::Unplannable(_))));
        assert!(matches!(certify(3), Err(CertifyError::Unplannable(_))));
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 1));
        let planned = certify(1000).unwrap();
        assert!(!planned.hit && planned.exhaustive);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 2));
        // Each budget keeps its own answer, the failure included.
        assert!(certify(1000).unwrap().hit);
        assert!(matches!(certify(3), Err(CertifyError::Unplannable(_))));
        assert_eq!(
            (cache.cert_hits(), cache.cert_misses(), cache.cert_len()),
            (3, 2, 2)
        );
    }

    #[test]
    fn a_flood_of_distinct_rejects_is_bounded_and_evicts_oldest_first() {
        let cache = PlanCache::new(3);
        let graphs: Vec<Graph> = (3..7).map(dense).collect();
        let certify = |g: &Graph| {
            let periods = vec![2u64; g.node_count()];
            cache
                .certify(g, Algorithm::NonPropagation, Rounding::Ceil, 16, &periods)
                .unwrap_err()
        };
        for g in &graphs {
            certify(g);
        }
        assert_eq!(cache.cert_len(), 3);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (0, 4));
        // The newest three are warm, the oldest was evicted.
        certify(&graphs[3]);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 4));
        certify(&graphs[0]);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 5));
        assert_eq!(cache.cert_len(), 3);
    }

    /// A 256-edge SP DAG — 32 four-lane stages — with every fork filtering.
    fn sp256() -> (Graph, Vec<u64>) {
        use fila_spdag::{build_sp, SpSpec};
        let stage = || SpSpec::Parallel((1..=4).map(|c| SpSpec::pipeline(&[c, 9 - c])).collect());
        let (g, _) = build_sp(&SpSpec::Series((0..32).map(|_| stage()).collect()));
        assert_eq!(g.edge_count(), 256);
        let periods = g
            .node_ids()
            .map(|n| if g.out_degree(n) > 1 { 3 } else { 1 })
            .collect();
        (g, periods)
    }

    #[test]
    fn racing_submitters_of_one_unplannable_shape_leave_one_entry() {
        // Single flight: of eight submitters released together one walks,
        // seven wait for its verdict — a certain "no" and a certified
        // 256-edge SP DAG (32 four-lane stages, every fork filtering) alike.
        let (sp, forks) = sp256();
        let unplannable = dense(3);
        let twos = vec![2u64; unplannable.node_count()];
        for (g, periods, bound) in [(&unplannable, twos, 16), (&sp, forks, 1000)] {
            let cache = PlanCache::new(8);
            let start = std::sync::Barrier::new(8);
            // The answer, and for a certified one `(hit, certify_time > 0)`.
            let answers: Vec<(String, Option<(bool, bool)>)> = std::thread::scope(|scope| {
                let racer = || {
                    start.wait();
                    match cache.certify(
                        g,
                        Algorithm::NonPropagation,
                        Rounding::Ceil,
                        bound,
                        &periods,
                    ) {
                        Ok(c) => (
                            format!("{:?}", c.plan),
                            Some((c.hit, !c.certify_time.is_zero())),
                        ),
                        Err(e) => (e.to_string(), None),
                    }
                };
                let racers: Vec<_> = (0..8).map(|_| scope.spawn(racer)).collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(cache.cert_len(), 1);
            assert_eq!((cache.cert_misses(), cache.cert_hits()), (1, 7));
            // One answer, told apart only by who walked for it.
            assert!(answers.iter().all(|a| a.0 == answers[0].0));
            if answers[0].1.is_some() {
                let count = |who| answers.iter().filter(|a| a.1 == Some(who)).count();
                assert_eq!((count((false, true)), count((true, false))), (1, 7));
            }
        }
    }

    #[test]
    fn a_walker_that_panics_wakes_its_waiters_to_walk_themselves() {
        let (g, periods) = sp256();
        let cache = PlanCache::new(8);
        let certify = || {
            cache.certify(
                &g,
                Algorithm::NonPropagation,
                Rounding::Ceil,
                1000,
                &periods,
            )
        };
        std::thread::scope(|scope| {
            let walker = scope.spawn(|| {
                crate::verify::PANICKING_ROW.with(|on| on.set(true));
                certify()
            });
            // Enter behind the walker: its flight is up, or already over —
            // then this is a plain miss, and as good an answer.
            while cache.lock().walking.is_empty() && !walker.is_finished() {
                std::thread::yield_now();
            }
            let waited = certify().expect("the waiter is woken and walks for itself");
            assert!(!waited.hit && !waited.certify_time.is_zero());
            assert!(walker.join().is_err(), "the walker's panic is its caller's");
        });
        assert!(cache.lock().walking.is_empty());
        assert_eq!(
            (cache.cert_len(), cache.cert_misses(), cache.cert_hits()),
            (1, 2, 0)
        );
        assert!(certify().unwrap().hit);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = PlanCache::new(2);
        let graphs: Vec<Graph> = (2u64..6)
            .map(|cap| {
                let mut b = GraphBuilder::new().default_capacity(cap);
                b.chain(&["a", "b", "c"]).unwrap();
                b.build().unwrap()
            })
            .collect();
        for g in &graphs {
            certify(&cache, g);
        }
        assert_eq!(cache.cert_len(), 2);
        // Oldest two were evicted: looking them up again misses.
        assert!(!certify(&cache, &graphs[0]).hit);
        // Newest survived … but the re-certification of graphs[0] just
        // evicted graphs[2], so only graphs[3] is still warm.
        assert!(certify(&cache, &graphs[3]).hit);
        assert!(!certify(&cache, &graphs[2]).hit);
        assert_eq!(cache.cert_len(), 2);
    }
}
