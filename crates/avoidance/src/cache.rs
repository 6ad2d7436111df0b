//! A structural plan cache: amortises compile-time planning across jobs
//! that share a topology shape.
//!
//! The service layer's unit of work is the *job*: a submitted graph plus a
//! filter spec and an input count.  In a multi-tenant deployment the same
//! handful of topology shapes is submitted over and over (a million users
//! running the same pipeline template differ only in their payloads), so
//! recomputing SETIVALS / Non-Propagation intervals per submission is pure
//! waste.  `PlanCache` keys computed [`AvoidancePlan`]s by the canonical
//! structural [`Fingerprint`] of the graph (capacities included) together
//! with the requested protocol, and hands out `Arc`-shared plans so a cache
//! hit costs one hash of the graph and one reference-count bump — no
//! interval table is ever copied.
//!
//! ## Why the cache double-checks with an exact hash
//!
//! An [`AvoidancePlan`] is indexed by [`EdgeId`](fila_graph::EdgeId), so it
//! is only transplantable between graphs whose edge arenas line up exactly.
//! The canonical fingerprint is deliberately insensitive to node/edge
//! insertion order (that is what makes isomorphic rebuilds collide), and —
//! like every polynomial-time graph hash — it can in principle collide for
//! different shapes.  Each cache entry therefore also records the
//! order-*sensitive* [`labeled_fingerprint`] **and the exact
//! `(src, dst, capacity)` edge arena** of the graph it was computed from;
//! a lookup only hits when the hashes match *and* the arenas compare
//! equal, which in particular means clients that build the same shape
//! with a different insertion order plan once per ordering (correct,
//! merely a smaller saving) and a hash collision between genuinely
//! different shapes degrades to a miss — never to a wrong plan, by
//! comparison, not by 64-bit probability.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fila_graph::fingerprint::{fingerprint, labeled_fingerprint};
use fila_graph::{Fingerprint, Graph, Result};

use crate::cs4::Structure;
use crate::interval::Rounding;
use crate::plan::{Algorithm, AvoidancePlan};
use crate::planner::{walk_certification_chain, CertifyError, Planner};
use crate::verify::{filter_signature, Helpers};

/// Default maximum number of cached plans.
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    fingerprint: Fingerprint,
    algorithm: Algorithm,
}

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

/// Key of one cached certification verdict: the plan key plus the
/// canonical signature of the declared filter profile and the cycle
/// budget the chain was walked under.  The budget must be part of the
/// key because negative verdicts are cached too: a chain that ran out of
/// candidates at `cycle_bound = 16` (exhaustive enumeration over budget)
/// may well certify — or become plannable at all — at a larger budget, and
/// serving the stale `Uncertifiable` or `Unplannable` there would be a
/// wrong rejection.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct CertKey {
    plan: Key,
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
type CertVerdict = std::result::Result<CertifiedCached, CertifyError>;

/// One entry of a [`Table`] bucket.
struct Slot<D, V> {
    /// The graph the value was computed from.
    identity: GraphIdentity,
    /// What else must compare equal for a hit (the hashed key is only the
    /// fast filter).
    detail: D,
    value: V,
}

/// A bounded table: entries are bucketed by a hashed key, told apart inside
/// a bucket by exact comparison, and evicted oldest first.
struct Table<K, D, V> {
    buckets: HashMap<K, Vec<Slot<D, V>>>,
    /// Insertion order for FIFO eviction; `(key, labeled)` identifies one
    /// entry.
    order: VecDeque<(K, u64)>,
}

impl<K: Copy + Eq + Hash, D: PartialEq, V: Clone> Table<K, D, V> {
    fn new() -> Self {
        Table {
            buckets: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &K, identity: &GraphIdentity, detail: &D) -> Option<V> {
        self.buckets
            .get(key)?
            .iter()
            .find(|e| e.identity == *identity && e.detail == *detail)
            .map(|e| e.value.clone())
    }

    /// Inserts unless a racing submitter already did (the first copy is
    /// kept), then evicts down to `capacity` entries.
    fn insert(&mut self, capacity: usize, key: K, identity: &GraphIdentity, detail: D, value: V) {
        let bucket = self.buckets.entry(key).or_default();
        if bucket
            .iter()
            .any(|e| e.identity == *identity && e.detail == detail)
        {
            return;
        }
        bucket.push(Slot {
            identity: identity.clone(),
            detail,
            value,
        });
        self.order.push_back((key, identity.labeled));
        while self.order.len() > capacity {
            let Some((old_key, old_labeled)) = self.order.pop_front() else {
                break;
            };
            if let Some(bucket) = self.buckets.get_mut(&old_key) {
                // One record, one slot: the bucket's oldest of that graph.
                if let Some(at) = bucket.iter().position(|e| e.identity.labeled == old_labeled) {
                    bucket.remove(at);
                }
                if bucket.is_empty() {
                    self.buckets.remove(&old_key);
                }
            }
        }
    }
}

struct Inner {
    /// Plans (detail `None`: a plan that exists is the same under every
    /// budget that reaches it) and planning failures, told apart by the
    /// cycle budget they failed under: a lookup under another budget
    /// re-plans.
    plans: Table<Key, Option<usize>, Result<Arc<AvoidancePlan>>>,
    /// Verdicts, told apart by the exact (clamped) periods: the signature
    /// in the key is only the fast filter.
    verdicts: Table<CertKey, Vec<u64>, CertVerdict>,
    /// The verdicts being walked for right now (single flight): a second
    /// submitter of one waits on `PlanCache::walked` for the first's.
    walking: Vec<(CertKey, GraphIdentity, Vec<u64>)>,
}

/// The outcome of one cache lookup-or-plan.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The shared plan (never copied out of the cache).
    pub plan: Arc<AvoidancePlan>,
    /// Canonical structural fingerprint of the planned graph.
    pub fingerprint: Fingerprint,
    /// True if the plan was served from the cache.
    pub hit: bool,
    /// Time spent inside the planner (zero on a hit).
    pub plan_time: Duration,
}

/// The outcome of one cache lookup-or-certify (see [`PlanCache::certify`]).
#[derive(Debug, Clone)]
pub struct CertifiedCached {
    /// The certified plan (never copied out of the cache).
    pub plan: Arc<AvoidancePlan>,
    /// The protocol of the certified plan.
    pub used: Algorithm,
    /// Whether the certified plan came from the forced-exhaustive planner.
    pub exhaustive: bool,
    /// True if the certified plan was not the first candidate of the
    /// fallback chain (protocol switch and/or exhaustive escalation).
    pub fell_back: bool,
    /// Canonical structural fingerprint of the planned graph.
    pub fingerprint: Fingerprint,
    /// Canonical signature of the declared filter profile.
    pub filter_signature: u64,
    /// True if the verdict was served from the cache.
    pub hit: bool,
    /// Time spent planning candidates on this call (zero on a hit).
    pub plan_time: Duration,
    /// Time spent model-checking candidates on this call (zero on a hit).
    pub certify_time: Duration,
}

/// A bounded, thread-safe structural plan cache (see the module docs).
pub struct PlanCache {
    inner: Mutex<Inner>,
    /// Signalled whenever a certification walk ends, however it ends.
    walked: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    cert_hits: AtomicU64,
    cert_misses: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
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
    /// Creates a cache holding at most `capacity` plans (clamped to ≥ 1);
    /// the oldest entry is evicted first.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                plans: Table::new(),
                verdicts: Table::new(),
                walking: Vec::new(),
            }),
            walked: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cert_hits: AtomicU64::new(0),
            cert_misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `g` under `algorithm` or
    /// computes, caches and returns it.  `cycle_bound` caps the exhaustive
    /// fallback for general (non-SP, non-CS4) graphs; a planning failure is
    /// returned verbatim and remembered with the budget it failed under, so
    /// a repeat under that budget is a hit that returns it again.
    pub fn plan(
        &self,
        g: &Graph,
        algorithm: Algorithm,
        cycle_bound: usize,
    ) -> Result<CachedPlan> {
        self.plan_identified(g, &GraphIdentity::of(g), algorithm, cycle_bound, None)
    }

    /// [`PlanCache::plan`] for a caller that already hashed `g` into
    /// `identity` (which must be `GraphIdentity::of(g)`) and may already
    /// hold `g`'s `structure` (the certification walk): a miss then plans
    /// without decomposing again.
    pub fn plan_identified(
        &self,
        g: &Graph,
        identity: &GraphIdentity,
        algorithm: Algorithm,
        cycle_bound: usize,
        structure: Option<&Structure>,
    ) -> Result<CachedPlan> {
        let key = Key {
            fingerprint: identity.fingerprint,
            algorithm,
        };
        let cached = {
            let inner = self.lock();
            let failed = || inner.plans.get(&key, identity, &Some(cycle_bound));
            inner.plans.get(&key, identity, &None).or_else(failed)
        };
        let found = |plan, hit, plan_time| CachedPlan {
            plan,
            fingerprint: key.fingerprint,
            hit,
            plan_time,
        };
        if let Some(planned) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return planned.map(|plan| found(plan, true, Duration::ZERO));
        }
        let planning = Instant::now();
        let planner = Planner::new(g)
            .algorithm(algorithm)
            .cycle_bound(cycle_bound);
        let planned = match structure {
            Some(structure) => planner.plan_as(structure),
            None => planner.plan(),
        }
        .map(Arc::new);
        let plan_time = planning.elapsed();
        // A failure is remembered with the budget it failed under, and
        // counted when it is served again — never as a miss.
        let failed_under = planned.is_err().then_some(cycle_bound);
        if planned.is_ok() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.lock()
            .plans
            .insert(self.capacity, key, identity, failed_under, planned.clone());
        planned.map(|plan| found(plan, false, plan_time))
    }

    /// Returns the cached certification verdict for `g` under `algorithm`
    /// and the declared per-node filter `periods`,
    /// or walks the certification fallback chain
    /// ([`Planner::certify`]'s candidates, with structural plans served
    /// through this cache), caches the verdict, and returns it.
    ///
    /// Verdicts — positive *and* negative — are keyed by
    /// `(fingerprint, algorithm, filter signature, cycle_bound)`
    /// with the same labeled-hash + exact-arena (+ exact-periods) double
    /// check as plans, so a fallback decision is made **once per topology
    /// shape** and a hash collision degrades to a miss, never a wrong
    /// verdict.  The cycle budget is part of the key so a negative verdict
    /// reached by exhausting a small budget is never served to a caller
    /// asking under a larger one.  The third argument is inert: `ledger/`
    /// passing it is the only reason it exists.  A miss certifies on the
    /// calling thread alone.
    pub fn certify(
        &self,
        g: &Graph,
        algorithm: Algorithm,
        _: Rounding,
        cycle_bound: usize,
        periods: &[u64],
    ) -> std::result::Result<CertifiedCached, CertifyError> {
        self.certify_identified(g, &GraphIdentity::of(g), algorithm, cycle_bound, periods, None)
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
    ) -> std::result::Result<CertifiedCached, CertifyError> {
        let key = CertKey {
            plan: Key {
                fingerprint: identity.fingerprint,
                algorithm,
            },
            filter: filter_signature(periods),
            cycle_bound,
        };
        let canonical: Vec<u64> = periods.iter().map(|&p| p.max(1)).collect();
        // Single flight: the first submitter of an unseen shape walks, the
        // others wait (the table lock is held neither while waiting nor
        // while walking) and read what it stored.  A walk that panicked, or
        // whose verdict was evicted at once, leaves neither: they walk.
        type Flight = (CertKey, GraphIdentity, Vec<u64>);
        let flying = |f: &Flight| f.0 == key && f.1 == *identity && f.2 == canonical;
        let mut inner = self.lock();
        let cached = loop {
            let cached = inner.verdicts.get(&key, identity, &canonical);
            if cached.is_some() || !inner.walking.iter().any(flying) {
                break cached;
            }
            inner = self.walked.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        let counter = if cached.is_some() { &self.cert_hits } else { &self.cert_misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let Some(cached) = cached else {
            inner.walking.push((key, identity.clone(), canonical.clone()));
            drop(inner);
            // The chain itself lives in `walk_certification_chain` (shared
            // with `Planner::certify`, so the two can never select
            // differently); the cache only decides where structural
            // candidates come from: through the plan table (repeat shapes
            // plan once), from this one decomposition.  Forced-exhaustive
            // candidates are the walk's own and live only inside the
            // verdict, so a later plain `plan()` of the same shape still
            // gets the structural plan.
            let planner = Planner::new(g)
                .algorithm(algorithm)
                .cycle_bound(cycle_bound);
            let walked = catch_unwind(AssertUnwindSafe(|| {
                let structure = Structure::of(g).map_err(CertifyError::Unplannable)?;
                walk_certification_chain(&planner, &structure, &canonical, helpers, |candidate| {
                    let from = Some(&structure);
                    let cached = self.plan_identified(g, identity, candidate, cycle_bound, from)?;
                    Ok((cached.plan, cached.plan_time))
                })
            }));
            // Whatever the walk found is the verdict, a rejection included.
            let verdict = walked.map(|walked| {
                walked.map(|accepted| CertifiedCached {
                    plan: accepted.plan,
                    used: accepted.used,
                    exhaustive: accepted.exhaustive,
                    fell_back: accepted.fell_back,
                    fingerprint: key.plan.fingerprint,
                    filter_signature: key.filter,
                    hit: false,
                    plan_time: accepted.plan_time,
                    certify_time: accepted.certify_time,
                })
            });
            // However the walk ended its waiters go on: they find the
            // verdict stored under this lock, or nothing.
            let mut inner = self.lock();
            inner.walking.retain(|f| !flying(f));
            if let Ok(verdict) = &verdict {
                inner.verdicts.insert(self.capacity, key, identity, canonical, verdict.clone());
            }
            drop(inner);
            self.walked.notify_all();
            return verdict.unwrap_or_else(|panic| resume_unwind(panic));
        };
        drop(inner);
        cached.map(|cached| CertifiedCached {
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

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().plans.order.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the planner.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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
        self.lock().verdicts.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fila_graph::GraphBuilder;

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

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(8);
        let g = fig3();
        let first = cache.plan(&g, Algorithm::Propagation, 1000).unwrap();
        assert!(!first.hit);
        let second = cache.plan(&g, Algorithm::Propagation, 1000).unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
        assert_eq!(second.plan_time, Duration::ZERO);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
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
        assert!(!cache.plan(&g1, Algorithm::Propagation, 1000).unwrap().hit);
        let hit = cache.plan(&g2, Algorithm::Propagation, 1000).unwrap();
        assert!(hit.hit);
    }

    #[test]
    fn different_algorithms_cache_separately() {
        let cache = PlanCache::new(8);
        let g = fig3();
        let p = cache.plan(&g, Algorithm::Propagation, 1000).unwrap();
        let np = cache.plan(&g, Algorithm::NonPropagation, 1000).unwrap();
        assert!(!np.hit);
        assert_ne!(p.plan.intervals(), np.plan.intervals());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_perturbation_misses() {
        let cache = PlanCache::new(8);
        let g1 = fig3();
        let mut g2 = g1.clone();
        let e = g2.edge_by_names("b", "e").unwrap();
        g2.set_capacity(e, 7).unwrap();
        assert!(!cache.plan(&g1, Algorithm::Propagation, 1000).unwrap().hit);
        assert!(!cache.plan(&g2, Algorithm::Propagation, 1000).unwrap().hit);
        assert_eq!(cache.misses(), 2);
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
        assert!(!cache.plan(&g1, Algorithm::Propagation, 1000).unwrap().hit);
        let second = cache.plan(&g2, Algorithm::Propagation, 1000).unwrap();
        assert!(!second.hit, "reordered arena must not reuse EdgeId-indexed plan");
        // Both orderings are now cached under the same fingerprint bucket.
        assert_eq!(cache.len(), 2);
        assert!(cache.plan(&g2, Algorithm::Propagation, 1000).unwrap().hit);
    }

    #[test]
    fn certification_verdicts_are_cached_per_shape_and_filter() {
        let cache = PlanCache::new(8);
        let g = fig3();
        let periods = vec![4u64; g.node_count()];
        let first = cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &periods)
            .unwrap();
        assert!(!first.hit);
        assert!(!first.fell_back);
        assert_eq!(first.used, Algorithm::NonPropagation);
        let second = cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &periods)
            .unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.plan, &second.plan));
        assert_eq!(second.certify_time, Duration::ZERO);
        assert_eq!(cache.cert_hits(), 1);
        assert_eq!(cache.cert_misses(), 1);
        // A different filter profile is a different verdict key.
        let other = vec![2u64; g.node_count()];
        assert!(!cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &other)
            .unwrap()
            .hit);
        assert_eq!(cache.cert_len(), 2);
        // The structural plan behind both verdicts was planned once.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
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
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &periods)
            .unwrap();
        assert!(!first.hit);
        let other_budget = cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 2000, &periods)
            .unwrap();
        assert!(!other_budget.hit, "a different cycle budget must not share a verdict");
        assert_eq!(cache.cert_misses(), 2);
        // Same budget again is still a hit.
        assert!(cache
            .certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 2000, &periods)
            .unwrap()
            .hit);
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
            ("x", "a"), ("x", "b"),
            ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
            ("c", "y"), ("d", "y"),
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
        let certify =
            |bound| cache.certify(&g, Algorithm::NonPropagation, Rounding::Ceil, bound, &periods);
        let cold = certify(16).unwrap_err();
        assert!(matches!(cold, CertifyError::Unplannable(_)), "{cold}");
        let before = (cache.cert_misses(), cache.misses(), cache.cert_len());
        assert_eq!(before, (1, 0, 1));
        // The repeat is a probe: the planner is not entered, and the answer
        // is the same in kind and text.
        let warm = certify(16).unwrap_err();
        assert!(matches!(warm, CertifyError::Unplannable(_)), "{warm}");
        assert_eq!(warm.to_string(), cold.to_string());
        assert_eq!(cache.cert_hits(), 1);
        assert_eq!((cache.cert_misses(), cache.misses(), cache.cert_len()), before);
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
        let certify =
            |bound| cache.certify(&g, Algorithm::NonPropagation, Rounding::Ceil, bound, &periods);
        assert!(matches!(certify(3), Err(CertifyError::Unplannable(_))));
        assert!(matches!(certify(3), Err(CertifyError::Unplannable(_))));
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 1));
        let planned = certify(1000).unwrap();
        assert!(!planned.hit && planned.exhaustive);
        assert_eq!((cache.cert_hits(), cache.cert_misses()), (1, 2));
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
        let periods = g.node_ids().map(|n| if g.out_degree(n) > 1 { 3 } else { 1 }).collect();
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
                    match cache.certify(g, Algorithm::NonPropagation, Rounding::Ceil, bound, &periods) {
                        Ok(c) => (format!("{:?}", c.plan), Some((c.hit, !c.certify_time.is_zero()))),
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
        let certify =
            || cache.certify(&g, Algorithm::NonPropagation, Rounding::Ceil, 1000, &periods);
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
        assert_eq!((cache.cert_len(), cache.cert_misses(), cache.cert_hits()), (1, 2, 0));
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
            cache.plan(g, Algorithm::Propagation, 1000).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // Oldest two were evicted: looking them up again misses.
        assert!(!cache.plan(&graphs[0], Algorithm::Propagation, 1000).unwrap().hit);
        // Newest survived … but the re-plan of graphs[0] just evicted
        // graphs[2], so only graphs[3] is still warm.
        assert!(cache.plan(&graphs[3], Algorithm::Propagation, 1000).unwrap().hit);
    }

    #[test]
    fn a_planning_failure_is_remembered_with_its_budget() {
        let g = butterfly();
        let cache = PlanCache::new(8);
        let plan = |bound| cache.plan(&g, Algorithm::Propagation, bound);
        let cold = plan(3).unwrap_err();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 1));
        // The repeat is served, error and all; the planner is not entered.
        assert_eq!(plan(3).unwrap_err(), cold);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 0, 1));
        // A larger budget re-plans — and what it finds answers every budget.
        assert!(!plan(1000).unwrap().hit);
        assert!(plan(1000).unwrap().hit);
        assert!(plan(3).unwrap().hit);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (3, 1, 2));
    }
}
