//! Dummy-message intervals and per-edge interval maps.
//!
//! The dummy interval `[e]` of a channel `e` is the largest number of
//! consecutive sequence numbers the channel's producer may filter (send no
//! data message for) before it must emit a dummy message on `e`.  An
//! interval of [`DummyInterval::Infinite`] means the channel never needs
//! dummy messages (it lies on no relevant undirected cycle).

use std::cmp::Ordering;
use std::fmt;

use fila_graph::{EdgeId, Graph};

/// The dummy-message interval of a single channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DummyInterval {
    /// A dummy must be sent after at most this many consecutively filtered
    /// sequence numbers.  Always at least 1.
    Finite(u64),
    /// The channel never requires dummy messages.
    Infinite,
}

impl DummyInterval {
    /// The smaller (more conservative) of two intervals.
    pub fn min(self, other: DummyInterval) -> DummyInterval {
        match (self, other) {
            (DummyInterval::Infinite, x) | (x, DummyInterval::Infinite) => x,
            (DummyInterval::Finite(a), DummyInterval::Finite(b)) => {
                DummyInterval::Finite(a.min(b))
            }
        }
    }

    /// Returns the finite value, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            DummyInterval::Finite(v) => Some(v),
            DummyInterval::Infinite => None,
        }
    }

    /// True if the interval is finite.
    pub fn is_finite(self) -> bool {
        matches!(self, DummyInterval::Finite(_))
    }

    /// Builds a finite interval from a buffer length, clamping to at least 1.
    pub fn from_length(len: u64) -> DummyInterval {
        DummyInterval::Finite(len.max(1))
    }

    /// Builds the **filtering-robust** Non-Propagation interval for an edge
    /// on a run of `hops` hops whose opposite branch has buffer length
    /// `len`: the largest `T ≥ 1` with `T^hops ≤ len`.
    ///
    /// The paper's §IV.B recurrence uses the ratio `len / hops`, whose
    /// soundness argument assumes every interior node of a run *re-emits*
    /// the data it receives, so a dummy's lag accumulates additively
    /// (`h · L/h ≤ L`); under interior filtering that deadlocks (the E14/E17
    /// bug).
    ///
    /// Rationale (the E17 postmortem, DESIGN.md): a Non-Propagation node
    /// emits at least one message (data or dummy) on a channel per `[e]`
    /// *accepted inputs*, and its input clock is driven by the messages
    /// arriving on the run — so the worst-case inter-message gap at the end
    /// of a run is the **product** of the per-edge intervals along it, not
    /// the sum.  Bounding every edge of the run by the integer `hops`-th
    /// root of the opposite slack keeps that product within the slack for
    /// every sub-run as well (shorter paths through the same edges only
    /// shrink the product).  For `hops = 1` this degenerates to the paper's
    /// `[e] = L`, and the result never exceeds the paper's ratio — the
    /// robust bound is a tightening, so every previously safe plan stays safe.
    ///
    /// The root is computed exactly on integers (no floating point).
    pub fn from_run_budget(len: u64, hops: u64) -> DummyInterval {
        debug_assert!(hops > 0, "hop count of a path is positive");
        DummyInterval::Finite(integer_root(len, hops).max(1))
    }
}

/// Largest `t` with `t^hops ≤ len` (0 when `len == 0`), computed with
/// overflow-checked integer arithmetic.
fn integer_root(len: u64, hops: u64) -> u64 {
    if hops == 1 || len <= 1 {
        return len;
    }
    if hops >= u64::from(64 - len.leading_zeros()) {
        // 2^hops > len, so the root is 1 (the common case on long runs).
        return 1;
    }
    let below = |t: u64| -> bool {
        // t^hops ≤ len, without overflow.
        let mut acc: u64 = 1;
        for _ in 0..hops {
            acc = match acc.checked_mul(t) {
                Some(v) if v <= len => v,
                _ => return false,
            };
        }
        true
    };
    let (mut lo, mut hi) = (1u64, len);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if below(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

impl PartialOrd for DummyInterval {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DummyInterval {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (DummyInterval::Infinite, DummyInterval::Infinite) => Ordering::Equal,
            (DummyInterval::Infinite, _) => Ordering::Greater,
            (_, DummyInterval::Infinite) => Ordering::Less,
            (DummyInterval::Finite(a), DummyInterval::Finite(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for DummyInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DummyInterval::Finite(v) => write!(f, "{v}"),
            DummyInterval::Infinite => write!(f, "∞"),
        }
    }
}

/// A shell: the paper rounded its Non-Propagation ratio `L / h` up (Fig. 3:
/// `8/3 → 3`), but since E17 the planner uses the integer root of
/// [`DummyInterval::from_run_budget`], which does not round.  No code reads
/// this type; it exists only because `ledger/` names it (`Planner::rounding`,
/// `ServiceConfig.rounding`, `PlanCache::certify`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round up, as the paper's Fig. 3 does.
    #[default]
    Ceil,
}

/// A per-edge table of dummy intervals, indexed by [`EdgeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalMap {
    intervals: Vec<DummyInterval>,
}

impl IntervalMap {
    /// Creates a map for `edge_count` edges, all initialised to `Infinite`.
    pub fn all_infinite(edge_count: usize) -> Self {
        IntervalMap {
            intervals: vec![DummyInterval::Infinite; edge_count],
        }
    }

    /// Creates a map sized for the edges of `g`, all `Infinite`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::all_infinite(g.edge_count())
    }

    /// Number of edges covered.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True if the map covers no edges.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The interval for `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> DummyInterval {
        self.intervals[e.index()]
    }

    /// Overwrites the interval for `e`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, interval: DummyInterval) {
        self.intervals[e.index()] = interval;
    }

    /// Tightens the interval for `e` to the minimum of its current value and
    /// `candidate`.
    #[inline]
    pub fn tighten(&mut self, e: EdgeId, candidate: DummyInterval) {
        let cur = self.intervals[e.index()];
        self.intervals[e.index()] = cur.min(candidate);
    }

    /// Iterator over `(edge, interval)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, DummyInterval)> + '_ {
        self.intervals
            .iter()
            .enumerate()
            .map(|(i, &iv)| (EdgeId::from_raw(i as u32), iv))
    }

    /// Number of edges with a finite interval.
    pub fn finite_count(&self) -> usize {
        self.intervals.iter().filter(|iv| iv.is_finite()).count()
    }

    /// True if `other` is at least as conservative as `self` on every edge
    /// (every interval in `other` is ≤ the corresponding one here).  Used to
    /// check that an efficient algorithm's plan is *safe* with respect to the
    /// exhaustive baseline.
    pub fn dominates(&self, other: &IntervalMap) -> bool {
        debug_assert_eq!(self.len(), other.len());
        self.intervals
            .iter()
            .zip(other.intervals.iter())
            .all(|(mine, theirs)| theirs <= mine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_ordering() {
        let inf = DummyInterval::Infinite;
        let three = DummyInterval::Finite(3);
        let five = DummyInterval::Finite(5);
        assert_eq!(inf.min(three), three);
        assert_eq!(three.min(inf), three);
        assert_eq!(three.min(five), three);
        assert!(three < five);
        assert!(five < inf);
        assert_eq!(inf.min(inf), inf);
    }

    #[test]
    fn run_budget_is_the_exact_integer_root() {
        // Largest T with T^h ≤ len.
        assert_eq!(DummyInterval::from_run_budget(8, 1), DummyInterval::Finite(8));
        assert_eq!(DummyInterval::from_run_budget(8, 2), DummyInterval::Finite(2));
        assert_eq!(DummyInterval::from_run_budget(9, 2), DummyInterval::Finite(3));
        assert_eq!(DummyInterval::from_run_budget(8, 3), DummyInterval::Finite(2));
        assert_eq!(DummyInterval::from_run_budget(7, 3), DummyInterval::Finite(1));
        assert_eq!(DummyInterval::from_run_budget(6, 3), DummyInterval::Finite(1));
        assert_eq!(DummyInterval::from_run_budget(27, 3), DummyInterval::Finite(3));
        assert_eq!(DummyInterval::from_run_budget(26, 3), DummyInterval::Finite(2));
        // Degenerate inputs clamp to 1 and huge hop counts cannot overflow.
        assert_eq!(DummyInterval::from_run_budget(0, 4), DummyInterval::Finite(1));
        assert_eq!(DummyInterval::from_run_budget(1, 4), DummyInterval::Finite(1));
        assert_eq!(
            DummyInterval::from_run_budget(u64::MAX, 2),
            DummyInterval::Finite(u32::MAX as u64)
        );
        assert_eq!(
            DummyInterval::from_run_budget(u64::MAX, 100),
            DummyInterval::Finite(1)
        );
    }

    #[test]
    fn run_budget_product_over_a_run_respects_the_slack() {
        // The defining property: h edges at the bound multiply to ≤ len.
        for len in 1u64..200 {
            for hops in 1u64..8 {
                let t = DummyInterval::from_run_budget(len, hops).finite().unwrap();
                assert!(t >= 1);
                let product = t.checked_pow(hops as u32).unwrap();
                assert!(product <= len, "len {len} hops {hops}: {t}^{hops} = {product}");
                // And it is the largest such T.
                let next = (t + 1).checked_pow(hops as u32);
                assert!(
                    next.is_none_or(|n| n > len),
                    "len {len} hops {hops}: {t} not maximal"
                );
            }
        }
    }

    #[test]
    fn run_budget_never_exceeds_the_paper_ratio() {
        // The robust bound is a tightening of the paper's L/h in every mode.
        for len in 1u64..200 {
            for hops in 1u64..8 {
                let robust = DummyInterval::from_run_budget(len, hops);
                let floor_ratio = DummyInterval::Finite((len / hops).max(1));
                assert!(robust <= floor_ratio, "len {len} hops {hops}");
            }
        }
    }

    #[test]
    fn length_clamps_to_one() {
        assert_eq!(DummyInterval::from_length(0), DummyInterval::Finite(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(DummyInterval::Finite(7).to_string(), "7");
        assert_eq!(DummyInterval::Infinite.to_string(), "∞");
    }

    #[test]
    fn interval_map_tighten_and_queries() {
        let mut m = IntervalMap::all_infinite(3);
        let e0 = EdgeId::from_raw(0);
        let e1 = EdgeId::from_raw(1);
        assert_eq!(m.get(e0), DummyInterval::Infinite);
        m.tighten(e0, DummyInterval::Finite(6));
        m.tighten(e0, DummyInterval::Finite(9));
        assert_eq!(m.get(e0), DummyInterval::Finite(6));
        m.set(e1, DummyInterval::Finite(2));
        assert_eq!(m.finite_count(), 2);
        assert_eq!(m.len(), 3);
        assert_eq!(m.iter().count(), 3);
    }

    #[test]
    fn dominates_checks_per_edge_safety() {
        let mut exact = IntervalMap::all_infinite(2);
        exact.set(EdgeId::from_raw(0), DummyInterval::Finite(6));
        let mut conservative = exact.clone();
        conservative.set(EdgeId::from_raw(0), DummyInterval::Finite(4));
        // `conservative` is safe w.r.t. `exact`.
        assert!(exact.dominates(&conservative));
        // The other way around is not safe.
        assert!(!conservative.dominates(&exact));
        // Equality dominates both ways.
        assert!(exact.dominates(&exact.clone()));
    }
}
