//! Batched message transport: the [`Container`] abstraction.
//!
//! Every channel of the engines carries *containers* rather than raw
//! [`Message`]s.  A container — a [`Batch`] — is an ordered run of messages
//! (one segment per data message, one per run-length-encoded dummy run)
//! that travels through an SPSC ring as a single slot write, so the
//! per-message cost of the atomics, the Dekker wake fences and the
//! scheduler hand-offs is amortised across the run.
//!
//! ## One batch size
//!
//! A container carries at most the pool's slice budget
//! ([`crate::PoolOptions::batch`]) of messages, clamped to its channel's
//! capacity so a full container always fits its ring.  There is no second
//! knob because none could bind: a slice accepts at most `batch` sequence
//! numbers, an acceptance stages at most one message per port, and staging
//! is flushed before the next slice — so no container could outgrow `batch`
//! anyway.  `batch` = 1 is scalar execution: one message per container.
//!
//! [`Single`] is one message as a ring payload, and nothing more: no engine
//! ships it (`ledger/` times a ring of them).
//!
//! ## The capacity-unit invariant
//!
//! Channel capacity is modelled in **messages**, never in containers: a ring
//! of capacity `c` admits containers whose message weights sum to at most
//! `c` (see [`crate::spsc::Weigh`] and [`crate::spsc::MsgCap`]).  Occupancy
//! is released per *consumed message*, not per popped container, so the
//! blocking behaviour — and therefore every deadlock verdict — is identical
//! to the scalar engines regardless of how messages are grouped.
//!
//! The confluence argument of the Kahn-network model does the rest: a
//! node's accepted-sequence stream is schedule-independent, so per-edge
//! data/dummy counts and verdicts cannot depend on the batch size.

use std::cell::RefCell;

use crate::message::{Message, Payload};
use crate::spsc::{self, Weigh};

/// An ordered run of messages travelling a channel as one ring slot: the
/// two operations `ledger/` drives a [`Batch`] through.
///
/// Invariants a container upholds (and [`Batch::try_push`] enforces):
///
/// * sequence numbers strictly increase front to back;
/// * a container on a ring is never empty;
/// * nothing follows an EOS marker.
pub trait Container {
    /// Removes and returns the front message.
    fn pop_front(&mut self) -> Option<Message>;
    /// Appends `m` if the container holds fewer than `limit` messages and
    /// the ordering invariant allows it; hands `m` back otherwise.
    fn try_push(&mut self, limit: usize, m: Message) -> Result<(), Message>;
}

// ---------------------------------------------------------------- Single --

/// One message as a ring payload, weight 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Single(pub Message);

impl Weigh for Single {
    fn weight(&self) -> usize {
        1
    }
}

// ----------------------------------------------------------------- Batch --

/// One segment of a [`Batch`]: a data message, an RLE run of dummies at
/// consecutive sequence numbers, or the EOS marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seg {
    Data { seq: u64, payload: Payload },
    Dummies { first: u64, len: u64 },
    Eos,
}

/// A view of the run at the front of a [`Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// A single data message.
    Data {
        /// Its sequence number.
        seq: u64,
        /// Its payload.
        payload: Payload,
    },
    /// `len` dummies at consecutive sequence numbers `first..first + len`.
    Dummies {
        /// Sequence number of the first dummy in the run.
        first: u64,
        /// Number of dummies in the run.
        len: u64,
    },
    /// The end-of-stream marker.
    Eos,
}

/// A segmented run of messages: one entry per data message plus
/// run-length-encoded dummy gaps, consumed front to back.
///
/// Segments live in a plain `Vec` with a front cursor (`head`): popping
/// advances the cursor instead of shifting memory, and the vector resets
/// (retaining its allocation) whenever the batch drains.  Data/dummy counts
/// are maintained incrementally so `counts` — called twice per delivered
/// container by the flush loop — is O(1).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Batch {
    segs: Vec<Seg>,
    /// Index of the front segment; slots below it are consumed.
    head: usize,
    /// Dummies already consumed off the front segment (only ever non-zero
    /// while the front segment is `Seg::Dummies`).
    skip: u64,
    /// Remaining messages.
    len: usize,
    /// Remaining data messages.
    data: u64,
    /// Remaining dummy messages.
    dummies: u64,
}

// A `Batch` is the ring's slot: its size, times 8-slot blocks, times every
// ring of a job, is resident memory (`peak_rss_mb`).
const _: () = assert!(std::mem::size_of::<Batch>() <= 64);

thread_local! {
    /// Per-thread recycling pool for [`Batch`] segment vectors.
    ///
    /// Containers are created and destroyed at message rate (one per staged
    /// run), and a worker both consumes and produces containers on every
    /// slice, so recycling the backing vectors thread-locally keeps the hot
    /// path free of allocator traffic without any cross-thread
    /// coordination.  The pool is bounded; overflow falls back to the
    /// allocator.
    static SEG_POOL: RefCell<Vec<Vec<Seg>>> = const { RefCell::new(Vec::new()) };
}

/// Segment vectors retained per thread (~2 per live edge of a slice is
/// plenty; beyond this the allocator is fast enough).
const SEG_POOL_CAP: usize = 64;

/// A segment vector from the thread's pool, or a freshly sized one.
fn pooled_segs() -> Vec<Seg> {
    SEG_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| Vec::with_capacity(8))
}

/// Hands a segment vector back to the thread's pool (or the allocator).
fn recycle_segs(mut segs: Vec<Seg>) {
    if segs.capacity() == 0 {
        return;
    }
    segs.clear();
    // `try_with` so drops during thread teardown (after the TLS value
    // is destroyed) silently fall through to the allocator.
    let _ = SEG_POOL.try_with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SEG_POOL_CAP {
            pool.push(segs);
        }
    });
}

impl Drop for Batch {
    fn drop(&mut self) {
        recycle_segs(std::mem::take(&mut self.segs));
    }
}

impl Batch {
    /// An empty batch drawing its segment storage from the thread's
    /// recycling pool (staging starts here; empty batches never reach a
    /// ring).
    pub fn new() -> Self {
        Batch {
            segs: pooled_segs(),
            head: 0,
            skip: 0,
            len: 0,
            data: 0,
            dummies: 0,
        }
    }

    /// Moves the remaining segments into a vector of exactly their size and
    /// recycles the old one.  For a batch that will never drain: a consumer
    /// peeks its input's EOS marker and leaves it on the ring for the rest
    /// of the job, and would pin a whole pooled vector under it.
    pub(crate) fn release_storage(&mut self) {
        let rest = self.segs[self.head..].to_vec();
        recycle_segs(std::mem::replace(&mut self.segs, rest));
        self.head = 0;
    }

    /// Consumes the front message, which the caller has just observed via
    /// [`Batch::front_run`] to be a data message.
    #[inline]
    pub(crate) fn consume_data(&mut self) {
        debug_assert!(matches!(self.segs.get(self.head), Some(Seg::Data { .. })));
        self.len -= 1;
        self.data -= 1;
        self.advance_segs(1);
    }

    /// Length of the data prefix: how many of the first `max` remaining
    /// messages are data messages below `barrier`, counted from the front
    /// up to the first that is not.
    pub(crate) fn data_prefix(&self, max: usize, barrier: u64) -> usize {
        self.segs[self.head..]
            .iter()
            .take(max)
            .take_while(|seg| matches!(seg, Seg::Data { seq, .. } if *seq < barrier))
            .count()
    }

    /// Appends the first `n` remaining messages of `src` — which the caller
    /// has established are data ([`Batch::data_prefix`]) — as far as the
    /// `limit` allows, without consuming them; returns how many were taken
    /// (0 if the batch's back is not below the prefix).  Ordering is checked
    /// once, at the seam: the rest of the prefix was ordered when `src`
    /// accepted it.
    pub(crate) fn push_data_prefix(&mut self, limit: usize, src: &Batch, n: usize) -> usize {
        let take = n.min(limit.saturating_sub(self.len));
        let run = &src.segs[src.head..src.head + take];
        debug_assert!(run.iter().all(|seg| matches!(seg, Seg::Data { .. })));
        let Some(&Seg::Data { seq: first, .. }) = run.first() else {
            return 0;
        };
        if self.back_seq().is_some_and(|last| first <= last) {
            return 0;
        }
        self.segs.extend_from_slice(run);
        self.len += take;
        self.data += take as u64;
        take
    }

    /// Consumes the first `n` remaining messages, which the caller has
    /// established are data ([`Batch::data_prefix`]).
    pub(crate) fn consume_data_prefix(&mut self, n: usize) {
        assert!(n <= self.segs.len() - self.head, "data prefix under-run");
        debug_assert_eq!(self.data_prefix(n, u64::MAX), n);
        if n == 0 {
            return;
        }
        self.len -= n;
        self.data -= n as u64;
        self.advance_segs(n);
    }

    /// The last sequence number in the batch; `None` when empty.
    pub(crate) fn back_seq(&self) -> Option<u64> {
        self.segs.last().map(|seg| match *seg {
            Seg::Data { seq, .. } => seq,
            Seg::Dummies { first, len } => first + (len - 1),
            Seg::Eos => u64::MAX,
        })
    }

    /// Drops the front `n` segments (fully consumed), resetting the vector
    /// when nothing remains so its allocation is reused by later pushes.
    #[inline]
    fn advance_segs(&mut self, n: usize) {
        self.head += n;
        self.skip = 0;
        if self.head == self.segs.len() {
            self.segs.clear();
            self.head = 0;
        }
    }

    /// The run at the front, without consuming it.
    #[inline]
    pub fn front_run(&self) -> Option<Run> {
        self.segs.get(self.head).map(|seg| match *seg {
            Seg::Data { seq, payload } => Run::Data { seq, payload },
            Seg::Dummies { first, len } => Run::Dummies {
                first: first + self.skip,
                len: len - self.skip,
            },
            Seg::Eos => Run::Eos,
        })
    }

    /// Consumes `n` dummies off the front run (which must be a dummy run of
    /// at least `n` remaining messages).
    pub fn consume_dummies(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        match self.segs.get(self.head) {
            Some(Seg::Dummies { len, .. }) => {
                let len = *len;
                let remaining = len - self.skip;
                assert!(n <= remaining, "dummy run under-run");
                self.skip += n;
                self.len -= n as usize;
                self.dummies -= n;
                if self.skip == len {
                    self.advance_segs(1);
                }
            }
            _ => panic!("front run is not a dummy run"),
        }
    }

    /// Appends a run of `len` dummies at consecutive sequence numbers
    /// `first..first + len`, as far as the `limit` allows; returns how many
    /// were accepted.
    pub fn push_dummy_run(&mut self, limit: usize, first: u64, len: u64) -> u64 {
        let room = (limit.saturating_sub(self.len)) as u64;
        let take = len.min(room);
        if take == 0 {
            return 0;
        }
        debug_assert!(self.back_seq().map_or(true, |last| first > last));
        match self.segs.last_mut() {
            Some(Seg::Dummies { first: f, len: l }) if *f + *l == first => *l += take,
            _ => self.segs.push(Seg::Dummies { first, len: take }),
        }
        self.len += take as usize;
        self.dummies += take;
        take
    }
}

impl Weigh for Batch {
    fn weight(&self) -> usize {
        self.len
    }
}

impl Batch {
    /// A batch of one message.
    pub(crate) fn from_message(m: Message) -> Self {
        let mut b = Batch::new();
        b.try_push(usize::MAX, m).expect("push into empty batch");
        b
    }

    /// Remaining messages.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The front message.  Panics if empty.
    pub(crate) fn front(&self) -> Message {
        match self.front_run().expect("front of empty batch") {
            Run::Data { seq, payload } => Message::Data { seq, payload },
            Run::Dummies { first, .. } => Message::Dummy { seq: first },
            Run::Eos => Message::Eos,
        }
    }

    /// Remaining `(data, dummy)` message counts (EOS counts as neither).
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.data, self.dummies)
    }

    /// Visits the remaining messages front to back (checkpoint flattening).
    pub(crate) fn for_each(&self, f: &mut dyn FnMut(Message)) {
        for (i, seg) in self.segs[self.head..].iter().enumerate() {
            match *seg {
                Seg::Data { seq, payload } => f(Message::Data { seq, payload }),
                Seg::Dummies { first, len } => {
                    let skip = if i == 0 { self.skip } else { 0 };
                    for k in skip..len {
                        f(Message::Dummy { seq: first + k });
                    }
                }
                Seg::Eos => f(Message::Eos),
            }
        }
    }

    /// Splits off the first `n` messages (`0 < n < len`): partial delivery
    /// into the remaining capacity of a ring.
    fn split_front(&mut self, n: usize) -> Self {
        debug_assert!(0 < n && n < self.len);
        let mut front = Batch::new();
        let mut want = n;
        while want > 0 {
            match self.front_run().expect("len accounted") {
                Run::Data { seq, payload } => {
                    front.segs.push(Seg::Data { seq, payload });
                    front.len += 1;
                    front.data += 1;
                    self.len -= 1;
                    self.data -= 1;
                    self.advance_segs(1);
                    want -= 1;
                }
                Run::Dummies { first, len } => {
                    let take = (want as u64).min(len);
                    front.segs.push(Seg::Dummies { first, len: take });
                    front.len += take as usize;
                    front.dummies += take;
                    self.consume_dummies(take);
                    want -= take as usize;
                }
                Run::Eos => unreachable!("EOS is final and n < len"),
            }
        }
        front
    }
}

impl Container for Batch {
    fn pop_front(&mut self) -> Option<Message> {
        let run = self.front_run()?;
        Some(match run {
            Run::Data { seq, payload } => {
                self.len -= 1;
                self.data -= 1;
                self.advance_segs(1);
                Message::Data { seq, payload }
            }
            Run::Dummies { first, .. } => {
                self.consume_dummies(1);
                Message::Dummy { seq: first }
            }
            Run::Eos => {
                self.len -= 1;
                self.advance_segs(1);
                Message::Eos
            }
        })
    }

    fn try_push(&mut self, limit: usize, m: Message) -> Result<(), Message> {
        if self.len >= limit {
            return Err(m);
        }
        if self.back_seq().is_some_and(|last| m.seq() <= last) {
            return Err(m);
        }
        match m {
            Message::Data { seq, payload } => {
                self.segs.push(Seg::Data { seq, payload });
                self.data += 1;
            }
            Message::Dummy { seq } => {
                match self.segs.last_mut() {
                    Some(Seg::Dummies { first, len }) if *first + *len == seq => *len += 1,
                    _ => self.segs.push(Seg::Dummies { first: seq, len: 1 }),
                }
                self.dummies += 1;
            }
            Message::Eos => self.segs.push(Seg::Eos),
        }
        self.len += 1;
        Ok(())
    }
}

// ------------------------------------------------------ ring endpoints --

/// Message-granular consumption off a ring of containers.
///
/// Message occupancy is released per *consumed message* (never per popped
/// container), which keeps ring occupancy equal to the modelled channel
/// occupancy at every instant — the invariant the deadlock verdicts rest
/// on.
impl spsc::Consumer<Batch> {
    /// Peeks the front message of the front container.
    pub(crate) fn front_msg(&mut self) -> Option<Message> {
        self.front_mut().map(|c| c.front())
    }

    /// Peeks the front message, registering the blocked-on-empty waiting
    /// flag (with the mandatory Dekker re-peek) when the ring is empty.
    pub(crate) fn front_msg_or_register(&mut self) -> Option<Message> {
        if let Some(m) = self.front_msg() {
            return Some(m);
        }
        self.begin_wait();
        match self.front_msg() {
            Some(m) => {
                self.cancel_wait();
                Some(m)
            }
            None => None,
        }
    }

    /// Consumes the front message, releasing one message of capacity and
    /// freeing the slot if its container is exhausted.
    pub(crate) fn pop_msg(&mut self) -> Option<Message> {
        let c = self.front_mut()?;
        let m = c.pop_front();
        debug_assert!(m.is_some(), "empty container on a ring");
        self.release_msgs(1);
        m
    }
}

/// Container delivery onto a ring: ships a staged container whole when it
/// fits the remaining message capacity, or splits off the largest
/// deliverable prefix and leaves the remainder staged.
impl spsc::Producer<Batch> {
    /// Attempts to deliver `staged`; returns the number of messages that
    /// made it onto the ring.  On partial (or zero) delivery the remainder
    /// stays in `staged`.  The consumer's count is re-read before a split,
    /// so a container is not cut on a stale view of the space.
    pub(crate) fn deliver(&mut self, staged: &mut Option<Batch>) -> usize {
        let Some(c) = staged.take() else { return 0 };
        let w = c.weight();
        let space = self.space_for(w);
        if space == 0 {
            *staged = Some(c);
            return 0;
        }
        if w <= space {
            match self.push(c) {
                Ok(()) => w,
                Err(_) => {
                    // The consumer only ever frees space, so a push after a
                    // successful space check cannot fail.
                    unreachable!("push failed with {space} msgs of space")
                }
            }
        } else {
            let mut rest = c;
            let part = rest.split_front(space);
            *staged = Some(rest);
            match self.push(part) {
                Ok(()) => space,
                Err(_) => unreachable!("prefix push cannot outgrow checked space"),
            }
        }
    }

    /// [`Self::deliver`], registering the blocked-on-full waiting flag
    /// (with the mandatory Dekker retry) when anything stays staged.
    pub(crate) fn deliver_or_register(&mut self, staged: &mut Option<Batch>) -> usize {
        let mut n = self.deliver(staged);
        if staged.is_none() {
            return n;
        }
        self.begin_wait();
        n += self.deliver(staged);
        if staged.is_none() {
            self.cancel_wait();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::MsgCap;

    fn drain(b: &Batch) -> Vec<Message> {
        let mut v = Vec::new();
        b.for_each(&mut |m| v.push(m));
        v
    }

    #[test]
    fn batch_preserves_message_order() {
        let mut b = Batch::new();
        b.try_push(64, Message::Data { seq: 0, payload: 7 }).unwrap();
        b.try_push(64, Message::Dummy { seq: 1 }).unwrap();
        b.try_push(64, Message::Dummy { seq: 2 }).unwrap();
        b.try_push(64, Message::Data { seq: 3, payload: 9 }).unwrap();
        b.try_push(64, Message::Eos).unwrap();
        assert_eq!(b.len(), 5);
        assert_eq!(b.counts(), (2, 2));
        let mut popped = Vec::new();
        let mut c = b.clone();
        while let Some(m) = c.pop_front() {
            popped.push(m);
        }
        assert_eq!(popped, drain(&b));
        assert_eq!(
            popped,
            vec![
                Message::Data { seq: 0, payload: 7 },
                Message::Dummy { seq: 1 },
                Message::Dummy { seq: 2 },
                Message::Data { seq: 3, payload: 9 },
                Message::Eos,
            ]
        );
    }

    #[test]
    fn batch_rejects_order_violations_and_limit() {
        let mut b = Batch::new();
        b.try_push(2, Message::Data { seq: 5, payload: 0 }).unwrap();
        // Every non-increasing number is rejected: a repeat, a regression,
        // and a dummy sharing its data message's number.
        assert!(b.try_push(2, Message::Data { seq: 5, payload: 1 }).is_err());
        assert!(b.try_push(2, Message::Dummy { seq: 4 }).is_err());
        assert!(b.try_push(2, Message::Dummy { seq: 5 }).is_err());
        b.try_push(2, Message::Dummy { seq: 6 }).unwrap();
        assert!(b.try_push(2, Message::Dummy { seq: 7 }).is_err(), "limit");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn batch_rle_merges_consecutive_dummies() {
        let mut b = Batch::new();
        for seq in 10..20 {
            b.try_push(usize::MAX, Message::Dummy { seq }).unwrap();
        }
        assert_eq!(b.segs.len(), 1, "consecutive dummies collapse to one run");
        assert_eq!(b.front_run(), Some(Run::Dummies { first: 10, len: 10 }));
        b.consume_dummies(4);
        assert_eq!(b.front_run(), Some(Run::Dummies { first: 14, len: 6 }));
        assert_eq!(b.counts(), (0, 6));
        assert_eq!(b.push_dummy_run(8, 20, 10), 2, "limit caps the extension");
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn batch_split_front_preserves_order_and_weights() {
        let mut b = Batch::new();
        b.try_push(64, Message::Data { seq: 0, payload: 1 }).unwrap();
        for seq in 1..6 {
            b.try_push(64, Message::Dummy { seq }).unwrap();
        }
        b.try_push(64, Message::Data { seq: 6, payload: 2 }).unwrap();
        let all = drain(&b);
        let front = b.split_front(3);
        assert_eq!(front.weight(), 3);
        assert_eq!(b.weight(), 4);
        let mut rejoined = drain(&front);
        rejoined.extend(drain(&b));
        assert_eq!(rejoined, all);
    }

    /// A random mixed container (data, dummy runs, sequence gaps, sometimes
    /// a final EOS) starting at or above `from`.
    fn random_batch(rng: &mut rand::rngs::StdRng, from: u64) -> Batch {
        use rand::Rng;
        let mut b = Batch::new();
        let mut seq = from;
        // Long data runs in half the containers, well mixed in the rest.
        let data_share = if rng.gen_bool(0.5) { 19 } else { 12 };
        for _ in 0..rng.gen_range(1..40usize) {
            seq += rng.gen_range(0..3u64);
            let m = if rng.gen_range(0..20u32) < data_share {
                Message::Data { seq, payload: seq * 3 + 1 }
            } else {
                Message::Dummy { seq }
            };
            b.try_push(usize::MAX, m).unwrap();
            seq += 1;
        }
        if rng.gen_bool(0.2) {
            b.try_push(usize::MAX, Message::Eos).unwrap();
        }
        b
    }

    #[test]
    fn data_prefix_move_matches_pop_front_and_try_push() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE27);
        let (mut splits, mut refusals, mut drained) = (0, 0, 0);
        for case in 0..2_000 {
            let mut src = random_batch(&mut rng, 100);
            // Start anywhere: mid-container, mid-dummy-run.
            for _ in 0..rng.gen_range(0..src.len()) {
                src.pop_front();
            }
            let limit = rng.gen_range(1..48usize);
            let max = rng.gen_range(0..50usize);
            let barrier = if rng.gen_bool(0.5) { u64::MAX } else { rng.gen_range(100..160u64) };
            // The destination: empty, below the source, or overlapping it.
            let mut dst = Batch::new();
            if rng.gen_bool(0.7) {
                let from = if rng.gen_bool(0.8) { 0 } else { 95 };
                random_batch(&mut rng, from).for_each(&mut |m| {
                    let _ = dst.try_push(limit, m);
                });
            }

            // The scalar reference: pop while the front is data below the
            // barrier, push into the staged container and, once that
            // refuses (limit or order), into a second one.
            let (mut ref_src, mut ref_dst, mut ref_second) = (src.clone(), dst.clone(), Batch::new());
            let mut n = 0;
            while n < max {
                let Some(Run::Data { seq, .. }) = ref_src.front_run() else { break };
                if seq >= barrier {
                    break;
                }
                n += 1;
                let m = ref_src.pop_front().unwrap();
                if ref_second.len() > 0 || ref_dst.try_push(limit, m).is_err() {
                    ref_second.try_push(usize::MAX, m).unwrap();
                }
            }

            assert_eq!(src.data_prefix(max, barrier), n, "case {case}");
            let took = dst.push_data_prefix(limit, &src, n);
            src.consume_data_prefix(took);
            let mut second = Batch::new();
            let rest = second.push_data_prefix(usize::MAX, &src, n - took);
            src.consume_data_prefix(rest);
            assert_eq!(took + rest, n, "case {case}: a fresh container refuses nothing");

            // Same messages in the same places, same cursors, same
            // accounting (`Batch` equality covers segments, `head`, `skip`,
            // `len` and both counts).
            for (got, want) in [(&src, &ref_src), (&dst, &ref_dst), (&second, &ref_second)] {
                assert_eq!(got, want, "case {case}");
            }
            if src.len() == 0 {
                assert_eq!((src.head, src.skip, src.segs.len()), (0, 0, 0), "case {case}");
                drained += 1;
            }
            if took < n && dst.len() < limit {
                // Refused whole: the destination's back is not below the prefix.
                assert_eq!(took, 0, "case {case}");
                assert!(dst.back_seq().unwrap() >= drain(&second)[0].seq(), "case {case}");
                refusals += 1;
            } else if 0 < took && took < n {
                splits += 1;
            }
        }
        assert!(splits > 50 && refusals > 50 && drained > 50, "{splits} {refusals} {drained}");
    }

    #[test]
    fn ring_occupancy_is_in_messages_not_containers() {
        // Capacity 4: one 3-message batch + one 1-message batch fill it.
        let (mut tx, mut rx) = spsc::ring::<Batch>(MsgCap::new(4));
        let mut b = Batch::new();
        for seq in 0..3 {
            b.try_push(64, Message::Dummy { seq }).unwrap();
        }
        tx.push(b).unwrap();
        tx.push(Batch::from_message(Message::Dummy { seq: 3 })).unwrap();
        let overflow = Batch::from_message(Message::Dummy { seq: 4 });
        assert!(tx.push(overflow).is_err(), "4 msgs of 4 are occupied");
        // Consuming one message releases exactly one message of capacity.
        assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq: 0 }));
        tx.push(Batch::from_message(Message::Dummy { seq: 4 })).unwrap();
        assert!(tx
            .push(Batch::from_message(Message::Dummy { seq: 5 }))
            .is_err());
        for seq in 1..5 {
            assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq }));
        }
        tx.push(Batch::from_message(Message::Dummy { seq: 5 })).unwrap();
        assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq: 5 }));
        assert_eq!(rx.pop_msg(), None);
    }

    #[test]
    fn deliver_splits_to_fit_and_registers() {
        let (mut tx, mut rx) = spsc::ring::<Batch>(MsgCap::new(4));
        let mut b = Batch::new();
        for seq in 0..6 {
            b.try_push(64, Message::Dummy { seq }).unwrap();
        }
        let mut staged = Some(b);
        assert_eq!(tx.deliver_or_register(&mut staged), 4, "prefix shipped");
        assert_eq!(staged.as_ref().map(Batch::len), Some(2));
        // The producer stays registered: the consumer's pops must report it.
        assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq: 0 }));
        assert!(rx.take_producer_waiting());
        // One message of space opened, so exactly one more message ships.
        assert_eq!(tx.deliver_or_register(&mut staged), 1);
        assert_eq!(staged.as_ref().map(Batch::len), Some(1));
        assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq: 1 }));
        assert!(rx.take_producer_waiting());
        assert_eq!(tx.deliver_or_register(&mut staged), 1);
        assert!(staged.is_none());
        for seq in 2..6 {
            assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq }));
        }
    }

    #[test]
    fn deliver_rereads_the_space_before_splitting() {
        let (mut tx, mut rx) = spsc::ring::<Batch>(MsgCap::new(8));
        let mut first = Batch::new();
        for seq in 0..6 {
            first.try_push(64, Message::Dummy { seq }).unwrap();
        }
        tx.push(first).unwrap();
        for seq in 0..6 {
            assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq }));
        }
        // The producer's cached view still has 6 of 8 occupied; the ring is
        // empty.
        let mut b = Batch::new();
        for seq in 6..10 {
            b.try_push(64, Message::Dummy { seq }).unwrap();
        }
        let mut staged = Some(b);
        assert_eq!(tx.deliver_or_register(&mut staged), 4);
        assert!(staged.is_none());
        assert!(!rx.take_producer_waiting(), "no registration");
        assert_eq!(rx.front_mut().map(|c| c.len()), Some(4), "one push, no split");
    }

    #[test]
    fn front_msg_walks_containers() {
        let (mut tx, mut rx) = spsc::ring::<Batch>(MsgCap::new(8));
        let mut b = Batch::new();
        b.try_push(64, Message::Data { seq: 0, payload: 5 }).unwrap();
        b.try_push(64, Message::Dummy { seq: 1 }).unwrap();
        tx.push(b).unwrap();
        tx.push(Batch::from_message(Message::Eos)).unwrap();
        assert_eq!(rx.front_msg(), Some(Message::Data { seq: 0, payload: 5 }));
        assert_eq!(rx.pop_msg(), Some(Message::Data { seq: 0, payload: 5 }));
        assert_eq!(rx.front_msg(), Some(Message::Dummy { seq: 1 }));
        assert_eq!(rx.pop_msg(), Some(Message::Dummy { seq: 1 }));
        assert_eq!(rx.front_msg(), Some(Message::Eos));
    }
}
