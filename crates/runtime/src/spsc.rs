//! A lock-free single-producer/single-consumer ring buffer with blocked-peer
//! notification flags — the channel substrate of [`crate::PooledExecutor`].
//!
//! Every edge of the application graph has exactly one producing node and one
//! consuming node, so its channel never needs multi-producer or multi-consumer
//! machinery: a classic Lamport ring (one atomic head owned by the consumer,
//! one atomic tail owned by the producer, both caching the opposite index)
//! gives wait-free `push`/`pop`/`front` with no locks and no allocation after
//! construction.
//!
//! ## The waiting-flag protocol
//!
//! The pooled executor schedules node *tasks*, not threads, so a task that
//! finds a channel full (or empty) cannot block — it must arrange to be
//! *woken* when the peer makes the channel non-full (non-empty) and yield its
//! worker.  Each ring therefore carries two flags:
//!
//! * the producer, after a failed `push`, calls [`Producer::begin_wait`] and
//!   **retries the push**; only if the retry also fails may it park.  The
//!   consumer checks [`Consumer::take_producer_waiting`] after every
//!   successful `pop` and wakes the producer task if it was set.
//! * symmetrically, the consumer calls [`Consumer::begin_wait`] after seeing
//!   an empty channel and re-peeks; the producer checks
//!   [`Producer::take_consumer_waiting`] after every successful `push`.
//!
//! The store-fence-load ordering on both sides (Dekker's protocol) makes a
//! lost wakeup impossible: either the parking side's re-check observes the
//! peer's operation, or the peer's flag check observes the parking side's
//! registration.  Spurious wakeups remain possible (a woken task simply finds
//! it cannot progress and re-parks), which is harmless.
//!
//! ## Index-width assumption
//!
//! Head and tail are *monotonically increasing* `usize` counters (slot =
//! `index % cap`), which is only sound while they cannot wrap: on a 64-bit
//! target a single channel would need ~5.8 centuries at 10^9 msg/s to
//! overflow, but on a 32-bit target 2^32 messages wrap the counters and
//! corrupt any ring whose capacity does not divide 2^32.  The engines only
//! target 64-bit hosts; port the indices to `u64` (or one-lap stamps à la
//! crossbeam's `ArrayQueue`) before using this module on 32-bit.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The message weight of a ring value.
///
/// Channel capacity is modelled in **messages**: a ring of capacity `c`
/// admits values whose weights sum to at most `c`.  Scalar payloads
/// (`UNIT = true`, weight 1 each) use the slot indices alone for the
/// occupancy check — byte-for-byte the classic Lamport ring.  Weighted
/// payloads (message containers) additionally maintain a consumed-message
/// cursor so occupancy is accounted — and released — per message, never per
/// slot; see [`crate::container`].
pub trait Weigh {
    /// True when every value of this type weighs exactly one message.
    const UNIT: bool;
    /// The current message weight (≥ 1 on a ring).
    fn weight(&self) -> usize;
    /// Splits off the first `n` messages (`0 < n <` weight).  Only invoked
    /// on weighted types during partial delivery; unit types never split.
    fn split_front(&mut self, n: usize) -> Self
    where
        Self: Sized,
    {
        let _ = n;
        unreachable!("unit-weight values never split");
    }
}

/// A channel capacity in **messages** — the unit of the paper's buffer
/// model.  The newtype exists so no ring construction site can silently
/// reinterpret "slots of containers" as "slots of messages": a ring of
/// `MsgCap(c)` allocates `c` slots (the worst case of one message per
/// container) and admits at most `c` messages regardless of how they are
/// grouped into containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgCap(usize);

impl MsgCap {
    /// Wraps a capacity of `messages` (≥ 1).
    pub fn new(messages: usize) -> Self {
        assert!(messages >= 1, "channel capacity must be at least 1 message");
        MsgCap(messages)
    }

    /// The capacity in messages.
    pub fn messages(self) -> usize {
        self.0
    }
}

/// Pads and aligns to a cache line so the producer- and consumer-owned
/// indices do not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    /// One slot per message of channel capacity (worst case: every
    /// container holds a single message).
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Channel capacity in **messages** (and slot count).
    cap: usize,
    /// Next slot to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot to push; written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Total messages fully consumed (monotonic); written only by the
    /// consumer, and only used when `T` is weighted (`!T::UNIT`).  Kept on
    /// its own cache line for the same false-sharing reason as `head`.
    msg_head: CachePadded<AtomicUsize>,
    /// Set by the producer when it observed the ring full and intends to
    /// park; consumed by the consumer after a pop.
    producer_waiting: AtomicBool,
    /// Set by the consumer when it observed the ring empty and intends to
    /// park; consumed by the producer after a push.
    consumer_waiting: AtomicBool,
}

// The raw slots are only ever touched by the unique producer (writes at
// `tail`) and the unique consumer (reads at `head`), with the atomic indices
// ordering the hand-off; the endpoints below enforce that uniqueness by
// construction (they are not Clone).
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    #[inline]
    fn slot(&self, index: usize) -> *mut MaybeUninit<T> {
        self.buf[index % self.cap].get()
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Endpoints are gone; drain whatever was left in the ring.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            unsafe { (*self.slot(i)).assume_init_drop() };
        }
    }
}

/// The producing endpoint of a [`ring`].  Not cloneable: exactly one task
/// may push.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Consumer index as of our last refresh; only ever behind the truth,
    /// so a push based on it is conservative (may refresh, never corrupts).
    cached_head: Cell<usize>,
    /// Total message weight pushed (monotonic); producer-local, only used
    /// for weighted payloads.
    msg_tail: Cell<usize>,
    /// Consumed-message cursor as of our last refresh; behind the truth,
    /// so the capacity check based on it is conservative.
    cached_msg_head: Cell<usize>,
}

/// The consuming endpoint of a [`ring`].  Not cloneable: exactly one task
/// may pop.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Producer index as of our last refresh; only ever behind the truth.
    cached_tail: Cell<usize>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("spsc::Producer { .. }")
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("spsc::Consumer { .. }")
    }
}

/// Creates a bounded SPSC ring of capacity `cap` **messages** (≥ 1).
pub fn ring<T: Weigh>(cap: MsgCap) -> (Producer<T>, Consumer<T>) {
    let cap = cap.messages();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        buf,
        cap,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        msg_head: CachePadded(AtomicUsize::new(0)),
        producer_waiting: AtomicBool::new(false),
        consumer_waiting: AtomicBool::new(false),
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            cached_head: Cell::new(0),
            msg_tail: Cell::new(0),
            cached_msg_head: Cell::new(0),
        },
        Consumer {
            ring,
            cached_tail: Cell::new(0),
        },
    )
}

impl<T: Weigh> Producer<T> {
    /// Attempts to push; hands the value back if it does not fit the
    /// remaining **message** capacity (or, for weighted payloads, when no
    /// slot is free — a transient state while the consumer finishes a
    /// partially consumed front container).
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        // `cached_head` is only ever ≤ the true head (a reset sets it to 0),
        // so `tail - cached_head` over-approximates the occupancy: `< cap`
        // proves there is space, `>= cap` forces a refresh.
        if tail - self.cached_head.get() >= ring.cap {
            self.cached_head
                .set(ring.head.0.load(Ordering::Acquire));
            if tail - self.cached_head.get() >= ring.cap {
                return Err(value);
            }
        }
        if !T::UNIT {
            // Weighted payloads additionally account occupancy in messages:
            // a free slot alone does not prove `weight` messages of space.
            let w = value.weight();
            debug_assert!(
                (1..=ring.cap).contains(&w),
                "container weight {w} exceeds channel capacity {}",
                ring.cap
            );
            if self.msg_tail.get() + w > self.cached_msg_head.get() + ring.cap {
                self.cached_msg_head
                    .set(ring.msg_head.0.load(Ordering::Acquire));
                if self.msg_tail.get() + w > self.cached_msg_head.get() + ring.cap {
                    return Err(value);
                }
            }
            self.msg_tail.set(self.msg_tail.get() + w);
        }
        unsafe { (*ring.slot(tail)).write(value) };
        ring.tail.0.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Messages that can be pushed right now: the remaining message
    /// capacity, or 0 when no slot is free.  Conservative (caches refresh
    /// only when the cached view says "no space"), never an over-estimate.
    pub(crate) fn space_msgs(&self) -> usize {
        let ring = &*self.ring;
        let tail = ring.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head.get() >= ring.cap {
            self.cached_head.set(ring.head.0.load(Ordering::Acquire));
            if tail - self.cached_head.get() >= ring.cap {
                return 0;
            }
        }
        if T::UNIT {
            return ring.cap - (tail - self.cached_head.get());
        }
        let mut used = self.msg_tail.get() - self.cached_msg_head.get();
        if used >= ring.cap {
            self.cached_msg_head
                .set(ring.msg_head.0.load(Ordering::Acquire));
            used = self.msg_tail.get() - self.cached_msg_head.get();
        }
        ring.cap - used.min(ring.cap)
    }

    /// Registers this endpoint as blocked-on-full.  The caller **must retry
    /// the push** after this call and may only park if the retry fails too
    /// (the Dekker re-check that makes lost wakeups impossible);
    /// [`crate::container::DeliverMsgs::deliver_or_register`] performs the
    /// whole ritual.
    pub fn begin_wait(&self) {
        self.ring.producer_waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Force the retry to re-read the consumer's true indices.
        self.cached_head.set(0);
        self.cached_msg_head.set(0);
    }

    /// Withdraws a [`Producer::begin_wait`] registration after the retry
    /// succeeded, so the consumer does not issue a stale wakeup.
    pub fn cancel_wait(&self) {
        self.ring.producer_waiting.store(false, Ordering::SeqCst);
    }

    /// After a successful push: returns whether the consumer had registered
    /// as blocked-on-empty (and clears the registration).  A `true` return
    /// obliges the caller to wake the consuming task.
    pub fn take_consumer_waiting(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.ring.consumer_waiting.load(Ordering::SeqCst) {
            self.ring.consumer_waiting.swap(false, Ordering::SeqCst)
        } else {
            false
        }
    }
}

impl<T: Weigh> Consumer<T> {
    /// Number of values currently buffered (may be stale by concurrent
    /// pushes, never by pops — the consumer owns `head`).
    pub fn len(&self) -> usize {
        let head = self.ring.head.0.load(Ordering::Relaxed);
        let tail = self.ring.tail.0.load(Ordering::Acquire);
        tail - head
    }

    /// True when nothing is buffered (same staleness as [`Consumer::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to pop the front value, releasing its full remaining
    /// message weight.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if !self.refresh_nonempty(head) {
            return None;
        }
        let value = unsafe { (*ring.slot(head)).assume_init_read() };
        if !T::UNIT {
            self.release_msgs(value.weight());
        }
        ring.head.0.store(head + 1, Ordering::Release);
        Some(value)
    }

    /// Exclusive access to the front value without consuming it.  Sound
    /// because the consumer owns every slot in `head..tail` until it
    /// advances `head`.
    pub(crate) fn front_mut(&mut self) -> Option<&mut T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if !self.refresh_nonempty(head) {
            return None;
        }
        Some(unsafe { (*ring.slot(head)).assume_init_mut() })
    }

    /// Drops the fully consumed front value and frees its slot.  The caller
    /// must have drained it (weight 0) and released its messages via
    /// [`Consumer::release_msgs`].
    pub(crate) fn advance_exhausted(&mut self) {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        debug_assert!(self.cached_tail.get() > head, "no front value");
        unsafe { (*ring.slot(head)).assume_init_drop() };
        ring.head.0.store(head + 1, Ordering::Release);
    }

    /// Releases `n` consumed messages to the producer's capacity account.
    /// Weighted payloads only: capacity is released per consumed message so
    /// ring occupancy equals modelled channel occupancy at every instant.
    pub(crate) fn release_msgs(&self, n: usize) {
        debug_assert!(!T::UNIT);
        let cur = self.ring.msg_head.0.load(Ordering::Relaxed);
        self.ring.msg_head.0.store(cur + n, Ordering::Release);
    }

    /// Registers this endpoint as blocked-on-empty.  The caller **must
    /// re-peek** after this call and may only park if the ring is still
    /// empty; [`crate::container::ConsumeMsgs::front_msg_or_register`]
    /// performs the whole ritual.
    pub fn begin_wait(&self) {
        self.ring.consumer_waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Force the re-peek to re-read the producer's true index.
        self.cached_tail.set(0);
    }

    /// Withdraws a [`Consumer::begin_wait`] registration after the re-peek
    /// found a message, so the producer does not issue a stale wakeup.
    pub fn cancel_wait(&self) {
        self.ring.consumer_waiting.store(false, Ordering::SeqCst);
    }

    /// After a successful pop: returns whether the producer had registered
    /// as blocked-on-full (and clears the registration).  A `true` return
    /// obliges the caller to wake the producing task.
    pub fn take_producer_waiting(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.ring.producer_waiting.load(Ordering::SeqCst) {
            self.ring.producer_waiting.swap(false, Ordering::SeqCst)
        } else {
            false
        }
    }

    /// Refreshes the cached tail if needed; true when a message is buffered
    /// at `head`.
    #[inline]
    fn refresh_nonempty(&self, head: usize) -> bool {
        if self.cached_tail.get() <= head {
            self.cached_tail
                .set(self.ring.tail.0.load(Ordering::Acquire));
        }
        self.cached_tail.get() > head
    }
}

impl<T: Copy + Weigh> Consumer<T> {
    /// Copies the front message without consuming it (the acceptance rule of
    /// §II.A needs to compare the heads of several channels before deciding
    /// which to pop).
    pub fn front(&self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.0.load(Ordering::Relaxed);
        if !self.refresh_nonempty(head) {
            return None;
        }
        Some(unsafe { (*ring.slot(head)).assume_init_read() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    impl Weigh for u64 {
        const UNIT: bool = true;
        fn weight(&self) -> usize {
            1
        }
    }

    fn ring<T: Weigh>(cap: usize) -> (Producer<T>, Consumer<T>) {
        super::ring(MsgCap::new(cap))
    }

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = ring::<u64>(3);
        assert!(rx.is_empty());
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        tx.push(3).unwrap();
        assert_eq!(tx.push(4), Err(4));
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.front(), Some(1));
        assert_eq!(rx.pop(), Some(1));
        tx.push(4).unwrap();
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.front(), None);
    }

    #[test]
    fn front_does_not_consume() {
        let (mut tx, mut rx) = ring::<u64>(2);
        tx.push(7).unwrap();
        assert_eq!(rx.front(), Some(7));
        assert_eq!(rx.front(), Some(7));
        assert_eq!(rx.pop(), Some(7));
    }

    #[test]
    fn waiting_flags_round_trip() {
        let (mut tx, mut rx) = ring::<u64>(1);
        // Consumer registers, producer pushes and observes the registration.
        rx.begin_wait();
        assert_eq!(rx.pop(), None);
        tx.push(1).unwrap();
        assert!(tx.take_consumer_waiting());
        assert!(!tx.take_consumer_waiting(), "flag is cleared by the take");
        // Producer registers on a full ring, consumer pops and observes it.
        assert_eq!(tx.push(2), Err(2));
        tx.begin_wait();
        assert_eq!(tx.push(2), Err(2));
        assert_eq!(rx.pop(), Some(1));
        assert!(rx.take_producer_waiting());
        assert!(!rx.take_producer_waiting());
        // cancel_wait withdraws a registration.
        rx.begin_wait();
        rx.cancel_wait();
        tx.push(3).unwrap();
        assert!(!tx.take_consumer_waiting());
    }

    #[test]
    fn leftover_messages_are_dropped_with_the_ring() {
        // A drop-counting payload: the ring must drain undelivered values.
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Debug)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl Weigh for Token {
            const UNIT: bool = true;
            fn weight(&self) -> usize {
                1
            }
        }
        let (mut tx, mut rx) = ring::<Token>(4);
        tx.push(Token).unwrap();
        tx.push(Token).unwrap();
        tx.push(Token).unwrap();
        drop(rx.pop());
        let before = DROPS.load(Ordering::SeqCst);
        assert_eq!(before, 1);
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cross_thread_stream_is_loss_free() {
        const N: u64 = 100_000;
        let (mut tx, mut rx) = ring::<u64>(8);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }
}
