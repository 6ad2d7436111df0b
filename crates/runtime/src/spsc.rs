//! A lock-free single-producer/single-consumer ring buffer with blocked-peer
//! notification flags — the channel substrate of [`crate::SharedPool`].
//!
//! Every edge of the application graph has exactly one producing node and one
//! consuming node, so its channel never needs multi-producer or multi-consumer
//! machinery: a classic Lamport ring (one atomic head owned by the consumer,
//! one atomic tail owned by the producer, both caching the opposite index)
//! gives wait-free `push`/`pop`/`front` with no locks.
//!
//! ## Memory follows occupancy
//!
//! Capacity bounds buffered **messages** and may be declared as large as the
//! job likes; what the ring allocates follows what it *holds*.  The slots
//! live in a chain of `BLOCK`-slot blocks from the consumer's block to the
//! producer's: one block at construction, at most `⌈k / BLOCK⌉ + 2` for `k`
//! buffered values (a slot per message in the worst case of `cap`
//! one-message containers — what a flat array costs always), at most two
//! once drained whatever the capacity and history, and no allocation in
//! steady state.  `Producer::next_block` and `Ring::advance` are the
//! hand-off: a link published by the `tail` store the ring always had, and
//! one spare block returned through a mailbox (DESIGN.md "Rings sized by
//! occupancy (E26)" has the argument).  A ring of `cap ≤ BLOCK` is the flat
//! Lamport ring: one block of `cap` slots linked to itself, same code path.
//!
//! The ring's header and its first block are one allocation, freed by the
//! last endpoint dropped (E41): a job builds a ring per edge, so a ring is
//! one allocation, not three.  The first block is therefore never freed on
//! its own: left behind by the consumer, it always goes to the mailbox,
//! evicting (and freeing) whatever block waited there — so it is always in
//! the chain or the mailbox, and the bounds above hold unchanged.
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
//! Head, tail and the message counters are *monotonically increasing*
//! `usize` counters compared by subtraction (the slot itself is a block
//! pointer and an offset kept beside each index, not `index % cap`), which
//! is only sound while they cannot wrap: on a 64-bit target a single channel
//! would need ~5.8 centuries at 10^9 msg/s to overflow, but on a 32-bit
//! target 2^32 messages wrap them.  The engines only target 64-bit hosts;
//! port the counters to `u64` before using this module on 32-bit.

use std::alloc::{self, Layout};
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicUsize, Ordering};

/// The message weight of a ring value.
///
/// Channel capacity is modelled in **messages**: a ring of capacity `c`
/// admits values whose weights sum to at most `c`, and the consumer
/// releases occupancy per consumed message through a message cursor
/// (`msg_head`), never per slot — one accounting protocol for every
/// payload; see [`crate::container`].
pub trait Weigh {
    /// The current message weight (≥ 1 on a ring).
    fn weight(&self) -> usize;
}

/// A channel capacity in **messages** — the unit of the paper's buffer
/// model.  The newtype exists so no ring construction site can silently
/// reinterpret "slots of containers" as "slots of messages": a ring of
/// `MsgCap(c)` admits at most `c` messages regardless of how they are
/// grouped into containers, and allocates for the containers it holds, not
/// for `c` (see the module docs) — any `c` is safe to declare.
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

/// Slots per block of a ring deeper than this many messages (a shallower
/// ring is one block of `cap` slots, see [`Ring`]).  Not a knob: 8 slots of
/// 64-byte containers are half a kilobyte and, at the default 64 messages a
/// container, room for 512 messages — more than most channels ever hold.
const BLOCK: usize = 8;

/// Header of one block; its slots follow it in the same allocation (the
/// zero-length array gives their offset and alignment).
#[repr(C)]
struct Block<T> {
    /// The block holding the next slots (null while this is the tail
    /// block).  Written by the producer before its Release store of `tail`
    /// publishes this block's last slot; read by the consumer when it has
    /// consumed that slot, so after it acquired such a `tail`.
    next: AtomicPtr<Block<T>>,
    slots: [MaybeUninit<T>; 0],
}

impl<T> Block<T> {
    fn layout(slots: usize) -> Layout {
        let slots = Layout::array::<T>(slots).expect("a block is at most BLOCK slots");
        let (layout, offset) = Layout::new::<Self>().extend(slots).expect("as above");
        debug_assert_eq!(offset, std::mem::size_of::<Self>(), "`slots` is where `slot` looks");
        layout
    }

    /// An unlinked block of `slots` uninitialised slots.
    fn alloc(slots: usize) -> *mut Self {
        let block = alloc_for(Self::layout(slots)).cast::<Self>();
        // SAFETY: freshly allocated for this layout, which starts with `next`.
        unsafe { ptr::addr_of_mut!((*block).next).write(AtomicPtr::new(ptr::null_mut())) };
        block
    }

    /// # Safety
    /// `block` came from [`Block::alloc`] with the same `slots`, holds no
    /// initialised value and is not reachable by either endpoint any more.
    unsafe fn free(block: *mut Self, slots: usize) {
        alloc::dealloc(block.cast(), Self::layout(slots));
    }

    /// # Safety
    /// `block` is live and `pos` is below the slot count it was allocated
    /// with.
    #[inline]
    unsafe fn slot(block: *mut Self, pos: usize) -> *mut MaybeUninit<T> {
        ptr::addr_of_mut!((*block).slots).cast::<MaybeUninit<T>>().add(pos)
    }
}

/// One endpoint's position: how many values it has pushed (popped) and the
/// slot the next one goes to (comes from).
struct Cursor<T> {
    /// Monotonic count; written by the owning endpoint, read by its peer.
    index: AtomicUsize,
    /// The block and the slot in it that `index` denotes.  Touched by the
    /// owning endpoint only, like the slots themselves.
    block: Cell<*mut Block<T>>,
    pos: Cell<usize>,
}

/// `layout`'s memory; aborts as the global allocator's users do when there
/// is none.
fn alloc_for(layout: Layout) -> *mut u8 {
    // SAFETY: both callers' layouts start with a pointer: never zero-sized.
    let memory = unsafe { alloc::alloc(layout) };
    if memory.is_null() {
        alloc::handle_alloc_error(layout);
    }
    memory
}

/// The shared state of a ring: a chain of blocks from the consumer's
/// (`head.block`) to the producer's (`tail.block`), linked through
/// [`Block::next`], so memory follows the number of buffered values and not
/// `cap`.  A ring of `cap ≤ BLOCK` is the degenerate chain: one block of
/// `cap` slots whose `next` is itself, which neither endpoint ever leaves.
/// The first block follows the header in the ring's own allocation
/// ([`Ring::first`]).
struct Ring<T> {
    tx: ProducerLine<T>,
    rx: ConsumerLine<T>,
}

const _: () = assert!(std::mem::size_of::<Ring<()>>() == 128, "one line per endpoint");

/// What the producer writes, with the constants both endpoints read, on one
/// cache line: the two endpoints run on different workers, and every line
/// both of them write is a transfer per operation.
#[repr(align(64))]
struct ProducerLine<T> {
    /// Channel capacity in **messages**.
    cap: usize,
    /// Slots per block: `min(BLOCK, cap)`.
    slots: usize,
    /// Where the producer pushes.
    tail: Cursor<T>,
    /// Set by the producer when it observed the ring full and intends to
    /// park; consumed by the consumer after a pop.
    producer_waiting: AtomicBool,
    /// Endpoints not yet dropped; the last one frees the ring.
    endpoints: AtomicUsize,
}

/// What the consumer writes, on its line.
#[repr(align(64))]
struct ConsumerLine<T> {
    /// Where the consumer pops.
    head: Cursor<T>,
    /// Total messages fully consumed (monotonic): what bounds the
    /// producer.
    msg_head: AtomicUsize,
    /// One-place mailbox for the block the consumer last left: only the
    /// consumer fills it (when empty), only the producer empties it, so
    /// plain loads and stores suffice.
    spare: AtomicPtr<Block<T>>,
    /// Set by the consumer when it observed the ring empty and intends to
    /// park; consumed by the producer after a push.
    consumer_waiting: AtomicBool,
}

// SAFETY: the slots, `tail.block`/`tail.pos` and a block's `next` link are
// only ever written by the unique producer, `head.block`/`head.pos` only
// touched by the unique consumer, and a slot (or a whole block, through
// `spare`) changes hands only through a Release store the other side
// Acquire-loads (`tail.index`, `head.index`/`msg_head`, `spare`); every
// other field is an atomic or immutable.  The endpoints below enforce that
// uniqueness by construction (they are not Clone).  `T: Send` because values
// are pushed on one thread and popped or dropped on another.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    /// The layout of a ring whose blocks have `slots` slots: the header,
    /// then its first block, at the returned offset.
    fn layout(slots: usize) -> (Layout, usize) {
        let (layout, offset) = Layout::new::<Self>()
            .extend(Block::<T>::layout(slots))
            .expect("a block is at most BLOCK slots");
        (layout.pad_to_align(), offset)
    }

    /// The block allocated with the header, which only the header's
    /// deallocation frees.
    fn first(&self) -> *mut Block<T> {
        let offset = Self::layout(self.tx.slots).1;
        // SAFETY: the header starts its allocation (`ring_of_blocks`), and
        // the first block is `offset` bytes into it.
        unsafe { (self as *const Self).cast::<u8>().add(offset).cast_mut().cast() }
    }

    /// Gives up the front slot, whose value the consumer moved out or
    /// dropped.  Leaving a block, the consumer follows its link and offers
    /// the block as the producer's spare (or frees it when the mailbox is
    /// taken), so a drained ring holds at most two blocks.  The first block
    /// always goes to the mailbox: it cannot be freed alone, so it takes the
    /// place of whatever block waited there.
    #[inline]
    fn advance(&self) {
        let head = &self.rx.head;
        let (block, pos) = (head.block.get(), head.pos.get());
        if pos + 1 < self.tx.slots {
            head.pos.set(pos + 1);
        } else {
            head.pos.set(0);
            // SAFETY: `block` is the live head block.  The producer linked
            // it before its Release store of the `tail` that published this
            // block's last slot, which the consumer Acquire-loaded to get
            // here.
            let next = unsafe { (*block).next.load(Ordering::Relaxed) };
            if next != block {
                head.block.set(next);
                if block == self.first() {
                    // Release as below; and the evicted block, if the
                    // producer never took it, was last touched here.
                    let evicted = self.rx.spare.swap(block, Ordering::AcqRel);
                    if !evicted.is_null() {
                        // SAFETY: the swap took it out of the producer's
                        // reach; it is an empty, separately allocated block.
                        unsafe { Block::free(evicted, self.tx.slots) };
                    }
                } else if self.rx.spare.load(Ordering::Relaxed).is_null() {
                    // Release: our accesses to the block's slots
                    // happen-before the producer's, see `next_block`.
                    self.rx.spare.store(block, Ordering::Release);
                } else {
                    // SAFETY: the producer left `block` before publishing
                    // its last slot and the consumer just did; it is empty.
                    unsafe { Block::free(block, self.tx.slots) };
                }
            }
        }
        let index = head.index.load(Ordering::Relaxed);
        head.index.store(index + 1, Ordering::Release);
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Endpoints are gone: consume what is left, which retires every
        // block but the one both cursors end in, then free that one and the
        // spare.
        let head = &self.rx.head;
        for _ in head.index.load(Ordering::Relaxed)..self.tx.tail.index.load(Ordering::Relaxed) {
            // SAFETY: slots in `head..tail` are initialised.
            unsafe { (*Block::slot(head.block.get(), head.pos.get())).assume_init_drop() };
            self.advance();
        }
        for block in [head.block.get(), self.rx.spare.load(Ordering::Relaxed)] {
            if !block.is_null() && block != self.first() {
                // SAFETY: live, empty, out of both endpoints' reach, and
                // allocated on its own.
                unsafe { Block::free(block, self.tx.slots) };
            }
        }
    }
}

/// An endpoint's share of its ring: what an `Arc<Ring<T>>` would be, over
/// the one allocation of the header and the first block.
struct Share<T>(NonNull<Ring<T>>);

// SAFETY: a share is an `Arc<Ring<T>>` with the count in the ring, and
// `Ring<T>` is `Send + Sync` for `T: Send`.
unsafe impl<T: Send> Send for Share<T> {}
unsafe impl<T: Send> Sync for Share<T> {}

impl<T> Deref for Share<T> {
    type Target = Ring<T>;

    fn deref(&self) -> &Ring<T> {
        // SAFETY: the ring lives until its last share is dropped.
        unsafe { self.0.as_ref() }
    }
}

impl<T> Drop for Share<T> {
    fn drop(&mut self) {
        // Release, then Acquire, as `Arc` does: every use of the ring
        // through the other share happens-before the drop below.
        if self.tx.endpoints.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        let layout = Ring::<T>::layout(self.tx.slots).0;
        let ring = self.0.as_ptr();
        // SAFETY: this was the last share, so nothing else reaches the ring;
        // `ring_of_blocks` initialised it at the start of an allocation of
        // `layout`, which its drop leaves holding only the first block.
        unsafe {
            ptr::drop_in_place(ring);
            alloc::dealloc(ring.cast(), layout);
        }
    }
}

/// The producing endpoint of a [`ring`].  Not cloneable: exactly one task
/// may push.
pub struct Producer<T> {
    ring: Share<T>,
    /// Total message weight pushed (monotonic); producer-local.
    pushed: Cell<usize>,
    /// The consumer's released-message count (`msg_head`) as of our
    /// last refresh; only ever behind the truth, so a push based on it is
    /// conservative (may refresh, never corrupts).
    cached_released: Cell<usize>,
}

/// The consuming endpoint of a [`ring`].  Not cloneable: exactly one task
/// may pop.
pub struct Consumer<T> {
    ring: Share<T>,
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
    ring_of_blocks(cap, BLOCK)
}

/// [`ring`] with an explicit block size, so the unit tests can make every
/// push (1) or every other push (2) cross a block boundary.
fn ring_of_blocks<T: Weigh>(cap: MsgCap, block_slots: usize) -> (Producer<T>, Consumer<T>) {
    let cap = cap.messages();
    let slots = block_slots.min(cap);
    let (layout, offset) = Ring::<T>::layout(slots);
    let ring = alloc_for(layout).cast::<Ring<T>>();
    // SAFETY: the first block is `offset` bytes into the allocation, and
    // initialised by its `next` alone, like `Block::alloc`'s.  A ring that
    // fits one block has it for its own successor (the flat Lamport ring).
    let first = unsafe { ring.cast::<u8>().add(offset).cast::<Block<T>>() };
    let link = if cap <= block_slots { first } else { ptr::null_mut() };
    unsafe { ptr::addr_of_mut!((*first).next).write(AtomicPtr::new(link)) };
    let cursor = || Cursor {
        index: AtomicUsize::new(0),
        block: Cell::new(first),
        pos: Cell::new(0),
    };
    // SAFETY: the header's place, at the start of the allocation.
    unsafe {
        ring.write(Ring {
            tx: ProducerLine {
                cap,
                slots,
                tail: cursor(),
                producer_waiting: AtomicBool::new(false),
                endpoints: AtomicUsize::new(2),
            },
            rx: ConsumerLine {
                head: cursor(),
                msg_head: AtomicUsize::new(0),
                spare: AtomicPtr::new(ptr::null_mut()),
                consumer_waiting: AtomicBool::new(false),
            },
        })
    };
    // SAFETY: not null (`alloc_for`); one share per endpoint, as counted.
    let share = || Share(unsafe { NonNull::new_unchecked(ring) });
    (
        Producer {
            ring: share(),
            pushed: Cell::new(0),
            cached_released: Cell::new(0),
        },
        Consumer {
            ring: share(),
            cached_tail: Cell::new(0),
        },
    )
}

/// [`ring`] with its consumer registered as waiting, as it is once it has
/// found the ring empty: the first push wakes it.  A fresh job starts
/// every task but its sources idle on a ring made this way.
pub(crate) fn ring_awaited<T: Weigh>(cap: MsgCap) -> (Producer<T>, Consumer<T>) {
    let (tx, rx) = ring(cap);
    // Unshared yet: the endpoints reach other threads only through a
    // synchronising hand-off.
    rx.ring.rx.consumer_waiting.store(true, Ordering::Relaxed);
    (tx, rx)
}

impl<T: Weigh> Producer<T> {
    /// Attempts to push; hands the value back if it does not fit the
    /// remaining **message** capacity.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let w = value.weight();
        debug_assert!(
            (1..=ring.tx.cap).contains(&w),
            "container weight {w} exceeds channel capacity {}",
            ring.tx.cap
        );
        // `cached_released` is only ever ≤ the truth (a reset sets it to 0),
        // so this over-approximates the occupancy: fitting proves there is
        // space, not fitting forces a refresh.  Space for a message is also
        // a free slot in a one-block ring: every buffered value still weighs
        // ≥ 1 unreleased message (`Consumer::release_msgs`).
        let pushed = self.pushed.get() + w;
        if pushed > self.cached_released.get() + ring.tx.cap {
            self.cached_released
                .set(ring.rx.msg_head.load(Ordering::Acquire));
            if pushed > self.cached_released.get() + ring.tx.cap {
                return Err(value);
            }
        }
        self.pushed.set(pushed);
        let tail = ring.tx.tail.index.load(Ordering::Relaxed);
        debug_assert!(
            pushed - ring.rx.msg_head.load(Ordering::Relaxed) <= ring.tx.cap
                && tail + 1 - ring.rx.head.index.load(Ordering::Acquire) <= ring.tx.cap,
            "more messages or values buffered than the channel capacity"
        );
        let (block, pos) = (ring.tx.tail.block.get(), ring.tx.tail.pos.get());
        // SAFETY: the slot at the tail cursor is free — never used, or
        // handed back through the `head`/`msg_head`/`spare` value acquired
        // above or in `next_block`.
        unsafe { (*Block::slot(block, pos)).write(value) };
        if pos + 1 < ring.tx.slots {
            ring.tx.tail.pos.set(pos + 1);
        } else {
            ring.tx.tail.block.set(self.next_block(block));
            ring.tx.tail.pos.set(0);
        }
        ring.tx.tail.index.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// The block after the tail block, which the caller just filled: the
    /// consumer's spare if there is one, else a new one.  Linked here, so
    /// before the caller's Release store of `tail` publishes the filled
    /// block's last slot — the slot after which the consumer follows the
    /// link.
    fn next_block(&self, block: *mut Block<T>) -> *mut Block<T> {
        let ring = &*self.ring;
        // SAFETY: `block` is the live tail block; only the producer writes
        // a block's link.
        let linked = unsafe { (*block).next.load(Ordering::Relaxed) };
        if !linked.is_null() {
            return linked; // a one-block ring: the block itself
        }
        // Once the mailbox holds a block only this side empties it: the
        // consumer fills it only after reading null, or swaps the first
        // block in for the one there.  So a swap after a non-null load
        // takes a block, though perhaps not the one loaded.  Acquire pairs
        // with the consumer's Release in `Ring::advance`: its last accesses
        // to the block happen-before our writes.
        let next = if ring.rx.spare.load(Ordering::Relaxed).is_null() {
            Block::alloc(ring.tx.slots)
        } else {
            let next = ring.rx.spare.swap(ptr::null_mut(), Ordering::Acquire);
            debug_assert!(!next.is_null(), "a full mailbox stays full until emptied here");
            // SAFETY: the spare is ours since the swap.
            unsafe { (*next).next.store(ptr::null_mut(), Ordering::Relaxed) };
            next
        };
        // SAFETY: as above.
        unsafe { (*block).next.store(next, Ordering::Relaxed) };
        next
    }

    /// Messages that can be pushed right now: the remaining message
    /// capacity.  Conservative (the cache refreshes only when the cached
    /// view says "no space"), never an over-estimate.
    pub(crate) fn space_msgs(&self) -> usize {
        self.space_for(1)
    }

    /// [`Self::space_msgs`], refreshing the cached view whenever it holds
    /// fewer than `want` messages of space.
    pub(crate) fn space_for(&self, want: usize) -> usize {
        let ring = &*self.ring;
        let free = |released: usize| ring.tx.cap - (self.pushed.get() - released).min(ring.tx.cap);
        let space = free(self.cached_released.get());
        if space >= want {
            return space;
        }
        self.cached_released
            .set(ring.rx.msg_head.load(Ordering::Acquire));
        free(self.cached_released.get())
    }

    /// Registers this endpoint as blocked-on-full.  The caller **must retry
    /// the push** after this call and may only park if the retry fails too
    /// (the Dekker re-check that makes lost wakeups impossible); the run
    /// loops' `deliver_or_register` performs the whole ritual.
    pub fn begin_wait(&self) {
        self.ring.tx.producer_waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Force the retry to re-read the consumer's true count.
        self.cached_released.set(0);
    }

    /// Withdraws a [`Producer::begin_wait`] registration after the retry
    /// succeeded, so the consumer does not issue a stale wakeup.
    pub fn cancel_wait(&self) {
        self.ring.tx.producer_waiting.store(false, Ordering::SeqCst);
    }

    /// After a successful push: returns whether the consumer had registered
    /// as blocked-on-empty (and clears the registration).  A `true` return
    /// obliges the caller to wake the consuming task.
    pub fn take_consumer_waiting(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.ring.rx.consumer_waiting.load(Ordering::SeqCst) {
            self.ring.rx.consumer_waiting.swap(false, Ordering::SeqCst)
        } else {
            false
        }
    }
}

impl<T: Weigh> Consumer<T> {
    /// Number of values currently buffered (may be stale by concurrent
    /// pushes, never by pops — the consumer owns `head`).
    pub fn len(&self) -> usize {
        let head = self.ring.rx.head.index.load(Ordering::Relaxed);
        let tail = self.ring.tx.tail.index.load(Ordering::Acquire);
        tail - head
    }

    /// True when nothing is buffered (same staleness as [`Consumer::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to pop the front value, releasing its full remaining
    /// message weight.
    pub fn pop(&mut self) -> Option<T> {
        let slot = self.front_slot()?;
        // SAFETY: `front_slot` returns an initialised slot the consumer
        // owns; `advance` gives it up right after the value moved out.
        let value = unsafe { (*slot).assume_init_read() };
        self.ring.advance();
        self.release_msgs(value.weight());
        Some(value)
    }

    /// Exclusive access to the front value without consuming it.  Sound
    /// because the consumer owns every slot in `head..tail` until it
    /// advances `head`.
    pub(crate) fn front_mut(&mut self) -> Option<&mut T> {
        // SAFETY: see above; `&mut self` keeps the borrow exclusive.
        self.front_slot().map(|slot| unsafe { (*slot).assume_init_mut() })
    }

    /// Releases `n` messages consumed off the front value to the producer's
    /// capacity account — per consumed message, so ring occupancy equals
    /// modelled channel occupancy at every instant — after dropping that
    /// value and freeing its slot if they were its last.  In that order:
    /// released capacity is the producer's proof of a free slot.
    pub(crate) fn release_msgs(&mut self, n: usize) {
        // Without refreshing `cached_tail`: the caller reached the value it
        // consumed from through `front_mut`, which left the cache past it,
        // and re-reading the producer's line whenever the ring drains is
        // what this check must not cost.
        if let Some(slot) = self.known_front_slot() {
            // SAFETY: a front slot is initialised and the consumer's, and
            // `&mut self` ends any borrow `front_mut` handed out.
            unsafe {
                if (*slot).assume_init_ref().weight() == 0 {
                    (*slot).assume_init_drop();
                    self.ring.advance();
                }
            }
        }
        let cur = self.ring.rx.msg_head.load(Ordering::Relaxed);
        self.ring.rx.msg_head.store(cur + n, Ordering::Release);
    }

    /// Registers this endpoint as blocked-on-empty.  The caller **must
    /// re-peek** after this call and may only park if the ring is still
    /// empty; the run loops' `front_msg_or_register` performs the whole
    /// ritual.
    pub fn begin_wait(&self) {
        self.ring.rx.consumer_waiting.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // Force the re-peek to re-read the producer's true index.
        self.cached_tail.set(0);
    }

    /// Withdraws a [`Consumer::begin_wait`] registration after the re-peek
    /// found a message, so the producer does not issue a stale wakeup.
    pub fn cancel_wait(&self) {
        self.ring.rx.consumer_waiting.store(false, Ordering::SeqCst);
    }

    /// After a successful pop: returns whether the producer had registered
    /// as blocked-on-full (and clears the registration).  A `true` return
    /// obliges the caller to wake the producing task.
    pub fn take_producer_waiting(&self) -> bool {
        fence(Ordering::SeqCst);
        if self.ring.tx.producer_waiting.load(Ordering::SeqCst) {
            self.ring.tx.producer_waiting.swap(false, Ordering::SeqCst)
        } else {
            false
        }
    }

    /// The slot of the front value; `None` when nothing is buffered.
    #[inline]
    fn front_slot(&self) -> Option<*mut MaybeUninit<T>> {
        self.known_front_slot().or_else(|| {
            self.cached_tail
                .set(self.ring.tx.tail.index.load(Ordering::Acquire));
            self.known_front_slot()
        })
    }

    /// [`Consumer::front_slot`] as far as the cached tail knows.
    #[inline]
    fn known_front_slot(&self) -> Option<*mut MaybeUninit<T>> {
        let head = &self.ring.rx.head;
        // SAFETY: the head cursor always denotes a slot of a live block.
        (self.cached_tail.get() > head.index.load(Ordering::Relaxed))
            .then(|| unsafe { Block::slot(head.block.get(), head.pos.get()) })
    }
}

impl<T: Copy + Weigh> Consumer<T> {
    /// Copies the front message without consuming it (the acceptance rule of
    /// §II.A needs to compare the heads of several channels before deciding
    /// which to pop).
    pub fn front(&self) -> Option<T> {
        // SAFETY: `front_slot` returns an initialised slot; `T: Copy`.
        self.front_slot().map(|slot| unsafe { (*slot).assume_init_read() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};
    use std::thread;

    impl Weigh for u64 {
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

    /// A weighted payload that counts its drops per id: `drops[id]` must
    /// end at exactly 1 for every value ever made.
    #[derive(Debug)]
    struct Load {
        id: usize,
        weight: usize,
        drops: Arc<Mutex<Vec<u8>>>,
    }
    impl Drop for Load {
        fn drop(&mut self) {
            self.drops.lock().unwrap()[self.id] += 1;
        }
    }
    impl Weigh for Load {
        fn weight(&self) -> usize {
            self.weight
        }
    }

    /// xorshift64*: the tests need a reproducible stream, not a good one.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// Blocks currently owned by the ring (chain + spare).
    fn live_blocks<T>(rx: &Consumer<T>) -> usize {
        let ring = &*rx.ring;
        let first = ring.rx.head.block.get();
        let (mut block, mut n) = (first, 0);
        while !block.is_null() {
            n += 1;
            let next = unsafe { (*block).next.load(Ordering::Relaxed) };
            block = if next == first { ptr::null_mut() } else { next };
        }
        n + usize::from(!ring.rx.spare.load(Ordering::Relaxed).is_null())
    }

    /// Drives one ring with `steps` random operations against a `VecDeque`
    /// of `(id, remaining weight)`.
    fn model_run(cap: usize, block_slots: usize, steps: usize, seed: u64) {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let (mut tx, mut rx) = ring_of_blocks::<Load>(MsgCap::new(cap), block_slots);
        let mut model: VecDeque<(usize, usize)> = VecDeque::new();
        let mut rng = Rng(seed | 1);
        let used = |model: &VecDeque<(usize, usize)>| model.iter().map(|&(_, w)| w).sum::<usize>();
        for _ in 0..steps {
            match rng.below(8) {
                0..=2 => {
                    let weight = 1 + rng.below(cap.min(5));
                    let id = {
                        let mut drops = drops.lock().unwrap();
                        drops.push(0);
                        drops.len() - 1
                    };
                    let value = Load { id, weight, drops: Arc::clone(&drops) };
                    let fits = used(&model) + weight <= cap;
                    assert_eq!(tx.push(value).is_ok(), fits, "push fails exactly when full");
                    if fits {
                        model.push_back((id, weight));
                    }
                }
                3 | 4 => {
                    let popped = rx.pop().map(|v| (v.id, v.weight));
                    assert_eq!(popped, model.pop_front());
                }
                5 | 6 => {
                    let front = rx.front_mut();
                    let seen = front.as_ref().map(|l| (l.id, l.weight));
                    assert_eq!(seen, model.front().copied());
                    if let Some(front) = front {
                        // Partial consumption, as the run loops do it.
                        let weight = front.weight;
                        let n = 1 + rng.below(weight);
                        front.weight -= n;
                        rx.release_msgs(n);
                        if n == weight {
                            model.pop_front();
                        } else {
                            model[0].1 -= n;
                        }
                    }
                }
                _ => {
                    tx.begin_wait();
                    tx.cancel_wait();
                    rx.begin_wait();
                    rx.cancel_wait();
                }
            }
            assert_eq!(rx.len(), model.len());
            let space = tx.space_msgs();
            let free = cap - used(&model);
            assert!(space <= free && (space > 0 || free == 0), "{space} of {free}");
            if cap > block_slots {
                assert!(live_blocks(&rx) <= model.len().div_ceil(block_slots) + 2);
            } else {
                assert_eq!(live_blocks(&rx), 1);
            }
        }
        drop((tx, rx));
        let drops = drops.lock().unwrap();
        assert!(drops.iter().all(|&n| n == 1), "every value dropped exactly once");
    }

    #[test]
    fn random_operations_match_a_queue_model() {
        // Block sizes 1 and 2 put a boundary at every (other) push; the
        // capacities cover one-block rings (cap ≤ block) and chains.
        for (i, &block_slots) in [1, 2, BLOCK].iter().enumerate() {
            for (j, &cap) in [1, 2, 3, 7, 8, 9, 40].iter().enumerate() {
                let seed = (i * 16 + j) as u64 * 0x9e37_79b9;
                model_run(cap, block_slots, 6_000, seed);
            }
        }
    }

    #[test]
    fn a_drained_ring_keeps_at_most_two_blocks() {
        let cap = 1000;
        let (mut tx, mut rx) = ring::<u64>(cap);
        assert_eq!(live_blocks(&rx), 1);
        for round in 0..3 {
            for i in 0..cap as u64 {
                tx.push(i).unwrap();
            }
            assert_eq!(tx.push(0), Err(0));
            assert_eq!(live_blocks(&rx), cap / BLOCK + 1, "round {round}");
            for i in 0..cap as u64 {
                assert_eq!(rx.pop(), Some(i));
            }
            assert_eq!(live_blocks(&rx), 2);
        }
    }

    /// Streams `total` messages across two threads in weighted containers,
    /// the consumer taking each container in two bites (the second a `pop`
    /// or the run loops' drain-and-release, alternately).
    fn cross_thread_stream(cap: usize, block_slots: usize, total: usize) {
        let drops = Arc::new(Mutex::new(vec![0u8; total]));
        let (mut tx, mut rx) = ring_of_blocks::<Load>(MsgCap::new(cap), block_slots);
        let producer = {
            let drops = Arc::clone(&drops);
            thread::spawn(move || {
                let mut rng = Rng(block_slots as u64 + 1);
                // A container's id is the number of messages sent before it.
                let (mut id, mut containers) = (0, 0);
                while id < total {
                    let weight = (1 + rng.below(cap.min(6))).min(total - id);
                    let mut value = Load { id, weight, drops: Arc::clone(&drops) };
                    while let Err(back) = tx.push(value) {
                        value = back;
                        thread::yield_now();
                    }
                    id += weight;
                    containers += 1;
                }
                containers
            })
        };
        let mut received = 0;
        while received < total {
            let Some(front) = rx.front_mut() else {
                thread::yield_now();
                continue;
            };
            assert_eq!(front.id, received, "containers arrive in order, none lost");
            let weight = front.weight;
            let bite = weight / 2;
            if bite > 0 {
                front.weight -= bite;
                rx.release_msgs(bite);
            }
            if received % 2 == 0 {
                drop(rx.pop()); // releases the rest
            } else {
                rx.front_mut().expect("still there").weight = 0;
                rx.release_msgs(weight - bite);
            }
            received += weight;
        }
        let containers = producer.join().unwrap();
        assert!(rx.is_empty());
        let drops = drops.lock().unwrap();
        assert!(drops.iter().all(|&n| n <= 1));
        assert_eq!(drops.iter().map(|&n| usize::from(n)).sum::<usize>(), containers);
    }

    #[test]
    fn cross_thread_stream_is_loss_free() {
        for block_slots in [1, 2, BLOCK] {
            // A chain, and a one-block ring where slots are reused in place.
            cross_thread_stream(64, block_slots, 1_000_000);
            cross_thread_stream(block_slots.min(3), block_slots, 100_000);
        }
    }
}
