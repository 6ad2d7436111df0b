//! The pool's scheduling core: one locality-first work-stealing scheduler
//! (E23, E38), stated once and driven by [`crate::SharedPool`].  DESIGN.md,
//! "Scheduling (E23)", has the measurements behind every constant here.
//!
//! * **Run-next slot** — worker-private, LIFO, one entry.  A wake issued
//!   from a running task lands here with no lock and no shared
//!   read-modify-write; the worker runs it next, while the messages its
//!   waker just produced are still in cache.  Every [`FAIR_INTERVAL`]-th
//!   pick skips the slot, so a producer/consumer pair cannot starve the
//!   other tasks queued on the worker.
//! * **Deque** — per worker, FIFO: what the slot displaces, yielded tasks,
//!   batches moved over from the injector or a victim, and tasks a peer
//!   sends this worker ([`Scheduler::send`]).  The owner pops the front.
//!   On a pool of two or more workers every entry carries a time stamp:
//!   its push, and for the front entry the owner's last pop if that came
//!   later.  An entry is **due** once its stamp is [`SPIN_BUDGET`] — one
//!   park/unpark round trip — old, and a thief takes only the due prefix
//!   of the older half.  So a deque its owner keeps draining stays whole,
//!   and one its owner has not touched for a round trip (a long slice, a
//!   long run of slot picks) is shared.
//! * **Injector** — one pool-wide FIFO for work arriving from outside the
//!   workers.  Submission seeds a job in one batch: a fresh job's sources
//!   (its other tasks start idle, each registered on its first input, and
//!   are woken by their first message — E41), a resumed job's every task.
//!   A worker takes up to half a deque of it at a time, so a small job
//!   starts out whole on one worker.  Its entries carry no stamp and are
//!   taken at once.
//!
//! **Slices** (E39).  A task runs until it blocks or finishes, in budgets
//! of the pool's batch size: a task that spends one with work left is
//! renewed ([`Scheduler::renew`]) up to `FAIR_INTERVAL − 1` times — the
//! most picks the slot may run between two fairness turns — unless the
//! injector holds work, and yields only when refused.  A relay hop with a
//! deep buffer thus drains its input in one slice instead of one per
//! container.
//!
//! The pool keeps a job on its *home*, the worker that ran its first slice:
//! a wake issued there takes the slot, one issued by a task another worker
//! took is sent home (see `shared_pool.rs`).  So a steal costs one migrated
//! slice, not the rest of the job.
//!
//! **Wake throttling.**  A push onto the injector unparks a worker, unless
//! one is already searching.  A push onto the pusher's own deque unparks no
//! one; instead the owner unparks a sleeper at its next pick if its deque's
//! front is due.  A push onto another worker's deque unparks that worker if
//! it sleeps.  A searcher that takes work and leaves more behind that
//! another could take at once unparks the next.  A worker that runs dry
//! searches — its own deque, the injector, the peers' due entries — for at
//! most [`SPIN_BUDGET`] while some peer still runs tasks, and if a busy
//! peer's front entry is then not yet due, until that one entry comes due
//! (at most one budget more); then it parks on its own thread token.  The
//! bound that follows: an awake peer takes a job's queued task within
//! `SPIN_BUDGET` of its owner's last pop, and a parked peer takes it at the
//! owner's next pick after that; a new job never waits behind a slice.
//!
//! **No wakeup is lost**, without a global count of queued tasks: a worker
//! about to park first publishes that it is idle (joins `sleepers`, leaves
//! the searching count), *then* re-scans its own deque, the injector and
//! the peers' due deque fronts, each under its queue's lock; a pusher
//! first pushes under the queue's lock, *then* reads the searching and
//! parked counts (the injector) or the target's `sleeping` flag (a push
//! onto another worker's deque).  The two critical sections on a queue are
//! ordered, so either the re-scan sees the push, or the pusher sees the
//! parked worker and unparks it — which is why the re-scan includes the
//! worker's own deque.  An entry on a peer's deque that is not yet due
//! needs no re-scan: its owner is awake (a worker never parks on a deque of
//! its own that holds a task) and runs it, or unparks a sleeper at a pick
//! once it is due.  The slot needs none of this: only its owner fills it,
//! and takes it before it looks anywhere else, let alone parks.
//!
//! **Certification rows** ([`RunTable`]) are offered like an injected task
//! — pushed, then notify; the park-side re-check sees them — and taken only
//! when everything above came up empty.  A worker runs each row it claims
//! to its end, neither searching nor parked, so work pushed meanwhile
//! unparks a peer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use fila_avoidance::verify::RunTable;

use crate::telemetry::{EventKind, SchedCounter, TelemetryHandle};

/// Every this many picks is a **fairness turn**: the slot's occupant is
/// demoted to the back of the deque and the injector goes first, then the
/// deque.  So at most `FAIR_INTERVAL − 1` consecutive picks come from the
/// slot (the slot cap), and a deque that never runs dry cannot starve newly
/// submitted jobs.  It is also the most budgets one slice takes.
const FAIR_INTERVAL: u32 = 16;

/// The capacity each deque is created with (steady state never
/// reallocates) and twice the most tasks one grab from the injector or a
/// victim moves.
const DEQUE_CAPACITY: usize = 256;

/// About one park/unpark round trip: how long a worker that ran dry keeps
/// searching before it parks while some peer is still running tasks, and
/// how long a deque entry waits before a thief may take it.
const SPIN_BUDGET: Duration = Duration::from_micros(10);

/// [`SPIN_BUDGET`] on the scheduler's clock ([`Scheduler::now`]).
const BUDGET_NS: u64 = SPIN_BUDGET.as_nanos() as u64;

/// `spin_loop` hints between two scans of a searching worker.
const SPIN_PAUSES: u32 = 4;

/// A FIFO other threads may take from; each entry carries its stamp (see
/// the module docs; 0 where nobody reads it: the injector, a one-worker
/// pool).
struct Queue<T> {
    items: Mutex<VecDeque<(T, u64)>>,
    /// `items.len()` as of the last operation under the lock: lets a poll
    /// skip the lock on an empty queue.  A hint only — the park-side
    /// re-check takes the lock.
    len: AtomicUsize,
    /// The front entry's stamp as of the last operation under the lock
    /// (meaningless while `len` reads 0): lets a thief skip the lock on a
    /// deque with nothing due, and the owner check its front.
    front: AtomicU64,
}

impl<T> Queue<T> {
    fn with_capacity(capacity: usize) -> Self {
        Queue {
            items: Mutex::new(VecDeque::with_capacity(capacity)),
            len: AtomicUsize::new(0),
            front: AtomicU64::new(0),
        }
    }

    fn publish(&self, items: &VecDeque<(T, u64)>) {
        self.len.store(items.len(), Ordering::Relaxed);
        if let Some(&(_, stamp)) = items.front() {
            self.front.store(stamp, Ordering::Relaxed);
        }
    }

    /// Appends `tasks`, stamped `stamp`; returns how many there were and
    /// whether the queue was empty before.
    fn push(&self, tasks: impl IntoIterator<Item = T>, stamp: u64) -> (usize, bool) {
        let mut items = lock(&self.items);
        let before = items.len();
        items.extend(tasks.into_iter().map(|task| (task, stamp)));
        self.publish(&items);
        (items.len() - before, before == 0)
    }

    /// The owner's pop: the entry behind the taken one becomes the front,
    /// stamped `now()` if it has waited longer.
    fn pop(&self, now: impl FnOnce() -> u64) -> Option<T> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut items = lock(&self.items);
        let task = items.pop_front();
        if let Some(front) = items.front_mut() {
            front.1 = front.1.max(now());
        }
        self.publish(&items);
        task.map(|(task, _)| task)
    }

    /// When the front entry comes due for a thief, as far as the hints know
    /// (`None`: empty).
    fn front_due(&self) -> Option<u64> {
        (self.len.load(Ordering::Relaxed) != 0)
            .then(|| self.front.load(Ordering::Relaxed) + BUDGET_NS)
    }

    /// Takes the oldest `share(len)` tasks (at most half a deque) that are
    /// due by `now`: the first is returned, the rest go to `batch`.  The
    /// flag says whether the new front is due as well.
    fn grab(
        &self,
        share: impl Fn(usize) -> usize,
        now: u64,
        batch: &mut Vec<T>,
    ) -> Option<(T, bool)> {
        if self.front_due()? > now {
            return None;
        }
        let due = |entry: &(T, u64)| entry.1 + BUDGET_NS <= now;
        let mut items = lock(&self.items);
        let share = share(items.len()).min(DEQUE_CAPACITY / 2);
        let taken = items.iter().take(share).take_while(|entry| due(entry)).count();
        let mut grabbed = items.drain(..taken).map(|(task, _)| task);
        let first = grabbed.next();
        batch.extend(grabbed);
        self.publish(&items);
        Some((first?, items.front().is_some_and(due)))
    }
}

/// The part of a worker other threads may touch, on its own cache line.
#[repr(align(64))]
struct Remote<T> {
    deque: Queue<T>,
    /// True while the worker sits in `sleepers`; cleared (under that lock)
    /// by whoever takes it out, which is how a parked worker tells a real
    /// unpark from a stale token.
    sleeping: AtomicBool,
    thread: OnceLock<Thread>,
}

/// A worker's private scheduling state, owned by its thread.
pub(crate) struct Local<T> {
    index: usize,
    slot: Option<T>,
    /// Picks since start (wrapping), for [`FAIR_INTERVAL`].
    tick: u32,
    /// This worker is counted in `Scheduler::searching`.
    searching: bool,
    /// Reused buffer for moving a batch between two queues without holding
    /// both locks.
    batch: Vec<T>,
}

impl<T> Local<T> {
    /// The worker's index (its telemetry lane and deque).
    pub(crate) fn index(&self) -> usize {
        self.index
    }
}

/// The scheduler shared by a pool's workers (see the module docs).
pub(crate) struct Scheduler<T> {
    remotes: Box<[Remote<T>]>,
    injector: Queue<T>,
    /// Workers looking for work right now (spinning, or just unparked).
    searching: AtomicUsize,
    /// Parked workers on a watch (see [`Scheduler::park`]).
    watching: AtomicUsize,
    /// `sleepers.len()`, readable without the lock.
    parked: AtomicUsize,
    sleepers: Mutex<Vec<usize>>,
    shutdown: AtomicBool,
    telemetry: Option<TelemetryHandle>,
    /// Certification rows offered to idle workers (see the module docs).
    offers: Mutex<Vec<Arc<RunTable>>>,
    /// The origin of [`Scheduler::now`].
    epoch: Instant,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under the pool's (and the recorder's) locks leaves the
    // data valid, so a poisoned lock (a panic elsewhere on that thread)
    // carries no information: a panicked behaviour's counters are still
    // meaningful.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<T: Send> Scheduler<T> {
    pub(crate) fn new(workers: usize, telemetry: Option<TelemetryHandle>) -> Self {
        Scheduler {
            remotes: (0..workers)
                .map(|_| Remote {
                    deque: Queue::with_capacity(DEQUE_CAPACITY),
                    sleeping: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            injector: Queue::with_capacity(0),
            searching: AtomicUsize::new(0),
            watching: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::with_capacity(workers)),
            shutdown: AtomicBool::new(false),
            telemetry,
            offers: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The number of workers — also the lane that stands for "not a
    /// worker" (the injector as a steal victim, the telemetry control lane).
    pub(crate) fn workers(&self) -> usize {
        self.remotes.len()
    }

    /// Claims worker `index` for the calling thread (call once, from the
    /// worker thread itself: its handle is what an unpark targets).
    pub(crate) fn local(&self, index: usize) -> Local<T> {
        let _ = self.remotes[index].thread.set(std::thread::current());
        Local {
            index,
            slot: None,
            tick: 0,
            searching: false,
            batch: Vec::new(),
        }
    }

    fn count(&self, lane: usize, counter: SchedCounter, n: u64) {
        if let Some(tele) = &self.telemetry {
            tele.count(lane, counter, n);
        }
    }

    /// Nanoseconds since the scheduler was created.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A deque entry's enqueue time: read only by thieves, so a one-worker
    /// pool pays no clock read for it.
    fn stamp(&self) -> u64 {
        if self.workers() > 1 {
            self.now()
        } else {
            0
        }
    }

    /// A slice whose task spent its budget with work left asks for another;
    /// `renewals` counts what the slice was granted so far.  Granted up to
    /// `FAIR_INTERVAL − 1` times — a slice takes at most as many budgets as
    /// the slot may run picks between two fairness turns — and never while
    /// the injector holds work.  No clock is read: on a relay hop a clock
    /// read per budget cost most of what the renewals save (E39).
    pub(crate) fn renew(&self, lane: usize, renewals: &mut u32) -> bool {
        *renewals += 1;
        let granted =
            *renewals < FAIR_INTERVAL && self.injector.len.load(Ordering::Relaxed) == 0;
        if granted {
            self.count(lane, SchedCounter::Renewal, 1);
        }
        granted
    }

    /// Queues work arriving from outside the workers: one lock, at most one
    /// unpark, however many tasks.
    pub(crate) fn inject(&self, tasks: impl IntoIterator<Item = T>) {
        let (pushed, _) = self.injector.push(tasks, 0);
        self.count(self.workers(), SchedCounter::InjectorPush, pushed as u64);
        if pushed > 0 {
            self.notify(self.workers());
        }
    }

    /// Offers `table`'s rows to the workers: a push, then at most one unpark.
    pub(crate) fn offer(&self, table: &Arc<RunTable>) {
        lock(&self.offers).push(Arc::clone(table));
        self.notify(self.workers());
    }

    /// Takes an offer back (its caller found no row left to claim).
    pub(crate) fn withdraw(&self, table: &Arc<RunTable>) {
        lock(&self.offers).retain(|offered| !Arc::ptr_eq(offered, table));
    }

    /// A wake issued by the task `local`'s worker is running: the woken
    /// task takes the run-next slot, and whatever sat there moves to the
    /// deque.
    pub(crate) fn schedule(&self, local: &mut Local<T>, task: T) {
        if let Some(displaced) = local.slot.replace(task) {
            self.defer(local, displaced);
        }
    }

    /// Queues a task behind everything else on this worker's deque: one
    /// that yielded with work left or was displaced from the slot.
    pub(crate) fn defer(&self, local: &Local<T>, task: T) {
        self.push_own(local, [task]);
        self.count(local.index, SchedCounter::DequePush, 1);
    }

    /// Pushes `tasks` onto `local`'s own deque, unparking nobody — unless
    /// the deque was empty and no sleeper is on a watch, then one is
    /// unparked to take one up (see [`Scheduler::park`]).
    fn push_own(&self, local: &Local<T>, tasks: impl IntoIterator<Item = T>) -> usize {
        let (pushed, was_empty) = self.remotes[local.index].deque.push(tasks, self.stamp());
        if was_empty && pushed > 0 && self.watching.load(Ordering::SeqCst) == 0 {
            self.notify(local.index);
        }
        pushed
    }

    /// Queues `tasks` on worker `home`'s deque (not `local`'s own) and
    /// unparks `home` if it sleeps: after the push, so that either its
    /// park-side re-check sees the tasks or this sees it asleep.
    pub(crate) fn send(&self, local: &Local<T>, home: usize, tasks: impl IntoIterator<Item = T>) {
        debug_assert_ne!(home, local.index, "a worker's own tasks are scheduled or deferred");
        let (pushed, _) = self.remotes[home].deque.push(tasks, self.stamp());
        self.count(local.index, SchedCounter::DequePush, pushed as u64);
        if self.remotes[home].sleeping.load(Ordering::SeqCst) {
            self.unpark(local.index, |sleepers| {
                let at = sleepers.iter().position(|&worker| worker == home)?;
                Some(sleepers.swap_remove(at))
            });
        }
    }

    /// Work any worker may take just appeared: unpark one unless a
    /// searcher is already out looking (it will find the work, or re-check
    /// before it parks — see the module docs).
    fn notify(&self, lane: usize) {
        if self.searching.load(Ordering::SeqCst) != 0 {
            self.count(lane, SchedCounter::UnparkSuppressed, 1);
            return;
        }
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Two pushers may both have seen no searcher; the second one to get
        // here finds the worker the first one promoted.
        let woken = self.unpark(lane, |sleepers| match self.searching.load(Ordering::SeqCst) {
            0 => sleepers.pop(),
            _ => None,
        });
        if !woken {
            self.count(lane, SchedCounter::UnparkSuppressed, 1);
        }
    }

    /// Takes the sleeper `choose` picks out of `sleepers` and unparks it;
    /// it starts out searching.  False if `choose` picked none.
    fn unpark(&self, lane: usize, choose: impl FnOnce(&mut Vec<usize>) -> Option<usize>) -> bool {
        let woken = {
            let mut sleepers = lock(&self.sleepers);
            let woken = choose(&mut sleepers);
            if let Some(worker) = woken {
                self.parked.store(sleepers.len(), Ordering::SeqCst);
                self.searching.fetch_add(1, Ordering::SeqCst);
                self.remotes[worker]
                    .sleeping
                    .store(false, Ordering::Release);
            }
            woken
        };
        let Some(worker) = woken else { return false };
        self.count(lane, SchedCounter::UnparkIssued, 1);
        if let Some(thread) = self.remotes[worker].thread.get() {
            thread.unpark();
        }
        true
    }

    /// Blocks until the worker has a task to run (working offered rows
    /// meanwhile); `None` once the pool is shutting down (whatever the worker
    /// still holds is dropped with its [`Local`]; the pool settles those
    /// jobs as cancelled).  The second value names the queue a task *not*
    /// from the worker's own slot or deque was taken from: a peer's index,
    /// or [`Scheduler::workers`] for the injector.
    pub(crate) fn next(&self, local: &mut Local<T>) -> Option<(T, Option<usize>)> {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let found = self.pick_local(local).or_else(|| self.search(local));
            if found.is_some() {
                self.stop_searching(local);
                return found;
            }
            let offered = lock(&self.offers).iter().find(|table| table.open()).cloned();
            let Some(table) = offered else {
                self.park(local);
                continue;
            };
            self.stop_searching(local);
            table.help();
        }
    }

    /// Slot, then deque, then injector — except on a fairness turn, when
    /// the slot's occupant is demoted and the injector goes first.
    fn pick_local(&self, local: &mut Local<T>) -> Option<(T, Option<usize>)> {
        local.tick = local.tick.wrapping_add(1);
        if local.tick % FAIR_INTERVAL == 0 {
            if let Some(task) = local.slot.take() {
                self.defer(local, task);
            }
            if let Some(found) = self.take_from(local, self.workers(), u64::MAX) {
                return Some(found);
            }
        } else if let Some(task) = local.slot.take() {
            self.count(local.index, SchedCounter::SlotHit, 1);
            return Some((task, None));
        }
        if let Some(task) = self.remotes[local.index].deque.pop(|| self.stamp()) {
            return Some((task, None));
        }
        self.take_from(local, self.workers(), u64::MAX)
    }

    /// Grabs a batch from the injector (`victim == workers()`: up to half
    /// a deque) or what is due by `now` of a peer's deque (its older half):
    /// one task to run, the rest onto the worker's own deque.  The worker
    /// stops searching, and unparks the next if it left work behind that
    /// another could take at once, or moved injected work: a new job's
    /// tasks wake a peer wherever they wait.
    fn take_from(
        &self,
        local: &mut Local<T>,
        victim: usize,
        now: u64,
    ) -> Option<(T, Option<usize>)> {
        let injected = victim == self.workers();
        let (first, left_behind) = match self.remotes.get(victim) {
            Some(peer) => peer
                .deque
                .grab(|len| len.div_ceil(2), now, &mut local.batch)?,
            None => self.injector.grab(|len| len, u64::MAX, &mut local.batch)?,
        };
        if !injected {
            self.count(local.index, SchedCounter::Steal, 1);
        }
        let mut batch = std::mem::take(&mut local.batch);
        let moved = !batch.is_empty() && self.push_own(local, batch.drain(..)) > 0;
        local.batch = batch;
        self.stop_searching(local);
        if left_behind || (injected && moved) {
            self.notify(local.index);
        }
        Some((first, Some(victim)))
    }

    /// The worker found something to do: it leaves the searching count.
    fn stop_searching(&self, local: &mut Local<T>) {
        if local.searching {
            local.searching = false;
            self.searching.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Looks for work beyond the worker's slot — its own deque (a peer may
    /// send tasks home), the injector, then the peers' due deque
    /// entries — for at most [`SPIN_BUDGET`] and only while a peer is
    /// running tasks (nothing else can make work appear; an injection
    /// unparks on its own).  If a busy peer's front entry is then not yet
    /// due, it searches on until that entry comes due, once.
    fn search(&self, local: &mut Local<T>) -> Option<(T, Option<usize>)> {
        if !local.searching {
            local.searching = true;
            self.searching.fetch_add(1, Ordering::SeqCst);
        }
        let workers = self.workers();
        let index = local.index;
        let peers = move || (1..workers).map(move |offset| (index + offset) % workers);
        let mut deadline = None;
        let mut extended = false;
        loop {
            if let Some(task) = self.remotes[local.index].deque.pop(|| self.stamp()) {
                return Some((task, None));
            }
            let now = self.now();
            let found = self
                .take_from(local, workers, u64::MAX)
                .or_else(|| peers().find_map(|victim| self.take_from(local, victim, now)));
            if found.is_some() {
                if deadline.is_some() {
                    self.count(local.index, SchedCounter::SpinFound, 1);
                }
                return found;
            }
            let busy_peers = workers
                > self.parked.load(Ordering::Relaxed) + self.searching.load(Ordering::Relaxed);
            let deadline = deadline.get_or_insert(now + BUDGET_NS);
            if !busy_peers || self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if now >= *deadline {
                let next_due = peers()
                    .filter_map(|victim| self.remotes[victim].deque.front_due())
                    .min();
                match next_due {
                    Some(due) if !extended && due > now => {
                        *deadline = due;
                        extended = true;
                    }
                    _ => return None,
                }
            }
            for _ in 0..SPIN_PAUSES {
                std::hint::spin_loop();
            }
        }
    }

    /// True if the worker's own deque holds a task, or the injector, a
    /// peer's deque front that is due, or an offered table a row (checked
    /// under each lock: this is the park-side re-check).  False with
    /// `watch` set if a peer's deque holds a task that is not yet due.
    fn work_for(&self, local: &Local<T>, watch: &mut bool) -> bool {
        let now = self.now();
        *watch = false;
        !lock(&self.injector.items).is_empty()
            || self.remotes.iter().enumerate().any(|(index, remote)| {
                let items = lock(&remote.deque.items);
                let Some(&(_, stamp)) = items.front() else {
                    return false;
                };
                *watch = true;
                index == local.index || stamp + BUDGET_NS <= now
            })
            || lock(&self.offers).iter().any(|table| table.open())
    }

    /// Parks the worker until a pusher unparks it or the pool shuts down —
    /// or, while a peer's deque holds a task that is not yet due, until the
    /// re-check finds one due: a **watch**, which looks again after one
    /// [`SPIN_BUDGET`], then after twice as long each time it finds nothing.
    /// So a peer stuck in a long slice with tasks queued behind it loses
    /// them to a sleeper within about the time the watch has run, while a
    /// peer that keeps draining its deque costs the sleeper one wake-up per
    /// doubling.  A push onto an empty deque unparks a sleeper when none is
    /// on a watch, so a queued task always has one (or a searcher) once a
    /// worker sleeps.  On return the worker is searching again (and counted
    /// as such).
    fn park(&self, local: &mut Local<T>) {
        debug_assert!(local.slot.is_none(), "a worker never parks on a full slot");
        let remote = &self.remotes[local.index];
        let t_park = self.telemetry.as_ref().map(TelemetryHandle::now_ns);
        {
            let mut sleepers = lock(&self.sleepers);
            sleepers.push(local.index);
            remote.sleeping.store(true, Ordering::Relaxed);
            self.parked.store(sleepers.len(), Ordering::SeqCst);
            if local.searching {
                self.searching.fetch_sub(1, Ordering::SeqCst);
            }
        }
        local.searching = true;
        // Idle is published; only now is it safe to trust an empty scan.
        let mut parked = false;
        let mut watch = false;
        if !self.shutdown.load(Ordering::SeqCst) && !self.work_for(local, &mut watch) {
            parked = true;
            self.count(local.index, SchedCounter::Park, 1);
            let mut timeout = SPIN_BUDGET;
            loop {
                if watch {
                    self.watching.fetch_add(1, Ordering::SeqCst);
                    std::thread::park_timeout(timeout);
                    timeout = timeout.saturating_mul(2);
                    // Off the watch before looking: a push onto an empty
                    // deque after the look then sees no watcher and unparks.
                    self.watching.fetch_sub(1, Ordering::SeqCst);
                } else {
                    std::thread::park();
                }
                // A stale token, a spurious return or a watch's look leaves
                // `sleeping` set.
                if !remote.sleeping.load(Ordering::Acquire)
                    || self.shutdown.load(Ordering::SeqCst)
                    || (watch && self.work_for(local, &mut watch))
                {
                    break;
                }
            }
        }
        if remote.sleeping.load(Ordering::Acquire) {
            // Nobody took us out of `sleepers`: withdraw, unless a pusher
            // does so first (then it has also counted us as searching).
            let mut sleepers = lock(&self.sleepers);
            if let Some(at) = sleepers.iter().position(|&w| w == local.index) {
                sleepers.swap_remove(at);
                remote.sleeping.store(false, Ordering::Relaxed);
                self.parked.store(sleepers.len(), Ordering::SeqCst);
                self.searching.fetch_add(1, Ordering::SeqCst);
            }
        }
        if let (true, Some(tele), Some(t0)) = (parked, &self.telemetry, t_park) {
            tele.span(local.index, EventKind::Park, u64::MAX, u32::MAX, t0, 0);
        }
    }

    /// Stops every worker: [`Scheduler::next`] returns `None` from now on.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for remote in self.remotes.iter() {
            if let Some(thread) = remote.thread.get() {
                thread.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Runs `workers` threads that pull from `sched` until shutdown, each
    /// handing what it pulled to `run` (which may schedule more).
    fn drive<T: Send>(
        sched: &Scheduler<T>,
        workers: std::ops::Range<usize>,
        run: impl Fn(&Scheduler<T>, &mut Local<T>, T) + Sync,
        body: impl FnOnce(),
    ) {
        std::thread::scope(|scope| {
            for index in workers {
                let run = &run;
                scope.spawn(move || {
                    let mut local = sched.local(index);
                    while let Some((task, _)) = sched.next(&mut local) {
                        run(sched, &mut local, task);
                    }
                });
            }
            body();
            sched.shutdown();
        });
    }

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let started = Instant::now();
        while !done() {
            assert!(
                started.elapsed() < Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn owner_racing_thieves_loses_and_duplicates_nothing() {
        const TASKS: u64 = 200_000;
        const THIEVES: usize = 3;
        let sched = Scheduler::<u64>::new(1 + THIEVES, None);
        let seen: Vec<AtomicU64> = (0..TASKS).map(|_| AtomicU64::new(0)).collect();
        let taken = AtomicU64::new(0);
        let take = |task: u64| {
            seen[task as usize].fetch_add(1, Ordering::Relaxed);
            taken.fetch_add(1, Ordering::SeqCst);
        };
        drive(
            &sched,
            1..1 + THIEVES,
            |_, _, task| take(task),
            || {
                // The owner keeps waking tasks (slot first, the displaced
                // one onto the deque the thieves race it for) and runs
                // every third pick itself.
                let mut local = sched.local(0);
                for task in 0..TASKS {
                    sched.schedule(&mut local, task);
                    if task % 3 == 0 {
                        if let Some((mine, _)) = sched.pick_local(&mut local) {
                            take(mine);
                        }
                    }
                }
                while let Some((mine, _)) = sched.pick_local(&mut local) {
                    take(mine);
                }
                wait_for("every task to be taken", || {
                    taken.load(Ordering::SeqCst) == TASKS
                });
            },
        );
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }

    /// Enrols worker `index` in `sleepers` the way `park` does, without a
    /// thread behind it.
    fn asleep<T: Send>(sched: &Scheduler<T>, index: usize) {
        let mut sleepers = lock(&sched.sleepers);
        sleepers.push(index);
        sched.parked.store(sleepers.len(), Ordering::SeqCst);
        sched.remotes[index].sleeping.store(true, Ordering::SeqCst);
    }

    fn is_asleep<T: Send>(sched: &Scheduler<T>, index: usize) -> bool {
        sched.remotes[index].sleeping.load(Ordering::SeqCst)
    }

    #[test]
    fn a_thief_refuses_a_fresh_entry() {
        let sched = Scheduler::<u64>::new(2, None);
        let mut owner = sched.local(0);
        let mut thief = sched.local(1);
        // First wake in the slot: nothing a peer could take.
        sched.schedule(&mut owner, 1);
        let mut watch = true;
        assert!(!sched.work_for(&thief, &mut watch));
        assert!(!watch, "a slot is nothing to watch");
        // The second displaces it onto the deque, stamped with its enqueue
        // time; until a spin budget has passed it is its owner's alone.
        sched.schedule(&mut owner, 2);
        let pushed_at = sched.remotes[0].deque.front.load(Ordering::Relaxed);
        assert_eq!(sched.take_from(&mut thief, 0, pushed_at), None);
        assert_eq!(sched.take_from(&mut thief, 0, pushed_at + BUDGET_NS - 1), None);
        // Its owner takes it without waiting.
        assert_eq!(sched.pick_local(&mut owner), Some((2, None)));
        assert_eq!(sched.pick_local(&mut owner), Some((1, None)));
        assert_eq!(sched.pick_local(&mut owner), None);
    }

    #[test]
    fn a_thief_takes_an_entry_older_than_the_spin_budget() {
        let sched = Scheduler::<u64>::new(2, None);
        let owner = sched.local(0);
        let mut thief = sched.local(1);
        for task in 1..=3 {
            sched.defer(&owner, task);
        }
        let newest = lock(&sched.remotes[0].deque.items).back().map(|entry| entry.1);
        // All due: the older half (two of three) moves, one to run, one
        // onto the thief's own deque.
        let now = newest.unwrap() + BUDGET_NS;
        assert_eq!(sched.take_from(&mut thief, 0, now), Some((1, Some(0))));
        assert_eq!(sched.remotes[1].deque.len.load(Ordering::Relaxed), 1);
        assert_eq!(sched.remotes[0].deque.len.load(Ordering::Relaxed), 1);
        // On the real clock: once the budget has passed, a search takes it.
        std::thread::sleep(SPIN_BUDGET);
        let mut late = sched.local(1);
        assert_eq!(sched.remotes[1].deque.pop(|| 0), Some(2));
        assert!(sched.work_for(&late, &mut false));
        assert_eq!(sched.search(&mut late), Some((3, Some(0))));
        assert_eq!(sched.searching.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn an_owners_own_push_unparks_no_one_but_an_injection_does() {
        let sched = Scheduler::<u64>::new(2, None);
        let mut owner = sched.local(0);
        asleep(&sched, 1);
        // Worker 1 is on a watch: it will look at the owner's deque itself.
        sched.watching.store(1, Ordering::SeqCst);
        sched.schedule(&mut owner, 1);
        sched.schedule(&mut owner, 2);
        sched.defer(&owner, 3);
        assert!(is_asleep(&sched, 1), "a push onto the owner's deque unparked a sleeper");
        sched.inject([4]);
        assert!(!is_asleep(&sched, 1), "an injection left the sleeper parked");
        assert_eq!(sched.searching.load(Ordering::SeqCst), 1);
        assert_eq!(sched.parked.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_push_onto_an_empty_deque_finds_a_sleeper_a_watch() {
        let sched = Scheduler::<u64>::new(2, None);
        let owner = sched.local(0);
        // No watch: the first task on the deque unparks the sleeper...
        asleep(&sched, 1);
        sched.defer(&owner, 1);
        assert!(!is_asleep(&sched, 1));
        // ... and a sleeper that parks now watches the deque (its entry
        // restamped so that it cannot come due while the test runs).
        lock(&sched.remotes[0].deque.items)[0].1 = sched.now() + 1_000_000_000;
        let thief = sched.local(1);
        let mut watch = false;
        assert!(!sched.work_for(&thief, &mut watch));
        assert!(watch, "a queued task that is not due is watched");
        // A second task, on a deque that was not empty, unparks no one.
        sched.searching.store(0, Ordering::SeqCst);
        asleep(&sched, 1);
        sched.defer(&owner, 2);
        assert!(is_asleep(&sched, 1));
    }

    #[test]
    fn a_task_left_behind_a_long_slice_is_taken_by_a_sleeper() {
        // The owner queues a task and then runs "a long slice": it never
        // picks again.  A peer that was parked must take the task (once it
        // is due) without anyone else pushing anything; the slot's task
        // stays the owner's.
        let sched = Scheduler::<u64>::new(2, None);
        let taken = AtomicU64::new(0);
        drive(
            &sched,
            1..2,
            |_, _, task| taken.store(task, Ordering::SeqCst),
            || {
                wait_for("the peer to park", || sched.parked.load(Ordering::SeqCst) == 1);
                let mut owner = sched.local(0);
                sched.schedule(&mut owner, 1);
                sched.defer(&owner, 2);
                wait_for("the peer to take the queued task", || {
                    taken.load(Ordering::SeqCst) == 2
                });
                assert_eq!(sched.pick_local(&mut owner), Some((1, None)));
            },
        );
    }

    #[test]
    fn a_push_onto_another_workers_deque_unparks_that_worker() {
        let sched = Scheduler::<u64>::new(3, None);
        let sender = sched.local(0);
        asleep(&sched, 1);
        asleep(&sched, 2);
        // `notify` would pop worker 2; the task is worker 1's.
        sched.send(&sender, 1, [7]);
        assert!(!is_asleep(&sched, 1), "the home worker stayed parked");
        assert!(is_asleep(&sched, 2), "a bystander was unparked");
        assert_eq!(sched.parked.load(Ordering::SeqCst), 1);
        assert_eq!(sched.searching.load(Ordering::SeqCst), 1);
        // Unparked, the home worker finds the task on its own deque and
        // stops searching.
        let mut home = sched.local(1);
        home.searching = true;
        assert_eq!(sched.next(&mut home), Some((7, None)));
        assert_eq!(sched.searching.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn slot_is_run_without_any_unpark_and_before_parking() {
        // One worker, one injected seed; the seed's wake chain lives in the
        // slot alone.  Nothing ever unparks the worker again, so the chain
        // finishes only if the slot is drained before the worker parks.
        const CHAIN: u64 = 10_000;
        let sched = Scheduler::<u64>::new(1, None);
        let ran = AtomicU64::new(0);
        drive(
            &sched,
            0..1,
            |sched, local, task| {
                ran.fetch_add(1, Ordering::SeqCst);
                if task + 1 < CHAIN {
                    sched.schedule(local, task + 1);
                }
            },
            || {
                sched.inject([0]);
                wait_for("the wake chain", || ran.load(Ordering::SeqCst) == CHAIN);
            },
        );
    }

    #[test]
    fn fairness_turns_let_the_deque_and_the_injector_in() {
        // A task that re-wakes itself forever would own the worker through
        // the slot; the fairness turn must let a deferred task and an
        // injected one run regardless.
        let sched = Scheduler::<&'static str>::new(1, None);
        let deferred = AtomicBool::new(false);
        let injected = AtomicBool::new(false);
        drive(
            &sched,
            0..1,
            |sched, local, task| match task {
                "seed" => {
                    sched.defer(local, "deferred");
                    sched.schedule(local, "spinner");
                }
                "spinner" => sched.schedule(local, "spinner"),
                "deferred" => deferred.store(true, Ordering::SeqCst),
                _ => injected.store(true, Ordering::SeqCst),
            },
            || {
                sched.inject(["seed"]);
                wait_for("the deferred task", || deferred.load(Ordering::SeqCst));
                sched.inject(["injected"]);
                wait_for("the injected task", || injected.load(Ordering::SeqCst));
            },
        );
    }

    #[test]
    fn a_slice_is_renewed_for_a_fairness_interval_and_never_over_injected_work() {
        let sched = Scheduler::<u64>::new(1, None);
        let mut renewals = 0;
        for _ in 1..FAIR_INTERVAL {
            assert!(sched.renew(0, &mut renewals));
        }
        assert!(!sched.renew(0, &mut renewals), "a slice outran a fairness interval");
        // A fresh slice with a new job waiting is refused at once.
        sched.inject([7]);
        assert!(!sched.renew(0, &mut 0));
    }

    #[test]
    fn shutdown_drops_what_the_workers_still_hold() {
        // Tasks parked in a slot, a deque and the injector at shutdown are
        // dropped, not leaked: the pool relies on that to release its jobs.
        let token = Arc::new(());
        let sched = Scheduler::<Arc<()>>::new(2, None);
        let started = AtomicBool::new(false);
        drive(
            &sched,
            0..1,
            |sched, local, task| {
                // Fill the slot and the deque, then hold the worker until
                // shutdown so neither is drained.
                sched.schedule(local, Arc::clone(&task));
                sched.schedule(local, Arc::clone(&task));
                started.store(true, Ordering::SeqCst);
                while !sched.shutdown.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            },
            || {
                sched.inject([Arc::clone(&token)]);
                wait_for("the worker to start", || started.load(Ordering::SeqCst));
                sched.inject([Arc::clone(&token)]);
            },
        );
        drop(sched);
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
