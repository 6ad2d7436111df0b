//! The pool's scheduling core: one locality-first work-stealing scheduler
//! (E23), stated once and driven by [`crate::SharedPool`].  DESIGN.md,
//! "Scheduling (E23)", has the measurements behind every constant here.
//!
//! * **Run-next slot** — worker-private, LIFO, one entry.  A wake issued
//!   from a running task lands here with no lock and no shared
//!   read-modify-write; the worker runs it next, while the messages its
//!   waker just produced are still in cache.  Every [`FAIR_INTERVAL`]-th
//!   pick skips the slot, so a producer/consumer pair cannot starve the
//!   other tasks queued on the worker.
//! * **Deque** — per worker, stealable, FIFO: what the slot displaces,
//!   yielded tasks, and batches moved over from the injector or a victim.
//!   The owner pops the front, a thief takes the older half.
//! * **Injector** — one pool-wide FIFO for work arriving from outside the
//!   workers.  Submission seeds a whole job in one batch; a worker takes up
//!   to half a deque of it at a time, so a small job starts out whole on
//!   one worker.
//!
//! **Wake throttling.**  A parked worker is unparked only when work lands
//! in a stealable queue (a deque or the injector) and no worker is already
//! searching; a searcher that finds work and leaves more behind unparks the
//! next.  A worker that runs dry searches for at most [`SPIN_BUDGET`] while
//! some peer still runs tasks, then parks on its own thread token.
//!
//! **No wakeup is lost**, without a global count of queued tasks: a worker
//! about to park first publishes that it is idle (joins `sleepers`, leaves
//! the searching count), *then* re-scans every stealable queue under its
//! lock; a pusher first pushes under the queue's lock, *then* reads the
//! searching and parked counts.  The two critical sections on a queue are
//! ordered, so either the re-scan sees the push, or the pusher sees the
//! parked worker and no searcher and unparks one.  The slot needs none of
//! this: only its owner fills it, and takes it before it looks anywhere
//! else, let alone parks.
//!
//! **Certification rows** ([`RunTable`]) are offered like a task — pushed,
//! then notify; the park-side re-check sees them — and taken only when
//! everything above came up empty.  A worker runs each row it claims to its
//! end, neither searching nor parked, so work pushed meanwhile unparks a peer.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

use fila_avoidance::verify::RunTable;

use crate::telemetry::{EventKind, SchedCounter, TelemetryHandle};

/// Every this many picks is a **fairness turn**: the slot's occupant is
/// demoted to the back of the deque and the injector goes first, then the
/// deque.  So at most `FAIR_INTERVAL − 1` consecutive picks come from the
/// slot (the slot cap), and a deque that never runs dry cannot starve newly
/// submitted jobs.
const FAIR_INTERVAL: u32 = 16;

/// The capacity each deque is created with (steady state never
/// reallocates) and twice the most tasks one grab from the injector or a
/// victim moves.
const DEQUE_CAPACITY: usize = 256;

/// How long a worker that ran dry keeps searching before it parks, while
/// some peer is still running tasks: about one park/unpark round trip.
const SPIN_BUDGET: Duration = Duration::from_micros(10);

/// `spin_loop` hints between two scans of a searching worker.
const SPIN_PAUSES: u32 = 4;

/// A FIFO other threads may take from.
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    /// `items.len()` as of the last operation under the lock: lets a poll
    /// skip the lock on an empty queue.  A hint only — the park-side
    /// re-check takes the lock — except that a deque's owner, the only one
    /// to push, may trust an empty reading.
    len: AtomicUsize,
}

impl<T> Queue<T> {
    fn with_capacity(capacity: usize) -> Self {
        Queue {
            items: Mutex::new(VecDeque::with_capacity(capacity)),
            len: AtomicUsize::new(0),
        }
    }

    /// Appends `tasks`; returns how many there were.
    fn push(&self, tasks: impl IntoIterator<Item = T>) -> usize {
        let mut items = lock(&self.items);
        let before = items.len();
        items.extend(tasks);
        self.len.store(items.len(), Ordering::Relaxed);
        items.len() - before
    }

    fn pop(&self) -> Option<T> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut items = lock(&self.items);
        let task = items.pop_front();
        self.len.store(items.len(), Ordering::Relaxed);
        task
    }

    /// Takes the oldest `share(len)` tasks (at most half a deque): the
    /// first is returned, the rest go to `batch`.  The flag says whether
    /// the grab left tasks behind.
    fn grab(&self, share: impl Fn(usize) -> usize, batch: &mut Vec<T>) -> Option<(T, bool)> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut items = lock(&self.items);
        let share = share(items.len()).min(DEQUE_CAPACITY / 2);
        let first = items.pop_front()?;
        batch.extend(items.drain(..share - 1));
        self.len.store(items.len(), Ordering::Relaxed);
        Some((first, !items.is_empty()))
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
    /// `sleepers.len()`, readable without the lock.
    parked: AtomicUsize,
    sleepers: Mutex<Vec<usize>>,
    shutdown: AtomicBool,
    telemetry: Option<TelemetryHandle>,
    /// Certification rows offered to idle workers (see the module docs).
    offers: Mutex<Vec<Arc<RunTable>>>,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under the pool's locks leaves the data valid, so a
    // poisoned lock (a panic elsewhere on that thread) carries no
    // information: a panicked behaviour's counters are still meaningful.
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
            parked: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::with_capacity(workers)),
            shutdown: AtomicBool::new(false),
            telemetry,
            offers: Mutex::new(Vec::new()),
        }
    }

    /// The number of workers — also the lane that stands for "not a
    /// worker" (the injector as a steal victim, the telemetry control lane).
    pub(crate) fn workers(&self) -> usize {
        self.remotes.len()
    }

    /// Claims worker `index` for the calling thread (call once, from the
    /// worker thread itself: its handle is what [`Scheduler::notify`]
    /// unparks).
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

    /// Queues work arriving from outside the workers: one lock, at most one
    /// unpark, however many tasks.
    pub(crate) fn inject(&self, tasks: impl IntoIterator<Item = T>) {
        let pushed = self.injector.push(tasks);
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
        self.remotes[local.index].deque.push([task]);
        self.count(local.index, SchedCounter::DequePush, 1);
        self.notify(local.index);
    }

    /// Work just landed in a stealable queue: unpark one worker unless a
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
        let woken = {
            let mut sleepers = lock(&self.sleepers);
            // Two pushers may both have seen no searcher; the second one to
            // get here finds the worker the first one promoted.
            let woken = match self.searching.load(Ordering::SeqCst) {
                0 => sleepers.pop(),
                _ => None,
            };
            if let Some(worker) = woken {
                self.parked.store(sleepers.len(), Ordering::SeqCst);
                // The woken worker starts out searching.
                self.searching.fetch_add(1, Ordering::SeqCst);
                self.remotes[worker]
                    .sleeping
                    .store(false, Ordering::Release);
            }
            woken
        };
        match woken {
            Some(worker) => {
                self.count(lane, SchedCounter::UnparkIssued, 1);
                if let Some(thread) = self.remotes[worker].thread.get() {
                    thread.unpark();
                }
            }
            None => self.count(lane, SchedCounter::UnparkSuppressed, 1),
        }
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
            if let Some(found) = self.take_from(local, self.workers()) {
                return Some(found);
            }
        } else if let Some(task) = local.slot.take() {
            self.count(local.index, SchedCounter::SlotHit, 1);
            return Some((task, None));
        }
        if let Some(task) = self.remotes[local.index].deque.pop() {
            return Some((task, None));
        }
        self.take_from(local, self.workers())
    }

    /// Grabs a batch from the injector (`victim == workers()`: up to half
    /// a deque) or from a peer's deque (its older half): one task to run,
    /// the rest onto the worker's own deque.  The worker stops searching,
    /// and unparks the next one if there is now work it could take.
    fn take_from(&self, local: &mut Local<T>, victim: usize) -> Option<(T, Option<usize>)> {
        let (first, left_behind) = match self.remotes.get(victim) {
            Some(peer) => peer.deque.grab(|len| len.div_ceil(2), &mut local.batch)?,
            None => self.injector.grab(|len| len, &mut local.batch)?,
        };
        if victim < self.workers() {
            self.count(local.index, SchedCounter::Steal, 1);
        }
        let moved = self.remotes[local.index].deque.push(local.batch.drain(..)) > 0;
        self.stop_searching(local);
        if left_behind || moved {
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

    /// Looks for work beyond the worker's own queues — the injector, then
    /// the peers' deques — for at most [`SPIN_BUDGET`] and only while a peer
    /// is running tasks (nothing else can make stealable work appear; an
    /// injection unparks on its own).
    fn search(&self, local: &mut Local<T>) -> Option<(T, Option<usize>)> {
        if !local.searching {
            local.searching = true;
            self.searching.fetch_add(1, Ordering::SeqCst);
        }
        let workers = self.workers();
        let mut deadline = None;
        loop {
            let found = self.take_from(local, workers).or_else(|| {
                (1..workers)
                    .find_map(|offset| self.take_from(local, (local.index + offset) % workers))
            });
            if found.is_some() {
                if deadline.is_some() {
                    self.count(local.index, SchedCounter::SpinFound, 1);
                }
                return found;
            }
            let busy_peers = workers
                > self.parked.load(Ordering::Relaxed) + self.searching.load(Ordering::Relaxed);
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + SPIN_BUDGET);
            if !busy_peers || now >= deadline || self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            for _ in 0..SPIN_PAUSES {
                std::hint::spin_loop();
            }
        }
    }

    /// True if a queue this worker could take from holds a task or an offered
    /// table a row (checked under each lock: this is the park-side re-check).
    fn stealable_work(&self, local: &Local<T>) -> bool {
        !lock(&self.injector.items).is_empty()
            || self.remotes.iter().enumerate().any(|(index, remote)| {
                index != local.index && !lock(&remote.deque.items).is_empty()
            })
            || lock(&self.offers).iter().any(|table| table.open())
    }

    /// Parks the worker until a pusher unparks it or the pool shuts down.
    /// On return the worker is searching again (and counted as such).
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
        if !self.shutdown.load(Ordering::SeqCst) && !self.stealable_work(local) {
            parked = true;
            self.count(local.index, SchedCounter::Park, 1);
            loop {
                std::thread::park();
                // A stale token or a spurious return leaves `sleeping` set.
                if !remote.sleeping.load(Ordering::Acquire) || self.shutdown.load(Ordering::SeqCst)
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

    #[test]
    fn the_slot_is_private_and_the_deque_is_shared_and_wakes_a_sleeper() {
        let sched = Scheduler::<u64>::new(2, None);
        let mut owner = sched.local(0);
        let mut thief = sched.local(1);
        // First wake in the slot: nothing a peer could take.
        sched.schedule(&mut owner, 1);
        assert!(!sched.stealable_work(&thief));
        // The second displaces it onto the deque, which unparks a sleeper.
        lock(&sched.sleepers).push(1);
        sched.parked.store(1, Ordering::SeqCst);
        sched.remotes[1].sleeping.store(true, Ordering::SeqCst);
        sched.schedule(&mut owner, 2);
        assert!(!sched.remotes[1].sleeping.load(Ordering::SeqCst));
        assert_eq!(sched.searching.load(Ordering::SeqCst), 1);
        thief.searching = true;
        assert_eq!(sched.search(&mut thief), Some((1, Some(0))));
        assert_eq!(sched.searching.load(Ordering::SeqCst), 0);
        assert_eq!(sched.pick_local(&mut owner), Some((2, None)));
        assert_eq!(sched.pick_local(&mut owner), None);
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
