//! Flight-recorder telemetry: per-worker bounded event rings, drained into
//! job timelines and exported as Chrome `trace_event` JSON.
//!
//! The recorder is **zero-cost when off**: every hook in the execution
//! engines sits behind an `Option<TelemetryHandle>` that is `None` on
//! production pools, so the disabled hot path is the exact code path that
//! existed before telemetry — one never-taken branch per hook site.
//!
//! When enabled, each pool worker owns one single-producer ring of
//! fixed-size binary [`TraceEvent`] records ([`EventKind`] discriminant,
//! worker/job/node identity, monotonic nanosecond timestamps measured from
//! the recorder's epoch).  Recording is lock-free and wait-free: a full
//! ring **drops the newest event and counts the drop** — the flight
//! recorder never blocks or slows the worker it is observing.  Threads
//! that are not pool workers (the service control plane: recovery rungs,
//! drift responses) record through a mutex-guarded control lane; those
//! events are rare by construction.
//!
//! Draining moves ring contents into a bounded `collected` buffer (again
//! drop-and-count on overflow).  The service drains after every job
//! settles; [`chrome_trace`] renders the whole run for `chrome://tracing`
//! / Perfetto.  The JSON is emitted one event per line so downstream
//! consumers (the `fila trace` summarizer) can parse it with string
//! operations alone — no JSON library in the loop.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sched::lock;

/// Lane index that routes [`TelemetryHandle::record`] to the control lane
/// (mutex-guarded, for threads that are not pool workers).
pub const CONTROL_LANE: usize = usize::MAX;

/// Worker id stamped on control-lane events (no worker thread involved).
pub const NO_WORKER: u16 = u16::MAX;

/// Default per-worker ring capacity (events), chosen so a worker can absorb
/// several full scheduling quanta between drains: 8192 records × 40 bytes ≈
/// 320 KiB per worker.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Cap on the post-drain `collected` buffer; beyond it events are dropped
/// and counted, exactly like a full ring.
const COLLECTED_CAP: usize = 1 << 20;

/// Cap on the control lane (service control-plane events are rare; this
/// bounds a pathological recording loop, not normal operation).
const CONTROL_CAP: usize = 1 << 16;

/// What one [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum EventKind {
    /// A task execution slice that made progress (span; `arg` = messages
    /// the slice *delivered* into its output rings — data plus dummies,
    /// EOS markers excluded — so a trace's firing spans sum to the job's
    /// total channel traffic regardless of container batching).
    #[default]
    Firing = 0,
    /// A worker took work from a queue that is not its own — a peer's
    /// deque or the injector (instant; `arg` = victim worker index, or the
    /// worker count for the injector).
    Steal = 1,
    /// A worker parked waiting for work (span).
    Park = 2,
    /// A task blocked on an empty input channel (instant; `arg` = edge).
    BlockedInput = 3,
    /// A task blocked on a full output channel (instant; `arg` = edge).
    BlockedSpace = 4,
    /// A task contributed to a barrier snapshot at its alignment point
    /// (instant; `arg` = snapshot epoch).
    BarrierAlign = 5,
    /// An injected (or organic) node panic was caught (instant).
    Fault = 6,
    /// One rung of the recovery ladder ran (span; `arg` = rung code:
    /// 0 = full restore, 1 = partial restart, 2 = genesis).
    RecoveryRung = 7,
    /// A drift response ran (span; `arg` = 0 hot-swap, 1 quarantine
    /// replan, 2 drift-cancel).
    DriftSwap = 8,
    /// A whole job, pool submission to settle (span; `arg` = verdict code).
    Job = 9,
}

impl EventKind {
    /// Stable lowercase name used by the Chrome-trace exporter and the
    /// `fila trace` summarizer.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Firing => "firing",
            EventKind::Steal => "steal",
            EventKind::Park => "park",
            EventKind::BlockedInput => "blocked_input",
            EventKind::BlockedSpace => "blocked_space",
            EventKind::BarrierAlign => "barrier_align",
            EventKind::Fault => "fault",
            EventKind::RecoveryRung => "recovery_rung",
            EventKind::DriftSwap => "drift_swap",
            EventKind::Job => "job",
        }
    }
}

/// What the pool's scheduler counts per worker (see `sched.rs`; E23).  The
/// counters live inside the recorder, so a pool without one has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SchedCounter {
    /// Tasks run from the worker's own run-next slot.
    SlotHit = 0,
    /// Tasks pushed onto the worker's own (stealable) deque.
    DequePush = 1,
    /// Tasks pushed onto the pool-wide injector.
    InjectorPush = 2,
    /// Grabs from a peer's deque.
    Steal = 3,
    /// Parked workers unparked because work landed in a stealable queue.
    UnparkIssued = 4,
    /// Stealable pushes that unparked nobody although a worker was
    /// parked: another was already searching and will find the work.
    UnparkSuppressed = 5,
    /// Times a worker parked.
    Park = 6,
    /// Searches that found work only after the first scan came up empty.
    SpinFound = 7,
    /// Slices whose wakes were published with no write to the job's
    /// activity count: one woken task took over the retiring task's unit.
    Handoff = 8,
    /// Slices that ran on a different worker than their task's previous
    /// slice (counted by the worker the task moved to).
    Migration = 9,
    /// Budgets granted to a slice whose task spent one with work left,
    /// instead of a yield.
    Renewal = 10,
}

impl SchedCounter {
    /// Every counter, in discriminant order.
    pub const ALL: [SchedCounter; 11] = [
        SchedCounter::SlotHit,
        SchedCounter::DequePush,
        SchedCounter::InjectorPush,
        SchedCounter::Steal,
        SchedCounter::UnparkIssued,
        SchedCounter::UnparkSuppressed,
        SchedCounter::Park,
        SchedCounter::SpinFound,
        SchedCounter::Handoff,
        SchedCounter::Migration,
        SchedCounter::Renewal,
    ];

    /// Stable lowercase name: the `fila_sched_<name>_total` Prometheus
    /// series and the `sched_<name>` Chrome-trace counter.
    pub fn name(self) -> &'static str {
        match self {
            SchedCounter::SlotHit => "slot_hits",
            SchedCounter::DequePush => "deque_pushes",
            SchedCounter::InjectorPush => "injector_pushes",
            SchedCounter::Steal => "steals",
            SchedCounter::UnparkIssued => "unparks_issued",
            SchedCounter::UnparkSuppressed => "unparks_suppressed",
            SchedCounter::Park => "parks",
            SchedCounter::SpinFound => "spins_found_work",
            SchedCounter::Handoff => "handoffs",
            SchedCounter::Migration => "migrations",
            SchedCounter::Renewal => "renewals",
        }
    }
}

/// One lane's scheduler counters, on cache lines of their own so two
/// workers counting never share one.
#[derive(Default)]
#[repr(align(128))]
struct SchedCounters([AtomicU64; SchedCounter::ALL.len()]);

/// One fixed-size binary flight-recorder record.
///
/// Spans carry `t_start_ns < t_end_ns`; instants carry `t_start_ns ==
/// t_end_ns`.  Timestamps are nanoseconds from the recorder's epoch
/// (monotonic, never wall-clock).  `job` is the pool's job serial
/// ([`u64::MAX`] when no job is involved), `node` the node index
/// ([`u32::MAX`] when not node-scoped), and `arg` is kind-specific (see
/// [`EventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// Worker lane that recorded the event ([`NO_WORKER`] for control).
    pub worker: u16,
    /// Node index within the job, or `u32::MAX`.
    pub node: u32,
    /// Pool job serial, or `u64::MAX`.
    pub job: u64,
    /// Span start (== end for instants), ns from the recorder epoch.
    pub t_start_ns: u64,
    /// Span end, ns from the recorder epoch.
    pub t_end_ns: u64,
    /// Kind-specific argument (see [`EventKind`]).
    pub arg: u64,
}

impl TraceEvent {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }
}

/// One worker's single-producer / single-consumer bounded event ring.
///
/// The owning worker is the only producer; the drainer (serialized by the
/// `collected` mutex in [`Telemetry`]) is the only consumer.  Classic
/// Lamport queue: the producer publishes a slot with a release store of
/// `head`, the consumer acquires `head` before reading and releases `tail`
/// after, and the producer acquires `tail` before deciding the ring is
/// full.  A full ring drops the **newest** record (the one being pushed)
/// and bumps `dropped` — committed records are never overwritten, so a
/// drain observes only complete, uncorrupted events.
struct EventRing {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    /// Next write index (monotonic; producer-owned).
    head: AtomicUsize,
    /// Next read index (monotonic; consumer-owned).
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slot `i % cap` is written only by the single producer while
// `head - tail < cap` guarantees no unconsumed record occupies it, and read
// only by the single consumer for indices `< head` (acquire pairing with
// the producer's release store of `head`).
unsafe impl Sync for EventRing {}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        EventRing {
            slots: (0..capacity)
                .map(|_| UnsafeCell::new(TraceEvent::default()))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: record or drop-and-count. Never blocks.
    fn push(&self, event: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: see the `Sync` impl — this slot is unoccupied and no
        // other thread touches it until the release store below.
        unsafe { *self.slots[head % self.slots.len()].get() = event };
        self.head.store(head.wrapping_add(1), Ordering::Release);
    }

    /// Producer-side probe: would the next push drop?
    fn is_full(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        head.wrapping_sub(tail) >= self.slots.len()
    }

    /// Consumer side (serialized by the caller): moves every committed
    /// record into `out`, in recording order.
    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            // SAFETY: `tail < head` so the producer committed this slot
            // (acquire load of `head` above) and will not reuse it until
            // the release store of `tail` below.
            out.push(unsafe { *self.slots[tail % self.slots.len()].get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
    }
}

/// The shared flight-recorder state behind a [`TelemetryHandle`].
pub struct Telemetry {
    epoch: Instant,
    rings: Vec<EventRing>,
    /// One per worker lane plus a last one for every other thread.
    sched: Vec<SchedCounters>,
    control: Mutex<Vec<TraceEvent>>,
    control_dropped: AtomicU64,
    /// Everything drained so far, in drain order; guarded drains make the
    /// rings' single-consumer contract hold.
    collected: Mutex<Vec<TraceEvent>>,
    collected_dropped: AtomicU64,
}

/// A cheap, clonable handle to one flight recorder.
///
/// One handle is shared by a pool (which stamps worker-lane events), the
/// service control plane (control-lane events) and whoever exports the
/// trace at the end of the run.
#[derive(Clone)]
pub struct TelemetryHandle(Arc<Telemetry>);

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryHandle")
            .field("workers", &self.0.rings.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TelemetryHandle {
    /// A recorder with one [`DEFAULT_RING_CAPACITY`]-slot ring per worker.
    pub fn new(workers: usize) -> Self {
        Self::with_capacity(workers, DEFAULT_RING_CAPACITY)
    }

    /// A recorder with an explicit per-worker ring capacity (clamped ≥ 2).
    pub fn with_capacity(workers: usize, capacity: usize) -> Self {
        TelemetryHandle(Arc::new(Telemetry {
            epoch: Instant::now(),
            rings: (0..workers).map(|_| EventRing::new(capacity)).collect(),
            sched: (0..=workers).map(|_| SchedCounters::default()).collect(),
            control: Mutex::new(Vec::new()),
            control_dropped: AtomicU64::new(0),
            collected: Mutex::new(Vec::new()),
            collected_dropped: AtomicU64::new(0),
        }))
    }

    /// Number of worker lanes.
    pub fn workers(&self) -> usize {
        self.0.rings.len()
    }

    /// Nanoseconds since the recorder's epoch (monotonic).
    pub fn now_ns(&self) -> u64 {
        self.0.epoch.elapsed().as_nanos() as u64
    }

    /// Worker-lane fast-path probe taken at the top of an execution slice:
    /// `Some(now_ns)` when `lane`'s ring has room for the slice's events,
    /// `None` when it is full — then one drop is counted and the caller
    /// skips the slice's instrumentation entirely.  Every event the slice
    /// would have recorded was headed for the drop path anyway, but the
    /// timestamps and bookkeeping around them are not free, and a recorder
    /// that is losing events must not keep taxing the computation it lost
    /// them from.  Consequently [`Self::dropped`] counts a skipped slice
    /// as **one** drop (a gap indicator, not an exact event count).
    /// Out-of-range lanes always return a timestamp — the control lane
    /// has its own cap.
    pub fn slice_start(&self, lane: usize) -> Option<u64> {
        if let Some(ring) = self.0.rings.get(lane) {
            if ring.is_full() {
                ring.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        Some(self.now_ns())
    }

    /// Records `event` on `lane`: a worker index routes to that worker's
    /// lock-free ring (callable only from the owning worker — the
    /// single-producer contract); any out-of-range lane (use
    /// [`CONTROL_LANE`]) routes to the mutex-guarded control lane.
    pub fn record(&self, lane: usize, event: TraceEvent) {
        match self.0.rings.get(lane) {
            Some(ring) => ring.push(event),
            None => {
                let mut control = lock(&self.0.control);
                if control.len() >= CONTROL_CAP {
                    self.0.control_dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    control.push(event);
                }
            }
        }
    }

    /// Records an instant (zero-duration) event stamped `now`.
    pub fn instant(&self, lane: usize, kind: EventKind, job: u64, node: u32, arg: u64) {
        let now = self.now_ns();
        self.record(
            lane,
            TraceEvent {
                kind,
                worker: lane_worker(lane, self.workers()),
                node,
                job,
                t_start_ns: now,
                t_end_ns: now,
                arg,
            },
        );
    }

    /// Records a span that started at `t_start_ns` (from [`Self::now_ns`])
    /// and ends now.
    pub fn span(
        &self,
        lane: usize,
        kind: EventKind,
        job: u64,
        node: u32,
        t_start_ns: u64,
        arg: u64,
    ) {
        let now = self.now_ns();
        self.record(
            lane,
            TraceEvent {
                kind,
                worker: lane_worker(lane, self.workers()),
                node,
                job,
                t_start_ns,
                t_end_ns: now.max(t_start_ns),
                arg,
            },
        );
    }

    /// Adds `n` to one of `lane`'s scheduler counters (relaxed: a
    /// statistic, it publishes nothing).  Out-of-range lanes share the
    /// control lane's counters.
    pub fn count(&self, lane: usize, counter: SchedCounter, n: u64) {
        let lane = lane.min(self.0.rings.len());
        self.0.sched[lane].0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The scheduler counters so far, one row per worker lane and a last
    /// row for the control lane, each in [`SchedCounter::ALL`] order.
    pub fn sched_counters(&self) -> Vec<[u64; SchedCounter::ALL.len()]> {
        self.0
            .sched
            .iter()
            .map(|lane| std::array::from_fn(|i| lane.0[i].load(Ordering::Relaxed)))
            .collect()
    }

    /// Everything recorded so far as Chrome `trace_event` JSON: the events
    /// of [`chrome_trace`] followed by one `ph:"C"` counter sample per
    /// non-zero scheduler counter and lane.
    pub fn chrome_trace(&self) -> String {
        let mut lines: Vec<String> = self.all_events().iter().map(event_line).collect();
        let ts = self.now_ns() as f64 / 1_000.0;
        for (lane, row) in self.sched_counters().iter().enumerate() {
            let tid = u64::from(lane_worker(lane, self.workers()));
            for (counter, &value) in SchedCounter::ALL.iter().zip(row) {
                if value > 0 {
                    lines.push(format!(
                        "{{\"name\":\"sched_{}\",\"cat\":\"fila\",\"ph\":\"C\",\"ts\":{ts:.3},\"pid\":0,\"tid\":{tid},\"args\":{{\"value\":{value}}}}}",
                        counter.name(),
                    ));
                }
            }
        }
        trace_document(&lines)
    }

    /// Drains every ring and the control lane into the collected buffer and
    /// returns **the newly drained batch** (callers stream it into
    /// histograms; the cumulative buffer feeds the final trace export).
    pub fn drain_new(&self) -> Vec<TraceEvent> {
        let mut collected = lock(&self.0.collected);
        let mut batch = Vec::new();
        for ring in &self.0.rings {
            ring.drain_into(&mut batch);
        }
        batch.append(&mut lock(&self.0.control));
        let room = COLLECTED_CAP.saturating_sub(collected.len());
        if batch.len() > room {
            self.0
                .collected_dropped
                .fetch_add((batch.len() - room) as u64, Ordering::Relaxed);
            collected.extend_from_slice(&batch[..room]);
        } else {
            collected.extend_from_slice(&batch);
        }
        batch
    }

    /// Every event recorded so far (after a final drain), sorted by span
    /// start time.
    pub fn all_events(&self) -> Vec<TraceEvent> {
        self.drain_new();
        let mut events = lock(&self.0.collected).clone();
        events.sort_by_key(|e| (e.t_start_ns, e.t_end_ns));
        events
    }

    /// Total events dropped anywhere (full rings, full control lane, full
    /// collected buffer).  Dropped events are always *newest-first at the
    /// drop site*; committed records are never corrupted.
    pub fn dropped(&self) -> u64 {
        let rings: u64 = self
            .0
            .rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum();
        rings
            + self.0.control_dropped.load(Ordering::Relaxed)
            + self.0.collected_dropped.load(Ordering::Relaxed)
    }
}

fn lane_worker(lane: usize, workers: usize) -> u16 {
    if lane < workers {
        lane as u16
    } else {
        NO_WORKER
    }
}

/// Renders events as Chrome `trace_event` JSON (the `traceEvents` array
/// form), suitable for `chrome://tracing` and Perfetto.
///
/// Spans become `ph:"X"` complete events and instants `ph:"i"`; `pid` is
/// the job serial, `tid` the worker lane, timestamps are microseconds from
/// the recorder epoch.  Exactly one event per line, so line-oriented
/// consumers (the `fila trace` summarizer) need no JSON parser.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    trace_document(&events.iter().map(event_line).collect::<Vec<_>>())
}

/// Wraps one-event-per-line records into the `traceEvents` document.
fn trace_document(lines: &[String]) -> String {
    format!("{{\"traceEvents\":[\n{}\n]}}\n", lines.join(",\n"))
}

fn event_line(e: &TraceEvent) -> String {
    let ts = e.t_start_ns as f64 / 1_000.0;
    let pid = if e.job == u64::MAX { 0 } else { e.job };
    let tid = u64::from(e.worker);
    if e.t_end_ns > e.t_start_ns {
        let dur = e.duration_ns() as f64 / 1_000.0;
        format!(
            "{{\"name\":\"{}\",\"cat\":\"fila\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"node\":{},\"arg\":{}}}}}",
            e.kind.name(),
            e.node,
            e.arg,
        )
    } else {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"fila\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"node\":{},\"arg\":{}}}}}",
            e.kind.name(),
            e.node,
            e.arg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, job: u64, t0: u64, t1: u64) -> TraceEvent {
        TraceEvent {
            kind,
            worker: 0,
            node: 1,
            job,
            t_start_ns: t0,
            t_end_ns: t1,
            arg: 7,
        }
    }

    #[test]
    fn ring_records_in_order_and_drains() {
        let tele = TelemetryHandle::with_capacity(1, 16);
        for i in 0..10 {
            tele.record(0, ev(EventKind::Firing, i, i, i + 1));
        }
        let batch = tele.drain_new();
        assert_eq!(batch.len(), 10);
        assert!(batch.iter().enumerate().all(|(i, e)| e.job == i as u64));
        assert_eq!(tele.dropped(), 0);
        // A second drain is empty; all_events still sees everything.
        assert!(tele.drain_new().is_empty());
        assert_eq!(tele.all_events().len(), 10);
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let cap = 8;
        let tele = TelemetryHandle::with_capacity(1, cap);
        for i in 0..20u64 {
            tele.record(0, ev(EventKind::Steal, i, i, i));
        }
        assert_eq!(tele.dropped(), 20 - cap as u64);
        let batch = tele.drain_new();
        assert_eq!(batch.len(), cap);
        // The survivors are exactly the oldest `cap` records, uncorrupted.
        for (i, e) in batch.iter().enumerate() {
            assert_eq!(e.job, i as u64);
            assert_eq!(e.kind, EventKind::Steal);
            assert_eq!(e.arg, 7);
        }
        // After a drain there is room again.
        tele.record(0, ev(EventKind::Steal, 99, 99, 99));
        assert_eq!(tele.drain_new().len(), 1);
    }

    #[test]
    fn control_lane_accepts_out_of_range_lanes() {
        let tele = TelemetryHandle::with_capacity(2, 8);
        tele.instant(CONTROL_LANE, EventKind::RecoveryRung, 3, u32::MAX, 1);
        let batch = tele.drain_new();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].worker, NO_WORKER);
        assert_eq!(batch[0].kind, EventKind::RecoveryRung);
    }

    #[test]
    fn concurrent_producer_never_corrupts_drained_records() {
        let tele = TelemetryHandle::with_capacity(1, 32);
        let total = 50_000u64;
        std::thread::scope(|scope| {
            let producer = {
                let tele = tele.clone();
                scope.spawn(move || {
                    for i in 0..total {
                        tele.record(0, ev(EventKind::Firing, i, i, i + 1));
                    }
                })
            };
            let mut seen = 0u64;
            let mut last_job = None;
            while !producer.is_finished() || seen < total - tele.dropped() {
                for e in tele.drain_new() {
                    // Every drained record is complete and in order.
                    assert_eq!(e.kind, EventKind::Firing);
                    assert_eq!(e.t_end_ns, e.t_start_ns + 1);
                    assert_eq!(e.arg, 7);
                    if let Some(last) = last_job {
                        assert!(e.job > last);
                    }
                    last_job = Some(e.job);
                    seen += 1;
                }
                if producer.is_finished() && seen >= total - tele.dropped() {
                    break;
                }
            }
            assert_eq!(seen + tele.dropped(), total);
        });
    }

    #[test]
    fn chrome_trace_emits_one_event_per_line() {
        let events = vec![
            ev(EventKind::Firing, 1, 1_000, 3_000),
            ev(EventKind::Steal, u64::MAX, 4_000, 4_000),
        ];
        let json = chrome_trace(&events);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        let lines: Vec<&str> = json.lines().collect();
        // Header, two events, footer.
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"name\":\"firing\""));
        assert!(lines[1].contains("\"ph\":\"X\""));
        assert!(lines[1].contains("\"dur\":2.000"));
        assert!(lines[2].contains("\"name\":\"steal\""));
        assert!(lines[2].contains("\"ph\":\"i\""));
        assert!(lines[2].contains("\"pid\":0"));
    }
}
