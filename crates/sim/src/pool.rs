//! Execution pools for the simulator's parallel paths.
//!
//! Two shapes of parallelism live here:
//!
//! * [`lpt_fanout`] — the *scoped* fan-out behind
//!   [`CompiledValidator::measure`](crate::CompiledValidator): weighted
//!   items are balanced over short-lived workers by
//!   longest-processing-time ([`partition_lpt`]), joined before returning.
//!   Borrowed data is fine; thread churn is paid per call. Serving never
//!   validates candidates, so only callers that hand the search a
//!   validator use it.
//! * [`WorkerPool`] — the *persistent* pool fleet serving runs on:
//!   long-lived workers pull whole jobs from shared injector queues, so
//!   a thousand-device run spawns its threads exactly once. Jobs must be
//!   `'static` (they outlive the submitting call); results stream back over
//!   whatever channel the job captured. Jobs land in weighted-fair
//!   [`LaneId`] lanes: the test floor gives each lot one lane whose weight
//!   is the lot priority, and its admission controller pauses or drains a
//!   lane without touching co-tenant lanes.
//!
//! The split is deliberate: a persistent pool cannot safely borrow from the
//! submitting stack frame, and a scoped pool cannot amortise thread startup
//! across calls. Per-device work (owns its simulator) takes the persistent
//! pool; candidates a validator measures (borrowed from the search) take
//! the scoped fan-out. One device runs on one thread: its engine runs a
//! step's lanes one after another.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use casbus_controller::partition_lpt;
use casbus_obs::MetricsRegistry;

/// Virtual-time quantum for the stride scheduler: a lane of weight `w`
/// advances its pass by `STRIDE_SCALE / w` per job, so over time lanes
/// receive worker pulls proportionally to their weights.
const STRIDE_SCALE: u64 = 1 << 20;

/// Runs `f` over every item, spreading the work across up to `workers`
/// scoped threads balanced by LPT on the supplied weights, and returns the
/// results **in input order**. With one worker (or one item) everything
/// runs inline on the caller's thread — no spawn, no churn.
///
/// Deterministic by construction: each item's result depends only on that
/// item, and the output order is the input order regardless of how the
/// buckets interleave.
pub fn lpt_fanout<T, R, F>(weighted: Vec<(u64, T)>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(weighted.len()).max(1);
    if workers <= 1 {
        return weighted.into_iter().map(|(_, item)| f(item)).collect();
    }
    let slotted: Vec<(u64, (usize, T))> = weighted
        .into_iter()
        .enumerate()
        .map(|(slot, (weight, item))| (weight, (slot, item)))
        .collect();
    let mut results: Vec<Option<R>> = (0..slotted.len()).map(|_| None).collect();
    let computed = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = partition_lpt(slotted, workers)
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(slot, item)| (slot, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fan-out worker panicked"))
            .collect::<Vec<_>>()
    });
    for (slot, result) in computed {
        results[slot] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every slot computed"))
        .collect()
}

/// A job the pool executes: owns everything it touches.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued job plus its enqueue instant, so workers can report how long
/// it waited for a free thread. The instant is captured only while a
/// metrics registry is attached — the metric-less serving hot path skips
/// the clock read entirely.
struct QueuedJob {
    run: Job,
    enqueued: Option<Instant>,
}

/// Handle to one submission lane of a [`WorkerPool`].
///
/// Lanes are the pool's unit of *weighted-fair scheduling*: every job is
/// enqueued into some lane ([`WorkerPool::execute`] uses a built-in default
/// lane of weight 1; [`WorkerPool::lane`] registers more), and idle workers
/// pick the next job from the runnable lane with the smallest
/// stride-scheduling pass value — so over time each lane receives worker
/// pulls in proportion to its weight, regardless of how fast jobs are
/// submitted. A multi-tenant serving layer (the test floor) maps each lot
/// to one lane and its priority to the lane weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneId(usize);

/// One submission lane: its queue plus fair-scheduling state.
struct LaneState {
    jobs: VecDeque<QueuedJob>,
    /// Scheduling weight (≥ 1): a weight-2 lane gets twice the pulls of a
    /// weight-1 lane while both have work queued.
    weight: u64,
    /// Paused lanes are skipped by workers (queued jobs wait; in-flight
    /// jobs finish) until resumed — except during shutdown, when every
    /// queued job still runs so nothing is silently discarded.
    paused: bool,
    /// Stride-scheduling virtual time: advanced by `STRIDE_SCALE / weight`
    /// per popped job; the runnable lane with the smallest pass goes next.
    pass: u64,
}

/// Queue state shared between the submitting side and the workers.
struct PoolState {
    lanes: Vec<LaneState>,
    /// Pass value of the most recently scheduled lane: lanes going from
    /// empty to non-empty rejoin at this virtual "now" instead of replaying
    /// the backlog their idle time would otherwise entitle them to.
    global_pass: u64,
    shutdown: bool,
}

impl PoolState {
    /// A fresh state with the default lane (index 0, weight 1) installed.
    fn new() -> Self {
        Self {
            lanes: vec![LaneState {
                jobs: VecDeque::new(),
                weight: 1,
                paused: false,
                pass: 0,
            }],
            global_pass: 0,
            shutdown: false,
        }
    }

    /// Pops the next job under weighted-fair scheduling: the non-paused,
    /// non-empty lane with the smallest pass (ties to the lowest lane
    /// index). During shutdown paused lanes are eligible too, so dropping
    /// the pool never strands queued work.
    fn next_job(&mut self) -> Option<QueuedJob> {
        let mut best: Option<usize> = None;
        for (idx, lane) in self.lanes.iter().enumerate() {
            if lane.jobs.is_empty() || (lane.paused && !self.shutdown) {
                continue;
            }
            if best.is_none_or(|b| lane.pass < self.lanes[b].pass) {
                best = Some(idx);
            }
        }
        let idx = best?;
        let lane = &mut self.lanes[idx];
        self.global_pass = lane.pass;
        lane.pass += STRIDE_SCALE / lane.weight.max(1);
        lane.jobs.pop_front()
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    executed: AtomicU64,
    /// When set, workers observe `obs.pool.job.wait_us` (enqueue → pickup)
    /// and `obs.pool.job.exec_us` (run time) per job. Wall-clock values:
    /// intentionally namespaced under `obs.*`, outside the determinism
    /// contract.
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
    /// Mirror of `metrics.is_some()`, updated under the `metrics` lock.
    /// Workers check this flag per job and only touch the mutex when it is
    /// set, so the (usual) detached case never serializes on the registry
    /// lock.
    metrics_attached: AtomicBool,
}

impl PoolShared {
    /// Locks the scheduling state. A poisoned lock is recovered: nothing
    /// panics while holding it (`lock_lane` releases it before its panic),
    /// and every update leaves the queues and counters consistent.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the attached registry slot, recovering a poisoned lock: the
    /// slot is a plain `Option` that every write replaces whole.
    fn metrics(&self) -> MutexGuard<'_, Option<Arc<MetricsRegistry>>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A persistent pool of worker threads pulling jobs from one shared queue.
///
/// Workers are spawned once, at construction, and live until the pool is
/// dropped: submitting ten thousand jobs costs ten thousand queue pushes,
/// not ten thousand thread spawns. Idle workers block on a condvar and
/// steal the next available job the moment one lands, so load balances
/// itself — a worker stuck on a long device simply stops pulling while the
/// others drain the queue.
///
/// Jobs are `FnOnce() + Send + 'static`; anything they produce streams back
/// through channels the job captured. Dropping the pool finishes every
/// queued job first — paused lanes included — then joins the workers
/// (tests rely on nothing being silently discarded).
///
/// # Examples
///
/// ```
/// use casbus_sim::pool::WorkerPool;
/// use std::sync::mpsc;
///
/// let pool = WorkerPool::new(4);
/// let (tx, rx) = mpsc::sync_channel(8);
/// for device in 0..32u64 {
///     let tx = tx.clone();
///     pool.execute(move || tx.send(device * device).unwrap());
/// }
/// drop(tx);
/// let mut squares: Vec<u64> = rx.iter().collect();
/// squares.sort_unstable();
/// assert_eq!(squares[31], 31 * 31);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .field("executed", &self.jobs_executed())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` long-lived workers (`0` means one per
    /// available hardware thread).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::new()),
            work_ready: Condvar::new(),
            executed: AtomicU64::new(0),
            metrics: Mutex::new(None),
            metrics_attached: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        Self { shared, workers }
    }

    /// Locks the pool's state for an operation on `lane`, whose slot is
    /// then `state.lanes[lane.0]`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` does not belong to this pool — after releasing the
    /// lock, so the panic cannot poison the lock every worker and `Drop`
    /// take.
    fn lock_lane(&self, lane: LaneId) -> MutexGuard<'_, PoolState> {
        let state = self.shared.state();
        if lane.0 >= state.lanes.len() {
            drop(state);
            panic!("lane {} of another pool", lane.0);
        }
        state
    }

    fn worker_loop(shared: &PoolShared) {
        loop {
            let job = {
                let mut state = shared.state();
                loop {
                    if let Some(job) = state.next_job() {
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared
                        .work_ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Fast path: no registry attached (the fleet's per-device hot
            // path) — skip the metrics mutex entirely.
            let metrics = if shared.metrics_attached.load(Ordering::Acquire) {
                shared.metrics().clone()
            } else {
                None
            };
            // A panicking job ends itself, not its worker: whatever it
            // captured (result senders included) is dropped, and the
            // worker goes on to the next job.
            let run = AssertUnwindSafe(job.run);
            match metrics {
                Some(metrics) => {
                    // Jobs enqueued while detached carry no instant and
                    // report zero wait.
                    let waited = job.enqueued.map_or(0, |at| at.elapsed().as_micros() as u64);
                    metrics.observe("obs.pool.job.wait_us", waited);
                    let started = Instant::now();
                    let _ = catch_unwind(run);
                    metrics.observe("obs.pool.job.exec_us", started.elapsed().as_micros() as u64);
                }
                None => {
                    let _ = catch_unwind(run);
                }
            }
            shared.executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Enqueues one job on the default lane; the first idle worker picks
    /// it up.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.execute_in(LaneId(0), job);
    }

    /// Registers a new submission lane with the given fair-share `weight`
    /// (clamped to at least 1). Lanes live as long as the pool.
    pub fn lane(&self, weight: u64) -> LaneId {
        let mut state = self.shared.state();
        let pass = state.global_pass;
        state.lanes.push(LaneState {
            jobs: VecDeque::new(),
            weight: weight.max(1),
            paused: false,
            pass,
        });
        LaneId(state.lanes.len() - 1)
    }

    /// Enqueues one job on `lane`; workers pick it up according to the
    /// lane's weight and pause state.
    ///
    /// # Panics
    ///
    /// Panics if `lane` does not belong to this pool.
    pub fn execute_in(&self, lane: LaneId, job: impl FnOnce() + Send + 'static) {
        let queued = QueuedJob {
            run: Box::new(job),
            enqueued: self
                .shared
                .metrics_attached
                .load(Ordering::Acquire)
                .then(Instant::now),
        };
        let mut state = self.lock_lane(lane);
        let global_pass = state.global_pass;
        let slot = &mut state.lanes[lane.0];
        if slot.jobs.is_empty() {
            // Rejoin at the scheduler's current virtual time: an idle lane
            // must not replay the share it did not use.
            slot.pass = slot.pass.max(global_pass);
        }
        slot.jobs.push_back(queued);
        drop(state);
        self.shared.work_ready.notify_one();
    }

    /// Pauses or resumes `lane`. Queued jobs of a paused lane wait (workers
    /// skip the lane); jobs already running finish normally. Resuming wakes
    /// every idle worker.
    pub fn set_lane_paused(&self, lane: LaneId, paused: bool) {
        self.lock_lane(lane).lanes[lane.0].paused = paused;
        if !paused {
            self.shared.work_ready.notify_all();
        }
    }

    /// Changes `lane`'s fair-share weight (clamped to at least 1), taking
    /// effect from the next scheduling decision.
    pub fn set_lane_weight(&self, lane: LaneId, weight: u64) {
        self.lock_lane(lane).lanes[lane.0].weight = weight.max(1);
    }

    /// Drops every job still queued on `lane` (jobs already running
    /// finish), returning how many were discarded. Anything a dropped job
    /// captured — result senders included — is dropped with it, so
    /// collectors observing channel hang-up see the lane end cleanly.
    pub fn drain_lane(&self, lane: LaneId) -> usize {
        let mut state = self.lock_lane(lane);
        let jobs = &mut state.lanes[lane.0].jobs;
        let dropped = jobs.len();
        jobs.clear();
        dropped
    }

    /// Attaches (or with `None` detaches) a registry receiving per-job
    /// queue-wait and execution-time observations. Jobs already queued when
    /// the registry changes report to whichever registry is installed when
    /// a worker picks them up.
    pub fn set_metrics(&self, metrics: Option<Arc<MetricsRegistry>>) {
        let mut slot = self.shared.metrics();
        self.shared
            .metrics_attached
            .store(metrics.is_some(), Ordering::Release);
        *slot = metrics;
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs completed over the pool's lifetime.
    pub fn jobs_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.state().shutdown = true;
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            // Workers catch their jobs' panics, so a worker that died
            // anyway has nothing left to report, and a destructor must not
            // panic.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    impl WorkerPool {
        /// Lanes registered on this pool, the default lane included.
        pub(crate) fn lane_count(&self) -> usize {
            self.shared.state().lanes.len()
        }
    }

    #[test]
    fn lpt_fanout_preserves_input_order_at_every_worker_count() {
        let items: Vec<(u64, usize)> = (0..13).map(|i| ((13 - i) as u64, i)).collect();
        let expected: Vec<usize> = (0..13).map(|i| i * 3).collect();
        for workers in [1usize, 2, 4, 16] {
            let got = lpt_fanout(items.clone(), workers, |i| i * 3);
            assert_eq!(got, expected, "{workers} workers");
        }
        assert!(lpt_fanout::<usize, usize, _>(vec![], 4, |i| i).is_empty());
    }

    #[test]
    fn pool_executes_every_job_before_dropping() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u64 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        drop(pool);
    }

    #[test]
    fn pool_survives_multiple_submission_rounds() {
        // The persistent pool is reused across runs: same workers, more jobs.
        let pool = WorkerPool::new(2);
        for round in 0..3 {
            let (tx, rx) = mpsc::sync_channel(4);
            for i in 0..10u64 {
                let tx = tx.clone();
                pool.execute(move || tx.send(i).unwrap());
            }
            drop(tx);
            assert_eq!(rx.iter().sum::<u64>(), 45, "round {round}");
        }
        // A job's sender drops when the job returns, just before the worker
        // counts it: the last count can trail the last receive briefly.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while pool.jobs_executed() < 30 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.jobs_executed(), 30);
    }

    #[test]
    fn panicking_jobs_leave_every_worker_serving() {
        for threads in [1usize, 2] {
            let pool = WorkerPool::new(threads);
            // One panicking job per worker, then a normal one: it runs only
            // if the workers outlive their panics.
            for _ in 0..threads {
                pool.execute(|| panic!("injected job panic"));
            }
            let (tx, rx) = mpsc::channel();
            pool.execute(move || tx.send(7u64).unwrap());
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_secs(10)),
                Ok(7),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_foreign_lane_panics_without_poisoning_the_pool() {
        let pool = WorkerPool::new(2);
        let foreign = LaneId(5);
        for name in [
            "execute_in",
            "set_lane_paused",
            "set_lane_weight",
            "drain_lane",
        ] {
            let caught = catch_unwind(AssertUnwindSafe(|| match name {
                "execute_in" => pool.execute_in(foreign, || {}),
                "set_lane_paused" => pool.set_lane_paused(foreign, true),
                "set_lane_weight" => pool.set_lane_weight(foreign, 2),
                _ => drop(pool.drain_lane(foreign)),
            }));
            assert!(
                caught.is_err(),
                "{name} accepted a lane the pool does not have"
            );
            // The default lane still serves: the panic left the lock usable.
            let (tx, rx) = mpsc::channel();
            pool.execute(move || tx.send(name).unwrap());
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_secs(10)),
                Ok(name)
            );
        }
        assert!(catch_unwind(AssertUnwindSafe(move || drop(pool))).is_ok());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn lanes_share_workers_by_weight() {
        // One worker, jobs that record their lane: with weights 3:1 the
        // heavy lane's jobs are picked ~3x as often while both are backed
        // up. Queue everything against a gate first so the scheduler sees
        // both lanes non-empty from the first pull.
        let pool = WorkerPool::new(1);
        let heavy = pool.lane(3);
        let light = pool.lane(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        let (tx, rx) = mpsc::channel();
        for _ in 0..12 {
            let tx = tx.clone();
            pool.execute_in(heavy, move || tx.send("heavy").unwrap());
        }
        for _ in 0..12 {
            let tx = tx.clone();
            pool.execute_in(light, move || tx.send("light").unwrap());
        }
        drop(tx);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let order: Vec<&str> = rx.iter().collect();
        assert_eq!(order.len(), 24, "every job ran");
        // In the first 8 scheduled jobs, the weight-3 lane must dominate.
        let heavy_early = order[..8].iter().filter(|&&l| l == "heavy").count();
        assert!(
            heavy_early >= 5,
            "weight-3 lane got only {heavy_early}/8 early slots: {order:?}"
        );
    }

    #[test]
    fn paused_lane_waits_and_resumes_without_losing_jobs() {
        let pool = WorkerPool::new(2);
        let lane = pool.lane(1);
        pool.set_lane_paused(lane, true);
        let (tx, rx) = mpsc::channel();
        for i in 0..6u64 {
            let tx = tx.clone();
            pool.execute_in(lane, move || tx.send(i).unwrap());
        }
        drop(tx);
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(50))
                .is_err(),
            "paused jobs stay queued"
        );
        pool.set_lane_paused(lane, false);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "nothing lost on resume");
    }

    #[test]
    fn drain_lane_drops_queued_jobs_and_their_senders() {
        let pool = WorkerPool::new(1);
        let lane = pool.lane(1);
        pool.set_lane_paused(lane, true);
        let (tx, rx) = mpsc::channel::<u64>();
        for i in 0..5u64 {
            let tx = tx.clone();
            pool.execute_in(lane, move || tx.send(i).unwrap());
        }
        drop(tx);
        assert_eq!(pool.drain_lane(lane), 5);
        assert_eq!(pool.drain_lane(lane), 0, "the first drain left nothing");
        // Every sender clone died with its job: the channel reports
        // disconnect instead of hanging.
        assert!(rx.iter().next().is_none(), "drained lane sends nothing");
        pool.set_lane_paused(lane, false);
    }

    #[test]
    fn dropping_the_pool_runs_paused_lanes_too() {
        let pool = WorkerPool::new(1);
        let lane = pool.lane(1);
        pool.set_lane_paused(lane, true);
        let (tx, rx) = mpsc::channel();
        for i in 0..3u64 {
            let tx = tx.clone();
            pool.execute_in(lane, move || tx.send(i).unwrap());
        }
        drop(tx);
        drop(pool);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "shutdown strands nothing");
    }

    #[test]
    fn a_pool_with_poisoned_locks_keeps_serving() {
        let pool = WorkerPool::new(2);
        std::thread::scope(|scope| {
            let state = scope.spawn(|| {
                let _guard = pool.shared.state.lock();
                panic!("poisoning the pool state on purpose");
            });
            assert!(state.join().is_err());
            let metrics = scope.spawn(|| {
                let _guard = pool.shared.metrics.lock();
                panic!("poisoning the metrics slot on purpose");
            });
            assert!(metrics.join().is_err());
        });
        assert!(pool.shared.state.is_poisoned() && pool.shared.metrics.is_poisoned());

        let metrics = MetricsRegistry::new();
        pool.set_metrics(Some(Arc::clone(&metrics)));
        let lane = pool.lane(2);
        pool.set_lane_paused(lane, true);
        let (tx, rx) = mpsc::channel();
        for i in 0..8u64 {
            let tx = tx.clone();
            pool.execute_in(lane, move || tx.send(i).unwrap());
        }
        drop(tx);
        assert!(
            rx.recv_timeout(std::time::Duration::from_millis(20))
                .is_err(),
            "paused jobs stay queued"
        );
        pool.set_lane_weight(lane, 3);
        pool.set_lane_paused(lane, false);
        let mut seen: Vec<u64> = rx.iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        drop(pool);
        assert_eq!(metrics.histogram("obs.pool.job.exec_us").unwrap().count, 8);
    }

    #[test]
    fn dropping_a_pool_whose_worker_died_does_not_panic() {
        let mut pool = WorkerPool::new(1);
        pool.workers
            .push(std::thread::spawn(|| panic!("a worker dying on purpose")));
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
        drop(pool);
    }

    #[test]
    fn attached_metrics_observe_wait_and_exec_per_job() {
        let pool = WorkerPool::new(2);
        let metrics = MetricsRegistry::new();
        pool.set_metrics(Some(Arc::clone(&metrics)));
        let (tx, rx) = mpsc::channel();
        for i in 0..20u64 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 20);

        // Detached: further jobs leave the registry untouched.
        pool.set_metrics(None);
        let (tx, rx) = mpsc::channel::<u64>();
        for _ in 0..5 {
            let tx = tx.clone();
            pool.execute(move || tx.send(1).unwrap());
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 5);

        // Joining the workers guarantees every observation landed.
        drop(pool);
        assert_eq!(metrics.histogram("obs.pool.job.wait_us").unwrap().count, 20);
        assert_eq!(metrics.histogram("obs.pool.job.exec_us").unwrap().count, 20);
    }
}
