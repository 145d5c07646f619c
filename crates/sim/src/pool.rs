//! The persistent worker pool fleet and floor serving run on.
//!
//! Host threads carry one shape of parallelism: many devices at once. One
//! device runs on one thread, and the paper's concurrency (cores tested at
//! once on disjoint CAS wire windows) lives in the schedule's cycle
//! arithmetic. [`WorkerPool`]'s long-lived workers pull whole jobs from
//! shared injector queues, so a thousand-device run spawns its threads
//! exactly once. Jobs must be `'static` (they outlive the submitting
//! call); results stream back over whatever channel the job captured. Jobs
//! land in weighted-fair [`LaneId`] lanes: the test floor gives each lot
//! one lane whose weight is the lot priority, and its admission controller
//! pauses or drains a lane without touching co-tenant lanes. The pool only
//! schedules: it neither times nor counts its jobs, so a
//! [`FleetMonitor`](crate::FleetMonitor) times them inside the job.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Virtual-time quantum for the stride scheduler: a lane of weight `w`
/// advances its pass by `STRIDE_SCALE / w` per job, so over time lanes
/// receive worker pulls proportionally to their weights.
const STRIDE_SCALE: u64 = 1 << 20;

/// Workers a pool of `threads` spawns: `0` means one per hardware thread.
pub(crate) fn worker_count(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// A job the pool executes: owns everything it touches.
type Job = Box<dyn FnOnce() + Send + 'static>;

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
    jobs: VecDeque<Job>,
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
    fn next_job(&mut self) -> Option<Job> {
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
}

impl PoolShared {
    /// Locks the scheduling state. A poisoned lock is recovered: nothing
    /// panics while holding it (`lock_lane` releases it before its panic),
    /// and every update leaves the queues and passes consistent.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` long-lived workers (`0` means one per
    /// available hardware thread).
    pub fn new(threads: usize) -> Self {
        let threads = worker_count(threads);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState::new()),
            work_ready: Condvar::new(),
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
            // A panicking job ends itself, not its worker: whatever it
            // captured (result senders included) is dropped, and the
            // worker goes on to the next job.
            let _ = catch_unwind(AssertUnwindSafe(job));
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
        let job: Job = Box::new(job);
        let mut state = self.lock_lane(lane);
        let global_pass = state.global_pass;
        let slot = &mut state.lanes[lane.0];
        if slot.jobs.is_empty() {
            // Rejoin at the scheduler's current virtual time: an idle lane
            // must not replay the share it did not use.
            slot.pass = slot.pass.max(global_pass);
        }
        slot.jobs.push_back(job);
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

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
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
        });
        assert!(pool.shared.state.is_poisoned());

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
}
