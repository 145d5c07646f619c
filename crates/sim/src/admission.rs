//! Yield-driven admission control for the multi-tenant test floor.
//!
//! A real test floor does not let one collapsing lot burn tester time that
//! healthier lots could use: operators watch in-flight yield and intervene —
//! quarantine the lot or kick it off the floor. This module is that
//! operator, automated: an [`AdmissionController`] samples each lot's
//! [`LotTracker`] on a fixed cadence, on the thread that collects the
//! floor's reports, and applies an [`AdmissionPolicy`].
//! When a lot's *rolling* yield (pass fraction over the last
//! [`window`](AdmissionPolicy::window) completions) drops below
//! [`yield_floor`](AdmissionPolicy::yield_floor) after at least
//! [`min_completed`](AdmissionPolicy::min_completed) devices, the lot's pool
//! lane is paused for a quarantine interval ([`CollapseAction::Pause`]) or
//! drained outright ([`CollapseAction::Abort`]).
//!
//! Every intervention is recorded as an [`AdmissionEvent`] on the lot's
//! [`LotReport`](crate::floor::LotReport). Interventions only reshape
//! *scheduling* — which lane the workers pop next — never what a device
//! computes, so per-lot reports remain bit-identical to standalone
//! [`FleetRunner`](crate::FleetRunner) runs (pinned by
//! `tests/floor_differential.rs`). The one exception is [`Abort`]: an
//! aborted lot keeps the reports already collected and drops the rest.
//!
//! [`Abort`]: CollapseAction::Abort
//!
//! The decision itself ([`AdmissionPolicy::decide`]) is a pure function of
//! `(completed, rolling_yield)`, unit-testable without a floor.

use std::fmt;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::floor::LotQueue;
use crate::monitor::LotTracker;
use crate::pool::{LaneId, WorkerPool};

/// What to do with a lot whose rolling yield collapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseAction {
    /// Pause the lot's lane for [`AdmissionPolicy::pause_for`], then let it
    /// resume (one quarantine per lot per run). Workers it would have used
    /// serve the co-tenant lots meanwhile.
    Pause,
    /// Drain the lot's lane: queued devices are dropped (in-flight jobs
    /// finish), the lot's report keeps only what completed, and its
    /// [`LotStatus`](crate::floor::LotStatus) becomes `Aborted`.
    Abort,
}

impl fmt::Display for CollapseAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollapseAction::Pause => write!(f, "pause"),
            CollapseAction::Abort => write!(f, "abort"),
        }
    }
}

/// Tuning for the floor's admission controller.
///
/// The default policy never intervenes ([`yield_floor`](Self::yield_floor)
/// `= 0.0` matches no lot) — the controller then only streams per-lot
/// snapshots. Turn enforcement on by setting a floor:
///
/// ```
/// use casbus_sim::{AdmissionPolicy, CollapseAction};
///
/// let policy = AdmissionPolicy::default()
///     .with_yield_floor(0.25, CollapseAction::Pause)
///     .with_min_completed(8);
/// assert_eq!(policy.decide(16, 0.1), Some(CollapseAction::Pause));
/// assert_eq!(policy.decide(4, 0.1), None, "too early to judge");
/// assert_eq!(policy.decide(16, 0.5), None, "yield above the floor");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Sampling cadence: how often each lot is snapshotted and judged;
    /// past the clock's range, never (each lot gets only its `last` one).
    pub interval: Duration,
    /// Rolling-yield window, in completions (clamped to at least 1).
    pub window: usize,
    /// Completions a lot must reach before it can be judged — protects
    /// young lots from a noisy first handful of dies.
    pub min_completed: u64,
    /// Rolling yield strictly below this triggers the collapse action;
    /// `0.0` (the default) never triggers.
    pub yield_floor: f64,
    /// What a collapse does to the lot.
    pub collapse: CollapseAction,
    /// Quarantine length for [`CollapseAction::Pause`] — the lane resumes
    /// automatically afterwards, so floor runs always terminate.
    pub pause_for: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(10),
            window: 32,
            min_completed: 16,
            yield_floor: 0.0,
            collapse: CollapseAction::Pause,
            pause_for: Duration::from_millis(25),
        }
    }
}

impl AdmissionPolicy {
    /// Sets the sampling cadence.
    #[must_use]
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the rolling-yield window (completions).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the minimum completions before a lot can be judged.
    #[must_use]
    pub fn with_min_completed(mut self, min_completed: u64) -> Self {
        self.min_completed = min_completed;
        self
    }

    /// Arms collapse enforcement: rolling yield strictly below `floor`
    /// (clamped to `[0, 1]`) triggers `action`.
    #[must_use]
    pub fn with_yield_floor(mut self, floor: f64, action: CollapseAction) -> Self {
        self.yield_floor = floor.clamp(0.0, 1.0);
        self.collapse = action;
        self
    }

    /// Sets the quarantine length for [`CollapseAction::Pause`].
    #[must_use]
    pub fn with_pause_for(mut self, pause_for: Duration) -> Self {
        self.pause_for = pause_for;
        self
    }

    /// The collapse verdict for one lot — a pure function of the lot's
    /// completion count and rolling yield. `None` means the lot may keep
    /// its slots.
    pub fn decide(&self, completed: u64, rolling_yield: f64) -> Option<CollapseAction> {
        (self.yield_floor > 0.0
            && completed >= self.min_completed
            && rolling_yield < self.yield_floor)
            .then_some(self.collapse)
    }
}

/// What the admission controller did to a lot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionAction {
    /// The lot's lane was paused (yield collapse, quarantine begins).
    Paused,
    /// The quarantine expired and the lane resumed.
    Resumed,
    /// The lot's lane was drained; the `dropped` dies of its queued jobs
    /// were discarded.
    Aborted {
        /// Dies in the queued (not yet running) pool jobs the drain
        /// discarded: one per job on a scalar lot, up to 64 per job on a
        /// packed one.
        dropped: u64,
    },
}

impl fmt::Display for AdmissionAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionAction::Paused => write!(f, "paused"),
            AdmissionAction::Resumed => write!(f, "resumed"),
            AdmissionAction::Aborted { dropped } => {
                write!(f, "aborted ({dropped} queued devices dropped)")
            }
        }
    }
}

/// One admission intervention, recorded on the lot's
/// [`LotReport`](crate::floor::LotReport).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionEvent {
    /// Index of the lot on the floor (order of submission).
    pub lot: usize,
    /// The lot's name.
    pub lot_name: String,
    /// Wall-clock microseconds since the controller started.
    pub elapsed_us: u64,
    /// What was done.
    pub action: AdmissionAction,
    /// The lot's completions when the action fired.
    pub completed: u64,
    /// The lot's rolling yield when the action fired.
    pub rolling_yield: f64,
}

impl fmt::Display for AdmissionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>7.3}s] lot {} ({}): {} at {} completed, rolling yield {:.2}",
            self.elapsed_us as f64 / 1e6,
            self.lot,
            self.lot_name,
            self.action,
            self.completed,
            self.rolling_yield,
        )
    }
}

/// The admission controller's live view of one floor lot.
pub(crate) struct LotLive<'a> {
    /// The lot's name (for events).
    pub(crate) name: &'a str,
    /// The lot's pool lane.
    pub(crate) lane: LaneId,
    /// The lot's progress tracker, fed by the floor's collector.
    pub(crate) tracker: &'a LotTracker,
    /// The lot's dies in queued and dropped jobs.
    pub(crate) queue: &'a LotQueue,
}

/// Applies an [`AdmissionPolicy`] to the lots of one floor run.
///
/// Owned and driven by [`TestFloor`](crate::floor::TestFloor): the thread
/// that collects a run's reports calls `tick` between them every
/// [`interval`](AdmissionPolicy::interval), which judges every lot and
/// applies at most one collapse action per lot per run (a paused lot
/// resumes automatically when its quarantine expires). All state lives
/// here; the floor reads back what happened through the returned
/// [`AdmissionEvent`]s and the per-lot abort flags.
pub struct AdmissionController {
    policy: AdmissionPolicy,
    started: Instant,
    lots: Vec<LotControl>,
}

#[derive(Default)]
struct LotControl {
    /// When the current quarantine began; `None` when not paused.
    paused_since: Option<Instant>,
    /// The collapse action already fired for this lot.
    acted: bool,
    /// The lot was aborted (lane drained).
    aborted: bool,
}

impl AdmissionController {
    /// A controller for `lots` lots under `policy`.
    pub(crate) fn new(policy: AdmissionPolicy, lots: usize) -> Self {
        Self {
            policy,
            started: Instant::now(),
            lots: (0..lots).map(|_| LotControl::default()).collect(),
        }
    }

    /// Whether lot `lot` was aborted by this controller.
    pub(crate) fn aborted(&self, lot: usize) -> bool {
        self.lots[lot].aborted
    }

    /// Judges every lot once and applies the policy through `pool`,
    /// returning the interventions made this tick.
    pub(crate) fn tick(&mut self, pool: &WorkerPool, lots: &[LotLive<'_>]) -> Vec<AdmissionEvent> {
        let mut events = Vec::new();
        for (idx, lot) in lots.iter().enumerate() {
            let control = &mut self.lots[idx];
            if control.aborted {
                continue;
            }
            if let Some(since) = control.paused_since {
                // A quarantined lot is not re-judged; it only waits out its
                // pause, then rejoins at the scheduler's virtual "now".
                if since.elapsed() >= self.policy.pause_for {
                    pool.set_lane_paused(lot.lane, false);
                    control.paused_since = None;
                    events.push(Self::event(
                        self.started,
                        idx,
                        lot,
                        AdmissionAction::Resumed,
                    ));
                }
                continue;
            }
            if control.acted || lot.tracker.remaining() == 0 {
                continue;
            }
            let completed = lot.tracker.completed();
            let rolling = lot.tracker.rolling_yield();
            let Some(action) = self.policy.decide(completed, rolling) else {
                continue;
            };
            control.acted = true;
            let action = match action {
                CollapseAction::Pause => {
                    pool.set_lane_paused(lot.lane, true);
                    control.paused_since = Some(Instant::now());
                    AdmissionAction::Paused
                }
                CollapseAction::Abort => {
                    let dropped = || lot.queue.dropped.load(Ordering::Relaxed);
                    let before = dropped();
                    pool.drain_lane(lot.lane);
                    control.aborted = true;
                    AdmissionAction::Aborted {
                        dropped: dropped() - before,
                    }
                }
            };
            events.push(Self::event(self.started, idx, lot, action));
        }
        events
    }

    fn event(
        started: Instant,
        idx: usize,
        lot: &LotLive<'_>,
        action: AdmissionAction,
    ) -> AdmissionEvent {
        AdmissionEvent {
            lot: idx,
            lot_name: lot.name.to_owned(),
            elapsed_us: started.elapsed().as_micros() as u64,
            action,
            completed: lot.tracker.completed(),
            rolling_yield: lot.tracker.rolling_yield(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::DeviceReport;
    use crate::floor::QueuedDies;
    use crate::monitor::LotTracker;
    use crate::report::SocTestReport;
    use casbus_tpg::Verdict;
    use std::sync::Arc;

    fn synthetic_report(device_id: u64, pass: bool) -> DeviceReport {
        DeviceReport {
            device_id,
            fault: None,
            report: SocTestReport {
                verdicts: vec![(
                    "core".to_owned(),
                    if pass {
                        Verdict::Pass
                    } else {
                        Verdict::Fail { mismatches: 1 }
                    },
                )],
                total_cycles: 10,
                steps: 1,
                per_core_cycles: Vec::new(),
                bus_cycles: 5,
                signatures: Vec::new(),
            },
        }
    }

    fn record_n(tracker: &LotTracker, from: u64, n: u64, pass: bool) {
        for id in from..from + n {
            tracker.record(&synthetic_report(id, pass));
        }
    }

    #[test]
    fn decide_is_gated_on_floor_min_completed_and_yield() {
        let policy = AdmissionPolicy::default()
            .with_yield_floor(0.5, CollapseAction::Abort)
            .with_min_completed(10);
        assert_eq!(policy.decide(10, 0.2), Some(CollapseAction::Abort));
        assert_eq!(policy.decide(9, 0.2), None, "too few completions");
        assert_eq!(policy.decide(10, 0.5), None, "at the floor is not below");
        let unarmed = AdmissionPolicy::default();
        assert_eq!(unarmed.decide(1000, 0.0), None, "default never triggers");
    }

    #[test]
    fn collapse_pauses_then_resumes_after_quarantine() {
        let policy = AdmissionPolicy::default()
            .with_yield_floor(0.9, CollapseAction::Pause)
            .with_min_completed(4)
            .with_pause_for(Duration::from_millis(1));
        let pool = WorkerPool::new(1);
        let lane = pool.lane(2);
        let tracker = LotTracker::new(16, 8);
        record_n(&tracker, 0, 4, false);
        let queue = LotQueue::default();
        let lots = [LotLive {
            name: "hot",
            lane,
            tracker: &tracker,
            queue: &queue,
        }];
        let mut controller = AdmissionController::new(policy, 1);

        let events = controller.tick(&pool, &lots);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, AdmissionAction::Paused);
        assert_eq!(events[0].completed, 4);
        assert!(events[0].rolling_yield < 1e-12);

        // Wait out the quarantine: the next tick resumes the lane.
        std::thread::sleep(Duration::from_millis(2));
        let events = controller.tick(&pool, &lots);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, AdmissionAction::Resumed);

        // One quarantine per lot per run.
        assert!(controller.tick(&pool, &lots).is_empty());
        assert!(!controller.aborted(0));
    }

    #[test]
    fn collapse_abort_drains_the_lane() {
        let policy = AdmissionPolicy::default()
            .with_yield_floor(0.9, CollapseAction::Abort)
            .with_min_completed(2);
        let pool = WorkerPool::new(1);
        // Gate the single worker so lane jobs stay queued.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            gate_rx.recv().ok();
        });
        let lane = pool.lane(1);
        // Three queued jobs of 64, 64 and 7 dies.
        let queue = Arc::new(LotQueue::default());
        queue.queued.store(135, Ordering::Relaxed);
        for dies in [64, 64, 7] {
            let queued = QueuedDies(Arc::clone(&queue), dies);
            pool.execute_in(lane, move || queued.start());
        }
        let tracker = LotTracker::new(16, 8);
        record_n(&tracker, 0, 2, false);
        let lots = [LotLive {
            name: "doomed",
            lane,
            tracker: &tracker,
            queue: &queue,
        }];
        let mut controller = AdmissionController::new(policy, 1);
        let events = controller.tick(&pool, &lots);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, AdmissionAction::Aborted { dropped: 135 });
        let queued = queue.queued.load(Ordering::Relaxed);
        assert_eq!(queued, 135, "a dropped job never starts");
        assert!(controller.aborted(0));
        assert!(controller.tick(&pool, &lots).is_empty(), "abort is final");
        gate_tx.send(()).ok();
    }
}
