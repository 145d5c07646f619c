//! Yield-driven admission control for the multi-tenant test floor.
//!
//! A real test floor does not let one collapsing lot burn tester time that
//! healthier lots could use: operators watch in-flight yield and
//! quarantine the lot. This module is that operator, automated: an
//! [`AdmissionController`] judges each lot's [`LotTracker`] on a fixed
//! cadence, on the thread that collects the floor's reports, and applies
//! an [`AdmissionPolicy`].
//! When a lot's *rolling* yield (pass fraction over the last
//! [`window`](AdmissionPolicy::window) completions) drops below
//! [`yield_floor`](AdmissionPolicy::yield_floor) after at least
//! [`min_completed`](AdmissionPolicy::min_completed) devices, the lot's pool
//! lane is paused for a quarantine interval
//! ([`pause_for`](AdmissionPolicy::pause_for)), then resumes.
//!
//! Every intervention is recorded as an [`AdmissionEvent`] on the lot's
//! [`LotReport`](crate::floor::LotReport). Interventions only reshape
//! *scheduling* — which lane the workers pop next — never what a device
//! computes, so per-lot reports remain bit-identical to standalone
//! [`FleetRunner`](crate::FleetRunner) runs (pinned by
//! `tests/floor_differential.rs`).
//!
//! The decision itself ([`AdmissionPolicy::decide`]) is a pure function of
//! `(completed, rolling_yield)`, unit-testable without a floor.

use std::fmt;
use std::time::{Duration, Instant};

use crate::monitor::LotTracker;
use crate::pool::{LaneId, WorkerPool};

/// Tuning for the floor's admission controller.
///
/// The default policy never intervenes ([`yield_floor`](Self::yield_floor)
/// `= 0.0` matches no lot), so a floor under it never judges its lots.
/// Turn enforcement on by setting a floor:
///
/// ```
/// use casbus_sim::AdmissionPolicy;
///
/// let policy = AdmissionPolicy::default()
///     .with_yield_floor(0.25)
///     .with_min_completed(8);
/// assert!(policy.decide(16, 0.1));
/// assert!(!policy.decide(4, 0.1), "too early to judge");
/// assert!(!policy.decide(16, 0.5), "yield above the floor");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Judgement period: how often each lot is judged while a yield floor
    /// is set; past the clock's range, never.
    pub interval: Duration,
    /// Rolling-yield window, in completions (clamped to at least 1).
    pub window: usize,
    /// Completions a lot must reach before it can be judged — protects
    /// young lots from a noisy first handful of dies.
    pub min_completed: u64,
    /// Rolling yield strictly below this pauses the lot; `0.0` (the
    /// default) never does.
    pub yield_floor: f64,
    /// Quarantine length of a paused lot — the lane resumes automatically
    /// afterwards, so floor runs always terminate.
    pub pause_for: Duration,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(10),
            window: 32,
            min_completed: 16,
            yield_floor: 0.0,
            pause_for: Duration::from_millis(25),
        }
    }
}

impl AdmissionPolicy {
    /// Sets the judgement period.
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
    /// (clamped to `[0, 1]`) pauses the lot.
    #[must_use]
    pub fn with_yield_floor(mut self, floor: f64) -> Self {
        self.yield_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Sets the quarantine length of a paused lot.
    #[must_use]
    pub fn with_pause_for(mut self, pause_for: Duration) -> Self {
        self.pause_for = pause_for;
        self
    }

    /// The collapse verdict for one lot — a pure function of the lot's
    /// completion count and rolling yield. `true` pauses the lot; `false`
    /// lets it keep its slots.
    pub fn decide(&self, completed: u64, rolling_yield: f64) -> bool {
        self.yield_floor > 0.0
            && completed >= self.min_completed
            && rolling_yield < self.yield_floor
    }
}

/// What the admission controller did to a lot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionAction {
    /// The lot's lane was paused (yield collapse, quarantine begins).
    Paused,
    /// The quarantine expired and the lane resumed.
    Resumed,
}

impl fmt::Display for AdmissionAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionAction::Paused => write!(f, "paused"),
            AdmissionAction::Resumed => write!(f, "resumed"),
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
}

/// Applies an [`AdmissionPolicy`] to the lots of one floor run.
///
/// Owned and driven by [`TestFloor`](crate::floor::TestFloor): while the
/// policy sets a yield floor, the thread that collects a run's reports
/// calls `tick` between them every
/// [`interval`](AdmissionPolicy::interval), which judges every lot and
/// pauses a collapsing lot at most once per run (a paused lot resumes
/// automatically when its quarantine expires). All state lives here; the
/// floor reads back what happened through the returned
/// [`AdmissionEvent`]s.
pub struct AdmissionController {
    policy: AdmissionPolicy,
    started: Instant,
    lots: Vec<LotControl>,
}

#[derive(Default)]
struct LotControl {
    /// When the current quarantine began; `None` when not paused.
    paused_since: Option<Instant>,
    /// The lot was paused this run.
    acted: bool,
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

    /// Judges every lot once and applies the policy through `pool`,
    /// returning the interventions made this tick.
    pub(crate) fn tick(&mut self, pool: &WorkerPool, lots: &[LotLive<'_>]) -> Vec<AdmissionEvent> {
        let mut events = Vec::new();
        for (idx, lot) in lots.iter().enumerate() {
            let control = &mut self.lots[idx];
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
            if !self.policy.decide(completed, rolling) {
                continue;
            }
            control.acted = true;
            pool.set_lane_paused(lot.lane, true);
            control.paused_since = Some(Instant::now());
            events.push(Self::event(self.started, idx, lot, AdmissionAction::Paused));
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
    use crate::monitor::LotTracker;
    use crate::report::SocTestReport;
    use casbus_tpg::Verdict;

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
            .with_yield_floor(0.5)
            .with_min_completed(10);
        assert!(policy.decide(10, 0.2));
        assert!(!policy.decide(9, 0.2), "too few completions");
        assert!(!policy.decide(10, 0.5), "at the floor is not below");
        let unarmed = AdmissionPolicy::default();
        assert!(!unarmed.decide(1000, 0.0), "default never triggers");
    }

    #[test]
    fn collapse_pauses_then_resumes_after_quarantine() {
        let policy = AdmissionPolicy::default()
            .with_yield_floor(0.9)
            .with_min_completed(4)
            .with_pause_for(Duration::from_millis(1));
        let pool = WorkerPool::new(1);
        let lane = pool.lane(2);
        let tracker = LotTracker::new(16, 8);
        record_n(&tracker, 0, 4, false);
        let lots = [LotLive {
            name: "hot",
            lane,
            tracker: &tracker,
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
    }
}
