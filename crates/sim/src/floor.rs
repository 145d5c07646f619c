//! Multi-tenant test floor: heterogeneous lots sharing one worker fleet.
//!
//! A production test floor rarely serves one product at a time: several
//! *lots* — each its own SoC, compiled test program, device count, defect
//! profile, and priority — compete for the same bank of testers.
//! [`TestFloor`] reproduces that economics on top of the fleet layer:
//!
//! * every submitted [`LotSpec`] gets its own weighted lane on one shared
//!   [`WorkerPool`] (weight = lot priority, served
//!   by stride scheduling — see [`crate::pool`]),
//! * all lots' route compilations land in **one** shared
//!   [`RouteTableCache`] under one capacity budget
//!   ([`TestFloor::with_cache_capacity`]), so co-tenant pressure and
//!   eviction behave like a real shared tester,
//! * per-lot [`DeviceReport`]s stream back in completion order, per-lot
//!   [`FleetSnapshot`]s are sampled throughout the run, and an
//!   [`AdmissionController`]
//!   enforces the floor's [`AdmissionPolicy`] (yield-collapse quarantine /
//!   demotion / abort, starvation boosts),
//! * the run returns a [`FloorReport`]: one [`LotReport`] per lot plus
//!   merged metrics — lot metrics under `floor.lot.<name>.*`, floor-wide
//!   aggregates under `floor.*`.
//!
//! # Determinism
//!
//! Scheduling decides only *when* a device runs, never *what* it computes:
//! each device report is a pure function of `(spec, device_id, plan)`, and
//! packed cohorts are formed per lot from consecutive device ids exactly as
//! a standalone [`FleetRunner`](crate::FleetRunner) would form them. A
//! completed lot's sorted report list is therefore bit-identical to the
//! same lot run alone, at any thread count, under any admission policy
//! short of [`Abort`](crate::admission::CollapseAction::Abort) (pinned by
//! `tests/floor_differential.rs`). Wall-clock quantities (snapshots,
//! [`FloorReport::wall`]) are observational and excluded from the contract.
//!
//! # Example
//!
//! ```
//! use casbus_controller::schedule::packed_schedule;
//! use casbus_sim::{LotSpec, TestFloor, VariationSpec};
//! use casbus_soc::catalog;
//!
//! let scan = catalog::figure2a_scan_soc();
//! let bist = catalog::figure2b_bist_soc();
//! let floor = TestFloor::new().with_threads(2);
//! let report = floor.run(vec![
//!     LotSpec::new("scan", &scan, 4, packed_schedule(&scan, 4).unwrap(), 24,
//!                  VariationSpec::new(7, 0.25))?.with_priority(3),
//!     LotSpec::new("bist", &bist, 3, packed_schedule(&bist, 3).unwrap(), 16,
//!                  VariationSpec::perfect())?,
//! ])?;
//! assert_eq!(report.lots.len(), 2);
//! assert!(report.lots.iter().all(|lot| !lot.aborted()));
//! assert_eq!(report.lots[1].fleet.passed, 16, "healthy lot all passes");
//! # Ok::<(), casbus_sim::SimError>(())
//! ```

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use casbus::RouteTableCache;
use casbus_controller::{CompiledProgram, Schedule};
use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;

use crate::admission::{
    AdmissionAction, AdmissionController, AdmissionEvent, AdmissionPolicy, LotLive,
};
use crate::engine_packed::{PackedDeviceEngine, COHORT_LANES};
use crate::fleet::{plan_cohorts, publish_fleet_metrics, test_device};
use crate::fleet::{DeviceReport, FleetReport, VariationSpec};
use crate::monitor::{FleetSnapshot, LotTracker};
use crate::pool::{LaneId, WorkerPool};
use crate::session::SessionCache;
use crate::simulator::SimError;

/// One lot submitted to the floor: a compiled test program, a device
/// count, a defect profile, and a scheduling priority.
///
/// Lot names label per-lot metrics (`floor.lot.<name>.*`) and admission
/// events; give each lot of a run a distinct name or their metrics merge.
pub struct LotSpec {
    name: String,
    soc: Arc<SocDescription>,
    plan: Arc<CompiledProgram>,
    devices: u64,
    variation: VariationSpec,
    priority: u64,
    packed: bool,
}

impl std::fmt::Debug for LotSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LotSpec")
            .field("name", &self.name)
            .field("soc", &self.soc.name())
            .field("devices", &self.devices)
            .field("priority", &self.priority)
            .field("packed", &self.packed)
            .finish_non_exhaustive()
    }
}

impl LotSpec {
    /// A lot of `devices` dies of `soc`, tested by `schedule` compiled for
    /// an `n`-wire bus, stamped by `variation`. Priority defaults to 1
    /// ([`with_priority`](Self::with_priority)), packed execution to on
    /// ([`with_packed`](Self::with_packed)).
    ///
    /// # Errors
    ///
    /// Propagates TAM/program compilation errors.
    pub fn new(
        name: impl Into<String>,
        soc: &SocDescription,
        n: usize,
        schedule: Schedule,
        devices: u64,
        variation: VariationSpec,
    ) -> Result<Self, SimError> {
        let plan = CompiledProgram::compile(soc, n, schedule)?;
        Ok(Self {
            name: name.into(),
            soc: Arc::new(soc.clone()),
            plan: Arc::new(plan),
            devices,
            variation,
            priority: 1,
            packed: true,
        })
    }

    /// Sets the lot's scheduling priority (clamped to at least 1): its
    /// lane's weight in the pool's weighted-fair scheduler. A priority-3
    /// lot is offered three worker slots for every one offered to a
    /// priority-1 co-tenant while both have work queued.
    #[must_use]
    pub fn with_priority(mut self, priority: u64) -> Self {
        self.priority = priority.max(1);
        self
    }

    /// Enables or disables packed cohort execution for this lot (on by
    /// default). Reports are bit-identical either way.
    #[must_use]
    pub fn with_packed(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// The lot's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Devices this lot brings to the floor.
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// The lot's scheduling priority.
    pub fn priority(&self) -> u64 {
        self.priority
    }

    /// The plan every device of this lot executes.
    pub fn plan(&self) -> &CompiledProgram {
        &self.plan
    }
}

/// How a lot left the floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LotStatus {
    /// Every requested device was tested.
    Completed,
    /// The admission controller drained the lot's lane; only the devices
    /// already completed are in the report.
    Aborted,
}

/// One lot's outcome on the floor.
#[derive(Debug, Clone)]
pub struct LotReport {
    /// The lot's name.
    pub name: String,
    /// The priority it was submitted with.
    pub priority: u64,
    /// Devices the lot asked to test.
    pub requested: u64,
    /// Whether the lot completed or was aborted.
    pub status: LotStatus,
    /// The lot's fleet outcome — devices sorted by id, bit-identical to a
    /// standalone run of the same lot when `status` is
    /// [`Completed`](LotStatus::Completed). `wall` is the whole floor
    /// run's wall clock (lots share it).
    pub fleet: FleetReport,
    /// Admission interventions applied to this lot, in order.
    pub events: Vec<AdmissionEvent>,
    /// Per-lot health snapshots sampled over the run (last one flagged
    /// `last = true`).
    pub snapshots: Vec<FleetSnapshot>,
}

impl LotReport {
    /// Whether the admission controller aborted this lot.
    pub fn aborted(&self) -> bool {
        self.status == LotStatus::Aborted
    }
}

/// Aggregate outcome of one floor run.
#[derive(Debug, Clone)]
pub struct FloorReport {
    /// Per-lot outcomes, in submission order.
    pub lots: Vec<LotReport>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl FloorReport {
    /// Devices requested across all lots.
    pub fn requested(&self) -> u64 {
        self.lots.iter().map(|lot| lot.requested).sum()
    }

    /// Devices actually tested across all lots.
    pub fn completed(&self) -> u64 {
        self.lots
            .iter()
            .map(|lot| lot.fleet.fleet_size() as u64)
            .sum()
    }

    /// Tested devices whose every core passed.
    pub fn passed(&self) -> u64 {
        self.lots.iter().map(|lot| lot.fleet.passed as u64).sum()
    }

    /// Tested devices with at least one failing core.
    pub fn failed(&self) -> u64 {
        self.completed() - self.passed()
    }

    /// Lots the admission controller aborted.
    pub fn aborted_lots(&self) -> usize {
        self.lots.iter().filter(|lot| lot.aborted()).count()
    }

    /// `passed / completed` across the floor (1.0 when nothing ran).
    pub fn yield_fraction(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            1.0
        } else {
            self.passed() as f64 / completed as f64
        }
    }

    /// Devices tested per wall-clock second, all lots together.
    pub fn devices_per_sec(&self) -> f64 {
        self.completed() as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

impl std::fmt::Display for FloorReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "floor: {} lots, {}/{} devices tested, yield {:.2}%, {:.1} devices/s, {} aborted",
            self.lots.len(),
            self.completed(),
            self.requested(),
            self.yield_fraction() * 100.0,
            self.devices_per_sec(),
            self.aborted_lots(),
        )?;
        for lot in &self.lots {
            write!(
                f,
                "  [{}] prio {} {:>9}: {}/{} tested, {} pass",
                lot.name,
                lot.priority,
                match lot.status {
                    LotStatus::Completed => "completed",
                    LotStatus::Aborted => "aborted",
                },
                lot.fleet.fleet_size(),
                lot.requested,
                lot.fleet.passed,
            )?;
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A lot prepared for execution: its lane, tracker, and packed engine.
struct LotRun {
    spec: LotSpec,
    lane: LaneId,
    tracker: LotTracker,
    engine: Option<Arc<PackedDeviceEngine>>,
}

/// Multi-tenant test server: many lots, one worker fleet, one cache
/// budget, one admission policy.
///
/// Construction is cheap; the pool spawns on first use and persists, so
/// consecutive [`run`](Self::run)s reuse warm workers and a warm route
/// cache. See the [module docs](self) for the full model and the
/// determinism contract.
pub struct TestFloor {
    pool: WorkerPool,
    cache: Arc<RouteTableCache>,
    /// Compiled sessions of every lot's cores, built by the first run that
    /// tests a core and kept, like the route cache, for later runs.
    sessions: Arc<SessionCache>,
    policy: AdmissionPolicy,
}

impl Default for TestFloor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TestFloor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestFloor")
            .field("threads", &self.pool.threads())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl TestFloor {
    /// A floor with one worker per available hardware thread, an unbounded
    /// shared route cache, and the default (non-intervening)
    /// [`AdmissionPolicy`].
    pub fn new() -> Self {
        Self {
            pool: WorkerPool::new(0),
            cache: Arc::new(RouteTableCache::new()),
            sessions: Arc::default(),
            policy: AdmissionPolicy::default(),
        }
    }

    /// Replaces the worker pool with one of `threads` workers (`0` means
    /// one per available hardware thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = WorkerPool::new(threads);
        self
    }

    /// Bounds the shared route cache to `capacity` tables (LRU eviction
    /// across **all** lots — the floor's single compilation budget).
    /// Replaces the cache, dropping anything already compiled.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = Arc::new(RouteTableCache::with_capacity(capacity));
        self
    }

    /// Installs the floor's admission policy.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The route cache all lots share.
    pub fn cache(&self) -> &Arc<RouteTableCache> {
        &self.cache
    }

    /// Worker threads serving the floor.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The floor's admission policy.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Runs every lot to completion (or abort) and reports per-lot
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Propagates lot compilation errors and the first device-level
    /// simulation error of any lot (healthy plans do not produce any).
    pub fn run(&self, lots: Vec<LotSpec>) -> Result<FloorReport, SimError> {
        self.run_with(lots, |_, _| {})
    }

    /// [`run`](Self::run), invoking `on_report(lot_index, report)` for
    /// every device report as it streams in — **completion order across
    /// lots**; use the returned per-lot
    /// [`FleetReport::devices`](crate::FleetReport) for sorted views.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with(
        &self,
        lots: Vec<LotSpec>,
        on_report: impl FnMut(usize, &DeviceReport),
    ) -> Result<FloorReport, SimError> {
        self.run_with_metrics(lots, &MetricsRegistry::new(), on_report)
    }

    /// [`run_with`](Self::run_with), also publishing metrics: each lot's
    /// full `fleet.*` set under `floor.lot.<name>.*` (route-cache counters
    /// therein reflect the **shared** floor cache) and floor-wide
    /// aggregates under `floor.*`.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_metrics(
        &self,
        lots: Vec<LotSpec>,
        metrics: &MetricsRegistry,
        mut on_report: impl FnMut(usize, &DeviceReport),
    ) -> Result<FloorReport, SimError> {
        let started = Instant::now();

        // Prepare every lot up front: lane, tracker, packed engine. Engine
        // compilation warms the shared cache exactly as a standalone
        // runner's first device would.
        let mut runs: Vec<LotRun> = Vec::with_capacity(lots.len());
        for spec in lots {
            let lane = self.pool.lane(spec.priority);
            let engine = if spec.packed && spec.devices > 0 {
                Some(Arc::new(PackedDeviceEngine::compile_with_sessions(
                    &spec.soc,
                    &spec.plan,
                    &self.cache,
                    Arc::clone(&self.sessions),
                )?))
            } else {
                None
            };
            let tracker = LotTracker::new(spec.devices, self.policy.window);
            runs.push(LotRun {
                spec,
                lane,
                tracker,
                engine,
            });
        }

        // One bounded result channel for the whole floor: a lagging
        // collector backpressures the workers, and batches carry their lot
        // index. Dispatch everything up front — queue pushes never block.
        let (tx, rx) = mpsc::sync_channel::<(usize, Result<Vec<DeviceReport>, SimError>)>(
            self.pool.threads().saturating_mul(2).max(1),
        );
        for (idx, run) in runs.iter().enumerate() {
            if let Some(engine) = &run.engine {
                for members in plan_cohorts(&run.spec.variation, &run.spec.soc, run.spec.devices) {
                    let engine = Arc::clone(engine);
                    let tx = tx.clone();
                    self.pool.execute_in(run.lane, move || {
                        // The receiver hangs up after a first error:
                        // discard late batches instead of panicking.
                        let _ = tx.send((idx, engine.run_cohort(members)));
                    });
                }
            } else {
                for device_id in 0..run.spec.devices {
                    let soc = Arc::clone(&run.spec.soc);
                    let plan = Arc::clone(&run.spec.plan);
                    let cache = Arc::clone(&self.cache);
                    let sessions = Arc::clone(&self.sessions);
                    let fault = run.spec.variation.fault_for(&run.spec.soc, device_id);
                    let tx = tx.clone();
                    self.pool.execute_in(run.lane, move || {
                        let outcome = test_device(&soc, &plan, &cache, &sessions, device_id, fault);
                        let _ = tx.send((idx, outcome.map(|report| vec![report])));
                    });
                }
            }
        }
        drop(tx);

        // Shared state between the collector (main thread) and the
        // admission thread.
        let stop = (Mutex::new(false), Condvar::new());
        let events: Mutex<Vec<AdmissionEvent>> = Mutex::new(Vec::new());
        let snapshot_log: Vec<Mutex<Vec<FleetSnapshot>>> =
            runs.iter().map(|_| Mutex::new(Vec::new())).collect();
        let aborted: Mutex<Vec<bool>> = Mutex::new(vec![false; runs.len()]);

        let (mut reports, error) = std::thread::scope(|scope| {
            scope.spawn(|| {
                let views: Vec<LotLive<'_>> = runs
                    .iter()
                    .map(|run| LotLive {
                        name: &run.spec.name,
                        lane: run.lane,
                        priority: run.spec.priority,
                        tracker: &run.tracker,
                    })
                    .collect();
                let mut controller = AdmissionController::new(self.policy, runs.len());
                loop {
                    let guard = stop.0.lock().expect("floor poisoned");
                    let (guard, _) = stop
                        .1
                        .wait_timeout_while(guard, self.policy.interval, |stopped| !*stopped)
                        .expect("floor poisoned");
                    let stopping = *guard;
                    drop(guard);
                    for (idx, run) in runs.iter().enumerate() {
                        // Queued devices still waiting in the lot's lane:
                        // packed lanes queue cohorts, so convert (the last
                        // cohort may be partial — clamp to what's owed).
                        let queued_jobs = self.pool.lane_queued(run.lane) as u64;
                        let queued = if run.engine.is_some() {
                            queued_jobs
                                .saturating_mul(COHORT_LANES as u64)
                                .min(run.tracker.remaining())
                        } else {
                            queued_jobs
                        };
                        let snapshot = run.tracker.snapshot(&self.cache, queued, stopping);
                        snapshot_log[idx]
                            .lock()
                            .expect("floor poisoned")
                            .push(snapshot);
                    }
                    if stopping {
                        let mut flags = aborted.lock().expect("floor poisoned");
                        for (idx, flag) in flags.iter_mut().enumerate() {
                            *flag = controller.aborted(idx);
                        }
                        break;
                    }
                    let ticked = controller.tick(&self.pool, &views);
                    if !ticked.is_empty() {
                        events.lock().expect("floor poisoned").extend(ticked);
                    }
                }
            });

            let mut reports: Vec<Vec<DeviceReport>> = runs
                .iter()
                .map(|run| Vec::with_capacity(run.spec.devices as usize))
                .collect();
            let mut error = None;
            for (idx, outcome) in rx.iter() {
                match outcome {
                    Ok(batch) => {
                        for report in batch {
                            runs[idx].tracker.record(&report);
                            on_report(idx, &report);
                            reports[idx].push(report);
                        }
                    }
                    Err(err) => {
                        error = Some(err);
                        break;
                    }
                }
            }
            if error.is_some() {
                // Flush what the floor still owes: queued jobs are dropped
                // (their sends fail against the hung-up receiver) and no
                // lane stays paused into the next run.
                for run in &runs {
                    self.pool.drain_lane(run.lane);
                }
            }
            for run in &runs {
                self.pool.set_lane_paused(run.lane, false);
            }
            *stop.0.lock().expect("floor poisoned") = true;
            stop.1.notify_all();
            (reports, error)
        });

        if let Some(err) = error {
            return Err(err);
        }
        let wall = started.elapsed();
        let aborted = aborted.into_inner().expect("floor poisoned");
        let mut events_by_lot: Vec<Vec<AdmissionEvent>> = runs.iter().map(|_| Vec::new()).collect();
        let all_events = events.into_inner().expect("floor poisoned");
        let mut action_counts = [0u64; 5];
        for event in all_events {
            action_counts[match event.action {
                AdmissionAction::Paused => 0,
                AdmissionAction::Resumed => 1,
                AdmissionAction::Demoted => 2,
                AdmissionAction::Aborted { .. } => 3,
                AdmissionAction::Boosted { .. } => 4,
            }] += 1;
            events_by_lot[event.lot].push(event);
        }

        let mut lot_reports = Vec::with_capacity(runs.len());
        for (idx, (run, mut devices)) in runs.into_iter().zip(reports.drain(..)).enumerate() {
            devices.sort_by_key(|d| d.device_id);
            let lot_metrics = MetricsRegistry::new();
            publish_fleet_metrics(
                &lot_metrics,
                run.spec.devices,
                &devices,
                self.pool.threads(),
                &self.cache,
                run.engine.as_deref(),
            );
            metrics.merge_from_prefixed(&lot_metrics, &format!("floor.lot.{}.", run.spec.name));
            let passed = devices.iter().filter(|d| d.passed()).count();
            let total_cycles: u64 = devices.iter().map(|d| d.report.total_cycles).sum();
            let wire_cycles: u64 = devices.iter().map(|d| d.report.bus_cycles).sum();
            let mut snapshots = snapshot_log[idx].lock().expect("floor poisoned");
            lot_reports.push(LotReport {
                name: run.spec.name.clone(),
                priority: run.spec.priority,
                requested: run.spec.devices,
                status: if aborted[idx] {
                    LotStatus::Aborted
                } else {
                    LotStatus::Completed
                },
                fleet: FleetReport {
                    devices,
                    passed,
                    total_cycles,
                    wire_cycles,
                    wall,
                },
                events: std::mem::take(&mut events_by_lot[idx]),
                snapshots: std::mem::take(&mut *snapshots),
            });
        }

        let report = FloorReport {
            lots: lot_reports,
            wall,
        };
        metrics.set("floor.lots", report.lots.len() as u64);
        metrics.set("floor.devices", report.requested());
        metrics.set("floor.completed", report.completed());
        metrics.set("floor.passed", report.passed());
        metrics.set("floor.failed", report.failed());
        metrics.set("floor.aborted.lots", report.aborted_lots() as u64);
        metrics.set("floor.threads", self.pool.threads() as u64);
        metrics.set(
            "floor.cycles.total",
            report.lots.iter().map(|l| l.fleet.total_cycles).sum(),
        );
        metrics.set(
            "floor.bus.wire_cycles",
            report.lots.iter().map(|l| l.fleet.wire_cycles).sum(),
        );
        for (name, count) in [
            ("floor.admission.paused", action_counts[0]),
            ("floor.admission.resumed", action_counts[1]),
            ("floor.admission.demoted", action_counts[2]),
            ("floor.admission.aborted", action_counts[3]),
            ("floor.admission.boosted", action_counts[4]),
        ] {
            metrics.set(name, count);
        }
        let stats = self.cache.stats();
        metrics.set("floor.route_cache.hits", stats.hits);
        metrics.set("floor.route_cache.misses", stats.misses);
        metrics.set("floor.route_cache.evictions", stats.evictions);
        metrics.set("floor.route_cache.shapes", stats.len as u64);
        metrics.set("floor.route_cache.high_water", stats.high_water);

        Ok(report)
    }
}
