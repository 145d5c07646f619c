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
//! * all lots share one [`RouteTableCache`] and one session cache, so
//!   each route shape and each core's compiled session is built once for
//!   every lot and every run of the floor,
//! * per-lot [`DeviceReport`]s stream back in completion order, and an
//!   [`AdmissionController`] enforces the floor's [`AdmissionPolicy`]
//!   (pause a lot whose rolling yield collapses), both on the thread that
//!   called the run: it ticks between reports, so a slow `on_report`
//!   delays the admission ticks too (a [`FleetMonitor`] gets its
//!   snapshots on the same ticks),
//! * the run returns a [`FloorReport`]: one [`LotReport`] per lot plus
//!   merged metrics — lot metrics under `floor.lot.<name>.*`, floor-wide
//!   aggregates under `floor.*`.
//!
//! # Determinism
//!
//! Scheduling decides only *when* a device runs, never *what* it computes:
//! each device report is a pure function of `(spec, device_id, plan)`, and
//! a packed lot's jobs are planned per lot
//! (`PackedDeviceEngine::plan_lot`) exactly as a standalone
//! [`FleetRunner`](crate::FleetRunner) would plan them. A
//! completed lot's sorted report list is therefore bit-identical to the
//! same lot run alone, at any thread count, under any admission policy
//! (pinned by `tests/floor_differential.rs`). Wall-clock quantities
//! (admission events, [`FloorReport::wall`]) are observational and
//! excluded from the contract.
//!
//! # Reporting by cohort
//!
//! A packed lot's jobs span the lot — a lane pass carries up to 64 dies
//! of one defective core from anywhere in it — but its reports leave in
//! consecutive 64-die cohorts: the collector holds each finished report
//! until every die of its cohort has reported, then records the cohort in
//! device order. So the [`LotTracker`], the admission controller's rolling
//! yield and `on_report` see the lot die by die in cohorts, as a tester
//! hands over its dies, whichever job computed them. A scalar
//! lot's reports leave as each device finishes.
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
//! assert_eq!(report.completed(), report.requested(), "every die tested");
//! assert_eq!(report.lots[1].fleet.passed, 16, "healthy lot all passes");
//! # Ok::<(), casbus_sim::SimError>(())
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use casbus::RouteTableCache;
use casbus_controller::{CompiledProgram, Schedule};
use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;

use crate::admission::{
    AdmissionAction, AdmissionController, AdmissionEvent, AdmissionPolicy, LotLive,
};
use crate::engine_packed::{cohort_of, Member, PackedDeviceEngine, COHORT_LANES};
use crate::fleet::{replay_device, test_device, DeviceReport, FleetReport, VariationSpec};
use crate::monitor::{DeviceDump, FleetMonitor, LotTracker};
use crate::pool::{worker_count, LaneId, WorkerPool};
use crate::session::SessionCache;
use crate::simulator::SimError;

/// One lot submitted to the floor: a compiled test program, a device
/// count, a defect profile, and a scheduling priority.
///
/// Lot names label per-lot metrics (`floor.lot.<name>.*`) and admission
/// events; give each lot of a run a distinct name or their metrics merge.
pub struct LotSpec {
    pub(crate) name: String,
    pub(crate) soc: Arc<SocDescription>,
    pub(crate) plan: Arc<CompiledProgram>,
    pub(crate) devices: u64,
    pub(crate) variation: VariationSpec,
    pub(crate) priority: u64,
    pub(crate) packed: bool,
    /// Test-only fault injection: the job that tests this device fails.
    #[cfg(test)]
    pub(crate) fail_on: Option<(u64, tests::Failure)>,
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
            #[cfg(test)]
            fail_on: None,
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

    /// Enables or disables packed execution for this lot (on by default):
    /// lane passes planned across the lot, reported in 64-die cohorts.
    /// Reports are bit-identical either way.
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

/// One lot's outcome on the floor.
#[derive(Debug, Clone)]
pub struct LotReport {
    /// The lot's name.
    pub name: String,
    /// The priority it was submitted with.
    pub priority: u64,
    /// Devices the lot asked to test.
    pub requested: u64,
    /// The lot's fleet outcome — devices sorted by id, bit-identical to a
    /// standalone run of the same lot. `wall` is the whole floor run's
    /// wall clock (lots share it).
    pub fleet: FleetReport,
    /// Admission interventions applied to this lot, in order.
    pub events: Vec<AdmissionEvent>,
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
            "floor: {} lots, {}/{} devices tested, yield {:.2}%, {:.1} devices/s",
            self.lots.len(),
            self.completed(),
            self.requested(),
            self.yield_fraction() * 100.0,
            self.devices_per_sec(),
        )?;
        for lot in &self.lots {
            writeln!(
                f,
                "  [{}] prio {}: {}/{} tested, {} pass",
                lot.name,
                lot.priority,
                lot.fleet.fleet_size(),
                lot.requested,
                lot.fleet.passed,
            )?;
        }
        Ok(())
    }
}

/// A lot ready to serve: its spec and its packed engine (`None` serves
/// every device on the scalar path).
pub(crate) struct Lot {
    pub(crate) spec: LotSpec,
    pub(crate) engine: Option<Arc<PackedDeviceEngine>>,
}

/// Multi-tenant test server: many lots, one worker fleet, one route
/// cache, one admission policy.
///
/// The pool spawns at the first [`run`](Self::run) and persists, so
/// consecutive runs reuse warm workers, a warm route cache, and the
/// same pool lanes. Runs of one floor are served one at a time: a
/// concurrent call waits for the running one. See the [module docs](self)
/// for the full model and the determinism contract.
pub struct TestFloor {
    /// Workers the pool spawns with.
    threads: usize,
    /// The worker pool, spawned by the first run.
    pool: OnceLock<WorkerPool>,
    cache: Arc<RouteTableCache>,
    /// The route cache a monitor's replays run on, apart from `cache`, so
    /// watching a lot moves none of the route-cache counters it publishes.
    replay_cache: Arc<RouteTableCache>,
    /// Compiled sessions of every lot's cores, built by the first run that
    /// tests a core and kept, like the route cache, for later runs.
    sessions: Arc<SessionCache>,
    policy: AdmissionPolicy,
    /// Pool lane of each lot slot: lot `i` of every run reuses lane `i`.
    /// Held for a whole run, so runs of one floor are served one at a time.
    lanes: Mutex<Vec<LaneId>>,
}

impl Default for TestFloor {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TestFloor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestFloor")
            .field("threads", &self.threads)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl TestFloor {
    /// A floor with one worker per available hardware thread, a shared
    /// route cache, and the default (non-intervening) [`AdmissionPolicy`].
    pub fn new() -> Self {
        Self {
            threads: worker_count(0),
            pool: OnceLock::new(),
            cache: Arc::new(RouteTableCache::new()),
            replay_cache: Arc::new(RouteTableCache::new()),
            sessions: Arc::default(),
            policy: AdmissionPolicy::default(),
            lanes: Mutex::default(),
        }
    }

    /// Sizes the worker pool at `threads` workers (`0` means one per
    /// available hardware thread). The pool spawns at the first run, so a
    /// floor resized before it runs spawns one pool.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = worker_count(threads);
        self.pool = OnceLock::new();
        self.lanes = Mutex::default();
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

    /// The compiled sessions all lots share.
    pub(crate) fn sessions(&self) -> &Arc<SessionCache> {
        &self.sessions
    }

    /// Worker threads serving the floor.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The worker pool, spawned on first use.
    fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(self.threads))
    }

    /// The floor's admission policy.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Runs every lot to completion and reports per-lot outcomes.
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
    ///
    /// # Panics
    ///
    /// Resumes a panic from `on_report` once the run is wound down; the
    /// floor keeps serving.
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
        on_report: impl FnMut(usize, &DeviceReport),
    ) -> Result<FloorReport, SimError> {
        let started = Instant::now();
        // Engine compilation warms the shared cache exactly as a standalone
        // runner's first device would.
        let lots = lots
            .into_iter()
            .map(|spec| {
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
                Ok(Lot { spec, engine })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        let report = self.serve(&lots, None, started, on_report)?;

        let mut action_counts = [
            ("floor.admission.paused", 0u64),
            ("floor.admission.resumed", 0),
        ];
        for (lot, lot_report) in lots.iter().zip(&report.lots) {
            let lot_metrics = MetricsRegistry::new();
            publish_fleet_metrics(
                &lot_metrics,
                &lot_report.fleet,
                self.threads,
                &self.cache,
                lot.engine.as_deref(),
            );
            metrics.merge_from_prefixed(&lot_metrics, &format!("floor.lot.{}.", lot.spec.name));
            for event in &lot_report.events {
                action_counts[match event.action {
                    AdmissionAction::Paused => 0,
                    AdmissionAction::Resumed => 1,
                }]
                .1 += 1;
            }
        }
        metrics.set("floor.lots", report.lots.len() as u64);
        metrics.set("floor.devices", report.requested());
        metrics.set("floor.completed", report.completed());
        metrics.set("floor.passed", report.passed());
        metrics.set("floor.failed", report.failed());
        metrics.set("floor.threads", self.threads as u64);
        metrics.set(
            "floor.cycles.total",
            report.lots.iter().map(|l| l.fleet.total_cycles).sum(),
        );
        metrics.set(
            "floor.bus.wire_cycles",
            report.lots.iter().map(|l| l.fleet.wire_cycles).sum(),
        );
        for (name, count) in action_counts {
            metrics.set(name, count);
        }
        metrics.set("floor.route_cache.hits", self.cache.hits());
        metrics.set("floor.route_cache.misses", self.cache.misses());
        metrics.set("floor.route_cache.shapes", self.cache.len() as u64);

        Ok(report)
    }

    /// The lot executor every floor and fleet run goes through (a
    /// [`FleetRunner`](crate::FleetRunner) run is a one-lot call).
    /// Dispatches each lot onto its lane — the jobs
    /// [`PackedDeviceEngine::plan_lot`] plans when the lot has an engine,
    /// one scalar job per device otherwise — then collects the reports on
    /// the calling thread (a packed lot's by whole cohort, see the
    /// [module docs](self)) and ticks between them: at `monitor`'s
    /// interval when one watches, at the policy's when it sets a yield
    /// floor, and never otherwise. A tick hands the monitor one snapshot
    /// of every lot and applies the admission policy, and a monitored run
    /// closes with each lot's `last` snapshot. A monitor watches every lot
    /// (a fleet passes one for its one lot): each job carries its dispatch
    /// instant, from which the monitor times its queue wait, and the lots'
    /// dies are then [replayed](Self::replay). `started` is when the run
    /// began, for the report's wall clock. Publishes no metrics: callers
    /// do, from the returned report.
    pub(crate) fn serve(
        &self,
        lots: &[Lot],
        monitor: Option<&FleetMonitor>,
        started: Instant,
        mut on_report: impl FnMut(usize, &DeviceReport),
    ) -> Result<FloorReport, SimError> {
        let pool = self.pool();
        let mut lane_slots = self.lanes.lock().unwrap_or_else(PoisonError::into_inner);
        for (idx, lot) in lots.iter().enumerate() {
            match lane_slots.get(idx) {
                Some(&lane) => {
                    pool.set_lane_weight(lane, lot.spec.priority);
                    pool.set_lane_paused(lane, false);
                }
                None => lane_slots.push(pool.lane(lot.spec.priority)),
            }
        }
        let lanes = &lane_slots[..lots.len()];
        let trackers: Vec<LotTracker> = lots
            .iter()
            .map(|lot| LotTracker::new(lot.spec.devices, self.policy.window))
            .collect();
        // A tick has work only for a monitor or for a policy that can act,
        // so a run with neither never ticks before its `last`.
        let interval = match monitor {
            Some(monitor) => monitor.config().interval,
            None if self.policy.yield_floor > 0.0 => self.policy.interval,
            None => Duration::MAX,
        };
        if let Some(monitor) = monitor {
            monitor.shared().begin_run();
        }

        // One bounded result channel for the whole floor: a lagging
        // collector backpressures the workers, and batches carry their lot
        // index. Reports travel in batches — one per job — so a 64-die lane
        // pass costs one rendezvous. Dispatch everything up front — queue
        // pushes never block.
        let (tx, rx) = mpsc::sync_channel::<(usize, Result<Vec<DeviceReport>, SimError>)>(
            self.threads.saturating_mul(2),
        );
        // Dies in jobs that have not started, per lot: each job lowers its
        // lot's count as it starts.
        let queued: Vec<Arc<AtomicU64>> = lots
            .iter()
            .map(|lot| Arc::new(AtomicU64::new(lot.spec.devices)))
            .collect();
        // Every job catches its own panic and reports it as its first die's
        // error, so a panic stops the run instead of losing reports. The
        // receiver hangs up when a failed run returns: jobs discard late
        // batches instead of panicking.
        for (idx, lot) in lots.iter().enumerate() {
            let spec = &lot.spec;
            let members = (0..spec.devices).map(|id| (id, spec.variation.fault_for(&spec.soc, id)));
            let jobs: Vec<Vec<Member>> = match &lot.engine {
                Some(engine) => engine.plan_lot(members.collect()),
                None => members.map(|member| vec![member]).collect(),
            };
            for members in jobs {
                let engine = lot.engine.clone();
                let soc = Arc::clone(&spec.soc);
                let plan = Arc::clone(&spec.plan);
                let cache = Arc::clone(&self.cache);
                let sessions = Arc::clone(&self.sessions);
                // A monitored job carries its dispatch instant: the monitor
                // times its queue wait from it.
                let monitor = monitor.map(|m| (Arc::clone(m.shared()), Instant::now()));
                let queued = Arc::clone(&queued[idx]);
                let tx = tx.clone();
                #[cfg(test)]
                let fail_on = spec.fail_on;
                pool.execute_in(lanes[idx], move || {
                    queued.fetch_sub(members.len() as u64, Ordering::Relaxed);
                    let first = members[0].0;
                    if let Some((monitor, dispatched)) = &monitor {
                        let dies = members.iter().map(|(id, _)| *id).collect();
                        monitor.job_started(*dispatched, dies);
                    }
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(test)]
                        tests::inject(fail_on, engine.is_some(), &members)?;
                        match &engine {
                            Some(engine) => engine.run_cohort(members),
                            None => {
                                let (device_id, fault) = members.into_iter().next().expect("a die");
                                test_device(&soc, &plan, &cache, &sessions, device_id, fault)
                                    .map(|report| vec![report])
                            }
                        }
                    }))
                    .unwrap_or(Err(SimError::WorkerPanicked { device_id: first }));
                    if let Some((monitor, _)) = &monitor {
                        monitor.job_finished(first);
                    }
                    let _ = tx.send((idx, outcome));
                });
            }
        }
        drop(tx);

        let views: Vec<LotLive<'_>> = lots
            .iter()
            .zip(&trackers)
            .enumerate()
            .map(|(idx, (lot, tracker))| LotLive {
                name: &lot.spec.name,
                lane: lanes[idx],
                tracker,
            })
            .collect();
        let mut controller = AdmissionController::new(self.policy, lots.len());
        let mut events: Vec<Vec<AdmissionEvent>> = lots.iter().map(|_| Vec::new()).collect();
        // One tick: for a monitor, a snapshot of every lot; then, unless it
        // is the `last`, one admission judgement. A panicking tick fails
        // the run.
        let mut tick = |last: bool| {
            catch_unwind(AssertUnwindSafe(|| {
                #[cfg(test)]
                tests::observe(lots, &events);
                if let Some(monitor) = monitor {
                    let shared = monitor.shared();
                    for (tracker, queued) in trackers.iter().zip(&queued) {
                        let queued = queued.load(Ordering::Relaxed);
                        shared.emit(shared.snapshot(tracker, &self.cache, queued, last));
                    }
                }
                if !last {
                    for event in controller.tick(pool, &views) {
                        events[event.lot].push(event);
                    }
                }
            }))
            .map_err(|_| SimError::ObserverPanicked)
        };

        let mut reports: Vec<Vec<DeviceReport>> = lots
            .iter()
            .map(|lot| Vec::with_capacity(lot.spec.devices as usize))
            .collect();
        let mut held: Vec<Option<HeldCohorts>> = lots
            .iter()
            .map(|lot| {
                lot.engine
                    .as_ref()
                    .map(|_| HeldCohorts::new(lot.spec.devices))
            })
            .collect();
        // A panicking `on_report` is caught so the lanes still drain; the
        // panic resumes once the run is wound down.
        let collected = catch_unwind(AssertUnwindSafe(|| -> Result<(), SimError> {
            let mut next_tick = Instant::now().checked_add(interval);
            loop {
                if next_tick.is_some_and(|at| at <= Instant::now()) {
                    tick(false)?;
                    next_tick = Instant::now().checked_add(interval);
                }
                // An interval past the clock's range never ticks.
                let batch = match next_tick {
                    Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(RecvTimeoutError::from),
                };
                let (idx, outcome) = match batch {
                    Ok(batch) => batch,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return Ok(()),
                };
                let mut record = |report: DeviceReport| {
                    trackers[idx].record(&report);
                    on_report(idx, &report);
                    reports[idx].push(report);
                };
                match &mut held[idx] {
                    Some(held) => {
                        for report in outcome? {
                            held.hold(report, &mut record);
                        }
                    }
                    None => outcome?.into_iter().for_each(record),
                }
            }
        }));
        if !matches!(collected, Ok(Ok(()))) {
            // Flush what the floor still owes: queued jobs are dropped, and
            // a lane left paused is unpaused when the next run reuses it.
            for &lane in lanes {
                pool.drain_lane(lane);
            }
        }
        // Every run, failed or not, closes with a `last` tick: a monitored
        // run's hands the monitor each lot's `last` snapshot.
        let closed = tick(true);

        collected.unwrap_or_else(|panic| resume_unwind(panic))?;
        closed?;
        check_complete(lots, &reports)?;
        // The serve ends here: replays are post-mortems, off its clock.
        let wall = started.elapsed();
        if let Some(monitor) = monitor {
            for ((lot, devices), &lane) in lots.iter().zip(&reports).zip(lanes) {
                self.replay(lot, lane, devices, monitor)?;
            }
        }
        let lots = lots
            .iter()
            .zip(reports)
            .zip(events)
            .map(|((lot, devices), events)| LotReport {
                name: lot.spec.name.clone(),
                priority: lot.spec.priority,
                requested: lot.spec.devices,
                fleet: FleetReport::assemble(devices, wall),
                events,
            })
            .collect();
        Ok(FloorReport { lots, wall })
    }

    /// Replays each defective or failing die of a monitored lot (none when
    /// its recorders are off) as one job on the lot's lane, and hands the
    /// monitor their dumps in device order once every one is in. The first
    /// failed replay fails the run and drops the replays still queued.
    fn replay(
        &self,
        lot: &Lot,
        lane: LaneId,
        devices: &[DeviceReport],
        monitor: &FleetMonitor,
    ) -> Result<(), SimError> {
        let capacity = monitor.config().recorder_capacity;
        let mut dies: Vec<&DeviceReport> = devices
            .iter()
            .filter(|d| capacity > 0 && (d.fault.is_some() || !d.passed()))
            .collect();
        dies.sort_by_key(|d| d.device_id);
        let (tx, rx) = mpsc::channel();
        for (slot, device) in dies.iter().enumerate() {
            let (soc, plan) = (Arc::clone(&lot.spec.soc), Arc::clone(&lot.spec.plan));
            let (cache, sessions) = (Arc::clone(&self.replay_cache), Arc::clone(&self.sessions));
            let (device_id, fault) = (device.device_id, device.fault.clone());
            let tx = tx.clone();
            #[cfg(test)]
            let fail_on = lot.spec.fail_on;
            self.pool().execute_in(lane, move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(test)]
                    tests::inject_replay(fail_on, device_id)?;
                    replay_device(&soc, &plan, &cache, &sessions, fault.as_ref(), capacity)
                }))
                .unwrap_or(Err(SimError::WorkerPanicked { device_id }));
                let _ = tx.send((slot, outcome));
            });
        }
        drop(tx);
        let mut dumps = vec![None; dies.len()];
        for (slot, outcome) in rx {
            if outcome.is_err() {
                self.pool().drain_lane(lane);
            }
            dumps[slot] = Some(outcome?);
        }
        let dumps = dies.iter().zip(dumps).map(|(device, dump)| DeviceDump {
            device_id: device.device_id,
            defective: device.fault.is_some(),
            passed: device.passed(),
            dump: dump.expect("a replay job reports unless its lane drains"),
        });
        monitor.shared().set_dumps(dumps.collect());
        Ok(())
    }
}

/// A packed lot's finished reports, held until their 64-die cohort is
/// whole.
struct HeldCohorts {
    /// Finished reports not yet recorded, by device id.
    reports: Vec<Option<DeviceReport>>,
    /// Dies still to report, per cohort.
    missing: Vec<usize>,
}

impl HeldCohorts {
    fn new(devices: u64) -> Self {
        let devices = devices as usize;
        Self {
            reports: std::iter::repeat_with(|| None).take(devices).collect(),
            missing: (0..devices.div_ceil(COHORT_LANES))
                .map(|cohort| (devices - cohort * COHORT_LANES).min(COHORT_LANES))
                .collect(),
        }
    }

    /// Holds `report`; when it completes its cohort, hands the cohort to
    /// `record` in device order.
    fn hold(&mut self, report: DeviceReport, record: &mut impl FnMut(DeviceReport)) {
        let id = report.device_id as usize;
        let cohort = cohort_of(report.device_id);
        self.reports[id] = Some(report);
        self.missing[cohort] -= 1;
        if self.missing[cohort] == 0 {
            let end = ((cohort + 1) * COHORT_LANES).min(self.reports.len());
            for report in &mut self.reports[cohort * COHORT_LANES..end] {
                record(report.take().expect("a whole cohort"));
            }
        }
    }
}

/// Checks that every lot collected exactly one report per requested
/// device, naming the first lot that did not.
fn check_complete(lots: &[Lot], reports: &[Vec<DeviceReport>]) -> Result<(), SimError> {
    for (lot, devices) in lots.iter().zip(reports) {
        if devices.len() as u64 != lot.spec.devices {
            return Err(SimError::LotIncomplete {
                lot: lot.spec.name.clone(),
                requested: lot.spec.devices,
                reported: devices.len() as u64,
            });
        }
    }
    Ok(())
}

/// Publishes the standard `fleet.*` metrics for one completed lot:
/// device/pass/fail/defect counts, cycle and wire-cycle totals, the route
/// cache's counters, packed-path accounting (when `packed_engine` is set),
/// and the per-device cycle histogram observed in device order. Shared by
/// [`FleetRunner`](crate::FleetRunner) (its own registry) and [`TestFloor`]
/// (one registry per lot, merged under `floor.lot.<name>.`). Nothing here
/// is wall-clock, so every value is bit-identical across thread counts.
pub(crate) fn publish_fleet_metrics(
    metrics: &MetricsRegistry,
    fleet: &FleetReport,
    threads: usize,
    cache: &RouteTableCache,
    packed_engine: Option<&PackedDeviceEngine>,
) {
    let devices = &fleet.devices;
    metrics.set("fleet.devices", devices.len() as u64);
    metrics.set("fleet.passed", fleet.passed as u64);
    metrics.set("fleet.failed", fleet.failed() as u64);
    metrics.set(
        "fleet.defects.injected",
        devices.iter().filter(|d| d.fault.is_some()).count() as u64,
    );
    metrics.set("fleet.cycles.total", fleet.total_cycles);
    metrics.set("fleet.bus.wire_cycles", fleet.wire_cycles);
    metrics.set("fleet.threads", threads as u64);
    metrics.set("fleet.route_cache.hits", cache.hits());
    metrics.set("fleet.route_cache.misses", cache.misses());
    metrics.set("fleet.route_cache.shapes", cache.len() as u64);
    if let Some(engine) = packed_engine {
        // Per-device accounting (not per-job): how many devices each
        // packed serving path handled. Pure functions of (spec, id), so
        // bit-identical across thread counts like every fleet.* metric.
        let defective = devices.iter().filter(|d| d.fault.is_some()).count();
        let passes = engine.lane_passes(devices.iter().map(|d| d.fault.as_ref()));
        let lane_devices: usize = passes.iter().map(Vec::len).sum();
        metrics.set(
            "fleet.packed.cohorts",
            devices.len().div_ceil(COHORT_LANES) as u64,
        );
        metrics.set("fleet.packed.lane.passes", passes.len() as u64);
        for pass in &passes {
            metrics.observe("fleet.packed.lane.occupancy", pass.len() as u64);
        }
        metrics.set(
            "fleet.packed.baseline.devices",
            (devices.len() - defective) as u64,
        );
        metrics.set("fleet.packed.lane.devices", lane_devices as u64);
        metrics.set(
            "fleet.packed.fallback.devices",
            (defective - lane_devices) as u64,
        );
        // Attribute every scalar fallback to the compile clause or
        // defect placement that forced it — pure functions of
        // (program, spec, id), so bit-identical across thread counts.
        for device in devices {
            if let Some(fault) = &device.fault {
                if let Some(reason) = engine.fallback_reason(fault) {
                    metrics.inc(&format!("fleet.packed.fallback.reason.{reason}"), 1);
                }
            }
        }
    }
    for device in devices {
        metrics.observe("fleet.device.cycles", device.report.total_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{FleetSnapshot, MonitorConfig};
    use casbus_controller::schedule::packed_schedule;
    use casbus_soc::catalog;
    use std::sync::Condvar;
    use std::thread::ThreadId;

    impl TestFloor {
        /// Workers the floor's pool holds: none before its first run.
        pub(crate) fn workers(&self) -> usize {
            self.pool.get().map_or(0, WorkerPool::threads)
        }
    }

    /// How a [`LotSpec::fail_on`] job fails.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum Failure {
        /// The job panics.
        Panic,
        /// The job returns [`injected_error`].
        Error,
        /// The run's first tick after the admission controller has acted
        /// on the lot panics instead. Every job of the lot that holds no
        /// die of the named device's batch of reports (its cohort on a
        /// packed lot, the device alone on a scalar one) waits at the gate
        /// until then, so the lot cannot finish before that tick.
        Observer(&'static Gate),
        /// Every job of the lot waits at the gate. The run's first tick
        /// waits for a job to reach it before its snapshot, and the next
        /// tick opens it.
        Hold(&'static Gate),
        /// Every job of the lot that holds no die of the named device's
        /// batch of reports waits at the gate until the admission
        /// controller has acted on the lot; the next tick opens it.
        AwaitAdmission(&'static Gate),
        /// Nothing fails: every tick of the run records the thread it ran
        /// on.
        Ticks(&'static Mutex<Vec<ThreadId>>),
        /// The device's replay (a monitored lot's) panics.
        ReplayPanic,
        /// The device's replay returns [`injected_error`].
        ReplayError,
        /// The device's replay sleeps for [`REPLAY_HOLD`] first.
        ReplayHold,
    }

    /// How long a [`Failure::ReplayHold`] replay sleeps.
    const REPLAY_HOLD: Duration = Duration::from_millis(500);

    /// A gate that opens once and stays open, and counts the jobs that
    /// reached it and the ticks that looked at it.
    #[derive(Debug, Default)]
    pub(crate) struct Gate {
        /// Whether it is open, and the jobs that reached it.
        state: Mutex<(bool, usize)>,
        changed: Condvar,
        /// The ticks that looked at it (a [`Failure::Hold`] lot's).
        ticks: AtomicU64,
    }

    impl Gate {
        /// A gate for a [`Failure`] that holds jobs. Every job copies its
        /// lot's `fail_on`, so the gate lives as long as the test binary.
        fn leaked() -> &'static Self {
            Box::leak(Box::default())
        }

        fn state(&self) -> std::sync::MutexGuard<'_, (bool, usize)> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn open(&self) {
            self.state().0 = true;
            self.changed.notify_all();
        }

        /// Waits at the gate until it opens.
        fn wait(&self) {
            let mut state = self.state();
            state.1 += 1;
            self.changed.notify_all();
            let _open = self
                .changed
                .wait_while(state, |(open, _)| !*open)
                .unwrap_or_else(PoisonError::into_inner);
        }

        /// Counts a tick, returning whether it is the run's first.
        fn first_tick(&self) -> bool {
            self.ticks.fetch_add(1, Ordering::Relaxed) == 0
        }

        /// Waits until a job has reached the gate.
        fn await_arrival(&self) {
            let _arrived = self
                .changed
                .wait_while(self.state(), |(_, arrived)| *arrived == 0)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Starts a tick: panics when a lot that asks to
    /// ([`Failure::Observer`]) has seen an admission event, opening the
    /// lot's gate first; opens an [`Failure::AwaitAdmission`] lot's gate
    /// once it has seen one; holds the run's first tick of a
    /// [`Failure::Hold`] lot until a job reached its gate, and opens the
    /// gate on the next; records the thread of a [`Failure::Ticks`] lot.
    pub(super) fn observe(lots: &[Lot], events: &[Vec<AdmissionEvent>]) {
        for (lot, events) in lots.iter().zip(events) {
            match lot.spec.fail_on {
                Some((_, Failure::Observer(gate))) if !events.is_empty() => {
                    gate.open();
                    panic!("injected observer panic");
                }
                Some((_, Failure::AwaitAdmission(gate))) if !events.is_empty() => gate.open(),
                Some((_, Failure::Hold(gate))) if gate.first_tick() => gate.await_arrival(),
                Some((_, Failure::Hold(gate))) => gate.open(),
                Some((_, Failure::Ticks(threads))) => threads
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(std::thread::current().id()),
                _ => {}
            }
        }
    }

    /// The error a [`Failure::Error`] job returns.
    fn injected_error(device_id: u64) -> SimError {
        SimError::UnknownCore(format!("injected error on device {device_id}"))
    }

    /// Fails the replay of `device_id` when `fail_on` names it with a
    /// replay failure.
    pub(super) fn inject_replay(
        fail_on: Option<(u64, Failure)>,
        device_id: u64,
    ) -> Result<(), SimError> {
        match fail_on {
            Some((id, Failure::ReplayPanic)) if id == device_id => {
                panic!("injected replay panic on device {id}")
            }
            Some((id, Failure::ReplayError)) if id == device_id => Err(injected_error(id)),
            Some((id, Failure::ReplayHold)) if id == device_id => {
                std::thread::sleep(REPLAY_HOLD);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Fails the job when `fail_on` names one of its `members`; holds it
    /// at the lot's gate when it is a [`Failure::Hold`] lot's, or when
    /// `fail_on` names another batch's device for a tick to fail.
    /// `packed` lots report in cohorts.
    pub(super) fn inject(
        fail_on: Option<(u64, Failure)>,
        packed: bool,
        members: &[Member],
    ) -> Result<(), SimError> {
        let Some((device_id, failure)) = fail_on else {
            return Ok(());
        };
        let holds = |batch: u64| {
            members
                .iter()
                .any(|(id, _)| id / batch == device_id / batch)
        };
        let batch = if packed { COHORT_LANES as u64 } else { 1 };
        match failure {
            Failure::Panic if holds(1) => panic!("injected panic on device {device_id}"),
            Failure::Error if holds(1) => Err(injected_error(device_id)),
            Failure::Observer(gate) | Failure::AwaitAdmission(gate) if !holds(batch) => {
                gate.wait();
                Ok(())
            }
            Failure::Hold(gate) => {
                gate.wait();
                Ok(())
            }
            _ => Ok(()),
        }
    }

    #[test]
    fn repeated_runs_keep_one_lane_per_lot_slot() {
        let scan = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&scan, 4).unwrap();
        let lots = |count: usize| -> Vec<LotSpec> {
            (0..count)
                .map(|i| {
                    LotSpec::new(
                        format!("lot{i}"),
                        &scan,
                        4,
                        schedule.clone(),
                        8,
                        VariationSpec::new(5, 0.5),
                    )
                    .unwrap()
                    .with_priority(i as u64 + 1)
                    .with_packed(i % 2 == 0)
                })
                .collect()
        };
        let floor = TestFloor::new().with_threads(2);
        let first = floor.run(lots(2)).unwrap();
        let mut most = 0;
        for count in [2usize, 1, 3, 3, 2, 1] {
            let report = floor.run(lots(count)).unwrap();
            most = most.max(count);
            // The pool's default lane plus one lane per lot slot ever used.
            assert_eq!(floor.pool().lane_count(), 1 + most, "after {count} lots");
            for (lot, again) in first.lots.iter().zip(&report.lots) {
                assert_eq!(lot.fleet.devices, again.fleet.devices, "{}", lot.name);
            }
        }
    }

    /// The jobs a packed lot of `spec` is served in.
    fn planned_jobs(spec: &LotSpec) -> Vec<Vec<Member>> {
        let cache = Arc::new(RouteTableCache::new());
        let engine = PackedDeviceEngine::compile(&spec.soc, &spec.plan, &cache).unwrap();
        let members = (0..spec.devices)
            .map(|id| (id, spec.variation.fault_for(&spec.soc, id)))
            .collect();
        engine.plan_lot(members)
    }

    #[test]
    fn a_panicking_device_fails_the_run_and_the_floor_keeps_serving() {
        // A device's job that panics or returns an error fails the run with
        // that error, and the floor's next run equals a fresh floor's.
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        let lot = |packed: bool, fail_on: Option<(u64, Failure)>| {
            let mut spec = LotSpec::new(
                "lot",
                &soc,
                8,
                schedule.clone(),
                70,
                VariationSpec::new(5, 0.25),
            )
            .unwrap()
            .with_packed(packed);
            spec.fail_on = fail_on;
            spec
        };
        // A packed panic names the first die of the job that holds device
        // 66: the lane pass of the lot's `core1_cpu` defects, which begins
        // at device 18.
        let packed_job = planned_jobs(&lot(true, None))
            .into_iter()
            .find(|job| job.iter().any(|(id, _)| *id == 66))
            .unwrap();
        assert!(packed_job
            .iter()
            .all(|(_, fault)| fault.as_ref().is_some_and(|f| f.core == "core1_cpu")));
        assert_eq!(packed_job[0].0, 18);
        for packed in [false, true] {
            let named = if packed { packed_job[0].0 } else { 66 };
            for threads in [1usize, 2, 4] {
                let fresh = TestFloor::new()
                    .with_threads(threads)
                    .run(vec![lot(packed, None)])
                    .unwrap();
                let floor = TestFloor::new().with_threads(threads);
                for (failure, error) in [
                    (
                        Failure::Panic,
                        SimError::WorkerPanicked { device_id: named },
                    ),
                    (Failure::Error, injected_error(66)),
                ] {
                    let context = format!("packed {packed}, {threads} threads, {failure:?}");
                    assert_eq!(
                        floor
                            .run(vec![lot(packed, Some((66, failure)))])
                            .unwrap_err(),
                        error,
                        "{context}"
                    );
                    let again = floor.run(vec![lot(packed, None)]).unwrap();
                    assert_eq!(again.lots[0].fleet.fleet_size(), 70, "{context}");
                    assert_eq!(
                        again.lots[0].fleet.devices, fresh.lots[0].fleet.devices,
                        "{context}"
                    );
                }
            }
        }
    }

    /// Serves `spec` alone on `floor` under `monitor`, packed when the lot
    /// asks to be.
    fn serve_monitored(
        floor: &TestFloor,
        spec: LotSpec,
        monitor: &FleetMonitor,
    ) -> Result<FloorReport, SimError> {
        let engine = spec.packed.then(|| {
            let sessions = Arc::clone(&floor.sessions);
            let engine = PackedDeviceEngine::compile_with_sessions(
                &spec.soc,
                &spec.plan,
                &floor.cache,
                sessions,
            );
            Arc::new(engine.unwrap())
        });
        let lot = Lot { spec, engine };
        floor.serve(
            std::slice::from_ref(&lot),
            Some(monitor),
            Instant::now(),
            |_, _| {},
        )
    }

    #[test]
    fn a_failing_replay_fails_the_monitored_run_and_the_floor_keeps_serving() {
        // A monitored lot's replay that panics or returns an error fails
        // the run with a typed error naming its die instead of hanging or
        // returning a short dump list, and the floor's next monitored run
        // dumps what a fresh floor's does.
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        within_a_minute(move || {
            let lot = |packed: bool, fail_on: Option<(u64, Failure)>| {
                let variation = VariationSpec::new(5, 0.25);
                let mut spec = LotSpec::new("lot", &soc, 8, schedule.clone(), 70, variation)
                    .unwrap()
                    .with_packed(packed);
                spec.fail_on = fail_on;
                spec
            };
            let dumps = |floor: &TestFloor, spec: LotSpec| {
                let (monitor, _snapshots) = FleetMonitor::new();
                serve_monitored(floor, spec, &monitor).map(|_| monitor.dumps())
            };
            for packed in [false, true] {
                for threads in [1usize, 2] {
                    let fresh = TestFloor::new().with_threads(threads);
                    let fresh = dumps(&fresh, lot(packed, None)).unwrap();
                    assert!(fresh.iter().any(|dump| dump.device_id == 66));
                    let floor = TestFloor::new().with_threads(threads);
                    for (failure, error) in [
                        (
                            Failure::ReplayPanic,
                            SimError::WorkerPanicked { device_id: 66 },
                        ),
                        (Failure::ReplayError, injected_error(66)),
                    ] {
                        let context = format!("packed {packed}, {threads} threads, {failure:?}");
                        let failed = dumps(&floor, lot(packed, Some((66, failure))));
                        assert_eq!(failed.unwrap_err(), error, "{context}");
                        let again = dumps(&floor, lot(packed, None)).unwrap();
                        assert_eq!(again, fresh, "{context}");
                    }
                }
            }
        });
    }

    #[test]
    fn a_monitored_lots_wall_clock_stops_before_its_replays() {
        // One die's replay sleeps for half a second. The serve's clock
        // stops once every report is in, so the lot's `wall` stays below
        // the hold, while the call, which returns once every dump is in,
        // outlasts it.
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        let variation = VariationSpec::new(5, 1.0);
        let mut spec = LotSpec::new("lot", &soc, 4, schedule, 8, variation).unwrap();
        spec.fail_on = Some((0, Failure::ReplayHold));
        let (monitor, _snapshots) = FleetMonitor::new();
        let lot = Lot { spec, engine: None };
        let floor = TestFloor::new().with_threads(2);
        let started = Instant::now();
        let report = floor
            .serve(
                std::slice::from_ref(&lot),
                Some(&monitor),
                started,
                |_, _| {},
            )
            .unwrap();
        let call = started.elapsed();
        let wall = report.lots[0].fleet.wall;
        assert!(
            wall < REPLAY_HOLD && REPLAY_HOLD <= call,
            "{wall:?}, {call:?}"
        );
        assert_eq!(report.wall, wall);
        assert!(monitor.dumps().iter().any(|dump| dump.device_id == 0));
    }

    /// Runs `run` on its own thread and returns what it returns, failing
    /// the test instead of hanging it when `run` has not returned within a
    /// minute.
    fn within_a_minute<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || tx.send(run()));
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the run hung");
        assert!(
            thread.join().is_ok(),
            "the run's thread exits after sending"
        );
        out
    }

    #[test]
    fn a_panicking_observer_fails_the_run_and_the_floor_keeps_serving() {
        // Every die fails, so a tick pauses the lot's lane after the first
        // batch of reports (device 0 alone on the scalar lot, the first
        // cohort on the packed one), and the next tick panics, before any
        // tick could resume the lane. The jobs that hold none of that
        // batch wait until then, so a tick panics on every run. The packed
        // lot's first jobs are the ones that hold a die of its first
        // cohort, so one worker reaches them all. The run returns a typed
        // error instead of hanging on the paused lane or panicking out of
        // `serve`, and the floor's next run equals a fresh floor's.
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        let lot = move |packed: bool, fail_on: Option<(u64, Failure)>| {
            let variation = VariationSpec::new(7, 1.0);
            let mut spec = LotSpec::new("lot", &soc, 4, schedule.clone(), 200, variation)
                .unwrap()
                .with_packed(packed);
            spec.fail_on = fail_on;
            spec
        };
        let policy = AdmissionPolicy::default()
            .with_interval(Duration::from_millis(1))
            .with_min_completed(1)
            .with_yield_floor(0.5)
            .with_pause_for(Duration::from_millis(5));
        for packed in [false, true] {
            let lot = lot.clone();
            let (failed, again, fresh) = within_a_minute(move || {
                let floor = || TestFloor::new().with_threads(1).with_admission(policy);
                let failing = floor();
                let observer = Failure::Observer(Gate::leaked());
                let failed = failing.run(vec![lot(packed, Some((0, observer)))]);
                let again = failing.run(vec![lot(packed, None)]).unwrap();
                let fresh = floor().run(vec![lot(packed, None)]).unwrap();
                (failed.map(|_| ()), again, fresh)
            });
            assert_eq!(failed, Err(SimError::ObserverPanicked), "packed {packed}");
            assert_eq!(again.lots[0].fleet.fleet_size(), 200, "packed {packed}");
            assert_eq!(again.lots[0].fleet.devices, fresh.lots[0].fleet.devices);
        }
    }

    #[test]
    fn a_lot_counts_the_dies_of_jobs_that_have_not_started() {
        // One worker: the lot's first job starts and waits at the gate
        // while the rest stay queued, so the monitor's first snapshot has
        // exactly that job's dies in flight, however many dies its job
        // holds. The channel holds every snapshot of the run.
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        for packed in [false, true] {
            let mut spec = LotSpec::new(
                "lot",
                &soc,
                8,
                schedule.clone(),
                200,
                VariationSpec::new(5, 0.25),
            )
            .unwrap()
            .with_packed(packed);
            let first_job = if packed {
                planned_jobs(&spec)[0].len() as u64
            } else {
                1
            };
            spec.fail_on = Some((0, Failure::Hold(Gate::leaked())));
            let snapshots = within_a_minute(move || {
                let (monitor, snapshots) = FleetMonitor::with_config(MonitorConfig {
                    interval: Duration::from_millis(1),
                    channel_capacity: 1 << 14,
                    recorder_capacity: 0,
                    ..MonitorConfig::default()
                });
                let floor = TestFloor::new().with_threads(1);
                serve_monitored(&floor, spec, &monitor).unwrap();
                snapshots.try_iter().collect::<Vec<FleetSnapshot>>()
            });
            let first = &snapshots[0];
            assert_eq!(
                (first.completed, first.in_flight),
                (0, first_job),
                "packed {packed}"
            );
            let last = snapshots.last().unwrap();
            assert!(last.last);
            assert_eq!(
                (last.completed, last.in_flight),
                (200, 0),
                "packed {packed}"
            );
            assert!(first_job > 1 || !packed, "a lane pass holds many dies");
        }
    }

    #[test]
    fn a_paused_packed_lot_resumes_and_completes_bit_identically() {
        // One worker serves a packed lot of defective dies in plan order:
        // the jobs holding a die of the first cohort run, and every later
        // job waits at the gate until the admission controller has paused
        // the lot, so the lot can finish neither before the pause nor
        // before its quarantine expires. Pausing reshapes scheduling only.
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        let lot = move |fail_on: Option<(u64, Failure)>| {
            let variation = VariationSpec::new(3, 1.0);
            let mut spec = LotSpec::new("doomed", &soc, 4, schedule.clone(), 256, variation)
                .unwrap()
                .with_packed(true);
            spec.fail_on = fail_on;
            spec
        };
        let policy = AdmissionPolicy::default()
            .with_interval(Duration::from_millis(1))
            .with_min_completed(1)
            .with_yield_floor(0.9)
            .with_pause_for(Duration::from_millis(5));
        let unpoliced = TestFloor::new().with_threads(1).run(vec![lot(None)]);
        let report = within_a_minute(move || {
            let held = Failure::AwaitAdmission(Gate::leaked());
            TestFloor::new()
                .with_threads(1)
                .with_admission(policy)
                .run(vec![lot(Some((0, held)))])
        })
        .unwrap();
        let lot = &report.lots[0];
        let actions: Vec<AdmissionAction> = lot.events.iter().map(|e| e.action).collect();
        assert_eq!(actions, [AdmissionAction::Paused, AdmissionAction::Resumed]);
        assert_eq!(lot.fleet.devices, unpoliced.unwrap().lots[0].fleet.devices);
    }

    #[test]
    fn a_panicking_on_report_propagates_and_the_fleet_keeps_serving() {
        let soc = catalog::figure2a_scan_soc();
        let spec = VariationSpec::new(3, 0.5);
        for packed in [false, true] {
            let runner = || {
                crate::FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap())
                    .unwrap()
                    .with_threads(2)
                    .with_packed(packed)
            };
            let fresh = runner().run(&spec, 16).unwrap();
            let runner = runner();
            let (runner, panic) = within_a_minute(move || {
                let panic = catch_unwind(AssertUnwindSafe(|| {
                    runner.run_with(&spec, 16, |_| panic!("on_report panicked"))
                }))
                .expect_err("the callback's panic propagates");
                (runner, panic)
            });
            assert_eq!(panic.downcast_ref(), Some(&"on_report panicked"));
            let again = runner.run(&spec, 16).unwrap();
            assert_eq!(again.devices, fresh.devices, "packed {packed}");
        }
    }

    #[test]
    fn a_panicking_on_report_propagates_and_the_floor_keeps_serving() {
        let (scan, bist) = (catalog::figure2a_scan_soc(), catalog::figure2b_bist_soc());
        let lot = |name: &str, soc: &SocDescription, n: usize, packed: bool| {
            let schedule = packed_schedule(soc, n).unwrap();
            LotSpec::new(name, soc, n, schedule, 16, VariationSpec::new(3, 0.5))
                .unwrap()
                .with_packed(packed)
        };
        let lots = || vec![lot("scan", &scan, 4, true), lot("bist", &bist, 3, false)];
        let fresh = TestFloor::new().with_threads(2).run(lots()).unwrap();
        let floor = TestFloor::new().with_threads(2);
        let panicking = lots();
        let (floor, panic) = within_a_minute(move || {
            let panic = catch_unwind(AssertUnwindSafe(|| {
                floor.run_with(panicking, |_, _| panic!("on_report panicked"))
            }))
            .expect_err("the callback's panic propagates");
            (floor, panic)
        });
        assert_eq!(panic.downcast_ref(), Some(&"on_report panicked"));
        let again = floor.run(lots()).unwrap();
        for (lot, fresh) in again.lots.iter().zip(&fresh.lots) {
            assert_eq!(lot.fleet.fleet_size(), 16, "{}", lot.name);
            assert_eq!(lot.fleet.devices, fresh.fleet.devices, "{}", lot.name);
        }
    }

    #[test]
    fn a_short_lot_is_an_error() {
        let scan = catalog::figure2a_scan_soc();
        let spec = || {
            LotSpec::new(
                "short",
                &scan,
                4,
                packed_schedule(&scan, 4).unwrap(),
                3,
                VariationSpec::perfect(),
            )
            .unwrap()
        };
        let report = TestFloor::new().with_threads(1).run(vec![spec()]).unwrap();
        let lots = [Lot {
            spec: spec(),
            engine: None,
        }];
        let full = report.lots[0].fleet.devices.clone();
        let short = full[..2].to_vec();
        assert_eq!(check_complete(&lots, &[full]), Ok(()));
        assert_eq!(
            check_complete(&lots, &[short]),
            Err(SimError::LotIncomplete {
                lot: "short".to_owned(),
                requested: 3,
                reported: 2,
            })
        );
    }

    /// A scan lot of `devices` dies, half of them defective.
    fn scan_lot(name: &str, devices: u64, packed: bool) -> LotSpec {
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        LotSpec::new(name, &soc, 4, schedule, devices, VariationSpec::new(5, 0.5))
            .unwrap()
            .with_packed(packed)
    }

    /// A policy armed with a yield floor that never pauses a lot of at
    /// most 100 dies, judging every `interval`.
    fn armed_policy(interval: Duration) -> AdmissionPolicy {
        AdmissionPolicy::default()
            .with_interval(interval)
            .with_yield_floor(1e-9)
            .with_min_completed(101)
    }

    #[test]
    fn every_tick_runs_on_the_thread_that_called_run() {
        // Under an armed policy, a zero interval ticks before the first
        // batch and after every one, and the run ends with its `last`
        // tick, each on the caller's thread. Under the default policy,
        // which cannot act, the run takes its `last` tick alone.
        for (policy, armed) in [
            (armed_policy(Duration::ZERO), true),
            (
                AdmissionPolicy::default().with_interval(Duration::ZERO),
                false,
            ),
        ] {
            let ticks: &'static Mutex<Vec<ThreadId>> = Box::leak(Box::default());
            let mut spec = scan_lot("lot", 64, false);
            spec.fail_on = Some((0, Failure::Ticks(ticks)));
            let floor = TestFloor::new().with_threads(2).with_admission(policy);
            floor.run(vec![spec]).unwrap();
            let ticks = ticks.lock().unwrap();
            if armed {
                assert!(ticks.len() > 1, "a periodic tick and the last");
            } else {
                assert_eq!(ticks.len(), 1, "the last tick alone");
            }
            assert!(ticks.iter().all(|&id| id == std::thread::current().id()));
        }
    }

    #[test]
    fn the_extreme_intervals_collect_every_report() {
        // Under an armed policy, a zero interval ticks between every two
        // batches and an interval past the clock's range never ticks.
        // Either run collects every report, and so does a monitored fleet
        // whose monitor never ticks.
        let lots = || {
            vec![
                scan_lot("packed", 100, true),
                scan_lot("scalar", 100, false),
            ]
        };
        let expected = TestFloor::new().with_threads(2).run(lots()).unwrap();
        for interval in [Duration::ZERO, Duration::MAX] {
            let policy = armed_policy(interval);
            let floor = TestFloor::new().with_threads(2).with_admission(policy);
            let report = floor.run(lots()).unwrap();
            for (lot, expected) in report.lots.iter().zip(&expected.lots) {
                let context = format!("{interval:?}, {}", lot.name);
                assert_eq!(lot.fleet.devices, expected.fleet.devices, "{context}");
            }
        }
        let soc = catalog::figure2a_scan_soc();
        let runner = crate::FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap())
            .unwrap()
            .with_threads(2);
        let (monitor, snapshots) = FleetMonitor::with_config(MonitorConfig {
            interval: Duration::MAX,
            ..MonitorConfig::default()
        });
        let fleet = runner
            .run_monitored(&VariationSpec::new(5, 0.5), 100, &monitor)
            .unwrap();
        assert_eq!(fleet.devices, expected.lots[0].fleet.devices);
        let snapshots: Vec<FleetSnapshot> = snapshots.try_iter().collect();
        assert_eq!(snapshots.len(), 1);
        assert!(snapshots[0].last && snapshots[0].completed == 100);
    }

    #[test]
    fn a_floor_spawns_its_pool_at_its_first_run() {
        // Resizing spawns nothing, and the first run spawns one pool of
        // the size last asked for.
        let floor = TestFloor::new().with_threads(3).with_threads(1);
        assert_eq!((floor.threads(), floor.workers()), (1, 0));
        floor.run(vec![scan_lot("lot", 8, true)]).unwrap();
        assert_eq!((floor.threads(), floor.workers()), (1, 1));
    }
}
