//! Fleet-scale batch serving: one compiled program, thousands of devices.
//!
//! Silicon test programs are written once and executed against every die
//! that comes off the line. [`FleetRunner`] mirrors that economics in
//! simulation: the schedule is compiled into a [`CompiledProgram`] and its
//! wave shapes route-compiled into a shared [`RouteTableCache`] exactly
//! once, then any number of independent simulated devices execute the same
//! immutable plan on a persistent [`WorkerPool`](crate::pool::WorkerPool).
//! Adding a device costs one queue push, never a schedule search, a route
//! compilation, or a thread spawn.
//!
//! Devices are not clones: a [`VariationSpec`] decides, deterministically
//! per device id, whether a die carries a manufacturing defect — a stuck-at
//! flop on a random scan chain, a corrupted BIST response stream, or a
//! stuck memory cell, matching the core's test method ([`FaultKind`]) —
//! defective dies produce diverging signatures and failing verdicts, so a
//! fleet run yields a *yield*.
//! Per-device [`DeviceReport`]s stream back through a bounded channel as
//! they complete; the final [`FleetReport`] aggregates pass counts, cycle
//! totals, and throughput.
//!
//! Determinism contract: every device's report depends only on
//! `(spec, device_id, plan)`, never on the worker that ran it, so the full
//! sorted report list — and every `fleet.*` metric — is bit-identical
//! across thread counts and identical to running the devices one by one.
//!
//! A fleet is a one-lot [`TestFloor`]: every run is served by the floor's
//! lot executor, so a fleet and a floor lot of the same plan run the very
//! same dispatch, collection and observation code. Two execution modes
//! serve the lot, both bit-identical, and a [`FleetMonitor`] watches either
//! without changing its jobs:
//!
//! * **Packed device-parallel** (default): the lot is planned into jobs
//!   for a shared [`PackedDeviceEngine`] — healthy dies clone one baseline
//!   report, defective dies of one core anywhere in the lot run 64 per
//!   machine word as bit-lanes of the packed scan/BIST/memory models, and
//!   inexpressible defects fall back per device to the scalar path
//!   (counted under `fleet.packed.fallback.reason.*`). Reports still
//!   leave in consecutive 64-die cohorts. See [`crate::engine_packed`].
//! * **Scalar per-device** ([`FleetRunner::with_packed`]`(false)`): one
//!   simulator per device — reused in place per worker thread, with a
//!   power-on reset between devices instead of a rebuild. A monitor's
//!   flight-recorder dumps replay dies on this path.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use casbus::RouteTableCache;
use casbus_controller::search::{search_schedule, SearchBudget};
use casbus_controller::{CompiledProgram, Schedule};
use casbus_obs::{FlightDump, FlightRecorder, MetricsRegistry, TraceSink};
use casbus_p1500::{TestableCore, Wrapper};
use casbus_soc::models::{BistCore, MemoryCore, ScanCore};
use casbus_soc::{SocDescription, TestMethod};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::engine::CompiledEngine;
use crate::engine_packed::PackedDeviceEngine;
use crate::floor::{publish_fleet_metrics, Lot, LotSpec, TestFloor};
use crate::monitor::FleetMonitor;
use crate::report::SocTestReport;
use crate::search::gate;
use crate::session::SessionCache;
use crate::simulator::{SimError, SocSimulator};

/// Deterministic per-device manufacturing variation.
///
/// Each device id maps — pure function of `(seed, defect_rate, id)` — to
/// either a defect-free die or one defect on an injectable core: a stuck-at
/// flop on a scan core, a corrupted response stream on a BISTed core, or a
/// stuck cell in an embedded memory (see [`FaultKind`]). The same spec
/// always stamps the same fleet, so differential runs across thread counts
/// or fleet orderings see identical devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    seed: u64,
    defect_rate: f64,
}

impl VariationSpec {
    /// Every die defect-free: the bring-up baseline.
    pub fn perfect() -> Self {
        Self {
            seed: 0,
            defect_rate: 0.0,
        }
    }

    /// Dies are defective with probability `defect_rate` (clamped to
    /// `[0, 1]`), drawn deterministically from `seed`.
    pub fn new(seed: u64, defect_rate: f64) -> Self {
        Self {
            seed,
            defect_rate: defect_rate.clamp(0.0, 1.0),
        }
    }

    /// The stamping seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability that a die carries a defect.
    pub fn defect_rate(&self) -> f64 {
        self.defect_rate
    }

    /// The defect stamped onto device `device_id`, if any. `None` for a
    /// healthy die — and always `None` when the SoC has no injectable
    /// cores (scan, BIST, or memory) to stamp.
    pub fn fault_for(&self, soc: &SocDescription, device_id: u64) -> Option<InjectedFault> {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ device_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if rng.random::<f64>() >= self.defect_rate {
            return None;
        }
        let injectable: Vec<(&str, &TestMethod)> = soc
            .cores()
            .iter()
            .filter_map(|core| match core.method() {
                TestMethod::Scan { chains, .. } if !chains.is_empty() => {
                    Some((core.name(), core.method()))
                }
                TestMethod::Bist { patterns, .. } if *patterns > 0 => {
                    Some((core.name(), core.method()))
                }
                TestMethod::Memory { .. } => Some((core.name(), core.method())),
                _ => None,
            })
            .collect();
        if injectable.is_empty() {
            return None;
        }
        let (name, method) = injectable[rng.random_range(0..injectable.len())];
        let kind = match method {
            TestMethod::Scan { chains, .. } => {
                let chain = rng.random_range(0..chains.len());
                FaultKind::ScanStuckAt {
                    chain,
                    position: rng.random_range(0..chains[chain].max(1)),
                    stuck_at: rng.random(),
                }
            }
            TestMethod::Bist { patterns, .. } => FaultKind::BistResponse {
                after: rng.random_range(0..*patterns),
            },
            TestMethod::Memory { words, data_width } => FaultKind::MemoryStuckCell {
                word: rng.random_range(0..*words),
                bit: rng.random_range(0..*data_width),
                value: rng.random(),
            },
            _ => unreachable!("only injectable methods are collected above"),
        };
        Some(InjectedFault {
            core: name.to_owned(),
            kind,
        })
    }
}

/// The kind of defect stamped onto a die, matching the defective core's
/// test method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One stuck-at flip-flop on a scan chain of a scan-tested core.
    ScanStuckAt {
        /// Scan chain index within the core.
        chain: usize,
        /// Flip-flop position along the chain.
        position: usize,
        /// The value the flop is stuck at.
        stuck_at: bool,
    },
    /// A BISTed core whose circuit-under-test response has one bit flipped
    /// from pattern index `after` on — a defect the MISR signature catches.
    BistResponse {
        /// First pattern index whose response is corrupted.
        after: usize,
    },
    /// One memory cell bit stuck at a value — a defect the march self test
    /// detects by construction.
    MemoryStuckCell {
        /// Word index within the memory.
        word: usize,
        /// Bit within the word.
        bit: usize,
        /// The value the cell is stuck at.
        value: bool,
    },
}

impl FaultKind {
    /// Whether this defect kind can be stamped onto (and lane-encoded for)
    /// a core tested by `method`.
    pub fn matches(&self, method: &TestMethod) -> bool {
        matches!(
            (self, method),
            (FaultKind::ScanStuckAt { .. }, TestMethod::Scan { .. })
                | (FaultKind::BistResponse { .. }, TestMethod::Bist { .. })
                | (FaultKind::MemoryStuckCell { .. }, TestMethod::Memory { .. })
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ScanStuckAt {
                chain,
                position,
                stuck_at,
            } => write!(
                f,
                "stuck-at-{} chain {chain} position {position}",
                u8::from(*stuck_at)
            ),
            FaultKind::BistResponse { after } => {
                write!(f, "corrupted BIST response from pattern {after}")
            }
            FaultKind::MemoryStuckCell { word, bit, value } => write!(
                f,
                "memory cell stuck-at-{} word {word} bit {bit}",
                u8::from(*value)
            ),
        }
    }
}

/// One manufacturing defect on a named core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// Core carrying the defect.
    pub core: String,
    /// What is broken, matching the core's test method.
    pub kind: FaultKind,
}

impl InjectedFault {
    /// Replaces the core's wrapper content with a faulty twin of itself.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownCore`] if the core does not exist or its test
    /// method does not match the defect kind.
    pub fn apply(&self, sim: &mut SocSimulator) -> Result<(), SimError> {
        self.apply_displacing(sim).map(|_| ())
    }

    /// [`apply`](Self::apply), returning the displaced healthy wrapper so
    /// a reused simulator can swap it back after the device's run — model
    /// resets keep injected faults, so restoring the original wrapper is
    /// the only way to cleanly un-stamp a defect.
    pub(crate) fn apply_displacing(
        &self,
        sim: &mut SocSimulator,
    ) -> Result<Wrapper<Box<dyn TestableCore>>, SimError> {
        let (inputs, outputs, method) = {
            let (_, desc) = sim
                .soc()
                .core_by_name(&self.core)
                .ok_or_else(|| SimError::UnknownCore(self.core.clone()))?;
            (
                desc.functional_inputs(),
                desc.functional_outputs(),
                desc.method().clone(),
            )
        };
        let faulty: Box<dyn TestableCore> = match (&method, &self.kind) {
            (
                TestMethod::Scan { chains, .. },
                FaultKind::ScanStuckAt {
                    chain,
                    position,
                    stuck_at,
                },
            ) => {
                let mut core = ScanCore::new(&self.core, chains.clone());
                core.inject_stuck_at(*chain, *position, *stuck_at);
                Box::new(core)
            }
            (TestMethod::Bist { width, patterns }, FaultKind::BistResponse { after }) => {
                let mut core = BistCore::new(&self.core, *width, *patterns);
                core.inject_fault_after(*after);
                Box::new(core)
            }
            (
                TestMethod::Memory { words, data_width },
                FaultKind::MemoryStuckCell { word, bit, value },
            ) => {
                let mut core = MemoryCore::new(&self.core, *words, *data_width);
                core.inject_stuck_cell(*word, *bit, *value);
                Box::new(core)
            }
            _ => return Err(SimError::UnknownCore(self.core.clone())),
        };
        let wrapper = sim.wrapper_mut(&self.core)?;
        Ok(std::mem::replace(
            wrapper,
            Wrapper::new(faulty, inputs, outputs),
        ))
    }
}

/// The outcome of testing one simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceReport {
    /// Fleet-unique device id (`0..fleet_size`).
    pub device_id: u64,
    /// The defect this die was stamped with, if any.
    pub fault: Option<InjectedFault>,
    /// Full per-core test report for this device.
    pub report: SocTestReport,
}

impl DeviceReport {
    /// Whether every core of this device passed.
    pub fn passed(&self) -> bool {
        self.report.all_pass()
    }
}

/// Aggregate outcome of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Every device's report, sorted by device id.
    pub devices: Vec<DeviceReport>,
    /// Devices whose every core passed.
    pub passed: usize,
    /// Sum of per-device test cycles.
    pub total_cycles: u64,
    /// Sum of per-device busy bus wire-cycles.
    pub wire_cycles: u64,
    /// Wall-clock time of the whole run, up to its last report: a
    /// monitored run's flight-recorder replays come after it
    /// (scheduling-dependent; excluded from the determinism contract and
    /// from exported metrics).
    pub wall: Duration,
}

impl FleetReport {
    /// The report of `devices` (any order) tested in `wall`: sorted by
    /// device id, with the pass count and cycle totals.
    pub(crate) fn assemble(mut devices: Vec<DeviceReport>, wall: Duration) -> Self {
        devices.sort_by_key(|d| d.device_id);
        Self {
            passed: devices.iter().filter(|d| d.passed()).count(),
            total_cycles: devices.iter().map(|d| d.report.total_cycles).sum(),
            wire_cycles: devices.iter().map(|d| d.report.bus_cycles).sum(),
            devices,
            wall,
        }
    }

    /// Number of devices tested.
    pub fn fleet_size(&self) -> usize {
        self.devices.len()
    }

    /// Devices with at least one failing core.
    pub fn failed(&self) -> usize {
        self.fleet_size() - self.passed
    }

    /// Fraction of devices that passed, in `[0, 1]` (1.0 for an empty
    /// fleet).
    pub fn yield_fraction(&self) -> f64 {
        if self.devices.is_empty() {
            1.0
        } else {
            self.passed as f64 / self.devices.len() as f64
        }
    }

    /// Devices tested per wall-clock second.
    pub fn devices_per_sec(&self) -> f64 {
        self.fleet_size() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Busy bus wire-cycles simulated per wall-clock second.
    pub fn wire_cycles_per_sec(&self) -> f64 {
        self.wire_cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} devices, {} pass / {} fail (yield {:.2}%)",
            self.fleet_size(),
            self.passed,
            self.failed(),
            self.yield_fraction() * 100.0
        )?;
        write!(
            f,
            "  {} cycles, {} wire-cycles, {:.1} devices/s, {:.0} wire-cycles/s",
            self.total_cycles,
            self.wire_cycles,
            self.devices_per_sec(),
            self.wire_cycles_per_sec()
        )
    }
}

/// Batch test server: one compiled plan, N simulated devices.
///
/// Construction pays the one-time planning costs — TAM build, program
/// compilation, optionally a full schedule search — the first run spawns
/// the worker pool, and `run*` calls amortise all of it over the whole
/// fleet. Each run is served as a one-lot [`TestFloor`] run on the
/// runner's persistent pool; each device's engine shares the runner's
/// [`RouteTableCache`], so a wave shape is route-compiled once for the
/// entire fleet regardless of its size.
///
/// # Examples
///
/// ```
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_sim::{FleetRunner, VariationSpec};
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let runner = FleetRunner::new(&soc, 8, packed_schedule(&soc, 8).unwrap())?;
/// let fleet = runner.run(&VariationSpec::perfect(), 16)?;
/// assert_eq!(fleet.passed, 16, "healthy dies all pass");
/// # Ok::<(), casbus_sim::SimError>(())
/// ```
pub struct FleetRunner {
    soc: Arc<SocDescription>,
    plan: Arc<CompiledProgram>,
    /// The one-lot floor serving every run: its pool, its route cache, and
    /// its compiled sessions — built by the first run (by the search, for a
    /// searched runner) and shared by every worker slot and the packed
    /// engine.
    floor: TestFloor,
    /// Packed device-parallel mode: runs execute up to 64 devices per word
    /// through a shared [`PackedDeviceEngine`].
    packed: bool,
    /// The packed engine, shared by every run of this runner: built from
    /// the reference gate's run by a searched runner, compiled by the
    /// first packed run otherwise.
    packed_engine: Mutex<Option<Arc<PackedDeviceEngine>>>,
}

impl std::fmt::Debug for FleetRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRunner")
            .field("soc", &self.soc.name())
            .field("bus_width", &self.plan.bus_width())
            .field("steps", &self.plan.program().len())
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

impl FleetRunner {
    /// A runner serving `schedule` compiled for an `n`-wire bus, with one
    /// worker per available hardware thread.
    ///
    /// # Errors
    ///
    /// Propagates TAM/program compilation errors.
    pub fn new(soc: &SocDescription, n: usize, schedule: Schedule) -> Result<Self, SimError> {
        let plan = CompiledProgram::compile(soc, n, schedule)?;
        Ok(Self::serving(soc, plan, TestFloor::new()))
    }

    /// A runner whose schedule comes from the annealed schedule search
    /// ([`search_schedule`], which ranks plans by the cycles their program
    /// books), gated bit-exactly against the reference interpreter before
    /// serving — exactly the plan
    /// [`run_program_searched`](crate::run_program_searched) would execute,
    /// compiled once for the whole fleet. Only the winner is simulated: the
    /// gate runs it on this runner's route cache and compiled sessions, so
    /// its shapes and sessions are warm when devices arrive. The gate's
    /// healthy compiled run is the packed engine's baseline: the plan runs
    /// on the compiled engine once, and every healthy die of a packed run
    /// clones a report the reference interpreter reproduced.
    ///
    /// # Errors
    ///
    /// [`SimError::Schedule`] when the SoC cannot be scheduled on `n`
    /// wires, [`SimError::SearchDiverged`] if the winner fails the
    /// reference gate.
    pub fn searched(
        soc: &SocDescription,
        n: usize,
        budget: SearchBudget,
    ) -> Result<Self, SimError> {
        let schedule = search_schedule(soc, n, budget)?;
        let plan = CompiledProgram::compile(soc, n, schedule)?;
        let mut runner = Self::serving(soc, plan, TestFloor::new());
        let sessions = runner.floor.sessions();
        let engine = CompiledEngine::new()
            .with_cache(Arc::clone(runner.cache()))
            .with_sessions(Arc::clone(sessions));
        // The same bit-exact gate run_program_searched applies: refuse to
        // serve a plan whose compiled execution differs from the reference
        // interpreter on a healthy device.
        let judged = gate(
            soc,
            n,
            runner.plan.program(),
            &engine,
            &MetricsRegistry::new(),
        )?;
        let engine = PackedDeviceEngine::from_judged(
            &runner.soc,
            &runner.plan,
            runner.cache(),
            Arc::clone(sessions),
            judged,
        );
        runner.packed_engine = Mutex::new(Some(Arc::new(engine)));
        Ok(runner)
    }

    fn serving(soc: &SocDescription, plan: CompiledProgram, floor: TestFloor) -> Self {
        Self {
            soc: Arc::new(soc.clone()),
            plan: Arc::new(plan),
            floor,
            packed: true,
            packed_engine: Mutex::new(None),
        }
    }

    /// Sizes the worker pool at `threads` workers (`0` means one per
    /// available hardware thread); the pool spawns at the first run.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.floor = self.floor.with_threads(threads);
        self
    }

    /// Enables or disables packed device-parallel execution (on by
    /// default). When on, a run, monitored or not, is served through one
    /// [`PackedDeviceEngine`]: healthy dies clone a shared baseline report,
    /// the defective dies of each core across the whole lot run 64 per
    /// word as bit-lanes of a packed scan, BIST or memory model, and
    /// anything the lane encoding cannot express falls back to the scalar
    /// per-device path. Reports leave in consecutive 64-die cohorts, each
    /// in device order, once every die of the cohort is done. Reports are
    /// bit-identical either way (pinned by `tests/fleet_differential.rs`);
    /// only `fleet.packed.*` and `fleet.route_cache.*` metrics reveal which
    /// mode ran.
    #[must_use]
    pub fn with_packed(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// The plan every device executes.
    pub fn plan(&self) -> &CompiledProgram {
        &self.plan
    }

    /// The schedule the plan realises.
    pub fn schedule(&self) -> &Schedule {
        self.plan.schedule()
    }

    /// The route cache shared by the fleet.
    pub fn cache(&self) -> &Arc<RouteTableCache> {
        self.floor.cache()
    }

    /// Worker threads serving the fleet.
    pub fn threads(&self) -> usize {
        self.floor.threads()
    }

    /// Whether packed device-parallel execution is enabled.
    pub fn packed(&self) -> bool {
        self.packed
    }

    /// The packed engine, compiling (and memoising) it on first use when
    /// the runner has none. Compilation runs the healthy baseline once,
    /// warming the shared route cache on exactly the shapes the first
    /// scalar device would have compiled.
    fn packed_engine(&self) -> Result<Arc<PackedDeviceEngine>, SimError> {
        let mut slot = self
            .packed_engine
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(engine) = &*slot {
            return Ok(Arc::clone(engine));
        }
        let engine = Arc::new(PackedDeviceEngine::compile_with_sessions(
            &self.soc,
            &self.plan,
            self.cache(),
            Arc::clone(self.floor.sessions()),
        )?);
        *slot = Some(Arc::clone(&engine));
        Ok(engine)
    }

    /// Tests `fleet_size` devices stamped by `spec`.
    ///
    /// # Errors
    ///
    /// Propagates the first device-level simulation error (healthy plans
    /// do not produce any).
    pub fn run(&self, spec: &VariationSpec, fleet_size: u64) -> Result<FleetReport, SimError> {
        self.run_with(spec, fleet_size, |_| {})
    }

    /// [`run`](Self::run), invoking `on_report` for every device report as
    /// it streams in — **completion order**, not device order; use the
    /// returned [`FleetReport::devices`] for the sorted view.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Resumes a panic from `on_report` once the run is wound down; the
    /// runner keeps serving.
    pub fn run_with(
        &self,
        spec: &VariationSpec,
        fleet_size: u64,
        on_report: impl FnMut(&DeviceReport),
    ) -> Result<FleetReport, SimError> {
        self.run_with_metrics(spec, fleet_size, &MetricsRegistry::new(), on_report)
    }

    /// [`run_with`](Self::run_with), also publishing `fleet.*` metrics:
    /// device/pass/fail/defect counts, cycle and wire-cycle totals, the
    /// shared route cache's hit/miss/eviction counters, and a per-device
    /// cycle histogram (observed in device order). Metrics never include
    /// wall-clock quantities, so they are bit-identical across thread
    /// counts.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_with_metrics(
        &self,
        spec: &VariationSpec,
        fleet_size: u64,
        metrics: &MetricsRegistry,
        on_report: impl FnMut(&DeviceReport),
    ) -> Result<FleetReport, SimError> {
        self.run_inner(spec, fleet_size, metrics, None, on_report)
    }

    /// [`run`](Self::run) with a live [`FleetMonitor`] attached: the lot
    /// runs the jobs an unmonitored run would, the monitor streams
    /// [`FleetSnapshot`](crate::FleetSnapshot)s over its bounded channel
    /// while they execute, and each defective or failing device is then
    /// replayed into a flight recorder, its dump landing in
    /// [`FleetMonitor::dumps`] before the run returns. The report — and
    /// every non-`obs.*` metric — is bit-identical to an unmonitored run
    /// (pinned by `tests/fleet_differential.rs`).
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_monitored(
        &self,
        spec: &VariationSpec,
        fleet_size: u64,
        monitor: &FleetMonitor,
    ) -> Result<FleetReport, SimError> {
        self.run_monitored_with_metrics(spec, fleet_size, &MetricsRegistry::new(), monitor, |_| {})
    }

    /// [`run_monitored`](Self::run_monitored) that also publishes the
    /// standard `fleet.*` metrics plus the monitor's `obs.*` telemetry
    /// (merged in after the run) into `metrics`, streaming reports through
    /// `on_report` in completion order.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_monitored_with_metrics(
        &self,
        spec: &VariationSpec,
        fleet_size: u64,
        metrics: &MetricsRegistry,
        monitor: &FleetMonitor,
        on_report: impl FnMut(&DeviceReport),
    ) -> Result<FleetReport, SimError> {
        self.run_inner(spec, fleet_size, metrics, Some(monitor), on_report)
    }

    fn run_inner(
        &self,
        spec: &VariationSpec,
        fleet_size: u64,
        metrics: &MetricsRegistry,
        monitor: Option<&FleetMonitor>,
        mut on_report: impl FnMut(&DeviceReport),
    ) -> Result<FleetReport, SimError> {
        let started = Instant::now();
        let engine = if self.packed && fleet_size > 0 {
            Some(self.packed_engine()?)
        } else {
            None
        };
        let lot = Lot {
            spec: LotSpec {
                name: "fleet".to_owned(),
                soc: Arc::clone(&self.soc),
                plan: Arc::clone(&self.plan),
                devices: fleet_size,
                variation: *spec,
                priority: 1,
                packed: engine.is_some(),
                #[cfg(test)]
                fail_on: None,
            },
            engine,
        };
        let lots = std::slice::from_ref(&lot);
        let served = self
            .floor
            .serve(lots, monitor, started, |_, report| on_report(report))?;
        let fleet = served
            .lots
            .into_iter()
            .next()
            .expect("a one-lot floor reports one lot")
            .fleet;
        publish_fleet_metrics(
            metrics,
            fleet_size,
            &fleet,
            self.threads(),
            self.cache(),
            lot.engine.as_deref(),
        );
        if let Some(monitor) = monitor {
            // Everything wall-clock lands under obs.* so differential runs
            // can compare monitored and unmonitored registries by filtering
            // the prefix.
            metrics.merge_from(monitor.telemetry());
            metrics.set("obs.fleet.snapshots.emitted", monitor.snapshots_emitted());
            metrics.set("obs.fleet.snapshots.dropped", monitor.snapshots_dropped());
            metrics.set("obs.fleet.recorder.dumps", monitor.dumps().len() as u64);
        }
        Ok(fleet)
    }
}

/// One worker thread's reusable device simulator: a simulator plus engine
/// kept alive between devices, keyed by the artifacts it was built from.
struct WorkerSlot {
    soc: Arc<SocDescription>,
    cache: Arc<RouteTableCache>,
    sessions: Arc<SessionCache>,
    width: usize,
    sim: SocSimulator,
    engine: CompiledEngine,
}

thread_local! {
    /// Per-worker simulator slot ([`WorkerSlot`]): fleet workers are
    /// persistent pool threads, so consecutive devices of one runner reuse
    /// one simulator (reset in place) instead of re-cloning the SoC and
    /// rebuilding TAM + wrappers per device.
    static WORKER_SLOT: RefCell<Option<WorkerSlot>> = const { RefCell::new(None) };
}

/// Runs `body` with this worker's reusable simulator and engine for
/// `(soc, plan, cache, sessions)`, building or rebuilding the slot when
/// the runner's artifacts change and resetting the simulator to power-on
/// state when reusing it. The slot is out of its cell while `body` runs and
/// goes back only on success, so an error or a panic discards it — a
/// failed run leaves the simulator in an unknown state (a stamped defect
/// may still be in place).
fn with_worker_slot<T>(
    soc: &Arc<SocDescription>,
    plan: &CompiledProgram,
    cache: &Arc<RouteTableCache>,
    sessions: &Arc<SessionCache>,
    body: impl FnOnce(&mut SocSimulator, &CompiledEngine) -> Result<T, SimError>,
) -> Result<T, SimError> {
    WORKER_SLOT.with(|slot| {
        let reused = slot.borrow_mut().take().filter(|w| {
            Arc::ptr_eq(&w.soc, soc)
                && Arc::ptr_eq(&w.cache, cache)
                && Arc::ptr_eq(&w.sessions, sessions)
                && w.width == plan.bus_width()
        });
        let mut worker = match reused {
            Some(mut worker) => {
                worker.sim.reset_device();
                worker
            }
            None => WorkerSlot {
                soc: Arc::clone(soc),
                cache: Arc::clone(cache),
                sessions: Arc::clone(sessions),
                width: plan.bus_width(),
                sim: SocSimulator::new_shared(Arc::clone(soc), plan.bus_width())?,
                engine: CompiledEngine::new()
                    .with_cache(Arc::clone(cache))
                    .with_sessions(Arc::clone(sessions)),
            },
        };
        let outcome = body(&mut worker.sim, &worker.engine);
        if outcome.is_ok() {
            *slot.borrow_mut() = Some(worker);
        }
        outcome
    })
}

/// Stamps `fault` (if any), runs the program, and restores the displaced
/// healthy wrapper so the simulator is clean for the next device on this
/// worker.
fn run_stamped(
    sim: &mut SocSimulator,
    engine: &CompiledEngine,
    plan: &CompiledProgram,
    fault: Option<&InjectedFault>,
) -> Result<SocTestReport, SimError> {
    let displaced = match fault {
        Some(fault) => Some((fault.core.as_str(), fault.apply_displacing(sim)?)),
        None => None,
    };
    let report = engine.run(sim, plan.program())?;
    if let Some((core, healthy)) = displaced {
        *sim.wrapper_mut(core)? = healthy;
    }
    Ok(report)
}

/// Tests one device on this worker's reused simulator: in-place power-on
/// reset, optional stamped defect (undone afterwards), compiled engine over
/// the shared route cache and compiled sessions. Single-threaded per
/// device — the fleet's parallelism lives across devices. Also the scalar
/// fallback the packed path uses for defects its lane encoding cannot
/// express.
pub(crate) fn test_device(
    soc: &Arc<SocDescription>,
    plan: &CompiledProgram,
    cache: &Arc<RouteTableCache>,
    sessions: &Arc<SessionCache>,
    device_id: u64,
    fault: Option<InjectedFault>,
) -> Result<DeviceReport, SimError> {
    let report = with_worker_slot(soc, plan, cache, sessions, |sim, engine| {
        run_stamped(sim, engine, plan, fault.as_ref())
    })?;
    Ok(DeviceReport {
        device_id,
        fault,
        report,
    })
}

/// Tests one device again as [`test_device`] does, with a fresh flight
/// recorder of `capacity` events as its trace sink, and dumps the ring: a
/// post-mortem made after the fact, since a report is a pure function of
/// `(spec, device_id, plan)`.
pub(crate) fn replay_device(
    soc: &Arc<SocDescription>,
    plan: &CompiledProgram,
    cache: &Arc<RouteTableCache>,
    sessions: &Arc<SessionCache>,
    fault: Option<&InjectedFault>,
    capacity: usize,
) -> Result<FlightDump, SimError> {
    let recorder = Arc::new(FlightRecorder::new(capacity));
    with_worker_slot(soc, plan, cache, sessions, |sim, engine| {
        sim.set_trace(Arc::clone(&recorder) as Arc<dyn TraceSink>);
        let report = run_stamped(sim, engine, plan, fault);
        sim.set_trace(casbus_obs::trace::null_sink());
        report
    })?;
    Ok(recorder.dump())
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_controller::schedule::{packed_schedule, ScheduledTest};
    use casbus_soc::{catalog, CoreId};

    #[test]
    fn variation_spec_is_deterministic_and_respects_rate() {
        let soc = catalog::figure1_soc();
        let spec = VariationSpec::new(7, 0.5);
        for id in 0..32 {
            assert_eq!(spec.fault_for(&soc, id), spec.fault_for(&soc, id));
        }
        let perfect = VariationSpec::perfect();
        assert!((0..32).all(|id| perfect.fault_for(&soc, id).is_none()));

        let always = VariationSpec::new(3, 1.0);
        let faults: Vec<InjectedFault> = (0..64)
            .map(|id| always.fault_for(&soc, id).expect("rate 1.0 stamps all"))
            .collect();
        assert!(
            faults.windows(2).any(|w| w[0] != w[1]),
            "devices draw distinct defects"
        );
        let mut kinds_seen = [false; 3];
        for fault in &faults {
            let (_, desc) = soc.core_by_name(&fault.core).unwrap();
            assert!(
                fault.kind.matches(desc.method()),
                "defect kind matches the core's test method"
            );
            match (&fault.kind, desc.method()) {
                (
                    FaultKind::ScanStuckAt {
                        chain, position, ..
                    },
                    TestMethod::Scan { chains, .. },
                ) => {
                    kinds_seen[0] = true;
                    assert!(*position < chains[*chain]);
                }
                (FaultKind::BistResponse { after }, TestMethod::Bist { patterns, .. }) => {
                    kinds_seen[1] = true;
                    assert!(after < patterns);
                }
                (
                    FaultKind::MemoryStuckCell { word, bit, .. },
                    TestMethod::Memory { words, data_width },
                ) => {
                    kinds_seen[2] = true;
                    assert!(word < words && bit < data_width);
                }
                _ => unreachable!("matches() checked above"),
            }
        }
        assert_eq!(
            kinds_seen, [true; 3],
            "figure1 draws scan, BIST, and memory defects"
        );

        // Out-of-range rates clamp instead of misbehaving.
        assert_eq!(VariationSpec::new(1, 7.0).defect_rate(), 1.0);
        assert_eq!(VariationSpec::new(1, -1.0).defect_rate(), 0.0);
    }

    #[test]
    fn fleet_of_one_matches_run_program() {
        let soc = catalog::figure1_soc();
        let schedule = packed_schedule(&soc, 8).unwrap();
        let runner = FleetRunner::new(&soc, 8, schedule.clone()).unwrap();
        let fleet = runner.run(&VariationSpec::perfect(), 1).unwrap();

        let plan = CompiledProgram::compile(&soc, 8, schedule).unwrap();
        let mut sim = SocSimulator::new(&soc, 8).unwrap();
        let expected = crate::report::run_program(&mut sim, plan.program()).unwrap();
        assert_eq!(fleet.devices.len(), 1);
        assert_eq!(fleet.devices[0].report, expected);
        assert!(fleet.devices[0].fault.is_none());
        assert_eq!(fleet.passed, 1);
    }

    #[test]
    fn healthy_fleet_reports_identical_devices_and_full_yield() {
        let soc = catalog::figure2a_scan_soc();
        let runner = FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap())
            .unwrap()
            .with_threads(3);
        let metrics = MetricsRegistry::new();
        let mut streamed = 0usize;
        let fleet = runner
            .run_with_metrics(&VariationSpec::perfect(), 9, &metrics, |_| streamed += 1)
            .unwrap();

        assert_eq!(streamed, 9, "every report streams through the callback");
        assert_eq!(fleet.passed, 9);
        assert!((fleet.yield_fraction() - 1.0).abs() < f64::EPSILON);
        let ids: Vec<u64> = fleet.devices.iter().map(|d| d.device_id).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>(), "sorted by device id");
        assert!(fleet.devices.windows(2).all(|w| w[0].report == w[1].report));
        assert_eq!(metrics.counter("fleet.devices"), 9);
        assert_eq!(metrics.counter("fleet.passed"), 9);
        assert_eq!(metrics.counter("fleet.cycles.total"), fleet.total_cycles);
        assert_eq!(metrics.histogram("fleet.device.cycles").unwrap().count, 9);
    }

    #[test]
    fn defective_dies_fail_only_if_defective() {
        // Detection of a random stuck-at is not guaranteed (the fault may
        // sit on a don't-care position), but a failing device is always a
        // defective one: healthy dies never fail.
        let soc = catalog::figure2a_scan_soc();
        let runner = FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap())
            .unwrap()
            .with_threads(2);
        let fleet = runner.run(&VariationSpec::new(11, 0.5), 24).unwrap();
        assert!(fleet.failed() > 0, "a 50% defect rate catches some dies");
        for device in &fleet.devices {
            if !device.passed() {
                assert!(device.fault.is_some(), "device {}", device.device_id);
            }
            if device.fault.is_none() {
                assert!(device.passed(), "device {}", device.device_id);
            }
        }
    }

    #[test]
    fn a_poisoned_engine_memo_still_serves_packed_runs() {
        // The memo is an `Option<Arc<_>>` replaced whole, so a panic under
        // its lock leaves it valid and the next run recovers it.
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        let spec = VariationSpec::new(11, 0.5);
        let scalar = FleetRunner::new(&soc, 4, schedule.clone())
            .unwrap()
            .with_packed(false)
            .run(&spec, 12)
            .unwrap();
        let runner = FleetRunner::new(&soc, 4, schedule).unwrap();
        let memo = &runner.packed_engine;
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = memo.lock();
                panic!("poisoning the memo on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(memo.is_poisoned());
        // The first run compiles into the poisoned memo, the second reuses it.
        for _ in 0..2 {
            let metrics = MetricsRegistry::new();
            let fleet = runner
                .run_with_metrics(&spec, 12, &metrics, |_| {})
                .unwrap();
            assert_eq!(fleet.devices, scalar.devices);
            assert!(metrics.counter("fleet.packed.cohorts") > 0, "served packed");
        }
    }

    #[test]
    fn route_compilations_are_independent_of_fleet_size() {
        let soc = catalog::figure2a_scan_soc();
        let schedule = packed_schedule(&soc, 4).unwrap();
        let misses_for = |fleet_size: u64| {
            let runner = FleetRunner::new(&soc, 4, schedule.clone())
                .unwrap()
                .with_threads(4);
            runner.run(&VariationSpec::perfect(), fleet_size).unwrap();
            runner.cache().misses()
        };
        let small = misses_for(2);
        let large = misses_for(16);
        assert!(small > 0, "first device compiles the shapes");
        assert_eq!(small, large, "identical devices never recompile");
    }

    #[test]
    fn a_searched_runner_serves_the_healthy_run_its_gate_made() {
        // Only the winner is simulated: the runner's route cache saw one
        // lookup per program step, the gate's. The gate's compiled run is
        // the packed baseline: a packed run of a perfect lot compiles no
        // shape and looks none up, so the plan ran on the compiled engine
        // once, at the gate. The search and the gate spawn no worker: the
        // first run spawns the one pool, of the size last asked for.
        let soc = catalog::figure1_soc();
        let runner = FleetRunner::searched(&soc, 8, SearchBudget::smoke())
            .unwrap()
            .with_threads(2);
        assert_eq!((runner.threads(), runner.floor.workers()), (2, 0));
        let (hits, misses) = (runner.cache().hits(), runner.cache().misses());
        assert_eq!(hits + misses, runner.plan().program().len() as u64);
        let fleet = runner.run(&VariationSpec::perfect(), 70).unwrap();
        assert_eq!(runner.floor.workers(), 2);
        assert_eq!(
            (runner.cache().hits(), runner.cache().misses()),
            (hits, misses)
        );
        let mut sim = SocSimulator::new(&soc, 8).unwrap();
        let reference = crate::run_program_reference(&mut sim, runner.plan().program()).unwrap();
        assert!(fleet.devices.iter().all(|d| d.report == reference));
    }

    #[test]
    fn a_blocked_program_compiles_no_sessions() {
        // Figure 1's packed plan with the system bus's interconnect test
        // appended at the makespan, the step fallback of
        // `tests/fleet_differential.rs`: its last step blocks the program,
        // so the packed engine builds no lane, every defective die falls
        // back under `step.armed_bystander`, and every die runs whole on
        // the reference interpreter. No compiled session is ever read, and
        // none is compiled.
        let soc = catalog::figure1_soc();
        let cores = packed_schedule(&soc, 8).unwrap();
        let mut tests = cores.tests().to_vec();
        tests.push(ScheduledTest {
            core: CoreId(soc.cores().len()),
            core_name: "system_bus".to_owned(),
            wire_start: 0,
            wires: 1,
            start: cores.makespan(),
            duration: 40,
        });
        let schedule = Schedule::from_tests(8, tests).unwrap();
        let runner = FleetRunner::new(&soc, 8, schedule).unwrap().with_threads(2);
        let metrics = MetricsRegistry::new();
        let fleet = runner
            .run_with_metrics(&VariationSpec::new(7, 0.25), 64, &metrics, |_| {})
            .unwrap();
        let defective = fleet.devices.iter().filter(|d| d.fault.is_some()).count();
        assert_eq!(defective, 15);
        assert_eq!(
            metrics.counter("fleet.packed.fallback.reason.step.armed_bystander"),
            defective as u64
        );
        assert_eq!(runner.floor.sessions().len(), 0);
    }

    #[test]
    fn the_flagship_lots_fill_one_lane_pass_per_defective_core() {
        // The searched Figure-1 plan served to 256 dies at 25% defects, on
        // the four defect patterns of variation seed 7: every defective
        // core's packable dies fit one 64-lane pass, where one pass per
        // defective core per 64-die cohort took 15 or 16.
        let soc = catalog::figure1_soc();
        let runner = FleetRunner::searched(&soc, 8, SearchBudget::smoke())
            .unwrap()
            .with_threads(2);
        for seed in 28..32 {
            let metrics = MetricsRegistry::new();
            let spec = VariationSpec::new(seed, 0.25);
            runner
                .run_with_metrics(&spec, 256, &metrics, |_| {})
                .unwrap();
            assert_eq!(metrics.counter("fleet.packed.cohorts"), 4, "seed {seed}");
            assert_eq!(
                metrics.counter("fleet.packed.lane.passes"),
                4,
                "seed {seed}"
            );
            assert_eq!(
                metrics.counter("fleet.packed.fallback.devices"),
                0,
                "seed {seed}"
            );
            let occupancy = metrics.histogram("fleet.packed.lane.occupancy").unwrap();
            assert_eq!(occupancy.count, 4, "seed {seed}");
            assert_eq!(
                occupancy.sum,
                metrics.counter("fleet.packed.lane.devices"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn searched_runner_serves_the_searched_schedule() {
        let soc = catalog::figure1_soc();
        let budget = SearchBudget::smoke();
        let runner = FleetRunner::searched(&soc, 8, budget).unwrap();
        let (expected_schedule, expected_report) =
            crate::search::run_program_searched(&soc, 8, budget, &MetricsRegistry::new()).unwrap();
        assert_eq!(runner.schedule(), &expected_schedule);
        let fleet = runner.run(&VariationSpec::perfect(), 3).unwrap();
        assert!(fleet.devices.iter().all(|d| d.report == expected_report));
    }
}
