//! Packed device-parallel fleet execution: up to 64 devices per word.
//!
//! Every die in a fleet runs the *identical* compiled test program and
//! differs only by at most one stuck-at defect
//! ([`VariationSpec`](crate::VariationSpec)). [`PackedDeviceEngine`]
//! exploits that structure along the device axis, the way the PPSFP fault
//! simulator exploits it along the sequence axis:
//!
//! * **Healthy dies are one run, ever.** The engine keeps one compiled run
//!   of the program on a defect-free device as the *baseline* (a searched
//!   runner's reference gate already made that run, and hands it over).
//!   Every healthy device's report is a clone of it — the scalar engine is
//!   deterministic, so a fresh healthy run could not produce anything
//!   else. The compiled engine judges every step of that run for the
//!   fast path before it starts, and its verdicts, one per session in
//!   start order, are the slots the lanes patch.
//! * **Defective dies run 64 to a word.** Up to 64 dies of a lot whose
//!   defects land on the same core become *lanes* of one word-level twin
//!   of that core's behavioural model — [`PackedScanLanes`],
//!   [`PackedBistLanes`], or [`PackedMemoryLanes`], covering every defect
//!   kind [`VariationSpec`](crate::VariationSpec) stamps. Each state bit of
//!   the scalar model (a scan flop, a MISR stage, a memory cell bit) is one
//!   `u64`, bit `l` belonging to device-lane `l`, and the per-device
//!   defects become per-lane force/mask words. One shift or capture clock
//!   then advances all of them at once, the stimuli broadcast from the
//!   core's compiled session (every lane sees the same plan). At the
//!   session boundary the time-major observation words are transposed back
//!   into per-lane streams, one transpose per 64-slot block for all lanes,
//!   which feed the *same* `lane_signature` fold the scalar engines use; a
//!   lane's mismatch count is its streams' Hamming distance to the healthy
//!   streams its compiled session holds. A lane observes its own plan's
//!   `len` slots, whatever else runs in its steps, so one set of healthy
//!   streams serves every step and plan the session runs in, and a
//!   session carried across reconfigurations runs as one uninterrupted
//!   lane pass.
//! * **Everything else falls back, per device.** Programs with any step
//!   the word-level fast path cannot express, and defects the lane
//!   encoding cannot carry, are executed by the unchanged scalar
//!   [`test_device`](crate::fleet) path (where a blocked program runs
//!   whole on the reference interpreter) — bit-identity is never traded for
//!   speed. Every fallback is attributed: [`PackedDeviceEngine::fallback_reason`]
//!   names the compile clause or defect placement responsible, and the
//!   fleet exports the tallies as `fleet.packed.fallback.reason.*`.
//!
//! # Planning a lot
//!
//! A lane is only worth its clocks when its word is full, and a lot's
//! defects are sparse: at a 25% defect rate a 64-die cohort of Figure 1
//! holds about four dies per defective core. So the planner
//! (`PackedDeviceEngine::plan_lot`) groups the whole lot, not each
//! cohort: one job per lane pass of up to 64 packable dies on the same
//! defective core, one job per defective die the lanes cannot carry, and
//! one job per 64-die cohort for that cohort's healthy dies. Every job
//! holds one kind of die. Consecutive 64-die cohorts stay the unit of
//! *reporting*: the floor's collector holds a cohort's reports until every
//! die in it has reported, so which job computes a die never changes which
//! dies are reported together. Jobs go out in the order of the first
//! cohort they hold a die of — within a cohort, lane passes (longest core
//! test first), then fallbacks, then the healthy dies — so the first
//! cohort is whole as early as the lanes allow.
//!
//! # Why patching the baseline is sound
//!
//! The packed path is only used when the judge found **every** step
//! word-level: all routes independent (no serial wire sharing between
//! cores), all tested wrappers in transparent INTEST modes with exact
//! widths, no armed wrapper outside the lanes. Under those conditions a
//! defect inside core X can influence *only* X's own produced bits: each
//! `configure` clears the retiming register of every session that starts
//! and reloads a carried session's CAS scheme and wrapper instruction
//! unchanged, keeping its register (a configuration shift clocks no data,
//! so a carried session's slots are those of an uninterrupted run),
//! session plans are pure functions of the core descriptions, every lane
//! observes only its own plan, and every lane's traffic flows over
//! exclusive wires. Cycle counters are plan-arithmetic, identical for
//! every device. So a defective device's
//! report differs from the healthy baseline in exactly two places — the
//! verdict and the signature of the defective core's session(s) — and those
//! are what the packed lane run recomputes. The differential suite in
//! `tests/fleet_differential.rs` pins this bit for bit across fleet sizes
//! {1, 2, 63, 64, 65, 256} and thread counts {1, 2, 4}, and that every
//! packed run reports whole cohorts in device order.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

use casbus::RouteTableCache;
use casbus_controller::CompiledProgram;
use casbus_soc::models::{PackedBistLanes, PackedMemoryLanes, PackedScanLanes};
use casbus_soc::{CoreDescription, SocDescription, TestMethod};
use casbus_tpg::lanes::{broadcast, LaneStreams, LANES};
use casbus_tpg::Verdict;

use crate::engine::{CompileBlocker, CompiledEngine};
use crate::fleet::{test_device, DeviceReport, FaultKind, InjectedFault};
use crate::report::SocTestReport;
use crate::session::{lane_signature, verdict, CompiledSession, Segment, SessionCache};
use crate::simulator::{SimError, SocSimulator};

/// Devices per cohort, the unit a packed lot reports in, and the lane
/// capacity of one machine word.
pub const COHORT_LANES: usize = LANES;

/// One die of a lot: its device id and the defect stamped on it.
pub(crate) type Member = (u64, Option<InjectedFault>);

/// The 64-die cohort device `device_id` reports with.
pub(crate) fn cohort_of(device_id: u64) -> usize {
    (device_id / COHORT_LANES as u64) as usize
}

/// One session of a core in the program, however many steps carry it:
/// where its verdict and signature live in the report, and the session it
/// executes.
struct PackedLaneSpec {
    /// Index into [`SocTestReport::verdicts`] / `signatures`.
    slot: usize,
    session: Arc<CompiledSession>,
}

/// The compiled packed device-parallel engine: one healthy baseline report
/// plus per-core lane specs, shared read-only by every job of a fleet run.
///
/// Built once per [`FleetRunner`](crate::FleetRunner) from exactly the
/// artifacts the scalar path uses — the shared SoC description, compiled
/// program, route cache and compiled sessions — so route-table cache
/// misses stay independent of fleet size and execution mode. A searched
/// runner builds it from its reference gate's run at construction; a plain
/// runner compiles it on its first packed run.
pub struct PackedDeviceEngine {
    baseline: SocTestReport,
    /// Lane specs per core name (one entry per tested occurrence).
    lanes: HashMap<String, Vec<PackedLaneSpec>>,
    /// `None` when the baseline run was judged word-level at every step — the
    /// defect-containment argument holds and defective dies may take the
    /// packed lane path. Otherwise the first blocking clause's reason name,
    /// exported under `fleet.packed.fallback.reason.*`.
    program_blocker: Option<&'static str>,
    soc: Arc<SocDescription>,
    plan: Arc<CompiledProgram>,
    cache: Arc<RouteTableCache>,
    sessions: Arc<SessionCache>,
}

impl std::fmt::Debug for PackedDeviceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedDeviceEngine")
            .field("cores", &self.lanes.len())
            .field("program_blocker", &self.program_blocker)
            .field("baseline_pass", &self.baseline.all_pass())
            .finish_non_exhaustive()
    }
}

impl PackedDeviceEngine {
    /// Compiles the packed engine: runs the program once on a healthy die
    /// through the compiled engine (warming `cache` on every wave shape,
    /// exactly as the first scalar device would). That run's report is the
    /// baseline, and its verdicts, one per session in start order, give
    /// each session's report slot. The first step the engine's judge finds
    /// it cannot run word-level blocks the lanes; such a program's baseline
    /// runs whole on the reference interpreter.
    ///
    /// # Errors
    ///
    /// Propagates configuration and width errors from the baseline run.
    pub fn compile(
        soc: &Arc<SocDescription>,
        plan: &Arc<CompiledProgram>,
        cache: &Arc<RouteTableCache>,
    ) -> Result<Self, SimError> {
        Self::compile_with_sessions(soc, plan, cache, Arc::default())
    }

    /// [`compile`](Self::compile) over a shared session cache: the
    /// baseline run and the lanes reuse sessions the caller's other
    /// engines compiled, and the scalar fallback reuses them too.
    pub(crate) fn compile_with_sessions(
        soc: &Arc<SocDescription>,
        plan: &Arc<CompiledProgram>,
        cache: &Arc<RouteTableCache>,
        sessions: Arc<SessionCache>,
    ) -> Result<Self, SimError> {
        let mut sim = SocSimulator::new_shared(Arc::clone(soc), plan.bus_width())?;
        let judged = CompiledEngine::new()
            .with_cache(Arc::clone(cache))
            .with_sessions(Arc::clone(&sessions))
            .run_judged(&mut sim, plan.program())?;
        Ok(Self::from_judged(soc, plan, cache, sessions, judged))
    }

    /// The engine of a judged healthy run of `plan`
    /// ([`CompiledEngine::run_judged`] on a fresh die, over `cache` and
    /// `sessions`): its report is the baseline, its blocker the program
    /// blocker. A blocked program runs no lane, so it compiles no lane
    /// spec and no session.
    pub(crate) fn from_judged(
        soc: &Arc<SocDescription>,
        plan: &Arc<CompiledProgram>,
        cache: &Arc<RouteTableCache>,
        sessions: Arc<SessionCache>,
        (baseline, blocker): (SocTestReport, Option<CompileBlocker>),
    ) -> Self {
        let mut lanes: HashMap<String, Vec<PackedLaneSpec>> = HashMap::new();
        for (slot, (name, _)) in baseline.verdicts.iter().enumerate() {
            let lane_core = soc.core_by_name(name).filter(|_| blocker.is_none());
            if let Some((_, desc)) = lane_core {
                lanes.entry(name.clone()).or_default().push(PackedLaneSpec {
                    slot,
                    session: sessions.get_or_compile(desc),
                });
            }
        }
        Self {
            baseline,
            lanes,
            program_blocker: blocker.map(CompileBlocker::reason),
            soc: Arc::clone(soc),
            plan: Arc::clone(plan),
            cache: Arc::clone(cache),
            sessions,
        }
    }

    /// The healthy device's report — what every defect-free die receives.
    pub fn baseline(&self) -> &SocTestReport {
        &self.baseline
    }

    /// Whether `fault` can ride a packed lane: the whole program must be
    /// fast-path expressible, the defective core must run exactly one
    /// session (a lane starts from a fresh core, but a later session of a
    /// defective core starts from whatever state the defect left), and the
    /// fault's kind must match its tested method (the lane models are the
    /// scan, BIST, and memory models' word-wise lifts).
    pub fn fault_packable(&self, fault: &InjectedFault) -> bool {
        self.program_blocker.is_none()
            && self.lanes.get(&fault.core).is_some_and(|specs| {
                specs.len() == 1 && fault.kind.matches(specs[0].session.desc().method())
            })
    }

    /// Why `fault` cannot ride a packed lane, or `None` when it can.
    ///
    /// The returned name is a stable metric suffix: the fleet tallies each
    /// defective device's reason under
    /// `fleet.packed.fallback.reason.<name>`. Program-level blockers
    /// (`step.*`) name the first fast-path clause a step of the baseline
    /// run failed; defect placements the lane encoding cannot carry come
    /// back as `defect.untested_core` (the core never runs a session in
    /// this program), `defect.retested_core` (it runs more than one) or
    /// `defect.method_mismatch` (the fault kind does not match the tested
    /// method).
    pub fn fallback_reason(&self, fault: &InjectedFault) -> Option<&'static str> {
        if self.fault_packable(fault) {
            return None;
        }
        if let Some(reason) = self.program_blocker {
            return Some(reason);
        }
        match self.lanes.get(&fault.core).map_or(0, Vec::len) {
            0 => Some("defect.untested_core"),
            1 => Some("defect.method_mismatch"),
            _ => Some("defect.retested_core"),
        }
    }

    /// The lane passes of a lot whose dies, in device order, carry
    /// `faults`: each pass holds the indices into `faults` of up to
    /// [`COHORT_LANES`] packable dies of one defective core, and a core's
    /// dies fill its passes in device order. Cores go longest lane pass
    /// first, ties in the order of their first defect.
    pub(crate) fn lane_passes<'a>(
        &self,
        faults: impl IntoIterator<Item = Option<&'a InjectedFault>>,
    ) -> Vec<Vec<usize>> {
        let mut by_core: Vec<(&str, Vec<usize>)> = Vec::new();
        for (idx, fault) in faults.into_iter().enumerate() {
            let Some(fault) = fault.filter(|f| self.fault_packable(f)) else {
                continue;
            };
            match by_core.iter_mut().find(|(core, _)| *core == fault.core) {
                Some((_, dies)) => dies.push(idx),
                None => by_core.push((&fault.core, vec![idx])),
            }
        }
        // A packable core runs exactly one session.
        by_core.sort_by_key(|(core, _)| Reverse(self.lanes[*core][0].session.len()));
        by_core
            .iter()
            .flat_map(|(_, dies)| dies.chunks(COHORT_LANES).map(<[usize]>::to_vec))
            .collect()
    }

    /// Plans a packed lot's pool jobs from its dies, in device order. Each
    /// job holds one kind of die: a lane pass of up to [`COHORT_LANES`]
    /// packable dies on one defective core ([`lane_passes`](Self::lane_passes)),
    /// a defective die the lanes cannot carry, or one cohort's healthy
    /// dies. Every die lands in exactly one job, in device order within
    /// it. Jobs come in the order of the first cohort they hold a die of;
    /// within a cohort, lane passes, then fallbacks, then healthy dies.
    /// A pure function of the members and the plan, so the jobs of a lot
    /// are the same on a floor and in a standalone runner.
    pub(crate) fn plan_lot(&self, members: Vec<Member>) -> Vec<Vec<Member>> {
        let mut fallbacks = Vec::new();
        let mut healthy: Vec<Vec<usize>> = Vec::new();
        for (idx, (device_id, fault)) in members.iter().enumerate() {
            match fault {
                None => match healthy.last_mut() {
                    Some(job) if cohort_of(members[job[0]].0) == cohort_of(*device_id) => {
                        job.push(idx);
                    }
                    _ => healthy.push(vec![idx]),
                },
                Some(fault) if !self.fault_packable(fault) => fallbacks.push(vec![idx]),
                Some(_) => {}
            }
        }
        let mut jobs = self.lane_passes(members.iter().map(|(_, fault)| fault.as_ref()));
        jobs.extend(fallbacks);
        jobs.extend(healthy);
        // Stable: kinds keep their order within a cohort.
        jobs.sort_by_key(|job| cohort_of(members[job[0]].0));
        let mut members: Vec<Option<Member>> = members.into_iter().map(Some).collect();
        jobs.into_iter()
            .map(|job| {
                job.into_iter()
                    .map(|idx| members[idx].take().expect("each die lands in one job"))
                    .collect()
            })
            .collect()
    }

    /// Tests up to [`COHORT_LANES`] devices in one job: healthy dies clone
    /// the baseline, packable defective dies share packed lane runs grouped
    /// by defective core, and inexpressible dies fall back to the scalar
    /// per-device path. Reports come back in member order. Any mix of dies
    /// is served exactly; the lot planner (`plan_lot`) hands it one kind
    /// at a time.
    ///
    /// # Errors
    ///
    /// Propagates scalar-fallback simulation errors (packed lanes and
    /// baseline clones are infallible).
    ///
    /// # Panics
    ///
    /// Panics if the job exceeds [`COHORT_LANES`] members.
    pub fn run_cohort(
        &self,
        members: Vec<(u64, Option<InjectedFault>)>,
    ) -> Result<Vec<DeviceReport>, SimError> {
        assert!(members.len() <= COHORT_LANES, "job exceeds lane capacity");
        let mut reports: Vec<Option<SocTestReport>> = vec![None; members.len()];
        // Group packable defective members by defective core, preserving
        // member order so lane assignment is deterministic.
        let mut groups: Vec<(&str, Vec<usize>)> = Vec::new();
        for (idx, (device_id, fault)) in members.iter().enumerate() {
            match fault {
                None => reports[idx] = Some(self.baseline.clone()),
                Some(f) if self.fault_packable(f) => {
                    match groups.iter_mut().find(|(name, _)| *name == f.core) {
                        Some((_, group)) => group.push(idx),
                        None => groups.push((f.core.as_str(), vec![idx])),
                    }
                }
                Some(f) => {
                    let scalar = test_device(
                        &self.soc,
                        &self.plan,
                        &self.cache,
                        &self.sessions,
                        *device_id,
                        Some(f.clone()),
                    )?;
                    reports[idx] = Some(scalar.report);
                }
            }
        }
        for (core, group) in groups {
            // A packable core runs exactly one session.
            let spec = &self.lanes[core][0];
            let faults: Vec<&InjectedFault> = group
                .iter()
                .map(|&idx| members[idx].1.as_ref().expect("defective member"))
                .collect();
            let outcomes = run_packed_lane(spec, &faults);
            for (&idx, (verdict, signature)) in group.iter().zip(outcomes) {
                let mut report = self.baseline.clone();
                report.verdicts[spec.slot].1 = verdict;
                report.signatures[spec.slot].1 = signature;
                reports[idx] = Some(report);
            }
        }
        Ok(members
            .into_iter()
            .zip(reports)
            .map(|((device_id, fault), report)| DeviceReport {
                device_id,
                fault,
                report: report.expect("every member resolved"),
            })
            .collect())
    }
}

/// Word-level lane twin of one behavioural core model, dispatching the two
/// clock edges the session plans use. Construction stamps each lane's
/// defect; kind/method agreement is guaranteed by
/// [`PackedDeviceEngine::fault_packable`]. Payloads are boxed — one model
/// lives per lane pass, so the indirection is off the per-cycle path and
/// keeps the variants size-balanced.
enum PackedModel {
    Scan(Box<PackedScanLanes>),
    Bist(Box<PackedBistLanes>),
    Memory(Box<PackedMemoryLanes>),
}

impl PackedModel {
    fn build(desc: &CoreDescription, faults: &[&InjectedFault]) -> Self {
        match desc.method() {
            TestMethod::Scan { chains, .. } => {
                let mut packed = PackedScanLanes::new(desc.name(), chains);
                for (lane, fault) in faults.iter().enumerate() {
                    let FaultKind::ScanStuckAt {
                        chain,
                        position,
                        stuck_at,
                    } = fault.kind
                    else {
                        unreachable!("packable fault kinds match the tested method");
                    };
                    packed.inject_stuck_at(lane, chain, position, stuck_at);
                }
                Self::Scan(Box::new(packed))
            }
            TestMethod::Bist { width, .. } => {
                let mut packed = PackedBistLanes::new(desc.name(), *width);
                for (lane, fault) in faults.iter().enumerate() {
                    let FaultKind::BistResponse { after } = fault.kind else {
                        unreachable!("packable fault kinds match the tested method");
                    };
                    packed.inject_fault_after(lane, after);
                }
                Self::Bist(Box::new(packed))
            }
            TestMethod::Memory { words, data_width } => {
                let mut packed = PackedMemoryLanes::new(desc.name(), *words, *data_width);
                for (lane, fault) in faults.iter().enumerate() {
                    let FaultKind::MemoryStuckCell { word, bit, value } = fault.kind else {
                        unreachable!("packable fault kinds match the tested method");
                    };
                    packed.inject_stuck_cell(lane, word, bit, value);
                }
                Self::Memory(Box::new(packed))
            }
            _ => unreachable!("packable faults land on scan, BIST, or memory cores"),
        }
    }

    fn test_clock_lanes(&mut self, inputs: &[u64], outs: &mut [u64]) {
        match self {
            Self::Scan(m) => m.test_clock_lanes(inputs, outs),
            Self::Bist(m) => m.test_clock_lanes(inputs, outs),
            Self::Memory(m) => m.test_clock_lanes(inputs, outs),
        }
    }

    fn capture_clock_lanes(&mut self) {
        match self {
            Self::Scan(m) => m.capture_clock_lanes(),
            Self::Bist(m) => m.capture_clock_lanes(),
            Self::Memory(m) => m.capture_clock_lanes(),
        }
    }
}

/// Runs one core's session once for up to 64 defective devices: lane `l`
/// carries `faults[l]`. Returns each lane's `(verdict, signature)`.
///
/// Per-cycle mirror of the compiled engine's `CompiledLane::run_words`,
/// with the device axis packed into words: the session's `len` observation
/// slots, one initial all-zero slot (the retimed zeros of `t = 0`), each
/// segment's `observed` prefix of shift cycles, capture cycles recording a
/// zero slot. Stimuli are broadcast from the compiled session, so every
/// lane's expected response is the same healthy one: a lane's mismatches
/// are exactly the bits where its streams differ from the session's
/// healthy streams.
fn run_packed_lane(spec: &PackedLaneSpec, faults: &[&InjectedFault]) -> Vec<(Verdict, u64)> {
    let session = &spec.session;
    let ports = session.ports();
    debug_assert!(!faults.is_empty() && faults.len() <= LANES);

    let mut packed = PackedModel::build(session.desc(), faults);
    let mut streams = LaneStreams::new(ports);
    streams.push_zeros();
    let mut in_words = vec![0u64; ports];
    let mut out_words = vec![0u64; ports];
    for segment in session.segments() {
        match *segment {
            Segment::Shift {
                cycles,
                observed,
                planes,
            } => {
                let stimulus = session.stimulus(planes);
                for c in 0..cycles {
                    for (word, plane) in in_words.iter_mut().zip(stimulus) {
                        *word = broadcast((plane >> c) & 1 == 1);
                    }
                    packed.test_clock_lanes(&in_words, &mut out_words);
                    if c < observed {
                        streams.push(&out_words);
                    }
                }
            }
            Segment::Capture { count, observed } => {
                for c in 0..count {
                    packed.capture_clock_lanes();
                    if c < observed {
                        streams.push_zeros();
                    }
                }
            }
        }
    }
    streams
        .extract_lanes(faults.len())
        .iter()
        .map(|lane| {
            let mismatches = lane
                .iter()
                .zip(session.healthy())
                .map(|(seen, healthy)| seen.hamming_distance(healthy))
                .sum();
            (verdict(mismatches), lane_signature(lane))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_controller::schedule::packed_schedule;
    use casbus_soc::catalog;

    fn engine_for(soc: &SocDescription, n: usize) -> PackedDeviceEngine {
        let schedule = packed_schedule(soc, n).expect("schedule");
        let plan = Arc::new(CompiledProgram::compile(soc, n, schedule).expect("plan"));
        let soc = Arc::new(soc.clone());
        let cache = Arc::new(RouteTableCache::new());
        PackedDeviceEngine::compile(&soc, &plan, &cache).expect("compile")
    }

    /// Scalar twin of one device, built exactly like the fleet's fallback.
    fn scalar_report(
        soc: &SocDescription,
        n: usize,
        fault: Option<InjectedFault>,
    ) -> SocTestReport {
        let schedule = packed_schedule(soc, n).expect("schedule");
        let plan = CompiledProgram::compile(soc, n, schedule).expect("plan");
        let mut sim = SocSimulator::new(soc, n).expect("sim");
        if let Some(fault) = &fault {
            fault.apply(&mut sim).expect("inject");
        }
        CompiledEngine::new()
            .run(&mut sim, plan.program())
            .expect("run")
    }

    #[test]
    fn a_core_tested_again_after_a_carried_session_falls_back_and_stays_exact() {
        // `scan3` runs twice on wires 0..3: its first session carried
        // across `scan2`'s start, its second starting as the first ends,
        // while `scan2` is still carried. Each session has its own slot; a
        // `scan2` defect rides a lane, and a `scan3` defect, whose second
        // session starts from the state the defect left, runs scalar.
        use casbus_controller::schedule::{Schedule, ScheduledTest};
        let soc = catalog::figure2a_scan_soc();
        let time = |idx: usize| soc.cores()[idx].test_time();
        let test = |idx: usize, wire_start: usize, start: u64| ScheduledTest {
            core: casbus_soc::CoreId(idx),
            core_name: soc.cores()[idx].name().to_owned(),
            wire_start,
            wires: soc.cores()[idx].required_ports(),
            start,
            duration: time(idx),
        };
        assert!(
            100 + time(1) > time(0),
            "scan2 outlasts scan3's first session"
        );
        let tests = vec![test(0, 0, 0), test(1, 3, 100), test(0, 0, time(0))];
        let schedule = Schedule::from_tests(5, tests).expect("schedule");
        let plan = Arc::new(CompiledProgram::compile(&soc, 5, schedule).expect("plan"));
        let cache = Arc::new(RouteTableCache::new());
        let engine =
            PackedDeviceEngine::compile(&Arc::new(soc.clone()), &plan, &cache).expect("compile");
        let tested: Vec<&str> = engine
            .baseline()
            .verdicts
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        assert_eq!(tested, ["scan3", "scan2", "scan3"]);

        let spec = crate::VariationSpec::new(11, 1.0);
        let members: Vec<(u64, Option<InjectedFault>)> =
            (0..16).map(|id| (id, spec.fault_for(&soc, id))).collect();
        let reports = engine.run_cohort(members.clone()).expect("cohort");
        let mut reasons = Vec::new();
        for (report, (_, fault)) in reports.iter().zip(&members) {
            let fault = fault.as_ref().expect("rate 1.0");
            let reason = engine.fallback_reason(fault);
            let expected = (fault.core == "scan3").then_some("defect.retested_core");
            assert_eq!(reason, expected, "{fault:?}");
            reasons.push(reason);
            let mut sim = SocSimulator::new(&soc, 5).expect("sim");
            fault.apply(&mut sim).expect("inject");
            let scalar = CompiledEngine::new()
                .run(&mut sim, plan.program())
                .expect("run");
            assert_eq!(report.report, scalar, "{fault:?}");
        }
        assert!(reasons.contains(&None) && reasons.contains(&Some("defect.retested_core")));
    }

    #[test]
    fn every_planned_job_holds_one_kind_of_die() {
        // Every die lands in exactly one job, in device order; a lane pass
        // holds at most 64 packable dies of one core, a fallback job one
        // die, a healthy job the healthy dies of one cohort; jobs go out
        // in the order of the first cohort they hold a die of; and each
        // core fills as few passes as 64 lanes allow.
        let (scan, maintenance) = (catalog::figure2a_scan_soc(), catalog::maintenance_soc());
        let figure1 = catalog::figure1_soc();
        let mut blocked = engine_for(&figure1, 8);
        blocked.program_blocker = Some("test.forced_off");
        let engines = [
            (&scan, engine_for(&scan, 4)),
            (&maintenance, engine_for(&maintenance, 4)),
            (&figure1, engine_for(&figure1, 8)),
            (&figure1, blocked),
        ];
        for (soc, engine) in &engines {
            // A die's kind: its lane's core, a fallback, or its cohort's
            // healthy dies.
            let kind = |(id, fault): &Member| match fault {
                None => format!("healthy {}", cohort_of(*id)),
                Some(f) if engine.fault_packable(f) => format!("lane {}", f.core),
                Some(_) => "fallback".to_owned(),
            };
            for (seed, rate) in [(3u64, 0.1), (7, 0.25), (11, 0.6), (13, 1.0)] {
                let spec = crate::VariationSpec::new(seed, rate);
                for devices in [1u64, 63, 64, 65, 200, 700] {
                    let members: Vec<Member> = (0..devices)
                        .map(|id| (id, spec.fault_for(soc, id)))
                        .collect();
                    let context = format!("{} seed {seed}, {devices} dies", soc.name());
                    let jobs = engine.plan_lot(members.clone());
                    let mut served: Vec<&Member> = jobs.iter().flatten().collect();
                    served.sort_by_key(|(id, _)| *id);
                    assert!(served.into_iter().eq(&members), "{context}");
                    let mut passes = 0;
                    for job in &jobs {
                        assert!(job.len() <= COHORT_LANES, "{context}");
                        assert!(job.windows(2).all(|w| w[0].0 < w[1].0), "{context}");
                        let first = kind(&job[0]);
                        assert!(job.iter().all(|m| kind(m) == first), "{context}: {job:?}");
                        assert!(first != "fallback" || job.len() == 1, "{context}");
                        passes += usize::from(first.starts_with("lane"));
                    }
                    let cohorts: Vec<usize> = jobs.iter().map(|job| cohort_of(job[0].0)).collect();
                    assert!(cohorts.windows(2).all(|w| w[0] <= w[1]), "{context}");
                    let mut lane_dies: HashMap<String, usize> = HashMap::new();
                    for kind in members.iter().map(kind).filter(|k| k.starts_with("lane")) {
                        *lane_dies.entry(kind).or_default() += 1;
                    }
                    let fewest: usize = lane_dies.values().map(|n| n.div_ceil(COHORT_LANES)).sum();
                    assert_eq!(passes, fewest, "{context}");
                    let faults = members.iter().map(|(_, fault)| fault.as_ref());
                    assert_eq!(engine.lane_passes(faults).len(), passes, "{context}");
                }
            }
        }
    }

    #[test]
    fn healthy_cohort_members_clone_the_baseline() {
        let soc = catalog::figure2a_scan_soc();
        let engine = engine_for(&soc, 4);
        let members: Vec<(u64, Option<InjectedFault>)> = (0..5).map(|id| (id, None)).collect();
        let reports = engine.run_cohort(members).expect("cohort");
        assert_eq!(reports.len(), 5);
        for report in &reports {
            assert_eq!(&report.report, engine.baseline());
            assert!(report.passed());
        }
        assert_eq!(reports[3].device_id, 3, "member order preserved");
    }

    #[test]
    fn packed_defective_lanes_match_scalar_reports() {
        let soc = catalog::figure2a_scan_soc();
        let engine = engine_for(&soc, 4);
        assert!(
            engine.program_blocker.is_none(),
            "scan SoC is fully packable"
        );
        // A full 64-lane cohort of distinct defects across both cores.
        let spec = crate::VariationSpec::new(11, 1.0);
        let members: Vec<(u64, Option<InjectedFault>)> = (0..64)
            .map(|id| (id, Some(spec.fault_for(&soc, id).expect("rate 1.0"))))
            .collect();
        for (_, fault) in &members {
            assert!(engine.fault_packable(fault.as_ref().unwrap()));
        }
        let reports = engine.run_cohort(members.clone()).expect("cohort");
        for (idx, report) in reports.iter().enumerate() {
            let expected = scalar_report(&soc, 4, members[idx].1.clone());
            assert_eq!(report.report, expected, "device {idx}");
        }
    }

    #[test]
    fn forced_fallback_matches_scalar_reports() {
        // Flip the packability gate off by hand: every defective member
        // must take the scalar per-device branch and still produce the
        // exact scalar report.
        let soc = catalog::figure2a_scan_soc();
        let mut engine = engine_for(&soc, 4);
        engine.program_blocker = Some("test.forced_off");
        let spec = crate::VariationSpec::new(5, 0.7);
        let members: Vec<(u64, Option<InjectedFault>)> =
            (0..8).map(|id| (id, spec.fault_for(&soc, id))).collect();
        assert!(
            members.iter().any(|(_, f)| f.is_some()),
            "spec stamps some defects"
        );
        for (_, fault) in &members {
            if let Some(fault) = fault {
                assert!(!engine.fault_packable(fault), "gate forced off");
                assert_eq!(engine.fallback_reason(fault), Some("test.forced_off"));
            }
        }
        let reports = engine.run_cohort(members.clone()).expect("cohort");
        for (idx, report) in reports.iter().enumerate() {
            let expected = scalar_report(&soc, 4, members[idx].1.clone());
            assert_eq!(report.report, expected, "device {idx}");
        }
    }

    #[test]
    fn a_defect_of_the_wrong_kind_falls_back_and_fails_like_apply() {
        // No variation spec stamps a defect its core's test method cannot
        // carry, so build one by hand: a BIST response defect on a scan
        // core. The lanes refuse it as a method mismatch, and the scalar
        // fallback returns the error `InjectedFault::apply` returns.
        let soc = catalog::figure2a_scan_soc();
        let engine = engine_for(&soc, 4);
        let fault = InjectedFault {
            core: "scan3".to_owned(),
            kind: FaultKind::BistResponse { after: 0 },
        };
        assert!(!engine.fault_packable(&fault));
        assert_eq!(
            engine.fallback_reason(&fault),
            Some("defect.method_mismatch")
        );
        let mut sim = SocSimulator::new(&soc, 4).expect("sim");
        let applied = fault.apply(&mut sim).expect_err("a scan core has no BIST");
        assert_eq!(applied, SimError::UnknownCore("scan3".to_owned()));
        let served = engine
            .run_cohort(vec![(0, None), (1, Some(fault))])
            .expect_err("the fallback applies the same fault");
        assert_eq!(served, applied);
    }

    #[test]
    fn bist_defects_ride_packed_lanes() {
        // A BIST-only SoC: every defect is a corrupted response stream, and
        // every one must take the lane path and still match its scalar twin.
        let soc = catalog::figure2b_bist_soc();
        let engine = engine_for(&soc, 3);
        assert!(
            engine.program_blocker.is_none(),
            "BIST SoC is fully packable: {engine:?}"
        );
        let spec = crate::VariationSpec::new(3, 1.0);
        let members: Vec<(u64, Option<InjectedFault>)> = (0..64)
            .map(|id| (id, Some(spec.fault_for(&soc, id).expect("rate 1.0"))))
            .collect();
        for (_, fault) in &members {
            let fault = fault.as_ref().unwrap();
            assert!(matches!(fault.kind, FaultKind::BistResponse { .. }));
            assert!(engine.fault_packable(fault));
            assert_eq!(engine.fallback_reason(fault), None);
        }
        let reports = engine.run_cohort(members.clone()).expect("cohort");
        for (idx, report) in reports.iter().enumerate() {
            let expected = scalar_report(&soc, 3, members[idx].1.clone());
            assert_eq!(report.report, expected, "device {idx}");
        }
    }

    #[test]
    fn mixed_method_cohorts_match_scalar_reports() {
        // The maintenance SoC tests one core of each injectable method:
        // a full cohort draws scan, BIST, and memory defects and every one
        // rides its own packed lane model.
        let soc = catalog::maintenance_soc();
        let engine = engine_for(&soc, 4);
        assert!(
            engine.program_blocker.is_none(),
            "maintenance SoC is fully packable: {engine:?}"
        );
        let spec = crate::VariationSpec::new(17, 1.0);
        let members: Vec<(u64, Option<InjectedFault>)> = (0..64)
            .map(|id| (id, Some(spec.fault_for(&soc, id).expect("rate 1.0"))))
            .collect();
        let mut kinds_seen = [false; 3];
        for (_, fault) in &members {
            let fault = fault.as_ref().unwrap();
            kinds_seen[match fault.kind {
                FaultKind::ScanStuckAt { .. } => 0,
                FaultKind::BistResponse { .. } => 1,
                FaultKind::MemoryStuckCell { .. } => 2,
            }] = true;
            assert!(engine.fault_packable(fault), "{fault:?}");
        }
        assert_eq!(
            kinds_seen, [true; 3],
            "64 draws cover scan, BIST, and memory defects"
        );
        let reports = engine.run_cohort(members.clone()).expect("cohort");
        for (idx, report) in reports.iter().enumerate() {
            let expected = scalar_report(&soc, 4, members[idx].1.clone());
            assert_eq!(report.report, expected, "device {idx}");
        }
    }
}
