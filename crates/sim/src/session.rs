//! Complete, verified test sessions for individual cores.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

use casbus::TamConfiguration;
use casbus_p1500::{TestableCore, WrapperInstruction};
use casbus_soc::{models, CoreDescription};
use casbus_tpg::{BitVec, Lfsr, Polynomial, Verdict};

use crate::report::{collect_lanes, drive_lanes_serial, LaneSession};
use crate::simulator::{SimError, SocSimulator};

/// What a wrapper does on one data clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// Shift the test data register by one bit.
    Shift,
    /// Fire the core's functional capture.
    Capture,
    /// Transfer shift stages to update/hold stages (EXTEST boundary drive).
    Update,
    /// Hold (core not involved this clock).
    Idle,
}

/// One run of a [`SessionPlan`]: `cycles` consecutive clocks of one kind,
/// their stimulus drawn from the plan's LFSR or all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    kind: ClockKind,
    cycles: usize,
    random: bool,
}

/// The plan of one core's test session, run-length encoded: runs of
/// `(kind, cycles, LFSR stimulus or zeros)` and the seed of the LFSR the
/// stimulus comes from. Stimuli come from an LFSR seeded by the core name,
/// so the golden model and the TAM run see identical data. A plan stores
/// no per-cycle vector: the reference interpreter and the session compiler
/// replay it one cycle at a time, drawing the stimulus as they go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    runs: Vec<Run>,
    ports: usize,
    seed: u64,
}

impl SessionPlan {
    /// Builds the deterministic session plan a core's test method calls
    /// for: its method's [`session`](casbus_soc::TestMethod::session) shape, stimulus
    /// from the core's LFSR, then one drain cycle.
    pub fn for_core(desc: &CoreDescription) -> Self {
        let shape = desc.method().session();
        let mut plan = Self {
            runs: Vec::new(),
            ports: desc.required_ports(),
            seed: stimulus_seed(desc.name()),
        };
        for _ in 0..shape.patterns {
            plan.push(ClockKind::Shift, shape.shift, true);
            plan.push(ClockKind::Capture, shape.capture, false);
        }
        plan.push(ClockKind::Shift, shape.flush, false);
        // One trailing cycle so the retiming register drains.
        plan.push(ClockKind::Shift, 1, false);
        plan
    }

    /// Appends `cycles` clocks, extending the last run when it has the same
    /// kind and stimulus source.
    fn push(&mut self, kind: ClockKind, cycles: usize, random: bool) {
        if cycles == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(last) if last.kind == kind && last.random == random => last.cycles += cycles,
            _ => self.runs.push(Run {
                kind,
                cycles,
                random,
            }),
        }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.cycles).sum()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Stimulus width (the core's `P`).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Shift cycles in the plan.
    pub fn shift_cycles(&self) -> usize {
        self.runs
            .iter()
            .filter(|run| run.kind == ClockKind::Shift)
            .map(|run| run.cycles)
            .sum()
    }

    /// A cursor at the plan's first cycle.
    pub(crate) fn into_cursor(self) -> PlanCursor {
        let lfsr = stimulus_lfsr(self.seed);
        PlanCursor {
            plan: self,
            run: 0,
            done: 0,
            lfsr,
        }
    }
}

/// Replays a [`SessionPlan`] one cycle at a time, drawing each cycle's
/// stimulus from the plan's LFSR into the caller's buffer. Both the
/// reference interpreter and [`CompiledSession::compile`] read their plans
/// through it.
#[derive(Debug, Clone)]
pub(crate) struct PlanCursor {
    plan: SessionPlan,
    /// The run holding the next cycle, and how many of its cycles have
    /// been replayed.
    run: usize,
    done: usize,
    lfsr: Lfsr,
}

impl PlanCursor {
    /// The next cycle's kind, without advancing; `None` past the plan.
    pub(crate) fn peek(&self) -> Option<ClockKind> {
        self.plan.runs.get(self.run).map(|run| run.kind)
    }

    /// Advances one cycle: writes its `ports` stimulus bits into
    /// `stimulus` and returns its kind. Past the plan it returns `None`
    /// and leaves `stimulus` alone.
    pub(crate) fn next_into(&mut self, stimulus: &mut BitVec) -> Option<ClockKind> {
        let run = *self.plan.runs.get(self.run)?;
        stimulus.clear();
        if run.random {
            let mut left = self.plan.ports;
            while left > 0 {
                let chunk = left.min(64);
                stimulus.push_word(self.lfsr.step_word(chunk), chunk);
                left -= chunk;
            }
        } else {
            stimulus.resize(self.plan.ports, false);
        }
        self.done += 1;
        if self.done == run.cycles {
            self.run += 1;
            self.done = 0;
        }
        Some(run.kind)
    }
}

/// The stimulus LFSR seed of a core: a fold of its name.
fn stimulus_seed(name: &str) -> u64 {
    name.bytes().fold(0xACE1u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    }) & 0xffff
}

fn stimulus_lfsr(seed: u64) -> Lfsr {
    let poly = Polynomial::primitive(16).expect("degree 16 tabulated");
    Lfsr::fibonacci(poly, seed.max(1)).expect("non-zero seed")
}

/// One batch of a [`CompiledSession`]: a run of up to 64 shift clocks, or a
/// run of consecutive capture clocks. `observed` of its clocks, a prefix,
/// fall inside the session's observation window: every plan cycle but the
/// final drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Segment {
    /// `cycles` (1..=64) shift clocks; their stimulus and golden response
    /// planes are the `ports` words at `planes` of the session's stimulus
    /// and golden arrays.
    Shift {
        cycles: usize,
        observed: usize,
        planes: usize,
    },
    /// `count` capture clocks.
    Capture { count: usize, observed: usize },
}

impl Segment {
    /// Clocks in the segment.
    pub(crate) fn cycles(self) -> usize {
        match self {
            Self::Shift { cycles, .. } => cycles,
            Self::Capture { count, .. } => count,
        }
    }
}

/// One core's session compiled once per served plan: the stimulus of every
/// shift run as per-port bit planes (bit `c` is the run's cycle `c`), the
/// shift/capture layout, the golden model's response planes from one
/// word-level pass, and the streams a healthy die returns. Every die of a
/// lot sees the same stimuli and the same healthy response, so engines
/// share one copy instead of rebuilding the [`SessionPlan`] and re-running
/// the golden model for each device. It is stored as words, never as
/// per-cycle vectors.
///
/// A lane observes exactly `len` slots, whatever else runs in its step:
/// slot 0 holds the zero the cleared retiming register returns, and slot
/// `t + 1` the response of plan cycle `t`, so every cycle but the final
/// drain is observed.
#[derive(Debug)]
pub(crate) struct CompiledSession {
    desc: CoreDescription,
    ports: usize,
    len: usize,
    segments: Vec<Segment>,
    stimulus: Vec<u64>,
    golden: Vec<u64>,
    healthy: Vec<BitVec>,
}

impl CompiledSession {
    /// Compiles `desc`'s [`SessionPlan`], read through its [`PlanCursor`],
    /// and runs its golden model once.
    pub(crate) fn compile(desc: &CoreDescription) -> Self {
        let plan = SessionPlan::for_core(desc);
        let ports = plan.ports();
        let len = plan.len();
        let mut session = Self {
            desc: desc.clone(),
            ports,
            len,
            segments: Vec::new(),
            stimulus: Vec::new(),
            golden: Vec::new(),
            healthy: (0..ports).map(|_| window_stream(len)).collect(),
        };
        let mut model = models::instantiate(desc);
        let mut cursor = plan.into_cursor();
        let mut stim = BitVec::new();
        let mut t = 0;
        // Cycle `t` is observed iff `t + 1 < len`.
        let observed = |start: usize, clocks: usize| clocks.min(len.saturating_sub(start + 1));
        while let Some(kind) = cursor.peek() {
            let start = t;
            if kind == ClockKind::Shift {
                let planes = session.stimulus.len();
                session.stimulus.resize(planes + ports, 0);
                while t - start < 64 && cursor.peek() == Some(ClockKind::Shift) {
                    cursor.next_into(&mut stim);
                    for (j, plane) in session.stimulus[planes..].iter_mut().enumerate() {
                        *plane |= u64::from(stim.get(j) == Some(true)) << (t - start);
                    }
                    t += 1;
                }
                let response = model.test_clock_words(&session.stimulus[planes..], t - start);
                let observed = observed(start, t - start);
                for (stream, &word) in session.healthy.iter_mut().zip(&response) {
                    stream.push_word(word, observed);
                }
                session.golden.extend(response);
                session.segments.push(Segment::Shift {
                    cycles: t - start,
                    observed,
                    planes,
                });
            } else {
                assert_eq!(
                    kind,
                    ClockKind::Capture,
                    "plans hold only shift and capture cycles"
                );
                while cursor.peek() == Some(ClockKind::Capture) {
                    cursor.next_into(&mut stim);
                    model.capture_clock();
                    t += 1;
                }
                let observed = observed(start, t - start);
                for stream in &mut session.healthy {
                    push_zeros(stream, observed);
                }
                session.segments.push(Segment::Capture {
                    count: t - start,
                    observed,
                });
            }
        }
        session
    }

    /// The core the session tests.
    pub(crate) fn desc(&self) -> &CoreDescription {
        &self.desc
    }

    /// Stimulus width (the core's `P`).
    pub(crate) fn ports(&self) -> usize {
        self.ports
    }

    /// Plan cycles, which is also the observation slots of its window.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The shift and capture runs, in plan order.
    pub(crate) fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The stimulus planes of the shift run whose planes start at `planes`.
    pub(crate) fn stimulus(&self, planes: usize) -> &[u64] {
        &self.stimulus[planes..planes + self.ports]
    }

    /// The golden response planes of the shift run whose planes start at
    /// `planes`.
    pub(crate) fn golden(&self, planes: usize) -> &[u64] {
        &self.golden[planes..planes + self.ports]
    }

    /// The per-port streams a healthy die returns over the session's
    /// window: the retimed zero of the first slot, then the golden response
    /// of every observed shift and a zero for every observed capture.
    pub(crate) fn healthy(&self) -> &[BitVec] {
        &self.healthy
    }
}

/// A tested core's session as the reference interpreter streams it. The
/// plan's cursor draws each cycle's stimulus as the device needs it, and
/// the core's own golden model — a fresh [`models::instantiate`] instance
/// on every call, so the oracle never reads the compiled sessions it
/// checks — clocks in lockstep with the device on the same stimulus. Each
/// observation slot is compared as it arrives, and the only per-cycle
/// storage is the port-major streams the signature folds.
pub(crate) struct ReferenceSession {
    cursor: PlanCursor,
    len: usize,
    /// Plan cycles drawn so far.
    done: usize,
    golden: Box<dyn TestableCore>,
    /// This cycle's stimulus, and its kind (`None` past the plan).
    stimulus: BitVec,
    kind: Option<ClockKind>,
    /// The golden output of the previous cycle, when that cycle shifted:
    /// what this cycle's observation slot must read, since the retiming
    /// register delays every response by one clock.
    expected: BitVec,
    expecting: bool,
    mismatches: usize,
    streams: Vec<BitVec>,
}

impl ReferenceSession {
    pub(crate) fn new(desc: &CoreDescription) -> Self {
        let plan = SessionPlan::for_core(desc);
        let len = plan.len();
        // A lane observes exactly `len` slots.
        let streams = (0..plan.ports())
            .map(|_| BitVec::with_capacity(len))
            .collect();
        Self {
            cursor: plan.into_cursor(),
            len,
            done: 0,
            golden: models::instantiate(desc),
            stimulus: BitVec::new(),
            kind: None,
            expected: BitVec::new(),
            expecting: false,
            mismatches: 0,
            streams,
        }
    }

    /// Draws the next plan cycle's stimulus; returns its kind, or `None`
    /// past the plan.
    pub(crate) fn advance(&mut self) -> Option<ClockKind> {
        self.kind = self.cursor.next_into(&mut self.stimulus);
        self.done += usize::from(self.kind.is_some());
        self.kind
    }

    /// The stimulus of the cycle [`advance`](Self::advance) last drew.
    pub(crate) fn stimulus(&self) -> &BitVec {
        &self.stimulus
    }

    /// Records this cycle's observation slot from the bus leaving the
    /// chain, counts its mismatches against the golden output of the
    /// previous cycle, then clocks the golden model on this cycle's
    /// stimulus. Does nothing past the plan.
    pub(crate) fn observe(&mut self, bus: &BitVec, wires: &[usize]) {
        let Some(kind) = self.kind.take() else {
            return;
        };
        for (j, stream) in self.streams.iter_mut().enumerate() {
            let bit = bus.get(wires[j]).expect("wire < n");
            stream.push(bit);
            if self.expecting && self.expected.get(j) != Some(bit) {
                self.mismatches += 1;
            }
        }
        self.expecting = match kind {
            ClockKind::Shift => {
                self.golden
                    .test_clock_into(&self.stimulus, &mut self.expected);
                true
            }
            ClockKind::Capture => {
                self.golden.capture_clock();
                false
            }
            _ => false,
        };
    }
}

impl LaneSession for ReferenceSession {
    fn len(&self) -> usize {
        self.len
    }

    fn remaining(&self) -> usize {
        self.len - self.done
    }

    fn verdict(&self) -> Verdict {
        verdict(self.mismatches)
    }

    fn signature(&self) -> u64 {
        lane_signature(&self.streams)
    }
}

/// Compiled sessions, compiled on first use and shared by every engine
/// that holds the `Arc`: a fleet's worker slots and packed engine, a
/// searched runner's validator and compiled gate, a floor's lots. Sessions
/// are found by core name and then by equal description, so one cache
/// serves several SoCs even when their core names collide.
#[derive(Default)]
pub(crate) struct SessionCache {
    sessions: RwLock<HashMap<String, Vec<Arc<CompiledSession>>>>,
}

impl SessionCache {
    /// The compiled session of `desc`, compiling it on a miss.
    ///
    /// A poisoned lock is recovered: the map gains an entry only after a
    /// compile has returned, so a panic under either guard leaves every
    /// entry a complete session.
    pub(crate) fn get_or_compile(&self, desc: &CoreDescription) -> Arc<CompiledSession> {
        let cached = |sessions: &HashMap<String, Vec<Arc<CompiledSession>>>| {
            sessions
                .get(desc.name())?
                .iter()
                .find(|session| session.desc == *desc)
                .cloned()
        };
        if let Some(session) = cached(&self.sessions.read().unwrap_or_else(PoisonError::into_inner))
        {
            return session;
        }
        // Compile under the write lock, so workers that miss together wait
        // for one compilation instead of each running the golden model.
        let mut sessions = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(session) = cached(&sessions) {
            return session;
        }
        let session = Arc::new(CompiledSession::compile(desc));
        sessions
            .entry(desc.name().to_owned())
            .or_default()
            .push(Arc::clone(&session));
        session
    }
}

impl fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sessions = self
            .sessions
            .read()
            .map_or(0, |s| s.values().map(Vec::len).sum());
        f.debug_struct("SessionCache")
            .field("sessions", &sessions)
            .finish()
    }
}

/// A stream for a window of `len` slots, holding its first slot: the zero
/// the cleared retiming register returns. Every plan ends with its drain
/// cycle, so `len >= 1`.
pub(crate) fn window_stream(len: usize) -> BitVec {
    let mut stream = BitVec::with_capacity(len);
    stream.push(false);
    stream
}

/// `Pass` for no mismatches, else `Fail` with the count.
pub(crate) fn verdict(mismatches: usize) -> Verdict {
    if mismatches == 0 {
        Verdict::Pass
    } else {
        Verdict::Fail { mismatches }
    }
}

/// Appends `count` zero bits, a word at a time.
pub(crate) fn push_zeros(stream: &mut BitVec, mut count: usize) {
    while count > 0 {
        let run = count.min(64);
        stream.push_word(0, run);
        count -= run;
    }
}

/// The outcome of one core's session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// The core tested.
    pub core_name: String,
    /// Pass/fail against the golden reference.
    pub verdict: Verdict,
    /// Data-phase cycles driven.
    pub data_cycles: u64,
    /// Configuration-phase cycles (CAS chain + update).
    pub config_cycles: u64,
}

impl SessionReport {
    /// Total session cycles.
    pub fn total_cycles(&self) -> u64 {
        self.data_cycles + self.config_cycles
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} config + {} data cycles)",
            self.core_name, self.verdict, self.config_cycles, self.data_cycles
        )
    }
}

/// Runs a complete verified session for one core: CONFIGURATION phase, TEST
/// phase on wires `0 .. P`, bit-exact comparison of everything shifted out
/// against the golden model. The TEST phase is a one-lane step of the
/// reference interpreter.
///
/// # Errors
///
/// Returns [`SimError::UnknownCore`] for bad names; propagates TAM errors.
pub fn run_core_session(
    sim: &mut SocSimulator,
    core_name: &str,
) -> Result<SessionReport, SimError> {
    let unknown = || SimError::UnknownCore(core_name.to_owned());
    let instruction = sim
        .soc()
        .core_by_name(core_name)
        .map(|(_, desc)| desc.method().wrapper_instruction())
        .ok_or_else(unknown)?;
    let cas_index = sim.cas_index(core_name)?;
    let mut config = TamConfiguration::all_bypass(sim.tam().cas_count());
    config.set(cas_index, sim.tam().contiguous_test(cas_index, 0)?)?;
    let mut wrappers = vec![WrapperInstruction::Bypass; sim.tam().cas_count()];
    wrappers[cas_index] = instruction;
    let start = sim.cycles();
    sim.configure(&config, &wrappers)?;
    let config_cycles = sim.cycles() - start;

    let mut lanes = collect_lanes(sim, [cas_index], ReferenceSession::new)?;
    let clocks = lanes.first().map_or(0, |lane| lane.session.len());
    drive_lanes_serial(sim, &mut lanes, clocks)?;
    let lane = lanes.pop().ok_or_else(unknown)?;
    let (verdict, data_cycles) = (lane.session.verdict(), clocks as u64);
    let trace = sim.trace();
    if trace.enabled() {
        trace.record(casbus_obs::TraceEvent::span(
            "session",
            core_name.to_owned(),
            start,
            sim.cycles() - start,
            vec![
                ("cas", cas_index.into()),
                ("config_cycles", config_cycles.into()),
                ("data_cycles", data_cycles.into()),
                ("pass", verdict.is_pass().into()),
            ],
        ));
    }
    Ok(SessionReport {
        core_name: core_name.to_owned(),
        verdict,
        data_cycles,
        config_cycles,
    })
}

/// A 64-bit FNV-style fold over a lane's port-major observed streams
/// (stream `j` = the bits core port `j` returned over the TAM, cycle
/// order). Both execution engines compute session signatures through this
/// one helper, so the differential suite can demand bit-identity.
pub(crate) fn lane_signature(streams: &[BitVec]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (port, stream) in streams.iter().enumerate() {
        hash ^= (port as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        hash = hash.wrapping_mul(PRIME);
        hash ^= stream.len() as u64;
        hash = hash.wrapping_mul(PRIME);
        for word in stream.words() {
            hash ^= *word;
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_obs::MemorySink;
    use casbus_soc::{catalog, TestMethod};

    use crate::fleet::{FaultKind, InjectedFault};

    fn session(soc: &casbus_soc::SocDescription, n: usize, core: &str) -> SessionReport {
        let mut sim = SocSimulator::new(soc, n).unwrap();
        run_core_session(&mut sim, core).unwrap()
    }

    #[test]
    fn scan_cores_pass() {
        let soc = catalog::figure2a_scan_soc();
        for core in ["scan3", "scan2"] {
            let report = session(&soc, 4, core);
            assert!(report.verdict.is_pass(), "{report}");
            assert!(report.config_cycles > 0);
        }
    }

    #[test]
    fn bist_cores_pass() {
        let soc = catalog::figure2b_bist_soc();
        for core in ["bist16", "bist8"] {
            let report = session(&soc, 2, core);
            assert!(report.verdict.is_pass(), "{report}");
        }
    }

    #[test]
    fn external_cores_pass() {
        let soc = catalog::figure2c_external_soc();
        for core in ["ext1", "ext4"] {
            let report = session(&soc, 4, core);
            assert!(report.verdict.is_pass(), "{report}");
        }
    }

    #[test]
    fn hierarchical_core_passes() {
        let soc = catalog::figure2d_hierarchical_soc();
        let report = session(&soc, 4, "parent");
        assert!(report.verdict.is_pass(), "{report}");
    }

    #[test]
    fn memory_core_passes() {
        let soc = catalog::maintenance_soc();
        let report = session(&soc, 3, "dram");
        assert!(report.verdict.is_pass(), "{report}");
    }

    #[test]
    fn all_figure1_cores_pass_individually() {
        let soc = catalog::figure1_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        for core in soc.cores() {
            let report = run_core_session(&mut sim, core.name()).unwrap();
            assert!(report.verdict.is_pass(), "{report}");
        }
    }

    #[test]
    fn injected_scan_fault_is_detected() {
        let soc = catalog::figure2a_scan_soc();
        let mut sim = SocSimulator::new(&soc, 4).unwrap();
        // Reach through the wrapper and break the core. The golden model is
        // built from the description, so it stays healthy.
        {
            let wrapper = sim.wrapper_mut("scan3").unwrap();
            // Downcast-free fault injection: shift a constant into the core
            // is not possible through the trait, so rebuild with ScanCore.
            let mut faulty = casbus_soc::models::ScanCore::new("scan3", vec![30, 28, 32]);
            faulty.inject_stuck_at(1, 14, true);
            *wrapper = casbus_p1500::Wrapper::new(Box::new(faulty) as Box<dyn TestableCore>, 8, 8);
        }
        let report = run_core_session(&mut sim, "scan3").unwrap();
        assert!(
            !report.verdict.is_pass(),
            "stuck-at must be caught: {report}"
        );
    }

    /// One detectable defect for an injectable core (scan, BIST, memory).
    fn defect_of(desc: &CoreDescription) -> Option<FaultKind> {
        match desc.method() {
            TestMethod::Scan { chains, .. } if !chains.is_empty() => Some(FaultKind::ScanStuckAt {
                chain: 0,
                position: chains[0] / 2,
                stuck_at: true,
            }),
            TestMethod::Bist { patterns, .. } if *patterns > 0 => Some(FaultKind::BistResponse {
                after: patterns / 2,
            }),
            TestMethod::Memory { words, .. } => Some(FaultKind::MemoryStuckCell {
                word: words / 2,
                bit: 0,
                value: true,
            }),
            _ => None,
        }
    }

    #[test]
    fn catalog_sessions_trace_one_span_that_matches_their_report() {
        // Every catalog core, healthy and with one defect per injectable
        // core: the trace holds one `configure` and one `session` span, the
        // span agrees with the report, and each defect's mismatch count is
        // the one pinned below (recorded before the session's TEST phase
        // moved onto the shared interpreter lane driver).
        let socs = [
            catalog::figure1_soc(),
            catalog::figure2a_scan_soc(),
            catalog::figure2b_bist_soc(),
            catalog::figure2c_external_soc(),
            catalog::figure2d_hierarchical_soc(),
            catalog::maintenance_soc(),
            catalog::itc02_like_soc(),
        ];
        let mut failing = Vec::new();
        for soc in &socs {
            for desc in soc.cores() {
                let name = desc.name();
                for kind in std::iter::once(None).chain(defect_of(desc).map(Some)) {
                    let mut sim = SocSimulator::new(soc, soc.max_ports()).unwrap();
                    if let Some(kind) = kind {
                        let core = name.to_owned();
                        InjectedFault { core, kind }.apply(&mut sim).unwrap();
                    }
                    let sink = MemorySink::new();
                    sim.set_trace(sink.clone());
                    let report = run_core_session(&mut sim, name).unwrap();
                    let context = format!("{} {name} {kind:?}", soc.name());
                    let events = sink.events();
                    assert_eq!(events.len(), 2, "{context}");
                    assert_eq!(events[0].name, "configure", "{context}");
                    let span = &events[1];
                    assert_eq!((span.cat, span.name.as_ref()), ("session", name));
                    let arg = |key: &str| {
                        let found = span.args.iter().find(|(k, _)| *k == key);
                        found.map(|(_, value)| value.clone())
                    };
                    let cas = sim.cas_index(name).unwrap();
                    assert_eq!(arg("cas"), Some(cas.into()), "{context}");
                    assert_eq!(arg("config_cycles"), Some(report.config_cycles.into()));
                    assert_eq!(arg("data_cycles"), Some(report.data_cycles.into()));
                    assert_eq!(arg("pass"), Some(report.verdict.is_pass().into()));
                    match (kind, report.verdict) {
                        (None, verdict) => assert!(verdict.is_pass(), "{context}"),
                        (Some(_), Verdict::Fail { mismatches }) => {
                            failing.push((name.to_owned(), mismatches));
                        }
                        (Some(_), verdict) => panic!("{context}: defect not detected: {verdict}"),
                    }
                }
            }
        }
        let pinned = [
            ("core1_cpu", 8763),
            ("core2_dsp", 4116),
            ("core3_sram", 8),
            ("core6_eeprom", 1),
            ("scan3", 958),
            ("scan2", 942),
            ("bist16", 6),
            ("bist8", 4),
            ("sibling", 95),
            ("app_cpu", 1257),
            ("dram", 1),
            ("codec", 8),
            ("cpu0", 70341),
            ("cpu1", 55028),
            ("dsp0", 29043),
            ("vu0", 12459),
            ("sram0", 6),
            ("sram1", 7),
            ("drameric", 1),
            ("periph0", 2840),
            ("periph1", 1396),
            ("glue", 254),
        ];
        let pinned: Vec<(String, usize)> = pinned.iter().map(|&(c, m)| (c.to_owned(), m)).collect();
        assert_eq!(failing, pinned);
    }

    #[test]
    fn plan_shapes() {
        let scan = CoreDescription::new(
            "s",
            TestMethod::Scan {
                chains: vec![4, 6],
                patterns: 3,
            },
        );
        let plan = SessionPlan::for_core(&scan);
        // 3·(6 shifts + capture) + 6 flush + 1 drain.
        assert_eq!(plan.len(), 3 * 7 + 6 + 1);
        assert_eq!(plan.ports(), 2);
        assert_eq!(plan.shift_cycles(), 3 * 6 + 7);
    }

    /// The plan replayed through its cursor: every cycle's stimulus and
    /// kind, and a fresh golden model's bit-serial output on each shift.
    fn replay(desc: &CoreDescription) -> Vec<(BitVec, ClockKind, Option<BitVec>)> {
        let mut cursor = SessionPlan::for_core(desc).into_cursor();
        let mut model = models::instantiate(desc);
        let mut stim = BitVec::new();
        let mut cycles = Vec::new();
        while let Some(kind) = cursor.next_into(&mut stim) {
            let gold = match kind {
                ClockKind::Shift => Some(model.test_clock(&stim)),
                _ => {
                    model.capture_clock();
                    None
                }
            };
            cycles.push((stim.clone(), kind, gold));
        }
        cycles
    }

    #[test]
    fn golden_run_is_reproducible() {
        let desc = CoreDescription::new(
            "g",
            TestMethod::Bist {
                width: 8,
                patterns: 20,
            },
        );
        let run = replay(&desc);
        assert_eq!(run.len(), SessionPlan::for_core(&desc).len());
        assert_eq!(run, replay(&desc));
    }

    #[test]
    fn compiled_sessions_hold_the_plan_and_golden_run() {
        // Every test method the catalog SoCs use: the compiled planes and
        // layout carry exactly the per-cycle plan and golden responses,
        // every cycle but the final drain is observed, and the healthy
        // streams are what the reference observation window records (a
        // retimed zero, then one slot per cycle, `len` slots in all).
        let socs = [
            catalog::figure1_soc(),
            catalog::figure2a_scan_soc(),
            catalog::figure2b_bist_soc(),
            catalog::figure2c_external_soc(),
            catalog::figure2d_hierarchical_soc(),
            catalog::maintenance_soc(),
        ];
        for desc in socs.iter().flat_map(|soc| soc.cores()) {
            let name = desc.name();
            let plan = SessionPlan::for_core(desc);
            let per_cycle = replay(desc);
            let session = CompiledSession::compile(desc);
            assert_eq!(session.len(), plan.len(), "{name}");
            assert_eq!(session.ports(), plan.ports(), "{name}");
            let (mut t, mut observed_cycles) = (0, 0);
            for segment in session.segments() {
                match *segment {
                    Segment::Shift {
                        cycles,
                        observed,
                        planes,
                    } => {
                        assert!((1..=64).contains(&cycles), "{name} {t}");
                        for (c, (stim, kind, gold)) in per_cycle[t..t + cycles].iter().enumerate() {
                            assert_eq!(*kind, ClockKind::Shift, "{name} {t}");
                            let gold = gold.as_ref().expect("shift output");
                            for j in 0..plan.ports() {
                                let bit = |plane: &[u64]| Some((plane[j] >> c) & 1 == 1);
                                assert_eq!(bit(session.stimulus(planes)), stim.get(j), "{name}");
                                assert_eq!(bit(session.golden(planes)), gold.get(j), "{name}");
                            }
                        }
                        t += cycles;
                        observed_cycles += observed;
                    }
                    Segment::Capture { count, observed } => {
                        assert!(count > 0, "{name} {t}");
                        let run = &per_cycle[t..t + count];
                        assert!(run.iter().all(|(_, kind, _)| *kind == ClockKind::Capture));
                        t += count;
                        observed_cycles += observed;
                    }
                }
                assert_eq!(observed_cycles, t.min(plan.len() - 1), "{name} {t}");
            }
            assert_eq!(t, plan.len(), "{name}: segments cover the plan");
            assert_eq!(
                per_cycle.len(),
                plan.len(),
                "{name}: the cursor replays the plan"
            );
            for (j, stream) in session.healthy().iter().enumerate() {
                let expected: BitVec = (0..plan.len())
                    .map(|slot| {
                        slot > 0
                            && per_cycle[slot - 1]
                                .2
                                .as_ref()
                                .is_some_and(|gold| gold.get(j) == Some(true))
                    })
                    .collect();
                assert_eq!(*stream, expected, "{name} port {j}");
            }
        }
    }

    #[test]
    fn session_cache_shares_equal_descriptions_only() {
        let cache = SessionCache::default();
        let scan = |chains: Vec<usize>| {
            CoreDescription::new(
                "core",
                TestMethod::Scan {
                    chains,
                    patterns: 2,
                },
            )
        };
        let (two_chains, one_chain) = (scan(vec![4, 6]), scan(vec![5]));
        let first = cache.get_or_compile(&two_chains);
        assert!(Arc::ptr_eq(&first, &cache.get_or_compile(&two_chains)));
        // Same name, other description (another SoC on the same floor).
        let other = cache.get_or_compile(&one_chain);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!((first.ports(), other.ports()), (2, 1));
        assert!(Arc::ptr_eq(&other, &cache.get_or_compile(&one_chain)));
    }

    #[test]
    fn a_poisoned_session_cache_keeps_compiling_and_sharing() {
        let cache = SessionCache::default();
        let scan = |name: &str| {
            let method = TestMethod::Scan {
                chains: vec![4, 6],
                patterns: 2,
            };
            CoreDescription::new(name, method)
        };
        let (cached, fresh) = (scan("cached"), scan("fresh"));
        let first = cache.get_or_compile(&cached);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = cache.sessions.write();
                panic!("poisoning the session cache on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.sessions.is_poisoned());
        assert!(Arc::ptr_eq(&first, &cache.get_or_compile(&cached)));
        let compiled = cache.get_or_compile(&fresh);
        assert_eq!(compiled.desc(), &fresh);
        assert_eq!(compiled.golden, CompiledSession::compile(&fresh).golden);
        assert!(Arc::ptr_eq(&compiled, &cache.get_or_compile(&fresh)));
    }

    #[test]
    fn compare_counts_mismatches() {
        // A lane compares its `len` slots as they arrive: slot `t + 1`
        // against the golden output of cycle `t` when that cycle shifted.
        // Slot 0 and the slot after a capture are never compared.
        let desc = CoreDescription::new(
            "c",
            TestMethod::Scan {
                chains: vec![2, 3],
                patterns: 1,
            },
        );
        let per_cycle = replay(&desc);
        // 3 shifts, a capture, 3 flushing shifts and the drain.
        assert_eq!(per_cycle.len(), 8);
        assert_eq!(per_cycle[3].1, ClockKind::Capture);
        let wires = [0, 1];
        let mismatches = |flips: &[(usize, usize)]| {
            let mut session = ReferenceSession::new(&desc);
            for slot in 0..session.len() {
                session.advance();
                // A healthy die's bus at `slot` carries golden cycle slot - 1.
                let healthy = slot.checked_sub(1).and_then(|t| per_cycle[t].2.clone());
                let mut bus = healthy.unwrap_or_else(|| BitVec::zeros(2));
                for &(_, wire) in flips.iter().filter(|(at, _)| *at == slot) {
                    bus.toggle(wire);
                }
                session.observe(&bus, &wires);
            }
            session.verdict()
        };
        assert_eq!(mismatches(&[]), Verdict::Pass);
        assert_eq!(mismatches(&[(0, 1), (4, 0)]), Verdict::Pass);
        let flipped = [(2, 1), (5, 0), (5, 1), (7, 0)];
        assert_eq!(mismatches(&flipped), Verdict::Fail { mismatches: 4 });
    }

    #[test]
    fn report_display() {
        let r = SessionReport {
            core_name: "x".into(),
            verdict: Verdict::Pass,
            data_cycles: 10,
            config_cycles: 5,
        };
        assert_eq!(r.total_cycles(), 15);
        assert!(r.to_string().contains("pass"));
    }
}
