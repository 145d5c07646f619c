//! Complete, verified test sessions for individual cores.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

use casbus::TamConfiguration;
use casbus_p1500::{TestableCore, WrapperInstruction};
use casbus_soc::{models, CoreDescription, TestMethod};
use casbus_tpg::{BitVec, Lfsr, Polynomial, Verdict};

use crate::report::{collect_lanes, drive_lanes_reference, ReferenceSession};
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

/// The per-cycle plan of one core's test session: stimulus slice + clock
/// kind for every cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    cycles: Vec<(BitVec, ClockKind)>,
    ports: usize,
}

impl SessionPlan {
    /// Builds the deterministic session plan a core's test method calls for.
    /// Stimuli come from an LFSR seeded by the core name, so the golden
    /// reference and the TAM run see identical data.
    pub fn for_core(desc: &CoreDescription) -> Self {
        let ports = desc.required_ports();
        let mut lfsr = stimulus_source(desc.name());
        let mut cycles = Vec::new();
        match desc.method() {
            TestMethod::Scan { chains, patterns } => {
                let depth = chains.iter().copied().max().unwrap_or(1);
                for _ in 0..*patterns {
                    for _ in 0..depth {
                        cycles.push((lfsr.step_n(ports), ClockKind::Shift));
                    }
                    cycles.push((BitVec::zeros(ports), ClockKind::Capture));
                }
                for _ in 0..depth {
                    cycles.push((BitVec::zeros(ports), ClockKind::Shift));
                }
            }
            TestMethod::Bist { width, patterns } => {
                for _ in 0..*patterns {
                    cycles.push((BitVec::zeros(ports), ClockKind::Capture));
                }
                for _ in 0..*width {
                    cycles.push((BitVec::zeros(ports), ClockKind::Shift));
                }
            }
            TestMethod::External { patterns, .. } => {
                for _ in 0..*patterns {
                    cycles.push((lfsr.step_n(ports), ClockKind::Shift));
                }
                cycles.push((BitVec::zeros(ports), ClockKind::Shift));
            }
            TestMethod::Hierarchical { sub_cores, .. } => {
                let depth: usize = sub_cores
                    .iter()
                    .map(|c| match c.method() {
                        TestMethod::Scan { chains, .. } => {
                            chains.iter().copied().max().unwrap_or(1)
                        }
                        TestMethod::Bist { width, .. } => *width as usize,
                        _ => 2,
                    })
                    .sum::<usize>()
                    .max(1);
                for _ in 0..4 {
                    for _ in 0..depth {
                        cycles.push((lfsr.step_n(ports), ClockKind::Shift));
                    }
                    cycles.push((BitVec::zeros(ports), ClockKind::Capture));
                }
                for _ in 0..depth {
                    cycles.push((BitVec::zeros(ports), ClockKind::Shift));
                }
            }
            TestMethod::Memory { words, .. } => {
                for _ in 0..3 * words {
                    cycles.push((BitVec::zeros(ports), ClockKind::Capture));
                }
                for _ in 0..2 {
                    cycles.push((BitVec::zeros(ports), ClockKind::Shift));
                }
            }
        }
        // One trailing cycle so the retiming register drains.
        cycles.push((BitVec::zeros(ports), ClockKind::Shift));
        Self { cycles, ports }
    }

    /// Number of cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Stimulus width (the core's `P`).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// The cycles.
    pub fn cycles(&self) -> &[(BitVec, ClockKind)] {
        &self.cycles
    }

    /// Shift cycles in the plan.
    pub fn shift_cycles(&self) -> usize {
        self.cycles
            .iter()
            .filter(|(_, k)| *k == ClockKind::Shift)
            .count()
    }
}

fn stimulus_source(name: &str) -> Lfsr {
    let poly = Polynomial::primitive(16).expect("degree 16 tabulated");
    let seed = name.bytes().fold(0xACE1u64, |acc, b| {
        acc.wrapping_mul(131).wrapping_add(u64::from(b))
    }) & 0xffff;
    Lfsr::fibonacci(poly, seed.max(1)).expect("non-zero seed")
}

/// Runs the plan directly against a fresh behavioural model (no TAM): the
/// golden reference. Returns the model's output slice for every cycle
/// (`None` on capture cycles).
pub fn golden_run(desc: &CoreDescription, plan: &SessionPlan) -> Vec<Option<BitVec>> {
    let mut model = models::instantiate(desc);
    plan.cycles()
        .iter()
        .map(|(stim, kind)| match kind {
            ClockKind::Shift => Some(model.test_clock(stim)),
            ClockKind::Capture => {
                model.capture_clock();
                None
            }
            ClockKind::Update | ClockKind::Idle => None,
        })
        .collect()
}

/// One batch of a [`CompiledSession`]: a run of up to 64 shift clocks, or a
/// run of consecutive capture clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Segment {
    /// `cycles` (1..=64) shift clocks from plan cycle `start`; their
    /// stimulus and golden response planes are the `ports` words at
    /// `planes` of the session's stimulus and golden arrays.
    Shift {
        start: usize,
        cycles: usize,
        planes: usize,
    },
    /// `count` capture clocks from plan cycle `start`.
    Capture { start: usize, count: usize },
}

impl Segment {
    /// How many of this segment's clocks a step's observation window of
    /// `limit` slots records: cycle `t` is observed iff `t + 1 < limit`,
    /// which is a prefix of the segment.
    pub(crate) fn observed(&self, limit: usize) -> usize {
        let (start, clocks) = match *self {
            Self::Shift { start, cycles, .. } => (start, cycles),
            Self::Capture { start, count } => (start, count),
        };
        clocks.min(limit.saturating_sub(start + 1))
    }
}

/// One core's session compiled once per served plan: the stimulus of every
/// shift run as per-port bit planes (bit `c` is cycle `start + c`), the
/// shift/capture layout, and the golden model's response planes from one
/// word-level pass. Every die of a lot sees the same stimuli and the same
/// healthy response, so engines share one copy instead of rebuilding the
/// [`SessionPlan`] and re-running the golden model for each device. It is
/// stored as words, never as per-cycle vectors.
#[derive(Debug)]
pub(crate) struct CompiledSession {
    desc: CoreDescription,
    ports: usize,
    len: usize,
    shift_cycles: usize,
    segments: Vec<Segment>,
    stimulus: Vec<u64>,
    golden: Vec<u64>,
}

impl CompiledSession {
    /// Compiles `desc`'s [`SessionPlan`] and runs its golden model once.
    pub(crate) fn compile(desc: &CoreDescription) -> Self {
        let plan = SessionPlan::for_core(desc);
        let cycles = plan.cycles();
        let ports = plan.ports();
        let mut session = Self {
            desc: desc.clone(),
            ports,
            len: cycles.len(),
            shift_cycles: plan.shift_cycles(),
            segments: Vec::new(),
            stimulus: Vec::new(),
            golden: Vec::new(),
        };
        let mut model = models::instantiate(desc);
        let mut t = 0;
        while t < cycles.len() {
            let start = t;
            if cycles[t].1 == ClockKind::Shift {
                while t < cycles.len() && t - start < 64 && cycles[t].1 == ClockKind::Shift {
                    t += 1;
                }
                let planes = session.stimulus.len();
                for j in 0..ports {
                    let plane = cycles[start..t]
                        .iter()
                        .enumerate()
                        .fold(0u64, |plane, (c, (stim, _))| {
                            plane | u64::from(stim.get(j) == Some(true)) << c
                        });
                    session.stimulus.push(plane);
                }
                let response = model.test_clock_words(&session.stimulus[planes..], t - start);
                session.golden.extend(response);
                session.segments.push(Segment::Shift {
                    start,
                    cycles: t - start,
                    planes,
                });
            } else {
                while t < cycles.len() && cycles[t].1 == ClockKind::Capture {
                    model.capture_clock();
                    t += 1;
                }
                assert!(t > start, "plans hold only shift and capture cycles");
                session.segments.push(Segment::Capture {
                    start,
                    count: t - start,
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

    /// Plan cycles.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Shift cycles in the plan.
    pub(crate) fn shift_cycles(&self) -> usize {
        self.shift_cycles
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

    /// The per-port streams a healthy die returns over the TAM in a step
    /// window of `limit` observation slots: the retimed zero of the first
    /// slot, then the golden response of every observed shift and a zero
    /// for every observed capture.
    pub(crate) fn healthy_streams(&self, limit: usize) -> Vec<BitVec> {
        let mut streams: Vec<BitVec> = (0..self.ports)
            .map(|_| BitVec::with_capacity(limit))
            .collect();
        if limit > 0 {
            streams.iter_mut().for_each(|stream| stream.push(false));
        }
        for segment in &self.segments {
            let observed = segment.observed(limit);
            match *segment {
                Segment::Shift { planes, .. } => {
                    for (stream, &word) in streams.iter_mut().zip(self.golden(planes)) {
                        stream.push_word(word, observed);
                    }
                }
                Segment::Capture { .. } => {
                    for stream in &mut streams {
                        push_zeros(stream, observed);
                    }
                }
            }
        }
        streams
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
    pub(crate) fn get_or_compile(&self, desc: &CoreDescription) -> Arc<CompiledSession> {
        let cached = |sessions: &HashMap<String, Vec<Arc<CompiledSession>>>| {
            sessions
                .get(desc.name())?
                .iter()
                .find(|session| session.desc == *desc)
                .cloned()
        };
        if let Some(session) = cached(&self.sessions.read().expect("session cache poisoned")) {
            return session;
        }
        // Compile under the write lock, so workers that miss together wait
        // for one compilation instead of each running the golden model.
        let mut sessions = self.sessions.write().expect("session cache poisoned");
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

/// The wrapper instruction a test method needs.
pub(crate) fn wrapper_instruction_for(method: &TestMethod) -> WrapperInstruction {
    match method {
        TestMethod::Bist { .. } | TestMethod::Memory { .. } => WrapperInstruction::IntestBist,
        _ => WrapperInstruction::IntestScan,
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
        .map(|(_, desc)| wrapper_instruction_for(desc.method()))
        .ok_or_else(unknown)?;
    let cas_index = sim.cas_index(core_name)?;
    let mut config = TamConfiguration::all_bypass(sim.tam().cas_count());
    config.set(cas_index, sim.tam().contiguous_test(cas_index, 0)?)?;
    let mut wrappers = vec![WrapperInstruction::Bypass; sim.tam().cas_count()];
    wrappers[cas_index] = instruction;
    let start = sim.cycles();
    sim.configure(&config, &wrappers)?;
    let config_cycles = sim.cycles() - start;

    let lanes = collect_lanes(sim, &config, ReferenceSession::new)?;
    let lane = drive_lanes_reference(sim, &lanes)?
        .pop()
        .ok_or_else(unknown)?;
    let (verdict, data_cycles) = (lane.verdict, lane.data_cycles as u64);
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

/// Compares golden shift outputs at cycle `t` with the bus observation at
/// `t + 1` (the retiming register's latency). `streams` are port-major: bit
/// `t` of stream `j` is what port `j` returned on cycle `t`.
pub(crate) fn compare(golden: &[Option<BitVec>], streams: &[BitVec]) -> Verdict {
    let observed = streams.first().map_or(0, BitVec::len);
    let mut mismatches = 0usize;
    for (t, gold) in golden.iter().enumerate() {
        let Some(gold) = gold else { continue };
        if t + 1 >= observed {
            continue;
        }
        for (j, stream) in streams.iter().enumerate() {
            if gold.get(j) != stream.get(t + 1) {
                mismatches += 1;
            }
        }
    }
    verdict(mismatches)
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
    use casbus_soc::catalog;

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

    #[test]
    fn golden_run_is_reproducible() {
        let desc = CoreDescription::new(
            "g",
            TestMethod::Bist {
                width: 8,
                patterns: 20,
            },
        );
        let plan = SessionPlan::for_core(&desc);
        assert_eq!(golden_run(&desc, &plan), golden_run(&desc, &plan));
    }

    #[test]
    fn compiled_sessions_hold_the_plan_and_golden_run() {
        // Every test method the catalog SoCs use: the compiled planes and
        // layout carry exactly the per-cycle plan and golden responses, and
        // the healthy streams are what the reference observation window
        // records (a retimed zero, then one slot per cycle).
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
            let golden = golden_run(desc, &plan);
            let session = CompiledSession::compile(desc);
            assert_eq!(session.len(), plan.len(), "{name}");
            assert_eq!(session.ports(), plan.ports(), "{name}");
            assert_eq!(session.shift_cycles(), plan.shift_cycles(), "{name}");
            let mut t = 0;
            for segment in session.segments() {
                match *segment {
                    Segment::Shift {
                        start,
                        cycles,
                        planes,
                    } => {
                        assert!(start == t && (1..=64).contains(&cycles), "{name} {t}");
                        for c in 0..cycles {
                            let (stim, kind) = &plan.cycles()[t + c];
                            assert_eq!(*kind, ClockKind::Shift, "{name} {t}");
                            let gold = golden[t + c].as_ref().expect("shift output");
                            for j in 0..plan.ports() {
                                let bit = |plane: &[u64]| Some((plane[j] >> c) & 1 == 1);
                                assert_eq!(bit(session.stimulus(planes)), stim.get(j), "{name}");
                                assert_eq!(bit(session.golden(planes)), gold.get(j), "{name}");
                            }
                        }
                        t += cycles;
                    }
                    Segment::Capture { start, count } => {
                        assert!(start == t && count > 0, "{name} {t}");
                        let run = &plan.cycles()[t..t + count];
                        assert!(run.iter().all(|(_, kind)| *kind == ClockKind::Capture));
                        t += count;
                    }
                }
            }
            assert_eq!(t, plan.len(), "{name}: segments cover the plan");
            for limit in [0, 1, plan.len() / 2, plan.len() + 1] {
                let streams = session.healthy_streams(limit);
                for (j, stream) in streams.iter().enumerate() {
                    let expected: BitVec = (0..limit)
                        .map(|slot| {
                            slot > 0
                                && golden[slot - 1]
                                    .as_ref()
                                    .is_some_and(|gold| gold.get(j) == Some(true))
                        })
                        .collect();
                    assert_eq!(*stream, expected, "{name} limit {limit} port {j}");
                }
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
    fn compare_counts_mismatches() {
        let golden = vec![Some("11".parse::<BitVec>().unwrap()), None];
        // Cycles observe "00", "10", "00" on ports (0, 1), port-major.
        let streams = vec!["010".parse().unwrap(), "000".parse().unwrap()];
        assert_eq!(compare(&golden, &streams), Verdict::Fail { mismatches: 1 });
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
