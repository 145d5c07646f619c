//! Test scheduling: packing core tests onto the `N`-wire bus over time.
//!
//! Every core test occupies `P_i` contiguous bus wires for `T_i` cycles (a
//! rectangle), so minimizing the SoC test time is strip packing. The paper
//! leaves the policy to the test designer/programmer pair (§4); this module
//! provides four, which the trade-off benches sweep against `N`:
//!
//! * [`serial_schedule`] — one core at a time, the baseline;
//! * [`packed_schedule`] — greedy strip packing, longest test first;
//! * [`power_aware_schedule`] — the same greedy packing under a test-power
//!   budget;
//! * [`wave_optimal_schedule`] — the exact optimum among schedules run as
//!   sequential waves of concurrent tests.
//!
//! [`search`](crate::search) anneals from their results. The two greedy
//! policies and the search's decoder and shift move share one placer: a
//! test goes to the earliest start — cycle 0 or the end of a placed test —
//! that the policy admits, on the lowest wire window free there. Every
//! schedule, searched or not, is built by [`Schedule::from_tests`], which
//! rejects two tests that share a wire at the same time.

use std::cmp::Reverse;
use std::fmt;

use casbus_soc::{CoreDescription, CoreId, SocDescription};

/// Errors from schedule construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A core needs more wires than the bus has.
    CoreTooWide {
        /// The core.
        core: String,
        /// Wires it needs.
        needed: usize,
        /// Bus width.
        n: usize,
    },
    /// The bus width was zero.
    ZeroWidth,
    /// The exact scheduler's subset DP would exceed its budget.
    TooManyCores {
        /// Cores in the SoC.
        count: usize,
        /// Supported maximum.
        limit: usize,
    },
    /// A single core's test power exceeds the whole budget.
    PowerBudgetTooSmall {
        /// The core.
        core: String,
        /// Its test power.
        power: u32,
        /// The budget.
        budget: u32,
    },
    /// Two explicit placements overlap in both wires and time.
    Conflict {
        /// One core.
        a: String,
        /// The other core.
        b: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CoreTooWide { core, needed, n } => {
                write!(f, "core {core:?} needs {needed} wires, bus has {n}")
            }
            Self::ZeroWidth => f.write_str("the test bus needs at least one wire"),
            Self::TooManyCores { count, limit } => {
                write!(
                    f,
                    "exact scheduling supports up to {limit} cores, got {count}"
                )
            }
            Self::PowerBudgetTooSmall {
                core,
                power,
                budget,
            } => write!(
                f,
                "core {core:?} alone dissipates {power} against a budget of {budget}"
            ),
            Self::Conflict { a, b } => {
                write!(
                    f,
                    "placements for {a:?} and {b:?} overlap in wires and time"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Whether two footprints, each `(start, duration, wire_start, wires)`,
/// share a wire at some cycle: the one conflict rule of the packing.
fn overlaps(a: (u64, u64, usize, usize), b: (u64, u64, usize, usize)) -> bool {
    a.0 < b.0 + b.1 && b.0 < a.0 + a.1 && a.2 < b.2 + b.3 && b.2 < a.2 + a.3
}

/// One scheduled core test: a wire window over a time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTest {
    /// The core under test.
    pub core: CoreId,
    /// Core name (for reports).
    pub core_name: String,
    /// First bus wire granted.
    pub wire_start: usize,
    /// Number of wires granted (`P`).
    pub wires: usize,
    /// Start cycle.
    pub start: u64,
    /// Duration in cycles.
    pub duration: u64,
}

impl ScheduledTest {
    /// End cycle (exclusive).
    pub fn end(&self) -> u64 {
        self.start + self.duration
    }

    /// Whether two tests overlap in both time and wires (a conflict).
    pub fn conflicts_with(&self, other: &ScheduledTest) -> bool {
        overlaps(
            (self.start, self.duration, self.wire_start, self.wires),
            (other.start, other.duration, other.wire_start, other.wires),
        )
    }
}

/// A complete schedule over an `N`-wire bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    bus_width: usize,
    tests: Vec<ScheduledTest>,
}

impl Schedule {
    /// Builds a schedule from explicit placements, validating the packing
    /// invariants: every wire window lies inside the bus and no two tests
    /// conflict. Tests are canonically reordered by `(start, wire_start)`.
    /// Every scheduler in this crate, the [`search`](crate::search)
    /// included, builds its result here, so no heuristic or evaluator bug
    /// can leak an invalid schedule out of the crate.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ZeroWidth`] on an empty bus,
    /// [`ScheduleError::CoreTooWide`] when a wire window runs off the bus,
    /// [`ScheduleError::Conflict`] when two placements overlap in both
    /// wires and time.
    pub fn from_tests(
        bus_width: usize,
        mut tests: Vec<ScheduledTest>,
    ) -> Result<Self, ScheduleError> {
        if bus_width == 0 {
            return Err(ScheduleError::ZeroWidth);
        }
        if let Some(t) = tests.iter().find(|t| t.wire_start + t.wires > bus_width) {
            return Err(ScheduleError::CoreTooWide {
                core: t.core_name.clone(),
                needed: t.wire_start + t.wires,
                n: bus_width,
            });
        }
        tests.sort_by_key(|t| (t.start, t.wire_start, t.core));
        let schedule = Self { bus_width, tests };
        if let Some((a, b)) = schedule.first_conflict() {
            return Err(ScheduleError::Conflict {
                a: a.core_name.clone(),
                b: b.core_name.clone(),
            });
        }
        Ok(schedule)
    }

    /// The bus width the schedule targets.
    pub fn bus_width(&self) -> usize {
        self.bus_width
    }

    /// The scheduled tests, by start time.
    pub fn tests(&self) -> &[ScheduledTest] {
        &self.tests
    }

    /// Total test time in cycles (excluding configuration phases).
    pub fn makespan(&self) -> u64 {
        self.tests.iter().map(ScheduledTest::end).max().unwrap_or(0)
    }

    /// Number of distinct configuration "waves": times at which a new set of
    /// concurrent tests starts (each costs one CONFIGURATION phase).
    pub fn configuration_waves(&self) -> usize {
        self.waves().len()
    }

    /// Checks the packing invariant: no two tests share a wire at the same
    /// time.
    pub fn is_conflict_free(&self) -> bool {
        self.first_conflict().is_none()
    }

    /// The first pair of tests, in schedule order, that share a wire at the
    /// same time.
    fn first_conflict(&self) -> Option<(&ScheduledTest, &ScheduledTest)> {
        self.tests.iter().enumerate().find_map(|(i, a)| {
            self.tests[i + 1..]
                .iter()
                .find(|b| a.conflicts_with(b))
                .map(|b| (a, b))
        })
    }

    /// Average bus-wire utilisation over the makespan, in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        let span = self.makespan();
        if span == 0 {
            return 0.0;
        }
        let used: u64 = self.tests.iter().map(|t| t.duration * t.wires as u64).sum();
        used as f64 / (span * self.bus_width as u64) as f64
    }

    /// Tests grouped into configuration waves, by ascending start time.
    /// Tests inside one wave occupy disjoint wire windows (the packing
    /// invariant): they are the concurrent sessions of one program step.
    pub fn waves(&self) -> Vec<Vec<&ScheduledTest>> {
        // `from_tests` keeps the tests sorted by start.
        self.tests
            .chunk_by(|a, b| a.start == b.start)
            .map(|wave| wave.iter().collect())
            .collect()
    }

    /// Publishes the schedule's static properties into a metrics registry:
    /// `schedule.{makespan,waves,tests,bus_width,utilisation_permille}`
    /// counters plus per-wire planned occupancy
    /// (`schedule.wire<i>.planned_cycles`) and a `schedule.test_cycles`
    /// histogram over the per-core durations.
    pub fn record_metrics(&self, metrics: &casbus_obs::MetricsRegistry) {
        metrics.set("schedule.makespan", self.makespan());
        metrics.set("schedule.waves", self.configuration_waves() as u64);
        metrics.set("schedule.tests", self.tests.len() as u64);
        metrics.set("schedule.bus_width", self.bus_width as u64);
        metrics.set(
            "schedule.utilisation_permille",
            (self.utilisation() * 1000.0).round() as u64,
        );
        let mut planned = vec![0u64; self.bus_width];
        for test in &self.tests {
            metrics.observe("schedule.test_cycles", test.duration);
            for slot in planned.iter_mut().skip(test.wire_start).take(test.wires) {
                *slot += test.duration;
            }
        }
        for (wire, cycles) in planned.iter().enumerate() {
            metrics.set(&format!("schedule.wire{wire}.planned_cycles"), *cycles);
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule on {} wires: makespan {} cycles, {} waves, {:.0}% utilisation",
            self.bus_width,
            self.makespan(),
            self.configuration_waves(),
            self.utilisation() * 100.0
        )?;
        for t in &self.tests {
            writeln!(
                f,
                "  [{:>8} .. {:>8}) wires {}..{} {}",
                t.start,
                t.end(),
                t.wire_start,
                t.wire_start + t.wires,
                t.core_name
            )?;
        }
        Ok(())
    }
}

/// A core's place in a schedule: its `(start, wire_start)`.
pub(crate) type Slot = (u64, usize);

/// The strip-packing instance of one SoC on an `n`-wire bus: core `i` is a
/// rectangle of `widths[i]` wires by `durations[i]` cycles. Its placer is
/// the one placement rule the greedy policies and the search share.
#[derive(Debug, Clone)]
pub(crate) struct Strip {
    pub(crate) n: usize,
    pub(crate) widths: Vec<usize>,
    pub(crate) durations: Vec<u64>,
}

impl Strip {
    /// The instance for `soc` on `n` wires.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::ZeroWidth`] on an empty bus and
    /// [`ScheduleError::CoreTooWide`] when a core needs more wires than the
    /// bus has.
    pub(crate) fn new(soc: &SocDescription, n: usize) -> Result<Self, ScheduleError> {
        if n == 0 {
            return Err(ScheduleError::ZeroWidth);
        }
        if let Some(core) = soc.cores().iter().find(|c| c.required_ports() > n) {
            return Err(ScheduleError::CoreTooWide {
                core: core.name().to_owned(),
                needed: core.required_ports(),
                n,
            });
        }
        Ok(Self {
            n,
            widths: soc
                .cores()
                .iter()
                .map(CoreDescription::required_ports)
                .collect(),
            durations: soc.cores().iter().map(CoreDescription::test_time).collect(),
        })
    }

    /// Core indices, longest test first (ties by index).
    fn longest_first(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.widths.len()).collect();
        order.sort_by_key(|&i| (Reverse(self.durations[i]), i));
        order
    }

    /// Whether core `i` at slot `a` and core `j` at slot `b` share a wire at
    /// some cycle.
    pub(crate) fn overlaps(&self, i: usize, a: Slot, j: usize, b: Slot) -> bool {
        overlaps(
            (a.0, self.durations[i], a.1, self.widths[i]),
            (b.0, self.durations[j], b.1, self.widths[j]),
        )
    }

    /// The placer: core `i`'s slot beside the `placed` cores' `slots`. It
    /// takes the earliest start among cycle 0 and the placed cores' ends
    /// that `admit` accepts, then the lowest wire window free of every
    /// placed core there. The start after every placed core is always
    /// free, so a slot exists whenever `admit` accepts that start.
    pub(crate) fn earliest_slot(
        &self,
        slots: &[Slot],
        placed: impl Iterator<Item = usize> + Clone,
        i: usize,
        admit: impl Fn(u64) -> bool,
    ) -> Slot {
        let mut starts: Vec<u64> = std::iter::once(0)
            .chain(placed.clone().map(|j| slots[j].0 + self.durations[j]))
            .collect();
        starts.sort_unstable();
        starts.dedup();
        starts
            .into_iter()
            .filter(|&start| admit(start))
            .find_map(|start| {
                (0..=self.n - self.widths[i])
                    .find(|&wire| {
                        placed
                            .clone()
                            .all(|j| !self.overlaps(i, (start, wire), j, slots[j]))
                    })
                    .map(|wire| (start, wire))
            })
            .expect("the start after every placed core is free")
    }

    /// Greedy decode: places the cores in `order`, each at its
    /// [`earliest_slot`](Self::earliest_slot) beside the cores before it,
    /// admitting a start when `admit(slots, placed, i, start)` holds.
    /// Returns every core's slot, by core index.
    pub(crate) fn decode(
        &self,
        order: &[usize],
        admit: impl Fn(&[Slot], &[usize], usize, u64) -> bool,
    ) -> Vec<Slot> {
        let mut slots = vec![(0, 0); self.widths.len()];
        for (m, &i) in order.iter().enumerate() {
            let placed = &order[..m];
            slots[i] = self.earliest_slot(&slots, placed.iter().copied(), i, |start| {
                admit(&slots, placed, i, start)
            });
        }
        slots
    }

    /// The schedule putting every core of `soc` at its slot, built (and
    /// checked) by [`Schedule::from_tests`].
    ///
    /// # Errors
    ///
    /// [`ScheduleError::CoreTooWide`] when a slot's wire window runs off
    /// the bus and [`ScheduleError::Conflict`] when two slots overlap.
    pub(crate) fn schedule(
        &self,
        soc: &SocDescription,
        slots: &[Slot],
    ) -> Result<Schedule, ScheduleError> {
        let tests = soc
            .cores()
            .iter()
            .zip(slots)
            .enumerate()
            .map(|(i, (core, &(start, wire_start)))| ScheduledTest {
                core: CoreId(i),
                core_name: core.name().to_owned(),
                wire_start,
                wires: self.widths[i],
                start,
                duration: self.durations[i],
            })
            .collect();
        Schedule::from_tests(self.n, tests)
    }
}

/// The baseline policy: one core at a time, in descending-duration order.
///
/// # Errors
///
/// Returns [`ScheduleError`] when a core does not fit the bus.
pub fn serial_schedule(soc: &SocDescription, n: usize) -> Result<Schedule, ScheduleError> {
    let strip = Strip::new(soc, n)?;
    let mut slots = vec![(0, 0); strip.widths.len()];
    let mut clock = 0u64;
    for i in strip.longest_first() {
        slots[i] = (clock, 0);
        clock += strip.durations[i];
    }
    strip.schedule(soc, &slots)
}

/// Greedy strip packing: longest tests first, each placed at the earliest
/// time where a contiguous wire window is free.
///
/// # Errors
///
/// Returns [`ScheduleError`] when a core does not fit the bus.
pub fn packed_schedule(soc: &SocDescription, n: usize) -> Result<Schedule, ScheduleError> {
    let strip = Strip::new(soc, n)?;
    let slots = strip.decode(&strip.longest_first(), |_, _, _, _| true);
    strip.schedule(soc, &slots)
}

/// Greedy strip packing under a **test-power budget**: like
/// [`packed_schedule`], but a candidate placement is also rejected when the
/// sum of [`test_power`](CoreDescription::test_power) of all
/// simultaneously-running tests would exceed `power_budget` at any instant.
///
/// This is the constraint the SoC test-scheduling literature immediately
/// layered on TAMs of the CAS-BUS generation (scan toggling can exceed
/// mission-mode power and cook an otherwise good die).
///
/// # Errors
///
/// [`ScheduleError::ZeroWidth`] and [`ScheduleError::CoreTooWide`] when a
/// core does not fit the bus, as for [`packed_schedule`], and
/// [`ScheduleError::PowerBudgetTooSmall`] when one core's own test power
/// exceeds `power_budget`, so that no placement could respect it.
pub fn power_aware_schedule(
    soc: &SocDescription,
    n: usize,
    power_budget: u32,
) -> Result<Schedule, ScheduleError> {
    let strip = Strip::new(soc, n)?;
    if let Some(core) = soc.cores().iter().find(|c| c.test_power() > power_budget) {
        return Err(ScheduleError::PowerBudgetTooSmall {
            core: core.name().to_owned(),
            power: core.test_power(),
            budget: power_budget,
        });
    }
    let power: Vec<u32> = soc
        .cores()
        .iter()
        .map(CoreDescription::test_power)
        .collect();
    let slots = strip.decode(&strip.longest_first(), |slots, placed, i, start| {
        // Conservative: every placed test overlapping the window anywhere
        // counts (an upper bound on the instantaneous draw), so the budget
        // is never exceeded.
        let end = start + strip.durations[i];
        let concurrent: u32 = placed
            .iter()
            .filter(|&&j| slots[j].0 < end && start < slots[j].0 + strip.durations[j])
            .map(|&j| power[j])
            .sum();
        concurrent + power[i] <= power_budget
    });
    strip.schedule(soc, &slots)
}

/// Peak concurrent test power of a schedule (checked at every test start).
pub fn peak_power(soc: &SocDescription, schedule: &Schedule) -> u32 {
    let power_of = |name: &str| {
        soc.core_by_name(name)
            .map(|(_, c)| c.test_power())
            .unwrap_or(0)
    };
    schedule
        .tests()
        .iter()
        .map(|probe| {
            schedule
                .tests()
                .iter()
                .filter(|t| t.start <= probe.start && probe.start < t.end())
                .map(|t| power_of(&t.core_name))
                .sum()
        })
        .max()
        .unwrap_or(0)
}

/// Upper bound on SoC size for [`wave_optimal_schedule`]'s `O(3^k)` DP.
pub const WAVE_OPTIMAL_CORE_LIMIT: usize = 14;

/// The provably-optimal *wave* schedule: cores are partitioned into
/// concurrent waves (each wave's widths summing to at most `N`), waves run
/// sequentially, and each wave lasts as long as its slowest member. This is
/// exactly the execution model of a [`TestProgram`](crate::program::TestProgram)
/// — one CONFIGURATION phase per wave — so it is the right optimality
/// yardstick for the greedy packer.
///
/// Solved exactly by dynamic programming over core subsets (`O(3^k)`).
///
/// # Errors
///
/// Returns [`ScheduleError::TooManyCores`] beyond
/// [`WAVE_OPTIMAL_CORE_LIMIT`] cores, plus the usual fit errors.
pub fn wave_optimal_schedule(soc: &SocDescription, n: usize) -> Result<Schedule, ScheduleError> {
    let strip = Strip::new(soc, n)?;
    let (widths, durations) = (&strip.widths, &strip.durations);
    let k = widths.len();
    if k > WAVE_OPTIMAL_CORE_LIMIT {
        return Err(ScheduleError::TooManyCores {
            count: k,
            limit: WAVE_OPTIMAL_CORE_LIMIT,
        });
    }
    let full = (1usize << k) - 1;

    // A wave is feasible when its widths fit the bus side by side.
    let mut wave_width = vec![0usize; full + 1];
    let mut wave_cost = vec![0u64; full + 1];
    for mask in 1..=full {
        let bit = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        wave_width[mask] = wave_width[rest] + widths[bit];
        wave_cost[mask] = wave_cost[rest].max(durations[bit]);
    }

    let mut dp = vec![u64::MAX; full + 1];
    let mut choice = vec![0usize; full + 1];
    dp[0] = 0;
    for mask in 1..=full {
        // Always include the lowest set bit in the wave to halve the work.
        let low = mask & mask.wrapping_neg();
        let mut sub = mask;
        while sub != 0 {
            if sub & low != 0 && wave_width[sub] <= n && dp[mask ^ sub] != u64::MAX {
                let cand = dp[mask ^ sub] + wave_cost[sub];
                if cand < dp[mask] {
                    dp[mask] = cand;
                    choice[mask] = sub;
                }
            }
            sub = (sub - 1) & mask;
        }
    }
    debug_assert_ne!(dp[full], u64::MAX, "singleton waves always fit");

    // Reconstruct the waves and lay each out on contiguous windows.
    let mut slots = vec![(0, 0); k];
    let mut clock = 0u64;
    let mut mask = full;
    while mask != 0 {
        let wave = choice[mask];
        let mut wire = 0usize;
        let mut members: Vec<usize> = (0..k).filter(|i| wave >> i & 1 == 1).collect();
        members.sort_by_key(|&i| Reverse(widths[i]));
        for i in members {
            slots[i] = (clock, wire);
            wire += widths[i];
        }
        clock += wave_cost[wave];
        mask ^= wave;
    }
    strip.schedule(soc, &slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::catalog;

    #[test]
    fn serial_equals_sum_of_times() {
        let soc = catalog::figure1_soc();
        let sched = serial_schedule(&soc, 4).unwrap();
        let total: u64 = soc.cores().iter().map(CoreDescription::test_time).sum();
        assert_eq!(sched.makespan(), total);
        assert!(sched.is_conflict_free());
        assert_eq!(sched.configuration_waves(), soc.cores().len());
    }

    #[test]
    fn recorded_metrics_match_schedule_properties() {
        let soc = catalog::figure1_soc();
        let sched = packed_schedule(&soc, 6).unwrap();
        let metrics = casbus_obs::MetricsRegistry::new();
        sched.record_metrics(&metrics);
        assert_eq!(metrics.counter("schedule.makespan"), sched.makespan());
        assert_eq!(
            metrics.counter("schedule.waves"),
            sched.configuration_waves() as u64
        );
        assert_eq!(
            metrics.counter("schedule.tests"),
            sched.tests().len() as u64
        );
        let hist = metrics.histogram("schedule.test_cycles").unwrap();
        assert_eq!(hist.count, sched.tests().len() as u64);
        // Planned per-wire occupancy sums to the total wire·cycle area.
        let area: u64 = sched
            .tests()
            .iter()
            .map(|t| t.duration * t.wires as u64)
            .sum();
        assert_eq!(metrics.counter_sum("schedule.wire"), area);
    }

    #[test]
    fn packing_never_worse_than_serial() {
        let soc = catalog::figure1_soc();
        for n in 4..=10 {
            let serial = serial_schedule(&soc, n).unwrap().makespan();
            let packed = packed_schedule(&soc, n).unwrap().makespan();
            assert!(packed <= serial, "n={n}: {packed} > {serial}");
        }
    }

    #[test]
    fn packed_is_conflict_free() {
        let soc = catalog::figure1_soc();
        for n in 4..=12 {
            let sched = packed_schedule(&soc, n).unwrap();
            assert!(sched.is_conflict_free(), "n={n}\n{sched}");
            assert_eq!(sched.tests().len(), soc.cores().len());
        }
    }

    #[test]
    fn wider_bus_never_slower() {
        let soc = catalog::figure1_soc();
        let curve: Vec<u64> = (4..=12)
            .map(|n| packed_schedule(&soc, n).unwrap().makespan())
            .collect();
        for pair in curve.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "makespan must be non-increasing in N: {curve:?}"
            );
        }
    }

    #[test]
    fn parallelism_actually_helps_somewhere() {
        let soc = catalog::figure1_soc();
        let narrow = packed_schedule(&soc, 4).unwrap().makespan();
        let wide = packed_schedule(&soc, 12).unwrap().makespan();
        assert!(wide < narrow, "a 3x wider bus must shorten this SoC's test");
    }

    #[test]
    fn too_narrow_rejected() {
        let soc = catalog::figure1_soc(); // max P = 4
        assert!(matches!(
            packed_schedule(&soc, 2),
            Err(ScheduleError::CoreTooWide { needed: 4, .. })
        ));
        assert_eq!(packed_schedule(&soc, 0), Err(ScheduleError::ZeroWidth));
    }

    #[test]
    fn utilisation_bounds() {
        let soc = catalog::figure2b_bist_soc();
        let sched = packed_schedule(&soc, 2).unwrap();
        let u = sched.utilisation();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn conflict_detection() {
        let a = ScheduledTest {
            core: CoreId(0),
            core_name: "a".into(),
            wire_start: 0,
            wires: 2,
            start: 0,
            duration: 10,
        };
        let mut b = a.clone();
        b.core = CoreId(1);
        b.wire_start = 2;
        assert!(!a.conflicts_with(&b), "disjoint wires");
        b.wire_start = 1;
        assert!(a.conflicts_with(&b), "overlapping wires and time");
        b.start = 10;
        assert!(!a.conflicts_with(&b), "back-to-back in time");
    }

    #[test]
    fn power_budget_is_respected() {
        use casbus_soc::{CoreDescription, SocBuilder, TestMethod};
        let soc = SocBuilder::new("hot")
            .core(
                CoreDescription::new(
                    "a",
                    TestMethod::Bist {
                        width: 8,
                        patterns: 100,
                    },
                )
                .with_test_power(60),
            )
            .core(
                CoreDescription::new(
                    "b",
                    TestMethod::Bist {
                        width: 8,
                        patterns: 100,
                    },
                )
                .with_test_power(60),
            )
            .core(
                CoreDescription::new(
                    "c",
                    TestMethod::Bist {
                        width: 8,
                        patterns: 100,
                    },
                )
                .with_test_power(30),
            )
            .build()
            .unwrap();
        // Plenty of wires, but only 100 power units: a and b can never run
        // together.
        let sched = power_aware_schedule(&soc, 4, 100).unwrap();
        assert!(sched.is_conflict_free());
        assert!(peak_power(&soc, &sched) <= 100, "{sched}");
        // With an unconstrained budget, everything runs at once and the
        // makespan shrinks.
        let free = power_aware_schedule(&soc, 4, 1000).unwrap();
        assert!(free.makespan() <= sched.makespan());
        assert_eq!(peak_power(&soc, &free), 150);
    }

    #[test]
    fn power_budget_matches_unconstrained_packing_when_loose() {
        let soc = catalog::figure1_soc();
        let packed = packed_schedule(&soc, 8).unwrap();
        let powered = power_aware_schedule(&soc, 8, u32::MAX).unwrap();
        assert_eq!(powered.makespan(), packed.makespan());
    }

    #[test]
    fn impossible_power_budget_rejected() {
        let soc = catalog::figure1_soc(); // default power 100 per core
        assert!(matches!(
            power_aware_schedule(&soc, 8, 50),
            Err(ScheduleError::PowerBudgetTooSmall {
                power: 100,
                budget: 50,
                ..
            })
        ));
    }

    #[test]
    fn tight_budget_degrades_towards_serial() {
        let soc = catalog::figure1_soc();
        let serial = serial_schedule(&soc, 8).unwrap().makespan();
        // Exactly one core's worth of power: fully serial behaviour.
        let tight = power_aware_schedule(&soc, 8, 100).unwrap();
        assert!(peak_power(&soc, &tight) <= 100);
        assert_eq!(tight.makespan(), serial);
        // Two cores' worth: in between.
        let medium = power_aware_schedule(&soc, 8, 200).unwrap();
        assert!(medium.makespan() <= serial);
        assert!(peak_power(&soc, &medium) <= 200);
    }

    #[test]
    fn wave_optimal_is_valid_and_no_worse_than_serial() {
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let opt = wave_optimal_schedule(&soc, n).unwrap();
            assert!(opt.is_conflict_free(), "n={n}\n{opt}");
            assert_eq!(opt.tests().len(), soc.cores().len());
            let serial = serial_schedule(&soc, n).unwrap().makespan();
            assert!(opt.makespan() <= serial, "n={n}");
        }
    }

    #[test]
    fn wave_optimal_beats_or_matches_greedy_waves() {
        // The greedy packer's *wave structure* (tests grouped by start) is a
        // feasible wave partition, so the DP can only improve on its
        // sum-of-wave-maxima cost.
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let packed = packed_schedule(&soc, n).unwrap();
            let greedy_wave_cost: u64 = packed
                .waves()
                .iter()
                .map(|wave| wave.iter().map(|t| t.duration).max().unwrap_or(0))
                .sum();
            let opt = wave_optimal_schedule(&soc, n).unwrap();
            assert!(
                opt.makespan() <= greedy_wave_cost,
                "n={n}: optimal {} vs greedy waves {greedy_wave_cost}",
                opt.makespan()
            );
        }
    }

    #[test]
    fn wave_optimal_equals_serial_on_width_one() {
        let soc = catalog::figure2b_bist_soc();
        let opt = wave_optimal_schedule(&soc, 1).unwrap();
        let serial = serial_schedule(&soc, 1).unwrap();
        assert_eq!(opt.makespan(), serial.makespan());
    }

    #[test]
    fn wave_optimal_rejects_large_socs() {
        let mut rng = rand::rng();
        let soc = catalog::random_soc(&mut rng, 20, 2);
        assert!(matches!(
            wave_optimal_schedule(&soc, 4),
            Err(ScheduleError::TooManyCores { count: 20, .. })
        ));
    }

    #[test]
    fn wave_optimal_exploits_width() {
        // Two 1-wide cores with equal times: a 2-wide bus halves the span.
        use casbus_soc::{CoreDescription, SocBuilder, TestMethod};
        let soc = SocBuilder::new("pair")
            .core(CoreDescription::new(
                "a",
                TestMethod::Bist {
                    width: 8,
                    patterns: 100,
                },
            ))
            .core(CoreDescription::new(
                "b",
                TestMethod::Bist {
                    width: 8,
                    patterns: 100,
                },
            ))
            .build()
            .unwrap();
        let narrow = wave_optimal_schedule(&soc, 1).unwrap().makespan();
        let wide = wave_optimal_schedule(&soc, 2).unwrap().makespan();
        assert_eq!(wide * 2, narrow);
    }

    #[test]
    fn waves_group_by_start_and_cover_everything() {
        let soc = catalog::figure1_soc();
        let sched = packed_schedule(&soc, 8).unwrap();
        let waves = sched.waves();
        assert_eq!(waves.len(), sched.configuration_waves());
        let total: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(total, sched.tests().len());
        // Ascending start times, and within a wave all starts agree.
        let mut last_start = None;
        for wave in &waves {
            let start = wave[0].start;
            assert!(wave.iter().all(|t| t.start == start));
            assert!(last_start.is_none_or(|s| s < start));
            last_start = Some(start);
        }
        // Serial schedules never run two sessions at once.
        let serial = serial_schedule(&soc, 8).unwrap();
        assert!(serial.waves().iter().all(|wave| wave.len() == 1));
        let widest = |s: &Schedule| s.waves().iter().map(Vec::len).max();
        assert!(widest(&sched) >= widest(&serial));
    }

    #[test]
    fn from_tests_validates_and_canonicalises() {
        let soc = catalog::figure1_soc();
        let packed = packed_schedule(&soc, 6).unwrap();
        // Shuffled placements round-trip into the identical schedule.
        let mut shuffled = packed.tests().to_vec();
        shuffled.reverse();
        let rebuilt = Schedule::from_tests(6, shuffled).unwrap();
        assert_eq!(rebuilt, packed);
        // A window running off the bus is rejected.
        let mut off_bus = packed.tests().to_vec();
        off_bus[0].wire_start = 6;
        assert!(matches!(
            Schedule::from_tests(6, off_bus),
            Err(ScheduleError::CoreTooWide { n: 6, .. })
        ));
        // Two overlapping placements are rejected.
        let a = ScheduledTest {
            core: CoreId(0),
            core_name: "a".into(),
            wire_start: 0,
            wires: 2,
            start: 0,
            duration: 10,
        };
        let mut b = a.clone();
        b.core = CoreId(1);
        b.core_name = "b".into();
        b.wire_start = 1;
        assert!(matches!(
            Schedule::from_tests(4, vec![a.clone(), b]),
            Err(ScheduleError::Conflict { .. })
        ));
        assert_eq!(
            Schedule::from_tests(0, vec![a]),
            Err(ScheduleError::ZeroWidth)
        );
    }

    #[test]
    fn display_is_informative() {
        let soc = catalog::figure2a_scan_soc();
        let sched = packed_schedule(&soc, 5).unwrap();
        let text = sched.to_string();
        assert!(text.contains("makespan"));
        assert!(text.contains("scan3"));
    }
}
