//! The three served workloads, one untimed-harness lot at a time, and the
//! oracle gate every lot's reports are checked against.
//!
//! A lot is timed from construction (planning included) to the final
//! report. Each lot builds everything afresh, exactly as a tester loading a
//! new lot would, so set-up cost is paid per lot and shows in `setup_s`.

use std::collections::HashMap;
use std::time::Instant;

use casbus::CacheStats;
use casbus_controller::schedule::packed_schedule;
use casbus_controller::search::SearchBudget;
use casbus_controller::{CompiledProgram, Schedule};
use casbus_obs::MetricsRegistry;
use casbus_sim::{
    run_program_reference, DeviceReport, FleetMonitor, FleetRunner, LotSpec, SimError,
    SocSimulator, SocTestReport, TestFloor, VariationSpec,
};
use casbus_soc::{catalog, CoreDescription, SocBuilder, SocDescription, TestMethod};

/// Bus width the Figure-1 SoC is served on.
pub const FIG1_N: usize = 8;
/// Dies per lot, for every lot of every workload.
pub const LOT_DEVICES: u64 = 256;
/// Defect rate of Figure-1 lots.
pub const FIG1_DEFECT_RATE: f64 = 0.25;
/// Defect rate of the BIST + memory floor lot.
pub const BISTMEM_DEFECT_RATE: f64 = 1.0;
/// Defect patterns a run serves in turn, lot `i` on pattern `i % PATTERNS`:
/// which dies are defective moves report latencies by about 10% from one
/// pattern to the next, and a figure averaged over several patterns moves
/// less with `--seed`.
pub const PATTERNS: usize = 4;
/// Floor lot names; they label `floor.lot.<name>.*` metrics.
pub const FLOOR_LOTS: [&str; 2] = ["fig1", "bistmem"];

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `FleetRunner::searched` on Figure 1, served packed.
    SearchedLot,
    /// `FleetRunner::new` with `packed_schedule`, served through
    /// `run_monitored` (which forces the scalar per-device path).
    MonitoredLot,
    /// A two-lot `TestFloor`: Figure 1 packed at priority 2 and a BIST +
    /// memory SoC scalar at priority 1.
    MixedFloor,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SearchedLot,
        Workload::MonitoredLot,
        Workload::MixedFloor,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchedLot => "fig1_searched_lot",
            Workload::MonitoredLot => "fig1_monitored_lot",
            Workload::MixedFloor => "mixed_floor",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Devices one lot of this workload tests.
    pub fn devices(self) -> u64 {
        match self {
            Workload::MixedFloor => LOT_DEVICES * FLOOR_LOTS.len() as u64,
            _ => LOT_DEVICES,
        }
    }
}

/// The second floor tenant: two BIST cores and an embedded memory, so the
/// floor serves BIST and march sessions alongside Figure 1's scan cores.
pub fn bistmem_soc() -> SocDescription {
    SocBuilder::new("bist_memory")
        .core(CoreDescription::new(
            "bist16",
            TestMethod::Bist {
                width: 16,
                patterns: 300,
            },
        ))
        .core(CoreDescription::new(
            "dram",
            TestMethod::Memory {
                words: 64,
                data_width: 8,
            },
        ))
        .core(CoreDescription::new(
            "bist8",
            TestMethod::Bist {
                width: 8,
                patterns: 200,
            },
        ))
        .build()
        .expect("valid by construction")
}

/// The `VariationSpec` seed of each defect pattern of a run with `seed`;
/// distinct seeds give disjoint sets.
pub fn lot_seeds(seed: u64) -> [u64; PATTERNS] {
    std::array::from_fn(|k| seed.wrapping_mul(PATTERNS as u64).wrapping_add(k as u64))
}

/// Everything a lot is built from: the SoCs, the seeded defect profiles,
/// the search budget and the pool size.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Figure-1 SoC.
    pub fig1: SocDescription,
    /// The BIST + memory SoC of the floor's second lot.
    pub bistmem: SocDescription,
    /// Figure-1 defect profile (seeded by `--seed`).
    pub fig1_spec: VariationSpec,
    /// BIST + memory defect profile (seeded by `--seed`).
    pub bistmem_spec: VariationSpec,
    /// Search budget of the searched lot (seeded by `--search-seed`).
    pub budget: SearchBudget,
    /// Pool threads every runner and floor uses.
    pub threads: usize,
}

impl Inputs {
    /// Inputs for a variation seed and a search seed.
    pub fn new(seed: u64, search_seed: u64, threads: usize) -> Self {
        Self {
            fig1: catalog::figure1_soc(),
            bistmem: bistmem_soc(),
            fig1_spec: VariationSpec::new(seed, FIG1_DEFECT_RATE),
            bistmem_spec: VariationSpec::new(seed, BISTMEM_DEFECT_RATE),
            budget: SearchBudget {
                seed: search_seed,
                ..SearchBudget::smoke()
            },
            threads,
        }
    }

    /// Bus width of the BIST + memory SoC: its widest core.
    pub fn bistmem_n(&self) -> usize {
        self.bistmem.max_ports()
    }

    /// The floor's lots, built exactly as `mixed_floor` submits them.
    pub fn floor_lots(&self) -> Result<Vec<LotSpec>, SimError> {
        let bistmem_n = self.bistmem_n();
        Ok(vec![
            LotSpec::new(
                FLOOR_LOTS[0],
                &self.fig1,
                FIG1_N,
                packed_schedule(&self.fig1, FIG1_N)?,
                LOT_DEVICES,
                self.fig1_spec,
            )?
            .with_priority(2),
            LotSpec::new(
                FLOOR_LOTS[1],
                &self.bistmem,
                bistmem_n,
                packed_schedule(&self.bistmem, bistmem_n)?,
                LOT_DEVICES,
                self.bistmem_spec,
            )?
            .with_packed(false),
        ])
    }

    /// A runner with this run's pool size. The runner's default pool
    /// already has one worker per hardware thread; it is only replaced
    /// when the benchmark's size differs, so set-up spawns one pool.
    pub fn sized(&self, runner: FleetRunner) -> FleetRunner {
        if runner.threads() == self.threads {
            runner
        } else {
            runner.with_threads(self.threads)
        }
    }

    /// The same for a floor.
    pub fn sized_floor(&self, floor: TestFloor) -> TestFloor {
        if floor.threads() == self.threads {
            floor
        } else {
            floor.with_threads(self.threads)
        }
    }
}

/// What one lot measured and returned.
#[derive(Debug, Default)]
pub struct LotSample {
    /// The defect pattern the lot was served on (index into the run's
    /// [`lot_seeds`]).
    pub pattern: usize,
    /// Seconds the host probe took right before the lot.
    pub host_s: f64,
    /// Construction time, seconds.
    pub setup_s: f64,
    /// The `run*` call, seconds.
    pub serve_s: f64,
    /// Construction to final report, seconds.
    pub lot_s: f64,
    /// Per device: milliseconds from the `run*` call to its report
    /// reaching `on_report`.
    pub latencies_ms: Vec<f64>,
    /// Milliseconds from the `run*` call to the first report.
    pub first_report_ms: f64,
    /// Milliseconds from the last `on_report` until `run*` returned.
    pub assemble_ms: f64,
    /// Per floor lot: milliseconds from the `run*` call to its last report.
    pub lot_done_ms: Vec<f64>,
    /// Route cache accounting after the run.
    pub cache: Option<CacheStats>,
    /// Monitor `(snapshots, dropped, dumps)` of a monitored lot.
    pub monitor: Option<(u64, u64, u64)>,
    /// Admission interventions of a floor lot.
    pub admission_events: u64,
    /// The served schedule of a searched lot.
    pub schedule: Option<Schedule>,
    /// Sorted device reports per (floor) lot.
    pub reports: Vec<Vec<DeviceReport>>,
    /// The serving error, if the lot failed.
    pub error: Option<String>,
}

/// Report arrival times of one `run*` call.
struct Arrivals {
    start: Instant,
    at: Vec<(usize, Instant)>,
}

impl Arrivals {
    fn start(expected: u64) -> Self {
        Self {
            start: Instant::now(),
            at: Vec::with_capacity(expected as usize),
        }
    }

    fn record(&mut self, lot: usize) {
        self.at.push((lot, Instant::now()));
    }

    /// Fills the timing fields of `sample` once `run*` has returned.
    fn finish(self, sample: &mut LotSample, lots: usize) {
        let returned = Instant::now();
        let ms = |at: Instant| at.duration_since(self.start).as_secs_f64() * 1e3;
        sample.serve_s = returned.duration_since(self.start).as_secs_f64();
        sample.latencies_ms = self.at.iter().map(|&(_, at)| ms(at)).collect();
        sample.first_report_ms = self.at.first().map_or(0.0, |&(_, at)| ms(at));
        sample.assemble_ms = self.at.last().map_or(0.0, |&(_, at)| {
            returned.duration_since(at).as_secs_f64() * 1e3
        });
        sample.lot_done_ms = (0..lots)
            .map(|lot| {
                self.at
                    .iter()
                    .rev()
                    .find(|&&(l, _)| l == lot)
                    .map_or(0.0, |&(_, at)| ms(at))
            })
            .collect();
    }
}

/// Serves one lot of `workload` end to end.
pub fn run_lot(workload: Workload, inputs: &Inputs) -> LotSample {
    let mut sample = LotSample::default();
    let started = Instant::now();
    let outcome = match workload {
        Workload::SearchedLot => searched_lot(inputs, &mut sample, started),
        Workload::MonitoredLot => monitored_lot(inputs, &mut sample, started),
        Workload::MixedFloor => floor_lot(inputs, &mut sample, started),
    };
    sample.lot_s = started.elapsed().as_secs_f64();
    match outcome {
        Ok(reports) => sample.reports = reports,
        Err(err) => sample.error = Some(err.to_string()),
    }
    sample
}

fn searched_lot(
    inputs: &Inputs,
    sample: &mut LotSample,
    started: Instant,
) -> Result<Vec<Vec<DeviceReport>>, SimError> {
    let runner =
        FleetRunner::searched(&inputs.fig1, FIG1_N, inputs.budget).map(|r| inputs.sized(r));
    sample.setup_s = started.elapsed().as_secs_f64();
    let runner = runner?;
    let mut arrivals = Arrivals::start(LOT_DEVICES);
    let fleet = runner.run_with(&inputs.fig1_spec, LOT_DEVICES, |_| arrivals.record(0));
    arrivals.finish(sample, 1);
    sample.cache = Some(runner.cache().stats());
    sample.schedule = Some(runner.schedule().clone());
    Ok(vec![fleet?.devices])
}

fn monitored_lot(
    inputs: &Inputs,
    sample: &mut LotSample,
    started: Instant,
) -> Result<Vec<Vec<DeviceReport>>, SimError> {
    let runner = packed_schedule(&inputs.fig1, FIG1_N)
        .map_err(SimError::from)
        .and_then(|schedule| FleetRunner::new(&inputs.fig1, FIG1_N, schedule))
        .map(|r| inputs.sized(r));
    let (monitor, snapshots) = FleetMonitor::new();
    sample.setup_s = started.elapsed().as_secs_f64();
    let runner = runner?;
    let mut arrivals = Arrivals::start(LOT_DEVICES);
    let fleet = runner.run_monitored_with_metrics(
        &inputs.fig1_spec,
        LOT_DEVICES,
        &MetricsRegistry::new(),
        &monitor,
        |_| arrivals.record(0),
    );
    arrivals.finish(sample, 1);
    sample.cache = Some(runner.cache().stats());
    sample.monitor = Some((
        snapshots.try_iter().count() as u64,
        monitor.snapshots_dropped(),
        monitor.dumps().len() as u64,
    ));
    Ok(vec![fleet?.devices])
}

fn floor_lot(
    inputs: &Inputs,
    sample: &mut LotSample,
    started: Instant,
) -> Result<Vec<Vec<DeviceReport>>, SimError> {
    let lots = inputs.floor_lots();
    let floor = inputs.sized_floor(TestFloor::new());
    sample.setup_s = started.elapsed().as_secs_f64();
    let lots = lots?;
    let mut arrivals = Arrivals::start(LOT_DEVICES * 2);
    let report = floor.run_with(lots, |lot, _| arrivals.record(lot));
    arrivals.finish(sample, FLOOR_LOTS.len());
    sample.cache = Some(floor.cache().stats());
    let report = report?;
    sample.admission_events = report.lots.iter().map(|l| l.events.len() as u64).sum();
    Ok(report.lots.into_iter().map(|l| l.fleet.devices).collect())
}

/// The expected reports of a workload's lots, built once per run from
/// serving paths other than the one under test.
#[derive(Debug)]
pub struct Oracle {
    /// Expected sorted reports per (floor) lot.
    expected: Vec<Vec<DeviceReport>>,
    /// The reference interpreter's report of a healthy die, per lot: every
    /// healthy die must match it.
    healthy: Vec<SocTestReport>,
    /// The schedule a searched lot must serve.
    schedule: Option<Schedule>,
    /// Simulated test cycles of one healthy die, summed over lots.
    pub plan_test_cycles: u64,
}

/// The reference interpreter's report of one healthy die under `schedule`.
fn reference_report(
    soc: &SocDescription,
    n: usize,
    schedule: Schedule,
) -> Result<SocTestReport, SimError> {
    let plan = CompiledProgram::compile(soc, n, schedule)?;
    let mut sim = SocSimulator::new(soc, n)?;
    run_program_reference(&mut sim, plan.program())
}

impl Oracle {
    /// Builds the oracle of `workload`. The searched lot is checked against
    /// a scalar (`with_packed(false)`) run of `searched`'s schedule, the
    /// monitored lot against an unmonitored run, and each floor lot against
    /// a standalone runner.
    ///
    /// # Errors
    ///
    /// Any simulation error: without an oracle no report can be checked.
    pub fn build(
        workload: Workload,
        inputs: &Inputs,
        searched: Option<&Schedule>,
    ) -> Result<Self, SimError> {
        let fig1_packed = || packed_schedule(&inputs.fig1, FIG1_N);
        let standalone = |soc: &SocDescription, n, schedule, spec, packed| {
            FleetRunner::new(soc, n, schedule)
                .map(|r| inputs.sized(r).with_packed(packed))
                .and_then(|r| r.run(spec, LOT_DEVICES))
                .map(|fleet| fleet.devices)
        };
        let (expected, healthy, schedule) = match workload {
            Workload::SearchedLot => {
                let schedule = searched.expect("a searched lot ran first").clone();
                let expected = standalone(
                    &inputs.fig1,
                    FIG1_N,
                    schedule.clone(),
                    &inputs.fig1_spec,
                    false,
                )?;
                let healthy = reference_report(&inputs.fig1, FIG1_N, schedule.clone())?;
                (vec![expected], vec![healthy], Some(schedule))
            }
            Workload::MonitoredLot => {
                let expected = standalone(
                    &inputs.fig1,
                    FIG1_N,
                    fig1_packed()?,
                    &inputs.fig1_spec,
                    true,
                )?;
                let healthy = reference_report(&inputs.fig1, FIG1_N, fig1_packed()?)?;
                (vec![expected], vec![healthy], None)
            }
            Workload::MixedFloor => {
                let n = inputs.bistmem_n();
                let bistmem = packed_schedule(&inputs.bistmem, n)?;
                let expected = vec![
                    standalone(
                        &inputs.fig1,
                        FIG1_N,
                        fig1_packed()?,
                        &inputs.fig1_spec,
                        true,
                    )?,
                    standalone(
                        &inputs.bistmem,
                        n,
                        bistmem.clone(),
                        &inputs.bistmem_spec,
                        false,
                    )?,
                ];
                let healthy = vec![
                    reference_report(&inputs.fig1, FIG1_N, fig1_packed()?)?,
                    reference_report(&inputs.bistmem, n, bistmem)?,
                ];
                (expected, healthy, None)
            }
        };
        let plan_test_cycles = healthy.iter().map(|r| r.total_cycles).sum();
        Ok(Self {
            expected,
            healthy,
            schedule,
            plan_test_cycles,
        })
    }

    /// Devices of `sample` that were missing, errored, surplus, or differ
    /// from the oracle. Never panics: every failure is a count.
    pub fn errors(&self, sample: &LotSample) -> u64 {
        let attempted: u64 = self.expected.iter().map(|e| e.len() as u64).sum();
        if sample.error.is_some() {
            return attempted;
        }
        if self.schedule.is_some() && sample.schedule != self.schedule {
            return attempted;
        }
        let mut errors = 0;
        for (idx, expected) in self.expected.iter().enumerate() {
            let got = sample.reports.get(idx).map_or(&[][..], Vec::as_slice);
            errors += device_errors(expected, got, &self.healthy[idx]);
        }
        errors
    }
}

/// Device-level disagreements between a lot's reports and its oracle: a
/// device counts once if it is missing, differs from its expected report,
/// or — when healthy — differs from the reference interpreter's healthy
/// report; surplus reports count too.
pub fn device_errors(
    expected: &[DeviceReport],
    got: &[DeviceReport],
    healthy: &SocTestReport,
) -> u64 {
    let by_id: HashMap<u64, &DeviceReport> = got.iter().map(|d| (d.device_id, d)).collect();
    let wrong = expected
        .iter()
        .filter(|want| match by_id.get(&want.device_id) {
            Some(have) => *have != *want || (have.fault.is_none() && have.report != *healthy),
            None => true,
        })
        .count();
    (wrong + got.len().saturating_sub(expected.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_sim::InjectedFault;

    fn report(id: u64, cycles: u64, fault: Option<InjectedFault>) -> DeviceReport {
        DeviceReport {
            device_id: id,
            fault,
            report: SocTestReport {
                verdicts: Vec::new(),
                total_cycles: cycles,
                steps: 1,
                per_core_cycles: Vec::new(),
                bus_cycles: 0,
                signatures: Vec::new(),
            },
        }
    }

    #[test]
    fn device_errors_count_missing_wrong_surplus_and_unhealthy() {
        let healthy = report(0, 10, None).report;
        let expected: Vec<DeviceReport> = (0..4).map(|id| report(id, 10, None)).collect();
        assert_eq!(device_errors(&expected, &expected, &healthy), 0);

        // Device 1 missing, device 2 wrong, one surplus report (id 9).
        let got = vec![
            report(0, 10, None),
            report(2, 11, None),
            report(3, 10, None),
            report(9, 10, None),
            report(9, 10, None),
        ];
        assert_eq!(device_errors(&expected, &got, &healthy), 2 + 1);

        // Oracle and lot agree but both differ from the healthy reference.
        let drifted: Vec<DeviceReport> = (0..4).map(|id| report(id, 12, None)).collect();
        assert_eq!(device_errors(&drifted, &drifted, &healthy), 4);
    }
}
