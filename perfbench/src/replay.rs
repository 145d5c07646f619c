//! The traced replay: one lot re-served through the same public calls the
//! fleet and floor make, with a span around each call.
//!
//! The replay runs on its own `WorkerPool` of the benchmark's size, so the
//! spans describe the same concurrency as the untraced lot. Nothing inside
//! the crates is instrumented: where a layer's work happens inside a crate
//! call (the monitor's per-device telemetry, the floor's admission thread)
//! it is measured by difference instead, in `main`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use casbus::RouteTableCache;
use casbus_controller::schedule::packed_schedule;
use casbus_controller::search::{search_schedule_with, CandidateValidator};
use casbus_controller::{CompiledProgram, Schedule};
use casbus_obs::MetricsRegistry;
use casbus_p1500::Wrapper;
use casbus_sim::engine_packed::COHORT_LANES;
use casbus_sim::{
    run_program_reference, AdmissionPolicy, CompiledEngine, CompiledValidator, DeviceReport,
    InjectedFault, LotTracker, PackedDeviceEngine, SimError, SocSimulator, SocTestReport,
    VariationSpec, WorkerPool,
};
use casbus_soc::{models, SocDescription};

use crate::spans::Recorder;
use crate::workloads::{Inputs, Workload, FIG1_N, LOT_DEVICES};

/// One die of a lot: its id and the defect stamped on it.
type Member = (u64, Option<InjectedFault>);

/// What a batch job sends back: its lot index and its reports.
type Batch = (usize, Result<Vec<DeviceReport>, SimError>);

/// Lane passes and the dies they carry.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LaneUse {
    /// Packed lane passes: one per tested occurrence of each defective core
    /// per cohort.
    pub passes: u64,
    /// Defective dies carried on a lane.
    pub lane_dies: u64,
}

impl LaneUse {
    /// Lane-carried dies over the lane capacity of every pass.
    pub fn occupancy(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.lane_dies as f64 / (self.passes * COHORT_LANES as u64) as f64
        }
    }
}

/// Lane use of a packed lot. `cohorts[c]` lists the defective core of each
/// lane-carried die of cohort `c`; `occurrences[core]` is how many sessions
/// the program runs for that core. `run_cohort` groups a cohort's
/// lane-carried dies by core and runs one pass per occurrence of each.
pub fn lane_use(cohorts: &[Vec<&str>], occurrences: &HashMap<&str, u64>) -> LaneUse {
    let mut usage = LaneUse::default();
    for cohort in cohorts {
        let mut cores = cohort.clone();
        cores.sort_unstable();
        cores.dedup();
        usage.passes += cores
            .iter()
            .map(|core| occurrences.get(core).copied().unwrap_or(0))
            .sum::<u64>();
        usage.lane_dies += cohort.len() as u64;
    }
    usage
}

/// Device ids `0..devices` grouped consecutively into cohorts of up to 64,
/// each die stamped by `spec`: the grouping `FleetRunner` and `TestFloor`
/// use.
fn plan_cohorts(spec: &VariationSpec, soc: &SocDescription, devices: u64) -> Vec<Vec<Member>> {
    let stamped: Vec<Member> = (0..devices)
        .map(|id| (id, spec.fault_for(soc, id)))
        .collect();
    stamped
        .chunks(COHORT_LANES)
        .map(<[Member]>::to_vec)
        .collect()
}

/// Counts of one replayed lot, taken outside its spans.
#[derive(Debug, Default, Clone)]
pub struct LotCounts {
    /// Search moves plus seeds scored.
    pub search_candidates: u64,
    /// Candidates handed to the validator.
    pub search_validations: u64,
    /// Route cache hit rate when the search ended.
    pub search_hit_rate: f64,
    /// Program steps, summed over the lot's plans.
    pub program_steps: u64,
    /// Packed cohorts.
    pub cohorts: u64,
    /// Packed lane passes and carried dies.
    pub lanes: LaneUse,
    /// Healthy dies in packed cohorts: each gets a clone of the baseline.
    pub baseline_clones: u64,
    /// Defective dies in packed cohorts that fall back to the scalar path.
    pub fallback_devices: u64,
    /// Jobs submitted to the pool.
    pub pool_jobs: u64,
}

/// A replayed lot's reports and counts.
#[derive(Debug)]
pub struct ReplayLot {
    /// Sorted reports per (floor) lot.
    pub reports: Vec<Vec<DeviceReport>>,
    /// The schedule a searched replay planned.
    pub schedule: Option<Schedule>,
    /// Counts taken outside the spans.
    pub counts: LotCounts,
}

/// One lot as the serving layer sees it.
struct Served {
    soc: Arc<SocDescription>,
    plan: Arc<CompiledProgram>,
    spec: VariationSpec,
    packed: bool,
    priority: u64,
}

/// The replay engine: a span store, the pool size, and the queue waits
/// the pool's jobs observed.
#[derive(Debug)]
pub struct Tracer {
    /// Every span of every replayed lot.
    pub rec: Arc<Recorder>,
    /// Milliseconds each job waited between submission and pickup.
    pub waits_ms: Arc<Mutex<Vec<f64>>>,
    threads: usize,
}

/// Times each validator call of the search as a `search.validate` span.
struct TimedValidator<'a> {
    inner: CompiledValidator,
    rec: &'a Recorder,
    lot: u64,
    parent: usize,
}

impl CandidateValidator for TimedValidator<'_> {
    fn measure(&self, soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
        self.rec
            .time("search.validate", self.lot, Some(self.parent), |_| {
                self.inner.measure(soc, candidates)
            })
    }
}

impl Tracer {
    /// A tracer whose lots run on pools of `threads` workers.
    pub fn new(threads: usize) -> Self {
        Self {
            rec: Arc::new(Recorder::new()),
            waits_ms: Arc::new(Mutex::new(Vec::new())),
            threads,
        }
    }

    /// Replays one lot of `workload` as span tree `lot`.
    ///
    /// # Errors
    ///
    /// Any simulation error of the replayed calls.
    pub fn replay(
        &self,
        workload: Workload,
        inputs: &Inputs,
        lot: u64,
    ) -> Result<ReplayLot, SimError> {
        match workload {
            Workload::SearchedLot => self.searched(inputs, lot),
            Workload::MonitoredLot => self.packed_schedule_lot(inputs, lot, false),
            Workload::MixedFloor => self.floor(inputs, lot),
        }
    }

    fn searched(&self, inputs: &Inputs, lot: u64) -> Result<ReplayLot, SimError> {
        let rec = &*self.rec;
        let soc = &inputs.fig1;
        let mut counts = LotCounts::default();
        rec.time("lot", lot, None, |root| {
            let (plan, cache, pool) = rec.time("setup", lot, Some(root), |setup| {
                let cache = Arc::new(RouteTableCache::new());
                let metrics = MetricsRegistry::new();
                let schedule = rec.time("search.schedule", lot, Some(setup), |search| {
                    // Same validator FleetRunner::searched builds: one
                    // worker per hardware thread, sharing the lot's cache.
                    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
                    let validator = TimedValidator {
                        inner: CompiledValidator::new(threads).with_cache(Arc::clone(&cache)),
                        rec,
                        lot,
                        parent: search,
                    };
                    search_schedule_with(soc, FIG1_N, inputs.budget, &validator, &metrics)
                })?;
                counts.search_candidates = metrics.counter("search.candidates_evaluated");
                counts.search_validations = metrics.counter("search.validations");
                counts.search_hit_rate = cache.hit_rate();
                let plan = rec.time("program.compile", lot, Some(setup), |_| {
                    CompiledProgram::compile(soc, FIG1_N, schedule)
                })?;
                let compiled = rec.time("gate.compiled", lot, Some(setup), |_| {
                    let mut sim = SocSimulator::new(soc, FIG1_N)?;
                    CompiledEngine::new()
                        .with_cache(Arc::clone(&cache))
                        .run(&mut sim, plan.program())
                })?;
                let reference = rec.time("gate.reference", lot, Some(setup), |_| {
                    let mut sim = SocSimulator::new(soc, FIG1_N)?;
                    run_program_reference(&mut sim, plan.program())
                })?;
                if compiled != reference {
                    return Err(SimError::SearchDiverged);
                }
                let pool = rec.time("pool.spawn", lot, Some(setup), |_| {
                    WorkerPool::new(self.threads)
                });
                Ok((Arc::new(plan), cache, pool))
            })?;
            let schedule = plan.schedule().clone();
            let served = vec![Served {
                soc: Arc::new(soc.clone()),
                plan,
                spec: inputs.fig1_spec,
                packed: true,
                priority: 1,
            }];
            let reports = self.serve(lot, root, &served, &cache, &pool, false, &mut counts)?;
            Ok(ReplayLot {
                reports,
                schedule: Some(schedule),
                counts,
            })
        })
    }

    /// A Figure-1 lot on `packed_schedule`, as `FleetRunner::new` builds it:
    /// served scalar (what `run_monitored` executes, minus the monitor) or
    /// packed (the plan the searched lot is compared against).
    pub fn packed_schedule_lot(
        &self,
        inputs: &Inputs,
        lot: u64,
        packed: bool,
    ) -> Result<ReplayLot, SimError> {
        let rec = &*self.rec;
        let soc = &inputs.fig1;
        let mut counts = LotCounts::default();
        rec.time("lot", lot, None, |root| {
            let (plan, pool) = rec.time("setup", lot, Some(root), |setup| {
                let schedule = rec.time("program.schedule", lot, Some(setup), |_| {
                    packed_schedule(soc, FIG1_N)
                })?;
                let plan = rec.time("program.compile", lot, Some(setup), |_| {
                    CompiledProgram::compile(soc, FIG1_N, schedule)
                })?;
                let pool = rec.time("pool.spawn", lot, Some(setup), |_| {
                    WorkerPool::new(self.threads)
                });
                Ok::<_, SimError>((Arc::new(plan), pool))
            })?;
            let served = vec![Served {
                soc: Arc::new(soc.clone()),
                plan,
                spec: inputs.fig1_spec,
                packed,
                priority: 1,
            }];
            let cache = Arc::new(RouteTableCache::new());
            let reports = self.serve(lot, root, &served, &cache, &pool, false, &mut counts)?;
            Ok(ReplayLot {
                reports,
                schedule: None,
                counts,
            })
        })
    }

    fn floor(&self, inputs: &Inputs, lot: u64) -> Result<ReplayLot, SimError> {
        let rec = &*self.rec;
        let mut counts = LotCounts::default();
        rec.time("lot", lot, None, |root| {
            let (served, pool) = rec.time("setup", lot, Some(root), |setup| {
                let bistmem_n = inputs.bistmem_n();
                let lots = [
                    (&inputs.fig1, FIG1_N, inputs.fig1_spec, true, 2),
                    (&inputs.bistmem, bistmem_n, inputs.bistmem_spec, false, 1),
                ];
                let mut served = Vec::with_capacity(lots.len());
                for (soc, n, spec, packed, priority) in lots {
                    let schedule = rec.time("program.schedule", lot, Some(setup), |_| {
                        packed_schedule(soc, n)
                    })?;
                    let plan = rec.time("program.compile", lot, Some(setup), |_| {
                        CompiledProgram::compile(soc, n, schedule)
                    })?;
                    served.push(Served {
                        soc: Arc::new(soc.clone()),
                        plan: Arc::new(plan),
                        spec,
                        packed,
                        priority,
                    });
                }
                let pool = rec.time("pool.spawn", lot, Some(setup), |_| {
                    WorkerPool::new(self.threads)
                });
                Ok::<_, SimError>((served, pool))
            })?;
            let cache = Arc::new(RouteTableCache::new());
            let reports = self.serve(lot, root, &served, &cache, &pool, true, &mut counts)?;
            Ok(ReplayLot {
                reports,
                schedule: None,
                counts,
            })
        })
    }

    /// Serves `lots` on `pool` the way `FleetRunner::run_with` (one lot,
    /// default lane) or `TestFloor::run_with` (weighted lanes, one tracker
    /// per lot) does, and returns each lot's sorted reports.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        lot: u64,
        root: usize,
        lots: &[Served],
        cache: &Arc<RouteTableCache>,
        pool: &WorkerPool,
        floor: bool,
        counts: &mut LotCounts,
    ) -> Result<Vec<Vec<DeviceReport>>, SimError> {
        let rec = &*self.rec;
        let name = if floor { "floor.serve" } else { "fleet.serve" };
        let (reports, engines) = rec.time(name, lot, Some(root), |serve| {
            let mut engines = Vec::with_capacity(lots.len());
            for served in lots {
                engines.push(if served.packed {
                    Some(Arc::new(rec.time(
                        "packed.compile",
                        lot,
                        Some(serve),
                        |_| PackedDeviceEngine::compile(&served.soc, &served.plan, cache),
                    )?))
                } else {
                    None
                });
            }
            let trackers: Vec<LotTracker> = lots
                .iter()
                .map(|_| LotTracker::new(LOT_DEVICES, AdmissionPolicy::default().window))
                .collect();
            let (tx, rx) = mpsc::sync_channel::<Batch>(pool.threads().saturating_mul(2).max(1));
            rec.time("pool.dispatch", lot, Some(serve), |dispatch| {
                for (idx, (served, engine)) in lots.iter().zip(&engines).enumerate() {
                    let lane = floor.then(|| pool.lane(served.priority));
                    let cohorts = rec.time("stamp.lot", lot, Some(dispatch), |_| {
                        plan_cohorts(&served.spec, &served.soc, LOT_DEVICES)
                    });
                    let submit = |job: Box<dyn FnOnce() + Send>| match lane {
                        Some(lane) => pool.execute_in(lane, job),
                        None => pool.execute(job),
                    };
                    match engine {
                        Some(engine) => {
                            for cohort in cohorts {
                                let work = Work::Cohort(Arc::clone(engine), cohort);
                                submit(self.job(lot, serve, idx, work, tx.clone()));
                            }
                        }
                        None => {
                            for (device_id, fault) in cohorts.into_iter().flatten() {
                                let work = Work::Device {
                                    soc: Arc::clone(&served.soc),
                                    plan: Arc::clone(&served.plan),
                                    cache: Arc::clone(cache),
                                    device_id,
                                    fault,
                                };
                                submit(self.job(lot, serve, idx, work, tx.clone()));
                            }
                        }
                    }
                }
            });
            drop(tx);

            let mut reports: Vec<Vec<DeviceReport>> = lots.iter().map(|_| Vec::new()).collect();
            for (idx, batch) in rx {
                let batch = batch?;
                if floor {
                    rec.time("floor.track", lot, Some(serve), |_| {
                        for report in &batch {
                            trackers[idx].record(report);
                        }
                    });
                }
                reports[idx].extend(batch);
            }
            rec.time("fleet.assemble", lot, Some(serve), |_| {
                for devices in &mut reports {
                    devices.sort_by_key(|d| d.device_id);
                    // The report totals FleetRunner and TestFloor compute.
                    let passed = devices.iter().filter(|d| d.passed()).count();
                    let cycles: u64 = devices.iter().map(|d| d.report.total_cycles).sum();
                    std::hint::black_box((passed, cycles));
                }
            });
            Ok::<_, SimError>((reports, engines))
        })?;

        for (served, engine) in lots.iter().zip(&engines) {
            counts.program_steps += served.plan.program().len() as u64;
            match engine {
                Some(engine) => {
                    let cohorts = plan_cohorts(&served.spec, &served.soc, LOT_DEVICES);
                    counts.cohorts += cohorts.len() as u64;
                    counts.pool_jobs += cohorts.len() as u64;
                    let occurrences = occurrences(engine.baseline());
                    let carried: Vec<Vec<&str>> = cohorts
                        .iter()
                        .map(|cohort| {
                            cohort
                                .iter()
                                .filter_map(|(_, fault)| fault.as_ref())
                                .filter(|fault| engine.fault_packable(fault))
                                .map(|fault| fault.core.as_str())
                                .collect()
                        })
                        .collect();
                    let lanes = lane_use(&carried, &occurrences);
                    counts.lanes.passes += lanes.passes;
                    counts.lanes.lane_dies += lanes.lane_dies;
                    for (_, fault) in cohorts.iter().flatten() {
                        match fault {
                            None => counts.baseline_clones += 1,
                            Some(f) if engine.fallback_reason(f).is_some() => {
                                counts.fallback_devices += 1;
                            }
                            Some(_) => {}
                        }
                    }
                }
                None => counts.pool_jobs += LOT_DEVICES,
            }
        }
        Ok(reports)
    }

    /// A pool job: records its queue wait, then runs `work` inside a
    /// `pool.job` span and sends the batch back.
    fn job(
        &self,
        lot: u64,
        serve: usize,
        idx: usize,
        work: Work,
        tx: SyncSender<Batch>,
    ) -> Box<dyn FnOnce() + Send> {
        let rec = Arc::clone(&self.rec);
        let waits = Arc::clone(&self.waits_ms);
        let enqueued = Instant::now();
        Box::new(move || {
            let waited = enqueued.elapsed().as_secs_f64() * 1e3;
            waits.lock().expect("wait log poisoned").push(waited);
            rec.time("pool.job", lot, Some(serve), |job| {
                let batch = match work {
                    Work::Cohort(engine, members) => {
                        rec.time("packed.cohort", lot, Some(job), |_| {
                            engine.run_cohort(members)
                        })
                    }
                    Work::Device {
                        soc,
                        plan,
                        cache,
                        device_id,
                        fault,
                    } => rec.time("scalar.device", lot, Some(job), |device| {
                        scalar_device(&rec, lot, device, &soc, &plan, &cache, device_id, fault)
                            .map(|report| vec![report])
                    }),
                };
                // The collector stops at a first error; late batches are
                // dropped, as in the fleet.
                let _ = tx.send((idx, batch));
            });
        })
    }
}

/// What one pool job executes.
enum Work {
    Cohort(Arc<PackedDeviceEngine>, Vec<Member>),
    Device {
        soc: Arc<SocDescription>,
        plan: Arc<CompiledProgram>,
        cache: Arc<RouteTableCache>,
        device_id: u64,
        fault: Option<InjectedFault>,
    },
}

/// Sessions per core in a program, read off a healthy report's verdicts
/// (one verdict per tested occurrence).
fn occurrences(baseline: &SocTestReport) -> HashMap<&str, u64> {
    let mut counts = HashMap::new();
    for (core, _) in &baseline.verdicts {
        *counts.entry(core.as_str()).or_insert(0) += 1;
    }
    counts
}

/// A worker thread's reusable simulator, as the fleet keeps one per
/// worker.
struct Slot {
    soc: Arc<SocDescription>,
    cache: Arc<RouteTableCache>,
    width: usize,
    sim: SocSimulator,
    engine: CompiledEngine,
}

thread_local! {
    static SLOT: RefCell<Option<Slot>> = const { RefCell::new(None) };
}

/// One die on the scalar path: power-on reset of this worker's simulator
/// (or a build on first use), defect stamp, compiled run, and the healthy
/// wrapper put back.
#[allow(clippy::too_many_arguments)]
fn scalar_device(
    rec: &Recorder,
    lot: u64,
    parent: usize,
    soc: &Arc<SocDescription>,
    plan: &CompiledProgram,
    cache: &Arc<RouteTableCache>,
    device_id: u64,
    fault: Option<InjectedFault>,
) -> Result<DeviceReport, SimError> {
    SLOT.with(|slot| {
        let mut slot = slot.borrow_mut();
        let reusable = slot.as_ref().is_some_and(|s| {
            Arc::ptr_eq(&s.soc, soc) && Arc::ptr_eq(&s.cache, cache) && s.width == plan.bus_width()
        });
        if reusable {
            let worker = slot.as_mut().expect("checked above");
            rec.time("scalar.reset", lot, Some(parent), |_| {
                worker.sim.reset_device()
            });
        } else {
            let sim = rec.time("scalar.build", lot, Some(parent), |_| {
                SocSimulator::new_shared(Arc::clone(soc), plan.bus_width())
            })?;
            *slot = Some(Slot {
                soc: Arc::clone(soc),
                cache: Arc::clone(cache),
                width: plan.bus_width(),
                sim,
                engine: CompiledEngine::new().with_cache(Arc::clone(cache)),
            });
        }
        let worker = slot.as_mut().expect("slot installed");
        let outcome = run_stamped(rec, lot, parent, worker, plan, fault.as_ref());
        if outcome.is_err() {
            *slot = None;
        }
        outcome.map(|report| DeviceReport {
            device_id,
            fault,
            report,
        })
    })
}

fn run_stamped(
    rec: &Recorder,
    lot: u64,
    parent: usize,
    worker: &mut Slot,
    plan: &CompiledProgram,
    fault: Option<&InjectedFault>,
) -> Result<SocTestReport, SimError> {
    if let Some(fault) = fault {
        rec.time("scalar.apply", lot, Some(parent), |_| {
            fault.apply(&mut worker.sim)
        })?;
    }
    let report = rec.time("scalar.run", lot, Some(parent), |_| {
        worker.engine.run(&mut worker.sim, plan.program())
    })?;
    if let Some(fault) = fault {
        rec.time("scalar.restore", lot, Some(parent), |_| {
            restore_healthy(&mut worker.sim, &fault.core)
        })?;
    }
    Ok(report)
}

/// Puts a freshly built healthy wrapper back on `core`, undoing a stamped
/// defect (a power-on reset keeps injected faults).
fn restore_healthy(sim: &mut SocSimulator, core: &str) -> Result<(), SimError> {
    let healthy = {
        let (_, desc) = sim
            .soc()
            .core_by_name(core)
            .ok_or_else(|| SimError::UnknownCore(core.to_owned()))?;
        Wrapper::new(
            models::instantiate(desc),
            desc.functional_inputs(),
            desc.functional_outputs(),
        )
    };
    *sim.wrapper_mut(core)? = healthy;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_use_counts_one_pass_per_defective_core_occurrence_per_cohort() {
        // Cohort 0 carries three dies on two cores (b is tested twice),
        // cohort 1 one die, cohort 2 none.
        let cohorts = vec![vec!["a", "b", "a"], vec!["c"], vec![]];
        let occurrences = HashMap::from([("a", 1), ("b", 2), ("c", 1)]);
        let usage = lane_use(&cohorts, &occurrences);
        assert_eq!(
            usage,
            LaneUse {
                passes: 1 + 2 + 1,
                lane_dies: 4
            }
        );
        assert!((usage.occupancy() - 4.0 / (4.0 * 64.0)).abs() < 1e-12);
        assert_eq!(LaneUse::default().occupancy(), 0.0);
    }

    #[test]
    fn cohorts_are_consecutive_and_at_most_one_word_wide() {
        let soc = casbus_soc::catalog::figure1_soc();
        let cohorts = plan_cohorts(&VariationSpec::new(7, 0.25), &soc, 130);
        let sizes: Vec<usize> = cohorts.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![64, 64, 2]);
        assert_eq!(cohorts[1][0].0, 64);
    }
}
