//! Simulation-in-the-loop schedule search: the execution half.
//!
//! `casbus-controller`'s annealed makespan search scores candidates
//! analytically and hands its survivor pool to a
//! [`CandidateValidator`] — the controller cannot depend on this crate, so
//! the hook is injected. [`CompiledValidator`] is that hook: it executes
//! each candidate on the compiled word-level engine ([`CompiledEngine`]),
//! fanned out across a scoped thread pool, all workers sharing one
//! [`RouteTableCache`] and one set of compiled sessions, so a wave shape
//! and a core's session are compiled once per search, not once per
//! candidate.
//!
//! [`run_program_searched`] is the opt-in end-to-end entry point: search,
//! validate, then refuse to return a winner whose compiled report is not
//! bit-identical to the cycle-by-cycle reference interpreter.

use std::sync::Arc;

use casbus::{RouteTableCache, Tam};
use casbus_controller::search::{search_schedule_with, CandidateValidator, SearchBudget};
use casbus_controller::{Schedule, TestProgram};
use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;

use crate::engine::{CompileBlocker, CompiledEngine};
use crate::pool::lpt_fanout;
use crate::report::{run_program_reference, SocTestReport};
use crate::session::SessionCache;
use crate::simulator::{SimError, SocSimulator};

/// Execution-backed candidate validation on the compiled engine.
///
/// Candidates are spread over up to `threads` scoped workers by LPT on
/// their makespans ([`lpt_fanout`]), each running its candidates on a
/// single-threaded engine, and every worker's engine shares this
/// validator's [`RouteTableCache`]: a step shape that another survivor or
/// an earlier round already compiled routes as a hash lookup, and the
/// winner's gate run and every device served from the same cache find all
/// of the winner's shapes compiled. A candidate that fails to build,
/// configure, or pass is vetoed (`None`) — the search then drops it from
/// the pool.
///
/// # Examples
///
/// ```
/// use casbus_controller::search::{CandidateValidator, SearchBudget};
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_sim::CompiledValidator;
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let packed = packed_schedule(&soc, 8).unwrap();
/// let validator = CompiledValidator::new(2);
/// let measured = validator.measure(&soc, &[packed]);
/// assert!(measured[0].is_some(), "a heuristic schedule executes cleanly");
/// ```
#[derive(Debug)]
pub struct CompiledValidator {
    threads: usize,
    cache: Arc<RouteTableCache>,
    sessions: Arc<SessionCache>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl CompiledValidator {
    /// A validator that fully executes every candidate on up to `threads`
    /// workers (`0` is clamped to 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            cache: Arc::new(RouteTableCache::new()),
            sessions: Arc::default(),
            telemetry: None,
        }
    }

    /// The route-table cache shared by every validation worker (and, via
    /// [`CompiledEngine::with_cache`], reusable for the winner's final run).
    pub fn cache(&self) -> &Arc<RouteTableCache> {
        &self.cache
    }

    /// Replaces the validator's route-table cache with a shared (possibly
    /// capacity-bounded) one, so a longer-lived owner — the fleet runner
    /// compiles through the very cache its devices will execute from — pays
    /// each wave shape's compilation exactly once across search *and*
    /// serving.
    pub fn with_cache(mut self, cache: Arc<RouteTableCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Shares `sessions` with every validation engine, so a caller that
    /// keeps the `Arc` serves the winner from the sessions the search
    /// compiled.
    pub(crate) fn with_sessions(mut self, sessions: Arc<SessionCache>) -> Self {
        self.sessions = sessions;
        self
    }

    /// Attaches a registry observing `obs.search.validate_us` — the wall
    /// time of every candidate measurement — into the new quantile
    /// histograms. Wall-clock telemetry lives under the `obs.*` prefix and
    /// is excluded from the determinism contract.
    pub fn with_telemetry(mut self, telemetry: Arc<MetricsRegistry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Builds, configures, and runs one candidate; `None` vetoes it.
    fn measure_one(&self, soc: &SocDescription, candidate: &Schedule) -> Option<u64> {
        let started = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let measured = self.measure_inner(soc, candidate);
        if let (Some(telemetry), Some(started)) = (&self.telemetry, started) {
            telemetry.observe(
                "obs.search.validate_us",
                started.elapsed().as_micros() as u64,
            );
        }
        measured
    }

    fn measure_inner(&self, soc: &SocDescription, candidate: &Schedule) -> Option<u64> {
        let n = candidate.bus_width();
        let tam = Tam::new(soc, n).ok()?;
        let program = TestProgram::from_schedule(&tam, soc, candidate).ok()?;
        let mut sim = SocSimulator::new(soc, n).ok()?;
        let report = self.engine().run(&mut sim, &program).ok()?;
        report.all_pass().then_some(report.total_cycles)
    }

    /// An engine over this validator's caches: parallelism lives across
    /// the candidates, one thread per run.
    fn engine(&self) -> CompiledEngine {
        CompiledEngine::new()
            .with_cache(Arc::clone(&self.cache))
            .with_sessions(Arc::clone(&self.sessions))
    }

    /// The bit-exact gate on a search winner: runs `program` on a healthy
    /// `n`-wire device through this validator's caches, publishing the
    /// run's counters into `metrics`, and refuses a report the reference
    /// interpreter does not reproduce signature for signature. Returns the
    /// judged run ([`CompiledEngine::run_judged`]): the report, and the
    /// first reason a step could not run word-level.
    pub(crate) fn gate(
        &self,
        soc: &SocDescription,
        n: usize,
        program: &TestProgram,
        metrics: &MetricsRegistry,
    ) -> Result<(SocTestReport, Option<CompileBlocker>), SimError> {
        let mut sim = SocSimulator::new(soc, n)?;
        let judged = self.engine().run_judged(&mut sim, program)?;
        sim.export_metrics(metrics);
        let mut reference_sim = SocSimulator::new(soc, n)?;
        if judged.0 != run_program_reference(&mut reference_sim, program)? {
            return Err(SimError::SearchDiverged);
        }
        Ok(judged)
    }
}

impl CandidateValidator for CompiledValidator {
    fn measure(&self, soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
        // Candidates spread over the shared scoped LPT fan-out by makespan;
        // results come back in candidate order.
        let weighted: Vec<(u64, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(idx, candidate)| (candidate.makespan(), idx))
            .collect();
        lpt_fanout(weighted, self.threads, |idx| {
            self.measure_one(soc, &candidates[idx])
        })
    }
}

/// Plans *and* proves a test program: searches the schedule space with
/// execution-backed validation ([`CompiledValidator`] on every hardware
/// thread), then runs the winner and gates it bit-exactly against the
/// cycle-by-cycle reference interpreter before returning. The opt-in,
/// search-backed counterpart of [`run_program`](crate::run_program) — pay
/// a bounded search budget, get the shortest schedule the search found,
/// never a silently wrong one.
///
/// `metrics` receives the search telemetry: the controller's `search.*`
/// counters and trajectory, plus `search.route_cache.hits`,
/// `search.route_cache.misses`, and `search.route_cache.shapes` from the
/// shared route-compilation cache as the search left it, the winner run's
/// engine counters, and an
/// `obs.search.validate_us` wall-clock histogram (p50/p99 of per-candidate
/// validation time; `obs.*` names are excluded from the determinism
/// contract). Pass a fresh registry to discard it.
///
/// # Examples
///
/// ```
/// use casbus_controller::search::SearchBudget;
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_obs::MetricsRegistry;
/// use casbus_sim::run_program_searched;
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let metrics = MetricsRegistry::new();
/// let (schedule, report) = run_program_searched(&soc, 8, SearchBudget::smoke(), &metrics)?;
/// assert!(report.all_pass());
/// assert!(schedule.makespan() <= packed_schedule(&soc, 8).unwrap().makespan());
/// assert!(metrics.counter("search.validations") > 0);
/// # Ok::<(), casbus_sim::SimError>(())
/// ```
///
/// # Errors
///
/// [`SimError::Schedule`] when the SoC cannot be scheduled on `n` wires at
/// all, [`SimError::SearchDiverged`] if the winner's compiled report fails
/// the reference gate (a bug, never an expected outcome), and the usual
/// configuration errors.
pub fn run_program_searched(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
    metrics: &MetricsRegistry,
) -> Result<(Schedule, SocTestReport), SimError> {
    let threads = std::thread::available_parallelism().map_or(1, |c| c.get());
    let telemetry = MetricsRegistry::new();
    let validator = CompiledValidator::new(threads).with_telemetry(Arc::clone(&telemetry));
    let schedule = search_schedule_with(soc, n, budget, &validator, metrics)?;
    metrics.merge_from(&telemetry);
    metrics.set("search.route_cache.hits", validator.cache().hits());
    metrics.set("search.route_cache.misses", validator.cache().misses());
    metrics.set("search.route_cache.shapes", validator.cache().len() as u64);

    let tam = Tam::new(soc, n)?;
    let program = TestProgram::from_schedule(&tam, soc, &schedule)?;
    // The winner is only a winner if the compiled engine's report of it is
    // indistinguishable from the reference interpreter's.
    let (report, _) = validator.gate(soc, n, &program, metrics)?;
    Ok((schedule, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_controller::schedule::{packed_schedule, serial_schedule};
    use casbus_soc::catalog;

    #[test]
    fn compiled_validator_measures_real_total_cycles() {
        let soc = catalog::figure1_soc();
        let packed = packed_schedule(&soc, 8).unwrap();
        let serial = serial_schedule(&soc, 8).unwrap();

        let tam = Tam::new(&soc, 8).unwrap();
        let expected: Vec<u64> = [&packed, &serial]
            .into_iter()
            .map(|sched| {
                let program = TestProgram::from_schedule(&tam, &soc, sched).unwrap();
                let mut sim = SocSimulator::new(&soc, 8).unwrap();
                crate::report::run_program(&mut sim, &program)
                    .unwrap()
                    .total_cycles
            })
            .collect();

        for threads in [1usize, 4] {
            let validator = CompiledValidator::new(threads);
            let measured =
                validator.measure(&soc, &[packed.clone(), serial.clone(), packed.clone()]);
            assert_eq!(
                measured,
                vec![Some(expected[0]), Some(expected[1]), Some(expected[0])],
                "{threads} threads"
            );
            // The duplicate candidate repeats every wave shape: the shared
            // cache must have served hits.
            assert!(validator.cache().hits() > 0, "{threads} threads");
        }
    }

    #[test]
    fn unschedulable_candidates_are_vetoed_not_fatal() {
        let soc = catalog::figure1_soc();
        // A 2-wire bus cannot host figure 1's 4-port cores: building the
        // TAM/program for such a candidate must veto, not panic.
        let narrow = Schedule::from_tests(2, vec![]).unwrap();
        let validator = CompiledValidator::new(1);
        assert_eq!(validator.measure(&soc, &[narrow]), vec![None]);
    }

    #[test]
    fn searched_run_is_gated_bit_exact_and_beats_no_heuristic() {
        let soc = catalog::figure1_soc();
        let metrics = MetricsRegistry::new();
        let (schedule, report) =
            run_program_searched(&soc, 8, SearchBudget::smoke(), &metrics).unwrap();
        assert!(report.all_pass());
        assert!(schedule.is_conflict_free());
        let best_heuristic = packed_schedule(&soc, 8)
            .unwrap()
            .makespan()
            .min(serial_schedule(&soc, 8).unwrap().makespan());
        assert!(schedule.makespan() <= best_heuristic);

        // The gate re-ran the program on both engines; telemetry from the
        // search and the shared route cache must be published. Every
        // validated candidate looks up each of its steps in the cache.
        let validations = metrics.counter("search.validations");
        let misses = metrics.counter("search.route_cache.misses");
        assert!(validations > 0);
        assert!(misses > 0);
        assert!(metrics.counter("search.route_cache.hits") + misses >= validations);
        assert_eq!(metrics.counter("search.route_cache.shapes"), misses);
        assert_eq!(metrics.counter("search.best_makespan"), schedule.makespan());
        let validate = metrics
            .histogram("obs.search.validate_us")
            .expect("per-candidate wall-time histogram");
        assert_eq!(validate.count, metrics.counter("search.validations"));
    }

    #[test]
    fn the_gate_runs_the_winner_on_the_shapes_its_validation_compiled() {
        // Each step's shape includes the sessions it carries, so the
        // flagship's smoke survivors share no shape; the shared cache pays
        // at the gate instead (and for every device served from it),
        // which finds each of the validated winner's shapes compiled.
        let soc = catalog::figure1_soc();
        let validator = CompiledValidator::new(2);
        let schedule = search_schedule_with(
            &soc,
            8,
            SearchBudget::smoke(),
            &validator,
            &MetricsRegistry::new(),
        )
        .unwrap();
        let (hits, misses) = (validator.cache().hits(), validator.cache().misses());
        let tam = Tam::new(&soc, 8).unwrap();
        let program = TestProgram::from_schedule(&tam, &soc, &schedule).unwrap();
        validator
            .gate(&soc, 8, &program, &MetricsRegistry::new())
            .unwrap();
        assert_eq!(validator.cache().misses(), misses, "no new shape");
        assert_eq!(validator.cache().hits(), hits + program.len() as u64);
    }

    #[test]
    fn validator_telemetry_observes_each_candidate() {
        let soc = catalog::figure1_soc();
        let telemetry = MetricsRegistry::new();
        let validator = CompiledValidator::new(2).with_telemetry(Arc::clone(&telemetry));
        let candidates = [
            packed_schedule(&soc, 8).unwrap(),
            serial_schedule(&soc, 8).unwrap(),
            packed_schedule(&soc, 8).unwrap(),
        ];
        validator.measure(&soc, &candidates);
        let hist = telemetry.histogram("obs.search.validate_us").unwrap();
        assert_eq!(hist.count, 3);
    }

    #[test]
    fn searched_run_propagates_schedule_errors() {
        let soc = catalog::figure1_soc();
        assert!(matches!(
            run_program_searched(&soc, 0, SearchBudget::smoke(), &MetricsRegistry::new()),
            Err(SimError::Schedule(
                casbus_controller::ScheduleError::ZeroWidth
            ))
        ));
    }
}
