//! Schedule search: the execution half.
//!
//! `casbus-controller`'s annealed search ranks candidates by the cycles
//! their program books, which it computes without simulation. What
//! execution adds is the oracle: [`run_program_searched`] searches, then
//! refuses to return a winner whose compiled report is not bit-identical
//! to the cycle-by-cycle reference interpreter's, and
//! [`FleetRunner::searched`](crate::FleetRunner::searched) applies the
//! same gate before serving. Only the winner is simulated.
//!
//! [`CompiledValidator`] implements the controller's
//! [`CandidateValidator`] hook on the compiled engine, for callers that
//! still hand [`search_schedule_with`] a validator. It runs the candidates
//! in order on the caller's thread, can veto a candidate but never
//! reorders them, so it plans what the search plans.
//!
//! [`search_schedule_with`]: casbus_controller::search::search_schedule_with

use std::sync::Arc;

use casbus::{RouteTableCache, Tam};
use casbus_controller::search::{search_schedule_metered, CandidateValidator, SearchBudget};
use casbus_controller::{Schedule, TestProgram};
use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;

use crate::engine::{CompileBlocker, CompiledEngine};
use crate::report::{run_program_reference, SocTestReport};
use crate::session::SessionCache;
use crate::simulator::{SimError, SocSimulator};

/// Execution-backed candidate validation on the compiled engine.
///
/// Candidates run one after another, in order, on the caller's thread,
/// each on a single-threaded engine that shares this validator's
/// [`RouteTableCache`] and compiled sessions. A candidate that fails to
/// build, configure, or pass is vetoed (`None`); one that passes measures
/// its total tester cycles.
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
    cache: Arc<RouteTableCache>,
    sessions: Arc<SessionCache>,
}

impl CompiledValidator {
    /// A validator that fully executes every candidate on the caller's
    /// thread. The thread count is ignored: the search hands a validator
    /// one candidate, its winner, so there is nothing to spread.
    pub fn new(_threads: usize) -> Self {
        Self {
            cache: Arc::new(RouteTableCache::new()),
            sessions: Arc::default(),
        }
    }

    /// Replaces the validator's route-table cache with a shared one.
    pub fn with_cache(mut self, cache: Arc<RouteTableCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Builds, configures, and runs one candidate; `None` vetoes it.
    fn measure_one(&self, soc: &SocDescription, candidate: &Schedule) -> Option<u64> {
        let n = candidate.bus_width();
        let tam = Tam::new(soc, n).ok()?;
        let program = TestProgram::from_schedule(&tam, soc, candidate).ok()?;
        let mut sim = SocSimulator::new(soc, n).ok()?;
        let engine = CompiledEngine::new()
            .with_cache(Arc::clone(&self.cache))
            .with_sessions(Arc::clone(&self.sessions));
        let report = engine.run(&mut sim, &program).ok()?;
        report.all_pass().then_some(report.total_cycles)
    }
}

impl CandidateValidator for CompiledValidator {
    fn measure(&self, soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
        candidates
            .iter()
            .map(|candidate| self.measure_one(soc, candidate))
            .collect()
    }
}

/// The bit-exact gate on a search winner: runs `program` on a healthy
/// `n`-wire device on `engine`, publishing the run's counters into
/// `metrics`, and refuses a report the reference interpreter does not
/// reproduce signature for signature. Returns the judged run
/// ([`CompiledEngine::run_judged`]): the report, and the first reason a
/// step could not run word-level.
pub(crate) fn gate(
    soc: &SocDescription,
    n: usize,
    program: &TestProgram,
    engine: &CompiledEngine,
    metrics: &MetricsRegistry,
) -> Result<(SocTestReport, Option<CompileBlocker>), SimError> {
    let mut sim = SocSimulator::new(soc, n)?;
    let judged = engine.run_judged(&mut sim, program)?;
    sim.export_metrics(metrics);
    let mut reference_sim = SocSimulator::new(soc, n)?;
    if judged.0 != run_program_reference(&mut reference_sim, program)? {
        return Err(SimError::SearchDiverged);
    }
    Ok(judged)
}

/// Plans *and* proves a test program: searches the schedule space for the
/// plan whose program books the fewest cycles, then runs the winner and
/// gates it bit-exactly against the cycle-by-cycle reference interpreter
/// before returning. The opt-in, search-backed counterpart of
/// [`run_program`](crate::run_program) — pay a bounded search budget, get
/// the cheapest schedule the search found, never a silently wrong one.
/// Only the winner is simulated.
///
/// `metrics` receives the controller's `search.*` counters and trajectory
/// ([`search_schedule_metered`]) and the gate run's engine counters. Pass
/// a fresh registry to discard them.
///
/// # Examples
///
/// ```
/// use casbus_controller::search::SearchBudget;
/// use casbus_obs::MetricsRegistry;
/// use casbus_sim::run_program_searched;
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let metrics = MetricsRegistry::new();
/// let (schedule, report) = run_program_searched(&soc, 8, SearchBudget::smoke(), &metrics)?;
/// assert!(report.all_pass());
/// assert!(schedule.is_conflict_free());
/// assert_eq!(metrics.counter("search.best_booked_cycles"), report.total_cycles);
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
    let schedule = search_schedule_metered(soc, n, budget, metrics)?;
    let tam = Tam::new(soc, n)?;
    let program = TestProgram::from_schedule(&tam, soc, &schedule)?;
    // The winner is only a winner if the compiled engine's report of it is
    // indistinguishable from the reference interpreter's.
    let (report, _) = gate(soc, n, &program, &CompiledEngine::new(), metrics)?;
    Ok((schedule, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_controller::schedule::{packed_schedule, serial_schedule};
    use casbus_controller::search::search_schedule_with;
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
            let cache = Arc::new(RouteTableCache::new());
            let validator = CompiledValidator::new(threads).with_cache(Arc::clone(&cache));
            let measured =
                validator.measure(&soc, &[packed.clone(), serial.clone(), packed.clone()]);
            assert_eq!(
                measured,
                vec![Some(expected[0]), Some(expected[1]), Some(expected[0])],
                "{threads} threads"
            );
            // The duplicate candidate repeats every wave shape: the shared
            // cache must have served hits.
            assert!(cache.hits() > 0, "{threads} threads");
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
        // The winner runs exactly the cycles the search ranked it by, and
        // no more than the best heuristic plan books.
        assert_eq!(
            metrics.counter("search.best_booked_cycles"),
            report.total_cycles
        );
        assert!(report.total_cycles <= metrics.counter("search.seed_booked_cycles"));
        // Nothing but the winner was simulated.
        assert_eq!(metrics.counter("search.validations"), 0);
        assert!(metrics.counter("search.candidates_evaluated") > 0);
    }

    #[test]
    fn a_compiled_validator_plans_what_the_search_plans() {
        // The validator passes every healthy candidate, and a validator
        // never reorders: the validated search plans the schedule the
        // unvalidated one does, at every width.
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let metrics = MetricsRegistry::new();
            let validated = search_schedule_with(
                &soc,
                n,
                SearchBudget::smoke(),
                &CompiledValidator::new(2),
                &metrics,
            )
            .unwrap();
            let searched = casbus_controller::search_schedule(&soc, n, SearchBudget::smoke());
            assert_eq!(validated, searched.unwrap(), "n={n}");
            assert!(metrics.counter("search.validations") > 0, "n={n}");
            assert_eq!(metrics.counter("search.validation_failures"), 0, "n={n}");
        }
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
