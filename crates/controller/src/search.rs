//! Schedule search: a seeded, annealed optimizer over the strip-packing
//! schedule space that ranks plans by the cycles their program books.
//!
//! The policies in [`crate::schedule`] are one-shot greedy passes; the
//! wrapper/TAM co-optimization literature frames CAS-BUS scheduling as
//! rectangle packing where *search* over placements, not a single greedy
//! sweep, recovers most of the idle bus time. This module implements that
//! search:
//!
//! 1. **Seed** from every heuristic — [`serial_schedule`],
//!    [`packed_schedule`], [`wave_optimal_schedule`] when the SoC is small
//!    enough for its subset DP — plus widest-first and largest-area greedy
//!    decodes for diversity.
//! 2. **Anneal** with four local moves: shift a session to its earliest
//!    feasible slot, jump it next to an anchor session, swap two sessions'
//!    wire lanes, or rebuild greedily from a perturbed priority order.
//!    The decodes, the shift and the rebuild place sessions with the same
//!    placer as [`packed_schedule`]. Acceptance is simulated annealing
//!    over a deterministic seeded RNG.
//! 3. **Score** every candidate by one cost: the cycles its program books
//!    ([`TestProgram::booked_cycles`]), ties broken by the sum of session
//!    ends. The step rule [`step_durations`] gives it from the candidate's
//!    `(start, duration)` pairs, without building a program.
//!
//! Determinism: the same SoC, bus width and [`SearchBudget`] always return
//! the same schedule. The heuristics' plans are candidates, so the result
//! never books more cycles than any of them.
//!
//! [`TestProgram::booked_cycles`]: crate::TestProgram::booked_cycles
//! [`step_durations`]: crate::program::step_durations

use std::cmp::Reverse;

use casbus::Tam;
use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::program::booked_cycles_of;
use crate::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule, ScheduleError, Slot, Strip,
};

/// Initial annealing temperature, as a fraction of the best seed's booked
/// cycles.
const INITIAL_TEMPERATURE: f64 = 0.05;

/// Per-round geometric cooling factor.
const COOLING: f64 = 0.65;

/// Resource limits for [`search_schedule`].
///
/// The defaults suit Table-1-sized SoCs (up to a few tens of cores); CI
/// uses [`SearchBudget::smoke`] for a fast deterministic pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Annealing rounds, each resuming from the best candidate so far.
    /// Clamped to at least 1.
    pub rounds: usize,
    /// Local-search moves attempted per round.
    pub moves_per_round: usize,
    /// RNG seed: same seed (and inputs) → same schedule.
    pub seed: u64,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            rounds: 8,
            moves_per_round: 800,
            seed: 0xCA5B_0504,
        }
    }
}

impl SearchBudget {
    /// A tiny deterministic budget for CI smoke runs: three rounds of 200
    /// moves.
    pub fn smoke() -> Self {
        Self {
            rounds: 3,
            moves_per_round: 200,
            ..Self::default()
        }
    }
}

/// Executes a searched plan to veto it.
///
/// The controller cannot depend on the simulator (the dependency points the
/// other way), so execution is injected: [`search_schedule_with`] hands its
/// winner over as a built [`Schedule`], and the validator returns `Some`
/// (its measured cost) to pass it or `None` to veto it. The measured cost
/// ranks nothing, so a validator that passes the winner leaves the plan
/// unchanged. `casbus_sim::CompiledValidator` implements this on its
/// compiled engine.
pub trait CandidateValidator {
    /// Measures each candidate, `None` vetoing it. Must return exactly one
    /// entry per candidate, in order.
    fn measure(&self, soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>>;
}

/// A candidate's cost: the cycles its program books, ties broken by the sum
/// of its sessions' ends. Ordered lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cost {
    booked: u64,
    sum_ends: u64,
}

/// The annealer's incumbent candidate and its cost.
///
/// Checking a move that touches `m` sessions costs `O(m·k)` — versus
/// `O(k²)` for a full [`Schedule::is_conflict_free`] rebuild — and scoring
/// sorts the `k` `(start, duration)` pairs for the step rule. That is what
/// makes tens of thousands of annealing moves affordable.
#[derive(Debug, Clone)]
struct Evaluator {
    strip: Strip,
    /// Clocks of one configuration shift on the SoC's TAM.
    configuration_clocks: u64,
    /// Weight of the sum of ends in the annealing energy, small enough
    /// that it never outweighs one booked cycle.
    tie_eps: f64,
    slots: Vec<Slot>,
    cost: Cost,
}

impl Evaluator {
    fn new(strip: Strip, configuration_clocks: u64) -> Self {
        let total: u64 = strip.durations.iter().sum();
        let tie_eps = 1.0 / ((strip.widths.len() as u64 * (total + 1)) as f64 + 1.0);
        Self {
            strip,
            configuration_clocks,
            tie_eps,
            slots: Vec::new(),
            cost: Cost {
                booked: 0,
                sum_ends: 0,
            },
        }
    }

    fn k(&self) -> usize {
        self.strip.widths.len()
    }

    fn end(&self, i: usize) -> u64 {
        self.slots[i].0 + self.strip.durations[i]
    }

    /// The cost of per-core `slots`.
    fn cost_of(&self, slots: &[Slot]) -> Cost {
        let mut sessions: Vec<(u64, u64)> = slots
            .iter()
            .zip(&self.strip.durations)
            .map(|(&(start, _), &duration)| (start, duration))
            .collect();
        sessions.sort_unstable();
        Cost {
            booked: booked_cycles_of(&sessions, self.configuration_clocks),
            sum_ends: sessions.iter().map(|&(start, d)| start + d).sum(),
        }
    }

    /// The energy difference annealing weighs for going from `from` to `to`.
    fn delta(&self, from: Cost, to: Cost) -> f64 {
        (to.booked as f64 - from.booked as f64)
            + (to.sum_ends as f64 - from.sum_ends as f64) * self.tie_eps
    }

    /// Replaces the whole incumbent.
    fn load(&mut self, slots: &[Slot], cost: Cost) {
        self.slots.clear();
        self.slots.extend_from_slice(slots);
        self.cost = cost;
    }

    /// Whether re-placing the `moved` sessions (given as `(index, slot)`)
    /// keeps the candidate conflict-free and on the bus. The moved
    /// sessions' current placements are ignored.
    fn feasible(&self, moved: &[(usize, Slot)]) -> bool {
        moved.iter().enumerate().all(|(pos, &(i, slot))| {
            slot.1 + self.strip.widths[i] <= self.strip.n
                && (0..self.k())
                    .filter(|&j| moved.iter().all(|&(m, _)| m != j))
                    .all(|j| !self.strip.overlaps(i, slot, j, self.slots[j]))
                && moved[pos + 1..]
                    .iter()
                    .all(|&(j, other)| !self.strip.overlaps(i, slot, j, other))
        })
    }
}

/// Whether annealing at `temp` takes a move that changes the energy by
/// `delta`: always downhill or level, uphill with probability
/// `exp(-delta/temp)`.
fn accept(rng: &mut StdRng, delta: f64, temp: f64) -> bool {
    delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp()
}

/// Re-places session `i` at `slot` if annealing accepts the result.
fn anneal_apply(eval: &mut Evaluator, rng: &mut StdRng, temp: f64, i: usize, slot: Slot) -> bool {
    let old = eval.slots[i];
    eval.slots[i] = slot;
    let cost = eval.cost_of(&eval.slots);
    if accept(rng, eval.delta(eval.cost, cost), temp) {
        eval.cost = cost;
        return true;
    }
    eval.slots[i] = old;
    false
}

/// Shift move: re-place a random session at the placer's slot against all
/// the others. It never moves a session later, but it can add a start
/// time and so a step; annealed.
fn move_shift(eval: &mut Evaluator, rng: &mut StdRng, temp: f64) -> bool {
    let k = eval.k();
    let i = rng.random_range(0..k);
    let others = (0..k).filter(move |&j| j != i);
    let slot = eval.strip.earliest_slot(&eval.slots, others, i, |_| true);
    if slot == eval.slots[i] {
        return false;
    }
    anneal_apply(eval, rng, temp, i, slot)
}
/// Jump move: align a random session with an anchor session — at its start,
/// at its end, or ending where it starts — on the first feasible lane
/// scanning from a random offset. Annealed (jumps may go uphill).
fn move_jump(eval: &mut Evaluator, rng: &mut StdRng, temp: f64) -> bool {
    let k = eval.k();
    let i = rng.random_range(0..k);
    let mut anchor = rng.random_range(0..k - 1);
    if anchor >= i {
        anchor += 1;
    }
    let start = match rng.random_range(0..3u32) {
        0 => eval.slots[anchor].0,
        1 => eval.end(anchor),
        _ => eval.slots[anchor].0.saturating_sub(eval.strip.durations[i]),
    };
    let lanes = eval.strip.n - eval.strip.widths[i];
    let offset = rng.random_range(0..=lanes);
    let Some(wire) = (0..=lanes)
        .map(|step| (offset + step) % (lanes + 1))
        .find(|&wire| eval.feasible(&[(i, (start, wire))]))
    else {
        return false;
    };
    if (start, wire) == eval.slots[i] {
        return false;
    }
    anneal_apply(eval, rng, temp, i, (start, wire))
}

/// Swap move: exchange two sessions' wire lanes (clamped onto the bus).
/// Cost-neutral — no start changes — but it reshuffles which lanes are
/// free, opening shift/jump opportunities the incumbent lane layout blocks.
fn move_swap(eval: &mut Evaluator, rng: &mut StdRng) -> bool {
    let k = eval.k();
    let i = rng.random_range(0..k);
    let mut j = rng.random_range(0..k - 1);
    if j >= i {
        j += 1;
    }
    let (start_i, wire_i) = eval.slots[i];
    let (start_j, wire_j) = eval.slots[j];
    let moves = [
        (
            i,
            (start_i, wire_j.min(eval.strip.n - eval.strip.widths[i])),
        ),
        (
            j,
            (start_j, wire_i.min(eval.strip.n - eval.strip.widths[j])),
        ),
    ];
    if moves == [(i, eval.slots[i]), (j, eval.slots[j])] || !eval.feasible(&moves) {
        return false;
    }
    for (idx, slot) in moves {
        eval.slots[idx] = slot;
    }
    true
}

/// Rebuild move: take the incumbent's execution order, swap two random
/// positions, and greedily re-decode the whole candidate — the large-step
/// move that escapes local minima the session-local moves cannot.
fn move_rebuild(eval: &mut Evaluator, rng: &mut StdRng, temp: f64) -> bool {
    let k = eval.k();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&i| (eval.slots[i], i));
    let a = rng.random_range(0..k);
    let mut b = rng.random_range(0..k - 1);
    if b >= a {
        b += 1;
    }
    order.swap(a, b);
    let candidate = eval.strip.decode(&order, |_, _, _, _| true);
    let cost = eval.cost_of(&candidate);
    if accept(rng, eval.delta(eval.cost, cost), temp) {
        eval.load(&candidate, cost);
        true
    } else {
        false
    }
}

/// Searches for the conflict-free schedule whose program books the fewest
/// cycles.
///
/// Seeds from [`serial_schedule`], [`packed_schedule`] and — within its
/// core limit — [`wave_optimal_schedule`], so the result **never books
/// more cycles than any heuristic's plan**; the annealed local search then
/// exploits the staggered-start freedom the wave model gives away, paying
/// for each start time it adds with the configuration its step costs.
/// Deterministic for a fixed `budget`.
///
/// # Errors
///
/// The same fit errors as the heuristics: [`ScheduleError::ZeroWidth`] and
/// [`ScheduleError::CoreTooWide`].
///
/// # Examples
///
/// ```
/// use casbus::Tam;
/// use casbus_controller::search::{search_schedule, SearchBudget};
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_controller::TestProgram;
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let tam = Tam::new(&soc, 6)?;
/// let booked = |schedule| -> Result<u64, casbus::CasError> {
///     Ok(TestProgram::from_schedule(&tam, &soc, &schedule)?.booked_cycles(&tam))
/// };
/// let searched = search_schedule(&soc, 6, SearchBudget::smoke())?;
/// assert!(searched.is_conflict_free());
/// assert!(booked(searched)? <= booked(packed_schedule(&soc, 6)?)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn search_schedule(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
) -> Result<Schedule, ScheduleError> {
    optimize(soc, n, budget, None, &MetricsRegistry::new())
}

/// [`search_schedule`], publishing the search telemetry into `metrics`:
/// the `search.seed_booked_cycles` (the best heuristic plan's),
/// `search.best_booked_cycles`, `search.candidates_evaluated`,
/// `search.moves_{accepted,rejected}` and `search.rounds` counters, plus
/// the `search.best_booked_cycles_trajectory` series (one point per
/// improvement).
///
/// # Errors
///
/// Same as [`search_schedule`].
pub fn search_schedule_metered(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
    metrics: &MetricsRegistry,
) -> Result<Schedule, ScheduleError> {
    optimize(soc, n, budget, None, metrics)
}

/// [`search_schedule_metered`] with a [`CandidateValidator`] that may veto
/// the winner, counted under `search.validations` and
/// `search.validation_failures`; a vetoed winner gives way to the best
/// seed.
///
/// # Errors
///
/// Same as [`search_schedule`].
pub fn search_schedule_with(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
    validator: &dyn CandidateValidator,
    metrics: &MetricsRegistry,
) -> Result<Schedule, ScheduleError> {
    optimize(soc, n, budget, Some(validator), metrics)
}

/// Runs the search and returns its winner.
fn optimize(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
    validator: Option<&dyn CandidateValidator>,
    metrics: &MetricsRegistry,
) -> Result<Schedule, ScheduleError> {
    let packed = packed_schedule(soc, n)?;
    let strip = Strip::new(soc, n)?;
    let k = strip.widths.len();
    // `Strip::new` checked that every core fits the bus, so a TAM's
    // geometry exists.
    let configuration_clocks = Tam::configuration_clocks_of(soc, n).expect("every core fits");
    let mut eval = Evaluator::new(strip, configuration_clocks as u64);
    let slots_of = |s: &Schedule| {
        let mut slots = vec![(0, 0); k];
        for t in s.tests() {
            slots[t.core.0] = (t.start, t.wire_start);
        }
        slots
    };

    let mut seeds = vec![slots_of(&packed), slots_of(&serial_schedule(soc, n)?)];
    if let Ok(wave) = wave_optimal_schedule(soc, n) {
        seeds.push(slots_of(&wave));
    }
    // `search.seed_booked_cycles` reports the best *heuristic* plan — the
    // number the searched plan is benchmarked against — so record it
    // before the diversity decodes join the seed set.
    let heuristic_best = seeds
        .iter()
        .map(|slots| eval.cost_of(slots).booked)
        .min()
        .expect("at least two heuristic seeds");
    metrics.set("search.seed_booked_cycles", heuristic_best);
    metrics.append("search.best_booked_cycles_trajectory", heuristic_best);
    // Greedy decodes of two more priority orders, for diversity.
    let (widths, durations) = (&eval.strip.widths, &eval.strip.durations);
    let mut widest: Vec<usize> = (0..k).collect();
    widest.sort_by_key(|&i| (Reverse(widths[i]), Reverse(durations[i]), i));
    let mut by_area: Vec<usize> = (0..k).collect();
    by_area.sort_by_key(|&i| (Reverse(durations[i] * widths[i] as u64), i));
    for order in [widest, by_area] {
        seeds.push(eval.strip.decode(&order, |_, _, _, _| true));
    }

    let mut evaluated = seeds.len() as u64;
    // The best seed, first on ties.
    let (seed_cost, seed) = seeds
        .into_iter()
        .map(|slots| (eval.cost_of(&slots), slots))
        .min_by_key(|&(cost, _)| cost)
        .expect("at least two seeds");
    if seed_cost.booked < heuristic_best {
        metrics.append("search.best_booked_cycles_trajectory", seed_cost.booked);
    }
    eval.load(&seed, seed_cost);
    let mut best = (seed_cost, seed.clone());

    let mut rng = StdRng::seed_from_u64(budget.seed);
    let t0 = (INITIAL_TEMPERATURE * seed_cost.booked as f64).max(1.0);
    // A lone session (or none) has no move to make.
    let moves = if k > 1 { budget.moves_per_round } else { 0 };
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let rounds = budget.rounds.max(1);
    for round in 0..rounds {
        // Elitist restart: each round resumes from the best candidate.
        if best.0 < eval.cost {
            eval.load(&best.1, best.0);
        }
        let temp = (t0 * COOLING.powi(round as i32)).max(1e-9);
        for _ in 0..moves {
            evaluated += 1;
            let kind: u32 = rng.random_range(0..100u32);
            let applied = if kind < 35 {
                move_shift(&mut eval, &mut rng, temp)
            } else if kind < 65 {
                move_jump(&mut eval, &mut rng, temp)
            } else if kind < 80 {
                move_swap(&mut eval, &mut rng)
            } else {
                move_rebuild(&mut eval, &mut rng, temp)
            };
            if !applied {
                rejected += 1;
                continue;
            }
            accepted += 1;
            if eval.cost < best.0 {
                if eval.cost.booked < best.0.booked {
                    metrics.append("search.best_booked_cycles_trajectory", eval.cost.booked);
                }
                best = (eval.cost, eval.slots.clone());
            }
        }
    }

    let mut winner = eval.strip.schedule(soc, &best.1)?;
    if let Some(validator) = validator {
        let verdict = validator.measure(soc, std::slice::from_ref(&winner));
        assert_eq!(verdict.len(), 1, "validator must measure every candidate");
        metrics.inc("search.validations", 1);
        if verdict[0].is_none() {
            // A validator defect more than a search outcome: fall back to
            // the best seed rather than failing the schedule request.
            metrics.inc("search.validation_failures", 1);
            best = (seed_cost, seed);
            winner = eval.strip.schedule(soc, &best.1)?;
        }
    }
    metrics.set("search.best_booked_cycles", best.0.booked);
    metrics.set("search.candidates_evaluated", evaluated);
    metrics.set("search.moves_accepted", accepted);
    metrics.set("search.moves_rejected", rejected);
    metrics.set("search.rounds", rounds as u64);
    Ok(winner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::{catalog, CoreDescription, SocBuilder, TestMethod};

    /// The cycles `schedule`'s program books.
    fn booked(soc: &SocDescription, schedule: &Schedule) -> u64 {
        let sessions: Vec<(u64, u64)> = schedule
            .tests()
            .iter()
            .map(|t| (t.start, t.duration))
            .collect();
        let clocks = Tam::configuration_clocks_of(soc, schedule.bus_width()).unwrap();
        booked_cycles_of(&sessions, clocks as u64)
    }

    /// The fewest cycles a heuristic's program books.
    fn best_heuristic(soc: &SocDescription, n: usize) -> u64 {
        [
            serial_schedule(soc, n),
            packed_schedule(soc, n),
            wave_optimal_schedule(soc, n),
        ]
        .into_iter()
        .filter_map(|s| s.ok().map(|s| booked(soc, &s)))
        .min()
        .expect("serial always succeeds")
    }

    /// Four external-test cores on a 2-wire bus where every heuristic's
    /// makespan is 9 but the area lower bound, 8, is reached by
    /// staggering a start inside another session's window.
    fn staggered_soc() -> SocDescription {
        let rect = |name: &str, ports: usize, cycles: usize| {
            CoreDescription::new(
                name,
                TestMethod::External {
                    ports,
                    patterns: cycles - 1,
                },
            )
        };
        SocBuilder::new("stagger")
            .core(rect("a", 1, 4))
            .core(rect("b", 1, 3))
            .core(rect("c", 2, 3))
            .core(rect("d", 1, 2))
            .build()
            .unwrap()
    }

    /// What the staggered instance's best heuristic plan books: three
    /// steps of an 8-clock configuration shift and its update pulse, and 12
    /// data clocks.
    const BEST_HEURISTIC_BOOKED: u64 = 39;
    /// What the smoke search books on the staggered instance: the
    /// makespan-8 plan in three steps of 3, 4 and 4 data clocks.
    const SEARCHED_BOOKED: u64 = 38;

    /// Passes every candidate, reporting a cost that ranks them backwards.
    struct PassAll;

    impl CandidateValidator for PassAll {
        fn measure(&self, _soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
            candidates
                .iter()
                .map(|c| Some(u64::MAX - c.makespan()))
                .collect()
        }
    }

    #[test]
    fn search_never_worse_than_any_heuristic() {
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let searched = search_schedule(&soc, n, SearchBudget::smoke()).unwrap();
            assert!(searched.is_conflict_free(), "n={n}\n{searched}");
            assert_eq!(searched.tests().len(), soc.cores().len());
            assert!(
                booked(&soc, &searched) <= best_heuristic(&soc, n),
                "n={n}: searched {} vs heuristic {}",
                booked(&soc, &searched),
                best_heuristic(&soc, n)
            );
        }
    }

    #[test]
    fn search_is_deterministic() {
        let soc = catalog::figure1_soc();
        let budget = SearchBudget::default();
        let a = search_schedule(&soc, 6, budget).unwrap();
        let b = search_schedule(&soc, 6, budget).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn search_beats_every_heuristic_on_a_staggered_instance() {
        let soc = staggered_soc();
        assert_eq!(best_heuristic(&soc, 2), BEST_HEURISTIC_BOOKED);
        let searched = search_schedule(&soc, 2, SearchBudget::smoke()).unwrap();
        assert!(searched.is_conflict_free(), "{searched}");
        assert_eq!(booked(&soc, &searched), SEARCHED_BOOKED, "{searched}");
        assert_eq!(searched.makespan(), 8, "{searched}");
    }

    #[test]
    fn search_records_metrics_and_trajectory() {
        let soc = staggered_soc();
        let metrics = MetricsRegistry::new();
        let searched = search_schedule_metered(&soc, 2, SearchBudget::smoke(), &metrics).unwrap();
        assert_eq!(
            metrics.counter("search.best_booked_cycles"),
            booked(&soc, &searched)
        );
        assert_eq!(
            metrics.counter("search.seed_booked_cycles"),
            BEST_HEURISTIC_BOOKED
        );
        assert!(metrics.counter("search.candidates_evaluated") > 0);
        assert_eq!(metrics.counter("search.validations"), 0, "no validator");
        let trajectory = metrics
            .series("search.best_booked_cycles_trajectory")
            .unwrap();
        assert_eq!(trajectory.first(), Some(&BEST_HEURISTIC_BOOKED));
        assert_eq!(trajectory.last(), Some(&booked(&soc, &searched)));
        assert!(
            trajectory.windows(2).all(|w| w[1] < w[0]),
            "trajectory must fall: {trajectory:?}"
        );
    }

    #[test]
    fn a_validator_vetoes_but_never_reorders() {
        // A validator that passes everything plans what the search plans,
        // whatever costs it reports.
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let metrics = MetricsRegistry::new();
            let validated =
                search_schedule_with(&soc, n, SearchBudget::smoke(), &PassAll, &metrics).unwrap();
            assert_eq!(
                validated,
                search_schedule(&soc, n, SearchBudget::smoke()).unwrap(),
                "n={n}"
            );
            assert_eq!(metrics.counter("search.validations"), 1, "n={n}");
            assert_eq!(metrics.counter("search.validation_failures"), 0);
        }
    }

    #[test]
    fn vetoing_validator_falls_back_to_a_heuristic_seed() {
        struct VetoAll;
        impl CandidateValidator for VetoAll {
            fn measure(&self, _soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
                candidates.iter().map(|_| None).collect()
            }
        }
        let soc = catalog::figure1_soc();
        let metrics = MetricsRegistry::new();
        let searched =
            search_schedule_with(&soc, 6, SearchBudget::smoke(), &VetoAll, &metrics).unwrap();
        assert!(searched.is_conflict_free());
        assert!(booked(&soc, &searched) <= best_heuristic(&soc, 6));
        assert_eq!(metrics.counter("search.validation_failures"), 1);
        assert_eq!(
            metrics.counter("search.best_booked_cycles"),
            booked(&soc, &searched)
        );
    }

    #[test]
    fn search_handles_single_core_and_large_socs() {
        let single = SocBuilder::new("one")
            .core(CoreDescription::new(
                "only",
                TestMethod::Bist {
                    width: 8,
                    patterns: 64,
                },
            ))
            .build()
            .unwrap();
        let sched = search_schedule(&single, 3, SearchBudget::smoke()).unwrap();
        assert_eq!(sched.tests().len(), 1);
        assert_eq!(booked(&single, &sched), best_heuristic(&single, 3));

        // Past the wave-optimal DP limit the search still runs (seeded from
        // serial/packed only).
        let mut rng = StdRng::seed_from_u64(11);
        let big = catalog::random_soc(&mut rng, 20, 3);
        let searched = search_schedule(&big, 6, SearchBudget::smoke()).unwrap();
        assert!(searched.is_conflict_free());
        assert!(booked(&big, &searched) <= best_heuristic(&big, 6));
    }

    #[test]
    fn fit_errors_propagate() {
        let soc = catalog::figure1_soc(); // max P = 4
        assert!(matches!(
            search_schedule(&soc, 2, SearchBudget::smoke()),
            Err(ScheduleError::CoreTooWide { .. })
        ));
        assert!(matches!(
            search_schedule(&soc, 0, SearchBudget::smoke()),
            Err(ScheduleError::ZeroWidth)
        ));
    }
}
