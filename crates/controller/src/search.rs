//! Simulation-in-the-loop schedule search: a seeded, annealed makespan
//! optimizer over the strip-packing schedule space.
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
//! 3. **Score** every move with an incremental evaluator that maintains
//!    makespan and conflict state in `O(k)` per changed session instead of
//!    an `O(k²)` rebuild per candidate.
//! 4. **Validate** the top-K survivors after each round by actually
//!    executing them — the [`CandidateValidator`] hook. `casbus-sim` plugs
//!    its compiled word-level engine in here; the pure-analytic default is
//!    [`NoValidation`].
//!
//! Determinism: the same SoC, bus width and [`SearchBudget`] always return
//! the same schedule. Because the heuristic seeds join the survivor pool,
//! the result is never worse than the best heuristic.

use std::cmp::Reverse;

use casbus_obs::MetricsRegistry;
use casbus_soc::SocDescription;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule, ScheduleError, Slot, Strip,
};

/// Resource limits and tuning knobs for [`search_schedule`].
///
/// The defaults suit Table-1-sized SoCs (up to a few tens of cores); CI
/// uses [`SearchBudget::smoke`] for a fast deterministic pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBudget {
    /// Annealing rounds; the survivor pool is validated after each round.
    /// Clamped to at least 1 so validation always runs.
    pub rounds: usize,
    /// Local-search moves attempted per round.
    pub moves_per_round: usize,
    /// Survivor-pool size handed to the validator per round. Clamped to at
    /// least 1.
    pub top_k: usize,
    /// RNG seed: same seed (and inputs) → same schedule.
    pub seed: u64,
    /// Initial annealing temperature, as a fraction of the seed makespan.
    pub initial_temperature: f64,
    /// Per-round geometric cooling factor in `(0, 1]`.
    pub cooling: f64,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            rounds: 8,
            moves_per_round: 800,
            top_k: 4,
            seed: 0xCA5B_0504,
            initial_temperature: 0.05,
            cooling: 0.65,
        }
    }
}

impl SearchBudget {
    /// A tiny deterministic budget for CI smoke runs: three rounds of 200
    /// moves with two survivors.
    pub fn smoke() -> Self {
        Self {
            rounds: 3,
            moves_per_round: 200,
            top_k: 2,
            ..Self::default()
        }
    }
}

/// Executes candidate schedules to measure — and gate — them.
///
/// The controller cannot depend on the simulator (the dependency points the
/// other way), so execution-backed validation is injected: after each round
/// the top-K pool is handed over as built [`Schedule`]s and the validator
/// returns each one's measured cost (total tester cycles for an
/// engine-backed implementation), or `None` to veto the candidate from the
/// pool. `casbus_sim` implements this on its compiled engine with a shared
/// route-table cache; [`NoValidation`] keeps the search purely analytic.
pub trait CandidateValidator {
    /// Measures each candidate, `None` vetoing it. Must return exactly one
    /// entry per candidate, in order.
    fn measure(&self, soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>>;
}

/// The analytic default validator: every candidate passes, measured at its
/// own makespan.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoValidation;

impl CandidateValidator for NoValidation {
    fn measure(&self, _soc: &SocDescription, candidates: &[Schedule]) -> Vec<Option<u64>> {
        candidates.iter().map(|c| Some(c.makespan())).collect()
    }
}

/// Incremental analytic scorer for one incumbent candidate.
///
/// Holds the packing instance and the incumbent's per-core slots, and
/// maintains the makespan and the sum of session ends under single-session
/// updates: a move touching `m` sessions costs `O(m·k)` for the conflict
/// check plus `O(1)` bookkeeping (an `O(k)` makespan recompute only when
/// the defining session shrinks) — versus `O(k²)` for a full
/// [`Schedule::is_conflict_free`] rebuild. That gap is what makes tens of
/// thousands of annealing moves affordable.
#[derive(Debug, Clone)]
struct Evaluator {
    strip: Strip,
    slots: Vec<Slot>,
    makespan: u64,
    sum_ends: u64,
    /// Tie-break weight for the sum of ends, small enough that the cost
    /// ordering of two candidates with different integer makespans can
    /// never flip.
    tie_eps: f64,
}

impl Evaluator {
    fn new(strip: Strip, slots: &[Slot]) -> Self {
        let total: u64 = strip.durations.iter().sum();
        let tie_eps = 1.0 / ((strip.widths.len() as u64 * (total + 1)) as f64 + 1.0);
        let mut eval = Self {
            strip,
            slots: Vec::new(),
            makespan: 0,
            sum_ends: 0,
            tie_eps,
        };
        eval.load(slots);
        eval
    }

    fn k(&self) -> usize {
        self.strip.widths.len()
    }

    fn end(&self, i: usize) -> u64 {
        self.slots[i].0 + self.strip.durations[i]
    }

    fn cost(&self) -> f64 {
        self.makespan as f64 + self.sum_ends as f64 * self.tie_eps
    }

    fn cost_of(&self, slots: &[Slot]) -> f64 {
        let (makespan, sum_ends) = span_and_sum(&self.strip.durations, slots);
        makespan as f64 + sum_ends as f64 * self.tie_eps
    }

    /// Replaces the whole incumbent and recomputes the aggregates.
    fn load(&mut self, slots: &[Slot]) {
        self.slots.clear();
        self.slots.extend_from_slice(slots);
        (self.makespan, self.sum_ends) = span_and_sum(&self.strip.durations, slots);
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

    /// Re-places session `i`, updating the aggregates incrementally.
    fn place(&mut self, i: usize, slot: Slot) {
        let old_end = self.end(i);
        self.slots[i] = slot;
        let new_end = self.end(i);
        self.sum_ends = self.sum_ends - old_end + new_end;
        if new_end >= self.makespan {
            self.makespan = new_end;
        } else if old_end == self.makespan {
            // The defining end moved left: the one O(k) case.
            self.makespan = (0..self.k()).map(|j| self.end(j)).max().unwrap_or(0);
        }
    }
}

/// Makespan and sum-of-ends of per-core slots.
fn span_and_sum(durations: &[u64], slots: &[Slot]) -> (u64, u64) {
    let mut makespan = 0u64;
    let mut sum_ends = 0u64;
    for (&(start, _), duration) in slots.iter().zip(durations) {
        let end = start + duration;
        makespan = makespan.max(end);
        sum_ends += end;
    }
    (makespan, sum_ends)
}

/// A survivor-pool entry: a candidate plus its analytic and (once the
/// validator has seen it) measured cost.
struct PoolEntry {
    makespan: u64,
    sum_ends: u64,
    slots: Vec<Slot>,
    measured: Option<u64>,
}

fn pool_insert(
    pool: &mut Vec<PoolEntry>,
    makespan: u64,
    sum_ends: u64,
    slots: &[Slot],
    top_k: usize,
) {
    if pool.iter().any(|e| e.slots == slots) {
        return;
    }
    if pool.len() >= top_k
        && pool
            .last()
            .is_some_and(|worst| (makespan, sum_ends) >= (worst.makespan, worst.sum_ends))
    {
        return;
    }
    pool.push(PoolEntry {
        makespan,
        sum_ends,
        slots: slots.to_vec(),
        measured: None,
    });
    pool.sort_by_key(|e| (e.makespan, e.sum_ends));
    pool.truncate(top_k);
}

/// Shift move: re-place a random session at the placer's slot against all
/// the others. Never worsens the cost (the current slot is itself
/// feasible), so it is always applied when it changes anything.
fn move_shift(eval: &mut Evaluator, rng: &mut StdRng) -> bool {
    let k = eval.k();
    let i = rng.random_range(0..k);
    let others = (0..k).filter(move |&j| j != i);
    let slot = eval.strip.earliest_slot(&eval.slots, others, i, |_| true);
    if slot == eval.slots[i] {
        return false;
    }
    eval.place(i, slot);
    true
}

/// Applies `moves`, keeping them on cost improvement or with the Metropolis
/// probability `exp(-Δ/temp)`, reverting otherwise.
fn anneal_apply(
    eval: &mut Evaluator,
    rng: &mut StdRng,
    temp: f64,
    moves: &[(usize, Slot)],
) -> bool {
    let old_cost = eval.cost();
    let saved: Vec<(usize, Slot)> = moves.iter().map(|&(i, _)| (i, eval.slots[i])).collect();
    for &(i, slot) in moves {
        eval.place(i, slot);
    }
    let delta = eval.cost() - old_cost;
    if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
        return true;
    }
    for &(i, slot) in &saved {
        eval.place(i, slot);
    }
    false
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
    anneal_apply(eval, rng, temp, &[(i, (start, wire))])
}

/// Swap move: exchange two sessions' wire lanes (clamped onto the bus).
/// Cost-neutral — ends do not change — but it reshuffles which lanes are
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
        eval.place(idx, slot);
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
    let delta = eval.cost_of(&candidate) - eval.cost();
    if delta <= 0.0 || rng.random::<f64>() < (-delta / temp).exp() {
        eval.load(&candidate);
        true
    } else {
        false
    }
}

/// Searches for a minimum-makespan conflict-free schedule.
///
/// Seeds from [`serial_schedule`], [`packed_schedule`] and — within its
/// core limit — [`wave_optimal_schedule`], so the result is **never worse
/// than the best heuristic**; the annealed local search then exploits the
/// staggered-start freedom the wave model gives away. Deterministic for a
/// fixed `budget`.
///
/// # Errors
///
/// The same fit errors as the heuristics: [`ScheduleError::ZeroWidth`] and
/// [`ScheduleError::CoreTooWide`].
///
/// # Examples
///
/// ```
/// use casbus_controller::search::{search_schedule, SearchBudget};
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure1_soc();
/// let searched = search_schedule(&soc, 6, SearchBudget::smoke())?;
/// let packed = packed_schedule(&soc, 6)?;
/// assert!(searched.is_conflict_free());
/// assert!(searched.makespan() <= packed.makespan());
/// # Ok::<(), casbus_controller::ScheduleError>(())
/// ```
pub fn search_schedule(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
) -> Result<Schedule, ScheduleError> {
    search_schedule_with(soc, n, budget, &NoValidation, &MetricsRegistry::new())
}

/// [`search_schedule`] with an execution-backed [`CandidateValidator`] and
/// a registry receiving the search telemetry: `search.seed_makespan`,
/// `search.best_makespan`, `search.candidates_evaluated`,
/// `search.moves_{accepted,rejected}`, `search.validations`,
/// `search.validation_failures` counters plus the
/// `search.best_makespan_trajectory` series (one point per improvement).
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
    let mut pool = optimize(soc, n, budget, validator, metrics)?;
    Ok(pool.remove(0))
}

/// Runs the search and returns its final survivor pool, winner first.
fn optimize(
    soc: &SocDescription,
    n: usize,
    budget: SearchBudget,
    validator: &dyn CandidateValidator,
    metrics: &MetricsRegistry,
) -> Result<Vec<Schedule>, ScheduleError> {
    let packed = packed_schedule(soc, n)?;
    let k = soc.cores().len();
    if k <= 1 {
        // A lone session (or none) is already optimally placed at cycle 0.
        metrics.set("search.seed_makespan", packed.makespan());
        metrics.set("search.best_makespan", packed.makespan());
        return Ok(vec![packed]);
    }
    let strip = Strip::new(soc, n)?;
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
    // `search.seed_makespan` reports the best *heuristic* seed — the number
    // the searched makespan is benchmarked against — so record it before
    // the diversity decodes join the seed set.
    let heuristic_best = seeds
        .iter()
        .map(|slots| span_and_sum(&strip.durations, slots).0)
        .min()
        .expect("at least two heuristic seeds");
    metrics.set("search.seed_makespan", heuristic_best);
    metrics.append("search.best_makespan_trajectory", heuristic_best);
    // Greedy decodes of two more priority orders, for diversity.
    let (widths, durations) = (&strip.widths, &strip.durations);
    let mut widest: Vec<usize> = (0..k).collect();
    widest.sort_by_key(|&i| (Reverse(widths[i]), Reverse(durations[i]), i));
    let mut by_area: Vec<usize> = (0..k).collect();
    by_area.sort_by_key(|&i| (Reverse(durations[i] * widths[i] as u64), i));
    for order in [widest, by_area] {
        seeds.push(strip.decode(&order, |_, _, _, _| true));
    }

    let top_k = budget.top_k.max(1);
    let mut pool: Vec<PoolEntry> = Vec::new();
    let mut evaluated = 0u64;
    for seed in &seeds {
        evaluated += 1;
        let (makespan, sum_ends) = span_and_sum(&strip.durations, seed);
        pool_insert(&mut pool, makespan, sum_ends, seed, top_k);
    }
    let mut best_makespan = heuristic_best;
    if pool[0].makespan < best_makespan {
        best_makespan = pool[0].makespan;
        metrics.append("search.best_makespan_trajectory", best_makespan);
    }

    let mut eval = Evaluator::new(strip, &pool[0].slots);
    let mut rng = StdRng::seed_from_u64(budget.seed);
    let t0 = (budget.initial_temperature * best_makespan as f64).max(1.0);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let rounds = budget.rounds.max(1);

    for round in 0..rounds {
        if let Some(best) = pool.first() {
            // Elitist restart: each round resumes from the best survivor.
            if best.makespan < eval.makespan {
                eval.load(&best.slots);
            }
        }
        let temp = (t0 * budget.cooling.powi(round as i32)).max(1e-9);
        for _ in 0..budget.moves_per_round {
            evaluated += 1;
            let kind: u32 = rng.random_range(0..100u32);
            let applied = if kind < 35 {
                move_shift(&mut eval, &mut rng)
            } else if kind < 65 {
                move_jump(&mut eval, &mut rng, temp)
            } else if kind < 80 {
                move_swap(&mut eval, &mut rng)
            } else {
                move_rebuild(&mut eval, &mut rng, temp)
            };
            if applied {
                accepted += 1;
                if eval.makespan < best_makespan {
                    best_makespan = eval.makespan;
                    metrics.append("search.best_makespan_trajectory", best_makespan);
                }
                pool_insert(&mut pool, eval.makespan, eval.sum_ends, &eval.slots, top_k);
            } else {
                rejected += 1;
            }
        }
        // Hand the round's new survivors to the validator.
        let unmeasured: Vec<usize> = (0..pool.len())
            .filter(|&i| pool[i].measured.is_none())
            .collect();
        if !unmeasured.is_empty() {
            let schedules = unmeasured
                .iter()
                .map(|&i| eval.strip.schedule(soc, &pool[i].slots))
                .collect::<Result<Vec<_>, _>>()?;
            let measured = validator.measure(soc, &schedules);
            assert_eq!(
                measured.len(),
                schedules.len(),
                "validator must measure every candidate"
            );
            metrics.inc("search.validations", measured.len() as u64);
            for (&i, m) in unmeasured.iter().zip(&measured) {
                pool[i].measured = *m;
            }
            let before = pool.len();
            pool.retain(|e| e.measured.is_some());
            metrics.inc("search.validation_failures", (before - pool.len()) as u64);
        }
    }

    if pool.is_empty() {
        // Every candidate was vetoed (a validator defect more than a search
        // outcome): fall back to the strongest heuristic seed rather than
        // failing the schedule request.
        let fallback = seeds
            .into_iter()
            .min_by_key(|slots| span_and_sum(&eval.strip.durations, slots))
            .expect("at least two seeds exist");
        let (makespan, sum_ends) = span_and_sum(&eval.strip.durations, &fallback);
        pool.push(PoolEntry {
            makespan,
            sum_ends,
            slots: fallback,
            measured: None,
        });
    }
    pool.sort_by_key(|e| (e.makespan, e.measured.unwrap_or(u64::MAX), e.sum_ends));
    metrics.set("search.best_makespan", pool[0].makespan);
    metrics.set("search.candidates_evaluated", evaluated);
    metrics.set("search.moves_accepted", accepted);
    metrics.set("search.moves_rejected", rejected);
    metrics.set("search.rounds", rounds as u64);
    pool.iter()
        .map(|e| eval.strip.schedule(soc, &e.slots))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use casbus_soc::{catalog, CoreDescription, SocBuilder, TestMethod};

    fn best_heuristic(soc: &SocDescription, n: usize) -> u64 {
        [
            serial_schedule(soc, n),
            packed_schedule(soc, n),
            wave_optimal_schedule(soc, n),
        ]
        .into_iter()
        .filter_map(|s| s.ok().map(|s| s.makespan()))
        .min()
        .expect("serial always succeeds")
    }

    /// Four external-test cores on a 2-wire bus where every heuristic lands
    /// on 9 cycles but the optimum (the area lower bound) is 8, reachable
    /// only by staggering a start inside another session's window.
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

    #[test]
    fn search_never_worse_than_any_heuristic() {
        let soc = catalog::figure1_soc();
        for n in 4..=9 {
            let searched = search_schedule(&soc, n, SearchBudget::smoke()).unwrap();
            assert!(searched.is_conflict_free(), "n={n}\n{searched}");
            assert_eq!(searched.tests().len(), soc.cores().len());
            assert!(
                searched.makespan() <= best_heuristic(&soc, n),
                "n={n}: searched {} vs heuristic {}",
                searched.makespan(),
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
        assert_eq!(
            best_heuristic(&soc, 2),
            9,
            "heuristics all miss the optimum"
        );
        let searched = search_schedule(&soc, 2, SearchBudget::smoke()).unwrap();
        assert!(searched.is_conflict_free(), "{searched}");
        assert_eq!(searched.makespan(), 8, "{searched}");
    }

    #[test]
    fn search_records_metrics_and_trajectory() {
        let soc = staggered_soc();
        let metrics = MetricsRegistry::new();
        let searched =
            search_schedule_with(&soc, 2, SearchBudget::smoke(), &NoValidation, &metrics).unwrap();
        assert_eq!(metrics.counter("search.best_makespan"), searched.makespan());
        assert_eq!(metrics.counter("search.seed_makespan"), 9);
        assert!(metrics.counter("search.candidates_evaluated") > 0);
        assert!(metrics.counter("search.validations") > 0);
        let trajectory = metrics.series("search.best_makespan_trajectory").unwrap();
        assert_eq!(trajectory.first(), Some(&9));
        assert_eq!(trajectory.last(), Some(&searched.makespan()));
        assert!(
            trajectory.windows(2).all(|w| w[1] <= w[0]),
            "trajectory must be non-increasing: {trajectory:?}"
        );
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
        assert!(searched.makespan() <= best_heuristic(&soc, 6));
        assert!(metrics.counter("search.validation_failures") > 0);
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
        assert_eq!(sched.makespan(), best_heuristic(&single, 3));

        // Past the wave-optimal DP limit the search still runs (seeded from
        // serial/packed only).
        let mut rng = StdRng::seed_from_u64(11);
        let big = catalog::random_soc(&mut rng, 20, 3);
        let searched = search_schedule(&big, 6, SearchBudget::smoke()).unwrap();
        assert!(searched.is_conflict_free());
        assert!(searched.makespan() <= best_heuristic(&big, 6));
    }

    #[test]
    fn candidate_pool_is_ranked_and_bounded() {
        let soc = catalog::figure1_soc();
        let metrics = MetricsRegistry::new();
        let budget = SearchBudget::smoke();
        let pool = optimize(&soc, 6, budget, &NoValidation, &metrics).unwrap();
        assert!(!pool.is_empty() && pool.len() <= budget.top_k.max(1));
        for pair in pool.windows(2) {
            assert!(pair[0].makespan() <= pair[1].makespan());
        }
        let winner = search_schedule(&soc, 6, budget).unwrap();
        assert_eq!(pool[0], winner);
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
