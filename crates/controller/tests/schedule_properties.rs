//! Property-based tests of the scheduling layer: the power-aware packer
//! never violates its budget, and the annealed search never books more
//! cycles than the heuristics it is seeded from — on every catalog SoC and
//! across randomly generated SoCs, bus widths, and budgets.

use casbus::Tam;
use casbus_controller::schedule::{
    packed_schedule, power_aware_schedule, serial_schedule, wave_optimal_schedule, ScheduleError,
};
use casbus_controller::search::{search_schedule, SearchBudget};
use casbus_controller::{Schedule, TestProgram};
use casbus_soc::{catalog, SocDescription};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The cycles `schedule`'s program books.
fn booked(soc: &SocDescription, schedule: &Schedule) -> u64 {
    let tam = Tam::new(soc, schedule.bus_width()).expect("the bus fits every core");
    TestProgram::from_schedule(&tam, soc, schedule)
        .expect("a scheduler's windows are schemes")
        .booked_cycles(&tam)
}

/// Checks that `searched` is a complete, conflict-free plan of `soc` on
/// `n` wires that books no more cycles than the serial and packed plans,
/// or than the wave-optimal plan where the wave DP runs.
fn check_never_books_more_than_its_seeds(
    soc: &SocDescription,
    n: usize,
    searched: &Schedule,
) -> Result<(), TestCaseError> {
    prop_assert!(searched.is_conflict_free());
    prop_assert_eq!(searched.tests().len(), soc.cores().len());
    let mut seeds = vec![
        ("serial", serial_schedule(soc, n).expect("fits")),
        ("packed", packed_schedule(soc, n).expect("fits")),
    ];
    if let Ok(wave) = wave_optimal_schedule(soc, n) {
        seeds.push(("wave-optimal", wave));
    }
    let searched_booked = booked(soc, searched);
    for (name, seed) in &seeds {
        let seed_booked = booked(soc, seed);
        prop_assert!(
            searched_booked <= seed_booked,
            "{} at n={n}: the searched plan books {searched_booked} cycles, the {name} plan {seed_booked}",
            soc.name()
        );
    }
    Ok(())
}

#[test]
fn the_search_never_books_more_than_its_seeds_on_catalog_socs() {
    let socs = [
        catalog::figure1_soc(),
        catalog::figure2a_scan_soc(),
        catalog::figure2b_bist_soc(),
        catalog::figure2c_external_soc(),
        catalog::figure2d_hierarchical_soc(),
        catalog::maintenance_soc(),
        catalog::itc02_like_soc(),
    ];
    for soc in &socs {
        let m = soc.max_ports();
        for n in [m, m + 1, 2 * m + 2] {
            let searched = search_schedule(soc, n, SearchBudget::smoke()).expect("fits");
            check_never_books_more_than_its_seeds(soc, n, &searched).unwrap();
        }
    }
}

/// Peak instantaneous test power of a schedule. The concurrent-power sum is
/// piecewise constant and only rises when a session starts, so probing at
/// every session start finds the true maximum.
fn peak_power(soc: &SocDescription, sched: &Schedule) -> u32 {
    sched
        .tests()
        .iter()
        .map(|probe| {
            sched
                .tests()
                .iter()
                .filter(|t| t.start <= probe.start && probe.start < t.end())
                .map(|t| soc.cores()[t.core.0].test_power())
                .sum()
        })
        .max()
        .unwrap_or(0)
}

/// A bus just wide enough for the SoC's widest core, plus some slack.
fn fitting_width(soc: &SocDescription, slack: usize) -> usize {
    soc.cores()
        .iter()
        .map(|c| c.required_ports())
        .max()
        .expect("random_soc always has cores")
        + slack
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The power-aware packer schedules every core exactly once, stays
    /// conflict-free, and the summed power of simultaneously-running tests
    /// never exceeds the budget at any instant.
    #[test]
    fn power_aware_schedule_respects_budget_and_stays_conflict_free(
        seed in any::<u64>(),
        cores in 1usize..10,
        max_ports in 1usize..5,
        width_slack in 0usize..5,
        budget_slack in 0u32..20_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, cores, max_ports);
        let n = fitting_width(&soc, width_slack);
        let max_core_power = soc
            .cores()
            .iter()
            .map(|c| c.test_power())
            .max()
            .expect("cores exist");
        let budget = max_core_power.saturating_add(budget_slack);

        let sched = power_aware_schedule(&soc, n, budget).expect("budget fits every core");
        prop_assert!(sched.is_conflict_free());
        prop_assert_eq!(sched.tests().len(), soc.cores().len(), "every core scheduled once");
        let peak = peak_power(&soc, &sched);
        prop_assert!(
            peak <= budget,
            "instantaneous power {} exceeds budget {}",
            peak,
            budget
        );

        // Tightening the constraint can only lengthen the schedule.
        let unconstrained = power_aware_schedule(&soc, n, u32::MAX).expect("no budget");
        prop_assert!(unconstrained.makespan() <= sched.makespan());
        // Without a binding budget the power-aware packer is the plain one.
        prop_assert_eq!(unconstrained, packed_schedule(&soc, n).expect("fits"));
    }

    /// A budget below the hungriest single core is rejected up front with
    /// the dedicated error, never a bogus schedule.
    #[test]
    fn power_budget_below_any_single_core_is_rejected(
        seed in any::<u64>(),
        cores in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, cores, 3);
        let n = fitting_width(&soc, 2);
        let max_core_power = soc
            .cores()
            .iter()
            .map(|c| c.test_power())
            .max()
            .expect("cores exist");
        prop_assume!(max_core_power > 0);
        prop_assert!(matches!(
            power_aware_schedule(&soc, n, max_core_power - 1),
            Err(ScheduleError::PowerBudgetTooSmall { .. })
        ));
    }

    /// The searched schedule is always complete, conflict-free, and books
    /// no more cycles than any seeding heuristic, on arbitrary SoCs.
    #[test]
    fn search_never_loses_to_its_seeds_on_random_socs(
        seed in any::<u64>(),
        cores in 2usize..9,
        width_slack in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, cores, 3);
        let n = fitting_width(&soc, width_slack);
        let budget = SearchBudget {
            rounds: 2,
            moves_per_round: 80,
            ..SearchBudget::smoke()
        };
        let searched = search_schedule(&soc, n, budget).expect("bus fits every core");
        check_never_books_more_than_its_seeds(&soc, n, &searched)?;
    }
}
