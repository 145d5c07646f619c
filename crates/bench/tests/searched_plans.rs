//! The schedule search on the packing-heavy Table-1 rows: the searched
//! plan never books more cycles than the heuristic plans it is seeded
//! from, and a search handed a compiled validator plans what the search
//! without one plans.

use casbus::Tam;
use casbus_bench::table1_schedule_cases;
use casbus_controller::schedule::{packed_schedule, serial_schedule, wave_optimal_schedule};
use casbus_controller::search::{search_schedule, search_schedule_with, SearchBudget};
use casbus_controller::{Schedule, TestProgram};
use casbus_obs::MetricsRegistry;
use casbus_sim::CompiledValidator;
use casbus_soc::SocDescription;

/// The cycles `schedule`'s program books.
fn booked(soc: &SocDescription, schedule: &Schedule) -> u64 {
    let tam = Tam::new(soc, schedule.bus_width()).expect("the bus fits every core");
    TestProgram::from_schedule(&tam, soc, schedule)
        .expect("program")
        .booked_cycles(&tam)
}

#[test]
fn the_search_never_books_more_than_its_seeds_on_table1_rows() {
    for case in table1_schedule_cases() {
        let (soc, n) = (&case.soc, case.n);
        let searched = search_schedule(soc, n, SearchBudget::smoke()).expect("fits");
        assert!(searched.is_conflict_free(), "N={n} P={}", case.p);
        let searched = booked(soc, &searched);
        let seeds = [
            ("serial", serial_schedule(soc, n)),
            ("packed", packed_schedule(soc, n)),
            ("wave-optimal", wave_optimal_schedule(soc, n)),
        ];
        for (name, seed) in seeds {
            // The wave DP runs only up to its core limit.
            let Ok(seed) = seed else { continue };
            let seed = booked(soc, &seed);
            assert!(
                searched <= seed,
                "N={n} P={}: the searched plan books {searched} cycles, the {name} plan {seed}",
                case.p
            );
        }
    }
}

#[test]
fn a_compiled_validator_plans_what_the_search_plans_on_table1_rows() {
    for case in table1_schedule_cases() {
        let metrics = MetricsRegistry::new();
        let validated = search_schedule_with(
            &case.soc,
            case.n,
            SearchBudget::smoke(),
            &CompiledValidator::new(2),
            &metrics,
        )
        .expect("fits");
        let searched = search_schedule(&case.soc, case.n, SearchBudget::smoke()).expect("fits");
        assert_eq!(validated, searched, "N={} P={}", case.n, case.p);
        assert_eq!(metrics.counter("search.validation_failures"), 0);
    }
}
