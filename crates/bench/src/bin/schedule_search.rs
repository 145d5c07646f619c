//! Experiment P5 — simulation-in-the-loop schedule search: what does an
//! annealed, execution-validated makespan search buy over the one-shot
//! heuristics, and what does it cost?
//!
//! One deterministic pseudo-random SoC per Table-1 `(N, P)` row (shared
//! with `schedule_quality` via [`casbus_bench::table1_schedule_cases`]).
//! For every row the search runs end to end through
//! [`casbus_sim::run_program_searched`]: heuristic seeding, annealed local
//! moves, survivor validation on the compiled word-level engine behind a
//! shared route-table cache, and a final bit-exact gate of the winner
//! against the bit-serial reference interpreter. Per row we record the
//! heuristic and searched makespans, the search wall time, and the route
//! cache's hit rate.
//!
//! Results go to stdout and `BENCH_schedule_search.json` at the workspace
//! root. Set `CASBUS_BENCH_SMOKE=1` for the CI configuration (the small
//! fixed-seed [`SearchBudget::smoke`] budget).

use std::time::Instant;

use casbus_bench::table1_schedule_cases;
use casbus_controller::schedule::{
    packed_schedule, serial_schedule, wave_optimal_schedule, Schedule,
};
use casbus_controller::search::SearchBudget;
use casbus_obs::MetricsRegistry;
use casbus_sim::run_program_searched;

struct Row {
    n: usize,
    p: usize,
    cores: usize,
    serial: u64,
    packed: u64,
    wave_optimal: Option<u64>,
    searched: u64,
    utilisation: f64,
    search_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Row {
    fn best_heuristic(&self) -> u64 {
        self.serial
            .min(self.packed)
            .min(self.wave_optimal.unwrap_or(u64::MAX))
    }

    fn improvement_pct(&self) -> f64 {
        let best = self.best_heuristic();
        if best == 0 {
            0.0
        } else {
            100.0 * (best - self.searched) as f64 / best as f64
        }
    }

    fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Busy wire-cycles over offered wire-cycles: `Σ(Pᵢ·Tᵢ) / (N·makespan)`.
fn utilisation(sched: &Schedule) -> f64 {
    let area: u64 = sched
        .tests()
        .iter()
        .map(|t| t.wires as u64 * t.duration)
        .sum();
    let offered = sched.bus_width() as u64 * sched.makespan();
    if offered == 0 {
        0.0
    } else {
        area as f64 / offered as f64
    }
}

fn main() {
    let smoke = casbus_bench::env_flag("CASBUS_BENCH_SMOKE");
    let budget = if smoke {
        SearchBudget::smoke()
    } else {
        SearchBudget::default()
    };
    println!(
        "Schedule search vs heuristics on Table-1-row SoCs ({} rounds x {} moves, top-{}{})",
        budget.rounds,
        budget.moves_per_round,
        budget.top_k,
        if smoke { ", smoke" } else { "" }
    );
    println!();
    println!(
        "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>6} {:>5} | {:>9} {:>6}",
        "N",
        "P",
        "cores",
        "serial",
        "packed",
        "wave-opt",
        "searched",
        "gain",
        "util",
        "search",
        "cache"
    );
    println!("{:-<13}+{:-<41}+{:-<14}+{:-<17}", "", "", "", "");

    let mut rows = Vec::new();
    for case in table1_schedule_cases() {
        let serial = serial_schedule(&case.soc, case.n).expect("fits").makespan();
        let packed = packed_schedule(&case.soc, case.n).expect("fits").makespan();
        let wave_optimal = wave_optimal_schedule(&case.soc, case.n)
            .ok()
            .map(|s| s.makespan());

        let metrics = MetricsRegistry::new();
        let t0 = Instant::now();
        let (schedule, report) = run_program_searched(&case.soc, case.n, budget, &metrics)
            .expect("searchable and bit-exact");
        let search_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(schedule.is_conflict_free(), "N={} P={}", case.n, case.p);
        assert!(report.all_pass(), "N={} P={}", case.n, case.p);

        let row = Row {
            n: case.n,
            p: case.p,
            cores: case.soc.cores().len(),
            serial,
            packed,
            wave_optimal,
            searched: schedule.makespan(),
            utilisation: utilisation(&schedule),
            search_ms,
            cache_hits: metrics.counter("search.route_cache.hits"),
            cache_misses: metrics.counter("search.route_cache.misses"),
        };
        assert!(
            row.searched <= row.best_heuristic(),
            "search lost to a heuristic on N={} P={}",
            case.n,
            case.p
        );
        println!(
            "{:>2} {:>2} {:>5} | {:>9} {:>9} {:>9} {:>9} | {:>5.1}% {:>4.0}% | {:>7.1}ms {:>5.0}%",
            row.n,
            row.p,
            row.cores,
            row.serial,
            row.packed,
            row.wave_optimal
                .map_or_else(|| "-".to_owned(), |m| m.to_string()),
            row.searched,
            row.improvement_pct(),
            100.0 * row.utilisation,
            row.search_ms,
            100.0 * row.cache_hit_rate(),
        );
        rows.push(row);
    }

    let strict_wins = rows
        .iter()
        .filter(|r| r.searched < r.best_heuristic())
        .count();
    println!();
    println!(
        "search strictly beat the best heuristic on {strict_wins}/{} rows",
        rows.len()
    );
    assert!(
        strict_wins >= 4,
        "expected strict improvements on at least 4 of {} rows, got {strict_wins}",
        rows.len()
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"p\": {}, \"cores\": {}, \"serial\": {}, \"packed\": {}, \
                 \"wave_optimal\": {}, \"best_heuristic\": {}, \"searched\": {}, \
                 \"improvement_pct\": {:.2}, \"utilisation\": {:.4}, \"search_ms\": {:.3}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}}}",
                r.n,
                r.p,
                r.cores,
                r.serial,
                r.packed,
                r.wave_optimal
                    .map_or_else(|| "null".to_owned(), |m| m.to_string()),
                r.best_heuristic(),
                r.searched,
                r.improvement_pct(),
                r.utilisation,
                r.search_ms,
                r.cache_hits,
                r.cache_misses,
                r.cache_hit_rate(),
            )
        })
        .collect();
    let json = format!(
        "{}  \"budget\": {{\"rounds\": {}, \"moves_per_round\": {}, \"top_k\": {}, \"seed\": {}}},\n  \
         \"strict_wins\": {strict_wins},\n  \"rows\": [\n{}\n  ]\n}}\n",
        casbus_bench::json_header("schedule_search", smoke, 1),
        budget.rounds,
        budget.moves_per_round,
        budget.top_k,
        budget.seed,
        json_rows.join(",\n")
    );
    let path = "BENCH_schedule_search.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
