//! Shared data and helpers for the experiment binaries that regenerate
//! every table and figure of the CAS-BUS paper.
//!
//! Run the experiments with, e.g.:
//!
//! ```text
//! cargo run -p casbus-bench --bin table1
//! cargo run -p casbus-bench --bin tradeoff_n
//! cargo run -p casbus-bench --bin ablation_heuristic
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use casbus::CasGeometry;
use casbus_controller::{Schedule, TestProgram};

/// One row of the paper's Table 1: `(N, P, m, k, gates)` as printed in the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperRow {
    /// Test bus width.
    pub n: usize,
    /// Switched wires.
    pub p: usize,
    /// Combination count reported by the paper.
    pub m: u128,
    /// Instruction register width reported by the paper.
    pub k: u32,
    /// Synthesized gate count reported by the paper (Synopsys, unspecified
    /// library).
    pub gates: u32,
}

/// The paper's Table 1, verbatim.
pub const PAPER_TABLE1: [PaperRow; 12] = [
    PaperRow {
        n: 3,
        p: 1,
        m: 5,
        k: 3,
        gates: 16,
    },
    PaperRow {
        n: 4,
        p: 1,
        m: 6,
        k: 3,
        gates: 23,
    },
    PaperRow {
        n: 4,
        p: 2,
        m: 14,
        k: 4,
        gates: 64,
    },
    PaperRow {
        n: 4,
        p: 3,
        m: 26,
        k: 5,
        gates: 118,
    },
    PaperRow {
        n: 5,
        p: 1,
        m: 7,
        k: 3,
        gates: 28,
    },
    PaperRow {
        n: 5,
        p: 2,
        m: 22,
        k: 5,
        gates: 85,
    },
    PaperRow {
        n: 5,
        p: 3,
        m: 62,
        k: 6,
        gates: 205,
    },
    PaperRow {
        n: 6,
        p: 1,
        m: 8,
        k: 3,
        gates: 33,
    },
    PaperRow {
        n: 6,
        p: 2,
        m: 32,
        k: 5,
        gates: 134,
    },
    PaperRow {
        n: 6,
        p: 3,
        m: 122,
        k: 7,
        gates: 280,
    },
    PaperRow {
        n: 6,
        p: 5,
        m: 722,
        k: 10,
        gates: 1154,
    },
    PaperRow {
        n: 8,
        p: 4,
        m: 1682,
        k: 11,
        gates: 4400,
    },
];

impl PaperRow {
    /// The geometry of this row.
    ///
    /// # Panics
    ///
    /// Never — all table rows are valid geometries.
    pub fn geometry(&self) -> CasGeometry {
        CasGeometry::new(self.n, self.p).expect("paper rows are valid")
    }
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        "—".to_owned()
    } else {
        format!("{:.2}x", ours / paper)
    }
}

/// Runs `f` at least once and at most `max_runs` times or until `budget`
/// has elapsed, returning the fastest run's wall-clock time and the last
/// run's result.
pub fn best_of<T>(max_runs: usize, budget: Duration, mut f: impl FnMut() -> T) -> (Duration, T) {
    let started = Instant::now();
    let mut result = f();
    let mut best = started.elapsed();
    for _ in 1..max_runs {
        if started.elapsed() > budget {
            break;
        }
        let run = Instant::now();
        result = f();
        best = best.min(run.elapsed());
    }
    (best, result)
}

/// Whether the environment variable `name` is set to anything but empty
/// or `0`: `CASBUS_BENCH_SMOKE=1` selects a bench's fast configuration,
/// `CASBUS_BENCH_REQUIRE_SCALING=1` turns a scaling warning into a failure.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Hardware threads available to this process (1 when unknown).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Opens a `BENCH_*.json` document with the members every bench records
/// first: the benchmark's name, the host's [`hardware_threads`], whether
/// this was a smoke run, and the most timed runs behind any one figure
/// (best-of timings stop early once their time budget runs out). The
/// caller appends its own members and the closing brace.
pub fn json_header(benchmark: &str, smoke: bool, repeats: usize) -> String {
    format!(
        "{{\n  \"benchmark\": \"{benchmark}\",\n  \"hardware_threads\": {},\n  \
         \"smoke\": {smoke},\n  \"repeats\": {repeats},\n",
        hardware_threads()
    )
}

/// The median and range of repeated timings, so a bench gates on the
/// median of several interleaved repeats instead of on one sample at the
/// mercy of host drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median (the mean of the middle pair for an even count).
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "spread of no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Self {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// `[min, max]` as a JSON array with `decimals` digits.
    pub fn range_json(&self, decimals: usize) -> String {
        format!("[{:.decimals$}, {:.decimals$}]", self.min, self.max)
    }
}

/// One scheduling experiment instance: a deterministic pseudo-random SoC
/// tested over the bus width of one Table-1 row.
#[derive(Debug, Clone)]
pub struct ScheduleCase {
    /// Test bus width (the row's `N`).
    pub n: usize,
    /// Maximum switched wires per core (the row's `P`).
    pub p: usize,
    /// The generated SoC.
    pub soc: casbus_soc::SocDescription,
}

/// Deterministic per-row SoC instances for the scheduling experiments: one
/// pseudo-random SoC per Table-1 `(N, P)` row, every core needing at most
/// `P` wires on an `N`-wire bus. Core counts vary per row, and several rows
/// exceed the exact wave-DP's core limit on purpose, so the benches cover
/// both the regime where `wave_optimal_schedule` is available and the one
/// where only the greedy heuristics and the search can run.
///
/// Unlike [`casbus_soc::catalog::random_soc`] (whose core durations span
/// orders of magnitude, so the longest single test is the makespan and no
/// scheduler can matter), these SoCs are *packing-heavy*: external-test
/// cores with comparable pattern counts and mixed port widths, many layers
/// of rectangles deep on the bus — the regime where scheduling policy is
/// actually worth cycles.
pub fn table1_schedule_cases() -> Vec<ScheduleCase> {
    use casbus_soc::{CoreDescription, SocBuilder, TestMethod};
    use rand::{RngExt, SeedableRng};
    // Per-row core counts: mixed small (exact DP available) and large
    // (past `WAVE_OPTIMAL_CORE_LIMIT = 14`) instances.
    const CORES: [usize; 12] = [8, 10, 12, 9, 16, 12, 10, 18, 14, 12, 9, 20];
    PAPER_TABLE1
        .iter()
        .zip(CORES)
        .enumerate()
        .map(|(row, (paper, cores))| {
            let seed = 0xCA5B_0000_u64 + row as u64;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut builder = SocBuilder::new("table1_schedule");
            for i in 0..cores {
                // `External { ports, patterns }` tests for exactly
                // `patterns + 1` cycles on exactly `ports` wires: precise
                // rectangles, durations within one order of magnitude.
                let method = TestMethod::External {
                    ports: rng.random_range(1..=paper.p),
                    patterns: rng.random_range(120..=1200),
                };
                builder = builder.core(
                    CoreDescription::new(format!("ext{i}"), method)
                        .with_gate_count(rng.random_range(5_000..60_000)),
                );
            }
            ScheduleCase {
                n: paper.n,
                p: paper.p,
                soc: builder.build().expect("generated SoCs are valid"),
            }
        })
        .collect()
}

/// The tester cycles `schedule`'s program executes on a healthy die,
/// configuration included: [`casbus_sim::run_program`]'s `total_cycles`.
///
/// # Panics
///
/// Panics if the program cannot be built or run, or a core fails.
pub fn executed_cycles(soc: &casbus_soc::SocDescription, schedule: &Schedule) -> u64 {
    let n = schedule.bus_width();
    let tam = casbus::Tam::new(soc, n).expect("the schedule fits its bus");
    let program = TestProgram::from_schedule(&tam, soc, schedule).expect("program");
    let mut sim = casbus_sim::SocSimulator::new(soc, n).expect("simulator");
    let report = casbus_sim::run_program(&mut sim, &program).expect("healthy run");
    assert!(report.all_pass(), "{report}");
    report.total_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rows_match_the_combinatorial_model() {
        for row in PAPER_TABLE1 {
            let g = row.geometry();
            assert_eq!(
                g.combination_count(),
                row.m,
                "m for N={} P={}",
                row.n,
                row.p
            );
            assert_eq!(
                g.instruction_width(),
                row.k,
                "k for N={} P={}",
                row.n,
                row.p
            );
        }
    }

    #[test]
    fn json_header_opens_a_document_with_the_shared_members() {
        let threads = format!("  \"hardware_threads\": {},", hardware_threads());
        let header = json_header("demo", true, 5);
        let lines: Vec<&str> = header.lines().collect();
        assert_eq!(
            lines,
            [
                "{",
                "  \"benchmark\": \"demo\",",
                threads.as_str(),
                "  \"smoke\": true,",
                "  \"repeats\": 5,",
            ]
        );
        assert!(header.ends_with(",\n"), "callers append members");
    }

    #[test]
    fn spread_takes_the_median_and_the_range() {
        let odd = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max), (2.0, 1.0, 3.0));
        let even = Spread::of(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        assert_eq!(even.range_json(1), "[1.0, 4.0]");
    }

    #[test]
    fn best_of_runs_once_past_its_budget_and_at_most_max_runs() {
        let mut calls = 0;
        let (_, last) = best_of(5, Duration::ZERO, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (1, 1));
        let mut calls = 0;
        let (best, last) = best_of(3, Duration::MAX, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(best < Duration::from_secs(1));
    }

    #[test]
    fn env_flags_are_off_unless_set_to_something_but_zero() {
        let name = "CASBUS_BENCH_TEST_ENV_FLAG";
        std::env::remove_var(name);
        assert!(!env_flag(name));
        for (value, on) in [("", false), ("0", false), ("1", true), ("yes", true)] {
            std::env::set_var(name, value);
            assert_eq!(env_flag(name), on, "{value:?}");
        }
        std::env::remove_var(name);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(2.0, 1.0), "2.00x");
        assert_eq!(ratio(1.0, 0.0), "—");
    }
}
