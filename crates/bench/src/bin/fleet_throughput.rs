//! Fleet batch serving vs per-device planning throughput.
//!
//! The naive way to test N simulated devices with a searched schedule is a
//! loop of [`casbus_sim::run_program_searched`] calls: every device pays
//! the annealed schedule search, TAM build, program compilation, and route
//! compilation again. [`casbus_sim::FleetRunner`] pays all of that once
//! and serves the compiled plan to the whole fleet from a persistent
//! worker pool — in two modes, both measured here:
//!
//! * **scalar** — one compiled-engine run per device, with the simulator
//!   and engine reused in place on each worker thread, and
//! * **packed** — cohorts of up to 64 devices share one word-level
//!   execution (healthy dies clone a baseline report, defective dies run
//!   as bit-lanes of packed scan, BIST, and memory models).
//!
//! Before any throughput is recorded, packed and scalar runs of the same
//! defective fleet are asserted bit-identical to each other, and every
//! healthy device's report bit-identical to the looped baseline's — so the
//! numbers always describe *equivalent* work. One-time setup (search +
//! compile) is timed separately from steady-state devices/s: each timed
//! row is preceded by an untimed priming run that compiles the packed
//! engine and warms the per-worker simulator slots.
//!
//! Two workloads run back to back:
//!
//! 1. the figure-1 SoC at a 25% defect rate (the mixed production lot), and
//! 2. a BIST + memory SoC at a 100% defect rate — the workload whose every
//!    defect used to force a scalar fallback and now rides the lane
//!    encoding (`fleet.packed.fallback.devices` is asserted to be 0).
//!
//! Each workload reports a per-mode `scaling_efficiency`: the best
//! multi-thread devices/s divided by the single-thread devices/s. Values
//! below 1.0 mean worker threads actively hurt and are flagged loudly.
//! The packed 4-vs-1-thread ratio is measured on its own over
//! [`SCALING_REPEATS`] interleaved repeats of (1 thread, 4 threads) and
//! taken from the two medians; set `CASBUS_BENCH_REQUIRE_SCALING=1` to turn
//! it into a hard failure (skipped, loudly, on single-core hosts where no
//! thread count can help). Results go to stdout and to `BENCH_fleet.json`
//! at the workspace root.
//!
//! ```text
//! cargo run --release -p casbus-bench --bin fleet_throughput
//! ```
//!
//! Set `CASBUS_BENCH_SMOKE=1` for a fast CI configuration (smaller fleet,
//! fewer baseline iterations).

use std::time::Instant;

use casbus_bench::Spread;
use casbus_controller::schedule::packed_schedule;
use casbus_controller::search::SearchBudget;
use casbus_obs::MetricsRegistry;
use casbus_sim::{run_program_searched, FleetRunner, VariationSpec};
use casbus_soc::{catalog, CoreDescription, SocBuilder, TestMethod};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const DEFECT_RATE: f64 = 0.25;
const DEFECT_SEED: u64 = 7;

/// Interleaved timed repeats behind the packed 4-vs-1-thread ratio.
const SCALING_REPEATS: usize = 5;

struct Row {
    threads: usize,
    mode: &'static str,
    wall_ms: f64,
    devices_per_sec: f64,
    wire_cycles_per_sec: f64,
    speedup: f64,
}

/// Times every `(mode, threads)` combination: an untimed priming run per
/// row (compiles the packed engine, warms the per-worker simulator slots),
/// then one timed fleet run. `speedup` is relative to the caller's
/// baseline rate.
fn measure_modes(
    mut runner: FleetRunner,
    spec: &VariationSpec,
    fleet_size: u64,
    expected_passed: usize,
    baseline_devices_per_sec: f64,
) -> (FleetRunner, Vec<Row>) {
    println!(
        "{:>7} {:>7} {:>10} {:>13} {:>16} {:>9}",
        "threads", "mode", "wall", "devices/s", "wire-cycles/s", "speedup"
    );
    let mut rows = Vec::new();
    for mode in ["scalar", "packed"] {
        runner = runner.with_packed(mode == "packed");
        for &threads in &THREAD_COUNTS {
            runner = runner.with_threads(threads);
            runner.run(spec, fleet_size).expect("priming run");
            let fleet = runner.run(spec, fleet_size).expect("fleet run");
            assert_eq!(fleet.passed, expected_passed, "yield drifted");
            let speedup = fleet.devices_per_sec() / baseline_devices_per_sec;
            println!(
                "{:>7} {:>7} {:>8.1}ms {:>13.1} {:>16.0} {:>8.1}x",
                threads,
                mode,
                fleet.wall.as_secs_f64() * 1e3,
                fleet.devices_per_sec(),
                fleet.wire_cycles_per_sec(),
                speedup
            );
            rows.push(Row {
                threads,
                mode,
                wall_ms: fleet.wall.as_secs_f64() * 1e3,
                devices_per_sec: fleet.devices_per_sec(),
                wire_cycles_per_sec: fleet.wire_cycles_per_sec(),
                speedup,
            });
        }
    }
    (runner, rows)
}

fn best_speedup(rows: &[Row], mode: &str) -> f64 {
    rows.iter()
        .filter(|r| r.mode == mode)
        .map(|r| r.speedup)
        .fold(f64::NEG_INFINITY, f64::max)
}

fn rate_at(rows: &[Row], mode: &str, threads: usize) -> f64 {
    rows.iter()
        .find(|r| r.mode == mode && r.threads == threads)
        .map(|r| r.devices_per_sec)
        .expect("row measured")
}

/// Best multi-thread devices/s over the single-thread devices/s for one
/// mode. Above 1.0: threads help. Below 1.0: cross-thread overhead eats
/// more than the parallelism returns.
fn scaling_efficiency(rows: &[Row], mode: &str) -> f64 {
    let single = rate_at(rows, mode, 1);
    let multi = rows
        .iter()
        .filter(|r| r.mode == mode && r.threads > 1)
        .map(|r| r.devices_per_sec)
        .fold(f64::NEG_INFINITY, f64::max);
    multi / single
}

/// Warns loudly when a mode's throughput shrinks as threads are added.
fn report_scaling(rows: &[Row], hardware_threads: usize) -> (f64, f64) {
    let scalar = scaling_efficiency(rows, "scalar");
    let packed = scaling_efficiency(rows, "packed");
    println!("scaling efficiency (best multi-thread / single-thread): scalar {scalar:.2}, packed {packed:.2}");
    for (mode, efficiency) in [("scalar", scalar), ("packed", packed)] {
        if efficiency < 1.0 {
            eprintln!(
                "WARNING: {mode} fleet throughput does NOT scale — adding worker threads \
                 yields {efficiency:.2}x the single-thread rate \
                 (host has {hardware_threads} hardware thread(s))"
            );
        }
    }
    (scalar, packed)
}

fn rows_json(rows: &[Row], speedup_key: &str, indent: &str) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{indent}{{\"threads\": {}, \"mode\": \"{}\", \"wall_ms\": {:.3}, \
                 \"devices_per_sec\": {:.2}, \"wire_cycles_per_sec\": {:.0}, \
                 \"{speedup_key}\": {:.2}}}",
                r.threads, r.mode, r.wall_ms, r.devices_per_sec, r.wire_cycles_per_sec, r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// The second workload: every defect targets a BIST or memory core, the
/// shape that fell back to a scalar run per defective device before those
/// sessions joined the lane encoding.
fn bist_memory_soc() -> casbus_soc::SocDescription {
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

fn main() {
    let smoke = casbus_bench::env_flag("CASBUS_BENCH_SMOKE");
    let require_scaling = casbus_bench::env_flag("CASBUS_BENCH_REQUIRE_SCALING");
    let hardware_threads = casbus_bench::hardware_threads();
    let (fleet_size, baseline_runs) = if smoke { (64u64, 4usize) } else { (256, 8) };
    let soc = catalog::figure1_soc();
    let n = 8;
    let budget = SearchBudget::smoke();
    let spec = VariationSpec::new(DEFECT_SEED, DEFECT_RATE);

    println!(
        "Fleet batch serving: figure1 SoC, N={n}, fleet of {fleet_size} devices, \
         defect rate {DEFECT_RATE}, {hardware_threads} hardware thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );
    println!();

    // Baseline: every device re-plans from scratch. Each iteration does
    // identical work, so the per-device rate from `baseline_runs` devices
    // is the rate a fleet-sized loop would sustain.
    let t0 = Instant::now();
    let (baseline_schedule, baseline_report) =
        run_program_searched(&soc, n, budget, &MetricsRegistry::new()).expect("searched run");
    for _ in 1..baseline_runs {
        let (schedule, report) =
            run_program_searched(&soc, n, budget, &MetricsRegistry::new()).expect("searched run");
        assert_eq!(schedule, baseline_schedule, "search must be deterministic");
        assert_eq!(report, baseline_report);
    }
    let baseline_wall = t0.elapsed();
    let baseline_per_device = baseline_wall.as_secs_f64() / baseline_runs as f64;
    let baseline_devices_per_sec = 1.0 / baseline_per_device.max(1e-9);
    println!(
        "baseline (looped run_program_searched): {:.1} ms/device, {:.2} devices/s",
        baseline_per_device * 1e3,
        baseline_devices_per_sec
    );

    // Fleet: the search, TAM build, program and route compilation happen
    // once, at construction.
    let t0 = Instant::now();
    let mut runner = FleetRunner::searched(&soc, n, budget).expect("searched runner");
    let setup = t0.elapsed();
    assert_eq!(
        runner.schedule(),
        &baseline_schedule,
        "fleet serves the same searched schedule"
    );
    println!(
        "fleet one-time setup (search + compile): {:.1} ms",
        setup.as_secs_f64() * 1e3
    );

    // Equivalence gate: the packed and scalar modes must agree bit for bit
    // on the defective fleet, and healthy dies must match the looped
    // baseline, before either mode's throughput means anything.
    runner = runner
        .with_threads(THREAD_COUNTS[THREAD_COUNTS.len() - 1])
        .with_packed(false);
    let scalar_fleet = runner.run(&spec, fleet_size).expect("scalar fleet run");
    runner = runner.with_packed(true);
    let packed_fleet = runner.run(&spec, fleet_size).expect("packed fleet run");
    assert_eq!(scalar_fleet.devices.len(), packed_fleet.devices.len());
    for (s, p) in scalar_fleet.devices.iter().zip(&packed_fleet.devices) {
        assert_eq!(s.device_id, p.device_id);
        assert_eq!(
            s.report, p.report,
            "packed report diverged from scalar on device {}",
            s.device_id
        );
        if spec.fault_for(&soc, s.device_id).is_none() {
            assert_eq!(
                s.report, baseline_report,
                "healthy device {} diverged from the looped baseline",
                s.device_id
            );
        }
    }
    println!(
        "equivalence gate: {} devices bit-identical across modes ({} defective)",
        fleet_size,
        fleet_size as usize - scalar_fleet.passed
    );
    println!();

    let runner_schedule = runner.schedule().clone();
    let (_, rows) = measure_modes(
        runner,
        &spec,
        fleet_size,
        scalar_fleet.passed,
        baseline_devices_per_sec,
    );

    let scalar_best = best_speedup(&rows, "scalar");
    let packed_best = best_speedup(&rows, "packed");
    assert!(
        scalar_best >= 5.0,
        "scalar fleet serving must beat per-device planning by >=5x at fleet {fleet_size} \
         (best observed: {scalar_best:.1}x)"
    );
    assert!(
        packed_best >= 5.0,
        "packed fleet serving must beat per-device planning by >=5x at fleet {fleet_size} \
         (best observed: {packed_best:.1}x)"
    );
    let packed_vs_scalar = packed_best / scalar_best;
    println!();
    println!("best scalar speedup vs looped run_program_searched: {scalar_best:.1}x");
    println!("best packed speedup vs looped run_program_searched: {packed_best:.1}x");
    println!("packed vs scalar (best rows): {packed_vs_scalar:.1}x");
    let (scalar_efficiency, packed_efficiency) = report_scaling(&rows, hardware_threads);

    // The hard scaling gate, opted into by CI: packed at the highest
    // thread count must not be slower than single-threaded beyond noise.
    // Two primed runners serving the same plan alternate, and the ratio
    // comes from the medians. Meaningless on a single-core host, where it
    // is skipped out loud.
    let max_threads = THREAD_COUNTS[THREAD_COUNTS.len() - 1];
    let scaling_runner = |threads: usize| {
        let runner = FleetRunner::new(&soc, n, runner_schedule.clone())
            .expect("runner")
            .with_threads(threads);
        runner.run(&spec, fleet_size).expect("priming run");
        runner
    };
    let (single, multi) = (scaling_runner(1), scaling_runner(max_threads));
    let (mut single_rates, mut multi_rates, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SCALING_REPEATS {
        let single_rate = single
            .run(&spec, fleet_size)
            .expect("fleet run")
            .devices_per_sec();
        let multi_rate = multi
            .run(&spec, fleet_size)
            .expect("fleet run")
            .devices_per_sec();
        single_rates.push(single_rate);
        multi_rates.push(multi_rate);
        ratios.push(multi_rate / single_rate);
    }
    let (single_rate, multi_rate) = (Spread::of(&single_rates), Spread::of(&multi_rates));
    let packed_4_vs_1 = multi_rate.median / single_rate.median;
    let repeat_ratios = Spread::of(&ratios);
    println!(
        "packed {max_threads}-vs-1-thread ratio (medians of {SCALING_REPEATS} interleaved \
         repeats): {packed_4_vs_1:.2}x, per-repeat range [{:.2}, {:.2}]",
        repeat_ratios.min, repeat_ratios.max
    );
    if require_scaling {
        if hardware_threads < 2 {
            eprintln!(
                "NOTE: CASBUS_BENCH_REQUIRE_SCALING set, but this host has only \
                 {hardware_threads} hardware thread(s) — the {max_threads}-vs-1-thread \
                 packed gate is skipped (no thread count can help on one core)"
            );
        } else {
            assert!(
                packed_4_vs_1 >= 0.9,
                "packed fleet at {max_threads} threads is slower than single-threaded beyond \
                 noise: {packed_4_vs_1:.2}x (>= 0.90x required on this \
                 {hardware_threads}-thread host)"
            );
        }
    }

    // Workload 2: BIST + memory cores only, every die defective — the
    // all-fallback worst case before those sessions joined the lane
    // encoding. The defect placements must now ride lanes exclusively.
    let bm_soc = bist_memory_soc();
    let bm_n = bm_soc.max_ports();
    let bm_fleet = fleet_size;
    let bm_spec = VariationSpec::new(DEFECT_SEED, 1.0);
    let bm_schedule = packed_schedule(&bm_soc, bm_n).expect("schedule");
    println!();
    println!(
        "BIST/memory-defect workload: bist_memory SoC, N={bm_n}, fleet of {bm_fleet} devices, \
         defect rate 1.0"
    );
    println!();

    let mut bm_runner = FleetRunner::new(&bm_soc, bm_n, bm_schedule)
        .expect("runner")
        .with_threads(THREAD_COUNTS[THREAD_COUNTS.len() - 1])
        .with_packed(false);
    let bm_scalar = bm_runner.run(&bm_spec, bm_fleet).expect("scalar fleet run");
    bm_runner = bm_runner.with_packed(true);
    let bm_metrics = MetricsRegistry::new();
    let bm_packed = bm_runner
        .run_with_metrics(&bm_spec, bm_fleet, &bm_metrics, |_| {})
        .expect("packed fleet run");
    assert_eq!(
        bm_packed.devices, bm_scalar.devices,
        "packed BIST/memory fleet diverged from scalar"
    );
    let bm_fallbacks = bm_metrics.counter("fleet.packed.fallback.devices");
    assert_eq!(
        bm_fallbacks, 0,
        "BIST/memory defects must ride lanes, not fall back to scalar runs"
    );
    assert_eq!(
        bm_metrics.counter("fleet.packed.lane.devices"),
        bm_fleet,
        "every defective die rides a lane"
    );
    println!(
        "equivalence gate: {bm_fleet} devices bit-identical across modes, \
         {bm_fallbacks} scalar fallbacks"
    );
    println!();

    // Speedup for this workload is measured against the scalar
    // single-thread fleet rate (there is no searched-loop baseline here:
    // the schedule is the fixed packed schedule on both sides).
    bm_runner = bm_runner.with_packed(false).with_threads(1);
    bm_runner.run(&bm_spec, bm_fleet).expect("priming run");
    let bm_reference = bm_runner.run(&bm_spec, bm_fleet).expect("reference run");
    let (_, bm_rows) = measure_modes(
        bm_runner,
        &bm_spec,
        bm_fleet,
        bm_scalar.passed,
        bm_reference.devices_per_sec(),
    );
    let bm_packed_vs_scalar = best_speedup(&bm_rows, "packed") / best_speedup(&bm_rows, "scalar");
    println!();
    println!("packed vs scalar on all-defective BIST/memory fleet (best rows): {bm_packed_vs_scalar:.1}x");
    assert!(
        bm_packed_vs_scalar >= 5.0,
        "lane-encoded BIST/memory sessions must beat scalar fallback by >=5x \
         (observed: {bm_packed_vs_scalar:.1}x)"
    );
    let (bm_scalar_efficiency, bm_packed_efficiency) = report_scaling(&bm_rows, hardware_threads);

    let json = format!(
        "{}  \"soc\": \"figure1\",\n  \
         \"n\": {n},\n  \"fleet_size\": {fleet_size},\n  \
         \"defect_rate\": {DEFECT_RATE},\n  \
         \"baseline_ms_per_device\": {:.3},\n  \"baseline_devices_per_sec\": {:.2},\n  \
         \"setup_ms\": {:.3},\n  \"packed_vs_scalar_best\": {:.2},\n  \
         \"scaling_efficiency\": {{\"scalar\": {scalar_efficiency:.2}, \
         \"packed\": {packed_efficiency:.2}}},\n  \
         \"packed_scaling_gate\": {{\"threads\": {max_threads}, \
         \"repeats\": {SCALING_REPEATS}, \"ratio\": {packed_4_vs_1:.3}, \
         \"repeat_ratio_range\": {}, \"devices_per_sec_1_thread\": {:.2}, \
         \"devices_per_sec_1_thread_range\": {}, \"devices_per_sec_{max_threads}_threads\": {:.2}, \
         \"devices_per_sec_{max_threads}_threads_range\": {}}},\n  \
         \"rows\": [\n{}\n  ],\n  \
         \"bist_memory\": {{\n    \"soc\": \"bist_memory\",\n    \"n\": {bm_n},\n    \
         \"fleet_size\": {bm_fleet},\n    \"defect_rate\": 1.0,\n    \
         \"packed_fallback_devices\": {bm_fallbacks},\n    \
         \"packed_vs_scalar_best\": {bm_packed_vs_scalar:.2},\n    \
         \"scaling_efficiency\": {{\"scalar\": {bm_scalar_efficiency:.2}, \
         \"packed\": {bm_packed_efficiency:.2}}},\n    \
         \"rows\": [\n{}\n    ]\n  }}\n}}\n",
        casbus_bench::json_header("fleet_batch_serving", smoke, SCALING_REPEATS),
        baseline_per_device * 1e3,
        baseline_devices_per_sec,
        setup.as_secs_f64() * 1e3,
        packed_vs_scalar,
        repeat_ratios.range_json(3),
        single_rate.median,
        single_rate.range_json(2),
        multi_rate.median,
        multi_rate.range_json(2),
        rows_json(&rows, "speedup_vs_searched_loop", "    "),
        rows_json(&bm_rows, "speedup_vs_scalar_1thread", "      "),
    );
    let path = "BENCH_fleet.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
