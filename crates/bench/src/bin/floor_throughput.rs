//! Multi-tenant floor serving vs dedicated per-lot fleets.
//!
//! A [`casbus_sim::TestFloor`] runs heterogeneous lots concurrently on one
//! shared worker pool and one route cache, and the calling thread collects
//! every lot's reports and takes the snapshots and admission ticks between
//! them, as a fleet's run does for its one lot. The question this bench
//! answers: what does multi-tenancy cost against the obvious alternative —
//! running each lot back to back on its own dedicated
//! [`casbus_sim::FleetRunner`] with the same thread count?
//!
//! The workload is deliberately heterogeneous: lot A is the figure-1 SoC
//! at a 25% defect rate in packed cohort mode (priority 2); lot B is a
//! BIST + memory SoC at a 100% defect rate in scalar per-device mode
//! (priority 1). Different SoCs, different plans, different execution
//! modes, different priorities — the floor's weighted-fair lanes interleave
//! them on the same workers.
//!
//! Before any timing, the floor run is asserted bit-identical per lot to
//! the standalone runs (the same gate `tests/floor_differential.rs` pins),
//! so the numbers always describe equivalent work. Each timed row is
//! preceded by an untimed priming run that compiles both packed engines
//! and warms the per-worker simulator slots.
//!
//! The headline metric is `tenancy_ratio`: floor devices/s over the
//! back-to-back aggregate devices/s (total devices / summed standalone
//! walls) at the same thread count. Each row times [`REPEATS`] interleaved
//! repeats of (fleet A, fleet B, floor) and computes its ratio from the
//! three medians, so one sample taken while the host slowed down cannot
//! decide the row. 1.0 means multi-tenancy is free; the bench requires the
//! best row to stay within 15% of back-to-back (`>= 0.85`) and hard-fails
//! below 0.70 at any row. Results go to stdout and `BENCH_floor.json` at
//! the workspace root, with each timing's range over the repeats.
//!
//! ```text
//! cargo run --release -p casbus-bench --bin floor_throughput
//! ```
//!
//! Set `CASBUS_BENCH_SMOKE=1` for a fast CI configuration (smaller lots,
//! warn instead of fail on the 15% bound).

use std::time::Instant;

use casbus_bench::Spread;
use casbus_controller::schedule::packed_schedule;
use casbus_sim::{FleetRunner, LotSpec, TestFloor, VariationSpec};
use casbus_soc::{catalog, CoreDescription, SocBuilder, SocDescription, TestMethod};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Interleaved timed repeats per row.
const REPEATS: usize = 5;

fn bist_memory_soc() -> SocDescription {
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

struct Row {
    threads: usize,
    lot_a_ms: Spread,
    lot_b_ms: Spread,
    back_to_back_devices_per_sec: f64,
    floor_ms: Spread,
    floor_devices_per_sec: f64,
    tenancy_ratio: f64,
    /// The ratio of each repeat on its own, for the spread.
    repeat_ratios: Spread,
}

fn main() {
    let smoke = casbus_bench::env_flag("CASBUS_BENCH_SMOKE");
    let hardware_threads = casbus_bench::hardware_threads();
    let (a_devices, b_devices) = if smoke { (64u64, 64u64) } else { (256, 256) };

    let fig1 = catalog::figure1_soc();
    let fig1_n = 8usize;
    let fig1_schedule = packed_schedule(&fig1, fig1_n).expect("schedule");
    let a_spec = VariationSpec::new(7, 0.25);

    let bm = bist_memory_soc();
    let bm_n = bm.max_ports();
    let bm_schedule = packed_schedule(&bm, bm_n).expect("schedule");
    let b_spec = VariationSpec::new(7, 1.0);

    let lots = || -> Vec<LotSpec> {
        vec![
            LotSpec::new(
                "fig1",
                &fig1,
                fig1_n,
                fig1_schedule.clone(),
                a_devices,
                a_spec,
            )
            .expect("lot A")
            .with_priority(2),
            LotSpec::new("bistmem", &bm, bm_n, bm_schedule.clone(), b_devices, b_spec)
                .expect("lot B")
                .with_packed(false),
        ]
    };

    println!(
        "Multi-tenant floor: lot A figure1 N={fig1_n} x{a_devices} packed (prio 2), \
         lot B bist_memory N={bm_n} x{b_devices} scalar (prio 1), \
         {hardware_threads} hardware thread(s){}",
        if smoke { " (smoke)" } else { "" }
    );
    println!();

    // Equivalence gate before any timing: the floor must hand each lot the
    // exact reports a dedicated runner produces.
    let runner_a = FleetRunner::new(&fig1, fig1_n, fig1_schedule.clone()).expect("runner A");
    let baseline_a = runner_a.run(&a_spec, a_devices).expect("standalone A");
    let runner_b = FleetRunner::new(&bm, bm_n, bm_schedule.clone())
        .expect("runner B")
        .with_packed(false);
    let baseline_b = runner_b.run(&b_spec, b_devices).expect("standalone B");
    let gate_floor = TestFloor::new();
    let gate = gate_floor.run(lots()).expect("floor run");
    assert_eq!(
        gate.lots[0].fleet.devices, baseline_a.devices,
        "floor lot A diverged from its dedicated runner"
    );
    assert_eq!(
        gate.lots[1].fleet.devices, baseline_b.devices,
        "floor lot B diverged from its dedicated runner"
    );
    println!(
        "equivalence gate: both lots bit-identical to dedicated runners \
         ({} + {} devices, {} pass)",
        a_devices,
        b_devices,
        gate.passed()
    );
    println!();

    println!(
        "medians of {REPEATS} interleaved repeats; the last column is the range of \
         the per-repeat ratios"
    );
    println!(
        "{:>7} {:>10} {:>10} {:>14} {:>10} {:>13} {:>8}  range",
        "threads", "lot A", "lot B", "back-to-back", "floor", "floor dev/s", "ratio"
    );
    let devices = (a_devices + b_devices) as f64;
    let mut rows = Vec::new();
    for &threads in &THREAD_COUNTS {
        // Dedicated fleets and the floor (same lots, same thread count, one
        // pool), each primed once untimed so the packed engines and worker
        // slots are warm on every side.
        let runner_a = FleetRunner::new(&fig1, fig1_n, fig1_schedule.clone())
            .expect("runner A")
            .with_threads(threads);
        runner_a.run(&a_spec, a_devices).expect("priming A");
        let runner_b = FleetRunner::new(&bm, bm_n, bm_schedule.clone())
            .expect("runner B")
            .with_packed(false)
            .with_threads(threads);
        runner_b.run(&b_spec, b_devices).expect("priming B");
        let floor = TestFloor::new().with_threads(threads);
        floor.run(lots()).expect("priming floor");

        let (mut walls_a, mut walls_b, mut walls_floor) = (Vec::new(), Vec::new(), Vec::new());
        let mut ratios = Vec::new();
        for _ in 0..REPEATS {
            let wall_a = runner_a.run(&a_spec, a_devices).expect("timed A").wall;
            let wall_b = runner_b.run(&b_spec, b_devices).expect("timed B").wall;
            let t0 = Instant::now();
            let report = floor.run(lots()).expect("timed floor");
            let wall_floor = t0.elapsed();
            assert_eq!(report.completed(), a_devices + b_devices, "nothing aborted");
            let ms = |wall: std::time::Duration| wall.as_secs_f64() * 1e3;
            ratios.push(ms(wall_a + wall_b) / ms(wall_floor).max(1e-9));
            walls_a.push(ms(wall_a));
            walls_b.push(ms(wall_b));
            walls_floor.push(ms(wall_floor));
        }
        let (lot_a_ms, lot_b_ms, floor_ms) = (
            Spread::of(&walls_a),
            Spread::of(&walls_b),
            Spread::of(&walls_floor),
        );
        let back_to_back_rate = devices / ((lot_a_ms.median + lot_b_ms.median) / 1e3).max(1e-9);
        let floor_rate = devices / (floor_ms.median / 1e3).max(1e-9);
        let ratio = floor_rate / back_to_back_rate;
        let repeat_ratios = Spread::of(&ratios);
        println!(
            "{:>7} {:>8.1}ms {:>8.1}ms {:>12.1}/s {:>8.1}ms {:>11.1}/s {:>7.2}x  [{:.2}, {:.2}]",
            threads,
            lot_a_ms.median,
            lot_b_ms.median,
            back_to_back_rate,
            floor_ms.median,
            floor_rate,
            ratio,
            repeat_ratios.min,
            repeat_ratios.max
        );
        rows.push(Row {
            threads,
            lot_a_ms,
            lot_b_ms,
            back_to_back_devices_per_sec: back_to_back_rate,
            floor_ms,
            floor_devices_per_sec: floor_rate,
            tenancy_ratio: ratio,
            repeat_ratios,
        });
    }

    let best_ratio = rows
        .iter()
        .map(|r| r.tenancy_ratio)
        .fold(f64::NEG_INFINITY, f64::max);
    println!();
    println!("best tenancy ratio (floor / back-to-back devices/s): {best_ratio:.2}x");
    for row in &rows {
        assert!(
            row.tenancy_ratio >= 0.70,
            "floor at {} threads fell to {:.2}x of back-to-back — multi-tenancy \
             overhead is out of control",
            row.threads,
            row.tenancy_ratio
        );
    }
    if best_ratio < 0.85 {
        let message = format!(
            "floor serving is more than 15% behind dedicated back-to-back fleets \
             at every thread count (best {best_ratio:.2}x)"
        );
        // Smoke lots are small enough that fixed per-run costs (thread
        // wake-ups, admission sampling) weigh disproportionately; warn
        // there, fail on the full configuration.
        assert!(smoke, "{message}");
        eprintln!("WARNING: {message} (smoke run)");
    }

    let rows_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"threads\": {}, \"lot_a_ms\": {:.3}, \"lot_a_ms_range\": {}, \
                 \"lot_b_ms\": {:.3}, \"lot_b_ms_range\": {}, \
                 \"back_to_back_devices_per_sec\": {:.2}, \"floor_ms\": {:.3}, \
                 \"floor_ms_range\": {}, \"floor_devices_per_sec\": {:.2}, \
                 \"tenancy_ratio\": {:.3}, \"repeat_ratio_range\": {}}}",
                r.threads,
                r.lot_a_ms.median,
                r.lot_a_ms.range_json(3),
                r.lot_b_ms.median,
                r.lot_b_ms.range_json(3),
                r.back_to_back_devices_per_sec,
                r.floor_ms.median,
                r.floor_ms.range_json(3),
                r.floor_devices_per_sec,
                r.tenancy_ratio,
                r.repeat_ratios.range_json(3)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{}  \"timings\": \"median of the repeats; *_range is [min, max]\",\n  \
         \"lot_a\": {{\"soc\": \"figure1\", \"n\": {fig1_n}, \"devices\": {a_devices}, \
         \"defect_rate\": 0.25, \"mode\": \"packed\", \"priority\": 2}},\n  \
         \"lot_b\": {{\"soc\": \"bist_memory\", \"n\": {bm_n}, \"devices\": {b_devices}, \
         \"defect_rate\": 1.0, \"mode\": \"scalar\", \"priority\": 1}},\n  \
         \"best_tenancy_ratio\": {best_ratio:.3},\n  \"rows\": [\n{rows_json}\n  ]\n}}\n",
        casbus_bench::json_header("floor_multi_tenant_serving", smoke, REPEATS)
    );
    std::fs::write("BENCH_floor.json", &json).expect("write BENCH_floor.json");
    println!();
    println!("wrote BENCH_floor.json");
}
