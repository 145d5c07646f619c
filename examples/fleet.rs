//! Fleet batch serving on the paper's Figure-1 SoC: compile one searched
//! test program, then serve it to a 256-device simulated production lot
//! with a 2% stamped defect rate, streaming per-device reports as they
//! complete and closing with a yield summary.
//!
//! Run with: `cargo run --release --example fleet`
//!
//! Pass `--monitor` to attach a live [`FleetMonitor`]: the lot is served
//! with the same packed jobs, periodic health snapshots (yield, devices/s,
//! latency quantiles, stragglers) print while it is in flight, every
//! failing die is replayed into a flight-recorder dump, and the final
//! snapshot + Prometheus exposition + JSONL snapshot log are exported
//! under `target/fleet_monitor/`.
//!
//! The binary doubles as a CI self-check: it asserts the invariants the
//! fleet layer guarantees — every failing die is a stamped-defective die
//! (healthy silicon never fails), route-table compilation work does not
//! grow with the fleet, the yield arithmetic is consistent, and (under
//! `--monitor`) the lot is still served packed and the snapshot stream and
//! recorder dumps are complete — and exits non-zero if any is violated.

use casbus_suite::casbus_controller::search::SearchBudget;
use casbus_suite::casbus_obs::MetricsRegistry;
use casbus_suite::casbus_sim::{
    DeviceReport, FleetMonitor, FleetReport, FleetRunner, VariationSpec,
};
use casbus_suite::casbus_soc::catalog;

const BUS_WIDTH: usize = 8;
const FLEET_SIZE: u64 = 256;
const DEFECT_RATE: f64 = 0.02;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = catalog::figure1_soc();
    println!(
        "fleet serving: {} ({} cores) on an {BUS_WIDTH}-wire bus",
        soc.name(),
        soc.cores().len()
    );

    // One-time planning: annealed schedule search ranking plans by the
    // cycles their program books, then the winner alone compiled and gated
    // bit-exactly against the reference interpreter. Every device below
    // reuses this plan and its route cache.
    let runner = FleetRunner::searched(&soc, BUS_WIDTH, SearchBudget::smoke())?;
    println!(
        "searched schedule: makespan {} cycles, {} configuration waves, {} worker threads",
        runner.schedule().makespan(),
        runner.schedule().configuration_waves(),
        runner.threads()
    );

    let monitored = std::env::args().any(|arg| arg == "--monitor");
    let spec = VariationSpec::new(2026, DEFECT_RATE);
    let metrics = MetricsRegistry::new();
    let mut failures = Vec::new();
    let on_report = |device: &DeviceReport| {
        if !device.passed() {
            // Streaming: failures print the moment the device finishes,
            // long before the lot completes.
            let fault = device.fault.as_ref().expect("only defective dies fail");
            println!(
                "  device {:3} FAIL — {} on {}",
                device.device_id, fault.kind, fault.core
            );
            failures.push(device.device_id);
        }
    };
    let fleet = if monitored {
        run_monitored(&runner, &spec, &metrics, on_report)?
    } else {
        runner.run_with_metrics(&spec, FLEET_SIZE, &metrics, on_report)?
    };

    let defective = fleet.devices.iter().filter(|d| d.fault.is_some()).count();
    let escapes = defective - fleet.failed();
    println!("{fleet}");
    println!(
        "  {defective} dies stamped defective, {} detected, {escapes} test escapes",
        fleet.failed()
    );
    println!(
        "  route cache: {} misses / {} hits across the whole lot",
        runner.cache().misses(),
        runner.cache().hits()
    );

    // --- Self-check: the invariants CI relies on. ---

    // 1. Failing ⊆ defective: a healthy die never fails. (The converse is
    // not guaranteed — a stuck-at can sit on a don't-care position — so
    // undetected defects are reported as escapes, not errors.)
    for device in &fleet.devices {
        assert!(
            device.passed() || device.fault.is_some(),
            "healthy device {} failed",
            device.device_id
        );
    }

    // 2. Yield arithmetic is consistent between the report, the streaming
    // callback, and the metrics registry.
    assert_eq!(fleet.fleet_size() as u64, FLEET_SIZE);
    assert_eq!(fleet.passed + fleet.failed(), fleet.fleet_size());
    assert_eq!(failures.len(), fleet.failed());
    assert_eq!(metrics.counter("fleet.devices"), FLEET_SIZE);
    assert_eq!(metrics.counter("fleet.passed"), fleet.passed as u64);
    assert_eq!(metrics.counter("fleet.defects.injected"), defective as u64);

    // 3. Route compilation is a property of the plan, not the fleet: lots
    // of different sizes on fresh runners compile exactly as many tables.
    // (The searched runner's own cache was warmed by its gate, so fresh
    // serving-only runners are compared.)
    let misses_for = |lot: u64| -> Result<u64, Box<dyn std::error::Error>> {
        let fresh = FleetRunner::new(&soc, BUS_WIDTH, runner.schedule().clone())?;
        fresh.run(&spec, lot)?;
        Ok(fresh.cache().misses())
    };
    assert_eq!(
        misses_for(FLEET_SIZE / 16)?,
        misses_for(FLEET_SIZE / 4)?,
        "route compilations grew with fleet size"
    );

    println!("fleet self-check passed");
    Ok(())
}

/// Serves the lot with a live [`FleetMonitor`] attached: a consumer thread
/// prints each health snapshot the moment it lands, every failing die is
/// replayed into a flight-recorder dump, and after the run the snapshot log, the
/// Prometheus exposition, and the dumps are exported under
/// `target/fleet_monitor/`.
fn run_monitored(
    runner: &FleetRunner,
    spec: &VariationSpec,
    metrics: &MetricsRegistry,
    on_report: impl FnMut(&DeviceReport),
) -> Result<FleetReport, Box<dyn std::error::Error>> {
    let (monitor, rx) = FleetMonitor::new();
    let printer = std::thread::spawn(move || {
        let mut seen = Vec::new();
        for snapshot in rx {
            println!("  [monitor] {snapshot}");
            seen.push(snapshot);
        }
        seen
    });

    let fleet =
        runner.run_monitored_with_metrics(spec, FLEET_SIZE, metrics, &monitor, on_report)?;

    let dumps = monitor.dumps();
    let emitted = monitor.snapshots_emitted();
    let dropped = monitor.snapshots_dropped();
    // Dropping the monitor closes the snapshot channel; the printer drains
    // what is left and returns everything it saw.
    drop(monitor);
    let snapshots = printer.join().expect("snapshot printer");

    // Export the artifacts a live dashboard would scrape.
    let dir = std::path::Path::new("target/fleet_monitor");
    std::fs::create_dir_all(dir)?;
    let jsonl: String = snapshots.iter().map(|s| s.to_json() + "\n").collect();
    std::fs::write(dir.join("snapshots.jsonl"), jsonl)?;
    let last = snapshots.last().expect("final snapshot");
    let prom = format!("{}{}", last.to_prometheus(), metrics.to_prometheus());
    std::fs::write(dir.join("fleet.prom"), prom)?;
    for dump in &dumps {
        std::fs::write(
            dir.join(format!("dump_device_{}.jsonl", dump.device_id)),
            dump.dump.jsonl(),
        )?;
    }
    println!(
        "  [monitor] {} snapshots ({dropped} dropped), {} flight-recorder dumps -> {}/",
        snapshots.len(),
        dumps.len(),
        dir.display()
    );

    // Monitor self-checks: watching did not change how the lot was served,
    // the stream is complete, the closing snapshot covers the whole lot,
    // and every failing die left a post-mortem.
    assert!(
        metrics.counter("fleet.packed.cohorts") > 0,
        "the monitored lot was served packed"
    );
    assert_eq!(snapshots.len() as u64, emitted, "receiver saw every emit");
    assert!(last.last, "the closing snapshot is flagged last");
    assert_eq!(last.completed, FLEET_SIZE);
    assert_eq!(metrics.counter("obs.fleet.snapshots.emitted"), emitted);
    for device in fleet.devices.iter().filter(|d| !d.passed()) {
        assert!(
            dumps.iter().any(|d| d.device_id == device.device_id),
            "failing device {} left no flight-recorder dump",
            device.device_id
        );
    }
    Ok(fleet)
}
