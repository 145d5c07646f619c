//! Multi-tenant test floor: three heterogeneous lots — different SoCs,
//! bus widths, execution modes and priorities — served concurrently on one
//! shared worker pool and one route cache, with yield-driven admission
//! control quarantining a collapsing lot while its co-tenants run on
//! unaffected.
//!
//! Run with: `cargo run --release --example floor`
//!
//! The binary doubles as a CI self-check: it asserts the floor layer's
//! guarantees — every completed lot's reports are bit-identical to a
//! standalone `FleetRunner` run of the same lot, the collapsing lot is
//! the only one the admission controller touches, and the floor-wide
//! metric aggregates agree with the per-lot reports — and exits non-zero
//! if any is violated. Floor metrics are exported to
//! `target/floor/floor.prom` (Prometheus text) and
//! `target/floor/metrics.json`.

use std::time::Duration;

use casbus_suite::casbus_controller::schedule::packed_schedule;
use casbus_suite::casbus_obs::MetricsRegistry;
use casbus_suite::casbus_sim::{
    AdmissionPolicy, CollapseAction, FleetRunner, LotSpec, TestFloor, VariationSpec,
};
use casbus_suite::casbus_soc::catalog;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fig1 = catalog::figure1_soc();
    let scan = catalog::figure2a_scan_soc();
    let bist = catalog::figure2b_bist_soc();

    // Three lots compete: the paper's six-core SoC (healthy, high
    // priority, packed cohorts), a scan lot with a tenth of its dies
    // defective, and a scalar BIST lot where *every* die is defective —
    // the one the admission policy will catch.
    let healthy_spec = VariationSpec::perfect();
    let scan_spec = VariationSpec::new(7, 0.10);
    let doomed_spec = VariationSpec::new(7, 1.0);
    let lots = || -> Result<Vec<LotSpec>, Box<dyn std::error::Error>> {
        Ok(vec![
            LotSpec::new(
                "fig1",
                &fig1,
                8,
                packed_schedule(&fig1, 8)?,
                96,
                healthy_spec,
            )?
            .with_priority(3),
            LotSpec::new("scan", &scan, 4, packed_schedule(&scan, 4)?, 128, scan_spec)?
                .with_priority(2),
            LotSpec::new(
                "doomed",
                &bist,
                3,
                packed_schedule(&bist, 3)?,
                256,
                doomed_spec,
            )?
            .with_packed(false),
        ])
    };

    // The floor: shared workers, one route cache, and a policy that
    // quarantines any lot whose rolling yield collapses below 40%. The
    // thread that calls the run collects the reports and applies the
    // policy between them.
    let floor = TestFloor::new().with_admission(
        AdmissionPolicy::default()
            .with_interval(Duration::from_millis(2))
            .with_window(16)
            .with_min_completed(8)
            .with_yield_floor(0.40, CollapseAction::Pause)
            .with_pause_for(Duration::from_millis(10)),
    );
    println!(
        "test floor: {} worker thread(s), one shared route cache",
        floor.threads()
    );

    let metrics = MetricsRegistry::new();
    let report = floor.run_with_metrics(lots()?, &metrics, |_, _| {})?;
    println!("{report}");
    for lot in &report.lots {
        println!(
            "  lot {:>6} (prio {}): {}/{} tested, {} passed{}",
            lot.name,
            lot.priority,
            lot.fleet.fleet_size(),
            lot.requested,
            lot.fleet.passed,
            if lot.aborted() { " — ABORTED" } else { "" },
        );
        for event in &lot.events {
            println!("    admission: {event}");
        }
    }

    // Self-check 1: determinism. Every lot's reports must be bit-identical
    // to a standalone FleetRunner run of the same lot (Pause quarantines
    // reshape scheduling, never results).
    let standalone = [
        FleetRunner::new(&fig1, 8, packed_schedule(&fig1, 8)?)?.run(&healthy_spec, 96)?,
        FleetRunner::new(&scan, 4, packed_schedule(&scan, 4)?)?.run(&scan_spec, 128)?,
        FleetRunner::new(&bist, 3, packed_schedule(&bist, 3)?)?
            .with_packed(false)
            .run(&doomed_spec, 256)?,
    ];
    for (lot, alone) in report.lots.iter().zip(&standalone) {
        assert!(!lot.aborted(), "a Pause policy never aborts");
        assert_eq!(
            lot.fleet.devices, alone.devices,
            "lot {} diverged from its standalone run",
            lot.name
        );
    }
    println!("self-check: all lots bit-identical to standalone runs");

    // Self-check 2: admission only touched the collapsing lot.
    assert!(
        report.lots[0].events.is_empty(),
        "healthy lot intervened on"
    );
    assert!(report.lots[1].events.is_empty(), "scan lot intervened on");
    assert!(
        report.lots[2].events.len() >= 2,
        "the all-defective lot should have been paused and resumed"
    );

    // Self-check 3: floor aggregates agree with the per-lot reports.
    assert_eq!(metrics.counter("floor.lots"), 3);
    assert_eq!(metrics.counter("floor.completed"), report.completed());
    assert_eq!(metrics.counter("floor.passed"), report.passed());
    println!("self-check: floor.* aggregates consistent with lot reports");

    std::fs::create_dir_all("target/floor")?;
    std::fs::write("target/floor/floor.prom", metrics.to_prometheus())?;
    std::fs::write("target/floor/metrics.json", metrics.to_json())?;
    println!("exported target/floor/{{floor.prom,metrics.json}}");
    Ok(())
}
