//! Differential gates for the multi-tenant test floor: a [`TestFloor`]
//! serving N heterogeneous lots concurrently must hand every completed lot
//! a report bit-identical to testing the lot's devices one by one on fresh
//! engines, at every thread count; admission interventions may reshape
//! scheduling (and abort lots) but never what a surviving device computes.

use std::time::Duration;

use casbus_controller::schedule::packed_schedule;
use casbus_controller::CompiledProgram;
use casbus_obs::MetricsRegistry;
use casbus_sim::{
    AdmissionAction, AdmissionPolicy, CollapseAction, CompiledEngine, DeviceReport, LotSpec,
    LotStatus, SocSimulator, TestFloor, VariationSpec,
};
use casbus_soc::{catalog, SocDescription};

/// The standalone baseline for one lot: each device tested on its own, in
/// device-id order, on a fresh simulator and single-threaded engine —
/// nothing shared with the floor's executor, pool, caches, or packed
/// lanes.
fn standalone(
    soc: &SocDescription,
    n: usize,
    spec: &VariationSpec,
    devices: u64,
) -> Vec<DeviceReport> {
    let plan =
        CompiledProgram::compile(soc, n, packed_schedule(soc, n).expect("schedule")).expect("plan");
    (0..devices)
        .map(|device_id| {
            let fault = spec.fault_for(soc, device_id);
            let mut sim = SocSimulator::new(soc, n).expect("simulator");
            if let Some(fault) = &fault {
                fault.apply(&mut sim).expect("inject");
            }
            let report = CompiledEngine::new()
                .run(&mut sim, plan.program())
                .expect("device run");
            DeviceReport {
                device_id,
                fault,
                report,
            }
        })
        .collect()
}

/// Gate (a): three heterogeneous lots — packed scan with defects, packed
/// BIST perfect, scalar memory-bearing maintenance SoC — run together at
/// threads {1, 2, 4} under distinct priorities. Every lot completes
/// bit-identical to its standalone baseline, and per-lot metrics land
/// under `floor.lot.<name>.*` with floor-wide aggregates under `floor.*`.
#[test]
fn floor_lots_are_bit_identical_to_standalone_runs() {
    let scan = catalog::figure2a_scan_soc();
    let bist = catalog::figure2b_bist_soc();
    let maint = catalog::maintenance_soc();
    let scan_spec = VariationSpec::new(11, 0.5);
    let maint_spec = VariationSpec::new(17, 0.25);
    const SCAN_DEVICES: u64 = 48;
    const BIST_DEVICES: u64 = 32;
    const MAINT_DEVICES: u64 = 24;

    let scan_baseline = standalone(&scan, 4, &scan_spec, SCAN_DEVICES);
    let bist_baseline = standalone(&bist, 3, &VariationSpec::perfect(), BIST_DEVICES);
    let maint_n = maint.max_ports();
    let maint_baseline = standalone(&maint, maint_n, &maint_spec, MAINT_DEVICES);

    for threads in [1usize, 2, 4] {
        let floor = TestFloor::new().with_threads(threads);
        let metrics = MetricsRegistry::new();
        let mut streamed = vec![0u64; 3];
        let report = floor
            .run_with_metrics(
                vec![
                    LotSpec::new(
                        "scan",
                        &scan,
                        4,
                        packed_schedule(&scan, 4).expect("schedule"),
                        SCAN_DEVICES,
                        scan_spec,
                    )
                    .expect("lot")
                    .with_priority(3),
                    LotSpec::new(
                        "bist",
                        &bist,
                        3,
                        packed_schedule(&bist, 3).expect("schedule"),
                        BIST_DEVICES,
                        VariationSpec::perfect(),
                    )
                    .expect("lot"),
                    LotSpec::new(
                        "maint",
                        &maint,
                        maint_n,
                        packed_schedule(&maint, maint_n).expect("schedule"),
                        MAINT_DEVICES,
                        maint_spec,
                    )
                    .expect("lot")
                    .with_packed(false)
                    .with_priority(2),
                ],
                &metrics,
                |lot, _| streamed[lot] += 1,
            )
            .expect("floor run");

        assert_eq!(report.lots.len(), 3, "{threads} threads");
        for (lot, baseline) in
            report
                .lots
                .iter()
                .zip([&scan_baseline, &bist_baseline, &maint_baseline])
        {
            assert_eq!(lot.status, LotStatus::Completed, "{threads} threads");
            assert_eq!(
                &lot.fleet.devices, baseline,
                "lot {} diverged from standalone at {threads} threads",
                lot.name
            );
            assert!(
                lot.events.is_empty(),
                "the default policy never intervenes ({threads} threads)"
            );
            let last = lot.snapshots.last().expect("snapshots sampled");
            assert!(last.last, "final snapshot flagged ({threads} threads)");
            assert_eq!(last.completed, lot.requested, "{threads} threads");
        }
        assert_eq!(
            streamed,
            vec![SCAN_DEVICES, BIST_DEVICES, MAINT_DEVICES],
            "every report streams exactly once ({threads} threads)"
        );

        // Per-lot metrics carry the standalone `fleet.*` set, prefixed.
        assert_eq!(
            metrics.counter("floor.lot.scan.fleet.devices"),
            SCAN_DEVICES
        );
        assert_eq!(
            metrics.counter("floor.lot.bist.fleet.passed"),
            BIST_DEVICES,
            "healthy lot all passes"
        );
        assert_eq!(
            metrics.counter("floor.lot.maint.fleet.devices"),
            MAINT_DEVICES
        );
        // Floor-wide aggregates.
        assert_eq!(metrics.counter("floor.lots"), 3);
        assert_eq!(
            metrics.counter("floor.devices"),
            SCAN_DEVICES + BIST_DEVICES + MAINT_DEVICES
        );
        assert_eq!(
            metrics.counter("floor.completed"),
            metrics.counter("floor.devices")
        );
        assert_eq!(metrics.counter("floor.aborted.lots"), 0);
    }
}

/// The floor's admission policy for the collapse gates: judge early and
/// often so a collapsing lot is caught well before it finishes.
fn collapse_policy(action: CollapseAction) -> AdmissionPolicy {
    AdmissionPolicy::default()
        .with_interval(Duration::from_millis(1))
        .with_window(16)
        .with_min_completed(8)
        .with_yield_floor(0.5, action)
        .with_pause_for(Duration::from_millis(5))
}

/// Gate (b), pause flavour: a lot whose rolling yield collapses is
/// quarantined and later resumed — the run still terminates, the collapsed
/// lot still completes (bit-identical: pausing reshapes scheduling only),
/// and the healthy co-tenant is untouched.
#[test]
fn collapsing_lot_is_paused_and_co_tenant_completes_unaffected() {
    let scan = catalog::figure2a_scan_soc();
    let bist = catalog::figure2b_bist_soc();
    let doomed_spec = VariationSpec::new(3, 1.0); // every die defective
    const DOOMED: u64 = 512;
    const HEALTHY: u64 = 64;

    // Scalar mode for the doomed lot: 512 individually queued jobs give the
    // 1 ms admission cadence hundreds of intervention windows.
    let doomed_baseline = standalone(&scan, 4, &doomed_spec, DOOMED);
    let healthy_baseline = standalone(&bist, 3, &VariationSpec::perfect(), HEALTHY);

    let floor = TestFloor::new()
        .with_threads(2)
        .with_admission(collapse_policy(CollapseAction::Pause));
    let report = floor
        .run(vec![
            LotSpec::new(
                "doomed",
                &scan,
                4,
                packed_schedule(&scan, 4).expect("schedule"),
                DOOMED,
                doomed_spec,
            )
            .expect("lot")
            .with_packed(false),
            LotSpec::new(
                "healthy",
                &bist,
                3,
                packed_schedule(&bist, 3).expect("schedule"),
                HEALTHY,
                VariationSpec::perfect(),
            )
            .expect("lot")
            .with_priority(2),
        ])
        .expect("floor run");

    let doomed = &report.lots[0];
    let healthy = &report.lots[1];
    assert_eq!(doomed.status, LotStatus::Completed, "pause is temporary");
    assert!(
        doomed
            .events
            .iter()
            .any(|e| e.action == AdmissionAction::Paused),
        "rolling yield 0 must trip the floor: {:?}",
        doomed.events
    );
    assert!(
        doomed
            .events
            .iter()
            .any(|e| e.action == AdmissionAction::Resumed),
        "the quarantine must expire: {:?}",
        doomed.events
    );
    assert_eq!(
        doomed.fleet.devices, doomed_baseline,
        "pausing must not change what devices compute"
    );
    assert_eq!(healthy.status, LotStatus::Completed);
    assert!(
        healthy.events.is_empty(),
        "the healthy lot is never touched"
    );
    assert_eq!(healthy.fleet.devices, healthy_baseline);
}

/// Gate (b), abort flavour: with [`CollapseAction::Abort`] the collapsing
/// lot is drained — it keeps only the devices already tested (each still
/// bit-identical to its standalone twin) — while the co-tenant lot
/// completes bit-identically, and the floor metrics record the abort.
#[test]
fn aborted_lot_is_drained_and_co_tenant_completes_unaffected() {
    let scan = catalog::figure2a_scan_soc();
    let bist = catalog::figure2b_bist_soc();
    let doomed_spec = VariationSpec::new(3, 1.0);
    const DOOMED: u64 = 512;
    const HEALTHY: u64 = 64;

    let doomed_baseline = standalone(&scan, 4, &doomed_spec, DOOMED);
    let healthy_baseline = standalone(&bist, 3, &VariationSpec::perfect(), HEALTHY);

    let floor = TestFloor::new()
        .with_threads(2)
        .with_admission(collapse_policy(CollapseAction::Abort));
    let metrics = MetricsRegistry::new();
    let report = floor
        .run_with_metrics(
            vec![
                LotSpec::new(
                    "doomed",
                    &scan,
                    4,
                    packed_schedule(&scan, 4).expect("schedule"),
                    DOOMED,
                    doomed_spec,
                )
                .expect("lot")
                .with_packed(false),
                LotSpec::new(
                    "healthy",
                    &bist,
                    3,
                    packed_schedule(&bist, 3).expect("schedule"),
                    HEALTHY,
                    VariationSpec::perfect(),
                )
                .expect("lot")
                .with_priority(2),
            ],
            &metrics,
            |_, _| {},
        )
        .expect("floor run");

    let doomed = &report.lots[0];
    let healthy = &report.lots[1];
    assert_eq!(doomed.status, LotStatus::Aborted);
    assert!(doomed.aborted());
    assert!(
        doomed
            .events
            .iter()
            .any(|e| matches!(e.action, AdmissionAction::Aborted { dropped } if dropped > 0)),
        "the drain must drop queued devices: {:?}",
        doomed.events
    );
    assert!(
        (doomed.fleet.fleet_size() as u64) < DOOMED,
        "an aborted lot cannot have tested everything"
    );
    // What did complete before the drain is still bit-identical.
    for device in &doomed.fleet.devices {
        assert_eq!(
            device, &doomed_baseline[device.device_id as usize],
            "device {} diverged",
            device.device_id
        );
    }
    assert_eq!(healthy.status, LotStatus::Completed);
    assert_eq!(healthy.fleet.devices, healthy_baseline);
    assert_eq!(metrics.counter("floor.aborted.lots"), 1);
    assert_eq!(metrics.counter("floor.admission.aborted"), 1);
    assert_eq!(
        metrics.counter("floor.completed"),
        doomed.fleet.fleet_size() as u64 + HEALTHY
    );
}

/// Determinism across thread counts under an *active* policy: the same
/// two-lot floor (collapsing lot included, pause flavour) produces
/// bit-identical per-lot reports at threads {1, 2, 4} — interventions are
/// wall-clock-driven, results are not.
#[test]
fn paused_floor_reports_are_identical_across_thread_counts() {
    let scan = catalog::figure2a_scan_soc();
    let bist = catalog::figure2b_bist_soc();
    let doomed_spec = VariationSpec::new(3, 1.0);
    const DOOMED: u64 = 128;
    const HEALTHY: u64 = 32;

    let mut reference: Option<Vec<Vec<DeviceReport>>> = None;
    for threads in [1usize, 2, 4] {
        let floor = TestFloor::new()
            .with_threads(threads)
            .with_admission(collapse_policy(CollapseAction::Pause));
        let report = floor
            .run(vec![
                LotSpec::new(
                    "doomed",
                    &scan,
                    4,
                    packed_schedule(&scan, 4).expect("schedule"),
                    DOOMED,
                    doomed_spec,
                )
                .expect("lot")
                .with_packed(false),
                LotSpec::new(
                    "healthy",
                    &bist,
                    3,
                    packed_schedule(&bist, 3).expect("schedule"),
                    HEALTHY,
                    VariationSpec::perfect(),
                )
                .expect("lot")
                .with_priority(2),
            ])
            .expect("floor run");
        assert!(report.lots.iter().all(|l| !l.aborted()));
        let devices: Vec<Vec<DeviceReport>> = report
            .lots
            .into_iter()
            .map(|lot| lot.fleet.devices)
            .collect();
        match &reference {
            None => reference = Some(devices),
            Some(reference) => assert_eq!(
                &devices, reference,
                "floor reports diverged at {threads} threads"
            ),
        }
    }
}
