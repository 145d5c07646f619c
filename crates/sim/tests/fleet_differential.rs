//! Differential property tests for fleet batch serving: a [`FleetRunner`]
//! over N devices must be bit-identical — device reports, signatures,
//! verdicts, and every wall-clock-free `fleet.*` metric — to testing the
//! same N devices one at a time with a plain per-device engine, at every
//! fleet size and worker-thread count, with and without stamped defects.

use casbus::RouteTableCache;
use casbus_controller::schedule::{packed_schedule, Schedule, ScheduledTest};
use casbus_controller::search::SearchBudget;
use casbus_controller::CompiledProgram;
use casbus_obs::MetricsRegistry;
use casbus_sim::{
    run_program_reference, run_program_searched, CompiledEngine, DeviceReport, FaultKind,
    FleetRunner, InjectedFault, PackedDeviceEngine, SocSimulator, VariationSpec,
};
use casbus_soc::{catalog, CoreId, SocDescription};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The sequential baseline: each device tested on its own, in device-id
/// order, on a fresh single-threaded engine — defects stamped by the same
/// [`VariationSpec`] the fleet uses.
fn sequential_baseline(
    soc: &SocDescription,
    plan: &CompiledProgram,
    spec: &VariationSpec,
    fleet_size: u64,
) -> Vec<DeviceReport> {
    (0..fleet_size)
        .map(|device_id| {
            let fault = spec.fault_for(soc, device_id);
            let mut sim = SocSimulator::new(soc, plan.bus_width()).expect("simulator");
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

/// Runs the fleet at every `(fleet_size, threads)` combination and asserts
/// bit-identity with the sequential baseline.
fn assert_fleet_matches_sequential(soc: &SocDescription, n: usize, spec: &VariationSpec) {
    let schedule = packed_schedule(soc, n).expect("schedule");
    let plan = CompiledProgram::compile(soc, n, schedule.clone()).expect("plan");

    for fleet_size in [1u64, 2, 16] {
        let baseline = sequential_baseline(soc, &plan, spec, fleet_size);
        let expected_passed = baseline.iter().filter(|d| d.passed()).count();
        let expected_cycles: u64 = baseline.iter().map(|d| d.report.total_cycles).sum();

        let mut reference_metrics: Option<String> = None;
        for threads in [1usize, 2, 4] {
            let runner = FleetRunner::new(soc, n, schedule.clone())
                .expect("runner")
                .with_threads(threads);
            let metrics = MetricsRegistry::new();
            let fleet = runner
                .run_with_metrics(spec, fleet_size, &metrics, |_| {})
                .expect("fleet run");

            assert_eq!(
                fleet.devices, baseline,
                "device reports diverged at fleet {fleet_size}, {threads} threads"
            );
            assert_eq!(fleet.passed, expected_passed);
            assert_eq!(fleet.total_cycles, expected_cycles);

            // Metrics (wall-clock-free by contract) must not depend on the
            // thread count; fleet.threads is the one key that names it.
            metrics.set("fleet.threads", 0);
            let json = metrics.to_json();
            match &reference_metrics {
                None => reference_metrics = Some(json),
                Some(reference) => assert_eq!(
                    &json, reference,
                    "metrics diverged at fleet {fleet_size}, {threads} threads"
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SoCs, healthy fleets: batch serving is observationally a
    /// loop of per-device runs.
    #[test]
    fn healthy_fleet_matches_sequential_runs(
        seed in any::<u64>(),
        n_cores in 2usize..=5,
        max_ports in 1usize..=3,
        slack in 0usize..=2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, n_cores, max_ports);
        let n = soc.max_ports() + slack;
        assert_fleet_matches_sequential(&soc, n, &VariationSpec::perfect());
    }

    /// Same, with ~25% of dies stamped defective: fault injection is part
    /// of the determinism contract, and failing signatures must match the
    /// sequential baseline bit for bit too.
    #[test]
    fn defective_fleet_matches_sequential_runs(
        seed in any::<u64>(),
        n_cores in 2usize..=5,
        variation_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(29) ^ 0x5bd1_e995);
        let soc = catalog::random_soc(&mut rng, n_cores, 3);
        let n = soc.max_ports();
        let spec = VariationSpec::new(variation_seed, 0.25);
        assert_fleet_matches_sequential(&soc, n, &spec);
    }
}

/// Splits `ids`, the device ids of a run's reports in `on_report` order,
/// into whole 64-die cohorts of a `fleet_size`-die lot, each in device
/// order; returns the cohorts in the order they left, or why `ids` does
/// not split.
fn reported_cohorts(ids: &[u64], fleet_size: u64) -> Result<Vec<u64>, String> {
    let mut cohorts = Vec::new();
    let mut rest = ids;
    while let Some(&first) = rest.first() {
        let cohort = first / 64;
        let end = ((cohort + 1) * 64).min(fleet_size);
        let whole: Vec<u64> = (cohort * 64..end).collect();
        let len = whole.len().min(rest.len());
        if rest[..len] != whole[..] || cohorts.contains(&cohort) {
            return Err(format!("cohort {cohort} left as {:?}", &rest[..len]));
        }
        cohorts.push(cohort);
        rest = &rest[len..];
    }
    if cohorts.len() as u64 == fleet_size.div_ceil(64) {
        Ok(cohorts)
    } else {
        Err(format!("{} of the lot's cohorts left", cohorts.len()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A packed run's lane passes span the lot, but its reports leave in
    /// whole 64-die cohorts, each in device order: `on_report`, and the
    /// floor's tracker and admission behind it, see consecutive cohorts
    /// whichever job computed a die.
    #[test]
    fn packed_reports_leave_in_whole_cohorts_in_device_order(
        pick in 0usize..3,
        variation_seed in any::<u64>(),
        defect_permille in 0u64..=1000,
    ) {
        let (soc, n) = match pick {
            0 => (catalog::figure2a_scan_soc(), 4),
            1 => (catalog::maintenance_soc(), 4),
            _ => (catalog::figure1_soc(), 8),
        };
        let spec = VariationSpec::new(variation_seed, defect_permille as f64 / 1000.0);
        let schedule = packed_schedule(&soc, n).expect("schedule");
        for threads in [1usize, 2, 4] {
            let runner = FleetRunner::new(&soc, n, schedule.clone())
                .expect("runner")
                .with_threads(threads);
            for fleet_size in [1u64, 63, 64, 65, 256, 700] {
                let mut ids = Vec::new();
                runner
                    .run_with(&spec, fleet_size, |device| ids.push(device.device_id))
                    .expect("packed run");
                let split = reported_cohorts(&ids, fleet_size);
                prop_assert!(
                    split.is_ok(),
                    "{}, {fleet_size} dies, {threads} threads: {split:?}",
                    soc.name()
                );
            }
        }
    }
}

/// A searched fleet serves exactly the plan [`run_program_searched`] would
/// execute: same schedule, and every healthy device's report equals the
/// report a literal loop of `run_program_searched` calls produces.
#[test]
fn searched_fleet_matches_run_program_searched_loop() {
    let soc = catalog::figure1_soc();
    let budget = SearchBudget::smoke();
    let runner = FleetRunner::searched(&soc, 8, budget)
        .expect("searched runner")
        .with_threads(4);
    let fleet = runner.run(&VariationSpec::perfect(), 8).expect("fleet run");

    for device in &fleet.devices {
        let (schedule, report) =
            run_program_searched(&soc, 8, budget, &MetricsRegistry::new()).expect("searched run");
        assert_eq!(runner.schedule(), &schedule, "device {}", device.device_id);
        assert_eq!(device.report, report, "device {}", device.device_id);
    }
}

/// Route-table compilation work is a property of the plan, not the fleet:
/// growing the fleet (at any thread count) adds cache hits, never misses.
#[test]
fn cache_misses_are_independent_of_fleet_size_and_threads() {
    let soc = catalog::itc02_like_soc();
    let schedule = packed_schedule(&soc, 16).expect("schedule");
    let mut observed = Vec::new();
    for (fleet_size, threads) in [(1u64, 1usize), (4, 2), (12, 4)] {
        let runner = FleetRunner::new(&soc, 16, schedule.clone())
            .expect("runner")
            .with_threads(threads);
        runner
            .run(&VariationSpec::perfect(), fleet_size)
            .expect("fleet run");
        observed.push(runner.cache().misses());
    }
    assert!(observed[0] > 0, "shapes compile once");
    assert!(
        observed.windows(2).all(|w| w[0] == w[1]),
        "misses grew with fleet size: {observed:?}"
    );
}

/// Counters outside the wall-clock `obs.*` namespace.
fn visible_counters(metrics: &MetricsRegistry) -> Vec<(String, u64)> {
    metrics
        .counters()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("obs."))
        .collect()
}

/// Histograms outside the wall-clock `obs.*` namespace.
fn visible_histograms(metrics: &MetricsRegistry) -> Vec<(String, casbus_obs::Histogram)> {
    metrics
        .histograms()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("obs."))
        .collect()
}

/// A fleet run with a [`FleetMonitor`](casbus_sim::FleetMonitor) attached
/// is bit-identical — device reports, and every counter/histogram outside
/// the wall-clock `obs.*` namespace — to a monitor-less run, at every
/// thread count. Both serve packed, and the monitor's replays move no
/// `fleet.packed.*` or `fleet.route_cache.*` counter. Monitoring observes;
/// it never participates.
#[test]
fn monitored_fleet_is_bit_identical_to_unmonitored() {
    use casbus_sim::{FleetMonitor, MonitorConfig};
    use std::time::Duration;

    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");
    let spec = VariationSpec::new(11, 0.5);
    const FLEET: u64 = 24;

    let mut first_dumps = None;
    for threads in [1usize, 2, 4] {
        let plain_runner = FleetRunner::new(&soc, 4, schedule.clone())
            .expect("runner")
            .with_threads(threads);
        let plain_metrics = MetricsRegistry::new();
        let plain = plain_runner
            .run_with_metrics(&spec, FLEET, &plain_metrics, |_| {})
            .expect("plain run");

        let monitored_runner = FleetRunner::new(&soc, 4, schedule.clone())
            .expect("runner")
            .with_threads(threads);
        let (monitor, snapshots) = FleetMonitor::with_config(MonitorConfig {
            interval: Duration::from_millis(5),
            ..MonitorConfig::default()
        });
        let monitored_metrics = MetricsRegistry::new();
        let monitored = monitored_runner
            .run_monitored_with_metrics(&spec, FLEET, &monitored_metrics, &monitor, |_| {})
            .expect("monitored run");

        assert_eq!(monitored.devices, plain.devices, "{threads} threads");
        assert_eq!(monitored.passed, plain.passed, "{threads} threads");
        assert_eq!(monitored.total_cycles, plain.total_cycles);
        assert_eq!(
            visible_counters(&monitored_metrics),
            visible_counters(&plain_metrics),
            "{threads} threads"
        );
        assert_eq!(
            visible_histograms(&monitored_metrics),
            visible_histograms(&plain_metrics),
            "{threads} threads"
        );
        assert!(
            monitored_metrics
                .counters()
                .iter()
                .any(|(name, _)| name.starts_with("obs.")),
            "the monitored run does publish obs.* telemetry"
        );
        assert!(
            monitored_metrics.counter("fleet.packed.cohorts") > 0,
            "the monitored run is served packed"
        );

        // The final snapshot always lands and agrees with the report.
        let last = snapshots.try_iter().last().expect("final snapshot");
        assert!(last.last);
        assert_eq!(last.completed, FLEET);
        assert_eq!(last.passed as usize, plain.passed);

        // Every defective or failing device dumped its flight recorder.
        let dumps = monitor.dumps();
        for device in &monitored.devices {
            if device.fault.is_some() || !device.passed() {
                assert!(
                    dumps.iter().any(|d| d.device_id == device.device_id),
                    "device {} missing its dump",
                    device.device_id
                );
            }
        }
        assert!(!dumps.is_empty(), "a 50% defect rate stamps some dies");
        assert!(dumps.iter().all(|d| !d.dump.events.is_empty()));
        assert!(
            dumps.windows(2).all(|w| w[0].device_id < w[1].device_id),
            "dumps in device order"
        );
        match &first_dumps {
            None => first_dumps = Some(dumps),
            Some(first) => assert_eq!(&dumps, first, "{threads} threads"),
        }
    }
}

/// A monitor's flight-recorder dump is the die's own trace: a replay on a
/// reused worker simulator records exactly what a fresh simulator stamped
/// with the die's defect records under the compiled engine, and a scalar
/// monitored run dumps what a packed one does.
#[test]
fn a_replayed_dump_is_the_dies_own_trace() {
    use casbus_obs::FlightRecorder;
    use casbus_sim::FleetMonitor;

    let soc = catalog::figure1_soc();
    let schedule = packed_schedule(&soc, 8).expect("schedule");
    let plan = CompiledProgram::compile(&soc, 8, schedule.clone()).expect("plan");
    let spec = VariationSpec::new(7, 0.25);
    let dumps = |packed: bool| {
        let runner = FleetRunner::new(&soc, 8, schedule.clone())
            .expect("runner")
            .with_threads(2)
            .with_packed(packed);
        let (monitor, _snapshots) = FleetMonitor::new();
        let fleet = runner
            .run_monitored(&spec, 96, &monitor)
            .expect("monitored run");
        (fleet, monitor.dumps(), monitor.config().recorder_capacity)
    };
    let (fleet, packed, capacity) = dumps(true);
    let defective: Vec<u64> = fleet
        .devices
        .iter()
        .filter(|d| d.fault.is_some())
        .map(|d| d.device_id)
        .collect();
    assert!(defective.len() > 8, "a 25% defect rate stamps many dies");
    assert_eq!(
        packed.iter().map(|d| d.device_id).collect::<Vec<_>>(),
        defective
    );
    for dump in &packed {
        let device = &fleet.devices[dump.device_id as usize];
        let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
        device
            .fault
            .as_ref()
            .expect("a defective die")
            .apply(&mut sim)
            .expect("inject");
        let recorder = Arc::new(FlightRecorder::new(capacity));
        sim.set_trace(Arc::clone(&recorder) as Arc<dyn casbus_obs::TraceSink>);
        let report = CompiledEngine::new()
            .run(&mut sim, plan.program())
            .expect("device run");
        assert_eq!(report, device.report, "device {}", dump.device_id);
        assert_eq!(dump.dump, recorder.dump(), "device {}", dump.device_id);
        assert_eq!(
            (dump.defective, dump.passed),
            (true, device.passed()),
            "device {}",
            dump.device_id
        );
    }
    assert_eq!(dumps(false).1, packed, "scalar and packed runs dump alike");
}

/// Metric keys that legitimately differ between the packed and scalar
/// execution modes: wall-clock (`obs.*`), the thread-count label, the
/// route-cache traffic (the packed baseline run and the per-device scalar
/// engines hit the shared cache on different schedules), and the packed
/// path's own accounting.
fn mode_dependent(name: &str) -> bool {
    name.starts_with("obs.")
        || name == "fleet.threads"
        || name.starts_with("fleet.route_cache.")
        || name.starts_with("fleet.packed.")
}

/// The tentpole differential: a packed fleet run must be bit-identical to
/// the scalar fleet across cohort-boundary sizes (under, at, and over one
/// 64-lane cohort, and a 4-cohort fleet) and thread counts, defective dies
/// included. Every metric outside the mode-dependent set must match too.
#[test]
fn packed_fleet_is_bit_identical_to_scalar_fleet() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");
    let spec = VariationSpec::new(11, 0.5);

    for fleet_size in [1u64, 2, 63, 64, 65, 256] {
        let scalar_runner = FleetRunner::new(&soc, 4, schedule.clone())
            .expect("runner")
            .with_packed(false)
            .with_threads(4);
        let scalar_metrics = MetricsRegistry::new();
        let scalar = scalar_runner
            .run_with_metrics(&spec, fleet_size, &scalar_metrics, |_| {})
            .expect("scalar run");

        for threads in [1usize, 2, 4] {
            let packed_runner = FleetRunner::new(&soc, 4, schedule.clone())
                .expect("runner")
                .with_threads(threads);
            assert!(packed_runner.packed(), "packed mode is the default");
            let packed_metrics = MetricsRegistry::new();
            let packed = packed_runner
                .run_with_metrics(&spec, fleet_size, &packed_metrics, |_| {})
                .expect("packed run");

            assert_eq!(
                packed.devices, scalar.devices,
                "fleet {fleet_size}, {threads} threads"
            );
            assert_eq!(packed.passed, scalar.passed);
            assert_eq!(packed.total_cycles, scalar.total_cycles);
            assert_eq!(packed.wire_cycles, scalar.wire_cycles);

            let visible = |m: &MetricsRegistry| {
                m.counters()
                    .into_iter()
                    .filter(|(name, _)| !mode_dependent(name))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                visible(&packed_metrics),
                visible(&scalar_metrics),
                "fleet {fleet_size}, {threads} threads"
            );
            let visible_histograms = |m: &MetricsRegistry| {
                visible_histograms(m)
                    .into_iter()
                    .filter(|(name, _)| !mode_dependent(name))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                visible_histograms(&packed_metrics),
                visible_histograms(&scalar_metrics),
                "fleet {fleet_size}, {threads} threads"
            );

            // The packed accounting itself is deterministic and complete:
            // every device is served by exactly one path.
            let counter = |name: &str| packed_metrics.counter(name);
            assert_eq!(
                counter("fleet.packed.cohorts"),
                fleet_size.div_ceil(64),
                "fleet {fleet_size}"
            );
            assert_eq!(
                counter("fleet.packed.baseline.devices")
                    + counter("fleet.packed.lane.devices")
                    + counter("fleet.packed.fallback.devices"),
                fleet_size,
                "fleet {fleet_size}"
            );
        }
    }
}

/// A cohort whose every lane is defective (yield 0 at `defect_rate` 1.0)
/// still matches the scalar loop — the all-lanes-active mask path and the
/// per-core lane grouping hold at full occupancy.
#[test]
fn all_defective_cohorts_match_scalar_fleet() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");
    let spec = VariationSpec::new(23, 1.0);
    const FLEET: u64 = 96; // one full cohort + one partial, all defective

    let scalar = FleetRunner::new(&soc, 4, schedule.clone())
        .expect("runner")
        .with_packed(false)
        .with_threads(4)
        .run(&spec, FLEET)
        .expect("scalar run");
    assert!(
        scalar.devices.iter().all(|d| d.fault.is_some()),
        "rate 1.0 stamps every die"
    );

    let packed = FleetRunner::new(&soc, 4, schedule)
        .expect("runner")
        .with_threads(2)
        .run(&spec, FLEET)
        .expect("packed run");
    assert_eq!(packed.devices, scalar.devices);
    assert_eq!(packed.passed, scalar.passed);
}

/// A fleet whose defects land exclusively on BIST and memory cores rides
/// the lane encoding end to end: every `(fleet_size, threads)` combination
/// is bit-identical to the scalar fleet, zero devices fall back to scalar,
/// and no fallback-reason counter fires.
#[test]
fn all_defective_bist_memory_fleet_matches_scalar_fleet() {
    use casbus_sim::FaultKind;
    use casbus_soc::{CoreDescription, SocBuilder, TestMethod};

    let soc = SocBuilder::new("bist_memory")
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
        .expect("valid by construction");
    let n = soc.max_ports();
    let schedule = packed_schedule(&soc, n).expect("schedule");
    let spec = VariationSpec::new(29, 1.0);
    const FLEET: u64 = 96; // one full cohort + one partial, all defective

    let scalar = FleetRunner::new(&soc, n, schedule.clone())
        .expect("runner")
        .with_packed(false)
        .with_threads(4)
        .run(&spec, FLEET)
        .expect("scalar run");
    assert!(
        scalar.devices.iter().all(|d| matches!(
            d.fault.as_ref().map(|f| &f.kind),
            Some(FaultKind::BistResponse { .. }) | Some(FaultKind::MemoryStuckCell { .. })
        )),
        "every stamped defect targets a BIST or memory core"
    );

    for threads in [1usize, 2, 4] {
        let runner = FleetRunner::new(&soc, n, schedule.clone())
            .expect("runner")
            .with_threads(threads);
        let metrics = MetricsRegistry::new();
        let packed = runner
            .run_with_metrics(&spec, FLEET, &metrics, |_| {})
            .expect("packed run");

        assert_eq!(packed.devices, scalar.devices, "{threads} threads");
        assert_eq!(packed.passed, scalar.passed);
        assert_eq!(
            metrics.counter("fleet.packed.lane.devices"),
            FLEET,
            "every defective die rides a lane ({threads} threads)"
        );
        assert_eq!(
            metrics.counter("fleet.packed.fallback.devices"),
            0,
            "BIST/memory defects never fall back ({threads} threads)"
        );
        assert!(
            metrics
                .counters()
                .iter()
                .all(|(name, _)| !name.starts_with("fleet.packed.fallback.reason.")),
            "no fallback reason may fire ({threads} threads)"
        );
    }
}

/// A mixed lot on the §4 maintenance SoC — scan, BIST, and memory defects
/// interleaved in one fleet — stays bit-identical to the scalar fleet at
/// every thread count with zero scalar fallbacks: heterogeneous cohorts
/// group lanes per core and dispatch each to its own packed model.
#[test]
fn mixed_lot_bist_memory_fleet_matches_scalar_fleet() {
    use casbus_sim::FaultKind;

    let soc = catalog::maintenance_soc();
    let n = soc.max_ports();
    let schedule = packed_schedule(&soc, n).expect("schedule");
    let spec = VariationSpec::new(17, 0.5);
    const FLEET: u64 = 96;

    let scalar = FleetRunner::new(&soc, n, schedule.clone())
        .expect("runner")
        .with_packed(false)
        .with_threads(4)
        .run(&spec, FLEET)
        .expect("scalar run");
    let mut kinds_seen = [false; 3];
    for device in &scalar.devices {
        match device.fault.as_ref().map(|f| &f.kind) {
            Some(FaultKind::ScanStuckAt { .. }) => kinds_seen[0] = true,
            Some(FaultKind::BistResponse { .. }) => kinds_seen[1] = true,
            Some(FaultKind::MemoryStuckCell { .. }) => kinds_seen[2] = true,
            None => {}
        }
    }
    assert_eq!(
        kinds_seen, [true; 3],
        "the lot exercises scan, BIST, and memory defects"
    );

    for threads in [1usize, 2, 4] {
        let runner = FleetRunner::new(&soc, n, schedule.clone())
            .expect("runner")
            .with_threads(threads);
        let metrics = MetricsRegistry::new();
        let packed = runner
            .run_with_metrics(&spec, FLEET, &metrics, |_| {})
            .expect("packed run");

        assert_eq!(packed.devices, scalar.devices, "{threads} threads");
        assert_eq!(packed.passed, scalar.passed);
        assert_eq!(packed.total_cycles, scalar.total_cycles);
        assert!(
            metrics.counter("fleet.packed.lane.devices") > 0,
            "defective dies ride lanes ({threads} threads)"
        );
        assert_eq!(
            metrics.counter("fleet.packed.fallback.devices"),
            0,
            "no defect placement forces scalar ({threads} threads)"
        );
        assert!(
            metrics
                .counters()
                .iter()
                .all(|(name, _)| !name.starts_with("fleet.packed.fallback.reason.")),
            "no fallback reason may fire ({threads} threads)"
        );
    }
}

/// A schedule built with `Schedule::from_tests` may leave an injectable
/// core untested. No lane runs that core, so a die with a defect on it
/// falls back to the scalar path under
/// `fleet.packed.fallback.reason.defect.untested_core`, and the packed lot
/// still equals the scalar lot.
#[test]
fn defects_on_an_untested_core_fall_back_and_match_scalar_fleet() {
    let soc = catalog::maintenance_soc();
    let full = packed_schedule(&soc, 4).expect("schedule");
    let (skipped, kept) = full.tests().split_first().expect("tests");
    assert_eq!(skipped.core_name, "app_cpu");
    let schedule = Schedule::from_tests(4, kept.to_vec()).expect("a subset stays valid");
    let spec = VariationSpec::new(17, 1.0);
    const FLEET: u64 = 64;

    let scalar = FleetRunner::new(&soc, 4, schedule.clone())
        .expect("runner")
        .with_packed(false)
        .run(&spec, FLEET)
        .expect("scalar run");
    let metrics = MetricsRegistry::new();
    let packed = FleetRunner::new(&soc, 4, schedule)
        .expect("runner")
        .run_with_metrics(&spec, FLEET, &metrics, |_| {})
        .expect("packed run");
    assert_eq!(packed.devices, scalar.devices);
    assert_eq!(packed.passed, scalar.passed);

    let untested = scalar
        .devices
        .iter()
        .filter(|d| d.fault.as_ref().is_some_and(|f| f.core == "app_cpu"))
        .count() as u64;
    assert_eq!(untested, 21, "spec 17 stamps 21 of 64 dies on app_cpu");
    assert_eq!(
        metrics.counter("fleet.packed.fallback.reason.defect.untested_core"),
        untested
    );
    assert_eq!(metrics.counter("fleet.packed.fallback.devices"), untested);
}

/// Figure 1's `packed_schedule` at N = 8 with the wrapped system bus's
/// interconnect test appended at the makespan. That last step tests no
/// core and leaves the bus wrapper armed in EXTEST, so the program runs it
/// on the interpreter and every defective die falls back to the scalar
/// path under `fleet.packed.fallback.reason.step.armed_bystander`. The
/// packed lot still equals the scalar lot, and each defective die's report
/// equals its reference run.
#[test]
fn a_step_fallback_serves_every_defective_die_like_the_reference() {
    let soc = catalog::figure1_soc();
    let cores = packed_schedule(&soc, 8).expect("schedule");
    let mut tests = cores.tests().to_vec();
    tests.push(ScheduledTest {
        core: CoreId(soc.cores().len()),
        core_name: "system_bus".to_owned(),
        wire_start: 0,
        wires: 1,
        start: cores.makespan(),
        duration: 40,
    });
    let schedule = Schedule::from_tests(8, tests).expect("the bus test starts last");
    let spec = VariationSpec::new(7, 0.25);
    const FLEET: u64 = 64;

    let scalar = FleetRunner::new(&soc, 8, schedule.clone())
        .expect("runner")
        .with_packed(false)
        .run(&spec, FLEET)
        .expect("scalar run");
    let runner = FleetRunner::new(&soc, 8, schedule).expect("runner");
    let metrics = MetricsRegistry::new();
    let packed = runner
        .run_with_metrics(&spec, FLEET, &metrics, |_| {})
        .expect("packed run");
    assert_eq!(packed.devices, scalar.devices);

    let mut defective = 0;
    for device in &packed.devices {
        let Some(fault) = &device.fault else {
            continue;
        };
        defective += 1;
        let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
        fault.apply(&mut sim).expect("inject");
        let reference =
            run_program_reference(&mut sim, runner.plan().program()).expect("reference");
        assert_eq!(device.report, reference, "{fault:?}");
    }
    assert_eq!(defective, 15, "spec 7 stamps 15 of 64 dies");
    assert_eq!(
        metrics.counter("fleet.packed.fallback.reason.step.armed_bystander"),
        defective
    );
}

/// [`VariationSpec`] edge cases: the extreme rates stamp none/all, the
/// empty and single-device fleets behave, and `fault_for` is a pure
/// function — identical across repeated runs and across thread counts.
#[test]
fn variation_spec_edge_cases_and_determinism() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");

    // Rate 0.0 stamps nothing; rate 1.0 stamps everything.
    let none = VariationSpec::new(9, 0.0);
    let all = VariationSpec::new(9, 1.0);
    for id in 0..128 {
        assert!(none.fault_for(&soc, id).is_none(), "device {id}");
        assert!(all.fault_for(&soc, id).is_some(), "device {id}");
    }

    // fault_for is deterministic: same spec, same device, same fault —
    // regardless of how many times (or from how many threads) it's asked.
    let spec = VariationSpec::new(41, 0.5);
    let reference: Vec<_> = (0..64).map(|id| spec.fault_for(&soc, id)).collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for (id, expected) in reference.iter().enumerate() {
                    assert_eq!(&spec.fault_for(&soc, id as u64), expected);
                }
            });
        }
    });

    // Fleet size 0: an empty report, full yield, no packed accounting.
    let runner = FleetRunner::new(&soc, 4, schedule.clone()).expect("runner");
    let metrics = MetricsRegistry::new();
    let empty = runner
        .run_with_metrics(&spec, 0, &metrics, |_| {})
        .expect("empty run");
    assert_eq!(empty.fleet_size(), 0);
    assert!((empty.yield_fraction() - 1.0).abs() < f64::EPSILON);
    assert_eq!(metrics.counter("fleet.devices"), 0);
    assert_eq!(metrics.counter("fleet.packed.cohorts"), 0);

    // Fleet size 1: packed and scalar agree on a singleton fleet too (the
    // proptests cover this shape, but pin it explicitly as an edge).
    let one_packed = runner.run(&spec, 1).expect("packed singleton");
    let one_scalar = FleetRunner::new(&soc, 4, schedule)
        .expect("runner")
        .with_packed(false)
        .run(&spec, 1)
        .expect("scalar singleton");
    assert_eq!(one_packed.devices, one_scalar.devices);

    // Repeated runs of one runner are bit-identical (per-worker simulator
    // reuse and the memoised packed engine never leak state).
    let again = runner.run(&spec, 1).expect("repeat run");
    assert_eq!(again.devices, one_packed.devices);
}

/// The shared cache is an `Arc`: two runners can serve different fleets
/// off one cache without recompiling shared shapes.
#[test]
fn runners_share_arc_plans_cheaply() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");
    let first = FleetRunner::new(&soc, 4, schedule.clone()).expect("runner");
    let a = first.run(&VariationSpec::perfect(), 3).expect("fleet run");
    let misses_after_first = first.cache().misses();

    let cache = Arc::clone(first.cache());
    drop(first);
    // The cache outlives its first runner; a fresh engine over it serves
    // every shape as a hit.
    let plan = CompiledProgram::compile(&soc, 4, schedule).expect("plan");
    let mut sim = SocSimulator::new(&soc, 4).expect("simulator");
    let report = CompiledEngine::new()
        .with_cache(Arc::clone(&cache))
        .run(&mut sim, plan.program())
        .expect("run");
    assert_eq!(report, a.devices[0].report);
    assert_eq!(cache.misses(), misses_after_first, "all hits after warm-up");
}

/// Hand-picked defects on a three-step Figure-1 plan at N = 8 (the one the
/// smoke search planned for the flagship lot while it ranked plans by
/// makespan): `core1_cpu` runs through all three steps, carried across
/// both reconfigurations, and `core2_dsp` starts in the last one. Served
/// packed, each die's report equals its scalar compiled run and its
/// reference run.
#[test]
fn carried_sessions_serve_packed_like_scalar_and_reference_runs() {
    let soc = catalog::figure1_soc();
    // Core, start, first wire.
    let placed = [
        (0, 0, 0),
        (4, 0, 4),
        (5, 0, 6),
        (2, 0, 7),
        (3, 244, 4),
        (1, 501, 4),
    ];
    let tests = placed
        .iter()
        .map(|&(core, start, wire_start)| ScheduledTest {
            core: CoreId(core),
            core_name: soc.cores()[core].name().to_owned(),
            wire_start,
            wires: soc.cores()[core].required_ports(),
            start,
            duration: soc.cores()[core].test_time(),
        })
        .collect();
    let schedule = Schedule::from_tests(8, tests).expect("conflict-free");
    let plan = Arc::new(CompiledProgram::compile(&soc, 8, schedule).expect("plan"));
    let cpu = plan.tam().cas_for_core("core1_cpu").expect("core1_cpu");
    let steps = plan.program().steps();
    assert_eq!(steps.len(), 3);
    // Its plan (test time + 1 drain cycle) outlasts the first two steps.
    let test_time = soc
        .core_by_name("core1_cpu")
        .expect("core1_cpu")
        .1
        .test_time();
    assert!(test_time + 1 > steps[0].duration + 1 + steps[1].duration + 1);
    assert!(steps
        .iter()
        .all(|step| step.configuration.cores_under_test().contains(&cpu)));

    let scan = |core: &str, chain, position, stuck_at| InjectedFault {
        core: core.to_owned(),
        kind: FaultKind::ScanStuckAt {
            chain,
            position,
            stuck_at,
        },
    };
    let faults = [
        scan("core1_cpu", 0, 0, true),
        scan("core1_cpu", 2, 57, false),
        scan("core1_cpu", 3, 89, true),
        scan("core2_dsp", 0, 31, false),
        scan("core2_dsp", 1, 70, true),
    ];
    let engine = PackedDeviceEngine::compile(
        &Arc::new(soc.clone()),
        &plan,
        &Arc::new(RouteTableCache::new()),
    )
    .expect("packed engine");
    let members = (0u64..)
        .zip(faults.iter().cloned().map(Some).chain([None]))
        .collect();
    let reports = engine.run_cohort(members).expect("cohort");
    assert_eq!(reports.len(), faults.len() + 1);
    for device in &reports {
        let fresh = || {
            let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
            if let Some(fault) = &device.fault {
                assert!(engine.fault_packable(fault), "{fault:?} rides a lane");
                fault.apply(&mut sim).expect("inject");
            }
            sim
        };
        let scalar = CompiledEngine::new()
            .run(&mut fresh(), plan.program())
            .expect("scalar run");
        let reference = run_program_reference(&mut fresh(), plan.program()).expect("reference");
        assert_eq!(device.report, scalar, "packed, {:?}", device.fault);
        assert_eq!(scalar, reference, "scalar, {:?}", device.fault);
        assert_eq!(
            device.report.all_pass(),
            device.fault.is_none(),
            "{:?}",
            device.fault
        );
    }
}
