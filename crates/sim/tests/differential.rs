//! Differential property tests: the compiled word-level engine
//! ([`CompiledEngine`]) must be a drop-in replacement for the bit-serial
//! reference interpreter. For randomly generated SoCs, bus widths and
//! schedules (serial and packed — multi-step programs reconfigure the
//! TAM between waves, exercising dynamic reconfiguration), both engines
//! must produce the same [`SocTestReport`] (verdicts, cycle breakdown
//! *and* captured response signatures), the same simulator counters and
//! the same exported metrics.

use std::sync::Arc;

use casbus::{RouteTableCache, Tam};
use casbus_controller::{schedule, CompiledProgram, TestProgram};
use casbus_obs::{MemorySink, MetricsRegistry};
use casbus_sim::{
    run_program_reference, CompiledEngine, FaultKind, PackedDeviceEngine, SocSimulator,
    VariationSpec,
};
use casbus_soc::{catalog, SocDescription};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds a program for `soc` on an `n`-wire bus. Packed schedules group
/// wire-disjoint tests into concurrent waves; serial schedules run one
/// core per step. Either way every step beyond the first is a dynamic
/// mid-run reconfiguration of the TAM.
fn program_for(soc: &SocDescription, n: usize, packed: bool) -> TestProgram {
    let tam = Tam::new(soc, n).expect("bus wide enough by construction");
    let sched = if packed {
        schedule::packed_schedule(soc, n).expect("schedule")
    } else {
        schedule::serial_schedule(soc, n).expect("schedule")
    };
    TestProgram::from_schedule(&tam, soc, &sched).expect("program")
}

/// Runs `program` through the reference interpreter and through the
/// compiled engine, each on a fresh simulator, and asserts that every
/// observable output is bit-identical.
fn assert_drop_in(soc: &SocDescription, n: usize, packed: bool) {
    let program = program_for(soc, n, packed);
    let ref_metrics = MetricsRegistry::new();
    let mut ref_sim = SocSimulator::new(soc, n).expect("simulator");
    let reference = run_program_reference(&mut ref_sim, &program).expect("reference run");
    ref_sim.export_metrics(&ref_metrics);
    assert!(
        reference.all_pass(),
        "fault-free random SoC must pass the reference run"
    );
    let metrics = MetricsRegistry::new();
    let mut sim = SocSimulator::new(soc, n).expect("simulator");
    let compiled = CompiledEngine::new()
        .run(&mut sim, &program)
        .expect("compiled run");
    sim.export_metrics(&metrics);
    // The report comparison covers verdicts, total/config/test cycle
    // counts, per-core cycles, bus-wire busy cycles and the per-session
    // response signatures in one shot.
    assert_eq!(compiled, reference, "report diverged");
    assert_eq!(sim.cycles(), ref_sim.cycles());
    assert_eq!(sim.config_cycles(), ref_sim.config_cycles());
    assert_eq!(sim.test_cycles(), ref_sim.test_cycles());
    assert_eq!(sim.core_stats(), ref_sim.core_stats());
    assert_eq!(sim.wire_busy(), ref_sim.wire_busy());
    assert_eq!(metrics.to_json(), ref_metrics.to_json(), "metrics diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (N, P) sweep: random cores (scan / BIST / external / memory,
    /// random chain lengths and pattern counts), random bus width with
    /// slack wires beyond the minimum, serial and packed schedules.
    #[test]
    fn compiled_engine_is_drop_in_for_random_socs(
        seed in any::<u64>(),
        n_cores in 2usize..=6,
        max_ports in 1usize..=4,
        slack in 0usize..=3,
        packed in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, n_cores, max_ports);
        let n = soc.max_ports() + slack;
        assert_drop_in(&soc, n, packed);
    }

    /// Packed schedules on wider-than-minimum buses maximise concurrent
    /// lanes per wave, stressing the per-step lane accounting.
    #[test]
    fn compiled_engine_is_drop_in_with_many_parallel_lanes(
        seed in any::<u64>(),
        n_cores in 4usize..=8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.rotate_left(17) ^ 0x9e37_79b9);
        let soc = catalog::random_soc(&mut rng, n_cores, 2);
        let n = soc.max_ports() * 2 + 2;
        assert_drop_in(&soc, n, true);
    }
}

/// Defective dies meet the oracle. Each case draws a random SoC, serves
/// its packed schedule to a few dies that `VariationSpec` stamps at defect
/// rate 1.0, and requires three reports per die to be equal: the reference
/// interpreter's and the compiled engine's on a simulator carrying the
/// die's defect, and the packed cohort engine's. Across the cases, every
/// `FaultKind` occurs.
#[test]
fn defective_dies_agree_on_reference_compiled_and_packed_engines() {
    const CASES: usize = 10;
    const DIES: u64 = 4;
    let mut rng = StdRng::seed_from_u64(0xdefe_c7ed);
    let mut kinds_seen = [false; 3];
    for case in 0..CASES {
        let n_cores = rng.random_range(2..=4usize);
        let soc = Arc::new(catalog::random_soc(&mut rng, n_cores, 3));
        let n = soc.max_ports() + rng.random_range(0..=2usize);
        let schedule = schedule::packed_schedule(&soc, n).expect("schedule");
        let plan = Arc::new(CompiledProgram::compile(&soc, n, schedule).expect("plan"));
        let spec = VariationSpec::new(rng.random_range(0..u64::MAX), 1.0);
        let members: Vec<_> = (0..DIES).map(|id| (id, spec.fault_for(&soc, id))).collect();
        let packed = PackedDeviceEngine::compile(&soc, &plan, &Arc::new(RouteTableCache::new()))
            .expect("packed engine")
            .run_cohort(members.clone())
            .expect("cohort run");
        for ((device_id, fault), packed) in members.iter().zip(packed) {
            let die = |sim: &mut SocSimulator| {
                if let Some(fault) = fault {
                    fault.apply(sim).expect("inject");
                }
            };
            let mut ref_sim = SocSimulator::new(&soc, n).expect("simulator");
            die(&mut ref_sim);
            let reference = run_program_reference(&mut ref_sim, plan.program()).expect("reference");
            let mut sim = SocSimulator::new(&soc, n).expect("simulator");
            die(&mut sim);
            let compiled = CompiledEngine::new()
                .run(&mut sim, plan.program())
                .expect("compiled run");
            let at = format!("case {case}, die {device_id}, {fault:?}");
            assert_eq!(compiled, reference, "compiled diverged at {at}");
            assert_eq!(packed.device_id, *device_id);
            assert_eq!(packed.report, reference, "packed diverged at {at}");
            if let Some(fault) = fault {
                kinds_seen[match fault.kind {
                    FaultKind::ScanStuckAt { .. } => 0,
                    FaultKind::BistResponse { .. } => 1,
                    FaultKind::MemoryStuckCell { .. } => 2,
                }] = true;
            }
        }
    }
    assert_eq!(
        kinds_seen, [true; 3],
        "scan, BIST and memory defects all occur"
    );
}

/// A mid-run reconfiguration built by hand: two single-step programs run
/// back-to-back on the *same* simulator. The compiled engine must leave
/// the simulator in exactly the state the reference leaves it in, so the
/// second program's results agree too.
#[test]
fn back_to_back_programs_reconfigure_identically() {
    let soc = catalog::figure1_soc();
    let serial = program_for(&soc, 8, false);
    let packed = program_for(&soc, 8, true);

    let mut ref_sim = SocSimulator::new(&soc, 8).expect("simulator");
    let ref_a = run_program_reference(&mut ref_sim, &serial).expect("reference serial");
    let ref_b = run_program_reference(&mut ref_sim, &packed).expect("reference packed");

    let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
    let engine = CompiledEngine::new();
    let got_a = engine.run(&mut sim, &serial).expect("compiled serial");
    let got_b = engine.run(&mut sim, &packed).expect("compiled packed");

    assert_eq!(got_a, ref_a, "first program");
    assert_eq!(got_b, ref_b, "second program after reconfiguration");
    assert_eq!(sim.cycles(), ref_sim.cycles());
    assert_eq!(sim.core_stats(), ref_sim.core_stats());
    assert_eq!(sim.wire_busy(), ref_sim.wire_busy());
}

/// Minimum-width buses give the schedules the least room: pin four
/// deterministic seeds there so that coverage does not depend on
/// proptest's sampling.
#[test]
fn minimum_width_bus_random_soc_agrees() {
    for seed in [3u64, 11, 42, 1999] {
        let mut rng = StdRng::seed_from_u64(seed);
        let soc = catalog::random_soc(&mut rng, 5, 3);
        let n = soc.max_ports().max(1);
        assert_drop_in(&soc, n, true);
        assert_drop_in(&soc, n, false);
    }
}

/// Tracing keeps the compiled engine: a traced compiled run exports the
/// same canonical JSONL as a traced reference run — the simulator's
/// `configure` spans and every core's `session` span — on every catalog
/// SoC, under packed and serial schedules.
#[test]
fn traced_compiled_runs_export_the_reference_trace() {
    let maintenance = catalog::maintenance_soc();
    let maintenance_n = maintenance.max_ports();
    for (soc, n) in [
        (catalog::figure1_soc(), 8),
        (catalog::figure2a_scan_soc(), 4),
        (catalog::figure2b_bist_soc(), 3),
        (catalog::figure2c_external_soc(), 4),
        (catalog::figure2d_hierarchical_soc(), 4),
        (catalog::itc02_like_soc(), 16),
        (maintenance, maintenance_n),
    ] {
        for packed in [true, false] {
            let program = program_for(&soc, n, packed);
            let reference = MemorySink::new();
            let mut ref_sim = SocSimulator::new(&soc, n).expect("simulator");
            ref_sim.set_trace(reference.clone());
            let expected = run_program_reference(&mut ref_sim, &program).expect("reference run");
            assert!(
                reference.events().iter().any(|e| e.cat == "session"),
                "{} emits session spans",
                soc.name()
            );
            let traced = MemorySink::new();
            let mut sim = SocSimulator::new(&soc, n).expect("simulator");
            sim.set_trace(traced.clone());
            let report = CompiledEngine::new()
                .run(&mut sim, &program)
                .expect("compiled run");
            assert_eq!(report, expected, "{} packed={packed}", soc.name());
            assert_eq!(
                traced.canonical_jsonl(),
                reference.canonical_jsonl(),
                "{} packed={packed}",
                soc.name()
            );
        }
    }
}
