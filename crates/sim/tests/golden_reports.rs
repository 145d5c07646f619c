//! Pinned reports: every field of the Figure-1 `SocTestReport` under
//! `packed_schedule(8)`, for a healthy die and one defective die per
//! injectable core, and of the healthy die under the searched plan the
//! flagship lot serves. A lane observes only its own plan, so a healthy
//! core has one signature, whichever plan tests it, and a defective core
//! one mismatch count and signature: the values a serial plan gives, in
//! which every lane is the longest of its step. Those serial-plan values
//! were recorded from the bit-serial reference interpreter before the core
//! models moved to word-level shifting.
//!
//! Every engine shares the behavioural core models, so the differential
//! suites, which compare engines with each other, cannot see a change of
//! behaviour the models share. Literal values can.

use std::sync::Arc;

use casbus::RouteTableCache;
use casbus_controller::schedule::packed_schedule;
use casbus_controller::{CompiledProgram, SearchBudget};
use casbus_sim::{
    run_program_reference, CompiledEngine, FaultKind, FleetRunner, InjectedFault,
    PackedDeviceEngine, SocSimulator, SocTestReport,
};
use casbus_soc::catalog;
use casbus_tpg::Verdict;

/// Tested cores in the packed plan's verdict order.
const CORES: [&str; 6] = [
    "core1_cpu",
    "core2_dsp",
    "core3_sram",
    "core6_eeprom",
    "core4_dma",
    "core5_subsystem",
];

/// A healthy core's session signature, under every plan.
fn healthy(core: &str) -> u64 {
    match core {
        "core1_cpu" => 0xfc63_0997_7af4_40be,
        "core2_dsp" => 0xc2ca_1082_cde7_28e7,
        "core3_sram" => 0xdacb_c4ca_7432_8132,
        "core4_dma" => 0x694d_7828_7b06_1e10,
        "core5_subsystem" => 0x3d4c_f84e_f2ab_4db8,
        "core6_eeprom" => 0xf7b5_4800_e41f_fb7f,
        _ => panic!("{core} is not a Figure-1 core"),
    }
}

/// One die: its defect and, for a defective die, the failing session's
/// mismatch count and signature. Every other session keeps its healthy
/// verdict and signature.
struct Die {
    fault: Option<InjectedFault>,
    failing: Option<(usize, u64)>,
}

fn dies() -> Vec<Die> {
    let defect = |core: &str, kind: FaultKind, mismatches: usize, signature: u64| Die {
        fault: Some(InjectedFault {
            core: core.to_owned(),
            kind,
        }),
        failing: Some((mismatches, signature)),
    };
    vec![
        Die {
            fault: None,
            failing: None,
        },
        defect(
            "core1_cpu",
            FaultKind::ScanStuckAt {
                chain: 2,
                position: 57,
                stuck_at: false,
            },
            7918,
            0xfc98_3b28_7600_072d,
        ),
        defect(
            "core2_dsp",
            FaultKind::ScanStuckAt {
                chain: 1,
                position: 70,
                stuck_at: true,
            },
            2912,
            0xdd85_0537_9fa7_b094,
        ),
        defect(
            "core3_sram",
            FaultKind::BistResponse { after: 311 },
            9,
            0x0c4b_ddca_7432_abad,
        ),
        defect(
            "core6_eeprom",
            FaultKind::MemoryStuckCell {
                word: 17,
                bit: 5,
                value: true,
            },
            1,
            0xf7b5_4400_e41f_f4b3,
        ),
    ]
}

impl Die {
    /// The full pinned report of this die.
    fn report(&self) -> SocTestReport {
        let mut verdicts: Vec<(String, Verdict)> = CORES
            .iter()
            .map(|c| (c.to_string(), Verdict::Pass))
            .collect();
        let mut signatures: Vec<(String, u64)> =
            CORES.iter().map(|c| (c.to_string(), healthy(c))).collect();
        if let (Some(fault), Some((mismatches, signature))) = (&self.fault, self.failing) {
            let slot = CORES
                .iter()
                .position(|c| *c == fault.core)
                .expect("pinned core");
            verdicts[slot].1 = Verdict::Fail { mismatches };
            signatures[slot].1 = signature;
        }
        // Cycle fields are plan arithmetic, identical on every die: each of
        // the seven wrappers (six cores and the wrapped system bus) sees
        // every data clock of the three steps.
        let per_core_cycles = [
            "core1_cpu",
            "core2_dsp",
            "core3_sram",
            "core4_dma",
            "core5_subsystem",
            "core6_eeprom",
            "system_bus",
        ]
        .iter()
        .map(|c| (c.to_string(), 12_463))
        .collect();
        SocTestReport {
            verdicts,
            total_cycles: 12_589,
            steps: 3,
            per_core_cycles,
            bus_cycles: 63_396,
            signatures,
        }
    }
}

fn figure1_plan() -> (casbus_soc::SocDescription, CompiledProgram) {
    let soc = catalog::figure1_soc();
    let plan = CompiledProgram::compile(&soc, 8, packed_schedule(&soc, 8).expect("schedule"))
        .expect("plan");
    (soc, plan)
}

#[test]
fn reference_and_compiled_engines_reproduce_the_pinned_reports() {
    let (soc, plan) = figure1_plan();
    for die in dies() {
        let expected = die.report();
        assert_eq!(
            expected.all_pass(),
            die.fault.is_none(),
            "every pinned defect is detected"
        );
        let fresh = || {
            let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
            if let Some(fault) = &die.fault {
                fault.apply(&mut sim).expect("inject");
            }
            sim
        };
        let reference = run_program_reference(&mut fresh(), plan.program()).expect("reference");
        assert_eq!(reference, expected, "reference, {:?}", die.fault);
        let compiled = CompiledEngine::new()
            .run(&mut fresh(), plan.program())
            .expect("compiled");
        assert_eq!(compiled, expected, "compiled, {:?}", die.fault);
    }
}

#[test]
fn packed_engine_reproduces_the_pinned_reports() {
    let (soc, plan) = figure1_plan();
    let engine = PackedDeviceEngine::compile(
        &Arc::new(soc),
        &Arc::new(plan),
        &Arc::new(RouteTableCache::new()),
    )
    .expect("packed engine");
    let dies = dies();
    let members = dies
        .iter()
        .enumerate()
        .map(|(id, die)| (id as u64, die.fault.clone()))
        .collect();
    let reports = engine.run_cohort(members).expect("cohort");
    for (device, die) in reports.iter().zip(&dies) {
        assert!(
            die.fault
                .as_ref()
                .is_none_or(|fault| engine.fault_packable(fault)),
            "every pinned defect rides a lane"
        );
        assert_eq!(device.report, die.report(), "packed, {:?}", die.fault);
    }
}

/// The healthy Figure-1 die under `FleetRunner::searched(figure1, 8,
/// SearchBudget::smoke())`, the plan of the flagship lot: two steps whose
/// sessions start in a different order than `packed_schedule`'s.
fn searched_healthy_report() -> SocTestReport {
    let order = [
        "core1_cpu",
        "core2_dsp",
        "core3_sram",
        "core6_eeprom",
        "core4_dma",
        "core5_subsystem",
    ];
    let per_core_cycles = [
        "core1_cpu",
        "core2_dsp",
        "core3_sram",
        "core4_dma",
        "core5_subsystem",
        "core6_eeprom",
        "system_bus",
    ]
    .iter()
    .map(|c| (c.to_string(), 12_463))
    .collect();
    SocTestReport {
        verdicts: order
            .iter()
            .map(|c| (c.to_string(), Verdict::Pass))
            .collect(),
        total_cycles: 12_547,
        steps: 2,
        per_core_cycles,
        bus_cycles: 63_396,
        signatures: order.iter().map(|c| (c.to_string(), healthy(c))).collect(),
    }
}

#[test]
fn reference_and_compiled_engines_reproduce_the_searched_plan_report() {
    let soc = catalog::figure1_soc();
    let runner = FleetRunner::searched(&soc, 8, SearchBudget::smoke()).expect("searched runner");
    let program = runner.plan().program();
    let expected = searched_healthy_report();
    let fresh = || SocSimulator::new(&soc, 8).expect("simulator");
    let reference = run_program_reference(&mut fresh(), program).expect("reference");
    assert_eq!(reference, expected, "reference");
    let compiled = CompiledEngine::new()
        .run(&mut fresh(), program)
        .expect("compiled");
    assert_eq!(compiled, expected, "compiled");
}
