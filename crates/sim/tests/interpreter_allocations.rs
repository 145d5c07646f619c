//! Heap allocations of the bit-serial interpreter, counted by a global
//! allocator. The interpreter keeps its per-cycle state (bus, per-CAS core
//! inputs, wrapper parallel inputs, retiming registers) in buffers the
//! simulator owns, the core models clock into caller buffers, and each
//! lane streams its plan and clocks its golden model in lockstep, so a data
//! clock through an all-BYPASS chain allocates nothing and a whole
//! reference run allocates far less than once per cycle: per step (lanes,
//! plans, golden models, streams) and per BIST pattern (the MISR's
//! signature), not per clock.
//!
//! Counts are kept per thread (the test harness runs tests on several
//! threads, and the searched runner spawns workers), and only while the
//! calling thread has counting switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use casbus::TamConfiguration;
use casbus_controller::SearchBudget;
use casbus_p1500::WrapperInstruction;
use casbus_sim::{run_program_reference, ClockKind, FleetRunner, SocSimulator};
use casbus_soc::catalog;
use casbus_tpg::BitVec;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator can run while a thread's locals are being
    // torn down.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping touches only `const`-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations (fresh blocks and
/// reallocations) it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

#[test]
fn bypass_data_clocks_allocate_nothing() {
    let soc = catalog::figure1_soc();
    let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
    let cas_count = sim.tam().cas_count();
    sim.configure(
        &TamConfiguration::all_bypass(cas_count),
        &vec![WrapperInstruction::Bypass; cas_count],
    )
    .expect("configure");
    let bus: BitVec = "10110010".parse().expect("bits");
    let kinds = vec![ClockKind::Idle; cas_count];
    let (ones, allocations) = counted(|| {
        let mut ones = 0;
        for _ in 0..1_000 {
            ones += sim.data_clock(&bus, &kinds).expect("clock").count_ones();
        }
        ones
    });
    assert_eq!(ones, 1_000 * bus.count_ones(), "BYPASS is transparent");
    assert_eq!(allocations, 0, "1 000 BYPASS data clocks allocated");
}

#[test]
fn reference_run_of_the_searched_plan_allocates_less_than_once_per_cycle() {
    let soc = catalog::figure1_soc();
    let runner = FleetRunner::searched(&soc, 8, SearchBudget::smoke()).expect("searched runner");
    let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
    let (report, allocations) =
        counted(|| run_program_reference(&mut sim, runner.plan().program()).expect("reference"));
    assert!(report.all_pass(), "{report}");
    assert_eq!(report.total_cycles, 12_547);
    let per_cycle = allocations as f64 / report.total_cycles as f64;
    assert!(
        per_cycle <= 0.5,
        "{allocations} allocations over {} cycles: {per_cycle:.2} per cycle",
        report.total_cycles
    );
}

#[test]
fn each_configuration_allocates_a_bounded_amount() {
    let soc = catalog::figure1_soc();
    let runner = FleetRunner::searched(&soc, 8, SearchBudget::smoke()).expect("searched runner");
    let mut sim = SocSimulator::new(&soc, 8).expect("simulator");
    for (index, step) in runner.plan().program().steps().iter().enumerate() {
        let ((), allocations) = counted(|| {
            sim.configure(&step.configuration, &step.wrapper_instructions)
                .expect("configure");
        });
        assert!(
            allocations <= 48,
            "step {index}: configure allocated {allocations} times"
        );
    }
}
