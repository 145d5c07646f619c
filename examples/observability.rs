//! End-to-end observability demo on the paper's Figure-1 SoC: a traced,
//! probed and metered run producing a GTKWave-viewable VCD waveform, a
//! JSONL + Chrome-trace event log and a metrics report — then *verifying*
//! every artifact in-process with `casbus_obs::vcd_check` and the trace
//! API, so CI can run this binary as a self-check without external tools.
//!
//! Run with: `cargo run --example observability [-- --trace-dir DIR]`
//!
//! Artifacts written to `DIR` (default `target/observability`):
//!
//! * `figure1.vcd` — bus wires, controller phase, per-CAS mode/scheme and
//!   per-wrapper WIR/control, cycle-accurate.
//! * `trace.jsonl` / `trace_chrome.json` — the simulator's `configure`
//!   span for each program step (its CONFIGURATION phase), one span per
//!   core's session (from the start of its first step to the end of its
//!   last: a session still running when its step ends carries into the
//!   next), PPSFP grading events.
//! * `metrics.txt` / `metrics.json` — the full run-metrics registry.

use std::cell::RefCell;
use std::rc::Rc;

use casbus_suite::casbus::{CasGeometry, Tam};
use casbus_suite::casbus_controller::{schedule, TestProgram};
use casbus_suite::casbus_netlist::atpg::{self, AtpgConfig};
use casbus_suite::casbus_netlist::crosspoint::synthesize_crosspoint_cas;
use casbus_suite::casbus_netlist::PackedEngine;
use casbus_suite::casbus_obs::vcd::Wire4;
use casbus_suite::casbus_obs::{vcd_check, MemorySink, MetricsRegistry, VcdWriter};
use casbus_suite::casbus_sim::{report, SocSimulator};
use casbus_suite::casbus_soc::catalog;

const BUS_WIDTH: usize = 4;

fn trace_dir() -> std::path::PathBuf {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace-dir" {
            if let Some(dir) = args.next() {
                return dir.into();
            }
        }
    }
    std::path::PathBuf::from("target/observability")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;

    let soc = catalog::figure1_soc();
    let sched = schedule::packed_schedule(&soc, BUS_WIDTH)?;
    let tam = Tam::new(&soc, BUS_WIDTH)?;
    let program = TestProgram::from_schedule(&tam, &soc, &sched)?;

    let metrics = MetricsRegistry::new();
    let sink = MemorySink::new();
    sched.record_metrics(&metrics);

    // --- 1. Simulator run with a VCD probe: cycle-accurate waveforms of the
    // serial configuration shifts and the concurrent test waves. The
    // simulator is the test controller: it sequences every step's
    // CONFIGURATION and TEST phases and counts their cycles. The probe keeps
    // the run on the cycle-by-cycle interpreter, and on four wires
    // `core2_dsp`'s session carries across two reconfigurations.
    let vcd = Rc::new(RefCell::new(VcdWriter::new("1ns")));
    let mut sim = SocSimulator::new(&soc, BUS_WIDTH)?;
    sim.set_trace(sink.clone());
    sim.attach_probe(Box::new(Rc::clone(&vcd)));
    let outcome = report::run_program(&mut sim, &program)?;
    sim.export_metrics(&metrics);
    assert!(outcome.all_pass(), "fault-free Figure-1 SoC must pass");

    // --- 2. PPSFP fault grading, instrumented: ATPG on a synthesized
    // crosspoint CAS with the same sink and registry.
    let cas_netlist = synthesize_crosspoint_cas(CasGeometry::new(4, 2)?);
    let engine = PackedEngine::new(&cas_netlist)?
        .with_trace(sink.clone())
        .with_metrics(metrics.clone());
    let patterns = atpg::generate_patterns_with_engine(&engine, &AtpgConfig::default());
    let coverage = engine.fault_coverage(&patterns.sequences);

    // --- Write artifacts.
    let vcd_text = vcd.borrow_mut().render();
    std::fs::write(dir.join("figure1.vcd"), &vcd_text)?;
    std::fs::write(dir.join("trace.jsonl"), sink.jsonl())?;
    std::fs::write(dir.join("trace_chrome.json"), sink.chrome_trace())?;
    std::fs::write(dir.join("metrics.txt"), format!("{metrics}"))?;
    std::fs::write(dir.join("metrics.json"), metrics.to_json())?;

    // --- Self-check 1: the VCD parses back, is well-formed, has the full
    // scope tree, and bus wire 0 actually toggles during CONFIGURATION
    // (the serial instruction stream of Fig. 4).
    let doc = vcd_check::parse(&vcd_text)?;
    doc.check_well_formed()?;
    let scopes = doc.scope_paths();
    for expected in ["figure1.controller", "figure1.bus"] {
        assert!(
            scopes.iter().any(|s| s == expected),
            "missing VCD scope {expected}; got {scopes:?}"
        );
    }
    assert!(
        scopes.iter().any(|s| s.starts_with("figure1.cas0_"))
            && scopes.iter().any(|s| s.starts_with("figure1.wrapper0_")),
        "missing per-CAS / per-wrapper scopes; got {scopes:?}"
    );
    let config_shifts = doc
        .changes_of("figure1.bus.wire0")
        .iter()
        .filter(|c| {
            doc.value_at("figure1.controller.phase", c.time) == Some(vec![Wire4::V0, Wire4::V0])
        })
        .count();
    assert!(
        config_shifts > 0,
        "bus wire 0 must toggle during CONFIGURATION phases"
    );

    // --- Self-check 2: one configuration span per program step, and one
    // session span per core, from the configuration of the step its session
    // starts in to the end of the step it ends in.
    let events = sink.events();
    let step_starts: Vec<u64> = events
        .iter()
        .filter(|e| e.cat == "sim" && e.name == "configure")
        .map(|e| e.ts)
        .collect();
    let steps = program.steps().len();
    assert_eq!(
        step_starts.len(),
        steps,
        "expected one configure span for each of {steps} steps"
    );
    let step_ends: Vec<u64> = step_starts[1..]
        .iter()
        .copied()
        .chain([sim.cycles()])
        .collect();
    let mut carried = false;
    for core in soc.cores() {
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "session" && e.name == core.name())
            .collect();
        assert_eq!(spans.len(), 1, "one session span for core {}", core.name());
        let cas = tam.cas_for_core(core.name()).expect("tested core");
        let runs_in: Vec<usize> = (0..steps)
            .filter(|&k| {
                program.steps()[k]
                    .configuration
                    .cores_under_test()
                    .contains(&cas)
            })
            .collect();
        let (first, last) = (runs_in[0], runs_in[runs_in.len() - 1]);
        assert_eq!(
            (spans[0].ts, spans[0].ts + spans[0].dur),
            (step_starts[first], step_ends[last]),
            "session span of {} covers steps {first}..={last}",
            core.name()
        );
        carried |= last > first;
    }
    assert!(carried, "a session carries across a reconfiguration");

    // --- Self-check 3: the metrics registry agrees with the components,
    // and the run took the cycles the program books: each step's
    // configuration shift and update pulse, then `duration + 1` data clocks.
    assert_eq!(metrics.counter("sim.cycles.total"), sim.cycles());
    assert_eq!(
        metrics.counter("sim.cycles.total"),
        program.booked_cycles(&tam)
    );
    assert_eq!(
        metrics.counter("sim.cycles.total"),
        metrics.counter("sim.cycles.config") + metrics.counter("sim.cycles.test"),
    );
    assert_eq!(metrics.counter("ppsfp.faults.total"), coverage.total as u64);
    assert_eq!(
        metrics.counter("ppsfp.faults.detected"),
        coverage.detected as u64
    );

    // --- Self-check 4: the compiled engine's fast path traces the same
    // events, byte for byte, as the reference interpreter.
    let traced = |run: fn(&mut SocSimulator, &TestProgram) -> Result<_, _>| {
        let sink = MemorySink::new();
        let mut sim = SocSimulator::new(&soc, BUS_WIDTH)?;
        sim.set_trace(sink.clone());
        run(&mut sim, &program)?;
        Ok::<_, Box<dyn std::error::Error>>(sink.jsonl())
    };
    assert_eq!(
        traced(report::run_program)?,
        traced(report::run_program_reference)?,
        "compiled and reference traces differ"
    );

    println!("{outcome}");
    println!("{metrics}");
    println!(
        "ATPG on {}: {:.1}% of {} faults, {} sequences",
        cas_netlist.name(),
        100.0 * patterns.coverage(),
        patterns.total,
        patterns.sequences.len()
    );
    println!(
        "wrote figure1.vcd ({} changes), trace.jsonl ({} events), metrics.json to {}",
        doc.change_count(),
        events.len(),
        dir.display()
    );
    println!("all observability self-checks passed");
    Ok(())
}
