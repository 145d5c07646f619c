//! Bit-serial reference vs compiled word-level session engine throughput.
//!
//! Executes complete scheduled test programs (packed schedules — concurrent
//! waves, dynamic reconfiguration between waves) on Table-1-sized SoCs with
//! two engines, both on one thread:
//!
//! * the bit-serial reference interpreter
//!   ([`casbus_sim::run_program_reference`]), and
//! * the compiled word-level engine ([`casbus_sim::CompiledEngine`]).
//!
//! The two reports are asserted bit-identical before any time is recorded,
//! so the numbers below always describe *equivalent* work.
//! Results go to stdout and to `BENCH_soc_sim.json` at the workspace root
//! (machine-readable, for tracking across commits).
//!
//! ```text
//! cargo run --release -p casbus-bench --bin soc_sim_throughput
//! ```
//!
//! Set `CASBUS_BENCH_SMOKE=1` for a fast CI configuration (fewer repeat
//! runs, small SoCs only).

use std::time::Duration;

use casbus::Tam;
use casbus_bench::{best_of, env_flag, hardware_threads, json_header};
use casbus_controller::{schedule, TestProgram};
use casbus_sim::{run_program_reference, CompiledEngine, SocSimulator, SocTestReport};
use casbus_soc::{catalog, SocDescription};

struct Row {
    soc: &'static str,
    n: usize,
    cores: usize,
    test_cycles: u64,
    reference: Duration,
    compiled: Duration,
}

impl Row {
    fn speedup_compiled(&self) -> f64 {
        self.reference.as_secs_f64() / self.compiled.as_secs_f64().max(1e-9)
    }
}

fn program_for(soc: &SocDescription, n: usize) -> TestProgram {
    let tam = Tam::new(soc, n).expect("bus wide enough");
    let sched = schedule::packed_schedule(soc, n).expect("schedule");
    TestProgram::from_schedule(&tam, soc, &sched).expect("program")
}

/// The most timed runs behind one figure (the compiled engine's best-of).
fn repeats(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        5
    }
}

fn measure(name: &'static str, soc: &SocDescription, n: usize, smoke: bool) -> Row {
    let program = program_for(soc, n);
    let runs = repeats(smoke);
    let budget = Duration::from_secs(if smoke { 2 } else { 20 });

    let run_reference = || -> SocTestReport {
        let mut sim = SocSimulator::new(soc, n).expect("simulator");
        run_program_reference(&mut sim, &program).expect("reference run")
    };
    let run_compiled = || -> SocTestReport {
        let mut sim = SocSimulator::new(soc, n).expect("simulator");
        CompiledEngine::new()
            .run(&mut sim, &program)
            .expect("compiled run")
    };

    let (compiled_t, compiled) = best_of(runs, budget, run_compiled);
    let (reference_t, reference) = best_of(runs.min(3), budget, run_reference);
    assert_eq!(compiled, reference, "compiled engine diverged on {name}");
    assert!(reference.all_pass(), "fault-free {name} must pass");

    Row {
        soc: name,
        n,
        cores: soc.cores().len(),
        test_cycles: reference.total_cycles,
        reference: reference_t,
        compiled: compiled_t,
    }
}

fn main() {
    let smoke = env_flag("CASBUS_BENCH_SMOKE");
    let hardware_threads = hardware_threads();
    println!(
        "SoC session-engine comparison (packed schedules, one thread, {hardware_threads} \
         hardware threads{})",
        if smoke { ", smoke" } else { "" }
    );
    println!();
    println!(
        "{:<14} {:>3} {:>5} {:>10} | {:>12} {:>12} | {:>8}",
        "soc", "N", "cores", "cycles", "reference", "compiled", "speedup"
    );
    println!("{:-<36}+{:-<27}+{:-<9}", "", "", "");

    let mut targets: Vec<(&'static str, SocDescription, usize)> = vec![
        ("figure1", catalog::figure1_soc(), 8),
        ("figure2d_hier", catalog::figure2d_hierarchical_soc(), 4),
    ];
    if !smoke {
        targets.push(("itc02_like", catalog::itc02_like_soc(), 16));
    }

    let mut rows = Vec::new();
    for (name, soc, n) in &targets {
        let row = measure(name, soc, *n, smoke);
        println!(
            "{:<14} {:>3} {:>5} {:>10} | {:>10.2}ms {:>10.2}ms | {:>7.1}x",
            row.soc,
            row.n,
            row.cores,
            row.test_cycles,
            row.reference.as_secs_f64() * 1e3,
            row.compiled.as_secs_f64() * 1e3,
            row.speedup_compiled(),
        );
        rows.push(row);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"soc\": \"{}\", \"n\": {}, \"cores\": {}, \"test_cycles\": {}, \
                 \"reference_ms\": {:.3}, \"compiled_ms\": {:.3}, \"speedup_compiled\": {:.2}}}",
                r.soc,
                r.n,
                r.cores,
                r.test_cycles,
                r.reference.as_secs_f64() * 1e3,
                r.compiled.as_secs_f64() * 1e3,
                r.speedup_compiled(),
            )
        })
        .collect();
    let json = format!(
        "{}  \"engines\": [\"reference_bit_serial\", \"compiled_word_level\"],\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_header("soc_session_simulation", smoke, repeats(smoke)),
        json_rows.join(",\n")
    );
    let path = "BENCH_soc_sim.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
