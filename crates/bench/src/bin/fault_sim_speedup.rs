//! Serial vs packed (PPSFP) fault-simulation speedup over Table-1 CASes.
//!
//! Grades the same pseudo-random pattern set with both engines, checks the
//! coverages are bit-identical, and records wall-clock times plus the
//! speedup ratio to stdout and to `BENCH_fault_sim.json` at the workspace
//! root (machine-readable, for tracking across commits).
//!
//! ```text
//! cargo run --release -p casbus-bench --bin fault_sim_speedup
//! ```

use std::time::Duration;

use casbus::SchemeSet;
use casbus_bench::{best_of, hardware_threads, json_header, PAPER_TABLE1};
use casbus_netlist::{fault, synth, Netlist};
use casbus_tpg::BitVec;

/// Sequence count and depth used at every size.
const COUNT: usize = 8;
const DEPTH: usize = 6;
/// The most timed runs behind one figure (the packed engine's best-of).
const REPEATS: usize = 5;

fn sequences(inputs: usize, count: usize, depth: usize) -> Vec<Vec<BitVec>> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..count)
        .map(|_| {
            (0..depth)
                .map(|_| {
                    (0..inputs)
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            state >> 62 & 1 == 1
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

struct Row {
    n: usize,
    p: usize,
    gates: usize,
    faults: usize,
    serial: Duration,
    packed: Duration,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.packed.as_secs_f64().max(1e-9)
    }
}

fn measure(netlist: &Netlist, n: usize, p: usize) -> Row {
    let inputs = netlist.inputs().len();
    let seqs = sequences(inputs, COUNT, DEPTH);
    let (packed_t, packed) = best_of(REPEATS, Duration::from_secs(2), || {
        fault::fault_simulate(netlist, &seqs).expect("valid netlist")
    });
    let (serial_t, serial) = best_of(3, Duration::from_secs(10), || {
        fault::fault_simulate_serial(netlist, &seqs).expect("valid netlist")
    });
    assert_eq!(packed, serial, "engines disagree at N={n} P={p}");
    Row {
        n,
        p,
        gates: netlist.gate_count(),
        faults: serial.total,
        serial: serial_t,
        packed: packed_t,
    }
}

fn main() {
    let threads = hardware_threads();
    println!("Fault-simulation engine comparison ({COUNT} sequences x {DEPTH} cycles, {threads} threads)");
    println!();
    println!(
        "{:>2} {:>2} | {:>6} {:>7} | {:>12} {:>12} {:>9}",
        "N", "P", "gates", "faults", "serial", "packed", "speedup"
    );
    println!("{:-<6}+{:-<16}+{:-<36}", "", "", "");
    let mut rows = Vec::new();
    for paper in PAPER_TABLE1.iter().filter(|r| {
        matches!(
            (r.n, r.p),
            (3, 1) | (4, 2) | (5, 3) | (6, 3) | (6, 5) | (8, 4)
        )
    }) {
        let set = SchemeSet::enumerate(paper.geometry()).expect("in budget");
        let netlist = synth::synthesize_cas(&set);
        let row = measure(&netlist, paper.n, paper.p);
        println!(
            "{:>2} {:>2} | {:>6} {:>7} | {:>10.2}ms {:>10.2}ms {:>8.1}x",
            row.n,
            row.p,
            row.gates,
            row.faults,
            row.serial.as_secs_f64() * 1e3,
            row.packed.as_secs_f64() * 1e3,
            row.speedup()
        );
        rows.push(row);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"p\": {}, \"gates\": {}, \"faults\": {}, \
                 \"sequences\": {COUNT}, \"depth\": {DEPTH}, \
                 \"serial_ms\": {:.3}, \"packed_ms\": {:.3}, \"speedup\": {:.2}}}",
                r.n,
                r.p,
                r.gates,
                r.faults,
                r.serial.as_secs_f64() * 1e3,
                r.packed.as_secs_f64() * 1e3,
                r.speedup()
            )
        })
        .collect();
    let json = format!(
        "{}  \"engines\": [\"serial\", \"packed_ppsfp_threaded\"],\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_header("fault_simulation", false, REPEATS),
        json_rows.join(",\n")
    );
    let path = "BENCH_fault_sim.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
