//! Experiment C2 — the §4 claim that *"the test programmer can balance the
//! length of the scan chains within the test programs, in order to reduce
//! the test time"*.
//!
//! For a set of unbalanced scan cores, reports the per-core and SoC test
//! time before and after (i) balancing at fixed chain count and (ii)
//! re-partitioning to the wire count a wider CAS window grants.

use casbus_controller::balance;
use casbus_soc::{CoreDescription, TestMethod};

fn scan_core(name: &str, chains: Vec<usize>, patterns: usize) -> CoreDescription {
    CoreDescription::new(name, TestMethod::Scan { chains, patterns })
}

fn main() {
    println!("Scan-chain balancing (paper §4)");
    println!();
    let cores = [
        scan_core("modem", vec![310, 12, 44], 150),
        scan_core("gpu", vec![512, 256], 200),
        scan_core("mcu", vec![90, 88, 91, 7], 100),
        scan_core("already_ok", vec![64, 64, 63], 80),
    ];
    println!(
        "{:<12} {:>18} {:>10} | {:>18} {:>10} | {:>8}",
        "core", "chains", "cycles", "balanced", "cycles", "saved"
    );
    println!("{:-<43}+{:-<30}+{:-<9}", "", "", "");
    let mut before_total = 0u64;
    let mut after_total = 0u64;
    for core in &cores {
        let TestMethod::Scan { chains, patterns } = core.method() else {
            unreachable!("all cores are scan cores");
        };
        let balanced = balance::balance_chains(chains);
        let before = core.test_time();
        let after = scan_core(core.name(), balanced.clone(), *patterns).test_time();
        assert!(after <= before, "balancing must never slow a core down");
        before_total += before;
        after_total += after;
        println!(
            "{:<12} {:>18} {:>10} | {:>18} {:>10} | {:>7.1}%",
            core.name(),
            format!("{chains:?}"),
            before,
            format!("{balanced:?}"),
            after,
            (before - after) as f64 / before as f64 * 100.0
        );
    }
    println!(
        "\nSoC total (serial): {before_total} -> {after_total} cycles ({:.1}% saved)",
        (before_total - after_total) as f64 / before_total as f64 * 100.0
    );

    println!("\nRe-partitioning to wider CAS windows (modem core, 366 flops, 150 patterns):");
    println!("{:>7} {:>16} {:>10}", "wires", "chains", "cycles");
    let flops: usize = 310 + 12 + 44;
    for wires in 1..=8 {
        let chains = balance::repartition_flops(flops, wires);
        let cycles = scan_core("modem", chains.clone(), 150).test_time();
        println!("{:>7} {:>16} {:>10}", wires, format!("{chains:?}"), cycles);
    }
    println!("\nReading: equalizing chain lengths removes the long-chain penalty,");
    println!("and granting more wires (bigger P) divides the shift depth further —");
    println!("exactly the optimization loop the paper assigns to the test programmer.");
}
