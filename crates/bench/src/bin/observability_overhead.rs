//! Instrumentation overhead of the observability layer on the hot paths it
//! touches: the bit-parallel (PPSFP) fault-simulation engine, the
//! cycle-accurate SoC simulator, and fleet batch serving under a live
//! [`FleetMonitor`].
//!
//! Each workload runs several ways — instrumentation disabled (the default
//! `NullSink` / no probe / no monitor), with a full JSONL event trace, with
//! a cycle-accurate VCD probe (SoC simulator), and with streaming health
//! snapshots or per-device flight recorders (fleet) — and reports the
//! best-of-N wall-clock time plus the overhead relative to the disabled
//! baseline, to stdout and to `BENCH_observability.json` at the workspace
//! root. A fleet lot takes a few milliseconds, so its rows record the
//! median and quartiles of alternating rounds instead, and name an
//! overhead only where the medians differ by more than the baseline's
//! interquartile range; otherwise the overhead is `unresolved`.
//!
//! The contract stated in `casbus-obs` is that the *disabled* configuration
//! costs one predictable branch per coarse event; this binary is the
//! regression check behind it. A JSONL trace keeps the SoC run on the
//! compiled engine (only the VCD probe forces the bit-serial interpreter).
//! A monitored lot runs the same packed jobs as the unmonitored baseline,
//! so the `fleet_monitor` rows measure watching: `snapshots` the serving
//! thread's ticks and the per-job hooks, `recorder` those plus replaying
//! each defective die into its flight recorder once the lot is served.
//! Set `CASBUS_BENCH_SMOKE=1` for the fast CI configuration (a 64-device
//! lot instead of 256).
//!
//! ```text
//! cargo run --release -p casbus-bench --bin observability_overhead
//! ```

use std::time::{Duration, Instant};

use casbus::{CasGeometry, Tam};
use casbus_bench::{best_of, env_flag, json_header, Spread};
use casbus_controller::{schedule, TestProgram};
use casbus_netlist::crosspoint::synthesize_crosspoint_cas;
use casbus_netlist::fault::enumerate_faults;
use casbus_netlist::PackedEngine;
use casbus_obs::{MemorySink, MetricsRegistry, VcdWriter};
use casbus_sim::{report, FleetMonitor, FleetRunner, MonitorConfig, SocSimulator, VariationSpec};
use casbus_soc::catalog;
use casbus_tpg::BitVec;

const COUNT: usize = 8;
const DEPTH: usize = 6;
const RUNS: usize = 7;
/// Interleaved rounds of the sub-millisecond PPSFP workload, at most.
const PPSFP_ROUNDS: usize = 200;
/// Alternating rounds of the three fleet configurations, at most.
const FLEET_ROUNDS: usize = 200;
const BUDGET: Duration = Duration::from_secs(5);
const FLEET_BUDGET: Duration = Duration::from_secs(45);

fn sequences(inputs: usize) -> Vec<Vec<BitVec>> {
    let mut state = 0x1234_5678_9abc_def0u64;
    (0..COUNT)
        .map(|_| {
            (0..DEPTH)
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
    workload: &'static str,
    config: &'static str,
    best: Duration,
    /// The first quartile, median and third quartile in milliseconds, for
    /// a row timed in rounds.
    quartiles: Option<[f64; 3]>,
    /// `None` when the row's spread cannot resolve an overhead.
    overhead_pct: Option<f64>,
    events: usize,
}

fn pct(base: Duration, measured: Duration) -> f64 {
    (measured.as_secs_f64() / base.as_secs_f64().max(1e-9) - 1.0) * 100.0
}

/// The first quartile, median and third quartile of `samples` in
/// milliseconds; the quartiles are the medians of the lower and upper
/// halves, each holding the median when the count is odd.
fn quartiles(samples: &[Duration]) -> [f64; 3] {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let half = ms.len().div_ceil(2);
    let median = |part: &[f64]| Spread::of(part).median;
    [
        median(&ms[..half]),
        median(&ms),
        median(&ms[ms.len() - half..]),
    ]
}

/// The overhead of `measured` over `base` in percent of the base median,
/// or `None` when the medians differ by no more than the base's
/// interquartile range: the rounds cannot tell the two apart.
fn resolved_overhead(base: [f64; 3], measured: [f64; 3]) -> Option<f64> {
    let difference = measured[1] - base[1];
    (difference.abs() > base[2] - base[0]).then(|| difference / base[1] * 100.0)
}

/// `overhead` as printed: a signed percentage, or `unresolved`.
fn overhead_text(overhead: Option<f64>) -> String {
    overhead.map_or_else(|| "unresolved".to_owned(), |pct| format!("{pct:+.1}%"))
}

fn ppsfp_rows(rows: &mut Vec<Row>) {
    // Table-1's N=6 P=3 crosspoint CAS: large enough that grading dominates
    // and per-event costs are visible, small enough to iterate.
    let netlist = synthesize_crosspoint_cas(CasGeometry::new(6, 3).expect("valid"));
    let seqs = sequences(netlist.inputs().len());
    let faults = enumerate_faults(&netlist).len();

    // Single-threaded engines: partitioning noise would drown a 2% signal.
    // Sub-millisecond runs are hostage to scheduler jitter, so the two
    // configs are interleaved over many rounds and best-of is taken per
    // config — a block of one config can land in a noisy stretch and fake
    // a 2x "overhead" otherwise.
    let disabled = PackedEngine::new(&netlist).expect("valid").with_threads(1);
    let sink = MemorySink::new();
    let traced = PackedEngine::new(&netlist)
        .expect("valid")
        .with_threads(1)
        .with_trace(sink.clone());
    let mut base = Duration::MAX;
    let mut jsonl = Duration::MAX;
    let mut render = Duration::MAX;
    let started = Instant::now();
    for round in 0..PPSFP_ROUNDS {
        if round > 0 && started.elapsed() > BUDGET {
            break;
        }
        let t0 = Instant::now();
        disabled.fault_coverage(&seqs);
        base = base.min(t0.elapsed());

        sink.clear();
        let t0 = Instant::now();
        traced.fault_coverage(&seqs);
        jsonl = jsonl.min(t0.elapsed());
        // JSONL rendering is a post-run export, not part of the traced
        // workload; timing it separately keeps this row an honest measure
        // of in-loop recording cost. (Earlier recordings of this workload
        // folded the render into the timed region — see EXPERIMENTS.md §P3.)
        let t0 = Instant::now();
        let _ = sink.jsonl().len();
        render = render.min(t0.elapsed());
    }
    rows.push(Row {
        workload: "ppsfp_fault_coverage",
        config: "disabled",
        best: base,
        quartiles: None,
        overhead_pct: Some(0.0),
        events: 0,
    });
    rows.push(Row {
        workload: "ppsfp_fault_coverage",
        config: "jsonl",
        best: jsonl,
        quartiles: None,
        overhead_pct: Some(pct(base, jsonl)),
        events: sink.len(),
    });
    println!(
        "ppsfp ({faults} faults): disabled {:.3}ms, jsonl {:.3}ms ({:+.1}%), export {:.3}ms",
        base.as_secs_f64() * 1e3,
        jsonl.as_secs_f64() * 1e3,
        pct(base, jsonl),
        render.as_secs_f64() * 1e3,
    );
}

fn soc_rows(rows: &mut Vec<Row>) {
    let soc = catalog::figure1_soc();
    let n = 4;
    let sched = schedule::packed_schedule(&soc, n).expect("schedulable");
    let tam = Tam::new(&soc, n).expect("valid");
    let program = TestProgram::from_schedule(&tam, &soc, &sched).expect("programmable");

    let (base, _) = best_of(RUNS, BUDGET, || {
        let mut sim = SocSimulator::new(&soc, n).expect("valid");
        report::run_program(&mut sim, &program).expect("runs")
    });
    rows.push(Row {
        workload: "soc_run_program",
        config: "disabled",
        best: base,
        quartiles: None,
        overhead_pct: Some(0.0),
        events: 0,
    });

    let sink = MemorySink::new();
    let (jsonl, _) = best_of(RUNS, BUDGET, || {
        sink.clear();
        let mut sim = SocSimulator::new(&soc, n).expect("valid");
        sim.set_trace(sink.clone());
        report::run_program(&mut sim, &program).expect("runs");
        sink.jsonl().len()
    });
    rows.push(Row {
        workload: "soc_run_program",
        config: "jsonl",
        best: jsonl,
        quartiles: None,
        overhead_pct: Some(pct(base, jsonl)),
        events: sink.len(),
    });

    let (vcd, _) = best_of(RUNS, BUDGET, || {
        let writer = std::rc::Rc::new(std::cell::RefCell::new(VcdWriter::new("1ns")));
        let mut sim = SocSimulator::new(&soc, n).expect("valid");
        sim.attach_probe(Box::new(std::rc::Rc::clone(&writer)));
        report::run_program(&mut sim, &program).expect("runs");
        let rendered = writer.borrow_mut().render().len();
        rendered
    });
    rows.push(Row {
        workload: "soc_run_program",
        config: "vcd",
        best: vcd,
        quartiles: None,
        overhead_pct: Some(pct(base, vcd)),
        events: 0,
    });
    println!(
        "soc run_program: disabled {:.3}ms, jsonl {:.3}ms ({:+.1}%), vcd {:.3}ms ({:+.1}%)",
        base.as_secs_f64() * 1e3,
        jsonl.as_secs_f64() * 1e3,
        pct(base, jsonl),
        vcd.as_secs_f64() * 1e3,
        pct(base, vcd)
    );
}

fn fleet_rows(rows: &mut Vec<Row>, smoke: bool) {
    let fleet_size: u64 = if smoke { 64 } else { 256 };

    // The example lot: Figure-1 on an 8-wire bus with a 2% defect stamp.
    // Every config serves it packed; the recorder config also replays each
    // defective die.
    let soc = catalog::figure1_soc();
    let n = 8;
    let sched = schedule::packed_schedule(&soc, n).expect("schedulable");
    let spec = VariationSpec::new(2026, 0.02);

    let baseline = FleetRunner::new(&soc, n, sched.clone()).expect("valid");
    let snap_runner = FleetRunner::new(&soc, n, sched.clone()).expect("valid");
    let rec_runner = FleetRunner::new(&soc, n, sched).expect("valid");

    // Nothing drains the channel while the lot runs (the receiver is read
    // after the fact), so size it for the whole snapshot stream — a live
    // consumer like `examples/fleet.rs --monitor` gets by with the default.
    let deep_channel = MonitorConfig {
        channel_capacity: 1024,
        ..MonitorConfig::default()
    };

    // A lot takes milliseconds, so one sample of it is at the mercy of
    // host jitter: the three configs are timed in alternating rounds, so
    // machine-load drift hits all of them alike, and each config's rounds
    // are summarized by their median and quartiles. Each config keeps its
    // runner (and warm route cache) across rounds.
    let mut samples: [Vec<Duration>; 3] = Default::default();
    let mut snapshots = Vec::new();
    let mut snapshot_run = Duration::ZERO;
    let mut jobs = 0u64;
    let mut execs = 0u64;
    let mut dumps = 0usize;
    let mut defective = 0usize;
    let started = Instant::now();
    for round in 0..FLEET_ROUNDS {
        if round > 0 && started.elapsed() > FLEET_BUDGET {
            break;
        }

        let t0 = Instant::now();
        baseline.run(&spec, fleet_size).expect("runs");
        samples[0].push(t0.elapsed());

        // Snapshots on, flight recorders off: the live-dashboard state.
        let t0 = Instant::now();
        let (monitor, rx) = FleetMonitor::with_config(MonitorConfig {
            recorder_capacity: 0,
            ..deep_channel
        });
        let metrics = MetricsRegistry::new();
        snap_runner
            .run_monitored_with_metrics(&spec, fleet_size, &metrics, &monitor, |_| {})
            .expect("runs");
        snapshot_run = t0.elapsed();
        // The lot's pool jobs: its lane passes, its scalar fallbacks, and
        // one job per cohort for the healthy dies (every cohort of a 2%
        // lot holds some).
        jobs = [
            "fleet.packed.lane.passes",
            "fleet.packed.fallback.devices",
            "fleet.packed.cohorts",
        ]
        .iter()
        .map(|name| metrics.counter(name))
        .sum();
        execs = monitor
            .telemetry()
            .histogram("obs.pool.job.exec_us")
            .map_or(0, |h| h.count);
        samples[1].push(snapshot_run);
        snapshots = rx.try_iter().collect::<Vec<_>>();

        // Snapshots plus flight-recorder replays; every defective die
        // must leave a post-mortem dump behind.
        let t0 = Instant::now();
        let (monitor, _rx) = FleetMonitor::with_config(deep_channel);
        let fleet = rec_runner
            .run_monitored(&spec, fleet_size, &monitor)
            .expect("runs");
        samples[2].push(t0.elapsed());
        let recorded = monitor.dumps();
        for device in fleet.devices.iter().filter(|d| d.fault.is_some()) {
            assert!(
                recorded.iter().any(|x| x.device_id == device.device_id),
                "defective device {} left no flight-recorder dump",
                device.device_id
            );
        }
        dumps = recorded.len();
        defective = fleet.devices.iter().filter(|d| d.fault.is_some()).count();
    }
    let rounds = samples[0].len();
    let spreads = [0, 1, 2].map(|config| quartiles(&samples[config]));
    let [base, snap, rec] = spreads;

    let last = snapshots.last().expect("final snapshot");
    assert!(last.last, "the closing snapshot is flagged");
    assert_eq!(last.completed, fleet_size, "the closing snapshot is total");
    // Each serving job waits once and runs once. A packed lot runs two or
    // three jobs here, whose waits of a few microseconds can share a
    // bucket, so the digests are checked by their counts, not by their
    // spread.
    assert_eq!(
        last.queue_wait_us.count, jobs,
        "one queue wait per pool job: {}",
        last.queue_wait_us
    );
    assert_eq!(execs, jobs, "one execution time per pool job");
    // The thread that collects the reports ticks once per elapsed interval,
    // emitting one snapshot, plus the closing one, so the stream's length
    // follows the run's own wall time: at least half the intervals that fit
    // in it (a busy host, or a long batch of reports, delays a tick), never
    // more than fit.
    let periods = (snapshot_run.as_secs_f64() / deep_channel.interval.as_secs_f64()) as usize;
    assert!(
        (1 + periods / 2..=1 + periods).contains(&snapshots.len()),
        "a {:.1} ms monitored lot at a {:?} interval emitted {} snapshots, expected {}..={}",
        snapshot_run.as_secs_f64() * 1e3,
        deep_channel.interval,
        snapshots.len(),
        1 + periods / 2,
        1 + periods
    );
    assert!(defective > 0, "the 2% stamp marks at least one die");
    let (snap_overhead, rec_overhead) =
        (resolved_overhead(base, snap), resolved_overhead(base, rec));
    for (idx, config, overhead, events) in [
        (0, "disabled", Some(0.0), 0),
        (1, "snapshots", snap_overhead, snapshots.len()),
        (2, "recorder", rec_overhead, dumps),
    ] {
        rows.push(Row {
            workload: "fleet_monitor",
            config,
            best: samples[idx].iter().copied().min().expect("one round"),
            quartiles: Some(spreads[idx]),
            overhead_pct: overhead,
            events,
        });
    }

    let shown = |[q1, median, q3]: [f64; 3]| format!("{median:.3}ms [{q1:.3}, {q3:.3}]");
    println!(
        "fleet_monitor ({fleet_size} devices, {rounds} rounds, median [quartiles]): disabled {}, \
         snapshots {} ({}, {} snapshots), recorder {} ({}, {dumps} dumps / {defective} defective)",
        shown(base),
        shown(snap),
        overhead_text(snap_overhead),
        snapshots.len(),
        shown(rec),
        overhead_text(rec_overhead),
    );
}

fn main() {
    let smoke = env_flag("CASBUS_BENCH_SMOKE");
    let mut rows = Vec::new();
    ppsfp_rows(&mut rows);
    soc_rows(&mut rows);
    fleet_rows(&mut rows, smoke);

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let spread = r.quartiles.map_or_else(String::new, |[q1, median, q3]| {
                format!(", \"median_ms\": {median:.3}, \"quartiles_ms\": [{q1:.3}, {q3:.3}]")
            });
            let overhead = r
                .overhead_pct
                .map_or_else(|| "\"unresolved\"".to_owned(), |pct| format!("{pct:.2}"));
            format!(
                "    {{\"workload\": \"{}\", \"config\": \"{}\", \"best_ms\": {:.3}{spread}, \
                 \"overhead_pct\": {overhead}, \"events\": {}}}",
                r.workload,
                r.config,
                r.best.as_secs_f64() * 1e3,
                r.events
            )
        })
        .collect();
    let json = format!(
        "{}  \"configs\": \
         [\"disabled\", \"jsonl\", \"vcd\", \"snapshots\", \"recorder\"],\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        json_header("observability_overhead", smoke, PPSFP_ROUNDS),
        json_rows.join(",\n")
    );
    let path = "BENCH_observability.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
