//! Lot-level serving benchmark for the CAS-BUS fleet and floor.
//!
//! One process serves one workload as a closed loop: it builds a lot,
//! serves it, checks every device report against an oracle, and only then
//! starts the next lot, for `--seconds` seconds. It prints one line per
//! metric and, last, one JSON object:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1_searched_lot --seed 7 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` follows every
//! untraced lot with a replay of it through the same public calls, a span
//! around each, asserts the replayed reports equal the untraced ones, and
//! reports the per-layer metrics and the layer ledger.
//! See `README.md` next to this file for the workloads and metrics.

mod host;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use casbus::RouteTableCache;
use casbus_controller::schedule::packed_schedule;
use casbus_controller::search::SearchBudget;
use casbus_controller::CompiledProgram;
use casbus_sim::{run_program_reference, CompiledEngine, FleetRunner, SimError, SocSimulator};
use casbus_soc::SocDescription;

use crate::replay::{ReplayLot, Tracer};
use crate::spans::{wall_shares, Span};
use crate::stats::{iqr_share, median, tail, TAIL_MIN_BEYOND};
use crate::workloads::{
    lot_seeds, run_lot, Inputs, LotSample, Oracle, Workload, FIG1_N, FLOOR_LOTS, LOT_DEVICES,
    PATTERNS,
};

const USAGE: &str =
    "usage: perfbench --workload <fig1_searched_lot|fig1_monitored_lot|mixed_floor> \
[--seed N] [--search-seed N] [--seconds N] [--trace 0|1]";

/// Variation seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 7;

/// Repetitions of the per-die probes (route compile, configuration shift,
/// gate engines); medians are reported.
const PROBE_REPS: usize = 10;

/// Back-to-back pairs behind each by-difference layer (monitor, tenancy).
const SERVE_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    search_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut search_seed = SearchBudget::smoke().seed;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--search-seed" => search_seed = number()?,
            "--seconds" => seconds = number()?.max(1) as f64,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        search_seed,
        seconds,
        trace,
    })
}

/// One reported figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            note: note.into(),
        }
    }
}

/// The untraced lots of one run and their oracle verdicts.
struct Measured {
    samples: Vec<LotSample>,
    /// Peak resident set after the first lot, MiB.
    first_lot_rss_mib: f64,
    /// The oracle of each defect pattern.
    oracles: Vec<Oracle>,
    attempted: u64,
    failed: u64,
}

/// Serves lots back to back for `seconds` after one untimed warm-up lot,
/// lot `i` on defect pattern `i % PATTERNS`, until every pattern has had a
/// lot. The host probe runs, untimed, right before each lot. Each lot is
/// checked against its pattern's oracle and handed to `after_lot` (the
/// traced run replays a lot there, so both kinds of lot see the same host
/// conditions). Only the last lot keeps its reports.
fn measure(
    workload: Workload,
    patterns: &[Inputs],
    seconds: f64,
    mut after_lot: impl FnMut(&LotSample) -> Result<(), String>,
) -> Result<Measured, String> {
    let warm = run_lot(workload, &patterns[0]);
    if let Some(err) = &warm.error {
        return Err(format!("warm-up lot failed: {err}"));
    }
    // Read before the oracle's own runs and the timed lots: later lots only
    // add allocator noise (a new thread arena can add 2 MiB at random).
    let first_lot_rss_mib = peak_rss_mib().unwrap_or(0.0);
    let oracles = patterns
        .iter()
        .map(|inputs| Oracle::build(workload, inputs, warm.schedule.as_ref()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| format!("oracle failed: {err}"))?;
    let mut attempted = workload.devices();
    let mut failed = oracles[0].errors(&warm);
    let mut samples: Vec<LotSample> = Vec::new();
    let started = Instant::now();
    while samples.len() < patterns.len() || started.elapsed().as_secs_f64() < seconds {
        let pattern = samples.len() % patterns.len();
        let host_s = host::probe_s(patterns[0].threads);
        let mut sample = run_lot(workload, &patterns[pattern]);
        sample.pattern = pattern;
        sample.host_s = host_s;
        attempted += workload.devices();
        failed += oracles[pattern].errors(&sample);
        after_lot(&sample)?;
        if let Some(previous) = samples.last_mut() {
            previous.reports = Vec::new();
        }
        samples.push(sample);
    }
    Ok(Measured {
        samples,
        first_lot_rss_mib,
        oracles,
        attempted,
        failed,
    })
}

fn field(samples: &[LotSample], f: impl Fn(&LotSample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

fn spread_note(values: &[f64], what: &str) -> String {
    format!(
        "median of {} {what}, IQR {:.1}% of median",
        values.len(),
        iqr_share(values) * 100.0
    )
}

/// Peak resident set of this process in MiB (`VmHWM`), Linux only.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `time`, measured in lot `s`, at the reference host speed: scaled by
/// [`host::REFERENCE_S`] over the probe taken right before the lot.
fn scaled(s: &LotSample, time: f64) -> f64 {
    time * host::REFERENCE_S / s.host_s
}

/// The mean over the run's defect patterns of the median of `value` over
/// each pattern's lots.
fn across(lots: &[LotSample], value: impl Fn(&LotSample) -> f64) -> f64 {
    let medians: Vec<f64> = (0..PATTERNS)
        .map(|pattern| {
            let values: Vec<f64> = lots
                .iter()
                .filter(|s| s.pattern == pattern)
                .map(&value)
                .collect();
            median(&values)
        })
        .collect();
    medians.iter().sum::<f64>() / PATTERNS as f64
}

/// How a time figure was taken, with its unscaled value.
fn scaled_note(lots: &[LotSample], raw: f64, unit: &str) -> String {
    format!(
        "mean over {PATTERNS} defect patterns of the median of each one's lots ({} lots), \
         scaled to the reference host; unscaled {raw:.6} {unit}",
        lots.len()
    )
}

/// The end-to-end figures. Every time is taken per lot, scaled to the
/// reference host speed (see [`host`]), and reported as the mean over the
/// run's defect patterns of the median over each pattern's lots.
fn end_to_end(workload: Workload, m: &Measured) -> Vec<Metric> {
    let lots = &m.samples;
    let lot_s = |s: &LotSample| s.lot_s;
    let setup_s = |s: &LotSample| s.setup_s;
    let serve_s = |s: &LotSample| s.serve_s;
    let p50_ms = |s: &LotSample| median(&s.latencies_ms);
    let pooled: Vec<f64> = lots
        .iter()
        .flat_map(|s| s.latencies_ms.iter().map(|&ms| scaled(s, ms)))
        .collect();
    let (p99, p99_note) = match tail(&pooled, TAIL_MIN_BEYOND) {
        Some(t) => (
            t.value,
            format!(
                "p{} of {} device reports, each scaled to the reference host ({} beyond)",
                t.percentile, t.samples, t.beyond
            ),
        ),
        None => (
            0.0,
            format!("only {} device reports: no tail", pooled.len()),
        ),
    };
    let rate = |serve: f64| workload.devices() as f64 / serve;
    vec![
        Metric::new(
            "lot_s",
            across(lots, |s| scaled(s, lot_s(s))),
            "s",
            scaled_note(lots, across(lots, lot_s), "s"),
        ),
        Metric::new(
            "setup_s",
            across(lots, |s| scaled(s, setup_s(s))),
            "s",
            scaled_note(lots, across(lots, setup_s), "s"),
        ),
        Metric::new(
            "devices_per_s",
            rate(across(lots, |s| scaled(s, serve_s(s)))),
            "1/s",
            format!(
                "devices / serve time; serve time is the {}",
                scaled_note(lots, rate(across(lots, serve_s)), "devices/s")
            ),
        ),
        Metric::new(
            "report_p50_ms",
            across(lots, |s| scaled(s, p50_ms(s))),
            "ms",
            format!(
                "per-lot median report latency, {}",
                scaled_note(lots, across(lots, p50_ms), "ms")
            ),
        ),
        Metric::new("report_p99_ms", p99, "ms", p99_note),
        Metric::new(
            "peak_rss_mb",
            m.first_lot_rss_mib,
            "MiB",
            format!(
                "VmHWM after the first lot; {:.1} MiB at the end of the run",
                peak_rss_mib().unwrap_or(0.0)
            ),
        ),
        Metric::new(
            "plan_test_cycles",
            m.oracles[0].plan_test_cycles as f64,
            "cycles",
            "healthy die under the served plan(s), reference interpreter",
        ),
    ]
}

/// Per-lot view of the replay's spans: the traced lot's wall time and each
/// `(phase, layer)` wall share, phase being the root's child (`setup` or
/// the serve span) a span descends from.
struct LotLedger {
    wall: f64,
    shares: BTreeMap<(&'static str, &'static str), f64>,
    /// Summed duration per span name.
    durations: BTreeMap<&'static str, f64>,
}

fn ledgers(spans: &[Span]) -> BTreeMap<u64, LotLedger> {
    let shares = wall_shares(spans);
    let phase_of = |mut id: usize| loop {
        match spans[id].parent {
            Some(parent) if spans[parent].parent.is_some() => id = parent,
            Some(_) => break spans[id].name,
            None => break "lot",
        }
    };
    let mut out: BTreeMap<u64, LotLedger> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        let ledger = out.entry(span.lot).or_insert_with(|| LotLedger {
            wall: 0.0,
            shares: BTreeMap::new(),
            durations: BTreeMap::new(),
        });
        if span.parent.is_none() {
            ledger.wall = span.duration();
        }
        let phase = match phase_of(id) {
            phase @ ("setup" | "lot") => phase,
            _ => "serve",
        };
        *ledger.shares.entry((phase, span.layer())).or_default() += shares[id];
        *ledger.durations.entry(span.name).or_default() += span.duration();
    }
    out
}

/// Median over lots of one ledger figure.
fn per_lot(ledgers: &BTreeMap<u64, LotLedger>, f: impl Fn(&LotLedger) -> f64) -> f64 {
    median(&ledgers.values().map(f).collect::<Vec<_>>())
}

fn named(l: &LotLedger, name: &str) -> f64 {
    l.durations.get(name).copied().unwrap_or(0.0)
}

/// Sum of every layer's wall share outside the harness's own root span.
fn layered(l: &LotLedger) -> f64 {
    l.shares
        .iter()
        .filter(|((_, layer), _)| *layer != "lot")
        .map(|(_, s)| s)
        .sum()
}

fn serve_share(l: &LotLedger, layer: &str) -> f64 {
    l.shares.get(&("serve", layer)).copied().unwrap_or(0.0)
}

/// Durations in milliseconds of every span called `name`.
fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() * 1e3)
        .collect()
}

fn tail_value(values: &[f64]) -> f64 {
    tail(values, TAIL_MIN_BEYOND).map_or(0.0, |t| t.value)
}

/// The compiled plans a workload's lots serve, with their SoCs.
fn served_plans(
    workload: Workload,
    inputs: &Inputs,
    m: &Measured,
) -> Result<Vec<(SocDescription, CompiledProgram)>, SimError> {
    let fig1_packed = || packed_schedule(&inputs.fig1, FIG1_N);
    Ok(match workload {
        Workload::SearchedLot => {
            let schedule = m.samples.last().and_then(|s| s.schedule.clone());
            let schedule = schedule.expect("searched lots record their schedule");
            vec![(
                inputs.fig1.clone(),
                CompiledProgram::compile(&inputs.fig1, FIG1_N, schedule)?,
            )]
        }
        Workload::MonitoredLot => {
            vec![(
                inputs.fig1.clone(),
                CompiledProgram::compile(&inputs.fig1, FIG1_N, fig1_packed()?)?,
            )]
        }
        Workload::MixedFloor => {
            let n = inputs.bistmem_n();
            vec![
                (
                    inputs.fig1.clone(),
                    CompiledProgram::compile(&inputs.fig1, FIG1_N, fig1_packed()?)?,
                ),
                (
                    inputs.bistmem.clone(),
                    CompiledProgram::compile(
                        &inputs.bistmem,
                        n,
                        packed_schedule(&inputs.bistmem, n)?,
                    )?,
                ),
            ]
        }
    })
}

/// Per-die probes of the served plans, in seconds, summed over the plans.
struct Probes {
    /// Cold `get_or_compile` on an empty cache, every step.
    route_compile_s: f64,
    /// `SocSimulator::configure`, every step.
    shift_s: f64,
    /// A healthy die through `CompiledEngine::run`.
    gate_compiled_s: f64,
    /// A healthy die through `run_program_reference`.
    gate_reference_s: f64,
}

/// Measures [`Probes`] on fresh simulators; medians of [`PROBE_REPS`].
fn plan_probes(plans: &[(SocDescription, CompiledProgram)]) -> Result<Probes, SimError> {
    let mut reps: [Vec<f64>; 4] = Default::default();
    for _ in 0..PROBE_REPS {
        let mut rep = [0.0; 4];
        for (soc, plan) in plans {
            let cache = RouteTableCache::new();
            let mut sim = SocSimulator::new(soc, plan.bus_width())?;
            for step in plan.program().steps() {
                let started = Instant::now();
                sim.configure(&step.configuration, &step.wrapper_instructions)?;
                rep[1] += started.elapsed().as_secs_f64();
                let started = Instant::now();
                std::hint::black_box(cache.get_or_compile(sim.tam().chain()));
                rep[0] += started.elapsed().as_secs_f64();
            }
            let mut sim = SocSimulator::new(soc, plan.bus_width())?;
            let started = Instant::now();
            std::hint::black_box(CompiledEngine::new().run(&mut sim, plan.program())?);
            rep[2] += started.elapsed().as_secs_f64();
            let mut sim = SocSimulator::new(soc, plan.bus_width())?;
            let started = Instant::now();
            std::hint::black_box(run_program_reference(&mut sim, plan.program())?);
            rep[3] += started.elapsed().as_secs_f64();
        }
        for (all, one) in reps.iter_mut().zip(rep) {
            all.push(one);
        }
    }
    let [route_compile_s, shift_s, gate_compiled_s, gate_reference_s] = reps.map(|r| median(&r));
    Ok(Probes {
        route_compile_s,
        shift_s,
        gate_compiled_s,
        gate_reference_s,
    })
}

/// Serve time of one stand-alone runner on the Figure-1 or BIST + memory
/// lot, built fresh.
fn standalone_serve_s(inputs: &Inputs, bistmem: bool, packed: bool) -> Result<f64, SimError> {
    let (soc, n, spec) = if bistmem {
        (&inputs.bistmem, inputs.bistmem_n(), inputs.bistmem_spec)
    } else {
        (&inputs.fig1, FIG1_N, inputs.fig1_spec)
    };
    let runner = inputs
        .sized(FleetRunner::new(soc, n, packed_schedule(soc, n)?)?)
        .with_packed(packed);
    let started = Instant::now();
    std::hint::black_box(runner.run(&spec, LOT_DEVICES)?);
    Ok(started.elapsed().as_secs_f64())
}

/// The layers the crates hide, measured by difference: the median over
/// [`SERVE_REPS`] back-to-back pairs of the workload's serve time minus the
/// stand-alone serve times of the same lots. On the monitored lot that is
/// the monitor's cost (against an unmonitored scalar runner), on the floor
/// its tenancy cost; the searched lot has no such layer.
fn by_difference_s(workload: Workload, inputs: &Inputs) -> Result<f64, String> {
    let mut diffs = Vec::with_capacity(SERVE_REPS);
    for _ in 0..SERVE_REPS {
        let lot = match workload {
            Workload::SearchedLot => return Ok(0.0),
            _ => run_lot(workload, inputs),
        };
        if let Some(err) = lot.error {
            return Err(err);
        }
        let alone = match workload {
            Workload::MixedFloor => standalone_serve_s(inputs, false, true)
                .and_then(|fig1| Ok(fig1 + standalone_serve_s(inputs, true, false)?)),
            _ => standalone_serve_s(inputs, false, false),
        };
        diffs.push(lot.serve_s - alone.map_err(|err| err.to_string())?);
    }
    Ok(median(&diffs))
}

/// Replays `untraced`'s lot, asserting it reproduces the untraced reports
/// (and, for the searched lot, schedule). With a `partner`, the same lot
/// on `packed_schedule`'s plan, served packed, follows it, so the two
/// plans are compared under the same host conditions.
fn replay_one(
    tracer: &Tracer,
    partner: Option<&Tracer>,
    workload: Workload,
    inputs: &Inputs,
    untraced: &LotSample,
    id: u64,
) -> Result<ReplayLot, String> {
    let failed = |err: SimError| format!("replay failed: {err}");
    let lot = tracer.replay(workload, inputs, id).map_err(failed)?;
    if let Some(partner) = partner {
        partner
            .packed_schedule_lot(inputs, id, true)
            .map_err(failed)?;
    }
    assert_eq!(
        lot.reports, untraced.reports,
        "replayed device reports differ from the untraced run's"
    );
    if workload == Workload::SearchedLot {
        assert_eq!(
            lot.schedule, untraced.schedule,
            "replayed search planned another schedule"
        );
    }
    Ok(lot)
}

/// The traced side of a `--trace 1` run: ledger, per-layer metrics and,
/// on the searched lot, the ledger puzzles.
fn traced(
    workload: Workload,
    inputs: &Inputs,
    m: &Measured,
    (tracer, partner, lots): (&Tracer, Option<&Tracer>, &[ReplayLot]),
    seed: u64,
) -> Result<Vec<Metric>, String> {
    let sim_err = |err: SimError| err.to_string();
    let spans = tracer.rec.spans();
    let ledger = ledgers(&spans);
    let counts = &lots.last().expect("at least one replayed lot").counts;
    let untraced = &m.samples;
    let lot_s = median(&field(untraced, |s| s.lot_s));
    let traced_lot = per_lot(&ledger, |l| l.wall);

    let plans = served_plans(workload, inputs, m).map_err(sim_err)?;
    let probes = plan_probes(&plans).map_err(sim_err)?;
    let by_difference = by_difference_s(workload, inputs)?;
    let (monitor_overhead_s, tenancy_s) = match workload {
        Workload::MonitoredLot => (by_difference, 0.0),
        Workload::MixedFloor => (0.0, by_difference),
        Workload::SearchedLot => (0.0, 0.0),
    };
    let layers_s = per_lot(&ledger, layered) + monitor_overhead_s;

    print_ledger(&ledger, lots.len(), traced_lot, lot_s, monitor_overhead_s);
    if let Some(partner) = partner {
        puzzles(inputs, &ledger, &ledgers(&partner.rec.spans()), m, lot_s).map_err(sim_err)?;
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out = out_dir.join(format!("{}-seed{seed}.spans.jsonl", workload.name()));
    match std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&out, tracer.rec.to_jsonl()))
    {
        Ok(()) => println!("spans: {} written to {}", spans.len(), out.display()),
        Err(err) => println!("spans: {} kept in memory, not written: {err}", spans.len()),
    }

    let stats = untraced
        .last()
        .and_then(|s| s.cache)
        .expect("lots record cache stats");
    let cohort_ms = span_ms(&spans, "packed.cohort");
    let device_ms = span_ms(&spans, "scalar.device");
    let exec_ms = span_ms(&spans, "pool.job");
    let waits = tracer.waits_ms.lock().expect("wait log poisoned").clone();
    let monitor = |f: fn((u64, u64, u64)) -> u64| {
        median(&field(untraced, |s| s.monitor.map_or(0.0, |m| f(m) as f64)))
    };
    let floor_done = |lot: usize| {
        median(&field(untraced, |s| match workload {
            Workload::MixedFloor => s.lot_done_ms.get(lot).copied().unwrap_or(0.0),
            _ => 0.0,
        }))
    };
    let n_lots = lots.len() as f64;
    let from_lots = |name: &str| format!("median over {} traced lots of {name} spans", lots.len());
    let mut out = vec![
        Metric::new(
            "search.wall_s",
            per_lot(&ledger, |l| named(l, "search.schedule")),
            "s",
            from_lots("search.schedule"),
        ),
        Metric::new(
            "search.candidates_evaluated",
            counts.search_candidates as f64,
            "count",
            "search.candidates_evaluated counter",
        ),
        Metric::new(
            "search.validations",
            counts.search_validations as f64,
            "count",
            "search.validations counter",
        ),
        Metric::new(
            "search.route_cache.hit_rate",
            counts.search_hit_rate,
            "fraction",
            "route cache hit rate when the search returned",
        ),
        Metric::new(
            "program.compile_s",
            per_lot(&ledger, |l| named(l, "program.compile")),
            "s",
            from_lots("program.compile"),
        ),
        Metric::new(
            "program.steps",
            counts.program_steps as f64,
            "count",
            "steps of the served plan(s)",
        ),
        Metric::new(
            "gate.compiled_s",
            probes.gate_compiled_s,
            "s",
            format!(
                "healthy die of the served plan(s), CompiledEngine::run, median of {PROBE_REPS}"
            ),
        ),
        Metric::new(
            "gate.reference_s",
            probes.gate_reference_s,
            "s",
            format!(
                "healthy die of the served plan(s), run_program_reference, median of {PROBE_REPS}"
            ),
        ),
        Metric::new(
            "route.shapes",
            stats.len as f64,
            "count",
            "route cache tables after the untraced run",
        ),
        Metric::new(
            "route.compile_s",
            probes.route_compile_s,
            "s",
            format!("cold get_or_compile over every step, median of {PROBE_REPS}"),
        ),
        Metric::new(
            "route.cache.hits",
            stats.hits as f64,
            "count",
            "route cache stats() after the untraced run",
        ),
        Metric::new(
            "route.cache.misses",
            stats.misses as f64,
            "count",
            "route cache stats() after the untraced run",
        ),
        Metric::new(
            "route.cache.evictions",
            stats.evictions as f64,
            "count",
            "route cache stats() after the untraced run",
        ),
        Metric::new(
            "route.cache.hit_rate",
            stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            "fraction",
            "route cache stats() after the untraced run",
        ),
        Metric::new(
            "configure.shift_ms",
            probes.shift_s * 1e3,
            "ms",
            format!("SocSimulator::configure, every step of one die, median of {PROBE_REPS}"),
        ),
        Metric::new(
            "packed.compile_s",
            per_lot(&ledger, |l| named(l, "packed.compile")),
            "s",
            from_lots("packed.compile"),
        ),
        Metric::new(
            "packed.cohorts",
            counts.cohorts as f64,
            "count",
            "cohorts per lot",
        ),
        Metric::new(
            "packed.cohort_ms.p50",
            median(&cohort_ms),
            "ms",
            format!("{} run_cohort spans", cohort_ms.len()),
        ),
        Metric::new(
            "packed.cohort_ms.max",
            cohort_ms.iter().copied().fold(0.0, f64::max),
            "ms",
            format!("{} run_cohort spans", cohort_ms.len()),
        ),
        Metric::new(
            "packed.lane_passes",
            counts.lanes.passes as f64,
            "count",
            "lane passes per lot",
        ),
        Metric::new(
            "packed.lane_occupancy",
            counts.lanes.occupancy(),
            "fraction",
            "lane-carried defective dies / (passes x 64)",
        ),
        Metric::new(
            "packed.baseline_clones",
            counts.baseline_clones as f64,
            "count",
            "healthy dies served by a baseline clone",
        ),
        Metric::new(
            "packed.fallback_devices",
            counts.fallback_devices as f64,
            "count",
            "defective dies with a fallback_reason",
        ),
        Metric::new(
            "stamp.ms",
            per_lot(&ledger, |l| named(l, "stamp.lot")) * 1e3,
            "ms",
            from_lots("stamp.lot"),
        ),
        Metric::new(
            "scalar.devices",
            device_ms.len() as f64 / n_lots,
            "count",
            "scalar device jobs per lot",
        ),
        Metric::new(
            "scalar.device_ms.p50",
            median(&device_ms),
            "ms",
            format!("{} scalar.device spans", device_ms.len()),
        ),
        Metric::new(
            "scalar.device_ms.p99",
            tail_value(&device_ms),
            "ms",
            format!("{} scalar.device spans", device_ms.len()),
        ),
        Metric::new(
            "pool.jobs",
            counts.pool_jobs as f64,
            "count",
            "jobs per lot",
        ),
        Metric::new(
            "pool.wait_ms.p50",
            median(&waits),
            "ms",
            format!("{} job queue waits", waits.len()),
        ),
        Metric::new(
            "pool.wait_ms.p99",
            tail_value(&waits),
            "ms",
            format!("{} job queue waits", waits.len()),
        ),
        Metric::new(
            "pool.exec_ms.p50",
            median(&exec_ms),
            "ms",
            format!("{} pool.job spans", exec_ms.len()),
        ),
        Metric::new(
            "fleet.first_report_ms",
            median(&field(untraced, |s| s.first_report_ms)),
            "ms",
            spread_note(&field(untraced, |s| s.first_report_ms), "untraced lots"),
        ),
        Metric::new(
            "fleet.assemble_ms",
            median(&field(untraced, |s| s.assemble_ms)),
            "ms",
            spread_note(&field(untraced, |s| s.assemble_ms), "untraced lots"),
        ),
        Metric::new(
            "monitor.snapshots",
            monitor(|m| m.0),
            "count",
            "snapshots received per monitored lot",
        ),
        Metric::new(
            "monitor.dropped",
            monitor(|m| m.1),
            "count",
            "snapshots dropped per monitored lot",
        ),
        Metric::new(
            "monitor.dumps",
            monitor(|m| m.2),
            "count",
            "flight-recorder dumps per monitored lot",
        ),
        Metric::new(
            "monitor.overhead_s",
            monitor_overhead_s,
            "s",
            format!("monitored serve minus unmonitored scalar serve, median of {SERVE_REPS} pairs"),
        ),
    ];
    for (idx, name) in FLOOR_LOTS.iter().enumerate() {
        out.push(Metric::new(
            format!("floor.lot.{name}.done_ms"),
            floor_done(idx),
            "ms",
            "run_with call to the lot's last report",
        ));
    }
    out.extend([
        Metric::new(
            "floor.admission_events",
            median(&field(untraced, |s| s.admission_events as f64)),
            "count",
            "admission events per floor run",
        ),
        Metric::new(
            "floor.route_cache.high_water",
            if workload == Workload::MixedFloor {
                stats.high_water as f64
            } else {
                0.0
            },
            "count",
            "shared floor cache high-water mark",
        ),
        Metric::new(
            "floor.tenancy_overhead_s",
            tenancy_s,
            "s",
            format!("floor serve minus the stand-alone serves of its lots, median of {SERVE_REPS} pairs"),
        ),
        Metric::new(
            "trace.overhead_s",
            traced_lot - lot_s,
            "s",
            "traced lot minus untraced lot_s",
        ),
        Metric::new(
            "trace.unaccounted_s",
            lot_s - layers_s,
            "s",
            "untraced lot_s minus the sum of layer wall shares",
        ),
        Metric::new(
            "host.probe_ms",
            median(&field(untraced, |s| s.host_s)) * 1e3,
            "ms",
            format!(
                "host probe before each untraced lot; {:.3} ms at the reference host speed",
                host::REFERENCE_S * 1e3
            ),
        ),
    ]);
    Ok(out)
}

fn print_ledger(
    ledger: &BTreeMap<u64, LotLedger>,
    lots: usize,
    traced_lot: f64,
    lot_s: f64,
    monitor_s: f64,
) {
    println!("ledger: median over {lots} traced lots; a layer's share is its self time, split evenly where spans run concurrently");
    let keys: std::collections::BTreeSet<(&str, &str)> = ledger
        .values()
        .flat_map(|l| l.shares.keys().copied())
        .collect();
    for key in keys {
        let share = per_lot(ledger, |l| l.shares.get(&key).copied().unwrap_or(0.0));
        let label = if key.1 == "lot" { "(harness)" } else { key.1 };
        println!(
            "  {:<6} {:<10} {:>10.6} s {:>6.1}% of traced lot",
            key.0,
            label,
            share,
            share / traced_lot * 100.0
        );
    }
    if monitor_s != 0.0 {
        println!("  serve  monitor    {monitor_s:>10.6} s (by difference, untraced)");
    }
    println!(
        "  layers {:.6} s, traced lot {traced_lot:.6} s, untraced lot_s {lot_s:.6} s",
        per_lot(ledger, layered) + monitor_s
    );
}

/// Ledger puzzles 1 and 2, and why puzzle 3 is not measured.
fn puzzles(
    inputs: &Inputs,
    ledger: &BTreeMap<u64, LotLedger>,
    other_ledger: &BTreeMap<u64, LotLedger>,
    m: &Measured,
    lot_s: f64,
) -> Result<(), SimError> {
    let planning = per_lot(ledger, |l| {
        ["search", "program", "gate"]
            .iter()
            .map(|layer| l.shares.get(&("setup", *layer)).copied().unwrap_or(0.0))
            .sum()
    });
    let traced_lot = per_lot(ledger, |l| l.wall);
    let setup_s = median(&field(&m.samples, |s| s.setup_s));
    println!(
        "puzzle 1: planning (search + program + gate) is {:.1}% of the traced searched lot \
         ({:.1} of {:.1} ms); untraced setup_s is {:.1}% of lot_s ({:.1} of {:.1} ms)",
        planning / traced_lot * 100.0,
        planning * 1e3,
        traced_lot * 1e3,
        setup_s / lot_s * 100.0,
        setup_s * 1e3,
        lot_s * 1e3
    );

    let serve = |l: &BTreeMap<u64, LotLedger>| per_lot(l, |x| named(x, "fleet.serve"));
    let (searched_serve, packed_serve) = (serve(ledger), serve(other_ledger));
    let searched_cycles = m.oracles[0].plan_test_cycles as f64;
    let packed_plan =
        CompiledProgram::compile(&inputs.fig1, FIG1_N, packed_schedule(&inputs.fig1, FIG1_N)?)?;
    let mut sim = SocSimulator::new(&inputs.fig1, FIG1_N)?;
    let packed_cycles = run_program_reference(&mut sim, packed_plan.program())?.total_cycles as f64;
    let gap = searched_serve - packed_serve;
    let by_cycles = packed_serve * (searched_cycles / packed_cycles - 1.0);
    println!(
        "puzzle 2: serving the searched plan takes {:.1} ms, packed_schedule's plan {:.1} ms \
         (gap {:.1} ms); plan_test_cycles {} vs {} (x{:.3})",
        searched_serve * 1e3,
        packed_serve * 1e3,
        gap * 1e3,
        searched_cycles,
        packed_cycles,
        searched_cycles / packed_cycles
    );
    println!(
        "  serve time proportional to plan cycles would explain {:.1} ms of the gap; {:.1} ms is left",
        by_cycles * 1e3,
        (gap - by_cycles) * 1e3
    );
    let layers: std::collections::BTreeSet<&str> = ledger
        .values()
        .chain(other_ledger.values())
        .flat_map(|l| l.shares.keys())
        .filter(|(phase, _)| *phase == "serve")
        .map(|(_, layer)| *layer)
        .collect();
    for layer in layers {
        let searched = per_lot(ledger, |l| serve_share(l, layer));
        let packed = per_lot(other_ledger, |l| serve_share(l, layer));
        println!(
            "  serve layer {layer:<8} searched {:>8.2} ms  packed_schedule {:>8.2} ms  gap {:>+8.2} ms",
            searched * 1e3,
            packed * 1e3,
            (searched - packed) * 1e3
        );
    }
    println!(
        "puzzle 3: the earlier halving of packed throughput (1653 -> 784 devices/s) is not \
         measured: it needs the code from before that change, which this tree does not contain"
    );
    Ok(())
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for metric in metrics {
        println!(
            "{:<30} {:>16.6} {:<8} {}",
            metric.name, metric.value, metric.unit, metric.note
        );
    }
}

fn run(args: &Args, patterns: &[Inputs]) -> Result<String, String> {
    let inputs = &patterns[0];
    let tracer = Tracer::new(inputs.threads);
    let partner = (args.workload == Workload::SearchedLot).then(|| Tracer::new(inputs.threads));
    let mut lots = Vec::new();
    let m = measure(args.workload, patterns, args.seconds, |untraced| {
        if args.trace {
            let id = lots.len() as u64;
            lots.push(replay_one(
                &tracer,
                partner.as_ref(),
                args.workload,
                &patterns[untraced.pattern],
                untraced,
                id,
            )?);
        }
        Ok(())
    })?;
    let mut metrics = end_to_end(args.workload, &m);
    print_metrics(&metrics);
    println!(
        "{:<30} {:>16.6} {:<8} {} of {} devices missing, errored or wrong",
        "device_error_rate",
        m.failed as f64 / m.attempted as f64,
        "fraction",
        m.failed,
        m.attempted
    );
    if args.trace {
        metrics = traced(
            args.workload,
            inputs,
            &m,
            (&tracer, partner.as_ref(), &lots),
            args.seed,
        )?;
        print_metrics(&metrics);
    }
    Ok(json(m.failed == 0, m.attempted, m.failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    println!(
        "# perfbench workload={} seed={} lot_seeds={:?} search_seed={} nproc={nproc} \
         pool_threads={threads} commit={} profile={} trace={} seconds={} (no thread-scaling figures)",
        args.workload.name(),
        args.seed,
        lot_seeds(args.seed),
        args.search_seed,
        git_commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        u8::from(args.trace),
        args.seconds,
    );
    let patterns: Vec<Inputs> = lot_seeds(args.seed)
        .into_iter()
        .map(|seed| Inputs::new(seed, args.search_seed, threads))
        .collect();
    match run(&args, &patterns) {
        Ok(result) => println!("{result}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
