//! OPERATIONS.md's metric reference matches what the serving stack emits,
//! in both directions: every metric a monitored fleet, a packed fleet with
//! scalar fallbacks, and a floor publish is documented, and every
//! documented metric is published by one of them.
//! Fallback reason codes are checked against the codes the packed engine
//! can produce.

use std::collections::BTreeSet;
use std::time::Duration;

use casbus_controller::schedule::packed_schedule;
use casbus_controller::Schedule;
use casbus_obs::MetricsRegistry;
use casbus_sim::{FleetMonitor, FleetRunner, LotSpec, MonitorConfig, TestFloor, VariationSpec};
use casbus_soc::catalog;

const OPERATIONS: &str = include_str!("../../../OPERATIONS.md");

/// The sources of every `fleet.packed.fallback.reason.*` code: the
/// compiled engine's step blockers and the packed engine's program and
/// defect reasons.
const REASON_SOURCES: [&str; 2] = [
    include_str!("../src/engine.rs"),
    include_str!("../src/engine_packed.rs"),
];

const REASON_PREFIX: &str = "fleet.packed.fallback.reason.";

/// The documented metric names and fallback reason codes.
struct Reference {
    metrics: BTreeSet<String>,
    codes: BTreeSet<String>,
}

/// Parses the tables of OPERATIONS.md's "Metric reference" section. A
/// row's first cell names one or more metrics in backticks; a name written
/// as `.suffix` replaces the last segment of the name before it. Rows of
/// the reason-code table name codes instead.
fn reference() -> Reference {
    let start = OPERATIONS
        .find("## Metric reference")
        .expect("metric reference section");
    let end = start
        + OPERATIONS[start..]
            .find("## Tuning knobs")
            .expect("next section");
    let mut reference = Reference {
        metrics: BTreeSet::new(),
        codes: BTreeSet::new(),
    };
    let mut in_codes = false;
    for line in OPERATIONS[start..end].lines() {
        if let Some(heading) = line.strip_prefix("### ") {
            in_codes = heading.contains("fallback.reason");
            continue;
        }
        let Some(cell) = line.strip_prefix("| `") else {
            continue;
        };
        let cell = &cell[..cell.find(" |").expect("table cell")];
        let mut previous = String::new();
        for name in cell.split('`').step_by(2).filter(|s| !s.trim().is_empty()) {
            if in_codes {
                reference.codes.insert(name.to_owned());
                continue;
            }
            let name = match name.strip_prefix('.') {
                Some(suffix) => {
                    let stem = &previous[..previous.rfind('.').expect("dotted name")];
                    format!("{stem}.{suffix}")
                }
                None => name.to_owned(),
            };
            previous.clone_from(&name);
            reference.metrics.insert(name);
        }
    }
    reference
}

/// Every quoted `step.*` / `program.*` / `defect.*` literal in the reason
/// sources.
fn producible_codes() -> BTreeSet<String> {
    let mut codes = BTreeSet::new();
    for source in REASON_SOURCES {
        for quoted in source.split('"').skip(1).step_by(2) {
            let is_code = ["step.", "program.", "defect."]
                .iter()
                .any(|prefix| quoted.starts_with(prefix))
                && quoted
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '.' || c == '_');
            if is_code {
                codes.insert(quoted.to_owned());
            }
        }
    }
    codes
}

/// Counter and histogram names of `metrics`, with a floor lot's
/// `floor.lot.<name>.` prefix folded back onto the `fleet.*` names it
/// wraps.
fn names(metrics: &MetricsRegistry) -> BTreeSet<String> {
    let counters = metrics.counters().into_iter().map(|(name, _)| name);
    let histograms = metrics.histograms().into_iter().map(|(name, _)| name);
    counters
        .chain(histograms)
        .map(|name| match name.strip_prefix("floor.lot.") {
            Some(rest) => rest[rest.find(".fleet.").expect("lot metric") + 1..].to_owned(),
            None => name,
        })
        .collect()
}

#[test]
fn operations_metric_reference_matches_emitted_names() {
    let soc = catalog::figure2a_scan_soc();
    let schedule = packed_schedule(&soc, 4).expect("schedule");
    let spec = VariationSpec::new(11, 0.5);
    let mut emitted = BTreeSet::new();

    // A monitored fleet, served packed like any other, with every
    // obs.fleet.* series.
    let monitored = MetricsRegistry::new();
    let (monitor, _snapshots) = FleetMonitor::with_config(MonitorConfig {
        interval: Duration::from_millis(1),
        ..MonitorConfig::default()
    });
    FleetRunner::new(&soc, 4, schedule.clone())
        .expect("runner")
        .with_threads(2)
        .run_monitored_with_metrics(&spec, 24, &monitored, &monitor, |_| {})
        .expect("monitored run");
    emitted.extend(names(&monitored));

    // A packed fleet whose program skips one core: defects stamped on it
    // fall back to the scalar path with a reason.
    let skipped = schedule.tests()[0].core_name.clone();
    let partial = Schedule::from_tests(
        4,
        schedule
            .tests()
            .iter()
            .filter(|t| t.core_name != skipped)
            .cloned()
            .collect(),
    )
    .expect("partial schedule");
    let packed = MetricsRegistry::new();
    FleetRunner::new(&soc, 4, partial)
        .expect("runner")
        .run_with_metrics(&VariationSpec::new(3, 1.0), 64, &packed, |_| {})
        .expect("packed run");
    assert!(
        packed.counter("fleet.packed.fallback.devices") > 0,
        "defects on the skipped core fall back"
    );
    emitted.extend(names(&packed));

    // A floor of one packed and one scalar lot.
    let floor = MetricsRegistry::new();
    TestFloor::new()
        .with_threads(2)
        .run_with_metrics(
            vec![
                LotSpec::new("packed", &soc, 4, schedule.clone(), 16, spec).expect("lot"),
                LotSpec::new("scalar", &soc, 4, schedule.clone(), 16, spec)
                    .expect("lot")
                    .with_packed(false),
            ],
            &floor,
            |_, _| {},
        )
        .expect("floor run");
    emitted.extend(names(&floor));

    let reference = reference();
    let producible = producible_codes();
    assert_eq!(
        reference.codes, producible,
        "documented fallback reason codes vs the codes the packed engine produces"
    );
    let reasons: BTreeSet<String> = emitted
        .iter()
        .filter_map(|name| name.strip_prefix(REASON_PREFIX))
        .map(str::to_owned)
        .collect();
    assert!(!reasons.is_empty(), "the partial program emits a reason");
    assert!(
        reasons.is_subset(&reference.codes),
        "undocumented reason codes: {:?}",
        reasons.difference(&reference.codes).collect::<Vec<_>>()
    );
    let emitted: BTreeSet<String> = emitted
        .into_iter()
        .map(|name| {
            if name.starts_with(REASON_PREFIX) {
                format!("{REASON_PREFIX}<code>")
            } else {
                name
            }
        })
        .collect();
    let undocumented: Vec<_> = emitted.difference(&reference.metrics).collect();
    let unemitted: Vec<_> = reference.metrics.difference(&emitted).collect();
    assert!(
        undocumented.is_empty() && unemitted.is_empty(),
        "emitted but not in OPERATIONS.md: {undocumented:?}; \
         in OPERATIONS.md but never emitted: {unemitted:?}"
    );
}
