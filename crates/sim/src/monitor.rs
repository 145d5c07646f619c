//! Live fleet telemetry: streaming health snapshots and post-mortem dumps.
//!
//! A fleet run is a black box between "go" and the final
//! [`FleetReport`](crate::FleetReport) — unacceptable on a real test floor,
//! where operators watch in-flight yield curves, device-latency tails, and
//! per-die post-mortems. [`FleetMonitor`] opens the box without touching
//! the determinism contract:
//!
//! * A fleet runs as a one-lot [`TestFloor`](crate::floor::TestFloor), so
//!   its snapshots come from the same place a floor lot's do: the lot's
//!   [`LotTracker`] counts collected reports, and the floor's one observer
//!   thread — ticking at the monitor's interval — turns it into a
//!   [`FleetSnapshot`]. The monitor adds what only it sees (in-flight
//!   devices and stragglers, per-device elapsed time, pool queue wait) and
//!   pushes the snapshot over a **bounded** channel with `try_send`: a
//!   lagging consumer drops snapshots (counted), never backpressures the
//!   fleet.
//! * Each monitored device installs a fresh [`FlightRecorder`] as its
//!   simulator's trace sink, so the ring catches the die's `configure` and
//!   per-core `session` spans; any defective or failing die dumps its ring
//!   as a [`DeviceDump`], so post-mortems are focused event logs instead of
//!   a full-fleet trace.
//! * All wall-clock measurements live in an `obs.*`-prefixed namespace
//!   inside the monitor's [telemetry](FleetMonitor::telemetry) registry.
//!   Fleet results and every `fleet.*` metric stay bit-identical to an
//!   unmonitored run (pinned by `tests/fleet_differential.rs`).
//! * Monitored runs execute the **scalar** per-device path. Packed
//!   execution ([`FleetRunner::with_packed`](crate::FleetRunner::with_packed),
//!   the default for unmonitored runs) shares one word-level execution
//!   across up to 64 devices, which would leave per-device spans, latency
//!   quantiles, and flight recorders with nothing truthful to measure.
//!   Results stay bit-identical either way.
//!
//! Snapshots export as single-line JSON ([`FleetSnapshot::to_json`], ready
//! for a JSONL stream) and as Prometheus-style text
//! ([`FleetSnapshot::to_prometheus`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use casbus::RouteTableCache;
use casbus_obs::{json, FlightDump, FlightRecorder, Histogram, HistogramSummary, MetricsRegistry};

use crate::fleet::DeviceReport;

/// Tuning for a [`FleetMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Period between snapshots.
    pub interval: Duration,
    /// Bounded snapshot-channel capacity; overflow drops (and counts)
    /// snapshots instead of stalling the fleet.
    pub channel_capacity: usize,
    /// Per-device flight-recorder ring capacity in events; `0` disables
    /// the recorder (no per-device ring, no dumps).
    pub recorder_capacity: usize,
    /// Longest-running in-flight devices listed per snapshot.
    pub stragglers: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(25),
            channel_capacity: 64,
            recorder_capacity: 64,
            stragglers: 4,
        }
    }
}

/// One in-flight device and how long it has been running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Straggler {
    /// The device still being tested.
    pub device_id: u64,
    /// Time since its job started, in microseconds.
    pub elapsed_us: u64,
}

/// A point-in-time health readout of an in-flight fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Monotonic snapshot sequence number (0-based per run).
    pub seq: u64,
    /// Set on the final snapshot emitted after the run completes.
    pub last: bool,
    /// Wall-clock time since the run started, in microseconds.
    pub elapsed_us: u64,
    /// Devices the run was asked to test.
    pub fleet_size: u64,
    /// Devices finished so far.
    pub completed: u64,
    /// Finished devices whose every core passed.
    pub passed: u64,
    /// Finished devices with at least one failing core.
    pub failed: u64,
    /// Finished devices that were stamped with a defect.
    pub defective: u64,
    /// Devices currently executing.
    pub in_flight: u64,
    /// `passed / completed` (1.0 before anything completes).
    pub yield_fraction: f64,
    /// Completed devices per wall-clock second so far.
    pub devices_per_sec: f64,
    /// Route-cache hits over the runner's lifetime.
    pub cache_hits: u64,
    /// Route-cache misses over the runner's lifetime.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` (0.0 before any lookup).
    pub cache_hit_rate: f64,
    /// Devices served on the scalar path instead of packed lanes, by
    /// reason. Only monitored runs fill it: they are scalar by policy, so
    /// every device lands under `monitored_run` — a snapshot-only reason,
    /// never a `fleet.packed.fallback.reason.*` counter.
    pub packed_fallbacks: Vec<(String, u64)>,
    /// Quantile digest of per-device wall time (µs), completed devices.
    pub device_elapsed_us: HistogramSummary,
    /// Quantile digest of job queue-wait time (µs) on the worker pool.
    pub queue_wait_us: HistogramSummary,
    /// Longest-running in-flight devices, longest first.
    pub stragglers: Vec<Straggler>,
}

impl FleetSnapshot {
    /// Single-line JSON rendering, ready for a JSONL snapshot stream.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"seq\":{},\"last\":{},\"elapsed_us\":{},\"fleet_size\":{},\
             \"completed\":{},\"passed\":{},\"failed\":{},\"defective\":{},\
             \"in_flight\":{},\"yield\":",
            self.seq,
            self.last,
            self.elapsed_us,
            self.fleet_size,
            self.completed,
            self.passed,
            self.failed,
            self.defective,
            self.in_flight,
        ));
        json::write_f64(&mut out, self.yield_fraction);
        out.push_str(",\"devices_per_sec\":");
        json::write_f64(&mut out, self.devices_per_sec);
        out.push_str(&format!(
            ",\"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":",
            self.cache_hits, self.cache_misses
        ));
        json::write_f64(&mut out, self.cache_hit_rate);
        out.push_str(",\"packed_fallbacks\":{");
        for (idx, (reason, count)) in self.packed_fallbacks.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{reason}\":{count}"));
        }
        out.push('}');
        out.push_str(",\"device_elapsed_us\":");
        self.device_elapsed_us.write_json(&mut out);
        out.push_str(",\"queue_wait_us\":");
        self.queue_wait_us.write_json(&mut out);
        out.push_str(",\"stragglers\":[");
        for (idx, straggler) in self.stragglers.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"device_id\":{},\"elapsed_us\":{}}}",
                straggler.device_id, straggler.elapsed_us
            ));
        }
        out.push_str("]}");
        out
    }

    /// Prometheus-style text exposition of this snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let gauge = |out: &mut String, name: &str, value: String| {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        };
        let f64_text = |v: f64| {
            let mut s = String::new();
            json::write_f64(&mut s, v);
            s
        };
        gauge(&mut out, "fleet_size", self.fleet_size.to_string());
        gauge(&mut out, "fleet_completed", self.completed.to_string());
        gauge(&mut out, "fleet_passed", self.passed.to_string());
        gauge(&mut out, "fleet_failed", self.failed.to_string());
        gauge(&mut out, "fleet_defective", self.defective.to_string());
        gauge(&mut out, "fleet_in_flight", self.in_flight.to_string());
        gauge(&mut out, "fleet_yield", f64_text(self.yield_fraction));
        gauge(
            &mut out,
            "fleet_devices_per_sec",
            f64_text(self.devices_per_sec),
        );
        gauge(
            &mut out,
            "fleet_route_cache_hit_rate",
            f64_text(self.cache_hit_rate),
        );
        if !self.packed_fallbacks.is_empty() {
            out.push_str("# TYPE fleet_packed_fallback_reason gauge\n");
            for (reason, count) in &self.packed_fallbacks {
                out.push_str(&format!(
                    "fleet_packed_fallback_reason{{reason=\"{reason}\"}} {count}\n"
                ));
            }
        }
        for (name, summary) in [
            ("fleet_device_elapsed_us", &self.device_elapsed_us),
            ("fleet_queue_wait_us", &self.queue_wait_us),
        ] {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [
                ("0.5", summary.p50),
                ("0.9", summary.p90),
                ("0.99", summary.p99),
                ("1", summary.max),
            ] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_count {}\n", summary.count));
        }
        out
    }
}

impl std::fmt::Display for FleetSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>7.3}s] {:>4}/{} done, yield {:>5.1}%, {:>6.1} dev/s, \
             cache {:>5.1}%, wait p50/p99 {}/{} us",
            self.elapsed_us as f64 / 1e6,
            self.completed,
            self.fleet_size,
            self.yield_fraction * 100.0,
            self.devices_per_sec,
            self.cache_hit_rate * 100.0,
            self.queue_wait_us.p50,
            self.queue_wait_us.p99,
        )
    }
}

/// One failing (or defect-stamped) device's flight-recorder dump.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDump {
    /// The device the ring belonged to.
    pub device_id: u64,
    /// Whether the die was stamped with a manufacturing defect.
    pub defective: bool,
    /// Whether the device nevertheless passed (a defect on a don't-care
    /// position is undetectable — the dump still lands for triage).
    pub passed: bool,
    /// The retained events and overwrite count.
    pub dump: FlightDump,
}

/// Locks a monitor or lot-tracker mutex, recovering it when a panicking
/// holder poisoned it: one operation updates each guarded value in full,
/// so the value is valid whatever that holder was doing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Internal state shared between a monitored lot's device jobs, the
/// floor's observer thread, and the monitor handle the caller keeps.
pub(crate) struct MonitorShared {
    config: MonitorConfig,
    emitted: AtomicU64,
    dropped: AtomicU64,
    in_flight: Mutex<BTreeMap<u64, Instant>>,
    device_elapsed: Mutex<Histogram>,
    dumps: Mutex<Vec<DeviceDump>>,
    pub(crate) telemetry: Arc<MetricsRegistry>,
    tx: SyncSender<FleetSnapshot>,
}

impl MonitorShared {
    /// Arms the monitor for a new run, clearing the in-flight set, the
    /// per-device elapsed digest, and the dump list (telemetry histograms
    /// accumulate across runs by design — they describe the monitor's
    /// lifetime).
    pub(crate) fn begin_run(&self) {
        lock(&self.in_flight).clear();
        *lock(&self.device_elapsed) = Histogram::new();
        lock(&self.dumps).clear();
    }

    /// Marks `device_id` in flight and hands back its flight recorder
    /// (`None` when recorders are disabled).
    pub(crate) fn device_started(&self, device_id: u64) -> Option<Arc<FlightRecorder>> {
        lock(&self.in_flight).insert(device_id, Instant::now());
        (self.config.recorder_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(self.config.recorder_capacity)))
    }

    /// Retires a finished device: a defective or failing die dumps its
    /// `recorder`, and its wall time joins the elapsed digest.
    pub(crate) fn device_finished(
        &self,
        report: &DeviceReport,
        recorder: Option<&FlightRecorder>,
        elapsed: Duration,
    ) {
        let (passed, defective) = (report.passed(), report.fault.is_some());
        if let Some(recorder) = recorder.filter(|_| defective || !passed) {
            lock(&self.dumps).push(DeviceDump {
                device_id: report.device_id,
                defective,
                passed,
                dump: recorder.dump(),
            });
        }
        lock(&self.in_flight).remove(&report.device_id);
        lock(&self.device_elapsed).observe(elapsed.as_micros() as u64);
    }

    /// Fills in what only the monitor sees — in-flight devices and the
    /// longest-running of them, per-device elapsed and pool queue-wait
    /// digests, and the `monitored_run` scalar attribution — over a lot
    /// tracker's snapshot.
    pub(crate) fn complete(&self, snapshot: &mut FleetSnapshot) {
        let mut stragglers: Vec<Straggler> = lock(&self.in_flight)
            .iter()
            .map(|(&device_id, since)| Straggler {
                device_id,
                elapsed_us: since.elapsed().as_micros() as u64,
            })
            .collect();
        snapshot.in_flight = stragglers.len() as u64;
        stragglers.sort_by(|a, b| {
            b.elapsed_us
                .cmp(&a.elapsed_us)
                .then(a.device_id.cmp(&b.device_id))
        });
        stragglers.truncate(self.config.stragglers);
        snapshot.stragglers = stragglers;
        snapshot.packed_fallbacks = vec![("monitored_run".to_owned(), snapshot.fleet_size)];
        snapshot.device_elapsed_us = lock(&self.device_elapsed).summary();
        snapshot.queue_wait_us = self
            .telemetry
            .histogram("obs.pool.job.wait_us")
            .map(|h| h.summary())
            .unwrap_or_default();
    }

    /// Hands `snapshot` to the receiver without ever blocking the run.
    pub(crate) fn emit(&self, snapshot: FleetSnapshot) {
        match self.tx.try_send(snapshot) {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            // Full channel or a hung-up receiver: the fleet never waits on
            // its observer.
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A live observer for [`FleetRunner::run_monitored`](crate::FleetRunner::run_monitored).
///
/// Construction hands back the monitor and the receiving end of its bounded
/// snapshot channel; consume the receiver from any thread (or not at all —
/// overflow drops snapshots, never stalls the fleet). After the run,
/// [`dumps`](Self::dumps) holds a flight-recorder dump per defective or
/// failing device and [`telemetry`](Self::telemetry) the wall-clock
/// (`obs.*`) phase histograms.
///
/// # Examples
///
/// ```
/// use casbus_controller::schedule::packed_schedule;
/// use casbus_sim::{FleetMonitor, FleetRunner, VariationSpec};
/// use casbus_soc::catalog;
///
/// let soc = catalog::figure2a_scan_soc();
/// let runner = FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap())?;
/// let (monitor, snapshots) = FleetMonitor::new();
/// let fleet = runner.run_monitored(&VariationSpec::new(11, 0.5), 12, &monitor)?;
/// // The run is over, so drain what's buffered (a blocking `iter()` would
/// // wait forever: the monitor still holds the sender).
/// let last = snapshots.try_iter().last().expect("final snapshot always lands");
/// assert!(last.last && last.completed == 12);
/// assert!(monitor.dumps().len() >= fleet.failed(), "every failure dumps");
/// # Ok::<(), casbus_sim::SimError>(())
/// ```
pub struct FleetMonitor {
    shared: Arc<MonitorShared>,
}

impl std::fmt::Debug for FleetMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetMonitor")
            .field("config", &self.shared.config)
            .field("emitted", &self.snapshots_emitted())
            .field("dropped", &self.snapshots_dropped())
            .finish_non_exhaustive()
    }
}

impl FleetMonitor {
    /// A monitor with [`MonitorConfig::default`] and its snapshot receiver.
    pub fn new() -> (Self, Receiver<FleetSnapshot>) {
        Self::with_config(MonitorConfig::default())
    }

    /// A monitor with explicit tuning and its snapshot receiver.
    pub fn with_config(config: MonitorConfig) -> (Self, Receiver<FleetSnapshot>) {
        let (tx, rx) = mpsc::sync_channel(config.channel_capacity.max(1));
        let shared = Arc::new(MonitorShared {
            config,
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            in_flight: Mutex::new(BTreeMap::new()),
            device_elapsed: Mutex::new(Histogram::new()),
            dumps: Mutex::new(Vec::new()),
            telemetry: MetricsRegistry::new(),
            tx,
        });
        (Self { shared }, rx)
    }

    /// The tuning this monitor was built with.
    pub fn config(&self) -> &MonitorConfig {
        &self.shared.config
    }

    /// Wall-clock phase telemetry (`obs.fleet.device.setup_us`,
    /// `obs.fleet.device.run_us`, `obs.pool.job.wait_us`,
    /// `obs.pool.job.exec_us`, …). Accumulates across runs of this monitor.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.telemetry
    }

    /// Flight-recorder dumps collected so far — one per defective or
    /// failing device of the current (or just-finished) run.
    pub fn dumps(&self) -> Vec<DeviceDump> {
        lock(&self.shared.dumps).clone()
    }

    /// Snapshots successfully handed to the receiver.
    pub fn snapshots_emitted(&self) -> u64 {
        self.shared.emitted.load(Ordering::Relaxed)
    }

    /// Snapshots dropped on a full (or hung-up) channel.
    pub fn snapshots_dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    pub(crate) fn shared(&self) -> &Arc<MonitorShared> {
        &self.shared
    }
}

/// Rolling progress tracker for one lot on a
/// [`TestFloor`](crate::floor::TestFloor).
///
/// The floor's collector calls [`record`](Self::record) for every finished
/// device of the lot; the floor's observer thread periodically turns the
/// tracker into a per-lot [`FleetSnapshot`] via [`snapshot`](Self::snapshot)
/// and feeds [`rolling_yield`](Self::rolling_yield) to the
/// [`AdmissionController`](crate::admission::AdmissionController). A
/// [`FleetRunner`](crate::FleetRunner) run is a one-lot floor, so its
/// [`FleetMonitor`] snapshots are built here too.
///
/// A `LotTracker` observes only completion events, so packed execution
/// stays available to floor lots. Snapshot fields the tracker
/// cannot see — per-device latency quantiles, queue-wait digests,
/// stragglers, fallback attribution — are left empty unless a
/// [`FleetMonitor`] watches the lot.
#[derive(Debug)]
pub struct LotTracker {
    fleet_size: u64,
    window: usize,
    started: Instant,
    seq: AtomicU64,
    completed: AtomicU64,
    passed: AtomicU64,
    defective: AtomicU64,
    recent: Mutex<std::collections::VecDeque<bool>>,
}

impl LotTracker {
    /// A tracker for a lot of `fleet_size` devices, judging rolling yield
    /// over the last `window` completions (clamped to at least 1).
    pub fn new(fleet_size: u64, window: usize) -> Self {
        Self {
            fleet_size,
            window: window.max(1),
            started: Instant::now(),
            seq: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            passed: AtomicU64::new(0),
            defective: AtomicU64::new(0),
            recent: Mutex::new(std::collections::VecDeque::with_capacity(window.max(1))),
        }
    }

    /// Records one finished device of this lot.
    pub fn record(&self, report: &DeviceReport) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if report.passed() {
            self.passed.fetch_add(1, Ordering::Relaxed);
        }
        if report.fault.is_some() {
            self.defective.fetch_add(1, Ordering::Relaxed);
        }
        let mut recent = lock(&self.recent);
        if recent.len() == self.window {
            recent.pop_front();
        }
        recent.push_back(report.passed());
    }

    /// Devices of this lot finished so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Finished devices whose every core passed.
    pub fn passed(&self) -> u64 {
        self.passed.load(Ordering::Relaxed)
    }

    /// Devices the lot still owes (`fleet_size − completed`).
    pub fn remaining(&self) -> u64 {
        self.fleet_size.saturating_sub(self.completed())
    }

    /// Pass fraction over the last `window` completions — `1.0` before
    /// anything completes. This is the admission controller's collapse
    /// signal: a lot whose overall yield still looks healthy can already be
    /// producing a solid run of failures at the tail.
    pub fn rolling_yield(&self) -> f64 {
        let recent = lock(&self.recent);
        if recent.is_empty() {
            1.0
        } else {
            recent.iter().filter(|&&pass| pass).count() as f64 / recent.len() as f64
        }
    }

    /// Assembles a per-lot [`FleetSnapshot`]. `queued` is the lot's dies
    /// in jobs that have not started, so `in_flight` counts the dies whose
    /// job has started and whose report is not recorded yet (on a packed
    /// lot, finished dies waiting for the rest of their cohort too).
    /// Tracker-invisible fields (latency digests, stragglers, fallback
    /// attribution) are empty — see the type-level docs.
    pub fn snapshot(&self, cache: &RouteTableCache, queued: u64, last: bool) -> FleetSnapshot {
        let elapsed = self.started.elapsed();
        let completed = self.completed();
        let passed = self.passed();
        let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
        let lookups = cache_hits + cache_misses;
        FleetSnapshot {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            last,
            elapsed_us: elapsed.as_micros() as u64,
            fleet_size: self.fleet_size,
            completed,
            passed,
            failed: completed - passed,
            defective: self.defective.load(Ordering::Relaxed),
            in_flight: self
                .fleet_size
                .saturating_sub(completed)
                .saturating_sub(queued),
            yield_fraction: if completed == 0 {
                1.0
            } else {
                passed as f64 / completed as f64
            },
            devices_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                cache_hits as f64 / lookups as f64
            },
            packed_fallbacks: Vec::new(),
            device_elapsed_us: HistogramSummary::default(),
            queue_wait_us: HistogramSummary::default(),
            stragglers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{DeviceReport, FaultKind, InjectedFault};
    use crate::report::SocTestReport;
    use casbus_tpg::Verdict;

    fn device(device_id: u64, verdict: Verdict, defective: bool) -> DeviceReport {
        DeviceReport {
            device_id,
            fault: defective.then(|| InjectedFault {
                core: "core".to_owned(),
                kind: FaultKind::BistResponse { after: 0 },
            }),
            report: SocTestReport {
                verdicts: vec![("core".to_owned(), verdict)],
                total_cycles: 10,
                steps: 1,
                per_core_cycles: Vec::new(),
                bus_cycles: 0,
                signatures: Vec::new(),
            },
        }
    }

    #[test]
    fn snapshot_reports_counts_yield_and_stragglers() {
        let (monitor, rx) = FleetMonitor::with_config(MonitorConfig {
            stragglers: 2,
            ..MonitorConfig::default()
        });
        let shared = monitor.shared();
        shared.begin_run();
        let tracker = LotTracker::new(8, 32);
        for id in 0..5 {
            shared.device_started(id);
        }
        let done = [
            device(0, Verdict::Pass, false),
            device(1, Verdict::Fail { mismatches: 3 }, true),
        ];
        for (report, micros) in done.iter().zip([500, 900]) {
            shared.device_finished(report, None, Duration::from_micros(micros));
            tracker.record(report);
        }
        shared.telemetry.observe("obs.pool.job.wait_us", 10);

        let cache = RouteTableCache::new();
        let mut snap = tracker.snapshot(&cache, 0, false);
        shared.complete(&mut snap);
        assert_eq!(snap.fleet_size, 8);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.passed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.defective, 1);
        assert_eq!(snap.in_flight, 3);
        assert!((snap.yield_fraction - 0.5).abs() < 1e-12);
        assert_eq!(snap.device_elapsed_us.count, 2);
        assert_eq!(snap.queue_wait_us.count, 1);
        assert_eq!(snap.stragglers.len(), 2, "straggler list is truncated");

        assert_eq!(
            snap.packed_fallbacks,
            vec![("monitored_run".to_owned(), 8)],
            "monitored runs attribute every device to the scalar path"
        );

        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"completed\":2"));
        assert!(json.contains("\"packed_fallbacks\":{\"monitored_run\":8}"));
        assert!(json.contains("\"stragglers\":[{\"device_id\":"));
        assert!(!json.contains('\n'), "single line for JSONL streams");

        let prom = snap.to_prometheus();
        assert!(prom.contains("fleet_completed 2\n"));
        assert!(prom.contains("fleet_packed_fallback_reason{reason=\"monitored_run\"} 8\n"));
        assert!(prom.contains("fleet_queue_wait_us{quantile=\"0.5\"} 10\n"));
        drop(rx);
    }

    #[test]
    fn emit_counts_drops_on_a_full_channel() {
        let (monitor, rx) = FleetMonitor::with_config(MonitorConfig {
            channel_capacity: 1,
            ..MonitorConfig::default()
        });
        let shared = monitor.shared();
        let tracker = LotTracker::new(1, 1);
        let cache = RouteTableCache::new();
        for _ in 0..3 {
            shared.emit(tracker.snapshot(&cache, 0, false));
        }
        assert_eq!(monitor.snapshots_emitted(), 1);
        assert_eq!(monitor.snapshots_dropped(), 2);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn sampler_always_emits_a_final_snapshot() {
        use casbus_controller::schedule::packed_schedule;
        use casbus_soc::catalog;

        let soc = catalog::figure2a_scan_soc();
        let runner = crate::FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap()).unwrap();
        let (monitor, rx) = FleetMonitor::with_config(MonitorConfig {
            interval: Duration::from_secs(60),
            ..MonitorConfig::default()
        });
        // An empty lot finishes well before the first interval elapses:
        // only the final snapshot should be emitted.
        runner
            .run_monitored(&crate::VariationSpec::perfect(), 0, &monitor)
            .unwrap();
        let snaps: Vec<FleetSnapshot> = rx.try_iter().collect();
        assert_eq!(snaps.len(), 1);
        assert!(snaps[0].last);
        assert_eq!(snaps[0].seq, 0);
    }

    #[test]
    fn recorder_is_gated_on_capacity() {
        let (on, _rx) = FleetMonitor::new();
        let shared = on.shared();
        // Only defective or failing dies keep their ring.
        for (id, verdict, defective) in [
            (0, Verdict::Pass, false),
            (1, Verdict::Pass, true),
            (2, Verdict::Fail { mismatches: 1 }, true),
        ] {
            let recorder = shared.device_started(id).expect("recorders on by default");
            let report = device(id, verdict, defective);
            shared.device_finished(&report, Some(&recorder), Duration::ZERO);
        }
        let dumped: Vec<u64> = on.dumps().iter().map(|d| d.device_id).collect();
        assert_eq!(dumped, vec![1, 2]);

        let (off, _rx) = FleetMonitor::with_config(MonitorConfig {
            recorder_capacity: 0,
            ..MonitorConfig::default()
        });
        assert!(off.shared().device_started(0).is_none());
    }

    /// Panics on another thread while holding `mutex`, leaving it poisoned.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = mutex.lock();
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_monitor_and_tracker_locks_keep_serving() {
        // Every guarded value stays valid after a panic inside its
        // one-operation critical section, so the next caller recovers it.
        let (monitor, _rx) = FleetMonitor::new();
        let shared = monitor.shared();
        let tracker = LotTracker::new(2, 4);
        poison(&shared.in_flight);
        poison(&shared.device_elapsed);
        poison(&shared.dumps);
        poison(&tracker.recent);

        shared.begin_run();
        for id in 0..2 {
            shared.device_started(id);
        }
        let failing = device(0, Verdict::Fail { mismatches: 1 }, true);
        let recorder = FlightRecorder::new(4);
        shared.device_finished(&failing, Some(&recorder), Duration::from_micros(40));
        tracker.record(&failing);

        let mut snap = tracker.snapshot(&RouteTableCache::new(), 0, true);
        shared.complete(&mut snap);
        assert_eq!((snap.completed, snap.failed, snap.in_flight), (1, 1, 1));
        assert_eq!(snap.stragglers.len(), 1, "device 1 is still in flight");
        assert_eq!(snap.device_elapsed_us.count, 1);
        assert_eq!(tracker.rolling_yield(), 0.0);
        let dumps = monitor.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].device_id, 0);
    }
}
