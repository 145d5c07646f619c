//! Live fleet telemetry: streaming health snapshots and post-mortem dumps.
//!
//! A fleet run is a black box between "go" and the final
//! [`FleetReport`](crate::FleetReport) — unacceptable on a real test floor,
//! where operators watch in-flight yield curves, device-latency tails, and
//! per-die post-mortems. [`FleetMonitor`] opens the box without changing how
//! the lot executes:
//!
//! * A monitored lot runs exactly the pool jobs an unmonitored one runs
//!   (packed lane passes and healthy cohorts by default), and the monitor
//!   watches jobs: each marks its dies in flight when it starts, observing
//!   its queue wait since dispatch, retires them when it ends, and observes
//!   its wall time once per die and once for the job.
//! * Snapshots exist only for a monitor. A fleet runs as a one-lot
//!   [`TestFloor`](crate::floor::TestFloor), and the monitor watches
//!   every lot of the run: the lot's [`LotTracker`] counts collected
//!   reports, and at the monitor's interval the thread that collects them
//!   builds one [`FleetSnapshot`] per lot between reports, from the
//!   tracker and what only the monitor sees (stragglers, per-device
//!   elapsed time, pool queue wait). It pushes each over a **bounded**
//!   channel with `try_send`: a lagging consumer drops snapshots
//!   (counted), never backpressures the fleet.
//! * Post-mortems are replays. A report is a pure function of
//!   `(spec, device_id, plan)`, so once the lot's reports are in, each
//!   defective or failing die runs again as one pool job on the compiled
//!   scalar path, with a fresh [`FlightRecorder`](casbus_obs::FlightRecorder)
//!   as its trace sink catching its `configure` and per-core `session`
//!   spans. The run returns once every [`DeviceDump`] is in, in device order.
//! * All wall-clock measurements live in an `obs.*`-prefixed namespace
//!   inside the monitor's [telemetry](FleetMonitor::telemetry) registry.
//!   Fleet results and every other metric stay bit-identical to an
//!   unmonitored run (pinned by `tests/fleet_differential.rs`).
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
use casbus_obs::{json, FlightDump, Histogram, HistogramSummary, MetricsRegistry};

use crate::fleet::DeviceReport;

/// Tuning for a [`FleetMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Period between snapshots; past the clock's range, only the `last` one.
    pub interval: Duration,
    /// Bounded snapshot-channel capacity; overflow drops (and counts)
    /// snapshots instead of stalling the fleet.
    pub channel_capacity: usize,
    /// Flight-recorder ring capacity, in events, of each replayed die; `0`
    /// disables the recorder (no replays, no dumps).
    pub recorder_capacity: usize,
    /// In-flight dies of the longest-running jobs listed per snapshot.
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
    /// Dies of started jobs whose reports are not recorded yet.
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
    /// Quantile digest of each finished die's job wall time (µs).
    pub device_elapsed_us: HistogramSummary,
    /// Quantile digest of this run's job queue waits (µs): from each
    /// serving job's dispatch to its start on a pool worker.
    pub queue_wait_us: HistogramSummary,
    /// Dies of the longest-running jobs still executing, longest first.
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

/// Internal state shared between a monitored lot's jobs, the thread that
/// serves the run, and the monitor handle the caller keeps.
pub(crate) struct MonitorShared {
    config: MonitorConfig,
    emitted: AtomicU64,
    dropped: AtomicU64,
    /// Running jobs by first die: when each started, and its dies.
    jobs: Mutex<BTreeMap<u64, (Instant, Vec<u64>)>>,
    device_elapsed: Mutex<Histogram>,
    dumps: Mutex<Vec<DeviceDump>>,
    telemetry: Arc<MetricsRegistry>,
    tx: SyncSender<FleetSnapshot>,
}

impl MonitorShared {
    /// Arms the monitor for a new run, clearing the running jobs, the
    /// per-device elapsed digest, the dump list and the telemetry, so that
    /// each describes the run about to start.
    pub(crate) fn begin_run(&self) {
        lock(&self.jobs).clear();
        *lock(&self.device_elapsed) = Histogram::new();
        lock(&self.dumps).clear();
        self.telemetry.clear();
    }

    /// Marks a starting job's `dies` (at least one) in flight and observes
    /// its queue wait since it was `dispatched` (`obs.pool.job.wait_us`).
    pub(crate) fn job_started(&self, dispatched: Instant, dies: Vec<u64>) {
        let started = Instant::now();
        let waited = started.saturating_duration_since(dispatched).as_micros() as u64;
        self.telemetry.observe("obs.pool.job.wait_us", waited);
        lock(&self.jobs).insert(dies[0], (started, dies));
    }

    /// Retires the job whose first die is `first`: its wall time joins the
    /// elapsed digest once per die and `obs.pool.job.exec_us` once.
    pub(crate) fn job_finished(&self, first: u64) {
        let job = lock(&self.jobs).remove(&first);
        if let Some((started, dies)) = job {
            let micros = started.elapsed().as_micros() as u64;
            self.telemetry.observe("obs.pool.job.exec_us", micros);
            let mut elapsed = lock(&self.device_elapsed);
            dies.iter().for_each(|_| elapsed.observe(micros));
        }
    }

    /// Hands over a finished run's post-mortems, in device order.
    pub(crate) fn set_dumps(&self, dumps: Vec<DeviceDump>) {
        *lock(&self.dumps) = dumps;
    }

    /// A snapshot of `lot`: the tracker's counts, the route cache's
    /// traffic, and what only the monitor sees — the dies of the
    /// longest-running jobs, per-device elapsed and pool queue-wait
    /// digests. `queued` is the lot's dies in jobs that have not started,
    /// so `in_flight` counts the dies whose job has started and whose
    /// report is not recorded yet (on a packed lot, finished dies waiting
    /// for the rest of their cohort too).
    pub(crate) fn snapshot(
        &self,
        lot: &LotTracker,
        cache: &RouteTableCache,
        queued: u64,
        last: bool,
    ) -> FleetSnapshot {
        let elapsed = lot.started.elapsed();
        let completed = lot.completed();
        let passed = lot.passed();
        let (cache_hits, cache_misses) = (cache.hits(), cache.misses());
        let lookups = cache_hits + cache_misses;
        let mut stragglers: Vec<Straggler> = lock(&self.jobs)
            .values()
            .flat_map(|(since, dies)| {
                let elapsed_us = since.elapsed().as_micros() as u64;
                dies.iter().map(move |&device_id| Straggler {
                    device_id,
                    elapsed_us,
                })
            })
            .collect();
        stragglers.sort_by(|a, b| {
            b.elapsed_us
                .cmp(&a.elapsed_us)
                .then(a.device_id.cmp(&b.device_id))
        });
        stragglers.truncate(self.config.stragglers);
        FleetSnapshot {
            seq: lot.seq.fetch_add(1, Ordering::Relaxed),
            last,
            elapsed_us: elapsed.as_micros() as u64,
            fleet_size: lot.fleet_size,
            completed,
            passed,
            failed: completed - passed,
            defective: lot.defective.load(Ordering::Relaxed),
            in_flight: lot
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
            device_elapsed_us: lock(&self.device_elapsed).summary(),
            queue_wait_us: self
                .telemetry
                .histogram("obs.pool.job.wait_us")
                .map(|h| h.summary())
                .unwrap_or_default(),
            stragglers,
        }
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
/// failing device, made by replaying it, and [`telemetry`](Self::telemetry)
/// the run's wall-clock (`obs.*`) job histograms. A monitor can watch one
/// run after another; each run starts it afresh.
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
            jobs: Mutex::new(BTreeMap::new()),
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

    /// Wall-clock job telemetry of the last run: one `obs.pool.job.wait_us`
    /// (dispatch to start) and one `obs.pool.job.exec_us` (start to finish)
    /// observation per serving job, none for its replays. Each run clears
    /// it when it begins.
    pub fn telemetry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.telemetry
    }

    /// Flight-recorder dumps of the last finished run — one per defective
    /// or failing device, in device order.
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
/// device of the lot and feeds [`rolling_yield`](Self::rolling_yield) to
/// the [`AdmissionController`](crate::admission::AdmissionController), all
/// on the thread that called the run. When a [`FleetMonitor`] watches the
/// run (a [`FleetRunner`](crate::FleetRunner) run is a one-lot floor), its
/// per-lot [`FleetSnapshot`]s are built from the tracker's counts.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{DeviceReport, FaultKind, InjectedFault};
    use crate::report::SocTestReport;
    use crate::{FleetRunner, VariationSpec};
    use casbus_controller::schedule::packed_schedule;
    use casbus_obs::FlightRecorder;
    use casbus_soc::catalog;
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
        shared.job_started(Instant::now(), vec![0, 1]);
        shared.job_started(Instant::now(), vec![2, 3, 4]);
        shared.job_finished(0);
        for report in [
            device(0, Verdict::Pass, false),
            device(1, Verdict::Fail { mismatches: 3 }, true),
        ] {
            tracker.record(&report);
        }

        // Dies 5..8 are in jobs that have not started.
        let cache = RouteTableCache::new();
        let snap = shared.snapshot(&tracker, &cache, 3, false);
        assert_eq!(snap.fleet_size, 8);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.passed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.defective, 1);
        assert_eq!(snap.in_flight, 3);
        assert!((snap.yield_fraction - 0.5).abs() < 1e-12);
        assert_eq!(
            snap.device_elapsed_us.count, 2,
            "a job's time, once per die"
        );
        assert_eq!(snap.queue_wait_us.count, 2, "each started job waited once");
        let stragglers: Vec<u64> = snap.stragglers.iter().map(|s| s.device_id).collect();
        assert_eq!(stragglers, [2, 3], "the running job's dies, truncated");

        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"completed\":2"));
        assert!(json.contains("\"stragglers\":[{\"device_id\":2,"));
        assert!(!json.contains('\n'), "single line for JSONL streams");

        let prom = snap.to_prometheus();
        assert!(prom.contains("fleet_completed 2\n"));
        assert!(prom.contains("fleet_in_flight 3\n"));
        assert!(prom.contains("fleet_queue_wait_us_count 2\n"));
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
            shared.emit(shared.snapshot(&tracker, &cache, 0, false));
        }
        assert_eq!(monitor.snapshots_emitted(), 1);
        assert_eq!(monitor.snapshots_dropped(), 2);
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn a_monitored_run_always_emits_a_final_snapshot() {
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
        // Only defective or failing dies are replayed, and only with a
        // ring to record into.
        let soc = catalog::figure2a_scan_soc();
        let runner = crate::FleetRunner::new(&soc, 4, packed_schedule(&soc, 4).unwrap()).unwrap();
        let spec = crate::VariationSpec::new(11, 0.5);
        let (on, _rx) = FleetMonitor::new();
        let fleet = runner.run_monitored(&spec, 12, &on).unwrap();
        let dumped: Vec<u64> = on.dumps().iter().map(|d| d.device_id).collect();
        let expected: Vec<u64> = fleet
            .devices
            .iter()
            .filter(|d| d.fault.is_some() || !d.passed())
            .map(|d| d.device_id)
            .collect();
        assert!(!expected.is_empty(), "a 50% defect rate stamps some dies");
        assert_eq!(dumped, expected);

        let (off, _rx) = FleetMonitor::with_config(MonitorConfig {
            recorder_capacity: 0,
            ..MonitorConfig::default()
        });
        runner.run_monitored(&spec, 12, &off).unwrap();
        assert!(off.dumps().is_empty());
    }

    const JOB_CLOCKS: [&str; 2] = ["obs.pool.job.wait_us", "obs.pool.job.exec_us"];

    /// Observations of `name` in `metrics` (0 when it has none).
    fn observed(metrics: &MetricsRegistry, name: &str) -> u64 {
        metrics.histogram(name).map_or(0, |h| h.count)
    }

    #[test]
    fn a_monitored_lot_times_each_serving_job_once() {
        // One wait and one exec per serving job, at every thread count and
        // on either path; the replays of the defective dies add none.
        let soc = catalog::figure1_soc();
        let spec = VariationSpec::new(7, 0.25);
        let devices = 96;
        for packed in [true, false] {
            for threads in [1, 2] {
                let runner = FleetRunner::new(&soc, 8, packed_schedule(&soc, 8).unwrap())
                    .unwrap()
                    .with_threads(threads)
                    .with_packed(packed);
                for recorder_capacity in [64, 0] {
                    let (monitor, _rx) = FleetMonitor::with_config(MonitorConfig {
                        recorder_capacity,
                        ..MonitorConfig::default()
                    });
                    let metrics = MetricsRegistry::new();
                    runner
                        .run_monitored_with_metrics(&spec, devices, &metrics, &monitor, |_| {})
                        .unwrap();
                    assert_eq!(monitor.dumps().is_empty(), recorder_capacity == 0);
                    // A packed lot's jobs are its lane passes, its scalar
                    // fallbacks and one per cohort; a scalar lot runs one
                    // job per die.
                    let jobs = if packed {
                        [
                            "fleet.packed.lane.passes",
                            "fleet.packed.fallback.devices",
                            "fleet.packed.cohorts",
                        ]
                        .iter()
                        .map(|name| metrics.counter(name))
                        .sum()
                    } else {
                        devices
                    };
                    for name in JOB_CLOCKS {
                        assert_eq!(
                            observed(monitor.telemetry(), name),
                            jobs,
                            "{name}: packed {packed}, {threads} threads, \
                             recorder {recorder_capacity}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_reused_monitor_describes_each_run() {
        // Two runs on one monitor: each run's closing snapshot (its only
        // one, at an interval that never ticks) and registry hold that
        // run's six jobs, not the runs' sum.
        let soc = catalog::figure1_soc();
        let runner = FleetRunner::new(&soc, 8, packed_schedule(&soc, 8).unwrap())
            .unwrap()
            .with_threads(2);
        let spec = VariationSpec::new(7, 0.25);
        let (monitor, rx) = FleetMonitor::with_config(MonitorConfig {
            interval: Duration::MAX,
            ..MonitorConfig::default()
        });
        for run in 0..2 {
            let metrics = MetricsRegistry::new();
            runner
                .run_monitored_with_metrics(&spec, 96, &metrics, &monitor, |_| {})
                .unwrap();
            let snapshots: Vec<FleetSnapshot> = rx.try_iter().collect();
            let [last] = snapshots.as_slice() else {
                panic!("run {run}: {} snapshots", snapshots.len());
            };
            assert!(last.last);
            assert_eq!(
                (last.queue_wait_us.count, last.device_elapsed_us.count),
                (6, 96),
                "run {run}"
            );
            for name in JOB_CLOCKS {
                assert_eq!(observed(&metrics, name), 6, "run {run}: {name}");
                assert_eq!(observed(monitor.telemetry(), name), 6, "run {run}: {name}");
            }
        }
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
        poison(&shared.jobs);
        poison(&shared.device_elapsed);
        poison(&shared.dumps);
        poison(&tracker.recent);

        shared.begin_run();
        for id in 0..2 {
            shared.job_started(Instant::now(), vec![id]);
        }
        shared.job_finished(0);
        let failing = device(0, Verdict::Fail { mismatches: 1 }, true);
        shared.set_dumps(vec![DeviceDump {
            device_id: 0,
            defective: true,
            passed: false,
            dump: FlightRecorder::new(4).dump(),
        }]);
        tracker.record(&failing);

        let snap = shared.snapshot(&tracker, &RouteTableCache::new(), 0, true);
        assert_eq!((snap.completed, snap.failed, snap.in_flight), (1, 1, 1));
        assert_eq!(snap.stragglers.len(), 1, "device 1 is still in flight");
        assert_eq!(snap.device_elapsed_us.count, 1);
        assert_eq!(tracker.rolling_yield(), 0.0);
        let dumps = monitor.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].device_id, 0);
    }
}
