//! In-memory span recording for the traced replay, and the self-time
//! arithmetic the layer ledger is built from.
//!
//! A span is one call into a layer: a name, its start and end on the
//! recorder's clock, the span that caused it, and the lot it belongs to.
//! Spans stay in memory until the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, `<layer>.<what>`.
    pub name: &'static str,
    /// The lot this span belongs to; every span of one lot shares it.
    pub lot: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// Wall time between start and end, in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Thread-safe span store shared by the replay's main thread and its pool
/// workers.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `body` inside a new span, handing it the span's index so calls
    /// it makes can name it as their parent.
    pub fn time<T>(
        &self,
        name: &'static str,
        lot: u64,
        parent: Option<usize>,
        body: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let start = self.now();
            spans.push(Span {
                name,
                lot,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = body(id);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// The spans as JSON lines, one object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"lot\": {}, \"parent\": {parent}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                span.name, span.lot, span.start, span.end
            );
        }
        out
    }
}

/// Merges intervals into disjoint, sorted ones.
fn union(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.retain(|(a, b)| b > a);
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (a, b) in intervals {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// The parts of each span's interval that none of its children cover:
/// `self_intervals(spans)[i]` is span `i`'s self time as disjoint
/// intervals. Children may overlap each other (pool workers run side by
/// side); their union is subtracted once.
pub fn self_intervals(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let clipped = kids
                .into_iter()
                .map(|(a, b)| (a.max(span.start), b.min(span.end)))
                .collect();
            let mut free = Vec::new();
            let mut cursor = span.start;
            for (a, b) in union(clipped) {
                if a > cursor {
                    free.push((cursor, a));
                }
                cursor = cursor.max(b);
            }
            if span.end > cursor {
                free.push((cursor, span.end));
            }
            free
        })
        .collect()
}

/// Each span's share of the wall clock: its self time, with every instant
/// at which `k` spans are in their self time split `k` ways. Shares add up
/// to the wall time covered by at least one span, so summing them per
/// layer gives a ledger that cannot double-count parallel workers.
pub fn wall_shares(spans: &[Span]) -> Vec<f64> {
    let mut events: Vec<(f64, bool, usize)> = Vec::new();
    for (id, intervals) in self_intervals(spans).into_iter().enumerate() {
        for (a, b) in intervals {
            events.push((a, true, id));
            events.push((b, false, id));
        }
    }
    // Ends sort before starts at the same instant, so touching intervals
    // never count as concurrent.
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut shares = vec![0.0; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0.0;
    for (at, opens, id) in events {
        if !active.is_empty() {
            let each = (at - last) / active.len() as f64;
            for &a in &active {
                shares[a] += each;
            }
        }
        last = at;
        if opens {
            active.push(id);
        } else if let Some(pos) = active.iter().position(|&a| a == id) {
            active.swap_remove(pos);
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_time(spans: &[Span], id: usize) -> f64 {
        self_intervals(spans)[id].iter().map(|(a, b)| b - a).sum()
    }

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            lot: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A 10 s parent whose two children overlap on [3, 5]: together they
        // cover [2, 7], so the parent's own time is 10 - 5 = 5 s.
        let spans = vec![
            span("fleet.serve", None, 0.0, 10.0),
            span("packed.cohort", Some(0), 2.0, 5.0),
            span("packed.cohort", Some(0), 3.0, 7.0),
            // A grandchild covers its parent, not the root.
            span("scalar.run", Some(2), 4.0, 6.0),
        ];
        assert!((self_time(&spans, 0) - 5.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 3.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 3) - 2.0).abs() < 1e-12);
        assert_eq!(self_intervals(&spans)[0], vec![(0.0, 2.0), (7.0, 10.0)]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("fleet.serve", None, 1.0, 4.0),
            span("packed.cohort", Some(0), 0.0, 2.0),
            span("packed.cohort", Some(0), 3.5, 9.0),
        ];
        assert!((self_time(&spans, 0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn wall_shares_split_parallel_self_time_and_sum_to_covered_wall() {
        let spans = vec![
            span("fleet.serve", None, 0.0, 10.0),
            span("packed.cohort", Some(0), 2.0, 5.0),
            span("packed.cohort", Some(0), 3.0, 7.0),
        ];
        let shares = wall_shares(&spans);
        // [3, 5] is shared by both cohorts: each gets 1 s of it.
        assert!((shares[0] - 5.0).abs() < 1e-12);
        assert!((shares[1] - 2.0).abs() < 1e-12);
        assert!((shares[2] - 3.0).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_exports_lines() {
        let recorder = Recorder::new();
        recorder.time("fleet.serve", 3, None, |root| {
            recorder.time("fleet.assemble", 3, Some(root), |_| ());
        });
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(spans[1].layer(), "fleet");
        assert_eq!(recorder.to_jsonl().lines().count(), 2);
    }
}
