//! In-memory spans recorded around the harness's calls into each layer.
//!
//! A span is `{query_id, span_id, parent_id, name, start_us, end_us}`; spans
//! of one query share its `query_id`. They are kept in memory while the
//! clocks run and written out as JSON lines when the benchmark ends. A
//! layer's *self time* is its spans' duration minus the part their child
//! spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The `query_id` of spans that belong to no query (store drive, set-up).
pub const NO_QUERY: i64 = -1;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the measured query this span belongs to, or [`NO_QUERY`].
    pub query_id: i64,
    /// Unique id of the span within the run.
    pub span_id: u64,
    /// The span that caused this one.
    pub parent_id: Option<u64>,
    /// `<layer>.<operation>`, e.g. `llm.client.round_trip`.
    pub name: &'static str,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
}

impl Span {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread against one epoch.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now; disabled until [`Recorder::set_enabled`].
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Microseconds since the epoch of an instant taken elsewhere.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as f64 / 1e3
    }

    /// Switch recording on or off (the traced run alternates, so that the
    /// same process measures the tracing overhead).
    pub fn set_enabled(&self, enabled: bool) {
        // Relaxed: the flag publishes no other data.
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh span id, for a parent whose children are recorded first.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id.
    pub fn push_with_id(
        &self,
        span_id: u64,
        query_id: i64,
        parent_id: Option<u64>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(Span {
                query_id,
                span_id,
                parent_id,
                name,
                start_us,
                end_us,
            });
    }

    /// Record a finished span, returning its id.
    pub fn push(
        &self,
        query_id: i64,
        parent_id: Option<u64>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let span_id = self.reserve_id();
        self.push_with_id(span_id, query_id, parent_id, name, start_us, end_us);
        span_id
    }

    /// Run `work` inside a span, returning its result and duration in
    /// microseconds.
    pub fn time<T>(
        &self,
        query_id: i64,
        parent_id: Option<u64>,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let result = work();
        let end_us = self.now_us();
        self.push(query_id, parent_id, name, start_us, end_us);
        (result, end_us - start_us)
    }

    /// All spans recorded so far, ordered by start.
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        spans
    }
}

/// Per span name: how many spans, their total duration, and their self time
/// (duration minus the part child spans cover), both in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans with this name.
    pub count: usize,
    /// Sum of their durations.
    pub total_us: f64,
    /// Sum of their self times.
    pub self_us: f64,
}

/// Self-time arithmetic over a set of spans, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent_id {
            children
                .entry(parent)
                .or_default()
                .push((span.start_us, span.end_us));
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.span_id)
            .map_or(0.0, |intervals| covered_us(intervals, span));
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_us += span.duration_us();
        layer.self_us += span.duration_us() - covered;
    }
    layers
}

/// Length of the union of `intervals`, clipped to `parent`.
fn covered_us(intervals: &mut [(f64, f64)], parent: &Span) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = parent.start_us;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(parent.end_us);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// One span as a JSON object on one line.
pub fn span_json(span: &Span) -> String {
    let parent = span
        .parent_id
        .map_or_else(|| "null".to_string(), |id| id.to_string());
    format!(
        "{{\"query_id\": {}, \"span_id\": {}, \"parent_id\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}",
        span.query_id, span.span_id, parent, span.name, span.start_us, span.end_us
    )
}

/// Write `spans` to `path`, one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(out, "{}", span_json(span))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            query_id: 0,
            span_id: id,
            parent_id: parent,
            name,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        // query [0, 100]
        //   llm [10, 40]            (leaf)
        //   step [30, 70]           overlaps llm by 10
        //     probe [35, 45]
        //   late [90, 120]          sticks out of the parent: clipped to 10
        let spans = vec![
            span(1, None, "query", 0.0, 100.0),
            span(2, Some(1), "llm", 10.0, 40.0),
            span(3, Some(1), "step", 30.0, 70.0),
            span(4, Some(3), "probe", 35.0, 45.0),
            span(5, Some(1), "late", 90.0, 120.0),
        ];
        let layers = self_times(&spans);
        // Children cover [10, 70] and [90, 100] of the query: 70 of 100.
        assert_eq!(layers["query"].self_us, 30.0);
        assert_eq!(layers["query"].total_us, 100.0);
        assert_eq!(layers["llm"].self_us, 30.0);
        assert_eq!(layers["step"].self_us, 30.0);
        assert_eq!(layers["probe"].self_us, 10.0);
        assert_eq!(layers["late"].self_us, 30.0);
        assert_eq!(layers["query"].count, 1);
    }

    #[test]
    fn spans_of_one_name_accumulate() {
        let spans = vec![
            span(1, None, "step", 0.0, 10.0),
            span(2, None, "step", 20.0, 25.0),
            span(3, Some(2), "probe", 21.0, 23.0),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["step"].count, 2);
        assert_eq!(layers["step"].total_us, 15.0);
        assert_eq!(layers["step"].self_us, 13.0);
    }

    #[test]
    fn recorder_times_work_and_orders_spans() {
        let recorder = Recorder::new();
        let parent = recorder.reserve_id();
        let start = recorder.now_us();
        let (value, elapsed) = recorder.time(3, Some(parent), "child", || 7);
        recorder.push_with_id(parent, 3, None, "parent", start, recorder.now_us());
        assert_eq!(value, 7);
        assert!(elapsed >= 0.0);
        let spans = recorder.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "parent");
        assert_eq!(spans[1].parent_id, Some(parent));
    }

    #[test]
    fn span_lines_are_well_formed_json_objects() {
        let line = span_json(&span(4, Some(3), "engine.sql.step", 1.5, 2.25));
        assert_eq!(
            line,
            "{\"query_id\": 0, \"span_id\": 4, \"parent_id\": 3, \"name\": \"engine.sql.step\", \"start_us\": 1.500, \"end_us\": 2.250}"
        );
        assert!(span_json(&span(1, None, "query", 0.0, 1.0)).contains("\"parent_id\": null"));
    }
}
