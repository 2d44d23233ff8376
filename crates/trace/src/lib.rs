//! Span tracing for the TurboHOM++ query pipeline.
//!
//! The paper's central claim is about *where* query time goes — type-aware
//! transform, candidate-region filtering, matching-order selection,
//! enumeration — so the service needs a way to attribute latency to those
//! stages per query. This crate provides exactly that and nothing more:
//!
//! - [`Trace`] — a cheap, cloneable handle. A disabled trace
//!   ([`Trace::disabled`]) makes every operation a no-op with no allocation,
//!   so the hot path of an untraced query pays a single `Option` check.
//! - [`Span`] — an RAII guard over a named region. Spans carry monotonic
//!   timings (offsets from the trace start, measured with [`Instant`]),
//!   optional integer counters, and a parent link, forming a tree.
//! - [`TraceReport`] — the finished tree plus per-stage roll-ups
//!   (root spans summed by name), renderable as JSON for the `profile=1`
//!   extension block in SPARQL-JSON responses.
//!
//! Two enablement levels keep overhead proportional to what is asked for:
//! a *coarse* trace ([`Trace::new`]) records only the spans the service
//! layer opens (a handful per request, feeding the always-on per-stage time
//! totals in `/metrics`), while a *detailed* trace ([`Trace::detailed`])
//! additionally makes the matching core time candidate-region exploration,
//! matching-order selection and per-worker enumeration.
//!
//! The crate depends only on `std` and the workspace's JSON writer so every
//! layer of the workspace — `turbohom-core`, `turbohom-engine`,
//! `turbohom-service` — can link it without cycles.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use turbohom_json::Fixed3;

/// Identifier of one span within its trace (dense, starting at 0).
pub type SpanId = u32;

/// One finished span: a named, timed region of the query pipeline.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Dense per-trace identifier.
    pub id: SpanId,
    /// Parent span, `None` for pipeline-stage roots.
    pub parent: Option<SpanId>,
    /// Static stage name (`"parse"`, `"enumeration"`, …).
    pub name: &'static str,
    /// Start offset from the trace start, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_ns: u64,
    /// Optional integer counters attached by the instrumented code
    /// (e.g. `("candidate_regions", 42)`).
    pub counters: Vec<(&'static str, u64)>,
}

struct TraceInner {
    trace_id: u64,
    started: Instant,
    detailed: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A handle to one query's trace. Cloning is cheap (an `Arc` bump); all
/// clones record into the same span tree, so worker threads can each hold
/// one. A disabled handle turns every operation into a no-op.
#[derive(Clone)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// A trace that records nothing. Every span it opens is a no-op and
    /// allocates nothing; this is what untraced hot paths pass around.
    pub fn disabled() -> Trace {
        Trace { inner: None }
    }

    /// A coarse trace: records the spans explicitly opened on it, but
    /// [`is_detailed`](Trace::is_detailed) stays false so the matching core
    /// skips its fine-grained (per-region, per-worker) instrumentation.
    pub fn new(trace_id: u64) -> Trace {
        Trace::build(trace_id, false)
    }

    /// A detailed trace: additionally asks the matching core to time
    /// candidate-region exploration, matching-order selection and
    /// per-worker enumeration. Used by `profile=1`.
    pub fn detailed(trace_id: u64) -> Trace {
        Trace::build(trace_id, true)
    }

    fn build(trace_id: u64, detailed: bool) -> Trace {
        Trace {
            inner: Some(Arc::new(TraceInner {
                trace_id,
                started: Instant::now(),
                detailed,
                next_id: AtomicU32::new(0),
                // A profiled request writes a dozen spans or so; room for them
                // up front spares the writers the regrowth.
                spans: Mutex::new(Vec::with_capacity(16)),
            })),
        }
    }

    /// Whether spans opened on this trace are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether the matching core should emit fine-grained spans too.
    pub fn is_detailed(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.detailed)
    }

    /// The trace id, or 0 when disabled.
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.trace_id)
    }

    /// Opens a root span (a pipeline stage). The span records itself when
    /// dropped or explicitly [`finish`](Span::finish)ed.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_under(name, None)
    }

    /// Opens a span under `parent` (pass a span's [`id`](Span::id), which
    /// is `None` on a disabled trace — the child is then a no-op root).
    pub fn span_under(&self, name: &'static str, parent: Option<SpanId>) -> Span<'_> {
        match &self.inner {
            None => Span {
                inner: None,
                id: 0,
                parent: None,
                name,
                start: None,
                counters: Vec::new(),
                recorded: true,
            },
            Some(inner) => Span {
                inner: Some(inner),
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                start: Some(Instant::now()),
                counters: Vec::new(),
                recorded: false,
            },
        }
    }

    /// Records a rolled-up span directly: a region whose duration was
    /// accumulated elsewhere (e.g. exploration time summed across candidate
    /// regions). Its start offset is back-dated by `duration` from now.
    /// Returns the new span's id, or `None` when the trace is disabled.
    pub fn record_rollup(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        duration: Duration,
        counters: &[(&'static str, u64)],
    ) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let duration_ns = saturating_ns(duration);
        let end_ns = saturating_ns(inner.started.elapsed());
        inner.spans.lock().unwrap().push(SpanRecord {
            id,
            parent,
            name,
            start_ns: end_ns.saturating_sub(duration_ns),
            duration_ns,
            counters: counters.to_vec(),
        });
        Some(id)
    }

    /// Snapshots the trace into a report. Safe to call while clones are
    /// still alive; spans recorded afterwards are simply not included.
    /// A disabled trace yields an empty report with `trace_id` 0.
    pub fn finish(&self) -> TraceReport {
        let Some(inner) = self.inner.as_ref() else {
            return TraceReport::default();
        };
        let mut spans = inner.spans.lock().unwrap().clone();
        spans.sort_by_key(|s| s.id);
        TraceReport {
            trace_id: inner.trace_id,
            total_ns: saturating_ns(inner.started.elapsed()),
            spans,
        }
    }
}

fn saturating_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// An open span: records itself into the trace when finished or dropped.
pub struct Span<'t> {
    inner: Option<&'t Arc<TraceInner>>,
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start: Option<Instant>,
    counters: Vec<(&'static str, u64)>,
    recorded: bool,
}

impl Span<'_> {
    /// This span's id, for parenting children — `None` when the trace is
    /// disabled, which makes `span_under(.., span.id())` compose safely.
    pub fn id(&self) -> Option<SpanId> {
        self.inner.map(|_| self.id)
    }

    /// Attaches an integer counter (no-op on a disabled trace).
    pub fn counter(&mut self, name: &'static str, value: u64) {
        if self.inner.is_some() {
            self.counters.push((name, value));
        }
    }

    /// Closes the span now. Equivalent to dropping it, but reads better at
    /// the end of a stage.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        let (Some(inner), Some(start)) = (self.inner, self.start) else {
            return;
        };
        let start_ns = saturating_ns(start.duration_since(inner.started));
        inner.spans.lock().unwrap().push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns,
            duration_ns: saturating_ns(start.elapsed()),
            counters: std::mem::take(&mut self.counters),
        });
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.record();
    }
}

/// A finished trace: the span tree plus stage roll-ups.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The id the trace was created with (0 for a disabled trace).
    pub trace_id: u64,
    /// Wall-clock nanoseconds from trace creation to [`Trace::finish`].
    pub total_ns: u64,
    /// All recorded spans, ordered by id (creation order).
    pub spans: Vec<SpanRecord>,
}

impl TraceReport {
    /// Total traced time in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_ns as f64 / 1_000.0
    }

    /// Per-stage roll-up: root spans (no parent) summed by name, in first-
    /// seen order. Because the service opens one root span per pipeline
    /// stage, these sum to approximately the total request latency.
    pub fn stages(&self) -> Vec<(&'static str, u64)> {
        let mut stages: Vec<(&'static str, u64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.parent.is_none()) {
            match stages.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, ns)) => *ns += span.duration_ns,
                None => stages.push((span.name, span.duration_ns)),
            }
        }
        stages
    }

    /// Sum of all stage durations, in nanoseconds.
    pub fn stage_total_ns(&self) -> u64 {
        self.stages().iter().map(|(_, ns)| ns).sum()
    }

    /// Total duration of every span named `name` (across the whole tree,
    /// not just roots), in nanoseconds. Used by the bench recorder to pull
    /// out e.g. `candidate_regions` time.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns)
            .sum()
    }

    /// Renders the report as a JSON object:
    ///
    /// ```json
    /// {"trace_id":"000000000000002a","total_us":123.456,
    ///  "stages":{"parse":10.0,"execute":100.0},
    ///  "spans":[{"id":0,"parent":null,"name":"parse","start_us":0.1,
    ///            "dur_us":10.0,"counters":{"tokens":42}}]}
    /// ```
    ///
    /// Durations are microseconds with nanosecond precision; `stages` keys
    /// appear in pipeline order.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            // Microseconds with 3 decimals (i.e. nanosecond precision) so that
            // sub-microsecond stages don't collapse to zero in profile output.
            let us = |ns: u64| Fixed3(ns as f64 / 1_000.0);
            w.begin_object()
                .field("trace_id", format_trace_id(self.trace_id))
                .field("total_us", us(self.total_ns));
            w.key("stages").begin_object();
            for (name, ns) in self.stages() {
                w.field(name, us(ns));
            }
            w.end_object().key("spans").begin_array();
            for span in &self.spans {
                w.begin_object()
                    .field("id", span.id)
                    .field("parent", span.parent)
                    .field("name", span.name)
                    .field("start_us", us(span.start_ns))
                    .field("dur_us", us(span.duration_ns));
                w.key("counters").begin_object();
                for &(name, value) in &span.counters {
                    w.field(name, value);
                }
                w.end_object().end_object();
            }
            w.end_array().end_object();
        })
    }
}

/// Formats a trace id the way the service exposes it everywhere
/// (`X-Trace-Id` header, access log, slow-query log): 16 hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn disabled_trace_is_a_noop() {
        let trace = Trace::disabled();
        assert!(!trace.is_enabled());
        assert!(!trace.is_detailed());
        assert_eq!(trace.trace_id(), 0);
        let mut span = trace.span("parse");
        span.counter("tokens", 9);
        assert_eq!(span.id(), None);
        let child = trace.span_under("inner", span.id());
        assert_eq!(child.id(), None);
        drop(child);
        span.finish();
        assert_eq!(
            trace.record_rollup("x", None, Duration::from_micros(5), &[]),
            None
        );
        let report = trace.finish();
        assert_eq!(report.trace_id, 0);
        assert!(report.spans.is_empty());
        assert!(report.stages().is_empty());
    }

    #[test]
    fn spans_record_parents_counters_and_timings() {
        let trace = Trace::new(42);
        assert!(trace.is_enabled());
        assert!(!trace.is_detailed());
        let mut root = trace.span("execute");
        root.counter("solutions", 7);
        let root_id = root.id();
        assert!(root_id.is_some());
        {
            let mut child = trace.span_under("enumeration", root_id);
            child.counter("recursions", 3);
            thread::sleep(Duration::from_millis(1));
        }
        root.finish();
        let report = trace.finish();
        assert_eq!(report.trace_id, 42);
        assert_eq!(report.spans.len(), 2);
        let root = report.spans.iter().find(|s| s.name == "execute").unwrap();
        let child = report
            .spans
            .iter()
            .find(|s| s.name == "enumeration")
            .unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.counters, vec![("solutions", 7)]);
        assert_eq!(child.counters, vec![("recursions", 3)]);
        // The child slept ≥ 1ms; the enclosing root must cover it.
        assert!(child.duration_ns >= 1_000_000);
        assert!(root.duration_ns >= child.duration_ns);
        assert!(child.start_ns >= root.start_ns);
        assert!(report.total_ns >= root.duration_ns);
    }

    #[test]
    fn stages_sum_roots_by_name_in_first_seen_order() {
        let trace = Trace::new(1);
        trace.record_rollup("parse", None, Duration::from_micros(10), &[]);
        trace.record_rollup("execute", None, Duration::from_micros(100), &[]);
        // A second root with a repeated name accumulates into the stage.
        trace.record_rollup("parse", None, Duration::from_micros(5), &[]);
        // Children never contribute to stage totals.
        trace.record_rollup("worker", Some(1), Duration::from_micros(90), &[]);
        let report = trace.finish();
        let stages = report.stages();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0], ("parse", 15_000));
        assert_eq!(stages[1], ("execute", 100_000));
        assert_eq!(report.stage_total_ns(), 115_000);
        assert_eq!(report.span_total_ns("worker"), 90_000);
    }

    #[test]
    fn rollup_backdates_start_and_attaches_counters() {
        let trace = Trace::detailed(7);
        assert!(trace.is_detailed());
        thread::sleep(Duration::from_millis(2));
        let id = trace
            .record_rollup(
                "candidate_regions",
                None,
                Duration::from_millis(1),
                &[("regions", 4)],
            )
            .unwrap();
        let report = trace.finish();
        let span = report.spans.iter().find(|s| s.id == id).unwrap();
        assert_eq!(span.duration_ns, 1_000_000);
        assert_eq!(span.counters, vec![("regions", 4)]);
        // Back-dated start: it slept ≥ 2ms before recording a 1ms rollup,
        // so the span starts strictly after the trace did and still ends
        // before the trace finished.
        assert!(span.start_ns > 0);
        assert!(span.start_ns + span.duration_ns <= report.total_ns);
    }

    #[test]
    fn clones_record_into_the_same_tree_across_threads() {
        let trace = Trace::new(3);
        let root = trace.span("enumeration");
        let root_id = root.id();
        thread::scope(|scope| {
            for w in 0..4u64 {
                let worker_trace = trace.clone();
                scope.spawn(move || {
                    let mut span = worker_trace.span_under("worker", root_id);
                    span.counter("worker", w);
                });
            }
        });
        root.finish();
        let report = trace.finish();
        assert_eq!(report.spans.len(), 5);
        assert!(report.span_total_ns("worker") > 0);
        let workers: Vec<_> = report.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|s| s.parent == root_id));
        // Ids are unique and the report is ordered by id.
        let ids: Vec<_> = report.spans.iter().map(|s| s.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn json_shape_is_stable() {
        let trace = Trace::new(0x2a);
        {
            let mut span = trace.span("parse");
            span.counter("tokens", 12);
        }
        let report = trace.finish();
        let json = report.to_json();
        assert!(json.starts_with("{\"trace_id\":\"000000000000002a\""));
        assert!(json.contains("\"total_us\":"));
        assert!(json.contains("\"stages\":{\"parse\":"));
        assert!(json.contains("\"name\":\"parse\""));
        assert!(json.contains("\"counters\":{\"tokens\":12}"));
        assert!(json.ends_with("]}"));
        assert_eq!(format_trace_id(0x2a), "000000000000002a");
    }

    /// Pins the exact member order of every span object. Consumers of
    /// `profile=1`, `/debug/slow` and the journal join on this shape — a
    /// reordered or renamed member is a breaking change, so spell it out.
    #[test]
    fn span_objects_keep_their_member_order_and_nesting() {
        let trace = Trace::detailed(0xbeef);
        {
            let parent = trace.span("execute");
            {
                let mut child = trace.span_under("worker", parent.id());
                child.counter("worker", 3);
                child.counter("rows", 7);
            }
        }
        let report = trace.finish();
        let json = report.to_json();
        assert!(json.starts_with("{\"trace_id\":\"000000000000beef\",\"total_us\":"));

        // Exactly the documented members, in order, in every span object.
        let spans_at = json.find(",\"spans\":[").expect("spans array present");
        let spans = &json[spans_at + ",\"spans\":[".len()..];
        for obj in spans.trim_end_matches("]}").split("},{") {
            let mut pos = 0;
            for key in [
                "\"id\":",
                "\"parent\":",
                "\"name\":",
                "\"start_us\":",
                "\"dur_us\":",
                "\"counters\":",
            ] {
                match obj[pos..].find(key) {
                    Some(at) => pos += at + key.len(),
                    None => panic!("{key} missing or out of order in {obj}"),
                }
            }
        }

        // The child points at its parent and keeps insertion-ordered
        // counters.
        let parent_span = &report.spans[0];
        let child_span = &report.spans[1];
        assert_eq!(parent_span.name, "execute");
        assert_eq!(child_span.parent, Some(parent_span.id));
        assert!(json.contains("\"counters\":{\"worker\":3,\"rows\":7}"));
    }
}
