//! The slow-query recorder: a fixed-size ring buffer of the most recent
//! queries that crossed a latency threshold.
//!
//! The write path is designed so that *fast* queries (the overwhelming
//! majority) pay one comparison and nothing else. A slow query claims a
//! slot with a single `fetch_add` on the ring head and writes its entry
//! under that slot's own mutex — concurrent offenders hit different slots,
//! so recording never serializes the request path.
//!
//! Entries keep everything needed to reconstruct *why* a query was slow
//! without re-running it: the canonical (normalized) text, the engine, the
//! per-stage breakdown from the request's trace, and the trace id that ties
//! the entry to the access log. The service exposes the buffer at
//! `GET /debug/slow` and emits one structured stderr line per offender.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use turbohom_engine::{format_trace_id, EngineKind};
use turbohom_json::{Fixed3, JsonWriter, ToJson};

/// Canonical query text is truncated to this many bytes in an entry (the
/// buffer must stay small even if someone sends 1 MiB queries).
const MAX_CANONICAL_LEN: usize = 512;

/// One recorded slow query.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Trace id of the offending request (matches `X-Trace-Id`).
    pub trace_id: u64,
    /// Canonical (normalized) query text, truncated to 512 bytes.
    pub canonical: String,
    /// The engine that answered.
    pub engine: EngineKind,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Total request latency in milliseconds.
    pub total_ms: f64,
    /// Per-stage breakdown (stage name, milliseconds), pipeline order.
    pub stages_ms: Vec<(&'static str, f64)>,
    /// Solutions the query produced.
    pub solutions: usize,
    /// Service uptime (seconds) when the query finished — a poor man's
    /// timestamp that needs no clock beyond the service's own.
    pub uptime_secs: f64,
}

impl SlowQueryEntry {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| self.write_json(w))
    }

    /// The one-line structured log form (what goes to stderr).
    pub fn to_log_line(&self) -> String {
        let stage = |(name, ms): &(&str, f64)| format!("{name}:{ms:.3}");
        let stages: Vec<String> = self.stages_ms.iter().map(stage).collect();
        format!(
            "slow-query trace={} engine={} cache={} total_ms={:.3} solutions={} stages=[{}] query={:?}",
            format_trace_id(self.trace_id),
            self.engine.name(),
            if self.cache_hit { "HIT" } else { "MISS" },
            self.total_ms,
            self.solutions,
            stages.join(","),
            self.canonical,
        )
    }
}

impl ToJson for SlowQueryEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("trace_id", format_trace_id(self.trace_id))
            .field("engine", self.engine.name())
            .field("cache", if self.cache_hit { "HIT" } else { "MISS" })
            .field("total_ms", Fixed3(self.total_ms))
            .field("solutions", self.solutions)
            .field("uptime_secs", Fixed3(self.uptime_secs));
        w.key("stages_ms").begin_object();
        for &(name, ms) in &self.stages_ms {
            w.field(name, Fixed3(ms));
        }
        w.end_object().field("query", &self.canonical).end_object();
    }
}

/// A lock-free-on-the-fast-path ring buffer of slow queries.
pub struct SlowQueryLog {
    /// Queries at or above this duration are recorded; `None` disables the
    /// recorder entirely.
    threshold: Option<Duration>,
    slots: Vec<Mutex<Option<SlowQueryEntry>>>,
    head: AtomicU64,
}

impl SlowQueryLog {
    /// A recorder keeping the `capacity` most recent offenders at or above
    /// `threshold`. `Duration::ZERO` records every query (useful when
    /// debugging); `None` disables recording.
    pub fn new(capacity: usize, threshold: Option<Duration>) -> Self {
        let capacity = capacity.max(1);
        SlowQueryLog {
            threshold,
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The configured threshold (`None` = disabled).
    pub fn threshold(&self) -> Option<Duration> {
        self.threshold
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many queries have been recorded in total (recent
    /// `min(recorded, capacity)` of them are still in the ring).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Returns whether `elapsed` crosses the recording threshold — the only
    /// check fast queries pay.
    pub fn is_slow(&self, elapsed: Duration) -> bool {
        self.threshold.is_some_and(|t| elapsed >= t)
    }

    /// Records one offender (the caller already checked
    /// [`is_slow`](Self::is_slow), but recording re-checks so a direct call
    /// cannot bypass the threshold), truncating its query text.
    /// Returns `true` if the entry was stored.
    pub fn record(&self, mut entry: SlowQueryEntry) -> bool {
        if !self.is_slow(Duration::from_secs_f64(entry.total_ms / 1000.0)) {
            return false;
        }
        crate::journal::truncate_text(&mut entry.canonical, MAX_CANONICAL_LEN);
        let slot = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[slot].lock() = Some(entry);
        true
    }

    /// The current buffer contents, slowest first.
    pub fn snapshot(&self) -> Vec<SlowQueryEntry> {
        let mut entries: Vec<SlowQueryEntry> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        entries.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        entries
    }

    /// Renders the whole buffer as the `GET /debug/slow` JSON payload.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            let threshold_ms = self.threshold.map(|t| Fixed3(t.as_secs_f64() * 1000.0));
            w.begin_object()
                .field("threshold_ms", threshold_ms)
                .field("capacity", self.capacity())
                .field("recorded", self.recorded())
                .field("entries", self.snapshot())
                .end_object();
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(trace_id: u64, total_ms: f64) -> SlowQueryEntry {
        SlowQueryEntry {
            trace_id,
            canonical: format!("SELECT ?x{trace_id}"),
            engine: EngineKind::TurboHomPlusPlus,
            cache_hit: trace_id.is_multiple_of(2),
            total_ms,
            stages_ms: vec![("parse", 0.1), ("execute", total_ms - 0.1)],
            solutions: 5,
            uptime_secs: 1.0,
        }
    }

    #[test]
    fn threshold_filters_fast_queries() {
        let log = SlowQueryLog::new(4, Some(Duration::from_millis(100)));
        assert!(!log.is_slow(Duration::from_millis(99)));
        assert!(log.is_slow(Duration::from_millis(100)));
        assert!(!log.record(entry(1, 50.0)));
        assert!(log.record(entry(2, 150.0)));
        assert_eq!(log.snapshot().len(), 1);
        assert_eq!(log.recorded(), 1);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = SlowQueryLog::new(4, None);
        assert!(!log.is_slow(Duration::from_secs(100)));
        assert!(!log.record(entry(1, 1e6)));
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn zero_threshold_records_everything() {
        let log = SlowQueryLog::new(4, Some(Duration::ZERO));
        assert!(log.record(entry(1, 0.0)));
        assert_eq!(log.snapshot().len(), 1);
    }

    #[test]
    fn ring_wraps_keeping_the_most_recent() {
        let log = SlowQueryLog::new(2, Some(Duration::ZERO));
        for i in 1..=5u64 {
            assert!(log.record(entry(i, i as f64)));
        }
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        let ids: Vec<u64> = snap.iter().map(|e| e.trace_id).collect();
        // Entries 4 and 5 survive; the snapshot is slowest-first.
        assert_eq!(ids, vec![5, 4]);
        assert_eq!(log.recorded(), 5);
    }

    #[test]
    fn snapshot_sorts_slowest_first() {
        let log = SlowQueryLog::new(8, Some(Duration::ZERO));
        for (id, ms) in [(1, 5.0), (2, 50.0), (3, 0.5)] {
            log.record(entry(id, ms));
        }
        let ms: Vec<f64> = log.snapshot().iter().map(|e| e.total_ms).collect();
        assert_eq!(ms, vec![50.0, 5.0, 0.5]);
    }

    #[test]
    fn long_queries_are_truncated_on_a_char_boundary() {
        let log = SlowQueryLog::new(1, Some(Duration::ZERO));
        let mut e = entry(1, 10.0);
        e.canonical = "é".repeat(400); // 800 bytes of 2-byte chars
        assert!(log.record(e));
        let stored = &log.snapshot()[0].canonical;
        assert!(stored.len() <= MAX_CANONICAL_LEN + '…'.len_utf8());
        assert!(stored.ends_with('…'));
    }

    #[test]
    fn json_and_log_line_are_well_formed() {
        let log = SlowQueryLog::new(2, Some(Duration::from_millis(1)));
        log.record(entry(0x2a, 12.5));
        let json = log.to_json();
        assert!(json.starts_with("{\"threshold_ms\":1.000,"));
        assert!(json.contains("\"trace_id\":\"000000000000002a\""));
        assert!(json.contains("\"stages_ms\":{\"parse\":0.100,\"execute\":12.400}"));
        assert!(json.ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let line = log.snapshot()[0].to_log_line();
        assert!(line.starts_with("slow-query trace=000000000000002a "));
        assert!(line.contains("total_ms=12.500"));
        assert!(line.contains("stages=[parse:0.100,execute:12.400]"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_hostile_query_text_is_escaped_in_the_whole_document() {
        let log = SlowQueryLog::new(1, Some(Duration::ZERO));
        let mut e = entry(7, 2.0);
        e.canonical = "SELECT \"?x\"\n\\ \u{0}\u{1f} é } ] ,".into();
        log.record(e);
        assert_eq!(
            log.to_json(),
            "{\"threshold_ms\":0.000,\"capacity\":1,\"recorded\":1,\"entries\":[{\"trace_id\":\"0000000000000007\",\
             \"engine\":\"turbohom++\",\"cache\":\"MISS\",\"total_ms\":2.000,\"solutions\":5,\"uptime_secs\":1.000,\
             \"stages_ms\":{\"parse\":0.100,\"execute\":1.900},\
             \"query\":\"SELECT \\\"?x\\\"\\n\\\\ \\u0000\\u001f é } ] ,\"}]}"
        );
        // A disabled recorder says so with a null.
        let disabled = SlowQueryLog::new(1, None).to_json();
        assert!(disabled.starts_with("{\"threshold_ms\":null,\"capacity\":1,"));
        assert!(disabled.ends_with("\"entries\":[]}"));
    }
}
