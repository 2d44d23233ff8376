//! The structured event journal: a lock-light ring of typed service events,
//! and the slow-query view over it.
//!
//! The journal answers "what happened, in order": every query admission and
//! outcome, every plan-cache insert and eviction, the store load at startup
//! and the structures built on first use — each stamped with a sequence
//! number, the service uptime, and (where one exists) the request's trace
//! id, so journal lines join the access log and `profile=1` output on
//! `X-Trace-Id`. A finished request is **one** entry, `query_completed`; one
//! that crossed the slow threshold carries its stage breakdown and text in
//! it and is kept a second time in a ring of its own (`GET /debug/slow`),
//! because the fast requests around it turn the event ring over in
//! milliseconds (docs/OBSERVABILITY.md has the arithmetic).
//!
//! Claiming a slot is one `fetch_add` on the ring head, and the entry is
//! written under that slot's own mutex, so concurrent writers hit different
//! slots and never serialize the request path. The event ring is served as
//! JSONL (one JSON object per line, oldest first) at `GET /debug/events`,
//! and can be tee'd to a file (`turbohom-server --journal FILE`) — the file
//! keeps every event, the rings only the most recent.

use parking_lot::Mutex;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use turbohom_engine::{format_trace_id, EngineKind};
use turbohom_json::{Fixed3, JsonWriter, ToJson};

/// Events the journal keeps (`/debug/events`).
pub const EVENT_CAPACITY: usize = 256;

/// Slow completions the journal keeps beyond that (`/debug/slow`).
pub const SLOW_CAPACITY: usize = 32;

/// Every query text the journal keeps (plan events, slow completions) is
/// truncated to this many bytes: the rings must stay small even if someone
/// sends 1 MiB queries.
const MAX_QUERY_LEN: usize = 512;

/// What a request that crossed the slow threshold leaves behind, beyond
/// what every completion records.
#[derive(Debug, Clone)]
pub struct SlowDetail {
    /// Per-stage breakdown (stage name, milliseconds), pipeline order.
    pub stages_ms: Vec<(&'static str, f64)>,
    /// Canonical (normalized) query text (truncated).
    pub query: String,
}

/// One typed journal event. The variants map one-to-one onto the `event`
/// field of a journal line.
#[derive(Debug, Clone)]
pub enum JournalEvent {
    /// A request entered the service, before any work ran. `mode` is
    /// `"query"`, `"profile"`, `"explain"` or `"analyze"`.
    QueryAdmitted {
        /// The engine that will answer.
        engine: EngineKind,
        /// The request mode.
        mode: &'static str,
    },
    /// A request finished successfully: its one record.
    QueryCompleted {
        /// The engine that answered.
        engine: EngineKind,
        /// The request mode, as admitted.
        mode: &'static str,
        /// Whether the plan came from the cache.
        cache_hit: bool,
        /// Solutions produced (zero for `explain`, which never executes).
        solutions: usize,
        /// Total request latency in milliseconds.
        total_ms: f64,
        /// On a sharded store, the routing decision: shards ownership
        /// routing skipped, and shards left live.
        shards: Option<(usize, usize)>,
        /// Present when the request crossed the slow threshold: the entry
        /// is then kept in the slow ring as well.
        slow: Option<SlowDetail>,
    },
    /// A request returned an error.
    QueryFailed {
        /// The engine that was asked.
        engine: EngineKind,
        /// The error message.
        error: String,
    },
    /// A freshly prepared plan entered the cache.
    PlanCached {
        /// The engine the plan was prepared for.
        engine: EngineKind,
        /// Canonical query text (truncated).
        query: String,
    },
    /// A plan was evicted to make room for another.
    PlanEvicted {
        /// The evicted plan's engine.
        engine: EngineKind,
        /// The evicted plan's canonical query text (truncated).
        query: String,
    },
    /// The store was loaded or memory-mapped at startup.
    StoreLoaded {
        /// `"single"` or `"sharded"`.
        flavor: &'static str,
        /// Storage backend name (`"heap"` or `"snapshot"`).
        backend: &'static str,
        /// Triples in the store.
        triples: usize,
        /// Whether the store is served from a memory-mapped snapshot.
        mapped: bool,
        /// Per structure (`freeze`, `type_aware`, `direct`, `permutations`)
        /// built before the service started: the milliseconds it took, and
        /// the process's resident high-water mark right after it (both 0 for
        /// a structure not built yet, or mapped instead of built). Rendered as
        /// `<structure>_ms` and `<structure>_peak_bytes` members.
        builds: [(&'static str, f64, u64); 4],
    },
    /// A derived structure was built by the first plan that reads it; the
    /// entry's trace id is the request that caused (and waited for) it.
    StructureBuilt {
        /// `direct` or `permutations`.
        structure: &'static str,
        /// Wall-clock milliseconds the build took.
        ms: f64,
        /// Bytes the built structure holds.
        bytes: u64,
        /// The process's resident high-water mark right after the build.
        peak_bytes: u64,
    },
}

impl JournalEvent {
    /// The snake_case event name (the `event` field of a journal line).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::QueryAdmitted { .. } => "query_admitted",
            JournalEvent::QueryCompleted { .. } => "query_completed",
            JournalEvent::QueryFailed { .. } => "query_failed",
            JournalEvent::PlanCached { .. } => "plan_cached",
            JournalEvent::PlanEvicted { .. } => "plan_evicted",
            JournalEvent::StoreLoaded { .. } => "store_loaded",
            JournalEvent::StructureBuilt { .. } => "structure_built",
        }
    }

    /// The query text the event carries, if it does.
    fn query_mut(&mut self) -> Option<&mut String> {
        match self {
            JournalEvent::PlanCached { query, .. } | JournalEvent::PlanEvicted { query, .. } => {
                Some(query)
            }
            JournalEvent::QueryCompleted { slow, .. } => slow.as_mut().map(|s| &mut s.query),
            _ => None,
        }
    }

    /// Writes the variant-specific members into the entry's open object.
    fn write_fields(&self, w: &mut JsonWriter<'_>) {
        match self {
            JournalEvent::QueryAdmitted { engine, mode } => {
                w.field("engine", engine.name()).field("mode", mode);
            }
            JournalEvent::QueryCompleted {
                engine,
                mode,
                cache_hit,
                solutions,
                total_ms,
                shards,
                slow,
            } => {
                w.field("engine", engine.name())
                    .field("mode", mode)
                    .field("cache", if *cache_hit { "HIT" } else { "MISS" })
                    .field("solutions", solutions)
                    .field("total_ms", Fixed3(*total_ms));
                if let Some((pruned, executed)) = shards {
                    w.field("shards_pruned", pruned)
                        .field("shards_executed", executed);
                }
                w.field("slow", slow.is_some());
                if let Some(SlowDetail { stages_ms, query }) = slow {
                    w.key("stages_ms").begin_object();
                    for &(name, ms) in stages_ms {
                        w.field(name, Fixed3(ms));
                    }
                    w.end_object().field("query", query);
                }
            }
            JournalEvent::QueryFailed { engine, error } => {
                w.field("engine", engine.name()).field("error", error);
            }
            JournalEvent::PlanCached { engine, query }
            | JournalEvent::PlanEvicted { engine, query } => {
                w.field("engine", engine.name()).field("query", query);
            }
            JournalEvent::StoreLoaded {
                flavor,
                backend,
                triples,
                mapped,
                builds,
            } => {
                w.field("store", flavor)
                    .field("backend", backend)
                    .field("triples", triples)
                    .field("mapped", mapped);
                for (structure, ms, peak_bytes) in builds {
                    w.field(&format!("{structure}_ms"), Fixed3(*ms))
                        .field(&format!("{structure}_peak_bytes"), peak_bytes);
                }
            }
            JournalEvent::StructureBuilt {
                structure,
                ms,
                bytes,
                peak_bytes,
            } => {
                w.field("structure", structure)
                    .field("ms", Fixed3(*ms))
                    .field("bytes", bytes)
                    .field("peak_bytes", peak_bytes);
            }
        }
    }
}

/// One journal entry: the event plus its correlation metadata.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Monotone sequence number (global order across all events).
    pub seq: u64,
    /// Service uptime in seconds when the event happened.
    pub uptime_secs: f64,
    /// Trace id of the request the event belongs to (`None` for events
    /// outside any request, e.g. the startup `store_loaded`).
    pub trace_id: Option<u64>,
    /// The typed event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// Renders the entry as one JSON object (one JSONL line, no newline).
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| self.write_json(w))
    }

    /// What the slow view sorts by (zero for anything but a completion).
    fn total_ms(&self) -> f64 {
        match self.event {
            JournalEvent::QueryCompleted { total_ms, .. } => total_ms,
            _ => 0.0,
        }
    }
}

impl ToJson for JournalEntry {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("seq", self.seq)
            .field("uptime_secs", Fixed3(self.uptime_secs))
            .field("trace", self.trace_id.map(format_trace_id))
            .field("event", self.event.kind());
        self.event.write_fields(w);
        w.end_object();
    }
}

/// A ring of the most recent values pushed into it.
struct Ring<T> {
    slots: Vec<Mutex<Option<T>>>,
    head: AtomicU64,
}

impl<T: Clone> Ring<T> {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Ordinals claimed so far (the values of the most recent
    /// `min(claimed, capacity)` of them are still in the ring).
    fn claimed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Claims the next ordinal, and with it the slot of the oldest value.
    fn claim(&self) -> u64 {
        self.head.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores the value that belongs to a claimed `ordinal`.
    fn store(&self, ordinal: u64, value: T) {
        *self.slots[ordinal as usize % self.slots.len()].lock() = Some(value);
    }

    /// The values in the ring, in no particular order.
    fn values(&self) -> Vec<T> {
        self.slots.iter().filter_map(|s| s.lock().clone()).collect()
    }
}

/// The journal: the event ring, the slow completions kept beyond it and the
/// optional file tee.
pub struct EventJournal {
    events: Ring<JournalEntry>,
    slow: Ring<JournalEntry>,
    /// Completions at or above this latency are slow; `None` means none is.
    threshold: Option<Duration>,
    tee: Option<Mutex<File>>,
}

impl EventJournal {
    /// A journal whose slow view keeps completions at or above `threshold`.
    /// `Duration::ZERO` keeps every one (useful when debugging); `None`
    /// disables the view.
    pub fn new(threshold: Option<Duration>) -> Self {
        EventJournal {
            events: Ring::new(EVENT_CAPACITY),
            slow: Ring::new(SLOW_CAPACITY),
            threshold,
            tee: None,
        }
    }

    /// Additionally appends every event to `file` as JSONL (the
    /// `--journal FILE` tee), beginning with what the ring already holds.
    /// The file keeps everything; the ring wraps.
    pub fn with_tee(mut self, mut file: File) -> Self {
        let _ = file.write_all(self.to_jsonl().as_bytes());
        self.tee = Some(Mutex::new(file));
        self
    }

    /// Total events recorded (the most recent [`EVENT_CAPACITY`] at most
    /// are still in the ring).
    pub fn recorded(&self) -> u64 {
        self.events.claimed()
    }

    /// Total slow completions recorded.
    pub fn slow_recorded(&self) -> u64 {
        self.slow.claimed()
    }

    /// Returns whether `elapsed` crosses the slow threshold — the only
    /// check fast queries pay.
    pub fn is_slow(&self, elapsed: Duration) -> bool {
        self.threshold.is_some_and(|t| elapsed >= t)
    }

    /// Records one event. A completion carrying its [`SlowDetail`] is also
    /// kept in the slow ring and written to stderr, as the line
    /// `/debug/events` shows for it.
    pub fn record(&self, trace_id: Option<u64>, uptime_secs: f64, mut event: JournalEvent) {
        if let Some(query) = event.query_mut() {
            truncate_text(query, MAX_QUERY_LEN);
        }
        let offender = matches!(event, JournalEvent::QueryCompleted { slow: Some(_), .. });
        let entry = JournalEntry {
            seq: self.events.claim(),
            uptime_secs,
            trace_id,
            event,
        };
        if offender || self.tee.is_some() {
            let line = entry.to_json();
            if let Some(tee) = &self.tee {
                let _ = writeln!(tee.lock(), "{line}");
            }
            if offender {
                eprintln!("{line}");
                self.slow.store(self.slow.claim(), entry.clone());
            }
        }
        self.events.store(entry.seq, entry);
    }

    /// The slow completions still kept, slowest first.
    pub fn slow_snapshot(&self) -> Vec<JournalEntry> {
        let mut entries = self.slow.values();
        entries.sort_by(|a, b| b.total_ms().total_cmp(&a.total_ms()));
        entries
    }

    /// Renders the ring as JSONL (the `GET /debug/events` payload): one
    /// JSON object per line, oldest first, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let mut entries = self.events.values();
        entries.sort_by_key(|e| e.seq);
        let mut out = String::with_capacity(entries.len() * 160 + 1);
        for entry in &entries {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the slow view as the `GET /debug/slow` JSON payload.
    pub fn slow_to_json(&self) -> String {
        turbohom_json::document(|w| {
            let threshold_ms = self.threshold.map(|t| Fixed3(t.as_secs_f64() * 1000.0));
            w.begin_object()
                .field("threshold_ms", threshold_ms)
                .field("capacity", SLOW_CAPACITY)
                .field("recorded", self.slow_recorded())
                .field("entries", self.slow_snapshot())
                .end_object();
        })
    }
}

/// Cuts `text` down to at most `max` bytes, on a char boundary, and marks
/// the cut with an ellipsis.
fn truncate_text(text: &mut String, max: usize) {
    if text.len() > max {
        let mut cut = max;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text.truncate(cut);
        text.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed_in(solutions: usize, total_ms: f64, slow: Option<SlowDetail>) -> JournalEvent {
        JournalEvent::QueryCompleted {
            engine: EngineKind::TurboHomPlusPlus,
            mode: "query",
            cache_hit: false,
            solutions,
            total_ms,
            shards: None,
            slow,
        }
    }

    fn completed(solutions: usize) -> JournalEvent {
        completed_in(solutions, 1.5, None)
    }

    /// A completion that crossed the threshold, as the service builds it.
    fn offender(total_ms: f64, query: &str) -> JournalEvent {
        let detail = SlowDetail {
            stages_ms: vec![("parse", 0.1), ("execute", total_ms - 0.1)],
            query: query.into(),
        };
        completed_in(5, total_ms, Some(detail))
    }

    #[test]
    fn a_ring_keeps_the_most_recent_values() {
        let ring = Ring::new(2);
        for i in 1..=5u64 {
            let ordinal = ring.claim();
            ring.store(ordinal, (ordinal, i));
        }
        let mut values = ring.values();
        values.sort_unstable();
        // Values 4 and 5 survive, pushed as the 3rd and 4th (from zero).
        assert_eq!(values, vec![(3, 4), (4, 5)]);
        assert_eq!(ring.claimed(), 5);
    }

    #[test]
    fn entries_keep_global_order_and_wrap() {
        let journal = EventJournal::new(None);
        let total = EVENT_CAPACITY as u64 + 2;
        for i in 0..total {
            journal.record(Some(i), i as f64, completed(i as usize));
        }
        assert_eq!(journal.recorded(), total);
        // The two oldest events are gone; the rest come oldest first.
        let jsonl = journal.to_jsonl();
        assert_eq!(jsonl.lines().count(), EVENT_CAPACITY);
        for (line, seq) in jsonl.lines().zip(2..total) {
            assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
        }
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_trace_ids() {
        let journal = EventJournal::new(None);
        journal.record(
            None,
            0.0,
            JournalEvent::StoreLoaded {
                flavor: "single",
                backend: "heap",
                triples: 42,
                mapped: false,
                builds: [
                    ("freeze", 1.0, 50 << 20),
                    ("type_aware", 2.0, 110 << 20),
                    ("direct", 0.0, 0),
                    ("permutations", 0.0, 0),
                ],
            },
        );
        journal.record(
            Some(0x2a),
            1.0,
            JournalEvent::QueryAdmitted {
                engine: EngineKind::MergeJoin,
                mode: "analyze",
            },
        );
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace\":null"));
        assert!(lines[0].contains("\"event\":\"store_loaded\""));
        assert!(lines[0].contains("\"triples\":42"));
        assert!(lines[0].contains("\"type_aware_ms\":2.000,\"type_aware_peak_bytes\":115343360,"));
        assert!(lines[1].contains("\"trace\":\"000000000000002a\""));
        assert!(lines[1].contains("\"event\":\"query_admitted\""));
        assert!(lines[1].contains("\"mode\":\"analyze\""));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn every_event_kind_renders_its_fields() {
        let events = [
            JournalEvent::QueryAdmitted {
                engine: EngineKind::TurboHom,
                mode: "query",
            },
            JournalEvent::QueryCompleted {
                engine: EngineKind::TurboHomPlusPlus,
                mode: "profile",
                cache_hit: true,
                solutions: 7,
                total_ms: 1.5,
                shards: Some((7, 1)),
                slow: None,
            },
            JournalEvent::QueryFailed {
                engine: EngineKind::HashJoin,
                error: "parse error: \"x\"".into(),
            },
            JournalEvent::PlanCached {
                engine: EngineKind::TurboHomPlusPlus,
                query: "SELECT ?x WHERE { ?x ?p ?o . }".into(),
            },
            JournalEvent::PlanEvicted {
                engine: EngineKind::TurboHomPlusPlus,
                query: "SELECT ?y WHERE { ?y ?p ?o . }".into(),
            },
            JournalEvent::StoreLoaded {
                flavor: "sharded",
                backend: "heap",
                triples: 9,
                mapped: false,
                builds: [("freeze", 0.0, 0); 4],
            },
            JournalEvent::StructureBuilt {
                structure: "permutations",
                ms: 700.0,
                bytes: 144,
                peak_bytes: 4096,
            },
        ];
        let journal = EventJournal::new(None);
        for event in events {
            journal.record(Some(1), 0.5, event);
        }
        let jsonl = journal.to_jsonl();
        for kind in [
            "query_admitted",
            "query_completed",
            "query_failed",
            "plan_cached",
            "plan_evicted",
            "store_loaded",
            "structure_built",
        ] {
            assert!(
                jsonl.contains(&format!("\"event\":\"{kind}\"")),
                "missing {kind} in {jsonl}"
            );
        }
        // The error message is escaped, not raw.
        assert!(jsonl.contains("parse error: \\\"x\\\""));
        // A completion is the request's one record: the shard verdict counts
        // are members of it, and a fast one has no stages and no text.
        assert!(jsonl.contains(
            "\"event\":\"query_completed\",\"engine\":\"turbohom++\",\"mode\":\"profile\",\"cache\":\"HIT\",\
             \"solutions\":7,\"total_ms\":1.500,\"shards_pruned\":7,\"shards_executed\":1,\"slow\":false}"
        ));
        assert!(!jsonl.contains("stages_ms"));
    }

    #[test]
    fn every_kept_query_text_is_truncated_on_a_char_boundary() {
        let journal = EventJournal::new(Some(Duration::ZERO));
        let long = "é".repeat(400); // 800 bytes of 2-byte chars
        journal.record(
            None,
            0.0,
            JournalEvent::PlanCached {
                engine: EngineKind::TurboHomPlusPlus,
                query: long.clone(),
            },
        );
        journal.record(Some(1), 0.0, offender(10.0, &long));
        let events = journal.events.values();
        let cached = events.iter().find_map(|e| match &e.event {
            JournalEvent::PlanCached { query, .. } => Some(query),
            _ => None,
        });
        let cached = cached.expect("plan_cached expected");
        let JournalEvent::QueryCompleted {
            slow: Some(detail), ..
        } = &journal.slow_snapshot()[0].event
        else {
            panic!("a slow query_completed expected");
        };
        for stored in [cached, &detail.query] {
            assert!(stored.len() <= MAX_QUERY_LEN + '…'.len_utf8());
            assert!(stored.ends_with('…'));
        }
    }

    #[test]
    fn tee_file_keeps_every_event_past_the_ring() {
        let path = std::env::temp_dir().join(format!(
            "turbohom-journal-test-{}.jsonl",
            std::process::id()
        ));
        let journal = EventJournal::new(None);
        journal.record(None, 0.0, completed(0));
        // What the ring holds when the tee is attached goes to the file first.
        let journal = journal.with_tee(File::create(&path).unwrap());
        let total = EVENT_CAPACITY + 5;
        for i in 1..total {
            journal.record(Some(i as u64), 0.0, completed(i));
        }
        // The ring wrapped; the tee kept every event, in order.
        assert_eq!(journal.to_jsonl().lines().count(), EVENT_CAPACITY);
        let teed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(teed.lines().count(), total);
        for (i, line) in teed.lines().enumerate() {
            assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
            assert!(line.contains("\"event\":\"query_completed\""));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_hostile_error_message_stays_one_json_line() {
        let journal = EventJournal::new(None);
        let error = "line\nbreak \"q\" back\\slash \u{0}\u{1f} é }".to_string();
        journal.record(
            Some(1),
            0.5,
            JournalEvent::QueryFailed {
                engine: EngineKind::TurboHom,
                error,
            },
        );
        assert_eq!(
            journal.to_jsonl(),
            "{\"seq\":0,\"uptime_secs\":0.500,\"trace\":\"0000000000000001\",\"event\":\"query_failed\",\
             \"engine\":\"turbohom\",\"error\":\"line\\nbreak \\\"q\\\" back\\\\slash \\u0000\\u001f é }\"}\n"
        );
    }

    #[test]
    fn the_threshold_decides_what_is_slow() {
        let journal = EventJournal::new(Some(Duration::from_millis(100)));
        assert!(!journal.is_slow(Duration::from_millis(99)));
        assert!(journal.is_slow(Duration::from_millis(100)));
        // A disabled view calls nothing slow, a zero threshold everything.
        assert!(!EventJournal::new(None).is_slow(Duration::from_secs(100)));
        assert!(EventJournal::new(Some(Duration::ZERO)).is_slow(Duration::ZERO));
        // Only a completion carrying its detail enters the slow ring.
        journal.record(Some(1), 0.0, completed_in(1, 50.0, None));
        journal.record(Some(2), 0.0, offender(150.0, "SELECT ?x"));
        assert_eq!(journal.slow_snapshot().len(), 1);
        assert_eq!(journal.slow_recorded(), 1);
        assert_eq!(journal.recorded(), 2);
    }

    #[test]
    fn the_slow_view_wraps_and_sorts_slowest_first() {
        let journal = EventJournal::new(Some(Duration::ZERO));
        let total = SLOW_CAPACITY as u64 + 3;
        for i in 1..=total {
            journal.record(Some(i), 0.0, offender(((i * 7) % total) as f64 + 1.0, "Q"));
        }
        let snap = journal.slow_snapshot();
        assert_eq!(snap.len(), SLOW_CAPACITY);
        assert_eq!(journal.slow_recorded(), total);
        // The three oldest offenders were overwritten …
        assert!(snap.iter().all(|e| e.trace_id.unwrap() > 3));
        // … and what is left comes slowest first.
        let ms: Vec<f64> = snap.iter().map(JournalEntry::total_ms).collect();
        assert!(ms.windows(2).all(|w| w[0] >= w[1]), "{ms:?}");
    }

    #[test]
    fn an_offender_outlives_the_event_ring_in_the_slow_view() {
        let journal = EventJournal::new(Some(Duration::from_millis(500)));
        journal.record(Some(0x2a), 1.0, offender(600.0, "SELECT ?slow"));
        let line = journal.to_jsonl().trim_end().to_string();
        // The slow view shows the entry `/debug/events` showed, byte for byte.
        assert_eq!(
            journal.slow_to_json(),
            format!(
                "{{\"threshold_ms\":500.000,\"capacity\":32,\"recorded\":1,\"entries\":[{line}]}}"
            )
        );
        assert!(line.contains("\"slow\":true,\"stages_ms\":{\"parse\":0.100,\"execute\":599.900},"));
        assert!(line.ends_with("\"query\":\"SELECT ?slow\"}"));
        // More fast requests than the event ring holds push it out of there.
        for i in 0..EVENT_CAPACITY as u64 {
            journal.record(Some(100 + i), 2.0, completed(1));
        }
        assert!(!journal.to_jsonl().contains("SELECT ?slow"));
        assert!(journal.slow_to_json().contains(&line));
    }

    #[test]
    fn a_hostile_query_text_is_escaped_in_the_whole_slow_document() {
        let journal = EventJournal::new(Some(Duration::ZERO));
        journal.record(
            Some(7),
            1.0,
            offender(2.0, "SELECT \"?x\"\n\\ \u{0}\u{1f} é } ] ,"),
        );
        assert_eq!(
            journal.slow_to_json(),
            "{\"threshold_ms\":0.000,\"capacity\":32,\"recorded\":1,\"entries\":[{\"seq\":0,\"uptime_secs\":1.000,\
             \"trace\":\"0000000000000007\",\"event\":\"query_completed\",\"engine\":\"turbohom++\",\"mode\":\"query\",\
             \"cache\":\"MISS\",\"solutions\":5,\"total_ms\":2.000,\"slow\":true,\
             \"stages_ms\":{\"parse\":0.100,\"execute\":1.900},\
             \"query\":\"SELECT \\\"?x\\\"\\n\\\\ \\u0000\\u001f é } ] ,\"}]}"
        );
        // A disabled view says so with a null.
        let disabled = EventJournal::new(None).slow_to_json();
        assert!(disabled.starts_with("{\"threshold_ms\":null,\"capacity\":32,"));
        assert!(disabled.ends_with("\"entries\":[]}"));
    }
}
