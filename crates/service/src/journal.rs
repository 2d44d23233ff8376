//! The structured event journal: a lock-light ring of typed service events.
//!
//! Where the slow-query recorder answers "which queries hurt", the journal
//! answers "what happened, in order": every query admission and completion,
//! every plan-cache insert and eviction, the store load at startup, shard
//! pruning outcomes, and slow-query offenders — each stamped with a
//! sequence number, the service uptime, and (where one exists) the
//! request's trace id, so journal lines join `/debug/slow` entries, the
//! access log, and `profile=1` output on `X-Trace-Id`.
//!
//! The write path mirrors [`SlowQueryLog`](crate::SlowQueryLog): claiming a
//! slot is one `fetch_add` on the ring head, and the entry is written under
//! that slot's own mutex, so concurrent writers hit different slots and
//! never serialize the request path. The ring is served as JSONL (one JSON
//! object per line, oldest first) at `GET /debug/events`, and can be tee'd
//! to a file (`turbohom-server --journal FILE`) for post-mortem analysis —
//! the file keeps every event, the ring only the most recent `capacity`.

use parking_lot::Mutex;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use turbohom_engine::{format_trace_id, EngineKind};
use turbohom_json::{Fixed3, JsonWriter};

/// Query text carried by plan events is truncated to this many bytes.
const MAX_QUERY_LEN: usize = 200;

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
    /// A request finished successfully.
    QueryCompleted {
        /// The engine that answered.
        engine: EngineKind,
        /// Whether the plan came from the cache.
        cache_hit: bool,
        /// Solutions produced (zero for `explain`, which never executes).
        solutions: usize,
        /// Total request latency in milliseconds.
        total_ms: f64,
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
        /// Milliseconds spent building each structure (`freeze`,
        /// `type_aware`, `direct`, `permutations`) before the service
        /// started, summed over shards (0 for a structure not built yet, or
        /// mapped instead of built). Rendered as `<structure>_ms` members.
        build_ms: [(&'static str, f64); 4],
    },
    /// A derived structure was built by the first plan that reads it; the
    /// entry's trace id is the request that caused (and waited for) it.
    StructureBuilt {
        /// `direct` or `permutations`.
        structure: &'static str,
        /// The shard whose store built it (0 on a single store).
        shard: usize,
        /// Wall-clock milliseconds the build took.
        ms: f64,
        /// Bytes the built structure holds.
        bytes: u64,
    },
    /// A sharded query's scatter decision: how many shards were skipped by
    /// summary pruning / ownership routing and how many executed.
    ShardsPruned {
        /// Shards skipped.
        pruned: usize,
        /// Shards that executed.
        executed: usize,
    },
    /// A query crossed the slow-query threshold (details in `/debug/slow`).
    SlowQuery {
        /// The engine that answered.
        engine: EngineKind,
        /// Total request latency in milliseconds.
        total_ms: f64,
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
            JournalEvent::ShardsPruned { .. } => "shards_pruned",
            JournalEvent::SlowQuery { .. } => "slow_query",
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
                cache_hit,
                solutions,
                total_ms,
            } => {
                w.field("engine", engine.name())
                    .field("cache", if *cache_hit { "HIT" } else { "MISS" })
                    .field("solutions", solutions)
                    .field("total_ms", Fixed3(*total_ms));
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
                build_ms,
            } => {
                w.field("store", flavor)
                    .field("backend", backend)
                    .field("triples", triples)
                    .field("mapped", mapped);
                for (structure, ms) in build_ms {
                    w.field(&format!("{structure}_ms"), Fixed3(*ms));
                }
            }
            JournalEvent::StructureBuilt {
                structure,
                shard,
                ms,
                bytes,
            } => {
                w.field("structure", structure)
                    .field("shard", shard)
                    .field("ms", Fixed3(*ms))
                    .field("bytes", bytes);
            }
            JournalEvent::ShardsPruned { pruned, executed } => {
                w.field("pruned", pruned).field("executed", executed);
            }
            JournalEvent::SlowQuery { engine, total_ms } => {
                w.field("engine", engine.name())
                    .field("total_ms", Fixed3(*total_ms));
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
        turbohom_json::document(|w| {
            w.begin_object()
                .field("seq", self.seq)
                .field("uptime_secs", Fixed3(self.uptime_secs))
                .field("trace", self.trace_id.map(format_trace_id))
                .field("event", self.event.kind());
            self.event.write_fields(w);
            w.end_object();
        })
    }
}

/// The journal ring plus the optional file tee.
pub struct EventJournal {
    slots: Vec<Mutex<Option<JournalEntry>>>,
    head: AtomicU64,
    tee: Option<Mutex<File>>,
}

impl EventJournal {
    /// A journal keeping the `capacity` most recent events.
    pub fn new(capacity: usize) -> Self {
        EventJournal {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            tee: None,
        }
    }

    /// Additionally appends every event to `file` as JSONL (the
    /// `--journal FILE` tee). The file keeps everything; the ring wraps.
    pub fn with_tee(mut self, file: File) -> Self {
        self.tee = Some(Mutex::new(file));
        self
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded (the most recent `min(recorded, capacity)`
    /// are still in the ring).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event.
    pub fn record(&self, trace_id: Option<u64>, uptime_secs: f64, mut event: JournalEvent) {
        if let JournalEvent::PlanCached { query, .. } | JournalEvent::PlanEvicted { query, .. } =
            &mut event
        {
            truncate_text(query, MAX_QUERY_LEN);
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let entry = JournalEntry {
            seq,
            uptime_secs,
            trace_id,
            event,
        };
        if let Some(tee) = &self.tee {
            let mut file = tee.lock();
            let _ = writeln!(file, "{}", entry.to_json());
        }
        let slot = seq as usize % self.slots.len();
        *self.slots[slot].lock() = Some(entry);
    }

    /// The current ring contents in event order (oldest first).
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        let mut entries: Vec<JournalEntry> =
            self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Renders the ring as JSONL (the `GET /debug/events` payload): one
    /// JSON object per line, oldest first, trailing newline.
    pub fn to_jsonl(&self) -> String {
        let entries = self.snapshot();
        let mut out = String::with_capacity(entries.len() * 160 + 1);
        for entry in &entries {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }
}

/// Cuts `text` down to at most `max` bytes, on a char boundary, and marks
/// the cut with an ellipsis (both recorders bound the query text they keep).
pub(crate) fn truncate_text(text: &mut String, max: usize) {
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

    fn completed(solutions: usize) -> JournalEvent {
        JournalEvent::QueryCompleted {
            engine: EngineKind::TurboHomPlusPlus,
            cache_hit: false,
            solutions,
            total_ms: 1.5,
        }
    }

    #[test]
    fn entries_keep_global_order_and_wrap() {
        let journal = EventJournal::new(3);
        for i in 0..5 {
            journal.record(Some(i), i as f64, completed(i as usize));
        }
        assert_eq!(journal.recorded(), 5);
        let snap = journal.snapshot();
        // Ring of 3: events 2, 3, 4 survive, oldest first.
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_trace_ids() {
        let journal = EventJournal::new(8);
        journal.record(
            None,
            0.0,
            JournalEvent::StoreLoaded {
                flavor: "single",
                backend: "heap",
                triples: 42,
                mapped: false,
                build_ms: [
                    ("freeze", 1.0),
                    ("type_aware", 2.0),
                    ("direct", 0.0),
                    ("permutations", 0.0),
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
        assert!(lines[0].contains("\"type_aware_ms\":2.000"));
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
            completed(7),
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
                build_ms: [("freeze", 0.0); 4],
            },
            JournalEvent::StructureBuilt {
                structure: "permutations",
                shard: 2,
                ms: 700.0,
                bytes: 144,
            },
            JournalEvent::ShardsPruned {
                pruned: 7,
                executed: 1,
            },
            JournalEvent::SlowQuery {
                engine: EngineKind::TurboHomPlusPlus,
                total_ms: 600.0,
            },
        ];
        let journal = EventJournal::new(events.len());
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
            "shards_pruned",
            "slow_query",
        ] {
            assert!(
                jsonl.contains(&format!("\"event\":\"{kind}\"")),
                "missing {kind} in {jsonl}"
            );
        }
        // The error message is escaped, not raw.
        assert!(jsonl.contains("parse error: \\\"x\\\""));
        assert!(jsonl.contains("\"pruned\":7,\"executed\":1"));
    }

    #[test]
    fn long_query_text_is_truncated() {
        let journal = EventJournal::new(1);
        journal.record(
            None,
            0.0,
            JournalEvent::PlanCached {
                engine: EngineKind::TurboHomPlusPlus,
                query: "é".repeat(300),
            },
        );
        let snap = journal.snapshot();
        let JournalEvent::PlanCached { query, .. } = &snap[0].event else {
            panic!("plan_cached expected");
        };
        assert!(query.len() <= MAX_QUERY_LEN + '…'.len_utf8());
        assert!(query.ends_with('…'));
    }

    #[test]
    fn tee_file_keeps_every_event_past_the_ring() {
        let path = std::env::temp_dir().join(format!(
            "turbohom-journal-test-{}.jsonl",
            std::process::id()
        ));
        let file = File::create(&path).unwrap();
        let journal = EventJournal::new(2).with_tee(file);
        for i in 0..5 {
            journal.record(Some(i), 0.0, completed(i as usize));
        }
        // The ring kept 2; the tee kept all 5.
        assert_eq!(journal.snapshot().len(), 2);
        let teed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(teed.lines().count(), 5);
        assert!(teed
            .lines()
            .all(|l| l.contains("\"event\":\"query_completed\"")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_hostile_error_message_stays_one_json_line() {
        let journal = EventJournal::new(1);
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
}
