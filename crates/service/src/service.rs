//! The [`QueryService`]: a shared, thread-safe query front-end over one
//! [`Store`].
//!
//! Request path:
//!
//! 1. normalize + fingerprint the query text (cheap: one lexer pass),
//! 2. look the `(canonical, engine)` key up in the LRU plan cache (probed
//!    with the borrowed text: a hit copies nothing),
//! 3. **hit** → jump straight to enumeration via
//!    [`Store::run_plan_traced`], the one run of every plan, routed or not
//!    (no parsing, no transformation, and — via the plan's memoized
//!    matching order — no order determination either),
//! 4. **miss** → [`AnyStore::prepare_plan_traced`] (parse + transform, and
//!    on a sharded store the routing), run it, and cache the plan for the
//!    next request.
//!
//! The service counts how many times the expensive prepare half actually
//! ran ([`StatsSnapshot::plans_prepared`]), which is what the warm-path
//! tests assert on: repeated queries must not re-parse or re-transform.

use crate::cache::{PlanCache, PlanKey};
use crate::journal::{EventJournal, JournalEvent, SlowDetail};
use crate::metrics::{escape_label, family, scalar, ServiceMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use turbohom_engine::{
    AnyStore, EngineKind, ExplainReport, IdResults, MatchStats, MemoryRow, MemoryUse, Store,
    StoreError, Trace, TraceReport,
};
use turbohom_json::{Fixed3, JsonWriter, ToJson};
use turbohom_sparql::{fingerprint, QueryFingerprint};

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum number of cached plans (per-engine entries count separately).
    pub plan_cache_capacity: usize,
    /// Engine used when a request does not name one.
    pub default_engine: EngineKind,
    /// Upper bound for the per-request `threads` override (defends the
    /// thread pool against `threads=10000` requests).
    pub max_threads: usize,
    /// Queries at or above this latency are kept in the journal's slow
    /// view, `/debug/slow` (`Duration::ZERO` keeps every one, `None`
    /// disables it).
    pub slow_query: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            plan_cache_capacity: 256,
            default_engine: EngineKind::TurboHomPlusPlus,
            max_threads: 64,
            slow_query: Some(Duration::from_millis(500)),
        }
    }
}

/// Per-request execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Engine to execute with (`None` = the service default).
    pub engine: Option<EngineKind>,
    /// Worker-thread override for this request only.
    pub threads: Option<usize>,
    /// PROFILE mode: collect a detailed trace (per-stage and per-worker
    /// spans) and return it in [`QueryResponse::profile`].
    pub profile: bool,
    /// ANALYZE mode: execute the query outside the plan cache and return
    /// the EXPLAIN tree annotated with actuals (per-step rows, q-errors,
    /// per-shard rows) in [`QueryResponse::explain`]. The per-step q-errors
    /// feed the `turbohom_estimate_qerror` histogram.
    pub analyze: bool,
}

/// The outcome of one service query.
pub struct QueryResponse<'s> {
    /// The query results as term ids, borrowing the service's store:
    /// serialise them with [`IdResults::to_sparql_json`] or get the decoded
    /// view with [`IdResults::decode`].
    pub results: IdResults<'s>,
    /// The engine that answered.
    pub engine: EngineKind,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// The 64-bit fingerprint of the normalized query.
    pub fingerprint: u64,
    /// Wall clock for the whole request: fingerprint + plan + run, and for a
    /// request served over HTTP also serialising and writing the response.
    pub elapsed: Duration,
    /// The request's trace id (`X-Trace-Id`; ties the response to the
    /// access log and the journal).
    pub trace_id: u64,
    /// The detailed trace, present when [`QueryOptions::profile`] was set.
    pub profile: Option<TraceReport>,
    /// The EXPLAIN tree annotated with actuals, present when
    /// [`QueryOptions::analyze`] was set.
    pub explain: Option<ExplainReport>,
}

/// A query that has executed but whose response is not delivered yet.
///
/// The HTTP layer streams `results` to the client between
/// [`QueryService::begin`] and [`QueryService::complete`] (or
/// [`QueryService::abandon`], when the client hangs up), so that the
/// request's trace, latency and journal entries cover serialisation and the
/// socket writes.
pub(crate) struct InFlight<'s> {
    pub(crate) results: IdResults<'s>,
    pub(crate) engine: EngineKind,
    /// The request mode, as journaled at admission.
    mode: &'static str,
    pub(crate) cache_hit: bool,
    pub(crate) fingerprint: QueryFingerprint,
    pub(crate) trace_id: u64,
    /// The request's trace, still open: coarse, detailed under
    /// [`QueryOptions::profile`], disabled under [`QueryOptions::analyze`].
    pub(crate) trace: Trace,
    pub(crate) profile: bool,
    pub(crate) explain: Option<ExplainReport>,
    started: Instant,
}

/// What executing a query yields: the results, whether the plan came from
/// the cache, the query's fingerprint, and the ANALYZE report if one was
/// asked for.
type Executed<'s> = (IdResults<'s>, bool, QueryFingerprint, Option<ExplainReport>);

/// The outcome of one `explain=1` request ([`QueryService::explain`]):
/// the static plan tree, built **without executing** the query.
pub struct ExplainResponse {
    /// The structured plan tree.
    pub report: ExplainReport,
    /// The engine the plan was built for.
    pub engine: EngineKind,
    /// The 64-bit fingerprint of the normalized query.
    pub fingerprint: u64,
    /// The request's trace id (`X-Trace-Id`).
    pub trace_id: u64,
    /// Wall clock for building the report.
    pub elapsed: Duration,
}

/// A point-in-time view of the service counters (served as `/stats`).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since the service started.
    pub uptime_seconds: f64,
    /// Store flavor answering the queries: `"single"` or `"sharded"`.
    pub store_flavor: &'static str,
    /// Triples in the underlying store.
    pub triples: usize,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plans evicted from the cache.
    pub cache_evictions: u64,
    /// Plans currently cached.
    pub cache_size: usize,
    /// How many times the prepare half (parse + transform) actually ran.
    pub plans_prepared: u64,
    /// Connections the HTTP front-end accepted and served.
    pub connections: u64,
    /// Requests read off those connections.
    pub requests: u64,
    /// Per-engine counters, in [`EngineKind::all`] order.
    pub engines: Vec<EngineStats>,
    /// Where the memory is: the store's ledger against the process.
    pub bytes: BytesSnapshot,
}

/// The `bytes` block of `/stats`: the store's memory ledger, and what the
/// process holds beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct BytesSnapshot {
    /// Resident set of the process (`VmRSS`; 0 where `/proc` is missing).
    pub resident: u64,
    /// Its high-water mark (`VmHWM`).
    pub peak: u64,
    /// Sum of the ledgers, heap and mapped.
    pub accounted: u64,
    /// `resident - accounted`: allocator slack, build garbage not yet
    /// returned, plan cache, thread stacks. Negative when mapped pages the
    /// ledger counts are not resident.
    pub unaccounted: i64,
    /// Triples and ledger of the one store (one entry, sharded or not).
    pub shards: Vec<(usize, Vec<MemoryRow>)>,
}

fn ledger_total(rows: &[MemoryRow]) -> MemoryUse {
    rows.iter().map(|r| r.bytes).sum()
}

impl ToJson for BytesSnapshot {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("resident", self.resident)
            .field("peak", self.peak)
            .field("accounted", self.accounted)
            .field("unaccounted", self.unaccounted);
        w.key("shards").begin_array();
        for (i, (triples, rows)) in self.shards.iter().enumerate() {
            let total = ledger_total(rows);
            w.begin_object()
                .field("shard", i)
                .field("triples", triples)
                .field("heap", total.heap)
                .field("mapped", total.mapped);
            w.key("components").begin_object();
            for row in rows {
                let dot = if row.part.is_empty() { "" } else { "." };
                w.key(&format!("{}{dot}{}", row.component, row.part))
                    .begin_object()
                    .field("heap", row.bytes.heap)
                    .field("mapped", row.bytes.mapped)
                    .end_object();
            }
            w.end_object().end_object();
        }
        w.end_array().end_object();
    }
}

/// Per-engine counters inside a [`StatsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// The engine.
    pub kind: EngineKind,
    /// The store flavor the counters were accumulated against (`"single"`
    /// or `"sharded"` — one service only ever runs one flavor, the label
    /// keeps aggregated dashboards honest).
    pub store: &'static str,
    /// Successfully answered queries.
    pub queries: u64,
    /// Failed queries.
    pub errors: u64,
    /// Queries per second over the uptime.
    pub qps: f64,
    /// Mean request latency in milliseconds.
    pub mean_ms: f64,
    /// Estimated 50th/95th/99th latency percentiles in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// The matcher's counters summed over all successful queries, under
    /// their [`MatchStats`] names.
    pub matcher: [(&'static str, usize); MatchStats::COUNTERS],
}

impl StatsSnapshot {
    /// Renders the snapshot as a JSON object (the `/stats` payload).
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            w.begin_object()
                .field("uptime_seconds", Fixed3(self.uptime_seconds))
                .field("store", self.store_flavor)
                .field("triples", self.triples);
            w.key("plan_cache")
                .begin_object()
                .field("hits", self.cache_hits)
                .field("misses", self.cache_misses)
                .field("evictions", self.cache_evictions)
                .field("size", self.cache_size)
                .end_object()
                .field("plans_prepared", self.plans_prepared)
                .field("connections", self.connections)
                .field("requests", self.requests);
            w.key("engines").begin_object();
            for e in &self.engines {
                w.field(e.kind.name(), e);
            }
            w.end_object().field("bytes", &self.bytes).end_object();
        })
    }
}

impl ToJson for EngineStats {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("store", self.store)
            .field("queries", self.queries)
            .field("errors", self.errors)
            .field("qps", Fixed3(self.qps));
        w.key("latency_ms")
            .begin_object()
            .field("mean", Fixed3(self.mean_ms))
            .field("p50", Fixed3(self.p50_ms))
            .field("p95", Fixed3(self.p95_ms))
            .field("p99", Fixed3(self.p99_ms))
            .end_object();
        w.key("matcher").begin_object();
        for (name, value) in self.matcher {
            w.field(name, value);
        }
        w.end_object().end_object();
    }
}

/// A concurrent SPARQL query service over one shared store — a single
/// [`Store`] or a sharded store ([`AnyStore`]).
pub struct QueryService {
    store: AnyStore,
    config: ServiceConfig,
    cache: PlanCache,
    metrics: ServiceMetrics,
    plans_prepared: AtomicU64,
    journal: EventJournal,
    next_trace_id: AtomicU64,
    dataset_label: String,
}

impl QueryService {
    /// Creates a service with default configuration.
    pub fn new(store: Arc<Store>) -> Self {
        Self::with_config(store, ServiceConfig::default())
    }

    /// Creates a service with the given configuration.
    pub fn with_config(store: Arc<Store>, config: ServiceConfig) -> Self {
        Self::with_any_store(AnyStore::Single(store), config)
    }

    /// Creates a service over either store flavor (the server uses this to
    /// boot `--shards=k`). A `max_threads` of 0 is taken as 1.
    pub fn with_any_store(store: AnyStore, config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            max_threads: config.max_threads.max(1),
            ..config
        };
        let service = QueryService {
            cache: PlanCache::new(config.plan_cache_capacity),
            metrics: ServiceMetrics::new(),
            plans_prepared: AtomicU64::new(0),
            journal: EventJournal::new(config.slow_query),
            next_trace_id: AtomicU64::new(1),
            dataset_label: "unnamed".into(),
            config,
            store,
        };
        let built = service.store.store().builds();
        let builds = ["freeze", "type_aware", "direct", "permutations"].map(|structure| {
            let of_structure = built.iter().filter(|b| b.structure == structure);
            of_structure.fold((structure, 0.0, 0), |(_, ms, peak), b| {
                (structure, ms + b.ms, peak.max(b.peak_bytes))
            })
        });
        service.journal.record(
            None,
            0.0,
            JournalEvent::StoreLoaded {
                flavor: service.store.flavor_name(),
                backend: service.store.backend_name(),
                triples: service.store.store().triple_count(),
                mapped: service.store.store().is_mapped(),
                builds,
            },
        );
        service
    }

    /// Tees every journal event to `file` as JSONL (builder style, the
    /// server's `--journal FILE`), the startup `store_loaded` event that
    /// already sits in the ring included.
    pub fn with_journal_tee(mut self, file: std::fs::File) -> Self {
        self.journal = self.journal.with_tee(file);
        self
    }

    /// Sets the dataset label reported by `/healthz` (builder style, e.g.
    /// `"lubm-1"` or the N-Triples file name).
    pub fn with_dataset_label(mut self, label: impl Into<String>) -> Self {
        self.dataset_label = label.into();
        self
    }

    /// The dataset label reported by `/healthz`.
    pub fn dataset_label(&self) -> &str {
        &self.dataset_label
    }

    /// The shared store (single or sharded).
    pub fn store(&self) -> &AnyStore {
        &self.store
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The service metrics (counters, histograms, stage totals).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The structured event journal (served as `/debug/events`, its slow
    /// completions as `/debug/slow`).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Seconds since the service started.
    pub fn uptime(&self) -> Duration {
        self.metrics.uptime()
    }

    /// Answers one query.
    ///
    /// Every request runs under a coarse trace (a handful of spans feeding
    /// the per-stage time totals in `/metrics` and the journal's slow view);
    /// [`QueryOptions::profile`] upgrades it to a detailed trace whose
    /// report comes back in [`QueryResponse::profile`].
    pub fn query(
        &self,
        sparql: &str,
        options: QueryOptions,
    ) -> Result<QueryResponse<'_>, StoreError> {
        Ok(self.complete(self.begin(sparql, options)?))
    }

    /// Admits and executes one query; the caller delivers the results and
    /// then hands the request back to [`complete`](Self::complete) or
    /// [`abandon`](Self::abandon). Failures are counted and journaled here.
    pub(crate) fn begin(
        &self,
        sparql: &str,
        options: QueryOptions,
    ) -> Result<InFlight<'_>, StoreError> {
        let engine = options.engine.unwrap_or(self.config.default_engine);
        let threads = options.threads.map(|t| t.clamp(1, self.config.max_threads));
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        let mode = if options.analyze {
            "analyze"
        } else if options.profile {
            "profile"
        } else {
            "query"
        };
        self.journal_event(Some(trace_id), JournalEvent::QueryAdmitted { engine, mode });
        let started = Instant::now();
        let trace = if options.analyze {
            // ANALYZE runs outside the plan cache and the stage totals.
            Trace::disabled()
        } else if options.profile {
            Trace::detailed(trace_id)
        } else {
            Trace::new(trace_id)
        };
        let outcome = if options.analyze {
            self.run_analyze(sparql, engine, threads, trace_id)
        } else {
            self.run(sparql, engine, threads, &trace, trace_id)
        };
        match outcome {
            Ok((results, cache_hit, fingerprint, explain)) => Ok(InFlight {
                results,
                engine,
                mode,
                cache_hit,
                fingerprint,
                trace_id,
                trace,
                profile: options.profile && !options.analyze,
                explain,
                started,
            }),
            Err(e) => {
                self.record_query_error(engine, trace_id, e.to_string());
                Err(e)
            }
        }
    }

    /// Success bookkeeping once the response is delivered: engine metrics,
    /// stage totals and the request's one record, the journal's
    /// `query_completed` entry.
    pub(crate) fn complete<'s>(&self, request: InFlight<'s>) -> QueryResponse<'s> {
        let (engine, cache_hit, trace_id) = (request.engine, request.cache_hit, request.trace_id);
        let stats = &request.results.stats;
        let elapsed = request.started.elapsed();
        self.metrics.record_success(engine, elapsed, stats);
        let report = request.trace.finish();
        self.metrics.record_stages(&report);
        let slow = request.trace.is_enabled() && self.journal.is_slow(elapsed);
        self.journal_event(
            Some(trace_id),
            JournalEvent::QueryCompleted {
                engine,
                mode: request.mode,
                cache_hit,
                solutions: stats.solutions,
                total_ms: elapsed.as_secs_f64() * 1000.0,
                shards: (stats.shards_pruned + stats.shards_executed > 0)
                    .then_some((stats.shards_pruned, stats.shards_executed)),
                slow: slow.then(|| SlowDetail {
                    stages_ms: (report.stages().into_iter())
                        .map(|(name, ns)| (name, ns as f64 / 1e6))
                        .collect(),
                    query: request.fingerprint.canonical,
                }),
            },
        );
        QueryResponse {
            results: request.results,
            engine,
            cache_hit,
            fingerprint: request.fingerprint.hash,
            elapsed,
            trace_id,
            profile: request.profile.then_some(report),
            explain: request.explain,
        }
    }

    /// Failure bookkeeping for a request whose response could not be
    /// delivered (the client hung up mid-body): it counts as an error and
    /// leaves one `query_failed` journal event.
    pub(crate) fn abandon(&self, request: InFlight<'_>, error: &std::io::Error) {
        self.record_query_error(
            request.engine,
            request.trace_id,
            format!("response not delivered: {error}"),
        );
    }

    /// Builds the EXPLAIN plan tree of a prepared plan **without executing
    /// it** (the `explain=1` request path). Bypasses the plan cache — EXPLAIN
    /// should show what a cold request would decide — and records no success
    /// metrics since nothing ran; failures still count as errors.
    pub fn explain(
        &self,
        sparql: &str,
        options: QueryOptions,
    ) -> Result<ExplainResponse, StoreError> {
        let engine = options.engine.unwrap_or(self.config.default_engine);
        let trace_id = self.next_trace_id.fetch_add(1, Ordering::Relaxed);
        self.journal_event(
            Some(trace_id),
            JournalEvent::QueryAdmitted {
                engine,
                mode: "explain",
            },
        );
        let start = Instant::now();
        let explained = fingerprint(sparql)
            .map_err(StoreError::from)
            .and_then(|fp| {
                let planned = self
                    .store
                    .prepare_plan_traced(sparql, engine, &Trace::disabled());
                self.journal_first_use_builds(trace_id);
                Ok((fp, self.store.store().explain(&planned?)))
            });
        let (fp, report) =
            explained.inspect_err(|e| self.record_query_error(engine, trace_id, e.to_string()))?;
        let elapsed = start.elapsed();
        self.journal_event(
            Some(trace_id),
            JournalEvent::QueryCompleted {
                engine,
                mode: "explain",
                cache_hit: false,
                solutions: 0,
                total_ms: elapsed.as_secs_f64() * 1000.0,
                shards: None,
                slow: None,
            },
        );
        Ok(ExplainResponse {
            report,
            engine,
            fingerprint: fp.hash,
            trace_id,
            elapsed,
        })
    }

    /// The `analyze=1` request path: explain a plan prepared outside the
    /// plan cache, run it, attach the run's actuals, and feed the estimate-
    /// vs-actual telemetry (the q-error histogram).
    fn run_analyze(
        &self,
        sparql: &str,
        engine: EngineKind,
        threads: Option<usize>,
        trace_id: u64,
    ) -> Result<Executed<'_>, StoreError> {
        let fp = fingerprint(sparql)?;
        let planned = self
            .store
            .prepare_plan_traced(sparql, engine, &Trace::disabled());
        self.journal_first_use_builds(trace_id);
        let plan = planned?;
        let store = self.store.store();
        let mut report = store.explain(&plan);
        let results = store.run_plan_traced(&plan, threads, &Trace::disabled())?;
        report.attach_actuals(&results);
        self.metrics.record_qerrors(&report.step_qerrors());
        Ok((results, false, fp, Some(report)))
    }

    /// Error bookkeeping: the error counter plus the journal's failure
    /// event.
    fn record_query_error(&self, engine: EngineKind, trace_id: u64, error: String) {
        self.metrics.record_error(engine);
        self.journal_event(Some(trace_id), JournalEvent::QueryFailed { engine, error });
    }

    /// Journals, under the request that caused them, the structures its
    /// planning just built (none, except for the first plan that reads the
    /// direct graph or the permutation tables).
    fn journal_first_use_builds(&self, trace_id: u64) {
        for build in self.store.store().take_first_use_builds() {
            self.journal_event(
                Some(trace_id),
                JournalEvent::StructureBuilt {
                    structure: build.structure,
                    ms: build.ms,
                    bytes: build.bytes,
                    peak_bytes: build.peak_bytes,
                },
            );
        }
    }

    /// Records one journal event stamped with the current uptime.
    fn journal_event(&self, trace_id: Option<u64>, event: JournalEvent) {
        self.journal
            .record(trace_id, self.metrics.uptime().as_secs_f64(), event);
    }

    fn run(
        &self,
        sparql: &str,
        engine: EngineKind,
        threads: Option<usize>,
        trace: &Trace,
        trace_id: u64,
    ) -> Result<Executed<'_>, StoreError> {
        let fp = {
            let mut span = trace.span("fingerprint");
            let fp = fingerprint(sparql)?;
            span.counter("tokens", fp.tokens as u64);
            fp
        };
        let cached = {
            let mut span = trace.span("cache_lookup");
            let cached = self.cache.get(&fp.canonical, engine);
            span.counter("hit", cached.is_some() as u64);
            cached
        };
        if let Some(plan) = cached {
            // Warm path: straight to enumeration.
            let results = self.store.store().run_plan_traced(&plan, threads, trace)?;
            return Ok((results, true, fp, None));
        }
        // Cold path: parse + transform, run, then publish the plan.
        let prepared = self.store.prepare_plan_traced(sparql, engine, trace);
        self.journal_first_use_builds(trace_id);
        let plan = prepared?;
        self.plans_prepared.fetch_add(1, Ordering::Relaxed);
        let results = self.store.store().run_plan_traced(&plan, threads, trace)?;
        let key = PlanKey {
            canonical: fp.canonical.clone(),
            kind: engine,
        };
        let outcome = self.cache.insert(key, Arc::new(plan));
        if let Some(victim) = outcome.evicted {
            self.journal_event(
                Some(trace_id),
                JournalEvent::PlanEvicted {
                    engine: victim.kind,
                    query: victim.canonical,
                },
            );
        }
        if outcome.inserted {
            self.journal_event(
                Some(trace_id),
                JournalEvent::PlanCached {
                    engine,
                    query: fp.canonical.clone(),
                },
            );
        }
        Ok((results, false, fp, None))
    }

    /// Renders every counter in Prometheus text exposition format (the
    /// `/metrics` payload): engine counters and latency histograms, stage
    /// time totals, plan-cache and store series.
    pub fn prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        self.metrics
            .render_prometheus(&mut out, self.store.flavor_name());
        let plans_prepared = self.plans_prepared.load(Ordering::Relaxed);
        for (name, kind, help, value) in [
            (
                "turbohom_plan_cache_hits_total",
                "counter",
                "Plan-cache hits.",
                self.cache.hits(),
            ),
            (
                "turbohom_plan_cache_misses_total",
                "counter",
                "Plan-cache misses.",
                self.cache.misses(),
            ),
            (
                "turbohom_plan_cache_evictions_total",
                "counter",
                "Plans evicted from the cache.",
                self.cache.evictions(),
            ),
            (
                "turbohom_plan_cache_size",
                "gauge",
                "Plans currently cached.",
                self.cache.len() as u64,
            ),
            (
                "turbohom_plans_prepared_total",
                "counter",
                "How many times parse + transform actually ran.",
                plans_prepared,
            ),
            (
                "turbohom_triples",
                "gauge",
                "Triples in the underlying store.",
                self.store.store().triple_count() as u64,
            ),
        ] {
            scalar(&mut out, name, kind, help, value);
        }
        family(
            &mut out,
            "turbohom_storage_backend",
            "gauge",
            "Active storage backend (1 = active; the snapshot label is the file path, empty for the heap backend).",
        );
        let snapshot = self.store.store().snapshot_path();
        out.push_str(&format!(
            "turbohom_storage_backend{{backend=\"{}\",snapshot=\"{}\"}} 1\n",
            self.store.backend_name(),
            escape_label(
                &snapshot
                    .map(|p| p.display().to_string())
                    .unwrap_or_default()
            ),
        ));
        let bytes = self.bytes();
        family(
            &mut out,
            "turbohom_memory_bytes",
            "gauge",
            "Bytes of each array group of each store component (the /stats bytes ledger; direct and permutations are one zero line until a plan reads them).",
        );
        for MemoryRow {
            component,
            part,
            bytes,
        } in bytes.shards.iter().flat_map(|(_, rows)| rows)
        {
            for (kind, value) in [("heap", bytes.heap), ("mapped", bytes.mapped)] {
                out.push_str(&format!(
                    "turbohom_memory_bytes{{component=\"{component}\",part=\"{part}\",kind=\"{kind}\"}} {value}\n"
                ));
            }
        }
        scalar(
            &mut out,
            "turbohom_process_resident_bytes",
            "gauge",
            "Resident set of the server process (VmRSS).",
            bytes.resident,
        );
        scalar(
            &mut out,
            "turbohom_process_resident_peak_bytes",
            "gauge",
            "High-water mark of the resident set (VmHWM).",
            bytes.peak,
        );
        if let Some(sharded) = self.store.sharded() {
            family(
                &mut out,
                "turbohom_shards",
                "gauge",
                "Sharded-execution topology (1 = active; labels carry the configuration).",
            );
            out.push_str(&format!(
                "turbohom_shards{{shards=\"{}\"}} 1\n",
                sharded.shard_count(),
            ));
        }
        for (name, help, value) in [
            (
                "turbohom_slow_queries_total",
                "Completions kept in the journal's slow view.",
                self.journal.slow_recorded(),
            ),
            (
                "turbohom_journal_events_total",
                "Events recorded by the structured event journal.",
                self.journal.recorded(),
            ),
        ] {
            scalar(&mut out, name, "counter", help, value);
        }
        out
    }

    /// Walks the store's memory ledger and reads the process's resident set
    /// beside it (the `bytes` block of `/stats`).
    pub fn bytes(&self) -> BytesSnapshot {
        let store = self.store.store();
        let rows = store.memory();
        let accounted = ledger_total(&rows);
        let accounted = accounted.heap + accounted.mapped;
        let (resident, peak) = turbohom_engine::process_resident_bytes();
        BytesSnapshot {
            resident,
            peak,
            accounted,
            unaccounted: resident as i64 - accounted as i64,
            shards: vec![(store.triple_count(), rows)],
        }
    }

    /// Takes a snapshot of every counter (the `/stats` payload).
    pub fn stats(&self) -> StatsSnapshot {
        let engines = EngineKind::all()
            .into_iter()
            .map(|kind| {
                let m = self.metrics.engine(kind);
                let ms = |d: Duration| d.as_secs_f64() * 1000.0;
                EngineStats {
                    kind,
                    store: self.store.flavor_name(),
                    queries: m.queries.load(Ordering::Relaxed),
                    errors: m.errors.load(Ordering::Relaxed),
                    qps: self.metrics.qps(kind),
                    mean_ms: ms(m.latency.mean()),
                    p50_ms: ms(m.latency.quantile(0.50)),
                    p95_ms: ms(m.latency.quantile(0.95)),
                    p99_ms: ms(m.latency.quantile(0.99)),
                    matcher: m.matcher(),
                }
            })
            .collect();
        StatsSnapshot {
            uptime_seconds: self.metrics.uptime().as_secs_f64(),
            store_flavor: self.store.flavor_name(),
            triples: self.store.store().triple_count(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_evictions: self.cache.evictions(),
            cache_size: self.cache.len(),
            plans_prepared: self.plans_prepared.load(Ordering::Relaxed),
            connections: self.metrics.http().connections.load(Ordering::Relaxed),
            requests: self.metrics.http().requests.load(Ordering::Relaxed),
            engines,
            bytes: self.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::{vocab, Dataset};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    fn service() -> QueryService {
        let mut ds = Dataset::new();
        for i in 0..3 {
            let s = ub(&format!("student{i}"));
            ds.insert_iris(&s, vocab::RDF_TYPE, &ub("Student"));
            ds.insert_iris(&s, &ub("memberOf"), &ub("dept0"));
        }
        QueryService::new(Arc::new(Store::from_dataset(ds)))
    }

    const Q: &str = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT ?x WHERE { ?x rdf:type ub:Student . }"#;

    #[test]
    fn warm_path_skips_parse_and_transform_entirely() {
        let svc = service();
        let cold = svc.query(Q, QueryOptions::default()).unwrap();
        assert!(!cold.cache_hit);
        let warm = svc.query(Q, QueryOptions::default()).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.results.to_sparql_json(), cold.results.to_sparql_json());
        assert_eq!(warm.fingerprint, cold.fingerprint);
        let stats = svc.stats();
        // The prepare half (parse + transform) ran exactly once.
        assert_eq!(stats.plans_prepared, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_size, 1);
    }

    #[test]
    fn spelling_variants_share_one_plan() {
        let svc = service();
        svc.query(Q, QueryOptions::default()).unwrap();
        // Different whitespace, prefix names and keyword case — same plan.
        let variant = "PREFIX t: <http://ub.org/>\nselect ?x\nwhere { ?x a t:Student . }";
        let r = svc.query(variant, QueryOptions::default()).unwrap();
        assert!(r.cache_hit);
        assert_eq!(svc.stats().plans_prepared, 1);
    }

    #[test]
    fn engines_get_separate_plans_and_metrics() {
        let svc = service();
        let a = svc.query(Q, QueryOptions::default()).unwrap();
        let b = svc
            .query(
                Q,
                QueryOptions {
                    engine: Some(EngineKind::MergeJoin),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert!(!b.cache_hit);
        assert_eq!(a.results.len(), b.results.len());
        let stats = svc.stats();
        assert_eq!(
            stats.engines[EngineKind::TurboHomPlusPlus.index()].queries,
            1
        );
        assert_eq!(stats.engines[EngineKind::MergeJoin.index()].queries, 1);
        assert_eq!(stats.plans_prepared, 2);
    }

    #[test]
    fn errors_are_counted_and_surfaced() {
        let svc = service();
        assert!(svc
            .query("SELECT WHERE {", QueryOptions::default())
            .is_err());
        let stats = svc.stats();
        assert_eq!(
            stats.engines[EngineKind::TurboHomPlusPlus.index()].errors,
            1
        );
        assert_eq!(
            stats.engines[EngineKind::TurboHomPlusPlus.index()].queries,
            0
        );
    }

    #[test]
    fn per_request_threads_are_clamped() {
        let svc = service();
        let r = svc
            .query(
                Q,
                QueryOptions {
                    threads: Some(1_000_000),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(r.results.len(), 3);
    }

    /// `clamp(1, 0)` panics: a bound of 0 is raised to 1 when the service
    /// is built, and a request that names a thread count runs on one.
    #[test]
    fn a_thread_bound_of_zero_is_one() {
        let store = service().store().clone();
        let config = ServiceConfig {
            max_threads: 0,
            ..ServiceConfig::default()
        };
        let svc = QueryService::with_any_store(store, config);
        assert_eq!(svc.config().max_threads, 1);
        let options = QueryOptions {
            threads: Some(4),
            ..QueryOptions::default()
        };
        assert_eq!(svc.query(Q, options).unwrap().results.len(), 3);
    }

    #[test]
    fn profile_mode_returns_a_full_stage_breakdown() {
        let svc = service();
        let cold = svc
            .query(
                Q,
                QueryOptions {
                    profile: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        let report = cold.profile.as_ref().unwrap();
        assert_eq!(report.trace_id, cold.trace_id);
        // Cold request: all six in-process pipeline stages, in order (the
        // HTTP layer adds `serialise` and `write`).
        let names: Vec<&str> = report.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "fingerprint",
                "cache_lookup",
                "parse",
                "transform",
                "execute",
                "materialise"
            ]
        );
        // The stage roll-up covers (almost) the whole request: stages are
        // what the request *does*, so their sum can only miss the small
        // gaps between spans.
        assert!(report.stage_total_ns() <= report.total_ns);
        // Detailed trace: the core recorded enumeration under execute.
        assert!(report.span_total_ns("enumeration") > 0);
        let fingerprint_span = report
            .spans
            .iter()
            .find(|s| s.name == "fingerprint")
            .unwrap();
        assert!(fingerprint_span
            .counters
            .iter()
            .any(|(n, _)| *n == "tokens"));

        // Warm request: no parse/transform stages, cache_lookup hit=1.
        let warm = svc
            .query(
                Q,
                QueryOptions {
                    profile: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        let report = warm.profile.as_ref().unwrap();
        let names: Vec<&str> = report.stages().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["fingerprint", "cache_lookup", "execute", "materialise"]
        );
        let lookup = report
            .spans
            .iter()
            .find(|s| s.name == "cache_lookup")
            .unwrap();
        assert_eq!(lookup.counters, vec![("hit", 1)]);
        // Ids are distinct and monotonically assigned.
        assert!(warm.trace_id > cold.trace_id);
    }

    #[test]
    fn unprofiled_requests_skip_the_report_but_feed_stage_totals() {
        let svc = service();
        let r = svc.query(Q, QueryOptions::default()).unwrap();
        assert!(r.profile.is_none());
        assert!(r.trace_id > 0);
        // The coarse trace still fed the per-stage time totals.
        let totals = svc.metrics().stage_totals();
        assert!(totals.seconds("fingerprint") > 0.0);
        assert!(totals.seconds("execute") > 0.0);
        let exposition = svc.prometheus();
        assert!(exposition.contains("# TYPE turbohom_stage_seconds_total counter"));
    }

    #[test]
    fn an_offender_is_one_record_in_both_views_and_a_fast_request_carries_no_detail() {
        // Threshold zero: every query is an offender.
        let svc = QueryService::with_any_store(
            service().store().clone(),
            ServiceConfig {
                slow_query: Some(Duration::ZERO),
                ..ServiceConfig::default()
            },
        );
        let r = svc.query(Q, QueryOptions::default()).unwrap();
        let entries = svc.journal().slow_snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].trace_id, Some(r.trace_id));
        let JournalEvent::QueryCompleted {
            engine,
            mode,
            cache_hit,
            solutions,
            shards,
            slow: Some(detail),
            ..
        } = &entries[0].event
        else {
            panic!("a slow query_completed expected: {:?}", entries[0]);
        };
        assert_eq!((*engine, *mode), (EngineKind::TurboHomPlusPlus, "query"));
        assert_eq!((*cache_hit, *solutions, *shards), (false, 3, None));
        assert!(detail.query.contains("SELECT"));
        let stage_names: Vec<&str> = detail.stages_ms.iter().map(|(n, _)| *n).collect();
        assert!(stage_names.contains(&"parse"));
        assert!(stage_names.contains(&"execute"));
        assert!(svc.prometheus().contains("turbohom_slow_queries_total 1"));
        // The entry of `/debug/slow` is the `query_completed` line of
        // `/debug/events`, and there is no other event for the offender.
        let line = entries[0].to_json();
        let events = svc.journal().to_jsonl();
        assert_eq!(events.lines().filter(|l| *l == line).count(), 1);
        assert!(svc.journal().slow_to_json().contains(&line));
        assert!(line.contains("\"slow\":true,\"stages_ms\":{") && line.contains("\"query\":\""));
        assert!(!events.contains("\"event\":\"slow_query\""));

        // Under the default threshold the same request is fast: one
        // `query_completed` with neither stages nor text, and an empty view.
        let svc = service();
        svc.query(Q, QueryOptions::default()).unwrap();
        let events = svc.journal().to_jsonl();
        let completed: Vec<&str> = (events.lines())
            .filter(|l| l.contains("\"event\":\"query_completed\""))
            .collect();
        assert_eq!(completed.len(), 1, "{events}");
        assert!(completed[0].contains("\"slow\":false}"), "{events}");
        assert!(!completed[0].contains("stages_ms") && !completed[0].contains("\"query\":"));
        assert!(svc.journal().slow_snapshot().is_empty());
    }

    #[test]
    fn a_disabled_slow_view_stays_empty() {
        let svc = QueryService::with_any_store(
            service().store().clone(),
            ServiceConfig {
                slow_query: None,
                ..ServiceConfig::default()
            },
        );
        svc.query(Q, QueryOptions::default()).unwrap();
        assert!(svc.journal().slow_snapshot().is_empty());
        let document = svc.journal().slow_to_json();
        assert!(document.contains("\"threshold_ms\":null"));
    }

    #[test]
    fn every_matcher_counter_is_served_with_the_value_the_query_reported() {
        let svc = service();
        let analyzed = svc
            .query(
                Q,
                QueryOptions {
                    analyze: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        let reported = analyzed.results.stats.counters();
        assert!(reported.iter().any(|(_, value)| *value > 0));
        let stats = svc.stats();
        let served = &stats.engines[EngineKind::TurboHomPlusPlus.index()];
        assert_eq!(served.matcher, reported);
        let (json, metrics) = (stats.to_json(), svc.prometheus());
        let engines = &json[json.find("\"engines\"").unwrap()..];
        let matcher = &engines[engines.find("\"matcher\":{").unwrap()..];
        let matcher = &matcher[..matcher.find('}').unwrap()];
        for (name, value) in reported {
            assert!(
                matcher.contains(&format!("\"{name}\":{value}")),
                "{name} in {matcher}"
            );
            // One family per counter: labelled by engine and store, but for
            // the two shard counters, which are one sample summed over engines.
            assert!(metrics.contains(&format!("# TYPE turbohom_{name}_total counter\n")));
            let sample = if name.starts_with("shards_") {
                format!("\nturbohom_{name}_total {value}\n")
            } else {
                format!(
                    "\nturbohom_{name}_total{{engine=\"turbohom++\",store=\"single\"}} {value}\n"
                )
            };
            assert!(metrics.contains(&sample), "{sample} in {metrics}");
        }
        // The benchmark reads the first `hits` / `misses` of `/stats`.
        let first = |member: &str| json.find(&format!("\"{member}\":")).unwrap();
        assert!(first("plan_cache") < first("hits") && first("plan_cache") < first("misses"));
    }

    #[test]
    fn prometheus_exposition_covers_cache_and_store_series() {
        let svc = service().with_dataset_label("test-ds");
        svc.query(Q, QueryOptions::default()).unwrap();
        svc.query(Q, QueryOptions::default()).unwrap();
        let out = svc.prometheus();
        assert!(out.contains("turbohom_plan_cache_hits_total 1\n"));
        assert!(out.contains("turbohom_plan_cache_misses_total 1\n"));
        assert!(out.contains("turbohom_plan_cache_size 1\n"));
        assert!(out.contains("turbohom_plans_prepared_total 1\n"));
        assert!(out.contains("turbohom_triples 6\n"));
        assert!(out.contains("turbohom_storage_backend{backend=\"heap\",snapshot=\"\"} 1\n"));
        assert!(out.contains("turbohom_queries_total{engine=\"turbohom++\",store=\"single\"} 2\n"));
        assert!(out.contains(
            "turbohom_query_latency_seconds_count{engine=\"turbohom++\",store=\"single\"} 2\n"
        ));
        assert_eq!(svc.dataset_label(), "test-ds");
    }

    #[test]
    fn stats_json_is_well_formed() {
        let svc = service();
        svc.query(Q, QueryOptions::default()).unwrap();
        let json = svc.stats().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"plan_cache\""));
        assert!(json.contains("\"turbohom++\""));
        assert!(json.contains("\"p99\""));
        // Satellite: the store flavor labels the snapshot and every engine.
        assert!(json.contains("\"store\":\"single\""));
        assert_eq!(svc.stats().store_flavor, "single");
        // Balanced braces (cheap sanity check without a JSON parser).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn explain_builds_the_plan_without_executing() {
        let svc = service();
        let r = svc.explain(Q, QueryOptions::default()).unwrap();
        assert!(!r.report.analyzed);
        assert_eq!(r.report.store_flavor, "single");
        assert!(r.report.to_json().contains("\"mode\":\"explain\""));
        // Nothing ran: no success metrics, no plan prepared, no cache entry.
        let stats = svc.stats();
        assert_eq!(
            stats.engines[EngineKind::TurboHomPlusPlus.index()].queries,
            0
        );
        assert_eq!(stats.plans_prepared, 0);
        assert_eq!(stats.cache_size, 0);
        // But the request is journaled with its trace id.
        let jsonl = svc.journal().to_jsonl();
        assert!(jsonl.contains("\"mode\":\"explain\""));
        assert!(jsonl.contains(&format!(
            "\"trace\":\"{}\"",
            crate::format_trace_id(r.trace_id)
        )));
    }

    #[test]
    fn analyze_executes_and_feeds_qerror_telemetry() {
        let svc = service();
        let r = svc
            .query(
                Q,
                QueryOptions {
                    analyze: true,
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(r.results.len(), 3);
        let report = r.explain.as_ref().unwrap();
        assert!(report.analyzed);
        assert!(report.max_qerror().is_some());
        // The per-step q-errors landed in the histogram …
        assert!(svc.metrics().qerror().count() > 0);
        let exposition = svc.prometheus();
        assert!(exposition.contains("# TYPE turbohom_estimate_qerror histogram"));
        assert!(exposition.contains("turbohom_estimate_qerror_count"));
        // … and the run still counted as a normal successful query.
        assert_eq!(
            svc.stats().engines[EngineKind::TurboHomPlusPlus.index()].queries,
            1
        );
    }

    #[test]
    fn journal_records_the_query_lifecycle_with_trace_ids() {
        let svc = service();
        let ok = svc.query(Q, QueryOptions::default()).unwrap();
        assert!(svc
            .query("SELECT WHERE {", QueryOptions::default())
            .is_err());
        let jsonl = svc.journal().to_jsonl();
        // Startup + admitted/cached/completed + admitted/failed.
        assert!(jsonl.contains("\"event\":\"store_loaded\""));
        assert!(jsonl.contains("\"event\":\"query_admitted\""));
        assert!(jsonl.contains("\"event\":\"plan_cached\""));
        assert!(jsonl.contains("\"event\":\"query_completed\""));
        assert!(jsonl.contains("\"event\":\"query_failed\""));
        let id = crate::format_trace_id(ok.trace_id);
        // The successful request's admitted/cached/completed lines share
        // one trace id.
        assert!(
            jsonl
                .lines()
                .filter(|l| l.contains(&format!("\"trace\":\"{id}\"")))
                .count()
                >= 3
        );
        assert!(svc.prometheus().contains("turbohom_journal_events_total"));
    }

    #[test]
    fn each_build_reports_the_peak_it_reached() {
        let svc = service();
        let merge_join = QueryOptions {
            engine: Some(EngineKind::MergeJoin),
            ..QueryOptions::default()
        };
        svc.query(Q, merge_join).unwrap();
        let events = svc.journal().to_jsonl();
        let line = |event: &str| {
            let tag = format!("\"event\":\"{event}\"");
            events
                .lines()
                .find(|l| l.contains(&tag))
                .unwrap()
                .to_owned()
        };
        let (loaded, built) = (line("store_loaded"), line("structure_built"));
        let member = |line: &str, key: &str| -> u64 {
            let (_, rest) = line.split_once(&format!("\"{key}\":")).unwrap();
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().unwrap()
        };
        // A structure not built yet reports no peak; a built one reports
        // the high-water mark wherever `/proc` has one. (The kernel samples
        // the resident set it folds into `VmHWM`, so two reads are not
        // ordered, and nothing here compares them.)
        assert_eq!(member(&loaded, "direct_peak_bytes"), 0);
        let peaks = [
            member(&loaded, "freeze_peak_bytes"),
            member(&loaded, "type_aware_peak_bytes"),
            member(&built, "peak_bytes"),
        ];
        if cfg!(target_os = "linux") {
            assert!(peaks.iter().all(|&peak| peak > 0), "{loaded}\n{built}");
        }
    }

    /// A sharded service caches routed plans: a cache hit answers with the
    /// cold request's body and routing, and journals the shards both times.
    #[test]
    fn a_sharded_service_serves_routed_plans_from_its_cache() {
        use turbohom_engine::{ShardedOptions, ShardedStore};
        let mut ds = Dataset::new();
        for d in 0..2 {
            for i in 0..3 {
                let s = ub(&format!("student{d}_{i}"));
                ds.insert_iris(&s, &ub("memberOf"), &ub(&format!("dept{d}")));
            }
        }
        let options = ShardedOptions {
            shards: 4,
            ..ShardedOptions::default()
        };
        let sharded = ShardedStore::from_dataset_with(ds, options).unwrap();
        let svc = QueryService::with_any_store(
            AnyStore::Sharded(Arc::new(sharded)),
            ServiceConfig::default(),
        );
        let constant = "SELECT ?x WHERE { ?x <http://ub.org/memberOf> <http://ub.org/dept0> . }";
        let variable = "SELECT ?x ?d WHERE { ?x <http://ub.org/memberOf> ?d . }";
        for (sparql, rows, pruned, executed) in [(constant, 3, 3, 1), (variable, 6, 0, 4)] {
            let cold = svc.query(sparql, QueryOptions::default()).unwrap();
            let warm = svc.query(sparql, QueryOptions::default()).unwrap();
            assert_eq!((cold.cache_hit, warm.cache_hit), (false, true), "{sparql}");
            assert_eq!(cold.results.len(), rows, "{sparql}");
            let body = cold.results.to_sparql_json();
            assert_eq!(warm.results.to_sparql_json(), body, "{sparql}");
            let events = svc.journal().to_jsonl();
            for response in [&cold, &warm] {
                let stats = &response.results.stats;
                let routed = (stats.shards_pruned, stats.shards_executed);
                assert_eq!(routed, (pruned, executed), "{sparql}");
                let trace = format!(
                    "\"trace\":\"{}\"",
                    crate::format_trace_id(response.trace_id)
                );
                let completed = (events.lines())
                    .find(|l| l.contains(&trace) && l.contains("\"event\":\"query_completed\""))
                    .unwrap_or_else(|| panic!("no query_completed for {sparql}: {events}"));
                let shards = format!("\"shards_pruned\":{pruned},\"shards_executed\":{executed}");
                assert!(completed.contains(&shards), "{completed}");
            }
        }
        assert_eq!(svc.stats().plans_prepared, 2);
    }

    #[test]
    fn prometheus_engine_counters_carry_the_store_flavor() {
        let svc = service();
        svc.query(Q, QueryOptions::default()).unwrap();
        let out = svc.prometheus();
        assert!(out.contains("turbohom_queries_total{engine=\"turbohom++\",store=\"single\"} 1"));
        assert!(out.contains(
            "turbohom_query_latency_seconds_count{engine=\"turbohom++\",store=\"single\"} 1"
        ));
    }
}
