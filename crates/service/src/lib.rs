//! `turbohom-service` — a concurrent SPARQL query service over one shared
//! [`Store`](turbohom_engine::Store).
//!
//! The embedded [`Store::execute`](turbohom_engine::Store::execute) API
//! re-parses and re-transforms a query on every call. This crate adds the
//! request-path machinery a server needs on top of the prepare/run split in
//! `turbohom-engine`:
//!
//! * [`QueryService`] — owns an `Arc<Store>`, answers queries from any
//!   number of threads,
//! * a **plan cache** ([`cache::PlanCache`]) — an LRU keyed by the
//!   normalized query fingerprint (see `turbohom_sparql::fingerprint`), so a
//!   repeated query skips parsing, transformation and matching-order
//!   determination and goes straight to enumeration,
//! * **metrics** ([`metrics::ServiceMetrics`]) — per-engine QPS and latency
//!   histograms (p50/p95/p99) plus cache hit/miss counters, served as JSON,
//! * **observability** — every request runs under a span trace
//!   (`turbohom-trace`): `profile=1` returns the full span tree inline,
//!   `explain=1` returns the structured plan tree without executing,
//!   `analyze=1` executes and annotates that tree with actuals (feeding the
//!   estimate-vs-actual q-error histogram), [`metrics::ServiceMetrics`]
//!   renders Prometheus text exposition — one series per counter of
//!   `MatchStats::counters`, the table `/stats` iterates too — and a
//!   [`journal::EventJournal`] ring records typed lifecycle events (query
//!   admitted/completed/failed, plan cached/evicted, store loaded, structure
//!   built) correlated by trace id; a finished request is one
//!   `query_completed` entry, and those that crossed the slow threshold are
//!   kept in a second ring, the `/debug/slow` view,
//! * an **HTTP/1.1 endpoint** ([`HttpServer`]) on `std::net::TcpListener` —
//!   `GET`/`POST /query` returning SPARQL-JSON, `/healthz`, `/stats`,
//!   `/metrics`, `/debug/slow`, `/debug/events` — and the `turbohom-server`
//!   binary wiring it to a LUBM or N-Triples store.
//!
//! ```
//! use std::sync::Arc;
//! use turbohom_engine::Store;
//! use turbohom_service::{QueryOptions, QueryService};
//!
//! let store = Store::from_ntriples(
//!     "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .",
//! )
//! .unwrap();
//! let service = QueryService::new(Arc::new(store));
//!
//! let q = "SELECT ?x WHERE { ?x <http://ex.org/p> ?y . }";
//! let cold = service.query(q, QueryOptions::default()).unwrap();
//! assert!(!cold.cache_hit);
//! let warm = service.query(q, QueryOptions::default()).unwrap();
//! assert!(warm.cache_hit); // parse + transform skipped
//! assert_eq!(warm.results.len(), 1);
//! ```

pub mod cache;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod service;

pub use cache::{InsertOutcome, PlanCache, PlanKey};
pub use http::{serve_connection, HttpServer, ServerHandle};
pub use journal::{EventJournal, JournalEntry, JournalEvent, SlowDetail};
pub use metrics::{
    EngineMetrics, HttpMetrics, LatencyHistogram, QErrorHistogram, ServiceMetrics, StageTotals,
};
pub use service::{
    BytesSnapshot, EngineStats, ExplainResponse, QueryOptions, QueryResponse, QueryService,
    ServiceConfig, StatsSnapshot, MAX_THREADS,
};
// Re-exported so HTTP-layer consumers can work with profile/explain reports
// and trace ids without a direct engine/trace dependency.
pub use turbohom_engine::{format_trace_id, ExplainReport, Trace, TraceReport};

/// The service is shared across worker threads; keep that provable.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<QueryService>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<ServiceMetrics>();
    assert_send_sync::<EventJournal>();
};
