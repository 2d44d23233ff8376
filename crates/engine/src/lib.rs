//! The high-level store API tying the whole system together.
//!
//! A [`Store`] owns one RDF dataset and the derived structures the engines
//! read: the type-aware labeled graph with its indexes (TurboHOM++), and —
//! each built by the first plan that needs it — the direct graph (the
//! TurboHOM ablation) and the three permutation indexes (the join-based
//! baselines). A SPARQL query can then be executed with any
//! [`EngineKind`] and returns uniform results: [`IdResults`], one flat buffer
//! of term ids that a server serialises without copying a term, and
//! its decoded view [`QueryResults`], which is what the examples, the
//! cross-engine correctness tests and the benchmark harness build on.

mod backend;
pub mod error;
pub mod explain;
pub mod plan;
pub mod results;
pub mod sharded;
pub mod store;

pub use backend::{MemoryRow, StructureBuild};
pub use error::StoreError;
pub use explain::{
    qerror, ActualSummary, ComponentExplain, ExplainReport, ShardExplain, StartExplain,
    StepExplain, EXPLAIN_SCHEMA,
};
pub use plan::QueryPlan;
pub use results::{ExtraMembers, IdResults, QueryResults, ResultRow};
pub use sharded::{Anchor, AnyStore, ShardedOptions, ShardedStore};
pub use store::{EngineKind, ParseEngineKindError, PreparedQuery, Store, StoreOptions};
// Re-exported where it lived before it moved to the JSON crate (the bench
// recorder still builds its record with it).
pub use turbohom_json::escape_json_into;
// Re-exported so harnesses consuming `QueryResults::stats` (the benchmark
// flight recorder, the service metrics) need no direct core dependency.
pub use turbohom_core::MatchStats;
// Re-exported so callers matching on `StoreError::Snapshot` (the server's
// startup diagnostics, the corruption tests) and readers of the memory
// ledger and the process's resident set need no direct storage dependency.
pub use turbohom_storage::{process_resident_bytes, MemoryUse, SnapshotError};
// Re-exported so callers of the `*_traced` plan methods
// (the service, the benchmark recorder) need no direct trace dependency.
pub use turbohom_trace::{format_trace_id, SpanId, SpanRecord, Trace, TraceReport};

/// Compile-time proof that the shared-service types can cross threads: a
/// `QueryService` hands `Arc<Store>` and cached `Arc<QueryPlan>`s to every
/// worker, which is only sound if they are `Send + Sync`. Adding interior
/// mutability (`Rc`, `RefCell`, raw pointers…) anywhere inside them turns
/// this into a build error rather than a runtime surprise.
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Store>();
    assert_send_sync::<QueryPlan>();
    assert_send_sync::<QueryResults>();
    assert_send_sync::<IdResults<'static>>();
    assert_send_sync::<StoreError>();
    assert_send_sync::<ShardedStore>();
    assert_send_sync::<AnyStore>();
};
