//! Store-level errors.

use std::fmt;
use turbohom_core::EngineError;
use turbohom_rdf::RdfError;
use turbohom_sparql::ParseError;
use turbohom_storage::SnapshotError;
use turbohom_transform::TransformError;

/// Errors surfaced by the [`Store`](crate::Store) API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The RDF input could not be parsed or was malformed.
    Rdf(RdfError),
    /// The SPARQL query could not be parsed.
    Sparql(ParseError),
    /// The query could not be transformed into a query graph.
    Transform(TransformError),
    /// The matching engine rejected the query.
    Engine(EngineError),
    /// A snapshot file could not be written, read or validated. The inner
    /// [`SnapshotError`] distinguishes bad magic, version mismatch,
    /// truncation, checksum failure and structural corruption.
    Snapshot(SnapshotError),
    /// A per-request thread override of `0` was supplied. `0` worker threads
    /// cannot execute anything; callers that want the store default should
    /// pass `None`, so this is rejected instead of silently clamped.
    InvalidThreadCount(usize),
    /// The query falls outside the sharded executor's scope: it has no
    /// anchor bound in every row (a UNION, or only schema triples). The
    /// inner message says which; single-store execution still works.
    NotShardable(String),
    /// The query has an `ORDER BY`. No engine sorts: rows leave in
    /// enumeration order, so the clause is refused rather than ignored.
    OrderByUnsupported,
    /// The query is a `SELECT DISTINCT`. No engine removes duplicates, so
    /// the modifier is refused rather than answered with them.
    DistinctUnsupported,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Rdf(e) => write!(f, "RDF error: {e}"),
            StoreError::Sparql(e) => write!(f, "SPARQL error: {e}"),
            StoreError::Transform(e) => write!(f, "transformation error: {e}"),
            StoreError::Engine(e) => write!(f, "engine error: {e}"),
            StoreError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            StoreError::InvalidThreadCount(n) => write!(
                f,
                "invalid thread count {n}: the override must be at least 1 (pass None for the store default)"
            ),
            StoreError::NotShardable(why) => write!(f, "query is not shardable: {why}"),
            StoreError::OrderByUnsupported => write!(
                f,
                "ORDER BY is not supported: rows are returned in enumeration order"
            ),
            StoreError::DistinctUnsupported => write!(
                f,
                "DISTINCT is not supported: duplicate solutions are not removed"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<RdfError> for StoreError {
    fn from(e: RdfError) -> Self {
        StoreError::Rdf(e)
    }
}

impl From<ParseError> for StoreError {
    fn from(e: ParseError) -> Self {
        StoreError::Sparql(e)
    }
}

impl From<TransformError> for StoreError {
    fn from(e: TransformError) -> Self {
        StoreError::Transform(e)
    }
}

impl From<EngineError> for StoreError {
    fn from(e: EngineError) -> Self {
        StoreError::Engine(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: StoreError = RdfError::UnknownTermId(3).into();
        assert!(e.to_string().contains("RDF error"));
        let e: StoreError = ParseError {
            message: "bad".into(),
            offset: 2,
        }
        .into();
        assert!(e.to_string().contains("SPARQL"));
        let e: StoreError = TransformError::UnsupportedTerm("UNION".into()).into();
        assert!(e.to_string().contains("transformation"));
        let e: StoreError = EngineError::DisconnectedQuery.into();
        assert!(e.to_string().contains("engine"));
        let e = StoreError::InvalidThreadCount(0);
        assert!(e.to_string().contains("invalid thread count 0"));
        let e: StoreError = SnapshotError::BadMagic.into();
        assert!(e.to_string().contains("snapshot error"));
        assert!(matches!(e, StoreError::Snapshot(SnapshotError::BadMagic)));
        let e = StoreError::NotShardable("UNION patterns are out of scope".into());
        assert!(e.to_string().contains("not shardable"));
        assert!(e.to_string().contains("UNION"));
    }
}
