//! Labeled-graph substrate for the TurboHOM++ reproduction.
//!
//! This crate implements the in-memory data structures of paper Section 4.2:
//!
//! * [`LabeledGraph`] — an immutable CSR-style directed graph whose vertices
//!   carry *label sets* and whose edges carry a single label. Adjacency is
//!   stored **grouped by neighbor type** — the pair *(edge label, neighbor
//!   vertex label)* — in both directions, which is exactly the layout that
//!   makes `ExploreCandidateRegion` and the `+INT` intersection-based
//!   `IsJoinable` test cheap. [`layout`] lays it out in counted passes from
//!   any edge source that can be walked more than once.
//! * [`InverseLabelIndex`] — the "inverse vertex label list": vertex label →
//!   sorted list of vertices carrying it.
//! * [`PredicateIndex`] — edge label → (sorted subject list, sorted object
//!   list), used when a query vertex has neither label nor bound ID
//!   (Section 4.2, `ChooseStartQueryVertex`), plus the schema summary derived
//!   from it: what a predicate implies of its endpoints, and a 64-bit
//!   predicate signature per vertex.
//! * [`QueryGraph`] — the query-side representation with the *two-attribute
//!   vertex model*: a query vertex has an optional bound data-vertex ID and a
//!   label set; a query edge has an optional edge label (a `None` label is a
//!   variable predicate of the e-graph homomorphism).
//! * [`ops`] — sorted-set kernels (merge/galloping intersection, union,
//!   k-way intersection) shared by the matcher and the baselines.

pub mod builder;
pub mod ids;
pub mod inverse_label;
pub mod labeled_graph;
pub mod ops;
pub mod predicate_index;
pub mod query_graph;

pub use builder::{layout, EdgeSink, LabeledGraphBuilder};
pub use ids::{Direction, ELabel, VLabel, VertexId};
pub use inverse_label::InverseLabelIndex;
pub use labeled_graph::{GraphStats, LabeledGraph};
pub use predicate_index::{signature_bit, PredicateIndex};
pub use query_graph::{QueryEdge, QueryGraph, QueryVertex};
