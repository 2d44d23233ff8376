//! RDF → labeled-graph transformations (paper Sections 3.2 and 4.1).
//!
//! Two transformations take an encoded RDF [`Dataset`](turbohom_rdf::Dataset)
//! to a [`LabeledGraph`](turbohom_graph::LabeledGraph) the matching engine
//! can run on:
//!
//! * the **direct transformation** ([`direct_transform`]): every subject and
//!   object becomes a vertex, every predicate becomes an edge label, and the
//!   topology of the RDF graph is kept verbatim. Constants in queries become
//!   *bound* query vertices. This is what the paper's plain `TurboHOM` runs
//!   on (Figure 6 / Table 7 "direct transformation" rows).
//! * the **type-aware transformation** ([`type_aware_transform`]): triples
//!   with `rdf:type` / `rdfs:subClassOf` predicates are folded into vertex
//!   *label sets* (a vertex's `rdf:type` objects), so the data and query
//!   graphs shrink and simplify — the paper's key idea (Definition 3). The
//!   class hierarchy reaches the labels only through RDFS materialization at
//!   load, the same way it reaches every other engine.
//!
//! [`transform_branch`] turns a parsed SPARQL [`GroupPattern`]
//! (including nested OPTIONAL clauses) into a
//! [`QueryGraph`](turbohom_graph::QueryGraph) under either transformation,
//! producing the two-attribute query vertices of Section 4.1, and returns
//! that graph as its connected components.

pub mod common;
pub mod direct;
pub mod query;
pub mod type_aware;

pub use common::{GraphMappings, TransformError, TransformKind, TransformedGraph};
pub use direct::direct_transform;
pub use query::{transform_branch, TransformedBranch, TransformedQuery};
pub use type_aware::type_aware_transform;

// Re-exported so downstream crates don't need to depend on the algebra crate
// just to name the input type.
pub use turbohom_sparql::GroupPattern;
