//! RDF substrate for the TurboHOM++ reproduction.
//!
//! This crate provides everything the matching engine needs *below* the graph
//! level:
//!
//! * [`Term`] — the RDF term model (IRIs, blank nodes, plain/typed/language
//!   literals) with N-Triples-compatible formatting.
//! * [`Dictionary`] — dictionary encoding between terms and dense integer
//!   [`TermId`]s, exactly the style RDF-3X and TurboHOM++ rely on so that the
//!   engine works over integers only and "the dictionary look-up time" can be
//!   excluded from timings as the paper does (Section 7.1).
//! * [`IdRows`] — the flat `u32` id-row buffer every result path appends to,
//!   and [`TermRef`], the borrowed term view that sorts and serialises those
//!   ids without cloning a `Term` (an IRI as an [`IriRef`]: the namespace
//!   the dictionary stores once and the local name).
//! * [`Triple`] / [`TripleStore`] — an append-only, deduplicated in-memory
//!   triple store over encoded ids.
//! * [`ntriples`] — a streaming N-Triples parser and serializer used by the
//!   examples, tests and dataset round-trips.
//! * [`inference`] — the RDFS-subset forward chaining (subClassOf /
//!   subPropertyOf transitive closure, type inheritance, domain/range) that
//!   the LUBM benchmark setup requires ("we load the original triples as well
//!   as inferred triples", Section 7.1).
//! * [`vocab`] — well-known IRIs (`rdf:type`, `rdfs:subClassOf`, …).

pub mod dictionary;
pub mod error;
pub mod inference;
pub mod ntriples;
pub mod rows;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dictionary::{Dictionary, TermId};
pub use error::RdfError;
pub use inference::{InferenceEngine, InferenceStats};
pub use ntriples::{parse_ntriples, parse_ntriples_line, serialize_ntriples};
pub use rows::{IdRows, UNBOUND};
pub use term::{IriRef, Term, TermRef};
pub use triple::{Dataset, Triple, TripleStore};
