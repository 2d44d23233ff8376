//! The TurboHOM / TurboHOM++ matching engine — the paper's contribution.
//!
//! This crate implements the e-graph homomorphism search of
//! *"Taming Subgraph Isomorphism for RDF Query Processing"* (VLDB 2015):
//! a TurboISO-style backtracking matcher relaxed from subgraph isomorphism to
//! graph homomorphism with edge-label mapping (Definition 2), running over
//! the type-aware-transformed labeled graph, with the paper's optimizations:
//!
//! | Paper | Module |
//! |-------|--------|
//! | `ChooseStartQueryVertex` (rank = freq/deg, degree + NLF refinement) | `start_vertex` |
//! | `WriteQueryTree` (BFS tree + non-tree edges) | `query_tree` |
//! | `ExploreCandidateRegion` | `candidate_region` |
//! | `DetermineMatchingOrder` (+REUSE) | [`matching_order`] |
//! | `SubgraphSearch` / `IsJoinable` (+INT) | [`subgraph_search`] |
//! | degree / NLF filters (−DEG / −NLF toggles) | [`filters`] |
//! | OPTIONAL / FILTER handling (Section 5.1) | folded into [`subgraph_search`] and [`engine`] |
//! | parallel execution over starting vertices (Section 5.2) | [`engine`] + [`morsel`] |
//!
//! The public entry point is [`TurboHomEngine`].

mod candidate_region;
pub mod config;
pub mod engine;
pub mod filters;
pub mod matching_order;
pub mod morsel;
mod query_tree;
pub mod result;
mod start_vertex;
pub mod stats;
pub mod subgraph_search;

pub use config::{MatchSemantics, OptimizationName, Optimizations, TurboHomConfig};
pub use engine::{EngineError, Prologue, RunInput, TurboHomEngine};
pub use matching_order::MatchingOrder;
pub use result::{merge_step_counts, MatchResult, RowLayout};
pub use stats::MatchStats;
