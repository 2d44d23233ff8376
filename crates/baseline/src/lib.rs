//! Relational-style baseline RDF engines.
//!
//! The paper compares TurboHOM++ against three engines that all process
//! SPARQL by *joins over triple tables* rather than graph exploration:
//! RDF-3X (exhaustive sorted permutation indexes + merge joins), TripleBit
//! (compact bit-matrix storage + specialized joins) and an anonymized
//! commercial "System-X" (bitmap indexes). This crate provides two faithful
//! stand-ins for that execution model:
//!
//! * [`JoinStrategy::SortMerge`] — RDF-3X style: sorted orderings of the
//!   triple table ([`PermutationIndexes`]), triple-pattern range scans, and
//!   sort-merge joins with a greedy selectivity-based join order. RDF-3X
//!   keeps all six orderings so that every scan arrives sorted on its join
//!   variable; these joins sort their inputs themselves, so three orderings
//!   (SPO, POS, OSP) suffice: each pattern's bound positions are a key
//!   prefix of one of them, and every scan is one range of one table.
//! * [`JoinStrategy::Hash`] — the "specialized join" family (TripleBit /
//!   System-X stand-in): the same scans joined with hash joins.
//!
//! [`BaselineEngine::new`] takes the dictionary, the tables and the
//! strategy.
//!
//! Both support the general SPARQL features the BSBM explore use case needs
//! (OPTIONAL as left outer join, FILTER, UNION), so every benchmark query in
//! this repository can be cross-checked between the graph-exploration engine
//! and the join engines.
//!
//! What matters for reproducing the paper's evaluation is the *scaling
//! behaviour*: these engines scan data proportional to the dataset size even
//! for highly selective queries, whereas TurboHOM++ explores only the
//! candidate regions reachable from its starting vertices — which is exactly
//! the constant-vs-growing elapsed-time split of Table 3.

pub mod engine;
pub mod permutation;
pub mod relation;

pub use engine::{BaselineEngine, JoinStrategy};
pub use permutation::PermutationIndexes;
pub use relation::Relation;
