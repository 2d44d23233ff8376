//! Data-graph partitioning and query routing for sharded execution.
//!
//! The paper's TurboHOM++ wins by shrinking the search space *before*
//! enumeration; this crate extends the same idea to scale-out (ROADMAP
//! item 1):
//!
//! * [`partition_dataset`] deterministically splits a [`Dataset`] into `k`
//!   partitions by term ownership ([`Ownership`]: `hash % k`), replicating a
//!   *halo* of boundary adjacency, [`HALO`] linkage hops deep, into each
//!   partition so that a connected query never needs a distributed join.
//! * [`OwnedTerms`] is the bit set of a shard's term ids that the shard
//!   owns: what the scatter-gather ownership filter reads per row.
//! * [`analyze_query`] decides whether a query is shardable at all (single
//!   union-free branch, every triple within the halo radius of an anchor)
//!   and picks the anchor term that makes scatter-gather results an *exact*
//!   multiset partition of the single-store answer. A constant anchor
//!   routes the query to its owner shard alone. A shard missing one of the
//!   query's constants needs no check here: its own transform finds the
//!   constant absent from its dictionary and explores nothing.
//!
//! Everything here is deliberately independent of the engine crates: it
//! speaks [`Dataset`]/[`Term`] on the data side and the SPARQL algebra on
//! the query side, so the coordinator in `turbohom-engine` stays thin.
//! Nothing here is saved: a sharded store is partitioned from triples at
//! boot.

mod partitioner;
mod query;

pub use partitioner::{partition_dataset, OwnedTerms, Ownership, PartitionedDataset, HALO};
pub use query::{analyze_query, Anchor, ShardQuery};

use turbohom_rdf::{vocab, TermRef};
use turbohom_storage::{fnv1a, FNV_OFFSET};

/// The ownership hash of a term (a `&Term` or a borrowed `TermRef`, which
/// render alike): FNV-1a over its N-Triples rendering, fed to the hash piece
/// by piece as it is rendered. Dictionary-independent, so every shard (and
/// every process) agrees on which shard owns a term regardless of local id
/// assignment.
pub fn term_hash<'a>(term: impl Into<TermRef<'a>>) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, piece: &str) -> std::fmt::Result {
            self.0 = fnv1a(self.0, piece.as_bytes());
            Ok(())
        }
    }
    let mut hash = Fnv(FNV_OFFSET);
    let _ = write!(hash, "{}", term.into());
    hash.0
}

/// Returns `true` for the RDFS schema predicates that are replicated into
/// every shard (`rdfs:subClassOf`, `rdfs:subPropertyOf`, `rdfs:domain`,
/// `rdfs:range`). Schema triples are tiny and global, so replication makes
/// any schema-touching pattern trivially satisfiable everywhere.
pub fn is_schema_predicate(iri: &str) -> bool {
    iri == vocab::RDFS_SUBCLASSOF
        || iri == vocab::RDFS_SUBPROPERTYOF
        || iri == vocab::RDFS_DOMAIN
        || iri == vocab::RDFS_RANGE
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::Term;

    #[test]
    fn term_hash_is_the_hash_of_the_rendering() {
        let a = Term::iri("http://ex.org/a");
        assert_eq!(term_hash(&a), fnv1a(FNV_OFFSET, b"<http://ex.org/a>"));
        // Pinned, so that a change to the rendering or the hash, which moves
        // every term to another shard, shows here first.
        assert_eq!(term_hash(&a), 0x282f_4643_dfc8_a3aa);
        // Different term kinds with the same inner text hash differently.
        assert_ne!(term_hash(&Term::iri("x")), term_hash(&Term::literal("x")));
        // A rendering made of several pieces hashes like the whole string.
        let tagged = Term::lang_literal("hi \"there\"", "en");
        assert_eq!(
            term_hash(&tagged),
            fnv1a(FNV_OFFSET, tagged.to_string().as_bytes())
        );
    }

    #[test]
    fn schema_predicates_are_recognized() {
        assert!(is_schema_predicate(vocab::RDFS_SUBCLASSOF));
        assert!(is_schema_predicate(vocab::RDFS_SUBPROPERTYOF));
        assert!(is_schema_predicate(vocab::RDFS_DOMAIN));
        assert!(is_schema_predicate(vocab::RDFS_RANGE));
        assert!(!is_schema_predicate(vocab::RDF_TYPE));
        assert!(!is_schema_predicate("http://ex.org/p"));
    }
}
