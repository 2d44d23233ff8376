//! Deterministic partitioning of a dataset into `k` shard datasets.
//!
//! Ownership is a pure function of a term's N-Triples rendering (see
//! [`term_hash`]), so every process agrees on the owner of every term
//! without coordination. Each shard dataset then contains:
//!
//! * every *schema* triple (`rdfs:subClassOf` / `subPropertyOf` / `domain` /
//!   `range`) — replicated everywhere, so schema patterns match anywhere;
//! * every `rdf:type` triple whose subject lies within the shard's halo;
//! * every other triple with at least one endpoint within the halo.
//!
//! The *halo* of shard `S` is the set of terms within linkage distance
//! [`HALO`] of the terms `S` owns, where the linkage graph connects the
//! subject and object of every non-type, non-schema triple. Replicating the
//! halo is the boundary-adjacency rule that lets a connected query of
//! radius ≤ [`HALO`] around its anchor execute entirely inside the anchor
//! owner's shard — scatter-gather never needs a distributed join.

use crate::term_hash;
use std::collections::VecDeque;
use turbohom_rdf::{Dataset, Term, TermId, TermRef};

/// The halo radius: every term within two linkage hops of an owned term is
/// replicated. Radius 2 covers star and short-path queries (all LUBM
/// benchmark shapes); what it and the radii below it replicate is measured
/// in `docs/SHARDING.md`.
pub const HALO: usize = 2;

/// The term → shard assignment: `owner = hash(term) % k`. Stateless, so a
/// booted store rebuilds it from the shard count alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ownership {
    shards: usize,
}

impl Ownership {
    /// Hash ownership over `shards` shards (at least one).
    pub fn new(shards: usize) -> Ownership {
        Ownership {
            shards: shards.max(1),
        }
    }

    /// The shard owning a term with ownership hash `h`.
    pub fn owner_of_hash(&self, h: u64) -> usize {
        (h % self.shards as u64) as usize
    }

    /// The shard owning `term` (a `&Term` or a borrowed `TermRef`).
    pub fn owner<'a>(&self, term: impl Into<TermRef<'a>>) -> usize {
        self.owner_of_hash(term_hash(term))
    }
}

/// One bit per term id of a shard's dictionary: set when the shard owns the
/// term. The scatter-gather ownership filter reads it once per row instead
/// of hashing the row's anchor binding.
#[derive(Debug, Clone)]
pub struct OwnedTerms {
    bits: Vec<u64>,
}

impl OwnedTerms {
    /// Hashes every term of shard `shard`'s dictionary once. Derived data:
    /// built at boot, never persisted.
    pub fn build(dataset: &Dataset, ownership: &Ownership, shard: usize) -> OwnedTerms {
        let mut bits = vec![0u64; dataset.dictionary.len().div_ceil(64)];
        for (id, term) in dataset.dictionary.iter() {
            if ownership.owner(&term) == shard {
                bits[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }
        OwnedTerms { bits }
    }

    /// Does the shard own the term with this id of its dictionary? What
    /// [`Ownership::owner`] says of the term, looked up instead of hashed.
    pub fn owns(&self, id: TermId) -> bool {
        let word = self.bits.get(id.index() / 64);
        word.is_some_and(|w| w >> (id.index() % 64) & 1 == 1)
    }
}

/// The result of partitioning: one dataset per shard plus the ownership
/// assignment needed to route queries and filter scatter-gather results.
#[derive(Debug)]
pub struct PartitionedDataset {
    /// One self-contained dataset per shard (own dictionary, own triples).
    pub shards: Vec<Dataset>,
    /// The term → shard assignment used.
    pub ownership: Ownership,
    /// Distinct triples in the source dataset (shard triple counts sum to
    /// more than this because of halo and schema replication).
    pub global_triples: usize,
}

/// Deterministically partitions `dataset` into `shards` shard datasets (at
/// least one), each with the halo of radius [`HALO`]. The dataset must
/// already contain whatever inferred triples the store should serve —
/// inference runs once globally *before* partitioning, never per shard
/// (per-shard RDFS closure would be incomplete at the boundary).
pub fn partition_dataset(dataset: &Dataset, shards: usize) -> PartitionedDataset {
    let ownership = Ownership::new(shards);
    let n = dataset.dictionary.len();

    // Decode every term once, in id order; everything below works over
    // dense ids.
    let terms: Vec<Term> = dataset.dictionary.iter().map(|(_, term)| term).collect();
    let owners: Vec<usize> = terms.iter().map(|t| ownership.owner(t)).collect();
    let is_schema: Vec<bool> = terms
        .iter()
        .map(|t| t.as_iri().is_some_and(crate::is_schema_predicate))
        .collect();
    let type_id = dataset.rdf_type_id();

    // The linkage graph: subject ↔ object of every non-type, non-schema
    // triple. Type and schema edges are excluded — classes are hubs that
    // would collapse the halo into "everything".
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    for t in dataset.triples.iter() {
        let (s, o) = (t.s.index(), t.o.index());
        if Some(t.p) != type_id && !is_schema[t.p.index()] && s != o {
            adjacency[s].push(o as u32);
            adjacency[o].push(s as u32);
        }
    }

    // Per shard: owned seeds → multi-source BFS to `HALO` hops → halo set.
    let mut shards: Vec<Dataset> = (0..ownership.shards).map(|_| Dataset::new()).collect();
    let mut in_halo = vec![false; n];
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    for (shard_id, shard) in shards.iter_mut().enumerate() {
        in_halo.iter_mut().for_each(|b| *b = false);
        queue.clear();
        for id in 0..n {
            if owners[id] == shard_id {
                in_halo[id] = true;
                queue.push_back((id as u32, 0));
            }
        }
        while let Some((id, depth)) = queue.pop_front() {
            if depth == HALO {
                continue;
            }
            for &next in &adjacency[id as usize] {
                if !in_halo[next as usize] {
                    in_halo[next as usize] = true;
                    queue.push_back((next, depth + 1));
                }
            }
        }
        for t in dataset.triples.iter() {
            let keep = if is_schema[t.p.index()] {
                true
            } else if Some(t.p) == type_id {
                in_halo[t.s.index()]
            } else {
                in_halo[t.s.index()] || in_halo[t.o.index()]
            };
            if keep {
                shard.insert(
                    &terms[t.s.index()],
                    &terms[t.p.index()],
                    &terms[t.o.index()],
                );
            }
        }
    }

    PartitionedDataset {
        shards,
        ownership,
        global_triples: dataset.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::vocab;

    fn chain_dataset() -> Dataset {
        // a chain a0 → a1 → … → a9 plus types and a schema triple.
        let mut ds = Dataset::new();
        ds.insert_iris("http://ex/C", vocab::RDFS_SUBCLASSOF, "http://ex/D");
        for i in 0..10 {
            ds.insert_iris(&format!("http://ex/a{i}"), vocab::RDF_TYPE, "http://ex/C");
            if i > 0 {
                ds.insert_iris(
                    &format!("http://ex/a{}", i - 1),
                    "http://ex/next",
                    &format!("http://ex/a{i}"),
                );
            }
        }
        ds
    }

    #[test]
    fn single_shard_partition_is_the_whole_dataset() {
        let ds = chain_dataset();
        let parts = partition_dataset(&ds, 1);
        assert_eq!(parts.shards.len(), 1);
        assert_eq!(parts.shards[0].len(), ds.len());
        assert_eq!(parts.global_triples, ds.len());
    }

    #[test]
    fn every_triple_lands_on_its_subject_owner_shard() {
        let ds = chain_dataset();
        let parts = partition_dataset(&ds, 4);
        assert_eq!(parts.shards.len(), 4);
        for t in ds.triples.iter() {
            let (s, p, o) = ds.decode(t);
            let owner = parts.ownership.owner(&s);
            let shard = &parts.shards[owner];
            let (sid, pid, oid) = (
                shard.dictionary.id_of(&s),
                shard.dictionary.id_of(&p),
                shard.dictionary.id_of(&o),
            );
            let present = match (sid, pid, oid) {
                (Some(s), Some(p), Some(o)) => {
                    shard.triples.contains(&turbohom_rdf::Triple::new(s, p, o))
                }
                _ => false,
            };
            assert!(
                present,
                "triple {s} {p} {o} missing from owner shard {owner}"
            );
        }
    }

    #[test]
    fn schema_triples_are_replicated_everywhere() {
        let ds = chain_dataset();
        let parts = partition_dataset(&ds, 3);
        for shard in &parts.shards {
            let c = shard.dictionary.id_of(&Term::iri("http://ex/C")).unwrap();
            let sub = shard
                .dictionary
                .id_of(&Term::iri(vocab::RDFS_SUBCLASSOF))
                .unwrap();
            let d = shard.dictionary.id_of(&Term::iri("http://ex/D")).unwrap();
            assert!(shard
                .triples
                .contains(&turbohom_rdf::Triple::new(c, sub, d)));
        }
    }

    #[test]
    fn halo_replicates_neighbours_of_owned_terms() {
        let ds = chain_dataset();
        let parts = partition_dataset(&ds, 4);
        // Every shard that owns a chain vertex a_i must also hold the edge
        // a_i → a_{i+1} *and* the next edge out (its endpoint is 1 hop away,
        // the following one 2 hops — both within the halo).
        for i in 0..8usize {
            let a = Term::iri(format!("http://ex/a{i}"));
            let owner = parts.ownership.owner(&a);
            let shard = &parts.shards[owner];
            for j in [i, i + 1] {
                let s = Term::iri(format!("http://ex/a{j}"));
                let o = Term::iri(format!("http://ex/a{}", j + 1));
                let p = Term::iri("http://ex/next");
                let present = match (
                    shard.dictionary.id_of(&s),
                    shard.dictionary.id_of(&p),
                    shard.dictionary.id_of(&o),
                ) {
                    (Some(s), Some(p), Some(o)) => {
                        shard.triples.contains(&turbohom_rdf::Triple::new(s, p, o))
                    }
                    _ => false,
                };
                assert!(
                    present,
                    "edge a{j}→a{} missing from shard owning a{i}",
                    j + 1
                );
            }
        }
    }

    #[test]
    fn owns_is_the_ownership_of_every_term_of_every_lubm_shard() {
        use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
        let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
        for shards in [2, 4, 8] {
            let parts = partition_dataset(&dataset, shards);
            for (shard, data) in parts.shards.iter().enumerate() {
                let owned = OwnedTerms::build(data, &parts.ownership, shard);
                for (id, term) in data.dictionary.iter() {
                    let owner = parts.ownership.owner(&term);
                    assert_eq!(owned.owns(id), owner == shard, "k={shards} {term}");
                }
                // An id past the dictionary is owned by nobody.
                let past = data.dictionary.len() as u32;
                assert!((past..past + 130).all(|id| !owned.owns(TermId(id))));
            }
        }
    }

    #[test]
    fn ownership_is_deterministic_across_builds() {
        let ds = chain_dataset();
        let a = partition_dataset(&ds, 8);
        let b = partition_dataset(&ds, 8);
        assert_eq!(a.ownership, b.ownership);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.len(), y.len());
        }
    }
}
