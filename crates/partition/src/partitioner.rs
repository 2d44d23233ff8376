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
//! `halo` of the terms `S` owns, where the linkage graph connects the
//! subject and object of every non-type, non-schema triple. Replicating the
//! halo is the boundary-adjacency rule that lets a connected query of
//! radius ≤ `halo` around its anchor execute entirely inside the anchor
//! owner's shard — scatter-gather never needs a distributed join.

use crate::term_hash;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use turbohom_rdf::{Dataset, Term, TermRef};

/// Default halo radius: every term within two linkage hops of an owned term
/// is replicated. Radius 2 covers star and short-path queries (all LUBM
/// benchmark shapes) while keeping replication bounded.
pub const DEFAULT_HALO: usize = 2;

/// Number of hash buckets the greedy partitioner distributes over shards.
pub const GREEDY_BUCKETS: usize = 256;

/// How terms are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// `owner = hash(term) % k` — stateless, nothing to persist.
    Hash,
    /// METIS-lite greedy balancing: terms fall into [`GREEDY_BUCKETS`] hash
    /// buckets, and buckets are assigned to shards in descending
    /// entity-count order, each to the currently least-loaded shard. The
    /// bucket table depends on the dataset and is persisted in the
    /// [`Manifest`](crate::Manifest).
    Greedy,
}

impl PartitionerKind {
    /// The lowercase name used by CLI flags, manifests and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Hash => "hash",
            PartitionerKind::Greedy => "greedy",
        }
    }
}

impl fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unknown partitioner name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePartitionerError(pub String);

impl fmt::Display for ParsePartitionerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown partitioner `{}` (expected hash | greedy)",
            self.0
        )
    }
}

impl std::error::Error for ParsePartitionerError {}

impl FromStr for PartitionerKind {
    type Err = ParsePartitionerError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hash" => Ok(PartitionerKind::Hash),
            "greedy" => Ok(PartitionerKind::Greedy),
            _ => Err(ParsePartitionerError(s.to_string())),
        }
    }
}

/// The term → shard assignment. Cheap to clone and to rebuild from a
/// manifest (the hash variant is stateless; the greedy variant is the
/// persisted bucket table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ownership {
    shards: usize,
    kind: PartitionerKind,
    /// `GREEDY_BUCKETS` entries mapping bucket → shard; empty for `Hash`.
    buckets: Vec<u16>,
}

impl Ownership {
    /// Stateless hash ownership over `shards` shards.
    pub fn hash(shards: usize) -> Ownership {
        Ownership {
            shards: shards.max(1),
            kind: PartitionerKind::Hash,
            buckets: Vec::new(),
        }
    }

    /// Greedy ownership from a persisted bucket table.
    ///
    /// Returns `None` if the table does not have [`GREEDY_BUCKETS`] entries
    /// or maps a bucket outside `0..shards`.
    pub fn greedy(shards: usize, buckets: Vec<u16>) -> Option<Ownership> {
        let shards = shards.max(1);
        if buckets.len() != GREEDY_BUCKETS || buckets.iter().any(|&b| (b as usize) >= shards) {
            return None;
        }
        Some(Ownership {
            shards,
            kind: PartitionerKind::Greedy,
            buckets,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Which partitioner produced this assignment.
    pub fn kind(&self) -> PartitionerKind {
        self.kind
    }

    /// The greedy bucket table (empty for the hash partitioner). This is
    /// what the manifest persists.
    pub fn bucket_table(&self) -> &[u16] {
        &self.buckets
    }

    /// The shard owning a term with ownership hash `h`.
    pub fn owner_of_hash(&self, h: u64) -> usize {
        match self.kind {
            PartitionerKind::Hash => (h % self.shards as u64) as usize,
            PartitionerKind::Greedy => self.buckets[(h % GREEDY_BUCKETS as u64) as usize] as usize,
        }
    }

    /// The shard owning `term` (a `&Term` or a borrowed `TermRef`), rendering
    /// into `scratch` (no allocation on the warm path).
    pub fn owner<'a>(&self, term: impl Into<TermRef<'a>>, scratch: &mut String) -> usize {
        self.owner_of_hash(crate::term_hash_into(term, scratch))
    }
}

/// Configuration for [`partition_dataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Number of partitions (clamped to at least 1).
    pub shards: usize,
    /// Term → shard assignment strategy.
    pub partitioner: PartitionerKind,
    /// Boundary replication radius (linkage hops).
    pub halo: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            shards: 4,
            partitioner: PartitionerKind::Hash,
            halo: DEFAULT_HALO,
        }
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
    /// The halo radius the shards were built with.
    pub halo: usize,
    /// Distinct triples in the source dataset (shard triple counts sum to
    /// more than this because of halo and schema replication).
    pub global_triples: usize,
}

/// Deterministically partitions `dataset` into `config.shards` shard
/// datasets. The dataset must already contain whatever inferred triples the
/// store should serve — inference runs once globally *before* partitioning,
/// never per shard (per-shard RDFS closure would be incomplete at the
/// boundary).
pub fn partition_dataset(dataset: &Dataset, config: &PartitionConfig) -> PartitionedDataset {
    let k = config.shards.max(1);
    let n = dataset.dictionary.len();

    // Decode every term once; everything below works over dense ids.
    let mut terms: Vec<Option<Term>> = vec![None; n];
    for (id, term) in dataset.dictionary.iter() {
        terms[id.index()] = Some(term);
    }
    let terms: Vec<Term> = terms
        .into_iter()
        .map(|t| t.expect("dictionary ids are dense"))
        .collect();
    let hashes: Vec<u64> = terms.iter().map(term_hash).collect();
    let is_schema: Vec<bool> = terms
        .iter()
        .map(|t| t.as_iri().is_some_and(crate::is_schema_predicate))
        .collect();
    let type_id = dataset.rdf_type_id();

    // The linkage graph: subject ↔ object of every non-type, non-schema
    // triple. Type and schema edges are excluded — classes are hubs that
    // would collapse the halo into "everything".
    let mut adjacency: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut in_data = vec![false; n];
    for t in dataset.triples.iter() {
        let (s, o) = (t.s.index(), t.o.index());
        in_data[s] = true;
        in_data[o] = true;
        if Some(t.p) != type_id && !is_schema[t.p.index()] && s != o {
            adjacency[s].push(o as u32);
            adjacency[o].push(s as u32);
        }
    }

    let ownership = match config.partitioner {
        PartitionerKind::Hash => Ownership::hash(k),
        PartitionerKind::Greedy => greedy_ownership(k, &hashes, &in_data),
    };

    // Per shard: owned seeds → multi-source BFS to `halo` hops → halo set.
    let mut shards: Vec<Dataset> = (0..k).map(|_| Dataset::new()).collect();
    let mut in_halo = vec![false; n];
    let mut queue: VecDeque<(u32, usize)> = VecDeque::new();
    for (shard_id, shard) in shards.iter_mut().enumerate() {
        in_halo.iter_mut().for_each(|b| *b = false);
        queue.clear();
        for id in 0..n {
            if in_data[id] && ownership.owner_of_hash(hashes[id]) == shard_id {
                in_halo[id] = true;
                queue.push_back((id as u32, 0));
            }
        }
        while let Some((id, depth)) = queue.pop_front() {
            if depth == config.halo {
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
        halo: config.halo,
        global_triples: dataset.len(),
    }
}

/// Builds the greedy bucket table: buckets sorted by descending entity
/// count, each assigned to the currently least-loaded shard (ties broken by
/// the lower id on both sides, so the table is fully deterministic).
fn greedy_ownership(k: usize, hashes: &[u64], in_data: &[bool]) -> Ownership {
    let mut bucket_count = [0u64; GREEDY_BUCKETS];
    for (id, &h) in hashes.iter().enumerate() {
        if in_data[id] {
            bucket_count[(h % GREEDY_BUCKETS as u64) as usize] += 1;
        }
    }
    let mut order: Vec<usize> = (0..GREEDY_BUCKETS).collect();
    order.sort_by_key(|&b| (std::cmp::Reverse(bucket_count[b]), b));
    let mut load = vec![0u64; k];
    let mut table = vec![0u16; GREEDY_BUCKETS];
    for b in order {
        let target = (0..k).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        table[b] = target as u16;
        load[target] += bucket_count[b];
    }
    Ownership::greedy(k, table).expect("greedy table is well-formed by construction")
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
    fn partitioner_kind_parses_case_insensitively() {
        assert_eq!("hash".parse::<PartitionerKind>(), Ok(PartitionerKind::Hash));
        assert_eq!(
            "GREEDY".parse::<PartitionerKind>(),
            Ok(PartitionerKind::Greedy)
        );
        assert!("metis".parse::<PartitionerKind>().is_err());
        assert_eq!(PartitionerKind::Hash.to_string(), "hash");
    }

    #[test]
    fn single_shard_partition_is_the_whole_dataset() {
        let ds = chain_dataset();
        for kind in [PartitionerKind::Hash, PartitionerKind::Greedy] {
            let parts = partition_dataset(
                &ds,
                &PartitionConfig {
                    shards: 1,
                    partitioner: kind,
                    halo: 2,
                },
            );
            assert_eq!(parts.shards.len(), 1);
            assert_eq!(parts.shards[0].len(), ds.len(), "{kind}");
            assert_eq!(parts.global_triples, ds.len());
        }
    }

    #[test]
    fn every_triple_lands_on_its_subject_owner_shard() {
        let ds = chain_dataset();
        let parts = partition_dataset(
            &ds,
            &PartitionConfig {
                shards: 4,
                partitioner: PartitionerKind::Hash,
                halo: 2,
            },
        );
        assert_eq!(parts.shards.len(), 4);
        let mut scratch = String::new();
        for t in ds.triples.iter() {
            let (s, p, o) = ds.decode(t);
            let owner = parts.ownership.owner(&s, &mut scratch);
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
        let parts = partition_dataset(
            &ds,
            &PartitionConfig {
                shards: 3,
                partitioner: PartitionerKind::Greedy,
                halo: 1,
            },
        );
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
        let parts = partition_dataset(
            &ds,
            &PartitionConfig {
                shards: 4,
                partitioner: PartitionerKind::Hash,
                halo: 2,
            },
        );
        // Every shard that owns a chain vertex a_i must also hold the edge
        // a_i → a_{i+1} *and* the next edge out (its endpoint is 1 hop away,
        // the following one 2 hops — both within the halo).
        let mut scratch = String::new();
        for i in 0..8usize {
            let a = Term::iri(format!("http://ex/a{i}"));
            let owner = parts.ownership.owner(&a, &mut scratch);
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
    fn greedy_tables_balance_and_round_trip() {
        let ds = chain_dataset();
        let parts = partition_dataset(
            &ds,
            &PartitionConfig {
                shards: 4,
                partitioner: PartitionerKind::Greedy,
                halo: 2,
            },
        );
        let table = parts.ownership.bucket_table().to_vec();
        assert_eq!(table.len(), GREEDY_BUCKETS);
        // The table reconstructs an identical ownership.
        let rebuilt = Ownership::greedy(4, table).unwrap();
        assert_eq!(rebuilt, parts.ownership);
        // Malformed tables are rejected.
        assert!(Ownership::greedy(4, vec![0u16; 7]).is_none());
        assert!(Ownership::greedy(2, vec![5u16; GREEDY_BUCKETS]).is_none());
    }

    #[test]
    fn ownership_is_deterministic_across_builds() {
        let ds = chain_dataset();
        let config = PartitionConfig {
            shards: 8,
            partitioner: PartitionerKind::Hash,
            halo: 2,
        };
        let a = partition_dataset(&ds, &config);
        let b = partition_dataset(&ds, &config);
        assert_eq!(a.ownership, b.ownership);
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.len(), y.len());
        }
    }
}
