//! The six sorted triple permutations (RDF-3X's storage layout).
//!
//! RDF-3X materializes the triple table in all six attribute orders so that
//! any triple pattern with any subset of bound positions can be answered by
//! a binary-searched range scan whose output is already sorted — the
//! property its merge joins rely on. [`PermutationIndexes`] reproduces that
//! layout in memory. It is never stored: six sorts of the triples rebuild it
//! (about 1 s per million triples), so a store builds it for the first
//! plan that names a join baseline and a snapshot carries no copy.

use turbohom_rdf::{TermId, Triple};
use turbohom_storage::{FlatVec, MemoryUse};

/// Which position of a triple a component refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pos {
    S,
    P,
    O,
}

/// The six orderings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// subject, predicate, object
    Spo,
    /// subject, object, predicate
    Sop,
    /// predicate, subject, object
    Pso,
    /// predicate, object, subject
    Pos,
    /// object, subject, predicate
    Osp,
    /// object, predicate, subject
    Ops,
}

impl Ordering {
    fn key(self) -> [Pos; 3] {
        match self {
            Ordering::Spo => [Pos::S, Pos::P, Pos::O],
            Ordering::Sop => [Pos::S, Pos::O, Pos::P],
            Ordering::Pso => [Pos::P, Pos::S, Pos::O],
            Ordering::Pos => [Pos::P, Pos::O, Pos::S],
            Ordering::Osp => [Pos::O, Pos::S, Pos::P],
            Ordering::Ops => [Pos::O, Pos::P, Pos::S],
        }
    }

    fn all() -> [Ordering; 6] {
        [
            Ordering::Spo,
            Ordering::Sop,
            Ordering::Pso,
            Ordering::Pos,
            Ordering::Osp,
            Ordering::Ops,
        ]
    }
}

fn component(t: &Triple, p: Pos) -> TermId {
    match p {
        Pos::S => t.s,
        Pos::P => t.p,
        Pos::O => t.o,
    }
}

fn sort_key(t: &Triple, ordering: Ordering) -> (TermId, TermId, TermId) {
    let k = ordering.key();
    (component(t, k[0]), component(t, k[1]), component(t, k[2]))
}

/// A triple pattern over term ids; `None` marks a variable position.
pub type IdPattern = (Option<TermId>, Option<TermId>, Option<TermId>);

/// All six sorted copies of the triple table.
#[derive(Debug, Clone)]
pub struct PermutationIndexes {
    orders: [(Ordering, FlatVec<Triple>); 6],
    len: usize,
}

impl PermutationIndexes {
    /// Builds the six orderings of `triples`, which must be distinct: the
    /// triples are collected once, and each ordering sorts its own copy.
    pub fn build(triples: impl IntoIterator<Item = Triple>) -> Self {
        let mut triples: Vec<Triple> = triples.into_iter().collect();
        let len = triples.len();
        let orders = Ordering::all().map(|o| {
            // The last ordering sorts the collected triples themselves.
            let mut v = match o {
                Ordering::Ops => std::mem::take(&mut triples),
                _ => triples.clone(),
            };
            v.sort_unstable_by_key(|t| sort_key(t, o));
            (o, v.into())
        });
        PermutationIndexes { orders, len }
    }

    /// Bytes of each of the six tables, under its ordering's name.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 6] {
        const NAMES: [&str; 6] = ["spo", "sop", "pso", "pos", "osp", "ops"];
        std::array::from_fn(|i| (NAMES[i], (&self.orders[i].1).into()))
    }

    /// Total number of triples indexed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chooses the ordering whose key prefix covers the bound positions of
    /// `pattern` so a contiguous range scan answers it.
    fn choose_ordering(pattern: IdPattern) -> Ordering {
        let (s, p, o) = (
            pattern.0.is_some(),
            pattern.1.is_some(),
            pattern.2.is_some(),
        );
        match (s, p, o) {
            (true, true, true) | (true, true, false) => Ordering::Spo,
            (true, false, true) => Ordering::Sop,
            (true, false, false) => Ordering::Spo,
            (false, true, true) => Ordering::Pos,
            (false, true, false) => Ordering::Pso,
            (false, false, true) => Ordering::Osp,
            (false, false, false) => Ordering::Spo,
        }
    }

    fn table(&self, ordering: Ordering) -> &[Triple] {
        &self
            .orders
            .iter()
            .find(|(o, _)| *o == ordering)
            .expect("all orderings are materialized")
            .1
    }

    /// Scans all triples matching `pattern`. The result is a contiguous
    /// slice of the best-fitting ordering (so it is globally sorted by that
    /// ordering's key) with any non-prefix bound positions post-filtered.
    pub fn scan(&self, pattern: IdPattern) -> Vec<Triple> {
        let ordering = Self::choose_ordering(pattern);
        let table = self.table(ordering);
        let key = ordering.key();
        let bound_at = |pos: Pos| match pos {
            Pos::S => pattern.0,
            Pos::P => pattern.1,
            Pos::O => pattern.2,
        };
        // Determine how long the bound prefix of the ordering key is.
        let mut prefix: Vec<(Pos, TermId)> = Vec::new();
        for pos in key {
            match bound_at(pos) {
                Some(id) => prefix.push((pos, id)),
                None => break,
            }
        }
        let range = if prefix.is_empty() {
            0..table.len()
        } else {
            let lower =
                table.partition_point(|t| prefix_cmp(t, &prefix) == std::cmp::Ordering::Less);
            let upper =
                table.partition_point(|t| prefix_cmp(t, &prefix) != std::cmp::Ordering::Greater);
            lower..upper
        };
        table[range]
            .iter()
            .filter(|t| {
                pattern.0.is_none_or(|s| t.s == s)
                    && pattern.1.is_none_or(|p| t.p == p)
                    && pattern.2.is_none_or(|o| t.o == o)
            })
            .copied()
            .collect()
    }

    /// Estimates the number of triples matching `pattern` (exact for bound
    /// prefixes of the chosen ordering — a stand-in for RDF-3X's statistics).
    pub fn estimate(&self, pattern: IdPattern) -> usize {
        let ordering = Self::choose_ordering(pattern);
        let table = self.table(ordering);
        let key = ordering.key();
        let bound_at = |pos: Pos| match pos {
            Pos::S => pattern.0,
            Pos::P => pattern.1,
            Pos::O => pattern.2,
        };
        let mut prefix: Vec<(Pos, TermId)> = Vec::new();
        for pos in key {
            match bound_at(pos) {
                Some(id) => prefix.push((pos, id)),
                None => break,
            }
        }
        if prefix.is_empty() {
            return table.len();
        }
        let lower = table.partition_point(|t| prefix_cmp(t, &prefix) == std::cmp::Ordering::Less);
        let upper =
            table.partition_point(|t| prefix_cmp(t, &prefix) != std::cmp::Ordering::Greater);
        upper - lower
    }
}

/// Compares a triple's key prefix against the bound prefix values.
fn prefix_cmp(t: &Triple, prefix: &[(Pos, TermId)]) -> std::cmp::Ordering {
    for (pos, id) in prefix {
        let c = component(t, *pos).cmp(id);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::{Dataset, Term};

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..4 {
            for j in 0..3 {
                ds.insert(
                    &Term::iri(format!("http://s{i}")),
                    &Term::iri(format!("http://p{j}")),
                    &Term::iri(format!("http://o{}", (i + j) % 5)),
                );
            }
        }
        ds.dedup();
        ds
    }

    fn id(ds: &Dataset, iri: &str) -> TermId {
        ds.dictionary.id_of_iri(iri).unwrap()
    }

    #[test]
    fn full_scan_returns_everything() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        assert_eq!(idx.len(), 12);
        assert_eq!(idx.scan((None, None, None)).len(), 12);
        assert_eq!(idx.estimate((None, None, None)), 12);
    }

    #[test]
    fn bound_subject_scan() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let s1 = id(&ds, "http://s1");
        let result = idx.scan((Some(s1), None, None));
        assert_eq!(result.len(), 3);
        assert!(result.iter().all(|t| t.s == s1));
        assert_eq!(idx.estimate((Some(s1), None, None)), 3);
    }

    #[test]
    fn bound_predicate_and_object_scan() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let p0 = id(&ds, "http://p0");
        let o2 = id(&ds, "http://o2");
        let result = idx.scan((None, Some(p0), Some(o2)));
        assert!(result.iter().all(|t| t.p == p0 && t.o == o2));
        // p0 pairs subjects s0..s3 with objects o0..o3; only s2 yields o2.
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn fully_bound_lookup() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let s0 = id(&ds, "http://s0");
        let p0 = id(&ds, "http://p0");
        let o0 = id(&ds, "http://o0");
        assert_eq!(idx.scan((Some(s0), Some(p0), Some(o0))).len(), 1);
        let o4 = id(&ds, "http://o4");
        assert_eq!(idx.scan((Some(s0), Some(p0), Some(o4))).len(), 0);
    }

    #[test]
    fn subject_object_pattern_uses_sop_and_filters_nothing() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let s2 = id(&ds, "http://s2");
        let o2 = id(&ds, "http://o2");
        let result = idx.scan((Some(s2), None, Some(o2)));
        assert!(result.iter().all(|t| t.s == s2 && t.o == o2));
        assert_eq!(result.len(), 1); // p0 with (2+0)%5 = 2
    }

    #[test]
    fn non_prefix_bound_position_is_post_filtered() {
        // Pattern (S bound, P bound, O bound) with the SPO ordering is fully
        // prefix-covered; craft a case where it is not: bound S and O but
        // choose the ordering by hand through the public API and verify
        // correctness regardless of ordering choice.
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let s3 = id(&ds, "http://s3");
        for t in idx.scan((Some(s3), None, None)) {
            // All scans agree with a brute-force filter over the dataset.
            assert!(ds.triples.contains(&t));
        }
    }

    #[test]
    fn scans_agree_with_bruteforce_on_all_patterns() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let subjects: Vec<Option<TermId>> = vec![None, Some(id(&ds, "http://s0"))];
        let predicates: Vec<Option<TermId>> = vec![None, Some(id(&ds, "http://p1"))];
        let objects: Vec<Option<TermId>> = vec![None, Some(id(&ds, "http://o1"))];
        for &s in &subjects {
            for &p in &predicates {
                for &o in &objects {
                    let scanned = idx.scan((s, p, o));
                    let brute: Vec<Triple> = ds
                        .triples
                        .iter()
                        .filter(|t| {
                            s.is_none_or(|x| t.s == x)
                                && p.is_none_or(|x| t.p == x)
                                && o.is_none_or(|x| t.o == x)
                        })
                        .copied()
                        .collect();
                    assert_eq!(scanned.len(), brute.len(), "pattern {s:?} {p:?} {o:?}");
                    assert!(idx.estimate((s, p, o)) >= scanned.len());
                }
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let idx = PermutationIndexes::build([]);
        assert!(idx.is_empty());
        assert!(idx.scan((None, None, None)).is_empty());
    }
}
