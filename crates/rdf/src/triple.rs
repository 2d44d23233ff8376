//! Encoded triples and the in-memory triple store.
//!
//! A [`TripleStore`] holds dictionary-encoded triples with duplicate
//! elimination. Together with its [`Dictionary`] it forms a [`Dataset`],
//! which is the unit every downstream component consumes: the graph builder,
//! the transformations, the baseline engines and the dataset generators all
//! exchange `Dataset`s.

use crate::dictionary::{slots_for, Dictionary, TermId};
use crate::term::Term;
use crate::vocab;
use std::hash::{BuildHasher, RandomState};
use turbohom_storage::{MemoryUse, Pod};

/// A dictionary-encoded RDF triple `(subject, predicate, object)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Predicate id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

// Safety: repr(C) of three repr(transparent) u32 ids — no padding, no niches.
unsafe impl Pod for Triple {}

impl Triple {
    /// Creates a new triple.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }
}

/// An append-only, deduplicated collection of encoded triples.
///
/// The dedup set exists only while the store is being populated:
/// [`freeze`](Self::freeze) drops it, and the first insert afterwards
/// rebuilds it from the triples. A snapshot stores no triple table: the
/// type-aware graph holds every triple.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    triples: Vec<Triple>,
    /// The dedup set: open addressing with linear probing over slots of
    /// `index + 1` into `triples`, 0 being the empty slot (see
    /// [`slots_for`]). Either empty or indexing every triple.
    seen: Vec<u32>,
    /// Keys the dedup set. Per process and random, so triples from outside
    /// cannot be chosen to collide.
    hasher: RandomState,
}

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probes `self.seen` for `triple`: its index in `triples`, or else the
    /// empty slot that ends its probe sequence.
    fn probe(&self, triple: &Triple) -> Result<usize, usize> {
        let mask = self.seen.len() - 1;
        let mut slot = self.hasher.hash_one(triple) as usize & mask;
        loop {
            let Some(index) = self.seen[slot].checked_sub(1) else {
                return Err(slot);
            };
            if self.triples[index as usize] == *triple {
                return Ok(index as usize);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if the store would hold `u32::MAX` triples.
    pub fn insert(&mut self, triple: Triple) -> bool {
        let len = self.triples.len();
        let entry =
            u32::try_from(len + 1).expect("a triple store holds fewer than u32::MAX triples");
        let slots = slots_for(len + 1);
        if self.seen.len() < slots {
            // Frozen or about to fill past one half: index
            // every triple again, the old table dropped first.
            self.seen = Vec::new();
            self.seen = vec![0; slots];
            for index in 0..len {
                if let Err(slot) = self.probe(&self.triples[index]) {
                    self.seen[slot] = index as u32 + 1;
                }
            }
        }
        match self.probe(&triple) {
            Ok(_) => false,
            Err(slot) => {
                self.seen[slot] = entry;
                self.triples.push(triple);
                true
            }
        }
    }

    /// Ends loading: drops the dedup set and the triple array's spare
    /// capacity.
    pub fn freeze(&mut self) {
        self.seen = Vec::new();
        self.triples.shrink_to_fit();
    }

    /// Bytes of the triple array and of the dedup set.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 2] {
        let dedup = MemoryUse {
            heap: std::mem::size_of_val(&self.seen[..]) as u64,
            mapped: 0,
        };
        let triples = MemoryUse {
            heap: std::mem::size_of_val(&self.triples[..]) as u64,
            mapped: 0,
        };
        [("triples", triples), ("dedup_set", dedup)]
    }

    /// Returns `true` if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        if self.seen.is_empty() {
            // Frozen store before any insert: no dedup set.
            self.triples.iter().any(|t| t == triple)
        } else {
            self.probe(triple).is_ok()
        }
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Returns `true` if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Iterates over the triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// Returns the triples as a slice (insertion order).
    pub fn as_slice(&self) -> &[Triple] {
        &self.triples
    }
}

impl<'a> IntoIterator for &'a TripleStore {
    type Item = &'a Triple;
    type IntoIter = std::slice::Iter<'a, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.iter()
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut store = TripleStore::new();
        for t in iter {
            store.insert(t);
        }
        store
    }
}

/// A dictionary plus the triples encoded against it.
///
/// This is the decoded↔encoded boundary of the system: generators and parsers
/// produce `Dataset`s, everything downstream consumes them.
#[derive(Debug, Default, Clone)]
pub struct Dataset {
    /// The term dictionary.
    pub dictionary: Dictionary,
    /// The encoded triples.
    pub triples: TripleStore,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a decoded `(s, p, o)` triple, encoding the terms as needed.
    /// Returns `true` if the triple was new.
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let s = self.dictionary.encode(s);
        let p = self.dictionary.encode(p);
        let o = self.dictionary.encode(o);
        self.triples.insert(Triple::new(s, p, o))
    }

    /// Convenience for tests and generators: inserts a triple of IRIs.
    pub fn insert_iris(&mut self, s: &str, p: &str, o: &str) -> bool {
        let [s, p, o] = [s, p, o].map(|iri| self.dictionary.encode_iri(iri));
        self.triples.insert(Triple::new(s, p, o))
    }

    /// Ends loading: the triple store drops its dedup set, the dictionary
    /// renumbers its terms in key order ([`Dictionary::freeze`]), and the
    /// triples are renamed to the new ids in one pass, their order kept.
    pub fn freeze(&mut self) {
        self.triples.freeze();
        let new = self.dictionary.freeze();
        for t in &mut self.triples.triples {
            *t = Triple::new(new[t.s.index()], new[t.p.index()], new[t.o.index()]);
        }
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Returns `true` if the dataset holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Returns the id of `rdf:type` if it appears in the data.
    pub fn rdf_type_id(&self) -> Option<TermId> {
        self.dictionary.id_of_iri(vocab::RDF_TYPE)
    }

    /// Returns the id of `rdfs:subClassOf` if it appears in the data.
    pub fn subclassof_id(&self) -> Option<TermId> {
        self.dictionary.id_of_iri(vocab::RDFS_SUBCLASSOF)
    }

    /// Counts the triples whose predicate is `pred`.
    pub fn count_predicate(&self, pred: TermId) -> usize {
        self.triples.iter().filter(|t| t.p == pred).count()
    }

    /// Decodes a triple back into terms. Panics if the ids are foreign to
    /// this dataset's dictionary (which would be a logic error).
    pub fn decode(&self, triple: &Triple) -> (Term, Term, Term) {
        (
            self.dictionary
                .term(triple.s)
                .expect("subject id not in dictionary"),
            self.dictionary
                .term(triple.p)
                .expect("predicate id not in dictionary"),
            self.dictionary
                .term(triple.o)
                .expect("object id not in dictionary"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> TermId {
        TermId(n)
    }

    #[test]
    fn store_deduplicates() {
        let mut s = TripleStore::new();
        assert!(s.insert(Triple::new(id(0), id(1), id(2))));
        assert!(!s.insert(Triple::new(id(0), id(1), id(2))));
        assert!(s.insert(Triple::new(id(0), id(1), id(3))));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn the_dedup_set_grows_through_many_doublings_and_after_a_freeze() {
        // 16 slots hold 8 triples: 3,000 triples cross nine doublings, and
        // the inserts after the freeze index 3,000 triples and cross a tenth.
        let triple = |i: u32| Triple::new(id(i % 7), id(i % 3), id(i));
        let mut s = TripleStore::new();
        for i in 0..3_000 {
            assert!(s.insert(triple(i)));
            assert!(!s.insert(triple(i / 2)));
        }
        // The ledger line is the table: 8,192 slots of 4 bytes.
        assert_eq!(s.memory()[1].1.heap, 8_192 * 4);
        s.freeze();
        assert_eq!(s.memory()[1].1.heap, 0);
        assert!(s.contains(&triple(2_999)));
        assert!(!s.contains(&triple(3_000)));
        for i in 0..5_000 {
            assert_eq!(s.insert(triple(i)), i >= 3_000);
        }
        assert_eq!(s.len(), 5_000);
        for i in 0..5_000 {
            assert!(s.contains(&triple(i)));
        }
        assert!(!s.contains(&triple(5_000)));
        let order: Vec<Triple> = s.iter().copied().collect();
        assert_eq!(order, (0..5_000).map(triple).collect::<Vec<_>>());
    }

    #[test]
    fn store_preserves_insertion_order() {
        let mut s = TripleStore::new();
        s.insert(Triple::new(id(2), id(0), id(1)));
        s.insert(Triple::new(id(0), id(0), id(1)));
        s.insert(Triple::new(id(1), id(0), id(1)));
        let subjects: Vec<u32> = s.iter().map(|t| t.s.0).collect();
        assert_eq!(subjects, vec![2, 0, 1]);
    }

    #[test]
    fn store_from_iterator() {
        let s: TripleStore = (0..5)
            .map(|i| Triple::new(id(i), id(100), id(i + 1)))
            .collect();
        assert_eq!(s.len(), 5);
        assert!(s.contains(&Triple::new(id(3), id(100), id(4))));
    }

    #[test]
    fn dataset_insert_encodes_terms_consistently() {
        let mut d = Dataset::new();
        assert!(d.insert_iris("http://a", "http://p", "http://b"));
        assert!(d.insert_iris("http://b", "http://p", "http://a"));
        assert!(!d.insert_iris("http://a", "http://p", "http://b"));
        assert_eq!(d.len(), 2);
        // a, p, b → three distinct terms only.
        assert_eq!(d.dictionary.len(), 3);
    }

    #[test]
    fn dataset_decode_round_trips() {
        let mut d = Dataset::new();
        d.insert(
            &Term::iri("http://s"),
            &Term::iri("http://p"),
            &Term::literal("o"),
        );
        let t = *d.triples.iter().next().unwrap();
        let (s, p, o) = d.decode(&t);
        assert_eq!(s, Term::iri("http://s"));
        assert_eq!(p, Term::iri("http://p"));
        assert_eq!(o, Term::literal("o"));
    }

    #[test]
    fn rdf_type_id_present_only_when_used() {
        let mut d = Dataset::new();
        assert!(d.rdf_type_id().is_none());
        d.insert_iris("http://x", vocab::RDF_TYPE, "http://C");
        assert!(d.rdf_type_id().is_some());
        assert_eq!(d.count_predicate(d.rdf_type_id().unwrap()), 1);
    }
}
