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
use std::collections::HashSet;
use std::hash::{BuildHasher, RandomState};
use turbohom_storage::{FlatVec, MemoryUse, Pod, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tag (component 0x02).
const TAG_TRIPLES: u64 = 0x0201;

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
/// The triples live in a [`FlatVec`], so a store loaded from a snapshot
/// reads them in place. The dedup set exists only while the store is being
/// populated: [`freeze`](Self::freeze) drops it, a snapshot never stores it,
/// and the first insert afterwards rebuilds it from the triples.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    triples: FlatVec<Triple>,
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

    /// Creates an empty store with capacity for `capacity` triples.
    pub fn with_capacity(capacity: usize) -> Self {
        TripleStore {
            triples: Vec::with_capacity(capacity).into(),
            seen: vec![0; slots_for(capacity)],
            hasher: RandomState::new(),
        }
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
            // Frozen, snapshot-backed or about to fill past one half: index
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
                self.triples.to_mut().push(triple);
                true
            }
        }
    }

    /// Ends loading: drops the dedup set and the triple array's spare
    /// capacity.
    pub fn freeze(&mut self) {
        self.seen = Vec::new();
        if !self.triples.is_view() {
            self.triples.to_mut().shrink_to_fit();
        }
    }

    /// Bytes of the triple array and of the dedup set.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 2] {
        let dedup = MemoryUse {
            heap: std::mem::size_of_val(&self.seen[..]) as u64,
            mapped: 0,
        };
        [("triples", (&self.triples).into()), ("dedup_set", dedup)]
    }

    /// Returns `true` if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        if self.seen.is_empty() {
            // Frozen or snapshot-backed store before any insert: no dedup
            // set.
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

    /// Serializes the store as a snapshot section.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_TRIPLES, self.as_slice());
    }

    /// Reconstructs a store reading its triples in place from a snapshot.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        Ok(TripleStore {
            triples: cur.next_section(TAG_TRIPLES)?,
            ..TripleStore::default()
        })
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

    /// Ends loading: the dictionary sorts its ids and drops its hash index
    /// (see [`Dictionary::freeze`]) and the triple store drops its dedup
    /// set. Every read is unchanged; an insert afterwards rebuilds what it
    /// needs.
    pub fn freeze(&mut self) {
        self.dictionary.freeze();
        self.triples.freeze();
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

    /// Returns the set of distinct subjects and objects (entity ids), i.e.
    /// the vertices of the direct transformation.
    pub fn entity_ids(&self) -> HashSet<TermId> {
        let mut ids = HashSet::new();
        for t in self.triples.iter() {
            ids.insert(t.s);
            ids.insert(t.o);
        }
        ids
    }

    /// Returns the set of distinct predicates.
    pub fn predicate_ids(&self) -> HashSet<TermId> {
        self.triples.iter().map(|t| t.p).collect()
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

    /// Serializes dictionary and triples as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        self.dictionary.write_sections(w);
        self.triples.write_sections(w);
    }

    /// Reconstructs a dataset from snapshot sections, validating that every
    /// triple's ids resolve against the dictionary.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let dictionary = Dictionary::read_sections(cur)?;
        let triples = TripleStore::read_sections(cur)?;
        let num_terms = dictionary.len();
        for t in triples.iter() {
            if [t.s, t.p, t.o].iter().any(|id| id.index() >= num_terms) {
                return Err(SnapshotError::Malformed(
                    "triple references a term id outside the dictionary".into(),
                ));
            }
        }
        Ok(Dataset {
            dictionary,
            triples,
        })
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
    fn dataset_entity_and_predicate_sets() {
        let mut d = Dataset::new();
        d.insert_iris("http://a", "http://p", "http://b");
        d.insert_iris("http://a", "http://q", "http://c");
        let entities = d.entity_ids();
        let predicates = d.predicate_ids();
        assert_eq!(entities.len(), 3);
        assert_eq!(predicates.len(), 2);
        // Predicates are not entities here.
        for p in &predicates {
            assert!(!entities.contains(p));
        }
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
    fn dataset_snapshot_round_trip_and_mutation_after_load() {
        let mut d = Dataset::new();
        d.insert_iris("http://a", "http://p", "http://b");
        d.insert_iris("http://b", "http://p", "http://c");
        d.insert(
            &Term::iri("http://a"),
            &Term::iri("http://q"),
            &Term::literal("x"),
        );
        let mut w = turbohom_storage::SnapshotWriter::new();
        d.write_sections(&mut w);
        let path =
            std::env::temp_dir().join(format!("turbohom-dataset-{}.snap", std::process::id()));
        w.write_to(&path).unwrap();
        let snap = turbohom_storage::Snapshot::open(&path).unwrap();
        let mut loaded = Dataset::read_sections(&mut snap.cursor()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded.len(), d.len());
        assert_eq!(loaded.triples.as_slice(), d.triples.as_slice());
        for t in d.triples.iter() {
            assert!(loaded.triples.contains(t));
            assert_eq!(loaded.decode(t), d.decode(t));
        }
        // Duplicate insert after load is still rejected; a new one lands.
        assert!(!loaded.insert_iris("http://a", "http://p", "http://b"));
        assert!(loaded.insert_iris("http://c", "http://p", "http://a"));
        assert_eq!(loaded.len(), d.len() + 1);
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
