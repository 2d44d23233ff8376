//! Encoded triples and the in-memory triple store.
//!
//! A [`TripleStore`] holds dictionary-encoded triples with duplicate
//! elimination. Together with its [`Dictionary`] it forms a [`Dataset`],
//! which is the unit every downstream component consumes: the graph builder,
//! the transformations, the baseline engines and the dataset generators all
//! exchange `Dataset`s.

use crate::dictionary::{Dictionary, TermId};
use crate::term::Term;
use crate::vocab;
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
/// An insert appends; a [`dedup`](Self::dedup) pass then drops every
/// appended triple that repeats an earlier one, so each triple keeps its
/// first occurrence's place. The readers take a deduped store: in a debug
/// build they panic while appended triples are pending.
///
/// While loading, the store keeps its *sorted run*: the indices of its
/// triples in (s, p, o) order, 4 bytes a triple, against which a pass finds
/// the appended triples already present. [`freeze`](Self::freeze) drops
/// it, and the first pass afterwards sorts every triple again. A snapshot
/// stores no triple table: the type-aware graph holds every triple.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    triples: Vec<Triple>,
    /// The indices of `triples[..run.len()]` in triple order. Either empty
    /// (frozen) or covering every triple the last pass left.
    run: Vec<u32>,
    /// How many triples the last pass left: those after are pending.
    deduped: usize,
}

/// A dedup pass's mark on an appended triple that repeats an earlier one.
const DROPPED: u32 = u32::MAX;

impl TripleStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a triple. It is pending until the next [`dedup`](Self::dedup).
    pub fn insert(&mut self, triple: Triple) {
        self.triples.push(triple);
    }

    /// Dedups the triples appended since the last pass, keeping each
    /// triple's first occurrence in place, and returns how many triples the
    /// store grew by.
    ///
    /// The pass sorts the appended indices by (s, p, o, index), keeps the
    /// first of each repeat unless the run already holds its triple,
    /// compacts the kept triples in place and merges them into the run.
    ///
    /// # Panics
    /// Panics if the store holds `u32::MAX` triples or more.
    pub fn dedup(&mut self) -> usize {
        let (before, len) = (self.deduped, self.triples.len());
        if before == len {
            return 0;
        }
        assert!(
            len < DROPPED as usize,
            "a triple store holds fewer than u32::MAX triples"
        );
        // The pass covers what the run does not: after a freeze, everything.
        let base = self.run.len();
        let triples = &mut self.triples;
        let mut order: Vec<u32> = (base as u32..len as u32).collect();
        let mut fate = Vec::new();
        radix_sort(&mut order, &mut fate, triples);

        // Keep the first of each repeat, unless the run holds it.
        fate.clear();
        fate.resize(len - base, DROPPED);
        let mut run = self.run.iter().map(|&i| triples[i as usize]).peekable();
        let mut previous = None;
        for &i in &order {
            let t = triples[i as usize];
            if previous == Some(t) {
                continue;
            }
            previous = Some(t);
            while run.next_if(|r| *r < t).is_some() {}
            if run.peek() != Some(&t) {
                fate[i as usize - base] = 0;
            }
        }

        // Compact in place; a kept triple's fate becomes its new index.
        let mut kept = base;
        for (j, fate) in fate.iter_mut().enumerate() {
            if *fate != DROPPED {
                triples[kept] = triples[base + j];
                *fate = kept as u32;
                kept += 1;
            }
        }
        triples.truncate(kept);
        order.retain_mut(|i| {
            *i = fate[*i as usize - base];
            *i != DROPPED
        });
        // `fate` lives until the run has grown: freed before, it left room
        // in the heap that glibc gave the run, whose growth then raised the
        // LUBM(640) generate peak from 32.5 to 33.4 MB.
        merge(&mut self.run, &order, triples);
        self.deduped = kept;
        kept - before
    }

    /// Ends loading: dedups what is pending, and drops the sorted run and
    /// the triple array's spare capacity.
    pub fn freeze(&mut self) {
        self.dedup();
        self.run = Vec::new();
        self.triples.shrink_to_fit();
    }

    /// Bytes of the triple array and, while loading, of its sorted run.
    pub fn memory(&self) -> MemoryUse {
        let heap = std::mem::size_of_val(&self.triples[..]) + std::mem::size_of_val(&self.run[..]);
        MemoryUse {
            heap: heap as u64,
            mapped: 0,
        }
    }

    /// The triples, which a pass must have deduped.
    fn distinct(&self) -> &[Triple] {
        debug_assert_eq!(
            self.deduped,
            self.triples.len(),
            "a triple store is read while appended triples are pending"
        );
        &self.triples
    }

    /// The triples the last pass left, whatever has been appended since.
    pub(crate) fn deduped(&self) -> &[Triple] {
        &self.triples[..self.deduped]
    }

    /// Returns `true` if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        let triples = self.distinct();
        if self.run.len() == triples.len() {
            let search = self
                .run
                .binary_search_by(|&i| triples[i as usize].cmp(triple));
            search.is_ok()
        } else {
            // Frozen: no run.
            triples.contains(triple)
        }
    }

    /// Number of distinct triples.
    pub fn len(&self) -> usize {
        self.distinct().len()
    }

    /// Returns `true` if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.distinct().is_empty()
    }

    /// Iterates over the triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.distinct().iter()
    }

    /// Returns the triples as a slice (insertion order).
    pub fn as_slice(&self) -> &[Triple] {
        self.distinct()
    }
}

/// Bits of a radix digit: 2,048 buckets. An id is three digits, and a
/// digit every triple shares is skipped: an id below 2^22 takes two passes.
const DIGIT_BITS: u32 = 11;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// The `k`th digit of `id`, least significant first.
fn digit(id: TermId, k: usize) -> usize {
    (id.0 >> (DIGIT_BITS as usize * k)) as usize & (BUCKETS - 1)
}

/// Sorts `order`, indices into `triples` in ascending order, by triple: an
/// LSD radix sort, stable, so equal triples stay in index order. `scratch`
/// is its second buffer.
fn radix_sort(order: &mut Vec<u32>, scratch: &mut Vec<u32>, triples: &[Triple]) {
    // Nine digits, least significant first: the object's three, then the
    // predicate's, then the subject's. One walk counts them all.
    let mut counts = vec![[0u32; BUCKETS]; 9];
    for &i in order.iter() {
        let t = &triples[i as usize];
        for (field, id) in [t.o, t.p, t.s].into_iter().enumerate() {
            for k in 0..3 {
                counts[3 * field + k][digit(id, k)] += 1;
            }
        }
    }
    scratch.resize(order.len(), 0);
    for (d, counts) in counts.iter_mut().enumerate() {
        if counts.contains(&(order.len() as u32)) {
            continue;
        }
        let mut start = 0;
        for count in counts.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        let k = d % 3;
        match d / 3 {
            0 => scatter(order, scratch, counts, |i| digit(triples[i].o, k)),
            1 => scatter(order, scratch, counts, |i| digit(triples[i].p, k)),
            _ => scatter(order, scratch, counts, |i| digit(triples[i].s, k)),
        }
        std::mem::swap(order, scratch);
    }
}

/// One radix pass: moves each index of `order`, in order, to the next slot
/// of its bucket in `out`, the buckets starting at `starts`.
fn scatter(order: &[u32], out: &mut [u32], starts: &mut [u32], bucket: impl Fn(usize) -> usize) {
    for &i in order {
        let slot = &mut starts[bucket(i as usize)];
        out[*slot as usize] = i;
        *slot += 1;
    }
}

/// Merges `new` into `run`, both indices sorted by triple and naming no
/// triple in common, from the back, so that the run grows in place.
fn merge(run: &mut Vec<u32>, new: &[u32], triples: &[Triple]) {
    let (mut i, mut j) = (run.len(), new.len());
    run.reserve_exact(j);
    run.resize(i + j, 0);
    while j > 0 {
        let slot = i + j - 1;
        if i > 0 && triples[run[i - 1] as usize] > triples[new[j - 1] as usize] {
            run[slot] = run[i - 1];
            i -= 1;
        } else {
            run[slot] = new[j - 1];
            j -= 1;
        }
    }
}

impl<'a> IntoIterator for &'a TripleStore {
    type Item = &'a Triple;
    type IntoIter = std::slice::Iter<'a, Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.distinct().iter()
    }
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut store = TripleStore {
            triples: iter.into_iter().collect(),
            ..TripleStore::default()
        };
        store.dedup();
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

    /// Appends a decoded `(s, p, o)` triple, encoding the terms as needed.
    /// It is pending until the next [`dedup`](Self::dedup).
    pub fn insert(&mut self, s: &Term, p: &Term, o: &Term) {
        let s = self.dictionary.encode(s);
        let p = self.dictionary.encode(p);
        let o = self.dictionary.encode(o);
        self.triples.insert(Triple::new(s, p, o));
    }

    /// Convenience for tests and generators: appends a triple of IRIs.
    pub fn insert_iris(&mut self, s: &str, p: &str, o: &str) {
        let [s, p, o] = [s, p, o].map(|iri| self.dictionary.encode_iri(iri));
        self.triples.insert(Triple::new(s, p, o));
    }

    /// Dedups the triples appended since the last pass
    /// ([`TripleStore::dedup`]): a producer hands out a deduped dataset.
    pub fn dedup(&mut self) -> usize {
        self.triples.dedup()
    }

    /// Ends loading: the triple store dedups what is pending and drops its
    /// sorted run, the dictionary renumbers its terms in key order
    /// ([`Dictionary::freeze`]), and the triples are renamed to the new ids
    /// in one pass, their order kept.
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
        s.insert(Triple::new(id(0), id(1), id(2)));
        s.insert(Triple::new(id(0), id(1), id(2)));
        s.insert(Triple::new(id(0), id(1), id(3)));
        assert_eq!(s.dedup(), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dedup(), 0);
        s.insert(Triple::new(id(0), id(1), id(3)));
        assert_eq!(s.dedup(), 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pending")]
    fn a_pending_triple_is_not_read() {
        let mut s = TripleStore::new();
        s.insert(Triple::new(id(0), id(1), id(2)));
        s.len();
    }

    #[test]
    fn the_run_grows_over_many_passes_and_after_a_freeze() {
        // Thirty passes of 100 triples, each appended beside a repeat of an
        // earlier one: the repeat is in the run, or earlier in its own pass.
        let triple = |i: u32| Triple::new(id(i % 7), id(i % 3), id(i));
        let mut s = TripleStore::new();
        for pass in 0..30 {
            for i in pass * 100..(pass + 1) * 100 {
                s.insert(triple(i));
                s.insert(triple(i / 2));
            }
            assert_eq!(s.dedup(), 100);
        }
        // The ledger line is the triples and, while loading, the run.
        assert_eq!(s.memory().heap, 3_000 * (12 + 4));
        s.freeze();
        assert_eq!(s.memory().heap, 3_000 * 12);
        assert!(s.contains(&triple(2_999)));
        assert!(!s.contains(&triple(3_000)));
        // The first pass after the freeze sorts every triple again.
        for i in 0..5_000 {
            s.insert(triple(i));
        }
        assert_eq!(s.dedup(), 2_000);
        assert_eq!(s.len(), 5_000);
        for i in 0..5_000 {
            assert!(s.contains(&triple(i)));
        }
        assert!(!s.contains(&triple(5_000)));
        let order: Vec<Triple> = s.iter().copied().collect();
        assert_eq!(order, (0..5_000).map(triple).collect::<Vec<_>>());
    }

    /// Ids that differ in each of a key's radix digits.
    const IDS: [u32; 6] = [0, 1, 2_048, 2_049, 1 << 22, u32::MAX];

    proptest::proptest! {
        /// Rounds of appends, each followed by a pass and some by a freeze,
        /// leave what a first-occurrence walk over a `HashSet` leaves: the
        /// same triples in the same order, each pass growing the store by
        /// the walk's new triples, and `contains` true for exactly those.
        #[test]
        fn passes_keep_first_occurrences(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0usize..6, 0usize..3, 0usize..6), 0..80), 0..4),
                1..6,
            ),
        ) {
            let triple = |(s, p, o): (usize, usize, usize)| {
                Triple::new(id(IDS[s]), id(IDS[p]), id(IDS[o]))
            };
            let mut store = TripleStore::new();
            let (mut model, mut seen) = (Vec::new(), std::collections::HashSet::new());
            for (appended, freeze) in rounds {
                let before = model.len();
                for &key in &appended {
                    store.insert(triple(key));
                    if seen.insert(triple(key)) {
                        model.push(triple(key));
                    }
                }
                proptest::prop_assert_eq!(store.dedup(), model.len() - before);
                if freeze == 0 {
                    store.freeze();
                }
                proptest::prop_assert_eq!(store.len(), model.len());
                proptest::prop_assert_eq!(store.as_slice(), &model[..]);
                for s in 0..6 {
                    for p in 0..3 {
                        for o in 0..6 {
                            let t = triple((s, p, o));
                            proptest::prop_assert_eq!(store.contains(&t), seen.contains(&t));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn store_preserves_insertion_order() {
        let mut s = TripleStore::new();
        s.insert(Triple::new(id(2), id(0), id(1)));
        s.insert(Triple::new(id(0), id(0), id(1)));
        s.insert(Triple::new(id(1), id(0), id(1)));
        s.dedup();
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
        d.insert_iris("http://a", "http://p", "http://b");
        d.insert_iris("http://b", "http://p", "http://a");
        d.insert_iris("http://a", "http://p", "http://b");
        assert_eq!(d.dedup(), 2);
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
        d.dedup();
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
        d.dedup();
        assert!(d.rdf_type_id().is_some());
        assert_eq!(d.count_predicate(d.rdf_type_id().unwrap()), 1);
    }
}
