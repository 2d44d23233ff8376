//! Generating a dataset as triples of ids.
//!
//! A generator names each term of its fixed vocabulary, and each entity it
//! creates, many times over. Building a [`Term`] for every occurrence and
//! encoding it costs a formatted string and a dictionary probe each time. An
//! [`Encoder`] encodes a vocabulary term once, on its first use, and a
//! generator keeps each entity's id from its creation on: only literals,
//! which repeat, are encoded occurrence by occurrence.
//!
//! The ids are the ones an occurrence-by-occurrence encoding gives: a term is
//! encoded where such an encoding would first meet it, and a triple's terms
//! are resolved subject, then predicate, then object.

use std::marker::PhantomData;
use turbohom_rdf::{Dataset, Term, TermId, Triple};

/// The terms a generator names by key and encodes on first use: its
/// vocabulary, and any entity it may name before it creates it.
pub(crate) trait Vocabulary: Copy {
    /// The key's slot among the kept ids: small and dense, one per key.
    fn slot(self) -> usize;
    /// The IRI the key names.
    fn iri(self) -> String;
}

/// A term of a triple as a generator names it.
pub(crate) enum Node<K> {
    /// An id the generator keeps.
    Id(TermId),
    /// A vocabulary key, encoded on its first use.
    Key(K),
    /// A term encoded at this occurrence: a literal (literals repeat), or
    /// a term the generator names once, such as a schema triple's.
    Term(Term),
}

impl<K> From<TermId> for Node<K> {
    fn from(id: TermId) -> Self {
        Node::Id(id)
    }
}

impl<K> From<Term> for Node<K> {
    fn from(term: Term) -> Self {
        Node::Term(term)
    }
}

impl<K: Vocabulary> From<K> for Node<K> {
    fn from(key: K) -> Self {
        Node::Key(key)
    }
}

/// A dataset under construction from ids, with the ids of the vocabulary
/// keys used so far.
pub(crate) struct Encoder<K> {
    dataset: Dataset,
    /// By key slot: the key's id once it has been used.
    kept: Vec<Option<TermId>>,
    key: PhantomData<K>,
}

impl<K: Vocabulary> Encoder<K> {
    /// An encoder over an empty dataset.
    pub(crate) fn new() -> Self {
        Encoder {
            dataset: Dataset::new(),
            kept: Vec::new(),
            key: PhantomData,
        }
    }

    /// Encodes the IRI of an entity the generator creates now; the
    /// generator keeps the id.
    pub(crate) fn entity(&mut self, iri: &str) -> TermId {
        self.dataset.dictionary.encode_iri(iri)
    }

    /// The id of `node`, encoding it if it is a key's first use or a term.
    pub(crate) fn id(&mut self, node: impl Into<Node<K>>) -> TermId {
        match node.into() {
            Node::Id(id) => id,
            Node::Key(key) => {
                let slot = key.slot();
                if slot >= self.kept.len() {
                    self.kept.resize(slot + 1, None);
                }
                let dictionary = &mut self.dataset.dictionary;
                *self.kept[slot].get_or_insert_with(|| dictionary.encode_iri(&key.iri()))
            }
            Node::Term(term) => self.dataset.dictionary.encode(&term),
        }
    }

    /// Appends the triple `(s, p, o)`, resolving its terms in that order.
    pub(crate) fn insert(
        &mut self,
        s: impl Into<Node<K>>,
        p: impl Into<Node<K>>,
        o: impl Into<Node<K>>,
    ) {
        let s = self.id(s);
        let p = self.id(p);
        let o = self.id(o);
        self.dataset.triples.insert(Triple::new(s, p, o));
    }

    /// The dataset built, its repeated triples dropped.
    pub(crate) fn into_dataset(mut self) -> Dataset {
        self.dataset.dedup();
        self.dataset
    }
}
