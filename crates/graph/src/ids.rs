//! Identifier newtypes for the labeled-graph layer.
//!
//! A data vertex's id *is* its RDF term's [`TermId`]: both transformations
//! lay out one row per dictionary term, so `FV` of Definition 3 is the
//! identity, and a matched row is a row of term ids. A term that is no
//! subject or object (a predicate, or a class used only as a type) keeps an
//! empty row. [`VertexId::of_term`] and [`VertexId::term`] are the one place
//! that knows it. Vertex labels and edge labels stay dense ids of their own:
//! the label CSR and +SUM's signature bits need small numbers. The three
//! remain distinct newtypes, which keeps the "mixed up id spaces" bug family
//! a compile error.

use std::fmt;
use turbohom_rdf::TermId;
use turbohom_storage::Pod;

/// A data-graph vertex id: the [`TermId`] of the vertex's term.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct VertexId(pub u32);

// Safety: repr(transparent) over u32 — no padding, no niches.
unsafe impl Pod for VertexId {}

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The data vertex of an RDF term.
    #[inline]
    pub fn of_term(term: TermId) -> VertexId {
        VertexId(term.0)
    }

    /// The RDF term of a data vertex.
    #[inline]
    pub fn term(self) -> TermId {
        TermId(self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A vertex label id (dense, 0-based). Under the type-aware transformation
/// a vertex label corresponds to an RDF class (e.g. `GraduateStudent`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct VLabel(pub u32);

// Safety: repr(transparent) over u32 — no padding, no niches.
unsafe impl Pod for VLabel {}

impl VLabel {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// An edge label id (dense, 0-based). Corresponds to an RDF predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct ELabel(pub u32);

// Safety: repr(transparent) over u32 — no padding, no niches.
unsafe impl Pod for ELabel {}

impl ELabel {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ELabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Edge direction relative to a vertex.
///
/// `Outgoing` follows edges `v → w` (v is the subject), `Incoming` follows
/// edges `w → v` (v is the object). The matcher explores both, because a
/// SPARQL triple pattern constrains its subject *and* its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Follow edges from subject to object.
    Outgoing,
    /// Follow edges from object to subject.
    Incoming,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Outgoing => Direction::Incoming,
            Direction::Incoming => Direction::Outgoing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(VLabel(2).to_string(), "L2");
        assert_eq!(ELabel(1).to_string(), "e1");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(VertexId(7).index(), 7);
        assert_eq!(VertexId::of_term(TermId(7)), VertexId(7));
        assert_eq!(VertexId(7).term(), TermId(7));
        assert_eq!(VLabel(7).index(), 7);
        assert_eq!(ELabel(7).index(), 7);
    }

    #[test]
    fn direction_reverse_is_involution() {
        assert_eq!(Direction::Outgoing.reverse(), Direction::Incoming);
        assert_eq!(Direction::Incoming.reverse(), Direction::Outgoing);
        assert_eq!(Direction::Outgoing.reverse().reverse(), Direction::Outgoing);
    }

    #[test]
    fn ids_order_by_value() {
        let mut v = vec![VertexId(5), VertexId(1), VertexId(3)];
        v.sort();
        assert_eq!(v, vec![VertexId(1), VertexId(3), VertexId(5)]);
    }
}
