//! Shared types of the data-graph transformations.

use std::fmt;
use turbohom_graph::{ELabel, InverseLabelIndex, LabeledGraph, PredicateIndex, VLabel};
use turbohom_rdf::TermId;
use turbohom_storage::{FlatVec, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (components 0x06 mappings, 0x07 transformed graph).
/// `0x0601`/`0x0602` are retired: a data vertex's id is its term id.
const TAG_MAP_TERM_TO_VLABEL: u64 = 0x0603;
const TAG_MAP_VLABEL_TO_TERM: u64 = 0x0604;
const TAG_MAP_TERM_TO_ELABEL: u64 = 0x0605;
const TAG_MAP_ELABEL_TO_TERM: u64 = 0x0606;
const TAG_TRANSFORM_META: u64 = 0x0701;

/// Sentinel in the dense term→graph-id arrays for "not mapped".
const UNMAPPED: u32 = u32::MAX;

/// Which transformation produced a [`TransformedGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// The direct transformation of Section 3.2.
    Direct,
    /// The type-aware transformation of Section 4.1.
    TypeAware,
}

/// Bidirectional mappings between RDF term ids and label ids.
///
/// These are the `FVL` and `FEL` functions of Definition 3 (and their
/// inverses); `FV` is the identity ([`VertexId::of_term`](turbohom_graph::VertexId::of_term)).
/// All four directions are dense flat arrays (the forward ones indexed by
/// term id with a sentinel for unmapped terms), so the whole structure
/// serializes into a snapshot and reads back in place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphMappings {
    /// RDF class term → vertex label (empty for the direct transformation).
    term_to_vlabel: FlatVec<u32>,
    /// Vertex label → RDF class term (dense).
    pub vlabel_to_term: FlatVec<TermId>,
    /// RDF predicate term → edge label.
    term_to_elabel: FlatVec<u32>,
    /// Edge label → RDF predicate term (dense).
    pub elabel_to_term: FlatVec<TermId>,
}

fn forward_get(arr: &FlatVec<u32>, term: TermId) -> Option<u32> {
    arr.get(term.index()).copied().filter(|&v| v != UNMAPPED)
}

fn forward_set(arr: &mut FlatVec<u32>, term: TermId, value: u32) {
    let arr = arr.to_mut();
    if arr.len() <= term.index() {
        arr.resize(term.index() + 1, UNMAPPED);
    }
    arr[term.index()] = value;
}

impl GraphMappings {
    /// Looks up the vertex label of an RDF class term.
    pub fn vlabel_of(&self, term: TermId) -> Option<VLabel> {
        forward_get(&self.term_to_vlabel, term).map(VLabel)
    }

    /// Looks up the RDF class term of a vertex label.
    pub fn term_of_vlabel(&self, l: VLabel) -> Option<TermId> {
        self.vlabel_to_term.get(l.index()).copied()
    }

    /// Looks up the edge label of an RDF predicate term.
    pub fn elabel_of(&self, term: TermId) -> Option<ELabel> {
        forward_get(&self.term_to_elabel, term).map(ELabel)
    }

    /// Looks up the RDF predicate term of an edge label.
    pub fn term_of_elabel(&self, l: ELabel) -> Option<TermId> {
        self.elabel_to_term.get(l.index()).copied()
    }

    /// Interns a class term as a vertex label.
    pub(crate) fn intern_vlabel(&mut self, term: TermId) -> VLabel {
        if let Some(l) = self.vlabel_of(term) {
            return l;
        }
        let l = VLabel(self.vlabel_to_term.len() as u32);
        forward_set(&mut self.term_to_vlabel, term, l.0);
        self.vlabel_to_term.to_mut().push(term);
        l
    }

    /// Interns a predicate term as an edge label.
    pub(crate) fn intern_elabel(&mut self, term: TermId) -> ELabel {
        if let Some(l) = self.elabel_of(term) {
            return l;
        }
        let l = ELabel(self.elabel_to_term.len() as u32);
        forward_set(&mut self.term_to_elabel, term, l.0);
        self.elabel_to_term.to_mut().push(term);
        l
    }

    /// Bytes of the four mapping arrays.
    pub fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.term_to_vlabel)
            + (&self.vlabel_to_term).into()
            + (&self.term_to_elabel).into()
            + (&self.elabel_to_term).into()
    }

    /// Serializes all four mapping arrays as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_MAP_TERM_TO_VLABEL, &self.term_to_vlabel);
        w.section(TAG_MAP_VLABEL_TO_TERM, &self.vlabel_to_term);
        w.section(TAG_MAP_TERM_TO_ELABEL, &self.term_to_elabel);
        w.section(TAG_MAP_ELABEL_TO_TERM, &self.elabel_to_term);
    }

    /// Reconstructs the mappings from a snapshot, validating that forward
    /// and reverse arrays agree so lookups stay total.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let m = GraphMappings {
            term_to_vlabel: cur.next_section(TAG_MAP_TERM_TO_VLABEL)?,
            vlabel_to_term: cur.next_section(TAG_MAP_VLABEL_TO_TERM)?,
            term_to_elabel: cur.next_section(TAG_MAP_TERM_TO_ELABEL)?,
            elabel_to_term: cur.next_section(TAG_MAP_ELABEL_TO_TERM)?,
        };
        for (fwd, rev, what) in [
            (&m.term_to_vlabel, &m.vlabel_to_term, "vertex label"),
            (&m.term_to_elabel, &m.elabel_to_term, "edge label"),
        ] {
            let n = rev.len() as u32;
            if fwd.iter().any(|&g| g != UNMAPPED && g >= n) {
                return Err(SnapshotError::Malformed(format!(
                    "term-to-{what} mapping points outside the reverse array"
                )));
            }
            for (i, t) in rev.iter().enumerate() {
                if fwd.get(t.index()).copied() != Some(i as u32) {
                    return Err(SnapshotError::Malformed(format!(
                        "{what} mapping arrays disagree at graph id {i}"
                    )));
                }
            }
        }
        Ok(m)
    }
}

/// A labeled graph together with its indexes and its mappings back to RDF
/// terms. This is what the matching engine executes against.
#[derive(Debug, Clone)]
pub struct TransformedGraph {
    /// Which transformation built this graph.
    pub kind: TransformKind,
    /// The CSR labeled graph.
    pub graph: LabeledGraph,
    /// The inverse vertex label list (Figure 9a).
    pub inverse_labels: InverseLabelIndex,
    /// The predicate index (Section 4.2).
    pub predicates: PredicateIndex,
    /// Term ↔ label id mappings.
    pub mappings: GraphMappings,
}

impl TransformedGraph {
    /// Builds the derived indexes for `graph` and assembles the bundle.
    pub fn assemble(kind: TransformKind, graph: LabeledGraph, mappings: GraphMappings) -> Self {
        let inverse_labels = InverseLabelIndex::build(&graph);
        let predicates = PredicateIndex::build(&graph);
        TransformedGraph {
            kind,
            graph,
            inverse_labels,
            predicates,
            mappings,
        }
    }

    /// Bytes of every array of the bundle, by part: the graph's `csr` and
    /// `labels`, the two indexes and the mappings.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 5] {
        let [csr, labels] = self.graph.memory();
        [
            csr,
            labels,
            ("inverse_labels", self.inverse_labels.memory()),
            ("predicate_index", self.predicates.memory()),
            ("mappings", self.mappings.memory()),
        ]
    }

    /// Serializes the whole bundle (meta, graph, indexes, mappings) as
    /// snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        let meta: [u64; 1] = [match self.kind {
            TransformKind::Direct => 0,
            TransformKind::TypeAware => 1,
        }];
        w.section(TAG_TRANSFORM_META, &meta);
        self.graph.write_sections(w);
        self.inverse_labels.write_sections(w);
        self.predicates.write_sections(w);
        self.mappings.write_sections(w);
    }

    /// Reconstructs the bundle reading everything in place from a snapshot.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let meta: FlatVec<u64> = cur.next_section(TAG_TRANSFORM_META)?;
        if meta.len() != 1 {
            return Err(SnapshotError::Malformed(
                "transformed graph meta section length".into(),
            ));
        }
        let kind = match meta[0] {
            0 => TransformKind::Direct,
            1 => TransformKind::TypeAware,
            k => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown transform kind {k}"
                )))
            }
        };
        let graph = LabeledGraph::read_sections(cur)?;
        let inverse_labels = InverseLabelIndex::read_sections(cur)?;
        let predicates = PredicateIndex::read_sections(cur, &graph)?;
        let mappings = GraphMappings::read_sections(cur)?;
        Ok(TransformedGraph {
            kind,
            graph,
            inverse_labels,
            predicates,
            mappings,
        })
    }
}

/// Errors the transformations can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The query contains `?x rdf:type ?class` with a variable class, which
    /// the type-aware transformation cannot fold (the engine falls back to
    /// the direct transformation for such queries).
    VariableTypeUnsupported,
    /// The query contains a triple whose predicate is `rdfs:subClassOf` with
    /// a variable; same fallback applies.
    VariableSubclassUnsupported,
    /// A blank node appeared where the transformation cannot handle it.
    UnsupportedTerm(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::VariableTypeUnsupported => write!(
                f,
                "type-aware transformation cannot fold `rdf:type` with a variable class"
            ),
            TransformError::VariableSubclassUnsupported => write!(
                f,
                "type-aware transformation cannot fold `rdfs:subClassOf` with a variable"
            ),
            TransformError::UnsupportedTerm(t) => write!(f, "unsupported term in query: {t}"),
        }
    }
}

impl std::error::Error for TransformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut m = GraphMappings::default();
        let l0 = m.intern_vlabel(TermId(5));
        assert_eq!(l0, VLabel(0));
        assert_eq!(m.intern_vlabel(TermId(5)), l0);
        assert_eq!(m.term_of_vlabel(l0), Some(TermId(5)));
        assert_eq!(m.vlabel_of(TermId(6)), None);

        let e0 = m.intern_elabel(TermId(7));
        let e1 = m.intern_elabel(TermId(8));
        assert_eq!(m.term_of_elabel(e1), Some(TermId(8)));
        assert_eq!(m.elabel_of(TermId(7)), Some(e0));
    }

    #[test]
    fn transformed_graph_snapshot_round_trip() {
        use turbohom_graph::{LabeledGraphBuilder, VertexId};
        use turbohom_storage::{Snapshot, SnapshotWriter};

        let mut mappings = GraphMappings::default();
        let [v0, v1, v2] = [0, 1, 2].map(|t| VertexId::of_term(TermId(t)));
        let el = mappings.intern_elabel(TermId(20));
        mappings.intern_vlabel(TermId(30));
        mappings.intern_vlabel(TermId(31));

        let mut b = LabeledGraphBuilder::new();
        b.add_vertex(vec![VLabel(0)]);
        b.add_vertex(vec![VLabel(0), VLabel(1)]);
        b.add_vertex(vec![]);
        b.add_edge(v0, v1, el);
        b.add_edge(v1, v2, el);
        let graph = b.build();

        let original = TransformedGraph::assemble(TransformKind::TypeAware, graph, mappings);

        let mut w = SnapshotWriter::new();
        original.write_sections(&mut w);
        let dir = std::env::temp_dir().join("turbohom-transform-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("transformed.snap");
        w.write_to(&path).unwrap();

        let snap = Snapshot::open(&path).unwrap();
        let mut cur = snap.cursor();
        let loaded = TransformedGraph::read_sections(&mut cur).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.kind, TransformKind::TypeAware);
        assert_eq!(loaded.graph.vertex_count(), 3);
        assert_eq!(loaded.graph.edge_count(), 2);
        for v in loaded.graph.vertices() {
            assert_eq!(loaded.graph.labels(v), original.graph.labels(v));
        }
        assert!(loaded.mappings == original.mappings);
        assert_eq!(loaded.mappings.elabel_of(TermId(20)), Some(el));
        assert_eq!(
            loaded.predicates.subjects(el),
            original.predicates.subjects(el)
        );
        assert_eq!(
            loaded.inverse_labels.vertices_with_label(VLabel(0)),
            original.inverse_labels.vertices_with_label(VLabel(0))
        );
    }

    #[test]
    fn transform_error_messages() {
        assert!(TransformError::VariableTypeUnsupported
            .to_string()
            .contains("rdf:type"));
        assert!(TransformError::UnsupportedTerm("x".into())
            .to_string()
            .contains('x'));
    }
}
