//! Shared types of the data-graph transformations.

use std::borrow::Cow;
use std::fmt;
use turbohom_graph::{ops, Direction, ELabel, InverseLabelIndex, LabeledGraph, PredicateIndex};
use turbohom_graph::{VLabel, VertexId};
use turbohom_rdf::TermId;
use turbohom_storage::{FlatVec, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (components 0x06 mappings, 0x07 transformed graph).
/// `0x0601`/`0x0602` are retired: a data vertex's id is its term id; and so
/// is the kind (`0x0701`): a snapshot holds the type-aware graph alone.
const TAG_MAP_TERM_TO_VLABEL: u64 = 0x0603;
const TAG_MAP_VLABEL_TO_TERM: u64 = 0x0604;
const TAG_MAP_TERM_TO_ELABEL: u64 = 0x0605;
const TAG_MAP_ELABEL_TO_TERM: u64 = 0x0606;
const TAG_SCHEMA_OUT: u64 = 0x0704;
const TAG_SCHEMA_IN: u64 = 0x0705;

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
    /// The folded `rdfs:subClassOf` triples as sorted `subclass << 32 |
    /// superclass` vertex pairs, and reversed (none in the direct graph).
    pub schema: [FlatVec<u64>; 2],
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
            schema: Default::default(),
        }
    }

    /// The edge labels of `rdfs:subClassOf` and `rdf:type` where the data
    /// has such triples: the type-aware transformation interns them in that
    /// order past the CSR's labels (the direct graph maps none past them).
    fn folded_labels(&self) -> [Option<ELabel>; 2] {
        let n = self.graph.edge_label_count() as u32;
        let next = n + u32::from(!self.schema[0].is_empty());
        let mapped = self.mappings.elabel_to_term.len() as u32;
        [(n, next), (next, mapped)].map(|(l, end)| (l < end).then_some(ELabel(l)))
    }

    /// The label the CSR, the predicate index and the `+SUM` summary hold
    /// for a query edge labelled `el`: `el`, unless it is a folded label,
    /// which none of them holds and which then prunes like a variable
    /// predicate (`None`).
    #[inline]
    pub fn csr_label(&self, el: Option<ELabel>) -> Option<ELabel> {
        let folded = self.graph.edge_label_count()..self.mappings.elabel_to_term.len();
        el.filter(|el| !folded.contains(&el.index()))
    }

    /// The other ends of `v`'s folded edges labelled `el` in `direction`,
    /// sorted: its subclass pairs, or its type edges — its labels' classes
    /// going out, the vertices labelled with its class coming in.
    fn folded(&self, v: VertexId, direction: Direction, el: ELabel) -> Vec<VertexId> {
        let [subclass, rdf_type] = self.folded_labels();
        if Some(el) == subclass {
            let (pairs, key) = (&self.schema[direction as usize], u64::from(v.0));
            let start = pairs.partition_point(|&pair| pair >> 32 < key);
            let pairs = pairs[start..].iter().take_while(|&&pair| pair >> 32 == key);
            return pairs.map(|&pair| VertexId(pair as u32)).collect();
        }
        let mut types: Vec<VertexId> = match direction {
            _ if Some(el) != rdf_type => return Vec::new(),
            Direction::Outgoing => (self.graph.labels(v).iter())
                .map(|&l| VertexId::of_term(self.mappings.vlabel_to_term[l.index()]))
                .collect(),
            Direction::Incoming => (self.mappings.vlabel_of(v.term())).map_or(Vec::new(), |l| {
                self.inverse_labels.vertices_with_label(l).to_vec()
            }),
        };
        types.sort_unstable();
        types
    }

    /// The neighbors of `v` in `direction` over the edges labelled `el` —
    /// over any label, the folded ones included, when `el` is `None` — that
    /// carry all of `labels` (Section 4.2's `ExploreCandidateRegion`
    /// inductive case): sorted and duplicate free. A CSR label and at most
    /// one vertex label borrow a slice of the adjacency; anything else builds
    /// a list of its own.
    #[inline]
    pub fn adjacent(
        &self,
        v: VertexId,
        direction: Direction,
        el: Option<ELabel>,
        labels: &[VLabel],
    ) -> Cow<'_, [VertexId]> {
        let g = &self.graph;
        match (self.csr_label(el), labels) {
            (Some(el), []) => Cow::Borrowed(g.neighbors(v, direction, el)),
            (Some(el), [label]) => Cow::Borrowed(g.neighbors_typed(v, direction, el, *label)),
            (Some(el), _) => {
                let typed = (labels.iter()).map(|&l| g.neighbors_typed(v, direction, el, l));
                Cow::Owned(ops::intersect_k(&typed.collect::<Vec<_>>()))
            }
            (None, _) => Cow::Owned(self.adjacent_off_csr(v, direction, el, labels)),
        }
    }

    /// [`adjacent`](Self::adjacent) over a folded label, or over every label
    /// when `el` is `None`.
    fn adjacent_off_csr(
        &self,
        v: VertexId,
        direction: Direction,
        el: Option<ELabel>,
        labels: &[VLabel],
    ) -> Vec<VertexId> {
        let mut all = match el {
            Some(folded) => self.folded(v, direction, folded),
            None => {
                let folded =
                    (self.folded_labels()).map(|l| l.map(|l| self.folded(v, direction, l)));
                let csr = self.graph.groups(v, direction, labels.first().copied());
                let lists: Vec<&[VertexId]> = (csr.map(|(_, ends)| ends))
                    .chain(folded.iter().flatten().map(Vec::as_slice))
                    .collect();
                ops::union_k(&lists)
            }
        };
        all.retain(|&w| self.graph.has_all_labels(w, labels));
        all
    }

    /// Whether the edge `from --el--> to` exists — with any label, the
    /// folded ones included, when `el` is `None` (`IsJoinable`'s probe).
    pub fn has_edge(&self, from: VertexId, to: VertexId, el: Option<ELabel>) -> bool {
        match self.csr_label(el) {
            Some(el) => self.graph.has_edge(from, to, el),
            None => (self.edge_labels_between(from, to).into_iter())
                .any(|l| el.is_none_or(|el| el == l)),
        }
    }

    /// The labels of the edges `from --?--> to`, the folded ones included:
    /// the `Me` edge-label mapping of Definition 2 for a variable predicate.
    pub fn edge_labels_between(&self, from: VertexId, to: VertexId) -> Vec<ELabel> {
        let mut labels: Vec<ELabel> = (self.graph.groups(from, Direction::Outgoing, None))
            .filter(|(_, ends)| ops::contains_sorted(ends, to))
            .map(|(el, _)| el)
            .collect();
        for el in self.folded_labels().into_iter().flatten() {
            if ops::contains_sorted(&self.folded(from, Direction::Outgoing, el), to) {
                labels.push(el);
            }
        }
        labels
    }

    /// Bytes of every array of the bundle, by part: the graph's `csr` and
    /// `labels`, the two indexes and the mappings.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 5] {
        let [(csr, adjacency), labels] = self.graph.memory();
        let schema = MemoryUse::from(&self.schema[0]) + (&self.schema[1]).into();
        [
            (csr, adjacency + schema),
            labels,
            ("inverse_labels", self.inverse_labels.memory()),
            ("predicate_index", self.predicates.memory()),
            ("mappings", self.mappings.memory()),
        ]
    }

    /// Serializes a type-aware bundle (graph, indexes, mappings, schema
    /// pairs) as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        self.graph.write_sections(w);
        self.inverse_labels.write_sections(w);
        self.predicates.write_sections(w);
        self.mappings.write_sections(w);
        w.section(TAG_SCHEMA_OUT, &self.schema[0]);
        w.section(TAG_SCHEMA_IN, &self.schema[1]);
    }

    /// Reconstructs a type-aware bundle reading everything in place from a
    /// snapshot.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let graph = LabeledGraph::read_sections(cur)?;
        let inverse_labels = InverseLabelIndex::read_sections(cur)?;
        let predicates = PredicateIndex::read_sections(cur, &graph)?;
        let mappings = GraphMappings::read_sections(cur)?;
        let schema = [
            cur.next_section(TAG_SCHEMA_OUT)?,
            cur.next_section(TAG_SCHEMA_IN)?,
        ];
        // The folded edges are read as vertices: both ends must be rows.
        let rows = graph.vertex_count() as u64;
        let outside = |&pair: &u64| pair >> 32 >= rows || u64::from(pair as u32) >= rows;
        if schema.iter().flat_map(|pairs| pairs.iter()).any(outside) {
            return Err(SnapshotError::Malformed(
                "schema edge endpoint is not a vertex".into(),
            ));
        }
        Ok(TransformedGraph {
            kind: TransformKind::TypeAware,
            graph,
            inverse_labels,
            predicates,
            mappings,
            schema,
        })
    }
}

/// Errors the transformations can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// A blank node appeared where the transformation cannot handle it.
    UnsupportedTerm(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
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
        assert!(TransformError::UnsupportedTerm("x".into())
            .to_string()
            .contains('x'));
    }
}
