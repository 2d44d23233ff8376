//! Shared types of the data-graph transformations.

use std::borrow::Cow;
use std::fmt;
use turbohom_graph::{ops, Direction, ELabel, InverseLabelIndex, LabeledGraph, PredicateIndex};
use turbohom_graph::{VLabel, VertexId};
use turbohom_rdf::{TermId, Triple};
use turbohom_storage::{FlatVec, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (components 0x06 mappings, 0x07 transformed graph).
/// `0x0601`/`0x0602` are retired: a data vertex's id is its term id; so are
/// the term-to-label arrays (`0x0603`/`0x0605`), derived from the label-to-term
/// ones at load; and so is the kind (`0x0701`): a snapshot holds the
/// type-aware graph alone.
const TAG_MAP_VLABEL_TO_TERM: u64 = 0x0604;
const TAG_MAP_ELABEL_TO_TERM: u64 = 0x0606;
const TAG_SCHEMA_OUT: u64 = 0x0704;
const TAG_SCHEMA_IN: u64 = 0x0705;

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
/// The label → term directions are dense flat arrays, which a snapshot
/// stores and reads back in place. The term → label directions are sorted
/// `term << 32 | label` entries, one per label, derived from them: a class
/// or predicate term's id can be anywhere in the dictionary's key order, so
/// an array indexed by term id would run to the largest one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphMappings {
    /// RDF class term → vertex label (empty for the direct transformation).
    term_to_vlabel: Vec<u64>,
    /// Vertex label → RDF class term (dense).
    pub vlabel_to_term: FlatVec<TermId>,
    /// RDF predicate term → edge label.
    term_to_elabel: Vec<u64>,
    /// Edge label → RDF predicate term (dense).
    pub elabel_to_term: FlatVec<TermId>,
}

/// The label of `term` in the sorted entries `forward`.
fn forward_get(forward: &[u64], term: TermId) -> Option<u32> {
    let at = forward.partition_point(|&entry| entry >> 32 < u64::from(term.0));
    let entry = forward
        .get(at)
        .filter(|&&entry| entry >> 32 == u64::from(term.0));
    entry.map(|&entry| entry as u32)
}

/// The sorted entries of the labels `reverse` names, or the first label whose
/// term an earlier label already names.
fn forward_of(reverse: &[TermId]) -> Result<Vec<u64>, usize> {
    let entry = |(label, term): (usize, &TermId)| u64::from(term.0) << 32 | label as u64;
    let mut forward: Vec<u64> = reverse.iter().enumerate().map(entry).collect();
    forward.sort_unstable();
    match forward
        .windows(2)
        .find(|pair| pair[0] >> 32 == pair[1] >> 32)
    {
        Some(pair) => Err(pair[1] as u32 as usize),
        None => Ok(forward),
    }
}

/// The label of `term`, given the next one if it has none: entered in the
/// sorted `forward` and appended to `reverse`.
fn intern(forward: &mut Vec<u64>, reverse: &mut FlatVec<TermId>, term: TermId) -> u32 {
    if let Some(label) = forward_get(forward, term) {
        return label;
    }
    let label = reverse.len() as u32;
    let entry = u64::from(term.0) << 32 | u64::from(label);
    forward.insert(forward.partition_point(|&e| e < entry), entry);
    reverse.to_mut().push(term);
    label
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
        VLabel(intern(
            &mut self.term_to_vlabel,
            &mut self.vlabel_to_term,
            term,
        ))
    }

    /// Interns a predicate term as an edge label.
    pub(crate) fn intern_elabel(&mut self, term: TermId) -> ELabel {
        ELabel(intern(
            &mut self.term_to_elabel,
            &mut self.elabel_to_term,
            term,
        ))
    }

    /// Bytes of the label → term arrays and the term → label entries.
    pub fn memory(&self) -> MemoryUse {
        let forward = std::mem::size_of_val(&self.term_to_vlabel[..])
            + std::mem::size_of_val(&self.term_to_elabel[..]);
        MemoryUse::from(&self.vlabel_to_term)
            + (&self.elabel_to_term).into()
            + MemoryUse {
                heap: forward as u64,
                mapped: 0,
            }
    }

    /// Serializes the label → term arrays as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_MAP_VLABEL_TO_TERM, &self.vlabel_to_term);
        w.section(TAG_MAP_ELABEL_TO_TERM, &self.elabel_to_term);
    }

    /// Reconstructs the mappings from a snapshot, deriving the term → label
    /// directions; a term that two labels name is refused, since a lookup
    /// would find only one of them.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let vlabel_to_term: FlatVec<TermId> = cur.next_section(TAG_MAP_VLABEL_TO_TERM)?;
        let elabel_to_term: FlatVec<TermId> = cur.next_section(TAG_MAP_ELABEL_TO_TERM)?;
        let forward = |reverse: &[TermId], what: &str| {
            forward_of(reverse).map_err(|label| {
                let what = format!("{what} {label} names a term an earlier one names");
                SnapshotError::Malformed(what)
            })
        };
        Ok(GraphMappings {
            term_to_vlabel: forward(&vlabel_to_term, "vertex label")?,
            term_to_elabel: forward(&elabel_to_term, "edge label")?,
            vlabel_to_term,
            elabel_to_term,
        })
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

    /// Every triple the graph holds, each once: the CSR's out-edges (their
    /// predicates through the mappings), then each label row as `rdf:type`
    /// triples, then the subclass pairs as `rdfs:subClassOf` triples. The
    /// type-aware transformation drops no triple, so this is the loaded
    /// triple set; the direct graph yields its edges alone.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        let g = &self.graph;
        let predicate = |el: ELabel| self.mappings.elabel_to_term[el.index()];
        let [subclass, rdf_type] = self.folded_labels().map(|l| l.map(predicate));
        let edges = g.vertices().flat_map(move |v| {
            g.groups(v, Direction::Outgoing, None)
                .flat_map(move |(el, ends)| {
                    let p = predicate(el);
                    ends.iter().map(move |w| Triple::new(v.term(), p, w.term()))
                })
        });
        let types = rdf_type.into_iter().flat_map(move |p| {
            g.vertices().flat_map(move |v| {
                let classes = g.labels(v).iter();
                classes
                    .map(move |l| Triple::new(v.term(), p, self.mappings.vlabel_to_term[l.index()]))
            })
        });
        let subclasses = subclass.into_iter().flat_map(move |p| {
            let pairs = self.schema[0].iter();
            pairs.map(move |&pair| Triple::new(TermId((pair >> 32) as u32), p, TermId(pair as u32)))
        });
        edges.chain(types).chain(subclasses)
    }

    /// How many triples [`triples`](Self::triples) yields, from the array
    /// lengths: the CSR's edges, the label entries and the subclass pairs.
    pub fn triple_count(&self) -> usize {
        self.graph.edge_count() + self.graph.label_entry_count() + self.schema[0].len()
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
        // Every label resolves to a term, and the two folded edge labels
        // follow the CSR's exactly when their triples exist: the subclass
        // pairs and the label rows are then read back as triples.
        let folded =
            usize::from(!schema[0].is_empty()) + usize::from(graph.label_entry_count() > 0);
        if graph.vertex_label_count() > mappings.vlabel_to_term.len()
            || graph.edge_label_count() + folded != mappings.elabel_to_term.len()
        {
            return Err(SnapshotError::Malformed(
                "the label mappings do not cover the graph's labels".into(),
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
    /// An OPTIONAL clause meets two connected components of its branch,
    /// whose cartesian product cannot join on it.
    SpansComponents,
    /// The named variable is a predicate and also a subject or an object.
    PredicateIsVertex(String),
    /// The named predicate variable labels more than one edge, and one of
    /// them is inside an OPTIONAL clause.
    OptionalPredicateRepeats(String),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::UnsupportedTerm(t) => write!(f, "unsupported term in query: {t}"),
            TransformError::SpansComponents => write!(
                f,
                "an OPTIONAL clause is in two connected components of its branch, whose cartesian product cannot join on it"
            ),
            TransformError::PredicateIsVertex(v) => write!(
                f,
                "variable ?{v} is a predicate and a subject or object: unsupported"
            ),
            TransformError::OptionalPredicateRepeats(v) => write!(
                f,
                "predicate variable ?{v} recurs inside an OPTIONAL clause: unsupported"
            ),
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
    fn a_term_two_labels_name_is_refused_and_the_rest_read_back() {
        use turbohom_storage::{Snapshot, SnapshotWriter};
        let read = |vlabels: &[TermId], name: &str| {
            let mut w = SnapshotWriter::new();
            w.section(TAG_MAP_VLABEL_TO_TERM, vlabels);
            w.section::<TermId>(TAG_MAP_ELABEL_TO_TERM, &[TermId(9), TermId(4)]);
            let path = std::env::temp_dir().join(format!(
                "turbohom-mappings-{}-{name}.snap",
                std::process::id()
            ));
            w.write_to(&path).unwrap();
            let read = GraphMappings::read_sections(&mut Snapshot::open(&path).unwrap().cursor());
            std::fs::remove_file(&path).unwrap();
            read
        };
        // Labels in neither term nor label order, the largest term first.
        let m = read(&[TermId(300_000), TermId(3), TermId(40)], "good").unwrap();
        let vlabels = [300_000, 3, 40, 4].map(|t| m.vlabel_of(TermId(t)));
        assert_eq!(
            vlabels,
            [Some(VLabel(0)), Some(VLabel(1)), Some(VLabel(2)), None]
        );
        assert_eq!(m.elabel_of(TermId(4)), Some(ELabel(1)));
        // Entries of 8 bytes each on the heap, the 4-byte label → term
        // arrays mapped.
        let memory = m.memory();
        assert_eq!((memory.heap, memory.mapped), (5 * 8, 5 * 4));
        let err = read(&[TermId(5), TermId(3), TermId(5)], "twice").unwrap_err();
        assert_eq!(
            err,
            SnapshotError::Malformed("vertex label 2 names a term an earlier one names".into())
        );
    }

    #[test]
    fn transformed_graph_snapshot_round_trip() {
        use turbohom_graph::{LabeledGraphBuilder, VertexId};
        use turbohom_storage::{Snapshot, SnapshotWriter};

        let mut mappings = GraphMappings::default();
        let [v0, v1, v2] = [0, 1, 2].map(|t| VertexId::of_term(TermId(t)));
        let el = mappings.intern_elabel(TermId(20));
        // The label rows' predicate, `rdf:type`: the folded label past the
        // CSR's.
        mappings.intern_elabel(TermId(21));
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
        let spans = TransformError::SpansComponents.to_string();
        assert!(spans.starts_with("an OPTIONAL clause is in two"));
        let vertex = TransformError::PredicateIsVertex("p".into()).to_string();
        assert!(vertex.starts_with("variable ?p is a predicate and a subject"));
        let optional = TransformError::OptionalPredicateRepeats("p".into()).to_string();
        assert!(optional.starts_with("predicate variable ?p recurs inside an OPTIONAL"));
    }
}
