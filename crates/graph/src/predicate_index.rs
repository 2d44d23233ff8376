//! The predicate index (paper Section 4.2, `ChooseStartQueryVertex`).
//!
//! "In order to handle such queries \[query vertices with no label or ID at
//! all\], we maintain an index called the predicate index where a key is a
//! predicate, and a value is a pair of a list of subject IDs and a list of
//! object IDs."
//!
//! The index is also what the hash-join baseline scans.
//!
//! Beside the lists the index keeps a **schema summary** that is derived
//! from them and the graph, never stored: RDF data is schema-regular, so a
//! predicate says a lot about its endpoints — every `advisor` subject is a
//! `Student`, every `teacherOf` object a `Course`. Per (predicate, side) the
//! summary holds the labels every endpoint carries and the predicates every
//! endpoint has; per vertex a 64-bit signature of the (predicate, side)
//! pairs it has an edge of. The matcher reads it once per plan (`+SUM`) to
//! drop label lookups the predicate already answers and to turn a candidate
//! down before its adjacency is touched.

use crate::ids::{Direction, ELabel, VLabel, VertexId};
use crate::labeled_graph::LabeledGraph;
use turbohom_storage::{FlatCsr, FlatVec, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (component 0x04).
const TAG_PRED_SUBJECT_OFFSETS: u64 = 0x0401;
const TAG_PRED_SUBJECTS: u64 = 0x0402;
const TAG_PRED_OBJECT_OFFSETS: u64 = 0x0403;
const TAG_PRED_OBJECTS: u64 = 0x0404;
const TAG_PRED_EDGE_COUNTS: u64 = 0x0405;

/// The signature bit of having an edge labeled `el` on `side` (`Outgoing`:
/// as its subject). Predicates 32 apart share a bit, so a set bit proves
/// nothing; a missing one proves the vertex has no such edge.
pub fn signature_bit(el: ELabel, side: Direction) -> u64 {
    1 << (side_row(el, side) % 64)
}

/// The row of (`el`, `side`) in the per-(predicate, side) arrays.
fn side_row(el: ELabel, side: Direction) -> usize {
    2 * el.index() + usize::from(side == Direction::Incoming)
}

/// What the lists and the graph say about every (predicate, side) and every
/// vertex; see the module docs.
#[derive(Debug, Clone, Default)]
struct SchemaSummary {
    /// Row [`side_row`]: the labels every endpoint on that side carries.
    implied_labels: FlatCsr<VLabel>,
    /// Entry [`side_row`]: the AND of the signatures of that side's endpoints.
    common_signatures: FlatVec<u64>,
    /// Per vertex: the OR of the [`signature_bit`]s of its edges.
    signatures: FlatVec<u64>,
}

impl SchemaSummary {
    /// Derives the summary from the endpoint lists and `graph`. Fails if a
    /// list names a vertex the graph does not have.
    fn derive(
        subjects: &FlatCsr<VertexId>,
        objects: &FlatCsr<VertexId>,
        graph: &LabeledGraph,
    ) -> Result<Self, SnapshotError> {
        // Every (predicate, its endpoints on one side), in `side_row` order.
        let rows: Vec<(ELabel, Direction, &[VertexId])> = (0..subjects.num_rows())
            .flat_map(|i| {
                let el = ELabel(i as u32);
                [
                    (el, Direction::Outgoing, subjects.row(i)),
                    (el, Direction::Incoming, objects.row(i)),
                ]
            })
            .collect();
        let mut signatures = vec![0u64; graph.vertex_count()];
        for &(el, side, endpoints) in &rows {
            for v in endpoints {
                *signatures.get_mut(v.index()).ok_or_else(|| {
                    SnapshotError::Malformed(format!(
                        "predicate index: predicate {el} lists {v}, which is not a vertex"
                    ))
                })? |= signature_bit(el, side);
            }
        }
        // The implied-label CSR, appended to row by row.
        let mut label_offsets = Vec::with_capacity(rows.len() + 1);
        let mut implied_labels = Vec::new();
        let mut common_signatures = Vec::with_capacity(rows.len());
        label_offsets.push(0u64);
        for &(_, _, endpoints) in &rows {
            // Nobody arrives over a predicate without edges: nothing is
            // claimed of it.
            let (mut labels, mut common) = match endpoints.first() {
                Some(&v) => (graph.labels(v).to_vec(), signatures[v.index()]),
                None => (Vec::new(), 0),
            };
            for &v in endpoints.iter().skip(1) {
                common &= signatures[v.index()];
                if !labels.is_empty() {
                    labels.retain(|&l| graph.has_label(v, l));
                }
            }
            implied_labels.extend_from_slice(&labels);
            label_offsets.push(implied_labels.len() as u64);
            common_signatures.push(common);
        }
        let implied_labels = FlatCsr::from_parts(label_offsets.into(), implied_labels.into())
            .expect("offsets were appended in order");
        Ok(SchemaSummary {
            implied_labels,
            common_signatures: common_signatures.into(),
            signatures: signatures.into(),
        })
    }
}

/// Edge label → (sorted distinct subjects, sorted distinct objects).
#[derive(Debug, Clone, Default)]
pub struct PredicateIndex {
    subjects: FlatCsr<VertexId>,
    objects: FlatCsr<VertexId>,
    /// Number of edges per predicate (with duplicates across subjects).
    edge_counts: FlatVec<u64>,
    summary: SchemaSummary,
}

impl PredicateIndex {
    /// Builds the index from a graph. A predicate's subjects are the
    /// vertices with an outgoing edge-label group of it, its objects those
    /// with an incoming one: each list is counted, then filled, in
    /// increasing vertex order, so it comes out sorted and distinct.
    pub fn build(graph: &LabeledGraph) -> Self {
        let k = graph.edge_label_count();
        let endpoints = |side: Direction| {
            FlatCsr::counted(k, |sink| {
                for v in graph.vertices() {
                    for el in graph.incident_edge_labels(v, side) {
                        sink(el.index(), v);
                    }
                }
            })
        };
        let (subjects, objects) = (
            endpoints(Direction::Outgoing),
            endpoints(Direction::Incoming),
        );
        let mut edge_counts = vec![0u64; k];
        for v in graph.vertices() {
            for el in graph.incident_edge_labels(v, Direction::Outgoing) {
                edge_counts[el.index()] += graph.neighbors(v, Direction::Outgoing, el).len() as u64;
            }
        }
        let summary = SchemaSummary::derive(&subjects, &objects, graph)
            .expect("the endpoints were read off the graph");
        PredicateIndex {
            subjects,
            objects,
            edge_counts: edge_counts.into(),
            summary,
        }
    }

    /// Sorted distinct subjects of edges labeled `el`.
    pub fn subjects(&self, el: ELabel) -> &[VertexId] {
        self.subjects.row(el.index())
    }

    /// Sorted distinct objects of edges labeled `el`.
    pub fn objects(&self, el: ELabel) -> &[VertexId] {
        self.objects.row(el.index())
    }

    /// Vertices that appear on the `direction` side of edges labeled `el`
    /// (subjects for `Outgoing`, objects for `Incoming`).
    pub fn endpoints(&self, el: ELabel, direction: Direction) -> &[VertexId] {
        match direction {
            Direction::Outgoing => self.subjects(el),
            Direction::Incoming => self.objects(el),
        }
    }

    /// Number of edges carrying label `el`.
    pub fn edge_count(&self, el: ELabel) -> usize {
        self.edge_counts.get(el.index()).map_or(0, |&c| c as usize)
    }

    /// Number of predicates indexed.
    pub fn predicate_count(&self) -> usize {
        self.subjects.num_rows()
    }

    /// The labels every vertex on `side` of an edge labeled `el` carries:
    /// reaching a vertex over such an edge already proves them.
    pub fn implied_labels(&self, el: ELabel, side: Direction) -> &[VLabel] {
        self.summary.implied_labels.row(side_row(el, side))
    }

    /// The signature bits every vertex on `side` of an edge labeled `el`
    /// has, that edge's own bit included.
    pub fn common_signature(&self, el: ELabel, side: Direction) -> u64 {
        let common = self.summary.common_signatures.get(side_row(el, side));
        common.copied().unwrap_or(0)
    }

    /// The OR of the [`signature_bit`]s of `v`'s edges (0 for a vertex the
    /// graph does not have).
    #[inline]
    pub fn signature(&self, v: VertexId) -> u64 {
        self.summary.signatures.get(v.index()).copied().unwrap_or(0)
    }

    /// Bytes of the index's arrays, the derived summary included.
    pub fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.subjects)
            + (&self.objects).into()
            + (&self.edge_counts).into()
            + (&self.summary.implied_labels).into()
            + (&self.summary.common_signatures).into()
            + (&self.summary.signatures).into()
    }

    /// Serializes the index as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_PRED_SUBJECT_OFFSETS, self.subjects.offsets());
        w.section(TAG_PRED_SUBJECTS, self.subjects.data());
        w.section(TAG_PRED_OBJECT_OFFSETS, self.objects.offsets());
        w.section(TAG_PRED_OBJECTS, self.objects.data());
        w.section(TAG_PRED_EDGE_COUNTS, &self.edge_counts);
    }

    /// Reconstructs the index reading its arrays in place from a snapshot
    /// and derives the summary, which no snapshot holds, from them and
    /// `graph` — the graph the same snapshot holds.
    pub fn read_sections(
        cur: &mut SectionCursor<'_>,
        graph: &LabeledGraph,
    ) -> Result<Self, SnapshotError> {
        let subjects = FlatCsr::from_parts(
            cur.next_section(TAG_PRED_SUBJECT_OFFSETS)?,
            cur.next_section(TAG_PRED_SUBJECTS)?,
        )?;
        let objects = FlatCsr::from_parts(
            cur.next_section(TAG_PRED_OBJECT_OFFSETS)?,
            cur.next_section(TAG_PRED_OBJECTS)?,
        )?;
        let edge_counts: FlatVec<u64> = cur.next_section(TAG_PRED_EDGE_COUNTS)?;
        if subjects.num_rows() != objects.num_rows() || edge_counts.len() != subjects.num_rows() {
            return Err(SnapshotError::Malformed(
                "predicate index row counts disagree".into(),
            ));
        }
        let summary = SchemaSummary::derive(&subjects, &objects, graph)?;
        Ok(PredicateIndex {
            subjects,
            objects,
            edge_counts,
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LabeledGraphBuilder;
    use crate::ids::VLabel;

    fn sample() -> (LabeledGraph, PredicateIndex) {
        let mut b = LabeledGraphBuilder::new();
        let v0 = b.add_vertex(vec![VLabel(0)]);
        let v1 = b.add_vertex(vec![VLabel(1)]);
        let v2 = b.add_vertex(vec![VLabel(1)]);
        let v3 = b.add_vertex(vec![]);
        // p0: v0→v1, v0→v2, v2→v1 ; p1: v3→v0
        b.add_edge(v0, v1, ELabel(0));
        b.add_edge(v0, v2, ELabel(0));
        b.add_edge(v2, v1, ELabel(0));
        b.add_edge(v3, v0, ELabel(1));
        let g = b.build();
        let idx = PredicateIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn subjects_and_objects_are_distinct_sorted() {
        let (_, idx) = sample();
        assert_eq!(idx.subjects(ELabel(0)), &[VertexId(0), VertexId(2)]);
        assert_eq!(idx.objects(ELabel(0)), &[VertexId(1), VertexId(2)]);
        assert_eq!(idx.subjects(ELabel(1)), &[VertexId(3)]);
        assert_eq!(idx.objects(ELabel(1)), &[VertexId(0)]);
    }

    #[test]
    fn edge_counts_include_duplicate_subjects() {
        let (_, idx) = sample();
        assert_eq!(idx.edge_count(ELabel(0)), 3);
        assert_eq!(idx.edge_count(ELabel(1)), 1);
        assert_eq!(idx.edge_count(ELabel(7)), 0);
    }

    #[test]
    fn endpoints_respects_direction() {
        let (_, idx) = sample();
        assert_eq!(
            idx.endpoints(ELabel(0), Direction::Outgoing),
            idx.subjects(ELabel(0))
        );
        assert_eq!(
            idx.endpoints(ELabel(0), Direction::Incoming),
            idx.objects(ELabel(0))
        );
    }

    #[test]
    fn summary_says_what_a_predicate_implies_of_its_endpoints() {
        let (_, idx) = sample();
        let (out, inc) = (Direction::Outgoing, Direction::Incoming);
        // p0's objects v1, v2 both carry L1; its subjects v0{L0}, v2{L1}
        // share no label. p1's only subject v3 has no label at all.
        assert_eq!(idx.implied_labels(ELabel(0), inc), &[VLabel(1)]);
        assert!(idx.implied_labels(ELabel(0), out).is_empty());
        assert_eq!(idx.implied_labels(ELabel(1), inc), &[VLabel(0)]);
        assert!(idx.implied_labels(ELabel(1), out).is_empty());
        let bit = signature_bit;
        assert_eq!(
            idx.signature(VertexId(0)),
            bit(ELabel(0), out) | bit(ELabel(1), inc)
        );
        assert_eq!(
            idx.signature(VertexId(2)),
            bit(ELabel(0), out) | bit(ELabel(0), inc)
        );
        // Every p0 subject has its p0-out bit and nothing else in common;
        // the one p1 object is v0, so all of v0's bits are common.
        assert_eq!(idx.common_signature(ELabel(0), out), bit(ELabel(0), out));
        assert_eq!(
            idx.common_signature(ELabel(1), inc),
            idx.signature(VertexId(0))
        );
        // Nothing is claimed of what the index does not know.
        assert!(idx.implied_labels(ELabel(9), out).is_empty());
        assert_eq!(idx.common_signature(ELabel(u32::MAX), inc), 0);
        assert_eq!(idx.signature(VertexId(u32::MAX)), 0);
    }

    #[test]
    fn signature_bits_fold_every_32_predicates() {
        let (out, inc) = (Direction::Outgoing, Direction::Incoming);
        assert_eq!(signature_bit(ELabel(0), out), 1);
        assert_eq!(signature_bit(ELabel(0), inc), 2);
        assert_eq!(signature_bit(ELabel(31), inc), 1 << 63);
        assert_eq!(signature_bit(ELabel(32), out), 1);
        assert_eq!(signature_bit(ELabel(u32::MAX), inc), 1 << 63);
    }

    #[test]
    fn summary_is_counted_and_derived_again_from_a_snapshot() {
        let (g, idx) = sample();
        let lists =
            MemoryUse::from(&idx.subjects) + (&idx.objects).into() + (&idx.edge_counts).into();
        // 8 B per vertex, 8 B per (predicate, side), the implied-label CSR.
        let summary = 8 * 4 + 8 * 4 + (8 * 5 + 4 * 2);
        assert_eq!(idx.memory().heap, lists.heap + summary);

        let mut w = SnapshotWriter::new();
        idx.write_sections(&mut w);
        let path = std::env::temp_dir().join(format!("turbohom-pidx-{}.snap", std::process::id()));
        w.write_to(&path).unwrap();
        let snap = turbohom_storage::Snapshot::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let loaded = PredicateIndex::read_sections(&mut snap.cursor(), &g).unwrap();
        for v in g.vertices() {
            assert_eq!(loaded.signature(v), idx.signature(v));
        }
        assert_eq!(
            loaded.implied_labels(ELabel(0), Direction::Incoming),
            &[VLabel(1)]
        );

        // The same lists over a graph without v3 (p1's subject): refused,
        // naming the predicate, before anything indexes by the endpoint.
        let mut b = LabeledGraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(vec![]);
        }
        let err = PredicateIndex::read_sections(&mut snap.cursor(), &b.build()).unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Malformed(m) if m.contains("predicate e1") && m.contains("v3")),
            "{err}"
        );
    }

    #[test]
    fn unknown_predicate_is_empty() {
        let (_, idx) = sample();
        assert!(idx.subjects(ELabel(9)).is_empty());
        assert!(idx.objects(ELabel(9)).is_empty());
        assert_eq!(idx.predicate_count(), 2);
    }
}
