//! The predicate index (paper Section 4.2, `ChooseStartQueryVertex`).
//!
//! "In order to handle such queries \[query vertices with no label or ID at
//! all\], we maintain an index called the predicate index where a key is a
//! predicate, and a value is a pair of a list of subject IDs and a list of
//! object IDs."
//!
//! The index is also what the hash-join baseline scans.

use crate::ids::{Direction, ELabel, VertexId};
use crate::labeled_graph::LabeledGraph;
use crate::ops;
use turbohom_storage::{FlatCsr, FlatVec, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (component 0x04).
const TAG_PRED_SUBJECT_OFFSETS: u64 = 0x0401;
const TAG_PRED_SUBJECTS: u64 = 0x0402;
const TAG_PRED_OBJECT_OFFSETS: u64 = 0x0403;
const TAG_PRED_OBJECTS: u64 = 0x0404;
const TAG_PRED_EDGE_COUNTS: u64 = 0x0405;

/// Edge label → (sorted distinct subjects, sorted distinct objects).
#[derive(Debug, Clone, Default)]
pub struct PredicateIndex {
    subjects: FlatCsr<VertexId>,
    objects: FlatCsr<VertexId>,
    /// Number of edges per predicate (with duplicates across subjects).
    edge_counts: FlatVec<u64>,
}

impl PredicateIndex {
    /// Builds the index from a graph.
    pub fn build(graph: &LabeledGraph) -> Self {
        let k = graph.edge_label_count();
        let mut subjects: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut objects: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut edge_counts = vec![0u64; k];
        for v in graph.vertices() {
            for el in graph.incident_edge_labels(v, Direction::Outgoing) {
                let ns = graph.neighbors(v, Direction::Outgoing, el);
                if !ns.is_empty() {
                    subjects[el.index()].push(v);
                    edge_counts[el.index()] += ns.len() as u64;
                    objects[el.index()].extend_from_slice(ns);
                }
            }
        }
        for list in objects.iter_mut() {
            ops::canonicalize(list);
        }
        debug_assert!(subjects.iter().all(|l| ops::is_sorted_set(l)));
        PredicateIndex {
            subjects: FlatCsr::from_rows(&subjects),
            objects: FlatCsr::from_rows(&objects),
            edge_counts: edge_counts.into(),
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

    /// Bytes of the index's arrays.
    pub fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.subjects) + (&self.objects).into() + (&self.edge_counts).into()
    }

    /// Serializes the index as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_PRED_SUBJECT_OFFSETS, self.subjects.offsets());
        w.section(TAG_PRED_SUBJECTS, self.subjects.data());
        w.section(TAG_PRED_OBJECT_OFFSETS, self.objects.offsets());
        w.section(TAG_PRED_OBJECTS, self.objects.data());
        w.section(TAG_PRED_EDGE_COUNTS, &self.edge_counts);
    }

    /// Reconstructs the index reading its arrays in place from a snapshot.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
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
        Ok(PredicateIndex {
            subjects,
            objects,
            edge_counts,
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
    fn unknown_predicate_is_empty() {
        let (_, idx) = sample();
        assert!(idx.subjects(ELabel(9)).is_empty());
        assert!(idx.objects(ELabel(9)).is_empty());
        assert_eq!(idx.predicate_count(), 2);
    }
}
