//! The inverse vertex label list (paper Figure 9a).
//!
//! Maps a vertex label to the sorted list of data vertices carrying it. The
//! matcher uses it to compute `freq(g, L(u))` when ranking starting query
//! vertices and to enumerate the starting data vertices of candidate regions;
//! with a multi-label query vertex the per-label lists are intersected
//! (Section 4.2, `ChooseStartQueryVertex`).

use crate::ids::{VLabel, VertexId};
use crate::labeled_graph::LabeledGraph;
use crate::ops;
use turbohom_storage::{FlatCsr, MemoryUse, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (component 0x05).
const TAG_INV_OFFSETS: u64 = 0x0501;
const TAG_INV_VERTICES: u64 = 0x0502;

/// Vertex label → sorted vertex list index.
#[derive(Debug, Clone, Default)]
pub struct InverseLabelIndex {
    lists: FlatCsr<VertexId>,
}

impl InverseLabelIndex {
    /// Builds the index from a graph: counts each label's vertices, then
    /// fills the lists. Vertices are visited in increasing id order, so the
    /// lists come out sorted.
    pub fn build(graph: &LabeledGraph) -> Self {
        let lists = FlatCsr::counted(graph.vertex_label_count(), |sink| {
            for v in graph.vertices() {
                for &l in graph.labels(v) {
                    sink(l.index(), v);
                }
            }
        });
        InverseLabelIndex { lists }
    }

    /// The sorted vertices carrying `label` (empty slice if the label is
    /// out of range or unused).
    pub fn vertices_with_label(&self, label: VLabel) -> &[VertexId] {
        self.lists.row(label.index())
    }

    /// `freq(g, {label})` — the number of vertices carrying `label`.
    pub fn frequency(&self, label: VLabel) -> usize {
        self.vertices_with_label(label).len()
    }

    /// The vertices carrying **all** labels in `labels` (intersection of the
    /// per-label lists). With an empty label set this returns `None`,
    /// because "no label constraint" means *all* vertices, which callers
    /// handle through the predicate index instead.
    pub fn vertices_with_all_labels(&self, labels: &[VLabel]) -> Option<Vec<VertexId>> {
        match labels.len() {
            0 => None,
            1 => Some(self.vertices_with_label(labels[0]).to_vec()),
            _ => {
                let slices: Vec<&[VertexId]> = labels
                    .iter()
                    .map(|&l| self.vertices_with_label(l))
                    .collect();
                Some(ops::intersect_k(&slices))
            }
        }
    }

    /// `freq(g, L)` for a label set (size of the intersection). Returns
    /// `None` for an empty label set (unconstrained). A single label is a
    /// list length; only a multi-label set builds its intersection.
    pub fn frequency_of_set(&self, labels: &[VLabel]) -> Option<usize> {
        match labels {
            [] => None,
            [label] => Some(self.frequency(*label)),
            _ => self.vertices_with_all_labels(labels).map(|v| v.len()),
        }
    }

    /// Number of distinct labels indexed.
    pub fn label_count(&self) -> usize {
        self.lists.num_rows()
    }

    /// Bytes of the index's arrays.
    pub fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.lists)
    }

    /// Serializes the index as snapshot sections.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_INV_OFFSETS, self.lists.offsets());
        w.section(TAG_INV_VERTICES, self.lists.data());
    }

    /// Reconstructs the index reading its arrays in place from a snapshot.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let lists = FlatCsr::from_parts(
            cur.next_section(TAG_INV_OFFSETS)?,
            cur.next_section(TAG_INV_VERTICES)?,
        )?;
        Ok(InverseLabelIndex { lists })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LabeledGraphBuilder;

    fn sample() -> (LabeledGraph, InverseLabelIndex) {
        let mut b = LabeledGraphBuilder::new();
        // v0 {A}, v1 {A,B}, v2 {B}, v3 {}, v4 {A,B,C}
        b.add_vertex(vec![VLabel(0)]);
        b.add_vertex(vec![VLabel(0), VLabel(1)]);
        b.add_vertex(vec![VLabel(1)]);
        b.add_vertex(vec![]);
        b.add_vertex(vec![VLabel(0), VLabel(1), VLabel(2)]);
        let g = b.build();
        let idx = InverseLabelIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn per_label_lists_are_sorted_and_complete() {
        let (_, idx) = sample();
        assert_eq!(
            idx.vertices_with_label(VLabel(0)),
            &[VertexId(0), VertexId(1), VertexId(4)]
        );
        assert_eq!(
            idx.vertices_with_label(VLabel(1)),
            &[VertexId(1), VertexId(2), VertexId(4)]
        );
        assert_eq!(idx.vertices_with_label(VLabel(2)), &[VertexId(4)]);
        assert_eq!(idx.frequency(VLabel(0)), 3);
        assert_eq!(idx.label_count(), 3);
    }

    #[test]
    fn out_of_range_label_is_empty() {
        let (_, idx) = sample();
        assert!(idx.vertices_with_label(VLabel(99)).is_empty());
        assert_eq!(idx.frequency(VLabel(99)), 0);
    }

    #[test]
    fn multi_label_intersection() {
        let (_, idx) = sample();
        assert_eq!(
            idx.vertices_with_all_labels(&[VLabel(0), VLabel(1)]),
            Some(vec![VertexId(1), VertexId(4)])
        );
        assert_eq!(
            idx.vertices_with_all_labels(&[VLabel(0), VLabel(1), VLabel(2)]),
            Some(vec![VertexId(4)])
        );
        assert_eq!(idx.frequency_of_set(&[VLabel(0), VLabel(1)]), Some(2));
    }

    #[test]
    fn empty_label_set_is_unconstrained() {
        let (_, idx) = sample();
        assert_eq!(idx.vertices_with_all_labels(&[]), None);
        assert_eq!(idx.frequency_of_set(&[]), None);
    }
}
