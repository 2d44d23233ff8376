//! Mutable builder that freezes into the CSR [`LabeledGraph`].
//!
//! The builder accepts vertices (with label sets) and labeled edges in any
//! order and on [`build`](LabeledGraphBuilder::build) lays out the grouped
//! adjacency described in paper Section 4.2 for both directions, dropping
//! exact duplicate edges where the per-row sort leaves them adjacent.

use crate::ids::{ELabel, VLabel, VertexId};
use crate::labeled_graph::{AdjacencyDirection, ELabelGroup, LabeledGraph, TypeGroup};

/// Builder for [`LabeledGraph`].
#[derive(Debug, Default, Clone)]
pub struct LabeledGraphBuilder {
    vertex_labels: Vec<Vec<VLabel>>,
    edges: Vec<(VertexId, VertexId, ELabel)>,
    max_vlabel: Option<u32>,
    max_elabel: Option<u32>,
}

impl LabeledGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with capacity hints.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        LabeledGraphBuilder {
            vertex_labels: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            max_vlabel: None,
            max_elabel: None,
        }
    }

    /// Adds a vertex with the given label set and returns its id.
    pub fn add_vertex(&mut self, mut labels: Vec<VLabel>) -> VertexId {
        labels.sort_unstable();
        labels.dedup();
        for l in &labels {
            self.max_vlabel = Some(self.max_vlabel.map_or(l.0, |m| m.max(l.0)));
        }
        let id = VertexId(self.vertex_labels.len() as u32);
        self.vertex_labels.push(labels);
        id
    }

    /// Adds a directed labeled edge. Exact duplicates are ignored.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added to this builder.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, label: ELabel) {
        assert!(
            from.index() < self.vertex_labels.len(),
            "edge source {from} not added"
        );
        assert!(
            to.index() < self.vertex_labels.len(),
            "edge target {to} not added"
        );
        self.max_elabel = Some(self.max_elabel.map_or(label.0, |m| m.max(label.0)));
        self.edges.push((from, to, label));
    }

    /// Freezes the builder into an immutable [`LabeledGraph`].
    pub fn build(self) -> LabeledGraph {
        let n = self.vertex_labels.len();
        let num_vlabels = self.max_vlabel.map_or(0, |m| m as usize + 1);
        let num_elabels = self.max_elabel.map_or(0, |m| m as usize + 1);

        // Vertex label CSR.
        let mut label_offsets = Vec::with_capacity(n + 1);
        let mut labels = Vec::new();
        label_offsets.push(0u32);
        for ls in &self.vertex_labels {
            labels.extend_from_slice(ls);
            label_offsets.push(labels.len() as u32);
        }

        let outgoing = build_direction(n, &self.vertex_labels, &self.edges, false);
        let incoming = build_direction(n, &self.vertex_labels, &self.edges, true);

        LabeledGraph {
            num_vertices: n,
            num_edges: outgoing.targets.len(),
            num_vlabels,
            num_elabels,
            label_offsets: label_offsets.into(),
            labels: labels.into(),
            outgoing,
            incoming,
        }
    }
}

/// Builds one adjacency direction with a counting-sort layout: one counting
/// pass, one prefix-sum placement pass into a single flat edge buffer, then a
/// per-row sort and dedup. Compared to per-vertex `Vec` buckets this does O(1)
/// allocations for the edge rows and keeps each row contiguous in memory.
/// With `swapped == true` the edges are interpreted target→source (the
/// incoming direction).
fn build_direction(
    n: usize,
    vertex_labels: &[Vec<VLabel>],
    edges: &[(VertexId, VertexId, ELabel)],
    swapped: bool,
) -> AdjacencyDirection {
    // Counting pass: the per-source edge counts become the degree array
    // once each row has dropped its duplicates.
    let mut degrees = vec![0u32; n];
    for &(f, t, _) in edges {
        let src = if swapped { t } else { f };
        degrees[src.index()] += 1;
    }

    // Prefix sums give every vertex a contiguous row in one flat buffer.
    let mut row_starts = Vec::with_capacity(n + 1);
    let mut total = 0usize;
    row_starts.push(0usize);
    for &d in &degrees {
        total += d as usize;
        row_starts.push(total);
    }

    // Placement pass.
    let mut rows: Vec<(ELabel, VertexId)> = vec![(ELabel(0), VertexId(0)); total];
    let mut cursors = row_starts.clone();
    for &(f, t, l) in edges {
        let (src, dst) = if swapped { (t, f) } else { (f, t) };
        let c = &mut cursors[src.index()];
        rows[*c] = (l, dst);
        *c += 1;
    }

    let mut vertex_offsets = Vec::with_capacity(n + 1);
    let mut elabel_groups: Vec<ELabelGroup> = Vec::new();
    let mut type_groups: Vec<TypeGroup> = Vec::new();
    let mut targets: Vec<VertexId> = Vec::with_capacity(total);
    let mut typed_targets: Vec<VertexId> = Vec::new();
    // Scratch reused across rows. The key maps `None` to 0 and `Some(l)` to
    // `l + 1`, preserving the `Option<VLabel>` ordering (`None < Some`) that
    // the typed-group binary searches rely on.
    let mut typed_scratch: Vec<(u32, VertexId)> = Vec::new();

    vertex_offsets.push(0u32);
    for v in 0..n {
        let row = &mut rows[row_starts[v]..row_starts[v + 1]];
        // Sort by (edge label, target) so each edge-label group is contiguous
        // and its target list is sorted; exact duplicates are then adjacent
        // and dropped, so every run of equal edge labels is a strict sorted
        // set.
        row.sort_unstable();
        let mut distinct = 0usize;
        for i in 0..row.len() {
            if i == 0 || row[i] != row[distinct - 1] {
                row[distinct] = row[i];
                distinct += 1;
            }
        }
        let row = &row[..distinct];
        degrees[v] = distinct as u32;
        let mut i = 0usize;
        while i < row.len() {
            let el = row[i].0;
            let mut j = i;
            while j < row.len() && row[j].0 == el {
                j += 1;
            }
            let target_start = targets.len() as u32;
            targets.extend(row[i..j].iter().map(|&(_, t)| t));
            let target_end = targets.len() as u32;

            // Type groups: neighbor label → sorted targets. A neighbor with
            // multiple labels lands in several groups; an unlabeled neighbor
            // lands in the `None` group.
            typed_scratch.clear();
            for &(_, t) in &row[i..j] {
                let nls = &vertex_labels[t.index()];
                if nls.is_empty() {
                    typed_scratch.push((0, t));
                } else {
                    for &nl in nls {
                        typed_scratch.push((nl.0 + 1, t));
                    }
                }
            }
            typed_scratch.sort_unstable();
            let type_start = type_groups.len() as u32;
            let mut k = 0usize;
            while k < typed_scratch.len() {
                let key = typed_scratch[k].0;
                let start = typed_targets.len() as u32;
                while k < typed_scratch.len() && typed_scratch[k].0 == key {
                    typed_targets.push(typed_scratch[k].1);
                    k += 1;
                }
                type_groups.push(TypeGroup {
                    vlabel_key: key,
                    start,
                    end: typed_targets.len() as u32,
                });
            }
            let type_end = type_groups.len() as u32;

            elabel_groups.push(ELabelGroup {
                elabel: el,
                target_start,
                target_end,
                type_start,
                type_end,
            });
            i = j;
        }
        vertex_offsets.push(elabel_groups.len() as u32);
    }

    AdjacencyDirection {
        vertex_offsets: vertex_offsets.into(),
        elabel_groups: elabel_groups.into(),
        type_groups: type_groups.into(),
        targets: targets.into(),
        typed_targets: typed_targets.into(),
        degrees: degrees.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;

    #[test]
    fn empty_graph_builds() {
        let g = LabeledGraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertex_label_count(), 0);
        assert_eq!(g.edge_label_count(), 0);
    }

    #[test]
    fn vertex_label_sets_are_sorted_and_deduped() {
        let mut b = LabeledGraphBuilder::new();
        let v = b.add_vertex(vec![VLabel(3), VLabel(1), VLabel(3)]);
        let g = b.build();
        assert_eq!(g.labels(v), &[VLabel(1), VLabel(3)]);
    }

    #[test]
    #[should_panic(expected = "not added")]
    fn edge_with_unknown_endpoint_panics() {
        let mut b = LabeledGraphBuilder::new();
        let v = b.add_vertex(vec![]);
        b.add_edge(v, VertexId(5), ELabel(0));
    }

    #[test]
    fn neighbors_are_sorted_even_with_unsorted_insertion() {
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![]);
        let targets: Vec<VertexId> = (0..20).map(|_| b.add_vertex(vec![VLabel(0)])).collect();
        // Insert in reverse.
        for &t in targets.iter().rev() {
            b.add_edge(u, t, ELabel(0));
        }
        let g = b.build();
        let ns = g.neighbors(u, Direction::Outgoing, ELabel(0));
        assert_eq!(ns.len(), 20);
        assert!(crate::ops::is_sorted_set(ns));
        let typed = g.neighbors_typed(u, Direction::Outgoing, ELabel(0), VLabel(0));
        assert_eq!(typed, ns);
    }

    #[test]
    fn label_space_sizes_follow_max_ids() {
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![VLabel(7)]);
        let w = b.add_vertex(vec![]);
        b.add_edge(u, w, ELabel(9));
        let g = b.build();
        assert_eq!(g.vertex_label_count(), 8);
        assert_eq!(g.edge_label_count(), 10);
    }

    #[test]
    fn builder_counts_match_built_graph() {
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![]);
        let w = b.add_vertex(vec![]);
        b.add_edge(u, w, ELabel(0));
        b.add_edge(u, w, ELabel(0)); // duplicate
        b.add_edge(w, u, ELabel(0));
        let g = b.build();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(u, Direction::Outgoing, ELabel(0)), &[w]);
        assert_eq!(g.degree(u, Direction::Outgoing), 1);
        assert_eq!(g.degree(u, Direction::Incoming), 1);
    }

    #[test]
    fn shuffled_and_repeated_edges_build_the_duplicate_free_graph() {
        // 40 vertices with 0–2 labels, 300 distinct edges (parallel edges
        // under different labels, self loops) from a fixed LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut edges = std::collections::BTreeSet::new();
        while edges.len() < 300 {
            let (from, to) = (VertexId(next(40) as u32), VertexId(next(40) as u32));
            edges.insert((from, to, ELabel(next(4) as u32)));
        }
        let edges: Vec<_> = edges.into_iter().collect();
        let build = |edges: &[(VertexId, VertexId, ELabel)]| {
            let mut b = LabeledGraphBuilder::new();
            for v in 0..40u32 {
                b.add_vertex((0..v % 3).map(|l| VLabel((v + l) % 5)).collect());
            }
            for &(from, to, label) in edges {
                b.add_edge(from, to, label);
            }
            b.build()
        };
        let clean = build(&edges);

        // Every edge twice (one copy adjacent, one far away), then shuffled.
        let mut noisy: Vec<_> = edges
            .iter()
            .chain(&edges)
            .chain(&edges[..50])
            .copied()
            .collect();
        for i in (1..noisy.len()).rev() {
            noisy.swap(i, next(i as u64 + 1) as usize);
        }
        let noisy = build(&noisy);

        assert_eq!(noisy.edge_count(), 300);
        assert_eq!(noisy.edge_count(), clean.edge_count());
        for (a, b) in [
            (&noisy.outgoing, &clean.outgoing),
            (&noisy.incoming, &clean.incoming),
        ] {
            assert_eq!(a.degrees, b.degrees);
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.typed_targets, b.typed_targets);
            assert_eq!(a.vertex_offsets, b.vertex_offsets);
            assert_eq!(a.elabel_groups, b.elabel_groups);
            assert_eq!(a.type_groups, b.type_groups);
        }
    }
}
