//! The immutable CSR labeled data graph (paper Section 4.2).
//!
//! The two central access paths the matcher needs are:
//!
//! 1. `adj(v, (el, vl))` — the adjacent vertices of `v` reachable over edge
//!    label `el` whose label set contains `vl` (the "neighbor type" groups of
//!    Figure 9b in the paper), and
//! 2. `adj(v, el)` — the adjacent vertices over `el` regardless of their
//!    label (needed when the query vertex has a blank label, and by the
//!    baselines).
//!
//! Both are contiguous slices in this representation: adjacency is laid out
//! per vertex, grouped first by edge label and inside each edge-label group
//! by neighbor vertex label. A typed group is stored only where it filters:
//! when some but not all of the edge-label group's neighbors carry its label.
//! The labels that every neighbor carries form the group's *common set*, and
//! `adj(v, (el, vl))` for one of them is the per-edge-label slice itself. A
//! label that is in neither is carried by no neighbor, and the answer is
//! empty.

use crate::ids::{Direction, ELabel, VLabel, VertexId};
use std::ops::Range;
use turbohom_storage::{FlatVec, MemoryUse, Pod, SectionCursor, SnapshotError, SnapshotWriter};

/// Snapshot section tags (component 0x03). The two adjacency directions use
/// distinct tag bases so a mis-ordered reader fails loudly.
const TAG_GRAPH_META: u64 = 0x0301;
const TAG_GRAPH_LABEL_OFFSETS: u64 = 0x0302;
const TAG_GRAPH_LABELS: u64 = 0x0303;
const TAG_DIR_OUTGOING: u64 = 0x0310;
const TAG_DIR_INCOMING: u64 = 0x0320;

/// The longest sorted list a lookup scans from the front; a longer one is
/// binary searched. A vertex's edge-label groups, an edge-label group's
/// type groups and a vertex's labels are short (no vertex of LUBM, BSBM,
/// YAGO or BTC has more than 9 outgoing or 5 incoming edge-label groups),
/// and there a scan's predictable branches beat a search whose every step
/// waits on the load before it. The crossover is measured by the
/// `substrate_adjacency` group of `crates/bench/benches/substrate_bench.rs`.
const SCAN_BOUND: usize = 16;

/// The position of `key` in `list`, which is sorted by `key_of`: a scan
/// that stops at the first key not below `key`, or a binary search when
/// `list` is longer than [`SCAN_BOUND`].
fn find_sorted<T, K: Ord>(list: &[T], key: K, key_of: impl Fn(&T) -> K) -> Option<usize> {
    if list.len() > SCAN_BOUND {
        return list.binary_search_by(|x| key_of(x).cmp(&key)).ok();
    }
    let i = list.iter().position(|x| key_of(x) >= key)?;
    (key_of(&list[i]) == key).then_some(i)
}

/// Per-edge-label adjacency group of one vertex. A group ends where the next
/// one starts; one sentinel group closes each direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct ELabelGroup {
    pub(crate) elabel: ELabel,
    /// Start in `AdjacencyDirection::targets` (deduplicated neighbors).
    pub(crate) target_start: u32,
    /// Start in `AdjacencyDirection::type_groups`.
    pub(crate) type_start: u32,
    /// Id of the set of labels every target carries, a range of
    /// `AdjacencyDirection::common_labels`.
    pub(crate) common: u32,
}

// Safety: repr(C) of four u32 fields — no padding, no niches.
unsafe impl Pod for ELabelGroup {}

/// Per-(edge label, neighbor vertex label) adjacency group of one vertex: the
/// neighbors over the edge label that carry `vlabel`, stored only when they
/// are a strict, non-empty subset of the edge-label group's targets. The type
/// groups of one edge-label group are sorted by `vlabel`, which the lookups
/// search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct TypeGroup {
    pub(crate) vlabel: VLabel,
    /// Range into `AdjacencyDirection::typed_targets`.
    pub(crate) start: u32,
    pub(crate) end: u32,
}

// Safety: repr(C) of three u32-wide fields — no padding, no niches.
unsafe impl Pod for TypeGroup {}

/// Adjacency structure of one direction (outgoing or incoming).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct AdjacencyDirection {
    /// `vertex_offsets[v] .. vertex_offsets[v+1]` is the range of
    /// `elabel_groups` belonging to vertex `v`.
    pub(crate) vertex_offsets: FlatVec<u32>,
    /// The edge-label groups, then the sentinel whose starts are the lengths
    /// of `targets` and `type_groups`.
    pub(crate) elabel_groups: FlatVec<ELabelGroup>,
    pub(crate) type_groups: FlatVec<TypeGroup>,
    /// Neighbors per (vertex, edge label), sorted, duplicate free.
    pub(crate) targets: FlatVec<VertexId>,
    /// Neighbors per stored type group, sorted.
    pub(crate) typed_targets: FlatVec<VertexId>,
    /// Total number of edges incident in this direction per vertex
    /// (counting parallel edges with different labels separately).
    pub(crate) degrees: FlatVec<u32>,
    /// `common_offsets[c] .. common_offsets[c+1]` of `common_labels` is the
    /// sorted common set with id `c`. Id 0 is the empty set; the others are
    /// numbered in the order the layout first meets them.
    pub(crate) common_offsets: FlatVec<u32>,
    pub(crate) common_labels: FlatVec<VLabel>,
}

impl AdjacencyDirection {
    fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.vertex_offsets)
            + (&self.elabel_groups).into()
            + (&self.type_groups).into()
            + (&self.targets).into()
            + (&self.typed_targets).into()
            + (&self.degrees).into()
            + (&self.common_offsets).into()
            + (&self.common_labels).into()
    }

    /// The indices in `elabel_groups` of vertex `v`'s groups.
    pub(crate) fn group_range(&self, v: VertexId) -> Range<usize> {
        self.vertex_offsets[v.index()] as usize..self.vertex_offsets[v.index() + 1] as usize
    }

    fn find_elabel_group(&self, v: VertexId, el: ELabel) -> Option<usize> {
        let range = self.group_range(v);
        let start = range.start;
        find_sorted(&self.elabel_groups[range], el, |g| g.elabel).map(|i| start + i)
    }

    /// The neighbors in edge-label group `i`.
    pub(crate) fn targets_of(&self, i: usize) -> &[VertexId] {
        let groups = &self.elabel_groups;
        &self.targets[groups[i].target_start as usize..groups[i + 1].target_start as usize]
    }

    /// The neighbors in edge-label group `i` that carry `vl`: all of them if
    /// `vl` is in the group's common set, else its stored type group, else
    /// none.
    fn typed_targets_of(&self, i: usize, vl: VLabel) -> &[VertexId] {
        let (g, next) = (&self.elabel_groups[i], &self.elabel_groups[i + 1]);
        let c = g.common as usize;
        let common = &self.common_labels
            [self.common_offsets[c] as usize..self.common_offsets[c + 1] as usize];
        if common.contains(&vl) {
            return self.targets_of(i);
        }
        let tgs = &self.type_groups[g.type_start as usize..next.type_start as usize];
        match find_sorted(tgs, vl, |tg| tg.vlabel) {
            Some(i) => &self.typed_targets[tgs[i].start as usize..tgs[i].end as usize],
            None => &[],
        }
    }

    /// Writes the eight arrays of this direction under `base` tags.
    fn write_sections(&self, w: &mut SnapshotWriter, base: u64) {
        w.section(base, &self.vertex_offsets);
        w.section(base + 1, &self.elabel_groups);
        w.section(base + 2, &self.type_groups);
        w.section(base + 3, &self.targets);
        w.section(base + 4, &self.typed_targets);
        w.section(base + 5, &self.degrees);
        w.section(base + 6, &self.common_offsets);
        w.section(base + 7, &self.common_labels);
    }

    /// Reads one direction back and validates every stored range so the
    /// accessors cannot index out of bounds on a corrupt file.
    fn read_sections(
        cur: &mut SectionCursor<'_>,
        base: u64,
        num_vertices: usize,
    ) -> Result<Self, SnapshotError> {
        let dir = AdjacencyDirection {
            vertex_offsets: cur.next_section(base)?,
            elabel_groups: cur.next_section(base + 1)?,
            type_groups: cur.next_section(base + 2)?,
            targets: cur.next_section(base + 3)?,
            typed_targets: cur.next_section(base + 4)?,
            degrees: cur.next_section(base + 5)?,
            common_offsets: cur.next_section(base + 6)?,
            common_labels: cur.next_section(base + 7)?,
        };
        let malformed = |what: &str| SnapshotError::Malformed(format!("adjacency: {what}"));
        if dir.vertex_offsets.len() != num_vertices + 1 || dir.degrees.len() != num_vertices {
            return Err(malformed("per-vertex array length mismatch"));
        }
        let Some(sentinel) = dir.elabel_groups.last() else {
            return Err(malformed("no sentinel edge-label group"));
        };
        let num_groups = dir.elabel_groups.len() as u32 - 1;
        if dir.vertex_offsets.first() != Some(&0)
            || dir.vertex_offsets.windows(2).any(|w| w[0] > w[1])
            || dir.vertex_offsets.last().copied().unwrap_or(0) != num_groups
        {
            return Err(malformed("vertex offsets are not monotone"));
        }
        if dir
            .elabel_groups
            .windows(2)
            .any(|w| w[0].target_start > w[1].target_start || w[0].type_start > w[1].type_start)
        {
            return Err(malformed("edge-label group starts are not monotone"));
        }
        if sentinel.target_start as usize != dir.targets.len()
            || sentinel.type_start as usize != dir.type_groups.len()
        {
            return Err(malformed("the sentinel group does not end the arrays"));
        }
        if dir.common_offsets.first() != Some(&0)
            || dir.common_offsets.windows(2).any(|w| w[0] > w[1])
            || dir.common_offsets.last().copied().unwrap_or(0) as usize != dir.common_labels.len()
        {
            return Err(malformed("common-set offsets are not monotone"));
        }
        let num_common = dir.common_offsets.len() as u32 - 1;
        if dir.elabel_groups.iter().any(|g| g.common >= num_common) {
            return Err(malformed("common-set id out of range"));
        }
        let num_typed = dir.typed_targets.len() as u32;
        for tg in dir.type_groups.iter() {
            if tg.start > tg.end || tg.end > num_typed {
                return Err(malformed("type group range out of bounds"));
            }
        }
        let num_v = num_vertices as u32;
        if dir
            .targets
            .iter()
            .chain(dir.typed_targets.iter())
            .any(|t| t.0 >= num_v)
        {
            return Err(malformed("neighbor id out of range"));
        }
        Ok(dir)
    }
}

/// Summary statistics of a labeled graph, used by the Table 1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of vertices: the rows with an edge or a label (the paper's
    /// `|V|`; a term that is neither subject nor object has an empty row).
    pub vertices: usize,
    /// Number of edges.
    pub edges: usize,
    /// Number of distinct vertex labels.
    pub vertex_labels: usize,
    /// Number of distinct edge labels.
    pub edge_labels: usize,
}

/// The immutable, CSR-encoded labeled directed graph.
///
/// Construct one with [`layout`](crate::builder::layout), or through
/// [`LabeledGraphBuilder`](crate::builder::LabeledGraphBuilder). Two graphs
/// are equal when every array is.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledGraph {
    pub(crate) num_vertices: usize,
    pub(crate) num_edges: usize,
    pub(crate) num_vlabels: usize,
    pub(crate) num_elabels: usize,
    /// CSR of vertex label sets (sorted per vertex).
    pub(crate) label_offsets: FlatVec<u32>,
    pub(crate) labels: FlatVec<VLabel>,
    pub(crate) outgoing: AdjacencyDirection,
    pub(crate) incoming: AdjacencyDirection,
}

impl LabeledGraph {
    /// Number of vertex rows: one per dictionary term under both
    /// transformations, empty or not.
    pub fn vertex_count(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.num_edges
    }

    /// Number of entries of all vertex label sets together.
    pub fn label_entry_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct vertex labels.
    pub fn vertex_label_count(&self) -> usize {
        self.num_vlabels
    }

    /// Number of distinct edge labels.
    pub fn edge_label_count(&self) -> usize {
        self.num_elabels
    }

    /// Summary statistics (Table 1 in the paper).
    pub fn stats(&self) -> GraphStats {
        let occupied = |v: VertexId| !self.labels(v).is_empty() || self.total_degree(v) > 0;
        GraphStats {
            vertices: self.vertices().filter(|&v| occupied(v)).count(),
            edges: self.num_edges,
            vertex_labels: self.num_vlabels,
            edge_labels: self.num_elabels,
        }
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.num_vertices as u32).map(VertexId)
    }

    /// The (sorted) label set of vertex `v`.
    pub fn labels(&self, v: VertexId) -> &[VLabel] {
        let start = self.label_offsets[v.index()] as usize;
        let end = self.label_offsets[v.index() + 1] as usize;
        &self.labels[start..end]
    }

    /// Returns `true` if vertex `v` carries label `l`.
    pub fn has_label(&self, v: VertexId, l: VLabel) -> bool {
        find_sorted(self.labels(v), l, |&x| x).is_some()
    }

    /// Returns `true` if the label set of `v` is a superset of `required`
    /// (the `L(u) ⊆ L'(M(u))` condition of Definition 1/2).
    pub fn has_all_labels(&self, v: VertexId, required: &[VLabel]) -> bool {
        required.iter().all(|&l| self.has_label(v, l))
    }

    fn dir(&self, direction: Direction) -> &AdjacencyDirection {
        match direction {
            Direction::Outgoing => &self.outgoing,
            Direction::Incoming => &self.incoming,
        }
    }

    /// The number of edges incident to `v` in `direction` (parallel edges
    /// with different labels counted separately).
    pub fn degree(&self, v: VertexId, direction: Direction) -> usize {
        self.dir(direction).degrees[v.index()] as usize
    }

    /// Total degree (in + out) of `v`.
    pub fn total_degree(&self, v: VertexId) -> usize {
        self.degree(v, Direction::Outgoing) + self.degree(v, Direction::Incoming)
    }

    /// The neighbors of `v` over edge label `el` in `direction`
    /// (sorted, duplicate free). This is `adj(v, el)`.
    pub fn neighbors(&self, v: VertexId, direction: Direction, el: ELabel) -> &[VertexId] {
        let d = self.dir(direction);
        match d.find_elabel_group(v, el) {
            Some(i) => d.targets_of(i),
            None => &[],
        }
    }

    /// The neighbors of `v` over edge label `el` whose label set contains
    /// `vl`, in `direction` (sorted). This is the paper's
    /// `adj(v, (el, vl))` access path.
    pub fn neighbors_typed(
        &self,
        v: VertexId,
        direction: Direction,
        el: ELabel,
        vl: VLabel,
    ) -> &[VertexId] {
        let d = self.dir(direction);
        match d.find_elabel_group(v, el) {
            Some(i) => d.typed_targets_of(i, vl),
            None => &[],
        }
    }

    /// The adjacency of `v` in `direction` one edge-label group at a time:
    /// each edge label with its neighbors over it that carry `vl` (all of
    /// them for `None`), sorted and duplicate free.
    pub fn groups(
        &self,
        v: VertexId,
        direction: Direction,
        vl: Option<VLabel>,
    ) -> impl Iterator<Item = (ELabel, &[VertexId])> + '_ {
        let d = self.dir(direction);
        d.group_range(v).map(move |i| {
            let targets = vl.map_or_else(|| d.targets_of(i), |vl| d.typed_targets_of(i, vl));
            (d.elabel_groups[i].elabel, targets)
        })
    }

    /// Returns `true` if the edge `from --el--> to` exists.
    pub fn has_edge(&self, from: VertexId, to: VertexId, el: ELabel) -> bool {
        crate::ops::contains_sorted(self.neighbors(from, Direction::Outgoing, el), to)
    }

    /// Bytes of the graph's arrays: the two adjacency directions (`csr`) and
    /// the vertex label sets (`labels`).
    pub fn memory(&self) -> [(&'static str, MemoryUse); 2] {
        let labels = MemoryUse::from(&self.label_offsets) + (&self.labels).into();
        [
            ("csr", self.outgoing.memory() + self.incoming.memory()),
            ("labels", labels),
        ]
    }

    /// Serializes the graph as snapshot sections: a meta array, the vertex
    /// label CSR and both adjacency directions.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        let meta: [u64; 4] = [
            self.num_vertices as u64,
            self.num_edges as u64,
            self.num_vlabels as u64,
            self.num_elabels as u64,
        ];
        w.section(TAG_GRAPH_META, &meta);
        w.section(TAG_GRAPH_LABEL_OFFSETS, &self.label_offsets);
        w.section(TAG_GRAPH_LABELS, &self.labels);
        self.outgoing.write_sections(w, TAG_DIR_OUTGOING);
        self.incoming.write_sections(w, TAG_DIR_INCOMING);
    }

    /// Reconstructs a graph reading all arrays in place from a snapshot,
    /// validating the CSR invariants so accessors cannot panic.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let meta: FlatVec<u64> = cur.next_section(TAG_GRAPH_META)?;
        if meta.len() != 4 {
            return Err(SnapshotError::Malformed("graph meta section length".into()));
        }
        let num_vertices = meta[0] as usize;
        let label_offsets: FlatVec<u32> = cur.next_section(TAG_GRAPH_LABEL_OFFSETS)?;
        let labels: FlatVec<VLabel> = cur.next_section(TAG_GRAPH_LABELS)?;
        if label_offsets.len() != num_vertices + 1
            || label_offsets.first() != Some(&0)
            || label_offsets.windows(2).any(|w| w[0] > w[1])
            || label_offsets.last().copied().unwrap_or(0) as usize != labels.len()
        {
            return Err(SnapshotError::Malformed(
                "graph label offsets are not monotone".into(),
            ));
        }
        let (num_vlabels, num_elabels) = (meta[2] as usize, meta[3] as usize);
        if labels.iter().any(|l| l.index() >= num_vlabels) {
            return Err(SnapshotError::Malformed(
                "graph vertex label out of range".into(),
            ));
        }
        let outgoing = AdjacencyDirection::read_sections(cur, TAG_DIR_OUTGOING, num_vertices)?;
        let incoming = AdjacencyDirection::read_sections(cur, TAG_DIR_INCOMING, num_vertices)?;
        for dir in [&outgoing, &incoming] {
            if dir.targets.len() as u64 != meta[1] {
                return Err(SnapshotError::Malformed(
                    "graph edge count is not its adjacency's".into(),
                ));
            }
            let groups = &dir.elabel_groups[..dir.elabel_groups.len() - 1];
            if groups.iter().any(|g| g.elabel.index() >= num_elabels) {
                return Err(SnapshotError::Malformed(
                    "graph edge label out of range".into(),
                ));
            }
        }
        Ok(LabeledGraph {
            num_vertices,
            num_edges: meta[1] as usize,
            num_vlabels,
            num_elabels,
            label_offsets,
            labels,
            outgoing,
            incoming,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LabeledGraphBuilder;

    /// Builds the data graph of paper Figure 7d:
    /// v0 {A,B}, v1 {C}, v2 {D}, v3 {}, v4 {};
    /// edges: v0-a->v1, v0-b->v2, v0-d->v3, v0-e->v4, v2-c->v1.
    fn figure7_graph() -> LabeledGraph {
        let mut b = LabeledGraphBuilder::new();
        let v0 = b.add_vertex(vec![VLabel(0), VLabel(1)]);
        let v1 = b.add_vertex(vec![VLabel(2)]);
        let v2 = b.add_vertex(vec![VLabel(3)]);
        let v3 = b.add_vertex(vec![]);
        let v4 = b.add_vertex(vec![]);
        b.add_edge(v0, v1, ELabel(0)); // a
        b.add_edge(v0, v2, ELabel(1)); // b
        b.add_edge(v0, v3, ELabel(3)); // d
        b.add_edge(v0, v4, ELabel(4)); // e
        b.add_edge(v2, v1, ELabel(2)); // c
        b.build()
    }

    #[test]
    fn stats_match_figure7() {
        let g = figure7_graph();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.vertex_label_count(), 4);
        assert_eq!(g.edge_label_count(), 5);
        assert_eq!(
            g.stats(),
            GraphStats {
                vertices: 5,
                edges: 5,
                vertex_labels: 4,
                edge_labels: 5
            }
        );
    }

    #[test]
    fn label_access() {
        let g = figure7_graph();
        assert_eq!(g.labels(VertexId(0)), &[VLabel(0), VLabel(1)]);
        assert!(g.has_label(VertexId(0), VLabel(1)));
        assert!(!g.has_label(VertexId(0), VLabel(2)));
        assert!(g.has_all_labels(VertexId(0), &[VLabel(0), VLabel(1)]));
        assert!(!g.has_all_labels(VertexId(0), &[VLabel(0), VLabel(3)]));
        assert!(g.has_all_labels(VertexId(3), &[]));
        assert!(g.labels(VertexId(4)).is_empty());
    }

    #[test]
    fn outgoing_neighbors_by_edge_label() {
        let g = figure7_graph();
        assert_eq!(
            g.neighbors(VertexId(0), Direction::Outgoing, ELabel(0)),
            &[VertexId(1)]
        );
        assert_eq!(
            g.neighbors(VertexId(2), Direction::Outgoing, ELabel(2)),
            &[VertexId(1)]
        );
        assert!(g
            .neighbors(VertexId(1), Direction::Outgoing, ELabel(0))
            .is_empty());
    }

    #[test]
    fn incoming_neighbors_by_edge_label() {
        let g = figure7_graph();
        assert_eq!(
            g.neighbors(VertexId(1), Direction::Incoming, ELabel(0)),
            &[VertexId(0)]
        );
        assert_eq!(
            g.neighbors(VertexId(1), Direction::Incoming, ELabel(2)),
            &[VertexId(2)]
        );
    }

    #[test]
    fn typed_neighbor_groups_match_figure9() {
        let g = figure7_graph();
        // adj(v0, (a, C)) = {v1}
        assert_eq!(
            g.neighbors_typed(VertexId(0), Direction::Outgoing, ELabel(0), VLabel(2)),
            &[VertexId(1)]
        );
        // adj(v0, (b, D)) = {v2}
        assert_eq!(
            g.neighbors_typed(VertexId(0), Direction::Outgoing, ELabel(1), VLabel(3)),
            &[VertexId(2)]
        );
        // No such group: adj(v0, (a, D)) = ∅.
        assert!(g
            .neighbors_typed(VertexId(0), Direction::Outgoing, ELabel(0), VLabel(3))
            .is_empty());
    }

    #[test]
    fn degrees() {
        let g = figure7_graph();
        assert_eq!(g.degree(VertexId(0), Direction::Outgoing), 4);
        assert_eq!(g.degree(VertexId(0), Direction::Incoming), 0);
        assert_eq!(g.degree(VertexId(1), Direction::Incoming), 2);
        assert_eq!(g.total_degree(VertexId(2)), 2);
    }

    #[test]
    fn multi_label_neighbor_appears_in_each_type_group_once_in_flat_list() {
        // w has two labels; u -p-> w must appear in both (p, L0) and (p, L1)
        // type groups but only once in adj(u, p).
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![]);
        let w = b.add_vertex(vec![VLabel(0), VLabel(1)]);
        b.add_edge(u, w, ELabel(0));
        let g = b.build();
        assert_eq!(g.neighbors(u, Direction::Outgoing, ELabel(0)), &[w]);
        assert_eq!(
            g.neighbors_typed(u, Direction::Outgoing, ELabel(0), VLabel(0)),
            &[w]
        );
        assert_eq!(
            g.neighbors_typed(u, Direction::Outgoing, ELabel(0), VLabel(1)),
            &[w]
        );
        assert_eq!(g.degree(u, Direction::Outgoing), 1);
    }

    /// The edge labels of `v`'s groups in `direction` with their neighbors
    /// carrying `vl`, collected.
    fn groups_of(
        g: &LabeledGraph,
        v: VertexId,
        direction: Direction,
        vl: Option<VLabel>,
    ) -> Vec<(ELabel, Vec<VertexId>)> {
        (g.groups(v, direction, vl))
            .map(|(el, targets)| (el, targets.to_vec()))
            .collect()
    }

    #[test]
    fn groups_list_each_edge_label_with_its_neighbors() {
        let g = figure7_graph();
        let [v0, v1, v2, v3, v4] = [0, 1, 2, 3, 4].map(VertexId);
        assert_eq!(
            groups_of(&g, v0, Direction::Outgoing, None),
            vec![
                (ELabel(0), vec![v1]),
                (ELabel(1), vec![v2]),
                (ELabel(3), vec![v3]),
                (ELabel(4), vec![v4])
            ]
        );
        assert_eq!(
            groups_of(&g, v1, Direction::Incoming, None),
            vec![(ELabel(0), vec![v0]), (ELabel(2), vec![v2])]
        );
        assert!(groups_of(&g, v4, Direction::Outgoing, None).is_empty());
    }

    #[test]
    fn typed_groups_keep_the_neighbors_carrying_the_label() {
        // u -p-> a{L0}, u -q-> b{L0}, u -p-> c{L1}
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![]);
        let a = b.add_vertex(vec![VLabel(0)]);
        let bb = b.add_vertex(vec![VLabel(0)]);
        let c = b.add_vertex(vec![VLabel(1)]);
        b.add_edge(u, a, ELabel(0));
        b.add_edge(u, bb, ELabel(1));
        b.add_edge(u, c, ELabel(0));
        let g = b.build();
        assert_eq!(
            groups_of(&g, u, Direction::Outgoing, Some(VLabel(0))),
            vec![(ELabel(0), vec![a]), (ELabel(1), vec![bb])]
        );
        assert_eq!(
            groups_of(&g, u, Direction::Outgoing, Some(VLabel(1))),
            vec![(ELabel(0), vec![c]), (ELabel(1), vec![])]
        );
    }

    #[test]
    fn edge_existence() {
        let g = figure7_graph();
        assert!(g.has_edge(VertexId(0), VertexId(1), ELabel(0)));
        assert!(!g.has_edge(VertexId(1), VertexId(0), ELabel(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(1), ELabel(1)));
    }

    #[test]
    fn parallel_edges_with_distinct_labels_are_kept() {
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![]);
        let w = b.add_vertex(vec![]);
        b.add_edge(u, w, ELabel(0));
        b.add_edge(u, w, ELabel(1));
        b.add_edge(u, w, ELabel(1)); // exact duplicate, dropped
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            groups_of(&g, u, Direction::Outgoing, None),
            vec![(ELabel(0), vec![w]), (ELabel(1), vec![w])]
        );
        assert_eq!(g.degree(u, Direction::Outgoing), 2);
    }

    #[test]
    fn snapshot_round_trip_preserves_every_access_path() {
        let g = figure7_graph();
        let mut w = turbohom_storage::SnapshotWriter::new();
        g.write_sections(&mut w);
        let idx = crate::predicate_index::PredicateIndex::build(&g);
        idx.write_sections(&mut w);
        let inv = crate::inverse_label::InverseLabelIndex::build(&g);
        inv.write_sections(&mut w);
        let path = std::env::temp_dir().join(format!("turbohom-graph-{}.snap", std::process::id()));
        w.write_to(&path).unwrap();
        let snap = turbohom_storage::Snapshot::open(&path).unwrap();
        let mut cur = snap.cursor();
        let l = LabeledGraph::read_sections(&mut cur).unwrap();
        let lidx = crate::predicate_index::PredicateIndex::read_sections(&mut cur, &l).unwrap();
        let linv = crate::inverse_label::InverseLabelIndex::read_sections(&mut cur).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(l.stats(), g.stats());
        for v in g.vertices() {
            assert_eq!(l.labels(v), g.labels(v));
            assert_eq!(l.total_degree(v), g.total_degree(v));
            for dir in [Direction::Outgoing, Direction::Incoming] {
                let labels: Vec<ELabel> = g.groups(v, dir, None).map(|(el, _)| el).collect();
                let llabels: Vec<ELabel> = l.groups(v, dir, None).map(|(el, _)| el).collect();
                assert_eq!(labels, llabels);
                for el in labels {
                    assert_eq!(l.neighbors(v, dir, el), g.neighbors(v, dir, el));
                    for vl in 0..g.vertex_label_count() as u32 {
                        assert_eq!(
                            l.neighbors_typed(v, dir, el, VLabel(vl)),
                            g.neighbors_typed(v, dir, el, VLabel(vl))
                        );
                    }
                }
            }
        }
        for el in 0..g.edge_label_count() as u32 {
            assert_eq!(lidx.subjects(ELabel(el)), idx.subjects(ELabel(el)));
            assert_eq!(lidx.objects(ELabel(el)), idx.objects(ELabel(el)));
            assert_eq!(lidx.edge_count(ELabel(el)), idx.edge_count(ELabel(el)));
        }
        for vl in 0..g.vertex_label_count() as u32 {
            assert_eq!(
                linv.vertices_with_label(VLabel(vl)),
                inv.vertices_with_label(VLabel(vl))
            );
        }
    }

    /// Writes `g` as snapshot sections and reads it back.
    fn read_back(g: &LabeledGraph, name: &str) -> Result<LabeledGraph, SnapshotError> {
        let mut w = turbohom_storage::SnapshotWriter::new();
        g.write_sections(&mut w);
        let path =
            std::env::temp_dir().join(format!("turbohom-{name}-{}.snap", std::process::id()));
        w.write_to(&path).unwrap();
        let snap = turbohom_storage::Snapshot::open(&path).unwrap();
        let read = LabeledGraph::read_sections(&mut snap.cursor());
        std::fs::remove_file(&path).unwrap();
        read
    }

    /// Reads back the Figure 7 graph after `corrupt` changed its arrays and
    /// expects a `Malformed` error naming `what`.
    fn assert_refused(name: &str, what: &str, corrupt: impl FnOnce(&mut LabeledGraph)) {
        let mut g = figure7_graph();
        assert!(read_back(&g, name).is_ok());
        corrupt(&mut g);
        match read_back(&g, name) {
            Err(SnapshotError::Malformed(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn edge_label_group_starts_that_decrease_are_refused() {
        // v0's four outgoing groups start at targets 0, 1, 2 and 3.
        assert_refused("decreasing-target", "starts are not monotone", |g| {
            g.outgoing.elabel_groups.to_mut()[0].target_start = 2;
        });
        assert_refused("decreasing-type", "starts are not monotone", |g| {
            g.incoming.elabel_groups.to_mut()[0].type_start = 1;
        });
    }

    #[test]
    fn a_sentinel_that_does_not_end_the_arrays_is_refused() {
        // Short of the targets: every start is still monotone.
        assert_refused("short-sentinel", "sentinel", |g| {
            let mut groups = g.outgoing.elabel_groups.to_mut();
            groups.last_mut().unwrap().target_start -= 1;
        });
        assert_refused("long-sentinel", "sentinel", |g| {
            let mut groups = g.incoming.elabel_groups.to_mut();
            groups.last_mut().unwrap().type_start += 1;
        });
        assert_refused("no-sentinel", "sentinel", |g| {
            g.outgoing.elabel_groups = FlatVec::new();
        });
    }

    #[test]
    fn a_common_set_id_out_of_range_is_refused() {
        assert_refused("common-id", "common-set id", |g| {
            let sets = g.incoming.common_offsets.len() as u32 - 1;
            g.incoming.elabel_groups.to_mut()[0].common = sets;
        });
    }

    #[test]
    fn common_set_offsets_that_are_not_monotone_are_refused() {
        // v1's incoming groups are reached from v0 {A, B} and v2 {D}: the
        // sets are {}, {A, B} and {D}.
        assert_refused("common-decreasing", "common-set offsets", |g| {
            assert_eq!(&*g.incoming.common_offsets, &[0, 0, 2, 3]);
            g.incoming.common_offsets.to_mut()[1] = 3;
        });
        assert_refused("common-short", "common-set offsets", |g| {
            g.incoming.common_labels.to_mut().push(VLabel(0));
        });
        assert_refused("common-empty", "common-set offsets", |g| {
            g.outgoing.common_offsets = FlatVec::new();
        });
    }

    /// An edge `from --el--> to` as `(from, el, to)`.
    type Edge = (VertexId, ELabel, VertexId);

    /// A graph with lists on both sides of `SCAN_BOUND`, every label even so
    /// that the odd ones between them are absent: vertex 0 has more
    /// outgoing edge-label groups and more labels than the bound, vertex 1
    /// fewer of each, vertex 2's one edge-label group has more type groups
    /// than the bound and vertex 3 more incoming groups. Returns the graph,
    /// its edges and each vertex's labels.
    fn graph_around_the_scan_bound() -> (LabeledGraph, Vec<Edge>, Vec<Vec<VLabel>>) {
        let wide = SCAN_BOUND as u32 + 3;
        let mut labels: Vec<Vec<VLabel>> = vec![
            (0..wide).map(|k| VLabel(2 * k)).collect(),
            vec![VLabel(2)],
            vec![],
            vec![VLabel(4), VLabel(6)],
        ];
        let mut edges = vec![
            (VertexId(1), ELabel(2), VertexId(0)),
            (VertexId(1), ELabel(6), VertexId(3)),
            (VertexId(2), ELabel(0), VertexId(1)),
        ];
        for k in 0..wide {
            let t = VertexId(labels.len() as u32);
            labels.push(vec![VLabel(2 * k)]);
            edges.push((VertexId(0), ELabel(2 * k), t));
            edges.push((VertexId(2), ELabel(0), t));
            edges.push((t, ELabel(2 * k), VertexId(3)));
        }
        let mut b = LabeledGraphBuilder::new();
        for l in &labels {
            b.add_vertex(l.clone());
        }
        for &(from, el, to) in &edges {
            b.add_edge(from, to, el);
        }
        (b.build(), edges, labels)
    }

    #[test]
    fn lookups_on_both_sides_of_the_scan_bound_match_a_brute_force_pass() {
        let (built, edges, labels) = graph_around_the_scan_bound();
        let (out, inc) = (&built.outgoing, &built.incoming);
        assert!(out.group_range(VertexId(0)).len() > SCAN_BOUND);
        assert!(out.group_range(VertexId(1)).len() < SCAN_BOUND);
        assert!(inc.group_range(VertexId(3)).len() > SCAN_BOUND);
        let typed = out.group_range(VertexId(2)).start;
        let (g, next) = (out.elabel_groups[typed], out.elabel_groups[typed + 1]);
        assert!((next.type_start - g.type_start) as usize > SCAN_BOUND);
        assert!(built.labels(VertexId(0)).len() > SCAN_BOUND);
        assert!(built.labels(VertexId(1)).len() < SCAN_BOUND);
        let mapped = read_back(&built, "scan-bound").unwrap();
        assert!(mapped.outgoing.elabel_groups.is_view() && mapped.labels.is_view());

        // Past the largest label of either kind, 2 * SCAN_BOUND + 4.
        let end = 2 * SCAN_BOUND as u32 + 8;
        for g in [&built, &mapped] {
            for v in g.vertices() {
                for vl in (0..end).map(VLabel) {
                    assert_eq!(g.has_label(v, vl), labels[v.index()].contains(&vl));
                }
                for el in (0..end).map(ELabel) {
                    for dir in [Direction::Outgoing, Direction::Incoming] {
                        let mut expected: Vec<VertexId> = (edges.iter())
                            .filter(|e| e.1 == el)
                            .filter_map(|&(from, _, to)| match dir {
                                Direction::Outgoing => (from == v).then_some(to),
                                Direction::Incoming => (to == v).then_some(from),
                            })
                            .collect();
                        expected.sort();
                        assert_eq!(g.neighbors(v, dir, el), expected, "{v:?} {dir:?} {el:?}");
                        for vl in (0..end).map(VLabel) {
                            let carriers: Vec<VertexId> = (expected.iter().copied())
                                .filter(|w| labels[w.index()].contains(&vl))
                                .collect();
                            assert_eq!(g.neighbors_typed(v, dir, el, vl), carriers);
                        }
                    }
                    for w in g.vertices() {
                        assert_eq!(g.has_edge(v, w, el), edges.contains(&(v, el, w)));
                    }
                }
            }
        }
    }

    #[test]
    fn group_labels_are_sorted_unique() {
        let g = figure7_graph();
        let groups = g.groups(VertexId(0), Direction::Outgoing, None);
        let labels: Vec<ELabel> = groups.map(|(el, _)| el).collect();
        assert_eq!(labels, vec![ELabel(0), ELabel(1), ELabel(3), ELabel(4)]);
    }
}
