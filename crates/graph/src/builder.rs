//! Lays out the CSR [`LabeledGraph`] (paper Section 4.2).
//!
//! [`layout`] is the one function that does it. It takes the vertex count,
//! the vertex label sets as a CSR and an edge source it walks twice, and
//! lays out the grouped adjacency of both directions in counted passes: the
//! outgoing direction from the edge source, which is then dropped, and the
//! incoming one from the outgoing CSR. Every array the graph keeps is
//! allocated at its final length but the small table of interned common
//! label sets, and the only large scratch is one row buffer both directions
//! reuse. Exact duplicate edges are dropped where the per-row sort leaves
//! them adjacent.
//!
//! The data-graph transformations feed [`layout`] straight from the triples;
//! [`LabeledGraphBuilder`] collects the vertices and edges of a small graph
//! (tests, examples) in any order and feeds it the same way.

use crate::ids::{ELabel, VLabel, VertexId};
use crate::labeled_graph::{AdjacencyDirection, ELabelGroup, LabeledGraph, TypeGroup};
use std::collections::HashMap;

/// What an edge source hands every edge to: `sink(from, to, label)` is the
/// edge `from --label--> to`.
pub type EdgeSink<'a> = dyn FnMut(VertexId, VertexId, ELabel) + 'a;

/// Builder for [`LabeledGraph`]: a thin feeder into [`layout`].
#[derive(Debug, Default, Clone)]
pub struct LabeledGraphBuilder {
    vertex_labels: Vec<Vec<VLabel>>,
    edges: Vec<(VertexId, VertexId, ELabel)>,
}

impl LabeledGraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex with the given label set and returns its id.
    pub fn add_vertex(&mut self, mut labels: Vec<VLabel>) -> VertexId {
        labels.sort_unstable();
        labels.dedup();
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
        self.edges.push((from, to, label));
    }

    /// Freezes the builder into an immutable [`LabeledGraph`].
    pub fn build(self) -> LabeledGraph {
        let mut label_offsets = Vec::with_capacity(self.vertex_labels.len() + 1);
        label_offsets.push(0u32);
        for ls in &self.vertex_labels {
            label_offsets.push(label_offsets[label_offsets.len() - 1] + ls.len() as u32);
        }
        let labels = self.vertex_labels.concat();
        layout(
            self.vertex_labels.len(),
            label_offsets,
            labels,
            move |sink: &mut EdgeSink<'_>| {
                for &(from, to, label) in &self.edges {
                    sink(from, to, label);
                }
            },
        )
    }
}

/// Lays out the graph over `num_vertices` vertices whose label sets are the
/// CSR `label_offsets`/`labels` (`label_offsets[v]..label_offsets[v + 1]` of
/// `labels` is vertex `v`'s set, sorted and duplicate free) and whose edges
/// are what `edges` hands its sink, each `from --label--> to`.
///
/// `edges` is walked twice, a count and a placement of the outgoing
/// direction, and must hand over the same edges, in any order, each time.
/// Then it is dropped, with whatever it owns, and the incoming direction is
/// laid out from the finished outgoing one: a source that owns the triples
/// frees them before the second direction is allocated. The label space
/// sizes follow the largest label used: a vertex label on some vertex, an
/// edge label on some edge.
///
/// # Panics
/// Panics if `label_offsets` does not have one entry per vertex plus one, if
/// an edge names a vertex outside `0..num_vertices`, or if a direction would
/// hold more than `u32::MAX` edges.
pub fn layout(
    num_vertices: usize,
    label_offsets: Vec<u32>,
    labels: Vec<VLabel>,
    edges: impl Fn(&mut EdgeSink<'_>),
) -> LabeledGraph {
    assert_eq!(
        label_offsets.len(),
        num_vertices + 1,
        "one label set per vertex"
    );
    debug_assert!((0..num_vertices).all(|v| {
        let set = &labels[label_offsets[v] as usize..label_offsets[v + 1] as usize];
        set.windows(2).all(|w| w[0] < w[1])
    }));
    let num_vlabels = labels.iter().max().map_or(0, |l| l.index() + 1);
    // The row buffer both directions reuse; dropped before returning.
    let mut rows = Vec::new();
    let label_sets = (&label_offsets[..], &labels[..]);
    let outgoing = lay_out_direction(label_sets, num_vlabels, &edges, &mut rows, false);
    // Whatever the edge source owns goes before the incoming direction is
    // allocated: that direction is the outgoing one transposed.
    drop(edges);
    let transposed = |sink: &mut EdgeSink<'_>| {
        for v in (0..num_vertices).map(|v| VertexId(v as u32)) {
            for i in outgoing.group_range(v) {
                let label = outgoing.elabel_groups[i].elabel;
                for &t in outgoing.targets_of(i) {
                    sink(v, t, label);
                }
            }
        }
    };
    let incoming = lay_out_direction(label_sets, num_vlabels, &transposed, &mut rows, true);
    drop(rows);
    // The last group is the sentinel.
    let groups = &outgoing.elabel_groups[..outgoing.elabel_groups.len() - 1];
    let num_elabels = (groups.iter())
        .map(|g| g.elabel.index() + 1)
        .max()
        .unwrap_or(0);
    LabeledGraph {
        num_vertices,
        num_edges: outgoing.targets.len(),
        num_vlabels,
        num_elabels,
        label_offsets: label_offsets.into(),
        labels: labels.into(),
        outgoing,
        incoming,
    }
}

/// Lays out one adjacency direction; with `incoming` every edge is read
/// target→source. Six steps:
///
/// 1. count the degrees;
/// 2. take prefix sums into `u32` row bounds;
/// 3. place the `(edge label, neighbor)` pairs into `rows`;
/// 4. sort and dedup each row in place, which makes every edge-label run a
///    strict sorted set;
/// 5. count the edge-label groups, and the type groups and typed entries
///    that filter;
/// 6. allocate every array at its final length and fill it, interning each
///    group's common label set.
fn lay_out_direction(
    (label_offsets, labels): (&[u32], &[VLabel]),
    num_vlabels: usize,
    edges: &dyn Fn(&mut EdgeSink<'_>),
    rows: &mut Vec<(ELabel, VertexId)>,
    incoming: bool,
) -> AdjacencyDirection {
    let n = label_offsets.len() - 1;
    // The vertex whose row an edge lands in, and the neighbor it records.
    let orient = |from: VertexId, to: VertexId| if incoming { (to, from) } else { (from, to) };

    let mut degrees = vec![0u32; n];
    edges(&mut |from, to, _| degrees[orient(from, to).0.index()] += 1);

    // `bounds[v]` starts as the end of row `v`; placing an edge moves it back
    // by one, so afterwards it is the row's start and `bounds[v + 1]` its end.
    let mut bounds = Vec::with_capacity(n + 1);
    let mut total = 0u32;
    for &d in &degrees {
        total = total
            .checked_add(d)
            .expect("a direction holds at most u32::MAX edges");
        bounds.push(total);
    }
    bounds.push(total);

    rows.clear();
    rows.resize(total as usize, (ELabel(0), VertexId(0)));
    edges(&mut |from, to, label| {
        let (v, neighbor) = orient(from, to);
        bounds[v.index()] -= 1;
        rows[bounds[v.index()] as usize] = (label, neighbor);
    });

    // Sorted by (edge label, neighbor), exact duplicates are adjacent. A row
    // keeps its start; its degree becomes its distinct length.
    for v in 0..n {
        let row = &mut rows[bounds[v] as usize..bounds[v + 1] as usize];
        row.sort_unstable();
        let mut distinct = 0usize;
        for i in 0..row.len() {
            if i == 0 || row[i] != row[distinct - 1] {
                row[distinct] = row[i];
                distinct += 1;
            }
        }
        degrees[v] = distinct as u32;
    }
    let rows = &rows[..];
    let groups_of = |v: usize| {
        let row = &rows[bounds[v] as usize..][..degrees[v] as usize];
        row.chunk_by(|a, b| a.0 == b.0)
    };
    let label_set = |t: VertexId| {
        &labels[label_offsets[t.index()] as usize..label_offsets[t.index() + 1] as usize]
    };

    // A neighbor lands in the type group of each label it carries, and a
    // group is stored only when some but not all targets carry its label.
    // `count[l]` is how many targets of the current group carry `l`, and
    // `touched` the labels with a non-zero count.
    let mut count = vec![0u32; num_vlabels];
    let mut touched = Vec::new();
    let (mut num_groups, mut num_type_groups, mut num_typed) = (0usize, 0usize, 0usize);
    for v in 0..n {
        for group in groups_of(v) {
            for &(_, t) in group {
                for &l in label_set(t) {
                    if count[l.index()] == 0 {
                        touched.push(l);
                    }
                    count[l.index()] += 1;
                }
            }
            for l in touched.drain(..) {
                let carriers = std::mem::take(&mut count[l.index()]) as usize;
                if carriers < group.len() {
                    num_type_groups += 1;
                    num_typed += carriers;
                }
            }
            num_groups += 1;
        }
    }
    drop(count);
    // Every range below is stored as `u32`: the casts are lossless.
    assert!(
        u32::try_from(num_groups.max(num_type_groups).max(num_typed)).is_ok(),
        "a direction holds at most u32::MAX groups and typed entries"
    );

    let mut vertex_offsets = Vec::with_capacity(n + 1);
    let mut elabel_groups = Vec::with_capacity(num_groups + 1);
    let mut type_groups = Vec::with_capacity(num_type_groups);
    let mut targets = Vec::with_capacity(degrees.iter().map(|&d| d as usize).sum());
    let mut typed_targets = Vec::with_capacity(num_typed);
    let mut common_sets = CommonSets::new();
    // One edge-label group's (label, neighbor) pairs and common set, reused
    // across groups.
    let mut typed_scratch: Vec<(VLabel, VertexId)> = Vec::new();
    let mut common_scratch: Vec<VLabel> = Vec::new();
    vertex_offsets.push(0u32);
    for v in 0..n {
        for group in groups_of(v) {
            let target_start = targets.len() as u32;
            targets.extend(group.iter().map(|&(_, t)| t));
            typed_scratch.clear();
            for &(_, t) in group {
                typed_scratch.extend(label_set(t).iter().map(|&l| (l, t)));
            }
            typed_scratch.sort_unstable();
            let type_start = type_groups.len() as u32;
            common_scratch.clear();
            for run in typed_scratch.chunk_by(|a, b| a.0 == b.0) {
                // Targets are distinct, so a run as long as the group is
                // every target.
                if run.len() == group.len() {
                    common_scratch.push(run[0].0);
                    continue;
                }
                let start = typed_targets.len() as u32;
                typed_targets.extend(run.iter().map(|&(_, t)| t));
                type_groups.push(TypeGroup {
                    vlabel: run[0].0,
                    start,
                    end: typed_targets.len() as u32,
                });
            }
            elabel_groups.push(ELabelGroup {
                elabel: group[0].0,
                target_start,
                type_start,
                common: common_sets.id(&common_scratch),
            });
        }
        vertex_offsets.push(elabel_groups.len() as u32);
    }
    elabel_groups.push(ELabelGroup {
        elabel: ELabel(0),
        target_start: targets.len() as u32,
        type_start: type_groups.len() as u32,
        common: 0,
    });
    debug_assert_eq!(
        [elabel_groups.len(), type_groups.len(), typed_targets.len()],
        [num_groups + 1, num_type_groups, num_typed]
    );

    AdjacencyDirection {
        vertex_offsets: vertex_offsets.into(),
        elabel_groups: elabel_groups.into(),
        type_groups: type_groups.into(),
        targets: targets.into(),
        typed_targets: typed_targets.into(),
        degrees: degrees.into(),
        common_offsets: common_sets.offsets.into(),
        common_labels: common_sets.labels.into(),
    }
}

/// The common label sets of one direction, interned: id `c` is
/// `labels[offsets[c]..offsets[c + 1]]`. Id 0 is the empty set, and the
/// others are numbered in the order [`id`](Self::id) first meets them, so a
/// layout writes the same bytes in every process.
struct CommonSets {
    offsets: Vec<u32>,
    labels: Vec<VLabel>,
    ids: HashMap<Vec<VLabel>, u32>,
}

impl CommonSets {
    fn new() -> Self {
        CommonSets {
            offsets: vec![0, 0],
            labels: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// The id of `set`, interning it if it is new.
    fn id(&mut self, set: &[VLabel]) -> u32 {
        if set.is_empty() {
            return 0;
        }
        if let Some(&id) = self.ids.get(set) {
            return id;
        }
        let id = self.offsets.len() as u32 - 1;
        self.labels.extend_from_slice(set);
        self.offsets.push(self.labels.len() as u32);
        self.ids.insert(set.to_vec(), id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Direction;
    use std::cell::Cell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::rc::Rc;

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
            assert_eq!(a.common_offsets, b.common_offsets);
            assert_eq!(a.common_labels, b.common_labels);
        }
    }

    #[test]
    fn layout_walks_its_edge_source_twice_and_drops_it_before_returning() {
        // u -0-> w twice, w -1-> u, u -1-> u.
        let edges = [(0, 1, 0), (0, 1, 0), (1, 0, 1), (0, 0, 1)]
            .map(|(from, to, label)| (VertexId(from), VertexId(to), ELabel(label)));
        let walks = Cell::new(0);
        let counter = &walks;
        let owned = Rc::new(edges);
        let held = Rc::downgrade(&owned);
        let g = layout(
            2,
            vec![0, 1, 1],
            vec![VLabel(0)],
            move |sink: &mut EdgeSink<'_>| {
                counter.set(counter.get() + 1);
                for &(from, to, label) in owned.iter() {
                    sink(from, to, label);
                }
            },
        );
        assert_eq!(walks.get(), 2);
        assert!(held.upgrade().is_none(), "the edge source outlived layout");
        let [u, w] = [VertexId(0), VertexId(1)];
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(u, Direction::Outgoing, ELabel(0)), &[w]);
        assert_eq!(g.neighbors(u, Direction::Incoming, ELabel(1)), &[u, w]);
        assert_eq!(g.neighbors(w, Direction::Incoming, ELabel(0)), &[u]);
        assert_eq!(g.degree(w, Direction::Incoming), 1);
    }

    #[test]
    fn layout_equals_a_reference_grouped_through_ordered_maps() {
        // 30 vertices with 0–2 labels, 200 edges (repeats, self loops,
        // parallel edges under other labels) from a fixed LCG.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let labels: Vec<Vec<VLabel>> = (0..30u32)
            .map(|v| (0..v % 3).map(|l| VLabel((v + 2 * l) % 7)).collect())
            .collect();
        let edges: Vec<(VertexId, VertexId, ELabel)> = (0..200)
            .map(|_| {
                let [from, to] = [next(30), next(30)].map(|v| VertexId(v as u32));
                (from, to, ELabel(next(5) as u32))
            })
            .collect();
        let mut b = LabeledGraphBuilder::new();
        for ls in &labels {
            b.add_vertex(ls.clone());
        }
        for &(from, to, label) in &edges {
            b.add_edge(from, to, label);
        }
        let g = b.build();

        for (dir, incoming) in [(&g.outgoing, false), (&g.incoming, true)] {
            // Per vertex: edge label → neighbor set, and per (edge label,
            // neighbor label) → neighbor set.
            type Groups<K> = Vec<BTreeMap<K, BTreeSet<VertexId>>>;
            let mut plain: Groups<ELabel> = vec![BTreeMap::new(); 30];
            let mut typed: Groups<(ELabel, VLabel)> = vec![BTreeMap::new(); 30];
            for &(from, to, el) in &edges {
                let (v, w) = if incoming { (to, from) } else { (from, to) };
                plain[v.index()].entry(el).or_default().insert(w);
                for &l in &labels[w.index()] {
                    typed[v.index()].entry((el, l)).or_default().insert(w);
                }
            }
            let (mut targets, mut typed_targets, mut type_groups) = (vec![], vec![], vec![]);
            let (mut groups, mut offsets) = (vec![], vec![0u32]);
            // Common sets in the order first met, the empty set first.
            let mut common_sets: Vec<Vec<VLabel>> = vec![vec![]];
            for v in 0..30 {
                for (&el, neighbors) in &plain[v] {
                    let target_start = targets.len() as u32;
                    targets.extend(neighbors);
                    let type_start = type_groups.len() as u32;
                    let mut common = vec![];
                    for (&(_, vlabel), ns) in
                        typed[v].range((el, VLabel(0))..=(el, VLabel(u32::MAX)))
                    {
                        if ns == neighbors {
                            common.push(vlabel);
                            continue;
                        }
                        let start = typed_targets.len() as u32;
                        typed_targets.extend(ns);
                        let end = typed_targets.len() as u32;
                        type_groups.push(TypeGroup { vlabel, start, end });
                    }
                    let id = match common_sets.iter().position(|set| *set == common) {
                        Some(id) => id,
                        None => {
                            common_sets.push(common);
                            common_sets.len() - 1
                        }
                    };
                    groups.push(ELabelGroup {
                        elabel: el,
                        target_start,
                        type_start,
                        common: id as u32,
                    });
                }
                offsets.push(groups.len() as u32);
            }
            groups.push(ELabelGroup {
                elabel: ELabel(0),
                target_start: targets.len() as u32,
                type_start: type_groups.len() as u32,
                common: 0,
            });
            let mut common_offsets = vec![0u32];
            for set in &common_sets {
                common_offsets.push(common_offsets[common_offsets.len() - 1] + set.len() as u32);
            }
            let degrees: Vec<u32> = (0..30)
                .map(|v| plain[v].values().map(|ns| ns.len() as u32).sum())
                .collect();
            assert_eq!(&*dir.vertex_offsets, &offsets[..]);
            assert_eq!(&*dir.elabel_groups, &groups[..]);
            assert_eq!(&*dir.type_groups, &type_groups[..]);
            assert_eq!(&*dir.targets, &targets[..]);
            assert_eq!(&*dir.typed_targets, &typed_targets[..]);
            assert_eq!(&*dir.degrees, &degrees[..]);
            assert_eq!(&*dir.common_offsets, &common_offsets[..]);
            assert_eq!(&*dir.common_labels, &common_sets.concat()[..]);
        }
        assert_eq!(g.vertex_label_count(), 7);
        assert_eq!(g.edge_label_count(), 5);
    }

    #[test]
    fn type_groups_hold_only_neighbors_carrying_their_label() {
        // u{L1} -p-> a{}, u -p-> w{L0, L2}, w -q-> a.
        let mut b = LabeledGraphBuilder::new();
        let u = b.add_vertex(vec![VLabel(1)]);
        let a = b.add_vertex(vec![]);
        let w = b.add_vertex(vec![VLabel(0), VLabel(2)]);
        b.add_edge(u, a, ELabel(0));
        b.add_edge(u, w, ELabel(0));
        b.add_edge(w, a, ELabel(1));
        let g = b.build();

        for dir in [&g.outgoing, &g.incoming] {
            for i in 0..dir.elabel_groups.len() - 1 {
                let targets = dir.targets_of(i);
                let (group, next) = (&dir.elabel_groups[i], &dir.elabel_groups[i + 1]);
                let c = group.common as usize;
                let common = &dir.common_labels
                    [dir.common_offsets[c] as usize..dir.common_offsets[c + 1] as usize];
                let type_groups =
                    &dir.type_groups[group.type_start as usize..next.type_start as usize];
                for tg in type_groups {
                    // A stored group is a strict, non-empty subset.
                    let typed = &dir.typed_targets[tg.start as usize..tg.end as usize];
                    assert!(!typed.is_empty() && typed.len() < targets.len());
                    assert!(typed.iter().all(|t| targets.contains(t)));
                    assert!(typed.iter().all(|&t| g.has_label(t, tg.vlabel)));
                }
                // The common set plus the stored groups a target is in are
                // exactly its labels.
                for &t in targets {
                    let mut labels = common.to_vec();
                    labels.extend(type_groups.iter().filter_map(|tg| {
                        let typed = &dir.typed_targets[tg.start as usize..tg.end as usize];
                        typed.contains(&t).then_some(tg.vlabel)
                    }));
                    labels.sort_unstable();
                    assert_eq!(labels, g.labels(t));
                }
            }
        }
        // The unlabeled neighbor is reached over its edge label alone.
        assert_eq!(g.neighbors(u, Direction::Outgoing, ELabel(0)), &[a, w]);
        assert_eq!(g.outgoing.typed_targets.len(), 2);
        // Each incoming group's targets all carry the same labels.
        assert!(g.incoming.typed_targets.is_empty());
        assert_eq!(
            g.neighbors_typed(a, Direction::Incoming, ELabel(1), VLabel(2)),
            &[w]
        );
    }
}
