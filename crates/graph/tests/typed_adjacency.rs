//! The typed access paths answer what the plain ones imply, whatever the
//! layout stores: `adj(v, (el, L))` is `adj(v, el)` filtered by `L`, and so
//! is each of `v`'s groups read with `L`.

use proptest::prelude::*;
use turbohom_graph::{Direction, ELabel, LabeledGraph, LabeledGraphBuilder, VLabel, VertexId};

const LABELS: u32 = 5;
const ELABELS: u32 = 4;

/// A graph over `labels.len()` vertices; a label set is a bit mask over
/// `0..LABELS`.
fn build(labels: &[u8], edges: &[(usize, usize, u32)]) -> LabeledGraph {
    let mut b = LabeledGraphBuilder::new();
    let ids: Vec<VertexId> = (labels.iter())
        .map(|&mask| {
            b.add_vertex(
                (0..LABELS)
                    .filter(|l| mask >> l & 1 == 1)
                    .map(VLabel)
                    .collect(),
            )
        })
        .collect();
    for &(from, to, el) in edges {
        b.add_edge(ids[from % ids.len()], ids[to % ids.len()], ELabel(el));
    }
    b.build()
}

fn snapshot_round_trip(g: &LabeledGraph, name: &str) -> LabeledGraph {
    let mut w = turbohom_storage::SnapshotWriter::new();
    g.write_sections(&mut w);
    let path = std::env::temp_dir().join(format!("turbohom-{name}-{}.snap", std::process::id()));
    w.write_to(&path).unwrap();
    let snap = turbohom_storage::Snapshot::open(&path).unwrap();
    let read = LabeledGraph::read_sections(&mut snap.cursor()).unwrap();
    std::fs::remove_file(&path).unwrap();
    read
}

/// Checks the invariant on every `(v, direction, el, L)`, one label and one
/// edge label past the largest included.
fn check(g: &LabeledGraph) {
    for v in g.vertices() {
        for dir in [Direction::Outgoing, Direction::Incoming] {
            for l in (0..=LABELS).map(VLabel) {
                let mut groups = Vec::new();
                for el in (0..=ELABELS).map(ELabel) {
                    let carrying: Vec<VertexId> = (g.neighbors(v, dir, el).iter())
                        .copied()
                        .filter(|&t| g.has_label(t, l))
                        .collect();
                    prop_assert_eq!(g.neighbors_typed(v, dir, el, l), &carrying[..]);
                    if !g.neighbors(v, dir, el).is_empty() {
                        groups.push((el, carrying));
                    }
                }
                let read: Vec<_> = (g.groups(v, dir, Some(l)))
                    .map(|(el, targets)| (el, targets.to_vec()))
                    .collect();
                prop_assert_eq!(read, groups);
            }
        }
    }
}

proptest! {
    #[test]
    fn typed_neighbors_are_the_neighbors_carrying_the_label(
        labels in proptest::collection::vec(0u8..1 << LABELS, 1..24),
        edges in proptest::collection::vec((0usize..24, 0usize..24, 0..ELABELS), 0..120),
    ) {
        let g = build(&labels, &edges);
        check(&g);
        let read = snapshot_round_trip(&g, "typed-adjacency");
        prop_assert_eq!(&read, &g);
        check(&read);
    }
}
