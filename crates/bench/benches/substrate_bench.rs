//! Criterion micro-benchmarks for the substrates: dictionary encoding,
//! sorted-set kernels (the heart of the +INT optimization), CSR construction,
//! the two data-graph transformations and the adjacency lookups the matcher
//! reads (`substrate_adjacency`, which sets the graph's scan bound).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_graph::{ops, Direction, ELabel, LabeledGraph, LabeledGraphBuilder, VLabel, VertexId};
use turbohom_rdf::{Dictionary, Term};
use turbohom_transform::{direct_transform, type_aware_transform};

fn configure(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(500));
}

fn dictionary_encoding(c: &mut Criterion) {
    let terms: Vec<Term> = (0..20_000)
        .map(|i| Term::iri(format!("http://bench.example.org/entity/{i}")))
        .collect();
    let mut group = c.benchmark_group("substrate_dictionary");
    configure(&mut group);
    group.bench_function("encode_20k_terms", |b| {
        b.iter(|| {
            let mut dict = Dictionary::with_capacity(terms.len());
            for t in &terms {
                dict.encode(t);
            }
            dict.len()
        });
    });
    group.finish();
}

fn sorted_set_kernels(c: &mut Criterion) {
    let large: Vec<VertexId> = (0..100_000).map(|i| VertexId(i * 2)).collect();
    let small: Vec<VertexId> = (0..1_000).map(|i| VertexId(i * 173)).collect();
    let medium: Vec<VertexId> = (0..50_000).map(|i| VertexId(i * 3)).collect();
    let mut group = c.benchmark_group("substrate_set_kernels");
    configure(&mut group);
    group.bench_function("intersect_skewed_galloping", |b| {
        b.iter(|| ops::intersect_adaptive(&small, &large).len());
    });
    group.bench_function("intersect_balanced_merge", |b| {
        b.iter(|| ops::intersect_adaptive(&medium, &large).len());
    });
    group.bench_function("intersect_3way", |b| {
        b.iter(|| ops::intersect_k(&[&small, &medium, &large]).len());
    });
    group.bench_function("union", |b| {
        b.iter(|| ops::union_sorted(&small, &medium).len());
    });
    group.finish();
}

fn transformations(c: &mut Criterion) {
    let dataset = LubmGenerator::new(LubmConfig::scale(4)).generate();
    let mut group = c.benchmark_group("substrate_transformations");
    configure(&mut group);
    group.bench_with_input(
        BenchmarkId::new("direct_transform", dataset.len()),
        &type_aware_transform(dataset.triples.clone(), &dataset.dictionary),
        |b, aware| {
            b.iter(|| direct_transform(aware).graph.edge_count());
        },
    );
    group.bench_with_input(
        BenchmarkId::new("type_aware_transform", dataset.len()),
        &dataset,
        |b, ds| {
            // The transformation consumes its triples: each iteration times
            // a copy of the table beside the build.
            b.iter(|| {
                type_aware_transform(ds.triples.clone(), &ds.dictionary)
                    .graph
                    .edge_count()
            });
        },
    );
    group.finish();
}

/// One `adj(v, (el, vl))` lookup: `vl` is a label of the group's first
/// neighbor, so a typed lookup finds a stored group or the common set.
type Lookup = (VertexId, Direction, ELabel, VLabel);

/// The lookups the matcher makes of `graph`'s adjacency: one per
/// (vertex, direction, edge-label group) whose first neighbor has a label,
/// those of one (direction, edge label) together, as a query edge reads
/// them over its candidates, and their vertices in a fixed shuffled order.
fn lookups(graph: &LabeledGraph) -> Vec<Lookup> {
    let mut out = Vec::new();
    for v in graph.vertices() {
        for dir in [Direction::Outgoing, Direction::Incoming] {
            for (el, targets) in graph.groups(v, dir, None) {
                if let Some(&vl) = graph.labels(targets[0]).first() {
                    out.push((v, dir, el, vl));
                }
            }
        }
    }
    // Multiplying by an odd constant permutes the `u32` vertex ids.
    out.sort_unstable_by_key(|&(v, dir, el, _)| {
        (
            dir == Direction::Incoming,
            el,
            v.0.wrapping_mul(0x9E37_79B1),
        )
    });
    out
}

/// A graph whose vertex 0 has `groups` outgoing edge-label groups, over
/// the even edge labels `0, 2, ..`, each to one neighbor of its own.
fn wide_vertex(groups: u32) -> LabeledGraph {
    let mut b = LabeledGraphBuilder::new();
    let hub = b.add_vertex(vec![]);
    for g in 0..groups {
        let target = b.add_vertex(vec![]);
        b.add_edge(hub, target, ELabel(2 * g));
    }
    b.build()
}

fn adjacency(c: &mut Criterion) {
    let dataset = LubmGenerator::new(LubmConfig::scale(8)).generate();
    let graph = type_aware_transform(dataset.triples.clone(), &dataset.dictionary).graph;
    let lookups = lookups(&graph);
    let mut group = c.benchmark_group("substrate_adjacency");
    configure(&mut group);
    group.bench_with_input(
        BenchmarkId::new("neighbors", lookups.len()),
        &lookups,
        |b, lookups| {
            b.iter(|| {
                (lookups.iter())
                    .map(|&(v, dir, el, _)| graph.neighbors(v, dir, el).len())
                    .sum::<usize>()
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("neighbors_typed", lookups.len()),
        &lookups,
        |b, lookups| {
            b.iter(|| {
                (lookups.iter())
                    .map(|&(v, dir, el, vl)| graph.neighbors_typed(v, dir, el, vl).len())
                    .sum::<usize>()
            });
        },
    );
    // One vertex, 1,024 lookups of each edge label below twice its group
    // count in turn: half of them hit.
    for groups in [4u32, 8, 16, 32, 64, 256] {
        let wide = wide_vertex(groups);
        let labels: Vec<ELabel> = (0..1024).map(|i| ELabel(i % (2 * groups))).collect();
        group.bench_with_input(BenchmarkId::new("groups", groups), &labels, |b, labels| {
            b.iter(|| {
                (labels.iter())
                    .map(|&el| wide.neighbors(VertexId(0), Direction::Outgoing, el).len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    dictionary_encoding,
    sorted_set_kernels,
    transformations,
    adjacency
);
criterion_main!(benches);
