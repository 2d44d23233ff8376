//! Criterion micro-benchmarks for the substrates: dictionary encoding,
//! sorted-set kernels (the heart of the +INT optimization), CSR construction
//! and the two data-graph transformations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom_graph::{ops, VertexId};
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

criterion_group!(
    benches,
    dictionary_encoding,
    sorted_set_kernels,
    transformations
);
criterion_main!(benches);
