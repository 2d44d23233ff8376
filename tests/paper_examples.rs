//! Integration tests over the paper's worked examples (Figures 1, 2, 3/5/8).

use turbohom::core::{MatchSemantics, TurboHomConfig, TurboHomEngine};
use turbohom::datasets::micro;
use turbohom::engine::{EngineKind, Store, StoreOptions};
use turbohom::sparql::parse_query;
use turbohom::transform::{direct_transform, transform_branch, type_aware_transform};

/// Figure 1: the query has exactly one subgraph isomorphism and three
/// e-graph homomorphisms in the data graph.
#[test]
fn figure1_isomorphism_vs_homomorphism_counts() {
    let ds = micro::figure1();
    let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
    let query = parse_query(&micro::figure1_query().sparql).unwrap();
    let tq = transform_branch(&query.pattern, &data, &ds.dictionary)
        .unwrap()
        .components
        .remove(0);

    let hom = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
        .execute(&tq)
        .unwrap();
    assert_eq!(hom.solution_count, 3);

    let iso = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::isomorphism())
        .execute(&tq)
        .unwrap();
    assert_eq!(iso.solution_count, 1);
    assert_eq!(iso.stats.solutions, 1);
    assert_eq!(
        TurboHomConfig::isomorphism().semantics,
        MatchSemantics::Isomorphism
    );
}

/// Figure 1 through the high-level store API, cross-checked against the
/// join-based baselines (which implement the homomorphism semantics too).
#[test]
fn figure1_cross_engine_agreement() {
    let store = Store::from_dataset(micro::figure1());
    let q = micro::figure1_query();
    for kind in EngineKind::all() {
        let result = store.execute(&q.sparql, kind).unwrap();
        assert_eq!(result.len(), 3, "{}", kind.label());
    }
}

/// Figure 2: the candidate-region statistics reflect the good matching order
/// (the Z path before the X and Y paths), which is what makes the good order
/// "1 + 5 * 10" comparisons instead of "1 + 10000 * 10 * 5".
#[test]
fn figure2_matching_order_effect_shows_in_stats() {
    let ds = micro::figure2(10, 200, 5);
    let store = Store::from_dataset(ds);
    let q = micro::figure2_query();
    let result = store
        .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
        .unwrap();
    // 10 × 200 × 5 combinations exist (the query is a star with independent
    // branches), and all engines agree.
    assert_eq!(result.len(), 10 * 200 * 5);
    let join = store.execute(&q.sparql, EngineKind::MergeJoin).unwrap();
    assert_eq!(join.len(), result.len());
}

/// Figure 3 → Figure 4 / Figure 7: the direct transformation keeps every
/// subject/object as a vertex while the type-aware transformation folds the
/// class vertices away (9 → 5 vertices, 9 → 5 edges for the running example).
/// Both lay out a row per term, so a vertex is a row with an edge or a label.
#[test]
fn figure3_transformation_sizes() {
    let ds = micro::figure3();
    let aware = type_aware_transform(ds.triples.clone(), &ds.dictionary);
    let direct = direct_transform(&aware);
    assert_eq!(direct.graph.stats().vertices, 9);
    assert_eq!(direct.graph.edge_count(), 9);
    assert_eq!(aware.graph.stats().vertices, 5);
    assert_eq!(aware.graph.edge_count(), 5);
    assert_eq!(aware.graph.vertex_label_count(), 4);
}

/// Figure 5 / Figure 8: the triangle query returns the same (single) answer
/// under both transformations and all engines.
#[test]
fn figure5_query_agrees_across_transformations_and_engines() {
    let store = Store::from_dataset_with(micro::figure3(), StoreOptions { inference: true });
    let q = micro::figure3_query();
    for kind in EngineKind::all() {
        let result = store.execute(&q.sparql, kind).unwrap();
        assert_eq!(result.len(), 1, "{}", kind.label());
        let binding: Vec<_> = result.iter_bindings().collect();
        assert_eq!(
            binding[0]["X"],
            &turbohom::rdf::Term::iri("http://example.org/student1")
        );
    }
}

/// The type-aware transformed query of Figure 8 has three vertices and three
/// edges (the six-vertex direct query of Figure 5b shrinks to a triangle).
#[test]
fn figure8_query_graph_shape() {
    let ds = {
        let mut ds = micro::figure3();
        turbohom::rdf::InferenceEngine::default().materialize(&mut ds);
        ds
    };
    let aware = type_aware_transform(ds.triples.clone(), &ds.dictionary);
    let direct = direct_transform(&aware);
    let query = parse_query(&micro::figure3_query().sparql).unwrap();
    let tq_aware = transform_branch(&query.pattern, &aware, &ds.dictionary)
        .unwrap()
        .components
        .remove(0);
    let tq_direct = transform_branch(&query.pattern, &direct, &ds.dictionary)
        .unwrap()
        .components
        .remove(0);
    assert_eq!(tq_aware.graph.vertex_count(), 3);
    assert_eq!(tq_aware.graph.edge_count(), 3);
    assert_eq!(tq_direct.graph.vertex_count(), 6);
    assert_eq!(tq_direct.graph.edge_count(), 6);
}
