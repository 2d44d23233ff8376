//! Property-based tests over randomly generated data and queries.
//!
//! The central property: four independent SPARQL evaluators — TurboHOM++
//! (type-aware graph), TurboHOM (direct graph), the sort-merge-join engine
//! and the hash-join engine — must report the same number of solutions for
//! any query on any dataset. Additional properties cover the substrates:
//! N-Triples round-tripping, dictionary bijectivity, sorted-set kernels and
//! the inference fixpoint.

use proptest::prelude::*;
use turbohom::engine::{EngineKind, Store};
use turbohom::graph::ops;
use turbohom::graph::VertexId;
use turbohom::rdf::{
    parse_ntriples, serialize_ntriples, Dataset, Dictionary, InferenceEngine, Term,
};

// ---------------------------------------------------------------------------
// Random dataset / query generation helpers
// ---------------------------------------------------------------------------

const CLASSES: [&str; 4] = ["Alpha", "Beta", "Gamma", "Delta"];
const PREDICATES: [&str; 4] = ["links", "owns", "near", "likes"];

fn iri(local: &str) -> String {
    format!("http://prop.example.org/{local}")
}

/// A randomly generated mini dataset: `entities` entities, each with an
/// optional class and a few random edges.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (
        2usize..10,
        proptest::collection::vec((0usize..10, 0usize..4, 0usize..10), 1..40),
        proptest::collection::vec((0usize..10, 0usize..4), 0..10),
    )
        .prop_map(|(entities, edges, types)| {
            let mut ds = Dataset::new();
            for (s, p, o) in edges {
                let s = s % entities;
                let o = o % entities;
                ds.insert_iris(
                    &iri(&format!("e{s}")),
                    &iri(PREDICATES[p]),
                    &iri(&format!("e{o}")),
                );
            }
            for (e, c) in types {
                let e = e % entities;
                ds.insert_iris(
                    &iri(&format!("e{e}")),
                    turbohom::rdf::vocab::RDF_TYPE,
                    &iri(CLASSES[c]),
                );
            }
            ds
        })
}

/// A random connected query of 1–3 triple patterns over the same vocabulary.
/// Patterns are chained through shared variables so the query stays
/// connected (the matcher rejects cartesian products by design).
fn query_strategy() -> impl Strategy<Value = String> {
    (
        1usize..4,
        proptest::collection::vec((0usize..4, proptest::bool::ANY, 0usize..3), 3),
        proptest::option::of(0usize..4),
    )
        .prop_map(|(patterns, spec, class)| {
            let mut body = String::new();
            for (i, &(pred, forward, obj_kind)) in spec.iter().enumerate().take(patterns) {
                let subject = format!("?v{i}");
                let object = match obj_kind {
                    0 => format!("?v{}", i + 1),
                    1 => format!("<{}>", iri("e0")),
                    _ => format!("?v{}", i + 1),
                };
                let (s, o) = if forward {
                    (subject, object)
                } else {
                    (object, subject)
                };
                body.push_str(&format!("{s} <{}> {o} . ", iri(PREDICATES[pred])));
            }
            if let Some(c) = class {
                body.push_str(&format!(
                    "?v0 <{}> <{}> . ",
                    turbohom::rdf::vocab::RDF_TYPE,
                    iri(CLASSES[c])
                ));
            }
            format!("SELECT * WHERE {{ {body} }}")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All four engines agree on the solution count of random queries.
    #[test]
    fn engines_agree_on_random_queries(ds in dataset_strategy(), query in query_strategy()) {
        let store = Store::from_dataset(ds);
        let mut counts = Vec::new();
        for kind in EngineKind::all() {
            match store.execute(&query, kind) {
                Ok(r) => counts.push(r.len()),
                Err(e) => prop_assert!(false, "{} failed: {e} on {query}", kind.label()),
            }
        }
        let first = counts[0];
        prop_assert!(counts.iter().all(|&c| c == first), "counts {counts:?} for {query}");
    }

    /// Parallel execution returns exactly the sequential solution count.
    #[test]
    fn parallel_matches_sequential(ds in dataset_strategy(), query in query_strategy()) {
        let sequential = Store::from_dataset(ds.clone());
        let parallel = Store::from_dataset_with(
            ds,
            turbohom::engine::StoreOptions { inference: false, threads: 3 },
        );
        let a = sequential.execute(&query, EngineKind::TurboHomPlusPlus).unwrap().len();
        let b = parallel.execute(&query, EngineKind::TurboHomPlusPlus).unwrap().len();
        prop_assert_eq!(a, b);
    }

    /// N-Triples serialization round-trips arbitrary datasets.
    #[test]
    fn ntriples_round_trip(ds in dataset_strategy()) {
        let text = serialize_ntriples(&ds);
        let back = parse_ntriples(&text).unwrap();
        prop_assert_eq!(back.len(), ds.len());
    }

    /// Literal escaping in the N-Triples writer round-trips arbitrary strings.
    #[test]
    fn literal_round_trip(s in "[ -~]{0,40}") {
        let mut ds = Dataset::new();
        ds.insert(
            &Term::iri(iri("s")),
            &Term::iri(iri("p")),
            &Term::literal(s.clone()),
        );
        let text = serialize_ntriples(&ds);
        let back = parse_ntriples(&text).unwrap();
        let t = *back.triples.iter().next().unwrap();
        let (_, _, o) = back.decode(&t);
        prop_assert_eq!(o.as_literal().unwrap(), s.as_str());
    }

    /// The dictionary is a bijection between terms and ids.
    #[test]
    fn dictionary_bijection(locals in proptest::collection::vec("[a-z]{1,8}", 1..30)) {
        let mut dict = Dictionary::new();
        let ids: Vec<_> = locals.iter().map(|l| dict.encode(&Term::iri(iri(l)))).collect();
        for (l, id) in locals.iter().zip(&ids) {
            prop_assert_eq!(dict.term(*id), Some(Term::iri(iri(l))));
            prop_assert_eq!(dict.id_of(&Term::iri(iri(l))), Some(*id));
        }
        let distinct: std::collections::HashSet<_> = locals.iter().collect();
        prop_assert_eq!(dict.len(), distinct.len());
    }

    /// Sorted-set intersection/union kernels agree with the naive versions.
    #[test]
    fn set_kernels_match_naive(
        a in proptest::collection::btree_set(0u32..500, 0..60),
        b in proptest::collection::btree_set(0u32..500, 0..60),
    ) {
        let av: Vec<VertexId> = a.iter().map(|&x| VertexId(x)).collect();
        let bv: Vec<VertexId> = b.iter().map(|&x| VertexId(x)).collect();
        let naive_inter: Vec<VertexId> = a.intersection(&b).map(|&x| VertexId(x)).collect();
        let naive_union: Vec<VertexId> = a.union(&b).map(|&x| VertexId(x)).collect();
        prop_assert_eq!(ops::intersect_adaptive(&av, &bv), naive_inter.clone());
        let mut merged = Vec::new();
        ops::intersect_merge_into(&av, &bv, &mut merged);
        prop_assert_eq!(merged, naive_inter.clone());
        prop_assert_eq!(ops::union_sorted(&av, &bv), naive_union);
        prop_assert_eq!(ops::intersect_k(&[&av, &bv]), naive_inter);
    }

    /// Galloping intersection is equivalent to the naive merge on every
    /// input shape — overlapping, subset and disjoint — and so is every
    /// buffer-reusing `_into` kernel, even when the output buffer starts
    /// with stale content.
    #[test]
    fn galloping_matches_naive_merge(
        a in proptest::collection::btree_set(0u32..500, 0..40),
        b in proptest::collection::btree_set(0u32..500, 0..160),
        mode in 0usize..3,
    ) {
        // mode 0: as generated; mode 1: force a ⊆ b; mode 2: force disjoint.
        let mut b = b;
        match mode {
            1 => b.extend(a.iter().copied()),
            2 => {
                b = b.iter().map(|x| x + 1000).collect();
            }
            _ => {}
        }
        let av: Vec<VertexId> = a.iter().map(|&x| VertexId(x)).collect();
        let bv: Vec<VertexId> = b.iter().map(|&x| VertexId(x)).collect();
        let naive: Vec<VertexId> = a.intersection(&b).map(|&x| VertexId(x)).collect();
        // `intersect_galloping_into` requires the smaller list first.
        let (small, large) = if av.len() <= bv.len() { (&av, &bv) } else { (&bv, &av) };
        let mut out = vec![VertexId(u32::MAX); 3]; // stale content must be cleared
        ops::intersect_galloping_into(small, large, &mut out);
        prop_assert_eq!(&out, &naive);
        ops::intersect_merge_into(&av, &bv, &mut out);
        prop_assert_eq!(&out, &naive);
        ops::intersect_adaptive_into(&av, &bv, &mut out);
        prop_assert_eq!(&out, &naive);
        let mut scratch = Vec::new();
        ops::intersect_k_into(&[&av, &bv], &mut out, &mut scratch);
        prop_assert_eq!(&out, &naive);
    }

    /// The inference engine is idempotent (a fixpoint) and monotone.
    #[test]
    fn inference_is_idempotent_and_monotone(ds in dataset_strategy(), classes in proptest::collection::vec((0usize..4, 0usize..4), 0..4)) {
        let mut ds = ds;
        for (a, b) in classes {
            ds.insert_iris(&iri(CLASSES[a]), turbohom::rdf::vocab::RDFS_SUBCLASSOF, &iri(CLASSES[b]));
        }
        let before = ds.len();
        let engine = InferenceEngine::default();
        engine.materialize(&mut ds);
        let after_first = ds.len();
        prop_assert!(after_first >= before);
        let stats = engine.materialize(&mut ds);
        prop_assert_eq!(stats.total(), 0);
        prop_assert_eq!(ds.len(), after_first);
    }

    /// The type-aware transformation never has more vertices or edges than
    /// the direct transformation (Table 1's |V| and |E| reduction).
    #[test]
    fn type_aware_is_never_larger(ds in dataset_strategy()) {
        let aware = turbohom::transform::type_aware_transform(&ds);
        let direct = turbohom::transform::direct_transform(&aware);
        prop_assert!(aware.graph.stats().vertices <= direct.graph.stats().vertices);
        prop_assert!(aware.graph.edge_count() <= direct.graph.edge_count());
    }
}
