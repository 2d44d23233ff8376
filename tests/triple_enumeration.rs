//! The type-aware graph is the triple store: `TransformedGraph::triples`
//! yields the loaded triple set, every triple once — its CSR edges, its
//! label rows as `rdf:type` triples and its subclass pairs — on the heap and
//! from a snapshot, with and without RDFS inference.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use turbohom::datasets::bsbm::{BsbmConfig, BsbmGenerator};
use turbohom::datasets::lubm::{LubmConfig, LubmGenerator};
use turbohom::engine::{Store, StoreOptions};
use turbohom::rdf::{parse_ntriples, vocab, Dataset, InferenceEngine, Triple};

/// The triples a store built from `dataset` holds: the dataset's, closed
/// under RDFS when `inference` is set, sorted.
fn loaded(dataset: &Dataset, inference: bool) -> Vec<Triple> {
    let mut dataset = dataset.clone();
    if inference {
        InferenceEngine::default().materialize(&mut dataset);
    }
    let mut triples = dataset.triples.as_slice().to_vec();
    triples.sort_unstable();
    triples
}

/// What the store's type-aware graph enumerates, sorted: a multiset, so a
/// triple yielded twice is a difference too.
fn enumerated(store: &Store) -> Vec<Triple> {
    let mut triples: Vec<Triple> = store.type_aware_graph().triples().collect();
    triples.sort_unstable();
    triples
}

/// Builds the store on the heap and maps a snapshot of it; both must
/// enumerate exactly the loaded triples and count them.
fn check(dataset: &Dataset, inference: bool) -> Result<(), String> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let expected = loaded(dataset, inference);
    let options = StoreOptions {
        inference,
        threads: 1,
    };
    let heap = Store::from_dataset_with(dataset.clone(), options);
    let dir = std::env::temp_dir().join("turbohom-triple-enumeration");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let file = FILES.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{}-{file}.snap", std::process::id()));
    heap.save_snapshot(&path).map_err(|e| e.to_string())?;
    let mapped = Store::from_snapshot(&path).map_err(|e| e.to_string());
    std::fs::remove_file(&path).ok();
    let mapped = mapped?;
    for (backend, store) in [("heap", &heap), ("snapshot", &mapped)] {
        let found = enumerated(store);
        if found != expected {
            let missing = expected.iter().find(|t| found.binary_search(t).is_err());
            let extra = found.iter().find(|t| expected.binary_search(t).is_err());
            return Err(format!(
                "{backend}, inference {inference}: {} triples enumerated, {} loaded; \
                 first missing {missing:?}, first extra {extra:?}",
                found.len(),
                expected.len()
            ));
        }
        if store.triple_count() != expected.len() {
            return Err(format!(
                "{backend}, inference {inference}: triple_count {} for {} triples",
                store.triple_count(),
                expected.len()
            ));
        }
    }
    Ok(())
}

#[test]
fn the_generated_benchmarks_enumerate_their_triples() {
    let lubm = LubmGenerator::new(LubmConfig::scale(1)).generate();
    let bsbm = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
    for (name, dataset) in [("LUBM(1)", &lubm), ("BSBM(1)", &bsbm)] {
        for inference in [false, true] {
            check(dataset, inference).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

const SCHEMA: [&str; 5] = [
    vocab::RDF_TYPE,
    vocab::RDFS_SUBCLASSOF,
    vocab::RDFS_SUBPROPERTYOF,
    vocab::RDFS_DOMAIN,
    vocab::RDFS_RANGE,
];

/// One N-Triples line over a small vocabulary, so that lines repeat: a
/// subject among six IRIs (the classes among them, so a class can also be
/// an entity), a predicate that is one of the five schema predicates or one
/// of three others, and an object that is an IRI (half the time) or a plain,
/// typed or language-tagged literal.
fn line() -> impl Strategy<Value = String> {
    (0usize..6, 0usize..8, 0usize..6, 0usize..6).prop_map(|(s, p, kind, o)| {
        let predicate = match SCHEMA.get(p) {
            Some(schema) => schema.to_string(),
            None => format!("http://ex.org/p{p}"),
        };
        let object = match kind {
            0..=2 => format!("<http://ex.org/n{o}>"),
            3 => format!("\"v{}\"", o % 3),
            4 => format!("\"{o}\"^^<{}>", vocab::XSD_INTEGER),
            _ => format!("\"w{}\"@en", o % 2),
        };
        format!("<http://ex.org/n{s}> <{predicate}> {object} .")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random N-Triples — duplicate lines, literal objects, schema triples
    /// (a literal class or superclass included) — enumerate their triple
    /// set with inference off and on.
    #[test]
    fn random_ntriples_enumerate_their_triples(
        lines in proptest::collection::vec(line(), 0..48),
        repeats in proptest::collection::vec(0usize..48, 0..8),
    ) {
        let mut document = lines.clone();
        if !lines.is_empty() {
            document.extend(repeats.iter().map(|&i| lines[i % lines.len()].clone()));
        }
        let dataset = parse_ntriples(&document.join("\n")).unwrap();
        for inference in [false, true] {
            prop_assert_eq!(check(&dataset, inference), Ok(()));
        }
    }
}
