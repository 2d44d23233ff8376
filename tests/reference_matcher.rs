//! A brute-force reference implementation of SPARQL basic graph pattern
//! matching, used to validate TurboHOM++ independently of the join-based
//! baselines (which share the `turbohom-sparql` algebra with it).
//!
//! The reference matcher enumerates variable bindings by plain backtracking
//! over the raw triple list — no indexes, no transformations, no pruning —
//! so any agreement with the optimized engines is meaningful evidence of
//! correctness, and any disagreement pinpoints a semantics bug.

use proptest::prelude::*;
use std::collections::HashMap;
use turbohom::core::{MatchSemantics, Optimizations, TurboHomConfig};
use turbohom::engine::{EngineKind, Store, StoreOptions};
use turbohom::rdf::{vocab, Dataset, TermId};
use turbohom::sparql::{parse_query, SparqlTerm, TriplePattern};

/// Counts the solutions of a (union-free, OPTIONAL-free, FILTER-free) BGP by
/// brute-force backtracking over the dataset's triples.
fn brute_force_count(dataset: &Dataset, patterns: &[TriplePattern]) -> usize {
    fn resolve(
        dataset: &Dataset,
        term: &SparqlTerm,
        bindings: &HashMap<String, TermId>,
    ) -> Option<Option<TermId>> {
        match term {
            SparqlTerm::Variable(v) => Some(bindings.get(v).copied()),
            SparqlTerm::Constant(t) => dataset.dictionary.id_of(t).map(Some),
        }
    }

    fn recurse(
        dataset: &Dataset,
        patterns: &[TriplePattern],
        index: usize,
        bindings: &mut HashMap<String, TermId>,
    ) -> usize {
        if index == patterns.len() {
            return 1;
        }
        let pattern = &patterns[index];
        // A constant that is not even in the dictionary can never match.
        let Some(subject) = resolve(dataset, &pattern.subject, bindings) else {
            return 0;
        };
        let Some(predicate) = resolve(dataset, &pattern.predicate, bindings) else {
            return 0;
        };
        let Some(object) = resolve(dataset, &pattern.object, bindings) else {
            return 0;
        };
        let mut total = 0usize;
        for triple in dataset.triples.iter() {
            if subject.is_some_and(|s| s != triple.s)
                || predicate.is_some_and(|p| p != triple.p)
                || object.is_some_and(|o| o != triple.o)
            {
                continue;
            }
            // Bind the free variables of this pattern, watching out for
            // repeated variables inside a single pattern.
            let mut added: Vec<String> = Vec::new();
            let mut consistent = true;
            for (term, value) in [
                (&pattern.subject, triple.s),
                (&pattern.predicate, triple.p),
                (&pattern.object, triple.o),
            ] {
                if let SparqlTerm::Variable(v) = term {
                    match bindings.get(v) {
                        Some(&bound) if bound != value => {
                            consistent = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            bindings.insert(v.clone(), value);
                            added.push(v.clone());
                        }
                    }
                }
            }
            if consistent {
                total += recurse(dataset, patterns, index + 1, bindings);
            }
            for v in added {
                bindings.remove(&v);
            }
        }
        total
    }

    let mut bindings = HashMap::new();
    recurse(dataset, patterns, 0, &mut bindings)
}

const PREDS: [&str; 3] = ["p", "q", "r"];

fn iri(local: &str) -> String {
    format!("http://ref.example.org/{local}")
}

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (
        2usize..8,
        proptest::collection::vec((0usize..8, 0usize..3, 0usize..8), 1..30),
    )
        .prop_map(|(entities, edges)| {
            let mut ds = Dataset::new();
            for (s, p, o) in edges {
                ds.insert_iris(
                    &iri(&format!("n{}", s % entities)),
                    &iri(PREDS[p]),
                    &iri(&format!("n{}", o % entities)),
                );
            }
            ds.dedup();
            ds
        })
}

/// Chain-shaped queries `?v0 --p--> ?v1 --q--> ?v2 ...` with optional
/// constants at either end, guaranteed connected, and now and then a self
/// loop (constant or variable predicate) on one of the chain's variables —
/// which may be the one the matcher starts from.
fn query_strategy() -> impl Strategy<Value = String> {
    (
        1usize..4,
        proptest::collection::vec((0usize..3, proptest::bool::ANY), 3),
        proptest::option::of(0usize..8),
        proptest::option::of((0usize..3, proptest::option::of(0usize..3))),
    )
        .prop_map(|(len, spec, end_constant, self_loop)| {
            let mut body = String::new();
            for (i, &(p, forward)) in spec.iter().enumerate().take(len) {
                let from = format!("?v{i}");
                let to = if i + 1 == len {
                    match end_constant {
                        Some(c) => format!("<{}>", iri(&format!("n{c}"))),
                        None => format!("?v{}", i + 1),
                    }
                } else {
                    format!("?v{}", i + 1)
                };
                let (s, o) = if forward { (from, to) } else { (to, from) };
                body.push_str(&format!("{s} <{}> {o} . ", iri(PREDS[p])));
            }
            if let Some((vertex, predicate)) = self_loop {
                let v = format!("?v{}", vertex % len);
                let predicate = match predicate {
                    Some(p) => format!("<{}>", iri(PREDS[p])),
                    None => "?loop".to_string(),
                };
                body.push_str(&format!("{v} {predicate} {v} . "));
            }
            format!("SELECT * WHERE {{ {body} }}")
        })
}

const CLASSES: [&str; 2] = ["A", "B"];

/// The datasets of [`dataset_strategy`] plus class assertions over `A ⊑ B`.
/// Half of them are schema-regular the way RDF data is — every subject of
/// `p` an `A`, every object of `q` a `B` — which is when a predicate implies
/// a label; the other half carry whatever types were drawn.
fn typed_dataset_strategy() -> impl Strategy<Value = Dataset> {
    (
        dataset_strategy(),
        proptest::collection::vec((0usize..8, 0usize..2), 0..8),
        proptest::bool::ANY,
    )
        .prop_map(|(mut ds, types, regular)| {
            ds.insert_iris(&iri("A"), vocab::RDFS_SUBCLASSOF, &iri("B"));
            for (entity, class) in types {
                ds.insert_iris(
                    &iri(&format!("n{entity}")),
                    vocab::RDF_TYPE,
                    &iri(CLASSES[class]),
                );
            }
            ds.dedup();
            if regular {
                let p = ds.dictionary.id_of_iri(&iri("p"));
                let q = ds.dictionary.id_of_iri(&iri("q"));
                let typed: Vec<(TermId, &str)> = ds
                    .triples
                    .iter()
                    .filter_map(|t| match Some(t.p) {
                        pred if pred == p => Some((t.s, "A")),
                        pred if pred == q => Some((t.o, "B")),
                        _ => None,
                    })
                    .collect();
                for (entity, class) in typed {
                    let entity = ds
                        .dictionary
                        .term(entity)
                        .unwrap()
                        .as_iri()
                        .unwrap()
                        .to_string();
                    ds.insert_iris(&entity, vocab::RDF_TYPE, &iri(class));
                }
            }
            ds.dedup();
            ds
        })
}

/// The chains of [`query_strategy`] — some with a closing edge, which +INT
/// verifies by intersection — whose variables may be typed and whose
/// predicates may be variables (such a query runs over the direct graph).
fn typed_query_strategy() -> impl Strategy<Value = String> {
    (
        1usize..4,
        proptest::collection::vec(
            (
                proptest::option::of(0usize..3),
                proptest::bool::ANY,
                proptest::option::of(0usize..2),
            ),
            4,
        ),
        0usize..6,
    )
        .prop_map(|(len, spec, closing)| {
            let predicate = |p: Option<usize>, i: usize| match p {
                Some(p) => format!("<{}>", iri(PREDS[p])),
                None => format!("?e{i}"),
            };
            let mut body = String::new();
            for (i, &(p, forward, class)) in spec.iter().enumerate().take(len + 1) {
                if let Some(class) = class {
                    let rdf_type = vocab::RDF_TYPE;
                    body.push_str(&format!("?v{i} <{rdf_type}> <{}> . ", iri(CLASSES[class])));
                }
                if i < len {
                    let (from, to) = (format!("?v{i}"), format!("?v{}", i + 1));
                    let (s, o) = if forward { (from, to) } else { (to, from) };
                    body.push_str(&format!("{s} {} {o} . ", predicate(p, i)));
                }
            }
            if closing < PREDS.len() && len > 1 {
                body.push_str(&format!("?v0 <{}> ?v{len} . ", iri(PREDS[closing])));
            }
            format!("SELECT * WHERE {{ {body} }}")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `+SUM` on and off agree with each other under homomorphism and
    /// isomorphism, with the RDFS closure materialized and without it, on the
    /// type-aware and the direct graph, with constant and variable
    /// predicates — and, wherever the brute-force matcher defines the answer
    /// (homomorphism), with it.
    #[test]
    fn schema_summary_on_and_off_agree_with_the_oracle_and_each_other(
        ds in typed_dataset_strategy(),
        sparql in typed_query_strategy(),
    ) {
        let patterns = parse_query(&sparql).unwrap().pattern.triples;
        // Each store is matched against its own triples: the closure, or the
        // asserted triples alone.
        let options = StoreOptions { inference: true };
        let closed = Store::from_dataset_with(ds.clone(), options);
        let asserted = Store::from_dataset(ds);
        for (flavour, store) in [("closed", &closed), ("asserted", &asserted)] {
            let expected = brute_force_count(store.dataset(), &patterns);
            for semantics in [MatchSemantics::Homomorphism, MatchSemantics::Isomorphism] {
                for force_direct in [false, true] {
                    let found = [true, false].map(|schema_summary| {
                        let config = TurboHomConfig {
                            semantics,
                            optimizations: Optimizations { schema_summary, ..Optimizations::all() },
                            ..TurboHomConfig::default()
                        };
                        store.execute_turbohom(&sparql, config, force_direct).unwrap().len()
                    });
                    let setting = (flavour, semantics, force_direct);
                    prop_assert_eq!(found[0], found[1], "+SUM on/off differ: {:?} {}", setting, sparql);
                    if semantics == MatchSemantics::Homomorphism {
                        prop_assert_eq!(found[0], expected, "oracle differs: {:?} {}", setting, sparql);
                    } else {
                        prop_assert!(found[0] <= expected, "{:?} {}", setting, sparql);
                    }
                }
            }
        }
    }

    /// TurboHOM++ (and the plain TurboHOM) agree with the brute-force
    /// reference matcher on every random chain query.
    #[test]
    fn turbohom_matches_brute_force(ds in dataset_strategy(), sparql in query_strategy()) {
        let parsed = parse_query(&sparql).unwrap();
        let expected = brute_force_count(&ds, &parsed.pattern.triples);
        let store = Store::from_dataset(ds);
        let plus = store.execute(&sparql, EngineKind::TurboHomPlusPlus).unwrap().len();
        let plain = store.execute(&sparql, EngineKind::TurboHom).unwrap().len();
        prop_assert_eq!(plus, expected, "TurboHOM++ differs on {}", sparql);
        prop_assert_eq!(plain, expected, "TurboHOM differs on {}", sparql);
    }

    /// The join engines agree with the brute-force reference as well, which
    /// closes the loop: every engine is validated against an implementation
    /// that shares no code with it beyond the parser.
    #[test]
    fn baselines_match_brute_force(ds in dataset_strategy(), sparql in query_strategy()) {
        let parsed = parse_query(&sparql).unwrap();
        let expected = brute_force_count(&ds, &parsed.pattern.triples);
        let store = Store::from_dataset(ds);
        let merge = store.execute(&sparql, EngineKind::MergeJoin).unwrap().len();
        let hash = store.execute(&sparql, EngineKind::HashJoin).unwrap().len();
        prop_assert_eq!(merge, expected, "MergeJoin differs on {}", sparql);
        prop_assert_eq!(hash, expected, "HashJoin differs on {}", sparql);
    }
}

/// A deterministic spot check so failures here do not depend on proptest
/// shrinking: the Figure 1 example counted by the brute-force matcher.
#[test]
fn brute_force_counts_figure1_homomorphisms() {
    let ds = turbohom::datasets::micro::figure1();
    let q = turbohom::datasets::micro::figure1_query();
    let parsed = parse_query(&q.sparql).unwrap();
    assert_eq!(brute_force_count(&ds, &parsed.pattern.triples), 3);
}
