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
use turbohom::engine::{EngineKind, Store};
use turbohom::rdf::{Dataset, TermId};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
