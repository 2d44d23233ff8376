//! A variable predicate is matched on the type-aware graph: a vertex's
//! `rdf:type` edges are read from its labels going out and from the inverse
//! label index coming in, and its `rdfs:subClassOf` edges from the graph's
//! sorted schema pairs. TurboHOM++ must answer every such query with the
//! rows of the direct graph (`turbohom`) and of the merge-join baseline, as
//! multisets, on both backends and at one and two worker threads, without
//! building the direct graph. A constant `rdfs:subClassOf` pattern still
//! reads the direct graph, and answers the same.
//!
//! The generated data lacks two shapes, so two triples are added to each
//! dataset: an entity whose only triple is its `rdf:type`, and an ordinary
//! edge from an entity to its own class (the pair is then linked twice).

use std::collections::BTreeMap;
use turbohom_bench::canonical_json;
use turbohom_datasets::{bsbm, lubm};
use turbohom_engine::{EngineKind, QueryResults, ResultRow, Store, Trace};
use turbohom_rdf::{vocab, Dataset, Term};

const RDFS: &str = "http://www.w3.org/2000/01/rdf-schema#";
const SEE_ALSO: &str = "http://example.org/seeAlso";
const LONELY: &str = "http://example.org/lonely";

/// One dataset and the terms its queries are anchored to.
struct Fixture {
    name: &'static str,
    dataset: Dataset,
    /// An entity with an `rdf:type` of `class` and other triples.
    entity: String,
    class: String,
    /// A constant-predicate pattern over `?x`.
    anchor: String,
}

fn fixtures() -> Vec<Fixture> {
    let lubm = lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate();
    let ub = |l: &str| format!("http://swat.cse.lehigh.edu/onto/univ-bench.owl#{l}");
    let bsbm = bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate();
    let fixtures = [
        Fixture {
            name: "LUBM(1)",
            dataset: lubm,
            entity: "http://www.Department0.University0.edu/GraduateStudent0".into(),
            class: ub("GraduateStudent"),
            anchor: format!(
                "?x <{}> <http://www.Department0.University0.edu>",
                ub("memberOf")
            ),
        },
        Fixture {
            name: "BSBM(1)",
            dataset: bsbm,
            entity: format!("{}Product1", bsbm::INST),
            class: format!("{}ProductType1", bsbm::BSBM),
            anchor: format!("?x <{}product> <{}Product1>", bsbm::BSBM, bsbm::INST),
        },
    ];
    fixtures
        .map(|mut f| {
            let ds = &mut f.dataset;
            let entity = ds
                .dictionary
                .id_of_iri(&f.entity)
                .expect("the entity exists");
            let class = ds.dictionary.id_of_iri(&f.class).expect("the class exists");
            let rdf_type = ds.rdf_type_id().unwrap();
            assert!(ds
                .triples
                .iter()
                .any(|t| (t.s, t.p, t.o) == (entity, rdf_type, class)));
            ds.insert_iris(&f.entity, SEE_ALSO, &f.class);
            ds.insert_iris(LONELY, vocab::RDF_TYPE, &f.class);
            f
        })
        .into()
}

/// The queries of one fixture: `(query, whether it has a LIMIT)`.
fn queries(f: &Fixture) -> Vec<(String, bool)> {
    let (entity, class, anchor) = (&f.entity, &f.class, &f.anchor);
    let rdf_type = vocab::RDF_TYPE;
    [
        // BSBM Q11's shape.
        format!("SELECT ?p ?o WHERE {{ <{entity}> ?p ?o . }}"),
        format!("SELECT ?s ?p WHERE {{ ?s ?p <{class}> . }}"),
        // The class's own `rdf:type` and `rdfs:subClassOf` edges.
        format!("SELECT ?p ?o WHERE {{ <{class}> ?p ?o . }}"),
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . }".into(),
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o . } LIMIT 50".into(),
        // An entity whose only triple is its type: from a constant, from
        // every vertex, and from the class's inverse label list.
        format!("SELECT ?p ?o WHERE {{ <{LONELY}> ?p ?o . }}"),
        format!("SELECT ?s ?p WHERE {{ ?s ?p ?o . ?s <{rdf_type}> <{class}> . }}"),
        // Linked by a type edge and an ordinary edge: two rows.
        format!("SELECT ?p WHERE {{ <{entity}> ?p <{class}> . }}"),
        format!("SELECT ?x ?p ?o WHERE {{ {anchor} . ?x ?p ?o . }}"),
        format!("SELECT ?o WHERE {{ <{entity}> ?p ?o . FILTER(?p = <{rdf_type}>) }}"),
        format!("SELECT ?x ?p WHERE {{ {anchor} . OPTIONAL {{ ?x ?p <{class}> . }} }}"),
    ]
    .into_iter()
    .map(|q| {
        let limited = q.contains("LIMIT");
        (q, limited)
    })
    .collect()
}

fn run(store: &Store, query: &str, kind: EngineKind, threads: usize) -> QueryResults {
    let plan = store.prepare(query).unwrap().plan(kind).unwrap();
    if kind == EngineKind::TurboHomPlusPlus && !query.contains("subClassOf") {
        let explain = store.explain(&plan).to_json();
        assert!(explain.contains(r#""graph":"type-aware""#), "{explain}");
        assert!(!explain.contains(r#""graph":"direct""#), "{explain}");
    }
    let results = store.run_plan_traced(&plan, Some(threads), &Trace::disabled());
    results.unwrap().decode()
}

/// Each row of `part` with how often it occurs.
fn multiset(part: &QueryResults) -> BTreeMap<&ResultRow, usize> {
    let mut counts = BTreeMap::new();
    for row in &part.rows {
        *counts.entry(row).or_insert(0) += 1;
    }
    counts
}

#[test]
fn turbohom_plus_plus_matches_variable_predicates_on_the_type_aware_graph() {
    let dir = std::env::temp_dir().join("turbohom-bench-tests");
    std::fs::create_dir_all(&dir).unwrap();
    for f in fixtures() {
        let queries = queries(&f);
        let heap = Store::from_dataset(f.dataset);
        let path = dir.join(format!("variable-predicate-{}.snap", f.name));
        heap.save_snapshot(&path).unwrap();
        let snapshot = Store::from_snapshot(&path).unwrap();
        for store in [&heap, &snapshot] {
            let what = |q: &str| format!("{} {}: {q}", f.name, store.backend_name());
            // TurboHOM++ first: none of its plans builds the direct graph.
            let mut answers = Vec::new();
            for (q, _) in &queries {
                let [one, two] = [1, 2].map(|t| run(store, q, EngineKind::TurboHomPlusPlus, t));
                answers.push((one, two));
            }
            let built = store.builds();
            assert!(built.iter().all(|b| b.structure != "direct"), "{built:?}");

            for ((q, limited), (one, two)) in queries.iter().zip(answers) {
                let direct = run(store, q, EngineKind::TurboHom, 1);
                let merge = run(store, q, EngineKind::MergeJoin, 1);
                assert!(!merge.is_empty(), "{}", what(q));
                if !limited {
                    let expected = canonical_json(merge);
                    assert_eq!(canonical_json(direct), expected, "turbohom, {}", what(q));
                    assert_eq!(canonical_json(one), expected, "1 thread, {}", what(q));
                    assert_eq!(canonical_json(two), expected, "2 threads, {}", what(q));
                    continue;
                }
                // A LIMIT keeps any 50 rows of the answer.
                let unlimited = q.replace(" LIMIT 50", "");
                let all = run(store, &unlimited, EngineKind::MergeJoin, 1);
                let all = multiset(&all);
                for part in [&direct, &merge, &one, &two] {
                    assert_eq!(part.len(), 50, "{}", what(q));
                    for (row, n) in multiset(part) {
                        assert!(all.get(row).is_some_and(|&m| m >= n), "{}", what(q));
                    }
                }
            }
            // The two-edge pair and the lonely entity answer as built.
            let pair = run(store, &queries[7].0, EngineKind::TurboHomPlusPlus, 1);
            let predicates: Vec<_> = pair.column("p").into_iter().cloned().collect();
            let mut predicates: Vec<_> = predicates.iter().map(Term::to_string).collect();
            predicates.sort();
            let expected = [SEE_ALSO, vocab::RDF_TYPE].map(|p| format!("<{p}>"));
            assert_eq!(predicates, expected, "{}", what(&queries[7].0));
            let lonely = run(store, &queries[5].0, EngineKind::TurboHomPlusPlus, 1);
            assert_eq!(lonely.len(), 1, "{}", what(&queries[5].0));

            // A constant `rdfs:subClassOf` pattern still reads the direct graph.
            let q = format!("SELECT ?x ?y WHERE {{ ?x <{RDFS}subClassOf> ?y . }}");
            let answers = [EngineKind::TurboHomPlusPlus, EngineKind::MergeJoin]
                .map(|kind| canonical_json(run(store, &q, kind, 2)));
            assert_eq!(answers[0], answers[1], "{}", what(&q));
        }
        std::fs::remove_file(&path).ok();
    }
}
