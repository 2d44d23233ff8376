//! TurboHOM++ matches every query on the type-aware graph. A vertex's
//! `rdf:type` edges are read from its labels going out and from the inverse
//! label index coming in, and its `rdfs:subClassOf` edges from the graph's
//! sorted schema pairs. They are read for a variable predicate and for every
//! schema pattern a query vertex's labels cannot hold: a variable class, a
//! type pattern inside an OPTIONAL and an `rdfs:subClassOf` pattern, each an
//! edge with its folded label. TurboHOM++ must answer every such query with
//! the rows of the direct graph (`turbohom`) and of the merge-join baseline,
//! as multisets, on both backends, at one and two worker threads and with
//! every optimization switch alone, without building the direct graph.
//!
//! The generated data lacks some shapes, so a few triples are added to each
//! generated dataset: an entity whose only triple is its `rdf:type`, one
//! whose only class is a literal, an ordinary edge from an entity to its own
//! class (the pair is then linked twice) and a class typed as itself. A small
//! hand-written graph has them too, and is loaded with and without RDFS
//! inference and without each of the two schema predicates.

use std::collections::BTreeMap;
use turbohom_bench::canonical_json;
use turbohom_core::{OptimizationName, Optimizations, TurboHomConfig};
use turbohom_datasets::{bsbm, lubm};
use turbohom_engine::{EngineKind, QueryResults, ResultRow, Store, StoreOptions, Trace};
use turbohom_rdf::{parse_ntriples, vocab, Dataset, Term};

const SEE_ALSO: &str = "http://example.org/seeAlso";
const LONELY: &str = "http://example.org/lonely";
const ODDITY: &str = "http://example.org/oddity";
const LITERAL_CLASS: &str = "a literal class";

/// One dataset and the terms its queries are anchored to.
struct Fixture {
    name: &'static str,
    dataset: Dataset,
    /// Whether the store materializes the RDFS closure at load.
    inference: bool,
    /// Whether the data has both schema predicates, so that every query
    /// has an answer.
    complete: bool,
    /// An entity with an `rdf:type` of `class` and other triples.
    entity: String,
    class: String,
    /// A class `class` is an `rdfs:subClassOf`.
    superclass: String,
    /// A constant-predicate pattern over `?x`.
    anchor: String,
    /// An OPTIONAL group over `?x` with a constant-class type pattern.
    optional: String,
}

/// A hand-written graph: a three-level class hierarchy, a class typed as
/// itself, an untyped entity and a literal class, in N-Triples.
fn pets_ntriples() -> String {
    let ex = |l: &str| format!("<http://example.org/pets/{l}>");
    let [ty, sub] = [vocab::RDF_TYPE, vocab::RDFS_SUBCLASSOF].map(|p| format!("<{p}>"));
    let [see_also, lonely, oddity] = [SEE_ALSO, LONELY, ODDITY].map(|iri| format!("<{iri}>"));
    [
        [ex("Puppy"), sub.clone(), ex("Dog")],
        [ex("Dog"), sub.clone(), ex("Animal")],
        [ex("Cat"), sub.clone(), ex("Animal")],
        [ex("Animal"), ty.clone(), ex("Animal")],
        [ex("Dog"), ty.clone(), ex("Class")],
        [ex("rex"), ty.clone(), ex("Puppy")],
        [ex("rex"), ty.clone(), ex("Pet")],
        [ex("rex"), ex("owner"), ex("alice")],
        [ex("rex"), ex("name"), "\"Rex\"".into()],
        [ex("rex"), see_also, ex("Puppy")],
        [ex("tom"), ty.clone(), ex("Cat")],
        [ex("tom"), ex("owner"), ex("alice")],
        [ex("tom"), ex("name"), "\"Tom\"".into()],
        [ex("bob"), ex("owner"), ex("alice")],
        [ex("alice"), ty.clone(), ex("Person")],
        [lonely, ty.clone(), ex("Puppy")],
        [oddity, ty, format!("\"{LITERAL_CLASS}\"")],
    ]
    .map(|triple| triple.join(" ") + " .\n")
    .concat()
}

fn fixtures() -> Vec<Fixture> {
    let lubm = lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate();
    let ub = |l: &str| format!("http://swat.cse.lehigh.edu/onto/univ-bench.owl#{l}");
    let bsbm = bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate();
    let generated = [
        Fixture {
            name: "LUBM(1)",
            dataset: lubm,
            inference: false,
            complete: true,
            entity: "http://www.Department0.University0.edu/GraduateStudent0".into(),
            class: ub("GraduateStudent"),
            superclass: ub("Student"),
            anchor: format!(
                "?x <{}> <http://www.Department0.University0.edu>",
                ub("memberOf")
            ),
            optional: format!(
                "?x <{}> <{}> . ?x <{}> ?g",
                vocab::RDF_TYPE,
                ub("GraduateStudent"),
                ub("takesCourse")
            ),
        },
        Fixture {
            name: "BSBM(1)",
            dataset: bsbm,
            inference: false,
            complete: true,
            entity: format!("{}Product1", bsbm::INST),
            class: format!("{}ProductType1", bsbm::BSBM),
            superclass: format!("{}ProductTypeRoot", bsbm::BSBM),
            anchor: format!("?x <{}product> <{}Product1>", bsbm::BSBM, bsbm::INST),
            optional: format!(
                "?x <{}> <{}Review> . ?x <{}reviewer> ?g",
                vocab::RDF_TYPE,
                bsbm::BSBM,
                bsbm::BSBM
            ),
        },
    ];
    let generated = generated.map(|mut f| {
        let ds = &mut f.dataset;
        let entity = (ds.dictionary.id_of_iri(&f.entity)).expect("the entity exists");
        let class = ds.dictionary.id_of_iri(&f.class).expect("the class exists");
        let rdf_type = ds.rdf_type_id().unwrap();
        assert!(ds
            .triples
            .iter()
            .any(|t| (t.s, t.p, t.o) == (entity, rdf_type, class)));
        ds.insert_iris(&f.entity, SEE_ALSO, &f.class);
        ds.insert_iris(LONELY, vocab::RDF_TYPE, &f.class);
        ds.insert_iris(&f.class, vocab::RDF_TYPE, &f.class);
        let [oddity, rdf_type] = [ODDITY, vocab::RDF_TYPE].map(Term::iri);
        ds.insert(&oddity, &rdf_type, &Term::literal(LITERAL_CLASS));
        f
    });
    // The hand-written graph, whole and without each schema predicate.
    let pets = pets_ntriples();
    let without = |predicate: &str| {
        let lines = pets.lines().filter(|line| !line.contains(predicate));
        lines.map(|line| format!("{line}\n")).collect::<String>()
    };
    let variants = [
        ("pets", pets.clone(), false, true),
        ("pets, inferred", pets.clone(), true, true),
        (
            "pets, no rdfs:subClassOf",
            without(vocab::RDFS_SUBCLASSOF),
            true,
            false,
        ),
        ("pets, no rdf:type", without(vocab::RDF_TYPE), true, false),
    ];
    let ex = |l: &str| format!("http://example.org/pets/{l}");
    let handwritten = variants.map(|(name, ntriples, inference, complete)| Fixture {
        name,
        dataset: parse_ntriples(&ntriples).unwrap(),
        inference,
        complete,
        entity: ex("rex"),
        class: ex("Puppy"),
        superclass: ex("Dog"),
        anchor: format!("?x <{}> <{}>", ex("owner"), ex("alice")),
        optional: format!(
            "?x <{}> <{}> . ?x <{}> ?g",
            vocab::RDF_TYPE,
            ex("Dog"),
            ex("name")
        ),
    });
    generated.into_iter().chain(handwritten).collect()
}

/// The queries of one fixture: `(query, whether it has a LIMIT)`.
fn queries(f: &Fixture) -> Vec<(String, bool)> {
    let (entity, class, anchor) = (&f.entity, &f.class, &f.anchor);
    let (superclass, optional) = (&f.superclass, &f.optional);
    let rdf_type = vocab::RDF_TYPE;
    let sub = vocab::RDFS_SUBCLASSOF;
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
        // The schema patterns a query vertex's labels cannot hold.
        format!("SELECT ?x ?c WHERE {{ ?x <{rdf_type}> ?c . }}"),
        format!("SELECT ?c WHERE {{ <{entity}> <{rdf_type}> ?c . }}"),
        format!("SELECT ?x ?c WHERE {{ ?x <{rdf_type}> ?c . ?c <{sub}> <{superclass}> . }}"),
        format!("SELECT ?a ?b WHERE {{ ?a <{sub}> ?b . }}"),
        format!("SELECT ?b WHERE {{ <{class}> <{sub}> ?b . }}"),
        format!("SELECT ?a WHERE {{ ?a <{sub}> <{superclass}> . }}"),
        format!("SELECT ?x ?g WHERE {{ {anchor} . OPTIONAL {{ {optional} . }} }}"),
        format!("SELECT ?x ?c WHERE {{ {anchor} . OPTIONAL {{ ?x <{rdf_type}> ?c . }} }}"),
        format!("SELECT ?x WHERE {{ ?x <{rdf_type}> ?x . }}"),
        format!("SELECT ?x ?c WHERE {{ ?x <{rdf_type}> ?c . ?x <{rdf_type}> <{class}> . }}"),
        format!(
            "SELECT ?x ?c WHERE {{ ?x <{rdf_type}> \"{LITERAL_CLASS}\" . ?x <{rdf_type}> ?c . }}"
        ),
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
    if kind == EngineKind::TurboHomPlusPlus {
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
    // No optimization, then each alone: the degree, NLF and +SUM guards
    // each see the folded labels.
    let ablations = [Optimizations::none()]
        .into_iter()
        .chain(OptimizationName::all().map(Optimizations::only));
    let configs: Vec<TurboHomConfig> = ablations
        .map(|o| TurboHomConfig::turbohom_plus_plus().with_optimizations(o))
        .collect();
    for f in fixtures() {
        let queries = queries(&f);
        let options = StoreOptions {
            inference: f.inference,
            threads: 1,
        };
        let heap = Store::from_dataset_with(f.dataset, options);
        let path = dir.join(format!("variable-predicate-{}.snap", f.name));
        heap.save_snapshot(&path).unwrap();
        let snapshot = Store::from_snapshot(&path).unwrap();
        for store in [&heap, &snapshot] {
            let what = |q: &str| format!("{} {}: {q}", f.name, store.backend_name());
            // TurboHOM++ first: none of its plans builds the direct graph.
            let mut answers = Vec::new();
            for (q, _) in &queries {
                let mut runs: Vec<(String, QueryResults)> = [1, 2]
                    .map(|t| {
                        let rows = run(store, q, EngineKind::TurboHomPlusPlus, t);
                        (format!("{t} thread(s)"), rows)
                    })
                    .into();
                for config in &configs {
                    let rows = store.execute_turbohom(q, *config, false).unwrap();
                    runs.push((format!("{:?}", config.optimizations), rows));
                }
                answers.push(runs);
            }
            let built = store.builds();
            assert!(built.iter().all(|b| b.structure != "direct"), "{built:?}");

            for ((q, limited), runs) in queries.iter().zip(answers) {
                let direct = run(store, q, EngineKind::TurboHom, 1);
                let merge = run(store, q, EngineKind::MergeJoin, 1);
                assert!(!f.complete || !merge.is_empty(), "{}", what(q));
                if !limited {
                    let expected = canonical_json(merge);
                    assert_eq!(canonical_json(direct), expected, "turbohom, {}", what(q));
                    for (how, rows) in runs {
                        assert_eq!(canonical_json(rows), expected, "{how}, {}", what(q));
                    }
                    continue;
                }
                // A LIMIT keeps any 50 rows of the answer (all of a shorter
                // one).
                let unlimited = q.replace(" LIMIT 50", "");
                let all = run(store, &unlimited, EngineKind::MergeJoin, 1);
                let kept = all.len().min(50);
                let all = multiset(&all);
                let parts = [direct, merge]
                    .into_iter()
                    .chain(runs.into_iter().map(|r| r.1));
                for part in parts {
                    assert_eq!(part.len(), kept, "{}", what(q));
                    for (row, n) in multiset(&part) {
                        assert!(all.get(row).is_some_and(|&m| m >= n), "{}", what(q));
                    }
                }
            }
            if !f.complete || f.inference {
                continue;
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
        }
        std::fs::remove_file(&path).ok();
    }
}
