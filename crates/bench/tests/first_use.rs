//! A store holds what its queries read: the direct graph and the six
//! permutation tables are built by the first plan that needs them, once,
//! and the memory ledger and the event journal say when that happened.
//! No TurboHOM++ plan needs either: only the `turbohom` ablation reads the
//! direct graph. No plan at all decodes the triples back into a dataset:
//! the `triples` line stays 0 and no `triples` build is journaled.

use std::sync::{Arc, Barrier};
use turbohom_bench::lubm_store;
use turbohom_datasets::lubm;
use turbohom_engine::EngineKind;
use turbohom_service::{QueryOptions, QueryService};

const VARIABLE_PREDICATE: &str =
    "SELECT ?p ?o WHERE { <http://www.Department0.University0.edu/FullProfessor0> ?p ?o . }";

/// The schema patterns a type-aware query graph cannot fold into its
/// labels: a variable class, a type pattern inside an OPTIONAL and a
/// constant `rdfs:subClassOf` pattern. TurboHOM++ matches each of them as an
/// edge on the type-aware graph.
const SCHEMA_PATTERNS: [&str; 3] = [
    "SELECT ?c WHERE { <http://www.Department0.University0.edu/FullProfessor0> \
     <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?c . }",
    "SELECT ?x WHERE { ?x <http://swat.cse.lehigh.edu/onto/univ-bench.owl#worksFor> \
     <http://www.Department0.University0.edu> . OPTIONAL { ?x \
     <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> \
     <http://swat.cse.lehigh.edu/onto/univ-bench.owl#FullProfessor> . } }",
    "SELECT ?c WHERE { ?c <http://www.w3.org/2000/01/rdf-schema#subClassOf> \
     <http://swat.cse.lehigh.edu/onto/univ-bench.owl#Professor> . }",
];

fn component_bytes(service: &QueryService, component: &str) -> u64 {
    let bytes = service.bytes();
    let rows = bytes.shards.iter().flat_map(|(_, rows)| rows);
    rows.filter(|row| row.component == component)
        .map(|row| row.bytes.heap + row.bytes.mapped)
        .sum()
}

fn structures_built(service: &QueryService) -> Vec<String> {
    let jsonl = service.journal().to_jsonl();
    let built = jsonl
        .lines()
        .filter(|line| line.contains("\"event\":\"structure_built\""));
    built.map(str::to_owned).collect()
}

fn with_engine(engine: EngineKind) -> QueryOptions {
    QueryOptions {
        engine: Some(engine),
        ..QueryOptions::default()
    }
}

#[test]
fn the_lubm_queries_under_turbohom_plus_plus_build_nothing() {
    let service = QueryService::new(Arc::new(lubm_store(1)));
    for q in lubm::queries() {
        service.query(&q.sparql, QueryOptions::default()).unwrap();
    }
    // A variable predicate and the schema patterns read the type edges and
    // the subclass pairs off the type-aware graph.
    for q in [VARIABLE_PREDICATE].iter().chain(&SCHEMA_PATTERNS) {
        let response = service.query(q, QueryOptions::default());
        assert!(response.unwrap().results.row_count() > 0, "{q}");
    }
    assert_eq!(component_bytes(&service, "direct"), 0);
    assert_eq!(component_bytes(&service, "permutations"), 0);
    assert_eq!(component_bytes(&service, "triples"), 0);
    assert!(component_bytes(&service, "type_aware") > 0);
    assert!(structures_built(&service).is_empty());
    let decoded = |service: &QueryService| {
        let builds = service.store().store().builds();
        builds.iter().any(|b| b.structure == "triples")
    };
    assert!(!decoded(&service));
    let bytes = service.bytes();
    assert_eq!(
        bytes.accounted as i64 + bytes.unaccounted,
        bytes.resident as i64
    );

    // One baseline request builds the permutations, under its trace id.
    let q1 = &lubm::queries()[0].sparql;
    let merge = service
        .query(q1, with_engine(EngineKind::MergeJoin))
        .unwrap();
    let triples = service.store().triple_count() as u64;
    assert_eq!(component_bytes(&service, "permutations"), 6 * 12 * triples);
    assert_eq!(component_bytes(&service, "direct"), 0);
    let built = structures_built(&service);
    assert_eq!(built.len(), 1, "{built:?}");
    assert!(built[0].contains("\"structure\":\"permutations\""));
    let trace = turbohom_engine::format_trace_id(merge.trace_id);
    assert!(built[0].contains(&format!("\"trace\":\"{trace}\"")));

    // One `turbohom` query builds the direct graph; the second baseline
    // engine reuses the tables the first one built.
    service
        .query(VARIABLE_PREDICATE, with_engine(EngineKind::TurboHom))
        .unwrap();
    service
        .query(q1, with_engine(EngineKind::HashJoin))
        .unwrap();
    assert!(component_bytes(&service, "direct") > 0);
    let built = structures_built(&service);
    assert_eq!(built.len(), 2, "{built:?}");
    assert!(built[1].contains("\"structure\":\"direct\""));
    // Both read the type-aware graph's triples, not a decoded dataset.
    assert_eq!(component_bytes(&service, "triples"), 0);
    assert!(!decoded(&service));
}

#[test]
fn eight_threads_racing_the_first_baseline_query_build_once() {
    let service = QueryService::new(Arc::new(lubm_store(1)));
    let q2 = &lubm::queries()[1].sparql;
    let barrier = Barrier::new(8);
    let rows: Vec<usize> = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let response = service.query(q2, with_engine(EngineKind::MergeJoin));
                    response.unwrap().results.row_count()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(rows.iter().all(|&n| n == rows[0]), "{rows:?}");
    assert_eq!(structures_built(&service).len(), 1);
    let builds = service.store().store().builds();
    let permutations = builds.iter().filter(|b| b.structure == "permutations");
    assert_eq!(permutations.count(), 1);
}

#[test]
fn explain_and_warm_account_for_their_builds_too() {
    // EXPLAIN plans without executing, and planning is what builds.
    let service = QueryService::new(Arc::new(lubm_store(1)));
    for q in [VARIABLE_PREDICATE].iter().chain(&SCHEMA_PATTERNS) {
        service.explain(q, QueryOptions::default()).unwrap();
    }
    assert!(structures_built(&service).is_empty());
    service
        .explain(VARIABLE_PREDICATE, with_engine(EngineKind::TurboHom))
        .unwrap();
    assert_eq!(structures_built(&service).len(), 1);

    // A warmed store has nothing left to build on first use, and its
    // `store_loaded` event carries the build times instead.
    let store = lubm_store(1);
    store.warm(EngineKind::TurboHom);
    store.warm(EngineKind::HashJoin);
    let service = QueryService::new(Arc::new(store));
    for kind in EngineKind::all() {
        for q in [VARIABLE_PREDICATE].iter().chain(&SCHEMA_PATTERNS) {
            service.query(q, with_engine(kind)).unwrap();
        }
    }
    assert!(structures_built(&service).is_empty());
    let loaded = service.journal().to_jsonl();
    let loaded = loaded.lines().next().unwrap();
    assert!(loaded.contains("\"event\":\"store_loaded\""));
    assert!(!loaded.contains("\"direct_ms\":0.000"), "{loaded}");
    assert!(!loaded.contains("\"permutations_ms\":0.000"), "{loaded}");
}
