//! Cross-engine agreement on every benchmark workload.
//!
//! The strongest correctness check this repository has: the graph-exploration
//! engines (TurboHOM++ over the type-aware graph, TurboHOM over the direct
//! graph) and the join-based engines (sort-merge, hash) are four largely
//! independent implementations of SPARQL basic graph pattern semantics, so
//! identical solution counts across all of them on every benchmark query is
//! strong evidence that each one is right.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use turbohom::datasets::{bsbm, btc, lubm, yago, BenchmarkQuery};
use turbohom::engine::{EngineKind, ResultRow, Store, StoreOptions, Trace};

fn assert_all_engines_agree(store: &Store, queries: &[BenchmarkQuery]) {
    for q in queries {
        let mut counts = Vec::new();
        for kind in EngineKind::all() {
            let result = store
                .execute(&q.sparql, kind)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.label(), q.id));
            counts.push((kind.label(), result.len()));
        }
        let first = counts[0].1;
        assert!(
            counts.iter().all(|(_, c)| *c == first),
            "engines disagree on {}: {counts:?}",
            q.id
        );
    }
}

#[test]
fn lubm_queries_agree_across_engines() {
    let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(2)).generate();
    let store = Store::from_dataset(dataset);
    assert_all_engines_agree(&store, &lubm::queries());
}

#[test]
fn lubm_constant_queries_stay_constant_and_increasing_queries_grow() {
    let small =
        Store::from_dataset(lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate());
    let large =
        Store::from_dataset(lubm::LubmGenerator::new(lubm::LubmConfig::scale(4)).generate());
    let queries = lubm::queries();
    for q in &queries {
        let a = small
            .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
            .unwrap()
            .len();
        let b = large
            .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
            .unwrap()
            .len();
        if lubm::constant_solution_queries().contains(&q.id.as_str()) {
            assert_eq!(
                a, b,
                "{} should have a scale-independent solution count",
                q.id
            );
        } else {
            assert!(
                b > a,
                "{} should have more solutions at scale 4 ({a} vs {b})",
                q.id
            );
        }
    }
}

#[test]
fn bsbm_queries_agree_across_engines() {
    let dataset = bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate();
    let store = Store::from_dataset(dataset);
    // The TurboHOM (direct, unoptimized) engine also supports the general
    // SPARQL features, so all four engines are compared.
    assert_all_engines_agree(&store, &bsbm::queries());
}

#[test]
fn yago_queries_agree_across_engines() {
    let dataset = yago::YagoGenerator::new(yago::YagoConfig::scale(1)).generate();
    let store = Store::from_dataset_with(dataset, StoreOptions { inference: true });
    assert_all_engines_agree(&store, &yago::queries());
}

#[test]
fn btc_queries_agree_across_engines() {
    // BTC is loaded without inference, exactly as the paper does.
    let dataset = btc::BtcGenerator::new(btc::BtcConfig::scale(1)).generate();
    let store = Store::from_dataset(dataset);
    assert_all_engines_agree(&store, &btc::queries());
}

#[test]
fn parallel_execution_matches_sequential_on_lubm() {
    let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(2)).generate();
    let store = Store::from_dataset(dataset);
    for q in lubm::queries() {
        let plan = (store.prepare_plan(&q.sparql, EngineKind::TurboHomPlusPlus)).unwrap();
        let a = store.run_plan(&plan).unwrap().len();
        let b = (store.run_plan_traced(&plan, NonZeroUsize::new(4).unwrap(), &Trace::disabled()))
            .unwrap()
            .len();
        assert_eq!(a, b, "parallel result differs on {}", q.id);
    }
}

#[test]
fn optimizations_do_not_change_lubm_results() {
    use turbohom::core::{OptimizationName, Optimizations, TurboHomConfig};
    let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate();
    let store = Store::from_dataset(dataset);
    for q in lubm::queries() {
        let reference = store
            .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
            .unwrap()
            .len();
        for name in OptimizationName::all() {
            let config = TurboHomConfig::default().with_optimizations(Optimizations::only(name));
            let result = store.execute_turbohom(&q.sparql, config, false).unwrap();
            assert_eq!(
                result.len(),
                reference,
                "{} with only {} differs",
                q.id,
                name.label()
            );
        }
        let none = store
            .execute_turbohom(
                &q.sparql,
                TurboHomConfig::default().with_optimizations(Optimizations::none()),
                false,
            )
            .unwrap();
        assert_eq!(
            none.len(),
            reference,
            "{} without optimizations differs",
            q.id
        );
    }
}

/// Panics unless every row of `rows` is in `of`, at least as often.
fn assert_sub_multiset(rows: &[ResultRow], of: &[ResultRow], what: &str) {
    let mut pool: HashMap<&ResultRow, usize> = HashMap::new();
    for row in of {
        *pool.entry(row).or_default() += 1;
    }
    for row in rows {
        let left = pool.get_mut(row).filter(|n| **n > 0);
        *left.unwrap_or_else(|| panic!("{what}: {row:?} is not in the unlimited answer")) -= 1;
    }
}

#[test]
fn limit_pushdown_agrees_across_engines() {
    // LIMIT is pushed into the graph enumerators (early termination) but
    // applied as a post-truncation by the join baselines — two different
    // code paths that must return rows of the unlimited answer, as many as
    // it has up to the limit, for every benchmark query and every limit,
    // including limits larger than the result, at any thread count. BSBM's
    // queries add inline, REGEX and post-hoc FILTERs, Q5's two components
    // (the one-row constant side bound into the other) and OPTIONAL. At one
    // thread, where rows leave in enumeration order, `LIMIT b OFFSET a`
    // windows tile the unlimited answer after its first row.
    let lubm_store =
        Store::from_dataset(lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate());
    let bsbm_store =
        Store::from_dataset(bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate());
    for (store, queries) in [
        (&lubm_store, lubm::queries()),
        (&bsbm_store, bsbm::queries()),
    ] {
        for q in queries {
            let sparql = q.sparql.trim_end();
            let full = store
                .execute(sparql, EngineKind::TurboHomPlusPlus)
                .unwrap()
                .len();
            for kind in EngineKind::all() {
                let run = |text: &str, threads: usize| {
                    let ran = store.prepare_plan(text, kind).and_then(|plan| {
                        store.run_plan_traced(
                            &plan,
                            NonZeroUsize::new(threads).unwrap(),
                            &Trace::disabled(),
                        )
                    });
                    let results =
                        ran.unwrap_or_else(|e| panic!("{} failed on {text}: {e}", kind.label()));
                    results.decode()
                };
                for threads in [1, 2] {
                    let case = format!("{} on {} at {threads} threads", kind.label(), q.id);
                    let all = run(sparql, threads);
                    assert_eq!(all.len(), full, "{case}");
                    for limit in [0usize, 1, 3, full + 10] {
                        let limited = run(&format!("{sparql} LIMIT {limit}"), threads);
                        let expected = full.min(limit);
                        let case = format!("{case}, LIMIT {limit}");
                        assert_eq!(limited.len(), expected, "{case}: solution_count");
                        assert_eq!(limited.rows.len(), expected, "{case}: rows");
                        assert_sub_multiset(&limited.rows, &all.rows, &case);
                    }
                    if threads == 1 {
                        // No search is capped under an OFFSET, so its windows
                        // keep the unlimited run's order. Without one, a
                        // capped search may start elsewhere (it chooses its
                        // start vertex unfiltered; BSBM Q5 does): its rows
                        // are checked as a sub-multiset above.
                        let width = full / 3 + 1;
                        let mut tiled = Vec::new();
                        for offset in (1..=full.max(1)).step_by(width) {
                            let window = format!("{sparql} LIMIT {width} OFFSET {offset}");
                            tiled.extend(run(&window, 1).rows);
                        }
                        let rest = &all.rows[full.min(1)..];
                        assert_eq!(tiled, rest, "{case}: windows of {width} from OFFSET 1");
                    }
                }
            }
        }
    }
}

#[test]
fn a_self_loop_on_the_start_vertex_is_verified() {
    // `?x p ?x` has one query vertex, so it is the start vertex, and the
    // loop is a non-tree edge of it: only `a` qualifies, although `b` has
    // an outgoing `p` edge too.
    let store = Store::from_ntriples(
        "<http://x/a> <http://x/p> <http://x/a> .\n<http://x/b> <http://x/p> <http://x/c> .\n",
    )
    .unwrap();
    let queries = [
        ("constant", "SELECT ?x { ?x <http://x/p> ?x }", 1),
        ("variable", "SELECT ?x ?e { ?x ?e ?x }", 1),
        (
            "rooted-chain",
            "SELECT ?x ?y { ?x <http://x/p> ?x . ?x <http://x/p> ?y }",
            1,
        ),
    ]
    .map(|(id, sparql, rows)| (BenchmarkQuery::new(id, "self loop", sparql), rows));
    for (query, rows) in &queries {
        assert_all_engines_agree(&store, std::slice::from_ref(query));
        let found = store.execute(&query.sparql, EngineKind::TurboHomPlusPlus);
        assert_eq!(found.unwrap().len(), *rows, "{}", query.id);
    }
}

/// The sorted answer of `sparql` on every engine over `store`; panics unless
/// they are all the same rows.
fn agreed_rows(store: &Store, sparql: &str, what: &str) -> Vec<ResultRow> {
    let answers = EngineKind::all().map(|kind| {
        let mut rows = store.execute(sparql, kind).unwrap().rows;
        rows.sort();
        (kind.label(), rows)
    });
    for (label, rows) in &answers[1..] {
        assert_eq!(
            rows, &answers[0].1,
            "{what}: {label} against {}",
            answers[0].0
        );
    }
    answers[0].1.clone()
}

#[test]
fn the_class_hierarchy_applies_only_through_materialization() {
    // Entailment is decided in one place, RDFS materialization at load: a
    // class's instances reach every engine from the heap and from a mapped
    // snapshot alike — its asserted ones without inference, those of its
    // subclasses too with it.
    let probe = "<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .\n\
                 <http://x/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/D> .\n\
                 <http://x/a> <http://x/p> <http://x/b> .\n";
    // A load whose interning order is no vertex order: the literal comes
    // before the IRI subject `b`, and the class `C` is a type object first
    // and the subject of an ordinary triple only after `b`.
    let out_of_order = "<http://x/a> <http://x/name> \"alpha\" .\n\
                 <http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .\n\
                 <http://x/b> <http://x/knows> <http://x/a> .\n\
                 <http://x/C> <http://x/label> \"Class C\" .\n\
                 <http://x/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/D> .\n";
    let bsbm = bsbm::BsbmConfig::scale(1);
    let raw_lubm = lubm::LubmConfig {
        materialize_rdfs: false,
        ..lubm::LubmConfig::scale(1)
    };
    // Each case with its rows under inference (`None`: some).
    let cases = [
        (
            "probe",
            turbohom::rdf::parse_ntriples(probe).unwrap(),
            "SELECT ?x { ?x a <http://x/D> }".to_string(),
            Some(1),
        ),
        (
            "out-of-order interning",
            turbohom::rdf::parse_ntriples(out_of_order).unwrap(),
            "SELECT ?x ?n ?y ?l { ?x a <http://x/D> . ?x <http://x/name> ?n . \
             ?y <http://x/knows> ?x . <http://x/C> <http://x/label> ?l }"
                .to_string(),
            Some(1),
        ),
        (
            "BSBM(1) ProductTypeRoot",
            bsbm::BsbmGenerator::new(bsbm).generate(),
            format!("SELECT ?p {{ ?p a <{}ProductTypeRoot> }}", bsbm::BSBM),
            Some(bsbm.products()),
        ),
        (
            "raw LUBM(1) Q6",
            lubm::LubmGenerator::new(raw_lubm).generate(),
            lubm::queries()[5].sparql.clone(),
            None,
        ),
    ];
    let path =
        std::env::temp_dir().join(format!("turbohom-entailment-{}.snap", std::process::id()));
    for (name, dataset, sparql, closed) in cases {
        for inference in [false, true] {
            let options = StoreOptions { inference };
            let heap = Store::from_dataset_with(dataset.clone(), options);
            heap.save_snapshot(&path).unwrap();
            let mapped = Store::from_snapshot(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let what = format!("{name}, inference {inference}");
            let rows = agreed_rows(&heap, &sparql, &what);
            assert_eq!(
                agreed_rows(&mapped, &sparql, &what),
                rows,
                "{what}: snapshot"
            );
            match (inference, closed) {
                (false, _) => assert!(rows.is_empty(), "{what}"),
                (true, Some(n)) => assert_eq!(rows.len(), n, "{what}"),
                (true, None) => assert!(!rows.is_empty(), "{what}"),
            }
        }
    }
}

#[test]
fn an_iri_is_never_equal_to_a_literal_on_any_engine() {
    // RDFterm-equal (SPARQL 1.1 §17.4.1.7): the IRI `d1` and the literal
    // spelling it are different terms, so `=` keeps no row and `!=` every
    // row, on all four engines alike.
    let store = Store::from_ntriples(
        "<http://x/s1> <http://x/memberOf> <http://x/d1> .\n\
         <http://x/s2> <http://x/memberOf> <http://x/d1> .\n\
         <http://x/s3> <http://x/memberOf> <http://x/d1> .\n",
    )
    .unwrap();
    let pattern = "SELECT ?x WHERE { ?x <http://x/memberOf> ?d";
    for (filter, rows) in [
        ("?d = \"http://x/d1\"", 0),
        ("\"http://x/d1\" = ?d", 0),
        ("?d != \"http://x/d1\"", 3),
        ("?d = <http://x/d1>", 3),
    ] {
        let sparql = format!("{pattern} FILTER({filter}) }}");
        assert_eq!(agreed_rows(&store, &sparql, filter).len(), rows, "{filter}");
    }
}
