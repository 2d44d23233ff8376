//! Queries whose type-aware query graph is one vertex and no edge — `?X a C`
//! after the `rdf:type` triples have been folded into vertex labels — are
//! answered by TurboHOM++ from their start list instead of one candidate
//! region per start vertex. They must read exactly as the region loop read
//! them: the same rows as the three other engines (`turbohom` matches over
//! the direct graph, which keeps the `rdf:type` edge, so it *is* the region
//! loop answering the same question), and every counter the loop reported.

use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_core::{MatchStats, TurboHomConfig};
use turbohom_datasets::micro;
use turbohom_engine::{EngineKind, QueryResults, Store, Trace};

const PLUS: EngineKind = EngineKind::TurboHomPlusPlus;

fn lubm(body: &str) -> String {
    format!(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
         PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> {body}"
    )
}

fn example(body: &str) -> String {
    format!("PREFIX ex: <{}> {body}", micro::EX)
}

/// What Algorithm 1's loop reports for `n` one-vertex regions: one region,
/// one candidate and one solution each, nothing explored and nothing
/// recursed into; `orders` matching orders determined.
fn from_the_start_list(n: usize, orders: usize) -> MatchStats {
    MatchStats {
        candidate_regions: n,
        nonempty_regions: n,
        candidate_vertices: n,
        solutions: n,
        matching_orders_computed: orders,
        ..MatchStats::default()
    }
}

/// The counters of `results` are those of `n` one-vertex regions.
fn assert_answered_from_the_start_list(
    results: &QueryResults,
    n: usize,
    orders: usize,
    case: &str,
) {
    assert_eq!(results.stats, from_the_start_list(n, orders), "{case}");
    assert_eq!(results.step_rows, [n as u64], "{case}");
    assert_eq!(results.step_estimates, [n as u64], "{case}");
}

/// All four engines return the same rows, rendered to the same bytes;
/// returns what TurboHOM++ returned.
fn agreed(store: &Store, sparql: &str) -> QueryResults {
    let plus = store.execute(sparql, PLUS).unwrap();
    let expected = canonical_json(plus.clone());
    for kind in EngineKind::all() {
        let other = store.execute(sparql, kind).unwrap();
        assert_eq!(other.len(), plus.len(), "{kind} on {sparql}");
        assert_eq!(canonical_json(other), expected, "{kind} on {sparql}");
    }
    plus
}

/// A cold plan determines (and memoizes) the matching order once, a warm
/// one not at all; nothing else differs between the two runs.
fn assert_cold_then_preset(store: &Store, sparql: &str, n: usize) {
    let plan = store.prepare_plan(sparql, PLUS).unwrap();
    assert_eq!(plan.cached_order_count(), 0, "{sparql}");
    let cold = store.run_plan(&plan).unwrap();
    assert_eq!(
        plan.cached_order_count(),
        plan.component_count(),
        "{sparql}"
    );
    let warm = store.run_plan(&plan).unwrap();
    assert_answered_from_the_start_list(&cold, n, 1, sparql);
    assert_answered_from_the_start_list(&warm, n, 0, sparql);
    assert_eq!(cold.rows, warm.rows, "{sparql}");
}

#[test]
fn lubm1_type_scans_are_answered_from_their_start_list() {
    let store = lubm_store(1);
    let scan = lubm("SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . }");
    let all = agreed(&store, &scan);
    let n = all.len();
    assert!(n >= 20 && all.rows.len() == n, "{n} graduate students");
    assert_cold_then_preset(&store, &scan, n);
    // The direct graph keeps the `rdf:type` edge: a region is explored and
    // searched (here one, rooted at the class, that holds every instance).
    let direct = store.execute(&scan, EngineKind::TurboHom).unwrap().stats;
    assert!(direct.search_recursions > 0 && direct.explored_vertices >= n);

    // Two labels on the one vertex; the inferred closure makes every
    // graduate student a student, so the answer is the scan's.
    let both =
        lubm("SELECT ?X WHERE { ?X rdf:type ub:Student . ?X rdf:type ub:GraduateStudent . }");
    assert_eq!(
        canonical_json(agreed(&store, &both)),
        canonical_json(all.clone())
    );
    assert_cold_then_preset(&store, &both, n);
    let some = lubm(
        "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . ?X rdf:type ub:TeachingAssistant . }",
    );
    let assistants = agreed(&store, &some).len();
    assert!(0 < assistants && assistants < n, "{assistants} of {n}");
    assert_cold_then_preset(&store, &some, assistants);

    // No variable at all: the row without a cell, or no row.
    let someone = all.rows[n / 2][0]
        .as_ref()
        .unwrap()
        .as_iri()
        .unwrap()
        .to_string();
    let is_one = lubm(&format!(
        "SELECT * WHERE {{ <{someone}> rdf:type ub:GraduateStudent . }}"
    ));
    let yes = agreed(&store, &is_one);
    assert_eq!((yes.len(), yes.rows.len(), yes.variables.len()), (1, 1, 0));
    assert_cold_then_preset(&store, &is_one, 1);
    let is_none = lubm(&format!(
        "SELECT * WHERE {{ <{someone}> rdf:type ub:Course . }}"
    ));
    let no = agreed(&store, &is_none);
    assert_eq!((no.len(), no.stats), (0, MatchStats::default()));

    // A LIMIT is a cut of the start list; under an OFFSET nothing is pushed
    // down, the whole list is found and the window cut from it. At one
    // thread the rows are the unlimited answer's.
    for (window, found, offset, limit) in [("LIMIT 7", 7, 0, 7), ("LIMIT 5 OFFSET 3", n, 3, 5)] {
        let windowed = store.execute(&format!("{scan} {window}"), PLUS).unwrap();
        assert_eq!(windowed.rows, all.rows[offset..offset + limit], "{window}");
        assert_answered_from_the_start_list(&windowed, found, 1, window);
        for kind in EngineKind::all() {
            let other = store.execute(&format!("{scan} {window}"), kind).unwrap();
            assert_eq!(
                (other.len(), other.rows.len()),
                (limit, limit),
                "{kind} {window}"
            );
        }
    }
    let beyond = store
        .execute(&format!("{scan} LIMIT 1000000"), PLUS)
        .unwrap();
    assert_eq!(beyond.rows, all.rows);
    assert_answered_from_the_start_list(&beyond, n, 1, "a LIMIT nothing reaches");

    // Counting only, more threads (no pool is set up: no morsel is
    // claimed) and the injective semantics change no counter.
    let count_only = TurboHomConfig {
        count_only: true,
        ..store.default_config()
    };
    let counted = store.execute_turbohom(&scan, count_only, false).unwrap();
    assert_eq!((counted.len(), counted.rows.len()), (n, 0));
    assert_answered_from_the_start_list(&counted, n, 1, "count_only");
    let limited = format!("{scan} LIMIT 9");
    let counted = store.execute_turbohom(&limited, count_only, false).unwrap();
    assert_eq!((counted.len(), counted.rows.len()), (9, 0));
    assert_answered_from_the_start_list(&counted, 9, 1, "count_only, 9 at most");
    let plan = store.prepare_plan(&scan, PLUS).unwrap();
    let threaded = store
        .run_plan_traced(&plan, Some(4), &Trace::disabled())
        .unwrap()
        .decode();
    assert_eq!(threaded.rows, all.rows, "the start list is not reordered");
    assert_answered_from_the_start_list(&threaded, n, 1, "threads = 4");
    let injective = TurboHomConfig::isomorphism();
    let one_to_one = store.execute_turbohom(&scan, injective, false).unwrap();
    assert_eq!(one_to_one.rows, all.rows);
    assert_answered_from_the_start_list(&one_to_one, n, 1, "isomorphism");
    // Without +REUSE the loop determines an order per region, and says so.
    let unoptimised = store
        .default_config()
        .with_optimizations(turbohom_core::Optimizations::none());
    let plain = store.execute_turbohom(&scan, unoptimised, false).unwrap();
    assert_eq!(plain.rows, all.rows);
    assert_answered_from_the_start_list(&plain, n, n, "no optimisation");

    // A FILTER on the vertex is applied by the region loop, inline or after
    // the search, and the engines still agree.
    let inline = lubm(&format!(
        "SELECT ?X WHERE {{ ?X rdf:type ub:GraduateStudent . FILTER (?X != <{someone}>) }}"
    ));
    let all_but_one = agreed(&store, &inline);
    assert_eq!(all_but_one.len(), n - 1);
    assert_eq!(all_but_one.stats.filtered_inline, 1);
    // Start-vertex selection tests the FILTER: the scan starts from the
    // n − 1 vertices that pass it (since selection counts inline FILTERs).
    assert_eq!(all_but_one.stats.candidate_regions, n - 1);
    assert_eq!(all_but_one.step_rows, [n as u64 - 1]);
    let post = lubm(
        "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . FILTER regex(str(?X), \"GraduateStudent1\") }",
    );
    let matching = agreed(&store, &post);
    assert!(
        !matching.is_empty() && matching.len() < n,
        "{}",
        matching.len()
    );
    // A REGEX over one variable turns start vertices down before their
    // regions grow, where Section 5.1 waits for complete solutions.
    assert_eq!(matching.stats.filtered_inline, n - matching.len());
    assert_eq!(matching.stats.filtered_post, 0);
    assert_eq!(matching.stats.solutions, matching.len());

    // Two edge-free components under one branch FILTER: both answered from
    // their start lists, both orders memoized.
    let pairs = lubm(
        "SELECT ?D ?G WHERE { ?D rdf:type ub:Department . ?G rdf:type ub:ResearchGroup . FILTER (?D != ?G) }",
    );
    let departments = agreed(
        &store,
        &lubm("SELECT ?D WHERE { ?D rdf:type ub:Department . }"),
    )
    .len();
    let groups = agreed(
        &store,
        &lubm("SELECT ?G WHERE { ?G rdf:type ub:ResearchGroup . }"),
    )
    .len();
    assert_eq!(agreed(&store, &pairs).len(), departments * groups);
    let plan = store.prepare_plan(&pairs, PLUS).unwrap();
    assert_eq!(plan.component_count(), 2);
    let cold = store.run_plan(&plan).unwrap();
    assert_eq!(plan.cached_order_count(), 2);
    assert_answered_from_the_start_list(&cold, departments + groups, 2, "two components, cold");
    let warm = store.run_plan(&plan).unwrap();
    assert_answered_from_the_start_list(&warm, departments + groups, 0, "two components, warm");
}

#[test]
fn four_shards_answer_a_type_scan_from_their_start_lists() {
    let single = lubm_store(1);
    let sharded = sharded_lubm_store(1, 4);
    for body in [
        "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . }",
        "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . ?X rdf:type ub:TeachingAssistant . }",
        "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . } LIMIT 11",
    ] {
        let sparql = lubm(body);
        let expected = single.execute(&sparql, PLUS).unwrap();
        for kind in EngineKind::all() {
            let gathered = sharded.execute(&sparql, kind).unwrap();
            assert_eq!(gathered.len(), expected.len(), "{kind} on {body}");
            if !body.contains("LIMIT") {
                let gathered = canonical_json(gathered);
                assert_eq!(
                    gathered,
                    canonical_json(expected.clone()),
                    "{kind} on {body}"
                );
            }
        }
        // The query runs once over the one store, from its start list,
        // whatever the live shards; the plan carries no LIMIT, so the run
        // finds every solution.
        let gathered = sharded.execute(&sparql, PLUS).unwrap();
        let stats = gathered.stats;
        let found = stats.solutions;
        assert!(found >= expected.len(), "{body}: {stats:?}");
        assert_eq!(
            MatchStats {
                shards_executed: 0,
                shards_pruned: 0,
                matching_orders_computed: 0,
                ..stats
            },
            from_the_start_list(found, 0),
            "{body}"
        );
        assert_eq!(stats.matching_orders_computed, 1, "{body}");
        assert_eq!(gathered.step_rows, [found as u64], "{body}");
        assert_eq!(gathered.step_estimates, [found as u64], "{body}");
    }
}

#[test]
fn the_micro_datasets_answer_edge_free_queries_alike() {
    // Figure 1: v0 and v2 are `A`s, v2 is also a `D`.
    let store = Store::from_dataset(micro::figure1());
    for (body, n) in [
        ("SELECT ?x WHERE { ?x a ex:A . }", 2),
        ("SELECT ?x WHERE { ?x a ex:A . ?x a ex:D . }", 1),
        ("SELECT ?x WHERE { ?x a ex:C . ?x a ex:E . } LIMIT 1", 1),
        ("SELECT * WHERE { ex:v2 a ex:D . }", 1),
    ] {
        let sparql = example(body);
        assert_eq!(agreed(&store, &sparql).len(), n, "{body}");
        assert_cold_then_preset(&store, &sparql, n);
    }
    for body in [
        "SELECT ?x WHERE { ?x a ex:A . ?x a ex:B . }",
        "SELECT * WHERE { ex:v0 a ex:D . }",
    ] {
        let none = agreed(&store, &example(body));
        assert_eq!((none.len(), none.stats.candidate_regions), (0, 0), "{body}");
    }
    // Figure 3 under RDFS inference: the graduate student is a student.
    let store = Store::from_dataset_with(
        micro::figure3(),
        turbohom_engine::StoreOptions {
            inference: true,
            threads: 1,
        },
    );
    for class in ["Student", "GraduateStudent"] {
        let sparql = example(&format!("SELECT ?x WHERE {{ ?x a ex:{class} . }}"));
        assert_eq!(agreed(&store, &sparql).len(), 1, "{class}");
        assert_cold_then_preset(&store, &sparql, 1);
    }
}
