//! Start-vertex selection counts a query vertex's candidates through its
//! inline FILTERs (the refinement of Section 4.2 with one more filter). BSBM
//! Q6's REGEX keeps a few labels of many, so its regions start from those
//! labels and not from every product; under a LIMIT the choice stays the
//! unfiltered one, EXPLAIN shows the choice of the run it explains, and a
//! plan's cold and warm runs agree.

use turbohom_bench::{bsbm_store, canonical_json};
use turbohom_datasets::bsbm::{self, BSBM};
use turbohom_engine::{EngineKind, QueryResults, Store, Trace};

const PLUS: EngineKind = EngineKind::TurboHomPlusPlus;

fn q6() -> String {
    let q6 = &bsbm::queries()[5];
    assert_eq!(q6.id, "Q6");
    q6.sparql.clone()
}

/// The start EXPLAIN reports for `sparql`: its variable and candidates.
fn explained_start(store: &Store, sparql: &str) -> (String, usize) {
    let report = store.explain(&store.prepare_plan(sparql, PLUS).unwrap());
    let [component] = report.components.as_slice() else {
        panic!("one component")
    };
    let start = component.start.as_ref().unwrap();
    assert_eq!(component.steps[0].query_vertex, start.query_vertex);
    (start.variable.clone().unwrap(), start.candidates)
}

/// Runs `sparql` at one thread under a detailed trace: its results and the
/// `candidates` counter of its `start_vertex` span.
fn run_traced(store: &Store, sparql: &str) -> (QueryResults, u64) {
    let plan = store.prepare_plan(sparql, PLUS).unwrap();
    let trace = Trace::detailed(1);
    let results = store.run_plan_traced(&plan, Some(1), &trace).unwrap();
    let spans = trace.finish().spans;
    let start = spans.iter().find(|s| s.name == "start_vertex").unwrap();
    let candidates = start
        .counters
        .iter()
        .find(|(name, _)| *name == "candidates");
    (results.decode(), candidates.unwrap().1)
}

#[test]
fn q6_starts_from_the_labels_its_regex_keeps_unless_capped() {
    let store = bsbm_store(1);
    let sparql = q6();
    let products = store
        .execute(
            &format!("PREFIX bsbm: <{BSBM}> SELECT ?p WHERE {{ ?p a bsbm:Product . }}"),
            PLUS,
        )
        .unwrap()
        .len();

    let (all, candidates) = run_traced(&store, &sparql);
    assert!(!all.is_empty() && all.len() < products);
    assert_eq!(candidates, all.len() as u64);
    assert_eq!(all.stats.candidate_regions, all.len());
    assert_eq!(
        explained_start(&store, &sparql),
        ("label".into(), all.len())
    );

    // Capped: the start list is every product, each region grown until ten
    // are found, and each dead one had its label turned down.
    let limited = format!("{sparql} LIMIT 10");
    let (first, candidates) = run_traced(&store, &limited);
    assert_eq!(candidates, products as u64);
    // EXPLAIN shows the capped run's start, not the uncapped one's.
    assert_eq!(
        explained_start(&store, &limited),
        ("product".into(), products)
    );
    assert_eq!(first.len(), 10);
    let stats = first.stats;
    assert!(stats.candidate_regions > 10);
    assert_eq!(stats.filtered_inline, stats.candidate_regions - 10);
    assert!(first.rows.iter().all(|row| all.rows.contains(row)));
}

#[test]
fn a_filtered_plan_runs_cold_then_warm_alike() {
    let store = bsbm_store(1);
    let sparql = q6();
    for threads in [1, 2] {
        let plan = store.prepare_plan(&sparql, PLUS).unwrap();
        let run = || {
            store
                .run_plan_traced(&plan, Some(threads), &Trace::disabled())
                .unwrap()
                .decode()
        };
        let cold = run();
        assert_eq!(plan.cached_order_count(), 1, "threads = {threads}");
        let warm = run();
        assert_eq!(cold.stats.matching_orders_computed, 1);
        assert_eq!(warm.stats.matching_orders_computed, 0);
        assert_eq!(cold.stats.candidate_regions, cold.len());
        let counters = |results: &QueryResults| turbohom_engine::MatchStats {
            matching_orders_computed: 0,
            morsels: 0,
            ..results.stats
        };
        assert_eq!(counters(&cold), counters(&warm), "threads = {threads}");
        if threads == 1 {
            assert_eq!(cold.rows, warm.rows);
        }
        assert_eq!(canonical_json(cold), canonical_json(warm));
    }
}
