//! A FILTER over one required query vertex, a REGEX included, is tested where
//! the candidate region admits a candidate of that vertex: a candidate it
//! turns down never enters the region, and a region it empties is dead, so
//! the search sees only what it can bind and no row waits for a FILTER after
//! the match. These tests hold BSBM(1)'s Q6 (a REGEX on the label), Q1 (a
//! comparison two steps from the root) and a REGEX two steps from the root to
//! the hash-join baseline, to the counters of that mechanism, and to the same
//! counters at every thread count.

use std::num::NonZeroUsize;
use turbohom_bench::{bsbm_store, canonical_json};
use turbohom_datasets::bsbm::{self, BSBM, INST};
use turbohom_engine::{EngineKind, MatchStats, QueryResults, Store, Trace};

const PLUS: EngineKind = EngineKind::TurboHomPlusPlus;

fn run(store: &Store, sparql: &str, kind: EngineKind, threads: usize) -> QueryResults {
    let plan = store.prepare_plan(sparql, kind).unwrap();
    let trace = Trace::disabled();
    store
        .run_plan_traced(&plan, NonZeroUsize::new(threads).unwrap(), &trace)
        .unwrap()
        .decode()
}

/// The variable of the query vertex `sparql`'s regions start from (`None`:
/// a constant).
fn start_variable(store: &Store, sparql: &str) -> Option<String> {
    let plan = store.prepare_plan(sparql, PLUS).unwrap();
    let report = store.explain(&plan);
    let [component] = report.components.as_slice() else {
        panic!("one component: {sparql}");
    };
    component
        .start
        .as_ref()
        .expect("a start vertex")
        .variable
        .clone()
}

/// Runs `sparql` at 1, 2 and 4 threads: every run returns the hash join's
/// rows and every counter but `morsels` of the one-thread run. Returns the
/// one-thread run's counters.
fn agreed(store: &Store, sparql: &str) -> MatchStats {
    let expected = canonical_json(run(store, sparql, EngineKind::HashJoin, 1));
    let counters = |stats: MatchStats| MatchStats {
        morsels: 0,
        ..stats
    };
    let one = run(store, sparql, PLUS, 1).stats;
    for threads in [1, 2, 4] {
        let got = run(store, sparql, PLUS, threads);
        assert_eq!(
            counters(got.stats),
            counters(one),
            "{threads} threads: {sparql}"
        );
        assert_eq!(canonical_json(got), expected, "{threads} threads: {sparql}");
    }
    one
}

#[test]
fn bsbm_q6_grows_and_searches_a_region_per_solution() {
    let store = bsbm_store(1);
    let q6 = &bsbm::queries()[5];
    assert_eq!(q6.id, "Q6");
    // Start-vertex selection counts the labels the REGEX keeps, fewer than
    // the products, so the regions start from ?label (since selection
    // counts inline FILTERs; they started from ?product before).
    assert_eq!(start_variable(&store, &q6.sparql).as_deref(), Some("label"));
    let stats = agreed(&store, &q6.sparql);
    assert!(stats.solutions > 0);
    assert_eq!(stats.candidate_regions, stats.solutions);
    assert_eq!(stats.nonempty_regions, stats.solutions);
    assert_eq!(stats.search_recursions, stats.solutions);
    assert_eq!(stats.filtered_post, 0);
    // Every label the index lists was tested once, in selection: each one
    // the REGEX turned down was counted there, and each it kept labels one
    // product.
    let labels = store
        .execute(
            &format!("PREFIX bsbm: <{BSBM}> SELECT ?l WHERE {{ ?x bsbm:label ?l . }}"),
            PLUS,
        )
        .unwrap();
    assert_eq!(stats.filtered_inline, labels.len() - stats.solutions);
}

#[test]
fn a_filter_two_steps_from_the_root_prunes_the_region() {
    let store = bsbm_store(1);
    let q1 = &bsbm::queries()[0];
    assert_eq!(q1.id, "Q1");
    let regex = format!(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
         PREFIX bsbm: <{BSBM}> PREFIX inst: <{INST}> \
         SELECT ?product ?label WHERE {{ ?product rdf:type bsbm:Product . \
           ?product bsbm:label ?label . ?product bsbm:productFeature inst:ProductFeature1 . \
           FILTER regex(?label, \"^alpha\") }}"
    );
    // The regions start from the feature, a constant. Below the root, Q1
    // recurses at ?product and at the first of ?label and ?p1, the REGEX
    // query at ?product. Each product has one label and one `propertyNum1`,
    // so every product the search binds is a solution.
    for (sparql, per_solution) in [(&q1.sparql, 2), (&regex, 1)] {
        assert_eq!(start_variable(&store, sparql), None, "{sparql}");
        let stats = agreed(&store, sparql);
        assert!(stats.solutions > 0, "{sparql}");
        assert!(stats.filtered_inline > 0, "{sparql}");
        assert_eq!(stats.filtered_post, 0, "{sparql}");
        assert_eq!(
            stats.search_recursions,
            stats.nonempty_regions + per_solution * stats.solutions,
            "{sparql}"
        );
    }
}
