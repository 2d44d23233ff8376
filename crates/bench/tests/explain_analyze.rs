//! EXPLAIN/ANALYZE integration on LUBM(1): golden plan trees (stable
//! matching order + estimates), cross-engine actual-vs-result agreement,
//! the sharded Q1 acceptance criterion (7 of 8 shards skipped with the
//! deciding check named), and `limit_pushdown` on LUBM(1) and BSBM(1) against
//! what a run under the LIMIT does.

use std::num::NonZeroUsize;
use std::sync::Arc;
use turbohom_bench::{bsbm_store, lubm_store, sharded_lubm_store};
use turbohom_datasets::{bsbm, lubm};
use turbohom_engine::{
    AnyStore, ComponentExplain, EngineKind, ExplainReport, IdResults, Store, Trace,
};

fn query(id: &str) -> String {
    lubm::queries()
        .iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("no LUBM query {id}"))
        .sparql
        .clone()
}

/// ANALYZE as the server composes it: the EXPLAIN report of a prepared plan
/// with the actuals of one run of that plan attached.
fn analyze<'s>(
    store: &'s AnyStore,
    sparql: &str,
    kind: EngineKind,
) -> (IdResults<'s>, ExplainReport) {
    let plan = store
        .prepare_plan_traced(sparql, kind, &Trace::disabled())
        .unwrap();
    let mut report = store.store().explain(&plan);
    let results = store
        .store()
        .run_plan_traced(&plan, NonZeroUsize::MIN, &Trace::disabled())
        .unwrap();
    report.attach_actuals(&results);
    (results, report)
}

/// The explain tree is deterministic: same store, same query, same JSON —
/// matching order, per-step estimates, candidate counts and all. Blessed
/// copies live next to this test; regenerate with `BLESS=1 cargo test -p
/// turbohom-bench --test explain_analyze` after an intentional plan change.
#[test]
fn explain_trees_for_q2_and_q7_match_the_golden_files() {
    let store = lubm_store(1);
    for (id, golden) in [
        ("Q2", include_str!("golden/lubm1_q2_explain.json")),
        ("Q7", include_str!("golden/lubm1_q7_explain.json")),
    ] {
        let got = store
            .explain(
                &store
                    .prepare_plan(&query(id), EngineKind::TurboHomPlusPlus)
                    .unwrap(),
            )
            .to_json();
        if std::env::var_os("BLESS").is_some() {
            let path = format!(
                "{}/tests/golden/lubm1_{}_explain.json",
                env!("CARGO_MANIFEST_DIR"),
                id.to_lowercase()
            );
            std::fs::write(path, format!("{got}\n")).unwrap();
            continue;
        }
        assert_eq!(
            got,
            golden.trim_end(),
            "{id} explain tree drifted — if intentional, re-bless with BLESS=1"
        );
        // And explaining twice is identical (no hidden iteration-order leak).
        let again = store
            .explain(
                &store
                    .prepare_plan(&query(id), EngineKind::TurboHomPlusPlus)
                    .unwrap(),
            )
            .to_json();
        assert_eq!(got, again, "{id} explain is not deterministic");
    }
}

/// ANALYZE must not change what a query returns, and its actuals must agree
/// with the result set — for every benchmark query on every engine, on both
/// store flavors.
#[test]
fn analyze_actuals_match_result_sizes_for_every_engine() {
    let single_store = Arc::new(lubm_store(1));
    let single = AnyStore::Single(Arc::clone(&single_store));
    let sharded = AnyStore::Sharded(Arc::new(sharded_lubm_store(1, 4)));
    for q in &lubm::queries() {
        for kind in EngineKind::all() {
            let expected = single_store.execute(&q.sparql, kind).unwrap().len();

            let (results, single_report) = analyze(&single, &q.sparql, kind);
            let report = &single_report;
            assert!(report.analyzed, "{} {kind}", q.id);
            assert_eq!(report.store_flavor, "single");
            assert_eq!(
                results.len(),
                expected,
                "{} {kind} analyze changed rows",
                q.id
            );
            let actual = report.actual.as_ref().unwrap();
            assert_eq!(actual.solutions as usize, expected, "{} {kind}", q.id);

            let (results, report) = analyze(&sharded, &q.sparql, kind);
            assert!(report.analyzed, "{} {kind} sharded", q.id);
            assert_eq!(report.store_flavor, "sharded");
            assert_eq!(
                results.len(),
                expected,
                "{} {kind} sharded analyze changed rows",
                q.id
            );
            let actual = report.actual.as_ref().unwrap();
            assert_eq!(
                actual.solutions as usize, expected,
                "{} {kind} sharded",
                q.id
            );
            // Shard row counts partition the result set.
            let shard_rows: u64 = report.shards.iter().filter_map(|s| s.rows).sum();
            assert_eq!(shard_rows as usize, expected, "{} {kind} shard rows", q.id);
            // Each live shard's copy of the plan's components carries the
            // one run's per-step rows: the single store's.
            let step_rows = |components: &[ComponentExplain]| -> Vec<Vec<Option<u64>>> {
                let steps = |c: &ComponentExplain| c.steps.iter().map(|s| s.rows).collect();
                components.iter().map(steps).collect()
            };
            let expected_steps = step_rows(&single_report.components);
            for shard in report.shards.iter().filter(|s| s.verdict == "live") {
                assert_eq!(
                    step_rows(&shard.components),
                    expected_steps,
                    "{} {kind} shard {} step rows",
                    q.id,
                    shard.shard
                );
            }
        }
    }
}

/// ISSUE 10 acceptance: EXPLAIN on LUBM(1) Q1 with 8 shards shows exactly
/// one live shard; the 7 skipped ones are routed away by the named anchor.
#[test]
fn q1_explain_at_8_shards_skips_7_and_names_the_deciding_check() {
    let sharded = sharded_lubm_store(1, 8);
    let report = sharded.shard(0).explain(
        &sharded
            .prepare_plan(&query("Q1"), EngineKind::TurboHomPlusPlus)
            .unwrap(),
    );
    assert_eq!(report.store_flavor, "sharded");
    assert_eq!(report.shards.len(), 8);
    let live: Vec<_> = report
        .shards
        .iter()
        .filter(|s| s.verdict == "live")
        .collect();
    assert_eq!(live.len(), 1, "Q1 should execute on exactly one shard");
    assert!(
        !live[0].components.is_empty(),
        "live shard has no plan tree"
    );
    // The deciding check is the ownership route on the anchor, named once
    // at the top level.
    for s in report.shards.iter().filter(|s| s.verdict != "live") {
        assert_eq!(
            s.verdict, "routed-away",
            "shard {} skipped by something other than the route",
            s.shard
        );
    }
    assert!(report.anchor.is_some(), "the report names no anchor");
    // The explain tree never executed anything: ANALYZE-only fields stay
    // empty.
    assert!(!report.analyzed);
    assert!(report.actual.is_none());
    assert!(report.shards.iter().all(|s| s.rows.is_none()));
}

/// One run of `sparql` at one thread under a detailed trace: its candidate
/// regions, non-empty ones and the `candidates` counter of its last
/// `start_vertex` span (that of the component a branch binds into).
fn regions_and_start(store: &Store, sparql: &str) -> (usize, usize, u64) {
    let plan = store
        .prepare_plan(sparql, EngineKind::TurboHomPlusPlus)
        .unwrap();
    let trace = Trace::detailed(1);
    let stats = store
        .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
        .unwrap()
        .stats;
    let spans = trace.finish().spans;
    let start = spans.iter().rev().find(|s| s.name == "start_vertex");
    let counters = &start.expect("a start_vertex span").counters;
    let candidates = counters.iter().find(|(name, _)| *name == "candidates");
    (
        stats.candidate_regions,
        stats.nonempty_regions,
        candidates.unwrap().1,
    )
}

/// EXPLAIN's `limit_pushdown` is what the run it explains does: where it
/// reads `true`, a `LIMIT 1` run explores fewer candidate regions than the
/// unlimited one; where it reads `false` for a branch of one component, as
/// many. Either way the run starts where the report says it does, so an
/// EXPLAIN that chose its start vertex without the run's cap fails here.
#[test]
fn limit_pushdown_is_what_the_run_does() {
    let (lubm, bsbm) = (lubm_store(1), bsbm_store(1));
    let (ub, bsbm_prefixes) = (
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
         PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>",
        format!(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX bsbm: <{}>",
            bsbm::BSBM
        ),
    );
    let bsbm_query = |id: &str| {
        let found = bsbm::queries().into_iter().find(|q| q.id == id);
        found.unwrap_or_else(|| panic!("no BSBM query {id}")).sparql
    };
    // (shape, store, query, window, what EXPLAIN says, one component)
    let cases = [
        ("scan", &lubm, query("Q6"), "LIMIT 1", true, true),
        ("join", &lubm, query("Q9"), "LIMIT 1", true, true),
        (
            "inline FILTER",
            &bsbm,
            format!(
                "{bsbm_prefixes} SELECT ?product ?p1 WHERE {{ ?product rdf:type bsbm:Product . \
                 ?product bsbm:propertyNum1 ?p1 . FILTER (?p1 > 1000) }}"
            ),
            "LIMIT 1",
            true,
            true,
        ),
        (
            "one-variable REGEX",
            &bsbm,
            bsbm_query("Q6"),
            "LIMIT 1",
            true,
            true,
        ),
        (
            "two-variable FILTER",
            &bsbm,
            format!(
                "{bsbm_prefixes} SELECT ?product WHERE {{ ?product bsbm:propertyNum1 ?p1 . \
                 ?product bsbm:propertyNum2 ?p2 . FILTER (?p1 < ?p2) }}"
            ),
            "LIMIT 1",
            false,
            true,
        ),
        (
            "two-component product",
            &lubm,
            format!(
                "{ub} SELECT ?u ?d WHERE {{ ?u rdf:type ub:University . \
                 ?d rdf:type ub:ResearchGroup . }}"
            ),
            "LIMIT 1",
            false,
            false,
        ),
        (
            "bound branch",
            &bsbm,
            bsbm_query("Q5"),
            "LIMIT 1",
            false,
            false,
        ),
        (
            "OFFSET 1",
            &lubm,
            query("Q9"),
            "LIMIT 1 OFFSET 1",
            false,
            true,
        ),
    ];
    for (shape, store, sparql, window, pushdown, one_component) in cases {
        let (regions, nonempty, _) = regions_and_start(store, &sparql);
        assert!(nonempty > 1, "{shape}: {nonempty} non-empty regions");
        let windowed = format!("{sparql} {window}");
        let plan = store
            .prepare_plan(&windowed, EngineKind::TurboHomPlusPlus)
            .unwrap();
        let report = store.explain(&plan);
        assert_eq!(report.limit_pushdown, pushdown, "{shape}");
        let (capped, _, candidates) = regions_and_start(store, &windowed);
        if pushdown {
            assert!(capped < regions, "{shape}: {capped} of {regions} regions");
        } else if one_component {
            assert_eq!(capped, regions, "{shape}");
        }
        let [component] = report.components.as_slice() else {
            continue;
        };
        let start = component.start.as_ref().expect("a start vertex");
        assert_eq!(start.candidates as u64, candidates, "{shape}: start");
    }
}
