//! EXPLAIN/ANALYZE integration on LUBM(1): golden plan trees (stable
//! matching order + estimates), cross-engine actual-vs-result agreement,
//! and the sharded Q1 acceptance criterion (7 of 8 shards skipped with the
//! deciding check named).

use std::sync::Arc;
use turbohom_bench::{lubm_store, sharded_lubm_store};
use turbohom_datasets::lubm;
use turbohom_engine::{AnyStore, EngineKind, ExplainReport, IdResults, Trace};

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
    let mut report = store.explain(&plan);
    let results = store
        .run_plan_traced(&plan, None, &Trace::disabled())
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

            let (results, report) = analyze(&single, &q.sparql, kind);
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
        }
    }
}

/// ISSUE 10 acceptance: EXPLAIN on LUBM(1) Q1 with 8 shards shows exactly
/// one live shard; the 7 skipped ones are routed away by the named anchor.
#[test]
fn q1_explain_at_8_shards_skips_7_and_names_the_deciding_check() {
    let sharded = sharded_lubm_store(1, 8);
    let report = sharded.explain(
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
