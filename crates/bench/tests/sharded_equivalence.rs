//! LUBM(1) sharded differential: for every shard count a sharded query must
//! return the single-store path's rows, rendered to the same bytes, for
//! every benchmark query on every engine, with the shards' row counts
//! partitioning that answer, all over the one store.

use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::sync::Arc;
use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_datasets::{lubm, BenchmarkQuery};
use turbohom_engine::{Anchor, EngineKind, MatchStats, StoreError, Trace};

/// A path of eight terms, the course constant at one end.
const PATH: [&str; 7] = [
    "?s1 ub:takesCourse <http://www.Department0.University0.edu/GraduateCourse0> .",
    "?s1 ub:advisor ?p1 .",
    "?p1 ub:worksFor ?d .",
    "?p2 ub:worksFor ?d .",
    "?p2 ub:teacherOf ?c .",
    "?s2 ub:takesCourse ?c .",
    "?s2 ub:advisor ?p3 .",
];

/// Two components that share no variable, each with its own constant.
const DISCONNECTED: [&str; 2] = [
    "?a ub:worksFor <http://www.Department0.University0.edu> .",
    "?b ub:headOf <http://www.Department1.University0.edu> .",
];

fn query(projection: &str, triples: &[&str]) -> String {
    let prefix = format!("PREFIX ub: <{}>", lubm::UB);
    format!(
        "{prefix} SELECT {projection} WHERE {{ {} }}",
        triples.join(" ")
    )
}

#[test]
fn ownership_partitions_the_single_store_rows_at_every_k() {
    let single = lubm_store(1);
    let mut queries: Vec<(String, String)> = lubm::queries()
        .into_iter()
        .map(|q| (q.id, q.sparql))
        .collect();
    queries.push(("chain".into(), query("?s1 ?s2", &PATH)));
    queries.push(("disconnected".into(), query("?a ?b", &DISCONNECTED)));
    for shards in [1, 2, 3, 4, 8] {
        let sharded = sharded_lubm_store(1, shards);
        assert_eq!(sharded.shard_count(), shards);
        assert_eq!(sharded.triple_count(), single.triple_count());
        assert!(Arc::ptr_eq(sharded.shard(0), sharded.shard(shards - 1)));
        for (id, sparql) in &queries {
            for kind in EngineKind::all() {
                let expected = single.execute(sparql, kind).unwrap();
                assert!(
                    !expected.is_empty() || id.starts_with('Q'),
                    "{kind}: the single store finds no {id}"
                );
                let plan = sharded
                    .prepare_plan(sparql, kind)
                    .unwrap_or_else(|e| panic!("{kind} k={shards} refused {id}: {e}"));
                let mut report = sharded.shard(0).explain(&plan);
                let results = sharded
                    .shard(0)
                    .run_plan_traced(&plan, NonZeroUsize::MIN, &Trace::disabled())
                    .unwrap();
                report.attach_actuals(&results);
                let contributed: u64 = report.shards.iter().filter_map(|s| s.rows).sum();
                assert_eq!(
                    contributed as usize,
                    expected.rows.len(),
                    "{kind} k={shards} {id}: the shards' rows do not add up"
                );
                assert_eq!(
                    canonical_json(results.decode()),
                    canonical_json(expected),
                    "{kind} disagrees between single store and k={shards} on {id}"
                );
            }
        }
    }
}

/// At one thread a sharded query is the single store's run: for every
/// LUBM(1) benchmark query, on every engine and at every shard count, the
/// same body byte for byte and the same matcher counters but the two shard
/// counters. A query whose anchor had to be appended to the projection is
/// compared canonically instead, and named here: no benchmark query, so one
/// that projects only a class is added.
#[test]
fn a_sharded_query_is_the_single_store_run_at_one_thread() {
    let single = lubm_store(1);
    let trace = Trace::disabled();
    let counters = |stats: &MatchStats| {
        let mut counters = stats.counters().to_vec();
        counters.retain(|(name, _)| !["shards_executed", "shards_pruned"].contains(name));
        counters
    };
    let mut appended = BTreeSet::new();
    for shards in [1, 2, 3, 4, 8] {
        let sharded = sharded_lubm_store(1, shards);
        let mut queries = lubm::queries();
        let classes = query("?C", &["?X a ?C .", "?X ub:headOf ?D ."]);
        queries.push(BenchmarkQuery::new("classes", "heads' classes", &classes));
        for q in queries {
            for kind in EngineKind::all() {
                let what = format!("{kind} k={shards} {}", q.id);
                let plan = match sharded.prepare_plan(&q.sparql, kind) {
                    Err(StoreError::NotShardable(_)) => continue,
                    plan => plan.unwrap_or_else(|e| panic!("{what}: {e}")),
                };
                let got = sharded
                    .shard(0)
                    .run_plan_traced(&plan, NonZeroUsize::MIN, &trace);
                let got = got.unwrap();
                let alone = single.prepare_plan(&q.sparql, kind).unwrap();
                let expected = single
                    .run_plan_traced(&alone, NonZeroUsize::MIN, &trace)
                    .unwrap();
                assert!(
                    q.id.starts_with('Q') || !expected.is_empty(),
                    "{what}: no row"
                );
                assert_eq!(counters(&got.stats), counters(&expected.stats), "{what}");
                let anchor_appended = matches!(plan.anchor(),
                    Some(Anchor::Variable(v)) if !plan.projected_variables().contains(v));
                if anchor_appended {
                    appended.insert(q.id.clone());
                    let (got, expected) = (got.decode(), expected.decode());
                    assert_eq!(canonical_json(got), canonical_json(expected), "{what}");
                } else {
                    assert_eq!(got.to_sparql_json(), expected.to_sparql_json(), "{what}");
                }
            }
        }
    }
    assert_eq!(appended, BTreeSet::from(["classes".to_string()]));
}

#[test]
fn lubm1_selective_queries_prune_shards_at_k8() {
    // The ISSUE 9 acceptance criterion: at k=8 at least one selective query
    // executes on strictly fewer than 8 shards. Constant-anchor queries
    // (Q1/Q3/Q7 among them) route to the anchor's owner shard, so they must
    // all report pruned shards.
    let sharded = sharded_lubm_store(1, 8);
    for q in lubm::queries()
        .iter()
        .filter(|q| ["Q1", "Q3", "Q7"].contains(&q.id.as_str()))
    {
        let result = sharded
            .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
            .unwrap();
        assert!(
            result.stats.shards_executed < 8,
            "{} ran on all 8 shards",
            q.id
        );
        assert!(result.stats.shards_pruned > 0, "{} pruned nothing", q.id);
    }
}

#[test]
fn one_live_shard_and_four_answer_the_same_rows() {
    // A constant anchor leaves one shard live, a variable one all four;
    // both answer what the single store returns.
    let single = lubm_store(1);
    let sharded = sharded_lubm_store(1, 4);
    let kind = EngineKind::TurboHomPlusPlus;
    let mut live_counts = Vec::new();
    for q in lubm::queries()
        .iter()
        .filter(|q| ["Q1", "Q6"].contains(&q.id.as_str()))
    {
        let plan = sharded.prepare_plan(&q.sparql, kind).unwrap();
        live_counts.push(plan.live_shards().len());
        assert_eq!(
            canonical_json(sharded.run_plan(&plan).unwrap()),
            canonical_json(single.execute(&q.sparql, kind).unwrap()),
            "{} on {} live shard(s)",
            q.id,
            plan.live_shards().len()
        );
    }
    assert_eq!(live_counts, [1, 4]);
}

#[test]
fn a_chain_wider_than_two_hops_is_answered_with_the_single_store_rows() {
    // Every shard sees the whole store, so a chain of any width is answered,
    // routed by the course constant to its owner shard.
    let single = lubm_store(1);
    let sharded = sharded_lubm_store(1, 4);
    for triples in [&PATH[..], &PATH[..6]] {
        let sparql = query("?s1 ?s2", triples);
        for kind in EngineKind::all() {
            let expected = single.execute(&sparql, kind).unwrap();
            assert!(
                !expected.is_empty(),
                "{kind}: the single store finds no chain"
            );
            let plan = sharded.prepare_plan(&sparql, kind).unwrap();
            assert_eq!(plan.live_shards().len(), 1, "{kind}: a constant anchor");
            assert_eq!(
                canonical_json(sharded.run_plan(&plan).unwrap()),
                canonical_json(expected),
                "{kind} on {} edges",
                triples.len()
            );
        }
    }
}
