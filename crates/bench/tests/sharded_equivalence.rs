//! LUBM(1) sharded scatter-gather differential: for every shard count the
//! coordinator must return the single-store path's rows, rendered to the same
//! bytes, for every benchmark query on every engine, and refuse what lies
//! beyond its halo radius.

use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_datasets::lubm;
use turbohom_engine::{EngineKind, StoreError, HALO};

#[test]
fn lubm1_sharded_matches_single_store_for_every_benchmark_query() {
    let single = lubm_store(1);
    for shards in [1, 4, 8] {
        let sharded = sharded_lubm_store(1, shards);
        assert_eq!(sharded.shard_count(), shards);
        assert_eq!(sharded.triple_count(), single.triple_count());
        for q in &lubm::queries() {
            for kind in EngineKind::all() {
                let a = single.execute(&q.sparql, kind).unwrap();
                // The halo covers every benchmark query: none is refused.
                let b = sharded
                    .execute(&q.sparql, kind)
                    .unwrap_or_else(|e| panic!("{kind} k={shards} refused {}: {e}", q.id));
                assert_eq!(
                    canonical_json(a),
                    canonical_json(b),
                    "{kind} disagrees between single store and k={shards} on {}",
                    q.id
                );
            }
        }
    }
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
fn one_live_shard_runs_inline_and_four_fan_out_to_the_same_rows() {
    // The fan-out runs a single live shard on the calling thread and hands
    // several to a pool; both must gather what the single store returns.
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
fn a_chain_wider_than_the_halo_is_refused_and_one_at_its_radius_is_answered() {
    // A path of eight terms, the course constant at one end: from its middle
    // term `?d` every edge but the last has an endpoint within two hops, and
    // no term covers all seven edges.
    const PATH: [&str; 7] = [
        "?s1 ub:takesCourse <http://www.Department0.University0.edu/GraduateCourse0> .",
        "?s1 ub:advisor ?p1 .",
        "?p1 ub:worksFor ?d .",
        "?p2 ub:worksFor ?d .",
        "?p2 ub:teacherOf ?c .",
        "?s2 ub:takesCourse ?c .",
        "?s2 ub:advisor ?p3 .",
    ];
    let query = |triples: &[&str]| {
        let prefix = format!("PREFIX ub: <{}>", lubm::UB);
        format!("{prefix} SELECT ?s1 ?s2 WHERE {{ {} }}", triples.join(" "))
    };
    assert_eq!(HALO, 2);
    let single = lubm_store(1);
    let sharded = sharded_lubm_store(1, 4);
    let kind = EngineKind::TurboHomPlusPlus;

    let wide = query(&PATH);
    let answered = single.execute(&wide, kind).unwrap();
    assert!(!answered.is_empty(), "the single store finds no chain");
    for kind in EngineKind::all() {
        match sharded.execute(&wide, kind) {
            Err(StoreError::NotShardable(reason)) => {
                assert!(reason.contains("halo radius 2"), "{kind}: {reason}")
            }
            other => panic!(
                "{kind}: a chain wider than the halo was not refused: {:?}",
                other.map(|r| r.len())
            ),
        }
    }

    // One edge shorter, the chain lies within the radius of `?d`.
    let narrow = query(&PATH[..6]);
    let expected = single.execute(&narrow, kind).unwrap();
    assert!(!expected.is_empty());
    let plan = sharded.prepare_plan(&narrow, kind).unwrap();
    assert_eq!(
        plan.live_shards().len(),
        4,
        "a variable anchor runs everywhere"
    );
    assert_eq!(
        canonical_json(sharded.run_plan(&plan).unwrap()),
        canonical_json(expected)
    );
}
