//! LUBM(1) sharded scatter-gather differential: for every shard count and
//! halo radius the coordinator must refuse a query as not shardable or return
//! the single-store path's rows, rendered to the same bytes, for every
//! benchmark query on every engine.

use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_datasets::lubm;
use turbohom_engine::{EngineKind, ShardedOptions, ShardedStore, StoreError, DEFAULT_HALO};

#[test]
fn lubm1_sharded_matches_single_store_for_every_benchmark_query() {
    let single = lubm_store(1);
    let radii = [4usize, 8]
        .into_iter()
        .flat_map(|k| [0, 1, 2].map(|halo| (k, halo)));
    for (shards, halo) in [(1, DEFAULT_HALO)].into_iter().chain(radii) {
        let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate();
        let options = ShardedOptions {
            shards,
            halo,
            ..ShardedOptions::default()
        };
        let sharded = ShardedStore::from_dataset_with(dataset, options).unwrap();
        assert_eq!(sharded.shard_count(), shards);
        assert_eq!(sharded.triple_count(), single.triple_count());
        for q in &lubm::queries() {
            for kind in EngineKind::all() {
                let a = single.execute(&q.sparql, kind).unwrap();
                // Halo 0 holds no join; a radius of 1 or more refuses none.
                let b = match sharded.execute(&q.sparql, kind) {
                    Err(StoreError::NotShardable(_)) if halo == 0 => continue,
                    outcome => outcome.unwrap_or_else(|e| {
                        panic!("{kind} k={shards} halo={halo} refused {}: {e}", q.id)
                    }),
                };
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
