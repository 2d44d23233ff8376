//! Heterogeneous web-style data: the YAGO-like and BTC-like workloads.
//!
//! The paper's point with these two datasets (Tables 4 and 5) is that the
//! graph-exploration approach keeps winning even when the data is *not*
//! schema-regular: entities carry varying predicates, a third of the crawled
//! FOAF profiles are untyped, and queries mix typed and untyped vertices.
//! This example runs both query sets, prints the per-query winner, and shows
//! how the matcher statistics differ between an ID-anchored query and an
//! unanchored one.
//!
//! ```bash
//! cargo run --release --example heterogeneous_web
//! ```

use turbohom::datasets::{btc, yago};
use turbohom::engine::{EngineKind, Store, StoreOptions};

fn run_workload(
    name: &str,
    store: &Store,
    queries: &[turbohom::datasets::BenchmarkQuery],
) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n=== {name} ({} triples) ===", store.triple_count());
    // The join baselines' permutation tables are built by their first plan;
    // build them now so no timing below sits next to a build.
    store.warm(EngineKind::MergeJoin);
    println!(
        "{:<4} {:>9} {:>14} {:>14} {:>14}   winner",
        "id", "solutions", "TurboHOM++", "MergeJoin", "HashJoin"
    );
    for q in queries {
        let turbo = store.execute(&q.sparql, EngineKind::TurboHomPlusPlus)?;
        let merge = store.execute(&q.sparql, EngineKind::MergeJoin)?;
        let hash = store.execute(&q.sparql, EngineKind::HashJoin)?;
        assert_eq!(turbo.len(), merge.len(), "count mismatch on {}", q.id);
        assert_eq!(turbo.len(), hash.len(), "count mismatch on {}", q.id);
        let timings = [
            ("TurboHOM++", turbo.elapsed),
            ("MergeJoin", merge.elapsed),
            ("HashJoin", hash.elapsed),
        ];
        let winner = timings.iter().min_by_key(|(_, t)| *t).unwrap().0;
        println!(
            "{:<4} {:>9} {:>12.3?} {:>12.3?} {:>12.3?}   {winner}",
            q.id,
            turbo.len(),
            turbo.elapsed,
            merge.elapsed,
            hash.elapsed
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // YAGO-like: Wikipedia/WordNet-flavoured facts; loaded with RDFS
    // inference so the small class hierarchy is folded into the label sets.
    let yago_store = Store::from_dataset_with(
        yago::YagoGenerator::new(yago::YagoConfig::scale(2)).generate(),
        StoreOptions {
            inference: true,
            threads: 1,
        },
    );
    run_workload("YAGO-like", &yago_store, &yago::queries())?;

    // BTC-like: a crawl mixture with irregular typing, loaded *without*
    // inference, exactly as the paper treats BTC2012.
    let btc_store =
        Store::from_dataset(btc::BtcGenerator::new(btc::BtcConfig::scale(2)).generate());
    run_workload("BTC-like", &btc_store, &btc::queries())?;

    // Show the difference between an entity-anchored query (one candidate
    // region) and an unanchored one (many regions) on the crawl data.
    let anchored = &btc::queries()[1]; // Q2: neighborhood of person1
    let unanchored = &btc::queries()[7]; // Q8: authors and their contacts
    for q in [anchored, unanchored] {
        let r = btc_store.execute(&q.sparql, EngineKind::TurboHomPlusPlus)?;
        println!(
            "\n{}: {} solutions in {:?} — {}",
            q.id,
            r.len(),
            r.elapsed,
            q.description
        );
    }
    Ok(())
}
