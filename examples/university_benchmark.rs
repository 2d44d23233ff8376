//! Run the 14 LUBM benchmark queries against every engine and compare.
//!
//! This is a miniature version of the paper's Table 3 experiment: the same
//! queries, the same engines, a laptop-sized scale factor.
//!
//! ```bash
//! cargo run --release --example university_benchmark [scale]
//! ```

use std::time::Instant;
use turbohom::datasets::lubm::{self, LubmConfig, LubmGenerator};
use turbohom::engine::{EngineKind, Store, StoreOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    println!("generating LUBM-like data at scale factor {scale} ...");
    let started = Instant::now();
    let dataset = LubmGenerator::new(LubmConfig::scale(scale)).generate();
    println!(
        "  {} triples generated in {:?}",
        dataset.len(),
        started.elapsed()
    );

    let started = Instant::now();
    // The generator already materializes the RDFS closure, so the store does
    // not need to run inference again.
    let store = Store::from_dataset_with(dataset, StoreOptions::default());
    println!("  store built in {:?}", started.elapsed());
    let engines = [
        EngineKind::TurboHomPlusPlus,
        EngineKind::TurboHom,
        EngineKind::MergeJoin,
        EngineKind::HashJoin,
    ];
    // The direct graph and the permutation tables are built by the first
    // plan that reads them; build them now, apart from every timing below.
    let started = Instant::now();
    engines.iter().for_each(|kind| store.warm(*kind));
    println!("  ablation structures built in {:?}", started.elapsed());
    let aware = store.type_aware_graph().graph.stats();
    let direct = store.direct_graph().graph.stats();
    println!(
        "  type-aware graph: {} vertices / {} edges   direct graph: {} vertices / {} edges",
        aware.vertices, aware.edges, direct.vertices, direct.edges
    );

    println!(
        "\n{:<5} {:>10} {:>14} {:>14} {:>14} {:>14}",
        "query", "solutions", "TurboHOM++", "TurboHOM", "MergeJoin", "HashJoin"
    );
    for query in lubm::queries() {
        let mut cells = Vec::new();
        let mut solutions = None;
        for kind in engines {
            let result = store.execute(&query.sparql, kind)?;
            match solutions {
                None => solutions = Some(result.len()),
                Some(expected) => assert_eq!(
                    expected,
                    result.len(),
                    "{} disagrees on {}",
                    kind.label(),
                    query.id
                ),
            }
            cells.push(format!("{:>12.3?}", result.elapsed));
        }
        println!(
            "{:<5} {:>10} {}",
            query.id,
            solutions.unwrap_or(0),
            cells.join("  ")
        );
    }
    println!("\nall engines agreed on every solution count");
    Ok(())
}
