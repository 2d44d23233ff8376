//! Parallel speed-up of TurboHOM++ (the Figure 16 experiment in miniature).
//!
//! The two most expensive LUBM queries (Q2 and Q9) are executed with an
//! increasing number of threads. One thread runs the candidate regions on
//! the calling thread; more threads claim them in small chunks from one
//! shared cursor (Section 5.2). Each line also reports how many chunks
//! (morsels) the pool claimed. It panics unless every thread count finds
//! the same number of solutions and every pool claimed at least one chunk.
//!
//! ```bash
//! cargo run --release --example parallel_scaling [scale]
//! ```

use turbohom::core::TurboHomConfig;
use turbohom::datasets::lubm::{self, LubmConfig, LubmGenerator};
use turbohom::engine::{Store, StoreOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let dataset = LubmGenerator::new(LubmConfig::scale(scale)).generate();
    println!("LUBM scale {scale}: {} triples", dataset.len());
    let store = Store::from_dataset_with(dataset, StoreOptions::default());

    let queries: Vec<_> = lubm::queries()
        .into_iter()
        .filter(|q| q.id == "Q2" || q.id == "Q9")
        .collect();
    let thread_counts = [1usize, 2, 4, 8];

    for query in &queries {
        println!("\n{} — {}", query.id, query.description);
        let mut baseline = None;
        let mut solutions = None;
        for &threads in &thread_counts {
            let config = TurboHomConfig::turbohom_plus_plus().with_threads(threads);
            let result = store.execute_turbohom(&query.sparql, config, false)?;
            let elapsed = result.elapsed;
            let speedup = match baseline {
                None => {
                    baseline = Some(elapsed);
                    1.0
                }
                Some(base) => base.as_secs_f64() / elapsed.as_secs_f64().max(1e-9),
            };
            let morsels = result.stats.morsels;
            println!(
                "  {threads:>2} thread(s): {:>12.3?}  ({} solutions, speed-up ×{speedup:.2}, {morsels} morsels)",
                elapsed,
                result.len(),
            );
            let expected = *solutions.get_or_insert(result.len());
            assert_eq!(
                result.len(),
                expected,
                "{} at {threads} threads finds another number of solutions",
                query.id
            );
            assert!(
                threads == 1 || morsels > 0,
                "{} at {threads} threads claimed no morsels",
                query.id
            );
        }
    }
    Ok(())
}
