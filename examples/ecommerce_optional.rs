//! General SPARQL features on the BSBM-like e-commerce dataset.
//!
//! Demonstrates the OPTIONAL / FILTER / UNION support of Section 5.1: the
//! twelve explore-use-case queries run through TurboHOM++ and the hash-join
//! baseline, and a few result bindings are printed.
//!
//! ```bash
//! cargo run --release --example ecommerce_optional
//! ```

use turbohom::datasets::bsbm::{self, BsbmConfig, BsbmGenerator};
use turbohom::engine::{EngineKind, Store, StoreOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
    println!("generated {} triples of e-commerce data", dataset.len());
    let store = Store::from_dataset_with(dataset, StoreOptions::default());
    // The join baseline's permutation tables are built by its first plan;
    // build them now so no timing below sits next to a build.
    store.warm(EngineKind::HashJoin);

    println!(
        "\n{:<4} {:>9} {:>14} {:>14}   description",
        "id", "solutions", "TurboHOM++", "HashJoin"
    );
    for query in bsbm::queries() {
        let graph = store.execute(&query.sparql, EngineKind::TurboHomPlusPlus)?;
        let join = store.execute(&query.sparql, EngineKind::HashJoin)?;
        assert_eq!(
            graph.len(),
            join.len(),
            "engines disagree on {}: {} vs {}",
            query.id,
            graph.len(),
            join.len()
        );
        println!(
            "{:<4} {:>9} {:>12.3?} {:>12.3?}   {}",
            query.id,
            graph.len(),
            graph.elapsed,
            join.elapsed,
            query.description
        );
    }

    // Q5's constant side (one product's two values) yields one row, so the
    // other component is matched once with it bound: its join-condition
    // FILTERs run inline, and no row is left for a FILTER after the match.
    // Q6's REGEX reads one variable: it runs inline, where the start vertex
    // is chosen.
    let queries = bsbm::queries();
    for (query, fallback) in [
        (&queries[4], "the cartesian product of its components"),
        (&queries[5], "filtering complete solutions"),
    ] {
        let stats = store
            .execute(&query.sparql, EngineKind::TurboHomPlusPlus)?
            .stats;
        println!(
            "\n{}: filtered_inline {} filtered_post {}",
            query.id, stats.filtered_inline, stats.filtered_post
        );
        assert!(
            stats.filtered_inline > 0 && stats.filtered_post == 0,
            "{} fell back to {fallback}",
            query.id
        );
    }

    // Q6's start-vertex selection counts the labels its REGEX keeps, fewer
    // than the products: every region starts from a label that matches and
    // holds one solution.
    let q6 = &queries[5];
    let plan = store.prepare_plan(&q6.sparql, EngineKind::TurboHomPlusPlus)?;
    let explained = store.explain(&plan);
    let start = explained.components[0].start.as_ref();
    let variable = start.and_then(|start| start.variable.as_deref());
    let stats = store.run_plan(&plan)?.stats;
    println!(
        "Q6: starts at ?{} with {} candidate regions for {} solutions",
        variable.unwrap_or("?"),
        stats.candidate_regions,
        stats.solutions
    );
    assert!(
        variable == Some("label") && stats.candidate_regions == stats.solutions,
        "Q6 did not start from the labels its REGEX keeps"
    );

    // Show what OPTIONAL answers look like: offers and (possibly missing)
    // ratings for one product.
    let q7 = &bsbm::queries()[6];
    let results = store.execute(&q7.sparql, EngineKind::TurboHomPlusPlus)?;
    println!("\nsample bindings for {} ({}):", q7.id, q7.description);
    for binding in results.iter_bindings().take(5) {
        let rating = binding
            .get("rating")
            .map(|t| t.to_string())
            .unwrap_or_else(|| "(no rating)".to_string());
        println!(
            "  offer={} price={} review={} rating={rating}",
            binding
                .get("offer")
                .map(|t| t.to_string())
                .unwrap_or_default(),
            binding
                .get("price")
                .map(|t| t.to_string())
                .unwrap_or_default(),
            binding
                .get("review")
                .map(|t| t.to_string())
                .unwrap_or_default(),
        );
    }
    Ok(())
}
