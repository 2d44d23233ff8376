//! Shared harness utilities for the experiment reproduction.
//!
//! The paper's measurement protocol (Section 7.1): every query is executed
//! five times with a warm cache, the best and worst runs are dropped, and
//! the remaining three are averaged; dictionary look-up time is excluded
//! (our engines time only the pattern matching). [`measure`] implements that
//! protocol; [`Workloads`] builds the stores for each benchmark dataset at
//! laptop-sized scale factors ([`LUBM_SCALES`]).

use std::time::Duration;
use turbohom_core::TurboHomConfig;
use turbohom_datasets::{bsbm, btc, lubm, yago, BenchmarkQuery};
use turbohom_engine::{
    EngineKind, QueryResults, ShardedOptions, ShardedStore, Store, StoreOptions,
};

pub mod recorder;

/// The LUBM scale factors standing in for LUBM80 / LUBM800 / LUBM8000.
pub const LUBM_SCALES: [(&str, usize); 3] = [("LUBM-S", 2), ("LUBM-M", 8), ("LUBM-L", 32)];

/// Executes a closure following the paper's 5-run / drop-best-and-worst /
/// average-the-rest protocol and returns the averaged duration together with
/// the result of the last run.
pub fn measure<F>(run: F) -> (Duration, QueryResults)
where
    F: FnMut() -> QueryResults,
{
    let (runs, last) = measure_runs(run);
    (protocol_average(&runs), last)
}

/// Executes a closure five times and returns the raw per-run durations (in
/// execution order) together with the result of the last run. The
/// reproduction record persists the raw runs; [`measure`] reduces them with
/// the paper's protocol.
pub fn measure_runs<F>(mut run: F) -> ([Duration; 5], QueryResults)
where
    F: FnMut() -> QueryResults,
{
    let mut durations = [Duration::ZERO; 5];
    let mut last = QueryResults::default();
    for slot in &mut durations {
        let result = run();
        *slot = result.elapsed;
        last = result;
    }
    (durations, last)
}

/// The paper's reduction: drop the best and the worst of five runs, average
/// the remaining three.
pub fn protocol_average(runs: &[Duration; 5]) -> Duration {
    let mut sorted = *runs;
    sorted.sort();
    let kept = &sorted[1..4];
    kept.iter().sum::<Duration>() / kept.len() as u32
}

/// The median of five runs (the reproduction record's headline number — a
/// single order statistic is more robust to scheduler noise than a mean).
pub fn protocol_median(runs: &[Duration; 5]) -> Duration {
    let mut sorted = *runs;
    sorted.sort();
    sorted[2]
}

/// The SPARQL-JSON body with its rows sorted: what the equivalence suites
/// compare. Rows leave the engine in enumeration order, which differs across
/// thread counts, store flavours and shard counts; the sorted bodies are equal
/// exactly when the rows and their rendering are.
pub fn canonical_json(mut results: QueryResults) -> String {
    results.rows.sort();
    results.to_sparql_json()
}

/// Runs `query` on `store` with `kind`, measured per the paper's protocol.
pub fn measure_engine(
    store: &Store,
    query: &BenchmarkQuery,
    kind: EngineKind,
) -> (Duration, usize) {
    let (elapsed, result) = measure(|| {
        store
            .execute(&query.sparql, kind)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.label(), query.id))
    });
    (elapsed, result.len())
}

/// Runs `query` with an explicit TurboHOM configuration (ablations, threads).
pub fn measure_turbohom(
    store: &Store,
    query: &BenchmarkQuery,
    config: TurboHomConfig,
    force_direct: bool,
) -> (Duration, usize) {
    let (elapsed, result) = measure(|| {
        store
            .execute_turbohom(&query.sparql, config, force_direct)
            .unwrap_or_else(|e| panic!("TurboHOM failed on {}: {e}", query.id))
    });
    (elapsed, result.len())
}

/// Builds everything any engine reads beyond the type-aware graph (the
/// direct graph, the permutation tables), so that no measurement taken
/// afterwards sits next to — or contains — a first-use build.
pub fn warm_every_engine(store: &Store) {
    for kind in EngineKind::all() {
        store.warm(kind);
    }
}

/// Formats a duration in milliseconds with three decimals (the paper's unit).
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

/// Builds the LUBM store at one scale factor (the generator already
/// materializes the RDFS closure, matching the paper's loading protocol).
pub fn lubm_store(scale: usize) -> Store {
    let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(scale)).generate();
    Store::from_dataset_with(dataset, StoreOptions::default())
}

/// Builds the LUBM store with its terms' ownership split `shards` ways (the
/// configuration the differential tests run).
pub fn sharded_lubm_store(scale: usize, shards: usize) -> ShardedStore {
    let dataset = lubm::LubmGenerator::new(lubm::LubmConfig::scale(scale)).generate();
    ShardedStore::from_dataset_with(
        dataset,
        ShardedOptions {
            shards,
            ..ShardedOptions::default()
        },
    )
    .expect("a LUBM store shards cleanly")
}

/// A larger LUBM configuration used for the parallel-speed-up experiment
/// (bigger departments so Q2/Q9 run long enough for threading to matter).
pub fn lubm_parallel_store(universities: usize, threads: usize) -> Store {
    let config = lubm::LubmConfig {
        universities,
        departments_per_university: 6,
        undergraduates_per_department: 80,
        graduates_per_department: 48,
        courses_per_department: 12,
        graduate_courses_per_department: 8,
        ..lubm::LubmConfig::default()
    };
    let dataset = lubm::LubmGenerator::new(config).generate();
    Store::from_dataset_with(
        dataset,
        StoreOptions {
            inference: false,
            threads,
        },
    )
}

/// Builds the YAGO-like store.
pub fn yago_store(scale: usize) -> Store {
    let dataset = yago::YagoGenerator::new(yago::YagoConfig::scale(scale)).generate();
    Store::from_dataset_with(
        dataset,
        StoreOptions {
            inference: true,
            threads: 1,
        },
    )
}

/// Builds the BTC-like store (no inference, as in the paper).
pub fn btc_store(scale: usize) -> Store {
    let dataset = btc::BtcGenerator::new(btc::BtcConfig::scale(scale)).generate();
    Store::from_dataset_with(dataset, StoreOptions::default())
}

/// Builds the BSBM-like store.
pub fn bsbm_store(scale: usize) -> Store {
    let dataset = bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(scale)).generate();
    Store::from_dataset_with(dataset, StoreOptions::default())
}

/// All benchmark workloads, built once and shared between experiments.
pub struct Workloads {
    /// LUBM stores at the three scale factors, smallest first.
    pub lubm: Vec<(&'static str, Store)>,
    /// The YAGO-like store.
    pub yago: Store,
    /// The BTC-like store.
    pub btc: Store,
    /// The BSBM-like store.
    pub bsbm: Store,
}

impl Workloads {
    /// Builds every workload (a few seconds of generation time), each with
    /// every engine's structures already built.
    pub fn build() -> Self {
        let workloads = Workloads {
            lubm: LUBM_SCALES
                .iter()
                .map(|(name, scale)| (*name, lubm_store(*scale)))
                .collect(),
            yago: yago_store(2),
            btc: btc_store(2),
            bsbm: bsbm_store(2),
        };
        let stores = workloads.lubm.iter().map(|(_, store)| store);
        stores
            .chain([&workloads.yago, &workloads.btc, &workloads.bsbm])
            .for_each(warm_every_engine);
        workloads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_implements_the_papers_five_run_protocol() {
        // Feed `measure` five synthetic runs with known durations and check
        // the Section 7.1 protocol: run five times, drop the best and the
        // worst run, average the remaining three.
        let synthetic = [5u64, 1, 3, 2, 9]; // milliseconds, deliberately unsorted
        let mut call = 0usize;
        let (avg, last) = measure(|| {
            let result = QueryResults {
                solution_count: call, // marks which run produced it
                elapsed: Duration::from_millis(synthetic[call]),
                ..QueryResults::default()
            };
            call += 1;
            result
        });
        assert_eq!(call, 5, "the protocol must execute exactly five runs");
        // Dropping best (1ms) and worst (9ms) keeps {2, 3, 5}ms.
        let expected =
            (Duration::from_millis(2) + Duration::from_millis(3) + Duration::from_millis(5)) / 3;
        assert_eq!(avg, expected);
        // The returned result is the one from the last run.
        assert_eq!(last.len(), 4);
    }

    #[test]
    fn measure_follows_drop_best_and_worst_protocol() {
        let store = lubm_store(1);
        let queries = lubm::queries();
        let (elapsed, count) = measure_engine(&store, &queries[0], EngineKind::TurboHomPlusPlus);
        assert!(count > 0);
        assert!(elapsed > Duration::ZERO);
        assert!(!ms(elapsed).is_empty());
    }

    #[test]
    fn stores_build_for_every_workload() {
        assert!(lubm_store(1).triple_count() > 1000);
        assert!(yago_store(1).triple_count() > 1000);
        assert!(btc_store(1).triple_count() > 1000);
        assert!(bsbm_store(1).triple_count() > 1000);
    }
}
