//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```bash
//! cargo run --release -p turbohom-bench --bin experiments -- all
//! cargo run --release -p turbohom-bench --bin experiments -- table3 figure15
//! ```
//!
//! Each experiment prints a table in the layout of the corresponding paper
//! table/figure, with locally measured numbers.
//!
//! `--engines=turbohom++,mergejoin` restricts the per-engine tables to the
//! listed engines (names are parsed case-insensitively via
//! `EngineKind::from_str`). `figure15 --scale=640` runs the ablation alone, at
//! that LUBM scale, without building the other workloads.
//!
//! The `record` mode writes the reproduction record (docs/BENCHMARKING.md):
//!
//! ```bash
//! cargo run --release -p turbohom-bench --bin experiments -- record \
//!     --scale=64 --threads=1 --out=BENCH_LUBM64.json
//! ```
//!
//! It measures every LUBM query on every engine (5 warm runs each) and writes
//! the medians, raw runs, per-stage matcher counters and stage timings to
//! `--out` (see `turbohom_bench::recorder`). It compares against nothing: the
//! regression gate is the repo benchmark (`BENCHMARK.json`).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use turbohom_bench::recorder::{BenchRecord, QueryRun};
use turbohom_bench::*;
use turbohom_core::{OptimizationName, Optimizations, TurboHomConfig};
use turbohom_datasets::{bsbm, btc, lubm, yago};
use turbohom_engine::{EngineKind, Store, Trace};

/// Every experiment this harness runs, in the order `all` runs them.
const EXPERIMENTS: [&str; 10] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7", "figure6", "figure15",
    "figure16",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "record") {
        return record_mode(&args);
    }
    let engines: Vec<EngineKind> = args
        .iter()
        .filter_map(|a| a.strip_prefix("--engines="))
        .flat_map(|list| list.split(','))
        .map(|name| {
            name.parse::<EngineKind>().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();
    let engines = if engines.is_empty() {
        EngineKind::all().to_vec()
    } else {
        engines
    };
    let mut requested: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.to_lowercase())
        .collect();
    if let Some(other) =
        (requested.iter()).find(|a| *a != "all" && !EXPERIMENTS.contains(&a.as_str()))
    {
        eprintln!("unknown experiment `{other}` (expected table1..table7, figure6, figure15, figure16, all)");
        std::process::exit(2);
    }
    if requested.is_empty() || requested.iter().any(|a| a == "all") {
        requested = EXPERIMENTS.map(String::from).into();
    }

    println!("TurboHOM++ reproduction — experiment harness");
    println!("=============================================");
    if let Some(scale) = flag(&args, "--scale=") {
        if requested != ["figure15"] {
            eprintln!("--scale applies to `figure15` alone (and to `record`)");
            std::process::exit(2);
        }
        let scale: usize = scale.parse().expect("--scale takes an integer");
        println!("building LUBM({scale}) ...");
        return figure15(&format!("LUBM({scale})"), &lubm_store(scale));
    }
    println!("building workloads ...");
    let workloads = Workloads::build();
    for (name, store) in &workloads.lubm {
        println!("  {name}: {} triples", store.triple_count());
    }
    println!("  YAGO-like: {} triples", workloads.yago.triple_count());
    println!("  BTC-like:  {} triples", workloads.btc.triple_count());
    println!("  BSBM-like: {} triples", workloads.bsbm.triple_count());

    for experiment in &requested {
        match experiment.as_str() {
            "table1" => table1(&workloads),
            "table2" => table2(&workloads),
            "table3" => table3(&workloads, &engines),
            "table4" => table4(&workloads, &engines),
            "table5" => table5(&workloads, &engines),
            "table6" => table6(&workloads, &engines),
            "table7" => table7(&workloads),
            "figure6" => figure6(&workloads, &engines),
            "figure15" => {
                let (name, store) = workloads.lubm.last().expect("at least one LUBM scale");
                figure15(name, store)
            }
            "figure16" => figure16(),
            other => unreachable!("`{other}` was checked against the experiments"),
        }
    }
}

/// Returns the value of a `--flag=value` argument, if present.
fn flag<'a>(args: &'a [String], prefix: &str) -> Option<&'a str> {
    args.iter().find_map(|a| a.strip_prefix(prefix))
}

/// The reproduction record: measures the LUBM workload at one scale and
/// writes `BENCH_<dataset>.json`.
fn record_mode(args: &[String]) {
    let scale: usize = flag(args, "--scale=")
        .map(|v| v.parse().expect("--scale takes an integer"))
        .unwrap_or(1);
    let threads: NonZeroUsize = flag(args, "--threads=")
        .map(|v| v.parse().expect("--threads takes an integer of at least 1"))
        .unwrap_or(NonZeroUsize::MIN);
    let dataset = format!("LUBM{scale}");
    let out_path = flag(args, "--out=")
        .map(String::from)
        .unwrap_or_else(|| format!("BENCH_{dataset}.json"));

    println!("record: building {dataset} ...");
    let build_started = std::time::Instant::now();
    let store = lubm_store(scale);
    let parse_build_ms = build_started.elapsed().as_secs_f64() * 1000.0;
    println!(
        "  {} triples ({parse_build_ms:.1} ms parse+build)",
        store.triple_count()
    );
    // Outside `parse_build` and ahead of every measured run: what only the
    // ablation engines read. Each structure's build time is its own column.
    warm_every_engine(&store);
    let structure_ms = store.builds().into_iter().map(|b| (b.structure, b.ms));

    // The load_ms column: how long the same store takes to come up from a
    // snapshot (zero-copy map) vs the parse+build path above.
    let snapshot_path = std::env::temp_dir().join(format!("turbohom-bench-{dataset}.snap"));
    let bytes = store
        .save_snapshot(&snapshot_path)
        .unwrap_or_else(|e| panic!("saving snapshot failed: {e}"));
    let map_started = std::time::Instant::now();
    let mapped = turbohom_engine::Store::from_snapshot(&snapshot_path)
        .unwrap_or_else(|e| panic!("reloading snapshot failed: {e}"));
    let snapshot_map_ms = map_started.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(mapped.triple_count(), store.triple_count());
    println!("  snapshot: {bytes} bytes, mapped in {snapshot_map_ms:.1} ms");
    drop(mapped);
    std::fs::remove_file(&snapshot_path).ok();

    let queries = lubm::queries();
    let mut record = BenchRecord {
        dataset,
        triples: store.triple_count(),
        threads: threads.get(),
        load_ms: [
            ("parse_build".to_string(), parse_build_ms),
            ("snapshot_map".to_string(), snapshot_map_ms),
        ]
        .into_iter()
        .chain(structure_ms.map(|(structure, ms)| (format!("{structure}_build"), ms)))
        .collect(),
        queries: Vec::new(),
    };

    for q in &queries {
        let mut expected: Option<usize> = None;
        for kind in EngineKind::all() {
            let plan = store
                .prepare_plan(&q.sparql, kind)
                .unwrap_or_else(|e| panic!("planning {} for {} failed: {e}", q.id, kind));
            let (runs, last) = measure_runs(|| {
                store
                    .run_plan_traced(&plan, threads, &Trace::disabled())
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", kind.label(), q.id))
                    .decode()
            });
            // Cross-engine agreement doubles as a correctness witness in
            // every recorded file.
            match expected {
                None => expected = Some(last.len()),
                Some(n) => assert_eq!(
                    last.len(),
                    n,
                    "{} disagrees with {} on {}",
                    kind.label(),
                    EngineKind::all()[0].label(),
                    q.id
                ),
            }
            // One extra traced run (outside the five measured) attributes the
            // median to pipeline stages for the `stages_ms` column; its plan
            // explained, with the run's actuals attached, is the ANALYZE
            // report whose max per-step estimate-vs-actual q-error is the
            // `qerror` column (join baselines carry no per-step estimates →
            // None).
            let trace = Trace::detailed(0);
            let traced_plan = store
                .prepare_plan_traced(&q.sparql, kind, &trace)
                .unwrap_or_else(|e| panic!("traced planning {} for {} failed: {e}", q.id, kind));
            let mut analyzed = store.explain(&traced_plan);
            let traced = store
                .run_plan_traced(&traced_plan, threads, &trace)
                .unwrap_or_else(|e| panic!("traced {} failed on {}: {e}", kind.label(), q.id));
            analyzed.attach_actuals(&traced);
            let report = trace.finish();
            record.queries.push(QueryRun {
                id: q.id.clone(),
                engine: kind.name().to_string(),
                runs_ms: runs.iter().map(|d| d.as_secs_f64() * 1000.0).collect(),
                median_ms: protocol_median(&runs).as_secs_f64() * 1000.0,
                avg_ms: protocol_average(&runs).as_secs_f64() * 1000.0,
                solutions: last.len(),
                stats: last.stats,
                qerror: analyzed.max_qerror(),
                stages_ms: {
                    let mut stages: Vec<(String, f64)> = report
                        .stages()
                        .into_iter()
                        .map(|(name, ns)| (name.to_string(), ns as f64 / 1e6))
                        .collect();
                    // The detailed children of `execute` (zero for the join
                    // baselines, which have no region/order phases).
                    for detail in ["candidate_regions", "matching_order", "enumeration"] {
                        let ns = report.span_total_ns(detail);
                        if ns > 0 {
                            stages.push((detail.to_string(), ns as f64 / 1e6));
                        }
                    }
                    stages
                },
            });
        }
        println!(
            "  {:<4} {:>8} solutions, turbohom++ median {} ms",
            q.id,
            expected.unwrap_or(0),
            record
                .queries
                .iter()
                .rev()
                .find(|r| r.id == q.id && r.engine == "turbohom++")
                .map(|r| format!("{:.3}", r.median_ms))
                .unwrap_or_default()
        );
    }

    let json = record.to_json();
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path} ({} bytes)", json.len());
}

/// Keeps `defaults` in order, dropping the engines not selected on the
/// command line.
fn select(defaults: &[EngineKind], selected: &[EngineKind]) -> Vec<EngineKind> {
    defaults
        .iter()
        .copied()
        .filter(|k| selected.contains(k))
        .collect()
}

fn heading(title: &str) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
}

/// Table 1: graph size statistics under the direct vs type-aware
/// transformation.
fn table1(w: &Workloads) {
    heading("Table 1 — graph size statistics (direct vs type-aware transformation)");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14}",
        "dataset", "|V| direct", "|E| direct", "|V| type-aware", "|E| type-aware"
    );
    let mut datasets: Vec<(&str, &turbohom_engine::Store)> =
        w.lubm.iter().map(|(n, s)| (*n, s)).collect();
    datasets.push(("BTC-like", &w.btc));
    datasets.push(("BSBM-like", &w.bsbm));
    for (name, store) in datasets {
        let d = store.direct_graph().graph.stats();
        let a = store.type_aware_graph().graph.stats();
        println!(
            "{:<10} {:>12} {:>12} {:>14} {:>14}",
            name, d.vertices, d.edges, a.vertices, a.edges
        );
    }
}

/// Table 2: number of solutions of the LUBM queries per scale factor.
fn table2(w: &Workloads) {
    heading("Table 2 — number of solutions in LUBM queries");
    let queries = lubm::queries();
    print!("{:<8}", "dataset");
    for q in &queries {
        print!("{:>9}", q.id);
    }
    println!();
    for (name, store) in &w.lubm {
        print!("{name:<8}");
        for q in &queries {
            let (_, count) = measure_engine(store, q, EngineKind::TurboHomPlusPlus);
            print!("{count:>9}");
        }
        println!();
    }
}

/// Table 3: elapsed times of the LUBM queries for every engine, per scale.
fn table3(w: &Workloads, engines: &[EngineKind]) {
    let queries = lubm::queries();
    for (name, store) in &w.lubm {
        heading(&format!("Table 3 — elapsed time in {name} [ms]"));
        print!("{:<26}", "engine");
        for q in &queries {
            print!("{:>10}", q.id);
        }
        println!();
        for kind in select(&EngineKind::all(), engines) {
            print!("{:<26}", kind.label());
            for q in &queries {
                let (elapsed, _) = measure_engine(store, q, kind);
                print!("{:>10}", ms(elapsed));
            }
            println!();
        }
    }
}

/// Generic per-workload table: solutions + elapsed time per engine.
fn workload_table(
    title: &str,
    store: &turbohom_engine::Store,
    queries: &[turbohom_datasets::BenchmarkQuery],
    engines: &[EngineKind],
) {
    heading(title);
    print!("{:<26}", "");
    for q in queries {
        print!("{:>10}", q.id);
    }
    println!();
    print!("{:<26}", "# of solutions");
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for q in queries {
        let (_, count) = measure_engine(store, q, EngineKind::TurboHomPlusPlus);
        counts.insert(q.id.clone(), count);
        print!("{count:>10}");
    }
    println!();
    for kind in engines {
        print!("{:<26}", kind.label());
        for q in queries {
            let (elapsed, count) = measure_engine(store, q, *kind);
            assert_eq!(
                count,
                counts[&q.id],
                "{} disagrees with TurboHOM++ on {}",
                kind.label(),
                q.id
            );
            print!("{:>10}", ms(elapsed));
        }
        println!();
    }
}

/// Table 4: YAGO-like workload.
fn table4(w: &Workloads, engines: &[EngineKind]) {
    workload_table(
        "Table 4 — number of solutions and elapsed time [ms] in YAGO-like data",
        &w.yago,
        &yago::queries(),
        &select(&EngineKind::all(), engines),
    );
}

/// Table 5: BTC-like workload.
fn table5(w: &Workloads, engines: &[EngineKind]) {
    workload_table(
        "Table 5 — number of solutions and elapsed time [ms] in BTC-like data",
        &w.btc,
        &btc::queries(),
        &select(&EngineKind::all(), engines),
    );
}

/// Table 6: BSBM-like explore workload (general SPARQL features). The paper
/// can only run the commercial System-X here; we additionally run both of
/// our join baselines.
fn table6(w: &Workloads, engines: &[EngineKind]) {
    workload_table(
        "Table 6 — number of solutions and elapsed time [ms] in BSBM-like data",
        &w.bsbm,
        &bsbm::queries(),
        &select(
            &[
                EngineKind::TurboHomPlusPlus,
                EngineKind::MergeJoin,
                EngineKind::HashJoin,
            ],
            engines,
        ),
    );
}

/// Table 7: effect of the type-aware transformation (direct vs type-aware,
/// optimizations disabled, largest LUBM scale).
fn table7(w: &Workloads) {
    let (name, store) = w.lubm.last().expect("at least one LUBM scale");
    heading(&format!(
        "Table 7 — effect of type-aware transformation in {name} [ms]"
    ));
    let queries = lubm::queries();
    let config = TurboHomConfig::default().with_optimizations(Optimizations::none());
    println!(
        "{:<6} {:>14} {:>18} {:>10}",
        "query", "direct [ms]", "type-aware [ms]", "gain"
    );
    for q in &queries {
        let (direct, _) = measure_turbohom(store, q, config, true);
        let (aware, _) = measure_turbohom(store, q, config, false);
        let gain = direct.as_secs_f64() / aware.as_secs_f64().max(1e-9);
        println!(
            "{:<6} {:>14} {:>18} {:>9.2}x",
            q.id,
            ms(direct),
            ms(aware),
            gain
        );
    }
}

/// Figure 6: the unoptimized TurboHOM over the direct transformation
/// compared with the join-based engines (log-scale bars in the paper; a
/// table here).
fn figure6(w: &Workloads, engines: &[EngineKind]) {
    let (name, store) = w.lubm.last().expect("at least one LUBM scale");
    heading(&format!(
        "Figure 6 — direct-transformation TurboHOM vs join engines in {name} [ms]"
    ));
    let queries = lubm::queries();
    print!("{:<26}", "engine");
    for q in &queries {
        print!("{:>10}", q.id);
    }
    println!();
    for kind in select(
        &[
            EngineKind::TurboHom,
            EngineKind::MergeJoin,
            EngineKind::HashJoin,
        ],
        engines,
    ) {
        print!("{:<26}", kind.label());
        for q in &queries {
            let (elapsed, _) = measure_engine(store, q, kind);
            print!("{:>10}", ms(elapsed));
        }
        println!();
    }
}

/// Figure 15: reduced elapsed time of each optimization applied separately
/// (Q2 and Q9), one column per [`OptimizationName`]. Panics if a setting
/// finds a different number of solutions than the unoptimized run.
fn figure15(name: &str, store: &Store) {
    heading(&format!(
        "Figure 15 — reduced elapsed time of each optimization in {name} [ms]"
    ));
    let queries: Vec<_> = lubm::queries()
        .into_iter()
        .filter(|q| q.id == "Q2" || q.id == "Q9")
        .collect();
    let labels: Vec<&str> = OptimizationName::all().iter().map(|o| o.label()).collect();
    print!("{:<6} {:>16}", "query", "no-opt [ms]");
    for label in &labels {
        print!(" {label:>12}");
    }
    println!(" {:>16}", "all-opts [ms]");
    for q in &queries {
        let run = |optimizations: Optimizations| {
            let config = TurboHomConfig::default().with_optimizations(optimizations);
            measure_turbohom(store, q, config, false)
        };
        let (base, solutions) = run(Optimizations::none());
        print!("{:<6} {:>16}", q.id, ms(base));
        let only = OptimizationName::all().map(Optimizations::only);
        for (optimizations, label) in only.into_iter().zip(&labels) {
            let (t, found) = run(optimizations);
            assert_eq!(found, solutions, "{} with only {label}", q.id);
            print!(" {:>12}", ms(base.saturating_sub(t)));
        }
        let (all, found) = run(Optimizations::all());
        assert_eq!(found, solutions, "{} with every optimization", q.id);
        println!(" {:>16}", ms(all));
    }
    println!(
        "(columns {} report the elapsed-time reduction relative to the no-optimization run)",
        labels.join("/")
    );
}

/// Figure 16: parallel speed-up of TurboHOM++ on Q2 and Q9.
fn figure16() {
    heading("Figure 16 — parallel speed-up of TurboHOM++ (Q2 and Q9)");
    let thread_counts = [1usize, 2, 4, 8, 16];
    println!("building the parallel workload (larger departments) ...");
    let universities = 96;
    let queries: Vec<_> = lubm::queries()
        .into_iter()
        .filter(|q| q.id == "Q2" || q.id == "Q9")
        .collect();
    // One store; each run asks for its thread count. The plan is made
    // inside the timed closure, so every run is cold.
    let base_store = lubm_parallel_store(universities);
    println!("  {} triples", base_store.triple_count());
    println!(
        "{:<6} {:>9} {:>14} {:>10}",
        "query", "threads", "elapsed [ms]", "speed-up"
    );
    for q in &queries {
        let mut baseline_ms = None;
        let mut solutions = None;
        for threads in thread_counts.map(|n| NonZeroUsize::new(n).unwrap()) {
            let (elapsed, result) = measure(|| {
                let plan = (base_store.prepare_plan(&q.sparql, EngineKind::TurboHomPlusPlus))
                    .unwrap_or_else(|e| panic!("planning {} failed: {e}", q.id));
                (base_store.run_plan_traced(&plan, threads, &Trace::disabled()))
                    .unwrap_or_else(|e| panic!("TurboHOM++ failed on {}: {e}", q.id))
                    .decode()
            });
            let expected = *solutions.get_or_insert(result.len());
            assert_eq!(
                result.len(),
                expected,
                "{} at {threads} threads finds another number of solutions",
                q.id
            );
            let t = elapsed.as_secs_f64() * 1000.0;
            let speedup = match baseline_ms {
                None => {
                    baseline_ms = Some(t);
                    1.0
                }
                Some(base) => base / t.max(1e-9),
            };
            println!(
                "{:<6} {:>9} {:>14} {:>9.2}x",
                q.id,
                threads,
                ms(elapsed),
                speedup
            );
        }
    }
}
