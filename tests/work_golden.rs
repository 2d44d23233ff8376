//! The work golden: what every benchmark query costs the matcher, in counts
//! rather than in time, so that a noisy host can still hold the line.
//!
//! For every LUBM query on LUBM(1) and LUBM(8) and every BSBM query on
//! BSBM(1), each also with a `LIMIT 7`, × the four engines × a heap store and
//! the snapshot it saves, at one worker thread, the test recomputes a work
//! vector: every `MatchStats::counters()` entry, the row count and a hash of
//! the sorted SPARQL-JSON body. It compares each with the committed vector in
//! `crates/bench/tests/golden/work.json` and names the query and the counter
//! that moved. At two worker threads only the row count and the hash are
//! checked (a LIMIT's rows are then any seven rows of the answer, so a
//! `LIMIT 7` query checks its row count alone).
//!
//! A change that is meant to move a number re-blesses the file:
//! `cargo test --test work_golden -- --ignored bless_work_golden`.

use std::collections::HashMap;
use turbohom::datasets::{bsbm, lubm};
use turbohom::engine::{EngineKind, QueryResults, Store, Trace};
use turbohom::rdf::Dataset;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/bench/tests/golden/work.json"
);

/// The `LIMIT` every query is run with a second time.
const LIMIT: &str = " LIMIT 7";

/// One work vector: `(name, value)` pairs, `rows` and `hash` first.
type Vector = Vec<(String, String)>;

/// Queries as `(id, text)`.
type Queries = Vec<(String, String)>;

/// 64-bit FNV-1a: a hash that is the same on every platform and toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The datasets with their queries.
fn workloads() -> Vec<(&'static str, Dataset, Queries)> {
    let lubm_queries = lubm::queries();
    let bsbm_queries = bsbm::queries();
    let with_limits = |queries: &[turbohom::datasets::BenchmarkQuery]| {
        let plain = queries.iter().map(|q| (q.id.clone(), q.sparql.clone()));
        let limited =
            (queries.iter()).map(|q| (format!("{}{LIMIT}", q.id), q.sparql.clone() + LIMIT));
        plain.chain(limited).collect::<Vec<_>>()
    };
    let lubm = |scale| lubm::LubmGenerator::new(lubm::LubmConfig::scale(scale)).generate();
    let bsbm = bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate();
    vec![
        ("LUBM(1)", lubm(1), with_limits(&lubm_queries)),
        ("LUBM(8)", lubm(8), with_limits(&lubm_queries)),
        ("BSBM(1)", bsbm, with_limits(&bsbm_queries)),
    ]
}

/// Runs `sparql` with `kind` at `threads` worker threads.
fn run(store: &Store, sparql: &str, kind: EngineKind, threads: usize) -> QueryResults {
    let plan = store.prepare_plan(sparql, kind).unwrap();
    let results = store.run_plan_traced(&plan, Some(threads), &Trace::disabled());
    results.unwrap().decode()
}

/// The work vector of one run.
fn vector(mut results: QueryResults) -> Vector {
    let stats = results.stats;
    results.rows.sort();
    let mut vector = vec![
        ("rows".to_string(), results.len().to_string()),
        (
            "hash".to_string(),
            format!("\"{:016x}\"", fnv1a(results.to_sparql_json().as_bytes())),
        ),
    ];
    let counters = stats.counters().into_iter();
    vector.extend(counters.map(|(name, value)| (name.to_string(), value.to_string())));
    vector
}

/// Every work vector at `threads` worker threads, keyed by
/// `"<dataset> <query> <engine> <store>"`.
fn measure(threads: &[usize]) -> Vec<(usize, String, Vector)> {
    let dir = std::env::temp_dir().join("turbohom-work-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let mut vectors = Vec::new();
    for (name, dataset, queries) in workloads() {
        let heap = Store::from_dataset(dataset);
        let path = dir.join(format!("{name}-{}.snap", std::process::id()));
        heap.save_snapshot(&path).unwrap();
        let snapshot = Store::from_snapshot(&path).unwrap();
        for store in [&heap, &snapshot] {
            for (id, sparql) in &queries {
                for kind in EngineKind::all() {
                    let key = format!("{name} {id} {} {}", kind.label(), store.backend_name());
                    for &t in threads {
                        vectors.push((t, key.clone(), vector(run(store, sparql, kind, t))));
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
    vectors
}

fn render(vectors: &[(usize, String, Vector)]) -> String {
    let lines: Vec<String> = (vectors.iter())
        .map(|(_, key, vector)| {
            let fields = vector
                .iter()
                .map(|(name, value)| format!(",\"{name}\":{value}"));
            format!("{{\"id\":\"{key}\"{}}}", fields.collect::<String>())
        })
        .collect();
    format!(
        "{{\"schema\":\"turbohom-work/1\",\"vectors\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// The committed vectors, keyed like [`measure`]'s.
fn golden() -> HashMap<String, Vector> {
    let text = std::fs::read_to_string(GOLDEN).expect("the work golden is committed");
    let mut vectors = HashMap::new();
    for line in text.lines().filter(|line| line.starts_with("{\"id\":")) {
        let line = line.trim_end_matches(',');
        let inner = &line[1..line.len() - 1];
        let mut fields = inner.split(',').map(|field| {
            let (name, value) = field.split_once(':').expect("a `\"name\":value` field");
            (name.trim_matches('"').to_string(), value.to_string())
        });
        let (_, key) = fields.next().expect("the id comes first");
        vectors.insert(key.trim_matches('"').to_string(), fields.collect());
    }
    vectors
}

#[test]
fn every_benchmark_query_does_the_committed_work() {
    let golden = golden();
    let mut moved = Vec::new();
    let measured = measure(&[1, 2]);
    for (threads, key, vector) in &measured {
        let Some(expected) = golden.get(key) else {
            moved.push(format!("{key}: no committed vector"));
            continue;
        };
        for ((name, value), (_, committed)) in vector.iter().zip(expected) {
            let checked = match (threads, name.as_str()) {
                (1, _) => true,
                (_, "rows") => true,
                (_, "hash") => !key.contains(LIMIT),
                _ => false,
            };
            if checked && value != committed {
                moved.push(format!(
                    "{key} at {threads} thread(s): {name} {committed} -> {value}"
                ));
            }
        }
        if vector.len() != expected.len() {
            moved.push(format!(
                "{key}: {} fields, committed {}",
                vector.len(),
                expected.len()
            ));
        }
    }
    let one_thread = measured.iter().filter(|(t, ..)| *t == 1).count();
    if one_thread != golden.len() {
        moved.push(format!("{one_thread} vectors, committed {}", golden.len()));
    }
    assert!(
        moved.is_empty(),
        "{} differences from the work golden (re-bless only a move that is meant):\n{}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
#[ignore = "writes the golden; run it when a change is meant to move a number"]
fn bless_work_golden() {
    std::fs::write(GOLDEN, render(&measure(&[1]))).unwrap();
}
