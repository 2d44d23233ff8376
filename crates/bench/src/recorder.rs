//! The reproduction record: persistent `BENCH_<dataset>.json` files.
//!
//! Every `experiments -- record` run writes one [`BenchRecord`]: the raw
//! five-run timings, the median and the paper-protocol average per
//! (query, engine) pair, plus the matcher's per-stage counters
//! ([`turbohom_engine::MatchStats`]) so a number can be attributed to a
//! stage ("candidate regions exploded" vs "intersections got slower")
//! without re-running anything.
//!
//! The record is written and never read back by this workspace: the
//! regression gate is the repo benchmark (`BENCHMARK.json`), and the
//! committed files are read with `jq` (docs/BENCHMARKING.md). Serialization
//! is hand-rolled (the workspace deliberately has no JSON dependency).

use turbohom_engine::{escape_json_into, MatchStats};

/// One (query, engine) measurement: five raw runs plus per-stage counters.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// The benchmark query id (e.g. `Q2`).
    pub id: String,
    /// The engine's machine-readable name (`EngineKind::name`).
    pub engine: String,
    /// The five raw run durations, milliseconds, in execution order.
    pub runs_ms: Vec<f64>,
    /// Median of the five runs (the record's headline number).
    pub median_ms: f64,
    /// The paper's Section 7.1 reduction: drop best and worst, average.
    pub avg_ms: f64,
    /// Number of solutions (cross-engine agreement is checked at record
    /// time, so this is also a correctness witness).
    pub solutions: usize,
    /// Matcher counters of the last run (all-zero for join baselines).
    pub stats: MatchStats,
    /// Per-stage wall-clock breakdown (stage name, milliseconds) from one
    /// traced run outside the five measured ones, in pipeline order.
    pub stages_ms: Vec<(String, f64)>,
    /// Maximum per-step estimate-vs-actual q-error of that traced run, its
    /// actuals attached to its plan's EXPLAIN (`max(est/actual, actual/est)`
    /// over the matching-order steps). `None` (member omitted) for the join
    /// baselines, which have no per-step estimates.
    pub qerror: Option<f64>,
}

/// One recorded benchmark session: everything `BENCH_<dataset>.json` holds.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Dataset label, e.g. `LUBM64`.
    pub dataset: String,
    /// Triples loaded (after inference).
    pub triples: usize,
    /// Worker threads used for the per-engine measurements.
    pub threads: usize,
    /// Store-load timings in milliseconds: `parse_build` (generate the
    /// triples and build every index on the heap), `snapshot_map` (open a
    /// saved snapshot zero-copy) and one `<structure>_build` per first-use
    /// structure.
    pub load_ms: Vec<(String, f64)>,
    /// Per-(query, engine) measurements.
    pub queries: Vec<QueryRun>,
}

/// Writes `{"name": ms, ...}`.
fn push_ms_object(out: &mut Vec<u8>, entries: &[(String, f64)]) {
    out.push(b'{');
    for (i, (name, ms)) in entries.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        out.push(b'"');
        escape_json_into(out, name);
        out.extend_from_slice(b"\": ");
        push_f64(out, *ms);
    }
    out.push(b'}');
}

fn push_query_run(out: &mut Vec<u8>, q: &QueryRun) {
    out.extend_from_slice(b"{\"id\": \"");
    escape_json_into(out, &q.id);
    out.extend_from_slice(b"\", \"engine\": \"");
    escape_json_into(out, &q.engine);
    out.extend_from_slice(b"\", \"runs_ms\": [");
    for (j, r) in q.runs_ms.iter().enumerate() {
        if j > 0 {
            out.push(b',');
        }
        push_f64(out, *r);
    }
    out.extend_from_slice(b"], \"median_ms\": ");
    push_f64(out, q.median_ms);
    out.extend_from_slice(b", \"avg_ms\": ");
    push_f64(out, q.avg_ms);
    out.extend_from_slice(format!(", \"solutions\": {}, \"stats\": ", q.solutions).as_bytes());
    push_stats(out, &q.stats);
    out.extend_from_slice(b", \"stages_ms\": ");
    push_ms_object(out, &q.stages_ms);
    if let Some(qerr) = q.qerror {
        out.extend_from_slice(b", \"qerror\": ");
        push_f64(out, qerr);
    }
    out.push(b'}');
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    // Emit finite numbers only; JSON has no NaN/Inf.
    if v.is_finite() {
        out.extend_from_slice(format!("{v:.6}").as_bytes());
    } else {
        out.push(b'0');
    }
}

/// Writes `{"name":value,...}`, one member per `MatchStats::counters()` entry,
/// in the table's order.
fn push_stats(out: &mut Vec<u8>, s: &MatchStats) {
    out.push(b'{');
    for (i, (name, value)) in s.counters().into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(format!("\"{name}\":{value}").as_bytes());
    }
    out.push(b'}');
}

impl BenchRecord {
    /// Serializes the record as pretty-stable JSON (keys in fixed order, so
    /// committed records diff cleanly).
    pub fn to_json(&self) -> String {
        let mut out: Vec<u8> = Vec::with_capacity(1024 + self.queries.len() * 256);
        out.extend_from_slice(b"{\n");
        out.extend_from_slice(b"  \"schema\": \"turbohom-bench/2\",\n");
        out.extend_from_slice(b"  \"dataset\": \"");
        escape_json_into(&mut out, &self.dataset);
        out.extend_from_slice(b"\",\n");
        out.extend_from_slice(format!("  \"triples\": {},\n", self.triples).as_bytes());
        out.extend_from_slice(format!("  \"threads\": {},\n", self.threads).as_bytes());
        out.extend_from_slice(b"  \"protocol\": \"5 warm runs; median_ms = middle run, avg_ms = drop best/worst then average\",\n");
        out.extend_from_slice(b"  \"load_ms\": ");
        push_ms_object(&mut out, &self.load_ms);
        out.extend_from_slice(b",\n  \"queries\": [\n");
        for (i, q) in self.queries.iter().enumerate() {
            out.extend_from_slice(b"    ");
            push_query_run(&mut out, q);
            out.extend_from_slice(if i + 1 < self.queries.len() {
                b",\n"
            } else {
                b"\n"
            });
        }
        out.extend_from_slice(b"  ]\n}\n");
        String::from_utf8(out).expect("the emitter writes UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the whole file shape: marker, member order, number format,
    /// escaping, and that `qerror: None` leaves no member behind. The
    /// committed `BENCH_*.json` files are read with `jq`, so a reordered or
    /// renamed member is a breaking change.
    #[test]
    fn json_shape_is_stable() {
        let record = BenchRecord {
            dataset: "LUBM1".into(),
            triples: 12345,
            threads: 1,
            load_ms: vec![("parse_build".into(), 12.5), ("snapshot_map".into(), 0.75)],
            queries: vec![
                QueryRun {
                    id: "Q1".into(),
                    engine: "turbohom++".into(),
                    runs_ms: vec![0.5, 0.4, 0.6, 0.45, 0.55],
                    median_ms: 0.5,
                    avg_ms: 0.5,
                    solutions: 4,
                    stats: MatchStats {
                        candidate_regions: 7,
                        intersection_ops: 3,
                        solutions: 4,
                        ..MatchStats::default()
                    },
                    stages_ms: vec![("parse".into(), 0.01), ("execute".into(), 0.45)],
                    qerror: Some(1.25),
                },
                QueryRun {
                    id: "Q\"2\\\n".into(),
                    engine: "mergejoin".into(),
                    runs_ms: vec![1.0; 5],
                    median_ms: 1.0,
                    avg_ms: f64::NAN,
                    solutions: 0,
                    stats: MatchStats::default(),
                    stages_ms: Vec::new(),
                    qerror: None,
                },
            ],
        };
        let zero_stats =
            "{\"candidate_regions\":0,\"nonempty_regions\":0,\"candidate_vertices\":0,\
            \"explored_vertices\":0,\"signature_pruned\":0,\"isjoinable_probes\":0,\
            \"intersection_ops\":0,\"search_recursions\":0,\"degree_filtered\":0,\"nlf_filtered\":0,\
            \"matching_orders_computed\":0,\"filtered_inline\":0,\"filtered_post\":0,\"solutions\":0,\
            \"morsels\":0,\"shards_executed\":0,\"shards_pruned\":0}";
        // Every matcher counter, named as the table names it, in its order.
        let members: Vec<&str> = zero_stats
            .trim_matches(['{', '}'])
            .split(',')
            .map(|member| member.split('"').nth(1).unwrap())
            .collect();
        let table: Vec<&str> = MatchStats::default()
            .counters()
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(members, table);
        let q1_stats = zero_stats
            .replace("\"candidate_regions\":0", "\"candidate_regions\":7")
            .replace("\"intersection_ops\":0", "\"intersection_ops\":3")
            .replace("\"solutions\":0", "\"solutions\":4");
        let expected = format!(
            "{{\n  \"schema\": \"turbohom-bench/2\",\n  \"dataset\": \"LUBM1\",\n  \"triples\": 12345,\n  \"threads\": 1,\n  \
             \"protocol\": \"5 warm runs; median_ms = middle run, avg_ms = drop best/worst then average\",\n  \
             \"load_ms\": {{\"parse_build\": 12.500000, \"snapshot_map\": 0.750000}},\n  \
             \"queries\": [\n    \
             {{\"id\": \"Q1\", \"engine\": \"turbohom++\", \
             \"runs_ms\": [0.500000,0.400000,0.600000,0.450000,0.550000], \
             \"median_ms\": 0.500000, \"avg_ms\": 0.500000, \"solutions\": 4, \"stats\": {q1_stats}, \
             \"stages_ms\": {{\"parse\": 0.010000, \"execute\": 0.450000}}, \"qerror\": 1.250000}},\n    \
             {{\"id\": \"Q\\\"2\\\\\\n\", \"engine\": \"mergejoin\", \
             \"runs_ms\": [1.000000,1.000000,1.000000,1.000000,1.000000], \
             \"median_ms\": 1.000000, \"avg_ms\": 0, \"solutions\": 0, \"stats\": {zero_stats}, \
             \"stages_ms\": {{}}}}\n  \
             ]\n}}\n"
        );
        assert_eq!(record.to_json(), expected);
    }
}
