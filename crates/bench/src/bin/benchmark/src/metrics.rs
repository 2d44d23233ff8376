//! The metric tables: every name this benchmark prints, with its unit, its
//! good direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a client of the endpoint sees (`--trace 0`). Failures are not a
/// metric here: they are the `attempted` / `failed` pair of the result line,
/// and any failure makes the run incorrect.
///
/// Every timing is taken on one CPU and divided by the host factor read
/// beside it (`host.rs`). On the shared 2-core host this was written on,
/// that brings the spread between runs of the same binary on ten seeds from
/// 20–50 % of the median down to 2–8 %; the timing bounds stay at the widest
/// the benchmark contract allows, three times that, so that a busier host
/// than this one still fits; see "Steadiness" in the README.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("qps", "1/s", Higher, 0.25),
    gated("p50_ms", "ms", Lower, 0.25),
    gated("p95_ms", "ms", Lower, 0.25),
    gated("cpu_ms_per_query", "ms", Lower, 0.25),
    gated("rss_mb", "MB", Lower, 0.25),
];

/// What each layer did (`--trace 1`). Medians per request unless a count,
/// a ratio or a set-up time; `0` where a metric does not apply to the
/// workload (the `*sharded*` and `partition.*` rows off `lubm_sharded`, the
/// `storage.*` rows off `bsbm_cold`).
pub const PER_LAYER: [Metric; 41] = [
    layer("sparql.parse_us", "us", Lower),
    layer("transform.plan_us", "us", Lower),
    layer("core.matching_orders_computed", "count", Lower),
    layer("service.query_overhead_us", "us", Lower),
    layer("service.plan_cache_hit_ratio", "ratio", Higher),
    layer("service.http_overhead_us", "us", Lower),
    layer("service.connections_per_request", "ratio", Lower),
    layer("core.match_us", "us", Lower),
    layer("core.candidate_regions", "count", Lower),
    layer("core.candidate_vertices", "count", Lower),
    layer("core.search_recursions", "count", Lower),
    layer("core.intersection_ops", "count", Lower),
    layer("core.filtered_inline", "count", Higher),
    layer("core.filtered_post", "count", Lower),
    layer("core.solutions", "count", Higher),
    layer("core.nonempty_region_ratio", "ratio", Higher),
    layer("engine.run_plan_us", "us", Lower),
    layer("engine.materialise_us", "us", Lower),
    layer("engine.serialise_us", "us", Lower),
    layer("engine.serialise_mb_per_s", "MB/s", Higher),
    layer("engine.rows", "count", Higher),
    layer("engine.body_bytes", "B", Lower),
    layer("engine.sharded_run_plan_us", "us", Lower),
    layer("engine.sharded_overhead_x", "x", Lower),
    layer("partition.prune_ratio", "ratio", Higher),
    layer("partition.live_shards_per_query", "count", Lower),
    layer("partition.replication_factor", "x", Lower),
    layer("datasets.generate_s", "s", Lower),
    layer("engine.build_s", "s", Lower),
    layer("engine.build_triples_per_s", "1/s", Higher),
    layer("storage.snapshot_save_s", "s", Lower),
    layer("storage.snapshot_map_s", "s", Lower),
    layer("storage.snapshot_bytes_per_triple", "B", Lower),
    layer("baseline.mergejoin_x", "x", Higher),
    layer("baseline.hashjoin_x", "x", Higher),
    layer("trace.profile_overhead_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("share.service", "ratio", Lower),
    layer("share.sparql_transform", "ratio", Lower),
    layer("share.core", "ratio", Lower),
    layer("share.engine_result_path", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above and to the workload list.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let better = |b: Better| if b == Lower { "lower" } else { "higher" };
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound.expect("end-to-end metrics are bounded")
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for spec in SPECS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", spec.name, spec.why);
            assert!(json.contains(&entry), "missing {entry}");
        }
        let names = json.matches("{\"name\": ").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + SPECS.len());
    }
}
