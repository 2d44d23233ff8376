//! The traced run: where a request's time goes, layer by layer.
//!
//! The first `traced_requests` requests of the seeded sequence are replayed
//! three ways:
//!
//! 1. over HTTP against a real server (after one unmeasured pass that fills
//!    the plan cache) — the latency to be explained;
//! 2. in-process through `QueryService::query` + `to_sparql_json`, the two
//!    calls the server makes per request, once untraced and once traced;
//! 3. in-process one layer at a time — `Store::prepare`,
//!    `PreparedQuery::plan`, `Store::run_plan`, a count-only
//!    `Store::execute_turbohom`, and on `lubm_sharded` the `ShardedStore`
//!    twins — each call inside a span.
//!
//! Shares are sums over the same requests, so they add up to the HTTP time
//! by construction: `service` is what HTTP adds to the in-process pair plus
//! what `query` adds to planning and execution; `sparql_transform` is
//! parse + plan on the requests that missed the plan cache; `core` is the
//! count-only match; `engine_result_path` is the rest of `run_plan`
//! (materialisation; fan-out and merge when sharded) plus serialisation.

use crate::answer;
use crate::http::Client;
use crate::load::{drive, Tally, Until};
use crate::prep::{generate, Prepared};
use crate::server::Server;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{Data, Spec};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use turbohom_core::TurboHomConfig;
use turbohom_engine::{AnyStore, EngineKind, ShardedOptions, ShardedStore, Store};
use turbohom_service::{QueryOptions, QueryService, ServiceConfig};

const ENGINE: EngineKind = EngineKind::TurboHomPlusPlus;

/// Distinct requests the hash-join baseline is timed on (it is the slowest
/// engine, and a ratio does not need every request).
const HASHJOIN_REQUESTS: usize = 16;

pub struct Layered {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
    /// Set when the workload's intended layer is not its largest share.
    pub warning: Option<String>,
}

fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// The number that follows `"key":` in a flat JSON text.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Plan-cache (hits, misses) from the server's `/stats`.
fn cache_counters(client: &mut Client) -> Result<(f64, f64), String> {
    let stats = client.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    let text = String::from_utf8_lossy(&stats.body);
    match (json_number(&text, "hits"), json_number(&text, "misses")) {
        (Some(hits), Some(misses)) => Ok((hits, misses)),
        _ => Err(format!("/stats has no plan_cache counters: {text}")),
    }
}

/// Per-request timings of the layer-by-layer pass, µs, indexed by the
/// request's position in the sequence.
struct Timings {
    parse: Vec<f64>,
    plan: Vec<f64>,
    run: Vec<f64>,
    matching: Vec<f64>,
    sharded_prepare: Vec<f64>,
    sharded_run: Vec<f64>,
    query: Vec<f64>,
    serialise: Vec<f64>,
    cache_miss: Vec<bool>,
}

impl Timings {
    fn new(n: usize) -> Timings {
        let zeros = || vec![0.0; n];
        Timings {
            parse: zeros(),
            plan: zeros(),
            run: zeros(),
            matching: zeros(),
            sharded_prepare: zeros(),
            sharded_run: zeros(),
            query: zeros(),
            serialise: zeros(),
            cache_miss: vec![false; n],
        }
    }
}

pub fn run(
    spec: &Spec,
    prepared: &Prepared,
    server_binary: &Path,
    trace_path: &Path,
    seed: u64,
) -> Result<Layered, String> {
    let n = spec.traced_requests;
    let sequence = &prepared.sequence;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // The server, its plan cache filled by one unmeasured pass.
    let server = Server::boot(server_binary, &prepared.server_args)?;
    let expected = &prepared.expected[..];
    let (warm, _) = drive(server.addr, sequence, expected, Until::Requests(n));
    let mut client = Client::new(server.addr);
    let mut stats_client = Client::new(server.addr);
    let (hits_before, misses_before) = cache_counters(&mut stats_client)?;
    let mut http = Tally::default();

    // The store the server path is replayed on: the mapped snapshot for a
    // `--snapshot` workload, the heap store otherwise.
    let store: Arc<Store> = match &prepared.snapshot {
        Some(snapshot) => {
            let started = Instant::now();
            let mapped = Store::from_snapshot(&snapshot.path)
                .map_err(|e| format!("cannot map {}: {e}", snapshot.path.display()))?;
            m.insert("storage.snapshot_map_s", started.elapsed().as_secs_f64());
            m.insert("storage.snapshot_save_s", snapshot.save_s);
            m.insert(
                "storage.snapshot_bytes_per_triple",
                snapshot.bytes as f64 / prepared.triples as f64,
            );
            Arc::new(mapped)
        }
        None => Arc::clone(&prepared.store),
    };
    let sharded: Option<Arc<ShardedStore>> = match spec.data {
        Data::Lubm { shards, .. } if shards > 1 => {
            let options = ShardedOptions {
                shards,
                ..ShardedOptions::default()
            };
            let built = ShardedStore::from_dataset_with(generate(spec.data), options)
                .map_err(|e| format!("cannot shard the dataset: {e}"))?;
            Some(Arc::new(built))
        }
        _ => None,
    };
    let service = QueryService::with_any_store(
        match &sharded {
            Some(sharded) => AnyStore::Sharded(Arc::clone(sharded)),
            None => AnyStore::Single(Arc::clone(&store)),
        },
        ServiceConfig::default(),
    );
    let ask = |sparql: &str, options: QueryOptions| {
        service
            .query(sparql, options)
            .map_err(|e| format!("in-process query failed: {e}"))
    };

    // Fill the plan cache, as the unmeasured HTTP pass did on the server.
    for i in 0..n {
        ask(&sequence.at(i).1.sparql, QueryOptions::default())?;
    }

    // Three variants of the server's work per request — its two calls
    // untraced, `query` with PROFILE on, and the two calls traced followed by
    // each layer on its own — each replay all `n` requests through the one
    // service. They take turns, a third of the sequence apart: none is
    // always the coldest or the warmest, and a text comes round again only
    // after `n` other queries, as it does for the server.
    let count_only = TurboHomConfig {
        count_only: true,
        ..store.default_config()
    };
    let profile = QueryOptions {
        profile: true,
        ..QueryOptions::default()
    };
    let mut untraced = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let mut untraced_pair_us = Vec::with_capacity(n);
    let (mut untraced_query_us, mut profiled_us) = (0.0, 0.0);
    let mut t = Timings::new(n);
    let mut stats = turbohom_engine::MatchStats::default();
    let (mut rows, mut body_bytes, mut live, mut pruned) = (0u64, 0u64, 0u64, 0u64);
    let mut in_process = Tally::default();
    for step in 0..n {
        http.request(&mut client, sequence, expected, step);
        {
            let i = step;
            let sparql = &sequence.at(i).1.sparql;
            let root = untraced.open("request", None, i);
            let (response, query_us) = untraced.time("service.query", root, i, || {
                ask(sparql, QueryOptions::default())
            });
            let response = response?;
            let (_, serialise_us) = untraced.time("engine.serialise", root, i, || {
                response.results.to_sparql_json()
            });
            untraced.close(root);
            untraced_pair_us.push(query_us + serialise_us);
            untraced_query_us += query_us;
        }
        {
            let i = (step + n / 3) % n;
            let started = Instant::now();
            ask(&sequence.at(i).1.sparql, profile)?;
            profiled_us += started.elapsed().as_secs_f64() * 1e6;
        }
        let i = (step + 2 * (n / 3)) % n;
        let (id, request) = sequence.at(i);
        let sparql = &request.sparql;
        let failed_on = |e: turbohom_engine::StoreError| format!("{}: {e}", request.template);
        let root = rec.open("request", None, i);
        let (response, us) = rec.time("service.query", root, i, || {
            ask(sparql, QueryOptions::default())
        });
        let response = response?;
        t.query[i] = us;
        t.cache_miss[i] = !response.cache_hit;
        let (body, us) = rec.time("engine.serialise", root, i, || {
            response.results.to_sparql_json()
        });
        t.serialise[i] = us;

        let (parsed, us) = rec.time("sparql.parse", root, i, || store.prepare(sparql));
        let parsed = parsed.map_err(failed_on)?;
        t.parse[i] = us;
        let (plan, us) = rec.time("transform.plan", root, i, || parsed.plan(ENGINE));
        let plan = plan.map_err(failed_on)?;
        t.plan[i] = us;
        let (results, us) = rec.time("engine.run_plan", root, i, || store.run_plan(&plan));
        let results = results.map_err(failed_on)?;
        t.run[i] = us;
        // Count-only execution re-parses and re-plans; what is left after
        // taking those two off is the match itself.
        let (counted, us) = rec.time("core.match_count_only", root, i, || {
            store.execute_turbohom(sparql, count_only, false)
        });
        counted.map_err(failed_on)?;
        t.matching[i] = (us - t.parse[i] - t.plan[i]).clamp(0.0, t.run[i]);
        if let Some(sharded) = &sharded {
            let (plan, us) = rec.time("engine.sharded_prepare_plan", root, i, || {
                sharded.prepare_plan(sparql, ENGINE)
            });
            let plan = plan.map_err(failed_on)?;
            t.sharded_prepare[i] = us;
            let (results, us) = rec.time("engine.sharded_run_plan", root, i, || {
                sharded.run_plan(&plan)
            });
            results.map_err(failed_on)?;
            t.sharded_run[i] = us;
            live += plan.live_shards().len() as u64;
            pruned += plan.pruned_shards() as u64;
        }
        rec.close(root);

        stats.merge(&results.stats);
        rows += results.rows.len() as u64;
        body_bytes += body.len() as u64;
        in_process.attempted += 1;
        match answer::of_json(body.as_bytes()) {
            Ok(got) if got == prepared.expected[id] => {}
            other => in_process.fail(format!("{} in-process: {other:?}", request.template)),
        }
    }
    let (hits, misses) = cache_counters(&mut stats_client)?;
    drop(server);
    if http.samples.len() < n {
        return Err(format!(
            "{} of {n} HTTP requests failed: {:?}",
            n - http.samples.len(),
            http.complaints
        ));
    }
    let http_us: Vec<f64> = http.samples.iter().map(|s| s.1 * 1000.0).collect();
    std::fs::write(
        trace_path,
        format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"requests\":{n},\"spans\":{}}}\n",
            spec.name,
            rec.to_json()
        ),
    )
    .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    // Hash join on the first few distinct requests, against the matcher's
    // `run_plan` on the same ones; merge join was timed by the oracle.
    let mut seen = HashSet::new();
    let (mut hash_us, mut hash_base_us, mut merge_us) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let (id, request) = sequence.at(i);
        merge_us += prepared.mergejoin_us[id];
        if seen.len() < HASHJOIN_REQUESTS && seen.insert(id) {
            let plan = store
                .prepare_plan(&request.sparql, EngineKind::HashJoin)
                .map_err(|e| format!("{}: {e}", request.template))?;
            let started = Instant::now();
            store
                .run_plan(&plan)
                .map_err(|e| format!("{}: {e}", request.template))?;
            hash_us += started.elapsed().as_secs_f64() * 1e6;
            hash_base_us += t.run[i];
        }
    }

    // ---- metrics ----------------------------------------------------------
    m.insert("sparql.parse_us", median(&t.parse));
    m.insert("transform.plan_us", median(&t.plan));
    m.insert("core.match_us", median(&t.matching));
    m.insert("engine.run_plan_us", median(&t.run));
    let materialise: Vec<f64> = t.run.iter().zip(&t.matching).map(|(r, c)| r - c).collect();
    m.insert("engine.materialise_us", median(&materialise));
    m.insert("engine.serialise_us", median(&t.serialise));
    m.insert(
        "engine.serialise_mb_per_s",
        body_bytes as f64 / sum(&t.serialise),
    );
    m.insert("engine.rows", rows as f64);
    m.insert("engine.body_bytes", body_bytes as f64);

    m.insert(
        "core.matching_orders_computed",
        stats.matching_orders_computed as f64,
    );
    m.insert("core.candidate_regions", stats.candidate_regions as f64);
    m.insert("core.candidate_vertices", stats.candidate_vertices as f64);
    m.insert("core.search_recursions", stats.search_recursions as f64);
    m.insert("core.intersection_ops", stats.intersection_ops as f64);
    m.insert("core.filtered_inline", stats.filtered_inline as f64);
    m.insert("core.filtered_post", stats.filtered_post as f64);
    m.insert("core.solutions", stats.solutions as f64);
    m.insert(
        "core.nonempty_region_ratio",
        stats.nonempty_regions as f64 / (stats.candidate_regions as f64).max(1.0),
    );

    // Planning and execution as the server path performs them: through the
    // coordinator when sharded.
    let (prepare, execute): (Vec<f64>, &[f64]) = match &sharded {
        Some(sharded) => {
            m.insert("engine.sharded_run_plan_us", median(&t.sharded_run));
            m.insert(
                "engine.sharded_overhead_x",
                sum(&t.sharded_run) / sum(&t.run),
            );
            m.insert(
                "partition.prune_ratio",
                pruned as f64 / (pruned + live) as f64,
            );
            m.insert("partition.live_shards_per_query", live as f64 / n as f64);
            let replicated: usize = (0..sharded.shard_count())
                .map(|i| sharded.shard(i).triple_count())
                .sum();
            m.insert(
                "partition.replication_factor",
                replicated as f64 / prepared.triples as f64,
            );
            (t.sharded_prepare.clone(), &t.sharded_run)
        }
        None => (
            t.parse.iter().zip(&t.plan).map(|(a, b)| a + b).collect(),
            &t.run,
        ),
    };
    let planning: Vec<f64> = prepare
        .iter()
        .zip(&t.cache_miss)
        .map(|(us, miss)| if *miss { *us } else { 0.0 })
        .collect();
    let query_overhead: Vec<f64> = (0..n)
        .map(|i| t.query[i] - execute[i] - planning[i])
        .collect();
    m.insert("service.query_overhead_us", median(&query_overhead));
    let lookups = (hits - hits_before) + (misses - misses_before);
    m.insert(
        "service.plan_cache_hit_ratio",
        (hits - hits_before) / lookups.max(1.0),
    );
    m.insert(
        "service.http_overhead_us",
        median(&http_us) - median(&untraced_pair_us),
    );
    m.insert(
        "service.connections_per_request",
        http.connections as f64 / http.attempted as f64,
    );

    m.insert("datasets.generate_s", prepared.generate_s);
    m.insert("engine.build_s", prepared.build_s);
    m.insert(
        "engine.build_triples_per_s",
        prepared.triples as f64 / prepared.build_s,
    );
    m.insert("baseline.mergejoin_x", merge_us / sum(&t.run));
    m.insert("baseline.hashjoin_x", hash_us / hash_base_us);
    m.insert(
        "trace.profile_overhead_pct",
        (profiled_us - untraced_query_us) / untraced_query_us * 100.0,
    );
    let traced_pair_us = sum(&t.query) + sum(&t.serialise);
    m.insert(
        "bench.trace_overhead_pct",
        (traced_pair_us - sum(&untraced_pair_us)) / sum(&untraced_pair_us) * 100.0,
    );

    let http_total_us = sum(&http_us);
    let core_us: f64 = (0..n).map(|i| t.matching[i].min(execute[i])).sum();
    let shares = [
        (
            "share.service",
            (http_total_us - traced_pair_us) + sum(&query_overhead),
        ),
        ("share.sparql_transform", sum(&planning)),
        ("share.core", core_us),
        (
            "share.engine_result_path",
            (sum(execute) - core_us) + sum(&t.serialise),
        ),
    ];
    for (name, us) in shares {
        m.insert(name, us / http_total_us);
    }
    let largest = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four shares")
        .0;
    let warning = (largest != spec.intended_share).then(|| {
        format!(
            "{}: designed for {} but the largest share is {largest}",
            spec.name, spec.intended_share
        )
    });

    let mut complaints = warm.complaints;
    complaints.extend(http.complaints);
    complaints.extend(in_process.complaints);
    complaints.truncate(5);
    Ok(Layered {
        metrics: m,
        attempted: warm.attempted + http.attempted + in_process.attempted,
        failed: warm.failed + http.failed + in_process.failed,
        complaints,
        warning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_are_found_by_key() {
        let stats = r#"{"uptime_seconds":1.5,"plan_cache":{"hits":120,"misses":7,"evictions":0},"x":-2.5e1}"#;
        assert_eq!(json_number(stats, "hits"), Some(120.0));
        assert_eq!(json_number(stats, "misses"), Some(7.0));
        assert_eq!(json_number(stats, "x"), Some(-25.0));
        assert_eq!(json_number(stats, "absent"), None);
    }
}
