//! The benchmark flight recorder: persistent `BENCH_<dataset>.json` files.
//!
//! Every `experiments -- record` run writes one [`BenchRecord`]: the raw
//! five-run timings, the median and the paper-protocol average per
//! (query, engine) pair, plus the matcher's per-stage counters
//! ([`turbohom_engine::MatchStats`]) so a perf regression can be attributed
//! to a stage ("candidate regions exploded" vs "intersections got slower")
//! without re-running anything.
//!
//! The regression gate compares two records *hardware-normalized*: CI
//! machines differ, so absolute thresholds are useless. Instead the gate
//! computes the ratio `new/old` for every comparable query, takes the median
//! ratio as the machine-speed factor, and only fails queries that regressed
//! by more than `tolerance` beyond that factor. A uniformly 2× slower
//! machine shifts every ratio equally and passes; one query regressing 2×
//! while the rest hold still fails.
//!
//! Serialization is hand-rolled (the workspace deliberately has no JSON
//! dependency); the parser below accepts exactly the subset of JSON the
//! writer emits (and ordinary whitespace), which is all the gate needs.

use turbohom_engine::{escape_json_into, MatchStats};

/// Pairs where either median is below this floor are skipped by the gate:
/// sub-50µs timings are dominated by clock and allocator noise.
pub const GATE_NOISE_FLOOR_MS: f64 = 0.05;

/// Default gate tolerance: fail a query whose normalized ratio exceeds the
/// median machine factor by more than 25%.
pub const GATE_DEFAULT_TOLERANCE: f64 = 1.25;

/// A failing query must also exceed its normalized expectation by this many
/// milliseconds in absolute terms. A 25% relative regression on a 0.1ms
/// query is ~25µs — scheduling jitter, not a code regression — while on any
/// query slow enough to matter the slack is negligible.
pub const GATE_ABSOLUTE_SLACK_MS: f64 = 0.1;

/// One (query, engine) measurement: five raw runs plus per-stage counters.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// The benchmark query id (e.g. `Q2`).
    pub id: String,
    /// The engine's machine-readable name (`EngineKind::name`).
    pub engine: String,
    /// The five raw run durations, milliseconds, in execution order.
    pub runs_ms: Vec<f64>,
    /// Median of the five runs (the gate's headline number).
    pub median_ms: f64,
    /// The paper's Section 7.1 reduction: drop best and worst, average.
    pub avg_ms: f64,
    /// Number of solutions (cross-engine agreement is checked at record
    /// time, so this is also a correctness witness).
    pub solutions: usize,
    /// Matcher counters of the last run (all-zero for join baselines).
    pub stats: MatchStats,
    /// Per-stage wall-clock breakdown (stage name, milliseconds) from one
    /// traced run outside the five measured ones, in pipeline order. Empty
    /// when not recorded (records written before the column existed parse
    /// fine — the reader treats the key as optional).
    pub stages_ms: Vec<(String, f64)>,
    /// Maximum per-step estimate-vs-actual q-error from one ANALYZE run
    /// outside the five measured ones (`max(est/actual, actual/est)` over
    /// the matching-order steps). `None` when not recorded — join baselines
    /// have no per-step estimates, and records written before the column
    /// existed parse fine.
    pub qerror: Option<f64>,
}

/// One recorded benchmark session: everything `BENCH_<dataset>.json` holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchRecord {
    /// Dataset label, e.g. `LUBM1`.
    pub dataset: String,
    /// Triples loaded (after inference).
    pub triples: usize,
    /// Worker threads used for the per-engine measurements.
    pub threads: usize,
    /// Per-(query, engine) measurements.
    pub queries: Vec<QueryRun>,
    /// The same queries measured through the sharded scatter-gather path
    /// (empty if not recorded; the regression gate only compares `queries`,
    /// so this column is informational). The interesting stats here are
    /// `shards_executed` / `shards_pruned`.
    pub sharded: Vec<QueryRun>,
    /// Shards used for the `sharded` measurements (0 when not recorded).
    pub shard_count: usize,
    /// Store-load timings in milliseconds: `parse_build` (generate/parse the
    /// triples and build every index on the heap) vs `snapshot_map` (open a
    /// saved snapshot zero-copy). Empty when not recorded — records written
    /// before the column existed parse fine, the reader treats the key as
    /// optional.
    pub load_ms: Vec<(String, f64)>,
}

fn push_query_runs(out: &mut Vec<u8>, runs: &[QueryRun]) {
    for (i, q) in runs.iter().enumerate() {
        out.extend_from_slice(b"    {\"id\": \"");
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
        if !q.stages_ms.is_empty() {
            out.extend_from_slice(b", \"stages_ms\": {");
            for (j, (name, ms)) in q.stages_ms.iter().enumerate() {
                if j > 0 {
                    out.push(b',');
                }
                out.push(b'"');
                escape_json_into(out, name);
                out.extend_from_slice(b"\": ");
                push_f64(out, *ms);
            }
            out.push(b'}');
        }
        if let Some(qerr) = q.qerror {
            out.extend_from_slice(b", \"qerror\": ");
            push_f64(out, qerr);
        }
        out.push(b'}');
        if i + 1 < runs.len() {
            out.push(b',');
        }
        out.push(b'\n');
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    // Emit finite numbers only; JSON has no NaN/Inf.
    if v.is_finite() {
        out.extend_from_slice(format!("{v:.6}").as_bytes());
    } else {
        out.push(b'0');
    }
}

fn push_stats(out: &mut Vec<u8>, s: &MatchStats) {
    out.extend_from_slice(
        format!(
            "{{\"candidate_regions\":{},\"nonempty_regions\":{},\"candidate_vertices\":{},\
         \"explored_vertices\":{},\"isjoinable_probes\":{},\"intersection_ops\":{},\
         \"search_recursions\":{},\"matching_orders_computed\":{},\"solutions\":{},\
         \"morsels\":{},\"morsels_stolen\":{},\"shards_executed\":{},\"shards_pruned\":{}}}",
            s.candidate_regions,
            s.nonempty_regions,
            s.candidate_vertices,
            s.explored_vertices,
            s.isjoinable_probes,
            s.intersection_ops,
            s.search_recursions,
            s.matching_orders_computed,
            s.solutions,
            s.morsels,
            s.morsels_stolen,
            s.shards_executed,
            s.shards_pruned,
        )
        .as_bytes(),
    );
}

impl BenchRecord {
    /// Serializes the record as pretty-stable JSON (keys in fixed order, so
    /// committed baselines diff cleanly).
    pub fn to_json(&self) -> String {
        let mut out: Vec<u8> = Vec::with_capacity(1024 + self.queries.len() * 256);
        out.extend_from_slice(b"{\n");
        out.extend_from_slice(b"  \"schema\": \"turbohom-bench/1\",\n");
        out.extend_from_slice(b"  \"dataset\": \"");
        escape_json_into(&mut out, &self.dataset);
        out.extend_from_slice(b"\",\n");
        out.extend_from_slice(format!("  \"triples\": {},\n", self.triples).as_bytes());
        out.extend_from_slice(format!("  \"threads\": {},\n", self.threads).as_bytes());
        out.extend_from_slice(b"  \"protocol\": \"5 warm runs; median_ms = middle run, avg_ms = drop best/worst then average\",\n");
        if !self.load_ms.is_empty() {
            out.extend_from_slice(b"  \"load_ms\": {");
            for (i, (name, ms)) in self.load_ms.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                out.push(b'"');
                escape_json_into(&mut out, name);
                out.extend_from_slice(b"\": ");
                push_f64(&mut out, *ms);
            }
            out.extend_from_slice(b"},\n");
        }
        out.extend_from_slice(b"  \"queries\": [\n");
        push_query_runs(&mut out, &self.queries);
        out.extend_from_slice(b"  ]");
        if !self.sharded.is_empty() {
            out.extend_from_slice(
                format!(",\n  \"shard_count\": {},\n", self.shard_count).as_bytes(),
            );
            out.extend_from_slice(b"  \"sharded\": [\n");
            push_query_runs(&mut out, &self.sharded);
            out.extend_from_slice(b"  ]");
        }
        out.extend_from_slice(b"\n}\n");
        String::from_utf8(out).expect("the emitter writes UTF-8")
    }

    /// Parses a record previously written by [`to_json`](Self::to_json).
    /// Keys it does not know are skipped, so records that still carry the
    /// retired `scheduler_comparison` section (the morsel-vs-chunked A/B)
    /// keep parsing.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = Json::parse(input)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let mut record = BenchRecord {
            dataset: get_str(obj, "dataset")?,
            triples: get_usize(obj, "triples")?,
            threads: get_usize(obj, "threads")?,
            // Optional column: absent in records written before snapshots.
            load_ms: match find(obj, "load_ms").and_then(|v| v.as_object()) {
                Some(entries) => entries
                    .iter()
                    .map(|(name, v)| {
                        v.as_f64()
                            .map(|ms| (name.clone(), ms))
                            .ok_or("load_ms values must be numbers".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
            ..BenchRecord::default()
        };
        for q in get_array(obj, "queries")? {
            record.queries.push(parse_query_run(q)?);
        }
        // Optional section: absent in records written before sharded
        // execution existed.
        if let Some(sharded) = find(obj, "sharded").and_then(|v| v.as_array()) {
            for q in sharded {
                record.sharded.push(parse_query_run(q)?);
            }
            record.shard_count = find(obj, "shard_count")
                .and_then(|v| v.as_f64())
                .map(|v| v as usize)
                .unwrap_or(0);
        }
        Ok(record)
    }

    /// The recorded median for one (query, engine) pair.
    pub fn median_ms(&self, id: &str, engine: &str) -> Option<f64> {
        self.queries
            .iter()
            .find(|q| q.id == id && q.engine == engine)
            .map(|q| q.median_ms)
    }
}

fn parse_query_run(value: &Json) -> Result<QueryRun, String> {
    let q = value.as_object().ok_or("query entry must be an object")?;
    let stats_obj = find(q, "stats")
        .and_then(|v| v.as_object())
        .ok_or("query entry missing stats")?;
    Ok(QueryRun {
        id: get_str(q, "id")?,
        engine: get_str(q, "engine")?,
        runs_ms: get_array(q, "runs_ms")?
            .iter()
            .map(|v| v.as_f64().ok_or("runs_ms must be numbers"))
            .collect::<Result<_, _>>()?,
        median_ms: get_f64(q, "median_ms")?,
        avg_ms: get_f64(q, "avg_ms")?,
        solutions: get_usize(q, "solutions")?,
        stats: parse_stats(stats_obj)?,
        // Optional column: absent in records written before the stage
        // breakdown existed.
        stages_ms: match find(q, "stages_ms").and_then(|v| v.as_object()) {
            Some(entries) => entries
                .iter()
                .map(|(name, v)| {
                    v.as_f64()
                        .map(|ms| (name.clone(), ms))
                        .ok_or("stages_ms values must be numbers".to_string())
                })
                .collect::<Result<_, _>>()?,
            None => Vec::new(),
        },
        // Optional column: absent in records written before ANALYZE existed
        // and for engines without per-step estimates.
        qerror: find(q, "qerror").and_then(|v| v.as_f64()),
    })
}

fn parse_stats(obj: &[(String, Json)]) -> Result<MatchStats, String> {
    let field = |name: &str| -> Result<usize, String> { get_usize(obj, name) };
    // Optional: absent in records written before sharded execution existed.
    let optional = |name: &str| -> usize {
        find(obj, name)
            .and_then(|v| v.as_f64())
            .map(|v| v as usize)
            .unwrap_or(0)
    };
    Ok(MatchStats {
        candidate_regions: field("candidate_regions")?,
        nonempty_regions: field("nonempty_regions")?,
        candidate_vertices: field("candidate_vertices")?,
        explored_vertices: field("explored_vertices")?,
        isjoinable_probes: field("isjoinable_probes")?,
        intersection_ops: field("intersection_ops")?,
        search_recursions: field("search_recursions")?,
        matching_orders_computed: field("matching_orders_computed")?,
        solutions: field("solutions")?,
        morsels: field("morsels")?,
        morsels_stolen: field("morsels_stolen")?,
        shards_executed: optional("shards_executed"),
        shards_pruned: optional("shards_pruned"),
        ..MatchStats::default()
    })
}

// ---- regression gate ---------------------------------------------------

/// The gate's verdict over one baseline/current record pair.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// (query, engine) pairs compared.
    pub compared: usize,
    /// Pairs skipped because either side was under the noise floor or the
    /// pair was missing from one record.
    pub skipped: usize,
    /// The median `new/old` ratio — the machine-speed normalization factor.
    pub median_ratio: f64,
    /// Human-readable descriptions of the failing pairs (empty = pass).
    pub failures: Vec<String>,
}

impl GateOutcome {
    /// `true` when no query regressed beyond the tolerance.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares `current` against `baseline`, hardware-normalized (see the
/// module docs). `tolerance` is the allowed slowdown factor *beyond* the
/// median machine factor, e.g. `1.25` for the CI default of 25%.
pub fn regression_gate(
    baseline: &BenchRecord,
    current: &BenchRecord,
    tolerance: f64,
) -> GateOutcome {
    let mut ratios: Vec<(String, f64, f64, f64)> = Vec::new();
    let mut outcome = GateOutcome::default();
    for q in &current.queries {
        let Some(old) = baseline.median_ms(&q.id, &q.engine) else {
            outcome.skipped += 1;
            continue;
        };
        if old < GATE_NOISE_FLOOR_MS || q.median_ms < GATE_NOISE_FLOOR_MS {
            outcome.skipped += 1;
            continue;
        }
        ratios.push((
            format!("{} / {}", q.id, q.engine),
            old,
            q.median_ms,
            q.median_ms / old,
        ));
    }
    outcome.compared = ratios.len();
    if ratios.is_empty() {
        outcome.median_ratio = 1.0;
        return outcome;
    }
    let mut sorted: Vec<f64> = ratios.iter().map(|r| r.3).collect();
    sorted.sort_by(|a, b| a.total_cmp(b));
    outcome.median_ratio = sorted[sorted.len() / 2];
    let cutoff = tolerance * outcome.median_ratio;
    for (label, old, new, ratio) in ratios {
        // Fail only when the regression is both relatively (beyond the
        // tolerated, machine-normalized ratio) and absolutely (beyond the
        // jitter slack) significant.
        let excess_ms = new - old * outcome.median_ratio;
        if ratio > cutoff && excess_ms > GATE_ABSOLUTE_SLACK_MS {
            outcome.failures.push(format!(
                "{label}: {old:.3}ms -> {new:.3}ms ({ratio:.2}x, cutoff {cutoff:.2}x at median ratio {:.2})",
                outcome.median_ratio
            ));
        }
    }
    outcome
}

// ---- minimal JSON ------------------------------------------------------

/// The JSON subset the writer emits: objects, arrays, strings, numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string (escapes decoded).
    Str(String),
    /// Any number (always read as `f64`).
    Num(f64),
    /// An ordered list.
    Arr(Vec<Json>),
    /// An object as an ordered key/value list (no hashing needed).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn find<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    find(obj, key)
        .and_then(|v| v.as_str())
        .map(String::from)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn get_f64(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    find(obj, key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn get_usize(obj: &[(String, Json)], key: &str) -> Result<usize, String> {
    get_f64(obj, key).map(|v| v as usize)
}

fn get_array<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a [Json], String> {
    find(obj, key)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("missing array field `{key}`"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}", pos = *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            _ => {
                // Copy one UTF-8 scalar (may be multi-byte).
                let len = utf8_len(c);
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 sequence")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> BenchRecord {
        BenchRecord {
            dataset: "LUBM1".into(),
            triples: 12345,
            threads: 1,
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
                        morsels: 2,
                        morsels_stolen: 1,
                        ..MatchStats::default()
                    },
                    stages_ms: vec![
                        ("parse".into(), 0.01),
                        ("transform".into(), 0.02),
                        ("execute".into(), 0.45),
                    ],
                    qerror: Some(1.25),
                },
                QueryRun {
                    id: "Q2".into(),
                    engine: "mergejoin".into(),
                    runs_ms: vec![1.0; 5],
                    median_ms: 1.0,
                    avg_ms: 1.0,
                    solutions: 0,
                    stats: MatchStats::default(),
                    stages_ms: Vec::new(),
                    qerror: None,
                },
            ],
            sharded: vec![QueryRun {
                id: "Q1".into(),
                engine: "turbohom++".into(),
                runs_ms: vec![0.3; 5],
                median_ms: 0.3,
                avg_ms: 0.3,
                solutions: 4,
                stats: MatchStats {
                    solutions: 4,
                    shards_executed: 3,
                    shards_pruned: 5,
                    ..MatchStats::default()
                },
                stages_ms: Vec::new(),
                qerror: Some(2.0),
            }],
            shard_count: 8,
            load_ms: vec![
                ("parse_build".into(), 12.5),
                ("snapshot_map".into(), 0.75),
                ("sharded_parse_build".into(), 20.0),
                ("sharded_map".into(), 1.5),
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let record = sample_record();
        let json = record.to_json();
        let parsed = BenchRecord::from_json(&json).unwrap();
        assert_eq!(parsed.dataset, record.dataset);
        assert_eq!(parsed.triples, record.triples);
        assert_eq!(parsed.queries.len(), 2);
        assert_eq!(parsed.queries[0].stats.candidate_regions, 7);
        assert_eq!(parsed.queries[0].stats.morsels_stolen, 1);
        assert_eq!(parsed.median_ms("Q1", "turbohom++"), Some(0.5));
        assert_eq!(parsed.median_ms("Q9", "turbohom++"), None);
        // The floats survive the 6-decimal formatting.
        assert!((parsed.queries[0].runs_ms[1] - 0.4).abs() < 1e-9);
        // The stage breakdown round-trips; an empty one is simply omitted.
        assert_eq!(parsed.queries[0].stages_ms.len(), 3);
        assert_eq!(parsed.queries[0].stages_ms[0].0, "parse");
        assert!((parsed.queries[0].stages_ms[2].1 - 0.45).abs() < 1e-9);
        assert!(parsed.queries[1].stages_ms.is_empty());
        assert!(!json.contains("\"engine\": \"mergejoin\", \"stages_ms\""));
        // The qerror column round-trips; `None` omits the key entirely.
        assert_eq!(parsed.queries[0].qerror, Some(1.25));
        assert_eq!(parsed.queries[1].qerror, None);
        assert_eq!(parsed.sharded[0].qerror, Some(2.0));
        // The load_ms column round-trips.
        assert_eq!(parsed.load_ms.len(), 4);
        assert_eq!(parsed.load_ms[0].0, "parse_build");
        assert!((parsed.load_ms[1].1 - 0.75).abs() < 1e-9);
        assert_eq!(parsed.load_ms[2].0, "sharded_parse_build");
        // The sharded section round-trips, shard counters included.
        assert_eq!(parsed.shard_count, 8);
        assert_eq!(parsed.sharded.len(), 1);
        assert_eq!(parsed.sharded[0].stats.shards_executed, 3);
        assert_eq!(parsed.sharded[0].stats.shards_pruned, 5);
        // Records written while the scheduler A/B existed end with its
        // section; the reader skips it, the writer no longer emits it.
        assert!(!json.contains("scheduler_comparison"));
        let old_shape = json.replacen(
            "\n}\n",
            ",\n  \"scheduler_comparison\": [\n    {\"id\": \"Q2\", \"threads\": 4, \
             \"morsel_ms\": 0.8, \"chunked_ms\": 1.1, \"morsels\": 40, \"morsels_stolen\": 6}\n  ]\n}\n",
            1,
        );
        assert!(old_shape.contains("scheduler_comparison"));
        assert_eq!(BenchRecord::from_json(&old_shape).unwrap(), parsed);
    }

    #[test]
    fn records_without_the_sharded_section_still_parse() {
        let mut record = sample_record();
        record.sharded.clear();
        record.shard_count = 0;
        let json = record.to_json();
        assert!(!json.contains("\"sharded\""));
        assert!(!json.contains("shard_count"));
        let parsed = BenchRecord::from_json(&json).unwrap();
        assert!(parsed.sharded.is_empty());
        assert_eq!(parsed.shard_count, 0);
        // The shard stat keys are always present in `stats` but parse as
        // zero from records written before they existed.
        let legacy = json.replace(",\"shards_executed\":0,\"shards_pruned\":0", "");
        assert!(!legacy.contains("shards_executed"));
        let parsed = BenchRecord::from_json(&legacy).unwrap();
        assert!(parsed
            .queries
            .iter()
            .all(|q| q.stats.shards_executed == 0 && q.stats.shards_pruned == 0));
    }

    #[test]
    fn records_without_the_load_ms_column_still_parse() {
        let mut record = sample_record();
        record.load_ms.clear();
        let json = record.to_json();
        assert!(!json.contains("load_ms"));
        let parsed = BenchRecord::from_json(&json).unwrap();
        assert!(parsed.load_ms.is_empty());
    }

    #[test]
    fn records_without_the_qerror_column_still_parse() {
        // A record serialized before the qerror column existed: strip it
        // from the writer output and re-parse.
        let mut record = sample_record();
        for q in record.queries.iter_mut().chain(record.sharded.iter_mut()) {
            q.qerror = None;
        }
        let json = record.to_json();
        assert!(!json.contains("qerror"));
        let parsed = BenchRecord::from_json(&json).unwrap();
        assert!(parsed.queries.iter().all(|q| q.qerror.is_none()));
        assert!(parsed.sharded.iter().all(|q| q.qerror.is_none()));
    }

    #[test]
    fn records_without_the_stages_column_still_parse() {
        // A record serialized before stages_ms existed: strip the column
        // from the writer output and re-parse.
        let mut record = sample_record();
        for q in &mut record.queries {
            q.stages_ms.clear();
        }
        let json = record.to_json();
        assert!(!json.contains("stages_ms"));
        let parsed = BenchRecord::from_json(&json).unwrap();
        assert!(parsed.queries.iter().all(|q| q.stages_ms.is_empty()));
        assert_eq!(parsed.queries.len(), 2);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(BenchRecord::from_json("").is_err());
        assert!(BenchRecord::from_json("[1,2,3]").is_err());
        assert!(BenchRecord::from_json("{\"dataset\": }").is_err());
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn json_escapes_round_trip() {
        let v = Json::parse(r#"{"k": "a\"b\\c\ndA"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(find(obj, "k").unwrap().as_str(), Some("a\"b\\c\ndA"));
    }

    fn record_with(medians: &[(&str, f64)]) -> BenchRecord {
        BenchRecord {
            dataset: "X".into(),
            queries: medians
                .iter()
                .map(|(id, m)| QueryRun {
                    id: id.to_string(),
                    engine: "turbohom++".into(),
                    runs_ms: vec![*m; 5],
                    median_ms: *m,
                    avg_ms: *m,
                    solutions: 1,
                    stats: MatchStats::default(),
                    stages_ms: Vec::new(),
                    qerror: None,
                })
                .collect(),
            ..BenchRecord::default()
        }
    }

    #[test]
    fn gate_passes_identical_records() {
        let r = record_with(&[("Q1", 1.0), ("Q2", 2.0), ("Q3", 5.0)]);
        let outcome = regression_gate(&r, &r.clone(), GATE_DEFAULT_TOLERANCE);
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 3);
        assert!((outcome.median_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gate_normalizes_away_uniform_machine_slowdown() {
        let old = record_with(&[("Q1", 1.0), ("Q2", 2.0), ("Q3", 5.0)]);
        // Everything exactly 2x slower: a slower machine, not a regression.
        let new = record_with(&[("Q1", 2.0), ("Q2", 4.0), ("Q3", 10.0)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        assert!((outcome.median_ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gate_fails_a_single_query_regression() {
        let old = record_with(&[("Q1", 1.0), ("Q2", 2.0), ("Q3", 5.0)]);
        // Q3 regresses 2x while the others hold still.
        let new = record_with(&[("Q1", 1.0), ("Q2", 2.0), ("Q3", 10.0)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        assert_eq!(outcome.failures.len(), 1);
        assert!(outcome.failures[0].contains("Q3"));
    }

    #[test]
    fn gate_tolerates_relative_jitter_on_tiny_timings() {
        // Q3 is 40% "slower", but only by 40µs — under the absolute slack,
        // so it is jitter, not a regression.
        let old = record_with(&[("Q1", 0.1), ("Q2", 0.1), ("Q3", 0.1)]);
        let new = record_with(&[("Q1", 0.1), ("Q2", 0.1), ("Q3", 0.14)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        assert!(outcome.passed(), "{:?}", outcome.failures);
        // The same 40% on a 10ms query is 4ms — a real regression.
        let old = record_with(&[("Q1", 10.0), ("Q2", 10.0), ("Q3", 10.0)]);
        let new = record_with(&[("Q1", 10.0), ("Q2", 10.0), ("Q3", 14.0)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        assert_eq!(outcome.failures.len(), 1);
    }

    #[test]
    fn gate_skips_noise_floor_and_missing_pairs() {
        let old = record_with(&[("Q1", 0.01), ("Q2", 2.0)]);
        let new = record_with(&[("Q1", 0.04), ("Q2", 2.0), ("Q9", 3.0)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        // Q1 is under the 0.05ms floor, Q9 has no baseline.
        assert_eq!(outcome.compared, 1);
        assert_eq!(outcome.skipped, 2);
        assert!(outcome.passed());
    }

    #[test]
    fn gate_with_no_comparable_pairs_passes() {
        let old = record_with(&[("Q1", 1.0)]);
        let new = record_with(&[("Q9", 1.0)]);
        let outcome = regression_gate(&old, &new, GATE_DEFAULT_TOLERANCE);
        assert!(outcome.passed());
        assert_eq!(outcome.compared, 0);
    }
}
