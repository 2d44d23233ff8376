//! Service metrics: per-engine throughput counters and latency histograms.
//!
//! Everything is lock-free (`AtomicU64`) so the request path never contends:
//! recording a latency is one `fetch_add` into a log₂-bucketed histogram.
//! Quantiles (p50/p95/p99) are estimated from the bucket counts — each
//! bucket `i` covers latencies in `[2^(i-1), 2^i)` microseconds, so the
//! estimate is exact to within a factor of two, which is what a `/stats`
//! dashboard needs (the paper reports milliseconds; sub-bucket precision
//! would be noise).

use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use turbohom_engine::{EngineKind, MatchStats, TraceReport};

/// Number of log₂ buckets: covers 1 µs … ~2³⁸ µs (≈ 76 hours) per query.
const BUCKETS: usize = 40;

/// The pipeline stages whose cumulative time `/metrics` exposes as
/// `turbohom_stage_seconds_total{stage=…}`, in pipeline order. These are the
/// root span names the service layer records on every request's trace;
/// `serialise` and `write` come from the HTTP layer, which streams the
/// results, so they stay at zero for embedded use.
pub const STAGES: [&str; 8] = [
    "fingerprint",
    "cache_lookup",
    "parse",
    "transform",
    "execute",
    "materialise",
    "serialise",
    "write",
];

/// What both histograms are under their units: per-bucket counts, the number
/// of observations and their sum, scaled so that the atomic stays an integer.
struct Buckets<const N: usize> {
    counts: [AtomicU64; N],
    count: AtomicU64,
    sum: AtomicU64,
}

impl<const N: usize> Default for Buckets<N> {
    fn default() -> Self {
        Buckets {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl<const N: usize> Buckets<N> {
    /// Counts one observation of `amount` into `bucket`; what lies beyond the
    /// last bucket saturates into it.
    fn add(&self, bucket: usize, amount: u64) {
        self.counts[bucket.min(N - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(amount, Ordering::Relaxed);
    }

    /// Appends the cumulative Prometheus `_bucket` series — bucket `i`'s
    /// upper bound is `le(i)`, the saturating top bucket's `+Inf` — plus
    /// `_sum` (the sum divided by `per_unit`) and `_count` for metric `name`
    /// with `labels` (as they stand inside `{}`, no trailing comma; may be
    /// empty).
    fn render_prometheus(
        &self,
        out: &mut String,
        name: &str,
        labels: &str,
        le: impl Fn(usize) -> f64,
        per_unit: f64,
    ) {
        let comma = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            cumulative += count.load(Ordering::Relaxed);
            let le = if i + 1 == N {
                "+Inf".to_string()
            } else {
                le(i).to_string()
            };
            out.push_str(&format!(
                "{name}_bucket{{{labels}{comma}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let labels = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let sum = self.sum.load(Ordering::Relaxed) as f64 / per_unit;
        out.push_str(&format!("{name}_sum{labels} {sum}\n"));
        out.push_str(&format!("{name}_count{labels} {cumulative}\n"));
    }
}

/// A log₂-bucketed latency histogram; the sum is kept in microseconds.
#[derive(Default)]
pub struct LatencyHistogram(Buckets<BUCKETS>);

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        // Bucket i holds values < 2^i µs: 0µs → bucket 0, 1µs → 1, 2-3µs → 2…
        self.0
            .add((u64::BITS - micros.leading_zeros()) as usize, micros);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Mean latency, or zero when nothing was recorded.
    pub fn mean(&self) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.0.sum.load(Ordering::Relaxed) / count)
    }

    /// Estimates the latency at quantile `q` (in `[0, 1]`): the upper bound
    /// of the first bucket covering the q-th observation.
    pub fn quantile(&self, q: f64) -> Duration {
        let count = self.count();
        if count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.counts.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_micros(1u64 << i);
            }
        }
        Duration::from_micros(1u64 << (BUCKETS - 1))
    }

    /// Appends this histogram as a Prometheus histogram in seconds for metric
    /// `name` with `labels`: bucket `i`'s upper bound is `2^i` µs.
    pub fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let le = |i| (1u64 << i) as f64 / 1e6;
        self.0.render_prometheus(out, name, labels, le, 1e6);
    }
}

/// Number of log₂ q-error buckets: covers ratios 1 … 2¹⁵ (an estimate more
/// than 32768× off lands in the saturating top bucket).
const QERROR_BUCKETS: usize = 16;

/// A log₂-bucketed histogram of estimate-vs-actual q-errors (ratios ≥ 1),
/// fed by `analyze=1` requests. Bucket `i` covers ratios in `[2^i, 2^(i+1))`
/// — a perfectly estimated step lands in bucket 0 (`le="2"`). The sum is
/// kept in thousandths.
#[derive(Default)]
pub struct QErrorHistogram(Buckets<QERROR_BUCKETS>);

impl QErrorHistogram {
    /// Records one per-step q-error (clamped to ≥ 1).
    pub fn record(&self, qerror: f64) {
        let q = if qerror.is_finite() {
            qerror.max(1.0)
        } else {
            1.0
        };
        let milli = (q * 1000.0).min(u64::MAX as f64) as u64;
        self.0.add(q.log2() as usize, milli);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Appends the histogram as a Prometheus histogram for metric `name`:
    /// bucket `i`'s upper bound is `2^(i+1)`.
    pub fn render_prometheus(&self, out: &mut String, name: &str) {
        let le = |i| (1u64 << (i + 1)) as f64;
        self.0.render_prometheus(out, name, "", le, 1000.0);
    }
}

/// Cumulative wall-clock time per pipeline stage, fed by every request's
/// trace (coarse traces are always on, so these are exact totals, not
/// samples). Lock-free like everything else here.
#[derive(Default)]
pub struct StageTotals {
    nanos: [AtomicU64; STAGES.len()],
}

impl StageTotals {
    /// Adds `nanos` to `stage`'s total. Unknown stage names (e.g. a span a
    /// future layer invents) are ignored rather than panicking.
    pub fn record(&self, stage: &str, nanos: u64) {
        if let Some(i) = STAGES.iter().position(|s| *s == stage) {
            self.nanos[i].fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Cumulative seconds spent in `stage` across all requests.
    pub fn seconds(&self, stage: &str) -> f64 {
        STAGES
            .iter()
            .position(|s| *s == stage)
            .map_or(0.0, |i| self.nanos[i].load(Ordering::Relaxed) as f64 / 1e9)
    }
}

/// Counters and latency for one engine kind.
#[derive(Default)]
pub struct EngineMetrics {
    /// Successfully answered queries.
    pub queries: AtomicU64,
    /// Queries that returned an error.
    pub errors: AtomicU64,
    /// Latency of successful queries (wall clock across the whole request:
    /// fingerprint + plan lookup/preparation + enumeration + rendering).
    pub latency: LatencyHistogram,
    /// The matcher's counters summed over successful queries, one per entry
    /// of [`MatchStats::counters`] (all-zero for the join baselines, which
    /// never run the matcher).
    matcher: [AtomicU64; MatchStats::COUNTERS],
}

impl EngineMetrics {
    /// The cumulative matcher counters under their [`MatchStats`] names.
    pub fn matcher(&self) -> [(&'static str, usize); MatchStats::COUNTERS] {
        let mut counters = MatchStats::default().counters();
        for ((_, value), total) in counters.iter_mut().zip(&self.matcher) {
            *value = total.load(Ordering::Relaxed) as usize;
        }
        counters
    }
}

/// Connection-level counters of the HTTP front-end. Requests ÷ connections
/// is how well clients reuse their connections: ≈ 1 means they do not.
#[derive(Default)]
pub struct HttpMetrics {
    /// Connections accepted and served.
    pub connections: AtomicU64,
    /// Requests read off those connections, unreadable ones included.
    pub requests: AtomicU64,
    /// Connections refused with `503` because too many were open.
    pub rejected: AtomicU64,
    /// Connections open right now; the accept loop admits against it.
    pub open: AtomicU64,
}

/// All service metrics: one [`EngineMetrics`] per engine plus per-stage
/// time totals, the HTTP front-end's connection counters and uptime.
pub struct ServiceMetrics {
    per_engine: [EngineMetrics; EngineKind::COUNT],
    http: HttpMetrics,
    stages: StageTotals,
    /// Per-step estimate-vs-actual q-errors from `analyze=1` requests.
    qerror: QErrorHistogram,
    started: Instant,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceMetrics {
    /// Creates empty metrics; uptime starts now.
    pub fn new() -> Self {
        ServiceMetrics {
            per_engine: Default::default(),
            http: HttpMetrics::default(),
            stages: StageTotals::default(),
            qerror: QErrorHistogram::default(),
            started: Instant::now(),
        }
    }

    /// Records the per-step q-errors of one `analyze=1` request.
    pub fn record_qerrors(&self, qerrors: &[f64]) {
        for &q in qerrors {
            self.qerror.record(q);
        }
    }

    /// The q-error histogram.
    pub fn qerror(&self) -> &QErrorHistogram {
        &self.qerror
    }

    /// The HTTP front-end's connection counters.
    pub fn http(&self) -> &HttpMetrics {
        &self.http
    }

    /// The metrics of one engine.
    pub fn engine(&self, kind: EngineKind) -> &EngineMetrics {
        &self.per_engine[kind.index()]
    }

    /// Records a successful query with the matcher's per-stage counters.
    pub fn record_success(&self, kind: EngineKind, latency: Duration, stats: &MatchStats) {
        let m = self.engine(kind);
        m.queries.fetch_add(1, Ordering::Relaxed);
        m.latency.record(latency);
        for (total, (_, value)) in m.matcher.iter().zip(stats.counters()) {
            // Most counters of a lookup are zero; an untaken branch is
            // cheaper than a locked add.
            if value > 0 {
                total.fetch_add(value as u64, Ordering::Relaxed);
            }
        }
    }

    /// Records a failed query.
    pub fn record_error(&self, kind: EngineKind) {
        self.engine(kind).errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a finished request trace into the per-stage time totals.
    pub fn record_stages(&self, report: &TraceReport) {
        for (name, nanos) in report.stages() {
            self.stages.record(name, nanos);
        }
    }

    /// The cumulative per-stage time totals.
    pub fn stage_totals(&self) -> &StageTotals {
        &self.stages
    }

    /// Seconds since the service started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Total successful queries across all engines.
    pub fn total_queries(&self) -> u64 {
        self.per_engine
            .iter()
            .map(|m| m.queries.load(Ordering::Relaxed))
            .sum()
    }

    /// Queries per second over the whole uptime, per engine.
    pub fn qps(&self, kind: EngineKind) -> f64 {
        let secs = self.uptime().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.engine(kind).queries.load(Ordering::Relaxed) as f64 / secs
    }

    /// Appends everything this struct tracks in Prometheus text exposition
    /// format (version 0.0.4): uptime, per-engine counters (labeled with
    /// `store` — the `"single"`/`"sharded"` flavor, so dashboards never
    /// blur the two execution paths), per-stage time totals, one latency
    /// histogram per engine, the `analyze=1` q-error histogram and the HTTP
    /// connection series. The
    /// service layer appends its own cache/store series after this.
    pub fn render_prometheus(&self, out: &mut String, store: &str) {
        scalar(
            out,
            "turbohom_uptime_seconds",
            "gauge",
            "Seconds since the service started.",
            self.uptime().as_secs_f64(),
        );

        let counter =
            |out: &mut String, name: &str, help: &str, value: &dyn Fn(&EngineMetrics) -> u64| {
                family(out, name, "counter", help);
                for kind in EngineKind::all() {
                    out.push_str(&format!(
                        "{name}{{engine=\"{}\",store=\"{store}\"}} {}\n",
                        kind.name(),
                        value(self.engine(kind))
                    ));
                }
            };
        counter(
            out,
            "turbohom_queries_total",
            "Successfully answered queries.",
            &|m| m.queries.load(Ordering::Relaxed),
        );
        counter(
            out,
            "turbohom_query_errors_total",
            "Queries that returned an error.",
            &|m| m.errors.load(Ordering::Relaxed),
        );
        for (i, (name, _)) in MatchStats::default().counters().iter().enumerate() {
            let series = format!("turbohom_{name}_total");
            let help = format!("Matcher counter `{name}` summed over successful queries.");
            let total = |m: &EngineMetrics| m.matcher[i].load(Ordering::Relaxed);
            if name.starts_with("shards_") {
                // The shard counters have always been one unlabelled sample:
                // the sum over engines (`/stats` has them per engine).
                let sum: u64 = self.per_engine.iter().map(total).sum();
                scalar(out, &series, "counter", &help, sum);
            } else {
                counter(out, &series, &help, &total);
            }
        }

        family(
            out,
            "turbohom_stage_seconds_total",
            "counter",
            "Cumulative wall-clock seconds per pipeline stage.",
        );
        for stage in STAGES {
            out.push_str(&format!(
                "turbohom_stage_seconds_total{{stage=\"{stage}\"}} {}\n",
                self.stages.seconds(stage)
            ));
        }

        family(
            out,
            "turbohom_query_latency_seconds",
            "histogram",
            "Request latency of successful queries.",
        );
        for kind in EngineKind::all() {
            self.engine(kind).latency.render_prometheus(
                out,
                "turbohom_query_latency_seconds",
                &format!("engine=\"{}\",store=\"{store}\"", kind.name()),
            );
        }

        family(
            out,
            "turbohom_estimate_qerror",
            "histogram",
            "Per-step estimate-vs-actual q-error (analyze=1 requests).",
        );
        self.qerror
            .render_prometheus(out, "turbohom_estimate_qerror");

        for (name, kind, help, value) in [
            (
                "turbohom_http_connections_total",
                "counter",
                "Connections accepted and served.",
                &self.http.connections,
            ),
            (
                "turbohom_http_requests_total",
                "counter",
                "Requests read off those connections (requests / connections near 1: clients are not reusing connections).",
                &self.http.requests,
            ),
            (
                "turbohom_http_connections_rejected_total",
                "counter",
                "Connections refused with 503 because too many were open.",
                &self.http.rejected,
            ),
            (
                "turbohom_http_connections_open",
                "gauge",
                "Connections open right now.",
                &self.http.open,
            ),
        ] {
            scalar(out, name, kind, help, value.load(Ordering::Relaxed));
        }
    }
}

/// Writes the `# HELP` / `# TYPE` header every metric family starts with.
pub(crate) fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// A family of one unlabelled sample.
pub(crate) fn scalar(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    family(out, name, kind, help);
    out.push_str(&format!("{name} {value}\n"));
}

/// Escapes a label value the way the exposition format asks: backslash,
/// double quote and line feed.
pub(crate) fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_and_estimates_quantiles() {
        let h = LatencyHistogram::default();
        // 90 fast observations (~8 µs), 10 slow (~1000 µs).
        for _ in 0..90 {
            h.record(Duration::from_micros(8));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(1000));
        }
        assert_eq!(h.count(), 100);
        // p50 and p90 land in the 8µs bucket (upper bound 16µs);
        // p95/p99 land in the 1000µs bucket (upper bound 1024µs).
        assert_eq!(h.quantile(0.50), Duration::from_micros(16));
        assert_eq!(h.quantile(0.90), Duration::from_micros(16));
        assert_eq!(h.quantile(0.95), Duration::from_micros(1024));
        assert_eq!(h.quantile(0.99), Duration::from_micros(1024));
        let mean = h.mean();
        assert!(mean > Duration::from_micros(90) && mean < Duration::from_micros(120));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn extreme_latencies_clamp_into_the_last_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(1_000_000));
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) > Duration::from_secs(1));
        // The saturating top bucket holds the observation …
        assert_eq!(h.0.counts[BUCKETS - 1].load(Ordering::Relaxed), 1);
        // … and the quantile estimate is its (huge) upper bound, not +∞.
        assert_eq!(
            h.quantile(1.0),
            Duration::from_micros(1u64 << (BUCKETS - 1))
        );
    }

    #[test]
    fn single_observation_dominates_every_quantile() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), Duration::from_micros(100));
        // 100 µs lands in bucket 7 (64–127 µs), upper bound 128 µs; with one
        // observation every quantile — including the extremes — reports it.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::from_micros(128), "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_occupied_buckets() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(1000));
        // q=0.0 clamps to the first observation, q=1.0 covers the last.
        assert_eq!(h.quantile(0.0), Duration::from_micros(2));
        assert_eq!(h.quantile(1.0), Duration::from_micros(1024));
        // Out-of-range inputs clamp instead of panicking.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_in_inf() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(3)); // bucket 2
        h.record(Duration::from_micros(100)); // bucket 7
        let mut out = String::new();
        h.render_prometheus(&mut out, "x_seconds", "engine=\"e\"");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), BUCKETS + 2);
        // Buckets are cumulative: 0 until 4 µs, 2 from there, 3 from 128 µs.
        assert!(lines.contains(&"x_seconds_bucket{engine=\"e\",le=\"0.000002\"} 0"));
        assert!(lines.contains(&"x_seconds_bucket{engine=\"e\",le=\"0.000004\"} 2"));
        assert!(lines.contains(&"x_seconds_bucket{engine=\"e\",le=\"0.000064\"} 2"));
        assert!(lines.contains(&"x_seconds_bucket{engine=\"e\",le=\"0.000128\"} 3"));
        assert_eq!(
            lines[BUCKETS - 1],
            "x_seconds_bucket{engine=\"e\",le=\"+Inf\"} 3"
        );
        assert_eq!(lines[BUCKETS], "x_seconds_sum{engine=\"e\"} 0.000106");
        assert_eq!(lines[BUCKETS + 1], "x_seconds_count{engine=\"e\"} 3");
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in &lines[..BUCKETS] {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn stage_totals_accumulate_known_stages_and_ignore_others() {
        let totals = StageTotals::default();
        totals.record("parse", 1_500_000_000);
        totals.record("parse", 500_000_000);
        totals.record("no-such-stage", u64::MAX);
        assert_eq!(totals.seconds("parse"), 2.0);
        assert_eq!(totals.seconds("execute"), 0.0);
        assert_eq!(totals.seconds("no-such-stage"), 0.0);
    }

    #[test]
    fn service_exposition_has_every_metric_family() {
        let m = ServiceMetrics::new();
        m.record_success(
            EngineKind::TurboHomPlusPlus,
            Duration::from_micros(50),
            &MatchStats {
                solutions: 2,
                ..MatchStats::default()
            },
        );
        m.record_error(EngineKind::HashJoin);
        m.record_qerrors(&[1.0, 3.0]);
        let mut out = String::new();
        m.render_prometheus(&mut out, "single");
        for family in [
            "turbohom_uptime_seconds",
            "turbohom_queries_total",
            "turbohom_query_errors_total",
            "turbohom_solutions_total",
            "turbohom_intersection_ops_total",
            "turbohom_signature_pruned_total",
            "turbohom_degree_filtered_total",
            "turbohom_morsels_total",
            "turbohom_shards_pruned_total",
            "turbohom_stage_seconds_total",
            "turbohom_query_latency_seconds",
            "turbohom_estimate_qerror",
        ] {
            assert!(
                out.contains(&format!("# TYPE {family} ")),
                "missing TYPE line for {family}"
            );
        }
        assert!(out.contains("turbohom_queries_total{engine=\"turbohom++\",store=\"single\"} 1"));
        assert!(out.contains("turbohom_query_errors_total{engine=\"hashjoin\",store=\"single\"} 1"));
        assert!(out.contains("turbohom_solutions_total{engine=\"turbohom++\",store=\"single\"} 2"));
        assert!(out.contains("turbohom_stage_seconds_total{stage=\"execute\"} 0"));
        assert!(out.contains(
            "turbohom_query_latency_seconds_count{engine=\"turbohom++\",store=\"single\"} 1"
        ));
        assert!(out.contains("turbohom_estimate_qerror_count 2"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').unwrap();
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
    }

    #[test]
    fn qerror_histogram_buckets_by_log2_ratio() {
        let h = QErrorHistogram::default();
        h.record(1.0); // bucket 0 (le=2)
        h.record(1.9); // bucket 0
        h.record(5.0); // bucket 2 (le=8)
        h.record(0.5); // clamps to 1 → bucket 0
        h.record(f64::INFINITY); // clamps to 1 instead of overflowing
        h.record(1e12); // saturates into the top (+Inf) bucket
        assert_eq!(h.count(), 6);
        let mut out = String::new();
        h.render_prometheus(&mut out, "q");
        assert!(out.contains("q_bucket{le=\"2\"} 4"));
        assert!(out.contains("q_bucket{le=\"4\"} 4"));
        assert!(out.contains("q_bucket{le=\"8\"} 5"));
        assert!(out.contains("q_bucket{le=\"+Inf\"} 6"));
        assert!(out.contains("q_count 6"));
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.starts_with("q_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn per_engine_counters_are_independent() {
        let m = ServiceMetrics::new();
        let stats = MatchStats {
            solutions: 3,
            intersection_ops: 7,
            signature_pruned: 5,
            morsels: 4,
            ..MatchStats::default()
        };
        m.record_success(
            EngineKind::TurboHomPlusPlus,
            Duration::from_micros(5),
            &stats,
        );
        m.record_success(
            EngineKind::TurboHomPlusPlus,
            Duration::from_micros(5),
            &stats,
        );
        m.record_error(EngineKind::MergeJoin);
        assert_eq!(
            m.engine(EngineKind::TurboHomPlusPlus)
                .queries
                .load(Ordering::Relaxed),
            2
        );
        assert_eq!(
            m.engine(EngineKind::MergeJoin)
                .errors
                .load(Ordering::Relaxed),
            1
        );
        assert_eq!(m.engine(EngineKind::HashJoin).latency.count(), 0);
        assert_eq!(m.total_queries(), 2);
        assert!(m.qps(EngineKind::TurboHomPlusPlus) > 0.0);
        // Every matcher counter accumulates across requests, the ones this
        // request left at zero included.
        let mut twice = stats;
        twice.merge(&stats);
        let busy = m.engine(EngineKind::TurboHomPlusPlus).matcher();
        assert_eq!(busy, twice.counters());
        let idle = m.engine(EngineKind::MergeJoin).matcher();
        assert_eq!(idle, MatchStats::default().counters());
    }

    #[test]
    fn family_headers_and_label_escapes_follow_the_exposition_format() {
        let mut out = String::new();
        scalar(&mut out, "m_total", "counter", "What it counts.", 3u64);
        assert_eq!(
            out,
            "# HELP m_total What it counts.\n# TYPE m_total counter\nm_total 3\n"
        );
        // A path with a line feed in it must not end the sample line.
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label("/data/lubm.snap"), "/data/lubm.snap");
    }
}
