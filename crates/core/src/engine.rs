//! The top-level engine: orchestrates start-vertex selection, candidate
//! region exploration, matching-order determination, subgraph search,
//! FILTER application and (optionally) parallel execution over starting
//! vertices (paper Algorithm 1 + Sections 4.3, 5.1, 5.2).

use crate::candidate_region::{explore_candidate_region, CandidateRegion};
use crate::config::{Scheduler, TurboHomConfig};
use crate::matching_order::MatchingOrder;
use crate::morsel::MorselQueue;
use crate::query_tree::QueryTree;
use crate::result::{merge_step_counts, MatchResult, RowLayout};
use crate::start_vertex::choose_start_vertex;
use crate::stats::MatchStats;
use crate::subgraph_search::SubgraphSearcher;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use turbohom_graph::{ELabel, VertexId};
use turbohom_rdf::{Dictionary, IdRows, UNBOUND};
use turbohom_sparql::{EvalContext, Expression};
use turbohom_trace::{SpanId, Trace};
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// Upper bound on how many starting vertices one thread claims at a time.
/// Small chunks keep the load balanced (Section 5.2: "we assign a small
/// chunk of the starting data vertices to threads dynamically"); the actual
/// chunk size additionally shrinks when there are few starting vertices so
/// that every worker gets something to do.
const PARALLEL_CHUNK: usize = 16;

/// Picks the dynamic chunk size for `starts` starting vertices and `threads`
/// workers: roughly eight chunks per worker, capped at [`PARALLEL_CHUNK`].
fn chunk_size(starts: usize, threads: usize) -> usize {
    (starts / (threads * 8)).clamp(1, PARALLEL_CHUNK)
}

/// Accumulates one region's candidate counts per matching-order position —
/// the cardinality estimates ANALYZE compares against the actual per-step
/// rows.
fn accumulate_estimates(dst: &mut Vec<u64>, order: &MatchingOrder, region: &CandidateRegion) {
    if dst.len() < order.len() {
        dst.resize(order.len(), 0);
    }
    for (i, &u) in order.order.iter().enumerate() {
        dst[i] += region.count(u) as u64;
    }
}

/// Per-stage wall-clock accumulators for a detailed trace. Exploration,
/// matching-order determination and enumeration interleave per candidate
/// region, so their times are accumulated here and emitted as rolled-up
/// spans at the end of the run.
#[derive(Debug, Default, Clone, Copy)]
struct StageClock {
    explore: Duration,
    order: Duration,
    search: Duration,
}

impl StageClock {
    fn add(&mut self, other: &StageClock) {
        self.explore += other.explore;
        self.order += other.order;
        self.search += other.search;
    }
}

/// Runs `f`, adding its wall time to `slot` when `detailed` tracing is on.
fn timed<T>(detailed: bool, slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    if detailed {
        let t0 = Instant::now();
        let out = f();
        *slot += t0.elapsed();
        out
    } else {
        f()
    }
}

/// What the parallel paths merge across workers: solution rows, solution
/// count, counters, per-step actual rows, per-step candidate estimates.
type MergeAcc = (IdRows, usize, MatchStats, Vec<u64>, Vec<u64>);

/// What one parallel worker did, for its per-worker span.
struct WorkerTiming {
    worker: usize,
    busy: Duration,
    clock: StageClock,
    stats: MatchStats,
    solutions: usize,
}

/// Emits the detailed stage spans: `candidate_regions`, `matching_order`
/// and `enumeration` rollups under `parent`, plus one `worker` span per
/// parallel worker (child of `enumeration`) carrying its `MatchStats`.
fn record_stage_spans(
    trace: &Trace,
    parent: Option<SpanId>,
    clock: &StageClock,
    stats: &MatchStats,
    workers: &[WorkerTiming],
) {
    trace.record_rollup(
        "candidate_regions",
        parent,
        clock.explore,
        &[
            ("regions", stats.candidate_regions as u64),
            ("nonempty", stats.nonempty_regions as u64),
        ],
    );
    trace.record_rollup(
        "matching_order",
        parent,
        clock.order,
        &[("orders_computed", stats.matching_orders_computed as u64)],
    );
    let enumeration = trace.record_rollup(
        "enumeration",
        parent,
        clock.search,
        &[
            ("recursions", stats.search_recursions as u64),
            ("intersections", stats.intersection_ops as u64),
            ("solutions", stats.solutions as u64),
        ],
    );
    for w in workers {
        trace.record_rollup(
            "worker",
            enumeration,
            w.busy,
            &[
                ("worker", w.worker as u64),
                ("morsels", w.stats.morsels as u64),
                ("morsels_stolen", w.stats.morsels_stolen as u64),
                ("regions", w.stats.candidate_regions as u64),
                ("solutions", w.solutions as u64),
            ],
        );
    }
}

/// Errors reported by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The (required part of the) query graph is not connected; evaluating it
    /// would be a cartesian product, which this engine does not support.
    DisconnectedQuery,
    /// Every query vertex sits inside an OPTIONAL clause; there is no
    /// required part to anchor the search.
    NoRequiredPart,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::DisconnectedQuery => {
                write!(
                    f,
                    "query graph is disconnected (cartesian products are not supported)"
                )
            }
            EngineError::NoRequiredPart => {
                write!(f, "query has no required (non-OPTIONAL) part")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The TurboHOM / TurboHOM++ execution engine over one transformed data graph.
pub struct TurboHomEngine<'a> {
    data: &'a TransformedGraph,
    dictionary: &'a Dictionary,
    config: TurboHomConfig,
}

impl<'a> TurboHomEngine<'a> {
    /// Creates an engine for `data`. The `dictionary` is needed to evaluate
    /// FILTER expressions (it maps matched vertices back to RDF terms).
    pub fn new(
        data: &'a TransformedGraph,
        dictionary: &'a Dictionary,
        config: TurboHomConfig,
    ) -> Self {
        TurboHomEngine {
            data,
            dictionary,
            config,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TurboHomConfig {
        &self.config
    }

    /// Executes one (union-free) transformed query.
    pub fn execute(&self, query: &TransformedQuery) -> Result<MatchResult, EngineError> {
        self.execute_with_order(query, None)
            .map(|(result, _)| result)
    }

    /// Executes like [`execute`](Self::execute), but additionally accepts a
    /// matching order computed by a previous run of the *same* query on the
    /// *same* data graph (the plan-cache warm path), and returns the order
    /// this run computed so the caller can cache it.
    ///
    /// The preset only takes effect under `+REUSE` (without it the order is
    /// per-region by design). When a preset is supplied, no order is computed
    /// at all — `MatchStats::matching_orders_computed` stays `0` — and the
    /// returned order is `None` (the caller already holds it).
    pub fn execute_with_order(
        &self,
        query: &TransformedQuery,
        preset_order: Option<&MatchingOrder>,
    ) -> Result<(MatchResult, Option<MatchingOrder>), EngineError> {
        self.execute_with_order_traced(query, preset_order, &Trace::disabled(), None)
    }

    /// Executes like [`execute_with_order`](Self::execute_with_order) while
    /// recording spans into `trace` (under `parent`). With a
    /// [detailed](Trace::is_detailed) trace this times candidate-region
    /// exploration, matching-order determination and enumeration separately
    /// (they interleave per region, so each is emitted as one rolled-up
    /// span), plus one span per parallel worker; a coarse or disabled trace
    /// makes this identical to the untraced path.
    pub fn execute_with_order_traced(
        &self,
        query: &TransformedQuery,
        preset_order: Option<&MatchingOrder>,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> Result<(MatchResult, Option<MatchingOrder>), EngineError> {
        if query.unsatisfiable || query.graph.vertex_count() == 0 {
            return Ok((MatchResult::default(), None));
        }
        if !query.graph.is_connected() {
            return Err(EngineError::DisconnectedQuery);
        }
        if query.vertex_clause.iter().all(|c| c.is_some()) {
            return Err(EngineError::NoRequiredPart);
        }

        let mut stats = MatchStats::default();
        let selection = choose_start_vertex(self.data, &self.config, query, &mut stats);
        if selection.start_vertices.is_empty() {
            return Ok((
                MatchResult {
                    stats,
                    ..MatchResult::default()
                },
                None,
            ));
        }
        let tree = QueryTree::build(&query.graph, selection.query_vertex);
        debug_assert!(tree.spans(&query.graph));
        let layout = RowLayout::of(&query.graph);

        // Split the FILTER expressions: cheap single-variable filters on
        // required vertices are evaluated inline while matching; the rest
        // (join conditions, regular expressions, filters over OPTIONAL
        // variables) are applied to complete solutions afterwards
        // (Section 5.1).
        let (inline_filters, post_filters) = self.split_filters(query);
        // With expensive filters pending, the search must materialize
        // solutions and must not cut off at the limit prematurely.
        let mut search_config = self.config;
        if !post_filters.is_empty() {
            search_config.count_only = false;
            search_config.max_solutions = None;
        }

        let (result, computed_order) = if self.config.threads <= 1 {
            self.run_sequential(
                query,
                &tree,
                &layout,
                &selection.start_vertices,
                &search_config,
                &inline_filters,
                preset_order,
                stats,
                trace,
                parent,
            )
        } else {
            match self.config.scheduler {
                Scheduler::Morsel => self.run_parallel_morsel(
                    query,
                    &tree,
                    &layout,
                    &selection.start_vertices,
                    &search_config,
                    &inline_filters,
                    preset_order,
                    stats,
                    trace,
                    parent,
                ),
                Scheduler::Chunked => self.run_parallel_chunked(
                    query,
                    &tree,
                    &layout,
                    &selection.start_vertices,
                    &search_config,
                    &inline_filters,
                    preset_order,
                    stats,
                    trace,
                    parent,
                ),
            }
        };
        let mut result = result;

        if !post_filters.is_empty() {
            self.apply_post_filters(query, &layout, &post_filters, &mut result);
        }
        if let Some(limit) = self.config.max_solutions {
            result.rows.truncate(limit);
            result.solution_count = result.solution_count.min(limit);
        }
        if self.config.count_only {
            result.rows.clear();
        }
        Ok((result, computed_order))
    }

    /// Sequential execution (Algorithm 1's outer loop).
    #[allow(clippy::too_many_arguments)]
    fn run_sequential(
        &self,
        query: &TransformedQuery,
        tree: &QueryTree,
        layout: &RowLayout,
        starts: &[VertexId],
        config: &TurboHomConfig,
        inline_filters: &[Vec<&Expression>],
        preset_order: Option<&MatchingOrder>,
        mut stats: MatchStats,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> (MatchResult, Option<MatchingOrder>) {
        let detailed = trace.is_detailed();
        let mut clock = StageClock::default();
        let mut rows = IdRows::new(layout.stride());
        let mut count = 0usize;
        let mut step_rows: Vec<u64> = Vec::new();
        let mut step_estimates: Vec<u64> = Vec::new();
        let mut shared_order: Option<MatchingOrder> = None;
        for &vs in starts {
            stats.candidate_regions += 1;
            let region = timed(detailed, &mut clock.explore, || {
                explore_candidate_region(self.data, config, query, tree, vs, &mut stats)
            });
            let Some(region) = region else {
                continue;
            };
            stats.nonempty_regions += 1;
            let order_storage;
            let order = if config.optimizations.reuse_matching_order {
                if let Some(preset) = preset_order {
                    preset
                } else {
                    if shared_order.is_none() {
                        shared_order = Some(timed(detailed, &mut clock.order, || {
                            MatchingOrder::determine(query, tree, &region)
                        }));
                        stats.matching_orders_computed += 1;
                    }
                    shared_order.as_ref().unwrap()
                }
            } else {
                order_storage = timed(detailed, &mut clock.order, || {
                    MatchingOrder::determine(query, tree, &region)
                });
                stats.matching_orders_computed += 1;
                &order_storage
            };
            accumulate_estimates(&mut step_estimates, order, &region);
            let mut searcher = SubgraphSearcher::new(
                self.data,
                config,
                query,
                tree,
                order,
                layout,
                self.dictionary,
                inline_filters.to_vec(),
                std::mem::take(&mut rows),
            );
            timed(detailed, &mut clock.search, || {
                searcher.search_region(&region, vs)
            });
            count += searcher.solution_count;
            rows = std::mem::take(&mut searcher.rows);
            stats.merge(&searcher.stats);
            merge_step_counts(&mut step_rows, &searcher.step_rows);
            if let Some(limit) = config.max_solutions {
                if count >= limit {
                    break;
                }
            }
        }
        if detailed {
            record_stage_spans(trace, parent, &clock, &stats, &[]);
        }
        (
            MatchResult {
                rows,
                solution_count: count,
                stats,
                step_rows,
                step_estimates,
            },
            shared_order,
        )
    }

    /// With +REUSE the matching order comes from the first non-empty region;
    /// the parallel paths compute it up front so every worker can share it.
    fn precompute_shared_order(
        &self,
        query: &TransformedQuery,
        tree: &QueryTree,
        starts: &[VertexId],
        config: &TurboHomConfig,
        preset_order: Option<&MatchingOrder>,
        stats: &mut MatchStats,
    ) -> Option<MatchingOrder> {
        if !config.optimizations.reuse_matching_order || preset_order.is_some() {
            return None;
        }
        for &vs in starts {
            stats.candidate_regions += 1;
            if let Some(region) =
                explore_candidate_region(self.data, config, query, tree, vs, stats)
            {
                stats.nonempty_regions += 1;
                let order = MatchingOrder::determine(query, tree, &region);
                stats.matching_orders_computed += 1;
                // This region is searched again by a worker below; the
                // duplicate exploration is negligible (one region).
                stats.candidate_regions -= 1;
                stats.nonempty_regions -= 1;
                return Some(order);
            }
        }
        None
    }

    /// Morsel-driven parallel execution (the default scheduler). Start
    /// vertices are ranked heaviest-first by total degree, split into
    /// per-worker ranges, and claimed in small morsels; an idle worker steals
    /// the back half of a victim's remaining range (see [`MorselQueue`]).
    /// A shared solution counter lets every worker stop as soon as the
    /// configured `max_solutions` limit is reached globally.
    #[allow(clippy::too_many_arguments)]
    fn run_parallel_morsel(
        &self,
        query: &TransformedQuery,
        tree: &QueryTree,
        layout: &RowLayout,
        starts: &[VertexId],
        config: &TurboHomConfig,
        inline_filters: &[Vec<&Expression>],
        preset_order: Option<&MatchingOrder>,
        mut stats: MatchStats,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> (MatchResult, Option<MatchingOrder>) {
        let detailed = trace.is_detailed();
        let mut clock = StageClock::default();
        let shared_order = timed(detailed, &mut clock.order, || {
            self.precompute_shared_order(query, tree, starts, config, preset_order, &mut stats)
        });
        let shared_order_ref = if config.optimizations.reuse_matching_order {
            preset_order.or(shared_order.as_ref())
        } else {
            None
        };

        // Heavy regions first: a candidate region can only be as large as the
        // adjacency of its start vertex, so total degree is a cheap, effective
        // size rank. Claimed early, the giant regions overlap with the long
        // tail of small ones instead of serializing at the end.
        let mut ordered: Vec<VertexId> = starts.to_vec();
        ordered.sort_by_key(|&v| std::cmp::Reverse(self.data.graph.total_degree(v)));

        let workers = config.threads;
        let queue = MorselQueue::new(
            ordered.len(),
            workers,
            MorselQueue::default_morsel_size(ordered.len(), workers),
        );
        let found = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let merged: Mutex<MergeAcc> = Mutex::new((
            IdRows::new(layout.stride()),
            0,
            stats,
            Vec::new(),
            Vec::new(),
        ));
        let timings: Mutex<Vec<WorkerTiming>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for w in 0..workers {
                let queue = &queue;
                let ordered = &ordered;
                let found = &found;
                let stop = &stop;
                let merged = &merged;
                let timings = &timings;
                scope.spawn(move || {
                    let worker_start = Instant::now();
                    let mut local_clock = StageClock::default();
                    let mut local_rows_out = IdRows::new(layout.stride());
                    let mut local_count = 0usize;
                    let mut local_stats = MatchStats::default();
                    let mut local_rows: Vec<u64> = Vec::new();
                    let mut local_estimates: Vec<u64> = Vec::new();
                    'work: while let Some(morsel) = queue.pop(w) {
                        local_stats.morsels += 1;
                        if morsel.stolen {
                            local_stats.morsels_stolen += 1;
                        }
                        for &vs in &ordered[morsel.start..morsel.end] {
                            if stop.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            local_stats.candidate_regions += 1;
                            let region = timed(detailed, &mut local_clock.explore, || {
                                explore_candidate_region(
                                    self.data,
                                    config,
                                    query,
                                    tree,
                                    vs,
                                    &mut local_stats,
                                )
                            });
                            let Some(region) = region else {
                                continue;
                            };
                            local_stats.nonempty_regions += 1;
                            let order_storage;
                            let order = match shared_order_ref {
                                Some(o) => o,
                                None => {
                                    order_storage = timed(detailed, &mut local_clock.order, || {
                                        MatchingOrder::determine(query, tree, &region)
                                    });
                                    local_stats.matching_orders_computed += 1;
                                    &order_storage
                                }
                            };
                            accumulate_estimates(&mut local_estimates, order, &region);
                            let mut searcher = SubgraphSearcher::new(
                                self.data,
                                config,
                                query,
                                tree,
                                order,
                                layout,
                                self.dictionary,
                                inline_filters.to_vec(),
                                std::mem::take(&mut local_rows_out),
                            );
                            timed(detailed, &mut local_clock.search, || {
                                searcher.search_region(&region, vs)
                            });
                            local_count += searcher.solution_count;
                            local_rows_out = std::mem::take(&mut searcher.rows);
                            local_stats.merge(&searcher.stats);
                            merge_step_counts(&mut local_rows, &searcher.step_rows);
                            if let Some(limit) = config.max_solutions {
                                let total = found
                                    .fetch_add(searcher.solution_count, Ordering::Relaxed)
                                    + searcher.solution_count;
                                if total >= limit {
                                    stop.store(true, Ordering::Relaxed);
                                    break 'work;
                                }
                            }
                        }
                    }
                    if detailed {
                        timings.lock().push(WorkerTiming {
                            worker: w,
                            busy: worker_start.elapsed(),
                            clock: local_clock,
                            stats: local_stats,
                            solutions: local_count,
                        });
                    }
                    let mut guard = merged.lock();
                    guard.0.append(&mut local_rows_out);
                    guard.1 += local_count;
                    guard.2.merge(&local_stats);
                    merge_step_counts(&mut guard.3, &local_rows);
                    merge_step_counts(&mut guard.4, &local_estimates);
                });
            }
        });

        let (rows, count, mut stats, step_rows, step_estimates) = merged.into_inner();
        stats.morsels_stolen = stats.morsels_stolen.max(queue.stolen_count());
        if detailed {
            let mut workers = timings.into_inner();
            workers.sort_by_key(|t| t.worker);
            for t in &workers {
                clock.add(&t.clock);
            }
            record_stage_spans(trace, parent, &clock, &stats, &workers);
        }
        (
            MatchResult {
                rows,
                solution_count: count,
                stats,
                step_rows,
                step_estimates,
            },
            shared_order,
        )
    }

    /// Legacy parallel execution: starting vertices are handed to worker
    /// threads in small dynamic chunks off one shared cursor (the pre-morsel
    /// scheduler, kept behind [`Scheduler::Chunked`] for A/B benchmarking).
    /// Each candidate region is explored and searched entirely by one thread;
    /// results are merged at the end.
    #[allow(clippy::too_many_arguments)]
    fn run_parallel_chunked(
        &self,
        query: &TransformedQuery,
        tree: &QueryTree,
        layout: &RowLayout,
        starts: &[VertexId],
        config: &TurboHomConfig,
        inline_filters: &[Vec<&Expression>],
        preset_order: Option<&MatchingOrder>,
        mut stats: MatchStats,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> (MatchResult, Option<MatchingOrder>) {
        let detailed = trace.is_detailed();
        let mut clock = StageClock::default();
        let shared_order = timed(detailed, &mut clock.order, || {
            self.precompute_shared_order(query, tree, starts, config, preset_order, &mut stats)
        });

        let next = AtomicUsize::new(0);
        let merged: Mutex<MergeAcc> = Mutex::new((
            IdRows::new(layout.stride()),
            0,
            stats,
            Vec::new(),
            Vec::new(),
        ));
        let timings: Mutex<Vec<WorkerTiming>> = Mutex::new(Vec::new());
        // Like the sequential path, the preset only applies under +REUSE;
        // without it every region determines its own order.
        let shared_order_ref = if config.optimizations.reuse_matching_order {
            preset_order.or(shared_order.as_ref())
        } else {
            None
        };
        let chunk = chunk_size(starts.len(), config.threads);

        std::thread::scope(|scope| {
            for w in 0..config.threads {
                let timings = &timings;
                let next = &next;
                let merged = &merged;
                let shared_order_ref = &shared_order_ref;
                scope.spawn(move || {
                    let worker_start = Instant::now();
                    let mut local_clock = StageClock::default();
                    let mut local_rows_out = IdRows::new(layout.stride());
                    let mut local_count = 0usize;
                    let mut local_stats = MatchStats::default();
                    let mut local_rows: Vec<u64> = Vec::new();
                    let mut local_estimates: Vec<u64> = Vec::new();
                    loop {
                        let begin = next.fetch_add(chunk, Ordering::Relaxed);
                        if begin >= starts.len() {
                            break;
                        }
                        let end = (begin + chunk).min(starts.len());
                        for &vs in &starts[begin..end] {
                            local_stats.candidate_regions += 1;
                            let region = timed(detailed, &mut local_clock.explore, || {
                                explore_candidate_region(
                                    self.data,
                                    config,
                                    query,
                                    tree,
                                    vs,
                                    &mut local_stats,
                                )
                            });
                            let Some(region) = region else {
                                continue;
                            };
                            local_stats.nonempty_regions += 1;
                            let order_storage;
                            let order = match shared_order_ref {
                                Some(o) => *o,
                                None => {
                                    order_storage = timed(detailed, &mut local_clock.order, || {
                                        MatchingOrder::determine(query, tree, &region)
                                    });
                                    local_stats.matching_orders_computed += 1;
                                    &order_storage
                                }
                            };
                            accumulate_estimates(&mut local_estimates, order, &region);
                            let mut searcher = SubgraphSearcher::new(
                                self.data,
                                config,
                                query,
                                tree,
                                order,
                                layout,
                                self.dictionary,
                                inline_filters.to_vec(),
                                std::mem::take(&mut local_rows_out),
                            );
                            timed(detailed, &mut local_clock.search, || {
                                searcher.search_region(&region, vs)
                            });
                            local_count += searcher.solution_count;
                            local_rows_out = std::mem::take(&mut searcher.rows);
                            local_stats.merge(&searcher.stats);
                            merge_step_counts(&mut local_rows, &searcher.step_rows);
                        }
                    }
                    if detailed {
                        timings.lock().push(WorkerTiming {
                            worker: w,
                            busy: worker_start.elapsed(),
                            clock: local_clock,
                            stats: local_stats,
                            solutions: local_count,
                        });
                    }
                    let mut guard = merged.lock();
                    guard.0.append(&mut local_rows_out);
                    guard.1 += local_count;
                    guard.2.merge(&local_stats);
                    merge_step_counts(&mut guard.3, &local_rows);
                    merge_step_counts(&mut guard.4, &local_estimates);
                });
            }
        });

        let (rows, count, stats, step_rows, step_estimates) = merged.into_inner();
        if detailed {
            let mut workers = timings.into_inner();
            workers.sort_by_key(|t| t.worker);
            for t in &workers {
                clock.add(&t.clock);
            }
            record_stage_spans(trace, parent, &clock, &stats, &workers);
        }
        (
            MatchResult {
                rows,
                solution_count: count,
                stats,
                step_rows,
                step_estimates,
            },
            shared_order,
        )
    }

    /// Splits the query's filters into per-vertex inline filters and
    /// post-hoc filters.
    fn split_filters<'q>(
        &self,
        query: &'q TransformedQuery,
    ) -> (Vec<Vec<&'q Expression>>, Vec<&'q Expression>) {
        let mut inline: Vec<Vec<&Expression>> = vec![Vec::new(); query.graph.vertex_count()];
        let mut post: Vec<&Expression> = Vec::new();
        for filter in &query.filters {
            let mut vars = filter.variables();
            vars.sort();
            vars.dedup();
            let single_required_vertex = if vars.len() == 1 && !filter.is_expensive() {
                query
                    .graph
                    .vertex_of_variable(&vars[0])
                    .filter(|&u| query.vertex_clause[u].is_none())
            } else {
                None
            };
            match single_required_vertex {
                Some(u) => inline[u].push(filter),
                None => post.push(filter),
            }
        }
        (inline, post)
    }

    /// Applies the expensive filters to the materialized solutions.
    fn apply_post_filters(
        &self,
        query: &TransformedQuery,
        layout: &RowLayout,
        filters: &[&Expression],
        result: &mut MatchResult,
    ) {
        let before = result.rows.len();
        result.rows.retain(|row| {
            let ctx = self.binding_context(query, layout, row);
            filters.iter().all(|f| f.evaluate_bool(&ctx))
        });
        result.stats.filtered_post += before - result.rows.len();
        result.solution_count = result.rows.len();
    }

    /// Builds the variable → term context of one solution row (vertex
    /// variables and variable predicates).
    fn binding_context(
        &self,
        query: &TransformedQuery,
        layout: &RowLayout,
        row: &[u32],
    ) -> EvalContext {
        let mappings = &self.data.mappings;
        let mut ctx = EvalContext::new();
        let mut bind = |var: &Option<String>, id: Option<turbohom_rdf::TermId>| {
            if let (Some(var), Some(term)) = (var, id.and_then(|id| self.dictionary.term(id))) {
                ctx.insert(var.clone(), term);
            }
        };
        for (u, qv) in query.graph.vertices().iter().enumerate() {
            let cell = row[layout.vertex_column(u)];
            if cell != UNBOUND {
                bind(&qv.variable, mappings.term_of_vertex(VertexId(cell)));
            }
        }
        for (&e, &cell) in layout
            .variable_edges()
            .iter()
            .zip(&row[query.graph.vertex_count()..])
        {
            if cell != UNBOUND {
                bind(
                    &query.graph.edge(e).variable,
                    mappings.term_of_elabel(ELabel(cell)),
                );
            }
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::{vocab, Dataset, Term};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_query, type_aware_transform};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// A small university dataset: 3 universities, each with 2 departments,
    /// each with 4 students who hold an undergraduate degree from the
    /// *same* university their department belongs to (so the triangle query
    /// has 3 × 2 × 4 = 24 solutions).
    fn university_dataset() -> Dataset {
        let mut ds = Dataset::new();
        for u in 0..3 {
            let univ = ub(&format!("univ{u}"));
            ds.insert_iris(&univ, vocab::RDF_TYPE, &ub("University"));
            for d in 0..2 {
                let dept = ub(&format!("dept{u}_{d}"));
                ds.insert_iris(&dept, vocab::RDF_TYPE, &ub("Department"));
                ds.insert_iris(&dept, &ub("subOrganizationOf"), &univ);
                for s in 0..4 {
                    let student = ub(&format!("student{u}_{d}_{s}"));
                    ds.insert_iris(&student, vocab::RDF_TYPE, &ub("GraduateStudent"));
                    ds.insert_iris(&student, vocab::RDF_TYPE, &ub("Student"));
                    ds.insert_iris(&student, &ub("memberOf"), &dept);
                    ds.insert_iris(&student, &ub("undergraduateDegreeFrom"), &univ);
                    ds.insert(
                        &Term::iri(student.clone()),
                        &Term::iri(ub("age")),
                        &Term::integer(20 + s as i64),
                    );
                }
            }
        }
        ds
    }

    const TRIANGLE: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://ub.org/>
        SELECT ?x ?y ?z WHERE {
            ?x rdf:type ub:Student . ?y rdf:type ub:University . ?z rdf:type ub:Department .
            ?x ub:undergraduateDegreeFrom ?y . ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y .
        }"#;

    fn execute(
        ds: &Dataset,
        data: &TransformedGraph,
        sparql: &str,
        config: TurboHomConfig,
    ) -> MatchResult {
        let q = parse_query(sparql).unwrap();
        let tq = transform_query(&q.pattern, data, &ds.dictionary).unwrap();
        TurboHomEngine::new(data, &ds.dictionary, config)
            .execute(&tq)
            .unwrap()
    }

    #[test]
    fn triangle_query_counts_solutions() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let result = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        assert_eq!(result.len(), 24);
        assert_eq!(result.rows.len(), 24);
        assert!(result.stats.nonempty_regions > 0);
    }

    #[test]
    fn turbohom_and_turbohom_plus_plus_agree() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let plus = execute(&ds, &data, TRIANGLE, TurboHomConfig::turbohom_plus_plus());
        let plain = execute(&ds, &data, TRIANGLE, TurboHomConfig::turbohom());
        assert_eq!(plus.len(), plain.len());
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let seq = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        for threads in [2, 4, 8] {
            let par = execute(
                &ds,
                &data,
                TRIANGLE,
                TurboHomConfig::default().with_threads(threads),
            );
            assert_eq!(par.len(), seq.len(), "threads = {threads}");
            // Same multiset of solutions.
            let mut a: Vec<_> = seq.rows.iter().collect();
            let mut b: Vec<_> = par.rows.iter().collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn both_schedulers_match_sequential() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let seq = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        let mut expected: Vec<_> = seq.rows.iter().collect();
        expected.sort();
        for scheduler in [Scheduler::Morsel, Scheduler::Chunked] {
            let par = execute(
                &ds,
                &data,
                TRIANGLE,
                TurboHomConfig::default()
                    .with_threads(4)
                    .with_scheduler(scheduler),
            );
            assert_eq!(par.len(), seq.len(), "{scheduler:?}");
            let mut got: Vec<_> = par.rows.iter().collect();
            got.sort();
            assert_eq!(got, expected, "{scheduler:?}");
        }
    }

    #[test]
    fn morsel_scheduler_counts_morsels() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let par = execute(
            &ds,
            &data,
            TRIANGLE,
            TurboHomConfig::default().with_threads(4),
        );
        assert!(
            par.stats.morsels > 0,
            "morsel scheduler must record morsels"
        );
        // The chunked legacy path records none.
        let chunked = execute(
            &ds,
            &data,
            TRIANGLE,
            TurboHomConfig::default()
                .with_threads(4)
                .with_scheduler(Scheduler::Chunked),
        );
        assert_eq!(chunked.stats.morsels, 0);
    }

    #[test]
    fn parallel_limit_stops_early_and_is_exact() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        for threads in [2, 4] {
            let config = TurboHomConfig {
                max_solutions: Some(5),
                ..TurboHomConfig::default().with_threads(threads)
            };
            let result = execute(&ds, &data, TRIANGLE, config);
            assert_eq!(result.len(), 5, "threads = {threads}");
            assert_eq!(result.rows.len(), 5);
        }
    }

    #[test]
    fn cheap_filter_is_applied_inline() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let result = execute(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x ?age WHERE {
                 ?x rdf:type ub:Student . ?x ub:age ?age . FILTER (?age >= 22)
               }"#,
            TurboHomConfig::default(),
        );
        // Ages are 20..=23 per department, 6 departments → ages 22 and 23 → 12 students.
        assert_eq!(result.len(), 12);
        assert!(result.stats.filtered_inline > 0);
        assert_eq!(result.stats.filtered_post, 0);
    }

    #[test]
    fn expensive_join_filter_is_applied_post_hoc() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let result = execute(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE {
                 ?a rdf:type ub:Student . ?b rdf:type ub:Student .
                 ?a ub:memberOf ?d . ?b ub:memberOf ?d .
                 ?a ub:age ?agea . ?b ub:age ?ageb .
                 FILTER (?agea > ?ageb)
               }"#,
            TurboHomConfig::default(),
        );
        // Per department: pairs (a, b) with age_a > age_b out of 4 students
        // with distinct ages = C(4,2) = 6; times 6 departments = 36.
        assert_eq!(result.len(), 36);
        assert!(result.stats.filtered_post > 0);
    }

    #[test]
    fn unsatisfiable_query_returns_empty_without_search() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Starship . }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        let result = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
            .execute(&tq)
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.candidate_regions, 0);
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE { ?a ub:memberOf ?d . ?b ub:subOrganizationOf ?u . }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        let err = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
            .execute(&tq)
            .unwrap_err();
        assert_eq!(err, EngineError::DisconnectedQuery);
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn direct_and_type_aware_transformations_agree() {
        let ds = university_dataset();
        let aware = type_aware_transform(&ds);
        let direct = turbohom_transform::direct_transform(&ds);
        let a = execute(&ds, &aware, TRIANGLE, TurboHomConfig::default());
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_query(&q.pattern, &direct, &ds.dictionary).unwrap();
        let d = TurboHomEngine::new(&direct, &ds.dictionary, TurboHomConfig::turbohom())
            .execute(&tq)
            .unwrap();
        assert_eq!(a.len(), d.len());
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn reuse_matching_order_computes_it_once() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let with_reuse = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        assert_eq!(with_reuse.stats.matching_orders_computed, 1);
        let without = execute(
            &ds,
            &data,
            TRIANGLE,
            TurboHomConfig::default().with_optimizations(crate::config::Optimizations::none()),
        );
        assert!(without.stats.matching_orders_computed >= 1);
        assert_eq!(
            without.stats.matching_orders_computed,
            without.stats.nonempty_regions
        );
    }

    #[test]
    fn step_counters_cover_every_order_position_and_agree_across_schedulers() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let seq = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        // One slot per query vertex, for both actuals and estimates.
        assert_eq!(seq.step_rows.len(), 3);
        assert_eq!(seq.step_estimates.len(), 3);
        // Every step bound at least one candidate (the query has solutions),
        // and the final step produced exactly the solution count (no
        // variable-predicate fan-out in this query).
        assert!(seq.step_rows.iter().all(|&r| r > 0));
        assert_eq!(*seq.step_rows.last().unwrap(), 24);
        assert!(seq.step_estimates.iter().all(|&e| e > 0));
        // Parallel execution visits the same regions, so the summed per-step
        // counters are identical regardless of scheduler.
        for scheduler in [Scheduler::Morsel, Scheduler::Chunked] {
            let par = execute(
                &ds,
                &data,
                TRIANGLE,
                TurboHomConfig::default()
                    .with_threads(4)
                    .with_scheduler(scheduler),
            );
            assert_eq!(par.step_rows, seq.step_rows, "{scheduler:?}");
            assert_eq!(par.step_estimates, seq.step_estimates, "{scheduler:?}");
        }
    }

    #[test]
    fn preset_matching_order_skips_order_computation() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        // Cold run: computes the order once (+REUSE) and hands it back.
        let (cold, order) = engine.execute_with_order(&tq, None).unwrap();
        assert_eq!(cold.stats.matching_orders_computed, 1);
        let order = order.expect("cold run must surface the computed order");
        // Warm run: the preset is used, no order is determined at all.
        let (warm, recomputed) = engine.execute_with_order(&tq, Some(&order)).unwrap();
        assert_eq!(warm.stats.matching_orders_computed, 0);
        assert!(recomputed.is_none());
        assert_eq!(warm.len(), cold.len());
        let mut a: Vec<_> = cold.rows.iter().collect();
        let mut b: Vec<_> = warm.rows.iter().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The same holds for the parallel path.
        let par_engine = TurboHomEngine::new(
            &data,
            &ds.dictionary,
            TurboHomConfig::default().with_threads(4),
        );
        let (par, recomputed) = par_engine.execute_with_order(&tq, Some(&order)).unwrap();
        assert_eq!(par.stats.matching_orders_computed, 0);
        assert!(recomputed.is_none());
        assert_eq!(par.len(), cold.len());
    }

    #[test]
    fn detailed_trace_records_stage_and_worker_spans() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();

        // Sequential: the three stage rollups appear under the given parent.
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        let trace = Trace::detailed(11);
        let root = trace.span("execute");
        let root_id = root.id();
        let (result, _) = engine
            .execute_with_order_traced(&tq, None, &trace, root_id)
            .unwrap();
        root.finish();
        let report = trace.finish();
        assert_eq!(result.len(), 24);
        for stage in ["candidate_regions", "matching_order", "enumeration"] {
            let span = report
                .spans
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("missing {stage} span"));
            assert_eq!(span.parent, root_id);
        }
        let regions = report
            .spans
            .iter()
            .find(|s| s.name == "candidate_regions")
            .unwrap();
        assert!(regions
            .counters
            .contains(&("regions", result.stats.candidate_regions as u64)));
        let enumeration = report
            .spans
            .iter()
            .find(|s| s.name == "enumeration")
            .unwrap();
        assert!(enumeration
            .counters
            .contains(&("solutions", result.stats.solutions as u64)));
        // Sequential runs emit no worker spans.
        assert!(report.spans.iter().all(|s| s.name != "worker"));

        // Parallel: one worker span per thread, parented under enumeration.
        for scheduler in [Scheduler::Morsel, Scheduler::Chunked] {
            let engine = TurboHomEngine::new(
                &data,
                &ds.dictionary,
                TurboHomConfig::default()
                    .with_threads(3)
                    .with_scheduler(scheduler),
            );
            let trace = Trace::detailed(12);
            let (result, _) = engine
                .execute_with_order_traced(&tq, None, &trace, None)
                .unwrap();
            assert_eq!(result.len(), 24, "{scheduler:?}");
            let report = trace.finish();
            let enum_id = report
                .spans
                .iter()
                .find(|s| s.name == "enumeration")
                .map(|s| s.id);
            let workers: Vec<_> = report.spans.iter().filter(|s| s.name == "worker").collect();
            assert_eq!(workers.len(), 3, "{scheduler:?}");
            assert!(workers.iter().all(|s| s.parent == enum_id));
            let worker_solutions: u64 = workers
                .iter()
                .map(|s| {
                    s.counters
                        .iter()
                        .find(|(n, _)| *n == "solutions")
                        .map_or(0, |(_, v)| *v)
                })
                .sum();
            assert_eq!(worker_solutions, 24, "{scheduler:?}");
        }

        // An untraced (or coarse) run records nothing from the core.
        let trace = Trace::new(13);
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        let (_, _) = engine
            .execute_with_order_traced(&tq, None, &trace, None)
            .unwrap();
        assert!(trace.finish().spans.is_empty());
    }

    #[test]
    fn bound_entity_query_explores_single_region() {
        let ds = university_dataset();
        let data = type_aware_transform(&ds);
        let result = execute(
            &ds,
            &data,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d WHERE { <http://ub.org/student0_0_0> ub:memberOf ?d . }"#,
            TurboHomConfig::default(),
        );
        assert_eq!(result.len(), 1);
        assert_eq!(result.stats.candidate_regions, 1);
    }

    #[test]
    fn simple_entailment_restricts_matches() {
        let ds = {
            let mut ds = Dataset::new();
            ds.insert_iris(&ub("g1"), vocab::RDF_TYPE, &ub("GraduateStudent"));
            ds.insert_iris(
                &ub("GraduateStudent"),
                vocab::RDFS_SUBCLASSOF,
                &ub("Student"),
            );
            ds.insert_iris(&ub("u1"), vocab::RDF_TYPE, &ub("Student"));
            ds.insert_iris(&ub("g1"), &ub("knows"), &ub("u1"));
            ds.insert_iris(&ub("u1"), &ub("knows"), &ub("g1"));
            ds
        };
        let data = type_aware_transform(&ds);
        let query = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT ?x WHERE { ?x rdf:type ub:Student . ?x ub:knows ?y . }"#;
        let full = execute(&ds, &data, query, TurboHomConfig::default());
        assert_eq!(full.len(), 2);
        let simple = execute(
            &ds,
            &data,
            query,
            TurboHomConfig {
                simple_entailment: true,
                ..TurboHomConfig::default()
            },
        );
        assert_eq!(simple.len(), 1);
    }
}
