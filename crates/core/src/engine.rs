//! The top-level engine: orchestrates start-vertex selection, candidate
//! region exploration, matching-order determination, subgraph search,
//! FILTER application and (optionally) parallel execution over starting
//! vertices (paper Algorithm 1 + Sections 4.3, 5.1, 5.2).

use crate::candidate_region::{CandidateRegion, RegionExplorer};
use crate::config::TurboHomConfig;
use crate::matching_order::MatchingOrder;
use crate::morsel::{drive, Worker};
use crate::query_tree::QueryTree;
use crate::result::{merge_step_counts, MatchResult, RowLayout};
use crate::start_vertex::{choose_start_vertex, StartSelection};
use crate::stats::MatchStats;
use crate::subgraph_search::SubgraphSearcher;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use turbohom_graph::{ELabel, VertexId};
use turbohom_rdf::{Dictionary, IdRows, UNBOUND};
use turbohom_sparql::{Binding, Expression};
use turbohom_trace::{SpanId, Trace};
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// [`merge_step_counts`] for a `src` that is no longer needed: the first
/// (for a sequential run, the only) worker's counts are taken as they are.
fn absorb_step_counts(dst: &mut Vec<u64>, src: &mut Vec<u64>) {
    if dst.is_empty() {
        std::mem::swap(dst, src);
    } else {
        merge_step_counts(dst, src);
    }
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

/// Per-stage wall-clock accumulators for a detailed trace: a stopwatch
/// whose laps are credited to one stage each. The stages of a thread follow
/// one another with nothing in between, so together they account for all the
/// time from the stopwatch's start to its last lap. Exploration,
/// matching-order determination and enumeration interleave per candidate
/// region, so their times are accumulated here and emitted as rolled-up
/// spans at the end of the run; so are the post-hoc FILTERs'.
#[derive(Debug, Clone, Copy)]
struct StageClock {
    /// When the previous lap ended. `None` unless the trace is detailed: the
    /// clock is then never read.
    last: Option<Instant>,
    select: Duration,
    explore: Duration,
    order: Duration,
    search: Duration,
    filter: Duration,
}

impl StageClock {
    fn start(detailed: bool) -> Self {
        StageClock {
            last: detailed.then(Instant::now),
            select: Duration::ZERO,
            explore: Duration::ZERO,
            order: Duration::ZERO,
            search: Duration::ZERO,
            filter: Duration::ZERO,
        }
    }

    /// A stopwatch with no time on it whose previous lap ended at `last`.
    fn resume(last: Option<Instant>) -> Self {
        StageClock {
            last,
            ..StageClock::start(false)
        }
    }

    /// Credits the time since the previous lap to the stage `slot` picks.
    fn lap(&mut self, slot: impl FnOnce(&mut Self) -> &mut Duration) {
        if let Some(last) = self.last {
            let now = Instant::now();
            *slot(self) += now - last;
            self.last = Some(now);
        }
    }
}

/// What every worker of one run reads: the query, its search structures,
/// the start vertices in the order they are handed out, the search's cap
/// and the run-wide solution counter that makes it stop all workers.
struct RegionRun<'r> {
    data: &'r TransformedGraph,
    config: &'r TurboHomConfig,
    cap: SearchCap,
    query: &'r TransformedQuery,
    /// Grows the regions, along the query tree, under the inline FILTERs.
    explorer: &'r RegionExplorer<'r>,
    layout: &'r RowLayout,
    starts: &'r [VertexId],
    /// The +REUSE order when it is known before the first region runs: the
    /// plan cache's preset, or the one the prologue probed for a pool.
    shared_order: Option<&'r MatchingOrder>,
    /// The stopwatch every worker starts with: no time on it yet, running
    /// since the run's own last lap.
    handoff: StageClock,
    found: AtomicUsize,
}

/// What one worker of a pool contributed, for its `worker` span.
struct WorkerShare {
    took: Duration,
    stats: MatchStats,
    solutions: usize,
}

impl RegionRun<'_> {
    /// Algorithm 1's outer loop, for any thread count. One thread (or one
    /// start vertex) walks `starts` in the given order on the calling
    /// thread. A pool deals the start vertices heaviest-first in small
    /// chunks from one cursor (see [`drive`]), following the shared order
    /// under +REUSE.
    /// `stats` carries the counters of the prologue into the result; `clock`
    /// is the run's stopwatch, which the workers take over and hand back.
    /// Also returns the order the first worker determined, and the shares of
    /// a pool's workers if the trace is detailed.
    fn execute(
        self,
        stats: MatchStats,
        clock: &mut StageClock,
    ) -> (MatchResult, Option<MatchingOrder>, Vec<WorkerShare>) {
        let threads = self.config.threads.min(self.starts.len());
        let mut ranked = None;
        if threads > 1 {
            // Heavy regions first: a candidate region can only be as large as
            // the adjacency of its start vertex, so total degree is a cheap,
            // effective size rank. Claimed early, the giant regions overlap
            // with the long tail of small ones instead of serializing at the
            // end.
            let mut by_degree = self.starts.to_vec();
            by_degree.sort_by_key(|&v| std::cmp::Reverse(self.data.graph.total_degree(v)));
            ranked = Some(by_degree);
            clock.lap(|c| &mut c.order);
        }
        let run = RegionRun {
            starts: ranked.as_deref().unwrap_or(self.starts),
            handoff: StageClock::resume(clock.last),
            ..self
        };

        let pool = drive(run.starts.len(), threads, || RegionWorker::new(&run));
        let mut result = MatchResult {
            rows: IdRows::new(run.layout.stride()),
            stats,
            ..MatchResult::default()
        };
        let mut shares = Vec::new();
        let mut own_order = None;
        for mut worker in pool {
            let found = &mut worker.searcher;
            result.rows.append(&mut found.rows);
            result.solution_count += found.solution_count;
            result.stats.merge(&found.stats);
            absorb_step_counts(&mut result.step_rows, &mut found.step_rows);
            absorb_step_counts(&mut result.step_estimates, &mut worker.step_estimates);
            // The stopwatch goes on from where the last worker stopped.
            clock.last = clock.last.max(worker.clock.last);
            clock.explore += worker.clock.explore;
            clock.order += worker.clock.order;
            clock.search += worker.clock.search;
            if clock.last.is_some() && threads > 1 {
                shares.push(WorkerShare {
                    took: worker.clock.explore + worker.clock.order + worker.clock.search,
                    stats: found.stats,
                    solutions: found.solution_count,
                });
            }
            own_order = own_order.or(worker.own_order);
        }
        (result, own_order, shares)
    }
}

/// Algorithm 1's loop body and what it accumulates. One worker runs the
/// whole query when it is sequential; a pool has one per thread, merged when
/// all have retired. Its candidate-region arena and its searcher serve every
/// region it runs.
struct RegionWorker<'r> {
    shared: &'r RegionRun<'r>,
    region: CandidateRegion,
    /// Holds the rows, the solution count, the per-step rows and every
    /// counter of this worker, those of exploration included.
    searcher: SubgraphSearcher<'r>,
    step_estimates: Vec<u64>,
    clock: StageClock,
    /// +REUSE without a shared order: the order of the first non-empty
    /// region this worker met.
    own_order: Option<MatchingOrder>,
}

impl<'r> RegionWorker<'r> {
    fn new(run: &'r RegionRun<'r>) -> Self {
        let mut searcher =
            SubgraphSearcher::new(run.data, run.config, run.cap, run.query, run.layout);
        if let Some(shared) = run.shared_order {
            searcher.set_order(&run.explorer.tree, shared);
        }
        RegionWorker {
            shared: run,
            region: CandidateRegion::default(),
            searcher,
            step_estimates: Vec::new(),
            clock: run.handoff,
            own_order: None,
        }
    }
}

impl Worker for RegionWorker<'_> {
    /// One iteration of Algorithm 1 for the start vertex at `index`: explore
    /// its candidate region, fix or reuse the matching order, search. Stops
    /// (without exploring) once the run has found as many solutions as the
    /// search's cap.
    fn run(&mut self, index: usize) -> bool {
        let run = self.shared;
        let limit = run.cap.solutions;
        if limit.is_some_and(|limit| run.found.load(Ordering::Relaxed) >= limit) {
            return false;
        }
        let vs = run.starts[index];
        self.searcher.stats.candidate_regions += 1;
        let alive = run
            .explorer
            .explore(&mut self.region, vs, &mut self.searcher.stats);
        self.clock.lap(|c| &mut c.explore);
        if !alive {
            return true;
        }
        self.searcher.stats.nonempty_regions += 1;

        // The searcher follows the shared order from the start; any other
        // order it is told about here, when it is determined.
        let reuse = run.config.optimizations.reuse_matching_order;
        let this_region_only;
        let order = match (run.shared_order, &self.own_order) {
            (Some(shared), _) => shared,
            (None, Some(own)) if reuse => own,
            (None, _) => {
                self.searcher.stats.matching_orders_computed += 1;
                let tree = &run.explorer.tree;
                let determined = MatchingOrder::determine(run.query, tree, &self.region);
                self.searcher.set_order(tree, &determined);
                if reuse {
                    self.own_order.insert(determined)
                } else {
                    this_region_only = determined;
                    &this_region_only
                }
            }
        };
        accumulate_estimates(&mut self.step_estimates, order, &self.region);
        self.clock.lap(|c| &mut c.order);
        let found_before = self.searcher.solution_count;
        self.searcher.search_region(&self.region, vs);
        if limit.is_some() {
            let found_here = self.searcher.solution_count - found_before;
            run.found.fetch_add(found_here, Ordering::Relaxed);
        }
        self.clock.lap(|c| &mut c.search);
        true
    }

    fn claimed(&mut self) {
        self.searcher.stats.morsels += 1;
    }
}

/// Emits the detailed stage spans: `start_vertex`, `candidate_regions`,
/// `matching_order`, `post_filters` (only when the query has post-hoc
/// FILTERs) and `enumeration` rollups under `parent`, plus one `worker` span
/// per pool worker (child of `enumeration`, as long as the worker's regions
/// took) carrying its share of the counters.
///
/// `enumeration` is written last and lasts until then: it takes in what
/// follows the last region, but for the post-hoc FILTERs — merging the
/// workers, LIMIT, freeing what the run was set up with, writing its
/// siblings — so that they all add up to the matcher's whole time.
fn record_stage_spans(
    trace: &Trace,
    parent: Option<SpanId>,
    mut clock: StageClock,
    selection: &StartSelection<'_>,
    stats: &MatchStats,
    pool: &[WorkerShare],
    post_filters: bool,
) {
    trace.record_rollup(
        "start_vertex",
        parent,
        clock.select,
        &[
            ("ranked", selection.ranked as u64),
            ("candidates", selection.start_vertices.len() as u64),
        ],
    );
    trace.record_rollup(
        "candidate_regions",
        parent,
        clock.explore,
        &[
            ("regions", stats.candidate_regions as u64),
            ("nonempty", stats.nonempty_regions as u64),
            ("signature_pruned", stats.signature_pruned as u64),
        ],
    );
    trace.record_rollup(
        "matching_order",
        parent,
        clock.order,
        &[("orders_computed", stats.matching_orders_computed as u64)],
    );
    if post_filters {
        trace.record_rollup(
            "post_filters",
            parent,
            clock.filter,
            &[("filtered", stats.filtered_post as u64)],
        );
    }
    clock.lap(|c| &mut c.search);
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
    for (w, worker) in pool.iter().enumerate() {
        trace.record_rollup(
            "worker",
            enumeration,
            worker.took,
            &[
                ("worker", w as u64),
                ("morsels", worker.stats.morsels as u64),
                ("regions", worker.stats.candidate_regions as u64),
                ("solutions", worker.solutions as u64),
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

/// The engine's guards, decided before it reads the data: `Ok(true)` — the
/// matcher runs; `Ok(false)` — a query constant does not occur in the data
/// (or the query is empty), so the answer is empty; `Err` — refused.
fn admit(query: &TransformedQuery) -> Result<bool, EngineError> {
    if query.unsatisfiable || query.graph.vertex_count() == 0 {
        Ok(false)
    } else if !query.graph.is_connected() {
        Err(EngineError::DisconnectedQuery)
    } else if query.vertex_clause.iter().all(|c| c.is_some()) {
        Err(EngineError::NoRequiredPart)
    } else {
        Ok(true)
    }
}

/// Whether the engine answers `query` from its start list (see
/// [`TurboHomEngine::answer_from_starts`]): one vertex, no edge, no FILTER.
fn answered_from_starts(query: &TransformedQuery, filters: &RunInput<'_>) -> bool {
    let unfiltered = filters.own.is_empty() && filters.branch.is_empty();
    query.graph.vertex_count() == 1 && query.graph.edge_count() == 0 && unfiltered
}

/// The required query vertex a FILTER is evaluated at while its regions
/// grow: that of its one variable (one bound outside the query graph is
/// bound into the FILTER first); `None` for a FILTER applied to complete
/// solutions afterwards (Section 5.1). Unlike the paper's split, a regular
/// expression is not held back: compiled once, it costs about what a
/// comparison does.
fn inline_vertex(query: &TransformedQuery, filter: &Expression) -> Option<usize> {
    let mut vars = filter.variables();
    vars.sort();
    vars.dedup();
    if vars.len() != 1 {
        return None;
    }
    (query.graph.vertex_of_variable(&vars[0])).filter(|&u| query.vertex_clause[u].is_none())
}

/// What one run of a query graph takes besides the graph: the FILTER
/// expressions it filters its matches by, the terms of the variables bound
/// outside the query graph, which the expressions read as constants, and
/// the LIMIT its answer is cut at. A plan's query graph brings its own
/// FILTERs ([`RunInput::of`]); one matched under a disconnected branch's
/// one-row constant side also brings the branch's, and that row.
#[derive(Debug, Clone, Copy)]
pub struct RunInput<'f> {
    /// The query graph's own FILTERs (its `TransformedQuery::filters`).
    pub own: &'f [Expression],
    /// The FILTERs of the branch the query graph is a component of.
    pub branch: &'f [Expression],
    /// Variables bound outside the query graph, with their terms and those
    /// terms' numeric views.
    pub outer: &'f [(&'f str, Binding<'f>)],
    /// The most solutions the run answers with; whether its search stops
    /// there is the prologue's to decide ([`SearchCap`]).
    pub limit: Option<usize>,
}

impl<'f> RunInput<'f> {
    /// A run of `query` by its own FILTERs alone, without a LIMIT.
    pub fn of(query: &'f TransformedQuery) -> Self {
        RunInput {
            own: &query.filters,
            branch: &[],
            outer: &[],
            limit: None,
        }
    }
}

/// What a run's search does with the solutions it finds, decided once per
/// run by its prologue. A FILTER that waits for complete solutions (Section
/// 5.1) needs all of them, as rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchCap {
    /// How many solutions it stops at: the run's LIMIT, unless a post-hoc
    /// FILTER waits.
    pub solutions: Option<usize>,
    /// Whether it keeps rows: unless the run only counts, and always for a
    /// post-hoc FILTER.
    pub keeps_rows: bool,
}

/// One run's FILTERs split by where they are evaluated (Section 5.1): those
/// of one required query vertex inline, where the start vertices are chosen
/// and the regions admit its candidates, the rest on complete solutions.
/// Each is bound to the run's outer bindings once, here
/// ([`Expression::bind`]).
pub struct FilterSplit<'f> {
    dictionary: &'f Dictionary,
    query: &'f TransformedQuery,
    /// Per query vertex, the FILTERs a candidate of it must pass to start or
    /// enter a region.
    pub(crate) inline: Vec<Vec<Cow<'f, Expression>>>,
    /// The FILTERs applied to complete solutions.
    pub(crate) post: Vec<Cow<'f, Expression>>,
}

impl<'f> FilterSplit<'f> {
    /// Splits `filters` for a run of `query`, whose data terms the
    /// `dictionary` gives.
    pub(crate) fn new(
        dictionary: &'f Dictionary,
        query: &'f TransformedQuery,
        filters: RunInput<'f>,
    ) -> Self {
        let mut split = FilterSplit {
            dictionary,
            query,
            inline: vec![Vec::new(); query.graph.vertex_count()],
            post: Vec::new(),
        };
        for filter in filters.own.iter().chain(filters.branch) {
            // Parsed FILTERs come folded: only outer bindings add to that.
            let bound = match filters.outer {
                [] => Cow::Borrowed(filter),
                outer => Cow::Owned(filter.bind(outer)),
            };
            match inline_vertex(query, &bound) {
                Some(u) => split.inline[u].push(bound),
                None => split.post.push(bound),
            }
        }
        split
    }

    /// The split of a run of `query` by its own FILTERs.
    #[cfg(test)]
    pub(crate) fn of(dictionary: &'f Dictionary, query: &'f TransformedQuery) -> Self {
        FilterSplit::new(dictionary, query, RunInput::of(query))
    }

    /// What the search of a run with this split and `limit` does (see
    /// [`SearchCap`]) under `config`.
    pub(crate) fn search_cap(&self, config: &TurboHomConfig, limit: Option<usize>) -> SearchCap {
        let waits = !self.post.is_empty();
        SearchCap {
            solutions: limit.filter(|_| !waits),
            keeps_rows: waits || !config.count_only,
        }
    }

    /// Whether data vertex `v` passes the inline FILTERs of query vertex
    /// `u`, over the dictionary's view of its term; one that fails is
    /// counted.
    pub(crate) fn passes(&self, u: usize, v: VertexId, stats: &mut MatchStats) -> bool {
        let filters = &self.inline[u];
        if filters.is_empty() {
            return true;
        }
        let Some(var) = &self.query.graph.vertex(u).variable else {
            return true;
        };
        let Some(term) = self.dictionary.term_and_view(v.term()) else {
            return true;
        };
        let bindings = |name: &str| (name == var).then_some(term);
        let pass = filters.iter().all(|f| f.evaluate_bool(&bindings));
        stats.filtered_inline += usize::from(!pass);
        pass
    }
}

/// Algorithm 1 before its first enumeration, as
/// [`TurboHomEngine::explain`] reports it and a run starts from it.
pub struct Prologue<'a> {
    /// What the search does with the run's LIMIT and its solutions, decided
    /// for every run, admitted or not.
    pub cap: SearchCap,
    /// The guards' verdict, and where an admitted run starts: `Ok(None)` —
    /// the answer is empty without a look at the data; `Err` — refused.
    pub start: Result<Option<Start<'a>>, EngineError>,
}

/// Where the search of an admitted run starts.
pub struct Start<'a> {
    /// The start query vertex and the data vertices that start a candidate
    /// region each.
    pub selection: StartSelection<'a>,
    /// What grows the regions, along the query tree rooted at the start
    /// vertex, with the run's FILTERs split for it; `None` when no region is
    /// grown (no start vertex, or a query answered from its start list with
    /// nothing to probe).
    pub explorer: Option<RegionExplorer<'a>>,
    /// The first non-empty candidate region in start order and the matching
    /// order determined on it, where they were asked for and one exists.
    pub first: Option<(CandidateRegion, MatchingOrder)>,
}

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

    /// Executes one (union-free) transformed query by its own FILTERs.
    pub fn execute(&self, query: &TransformedQuery) -> Result<MatchResult, EngineError> {
        let input = RunInput::of(query);
        self.execute_with_order(query, None, input, &Trace::disabled(), None)
            .map(|(result, _)| result)
    }

    /// What a run of `query` with `input` decides before it enumerates
    /// anything, its first non-empty region probed: the plan EXPLAIN
    /// reports.
    pub fn explain<'s>(&'s self, query: &'s TransformedQuery, input: RunInput<'s>) -> Prologue<'s> {
        let (mut stats, mut clock) = (MatchStats::default(), StageClock::start(false));
        self.prologue(query, input, &mut stats, &mut clock, |_| true)
    }

    /// Algorithm 1 before its first enumeration, written once for the runs
    /// and for EXPLAIN: `input`'s FILTERs split and bound for the run, the
    /// search's cap decided from them and its LIMIT, the guards, the start
    /// query vertex with its data vertices (those that pass its inline
    /// FILTERs, unless the search is capped), the explorer over the query
    /// tree rooted there (unless no region is going to be grown) and, when
    /// `probe` asks for it once the start vertices are known, the first
    /// non-empty region in start order, with the matching order determined
    /// on it (+REUSE, Section 4.3). That exploration is not counted: whoever
    /// runs the region explores, and counts, it again.
    fn prologue<'s>(
        &'s self,
        query: &'s TransformedQuery,
        input: RunInput<'s>,
        stats: &mut MatchStats,
        clock: &mut StageClock,
        probe: impl FnOnce(&StartSelection<'_>) -> bool,
    ) -> Prologue<'s> {
        let mut split = FilterSplit::new(self.dictionary, query, input);
        let cap = split.search_cap(&self.config, input.limit);
        let verdict = admit(query);
        if verdict != Ok(true) {
            let start = verdict.map(|_| None);
            return Prologue { cap, start };
        }
        // A capped search stops early: a FILTER pass over whole start lists
        // costs it more than it saves. At BSBM(200), one thread, minimum of
        // 15 runs: Q6 `LIMIT 10` took 0.17-1.31 ms choosing unfiltered and
        // 1.8-3.0 ms choosing filtered, `regex(?label, "number") LIMIT 10`
        // 0.006 ms against 1.8-2.1 ms.
        let counted = cap.solutions.is_none().then_some(&split);
        let selection = choose_start_vertex(self.data, &self.config, query, counted, stats);
        if selection.filtered {
            split.inline[selection.query_vertex].clear();
        }
        let starts = &selection.start_vertices;
        let probing = !starts.is_empty() && probe(&selection);
        let grows = !starts.is_empty() && !answered_from_starts(query, &input);
        let explorer = (probing || grows).then(|| {
            let tree = QueryTree::build(&query.graph, selection.query_vertex);
            debug_assert!(tree.spans(&query.graph));
            RegionExplorer::new(self.data, &self.config, query, tree, split)
        });
        clock.lap(|c| &mut c.select);
        let mut first = None;
        if let Some(explorer) = explorer.as_ref().filter(|_| probing) {
            let (mut region, mut uncounted) = (CandidateRegion::default(), MatchStats::default());
            if starts
                .iter()
                .any(|&vs| explorer.explore(&mut region, vs, &mut uncounted))
            {
                let order = MatchingOrder::determine(query, &explorer.tree, &region);
                first = Some((region, order));
            }
            clock.lap(|c| &mut c.order);
        }
        let start = Start {
            selection,
            explorer,
            first,
        };
        Prologue {
            cap,
            start: Ok(Some(start)),
        }
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
    ///
    /// The run applies `input`'s FILTERs: the query's own, or for a
    /// component matched under a constant side, the branch's as well with
    /// that side's row bound; and answers with at most `input`'s LIMIT of
    /// solutions (see [`RunInput`]).
    ///
    /// Spans go into `trace` (under `parent`). A
    /// [detailed](Trace::is_detailed) trace times start-vertex selection,
    /// candidate-region exploration, matching-order determination and
    /// enumeration separately (the last three interleave per region, so
    /// each is emitted as one rolled-up span), plus one span per pool
    /// worker; a coarse or disabled trace records nothing here.
    pub fn execute_with_order(
        &self,
        query: &TransformedQuery,
        preset_order: Option<&MatchingOrder>,
        input: RunInput<'_>,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> Result<(MatchResult, Option<MatchingOrder>), EngineError> {
        let mut clock = StageClock::start(trace.is_detailed());
        let mut stats = MatchStats::default();
        let reuse = self.config.optimizations.reuse_matching_order;
        let preset_order = preset_order.filter(|_| reuse);
        let from_starts = answered_from_starts(query, &input);
        // +REUSE takes the order of the first non-empty region in start
        // order. A worker walking the starts in that order meets the region
        // itself; a pool's workers do not, and the start-list answer explores
        // no region, so for them the prologue probes it.
        let probe = |selection: &StartSelection<'_>| {
            let pool = self.config.threads.min(selection.start_vertices.len()) > 1;
            reuse && preset_order.is_none() && (pool || from_starts)
        };
        let Prologue { cap, start } = self.prologue(query, input, &mut stats, &mut clock, probe);
        let Some(mut start) = start? else {
            return Ok((MatchResult::default(), None));
        };
        let probed = start.first.take().map(|(_, order)| order);
        stats.matching_orders_computed += usize::from(probed.is_some());
        let starts = &start.selection.start_vertices;
        let (mut result, own_order, workers) = if starts.is_empty() {
            let result = MatchResult {
                stats,
                ..MatchResult::default()
            };
            (result, None, Vec::new())
        } else if from_starts {
            let answer = self.answer_from_starts(starts, cap, stats);
            (answer, None, Vec::new())
        } else {
            let shared_order = preset_order.or(probed.as_ref());
            self.run_regions(query, &start, cap, shared_order, stats, &mut clock)
        };
        // The LIMIT is cut here: a pool's workers may together overshoot the
        // cap, and post-hoc FILTERs lift it from the search.
        if let Some(limit) = input.limit {
            result.rows.truncate(limit);
            result.solution_count = result.solution_count.min(limit);
        }
        if self.config.count_only {
            result.rows.clear();
        }
        // Freed before `enumeration` is written, which takes it in.
        let explorer = start.explorer.take();
        let post_filters = explorer.is_some_and(|explorer| !explorer.split.post.is_empty());
        if trace.is_detailed() {
            let selection = &start.selection;
            record_stage_spans(
                trace,
                parent,
                clock,
                selection,
                &result.stats,
                &workers,
                post_filters,
            );
        }
        Ok((result, probed.or(own_order)))
    }

    /// Everything after the prologue but the LIMIT: the set-up the regions
    /// share (row layout), the regions, searched under `cap`, and the
    /// post-hoc FILTERs.
    fn run_regions(
        &self,
        query: &TransformedQuery,
        start: &Start<'_>,
        cap: SearchCap,
        shared_order: Option<&MatchingOrder>,
        stats: MatchStats,
        clock: &mut StageClock,
    ) -> (MatchResult, Option<MatchingOrder>, Vec<WorkerShare>) {
        let explorer = (start.explorer.as_ref())
            .expect("the prologue explores a query with an edge or a FILTER");
        let filters = &explorer.split;
        let layout = RowLayout::of(&query.graph);

        clock.lap(|c| &mut c.select);
        let run = RegionRun {
            data: self.data,
            config: &self.config,
            cap,
            query,
            explorer,
            layout: &layout,
            starts: &start.selection.start_vertices,
            shared_order,
            handoff: StageClock::resume(clock.last),
            found: AtomicUsize::new(0),
        };
        let (mut result, own_order, workers) = run.execute(stats, clock);

        if !filters.post.is_empty() {
            clock.lap(|c| &mut c.search);
            self.apply_post_filters(query, &layout, filters, &mut result);
            clock.lap(|c| &mut c.filter);
        }
        (result, own_order, workers)
    }

    /// The answer to a query of one vertex and no edge that no FILTER
    /// applies to — a type scan after the type-aware transformation: the
    /// start vertices are the data vertices that carry its ID, labels and
    /// filter demands, a region would hold its start vertex alone, and the
    /// search would report it. So the list is appended (cut at the search's
    /// cap, not at all unless it keeps rows) and every counter reads what
    /// Algorithm 1's loop would have left one region at a time; no pool is
    /// set up and nothing is ranked by degree. With +REUSE and no preset the
    /// prologue has probed the order once, from the first region, for the
    /// plan to memoize.
    fn answer_from_starts(
        &self,
        starts: &[VertexId],
        cap: SearchCap,
        mut stats: MatchStats,
    ) -> MatchResult {
        let n = cap
            .solutions
            .map_or(starts.len(), |limit| starts.len().min(limit));
        if !self.config.optimizations.reuse_matching_order {
            stats.matching_orders_computed += n;
        }
        let kept = if cap.keeps_rows { n } else { 0 };
        let mut rows = IdRows::with_capacity(1, kept);
        for v in &starts[..kept] {
            rows.push(&[v.0]);
        }
        stats.candidate_regions += n;
        stats.nonempty_regions += n;
        stats.candidate_vertices += n;
        stats.solutions += n;
        MatchResult {
            rows,
            solution_count: n,
            stats,
            step_rows: vec![n as u64],
            step_estimates: vec![n as u64],
        }
    }

    /// Applies the expensive filters to the materialized solutions. Each
    /// variable's term is looked up in its row only when a filter reads it:
    /// a vertex column is its term, a variable-predicate column maps through
    /// its edge label, both read as the dictionary's borrowed view.
    fn apply_post_filters(
        &self,
        query: &TransformedQuery,
        layout: &RowLayout,
        filters: &FilterSplit<'_>,
        result: &mut MatchResult,
    ) {
        let (graph, mappings) = (&query.graph, &self.data.mappings);
        // Per variable, its column and whether that holds an edge label.
        let vertices = (graph.vertices().iter().enumerate())
            .filter_map(|(u, qv)| Some((qv.variable.as_deref()?, layout.vertex_column(u), false)));
        let edges = layout.variable_edges().iter().filter_map(|&e| {
            let variable = graph.edge(e).variable.as_deref()?;
            Some((variable, layout.edge_column(e)?, true))
        });
        let columns: Vec<(&str, usize, bool)> = vertices.chain(edges).collect();
        let before = result.rows.len();
        result.rows.retain(|row| {
            // A variable in two columns reads the last one bound.
            let bindings = |name: &str| {
                let mut candidates = columns.iter().rev().filter(|(v, ..)| *v == name);
                candidates.find_map(|&(_, column, edge)| {
                    let cell = row[column];
                    let id = match (cell, edge) {
                        (UNBOUND, _) => None,
                        (_, false) => Some(VertexId(cell).term()),
                        (_, true) => mappings.term_of_elabel(ELabel(cell)),
                    };
                    id.and_then(|id| self.dictionary.term_and_view(id))
                })
            };
            filters.post.iter().all(|f| f.evaluate_bool(&bindings))
        });
        result.stats.filtered_post += before - result.rows.len();
        result.solution_count = result.rows.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Optimizations;
    use turbohom_rdf::{vocab, Dataset, Term};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_branch, type_aware_transform};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// A small university dataset: 3 universities, each with 2 departments,
    /// each with 4 students who hold an undergraduate degree from the
    /// *same* university their department belongs to (so the triangle query
    /// has 3 × 2 × 4 = 24 solutions).
    fn university_dataset() -> Dataset {
        let mut ds = Dataset::new();
        add_universities(&mut ds);
        ds
    }

    fn add_universities(ds: &mut Dataset) {
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
        let tq = transform_branch(&q.pattern, data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        TurboHomEngine::new(data, &ds.dictionary, config)
            .execute(&tq)
            .unwrap()
    }

    #[test]
    fn triangle_query_counts_solutions() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let result = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        assert_eq!(result.len(), 24);
        assert_eq!(result.rows.len(), 24);
        assert!(result.stats.nonempty_regions > 0);
    }

    #[test]
    fn turbohom_and_turbohom_plus_plus_agree() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let plus = execute(&ds, &data, TRIANGLE, TurboHomConfig::turbohom_plus_plus());
        let plain = execute(&ds, &data, TRIANGLE, TurboHomConfig::turbohom());
        assert_eq!(plus.len(), plain.len());
    }

    /// [`university_dataset`] preceded by entities that start candidate
    /// regions which turn out empty (whichever query vertex is chosen as the
    /// start): a university without departments, a department without
    /// students, a student without a department.
    fn university_dataset_with_empty_regions() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..3 {
            ds.insert_iris(
                &ub(&format!("lone_univ{i}")),
                vocab::RDF_TYPE,
                &ub("University"),
            );
            ds.insert_iris(
                &ub(&format!("lone_dept{i}")),
                vocab::RDF_TYPE,
                &ub("Department"),
            );
            ds.insert_iris(
                &ub(&format!("lone_student{i}")),
                vocab::RDF_TYPE,
                &ub("Student"),
            );
        }
        add_universities(&mut ds);
        ds
    }

    fn sorted_rows(result: &MatchResult) -> Vec<&[u32]> {
        let mut rows: Vec<_> = result.rows.iter().collect();
        rows.sort();
        rows
    }

    /// The counters that must not depend on how regions were handed out.
    fn counters(result: &MatchResult) -> MatchStats {
        MatchStats {
            morsels: 0,
            ..result.stats
        }
    }

    #[test]
    fn every_thread_count_runs_the_same_search() {
        let ds = university_dataset_with_empty_regions();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let run = |config: TurboHomConfig, preset: Option<&MatchingOrder>, limit: Option<usize>| {
            let input = RunInput {
                limit,
                ..RunInput::of(&tq)
            };
            TurboHomEngine::new(&data, &ds.dictionary, config)
                .execute_with_order(&tq, preset, input, &Trace::disabled(), None)
                .unwrap()
        };
        let (cold, cached_order) = run(TurboHomConfig::default(), None, None);
        // Empty regions come before the first hit, so a pool that counted
        // its search for the shared order would report more regions.
        assert!(cold.stats.candidate_regions > cold.stats.nonempty_regions);
        assert_eq!(cold.stats.matching_orders_computed, 1);
        // One slot per query vertex, for both actuals and estimates; every
        // step bound at least one candidate, and the final step produced
        // exactly the solutions (no variable-predicate fan-out here).
        assert_eq!(cold.step_rows.len(), 3);
        assert_eq!(cold.step_estimates.len(), 3);
        assert!(cold.step_rows.iter().all(|&r| r > 0));
        assert!(cold.step_estimates.iter().all(|&e| e > 0));
        assert_eq!(*cold.step_rows.last().unwrap(), 24);

        for optimizations in [Optimizations::all(), Optimizations::none()] {
            for preset in [None, cached_order.as_ref()] {
                let config = TurboHomConfig::default().with_optimizations(optimizations);
                let case = format!(
                    "reuse = {}, preset = {}",
                    optimizations.reuse_matching_order,
                    preset.is_some()
                );
                let (seq, seq_order) = run(config, preset, None);
                assert_eq!(seq.len(), 24, "{case}");
                assert_eq!(
                    seq.stats.morsels, 0,
                    "{case}: an inline run claims no morsels"
                );
                let orders = match (optimizations.reuse_matching_order, preset) {
                    (true, Some(_)) => 0,
                    (true, None) => 1,
                    (false, _) => seq.stats.nonempty_regions,
                };
                assert_eq!(seq.stats.matching_orders_computed, orders, "{case}");
                for threads in [1, 2, 4, 8] {
                    let case = format!("{case}, threads = {threads}");
                    let (par, par_order) = run(config.with_threads(threads), preset, None);
                    assert_eq!(sorted_rows(&par), sorted_rows(&seq), "{case}");
                    assert_eq!(par.len(), seq.len(), "{case}");
                    assert_eq!(par.step_rows, seq.step_rows, "{case}");
                    assert_eq!(par.step_estimates, seq.step_estimates, "{case}");
                    assert_eq!(counters(&par), counters(&seq), "{case}");
                    assert_eq!(
                        par_order.map(|o| o.order),
                        seq_order.as_ref().map(|o| o.order.clone()),
                        "{case}"
                    );
                    let (limited, _) = run(config.with_threads(threads), preset, Some(5));
                    assert_eq!(limited.len(), 5, "{case}");
                    assert_eq!(limited.rows.len(), 5, "{case}");
                }
            }
        }
    }

    /// EXPLAIN reads the prologue a run starts from: the order it probes is
    /// the one a cold run determines at any thread count, in the region that
    /// run explores first after the empty ones.
    #[test]
    fn explain_probes_the_region_and_order_a_cold_run_starts_from() {
        let ds = university_dataset_with_empty_regions();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let chain = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
            PREFIX ub: <http://ub.org/>
            SELECT ?x ?d ?a WHERE {
              ?x rdf:type ub:Student . ?x ub:memberOf ?d . ?d rdf:type ub:Department .
              OPTIONAL { ?x ub:age ?a . }
            }"#;
        let scan = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
            PREFIX ub: <http://ub.org/>
            SELECT ?d WHERE { ?d rdf:type ub:Department . }"#;
        let run = |tq: &TransformedQuery, config: TurboHomConfig, limit: Option<usize>| {
            let input = RunInput {
                limit,
                ..RunInput::of(tq)
            };
            TurboHomEngine::new(&data, &ds.dictionary, config)
                .execute_with_order(tq, None, input, &Trace::disabled(), None)
                .unwrap()
        };
        for (sparql, dead) in [(TRIANGLE, 3), (chain, 3), (scan, 0)] {
            let q = parse_query(sparql).unwrap();
            let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
                .unwrap()
                .components
                .remove(0);
            let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
            let prologue = engine.explain(&tq, RunInput::of(&tq));
            let start = prologue.start.unwrap().expect("the query is admitted");
            let (region, order) = start.first.as_ref().expect("a non-empty region");
            let starts = &start.selection.start_vertices;
            assert_eq!(
                starts.iter().position(|&v| v == region.start_vertex),
                Some(dead)
            );
            for threads in [1, 2, 4] {
                let (_, cold) = run(&tq, TurboHomConfig::default().with_threads(threads), None);
                let case = format!("{sparql} at {threads} threads");
                assert_eq!(cold.map(|o| o.order), Some(order.order.clone()), "{case}");
            }
            // One thread that stops at the first solution explores the dead
            // regions, then the probed one, and nothing after it.
            let (hit, _) = run(&tq, TurboHomConfig::default(), Some(1));
            let regions = (hit.stats.candidate_regions, hit.stats.nonempty_regions);
            assert_eq!(regions, (dead + 1, 1), "{sparql}");
            let row = hit.rows.iter().next().expect("one solution");
            assert_eq!(row[start.selection.query_vertex], region.start_vertex.0);
        }
    }

    #[test]
    fn morsel_scheduler_counts_morsels() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let par = execute(
            &ds,
            &data,
            TRIANGLE,
            TurboHomConfig::default().with_threads(4),
        );
        assert!(par.stats.morsels > 0, "a pool must record its morsels");
    }

    #[test]
    fn cheap_filter_is_applied_inline() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
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
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
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
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Starship . }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert_eq!(admit(&tq), Ok(false));
        let result = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
            .execute(&tq)
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.stats.candidate_regions, 0);
    }

    #[test]
    fn disconnected_query_is_rejected() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE { ?a ub:memberOf ?d . OPTIONAL { ?b ub:subOrganizationOf ?u . } }"#,
        )
        .unwrap();
        // An OPTIONAL clause that meets no component goes to the first.
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let err = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
            .execute(&tq)
            .unwrap_err();
        // What EXPLAIN asks and what `execute` obeys is one function.
        assert_eq!(admit(&tq), Err(err.clone()));
        assert_eq!(err, EngineError::DisconnectedQuery);
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn direct_and_type_aware_transformations_agree() {
        let ds = university_dataset();
        let aware = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let direct = turbohom_transform::direct_transform(&aware);
        let a = execute(&ds, &aware, TRIANGLE, TurboHomConfig::default());
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_branch(&q.pattern, &direct, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let d = TurboHomEngine::new(&direct, &ds.dictionary, TurboHomConfig::turbohom())
            .execute(&tq)
            .unwrap();
        assert_eq!(a.len(), d.len());
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn reuse_matching_order_computes_it_once() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let with_reuse = execute(&ds, &data, TRIANGLE, TurboHomConfig::default());
        assert_eq!(with_reuse.stats.matching_orders_computed, 1);
        let without = execute(
            &ds,
            &data,
            TRIANGLE,
            TurboHomConfig::default().with_optimizations(Optimizations::none()),
        );
        assert!(without.stats.matching_orders_computed >= 1);
        assert_eq!(
            without.stats.matching_orders_computed,
            without.stats.nonempty_regions
        );
    }

    #[test]
    fn preset_matching_order_skips_order_computation() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        // Cold run: computes the order once (+REUSE) and hands it back.
        let (cold, order) = engine
            .execute_with_order(&tq, None, RunInput::of(&tq), &Trace::disabled(), None)
            .unwrap();
        assert_eq!(cold.stats.matching_orders_computed, 1);
        let order = order.expect("cold run must surface the computed order");
        // Warm run: the preset is used, no order is determined at all.
        let (warm, recomputed) = engine
            .execute_with_order(
                &tq,
                Some(&order),
                RunInput::of(&tq),
                &Trace::disabled(),
                None,
            )
            .unwrap();
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
        let (par, recomputed) = par_engine
            .execute_with_order(
                &tq,
                Some(&order),
                RunInput::of(&tq),
                &Trace::disabled(),
                None,
            )
            .unwrap();
        assert_eq!(par.stats.matching_orders_computed, 0);
        assert!(recomputed.is_none());
        assert_eq!(par.len(), cold.len());
    }

    #[test]
    fn detailed_trace_records_stage_and_worker_spans() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(TRIANGLE).unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);

        // Sequential: the three stage rollups appear under the given parent.
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        let trace = Trace::detailed(11);
        let root = trace.span("execute");
        let root_id = root.id();
        let (result, _) = engine
            .execute_with_order(&tq, None, RunInput::of(&tq), &trace, root_id)
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
        let engine = TurboHomEngine::new(
            &data,
            &ds.dictionary,
            TurboHomConfig::default().with_threads(3),
        );
        let trace = Trace::detailed(12);
        let (result, _) = engine
            .execute_with_order(&tq, None, RunInput::of(&tq), &trace, None)
            .unwrap();
        assert_eq!(result.len(), 24);
        let report = trace.finish();
        let enum_id = report
            .spans
            .iter()
            .find(|s| s.name == "enumeration")
            .map(|s| s.id);
        let workers: Vec<_> = report.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
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
        assert_eq!(worker_solutions, 24);

        // An untraced (or coarse) run records nothing from the core.
        let trace = Trace::new(13);
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        let (_, _) = engine
            .execute_with_order(&tq, None, RunInput::of(&tq), &trace, None)
            .unwrap();
        assert!(trace.finish().spans.is_empty());
    }

    /// A join condition waits for complete solutions: its time is its own
    /// child of `execute`, between the per-region three and `enumeration`,
    /// and the children still fit in `execute`.
    #[test]
    fn a_detailed_trace_times_the_post_hoc_filters_apart() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE {
                 ?a ub:memberOf ?d . ?b ub:memberOf ?d . ?a ub:age ?agea . ?b ub:age ?ageb .
                 FILTER (?agea > ?ageb)
               }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
        let trace = Trace::detailed(15);
        let root = trace.span("execute");
        let root_id = root.id();
        let (result, _) = engine
            .execute_with_order(&tq, None, RunInput::of(&tq), &trace, root_id)
            .unwrap();
        root.finish();
        assert_eq!(result.len(), 36);
        let spans = trace.finish().spans;
        let children: Vec<_> = spans.iter().filter(|s| s.parent == root_id).collect();
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "start_vertex",
                "candidate_regions",
                "matching_order",
                "post_filters",
                "enumeration"
            ]
        );
        assert_eq!(
            children[3].counters,
            [("filtered", result.stats.filtered_post as u64)]
        );
        assert_eq!(result.stats.filtered_post, 6 * 16 - 36);
        let execute = spans.iter().find(|s| s.name == "execute").unwrap();
        let tiled: u64 = children.iter().map(|s| s.duration_ns).sum();
        assert!(tiled <= execute.duration_ns, "{tiled} of {execute:?}");
    }

    /// One labelled vertex, no edge: the start list is the answer, counted
    /// as the regions it stands for, and a detailed trace still gets its
    /// four stages.
    #[test]
    fn an_edge_free_query_is_answered_from_its_start_list() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Student . ?x rdf:type ub:GraduateStudent . }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert_eq!((tq.graph.vertex_count(), tq.graph.edge_count()), (1, 0));
        let config = TurboHomConfig::default().with_threads(4);
        let trace = Trace::detailed(14);
        let (result, order) = TurboHomEngine::new(&data, &ds.dictionary, config)
            .execute_with_order(&tq, None, RunInput::of(&tq), &trace, None)
            .unwrap();
        assert_eq!(order.map(|o| o.order), Some(vec![0]));
        assert_eq!((result.len(), result.rows.len()), (24, 24));
        let expected = MatchStats {
            candidate_regions: 24,
            nonempty_regions: 24,
            candidate_vertices: 24,
            solutions: 24,
            matching_orders_computed: 1,
            ..MatchStats::default()
        };
        assert_eq!(result.stats, expected);
        assert_eq!(
            (result.step_rows, result.step_estimates),
            (vec![24], vec![24])
        );
        let spans = trace.finish().spans;
        let stages = [
            "start_vertex",
            "candidate_regions",
            "matching_order",
            "enumeration",
        ];
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, stages, "no worker spans: no pool ran");
    }

    #[test]
    fn bound_entity_query_explores_single_region() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
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
}
