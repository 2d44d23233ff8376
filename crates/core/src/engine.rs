//! The top-level engine: orchestrates start-vertex selection, candidate
//! region exploration, matching-order determination, subgraph search, the
//! inline FILTERs and (optionally) parallel execution over starting
//! vertices (paper Algorithm 1 + Sections 4.3, 5.1, 5.2). The FILTERs that
//! wait for complete solutions are the caller's to apply ([`split_filters`]).

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
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use turbohom_graph::VertexId;
use turbohom_rdf::{Dictionary, IdRows};
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
/// spans at the end of the run.
#[derive(Debug, Clone, Copy)]
struct StageClock {
    /// When the previous lap ended. `None` unless the trace is detailed: the
    /// clock is then never read.
    last: Option<Instant>,
    select: Duration,
    explore: Duration,
    order: Duration,
    search: Duration,
}

impl StageClock {
    fn start(detailed: bool) -> Self {
        StageClock {
            last: detailed.then(Instant::now),
            select: Duration::ZERO,
            explore: Duration::ZERO,
            order: Duration::ZERO,
            search: Duration::ZERO,
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
/// the start vertices in the order they are handed out, the run's input
/// (the LIMIT the search stops at, the worker count) and the run-wide
/// solution counter that makes it stop all workers.
struct RegionRun<'r> {
    data: &'r TransformedGraph,
    config: &'r TurboHomConfig,
    input: &'r RunInput<'r>,
    query: &'r TransformedQuery,
    /// Grows the regions, along the query tree, under the inline FILTERs.
    explorer: &'r RegionExplorer<'r>,
    layout: &'r RowLayout,
    starts: &'r [VertexId],
    /// The +REUSE order when it is known before the first region runs: the
    /// plan cache's preset, or the one the prologue determined on a sample
    /// of regions, or probed for a pool.
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
        let threads = self.input.threads.get().min(self.starts.len());
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
            SubgraphSearcher::new(run.data, run.config, run.input.limit, run.query, run.layout);
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
    /// (without exploring) once the run has found as many solutions as its
    /// LIMIT.
    fn run(&mut self, index: usize) -> bool {
        let run = self.shared;
        let limit = run.input.limit;
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
                let determined = MatchingOrder::determine(run.query, tree, self.region.counts());
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
/// `matching_order` and `enumeration` rollups under `parent`, plus one
/// `worker` span per pool worker (child of `enumeration`, as long as the
/// worker's regions took) carrying its share of the counters.
///
/// `enumeration` is written last and lasts until then: it takes in what
/// follows the last region — merging the workers, LIMIT, freeing what the
/// run was set up with, writing its siblings — so that they all add up to
/// the matcher's whole time.
fn record_stage_spans(
    trace: &Trace,
    parent: Option<SpanId>,
    mut clock: StageClock,
    selection: &StartSelection<'_>,
    stats: &MatchStats,
    pool: &[WorkerShare],
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
/// [`TurboHomEngine::answer_from_starts`]): one vertex, no edge, no inline
/// FILTER.
fn answered_from_starts(query: &TransformedQuery, input: &RunInput<'_>) -> bool {
    let unfiltered = input.inline.is_empty();
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

/// A branch's FILTERs for one run of its query graph `query`, each bound to
/// the run's `outer` terms (variables bound outside the query graph, with
/// their numeric views; see [`Expression::bind`]) and split by where it is
/// evaluated (Section 5.1): `(inline, post)`. The inline ones go to the run
/// ([`RunInput::inline`]); the rest wait for complete solutions, which the
/// caller filters after the run, so its search must neither stop at a LIMIT
/// nor count without rows.
pub fn split_filters<'f>(
    query: &TransformedQuery,
    filters: &'f [Expression],
    outer: &[(&str, Binding<'_>)],
) -> (Vec<Cow<'f, Expression>>, Vec<Cow<'f, Expression>>) {
    // Parsed FILTERs come folded: only outer bindings add to that.
    let bound = filters.iter().map(|filter| match outer {
        [] => Cow::Borrowed(filter),
        outer => Cow::Owned(filter.bind(outer)),
    });
    bound.partition(|filter| inline_vertex(query, filter).is_some())
}

/// What one run of a query graph varies by: the FILTERs it tests while it
/// matches, the LIMIT its answer is cut at and the workers it runs on.
#[derive(Debug, Clone)]
pub struct RunInput<'f> {
    /// FILTERs that each read one required query vertex's variable (the
    /// first half of [`split_filters`]): a candidate of that vertex must
    /// pass them to start or enter a region.
    pub inline: Vec<Cow<'f, Expression>>,
    /// The most solutions the run answers with; its search stops there.
    pub limit: Option<usize>,
    /// Worker threads (Section 5.2); one runs on the calling thread.
    pub threads: NonZeroUsize,
}

impl RunInput<'_> {
    /// No FILTER and no LIMIT, on `threads` workers.
    pub fn on(threads: NonZeroUsize) -> Self {
        RunInput {
            inline: Vec::new(),
            limit: None,
            threads,
        }
    }
}

/// One run's inline FILTERs by the query vertex they are tested at (Section
/// 5.1), where the start vertices are chosen and the regions admit its
/// candidates.
pub struct FilterSplit<'f> {
    dictionary: &'f Dictionary,
    query: &'f TransformedQuery,
    /// Per query vertex, the FILTERs a candidate of it must pass.
    pub(crate) inline: Vec<Vec<&'f Expression>>,
}

impl<'f> FilterSplit<'f> {
    /// Places the `inline` FILTERs of a run of `query`, whose data terms the
    /// `dictionary` gives, at their query vertices.
    pub(crate) fn new(
        dictionary: &'f Dictionary,
        query: &'f TransformedQuery,
        inline: &'f [Cow<'f, Expression>],
    ) -> Self {
        let mut split = FilterSplit {
            dictionary,
            query,
            inline: vec![Vec::new(); query.graph.vertex_count()],
        };
        for filter in inline {
            let u = inline_vertex(query, filter).expect("an inline FILTER reads a required vertex");
            split.inline[u].push(filter);
        }
        split
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
/// [`TurboHomEngine::explain`] reports it and a run starts from it: the
/// guards' verdict, and where an admitted run starts. `Ok(None)` — the
/// answer is empty without a look at the data; `Err` — refused.
pub type Prologue<'a> = Result<Option<Start<'a>>, EngineError>;

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
    /// The +REUSE order the prologue determined, with the regions it read,
    /// where one was asked for and a non-empty region was found (see
    /// [`OrderSample`]).
    pub sample: Option<OrderSample>,
}

/// +REUSE samples one start vertex in this many...
const STARTS_PER_SAMPLE: usize = 16;
/// ...and at most this many of them.
const MAX_SAMPLE: usize = 16;

/// The regions the +REUSE order (Section 4.3) is determined on, and that
/// order. With `n` start vertices and `k = min(16, n / 16)` of at least
/// two, the regions are those of the start vertices at positions
/// `i * n / k` that are non-empty, and the order is determined on each
/// query vertex's candidate count summed over them; their exploration is at
/// most 1/16 of a run's. Otherwise (an anchored lookup, a short list), or
/// when every sampled region is empty, it is the first non-empty region in
/// start order. A search capped at a LIMIT takes that one too: it explores
/// the list from its start and may stop in its first regions, which the
/// first one describes, and the rows it stops at stay those it stopped at
/// before the sample.
pub struct OrderSample {
    /// The start vertices of the regions read, in start order.
    pub starts: Vec<VertexId>,
    /// Per query vertex, its candidate count summed over those regions.
    pub counts: Vec<usize>,
    /// The matching order determined on `counts`.
    pub order: MatchingOrder,
}

impl OrderSample {
    /// Explores the sampled regions of `starts` (none unless `sampled`)
    /// and, if every one is empty and `fallback` asks for it, the first
    /// non-empty region; `None` when it found no non-empty region.
    /// The exploration is not counted: whoever runs a region explores, and
    /// counts, it again.
    fn take(
        query: &TransformedQuery,
        explorer: &RegionExplorer<'_>,
        starts: &[VertexId],
        sampled: bool,
        fallback: bool,
    ) -> Option<OrderSample> {
        let (mut region, mut uncounted) = (CandidateRegion::default(), MatchStats::default());
        let (mut read, mut counts) = (Vec::new(), vec![0; query.graph.vertex_count()]);
        // One region or none is no sample: the first non-empty one serves.
        let n = starts.len();
        let k = (n / STARTS_PER_SAMPLE).min(MAX_SAMPLE);
        let k = if sampled && k > 1 { k } else { 0 };
        for vs in (0..k).map(|i| starts[i * n / k]) {
            if explorer.explore(&mut region, vs, &mut uncounted) {
                read.push(vs);
                for (sum, count) in counts.iter_mut().zip(region.counts()) {
                    *sum += count;
                }
            }
        }
        if read.is_empty() && fallback {
            let mut live = starts.iter().copied();
            if let Some(vs) = live.find(|&vs| explorer.explore(&mut region, vs, &mut uncounted)) {
                read.push(vs);
                counts.copy_from_slice(region.counts());
            }
        }
        (!read.is_empty()).then(|| OrderSample {
            order: MatchingOrder::determine(query, &explorer.tree, &counts),
            starts: read,
            counts,
        })
    }

    /// `total`, a sum over the regions read, as their mean (rounded).
    pub fn mean(&self, total: usize) -> usize {
        let regions = self.starts.len();
        (total + regions / 2) / regions
    }
}

/// What a run asks its prologue for about the +REUSE order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderProbe {
    /// Nothing: the run has its order (the plan's), or determines one per
    /// region (−REUSE).
    Skip,
    /// The sample's order, where there is a sample; otherwise the run's one
    /// worker meets the first non-empty region itself.
    Sample,
    /// An order before any region runs: the sample's, or the first
    /// non-empty region's.
    Always,
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

    /// Executes one (union-free) transformed query, with no FILTER and no
    /// LIMIT, on one worker.
    pub fn execute(&self, query: &TransformedQuery) -> Result<MatchResult, EngineError> {
        let input = RunInput::on(NonZeroUsize::MIN);
        self.execute_with_order(query, None, input, &Trace::disabled(), None)
            .map(|(result, _)| result)
    }

    /// What a run of `query` with `input` decides before it enumerates
    /// anything, its +REUSE order determined as a cold run determines it:
    /// the plan EXPLAIN reports.
    pub fn explain<'s>(
        &'s self,
        query: &'s TransformedQuery,
        input: &'s RunInput<'s>,
    ) -> Prologue<'s> {
        let (mut stats, mut clock) = (MatchStats::default(), StageClock::start(false));
        self.prologue(query, input, &mut stats, &mut clock, |_| OrderProbe::Always)
    }

    /// Algorithm 1 before its first enumeration, written once for the runs
    /// and for EXPLAIN: `input`'s FILTERs placed at their query vertices,
    /// the guards, the start query vertex with its data vertices (those
    /// that pass its inline FILTERs, unless the search stops at a LIMIT),
    /// the explorer over the query tree rooted there (unless no region is
    /// going to be grown) and, as `probe` asks once the start vertices are
    /// known, the +REUSE order (Section 4.3) with the regions it was
    /// determined on ([`OrderSample`]).
    fn prologue<'s>(
        &'s self,
        query: &'s TransformedQuery,
        input: &'s RunInput<'s>,
        stats: &mut MatchStats,
        clock: &mut StageClock,
        probe: impl FnOnce(&StartSelection<'_>) -> OrderProbe,
    ) -> Prologue<'s> {
        let mut split = FilterSplit::new(self.dictionary, query, &input.inline);
        let verdict = admit(query);
        if verdict != Ok(true) {
            return verdict.map(|_| None);
        }
        // A capped search stops early: a FILTER pass over whole start lists
        // costs it more than it saves. At BSBM(200), one thread, minimum of
        // 15 runs: Q6 `LIMIT 10` took 0.17-1.31 ms choosing unfiltered and
        // 1.8-3.0 ms choosing filtered, `regex(?label, "number") LIMIT 10`
        // 0.006 ms against 1.8-2.1 ms.
        let counted = input.limit.is_none().then_some(&split);
        let selection = choose_start_vertex(self.data, &self.config, query, counted, stats);
        if selection.filtered {
            split.inline[selection.query_vertex].clear();
        }
        let starts = &selection.start_vertices;
        let probe = if starts.is_empty() {
            OrderProbe::Skip
        } else {
            probe(&selection)
        };
        let probing = probe != OrderProbe::Skip;
        let grows = !starts.is_empty() && !answered_from_starts(query, input);
        let explorer = (probing || grows).then(|| {
            let tree = QueryTree::build(&query.graph, selection.query_vertex);
            debug_assert!(tree.spans(&query.graph));
            RegionExplorer::new(self.data, &self.config, query, tree, split)
        });
        clock.lap(|c| &mut c.select);
        let mut sample = None;
        if let Some(explorer) = explorer.as_ref().filter(|_| probing) {
            let (sampled, fallback) = (input.limit.is_none(), probe == OrderProbe::Always);
            sample = OrderSample::take(query, explorer, starts, sampled, fallback);
            clock.lap(|c| &mut c.order);
        }
        Ok(Some(Start {
            selection,
            explorer,
            sample,
        }))
    }

    /// Executes like [`execute`](Self::execute), but additionally accepts a
    /// matching order computed by a previous run of the *same* query on the
    /// *same* data graph (the plan-cache warm path), and returns the order
    /// this run computed so the caller can cache it.
    ///
    /// Without a preset, a `+REUSE` run computes one order: on a sample of
    /// candidate regions spread over the start list where it is long enough,
    /// else on the first non-empty region in start order (see
    /// [`OrderSample`]); one worker and a pool follow the same order, so
    /// `MatchStats::matching_orders_computed` reads 1 at any thread count.
    ///
    /// The preset only takes effect under `+REUSE` (without it the order is
    /// per-region by design). When a preset is supplied, no order is computed
    /// at all — `MatchStats::matching_orders_computed` stays `0` — and the
    /// returned order is `None` (the caller already holds it).
    ///
    /// The run tests `input`'s inline FILTERs, answers with at most its
    /// LIMIT of solutions and runs on its workers (see [`RunInput`]).
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
        // +REUSE takes the order of a sample of regions, or else of the first
        // non-empty region in start order (see `OrderSample`). A worker
        // walking the starts in that order meets that region itself; a pool's
        // workers do not, and the start-list answer explores no region, so
        // for them the prologue probes it.
        let probe = |selection: &StartSelection<'_>| {
            let pool = input.threads.get().min(selection.start_vertices.len()) > 1;
            match (reuse && preset_order.is_none(), pool || from_starts) {
                (false, _) => OrderProbe::Skip,
                (true, false) => OrderProbe::Sample,
                (true, true) => OrderProbe::Always,
            }
        };
        let prologue = self.prologue(query, &input, &mut stats, &mut clock, probe);
        let Some(mut start) = prologue? else {
            return Ok((MatchResult::default(), None));
        };
        let probed = start.sample.take().map(|sample| sample.order);
        stats.matching_orders_computed += usize::from(probed.is_some());
        let starts = &start.selection.start_vertices;
        let (mut result, own_order, workers) = if starts.is_empty() {
            let result = MatchResult {
                stats,
                ..MatchResult::default()
            };
            (result, None, Vec::new())
        } else if from_starts {
            let answer = self.answer_from_starts(starts, input.limit, stats);
            (answer, None, Vec::new())
        } else {
            let shared_order = preset_order.or(probed.as_ref());
            self.run_regions(query, &start, &input, shared_order, stats, &mut clock)
        };
        // The LIMIT is cut here: a pool's workers may together overshoot it.
        if let Some(limit) = input.limit {
            result.rows.truncate(limit);
            result.solution_count = result.solution_count.min(limit);
        }
        if self.config.count_only {
            result.rows.clear();
        }
        // Freed before `enumeration` is written, which takes it in.
        start.explorer = None;
        if trace.is_detailed() {
            let selection = &start.selection;
            record_stage_spans(trace, parent, clock, selection, &result.stats, &workers);
        }
        Ok((result, probed.or(own_order)))
    }

    /// Everything after the prologue but the LIMIT's cut: the set-up the
    /// regions share (row layout) and the regions, searched as `input` says.
    fn run_regions(
        &self,
        query: &TransformedQuery,
        start: &Start<'_>,
        input: &RunInput<'_>,
        shared_order: Option<&MatchingOrder>,
        stats: MatchStats,
        clock: &mut StageClock,
    ) -> (MatchResult, Option<MatchingOrder>, Vec<WorkerShare>) {
        let explorer = (start.explorer.as_ref())
            .expect("the prologue explores a query with an edge or a FILTER");
        let layout = RowLayout::of(&query.graph);

        clock.lap(|c| &mut c.select);
        let run = RegionRun {
            data: self.data,
            config: &self.config,
            input,
            query,
            explorer,
            layout: &layout,
            starts: &start.selection.start_vertices,
            shared_order,
            handoff: StageClock::resume(clock.last),
            found: AtomicUsize::new(0),
        };
        run.execute(stats, clock)
    }

    /// The answer to a query of one vertex and no edge that no inline FILTER
    /// applies to — a type scan after the type-aware transformation: the
    /// start vertices are the data vertices that carry its ID, labels and
    /// filter demands, a region would hold its start vertex alone, and the
    /// search would report it. So the list is appended (cut at `limit`, not
    /// at all when the run only counts) and every counter reads what
    /// Algorithm 1's loop would have left one region at a time; no pool is
    /// set up and nothing is ranked by degree. With +REUSE and no preset the
    /// prologue has determined the order once ([`OrderSample`]), for the
    /// plan to memoize.
    fn answer_from_starts(
        &self,
        starts: &[VertexId],
        limit: Option<usize>,
        mut stats: MatchStats,
    ) -> MatchResult {
        let n = limit.map_or(starts.len(), |limit| starts.len().min(limit));
        if !self.config.optimizations.reuse_matching_order {
            stats.matching_orders_computed += n;
        }
        let kept = if self.config.count_only { 0 } else { n };
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
        ds.dedup();
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

    /// A run's input with no FILTER and no LIMIT, on `threads` workers.
    fn on(threads: usize) -> RunInput<'static> {
        RunInput::on(NonZeroUsize::new(threads).unwrap())
    }

    fn execute(
        ds: &Dataset,
        data: &TransformedGraph,
        sparql: &str,
        config: TurboHomConfig,
    ) -> MatchResult {
        execute_on(ds, data, sparql, config, 1)
    }

    fn execute_on(
        ds: &Dataset,
        data: &TransformedGraph,
        sparql: &str,
        config: TurboHomConfig,
        threads: usize,
    ) -> MatchResult {
        let q = parse_query(sparql).unwrap();
        let branch = transform_branch(&q.pattern, data, &ds.dictionary).unwrap();
        let tq = &branch.components[0];
        let (inline, post) = split_filters(tq, &branch.filters, &[]);
        assert!(post.is_empty(), "a run applies its inline FILTERs alone");
        let input = RunInput {
            inline,
            ..on(threads)
        };
        TurboHomEngine::new(data, &ds.dictionary, config)
            .execute_with_order(tq, None, input, &Trace::disabled(), None)
            .unwrap()
            .0
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
        ds.dedup();
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
        let run = |config: TurboHomConfig,
                   threads: usize,
                   preset: Option<&MatchingOrder>,
                   limit: Option<usize>| {
            let input = RunInput {
                limit,
                ..on(threads)
            };
            TurboHomEngine::new(&data, &ds.dictionary, config)
                .execute_with_order(&tq, preset, input, &Trace::disabled(), None)
                .unwrap()
        };
        let (cold, cached_order) = run(TurboHomConfig::default(), 1, None, None);
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
                let (seq, seq_order) = run(config, 1, preset, None);
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
                    let (par, par_order) = run(config, threads, preset, None);
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
                    let (limited, _) = run(config, threads, preset, Some(5));
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
        let run = |tq: &TransformedQuery, threads: usize, limit: Option<usize>| {
            let input = RunInput {
                limit,
                ..on(threads)
            };
            TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
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
            let input = on(1);
            let prologue = engine.explain(&tq, &input);
            let start = prologue.unwrap().expect("the query is admitted");
            let sample = start.sample.as_ref().expect("a non-empty region");
            // Too few start vertices for a sample: the first live region.
            let starts = &start.selection.start_vertices;
            assert!(starts.len() < 2 * STARTS_PER_SAMPLE);
            let (order, &[first]) = (&sample.order, &sample.starts[..]) else {
                panic!("one region read: {:?}", sample.starts);
            };
            assert_eq!(starts.iter().position(|&v| v == first), Some(dead));
            for threads in [1, 2, 4] {
                let (_, cold) = run(&tq, threads, None);
                let case = format!("{sparql} at {threads} threads");
                assert_eq!(cold.map(|o| o.order), Some(order.order.clone()), "{case}");
            }
            // One thread that stops at the first solution explores the dead
            // regions, then the probed one, and nothing after it.
            let (hit, _) = run(&tq, 1, Some(1));
            let regions = (hit.stats.candidate_regions, hit.stats.nonempty_regions);
            assert_eq!(regions, (dead + 1, 1), "{sparql}");
            let row = hit.rows.iter().next().expect("one solution");
            assert_eq!(row[start.selection.query_vertex], first.0);
        }
    }

    #[test]
    fn morsel_scheduler_counts_morsels() {
        let ds = university_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let par = execute_on(&ds, &data, TRIANGLE, TurboHomConfig::default(), 4);
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
            .execute_with_order(&tq, None, on(1), &Trace::disabled(), None)
            .unwrap();
        assert_eq!(cold.stats.matching_orders_computed, 1);
        let order = order.expect("cold run must surface the computed order");
        // Warm run: the preset is used, no order is determined at all.
        let (warm, recomputed) = engine
            .execute_with_order(&tq, Some(&order), on(1), &Trace::disabled(), None)
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
        let (par, recomputed) = engine
            .execute_with_order(&tq, Some(&order), on(4), &Trace::disabled(), None)
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
            .execute_with_order(&tq, None, on(1), &trace, root_id)
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
        let trace = Trace::detailed(12);
        let (result, _) = engine
            .execute_with_order(&tq, None, on(3), &trace, None)
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
            .execute_with_order(&tq, None, on(1), &trace, None)
            .unwrap();
        assert!(trace.finish().spans.is_empty());
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
        let trace = Trace::detailed(14);
        let (result, order) = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
            .execute_with_order(&tq, None, on(4), &trace, None)
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

    /// 64 hubs, each with its `x` and `y` leaves. The hub of the lowest id
    /// has 4 `x` and 1 `y`; every other one 1 `x` and 3 `y`. The region of
    /// the lowest id, alone, orders `?y` before `?x`; every other region
    /// orders `?x` first, which is the cheaper order for 63 of the 64.
    #[test]
    fn the_reused_order_is_the_one_most_regions_choose() {
        let mut ds = Dataset::new();
        for h in 0..64 {
            let hub = ub(&format!("hub{h:02}"));
            ds.insert_iris(&hub, vocab::RDF_TYPE, &ub("Hub"));
            let (xs, ys) = if h == 0 { (4, 1) } else { (1, 3) };
            for (class, leaves) in [("X", xs), ("Y", ys)] {
                for i in 0..leaves {
                    let leaf = ub(&format!("{class}{h:02}_{i}"));
                    ds.insert_iris(&leaf, vocab::RDF_TYPE, &ub(class));
                    ds.insert_iris(&hub, &ub(&class.to_lowercase()), &leaf);
                }
            }
        }
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?h ?x ?y WHERE {
                 ?h rdf:type ub:Hub . ?x rdf:type ub:X . ?y rdf:type ub:Y .
                 ?h ub:x ?x . ?h ub:y ?y .
               }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        for threads in [1, 2] {
            let (result, order) =
                TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default())
                    .execute_with_order(&tq, None, on(threads), &Trace::disabled(), None)
                    .unwrap();
            let order = order.expect("a cold +REUSE run determines an order");
            let names: Vec<&str> = (order.order.iter())
                .map(|&u| tq.graph.vertex(u).variable.as_deref().unwrap())
                .collect();
            assert_eq!(names, ["h", "x", "y"], "at {threads} thread(s)");
            assert_eq!(result.len(), 4 + 63 * 3);
            assert_eq!(result.stats.matching_orders_computed, 1);
            assert_eq!(
                result.stats.search_recursions, 131,
                "at {threads} thread(s)"
            );
        }
    }

    /// 64 hubs, hub `h` with `1 + h / 16` `x` leaves, two `y` leaves and,
    /// unless `h` is a multiple of 16, three `z` leaves. The sample reads
    /// hubs 0, 16, 32 and 48: over them `?x` (10 leaves) outweighs `?y`
    /// (8), although the first region alone (1 and 2) would order `?x`
    /// first. With `?z` asked for too, every sampled region is empty and the
    /// order is the first non-empty region's, hub 1's; under a LIMIT it is
    /// hub 0's.
    #[test]
    fn the_order_sample_is_spread_over_the_start_list() {
        let mut ds = Dataset::new();
        for h in 0..64 {
            let hub = ub(&format!("hub{h:02}"));
            ds.insert_iris(&hub, vocab::RDF_TYPE, &ub("Hub"));
            let zs = if h % 16 == 0 { 0 } else { 3 };
            for (class, leaves) in [("X", 1 + h / 16), ("Y", 2), ("Z", zs)] {
                for i in 0..leaves {
                    let leaf = ub(&format!("{class}{h:02}_{i}"));
                    ds.insert_iris(&leaf, vocab::RDF_TYPE, &ub(class));
                    ds.insert_iris(&hub, &ub(&class.to_lowercase()), &leaf);
                }
            }
        }
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let star = |leaves: &str| {
            let patterns: String = (leaves.chars())
                .map(|l| format!("?{l} rdf:type ub:{} . ?h ub:{l} ?{l} . ", l.to_uppercase()))
                .collect();
            let q = parse_query(&format!(
                "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                 PREFIX ub: <http://ub.org/>
                 SELECT * WHERE {{ ?h rdf:type ub:Hub . {patterns} }}"
            ))
            .unwrap();
            let components = transform_branch(&q.pattern, &data, &ds.dictionary).unwrap();
            components.components.into_iter().next().unwrap()
        };
        // The leaves asked for, the LIMIT, the start positions read, the
        // order, and per query vertex in that order its count summed and
        // averaged over the regions read.
        type Case = (
            &'static str,
            Option<usize>,
            &'static [usize],
            &'static str,
            &'static [(usize, usize)],
        );
        let cases: [Case; 3] = [
            (
                "xy",
                None,
                &[0, 16, 32, 48],
                "hyx",
                &[(4, 1), (8, 2), (10, 3)],
            ),
            ("xy", Some(1), &[0], "hxy", &[(1, 1), (1, 1), (2, 2)]),
            ("xyz", None, &[1], "hxyz", &[(1, 1), (1, 1), (2, 2), (3, 3)]),
        ];
        for (leaves, limit, positions, names, counts) in cases {
            let tq = star(leaves);
            let input = RunInput { limit, ..on(1) };
            let case = format!("{leaves}, LIMIT {limit:?}");
            let vertex = |name: char| tq.graph.vertex_of_variable(&name.to_string()).unwrap();
            let order: Vec<usize> = names.chars().map(vertex).collect();
            let engine = TurboHomEngine::new(&data, &ds.dictionary, TurboHomConfig::default());
            let start = engine.explain(&tq, &input).unwrap().unwrap();
            let sample = start.sample.expect("a non-empty region");
            let starts = &start.selection.start_vertices;
            assert_eq!(starts.len(), 64);
            let read: Vec<VertexId> = positions.iter().map(|&i| starts[i]).collect();
            assert_eq!(sample.starts, read, "{case}");
            assert_eq!(sample.order.order, order, "{case}");
            let counted: Vec<(usize, usize)> = (order.iter())
                .map(|&u| (sample.counts[u], sample.mean(sample.counts[u])))
                .collect();
            assert_eq!(counted, counts, "{case}");
            for threads in [1, 2] {
                let input = RunInput {
                    limit,
                    ..on(threads)
                };
                let (_, cold) = engine
                    .execute_with_order(&tq, None, input, &Trace::disabled(), None)
                    .unwrap();
                let cold = cold.unwrap().order;
                assert_eq!(cold, order, "{case} at {threads} thread(s)");
            }
        }
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
