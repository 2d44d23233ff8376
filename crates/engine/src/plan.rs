//! Prepared execution plans: the parse + transform half of query execution,
//! split from the run half.
//!
//! [`Store::execute`] does three jobs per call: parse the SPARQL text,
//! transform every union-free branch into a query graph, and enumerate
//! matches. The first two depend only on the (immutable) store and the query
//! text, so a service that answers the same queries over and over can do
//! them once, keep the resulting [`QueryPlan`], and jump straight to
//! enumeration on every later request — this is what the `turbohom-service`
//! plan cache stores under a normalized query fingerprint.
//!
//! A plan additionally memoizes the TurboHOM++ *matching order* (paper
//! Section 4.3, `+REUSE`): the first run computes it from the first
//! non-empty candidate region and parks it in the plan, so warm runs skip
//! order determination as well (`MatchStats::matching_orders_computed == 0`).
//!
//! Plans are `Send + Sync` (asserted at compile time in `lib.rs`) and can be
//! run concurrently from many threads against the store that prepared them.
//!
//! Rows come back in enumeration order — stable for one store at one worker
//! thread, unspecified otherwise — and `ORDER BY` is refused at plan time
//! ([`StoreError::OrderByUnsupported`]): no engine applies it.

use crate::error::StoreError;
use crate::results::{IdResults, QueryResults};
use crate::sharded::{Anchor, Routing};
use crate::store::{EngineKind, Store};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use turbohom_baseline::JoinStrategy;
use turbohom_core::{
    merge_step_counts, MatchResult, MatchingOrder, RowLayout, RunInput, TurboHomConfig,
    TurboHomEngine,
};
use turbohom_graph::ELabel;
use turbohom_rdf::{Dictionary, IdRows, TermId, UNBOUND};
use turbohom_sparql::{Binding, Expression, Query};
use turbohom_trace::{SpanId, Trace};
use turbohom_transform::{transform_branch, TransformedGraph, TransformedQuery};

/// A fully prepared query: parsed, union-expanded, component-split and
/// transformed for one [`EngineKind`] against one [`Store`]. A plan a
/// [`ShardedStore`](crate::ShardedStore) prepared also carries its routing:
/// the anchor, the live shards and the ownership bits its run counts each
/// shard's rows by.
pub struct QueryPlan {
    kind: EngineKind,
    /// The run's columns: the query's projection, then on a routed plan the
    /// anchor variable when the query did not ask for it.
    projected: Vec<String>,
    pub(crate) window: Window,
    pub(crate) mode: PlanMode,
    pub(crate) routing: Option<Routing>,
}

pub(crate) enum PlanMode {
    /// The graph-matching engines (TurboHOM++ / TurboHOM): pre-transformed
    /// branches plus the engine configuration.
    Graph {
        config: TurboHomConfig,
        branches: Vec<BranchPlan>,
    },
    /// The join baselines evaluate the algebra directly; preparing them
    /// means having parsed the query.
    Join {
        query: Query,
        strategy: JoinStrategy,
    },
}

/// One union-free branch of the query.
pub(crate) struct BranchPlan {
    /// The connected components of the branch's query graph, as the
    /// transform splits it (almost always exactly one).
    pub(crate) components: Vec<ComponentPlan>,
    /// Every FILTER of a branch of several components (which carry none):
    /// read by the component matched under the others' constant rows, or
    /// else applied to the cartesian combination.
    filters: Vec<Expression>,
    /// The component matched last with the one row each other component
    /// yields bound (see `Store::run_components`): the only one, or of
    /// several the one without a required constant query vertex. `None`:
    /// the branch is a cartesian product of its components.
    bind_into: Option<usize>,
}

/// One connected component: a transformed query graph ready to match.
pub(crate) struct ComponentPlan {
    pub(crate) transformed: TransformedQuery,
    /// Its vertices' and edges' variables, sorted: its columns in a branch
    /// of several components, which share none. Empty for the only one.
    vars: Vec<String>,
    /// The `+REUSE` matching order memoized by the first run (`Arc` so the
    /// warm path clones a pointer, not the order itself).
    cached_order: Mutex<Option<Arc<MatchingOrder>>>,
}

impl ComponentPlan {
    /// The plan of one component, of `several` or the only one, its
    /// matching order not yet memoized.
    fn new(transformed: TransformedQuery, several: bool) -> Self {
        let mut vars = Vec::new();
        if several {
            vars = transformed.graph.variables();
            vars.sort_unstable();
        }
        ComponentPlan {
            transformed,
            vars,
            cached_order: Mutex::new(None),
        }
    }

    /// Whether a constant is one of the component's required query
    /// vertices: its start list is that constant, and its match a lookup.
    fn anchored(&self) -> bool {
        let query = &self.transformed;
        let mut vertices = query.graph.vertices().iter().zip(&query.vertex_clause);
        vertices.any(|(vertex, clause)| vertex.bound.is_some() && clause.is_none())
    }
}

/// The component a branch binds its constant sides into (see
/// [`BranchPlan::bind_into`]); a branch of one component is a bound branch
/// with nothing to bind.
fn bind_target(components: &[ComponentPlan]) -> Option<usize> {
    let mut unanchored = (components.iter().enumerate()).filter(|(_, c)| !c.anchored());
    match (components, unanchored.next(), unanchored.next()) {
        ([_], ..) => Some(0),
        (_, Some((target, _)), None) => Some(target),
        _ => None,
    }
}

impl QueryPlan {
    /// The engine this plan was prepared for.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The projected variable names, in output order.
    pub fn projected_variables(&self) -> &[String] {
        let width = self
            .routing
            .as_ref()
            .map_or(self.projected.len(), |r| r.width);
        &self.projected[..width]
    }

    /// The `LIMIT` a run may stop at: the query's, unless an `OFFSET` makes
    /// the skipped rows count too, or the plan is routed (its run counts
    /// each shard's rows before it cuts the window).
    pub fn pushed_limit(&self) -> Option<usize> {
        self.window
            .pushed_limit()
            .filter(|_| self.routing.is_none())
    }

    /// The shards a routed plan runs for, in ascending order (none on an
    /// unrouted plan).
    pub fn live_shards(&self) -> &[usize] {
        self.routing.as_ref().map_or(&[], |r| &r.live)
    }

    /// Number of shards a constant anchor routed the query away from.
    pub fn pruned_shards(&self) -> usize {
        self.routing.as_ref().map_or(0, Routing::pruned)
    }

    /// The anchor a routed plan counts its shards' rows by.
    pub fn anchor(&self) -> Option<&Anchor> {
        self.routing.as_ref().map(|r| &r.anchor)
    }

    /// Number of transformed connected components across all branches
    /// (`0` for join-baseline plans).
    pub fn component_count(&self) -> usize {
        match &self.mode {
            PlanMode::Graph { branches, .. } => branches.iter().map(|b| b.components.len()).sum(),
            PlanMode::Join { .. } => 0,
        }
    }

    /// Number of components whose matching order is currently memoized.
    /// `component_count()` of them after the first run, `0` before.
    pub fn cached_order_count(&self) -> usize {
        match &self.mode {
            PlanMode::Graph { branches, .. } => branches
                .iter()
                .flat_map(|b| &b.components)
                .filter(|c| c.cached_order.lock().is_some())
                .count(),
            PlanMode::Join { .. } => 0,
        }
    }
}

/// The query's solution modifiers: skip `offset` rows (0 when absent), then
/// keep at most `limit`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    pub(crate) offset: usize,
    pub(crate) limit: Option<usize>,
}

impl Window {
    /// The `LIMIT` an enumerator may stop at: none under an `OFFSET`, whose
    /// skipped rows must still be enumerated.
    pub(crate) fn pushed_limit(&self) -> Option<usize> {
        self.limit.filter(|_| self.offset == 0)
    }
}

/// How a branch's rows come about, once its constant sides are matched
/// (see `Store::run_components`).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// The rows of the component at this index, matched with the constant
    /// sides' one row each bound.
    Bound(usize),
    /// The cartesian product of every component's rows.
    Product,
    /// A constant side has no row.
    Empty,
}

/// The term in a cell of an id row with its numeric view, as a FILTER reads
/// it; `None` when unbound.
fn binding_of(dictionary: &Dictionary, cell: u32) -> Option<Binding<'_>> {
    IdRows::term_id(cell).and_then(|id| dictionary.term_and_view(id))
}

/// Adds a match's counters, per-step rows and estimates to `results`.
fn absorb_counts(results: &mut IdResults<'_>, result: &MatchResult) {
    results.stats.merge(&result.stats);
    merge_step_counts(&mut results.step_rows, &result.step_rows);
    merge_step_counts(&mut results.step_estimates, &result.step_estimates);
}

/// What a run records as `materialise`, summed over its branches: the time
/// spent turning matches into term-id rows and, within it, the FILTER pass
/// over a cartesian product of components (its time and the rows it
/// removed) when one ran.
#[derive(Debug, Default)]
struct Materialise {
    took: Duration,
    product_filters: Option<(Duration, usize)>,
}

/// The query's window. `ORDER BY` and `DISTINCT` are refused here, for every
/// planner and entry point alike: no engine applies either, rows leave in
/// enumeration order and a solution appears as often as it was found.
pub(crate) fn window_of(query: &Query) -> Result<Window, StoreError> {
    if !query.order_by.is_empty() {
        return Err(StoreError::OrderByUnsupported);
    }
    if query.distinct {
        return Err(StoreError::DistinctUnsupported);
    }
    Ok(Window {
        offset: query.offset.unwrap_or(0),
        limit: query.limit,
    })
}

/// Parses a SPARQL query, recording a `parse` stage span into `trace`.
pub(crate) fn parse_traced(sparql: &str, trace: &Trace) -> Result<Query, StoreError> {
    let _span = trace.span("parse");
    Ok(turbohom_sparql::parse_query(sparql)?)
}

impl Store {
    /// Parses a SPARQL query and builds the full execution plan for `kind`.
    pub fn prepare_plan(&self, sparql: &str, kind: EngineKind) -> Result<QueryPlan, StoreError> {
        self.prepare_plan_traced(sparql, kind, &Trace::disabled())
    }

    /// Like [`prepare_plan`](Self::prepare_plan), recording a `parse` and a
    /// `transform` stage span into `trace`.
    pub fn prepare_plan_traced(
        &self,
        sparql: &str,
        kind: EngineKind,
        trace: &Trace,
    ) -> Result<QueryPlan, StoreError> {
        self.plan_traced(&parse_traced(sparql, trace)?, kind, trace)
    }

    /// [`plan_query`](Self::plan_query), recorded as a `transform` stage
    /// span into `trace`.
    pub(crate) fn plan_traced(
        &self,
        query: &Query,
        kind: EngineKind,
        trace: &Trace,
    ) -> Result<QueryPlan, StoreError> {
        let mut span = trace.span("transform");
        let plan = self.plan_query(query, kind)?;
        span.counter("components", plan.component_count() as u64);
        span.finish();
        Ok(plan)
    }

    /// Builds the execution plan for an already parsed query. Only the
    /// join-baseline plans keep a copy of the algebra; the graph-engine
    /// plans borrow it just long enough to transform the branches. The
    /// first plan that reads the direct graph or the permutation tables
    /// builds them here (see [`Store::take_first_use_builds`]).
    pub fn plan_query(&self, query: &Query, kind: EngineKind) -> Result<QueryPlan, StoreError> {
        let strategy = match kind {
            EngineKind::TurboHomPlusPlus => {
                return self.plan_graph(query, self.default_config(), false)
            }
            EngineKind::TurboHom => {
                return self.plan_graph(query, TurboHomConfig::turbohom(), true)
            }
            EngineKind::MergeJoin => JoinStrategy::SortMerge,
            EngineKind::HashJoin => JoinStrategy::Hash,
        };
        let window = window_of(query)?;
        // Planning builds what the plan will read (the graph plans'
        // `transform_branch` does the same for the direct graph), so that
        // running a plan — cached or not — never does.
        self.permutations();
        Ok(QueryPlan {
            kind,
            projected: query.projected_variables(),
            window,
            mode: PlanMode::Join {
                query: query.clone(),
                strategy,
            },
            routing: None,
        })
    }

    /// The graph-engine plan of `query` with `config`: a TurboHOM plan, every
    /// branch transformed for the direct graph, when `force_direct` is set,
    /// else a TurboHOM++ one over the type-aware graph.
    pub(crate) fn plan_graph(
        &self,
        query: &Query,
        config: TurboHomConfig,
        force_direct: bool,
    ) -> Result<QueryPlan, StoreError> {
        let window = window_of(query)?;
        let kind = match force_direct {
            true => EngineKind::TurboHom,
            false => EngineKind::TurboHomPlusPlus,
        };
        Ok(QueryPlan {
            kind,
            projected: query.projected_variables(),
            window,
            mode: PlanMode::Graph {
                config,
                branches: self.plan_branches(query, self.graph_of(kind))?,
            },
            routing: None,
        })
    }

    /// The transformed graph a graph plan of `kind` matches over: the direct
    /// graph for the `turbohom` ablation, the type-aware one for TurboHOM++.
    pub(crate) fn graph_of(&self, kind: EngineKind) -> &TransformedGraph {
        match kind {
            EngineKind::TurboHom => self.direct_graph(),
            _ => self.type_aware_graph(),
        }
    }

    /// Runs a prepared plan with its built-in configuration and decodes the
    /// result.
    pub fn run_plan(&self, plan: &QueryPlan) -> Result<QueryResults, StoreError> {
        Ok(self
            .run_plan_traced(plan, None, &Trace::disabled())?
            .decode())
    }

    /// The one run of every plan, behind every entry point: runs a prepared
    /// plan, optionally overriding the worker-thread count for this run only
    /// (the join baselines are single-threaded and ignore the override), and
    /// returns the result as term ids (what a server serialises from; see
    /// [`IdResults`]), rows in enumeration order. A routed plan's run counts
    /// each live shard's rows before it cuts the query's window. Records two
    /// stage spans into `trace`: `execute`, the matching (one span per union
    /// branch), and `materialise`, the projection of the matches to term ids,
    /// the shard count and the window cut. With a
    /// [detailed](Trace::is_detailed) trace the matching engine additionally
    /// records `candidate_regions`, `matching_order`, `enumeration` and
    /// per-worker spans as children of `execute`, and the FILTER pass over a
    /// cartesian product of components is `materialise`'s `post_filters`
    /// child (the join baselines only get the two stage spans).
    pub fn run_plan_traced(
        &self,
        plan: &QueryPlan,
        threads: Option<usize>,
        trace: &Trace,
    ) -> Result<IdResults<'_>, StoreError> {
        if threads == Some(0) {
            return Err(StoreError::InvalidThreadCount(0));
        }
        let started = Instant::now();
        let mut materialise = Materialise::default();
        let mut results = match &plan.mode {
            PlanMode::Graph { config, branches } => {
                let config = match threads {
                    Some(t) => config.with_threads(t),
                    None => *config,
                };
                self.run_graph_plan(branches, config, plan, trace, &mut materialise)?
            }
            PlanMode::Join { query, strategy } => {
                self.run_baseline(query, *strategy, trace, &mut materialise.took)
            }
        };
        let finishing = Instant::now();
        if let Some(routing) = &plan.routing {
            routing.count(&mut results);
        }
        results.apply_window(plan.window);
        results.variables.truncate(plan.projected_variables().len());
        materialise.took += finishing.elapsed();
        results.elapsed = started.elapsed();
        let span = trace.record_rollup(
            "materialise",
            None,
            materialise.took,
            &[("rows", results.row_count() as u64)],
        );
        let product_filters = materialise.product_filters.filter(|_| trace.is_detailed());
        if let Some((took, filtered)) = product_filters {
            trace.record_rollup("post_filters", span, took, &[("filtered", filtered as u64)]);
        }
        Ok(results)
    }

    /// Expands the query's unions and transforms every branch for `graph`,
    /// into the connected components the transform splits it into.
    fn plan_branches(
        &self,
        query: &Query,
        graph: &TransformedGraph,
    ) -> Result<Vec<BranchPlan>, StoreError> {
        let mut branches = Vec::new();
        for branch in query.pattern.expand_unions() {
            let split = transform_branch(&branch, graph, self.dictionary())?;
            let several = split.components.len() > 1;
            let components: Vec<_> = (split.components.into_iter())
                .map(|c| ComponentPlan::new(c, several))
                .collect();
            branches.push(BranchPlan {
                bind_into: bind_target(&components),
                components,
                filters: split.filters,
            });
        }
        Ok(branches)
    }

    /// Runs a graph plan's branches under `config` with the plan's pushed-down
    /// `LIMIT`: each branch is a run that answers with the solutions still
    /// missing, and the branch loop stops as soon as the limit is reached.
    /// The time spent turning matches into term-id rows is added to
    /// `materialise`.
    fn run_graph_plan(
        &self,
        branches: &[BranchPlan],
        config: TurboHomConfig,
        plan: &QueryPlan,
        trace: &Trace,
        materialise: &mut Materialise,
    ) -> Result<IdResults<'_>, StoreError> {
        let projected = &plan.projected;
        let mut results = self.id_results(projected.clone(), IdRows::new(projected.len()));
        for branch in branches {
            if (plan.pushed_limit()).is_some_and(|l| results.solution_count >= l) {
                break;
            }
            self.run_components(plan, branch, config, trace, materialise, &mut results)?;
        }
        Ok(results)
    }

    /// A result over `variables` holding `rows`, whose cells are ids of
    /// this store's dictionary.
    pub(crate) fn id_results(&self, variables: Vec<String>, rows: IdRows) -> IdResults<'_> {
        IdResults::new(self.dictionary(), variables, rows)
    }

    /// Runs one branch and appends its rows to `results`. When the branch
    /// binds into one of its components ([`BranchPlan::bind_into`]; e.g.
    /// BSBM Q5, which compares one product's property values with every
    /// product's through FILTERs), the others, which hold a constant, are
    /// matched first:
    ///
    /// - one yields no row: the branch is empty, and nothing else is matched;
    /// - each yields one row (a branch of one component has no other): those
    ///   rows are bound, and the bound component is matched once, a run
    ///   under the branch FILTERs with the LIMIT. A FILTER whose one unbound
    ///   variable is a required vertex of it runs inline there (Section
    ///   5.1's split, the bound variables counted as constants), the rest
    ///   post hoc. The product of one-row sides with its rows is its rows,
    ///   in enumeration order;
    /// - otherwise every component is matched, and the cartesian product of
    ///   their rows is filtered and cut at the LIMIT.
    ///
    /// `execute` is the matcher alone; folding what it found into `results`
    /// is part of materialising them.
    fn run_components(
        &self,
        plan: &QueryPlan,
        branch: &BranchPlan,
        config: TurboHomConfig,
        trace: &Trace,
        materialise: &mut Materialise,
        results: &mut IdResults<'_>,
    ) -> Result<(), StoreError> {
        let graph = self.graph_of(plan.kind);
        let limit = (plan.pushed_limit()).map(|l| l.saturating_sub(results.solution_count));
        let components = branch.components.as_slice();
        let mut matched: Vec<Option<MatchResult>> = components.iter().map(|_| None).collect();
        // A constant side is matched for its rows, whole.
        let whole = TurboHomConfig {
            count_only: false,
            ..config
        };
        let mut span = trace.span("execute");
        let parent = span.id();
        let mut shape = branch.bind_into.map_or(Shape::Product, Shape::Bound);
        if let Shape::Bound(target) = shape {
            for (i, component) in components.iter().enumerate().filter(|&(i, _)| i != target) {
                let input = RunInput::of(&component.transformed);
                let side = self.match_component(graph, component, whole, input, trace, parent)?;
                let rows = side.rows.len();
                matched[i] = Some(side);
                if rows == 0 {
                    shape = Shape::Empty;
                    break;
                }
                if rows > 1 {
                    shape = Shape::Product;
                }
            }
        }
        let mut constants = Vec::new();
        match shape {
            Shape::Bound(target) => {
                let component = &components[target];
                constants = self.constant_row(graph, components, &matched);
                let dictionary = self.dictionary();
                let outer: Vec<(&str, Binding<'_>)> = (constants.iter())
                    .filter_map(|&(var, cell)| Some((var, binding_of(dictionary, cell)?)))
                    .collect();
                let input = RunInput {
                    own: &component.transformed.filters,
                    branch: &branch.filters,
                    outer: &outer,
                    limit,
                };
                let result =
                    self.match_component(graph, component, config, input, trace, parent)?;
                matched[target] = Some(result);
            }
            Shape::Product => {
                for (component, slot) in components.iter().zip(&mut matched) {
                    if slot.is_none() {
                        let input = RunInput::of(&component.transformed);
                        let result =
                            self.match_component(graph, component, config, input, trace, parent)?;
                        *slot = Some(result);
                    }
                }
            }
            Shape::Empty => {}
        }
        let solutions: usize = matched.iter().flatten().map(|m| m.solution_count).sum();
        span.counter("solutions", solutions as u64);
        span.finish();

        let projecting = Instant::now();
        for result in matched.iter().flatten() {
            absorb_counts(results, result);
        }
        match shape {
            Shape::Empty => {}
            Shape::Bound(target) => {
                let result = matched[target].as_ref().expect("the bound component ran");
                self.append_rows(graph, &components[target], result, &constants, results);
            }
            Shape::Product => {
                let parts: Vec<IdRows> = (components.iter().zip(&matched))
                    .map(|(component, result)| {
                        let result = result.as_ref().expect("every component ran");
                        self.project(graph, component, &result.rows, &component.vars)
                    })
                    .collect();
                let (mut rows, filtered) =
                    self.combine_components(branch, &parts, &results.variables);
                if let Some((took, removed)) = filtered {
                    results.stats.filtered_post += removed;
                    let pass = (materialise.product_filters).get_or_insert((Duration::ZERO, 0));
                    pass.0 += took;
                    pass.1 += removed;
                }
                // A limit cannot be pushed below the cartesian combination
                // (dropping partial rows early would drop combinations), so
                // it applies here.
                if let Some(l) = limit {
                    rows.truncate(l);
                }
                results.solution_count += rows.len();
                results.rows.append(&mut rows);
            }
        }
        materialise.took += projecting.elapsed();
        Ok(())
    }

    /// Appends `result`'s rows, projected from `component`, to `results`,
    /// with each column a constant side binds set to its one term.
    fn append_rows(
        &self,
        graph: &TransformedGraph,
        component: &ComponentPlan,
        result: &MatchResult,
        constants: &[(&str, u32)],
        results: &mut IdResults<'_>,
    ) {
        let mut rows = self.project(graph, component, &result.rows, &results.variables);
        for (column, var) in results.variables.iter().enumerate() {
            if let Some(&(_, cell)) = constants.iter().find(|(bound, _)| bound == var) {
                rows.set_column(column, cell);
            }
        }
        results.rows.append(&mut rows);
        results.solution_count += result.solution_count;
    }

    /// The one row of every constant side in `matched` (all but the bound
    /// component): each variable it binds, with its term id.
    fn constant_row<'p>(
        &self,
        graph: &TransformedGraph,
        components: &'p [ComponentPlan],
        matched: &[Option<MatchResult>],
    ) -> Vec<(&'p str, u32)> {
        let mut cells = Vec::new();
        for (component, side) in components.iter().zip(matched) {
            let Some(side) = side else { continue };
            let row = self.project(graph, component, &side.rows, &component.vars);
            let bound = component.vars.iter().zip(row.row(0));
            cells.extend(
                bound
                    .filter(|&(_, &cell)| cell != UNBOUND)
                    .map(|(var, &cell)| (var.as_str(), cell)),
            );
        }
        cells
    }

    /// Combines the per-component rows of a disconnected branch: cartesian
    /// product, branch filters, projection onto `projected`. Also returns,
    /// when the filters ran, how long they took and how many rows they
    /// removed.
    fn combine_components(
        &self,
        branch: &BranchPlan,
        parts: &[IdRows],
        projected: &[String],
    ) -> (IdRows, Option<(Duration, usize)>) {
        let all_vars: Vec<&String> = branch.components.iter().flat_map(|c| &c.vars).collect();
        // The join's identity: no columns, one row.
        let mut combined = IdRows::unbound(0, 1);
        for part in parts {
            let width = combined.stride();
            let mut next =
                IdRows::with_capacity(width + part.stride(), combined.len() * part.len());
            for prefix in combined.iter() {
                for row in part.iter() {
                    let cells = next.push_unbound();
                    cells[..width].copy_from_slice(prefix);
                    cells[width..].copy_from_slice(row);
                }
            }
            combined = next;
            if combined.is_empty() {
                return (IdRows::new(projected.len()), None);
            }
        }
        // FILTER expressions read the dictionary's view of the cells they ask
        // for.
        let mut filtered = None;
        if !branch.filters.is_empty() {
            let filtering = Instant::now();
            let before = combined.len();
            let dictionary = self.dictionary();
            combined.retain(|row| {
                let bindings = |name: &str| {
                    let column = all_vars.iter().position(|var| *var == name)?;
                    binding_of(dictionary, row[column])
                };
                branch.filters.iter().all(|f| f.evaluate_bool(&bindings))
            });
            filtered = Some((filtering.elapsed(), before - combined.len()));
        }
        let mut rows = IdRows::unbound(projected.len(), combined.len());
        for (column, var) in projected.iter().enumerate() {
            if let Some(source) = all_vars.iter().position(|v| *v == var) {
                rows.fill_column(column, &combined, source, |id| id);
            }
        }
        (rows, filtered)
    }

    /// Runs the matcher over one transformed component with `input`, reusing
    /// (or memoizing) its matching order.
    fn match_component(
        &self,
        graph: &TransformedGraph,
        component: &ComponentPlan,
        config: TurboHomConfig,
        input: RunInput<'_>,
        trace: &Trace,
        parent: Option<SpanId>,
    ) -> Result<MatchResult, StoreError> {
        let engine = TurboHomEngine::new(graph, self.dictionary(), config);
        let preset = component.cached_order.lock().clone();
        let transformed = &component.transformed;
        let (result, computed) =
            engine.execute_with_order(transformed, preset.as_deref(), input, trace, parent)?;
        if let Some(order) = computed {
            let mut slot = component.cached_order.lock();
            if slot.is_none() {
                *slot = Some(Arc::new(order));
            }
        }
        Ok(result)
    }

    /// Projects the matcher's rows (`graph` ids in the component's
    /// [`RowLayout`]) to term-id rows over `out_vars`. Where a variable lives
    /// is resolved once per column, and the column is then filled in one
    /// pass (a data vertex is its term: only edge labels map); a variable
    /// the component does not bind stays unbound.
    fn project(
        &self,
        graph: &TransformedGraph,
        component: &ComponentPlan,
        matched: &IdRows,
        out_vars: &[String],
    ) -> IdRows {
        let query = &component.transformed.graph;
        let mappings = &graph.mappings;
        let layout = RowLayout::of(query);
        let cell = |id: Option<TermId>| id.map_or(UNBOUND, IdRows::cell);
        let mut rows = IdRows::unbound(out_vars.len(), matched.len());
        if matched.is_empty() {
            return rows;
        }
        for (column, var) in out_vars.iter().enumerate() {
            if let Some(u) = query.vertex_of_variable(var) {
                rows.fill_column(column, matched, layout.vertex_column(u), |v| v);
            } else if let Some(source) = query
                .edges()
                .iter()
                .position(|e| e.variable.as_deref() == Some(var))
                .and_then(|e| layout.edge_column(e))
            {
                rows.fill_column(column, matched, source, |l| {
                    cell(mappings.term_of_elabel(ELabel(l)))
                });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreOptions;
    use turbohom_rdf::{vocab, Dataset, Term};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    fn sample_store() -> Store {
        let mut ds = Dataset::new();
        ds.insert_iris(
            &ub("GraduateStudent"),
            vocab::RDFS_SUBCLASSOF,
            &ub("Student"),
        );
        for i in 0..4 {
            let s = ub(&format!("student{i}"));
            ds.insert_iris(&s, vocab::RDF_TYPE, &ub("GraduateStudent"));
            ds.insert_iris(&s, &ub("memberOf"), &ub("dept0"));
        }
        ds.insert_iris(&ub("dept0"), vocab::RDF_TYPE, &ub("Department"));
        ds.insert_iris(&ub("dept0"), &ub("subOrganizationOf"), &ub("univ0"));
        ds.insert_iris(&ub("univ0"), vocab::RDF_TYPE, &ub("University"));
        Store::from_dataset_with(
            ds,
            StoreOptions {
                inference: true,
                threads: 1,
            },
        )
    }

    const Q: &str = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#;

    #[test]
    fn plans_run_like_execute_for_every_engine() {
        let store = sample_store();
        for kind in EngineKind::all() {
            let plan = store.prepare_plan(Q, kind).unwrap();
            assert_eq!(plan.kind(), kind);
            assert_eq!(plan.projected_variables(), ["x", "d"]);
            let direct = store.execute(Q, kind).unwrap();
            let planned = store.run_plan(&plan).unwrap();
            assert_eq!(planned.len(), direct.len());
            assert_eq!(planned.rows, direct.rows);
        }
    }

    #[test]
    fn first_run_memoizes_the_matching_order() {
        let store = sample_store();
        let plan = store.prepare_plan(Q, EngineKind::TurboHomPlusPlus).unwrap();
        assert_eq!(plan.component_count(), 1);
        assert_eq!(plan.cached_order_count(), 0);
        let cold = store.run_plan(&plan).unwrap();
        assert_eq!(plan.cached_order_count(), 1);
        let warm = store.run_plan(&plan).unwrap();
        assert_eq!(warm.rows, cold.rows);
        // The cached order survives a thread override.
        let threaded = store
            .run_plan_traced(&plan, Some(4), &Trace::disabled())
            .unwrap();
        assert_eq!(threaded.len(), cold.len());
    }

    /// One plan, one probe: EXPLAIN of a prepared plan shows, step by step,
    /// the matching order the plan's first run memoizes — inline or in a
    /// pool, for a join, a scan and a product of two components.
    #[test]
    fn explain_shows_the_order_the_first_run_memoizes() {
        let store = sample_store();
        let chain = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT * WHERE { ?x ub:memberOf ?d . ?d ub:subOrganizationOf ?u .
                                        ?u rdf:type ub:University . }"#;
        let scan = "SELECT ?x WHERE { ?x a <http://ub.org/Student> . }";
        let product =
            "SELECT * WHERE { ?x a <http://ub.org/Student> . ?u a <http://ub.org/University> . }";
        for sparql in [Q, chain, scan, product] {
            for threads in [1, 4] {
                let plan = store
                    .prepare_plan(sparql, EngineKind::TurboHomPlusPlus)
                    .unwrap();
                let explained: Vec<Vec<usize>> = (store.explain(&plan).components.iter())
                    .map(|c| c.steps.iter().map(|step| step.query_vertex).collect())
                    .collect();
                store
                    .run_plan_traced(&plan, Some(threads), &Trace::disabled())
                    .unwrap();
                let PlanMode::Graph { branches, .. } = &plan.mode else {
                    unreachable!("a TurboHOM++ plan is a graph plan")
                };
                let memoized: Vec<Vec<usize>> = (branches.iter().flat_map(|b| &b.components))
                    .map(|c| c.cached_order.lock().as_ref().unwrap().order.clone())
                    .collect();
                assert_eq!(explained, memoized, "{sparql} at {threads} threads");
            }
        }
    }

    /// BSBM Q6's shape: six products labelled `item0`..`item5` and three
    /// departments labelled too, so that the nine labels outnumber the
    /// products and a REGEX keeps one of them. Uncapped, selection counts
    /// the REGEX and starts at that label; capped by the LIMIT, it starts at
    /// the products. EXPLAIN shows the start and order of the run either way.
    #[test]
    fn explain_of_a_filtered_branch_starts_where_its_run_does() {
        let mut ds = Dataset::new();
        let label = |ds: &mut Dataset, entity: &str, text: &str| {
            let (label, text) = (Term::iri(ub("label")), Term::literal(text));
            ds.insert(&Term::iri(ub(entity)), &label, &text);
        };
        for i in 0..6 {
            let product = format!("product{i}");
            ds.insert_iris(&ub(&product), vocab::RDF_TYPE, &ub("Product"));
            label(&mut ds, &product, &format!("item{i}"));
        }
        for d in 0..3 {
            label(&mut ds, &format!("dept{d}"), &format!("department{d}"));
        }
        let store = Store::from_dataset(ds);
        let sparql = r#"PREFIX ub: <http://ub.org/>
                        SELECT ?p ?l WHERE { ?p a ub:Product . ?p ub:label ?l .
                                             FILTER regex(?l, "^item1") }"#;
        for (window, start, candidates) in [("", "l", 1), (" LIMIT 1", "p", 6)] {
            let sparql = format!("{sparql}{window}");
            let plan = store
                .prepare_plan(&sparql, EngineKind::TurboHomPlusPlus)
                .unwrap();
            let report = store.explain(&plan);
            let [component] = report.components.as_slice() else {
                panic!("{sparql}: one component")
            };
            let chosen = component.start.as_ref().unwrap();
            let chosen = (chosen.variable.as_deref(), chosen.candidates);
            assert_eq!(chosen, (Some(start), candidates), "{sparql}");
            let explained: Vec<usize> = (component.steps.iter())
                .map(|step| step.query_vertex)
                .collect();
            assert_eq!(store.run_plan(&plan).unwrap().len(), 1, "{sparql}");
            let PlanMode::Graph { branches, .. } = &plan.mode else {
                unreachable!("a TurboHOM++ plan is a graph plan")
            };
            let cached = branches[0].components[0].cached_order.lock();
            assert_eq!(explained, cached.as_ref().unwrap().order, "{sparql}");
        }
    }

    #[test]
    fn join_plans_have_no_graph_components() {
        let store = sample_store();
        let plan = store.prepare_plan(Q, EngineKind::MergeJoin).unwrap();
        assert_eq!(plan.component_count(), 0);
        assert_eq!(plan.cached_order_count(), 0);
        assert_eq!(store.run_plan(&plan).unwrap().len(), 4);
    }

    #[test]
    fn multi_component_branch_plan_combines_components() {
        let store = sample_store();
        // Two unrelated patterns joined by a FILTER — two components.
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?a ?b WHERE {
                     ?a rdf:type ub:Department . ?b rdf:type ub:University .
                     FILTER (?a != ?b)
                   }"#;
        let plan = store.prepare_plan(q, EngineKind::TurboHomPlusPlus).unwrap();
        assert_eq!(plan.component_count(), 2);
        let r = store.run_plan(&plan).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.rows,
            store.execute(q, EngineKind::TurboHomPlusPlus).unwrap().rows
        );
        // Both component orders get memoized on the first run.
        assert_eq!(plan.cached_order_count(), 2);
    }

    /// The FILTERs of a cartesian product count the rows they remove, and a
    /// detailed trace times them as a child of `materialise`, where they run.
    #[test]
    fn a_product_counts_and_times_its_filters() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?a ?b WHERE {
                     ?a rdf:type ub:Student . ?b rdf:type ub:University .
                     FILTER (?a != ub:student0)
                   }"#;
        let plan = store.prepare_plan(q, EngineKind::TurboHomPlusPlus).unwrap();
        assert_eq!(plan.component_count(), 2);
        let trace = Trace::detailed(1);
        let r = store.run_plan_traced(&plan, None, &trace).unwrap();
        assert_eq!((r.len(), r.stats.filtered_post), (3, 1));
        let spans = trace.finish().spans;
        let materialise = spans.iter().find(|s| s.name == "materialise").unwrap();
        let filters = spans.iter().find(|s| s.name == "post_filters").unwrap();
        assert_eq!(filters.parent, Some(materialise.id));
        assert_eq!(filters.counters, [("filtered", 1)]);
        assert!(filters.duration_ns <= materialise.duration_ns);
    }

    #[test]
    fn limit_is_pushed_into_the_plan_and_enforced() {
        let store = sample_store();
        let q = format!("{Q} LIMIT 2");
        for kind in EngineKind::all() {
            let plan = store.prepare_plan(&q, kind).unwrap();
            assert_eq!(plan.pushed_limit(), Some(2), "{kind}");
            let r = store.run_plan(&plan).unwrap();
            assert_eq!(r.rows.len(), 2, "{kind}");
            assert_eq!(r.solution_count, 2, "{kind}");
        }
    }

    #[test]
    fn offset_disables_the_limit_pushdown_and_shifts_the_window() {
        let store = sample_store();
        let q = format!("{Q} LIMIT 2 OFFSET 1");
        for kind in EngineKind::all() {
            let plan = store.prepare_plan(&q, kind).unwrap();
            assert_eq!(plan.pushed_limit(), None, "{kind}");
            // All four solutions are enumerated; the window keeps rows 2–3.
            let all = store.execute(Q, kind).unwrap();
            let r = store.run_plan(&plan).unwrap();
            assert_eq!(r.solution_count, 2, "{kind}");
            assert_eq!(r.rows, all.rows[1..3], "{kind}");
            // A window past the end is empty, not an error.
            let past = store.execute(&format!("{Q} LIMIT 2 OFFSET 9"), kind);
            assert!(past.unwrap().rows.is_empty(), "{kind}");
            let tail = store.execute(&format!("{Q} OFFSET 3"), kind).unwrap();
            assert_eq!(tail.rows, all.rows[3..], "{kind}");
        }
        // OFFSET 0 does not shift the window, so the pushdown stays on.
        let q0 = format!("{Q} LIMIT 3 OFFSET 0");
        let plan0 = store
            .prepare_plan(&q0, EngineKind::TurboHomPlusPlus)
            .unwrap();
        assert_eq!(plan0.pushed_limit(), Some(3));
    }

    #[test]
    fn order_by_is_refused_by_every_engine() {
        let store = sample_store();
        for modifiers in ["ORDER BY ?x", "ORDER BY DESC(?x) LIMIT 2"] {
            for kind in EngineKind::all() {
                let refused = store.prepare_plan(&format!("{Q} {modifiers}"), kind);
                assert!(
                    matches!(refused, Err(StoreError::OrderByUnsupported)),
                    "{kind} {modifiers}"
                );
            }
        }
        let message = StoreError::OrderByUnsupported.to_string();
        assert!(message.contains("ORDER BY"), "{message}");
    }

    #[test]
    fn limit_larger_than_result_is_harmless() {
        let store = sample_store();
        let q = format!("{Q} LIMIT 100");
        for kind in EngineKind::all() {
            let r = store.execute(&q, kind).unwrap();
            assert_eq!(r.rows.len(), 4, "{kind}");
        }
    }

    #[test]
    fn limit_applies_to_multi_component_branches() {
        let store = sample_store();
        // Two unrelated patterns: 4 students × 1 university = 4 combined rows.
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?a ?b WHERE {
                     ?a rdf:type ub:Student . ?b rdf:type ub:University .
                   } LIMIT 2"#;
        let plan = store.prepare_plan(q, EngineKind::TurboHomPlusPlus).unwrap();
        assert_eq!(plan.component_count(), 2);
        let r = store.run_plan(&plan).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.solution_count, 2);
    }

    #[test]
    fn zero_thread_override_is_a_typed_error() {
        let store = sample_store();
        for kind in EngineKind::all() {
            let plan = store.prepare_plan(Q, kind).unwrap();
            assert!(matches!(
                store.run_plan_traced(&plan, Some(0), &Trace::disabled()),
                Err(StoreError::InvalidThreadCount(0))
            ));
        }
    }

    #[test]
    fn plan_errors_match_execute_errors() {
        let store = sample_store();
        assert!(store
            .prepare_plan("SELECT WHERE", EngineKind::TurboHomPlusPlus)
            .is_err());
    }
}
