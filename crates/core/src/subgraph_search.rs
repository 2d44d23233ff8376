//! `SubgraphSearch` with `IsJoinable` (paper Algorithm 2, Section 4.3 +INT,
//! Section 5.1 OPTIONAL handling).
//!
//! The searcher enumerates e-graph homomorphisms (or subgraph isomorphisms)
//! by extending a partial mapping along the matching order. At each step the
//! candidates come from the candidate region (`CR(u, M(P(u)))`); non-tree
//! edges to already-matched query vertices are verified by `IsJoinable`,
//! either per candidate (binary-search probes) or — with the `+INT`
//! optimization — as one k-way sorted intersection between the candidate
//! list and the relevant adjacency lists.
//!
//! OPTIONAL clauses occupy contiguous blocks at the end of the matching
//! order. When the block of a clause cannot produce any solution under the
//! current partial mapping, the searcher "nullifies" the clause — skips past
//! the whole block with those query vertices unbound — which implements the
//! left-join semantics of SPARQL OPTIONAL (the paper's
//! nullify-and-keep-searching strategy).
//!
//! One searcher serves every region a worker runs. What a step has to verify
//! depends on the query tree and the matching order alone, so it is laid out
//! once per order ([`SubgraphSearcher::set_order`]), not once per recursion.

use crate::candidate_region::CandidateRegion;
use crate::config::{MatchSemantics, TurboHomConfig};
use crate::matching_order::MatchingOrder;
use crate::query_tree::QueryTree;
use crate::result::RowLayout;
use crate::stats::MatchStats;
use std::borrow::Cow;
use std::collections::HashSet;
use turbohom_graph::{ops, Direction, ELabel, VLabel, VertexId};
use turbohom_rdf::IdRows;
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// A non-tree edge between the query vertex of a step and a query vertex
/// matched at an earlier step.
#[derive(Debug, Clone, Copy)]
struct Join {
    /// The query vertex at the other end. It imposes no constraint while it
    /// is nullified.
    other: usize,
    /// Direction to traverse from `other`'s data vertex toward the current
    /// candidate.
    direction: Direction,
    /// Edge label (None = variable predicate: any edge suffices).
    label: Option<ELabel>,
    /// The step's label if it has exactly one: +INT then intersects with
    /// the typed adjacency group instead of the whole per-predicate list —
    /// unless (`+SUM`) the predicate implies the label, when the two lists
    /// are equal and the whole one is two dependent loads nearer.
    typed: Option<VLabel>,
}

/// What extending the partial mapping at one matching-order position takes.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The query vertex matched here.
    u: usize,
    /// Its query-tree parent, whose data vertex selects `CR(u, ·)`. Only the
    /// root has none, and the root is bound before the recursion starts.
    parent: Option<usize>,
    /// When the block of an OPTIONAL clause starts here: the position right
    /// after the block, where the search continues if the clause is
    /// nullified.
    clause_end: Option<usize>,
    /// `joins[joins.0..joins.1]` of the plan are this step's `IsJoinable`
    /// checks.
    joins: (usize, usize),
    /// `self_loops[self_loops.0..self_loops.1]` of the plan are the labels of
    /// `u`'s self loops, each requiring an edge v → v.
    self_loops: (usize, usize),
}

/// The steps of one matching order over one query tree.
#[derive(Debug, Default)]
struct SearchPlan {
    steps: Vec<Step>,
    joins: Vec<Join>,
    self_loops: Vec<Option<ELabel>>,
}

/// The search state of one worker, reused from region to region.
pub struct SubgraphSearcher<'a> {
    data: &'a TransformedGraph,
    config: &'a TurboHomConfig,
    /// The most solutions it reports.
    limit: Option<usize>,
    query: &'a TransformedQuery,
    layout: &'a RowLayout,
    plan: SearchPlan,
    /// All `None` between regions: every binding is undone on the way back.
    mapping: Vec<Option<VertexId>>,
    /// Empty between regions, for the same reason.
    used: HashSet<VertexId>,
    /// The solutions of every region searched so far, one row per solution
    /// in `layout` (left empty when the run only counts).
    pub rows: IdRows,
    /// Number of solutions found so far (also counts in count-only mode).
    pub solution_count: usize,
    /// Execution counters.
    pub stats: MatchStats,
    /// Per matching-order position: how many candidates were successfully
    /// bound at that step (the ANALYZE "rows per step" actuals).
    pub step_rows: Vec<u64>,
    limit_reached: bool,
    /// Per-depth candidate buffers, reused across recursions so the +INT hot
    /// path does not allocate a fresh result vector per extension step.
    depth_buffers: Vec<Vec<VertexId>>,
    /// Ping-pong scratch for the +INT intersections; only used between
    /// recursions, so one buffer serves every depth.
    scratch: Vec<VertexId>,
    /// The adjacency lists one +INT step intersects; likewise.
    join_lists: Vec<Cow<'a, [VertexId]>>,
}

impl<'a> SubgraphSearcher<'a> {
    /// Creates a searcher that stops at `limit`. Solutions are appended to
    /// [`rows`](Self::rows) in `layout` unless `config` only counts. A matching order
    /// has to be [set](Self::set_order) before the first region is searched.
    pub fn new(
        data: &'a TransformedGraph,
        config: &'a TurboHomConfig,
        limit: Option<usize>,
        query: &'a TransformedQuery,
        layout: &'a RowLayout,
    ) -> Self {
        let n = query.graph.vertex_count();
        SubgraphSearcher {
            data,
            config,
            limit,
            query,
            layout,
            plan: SearchPlan::default(),
            mapping: vec![None; n],
            used: HashSet::new(),
            rows: IdRows::new(layout.stride()),
            solution_count: 0,
            stats: MatchStats::default(),
            step_rows: Vec::new(),
            limit_reached: false,
            depth_buffers: vec![Vec::new(); n],
            scratch: Vec::new(),
            join_lists: Vec::new(),
        }
    }

    /// Lays out the steps of searching along `order` over `tree`: which
    /// non-tree edges each position has to verify against which earlier
    /// position, its self loops, and where a nullified OPTIONAL clause
    /// resumes. The regions searched from now on are searched in this
    /// order; what was counted and found so far stays.
    pub fn set_order(&mut self, tree: &QueryTree, order: &MatchingOrder) {
        let graph = &self.query.graph;
        let plan = &mut self.plan;
        plan.steps.clear();
        plan.joins.clear();
        plan.self_loops.clear();
        let summary = self.config.optimizations.schema_summary;
        for (depth, &u) in order.order.iter().enumerate() {
            let (joins_from, loops_from) = (plan.joins.len(), plan.self_loops.len());
            let single_label = match graph.vertex(u).labels.as_slice() {
                [label] => Some(*label),
                _ => None,
            };
            for (ei, dir_from_u) in tree.non_tree_edges_of(graph, u) {
                let e = graph.edge(ei);
                let other = if e.from == u { e.to } else { e.from };
                if other == u {
                    plan.self_loops.push(e.label);
                } else if order.position[other] < depth {
                    let implied: &[VLabel] = match self.data.csr_label(e.label) {
                        Some(el) if summary => self.data.predicates.implied_labels(el, dir_from_u),
                        _ => &[],
                    };
                    plan.joins.push(Join {
                        other,
                        direction: dir_from_u.reverse(),
                        label: e.label,
                        typed: single_label.filter(|vl| !implied.contains(vl)),
                    });
                }
            }
            plan.steps.push(Step {
                u,
                parent: tree.parent[u].map(|edge| edge.parent),
                clause_end: order.clause_start_at[depth].map(|c| order.clause_blocks[c].end),
                joins: (joins_from, plan.joins.len()),
                self_loops: (loops_from, plan.self_loops.len()),
            });
        }
        debug_assert_eq!(plan.steps.first().map(|step| step.u), Some(tree.root));
        self.step_rows.resize(order.len(), 0);
    }

    /// Returns `true` once the search has found as many solutions as its
    /// limit.
    pub fn limit_reached(&self) -> bool {
        self.limit_reached
    }

    /// Runs the search over one candidate region whose starting data vertex
    /// is `start`. The matching-order root is bound to `start` and the
    /// remaining vertices are enumerated. Every candidate, `start` included,
    /// has passed its inline FILTERs while the region grew.
    pub fn search_region(&mut self, region: &CandidateRegion, start: VertexId) {
        if self.limit_reached {
            return;
        }
        debug_assert!(self.mapping.iter().all(Option::is_none) && self.used.is_empty());
        let step = self.plan.steps[0];
        let root = step.u;
        if !self.self_loops_hold(step, start) {
            return;
        }
        self.mapping[root] = Some(start);
        self.step_rows[0] += 1;
        // `used` is touched under the injective semantics only: under
        // homomorphism it stays empty and every access is a wasted hash.
        let injective = self.config.semantics == MatchSemantics::Isomorphism;
        if injective {
            self.used.insert(start);
        }
        self.search(region, 1);
        self.mapping[root] = None;
        if injective {
            self.used.remove(&start);
        }
    }

    /// Recursive search starting at matching-order position `depth`.
    /// Returns the number of solutions reported in this subtree.
    fn search(&mut self, region: &CandidateRegion, depth: usize) -> usize {
        if self.limit_reached {
            return 0;
        }
        if depth >= self.plan.steps.len() {
            return self.report();
        }
        self.stats.search_recursions += 1;

        if let Some(clause_end) = self.plan.steps[depth].clause_end {
            // Entering an OPTIONAL clause block: try to match it; if nothing
            // can be produced, nullify the whole block (including nested
            // clauses) and continue after it.
            let emitted = self.extend_vertex(region, depth);
            if emitted > 0 || self.limit_reached {
                return emitted;
            }
            return self.search(region, clause_end);
        }
        self.extend_vertex(region, depth)
    }

    /// Extends the partial mapping at position `depth` with every qualifying
    /// candidate. Returns the number of solutions reported below.
    fn extend_vertex(&mut self, region: &CandidateRegion, depth: usize) -> usize {
        let step = self.plan.steps[depth];
        let u = step.u;
        let Some(parent) = step.parent else {
            // Only the root has no parent, and the root is bound before the
            // recursion starts; reaching here means the order is degenerate.
            return 0;
        };
        let Some(parent_vertex) = self.mapping[parent] else {
            // Parent nullified (enclosing OPTIONAL clause failed): this
            // vertex cannot be matched either.
            return 0;
        };

        let base: &[VertexId] = region.candidates(u, parent_vertex);
        if base.is_empty() {
            return 0;
        }

        // The IsJoinable constraints in force: non-tree edges from u to a
        // query vertex bound in the current prefix. A nullified other
        // endpoint imposes no constraint.
        let joinable = self.plan.joins[step.joins.0..step.joins.1]
            .iter()
            .any(|join| self.mapping[join.other].is_some());

        // Candidate narrowing: with +INT intersect the candidate list with
        // every constraint adjacency list at once; without it, probe each
        // candidate against each constraint individually. The intersection
        // lands in the pooled per-depth buffer, which survives the recursion
        // below and is returned to the pool at the end.
        let probing = joinable && !self.config.optimizations.intersection_joinable;
        let mut narrowed: Vec<VertexId> = std::mem::take(&mut self.depth_buffers[depth]);
        let candidates: &[VertexId] = if joinable && !probing {
            self.stats.intersection_ops += 1;
            self.intersect_joins(base, step, &mut narrowed);
            &narrowed
        } else {
            base
        };

        let injective = self.config.semantics == MatchSemantics::Isomorphism;
        let mut emitted = 0usize;
        for &v in candidates {
            if self.limit_reached {
                break;
            }
            // Injectivity (subgraph isomorphism only).
            if injective && self.used.contains(&v) {
                continue;
            }
            // IsJoinable probes (only needed when +INT did not already narrow).
            if probing && !self.joins_hold(step, v) {
                continue;
            }
            if !self.self_loops_hold(step, v) {
                continue;
            }

            self.mapping[u] = Some(v);
            self.step_rows[depth] += 1;
            if injective {
                self.used.insert(v);
            }
            emitted += self.search(region, depth + 1);
            self.mapping[u] = None;
            if injective {
                self.used.remove(&v);
            }
        }
        self.depth_buffers[depth] = narrowed;
        emitted
    }

    /// +INT: intersects `base` with the adjacency list of every matched
    /// endpoint of `step`'s joins, into `out`, shortest list first to keep
    /// the intermediate results minimal.
    fn intersect_joins(&mut self, base: &[VertexId], step: Step, out: &mut Vec<VertexId>) {
        let data = self.data;
        self.join_lists.clear();
        for join in &self.plan.joins[step.joins.0..step.joins.1] {
            if let Some(w) = self.mapping[join.other] {
                let typed = join.typed.as_slice();
                self.join_lists
                    .push(data.adjacent(w, join.direction, join.label, typed));
            }
        }
        self.join_lists.sort_unstable_by_key(|list| list.len());
        match self.join_lists.split_first() {
            Some((first, rest)) => {
                ops::intersect_adaptive_into(base, first, out);
                for list in rest {
                    ops::intersect_adaptive_into(out, list, &mut self.scratch);
                    std::mem::swap(out, &mut self.scratch);
                }
            }
            None => {
                out.clear();
                out.extend_from_slice(base);
            }
        }
    }

    /// Every self loop of `step`'s query vertex requires an edge v → v,
    /// carrying the loop's label (or any label, for a variable predicate).
    fn self_loops_hold(&self, step: Step, v: VertexId) -> bool {
        let loops = &self.plan.self_loops[step.self_loops.0..step.self_loops.1];
        loops.iter().all(|&label| self.data.has_edge(v, v, label))
    }

    /// `IsJoinable` without +INT: probes `candidate` against every matched
    /// endpoint of `step`'s joins, stopping at the first miss.
    fn joins_hold(&mut self, step: Step, candidate: VertexId) -> bool {
        for join in &self.plan.joins[step.joins.0..step.joins.1] {
            if let Some(w) = self.mapping[join.other] {
                self.stats.isjoinable_probes += 1;
                let (from, to) = match join.direction {
                    Direction::Outgoing => (w, candidate),
                    Direction::Incoming => (candidate, w),
                };
                if !self.data.has_edge(from, to, join.label) {
                    return false;
                }
            }
        }
        true
    }

    /// Reports the current complete mapping as one or more solutions
    /// (one per combination of edge labels for variable-predicate edges).
    /// Returns the number of solutions emitted.
    fn report(&mut self) -> usize {
        // Resolve the Me mapping for variable-predicate edges: the column
        // of each one whose endpoints are bound, and its candidate labels.
        let first_edge_column = self.mapping.len();
        let mut variable_edges: Vec<(usize, Vec<ELabel>)> = Vec::new();
        for (i, &ei) in self.layout.variable_edges().iter().enumerate() {
            let e = self.query.graph.edge(ei);
            if let (Some(s), Some(o)) = (self.mapping[e.from], self.mapping[e.to]) {
                let labels = self.data.edge_labels_between(s, o);
                if labels.is_empty() {
                    // Defensive: the search guaranteed at least one edge.
                    return 0;
                }
                variable_edges.push((first_edge_column + i, labels));
            }
        }
        let combinations: usize = variable_edges
            .iter()
            .map(|(_, l)| l.len())
            .product::<usize>()
            .max(1);

        let remaining = (self.limit)
            .map(|m| m.saturating_sub(self.solution_count))
            .unwrap_or(usize::MAX);
        let to_emit = combinations.min(remaining);
        if to_emit < combinations || remaining == 0 {
            self.limit_reached = true;
        }
        if to_emit == 0 {
            return 0;
        }

        self.solution_count += to_emit;
        self.stats.solutions += to_emit;
        if (self.limit).is_some_and(|m| self.solution_count >= m) {
            self.limit_reached = true;
        }
        if self.config.count_only {
            return to_emit;
        }

        // Materialize the solutions (cartesian product over variable edges).
        let mut emitted = 0usize;
        let mut indices = vec![0usize; variable_edges.len()];
        loop {
            if emitted >= to_emit {
                break;
            }
            let row = self.rows.push_unbound();
            for (cell, v) in row.iter_mut().zip(&self.mapping) {
                if let Some(v) = v {
                    *cell = v.0;
                }
            }
            for (slot, (column, labels)) in variable_edges.iter().enumerate() {
                row[*column] = labels[indices[slot]].0;
            }
            emitted += 1;
            // Advance the mixed-radix counter.
            let mut advanced = false;
            for slot in (0..indices.len()).rev() {
                indices[slot] += 1;
                if indices[slot] < variable_edges[slot].1.len() {
                    advanced = true;
                    break;
                }
                indices[slot] = 0;
            }
            if !advanced {
                break;
            }
        }
        to_emit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate_region::{explore_candidate_region, RegionExplorer};
    use crate::config::Optimizations;
    use crate::engine::FilterSplit;
    use crate::result::{merge_step_counts, MatchResult};
    use crate::start_vertex::choose_start_vertex;
    use turbohom_rdf::{vocab, Dataset, UNBOUND};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_branch, type_aware_transform};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// The number of bound (non-null) cells of a match row.
    fn bound_count(row: &[u32]) -> usize {
        row.iter().filter(|&&cell| cell != UNBOUND).count()
    }

    /// Runs a full (single-region-at-a-time) search and returns the results.
    fn run(
        ds: &Dataset,
        data: &TransformedGraph,
        sparql: &str,
        config: &TurboHomConfig,
    ) -> (usize, IdRows, MatchStats) {
        let found = run_from(ds, data, sparql, config, None, None);
        (found.count, found.rows, found.stats)
    }

    /// What [`run_from`] found and how it looked things up.
    struct Found {
        count: usize,
        rows: IdRows,
        stats: MatchStats,
        /// Per query vertex, by variable: the labels its adjacency list was
        /// selected by.
        lookup_labels: Vec<(String, Vec<VLabel>)>,
        /// The `typed` label of every +INT join of the last order set.
        join_types: Vec<Option<VLabel>>,
    }

    impl Found {
        /// The rows as sorted lists of IRIs (unbound: the empty string).
        fn named(&self, ds: &Dataset) -> Vec<Vec<String>> {
            let name = |cell: u32| match cell {
                UNBOUND => String::new(),
                v => ds
                    .dictionary
                    .term(VertexId(v).term())
                    .unwrap()
                    .as_iri()
                    .unwrap()
                    .to_string(),
            };
            let mut rows: Vec<Vec<String>> = self
                .rows
                .iter()
                .map(|row| row.iter().map(|&cell| name(cell)).collect())
                .collect();
            rows.sort();
            rows
        }

        fn lookup_labels_of(&self, variable: &str) -> &[VLabel] {
            let found = self.lookup_labels.iter().find(|(v, _)| v == variable);
            &found.expect("a query variable").1
        }
    }

    /// [`run`] with the query tree rooted at `root` (a variable) instead of
    /// where start-vertex selection would put it, and the search stopped at
    /// `limit`.
    fn run_from(
        ds: &Dataset,
        data: &TransformedGraph,
        sparql: &str,
        config: &TurboHomConfig,
        root: Option<&str>,
        limit: Option<usize>,
    ) -> Found {
        let q = parse_query(sparql).unwrap();
        let tq = transform_branch(&q.pattern, data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert!(!tq.unsatisfiable, "query should be satisfiable");
        let mut stats = MatchStats::default();
        let mut sel = choose_start_vertex(data, config, &tq, None, &mut stats);
        if let Some(root) = root {
            let u = tq.graph.vertex_of_variable(root).unwrap();
            let [label] = tq.graph.vertex(u).labels[..] else {
                panic!("root a vertex with one label");
            };
            sel.query_vertex = u;
            sel.start_vertices = data.inverse_labels.vertices_with_label(label).into();
        }
        let tree = QueryTree::build(&tq.graph, sel.query_vertex);
        let layout = RowLayout::of(&tq.graph);
        let split = FilterSplit::new(&ds.dictionary, &tq, &[]);
        let explorer = RegionExplorer::new(data, config, &tq, tree.clone(), split);
        let mut region = CandidateRegion::default();
        let mut searcher = SubgraphSearcher::new(data, config, limit, &tq, &layout);
        let mut order: Option<MatchingOrder> = None;
        for &start in sel.start_vertices.iter() {
            stats.candidate_regions += 1;
            if !explorer.explore(&mut region, start, &mut stats) {
                continue;
            }
            stats.nonempty_regions += 1;
            if order.is_none() || !config.optimizations.reuse_matching_order {
                let determined = MatchingOrder::determine(&tq, &tree, region.counts());
                searcher.set_order(&tree, &determined);
                order = Some(determined);
                stats.matching_orders_computed += 1;
            }
            searcher.search_region(&region, start);
            if searcher.limit_reached() {
                break;
            }
        }
        stats.merge(&searcher.stats);
        Found {
            count: searcher.solution_count,
            stats,
            lookup_labels: (0..tq.graph.vertex_count())
                .filter_map(|u| {
                    let variable = tq.graph.vertex(u).variable.clone()?;
                    Some((variable, explorer.lookup_labels(u).to_vec()))
                })
                .collect(),
            join_types: searcher.plan.joins.iter().map(|join| join.typed).collect(),
            rows: searcher.rows,
        }
    }

    /// Universities of very different sizes, in start-vertex order: a big one
    /// (3 departments × 6 students), a small one (1 × 1), one without
    /// departments (its region is dead), a middling one (2 × 3), and one whose
    /// only student graduated elsewhere (its region lives but holds no
    /// solution). A student also knows the next one of the department, which
    /// gives the query below a tree of depth three.
    fn uneven_universities() -> Dataset {
        let mut ds = Dataset::new();
        for (u, (departments, students)) in [(3, 6), (1, 1), (0, 0), (2, 3), (1, 1)]
            .into_iter()
            .enumerate()
        {
            let univ = ub(&format!("univ{u}"));
            ds.insert_iris(&univ, vocab::RDF_TYPE, &ub("University"));
            for d in 0..departments {
                let dept = ub(&format!("dept{u}_{d}"));
                ds.insert_iris(&dept, vocab::RDF_TYPE, &ub("Department"));
                ds.insert_iris(&dept, &ub("subOrganizationOf"), &univ);
                for s in 0..students {
                    let student = ub(&format!("student{u}_{d}_{s}"));
                    ds.insert_iris(&student, vocab::RDF_TYPE, &ub("Student"));
                    ds.insert_iris(&student, &ub("memberOf"), &dept);
                    let degree_from = if u == 4 { ub("univ0") } else { univ.clone() };
                    ds.insert_iris(&student, &ub("degreeFrom"), &degree_from);
                    let next = ub(&format!("student{u}_{d}_{}", (s + 1) % students));
                    ds.insert_iris(&student, &ub("knows"), &next);
                }
            }
        }
        ds.dedup();
        ds
    }

    #[test]
    fn reused_arena_and_searcher_match_fresh_ones_region_by_region() {
        let ds = uneven_universities();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT * WHERE {
                 ?y rdf:type ub:University . ?z rdf:type ub:Department . ?x rdf:type ub:Student .
                 ?z ub:subOrganizationOf ?y . ?x ub:memberOf ?z . ?x ub:degreeFrom ?y .
                 ?x ub:knows ?w . ?w ub:memberOf ?z .
               }"#,
        )
        .unwrap();
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let layout = RowLayout::of(&tq.graph);
        for config in [
            TurboHomConfig::default(),
            TurboHomConfig::turbohom(),
            TurboHomConfig::isomorphism(),
        ] {
            let sel = choose_start_vertex(&data, &config, &tq, None, &mut MatchStats::default());
            assert_eq!(sel.query_vertex, tq.graph.vertex_of_variable("y").unwrap());
            let tree = QueryTree::build(&tq.graph, sel.query_vertex);
            let dictionary = &ds.dictionary;
            let split = FilterSplit::new(dictionary, &tq, &[]);
            let explorer = RegionExplorer::new(&data, &config, &tq, tree.clone(), split);
            let new_searcher = || SubgraphSearcher::new(&data, &config, None, &tq, &layout);

            let mut region = CandidateRegion::default();
            let mut reused = new_searcher();
            let mut expected = MatchResult {
                rows: IdRows::new(layout.stride()),
                ..MatchResult::default()
            };
            let mut solutions_per_region = Vec::new();
            for &start in sel.start_vertices.iter() {
                let mut fresh = new_searcher();
                let fresh_region = explore_candidate_region(
                    &data,
                    dictionary,
                    &config,
                    &tq,
                    &tree,
                    start,
                    &mut fresh.stats,
                );
                let alive = explorer.explore(&mut region, start, &mut reused.stats);
                assert_eq!(alive, fresh_region.is_some(), "{config:?} {start}");
                if let Some(fresh_region) = &fresh_region {
                    for u in 0..tq.graph.vertex_count() {
                        assert_eq!(region.count(u), fresh_region.count(u), "{config:?} u{u}");
                    }
                    let order = MatchingOrder::determine(&tq, &tree, fresh_region.counts());
                    // −REUSE plans every region anew; +REUSE keeps the first.
                    if expected.rows.is_empty() || !config.optimizations.reuse_matching_order {
                        reused.set_order(&tree, &order);
                    }
                    fresh.set_order(&tree, &order);
                    fresh.search_region(fresh_region, start);
                    reused.search_region(&region, start);
                    merge_step_counts(&mut expected.step_rows, &fresh.step_rows);
                }
                solutions_per_region.push(fresh.solution_count);
                expected.solution_count += fresh.solution_count;
                expected.rows.append(&mut fresh.rows);
                expected.stats.merge(&fresh.stats);
                // Region by region, not only in the end.
                assert_eq!(reused.rows, expected.rows, "{config:?} {start}");
                assert_eq!(reused.step_rows, expected.step_rows, "{config:?} {start}");
                assert_eq!(reused.stats, expected.stats, "{config:?} {start}");
                assert_eq!(reused.solution_count, expected.solution_count);
            }
            // Big, small, dead, middling, alive without a solution. (The
            // filters of plain TurboHOM start neither the dead nor the
            // solution-less one; an injective match cannot have the lone
            // student know itself.)
            if config == TurboHomConfig::default() {
                assert_eq!(solutions_per_region, [18, 1, 0, 6, 0]);
            }
            assert!(solutions_per_region.len() >= 3 && solutions_per_region[0] == 18);
        }
    }

    /// The worked example of paper Figure 1: the query q1 has exactly one
    /// subgraph isomorphism and three e-graph homomorphisms in g1.
    fn figure1_dataset() -> Dataset {
        let mut ds = Dataset::new();
        // Vertex labels: v0{A}, v1{B}, v2{A,D}, v3{B}, v4{C}, v5{C,E}.
        let types = [
            ("v0", vec!["A"]),
            ("v1", vec!["B"]),
            ("v2", vec!["A", "D"]),
            ("v3", vec!["B"]),
            ("v4", vec!["C"]),
            ("v5", vec!["C", "E"]),
        ];
        for (v, ts) in types {
            for t in ts {
                ds.insert_iris(&ub(v), vocab::RDF_TYPE, &ub(t));
            }
        }
        // Edges: v0-a->v1, v0-b->v4, v2-a->v1, v2-a->v3, v3-c->v4, v3-c->v5, v2-b->v5.
        for (s, p, o) in [
            ("v0", "a", "v1"),
            ("v0", "b", "v4"),
            ("v2", "a", "v1"),
            ("v2", "a", "v3"),
            ("v3", "c", "v4"),
            ("v3", "c", "v5"),
            ("v2", "b", "v5"),
        ] {
            ds.insert_iris(&ub(s), &ub(p), &ub(o));
        }
        ds.dedup();
        ds
    }

    /// Figure 1 query q1: u0{A} -a-> u1{_}; u2{A} -a-> u1; u2 -a-> u3{B};
    /// u3 -c-> u4{C}; u0 -b-> u4.
    const FIGURE1_QUERY: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://ub.org/>
        SELECT * WHERE {
            ?u0 rdf:type ub:A . ?u2 rdf:type ub:A . ?u3 rdf:type ub:B . ?u4 rdf:type ub:C .
            ?u0 ub:a ?u1 . ?u2 ub:a ?u1 . ?u2 ub:a ?u3 . ?u3 ub:c ?u4 . ?u0 ub:b ?u4 .
        }"#;

    #[test]
    fn figure1_homomorphism_finds_three_solutions() {
        let ds = figure1_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(&ds, &data, FIGURE1_QUERY, &TurboHomConfig::default());
        assert_eq!(count, 3);
        assert_eq!(solutions.len(), 3);
        // All solutions are distinct.
        let set: HashSet<_> = solutions.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn figure1_isomorphism_finds_one_solution() {
        let ds = figure1_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(&ds, &data, FIGURE1_QUERY, &TurboHomConfig::isomorphism());
        assert_eq!(count, 1);
        // Every data vertex in the single solution is distinct (injectivity).
        let bound = solutions.row(0);
        assert_eq!(bound_count(bound), bound.len());
        let distinct: HashSet<_> = bound.iter().collect();
        assert_eq!(bound.len(), distinct.len());
    }

    #[test]
    fn optimizations_do_not_change_the_result() {
        let ds = figure1_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let baseline = run(&ds, &data, FIGURE1_QUERY, &TurboHomConfig::turbohom()).0;
        assert_eq!(baseline, 3);
        for opts in [
            Optimizations::all(),
            Optimizations::none(),
            Optimizations::only(crate::config::OptimizationName::Intersection),
            Optimizations::only(crate::config::OptimizationName::DisableNlf),
            Optimizations::only(crate::config::OptimizationName::DisableDegree),
            Optimizations::only(crate::config::OptimizationName::ReuseMatchingOrder),
        ] {
            let config = TurboHomConfig::default().with_optimizations(opts);
            assert_eq!(run(&ds, &data, FIGURE1_QUERY, &config).0, 3, "{opts:?}");
        }
    }

    #[test]
    fn intersection_replaces_probes() {
        let ds = figure1_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let with_int = run(
            &ds,
            &data,
            FIGURE1_QUERY,
            &TurboHomConfig::default().with_optimizations(Optimizations::all()),
        )
        .2;
        let without_int = run(
            &ds,
            &data,
            FIGURE1_QUERY,
            &TurboHomConfig::default().with_optimizations(Optimizations::none()),
        )
        .2;
        assert!(with_int.intersection_ops > 0);
        assert_eq!(with_int.isjoinable_probes, 0);
        assert!(without_int.isjoinable_probes > 0);
        assert_eq!(without_int.intersection_ops, 0);
    }

    #[test]
    fn variable_predicate_enumerates_each_edge_label() {
        // Two parallel edges with different predicates between a and b.
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a"), &ub("p"), &ub("b"));
        ds.insert_iris(&ub("a"), &ub("q"), &ub("b"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(
            &ds,
            &data,
            r#"SELECT ?pred WHERE { <http://ub.org/a> ?pred <http://ub.org/b> . }"#,
            &TurboHomConfig::default(),
        );
        assert_eq!(count, 2);
        // Two constant vertices, then the variable edge's label column.
        let labels: HashSet<u32> = solutions.iter().map(|row| row[2]).collect();
        assert_eq!(labels.len(), 2);
        assert!(!labels.contains(&UNBOUND));
    }

    #[test]
    fn optional_clause_produces_nulls_only_when_it_cannot_match() {
        let mut ds = Dataset::new();
        for p in ["p1", "p2"] {
            ds.insert_iris(&ub(p), vocab::RDF_TYPE, &ub("Product"));
            ds.insert_iris(&ub(p), &ub("price"), &ub(&format!("{p}_price")));
        }
        // Only p1 has a rating.
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("five"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?p ?price ?r WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . }
               }"#,
            &TurboHomConfig::default(),
        );
        assert_eq!(count, 2);
        // Exactly one solution has the rating bound, the other has it null.
        let with_rating = solutions.iter().filter(|s| bound_count(s) == 3).count();
        let without_rating = solutions.iter().filter(|s| bound_count(s) == 2).count();
        assert_eq!(with_rating, 1);
        assert_eq!(without_rating, 1);
    }

    #[test]
    fn optional_does_not_add_null_row_when_it_matches() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Product"));
        ds.insert_iris(&ub("p1"), &ub("price"), &ub("x"));
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("r1"));
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("r2"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?r WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . }
               }"#,
            &TurboHomConfig::default(),
        );
        // Two ratings → two rows; no additional null row.
        assert_eq!(count, 2);
        assert!(solutions.iter().all(|s| bound_count(s) == 3));
    }

    #[test]
    fn nested_optional_nullifies_inner_clause_independently() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Product"));
        ds.insert_iris(&ub("p1"), &ub("price"), &ub("x"));
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("five"));
        // No homepage.
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let (count, solutions, _) = run(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?r ?h WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . OPTIONAL { ?p ub:homepage ?h . } }
               }"#,
            &TurboHomConfig::default(),
        );
        assert_eq!(count, 1);
        let s = solutions.row(0);
        // p, price and rating are bound; homepage is null (4 query vertices).
        assert_eq!(s.len(), 4);
        assert_eq!(bound_count(s), 3);
    }

    #[test]
    fn a_capped_search_stops_early() {
        let mut ds = Dataset::new();
        for i in 0..50 {
            ds.insert_iris(&ub(&format!("s{i}")), vocab::RDF_TYPE, &ub("Student"));
        }
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let found = run_from(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Student . }"#,
            &TurboHomConfig::default(),
            None,
            Some(7),
        );
        assert_eq!(found.count, 7);
        assert_eq!(found.rows.len(), 7);
    }

    #[test]
    fn count_only_mode_does_not_materialize() {
        let ds = figure1_dataset();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let config = TurboHomConfig {
            count_only: true,
            ..TurboHomConfig::default()
        };
        let (count, solutions, _) = run(&ds, &data, FIGURE1_QUERY, &config);
        assert_eq!(count, 3);
        assert!(solutions.is_empty());
    }

    const UB_PREFIXES: &str = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
                               PREFIX ub: <http://ub.org/>";

    /// `all()` without `+SUM`: the switch is the only difference.
    fn without_summary() -> TurboHomConfig {
        TurboHomConfig::default().with_optimizations(Optimizations {
            schema_summary: false,
            ..Optimizations::all()
        })
    }

    /// LUBM Q9's shape: students with an advisor who teaches a course they
    /// take. Returns the dataset and the (student, faculty, course) triangles
    /// counted by hand from the edge lists.
    fn advisors_and_courses() -> (Dataset, Vec<Vec<String>>) {
        let mut ds = Dataset::new();
        let (mut advisor, mut teaches, mut takes) = (Vec::new(), Vec::new(), Vec::new());
        for f in 0..3 {
            let prof = ub(&format!("prof{f}"));
            ds.insert_iris(&prof, vocab::RDF_TYPE, &ub("Faculty"));
            for c in 0..2 {
                let course = ub(&format!("course{f}_{c}"));
                ds.insert_iris(&course, vocab::RDF_TYPE, &ub("Course"));
                teaches.push((prof.clone(), course));
            }
            for s in 0..4 {
                let student = ub(&format!("student{f}_{s}"));
                ds.insert_iris(&student, vocab::RDF_TYPE, &ub("Student"));
                advisor.push((student.clone(), prof.clone()));
                // One course of the advisor's and one of the next professor's.
                takes.push((student.clone(), ub(&format!("course{f}_{}", s % 2))));
                takes.push((student, ub(&format!("course{}_0", (f + 1) % 3))));
            }
        }
        for (edges, predicate) in [
            (&advisor, "advisor"),
            (&teaches, "teacherOf"),
            (&takes, "takesCourse"),
        ] {
            for (s, o) in edges {
                ds.insert_iris(s, &ub(predicate), o);
            }
        }
        let mut triangles = Vec::new();
        for (x, y) in &advisor {
            for (_, z) in teaches.iter().filter(|(teacher, _)| teacher == y) {
                if takes.contains(&(x.clone(), z.clone())) {
                    triangles.push(vec![x.clone(), y.clone(), z.clone()]);
                }
            }
        }
        triangles.sort();
        ds.dedup();
        (ds, triangles)
    }

    #[test]
    fn a_label_the_predicate_implies_is_not_looked_up_until_the_data_says_otherwise() {
        let q9 = format!(
            "{UB_PREFIXES} SELECT ?X ?Y ?Z WHERE {{
               ?X rdf:type ub:Student . ?Y rdf:type ub:Faculty . ?Z rdf:type ub:Course .
               ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:takesCourse ?Z . }}"
        );
        let (mut ds, triangles) = advisors_and_courses();
        assert_eq!(triangles.len(), 12);
        let config = TurboHomConfig::default();

        // Every advisor subject is a Student, every teacherOf and
        // takesCourse object a Course: nothing is left to select by.
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let regular = run_from(&ds, &data, &q9, &config, Some("Y"), None);
        assert_eq!(regular.named(&ds), triangles);
        assert!(regular.lookup_labels_of("X").is_empty());
        assert!(regular.lookup_labels_of("Z").is_empty());
        assert_eq!(regular.join_types, [None]);
        // Without the switch the typed groups are read, to the same rows.
        let typed = run_from(&ds, &data, &q9, &without_summary(), Some("Y"), None);
        assert_eq!(typed.named(&ds), triangles);
        assert_eq!(typed.lookup_labels_of("X").len(), 1);
        assert!(typed.join_types[0].is_some());

        // A visitor — no Student — with an advisor, sitting in on a course of
        // theirs and on a reading group that is no Course.
        ds.insert_iris(&ub("visitor"), &ub("advisor"), &ub("prof0"));
        ds.insert_iris(&ub("visitor"), &ub("takesCourse"), &ub("course0_0"));
        ds.insert_iris(&ub("visitor"), &ub("takesCourse"), &ub("reading_group"));
        ds.insert_iris(&ub("prof0"), &ub("teacherOf"), &ub("reading_group"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let irregular = run_from(&ds, &data, &q9, &config, Some("Y"), None);
        assert_eq!(irregular.named(&ds), triangles);
        assert_eq!(
            irregular.lookup_labels_of("X"),
            typed.lookup_labels_of("X"),
            "the label is back"
        );
        assert_eq!(irregular.lookup_labels_of("Z").len(), 1);
        assert!(irregular.join_types[0].is_some());
    }

    #[test]
    fn a_candidate_without_the_needed_predicate_is_turned_down_before_it_is_explored() {
        // LUBM J2's shape. Per university: a department two professors work
        // for and three research groups nobody works for; eight students
        // with a professor as advisor. All ten people hold a degree from the
        // university, but only the students have an advisor.
        let mut ds = Dataset::new();
        for u in 0..3 {
            let univ = ub(&format!("univ{u}"));
            ds.insert_iris(&univ, vocab::RDF_TYPE, &ub("University"));
            let dept = ub(&format!("dept{u}"));
            ds.insert_iris(&dept, &ub("subOrganizationOf"), &univ);
            for g in 0..3 {
                ds.insert_iris(
                    &ub(&format!("group{u}_{g}")),
                    &ub("subOrganizationOf"),
                    &univ,
                );
            }
            for p in 0..2 {
                let prof = ub(&format!("prof{u}_{p}"));
                ds.insert_iris(&prof, &ub("worksFor"), &dept);
                ds.insert_iris(&prof, &ub("degreeFrom"), &univ);
            }
            for s in 0..8 {
                let student = ub(&format!("student{u}_{s}"));
                ds.insert_iris(&student, &ub("advisor"), &ub(&format!("prof{u}_{}", s % 2)));
                ds.insert_iris(&student, &ub("degreeFrom"), &univ);
            }
        }
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        // From ?U the tree is U → {S → P, D}: ?D is a leaf whose `worksFor`
        // edge to ?P only the enumeration verifies.
        let j2 = format!(
            "{UB_PREFIXES} SELECT ?U ?D ?P ?S WHERE {{
               ?U rdf:type ub:University . ?S ub:degreeFrom ?U . ?D ub:subOrganizationOf ?U .
               ?S ub:advisor ?P . ?P ub:worksFor ?D . }}"
        );
        let on = run_from(&ds, &data, &j2, &TurboHomConfig::default(), Some("U"), None);
        let off = run_from(&ds, &data, &j2, &without_summary(), Some("U"), None);
        assert_eq!(on.count, 3 * 8);
        assert_eq!(on.named(&ds), off.named(&ds));
        // Per university the three groups (no `worksFor` member) and the two
        // professors (degree holders without an `advisor`) die at the
        // signature. The groups used to be carried into the enumeration,
        // each costing a recursion per student before the join found out.
        assert_eq!(off.stats.signature_pruned, 0);
        assert_eq!(on.stats.signature_pruned, 3 * (3 + 2));
        assert!(on.stats.candidate_vertices < off.stats.candidate_vertices);
        assert_eq!(
            (on.stats.search_recursions, off.stats.search_recursions),
            (3 * (1 + 1 + 8), 3 * (1 + 4 + 4 * 8))
        );
    }

    #[test]
    fn an_edge_into_an_optional_clause_demands_nothing_of_a_required_vertex() {
        let mut ds = Dataset::new();
        for (product, rating) in [("p0", None), ("p1", Some("r1")), ("p2", Some("r2"))] {
            ds.insert_iris(&ub(product), &ub("price"), &ub(&format!("{product}_price")));
            if let Some(rating) = rating {
                ds.insert_iris(&ub(product), &ub("rating"), &ub(rating));
            }
        }
        // r1 is signed, r2 is anonymous.
        ds.insert_iris(&ub("r1"), &ub("by"), &ub("alice"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let leaf = format!(
            "{UB_PREFIXES} SELECT * WHERE {{ ?p ub:price ?x . OPTIONAL {{ ?p ub:rating ?r . }} }}"
        );
        // ?r is an inner tree vertex of its clause: ?who hangs off it.
        let inner = format!(
            "{UB_PREFIXES} SELECT * WHERE {{
               ?p ub:price ?x . OPTIONAL {{ ?p ub:rating ?r . ?r ub:by ?who . }} }}"
        );
        for (query, bound_cells) in [(&leaf, [2, 3, 3]), (&inner, [2, 2, 4])] {
            let on = run_from(&ds, &data, query, &TurboHomConfig::default(), None, None);
            let off = run_from(&ds, &data, query, &without_summary(), None, None);
            // Every product is returned, rated or not.
            assert_eq!(on.count, 3, "{query}");
            let mut bound: Vec<usize> = on.rows.iter().map(bound_count).collect();
            bound.sort_unstable();
            assert_eq!(bound, bound_cells, "{query}");
            assert_eq!(on.named(&ds), off.named(&ds), "{query}");
        }
        // Inside the clause the signature does ask: the anonymous rating
        // lacks the `by` edge its own clause needs of it.
        let on = run_from(&ds, &data, &inner, &TurboHomConfig::default(), None, None);
        assert_eq!(on.stats.signature_pruned, 1);
    }

    #[test]
    fn a_colliding_predicate_passes_the_signature_and_fails_the_lookup() {
        // 70 predicates: the bits of p3 and p35 fold onto each other.
        let mut ds = Dataset::new();
        for p in 0..70 {
            ds.insert_iris(&ub(&format!("s{p}")), &ub(&format!("p{p}")), &ub("sink"));
        }
        for b in ["has_p3", "has_p35", "has_neither"] {
            ds.insert_iris(&ub("a"), &ub("link"), &ub(b));
        }
        ds.insert_iris(&ub("has_p3"), &ub("p3"), &ub("c"));
        ds.insert_iris(&ub("has_p35"), &ub("p35"), &ub("c"));
        ds.dedup();
        let data = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        let elabel = |p: &str| {
            let term = ds.dictionary.id_of_iri(&ub(p)).unwrap();
            data.mappings.elabel_of(term).unwrap()
        };
        let bit = |p: &str| turbohom_graph::signature_bit(elabel(p), Direction::Outgoing);
        assert_eq!(bit("p3"), bit("p35"));
        assert_ne!(bit("p3"), bit("p4"));

        let query =
            format!("{UB_PREFIXES} SELECT ?b ?c WHERE {{ ub:a ub:link ?b . ?b ub:p3 ?c . }}");
        let on = run_from(&ds, &data, &query, &TurboHomConfig::default(), None, None);
        let off = run_from(&ds, &data, &query, &without_summary(), None, None);
        assert_eq!(on.count, 1);
        assert_eq!(on.named(&ds), off.named(&ds));
        // Only the vertex with neither predicate is turned down by its
        // signature; the one with the colliding predicate is kept and found
        // to have no p3 edge by the lookup, as without the switch.
        assert_eq!(on.stats.signature_pruned, 1);
    }
}
