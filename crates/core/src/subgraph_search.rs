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

use crate::candidate_region::CandidateRegion;
use crate::config::{MatchSemantics, TurboHomConfig};
use crate::matching_order::MatchingOrder;
use crate::query_tree::QueryTree;
use crate::result::RowLayout;
use crate::stats::MatchStats;
use std::collections::HashSet;
use turbohom_graph::{ops, Direction, ELabel, VertexId};
use turbohom_rdf::{Dictionary, IdRows, Term};
use turbohom_sparql::{EvalContext, Expression};
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// A non-tree-edge constraint against an already matched query vertex.
struct JoinConstraint {
    /// The data vertex the other endpoint is matched to.
    matched: VertexId,
    /// Direction to traverse from `matched` toward the current candidate.
    direction: Direction,
    /// Edge label (None = variable predicate: any edge suffices).
    label: Option<ELabel>,
}

/// The per-execution (per-thread) search state.
pub struct SubgraphSearcher<'a> {
    data: &'a TransformedGraph,
    config: &'a TurboHomConfig,
    query: &'a TransformedQuery,
    tree: &'a QueryTree,
    order: &'a MatchingOrder,
    layout: &'a RowLayout,
    dictionary: &'a Dictionary,
    /// Cheap filters applied when the keyed query vertex gets bound.
    inline_filters: &'a [Vec<&'a Expression>],
    mapping: Vec<Option<VertexId>>,
    used: HashSet<VertexId>,
    /// The buffer solutions are appended to, one row per solution in
    /// `layout` (untouched in count-only mode). Handed in by the caller and
    /// taken back after the search, so consecutive regions share one buffer.
    pub rows: IdRows,
    /// Number of solutions found (also counts in count-only mode).
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
    /// Ping-pong scratch for [`ops::intersect_k_into`]; only used between
    /// recursions, so one buffer serves every depth.
    scratch: Vec<VertexId>,
}

impl<'a> SubgraphSearcher<'a> {
    /// Creates a searcher. `inline_filters` must contain, for every query
    /// vertex, the cheap FILTER expressions to evaluate as soon as that
    /// vertex is bound (the engine computes this split); `rows` is the
    /// buffer to append solutions to, with `layout`'s stride.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        data: &'a TransformedGraph,
        config: &'a TurboHomConfig,
        query: &'a TransformedQuery,
        tree: &'a QueryTree,
        order: &'a MatchingOrder,
        layout: &'a RowLayout,
        dictionary: &'a Dictionary,
        inline_filters: &'a [Vec<&'a Expression>],
        rows: IdRows,
    ) -> Self {
        let n = query.graph.vertex_count();
        debug_assert_eq!(inline_filters.len(), n);
        debug_assert_eq!(rows.stride(), layout.stride());
        SubgraphSearcher {
            data,
            config,
            query,
            tree,
            order,
            layout,
            dictionary,
            inline_filters,
            mapping: vec![None; n],
            used: HashSet::new(),
            rows,
            solution_count: 0,
            stats: MatchStats::default(),
            step_rows: vec![0; order.len()],
            limit_reached: false,
            depth_buffers: vec![Vec::new(); n],
            scratch: Vec::new(),
        }
    }

    /// Returns `true` once the configured solution limit has been hit.
    pub fn limit_reached(&self) -> bool {
        self.limit_reached
    }

    /// Runs the search over one candidate region whose starting data vertex
    /// is `start`. The matching-order root is bound to `start` and the
    /// remaining vertices are enumerated.
    pub fn search_region(&mut self, region: &CandidateRegion, start: VertexId) {
        if self.limit_reached {
            return;
        }
        let root = self.order.order[0];
        debug_assert_eq!(root, self.tree.root);
        if !self.inline_filters_pass(root, start) {
            self.stats.filtered_inline += 1;
            return;
        }
        self.mapping[root] = Some(start);
        self.step_rows[0] += 1;
        if self.config.semantics == MatchSemantics::Isomorphism {
            self.used.insert(start);
        }
        self.search(region, 1);
        self.mapping[root] = None;
        self.used.remove(&start);
    }

    /// Recursive search starting at matching-order position `depth`.
    /// Returns the number of solutions reported in this subtree.
    fn search(&mut self, region: &CandidateRegion, depth: usize) -> usize {
        if self.limit_reached {
            return 0;
        }
        if depth >= self.order.len() {
            return self.report();
        }
        self.stats.search_recursions += 1;

        if let Some(clause) = self.order.clause_start_at[depth] {
            // Entering an OPTIONAL clause block: try to match it; if nothing
            // can be produced, nullify the whole block (including nested
            // clauses) and continue after it.
            let emitted = self.extend_vertex(region, depth);
            if emitted > 0 || self.limit_reached {
                return emitted;
            }
            let block = self.order.clause_blocks[clause];
            return self.search(region, block.end);
        }
        self.extend_vertex(region, depth)
    }

    /// Extends the partial mapping at position `depth` with every qualifying
    /// candidate. Returns the number of solutions reported below.
    fn extend_vertex(&mut self, region: &CandidateRegion, depth: usize) -> usize {
        let u = self.order.order[depth];
        let Some(tree_edge) = self.tree.parent[u] else {
            // Only the root has no parent, and the root is bound before the
            // recursion starts; reaching here means the order is degenerate.
            return 0;
        };
        let Some(parent_vertex) = self.mapping[tree_edge.parent] else {
            // Parent nullified (enclosing OPTIONAL clause failed): this
            // vertex cannot be matched either.
            return 0;
        };

        let base: &[VertexId] = region.candidates(u, parent_vertex);
        if base.is_empty() {
            return 0;
        }

        // Gather the IsJoinable constraints: non-tree edges from u to
        // query vertices already bound in the current prefix.
        let mut constraints: Vec<JoinConstraint> = Vec::new();
        let mut self_loop_labels: Vec<Option<ELabel>> = Vec::new();
        for (ei, dir_from_u) in self.tree.non_tree_edges_of(&self.query.graph, u) {
            let e = self.query.graph.edge(ei);
            let other = if e.from == u { e.to } else { e.from };
            if other == u {
                self_loop_labels.push(e.label);
                continue;
            }
            if self.order.position[other] < depth {
                if let Some(w) = self.mapping[other] {
                    constraints.push(JoinConstraint {
                        matched: w,
                        direction: dir_from_u.reverse(),
                        label: e.label,
                    });
                }
                // A nullified other endpoint imposes no constraint.
            }
        }

        // Candidate narrowing: with +INT intersect the candidate list with
        // every constraint adjacency list at once; without it, probe each
        // candidate against each constraint individually. The result lands in
        // the pooled per-depth buffer, which survives the recursion below and
        // is returned to the pool at the end.
        let mut candidates: Vec<VertexId> = std::mem::take(&mut self.depth_buffers[depth]);
        if self.config.optimizations.intersection_joinable && !constraints.is_empty() {
            self.stats.intersection_ops += 1;
            let u_labels = &self.query.graph.vertex(u).labels;
            let mut owned: Vec<Vec<VertexId>> = Vec::new();
            let mut slices: Vec<&[VertexId]> = vec![base];
            for c in &constraints {
                match c.label {
                    Some(el) => {
                        if u_labels.len() == 1 {
                            slices.push(self.data.graph.neighbors_typed(
                                c.matched,
                                c.direction,
                                el,
                                u_labels[0],
                            ));
                        } else {
                            slices.push(self.data.graph.neighbors(c.matched, c.direction, el));
                        }
                    }
                    None => {
                        owned.push(self.data.graph.all_neighbors(c.matched, c.direction));
                    }
                }
            }
            for o in &owned {
                slices.push(o.as_slice());
            }
            let mut scratch = std::mem::take(&mut self.scratch);
            ops::intersect_k_into(&slices, &mut candidates, &mut scratch);
            self.scratch = scratch;
        } else {
            candidates.clear();
            candidates.extend_from_slice(base);
        }

        let mut emitted = 0usize;
        for &v in &candidates {
            if self.limit_reached {
                break;
            }
            // Injectivity (subgraph isomorphism only).
            if self.config.semantics == MatchSemantics::Isomorphism && self.used.contains(&v) {
                continue;
            }
            // IsJoinable probes (only needed when +INT did not already narrow).
            if !self.config.optimizations.intersection_joinable && !constraints.is_empty() {
                let mut ok = true;
                for c in &constraints {
                    self.stats.isjoinable_probes += 1;
                    if !self.edge_exists(c.matched, c.direction, c.label, v) {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
            }
            // Self loops require an edge v → v.
            if !self_loop_labels.iter().all(|label| match label {
                Some(el) => self.data.graph.has_edge(v, v, *el),
                None => !self.data.graph.edge_labels_between(v, v).is_empty(),
            }) {
                continue;
            }
            // Cheap inline filters.
            if !self.inline_filters_pass(u, v) {
                self.stats.filtered_inline += 1;
                continue;
            }

            self.mapping[u] = Some(v);
            self.step_rows[depth] += 1;
            if self.config.semantics == MatchSemantics::Isomorphism {
                self.used.insert(v);
            }
            emitted += self.search(region, depth + 1);
            self.mapping[u] = None;
            self.used.remove(&v);
        }
        self.depth_buffers[depth] = candidates;
        emitted
    }

    /// One `IsJoinable` probe: is there an edge between `from` (an already
    /// matched data vertex) and `candidate`, in `direction` as seen from
    /// `from`, carrying `label` (or any label when `None`)?
    fn edge_exists(
        &self,
        from: VertexId,
        direction: Direction,
        label: Option<ELabel>,
        candidate: VertexId,
    ) -> bool {
        match label {
            Some(el) => {
                ops::contains_sorted(self.data.graph.neighbors(from, direction, el), candidate)
            }
            None => {
                let (s, o) = match direction {
                    Direction::Outgoing => (from, candidate),
                    Direction::Incoming => (candidate, from),
                };
                !self.data.graph.edge_labels_between(s, o).is_empty()
            }
        }
    }

    /// Evaluates the cheap filters registered for query vertex `u` against
    /// the candidate data vertex `v`.
    fn inline_filters_pass(&self, u: usize, v: VertexId) -> bool {
        let filters = &self.inline_filters[u];
        if filters.is_empty() {
            return true;
        }
        let Some(var) = &self.query.graph.vertex(u).variable else {
            return true;
        };
        let Some(term) = self.term_of(v) else {
            return true;
        };
        let mut ctx = EvalContext::new();
        ctx.insert(var.clone(), term);
        filters.iter().all(|f| f.evaluate_bool(&ctx))
    }

    fn term_of(&self, v: VertexId) -> Option<Term> {
        self.data
            .mappings
            .term_of_vertex(v)
            .and_then(|tid| self.dictionary.term(tid))
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
                let labels = self.data.graph.edge_labels_between(s, o);
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

        let remaining = self
            .config
            .max_solutions
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
        if self
            .config
            .max_solutions
            .is_some_and(|m| self.solution_count >= m)
        {
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
    use crate::candidate_region::explore_candidate_region;
    use crate::config::Optimizations;
    use crate::start_vertex::choose_start_vertex;
    use turbohom_rdf::{vocab, Dataset, UNBOUND};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_query, type_aware_transform};

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
        let q = parse_query(sparql).unwrap();
        let tq = transform_query(&q.pattern, data, &ds.dictionary).unwrap();
        assert!(!tq.unsatisfiable, "query should be satisfiable");
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(data, config, &tq, &mut stats);
        let tree = QueryTree::build(&tq.graph, sel.query_vertex);
        let inline = vec![Vec::new(); tq.graph.vertex_count()];
        let layout = RowLayout::of(&tq.graph);
        let mut total = 0usize;
        let mut solutions = IdRows::new(layout.stride());
        let mut order: Option<MatchingOrder> = None;
        for &start in &sel.start_vertices {
            stats.candidate_regions += 1;
            let Some(region) =
                explore_candidate_region(data, config, &tq, &tree, start, &mut stats)
            else {
                continue;
            };
            stats.nonempty_regions += 1;
            if order.is_none() || !config.optimizations.reuse_matching_order {
                order = Some(MatchingOrder::determine(&tq, &tree, &region));
                stats.matching_orders_computed += 1;
            }
            let o = order.as_ref().unwrap();
            let mut searcher = SubgraphSearcher::new(
                data,
                config,
                &tq,
                &tree,
                o,
                &layout,
                &ds.dictionary,
                &inline,
                std::mem::take(&mut solutions),
            );
            searcher.search_region(&region, start);
            total += searcher.solution_count;
            solutions = std::mem::take(&mut searcher.rows);
            stats.merge(&searcher.stats);
            if config.max_solutions.is_some_and(|m| total >= m) {
                break;
            }
        }
        (total, solutions, stats)
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
        let data = type_aware_transform(&ds);
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
    fn max_solutions_limit_stops_early() {
        let mut ds = Dataset::new();
        for i in 0..50 {
            ds.insert_iris(&ub(&format!("s{i}")), vocab::RDF_TYPE, &ub("Student"));
        }
        let data = type_aware_transform(&ds);
        let config = TurboHomConfig {
            max_solutions: Some(7),
            ..TurboHomConfig::default()
        };
        let (count, solutions, _) = run(
            &ds,
            &data,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Student . }"#,
            &config,
        );
        assert_eq!(count, 7);
        assert_eq!(solutions.len(), 7);
    }

    #[test]
    fn count_only_mode_does_not_materialize() {
        let ds = figure1_dataset();
        let data = type_aware_transform(&ds);
        let config = TurboHomConfig {
            count_only: true,
            ..TurboHomConfig::default()
        };
        let (count, solutions, _) = run(&ds, &data, FIGURE1_QUERY, &config);
        assert_eq!(count, 3);
        assert!(solutions.is_empty());
    }
}
