//! Match results: the flat id rows the enumerator appends to, and their
//! column layout.

use crate::stats::MatchStats;
use turbohom_graph::QueryGraph;
use turbohom_rdf::IdRows;

/// The column layout of one match row: one cell per query vertex holding the
/// data vertex matched to it ([`UNBOUND`](turbohom_rdf::UNBOUND) when the
/// vertex belongs to an OPTIONAL clause that did not match — Section 5.1's
/// nullified mapping), then one cell per query edge with a variable
/// predicate, in edge order, holding the edge label the `Me` mapping of
/// Definition 2 assigned (unbound when an endpoint is).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    vertices: usize,
    variable_edges: Vec<usize>,
}

impl RowLayout {
    /// The layout of the rows a search over `query` produces.
    pub fn of(query: &QueryGraph) -> Self {
        RowLayout {
            vertices: query.vertex_count(),
            variable_edges: (0..query.edge_count())
                .filter(|&e| query.edge(e).label.is_none())
                .collect(),
        }
    }

    /// Cells per row.
    pub fn stride(&self) -> usize {
        self.vertices + self.variable_edges.len()
    }

    /// The query edges with a variable predicate, in column order.
    pub fn variable_edges(&self) -> &[usize] {
        &self.variable_edges
    }

    /// The column of query vertex `u`.
    pub fn vertex_column(&self, u: usize) -> usize {
        debug_assert!(u < self.vertices);
        u
    }

    /// The column of query edge `e`, if its predicate is a variable.
    pub fn edge_column(&self, e: usize) -> Option<usize> {
        self.variable_edges
            .iter()
            .position(|&v| v == e)
            .map(|i| self.vertices + i)
    }
}

/// The outcome of one query execution.
#[derive(Debug, Clone, Default)]
pub struct MatchResult {
    /// The solutions as data-graph ids, one row per solution in the
    /// [`RowLayout`] of the query (empty when the engine ran in count-only
    /// mode).
    pub rows: IdRows,
    /// The number of solutions found (equals `rows.len()` unless
    /// count-only mode was enabled).
    pub solution_count: usize,
    /// Execution counters.
    pub stats: MatchStats,
    /// Per matching-order position: how many partial mappings were extended
    /// at that step (the "rows produced" of each step, summed across regions
    /// and workers). Empty when the search never ran.
    pub step_rows: Vec<u64>,
    /// Per matching-order position: the candidate-count estimates that
    /// justified the order (`|CR(u)|` summed over all explored regions).
    /// Same length as [`step_rows`](MatchResult::step_rows); EXPLAIN/ANALYZE
    /// computes its per-step q-error from these two.
    pub step_estimates: Vec<u64>,
}

impl MatchResult {
    /// Number of solutions found.
    pub fn len(&self) -> usize {
        self.solution_count
    }

    /// Returns `true` if no solution was found.
    pub fn is_empty(&self) -> bool {
        self.solution_count == 0
    }
}

/// Elementwise accumulation of per-step counters, growing `dst` as needed
/// (the merge sites of the sequential and parallel run paths share it).
pub fn merge_step_counts(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_puts_variable_edges_after_the_vertices() {
        use turbohom_graph::{ELabel, QueryEdge, QueryVertex};
        let mut q = QueryGraph::new();
        let from = q.add_vertex(QueryVertex::variable("a", Vec::new()));
        let to = q.add_vertex(QueryVertex::variable("b", Vec::new()));
        for (label, variable) in [(Some(ELabel(0)), None), (None, Some("p".to_string()))] {
            q.add_edge(QueryEdge {
                from,
                to,
                label,
                variable,
            });
        }
        let layout = RowLayout::of(&q);
        assert_eq!(layout.stride(), 3);
        assert_eq!(layout.variable_edges(), [1]);
        assert_eq!(layout.vertex_column(1), 1);
        assert_eq!(layout.edge_column(0), None);
        assert_eq!(layout.edge_column(1), Some(2));
    }

    #[test]
    fn result_len_tracks_solution_count() {
        let mut r = MatchResult::default();
        assert!(r.is_empty());
        r.rows = IdRows::new(1);
        r.rows.push(&[0]);
        r.solution_count = 1;
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn step_counts_merge_elementwise_and_grow() {
        let mut dst = vec![1, 2];
        merge_step_counts(&mut dst, &[10, 20, 30]);
        assert_eq!(dst, vec![11, 22, 30]);
        merge_step_counts(&mut dst, &[]);
        assert_eq!(dst, vec![11, 22, 30]);
        let mut empty = Vec::new();
        merge_step_counts(&mut empty, &[5]);
        assert_eq!(empty, vec![5]);
    }
}
