//! `DetermineMatchingOrder` (paper Section 2.2) plus the clause layout the
//! OPTIONAL strategy needs.
//!
//! Given the candidate counts of one region, the matching order is a
//! permutation of the query vertices such that
//!
//! 1. the query-tree parent of every vertex precedes it (so `CR(u, M(P(u)))`
//!    can be looked up during the search),
//! 2. among siblings, subtrees with fewer candidate vertices are matched
//!    first (the paper's "order query paths by the number of candidate
//!    vertices", which fails fast on the most selective paths),
//! 3. all *required* vertices precede all OPTIONAL-clause vertices, and each
//!    clause's vertices (together with its nested clauses) form one
//!    contiguous block — which is what lets `SubgraphSearch` fall back to a
//!    "clause nullified" continuation when a clause cannot be matched
//!    (Section 5.1).
//!
//! With the `+REUSE` optimization the order is computed for the first
//! non-empty candidate region only and reused for all others (Section 4.3).

use crate::candidate_region::CandidateRegion;
use crate::query_tree::QueryTree;
use turbohom_transform::TransformedQuery;

/// One OPTIONAL clause's contiguous block in the matching order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClauseBlock {
    /// The clause id (index into `TransformedQuery::clause_parents`).
    pub clause: usize,
    /// First position (inclusive) of the block in the order. The block also
    /// covers all nested clauses of this clause.
    pub start: usize,
    /// One past the last position of the block.
    pub end: usize,
}

/// The matching order for one (or, with `+REUSE`, every) candidate region.
#[derive(Debug, Clone)]
pub struct MatchingOrder {
    /// Query vertices in matching order (the root is first).
    pub order: Vec<usize>,
    /// Inverse permutation: `position[u]` is the index of `u` in `order`.
    pub position: Vec<usize>,
    /// The clause blocks, indexed by clause id.
    pub clause_blocks: Vec<ClauseBlock>,
    /// For each order position: `Some(clause)` if this position starts the
    /// block of `clause` (i.e. it is the outermost clause beginning here).
    pub clause_start_at: Vec<Option<usize>>,
}

impl MatchingOrder {
    /// Computes the matching order for `region`.
    pub fn determine(
        query: &TransformedQuery,
        tree: &QueryTree,
        region: &CandidateRegion,
    ) -> MatchingOrder {
        let n = query.graph.vertex_count();
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut placed = vec![false; n];

        // --- Phase A: required vertices, DFS over the tree, cheapest
        // subtree first.
        let subtree_cost = compute_subtree_costs(query, tree, region);
        place_required_dfs(
            query,
            tree,
            tree.root,
            &subtree_cost,
            &mut order,
            &mut placed,
        );

        // --- Phase B: optional clauses, clause forest in DFS order, each
        // clause contiguous and followed immediately by its nested clauses.
        let clause_count = query.clause_parents.len();
        let mut clause_children: Vec<Vec<usize>> = vec![Vec::new(); clause_count];
        let mut clause_roots: Vec<usize> = Vec::new();
        for (c, parent) in query.clause_parents.iter().enumerate() {
            match parent {
                Some(p) => clause_children[*p].push(c),
                None => clause_roots.push(c),
            }
        }
        let mut clause_blocks: Vec<ClauseBlock> = (0..clause_count)
            .map(|c| ClauseBlock {
                clause: c,
                start: 0,
                end: 0,
            })
            .collect();
        for &root_clause in &clause_roots {
            place_clause_dfs(
                query,
                tree,
                root_clause,
                &clause_children,
                &subtree_cost,
                &mut order,
                &mut placed,
                &mut clause_blocks,
            );
        }

        // --- Phase C: defensive sweep for anything not yet placed (vertices
        // unreachable from the root never appear; the engine rejects such
        // queries earlier).
        for u in tree.bfs_order.iter().copied() {
            if !placed[u] {
                placed[u] = true;
                order.push(u);
            }
        }

        let mut position = vec![usize::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            position[u] = i;
        }
        let mut clause_start_at = vec![None; order.len()];
        // The *outermost* clause starting at a position wins (nested clauses
        // start inside their parent's block).
        for block in clause_blocks.iter().rev() {
            if block.end > block.start {
                clause_start_at[block.start] = Some(block.clause);
            }
        }

        MatchingOrder {
            order,
            position,
            clause_blocks,
            clause_start_at,
        }
    }

    /// The number of query vertices in the order.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// Total candidate count of the subtree rooted at every query vertex.
fn compute_subtree_costs(
    query: &TransformedQuery,
    tree: &QueryTree,
    region: &CandidateRegion,
) -> Vec<usize> {
    let n = query.graph.vertex_count();
    let mut cost = vec![0usize; n];
    // bfs_order is parent-before-child, so accumulate in reverse.
    for &u in tree.bfs_order.iter().rev() {
        let mut total = region.count(u).max(1);
        for &c in &tree.children[u] {
            total += cost[c];
        }
        cost[u] = total;
    }
    cost
}

/// DFS over the required part, visiting cheaper subtrees first.
fn place_required_dfs(
    query: &TransformedQuery,
    tree: &QueryTree,
    u: usize,
    subtree_cost: &[usize],
    order: &mut Vec<usize>,
    placed: &mut [bool],
) {
    if query.vertex_clause[u].is_some() || placed[u] {
        return;
    }
    placed[u] = true;
    order.push(u);
    let mut children: Vec<usize> = tree.children[u]
        .iter()
        .copied()
        .filter(|&c| query.vertex_clause[c].is_none())
        .collect();
    children.sort_by_key(|&c| subtree_cost[c]);
    for c in children {
        place_required_dfs(query, tree, c, subtree_cost, order, placed);
    }
}

/// Places one clause's vertices (respecting parent-before-child within the
/// already-placed prefix), then recurses into its nested clauses, recording
/// the block extent.
#[allow(clippy::too_many_arguments)]
fn place_clause_dfs(
    query: &TransformedQuery,
    tree: &QueryTree,
    clause: usize,
    clause_children: &[Vec<usize>],
    subtree_cost: &[usize],
    order: &mut Vec<usize>,
    placed: &mut [bool],
    blocks: &mut [ClauseBlock],
) {
    let start = order.len();
    // Vertices of exactly this clause, reachable from the root.
    let mut remaining: Vec<usize> = tree
        .bfs_order
        .iter()
        .copied()
        .filter(|&u| query.vertex_clause[u] == Some(clause) && !placed[u])
        .collect();
    // Repeatedly place a vertex whose tree parent is already placed,
    // preferring the cheapest subtree.
    while !remaining.is_empty() {
        remaining.sort_by_key(|&u| subtree_cost[u]);
        let next = remaining
            .iter()
            .position(|&u| tree.parent[u].map(|e| placed[e.parent]).unwrap_or(true));
        match next {
            Some(i) => {
                let u = remaining.remove(i);
                placed[u] = true;
                order.push(u);
            }
            None => {
                // Parent not placed yet (it lives in a clause processed
                // later); place anyway to guarantee termination — the engine
                // treats a missing parent mapping as "clause cannot match".
                let u = remaining.remove(0);
                placed[u] = true;
                order.push(u);
            }
        }
    }
    for &child in &clause_children[clause] {
        place_clause_dfs(
            query,
            tree,
            child,
            clause_children,
            subtree_cost,
            order,
            placed,
            blocks,
        );
    }
    blocks[clause] = ClauseBlock {
        clause,
        start,
        end: order.len(),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TurboHomConfig;
    use crate::start_vertex;
    use crate::stats::MatchStats;
    use turbohom_rdf::{vocab, Dataset};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_branch, type_aware_transform, TransformedGraph};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// Figure 2-style data: a0 fans out to 10 X, 50 Y and 5 Z vertices.
    fn star_data() -> (Dataset, TransformedGraph) {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a0"), vocab::RDF_TYPE, &ub("A"));
        for (class, count) in [("X", 10usize), ("Y", 50), ("Z", 5)] {
            for i in 0..count {
                let v = ub(&format!("{class}{i}"));
                ds.insert_iris(&v, vocab::RDF_TYPE, &ub(class));
                ds.insert_iris(&ub("a0"), &ub("edge"), &v);
            }
        }
        let t = type_aware_transform(&ds);
        (ds, t)
    }

    fn prepare(
        ds: &Dataset,
        t: &TransformedGraph,
        sparql: &str,
    ) -> (TransformedQuery, QueryTree, CandidateRegion) {
        let q = parse_query(sparql).unwrap();
        let tq = transform_branch(&q.pattern, t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let config = TurboHomConfig::default();
        let mut stats = MatchStats::default();
        let sel = start_vertex::choose_start_vertex(t, &config, &tq, None, &mut stats);
        let tree = QueryTree::build(&tq.graph, sel.query_vertex);
        let region = crate::candidate_region::explore_candidate_region(
            t,
            &ds.dictionary,
            &config,
            &tq,
            &tree,
            sel.start_vertices[0],
            &mut stats,
        )
        .expect("non-empty region");
        (tq, tree, region)
    }

    #[test]
    fn cheapest_path_is_matched_first() {
        let (ds, t) = star_data();
        let (tq, tree, region) = prepare(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?a ?x ?y ?z WHERE {
                 ?a rdf:type ub:A . ?x rdf:type ub:X . ?y rdf:type ub:Y . ?z rdf:type ub:Z .
                 ?a ub:edge ?x . ?a ub:edge ?y . ?a ub:edge ?z .
               }"#,
        );
        let order = MatchingOrder::determine(&tq, &tree, &region);
        assert_eq!(order.len(), 4);
        // Root first, then Z (5 candidates), X (10), Y (50) — the paper's
        // < u0, u3, u1, u2 > order of Figure 2.
        let names: Vec<&str> = order
            .order
            .iter()
            .map(|&u| tq.graph.vertex(u).variable.as_deref().unwrap())
            .collect();
        assert_eq!(names, vec!["a", "z", "x", "y"]);
        // position[] is the inverse permutation.
        for (i, &u) in order.order.iter().enumerate() {
            assert_eq!(order.position[u], i);
        }
        assert_eq!(tree.root, order.order[0]);
    }

    #[test]
    fn parent_always_precedes_child() {
        let (ds, t) = star_data();
        let (tq, tree, region) = prepare(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?a ?x WHERE { ?a rdf:type ub:A . ?x rdf:type ub:X . ?a ub:edge ?x . }"#,
        );
        let order = MatchingOrder::determine(&tq, &tree, &region);
        for &u in &order.order {
            if let Some(edge) = tree.parent[u] {
                assert!(order.position[edge.parent] < order.position[u]);
            }
        }
    }

    #[test]
    fn optional_vertices_come_last_in_contiguous_blocks() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Product"));
        ds.insert_iris(&ub("p1"), &ub("price"), &ub("v100"));
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("v5"));
        ds.insert_iris(&ub("p1"), &ub("homepage"), &ub("hp"));
        let t = type_aware_transform(&ds);
        let (tq, tree, region) = prepare(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?price ?r ?h WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . OPTIONAL { ?p ub:homepage ?h . } }
               }"#,
        );
        let order = MatchingOrder::determine(&tq, &tree, &region);
        // Query vertices: ?p, ?price, ?r, ?h (the type triple is folded).
        assert_eq!(order.len(), 4);
        // The first positions are required, the rest optional.
        let clauses_in_order: Vec<Option<usize>> =
            order.order.iter().map(|&u| tq.vertex_clause[u]).collect();
        let first_optional = clauses_in_order.iter().position(|c| c.is_some()).unwrap();
        assert!(clauses_in_order[..first_optional]
            .iter()
            .all(|c| c.is_none()));
        assert!(clauses_in_order[first_optional..]
            .iter()
            .all(|c| c.is_some()));
        // Clause blocks: clause 0 (rating) spans its own vertex and the
        // nested clause 1 (homepage); clause 1 is nested inside it.
        let b0 = order.clause_blocks[0];
        let b1 = order.clause_blocks[1];
        assert_eq!(b0.start, first_optional);
        assert_eq!(b0.end, order.len());
        assert!(b1.start >= b0.start && b1.end <= b0.end);
        assert_eq!(order.clause_start_at[b0.start], Some(0));
        // The nested block does not own the outer start position.
        if b1.start != b0.start {
            assert_eq!(order.clause_start_at[b1.start], Some(1));
        }
    }

    #[test]
    fn sibling_clauses_get_disjoint_blocks() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Product"));
        ds.insert_iris(&ub("p1"), &ub("price"), &ub("v100"));
        ds.insert_iris(&ub("p1"), &ub("rating"), &ub("v5"));
        ds.insert_iris(&ub("p1"), &ub("homepage"), &ub("hp"));
        let t = type_aware_transform(&ds);
        let (tq, tree, region) = prepare(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?price ?r ?h WHERE {
                 ?p rdf:type ub:Product . ?p ub:price ?price .
                 OPTIONAL { ?p ub:rating ?r . }
                 OPTIONAL { ?p ub:homepage ?h . }
               }"#,
        );
        let order = MatchingOrder::determine(&tq, &tree, &region);
        let b0 = order.clause_blocks[0];
        let b1 = order.clause_blocks[1];
        assert!(
            b0.end <= b1.start || b1.end <= b0.start,
            "blocks overlap: {b0:?} {b1:?}"
        );
        assert_eq!(b0.end - b0.start, 1);
        assert_eq!(b1.end - b1.start, 1);
    }
}
