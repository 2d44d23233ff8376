//! `WriteQueryTree` (paper Section 2.2).
//!
//! The query graph is turned into a breadth-first spanning tree rooted at
//! the starting query vertex. Tree edges drive `ExploreCandidateRegion`
//! (candidates of a child are found in the adjacency of its parent's match);
//! the remaining *non-tree* edges become the `IsJoinable` checks of
//! `SubgraphSearch`.

use turbohom_graph::{Direction, QueryGraph};

/// The tree edge connecting a query vertex to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeEdge {
    /// The parent query vertex.
    pub parent: usize,
    /// The query-graph edge index realizing the connection.
    pub edge: usize,
    /// The direction to traverse in the **data** graph when standing on the
    /// parent's matched vertex and looking for candidates of the child:
    /// `Outgoing` if the query edge runs parent → child, `Incoming` otherwise.
    pub direction: Direction,
}

/// The BFS query tree plus the non-tree edges.
#[derive(Debug, Clone)]
pub struct QueryTree {
    /// The root (starting query vertex).
    pub root: usize,
    /// `parent[u]` is the tree edge to `u`'s parent; `None` for the root and
    /// for vertices unreachable from the root.
    pub parent: Vec<Option<TreeEdge>>,
    /// Children of every vertex, in discovery order.
    pub children: Vec<Vec<usize>>,
    /// All vertices reachable from the root, in BFS order (root first).
    pub bfs_order: Vec<usize>,
    /// Indices of query edges that are **not** tree edges (including self
    /// loops). These drive `IsJoinable`.
    pub non_tree_edges: Vec<usize>,
}

impl QueryTree {
    /// Builds the BFS tree of `query` rooted at `root`.
    pub fn build(query: &QueryGraph, root: usize) -> QueryTree {
        let n = query.vertex_count();
        let mut parent: Vec<Option<TreeEdge>> = vec![None; n];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        let mut tree_edge_used = vec![false; query.edge_count()];
        // The vertices in discovery order double as the BFS queue.
        let mut bfs_order = Vec::with_capacity(n);
        let mut next = 0;

        visited[root] = true;
        bfs_order.push(root);
        while let Some(&u) = bfs_order.get(next) {
            next += 1;
            for (other, ei, dir) in query.neighbors(u) {
                if other == u {
                    continue; // self loops are never tree edges
                }
                if !visited[other] {
                    visited[other] = true;
                    tree_edge_used[ei] = true;
                    parent[other] = Some(TreeEdge {
                        parent: u,
                        edge: ei,
                        direction: dir,
                    });
                    children[u].push(other);
                    bfs_order.push(other);
                }
            }
        }

        let non_tree_edges = (0..query.edge_count())
            .filter(|&ei| !tree_edge_used[ei])
            .collect();

        QueryTree {
            root,
            parent,
            children,
            bfs_order,
            non_tree_edges,
        }
    }

    /// Returns `true` if every query vertex is reachable from the root.
    pub fn spans(&self, query: &QueryGraph) -> bool {
        self.bfs_order.len() == query.vertex_count()
    }

    /// The tree depth of vertex `u` (root = 0). Vertices not reachable from
    /// the root return `None`.
    pub fn depth(&self, u: usize) -> Option<usize> {
        if u == self.root {
            return Some(0);
        }
        let mut depth = 0usize;
        let mut current = u;
        while let Some(edge) = self.parent[current] {
            depth += 1;
            current = edge.parent;
            if current == self.root {
                return Some(depth);
            }
            if depth > self.parent.len() {
                return None; // defensive: malformed tree
            }
        }
        None
    }

    /// The non-tree edges incident to `u`, as `(edge index, direction from u)`.
    pub fn non_tree_edges_of<'a>(
        &'a self,
        query: &'a QueryGraph,
        u: usize,
    ) -> impl Iterator<Item = (usize, Direction)> + 'a {
        self.non_tree_edges.iter().filter_map(move |&ei| {
            let e = query.edge(ei);
            if e.from == u {
                Some((ei, Direction::Outgoing))
            } else if e.to == u {
                Some((ei, Direction::Incoming))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_graph::{ELabel, QueryEdge, QueryVertex, VLabel};

    /// The triangle query of Figure 8: u0 -a-> u1, u0 -b-> u2, u2 -c-> u1.
    fn triangle() -> QueryGraph {
        let mut q = QueryGraph::new();
        for i in 0..3u32 {
            q.add_vertex(QueryVertex::variable(format!("v{i}"), vec![VLabel(i)]));
        }
        q.add_edge(QueryEdge {
            from: 0,
            to: 1,
            label: Some(ELabel(0)),
            variable: None,
        });
        q.add_edge(QueryEdge {
            from: 0,
            to: 2,
            label: Some(ELabel(1)),
            variable: None,
        });
        q.add_edge(QueryEdge {
            from: 2,
            to: 1,
            label: Some(ELabel(2)),
            variable: None,
        });
        q
    }

    #[test]
    fn triangle_from_u0_has_one_non_tree_edge() {
        let q = triangle();
        let t = QueryTree::build(&q, 0);
        assert_eq!(t.root, 0);
        assert!(t.spans(&q));
        assert_eq!(t.bfs_order, vec![0, 1, 2]);
        assert_eq!(t.non_tree_edges, vec![2]);
        assert_eq!(t.children[0], vec![1, 2]);
        let p1 = t.parent[1].unwrap();
        assert_eq!(p1.parent, 0);
        assert_eq!(p1.direction, Direction::Outgoing);
    }

    #[test]
    fn triangle_from_u1_orients_tree_edges_correctly() {
        let q = triangle();
        let t = QueryTree::build(&q, 1);
        assert!(t.spans(&q));
        // u1 has only incoming edges, so both children are reached over
        // Incoming tree edges.
        for &child in &t.children[1] {
            assert_eq!(t.parent[child].unwrap().direction, Direction::Incoming);
        }
        assert_eq!(t.non_tree_edges.len(), 1);
    }

    #[test]
    fn star_query_has_no_non_tree_edges() {
        // Figure 2 query: u0 connected to u1, u2, u3.
        let mut q = QueryGraph::new();
        for i in 0..4 {
            q.add_vertex(QueryVertex::variable(format!("v{i}"), vec![]));
        }
        for i in 1..4 {
            q.add_edge(QueryEdge {
                from: 0,
                to: i,
                label: Some(ELabel(0)),
                variable: None,
            });
        }
        let t = QueryTree::build(&q, 0);
        assert!(t.non_tree_edges.is_empty());
        assert_eq!(t.children[0].len(), 3);
        assert_eq!(t.depth(0), Some(0));
        assert_eq!(t.depth(3), Some(1));
    }

    #[test]
    fn depth_follows_parent_chain() {
        // Path query: 0 → 1 → 2 → 3.
        let mut q = QueryGraph::new();
        for i in 0..4 {
            q.add_vertex(QueryVertex::variable(format!("v{i}"), vec![]));
        }
        for i in 0..3 {
            q.add_edge(QueryEdge {
                from: i,
                to: i + 1,
                label: Some(ELabel(0)),
                variable: None,
            });
        }
        let t = QueryTree::build(&q, 0);
        assert_eq!(t.depth(3), Some(3));
        let t2 = QueryTree::build(&q, 3);
        assert_eq!(t2.depth(0), Some(3));
        assert_eq!(t2.parent[2].unwrap().direction, Direction::Incoming);
    }

    #[test]
    fn self_loop_is_a_non_tree_edge() {
        let mut q = QueryGraph::new();
        q.add_vertex(QueryVertex::blank());
        q.add_edge(QueryEdge {
            from: 0,
            to: 0,
            label: Some(ELabel(0)),
            variable: None,
        });
        let t = QueryTree::build(&q, 0);
        assert!(t.spans(&q));
        assert_eq!(t.non_tree_edges, vec![0]);
    }

    #[test]
    fn disconnected_query_does_not_span() {
        let mut q = QueryGraph::new();
        q.add_vertex(QueryVertex::blank());
        q.add_vertex(QueryVertex::blank());
        let t = QueryTree::build(&q, 0);
        assert!(!t.spans(&q));
        assert_eq!(t.bfs_order, vec![0]);
        assert_eq!(t.depth(1), None);
    }

    #[test]
    fn non_tree_edges_of_reports_direction_per_endpoint() {
        let q = triangle();
        let t = QueryTree::build(&q, 0);
        let of_u2: Vec<_> = t.non_tree_edges_of(&q, 2).collect();
        assert_eq!(of_u2, vec![(2, Direction::Outgoing)]);
        let of_u1: Vec<_> = t.non_tree_edges_of(&q, 1).collect();
        assert_eq!(of_u1, vec![(2, Direction::Incoming)]);
        let of_u0: Vec<_> = t.non_tree_edges_of(&q, 0).collect();
        assert!(of_u0.is_empty());
    }
}
