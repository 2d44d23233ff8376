//! The query-graph representation with the two-attribute vertex model
//! (paper Section 4.1).
//!
//! A query vertex carries
//!
//! * a **label attribute** — the set of vertex labels (classes) it must be a
//!   subset of on the matched data vertex, possibly empty;
//! * an **ID attribute** — an optional bound data vertex (a constant subject
//!   or object in the SPARQL query, e.g. `<http://univ0.edu>`);
//! * an optional variable name, used to project results.
//!
//! A query edge carries an optional edge label; `None` means a *variable
//! predicate*, which the e-graph homomorphism answers through the `Me`
//! edge-label mapping (Definition 2).

use crate::ids::{Direction, ELabel, VLabel, VertexId};

/// A query vertex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryVertex {
    /// The label attribute: every listed label must be carried by the data
    /// vertex this query vertex maps to.
    pub labels: Vec<VLabel>,
    /// The ID attribute: if set, the query vertex can only map to exactly
    /// this data vertex.
    pub bound: Option<VertexId>,
    /// The SPARQL variable this vertex corresponds to (for projection);
    /// `None` for constant vertices.
    pub variable: Option<String>,
}

impl QueryVertex {
    /// A variable query vertex with the given labels.
    pub fn variable(name: impl Into<String>, labels: Vec<VLabel>) -> Self {
        QueryVertex {
            labels: canonical(labels),
            bound: None,
            variable: Some(name.into()),
        }
    }

    /// A constant query vertex bound to a specific data vertex.
    pub fn constant(bound: VertexId, labels: Vec<VLabel>) -> Self {
        QueryVertex {
            labels: canonical(labels),
            bound: Some(bound),
            variable: None,
        }
    }

    /// An anonymous unconstrained vertex (blank label set, no ID).
    pub fn blank() -> Self {
        QueryVertex::default()
    }
}

fn canonical(mut labels: Vec<VLabel>) -> Vec<VLabel> {
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// A directed query edge between two query vertices (by index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryEdge {
    /// Index of the source query vertex.
    pub from: usize,
    /// Index of the target query vertex.
    pub to: usize,
    /// The edge label, or `None` for a variable predicate.
    pub label: Option<ELabel>,
    /// The SPARQL variable bound to the predicate, if any.
    pub variable: Option<String>,
}

/// A query graph: vertices, edges and per-vertex incidence lists.
#[derive(Debug, Clone, Default)]
pub struct QueryGraph {
    vertices: Vec<QueryVertex>,
    edges: Vec<QueryEdge>,
    /// Per vertex: (edge index, direction as seen from this vertex).
    incidence: Vec<Vec<(usize, Direction)>>,
}

impl QueryGraph {
    /// Creates an empty query graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex and returns its index.
    pub fn add_vertex(&mut self, vertex: QueryVertex) -> usize {
        self.vertices.push(vertex);
        self.incidence.push(Vec::new());
        self.vertices.len() - 1
    }

    /// Adds an edge and returns its index.
    ///
    /// # Panics
    /// Panics if either endpoint index is out of range.
    pub fn add_edge(&mut self, edge: QueryEdge) -> usize {
        assert!(edge.from < self.vertices.len(), "edge.from out of range");
        assert!(edge.to < self.vertices.len(), "edge.to out of range");
        let idx = self.edges.len();
        self.incidence[edge.from].push((idx, Direction::Outgoing));
        if edge.to != edge.from {
            self.incidence[edge.to].push((idx, Direction::Incoming));
        }
        self.edges.push(edge);
        idx
    }

    /// Number of query vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of query edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The vertex at `index`.
    pub fn vertex(&self, index: usize) -> &QueryVertex {
        &self.vertices[index]
    }

    /// All vertices.
    pub fn vertices(&self) -> &[QueryVertex] {
        &self.vertices
    }

    /// The edge at `index`.
    pub fn edge(&self, index: usize) -> &QueryEdge {
        &self.edges[index]
    }

    /// All edges.
    pub fn edges(&self) -> &[QueryEdge] {
        &self.edges
    }

    /// The degree of query vertex `u` (in + out).
    pub fn degree(&self, u: usize) -> usize {
        self.incidence[u].len()
    }

    /// Iterates `(neighbor vertex, edge index, direction from u)` for vertex `u`.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, usize, Direction)> + '_ {
        self.incidence[u].iter().map(move |&(ei, dir)| {
            let e = &self.edges[ei];
            let other = match dir {
                Direction::Outgoing => e.to,
                Direction::Incoming => e.from,
            };
            (other, ei, dir)
        })
    }

    /// The distinct neighbor-type constraints of query vertex `u`:
    /// `(direction, edge label, neighbor's label set)` per incident edge.
    /// Used by the degree and NLF filters.
    pub fn neighbor_constraints(
        &self,
        u: usize,
    ) -> impl Iterator<Item = (Direction, Option<ELabel>, &[VLabel])> + '_ {
        self.neighbors(u).map(move |(other, ei, dir)| {
            (
                dir,
                self.edges[ei].label,
                self.vertices[other].labels.as_slice(),
            )
        })
    }

    /// Returns `true` if the query graph is connected (ignoring direction).
    /// Disconnected query graphs correspond to cartesian products, which the
    /// matcher rejects up front.
    pub fn is_connected(&self) -> bool {
        if self.vertices.len() <= 1 {
            return true;
        }
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (other, _, _) in self.neighbors(u) {
                if !seen[other] {
                    seen[other] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == self.vertices.len()
    }

    /// The variable names of all vertices and edges, in first-appearance
    /// order (used to build result headers).
    pub fn variables(&self) -> Vec<String> {
        let mut vars = Vec::new();
        for v in &self.vertices {
            if let Some(name) = &v.variable {
                if !vars.contains(name) {
                    vars.push(name.clone());
                }
            }
        }
        for e in &self.edges {
            if let Some(name) = &e.variable {
                if !vars.contains(name) {
                    vars.push(name.clone());
                }
            }
        }
        vars
    }

    /// Returns the index of the vertex bound to `var`, if any.
    pub fn vertex_of_variable(&self, var: &str) -> Option<usize> {
        self.vertices
            .iter()
            .position(|v| v.variable.as_deref() == Some(var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the query graph of paper Figure 8 (type-aware transformed):
    /// u0 {B} --a--> u1 {C}; u0 --b--> u2 {D}; u2 --c--> u1.
    fn figure8_query() -> QueryGraph {
        let mut q = QueryGraph::new();
        let u0 = q.add_vertex(QueryVertex::variable("X", vec![VLabel(1)]));
        let u1 = q.add_vertex(QueryVertex::variable("Y", vec![VLabel(2)]));
        let u2 = q.add_vertex(QueryVertex::variable("Z", vec![VLabel(3)]));
        q.add_edge(QueryEdge {
            from: u0,
            to: u1,
            label: Some(ELabel(0)),
            variable: None,
        });
        q.add_edge(QueryEdge {
            from: u0,
            to: u2,
            label: Some(ELabel(1)),
            variable: None,
        });
        q.add_edge(QueryEdge {
            from: u2,
            to: u1,
            label: Some(ELabel(2)),
            variable: None,
        });
        q
    }

    #[test]
    fn construction_counts() {
        let q = figure8_query();
        assert_eq!(q.vertex_count(), 3);
        assert_eq!(q.edge_count(), 3);
        assert_eq!(q.degree(0), 2);
        assert_eq!(q.degree(1), 2);
        assert_eq!(q.degree(2), 2);
    }

    #[test]
    fn neighbors_and_directions() {
        let q = figure8_query();
        let n0: Vec<(usize, usize, Direction)> = q.neighbors(0).collect();
        assert_eq!(n0.len(), 2);
        assert!(n0.contains(&(1, 0, Direction::Outgoing)));
        assert!(n0.contains(&(2, 1, Direction::Outgoing)));
        let n1: Vec<(usize, usize, Direction)> = q.neighbors(1).collect();
        assert!(n1.contains(&(0, 0, Direction::Incoming)));
        assert!(n1.contains(&(2, 2, Direction::Incoming)));
    }

    #[test]
    fn neighbor_constraints_expose_labels() {
        let q = figure8_query();
        let cons: Vec<_> = q.neighbor_constraints(0).collect();
        assert_eq!(cons.len(), 2);
        assert!(cons.iter().any(|(d, el, ls)| *d == Direction::Outgoing
            && *el == Some(ELabel(0))
            && *ls == [VLabel(2)]));
    }

    #[test]
    fn connectivity() {
        let q = figure8_query();
        assert!(q.is_connected());
        let mut disconnected = QueryGraph::new();
        disconnected.add_vertex(QueryVertex::blank());
        disconnected.add_vertex(QueryVertex::blank());
        assert!(!disconnected.is_connected());
        let empty = QueryGraph::new();
        assert!(empty.is_connected());
    }

    #[test]
    fn variables_in_order_without_duplicates() {
        let mut q = figure8_query();
        q.add_edge(QueryEdge {
            from: 0,
            to: 1,
            label: None,
            variable: Some("P".into()),
        });
        assert_eq!(q.variables(), vec!["X", "Y", "Z", "P"]);
        assert_eq!(q.vertex_of_variable("Z"), Some(2));
        assert_eq!(q.vertex_of_variable("W"), None);
    }

    #[test]
    fn vertex_constructors_canonicalize_labels() {
        let v = QueryVertex::variable("x", vec![VLabel(2), VLabel(0), VLabel(2)]);
        assert_eq!(v.labels, vec![VLabel(0), VLabel(2)]);
        let c = QueryVertex::constant(VertexId(3), vec![]);
        assert_eq!(c.bound, Some(VertexId(3)));
        assert!(c.variable.is_none());
        let b = QueryVertex::blank();
        assert!(b.labels.is_empty() && b.bound.is_none() && b.variable.is_none());
    }

    #[test]
    fn self_loop_incidence_recorded_once() {
        let mut q = QueryGraph::new();
        let u = q.add_vertex(QueryVertex::blank());
        q.add_edge(QueryEdge {
            from: u,
            to: u,
            label: Some(ELabel(0)),
            variable: None,
        });
        assert_eq!(q.degree(u), 1);
        assert!(q.is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut q = QueryGraph::new();
        q.add_vertex(QueryVertex::blank());
        q.add_edge(QueryEdge {
            from: 0,
            to: 5,
            label: None,
            variable: None,
        });
    }
}
