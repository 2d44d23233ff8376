//! SPARQL group pattern → query graph transformation.
//!
//! Under the **direct** transformation every triple pattern becomes a query
//! edge and every distinct term/variable becomes a query vertex (Figure 5b).
//! Under the **type-aware** transformation, a required `?x rdf:type <Class>`
//! pattern is folded into the label set of `?x`'s query vertex and produces
//! no edge (Figure 8) — the reduction that makes candidate regions smaller.
//! Every other schema pattern — a variable class, a type pattern inside an
//! OPTIONAL, an `rdfs:subClassOf` pattern — is an ordinary query edge whose
//! label is the folded predicate's, which the data graph reads back from its
//! labels and subclass pairs.
//!
//! OPTIONAL clauses are part of the same query graph: their vertices and
//! edges are annotated with a *clause id* so the matcher can apply the
//! nullify-and-keep-searching strategy of Section 5.1. FILTER expressions
//! are collected and handed to the engine, which applies cheap ones during
//! matching and expensive ones afterwards.
//!
//! UNION constructs must be expanded (via
//! [`GroupPattern::expand_unions`](turbohom_sparql::GroupPattern::expand_unions))
//! before calling [`transform_query`]; passing a group that still contains
//! unions is an error.

use crate::common::{TransformError, TransformKind, TransformedGraph};
use std::collections::HashMap;
use turbohom_graph::{Direction, ELabel, QueryEdge, QueryGraph, QueryVertex, VLabel, VertexId};
use turbohom_rdf::{vocab, Dictionary, Term};
use turbohom_sparql::{Expression, GroupPattern, SparqlTerm};

/// A query graph plus the clause/filter metadata the engine needs.
#[derive(Debug, Clone)]
pub struct TransformedQuery {
    /// The query graph (two-attribute vertices).
    pub graph: QueryGraph,
    /// `true` if some constant in the query does not occur in the data at
    /// all — the result set is empty and the engine can return immediately.
    pub unsatisfiable: bool,
    /// For every query vertex: the OPTIONAL clause it belongs to, or `None`
    /// for the required part. A vertex shared between the required part and
    /// an OPTIONAL clause is required.
    pub vertex_clause: Vec<Option<usize>>,
    /// For every query edge: the OPTIONAL clause it belongs to.
    pub edge_clause: Vec<Option<usize>>,
    /// For every OPTIONAL clause: its parent clause (`None` = attached to the
    /// required part). Nested OPTIONALs form a forest.
    pub clause_parents: Vec<Option<usize>>,
    /// All FILTER expressions of the query (required part and OPTIONALs).
    pub filters: Vec<Expression>,
}

impl TransformedQuery {
    /// Number of OPTIONAL clauses.
    pub fn clause_count(&self) -> usize {
        self.clause_parents.len()
    }

    /// Returns `true` if the query has any OPTIONAL clause.
    pub fn has_optionals(&self) -> bool {
        !self.clause_parents.is_empty()
    }

    /// The edges of query vertex `u` that demand a data edge of `u`'s image,
    /// as `(other end, edge, direction from u)`: those whose other end is
    /// matched whenever `u` is — a required vertex, or one of `u`'s own
    /// OPTIONAL clause. An edge into a clause `u` is not part of demands
    /// nothing of `u`.
    pub fn demands(&self, u: usize) -> impl Iterator<Item = (usize, usize, Direction)> + '_ {
        let clause = self.vertex_clause[u];
        (self.graph.neighbors(u)).filter(move |&(other, ..)| {
            let theirs = self.vertex_clause[other];
            theirs.is_none() || theirs == clause
        })
    }
}

/// Internal mutable draft of a query vertex.
#[derive(Debug, Clone, Default)]
struct VertexDraft {
    labels: Vec<VLabel>,
    bound: Option<VertexId>,
    variable: Option<String>,
    clause: Option<usize>,
    clause_set: bool,
}

/// Internal mutable draft of a query edge.
#[derive(Debug, Clone)]
struct EdgeDraft {
    from: usize,
    to: usize,
    label: Option<ELabel>,
    variable: Option<String>,
    clause: Option<usize>,
}

struct QueryBuilder<'a> {
    data: &'a TransformedGraph,
    dictionary: &'a Dictionary,
    vertices: Vec<VertexDraft>,
    edges: Vec<EdgeDraft>,
    var_map: HashMap<String, usize>,
    const_map: HashMap<Term, usize>,
    clause_parents: Vec<Option<usize>>,
    filters: Vec<Expression>,
    unsatisfiable: bool,
}

impl<'a> QueryBuilder<'a> {
    fn new(data: &'a TransformedGraph, dictionary: &'a Dictionary) -> Self {
        QueryBuilder {
            data,
            dictionary,
            vertices: Vec::new(),
            edges: Vec::new(),
            var_map: HashMap::new(),
            const_map: HashMap::new(),
            clause_parents: Vec::new(),
            filters: Vec::new(),
            unsatisfiable: false,
        }
    }

    /// Returns (creating if necessary) the vertex index for a subject/object
    /// position, and records the clause in which it first appeared.
    fn vertex_for(&mut self, term: &SparqlTerm, clause: Option<usize>) -> usize {
        let idx = match term {
            SparqlTerm::Variable(name) => {
                if let Some(&i) = self.var_map.get(name) {
                    i
                } else {
                    let i = self.vertices.len();
                    self.vertices.push(VertexDraft {
                        variable: Some(name.clone()),
                        ..VertexDraft::default()
                    });
                    self.var_map.insert(name.clone(), i);
                    i
                }
            }
            SparqlTerm::Constant(t) => {
                if let Some(&i) = self.const_map.get(t) {
                    i
                } else {
                    let i = self.vertices.len();
                    let bound = match self.dictionary.id_of(t) {
                        Some(term) => Some(VertexId::of_term(term)),
                        None => {
                            // The constant is no term of the data.
                            // In the required part this makes the whole query
                            // unsatisfiable; inside an OPTIONAL clause it only
                            // means that clause can never match. Either way
                            // the vertex is pinned to a sentinel id no data
                            // vertex can equal, so it never matches anything.
                            if clause.is_none() {
                                self.unsatisfiable = true;
                            }
                            Some(VertexId(u32::MAX))
                        }
                    };
                    self.vertices.push(VertexDraft {
                        bound,
                        ..VertexDraft::default()
                    });
                    self.const_map.insert(t.clone(), i);
                    i
                }
            }
        };
        // Required part wins over optional clauses; the first clause wins
        // among optionals.
        if !self.vertices[idx].clause_set {
            self.vertices[idx].clause = clause;
            self.vertices[idx].clause_set = true;
        } else if clause.is_none() {
            self.vertices[idx].clause = None;
        }
        idx
    }

    fn add_group(
        &mut self,
        group: &GroupPattern,
        clause: Option<usize>,
    ) -> Result<(), TransformError> {
        if !group.unions.is_empty() {
            return Err(TransformError::UnsupportedTerm(
                "UNION must be expanded before query transformation".into(),
            ));
        }
        for pattern in &group.triples {
            self.add_triple(pattern, clause);
        }
        self.filters.extend(group.filters.iter().cloned());
        for optional in &group.optionals {
            let id = self.clause_parents.len();
            self.clause_parents.push(clause);
            self.add_group(optional, Some(id))?;
        }
        Ok(())
    }

    fn add_triple(&mut self, pattern: &turbohom_sparql::TriplePattern, clause: Option<usize>) {
        let predicate = pattern.predicate.as_constant().and_then(Term::as_iri);
        if self.data.kind == TransformKind::TypeAware
            && predicate == Some(vocab::RDF_TYPE)
            && clause.is_none()
        {
            if let SparqlTerm::Constant(class) = &pattern.object {
                return self.fold_type_pattern(&pattern.subject, class);
            }
        }
        // Ordinary pattern: subject --predicate--> object. A schema
        // predicate the type-aware graph folds is one too: its edge label
        // names the folded triples.
        let s = self.vertex_for(&pattern.subject, clause);
        let o = self.vertex_for(&pattern.object, clause);
        let (label, variable) = match &pattern.predicate {
            SparqlTerm::Variable(name) => (None, Some(name.clone())),
            SparqlTerm::Constant(t) => {
                let el = self
                    .dictionary
                    .id_of(t)
                    .and_then(|id| self.data.mappings.elabel_of(id));
                let el = match el {
                    Some(el) => el,
                    None => {
                        // The predicate never occurs in the data. Required
                        // part: the query is unsatisfiable. OPTIONAL clause:
                        // only that clause can never match. The sentinel edge
                        // label matches no data edge, which gives both cases
                        // the right behaviour during the search.
                        if clause.is_none() {
                            self.unsatisfiable = true;
                        }
                        ELabel(u32::MAX)
                    }
                };
                (Some(el), None)
            }
        };
        self.edges.push(EdgeDraft {
            from: s,
            to: o,
            label,
            variable,
            clause,
        });
    }

    /// Folds a required `?x rdf:type <Class>` into the label set of `?x`
    /// (type-aware transformation only).
    fn fold_type_pattern(&mut self, subject: &SparqlTerm, class: &Term) {
        let s = self.vertex_for(subject, None);
        let vlabel = self
            .dictionary
            .id_of(class)
            .and_then(|id| self.data.mappings.vlabel_of(id));
        match vlabel {
            Some(l) => {
                if !self.vertices[s].labels.contains(&l) {
                    self.vertices[s].labels.push(l);
                }
            }
            None => {
                // The class is never used in the data: nothing can have it.
                self.unsatisfiable = true;
            }
        }
    }

    fn finish(self) -> TransformedQuery {
        let mut graph = QueryGraph::new();
        let mut vertex_clause = Vec::with_capacity(self.vertices.len());
        for draft in &self.vertices {
            let mut labels = draft.labels.clone();
            labels.sort_unstable();
            labels.dedup();
            graph.add_vertex(QueryVertex {
                labels,
                bound: draft.bound,
                variable: draft.variable.clone(),
            });
            vertex_clause.push(draft.clause);
        }
        let mut edge_clause = Vec::with_capacity(self.edges.len());
        for edge in &self.edges {
            graph.add_edge(QueryEdge {
                from: edge.from,
                to: edge.to,
                label: edge.label,
                variable: edge.variable.clone(),
            });
            edge_clause.push(edge.clause);
        }
        TransformedQuery {
            graph,
            unsatisfiable: self.unsatisfiable,
            vertex_clause,
            edge_clause,
            clause_parents: self.clause_parents,
            filters: self.filters,
        }
    }
}

/// Transforms a (union-free) SPARQL group pattern into a query graph against
/// `data`, under `data`'s transformation kind.
pub fn transform_query(
    pattern: &GroupPattern,
    data: &TransformedGraph,
    dictionary: &Dictionary,
) -> Result<TransformedQuery, TransformError> {
    let mut builder = QueryBuilder::new(data, dictionary);
    builder.add_group(pattern, None)?;
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_transform;
    use crate::type_aware::type_aware_transform;
    use turbohom_rdf::Dataset;
    use turbohom_sparql::parse_query;

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// The running example dataset (paper Figure 3) plus one more student so
    /// multi-solution behaviour is visible downstream.
    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("student1"), vocab::RDF_TYPE, &ub("GraduateStudent"));
        ds.insert_iris(&ub("student1"), vocab::RDF_TYPE, &ub("Student"));
        ds.insert_iris(
            &ub("GraduateStudent"),
            vocab::RDFS_SUBCLASSOF,
            &ub("Student"),
        );
        ds.insert_iris(&ub("univ1"), vocab::RDF_TYPE, &ub("University"));
        ds.insert_iris(&ub("dept1"), vocab::RDF_TYPE, &ub("Department"));
        ds.insert_iris(
            &ub("student1"),
            &ub("undergraduateDegreeFrom"),
            &ub("univ1"),
        );
        ds.insert_iris(&ub("student1"), &ub("memberOf"), &ub("dept1"));
        ds.insert_iris(&ub("dept1"), &ub("subOrganizationOf"), &ub("univ1"));
        ds
    }

    const TRIANGLE_QUERY: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://ub.org/>
        SELECT ?X ?Y ?Z WHERE {
            ?X rdf:type ub:Student .
            ?Y rdf:type ub:University .
            ?Z rdf:type ub:Department .
            ?X ub:undergraduateDegreeFrom ?Y .
            ?X ub:memberOf ?Z .
            ?Z ub:subOrganizationOf ?Y .
        }"#;

    #[test]
    fn type_aware_query_matches_figure8_shape() {
        // Figure 5b (direct): 6 vertices / 6 edges. Figure 8 (type-aware):
        // 3 vertices / 3 edges, one label per vertex.
        let ds = dataset();
        let q = parse_query(TRIANGLE_QUERY).unwrap();
        let data = type_aware_transform(&ds);
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert!(!tq.unsatisfiable);
        assert_eq!(tq.graph.vertex_count(), 3);
        assert_eq!(tq.graph.edge_count(), 3);
        for v in tq.graph.vertices() {
            assert_eq!(v.labels.len(), 1);
            assert!(v.bound.is_none());
        }
        assert!(tq.graph.is_connected());
        assert!(!tq.has_optionals());
    }

    #[test]
    fn direct_query_matches_figure5_shape() {
        let ds = dataset();
        let q = parse_query(TRIANGLE_QUERY).unwrap();
        let data = direct_transform(&ds);
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert!(!tq.unsatisfiable);
        assert_eq!(tq.graph.vertex_count(), 6);
        assert_eq!(tq.graph.edge_count(), 6);
        // The three class vertices are bound constants.
        let bound_count = tq
            .graph
            .vertices()
            .iter()
            .filter(|v| v.bound.is_some())
            .count();
        assert_eq!(bound_count, 3);
    }

    #[test]
    fn constant_subject_becomes_bound_vertex() {
        let ds = dataset();
        let query = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d WHERE { <http://ub.org/student1> ub:memberOf ?d . }"#,
        )
        .unwrap();
        let data = type_aware_transform(&ds);
        let tq = transform_query(&query.pattern, &data, &ds.dictionary).unwrap();
        assert_eq!(tq.graph.vertex_count(), 2);
        let student_vertex = tq
            .graph
            .vertices()
            .iter()
            .find(|v| v.bound.is_some())
            .unwrap();
        let expected = VertexId::of_term(ds.dictionary.id_of_iri(&ub("student1")).unwrap());
        assert_eq!(student_vertex.bound, Some(expected));
    }

    #[test]
    fn unknown_constant_or_class_or_predicate_is_unsatisfiable() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        for q in [
            // unknown entity
            r#"PREFIX ub: <http://ub.org/> SELECT ?d WHERE { <http://ub.org/ghost> ub:memberOf ?d . }"#,
            // unknown class
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Alien . }"#,
            // unknown predicate
            r#"PREFIX ub: <http://ub.org/> SELECT ?x WHERE { ?x ub:eats ?y . }"#,
        ] {
            let parsed = parse_query(q).unwrap();
            let tq = transform_query(&parsed.pattern, &data, &ds.dictionary).unwrap();
            assert!(tq.unsatisfiable, "query should be unsatisfiable: {q}");
        }
    }

    /// The edge label `pred` is interned as in `data`.
    fn elabel(ds: &Dataset, data: &TransformedGraph, pred: &str) -> ELabel {
        let term = ds.dictionary.id_of_iri(pred).unwrap();
        data.mappings.elabel_of(term).unwrap()
    }

    #[test]
    fn unfoldable_type_patterns_are_edges_with_the_folded_label() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let rdf_type = elabel(&ds, &data, vocab::RDF_TYPE);
        // No CSR edge carries the label: it names the folded triples.
        assert_eq!(data.csr_label(Some(rdf_type)), None);
        for (q, edges) in [
            // A variable class.
            (
                r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   SELECT ?x ?t WHERE { ?x rdf:type ?t . }"#,
                1,
            ),
            // A constant class inside an OPTIONAL: folding it into ?x's
            // labels would make the optional constraint a required one.
            (
                r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x WHERE { ?x ub:memberOf ?d . OPTIONAL { ?x rdf:type ub:Student . } }"#,
                2,
            ),
        ] {
            let q = parse_query(q).unwrap();
            let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
            assert!(!tq.unsatisfiable);
            assert_eq!(tq.graph.edge_count(), edges);
            let edge = tq.graph.edge(edges - 1);
            assert_eq!(edge.label, Some(rdf_type));
            assert!(edge.variable.is_none());
            assert!(tq.graph.vertices().iter().all(|v| v.labels.is_empty()));
        }
        // The direct transformation has no folded label.
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               SELECT ?x ?t WHERE { ?x rdf:type ?t . }"#,
        )
        .unwrap();
        let direct = direct_transform(&ds);
        let tq = transform_query(&q.pattern, &direct, &ds.dictionary).unwrap();
        let label = tq.graph.edge(0).label;
        assert_eq!(label, Some(elabel(&ds, &direct, vocab::RDF_TYPE)));
        assert_eq!(direct.csr_label(label), label);
    }

    #[test]
    fn variable_predicate_produces_unlabeled_edge() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"SELECT ?p WHERE { <http://ub.org/student1> ?p <http://ub.org/univ1> . }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert_eq!(tq.graph.edge_count(), 1);
        let edge = tq.graph.edge(0);
        assert!(edge.label.is_none());
        assert_eq!(edge.variable.as_deref(), Some("p"));
    }

    #[test]
    fn optional_clauses_are_annotated() {
        let ds = {
            let mut ds = dataset();
            ds.insert_iris(&ub("student1"), &ub("email"), &ub("mail1"));
            ds
        };
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d ?e ?ph WHERE {
                 <http://ub.org/student1> ub:memberOf ?d .
                 OPTIONAL { <http://ub.org/student1> ub:email ?e .
                            OPTIONAL { <http://ub.org/student1> ub:phone ?ph . } }
               }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert_eq!(tq.clause_count(), 2);
        assert_eq!(tq.clause_parents[0], None);
        assert_eq!(tq.clause_parents[1], Some(0));
        // The required edge has no clause; the optional edges carry theirs.
        assert_eq!(tq.edge_clause[0], None);
        assert_eq!(tq.edge_clause[1], Some(0));
        assert_eq!(tq.edge_clause[2], Some(1));
        // ?e belongs to clause 0, ?ph to clause 1, ?d to the required part.
        let idx_of = |name: &str| tq.graph.vertex_of_variable(name).unwrap();
        assert_eq!(tq.vertex_clause[idx_of("d")], None);
        assert_eq!(tq.vertex_clause[idx_of("e")], Some(0));
        assert_eq!(tq.vertex_clause[idx_of("ph")], Some(1));
        // The constant subject appears first in the required part.
        let student_idx = tq
            .graph
            .vertices()
            .iter()
            .position(|v| v.bound.is_some())
            .unwrap();
        assert_eq!(tq.vertex_clause[student_idx], None);
        // Unknown predicate `phone` only occurs inside an OPTIONAL: the
        // overall query is still answerable (the inner clause just never
        // matches), so the pattern must NOT be flagged unsatisfiable.
        assert!(!tq.unsatisfiable);
        // The unknown predicate is represented by a sentinel edge label that
        // matches no data edge.
        assert_eq!(
            tq.graph.edge(2).label,
            Some(turbohom_graph::ELabel(u32::MAX))
        );
    }

    #[test]
    fn filters_are_collected_from_all_clauses() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE {
                 ?x ub:memberOf ?d . FILTER (?x != ?d)
                 OPTIONAL { ?x ub:undergraduateDegreeFrom ?u . FILTER BOUND(?u) }
               }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert_eq!(tq.filters.len(), 2);
    }

    #[test]
    fn shared_constant_is_one_query_vertex() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE {
                 ?a ub:memberOf <http://ub.org/dept1> .
                 ?b ub:subOrganizationOf <http://ub.org/univ1> .
                 <http://ub.org/dept1> ub:subOrganizationOf ?c .
               }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        // Vertices: ?a, ?b, ?c, dept1 (shared by patterns 1 and 3), univ1.
        assert_eq!(tq.graph.vertex_count(), 5);
    }

    #[test]
    fn unexpanded_union_is_an_error() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { { ?x ub:memberOf ?d . } UNION { ?x ub:subOrganizationOf ?d . } }"#,
        )
        .unwrap();
        assert!(transform_query(&q.pattern, &data, &ds.dictionary).is_err());
        // After expansion each branch transforms fine.
        for branch in q.pattern.expand_unions() {
            assert!(transform_query(&branch, &data, &ds.dictionary).is_ok());
        }
    }

    #[test]
    fn subclassof_pattern_is_an_edge_with_the_folded_label() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        let q = parse_query(
            r#"PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
               SELECT ?c WHERE { ?c rdfs:subClassOf <http://ub.org/Student> . }"#,
        )
        .unwrap();
        let tq = transform_query(&q.pattern, &data, &ds.dictionary).unwrap();
        assert_eq!(tq.graph.vertex_count(), 2);
        assert_eq!(tq.graph.edge_count(), 1);
        let label = tq.graph.edge(0).label;
        assert_eq!(label, Some(elabel(&ds, &data, vocab::RDFS_SUBCLASSOF)));
        assert_eq!(data.csr_label(label), None);
    }
}
