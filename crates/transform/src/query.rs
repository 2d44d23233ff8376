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
//! [`transform_branch`] returns a branch as the connected components of the
//! graph the matcher walks: a type-aware class label joins nothing, a
//! direct-graph class vertex does.
//!
//! UNION constructs must be expanded (via
//! [`GroupPattern::expand_unions`](turbohom_sparql::GroupPattern::expand_unions))
//! before calling [`transform_branch`]; passing a group that still contains
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
    /// All FILTER expressions of the query (required part and OPTIONALs);
    /// none on a component of a branch of several.
    pub filters: Vec<Expression>,
}

impl TransformedQuery {
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

/// A union-free branch transformed once and split into the connected
/// components of its query graph.
#[derive(Debug, Clone)]
pub struct TransformedBranch {
    /// The components, in order of their first required triple: each the
    /// graph its own patterns transform to.
    pub components: Vec<TransformedQuery>,
    /// Every FILTER of a branch of several components, which carry none;
    /// empty when the one component carries them.
    pub filters: Vec<Expression>,
}

/// Internal mutable draft of a query vertex.
#[derive(Debug, Clone, Default)]
struct VertexDraft {
    labels: Vec<VLabel>,
    bound: Option<VertexId>,
    variable: Option<String>,
    clause: Option<usize>,
    /// A required constant, class or predicate of this vertex does not
    /// occur in the data: its component has no match.
    unsatisfiable: bool,
}

/// The component of a use of vertex `v` in `clause`: its OPTIONAL clause's,
/// or else the required vertex's.
fn part_of(vertex: &[usize], clause: &[usize], v: usize, used_in: Option<usize>) -> usize {
    used_in.map_or(vertex[v], |c| clause[c])
}

/// The root of `v` in a union-find forest.
fn root(parents: &mut [usize], mut v: usize) -> usize {
    while parents[v] != v {
        parents[v] = parents[parents[v]];
        v = parents[v];
    }
    v
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
    /// Every use of a vertex by a triple pattern, with the pattern's clause,
    /// in the order the patterns are read.
    touches: Vec<(usize, Option<usize>)>,
    clause_parents: Vec<Option<usize>>,
    filters: Vec<Expression>,
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
            touches: Vec::new(),
            clause_parents: Vec::new(),
            filters: Vec::new(),
        }
    }

    /// Returns (creating if necessary) the vertex index for a subject/object
    /// position. A vertex belongs to the clause it first appears in: the
    /// required part's triples come first, so it wins over the OPTIONALs.
    fn vertex_for(&mut self, term: &SparqlTerm, clause: Option<usize>) -> usize {
        let known = match term {
            SparqlTerm::Variable(name) => self.var_map.get(name),
            SparqlTerm::Constant(t) => self.const_map.get(t),
        };
        let i = known.copied().unwrap_or(self.vertices.len());
        self.touches.push((i, clause));
        if known.is_some() {
            return i;
        }
        let mut draft = VertexDraft {
            clause,
            ..VertexDraft::default()
        };
        match term {
            SparqlTerm::Variable(name) => {
                draft.variable = Some(name.clone());
                self.var_map.insert(name.clone(), i);
            }
            SparqlTerm::Constant(t) => {
                // A constant that is no term of the data is pinned to a
                // sentinel id no data vertex can equal, so it never matches
                // anything. In the required part this makes the whole query
                // unsatisfiable; inside an OPTIONAL clause it only means that
                // clause can never match.
                let term = self.dictionary.id_of(t);
                draft.bound = Some(term.map_or(VertexId(u32::MAX), VertexId::of_term));
                draft.unsatisfiable = term.is_none() && clause.is_none();
                self.const_map.insert(t.clone(), i);
            }
        }
        self.vertices.push(draft);
        i
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
                let el = (self.dictionary.id_of(t)).and_then(|id| self.data.mappings.elabel_of(id));
                // A predicate that never occurs in the data gets a sentinel
                // edge label that matches no data edge. Required part: the
                // query is unsatisfiable. OPTIONAL clause: only that clause
                // can never match.
                self.vertices[s].unsatisfiable |= el.is_none() && clause.is_none();
                (Some(el.unwrap_or(ELabel(u32::MAX))), None)
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
        let vlabel = (self.dictionary.id_of(class)).and_then(|id| self.data.mappings.vlabel_of(id));
        match vlabel {
            Some(l) => {
                let labels = &mut self.vertices[s].labels;
                if let Err(at) = labels.binary_search(&l) {
                    labels.insert(at, l);
                }
            }
            // The class is never used in the data: nothing can have it.
            None => self.vertices[s].unsatisfiable = true,
        }
    }

    /// The query graph's connected components: the FILTERs go with the
    /// only one, or else with the branch.
    fn split(self) -> Result<TransformedBranch, TransformError> {
        let (vertex, clause, count) = self.parts()?;
        let mut components: Vec<_> = (0..count.max(1))
            .map(|k| self.part(&vertex, &clause, k))
            .collect();
        let mut filters = self.filters;
        if let [only] = components.as_mut_slice() {
            only.filters = std::mem::take(&mut filters);
        }
        Ok(TransformedBranch {
            components,
            filters,
        })
    }

    /// Every required vertex's and OPTIONAL clause's connected component,
    /// and their count: those of the required vertices over the required
    /// edges, in order of their first vertex. A top-level clause goes, with
    /// its nested ones, to the one component its edges' variables meet (else
    /// the first); a constant joins nothing. A product cannot join on a
    /// clause or a predicate variable in two: refused.
    fn parts(&self) -> Result<(Vec<usize>, Vec<usize>, usize), TransformError> {
        let mut parents: Vec<usize> = (0..self.vertices.len()).collect();
        for edge in self.edges.iter().filter(|e| e.clause.is_none()) {
            let (a, b) = (root(&mut parents, edge.from), root(&mut parents, edge.to));
            parents[a.max(b)] = a.min(b);
        }
        // A root is its component's first vertex.
        let (mut vertex, mut count) = (vec![0; self.vertices.len()], 0);
        for (v, draft) in self.vertices.iter().enumerate() {
            if draft.clause.is_none() {
                let r = root(&mut parents, v);
                vertex[v] = if r == v { count } else { vertex[r] };
                count += usize::from(r == v);
            }
        }
        // Clause ids and edges are in pre-order, so a top-level clause's
        // edges follow those of every earlier one.
        let mut top = Vec::with_capacity(self.clause_parents.len());
        for (c, parent) in self.clause_parents.iter().enumerate() {
            top.push(parent.map_or(c, |p| top[p]));
        }
        let mut met: Vec<Option<usize>> = vec![None; top.len()];
        for (edge, t) in (self.edges.iter()).filter_map(|e| Some((e, top[e.clause?]))) {
            for v in [edge.from, edge.to] {
                let draft = &self.vertices[v];
                let part = match draft.clause {
                    _ if draft.variable.is_none() => continue,
                    None => vertex[v],
                    Some(d) if top[d] == t => continue,
                    Some(d) => met[top[d]].unwrap_or(0),
                };
                if met[t].is_some_and(|m| m != part) {
                    return Err(TransformError::SpansComponents { predicate: None });
                }
                met[t] = Some(part);
            }
        }
        let clause: Vec<usize> = top.iter().map(|&t| met[t].unwrap_or(0)).collect();
        let vertex_vars =
            (self.var_map.iter()).map(|(name, &v)| (name, v, self.vertices[v].clause));
        let edge_vars =
            (self.edges.iter()).filter_map(|e| Some((e.variable.as_ref()?, e.from, e.clause)));
        let mut owners = HashMap::new();
        for (name, v, c) in vertex_vars.chain(edge_vars) {
            let part = part_of(&vertex, &clause, v, c);
            if *owners.entry(name).or_insert(part) != part {
                let predicate = Some(name.clone());
                return Err(TransformError::SpansComponents { predicate });
            }
        }
        Ok((vertex, clause, count))
    }

    /// The query graph of component `k` of `vertex` and `clause` (see
    /// [`parts`](Self::parts)), without FILTERs: its clauses and edges in
    /// their relative order, and its vertices in the order its patterns first
    /// use them, as its own patterns transform to. A constant that a clause
    /// of `k` shares with another component is a vertex of `k` too, of that
    /// clause and without the other's folded classes.
    fn part(&self, vertex: &[usize], clause: &[usize], k: usize) -> TransformedQuery {
        let mut clause_index = vec![usize::MAX; self.clause_parents.len()];
        let mut clause_parents = Vec::new();
        for (c, parent) in self.clause_parents.iter().enumerate() {
            if clause[c] == k {
                clause_index[c] = clause_parents.len();
                clause_parents.push(parent.map(|p| clause_index[p]));
            }
        }
        let clause_of = |c: Option<usize>| c.map(|c| clause_index[c]);
        let mut graph = QueryGraph::new();
        let mut vertex_index = vec![usize::MAX; self.vertices.len()];
        let mut vertex_clause = Vec::new();
        let mut unsatisfiable = false;
        for &(v, c) in &self.touches {
            if vertex_index[v] != usize::MAX || part_of(vertex, clause, v, c) != k {
                continue;
            }
            // First used here by an OPTIONAL clause (a constant another
            // component requires, say), a vertex has no folded class and
            // does not make `k` unsatisfiable.
            let draft = &self.vertices[v];
            vertex_index[v] = graph.add_vertex(QueryVertex {
                labels: c.map_or_else(|| draft.labels.clone(), |_| Vec::new()),
                bound: draft.bound,
                variable: draft.variable.clone(),
            });
            vertex_clause.push(clause_of(c));
            unsatisfiable |= draft.unsatisfiable && c.is_none();
        }
        let mut edge_clause = Vec::new();
        let edges = self.edges.iter();
        for edge in edges.filter(|e| part_of(vertex, clause, e.from, e.clause) == k) {
            graph.add_edge(QueryEdge {
                from: vertex_index[edge.from],
                to: vertex_index[edge.to],
                label: edge.label,
                variable: edge.variable.clone(),
            });
            edge_clause.push(clause_of(edge.clause));
        }
        TransformedQuery {
            graph,
            unsatisfiable,
            vertex_clause,
            edge_clause,
            clause_parents,
            filters: Vec::new(),
        }
    }
}

/// Transforms a union-free SPARQL group pattern into a query graph against
/// `data`, under `data`'s transformation kind, and returns it as the
/// connected components of that graph (see [`TransformedBranch`]). A
/// branch whose OPTIONAL clause meets two components, or whose predicate
/// variable is in two, is refused with [`TransformError::SpansComponents`].
pub fn transform_branch(
    pattern: &GroupPattern,
    data: &TransformedGraph,
    dictionary: &Dictionary,
) -> Result<TransformedBranch, TransformError> {
    let mut builder = QueryBuilder::new(data, dictionary);
    builder.add_group(pattern, None)?;
    builder.split()
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
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert!(!tq.unsatisfiable);
        assert_eq!(tq.graph.vertex_count(), 3);
        assert_eq!(tq.graph.edge_count(), 3);
        for v in tq.graph.vertices() {
            assert_eq!(v.labels.len(), 1);
            assert!(v.bound.is_none());
        }
        assert!(tq.graph.is_connected());
        assert_eq!(tq.clause_parents.len(), 0);
    }

    #[test]
    fn direct_query_matches_figure5_shape() {
        let ds = dataset();
        let q = parse_query(TRIANGLE_QUERY).unwrap();
        let data = direct_transform(&type_aware_transform(&ds));
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
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
        let tq = transform_branch(&query.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
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
            let tq = transform_branch(&parsed.pattern, &data, &ds.dictionary)
                .unwrap()
                .components
                .remove(0);
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
            let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
                .unwrap()
                .components
                .remove(0);
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
        let direct = direct_transform(&type_aware_transform(&ds));
        let tq = transform_branch(&q.pattern, &direct, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
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
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
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
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert_eq!(tq.clause_parents.len(), 2);
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
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
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
        let branch = transform_branch(&q.pattern, &data, &ds.dictionary).unwrap();
        // Vertices: ?a, dept1 (shared by patterns 1 and 3), ?c; ?b, univ1.
        let counts: Vec<usize> = (branch.components.iter())
            .map(|c| c.graph.vertex_count())
            .collect();
        assert_eq!(counts, [3, 2]);
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
        assert!(transform_branch(&q.pattern, &data, &ds.dictionary).is_err());
        // After expansion each branch transforms fine.
        for branch in q.pattern.expand_unions() {
            assert!(transform_branch(&branch, &data, &ds.dictionary).is_ok());
        }
    }

    /// The group of `body` under the `ub:` prefix.
    fn group(body: &str) -> GroupPattern {
        let sparql = format!("PREFIX ub: <http://ub.org/> SELECT * WHERE {{ {body} }}");
        parse_query(&sparql).unwrap().pattern
    }

    /// A branch splits where the matcher's graph falls apart: a folded class
    /// joins nothing, a direct-graph class vertex does, and neither does a
    /// constant an OPTIONAL clause shares. Each component is the graph its
    /// own patterns transform to, its FILTERs with the branch.
    #[test]
    fn a_branch_splits_into_the_components_of_its_query_graph() {
        let ds = dataset();
        let aware = type_aware_transform(&ds);
        let direct = direct_transform(&aware);
        let split = |body: &str, data| transform_branch(&group(body), data, &ds.dictionary);
        let two_students = "?x a ub:Student . ?y a ub:Student .";
        assert_eq!(split(two_students, &aware).unwrap().components.len(), 2);
        assert_eq!(split(two_students, &direct).unwrap().components.len(), 1);
        let whole = "?p ub:memberOf ?d . ub:dept1 ub:subOrganizationOf ?u . ?p a ub:Student . \
                     <http://ub.org/ghost> ub:memberOf ?g . ub:dept1 a ub:Department . \
                     FILTER (?d != ?u) OPTIONAL { ?u ub:name ?n } \
                     OPTIONAL { ?p ub:email ?e . OPTIONAL { ?e ub:phone ?z } } \
                     OPTIONAL { ?p ub:worksFor ub:dept1 }";
        let parts = [
            "?p ub:memberOf ?d . ?p a ub:Student . \
             OPTIONAL { ?p ub:email ?e . OPTIONAL { ?e ub:phone ?z } } \
             OPTIONAL { ?p ub:worksFor ub:dept1 }",
            "ub:dept1 ub:subOrganizationOf ?u . ub:dept1 a ub:Department . \
             OPTIONAL { ?u ub:name ?n }",
            "<http://ub.org/ghost> ub:memberOf ?g .",
        ];
        let branch = split(whole, &aware).unwrap();
        assert_eq!(branch.filters.len(), 1);
        assert_eq!(branch.components.len(), parts.len());
        for (component, part) in branch.components.iter().zip(parts) {
            let alone = transform_branch(&group(part), &aware, &ds.dictionary)
                .unwrap()
                .components
                .remove(0);
            assert_eq!(component.graph.vertices(), alone.graph.vertices(), "{part}");
            assert_eq!(component.graph.edges(), alone.graph.edges(), "{part}");
            assert_eq!(component.vertex_clause, alone.vertex_clause, "{part}");
            assert_eq!(component.edge_clause, alone.edge_clause, "{part}");
            assert_eq!(component.clause_parents, alone.clause_parents, "{part}");
            assert_eq!(component.unsatisfiable, alone.unsatisfiable, "{part}");
            assert!(component.filters.is_empty(), "{part}");
        }
        // One component keeps its FILTERs.
        let one = split("?p ub:memberOf ?d . FILTER (?p != ?d)", &aware).unwrap();
        assert_eq!((one.components[0].filters.len(), one.filters.len()), (1, 0));
    }

    /// A product of components cannot join on an OPTIONAL clause or a
    /// predicate variable they share. A clause that meets no component goes
    /// to the first, whose graph the matcher then finds disconnected.
    #[test]
    fn a_branch_refuses_what_spans_two_components() {
        let ds = dataset();
        let data = type_aware_transform(&ds);
        for (body, predicate) in [
            (
                "?x ub:memberOf ub:dept1 . ?y a ub:Student . OPTIONAL { ?x ub:memberOf ?y }",
                None,
            ),
            (
                "?x ub:memberOf ?d . ?y a ub:Student . \
                 OPTIONAL { ?x ub:memberOf ?z } OPTIONAL { ?y ub:memberOf ?z }",
                None,
            ),
            (
                "?x ub:memberOf ?d . ?y a ub:Student . \
                 OPTIONAL { ?x ub:memberOf ?z . OPTIONAL { ?y ub:memberOf ?w } }",
                None,
            ),
            ("ub:student1 ?p ?x . ub:dept1 ?p ?y .", Some("p")),
            ("?x ?p ?y . ?p ub:memberOf ?z .", Some("p")),
            (
                "?x ub:memberOf ?d . ?y a ub:Student . OPTIONAL { ?y ?d ?z }",
                Some("d"),
            ),
        ] {
            let refused = transform_branch(&group(body), &data, &ds.dictionary).unwrap_err();
            let predicate = predicate.map(str::to_string);
            assert_eq!(
                refused,
                TransformError::SpansComponents { predicate },
                "{body}"
            );
        }
        let body = "?x ub:memberOf ?d . ?y a ub:Student . OPTIONAL { ?a ub:memberOf ?b }";
        let branch = transform_branch(&group(body), &data, &ds.dictionary).unwrap();
        let connected: Vec<bool> = (branch.components.iter())
            .map(|c| c.graph.is_connected())
            .collect();
        assert_eq!(connected, [false, true]);
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
        let tq = transform_branch(&q.pattern, &data, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        assert_eq!(tq.graph.vertex_count(), 2);
        assert_eq!(tq.graph.edge_count(), 1);
        let label = tq.graph.edge(0).label;
        assert_eq!(label, Some(elabel(&ds, &data, vocab::RDFS_SUBCLASSOF)));
        assert_eq!(data.csr_label(label), None);
    }
}
