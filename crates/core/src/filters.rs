//! The degree / NLF filters.
//!
//! These are the pruning devices of `ExploreCandidateRegion` (paper
//! Section 2.2 and 4.2). Both filters exist in two flavours:
//!
//! * the **isomorphism** flavour of the original TurboISO (a data vertex must
//!   have at least as many neighbors per label as the query vertex), and
//! * the **homomorphism** flavour of Section 2.2's modification (a data
//!   vertex may be mapped to several query vertices, so only the *existence*
//!   of a neighbor per required neighbor label is demanded).
//!
//! The paper's `-NLF` / `-DEG` optimizations simply switch the filters off,
//! because RDF data is schema-regular and the filters rarely prune anything
//! (Section 4.3); the [`Optimizations`](crate::config::Optimizations) flags
//! control that.
//!
//! What a filter demands depends only on the query vertex, so it is derived
//! once per query vertex ([`VertexFilter::new`]) and then applied to every
//! data candidate of that vertex.

use crate::config::{MatchSemantics, TurboHomConfig};
use crate::stats::MatchStats;
use turbohom_graph::{Direction, ELabel, VLabel, VertexId};
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// A neighbor constraint of a query vertex: direction, the edge label the
/// CSR holds (`None`: a variable or folded predicate) and the required
/// neighbor label set.
type NeighborConstraint<'q> = (Direction, Option<ELabel>, &'q [VLabel]);

/// What a data vertex must satisfy to be a candidate of one query vertex:
/// the ID attribute, the label set and (when enabled) the degree and NLF
/// filters, all derived from the query once instead of per data candidate.
#[derive(Debug, Clone)]
pub struct VertexFilter<'q> {
    semantics: MatchSemantics,
    bound: Option<VertexId>,
    labels: &'q [VLabel],
    /// The degree filter's demand — the least number of (outgoing, incoming)
    /// incident edges with a predicate the CSR holds (a variable one may
    /// take a folded edge, which it does not) — or `None` when the filter is
    /// off.
    min_degree: Option<(usize, usize)>,
    /// The NLF filter's demand — the distinct neighbor constraints, each
    /// with how often the query vertex has it. Empty when the filter is off.
    neighbors: Vec<(NeighborConstraint<'q>, usize)>,
}

impl<'q> VertexFilter<'q> {
    /// Derives the filter of query vertex `u` over `data`.
    pub fn new(
        data: &TransformedGraph,
        config: &TurboHomConfig,
        query: &'q TransformedQuery,
        u: usize,
    ) -> Self {
        // The distinct neighbor constraints `u` demands, with multiplicity.
        // Both filters are off in TurboHOM++, which then derives nothing.
        let (graph, mut neighbors) = (&query.graph, Vec::new());
        if config.optimizations.degree_filter || config.optimizations.nlf_filter {
            for (other, ei, dir) in query.demands(u) {
                let el = data.csr_label(graph.edge(ei).label);
                let constraint = (dir, el, graph.vertex(other).labels.as_slice());
                match neighbors.iter_mut().find(|(c, _)| *c == constraint) {
                    Some(entry) => entry.1 += 1,
                    None => neighbors.push((constraint, 1)),
                }
            }
        }
        let min_degree = config.optimizations.degree_filter.then(|| {
            let count = |direction: Direction| {
                let incident = (neighbors.iter())
                    .filter(|((d, label, _), _)| *d == direction && label.is_some());
                match config.semantics {
                    // v needs at least as many incident edges as u.
                    MatchSemantics::Isomorphism => incident.map(|(_, times)| *times).sum(),
                    MatchSemantics::Homomorphism => {
                        homomorphic_degree(incident.filter_map(|((_, label, _), _)| *label))
                    }
                }
            };
            (count(Direction::Outgoing), count(Direction::Incoming))
        });
        if !config.optimizations.nlf_filter {
            neighbors.clear();
        }
        let qv = graph.vertex(u);
        VertexFilter {
            semantics: config.semantics,
            bound: qv.bound,
            labels: &qv.labels,
            min_degree,
            neighbors,
        }
    }

    /// Whether [`qualifies`](Self::qualifies) can turn down a data vertex
    /// that is known to carry the query vertex's labels — a member of the
    /// inverse label list, of the predicate index or of a typed adjacency
    /// group. When it cannot, such a list is the candidate list and its
    /// length the candidate count.
    pub fn can_reject(&self) -> bool {
        self.bound.is_some() || self.min_degree.is_some() || !self.neighbors.is_empty()
    }

    /// Applies the degree filter to data vertex `v`.
    ///
    /// Returns `true` if `v` passes (or the filter is disabled).
    pub fn degree_filter(
        &self,
        data: &TransformedGraph,
        v: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        let pass = self.min_degree.is_none_or(|(min_out, min_in)| {
            data.graph.degree(v, Direction::Outgoing) >= min_out
                && data.graph.degree(v, Direction::Incoming) >= min_in
        });
        if !pass {
            stats.degree_filtered += 1;
        }
        pass
    }

    /// Applies the neighborhood label frequency (NLF) filter to data vertex
    /// `v`.
    ///
    /// Isomorphism flavour: for every distinct neighbor constraint of the
    /// query vertex, `v` must have at least as many matching neighbors as
    /// the query vertex requires. Homomorphism flavour: at least one
    /// matching neighbor suffices.
    pub fn nlf_filter(&self, data: &TransformedGraph, v: VertexId, stats: &mut MatchStats) -> bool {
        let pass = self.neighbors.iter().all(|((dir, el, labels), count)| {
            let matching = data.adjacent(v, *dir, *el, labels);
            match self.semantics {
                MatchSemantics::Isomorphism => matching.len() >= *count,
                MatchSemantics::Homomorphism => !matching.is_empty(),
            }
        });
        if !pass {
            stats.nlf_filtered += 1;
        }
        pass
    }

    /// Applies the ID-attribute check, label check and (when enabled) the
    /// degree and NLF filters to `v` as a candidate for the query vertex.
    pub fn qualifies(&self, data: &TransformedGraph, v: VertexId, stats: &mut MatchStats) -> bool {
        if v.index() >= data.graph.vertex_count() {
            // Sentinel ids (constants absent from the data) never qualify.
            return false;
        }
        if self.bound.is_some_and(|bound| bound != v) {
            return false;
        }
        data.graph.has_all_labels(v, self.labels)
            && self.degree_filter(data, v, stats)
            && self.nlf_filter(data, v, stats)
    }
}

/// The incident edges, in one direction, a data vertex needs to be the image
/// of a query vertex whose edges in that direction carry the constant
/// predicates `labels`, under homomorphism: query edges may share a data
/// edge unless their predicates differ, so one per distinct predicate.
fn homomorphic_degree(labels: impl Iterator<Item = ELabel>) -> usize {
    let mut labels: Vec<ELabel> = labels.collect();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

/// The filters as they were before [`VertexFilter`]: everything is derived
/// again from the query for every data candidate. Kept as the reference the
/// tests of this module and of `start_vertex` compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// What `u`'s edges that demand one of its image's ask: direction, the
    /// edge label the CSR holds and the neighbor's labels.
    fn constraints<'q>(
        data: &'q TransformedGraph,
        query: &'q TransformedQuery,
        u: usize,
    ) -> impl Iterator<Item = (Direction, Option<ELabel>, &'q [VLabel])> + 'q {
        query.demands(u).map(|(other, ei, dir)| {
            let el = data.csr_label(query.graph.edge(ei).label);
            (dir, el, query.graph.vertex(other).labels.as_slice())
        })
    }

    /// Applies the degree filter to data vertex `v` for query vertex `u`.
    ///
    /// Returns `true` if `v` passes (or the filter is disabled in `config`).
    pub fn degree_filter(
        data: &TransformedGraph,
        config: &TurboHomConfig,
        query: &TransformedQuery,
        u: usize,
        v: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        if !config.optimizations.degree_filter {
            return true;
        }
        // v needs, per direction, the CSR edges u's constant predicates ask
        // for: as many as u has edges, or one per distinct predicate.
        let demand = |direction: Direction| {
            let labels = (constraints(data, query, u))
                .filter(|(dir, _, _)| *dir == direction)
                .filter_map(|(_, el, _)| el);
            match config.semantics {
                MatchSemantics::Isomorphism => labels.count(),
                MatchSemantics::Homomorphism => homomorphic_degree(labels),
            }
        };
        let pass = [Direction::Outgoing, Direction::Incoming]
            .into_iter()
            .all(|d| data.graph.degree(v, d) >= demand(d));
        if !pass {
            stats.degree_filtered += 1;
        }
        pass
    }

    /// A neighbor constraint of a query vertex: direction, optional edge label
    /// and the required neighbor label set.
    type NeighborConstraint = (Direction, Option<ELabel>, Vec<VLabel>);

    /// Applies the neighborhood label frequency (NLF) filter to data vertex `v`
    /// for query vertex `u`.
    ///
    /// Isomorphism flavour: for every distinct neighbor constraint of `u`, `v`
    /// must have at least as many matching neighbors as `u` requires.
    /// Homomorphism flavour: at least one matching neighbor suffices.
    pub fn nlf_filter(
        data: &TransformedGraph,
        config: &TurboHomConfig,
        query: &TransformedQuery,
        u: usize,
        v: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        if !config.optimizations.nlf_filter {
            return true;
        }
        // Group u's neighbor constraints and count how often each occurs.
        let mut grouped: Vec<(NeighborConstraint, usize)> = Vec::new();
        for (dir, el, labels) in constraints(data, query, u) {
            let key = (dir, el, labels.to_vec());
            if let Some(entry) = grouped.iter_mut().find(|(k, _)| *k == key) {
                entry.1 += 1;
            } else {
                grouped.push((key, 1));
            }
        }
        let pass = grouped.iter().all(|((dir, el, labels), count)| {
            let matching = data.adjacent(v, *dir, *el, labels);
            match config.semantics {
                MatchSemantics::Isomorphism => matching.len() >= *count,
                MatchSemantics::Homomorphism => !matching.is_empty(),
            }
        });
        if !pass {
            stats.nlf_filtered += 1;
        }
        pass
    }

    /// Applies the ID-attribute check, label check and (when enabled) the degree
    /// and NLF filters to `v` as a candidate for query vertex `u`.
    pub fn qualifies(
        data: &TransformedGraph,
        config: &TurboHomConfig,
        query: &TransformedQuery,
        u: usize,
        v: VertexId,
        stats: &mut MatchStats,
    ) -> bool {
        if v.index() >= data.graph.vertex_count() {
            // Sentinel ids (constants absent from the data) never qualify.
            return false;
        }
        let qv = query.graph.vertex(u);
        if let Some(bound) = qv.bound {
            if bound != v {
                return false;
            }
        }
        if !data.graph.has_all_labels(v, &qv.labels) {
            return false;
        }
        degree_filter(data, config, query, u, v, stats)
            && nlf_filter(data, config, query, u, v, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_graph::{QueryEdge, QueryGraph, QueryVertex};
    use turbohom_rdf::{vocab, Dataset};
    use turbohom_transform::type_aware_transform;

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// dept1 has two students (s1, s2) and one professor; s1 also took a
    /// course. Classes: Student, Professor, Course, Department.
    fn data() -> (Dataset, TransformedGraph) {
        let mut ds = Dataset::new();
        for s in ["s1", "s2"] {
            ds.insert_iris(&ub(s), vocab::RDF_TYPE, &ub("Student"));
            ds.insert_iris(&ub(s), &ub("memberOf"), &ub("dept1"));
        }
        ds.insert_iris(&ub("p1"), vocab::RDF_TYPE, &ub("Professor"));
        ds.insert_iris(&ub("p1"), &ub("worksFor"), &ub("dept1"));
        ds.insert_iris(&ub("dept1"), vocab::RDF_TYPE, &ub("Department"));
        ds.insert_iris(&ub("c1"), vocab::RDF_TYPE, &ub("Course"));
        ds.insert_iris(&ub("s1"), &ub("takesCourse"), &ub("c1"));
        ds.dedup();
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        (ds, t)
    }

    fn vid(ds: &Dataset, name: &str) -> VertexId {
        VertexId::of_term(ds.dictionary.id_of_iri(&ub(name)).unwrap())
    }

    fn vl(ds: &Dataset, t: &TransformedGraph, name: &str) -> VLabel {
        t.mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub(name)).unwrap())
            .unwrap()
    }

    fn el(ds: &Dataset, t: &TransformedGraph, name: &str) -> ELabel {
        t.mappings
            .elabel_of(ds.dictionary.id_of_iri(&ub(name)).unwrap())
            .unwrap()
    }

    #[test]
    fn adjacency_respects_labels_and_direction() {
        let (ds, t) = data();
        let dept = vid(&ds, "dept1");
        let member_of = el(&ds, &t, "memberOf");
        let student = vl(&ds, &t, "Student");
        // Students pointing at dept1 via memberOf (incoming at dept1).
        let cands = t.adjacent(dept, Direction::Incoming, Some(member_of), &[student]);
        assert_eq!(cands.len(), 2);
        // Wrong direction: nothing.
        assert!(t
            .adjacent(dept, Direction::Outgoing, Some(member_of), &[student])
            .is_empty());
        // No label constraint: still the two students.
        assert_eq!(
            t.adjacent(dept, Direction::Incoming, Some(member_of), &[])
                .len(),
            2
        );
        // Variable predicate: students + professor.
        assert_eq!(t.adjacent(dept, Direction::Incoming, None, &[]).len(), 3);
        // Variable predicate constrained to Professor.
        let professor = vl(&ds, &t, "Professor");
        assert_eq!(
            t.adjacent(dept, Direction::Incoming, None, &[professor])
                .len(),
            1
        );
    }

    /// `graph` as a query without OPTIONAL clauses.
    fn required(graph: QueryGraph) -> TransformedQuery {
        TransformedQuery {
            vertex_clause: vec![None; graph.vertex_count()],
            edge_clause: vec![None; graph.edge_count()],
            graph,
            unsatisfiable: false,
            clause_parents: Vec::new(),
        }
    }

    fn one_vertex_query(
        labels: Vec<VLabel>,
        neighbors: Vec<(Direction, Option<ELabel>, Vec<VLabel>)>,
    ) -> TransformedQuery {
        let mut q = QueryGraph::new();
        let u = q.add_vertex(QueryVertex {
            labels,
            bound: None,
            variable: Some("x".into()),
        });
        for (dir, el, nl) in neighbors {
            let n = q.add_vertex(QueryVertex {
                labels: nl,
                bound: None,
                variable: None,
            });
            let (from, to) = match dir {
                Direction::Outgoing => (u, n),
                Direction::Incoming => (n, u),
            };
            q.add_edge(QueryEdge {
                from,
                to,
                label: el,
                variable: None,
            });
        }
        required(q)
    }

    #[test]
    fn degree_filter_homomorphism_counts_distinct_constraints() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig {
            optimizations: crate::config::Optimizations::none(),
            ..TurboHomConfig::default()
        };
        let member_of = el(&ds, &t, "memberOf");
        let takes = el(&ds, &t, "takesCourse");
        // Query vertex with two outgoing constraints (memberOf, takesCourse).
        let q = one_vertex_query(
            vec![],
            vec![
                (Direction::Outgoing, Some(member_of), vec![]),
                (Direction::Outgoing, Some(takes), vec![]),
            ],
        );
        // s1 has both; s2 only memberOf.
        assert!(VertexFilter::new(&t, &config, &q, 0).degree_filter(
            &t,
            vid(&ds, "s1"),
            &mut stats
        ));
        assert!(!VertexFilter::new(&t, &config, &q, 0).degree_filter(
            &t,
            vid(&ds, "s2"),
            &mut stats
        ));
        assert_eq!(stats.degree_filtered, 1);
    }

    #[test]
    fn degree_filter_asks_nothing_of_a_variable_predicate() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig {
            optimizations: crate::config::Optimizations::none(),
            ..TurboHomConfig::default()
        };
        let member_of = el(&ds, &t, "memberOf");
        // `?x memberOf ?y . ?x ?p ?z`: `?p` may be a folded `rdf:type` edge
        // the CSR does not count, so only the memberOf edge is asked for.
        let q = one_vertex_query(
            vec![],
            vec![
                (Direction::Outgoing, Some(member_of), vec![]),
                (Direction::Outgoing, None, vec![]),
            ],
        );
        let isomorphism = TurboHomConfig {
            semantics: MatchSemantics::Isomorphism,
            ..config
        };
        let passes = |config: &TurboHomConfig, v: &str, stats: &mut MatchStats| {
            VertexFilter::new(&t, config, &q, 0).degree_filter(&t, vid(&ds, v), stats)
        };
        // s2 has its memberOf edge (and, for `?p`, its `rdf:type` edge).
        assert!(passes(&config, "s2", &mut stats));
        assert!(passes(&isomorphism, "s2", &mut stats));
        // dept1's one edge is its `rdf:type` edge, which no CSR holds.
        assert!(!passes(&config, "dept1", &mut stats));
        assert!(!passes(&isomorphism, "dept1", &mut stats));
        // Two variable predicates: dept1's type edge can be both.
        let q = one_vertex_query(vec![], vec![(Direction::Outgoing, None, vec![]); 2]);
        let filter = VertexFilter::new(&t, &isomorphism, &q, 0);
        assert!(filter.degree_filter(&t, vid(&ds, "dept1"), &mut stats));
    }

    #[test]
    fn degree_filter_disabled_always_passes() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig::turbohom_plus_plus(); // -DEG
        let q = one_vertex_query(
            vec![],
            vec![
                (Direction::Outgoing, Some(el(&ds, &t, "memberOf")), vec![]),
                (
                    Direction::Outgoing,
                    Some(el(&ds, &t, "takesCourse")),
                    vec![],
                ),
            ],
        );
        assert!(VertexFilter::new(&t, &config, &q, 0).degree_filter(
            &t,
            vid(&ds, "s2"),
            &mut stats
        ));
        assert_eq!(stats.degree_filtered, 0);
    }

    #[test]
    fn nlf_filter_homomorphism_checks_existence() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig {
            optimizations: crate::config::Optimizations::none(),
            ..TurboHomConfig::default()
        };
        let member_of = el(&ds, &t, "memberOf");
        let dept_l = vl(&ds, &t, "Department");
        let course_l = vl(&ds, &t, "Course");
        let takes = el(&ds, &t, "takesCourse");
        // ?x memberOf ?d{Department} and ?x takesCourse ?c{Course}.
        let q = one_vertex_query(
            vec![],
            vec![
                (Direction::Outgoing, Some(member_of), vec![dept_l]),
                (Direction::Outgoing, Some(takes), vec![course_l]),
            ],
        );
        assert!(VertexFilter::new(&t, &config, &q, 0).nlf_filter(&t, vid(&ds, "s1"), &mut stats));
        assert!(!VertexFilter::new(&t, &config, &q, 0).nlf_filter(&t, vid(&ds, "s2"), &mut stats));
        assert_eq!(stats.nlf_filtered, 1);
    }

    #[test]
    fn nlf_filter_isomorphism_requires_counts() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig {
            semantics: MatchSemantics::Isomorphism,
            optimizations: crate::config::Optimizations::none(),
            ..TurboHomConfig::default()
        };
        let member_of = el(&ds, &t, "memberOf");
        let student_l = vl(&ds, &t, "Student");
        // dept1 must have two distinct incoming Student memberOf neighbors.
        let q = one_vertex_query(
            vec![],
            vec![
                (Direction::Incoming, Some(member_of), vec![student_l]),
                (Direction::Incoming, Some(member_of), vec![student_l]),
            ],
        );
        assert!(VertexFilter::new(&t, &config, &q, 0).nlf_filter(
            &t,
            vid(&ds, "dept1"),
            &mut stats
        ));
        // Under homomorphism the same check also passes trivially, but a
        // query needing three distinct students fails under isomorphism.
        let q3 = one_vertex_query(
            vec![],
            vec![
                (Direction::Incoming, Some(member_of), vec![student_l]),
                (Direction::Incoming, Some(member_of), vec![student_l]),
                (Direction::Incoming, Some(member_of), vec![student_l]),
            ],
        );
        assert!(!VertexFilter::new(&t, &config, &q3, 0).nlf_filter(
            &t,
            vid(&ds, "dept1"),
            &mut stats
        ));
    }

    #[test]
    fn an_edge_into_an_optional_clause_demands_nothing() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig::turbohom();
        let member_of = el(&ds, &t, "memberOf");
        let takes = el(&ds, &t, "takesCourse");
        // `?x memberOf ?d OPTIONAL { ?x takesCourse ?c }`: s2 takes no
        // course, and is an answer all the same.
        let mut q = one_vertex_query(
            vec![],
            vec![
                (Direction::Outgoing, Some(member_of), vec![]),
                (Direction::Outgoing, Some(takes), vec![]),
            ],
        );
        let s2 = vid(&ds, "s2");
        assert!(!VertexFilter::new(&t, &config, &q, 0).qualifies(&t, s2, &mut stats));
        q.vertex_clause[2] = Some(0);
        q.edge_clause[1] = Some(0);
        q.clause_parents.push(None);
        assert!(VertexFilter::new(&t, &config, &q, 0).qualifies(&t, s2, &mut stats));
        let mut expected = MatchStats::default();
        assert!(reference::qualifies(&t, &config, &q, 0, s2, &mut expected));
        // The clause's own vertex still demands its edge to ?x.
        let c1 = vid(&ds, "c1");
        assert!(VertexFilter::new(&t, &config, &q, 2).qualifies(&t, c1, &mut stats));
        let dept = vid(&ds, "dept1");
        assert!(!VertexFilter::new(&t, &config, &q, 2).qualifies(&t, dept, &mut stats));
    }

    #[test]
    fn qualifies_checks_bound_and_labels() {
        let (ds, t) = data();
        let mut stats = MatchStats::default();
        let config = TurboHomConfig::default();
        let student_l = vl(&ds, &t, "Student");
        let s1 = vid(&ds, "s1");
        let dept = vid(&ds, "dept1");

        let mut q = QueryGraph::new();
        q.add_vertex(QueryVertex {
            labels: vec![student_l],
            bound: Some(s1),
            variable: None,
        });
        let q = required(q);
        assert!(VertexFilter::new(&t, &config, &q, 0).qualifies(&t, s1, &mut stats));
        // Wrong vertex for a bound query vertex.
        assert!(!VertexFilter::new(&t, &config, &q, 0).qualifies(&t, dept, &mut stats));

        let mut q2 = QueryGraph::new();
        q2.add_vertex(QueryVertex {
            labels: vec![student_l],
            bound: None,
            variable: None,
        });
        let q2 = required(q2);
        assert!(VertexFilter::new(&t, &config, &q2, 0).qualifies(&t, s1, &mut stats));
        assert!(!VertexFilter::new(&t, &config, &q2, 0).qualifies(&t, dept, &mut stats));
    }

    #[test]
    fn vertex_filter_agrees_with_the_per_candidate_reference() {
        let (ds, t) = data();
        let member_of = el(&ds, &t, "memberOf");
        let takes = el(&ds, &t, "takesCourse");
        let student_l = vl(&ds, &t, "Student");
        let dept_l = vl(&ds, &t, "Department");
        let course_l = vl(&ds, &t, "Course");
        let queries = [
            one_vertex_query(vec![student_l], vec![]),
            one_vertex_query(
                vec![],
                vec![
                    (Direction::Outgoing, Some(member_of), vec![dept_l]),
                    (Direction::Outgoing, Some(takes), vec![course_l]),
                ],
            ),
            one_vertex_query(
                vec![dept_l],
                vec![
                    (Direction::Incoming, Some(member_of), vec![student_l]),
                    (Direction::Incoming, Some(member_of), vec![student_l]),
                    (Direction::Incoming, None, vec![]),
                ],
            ),
        ];
        let none = crate::config::Optimizations::none();
        let configs = [
            TurboHomConfig::default(),
            TurboHomConfig::turbohom(),
            TurboHomConfig::isomorphism().with_optimizations(none),
        ];
        for query in &queries {
            for config in &configs {
                for u in 0..query.graph.vertex_count() {
                    let filter = VertexFilter::new(&t, config, query, u);
                    for v in t.graph.vertices().chain([VertexId(u32::MAX)]) {
                        let (mut expected, mut got) =
                            (MatchStats::default(), MatchStats::default());
                        assert_eq!(
                            filter.qualifies(&t, v, &mut got),
                            reference::qualifies(&t, config, query, u, v, &mut expected),
                            "{config:?} u{u} {v}"
                        );
                        assert_eq!(got, expected, "{config:?} u{u} {v}");
                    }
                }
            }
        }
    }
}
