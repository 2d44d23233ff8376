//! `ChooseStartQueryVertex` (paper Section 2.2 / 4.2).
//!
//! The starting query vertex determines the candidate regions: one region is
//! explored per data vertex that qualifies for the start vertex, so the
//! engine wants the query vertex with the *fewest* qualifying data vertices.
//! The paper ranks query vertices by `rank(u) = freq(g, L(u)) / deg(u)`
//! (preferring rare labels and high degree), then refines the top-k by
//! actually counting candidates with the degree and NLF filters applied.
//!
//! Counting is a lookup whenever nothing can turn a listed vertex down: the
//! candidates of a query vertex are then a list of the inverse vertex label
//! list or of the predicate index, and `freq` is already its length. Only
//! the winner's list is handed out, borrowed from the index. A list is
//! walked (and copied) only when the ID attribute, the degree or NLF filter
//! or an inline FILTER has to look at each vertex. Inline FILTERs are
//! filters of the refinement like the others: a label that few values of a
//! REGEX pass starts fewer regions than the class of the things it labels.
//! A vertex whose FILTERs are counted stops counting once it cannot win,
//! and the winner's list has passed them.

use crate::config::TurboHomConfig;
use crate::engine::FilterSplit;
use crate::filters::VertexFilter;
use crate::stats::MatchStats;
use std::borrow::Cow;
use turbohom_graph::VertexId;
use turbohom_transform::{TransformedGraph, TransformedQuery};

/// How many of the lowest-ranked query vertices are refined by exact
/// candidate counting (the paper's "top-k"). Three is TurboISO's default.
const TOP_K: usize = 3;

/// The outcome of start-vertex selection: the chosen query vertex and the
/// data vertices that start a candidate region each.
#[derive(Debug, Clone)]
pub struct StartSelection<'a> {
    /// The chosen starting query vertex (index into the query graph).
    pub query_vertex: usize,
    /// The qualifying starting data vertices, sorted; borrowed from the
    /// data's indexes when no per-vertex check applies.
    pub start_vertices: Cow<'a, [VertexId]>,
    /// How many query vertices were eligible and ranked.
    pub ranked: usize,
    /// Whether the start vertices have passed the inline FILTERs of the
    /// chosen query vertex.
    pub filtered: bool,
}

/// For a (required) query vertex without label or ID: the shortest list the
/// predicate index has for one of its incident edges with a predicate it
/// holds (Section 4.2), if it has such an edge. An edge into an OPTIONAL
/// clause demands nothing of the vertex, so its list is not one of them.
fn shortest_incidence_list<'a>(
    data: &'a TransformedGraph,
    query: &TransformedQuery,
    u: usize,
) -> Option<&'a [VertexId]> {
    query
        .demands(u)
        .filter_map(|(_, ei, dir)| {
            let el = data.csr_label(query.graph.edge(ei).label)?;
            Some(data.predicates.endpoints(el, dir))
        })
        .min_by_key(|endpoints| endpoints.len())
}

/// `freq(g, L(u))` — the number of data vertices listed for query vertex
/// `u`, which is the length of [`listed_vertices`] without building it
/// (used for the coarse ranking).
fn frequency(data: &TransformedGraph, query: &TransformedQuery, u: usize) -> usize {
    let qv = query.graph.vertex(u);
    if qv.bound.is_some() {
        return 1;
    }
    if let Some(freq) = data.inverse_labels.frequency_of_set(&qv.labels) {
        return freq;
    }
    shortest_incidence_list(data, query, u).map_or(data.graph.vertex_count(), <[_]>::len)
}

/// The sorted data vertices the indexes list for query vertex `u`: its ID
/// attribute, else the vertices carrying all its labels, else the shortest
/// constant-predicate incidence list, or every vertex as a last resort.
fn listed_vertices<'a>(
    data: &'a TransformedGraph,
    query: &TransformedQuery,
    u: usize,
) -> Cow<'a, [VertexId]> {
    let qv = query.graph.vertex(u);
    if let Some(bound) = qv.bound {
        return Cow::Owned(vec![bound]);
    }
    match qv.labels.as_slice() {
        [] => match shortest_incidence_list(data, query, u) {
            Some(endpoints) => Cow::Borrowed(endpoints),
            None => Cow::Owned(data.graph.vertices().collect()),
        },
        [label] => Cow::Borrowed(data.inverse_labels.vertices_with_label(*label)),
        labels => {
            let all = data.inverse_labels.vertices_with_all_labels(labels);
            Cow::Owned(all.unwrap_or_default())
        }
    }
}

/// Chooses the starting query vertex and enumerates its starting data
/// vertices; a candidate's count is taken through its inline FILTERs in
/// `filters` where given, and those that turn a vertex down are counted.
///
/// Only vertices of the *required* part of the query are eligible: the
/// OPTIONAL strategy of Section 5.1 demands that "TurboHOM++ selects a start
/// query vertex which is not specified in an OPTIONAL clause".
pub fn choose_start_vertex<'a>(
    data: &'a TransformedGraph,
    config: &TurboHomConfig,
    query: &TransformedQuery,
    filters: Option<&FilterSplit<'_>>,
    stats: &mut MatchStats,
) -> StartSelection<'a> {
    // Coarse ranking: freq / deg, lower is better.
    let mut ranked: Vec<(f64, usize, usize)> = (0..query.graph.vertex_count())
        .filter(|&u| query.vertex_clause[u].is_none())
        .map(|u| {
            let freq = frequency(data, query, u);
            let deg = query.graph.degree(u).max(1) as f64;
            (freq as f64 / deg, u, freq)
        })
        .collect();
    debug_assert!(!ranked.is_empty(), "query must have a required part");
    ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Refine the top-k by exact candidate counting. A vertex that has to be
    // checked one by one keeps the list the check produced, for the case
    // that it wins.
    let mut best: Option<(usize, usize, Option<Vec<VertexId>>, bool)> = None;
    for &(_, u, freq) in ranked.iter().take(TOP_K) {
        let filter = VertexFilter::new(data, config, query, u);
        let inline = filters.filter(|split| !split.inline[u].is_empty());
        let (count, qualified) = if filter.can_reject() || inline.is_some() {
            // Counting FILTERs stops where the vertex can no longer win.
            let enough = match (inline, &best) {
                (Some(_), Some((_, fewest, ..))) => *fewest,
                _ => usize::MAX,
            };
            let listed = listed_vertices(data, query, u);
            let mut qualified = Vec::with_capacity(listed.len().min(enough));
            for &v in listed.iter() {
                if qualified.len() == enough {
                    break;
                }
                if filter.qualifies(data, v, stats)
                    && inline.is_none_or(|split| split.passes(u, v, stats))
                {
                    qualified.push(v);
                }
            }
            (qualified.len(), Some(qualified))
        } else {
            (freq, None)
        };
        if best.as_ref().is_none_or(|&(_, fewest, ..)| count < fewest) {
            best = Some((u, count, qualified, inline.is_some()));
        }
        if best.as_ref().is_some_and(|&(_, fewest, ..)| fewest == 0) {
            break;
        }
    }
    let (query_vertex, count, qualified, filtered) = best.expect("at least one eligible vertex");
    let start_vertices = match qualified {
        Some(qualified) => Cow::Owned(qualified),
        None => listed_vertices(data, query, query_vertex),
    };
    debug_assert_eq!(start_vertices.len(), count);
    StartSelection {
        query_vertex,
        start_vertices,
        ranked: ranked.len(),
        filtered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::{vocab, Dataset, Term};
    use turbohom_sparql::parse_query;
    use turbohom_transform::{transform_branch, type_aware_transform, TransformError};

    /// Selection as it was before it counted: the full candidate list of
    /// each of the top-k query vertices is copied out of the index, walked
    /// through the per-candidate filters and sorted. The reference of the
    /// property test below.
    mod reference {
        use crate::config::TurboHomConfig;
        use crate::filters;
        use crate::stats::MatchStats;
        use turbohom_graph::{ops, VertexId};
        use turbohom_transform::{TransformedGraph, TransformedQuery};

        const TOP_K: usize = 3;

        /// Estimates `freq(g, L(u))` — the number of data vertices that could match
        /// query vertex `u` — without enumerating them (used for the coarse ranking).
        fn rough_frequency(data: &TransformedGraph, query: &TransformedQuery, u: usize) -> usize {
            let qv = query.graph.vertex(u);
            if qv.bound.is_some() {
                return 1;
            }
            if !qv.labels.is_empty() {
                return data
                    .inverse_labels
                    .frequency_of_set(&qv.labels)
                    .unwrap_or(usize::MAX);
            }
            // No label, no ID: use the predicate index over the incident edges with
            // constant predicates (Section 4.2), taking the most selective one.
            let mut best = usize::MAX;
            for (other, ei, dir) in query.graph.neighbors(u) {
                if query.vertex_clause[other].is_some() {
                    continue; // an OPTIONAL edge demands nothing of `u`
                }
                if let Some(el) = query.graph.edge(ei).label {
                    let endpoints = data.predicates.endpoints(el, dir).len();
                    best = best.min(endpoints);
                }
            }
            if best == usize::MAX {
                data.graph.vertex_count()
            } else {
                best
            }
        }

        /// Enumerates the data vertices that qualify as starting vertices for query
        /// vertex `u` (ID attribute, label set, degree/NLF filters).
        pub fn enumerate_start_vertices(
            data: &TransformedGraph,
            config: &TurboHomConfig,
            query: &TransformedQuery,
            u: usize,
            stats: &mut MatchStats,
        ) -> Vec<VertexId> {
            let qv = query.graph.vertex(u);
            let base: Vec<VertexId> = if let Some(bound) = qv.bound {
                vec![bound]
            } else if !qv.labels.is_empty() {
                data.inverse_labels
                    .vertices_with_all_labels(&qv.labels)
                    .unwrap_or_default()
            } else {
                // No label, no ID: take the most selective constant-predicate
                // incidence list, or every vertex as a last resort.
                let mut best: Option<Vec<VertexId>> = None;
                for (other, ei, dir) in query.graph.neighbors(u) {
                    if query.vertex_clause[other].is_some() {
                        continue;
                    }
                    if let Some(el) = query.graph.edge(ei).label {
                        let endpoints = data.predicates.endpoints(el, dir);
                        if best.as_ref().is_none_or(|b| endpoints.len() < b.len()) {
                            best = Some(endpoints.to_vec());
                        }
                    }
                }
                best.unwrap_or_else(|| data.graph.vertices().collect())
            };
            let mut out: Vec<VertexId> = base
                .into_iter()
                .filter(|&v| filters::reference::qualifies(data, config, query, u, v, stats))
                .collect();
            ops::canonicalize(&mut out);
            out
        }

        /// Chooses the starting query vertex and enumerates its starting data
        /// vertices.
        ///
        /// Only vertices of the *required* part of the query are eligible: the
        /// OPTIONAL strategy of Section 5.1 demands that "TurboHOM++ selects a start
        /// query vertex which is not specified in an OPTIONAL clause".
        pub fn choose_start_vertex(
            data: &TransformedGraph,
            config: &TurboHomConfig,
            query: &TransformedQuery,
            stats: &mut MatchStats,
        ) -> (usize, Vec<VertexId>) {
            let eligible: Vec<usize> = (0..query.graph.vertex_count())
                .filter(|&u| query.vertex_clause[u].is_none())
                .collect();
            debug_assert!(!eligible.is_empty(), "query must have a required part");

            // Coarse ranking: freq / deg, lower is better.
            let mut ranked: Vec<(f64, usize)> = eligible
                .iter()
                .map(|&u| {
                    let freq = rough_frequency(data, query, u) as f64;
                    let deg = query.graph.degree(u).max(1) as f64;
                    (freq / deg, u)
                })
                .collect();
            ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

            // Refine the top-k by exact candidate counting.
            let mut best: Option<(usize, Vec<VertexId>)> = None;
            for &(_, u) in ranked.iter().take(TOP_K) {
                let candidates = enumerate_start_vertices(data, config, query, u, stats);
                match &best {
                    Some((_, current)) if candidates.len() >= current.len() => {}
                    _ => best = Some((u, candidates)),
                }
                if let Some((_, c)) = &best {
                    if c.is_empty() {
                        break;
                    }
                }
            }
            best.expect("at least one eligible vertex")
        }
    }

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// One university, two departments, many students.
    fn data() -> (Dataset, TransformedGraph) {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("univ0"), vocab::RDF_TYPE, &ub("University"));
        for d in 0..2 {
            let dept = ub(&format!("dept{d}"));
            ds.insert_iris(&dept, vocab::RDF_TYPE, &ub("Department"));
            ds.insert_iris(&dept, &ub("subOrganizationOf"), &ub("univ0"));
            for s in 0..5 {
                let student = ub(&format!("student{d}_{s}"));
                ds.insert_iris(&student, vocab::RDF_TYPE, &ub("Student"));
                ds.insert_iris(&student, &ub("memberOf"), &dept);
                ds.insert_iris(&student, &ub("undergraduateDegreeFrom"), &ub("univ0"));
            }
        }
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        (ds, t)
    }

    fn transformed(ds: &Dataset, t: &TransformedGraph, sparql: &str) -> TransformedQuery {
        let q = parse_query(sparql).unwrap();
        transform_branch(&q.pattern, t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0)
    }

    #[test]
    fn prefers_rarest_label_adjusted_by_degree() {
        let (ds, t) = data();
        // University (1 instance) vs Student (10) vs Department (2): the
        // University vertex has the fewest candidates.
        let tq = transformed(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x ?y ?z WHERE {
                 ?x rdf:type ub:Student . ?y rdf:type ub:University . ?z rdf:type ub:Department .
                 ?x ub:undergraduateDegreeFrom ?y . ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y .
               }"#,
        );
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq, None, &mut stats);
        let chosen_var = tq.graph.vertex(sel.query_vertex).variable.clone();
        assert_eq!(chosen_var.as_deref(), Some("y"));
        assert_eq!(sel.start_vertices.len(), 1);
    }

    #[test]
    fn bound_vertex_always_wins() {
        let (ds, t) = data();
        let tq = transformed(
            &ds,
            &t,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d WHERE { <http://ub.org/student0_0> ub:memberOf ?d . }"#,
        );
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq, None, &mut stats);
        assert!(tq.graph.vertex(sel.query_vertex).bound.is_some());
        assert_eq!(sel.start_vertices.len(), 1);
    }

    #[test]
    fn unconstrained_vertex_uses_predicate_index() {
        let (ds, t) = data();
        // ?x subOrganizationOf ?y — neither side has a label; the predicate
        // index bounds the candidates to the two departments / one university.
        let tq = transformed(
            &ds,
            &t,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x ?y WHERE { ?x ub:subOrganizationOf ?y . }"#,
        );
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq, None, &mut stats);
        // Either end qualifies; whichever is chosen, the candidate set must
        // come from the predicate index, not the whole vertex set.
        assert!(sel.start_vertices.len() <= 2);
        assert!(!sel.start_vertices.is_empty());
    }

    #[test]
    fn optional_vertices_are_not_eligible() {
        let (ds, t) = data();
        // The bound dept0 vertex would be the cheapest start (one candidate),
        // but it sits in an OPTIONAL clause and is therefore not eligible.
        let tq2 = transformed(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x ?u WHERE {
                 ?x rdf:type ub:Student .
                 OPTIONAL { <http://ub.org/dept0> ub:subOrganizationOf ?u . }
               }"#,
        );
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq2, None, &mut stats);
        assert_eq!(tq2.vertex_clause[sel.query_vertex], None);
        // The bound dept0 vertex is in the OPTIONAL clause, so the start is
        // the Student vertex with its 10 candidates.
        assert_eq!(sel.start_vertices.len(), 10);
    }

    #[test]
    fn bound_vertex_of_the_wrong_class_yields_no_start_vertices() {
        let (ds, t) = data();
        let q = parse_query(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#,
        )
        .unwrap();
        let mut tq = transform_branch(&q.pattern, &t, &ds.dictionary)
            .unwrap()
            .components
            .remove(0);
        let u = tq.graph.vertex_of_variable("x").unwrap();
        let mut stats = MatchStats::default();
        // The two departments that have members beat the ten students, and
        // nothing has to be checked: the list is the predicate index's own.
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq, None, &mut stats);
        assert_eq!(sel.query_vertex, tq.graph.vertex_of_variable("d").unwrap());
        assert_eq!(sel.start_vertices.len(), 2);
        assert_eq!(sel.ranked, 2);
        assert!(matches!(sel.start_vertices, Cow::Borrowed(_)));
        // Pin the student vertex to a non-Student vertex: it is the most
        // selective start, and the label check leaves it no candidate.
        let univ = VertexId::of_term(ds.dictionary.id_of_iri(&ub("univ0")).unwrap());
        let graph = std::mem::take(&mut tq.graph);
        let mut vertices_rebuilt = turbohom_graph::QueryGraph::new();
        for (i, v) in graph.vertices().iter().enumerate() {
            let mut v = v.clone();
            if i == u {
                v.bound = Some(univ);
            }
            vertices_rebuilt.add_vertex(v);
        }
        for e in graph.edges() {
            vertices_rebuilt.add_edge(e.clone());
        }
        tq.graph = vertices_rebuilt;
        let sel = choose_start_vertex(&t, &TurboHomConfig::default(), &tq, None, &mut stats);
        assert_eq!(sel.query_vertex, u);
        assert!(sel.start_vertices.is_empty());
    }

    /// Twenty students of two departments and ten courses, each with a name
    /// literal (`student7`, `course3`); the names are inserted a course's
    /// first, then a student's, alternating, and then the other students'.
    fn named_data() -> (Dataset, TransformedGraph) {
        let mut ds = Dataset::new();
        let name = |ds: &mut Dataset, entity: &str| {
            let literal = Term::literal(entity);
            ds.insert(&Term::iri(ub(entity)), &Term::iri(ub("name")), &literal);
        };
        for i in 0..20 {
            if i < 10 {
                name(&mut ds, &format!("course{i}"));
            }
            let student = format!("student{i}");
            ds.insert_iris(&ub(&student), vocab::RDF_TYPE, &ub("Student"));
            ds.insert_iris(
                &ub(&student),
                &ub("memberOf"),
                &ub(&format!("dept{}", i % 2)),
            );
            name(&mut ds, &student);
        }
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        (ds, t)
    }

    /// The lexical form of data vertex `v`'s term.
    fn lexical(ds: &Dataset, v: VertexId) -> String {
        ds.dictionary
            .term(v.term())
            .unwrap()
            .as_literal()
            .unwrap()
            .to_string()
    }

    /// Inline FILTERs are filters of the refinement: the eleven names a REGEX
    /// keeps beat the twenty students, and the list they leave is the start
    /// list; each of the nineteen names it turns down is counted.
    #[test]
    fn the_filtered_vertex_with_the_fewest_survivors_wins_with_its_filtered_list() {
        let (ds, t) = named_data();
        let tq = transformed(
            &ds,
            &t,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x ?n WHERE { ?x rdf:type ub:Student . ?x ub:name ?n .
                                    FILTER regex(?n, "^student1") }"#,
        );
        let n = tq.graph.vertex_of_variable("n").unwrap();
        let config = TurboHomConfig::default();
        let split = FilterSplit::of(&ds.dictionary, &tq);
        let mut stats = MatchStats::default();
        let sel = choose_start_vertex(&t, &config, &tq, Some(&split), &mut stats);
        assert_eq!((sel.query_vertex, sel.filtered), (n, true));
        let listed = listed_vertices(&t, &tq, n);
        let kept: Vec<VertexId> = (listed.iter().copied())
            .filter(|&v| lexical(&ds, v).starts_with("student1"))
            .collect();
        assert_eq!(kept.len(), 11);
        assert_eq!(&*sel.start_vertices, &kept[..]);
        let expected = MatchStats {
            filtered_inline: 30 - 11,
            ..MatchStats::default()
        };
        assert_eq!(stats, expected);

        // Without the FILTERs to count, the students win, as they did before
        // selection counted inline FILTERs.
        let sel = choose_start_vertex(&t, &config, &tq, None, &mut MatchStats::default());
        let x = tq.graph.vertex_of_variable("x").unwrap();
        assert_eq!((sel.query_vertex, sel.start_vertices.len()), (x, 20));
        assert!(!sel.filtered);
    }

    /// A FILTERed vertex stops counting once it has as many survivors as the
    /// best vertex so far, here the one department: at the first name the
    /// REGEX keeps, with only the names before it counted as turned down.
    #[test]
    fn a_losing_filtered_vertex_stops_counting_at_the_best_count() {
        let (ds, t) = named_data();
        let tq = transformed(
            &ds,
            &t,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x ?n WHERE { ?x ub:memberOf ub:dept0 . ?x ub:name ?n .
                                    FILTER regex(?n, "^student") }"#,
        );
        let n = tq.graph.vertex_of_variable("n").unwrap();
        let split = FilterSplit::of(&ds.dictionary, &tq);
        let mut stats = MatchStats::default();
        let config = TurboHomConfig::default();
        let sel = choose_start_vertex(&t, &config, &tq, Some(&split), &mut stats);
        assert!(tq.graph.vertex(sel.query_vertex).bound.is_some());
        assert_eq!(sel.start_vertices.len(), 1);
        assert!(!sel.filtered);
        let listed = listed_vertices(&t, &tq, n);
        let names: Vec<String> = listed.iter().map(|&v| lexical(&ds, v)).collect();
        let before_first = names.iter().position(|l| l.starts_with("student"));
        let rejected = names.iter().filter(|l| l.starts_with("course")).count();
        assert_eq!(rejected, 10);
        // A full walk would have turned down all ten courses.
        assert!(before_first < Some(rejected), "{names:?}");
        assert_eq!(Some(stats.filtered_inline), before_first);
    }

    /// A capped run chooses without its inline FILTERs: the search stops at
    /// the LIMIT, so a FILTER pass over whole start lists would cost more
    /// than it saves. The explorer then tests them on each start vertex. A
    /// post-hoc FILTER lifts the cap from the search, which then counts.
    #[test]
    fn a_capped_run_chooses_its_start_vertex_unfiltered() {
        let (ds, t) = named_data();
        let query = |post: &str| {
            let sparql = format!(
                r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x ?n WHERE {{ ?x rdf:type ub:Student . ?x ub:name ?n .
                                         FILTER regex(?n, "^student1") {post} }}"#
            );
            transformed(&ds, &t, &sparql)
        };
        let (tq, post_hoc) = (query(""), query("FILTER (?x != ?n)"));
        fn input(tq: &TransformedQuery, limit: Option<usize>) -> crate::engine::RunInput<'_> {
            let own = crate::engine::RunInput::of(tq);
            crate::engine::RunInput { limit, ..own }
        }
        let config = TurboHomConfig::default();
        let engine = crate::engine::TurboHomEngine::new(&t, &ds.dictionary, config);
        let variable = |tq: &TransformedQuery, limit: Option<usize>| {
            let prologue = engine.explain(tq, input(tq, limit));
            let selection = prologue.start.unwrap().unwrap().selection;
            let u = selection.query_vertex;
            (
                tq.graph.vertex(u).variable.clone().unwrap(),
                selection.start_vertices.len(),
            )
        };
        let n = ("n".to_string(), 11);
        assert_eq!(variable(&tq, None), n);
        assert_eq!(variable(&tq, Some(5)), ("x".to_string(), 20));
        assert_eq!(variable(&post_hoc, Some(5)), n);
        let run = |limit| {
            let trace = turbohom_trace::Trace::disabled();
            let found = engine.execute_with_order(&tq, None, input(&tq, limit), &trace, None);
            found.unwrap().0
        };
        let (all, first) = (run(None), run(Some(5)));
        assert_eq!((all.len(), first.len()), (11, 5));
        assert!(first
            .rows
            .iter()
            .all(|row| all.rows.iter().any(|r| r == row)));
        // Every student before the fifth kept one was turned down in its
        // region, none in selection.
        assert_eq!(
            first.stats.filtered_inline,
            first.stats.candidate_regions - 5
        );
    }

    /// Classes `C0..C3` with a `C1 ⊑ C0` schema triple, predicates
    /// `p0..p2`, 24 entities of which every fifth has no class, and edges
    /// drawn by a fixed rule.
    fn property_data() -> (Dataset, TransformedGraph) {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("C1"), vocab::RDFS_SUBCLASSOF, &ub("C0"));
        for i in 0..24usize {
            let e = ub(&format!("e{i}"));
            if i % 5 != 0 {
                ds.insert_iris(&e, vocab::RDF_TYPE, &ub(&format!("C{}", i % 4)));
            }
            if i % 7 == 3 {
                ds.insert_iris(&e, vocab::RDF_TYPE, &ub("C2"));
            }
            for (p, step) in [(0usize, 1usize), (1, 5), (2, 11)] {
                if (i + p) % (p + 2) != 0 {
                    let o = ub(&format!("e{}", (i * 3 + step) % 24));
                    ds.insert_iris(&e, &ub(&format!("p{p}")), &o);
                }
            }
        }
        let t = type_aware_transform(ds.triples.clone(), &ds.dictionary);
        (ds, t)
    }

    /// One triple pattern of a generated BGP, as indexes into small pools of
    /// terms: `(subject, predicate, object)`.
    fn pattern_text((s, p, o): (usize, usize, usize)) -> String {
        // Variables, data entities, and a constant absent from the data.
        let term = |i: usize| match i {
            0..=3 => format!("?v{i}"),
            4..=8 => format!("<http://ub.org/e{}>", (i - 4) * 5 + 1),
            _ => "<http://ub.org/absent>".to_string(),
        };
        match p {
            // A class assertion (on a variable or a constant).
            0..=3 => format!("{} rdf:type ub:C{} .", term(s), p),
            // A variable predicate.
            4 => format!("{} ?pred {} .", term(s), term(o)),
            _ => format!("{} ub:p{} {} .", term(s), p - 5, term(o)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(192))]

        #[test]
        fn counting_selection_matches_the_enumerating_reference(
            patterns in proptest::collection::vec((0usize..10, 0usize..8, 0usize..10), 1..6),
        ) {
            let (ds, t) = property_data();
            let text = format!(
                "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
                 PREFIX ub: <http://ub.org/> SELECT * WHERE {{ {} }}",
                patterns.iter().copied().map(pattern_text).collect::<Vec<_>>().join(" "),
            );
            // A branch whose predicate variable is in two components has no
            // query graph to match: it is refused.
            let branch = match transform_branch(&parse_query(&text).unwrap().pattern, &t, &ds.dictionary) {
                Err(TransformError::SpansComponents { predicate }) => {
                    proptest::prop_assert_eq!(predicate.as_deref(), Some("pred"), "{}", text);
                    return;
                }
                branch => branch.unwrap(),
            };
            let none = crate::config::Optimizations::none();
            let configs = [
                TurboHomConfig::default(),
                TurboHomConfig::turbohom(),
                TurboHomConfig::isomorphism().with_optimizations(none),
            ];
            for (tq, config) in (branch.components.iter()).flat_map(|tq| configs.map(|c| (tq, c))) {
                let (mut expected_stats, mut stats) = (MatchStats::default(), MatchStats::default());
                let (query_vertex, start_vertices) =
                    reference::choose_start_vertex(&t, &config, tq, &mut expected_stats);
                let sel = choose_start_vertex(&t, &config, tq, None, &mut stats);
                proptest::prop_assert_eq!(sel.query_vertex, query_vertex, "{} {:?}", text, config);
                proptest::prop_assert_eq!(&*sel.start_vertices, &start_vertices[..], "{} {:?}", text, config);
                proptest::prop_assert_eq!(stats, expected_stats, "{} {:?}", text, config);
            }
        }
    }
}
