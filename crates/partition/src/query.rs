//! Query shardability analysis and anchor selection.
//!
//! Scatter-gather over halo-replicated shards is *exact* when every global
//! match can be assigned to exactly one shard that holds all of its triples.
//! The assignment is by the match's **anchor** binding: the match belongs to
//! `owner(binding(anchor))`. That shard holds the whole match as long as
//! every triple of the pattern lies within the halo radius ([`HALO`]) of the
//! anchor —
//! which is precisely what [`analyze_query`] verifies, using the *pattern*
//! linkage graph as a conservative stand-in for the data linkage graph:
//!
//! * edges exist only between the subject and object of triples whose
//!   predicate is a constant, non-type, non-schema IRI (the triples that
//!   contribute linkage edges in the data);
//! * a plain triple is satisfiable on the anchor's shard if
//!   `min(d(subject), d(object)) ≤ halo` (the shard replicates any triple
//!   with one endpoint in the halo);
//! * an `rdf:type` or variable-predicate triple needs `d(subject) ≤ halo`
//!   (the shard holds *all* triples of every halo subject);
//! * schema-predicate triples are replicated everywhere and always pass.
//!
//! `OPTIONAL` groups are checked too (an optional extension within the halo
//! is guaranteed present, so the shard finds exactly the extensions the
//! single store would), with each group seeing only the linkage edges of
//! its ancestors plus its own — two sibling optionals cannot vouch for each
//! other's distances.
//!
//! Queries with `UNION`, no usable anchor, or triples beyond the halo are
//! rejected with a human-readable reason; the caller falls back to
//! single-store semantics or reports the error.

use crate::HALO;
use std::collections::{HashMap, VecDeque};
use turbohom_rdf::{vocab, Term};
use turbohom_sparql::{GroupPattern, Query, SparqlTerm, TriplePattern};

/// The term whose binding assigns each match to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// A constant anchor: the query routes to `owner(term)` alone.
    Constant(Term),
    /// A variable anchor: every live shard executes, keeping only rows whose
    /// anchor binding it owns.
    Variable(String),
}

/// The outcome of a successful shardability analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardQuery {
    /// The selected anchor.
    pub anchor: Anchor,
}

/// One node of the pattern linkage graph: a variable or a constant term in
/// subject/object position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node<'a> {
    Var(&'a str),
    Const(&'a Term),
}

fn node<'a>(term: &'a SparqlTerm) -> Node<'a> {
    match term {
        SparqlTerm::Variable(v) => Node::Var(v),
        SparqlTerm::Constant(c) => Node::Const(c),
    }
}

/// How a triple constrains shard placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TripleClass {
    /// Replicated everywhere; never constrains.
    Schema,
    /// `rdf:type`: present wherever the subject is in the halo.
    Type,
    /// Variable predicate: could match a type triple, so only the subject's
    /// halo membership guarantees presence.
    VarPred,
    /// Constant non-type, non-schema predicate: present wherever either
    /// endpoint is in the halo, and contributes a linkage edge.
    Plain,
}

fn classify(t: &TriplePattern) -> TripleClass {
    match &t.predicate {
        SparqlTerm::Variable(_) => TripleClass::VarPred,
        SparqlTerm::Constant(c) => match c.as_iri() {
            Some(iri) if iri == vocab::RDF_TYPE => TripleClass::Type,
            Some(iri) if crate::is_schema_predicate(iri) => TripleClass::Schema,
            _ => TripleClass::Plain,
        },
    }
}

/// Decides whether `query` can execute exactly over shards built with the
/// halo radius [`HALO`], and which anchor to use. Constant anchors are preferred
/// (they route to a single shard); among variables, projected ones are
/// preferred (no projection surgery needed on the per-shard queries).
pub fn analyze_query(query: &Query) -> Result<ShardQuery, String> {
    let pattern = &query.pattern;
    if !pattern.unions.is_empty() || has_nested_union(pattern) {
        return Err("UNION alternatives are out of scope for sharded execution".into());
    }

    // Candidate anchors, in appearance order over the *required* triples:
    // subjects always qualify; objects only for plain triples (a type
    // object is a class, a schema object never binds per match).
    let mut constants: Vec<&Term> = Vec::new();
    let mut variables: Vec<&str> = Vec::new();
    for t in &pattern.triples {
        let mut push = |n| match n {
            Node::Const(c) => {
                if !constants.contains(&c) {
                    constants.push(c);
                }
            }
            Node::Var(v) => {
                if !variables.contains(&v) {
                    variables.push(v);
                }
            }
        };
        match classify(t) {
            TripleClass::Schema => {}
            TripleClass::Type | TripleClass::VarPred => push(node(&t.subject)),
            TripleClass::Plain => {
                push(node(&t.subject));
                push(node(&t.object));
            }
        }
    }
    if constants.is_empty() && variables.is_empty() {
        return Err("no usable anchor: the required pattern has only schema triples".into());
    }

    // Prefer projected variables (stable order: projection order first).
    let projected = query.projected_variables();
    let mut ordered_vars: Vec<&str> = projected
        .iter()
        .map(String::as_str)
        .filter(|v| variables.contains(v))
        .collect();
    for v in &variables {
        if !ordered_vars.contains(v) {
            ordered_vars.push(v);
        }
    }

    for c in &constants {
        if check_group(pattern, &Vec::new(), Node::Const(c)) {
            return Ok(ShardQuery {
                anchor: Anchor::Constant((*c).clone()),
            });
        }
    }
    for v in &ordered_vars {
        if check_group(pattern, &Vec::new(), Node::Var(v)) {
            return Ok(ShardQuery {
                anchor: Anchor::Variable((*v).to_string()),
            });
        }
    }
    Err(format!(
        "no anchor covers every triple within halo radius {HALO} \
         (the pattern is disconnected or wider than the halo)"
    ))
}

fn has_nested_union(group: &GroupPattern) -> bool {
    group
        .optionals
        .iter()
        .any(|g| !g.unions.is_empty() || has_nested_union(g))
}

type Edges<'a> = Vec<(Node<'a>, Node<'a>)>;

/// Checks every obligation of `group` (its own triples and, recursively,
/// each optional group's) against BFS distances from `anchor`.
fn check_group<'a>(group: &'a GroupPattern, inherited: &Edges<'a>, anchor: Node<'a>) -> bool {
    // This group's linkage edges: inherited (required + ancestor optionals)
    // plus its own plain triples. Sibling optional groups are *not*
    // inherited — they may be unmatched while this group matches.
    let mut edges = inherited.clone();
    for t in &group.triples {
        if classify(t) == TripleClass::Plain {
            edges.push((node(&t.subject), node(&t.object)));
        }
    }
    let dist = bfs(anchor, &edges);
    let within = |n: Node<'a>| dist.get(&n).is_some_and(|&d| d <= HALO);
    for t in &group.triples {
        let ok = match classify(t) {
            TripleClass::Schema => true,
            TripleClass::Type | TripleClass::VarPred => within(node(&t.subject)),
            TripleClass::Plain => within(node(&t.subject)) || within(node(&t.object)),
        };
        if !ok {
            return false;
        }
    }
    group
        .optionals
        .iter()
        .all(|opt| check_group(opt, &edges, anchor))
}

fn bfs<'a>(start: Node<'a>, edges: &Edges<'a>) -> HashMap<Node<'a>, usize> {
    let mut adjacency: HashMap<Node<'a>, Vec<Node<'a>>> = HashMap::new();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().push(b);
        adjacency.entry(b).or_default().push(a);
    }
    let mut dist = HashMap::new();
    dist.insert(start, 0usize);
    let mut queue = VecDeque::from([start]);
    while let Some(n) = queue.pop_front() {
        let d = dist[&n];
        if let Some(next) = adjacency.get(&n) {
            for &m in next {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(m) {
                    e.insert(d + 1);
                    queue.push_back(m);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_sparql::parse_query;

    const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

    #[test]
    fn constant_anchor_is_preferred() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d1> . \
                               ?x <http://ex/advisor> ?y . }",
        )
        .unwrap();
        let sq = analyze_query(&q).unwrap();
        assert_eq!(sq.anchor, Anchor::Constant(Term::iri("http://ex/d1")));
    }

    #[test]
    fn variable_anchor_prefers_projected_variables() {
        let q =
            parse_query("SELECT ?y WHERE { ?x <http://ex/p> ?y . ?y <http://ex/q> ?z . }").unwrap();
        let sq = analyze_query(&q).unwrap();
        assert_eq!(sq.anchor, Anchor::Variable("y".into()));
    }

    #[test]
    fn type_only_queries_anchor_on_the_subject() {
        let q = parse_query(&format!(
            "SELECT ?x WHERE {{ ?x <{TYPE}> <http://ex/Student> . }}"
        ))
        .unwrap();
        let sq = analyze_query(&q).unwrap();
        assert_eq!(sq.anchor, Anchor::Variable("x".into()));
    }

    #[test]
    fn union_is_rejected() {
        let q = parse_query(
            "SELECT ?x WHERE { { ?x <http://ex/a> ?y . } UNION { ?x <http://ex/b> ?y . } }",
        )
        .unwrap();
        let err = analyze_query(&q).unwrap_err();
        assert!(err.contains("UNION"));
    }

    #[test]
    fn disconnected_patterns_are_rejected() {
        let q = parse_query("SELECT ?a ?b WHERE { ?a <http://ex/p> ?x . ?b <http://ex/q> ?y . }")
            .unwrap();
        assert!(analyze_query(&q).is_err());
    }

    /// A path over `nodes` variables `?a`, `?b`, … joined by `ex:p`.
    fn chain(nodes: u8) -> Query {
        let var = |i: u8| char::from(b'a' + i);
        let triples: String = (1..nodes)
            .map(|i| format!("?{} <http://ex/p> ?{} . ", var(i - 1), var(i)))
            .collect();
        parse_query(&format!("SELECT ?a WHERE {{ {triples}}}")).unwrap()
    }

    #[test]
    fn chains_wider_than_the_halo_are_rejected() {
        // Under the min-distance rule an edge is satisfied when *either*
        // endpoint is within the halo, so the middle anchor d of a 7-node
        // path covers the whole path at halo 2 (the far edges f–g and a–b
        // each have an endpoint 2 hops away); an 8-node path has an edge
        // with no endpoint within 2 hops of any anchor.
        assert_eq!(HALO, 2);
        let sq = analyze_query(&chain(7)).unwrap();
        assert_eq!(sq.anchor, Anchor::Variable("d".into()));
        let err = analyze_query(&chain(8)).unwrap_err();
        assert!(err.contains("halo radius 2"), "{err}");
    }

    #[test]
    fn type_triples_do_not_provide_linkage() {
        // x and y are connected only through a shared class — but type
        // edges carry no linkage, so the pattern is effectively
        // disconnected for sharding purposes.
        let q = parse_query(&format!(
            "SELECT ?x ?y WHERE {{ ?x <{TYPE}> <http://ex/C> . ?y <{TYPE}> <http://ex/C> . }}"
        ))
        .unwrap();
        assert!(analyze_query(&q).is_err());
    }

    #[test]
    fn optionals_count_toward_the_distance_check() {
        // `?x p ?y` plus an OPTIONAL path of `hops` edges out of y.
        let q = |hops: usize| {
            let optional: String = (0..hops)
                .map(|i| match i {
                    0 => "?y <http://ex/q> ?z0 . ".to_string(),
                    _ => format!("?z{} <http://ex/q> ?z{i} . ", i - 1),
                })
                .collect();
            let sparql =
                format!("SELECT ?x WHERE {{ ?x <http://ex/p> ?y . OPTIONAL {{ {optional}}} }}");
            parse_query(&sparql).unwrap()
        };
        // Two optional hops: from x the deepest optional edge still has an
        // endpoint at distance 2, so the projected anchor x works. Three:
        // the check shifts to y. Four: neither required-pattern anchor
        // covers the required triple and the optional together.
        assert_eq!(
            analyze_query(&q(2)).unwrap().anchor,
            Anchor::Variable("x".into())
        );
        assert_eq!(
            analyze_query(&q(3)).unwrap().anchor,
            Anchor::Variable("y".into())
        );
        assert!(analyze_query(&q(4)).is_err());
    }

    #[test]
    fn sibling_optionals_do_not_vouch_for_each_other() {
        // Each optional is individually within halo 1 of x through its own
        // edge, but o2's triple must not use o1's edge for distance.
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://ex/p> ?a . \
               OPTIONAL { ?a <http://ex/q> ?b . } \
               OPTIONAL { ?b <http://ex/r> ?c . } }",
        )
        .unwrap();
        // Anchoring on a: b is 1 away (first optional's own edge), but the
        // second optional sees only required+own edges, where b is
        // unreachable: it never inherits the sibling edge a–b, so no halo
        // radius covers it.
        assert!(analyze_query(&q).is_err());
    }

    #[test]
    fn variable_predicates_need_the_subject_nearby() {
        let q = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o . }").unwrap();
        let sq = analyze_query(&q).unwrap();
        // Only the subject qualifies as an anchor; o is not reachable via
        // linkage but the obligation is on the subject alone.
        assert_eq!(sq.anchor, Anchor::Variable("s".into()));
    }
}
