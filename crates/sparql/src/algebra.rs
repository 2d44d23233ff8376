//! The SPARQL algebra produced by the parser.
//!
//! The shape follows what the TurboHOM++ engine needs rather than the full
//! W3C algebra: a query is a projection over one [`GroupPattern`], and a
//! group is a required basic graph pattern plus `OPTIONAL` sub-groups,
//! `FILTER` expressions and `UNION` alternatives — the structure used by the
//! BSBM explore use case (paper Section 5.1).

use crate::expression::Expression;
use std::collections::BTreeSet;
use turbohom_rdf::Term;

/// A term position in a triple pattern: a variable or a constant RDF term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SparqlTerm {
    /// A variable, e.g. `?x` (stored without the leading `?`).
    Variable(String),
    /// A constant RDF term (IRI or literal).
    Constant(Term),
}

impl SparqlTerm {
    /// Convenience constructor for a variable.
    pub fn var(name: impl Into<String>) -> Self {
        SparqlTerm::Variable(name.into())
    }

    /// Convenience constructor for an IRI constant.
    pub fn iri(value: impl Into<String>) -> Self {
        SparqlTerm::Constant(Term::iri(value))
    }

    /// Convenience constructor for a plain literal constant.
    pub fn literal(value: impl Into<String>) -> Self {
        SparqlTerm::Constant(Term::literal(value))
    }

    /// Returns the variable name if this is a variable.
    pub fn as_variable(&self) -> Option<&str> {
        match self {
            SparqlTerm::Variable(v) => Some(v),
            SparqlTerm::Constant(_) => None,
        }
    }

    /// Returns the constant term if this is a constant.
    pub fn as_constant(&self) -> Option<&Term> {
        match self {
            SparqlTerm::Variable(_) => None,
            SparqlTerm::Constant(t) => Some(t),
        }
    }

    /// Returns `true` if this is a variable.
    pub fn is_variable(&self) -> bool {
        matches!(self, SparqlTerm::Variable(_))
    }
}

/// A triple pattern `subject predicate object`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: SparqlTerm,
    /// The predicate position.
    pub predicate: SparqlTerm,
    /// The object position.
    pub object: SparqlTerm,
}

impl TriplePattern {
    /// Creates a new triple pattern.
    pub fn new(subject: SparqlTerm, predicate: SparqlTerm, object: SparqlTerm) -> Self {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    /// The variables mentioned by this pattern, in subject/predicate/object order.
    pub fn variables(&self) -> Vec<&str> {
        [&self.subject, &self.predicate, &self.object]
            .into_iter()
            .filter_map(|t| t.as_variable())
            .collect()
    }
}

/// A group graph pattern: the unit inside `{ ... }`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupPattern {
    /// The required triple patterns (the basic graph pattern).
    pub triples: Vec<TriplePattern>,
    /// `OPTIONAL { ... }` sub-groups, in syntactic order. May be nested.
    pub optionals: Vec<GroupPattern>,
    /// `FILTER (...)` expressions attached to this group.
    pub filters: Vec<Expression>,
    /// `{ A } UNION { B } [UNION { C } ...]` alternatives. Each entry is one
    /// union construct; its `Vec` holds the branches.
    pub unions: Vec<Vec<GroupPattern>>,
}

impl GroupPattern {
    /// Creates an empty group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the group contains nothing at all.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
            && self.optionals.is_empty()
            && self.filters.is_empty()
            && self.unions.is_empty()
    }

    /// All variables mentioned anywhere in the group (required part,
    /// optionals, filters and unions), sorted and deduplicated.
    pub fn all_variables(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        self.collect_variables(&mut set);
        set.into_iter().collect()
    }

    fn collect_variables(&self, out: &mut BTreeSet<String>) {
        for t in &self.triples {
            for v in t.variables() {
                out.insert(v.to_string());
            }
        }
        for opt in &self.optionals {
            opt.collect_variables(out);
        }
        for f in &self.filters {
            for v in f.variables() {
                out.insert(v);
            }
        }
        for union in &self.unions {
            for branch in union {
                branch.collect_variables(out);
            }
        }
    }

    /// Expands the `UNION` constructs into a list of union-free groups (the
    /// "split into sub-queries" strategy of Section 5.1). Each returned group
    /// contains this group's required triples/optionals/filters plus one
    /// branch choice per union construct (cartesian combination).
    pub fn expand_unions(&self) -> Vec<GroupPattern> {
        let base = GroupPattern {
            triples: self.triples.clone(),
            optionals: self.optionals.clone(),
            filters: self.filters.clone(),
            unions: Vec::new(),
        };
        let mut expanded = vec![base];
        for union in &self.unions {
            let mut next = Vec::new();
            for partial in &expanded {
                for branch in union {
                    // The branch itself may contain unions; expand recursively.
                    for branch_expanded in branch.expand_unions() {
                        let mut combined = partial.clone();
                        combined.triples.extend(branch_expanded.triples.clone());
                        combined.optionals.extend(branch_expanded.optionals.clone());
                        combined.filters.extend(branch_expanded.filters.clone());
                        next.push(combined);
                    }
                }
            }
            expanded = next;
        }
        expanded
    }
}

/// The `SELECT` projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// `SELECT *` — project every variable of the group.
    All,
    /// `SELECT ?a ?b ...` — project the listed variables (without `?`).
    Variables(Vec<String>),
}

/// A parsed SPARQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The projection.
    pub selection: Selection,
    /// Whether `DISTINCT` was present (recorded; no engine removes
    /// duplicates — the paper times pure pattern matching, Section 7.1 — so
    /// the store refuses a query that has it). `REDUCED` is not recorded: it
    /// permits duplicates.
    pub distinct: bool,
    /// The `WHERE` group.
    pub pattern: GroupPattern,
    /// `ORDER BY` variables (recorded; the engine refuses a query that has
    /// any, since nothing sorts).
    pub order_by: Vec<String>,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
    /// `OFFSET`, if present.
    pub offset: Option<usize>,
}

impl Query {
    /// The projected variable names for this query, resolving `SELECT *`
    /// against the variables of the pattern. A name listed twice
    /// (`SELECT ?x ?x`) is projected once, where it first stands: a result
    /// row is keyed by variable.
    pub fn projected_variables(&self) -> Vec<String> {
        match &self.selection {
            Selection::All => self.pattern.all_variables(),
            Selection::Variables(vars) => {
                let mut unique: Vec<String> = Vec::with_capacity(vars.len());
                for var in vars {
                    if !unique.contains(var) {
                        unique.push(var.clone());
                    }
                }
                unique
            }
        }
    }

    /// Returns `true` if the query uses any feature beyond a plain BGP
    /// (OPTIONAL / FILTER / UNION).
    pub fn has_general_features(&self) -> bool {
        !self.pattern.optionals.is_empty()
            || !self.pattern.filters.is_empty()
            || !self.pattern.unions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let term = |x: &str| {
            if let Some(v) = x.strip_prefix('?') {
                SparqlTerm::var(v)
            } else {
                SparqlTerm::iri(x)
            }
        };
        TriplePattern::new(term(s), term(p), term(o))
    }

    #[test]
    fn sparql_term_accessors() {
        let v = SparqlTerm::var("x");
        assert!(v.is_variable());
        assert_eq!(v.as_variable(), Some("x"));
        assert!(v.as_constant().is_none());
        let c = SparqlTerm::iri("http://ex.org/a");
        assert!(!c.is_variable());
        assert_eq!(c.as_constant(), Some(&Term::iri("http://ex.org/a")));
    }

    #[test]
    fn pattern_variables_and_selectivity() {
        let p = tp("?x", "http://p", "?y");
        assert_eq!(p.variables(), vec!["x", "y"]);
    }

    #[test]
    fn group_all_variables_recurse_into_optionals_and_unions() {
        let mut g = GroupPattern::new();
        g.triples.push(tp("?x", "http://p", "?y"));
        let mut opt = GroupPattern::new();
        opt.triples.push(tp("?x", "http://q", "?z"));
        g.optionals.push(opt);
        let mut b1 = GroupPattern::new();
        b1.triples.push(tp("?x", "http://r", "?w"));
        let mut b2 = GroupPattern::new();
        b2.triples.push(tp("?x", "http://r", "?v"));
        g.unions.push(vec![b1, b2]);
        assert_eq!(g.all_variables(), vec!["v", "w", "x", "y", "z"]);
    }

    #[test]
    fn union_expansion_produces_one_group_per_branch() {
        let mut g = GroupPattern::new();
        g.triples.push(tp("?x", "http://p", "?y"));
        let mut b1 = GroupPattern::new();
        b1.triples.push(tp("?x", "http://f", "http://feature1"));
        let mut b2 = GroupPattern::new();
        b2.triples.push(tp("?x", "http://f", "http://feature2"));
        g.unions.push(vec![b1, b2]);
        let expanded = g.expand_unions();
        assert_eq!(expanded.len(), 2);
        for e in &expanded {
            assert_eq!(e.triples.len(), 2);
            assert!(e.unions.is_empty());
        }
    }

    #[test]
    fn union_expansion_is_cartesian_over_multiple_unions() {
        let mut g = GroupPattern::new();
        let branch = |p: &str| {
            let mut b = GroupPattern::new();
            b.triples.push(tp("?x", p, "?y"));
            b
        };
        g.unions.push(vec![branch("http://a"), branch("http://b")]);
        g.unions.push(vec![
            branch("http://c"),
            branch("http://d"),
            branch("http://e"),
        ]);
        assert_eq!(g.expand_unions().len(), 6);
    }

    #[test]
    fn union_expansion_without_unions_is_identity() {
        let mut g = GroupPattern::new();
        g.triples.push(tp("?x", "http://p", "?y"));
        let expanded = g.expand_unions();
        assert_eq!(expanded.len(), 1);
        assert_eq!(expanded[0].triples, g.triples);
    }

    #[test]
    fn query_projection_resolution() {
        let mut g = GroupPattern::new();
        g.triples.push(tp("?b", "http://p", "?a"));
        let q = Query {
            selection: Selection::All,
            distinct: false,
            pattern: g.clone(),
            order_by: vec![],
            limit: None,
            offset: None,
        };
        assert_eq!(q.projected_variables(), vec!["a", "b"]);
        assert!(!q.has_general_features());

        let q2 = Query {
            selection: Selection::Variables(vec!["b".into()]),
            distinct: true,
            pattern: g,
            order_by: vec![],
            limit: Some(10),
            offset: None,
        };
        assert_eq!(q2.projected_variables(), vec!["b"]);

        let repeated = Query {
            selection: Selection::Variables(vec!["b".into(), "a".into(), "b".into()]),
            ..q2
        };
        assert_eq!(repeated.projected_variables(), vec!["b", "a"]);
    }
}
