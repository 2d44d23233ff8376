//! The join-based query engines (RDF-3X / System-X stand-ins).
//!
//! Execution model: every triple pattern becomes a range scan over the
//! [`PermutationIndexes`]; the scans are combined with binary joins in a
//! greedy, selectivity-driven order; OPTIONAL becomes a left outer join,
//! FILTER a selection over the intermediate relation, UNION a concatenation
//! of the expanded branches. The two engines differ only in the physical
//! join operator (sort-merge vs hash).

use crate::permutation::PermutationIndexes;
use crate::relation::Relation;
use std::collections::HashMap;
use turbohom_rdf::{Dictionary, TermId};
use turbohom_sparql::{Expression, GroupPattern, Query, SparqlTerm, TriplePattern};

/// Physical join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Sort both inputs on the join key and merge (the RDF-3X way — its
    /// scans are already sorted, so merging is the natural operator).
    SortMerge,
    /// Build a hash table over the smaller input and probe with the larger
    /// one (the TripleBit / System-X stand-in).
    Hash,
}

/// Execution counters of one baseline query run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BaselineStats {
    /// Triples produced by the index scans.
    pub scanned_triples: usize,
    /// Number of binary joins performed.
    pub joins: usize,
    /// Total rows of all intermediate join results.
    pub intermediate_rows: usize,
    /// Rows of the final relation.
    pub solutions: usize,
}

/// A join-based SPARQL engine over one dictionary and its permutation
/// tables.
pub struct BaselineEngine<'a> {
    dictionary: &'a Dictionary,
    indexes: &'a PermutationIndexes,
    strategy: JoinStrategy,
}

/// RDF-3X-style engine: permutation-index scans + sort-merge joins.
pub struct MergeJoinEngine;

impl MergeJoinEngine {
    /// Creates the RDF-3X-style engine. Deliberately returns the shared
    /// [`BaselineEngine`] runner rather than `Self` — `MergeJoinEngine` and
    /// `HashJoinEngine` are facade names for the two join strategies.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(
        dictionary: &'a Dictionary,
        indexes: &'a PermutationIndexes,
    ) -> BaselineEngine<'a> {
        BaselineEngine {
            dictionary,
            indexes,
            strategy: JoinStrategy::SortMerge,
        }
    }
}

/// Hash-join engine: permutation-index scans + hash joins.
pub struct HashJoinEngine;

impl HashJoinEngine {
    /// Creates the hash-join engine. Deliberately returns the shared
    /// [`BaselineEngine`] runner rather than `Self`, like
    /// [`MergeJoinEngine::new`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(
        dictionary: &'a Dictionary,
        indexes: &'a PermutationIndexes,
    ) -> BaselineEngine<'a> {
        BaselineEngine {
            dictionary,
            indexes,
            strategy: JoinStrategy::Hash,
        }
    }
}

impl<'a> BaselineEngine<'a> {
    /// The physical join operator this engine uses.
    pub fn strategy(&self) -> JoinStrategy {
        self.strategy
    }

    /// Executes a parsed SPARQL query, returning the result relation (over
    /// all pattern variables) and the execution counters.
    pub fn execute(&self, query: &Query) -> (Relation, BaselineStats) {
        let mut stats = BaselineStats::default();
        let header = query.pattern.all_variables();
        let mut out = Relation::empty(header.clone());
        for branch in query.pattern.expand_unions() {
            let r = self.evaluate_group(&branch, &mut stats);
            out.append(r.project(&header));
        }
        stats.solutions = out.len();
        (out, stats)
    }

    /// Evaluates one union-free group: required BGP, then OPTIONAL left
    /// joins, then FILTER selections.
    fn evaluate_group(&self, group: &GroupPattern, stats: &mut BaselineStats) -> Relation {
        let mut current = self.evaluate_bgp(&group.triples, stats);
        for optional in &group.optionals {
            let right = self.evaluate_group(optional, stats);
            stats.joins += 1;
            current = self.left_join(&current, &right);
            stats.intermediate_rows += current.len();
        }
        for filter in &group.filters {
            current = self.apply_filter(current, filter);
        }
        current
    }

    /// Evaluates a basic graph pattern with greedy join ordering: start from
    /// the most selective scan, repeatedly join the smallest relation that
    /// shares a variable with the result so far (falling back to a cartesian
    /// product only when nothing is connected).
    fn evaluate_bgp(&self, patterns: &[TriplePattern], stats: &mut BaselineStats) -> Relation {
        if patterns.is_empty() {
            return Relation::unit();
        }
        let mut scans: Vec<Relation> = patterns
            .iter()
            .map(|p| self.scan_pattern(p, stats))
            .collect();
        // Start with the smallest scan.
        scans.sort_by_key(|r| r.len());
        let mut current = scans.remove(0);
        while !scans.is_empty() {
            // Prefer a relation connected to the current result.
            let connected = scans
                .iter()
                .enumerate()
                .filter(|(_, r)| !current.shared_vars(r).is_empty())
                .min_by_key(|(_, r)| r.len())
                .map(|(i, _)| i);
            let idx = connected.unwrap_or(0);
            let right = scans.remove(idx);
            stats.joins += 1;
            current = self.inner_join(&current, &right);
            stats.intermediate_rows += current.len();
            if current.is_empty() {
                // Early exit: the remaining joins cannot resurrect rows.
                break;
            }
        }
        current
    }

    /// Scans one triple pattern into a relation over its variables.
    fn scan_pattern(&self, pattern: &TriplePattern, stats: &mut BaselineStats) -> Relation {
        let resolve = |term: &SparqlTerm| -> Result<Option<TermId>, ()> {
            match term {
                SparqlTerm::Variable(_) => Ok(None),
                SparqlTerm::Constant(t) => match self.dictionary.id_of(t) {
                    Some(id) => Ok(Some(id)),
                    None => Err(()),
                },
            }
        };
        // Build the (deduplicated) header.
        let mut vars: Vec<String> = Vec::new();
        for t in [&pattern.subject, &pattern.predicate, &pattern.object] {
            if let Some(v) = t.as_variable() {
                if !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
        }
        let (s, p, o) = match (
            resolve(&pattern.subject),
            resolve(&pattern.predicate),
            resolve(&pattern.object),
        ) {
            (Ok(s), Ok(p), Ok(o)) => (s, p, o),
            // A constant that is not in the dictionary matches nothing.
            _ => return Relation::empty(vars),
        };
        let triples = self.indexes.scan((s, p, o));
        stats.scanned_triples += triples.len();
        let mut rows = Vec::with_capacity(triples.len());
        'next: for t in triples {
            let mut row: Vec<Option<TermId>> = vec![None; vars.len()];
            for (term, value) in [
                (&pattern.subject, t.s),
                (&pattern.predicate, t.p),
                (&pattern.object, t.o),
            ] {
                if let Some(v) = term.as_variable() {
                    let col = vars.iter().position(|x| x == v).expect("var in header");
                    match row[col] {
                        None => row[col] = Some(value),
                        // Repeated variable inside one pattern (e.g. ?x ?p ?x)
                        // must bind to the same term.
                        Some(existing) if existing != value => continue 'next,
                        Some(_) => {}
                    }
                }
            }
            rows.push(row);
        }
        Relation { vars, rows }
    }

    /// Inner join on the shared variables (cartesian product if none).
    fn inner_join(&self, left: &Relation, right: &Relation) -> Relation {
        let shared = left.shared_vars(right);
        let out_vars = joined_header(left, right);
        let mut out = Relation::empty(out_vars);
        match self.strategy {
            JoinStrategy::Hash => {
                let index = build_hash_index(right, &shared);
                for lrow in &left.rows {
                    let Some(key) = key_of(left, lrow, &shared) else {
                        continue;
                    };
                    if let Some(matches) = index.get(&key) {
                        for &ri in matches {
                            out.rows
                                .push(combine(left, lrow, right, &right.rows[ri], &out.vars));
                        }
                    }
                }
            }
            JoinStrategy::SortMerge => {
                let mut lsorted = sorted_by_key(left, &shared);
                let mut rsorted = sorted_by_key(right, &shared);
                if shared.is_empty() {
                    // Cartesian product.
                    for (_, lrow) in &lsorted {
                        for (_, rrow) in &rsorted {
                            out.rows.push(combine(left, lrow, right, rrow, &out.vars));
                        }
                    }
                    return out;
                }
                lsorted.retain(|(k, _)| k.is_some());
                rsorted.retain(|(k, _)| k.is_some());
                let (mut i, mut j) = (0usize, 0usize);
                while i < lsorted.len() && j < rsorted.len() {
                    let lk = lsorted[i].0.as_ref().unwrap();
                    let rk = rsorted[j].0.as_ref().unwrap();
                    match lk.cmp(rk) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            // Expand the equal-key blocks on both sides.
                            let i_end = (i..lsorted.len())
                                .take_while(|&x| lsorted[x].0.as_ref() == Some(lk))
                                .last()
                                .unwrap()
                                + 1;
                            let j_end = (j..rsorted.len())
                                .take_while(|&x| rsorted[x].0.as_ref() == Some(rk))
                                .last()
                                .unwrap()
                                + 1;
                            for (_, lrow) in &lsorted[i..i_end] {
                                for (_, rrow) in &rsorted[j..j_end] {
                                    out.rows.push(combine(left, lrow, right, rrow, &out.vars));
                                }
                            }
                            i = i_end;
                            j = j_end;
                        }
                    }
                }
            }
        }
        out
    }

    /// Left outer join: every left row is kept; unmatched right variables
    /// become `None` (SPARQL OPTIONAL semantics).
    fn left_join(&self, left: &Relation, right: &Relation) -> Relation {
        let shared = left.shared_vars(right);
        let out_vars = joined_header(left, right);
        let mut out = Relation::empty(out_vars);
        let index = build_hash_index(right, &shared);
        let nulls: Vec<Option<TermId>> = vec![None; right.vars.len()];
        for lrow in &left.rows {
            let matches = key_of(left, lrow, &shared)
                .and_then(|key| index.get(&key))
                .cloned()
                .unwrap_or_default();
            if matches.is_empty() {
                out.rows.push(combine(left, lrow, right, &nulls, &out.vars));
            } else {
                for ri in matches {
                    out.rows
                        .push(combine(left, lrow, right, &right.rows[ri], &out.vars));
                }
            }
        }
        out
    }

    /// Keeps the rows that satisfy `filter`, which reads the dictionary's
    /// view of the cells it asks for.
    fn apply_filter(&self, mut relation: Relation, filter: &Expression) -> Relation {
        let (vars, dictionary) = (&relation.vars, self.dictionary);
        relation.rows.retain(|row| {
            let bindings = |name: &str| {
                let column = vars.iter().position(|var| var == name)?;
                row[column].and_then(|id| dictionary.term_and_view(id))
            };
            filter.evaluate_bool(&bindings)
        });
        relation
    }
}

/// Header of a join result: left variables followed by right-only variables.
fn joined_header(left: &Relation, right: &Relation) -> Vec<String> {
    let mut vars = left.vars.clone();
    for v in &right.vars {
        if !vars.contains(v) {
            vars.push(v.clone());
        }
    }
    vars
}

/// Extracts the join key of a row (None if any key variable is unbound).
fn key_of(rel: &Relation, row: &[Option<TermId>], shared: &[String]) -> Option<Vec<TermId>> {
    let mut key = Vec::with_capacity(shared.len());
    for v in shared {
        match rel.value(row, v) {
            Some(id) => key.push(id),
            None => return None,
        }
    }
    Some(key)
}

/// Builds a hash index from key tuple to row indices.
fn build_hash_index(rel: &Relation, shared: &[String]) -> HashMap<Vec<TermId>, Vec<usize>> {
    let mut index: HashMap<Vec<TermId>, Vec<usize>> = HashMap::new();
    for (i, row) in rel.rows.iter().enumerate() {
        if let Some(key) = key_of(rel, row, shared) {
            index.entry(key).or_default().push(i);
        }
    }
    index
}

/// A row of a [`Relation`] paired with its extracted join key (`None` when
/// any key column is unbound).
type KeyedRow<'r> = (Option<Vec<TermId>>, &'r Vec<Option<TermId>>);

/// Pairs every row with its join key and sorts by it (None keys last).
fn sorted_by_key<'r>(rel: &'r Relation, shared: &[String]) -> Vec<KeyedRow<'r>> {
    let mut rows: Vec<KeyedRow<'r>> = rel
        .rows
        .iter()
        .map(|row| (key_of(rel, row, shared), row))
        .collect();
    rows.sort_by(|a, b| match (&a.0, &b.0) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });
    rows
}

/// Combines a left row and a right row into the output header layout.
fn combine(
    left: &Relation,
    lrow: &[Option<TermId>],
    right: &Relation,
    rrow: &[Option<TermId>],
    out_vars: &[String],
) -> Vec<Option<TermId>> {
    out_vars
        .iter()
        .map(|v| match left.column(v) {
            Some(i) => lrow[i],
            None => right.column(v).and_then(|i| rrow[i]),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::{vocab, Dataset, Term};
    use turbohom_sparql::parse_query;

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// Three universities × two departments × four students, plus ages.
    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for u in 0..3 {
            let univ = ub(&format!("univ{u}"));
            ds.insert_iris(&univ, vocab::RDF_TYPE, &ub("University"));
            for d in 0..2 {
                let dept = ub(&format!("dept{u}_{d}"));
                ds.insert_iris(&dept, vocab::RDF_TYPE, &ub("Department"));
                ds.insert_iris(&dept, &ub("subOrganizationOf"), &univ);
                for s in 0..4 {
                    let student = ub(&format!("student{u}_{d}_{s}"));
                    ds.insert_iris(&student, vocab::RDF_TYPE, &ub("Student"));
                    ds.insert_iris(&student, &ub("memberOf"), &dept);
                    ds.insert_iris(&student, &ub("undergraduateDegreeFrom"), &univ);
                    ds.insert(
                        &Term::iri(student.clone()),
                        &Term::iri(ub("age")),
                        &Term::integer(20 + s as i64),
                    );
                    if s == 0 {
                        ds.insert_iris(&student, &ub("email"), &ub(&format!("mail{u}_{d}")));
                    }
                }
            }
        }
        ds
    }

    const TRIANGLE: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://ub.org/>
        SELECT ?x ?y ?z WHERE {
            ?x rdf:type ub:Student . ?y rdf:type ub:University . ?z rdf:type ub:Department .
            ?x ub:undergraduateDegreeFrom ?y . ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y .
        }"#;

    fn run(
        ds: &Dataset,
        idx: &PermutationIndexes,
        strategy: JoinStrategy,
        q: &str,
    ) -> (Relation, BaselineStats) {
        let query = parse_query(q).unwrap();
        let engine = match strategy {
            JoinStrategy::SortMerge => MergeJoinEngine::new(&ds.dictionary, idx),
            JoinStrategy::Hash => HashJoinEngine::new(&ds.dictionary, idx),
        };
        engine.execute(&query)
    }

    #[test]
    fn triangle_query_counts_24_solutions_with_both_strategies() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        for strategy in [JoinStrategy::SortMerge, JoinStrategy::Hash] {
            let (rel, stats) = run(&ds, &idx, strategy, TRIANGLE);
            assert_eq!(rel.len(), 24, "{strategy:?}");
            assert_eq!(stats.solutions, 24);
            assert!(stats.joins >= 5);
            assert!(stats.scanned_triples > 0);
        }
    }

    #[test]
    fn merge_and_hash_join_produce_identical_row_sets() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (mut a, _) = run(&ds, &idx, JoinStrategy::SortMerge, TRIANGLE);
        let (mut b, _) = run(&ds, &idx, JoinStrategy::Hash, TRIANGLE);
        a.rows.sort_unstable();
        b.rows.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bound_subject_query() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::SortMerge,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d WHERE { <http://ub.org/student0_0_0> ub:memberOf ?d . }"#,
        );
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn unknown_constant_yields_empty_result() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::Hash,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?d WHERE { <http://ub.org/ghost> ub:memberOf ?d . }"#,
        );
        assert!(rel.is_empty());
    }

    #[test]
    fn optional_keeps_unmatched_rows_with_nulls() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::SortMerge,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x ?m WHERE {
                 ?x rdf:type ub:Student .
                 OPTIONAL { ?x ub:email ?m . }
               }"#,
        );
        // 24 students; 6 have an email.
        assert_eq!(rel.len(), 24);
        let m_col = rel.column("m").unwrap();
        let bound = rel.rows.iter().filter(|r| r[m_col].is_some()).count();
        assert_eq!(bound, 6);
    }

    #[test]
    fn filter_on_numeric_literals() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::Hash,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE { ?x rdf:type ub:Student . ?x ub:age ?a . FILTER (?a >= 22) }"#,
        );
        assert_eq!(rel.len(), 12);
    }

    #[test]
    fn join_condition_filter() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::SortMerge,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?a ?b WHERE {
                 ?a ub:memberOf ?d . ?b ub:memberOf ?d .
                 ?a ub:age ?agea . ?b ub:age ?ageb .
                 FILTER (?agea > ?ageb)
               }"#,
        );
        // 6 departments × C(4,2) ordered pairs = 36.
        assert_eq!(rel.len(), 36);
    }

    #[test]
    fn union_concatenates_branches() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::Hash,
            r#"PREFIX ub: <http://ub.org/>
               SELECT ?x WHERE {
                 { ?x ub:memberOf <http://ub.org/dept0_0> . }
                 UNION
                 { ?x ub:memberOf <http://ub.org/dept0_1> . }
               }"#,
        );
        assert_eq!(rel.len(), 8);
    }

    #[test]
    fn variable_predicate_scan() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::SortMerge,
            r#"SELECT ?p ?o WHERE { <http://ub.org/student0_0_0> ?p ?o . }"#,
        );
        // type, memberOf, undergraduateDegreeFrom, age, email = 5 triples.
        assert_eq!(rel.len(), 5);
    }

    #[test]
    fn repeated_variable_in_one_pattern_requires_equality() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("a"), &ub("knows"), &ub("a"));
        ds.insert_iris(&ub("a"), &ub("knows"), &ub("b"));
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::Hash,
            r#"PREFIX ub: <http://ub.org/> SELECT ?x WHERE { ?x ub:knows ?x . }"#,
        );
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn empty_bgp_returns_unit() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let engine = MergeJoinEngine::new(&ds.dictionary, &idx);
        let query =
            parse_query("SELECT ?x WHERE { OPTIONAL { ?x <http://ub.org/email> ?m . } }").unwrap();
        let (rel, _) = engine.execute(&query);
        // Unit left-joined with 6 email rows → 6 rows.
        assert_eq!(rel.len(), 6);
    }

    #[test]
    fn cartesian_product_when_patterns_share_nothing() {
        let ds = dataset();
        let idx = PermutationIndexes::build(ds.triples.iter().copied());
        let (rel, _) = run(
            &ds,
            &idx,
            JoinStrategy::SortMerge,
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX ub: <http://ub.org/>
               SELECT ?u ?d WHERE { ?u rdf:type ub:University . ?d rdf:type ub:Department . }"#,
        );
        // 3 universities × 6 departments.
        assert_eq!(rel.len(), 18);
    }
}
