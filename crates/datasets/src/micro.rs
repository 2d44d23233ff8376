//! The paper's worked examples as tiny datasets.
//!
//! These power the unit/integration tests and the matching-order
//! micro-benchmark:
//!
//! * [`figure1`] — the query/data pair used to define subgraph isomorphism
//!   vs e-graph homomorphism (1 isomorphism, 3 homomorphisms).
//! * [`figure2`] — the matching-order example: a hub vertex fanning out to
//!   few X, many Y and very few Z vertices, where a bad matching order costs
//!   `1 + |Y|·|X|·|Z|` comparisons and a good one costs `1 + |Z|·|X|`.
//! * [`figure3`] — the running university example used to illustrate the
//!   direct and type-aware transformations.

use crate::BenchmarkQuery;
use turbohom_rdf::{vocab, Dataset, Term};

/// Example namespace.
pub const EX: &str = "http://example.org/";

fn ex(local: &str) -> Term {
    Term::iri(format!("{EX}{local}"))
}

/// The data graph of paper Figure 1 (6 vertices, 7 edges, labels A–E).
pub fn figure1() -> Dataset {
    let mut ds = Dataset::new();
    let types: [(&str, &[&str]); 6] = [
        ("v0", &["A"]),
        ("v1", &["B"]),
        ("v2", &["A", "D"]),
        ("v3", &["B"]),
        ("v4", &["C"]),
        ("v5", &["C", "E"]),
    ];
    for (v, ts) in types {
        for t in ts {
            ds.insert(&ex(v), &Term::iri(vocab::RDF_TYPE), &ex(t));
        }
    }
    for (s, p, o) in [
        ("v0", "a", "v1"),
        ("v0", "b", "v4"),
        ("v2", "a", "v1"),
        ("v2", "a", "v3"),
        ("v3", "c", "v4"),
        ("v3", "c", "v5"),
        ("v2", "b", "v5"),
    ] {
        ds.insert(&ex(s), &ex(p), &ex(o));
    }
    ds.dedup();
    ds
}

/// The query of Figure 1 (q1): under isomorphism it has exactly one match in
/// [`figure1`], under e-graph homomorphism it has three.
pub fn figure1_query() -> BenchmarkQuery {
    BenchmarkQuery::new(
        "fig1",
        "The worked example query q1 of Figure 1",
        format!(
            "PREFIX rdf: <{}>\nPREFIX ex: <{EX}>\n\
             SELECT * WHERE {{ \
               ?u0 rdf:type ex:A . ?u2 rdf:type ex:A . ?u3 rdf:type ex:B . ?u4 rdf:type ex:C . \
               ?u0 ex:a ?u1 . ?u2 ex:a ?u1 . ?u2 ex:a ?u3 . ?u3 ex:c ?u4 . ?u0 ex:b ?u4 . }}",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        ),
    )
}

/// The data graph of Figure 2b, scaled by `xs`/`ys`/`zs`: one hub vertex of
/// type A connected to `xs` X vertices, `ys` Y vertices and `zs` Z vertices
/// (the paper uses 10 / 10 000 / 5).
pub fn figure2(xs: usize, ys: usize, zs: usize) -> Dataset {
    let mut ds = Dataset::new();
    ds.insert(&ex("a0"), &Term::iri(vocab::RDF_TYPE), &ex("A"));
    let mut add = |class: &str, count: usize| {
        for i in 0..count {
            let v = ex(&format!("{}{i}", class.to_lowercase()));
            ds.insert(&v, &Term::iri(vocab::RDF_TYPE), &ex(class));
            ds.insert(&ex("a0"), &ex("edge"), &v);
        }
    };
    add("X", xs);
    add("Y", ys);
    add("Z", zs);
    ds.dedup();
    ds
}

/// The star query of Figure 2a over [`figure2`] data.
pub fn figure2_query() -> BenchmarkQuery {
    BenchmarkQuery::new(
        "fig2",
        "The matching-order example query q2 of Figure 2",
        format!(
            "PREFIX rdf: <{}>\nPREFIX ex: <{EX}>\n\
             SELECT * WHERE {{ \
               ?a rdf:type ex:A . ?x rdf:type ex:X . ?y rdf:type ex:Y . ?z rdf:type ex:Z . \
               ?a ex:edge ?x . ?a ex:edge ?y . ?a ex:edge ?z . }}",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        ),
    )
}

/// The RDF graph of Figure 3 (the running university example used to
/// illustrate the transformations).
pub fn figure3() -> Dataset {
    let mut ds = Dataset::new();
    ds.insert(
        &ex("student1"),
        &Term::iri(vocab::RDF_TYPE),
        &ex("GraduateStudent"),
    );
    ds.insert(
        &ex("GraduateStudent"),
        &Term::iri(vocab::RDFS_SUBCLASSOF),
        &ex("Student"),
    );
    ds.insert(&ex("univ1"), &Term::iri(vocab::RDF_TYPE), &ex("University"));
    ds.insert(
        &ex("dept1.univ1"),
        &Term::iri(vocab::RDF_TYPE),
        &ex("Department"),
    );
    ds.insert(
        &ex("student1"),
        &ex("undergraduateDegreeFrom"),
        &ex("univ1"),
    );
    ds.insert(&ex("student1"), &ex("memberOf"), &ex("dept1.univ1"));
    ds.insert(&ex("dept1.univ1"), &ex("subOrganizationOf"), &ex("univ1"));
    ds.insert(
        &ex("student1"),
        &ex("telephone"),
        &Term::literal("012-345-6789"),
    );
    ds.insert(
        &ex("student1"),
        &ex("emailAddress"),
        &Term::literal("john@dept1.univ1.edu"),
    );
    ds.dedup();
    ds
}

/// The triangle query of Figure 5a / Figure 8 over the Figure 3 data.
pub fn figure3_query() -> BenchmarkQuery {
    BenchmarkQuery::new(
        "fig5",
        "The SPARQL query of Figure 5a (student / university / department triangle)",
        format!(
            "PREFIX rdf: <{}>\nPREFIX ex: <{EX}>\n\
             SELECT ?X ?Y ?Z WHERE {{ \
               ?X rdf:type ex:Student . ?Y rdf:type ex:University . ?Z rdf:type ex:Department . \
               ?X ex:undergraduateDegreeFrom ?Y . ?X ex:memberOf ?Z . ?Z ex:subOrganizationOf ?Y . }}",
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_expected_size() {
        let ds = figure1();
        // 8 type triples + 7 edges.
        assert_eq!(ds.len(), 15);
    }

    #[test]
    fn figure2_scales_with_parameters() {
        let ds = figure2(10, 100, 5);
        // 1 + (10+100+5) type triples + (10+100+5) edges.
        assert_eq!(ds.len(), 1 + 115 * 2);
    }

    #[test]
    fn figure3_matches_paper_triple_count() {
        assert_eq!(figure3().len(), 9);
    }

    #[test]
    fn queries_parse() {
        for q in [figure1_query(), figure2_query(), figure3_query()] {
            assert!(turbohom_sparql::parse_query(&q.sparql).is_ok(), "{}", q.id);
        }
    }
}
