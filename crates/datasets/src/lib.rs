//! Synthetic benchmark datasets and query sets.
//!
//! The paper's evaluation (Section 7) uses four workloads. Their official
//! generators and dumps are external artifacts (Java tools, multi-gigabyte
//! downloads), so this crate re-creates each of them as a deterministic,
//! seed-driven Rust generator that preserves the *statistical shape* the
//! experiments rely on:
//!
//! | Paper dataset | Module | What is preserved |
//! |---|---|---|
//! | LUBM (scale 80/800/8000) + 14 queries | [`lubm`] | university schema, class/property hierarchies that make Q4–Q6/Q13 need inference, constant- vs increasing-solution query split |
//! | BSBM explore use case (12 queries) | [`bsbm`] | e-commerce schema, OPTIONAL/FILTER/UNION query shapes, expensive-filter queries Q5/Q6 |
//! | YAGO + 8 queries | [`yago`] | heterogeneous entity/fact mix, queries with few type constraints |
//! | BTC2012 + 8 queries | [`btc`] | multi-source crawl irregularity, untyped entities, tree-shaped queries with bound IDs |
//!
//! [`micro`] additionally provides the worked examples of the paper
//! (Figures 1, 2 and 3) as tiny datasets for unit/integration tests and the
//! matching-order micro-benchmark.

pub mod bsbm;
pub mod btc;
mod encode;
pub mod lubm;
pub mod micro;
pub mod yago;

/// A named benchmark query (SPARQL text plus identifiers used in reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkQuery {
    /// Short id as used in the paper's tables, e.g. `"Q2"`.
    pub id: String,
    /// Human readable description of what the query asks.
    pub description: String,
    /// The SPARQL text.
    pub sparql: String,
}

impl BenchmarkQuery {
    /// Creates a benchmark query.
    pub fn new(
        id: impl Into<String>,
        description: impl Into<String>,
        sparql: impl Into<String>,
    ) -> Self {
        BenchmarkQuery {
            id: id.into(),
            description: description.into(),
            sparql: sparql.into(),
        }
    }
}

/// A fingerprint of a generated dataset's content: its term count, its
/// triple count, and an FNV-1a hash over every term in id order (kind and
/// strings) and every triple in insertion order. Two datasets with the same
/// fingerprint assign the same ids and keep the same triple list.
#[cfg(test)]
pub(crate) fn fingerprint(ds: &turbohom_rdf::Dataset) -> (usize, usize, u64) {
    use turbohom_rdf::Term;
    use turbohom_storage::{fnv1a, FNV_OFFSET};
    // Each string is length-prefixed, so no two term lists hash alike by
    // moving bytes between neighbouring strings.
    let string = |h: u64, s: &str| fnv1a(fnv1a(h, &(s.len() as u64).to_le_bytes()), s.as_bytes());
    let mut h = FNV_OFFSET;
    for (_, term) in ds.dictionary.iter() {
        h = match &term {
            Term::Iri(iri) => string(fnv1a(h, &[0]), iri),
            Term::BlankNode(label) => string(fnv1a(h, &[1]), label),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => {
                let h = string(fnv1a(h, &[2]), lexical);
                let h = string(h, datatype.as_deref().unwrap_or(""));
                string(h, language.as_deref().unwrap_or(""))
            }
        };
    }
    for t in ds.triples.iter() {
        for id in [t.s, t.p, t.o] {
            h = fnv1a(h, &id.0.to_le_bytes());
        }
    }
    (ds.dictionary.len(), ds.len(), h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sets_parse() {
        for q in lubm::queries()
            .iter()
            .chain(bsbm::queries().iter())
            .chain(yago::queries().iter())
            .chain(btc::queries().iter())
        {
            assert!(
                turbohom_sparql::parse_query(&q.sparql).is_ok(),
                "query {} does not parse: {}",
                q.id,
                q.sparql
            );
        }
    }

    #[test]
    fn benchmark_query_constructor() {
        let q = BenchmarkQuery::new("Q1", "test", "SELECT ?x WHERE { ?x ?p ?o . }");
        assert_eq!(q.id, "Q1");
    }
}
