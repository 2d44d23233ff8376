//! The direct transformation (paper Section 3.2).
//!
//! Subjects and objects become vertices, predicates become edge labels, and
//! no vertex labels are assigned: the paper's "vertex label function is the
//! identity" is realised here through the *ID attribute* instead — a
//! constant in a query maps to a bound query vertex, which constrains the
//! match to exactly that data vertex, which is equivalent to carrying the
//! identity label and cheaper to index.

use crate::common::{GraphMappings, TransformKind, TransformedGraph};
use turbohom_graph::{layout, VertexId};

/// Applies the direct transformation to the triples `type_aware` holds
/// (see [`TransformedGraph::triples`]).
pub fn direct_transform(type_aware: &TransformedGraph) -> TransformedGraph {
    // The edge labels are the type-aware graph's, in its order: its CSR's,
    // then `rdfs:subClassOf` and `rdf:type`, which are edges here. A vertex
    // is its term's id.
    let mut mappings = GraphMappings::default();
    for &p in type_aware.mappings.elabel_to_term.iter() {
        mappings.intern_elabel(p);
    }

    // Then lay out one row per dictionary term straight from the triples; no
    // vertex has a label, and a term that is only a predicate has no edge.
    let n = type_aware.graph.vertex_count();
    let graph = layout(n, vec![0; n + 1], Vec::new(), |sink| {
        for t in type_aware.triples() {
            let p = mappings.elabel_of(t.p).expect("interned above");
            sink(VertexId::of_term(t.s), VertexId::of_term(t.o), p);
        }
    });

    TransformedGraph::assemble(TransformKind::Direct, graph, mappings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::type_aware_transform;
    use turbohom_graph::Direction;
    use turbohom_rdf::{vocab, Dataset};

    /// The RDF graph of paper Figure 3.
    fn figure3_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let ub = |l: &str| format!("http://ub.org/{l}");
        ds.insert_iris(&ub("student1"), vocab::RDF_TYPE, &ub("GraduateStudent"));
        ds.insert_iris(
            &ub("GraduateStudent"),
            vocab::RDFS_SUBCLASSOF,
            &ub("Student"),
        );
        ds.insert_iris(&ub("univ1"), vocab::RDF_TYPE, &ub("University"));
        ds.insert_iris(&ub("dept1.univ1"), vocab::RDF_TYPE, &ub("Department"));
        ds.insert_iris(
            &ub("student1"),
            &ub("undergraduateDegreeFrom"),
            &ub("univ1"),
        );
        ds.insert_iris(&ub("student1"), &ub("memberOf"), &ub("dept1.univ1"));
        ds.insert_iris(&ub("dept1.univ1"), &ub("subOrganizationOf"), &ub("univ1"));
        ds.insert(
            &turbohom_rdf::Term::iri(ub("student1")),
            &turbohom_rdf::Term::iri(ub("telephone")),
            &turbohom_rdf::Term::literal("012-345-6789"),
        );
        ds.insert(
            &turbohom_rdf::Term::iri(ub("student1")),
            &turbohom_rdf::Term::iri(ub("emailAddress")),
            &turbohom_rdf::Term::literal("john@dept1.univ1.edu"),
        );
        ds
    }

    #[test]
    fn figure4_vertex_and_edge_counts() {
        // Figure 4: 9 vertices (GraduateStudent, Student, University,
        // Department, student1, univ1, dept1.univ1, and the two literals) and
        // 9 edges, 7 distinct edge labels.
        let ds = figure3_dataset();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        assert_eq!(t.kind, TransformKind::Direct);
        assert_eq!(t.graph.stats().vertices, 9);
        assert_eq!(t.graph.edge_count(), 9);
        assert_eq!(t.graph.edge_label_count(), 7);
        // No vertex labels under the direct transformation.
        assert_eq!(t.graph.vertex_label_count(), 0);
        for v in t.graph.vertices() {
            assert!(t.graph.labels(v).is_empty());
        }
    }

    #[test]
    fn topology_is_preserved() {
        let ds = figure3_dataset();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        let dict = &ds.dictionary;
        let vertex =
            |iri: &str| VertexId::of_term(dict.id_of_iri(&format!("http://ub.org/{iri}")).unwrap());
        let elabel = |iri: &str| {
            t.mappings
                .elabel_of(dict.id_of_iri(&format!("http://ub.org/{iri}")).unwrap())
                .unwrap()
        };
        let student1 = vertex("student1");
        let univ1 = vertex("univ1");
        let dept = vertex("dept1.univ1");
        assert!(t
            .graph
            .has_edge(student1, univ1, elabel("undergraduateDegreeFrom")));
        assert!(t.graph.has_edge(student1, dept, elabel("memberOf")));
        assert!(t.graph.has_edge(dept, univ1, elabel("subOrganizationOf")));
        // rdf:type edges are ordinary edges under the direct transformation.
        let rdf_type = t
            .mappings
            .elabel_of(dict.id_of_iri(vocab::RDF_TYPE).unwrap())
            .unwrap();
        let grad = vertex("GraduateStudent");
        assert!(t.graph.has_edge(student1, grad, rdf_type));
    }

    #[test]
    fn predicate_index_covers_all_predicates() {
        let ds = figure3_dataset();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        let rdf_type = t
            .mappings
            .elabel_of(ds.dictionary.id_of_iri(vocab::RDF_TYPE).unwrap())
            .unwrap();
        assert_eq!(t.predicates.subjects(rdf_type).len(), 3);
        assert_eq!(t.predicates.edge_count(rdf_type), 3);
    }

    #[test]
    fn mapping_round_trips() {
        let ds = figure3_dataset();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        assert_eq!(t.graph.vertex_count(), ds.dictionary.len());
        for (i, &term) in t.mappings.elabel_to_term.iter().enumerate() {
            let el = t.mappings.elabel_of(term).expect("interned");
            assert_eq!(el.index(), i);
            assert_eq!(t.mappings.term_of_elabel(el), Some(term));
        }
    }

    #[test]
    fn empty_dataset_produces_empty_graph() {
        let ds = Dataset::new();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        assert_eq!(t.graph.vertex_count(), 0);
        assert_eq!(t.graph.edge_count(), 0);
    }

    #[test]
    fn literals_become_vertices() {
        let ds = figure3_dataset();
        let t = direct_transform(&type_aware_transform(ds.triples.clone(), &ds.dictionary));
        let phone = ds
            .dictionary
            .id_of(&turbohom_rdf::Term::literal("012-345-6789"))
            .unwrap();
        let phone_v = VertexId::of_term(phone);
        assert_eq!(t.graph.degree(phone_v, Direction::Incoming), 1);
        assert_eq!(t.graph.degree(phone_v, Direction::Outgoing), 0);
    }
}
