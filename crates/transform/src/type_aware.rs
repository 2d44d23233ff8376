//! The type-aware transformation (paper Section 4.1, Definition 3).
//!
//! Triples whose predicate is `rdf:type` or `rdfs:subClassOf` are not turned
//! into edges. Instead, the classes an entity belongs to — following
//! `rdf:type` once and `rdfs:subClassOf` transitively — become the entity
//! vertex's *label set*. The class terms themselves stop being vertices
//! (unless they also participate in ordinary triples), which is what shrinks
//! the data and query graphs: `|V'| = |V| − |V_type|` in the paper's
//! notation.
//!
//! The directly asserted types are retained separately as `Lsimple` so that
//! queries under the simple entailment regime can be answered (Section 4.2).

use crate::common::{GraphMappings, TransformKind, TransformedGraph};
use turbohom_graph::{layout, VLabel};
use turbohom_rdf::{Dataset, TermId};
use turbohom_storage::FlatCsr;

/// Applies the type-aware transformation to `dataset`.
///
/// Every array is sized by a count before it is filled, and the graph is laid
/// out straight from the triples through the mappings: what loading keeps
/// beyond the served arrays is the layout's one row buffer.
pub fn type_aware_transform(dataset: &Dataset) -> TransformedGraph {
    let rdf_type = dataset.rdf_type_id();
    let subclassof = dataset.subclassof_id();

    let is_type_pred = |p: TermId| Some(p) == rdf_type;
    let is_subclass_pred = |p: TermId| Some(p) == subclassof;

    // ---- Pass 1: intern ids deterministically (triple insertion order).
    let mut mappings = GraphMappings::default();
    for t in dataset.triples.iter() {
        if is_type_pred(t.p) {
            mappings.intern_vertex(t.s);
            mappings.intern_vlabel(t.o);
        } else if is_subclass_pred(t.p) {
            // Classes get labels but not vertices.
            mappings.intern_vlabel(t.s);
            mappings.intern_vlabel(t.o);
        } else {
            mappings.intern_vertex(t.s);
            mappings.intern_vertex(t.o);
            mappings.intern_elabel(t.p);
        }
    }
    let n = mappings.vertex_to_term.len();
    let num_classes = mappings.vlabel_to_term.len();
    let vertex = |term| mappings.vertex_of(term).expect("interned above");
    let vlabel = |term| mappings.vlabel_of(term).expect("interned above");

    // ---- Pass 2: Lsimple, every vertex's directly asserted classes, counted
    // over the `rdf:type` triples. The triples are distinct, so each row is.
    let mut simple_labels = FlatCsr::counted(n, |sink| {
        for t in dataset.triples.iter().filter(|t| is_type_pred(t.p)) {
            sink(vertex(t.s).index(), vlabel(t.o));
        }
    });
    simple_labels.sort_rows();

    // ---- Pass 3: every class's closure — itself and what it reaches over
    // `rdfs:subClassOf` — once per class (schema graphs are tiny).
    let superclasses = FlatCsr::counted(num_classes, |sink| {
        for t in dataset.triples.iter().filter(|t| is_subclass_pred(t.p)) {
            sink(vlabel(t.s).index(), vlabel(t.o));
        }
    });
    let mut closures = FlatCsr::counted(num_classes, |sink| {
        // `reached[c]` is the last class whose walk reached `c`.
        let mut reached = vec![usize::MAX; num_classes];
        let mut stack = Vec::new();
        for class in 0..num_classes {
            stack.push(VLabel(class as u32));
            while let Some(c) = stack.pop() {
                if reached[c.index()] != class {
                    reached[c.index()] = class;
                    sink(class, c);
                    stack.extend_from_slice(superclasses.row(c.index()));
                }
            }
        }
    });
    closures.sort_rows();
    drop(superclasses);

    // ---- Pass 4: every vertex's label set, the union of its direct classes'
    // closures, written into one flat array: counted, then filled.
    let union_of = |v: usize, set: &mut Vec<VLabel>| {
        set.clear();
        for c in simple_labels.row(v) {
            set.extend_from_slice(closures.row(c.index()));
        }
        set.sort_unstable();
        set.dedup();
    };
    let mut set = Vec::new();
    let mut label_offsets = Vec::with_capacity(n + 1);
    label_offsets.push(0u32);
    for v in 0..n {
        union_of(v, &mut set);
        let end = label_offsets[v].checked_add(set.len() as u32);
        label_offsets.push(end.expect("the label sets hold at most u32::MAX labels"));
    }
    let mut labels = Vec::with_capacity(label_offsets[n] as usize);
    for v in 0..n {
        union_of(v, &mut set);
        labels.extend_from_slice(&set);
    }
    drop((set, closures));

    // ---- Pass 5: lay out the CSR straight from the non-schema triples.
    let graph = layout(n, label_offsets, labels, |sink| {
        for t in dataset.triples.iter() {
            if !is_type_pred(t.p) && !is_subclass_pred(t.p) {
                let p = mappings.elabel_of(t.p).expect("interned above");
                sink(vertex(t.s), vertex(t.o), p);
            }
        }
    });

    TransformedGraph::assemble(
        TransformKind::TypeAware,
        graph,
        mappings,
        Some(simple_labels),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
    use turbohom_graph::{Direction, LabeledGraph, LabeledGraphBuilder, VertexId};
    use turbohom_rdf::{vocab, Term};

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// The RDF graph of paper Figure 3 (same fixture as the direct test).
    fn figure3_dataset() -> Dataset {
        let mut ds = Dataset::new();
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
            &Term::iri(ub("student1")),
            &Term::iri(ub("telephone")),
            &Term::literal("012-345-6789"),
        );
        ds.insert(
            &Term::iri(ub("student1")),
            &Term::iri(ub("emailAddress")),
            &Term::literal("john@dept1.univ1.edu"),
        );
        ds
    }

    fn vertex(t: &TransformedGraph, ds: &Dataset, term: &Term) -> turbohom_graph::VertexId {
        t.mappings
            .vertex_of(ds.dictionary.id_of(term).unwrap())
            .unwrap()
    }

    #[test]
    fn figure7_vertex_and_edge_counts() {
        // Figure 7d: 5 vertices (student1, univ1, dept1.univ1, two literals),
        // 5 edges, 4 vertex labels (GraduateStudent, Student, University,
        // Department), 5 edge labels.
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        assert_eq!(t.kind, TransformKind::TypeAware);
        assert_eq!(t.graph.vertex_count(), 5);
        assert_eq!(t.graph.edge_count(), 5);
        assert_eq!(t.graph.vertex_label_count(), 4);
        assert_eq!(t.graph.edge_label_count(), 5);
    }

    #[test]
    fn type_closure_becomes_label_set() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        let student1 = vertex(&t, &ds, &Term::iri(ub("student1")));
        // L(student1) = {GraduateStudent, Student} — Student via subClassOf.
        let grad = t
            .mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub("GraduateStudent")).unwrap())
            .unwrap();
        let student = t
            .mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub("Student")).unwrap())
            .unwrap();
        assert!(t.graph.has_label(student1, grad));
        assert!(t.graph.has_label(student1, student));
        assert_eq!(t.graph.labels(student1).len(), 2);
    }

    #[test]
    fn simple_labels_only_keep_direct_assertions() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        let student1 = vertex(&t, &ds, &Term::iri(ub("student1")));
        let grad = t
            .mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub("GraduateStudent")).unwrap())
            .unwrap();
        let simple = t.simple_labels_of(student1);
        assert_eq!(simple, &[grad]);
        assert!(simple.len() < t.graph.labels(student1).len());
    }

    #[test]
    fn class_terms_are_not_vertices() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        for class in ["GraduateStudent", "Student", "University", "Department"] {
            let id = ds.dictionary.id_of_iri(&ub(class)).unwrap();
            assert!(
                t.mappings.vertex_of(id).is_none(),
                "{class} must not be a vertex"
            );
            assert!(
                t.mappings.vlabel_of(id).is_some(),
                "{class} must be a label"
            );
        }
    }

    #[test]
    fn non_schema_topology_is_preserved() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        let student1 = vertex(&t, &ds, &Term::iri(ub("student1")));
        let univ1 = vertex(&t, &ds, &Term::iri(ub("univ1")));
        let dept = vertex(&t, &ds, &Term::iri(ub("dept1.univ1")));
        let el = |name: &str| {
            t.mappings
                .elabel_of(ds.dictionary.id_of_iri(&ub(name)).unwrap())
                .unwrap()
        };
        assert!(t
            .graph
            .has_edge(student1, univ1, el("undergraduateDegreeFrom")));
        assert!(t.graph.has_edge(student1, dept, el("memberOf")));
        assert!(t.graph.has_edge(dept, univ1, el("subOrganizationOf")));
        // No rdf:type edge label exists at all.
        let rdf_type_id = ds.dictionary.id_of_iri(vocab::RDF_TYPE).unwrap();
        assert!(t.mappings.elabel_of(rdf_type_id).is_none());
    }

    #[test]
    fn edge_reduction_matches_schema_triple_count() {
        // |E_type-aware| = |E_direct| − (#type triples + #subClassOf triples).
        let ds = figure3_dataset();
        let direct = crate::direct::direct_transform(&ds);
        let aware = type_aware_transform(&ds);
        let schema_triples = 4; // 3 rdf:type + 1 subClassOf
        assert_eq!(
            aware.graph.edge_count(),
            direct.graph.edge_count() - schema_triples
        );
        assert!(aware.graph.vertex_count() < direct.graph.vertex_count());
    }

    #[test]
    fn inverse_label_index_reflects_closure() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        let student = t
            .mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub("Student")).unwrap())
            .unwrap();
        assert_eq!(t.inverse_labels.frequency(student), 1);
        let university = t
            .mappings
            .vlabel_of(ds.dictionary.id_of_iri(&ub("University")).unwrap())
            .unwrap();
        let univ1 = vertex(&t, &ds, &Term::iri(ub("univ1")));
        assert_eq!(t.inverse_labels.vertices_with_label(university), &[univ1]);
    }

    fn deep_hierarchy() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("A"), vocab::RDFS_SUBCLASSOF, &ub("B"));
        ds.insert_iris(&ub("B"), vocab::RDFS_SUBCLASSOF, &ub("C"));
        ds.insert_iris(&ub("C"), vocab::RDFS_SUBCLASSOF, &ub("D"));
        ds.insert_iris(&ub("x"), vocab::RDF_TYPE, &ub("A"));
        ds.insert_iris(&ub("x"), &ub("knows"), &ub("y"));
        ds
    }

    fn cyclic_hierarchy() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("A"), vocab::RDFS_SUBCLASSOF, &ub("B"));
        ds.insert_iris(&ub("B"), vocab::RDFS_SUBCLASSOF, &ub("A"));
        ds.insert_iris(&ub("x"), vocab::RDF_TYPE, &ub("A"));
        ds.insert_iris(&ub("x"), &ub("p"), &ub("y"));
        ds
    }

    fn class_as_vertex() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("x"), vocab::RDF_TYPE, &ub("Curious"));
        ds.insert_iris(&ub("Curious"), &ub("definedBy"), &ub("ontology1"));
        ds
    }

    #[test]
    fn deep_class_hierarchy_is_folded_transitively() {
        let ds = deep_hierarchy();
        let t = type_aware_transform(&ds);
        let x = vertex(&t, &ds, &Term::iri(ub("x")));
        assert_eq!(t.graph.labels(x).len(), 4);
        assert_eq!(t.simple_labels_of(x).len(), 1);
    }

    #[test]
    fn cyclic_hierarchy_terminates() {
        let ds = cyclic_hierarchy();
        let t = type_aware_transform(&ds);
        let x = vertex(&t, &ds, &Term::iri(ub("x")));
        assert_eq!(t.graph.labels(x).len(), 2);
    }

    #[test]
    fn entity_appearing_only_in_type_triples_still_becomes_vertex() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("lonely"), vocab::RDF_TYPE, &ub("Thing"));
        let t = type_aware_transform(&ds);
        assert_eq!(t.graph.vertex_count(), 1);
        assert_eq!(t.graph.edge_count(), 0);
        let lonely = vertex(&t, &ds, &Term::iri(ub("lonely")));
        assert_eq!(t.graph.labels(lonely).len(), 1);
        assert_eq!(t.graph.degree(lonely, Direction::Outgoing), 0);
    }

    #[test]
    fn class_used_as_entity_is_both_label_and_vertex() {
        // A class that also participates in a non-schema triple (common in
        // BTC-style data) must be a vertex *and* a label.
        let ds = class_as_vertex();
        let t = type_aware_transform(&ds);
        let curious_id = ds.dictionary.id_of_iri(&ub("Curious")).unwrap();
        assert!(t.mappings.vertex_of(curious_id).is_some());
        assert!(t.mappings.vlabel_of(curious_id).is_some());
    }

    /// The type-aware graph built the straightforward way: a label `Vec`
    /// per vertex, each type triple's class walked up the hierarchy on its
    /// own, and an edge list through `LabeledGraphBuilder`.
    fn reference_type_aware(dataset: &Dataset) -> TransformedGraph {
        let rdf_type = dataset.rdf_type_id();
        let subclassof = dataset.subclassof_id();
        let mut subclass_edges: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut direct_types: HashMap<TermId, Vec<TermId>> = HashMap::new();
        for t in dataset.triples.iter() {
            if Some(t.p) == subclassof {
                subclass_edges.entry(t.s).or_default().push(t.o);
            } else if Some(t.p) == rdf_type {
                direct_types.entry(t.s).or_default().push(t.o);
            }
        }
        let superclasses = |class: TermId| -> Vec<TermId> {
            let mut out = Vec::new();
            let mut seen = HashSet::new();
            let mut stack = subclass_edges.get(&class).cloned().unwrap_or_default();
            while let Some(c) = stack.pop() {
                if c != class && seen.insert(c) {
                    out.push(c);
                    stack.extend(subclass_edges.get(&c).into_iter().flatten().copied());
                }
            }
            out
        };
        let mut mappings = GraphMappings::default();
        for t in dataset.triples.iter() {
            if Some(t.p) == rdf_type {
                mappings.intern_vertex(t.s);
                mappings.intern_vlabel(t.o);
            } else if Some(t.p) == subclassof {
                mappings.intern_vlabel(t.s);
                mappings.intern_vlabel(t.o);
            } else {
                mappings.intern_vertex(t.s);
                mappings.intern_vertex(t.o);
                mappings.intern_elabel(t.p);
            }
        }
        let n = mappings.vertex_to_term.len();
        let mut full_labels: Vec<Vec<VLabel>> = vec![Vec::new(); n];
        let mut simple_labels: Vec<Vec<VLabel>> = vec![Vec::new(); n];
        for (&subject, types) in &direct_types {
            let v = mappings.vertex_of(subject).unwrap().index();
            for &class in types {
                let l = mappings.vlabel_of(class).unwrap();
                if !simple_labels[v].contains(&l) {
                    simple_labels[v].push(l);
                }
                for c in std::iter::once(class).chain(superclasses(class)) {
                    let l = mappings.vlabel_of(c).unwrap();
                    if !full_labels[v].contains(&l) {
                        full_labels[v].push(l);
                    }
                }
            }
            simple_labels[v].sort_unstable();
        }
        let mut builder = LabeledGraphBuilder::new();
        for labels in full_labels {
            builder.add_vertex(labels);
        }
        for t in dataset.triples.iter() {
            if Some(t.p) != rdf_type && Some(t.p) != subclassof {
                let [s, o] = [t.s, t.o].map(|term| mappings.vertex_of(term).unwrap());
                builder.add_edge(s, o, mappings.elabel_of(t.p).unwrap());
            }
        }
        let simple_labels = Some(FlatCsr::from_rows(&simple_labels));
        TransformedGraph::assemble(
            TransformKind::TypeAware,
            builder.build(),
            mappings,
            simple_labels,
        )
    }

    /// The direct graph built the same straightforward way.
    fn reference_direct(dataset: &Dataset) -> TransformedGraph {
        let mut mappings = GraphMappings::default();
        for t in dataset.triples.iter() {
            mappings.intern_vertex(t.s);
            mappings.intern_vertex(t.o);
            mappings.intern_elabel(t.p);
        }
        let mut builder = LabeledGraphBuilder::new();
        for _ in 0..mappings.vertex_to_term.len() {
            builder.add_vertex(Vec::new());
        }
        for t in dataset.triples.iter() {
            let [s, o] = [t.s, t.o].map(|term| mappings.vertex_of(term).unwrap());
            builder.add_edge(s, o, mappings.elabel_of(t.p).unwrap());
        }
        TransformedGraph::assemble(TransformKind::Direct, builder.build(), mappings, None)
    }

    /// What the two indexes hold, read off the graph with per-row `Vec`s:
    /// per label its vertices, per predicate its subjects, its distinct
    /// objects and its edge count.
    #[allow(clippy::type_complexity)]
    fn reference_indexes(
        g: &LabeledGraph,
    ) -> (
        Vec<Vec<VertexId>>,
        Vec<(Vec<VertexId>, Vec<VertexId>, usize)>,
    ) {
        let mut by_label = vec![Vec::new(); g.vertex_label_count()];
        let mut by_predicate = vec![(Vec::new(), Vec::new(), 0); g.edge_label_count()];
        for v in g.vertices() {
            for &l in g.labels(v) {
                by_label[l.index()].push(v);
            }
            for el in g.incident_edge_labels(v, Direction::Outgoing) {
                let objects = g.neighbors(v, Direction::Outgoing, el);
                let row = &mut by_predicate[el.index()];
                row.0.push(v);
                row.1.extend_from_slice(objects);
                row.2 += objects.len();
            }
        }
        for (_, objects, _) in &mut by_predicate {
            objects.sort_unstable();
            objects.dedup();
        }
        (by_label, by_predicate)
    }

    #[test]
    fn counted_layouts_equal_the_reference_built_from_vecs_and_an_edge_list() {
        let lubm = LubmGenerator::new(LubmConfig::scale(1)).generate();
        let fixtures = [
            ("figure 3", figure3_dataset()),
            ("deep hierarchy", deep_hierarchy()),
            ("cyclic hierarchy", cyclic_hierarchy()),
            ("class as vertex", class_as_vertex()),
            ("LUBM(1)", lubm),
        ];
        for (name, ds) in &fixtures {
            let pairs = [
                (type_aware_transform(ds), reference_type_aware(ds)),
                (crate::direct::direct_transform(ds), reference_direct(ds)),
            ];
            for (built, reference) in pairs {
                let what = format!("{name}, {:?}", built.kind);
                // Label CSR, both adjacency directions (every array) and
                // the label-space sizes.
                assert!(built.graph == reference.graph, "{what}: graph");
                assert!(
                    built.simple_labels == reference.simple_labels,
                    "{what}: Lsimple"
                );
                assert!(built.mappings == reference.mappings, "{what}: mappings");
                let (by_label, by_predicate) = reference_indexes(&reference.graph);
                for (l, vertices) in by_label.iter().enumerate() {
                    let found = built.inverse_labels.vertices_with_label(VLabel(l as u32));
                    assert_eq!(found, vertices, "{what}: label {l}");
                }
                for (p, (subjects, objects, edges)) in by_predicate.iter().enumerate() {
                    let el = turbohom_graph::ELabel(p as u32);
                    assert_eq!(built.predicates.subjects(el), subjects, "{what}: {el}");
                    assert_eq!(built.predicates.objects(el), objects, "{what}: {el}");
                    assert_eq!(built.predicates.edge_count(el), *edges, "{what}: {el}");
                }
            }
        }
    }

    #[test]
    fn empty_dataset() {
        let t = type_aware_transform(&Dataset::new());
        assert_eq!(t.graph.vertex_count(), 0);
        assert_eq!(t.graph.edge_count(), 0);
        assert_eq!(t.graph.vertex_label_count(), 0);
    }
}
