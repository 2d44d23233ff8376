//! The type-aware transformation (paper Section 4.1, Definition 3).
//!
//! Triples whose predicate is `rdf:type` or `rdfs:subClassOf` are not turned
//! into edges. Instead, the classes an entity is asserted to belong to — the
//! objects of its `rdf:type` triples — become the entity vertex's *label
//! set*. The class terms themselves stop being vertices (unless they also
//! participate in ordinary triples), which is what shrinks the data and
//! query graphs: `|V'| = |V| − |V_type|` in the paper's notation. A vertex's
//! id is its term id, so such a class keeps an empty row: no edge, no label.
//!
//! No triple is lost: both schema predicates are edge labels, interned after
//! the others, and [`TransformedGraph::adjacent`] reads their triples back —
//! from the label sets and from the sorted subclass pairs — for a query edge
//! that carries one of them or a variable predicate. Only a required
//! `?x rdf:type <Class>` folds into a query vertex's labels.
//!
//! The class hierarchy is not folded in here: it enters the data once, when
//! RDFS materialization (`InferenceEngine`) adds the implied `rdf:type`
//! triples at load, so every engine and both transformations answer under
//! the same entailment.

use crate::common::{GraphMappings, TransformKind, TransformedGraph};
use turbohom_graph::{layout, VLabel, VertexId};
use turbohom_rdf::{Dataset, TermId};

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

    // ---- Pass 1: intern the vertex and edge labels deterministically
    // (triple insertion order, the schema predicates last). A vertex needs
    // no id of its own: it is its term, one row per dictionary term.
    let mut mappings = GraphMappings::default();
    let mut folded = [None, None]; // `rdfs:subClassOf`, then `rdf:type`
    for t in dataset.triples.iter() {
        if is_type_pred(t.p) {
            mappings.intern_vlabel(t.o);
            folded[1] = Some(t.p);
        } else if is_subclass_pred(t.p) {
            mappings.intern_vlabel(t.s);
            mappings.intern_vlabel(t.o);
            folded[0] = Some(t.p);
        } else {
            mappings.intern_elabel(t.p);
        }
    }
    for p in folded.into_iter().flatten() {
        mappings.intern_elabel(p);
    }
    let n = dataset.dictionary.len();
    let vlabel = |term| mappings.vlabel_of(term).expect("interned above");

    // ---- Pass 2: every vertex's label set, the objects of its `rdf:type`
    // triples, counted then filled and each row sorted. The triples are
    // distinct, so each row is. Counted here rather than by `FlatCsr::counted`
    // because the graph keeps `u32` offsets: converting that CSR's `u64` ones
    // and copying its labels raised the LUBM(640) load peak by 0.4 MB.
    let type_rows = || {
        let triples = dataset.triples.iter().filter(|t| is_type_pred(t.p));
        triples.map(|t| (t.s.index(), vlabel(t.o)))
    };
    let mut label_offsets = vec![0u32; n + 1];
    for (v, _) in type_rows() {
        label_offsets[v + 1] += 1;
    }
    for v in 0..n {
        let end = label_offsets[v].checked_add(label_offsets[v + 1]);
        label_offsets[v + 1] = end.expect("the label sets hold at most u32::MAX labels");
    }
    let mut labels = vec![VLabel::default(); label_offsets[n] as usize];
    let mut next = label_offsets[..n].to_vec();
    for (v, l) in type_rows() {
        labels[next[v] as usize] = l;
        next[v] += 1;
    }
    drop(next);
    for w in label_offsets.windows(2) {
        labels[w[0] as usize..w[1] as usize].sort_unstable();
    }

    // ---- Pass 3: lay out the CSR straight from the non-schema triples.
    let graph = layout(n, label_offsets, labels, |sink| {
        for t in dataset.triples.iter() {
            if !is_type_pred(t.p) && !is_subclass_pred(t.p) {
                let p = mappings.elabel_of(t.p).expect("interned above");
                sink(VertexId::of_term(t.s), VertexId::of_term(t.o), p);
            }
        }
    });

    let mut t = TransformedGraph::assemble(TransformKind::TypeAware, graph, mappings);
    t.schema = [false, true].map(|reversed| {
        let subclass = dataset.triples.iter().filter(|t| is_subclass_pred(t.p));
        let ends = subclass.map(|t| if reversed { [t.o, t.s] } else { [t.s, t.o] });
        let mut pairs: Vec<u64> = ends
            .map(|[a, b]| u64::from(a.0) << 32 | u64::from(b.0))
            .collect();
        pairs.sort_unstable();
        pairs.into()
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
    use turbohom_graph::{Direction, ELabel, LabeledGraph, LabeledGraphBuilder};
    use turbohom_rdf::{vocab, InferenceEngine, Term};

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

    fn vertex(ds: &Dataset, term: &Term) -> VertexId {
        VertexId::of_term(ds.dictionary.id_of(term).unwrap())
    }

    #[test]
    fn figure7_vertex_and_edge_counts() {
        // Figure 7d: 5 vertices (student1, univ1, dept1.univ1, two literals),
        // 5 edges, 4 vertex labels (GraduateStudent, Student, University,
        // Department), 5 edge labels. `rdfs:subClassOf` and `rdf:type` are
        // two more edge labels that no CSR edge carries.
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        assert_eq!(t.kind, TransformKind::TypeAware);
        assert_eq!(t.graph.stats().vertices, 5);
        assert_eq!(t.graph.edge_count(), 5);
        assert_eq!(t.graph.vertex_label_count(), 4);
        assert_eq!(t.graph.edge_label_count(), 5);
        assert_eq!(t.mappings.elabel_to_term.len(), 5 + 2);
    }

    /// `ds` with the RDFS closure materialized into its triples.
    fn materialized(mut ds: Dataset) -> Dataset {
        InferenceEngine::default().materialize(&mut ds);
        ds
    }

    fn vl(t: &TransformedGraph, ds: &Dataset, class: &str) -> VLabel {
        let term = ds.dictionary.id_of_iri(&ub(class)).unwrap();
        t.mappings.vlabel_of(term).unwrap()
    }

    #[test]
    fn type_closure_becomes_label_set() {
        // Without materialization L(student1) is its asserted type alone.
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        let student1 = vertex(&ds, &Term::iri(ub("student1")));
        assert_eq!(t.graph.labels(student1), &[vl(&t, &ds, "GraduateStudent")]);

        // L(student1) = {GraduateStudent, Student} — Student via subClassOf.
        let ds = materialized(figure3_dataset());
        let t = type_aware_transform(&ds);
        let student1 = vertex(&ds, &Term::iri(ub("student1")));
        assert!(t.graph.has_label(student1, vl(&t, &ds, "GraduateStudent")));
        assert!(t.graph.has_label(student1, vl(&t, &ds, "Student")));
        assert_eq!(t.graph.labels(student1).len(), 2);
    }

    #[test]
    fn class_terms_are_not_vertices() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        for class in ["GraduateStudent", "Student", "University", "Department"] {
            let id = ds.dictionary.id_of_iri(&ub(class)).unwrap();
            let row = VertexId::of_term(id);
            assert!(
                t.graph.total_degree(row) == 0 && t.graph.labels(row).is_empty(),
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
        let student1 = vertex(&ds, &Term::iri(ub("student1")));
        let univ1 = vertex(&ds, &Term::iri(ub("univ1")));
        let dept = vertex(&ds, &Term::iri(ub("dept1.univ1")));
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
        // The schema predicates are the last edge labels: no CSR edge
        // carries them, and the subclass pair is kept apart.
        let [subclassof, rdf_type] = [vocab::RDFS_SUBCLASSOF, vocab::RDF_TYPE].map(|p| {
            t.mappings
                .elabel_of(ds.dictionary.id_of_iri(p).unwrap())
                .unwrap()
        });
        assert_eq!(subclassof.index(), t.graph.edge_label_count());
        assert_eq!(rdf_type.index(), t.graph.edge_label_count() + 1);
        let [graduate, student] =
            ["GraduateStudent", "Student"].map(|class| vertex(&ds, &Term::iri(ub(class))));
        let pair = |a: VertexId, b: VertexId| u64::from(a.0) << 32 | u64::from(b.0);
        assert_eq!(&t.schema[0][..], [pair(graduate, student)]);
        assert_eq!(&t.schema[1][..], [pair(student, graduate)]);
    }

    #[test]
    fn edge_reduction_matches_schema_triple_count() {
        // |E_type-aware| = |E_direct| − (#type triples + #subClassOf triples).
        let ds = figure3_dataset();
        let direct = crate::direct::direct_transform(&type_aware_transform(&ds));
        let aware = type_aware_transform(&ds);
        let schema_triples = 4; // 3 rdf:type + 1 subClassOf
        assert_eq!(
            aware.graph.edge_count(),
            direct.graph.edge_count() - schema_triples
        );
        assert!(aware.graph.stats().vertices < direct.graph.stats().vertices);
    }

    #[test]
    fn type_edges_are_read_from_the_labels() {
        let ds = figure3_dataset();
        let direct = crate::direct::direct_transform(&type_aware_transform(&ds));
        let aware = type_aware_transform(&ds);
        // Every vertex's variable-predicate range and every edge's labels,
        // as terms, are the direct graph's.
        let term = |t: &TransformedGraph, el: ELabel| t.mappings.term_of_elabel(el).unwrap();
        for v in direct.graph.vertices() {
            for dir in [Direction::Outgoing, Direction::Incoming] {
                let range = aware.adjacent(v, dir, None, &[]).into_owned();
                assert_eq!(range, *direct.adjacent(v, dir, None, &[]), "{v} {dir:?}");
                if dir == Direction::Incoming {
                    continue;
                }
                for w in range {
                    let [mut a, mut d] = [&aware, &direct].map(|t| {
                        let labels = t.edge_labels_between(v, w).into_iter();
                        labels.map(|el| term(t, el)).collect::<Vec<_>>()
                    });
                    a.sort_unstable();
                    d.sort_unstable();
                    assert_eq!(a, d, "{v} -> {w}");
                }
            }
        }
        let student1 = vertex(&ds, &Term::iri(ub("student1")));
        let graduate = vertex(&ds, &Term::iri(ub("GraduateStudent")));
        let l = vl(&aware, &ds, "GraduateStudent");
        assert_eq!(
            *aware.adjacent(graduate, Direction::Incoming, None, &[l]),
            [student1]
        );
        assert!(aware
            .adjacent(student1, Direction::Outgoing, None, &[l])
            .is_empty());
    }

    #[test]
    fn inverse_label_index_reflects_closure() {
        let ds = figure3_dataset();
        let t = type_aware_transform(&ds);
        assert_eq!(t.inverse_labels.frequency(vl(&t, &ds, "Student")), 0);

        let ds = materialized(figure3_dataset());
        let t = type_aware_transform(&ds);
        assert_eq!(t.inverse_labels.frequency(vl(&t, &ds, "Student")), 1);
        let univ1 = vertex(&ds, &Term::iri(ub("univ1")));
        let university = vl(&t, &ds, "University");
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

    /// The classes labelling `x`, built without and with materialization.
    fn classes_of_x(ds: Dataset) -> [Vec<Term>; 2] {
        [ds.clone(), materialized(ds)].map(|ds| {
            let t = type_aware_transform(&ds);
            let x = vertex(&ds, &Term::iri(ub("x")));
            let class = |&l| {
                t.mappings
                    .term_of_vlabel(l)
                    .and_then(|c| ds.dictionary.term(c))
            };
            t.graph
                .labels(x)
                .iter()
                .map(|l| class(l).unwrap())
                .collect()
        })
    }

    #[test]
    fn deep_class_hierarchy_is_folded_transitively() {
        let [asserted, closed] = classes_of_x(deep_hierarchy());
        assert_eq!(asserted, [Term::iri(ub("A"))]);
        assert_eq!(closed.len(), 4);
    }

    #[test]
    fn cyclic_hierarchy_terminates() {
        let [asserted, closed] = classes_of_x(cyclic_hierarchy());
        assert_eq!(asserted, [Term::iri(ub("A"))]);
        assert_eq!(closed.len(), 2);
    }

    #[test]
    fn entity_appearing_only_in_type_triples_still_becomes_vertex() {
        let mut ds = Dataset::new();
        ds.insert_iris(&ub("lonely"), vocab::RDF_TYPE, &ub("Thing"));
        let t = type_aware_transform(&ds);
        assert_eq!(t.graph.stats().vertices, 1);
        assert_eq!(t.graph.edge_count(), 0);
        let lonely = vertex(&ds, &Term::iri(ub("lonely")));
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
        assert!(t.graph.total_degree(VertexId::of_term(curious_id)) > 0);
        assert!(t.mappings.vlabel_of(curious_id).is_some());
    }

    /// The type-aware graph built the straightforward way: a label `Vec`
    /// per vertex holding its asserted types, and an edge list through
    /// `LabeledGraphBuilder`.
    fn reference_type_aware(dataset: &Dataset) -> TransformedGraph {
        let rdf_type = dataset.rdf_type_id();
        let subclassof = dataset.subclassof_id();
        let mut mappings = GraphMappings::default();
        for t in dataset.triples.iter() {
            if Some(t.p) == rdf_type {
                mappings.intern_vlabel(t.o);
            } else if Some(t.p) == subclassof {
                mappings.intern_vlabel(t.s);
                mappings.intern_vlabel(t.o);
            } else {
                mappings.intern_elabel(t.p);
            }
        }
        for p in [subclassof, rdf_type].into_iter().flatten() {
            if dataset.count_predicate(p) > 0 {
                mappings.intern_elabel(p);
            }
        }
        let mut labels: Vec<Vec<VLabel>> = vec![Vec::new(); dataset.dictionary.len()];
        for t in dataset.triples.iter().filter(|t| Some(t.p) == rdf_type) {
            labels[t.s.index()].push(mappings.vlabel_of(t.o).unwrap());
        }
        let mut builder = LabeledGraphBuilder::new();
        for labels in labels {
            builder.add_vertex(labels);
        }
        for t in dataset.triples.iter() {
            if Some(t.p) != rdf_type && Some(t.p) != subclassof {
                let [s, o] = [t.s, t.o].map(VertexId::of_term);
                builder.add_edge(s, o, mappings.elabel_of(t.p).unwrap());
            }
        }
        let mut t = TransformedGraph::assemble(TransformKind::TypeAware, builder.build(), mappings);
        let mut pairs = [Vec::new(), Vec::new()];
        for t in dataset.triples.iter().filter(|t| Some(t.p) == subclassof) {
            pairs[0].push((u64::from(t.s.0) << 32) + u64::from(t.o.0));
            pairs[1].push((u64::from(t.o.0) << 32) + u64::from(t.s.0));
        }
        t.schema = pairs.map(|mut pairs| {
            pairs.sort();
            pairs.into()
        });
        t
    }

    /// The direct graph built the same straightforward way, its edge labels
    /// interned in the type-aware graph's order.
    fn reference_direct(dataset: &Dataset) -> TransformedGraph {
        let mut mappings = GraphMappings::default();
        for &p in reference_type_aware(dataset).mappings.elabel_to_term.iter() {
            mappings.intern_elabel(p);
        }
        let mut builder = LabeledGraphBuilder::new();
        for _ in 0..dataset.dictionary.len() {
            builder.add_vertex(Vec::new());
        }
        for t in dataset.triples.iter() {
            let [s, o] = [t.s, t.o].map(VertexId::of_term);
            builder.add_edge(s, o, mappings.elabel_of(t.p).unwrap());
        }
        TransformedGraph::assemble(TransformKind::Direct, builder.build(), mappings)
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
            for (el, objects) in g.groups(v, Direction::Outgoing, None) {
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
                (
                    crate::direct::direct_transform(&type_aware_transform(ds)),
                    reference_direct(ds),
                ),
            ];
            for (built, reference) in pairs {
                let what = format!("{name}, {:?}", built.kind);
                // Label CSR, both adjacency directions (every array) and
                // the label-space sizes.
                assert!(built.graph == reference.graph, "{what}: graph");
                assert!(built.mappings == reference.mappings, "{what}: mappings");
                assert_eq!(built.schema, reference.schema, "{what}: schema");
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
