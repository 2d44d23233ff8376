//! RDFS-subset forward-chaining inference.
//!
//! The LUBM benchmark (paper Section 7.1) is executed over "the original
//! triples as well as inferred triples": without inference, queries such as
//! LUBM Q4–Q6 return empty results because e.g. a `FullProfessor` is never
//! explicitly asserted to be a `Professor`, and `headOf` is never explicitly
//! asserted to imply `worksFor`/`memberOf`. The paper uses "the
//! state-of-the-art RDF inference engine"; we implement the RDFS entailment
//! rules the benchmark schemas actually exercise:
//!
//! | Rule | Pattern | Conclusion |
//! |------|---------|------------|
//! | `rdfs11` | `(A subClassOf B), (B subClassOf C)` | `(A subClassOf C)` |
//! | `rdfs9`  | `(x type A), (A subClassOf B)` | `(x type B)` |
//! | `rdfs5`  | `(p subPropertyOf q), (q subPropertyOf r)` | `(p subPropertyOf r)` |
//! | `rdfs7`  | `(x p y), (p subPropertyOf q)` | `(x q y)` |
//! | `rdfs2`  | `(x p y), (p domain C)` | `(x type C)` |
//! | `rdfs3`  | `(x p y), (p range C)` | `(y type C)` |
//!
//! The engine works on an encoded [`Dataset`] and appends the inferred
//! triples in place, reporting per-rule statistics. Each rule is a batch:
//! it appends its conclusions in order and one dedup pass keeps the new
//! ones, so the rules run in the table's order but rdfs9 last, and rdfs2's
//! conclusions precede rdfs3's.

use crate::dictionary::TermId;
use crate::triple::{Dataset, Triple, TripleStore};
use crate::vocab;
use std::collections::{BTreeMap, BTreeSet};

/// Counts of triples added by each rule family.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InferenceStats {
    /// Triples added by subClassOf transitivity (rdfs11).
    pub subclass_closure: usize,
    /// Triples added by type inheritance (rdfs9).
    pub type_inheritance: usize,
    /// Triples added by subPropertyOf transitivity (rdfs5).
    pub subproperty_closure: usize,
    /// Triples added by property propagation (rdfs7).
    pub property_propagation: usize,
    /// Triples added by domain entailment (rdfs2).
    pub domain: usize,
    /// Triples added by range entailment (rdfs3).
    pub range: usize,
}

impl InferenceStats {
    /// Total number of inferred triples.
    pub fn total(&self) -> usize {
        self.subclass_closure
            + self.type_inheritance
            + self.subproperty_closure
            + self.property_propagation
            + self.domain
            + self.range
    }
}

/// The forward-chaining engine: it applies all six rules above.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferenceEngine {}

impl InferenceEngine {
    /// Materializes the entailed triples into `dataset`, returning statistics.
    /// Triples appended to it and not yet deduped are deduped first.
    pub fn materialize(&self, dataset: &mut Dataset) -> InferenceStats {
        let mut stats = InferenceStats::default();
        dataset.dedup();

        let [rdf_type, subclassof, subpropertyof, domain, range] = [
            vocab::RDF_TYPE,
            vocab::RDFS_SUBCLASSOF,
            vocab::RDFS_SUBPROPERTYOF,
            vocab::RDFS_DOMAIN,
            vocab::RDFS_RANGE,
        ]
        .map(|iri| dataset.dictionary.encode_iri(iri));

        // ---- 1. Hierarchy closures (rdfs11 / rdfs5) --------------------
        let subclass_closure = transitive_closure(&collect_pairs(dataset, subclassof));
        let subproperty_closure = transitive_closure(&collect_pairs(dataset, subpropertyof));

        for (&sub, supers) in &subclass_closure {
            for &sup in supers {
                dataset.triples.insert(Triple::new(sub, subclassof, sup));
            }
        }
        stats.subclass_closure = dataset.dedup();
        for (&sub, supers) in &subproperty_closure {
            for &sup in supers {
                dataset.triples.insert(Triple::new(sub, subpropertyof, sup));
            }
        }
        stats.subproperty_closure = dataset.dedup();

        // ---- 2. Property propagation (rdfs7) ---------------------------
        if !subproperty_closure.is_empty() {
            stats.property_propagation = apply(dataset, |t, out| {
                if t.p == rdf_type || t.p == subclassof || t.p == subpropertyof {
                    return;
                }
                for &q in subproperty_closure.get(&t.p).into_iter().flatten() {
                    out.insert(Triple::new(t.s, q, t.o));
                }
            });
        }

        // ---- 3. Domain / range (rdfs2 / rdfs3) -------------------------
        let schema = [rdf_type, subclassof, subpropertyof, domain, range];
        let domains = collect_pairs(dataset, domain);
        if !domains.is_empty() {
            stats.domain = apply(dataset, |t, out| {
                if schema.contains(&t.p) {
                    return;
                }
                for &c in domains.get(&t.p).into_iter().flatten() {
                    out.insert(Triple::new(t.s, rdf_type, c));
                }
            });
        }
        let ranges = collect_pairs(dataset, range);
        if !ranges.is_empty() {
            stats.range = apply(dataset, |t, out| {
                if schema.contains(&t.p) {
                    return;
                }
                for &c in ranges.get(&t.p).into_iter().flatten() {
                    out.insert(Triple::new(t.o, rdf_type, c));
                }
            });
        }

        // ---- 4. Type inheritance (rdfs9) -------------------------------
        // Runs last so that domain/range-derived types are also lifted to
        // their superclasses.
        if !subclass_closure.is_empty() {
            stats.type_inheritance = apply(dataset, |t, out| {
                if t.p != rdf_type {
                    return;
                }
                for &sup in subclass_closure.get(&t.o).into_iter().flatten() {
                    out.insert(Triple::new(t.s, rdf_type, sup));
                }
            });
        }

        stats
    }
}

/// Applies one rule as a batch: `derive` appends what it concludes from each
/// triple the store held when the rule started, in order, and one dedup pass
/// then keeps the first occurrence of each new triple. Returns how many
/// triples the rule added.
fn apply(dataset: &mut Dataset, mut derive: impl FnMut(Triple, &mut TripleStore)) -> usize {
    let store = &mut dataset.triples;
    for i in 0..store.len() {
        let t = store.deduped()[i];
        derive(t, store);
    }
    store.dedup()
}

/// `node → {nodes}`, ordered: the rules insert triples while walking these
/// maps, and the order triples are inserted in is the order a store and its
/// snapshot keep them in — it must follow from the data, not from a hash seed.
type Pairs = BTreeMap<TermId, BTreeSet<TermId>>;

/// Collects `subject → {objects}` pairs for all triples with predicate `pred`.
fn collect_pairs(dataset: &Dataset, pred: TermId) -> Pairs {
    let mut map = Pairs::new();
    for t in dataset.triples.iter() {
        if t.p == pred {
            map.entry(t.s).or_default().insert(t.o);
        }
    }
    map
}

/// Computes, for every node, the set of nodes reachable in one or more hops
/// through the given edge map (classic DFS-based transitive closure; the
/// hierarchies involved are tiny schema graphs).
fn transitive_closure(edges: &Pairs) -> Pairs {
    let mut closure = Pairs::new();
    for &start in edges.keys() {
        let mut reached = BTreeSet::new();
        let mut stack: Vec<TermId> = edges
            .get(&start)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        while let Some(node) = stack.pop() {
            if node != start && reached.insert(node) {
                if let Some(next) = edges.get(&node) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        closure.insert(start, reached);
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://example.org/";

    fn iri(local: &str) -> String {
        format!("{EX}{local}")
    }

    fn has_type(ds: &Dataset, entity: &str, class: &str) -> bool {
        let e = ds.dictionary.id_of_iri(&iri(entity));
        let c = ds.dictionary.id_of_iri(&iri(class));
        let t = ds.rdf_type_id();
        match (e, c, t) {
            (Some(e), Some(c), Some(t)) => ds.triples.contains(&Triple::new(e, t, c)),
            _ => false,
        }
    }

    fn schema_dataset() -> Dataset {
        let mut ds = Dataset::new();
        // Class hierarchy: FullProfessor ⊑ Professor ⊑ Faculty ⊑ Person
        ds.insert_iris(
            &iri("FullProfessor"),
            vocab::RDFS_SUBCLASSOF,
            &iri("Professor"),
        );
        ds.insert_iris(&iri("Professor"), vocab::RDFS_SUBCLASSOF, &iri("Faculty"));
        ds.insert_iris(&iri("Faculty"), vocab::RDFS_SUBCLASSOF, &iri("Person"));
        // Property hierarchy: headOf ⊑ worksFor ⊑ memberOf
        ds.insert_iris(&iri("headOf"), vocab::RDFS_SUBPROPERTYOF, &iri("worksFor"));
        ds.insert_iris(
            &iri("worksFor"),
            vocab::RDFS_SUBPROPERTYOF,
            &iri("memberOf"),
        );
        // Domain and range of teacherOf.
        ds.insert_iris(&iri("teacherOf"), vocab::RDFS_DOMAIN, &iri("Faculty"));
        ds.insert_iris(&iri("teacherOf"), vocab::RDFS_RANGE, &iri("Course"));
        // Instance data.
        ds.insert_iris(&iri("prof1"), vocab::RDF_TYPE, &iri("FullProfessor"));
        ds.insert_iris(&iri("prof1"), &iri("headOf"), &iri("dept1"));
        ds.insert_iris(&iri("prof1"), &iri("teacherOf"), &iri("course1"));
        ds
    }

    #[test]
    fn subclass_transitive_closure_is_materialized() {
        let mut ds = schema_dataset();
        let stats = InferenceEngine::default().materialize(&mut ds);
        let fp = ds.dictionary.id_of_iri(&iri("FullProfessor")).unwrap();
        let person = ds.dictionary.id_of_iri(&iri("Person")).unwrap();
        let sc = ds.subclassof_id().unwrap();
        assert!(ds.triples.contains(&Triple::new(fp, sc, person)));
        // FullProfessor→{Faculty, Person}, Professor→{Person}: three new subClassOf edges.
        assert_eq!(stats.subclass_closure, 3);
    }

    #[test]
    fn type_inheritance_reaches_all_ancestors() {
        let mut ds = schema_dataset();
        InferenceEngine::default().materialize(&mut ds);
        for class in ["Professor", "Faculty", "Person"] {
            assert!(has_type(&ds, "prof1", class), "missing type {class}");
        }
    }

    #[test]
    fn property_propagation_follows_hierarchy() {
        let mut ds = schema_dataset();
        let stats = InferenceEngine::default().materialize(&mut ds);
        let prof = ds.dictionary.id_of_iri(&iri("prof1")).unwrap();
        let dept = ds.dictionary.id_of_iri(&iri("dept1")).unwrap();
        let works_for = ds.dictionary.id_of_iri(&iri("worksFor")).unwrap();
        let member_of = ds.dictionary.id_of_iri(&iri("memberOf")).unwrap();
        assert!(ds.triples.contains(&Triple::new(prof, works_for, dept)));
        assert!(ds.triples.contains(&Triple::new(prof, member_of, dept)));
        assert_eq!(stats.property_propagation, 2);
    }

    #[test]
    fn domain_and_range_add_types() {
        let mut ds = schema_dataset();
        InferenceEngine::default().materialize(&mut ds);
        assert!(has_type(&ds, "prof1", "Faculty"));
        assert!(has_type(&ds, "course1", "Course"));
    }

    #[test]
    fn domain_derived_types_are_also_inherited() {
        let mut ds = Dataset::new();
        ds.insert_iris(
            &iri("GraduateCourse"),
            vocab::RDFS_SUBCLASSOF,
            &iri("Course"),
        );
        ds.insert_iris(
            &iri("takesGradCourse"),
            vocab::RDFS_RANGE,
            &iri("GraduateCourse"),
        );
        ds.insert_iris(&iri("s1"), &iri("takesGradCourse"), &iri("c1"));
        InferenceEngine::default().materialize(&mut ds);
        assert!(has_type(&ds, "c1", "GraduateCourse"));
        assert!(has_type(&ds, "c1", "Course"));
    }

    #[test]
    fn materialize_is_idempotent() {
        let mut ds = schema_dataset();
        let first = InferenceEngine::default().materialize(&mut ds);
        assert!(first.total() > 0);
        let size_after_first = ds.len();
        let second = InferenceEngine::default().materialize(&mut ds);
        assert_eq!(second.total(), 0);
        assert_eq!(ds.len(), size_after_first);
    }

    #[test]
    fn cyclic_hierarchy_terminates() {
        // A ⊑ B ⊑ A must not loop forever and must not add self-loops.
        let mut ds = Dataset::new();
        ds.insert_iris(&iri("A"), vocab::RDFS_SUBCLASSOF, &iri("B"));
        ds.insert_iris(&iri("B"), vocab::RDFS_SUBCLASSOF, &iri("A"));
        ds.insert_iris(&iri("x"), vocab::RDF_TYPE, &iri("A"));
        InferenceEngine::default().materialize(&mut ds);
        assert!(has_type(&ds, "x", "B"));
        let a = ds.dictionary.id_of_iri(&iri("A")).unwrap();
        let sc = ds.subclassof_id().unwrap();
        assert!(!ds.triples.contains(&Triple::new(a, sc, a)));
    }

    #[test]
    fn stats_total_adds_up() {
        let mut ds = schema_dataset();
        let stats = InferenceEngine::default().materialize(&mut ds);
        assert_eq!(
            stats.total(),
            stats.subclass_closure
                + stats.type_inheritance
                + stats.subproperty_closure
                + stats.property_propagation
                + stats.domain
                + stats.range
        );
    }
}
