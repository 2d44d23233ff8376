//! The LUBM-like university benchmark: schema, generator and the 14 queries.
//!
//! LUBM (the Lehigh University Benchmark) is the de-facto standard RDF
//! benchmark the paper scales to 80 / 800 / 8000 universities. This module
//! generates structurally equivalent data: the same class and property
//! hierarchies (which is what makes Q4–Q6, Q12 and Q13 depend on inferred
//! triples), the same entity naming convention the original queries refer to
//! (`http://www.Department0.University0.edu/...`), and the same
//! constant-vs-increasing solution behaviour across scale factors.
//!
//! The scale factor is the number of universities, exactly as in LUBM.

use crate::BenchmarkQuery;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use turbohom_rdf::{vocab, Dataset, InferenceEngine, Term};

/// The univ-bench ontology namespace.
pub const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

fn ub(local: &str) -> Term {
    Term::iri(format!("{UB}{local}"))
}

fn university_iri(u: usize) -> Term {
    Term::iri(format!("http://www.University{u}.edu"))
}

fn department_iri(u: usize, d: usize) -> Term {
    Term::iri(format!("http://www.Department{d}.University{u}.edu"))
}

fn entity_iri(u: usize, d: usize, name: &str) -> Term {
    Term::iri(format!("http://www.Department{d}.University{u}.edu/{name}"))
}

/// Generator configuration. The defaults are scaled-down LUBM cardinalities
/// so multi-scale experiment sweeps stay laptop friendly; the ratios between
/// entity kinds follow the original generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LubmConfig {
    /// Scale factor: number of universities (LUBM80 ⇒ 80).
    pub universities: usize,
    /// Departments per university.
    pub departments_per_university: usize,
    /// Full/associate/assistant professors per department.
    pub professors_per_department: usize,
    /// Lecturers per department.
    pub lecturers_per_department: usize,
    /// Undergraduate students per department.
    pub undergraduates_per_department: usize,
    /// Graduate students per department.
    pub graduates_per_department: usize,
    /// Undergraduate courses per department.
    pub courses_per_department: usize,
    /// Graduate courses per department.
    pub graduate_courses_per_department: usize,
    /// Research groups per department.
    pub research_groups_per_department: usize,
    /// Publications per professor.
    pub publications_per_professor: usize,
    /// Emit the triples an OWL reasoner would add (Chair types, hasAlumnus,
    /// transitive subOrganizationOf) — the paper loads "original triples as
    /// well as inferred triples" for LUBM.
    pub with_inference: bool,
    /// Additionally materialize the RDFS closure (type inheritance, property
    /// hierarchy propagation) directly in the generated dataset. This is the
    /// only way the class hierarchy applies to the generated data, for all
    /// four engines: without it (and without `StoreOptions::inference`) a
    /// class matches its asserted instances alone.
    pub materialize_rdfs: bool,
    /// PRNG seed: identical configs generate identical datasets.
    pub seed: u64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig {
            universities: 1,
            departments_per_university: 3,
            professors_per_department: 6,
            lecturers_per_department: 2,
            undergraduates_per_department: 24,
            graduates_per_department: 10,
            courses_per_department: 8,
            graduate_courses_per_department: 5,
            research_groups_per_department: 2,
            publications_per_professor: 3,
            with_inference: true,
            materialize_rdfs: true,
            seed: 0x5eed_1b03,
        }
    }
}

impl LubmConfig {
    /// A configuration with the given scale factor (number of universities).
    pub fn scale(universities: usize) -> Self {
        LubmConfig {
            universities,
            ..Self::default()
        }
    }
}

/// The LUBM-like data generator.
#[derive(Debug, Clone)]
pub struct LubmGenerator {
    config: LubmConfig,
}

impl LubmGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: LubmConfig) -> Self {
        LubmGenerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &LubmConfig {
        &self.config
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut ds = Dataset::new();
        self.emit_schema(&mut ds);

        for u in 0..cfg.universities {
            let univ = university_iri(u);
            ds.insert(&univ, &Term::iri(vocab::RDF_TYPE), &ub("University"));
            ds.insert(&univ, &ub("name"), &Term::literal(format!("University{u}")));
            for d in 0..cfg.departments_per_university {
                // Each department gets its own deterministic PRNG stream so
                // that Department0.University0 is byte-identical across scale
                // factors — which is what keeps the "constant solution
                // queries" constant, exactly as in the original generator.
                let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ((u as u64) << 20) ^ (d as u64));
                self.generate_department(&mut ds, &mut rng, u, d);
            }
        }
        if cfg.materialize_rdfs {
            InferenceEngine::default().materialize(&mut ds);
        }
        ds
    }

    /// Emits the class and property hierarchies (the "schema" triples).
    fn emit_schema(&self, ds: &mut Dataset) {
        let sc = Term::iri(vocab::RDFS_SUBCLASSOF);
        let sp = Term::iri(vocab::RDFS_SUBPROPERTYOF);
        for (sub, sup) in [
            ("Employee", "Person"),
            ("Faculty", "Employee"),
            ("Professor", "Faculty"),
            ("FullProfessor", "Professor"),
            ("AssociateProfessor", "Professor"),
            ("AssistantProfessor", "Professor"),
            ("Chair", "Professor"),
            ("Lecturer", "Faculty"),
            ("Student", "Person"),
            ("UndergraduateStudent", "Student"),
            ("GraduateStudent", "Student"),
            ("TeachingAssistant", "Person"),
            ("GraduateCourse", "Course"),
            ("University", "Organization"),
            ("Department", "Organization"),
            ("ResearchGroup", "Organization"),
        ] {
            ds.insert(&ub(sub), &sc, &ub(sup));
        }
        for (sub, sup) in [
            ("headOf", "worksFor"),
            ("worksFor", "memberOf"),
            ("undergraduateDegreeFrom", "degreeFrom"),
            ("mastersDegreeFrom", "degreeFrom"),
            ("doctoralDegreeFrom", "degreeFrom"),
        ] {
            ds.insert(&ub(sub), &sp, &ub(sup));
        }
    }

    #[allow(clippy::too_many_lines)]
    fn generate_department(&self, ds: &mut Dataset, rng: &mut ChaCha8Rng, u: usize, d: usize) {
        let cfg = &self.config;
        let rdf_type = Term::iri(vocab::RDF_TYPE);
        let univ = university_iri(u);
        let dept = department_iri(u, d);
        ds.insert(&dept, &rdf_type, &ub("Department"));
        ds.insert(&dept, &ub("subOrganizationOf"), &univ);
        ds.insert(&dept, &ub("name"), &Term::literal(format!("Department{d}")));

        // Courses.
        let courses: Vec<Term> = (0..cfg.courses_per_department)
            .map(|c| entity_iri(u, d, &format!("Course{c}")))
            .collect();
        for c in &courses {
            ds.insert(c, &rdf_type, &ub("Course"));
        }
        let grad_courses: Vec<Term> = (0..cfg.graduate_courses_per_department)
            .map(|c| entity_iri(u, d, &format!("GraduateCourse{c}")))
            .collect();
        for c in &grad_courses {
            ds.insert(c, &rdf_type, &ub("GraduateCourse"));
        }

        // Research groups: sub-organizations of the department (and of the
        // university via the transitive closure, emitted in inference mode).
        for g in 0..cfg.research_groups_per_department {
            let group = entity_iri(u, d, &format!("ResearchGroup{g}"));
            ds.insert(&group, &rdf_type, &ub("ResearchGroup"));
            ds.insert(&group, &ub("subOrganizationOf"), &dept);
            if cfg.with_inference {
                ds.insert(&group, &ub("subOrganizationOf"), &univ);
            }
        }

        // Faculty.
        let professor_kinds = ["FullProfessor", "AssociateProfessor", "AssistantProfessor"];
        let mut professors: Vec<Term> = Vec::new();
        let mut taught_by: Vec<(Term, Term)> = Vec::new(); // (course, teacher)
        for p in 0..cfg.professors_per_department {
            let kind = professor_kinds[p % professor_kinds.len()];
            let index = p / professor_kinds.len();
            let prof = entity_iri(u, d, &format!("{kind}{index}"));
            ds.insert(&prof, &rdf_type, &ub(kind));
            ds.insert(&prof, &ub("worksFor"), &dept);
            self.emit_person_details(ds, rng, &prof, u);
            ds.insert(
                &prof,
                &ub("researchInterest"),
                &Term::literal(format!("Research{}", rng.gen_range(0..20))),
            );
            // Every professor teaches one undergraduate and one graduate course.
            let c = &courses[p % courses.len()];
            ds.insert(&prof, &ub("teacherOf"), c);
            taught_by.push((c.clone(), prof.clone()));
            if !grad_courses.is_empty() {
                let gc = &grad_courses[p % grad_courses.len()];
                ds.insert(&prof, &ub("teacherOf"), gc);
                taught_by.push((gc.clone(), prof.clone()));
            }
            // Publications.
            for k in 0..cfg.publications_per_professor {
                let publication = entity_iri(u, d, &format!("Publication{p}_{k}"));
                ds.insert(&publication, &rdf_type, &ub("Publication"));
                ds.insert(&publication, &ub("publicationAuthor"), &prof);
            }
            professors.push(prof);
        }
        // The first full professor is the head of the department.
        if let Some(head) = professors.first() {
            ds.insert(head, &ub("headOf"), &dept);
            if cfg.with_inference {
                ds.insert(head, &rdf_type, &ub("Chair"));
            }
        }
        for l in 0..cfg.lecturers_per_department {
            let lecturer = entity_iri(u, d, &format!("Lecturer{l}"));
            ds.insert(&lecturer, &rdf_type, &ub("Lecturer"));
            ds.insert(&lecturer, &ub("worksFor"), &dept);
            self.emit_person_details(ds, rng, &lecturer, u);
            let c = &courses[(cfg.professors_per_department + l) % courses.len()];
            ds.insert(&lecturer, &ub("teacherOf"), c);
            taught_by.push((c.clone(), lecturer.clone()));
        }

        // Undergraduate students.
        for s in 0..cfg.undergraduates_per_department {
            let student = entity_iri(u, d, &format!("UndergraduateStudent{s}"));
            ds.insert(&student, &rdf_type, &ub("UndergraduateStudent"));
            ds.insert(&student, &ub("memberOf"), &dept);
            self.emit_person_details(ds, rng, &student, u);
            for _ in 0..2 {
                let c = &courses[rng.gen_range(0..courses.len())];
                ds.insert(&student, &ub("takesCourse"), c);
            }
            // One in five undergraduates has an advisor.
            if rng.gen_ratio(1, 5) {
                let advisor = &professors[rng.gen_range(0..professors.len())];
                ds.insert(&student, &ub("advisor"), advisor);
            }
        }

        // Graduate students.
        for s in 0..cfg.graduates_per_department {
            let student = entity_iri(u, d, &format!("GraduateStudent{s}"));
            ds.insert(&student, &rdf_type, &ub("GraduateStudent"));
            ds.insert(&student, &ub("memberOf"), &dept);
            self.emit_person_details(ds, rng, &student, u);
            // Undergraduate degree: 25 % of graduate students stay at their
            // own university (these are the Q2 solutions, growing with the
            // scale factor), another 25 % come from the "flagship"
            // University0 (which makes the Q13 alumni count grow), and the
            // rest pick a uniformly random university. Both draws consume a
            // fixed number of PRNG words so the department content stays
            // identical across scale factors.
            let choice = rng.next_u64() % 100;
            let uniform = (rng.next_u64() % cfg.universities.max(1) as u64) as usize;
            let degree_univ = if choice < 25 {
                u
            } else if choice < 50 {
                0
            } else {
                uniform
            };
            ds.insert(
                &student,
                &ub("undergraduateDegreeFrom"),
                &university_iri(degree_univ),
            );
            if cfg.with_inference {
                ds.insert(&university_iri(degree_univ), &ub("hasAlumnus"), &student);
            }
            // Every graduate student takes an "assigned" graduate course,
            // spreading students across courses the way the original
            // generator does — this keeps every graduate course populated,
            // so Q1's solution set is nonempty and constant across scales.
            if !grad_courses.is_empty() {
                ds.insert(
                    &student,
                    &ub("takesCourse"),
                    &grad_courses[s % grad_courses.len()],
                );
            }
            // Advisor and courses; with probability ~1/3 the student takes a
            // course taught by the advisor (which is what gives Q9 solutions).
            let advisor = &professors[rng.gen_range(0..professors.len())];
            ds.insert(&student, &ub("advisor"), advisor);
            let advisor_courses: Vec<&Term> = taught_by
                .iter()
                .filter(|(_, t)| t == advisor)
                .map(|(c, _)| c)
                .collect();
            for _ in 0..2 {
                let course = if !advisor_courses.is_empty() && rng.gen_ratio(1, 3) {
                    Some(advisor_courses[rng.gen_range(0..advisor_courses.len())].clone())
                } else if !grad_courses.is_empty() {
                    Some(grad_courses[rng.gen_range(0..grad_courses.len())].clone())
                } else {
                    None
                };
                if let Some(course) = course {
                    ds.insert(&student, &ub("takesCourse"), &course);
                }
            }
            // One in four graduate students is a teaching assistant.
            if rng.gen_ratio(1, 4) {
                ds.insert(&student, &rdf_type, &ub("TeachingAssistant"));
                let c = &courses[rng.gen_range(0..courses.len())];
                ds.insert(&student, &ub("teachingAssistantOf"), c);
            }
        }
    }

    /// Name, email, telephone and degree provenance common to all persons.
    fn emit_person_details(&self, ds: &mut Dataset, rng: &mut ChaCha8Rng, person: &Term, u: usize) {
        let local = match person {
            Term::Iri(iri) => iri.rsplit('/').next().unwrap_or("person").to_string(),
            _ => "person".to_string(),
        };
        ds.insert(person, &ub("name"), &Term::literal(local.clone()));
        ds.insert(
            person,
            &ub("emailAddress"),
            &Term::literal(format!("{local}@University{u}.edu")),
        );
        ds.insert(
            person,
            &ub("telephone"),
            &Term::literal(format!(
                "{:03}-{:03}-{:04}",
                rng.gen_range(100..999),
                rng.gen_range(100..999),
                rng.gen_range(1000..9999)
            )),
        );
    }
}

/// The 14 LUBM benchmark queries, adapted verbatim to the univ-bench
/// namespace and the generator's entity naming convention.
pub fn queries() -> Vec<BenchmarkQuery> {
    let prologue = format!(
        "PREFIX rdf: <{}>\nPREFIX ub: <{UB}>\n",
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
    );
    let q = |id: &str, desc: &str, body: &str| {
        BenchmarkQuery::new(id, desc, format!("{prologue}{body}"))
    };
    vec![
        q(
            "Q1",
            "Graduate students taking a specific graduate course",
            "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . \
             ?X ub:takesCourse <http://www.Department0.University0.edu/GraduateCourse0> . }",
        ),
        q(
            "Q2",
            "Graduate students with an undergraduate degree from the university their department belongs to",
            "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:GraduateStudent . ?Y rdf:type ub:University . \
             ?Z rdf:type ub:Department . ?X ub:memberOf ?Z . ?Z ub:subOrganizationOf ?Y . \
             ?X ub:undergraduateDegreeFrom ?Y . }",
        ),
        q(
            "Q3",
            "Publications of a specific assistant professor",
            "SELECT ?X WHERE { ?X rdf:type ub:Publication . \
             ?X ub:publicationAuthor <http://www.Department0.University0.edu/AssistantProfessor0> . }",
        ),
        q(
            "Q4",
            "Professors working for a specific department with contact details",
            "SELECT ?X ?Y1 ?Y2 ?Y3 WHERE { ?X rdf:type ub:Professor . \
             ?X ub:worksFor <http://www.Department0.University0.edu> . \
             ?X ub:name ?Y1 . ?X ub:emailAddress ?Y2 . ?X ub:telephone ?Y3 . }",
        ),
        q(
            "Q5",
            "Persons that are members of a specific department",
            "SELECT ?X WHERE { ?X rdf:type ub:Person . \
             ?X ub:memberOf <http://www.Department0.University0.edu> . }",
        ),
        q(
            "Q6",
            "All students",
            "SELECT ?X WHERE { ?X rdf:type ub:Student . }",
        ),
        q(
            "Q7",
            "Students taking courses taught by a specific associate professor",
            "SELECT ?X ?Y WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Course . \
             ?X ub:takesCourse ?Y . \
             <http://www.Department0.University0.edu/AssociateProfessor0> ub:teacherOf ?Y . }",
        ),
        q(
            "Q8",
            "Students that are members of departments of a specific university, with e-mail",
            "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Department . \
             ?X ub:memberOf ?Y . ?Y ub:subOrganizationOf <http://www.University0.edu> . \
             ?X ub:emailAddress ?Z . }",
        ),
        q(
            "Q9",
            "Students taking a course taught by their advisor",
            "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Faculty . \
             ?Z rdf:type ub:Course . ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:takesCourse ?Z . }",
        ),
        q(
            "Q10",
            "Students taking a specific graduate course",
            "SELECT ?X WHERE { ?X rdf:type ub:Student . \
             ?X ub:takesCourse <http://www.Department0.University0.edu/GraduateCourse0> . }",
        ),
        q(
            "Q11",
            "Research groups of a specific university",
            "SELECT ?X WHERE { ?X rdf:type ub:ResearchGroup . \
             ?X ub:subOrganizationOf <http://www.University0.edu> . }",
        ),
        q(
            "Q12",
            "Department chairs of a specific university",
            "SELECT ?X ?Y WHERE { ?X rdf:type ub:Chair . ?Y rdf:type ub:Department . \
             ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <http://www.University0.edu> . }",
        ),
        q(
            "Q13",
            "Alumni of a specific university",
            "SELECT ?X WHERE { ?X rdf:type ub:Person . \
             <http://www.University0.edu> ub:hasAlumnus ?X . }",
        ),
        q(
            "Q14",
            "All undergraduate students",
            "SELECT ?X WHERE { ?X rdf:type ub:UndergraduateStudent . }",
        ),
    ]
}

/// The ids of the LUBM queries whose solution count stays constant as the
/// scale factor grows (the paper's "constant solution queries").
pub fn constant_solution_queries() -> Vec<&'static str> {
    vec!["Q1", "Q3", "Q4", "Q5", "Q7", "Q8", "Q10", "Q11", "Q12"]
}

/// The ids of the LUBM queries whose solution count grows with the scale
/// factor (the paper's "increasing solution queries").
pub fn increasing_solution_queries() -> Vec<&'static str> {
    vec!["Q2", "Q6", "Q9", "Q13", "Q14"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = LubmGenerator::new(LubmConfig::scale(1)).generate();
        let b = LubmGenerator::new(LubmConfig::scale(1)).generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dictionary.len(), b.dictionary.len());
    }

    #[test]
    fn triple_count_scales_roughly_linearly() {
        let one = LubmGenerator::new(LubmConfig::scale(1)).generate().len();
        let four = LubmGenerator::new(LubmConfig::scale(4)).generate().len();
        assert!(
            four > 3 * one,
            "scale 4 ({four}) should be ≈4× scale 1 ({one})"
        );
        assert!(four < 5 * one);
    }

    #[test]
    fn key_entities_exist() {
        let ds = LubmGenerator::new(LubmConfig::scale(2)).generate();
        for iri in [
            "http://www.University0.edu",
            "http://www.University1.edu",
            "http://www.Department0.University0.edu",
            "http://www.Department0.University0.edu/GraduateCourse0",
            "http://www.Department0.University0.edu/AssistantProfessor0",
            "http://www.Department0.University0.edu/AssociateProfessor0",
            "http://www.Department0.University0.edu/FullProfessor0",
        ] {
            assert!(ds.dictionary.id_of_iri(iri).is_some(), "missing {iri}");
        }
    }

    #[test]
    fn rdfs_materialization_adds_superclass_types() {
        let ds = LubmGenerator::new(LubmConfig::scale(1)).generate();
        let grad = ds
            .dictionary
            .id_of_iri("http://www.Department0.University0.edu/GraduateStudent0")
            .unwrap();
        let student = ds.dictionary.id_of_iri(&format!("{UB}Student")).unwrap();
        let person = ds.dictionary.id_of_iri(&format!("{UB}Person")).unwrap();
        let rdf_type = ds.rdf_type_id().unwrap();
        assert!(ds
            .triples
            .contains(&turbohom_rdf::Triple::new(grad, rdf_type, student)));
        assert!(ds
            .triples
            .contains(&turbohom_rdf::Triple::new(grad, rdf_type, person)));
    }

    #[test]
    fn property_hierarchy_is_materialized() {
        let ds = LubmGenerator::new(LubmConfig::scale(1)).generate();
        // The department head worksFor and (via propagation) memberOf it.
        let head = ds
            .dictionary
            .id_of_iri("http://www.Department0.University0.edu/FullProfessor0")
            .unwrap();
        let dept = ds
            .dictionary
            .id_of_iri("http://www.Department0.University0.edu")
            .unwrap();
        let member_of = ds.dictionary.id_of_iri(&format!("{UB}memberOf")).unwrap();
        assert!(ds
            .triples
            .contains(&turbohom_rdf::Triple::new(head, member_of, dept)));
    }

    #[test]
    fn without_inference_extras_are_absent() {
        let cfg = LubmConfig {
            with_inference: false,
            materialize_rdfs: false,
            ..LubmConfig::scale(1)
        };
        let ds = LubmGenerator::new(cfg).generate();
        assert!(ds
            .dictionary
            .id_of_iri(&format!("{UB}hasAlumnus"))
            .is_none());
        assert!(ds.dictionary.id_of_iri(&format!("{UB}Chair")).is_some()); // schema triple only
        let chair = ds.dictionary.id_of_iri(&format!("{UB}Chair")).unwrap();
        let rdf_type = ds.rdf_type_id().unwrap();
        assert_eq!(
            ds.triples
                .iter()
                .filter(|t| t.p == rdf_type && t.o == chair)
                .count(),
            0
        );
    }

    #[test]
    fn queries_are_fourteen_and_classified() {
        let qs = queries();
        assert_eq!(qs.len(), 14);
        let ids: Vec<&str> = qs.iter().map(|q| q.id.as_str()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(*id, format!("Q{}", i + 1));
        }
        let constant = constant_solution_queries();
        let increasing = increasing_solution_queries();
        assert_eq!(constant.len() + increasing.len(), 14);
        for id in ids {
            assert!(constant.contains(&id) ^ increasing.contains(&id));
        }
    }
}
