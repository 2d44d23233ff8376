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

use crate::encode::{Encoder, Node, Vocabulary};
use crate::BenchmarkQuery;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use turbohom_rdf::{vocab, Dataset, InferenceEngine, Term, TermId};

/// The univ-bench ontology namespace.
pub const UB: &str = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";

fn ub(local: &str) -> Term {
    Term::iri(format!("{UB}{local}"))
}

fn entity_iri(u: usize, d: usize, name: &str) -> String {
    format!("http://www.Department{d}.University{u}.edu/{name}")
}

/// The generator's classes: each one's IRI is its name in the `ub:`
/// namespace.
#[derive(Debug, Clone, Copy)]
enum Class {
    University,
    Department,
    Course,
    GraduateCourse,
    ResearchGroup,
    FullProfessor,
    AssociateProfessor,
    AssistantProfessor,
    Chair,
    Lecturer,
    Publication,
    UndergraduateStudent,
    GraduateStudent,
    TeachingAssistant,
}

impl Class {
    /// Number of classes.
    const COUNT: usize = Class::TeachingAssistant as usize + 1;
}

/// The generator's properties: `rdf:type` and the `ub:` ones it emits
/// outside the schema.
#[derive(Debug, Clone, Copy)]
enum Prop {
    Type,
    Name,
    EmailAddress,
    Telephone,
    SubOrganizationOf,
    WorksFor,
    HeadOf,
    MemberOf,
    ResearchInterest,
    TeacherOf,
    PublicationAuthor,
    TakesCourse,
    Advisor,
    UndergraduateDegreeFrom,
    HasAlumnus,
    TeachingAssistantOf,
}

impl Prop {
    /// Number of properties.
    const COUNT: usize = Prop::TeachingAssistantOf as usize + 1;

    fn iri(self) -> String {
        let local = match self {
            Prop::Type => return vocab::RDF_TYPE.to_string(),
            Prop::Name => "name",
            Prop::EmailAddress => "emailAddress",
            Prop::Telephone => "telephone",
            Prop::SubOrganizationOf => "subOrganizationOf",
            Prop::WorksFor => "worksFor",
            Prop::HeadOf => "headOf",
            Prop::MemberOf => "memberOf",
            Prop::ResearchInterest => "researchInterest",
            Prop::TeacherOf => "teacherOf",
            Prop::PublicationAuthor => "publicationAuthor",
            Prop::TakesCourse => "takesCourse",
            Prop::Advisor => "advisor",
            Prop::UndergraduateDegreeFrom => "undergraduateDegreeFrom",
            Prop::HasAlumnus => "hasAlumnus",
            Prop::TeachingAssistantOf => "teachingAssistantOf",
        };
        format!("{UB}{local}")
    }
}

/// What the generator encodes on first use: its classes and properties,
/// and the universities — a graduate's degree may name one before it is
/// created.
#[derive(Debug, Clone, Copy)]
enum Key {
    Class(Class),
    Prop(Prop),
    University(usize),
}

impl Vocabulary for Key {
    fn slot(self) -> usize {
        match self {
            Key::Class(class) => class as usize,
            Key::Prop(prop) => Class::COUNT + prop as usize,
            Key::University(u) => Class::COUNT + Prop::COUNT + u,
        }
    }

    fn iri(self) -> String {
        match self {
            Key::Class(class) => format!("{UB}{class:?}"),
            Key::Prop(prop) => prop.iri(),
            Key::University(u) => format!("http://www.University{u}.edu"),
        }
    }
}

impl From<Class> for Node<Key> {
    fn from(class: Class) -> Self {
        Node::Key(Key::Class(class))
    }
}

impl From<Prop> for Node<Key> {
    fn from(prop: Prop) -> Self {
        Node::Key(Key::Prop(prop))
    }
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
        let mut enc = Encoder::new();
        Self::emit_schema(&mut enc);

        for u in 0..cfg.universities {
            let univ = enc.id(Key::University(u));
            enc.insert(univ, Prop::Type, Class::University);
            enc.insert(univ, Prop::Name, Term::literal(format!("University{u}")));
            for d in 0..cfg.departments_per_university {
                // Each department gets its own deterministic PRNG stream so
                // that Department0.University0 is byte-identical across scale
                // factors — which is what keeps the "constant solution
                // queries" constant, exactly as in the original generator.
                let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ ((u as u64) << 20) ^ (d as u64));
                self.generate_department(&mut enc, &mut rng, univ, u, d);
            }
        }
        let mut ds = enc.into_dataset();
        if cfg.materialize_rdfs {
            InferenceEngine::default().materialize(&mut ds);
        }
        ds
    }

    /// Emits the class and property hierarchies (the "schema" triples).
    fn emit_schema(enc: &mut Encoder<Key>) {
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
            enc.insert(ub(sub), sc.clone(), ub(sup));
        }
        for (sub, sup) in [
            ("headOf", "worksFor"),
            ("worksFor", "memberOf"),
            ("undergraduateDegreeFrom", "degreeFrom"),
            ("mastersDegreeFrom", "degreeFrom"),
            ("doctoralDegreeFrom", "degreeFrom"),
        ] {
            enc.insert(ub(sub), sp.clone(), ub(sup));
        }
    }

    /// Creates the entity `name` of department `d` of university `u`, an
    /// instance of `class`: encodes it and emits its type triple.
    fn create(enc: &mut Encoder<Key>, u: usize, d: usize, name: &str, class: Class) -> TermId {
        let entity = enc.entity(&entity_iri(u, d, name));
        enc.insert(entity, Prop::Type, class);
        entity
    }

    #[allow(clippy::too_many_lines)]
    fn generate_department(
        &self,
        enc: &mut Encoder<Key>,
        rng: &mut ChaCha8Rng,
        univ: TermId,
        u: usize,
        d: usize,
    ) {
        let cfg = &self.config;
        let dept = enc.entity(&format!("http://www.Department{d}.University{u}.edu"));
        enc.insert(dept, Prop::Type, Class::Department);
        enc.insert(dept, Prop::SubOrganizationOf, univ);
        enc.insert(dept, Prop::Name, Term::literal(format!("Department{d}")));

        // Courses.
        let courses: Vec<TermId> = (0..cfg.courses_per_department)
            .map(|c| Self::create(enc, u, d, &format!("Course{c}"), Class::Course))
            .collect();
        let grad_courses: Vec<TermId> = (0..cfg.graduate_courses_per_department)
            .map(|c| {
                Self::create(
                    enc,
                    u,
                    d,
                    &format!("GraduateCourse{c}"),
                    Class::GraduateCourse,
                )
            })
            .collect();

        // Research groups: sub-organizations of the department (and of the
        // university via the transitive closure, emitted in inference mode).
        for g in 0..cfg.research_groups_per_department {
            let group = Self::create(
                enc,
                u,
                d,
                &format!("ResearchGroup{g}"),
                Class::ResearchGroup,
            );
            enc.insert(group, Prop::SubOrganizationOf, dept);
            if cfg.with_inference {
                enc.insert(group, Prop::SubOrganizationOf, univ);
            }
        }

        // Faculty: `FullProfessor0` is a `ub:FullProfessor`.
        let professor_kinds = [
            Class::FullProfessor,
            Class::AssociateProfessor,
            Class::AssistantProfessor,
        ];
        let mut professors: Vec<TermId> = Vec::new();
        let mut taught_by: Vec<(TermId, TermId)> = Vec::new(); // (course, teacher)
        for p in 0..cfg.professors_per_department {
            let class = professor_kinds[p % professor_kinds.len()];
            let name = format!("{class:?}{}", p / professor_kinds.len());
            let prof = Self::create(enc, u, d, &name, class);
            enc.insert(prof, Prop::WorksFor, dept);
            Self::emit_person_details(enc, rng, prof, &name, u);
            let interest = format!("Research{}", rng.gen_range(0..20));
            enc.insert(prof, Prop::ResearchInterest, Term::literal(interest));
            // Every professor teaches one undergraduate and one graduate course.
            let c = courses[p % courses.len()];
            enc.insert(prof, Prop::TeacherOf, c);
            taught_by.push((c, prof));
            if !grad_courses.is_empty() {
                let gc = grad_courses[p % grad_courses.len()];
                enc.insert(prof, Prop::TeacherOf, gc);
                taught_by.push((gc, prof));
            }
            // Publications.
            for k in 0..cfg.publications_per_professor {
                let name = format!("Publication{p}_{k}");
                let publication = Self::create(enc, u, d, &name, Class::Publication);
                enc.insert(publication, Prop::PublicationAuthor, prof);
            }
            professors.push(prof);
        }
        // The first full professor is the head of the department.
        if let Some(&head) = professors.first() {
            enc.insert(head, Prop::HeadOf, dept);
            if cfg.with_inference {
                enc.insert(head, Prop::Type, Class::Chair);
            }
        }
        for l in 0..cfg.lecturers_per_department {
            let name = format!("Lecturer{l}");
            let lecturer = Self::create(enc, u, d, &name, Class::Lecturer);
            enc.insert(lecturer, Prop::WorksFor, dept);
            Self::emit_person_details(enc, rng, lecturer, &name, u);
            let c = courses[(cfg.professors_per_department + l) % courses.len()];
            enc.insert(lecturer, Prop::TeacherOf, c);
            taught_by.push((c, lecturer));
        }

        // Undergraduate students.
        for s in 0..cfg.undergraduates_per_department {
            let name = format!("UndergraduateStudent{s}");
            let student = Self::create(enc, u, d, &name, Class::UndergraduateStudent);
            enc.insert(student, Prop::MemberOf, dept);
            Self::emit_person_details(enc, rng, student, &name, u);
            for _ in 0..2 {
                let c = courses[rng.gen_range(0..courses.len())];
                enc.insert(student, Prop::TakesCourse, c);
            }
            // One in five undergraduates has an advisor.
            if rng.gen_ratio(1, 5) {
                let advisor = professors[rng.gen_range(0..professors.len())];
                enc.insert(student, Prop::Advisor, advisor);
            }
        }

        // Graduate students.
        for s in 0..cfg.graduates_per_department {
            let name = format!("GraduateStudent{s}");
            let student = Self::create(enc, u, d, &name, Class::GraduateStudent);
            enc.insert(student, Prop::MemberOf, dept);
            Self::emit_person_details(enc, rng, student, &name, u);
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
            let degree_univ = Key::University(degree_univ);
            enc.insert(student, Prop::UndergraduateDegreeFrom, degree_univ);
            if cfg.with_inference {
                enc.insert(degree_univ, Prop::HasAlumnus, student);
            }
            // Every graduate student takes an "assigned" graduate course,
            // spreading students across courses the way the original
            // generator does — this keeps every graduate course populated,
            // so Q1's solution set is nonempty and constant across scales.
            if !grad_courses.is_empty() {
                enc.insert(
                    student,
                    Prop::TakesCourse,
                    grad_courses[s % grad_courses.len()],
                );
            }
            // Advisor and courses; with probability ~1/3 the student takes a
            // course taught by the advisor (which is what gives Q9 solutions).
            let advisor = professors[rng.gen_range(0..professors.len())];
            enc.insert(student, Prop::Advisor, advisor);
            let advisor_courses: Vec<TermId> = taught_by
                .iter()
                .filter(|&&(_, t)| t == advisor)
                .map(|&(c, _)| c)
                .collect();
            for _ in 0..2 {
                let course = if !advisor_courses.is_empty() && rng.gen_ratio(1, 3) {
                    Some(advisor_courses[rng.gen_range(0..advisor_courses.len())])
                } else if !grad_courses.is_empty() {
                    Some(grad_courses[rng.gen_range(0..grad_courses.len())])
                } else {
                    None
                };
                if let Some(course) = course {
                    enc.insert(student, Prop::TakesCourse, course);
                }
            }
            // One in four graduate students is a teaching assistant.
            if rng.gen_ratio(1, 4) {
                enc.insert(student, Prop::Type, Class::TeachingAssistant);
                let c = courses[rng.gen_range(0..courses.len())];
                enc.insert(student, Prop::TeachingAssistantOf, c);
            }
        }
    }

    /// Name, email and telephone common to all persons; `name` is the
    /// local part of the person's IRI.
    fn emit_person_details(
        enc: &mut Encoder<Key>,
        rng: &mut ChaCha8Rng,
        person: TermId,
        name: &str,
        u: usize,
    ) {
        enc.insert(person, Prop::Name, Term::literal(name));
        let email = format!("{name}@University{u}.edu");
        enc.insert(person, Prop::EmailAddress, Term::literal(email));
        let telephone = format!(
            "{:03}-{:03}-{:04}",
            rng.gen_range(100..999),
            rng.gen_range(100..999),
            rng.gen_range(1000..9999)
        );
        enc.insert(person, Prop::Telephone, Term::literal(telephone));
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated content is pinned: every id, every term and every
    /// triple in its order. A change to how the generator encodes must leave
    /// this alone; a change to what it generates re-pins it.
    #[test]
    fn generation_is_deterministic() {
        let ds = LubmGenerator::new(LubmConfig::scale(4)).generate();
        assert_eq!(crate::fingerprint(&ds), (1699, 6357, 0x4e9f1b136b84c3c0));
    }

    #[test]
    #[ignore = "generates LUBM(640): a few seconds in release, longer in debug"]
    fn generation_is_deterministic_at_scale_640() {
        let ds = LubmGenerator::new(LubmConfig::scale(640)).generate();
        assert_eq!(
            crate::fingerprint(&ds),
            (254_828, 1_007_893, 0xba8d78f24303a2e8)
        );
    }

    /// What each RDFS rule adds to LUBM(1), and the dataset it leaves: a
    /// rule that miscounts or reorders what it adds moves one of these.
    #[test]
    fn rdfs_materialization_is_pinned() {
        let cfg = LubmConfig {
            materialize_rdfs: false,
            ..LubmConfig::scale(1)
        };
        let mut ds = LubmGenerator::new(cfg).generate();
        let stats = InferenceEngine::default().materialize(&mut ds);
        let counts = [
            stats.subclass_closure,
            stats.type_inheritance,
            stats.subproperty_closure,
            stats.property_propagation,
            stats.domain,
            stats.range,
        ];
        assert_eq!(counts, [19, 319, 1, 54, 0, 0]);
        assert_eq!(crate::fingerprint(&ds), (500, 1620, 0xc50710b7ed4b8166));
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
        assert_eq!(constant.len(), 9);
        assert!(constant.iter().all(|id| ids.contains(id)));
    }
}
