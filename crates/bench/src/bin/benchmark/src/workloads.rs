//! The five workloads: which server each needs and the seeded request
//! sequence each sends.
//!
//! Every constant in a request is drawn from the generated dataset (an
//! instance of a class, an object of a predicate), never from a name
//! pattern, so a generator change cannot silently turn a workload into one
//! of empty answers. A sequence has a fixed composition — the same number of
//! requests of each template for every seed — and the seed picks the
//! constants and the order, so that metrics move with the code under test and
//! not with the draw.

use std::collections::HashMap;
use turbohom_datasets::bsbm::{BSBM, INST};
use turbohom_datasets::lubm::UB;
use turbohom_rdf::{Dataset, Term};

/// What the server of a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// `--lubm scale [--shards shards]`, built on the heap at boot.
    Lubm { scale: usize, shards: usize },
    /// BSBM at `scale`, built in-process, saved as a snapshot and served
    /// with `--snapshot` (memory-mapped).
    BsbmSnapshot { scale: usize },
}

impl Data {
    /// How a boot's duration follows the host factor, as its exponent. A
    /// heap boot generates, infers and builds: branchy work over caches, which
    /// the host's slow phases slow like request handling; its duration
    /// divided by the factor came out the same, within 4 %, in sets of runs
    /// at factors around 0.8 and around 1.4. A snapshot boot is mostly one
    /// pass over the mapped file (checksum, validation), a chain of dependent
    /// multiplies that the slow phases hardly slow: over 144 boots at factors
    /// from 0.65 to 1.69 its duration followed the factor to the power 0.21,
    /// and divided by that it spread by 1.7 % (one standard deviation).
    pub fn boot_slowdown_exponent(self) -> f64 {
        match self {
            Data::Lubm { .. } => 1.0,
            Data::BsbmSnapshot { .. } => 0.2,
        }
    }
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    pub data: Data,
    /// The `share.*` metric the workload is designed to make the largest.
    pub intended_share: &'static str,
    /// How many requests, from the start of the sequence, the traced pass
    /// replays. Fixed per workload so that the `core.*` counts repeat
    /// exactly; sized so that a traced run takes about as long as a
    /// measured one.
    pub traced_requests: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "lubm_point",
        why: "LUBM(640) anchored lookups, 64 texts that all hit the plan cache: connection, thread spawn, fingerprint and socket write dominate",
        data: Data::Lubm { scale: 640, shards: 1 },
        intended_share: "share.service",
        traced_requests: 320,
    },
    Spec {
        name: "lubm_join",
        why: "LUBM(640) unanchored cyclic joins (Q2, Q9 and low-output triangles): candidate regions, enumeration and intersections dominate",
        data: Data::Lubm { scale: 640, shards: 1 },
        intended_share: "share.core",
        traced_requests: 40,
    },
    Spec {
        name: "lubm_scan",
        why: "LUBM(640) type scans of 5k-65k rows (0.4-6 MB bodies): row materialisation, dictionary decode, JSON and the socket write dominate",
        data: Data::Lubm { scale: 640, shards: 1 },
        intended_share: "share.engine_result_path",
        traced_requests: 36,
    },
    Spec {
        name: "lubm_sharded",
        why: "LUBM(200) on 4 hash shards, 80% lookups and 20% joins: the same matcher behind summaries, fan-out and ownership-filtered merge",
        data: Data::Lubm { scale: 200, shards: 4 },
        intended_share: "share.engine_result_path",
        traced_requests: 120,
    },
    Spec {
        name: "bsbm_cold",
        why: "BSBM(200) from a memory-mapped snapshot, 12 explore templates with fresh constants: every request misses the plan cache and pays parse and transform, and FILTERs run in the matcher",
        data: Data::BsbmSnapshot { scale: 200 },
        intended_share: "share.core",
        traced_requests: 270,
    },
];

impl Spec {
    /// The same workload on the smallest dataset, for `--smoke` and tests.
    pub fn smoke(mut self) -> Spec {
        self.data = match self.data {
            Data::Lubm { shards, .. } => Data::Lubm { scale: 1, shards },
            Data::BsbmSnapshot { .. } => Data::BsbmSnapshot { scale: 1 },
        };
        self.traced_requests = self.traced_requests.min(24);
        self
    }
}

/// One request: the template it instantiates and its SPARQL text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub template: &'static str,
    pub sparql: String,
}

/// A request sequence: the distinct requests and the order to send them in
/// (clients walk `order` cyclically).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sequence {
    pub distinct: Vec<Request>,
    pub order: Vec<usize>,
}

impl Sequence {
    /// The request at position `i` of the endless cyclic sequence.
    pub fn at(&self, i: usize) -> (usize, &Request) {
        let id = self.order[i % self.order.len()];
        (id, &self.distinct[id])
    }
}

/// SplitMix64: small, seedable, and good enough to pick constants.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.below(pool.len())]
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

// ---- drawing constants from the dataset ---------------------------------

/// IRIs of the subjects that have `rdf:type class`, in dataset order.
fn instances(data: &Dataset, class: &str) -> Result<Vec<String>, String> {
    let missing = || format!("the dataset has no instance of <{class}>");
    let rdf_type = data.rdf_type_id().ok_or_else(missing)?;
    let class_id = data.dictionary.id_of_iri(class).ok_or_else(missing)?;
    let found: Vec<String> = data
        .triples
        .iter()
        .filter(|t| t.p == rdf_type && t.o == class_id)
        .filter_map(|t| data.dictionary.term(t.s)?.as_iri().map(str::to_owned))
        .collect();
    if found.is_empty() {
        return Err(missing());
    }
    Ok(found)
}

/// (subject, object) terms of every triple with `predicate`.
fn pairs(data: &Dataset, predicate: &str) -> Result<Vec<(Term, Term)>, String> {
    let found: Vec<(Term, Term)> = data
        .dictionary
        .id_of_iri(predicate)
        .map(|p| {
            data.triples
                .iter()
                .filter(|t| t.p == p)
                .filter_map(|t| Some((data.dictionary.term(t.s)?, data.dictionary.term(t.o)?)))
                .collect()
        })
        .unwrap_or_default();
    if found.is_empty() {
        return Err(format!("the dataset has no <{predicate}> triple"));
    }
    Ok(found)
}

// ---- LUBM ---------------------------------------------------------------

const RDF: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";

fn lubm(body: &str) -> String {
    format!("PREFIX rdf: <{RDF}>\nPREFIX ub: <{UB}>\n{body}")
}

/// The constant-solution LUBM queries as (id, anchor class, body with `{A}`
/// for the anchor IRI).
const POINT_TEMPLATES: [(&str, &str, &str); 9] = [
    ("Q1", "GraduateCourse", "SELECT ?X WHERE { ?X rdf:type ub:GraduateStudent . ?X ub:takesCourse <{A}> . }"),
    ("Q3", "AssistantProfessor", "SELECT ?X WHERE { ?X rdf:type ub:Publication . ?X ub:publicationAuthor <{A}> . }"),
    ("Q4", "Department", "SELECT ?X ?Y1 ?Y2 ?Y3 WHERE { ?X rdf:type ub:Professor . ?X ub:worksFor <{A}> . ?X ub:name ?Y1 . ?X ub:emailAddress ?Y2 . ?X ub:telephone ?Y3 . }"),
    ("Q5", "Department", "SELECT ?X WHERE { ?X rdf:type ub:Person . ?X ub:memberOf <{A}> . }"),
    ("Q7", "AssociateProfessor", "SELECT ?X ?Y WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Course . ?X ub:takesCourse ?Y . <{A}> ub:teacherOf ?Y . }"),
    ("Q8", "University", "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Department . ?X ub:memberOf ?Y . ?Y ub:subOrganizationOf <{A}> . ?X ub:emailAddress ?Z . }"),
    ("Q10", "GraduateCourse", "SELECT ?X WHERE { ?X rdf:type ub:Student . ?X ub:takesCourse <{A}> . }"),
    ("Q11", "University", "SELECT ?X WHERE { ?X rdf:type ub:ResearchGroup . ?X ub:subOrganizationOf <{A}> . }"),
    ("Q12", "University", "SELECT ?X ?Y WHERE { ?X rdf:type ub:Chair . ?Y rdf:type ub:Department . ?X ub:worksFor ?Y . ?Y ub:subOrganizationOf <{A}> . }"),
];

/// Unanchored cyclic joins as (id, copies per 20 requests, body). Q2 and Q9
/// are the paper's increasing-solution triangles; the others close a cycle
/// through `teachingAssistantOf`, which few partial matches survive, so the
/// matcher explores every advisor edge and returns little. The copies put
/// the median request in the middle of J3's (J1 is faster, the rest slower)
/// and the 95th percentile in the middle of Q9's.
const JOIN_TEMPLATES: [(&str, usize, &str); 5] = [
    ("Q2", 2, "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:GraduateStudent . ?Y rdf:type ub:University . ?Z rdf:type ub:Department . ?X ub:memberOf ?Z . ?Z ub:subOrganizationOf ?Y . ?X ub:undergraduateDegreeFrom ?Y . }"),
    ("Q9", 2, "SELECT ?X ?Y ?Z WHERE { ?X rdf:type ub:Student . ?Y rdf:type ub:Faculty . ?Z rdf:type ub:Course . ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:takesCourse ?Z . }"),
    ("J1", 7, "SELECT ?X ?Y ?Z WHERE { ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:teachingAssistantOf ?Z . }"),
    ("J2", 3, "SELECT ?X ?Y ?Z ?P WHERE { ?X ub:advisor ?Y . ?Y ub:teacherOf ?Z . ?X ub:teachingAssistantOf ?Z . ?P ub:publicationAuthor ?Y . ?X ub:degreeFrom ?U . ?Y ub:worksFor ?D . ?D ub:subOrganizationOf ?U . }"),
    ("J3", 6, "SELECT ?X ?W ?Z WHERE { ?X ub:advisor ?Y . ?W ub:advisor ?Y . ?X ub:teachingAssistantOf ?Z . ?W ub:takesCourse ?Z . ?Y ub:teacherOf ?Z . ?W rdf:type ub:UndergraduateStudent . }"),
];

/// Classes whose extent at LUBM(640) is 5k–65k instances: the scans.
const SCAN_CLASSES: [(&str, &str); 8] = [
    ("Q6", "Student"),
    ("Q14", "UndergraduateStudent"),
    ("S-grad", "GraduateStudent"),
    ("S-course", "Course"),
    ("S-prof", "Professor"),
    ("S-pub", "Publication"),
    ("S-faculty", "Faculty"),
    ("S-gradcourse", "GraduateCourse"),
];

struct LubmPools {
    by_class: HashMap<&'static str, Vec<String>>,
}

impl LubmPools {
    fn new(data: &Dataset) -> Result<LubmPools, String> {
        let mut by_class = HashMap::new();
        for (_, class, _) in POINT_TEMPLATES {
            if !by_class.contains_key(class) {
                by_class.insert(class, instances(data, &format!("{UB}{class}"))?);
            }
        }
        Ok(LubmPools { by_class })
    }

    fn point(&self, slot: usize, rng: &mut Rng) -> Request {
        let (id, class, body) = POINT_TEMPLATES[slot % POINT_TEMPLATES.len()];
        let anchor: &String = rng.pick(&self.by_class[class]);
        Request {
            template: id,
            sparql: lubm(&body.replace("{A}", anchor)),
        }
    }
}

fn joins(copies_of: impl Fn(&str, usize) -> usize) -> Vec<Request> {
    let mut slots = Vec::new();
    for (id, copies, body) in JOIN_TEMPLATES {
        let request = Request {
            template: id,
            sparql: lubm(body),
        };
        slots.extend(std::iter::repeat_n(request, copies_of(id, copies)));
    }
    slots
}

fn lubm_point(data: &Dataset, rng: &mut Rng) -> Result<Vec<Request>, String> {
    let pools = LubmPools::new(data)?;
    Ok((0..64).map(|slot| pools.point(slot, rng)).collect())
}

fn lubm_scan(data: &Dataset) -> Result<Vec<Request>, String> {
    let mut slots: Vec<Request> = SCAN_CLASSES
        .iter()
        .map(|(id, class)| Request {
            template: id,
            sparql: lubm(&format!("SELECT ?X WHERE {{ ?X rdf:type ub:{class} . }}")),
        })
        .collect();
    // Q13 on the university with the most alumni (the generator's flagship).
    let mut alumni: HashMap<Term, usize> = HashMap::new();
    for (university, _) in pairs(data, &format!("{UB}hasAlumnus"))? {
        *alumni.entry(university).or_default() += 1;
    }
    let flagship = alumni
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .and_then(|(term, _)| term.as_iri().map(str::to_owned))
        .ok_or("no university has alumni")?;
    slots.push(Request {
        template: "Q13",
        sparql: lubm(&format!(
            "SELECT ?X WHERE {{ ?X rdf:type ub:Person . <{flagship}> ub:hasAlumnus ?X . }}"
        )),
    });
    Ok(slots)
}

/// Per 40 requests: 32 lookups and 8 joins. Q9 alone is a tenth of the
/// requests so that `p95_ms` falls inside its latencies rather than on the
/// boundary between two templates.
fn lubm_sharded(data: &Dataset, rng: &mut Rng) -> Result<Vec<Request>, String> {
    let pools = LubmPools::new(data)?;
    let mut slots: Vec<Request> = (0..32).map(|slot| pools.point(slot, rng)).collect();
    slots.extend(joins(|id, _| match id {
        "Q9" => 4,
        "Q2" | "J1" => 2,
        _ => 0,
    }));
    Ok(slots)
}

// ---- BSBM ---------------------------------------------------------------

fn bsbm(body: &str) -> String {
    format!("PREFIX rdf: <{RDF}>\nPREFIX bsbm: <{BSBM}>\nPREFIX inst: <{INST}>\n{body}")
}

/// Requests per cycle of `bsbm_cold`, far more than the 256 plans the
/// server caches, so that a cyclic walk evicts every plan before its reuse.
const BSBM_SLOTS: usize = 300;

/// Copies of each template per 100 requests, cheapest template first. Q5 and
/// Q6 (the expensive-filter queries) are a tenth of the requests, split 3 % /
/// 7 % so that `p95_ms` falls well inside Q6's latencies whichever of the
/// two is slower. Q12 (one offer's product, vendor and price: always one row,
/// so its latencies lie close together) has the copies that put the median
/// request in its middle: 41 % of the requests are cheaper, 41 % dearer. With
/// equal weights the median fell among Q7's latencies, which vary with the
/// product's offers and reviews, and moved by 12 % from seed to seed.
const BSBM_MIX: [(usize, usize); 12] = [
    (10, 10),
    (9, 10),
    (2, 11),
    (8, 10),
    (12, 18),
    (7, 7),
    (11, 6),
    (1, 6),
    (3, 6),
    (4, 6),
    (6, 7),
    (5, 3),
];

fn bsbm_template(slot: usize) -> usize {
    let mut place = slot % 100;
    for (template, copies) in BSBM_MIX {
        if place < copies {
            return template;
        }
        place -= copies;
    }
    unreachable!("BSBM_MIX covers 100 places")
}

fn bsbm_cold(data: &Dataset, rng: &mut Rng) -> Result<Vec<Request>, String> {
    let products = instances(data, &format!("{BSBM}Product"))?;
    let offers = instances(data, &format!("{BSBM}Offer"))?;
    let reviews = instances(data, &format!("{BSBM}Review"))?;
    let features = instances(data, &format!("{BSBM}ProductFeature"))?;
    let labels: Vec<String> = pairs(data, &format!("{BSBM}label"))?
        .into_iter()
        .filter(|(s, _)| s.as_iri().is_some_and(|iri| iri.contains("/Product")))
        .filter_map(|(_, o)| o.as_literal().map(str::to_owned))
        .collect();
    let numbers = |predicate: &str| -> Result<Vec<i64>, String> {
        Ok(pairs(data, &format!("{BSBM}{predicate}"))?
            .iter()
            .filter_map(|(_, o)| o.as_integer())
            .collect())
    };
    let (num1, num3) = (numbers("propertyNum1")?, numbers("propertyNum3")?);
    let countries: Vec<String> = pairs(data, &format!("{BSBM}country"))?
        .into_iter()
        .filter_map(|(_, o)| o.as_iri().map(str::to_owned))
        .collect();
    if labels.is_empty() || num1.is_empty() || num3.is_empty() || countries.is_empty() {
        return Err("the BSBM dataset lacks labels, numeric properties or countries".into());
    }

    let mut slots = Vec::with_capacity(BSBM_SLOTS);
    for slot in 0..BSBM_SLOTS {
        let template = bsbm_template(slot);
        let product = rng.pick(&products);
        let offer = rng.pick(&offers);
        let body = match template {
            1 => format!(
                "SELECT ?product ?label WHERE {{ ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
                 ?product bsbm:productFeature <{}> . ?product bsbm:propertyNum1 ?p1 . FILTER (?p1 > {}) }}",
                rng.pick(&features), rng.pick(&num1)),
            2 => format!(
                "SELECT ?label ?producer ?p1 ?tex WHERE {{ <{product}> bsbm:label ?label . \
                 <{product}> bsbm:producer ?producer . <{product}> bsbm:propertyNum1 ?p1 . \
                 OPTIONAL {{ <{product}> bsbm:propertyTex1 ?tex . }} }}"),
            3 => format!(
                "SELECT ?product WHERE {{ ?product rdf:type bsbm:Product . ?product bsbm:productFeature <{}> . \
                 ?product bsbm:propertyNum1 ?p1 . FILTER (?p1 > {}) ?product bsbm:propertyNum3 ?p3 . FILTER (?p3 < {}) \
                 OPTIONAL {{ ?product bsbm:productFeature <{}> . ?product bsbm:label ?other . }} \
                 FILTER (!BOUND(?other)) }}",
                rng.pick(&features), rng.pick(&num1), rng.pick(&num3), rng.pick(&features)),
            4 => format!(
                "SELECT ?product ?label WHERE {{ ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
                 {{ ?product bsbm:productFeature <{}> . }} UNION {{ ?product bsbm:productFeature <{}> . }} }}",
                rng.pick(&features), rng.pick(&features)),
            5 => format!(
                "SELECT ?product WHERE {{ ?product rdf:type bsbm:Product . \
                 <{product}> bsbm:propertyNum1 ?orig1 . ?product bsbm:propertyNum1 ?p1 . \
                 <{product}> bsbm:propertyNum2 ?orig2 . ?product bsbm:propertyNum2 ?p2 . \
                 FILTER (?p1 < ?orig1 + 300 && ?p1 > ?orig1 - 300) \
                 FILTER (?p2 < ?orig2 + 300 && ?p2 > ?orig2 - 300) }}"),
            6 => {
                // "<adjective> product number <n>": match the adjective and
                // the first two digits of some product's number.
                let label = rng.pick(&labels);
                let adjective = label.split(' ').next().unwrap_or("");
                let digits: String = label
                    .rsplit(' ')
                    .next()
                    .unwrap_or("")
                    .chars()
                    .take(2)
                    .collect();
                format!(
                    "SELECT ?product ?label WHERE {{ ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
                     FILTER regex(?label, \"{adjective}.*number {digits}\") }}")
            }
            7 => format!(
                "SELECT ?offer ?price ?review ?rating WHERE {{ ?offer bsbm:product <{product}> . ?offer bsbm:price ?price . \
                 ?review bsbm:reviewFor <{product}> . OPTIONAL {{ ?review bsbm:rating1 ?rating . }} }}"),
            8 => format!(
                "SELECT ?review ?title ?reviewer ?name WHERE {{ ?review bsbm:reviewFor <{product}> . ?review bsbm:title ?title . \
                 ?review bsbm:reviewer ?reviewer . ?reviewer bsbm:name ?name . }}"),
            9 => format!(
                "SELECT ?reviewer ?name ?country WHERE {{ <{}> bsbm:reviewer ?reviewer . \
                 ?reviewer bsbm:name ?name . ?reviewer bsbm:country ?country . }}",
                rng.pick(&reviews)),
            10 => format!(
                "SELECT ?offer ?price WHERE {{ ?offer bsbm:product <{product}> . ?offer bsbm:vendor ?vendor . \
                 ?vendor bsbm:country <{}> . ?offer bsbm:deliveryDays ?d . FILTER (?d < {}) \
                 ?offer bsbm:price ?price . FILTER (?price < {}) }}",
                rng.pick(&countries), 2 + rng.below(12), 500 + rng.below(4500)),
            11 => format!("SELECT ?property ?value WHERE {{ <{offer}> ?property ?value . }}"),
            _ => format!(
                "SELECT ?productLabel ?vendor ?price WHERE {{ <{offer}> bsbm:product ?product . \
                 ?product bsbm:label ?productLabel . <{offer}> bsbm:vendor ?vendor . <{offer}> bsbm:price ?price . }}"),
        };
        slots.push(Request {
            template: [
                "", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10", "Q11", "Q12",
            ][template],
            sparql: bsbm(&body),
        });
    }
    Ok(slots)
}

// ---- putting a sequence together ----------------------------------------

/// The request sequence of `workload` over `data` for `seed`.
pub fn sequence(workload: &str, data: &Dataset, seed: u64) -> Result<Sequence, String> {
    let mut rng = Rng::new(seed);
    let mut slots = match workload {
        "lubm_point" => lubm_point(data, &mut rng)?,
        "lubm_join" => joins(|_, copies| copies),
        "lubm_scan" => lubm_scan(data)?,
        "lubm_sharded" => lubm_sharded(data, &mut rng)?,
        "bsbm_cold" => bsbm_cold(data, &mut rng)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    rng.shuffle(&mut slots);
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let order = slots
        .into_iter()
        .map(|request| {
            *ids.entry(request.sparql.clone()).or_insert_with(|| {
                distinct.push(request);
                distinct.len() - 1
            })
        })
        .collect();
    Ok(Sequence { distinct, order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_datasets::bsbm::{BsbmConfig, BsbmGenerator};
    use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};

    #[test]
    fn same_seed_same_sequence_and_another_seed_another() {
        let lubm = LubmGenerator::new(LubmConfig::scale(2)).generate();
        let bsbm = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
        for spec in SPECS {
            let data = match spec.data {
                Data::Lubm { .. } => &lubm,
                Data::BsbmSnapshot { .. } => &bsbm,
            };
            let a = sequence(spec.name, data, 7).unwrap();
            assert_eq!(a, sequence(spec.name, data, 7).unwrap(), "{}", spec.name);
            assert_ne!(a, sequence(spec.name, data, 8).unwrap(), "{}", spec.name);
            assert!(a.order.iter().all(|&id| id < a.distinct.len()));
        }
    }

    #[test]
    fn composition_does_not_depend_on_the_seed() {
        assert_eq!(
            BSBM_MIX.iter().map(|(_, copies)| copies).sum::<usize>(),
            100
        );
        assert_eq!(BSBM_SLOTS % 100, 0);
        let bsbm = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
        let count = |seed: u64, template: &str| {
            let s = sequence("bsbm_cold", &bsbm, seed).unwrap();
            s.order
                .iter()
                .filter(|&&id| s.distinct[id].template == template)
                .count()
        };
        for seed in [1, 2] {
            assert_eq!(count(seed, "Q5"), 9);
            assert_eq!(count(seed, "Q6"), 21);
            assert_eq!(count(seed, "Q12"), 54);
        }
    }

    #[test]
    fn every_request_parses_and_unknown_workloads_are_refused() {
        let lubm = LubmGenerator::new(LubmConfig::scale(1)).generate();
        let store = turbohom_engine::Store::from_dataset(lubm);
        for name in ["lubm_point", "lubm_join", "lubm_scan", "lubm_sharded"] {
            for request in sequence(name, store.dataset(), 3).unwrap().distinct {
                assert!(store.prepare(&request.sparql).is_ok(), "{}", request.sparql);
            }
        }
        assert!(sequence("nope", store.dataset(), 3).is_err());
    }
}
