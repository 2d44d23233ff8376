//! A BTC2012-like multi-source crawl dataset and the 8-query workload.
//!
//! The Billion Triples Challenge 2012 dataset is a web crawl: FOAF profiles,
//! DBpedia extracts, geo data and SIOC posts mixed together, with irregular
//! typing (many entities carry no `rdf:type` at all) and triples that
//! violate a clean schema. The paper loads it *without* inference and runs
//! tree-shaped queries, several of which pin one query vertex to a concrete
//! entity (that is why all engines answer them quickly, Section 7.2).
//! This generator reproduces those characteristics.

use crate::BenchmarkQuery;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use turbohom_rdf::{vocab, Dataset, Term};

/// FOAF namespace.
pub const FOAF: &str = "http://xmlns.com/foaf/0.1/";
/// DBpedia-like ontology namespace.
pub const DBO: &str = "http://dbpedia.example.org/ontology/";
/// DBpedia-like resource namespace.
pub const DBR: &str = "http://dbpedia.example.org/resource/";
/// Geo vocabulary namespace.
pub const GEO: &str = "http://www.w3.org/2003/01/geo/wgs84_pos#";
/// Crawled-person namespace.
pub const PPL: &str = "http://people.example.org/";

fn foaf(local: &str) -> Term {
    Term::iri(format!("{FOAF}{local}"))
}

fn dbo(local: &str) -> Term {
    Term::iri(format!("{DBO}{local}"))
}

fn dbr(local: &str) -> Term {
    Term::iri(format!("{DBR}{local}"))
}

fn person(i: usize) -> Term {
    Term::iri(format!("{PPL}person{i}"))
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtcConfig {
    /// Scale factor: the number of crawled FOAF profiles is `300 × scale`.
    pub scale: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for BtcConfig {
    fn default() -> Self {
        BtcConfig {
            scale: 1,
            seed: 0xb7c_5eed,
        }
    }
}

impl BtcConfig {
    /// A configuration with the given scale factor.
    pub fn scale(scale: usize) -> Self {
        BtcConfig {
            scale,
            ..Self::default()
        }
    }
}

/// The BTC-like data generator.
#[derive(Debug, Clone)]
pub struct BtcGenerator {
    config: BtcConfig,
}

impl BtcGenerator {
    /// Creates a generator.
    pub fn new(config: BtcConfig) -> Self {
        BtcGenerator { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut ds = Dataset::new();
        let rdf_type = Term::iri(vocab::RDF_TYPE);

        let people = 300 * cfg.scale.max(1);
        let places = 40 * cfg.scale.max(1);
        let documents = 100 * cfg.scale.max(1);

        // DBpedia-like places with geo coordinates; only half are typed.
        for p in 0..places {
            let place = dbr(&format!("Place{p}"));
            if p % 2 == 0 {
                ds.insert(&place, &rdf_type, &dbo("Place"));
            }
            ds.insert(
                &place,
                &Term::iri(format!("{GEO}lat")),
                &Term::double(-90.0 + (p as f64) * 0.37 % 180.0),
            );
            ds.insert(
                &place,
                &Term::iri(format!("{GEO}long")),
                &Term::double(-180.0 + (p as f64) * 0.73 % 360.0),
            );
            ds.insert(
                &place,
                &Term::iri(vocab::RDFS_LABEL),
                &Term::literal(format!("Place number {p}")),
            );
            ds.insert(&place, &dbo("country"), &dbr(&format!("Country{}", p % 12)));
        }

        // FOAF profiles: irregular — not everyone has every property, a third
        // are untyped, mailboxes and homepages are sparse.
        for i in 0..people {
            let p = person(i);
            if i % 3 != 0 {
                ds.insert(&p, &rdf_type, &foaf("Person"));
            }
            ds.insert(
                &p,
                &foaf("name"),
                &Term::literal(format!("Crawled Person {i}")),
            );
            if rng.gen_ratio(2, 3) {
                ds.insert(
                    &p,
                    &foaf("mbox"),
                    &Term::iri(format!("mailto:person{i}@example.org")),
                );
            }
            if rng.gen_ratio(1, 3) {
                ds.insert(
                    &p,
                    &foaf("homepage"),
                    &Term::iri(format!("http://people.example.org/home/{i}")),
                );
            }
            // Social links with popularity skew toward low ids.
            let friends = rng.gen_range(0..5);
            for _ in 0..friends {
                let target = if rng.gen_bool(0.5) {
                    rng.gen_range(0..(people / 10).max(1))
                } else {
                    rng.gen_range(0..people)
                };
                if target != i {
                    ds.insert(&p, &foaf("knows"), &person(target));
                }
            }
            if rng.gen_ratio(1, 2) {
                ds.insert(
                    &p,
                    &dbo("birthPlace"),
                    &dbr(&format!("Place{}", rng.gen_range(0..places))),
                );
            }
            if rng.gen_ratio(1, 6) {
                ds.insert(
                    &p,
                    &dbo("occupation"),
                    &dbr(&format!("Occupation{}", i % 9)),
                );
            }
        }

        // Documents created by people (dc:creator-style links).
        for d in 0..documents {
            let doc = Term::iri(format!("http://docs.example.org/doc{d}"));
            ds.insert(&doc, &rdf_type, &foaf("Document"));
            ds.insert(
                &doc,
                &Term::iri("http://purl.org/dc/elements/1.1/creator"),
                &person(rng.gen_range(0..people)),
            );
            ds.insert(
                &doc,
                &Term::iri("http://purl.org/dc/elements/1.1/title"),
                &Term::literal(format!("Document {d}")),
            );
        }
        ds.dedup();
        ds
    }
}

/// The 8 BTC-style benchmark queries (tree shaped; Q2, Q4 and Q5 pin a
/// concrete entity, mirroring the original workload's selectivity profile).
pub fn queries() -> Vec<BenchmarkQuery> {
    let prologue = format!(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n\
         PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n\
         PREFIX foaf: <{FOAF}>\nPREFIX dbo: <{DBO}>\nPREFIX dbr: <{DBR}>\n\
         PREFIX dc: <http://purl.org/dc/elements/1.1/>\nPREFIX ppl: <{PPL}>\n"
    );
    let q = |id: &str, desc: &str, body: &str| {
        BenchmarkQuery::new(id, desc, format!("{prologue}{body}"))
    };
    vec![
        q(
            "Q1",
            "People with a mailbox and a homepage",
            "SELECT ?p ?m ?h WHERE { ?p rdf:type foaf:Person . ?p foaf:mbox ?m . \
             ?p foaf:homepage ?h . ?p foaf:name ?name . }",
        ),
        q(
            "Q2",
            "The social neighborhood of a specific person",
            "SELECT ?friend ?name WHERE { ppl:person1 foaf:knows ?friend . \
             ?friend foaf:name ?name . }",
        ),
        q(
            "Q3",
            "People born in a typed place with coordinates",
            "SELECT ?p ?place ?lat WHERE { ?p dbo:birthPlace ?place . \
             ?place rdf:type dbo:Place . \
             ?place <http://www.w3.org/2003/01/geo/wgs84_pos#lat> ?lat . }",
        ),
        q(
            "Q4",
            "Documents created by a specific person",
            "SELECT ?doc ?title WHERE { ?doc dc:creator ppl:person2 . ?doc dc:title ?title . }",
        ),
        q(
            "Q5",
            "Everything known about a specific place",
            "SELECT ?prop ?value WHERE { dbr:Place3 ?prop ?value . }",
        ),
        q(
            "Q6",
            "Friends of friends of a specific person",
            "SELECT ?fof WHERE { ppl:person1 foaf:knows ?f . ?f foaf:knows ?fof . }",
        ),
        q(
            "Q7",
            "People whose birth place is in a given country, with names",
            "SELECT ?p ?name ?place WHERE { ?p dbo:birthPlace ?place . \
             ?place dbo:country dbr:Country3 . ?p foaf:name ?name . }",
        ),
        q(
            "Q8",
            "Authors of documents together with who they know",
            "SELECT ?doc ?author ?friend WHERE { ?doc dc:creator ?author . \
             ?author foaf:knows ?friend . ?friend foaf:mbox ?mbox . }",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_irregular() {
        let a = BtcGenerator::new(BtcConfig::scale(1)).generate();
        let b = BtcGenerator::new(BtcConfig::scale(1)).generate();
        assert_eq!(a.len(), b.len());
        // Irregularity: fewer rdf:type triples than people (a third untyped).
        let rdf_type = a.rdf_type_id().unwrap();
        let foaf_person = a.dictionary.id_of_iri(&format!("{FOAF}Person")).unwrap();
        let typed = a
            .triples
            .iter()
            .filter(|t| t.p == rdf_type && t.o == foaf_person)
            .count();
        assert!(typed < 300);
        assert!(typed > 150);
    }

    #[test]
    fn anchor_entities_exist() {
        let ds = BtcGenerator::new(BtcConfig::scale(1)).generate();
        for iri in [
            format!("{PPL}person1"),
            format!("{PPL}person2"),
            format!("{DBR}Place3"),
            format!("{DBR}Country3"),
        ] {
            assert!(ds.dictionary.id_of_iri(&iri).is_some(), "missing {iri}");
        }
    }

    #[test]
    fn eight_queries() {
        assert_eq!(queries().len(), 8);
    }
}
