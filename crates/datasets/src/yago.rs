//! A YAGO-like heterogeneous fact dataset and the 8-query workload.
//!
//! YAGO combines Wikipedia-derived entities (people, cities, countries,
//! movies, organizations, prizes) with WordNet-derived classes. The paper
//! uses the RDF-3X YAGO query set, whose queries are relational patterns
//! with only a few type constraints ("the YAGO queries have only a few
//! variables which are set to types", Section 7.2). This generator
//! reproduces the *shape*: a heterogeneous schema, skewed degree
//! distribution (popular cities/prizes), and a query set of the same
//! flavour — chains and small cycles over people, places and works.

use crate::BenchmarkQuery;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use turbohom_rdf::{vocab, Dataset, Term};

/// Resource namespace.
pub const Y: &str = "http://yago.example.org/resource/";

fn res(local: &str) -> Term {
    Term::iri(format!("{Y}{local}"))
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YagoConfig {
    /// Scale factor: the number of persons is `200 × scale`.
    pub scale: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for YagoConfig {
    fn default() -> Self {
        YagoConfig {
            scale: 1,
            seed: 0x9a60_5eed,
        }
    }
}

impl YagoConfig {
    /// A configuration with the given scale factor.
    pub fn scale(scale: usize) -> Self {
        YagoConfig {
            scale,
            ..Self::default()
        }
    }
}

/// The YAGO-like data generator.
#[derive(Debug, Clone)]
pub struct YagoGenerator {
    config: YagoConfig,
}

impl YagoGenerator {
    /// Creates a generator.
    pub fn new(config: YagoConfig) -> Self {
        YagoGenerator { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut ds = Dataset::new();
        let rdf_type = Term::iri(vocab::RDF_TYPE);

        // Class hierarchy (WordNet-flavoured).
        for (sub, sup) in [
            ("Scientist", "Person"),
            ("Actor", "Person"),
            ("Politician", "Person"),
            ("Writer", "Person"),
            ("City", "Location"),
            ("Country", "Location"),
            ("Movie", "Work"),
            ("University", "Organization"),
        ] {
            ds.insert(&res(sub), &Term::iri(vocab::RDFS_SUBCLASSOF), &res(sup));
        }

        let countries = 8usize.max(cfg.scale);
        let cities = 20 * cfg.scale.max(1);
        let universities = 6 * cfg.scale.max(1);
        let movies = 40 * cfg.scale.max(1);
        let prizes = 10;
        let persons = 200 * cfg.scale.max(1);

        for c in 0..countries {
            let country = res(&format!("Country_{c}"));
            ds.insert(&country, &rdf_type, &res("Country"));
            ds.insert(
                &country,
                &res("hasCapital"),
                &res(&format!("City_{c}")), // the first `countries` cities are capitals
            );
        }
        for c in 0..cities {
            let city = res(&format!("City_{c}"));
            ds.insert(&city, &rdf_type, &res("City"));
            ds.insert(
                &city,
                &res("locatedIn"),
                &res(&format!("Country_{}", c % countries)),
            );
        }
        for u in 0..universities {
            let uni = res(&format!("University_{u}"));
            ds.insert(&uni, &rdf_type, &res("University"));
            ds.insert(
                &uni,
                &res("locatedIn"),
                &res(&format!("City_{}", u % cities)),
            );
        }
        for p in 0..prizes {
            ds.insert(&res(&format!("Prize_{p}")), &rdf_type, &res("Prize"));
        }
        for m in 0..movies {
            let movie = res(&format!("Movie_{m}"));
            ds.insert(&movie, &rdf_type, &res("Movie"));
        }

        let professions = ["Scientist", "Actor", "Politician", "Writer"];
        for p in 0..persons {
            let person = res(&format!("Person_{p}"));
            let profession = professions[p % professions.len()];
            ds.insert(&person, &rdf_type, &res(profession));
            ds.insert(
                &person,
                &res("label"),
                &Term::literal(format!("person number {p}")),
            );
            // Birth place follows a skewed distribution: low-numbered cities
            // are far more popular (Wikipedia-style popularity skew).
            let city = skewed_index(&mut rng, cities);
            ds.insert(&person, &res("bornIn"), &res(&format!("City_{city}")));
            ds.insert(
                &person,
                &res("isCitizenOf"),
                &res(&format!("Country_{}", city % countries)),
            );
            if rng.gen_ratio(1, 3) {
                ds.insert(
                    &person,
                    &res("graduatedFrom"),
                    &res(&format!("University_{}", rng.gen_range(0..universities))),
                );
            }
            if rng.gen_ratio(1, 4) {
                ds.insert(
                    &person,
                    &res("hasWonPrize"),
                    &res(&format!("Prize_{}", skewed_index(&mut rng, prizes))),
                );
            }
            if rng.gen_ratio(1, 5) {
                let spouse = rng.gen_range(0..persons);
                if spouse != p {
                    ds.insert(
                        &person,
                        &res("marriedTo"),
                        &res(&format!("Person_{spouse}")),
                    );
                }
            }
            match profession {
                "Actor" => {
                    for _ in 0..rng.gen_range(1..4) {
                        ds.insert(
                            &person,
                            &res("actedIn"),
                            &res(&format!("Movie_{}", rng.gen_range(0..movies))),
                        );
                    }
                }
                "Writer" if rng.gen_ratio(1, 2) => {
                    ds.insert(
                        &person,
                        &res("directed"),
                        &res(&format!("Movie_{}", rng.gen_range(0..movies))),
                    );
                }
                _ => {}
            }
            if rng.gen_ratio(1, 6) {
                ds.insert(
                    &person,
                    &res("diedIn"),
                    &res(&format!("City_{}", skewed_index(&mut rng, cities))),
                );
            }
        }
        ds.dedup();
        ds
    }
}

/// Popularity-skewed index in `0..n` (roughly Zipf-flavoured: half the draws
/// land in the first eighth of the range).
fn skewed_index(rng: &mut ChaCha8Rng, n: usize) -> usize {
    let n = n.max(1);
    if rng.gen_bool(0.5) {
        rng.gen_range(0..n.div_ceil(8).max(1))
    } else {
        rng.gen_range(0..n)
    }
}

/// The 8 YAGO-style benchmark queries.
pub fn queries() -> Vec<BenchmarkQuery> {
    let prologue =
        format!("PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX y: <{Y}>\n");
    let q = |id: &str, desc: &str, body: &str| {
        BenchmarkQuery::new(id, desc, format!("{prologue}{body}"))
    };
    vec![
        q(
            "Q1",
            "Scientists born in a city of a given country who won a prize",
            "SELECT ?p ?city ?prize WHERE { ?p rdf:type y:Scientist . ?p y:bornIn ?city . \
             ?city y:locatedIn y:Country_0 . ?p y:hasWonPrize ?prize . }",
        ),
        q(
            "Q2",
            "Married couples born in the same city",
            "SELECT ?a ?b ?c WHERE { ?a y:marriedTo ?b . ?a y:bornIn ?c . ?b y:bornIn ?c . }",
        ),
        q(
            "Q3",
            "Actors in movies directed by writers born in a specific city",
            "SELECT ?actor ?movie ?director WHERE { ?actor rdf:type y:Actor . \
             ?actor y:actedIn ?movie . ?director y:directed ?movie . \
             ?director y:bornIn y:City_1 . }",
        ),
        q(
            "Q4",
            "People who graduated from a university located in the capital of their country of citizenship",
            "SELECT ?p ?u ?city WHERE { ?p y:graduatedFrom ?u . ?u y:locatedIn ?city . \
             ?p y:isCitizenOf ?country . ?country y:hasCapital ?city . }",
        ),
        q(
            "Q5",
            "Prize-winning alumni of a specific university",
            "SELECT ?p ?prize WHERE { ?p y:graduatedFrom y:University_0 . \
             ?p y:hasWonPrize ?prize . }",
        ),
        q(
            "Q6",
            "Politicians who are citizens of a given country, with birth city",
            "SELECT ?p ?city WHERE { ?p rdf:type y:Politician . \
             ?p y:isCitizenOf y:Country_2 . ?p y:bornIn ?city . }",
        ),
        q(
            "Q7",
            "Pairs of actors who acted in the same movie",
            "SELECT ?a ?b ?m WHERE { ?a rdf:type y:Actor . ?b rdf:type y:Actor . \
             ?a y:actedIn ?m . ?b y:actedIn ?m . }",
        ),
        q(
            "Q8",
            "People born in a given city who died in a city of the same country",
            "SELECT ?p ?d WHERE { ?p y:bornIn y:City_0 . ?p y:diedIn ?d . \
             ?d y:locatedIn ?country . y:City_0 y:locatedIn ?country . }",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let a = YagoGenerator::new(YagoConfig::scale(1)).generate();
        let b = YagoGenerator::new(YagoConfig::scale(1)).generate();
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 1000);
    }

    #[test]
    fn anchor_entities_exist() {
        let ds = YagoGenerator::new(YagoConfig::scale(1)).generate();
        for iri in ["Country_0", "City_0", "City_1", "University_0", "Country_2"] {
            assert!(
                ds.dictionary.id_of_iri(&format!("{Y}{iri}")).is_some(),
                "missing {iri}"
            );
        }
    }

    #[test]
    fn schema_is_heterogeneous() {
        let ds = YagoGenerator::new(YagoConfig::scale(1)).generate();
        let predicates: HashSet<_> = ds.triples.iter().map(|t| t.p).collect();
        assert!(predicates.len() >= 12);
        assert_eq!(queries().len(), 8);
    }
}
