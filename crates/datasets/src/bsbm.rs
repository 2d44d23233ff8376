//! The BSBM-like e-commerce benchmark: generator and the 12 explore queries.
//!
//! The Berlin SPARQL Benchmark models an e-commerce scenario (products,
//! producers, vendors, offers, reviews) and its *explore use case* is the
//! query mix the paper runs in Table 6 — it is the workload that exercises
//! the general SPARQL features OPTIONAL, FILTER and UNION (Section 5.1).
//! The generator below reproduces the schema shape and the query set keeps
//! the features and selectivity pattern of the originals: most queries are
//! anchored to one product/offer/review and return a handful of rows, while
//! Q5 (join-condition filters) and Q6 (regular expression over labels) are
//! the two expensive ones.

use crate::encode::{Encoder, Node, Vocabulary};
use crate::BenchmarkQuery;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use turbohom_rdf::{vocab, Dataset, Term, TermId};

/// Vocabulary namespace.
pub const BSBM: &str = "http://bsbm.example.org/vocabulary/";
/// Instance namespace.
pub const INST: &str = "http://bsbm.example.org/instances/";

/// The generator's classes: each one's IRI is its name in the vocabulary
/// namespace.
#[derive(Debug, Clone, Copy)]
enum Class {
    ProductType,
    ProductFeature,
    Producer,
    Vendor,
    Person,
    Product,
    Offer,
    Review,
}

impl Class {
    /// Number of classes.
    const COUNT: usize = Class::Review as usize + 1;
}

/// The generator's properties: `rdf:type`, `rdfs:subClassOf` and the ones
/// in the vocabulary namespace.
#[derive(Debug, Clone, Copy)]
enum Prop {
    Type,
    SubClassOf,
    Label,
    Name,
    Country,
    Producer,
    ProductFeature,
    PropertyNum1,
    PropertyNum2,
    PropertyNum3,
    PropertyTex1,
    Product,
    Vendor,
    Price,
    DeliveryDays,
    ReviewFor,
    Reviewer,
    Title,
    Rating1,
}

impl Prop {
    /// Number of properties.
    const COUNT: usize = Prop::Rating1 as usize + 1;

    fn iri(self) -> String {
        let local = match self {
            Prop::Type => return vocab::RDF_TYPE.to_string(),
            Prop::SubClassOf => return vocab::RDFS_SUBCLASSOF.to_string(),
            Prop::Label => "label",
            Prop::Name => "name",
            Prop::Country => "country",
            Prop::Producer => "producer",
            Prop::ProductFeature => "productFeature",
            Prop::PropertyNum1 => "propertyNum1",
            Prop::PropertyNum2 => "propertyNum2",
            Prop::PropertyNum3 => "propertyNum3",
            Prop::PropertyTex1 => "propertyTex1",
            Prop::Product => "product",
            Prop::Vendor => "vendor",
            Prop::Price => "price",
            Prop::DeliveryDays => "deliveryDays",
            Prop::ReviewFor => "reviewFor",
            Prop::Reviewer => "reviewer",
            Prop::Title => "title",
            Prop::Rating1 => "rating1",
        };
        format!("{BSBM}{local}")
    }
}

/// What the generator encodes on first use: its classes and properties,
/// and the seven countries producers, vendors and reviewers come from.
#[derive(Debug, Clone, Copy)]
enum Key {
    Class(Class),
    Prop(Prop),
    Country(usize),
}

impl Vocabulary for Key {
    fn slot(self) -> usize {
        match self {
            Key::Class(class) => class as usize,
            Key::Prop(prop) => Class::COUNT + prop as usize,
            Key::Country(c) => Class::COUNT + Prop::COUNT + c,
        }
    }

    fn iri(self) -> String {
        match self {
            Key::Class(class) => format!("{BSBM}{class:?}"),
            Key::Prop(prop) => prop.iri(),
            Key::Country(c) => format!("http://countries.example.org/C{c}"),
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

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BsbmConfig {
    /// Scale factor: the number of products is `100 × scale`.
    pub scale: usize,
    /// Number of distinct product features.
    pub features: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for BsbmConfig {
    fn default() -> Self {
        BsbmConfig {
            scale: 1,
            features: 40,
            seed: 0xb5b_5eed,
        }
    }
}

impl BsbmConfig {
    /// A configuration with the given scale factor.
    pub fn scale(scale: usize) -> Self {
        BsbmConfig {
            scale,
            ..Self::default()
        }
    }

    /// Number of products this configuration generates.
    pub fn products(&self) -> usize {
        self.scale * 100
    }
}

/// The BSBM-like data generator.
#[derive(Debug, Clone)]
pub struct BsbmGenerator {
    config: BsbmConfig,
}

impl BsbmGenerator {
    /// Creates a generator.
    pub fn new(config: BsbmConfig) -> Self {
        BsbmGenerator { config }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut enc = Encoder::new();

        let products = cfg.products();
        let producers = (cfg.scale * 5).max(2);
        let vendors = (cfg.scale * 5).max(2);
        let reviewers = (cfg.scale * 20).max(5);

        // Product type hierarchy: a root type with a handful of subtypes.
        let root = enc.entity(&format!("{BSBM}ProductTypeRoot"));
        enc.insert(root, Prop::Type, Class::ProductType);
        let types: Vec<TermId> = (0..6)
            .map(|t| {
                let ty = enc.entity(&format!("{BSBM}ProductType{t}"));
                enc.insert(ty, Prop::Type, Class::ProductType);
                enc.insert(ty, Prop::SubClassOf, root);
                ty
            })
            .collect();

        // Features.
        let features: Vec<TermId> = (0..cfg.features)
            .map(|f| {
                let feature = enc.entity(&format!("{INST}ProductFeature{f}"));
                enc.insert(feature, Prop::Type, Class::ProductFeature);
                let label = format!("feature number {f}");
                enc.insert(feature, Prop::Label, Term::literal(label));
                feature
            })
            .collect();

        // Producers, vendors and reviewers: `Producer3` is labelled
        // "Producer 3", and each comes from one of seven countries.
        let mut agents = |kind: &str, count: usize, class: Class, named: Prop| {
            (0..count)
                .map(|a| {
                    let agent = enc.entity(&format!("{INST}{kind}{a}"));
                    enc.insert(agent, Prop::Type, class);
                    enc.insert(agent, named, Term::literal(format!("{kind} {a}")));
                    enc.insert(agent, Prop::Country, Key::Country(a % 7));
                    agent
                })
                .collect::<Vec<TermId>>()
        };
        let producers = agents("Producer", producers, Class::Producer, Prop::Label);
        let vendors = agents("Vendor", vendors, Class::Vendor, Prop::Label);
        let reviewers = agents("Reviewer", reviewers, Class::Person, Prop::Name);

        // Products, offers, reviews.
        let adjectives = [
            "great", "solid", "cheap", "premium", "classic", "alpha", "omega",
        ];
        for i in 0..products {
            let product = enc.entity(&format!("{INST}Product{i}"));
            enc.insert(product, Prop::Type, Class::Product);
            enc.insert(product, Prop::Type, types[i % types.len()]);
            let adjective = adjectives[i % adjectives.len()];
            let label = format!("{adjective} product number {i}");
            enc.insert(product, Prop::Label, Term::literal(label));
            enc.insert(product, Prop::Producer, producers[i % producers.len()]);
            // 3–5 features per product.
            let feature_count = 3 + rng.gen_range(0..3);
            for _ in 0..feature_count {
                let f = rng.gen_range(0..cfg.features);
                enc.insert(product, Prop::ProductFeature, features[f]);
            }
            for num in [Prop::PropertyNum1, Prop::PropertyNum2, Prop::PropertyNum3] {
                enc.insert(product, num, Term::integer(rng.gen_range(1..2000)));
            }
            // 70 % of the products have a text property (used by OPTIONAL queries).
            if rng.gen_ratio(7, 10) {
                let text = format!("textual description {i}");
                enc.insert(product, Prop::PropertyTex1, Term::literal(text));
            }

            // Offers: two per product.
            for k in 0..2 {
                let offer = enc.entity(&format!("{INST}Offer{i}_{k}"));
                enc.insert(offer, Prop::Type, Class::Offer);
                enc.insert(offer, Prop::Product, product);
                let vendor = vendors[rng.gen_range(0..vendors.len())];
                enc.insert(offer, Prop::Vendor, vendor);
                let price = Term::double(rng.gen_range(10.0..5000.0));
                enc.insert(offer, Prop::Price, price);
                let days = Term::integer(rng.gen_range(1..14));
                enc.insert(offer, Prop::DeliveryDays, days);
            }

            // Reviews: two per product, 60 % carry a rating.
            for k in 0..2 {
                let review = enc.entity(&format!("{INST}Review{i}_{k}"));
                enc.insert(review, Prop::Type, Class::Review);
                enc.insert(review, Prop::ReviewFor, product);
                let reviewer = reviewers[rng.gen_range(0..reviewers.len())];
                enc.insert(review, Prop::Reviewer, reviewer);
                let title = format!("review {k} of product {i}");
                enc.insert(review, Prop::Title, Term::literal(title));
                if rng.gen_ratio(3, 5) {
                    let rating = Term::integer(rng.gen_range(1..=10));
                    enc.insert(review, Prop::Rating1, rating);
                }
            }
        }
        enc.into_dataset()
    }
}

/// The 12 explore-use-case queries, anchored to entities the generator is
/// guaranteed to produce (`Product1`, `Offer1_0`, `Review1_0`, …).
pub fn queries() -> Vec<BenchmarkQuery> {
    let prologue = format!(
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nPREFIX bsbm: <{BSBM}>\nPREFIX inst: <{INST}>\n"
    );
    let q = |id: &str, desc: &str, body: &str| {
        BenchmarkQuery::new(id, desc, format!("{prologue}{body}"))
    };
    vec![
        q(
            "Q1",
            "Products of a type carrying a given feature with a large propertyNum1",
            "SELECT ?product ?label WHERE { \
               ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
               ?product bsbm:productFeature inst:ProductFeature1 . \
               ?product bsbm:propertyNum1 ?p1 . FILTER (?p1 > 1500) }",
        ),
        q(
            "Q2",
            "All core details of a specific product, with optional text property",
            "SELECT ?label ?producer ?p1 ?tex WHERE { \
               inst:Product1 bsbm:label ?label . \
               inst:Product1 bsbm:producer ?producer . \
               inst:Product1 bsbm:propertyNum1 ?p1 . \
               OPTIONAL { inst:Product1 bsbm:propertyTex1 ?tex . } }",
        ),
        q(
            "Q3",
            "Products with a feature, a numeric range, and without a second feature",
            "SELECT ?product WHERE { \
               ?product rdf:type bsbm:Product . \
               ?product bsbm:productFeature inst:ProductFeature2 . \
               ?product bsbm:propertyNum1 ?p1 . FILTER (?p1 > 500) \
               ?product bsbm:propertyNum3 ?p3 . FILTER (?p3 < 1500) \
               OPTIONAL { ?product bsbm:productFeature inst:ProductFeature3 . \
                          ?product bsbm:label ?other . } \
               FILTER (!BOUND(?other)) }",
        ),
        q(
            "Q4",
            "Products carrying either of two features (UNION)",
            "SELECT ?product ?label WHERE { \
               ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
               { ?product bsbm:productFeature inst:ProductFeature4 . } \
               UNION \
               { ?product bsbm:productFeature inst:ProductFeature5 . } }",
        ),
        q(
            "Q5",
            "Products with property values close to those of a given product (join-condition filters)",
            "SELECT ?product WHERE { \
               ?product rdf:type bsbm:Product . \
               inst:Product1 bsbm:propertyNum1 ?orig1 . \
               ?product bsbm:propertyNum1 ?p1 . \
               inst:Product1 bsbm:propertyNum2 ?orig2 . \
               ?product bsbm:propertyNum2 ?p2 . \
               FILTER (?p1 < ?orig1 + 300 && ?p1 > ?orig1 - 300) \
               FILTER (?p2 < ?orig2 + 300 && ?p2 > ?orig2 - 300) }",
        ),
        q(
            "Q6",
            "Products whose label matches a regular expression",
            "SELECT ?product ?label WHERE { \
               ?product rdf:type bsbm:Product . ?product bsbm:label ?label . \
               FILTER regex(?label, \"alpha.*number\") }",
        ),
        q(
            "Q7",
            "Offers and reviews (with optional ratings) for a specific product",
            "SELECT ?offer ?price ?review ?rating WHERE { \
               ?offer bsbm:product inst:Product1 . ?offer bsbm:price ?price . \
               ?review bsbm:reviewFor inst:Product1 . \
               OPTIONAL { ?review bsbm:rating1 ?rating . } }",
        ),
        q(
            "Q8",
            "Reviews of a specific product with reviewer names",
            "SELECT ?review ?title ?reviewer ?name WHERE { \
               ?review bsbm:reviewFor inst:Product1 . ?review bsbm:title ?title . \
               ?review bsbm:reviewer ?reviewer . ?reviewer bsbm:name ?name . }",
        ),
        q(
            "Q9",
            "Everything about the reviewer of a given review",
            "SELECT ?reviewer ?name ?country WHERE { \
               inst:Review1_0 bsbm:reviewer ?reviewer . \
               ?reviewer bsbm:name ?name . ?reviewer bsbm:country ?country . }",
        ),
        q(
            "Q10",
            "Cheap, quickly delivered offers for a specific product",
            "SELECT ?offer ?price WHERE { \
               ?offer bsbm:product inst:Product1 . ?offer bsbm:vendor ?vendor . \
               ?vendor bsbm:country <http://countries.example.org/C1> . \
               ?offer bsbm:deliveryDays ?d . FILTER (?d < 10) \
               ?offer bsbm:price ?price . FILTER (?price < 4900) }",
        ),
        q(
            "Q11",
            "All properties of a specific offer (variable predicate)",
            "SELECT ?property ?value WHERE { inst:Offer1_0 ?property ?value . }",
        ),
        q(
            "Q12",
            "Export view of a specific offer",
            "SELECT ?productLabel ?vendor ?price WHERE { \
               inst:Offer1_0 bsbm:product ?product . ?product bsbm:label ?productLabel . \
               inst:Offer1_0 bsbm:vendor ?vendor . inst:Offer1_0 bsbm:price ?price . }",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generated content is pinned: every id, every term and every
    /// triple in its order (see `crate::fingerprint`).
    #[test]
    fn generation_is_deterministic_and_scales() {
        let a = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
        assert_eq!(crate::fingerprint(&a), (1539, 3237, 0x471294537bd38b0d));
        let big = BsbmGenerator::new(BsbmConfig::scale(3)).generate();
        assert!(big.len() > 2 * a.len());
    }

    #[test]
    fn anchor_entities_exist() {
        let ds = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
        for iri in [
            format!("{INST}Product1"),
            format!("{INST}Offer1_0"),
            format!("{INST}Review1_0"),
            format!("{INST}ProductFeature1"),
            format!("{INST}Vendor0"),
        ] {
            assert!(ds.dictionary.id_of_iri(&iri).is_some(), "missing {iri}");
        }
    }

    #[test]
    fn products_have_numeric_properties() {
        let ds = BsbmGenerator::new(BsbmConfig::scale(1)).generate();
        let p1 = ds
            .dictionary
            .id_of_iri(&format!("{BSBM}propertyNum1"))
            .unwrap();
        assert_eq!(ds.count_predicate(p1), BsbmConfig::scale(1).products());
    }

    #[test]
    fn twelve_queries() {
        let qs = queries();
        assert_eq!(qs.len(), 12);
        assert!(qs.iter().any(|q| q.sparql.contains("UNION")));
        assert!(qs.iter().any(|q| q.sparql.contains("OPTIONAL")));
        assert!(qs.iter().any(|q| q.sparql.contains("regex")));
    }
}
