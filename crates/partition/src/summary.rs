//! Per-partition summary graphs and the query footprint matched against
//! them.
//!
//! A [`ShardSummary`] is deliberately tiny: the *exact* set of predicate
//! hashes, the *exact* set of class hashes (objects of `rdf:type`), a
//! Bloom filter over every subject/object term hash, and one bit per term id
//! saying whether this shard owns the term (the scatter-gather ownership
//! filter reads it once per row). Matching a query's
//! constant [footprint](labeled_footprint) against a summary costs a handful
//! of set probes, and a miss proves the shard cannot hold a single result —
//! the shard is pruned before any candidate-region computation runs.
//!
//! Soundness rests on halo containment: if a shard holds at least one
//! result, every triple of that result is present in the shard (see
//! `docs/SHARDING.md`), so each constant of the query's *required* part
//! appears in the shard and therefore in its summary. Constants inside
//! `OPTIONAL` groups never prune — an optional part may legitimately match
//! nowhere.

use crate::{is_schema_predicate, term_hash, Ownership};
use std::collections::HashSet;
use turbohom_rdf::{vocab, Dataset, Term, TermId};
use turbohom_sparql::{GroupPattern, Query};

/// A split-Bloom filter over 64-bit term hashes (two probes derived from
/// the one hash, ~8 bits per expected item rounded up to a power of two).
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    /// Creates a filter sized for roughly `items` insertions.
    pub fn with_capacity(items: usize) -> Bloom {
        let bits = (items.max(16) * 8).next_power_of_two();
        Bloom {
            bits: vec![0u64; bits / 64],
            mask: bits as u64 - 1,
        }
    }

    fn probes(&self, h: u64) -> [u64; 2] {
        // Double hashing from one 64-bit value: the raw hash plus a
        // Fibonacci-scrambled second probe.
        let h2 = h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
        [h & self.mask, h2 & self.mask]
    }

    /// Inserts a hash.
    pub fn insert(&mut self, h: u64) {
        for p in self.probes(h) {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    /// Returns `false` only if the hash was definitely never inserted.
    pub fn contains(&self, h: u64) -> bool {
        self.probes(h)
            .into_iter()
            .all(|p| self.bits[(p / 64) as usize] & (1u64 << (p % 64)) != 0)
    }
}

/// The summary graph of one shard.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Exact set of predicate term hashes present in the shard.
    predicates: HashSet<u64>,
    /// Exact set of class hashes: objects of `rdf:type` triples.
    classes: HashSet<u64>,
    /// Bloom filter over every subject and object term hash.
    terms: Bloom,
    /// Bit `id` is set when this shard owns the term with that id.
    owned: Vec<u64>,
}

impl ShardSummary {
    /// Scans the dataset of shard `shard` and builds its summary. Summaries
    /// are rebuilt at boot rather than persisted — the scan is one pass over
    /// the shard's triples and hashes each distinct term once.
    pub fn build(dataset: &Dataset, ownership: &Ownership, shard: usize) -> ShardSummary {
        let n = dataset.dictionary.len();
        // Hash each distinct term once, not once per triple or result row.
        let mut hashes: Vec<u64> = vec![0; n];
        let mut owned = vec![0u64; n.div_ceil(64)];
        for (id, term) in dataset.dictionary.iter() {
            let hash = term_hash(&term);
            hashes[id.index()] = hash;
            if ownership.owner_of_hash(hash) == shard {
                owned[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }
        let type_id = dataset.rdf_type_id();
        let mut predicates = HashSet::new();
        let mut classes = HashSet::new();
        let mut terms = Bloom::with_capacity(dataset.dictionary.len());
        for t in dataset.triples.iter() {
            predicates.insert(hashes[t.p.index()]);
            if Some(t.p) == type_id {
                classes.insert(hashes[t.o.index()]);
            }
            terms.insert(hashes[t.s.index()]);
            terms.insert(hashes[t.o.index()]);
        }
        ShardSummary {
            predicates,
            classes,
            terms,
            owned,
        }
    }

    /// Does this shard own the term with this id of its dictionary? What
    /// [`Ownership::owner`] says of the term, looked up instead of hashed.
    pub fn owns(&self, id: TermId) -> bool {
        let word = self.owned.get(id.index() / 64);
        word.is_some_and(|w| w >> (id.index() % 64) & 1 == 1)
    }

    /// Exact membership: is the predicate with hash `h` present?
    pub fn contains_predicate(&self, h: u64) -> bool {
        self.predicates.contains(&h)
    }

    /// Exact membership: does any instance of the class with hash `h` exist?
    pub fn contains_class(&self, h: u64) -> bool {
        self.classes.contains(&h)
    }

    /// Probabilistic membership: may the term with hash `h` appear in a
    /// subject or object position? `false` is definite absence.
    pub fn may_contain_term(&self, h: u64) -> bool {
        self.terms.contains(h)
    }

    /// Number of distinct predicates (the summary's "signature width").
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Number of distinct instantiated classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// One pre-hashed constant together with its human-readable rendering, so a
/// prune verdict can *name* the deciding term rather than print a hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledConstant {
    /// The [`term_hash`] probed against the summary.
    pub hash: u64,
    /// The term's N-Triples rendering (what the hash was computed over).
    pub label: String,
}

/// The constants of a query's required part: what [`summary_verdict`] probes
/// a shard summary with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabeledFootprint {
    /// Constant non-type, non-schema predicates.
    pub predicates: Vec<LabeledConstant>,
    /// Constant classes (`rdf:type` objects).
    pub classes: Vec<LabeledConstant>,
    /// Constant subject/object terms of non-schema triples.
    pub terms: Vec<LabeledConstant>,
}

/// Extracts the prunable constants of `query`'s required part, each with
/// its rendering so a verdict can name the term that decided a prune.
/// `OPTIONAL` groups and schema triples (replicated everywhere) contribute
/// nothing.
pub fn labeled_footprint(query: &Query) -> LabeledFootprint {
    let mut fp = LabeledFootprint::default();
    collect_group(&query.pattern, &mut fp);
    for list in [&mut fp.predicates, &mut fp.classes, &mut fp.terms] {
        list.sort_unstable_by(|a, b| a.hash.cmp(&b.hash).then_with(|| a.label.cmp(&b.label)));
        list.dedup();
    }
    fp
}

fn labeled(term: &Term) -> LabeledConstant {
    LabeledConstant {
        hash: term_hash(term),
        label: term.to_string(),
    }
}

fn collect_group(group: &GroupPattern, fp: &mut LabeledFootprint) {
    for t in &group.triples {
        let predicate_iri = t.predicate.as_constant().and_then(Term::as_iri);
        if predicate_iri.is_some_and(is_schema_predicate) {
            continue; // replicated everywhere — never prunes
        }
        let is_type = predicate_iri == Some(vocab::RDF_TYPE);
        if is_type {
            if let Some(class) = t.object.as_constant() {
                fp.classes.push(labeled(class));
            }
            if let Some(s) = t.subject.as_constant() {
                fp.terms.push(labeled(s));
            }
        } else {
            if let Some(p) = t.predicate.as_constant() {
                fp.predicates.push(labeled(p));
            }
            for endpoint in [&t.subject, &t.object] {
                if let Some(c) = endpoint.as_constant() {
                    fp.terms.push(labeled(c));
                }
            }
        }
    }
    // UNION branches are alternatives, not conjuncts: only constants common
    // to every branch could prune, so (conservatively) skip them. The
    // sharded executor rejects UNION queries anyway; this keeps the footprint
    // sound if that ever changes.
    let _ = &group.unions;
}

/// Which summary structure decided a prune.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneCheck {
    /// The exact predicate-hash set lacked a constant predicate.
    Predicate,
    /// The exact class-hash set lacked a constant `rdf:type` object.
    Class,
    /// The Bloom filter over subject/object terms proved a constant absent.
    Term,
}

impl PruneCheck {
    /// Short machine-readable name of the check (`"predicate"`, `"class"`,
    /// `"term"`).
    pub fn name(&self) -> &'static str {
        match self {
            PruneCheck::Predicate => "predicate",
            PruneCheck::Class => "class",
            PruneCheck::Term => "term",
        }
    }

    /// Whether the check is exact set membership or a Bloom-filter probe.
    pub fn mode(&self) -> &'static str {
        match self {
            PruneCheck::Predicate | PruneCheck::Class => "exact",
            PruneCheck::Term => "bloom",
        }
    }
}

/// What is decided about one shard before a query runs on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardVerdict {
    /// No check fired: the shard may hold results and must be executed.
    Live,
    /// A constant anchor sends the query to the one shard that owns it, and
    /// this is another one. The coordinator's verdict: it is reached without
    /// probing the summary, and [`summary_verdict`] never returns it.
    RoutedAway,
    /// A summary check proved the shard empty for this query.
    Pruned {
        /// Which summary structure fired.
        check: PruneCheck,
        /// The rendering of the constant that was proven absent.
        term: String,
    },
}

impl ShardVerdict {
    /// `true` when the verdict is [`ShardVerdict::Pruned`].
    pub fn is_pruned(&self) -> bool {
        matches!(self, ShardVerdict::Pruned { .. })
    }
}

/// Probes one shard summary with a query's footprint: predicates, then
/// classes, then terms. A [`Pruned`] verdict *proves* the shard holds no
/// result for the query, and says which check fired on which constant.
///
/// [`Pruned`]: ShardVerdict::Pruned
pub fn summary_verdict(summary: &ShardSummary, fp: &LabeledFootprint) -> ShardVerdict {
    for c in &fp.predicates {
        if !summary.contains_predicate(c.hash) {
            return ShardVerdict::Pruned {
                check: PruneCheck::Predicate,
                term: c.label.clone(),
            };
        }
    }
    for c in &fp.classes {
        if !summary.contains_class(c.hash) {
            return ShardVerdict::Pruned {
                check: PruneCheck::Class,
                term: c.label.clone(),
            };
        }
    }
    for c in &fp.terms {
        if !summary.may_contain_term(c.hash) {
            return ShardVerdict::Pruned {
                check: PruneCheck::Term,
                term: c.label.clone(),
            };
        }
    }
    ShardVerdict::Live
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_sparql::parse_query;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris("http://ex/s1", vocab::RDF_TYPE, "http://ex/Student");
        ds.insert_iris("http://ex/s1", "http://ex/memberOf", "http://ex/d1");
        ds.insert_iris("http://ex/d1", vocab::RDF_TYPE, "http://ex/Department");
        ds
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = Bloom::with_capacity(100);
        let inserted: Vec<u64> = (0..100).map(|i| term_hash(&Term::integer(i))).collect();
        for &h in &inserted {
            b.insert(h);
        }
        for &h in &inserted {
            assert!(b.contains(h));
        }
        // A fresh filter contains nothing.
        let empty = Bloom::with_capacity(100);
        assert!(inserted.iter().all(|&h| !empty.contains(h)));
    }

    #[test]
    fn summary_reflects_the_dataset() {
        let s = ShardSummary::build(&sample_dataset(), &Ownership::new(1), 0);
        assert!(s.contains_predicate(term_hash(&Term::iri("http://ex/memberOf"))));
        assert!(!s.contains_predicate(term_hash(&Term::iri("http://ex/advisor"))));
        assert!(s.contains_class(term_hash(&Term::iri("http://ex/Student"))));
        assert!(!s.contains_class(term_hash(&Term::iri("http://ex/Professor"))));
        assert!(s.may_contain_term(term_hash(&Term::iri("http://ex/s1"))));
        assert!(!s.may_contain_term(term_hash(&Term::iri("http://ex/absent"))));
        assert_eq!(s.predicate_count(), 2);
        assert_eq!(s.class_count(), 2);
    }

    #[test]
    fn owns_is_the_ownership_of_every_term_of_every_lubm_shard() {
        use crate::{partition_dataset, PartitionConfig, DEFAULT_HALO};
        use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
        let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
        for shards in [2, 4, 8] {
            let halo = DEFAULT_HALO;
            let parts = partition_dataset(&dataset, &PartitionConfig { shards, halo });
            for (shard, data) in parts.shards.iter().enumerate() {
                let summary = ShardSummary::build(data, &parts.ownership, shard);
                for (id, term) in data.dictionary.iter() {
                    let owner = parts.ownership.owner(&term);
                    assert_eq!(summary.owns(id), owner == shard, "k={shards} {term}");
                }
                // An id past the dictionary is owned by nobody.
                let past = data.dictionary.len() as u32;
                assert!((past..past + 130).all(|id| !summary.owns(TermId(id))));
            }
        }
    }

    #[test]
    fn labeled_footprint_collects_required_constants_only() {
        let q = parse_query(&format!(
            "SELECT ?x WHERE {{ \
               ?x <{}> <http://ex/Student> . \
               ?x <http://ex/memberOf> <http://ex/d1> . \
               ?c <{}> <http://ex/Thing> . \
               OPTIONAL {{ ?x <http://ex/email> <http://ex/e1> . }} \
             }}",
            vocab::RDF_TYPE,
            vocab::RDFS_SUBCLASSOF,
        ))
        .unwrap();
        let fp = labeled_footprint(&q);
        let hashes = |list: &[LabeledConstant]| list.iter().map(|c| c.hash).collect::<Vec<_>>();
        assert_eq!(
            hashes(&fp.classes),
            vec![term_hash(&Term::iri("http://ex/Student"))]
        );
        assert_eq!(
            hashes(&fp.predicates),
            vec![term_hash(&Term::iri("http://ex/memberOf"))]
        );
        // d1 (required object) is in the term footprint; the schema triple's
        // constants and the OPTIONAL e1 are not.
        let terms = hashes(&fp.terms);
        assert!(terms.contains(&term_hash(&Term::iri("http://ex/d1"))));
        assert!(!terms.contains(&term_hash(&Term::iri("http://ex/Thing"))));
        assert!(!terms.contains(&term_hash(&Term::iri("http://ex/e1"))));
    }

    #[test]
    fn pruning_fires_on_missing_constants_only() {
        let summary = ShardSummary::build(&sample_dataset(), &Ownership::new(1), 0);
        let prunes = |q: &str| {
            summary_verdict(&summary, &labeled_footprint(&parse_query(q).unwrap())).is_pruned()
        };
        assert!(!prunes(
            "SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d1> . }"
        ));
        assert!(prunes(
            "SELECT ?x WHERE { ?x <http://ex/advisor> <http://ex/d1> . }"
        ));
        assert!(prunes(
            "SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d9> . }"
        ));
        // An all-variable query never prunes.
        let open = parse_query("SELECT ?s WHERE { ?s ?p ?o . }").unwrap();
        assert_eq!(labeled_footprint(&open), LabeledFootprint::default());
        assert!(!prunes("SELECT ?s WHERE { ?s ?p ?o . }"));
    }

    #[test]
    fn verdict_names_the_deciding_check_and_term() {
        let summary = ShardSummary::build(&sample_dataset(), &Ownership::new(1), 0);
        let miss_pred =
            parse_query("SELECT ?x WHERE { ?x <http://ex/advisor> <http://ex/d1> . }").unwrap();
        assert_eq!(
            summary_verdict(&summary, &labeled_footprint(&miss_pred)),
            ShardVerdict::Pruned {
                check: PruneCheck::Predicate,
                term: "<http://ex/advisor>".to_string(),
            }
        );
        let miss_class = parse_query(&format!(
            "SELECT ?x WHERE {{ ?x <{}> <http://ex/Professor> . }}",
            vocab::RDF_TYPE
        ))
        .unwrap();
        assert_eq!(
            summary_verdict(&summary, &labeled_footprint(&miss_class)),
            ShardVerdict::Pruned {
                check: PruneCheck::Class,
                term: "<http://ex/Professor>".to_string(),
            }
        );
        let miss_term =
            parse_query("SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d9> . }").unwrap();
        let verdict = summary_verdict(&summary, &labeled_footprint(&miss_term));
        assert_eq!(
            verdict,
            ShardVerdict::Pruned {
                check: PruneCheck::Term,
                term: "<http://ex/d9>".to_string(),
            }
        );
        match verdict {
            ShardVerdict::Pruned { check, .. } => {
                assert_eq!(check.name(), "term");
                assert_eq!(check.mode(), "bloom");
            }
            _ => unreachable!(),
        }
        assert_eq!(PruneCheck::Predicate.mode(), "exact");
        assert_eq!(PruneCheck::Class.mode(), "exact");
        let hit =
            parse_query("SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d1> . }").unwrap();
        assert_eq!(
            summary_verdict(&summary, &labeled_footprint(&hit)),
            ShardVerdict::Live
        );
    }
}
