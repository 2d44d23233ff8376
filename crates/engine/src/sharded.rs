//! Sharded execution: a [`ShardedStore`] is one [`Store`] and, for each of
//! `k` shards, the bits of the term ids the shard owns.
//!
//! Every term has one owner shard, `term_hash(term) % k` over its N-Triples
//! rendering. Every shard is the same store, so nothing is partitioned and
//! no query needs a distributed join.
//!
//! **Ownership routing** decides at plan time which shards are live: a
//! constant anchor routes the query to its owner shard alone, a variable
//! anchor leaves every shard live. Either way the query is transformed once
//! into an ordinary [`QueryPlan`] that carries its routing, and
//! [`Store::run_plan_traced`] runs it once over the store, with the
//! request's worker threads: the rows are the single store's, in its
//! enumeration order, with its rendering. The run then counts each live
//! shard's rows — the owner of a constant anchor counts every row, and under
//! a variable anchor a row counts for the shard that owns its anchor binding
//! (one bit per term id), so the counts partition the answer — and cuts the
//! query's window last.
//!
//! Queries without an anchor bound in every row (UNION, or a pattern of
//! schema triples only) fail with [`StoreError::NotShardable`]; the
//! single-store path still handles them.
//!
//! A sharded store is built from triples at boot and never saved: a
//! snapshot file holds one [`Store`].

use crate::error::StoreError;
use crate::plan::{parse_traced, window_of, QueryPlan};
use crate::results::{IdResults, QueryResults};
use crate::store::{EngineKind, Store, StoreOptions};
use std::sync::Arc;
use turbohom_rdf::{vocab, Dataset, Dictionary, IdRows, Term, TermId, TermRef};
use turbohom_sparql::{GroupPattern, Query, Selection, SparqlTerm};
use turbohom_storage::{fnv1a, FNV_OFFSET};
use turbohom_trace::Trace;

/// Construction options for a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedOptions {
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
    /// Materialize the RDFS closure at load, as for a single store: the
    /// only way the class hierarchy applies, for all four engines.
    pub inference: bool,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            shards: 4,
            inference: false,
        }
    }
}

/// The ownership hash of a term (a `&Term` or a borrowed `TermRef`, which
/// render alike): FNV-1a over its N-Triples rendering, fed to the hash piece
/// by piece as it is rendered. Independent of term ids, so every process
/// agrees on which shard owns a term.
fn term_hash<'a>(term: impl Into<TermRef<'a>>) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, piece: &str) -> std::fmt::Result {
            self.0 = fnv1a(self.0, piece.as_bytes());
            Ok(())
        }
    }
    let mut hash = Fnv(FNV_OFFSET);
    let _ = write!(hash, "{}", term.into());
    hash.0
}

/// The shard of `shards` that owns `term`: `term_hash(term) % shards`.
fn owner<'a>(term: impl Into<TermRef<'a>>, shards: usize) -> usize {
    (term_hash(term) % shards as u64) as usize
}

/// Each shard's ownership bits, one per term id of `dictionary`: set when
/// the shard owns the term. Built in one pass that hashes every term once,
/// at boot; never persisted. The ownership filter reads a bit per row
/// instead of hashing the row's anchor binding.
fn owned_bits(dictionary: &Dictionary, shards: usize) -> Vec<Vec<u64>> {
    let mut owned = vec![vec![0u64; dictionary.len().div_ceil(64)]; shards];
    for i in 0..dictionary.len() {
        let term = dictionary.term_ref(TermId(i as u32));
        let term = term.expect("ids below len are valid");
        owned[owner(term, shards)][i / 64] |= 1 << (i % 64);
    }
    owned
}

/// Does the shard with ownership `bits` own the term with this id? What
/// [`owner`] says of the term, looked up instead of hashed.
fn owns(bits: &[u64], id: TermId) -> bool {
    let word = bits.get(id.index() / 64);
    word.is_some_and(|w| w >> (id.index() % 64) & 1 == 1)
}

/// The term whose binding assigns each match to exactly one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anchor {
    /// A constant anchor: the query routes to `owner(term)` alone.
    Constant(Term),
    /// A variable anchor: every shard is live, and counts the rows whose
    /// anchor binding it owns.
    Variable(String),
}

/// `true` for the RDFS schema predicates (`rdfs:subClassOf`,
/// `rdfs:subPropertyOf`, `rdfs:domain`, `rdfs:range`), whose triples never
/// offer an anchor.
fn is_schema_predicate(iri: &str) -> bool {
    [
        vocab::RDFS_SUBCLASSOF,
        vocab::RDFS_SUBPROPERTYOF,
        vocab::RDFS_DOMAIN,
        vocab::RDFS_RANGE,
    ]
    .contains(&iri)
}

/// Picks the anchor of `query`, or says why it has none. The candidates
/// are the required triples' subjects and, for a triple whose predicate is
/// a constant other than `rdf:type` and the schema predicates, its object
/// (a type object is a class, and a schema triple binds nothing per match).
/// The first constant wins: it routes to a single shard. Otherwise the
/// first projected variable, in projection order (no projection surgery on
/// the query), then the first variable in appearance order.
fn choose_anchor(query: &Query) -> Result<Anchor, String> {
    let pattern = &query.pattern;
    if !pattern.unions.is_empty() || has_nested_union(pattern) {
        return Err("UNION alternatives are out of scope for sharded execution".into());
    }
    let mut constants: Vec<&Term> = Vec::new();
    let mut variables: Vec<&str> = Vec::new();
    for t in &pattern.triples {
        let (subject, object) = (Some(&t.subject), Some(&t.object));
        let positions = match t.predicate.as_constant().map(|p| p.as_iri()) {
            Some(Some(iri)) if is_schema_predicate(iri) => [None, None],
            Some(Some(vocab::RDF_TYPE)) | None => [subject, None],
            Some(_) => [subject, object],
        };
        for position in positions.into_iter().flatten() {
            match position {
                SparqlTerm::Constant(c) if !constants.contains(&c) => constants.push(c),
                SparqlTerm::Variable(v) if !variables.contains(&v.as_str()) => variables.push(v),
                _ => {}
            }
        }
    }
    if let Some(c) = constants.first() {
        return Ok(Anchor::Constant((*c).clone()));
    }
    let projected = query.projected_variables();
    let first = projected
        .iter()
        .map(String::as_str)
        .find(|v| variables.contains(v))
        .or(variables.first().copied());
    first
        .map(|v| Anchor::Variable(v.to_string()))
        .ok_or_else(|| "no usable anchor: the required pattern has only schema triples".into())
}

fn has_nested_union(group: &GroupPattern) -> bool {
    group
        .optionals
        .iter()
        .any(|g| !g.unions.is_empty() || has_nested_union(g))
}

/// How a sharded store routes a [`QueryPlan`]: what the one run of the plan
/// counts per shard before it cuts the query's window.
pub(crate) struct Routing {
    pub(crate) anchor: Anchor,
    /// Column of the anchor variable in the run's rows (`None` for constant
    /// anchors, which route instead of counting by column). It lies past the
    /// query's own columns when the query did not ask for the variable.
    anchor_column: Option<usize>,
    /// How many of the run's columns are the query's own projection.
    pub(crate) width: usize,
    /// The anchor's owner for a constant anchor, every shard otherwise;
    /// ascending.
    pub(crate) live: Vec<usize>,
    /// Per shard, its [`owned_bits`]: the store's, shared.
    owned: Arc<[Vec<u64>]>,
}

impl Routing {
    /// Number of shards of the store the plan was prepared on.
    pub(crate) fn shards(&self) -> usize {
        self.owned.len()
    }

    /// Number of shards a constant anchor routed the query away from.
    pub(crate) fn pruned(&self) -> usize {
        self.shards() - self.live.len()
    }

    /// Counts each live shard's rows of a run and says how many shards ran
    /// and were pruned. A constant anchor's owner counts every row; else a
    /// row counts for the shard that owns its anchor binding. The anchor
    /// comes from a required triple, so it is bound in every row; an absent
    /// binding counts for shard 0. A shard routed away from counts `None`.
    pub(crate) fn count(&self, results: &mut IdResults<'_>) {
        let mut counts = vec![0; self.shards()];
        match self.anchor_column {
            None => counts[self.live[0]] = results.rows.len(),
            Some(column) => {
                for row in results.rows.iter() {
                    let owner = IdRows::term_id(row[column])
                        .and_then(|id| self.owned.iter().position(|bits| owns(bits, id)));
                    counts[owner.unwrap_or(0)] += 1;
                }
            }
        }
        let counts = counts.into_iter().enumerate();
        let live = counts.map(|(i, n)| self.live.contains(&i).then_some(n));
        results.shard_rows = live.collect();
        results.stats.shards_executed = self.live.len();
        results.stats.shards_pruned = self.pruned();
    }
}

/// One [`Store`] and, for each shard, the bits of the term ids it owns.
///
/// `Send + Sync` like `Store`; services share one behind an `Arc`.
pub struct ShardedStore {
    store: Arc<Store>,
    /// Per shard, its [`owned_bits`].
    owned: Arc<[Vec<u64>]>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.owned.len())
            .field("triples", &self.store.triple_count())
            .finish()
    }
}

impl ShardedStore {
    /// Builds the one store (materializing the RDFS closure when
    /// `options.inference` is set) and every shard's ownership bits.
    pub fn from_dataset_with(
        dataset: Dataset,
        options: ShardedOptions,
    ) -> Result<Self, StoreError> {
        let inference = options.inference;
        let store = Store::from_dataset_with(dataset, StoreOptions { inference });
        let owned = owned_bits(store.dictionary(), options.shards.max(1)).into();
        Ok(ShardedStore {
            store: Arc::new(store),
            owned,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.owned.len()
    }

    /// The store shard `i` runs over: the one store, whichever shard.
    pub fn shard(&self, _i: usize) -> &Arc<Store> {
        &self.store
    }

    /// Triples in the store (after inference).
    pub fn triple_count(&self) -> usize {
        self.store.triple_count()
    }

    /// Parses a SPARQL query and builds its routed plan for `kind`.
    pub fn prepare_plan(&self, sparql: &str, kind: EngineKind) -> Result<QueryPlan, StoreError> {
        self.prepare_plan_traced(sparql, kind, &Trace::disabled())
    }

    /// Like [`prepare_plan`](Self::prepare_plan), recording `parse` and
    /// `transform` stage spans. The plan is the store's plan of the query
    /// with the anchor variable added to the projection when the count needs
    /// a column the query did not ask for (no reader of the result looks
    /// past the query's own columns), and the routing set: a constant anchor
    /// routes to its owner shard, a variable one leaves every shard live,
    /// each counting by its column.
    pub fn prepare_plan_traced(
        &self,
        sparql: &str,
        kind: EngineKind,
        trace: &Trace,
    ) -> Result<QueryPlan, StoreError> {
        let mut query = parse_traced(sparql, trace)?;
        // Before routing: the refusal must not depend on the data.
        window_of(&query)?;
        let anchor = choose_anchor(&query).map_err(StoreError::NotShardable)?;
        let mut projected = query.projected_variables();
        let width = projected.len();
        let (live, anchor_column) = match &anchor {
            Anchor::Constant(term) => (vec![owner(term, self.shard_count())], None),
            Anchor::Variable(var) => {
                let column = projected.iter().position(|v| v == var).unwrap_or_else(|| {
                    projected.push(var.clone());
                    query.selection = Selection::Variables(projected);
                    width
                });
                ((0..self.shard_count()).collect(), Some(column))
            }
        };
        let mut plan = self.store.plan_traced(&query, kind, trace)?;
        plan.routing = Some(Routing {
            anchor,
            anchor_column,
            width,
            live,
            owned: Arc::clone(&self.owned),
        });
        Ok(plan)
    }

    /// Runs a routed plan and decodes the result.
    pub fn run_plan(&self, plan: &QueryPlan) -> Result<QueryResults, StoreError> {
        self.store.run_plan(plan)
    }

    /// Parses and executes in one call (tests and examples; services cache
    /// the plan).
    pub fn execute(&self, sparql: &str, kind: EngineKind) -> Result<QueryResults, StoreError> {
        self.run_plan(&self.prepare_plan(sparql, kind)?)
    }
}

/// Either a single [`Store`] or a [`ShardedStore`], behind one preparing
/// surface so the service layer stays agnostic: whichever prepared it,
/// [`Store::run_plan_traced`] on [`store`](Self::store) runs a plan, and
/// [`Store::explain`] explains it.
#[derive(Clone)]
pub enum AnyStore {
    /// The classic single-store path.
    Single(Arc<Store>),
    /// The sharded path: one store, its shards routed and counted.
    Sharded(Arc<ShardedStore>),
}

impl AnyStore {
    /// Prepares a plan (routed on the sharded flavor), recording stage spans
    /// into `trace`.
    pub fn prepare_plan_traced(
        &self,
        sparql: &str,
        kind: EngineKind,
        trace: &Trace,
    ) -> Result<QueryPlan, StoreError> {
        match self {
            AnyStore::Single(s) => s.prepare_plan_traced(sparql, kind, trace),
            AnyStore::Sharded(s) => s.prepare_plan_traced(sparql, kind, trace),
        }
    }

    /// Backend label for diagnostics (`"heap"`, `"snapshot"` or
    /// `"sharded-heap"`: a sharded store is always built from triples).
    pub fn backend_name(&self) -> &'static str {
        match self {
            AnyStore::Single(s) => s.backend_name(),
            AnyStore::Sharded(_) => "sharded-heap",
        }
    }

    /// `"single"` or `"sharded"` (the store-flavor label on per-engine
    /// metrics and EXPLAIN reports).
    pub fn flavor_name(&self) -> &'static str {
        match self {
            AnyStore::Single(_) => "single",
            AnyStore::Sharded(_) => "sharded",
        }
    }

    /// The one store behind either flavor: what runs and explains every
    /// plan.
    pub fn store(&self) -> &Arc<Store> {
        match self {
            AnyStore::Single(s) => s,
            AnyStore::Sharded(s) => &s.store,
        }
    }

    /// The sharded store (`None` on the single-store path), for what only
    /// it has: the shard count.
    pub fn sharded(&self) -> Option<&ShardedStore> {
        match self {
            AnyStore::Single(_) => None,
            AnyStore::Sharded(s) => Some(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;
    use turbohom_sparql::parse_query;

    /// `turbohom_bench::canonical_json`, which this crate's unit tests cannot
    /// link: the body with its rows sorted, for comparing results whose
    /// enumeration orders differ.
    fn canonical_json(mut results: QueryResults) -> String {
        results.rows.sort();
        results.to_sparql_json()
    }

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    /// A dataset with enough structure to exercise routing and the ownership
    /// filter: students in two departments of one university.
    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        ds.insert_iris(
            &ub("GraduateStudent"),
            vocab::RDFS_SUBCLASSOF,
            &ub("Student"),
        );
        for d in 0..2 {
            let dept = ub(&format!("dept{d}"));
            ds.insert_iris(&dept, vocab::RDF_TYPE, &ub("Department"));
            ds.insert_iris(&dept, &ub("subOrganizationOf"), &ub("univ0"));
            for i in 0..5 {
                let s = ub(&format!("student{d}_{i}"));
                ds.insert_iris(&s, vocab::RDF_TYPE, &ub("GraduateStudent"));
                ds.insert_iris(&s, &ub("memberOf"), &dept);
            }
        }
        ds.insert_iris(&ub("univ0"), vocab::RDF_TYPE, &ub("University"));
        ds
    }

    fn single_store() -> Store {
        Store::from_dataset_with(sample_dataset(), StoreOptions { inference: true })
    }

    fn sharded(shards: usize) -> ShardedStore {
        ShardedStore::from_dataset_with(
            sample_dataset(),
            ShardedOptions {
                shards,
                inference: true,
            },
        )
        .unwrap()
    }

    const QUERIES: &[&str] = &[
        // Variable anchor, every student.
        r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
           PREFIX ub: <http://ub.org/>
           SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#,
        // Constant anchor (dept0) — routes to one shard.
        r#"PREFIX ub: <http://ub.org/>
           SELECT ?x WHERE { ?x ub:memberOf <http://ub.org/dept0> . }"#,
        // Triangle through the university.
        r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
           PREFIX ub: <http://ub.org/>
           SELECT ?x ?d ?u WHERE {
             ?x ub:memberOf ?d . ?d ub:subOrganizationOf ?u .
             ?u rdf:type ub:University . }"#,
        // Anchor variable not projected.
        r#"PREFIX ub: <http://ub.org/>
           SELECT ?d WHERE { ?x ub:memberOf ?d . }"#,
        // OPTIONAL rides along.
        r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
           PREFIX ub: <http://ub.org/>
           SELECT ?d ?u WHERE {
             ?d rdf:type ub:Department .
             OPTIONAL { ?d ub:subOrganizationOf ?u . } }"#,
        // A predicate no shard holds.
        r#"PREFIX ub: <http://ub.org/>
           SELECT ?x WHERE { ?x ub:nonexistent ?y . }"#,
        // A class no shard holds.
        r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
           PREFIX ub: <http://ub.org/>
           SELECT ?x ?d WHERE { ?x rdf:type ub:Professor . ?x ub:memberOf ?d . }"#,
    ];

    /// The entries of [`QUERIES`] whose constants no shard holds.
    const ABSENT: std::ops::Range<usize> = 5..7;

    #[test]
    fn sharded_results_are_the_single_store_rows_with_the_same_rendering() {
        let single = single_store();
        for k in [1, 3, 4] {
            let sharded = sharded(k);
            for q in QUERIES {
                for kind in EngineKind::all() {
                    let expect = single.execute(q, kind).unwrap();
                    let got = sharded.execute(q, kind).unwrap();
                    assert_eq!(
                        canonical_json(got),
                        canonical_json(expect),
                        "k={k} {kind} {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_anchor_routes_to_a_single_shard() {
        let sharded = sharded(4);
        let plan = sharded
            .prepare_plan(QUERIES[1], EngineKind::TurboHomPlusPlus)
            .unwrap();
        assert!(matches!(plan.anchor(), Some(Anchor::Constant(_))));
        assert!(plan.live_shards().len() <= 1);
        assert!(plan.pruned_shards() >= 3);
        let r = sharded.run_plan(&plan).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(r.stats.shards_pruned, plan.pruned_shards());
        assert_eq!(r.stats.shards_executed, plan.live_shards().len());
    }

    #[test]
    fn absent_constants_cost_nothing_on_any_shard() {
        // Every shard runs, and each one's plan finds the constant missing
        // from the dictionary: no candidate region is computed.
        for k in [1, 3, 4] {
            let sharded = sharded(k);
            for q in &QUERIES[ABSENT] {
                for kind in EngineKind::all() {
                    let r = sharded.execute(q, kind).unwrap();
                    assert!(r.rows.is_empty(), "k={k} {kind} {q}");
                    assert_eq!(r.stats.shards_pruned, 0, "k={k} {kind} {q}");
                    assert_eq!(r.stats.shards_executed, k, "k={k} {kind} {q}");
                    assert_eq!(r.stats.candidate_regions, 0, "k={k} {kind} {q}");
                }
            }
        }
    }

    #[test]
    fn union_is_not_shardable_and_a_disconnected_query_is_answered() {
        let single = single_store();
        let sharded = sharded(2);
        let union = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT ?x WHERE {
                         { ?x rdf:type ub:Department . } UNION { ?x rdf:type ub:University . } }"#;
        assert!(matches!(
            sharded.execute(union, EngineKind::TurboHomPlusPlus),
            Err(StoreError::NotShardable(_))
        ));
        let disconnected = r#"PREFIX ub: <http://ub.org/>
                              SELECT ?a ?b WHERE {
                                ?a ub:memberOf <http://ub.org/dept0> .
                                ?b ub:memberOf <http://ub.org/dept1> . }"#;
        for kind in EngineKind::all() {
            let got = sharded.execute(disconnected, kind).unwrap();
            assert_eq!(got.len(), 25, "{kind}");
            let expect = single.execute(disconnected, kind).unwrap();
            assert_eq!(canonical_json(got), canonical_json(expect), "{kind}");
        }
    }

    #[test]
    fn limit_and_offset_apply_after_the_shard_count() {
        let single = single_store();
        let sharded = sharded(3);
        for kind in EngineKind::all() {
            let all = single.execute(QUERIES[0], kind).unwrap();
            assert_eq!(all.rows.len(), 10);
            // Any 4 rows of the full answer are a valid LIMIT answer.
            let plan = sharded
                .prepare_plan(&format!("{} LIMIT 4", QUERIES[0]), kind)
                .unwrap();
            assert_eq!(plan.pushed_limit(), None, "{kind}");
            let r = sharded.run_plan(&plan).unwrap();
            assert_eq!((r.rows.len(), r.solution_count), (4, 4), "{kind}");
            assert!(r.rows.iter().all(|row| all.rows.contains(row)), "{kind}");
            // The window is cut from the counted rows, whichever shard
            // counts them.
            let gathered = sharded.execute(QUERIES[0], kind).unwrap();
            let q = format!("{} LIMIT 4 OFFSET 7", QUERIES[0]);
            let plan = sharded.prepare_plan(&q, kind).unwrap();
            assert_eq!(plan.pushed_limit(), None, "{kind}");
            let r = sharded.run_plan(&plan).unwrap();
            assert_eq!(r.solution_count, 3, "{kind}");
            assert_eq!(r.rows, gathered.rows[7..], "{kind}");
        }
    }

    #[test]
    fn a_window_is_a_slice_of_the_unlimited_answer() {
        let sharded = sharded(3);
        let kind = EngineKind::TurboHomPlusPlus;
        let plan = sharded.prepare_plan(QUERIES[0], kind).unwrap();
        let trace = Trace::disabled();
        let all = sharded
            .shard(0)
            .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
            .unwrap();
        let all = all.decode().rows;
        assert_eq!(all.len(), 10);
        // Across the middle of the answer, and from inside it to its end.
        for (offset, limit) in [(4, 2), (1, 9)] {
            let q = format!("{} LIMIT {limit} OFFSET {offset}", QUERIES[0]);
            let plan = sharded.prepare_plan(&q, kind).unwrap();
            let windowed = sharded
                .shard(0)
                .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
                .unwrap();
            assert_eq!(windowed.len(), limit, "{offset} {limit}");
            let body = windowed.to_sparql_json();
            let rows = windowed.decode().rows;
            assert_eq!(rows, all[offset..offset + limit], "{offset} {limit}");
            let expected = QueryResults {
                variables: vec!["x".into(), "d".into()],
                rows,
                ..Default::default()
            };
            assert_eq!(body, expected.to_sparql_json(), "{offset} {limit}");
        }
    }

    #[test]
    fn order_by_is_refused_even_when_no_shard_holds_the_predicate() {
        let sharded = sharded(4);
        for pattern in ["?x ub:memberOf ?d", "?x ub:nonexistent ?d"] {
            let q = format!(
                "PREFIX ub: <http://ub.org/> SELECT ?x WHERE {{ {pattern} . }} ORDER BY ?x"
            );
            for kind in EngineKind::all() {
                assert!(
                    matches!(
                        sharded.prepare_plan(&q, kind),
                        Err(StoreError::OrderByUnsupported)
                    ),
                    "{kind} {pattern}"
                );
            }
        }
    }

    #[test]
    fn sharded_traces_record_the_single_store_stages() {
        let sharded = sharded(3);
        let trace = Trace::new(7);
        let plan = sharded
            .prepare_plan_traced(QUERIES[0], EngineKind::TurboHomPlusPlus, &trace)
            .unwrap();
        sharded
            .shard(0)
            .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
            .unwrap();
        let report = trace.finish();
        let names: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect();
        // The single store's root stages.
        assert_eq!(names, ["parse", "transform", "execute", "materialise"]);
        // The ownership count and the window cut are timed under
        // `materialise`, which counts the rows the cut left.
        let materialise = report
            .spans
            .iter()
            .find(|s| s.name == "materialise")
            .unwrap();
        assert!(materialise.counters.contains(&("rows", 10)));
    }

    #[test]
    fn any_store_dispatches_both_flavors() {
        let single = AnyStore::Single(Arc::new(single_store()));
        let sharded_store = AnyStore::Sharded(Arc::new(sharded(2)));
        assert!(single.sharded().is_none());
        let behind = sharded_store.sharded().expect("the sharded flavor");
        assert_eq!(behind.shard_count(), 2);
        assert_eq!(sharded_store.backend_name(), "sharded-heap");
        let triples = |s: &AnyStore| s.store().triple_count();
        assert_eq!(triples(&single), triples(&sharded_store));
        let trace = Trace::disabled();
        let mut bodies = Vec::new();
        for store in [&single, &sharded_store] {
            let plan = store
                .prepare_plan_traced(QUERIES[0], EngineKind::TurboHomPlusPlus, &trace)
                .unwrap();
            let one = store.store();
            assert_eq!(one.explain(&plan).engine, EngineKind::TurboHomPlusPlus);
            let r = one
                .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
                .unwrap();
            assert_eq!(r.variables, ["x", "d"]);
            bodies.push(canonical_json(r.decode()));
        }
        assert_eq!(bodies[0], bodies[1]);
    }

    #[test]
    fn term_hash_is_the_hash_of_the_rendering() {
        let a = Term::iri("http://ex.org/a");
        assert_eq!(term_hash(&a), fnv1a(FNV_OFFSET, b"<http://ex.org/a>"));
        // Pinned, so that a change to the rendering or the hash, which moves
        // every term to another shard, shows here first.
        assert_eq!(term_hash(&a), 0x282f_4643_dfc8_a3aa);
        // Different term kinds with the same inner text hash differently.
        assert_ne!(term_hash(&Term::iri("x")), term_hash(&Term::literal("x")));
        // A rendering made of several pieces hashes like the whole string.
        let tagged = Term::lang_literal("hi \"there\"", "en");
        assert_eq!(
            term_hash(&tagged),
            fnv1a(FNV_OFFSET, tagged.to_string().as_bytes())
        );
    }

    #[test]
    fn owns_is_the_ownership_of_every_term_of_the_lubm_dictionary() {
        use turbohom_datasets::lubm::{LubmConfig, LubmGenerator};
        let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
        let dictionary = &dataset.dictionary;
        for shards in [1, 2, 4, 8] {
            let owned = owned_bits(dictionary, shards);
            assert_eq!(owned.len(), shards);
            for (id, term) in dictionary.iter() {
                let owners: Vec<usize> = (0..shards).filter(|&i| owns(&owned[i], id)).collect();
                assert_eq!(owners, [owner(&term, shards)], "k={shards} {term}");
            }
            // An id past the dictionary is owned by nobody.
            let past = dictionary.len() as u32;
            for bits in &owned {
                assert!((past..past + 130).all(|id| !owns(bits, TermId(id))));
            }
        }
    }

    #[test]
    fn schema_predicates_are_recognized() {
        assert!(is_schema_predicate(vocab::RDFS_SUBCLASSOF));
        assert!(is_schema_predicate(vocab::RDFS_SUBPROPERTYOF));
        assert!(is_schema_predicate(vocab::RDFS_DOMAIN));
        assert!(is_schema_predicate(vocab::RDFS_RANGE));
        assert!(!is_schema_predicate(vocab::RDF_TYPE));
        assert!(!is_schema_predicate("http://ex.org/p"));
    }

    fn anchor_of(sparql: &str) -> Result<Anchor, String> {
        choose_anchor(&parse_query(sparql).unwrap())
    }

    #[test]
    fn constant_anchor_is_preferred() {
        let anchor = anchor_of(
            "SELECT ?x WHERE { ?x <http://ex/memberOf> <http://ex/d1> . \
                               ?x <http://ex/advisor> ?y . }",
        );
        assert_eq!(anchor, Ok(Anchor::Constant(Term::iri("http://ex/d1"))));
    }

    #[test]
    fn variable_anchor_prefers_projected_variables() {
        let anchor = anchor_of("SELECT ?y WHERE { ?x <http://ex/p> ?y . ?y <http://ex/q> ?z . }");
        assert_eq!(anchor, Ok(Anchor::Variable("y".into())));
        // Unprojected, the first candidate in appearance order.
        let anchor = anchor_of("SELECT ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/q> ?z . }");
        assert_eq!(anchor, Ok(Anchor::Variable("z".into())));
        let anchor = anchor_of(&format!(
            "SELECT ?c WHERE {{ ?x <{}> ?c . ?x <http://ex/q> ?z . }}",
            vocab::RDF_TYPE
        ));
        assert_eq!(anchor, Ok(Anchor::Variable("x".into())));
    }

    #[test]
    fn type_and_variable_predicate_triples_offer_their_subject_only() {
        let anchor = anchor_of(&format!(
            "SELECT ?x WHERE {{ ?x <{}> <http://ex/Student> . }}",
            vocab::RDF_TYPE
        ));
        assert_eq!(anchor, Ok(Anchor::Variable("x".into())));
        let anchor = anchor_of("SELECT ?o WHERE { ?s ?p ?o . }");
        assert_eq!(anchor, Ok(Anchor::Variable("s".into())));
    }

    #[test]
    fn union_and_schema_only_patterns_have_no_anchor() {
        let union = anchor_of(
            "SELECT ?x WHERE { { ?x <http://ex/a> ?y . } UNION { ?x <http://ex/b> ?y . } }",
        );
        assert!(union.unwrap_err().contains("UNION"));
        let schema = anchor_of(&format!(
            "SELECT ?c WHERE {{ ?c <{}> <http://ex/D> . }}",
            vocab::RDFS_SUBCLASSOF
        ));
        assert!(schema.unwrap_err().contains("only schema triples"));
    }
}
