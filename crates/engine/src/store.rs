//! The [`Store`]: one RDF dataset — its dictionary and the type-aware graph
//! that holds its triples — plus every derived structure the engines need,
//! and the uniform query entry point.

use crate::backend::{Backend, MemoryRow, StructureBuild};
use crate::error::StoreError;
use crate::plan::QueryPlan;
use crate::results::{IdResults, QueryResults};
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};
use turbohom_baseline::{HashJoinEngine, JoinStrategy, MergeJoinEngine, PermutationIndexes};
use turbohom_core::TurboHomConfig;
use turbohom_rdf::{parse_ntriples, Dataset, Dictionary, IdRows};
use turbohom_sparql::{parse_query, Query};
use turbohom_storage::{Snapshot, SnapshotWriter};
use turbohom_trace::Trace;
use turbohom_transform::TransformedGraph;

/// Which execution engine to use for a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's contribution: e-graph homomorphism matching over the
    /// type-aware transformed graph with all optimizations
    /// (+INT, −NLF, −DEG, +REUSE).
    TurboHomPlusPlus,
    /// The unoptimized port of TurboISO over the direct transformation
    /// (the paper's "TurboHOM", Figure 6 / Table 7 baseline).
    TurboHom,
    /// RDF-3X-style baseline: six permutation indexes + sort-merge joins.
    MergeJoin,
    /// TripleBit / System-X stand-in: predicate scans + hash joins.
    HashJoin,
}

impl EngineKind {
    /// Number of engine kinds (the length of [`EngineKind::all`]; sizes the
    /// per-engine metric arrays, so a new variant cannot silently outgrow
    /// them).
    pub const COUNT: usize = 4;

    /// All engine kinds, in the order the experiment tables list them.
    pub fn all() -> [EngineKind; Self::COUNT] {
        [
            EngineKind::TurboHomPlusPlus,
            EngineKind::TurboHom,
            EngineKind::MergeJoin,
            EngineKind::HashJoin,
        ]
    }

    /// Human-readable label used by the experiment harness.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::TurboHomPlusPlus => "TurboHOM++",
            EngineKind::TurboHom => "TurboHOM (direct)",
            EngineKind::MergeJoin => "MergeJoin (RDF-3X-like)",
            EngineKind::HashJoin => "HashJoin (System-Y)",
        }
    }

    /// Short machine-readable name: what [`Display`](fmt::Display) prints and
    /// what [`FromStr`](std::str::FromStr) accepts (among other aliases).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::TurboHomPlusPlus => "turbohom++",
            EngineKind::TurboHom => "turbohom",
            EngineKind::MergeJoin => "mergejoin",
            EngineKind::HashJoin => "hashjoin",
        }
    }

    /// The position of this kind in [`EngineKind::all`] (used to index
    /// per-engine metric arrays).
    pub fn index(&self) -> usize {
        Self::all()
            .iter()
            .position(|k| k == self)
            .expect("all() covers every kind")
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when an engine name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    input: String,
}

impl fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown engine `{}` (expected one of: turbohom++, turbohom, mergejoin, hashjoin)",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl std::str::FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses an engine name case-insensitively: its
    /// [`name`](EngineKind::name), its [`label`](EngineKind::label) or one
    /// of a few aliases, spelled exactly (nothing is stripped, so a
    /// misspelling such as `turbohom--` is refused, not read as `turbohom`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const ALIASES: [(&str, EngineKind); 7] = [
            ("turbohomplusplus", EngineKind::TurboHomPlusPlus),
            ("turbohom_plus_plus", EngineKind::TurboHomPlusPlus),
            ("merge-join", EngineKind::MergeJoin),
            ("sortmerge", EngineKind::MergeJoin),
            ("rdf3x", EngineKind::MergeJoin),
            ("hash-join", EngineKind::HashJoin),
            ("hash", EngineKind::HashJoin),
        ];
        let key = s.to_ascii_lowercase();
        let named = EngineKind::all()
            .into_iter()
            .find(|kind| key == kind.name() || key == kind.label().to_ascii_lowercase());
        let aliased = || {
            ALIASES
                .iter()
                .find(|(alias, _)| key == *alias)
                .map(|&(_, kind)| kind)
        };
        named
            .or_else(aliased)
            .ok_or_else(|| ParseEngineKindError { input: s.into() })
    }
}

/// Construction options for a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Materialize the RDFS closure (subClassOf/subPropertyOf/domain/range)
    /// before building the graphs — the paper's LUBM loading protocol. This
    /// is the only way the class hierarchy applies, for all four engines:
    /// without it a class matches its asserted instances alone.
    pub inference: bool,
    /// Number of worker threads used by the TurboHOM++ engine.
    pub threads: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            inference: false,
            threads: 1,
        }
    }
}

/// An RDF store: the dictionary, the type-aware graph every TurboHOM++ plan
/// matches over — which holds every triple, so no triple table is kept —
/// and, each built from the graph's triples by the first plan that reads
/// it, on either backend, the direct graph and the six permutation tables.
///
/// The arrays are either owned heap memory (built from parsed triples) or
/// zero-copy views into a memory-mapped snapshot file (see
/// [`Store::from_snapshot`]). A `Store` answers the same after construction
/// and is `Send + Sync`: services share one behind an `Arc` across worker
/// threads (see the `turbohom-service` crate).
pub struct Store {
    backend: Backend,
    options: StoreOptions,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("backend", &self.backend.name())
            .field("snapshot_path", &self.backend.snapshot_path())
            .field("triples", &self.triple_count())
            .field("options", &self.options)
            .finish()
    }
}

impl Store {
    /// Builds a store from an already encoded dataset with default options.
    pub fn from_dataset(dataset: Dataset) -> Self {
        Self::from_dataset_with(dataset, StoreOptions::default())
    }

    /// Builds a store from an already encoded dataset.
    pub fn from_dataset_with(dataset: Dataset, options: StoreOptions) -> Self {
        Store {
            backend: Backend::build(dataset, options.inference),
            options,
        }
    }

    /// Parses an N-Triples document and builds a store with default options.
    pub fn from_ntriples(input: &str) -> Result<Self, StoreError> {
        Ok(Self::from_dataset(parse_ntriples(input)?))
    }

    /// Parses an N-Triples document and builds a store.
    pub fn from_ntriples_with(input: &str, options: StoreOptions) -> Result<Self, StoreError> {
        Ok(Self::from_dataset_with(parse_ntriples(input)?, options))
    }

    /// Opens a snapshot file written by [`save_snapshot`](Self::save_snapshot)
    /// and serves every read path from zero-copy views into it (memory-mapped
    /// where the platform allows, a buffered read otherwise). The inference
    /// flag is recovered from the snapshot; the worker-thread count is a
    /// runtime option and defaults to 1.
    pub fn from_snapshot(path: &Path) -> Result<Self, StoreError> {
        Self::from_snapshot_with(path, 1)
    }

    /// Like [`from_snapshot`](Self::from_snapshot) with an explicit
    /// worker-thread count.
    pub fn from_snapshot_with(path: &Path, threads: usize) -> Result<Self, StoreError> {
        if threads == 0 {
            return Err(StoreError::InvalidThreadCount(0));
        }
        let snapshot = Snapshot::open(path)?;
        let (backend, inference) = Backend::read(&mut snapshot.cursor(), path)?;
        Ok(Store {
            backend,
            options: StoreOptions { inference, threads },
        })
    }

    /// Writes the store's contents (the dictionary and the type-aware graph
    /// with its indexes) to a versioned, checksummed snapshot file that
    /// [`from_snapshot`](Self::from_snapshot) reads back without copying.
    /// The direct graph and the permutation tables are not stored: the first
    /// plan that reads one builds it from the mapped graph's triples.
    /// Returns the number of bytes written.
    pub fn save_snapshot(&self, path: &Path) -> Result<u64, StoreError> {
        let mut w = SnapshotWriter::new();
        self.backend.write(self.options.inference, &mut w);
        Ok(w.write_to(path)?)
    }

    /// The backend serving this store (`"heap"` or `"snapshot"`).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The snapshot file backing this store, if any.
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.backend.snapshot_path()
    }

    /// `true` when the store reads from a memory-mapped snapshot.
    pub fn is_mapped(&self) -> bool {
        self.backend.is_mapped()
    }

    /// The term dictionary: what every plan and result reads of the data
    /// besides the graph.
    pub fn dictionary(&self) -> &Dictionary {
        &self.backend.dictionary
    }

    /// The triples as a dataset, decoded from the type-aware graph the first
    /// time anything asks (a `triples` build in [`builds`](Self::builds) and
    /// the memory ledger). No query reads it: it is for tests and tools.
    pub fn dataset(&self) -> &Dataset {
        self.backend.dataset()
    }

    /// Number of triples loaded (after inference, if enabled).
    pub fn triple_count(&self) -> usize {
        self.backend.type_aware.triple_count()
    }

    /// The type-aware transformed graph (Section 4.1).
    pub fn type_aware_graph(&self) -> &TransformedGraph {
        &self.backend.type_aware
    }

    /// The direct transformed graph (Section 3.2), built now if nothing has
    /// read it before: only the `turbohom` ablation reads it (a TurboHOM++
    /// plan matches every query on the type-aware graph). Planning a query
    /// forces what the plan will read, so running a plan never builds.
    pub fn direct_graph(&self) -> &TransformedGraph {
        self.backend.direct(true)
    }

    /// The six permutation indexes (the join baselines' storage), built now
    /// if nothing has read them before.
    pub(crate) fn permutations(&self) -> &PermutationIndexes {
        self.backend.permutations(true)
    }

    /// Builds, ahead of any request, what plans for `kind` read beyond the
    /// type-aware graph: the direct graph for [`EngineKind::TurboHom`], the
    /// permutation tables for the join baselines, nothing for TurboHOM++.
    /// Call it before timing anything.
    pub fn warm(&self, kind: EngineKind) {
        match kind {
            EngineKind::TurboHomPlusPlus => {}
            EngineKind::TurboHom => {
                self.backend.direct(false);
            }
            EngineKind::MergeJoin | EngineKind::HashJoin => {
                self.backend.permutations(false);
            }
        }
    }

    /// The memory ledger: heap and mapped bytes of every array group the
    /// store holds right now (`triples`, `direct` and `permutations` are one
    /// zero line each until something has read them).
    pub fn memory(&self) -> Vec<MemoryRow> {
        self.backend.memory()
    }

    /// Every structure build so far with its duration: `freeze` and
    /// `type_aware` at load, then the first-use builds (`direct`,
    /// `permutations`, `triples`).
    pub fn builds(&self) -> Vec<StructureBuild> {
        self.backend.builds()
    }

    /// The first-use builds the calling thread ran and that no caller has
    /// taken yet — after preparing a plan, what that request caused (the
    /// service journals them under the request's trace id).
    pub fn take_first_use_builds(&self) -> Vec<StructureBuild> {
        self.backend.take_first_use_builds()
    }

    /// The construction options.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// The TurboHOM++ configuration this store uses by default.
    pub fn default_config(&self) -> TurboHomConfig {
        TurboHomConfig::turbohom_plus_plus().with_threads(self.options.threads)
    }

    /// Parses a SPARQL query once so it can be executed repeatedly.
    pub fn prepare(&self, sparql: &str) -> Result<PreparedQuery<'_>, StoreError> {
        Ok(PreparedQuery {
            store: self,
            query: parse_query(sparql)?,
        })
    }

    /// Parses and executes a SPARQL query with the chosen engine.
    ///
    /// This is sugar for [`prepare_plan`](Self::prepare_plan) followed by
    /// [`run_plan`](Self::run_plan); callers that execute the same query
    /// repeatedly should keep (or cache) the plan instead.
    pub fn execute(&self, sparql: &str, kind: EngineKind) -> Result<QueryResults, StoreError> {
        self.run_plan(&self.prepare_plan(sparql, kind)?)
    }

    /// Executes with an explicit TurboHOM configuration (used by the
    /// optimization-ablation and parallel-speed-up experiments): a graph
    /// plan with `config`, run like any other. `force_direct` runs it over
    /// the direct transformation (a `turbohom` plan) instead of the
    /// type-aware one.
    pub fn execute_turbohom(
        &self,
        sparql: &str,
        config: TurboHomConfig,
        force_direct: bool,
    ) -> Result<QueryResults, StoreError> {
        self.run_plan(&self.plan_graph(&parse_query(sparql)?, config, force_direct)?)
    }

    // ---- internal execution paths -------------------------------------

    /// Evaluates the query with a join baseline (an `execute` stage span)
    /// and lays the relation out as term-id rows over the projected
    /// variables (added to `materialise`).
    pub(crate) fn run_baseline(
        &self,
        query: &Query,
        strategy: JoinStrategy,
        trace: &Trace,
        materialise: &mut Duration,
    ) -> IdResults<'_> {
        let projected = query.projected_variables();
        let engine = match strategy {
            JoinStrategy::SortMerge => MergeJoinEngine::new(self.dictionary(), self.permutations()),
            JoinStrategy::Hash => HashJoinEngine::new(self.dictionary(), self.permutations()),
        };
        let mut span = trace.span("execute");
        let (relation, _stats) = engine.execute(query);
        span.counter("solutions", relation.len() as u64);
        span.finish();
        let projecting = Instant::now();
        let columns: Vec<Option<usize>> = projected.iter().map(|v| relation.column(v)).collect();
        let mut rows = IdRows::with_capacity(projected.len(), relation.len());
        for row in &relation.rows {
            let cells = rows.push_unbound();
            for (cell, column) in cells.iter_mut().zip(&columns) {
                if let Some(id) = column.and_then(|i| row[i]) {
                    *cell = IdRows::cell(id);
                }
            }
        }
        *materialise += projecting.elapsed();
        self.id_results(projected, rows)
    }
}

/// A parsed query bound to a store.
pub struct PreparedQuery<'s> {
    store: &'s Store,
    query: Query,
}

impl<'s> PreparedQuery<'s> {
    /// Builds the full execution plan for the chosen engine.
    pub fn plan(&self, kind: EngineKind) -> Result<QueryPlan, StoreError> {
        self.store.plan_query(&self.query, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbohom_rdf::vocab;

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

    fn sample_store() -> Store {
        let mut ds = Dataset::new();
        ds.insert_iris(
            &ub("GraduateStudent"),
            vocab::RDFS_SUBCLASSOF,
            &ub("Student"),
        );
        for i in 0..3 {
            let s = ub(&format!("student{i}"));
            ds.insert_iris(&s, vocab::RDF_TYPE, &ub("GraduateStudent"));
            ds.insert_iris(&s, &ub("memberOf"), &ub("dept0"));
        }
        ds.insert_iris(&ub("dept0"), vocab::RDF_TYPE, &ub("Department"));
        ds.insert_iris(&ub("dept0"), &ub("subOrganizationOf"), &ub("univ0"));
        ds.insert_iris(&ub("univ0"), vocab::RDF_TYPE, &ub("University"));
        Store::from_dataset_with(
            ds,
            StoreOptions {
                inference: true,
                threads: 1,
            },
        )
    }

    #[test]
    fn all_engines_agree_on_a_bgp() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#;
        let mut counts = Vec::new();
        for kind in EngineKind::all() {
            let r = store.execute(q, kind).unwrap();
            counts.push(r.len());
            assert_eq!(r.variables, vec!["x", "d"]);
        }
        assert!(counts.iter().all(|&c| c == 3), "{counts:?}");
    }

    #[test]
    fn inference_option_materializes_superclass_types() {
        let store = sample_store();
        // Without inference the Student class has no direct instances.
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x WHERE { ?x rdf:type ub:Student . }"#;
        assert_eq!(
            store
                .execute(q, EngineKind::TurboHomPlusPlus)
                .unwrap()
                .len(),
            3
        );
        assert_eq!(store.execute(q, EngineKind::MergeJoin).unwrap().len(), 3);
    }

    #[test]
    fn from_ntriples_round_trip() {
        let nt = r#"
<http://ex.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/T> .
<http://ex.org/a> <http://ex.org/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#;
        let store = Store::from_ntriples(nt).unwrap();
        assert_eq!(store.triple_count(), 2);
        let r = store
            .execute(
                "SELECT ?v WHERE { <http://ex.org/a> <http://ex.org/p> ?v . }",
                EngineKind::TurboHomPlusPlus,
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.column("v")[0].as_integer(), Some(42));
    }

    #[test]
    fn variable_predicate_matches_the_type_aware_graph() {
        let store = sample_store();
        let q = "SELECT ?p ?o WHERE { <http://ub.org/student0> ?p ?o . }";
        let graph = store.execute(q, EngineKind::TurboHomPlusPlus).unwrap();
        // The type edges come from the labels: nothing built the direct graph.
        assert!(store.builds().iter().all(|b| b.structure != "direct"));
        let join = store.execute(q, EngineKind::MergeJoin).unwrap();
        // Both must see the rdf:type triples (2 after inference) + memberOf.
        assert_eq!(graph.len(), join.len());
        assert_eq!(graph.len(), 3);
    }

    #[test]
    fn prepared_query_is_reusable() {
        let store = sample_store();
        let prepared = store
            .prepare(
                r#"PREFIX ub: <http://ub.org/>
                   SELECT ?x WHERE { ?x ub:memberOf <http://ub.org/dept0> . }"#,
            )
            .unwrap();
        let run = |kind| store.run_plan(&prepared.plan(kind).unwrap()).unwrap();
        let a = run(EngineKind::TurboHomPlusPlus);
        let b = run(EngineKind::HashJoin);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 3);
        assert!(a.elapsed >= std::time::Duration::ZERO);
    }

    #[test]
    fn parse_errors_are_reported() {
        let store = sample_store();
        assert!(matches!(
            store.execute("SELECT WHERE", EngineKind::TurboHomPlusPlus),
            Err(StoreError::Sparql(_))
        ));
        assert!(Store::from_ntriples("not ntriples").is_err());
    }

    #[test]
    fn execute_turbohom_with_custom_config() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x ?y ?z WHERE {
                     ?x rdf:type ub:Student . ?y rdf:type ub:University . ?z rdf:type ub:Department .
                     ?x ub:memberOf ?z . ?z ub:subOrganizationOf ?y . }"#;
        for opts in [
            turbohom_core::Optimizations::all(),
            turbohom_core::Optimizations::none(),
        ] {
            let config = TurboHomConfig::default().with_optimizations(opts);
            for force_direct in [false, true] {
                let r = store.execute_turbohom(q, config, force_direct).unwrap();
                assert_eq!(r.len(), 3, "{opts:?} force_direct={force_direct}");
                // The solution modifiers hold on this entry point too.
                let windowed = format!("{q} LIMIT 5 OFFSET 1");
                let w = store
                    .execute_turbohom(&windowed, config, force_direct)
                    .unwrap();
                assert_eq!(w.rows, r.rows[1..], "{opts:?} {force_direct}");
                assert!(matches!(
                    store.execute_turbohom(&format!("{q} ORDER BY ?x"), config, force_direct),
                    Err(StoreError::OrderByUnsupported)
                ));
            }
        }
    }

    #[test]
    fn union_and_optional_work_through_the_store() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x ?u WHERE {
                     { ?x rdf:type ub:Department . } UNION { ?x rdf:type ub:University . }
                     OPTIONAL { ?x ub:subOrganizationOf ?u . }
                   }"#;
        let a = store.execute(q, EngineKind::TurboHomPlusPlus).unwrap();
        let b = store.execute(q, EngineKind::MergeJoin).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        // dept0 has a parent organization, univ0 does not.
        assert_eq!(a.column("u").len(), 1);
        assert_eq!(b.column("u").len(), 1);
    }

    #[test]
    fn engine_kind_parses_case_insensitively_and_round_trips() {
        for kind in EngineKind::all() {
            // Display → FromStr round trip.
            assert_eq!(kind.to_string().parse::<EngineKind>().unwrap(), kind);
            // The experiment-table labels parse too.
            assert_eq!(kind.label().parse::<EngineKind>().unwrap(), kind);
            // Case and separators do not matter.
            assert_eq!(
                kind.name().to_uppercase().parse::<EngineKind>().unwrap(),
                kind
            );
            assert_eq!(EngineKind::all()[kind.index()], kind);
        }
        assert_eq!(
            "Merge-Join".parse::<EngineKind>().unwrap(),
            EngineKind::MergeJoin
        );
        assert_eq!(
            "TURBOHOM_PLUS_PLUS".parse::<EngineKind>().unwrap(),
            EngineKind::TurboHomPlusPlus
        );
        let err = "sparqlotron".parse::<EngineKind>().unwrap_err();
        assert!(err.to_string().contains("sparqlotron"));
        // Nothing is stripped: a misspelt name is refused, not read as the
        // name it resembles.
        for misspelt in [
            "turbohom--",
            "turbo-hom",
            "merge join!",
            "turbohom++ ",
            "hash join",
        ] {
            let err = misspelt.parse::<EngineKind>().unwrap_err();
            assert!(err.to_string().contains(misspelt), "{misspelt}");
        }
    }

    #[test]
    fn per_request_thread_override_does_not_rebuild_the_store() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x WHERE { ?x rdf:type ub:Student . }"#;
        // The store was built with threads = 1; the override applies per call.
        assert_eq!(store.options().threads, 1);
        let plan = store.prepare_plan(q, EngineKind::TurboHomPlusPlus).unwrap();
        let seq = store.run_plan(&plan).unwrap();
        let par = store
            .run_plan_traced(&plan, Some(4), &Trace::disabled())
            .unwrap();
        assert_eq!(seq.len(), par.len());
        assert_eq!(store.options().threads, 1);
    }

    #[test]
    fn zero_thread_override_is_rejected_not_clamped() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x WHERE { ?x rdf:type ub:Student . }"#;
        for kind in EngineKind::all() {
            let plan = store.prepare_plan(q, kind).unwrap();
            let err = store
                .run_plan_traced(&plan, Some(0), &Trace::disabled())
                .unwrap_err();
            assert!(matches!(err, StoreError::InvalidThreadCount(0)), "{kind}");
            // `None` still means "use the store default".
            assert!(store
                .run_plan_traced(&plan, None, &Trace::disabled())
                .is_ok());
        }
    }

    #[test]
    fn a_detailed_trace_profiles_every_stage() {
        let store = sample_store();
        let q = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                   PREFIX ub: <http://ub.org/>
                   SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#;
        let traced = |kind, trace_id| {
            let trace = Trace::detailed(trace_id);
            let plan = store.prepare_plan_traced(q, kind, &trace).unwrap();
            let results = store.run_plan_traced(&plan, None, &trace).unwrap();
            (results.len(), trace.finish())
        };
        let (solutions, report) = traced(EngineKind::TurboHomPlusPlus, 7);
        assert_eq!(solutions, 3);
        assert_eq!(report.trace_id, 7);
        // The pipeline stages appear as roots, in order, and sum to no more
        // than the total traced time.
        let stages = report.stages();
        let names: Vec<_> = stages.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parse", "transform", "execute", "materialise"]);
        assert!(report.stage_total_ns() <= report.total_ns);
        // The matcher's fine-grained spans hang off the execute span.
        let execute = report.spans.iter().find(|s| s.name == "execute").unwrap();
        for stage in ["candidate_regions", "matching_order", "enumeration"] {
            let span = report
                .spans
                .iter()
                .find(|s| s.name == stage)
                .unwrap_or_else(|| panic!("missing {stage} span"));
            assert_eq!(span.parent, Some(execute.id));
        }
        assert!(execute.counters.contains(&("solutions", 3)));
        // Projecting the matches to term ids is its own stage, so `execute`
        // is the matcher's time alone.
        let materialise = report
            .spans
            .iter()
            .find(|s| s.name == "materialise")
            .unwrap();
        assert_eq!(materialise.parent, None);
        assert!(materialise.counters.contains(&("rows", 3)));
        // Join baselines only get the coarse pipeline spans.
        let (_, join_report) = traced(EngineKind::MergeJoin, 8);
        assert!(join_report.spans.iter().any(|s| s.name == "execute"));
        assert!(join_report.spans.iter().all(|s| s.name != "enumeration"));
        // The profile JSON carries the stage breakdown.
        let json = report.to_json();
        assert!(json.contains("\"stages\":{\"parse\":"));
        assert!(json.contains("\"name\":\"enumeration\""));
    }

    #[test]
    fn graph_accessors_expose_table1_statistics() {
        let store = sample_store();
        let aware = store.type_aware_graph().graph.stats();
        let direct = store.direct_graph().graph.stats();
        assert!(aware.vertices < direct.vertices);
        assert!(aware.edges < direct.edges);
        assert_eq!(store.options().threads, 1);
    }
}
