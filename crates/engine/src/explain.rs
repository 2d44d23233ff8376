//! EXPLAIN / ANALYZE: structured plan introspection with
//! estimate-vs-actual telemetry.
//!
//! [`Store::explain`] answers "what would this prepared plan do?" *without
//! executing it*: the transformed components, the chosen start vertex, the
//! mean size of the candidate regions the matching order was determined on,
//! and that order with the per-step cardinality estimates (mean `|CR(u)|`,
//! paper Section 4.3) that justified it — what the engine's prologue decides
//! for a run. For a plan
//! a [`ShardedStore`](crate::ShardedStore) routed, the report instead
//! carries the anchor and one verdict per shard — live, or routed away by
//! the constant-anchor ownership rule — with the components on every live
//! shard.
//!
//! ANALYZE is that report with the actuals of one run of the same plan
//! attached ([`ExplainReport::attach_actuals`]): rows produced per matching
//! step, per-shard row counts, the matcher's counters, and the per-step
//! **q-error** `max(estimate/actual, actual/estimate)`, the standard
//! cardinality-estimation quality measure.
//!
//! Reports serialize to a stable JSON document (`turbohom-explain/1`) that
//! the HTTP server returns for `explain=1` and splices into the SPARQL-JSON
//! body for `analyze=1`.

use crate::plan::{component_input, ComponentPlan, PlanMode, QueryPlan, Window};
use crate::results::IdResults;
use crate::sharded::Anchor;
use crate::store::{EngineKind, Store};
use std::num::NonZeroUsize;
use turbohom_core::{EngineError, RunInput, TurboHomConfig, TurboHomEngine};
use turbohom_json::{JsonWriter, ToJson};
use turbohom_transform::{TransformKind, TransformedGraph};

/// Schema identifier embedded in every report.
pub const EXPLAIN_SCHEMA: &str = "turbohom-explain/1";

/// The q-error of one cardinality estimate: `max(e/a, a/e)` with both sides
/// clamped to at least 1 (an estimate of 0 against an actual of 0 is a
/// perfect 1.0; a zero on one side only is penalized as if it were 1).
pub fn qerror(estimate: u64, actual: u64) -> f64 {
    let e = estimate.max(1) as f64;
    let a = actual.max(1) as f64;
    (e / a).max(a / e)
}

/// A structured EXPLAIN (or ANALYZE) report.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The engine the plan was prepared for.
    pub engine: EngineKind,
    /// `"single"` or `"sharded"`.
    pub store_flavor: &'static str,
    /// `"graph"` for the matching engines, `"join"` for the baselines.
    pub plan_type: &'static str,
    /// `true` once actuals have been attached (ANALYZE).
    pub analyzed: bool,
    /// The query's `LIMIT`, if any.
    pub limit: Option<usize>,
    /// `true` when an enumerator of the plan gets the LIMIT as its solution
    /// cap; `false` when there is none, an `OFFSET` blocks it, or the plan
    /// may cut the LIMIT from what it found (join baselines, a branch of
    /// several components — a run binds one-row constant sides and caps the
    /// bound match, which a plan cannot foresee — a FILTER applied to
    /// complete solutions, shards).
    pub limit_pushdown: bool,
    /// One entry per transformed connected component (single-store path;
    /// empty for join plans and sharded reports).
    pub components: Vec<ComponentExplain>,
    /// One entry per shard (sharded path; empty on single stores).
    pub shards: Vec<ShardExplain>,
    /// The sharding anchor (`"?var"` or the constant term), sharded only.
    pub anchor: Option<String>,
    /// Execution actuals (ANALYZE only).
    pub actual: Option<ActualSummary>,
}

/// The static plan of one transformed connected component.
#[derive(Debug, Clone)]
pub struct ComponentExplain {
    /// Union branch index.
    pub branch: usize,
    /// Component index within the branch.
    pub component: usize,
    /// `"type-aware"` or `"direct"`.
    pub graph: &'static str,
    /// Query-graph vertex count.
    pub vertices: usize,
    /// Query-graph edge count.
    pub edges: usize,
    /// Why the component short-circuits without a matching order, if it does.
    pub note: Option<&'static str>,
    /// The chosen start query vertex.
    pub start: Option<StartExplain>,
    /// Total candidate vertices of a candidate region: the mean (rounded)
    /// over the non-empty regions the matching order was determined on (the
    /// +REUSE sample, or the first non-empty region).
    pub region_candidates: Option<usize>,
    /// The matching order, one entry per position.
    pub steps: Vec<StepExplain>,
}

/// The start-vertex choice of one component.
#[derive(Debug, Clone)]
pub struct StartExplain {
    /// The chosen start query vertex (paper: `ChooseStartQueryVertex`).
    pub query_vertex: usize,
    /// Its SPARQL variable name, if it is a variable.
    pub variable: Option<String>,
    /// Number of starting data vertices enumerated for it.
    pub candidates: usize,
}

/// One matching-order position.
#[derive(Debug, Clone)]
pub struct StepExplain {
    /// Position in the matching order (0 = start vertex).
    pub position: usize,
    /// The query vertex matched at this position.
    pub query_vertex: usize,
    /// Its SPARQL variable name, if any.
    pub variable: Option<String>,
    /// The candidate-count estimate that justified the order: `|CR(u)|`
    /// as a mean (rounded) over the regions the order was determined on
    /// (EXPLAIN, see `region_candidates`), or summed over all explored
    /// regions (ANALYZE).
    pub estimate: u64,
    /// `+SUM`: the adjacency list of this vertex is selected by fewer labels
    /// than the query gives it, the tree edge's predicate implying the rest.
    pub label_lookup_elided: bool,
    /// `+SUM`: how many predicate-signature bits a data vertex is asked for
    /// before the region descends into it (0: it is not asked).
    pub signature_bits: u32,
    /// Partial mappings actually extended at this step (ANALYZE only).
    pub rows: Option<u64>,
    /// `qerror(estimate, rows)` (ANALYZE only).
    pub qerror: Option<f64>,
}

/// One shard's verdict (sharded stores).
#[derive(Debug, Clone)]
pub struct ShardExplain {
    /// Shard index.
    pub shard: usize,
    /// Triples in the store the shard runs over (the one store's).
    pub triples: usize,
    /// `"live"`, or `"routed-away"` when the constant anchor is another
    /// shard's.
    pub verdict: &'static str,
    /// The components of the plan every live shard shares, live only.
    pub components: Vec<ComponentExplain>,
    /// Rows whose anchor the shard owns (all of them on a constant anchor's
    /// owner), counted before the window was cut (ANALYZE only).
    pub rows: Option<u64>,
}

/// Execution actuals attached by ANALYZE.
#[derive(Debug, Clone)]
pub struct ActualSummary {
    /// Solutions found.
    pub solutions: u64,
    /// Result rows rendered (differs from `solutions` under count-only).
    pub rows: u64,
    /// Wall-clock execution time in microseconds.
    pub elapsed_us: u64,
    /// Adjacency-intersection operations (+INT).
    pub intersections: u64,
    /// Search-tree recursions.
    pub recursions: u64,
    /// Start vertices and candidates turned down by their predicate
    /// signature (+SUM).
    pub signature_pruned: u64,
    /// Chunks of start vertices the pool's workers claimed.
    pub morsels: u64,
    /// The worst q-error of the steps the report attached rows to (`None`
    /// when it attached none: a plan of several components with matching
    /// orders).
    pub max_qerror: Option<f64>,
}

impl ExplainReport {
    /// An empty report of a plan for `engine` with `window`, its
    /// `limit_pushdown` what the window allows: the explainer clears it where
    /// no enumerator of the plan gets that LIMIT.
    fn new(engine: EngineKind, store_flavor: &'static str, window: Window) -> Self {
        ExplainReport {
            engine,
            store_flavor,
            plan_type: match engine {
                EngineKind::TurboHomPlusPlus | EngineKind::TurboHom => "graph",
                EngineKind::MergeJoin | EngineKind::HashJoin => "join",
            },
            analyzed: false,
            limit: window.limit,
            limit_pushdown: window.pushed_limit().is_some(),
            components: Vec::new(),
            shards: Vec::new(),
            anchor: None,
            actual: None,
        }
    }

    /// The worst q-error of the steps the report carries rows for (ANALYZE
    /// only).
    pub fn max_qerror(&self) -> Option<f64> {
        self.actual.as_ref().and_then(|a| a.max_qerror)
    }

    /// Every per-step q-error recorded by ANALYZE, in matching-order
    /// position order (what the service feeds its q-error histogram), each
    /// step once: a routed plan's live shards hold copies of one component.
    pub fn step_qerrors(&self) -> Vec<f64> {
        let mut copies = self.shards.iter().map(|s| &s.components);
        let components = copies.find(|c| !c.is_empty()).unwrap_or(&self.components);
        (components.iter())
            .flat_map(|c| c.steps.iter().filter_map(|s| s.qerror))
            .collect()
    }

    /// Turns the EXPLAIN report of a plan into its ANALYZE report: attaches
    /// the actuals of one run of that plan. Per-step row counts are attached
    /// when exactly one component of the plan carries a matching order (the
    /// common case — the merged counters cannot be split across several
    /// components), to each live shard's copy of it on a routed plan; the
    /// summary counters always; and on a routed plan each live shard's rows,
    /// counted before the window was cut.
    pub fn attach_actuals(&mut self, results: &IdResults<'_>) {
        self.analyzed = true;
        let copies = std::iter::once(&mut self.components)
            .chain(self.shards.iter_mut().map(|s| &mut s.components));
        for components in copies {
            let mut with_steps = components.iter_mut().filter(|c| !c.steps.is_empty());
            let (Some(component), None) = (with_steps.next(), with_steps.next()) else {
                continue;
            };
            for step in component.steps.iter_mut() {
                if let Some(&estimate) = results.step_estimates.get(step.position) {
                    step.estimate = estimate;
                }
                step.rows = results.step_rows.get(step.position).copied();
                step.qerror = step.rows.map(|rows| qerror(step.estimate, rows));
            }
        }
        for (shard, rows) in self.shards.iter_mut().zip(&results.shard_rows) {
            shard.rows = rows.map(|rows| rows as u64);
        }
        self.actual = Some(ActualSummary {
            solutions: results.solution_count as u64,
            rows: results.row_count() as u64,
            elapsed_us: results.elapsed.as_micros() as u64,
            intersections: results.stats.intersection_ops as u64,
            recursions: results.stats.search_recursions as u64,
            signature_pruned: results.stats.signature_pruned as u64,
            morsels: results.stats.morsels as u64,
            max_qerror: self.step_qerrors().into_iter().reduce(f64::max),
        });
    }

    /// Serializes the report as a `turbohom-explain/1` JSON document.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            w.begin_object()
                .field("schema", EXPLAIN_SCHEMA)
                .field("mode", if self.analyzed { "analyze" } else { "explain" })
                .field("engine", self.engine.name())
                .field("store", self.store_flavor)
                .field("plan", self.plan_type)
                .field("limit", self.limit)
                .field("limit_pushdown", self.limit_pushdown)
                .field_some("anchor", self.anchor.as_deref())
                .field("components", &self.components)
                .field_some("shards", Some(&self.shards).filter(|s| !s.is_empty()))
                .field_some("actual", self.actual.as_ref())
                .end_object();
        })
    }
}

impl ToJson for ActualSummary {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("solutions", self.solutions)
            .field("rows", self.rows)
            .field("elapsed_us", self.elapsed_us)
            .field("intersections", self.intersections)
            .field("recursions", self.recursions)
            .field("signature_pruned", self.signature_pruned)
            .field("morsels", self.morsels)
            .field("max_qerror", self.max_qerror)
            .end_object();
    }
}

impl ToJson for ComponentExplain {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("branch", self.branch)
            .field("component", self.component)
            .field("graph", self.graph)
            .field("vertices", self.vertices)
            .field("edges", self.edges)
            .field_some("note", self.note)
            .field_some("start", self.start.as_ref())
            .field_some("region_candidates", self.region_candidates)
            .field("steps", &self.steps)
            .end_object();
    }
}

impl ToJson for StartExplain {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("query_vertex", self.query_vertex)
            .field("variable", self.variable.as_deref())
            .field("candidates", self.candidates)
            .end_object();
    }
}

impl ToJson for StepExplain {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("position", self.position)
            .field("query_vertex", self.query_vertex)
            .field("variable", self.variable.as_deref())
            .field("estimate", self.estimate)
            .field("label_lookup_elided", self.label_lookup_elided)
            .field("signature_bits", self.signature_bits)
            .field_some("rows", self.rows)
            .field_some("qerror", self.qerror)
            .end_object();
    }
}

impl ToJson for ShardExplain {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object()
            .field("shard", self.shard)
            .field("triples", self.triples)
            .field("verdict", self.verdict)
            .field_some(
                "components",
                Some(&self.components).filter(|c| !c.is_empty()),
            )
            .field_some("rows", self.rows)
            .end_object();
    }
}

/// The static plan tree of one transformed component: what the engine's
/// prologue decides for a run of it with `input` — guards, start vertex,
/// the candidate regions the order is determined on, matching order — short of
/// enumeration.
fn explain_component(
    store: &Store,
    graph: &TransformedGraph,
    config: &TurboHomConfig,
    comp: &ComponentPlan,
    input: &RunInput<'_>,
    branch: usize,
    index: usize,
) -> ComponentExplain {
    let tq = &comp.transformed;
    let mut ce = ComponentExplain {
        branch,
        component: index,
        graph: match graph.kind {
            TransformKind::Direct => "direct",
            TransformKind::TypeAware => "type-aware",
        },
        vertices: tq.graph.vertex_count(),
        edges: tq.graph.edge_count(),
        note: None,
        start: None,
        region_candidates: None,
        steps: Vec::new(),
    };
    let engine = TurboHomEngine::new(graph, store.dictionary(), *config);
    let prologue = engine.explain(tq, input);
    ce.note = match &prologue {
        Ok(Some(_)) => None,
        Ok(None) => Some("unsatisfiable: a query constant does not occur in the data"),
        Err(EngineError::DisconnectedQuery) => Some("disconnected query graph"),
        Err(EngineError::NoRequiredPart) => Some("no required part (every vertex is OPTIONAL)"),
    };
    let Ok(Some(start)) = prologue else {
        return ce;
    };
    let selection = &start.selection;
    ce.start = Some(StartExplain {
        query_vertex: selection.query_vertex,
        variable: tq.graph.vertex(selection.query_vertex).variable.clone(),
        candidates: selection.start_vertices.len(),
    });
    let (Some(explorer), Some(sample)) = (&start.explorer, &start.sample) else {
        ce.note = Some(if selection.start_vertices.is_empty() {
            "start vertex has no candidate data vertices"
        } else {
            "every candidate region is empty"
        });
        return ce;
    };
    ce.region_candidates = Some(sample.mean(sample.counts.iter().sum()));
    ce.steps = (sample.order.order)
        .iter()
        .enumerate()
        .map(|(position, &u)| StepExplain {
            position,
            query_vertex: u,
            variable: tq.graph.vertex(u).variable.clone(),
            estimate: sample.mean(sample.counts[u]) as u64,
            label_lookup_elided: explorer.lookup_labels(u).len() < tq.graph.vertex(u).labels.len(),
            signature_bits: explorer.signature_need(u).count_ones(),
            rows: None,
            qerror: None,
        })
        .collect();
    ce
}

impl Store {
    /// Explains a prepared plan **without executing it**: the structured
    /// plan tree the plan's engine runs (see the module docs for what it
    /// holds).
    pub fn explain(&self, plan: &QueryPlan) -> ExplainReport {
        let flavor = plan.routing.as_ref().map_or("single", |_| "sharded");
        let mut report = ExplainReport::new(plan.kind(), flavor, plan.window);
        // A graph plan's branch of one component hands its FILTERs and the
        // LIMIT to a run, and is explained on the input that run is given
        // (`component_input`). The join baselines and a product of
        // components cut them from what was found; a branch of several hands
        // them on only when each constant side is one row, which a plan
        // cannot know, so it is explained without them.
        let mut pushed = false;
        if let PlanMode::Graph { config, branches } = &plan.mode {
            let graph = self.graph_of(plan.kind());
            for (b, branch) in branches.iter().enumerate() {
                let (filters, limit) = match branch.components.as_slice() {
                    [_] => (&branch.filters[..], plan.pushed_limit()),
                    _ => (&[][..], None),
                };
                for (c, comp) in branch.components.iter().enumerate() {
                    let (input, _) = component_input(comp, filters, &[], limit, NonZeroUsize::MIN);
                    pushed |= input.limit.is_some();
                    let component = explain_component(self, graph, config, comp, &input, b, c);
                    report.components.push(component);
                }
            }
        }
        // A routed plan hands no LIMIT to a run (its rows are counted per
        // shard before the cut), so no component was capped.
        report.limit_pushdown &= pushed;
        if let Some(routing) = &plan.routing {
            report.anchor = Some(match &routing.anchor {
                Anchor::Variable(v) => format!("?{v}"),
                Anchor::Constant(t) => t.to_string(),
            });
            let components = std::mem::take(&mut report.components);
            report.shards = (0..routing.shards())
                .map(|shard| {
                    let live = routing.live.contains(&shard);
                    ShardExplain {
                        shard,
                        triples: self.triple_count(),
                        verdict: if live { "live" } else { "routed-away" },
                        components: if live { components.clone() } else { Vec::new() },
                        rows: None,
                    }
                })
                .collect();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::sharded::{AnyStore, ShardedOptions, ShardedStore};
    use crate::store::StoreOptions;
    use std::sync::Arc;
    use turbohom_rdf::{vocab, Dataset};
    use turbohom_trace::Trace;

    fn ub(l: &str) -> String {
        format!("http://ub.org/{l}")
    }

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

    fn sample_store() -> Store {
        Store::from_dataset_with(sample_dataset(), StoreOptions { inference: true })
    }

    const Q: &str = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                       PREFIX ub: <http://ub.org/>
                       SELECT ?x ?d WHERE { ?x rdf:type ub:Student . ?x ub:memberOf ?d . }"#;

    /// EXPLAIN of a freshly prepared plan.
    fn explain(store: &Store, sparql: &str, kind: EngineKind) -> ExplainReport {
        store.explain(&store.prepare_plan(sparql, kind).unwrap())
    }

    /// EXPLAIN of a freshly prepared routed plan.
    fn sharded_explain(store: &ShardedStore, sparql: &str, kind: EngineKind) -> ExplainReport {
        store
            .shard(0)
            .explain(&store.prepare_plan(sparql, kind).unwrap())
    }

    /// ANALYZE as the server composes it: the EXPLAIN report of a prepared
    /// TurboHOM++ plan with the actuals of one run of that plan attached.
    fn explain_and_run<'s>(store: &'s AnyStore, sparql: &str) -> (IdResults<'s>, ExplainReport) {
        let trace = Trace::disabled();
        let kind = EngineKind::TurboHomPlusPlus;
        let plan = store.prepare_plan_traced(sparql, kind, &trace).unwrap();
        let mut report = store.store().explain(&plan);
        let results = store
            .store()
            .run_plan_traced(&plan, NonZeroUsize::MIN, &trace)
            .unwrap();
        report.attach_actuals(&results);
        (results, report)
    }

    #[test]
    fn explain_builds_a_static_plan_without_executing() {
        let store = sample_store();
        let report = explain(&store, Q, EngineKind::TurboHomPlusPlus);
        assert!(!report.analyzed);
        assert_eq!(report.store_flavor, "single");
        assert_eq!(report.plan_type, "graph");
        assert_eq!(report.components.len(), 1);
        let c = &report.components[0];
        assert_eq!(c.graph, "type-aware");
        // The type-aware transform folds the rdf:type pattern into ?x's
        // label set: 2 vertices, 1 edge.
        assert_eq!(c.vertices, 2);
        assert_eq!(c.edges, 1);
        assert!(c.note.is_none());
        let start = c.start.as_ref().unwrap();
        assert!(start.candidates > 0);
        // One step per query vertex, position 0 is the start vertex, every
        // step carries an estimate and no actuals.
        assert_eq!(c.steps.len(), 2);
        assert_eq!(c.steps[0].query_vertex, start.query_vertex);
        assert!(c.steps.iter().all(|s| s.estimate > 0));
        assert!(c
            .steps
            .iter()
            .all(|s| s.rows.is_none() && s.qerror.is_none()));
        assert!(report.actual.is_none());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"turbohom-explain/1\""));
        assert!(json.contains("\"mode\":\"explain\""));
        assert!(!json.contains("\"actual\""));
    }

    #[test]
    fn explain_notes_unsatisfiable_and_join_plans() {
        let store = sample_store();
        let gone = r#"PREFIX ub: <http://ub.org/>
                      SELECT ?x WHERE { ?x ub:nonexistent ?y . }"#;
        let report = explain(&store, gone, EngineKind::TurboHomPlusPlus);
        assert_eq!(report.components.len(), 1);
        assert!(report.components[0].note.unwrap().contains("unsatisfiable"));
        assert!(report.components[0].steps.is_empty());
        // Join baselines have no graph plan to explain.
        let join = explain(&store, Q, EngineKind::MergeJoin);
        assert_eq!(join.plan_type, "join");
        assert!(join.components.is_empty());
    }

    #[test]
    fn explain_carries_a_guard_note_exactly_when_execution_stops_at_that_guard() {
        let store = sample_store();
        let kind = EngineKind::TurboHomPlusPlus;
        // (query, the note EXPLAIN gives, what executing it does)
        let cases = [
            (Q.to_string(), None, Ok(10)),
            (
                "SELECT ?x WHERE { ?x <http://ub.org/nonexistent> ?y . }".to_string(),
                Some("unsatisfiable: a query constant does not occur in the data"),
                Ok(0),
            ),
            (
                "SELECT ?x WHERE { OPTIONAL { ?x <http://ub.org/memberOf> ?y . } }".to_string(),
                Some("no required part (every vertex is OPTIONAL)"),
                Err(EngineError::NoRequiredPart),
            ),
            // An OPTIONAL clause that meets no required vertex stays with
            // the (first) component, whose graph it disconnects.
            (
                "SELECT ?x WHERE { ?x <http://ub.org/memberOf> ?d . \
                   OPTIONAL { ?a <http://ub.org/memberOf> ?b . } }"
                    .to_string(),
                Some("disconnected query graph"),
                Err(EngineError::DisconnectedQuery),
            ),
        ];
        for (sparql, note, outcome) in cases {
            let report = explain(&store, &sparql, kind);
            assert_eq!(report.components[0].note, note, "{sparql}");
            let executed = store.execute(&sparql, kind).map(|r| r.len());
            match outcome {
                Ok(rows) => assert_eq!(executed.unwrap(), rows, "{sparql}"),
                Err(refusal) => {
                    let error = executed.unwrap_err().to_string();
                    assert!(error.contains(&refusal.to_string()), "{sparql}: {error}");
                }
            }
        }
    }

    #[test]
    fn explain_reports_limit_pushdown_status() {
        let store = sample_store();
        let limited = format!("{Q} LIMIT 3");
        let report = explain(&store, &limited, EngineKind::TurboHomPlusPlus);
        assert_eq!(report.limit, Some(3));
        assert!(report.limit_pushdown);
        let offset = format!("{Q} LIMIT 3 OFFSET 1");
        let report = explain(&store, &offset, EngineKind::TurboHomPlusPlus);
        assert_eq!(report.limit, Some(3));
        assert!(!report.limit_pushdown);
        // Where the LIMIT is cut from what was found, no enumerator gets it:
        // the join baselines, a cartesian product of two components, and
        // routed plans, whose run counts each shard's rows before the cut.
        for kind in [EngineKind::MergeJoin, EngineKind::HashJoin] {
            let report = explain(&store, &limited, kind);
            assert_eq!(
                (report.limit, report.limit_pushdown),
                (Some(3), false),
                "{kind}"
            );
        }
        let product = r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
                         PREFIX ub: <http://ub.org/>
                         SELECT ?x ?u WHERE { ?x rdf:type ub:Student . ?u rdf:type ub:University . }
                         LIMIT 2"#;
        let report = explain(&store, product, EngineKind::TurboHomPlusPlus);
        assert_eq!(report.components.len(), 2);
        assert_eq!((report.limit, report.limit_pushdown), (Some(2), false));
        // A FILTER evaluated while matching leaves the cap on; a filter over
        // two variables waits for complete solutions, so the run finds them
        // all before it cuts the LIMIT. A regular expression over one
        // variable is evaluated while matching, where Section 5.1 waits.
        for (filter, pushed) in [
            (r#"(str(?d) != "none")"#, true),
            (r#"regex(str(?d), "dept0")"#, true),
            ("(?x != ?d)", false),
        ] {
            let sparql = format!("{} FILTER {filter} }} LIMIT 1", Q.trim_end_matches('}'));
            let report = explain(&store, &sparql, EngineKind::TurboHomPlusPlus);
            assert_eq!(report.limit_pushdown, pushed, "{filter}");
            assert_eq!(
                store
                    .execute(&sparql, EngineKind::TurboHomPlusPlus)
                    .unwrap()
                    .len(),
                1
            );
        }
        let constant = r#"PREFIX ub: <http://ub.org/>
                          SELECT ?x WHERE { ?x ub:memberOf <http://ub.org/dept0> . } LIMIT 1"#;
        for shards in [2, 4] {
            let options = ShardedOptions {
                shards,
                inference: true,
            };
            let sharded = ShardedStore::from_dataset_with(sample_dataset(), options).unwrap();
            for (sparql, anchor) in [
                (limited.as_str(), "?x"),
                (constant, "<http://ub.org/dept0>"),
            ] {
                let report = sharded_explain(&sharded, sparql, EngineKind::TurboHomPlusPlus);
                assert_eq!(report.anchor.as_deref(), Some(anchor));
                assert!(
                    report.limit.is_some() && !report.limit_pushdown,
                    "k={shards} {sparql}"
                );
            }
        }
    }

    /// `max_qerror` is the worst of the steps the report carries rows for:
    /// on LUBM Q2 (one component) that is every step the run counted, on
    /// BSBM Q5 (two components with matching orders) none.
    #[test]
    fn max_qerror_covers_the_attached_steps_alone() {
        use turbohom_datasets::{bsbm, lubm};
        let query = |queries: Vec<turbohom_datasets::BenchmarkQuery>, id: &str| {
            queries.into_iter().find(|q| q.id == id).unwrap().sparql
        };
        let lubm_store =
            Store::from_dataset(lubm::LubmGenerator::new(lubm::LubmConfig::scale(1)).generate());
        let store = AnyStore::Single(Arc::new(lubm_store));
        let (results, report) = explain_and_run(&store, &query(lubm::queries(), "Q2"));
        let run_max = std::iter::zip(&results.step_estimates, &results.step_rows)
            .map(|(&e, &a)| qerror(e, a))
            .reduce(f64::max);
        assert!(run_max.is_some());
        assert_eq!(report.max_qerror(), run_max);

        let bsbm_store =
            Store::from_dataset(bsbm::BsbmGenerator::new(bsbm::BsbmConfig::scale(1)).generate());
        let store = AnyStore::Single(Arc::new(bsbm_store));
        let (results, report) = explain_and_run(&store, &query(bsbm::queries(), "Q5"));
        assert!(!results.step_rows.is_empty());
        let steps = report.components.iter().flat_map(|c| &c.steps);
        assert!(steps.clone().count() > 0 && steps.clone().all(|s| s.rows.is_none()));
        assert_eq!(report.max_qerror(), None);
        assert!(report.step_qerrors().is_empty());
    }

    #[test]
    fn attach_actuals_adds_per_step_actuals_and_qerror() {
        let store = AnyStore::Single(Arc::new(sample_store()));
        let (results, report) = explain_and_run(&store, Q);
        assert_eq!(results.len(), 10);
        assert!(report.analyzed);
        let c = &report.components[0];
        assert!(c.steps.iter().all(|s| s.rows.is_some()));
        assert!(c.steps.iter().all(|s| s.qerror.unwrap() >= 1.0));
        // The final step's actual equals the solution count for this query.
        assert_eq!(c.steps.last().unwrap().rows, Some(10));
        let actual = report.actual.as_ref().unwrap();
        assert_eq!(actual.solutions, 10);
        assert!(actual.max_qerror.unwrap() >= 1.0);
        assert_eq!(report.step_qerrors().len(), c.steps.len());
        let json = report.to_json();
        assert!(json.contains("\"mode\":\"analyze\""));
        assert!(json.contains("\"qerror\":"));
        assert!(json.contains("\"actual\":{"));
    }

    #[test]
    fn sharded_explain_gives_each_shard_its_route() {
        let sharded = ShardedStore::from_dataset_with(
            sample_dataset(),
            ShardedOptions {
                shards: 4,
                inference: true,
            },
        )
        .unwrap();
        // Constant anchor: exactly one shard owns dept0, the rest are
        // routed away.
        let routed = r#"PREFIX ub: <http://ub.org/>
                        SELECT ?x WHERE { ?x ub:memberOf <http://ub.org/dept0> . }"#;
        let report = sharded_explain(&sharded, routed, EngineKind::TurboHomPlusPlus);
        assert_eq!(report.store_flavor, "sharded");
        assert_eq!(report.shards.len(), 4);
        let verdicts = |report: &ExplainReport, verdict| {
            report
                .shards
                .iter()
                .filter(|s| s.verdict == verdict)
                .count()
        };
        assert_eq!(verdicts(&report, "routed-away"), 3);
        let live: Vec<_> = report
            .shards
            .iter()
            .filter(|s| s.verdict == "live")
            .collect();
        assert_eq!(live.len(), 1);
        assert!(!live[0].components.is_empty());
        assert_eq!(report.anchor.as_deref(), Some("<http://ub.org/dept0>"));
        let json = report.to_json();
        assert!(json.contains("\"anchor\":\"<http://ub.org/dept0>\""));
        assert!(json.contains("\"verdict\":\"routed-away\"}"));

        // An absent predicate: every shard is live, and each shard's own
        // plan notes the constant missing from the dictionary.
        let gone = r#"PREFIX ub: <http://ub.org/>
                      SELECT ?x WHERE { ?x ub:nonexistent ?y . }"#;
        let report = sharded_explain(&sharded, gone, EngineKind::TurboHomPlusPlus);
        assert_eq!(verdicts(&report, "live"), 4);
        for s in &report.shards {
            assert_eq!(s.components.len(), 1, "shard {}", s.shard);
            let note = s.components[0].note.unwrap_or_default();
            assert!(note.contains("unsatisfiable"), "shard {}", s.shard);
        }
    }

    #[test]
    fn sharded_analyze_reports_per_shard_rows() {
        for shards in [3, 8] {
            let sharded = AnyStore::Sharded(Arc::new(
                ShardedStore::from_dataset_with(
                    sample_dataset(),
                    ShardedOptions {
                        shards,
                        inference: true,
                    },
                )
                .unwrap(),
            ));
            let (results, report) = explain_and_run(&sharded, Q);
            assert_eq!(results.len(), 10);
            // Every live shard got a row count; their sum is the result size
            // (the ownership filter makes the shard rows a partition).
            let live: Vec<_> = report
                .shards
                .iter()
                .filter(|s| s.verdict == "live")
                .collect();
            assert!(!live.is_empty());
            let total: u64 = live.iter().map(|s| s.rows.unwrap()).sum();
            assert_eq!(total as usize, results.row_count(), "k={shards}");
            // Each live shard's copy of the one component carries the one
            // run's per-step rows: the single store's, each step once in the
            // q-errors.
            let (_, single) = explain_and_run(&AnyStore::Single(Arc::new(sample_store())), Q);
            let steps = |c: &ComponentExplain| c.steps.iter().map(|s| s.rows).collect::<Vec<_>>();
            let expected = steps(&single.components[0]);
            assert!(expected.iter().all(Option::is_some));
            for shard in &live {
                assert_eq!(steps(&shard.components[0]), expected, "k={shards}");
            }
            assert_eq!(report.step_qerrors(), single.step_qerrors(), "k={shards}");
            let skipped = report.shards.iter().filter(|s| s.verdict != "live");
            assert!(skipped.into_iter().all(|s| s.rows.is_none()));
            // Shard rows are what the shard contributed, not what a LIMIT
            // left of it.
            let limited = format!("{Q} LIMIT 1");
            let (results, cut) = explain_and_run(&sharded, &limited);
            assert_eq!((results.len(), results.row_count()), (1, 1));
            for (whole, cut) in report.shards.iter().zip(&cut.shards) {
                assert_eq!(whole.rows, cut.rows);
            }
        }
    }

    #[test]
    fn any_store_dispatches_explain_and_analyze() {
        let single = AnyStore::Single(Arc::new(sample_store()));
        let sharded = AnyStore::Sharded(Arc::new(
            ShardedStore::from_dataset_with(
                sample_dataset(),
                ShardedOptions {
                    shards: 2,
                    inference: true,
                },
            )
            .unwrap(),
        ));
        assert_eq!(single.flavor_name(), "single");
        assert_eq!(sharded.flavor_name(), "sharded");
        for store in [&single, &sharded] {
            let plan = store
                .prepare_plan_traced(Q, EngineKind::TurboHomPlusPlus, &Trace::disabled())
                .unwrap();
            let report = store.store().explain(&plan);
            assert_eq!(report.store_flavor, store.flavor_name());
            let (results, report) = explain_and_run(store, Q);
            assert_eq!(results.len(), 10);
            assert!(report.analyzed);
        }
    }

    #[test]
    fn qerror_is_symmetric_and_zero_guarded() {
        assert_eq!(qerror(10, 10), 1.0);
        assert_eq!(qerror(100, 10), 10.0);
        assert_eq!(qerror(10, 100), 10.0);
        assert_eq!(qerror(0, 0), 1.0);
        assert_eq!(qerror(0, 5), 5.0);
        assert_eq!(qerror(5, 0), 5.0);
    }

    #[test]
    fn distinct_is_refused_at_every_entry_point_and_reduced_is_answered() {
        let distinct = Q.replace("SELECT ?x ?d", "SELECT DISTINCT ?x ?d");
        let reduced = Q.replace("SELECT ?x ?d", "SELECT REDUCED ?x ?d");
        let parsed = turbohom_sparql::parse_query(&distinct).unwrap();
        let store = sample_store();
        let sharded = ShardedStore::from_dataset_with(
            sample_dataset(),
            ShardedOptions {
                shards: 3,
                inference: true,
            },
        )
        .unwrap();
        let refused = |outcome: Result<(), StoreError>, entry: &str| {
            assert_eq!(outcome, Err(StoreError::DistinctUnsupported), "{entry}");
        };
        let trace = Trace::disabled();
        for kind in EngineKind::all() {
            let q = distinct.as_str();
            refused(store.plan_query(&parsed, kind).map(drop), "plan_query");
            let prepared = store.prepare(q).unwrap();
            refused(prepared.plan(kind).map(drop), "PreparedQuery::plan");
            refused(store.prepare_plan(q, kind).map(drop), "prepare_plan");
            refused(store.execute(q, kind).map(drop), "execute");
            let plan = sharded.prepare_plan_traced(q, kind, &trace);
            refused(plan.map(drop), "sharded prepare_plan_traced");
            refused(sharded.execute(q, kind).map(drop), "sharded execute");
            // REDUCED permits duplicates: the plain answer is a right one.
            let plain = store.execute(Q, kind).unwrap();
            assert_eq!(store.execute(&reduced, kind).unwrap().rows, plain.rows);
            assert_eq!(sharded.execute(&reduced, kind).unwrap().len(), 10);
        }
        let config = TurboHomConfig::default();
        for force_direct in [false, true] {
            let outcome = store.execute_turbohom(&distinct, config, force_direct);
            refused(outcome.map(drop), "execute_turbohom");
        }
        let message = StoreError::DistinctUnsupported.to_string();
        assert!(message.contains("DISTINCT"), "{message}");
    }

    #[test]
    fn hostile_anchor_is_escaped() {
        let hostile = "\"a\\\"b\"\n\u{1}é } ]";
        let window = Window {
            offset: 0,
            limit: Some(3),
        };
        let mut report = ExplainReport::new(EngineKind::TurboHom, "sharded", window);
        report.anchor = Some(hostile.to_string());
        report.shards.push(ShardExplain {
            shard: 1,
            triples: 9,
            verdict: "routed-away",
            components: Vec::new(),
            rows: None,
        });
        let escaped = r#""\"a\\\"b\"\n\u0001é } ]""#;
        assert_eq!(
            report.to_json(),
            format!(
                "{{\"schema\":\"turbohom-explain/1\",\"mode\":\"explain\",\"engine\":\"turbohom\",\
                 \"store\":\"sharded\",\"plan\":\"graph\",\"limit\":3,\"limit_pushdown\":true,\
                 \"anchor\":{escaped},\"components\":[],\"shards\":[{{\"shard\":1,\"triples\":9,\
                 \"verdict\":\"routed-away\"}}]}}"
            )
        );
    }
}
