//! Branches whose query graph falls apart into connected components, on all
//! four engines over a heap and a snapshot store. The transform decides the
//! components from the graph the matcher walks: a type-aware class label
//! joins nothing, a direct-graph class vertex does. What a cartesian product
//! of components cannot join on, an OPTIONAL clause in two of them, the
//! graph engines refuse; the join baselines answer every case. Every
//! expected row is written out by hand.

use std::sync::OnceLock;
use turbohom::engine::{EngineKind, Store, StoreError};
use turbohom::rdf::Term;
use turbohom::transform::TransformError;

const DATA: &str = r#"
<http://ex.org/s1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C> .
<http://ex.org/s2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C> .
<http://ex.org/s3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/D> .
<http://ex.org/s1> <http://ex.org/memberOf> <http://ex.org/d1> .
<http://ex.org/s2> <http://ex.org/memberOf> <http://ex.org/d1> .
<http://ex.org/s3> <http://ex.org/memberOf> <http://ex.org/d1> .
<http://ex.org/s1> <http://ex.org/p2> <http://ex.org/s3> .
<http://ex.org/s2> <http://ex.org/p2> <http://ex.org/s4> .
"#;

/// The heap store of [`DATA`] and the store mapped from its snapshot.
fn stores() -> &'static [(&'static str, Store); 2] {
    static STORES: OnceLock<[(&'static str, Store); 2]> = OnceLock::new();
    STORES.get_or_init(|| {
        let heap = Store::from_ntriples(DATA).unwrap();
        let path = std::env::temp_dir().join(format!(
            "turbohom-disconnected-branches-{}.snap",
            std::process::id()
        ));
        heap.save_snapshot(&path).unwrap();
        let mapped = Store::from_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        [("heap", heap), ("snapshot", mapped)]
    })
}

/// The local name of a bound IRI cell, `-` for an unbound one.
fn local_name(cell: &Option<Term>) -> &str {
    match cell.as_ref().and_then(Term::as_iri) {
        Some(iri) => iri.rsplit(['/', '#']).next().unwrap_or(iri),
        None => "-",
    }
}

/// What the graph engines (TurboHOM++ and TurboHOM) answer.
#[derive(Clone, Copy)]
enum Graph {
    /// The baselines' rows.
    Rows,
    /// The transform's refusal of an OPTIONAL clause over two components.
    Refused,
}

/// Runs `body` under the `ex:` prefix on every engine and store: the join
/// baselines answer `rows` (each the local names of its cells, `-` for
/// unbound, in any order), the graph engines as `graph` says.
fn check(select: &str, body: &str, rows: &[&str], graph: Graph) {
    let sparql = format!("PREFIX ex: <http://ex.org/> SELECT {select} WHERE {{ {body} }}");
    let mut expected: Vec<&str> = rows.to_vec();
    expected.sort_unstable();
    for (flavour, store) in stores() {
        for kind in EngineKind::all() {
            let answered = store.execute(&sparql, kind);
            let what = format!("{kind} on {flavour}: {sparql}");
            let graph_engine = matches!(kind, EngineKind::TurboHomPlusPlus | EngineKind::TurboHom);
            if let (true, Graph::Refused) = (graph_engine, graph) {
                let refusal = StoreError::Transform(TransformError::SpansComponents);
                assert_eq!(answered.err(), Some(refusal), "{what}");
                continue;
            }
            let results = answered.unwrap_or_else(|e| panic!("{what}: {e}"));
            let mut got: Vec<String> = (results.rows.iter())
                .map(|row| row.iter().map(local_name).collect::<Vec<_>>().join(" "))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected, "{what}");
        }
    }
}

/// Two vertices of one class: a folded label joins nothing on the
/// type-aware graph, so TurboHOM++ matches two components and takes their
/// product; on the direct graph the class vertex makes them one.
#[test]
fn a_shared_class_is_a_product_on_the_type_aware_graph() {
    let body = "?x a ex:C . ?y a ex:C .";
    let rows = ["s1 s1", "s1 s2", "s2 s1", "s2 s2"];
    check("?x ?y", body, &rows, Graph::Rows);
    let filtered = format!("{body} FILTER (?x != ?y)");
    check("?x ?y", &filtered, &["s1 s2", "s2 s1"], Graph::Rows);
}

/// An OPTIONAL clause that reads a variable of each component: the product
/// cannot join on it, so the graph engines refuse it.
#[test]
fn an_optional_clause_over_two_components_is_refused() {
    let body = "?x ex:memberOf ex:d1 . ?y a ex:D . OPTIONAL { ?x ex:p2 ?y }";
    let rows = ["s1 s3", "s2 s3", "s3 s3"];
    check("?x ?y", body, &rows, Graph::Refused);
}

/// A constant joins nothing: an OPTIONAL clause that shares one with
/// another component goes with its variables' component, which matches the
/// constant on its own.
#[test]
fn an_optional_clause_sharing_only_a_constant_is_answered() {
    let body = "?x ex:memberOf ex:d1 . ?y a ex:D . OPTIONAL { ?y ex:memberOf ex:d1 }";
    check("?x ?y", body, &["s1 s3", "s2 s3", "s3 s3"], Graph::Rows);
    let body = "?x ex:memberOf ex:d1 . ?y a ex:C . \
                OPTIONAL { ?y ex:p2 ?z . ?z ex:memberOf ex:d1 }";
    let rows = [
        "s1 s1 s3", "s1 s2 -", "s2 s1 s3", "s2 s2 -", "s3 s1 s3", "s3 s2 -",
    ];
    check("?x ?y ?z", body, &rows, Graph::Rows);
    // Two OPTIONAL clauses in two components, one constant.
    let body = "?x a ex:C . ?y a ex:D . \
                OPTIONAL { ?x ex:p2 ?z . ?z ex:memberOf ex:d1 } OPTIONAL { ?y ?p ex:d1 }";
    let rows = ["s1 s3 s3 memberOf", "s2 - s3 memberOf"];
    check("?x ?z ?y ?p", body, &rows, Graph::Rows);
}

/// A predicate variable that labels an edge in each of two components: the
/// product joins on it.
#[test]
fn a_predicate_variable_over_two_components_is_joined() {
    let body = "ex:s1 ?p ?x . ex:s3 ?p ?y .";
    let rows = ["memberOf d1 d1", "type C D"];
    check("?p ?x ?y", body, &rows, Graph::Rows);
}
