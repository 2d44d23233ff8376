//! `SELECT ?x ?x` names one column: a SPARQL-JSON binding is an object keyed
//! by variable, so a name listed twice is projected once, where it first
//! stands — on every engine, on a sharded store and over the wire.

use std::sync::Arc;
use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_engine::{AnyStore, EngineKind};
use turbohom_service::{serve_connection, QueryService, ServiceConfig};

const PREFIX: &str = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> ";
const PATTERN: &str = "WHERE { ?x a ub:FullProfessor . ?x ub:worksFor ?d . }";

/// `(selection with repeats, the same selection without, the columns both name)`.
const SELECTIONS: [(&str, &str, &[&str]); 2] = [
    ("?x ?x", "?x", &["x"]),
    ("?d ?x ?d ?x ?x", "?d ?x", &["d", "x"]),
];

fn sparql(selection: &str) -> String {
    format!("{PREFIX}SELECT {selection} {PATTERN}")
}

/// The body of the response to one `POST /query` served from a byte slice
/// (an HTTP/1.0 client gets it unframed, up to the close).
fn post(service: &QueryService, sparql: &str) -> String {
    let request = format!(
        "POST /query HTTP/1.0\r\nContent-Type: application/sparql-query\r\n\
         Content-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    let mut wire = Vec::new();
    serve_connection(request.as_bytes(), &mut wire, service, false);
    let wire = String::from_utf8(wire).unwrap();
    let (head, body) = wire.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_owned()
}

#[test]
fn a_variable_selected_twice_is_projected_once_on_every_engine_and_store() {
    let single = lubm_store(1);
    let sharded = sharded_lubm_store(1, 4);
    for (repeated, unique, variables) in SELECTIONS {
        for kind in EngineKind::all() {
            let expected = single.execute(&sparql(unique), kind).unwrap();
            assert!(!expected.is_empty());
            for (store, answer) in [
                ("single", single.execute(&sparql(repeated), kind).unwrap()),
                (
                    "shards-4",
                    sharded.execute(&sparql(repeated), kind).unwrap(),
                ),
            ] {
                assert_eq!(answer.variables, variables, "{kind} {store} {repeated}");
                assert!(
                    answer.rows.iter().all(|row| row.len() == variables.len()),
                    "{kind} {store} {repeated}"
                );
                assert_eq!(
                    canonical_json(answer),
                    canonical_json(expected.clone()),
                    "{kind} {store} {repeated}"
                );
            }
        }
    }
}

#[test]
fn a_variable_selected_twice_is_one_member_of_each_binding_over_the_wire() {
    for store in [
        AnyStore::Single(Arc::new(lubm_store(1))),
        AnyStore::Sharded(Arc::new(sharded_lubm_store(1, 4))),
    ] {
        let service = QueryService::with_any_store(store, ServiceConfig::default());
        for (repeated, unique, variables) in SELECTIONS {
            let body = post(&service, &sparql(repeated));
            let vars: Vec<String> = variables.iter().map(|v| format!("\"{v}\"")).collect();
            let head = format!("{{\"head\":{{\"vars\":[{}]}}", vars.join(","));
            assert!(body.starts_with(&head), "{repeated}: {}", &body[..80]);
            let bindings = body.matches("{\"type\":").count() / variables.len();
            assert!(bindings > 0, "{repeated}");
            for variable in variables {
                let member = format!("\"{variable}\":{{");
                assert_eq!(body.matches(&member).count(), bindings, "{repeated}");
            }
            // One store at one worker thread enumerates in a stable order.
            assert_eq!(body, post(&service, &sparql(unique)), "{repeated}");
        }
    }
}
