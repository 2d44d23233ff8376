//! Quickstart: load a few triples, ask a SPARQL query, print the answers of
//! two engines. Panics unless both find the same one solution.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use turbohom::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny slice of the paper's running example (Figure 3): a graduate
    // student, their department and university.
    let ntriples = r#"
<http://ex.org/student1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/GraduateStudent> .
<http://ex.org/GraduateStudent> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/Student> .
<http://ex.org/univ1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/University> .
<http://ex.org/dept1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Department> .
<http://ex.org/student1> <http://ex.org/undergraduateDegreeFrom> <http://ex.org/univ1> .
<http://ex.org/student1> <http://ex.org/memberOf> <http://ex.org/dept1> .
<http://ex.org/dept1> <http://ex.org/subOrganizationOf> <http://ex.org/univ1> .
<http://ex.org/student1> <http://ex.org/emailAddress> "john@dept1.univ1.edu" .
"#;

    // `inference: true` folds the subClassOf hierarchy into rdf:type triples,
    // so asking for `ex:Student` also finds the graduate student.
    let store = turbohom::engine::Store::from_ntriples_with(
        ntriples,
        turbohom::engine::StoreOptions { inference: true },
    )?;
    println!(
        "loaded {} triples ({} vertices / {} edges after the type-aware transformation)",
        store.triple_count(),
        store.type_aware_graph().graph.stats().vertices,
        store.type_aware_graph().graph.edge_count(),
    );

    // The triangle query of Figure 5a: students, the university they got
    // their degree from, and the department they are a member of.
    let query = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ex: <http://ex.org/>
        SELECT ?student ?univ ?dept WHERE {
            ?student rdf:type ex:Student .
            ?univ rdf:type ex:University .
            ?dept rdf:type ex:Department .
            ?student ex:undergraduateDegreeFrom ?univ .
            ?student ex:memberOf ?dept .
            ?dept ex:subOrganizationOf ?univ .
        }"#;

    // Run the same query with the paper's engine and with the RDF-3X-style
    // baseline; both must agree.
    let mut answers = Vec::new();
    for kind in [EngineKind::TurboHomPlusPlus, EngineKind::MergeJoin] {
        // What only this engine reads (the baseline's permutation tables)
        // is otherwise built by its first plan.
        store.warm(kind);
        let results = store.execute(query, kind)?;
        println!(
            "\n{:<24} {} solution(s) in {:?}",
            kind.label(),
            results.len(),
            results.elapsed
        );
        let mut rows = Vec::new();
        for binding in results.iter_bindings() {
            let row: Vec<String> = results
                .variables
                .iter()
                .map(|v| {
                    format!(
                        "?{v} = {}",
                        binding
                            .get(v.as_str())
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "UNBOUND".into())
                    )
                })
                .collect();
            println!("  {}", row.join("  "));
            rows.push(row);
        }
        rows.sort();
        answers.push(rows);
    }
    // The triangle has one solution, and both engines find the same one.
    assert_eq!(answers[0].len(), 1, "expected one solution");
    assert_eq!(answers[0], answers[1], "the two engines disagree");
    Ok(())
}
