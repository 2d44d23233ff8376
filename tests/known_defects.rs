//! The known-defect ledger: FILTER and OPTIONAL shapes that some engines
//! answer wrongly today, each with its right answer and, per engine pair,
//! today's answer, written by hand. The data is seven triples: s1, s2 and s3
//! are members of d1; s1 has degreeFrom u1 and s2 has degreeFrom u2; s1 has
//! age 20 and s2 has age 30 (plain literals, or `xsd:integer` ones where a
//! case says so).
//!
//! A case whose engines answer wrongly pins that wrong answer, so a change
//! that makes it agree with the right answer fails here: the case then moves
//! to the passing table (or goes), which says what was mended. The shapes
//! the graph engines refuse are pinned the same way.

use turbohom::engine::{EngineKind, Store, StoreError};
use turbohom::rdf::Term;
use turbohom::transform::TransformError;

/// The seven triples, the ages written as `age`.
fn data(age: impl Fn(u32) -> String) -> String {
    let x = |l: &str| format!("<http://x/{l}>");
    let triple = |s: &str, p: &str, o: String| format!("{} {} {o} .\n", x(s), x(p));
    let mut nt = String::new();
    for s in ["s1", "s2", "s3"] {
        nt += &triple(s, "memberOf", x("d1"));
    }
    nt += &triple("s1", "degreeFrom", x("u1"));
    nt += &triple("s2", "degreeFrom", x("u2"));
    nt += &triple("s1", "age", age(20));
    nt += &triple("s2", "age", age(30));
    nt
}

/// How a case's ages are written.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ages {
    Plain,
    Integer,
}

fn store(ages: Ages) -> Store {
    let nt = data(|age| match ages {
        Ages::Plain => format!("\"{age}\""),
        Ages::Integer => format!("\"{age}\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
    });
    Store::from_ntriples(&nt).unwrap()
}

/// What an engine pair answers.
#[derive(Clone, Copy, Debug)]
enum Today {
    /// The case's right answer.
    Right,
    /// These rows instead.
    Wrong(&'static [&'static str]),
    /// A refusal by the transform: an OPTIONAL clause over two components.
    Refused,
}

/// One probe: its text under the `x:` prefix, the ages it runs over, its
/// right answer and what each engine pair answers today. Every row is its
/// bound cells' local names (a literal's lexical form), sorted and joined by
/// `+`; the rows of an answer are in any order.
struct Case {
    row: usize,
    ages: Ages,
    body: &'static str,
    right: &'static [&'static str],
    /// `turbohom++` and `turbohom`.
    graph: Today,
    /// `mergejoin` and `hashjoin`.
    baselines: Today,
}

const fn case(
    row: usize,
    body: &'static str,
    right: &'static [&'static str],
    graph: Today,
    baselines: Today,
) -> Case {
    Case {
        row,
        ages: Ages::Plain,
        body,
        right,
        graph,
        baselines,
    }
}

/// The cases some engine answers wrongly or refuses.
const DEFECTS: &[Case] = &[
    case(
        1,
        "?x x:memberOf x:d1 . OPTIONAL { ?x x:degreeFrom ?u . FILTER (?u = x:u1) }",
        &["s1+u1", "s2", "s3"],
        Today::Wrong(&["s1+u1"]),
        Today::Right,
    ),
    case(
        2,
        "?x x:memberOf x:d1 . OPTIONAL { ?x x:age ?a . FILTER (?x = x:s2) }",
        &["s1", "30+s2", "s3"],
        Today::Wrong(&["30+s2"]),
        Today::Right,
    ),
    case(
        3,
        "?x x:memberOf x:d1 . OPTIONAL { ?x x:age ?a } FILTER (!(?a > 25))",
        &["20+s1"],
        Today::Wrong(&["20+s1", "s3"]),
        Today::Wrong(&["20+s1", "s3"]),
    ),
    case(
        4,
        "?x x:memberOf x:d1 FILTER (!(?x = ?x && 1/0 > 1))",
        &[],
        Today::Wrong(&["s1", "s2", "s3"]),
        Today::Wrong(&["s1", "s2", "s3"]),
    ),
    case(
        6,
        "?x x:age ?a FILTER (?a = 20)",
        &[],
        Today::Wrong(&["20+s1"]),
        Today::Wrong(&["20+s1"]),
    ),
    case(
        7,
        "?x x:memberOf x:d1 . \
         OPTIONAL { ?x x:age ?a . OPTIONAL { ?x x:degreeFrom ?u . FILTER (?a = \"30\") } }",
        &["20+s1", "30+s2+u2", "s3"],
        Today::Wrong(&["30+s2+u2"]),
        Today::Wrong(&["20+s1", "30+s2", "s3"]),
    ),
    Case {
        ages: Ages::Integer,
        ..case(
            7,
            "?x x:memberOf x:d1 . \
             OPTIONAL { ?x x:age ?a . OPTIONAL { ?x x:degreeFrom ?u . FILTER (?a = \"30\") } }",
            &["20+s1", "30+s2", "s3"],
            Today::Wrong(&["30+s2+u2"]),
            Today::Right,
        )
    },
    case(
        8,
        "?x x:memberOf x:d1 FILTER (?x < <http://x/s2>)",
        &[],
        Today::Wrong(&["s1"]),
        Today::Wrong(&["s1"]),
    ),
    // What a product of components cannot join on: an OPTIONAL clause that
    // reads a variable of each.
    case(
        0,
        "?x x:memberOf x:d1 . ?y x:age ?a . OPTIONAL { ?x x:degreeFrom ?y }",
        &[
            "20+s1+s1", "30+s1+s2", "20+s1+s2", "30+s2+s2", "20+s1+s3", "30+s2+s3",
        ],
        Today::Refused,
        Today::Right,
    ),
];

/// The cases every engine answers rightly.
const PASSING: &[Case] = &[
    // An IRI is never equal to a literal.
    case(
        5,
        "?x x:memberOf ?d FILTER (?d = \"http://x/d1\")",
        &[],
        Today::Right,
        Today::Right,
    ),
    // `"20"^^xsd:integer = 20` holds.
    Case {
        ages: Ages::Integer,
        ..case(
            6,
            "?x x:age ?a FILTER (?a = 20)",
            &["20+s1"],
            Today::Right,
            Today::Right,
        )
    },
    // A predicate variable in two components: their product joins on it.
    case(
        0,
        "x:s1 ?p ?o . x:s2 ?p ?q .",
        &["20+30+age", "degreeFrom+u1+u2", "d1+d1+memberOf"],
        Today::Right,
        Today::Right,
    ),
];

/// The local name of an IRI, a literal's lexical form.
fn local_name(term: &Term) -> &str {
    match term.as_iri() {
        Some(iri) => iri.rsplit(['/', '#']).next().unwrap_or(iri),
        None => term.as_literal().unwrap_or("?"),
    }
}

/// Each engine's answer to `case`, as sorted rows (or its error).
fn answers(store: &Store, case: &Case) -> Vec<(EngineKind, Result<Vec<String>, StoreError>)> {
    let sparql = format!("PREFIX x: <http://x/> SELECT * WHERE {{ {} }}", case.body);
    let answer = |kind| {
        let results = store.execute(&sparql, kind)?;
        let mut rows: Vec<String> = (results.rows.iter())
            .map(|row| {
                let mut cells: Vec<&str> = row.iter().flatten().map(local_name).collect();
                cells.sort_unstable();
                cells.join("+")
            })
            .collect();
        rows.sort_unstable();
        Ok(rows)
    };
    EngineKind::all().map(|kind| (kind, answer(kind))).into()
}

/// Checks every engine's answer to each case against what the case says
/// it answers today, printing each.
fn check(cases: &[Case]) {
    let stores = [
        (Ages::Plain, store(Ages::Plain)),
        (Ages::Integer, store(Ages::Integer)),
    ];
    for case in cases {
        let store = &stores
            .iter()
            .find(|(ages, _)| *ages == case.ages)
            .unwrap()
            .1;
        for (kind, got) in answers(store, case) {
            let today = match kind {
                EngineKind::TurboHomPlusPlus | EngineKind::TurboHom => case.graph,
                EngineKind::MergeJoin | EngineKind::HashJoin => case.baselines,
            };
            let what = format!(
                "row {} ({:?} ages), {kind}: {}",
                case.row, case.ages, case.body
            );
            println!("{what}\n  -> {got:?}");
            let rows = |rows: &[&str]| {
                let mut rows: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
                rows.sort_unstable();
                Ok(rows)
            };
            let expected = match today {
                Today::Right => rows(case.right),
                Today::Wrong(wrong) => {
                    assert_ne!(wrong, case.right, "{what}: a wrong answer must differ");
                    rows(wrong)
                }
                Today::Refused => Err(StoreError::Transform(TransformError::SpansComponents)),
            };
            assert_eq!(got, expected, "{what}");
        }
    }
}

#[test]
fn known_defects_answer_as_listed() {
    check(DEFECTS);
}

#[test]
fn the_passing_probes_answer_rightly_on_every_engine() {
    check(PASSING);
}
