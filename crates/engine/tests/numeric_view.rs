//! A term's numeric view is today's rule, bit for bit: the dictionary stores
//! `lexical.trim().parse::<f64>().ok()` for a literal, whatever its datatype
//! or language tag, and nothing for an IRI or a blank node; a snapshot reads
//! the same views back; and an inline FILTER over a vertex, which reads the
//! stored view, keeps exactly the vertices the evaluator keeps over the
//! decoded term and the view parsed from its text.

use proptest::prelude::*;
use turbohom_engine::{EngineKind, Store};
use turbohom_rdf::vocab::{XSD_DOUBLE, XSD_INTEGER, XSD_STRING};
use turbohom_rdf::{Dataset, Term, TermRef};

const P: &str = "http://ex.org/p";

/// Today's rule, written out: what `Value::as_number` parsed per comparison.
fn parsed(term: &Term) -> Option<f64> {
    match term {
        Term::Literal { lexical, .. } => lexical.trim().parse::<f64>().ok(),
        Term::Iri(_) | Term::BlankNode(_) => None,
    }
}

/// Forms that spell no number the usual way, or a special one.
const SPECIAL: [&str; 10] = [
    "NaN", "nan", "inf", "-INF", "infinity", "-0", "", "abc", "1 2", "0x10",
];

/// Lexical forms that do and do not read as numbers: integers (16 digits
/// and more among them), decimals, exponents, signs, NaN and infinities,
/// surrounding whitespace, the empty string and words.
fn lexical() -> impl Strategy<Value = String> {
    let digits = ("[0-9]{1,20}", "[0-9]{0,3}", "[0-9]{1,3}");
    let space = ("[ \t\n]{0,2}", "[ \t\n]{0,2}");
    (0usize..3 + SPECIAL.len(), 0usize..3, digits, space).prop_map(
        |(shape, sign, (long, short, exponent), (lead, tail))| {
            let sign = ["", "+", "-"][sign];
            let number = match shape {
                0 => format!("{sign}{long}"),
                1 => format!("{sign}{short}.{exponent}"),
                2 => format!("{sign}{}.{short}e{sign}{exponent}", &long[..1]),
                _ => SPECIAL[shape - 3].to_string(),
            };
            format!("{lead}{number}{tail}")
        },
    )
}

/// The form as one of seven kinds of term.
fn term(kind: usize, lexical: String) -> Term {
    match kind {
        0 => Term::literal(lexical),
        1 => Term::typed_literal(lexical, XSD_INTEGER),
        2 => Term::typed_literal(lexical, XSD_DOUBLE),
        3 => Term::typed_literal(lexical, XSD_STRING),
        4 => Term::lang_literal(lexical, "en"),
        5 => Term::iri(lexical),
        _ => Term::blank(lexical),
    }
}

/// FILTERs over the one variable `?o`, numeric and string comparisons,
/// arithmetic and an effective boolean value among them.
const FILTERS: [&str; 10] = [
    "?o < 12",
    "?o >= -0.5",
    "?o = 0",
    "?o != \" 7 \"",
    "?o > \"1e3\"",
    "?o <= \"abc\"",
    "?o * 2 > 5",
    "!(?o = ?o)",
    "?o",
    "?o = \"NaN\"",
];

/// The subjects `store` answers `FILTER(filter)` over `?o` with, sorted;
/// asserts the FILTER ran inline.
fn answered(store: &Store, filter: &str) -> Vec<String> {
    let sparql = format!("SELECT ?s WHERE {{ ?s <{P}> ?o . FILTER({filter}) }}");
    let results = store
        .execute(&sparql, EngineKind::TurboHomPlusPlus)
        .unwrap();
    assert_eq!(results.stats.filtered_post, 0, "inline: {filter}");
    let mut subjects: Vec<String> = (results.column("s").into_iter())
        .map(|s| s.as_iri().unwrap().to_owned())
        .collect();
    subjects.sort();
    subjects
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_stored_view_is_the_parsed_one_and_filters_decide_by_it(
        specs in proptest::collection::vec((0usize..7, lexical()), 1..24),
    ) {
        let terms: Vec<Term> = specs.into_iter().map(|(kind, l)| term(kind, l)).collect();
        let subject = |i: usize| format!("http://ex.org/s{i}");
        let mut dataset = Dataset::new();
        for (i, o) in terms.iter().enumerate() {
            dataset.insert(&Term::iri(subject(i)), &Term::iri(P), o);
        }
        let store = Store::from_dataset(dataset);
        let path = std::env::temp_dir()
            .join(format!("turbohom-numeric-view-{}.snap", std::process::id()));
        store.save_snapshot(&path).unwrap();
        let mapped = Store::from_snapshot(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        for flat in [&store, &mapped] {
            let dictionary = &flat.dataset().dictionary;
            for o in &terms {
                let id = dictionary.id_of(o).unwrap();
                let (decoded, view) = dictionary.term_and_view(id).unwrap();
                prop_assert_eq!(decoded, TermRef::from(o));
                prop_assert_eq!(view.map(f64::to_bits), parsed(o).map(f64::to_bits), "{}", o);
            }
        }
        for filter in FILTERS {
            let parsed_filter = turbohom_sparql::parse_query(&format!(
                "SELECT ?o WHERE {{ ?s <{P}> ?o . FILTER({filter}) }}"
            ))
            .unwrap();
            let expression = &parsed_filter.pattern.filters[0];
            let dictionary = &store.dataset().dictionary;
            let mut expected: Vec<String> = (0..terms.len())
                .filter(|&i| {
                    let decoded = dictionary.term(dictionary.id_of(&terms[i]).unwrap()).unwrap();
                    let view = parsed(&decoded);
                    expression.evaluate_bool(&|name| {
                        (name == "o").then_some((TermRef::from(&decoded), view))
                    })
                })
                .map(subject)
                .collect();
            expected.sort();
            prop_assert_eq!(answered(&store, filter), expected.clone(), "FILTER({})", filter);
            prop_assert_eq!(answered(&mapped, filter), expected, "mapped: FILTER({})", filter);
        }
    }
}
