//! An expression bound once to the variables known before the match
//! (`Expression::bind`: their terms put in, every subtree that reads no
//! variable folded into its value) evaluates, under the bindings of the
//! others, to what the evaluator that folded nothing gave the whole
//! expression under all of them. That evaluator is kept below as the
//! reference; it reads values through the public `Value` views, which binding
//! does not touch, and takes every term's numeric view from its text
//! (`Value::term`), not from the lookup or the fold.

use proptest::prelude::*;
use turbohom_rdf::vocab::{XSD_BOOLEAN, XSD_DOUBLE, XSD_INTEGER, XSD_STRING};
use turbohom_rdf::{Term, TermRef};
use turbohom_sparql::expression::{ArithOp, CompareOp};
use turbohom_sparql::{Binding, Expression, Folded, Regex, Value};

fn reference<'t, B>(e: &'t Expression, bindings: &B) -> Value<'t>
where
    B: Fn(&str) -> Option<Binding<'t>>,
{
    match e {
        Expression::Variable(v) => bindings(v).map_or(Value::Unbound, |(t, _)| Value::term(t)),
        // A generated expression holds no folded value but a constant.
        Expression::Folded(Folded::Term(t, _)) => Value::term(TermRef::from(t)),
        Expression::Folded(_) => unreachable!("generated expressions are as written"),
        Expression::Bound(v) => Value::Boolean(bindings(v).is_some()),
        Expression::Compare(a, op, b) => {
            let av = reference(a, bindings);
            let bv = reference(b, bindings);
            if matches!(av, Value::Unbound) || matches!(bv, Value::Unbound) {
                return Value::Boolean(false);
            }
            Value::Boolean(compare(&av, *op, &bv))
        }
        Expression::And(a, b) => {
            Value::Boolean(reference(a, bindings).as_bool() && reference(b, bindings).as_bool())
        }
        Expression::Or(a, b) => {
            Value::Boolean(reference(a, bindings).as_bool() || reference(b, bindings).as_bool())
        }
        Expression::Not(e) => Value::Boolean(!reference(e, bindings).as_bool()),
        Expression::Arithmetic(a, op, b) => {
            match (
                reference(a, bindings).as_number(),
                reference(b, bindings).as_number(),
            ) {
                (Some(x), Some(y)) => Value::Number(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Value::Unbound;
                        }
                        x / y
                    }
                }),
                _ => Value::Unbound,
            }
        }
        Expression::Regex(e, regex) => Value::Boolean(
            (reference(e, bindings).as_string()).is_some_and(|text| regex.is_match(&text)),
        ),
        Expression::Lang(e) => {
            let lexical = match reference(e, bindings) {
                Value::Term(
                    TermRef::Literal {
                        language: Some(lang),
                        ..
                    },
                    _,
                ) => lang,
                _ => "",
            };
            Value::term(TermRef::Literal {
                lexical,
                datatype: None,
                language: None,
            })
        }
        Expression::Datatype(e) => match reference(e, bindings) {
            Value::Term(TermRef::Literal { datatype, .. }, _) => {
                Value::term(TermRef::Iri(datatype.unwrap_or(XSD_STRING).into()))
            }
            _ => Value::Unbound,
        },
    }
}

fn compare(a: &Value<'_>, op: CompareOp, b: &Value<'_>) -> bool {
    if let (Some(x), Some(y)) = (a.as_number(), b.as_number()) {
        return match op {
            CompareOp::Eq => x == y,
            CompareOp::Ne => x != y,
            CompareOp::Lt => x < y,
            CompareOp::Le => x <= y,
            CompareOp::Gt => x > y,
            CompareOp::Ge => x >= y,
        };
    }
    let (Some(x), Some(y)) = (a.as_string(), b.as_string()) else {
        return false;
    };
    match op {
        CompareOp::Eq => x == y,
        CompareOp::Ne => x != y,
        CompareOp::Lt => x < y,
        CompareOp::Le => x <= y,
        CompareOp::Gt => x > y,
        CompareOp::Ge => x >= y,
    }
}

/// A value rendered so that two of the same kind and content read alike
/// (NaN included).
fn render(value: Value<'_>) -> String {
    match value {
        Value::Term(term, _) => format!("term {term}"),
        Value::Number(n) => format!("number {n}"),
        Value::Boolean(b) => format!("bool {b}"),
        Value::Unbound => "unbound".to_string(),
    }
}

const VARIABLES: [&str; 4] = ["a", "b", "c", "d"];

/// Numbers of every shape, strings that do and do not read as numbers, an
/// IRI, a blank node, a language-tagged literal and booleans.
fn terms() -> Vec<Term> {
    vec![
        Term::integer(0),
        Term::integer(5),
        Term::integer(-3),
        Term::typed_literal("2.5", "http://www.w3.org/2001/XMLSchema#decimal"),
        Term::typed_literal("NaN", XSD_DOUBLE),
        Term::typed_literal("INF", XSD_DOUBLE),
        Term::typed_literal("forty", XSD_INTEGER),
        Term::typed_literal("true", XSD_BOOLEAN),
        Term::typed_literal("0", XSD_BOOLEAN),
        Term::literal("5"),
        Term::literal("apple"),
        Term::literal(""),
        Term::literal(" 7 "),
        Term::lang_literal("chat", "fr"),
        Term::iri("http://ex.org/apple"),
        Term::blank("b0"),
    ]
}

/// The choices a generated expression is built from, taken in turn (0 once
/// they run out).
struct Tape {
    choices: Vec<u32>,
    at: usize,
}

impl Tape {
    /// The next choice among `n`.
    fn pick(&mut self, n: usize) -> usize {
        let choice = self.choices.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        choice as usize % n
    }
}

const COMPARE: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Ne,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];
const ARITH: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
const PATTERNS: [&str; 6] = ["^a", "5$", "pp", "a.*e", "", "^$"];

/// An expression at most `depth` operators deep: comparisons, `&&`, `||`,
/// `!`, arithmetic (a division by zero and non-numeric operands included),
/// `BOUND`, `REGEX`, `LANG` and `DATATYPE` over variables and [`terms`].
fn build(tape: &mut Tape, depth: u32) -> Expression {
    let sub = |tape: &mut Tape| Box::new(build(tape, depth - 1));
    let variable = |tape: &mut Tape| VARIABLES[tape.pick(VARIABLES.len())].to_string();
    match tape.pick(if depth == 0 { 3 } else { 11 }) {
        0 => Expression::Variable(variable(tape)),
        1 => Expression::Bound(variable(tape)),
        2 => {
            let terms = terms();
            Expression::constant(terms[tape.pick(terms.len())].clone())
        }
        3 => {
            let a = sub(tape);
            Expression::Compare(a, COMPARE[tape.pick(6)], sub(tape))
        }
        4 => {
            let a = sub(tape);
            Expression::Arithmetic(a, ARITH[tape.pick(4)], sub(tape))
        }
        5 => Expression::And(sub(tape), sub(tape)),
        6 => Expression::Or(sub(tape), sub(tape)),
        7 => Expression::Not(sub(tape)),
        8 => Expression::Lang(sub(tape)),
        9 => Expression::Datatype(sub(tape)),
        _ => {
            let target = sub(tape);
            let pattern = PATTERNS[tape.pick(PATTERNS.len())];
            let flags = (tape.pick(2) == 1).then_some("i");
            Expression::Regex(target, Regex::new(pattern, flags).unwrap())
        }
    }
}

/// The term `set` binds `name` to, with its numeric view.
fn lookup<'t>(set: &[(&str, Binding<'t>)], name: &str) -> Option<Binding<'t>> {
    set.iter().find_map(|&(v, t)| (v == name).then_some(t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn bound_once_evaluates_like_the_reference(
        choices in proptest::collection::vec(0u32..1_000_000, 48),
        // Per variable: unbound (0), bound outside the match (1) or by the
        // row (2), with the index of its term.
        how in proptest::collection::vec((0u8..3, 0usize..16), 4),
    ) {
        let e = build(&mut Tape { choices, at: 0 }, 4);
        let terms = terms();
        let bound_by = |kind: u8| -> Vec<(&str, Binding<'_>)> {
            (VARIABLES.iter().zip(&how))
                .filter(|(_, &(k, _))| k == kind)
                .map(|(&v, &(_, t))| {
                    let term = TermRef::from(&terms[t % terms.len()]);
                    (v, (term, term.numeric_view()))
                })
                .collect()
        };
        let (outer, row) = (bound_by(1), bound_by(2));
        let all = |name: &str| lookup(&outer, name).or_else(|| lookup(&row, name));
        let expected = render(reference(&e, &all));
        let expected_bool = reference(&e, &all).as_bool();

        // As a parsed FILTER is bound at parse time, then by a run.
        let parsed = e.bind(&[]);
        for bound in [e.bind(&outer), parsed.bind(&outer)] {
            let value = render(bound.evaluate(&|name| lookup(&row, name)));
            prop_assert_eq!(value, expected.clone(), "{:?} from {:?}", bound, e);
            let kept = bound.evaluate_bool(&|name| lookup(&row, name));
            prop_assert_eq!(kept, expected_bool, "{:?} from {:?}", bound, e);
        }
        // What reads no variable of the row is one value.
        if e.variables().iter().all(|v| lookup(&outer, v).is_some()) {
            prop_assert!(matches!(e.bind(&outer), Expression::Folded(_)), "{:?}", e);
        }
    }
}

#[test]
fn a_folded_sum_stays_a_number() {
    let orig = Term::integer(1200);
    let sum = Expression::Arithmetic(
        Box::new(Expression::Variable("orig".into())),
        ArithOp::Add,
        Box::new(Expression::constant(Term::integer(300))),
    );
    let orig = TermRef::from(&orig);
    let bound = sum.bind(&[("orig", (orig, orig.numeric_view()))]);
    assert_eq!(bound.evaluate(&|_| None), Value::Number(1500.0));
    assert!(matches!(bound, Expression::Folded(_)));
    // A literal that spells a number stays a literal of its datatype.
    let five = Expression::constant(Term::literal("5")).bind(&[]);
    let datatype = Expression::Datatype(Box::new(five.clone())).bind(&[]);
    assert_eq!(
        datatype.evaluate(&|_| None),
        Value::Term(TermRef::Iri(XSD_STRING.into()), None)
    );
    assert_eq!(render(five.evaluate(&|_| None)), "term \"5\"");
}
