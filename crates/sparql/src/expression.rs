//! `FILTER` expressions and their evaluation.
//!
//! The paper distinguishes *inexpensive* filters (selection conditions,
//! applied while matching) from *expensive* ones (join conditions over two
//! variables, regular expressions) that are applied after the basic pattern
//! matching produces solutions (Section 5.1, BSBM Q5/Q6). The engine makes
//! that split by the variables a filter reads; the evaluation itself is
//! shared and lives here.
//!
//! An expression is evaluated over borrowed terms: the caller hands
//! [`Expression::evaluate`] a lookup from a variable name to the
//! [`TermRef`] bound to it (a view into the dictionary) and that term's
//! numeric view ([`TermRef::numeric_view`], which the dictionary stores with
//! the term: `Dictionary::term_and_view`), asked only for the variables the
//! expression reads, and gets back a [`Value`] that borrows from those views
//! and from the expression's constants. Nothing is copied or parsed per row;
//! a `REGEX` pattern is compiled once, when the query is parsed.
//!
//! What does not depend on the row is worked out before the first one: a
//! constant is held as its value ([`Folded`]), a term with its numeric view,
//! and [`Expression::bind`] puts the terms of variables bound outside the
//! match in place of those variables and folds every subtree that reads no
//! variable into its value. The parser hands out its FILTERs folded so; a
//! run binds them again to its outer bindings, once.

use std::borrow::Cow;
use turbohom_rdf::vocab::{XSD_BOOLEAN, XSD_STRING};
use turbohom_rdf::{Term, TermRef};

/// A FILTER expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference, e.g. `?price`.
    Variable(String),
    /// A value known before any row is: a constant RDF term
    /// ([`Expression::constant`]), a variable bound outside the match, or
    /// what a subtree reading neither evaluates to (see
    /// [`Expression::bind`]).
    Folded(Folded),
    /// Comparison.
    Compare(Box<Expression>, CompareOp, Box<Expression>),
    /// Logical conjunction.
    And(Box<Expression>, Box<Expression>),
    /// Logical disjunction.
    Or(Box<Expression>, Box<Expression>),
    /// Logical negation.
    Not(Box<Expression>),
    /// Arithmetic.
    Arithmetic(Box<Expression>, ArithOp, Box<Expression>),
    /// `REGEX(expr, pattern [, flags])`, the pattern compiled.
    Regex(Box<Expression>, Regex),
    /// `BOUND(?var)`.
    Bound(String),
    /// `LANG(expr) = "tag"` shorthand is not needed by the benchmarks, but
    /// `LANGMATCHES`-free `lang()` access is kept for completeness.
    Lang(Box<Expression>),
    /// `DATATYPE(expr)`.
    Datatype(Box<Expression>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A term bound to a variable, with its numeric view
/// ([`TermRef::numeric_view`]): what an [`Expression::evaluate`] lookup
/// hands over.
pub type Binding<'t> = (TermRef<'t>, Option<f64>);

/// A runtime value during expression evaluation, borrowing its terms from
/// the bindings and the expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'t> {
    /// An RDF term (IRI, literal, blank node), with its numeric view
    /// ([`TermRef::numeric_view`]).
    Term(TermRef<'t>, Option<f64>),
    /// A numeric value (arithmetic results).
    Number(f64),
    /// A boolean.
    Boolean(bool),
    /// An unbound variable (OPTIONAL may leave variables unbound).
    Unbound,
}

/// What [`Expression::evaluate`] gave a subtree, kept in its place by
/// [`Expression::bind`]: a value of the same kind, owned.
#[derive(Debug, Clone, PartialEq)]
pub enum Folded {
    /// A term, with its numeric view ([`TermRef::numeric_view`]).
    Term(Term, Option<f64>),
    /// A number.
    Number(f64),
    /// A boolean.
    Boolean(bool),
    /// No value.
    Unbound,
}

impl Folded {
    /// `value`, owned.
    fn of(value: Value<'_>) -> Folded {
        match value {
            Value::Term(term, number) => Folded::Term(term.to_term(), number),
            Value::Number(n) => Folded::Number(n),
            Value::Boolean(b) => Folded::Boolean(b),
            Value::Unbound => Folded::Unbound,
        }
    }

    fn value(&self) -> Value<'_> {
        match self {
            Folded::Term(term, number) => Value::Term(TermRef::from(term), *number),
            Folded::Number(n) => Value::Number(*n),
            Folded::Boolean(b) => Value::Boolean(*b),
            Folded::Unbound => Value::Unbound,
        }
    }
}

/// The XML Schema namespace.
const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Whether `datatype` is `xsd:integer`, `xsd:decimal`, `xsd:float`,
/// `xsd:double` or one of the types derived from `xsd:integer`.
fn is_numeric_datatype(datatype: &str) -> bool {
    datatype.strip_prefix(XSD).is_some_and(|local| {
        matches!(
            local,
            "integer"
                | "decimal"
                | "float"
                | "double"
                | "int"
                | "long"
                | "short"
                | "byte"
                | "nonNegativeInteger"
                | "positiveInteger"
                | "nonPositiveInteger"
                | "negativeInteger"
                | "unsignedLong"
                | "unsignedInt"
                | "unsignedShort"
                | "unsignedByte"
        )
    })
}

impl<'t> Value<'t> {
    /// `term` with its numeric view, taken here.
    pub fn term(term: TermRef<'t>) -> Value<'t> {
        Value::Term(term, term.numeric_view())
    }

    /// The effective boolean value (SPARQL 1.1 §17.2.2): booleans are
    /// themselves; an `xsd:boolean` literal is its value; a number, or a
    /// literal of a numeric datatype, is false when zero or NaN; an invalid
    /// lexical form of either datatype is false; any other literal is true
    /// when non-empty; an IRI or blank node is true; unbound is an error,
    /// treated as `false`.
    pub fn as_bool(&self) -> bool {
        let nonzero = |n: f64| n != 0.0 && !n.is_nan();
        match *self {
            Value::Boolean(b) => b,
            Value::Number(n) => nonzero(n),
            Value::Term(
                TermRef::Literal {
                    lexical,
                    datatype: Some(datatype),
                    ..
                },
                _,
            ) if datatype == XSD_BOOLEAN => matches!(lexical.trim(), "true" | "1"),
            Value::Term(
                TermRef::Literal {
                    datatype: Some(datatype),
                    ..
                },
                number,
            ) if is_numeric_datatype(datatype) => number.is_some_and(nonzero),
            Value::Term(TermRef::Literal { lexical, .. }, _) => !lexical.is_empty(),
            Value::Term(..) => true,
            Value::Unbound => false,
        }
    }

    /// The numeric view of the value: a term's, which it carries; a number
    /// itself; a boolean 1 or 0.
    pub fn as_number(&self) -> Option<f64> {
        match *self {
            Value::Number(n) => Some(n),
            Value::Boolean(b) => Some(if b { 1.0 } else { 0.0 }),
            Value::Term(_, number) => number,
            Value::Unbound => None,
        }
    }

    /// Whether the value is an IRI or a blank node: a term that is never
    /// RDFterm-equal to a literal.
    fn is_node(&self) -> bool {
        matches!(
            self,
            Value::Term(TermRef::Iri(_) | TermRef::BlankNode(_), _)
        )
    }

    /// A string view used for string comparison and REGEX: borrowed, except
    /// for a blank node's `_:` form, a number and an IRI the dictionary
    /// split into its namespace and local name.
    pub fn as_string(&self) -> Option<Cow<'t, str>> {
        match *self {
            Value::Term(TermRef::Literal { lexical: s, .. }, _) => Some(Cow::Borrowed(s)),
            Value::Term(TermRef::Iri(iri), _) => Some(iri.text()),
            Value::Term(TermRef::BlankNode(b), _) => Some(Cow::Owned(format!("_:{b}"))),
            Value::Number(n) => Some(Cow::Owned(n.to_string())),
            Value::Boolean(b) => Some(Cow::Borrowed(if b { "true" } else { "false" })),
            Value::Unbound => None,
        }
    }
}

impl Expression {
    /// The constant RDF term `term` (IRI or literal), folded with its
    /// numeric view.
    pub fn constant(term: Term) -> Expression {
        let number = TermRef::from(&term).numeric_view();
        Expression::Folded(Folded::Term(term, number))
    }

    /// The variables referenced by this expression.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out.dedup();
        out
    }

    fn collect_variables(&self, out: &mut Vec<String>) {
        match self {
            Expression::Variable(v) | Expression::Bound(v) => out.push(v.clone()),
            Expression::Folded(_) => {}
            Expression::Compare(a, _, b)
            | Expression::And(a, b)
            | Expression::Or(a, b)
            | Expression::Arithmetic(a, _, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Expression::Not(e)
            | Expression::Lang(e)
            | Expression::Datatype(e)
            | Expression::Regex(e, _) => e.collect_variables(out),
        }
    }

    /// Evaluates the expression. `bindings` maps a variable to the term bound
    /// to it and that term's numeric view (`None`: unbound); it is asked once
    /// per variable reference.
    pub fn evaluate<'t, B>(&'t self, bindings: &B) -> Value<'t>
    where
        B: Fn(&str) -> Option<Binding<'t>>,
    {
        match self {
            Expression::Variable(v) => {
                bindings(v).map_or(Value::Unbound, |(term, number)| Value::Term(term, number))
            }
            Expression::Folded(folded) => folded.value(),
            Expression::Bound(v) => Value::Boolean(bindings(v).is_some()),
            Expression::Compare(a, op, b) => {
                let av = a.evaluate(bindings);
                let bv = b.evaluate(bindings);
                if matches!(av, Value::Unbound) || matches!(bv, Value::Unbound) {
                    return Value::Boolean(false);
                }
                Value::Boolean(compare(&av, *op, &bv))
            }
            Expression::And(a, b) => {
                Value::Boolean(a.evaluate_bool(bindings) && b.evaluate_bool(bindings))
            }
            Expression::Or(a, b) => {
                Value::Boolean(a.evaluate_bool(bindings) || b.evaluate_bool(bindings))
            }
            Expression::Not(e) => Value::Boolean(!e.evaluate_bool(bindings)),
            Expression::Arithmetic(a, op, b) => {
                let (av, bv) = (a.evaluate(bindings), b.evaluate(bindings));
                match (av.as_number(), bv.as_number()) {
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
                (e.evaluate(bindings).as_string()).is_some_and(|text| regex.is_match(&text)),
            ),
            Expression::Lang(e) => {
                let lexical = match e.evaluate(bindings) {
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
            Expression::Datatype(e) => match e.evaluate(bindings) {
                Value::Term(TermRef::Literal { datatype, .. }, _) => {
                    Value::Term(TermRef::Iri(datatype.unwrap_or(XSD_STRING).into()), None)
                }
                _ => Value::Unbound,
            },
        }
    }

    /// Evaluates the expression to its effective boolean value.
    pub fn evaluate_bool<'t, B>(&'t self, bindings: &B) -> bool
    where
        B: Fn(&str) -> Option<Binding<'t>>,
    {
        self.evaluate(bindings).as_bool()
    }

    /// This expression with each variable `outer` binds replaced by its term
    /// and numeric view, and each subtree that then reads no variable by its
    /// value ([`Folded`]). Under the bindings of the other variables it
    /// evaluates to what this one evaluates to under those and `outer`.
    pub fn bind(&self, outer: &[(&str, Binding<'_>)]) -> Expression {
        let term = |name: &str| (outer.iter()).find_map(|&(bound, t)| (bound == name).then_some(t));
        let bind = |e: &Expression| Box::new(e.bind(outer));
        let bound = match self {
            Expression::Variable(v) => match term(v) {
                Some((t, number)) => Expression::Folded(Folded::of(Value::Term(t, number))),
                None => self.clone(),
            },
            Expression::Bound(v) => match term(v) {
                Some(_) => Expression::Folded(Folded::Boolean(true)),
                None => self.clone(),
            },
            Expression::Folded(_) => self.clone(),
            Expression::Compare(a, op, b) => Expression::Compare(bind(a), *op, bind(b)),
            Expression::And(a, b) => Expression::And(bind(a), bind(b)),
            Expression::Or(a, b) => Expression::Or(bind(a), bind(b)),
            Expression::Not(e) => Expression::Not(bind(e)),
            Expression::Arithmetic(a, op, b) => Expression::Arithmetic(bind(a), *op, bind(b)),
            Expression::Regex(e, regex) => Expression::Regex(bind(e), regex.clone()),
            Expression::Lang(e) => Expression::Lang(bind(e)),
            Expression::Datatype(e) => Expression::Datatype(bind(e)),
        };
        match bound {
            Expression::Folded(_) => bound,
            _ if bound.variables().is_empty() => {
                Expression::Folded(Folded::of(bound.evaluate(&|_| None)))
            }
            _ => bound,
        }
    }
}

/// Compares two values: numerically when both sides have a numeric view,
/// otherwise by string form. `=` and `!=` between an IRI or a blank node and
/// a literal follow RDFterm-equal (SPARQL 1.1 §17.4.1.7): such terms are
/// never equal.
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
    // Two IRIs compare by their whole texts, piece by piece: the
    // dictionary's are split, and neither is copied to be compared.
    let order = if let (Value::Term(TermRef::Iri(x), _), Value::Term(TermRef::Iri(y), _)) = (a, b) {
        x.cmp(y)
    } else {
        let (Some(x), Some(y)) = (a.as_string(), b.as_string()) else {
            return false;
        };
        if a.is_node() != b.is_node() {
            match op {
                CompareOp::Eq => return false,
                CompareOp::Ne => return true,
                _ => {}
            }
        }
        x.cmp(&y)
    };
    match op {
        CompareOp::Eq => order.is_eq(),
        CompareOp::Ne => order.is_ne(),
        CompareOp::Lt => order.is_lt(),
        CompareOp::Le => order.is_le(),
        CompareOp::Gt => order.is_gt(),
        CompareOp::Ge => order.is_ge(),
    }
}

/// A compiled `REGEX` pattern in the small dialect the BSBM queries use:
/// literal characters (`\` escapes the next one), `.`, the quantifiers `*`
/// and `+`, the anchors `^` and `$`, and the `i` flag. An unanchored pattern
/// matches anywhere in the text (search semantics). A pattern or flag
/// outside the dialect is refused ([`RegexError`]), never matched as
/// literal text.
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    case_insensitive: bool,
    anchored_start: bool,
    anchored_end: bool,
    /// The literal characters every match starts with: a search skips to
    /// their occurrences.
    prefix: String,
    /// What follows the prefix.
    pieces: Vec<Piece>,
}

/// One character class, matched once or (`repeated`) zero or more times.
/// `x+` compiles to `x` followed by a repeated `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Atom {
    /// `None`: any character.
    char: Option<char>,
    repeated: bool,
}

/// A step of a compiled pattern after its prefix.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    /// One [`Atom`].
    Atom(Atom),
    /// `.*` and the literal characters after it: the match goes on after an
    /// occurrence of those characters, which a search skips to, rather than
    /// retrying them at every position `.*` can reach.
    Seek(String),
}

impl Atom {
    fn admits(self, c: char) -> bool {
        self.char.is_none_or(|own| own == c)
    }
}

/// Why a `REGEX` pattern or its flags lie outside the dialect [`Regex`]
/// compiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// An unescaped metacharacter of a construct the dialect lacks
    /// (alternation, `?`, groups, classes, counted repetition).
    Unsupported(char),
    /// A flag other than `i`.
    Flag(char),
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegexError::Unsupported(c) => write!(
                f,
                "REGEX pattern uses `{c}`, outside the supported dialect \
                 (literals, `\\` escapes, `.`, `*`, `+`, `^` and `$`)"
            ),
            RegexError::Flag(c) => write!(f, "REGEX flag `{c}` is not supported (only `i` is)"),
        }
    }
}

impl std::error::Error for RegexError {}

impl Regex {
    /// Compiles `pattern` with `flags`, of which only `i` (case-insensitive)
    /// exists. Only an unescaped `$` at the very end is the end anchor, and
    /// only a `^` at the very start the start anchor. An unescaped `|`, `?`,
    /// `(`, `)`, `[`, `]`, `{` or `}`, or another flag, is an error.
    pub fn new(pattern: &str, flags: Option<&str>) -> Result<Regex, RegexError> {
        if let Some(flag) = flags.unwrap_or_default().chars().find(|&f| f != 'i') {
            return Err(RegexError::Flag(flag));
        }
        let case_insensitive = flags.is_some_and(|f| f.contains('i'));
        let folded = if case_insensitive {
            Cow::Owned(pattern.to_lowercase())
        } else {
            Cow::Borrowed(pattern)
        };
        let (anchored_start, body) = match folded.strip_prefix('^') {
            Some(rest) => (true, rest),
            None => (false, &*folded),
        };
        let mut anchored_end = false;
        let mut atoms = Vec::new();
        let mut chars = body.chars().peekable();
        while let Some(c) = chars.next() {
            let char = match c {
                '.' => None,
                '\\' => Some(chars.next().unwrap_or('\\')),
                '$' if chars.peek().is_none() => {
                    anchored_end = true;
                    break;
                }
                '|' | '?' | '(' | ')' | '[' | ']' | '{' | '}' => {
                    return Err(RegexError::Unsupported(c))
                }
                c => Some(c),
            };
            let once = Atom {
                char,
                repeated: false,
            };
            let many = Atom {
                char,
                repeated: true,
            };
            match chars.next_if(|&q| q == '*' || q == '+') {
                Some('*') => atoms.push(many),
                Some(_) => atoms.extend([once, many]),
                None => atoms.push(once),
            }
        }
        let literal = |atom: &Atom| atom.char.filter(|_| !atom.repeated);
        let prefix: String = atoms.iter().map_while(literal).collect();
        let mut rest = &atoms[prefix.chars().count()..];
        let mut pieces = Vec::new();
        while let Some((&atom, after)) = rest.split_first() {
            rest = after;
            let seek: String = match atom {
                Atom {
                    char: None,
                    repeated: true,
                } => after.iter().map_while(literal).collect(),
                _ => String::new(),
            };
            if seek.is_empty() {
                pieces.push(Piece::Atom(atom));
            } else {
                rest = &after[seek.chars().count()..];
                pieces.push(Piece::Seek(seek));
            }
        }
        Ok(Regex {
            case_insensitive,
            anchored_start,
            anchored_end,
            prefix,
            pieces,
        })
    }

    /// Whether the pattern matches somewhere in `text` (at its start, when
    /// anchored there). Only the `i` flag allocates: it lowercases the text.
    pub fn is_match(&self, text: &str) -> bool {
        if self.case_insensitive {
            self.search(&text.to_lowercase())
        } else {
            self.search(text)
        }
    }

    fn search(&self, text: &str) -> bool {
        let after_prefix =
            |start: usize| self.matches_at(&self.pieces, text, start + self.prefix.len());
        if self.anchored_start {
            return text.starts_with(&self.prefix) && after_prefix(0);
        }
        if self.prefix.is_empty() {
            return (0..=text.len())
                .filter(|&i| text.is_char_boundary(i))
                .any(|i| self.matches_at(&self.pieces, text, i));
        }
        occurrences(text, &self.prefix, 0).any(after_prefix)
    }

    /// Whether `pieces` match `text` from byte `pos` on (to its end, when
    /// anchored there).
    fn matches_at(&self, mut pieces: &[Piece], text: &str, mut pos: usize) -> bool {
        loop {
            let Some((piece, rest)) = pieces.split_first() else {
                return !self.anchored_end || pos == text.len();
            };
            let atom = match piece {
                Piece::Atom(atom) => *atom,
                Piece::Seek(literal) => {
                    return occurrences(text, literal, pos)
                        .any(|at| self.matches_at(rest, text, at + literal.len()));
                }
            };
            if atom.repeated {
                loop {
                    if self.matches_at(rest, text, pos) {
                        return true;
                    }
                    match text[pos..].chars().next() {
                        Some(c) if atom.admits(c) => pos += c.len_utf8(),
                        _ => return false,
                    }
                }
            }
            match text[pos..].chars().next() {
                Some(c) if atom.admits(c) => pos += c.len_utf8(),
                _ => return false,
            }
            pieces = rest;
        }
    }
}

/// Where the non-empty `needle` occurs in `text` from byte `from` on,
/// overlapping occurrences included: a scan for its first byte, which begins
/// a character wherever it occurs.
fn occurrences<'a>(
    text: &'a str,
    needle: &'a str,
    mut from: usize,
) -> impl Iterator<Item = usize> + 'a {
    let (bytes, needle) = (text.as_bytes(), needle.as_bytes());
    std::iter::from_fn(move || {
        while let Some(found) = bytes[from..].iter().position(|&b| b == needle[0]) {
            let start = from + found;
            from = start + 1;
            if bytes[start..].starts_with(needle) {
                return Some(start);
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(n: i64) -> Expression {
        Expression::constant(Term::integer(n))
    }

    fn var(name: &str) -> Expression {
        Expression::Variable(name.to_string())
    }

    /// The lookup a caller hands [`Expression::evaluate`], over named terms.
    fn lookup<'t>(bindings: &'t [(&'t str, Term)]) -> impl Fn(&str) -> Option<Binding<'t>> {
        move |name| {
            let bound = bindings.iter().find(|(v, _)| *v == name);
            bound.map(|(_, term)| (TermRef::from(term), TermRef::from(term).numeric_view()))
        }
    }

    #[test]
    fn regex_literal_and_wildcards() {
        let is_match = |text: &str, pattern: &str, ci: bool| {
            Regex::new(pattern, ci.then_some("i"))
                .unwrap()
                .is_match(text)
        };
        assert!(is_match("ProductType123", "Type", false));
        assert!(is_match("ProductType123", "^Product", false));
        assert!(!is_match("ProductType123", "^Type", false));
        assert!(is_match("ProductType123", "123$", false));
        assert!(is_match("abcdef", "a.c", false));
        assert!(is_match("abbbbc", "ab*c", false));
        assert!(is_match("ac", "ab*c", false));
        assert!(!is_match("ac", "ab+c", false));
        assert!(is_match("abc", "ab+c", false));
        assert!(is_match("word and more", "word.*more", false));
        assert!(is_match("HELLO", "hello", true));
        assert!(!is_match("HELLO", "hello", false));
        assert!(is_match("x", "", false));
        assert!(is_match("", "^$", false));
        // The prefix `aa` occurs at 0, where the rest fails, and again at 1.
        assert!(is_match("aaab", "aa.$", false));
        assert!(is_match("bréf", "é.$", false));
    }

    #[test]
    fn a_wildcard_run_then_literals_seeks_their_occurrences() {
        let is_match =
            |text: &str, pattern: &str| Regex::new(pattern, None).unwrap().is_match(text);
        assert!(is_match("solid red number 12", "solid.*number 12"));
        assert!(!is_match("solid red number 1", "solid.*number 12"));
        // The occurrence that matches overlaps one that does not.
        assert!(is_match("xaaab", "x.*aab$"));
        assert!(is_match("a-b-c", "^a.*b.*c$"));
        assert!(!is_match("a-c-b", "^a.*b.*c$"));
        assert!(is_match("aé€b", ".*€b"));
        // `.*` before anything but a literal is not a seek.
        assert!(is_match("abc", "a.*.c"));
        assert!(is_match("abbc", "a.*b*c$"));
        assert!(is_match("abc", "a.*"));
        let seek = Regex::new("solid.*number 12", None).unwrap();
        assert_eq!(seek.pieces, [Piece::Seek("number 12".into())]);
    }

    #[test]
    fn an_escaped_backslash_before_the_final_dollar_leaves_it_the_anchor() {
        // `regex(?x, "a\\\\$")`: an escaped backslash, then the end anchor.
        let anchored = Regex::new(r"a\\$", None).unwrap();
        assert!(anchored.is_match(r"xa\"));
        assert!(!anchored.is_match(r"a\$"));
        // An escaped dollar stays a literal one.
        let dollar = Regex::new(r"a\$", None).unwrap();
        assert!(dollar.is_match("a$b"));
        assert!(!dollar.is_match("a"));
    }

    #[test]
    fn the_effective_boolean_value_of_booleans_and_numbers_is_their_value() {
        use turbohom_rdf::vocab::{XSD_DOUBLE, XSD_INTEGER};
        let decimal = "http://www.w3.org/2001/XMLSchema#decimal";
        for (lexical, datatype, expected) in [
            ("true", XSD_BOOLEAN, true),
            ("1", XSD_BOOLEAN, true),
            ("false", XSD_BOOLEAN, false),
            ("0", XSD_BOOLEAN, false),
            ("yes", XSD_BOOLEAN, false),
            ("42", XSD_INTEGER, true),
            ("0", XSD_INTEGER, false),
            ("-0", XSD_INTEGER, false),
            ("forty", XSD_INTEGER, false),
            ("0.5", decimal, true),
            ("0.0", decimal, false),
            ("INF", XSD_DOUBLE, true),
            ("0E0", XSD_DOUBLE, false),
            ("NaN", XSD_DOUBLE, false),
        ] {
            let flag = [("flag", Term::typed_literal(lexical, datatype))];
            let kept = var("flag").evaluate_bool(&lookup(&flag));
            assert_eq!(kept, expected, "FILTER(?flag) over {}", flag[0].1);
        }
        // A string is true unless empty, whatever it spells.
        let strings = [("f", Term::literal("false")), ("e", Term::literal(""))];
        assert!(var("f").evaluate_bool(&lookup(&strings)));
        assert!(!var("e").evaluate_bool(&lookup(&strings)));
        assert!(!Value::Number(f64::NAN).as_bool());
    }

    #[test]
    fn variables_collection() {
        let e = Expression::And(
            Box::new(Expression::Compare(
                Box::new(var("a")),
                CompareOp::Lt,
                Box::new(var("b")),
            )),
            Box::new(Expression::Bound("c".into())),
        );
        let mut vars = e.variables();
        vars.sort();
        assert_eq!(vars, vec!["a", "b", "c"]);
    }

    /// `REGEX(target, pattern [, flags])`.
    fn regex(target: Expression, pattern: &str, flags: Option<&str>) -> Expression {
        Expression::Regex(Box::new(target), Regex::new(pattern, flags).unwrap())
    }

    /// Evaluates `e` under `bindings` and renders the value: `bool …`,
    /// `number …`, `term …` (N-Triples) or `unbound`.
    fn render(e: &Expression, bindings: &[(&str, Term)]) -> String {
        match e.evaluate(&lookup(bindings)) {
            Value::Term(term, _) => format!("term {term}"),
            Value::Number(n) => format!("number {n}"),
            Value::Boolean(b) => format!("bool {b}"),
            Value::Unbound => "unbound".to_string(),
        }
    }

    fn cmp(a: Expression, op: CompareOp, b: Expression) -> Expression {
        Expression::Compare(Box::new(a), op, Box::new(b))
    }

    fn arith(a: Expression, op: ArithOp, b: Expression) -> Expression {
        Expression::Arithmetic(Box::new(a), op, Box::new(b))
    }

    fn lit(lexical: &str) -> Expression {
        Expression::constant(Term::literal(lexical))
    }

    fn bound(name: &str) -> Expression {
        Expression::Bound(name.to_string())
    }

    fn not(e: Expression) -> Expression {
        Expression::Not(Box::new(e))
    }

    /// One case per behaviour of every [`Expression`] variant, rendered by
    /// [`render`]: the semantics the evaluator is held to.
    #[test]
    fn every_variant_evaluates_as_pinned() {
        use turbohom_rdf::vocab::XSD_INTEGER;
        let bindings = [
            ("x", Term::integer(5)),
            ("y", Term::integer(9)),
            ("five", Term::literal("5")),
            ("a", Term::literal("apple")),
            ("b", Term::literal("banana")),
            ("iri", Term::iri("http://ex.org/a")),
            ("blank", Term::blank("b")),
            ("label", Term::literal("great product alpha")),
            ("fr", Term::lang_literal("chat", "fr")),
            ("typed", Term::typed_literal("5", XSD_INTEGER)),
        ];
        let yes = || cmp(num(1), CompareOp::Eq, num(1));
        let no = || cmp(num(1), CompareOp::Eq, num(2));
        let x_plus_1 = || arith(var("x"), ArithOp::Add, num(1));
        let x_half = || arith(var("x"), ArithOp::Div, num(2));
        let integer = format!("<{XSD_INTEGER}>");
        let string = format!("<{}>", turbohom_rdf::vocab::XSD_STRING);
        let cases: Vec<(Expression, String)> = vec![
            // Variables and constants.
            (var("x"), format!("term \"5\"^^{integer}")),
            (var("missing"), "unbound".into()),
            (lit("x"), "term \"x\"".into()),
            // Numeric comparison, plain and typed literals alike.
            (cmp(var("x"), CompareOp::Lt, var("y")), "bool true".into()),
            (cmp(var("x"), CompareOp::Ge, num(5)), "bool true".into()),
            (cmp(var("x"), CompareOp::Gt, var("y")), "bool false".into()),
            (cmp(var("x"), CompareOp::Ne, num(5)), "bool false".into()),
            (cmp(var("x"), CompareOp::Le, num(4)), "bool false".into()),
            (
                cmp(var("five"), CompareOp::Eq, var("typed")),
                "bool true".into(),
            ),
            // String comparison.
            (cmp(var("a"), CompareOp::Lt, var("b")), "bool true".into()),
            (cmp(var("a"), CompareOp::Gt, var("b")), "bool false".into()),
            (
                cmp(var("a"), CompareOp::Eq, lit("apple")),
                "bool true".into(),
            ),
            (
                cmp(var("fr"), CompareOp::Eq, lit("chat")),
                "bool true".into(),
            ),
            // The string fallback: an IRI, a blank node, a number, a boolean.
            (
                cmp(
                    var("iri"),
                    CompareOp::Eq,
                    Expression::constant(Term::iri("http://ex.org/a")),
                ),
                "bool true".into(),
            ),
            // RDFterm-equal (SPARQL 1.1 §17.4.1.7): an IRI or a blank node
            // is never equal to a literal, whatever their strings.
            (
                cmp(var("iri"), CompareOp::Eq, lit("http://ex.org/a")),
                "bool false".into(),
            ),
            (
                cmp(var("iri"), CompareOp::Ne, lit("http://ex.org/a")),
                "bool true".into(),
            ),
            (
                cmp(var("iri"), CompareOp::Lt, lit("http://ex.org/b")),
                "bool true".into(),
            ),
            (
                cmp(var("blank"), CompareOp::Eq, lit("_:b")),
                "bool false".into(),
            ),
            (
                cmp(var("blank"), CompareOp::Ne, lit("b")),
                "bool true".into(),
            ),
            (cmp(x_plus_1(), CompareOp::Eq, lit("6")), "bool true".into()),
            (
                cmp(x_plus_1(), CompareOp::Lt, lit("7a")),
                "bool true".into(),
            ),
            (
                cmp(x_half(), CompareOp::Lt, lit("2.5x")),
                "bool true".into(),
            ),
            (
                cmp(bound("x"), CompareOp::Eq, lit("true")),
                "bool true".into(),
            ),
            // Unbound operands.
            (
                cmp(var("missing"), CompareOp::Eq, num(1)),
                "bool false".into(),
            ),
            (
                cmp(var("missing"), CompareOp::Ne, num(1)),
                "bool false".into(),
            ),
            (
                not(cmp(var("missing"), CompareOp::Eq, num(1))),
                "bool true".into(),
            ),
            (
                arith(var("x"), ArithOp::Add, var("missing")),
                "unbound".into(),
            ),
            (arith(var("a"), ArithOp::Add, num(1)), "unbound".into()),
            // BOUND and !BOUND.
            (bound("x"), "bool true".into()),
            (bound("missing"), "bool false".into()),
            (not(bound("missing")), "bool true".into()),
            // Arithmetic, division by zero included.
            (arith(var("x"), ArithOp::Sub, num(7)), "number -2".into()),
            (arith(var("x"), ArithOp::Mul, num(3)), "number 15".into()),
            (x_half(), "number 2.5".into()),
            (arith(var("x"), ArithOp::Div, num(0)), "unbound".into()),
            // Connectives.
            (
                Expression::And(Box::new(yes()), Box::new(no())),
                "bool false".into(),
            ),
            (
                Expression::Or(Box::new(no()), Box::new(yes())),
                "bool true".into(),
            ),
            (
                Expression::Or(Box::new(no()), Box::new(no())),
                "bool false".into(),
            ),
            (
                Expression::And(Box::new(lit("x")), Box::new(yes())),
                "bool true".into(),
            ),
            // LANG and DATATYPE of plain, typed and language-tagged literals.
            (Expression::Lang(Box::new(var("fr"))), "term \"fr\"".into()),
            (Expression::Lang(Box::new(var("a"))), "term \"\"".into()),
            (Expression::Lang(Box::new(var("typed"))), "term \"\"".into()),
            (Expression::Lang(Box::new(var("iri"))), "term \"\"".into()),
            (
                cmp(
                    Expression::Lang(Box::new(var("fr"))),
                    CompareOp::Eq,
                    lit("fr"),
                ),
                "bool true".into(),
            ),
            (
                Expression::Datatype(Box::new(var("typed"))),
                format!("term {integer}"),
            ),
            (
                Expression::Datatype(Box::new(var("a"))),
                format!("term {string}"),
            ),
            (
                Expression::Datatype(Box::new(var("fr"))),
                format!("term {string}"),
            ),
            (Expression::Datatype(Box::new(var("iri"))), "unbound".into()),
            (
                Expression::Datatype(Box::new(var("missing"))),
                "unbound".into(),
            ),
            // REGEX on a literal, an IRI, a blank node, a number and
            // nothing, with and without the `i` flag.
            (regex(var("label"), "alpha", None), "bool true".into()),
            (
                regex(var("label"), "^great.*alpha$", None),
                "bool true".into(),
            ),
            (regex(var("label"), "beta", None), "bool false".into()),
            (regex(var("label"), "ALPHA", Some("i")), "bool true".into()),
            (regex(var("label"), "ALPHA", None), "bool false".into()),
            (regex(var("fr"), "^ch", None), "bool true".into()),
            (regex(var("iri"), "ex.org/a$", None), "bool true".into()),
            (regex(var("iri"), "^HTTP://", Some("i")), "bool true".into()),
            (regex(var("blank"), "^_:b$", None), "bool true".into()),
            (regex(x_plus_1(), "^6$", None), "bool true".into()),
            (regex(var("missing"), "", None), "bool false".into()),
        ];
        for (e, expected) in &cases {
            assert_eq!(&render(e, &bindings), expected, "{e:?}");
        }
    }

    /// An IRI the dictionary split into its namespace and local name
    /// compares with any other IRI, by every operator, as its whole text.
    #[test]
    fn an_iri_in_two_pieces_compares_as_its_whole_text() {
        use std::cmp::Ordering::{self, Equal, Greater, Less};
        use turbohom_rdf::IriRef;
        let holds = |op, order: Ordering| match op {
            CompareOp::Eq => order.is_eq(),
            CompareOp::Ne => order.is_ne(),
            CompareOp::Lt => order.is_lt(),
            CompareOp::Le => order.is_le(),
            CompareOp::Gt => order.is_gt(),
            CompareOp::Ge => order.is_ge(),
        };
        let iri = |iri| Value::term(TermRef::Iri(iri));
        let split = iri(IriRef::new("http://x/", "d1"));
        for (other, order) in [
            ("http://x/d1", Equal),
            ("http://x/d0", Greater),
            ("http://x/d10", Less),
            ("http://x/", Greater),
            ("http://x/e", Less),
            ("http://x/d1/", Less),
        ] {
            for whole in [iri(IriRef::from(other)), iri(IriRef::split(other))] {
                for op in [
                    CompareOp::Eq,
                    CompareOp::Ne,
                    CompareOp::Lt,
                    CompareOp::Le,
                    CompareOp::Gt,
                    CompareOp::Ge,
                ] {
                    assert_eq!(compare(&split, op, &whole), holds(op, order), "{other}");
                    let reverse = holds(op, order.reverse());
                    assert_eq!(compare(&whole, op, &split), reverse, "{other}");
                }
            }
        }
    }

    /// SPARQL 1.1 §17.4.1.7 (RDFterm-equal): an IRI or a blank node and a
    /// literal are different terms, so `=` is false and `!=` is true between
    /// them even where their strings agree, in either operand order. Two
    /// terms of one kind still compare by their strings; an unbound side is
    /// no term, and neither operator holds.
    #[test]
    fn an_iri_or_a_blank_node_is_never_equal_to_a_literal() {
        let bindings = [
            ("iri", Term::iri("http://x/d1")),
            ("same", Term::iri("http://x/d1")),
            ("blank", Term::blank("b1")),
            ("text", Term::literal("http://x/d1")),
            ("label", Term::literal("_:b1")),
            ("number", Term::integer(1)),
        ];
        let holds = |a: &str, op, b: &str| render(&cmp(var(a), op, var(b)), &bindings);
        for (node, literal) in [
            ("iri", "text"),
            ("blank", "label"),
            ("iri", "number"),
            ("blank", "number"),
        ] {
            for (a, b) in [(node, literal), (literal, node)] {
                assert_eq!(holds(a, CompareOp::Eq, b), "bool false", "{a} = {b}");
                assert_eq!(holds(a, CompareOp::Ne, b), "bool true", "{a} != {b}");
            }
        }
        assert_eq!(holds("iri", CompareOp::Eq, "same"), "bool true");
        assert_eq!(holds("iri", CompareOp::Ne, "blank"), "bool true");
        assert_eq!(holds("text", CompareOp::Eq, "text"), "bool true");
        assert_eq!(holds("iri", CompareOp::Ne, "missing"), "bool false");
    }

    #[test]
    fn value_coercions() {
        assert!(Value::Boolean(true).as_bool());
        assert!(!Value::Unbound.as_bool());
        assert!(Value::Number(2.0).as_bool());
        assert!(!Value::Number(0.0).as_bool());
        let seven = Term::integer(7);
        assert_eq!(Value::term(TermRef::from(&seven)).as_number(), Some(7.0));
        assert_eq!(Value::Boolean(true).as_number(), Some(1.0));
        assert_eq!(Value::Unbound.as_string(), None);
        // Views borrow; only a blank node's `_:` form, a number and an IRI
        // in two pieces allocate.
        let iri = Value::term(TermRef::Iri("http://x".into())).as_string();
        assert!(matches!(iri, Some(Cow::Borrowed("http://x"))));
        let split = turbohom_rdf::IriRef::new("http://", "x");
        let split = Value::term(TermRef::Iri(split)).as_string();
        assert!(matches!(split, Some(Cow::Owned(s)) if s == "http://x"));
        let blank = Value::term(TermRef::BlankNode("b")).as_string();
        assert!(matches!(blank, Some(Cow::Owned(s)) if s == "_:b"));
    }
}
