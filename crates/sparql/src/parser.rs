//! Recursive-descent parser for the SPARQL subset.

use crate::algebra::{GroupPattern, Query, Selection, SparqlTerm, TriplePattern};
use crate::expression::{ArithOp, CompareOp, Expression, Regex};
use crate::lexer::{Lexer, Token, TokenKind};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use turbohom_rdf::{vocab, Term};

/// A parse error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the query string.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL parse error at offset {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a SPARQL query string into the [`Query`] algebra.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let tokens = Lexer::new(input)
        .tokenize()
        .map_err(|(message, offset)| ParseError { message, offset })?;
    Parser::new(tokens).parse()
}

/// Parsed solution modifiers: `ORDER BY` variables, `LIMIT`, `OFFSET`.
type Modifiers = (Vec<String>, Option<usize>, Option<usize>);

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    prefixes: HashMap<&'a str, &'a str>,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser {
            tokens,
            pos: 0,
            prefixes: HashMap::new(),
        }
    }

    // ---- token helpers --------------------------------------------------

    fn peek(&self) -> &TokenKind<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].offset
    }

    fn bump(&mut self) -> TokenKind<'a> {
        let kind = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.offset(),
        })
    }

    fn is_word(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Word(w) if w.eq_ignore_ascii_case(word))
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.is_word(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            self.error(format!(
                "expected keyword `{word}`, found `{}`",
                self.peek()
            ))
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), TokenKind::Punct(p) if *p == c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            self.error(format!("expected `{c}`, found `{}`", self.peek()))
        }
    }

    fn eat_operator(&mut self, op: &str) -> bool {
        if matches!(self.peek(), TokenKind::Operator(o) if *o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    // ---- query structure ------------------------------------------------

    fn parse(mut self) -> Result<Query, ParseError> {
        self.parse_prologue()?;
        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT");
        if !distinct {
            // REDUCED permits duplicates: answering with all of them is correct.
            self.eat_word("REDUCED");
        }
        let selection = self.parse_selection()?;
        // WHERE is technically optional in SPARQL.
        let _ = self.eat_word("WHERE");
        let pattern = self.parse_group()?;
        let (order_by, limit, offset) = self.parse_modifiers()?;
        if !matches!(self.peek(), TokenKind::Eof) {
            return self.error(format!("unexpected trailing token `{}`", self.peek()));
        }
        Ok(Query {
            selection,
            distinct,
            pattern,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_prologue(&mut self) -> Result<(), ParseError> {
        while self.is_word("PREFIX") || self.is_word("BASE") {
            if self.eat_word("BASE") {
                match self.bump() {
                    TokenKind::Iri(_) => {}
                    other => {
                        return self.error(format!("expected IRI after BASE, found `{other}`"))
                    }
                }
                continue;
            }
            self.expect_word("PREFIX")?;
            let prefix = match self.bump() {
                TokenKind::PrefixedName(p, "") => p,
                other => {
                    return self.error(format!("expected `prefix:` after PREFIX, found `{other}`"))
                }
            };
            let iri = match self.bump() {
                TokenKind::Iri(iri) => iri,
                other => return self.error(format!("expected IRI in PREFIX, found `{other}`")),
            };
            self.prefixes.insert(prefix, iri);
        }
        Ok(())
    }

    fn parse_selection(&mut self) -> Result<Selection, ParseError> {
        if self.eat_punct('*') {
            return Ok(Selection::All);
        }
        let mut vars = Vec::new();
        while let TokenKind::Variable(v) = self.peek() {
            vars.push(v.to_string());
            self.bump();
        }
        if vars.is_empty() {
            return self.error("expected `*` or at least one variable after SELECT");
        }
        Ok(Selection::Variables(vars))
    }

    fn parse_modifiers(&mut self) -> Result<Modifiers, ParseError> {
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_word("ORDER") {
                self.expect_word("BY")?;
                loop {
                    match self.peek().clone() {
                        TokenKind::Variable(v) => {
                            order_by.push(v.to_string());
                            self.bump();
                        }
                        TokenKind::Word(w)
                            if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                        {
                            self.bump();
                            self.expect_punct('(')?;
                            match self.bump() {
                                TokenKind::Variable(v) => order_by.push(v.to_string()),
                                other => {
                                    return self.error(format!(
                                        "expected variable in ORDER BY, found `{other}`"
                                    ))
                                }
                            }
                            self.expect_punct(')')?;
                        }
                        _ => break,
                    }
                }
                if order_by.is_empty() {
                    return self.error("empty ORDER BY clause");
                }
            } else if self.eat_word("LIMIT") {
                limit = Some(self.parse_unsigned()?);
            } else if self.eat_word("OFFSET") {
                offset = Some(self.parse_unsigned()?);
            } else {
                break;
            }
        }
        Ok((order_by, limit, offset))
    }

    fn parse_unsigned(&mut self) -> Result<usize, ParseError> {
        match self.bump() {
            TokenKind::Number(n) => n.parse::<usize>().map_err(|_| ParseError {
                message: format!("expected a non-negative integer, found `{n}`"),
                offset: self.offset(),
            }),
            other => self.error(format!("expected a number, found `{other}`")),
        }
    }

    // ---- group patterns ---------------------------------------------------

    fn parse_group(&mut self) -> Result<GroupPattern, ParseError> {
        self.expect_punct('{')?;
        let mut group = GroupPattern::new();
        loop {
            if self.eat_punct('}') {
                break;
            }
            match self.peek() {
                TokenKind::Eof => return self.error("unexpected end of input inside `{ }`"),
                TokenKind::Punct('{') => {
                    // Sub-group, possibly the first branch of a UNION chain.
                    let first = self.parse_group()?;
                    let mut branches = vec![first];
                    while self.eat_word("UNION") {
                        branches.push(self.parse_group()?);
                    }
                    if branches.len() > 1 {
                        group.unions.push(branches);
                    } else {
                        // A plain nested group merges into the parent.
                        let sub = branches.pop().expect("one branch");
                        group.triples.extend(sub.triples);
                        group.optionals.extend(sub.optionals);
                        group.filters.extend(sub.filters);
                        group.unions.extend(sub.unions);
                    }
                    let _ = self.eat_punct('.');
                }
                TokenKind::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.bump();
                    let opt = self.parse_group()?;
                    group.optionals.push(opt);
                    let _ = self.eat_punct('.');
                }
                TokenKind::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.bump();
                    // What is computed from constants alone is folded
                    // once, here.
                    let expr = self.parse_expression()?;
                    group.filters.push(expr.bind(&[]));
                    let _ = self.eat_punct('.');
                }
                TokenKind::Punct('.') | TokenKind::Punct(';') => {
                    self.bump();
                }
                _ => {
                    self.parse_triples_block(&mut group)?;
                }
            }
        }
        Ok(group)
    }

    /// Parses `subject verb objectList (; verb objectList)* .?` into `group`.
    fn parse_triples_block(&mut self, group: &mut GroupPattern) -> Result<(), ParseError> {
        let subject = self.parse_term()?;
        loop {
            let predicate = self.parse_verb()?;
            loop {
                let object = self.parse_term()?;
                group.triples.push(TriplePattern::new(
                    subject.clone(),
                    predicate.clone(),
                    object,
                ));
                if !self.eat_punct(',') {
                    break;
                }
            }
            if self.eat_punct(';') {
                // A dangling `;` before `.` or `}` is allowed.
                if matches!(self.peek(), TokenKind::Punct('.') | TokenKind::Punct('}')) {
                    break;
                }
                continue;
            }
            break;
        }
        let _ = self.eat_punct('.');
        Ok(())
    }

    /// Parses a predicate position: a term or the `a` keyword.
    fn parse_verb(&mut self) -> Result<SparqlTerm, ParseError> {
        if let TokenKind::Word(w) = self.peek() {
            if *w == "a" {
                self.bump();
                return Ok(SparqlTerm::iri(vocab::RDF_TYPE));
            }
        }
        self.parse_term()
    }

    /// Parses a subject/object position.
    fn parse_term(&mut self) -> Result<SparqlTerm, ParseError> {
        match self.bump() {
            TokenKind::Variable(v) => Ok(SparqlTerm::Variable(v.to_string())),
            TokenKind::Iri(iri) => Ok(SparqlTerm::Constant(Term::Iri(iri.to_string()))),
            TokenKind::PrefixedName(prefix, local) => {
                let base = self.resolve_prefix(prefix)?;
                Ok(SparqlTerm::Constant(Term::Iri(format!("{base}{local}"))))
            }
            TokenKind::StringLiteral(value) => {
                Ok(SparqlTerm::Constant(self.finish_literal(value)?))
            }
            TokenKind::Number(n) => Ok(SparqlTerm::Constant(number_literal(n))),
            TokenKind::Word(w) if w.eq_ignore_ascii_case("true") => Ok(SparqlTerm::Constant(
                Term::typed_literal("true", vocab::XSD_BOOLEAN),
            )),
            TokenKind::Word(w) if w.eq_ignore_ascii_case("false") => Ok(SparqlTerm::Constant(
                Term::typed_literal("false", vocab::XSD_BOOLEAN),
            )),
            other => self.error(format!("expected a term, found `{other}`")),
        }
    }

    /// Attaches an optional language tag or datatype to a string literal.
    fn finish_literal(&mut self, value: Cow<'a, str>) -> Result<Term, ParseError> {
        match self.peek().clone() {
            TokenKind::LangTag(lang) => {
                self.bump();
                Ok(Term::lang_literal(value, lang))
            }
            TokenKind::DatatypeMarker => {
                self.bump();
                match self.bump() {
                    TokenKind::Iri(iri) => Ok(Term::typed_literal(value, iri)),
                    TokenKind::PrefixedName(prefix, local) => {
                        let base = self.resolve_prefix(prefix)?;
                        Ok(Term::typed_literal(value, format!("{base}{local}")))
                    }
                    other => self.error(format!("expected datatype IRI, found `{other}`")),
                }
            }
            _ => Ok(Term::literal(value)),
        }
    }

    fn resolve_prefix(&self, prefix: &str) -> Result<&'a str, ParseError> {
        self.prefixes
            .get(prefix)
            .copied()
            .ok_or_else(|| ParseError {
                message: format!("undeclared prefix `{prefix}:`"),
                offset: self.offset(),
            })
    }

    // ---- expressions ------------------------------------------------------

    fn parse_expression(&mut self) -> Result<Expression, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_operator("||") {
            let right = self.parse_and()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_relational()?;
        while self.eat_operator("&&") {
            let right = self.parse_relational()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational(&mut self) -> Result<Expression, ParseError> {
        let left = self.parse_additive()?;
        let op = match self.peek() {
            TokenKind::Operator(o) => match *o {
                "=" => Some(CompareOp::Eq),
                "!=" => Some(CompareOp::Ne),
                "<" => Some(CompareOp::Lt),
                "<=" => Some(CompareOp::Le),
                ">" => Some(CompareOp::Gt),
                ">=" => Some(CompareOp::Ge),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            Ok(Expression::Compare(Box::new(left), op, Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_additive(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            if self.eat_operator("+") {
                let right = self.parse_multiplicative()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Add, Box::new(right));
            } else if self.eat_operator("-") {
                let right = self.parse_multiplicative()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Sub, Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            if self.eat_punct('*') {
                let right = self.parse_unary()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Mul, Box::new(right));
            } else if self.eat_operator("/") {
                let right = self.parse_unary()?;
                left = Expression::Arithmetic(Box::new(left), ArithOp::Div, Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expression, ParseError> {
        if self.eat_operator("!") {
            Ok(Expression::Not(Box::new(self.parse_unary()?)))
        } else if self.eat_operator("-") {
            let inner = self.parse_unary()?;
            Ok(Expression::Arithmetic(
                Box::new(Expression::constant(Term::integer(0))),
                ArithOp::Sub,
                Box::new(inner),
            ))
        } else if self.eat_operator("+") {
            self.parse_unary()
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<Expression, ParseError> {
        match self.peek().clone() {
            TokenKind::Punct('(') => {
                self.bump();
                let inner = self.parse_expression()?;
                self.expect_punct(')')?;
                Ok(inner)
            }
            TokenKind::Variable(v) => {
                self.bump();
                Ok(Expression::Variable(v.to_string()))
            }
            TokenKind::Number(n) => {
                self.bump();
                Ok(Expression::constant(number_literal(n)))
            }
            TokenKind::StringLiteral(s) => {
                self.bump();
                let term = self.finish_literal(s)?;
                Ok(Expression::constant(term))
            }
            TokenKind::Iri(iri) => {
                self.bump();
                Ok(Expression::constant(Term::Iri(iri.to_string())))
            }
            TokenKind::PrefixedName(prefix, local) => {
                self.bump();
                let base = self.resolve_prefix(prefix)?;
                Ok(Expression::constant(Term::Iri(format!("{base}{local}"))))
            }
            TokenKind::Word(w) => self.parse_function_call(w),
            other => self.error(format!("expected an expression, found `{other}`")),
        }
    }

    fn parse_function_call(&mut self, name: &str) -> Result<Expression, ParseError> {
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "TRUE" => {
                self.bump();
                Ok(Expression::constant(Term::typed_literal(
                    "true",
                    vocab::XSD_BOOLEAN,
                )))
            }
            "FALSE" => {
                self.bump();
                Ok(Expression::constant(Term::typed_literal(
                    "false",
                    vocab::XSD_BOOLEAN,
                )))
            }
            "REGEX" => {
                self.bump();
                self.expect_punct('(')?;
                let target = self.parse_expression()?;
                self.expect_punct(',')?;
                let pattern_offset = self.offset();
                let pattern = match self.bump() {
                    TokenKind::StringLiteral(s) => s.into_owned(),
                    other => {
                        return self
                            .error(format!("expected REGEX pattern string, found `{other}`"))
                    }
                };
                let flags = if self.eat_punct(',') {
                    match self.bump() {
                        TokenKind::StringLiteral(s) => Some(s.into_owned()),
                        other => {
                            return self
                                .error(format!("expected REGEX flags string, found `{other}`"))
                        }
                    }
                } else {
                    None
                };
                self.expect_punct(')')?;
                let regex = Regex::new(&pattern, flags.as_deref()).map_err(|e| ParseError {
                    message: e.to_string(),
                    offset: pattern_offset,
                })?;
                Ok(Expression::Regex(Box::new(target), regex))
            }
            "BOUND" => {
                self.bump();
                self.expect_punct('(')?;
                let var = match self.bump() {
                    TokenKind::Variable(v) => v.to_string(),
                    other => {
                        return self.error(format!("expected variable in BOUND, found `{other}`"))
                    }
                };
                self.expect_punct(')')?;
                Ok(Expression::Bound(var))
            }
            "LANG" => {
                self.bump();
                self.expect_punct('(')?;
                let inner = self.parse_expression()?;
                self.expect_punct(')')?;
                Ok(Expression::Lang(Box::new(inner)))
            }
            "DATATYPE" => {
                self.bump();
                self.expect_punct('(')?;
                let inner = self.parse_expression()?;
                self.expect_punct(')')?;
                Ok(Expression::Datatype(Box::new(inner)))
            }
            "STR" => {
                // STR(x) is treated as the identity for our comparison
                // semantics (string views are taken automatically).
                self.bump();
                self.expect_punct('(')?;
                let inner = self.parse_expression()?;
                self.expect_punct(')')?;
                Ok(inner)
            }
            _ => self.error(format!("unsupported function `{name}`")),
        }
    }
}

/// Types a bare number token as an `xsd:integer` or `xsd:double` literal.
fn number_literal(text: &str) -> Term {
    if text.contains('.') || text.contains('e') || text.contains('E') {
        Term::typed_literal(text, vocab::XSD_DOUBLE)
    } else {
        Term::typed_literal(text, vocab::XSD_INTEGER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::CompareOp;
    use turbohom_rdf::TermRef;

    const LUBM_Q1: &str = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
        SELECT ?X WHERE {
            ?X rdf:type ub:GraduateStudent .
            ?X ub:takesCourse <http://www.Department0.University0.edu/GraduateCourse0> .
        }"#;

    #[test]
    fn parses_lubm_q1_shape() {
        let q = parse_query(LUBM_Q1).unwrap();
        assert_eq!(q.selection, Selection::Variables(vec!["X".into()]));
        assert!(!q.distinct);
        assert_eq!(q.pattern.triples.len(), 2);
        let t0 = &q.pattern.triples[0];
        assert_eq!(t0.subject, SparqlTerm::var("X"));
        assert_eq!(t0.predicate, SparqlTerm::iri(vocab::RDF_TYPE));
        assert_eq!(
            t0.object,
            SparqlTerm::iri("http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateStudent")
        );
        assert!(!q.has_general_features());
    }

    #[test]
    fn parses_select_star_and_distinct() {
        let q = parse_query("SELECT DISTINCT * WHERE { ?s ?p ?o . }").unwrap();
        assert!(q.distinct);
        assert_eq!(q.selection, Selection::All);
        assert_eq!(q.projected_variables(), vec!["o", "p", "s"]);
        let t = &q.pattern.triples[0];
        assert!(t.subject.is_variable() && t.predicate.is_variable() && t.object.is_variable());
        // REDUCED is accepted and asks for nothing.
        let q = parse_query("SELECT REDUCED ?s WHERE { ?s ?p ?o . }").unwrap();
        assert!(!q.distinct);
        assert!(parse_query("SELECT DISTINCT REDUCED ?s WHERE { ?s ?p ?o . }").is_err());
    }

    #[test]
    fn parses_a_keyword_and_semicolon_comma_shorthand() {
        let q = parse_query(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?x WHERE { ?x a ex:Product ; ex:feature ex:f1 , ex:f2 . }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 3);
        assert_eq!(
            q.pattern.triples[0].predicate,
            SparqlTerm::iri(vocab::RDF_TYPE)
        );
        assert_eq!(
            q.pattern.triples[1].object,
            SparqlTerm::iri("http://ex.org/f1")
        );
        assert_eq!(
            q.pattern.triples[2].object,
            SparqlTerm::iri("http://ex.org/f2")
        );
        // All three share the same subject variable.
        for t in &q.pattern.triples {
            assert_eq!(t.subject, SparqlTerm::var("x"));
        }
    }

    #[test]
    fn parses_optional_and_nested_optional() {
        let q = parse_query(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?p ?r ?h WHERE {
                 ?p a ex:Product .
                 ?p ex:price ?price .
                 OPTIONAL { ?p ex:rating ?r . OPTIONAL { ?p ex:homepage ?h . } }
               }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 2);
        assert_eq!(q.pattern.optionals.len(), 1);
        let opt = &q.pattern.optionals[0];
        assert_eq!(opt.triples.len(), 1);
        assert_eq!(opt.optionals.len(), 1);
        assert!(q.has_general_features());
    }

    #[test]
    fn parses_filter_expressions() {
        let q = parse_query(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?product WHERE {
                 ?product ex:rating ?r2 .
                 <http://ex.org/product1> ex:rating ?r1 .
                 FILTER (?r2 > ?r1)
                 FILTER (?r2 >= 3 && ?r2 != 10)
               }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.filters.len(), 2);
        match &q.pattern.filters[0] {
            Expression::Compare(_, op, _) => assert_eq!(*op, CompareOp::Gt),
            other => panic!("unexpected filter {other:?}"),
        }
    }

    #[test]
    fn parses_filter_regex_without_parentheses() {
        let q = parse_query(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?p WHERE { ?p ex:label ?l . FILTER regex(?l, "alpha.*beta", "i") }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.filters.len(), 1);
        match &q.pattern.filters[0] {
            Expression::Regex(_, regex) => {
                assert_eq!(*regex, Regex::new("alpha.*beta", Some("i")).unwrap());
                assert_ne!(*regex, Regex::new("alpha.*beta", None).unwrap());
            }
            other => panic!("unexpected filter {other:?}"),
        }
    }

    /// The parse error of `FILTER regex(?l, <pattern> [, <flags>])`, after
    /// checking that it points at the pattern string.
    fn regex_refusal(pattern: &str, flags: Option<&str>) -> String {
        let flags = flags.map_or(String::new(), |f| format!(", \"{f}\""));
        let query = format!(
            "SELECT ?p WHERE {{ ?p <http://ex.org/label> ?l . FILTER regex(?l, \"{pattern}\"{flags}) }}"
        );
        let error = parse_query(&query).unwrap_err();
        assert_eq!(error.offset, query.find(&format!("\"{pattern}")).unwrap());
        error.message
    }

    #[test]
    fn a_regex_alternation_is_refused() {
        assert!(regex_refusal("20|30", None).contains("`|`"));
    }

    #[test]
    fn a_regex_optional_quantifier_is_refused() {
        assert!(regex_refusal("a?", None).contains("`?`"));
    }

    #[test]
    fn a_regex_group_is_refused() {
        assert!(regex_refusal("(ab)+", None).contains("`(`"));
        assert!(regex_refusal("ab)", None).contains("`)`"));
    }

    #[test]
    fn a_regex_character_class_is_refused() {
        assert!(regex_refusal("[ab]", None).contains("`[`"));
        assert!(regex_refusal("ab]", None).contains("`]`"));
    }

    #[test]
    fn a_regex_counted_repetition_is_refused() {
        assert!(regex_refusal("a{2}", None).contains("`{`"));
        assert!(regex_refusal("a}", None).contains("`}`"));
    }

    #[test]
    fn a_regex_flag_other_than_i_is_refused() {
        assert!(regex_refusal("alpha", Some("s")).contains("flag `s`"));
        assert!(regex_refusal("alpha", Some("ix")).contains("flag `x`"));
    }

    #[test]
    fn escaped_metacharacters_and_the_benchmark_patterns_compile() {
        let query = |pattern: &str| {
            format!("SELECT ?l WHERE {{ ?p <http://ex.org/label> ?l . FILTER regex(?l, \"{pattern}\", \"i\") }}")
        };
        // `\\|` in the query text is the pattern `\|`: a literal bar.
        for pattern in [
            r"20\\|30",
            r"a\\?",
            r"\\(\\[\\{\\}\\]\\)",
            "alpha.*number",
            "^solid.*number 12$",
        ] {
            assert!(parse_query(&query(pattern)).is_ok(), "{pattern}");
        }
        let bar = Regex::new(r"20\|30", None).unwrap();
        assert!(bar.is_match("20|30") && !bar.is_match("20"));
    }

    #[test]
    fn parses_union_with_multiple_branches() {
        let q = parse_query(
            r#"PREFIX ex: <http://ex.org/>
               SELECT ?p WHERE {
                 ?p a ex:Product .
                 { ?p ex:feature ex:f1 . } UNION { ?p ex:feature ex:f2 . } UNION { ?p ex:feature ex:f3 . }
               }"#,
        )
        .unwrap();
        assert_eq!(q.pattern.unions.len(), 1);
        assert_eq!(q.pattern.unions[0].len(), 3);
        assert_eq!(q.pattern.expand_unions().len(), 3);
    }

    #[test]
    fn plain_nested_group_merges_into_parent() {
        let q = parse_query("SELECT ?s WHERE { { ?s ?p ?o . } ?o ?q ?r . }").unwrap();
        assert_eq!(q.pattern.triples.len(), 2);
        assert!(q.pattern.unions.is_empty());
    }

    #[test]
    fn parses_modifiers() {
        let q =
            parse_query("SELECT ?s WHERE { ?s ?p ?o . } ORDER BY DESC(?s) ?o LIMIT 10 OFFSET 5")
                .unwrap();
        assert_eq!(q.order_by, vec!["s", "o"]);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn parses_literals_with_datatype_and_language() {
        let q = parse_query(
            r#"PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               SELECT ?s WHERE {
                 ?s <http://ex.org/age> "42"^^xsd:integer .
                 ?s <http://ex.org/name> "Ann"@en .
                 ?s <http://ex.org/score> 3.5 .
                 ?s <http://ex.org/rank> 7 .
               }"#,
        )
        .unwrap();
        let objects: Vec<&Term> = q
            .pattern
            .triples
            .iter()
            .map(|t| t.object.as_constant().unwrap())
            .collect();
        assert_eq!(objects[0], &Term::typed_literal("42", vocab::XSD_INTEGER));
        assert_eq!(objects[1], &Term::lang_literal("Ann", "en"));
        assert_eq!(objects[2], &Term::typed_literal("3.5", vocab::XSD_DOUBLE));
        assert_eq!(objects[3], &Term::typed_literal("7", vocab::XSD_INTEGER));
    }

    #[test]
    fn variable_predicate_is_allowed() {
        let q =
            parse_query("SELECT ?p WHERE { <http://ex.org/s> ?p <http://ex.org/o> . }").unwrap();
        assert!(q.pattern.triples[0].predicate.is_variable());
    }

    #[test]
    fn error_on_undeclared_prefix() {
        let err = parse_query("SELECT ?x WHERE { ?x nope:thing ?y . }").unwrap_err();
        assert!(err.message.contains("undeclared prefix"));
    }

    #[test]
    fn error_on_missing_brace_and_garbage() {
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?y .").is_err());
        assert!(parse_query("SELECT WHERE { }").is_err());
        assert!(parse_query("ASK { ?s ?p ?o }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?y . } garbage").is_err());
    }

    #[test]
    fn error_reports_offset() {
        let err = parse_query("SELECT ?x WHERE { ?x <http://p> } ").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("offset"));
    }

    #[test]
    fn filter_with_arithmetic_parses() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://ex.org/v> ?v . FILTER (?v * 2 + 1 > 10 / 2) }",
        )
        .unwrap();
        assert_eq!(q.pattern.filters.len(), 1);
        // 2*3+1=7 > 5 → for v=3 the filter holds.
        let (three, one) = (Term::integer(3), Term::integer(1));
        let v = |term| {
            let term = TermRef::from(term);
            move |name: &str| (name == "v").then(|| (term, term.numeric_view()))
        };
        assert!(q.pattern.filters[0].evaluate_bool(&v(&three)));
        assert!(!q.pattern.filters[0].evaluate_bool(&v(&one)));
    }

    #[test]
    fn unary_and_bound_in_filters() {
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://p> ?y . OPTIONAL { ?x <http://q> ?z . } FILTER (!BOUND(?z) || ?z > -5) }",
        )
        .unwrap();
        assert_eq!(q.pattern.filters.len(), 1);
        let (zero, minus_ten) = (Term::integer(0), Term::integer(-10));
        let binding = |term| {
            let term = TermRef::from(term);
            (term, term.numeric_view())
        };
        let z = |term| move |name: &str| (name == "z").then_some(term).flatten().map(binding);
        assert!(q.pattern.filters[0].evaluate_bool(&z(None::<&Term>))); // ?z unbound → !BOUND holds
        assert!(q.pattern.filters[0].evaluate_bool(&z(Some(&zero)))); // 0 > -5
        assert!(!q.pattern.filters[0].evaluate_bool(&z(Some(&minus_ten))));
    }
}
