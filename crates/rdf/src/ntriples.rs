//! A line-oriented N-Triples parser and serializer.
//!
//! N-Triples is the simplest W3C RDF serialization: one triple per line,
//! terms in full (no prefixes), terminated by a dot. It is what the examples
//! and test fixtures use and what [`Dataset`]s round-trip through.
//!
//! The parser is hand written (no external dependency), tolerant of blank
//! lines and `#` comments, and reports precise line numbers on error.

use crate::error::RdfError;
use crate::term::Term;
use crate::triple::Dataset;

/// Parses a complete N-Triples document into a [`Dataset`].
///
/// Duplicate triples are silently deduplicated (set semantics, as RDF
/// prescribes).
pub fn parse_ntriples(input: &str) -> Result<Dataset, RdfError> {
    let mut dataset = Dataset::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_ntriples_line(line).map_err(|message| RdfError::Parse {
            line: lineno + 1,
            message,
        })?;
        dataset.insert(&s, &p, &o);
    }
    Ok(dataset)
}

/// Parses a single N-Triples statement (without surrounding whitespace)
/// into its three terms. Returns a plain error message; the caller attaches
/// the line number.
pub fn parse_ntriples_line(line: &str) -> Result<(Term, Term, Term), String> {
    let mut cursor = Cursor::new(line);
    let s = cursor.parse_term()?;
    cursor.skip_ws();
    let p = cursor.parse_term()?;
    cursor.skip_ws();
    let o = cursor.parse_term()?;
    cursor.skip_ws();
    cursor.expect('.')?;
    cursor.skip_ws();
    // N-Triples 1.1: a comment may follow the terminator, nothing else may.
    if !cursor.at_end() && cursor.peek() != Some('#') {
        return Err(format!(
            "unexpected trailing characters: {:?}",
            cursor.rest()
        ));
    }
    if p.is_literal() || p.is_blank() {
        return Err("predicate must be an IRI".to_string());
    }
    if s.is_literal() {
        return Err("subject must not be a literal".to_string());
    }
    Ok((s, p, o))
}

/// Serializes a [`Dataset`] as an N-Triples document (one line per triple,
/// insertion order).
pub fn serialize_ntriples(dataset: &Dataset) -> String {
    let mut out = String::new();
    for triple in dataset.triples.iter() {
        let (s, p, o) = dataset.decode(triple);
        out.push_str(&format!("{s} {p} {o} .\n"));
    }
    out
}

/// A tiny character cursor over one line.
struct Cursor<'a> {
    input: &'a str,
    chars: Vec<char>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a str) -> Self {
        Cursor {
            input,
            chars: input.chars().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn rest(&self) -> String {
        self.chars[self.pos.min(self.chars.len())..]
            .iter()
            .collect()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, expected: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(format!("expected {expected:?}, found {c:?}")),
            None => Err(format!("expected {expected:?}, found end of line")),
        }
    }

    fn parse_term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        match self.peek() {
            Some('<') => self.parse_iri(),
            Some('_') => self.parse_blank(),
            Some('"') => self.parse_literal(),
            Some(c) => Err(format!("unexpected character {c:?} in {:?}", self.input)),
            None => Err("unexpected end of line while expecting a term".to_string()),
        }
    }

    fn parse_iri(&mut self) -> Result<Term, String> {
        self.expect('<')?;
        let mut iri = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if c.is_whitespace() => {
                    return Err("whitespace inside IRI".to_string());
                }
                Some(c) => iri.push(c),
                None => return Err("unterminated IRI".to_string()),
            }
        }
        if iri.is_empty() {
            return Err("empty IRI".to_string());
        }
        Ok(Term::Iri(iri))
    }

    fn parse_blank(&mut self) -> Result<Term, String> {
        self.expect('_')?;
        self.expect(':')?;
        let mut label = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '-' || c == '_' || c == '.' {
                label.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        // A trailing '.' belongs to the statement terminator, not the label.
        while label.ends_with('.') {
            label.pop();
            self.pos -= 1;
        }
        if label.is_empty() {
            return Err("empty blank node label".to_string());
        }
        Ok(Term::BlankNode(label))
    }

    fn parse_literal(&mut self) -> Result<Term, String> {
        self.expect('"')?;
        let mut lexical = String::new();
        loop {
            match self.bump() {
                Some('"') => break,
                Some('\\') => match self.bump() {
                    Some('n') => lexical.push('\n'),
                    Some('r') => lexical.push('\r'),
                    Some('t') => lexical.push('\t'),
                    Some('"') => lexical.push('"'),
                    Some('\\') => lexical.push('\\'),
                    Some('u') => {
                        let mut hex = String::new();
                        for _ in 0..4 {
                            hex.push(self.bump().ok_or("truncated \\u escape")?);
                        }
                        let cp = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape: {hex}"))?;
                        lexical.push(char::from_u32(cp).ok_or("invalid unicode code point")?);
                    }
                    Some(c) => return Err(format!("unknown escape \\{c}")),
                    None => return Err("unterminated escape".to_string()),
                },
                Some(c) => lexical.push(c),
                None => return Err("unterminated literal".to_string()),
            }
        }
        // Optional language tag or datatype.
        match self.peek() {
            Some('@') => {
                self.pos += 1;
                let mut lang = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '-' {
                        lang.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if lang.is_empty() {
                    return Err("empty language tag".to_string());
                }
                Ok(Term::Literal {
                    lexical,
                    datatype: None,
                    language: Some(lang),
                })
            }
            Some('^') => {
                self.pos += 1;
                self.expect('^')?;
                let dt = self.parse_iri()?;
                match dt {
                    Term::Iri(iri) => Ok(Term::Literal {
                        lexical,
                        datatype: Some(iri),
                        language: None,
                    }),
                    _ => unreachable!("parse_iri only returns IRIs"),
                }
            }
            _ => Ok(Term::Literal {
                lexical,
                datatype: None,
                language: None,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    #[test]
    fn parses_simple_document() {
        let doc = r#"
# a comment
<http://ex.org/alice> <http://ex.org/knows> <http://ex.org/bob> .
<http://ex.org/alice> <http://ex.org/name> "Alice" .

<http://ex.org/bob> <http://ex.org/age> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
"#;
        let ds = parse_ntriples(doc).unwrap();
        assert_eq!(ds.len(), 3);
        // alice, knows, bob, name, "Alice", age, "42"^^xsd:integer
        assert_eq!(ds.dictionary.len(), 7);
    }

    #[test]
    fn parses_blank_nodes_and_lang_literals() {
        let doc = "_:b0 <http://ex.org/says> \"bonjour\"@fr .\n";
        let ds = parse_ntriples(doc).unwrap();
        assert_eq!(ds.len(), 1);
        let t = *ds.triples.iter().next().unwrap();
        let (s, _p, o) = ds.decode(&t);
        assert_eq!(s, Term::blank("b0"));
        assert_eq!(o, Term::lang_literal("bonjour", "fr"));
    }

    #[test]
    fn parses_escapes_in_literals() {
        let doc = r#"<http://s> <http://p> "line1\nline2 \"quoted\" \\ tab\t" ."#;
        let ds = parse_ntriples(doc).unwrap();
        let t = *ds.triples.iter().next().unwrap();
        let (_, _, o) = ds.decode(&t);
        assert_eq!(o.as_literal().unwrap(), "line1\nline2 \"quoted\" \\ tab\t");
    }

    #[test]
    fn parses_unicode_escape() {
        let doc = r#"<http://s> <http://p> "été" ."#;
        let ds = parse_ntriples(doc).unwrap();
        let t = *ds.triples.iter().next().unwrap();
        let (_, _, o) = ds.decode(&t);
        assert_eq!(o.as_literal().unwrap(), "été");
    }

    #[test]
    fn rejects_missing_dot() {
        let doc = "<http://s> <http://p> <http://o>";
        let err = parse_ntriples(doc).unwrap_err();
        assert!(matches!(err, RdfError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_literal_subject_and_predicate() {
        assert!(parse_ntriples("\"lit\" <http://p> <http://o> .").is_err());
        assert!(parse_ntriples("<http://s> \"lit\" <http://o> .").is_err());
        assert!(parse_ntriples("<http://s> _:b <http://o> .").is_err());
    }

    #[test]
    fn rejects_garbage_and_reports_line_number() {
        let doc = "<http://s> <http://p> <http://o> .\nthis is not a triple\n";
        match parse_ntriples(doc) {
            Err(RdfError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unterminated_iri_and_literal() {
        assert!(parse_ntriples("<http://s <http://p> <http://o> .").is_err());
        assert!(parse_ntriples("<http://s> <http://p> \"oops .").is_err());
    }

    #[test]
    fn serialization_round_trips() {
        let mut ds = Dataset::new();
        ds.insert_iris("http://ex.org/a", vocab::RDF_TYPE, "http://ex.org/T");
        ds.insert(
            &Term::iri("http://ex.org/a"),
            &Term::iri("http://ex.org/name"),
            &Term::literal("Ann \"the\" admin\n"),
        );
        ds.insert(
            &Term::iri("http://ex.org/a"),
            &Term::iri("http://ex.org/age"),
            &Term::typed_literal("39", vocab::XSD_INTEGER),
        );
        let text = serialize_ntriples(&ds);
        let back = parse_ntriples(&text).unwrap();
        assert_eq!(back.len(), ds.len());
        // Every original triple must exist in the re-parsed dataset (compare decoded).
        let decoded_back: std::collections::HashSet<_> =
            back.triples.iter().map(|t| back.decode(t)).collect();
        for t in ds.triples.iter() {
            assert!(decoded_back.contains(&ds.decode(t)));
        }
    }

    #[test]
    fn a_comment_may_follow_the_terminator_and_nothing_else_may() {
        let doc = "<http://s> <http://p> <http://o> . # note\r\n\
                   <http://s> <http://p> \"x\" .# no space, <not> \"parsed\" .\n\
                   _:b <http://p> _:c.#tight\n";
        let ds = parse_ntriples(doc).unwrap();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dictionary.len(), 6);

        // A `#` inside an IRI or a literal is part of the term.
        let (s, _, o) =
            parse_ntriples_line("<http://ex.org/a#b> <http://p> \"a # b\" . # c").unwrap();
        assert_eq!(s, Term::iri("http://ex.org/a#b"));
        assert_eq!(o, Term::literal("a # b"));

        for bad in [
            "<http://s> <http://p> <http://o> . x",
            "<http://s> <http://p> <http://o> . <http://x> # c",
            "<http://s> <http://p> <http://o> # c",
            "<http://s> <http://p> # <http://o> .",
        ] {
            assert!(parse_ntriples_line(bad).is_err(), "{bad}");
        }
        let err = parse_ntriples_line("<http://s> <http://p> <http://o> . x").unwrap_err();
        assert!(err.contains("unexpected trailing characters"), "{err}");
    }

    #[test]
    fn whitespace_variations_are_tolerated() {
        let doc = "   <http://s>\t\t<http://p>   \"x\"   .   ";
        let ds = parse_ntriples(doc).unwrap();
        assert_eq!(ds.len(), 1);
    }
}
