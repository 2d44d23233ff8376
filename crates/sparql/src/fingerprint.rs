//! Query normalization and fingerprinting for plan caching.
//!
//! A prepared-query cache needs a key under which every *spelling* of the
//! same query collides and distinct queries never do. Full parsing would
//! give that, but it is exactly the work the cache is supposed to skip — so
//! the fingerprint works on the token stream instead:
//!
//! 1. the lexer already erases whitespace, comments and the `?`/`$` variable
//!    sigil distinction,
//! 2. `PREFIX` declarations are lifted out of the stream and every prefixed
//!    name is expanded to its full IRI (making the fingerprint independent
//!    of declaration order, prefix spelling and prefixed-vs-full-IRI form),
//! 3. the `a` predicate keyword is expanded to the `rdf:type` IRI,
//! 4. keywords are upper-cased (SPARQL keywords are case-insensitive),
//! 5. the canonical tokens are joined with single spaces and hashed
//!    (64-bit FNV-1a).
//!
//! Cache implementations should key on [`QueryFingerprint::canonical`] (the
//! full normalized text, collision-free by construction) and use
//! [`QueryFingerprint::hash`] for display and statistics.

use crate::lexer::{Lexer, TokenKind};
use crate::parser::ParseError;
use std::fmt;
use turbohom_rdf::vocab;
use turbohom_storage::{fnv1a, FNV_OFFSET};

/// The normalized identity of one query text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryFingerprint {
    /// 64-bit FNV-1a hash of [`canonical`](Self::canonical).
    pub hash: u64,
    /// The canonical query text: prefix-expanded tokens joined by spaces.
    pub canonical: String,
    /// Number of canonical tokens (prologue declarations and EOF excluded).
    /// A cheap size measure for observability: the service attaches it to
    /// the `fingerprint` span so profiles show how big a query was without
    /// shipping its text.
    pub tokens: usize,
}

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.hash)
    }
}

/// The prologue's `PREFIX` declarations, `(prefix, iri)` in order. A handful
/// at most, so a scan beats a map, and the first eight live inline: the
/// usual query allocates nothing for them.
#[derive(Default)]
struct Prefixes<'a> {
    inline: [(&'a str, &'a str); 8],
    inline_len: usize,
    more: Vec<(&'a str, &'a str)>,
}

impl<'a> Prefixes<'a> {
    fn declare(&mut self, prefix: &'a str, iri: &'a str) {
        match self.inline.get_mut(self.inline_len) {
            Some(slot) => {
                *slot = (prefix, iri);
                self.inline_len += 1;
            }
            None => self.more.push((prefix, iri)),
        }
    }

    /// The IRI `prefix` stands for; its last declaration wins.
    fn resolve(&self, prefix: &str) -> Option<&'a str> {
        let inline = &self.inline[..self.inline_len];
        let mut declarations = self.more.iter().rev().chain(inline.iter().rev());
        declarations
            .find(|(declared, _)| *declared == prefix)
            .map(|(_, iri)| *iri)
    }
}

/// The canonical text under construction: the tokens emitted so far and the
/// prologue's declarations they are expanded with.
struct Canonical<'a> {
    text: String,
    tokens: usize,
    prefixes: Prefixes<'a>,
}

impl<'a> Canonical<'a> {
    /// Appends the canonical form of one token (nothing for the end of the
    /// input).
    fn emit(&mut self, kind: &TokenKind<'a>) {
        if *kind == TokenKind::Eof {
            return;
        }
        self.tokens += 1;
        let out = &mut self.text;
        if !out.is_empty() {
            out.push(' ');
        }
        match kind {
            TokenKind::PrefixedName(prefix, local) => {
                match self.prefixes.resolve(prefix) {
                    Some(base) => {
                        out.push('<');
                        out.push_str(base);
                        out.push_str(local);
                        out.push('>');
                    }
                    // Undeclared prefix: keep the raw form (the parser will
                    // reject the query on the miss path anyway).
                    None => {
                        out.push_str(prefix);
                        out.push(':');
                        out.push_str(local);
                    }
                }
            }
            TokenKind::Word("a") => {
                // The `a` predicate keyword is sugar for rdf:type.
                out.push('<');
                out.push_str(vocab::RDF_TYPE);
                out.push('>');
            }
            TokenKind::Word(w) => {
                let at = out.len();
                out.push_str(w);
                out[at..].make_ascii_uppercase();
            }
            TokenKind::StringLiteral(s) => {
                // Re-escape so a literal containing quotes cannot collide
                // with a differently tokenized query text.
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            TokenKind::Iri(iri) => {
                out.push('<');
                out.push_str(iri);
                out.push('>');
            }
            TokenKind::Variable(v) => {
                out.push('?');
                out.push_str(v);
            }
            TokenKind::LangTag(tag) => {
                out.push('@');
                out.push_str(tag);
            }
            TokenKind::DatatypeMarker => out.push_str("^^"),
            TokenKind::Number(text) | TokenKind::Operator(text) => out.push_str(text),
            TokenKind::Punct(c) => out.push(*c),
            TokenKind::Eof => {}
        }
    }
}

/// Computes the fingerprint of `query` without parsing it: one pass of the
/// lexer, each token written straight into the canonical text.
///
/// Only lexical errors are reported here; a fingerprintable query can still
/// fail to parse (the cache-miss path surfaces that as usual).
pub fn fingerprint(query: &str) -> Result<QueryFingerprint, ParseError> {
    let mut lexer = Lexer::new(query);
    let mut next = move || {
        lexer
            .next_token()
            .map(|token| token.kind)
            .map_err(|(message, offset)| ParseError { message, offset })
    };
    let mut canonical = Canonical {
        text: String::with_capacity(query.len()),
        tokens: 0,
        prefixes: Prefixes::default(),
    };

    // The prologue: `PREFIX p: <iri>` declarations are collected and `BASE
    // <iri>` is discarded, exactly like the parser does. Only *leading*
    // declarations are lifted — the prologue is the only place the grammar
    // allows them, so a stray `PREFIX` later in the text must stay in the
    // canonical stream (otherwise an invalid query could share a cache key
    // with a valid one). What starts like a declaration and is none ends the
    // prologue and is emitted as it stands.
    loop {
        let mut read = [next()?, TokenKind::Eof, TokenKind::Eof];
        if let TokenKind::Word(w) = read[0] {
            if w.eq_ignore_ascii_case("base") {
                read[1] = next()?;
                if matches!(read[1], TokenKind::Iri(_)) {
                    continue;
                }
            } else if w.eq_ignore_ascii_case("prefix") {
                read[1] = next()?;
                if let TokenKind::PrefixedName(prefix, "") = read[1] {
                    read[2] = next()?;
                    if let TokenKind::Iri(iri) = read[2] {
                        canonical.prefixes.declare(prefix, iri);
                        continue;
                    }
                }
            }
        }
        for kind in &read {
            canonical.emit(kind);
        }
        break;
    }
    loop {
        let kind = next()?;
        if kind == TokenKind::Eof {
            break;
        }
        canonical.emit(&kind);
    }

    Ok(QueryFingerprint {
        hash: fnv1a(FNV_OFFSET, canonical.text.as_bytes()),
        canonical: canonical.text,
        tokens: canonical.tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(q: &str) -> QueryFingerprint {
        fingerprint(q).unwrap()
    }

    #[test]
    fn whitespace_and_comments_are_erased() {
        let a = fp("SELECT ?x WHERE { ?x <http://p> ?y . }");
        let b = fp("select\n\t?x  # projection\nwhere {\n  ?x <http://p> ?y .\n}\n");
        assert_eq!(a, b);
        // Logs and caches of other processes carry this value: it must
        // never change.
        assert_eq!(a.hash, 0xe71b_4a90_fce2_0e4a);
        let c = fp("SELECT ?x WHERE { ?x <http://q> ?y . }");
        assert_ne!(a, c);
    }

    #[test]
    fn prefix_order_and_spelling_do_not_matter() {
        let a = fp(
            "PREFIX ub: <http://ub.org/> PREFIX rdf: <http://w3.org/rdf#> \
             SELECT ?x WHERE { ?x rdf:type ub:Student . }",
        );
        let b = fp(
            "PREFIX rdf: <http://w3.org/rdf#> PREFIX ub: <http://ub.org/> \
             SELECT ?x WHERE { ?x rdf:type ub:Student . }",
        );
        let c = fp("PREFIX u: <http://ub.org/> PREFIX r: <http://w3.org/rdf#> \
             SELECT ?x WHERE { ?x r:type u:Student . }");
        let d = fp("SELECT ?x WHERE { ?x <http://w3.org/rdf#type> <http://ub.org/Student> . }");
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
    }

    #[test]
    fn a_keyword_expands_to_rdf_type() {
        let a = fp("SELECT ?x WHERE { ?x a <http://ub.org/Student> . }");
        let b = fp("PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
             SELECT ?x WHERE { ?x rdf:type <http://ub.org/Student> . }");
        assert_eq!(a, b);
    }

    #[test]
    fn variable_sigil_is_normalized() {
        assert_eq!(
            fp("SELECT ?x WHERE { ?x <http://p> ?y . }"),
            fp("SELECT $x WHERE { $x <http://p> $y . }")
        );
        // ... but renaming a variable is a different query.
        assert_ne!(
            fp("SELECT ?x WHERE { ?x <http://p> ?y . }"),
            fp("SELECT ?z WHERE { ?z <http://p> ?y . }")
        );
    }

    #[test]
    fn keyword_case_is_insensitive_but_literals_are_not() {
        assert_eq!(
            fp("SELECT ?x WHERE { ?x <http://p> \"v\" . }"),
            fp("sElEcT ?x wHeRe { ?x <http://p> \"v\" . }")
        );
        assert_ne!(
            fp("SELECT ?x WHERE { ?x <http://p> \"v\" . }"),
            fp("SELECT ?x WHERE { ?x <http://p> \"V\" . }")
        );
    }

    #[test]
    fn base_declarations_are_discarded_like_the_parser_does() {
        let plain = fp("PREFIX p: <http://x/> SELECT ?v WHERE { ?v p:q ?o . }");
        let with_base =
            fp("BASE <http://b/> PREFIX p: <http://x/> SELECT ?v WHERE { ?v p:q ?o . }");
        let base_between =
            fp("PREFIX p: <http://x/> BASE <http://b/> SELECT ?v WHERE { ?v p:q ?o . }");
        assert_eq!(plain, with_base);
        assert_eq!(plain, base_between);
    }

    #[test]
    fn any_number_of_prefixes_resolves_and_the_last_declaration_wins() {
        // More declarations than the inline table holds, one of them
        // repeated behind it.
        let prologue: String = (0..12)
            .map(|i| format!("PREFIX p{i}: <http://ns{i}/> "))
            .collect();
        let f = fp(&format!(
            "{prologue} PREFIX p1: <http://late/> \
             SELECT ?x WHERE {{ ?x p11:a p1:b . ?x p0:c p2:d }}"
        ));
        assert_eq!(
            f.canonical,
            "SELECT ?x WHERE { ?x <http://ns11/a> <http://late/b> . \
             ?x <http://ns0/c> <http://ns2/d> }"
        );
    }

    #[test]
    fn only_prologue_prefixes_are_lifted() {
        // A PREFIX declaration *after* the body is invalid SPARQL (the
        // parser rejects it); it must not canonicalize to the same key as
        // the valid prologue form, or a warm cache would serve results for
        // a query a cold service rejects.
        let valid = fp("PREFIX p: <http://x/> SELECT ?v WHERE { ?v p:q ?w . }");
        let invalid = fingerprint("SELECT ?v WHERE { ?v p:q ?w . } PREFIX p: <http://x/>").unwrap();
        assert_ne!(valid, invalid);
        assert!(invalid.canonical.contains("PREFIX"));
    }

    #[test]
    fn lexical_errors_are_reported() {
        let err = fingerprint("SELECT ~").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn display_is_the_hex_hash() {
        let f = fp("SELECT ?x WHERE { ?x <http://p> ?y . }");
        assert_eq!(f.to_string(), format!("{:016x}", f.hash));
    }

    #[test]
    fn token_count_excludes_prologue_and_eof() {
        // SELECT ?x WHERE { ?x <http://p> ?y . } → 9 canonical tokens.
        let f = fp("SELECT ?x WHERE { ?x <http://p> ?y . }");
        assert_eq!(f.tokens, 9);
        // Prologue declarations are lifted out, so an equivalent prefixed
        // spelling reports the same count.
        let g = fp("PREFIX e: <http://> SELECT ?x WHERE { ?x e:p ?y . }");
        assert_eq!(g.tokens, 9);
    }
}
