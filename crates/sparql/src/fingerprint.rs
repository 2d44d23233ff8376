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

use crate::lexer::{Lexer, Token, TokenKind};
use crate::parser::ParseError;
use std::collections::HashMap;
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

/// Computes the fingerprint of `query` without parsing it.
///
/// Only lexical errors are reported here; a fingerprintable query can still
/// fail to parse (the cache-miss path surfaces that as usual).
pub fn fingerprint(query: &str) -> Result<QueryFingerprint, ParseError> {
    let tokens = Lexer::new(query)
        .tokenize()
        .map_err(|(message, offset)| ParseError { message, offset })?;

    // Pass 1: collect the prologue's PREFIX declarations (`PREFIX p: <iri>`).
    // Only *leading* declarations are lifted — the prologue is the only
    // place the grammar allows them, so a stray `PREFIX` later in the text
    // must stay in the canonical stream (otherwise an invalid query could
    // share a cache key with a valid one).
    let mut prefixes: HashMap<&str, &str> = HashMap::new();
    let mut declaration = vec![false; tokens.len()];
    let mut i = 0;
    loop {
        // `BASE <iri>`: accepted in the prologue and discarded, exactly
        // like the parser does.
        if let [Token {
            kind: TokenKind::Word(w),
            ..
        }, Token {
            kind: TokenKind::Iri(_),
            ..
        }] = &tokens[i..(i + 2).min(tokens.len())]
        {
            if w.eq_ignore_ascii_case("base") {
                declaration[i] = true;
                declaration[i + 1] = true;
                i += 2;
                continue;
            }
        }
        let [Token {
            kind: TokenKind::Word(w),
            ..
        }, Token {
            kind: TokenKind::PrefixedName(prefix, local),
            ..
        }, Token {
            kind: TokenKind::Iri(iri),
            ..
        }] = &tokens[i..(i + 3).min(tokens.len())]
        else {
            break;
        };
        if !(w.eq_ignore_ascii_case("prefix") && local.is_empty()) {
            break;
        }
        prefixes.insert(prefix.as_str(), iri.as_str());
        declaration[i] = true;
        declaration[i + 1] = true;
        declaration[i + 2] = true;
        i += 3;
    }

    // Pass 2: emit the canonical form of every non-declaration token.
    let mut canonical = String::with_capacity(query.len());
    let mut token_count = 0usize;
    for (token, is_declaration) in tokens.iter().zip(&declaration) {
        if *is_declaration || token.kind == TokenKind::Eof {
            continue;
        }
        token_count += 1;
        if !canonical.is_empty() {
            canonical.push(' ');
        }
        match &token.kind {
            TokenKind::PrefixedName(prefix, local) => match prefixes.get(prefix.as_str()) {
                Some(base) => {
                    canonical.push('<');
                    canonical.push_str(base);
                    canonical.push_str(local);
                    canonical.push('>');
                }
                // Undeclared prefix: keep the raw form (the parser will
                // reject the query on the miss path anyway).
                None => {
                    canonical.push_str(prefix);
                    canonical.push(':');
                    canonical.push_str(local);
                }
            },
            TokenKind::Word(w) if w == "a" => {
                // The `a` predicate keyword is sugar for rdf:type.
                canonical.push('<');
                canonical.push_str(vocab::RDF_TYPE);
                canonical.push('>');
            }
            TokenKind::Word(w) => {
                canonical.extend(w.chars().map(|c| c.to_ascii_uppercase()));
            }
            TokenKind::StringLiteral(s) => {
                // Re-escape so a literal containing quotes cannot collide
                // with a differently tokenized query text.
                canonical.push('"');
                for c in s.chars() {
                    match c {
                        '"' => canonical.push_str("\\\""),
                        '\\' => canonical.push_str("\\\\"),
                        '\n' => canonical.push_str("\\n"),
                        '\r' => canonical.push_str("\\r"),
                        '\t' => canonical.push_str("\\t"),
                        c => canonical.push(c),
                    }
                }
                canonical.push('"');
            }
            other => {
                canonical.push_str(&other.to_string());
            }
        }
    }

    Ok(QueryFingerprint {
        hash: fnv1a(FNV_OFFSET, canonical.as_bytes()),
        canonical,
        tokens: token_count,
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
