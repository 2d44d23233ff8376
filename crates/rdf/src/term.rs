//! The RDF term model: IRIs, blank nodes and literals.
//!
//! Terms are the *decoded* (string) form of RDF nodes. The matching engine
//! never touches them at query time — everything is dictionary encoded into
//! [`TermId`](crate::dictionary::TermId)s first — but the parser, the dataset
//! generators and result rendering all work in terms of [`Term`].

use crate::error::RdfError;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// An RDF term: the subject, predicate or object of a triple.
///
/// The representation follows the RDF 1.1 abstract syntax restricted to what
/// the benchmarks in the paper need:
///
/// * IRIs (subjects, predicates, objects),
/// * blank nodes (subjects, objects),
/// * literals — plain, language tagged or datatyped (objects only).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI such as `http://example.org/alice`.
    Iri(String),
    /// A blank node with a local label, e.g. `_:b0`.
    BlankNode(String),
    /// A literal with optional datatype IRI or language tag.
    Literal {
        /// The lexical form, e.g. `"42"` or `"john@dept1.univ1.edu"`.
        lexical: String,
        /// Datatype IRI, if any (e.g. `http://www.w3.org/2001/XMLSchema#integer`).
        datatype: Option<String>,
        /// Language tag, if any (e.g. `en`). Mutually exclusive with `datatype`.
        language: Option<String>,
    },
}

impl Term {
    /// Creates an IRI term.
    pub fn iri(value: impl Into<String>) -> Self {
        Term::Iri(value.into())
    }

    /// Creates a blank node term from a local label (without the `_:` prefix).
    pub fn blank(label: impl Into<String>) -> Self {
        Term::BlankNode(label.into())
    }

    /// Creates a plain literal (no datatype, no language tag).
    pub fn literal(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: None,
        }
    }

    /// Creates a typed literal.
    pub fn typed_literal(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: Some(datatype.into()),
            language: None,
        }
    }

    /// Creates a language-tagged literal.
    pub fn lang_literal(lexical: impl Into<String>, language: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            datatype: None,
            language: Some(language.into()),
        }
    }

    /// Creates an integer literal with the `xsd:integer` datatype.
    pub fn integer(value: i64) -> Self {
        Term::typed_literal(value.to_string(), crate::vocab::XSD_INTEGER)
    }

    /// Creates a double literal with the `xsd:double` datatype.
    pub fn double(value: f64) -> Self {
        Term::typed_literal(format!("{value}"), crate::vocab::XSD_DOUBLE)
    }

    /// Returns `true` if the term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::BlankNode(_))
    }

    /// Returns `true` if the term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// Returns the IRI value if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// Returns the lexical form if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// Attempts to interpret a literal as an `i64`.
    ///
    /// Plain and `xsd:integer`/`xsd:int`/`xsd:long` typed literals are
    /// accepted; everything else yields `None`.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Term::Literal { lexical, .. } => lexical.trim().parse::<i64>().ok(),
            _ => None,
        }
    }

    /// Validates basic well-formedness of the term.
    ///
    /// IRIs must be non-empty and free of whitespace and angle brackets;
    /// literals may not carry both a datatype and a language tag.
    pub fn validate(&self) -> Result<(), RdfError> {
        match self {
            Term::Iri(iri) => {
                if iri.is_empty()
                    || iri.chars().any(|c| {
                        c.is_whitespace()
                            || c == '<'
                            || c == '>'
                            || c == '"'
                            || c == '{'
                            || c == '}'
                    })
                {
                    Err(RdfError::InvalidIri(iri.clone()))
                } else {
                    Ok(())
                }
            }
            Term::BlankNode(label) => {
                if label.is_empty() || label.chars().any(|c| c.is_whitespace()) {
                    Err(RdfError::InvalidIri(format!("_:{label}")))
                } else {
                    Ok(())
                }
            }
            Term::Literal {
                datatype, language, ..
            } => {
                if datatype.is_some() && language.is_some() {
                    Err(RdfError::InvalidLiteral(self.to_string()))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Escapes the characters N-Triples requires to be escaped in literals.
    fn escape_literal(lexical: &str) -> Cow<'_, str> {
        if lexical
            .chars()
            .any(|c| c == '\\' || c == '"' || c == '\n' || c == '\r' || c == '\t')
        {
            let mut out = String::with_capacity(lexical.len() + 4);
            for c in lexical.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    other => out.push(other),
                }
            }
            Cow::Owned(out)
        } else {
            Cow::Borrowed(lexical)
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        TermRef::from(self).fmt(f)
    }
}

/// Compares the strings `a` and `b` spell, each given in two pieces, byte
/// for byte: what a whole-string compare would answer, wherever either split
/// falls.
pub(crate) fn cmp_pieces(a: [&[u8]; 2], b: [&[u8]; 2]) -> Ordering {
    let ([mut a, mut a_rest], [mut b, mut b_rest]) = (a, b);
    loop {
        if a.is_empty() {
            if a_rest.is_empty() {
                return if b.is_empty() && b_rest.is_empty() {
                    Ordering::Equal
                } else {
                    Ordering::Less
                };
            }
            a = std::mem::take(&mut a_rest);
            continue;
        }
        if b.is_empty() {
            if b_rest.is_empty() {
                return Ordering::Greater;
            }
            b = std::mem::take(&mut b_rest);
            continue;
        }
        let n = a.len().min(b.len());
        match a[..n].cmp(&b[..n]) {
            Ordering::Equal => (a, b) = (&a[n..], &b[n..]),
            unequal => return unequal,
        }
    }
}

/// Whether `byte` ends an IRI's namespace: a `/` or a `#`.
pub(crate) fn ends_namespace(byte: u8) -> bool {
    byte == b'/' || byte == b'#'
}

/// A borrowed IRI in two pieces: a namespace and a local name, which spell
/// the IRI one after the other. The dictionary stores every IRI so, split
/// after its last `/` or `#` ([`IriRef::split`]), with each namespace stored
/// once; an IRI viewed from a [`Term`] is one piece (an empty namespace).
///
/// Everything a reader sees of it is of the whole text, wherever the split
/// falls: equality, order and display. A view from the dictionary and
/// one from a `Term` of the same IRI are equal.
#[derive(Clone, Copy)]
pub struct IriRef<'a> {
    namespace: &'a str,
    local: &'a str,
}

impl<'a> IriRef<'a> {
    /// The IRI `namespace` followed by `local`, split where it is given.
    pub fn new(namespace: &'a str, local: &'a str) -> Self {
        IriRef { namespace, local }
    }

    /// `iri` split after its last `/` or `#`: the namespace ends in one of
    /// them (or is empty, when `iri` has neither) and the local name holds
    /// neither. The one split the dictionary stores.
    pub fn split(iri: &'a str) -> Self {
        let at = iri.bytes().rposition(ends_namespace).map_or(0, |i| i + 1);
        let (namespace, local) = iri.split_at(at);
        IriRef { namespace, local }
    }

    /// The first piece.
    pub fn namespace(self) -> &'a str {
        self.namespace
    }

    /// The second piece.
    pub fn local(self) -> &'a str {
        self.local
    }

    /// The length of the whole text in bytes.
    pub fn len(self) -> usize {
        self.namespace.len() + self.local.len()
    }

    /// Whether the IRI is the empty string.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The whole text: borrowed when one piece is empty, else copied into
    /// one string.
    pub fn text(self) -> Cow<'a, str> {
        match (self.namespace, self.local) {
            ("", whole) | (whole, "") => Cow::Borrowed(whole),
            (namespace, local) => Cow::Owned([namespace, local].concat()),
        }
    }

    fn pieces(&self) -> [&'a [u8]; 2] {
        [self.namespace.as_bytes(), self.local.as_bytes()]
    }
}

impl<'a> From<&'a str> for IriRef<'a> {
    /// The IRI `iri` as one piece.
    fn from(iri: &'a str) -> Self {
        IriRef::new("", iri)
    }
}

impl PartialEq for IriRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && cmp_pieces(self.pieces(), other.pieces()).is_eq()
    }
}

impl Eq for IriRef<'_> {}

impl PartialOrd for IriRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IriRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_pieces(self.pieces(), other.pieces())
    }
}

impl fmt::Display for IriRef<'_> {
    /// The whole text, unescaped.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.namespace)?;
        f.write_str(self.local)
    }
}

impl fmt::Debug for IriRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.text(), f)
    }
}

/// A borrowed view of a [`Term`]: the same three shapes over `&str`s that
/// live in a dictionary (its `Term`s, or the string arena of a snapshot), an
/// IRI as its two pieces ([`IriRef`]).
///
/// The result path filters and serialises through these views, so no `Term`
/// is cloned between the enumerator and the socket: a FILTER expression
/// reads the views its variables are bound to through a lookup
/// (`turbohom_sparql::Expression::evaluate`), the writer the views of every
/// cell. Variant and field order
/// mirror [`Term`] exactly, which makes the derived ordering identical to
/// `Term`'s derived `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TermRef<'a> {
    /// An IRI.
    Iri(IriRef<'a>),
    /// A blank node label (without the `_:` prefix).
    BlankNode(&'a str),
    /// A literal with optional datatype IRI or language tag.
    Literal {
        /// The lexical form.
        lexical: &'a str,
        /// Datatype IRI, if any.
        datatype: Option<&'a str>,
        /// Language tag, if any.
        language: Option<&'a str>,
    },
}

impl<'a> From<&'a Term> for TermRef<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(iri) => TermRef::Iri(IriRef::from(iri.as_str())),
            Term::BlankNode(label) => TermRef::BlankNode(label),
            Term::Literal {
                lexical,
                datatype,
                language,
            } => TermRef::Literal {
                lexical,
                datatype: datatype.as_deref(),
                language: language.as_deref(),
            },
        }
    }
}

impl TermRef<'_> {
    /// The term's numeric view, which a FILTER compares it by when the other
    /// side has one too: a literal's lexical form, trimmed and parsed as an
    /// `f64` (whatever its datatype or language tag; `"NaN"` is NaN); none for
    /// a form that does not parse, an IRI or a blank node. The dictionary
    /// stores it with each term, so query execution reads it and never parses.
    pub fn numeric_view(self) -> Option<f64> {
        match self {
            TermRef::Literal { lexical, .. } => lexical.trim().parse().ok(),
            TermRef::Iri(_) | TermRef::BlankNode(_) => None,
        }
    }

    /// Copies the view into an owned [`Term`].
    pub fn to_term(self) -> Term {
        match self {
            TermRef::Iri(iri) => Term::Iri(iri.text().into_owned()),
            TermRef::BlankNode(label) => Term::BlankNode(label.to_owned()),
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => Term::Literal {
                lexical: lexical.to_owned(),
                datatype: datatype.map(str::to_owned),
                language: language.map(str::to_owned),
            },
        }
    }
}

impl fmt::Display for TermRef<'_> {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermRef::Iri(iri) => write!(f, "<{iri}>"),
            TermRef::BlankNode(label) => write!(f, "_:{label}"),
            TermRef::Literal {
                lexical,
                datatype,
                language,
            } => {
                write!(f, "\"{}\"", Term::escape_literal(lexical))?;
                if let Some(lang) = language {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab;

    #[test]
    fn iri_display_is_angle_bracketed() {
        assert_eq!(
            Term::iri("http://ex.org/a").to_string(),
            "<http://ex.org/a>"
        );
    }

    #[test]
    fn blank_node_display() {
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Term::literal("hello").to_string(), "\"hello\"");
    }

    #[test]
    fn typed_literal_display() {
        let t = Term::typed_literal("42", vocab::XSD_INTEGER);
        assert_eq!(t.to_string(), format!("\"42\"^^<{}>", vocab::XSD_INTEGER));
    }

    #[test]
    fn lang_literal_display() {
        assert_eq!(Term::lang_literal("chat", "fr").to_string(), "\"chat\"@fr");
    }

    #[test]
    fn literal_escaping_round() {
        let t = Term::literal("a\"b\\c\nd");
        assert_eq!(t.to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integer_helpers() {
        let t = Term::integer(17);
        assert_eq!(t.as_integer(), Some(17));
        assert!(Term::iri("x").as_integer().is_none());
    }

    #[test]
    fn predicates_kind_checks() {
        assert!(matches!(Term::iri("x"), Term::Iri(_)));
        assert!(!Term::iri("x").is_literal());
        assert!(Term::literal("x").is_literal());
        assert!(Term::blank("x").is_blank());
    }

    #[test]
    fn validate_rejects_bad_iri() {
        assert!(Term::iri("").validate().is_err());
        assert!(Term::iri("http://ex.org/has space").validate().is_err());
        assert!(Term::iri("http://ex.org/ok").validate().is_ok());
    }

    #[test]
    fn validate_rejects_literal_with_both_tags() {
        let t = Term::Literal {
            lexical: "x".into(),
            datatype: Some("http://dt".into()),
            language: Some("en".into()),
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn term_ref_round_trips_and_renders_like_the_term() {
        let terms = [
            Term::iri("http://a"),
            Term::blank("b"),
            Term::literal("x \"quoted\""),
            Term::typed_literal("1", vocab::XSD_INTEGER),
            Term::lang_literal("chat", "fr"),
        ];
        for term in &terms {
            let view = TermRef::from(term);
            assert_eq!(view.to_term(), *term);
            assert_eq!(view.to_string(), term.to_string());
        }
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut terms = vec![
            Term::literal("z"),
            Term::iri("http://a"),
            Term::blank("b"),
            Term::iri("http://b"),
        ];
        terms.sort();
        let again = {
            let mut t = terms.clone();
            t.sort();
            t
        };
        assert_eq!(terms, again);
    }
}
