//! Error types shared across the RDF substrate.

use std::fmt;

/// Errors raised while parsing or processing RDF data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// A line of N-Triples input could not be parsed.
    ///
    /// Carries the 1-based line number and a human readable description.
    Parse { line: usize, message: String },
    /// A term was expected to be present in the dictionary but is not.
    UnknownTerm(String),
    /// An IRI failed basic well-formedness checks (empty, embedded spaces, …).
    InvalidIri(String),
    /// A literal had an inconsistent shape (e.g. both language tag and datatype).
    InvalidLiteral(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::Parse { line, message } => {
                write!(f, "N-Triples parse error at line {line}: {message}")
            }
            RdfError::UnknownTerm(t) => write!(f, "term not in dictionary: {t}"),
            RdfError::InvalidIri(iri) => write!(f, "invalid IRI: {iri}"),
            RdfError::InvalidLiteral(l) => write!(f, "invalid literal: {l}"),
        }
    }
}

impl std::error::Error for RdfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error_includes_line() {
        let e = RdfError::Parse {
            line: 42,
            message: "missing dot".into(),
        };
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("missing dot"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&RdfError::InvalidIri("x".into()));
    }
}
