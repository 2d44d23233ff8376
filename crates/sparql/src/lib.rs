//! SPARQL subset parser and algebra for the TurboHOM++ reproduction.
//!
//! The paper evaluates basic graph pattern (BGP) queries on LUBM, YAGO and
//! BTC2012, and the Berlin SPARQL Benchmark "explore use case" queries which
//! additionally use `OPTIONAL`, `FILTER` and `UNION` (paper Section 5.1).
//! This crate parses exactly that subset:
//!
//! * `PREFIX` declarations and prefixed names,
//! * `SELECT` with a projection list or `*`; `DISTINCT` is recognized and
//!   recorded (the engine refuses it: the paper times pure pattern matching
//!   and nothing removes duplicates), `REDUCED` is accepted and asks for
//!   nothing,
//! * `WHERE` groups containing triple patterns (with `;`/`,` shorthand and
//!   the `a` keyword), `OPTIONAL` groups (possibly nested), `FILTER`
//!   expressions and `UNION` alternatives,
//! * solution modifiers `ORDER BY`, `LIMIT`, `OFFSET` (parsed, recorded; the
//!   engine applies the last two and refuses the first).
//!
//! The produced [`Query`] / [`GroupPattern`] algebra is consumed by the
//! transformation crate (to build query graphs) and by the baseline engines
//! directly. FILTER expressions are evaluated here ([`Expression::evaluate`])
//! over borrowed terms: the caller looks up the `TermRef` a variable is bound
//! to, and a `REGEX` pattern is compiled once, at parse time ([`Regex`]).

pub mod algebra;
pub mod expression;
pub mod fingerprint;
pub mod lexer;
pub mod parser;

pub use algebra::{GroupPattern, Query, Selection, SparqlTerm, TriplePattern};
pub use expression::{Binding, Expression, Folded, Regex, RegexError, Value};
pub use fingerprint::{fingerprint, QueryFingerprint};
pub use lexer::{Lexer, Token};
pub use parser::{parse_query, ParseError};
