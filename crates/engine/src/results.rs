//! Uniform query results across all engines.
//!
//! A result stays a table of integer ids from the enumerator to the moment
//! it is written out: [`IdResults`] is the dictionary its ids resolve through
//! and one flat [`IdRows`] buffer of term ids, whichever store flavour ran
//! the query. It is serialised through borrowed [`TermRef`] views, so no
//! `Term` is cloned unless an embedder asks for the decoded view,
//! [`QueryResults`], with [`IdResults::decode`]. Both views serialise through
//! the one SPARQL-JSON writer in this module.
//!
//! Rows are in enumeration order: stable for one store at one worker thread,
//! whatever its shard count, and unspecified otherwise. Nothing here sorts
//! them (`ORDER BY` is refused at plan time), so whoever compares results
//! across thread counts or engines sorts the decoded rows first.

use crate::plan::Window;
use std::collections::HashMap;
use std::io::{self, Write};
use std::time::Duration;
use turbohom_core::MatchStats;
use turbohom_json::escape_json_into;
use turbohom_rdf::{Dictionary, IdRows, Term, TermRef};

/// One decoded result row: the terms bound to the projected variables (in the
/// order of [`QueryResults::variables`]); `None` marks a variable left
/// unbound by an OPTIONAL clause.
pub type ResultRow = Vec<Option<Term>>;

/// The decoded result of executing one SPARQL query: what
/// [`IdResults::decode`] produces for embedders, tests and examples.
#[derive(Debug, Clone, Default)]
pub struct QueryResults {
    /// The projected variable names (without `?`).
    pub variables: Vec<String>,
    /// The result rows (absent when the query ran in count-only mode).
    pub rows: Vec<ResultRow>,
    /// The number of solutions (equals `rows.len()` unless count-only).
    pub solution_count: usize,
    /// Wall-clock time of pattern matching and of projecting the matches to
    /// term ids. Parsing and query-graph transformation happened at
    /// plan-preparation time; dictionary decoding and serialisation come
    /// after it and are not included (mirroring the paper's protocol of
    /// timing only query processing, and making cold and warm plan-cache
    /// runs report comparable numbers).
    pub elapsed: Duration,
    /// Per-stage execution counters of the graph engines, merged across all
    /// branches and worker threads (all-zero for the join baselines, which
    /// do not run the matcher). The benchmark flight recorder persists these
    /// alongside the timings.
    pub stats: MatchStats,
    /// Per matching-order position: partial mappings extended at that step,
    /// merged across branches, components, workers and shards (empty for the
    /// join baselines). The ANALYZE actuals.
    pub step_rows: Vec<u64>,
    /// Per matching-order position: the candidate-count estimates that
    /// justified the order (`|CR(u)|` summed over explored regions). Same
    /// length as [`step_rows`](QueryResults::step_rows); the q-error inputs.
    pub step_estimates: Vec<u64>,
}

impl QueryResults {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.solution_count
    }

    /// Returns `true` if the query produced no solutions.
    pub fn is_empty(&self) -> bool {
        self.solution_count == 0
    }

    /// Iterates the rows as variable → term maps (unbound variables absent).
    pub fn iter_bindings(&self) -> impl Iterator<Item = HashMap<&str, &Term>> + '_ {
        self.rows.iter().map(move |row| {
            self.variables
                .iter()
                .zip(row.iter())
                .filter_map(|(v, t)| t.as_ref().map(|t| (v.as_str(), t)))
                .collect()
        })
    }

    /// The values bound to `variable` across all rows (unbound skipped).
    pub fn column(&self, variable: &str) -> Vec<&Term> {
        match self.variables.iter().position(|v| v == variable) {
            Some(i) => self.rows.iter().filter_map(|r| r[i].as_ref()).collect(),
            None => Vec::new(),
        }
    }

    /// Serializes the results in the W3C SPARQL 1.1 Query Results JSON
    /// format (`application/sparql-results+json`): a `head.vars` list and
    /// one binding object per row, unbound variables omitted. A decoded term
    /// carries no JSON-plain bit, so every string is escaped.
    pub fn to_sparql_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            row.iter()
                .map(|term| term.as_ref().map(|term| (TermRef::from(term), false)))
        });
        json_string(|out| write_sparql_json(out, &mut Vec::new(), &self.variables, rows, None))
    }
}

/// Appends further top-level members, each with its leading comma, to a
/// SPARQL-JSON document (see [`IdResults::write_sparql_json`]).
pub type ExtraMembers<'a> = &'a mut dyn FnMut(&mut Vec<u8>);

/// The result of executing one SPARQL query, as term ids.
///
/// Rows are kept in one flat buffer and resolved through the
/// store's dictionary only when they are compared, serialised or decoded,
/// so memory per in-flight query is bounded by the id buffers rather than by
/// rendered text. The value borrows the store that produced it.
#[derive(Debug, Clone)]
pub struct IdResults<'s> {
    /// The projected variable names (without `?`).
    pub variables: Vec<String>,
    /// The number of solutions (equals the number of rows unless the query
    /// ran in count-only mode).
    pub solution_count: usize,
    /// Wall-clock time of pattern matching and id projection; see
    /// [`QueryResults::elapsed`].
    pub elapsed: Duration,
    /// Per-stage execution counters; see [`QueryResults::stats`].
    pub stats: MatchStats,
    /// Per matching-order position actuals; see [`QueryResults::step_rows`].
    pub step_rows: Vec<u64>,
    /// Per matching-order position estimates; see
    /// [`QueryResults::step_estimates`].
    pub step_estimates: Vec<u64>,
    /// The dictionary every cell is an id of.
    dictionary: &'s Dictionary,
    /// One row per solution: a term-id cell per variable, then whatever
    /// further columns the run matched on (a sharded store's anchor the
    /// query did not project), which no reader looks at.
    pub(crate) rows: IdRows,
    /// On a sharded store, per shard, the rows whose anchor it owns before
    /// the window was cut (`None` for a shard the query was routed away
    /// from): what ANALYZE reports per shard. Empty on a single store.
    pub(crate) shard_rows: Vec<Option<usize>>,
}

impl<'s> IdResults<'s> {
    /// Results over `variables` holding `rows` of ids of `dictionary`, with
    /// every counter at zero.
    pub(crate) fn new(dictionary: &'s Dictionary, variables: Vec<String>, rows: IdRows) -> Self {
        IdResults {
            dictionary,
            variables,
            solution_count: rows.len(),
            elapsed: Duration::ZERO,
            stats: MatchStats::default(),
            step_rows: Vec::new(),
            step_estimates: Vec::new(),
            rows,
            shard_rows: Vec::new(),
        }
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.solution_count
    }

    /// Returns `true` if the query produced no solutions.
    pub fn is_empty(&self) -> bool {
        self.solution_count == 0
    }

    /// Number of materialised rows (0 in count-only mode).
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Applies the query's window: drops the first `offset` rows, then keeps
    /// at most `limit`.
    pub(crate) fn apply_window(&mut self, Window { offset, limit }: Window) {
        self.rows
            .truncate(limit.map_or(usize::MAX, |limit| offset.saturating_add(limit)));
        if offset > 0 {
            let mut seen = 0;
            self.rows.retain(|_| {
                seen += 1;
                seen > offset
            });
        }
        let kept = self.solution_count.saturating_sub(offset);
        self.solution_count = limit.map_or(kept, |limit| kept.min(limit));
    }

    /// Decodes every id into an owned [`Term`]: the one place terms are
    /// copied out of the dictionary.
    pub fn decode(self) -> QueryResults {
        let width = self.variables.len();
        let rows = (self.rows.iter())
            .map(|row| {
                row[..width]
                    .iter()
                    .map(|&cell| IdRows::term_id(cell).and_then(|id| self.dictionary.term(id)))
                    .collect()
            })
            .collect();
        QueryResults {
            variables: self.variables,
            rows,
            solution_count: self.solution_count,
            elapsed: self.elapsed,
            stats: self.stats,
            step_rows: self.step_rows,
            step_estimates: self.step_estimates,
        }
    }

    /// Writes the results in the W3C SPARQL 1.1 Query Results JSON format to
    /// `out`, in pieces of at most about 64 KB.
    ///
    /// The resolve pass reads one record per cell: the term and its
    /// JSON-plain bit ([`Dictionary::term_and_plain`]). A plain term's strings
    /// are copied into `buffer` whole, any other's escaped; no byte of a
    /// plain term is tested. `buffer`'s contents are discarded and its
    /// capacity (about 64 KB from the first use on) stays with the caller,
    /// so a connection serialises every response through one allocation. A
    /// row of more than 16 KB grows it for that response only: past 128 KB
    /// it is cut back to 64 KB when the last piece has been handed on.
    /// `members`, when given, appends
    /// further top-level members (each with its leading comma) after the
    /// bindings have been handed to `out` and before the closing brace. The
    /// first write error ends the serialisation.
    pub fn write_sparql_json<W: Write>(
        &self,
        out: &mut W,
        buffer: &mut Vec<u8>,
        members: Option<ExtraMembers<'_>>,
    ) -> io::Result<()> {
        let (width, dictionary) = (self.variables.len(), self.dictionary);
        let cell = move |&cell| IdRows::term_id(cell).and_then(|id| dictionary.term_and_plain(id));
        let rows = self.rows.iter().map(|row| row[..width].iter().map(cell));
        write_sparql_json(out, buffer, &self.variables, rows, members)
    }

    /// Serializes the results as one SPARQL 1.1 Query Results JSON string.
    pub fn to_sparql_json(&self) -> String {
        json_string(|out| self.write_sparql_json(out, &mut Vec::new(), None))
    }
}

/// Collects what `write` writes into a `String`.
fn json_string(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the writer emits UTF-8")
}

/// The size the writer's buffer is brought to, and back to after a response
/// that grew it past twice this. A piece is handed on once it passes
/// [`FLUSH_AT`], so the buffer only grows past this for a single row of more
/// than 16 KB.
const BUFFER: usize = 64 * 1024;

/// The fill at which the writer hands its buffer on.
const FLUSH_AT: usize = 48 * 1024;

/// Cells the writer resolves before it formats the first of them: as many
/// whole rows as fit (one, for a wider row). Enough for the record and arena
/// misses of a block to be outstanding together; 16 and 256 measured alike.
const BLOCK: usize = 64;

/// Rows per block of a result `width` cells wide.
fn rows_per_block(width: usize) -> usize {
    (BLOCK / width.max(1)).max(1)
}

/// The one SPARQL-JSON writer: a `head.vars` list and one binding object per
/// row, unbound variables omitted.
///
/// A cell is a term and whether its strings need no JSON escape: such a
/// term's strings are copied whole, any other's escaped byte by byte.
///
/// Rows are taken a block at a time, in three passes. Pulling a block's cells
/// resolves them — for an id row a read of the term's record, one short
/// independent iteration per cell — then the first byte of every lexical form
/// (an IRI's local name) is read (and the byte a cache line on), then the
/// block is formatted. An IRI's namespace and a datatype IRI are read from
/// the dictionary's small shared table, which stays in cache. The
/// misses of a pass do not wait for one another, where formatting cell by
/// cell waits for a record, then for the arena bytes it points at, once per
/// row.
fn write_sparql_json<'t, W, R, C>(
    out: &mut W,
    buf: &mut Vec<u8>,
    variables: &[String],
    mut rows: R,
    members: Option<ExtraMembers<'_>>,
) -> io::Result<()>
where
    W: Write,
    R: Iterator<Item = C>,
    C: Iterator<Item = Option<(TermRef<'t>, bool)>>,
{
    buf.clear();
    buf.reserve(BUFFER);
    // Each variable's `"name":` is escaped once, not once per row.
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(variables.len());
    buf.extend_from_slice(b"{\"head\":{\"vars\":[");
    for (i, variable) in variables.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        let mut key = Vec::with_capacity(variable.len() + 3);
        key.push(b'"');
        escape_json_into(&mut key, variable);
        key.push(b'"');
        buf.extend_from_slice(&key);
        key.push(b':');
        keys.push(key);
    }
    buf.extend_from_slice(b"]},\"results\":{\"bindings\":[");
    let width = keys.len();
    let rows_per_block = rows_per_block(width);
    // The block lives on the stack; only a row wider than it takes a heap
    // block of its own width.
    let (mut narrow, mut wide) = ([None; BLOCK], Vec::new());
    let block: &mut [Option<(TermRef<'t>, bool)>] = if width <= BLOCK {
        &mut narrow
    } else {
        wide.resize(width, None);
        &mut wide
    };
    let mut first_row = true;
    loop {
        let mut pulled = 0;
        while pulled < rows_per_block {
            let Some(row) = rows.next() else { break };
            let cells = &mut block[pulled * width..][..width];
            let mut resolved = 0;
            for (cell, term) in cells.iter_mut().zip(row) {
                *cell = term;
                resolved += 1;
            }
            // A row that ends early leaves the rest of its cells unbound.
            cells[resolved..].fill(None);
            pulled += 1;
        }
        let mut touched = 0;
        for (term, _) in block[..pulled * width].iter().flatten() {
            let lexical = match term {
                TermRef::Iri(iri) => iri.local(),
                TermRef::BlankNode(lexical) | TermRef::Literal { lexical, .. } => lexical,
            }
            .as_bytes();
            touched |= lexical.first().unwrap_or(&0) | lexical.get(64).unwrap_or(&0);
        }
        std::hint::black_box(touched);
        for row in 0..pulled {
            if !first_row {
                buf.push(b',');
            }
            first_row = false;
            buf.push(b'{');
            let mut first = true;
            for (key, term) in keys.iter().zip(&block[row * width..]) {
                let Some((term, plain)) = *term else { continue };
                if !first {
                    buf.push(b',');
                }
                first = false;
                buf.extend_from_slice(key);
                append_term_json(buf, term, plain);
            }
            buf.push(b'}');
            if buf.len() >= FLUSH_AT {
                out.write_all(buf)?;
                buf.clear();
            }
        }
        if pulled < rows_per_block {
            break;
        }
    }
    buf.extend_from_slice(b"]}");
    if let Some(members) = members {
        // The bindings go out first, so that whatever the members report
        // (the request's profile) covers writing them.
        out.write_all(buf)?;
        buf.clear();
        members(buf);
    }
    buf.push(b'}');
    let written = out.write_all(buf);
    // One huge literal must not stay with the connection for its lifetime.
    if buf.capacity() > 2 * BUFFER {
        buf.clear();
        buf.shrink_to(BUFFER);
    }
    written
}

/// Appends one RDF term as a SPARQL-JSON binding value object: its strings
/// (an IRI's two pieces one after the other) copied as they are when `plain`
/// (none needs an escape), else escaped.
fn append_term_json(out: &mut Vec<u8>, term: TermRef<'_>, plain: bool) {
    let text = |out: &mut Vec<u8>, s: &str| {
        if plain {
            out.extend_from_slice(s.as_bytes());
        } else {
            escape_json_into(out, s);
        }
    };
    match term {
        TermRef::Iri(iri) => {
            out.extend_from_slice(b"{\"type\":\"uri\",\"value\":\"");
            text(out, iri.namespace());
            text(out, iri.local());
            out.extend_from_slice(b"\"}");
        }
        TermRef::BlankNode(label) => {
            out.extend_from_slice(b"{\"type\":\"bnode\",\"value\":\"");
            text(out, label);
            out.extend_from_slice(b"\"}");
        }
        TermRef::Literal {
            lexical,
            datatype,
            language,
        } => {
            out.extend_from_slice(b"{\"type\":\"literal\",\"value\":\"");
            text(out, lexical);
            out.push(b'"');
            if let Some(lang) = language {
                out.extend_from_slice(b",\"xml:lang\":\"");
                text(out, lang);
                out.push(b'"');
            }
            if let Some(dt) = datatype {
                out.extend_from_slice(b",\"datatype\":\"");
                text(out, dt);
                out.push(b'"');
            }
            out.push(b'}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use turbohom_rdf::TermId;

    fn sample() -> QueryResults {
        QueryResults {
            variables: vec!["x".into(), "y".into()],
            rows: vec![
                vec![Some(Term::iri("http://a")), Some(Term::integer(1))],
                vec![Some(Term::iri("http://b")), None],
            ],
            solution_count: 2,
            elapsed: Duration::from_millis(1),
            ..Default::default()
        }
    }

    #[test]
    fn len_and_empty() {
        let r = sample();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(QueryResults::default().is_empty());
    }

    #[test]
    fn bindings_skip_unbound() {
        let r = sample();
        let bindings: Vec<_> = r.iter_bindings().collect();
        assert_eq!(bindings[0].len(), 2);
        assert_eq!(bindings[1].len(), 1);
        assert_eq!(bindings[1]["x"], &Term::iri("http://b"));
    }

    #[test]
    fn column_extraction() {
        let r = sample();
        assert_eq!(r.column("x").len(), 2);
        assert_eq!(r.column("y").len(), 1);
        assert!(r.column("missing").is_empty());
    }

    #[test]
    fn sparql_json_serialization() {
        let r = sample();
        assert_eq!(
            r.to_sparql_json(),
            r#"{"head":{"vars":["x","y"]},"results":{"bindings":[{"x":{"type":"uri","value":"http://a"},"y":{"type":"literal","value":"1","datatype":"http://www.w3.org/2001/XMLSchema#integer"}},{"x":{"type":"uri","value":"http://b"}}]}}"#
        );
        assert_eq!(
            QueryResults::default().to_sparql_json(),
            r#"{"head":{"vars":[]},"results":{"bindings":[]}}"#
        );
    }

    #[test]
    fn sparql_json_covers_every_term_shape() {
        let r = QueryResults {
            variables: vec!["t".into()],
            rows: vec![
                vec![Some(Term::blank("b0"))],
                vec![Some(Term::lang_literal("hi \"there\"\n", "en"))],
            ],
            solution_count: 2,
            elapsed: Duration::ZERO,
            ..Default::default()
        };
        let json = r.to_sparql_json();
        assert!(json.contains(r#"{"type":"bnode","value":"b0"}"#));
        assert!(json.contains(r#"{"type":"literal","value":"hi \"there\"\n","xml:lang":"en"}"#));
    }

    /// The serialiser as it was before the id-row result path, kept as the
    /// reference the one writer is compared against byte for byte.
    mod reference {
        use super::Term;

        pub fn to_sparql_json(variables: &[String], rows: &[Vec<Option<Term>>]) -> String {
            let mut out = String::with_capacity(64 + rows.len() * 64);
            out.push_str("{\"head\":{\"vars\":[");
            for (i, var) in variables.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&json_escape(var));
                out.push('"');
            }
            out.push_str("]},\"results\":{\"bindings\":[");
            for (r, row) in rows.iter().enumerate() {
                if r > 0 {
                    out.push(',');
                }
                out.push('{');
                let mut first = true;
                for (var, term) in variables.iter().zip(row.iter()) {
                    let Some(term) = term else { continue };
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push('"');
                    out.push_str(&json_escape(var));
                    out.push_str("\":");
                    append_term_json(&mut out, term);
                }
                out.push('}');
            }
            out.push_str("]}}");
            out
        }

        fn append_term_json(out: &mut String, term: &Term) {
            match term {
                Term::Iri(iri) => {
                    out.push_str("{\"type\":\"uri\",\"value\":\"");
                    out.push_str(&json_escape(iri));
                    out.push_str("\"}");
                }
                Term::BlankNode(label) => {
                    out.push_str("{\"type\":\"bnode\",\"value\":\"");
                    out.push_str(&json_escape(label));
                    out.push_str("\"}");
                }
                Term::Literal {
                    lexical,
                    datatype,
                    language,
                } => {
                    out.push_str("{\"type\":\"literal\",\"value\":\"");
                    out.push_str(&json_escape(lexical));
                    out.push('"');
                    if let Some(lang) = language {
                        out.push_str(",\"xml:lang\":\"");
                        out.push_str(&json_escape(lang));
                        out.push('"');
                    }
                    if let Some(dt) = datatype {
                        out.push_str(",\"datatype\":\"");
                        out.push_str(&json_escape(dt));
                        out.push('"');
                    }
                    out.push('}');
                }
            }
        }

        fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out
        }
    }

    /// What passes unescaped: ASCII, 0x7f and multi-byte UTF-8.
    const CLEAN: [char; 8] = ['a', 'z', '0', ' ', '/', '\u{7f}', 'é', '😀'];

    /// Text up to 24 characters long: clean, or with up to three characters
    /// that need an escape (`"`, `\`, any byte below 0x20) at generated
    /// places.
    fn text() -> impl Strategy<Value = String> {
        let clean = proptest::collection::vec(0..CLEAN.len(), 0..24);
        let dirty = proptest::collection::vec((0..0x22u8, 0..24usize), 0..4);
        (clean, dirty).prop_map(|(clean, dirty)| {
            let mut chars: Vec<char> = clean.into_iter().map(|i| CLEAN[i]).collect();
            for (byte, at) in dirty {
                let escape = match byte {
                    0x20 => '"',
                    0x21 => '\\',
                    control => char::from(control),
                };
                chars.insert(at.min(chars.len()), escape);
            }
            chars.into_iter().collect()
        })
    }

    /// A term of any of the six kinds the dictionary distinguishes.
    fn term() -> impl Strategy<Value = Term> {
        (0..6u8, text(), text(), text()).prop_map(|(kind, lexical, datatype, language)| {
            match kind {
                0 => Term::Iri(lexical),
                1 => Term::BlankNode(lexical),
                2 => Term::literal(lexical),
                3 => Term::typed_literal(lexical, datatype),
                4 => Term::lang_literal(lexical, language),
                // The snapshot stores this kind as `datatype \0 language`, so
                // a NUL inside the datatype would not survive the round trip.
                _ => Term::Literal {
                    lexical,
                    datatype: Some(datatype.replace('\0', "")),
                    language: Some(language),
                },
            }
        })
    }

    /// The dictionary as a snapshot view: frozen (its ids renumbered in key
    /// order), written out and mapped back.
    fn snapshot_view(dictionary: &Dictionary, tag: u64) -> Dictionary {
        use turbohom_storage::{Snapshot, SnapshotWriter};
        let mut frozen = dictionary.clone();
        let _ = frozen.freeze();
        let mut writer = SnapshotWriter::new();
        frozen.write_sections(&mut writer);
        let path = std::env::temp_dir().join(format!(
            "turbohom-results-{}-{tag}.snap",
            std::process::id()
        ));
        writer.write_to(&path).unwrap();
        let snapshot = Snapshot::open(&path).unwrap();
        let view = Dictionary::read_sections(&mut snapshot.cursor()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(view.is_frozen());
        view
    }

    /// `rows` as ids of `dictionary`, in a buffer of stride `width`.
    fn ids(dictionary: &Dictionary, width: usize, rows: &[Vec<Option<Term>>]) -> IdRows {
        let mut ids = IdRows::new(width);
        for row in rows {
            let cells = ids.push_unbound();
            for (cell, term) in cells.iter_mut().zip(row) {
                if let Some(term) = term {
                    *cell = IdRows::cell(dictionary.id_of(term).unwrap());
                }
            }
        }
        ids
    }

    /// `rows` over `dictionary` as id-backed results.
    fn id_results<'s>(
        dictionary: &'s Dictionary,
        variables: &[String],
        rows: &[Vec<Option<Term>>],
    ) -> IdResults<'s> {
        let rows = ids(dictionary, variables.len(), rows);
        IdResults::new(dictionary, variables.to_vec(), rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn term_views_order_like_terms(a in term(), b in term()) {
            prop_assert_eq!(TermRef::from(&a).cmp(&TermRef::from(&b)), a.cmp(&b));
            // … and likewise when the views come out of a dictionary, owned
            // or mapped from a snapshot.
            let mut owned = Dictionary::new();
            owned.encode(&a);
            owned.encode(&b);
            let view = snapshot_view(&owned, 0);
            for dictionary in [&owned, &view] {
                let id = |term| dictionary.id_of(term).unwrap();
                let (ra, rb) = (dictionary.term_ref(id(&a)), dictionary.term_ref(id(&b)));
                prop_assert_eq!(ra.map(TermRef::to_term).as_ref(), Some(&a));
                prop_assert_eq!(ra.cmp(&rb), a.cmp(&b));
            }
        }

        /// Results of 0, 1, 3 and 5 columns that end before, at and after a
        /// block boundary and span more than three blocks, with a cell left
        /// unbound in the first and in the last row of every block. Terms
        /// the dictionary marks JSON-plain are copied and the rest escaped:
        /// the body is the reference's either way, and no term is marked
        /// plain whose strings the reference would change.
        #[test]
        fn the_writer_matches_the_reference_serialiser(
            names in proptest::collection::vec(text(), 5),
            pool in proptest::collection::vec(proptest::option::of(term()), 1..24),
            width in 0..4usize,
            count in 0..6usize,
        ) {
            // A term of each verdict in every case.
            let clean_and_dirty = [Term::iri("http://ex.org/clean"), Term::literal("\"q\"")];
            let pool: Vec<Option<Term>> =
                clean_and_dirty.clone().map(Some).into_iter().chain(pool).collect();
            let width = [0, 1, 3, 5][width];
            let (blocks, beyond) = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 1)][count];
            let variables = names[..width].to_vec();
            let per_block = rows_per_block(width);
            let count = (blocks * per_block).saturating_add_signed(beyond);
            let mut cells = pool.iter().cycle().cloned();
            let rows: Vec<Vec<Option<Term>>> = (0..count)
                .map(|r| {
                    let mut row: Vec<Option<Term>> = cells.by_ref().take(width).collect();
                    let at_an_edge = r % per_block == 0 || r % per_block == per_block - 1;
                    if let Some(cell) = row.get_mut(r % width.max(1)).filter(|_| at_an_edge) {
                        *cell = None;
                    }
                    row
                })
                .collect();
            let mut owned = Dictionary::new();
            for term in rows.iter().flatten().flatten() {
                owned.encode(term);
            }
            for term in &clean_and_dirty {
                owned.encode(term);
            }
            let view = snapshot_view(&owned, 1);
            let plain = |dictionary: &Dictionary, term: &Term| {
                dictionary.term_and_plain(dictionary.id_of(term).unwrap()).unwrap().1
            };
            for dictionary in [&owned, &view] {
                prop_assert!(plain(dictionary, &clean_and_dirty[0]));
                prop_assert!(!plain(dictionary, &clean_and_dirty[1]));
                for term in rows.iter().flatten().flatten().filter(|t| plain(dictionary, t)) {
                    // The term alone, its strings copied as they are.
                    let mut copied = br#"{"head":{"vars":["t"]},"#.to_vec();
                    copied.extend_from_slice(br#""results":{"bindings":[{"t":"#);
                    append_term_json(&mut copied, TermRef::from(term), true);
                    copied.extend_from_slice(b"}]}}");
                    let alone = vec![Some(term.clone())];
                    let alone = reference::to_sparql_json(&["t".into()], &[alone]);
                    prop_assert_eq!(copied, alone.into_bytes(), "{}", term);
                }
            }
            let expected = reference::to_sparql_json(&variables, &rows);
            let decoded = QueryResults {
                variables: variables.clone(),
                solution_count: rows.len(),
                rows,
                ..Default::default()
            };
            prop_assert_eq!(&decoded.to_sparql_json(), &expected);
            for dictionary in [&owned, &view] {
                let results = id_results(dictionary, &variables, &decoded.rows);
                prop_assert_eq!(&results.to_sparql_json(), &expected);
                prop_assert_eq!(&results.decode().rows, &decoded.rows);
            }
        }
    }

    #[test]
    fn the_writer_hands_its_buffer_on_in_bounded_pieces() {
        struct Pieces(Vec<usize>);
        impl Write for Pieces {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut dictionary = Dictionary::new();
        let id = dictionary.encode(&Term::iri("http://example.org/a/rather/long/iri"));
        let mut rows = IdRows::new(1);
        for _ in 0..10_000 {
            rows.push(&[IdRows::cell(id)]);
        }
        let results = IdResults::new(&dictionary, vec!["x".into()], rows);
        let mut pieces = Pieces(Vec::new());
        let mut tail = |out: &mut Vec<u8>| out.extend_from_slice(b",\"extra\":1");
        results
            .write_sparql_json(&mut pieces, &mut Vec::new(), Some(&mut tail))
            .unwrap();
        assert!(pieces.0.len() > 10, "{:?}", pieces.0);
        assert!(pieces.0.iter().all(|&n| n <= BUFFER));
        assert_eq!(
            pieces.0.iter().sum::<usize>(),
            results.to_sparql_json().len() + ",\"extra\":1".len()
        );
        // A failing sink ends the serialisation at its first piece.
        struct Broken(usize);
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut broken = Broken(0);
        assert!(results
            .write_sparql_json(&mut broken, &mut Vec::new(), None)
            .is_err());
        assert_eq!(broken.0, 1);
    }

    /// Rows a column wider than the variables (a sharded store's anchor the
    /// query did not project): the extra column is never read.
    #[test]
    fn rows_wider_than_the_variables_resolve_through_the_dictionary() {
        let term = |name: &str| Some(Term::iri(format!("http://ex/{name}")));
        let mut dictionary = Dictionary::new();
        for name in ["a", "b", "c", "anchor", "d"] {
            dictionary.encode(&term(name).unwrap());
        }
        let variables = vec!["x".to_string(), "y".to_string()];
        let rows = vec![
            vec![term("a"), term("b"), term("anchor")],
            vec![term("c"), None, term("anchor")],
            vec![term("c"), term("d"), term("anchor")],
            vec![term("a"), term("c"), None],
        ];
        let results = || IdResults::new(&dictionary, variables.clone(), ids(&dictionary, 3, &rows));
        let expected: Vec<ResultRow> = rows.iter().map(|row| row[..2].to_vec()).collect();
        let all = results();
        assert_eq!((all.len(), all.row_count()), (4, 4));
        assert_eq!(
            all.to_sparql_json(),
            reference::to_sparql_json(&variables, &expected)
        );
        assert_eq!(all.decode().rows, expected);
        // A window inside the rows, one at the start, one to the end and
        // two past it.
        for (offset, limit) in [
            (1, Some(2)),
            (0, Some(1)),
            (2, None),
            (3, Some(5)),
            (9, None),
        ] {
            let mut windowed = results();
            windowed.apply_window(Window { offset, limit });
            let kept: Vec<ResultRow> = expected
                .iter()
                .skip(offset)
                .take(limit.unwrap_or(usize::MAX))
                .cloned()
                .collect();
            assert_eq!(windowed.len(), kept.len(), "{offset} {limit:?}");
            assert_eq!(windowed.row_count(), kept.len(), "{offset} {limit:?}");
            assert_eq!(
                windowed.to_sparql_json(),
                reference::to_sparql_json(&variables, &kept)
            );
            assert_eq!(windowed.decode().rows, kept, "{offset} {limit:?}");
        }
    }

    /// The window's edges: an offset past the end, `LIMIT 0`, an `OFFSET`
    /// without a `LIMIT`, an `offset + limit` past `usize::MAX`, and a
    /// count-only result, whose solution count exceeds its rows.
    #[test]
    fn the_window_is_cut_from_the_one_buffer_at_its_edges() {
        let dictionary = Dictionary::new();
        let windowed = |rows: usize, solutions: usize, offset, limit| {
            let mut results = IdResults::new(&dictionary, Vec::new(), IdRows::unbound(1, rows));
            results.solution_count = solutions;
            results.apply_window(Window { offset, limit });
            (results.row_count(), results.len())
        };
        assert_eq!(windowed(5, 5, 7, None), (0, 0));
        assert_eq!(windowed(5, 5, 7, Some(2)), (0, 0));
        assert_eq!(windowed(5, 5, 0, Some(0)), (0, 0));
        assert_eq!(windowed(5, 5, 2, Some(0)), (0, 0));
        assert_eq!(windowed(5, 5, 2, None), (3, 3));
        assert_eq!(windowed(5, 5, 5, None), (0, 0));
        assert_eq!(windowed(5, 5, 3, Some(usize::MAX)), (2, 2));
        assert_eq!(windowed(5, 5, usize::MAX, Some(usize::MAX)), (0, 0));
        // Count-only: no rows, and the window is cut from the count.
        assert_eq!(windowed(0, 9, 2, Some(4)), (0, 4));
        assert_eq!(windowed(0, 9, 7, Some(4)), (0, 2));
        assert_eq!(windowed(0, 9, 3, None), (0, 6));
        assert_eq!(windowed(0, 9, 10, None), (0, 0));
        // The rows kept are the ones after the offset, in order.
        let mut results = IdResults::new(&dictionary, Vec::new(), IdRows::new(1));
        for cell in 0..5 {
            results.rows.push(&[cell]);
        }
        results.solution_count = 5;
        results.apply_window(Window {
            offset: 1,
            limit: Some(usize::MAX),
        });
        let cells: Vec<&[u32]> = results.rows.iter().collect();
        assert_eq!(cells, [[1], [2], [3], [4]]);
    }

    /// Rows a column wider than the variables, grown past the block: the
    /// writer resolves them a block at a time and still writes the
    /// reference's body.
    #[test]
    fn rows_that_span_several_blocks_are_written_like_the_reference() {
        let term = |i: usize| Some(Term::iri(format!("http://ex/{i}")));
        let per_block = rows_per_block(2);
        let mut dictionary = Dictionary::new();
        for i in 0..8 {
            dictionary.encode(&term(i).unwrap());
        }
        let variables = vec!["x".to_string(), "y".to_string()];
        let rows: Vec<ResultRow> = (0..2 * per_block + 1)
            .map(|r| {
                vec![
                    (r % 4 > 0).then(|| term(r % 7)).flatten(),
                    term(r % 8),
                    term(0),
                ]
            })
            .collect();
        let results = IdResults::new(&dictionary, variables.clone(), ids(&dictionary, 3, &rows));
        let expected: Vec<ResultRow> = rows.iter().map(|row| row[..2].to_vec()).collect();
        assert_eq!(
            results.to_sparql_json(),
            reference::to_sparql_json(&variables, &expected)
        );
        // A row wider than the block is a block of its own.
        let wide: Vec<String> = (0..BLOCK + 3).map(|i| format!("v{i}")).collect();
        let rows: Vec<ResultRow> = (0..3)
            .map(|r| {
                (0..wide.len())
                    .map(|c| (c % 9 != r).then(|| term((r + c) % 8)).flatten())
                    .collect()
            })
            .collect();
        assert_eq!(
            id_results(&dictionary, &wide, &rows).to_sparql_json(),
            reference::to_sparql_json(&wide, &rows)
        );
    }

    /// One huge literal grows the buffer for its response only.
    #[test]
    fn a_buffer_grown_by_one_response_is_cut_back_after_it() {
        let mut dictionary = Dictionary::new();
        let huge = Term::literal("x".repeat(1 << 20));
        let small = Term::iri("http://ex/small");
        dictionary.encode(&huge);
        dictionary.encode(&small);
        let variables = vec!["v".to_string()];
        let mut buffer = Vec::new();
        for (term, grown) in [(&small, false), (&huge, true), (&small, false)] {
            let rows = vec![vec![Some(term.clone())]];
            let results = id_results(&dictionary, &variables, &rows);
            let mut body = Vec::new();
            results
                .write_sparql_json(&mut body, &mut buffer, None)
                .unwrap();
            assert_eq!(
                String::from_utf8(body).unwrap(),
                reference::to_sparql_json(&variables, &rows)
            );
            // The piece that held the literal was over a megabyte ...
            assert_eq!(results.to_sparql_json().len() > (1 << 20), grown);
            // ... and the connection's buffer is back at its size either way.
            assert!(
                (BUFFER..=2 * BUFFER).contains(&buffer.capacity()),
                "{} bytes kept",
                buffer.capacity()
            );
        }
    }

    #[test]
    fn unknown_ids_read_as_unbound() {
        let dictionary = Dictionary::new();
        let mut rows = IdRows::new(1);
        rows.push(&[IdRows::cell(TermId(7))]);
        let results = IdResults::new(&dictionary, vec!["x".into()], rows);
        assert_eq!(
            results.to_sparql_json(),
            r#"{"head":{"vars":["x"]},"results":{"bindings":[{}]}}"#
        );
    }
}
