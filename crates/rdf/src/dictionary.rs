//! Dictionary encoding between [`Term`]s and dense integer [`TermId`]s.
//!
//! All engines in this repository (TurboHOM++, the merge-join baseline, the
//! hash-join baseline) operate exclusively over `TermId`s, which is the same
//! design decision RDF-3X and the paper's system make: the dictionary is
//! populated once at load time and query execution never touches strings.
//! This also lets the benchmark harness exclude "dictionary look-up time"
//! from elapsed times, as Section 7.1 of the paper prescribes.
//!
//! The dictionary is three flat arrays from the first [`Dictionary::encode`]
//! on: a UTF-8 string arena that every term's bytes are appended to once,
//! fixed-width [`TermRecord`]s pointing into it (indexed by id), and one
//! lookup structure over the ids.
//!
//! A record is 32 bytes: the kind code, `u32` offsets and lengths of the
//! lexical form and of the extra string (datatype IRI and/or language tag),
//! and the term's numeric view ([`TermRef::numeric_view`]), taken once when
//! the term is encoded, with a flag bit in the kind saying whether it has one
//! (so the literal `"NaN"` keeps its NaN). A FILTER comparison reads the view
//! from the record ([`Dictionary::term_and_view`]) and no byte of the arena,
//! so no string is parsed while a query runs. A second flag bit says whether
//! both strings are JSON-plain ([`is_json_plain`]: no `"`, `\` or control
//! byte), decided once as well: the result writer copies such a term's
//! strings whole ([`Dictionary::term_and_plain`]) and escapes only the rest,
//! so no byte of a clean term is tested while a result is written. Offsets are
//! 32 bits: the arena refuses to grow past `u32::MAX` bytes, as the ids refuse
//! the 2³²-th term.
//!
//! The lookup structure is one of two:
//!
//! * **Hashed** while terms are being encoded — an open-addressing table of
//!   ids, hashed over the arena bytes with a per-process keyed SipHash, never
//!   stored.
//! * **Sorted** once served — the ids in key order, for binary search.
//!   [`Dictionary::freeze`] sorts the ids and drops the table, and a snapshot
//!   stores exactly the arena, the records and this permutation, so a mapped
//!   dictionary reads them in place: heap and snapshot stores share one read
//!   path. `encode` on a sorted dictionary rebuilds the table from the
//!   records (ids unchanged, no string copied).

use crate::error::RdfError;
use crate::term::{Term, TermRef};
use std::borrow::Cow;
use std::hash::{BuildHasher, RandomState};
use turbohom_json::is_json_plain;
use turbohom_storage::{FlatVec, MemoryUse, Pod, SectionCursor, SnapshotError, SnapshotWriter};

/// A dense identifier for a dictionary-encoded [`Term`].
///
/// Ids are assigned sequentially starting from 0 in insertion order, so they
/// double as indices into side arrays (the labeled graph uses them to index
/// vertex metadata directly). They are 32 bits wide, as the graph's vertex
/// ids and the id-row cells are: the dictionary refuses the 2³²-th term (see
/// `slot_entry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct TermId(pub u32);

// Safety: repr(transparent) over u32 — no padding, no niches.
unsafe impl Pod for TermId {}

impl TermId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Snapshot section tags (component 0x01).
const TAG_DICT_ARENA: u64 = 0x0101;
const TAG_DICT_RECORDS: u64 = 0x0102;
const TAG_DICT_SORTED: u64 = 0x0103;

/// Term kind codes stored in the low bits of [`TermRecord::kind`].
const KIND_IRI: u32 = 0;
const KIND_BLANK: u32 = 1;
const KIND_PLAIN: u32 = 2;
const KIND_TYPED: u32 = 3;
const KIND_LANG: u32 = 4;
/// Literal carrying both a datatype and a language tag (publicly
/// constructible even though `validate` rejects it, so the snapshot must
/// round-trip it); `extra` stores `datatype \0 language`.
const KIND_TYPED_LANG: u32 = 5;
/// The bit of [`TermRecord::kind`] set when the term has a numeric view.
const NUMERIC: u32 = 1 << 8;
/// The bit of [`TermRecord::kind`] set when neither the lexical form nor the
/// extra string needs a JSON escape.
const PLAIN: u32 = 1 << 9;

/// Fixed-width description of one term: a kind code plus two `(offset, len)`
/// ranges into the string arena (lexical form and the kind-dependent extra
/// string — datatype IRI and/or language tag), and the term's numeric view.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TermRecord {
    /// The kind code, with [`NUMERIC`] set when the term has a numeric view
    /// and [`PLAIN`] when its strings need no JSON escape.
    kind: u32,
    lex_off: u32,
    lex_len: u32,
    extra_off: u32,
    extra_len: u32,
    reserved: u32,
    /// The numeric view's `f64::to_bits` under [`NUMERIC`], else 0.
    number: u64,
}

// Safety: repr(C), five u32s, a u32 and a u64 at offset 24: no padding.
unsafe impl Pod for TermRecord {}

impl TermRecord {
    /// The kind code, without the [`NUMERIC`] and [`PLAIN`] bits.
    fn code(&self) -> u32 {
        self.kind & !(NUMERIC | PLAIN)
    }

    /// Whether the term's strings need no JSON escape.
    fn is_plain(&self) -> bool {
        self.kind & PLAIN != 0
    }

    /// The stored numeric view.
    fn view(&self) -> Option<f64> {
        (self.kind & NUMERIC != 0).then(|| f64::from_bits(self.number))
    }
}

/// What a record stores of the numeric view `number`: its [`NUMERIC`] bit and
/// its bits. Two views store alike exactly when they are equal bit for bit.
fn stored_view(number: Option<f64>) -> (u32, u64) {
    number.map_or((0, 0), |n| (NUMERIC, n.to_bits()))
}

/// What a record stores of a term whose strings are `lexical` and `extra`:
/// [`PLAIN`] when neither needs a JSON escape, else 0.
fn stored_plain(lexical: &str, extra: &str) -> u32 {
    if is_json_plain(lexical) && is_json_plain(extra) {
        PLAIN
    } else {
        0
    }
}

/// Decomposes a term into its snapshot key: `(kind, lexical, extra)`.
fn term_key(term: &Term) -> (u32, &str, Cow<'_, str>) {
    match term {
        Term::Iri(s) => (KIND_IRI, s, Cow::Borrowed("")),
        Term::BlankNode(s) => (KIND_BLANK, s, Cow::Borrowed("")),
        Term::Literal {
            lexical,
            datatype,
            language,
        } => match (datatype, language) {
            (None, None) => (KIND_PLAIN, lexical, Cow::Borrowed("")),
            (Some(dt), None) => (KIND_TYPED, lexical, Cow::Borrowed(dt.as_str())),
            (None, Some(l)) => (KIND_LANG, lexical, Cow::Borrowed(l.as_str())),
            (Some(dt), Some(l)) => (KIND_TYPED_LANG, lexical, Cow::Owned(format!("{dt}\0{l}"))),
        },
    }
}

/// Rebuilds a borrowed term from its stored key parts.
fn term_ref_from_parts<'a>(kind: u32, lexical: &'a str, extra: &'a str) -> TermRef<'a> {
    let (datatype, language) = match kind {
        KIND_IRI => return TermRef::Iri(lexical),
        KIND_BLANK => return TermRef::BlankNode(lexical),
        KIND_PLAIN => (None, None),
        KIND_TYPED => (Some(extra), None),
        KIND_LANG => (None, Some(extra)),
        _ => {
            let (dt, lang) = extra.split_once('\0').unwrap_or((extra, ""));
            (Some(dt), Some(lang))
        }
    };
    TermRef::Literal {
        lexical,
        datatype,
        language,
    }
}

/// What both lookups compare and order terms by: kind code, lexical bytes,
/// extra bytes.
type Key<'a> = (u32, &'a [u8], &'a [u8]);

fn record_key<'a>(arena: &'a [u8], r: &TermRecord) -> Key<'a> {
    // Both ranges end inside the arena (the `Dictionary` invariant), so the
    // sums fit a `usize`.
    let range = |off: u32, len: u32| off as usize..off as usize + len as usize;
    (
        r.code(),
        &arena[range(r.lex_off, r.lex_len)],
        &arena[range(r.extra_off, r.extra_len)],
    )
}

/// Slots of an open-addressed hash index over `entries` entries (the
/// dictionary's terms, the triple store's triples): a power of two filled to
/// at most one half, so a linear probe always ends at an empty slot, after
/// ≈ 1.5 slots on a hit and ≈ 2.5 on a miss.
pub(crate) fn slots_for(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(16)
}

/// What the hash index stores for the term `id`: `id + 1`, 0 being the empty
/// slot.
///
/// # Panics
/// Panics if `id + 1` does not fit the index's 32-bit slots.
fn slot_entry(id: usize) -> u32 {
    u32::try_from(id + 1).expect("the dictionary's hash index addresses at most u32::MAX terms")
}

/// An arena offset as a record stores it.
///
/// # Panics
/// Panics if `offset` does not fit the records' 32-bit offsets.
fn arena_offset(offset: usize) -> u32 {
    u32::try_from(offset).expect("the dictionary's records address at most u32::MAX arena bytes")
}

/// The one structure that answers term → id.
#[derive(Debug, Clone)]
enum Lookup {
    /// While encoding: open addressing with linear probing over slots of
    /// `id + 1` (see [`slots_for`], [`slot_entry`]). Build-time state: never
    /// serialised, and left to the memory ledger's `unaccounted` line.
    Hashed(Vec<u32>),
    /// Once frozen or mapped: term ids sorted by [`Key`] for binary search.
    Sorted(FlatVec<u32>),
}

/// A bidirectional mapping between [`Term`]s and [`TermId`]s.
///
/// Encoding is insert-or-get: encoding the same term twice yields the same
/// id. Decoding is O(1) via the record array; `id_of` is O(1) while the
/// dictionary is being encoded into and O(log n) (binary search over the
/// arena) once it is frozen or mapped.
///
/// Invariant (what `term_ref` relies on): every record's two ranges lie
/// inside `arena`, on UTF-8 boundaries, and hold valid UTF-8. `encode_key`
/// and `read_sections` are the only places that add records, and nothing
/// rewrites a byte either array already holds.
#[derive(Debug, Clone)]
pub struct Dictionary {
    arena: FlatVec<u8>,
    records: FlatVec<TermRecord>,
    lookup: Lookup,
    /// Keys the hash index. Per process and random, so terms from outside
    /// (`--ntriples`) cannot be chosen to collide.
    hasher: RandomState,
}

impl Default for Dictionary {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `capacity` terms.
    pub fn with_capacity(capacity: usize) -> Self {
        Dictionary {
            arena: FlatVec::new(),
            records: Vec::with_capacity(capacity).into(),
            lookup: Lookup::Hashed(vec![0; slots_for(capacity)]),
            hasher: RandomState::new(),
        }
    }

    /// Returns `true` if lookups go through the sorted ids: the dictionary
    /// was frozen, or is read in place from a snapshot.
    pub fn is_frozen(&self) -> bool {
        matches!(self.lookup, Lookup::Sorted(_))
    }

    /// Ends loading: sorts the ids for binary search, drops the hash index
    /// and the arrays' spare capacity. Ids, lookups and iteration order are
    /// unchanged; a later `encode` builds the index again. A no-op on a
    /// dictionary that is already frozen.
    pub fn freeze(&mut self) {
        if let Lookup::Hashed(_) = self.lookup {
            self.lookup = Lookup::Sorted(self.sorted_ids().into());
            if !self.arena.is_view() {
                self.arena.to_mut().shrink_to_fit();
                self.records.to_mut().shrink_to_fit();
            }
        }
    }

    /// The ids in key order.
    fn sorted_ids(&self) -> Vec<u32> {
        let (arena, records): (&[u8], &[TermRecord]) = (&self.arena, &self.records);
        let mut sorted: Vec<u32> = (0..records.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| {
            record_key(arena, &records[a as usize]).cmp(&record_key(arena, &records[b as usize]))
        });
        sorted
    }

    /// Heap and mapped bytes of the three flat arrays; `sorted` is zero
    /// until the dictionary is frozen.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 3] {
        let sorted = match &self.lookup {
            Lookup::Sorted(sorted) => sorted.into(),
            Lookup::Hashed(_) => MemoryUse::default(),
        };
        [
            ("arena", (&self.arena).into()),
            ("records", (&self.records).into()),
            ("sorted", sorted),
        ]
    }

    /// Probes `table` for `key`: the id it is indexed under, or else the
    /// empty slot that ends its probe sequence.
    fn probe(&self, table: &[u32], key: Key<'_>) -> Result<TermId, usize> {
        let mask = table.len() - 1;
        let mut slot = self.hasher.hash_one(key) as usize & mask;
        loop {
            let Some(id) = table[slot].checked_sub(1) else {
                return Err(slot);
            };
            if record_key(&self.arena, &self.records[id as usize]) == key {
                return Ok(TermId(id));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// A hash index of `slots` slots over every record.
    fn index(&self, slots: usize) -> Vec<u32> {
        let mut table = vec![0; slots];
        for (id, record) in self.records.iter().enumerate() {
            // A snapshot may list one term under two ids: the first keeps it.
            if let Err(slot) = self.probe(&table, record_key(&self.arena, record)) {
                table[slot] = slot_entry(id);
            }
        }
        table
    }

    fn lookup_key(&self, key: Key<'_>) -> Option<TermId> {
        match &self.lookup {
            Lookup::Hashed(table) => self.probe(table, key).ok(),
            Lookup::Sorted(sorted) => sorted
                .binary_search_by(|&id| {
                    record_key(&self.arena, &self.records[id as usize]).cmp(&key)
                })
                .ok()
                .map(|pos| TermId(sorted[pos])),
        }
    }

    /// Insert-or-get by key parts: a new term's bytes are appended to the
    /// arena, once, and its record indexed.
    fn encode_key(&mut self, kind: u32, lex: &str, extra: &str) -> TermId {
        let id = self.records.len();
        // Frozen, mapped or about to fill past one half: index (again).
        let slots = slots_for(id + 1);
        if !matches!(&self.lookup, Lookup::Hashed(table) if table.len() >= slots) {
            self.lookup = Lookup::Hashed(self.index(slots));
        }
        let Lookup::Hashed(table) = &self.lookup else {
            unreachable!("indexed above");
        };
        let slot = match self.probe(table, (kind, lex.as_bytes(), extra.as_bytes())) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let entry = slot_entry(id);
        let lex_off = self.arena.len();
        let extra_off = lex_off + lex.len();
        // Refused before the arena grows; every offset below fits if the end does.
        arena_offset(extra_off + extra.len());
        let (numeric, number) = stored_view(term_ref_from_parts(kind, lex, extra).numeric_view());
        let arena = self.arena.to_mut();
        arena.extend_from_slice(lex.as_bytes());
        arena.extend_from_slice(extra.as_bytes());
        self.records.to_mut().push(TermRecord {
            kind: kind | numeric | stored_plain(lex, extra),
            lex_off: arena_offset(lex_off),
            lex_len: arena_offset(lex.len()),
            extra_off: arena_offset(extra_off),
            extra_len: arena_offset(extra.len()),
            reserved: 0,
            number,
        });
        if let Lookup::Hashed(table) = &mut self.lookup {
            table[slot] = entry;
        }
        TermId(entry - 1)
    }

    /// Returns the id for `term`, inserting it if it is not yet present.
    pub fn encode(&mut self, term: &Term) -> TermId {
        let (kind, lex, extra) = term_key(term);
        self.encode_key(kind, lex, &extra)
    }

    /// Convenience: encodes an IRI string.
    pub fn encode_iri(&mut self, iri: &str) -> TermId {
        self.encode_key(KIND_IRI, iri, "")
    }

    /// Returns the id of `term` if it has been encoded before.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        let (kind, lex, extra) = term_key(term);
        self.lookup_key((kind, lex.as_bytes(), extra.as_bytes()))
    }

    /// Returns the id of the IRI `iri` if it has been encoded before
    /// (straight against the arena bytes, nothing allocated).
    pub fn id_of_iri(&self, iri: &str) -> Option<TermId> {
        self.lookup_key((KIND_IRI, iri.as_bytes(), b""))
    }

    /// Returns a borrowed view of the term for `id`, if `id` is valid: no
    /// string is copied, on the heap or on a snapshot view.
    pub fn term_ref(&self, id: TermId) -> Option<TermRef<'_>> {
        self.records
            .get(id.index())
            .map(|record| self.decode(record))
    }

    /// Returns the term for `id` and whether its strings need no JSON escape,
    /// both from the term's one record: what the result writer reads of a
    /// cell. Inlined into the writer's resolve pass, where a call more per
    /// cell keeps fewer record misses in flight.
    #[inline(always)]
    pub fn term_and_plain(&self, id: TermId) -> Option<(TermRef<'_>, bool)> {
        let record = self.records.get(id.index())?;
        Some((self.decode(record), record.is_plain()))
    }

    /// Returns the term for `id` with its numeric view
    /// ([`TermRef::numeric_view`]), both from the term's one record: what a
    /// FILTER reads of a bound variable. No string is copied or parsed.
    pub fn term_and_view(&self, id: TermId) -> Option<(TermRef<'_>, Option<f64>)> {
        let record = self.records.get(id.index())?;
        Some((self.decode(record), record.view()))
    }

    /// The term `record` describes, borrowed from the arena. Inlined into
    /// every reader: the result writer resolves a cell per call of
    /// `term_and_plain`, and a call more per cell keeps fewer record misses
    /// in flight.
    #[inline(always)]
    fn decode(&self, record: &TermRecord) -> TermRef<'_> {
        let (kind, lex, extra) = record_key(&self.arena, record);
        // SAFETY: by the struct invariant both ranges hold valid UTF-8:
        // `encode` and `encode_iri` appended them from `&str`s (through
        // `encode_key`), `read_sections` validated every record's ranges
        // with `from_utf8`, and no byte either array holds is rewritten
        // afterwards (a mapped arena is a private read-only mapping, the
        // premise `ByteStore` already rests on).
        // Validating here instead would cost a pass over the string on every
        // decoded cell of every result row.
        let text = |bytes| unsafe { std::str::from_utf8_unchecked(bytes) };
        term_ref_from_parts(kind, text(lex), text(extra))
    }

    /// Returns the term for `id`, if `id` is valid.
    pub fn term(&self, id: TermId) -> Option<Term> {
        self.term_ref(id).map(TermRef::to_term)
    }

    /// Returns the term for `id` or an [`RdfError::UnknownTermId`].
    pub fn term_checked(&self, id: TermId) -> Result<Term, RdfError> {
        self.term(id).ok_or(RdfError::UnknownTermId(id.0))
    }

    /// The number of distinct terms encoded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if no terms have been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, Term)> + '_ {
        (0..self.len() as u32).map(move |i| {
            let id = TermId(i);
            (id, self.term(id).expect("ids below len are valid"))
        })
    }

    /// Returns a human-readable rendering of `id` (falls back to the raw id
    /// when unknown); handy for diagnostics and result printing.
    pub fn render(&self, id: TermId) -> String {
        match self.term(id) {
            Some(t) => t.to_string(),
            None => format!("{id}"),
        }
    }

    /// Serializes the dictionary as snapshot sections (arena, records,
    /// sorted permutation) — see `docs/STORAGE.md`. The arrays are written
    /// as they are; a dictionary not yet frozen sorts its ids for the write.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_DICT_ARENA, &self.arena);
        w.section(TAG_DICT_RECORDS, &self.records);
        match &self.lookup {
            Lookup::Sorted(sorted) => w.section(TAG_DICT_SORTED, sorted),
            Lookup::Hashed(_) => w.section(TAG_DICT_SORTED, &self.sorted_ids()),
        }
    }

    /// Reconstructs a zero-copy dictionary view from its snapshot sections,
    /// validating every record's arena ranges and their UTF-8 so later reads
    /// cannot panic, its numeric view against its lexical form's, bit for
    /// bit, so a FILTER over the view answers as over the text, and its
    /// [`PLAIN`] bit against its strings, so a crafted file cannot have the
    /// result writer copy a quote or a control byte into a body unescaped.
    /// All three read the record's strings in the one pass.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let arena: FlatVec<u8> = cur.next_section(TAG_DICT_ARENA)?;
        let records: FlatVec<TermRecord> = cur.next_section(TAG_DICT_RECORDS)?;
        let sorted: FlatVec<u32> = cur.next_section(TAG_DICT_SORTED)?;
        if sorted.len() != records.len() {
            return Err(SnapshotError::Malformed(
                "dictionary sort permutation length mismatch".into(),
            ));
        }
        let arena_len = arena.len() as u64;
        let within = |off: u32, len: u32| u64::from(off) + u64::from(len) <= arena_len;
        for (i, r) in records.iter().enumerate() {
            if !within(r.lex_off, r.lex_len)
                || !within(r.extra_off, r.extra_len)
                || r.code() > KIND_TYPED_LANG
            {
                return Err(SnapshotError::Malformed(format!(
                    "dictionary record {i} is out of bounds or has a bad kind"
                )));
            }
            // `term_ref` hands these ranges out as `&str`.
            let (kind, lex, extra) = record_key(&arena, r);
            let (Ok(lex), Ok(extra)) = (std::str::from_utf8(lex), std::str::from_utf8(extra))
            else {
                return Err(SnapshotError::Malformed(format!(
                    "dictionary record {i} is not UTF-8"
                )));
            };
            let view = term_ref_from_parts(kind, lex, extra).numeric_view();
            if (r.kind & NUMERIC, r.number) != stored_view(view) {
                return Err(SnapshotError::Malformed(format!(
                    "dictionary record {i}'s numeric view is not its lexical form's"
                )));
            }
            if r.kind & PLAIN != stored_plain(lex, extra) {
                return Err(SnapshotError::Malformed(format!(
                    "dictionary record {i}'s JSON-plain bit is not its text's"
                )));
            }
        }
        let n = records.len() as u64;
        if sorted.iter().any(|&id| u64::from(id) >= n) {
            return Err(SnapshotError::Malformed(
                "dictionary sort permutation references an invalid id".into(),
            ));
        }
        Ok(Dictionary {
            arena,
            records,
            lookup: Lookup::Sorted(sorted),
            hasher: RandomState::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use turbohom_storage::Snapshot;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a1 = d.encode(&Term::iri("http://ex.org/a"));
        let a2 = d.encode(&Term::iri("http://ex.org/a"));
        assert_eq!(a1, a2);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_sequential() {
        let mut d = Dictionary::new();
        let ids: Vec<TermId> = (0..10)
            .map(|i| d.encode(&Term::iri(format!("http://ex.org/{i}"))))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn decode_round_trips() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://ex.org/a"),
            Term::literal("hello"),
            Term::typed_literal("3", crate::vocab::XSD_INTEGER),
            Term::blank("b0"),
            Term::lang_literal("chat", "fr"),
        ];
        let ids: Vec<TermId> = terms.iter().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(*id).as_ref(), Some(t));
            assert_eq!(d.id_of(t), Some(*id));
        }
    }

    #[test]
    fn distinct_literal_shapes_get_distinct_ids() {
        let mut d = Dictionary::new();
        let plain = d.encode(&Term::literal("42"));
        let typed = d.encode(&Term::typed_literal("42", crate::vocab::XSD_INTEGER));
        let iri = d.encode(&Term::iri("42"));
        assert_ne!(plain, typed);
        assert_ne!(plain, iri);
        assert_ne!(typed, iri);
    }

    #[test]
    fn unknown_lookups_fail_gracefully() {
        let d = Dictionary::new();
        assert!(d.term(TermId(0)).is_none());
        assert!(d.id_of(&Term::iri("http://nope")).is_none());
        assert!(matches!(
            d.term_checked(TermId(9)),
            Err(RdfError::UnknownTermId(9))
        ));
        assert_eq!(d.render(TermId(3)), "#3");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.encode_iri("http://a");
        d.encode_iri("http://b");
        d.encode_iri("http://c");
        let collected: Vec<u32> = d.iter().map(|(id, _)| id.0).collect();
        assert_eq!(collected, vec![0, 1, 2]);
    }

    #[test]
    fn id_of_iri_matches_encode_iri() {
        let mut d = Dictionary::new();
        let id = d.encode_iri("http://ex.org/x");
        assert_eq!(d.id_of_iri("http://ex.org/x"), Some(id));
        assert_eq!(d.id_of_iri("http://ex.org/y"), None);
    }

    fn sample_terms() -> Vec<Term> {
        vec![
            Term::iri("http://ex.org/a"),
            Term::iri("http://ex.org/b"),
            Term::blank("b0"),
            Term::literal("plain"),
            Term::typed_literal("3", crate::vocab::XSD_INTEGER),
            Term::lang_literal("chat", "fr"),
            // Datatype + language together: rejected by validate() but
            // publicly constructible, so the snapshot must round-trip it.
            Term::Literal {
                lexical: "both".to_owned(),
                datatype: Some("http://ex.org/dt".to_owned()),
                language: Some("en".to_owned()),
            },
            Term::literal(""),
        ]
    }

    fn snapshot_view(d: &Dictionary, name: &str) -> Dictionary {
        let mut w = SnapshotWriter::new();
        d.write_sections(&mut w);
        let path =
            std::env::temp_dir().join(format!("turbohom-dict-{}-{name}.snap", std::process::id()));
        w.write_to(&path).unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let view = Dictionary::read_sections(&mut snap.cursor()).unwrap();
        std::fs::remove_file(&path).unwrap();
        // The file is unlinked but the mapping stays valid until dropped.
        view
    }

    #[test]
    fn snapshot_round_trip_preserves_ids_and_lookups() {
        let mut d = Dictionary::new();
        let terms = sample_terms();
        let ids: Vec<TermId> = terms.iter().map(|t| d.encode(t)).collect();
        let view = snapshot_view(&d, "roundtrip");
        assert!(view.is_frozen());
        assert_eq!(view.len(), d.len());
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(view.term(*id).as_ref(), Some(t), "term {t}");
            assert_eq!(view.id_of(t), Some(*id), "id_of {t}");
        }
        assert_eq!(view.id_of_iri("http://ex.org/a"), Some(ids[0]));
        assert_eq!(view.id_of_iri("http://ex.org/zzz"), None);
        assert!(view.id_of(&Term::literal("missing")).is_none());
        assert!(view.term(TermId(terms.len() as u32)).is_none());
        let collected: Vec<Term> = view.iter().map(|(_, t)| t).collect();
        assert_eq!(collected, terms);
    }

    #[test]
    fn freeze_keeps_ids_and_lookups_and_encode_thaws() {
        let mut d = Dictionary::new();
        let terms = sample_terms();
        let ids: Vec<TermId> = terms.iter().map(|t| d.encode(t)).collect();
        // The arrays are on the ledger from the first `encode`; only the
        // sorted ids wait for the freeze.
        let [arena, records, sorted] = d.memory().map(|(_, m)| m.heap);
        assert!(arena > 0);
        assert_eq!((records, sorted), ((terms.len() * 32) as u64, 0));
        d.freeze();
        assert!(d.is_frozen());
        let [arena, records, sorted] = d.memory().map(|(_, m)| m.heap);
        assert_eq!(records, (terms.len() * 32) as u64);
        assert_eq!(sorted, (terms.len() * 4) as u64);
        assert!(arena > 0);
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.term(*id).as_ref(), Some(t));
            assert_eq!(d.id_of(t), Some(*id));
        }
        assert_eq!(d.id_of_iri("http://ex.org/b"), Some(ids[1]));
        d.freeze(); // a second freeze changes nothing
        assert_eq!(d.len(), terms.len());
        // Encoding thaws: old ids stay, the new term gets the next one.
        assert_eq!(d.encode(&terms[3]), ids[3]);
        assert_eq!(d.encode_iri("http://ex.org/new").index(), terms.len());
        assert!(!d.is_frozen());
    }

    /// One term of each of the six kinds from three short strings.
    fn term_of_kind(kind: usize, lexical: &str, datatype: &str, language: &str) -> Term {
        let (datatype, language) = (format!("http://ex.org/dt/{datatype}"), language.to_owned());
        match kind {
            0 => Term::iri(format!("http://ex.org/{lexical}")),
            1 => Term::blank(lexical),
            2 => Term::literal(lexical),
            3 => Term::typed_literal(lexical, datatype),
            4 => Term::lang_literal(lexical, language),
            _ => Term::Literal {
                lexical: lexical.to_owned(),
                datatype: Some(datatype),
                language: Some(language),
            },
        }
    }

    proptest::proptest! {
        /// The owned, the frozen and the snapshot-view form are one
        /// dictionary: same length, same iteration order, same answer to
        /// every `id_of` and `term_ref` — and thawing a frozen dictionary
        /// keeps every id.
        #[test]
        fn owned_frozen_and_snapshot_forms_agree(
            specs in proptest::collection::vec(
                (0usize..6, "[a-cé ]{0,5}", "[a-b]{1,2}", "[a-b]{1,2}"),
                1..40,
            ),
            case in 0u64..u64::MAX,
        ) {
            let terms: Vec<Term> = specs
                .iter()
                .map(|(kind, lex, dt, lang)| term_of_kind(*kind, lex, dt, lang))
                .collect();
            let mut owned = Dictionary::new();
            let ids: Vec<TermId> = terms.iter().map(|t| owned.encode(t)).collect();
            let mut frozen = owned.clone();
            frozen.freeze();
            let view = snapshot_view(&owned, &format!("prop-{case:x}"));
            let absent = Term::iri("http://ex.org/absent/term");
            for flat in [&frozen, &view] {
                proptest::prop_assert!(flat.is_frozen());
                proptest::prop_assert_eq!(flat.len(), owned.len());
                proptest::prop_assert_eq!(
                    flat.iter().collect::<Vec<_>>(),
                    owned.iter().collect::<Vec<_>>()
                );
                for (term, id) in terms.iter().zip(&ids) {
                    proptest::prop_assert_eq!(flat.id_of(term), Some(*id));
                    proptest::prop_assert_eq!(flat.term_ref(*id), owned.term_ref(*id));
                }
                proptest::prop_assert_eq!(flat.id_of(&absent), None);
                proptest::prop_assert_eq!(flat.term_ref(TermId(owned.len() as u32)), None);
            }
            let mut thawed = frozen.clone();
            proptest::prop_assert_eq!(thawed.encode(&absent).index(), owned.len());
            for (term, id) in terms.iter().zip(&ids) {
                proptest::prop_assert_eq!(thawed.id_of(term), Some(*id));
            }
        }
    }

    proptest::proptest! {
        /// Any interleaving of the dictionary's operations answers as the
        /// owned form did — a `HashMap<Term, u32>` plus a `Vec<Term>`, kept
        /// here as the model.
        #[test]
        fn interleaved_operations_match_the_owned_model(
            ops in proptest::collection::vec(
                (0usize..10, 0usize..6, "[a-cé ]{0,3}", "[a-b]{1,2}", "[a-b]{1,2}"),
                1..120,
            ),
            case in 0u64..u64::MAX,
        ) {
            let mut dict = Dictionary::new();
            let mut ids: HashMap<Term, u32> = HashMap::new();
            let mut terms: Vec<Term> = Vec::new();
            for (step, (op, kind, lex, dt, lang)) in ops.iter().enumerate() {
                let term = term_of_kind(*kind, lex, dt, lang);
                let known = ids.get(&term).map(|&id| TermId(id));
                match op {
                    0..=3 => {
                        let expected = known.unwrap_or(TermId(terms.len() as u32));
                        proptest::prop_assert_eq!(dict.encode(&term), expected, "step {}", step);
                        if known.is_none() {
                            ids.insert(term.clone(), expected.0);
                            terms.push(term);
                        }
                    }
                    4 | 5 => proptest::prop_assert_eq!(dict.id_of(&term), known, "step {}", step),
                    6 => {
                        let iri = format!("http://ex.org/{lex}");
                        let known = ids.get(&Term::iri(iri.as_str())).map(|&id| TermId(id));
                        proptest::prop_assert_eq!(dict.id_of_iri(&iri), known, "step {}", step);
                    }
                    7 => {
                        // Any id up to one past the last.
                        let id = (case as usize).wrapping_add(step) % (terms.len() + 2);
                        proptest::prop_assert_eq!(
                            dict.term_ref(TermId(id as u32)),
                            terms.get(id).map(TermRef::from),
                            "step {}", step
                        );
                    }
                    8 => dict.freeze(),
                    _ => dict = snapshot_view(&dict, &format!("model-{case:x}-{step}")),
                }
                proptest::prop_assert_eq!(dict.len(), terms.len(), "step {}", step);
            }
            let decoded: Vec<Term> = dict.iter().map(|(_, term)| term).collect();
            proptest::prop_assert_eq!(&decoded, &terms);
            for (id, term) in terms.iter().enumerate() {
                proptest::prop_assert_eq!(dict.id_of(term), Some(TermId(id as u32)));
            }
        }
    }

    #[test]
    fn the_hash_index_grows_through_many_doublings_and_after_a_freeze() {
        // 16 slots hold 8 terms: 3,000 terms cross nine doublings, and the
        // encodes after the freeze index 3,000 records and cross a tenth.
        let term = |i: usize| term_of_kind(i % 6, &format!("shared/prefix/{i}"), "d", "l");
        let mut d = Dictionary::new();
        for i in 0..3_000 {
            assert_eq!(d.encode(&term(i)).index(), i);
            assert_eq!(d.encode(&term(i / 2)).index(), i / 2);
        }
        d.freeze();
        for i in 0..5_000 {
            assert_eq!(d.encode(&term(i)).index(), i);
        }
        for frozen in [false, true] {
            assert_eq!(d.is_frozen(), frozen);
            assert_eq!(d.len(), 5_000);
            for i in 0..5_000 {
                assert_eq!(d.id_of(&term(i)), Some(TermId(i as u32)));
                assert_eq!(d.term(TermId(i as u32)), Some(term(i)));
            }
            assert_eq!(d.id_of(&term(5_000)), None);
            d.freeze();
        }
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX terms")]
    fn an_id_the_hash_index_cannot_hold_is_refused_not_wrapped() {
        assert_eq!(slot_entry(u32::MAX as usize - 1), u32::MAX);
        slot_entry(u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX arena bytes")]
    fn an_arena_the_records_cannot_address_is_refused_not_wrapped() {
        assert_eq!(arena_offset(u32::MAX as usize), u32::MAX);
        arena_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn a_record_is_32_bytes_and_keeps_its_terms_numeric_view() {
        assert_eq!(std::mem::size_of::<TermRecord>(), 32);
        let mut d = Dictionary::new();
        let terms = [
            Term::typed_literal(" 42 ", crate::vocab::XSD_INTEGER),
            Term::literal("NaN"),
            Term::lang_literal("-0", "en"),
            Term::literal("abc"),
            Term::iri("http://ex.org/1"),
            Term::blank("1"),
        ];
        let ids: Vec<TermId> = terms.iter().map(|t| d.encode(t)).collect();
        let view = snapshot_view(&d, "views");
        for flat in [&d, &view] {
            let views: Vec<Option<u64>> = (ids.iter())
                .map(|&id| flat.term_and_view(id).unwrap().1.map(f64::to_bits))
                .collect();
            let expected = [Some(42.0), Some(f64::NAN), Some(-0.0), None, None, None];
            assert_eq!(views, expected.map(|n| n.map(f64::to_bits)));
        }
    }

    /// Reads a dictionary from sections holding `arena` and `records` (and
    /// the identity as their order), through a file of its own.
    fn read_records(arena: &[u8], records: &[TermRecord]) -> Result<Dictionary, SnapshotError> {
        static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let file = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut w = SnapshotWriter::new();
        w.section(TAG_DICT_ARENA, arena);
        w.section(TAG_DICT_RECORDS, records);
        w.section(
            TAG_DICT_SORTED,
            &(0..records.len() as u32).collect::<Vec<_>>(),
        );
        let path = std::env::temp_dir().join(format!(
            "turbohom-dict-{}-records-{file}.snap",
            std::process::id()
        ));
        w.write_to(&path).unwrap();
        let read = Dictionary::read_sections(&mut Snapshot::open(&path).unwrap().cursor());
        std::fs::remove_file(&path).unwrap();
        read
    }

    #[test]
    fn a_snapshot_record_whose_view_or_range_is_wrong_is_refused() {
        let mut d = Dictionary::new();
        d.encode(&Term::typed_literal("12", crate::vocab::XSD_INTEGER));
        let (arena, record) = (d.arena.to_vec(), d.records[0]);
        assert_eq!(record.view(), Some(12.0));
        assert!(read_records(&arena, &[record]).is_ok());
        let malformed = |record: TermRecord, what: &str| {
            let err = read_records(&arena, &[record]).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Malformed(m) if m.contains(what)),
                "{err:?}"
            );
        };
        let view = "numeric view is not its lexical form's";
        // Another number, the same number one bit off, no view, and a view
        // on the datatype IRI's kind.
        malformed(
            TermRecord {
                number: 13f64.to_bits(),
                ..record
            },
            view,
        );
        malformed(
            TermRecord {
                number: record.number ^ 1,
                ..record
            },
            view,
        );
        malformed(
            TermRecord {
                kind: KIND_TYPED | PLAIN,
                ..record
            },
            view,
        );
        malformed(
            TermRecord {
                kind: KIND_IRI | NUMERIC | PLAIN,
                ..record
            },
            view,
        );
        malformed(
            TermRecord {
                kind: KIND_TYPED | PLAIN,
                number: 0,
                ..record
            },
            view,
        );
        // A range that runs one byte past the arena (the datatype IRI ends
        // it), or past `u32::MAX`; and a bad kind code.
        let bounds = "out of bounds";
        malformed(
            TermRecord {
                extra_len: record.extra_len + 1,
                ..record
            },
            bounds,
        );
        malformed(
            TermRecord {
                lex_off: u32::MAX,
                lex_len: 2,
                ..record
            },
            bounds,
        );
        malformed(
            TermRecord {
                kind: 6 | NUMERIC | PLAIN,
                ..record
            },
            bounds,
        );
    }

    /// The encoder sets [`PLAIN`] exactly on terms whose lexical form and
    /// extra string need no JSON escape, and a snapshot record that claims
    /// otherwise, either way, is refused.
    #[test]
    fn a_snapshot_record_whose_plain_bit_is_wrong_is_refused() {
        let mut d = Dictionary::new();
        let terms = [
            (Term::literal("clean é日😀 text"), true),
            (Term::iri("http://ex.org/a"), true),
            (Term::literal(""), true),
            (Term::literal("say \"hi\""), false),
            (Term::literal("back\\slash"), false),
            (Term::literal("bell\u{7}"), false),
            (Term::lang_literal("tagged", "e\u{1}n"), false),
            (Term::typed_literal("1", "http://ex.org/\"dt"), false),
            (Term::blank("b\n0"), false),
        ];
        for (term, _) in &terms {
            d.encode(term);
        }
        let arena = d.arena.to_vec();
        assert!(read_records(&arena, &d.records).is_ok());
        for (record, (term, plain)) in d.records.iter().zip(&terms) {
            assert_eq!(record.is_plain(), *plain, "{term}");
            let flipped = TermRecord {
                kind: record.kind ^ PLAIN,
                ..*record
            };
            let err = read_records(&arena, &[flipped]).map(|_| ()).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Malformed(m) if m.contains("JSON-plain bit")),
                "{term}: {err:?}"
            );
        }
    }

    #[test]
    fn encode_on_a_view_copies_on_write() {
        let mut d = Dictionary::new();
        for t in sample_terms() {
            d.encode(&t);
        }
        let mut view = snapshot_view(&d, "cow");
        let before = view.len();
        // Re-encoding an existing term must not change anything.
        assert!(view.encode(&Term::literal("plain")).index() < before);
        let new_id = view.encode_iri("http://ex.org/new");
        assert_eq!(new_id.index(), before);
        assert!(!view.is_frozen());
        assert_eq!(view.term(new_id), Some(Term::iri("http://ex.org/new")));
    }
}
