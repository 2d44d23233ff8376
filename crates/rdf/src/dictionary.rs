//! Dictionary encoding between [`Term`]s and dense integer [`TermId`]s.
//!
//! All engines in this repository (TurboHOM++, the merge-join baseline, the
//! hash-join baseline) operate exclusively over `TermId`s, which is the same
//! design decision RDF-3X and the paper's system make: the dictionary is
//! populated once at load time and query execution never touches strings.
//! This also lets the benchmark harness exclude "dictionary look-up time"
//! from elapsed times, as Section 7.1 of the paper prescribes.
//!
//! The dictionary is flat arrays from the first [`Dictionary::encode`] on: a
//! UTF-8 string arena, fixed-width `TermRecord`s pointing into it (indexed
//! by id), a small table of shared strings, and one lookup structure over the
//! ids.
//!
//! Strings that many terms repeat are stored once, in the shared table, as
//! HDT's dictionary does (Fernández et al., JWS 2013): an IRI is stored as
//! its namespace (everything up to its last `/` or `#`, [`IriRef::split`]),
//! shared, plus its local name in the arena; a typed literal's datatype IRI
//! is shared whole. The arena holds only local names, lexical forms and
//! language tags. At LUBM(640) 146,603 IRIs share 1,924 namespaces; at
//! BSBM(200) 106,081 IRIs share 5, and 41,999 typed literals 2 datatypes.
//!
//! A record is 16 bytes, four `u32` words: the arena offset where the
//! term's strings begin, the length of its lexical form (an IRI's local
//! name), the kind code with two flag bits and, above them, the index of its
//! shared string (namespace or datatype IRI), and the index of its numeric
//! view. Its extra string (a language tag) has no length of its own: a term's
//! strings are appended to the arena in id order, so they end where the next
//! record's begin, the last record's at the arena's end, and only the two
//! language-tagged kinds have any bytes after the lexical form. The numeric
//! view ([`TermRef::numeric_view`]) is taken once, when the term is encoded,
//! and kept beside the records, one `f64` per term that has one, with a flag
//! bit in the kind saying whether it does (so the literal `"NaN"` keeps its
//! NaN). A FILTER comparison reads the view from there
//! ([`Dictionary::term_and_view`]) and no byte of the arena, so no string is
//! parsed while a query runs. A second flag bit says whether all of the
//! term's strings are JSON-plain ([`is_json_plain`]: no `"`, `\` or control
//! byte), decided once as well, from a bit each shared string carries and
//! the arena strings: the result writer copies such a term's strings whole
//! ([`Dictionary::term_and_plain`]) and escapes only the rest, so no byte of
//! a clean term is tested while a result is written. Offsets are 32 bits: the
//! arena refuses to grow past `u32::MAX` bytes, as the ids refuse the 2³²-th
//! term and the shared table its 2²⁷-th string.
//!
//! Lookups and the sorted ids order terms as if nothing were shared: by kind,
//! the whole lexical form, then the whole extra string (datatype IRI, then
//! language tag), each compared piece by piece across the shared and the
//! arena part. Two records that share their shared string compare by their
//! arena strings alone.
//!
//! The lookup structure is one of two:
//!
//! * **Hashed** while terms are being encoded — an open-addressing table of
//!   ids, hashed over the key's pieces with a per-process keyed SipHash,
//!   never stored. SipHash takes its input as a stream, so a split key hashes
//!   as the whole one: encoding a known IRI hashes it once, whole, and
//!   compares it once; only a new IRI looks up its namespace.
//! * **Sorted** once served — the ids in key order, for binary search.
//!   [`Dictionary::freeze`] sorts the ids and drops the table, and a snapshot
//!   stores exactly the arena, the records, this permutation, the shared
//!   table and the numeric views, so a mapped dictionary reads them in place: heap and snapshot
//!   stores share one read path. `encode` on a sorted dictionary rebuilds the
//!   table from the records (ids unchanged, no string copied).

use crate::term::{cmp_pieces, ends_namespace, IriRef, Term, TermRef};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hasher, RandomState};
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
const TAG_DICT_SHARED_ARENA: u64 = 0x0104;
const TAG_DICT_SHARED_RECORDS: u64 = 0x0105;
const TAG_DICT_NUMBERS: u64 = 0x0106;

/// Term kind codes stored in the low bits of [`TermRecord::kind`].
const KIND_IRI: u32 = 0;
const KIND_BLANK: u32 = 1;
const KIND_PLAIN: u32 = 2;
const KIND_TYPED: u32 = 3;
const KIND_LANG: u32 = 4;
/// Literal carrying both a datatype and a language tag (publicly
/// constructible even though `validate` rejects it, so the snapshot must
/// round-trip it); its extra string is `\0` and the tag, so that it orders
/// after the datatype as `datatype \0 language`.
const KIND_TYPED_LANG: u32 = 5;
/// The bits of [`TermRecord::kind`] that hold the kind code.
const CODE: u32 = 0b111;
/// The bit of [`TermRecord::kind`] set when the term has a numeric view.
const NUMERIC: u32 = 1 << 3;
/// The bit of [`TermRecord::kind`] set when none of the term's strings needs
/// a JSON escape.
const PLAIN: u32 = 1 << 4;
/// Where the shared-string index starts in [`TermRecord::kind`]: above the
/// code and the flags, in the word's remaining 27 bits.
const SHARED_SHIFT: u32 = 5;

/// Whether terms of kind `code` keep a string in the shared table: an IRI its
/// namespace, a typed literal its datatype IRI. Every other record names the
/// shared empty string, index 0.
fn shares(code: u32) -> bool {
    matches!(code, KIND_IRI | KIND_TYPED | KIND_TYPED_LANG)
}

/// Whether terms of kind `code` have an extra string (a language tag) after
/// their lexical form; every other kind's strings end with the lexical form.
fn has_extra(code: u32) -> bool {
    matches!(code, KIND_LANG | KIND_TYPED_LANG)
}

/// Fixed-width description of one term: where its strings begin in the
/// string arena, the length of the first (the lexical form, an IRI's local
/// name), its kind with the index of its shared string, and the index of its
/// numeric view. The extra string, a language tag, follows the lexical form
/// and ends where the next record's strings begin (the last record's at the
/// arena's end).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TermRecord {
    off: u32,
    lex_len: u32,
    /// The kind code, with [`NUMERIC`] set when the term has a numeric view
    /// and [`PLAIN`] when its strings need no JSON escape, and above them
    /// (from [`SHARED_SHIFT`]) the index of the term's shared string
    /// ([`shares`]): an IRI's namespace, a typed literal's datatype IRI; 0,
    /// the empty string, for the other kinds.
    kind: u32,
    /// Under [`NUMERIC`], the index of the term's numeric view in the
    /// dictionary's `numbers`; else 0.
    number: u32,
}

// Safety: repr(C), four u32s: no padding.
unsafe impl Pod for TermRecord {}

impl TermRecord {
    /// The kind code, without the flags and the shared index.
    fn code(&self) -> u32 {
        self.kind & CODE
    }

    /// Whether the term's strings need no JSON escape.
    fn is_plain(&self) -> bool {
        self.kind & PLAIN != 0
    }

    /// The index of the term's shared string.
    fn shared(&self) -> u32 {
        self.kind >> SHARED_SHIFT
    }

    /// The index of the term's numeric view, if it has one.
    fn number(&self) -> Option<u32> {
        (self.kind & NUMERIC != 0).then_some(self.number)
    }
}

/// One string of the shared table: its range in the shared arena and whether
/// it needs no JSON escape (1) or does (0).
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SharedRecord {
    off: u32,
    len: u32,
    plain: u32,
}

// Safety: repr(C), three u32s: no padding.
unsafe impl Pod for SharedRecord {}

/// What a record stores of a term whose arena strings are `lexical` and
/// `extra` and whose shared string is JSON-plain when `shared_plain`:
/// [`PLAIN`] when none needs a JSON escape, else 0.
fn stored_plain(shared_plain: bool, lexical: &str, extra: &str) -> u32 {
    if shared_plain && is_json_plain(lexical) && is_json_plain(extra) {
        PLAIN
    } else {
        0
    }
}

/// A term as the dictionary stores it before its IRI is split: the kind
/// code, the lexical form (an IRI whole), the datatype IRI (empty if none)
/// and the extra string (see [`KIND_TYPED_LANG`]).
fn term_parts(term: &Term) -> (u32, &str, &str, Cow<'_, str>) {
    match term {
        Term::Iri(s) => (KIND_IRI, s, "", Cow::Borrowed("")),
        Term::BlankNode(s) => (KIND_BLANK, s, "", Cow::Borrowed("")),
        Term::Literal {
            lexical,
            datatype,
            language,
        } => match (datatype, language) {
            (None, None) => (KIND_PLAIN, lexical, "", Cow::Borrowed("")),
            (Some(dt), None) => (KIND_TYPED, lexical, dt, Cow::Borrowed("")),
            (None, Some(l)) => (KIND_LANG, lexical, "", Cow::Borrowed(l.as_str())),
            (Some(dt), Some(l)) => (KIND_TYPED_LANG, lexical, dt, Cow::Owned(format!("\0{l}"))),
        },
    }
}

/// Rebuilds a borrowed term from its stored parts: the shared string, the
/// lexical form and the extra string.
fn term_ref_from_parts<'a>(
    kind: u32,
    shared: &'a str,
    lexical: &'a str,
    extra: &'a str,
) -> TermRef<'a> {
    let (datatype, language) = match kind {
        KIND_IRI => return TermRef::Iri(IriRef::new(shared, lexical)),
        KIND_BLANK => return TermRef::BlankNode(lexical),
        KIND_PLAIN => (None, None),
        KIND_TYPED => (Some(shared), None),
        KIND_LANG => (None, Some(extra)),
        _ => (
            Some(shared),
            Some(extra.strip_prefix('\0').unwrap_or(extra)),
        ),
    };
    TermRef::Literal {
        lexical,
        datatype,
        language,
    }
}

/// What both lookups compare and order terms by: the kind code, the lexical
/// bytes, the extra bytes. Each string comes in two pieces (an IRI's
/// namespace and local name; a datatype IRI and the language tag after it)
/// and is compared and hashed as the one string they spell.
#[derive(Clone, Copy)]
struct Key<'a> {
    kind: u32,
    lexical: [&'a [u8]; 2],
    extra: [&'a [u8]; 2],
}

impl<'a> Key<'a> {
    /// The key of a term given whole: `lexical` is an IRI's whole text.
    fn whole(kind: u32, lexical: &'a str, datatype: &'a str, extra: &'a str) -> Self {
        Key {
            kind,
            lexical: [b"", lexical.as_bytes()],
            extra: [datatype.as_bytes(), extra.as_bytes()],
        }
    }

    fn cmp(&self, other: &Key<'_>) -> Ordering {
        self.kind
            .cmp(&other.kind)
            .then_with(|| cmp_pieces(self.lexical, other.lexical))
            .then_with(|| cmp_pieces(self.extra, other.extra))
    }

    /// The key's hash under `hasher`: the same wherever its strings split.
    /// An empty piece is not written: it would hash alike, but each `write`
    /// costs SipHash ≈ 10 ns, and most keys have two empty pieces.
    fn hash(&self, hasher: &RandomState) -> u64 {
        let mut state = hasher.build_hasher();
        state.write_u32(self.kind);
        for [first, second] in [self.lexical, self.extra] {
            state.write_usize(first.len() + second.len());
            for piece in [first, second] {
                if !piece.is_empty() {
                    state.write(piece);
                }
            }
        }
        state.finish()
    }
}

/// Slots of an open-addressed hash index over `entries` entries (the
/// dictionary's terms, its shared strings): a power of two filled to at most
/// one half, so a linear probe always ends at an empty slot, after ≈ 1.5
/// slots on a hit and ≈ 2.5 on a miss.
pub(crate) fn slots_for(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(16)
}

/// What a hash index stores for the entry `id`: `id + 1`, 0 being the empty
/// slot.
///
/// # Panics
/// Panics if `id + 1` does not fit the index's 32-bit slots.
fn slot_entry(id: usize) -> u32 {
    u32::try_from(id + 1).expect("the dictionary's hash index addresses at most u32::MAX terms")
}

/// Probes the open-addressed `table` from `hash` for an entry `is_key`
/// accepts: that entry's id, or else the empty slot that ends the probe
/// sequence.
fn probe(table: &[u32], hash: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, usize> {
    let mask = table.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        let Some(id) = table[slot].checked_sub(1) else {
            return Err(slot);
        };
        if is_key(id) {
            return Ok(id);
        }
        slot = (slot + 1) & mask;
    }
}

/// An arena offset as a record stores it.
///
/// # Panics
/// Panics if `offset` does not fit the records' 32-bit offsets.
fn arena_offset(offset: usize) -> u32 {
    u32::try_from(offset).expect("the dictionary's records address at most u32::MAX arena bytes")
}

/// A shared-string index as a record's kind word holds it, shifted above the
/// code and the flags.
///
/// # Panics
/// Panics if `index` does not fit the word's 27 bits left for it.
fn packed_shared(index: usize) -> u32 {
    u32::try_from(index)
        .ok()
        .filter(|&index| index <= u32::MAX >> SHARED_SHIFT)
        .expect("the dictionary's records address at most 2^27 shared strings")
        << SHARED_SHIFT
}

/// The bytes of `range` in `arena`. Every range a shared record holds ends
/// inside its arena (the `Dictionary` invariant), so the sum fits a `usize`.
fn slice(arena: &[u8], off: u32, len: u32) -> &[u8] {
    &arena[off as usize..off as usize + len as usize]
}

/// The strings many terms share, each stored once: IRI namespaces and
/// datatype IRIs. Entry 0 is the empty string, which every record of a kind
/// that shares nothing names.
#[derive(Debug, Clone)]
struct SharedStrings {
    arena: FlatVec<u8>,
    records: FlatVec<SharedRecord>,
    /// While encoding: open addressing over `index + 1`, as the dictionary's
    /// own hash index, and like it never serialised. Empty once frozen or
    /// mapped; the next new string rebuilds it.
    index: Vec<u32>,
}

impl SharedStrings {
    fn new() -> Self {
        SharedStrings {
            arena: FlatVec::new(),
            records: vec![SharedRecord {
                off: 0,
                len: 0,
                plain: 1,
            }]
            .into(),
            index: Vec::new(),
        }
    }

    /// The bytes of shared string `i`.
    #[inline(always)]
    fn get(&self, i: u32) -> &[u8] {
        let r = &self.records[i as usize];
        slice(&self.arena, r.off, r.len)
    }

    /// The index of `text`, stored first if it is new.
    fn intern(&mut self, text: &str, hasher: &RandomState) -> u32 {
        let id = self.records.len();
        let slots = slots_for(id + 1);
        if self.index.len() < slots {
            self.index = vec![0; slots];
            for i in 0..id {
                // A snapshot may list one string twice: the first keeps it.
                let bytes = self.get(i as u32);
                if let Err(slot) = probe(&self.index, hasher.hash_one(bytes), |j| {
                    self.get(j) == bytes
                }) {
                    self.index[slot] = slot_entry(i);
                }
            }
        }
        let bytes = text.as_bytes();
        let slot = match probe(&self.index, hasher.hash_one(bytes), |j| {
            self.get(j) == bytes
        }) {
            Ok(i) => return i,
            Err(slot) => slot,
        };
        let off = self.arena.len();
        arena_offset(off + bytes.len());
        self.arena.to_mut().extend_from_slice(bytes);
        self.records.to_mut().push(SharedRecord {
            off: arena_offset(off),
            len: arena_offset(bytes.len()),
            plain: u32::from(is_json_plain(text)),
        });
        self.index[slot] = slot_entry(id);
        id as u32
    }

    fn memory(&self) -> MemoryUse {
        MemoryUse::from(&self.arena) + MemoryUse::from(&self.records)
    }
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
/// Invariant (what `term_ref` relies on): the first record's strings begin
/// at arena offset 0, and every record's lexical form ends at or before the
/// next record's offset (the last one's at or before the arena's end), with
/// nothing after it unless its kind has an extra string; both strings lie on
/// UTF-8 boundaries and hold valid UTF-8. A record's shared index names a
/// string of `shared`, whose range lies likewise inside the shared arena and
/// holds valid UTF-8, and its numeric index, when its `NUMERIC` bit is set,
/// an entry of `numbers`. `encode_key` and `read_sections` are the only
/// places that add records, and nothing rewrites a byte any array already
/// holds.
#[derive(Debug, Clone)]
pub struct Dictionary {
    arena: FlatVec<u8>,
    records: FlatVec<TermRecord>,
    shared: SharedStrings,
    /// The numeric views of the terms that have one, in id order.
    numbers: FlatVec<f64>,
    lookup: Lookup,
    /// Keys the hash indexes. Per process and random, so terms from outside
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
            shared: SharedStrings::new(),
            numbers: FlatVec::new(),
            lookup: Lookup::Hashed(vec![0; slots_for(capacity)]),
            hasher: RandomState::new(),
        }
    }

    /// Returns `true` if lookups go through the sorted ids: the dictionary
    /// was frozen, or is read in place from a snapshot.
    pub fn is_frozen(&self) -> bool {
        matches!(self.lookup, Lookup::Sorted(_))
    }

    /// Ends loading: sorts the ids for binary search, drops the hash indexes
    /// and the arrays' spare capacity. Ids, lookups and iteration order are
    /// unchanged; a later `encode` builds the indexes again. A no-op on a
    /// dictionary that is already frozen.
    pub fn freeze(&mut self) {
        if let Lookup::Hashed(_) = self.lookup {
            self.lookup = Lookup::Sorted(self.sorted_ids().into());
            self.shared.index = Vec::new();
            if !self.arena.is_view() {
                self.arena.to_mut().shrink_to_fit();
                self.records.to_mut().shrink_to_fit();
                self.shared.arena.to_mut().shrink_to_fit();
                self.shared.records.to_mut().shrink_to_fit();
                self.numbers.to_mut().shrink_to_fit();
            }
        }
    }

    /// The arena strings of record `id`, `record`: its lexical form and its
    /// extra string, which runs from there to where the next record's
    /// strings begin (the last record's to the arena's end). That is empty
    /// but for the kinds that have one ([`has_extra`]), so only those read
    /// the next record.
    #[inline(always)]
    fn strings(&self, id: usize, record: &TermRecord) -> (&[u8], &[u8]) {
        let (off, lex_end) = (
            record.off as usize,
            record.off as usize + record.lex_len as usize,
        );
        let extra: &[u8] = if has_extra(record.code()) {
            let end = (self.records.get(id + 1)).map_or(self.arena.len(), |next| next.off as usize);
            &self.arena[lex_end..end]
        } else {
            b""
        };
        (&self.arena[off..lex_end], extra)
    }

    /// The shared string `record` names: its namespace or datatype IRI, or
    /// the empty string for a kind that shares none.
    #[inline(always)]
    fn shared_of(&self, record: &TermRecord) -> &[u8] {
        if shares(record.code()) {
            self.shared.get(record.shared())
        } else {
            b""
        }
    }

    /// The key record `id` is looked up and ordered by.
    #[inline(always)]
    fn key(&self, id: u32) -> Key<'_> {
        let record = &self.records[id as usize];
        let shared = self.shared_of(record);
        let (lexical, extra) = self.strings(id as usize, record);
        if record.code() == KIND_IRI {
            Key {
                kind: KIND_IRI,
                lexical: [shared, lexical],
                extra: [b"", extra],
            }
        } else {
            Key {
                kind: record.code(),
                lexical: [b"", lexical],
                extra: [shared, extra],
            }
        }
    }

    /// The ids in key order.
    ///
    /// Two records of one kind that name the same shared string differ only
    /// in their arena strings, and are compared by those alone. Two IRIs
    /// whose namespaces are each the prefix of no other shared string differ
    /// within the shorter namespace, and are ordered by their namespaces'
    /// ranks in text order.
    fn sorted_ids(&self) -> Vec<u32> {
        let shared = &self.shared;
        let mut by_text: Vec<u32> = (0..shared.records.len() as u32).collect();
        by_text.sort_unstable_by(|&a, &b| shared.get(a).cmp(shared.get(b)));
        // A string is the prefix of another exactly when it is the prefix of
        // the next in text order; such a string has no rank.
        let mut rank = vec![u32::MAX; by_text.len()];
        for (pos, &i) in by_text.iter().enumerate() {
            let next = by_text.get(pos + 1).map(|&next| shared.get(next));
            if !next.is_some_and(|next| next.starts_with(shared.get(i))) {
                rank[i as usize] = pos as u32;
            }
        }
        let records: &[TermRecord] = &self.records;
        let mut sorted: Vec<u32> = (0..records.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| {
            let (ra, rb) = (&records[a as usize], &records[b as usize]);
            if ra.code() == rb.code() {
                if ra.shared() == rb.shared() {
                    return self
                        .strings(a as usize, ra)
                        .cmp(&self.strings(b as usize, rb));
                }
                let (ka, kb) = (rank[ra.shared() as usize], rank[rb.shared() as usize]);
                if ra.code() == KIND_IRI && ka != u32::MAX && kb != u32::MAX {
                    return ka.cmp(&kb);
                }
            }
            self.key(a).cmp(&self.key(b))
        });
        sorted
    }

    /// Heap and mapped bytes of the flat arrays; `sorted` is zero until the
    /// dictionary is frozen, `shared` is the shared table's arena and
    /// records together, and `numbers` the numeric views.
    pub fn memory(&self) -> [(&'static str, MemoryUse); 5] {
        let sorted = match &self.lookup {
            Lookup::Sorted(sorted) => sorted.into(),
            Lookup::Hashed(_) => MemoryUse::default(),
        };
        [
            ("arena", (&self.arena).into()),
            ("records", (&self.records).into()),
            ("sorted", sorted),
            ("shared", self.shared.memory()),
            ("numbers", (&self.numbers).into()),
        ]
    }

    /// Probes `table` for `key`: the id it is indexed under, or else the
    /// empty slot that ends its probe sequence.
    fn probe(&self, table: &[u32], key: Key<'_>) -> Result<TermId, usize> {
        probe(table, key.hash(&self.hasher), |id| {
            self.key(id).cmp(&key).is_eq()
        })
        .map(TermId)
    }

    /// A hash index of `slots` slots over every record.
    fn index(&self, slots: usize) -> Vec<u32> {
        let mut table = vec![0; slots];
        for id in 0..self.records.len() {
            // A snapshot may list one term under two ids: the first keeps it.
            if let Err(slot) = self.probe(&table, self.key(id as u32)) {
                table[slot] = slot_entry(id);
            }
        }
        table
    }

    fn lookup_key(&self, key: Key<'_>) -> Option<TermId> {
        match &self.lookup {
            Lookup::Hashed(table) => self.probe(table, key).ok(),
            Lookup::Sorted(sorted) => sorted
                .binary_search_by(|&id| self.key(id).cmp(&key))
                .ok()
                .map(|pos| TermId(sorted[pos])),
        }
    }

    /// Insert-or-get by the parts [`term_parts`] gives: a new term's arena
    /// strings are appended to the arena, once, its namespace or datatype
    /// IRI interned in the shared table, and its record indexed.
    fn encode_key(&mut self, kind: u32, lex: &str, datatype: &str, extra: &str) -> TermId {
        let id = self.records.len();
        // Frozen, mapped or about to fill past one half: index (again).
        let slots = slots_for(id + 1);
        if !matches!(&self.lookup, Lookup::Hashed(table) if table.len() >= slots) {
            self.lookup = Lookup::Hashed(self.index(slots));
        }
        let Lookup::Hashed(table) = &self.lookup else {
            unreachable!("indexed above");
        };
        let slot = match self.probe(table, Key::whole(kind, lex, datatype, extra)) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let entry = slot_entry(id);
        let (shared, lex) = if kind == KIND_IRI {
            let iri = IriRef::split(lex);
            (iri.namespace(), iri.local())
        } else {
            (datatype, lex)
        };
        let off = self.arena.len();
        // Refused before the arena grows; the offset and length fit if the end does.
        arena_offset(off + lex.len() + extra.len());
        let (shared, shared_plain) = if shares(kind) {
            let shared = self.shared.intern(shared, &self.hasher);
            (shared, self.shared.records[shared as usize].plain == 1)
        } else {
            (0, true)
        };
        let shared = packed_shared(shared as usize);
        let plain = stored_plain(shared_plain, lex, extra);
        let (numeric, number) = match term_ref_from_parts(kind, "", lex, extra).numeric_view() {
            Some(view) => {
                let numbers = self.numbers.to_mut();
                numbers.push(view);
                // Fewer views than terms, whose ids fit a `u32`.
                (NUMERIC, (numbers.len() - 1) as u32)
            }
            None => (0, 0),
        };
        // The term's strings in one run, the extra string ending it.
        let arena = self.arena.to_mut();
        arena.extend_from_slice(lex.as_bytes());
        arena.extend_from_slice(extra.as_bytes());
        self.records.to_mut().push(TermRecord {
            off: arena_offset(off),
            lex_len: arena_offset(lex.len()),
            kind: kind | numeric | plain | shared,
            number,
        });
        if let Lookup::Hashed(table) = &mut self.lookup {
            table[slot] = entry;
        }
        TermId(entry - 1)
    }

    /// Returns the id for `term`, inserting it if it is not yet present.
    pub fn encode(&mut self, term: &Term) -> TermId {
        let (kind, lex, datatype, extra) = term_parts(term);
        self.encode_key(kind, lex, datatype, &extra)
    }

    /// Convenience: encodes an IRI string.
    pub fn encode_iri(&mut self, iri: &str) -> TermId {
        self.encode_key(KIND_IRI, iri, "", "")
    }

    /// Returns the id of `term` if it has been encoded before.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        let (kind, lex, datatype, extra) = term_parts(term);
        self.lookup_key(Key::whole(kind, lex, datatype, &extra))
    }

    /// Returns the id of the IRI `iri` if it has been encoded before
    /// (straight against the stored bytes, nothing allocated).
    pub fn id_of_iri(&self, iri: &str) -> Option<TermId> {
        self.lookup_key(Key::whole(KIND_IRI, iri, "", ""))
    }

    /// Returns a borrowed view of the term for `id`, if `id` is valid: no
    /// string is copied, on the heap or on a snapshot view.
    pub fn term_ref(&self, id: TermId) -> Option<TermRef<'_>> {
        let record = self.records.get(id.index())?;
        Some(self.decode(id, record))
    }

    /// Returns the term for `id` and whether its strings need no JSON escape,
    /// both from the term's one record (and, for a language tag, the next
    /// record's offset): what the result writer reads of a cell. Inlined
    /// into the writer's resolve pass, where a call more per cell keeps fewer
    /// record misses in flight.
    #[inline(always)]
    pub fn term_and_plain(&self, id: TermId) -> Option<(TermRef<'_>, bool)> {
        let record = self.records.get(id.index())?;
        Some((self.decode(id, record), record.is_plain()))
    }

    /// Returns the term for `id` with its numeric view
    /// ([`TermRef::numeric_view`]): the term from its record, the view from
    /// the entry the record names beside them. What a FILTER reads of a
    /// bound variable; no string is copied or parsed.
    pub fn term_and_view(&self, id: TermId) -> Option<(TermRef<'_>, Option<f64>)> {
        let record = self.records.get(id.index())?;
        let view = record.number().map(|i| self.numbers[i as usize]);
        Some((self.decode(id, record), view))
    }

    /// The term record `id`, `record`, describes, borrowed from the arena
    /// and the shared table. Inlined into every reader: the result writer
    /// resolves a cell per call of `term_and_plain`, and a call more per cell
    /// keeps fewer record misses in flight.
    #[inline(always)]
    fn decode(&self, id: TermId, record: &TermRecord) -> TermRef<'_> {
        let (lexical, extra) = self.strings(id.index(), record);
        // SAFETY: by the struct invariant every string holds valid UTF-8:
        // `encode` and `encode_iri` appended them from `&str`s (through
        // `encode_key`, which splits an IRI after an ASCII byte) in id order,
        // so each extra string ends where the next term's strings begin,
        // `read_sections` validated every record's strings and every shared
        // string with `from_utf8`, and no byte any array holds is rewritten
        // afterwards (a mapped arena is a private read-only mapping, the
        // premise `ByteStore` already rests on).
        // Validating here instead would cost a pass over the string on every
        // decoded cell of every result row.
        let text = |bytes| unsafe { std::str::from_utf8_unchecked(bytes) };
        term_ref_from_parts(
            record.code(),
            text(self.shared_of(record)),
            text(lexical),
            text(extra),
        )
    }

    /// Returns the term for `id`, if `id` is valid.
    pub fn term(&self, id: TermId) -> Option<Term> {
        self.term_ref(id).map(TermRef::to_term)
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
    /// sorted permutation, shared arena, shared records, numeric views) —
    /// see `docs/STORAGE.md`. The arrays are written as they are; a
    /// dictionary not yet frozen sorts its ids for the write.
    pub fn write_sections(&self, w: &mut SnapshotWriter) {
        w.section(TAG_DICT_ARENA, &self.arena);
        w.section(TAG_DICT_RECORDS, &self.records);
        match &self.lookup {
            Lookup::Sorted(sorted) => w.section(TAG_DICT_SORTED, sorted),
            Lookup::Hashed(_) => w.section(TAG_DICT_SORTED, &self.sorted_ids()),
        }
        w.section(TAG_DICT_SHARED_ARENA, &self.shared.arena);
        w.section(TAG_DICT_SHARED_RECORDS, &self.shared.records);
        w.section(TAG_DICT_NUMBERS, &self.numbers);
    }

    /// Reconstructs a zero-copy dictionary view from its snapshot sections,
    /// validating every shared string's range, UTF-8 and `PLAIN` bit
    /// first, then every record: where its strings begin and end, their
    /// UTF-8 and its shared index, so later reads cannot panic; an IRI's
    /// split, which must be the one [`IriRef::split`] makes, so lookups find
    /// it; its numeric index and the view it names against its lexical
    /// form's, bit for bit, so a FILTER over the view answers as over the
    /// text; and its `PLAIN` bit against its strings, so a crafted file
    /// cannot have the result writer copy a quote or a control byte into a
    /// body unescaped. All of a record's checks read its strings in the one
    /// pass.
    pub fn read_sections(cur: &mut SectionCursor<'_>) -> Result<Self, SnapshotError> {
        let malformed = |what: String| Err(SnapshotError::Malformed(what));
        let arena: FlatVec<u8> = cur.next_section(TAG_DICT_ARENA)?;
        let records: FlatVec<TermRecord> = cur.next_section(TAG_DICT_RECORDS)?;
        let sorted: FlatVec<u32> = cur.next_section(TAG_DICT_SORTED)?;
        let shared = SharedStrings {
            arena: cur.next_section(TAG_DICT_SHARED_ARENA)?,
            records: cur.next_section(TAG_DICT_SHARED_RECORDS)?,
            index: Vec::new(),
        };
        let numbers: FlatVec<f64> = cur.next_section(TAG_DICT_NUMBERS)?;
        if sorted.len() != records.len() {
            return malformed("dictionary sort permutation length mismatch".into());
        }
        let within = |arena: &[u8], off: u32, len: u32| {
            u64::from(off) + u64::from(len) <= arena.len() as u64
        };
        // `encode_key` packs the index of every string it finds here.
        if shared.records.len() > 1 << (32 - SHARED_SHIFT) {
            return malformed(
                "dictionary shared table holds more strings than a record can name".into(),
            );
        }
        let mut namespace = Vec::with_capacity(shared.records.len());
        for (i, r) in shared.records.iter().enumerate() {
            if !within(&shared.arena, r.off, r.len) {
                return malformed(format!("dictionary shared string {i} is out of bounds"));
            }
            let Ok(text) = std::str::from_utf8(shared.get(i as u32)) else {
                return malformed(format!("dictionary shared string {i} is not UTF-8"));
            };
            if r.plain != u32::from(is_json_plain(text)) {
                return malformed(format!(
                    "dictionary shared string {i}'s JSON-plain bit is not its text's"
                ));
            }
            namespace.push(text.bytes().last().is_none_or(ends_namespace));
        }
        // The terms' strings run in id order from the arena's start to its
        // end: each record's begin where the previous one's end, and are its
        // lexical form and, for a kind that has one, its extra string.
        let begin = |i: usize| {
            records
                .get(i)
                .map_or(arena.len() as u64, |r| u64::from(r.off))
        };
        if records.first().is_some_and(|first| first.off != 0) {
            return malformed("dictionary record 0 does not start at the arena's start".into());
        }
        if records.is_empty() && !arena.is_empty() {
            return malformed("dictionary strings do not end at the arena's length".into());
        }
        for (i, r) in records.iter().enumerate() {
            let (lex_end, end) = (u64::from(r.off) + u64::from(r.lex_len), begin(i + 1));
            if lex_end > end || end > arena.len() as u64 || r.code() > KIND_TYPED_LANG {
                return malformed(format!(
                    "dictionary record {i} is out of bounds or has a bad kind"
                ));
            }
            if lex_end != end && !has_extra(r.code()) {
                return malformed(if i + 1 < records.len() {
                    format!(
                        "dictionary record {} does not start where the previous term's strings end",
                        i + 1
                    )
                } else {
                    "dictionary strings do not end at the arena's length".into()
                });
            }
            if r.shared() as usize >= shared.records.len() {
                return malformed(format!(
                    "dictionary record {i}'s shared string index is out of range"
                ));
            }
            // `term_ref` hands these strings out as `&str`.
            let (lex, extra) = (
                &arena[r.off as usize..lex_end as usize],
                &arena[lex_end as usize..end as usize],
            );
            let (Ok(lex), Ok(extra)) = (std::str::from_utf8(lex), std::str::from_utf8(extra))
            else {
                return malformed(format!("dictionary record {i} is not UTF-8"));
            };
            let stored = match r.number() {
                None if r.number != 0 => {
                    return malformed(format!(
                        "dictionary record {i} has a numeric index but no numeric view"
                    ))
                }
                None => None,
                Some(n) => match numbers.get(n as usize) {
                    Some(view) => Some(view.to_bits()),
                    None => {
                        return malformed(format!(
                            "dictionary record {i}'s numeric index is out of range"
                        ))
                    }
                },
            };
            let view = term_ref_from_parts(r.code(), "", lex, extra).numeric_view();
            if stored != view.map(f64::to_bits) {
                return malformed(format!(
                    "dictionary record {i}'s numeric view is not its lexical form's"
                ));
            }
            let shared_plain = !shares(r.code()) || shared.records[r.shared() as usize].plain == 1;
            if r.kind & PLAIN != stored_plain(shared_plain, lex, extra) {
                return malformed(format!(
                    "dictionary record {i}'s JSON-plain bit is not its text's"
                ));
            }
            let local_ends_namespace = lex.bytes().any(ends_namespace);
            if r.code() == KIND_IRI && (!namespace[r.shared() as usize] || local_ends_namespace) {
                return malformed(format!(
                    "dictionary record {i}'s IRI is not split after its last '/' or '#'"
                ));
            }
        }
        let n = records.len() as u64;
        if sorted.iter().any(|&id| u64::from(id) >= n) {
            return malformed("dictionary sort permutation references an invalid id".into());
        }
        Ok(Dictionary {
            arena,
            records,
            shared,
            numbers,
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
        // One term, the integer `3`, has a numeric view.
        let [arena, records, sorted, shared, numbers] = d.memory().map(|(_, m)| m.heap);
        assert!(arena > 0 && shared > 0);
        assert_eq!(
            (records, sorted, numbers),
            ((terms.len() * 16) as u64, 0, 8)
        );
        d.freeze();
        assert!(d.is_frozen());
        let [arena, records, sorted, _, numbers] = d.memory().map(|(_, m)| m.heap);
        assert_eq!((records, numbers), ((terms.len() * 16) as u64, 8));
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
    #[should_panic(expected = "at most 2^27 shared strings")]
    fn a_shared_index_the_kind_word_cannot_hold_is_refused_not_wrapped() {
        let widest = u32::MAX >> SHARED_SHIFT;
        assert_eq!(packed_shared(widest as usize) >> SHARED_SHIFT, widest);
        packed_shared(widest as usize + 1);
    }

    #[test]
    fn a_record_is_16_bytes_and_keeps_its_terms_numeric_view() {
        assert_eq!(std::mem::size_of::<TermRecord>(), 16);
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

    /// The arrays a dictionary's sections hold, for a test to patch.
    struct Sections {
        arena: Vec<u8>,
        records: Vec<TermRecord>,
        shared_arena: Vec<u8>,
        shared: Vec<SharedRecord>,
        numbers: Vec<f64>,
    }

    impl Sections {
        /// The sections of a dictionary of `terms`.
        fn of(terms: &[Term]) -> Self {
            let mut d = Dictionary::new();
            for term in terms {
                d.encode(term);
            }
            Sections {
                arena: d.arena.to_vec(),
                records: d.records.to_vec(),
                shared_arena: d.shared.arena.to_vec(),
                shared: d.shared.records.to_vec(),
                numbers: d.numbers.to_vec(),
            }
        }

        /// Reads a dictionary from these sections, with the identity as the
        /// records' order, through a file of its own.
        fn read(&self) -> Result<Dictionary, SnapshotError> {
            static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let file = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut w = SnapshotWriter::new();
            w.section(TAG_DICT_ARENA, &self.arena);
            w.section(TAG_DICT_RECORDS, &self.records);
            let order: Vec<u32> = (0..self.records.len() as u32).collect();
            w.section(TAG_DICT_SORTED, &order);
            w.section(TAG_DICT_SHARED_ARENA, &self.shared_arena);
            w.section(TAG_DICT_SHARED_RECORDS, &self.shared);
            w.section(TAG_DICT_NUMBERS, &self.numbers);
            let path = std::env::temp_dir().join(format!(
                "turbohom-dict-{}-records-{file}.snap",
                std::process::id()
            ));
            w.write_to(&path).unwrap();
            let read = Dictionary::read_sections(&mut Snapshot::open(&path).unwrap().cursor());
            std::fs::remove_file(&path).unwrap();
            read
        }
    }

    /// The sections of a dictionary of `terms`, patched by `patch` and read
    /// back: the error, if any.
    fn patched(terms: &[Term], patch: impl Fn(&mut Sections)) -> Option<String> {
        let mut s = Sections::of(terms);
        patch(&mut s);
        match s.read() {
            Ok(_) => None,
            Err(SnapshotError::Malformed(m)) => Some(m),
            Err(other) => panic!("{other:?}"),
        }
    }

    /// Asserts that the sections of a dictionary of `terms`, patched by
    /// `patch`, are refused with a message that names `what`.
    fn assert_refused(terms: &[Term], what: &str, patch: impl Fn(&mut Sections)) {
        let err = patched(terms, patch).unwrap_or_else(|| panic!("{what}: read"));
        assert!(err.contains(what), "{what}: {err}");
    }

    #[test]
    fn a_snapshot_record_whose_view_or_range_is_wrong_is_refused() {
        let twelve = [Term::typed_literal("12", crate::vocab::XSD_INTEGER)];
        assert_eq!(patched(&twelve, |_| {}), None);
        assert_eq!(Sections::of(&twelve).numbers, [12.0]);
        let refused =
            |what: &str, patch: &dyn Fn(&mut Sections)| assert_refused(&twelve, what, patch);
        // Another number, the same number one bit off, no view, and a view
        // on the IRI's kind.
        let view = "numeric view is not its lexical form's";
        refused(view, &|s| s.numbers[0] = 13.0);
        refused(view, &|s| {
            s.numbers[0] = f64::from_bits(12f64.to_bits() ^ 1)
        });
        refused(view, &|s| s.records[0].kind &= !NUMERIC);
        refused(view, &|s| s.records[0].kind ^= KIND_TYPED ^ KIND_IRI);
        // A lexical form that runs one byte past the arena, or past
        // `u32::MAX`; and the two bad kind codes.
        let bounds = "out of bounds";
        refused(bounds, &|s| s.records[0].lex_len += 1);
        refused(bounds, &|s| s.records[0].lex_len = u32::MAX);
        for code in [6, 7] {
            refused(bounds, &|s| {
                s.records[0].kind = s.records[0].kind & !CODE | code
            });
        }
    }

    #[test]
    fn a_snapshot_record_whose_strings_do_not_follow_the_previous_terms_is_refused() {
        // An IRI, a language-tagged literal and a plain literal: each term's
        // strings begin where the previous term's end.
        let terms = [
            Term::iri("http://ex.org/Person"),
            Term::lang_literal("chat", "fr"),
            Term::literal("x"),
        ];
        assert_eq!(patched(&terms, |_| {}), None);
        let s = Sections::of(&terms);
        assert_eq!(&s.arena, b"Personchatfrx");
        assert_eq!(
            s.records.iter().map(|r| r.off).collect::<Vec<_>>(),
            [0, 6, 12]
        );
        let refused =
            |what: &str, patch: &dyn Fn(&mut Sections)| assert_refused(&terms, what, patch);
        // An offset that decreases: into the local name before it, to 0, and
        // into the lexical form before it.
        refused("record 0 is out of bounds", &|s| s.records[1].off = 3);
        refused("record 0 is out of bounds", &|s| s.records[1].off = 0);
        refused("record 1 is out of bounds", &|s| s.records[2].off = 8);
        // Offsets that leave a byte between the IRI, whose strings end with
        // its local name, and the next term; and a first term that does not
        // start the arena.
        refused(
            "record 1 does not start where the previous term's strings end",
            &|s| s.records[1].off = 7,
        );
        refused("record 0 does not start at the arena's start", &|s| {
            s.records[0].off = 1;
            s.records[0].lex_len = 5;
        });
        // A byte after the last term's strings, which end with its lexical
        // form, and bytes that no term owns.
        let end = "strings do not end at the arena's length";
        refused(end, &|s| s.arena.push(b'y'));
        assert_refused(&[], end, |s| s.arena.push(b'y'));
        // A language tag runs to the next term's strings: a byte after the
        // last term's is its tag's.
        let mut tagged = Sections::of(&terms[1..2]);
        tagged.arena.push(b'x');
        let term = tagged.read().unwrap().term(TermId(0));
        assert_eq!(term, Some(Term::lang_literal("chat", "frx")));
    }

    #[test]
    fn a_snapshot_numeric_index_that_is_wrong_is_refused() {
        // Two numbers around a word: views 1 and 2 at indexes 0 and 1, and
        // none for the word.
        let terms = [Term::literal("1"), Term::literal("abc"), Term::literal("2")];
        assert_eq!(patched(&terms, |_| {}), None);
        let s = Sections::of(&terms);
        assert_eq!(s.numbers, [1.0, 2.0]);
        assert_eq!(
            s.records.iter().map(|r| r.number).collect::<Vec<_>>(),
            [0, 0, 1]
        );
        let refused =
            |what: &str, patch: &dyn Fn(&mut Sections)| assert_refused(&terms, what, patch);
        // Out of range: one past the views, the widest index, a view too few.
        let range = "numeric index is out of range";
        refused(range, &|s| s.records[2].number = 2);
        refused(range, &|s| s.records[0].number = u32::MAX);
        refused(range, &|s| s.numbers.truncate(1));
        // An index on the record that has no view.
        refused("record 1 has a numeric index but no numeric view", &|s| {
            s.records[1].number = 1
        });
        // An index that names the other term's view, and views swapped.
        let view = "numeric view is not its lexical form's";
        refused(view, &|s| s.records[0].number = 1);
        refused(view, &|s| s.numbers.swap(0, 1));
        // NaN and −0 are kept bit for bit: another NaN's payload, the NaN of
        // the other sign, and +0 are all refused.
        let odd = [Term::literal("NaN"), Term::lang_literal("-0", "en")];
        let bits: Vec<u64> = Sections::of(&odd)
            .numbers
            .iter()
            .map(|n| n.to_bits())
            .collect();
        assert_eq!(bits, [f64::NAN.to_bits(), (-0f64).to_bits()]);
        let refused = |patch: &dyn Fn(&mut Sections)| assert_refused(&odd, view, patch);
        refused(&|s| s.numbers[0] = f64::from_bits(f64::NAN.to_bits() ^ 1));
        refused(&|s| s.numbers[0] = -f64::NAN);
        refused(&|s| s.numbers[1] = 0.0);
    }

    /// The encoder sets [`PLAIN`] exactly on terms whose lexical form and
    /// extra string need no JSON escape, and a snapshot record that claims
    /// otherwise, either way, is refused.
    #[test]
    fn a_snapshot_record_whose_plain_bit_is_wrong_is_refused() {
        let cases = [
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
        let terms: Vec<Term> = cases.iter().map(|(term, _)| term.clone()).collect();
        assert_eq!(patched(&terms, |_| {}), None);
        let records = Sections::of(&terms).records;
        for (i, (record, (term, plain))) in records.iter().zip(&cases).enumerate() {
            assert_eq!(record.is_plain(), *plain, "{term}");
            let what = format!("record {i}'s JSON-plain bit is not its text's");
            assert_refused(&terms, &what, |s| s.records[i].kind ^= PLAIN);
        }
    }

    #[test]
    fn namespaces_and_datatypes_are_stored_once() {
        let mut d = Dictionary::new();
        for i in 0..3 {
            d.encode_iri(&format!("http://ex.org/people/p{i}"));
            d.encode(&Term::typed_literal(
                i.to_string(),
                crate::vocab::XSD_INTEGER,
            ));
        }
        d.encode_iri("http://ex.org/people#me");
        d.encode_iri("mailto");
        // The arena holds local names and lexical forms only; the shared
        // table the empty string, two namespaces and one datatype.
        assert_eq!(&d.arena[..], b"p00p11p22memailto");
        let shared: Vec<&[u8]> = (0..d.shared.records.len() as u32)
            .map(|i| d.shared.get(i))
            .collect();
        let expected: [&[u8]; 4] = [
            b"",
            b"http://ex.org/people/",
            crate::vocab::XSD_INTEGER.as_bytes(),
            b"http://ex.org/people#",
        ];
        assert_eq!(shared, expected);
        assert_eq!(d.records[7].shared(), 0);
        assert_eq!(
            d.term_ref(TermId(6)).unwrap(),
            TermRef::Iri(IriRef::new("http://ex.org/people#", "me"))
        );
    }

    #[test]
    fn a_split_key_hashes_and_compares_as_the_whole_key() {
        let hasher = RandomState::new();
        let text = "http://ex.org/a/very/long/namespace/that/crosses/a/sip/block#local-name";
        let whole = Key::whole(KIND_TYPED, text, text, "\0en");
        let extra = [text, "\0en"].concat();
        for at in 0..=text.len() {
            let (a, b) = text.as_bytes().split_at(at);
            let split = Key {
                kind: KIND_TYPED,
                lexical: [a, b],
                extra: [b"", extra.as_bytes()],
            };
            assert_eq!(split.hash(&hasher), whole.hash(&hasher), "split at {at}");
            assert!(split.cmp(&whole).is_eq(), "split at {at}");
        }
    }

    /// `record` naming shared string `index` instead.
    fn naming(record: TermRecord, index: u32) -> TermRecord {
        TermRecord {
            kind: record.kind & (CODE | NUMERIC | PLAIN) | index << SHARED_SHIFT,
            ..record
        }
    }

    #[test]
    fn a_snapshot_shared_string_or_split_that_is_wrong_is_refused() {
        let terms = [
            Term::iri("http://ex.org/a/Person"),
            Term::typed_literal("1", crate::vocab::XSD_INTEGER),
        ];
        assert_eq!(patched(&terms, |_| {}), None);
        let refused =
            |what: &str, patch: &dyn Fn(&mut Sections)| assert_refused(&terms, what, patch);
        // A shared index past the table, on a kind that shares and on one
        // that does not; the widest its field holds.
        let range = "shared string index is out of range";
        let widest = u32::MAX >> SHARED_SHIFT;
        refused(range, &|s| {
            s.records[0] = naming(s.records[0], s.shared.len() as u32)
        });
        refused(range, &|s| s.records[1] = naming(s.records[1], widest));
        // The IRI's namespace made not to end in '/', `http://ex.org/ax`;
        // a local name that holds a '/', `Pe/son`; and the datatype IRI,
        // which ends in neither, as a namespace.
        let split = "not split after its last";
        refused(split, &|s| {
            let end = s.shared[1].off + s.shared[1].len;
            s.shared_arena[end as usize - 1] = b'x';
        });
        refused(split, &|s| s.arena[2] = b'/');
        refused(split, &|s| s.records[0] = naming(s.records[0], 2));
        // A shared string whose plain bit says otherwise, either way.
        let plain = "shared string 1's JSON-plain bit";
        refused(plain, &|s| s.shared[1].plain = 0);
        refused(plain, &|s| {
            s.shared_arena[0] = b'"';
            s.shared[1].plain = 1;
        });
        refused("shared string 2 is out of bounds", &|s| {
            s.shared[2].len += 1
        });
        refused("shared string 1 is not UTF-8", &|s| {
            s.shared_arena[0] = 0xff
        });
    }

    proptest::proptest! {
        /// IRIs of every shape — no '/' or '#', ending in one, a '#' before
        /// a '/', empty, multibyte, many in one namespace — and typed
        /// literals whose datatype is some IRI's text answer on the heap,
        /// frozen and snapshot-view dictionaries as their whole text does:
        /// `term`, `id_of` and `id_of_iri` round-trip, the plain bit is
        /// `is_json_plain` of the whole text, a split view equals and
        /// orders like the whole one, and the sorted ids are a sort by whole
        /// text.
        #[test]
        fn split_iris_answer_as_their_whole_text(
            specs in proptest::collection::vec(
                (0usize..6, 0usize..6, "[ab/#é日😀\"]{0,5}"),
                1..60,
            ),
            case in 0u64..u64::MAX,
        ) {
            const NAMESPACES: [&str; 6] = [
                "", "http://ex.org/", "http://ex.org/a#", "urn:x#y/", "http://é.org/日/", "http://ex.org/\"q\"/",
            ];
            let mut iris: Vec<String> = Vec::new();
            let mut terms: Vec<Term> = Vec::new();
            for (shape, pick, text) in &specs {
                let term = match shape {
                    0 => Term::iri(text.as_str()),
                    1 | 2 => Term::iri(format!("{}{text}", NAMESPACES[*pick])),
                    3 if !iris.is_empty() => {
                        Term::typed_literal(text.as_str(), iris[pick % iris.len()].as_str())
                    }
                    4 => Term::lang_literal(text.as_str(), "en"),
                    _ => Term::literal(text.as_str()),
                };
                if let Term::Iri(iri) = &term {
                    iris.push(iri.clone());
                }
                terms.push(term);
            }
            let mut owned = Dictionary::new();
            let ids: Vec<TermId> = terms.iter().map(|t| owned.encode(t)).collect();
            let mut frozen = owned.clone();
            frozen.freeze();
            let view = snapshot_view(&owned, &format!("split-{case:x}"));
            // The parent's key: kind, whole lexical form, whole extra string.
            let whole_key = |id: u32| {
                let term = owned.term(TermId(id)).unwrap();
                let (kind, lex, datatype, extra) = term_parts(&term);
                (kind, lex.to_owned(), [datatype, &extra].concat())
            };
            let mut by_text: Vec<u32> = (0..owned.len() as u32).collect();
            by_text.sort_by_key(|&id| whole_key(id));
            for d in [&owned, &frozen, &view] {
                for (term, &id) in terms.iter().zip(&ids) {
                    proptest::prop_assert_eq!(d.term(id).as_ref(), Some(term));
                    proptest::prop_assert_eq!(d.id_of(term), Some(id));
                    if let Term::Iri(iri) = term {
                        proptest::prop_assert_eq!(d.id_of_iri(iri), Some(id));
                    }
                    let (split, plain) = d.term_and_plain(id).unwrap();
                    let whole = TermRef::from(term);
                    let (kind, lex, datatype, extra) = term_parts(term);
                    let text_plain = kind != KIND_TYPED_LANG
                        && is_json_plain(lex) && is_json_plain(datatype) && is_json_plain(&extra);
                    proptest::prop_assert_eq!(plain, text_plain, "{}", term);
                    proptest::prop_assert_eq!(split, whole);
                    for (other, &other_id) in terms.iter().zip(&ids) {
                        let other_split = d.term_ref(other_id).unwrap();
                        proptest::prop_assert_eq!(split.cmp(&other_split), term.cmp(other));
                    }
                }
                if let Lookup::Sorted(sorted) = &d.lookup {
                    proptest::prop_assert_eq!(&sorted[..], &by_text[..]);
                }
            }
            proptest::prop_assert!(frozen.is_frozen() && view.is_frozen());
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
