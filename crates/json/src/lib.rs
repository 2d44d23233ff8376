//! The one JSON writer of the workspace, and the string escaper under it.
//!
//! Every document the system emits off the result path — EXPLAIN reports,
//! traces, journal lines, the slow-query log, `/stats`, `/healthz`, error
//! bodies — is built with a [`JsonWriter`]: it places the commas, quotes and
//! escapes every string, and prints numbers in the three formats those
//! documents use. The SPARQL-JSON result writer in `turbohom-engine` shares
//! only [`escape_json_into`]; its structure is fixed and it is the measured
//! hot path. The dictionary in `turbohom-rdf` records per term whether
//! [`is_json_plain`] holds, so that writer copies such a term whole.
//!
//! The output carries no whitespace. The crate depends on `std` alone, so the
//! tracer, which sits below the engine, can link it.

use std::fmt::Display;
use std::io::Write;

/// Per byte: 0 when it stands for itself inside a JSON string literal, `u`
/// when it needs a `\u00XX` escape, otherwise the letter of its two-character
/// escape. Bytes of multi-byte UTF-8 sequences are all above 0x7f and pass.
const ESCAPES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut control = 0;
    while control < 0x20 {
        table[control] = b'u';
        control += 1;
    }
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table
};

/// Whether any of the eight bytes of `word` needs an escape: is below 0x20,
/// a `"` or a `\`. Per lane, `x - n` borrows into the lane's high bit exactly
/// when `x < n` (for `n` ≤ 0x80), and `& !x` drops the lanes whose own high
/// bit was set — the bytes of multi-byte UTF-8, which pass. A borrow can
/// spill into the lane above only out of a lane that is itself below `n`, so
/// the test is exact for "any lane".
#[inline]
fn word_needs_escape(word: u64) -> bool {
    const LANES: u64 = 0x0101_0101_0101_0101;
    let below = |x: u64, n: u8| x.wrapping_sub(LANES * u64::from(n)) & !x;
    let equals = |byte: u8| below(word ^ (LANES * u64::from(byte)), 1);
    (below(word, 0x20) | equals(b'"') | equals(b'\\')) & (LANES * 0x80) != 0
}

/// How many leading eight-byte words of `bytes` hold nothing that needs an
/// escape.
#[inline]
fn clean_words(bytes: &[u8]) -> usize {
    bytes
        .chunks_exact(8)
        .take_while(|word| {
            let word = <[u8; 8]>::try_from(*word).expect("chunks of eight");
            !word_needs_escape(u64::from_le_bytes(word))
        })
        .count()
}

/// Whether `s` stands for itself inside a JSON string literal: what
/// [`escape_json_into`] copies unchanged. It makes the escaper's own
/// decisions — the word test while words are clean, the table from there —
/// so the two cannot disagree. The dictionary asks this once per term, when
/// it is encoded.
pub fn is_json_plain(s: &str) -> bool {
    let bytes = s.as_bytes();
    bytes[8 * clean_words(bytes)..]
        .iter()
        .all(|&byte| ESCAPES[byte as usize] == 0)
}

/// Appends `s` to `out` escaped for embedding in a JSON string literal.
/// Eight bytes at a time are tested for "nothing here needs an escape", so a
/// clean string is one `extend_from_slice`; from the first word that holds
/// one (and in the last seven bytes) the table decides byte by byte, and the
/// runs between escapes are copied whole. Nothing is allocated beyond `out`'s
/// own growth.
#[inline]
pub fn escape_json_into(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let clean = 8 * clean_words(bytes);
    let mut run_start = 0;
    for (i, &byte) in bytes.iter().enumerate().skip(clean) {
        let escape = ESCAPES[byte as usize];
        if escape == 0 {
            continue;
        }
        out.extend_from_slice(&bytes[run_start..i]);
        run_start = i + 1;
        if escape == b'u' {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[(byte >> 4) as usize]);
            out.push(HEX[(byte & 0x0f) as usize]);
        } else {
            out.push(b'\\');
            out.push(escape);
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
}

/// Appends one JSON document to a byte buffer, member by member.
///
/// The caller opens and closes containers and names members; the writer
/// decides where a comma goes. Closing what was not opened, or writing a
/// value into an object without a key, is the caller's bug and yields
/// malformed output — the writer keeps no stack.
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Whether the next key or element is preceded by a comma: set by every
    /// value and closing bracket, cleared by every key and opening bracket.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter { out, comma: false }
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: u8) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: u8) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Numbers and keywords: text that is JSON as `Display` prints it.
    fn display(&mut self, value: impl Display) {
        self.separate();
        let _ = write!(self.out, "{value}"); // writing to a `Vec` cannot fail
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open(b'{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close(b'}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open(b'[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(b']')
    }

    /// Names the next member of the innermost object.
    pub fn key(&mut self, key: &str) -> &mut Self {
        key.write_json(self);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// Writes one value: an array element, the value after a [`key`](Self::key),
    /// or the whole document.
    pub fn value(&mut self, value: impl ToJson) -> &mut Self {
        value.write_json(self);
        self
    }

    /// Writes one object member.
    pub fn field(&mut self, key: &str, value: impl ToJson) -> &mut Self {
        self.key(key).value(value)
    }

    /// Writes one object member when there is a value, and nothing otherwise
    /// (where [`field`](Self::field) would write `null`).
    pub fn field_some(&mut self, key: &str, value: Option<impl ToJson>) -> &mut Self {
        match value {
            Some(value) => self.field(key, value),
            None => self,
        }
    }

    /// Splices in a document that is already rendered.
    pub fn raw(&mut self, json: &str) -> &mut Self {
        self.display(json);
        self
    }
}

/// What a [`JsonWriter`] can write as one value.
pub trait ToJson {
    /// Writes `self` as exactly one JSON value.
    fn write_json(&self, w: &mut JsonWriter<'_>);
}

/// Renders one document: whatever `write` writes to a writer of its own.
pub fn document(write: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = Vec::with_capacity(256);
    write(&mut JsonWriter::new(&mut out));
    String::from_utf8(out).expect("the writer copies from `str`s only")
}

impl ToJson for str {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.separate();
        w.out.push(b'"');
        escape_json_into(w.out, self);
        w.out.push(b'"');
    }
}

impl ToJson for String {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_str().write_json(w);
    }
}

macro_rules! display_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, w: &mut JsonWriter<'_>) {
                w.display(self);
            }
        }
    )*};
}
display_to_json!(bool, u16, u32, u64, usize, i64);

/// The shortest representation that reads back as the same `f64`, with a
/// `.0` kept on whole numbers; `null` when not finite.
impl ToJson for f64 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        if !self.is_finite() {
            return w.display("null");
        }
        let start = w.out.len();
        w.display(self);
        if !w.out[start..].contains(&b'.') {
            w.out.extend_from_slice(b".0");
        }
    }
}

/// A float printed with exactly three decimals (milliseconds to the
/// microsecond, microseconds to the nanosecond); `null` when not finite.
#[derive(Debug, Clone, Copy)]
pub struct Fixed3(pub f64);

impl ToJson for Fixed3 {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        if self.0.is_finite() {
            w.display(format_args!("{:.3}", self.0));
        } else {
            w.display("null");
        }
    }
}

/// `null` for `None`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            Some(value) => value.write_json(w),
            None => w.display("null"),
        }
    }
}

/// An array of the elements.
impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_array();
        for element in self {
            element.write_json(w);
        }
        w.end_array();
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        self.as_slice().write_json(w);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        (**self).write_json(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn to_string(value: impl ToJson) -> String {
        document(|w| {
            w.value(value);
        })
    }

    fn escaped(s: &str) -> String {
        let mut out = Vec::new();
        escape_json_into(&mut out, s);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escaped("plain ünïcode"), "plain ünïcode");
        assert_eq!(escaped("\r\tend\\"), "\\r\\tend\\\\");
        assert_eq!(escaped(""), "");
    }

    /// The escaper one byte at a time, as RFC 8259 section 7 reads: what
    /// [`escape_json_into`] is compared against.
    fn reference_escaped(s: &str) -> Vec<u8> {
        let mut out = Vec::new();
        for &byte in s.as_bytes() {
            match byte {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                0..=0x1f => out.extend_from_slice(format!("\\u{byte:04x}").as_bytes()),
                _ => out.push(byte),
            }
        }
        out
    }

    /// Every place an escape can stand in a word, beside every kind of byte
    /// that must pass: each escape-needing byte at each position of strings
    /// of 0..=24 fillers — ASCII, 0x7f and multi-byte UTF-8, so that bytes
    /// 0x80..=0xf4 sit in every lane — read from every offset 0..8 of a
    /// padded backing string, so that the eight-byte words fall on every
    /// boundary of the text and every alignment of the memory.
    #[test]
    fn the_word_test_agrees_with_a_byte_at_a_time_reference() {
        let mut cases = 0;
        for filler in ['a', '\u{7f}', 'é', '日', '😀'] {
            for len in 0..=24usize {
                // `None`: nothing to escape at this length.
                let dirty = ['\0', '\u{1f}', '"', '\\', '\n'].map(Some);
                for escape in dirty.into_iter().chain([None]) {
                    let positions = if escape.is_some() { len } else { 1 };
                    for position in 0..positions {
                        let mut backing = "-".repeat(7);
                        backing.extend((0..len).map(|i| match escape {
                            Some(escape) if i == position => escape,
                            _ => filler,
                        }));
                        for offset in 0..8 {
                            let s = &backing[offset..];
                            let mut out = b"kept".to_vec();
                            escape_json_into(&mut out, s);
                            assert_eq!(out[..4], *b"kept");
                            assert_eq!(out[4..], reference_escaped(s), "{s:?}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 60_000, "{cases}");
    }

    /// Everything the escaper distinguishes: quotes, backslashes, the named
    /// and the numbered control characters, non-ASCII, and plain letters.
    const ALPHABET: [char; 16] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', 'é', '日', '😀', ' ', '/', 'a', 'b', 'y',
        'z',
    ];

    proptest! {
        #[test]
        fn any_text_escapes_like_the_reference(
            indices in proptest::collection::vec(0..ALPHABET.len(), 0..=64),
        ) {
            let s: String = indices.into_iter().map(|i| ALPHABET[i]).collect();
            prop_assert_eq!(escaped(&s).into_bytes(), reference_escaped(&s));
            prop_assert_eq!(is_json_plain(&s), escaped(&s) == s);
        }
    }

    /// What must pass: ASCII, 0x7f and multi-byte UTF-8 of every width.
    const CLEAN: [char; 8] = ['a', 'z', ' ', '/', '\u{7f}', 'é', '日', '😀'];

    /// A byte that needs an escape, as a char: `"`, `\` or one below 0x20.
    fn dirty(index: u8) -> char {
        match index {
            0x20 => '"',
            0x21 => '\\',
            control => char::from(control),
        }
    }

    proptest! {
        /// Strings longer than eight bytes, clean, and with an escape-needing
        /// byte inserted at each offset 0..=16 in turn: `is_json_plain` holds
        /// exactly when the escaper hands the string back unchanged.
        #[test]
        fn plain_is_exactly_what_the_escaper_leaves_alone(
            fillers in proptest::collection::vec(0..CLEAN.len(), 16..41),
            escape in 0u8..0x22,
        ) {
            let clean: Vec<char> = fillers.into_iter().map(|i| CLEAN[i]).collect();
            let mut cases: Vec<String> = vec![clean.iter().collect()];
            for offset in 0..=16 {
                let mut chars = clean.clone();
                chars.insert(offset, dirty(escape));
                cases.push(chars.into_iter().collect());
            }
            for s in &cases {
                prop_assert!(s.len() > 8);
                prop_assert_eq!(is_json_plain(s), escaped(s) == *s, "{:?}", s);
            }
            prop_assert!(is_json_plain(&cases[0]));
            prop_assert!(cases[1..].iter().all(|s| !is_json_plain(s)));
        }

    }

    #[test]
    fn commas_go_between_members_and_elements_only() {
        let mut out = Vec::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object()
            .field("a", 1u64)
            .field("b", "x\"y")
            .field("none", None::<u64>)
            .field_some("absent", None::<u64>)
            .field_some("present", Some(-3i64))
            .key("list")
            .begin_array()
            .value(true)
            .begin_object()
            .end_object()
            .begin_array()
            .end_array()
            .raw("{\"spliced\":[1,2]}")
            .end_array()
            .field("after", [1u32, 2].as_slice())
            .end_object();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            r#"{"a":1,"b":"x\"y","none":null,"present":-3,"list":[true,{},[],{"spliced":[1,2]}],"after":[1,2]}"#
        );
        assert_eq!(to_string(Vec::<u64>::new()), "[]");
        assert_eq!(to_string("whole document"), "\"whole document\"");
    }

    /// What `{:.3}` and the tracer's integer microsecond formatter printed.
    #[test]
    fn fixed_decimals_keep_nanosecond_precision() {
        let us = |ns: u64| to_string(Fixed3(ns as f64 / 1_000.0));
        assert_eq!(us(1_234_567), "1234.567");
        assert_eq!(us(42), "0.042");
        assert_eq!(us(0), "0.000");
        // An hour and a week of nanoseconds: the division stays exact enough
        // that the integer formatting `ns / 1000 . ns % 1000` is reproduced.
        for ns in [3_600_000_000_123u64, 604_800_000_000_999, 999, 1_000] {
            assert_eq!(us(ns), format!("{}.{:03}", ns / 1_000, ns % 1_000));
        }
        assert_eq!(to_string(Fixed3(1.5)), "1.500");
        assert_eq!(to_string(Fixed3(-0.0004)), "-0.000");
        assert_eq!(to_string(Fixed3(f64::NAN)), "null");
        assert_eq!(to_string(Fixed3(f64::INFINITY)), "null");
    }

    #[test]
    fn shortest_floats_stay_json_numbers() {
        assert_eq!(to_string(1.0f64), "1.0");
        assert_eq!(to_string(10.0f64), "10.0");
        assert_eq!(to_string(2.5f64), "2.5");
        assert_eq!(to_string(1.0f64 / 3.0), "0.3333333333333333");
        assert_eq!(to_string(1e21f64), "1000000000000000000000.0");
        assert_eq!(to_string(f64::NAN), "null");
        assert_eq!(to_string(f64::NEG_INFINITY), "null");
        // The `.0` lands on the number, not on what came before it.
        assert_eq!(to_string([0.5f64, 3.0].as_slice()), "[0.5,3.0]");
    }

    /// A parsed document, numbers kept as their text.
    #[derive(Debug, Clone, PartialEq)]
    enum Doc {
        Null,
        Bool(bool),
        Number(String),
        Text(String),
        Array(Vec<Doc>),
        Object(Vec<(String, Doc)>),
    }

    /// A validating RFC 8259 descent parser that also refuses whitespace,
    /// which the writer never emits.
    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn eat(&mut self, byte: u8) -> bool {
            let hit = self.bytes.get(self.pos) == Some(&byte);
            self.pos += usize::from(hit);
            hit
        }

        fn value(&mut self) -> Result<Doc, String> {
            let rest = &self.bytes[self.pos..];
            for (text, doc) in [
                ("null", Doc::Null),
                ("true", Doc::Bool(true)),
                ("false", Doc::Bool(false)),
            ] {
                if rest.starts_with(text.as_bytes()) {
                    self.pos += text.len();
                    return Ok(doc);
                }
            }
            if rest.first() == Some(&b'"') {
                return Ok(Doc::Text(self.string()?));
            }
            let close = match rest.first() {
                Some(b'{') => b'}',
                Some(b'[') => b']',
                _ => return self.number(),
            };
            self.pos += 1;
            let (mut members, mut elements) = (Vec::new(), Vec::new());
            while !self.eat(close) {
                if !(members.is_empty() && elements.is_empty() || self.eat(b',')) {
                    return Err(format!("expected `,` at {}", self.pos));
                }
                if close == b'}' {
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected `:` at {}", self.pos));
                    }
                    members.push((key, self.value()?));
                } else {
                    elements.push(self.value()?);
                }
            }
            Ok(if close == b'}' {
                Doc::Object(members)
            } else {
                Doc::Array(elements)
            })
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat(b'"') {
                return Err(format!("expected a string at {}", self.pos));
            }
            let mut out = Vec::new();
            loop {
                let byte = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match byte {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    0..=0x1f => return Err(format!("raw control byte {byte:#04x}")),
                    b'\\' => {
                        let escape = *self.bytes.get(self.pos).ok_or("dangling backslash")?;
                        self.pos += 1;
                        out.push(match escape {
                            b'"' | b'\\' | b'/' => escape,
                            b'n' => b'\n',
                            b'r' => b'\r',
                            b't' => b'\t',
                            b'b' => 0x08,
                            b'f' => 0x0c,
                            b'u' => {
                                let hex = self.bytes.get(self.pos..self.pos + 4);
                                let hex = hex.and_then(|h| std::str::from_utf8(h).ok());
                                let code = hex.and_then(|h| u8::from_str_radix(h, 16).ok());
                                self.pos += 4;
                                code.ok_or("\\u escape outside 0000..00ff")?
                            }
                            other => return Err(format!("escape \\{}", other as char)),
                        });
                    }
                    byte => out.push(byte),
                }
            }
        }

        fn number(&mut self) -> Result<Doc, String> {
            let start = self.pos;
            let digits = |p: &mut Self| {
                let from = p.pos;
                while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                    p.pos += 1;
                }
                p.pos - from
            };
            self.eat(b'-');
            let leading_zero = self.bytes.get(self.pos) == Some(&b'0');
            let int = digits(self);
            if int == 0 || (leading_zero && int > 1) || (self.eat(b'.') && digits(self) == 0) {
                return Err(format!("malformed number at {start}"));
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            Ok(Doc::Number(text.to_string()))
        }
    }

    fn parse(bytes: &[u8]) -> Result<Doc, String> {
        std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut parser = Parser { bytes, pos: 0 };
        let doc = parser.value()?;
        if parser.pos == bytes.len() {
            Ok(doc)
        } else {
            Err(format!("trailing bytes at {}", parser.pos))
        }
    }

    /// Strings chosen to break an emitter: empty, every byte below 0x20, the
    /// two characters JSON reserves, multi-byte UTF-8, and text that looks
    /// like structure.
    fn hostile() -> Vec<String> {
        let mut strings: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        strings.push((0u8..0x20).map(char::from).collect());
        for s in [
            "",
            "\"",
            "\\",
            "\\\"",
            "\\u0000",
            "é日😀",
            "\u{7f}\u{80}\u{2028}",
            "\",\"x\":{",
            "]}",
            "plain",
        ] {
            strings.push(s.to_string());
        }
        strings
    }

    /// Drives the writer with the nesting `program` spells, one byte per
    /// decision, and returns what a correct emitter must have written.
    fn drive(
        program: &mut std::slice::Iter<'_, u8>,
        strings: &[String],
        depth: usize,
        w: &mut JsonWriter<'_>,
    ) -> Doc {
        fn next(program: &mut std::slice::Iter<'_, u8>, modulus: usize) -> usize {
            *program.next().unwrap_or(&0) as usize % modulus
        }
        let string = |index: usize| &strings[index % strings.len()];
        // Containers and splices only while the nesting is shallow.
        match next(program, if depth < 4 { 10 } else { 7 }) {
            0 => {
                w.value(None::<u64>);
                Doc::Null
            }
            1 => {
                let b = next(program, 2) == 0;
                w.value(b);
                Doc::Bool(b)
            }
            2 => {
                let n = (next(program, 256) as u64) << next(program, 57);
                w.value(n);
                Doc::Number(n.to_string())
            }
            3 => {
                let n = -(next(program, 256) as i64) << next(program, 55);
                w.value(n);
                Doc::Number(n.to_string())
            }
            4 => {
                let v = [0.0, 1.5, -2.0005, 1e9 + 0.1234, f64::NAN][next(program, 5)];
                w.value(Fixed3(v));
                if v.is_finite() {
                    Doc::Number(format!("{v:.3}"))
                } else {
                    Doc::Null
                }
            }
            5 => {
                let v = [0.0, 7.0, 0.1, -1e300, f64::INFINITY][next(program, 5)];
                w.value(v);
                match (v.is_finite(), v.fract() == 0.0) {
                    (false, _) => Doc::Null,
                    (true, true) => Doc::Number(format!("{v}.0")),
                    (true, false) => Doc::Number(format!("{v}")),
                }
            }
            6 => {
                let s = string(next(program, 256));
                w.value(s);
                Doc::Text(s.clone())
            }
            7 => {
                w.begin_array();
                let mut elements = Vec::new();
                for _ in 0..next(program, 4) {
                    elements.push(drive(program, strings, depth + 1, w));
                }
                w.end_array();
                Doc::Array(elements)
            }
            8 => {
                w.begin_object();
                let mut members = Vec::new();
                for _ in 0..next(program, 4) {
                    let key = string(next(program, 256));
                    if next(program, 4) == 0 {
                        w.field_some(key, None::<bool>);
                        continue;
                    }
                    w.key(key);
                    members.push((key.clone(), drive(program, strings, depth + 1, w)));
                }
                w.end_object();
                Doc::Object(members)
            }
            _ => {
                let mut rendered = Vec::new();
                let spliced = &mut JsonWriter::new(&mut rendered);
                let doc = drive(program, strings, depth + 1, spliced);
                w.raw(std::str::from_utf8(&rendered).unwrap());
                doc
            }
        }
    }

    proptest! {
        #[test]
        fn whatever_the_nesting_the_output_parses_back(
            program in proptest::collection::vec(0u8..255, 0..96),
        ) {
            let mut out = Vec::new();
            let expected = drive(&mut program.iter(), &hostile(), 0, &mut JsonWriter::new(&mut out));
            let text = String::from_utf8_lossy(&out).into_owned();
            prop_assert_eq!(parse(&out), Ok(expected), "{}", text);
        }
    }

    #[test]
    fn the_parser_refuses_what_the_writer_must_not_emit() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[,1]",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1 ,2]",
            "01",
            "1.",
            "\"\u{1}\"",
            "\"\\x\"",
            "[1]]",
            "nul",
            "{\"a\":1\"b\":2}",
            "\"open",
        ] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad:?} parsed");
        }
        assert_eq!(parse(b"[]"), Ok(Doc::Array(Vec::new())));
        assert_eq!(parse(b"-0.5"), Ok(Doc::Number("-0.5".into())));
    }
}
