//! The answer oracle: a row count and a 64-bit hash of the bindings that does
//! not depend on row order, on the order of a row's members, or on JSON
//! whitespace.
//!
//! The expected digest of a request is computed in-process from the `Term`s
//! the merge-join baseline returns ([`of_results`]); the digest of a response
//! is computed from its SPARQL-JSON text ([`of_json`]). The two share only the
//! hashing of a decoded binding, so neither the matcher nor the serialiser
//! under test takes part in producing the expectation.

use turbohom_engine::QueryResults;
use turbohom_rdf::Term;

/// Row count plus order-insensitive hash of one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

/// One decoded binding value, as SPARQL-JSON spells it.
#[derive(Default)]
struct Value<'a> {
    kind: &'a str,
    value: &'a str,
    lang: &'a str,
    datatype: &'a str,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Field separator: ("ab","c") and ("a","bc") must differ.
    *hash ^= 0xff;
    *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Finaliser of MurmurHash3: spreads a sum or an FNV state over all 64 bits
/// so that adding hashes (the order-insensitive combination) does not cancel
/// structure.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

fn binding_hash(variable: &str, v: &Value<'_>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in [variable, v.kind, v.value, v.lang, v.datatype] {
        fnv1a(&mut h, field.as_bytes());
    }
    mix(h)
}

/// Rows combine by wrapping addition (a multiset hash); within a row the
/// bindings do too, and the row sum is mixed once more so that swapping a
/// binding between two rows changes the total.
fn add_row(digest: &mut Digest, row_sum: u64) {
    digest.rows += 1;
    digest.hash = digest
        .hash
        .wrapping_add(mix(row_sum ^ 0x9e37_79b9_7f4a_7c15));
}

/// Digest of in-process results (unbound variables contribute nothing, as
/// SPARQL-JSON omits them).
pub fn of_results(results: &QueryResults) -> Digest {
    let mut digest = Digest { rows: 0, hash: 0 };
    for row in &results.rows {
        let mut sum = 0u64;
        for (variable, term) in results.variables.iter().zip(row) {
            let value = match term {
                None => continue,
                Some(Term::Iri(iri)) => Value {
                    kind: "uri",
                    value: iri,
                    ..Value::default()
                },
                Some(Term::BlankNode(label)) => Value {
                    kind: "bnode",
                    value: label,
                    ..Value::default()
                },
                Some(Term::Literal {
                    lexical,
                    datatype,
                    language,
                }) => Value {
                    kind: "literal",
                    value: lexical,
                    lang: language.as_deref().unwrap_or(""),
                    datatype: datatype.as_deref().unwrap_or(""),
                },
            };
            sum = sum.wrapping_add(binding_hash(variable, &value));
        }
        add_row(&mut digest, sum);
    }
    digest
}

/// Digest of a SPARQL 1.1 Query Results JSON document.
pub fn of_json(body: &[u8]) -> Result<Digest, String> {
    let mut p = Parser { src: body, at: 0 };
    let mut digest = None;
    p.object(|p, key| {
        if key != "results" {
            return p.skip_value();
        }
        p.object(|p, key| {
            if key != "bindings" {
                return p.skip_value();
            }
            let mut d = Digest { rows: 0, hash: 0 };
            p.array(|p| {
                let mut sum = 0u64;
                p.object(|p, variable| {
                    let variable = variable.to_owned();
                    let mut fields: [String; 4] = Default::default();
                    p.object(|p, key| {
                        let slot = match key {
                            "type" => 0,
                            "value" => 1,
                            "xml:lang" => 2,
                            "datatype" => 3,
                            _ => return p.skip_value(),
                        };
                        fields[slot] = p.string()?;
                        Ok(())
                    })?;
                    let value = Value {
                        kind: &fields[0],
                        value: &fields[1],
                        lang: &fields[2],
                        datatype: &fields[3],
                    };
                    sum = sum.wrapping_add(binding_hash(&variable, &value));
                    Ok(())
                })?;
                add_row(&mut d, sum);
                Ok(())
            })?;
            digest = Some(d);
            Ok(())
        })
    })?;
    p.skip_ws();
    if p.at != body.len() {
        return Err(p.error("trailing bytes after the document"));
    }
    digest.ok_or_else(|| "no results.bindings member".to_string())
}

/// Counts the rows of a SPARQL-JSON document without decoding them: the
/// objects one level inside the first array that follows the `"bindings"`
/// key. A linear scan that only tracks strings and nesting — cheap enough to
/// run on every multi-megabyte response.
pub fn count_rows(body: &[u8]) -> Result<u64, String> {
    const KEY: &[u8] = b"\"bindings\"";
    let start = body
        .windows(KEY.len())
        .position(|w| w == KEY)
        .ok_or("no bindings member")?;
    let mut depth = 0usize;
    let mut rows = 0u64;
    let mut in_string = false;
    let mut escaped = false;
    for &b in &body[start + KEY.len()..] {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                if b == b'{' && depth == 2 {
                    rows += 1;
                }
            }
            b']' | b'}' => {
                depth = depth.checked_sub(1).ok_or("unbalanced brackets")?;
                if depth == 0 {
                    return Ok(rows);
                }
            }
            _ => {}
        }
    }
    Err("bindings array never closes".into())
}

/// A minimal pull parser over JSON bytes: callers walk objects and arrays
/// with closures, read the strings they need and skip everything else, so a
/// multi-megabyte result body is hashed without building a tree.
struct Parser<'a> {
    src: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON error at byte {}: {what}", self.at)
    }

    fn skip_ws(&mut self) {
        while matches!(self.src.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.src.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    /// Consumes `byte` if it is next (after whitespace).
    fn eat(&mut self, byte: u8) -> bool {
        self.skip_ws();
        let hit = self.src.get(self.at) == Some(&byte);
        if hit {
            self.at += 1;
        }
        hit
    }

    /// Walks an object, calling `member` with each key; `member` must
    /// consume the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            member(self, &key)?;
            if self.eat(b'}') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    /// Walks an array; `element` must consume one value.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'[')?;
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            element(self)?;
            if self.eat(b']') {
                return Ok(());
            }
            self.expect(b',')?;
        }
    }

    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.src.get(self.at) {
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            Some(_) => {
                // Number, true, false or null: runs to the next delimiter.
                let start = self.at;
                while !matches!(
                    self.src.get(self.at),
                    None | Some(b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r')
                ) {
                    self.at += 1;
                }
                if self.at == start {
                    return Err(self.error("expected a value"));
                }
                Ok(())
            }
            None => Err(self.error("unexpected end")),
        }
    }

    /// Reads a string and undoes its escapes.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let start = self.at;
            while !matches!(self.src.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            out.extend_from_slice(&self.src[start..self.at]);
            match self.src.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"));
                }
                Some(b'\\') => {
                    self.at += 1;
                    let c = *self
                        .src
                        .get(self.at)
                        .ok_or_else(|| self.error("bad escape"))?;
                    self.at += 1;
                    let decoded = match c {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .src
            .get(self.at..self.at + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.at += 4;
        Ok(digits)
    }

    /// The part of a `\uXXXX` escape after the `u`, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            if self.src.get(self.at..self.at + 2) != Some(b"\\u") {
                return Err(self.error("lone high surrogate"));
            }
            self.at += 2;
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.error("bad low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("escape is not a character"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(variables: &[&str], rows: Vec<Vec<Option<Term>>>) -> QueryResults {
        QueryResults {
            variables: variables.iter().map(|v| v.to_string()).collect(),
            solution_count: rows.len(),
            rows,
            ..QueryResults::default()
        }
    }

    #[test]
    fn json_digest_equals_term_digest_through_the_real_serialiser() {
        let r = results(
            &["x", "y"],
            vec![
                vec![Some(Term::iri("http://e/a")), Some(Term::integer(7))],
                vec![Some(Term::blank("b0")), None],
                vec![
                    Some(Term::literal("tab\t \"quoted\" \\ \u{1}")),
                    Some(Term::lang_literal("gr\u{fc}n \u{1f600}", "de")),
                ],
            ],
        );
        let expected = of_results(&r);
        assert_eq!(expected.rows, 3);
        assert_eq!(of_json(r.to_sparql_json().as_bytes()).unwrap(), expected);
    }

    #[test]
    fn digest_ignores_row_order_member_order_and_whitespace() {
        let a = br#"{"head":{"vars":["x","y"]},"results":{"bindings":[
            {"x":{"type":"uri","value":"http://e/a"},"y":{"type":"literal","value":"1"}},
            {"x":{"type":"uri","value":"http://e/b"}}]}}"#;
        let b = br#" { "results" : { "bindings" : [
            { "x" : { "value" : "http://e/b" , "type" : "uri" } } ,
            { "y" : { "value" : "1", "type" : "literal" },
              "x" : { "type" : "uri", "value" : "http:\/\/e\/a" } } ] },
            "head" : { "vars" : [ "x", "y" ], "link": [] }, "extra": [1, true, null, {"k": -2.5e3}] } "#;
        assert_eq!(of_json(a).unwrap(), of_json(b).unwrap());
        assert_eq!(of_json(a).unwrap().rows, 2);
    }

    #[test]
    fn digest_sees_every_kind_of_difference() {
        let base = of_json(
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"},"y":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}}]}}"#,
        )
        .unwrap();
        for other in [
            // a value swapped between two rows
            &br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"},"y":{"type":"uri","value":"d"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"b"}}]}}"#[..],
            // a value swapped between two variables
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"b"},"y":{"type":"uri","value":"a"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}}]}}"#,
            // another term kind
            br#"{"results":{"bindings":[{"x":{"type":"literal","value":"a"},"y":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}}]}}"#,
            // a duplicated row
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"},"y":{"type":"uri","value":"b"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}},{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}}]}}"#,
            // a missing row
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"},"y":{"type":"uri","value":"b"}}]}}"#,
        ] {
            assert_ne!(of_json(other).unwrap(), base);
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            &b""[..],
            b"[]",
            br#"{"head":{}}"#,
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"a"}}]}"#,
            br#"{"results":{"bindings":[{"x":{"type":"uri","value":"\ud800"}}]}}"#,
            br#"{"results":{"bindings":[]}} x"#,
        ] {
            assert!(of_json(bad).is_err(), "{}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn row_count_scan_agrees_with_the_parser() {
        let r = results(
            &["x"],
            (0..50)
                .map(|i| vec![Some(Term::literal(format!("br{{ack}}ets [\"{i}\"] \\")))])
                .collect(),
        );
        let json = r.to_sparql_json();
        assert_eq!(count_rows(json.as_bytes()).unwrap(), 50);
        assert_eq!(count_rows(br#"{"results":{"bindings":[]}}"#).unwrap(), 0);
        assert_eq!(
            count_rows(b"{ \"results\": { \"bindings\" : [ {}, { \"x\": {} } ] } }").unwrap(),
            2
        );
        assert!(count_rows(b"{}").is_err());
        assert!(count_rows(br#"{"results":{"bindings":[{"#).is_err());
    }
}
