//! The sharded-snapshot manifest: a small JSON file describing a saved set
//! of per-shard snapshots.
//!
//! Saving a sharded store to `base` writes one ordinary snapshot per shard
//! (`base.shard{i}.snap`, the same container format `docs/STORAGE.md`
//! specifies) plus this manifest at `base` itself. Booting reads the
//! manifest, maps each shard snapshot, and rebuilds each shard's
//! [`OwnedTerms`](crate::OwnedTerms) from its dictionary — derived data,
//! never persisted, since ownership is `hash % shards`.
//!
//! The file is JSON with a fixed schema identified by [`MANIFEST_FORMAT`],
//! written with the workspace's `JsonWriter` and read back by a scanner of
//! its own: the file arrives from outside the program, so every byte of it
//! is checked here.

/// Schema identifier of the manifest format (`/1` also named a partitioner
/// and carried its bucket table).
pub const MANIFEST_FORMAT: &str = "turbohom-shards/2";

/// A parsed (or to-be-written) shard manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Number of shards.
    pub shards: usize,
    /// Halo radius the shards were partitioned with.
    pub halo: usize,
    /// Per-shard snapshot file names, in the manifest's directory.
    pub shard_files: Vec<String>,
    /// Per-shard triple counts, checked against the mapped shards at boot.
    pub shard_triples: Vec<u64>,
    /// Distinct triples in the original, unpartitioned dataset.
    pub global_triples: u64,
}

impl Manifest {
    /// Serializes the manifest as JSON.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            w.begin_object()
                .field("format", MANIFEST_FORMAT)
                .field("shards", self.shards)
                .field("halo", self.halo)
                .field("shard_files", &self.shard_files)
                .field("shard_triples", &self.shard_triples)
                .field("global_triples", self.global_triples)
                .end_object();
        })
    }

    /// Parses a manifest, validating the schema identifier, the list
    /// lengths and that every shard file is a plain file name (it is opened
    /// in the manifest's own directory, nowhere else).
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let mut format = String::new();
        let mut shards = None;
        let mut halo = None;
        let mut shard_files = Vec::new();
        let mut shard_triples = Vec::new();
        let mut global_triples = None;

        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "format" => format = p.string()?,
                "shards" => shards = Some(p.number()? as usize),
                "halo" => halo = Some(p.number()? as usize),
                "shard_files" => shard_files = p.string_array()?,
                "shard_triples" => shard_triples = p.number_array()?,
                "global_triples" => global_triples = Some(p.number()?),
                // A file of another format version is refused as that, not
                // for the first member this version does not know.
                _ if !format.is_empty() && format != MANIFEST_FORMAT => break,
                other => return Err(format!("unknown manifest key `{other}`")),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        if format != MANIFEST_FORMAT {
            return Err(format!(
                "unsupported manifest format {format:?} (expected {MANIFEST_FORMAT:?})"
            ));
        }
        p.end()?;
        let shards = shards.ok_or("manifest is missing `shards`")?;
        let manifest = Manifest {
            shards,
            halo: halo.ok_or("manifest is missing `halo`")?,
            shard_files,
            shard_triples,
            global_triples: global_triples.ok_or("manifest is missing `global_triples`")?,
        };
        if shards == 0 || manifest.shard_files.len() != shards {
            return Err(format!(
                "manifest lists {} shard files for {shards} shards",
                manifest.shard_files.len()
            ));
        }
        if manifest.shard_triples.len() != shards {
            return Err("manifest `shard_triples` length mismatch".into());
        }
        for name in &manifest.shard_files {
            if matches!(name.as_str(), "" | "." | "..") || name.contains(std::path::is_separator) {
                return Err(format!(
                    "shard file {name:?} is not a plain file name \
                     (no path separator, no `..`)"
                ));
            }
        }
        Ok(manifest)
    }
}

/// A minimal JSON scanner for the fixed manifest shape: objects with
/// string/number/array-of-(string|number) values only.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    /// Consumes `,` and returns `true`, or consumes `close` and returns
    /// `false`.
    fn comma_or(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(&b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(format!(
                "expected `,` or `{}` at offset {}",
                close as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        _ => return Err("unsupported escape".into()),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Manifest strings are file names; multi-byte UTF-8 is
                    // copied through byte by byte (input was a &str, so the
                    // sequence is valid).
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    if b >= 0x80 {
                        while self.bytes.get(end).is_some_and(|&c| c & 0xc0 == 0x80) {
                            end += 1;
                        }
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a number at offset {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| "number out of range".into())
    }

    fn number_array(&mut self) -> Result<Vec<u64>, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut out = Vec::new();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.number()?);
            if !self.comma_or(b']')? {
                return Ok(out);
            }
        }
    }

    fn string_array(&mut self) -> Result<Vec<String>, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut out = Vec::new();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.string()?);
            if !self.comma_or(b']')? {
                return Ok(out);
            }
        }
    }

    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("trailing content at offset {}", self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            shards: 4,
            halo: 2,
            shard_files: (0..4).map(|i| format!("lubm.shard{i}.snap")).collect(),
            shard_triples: vec![100, 120, 90, 110],
            global_triples: 300,
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("not json").is_err());
        // Wrong format tag.
        let wrong = sample().to_json().replace("shards/2", "shards/99");
        assert!(Manifest::parse(&wrong).unwrap_err().contains("format"));
        // File-count mismatch.
        let mut m = sample();
        m.shard_files.pop();
        assert!(Manifest::parse(&m.to_json()).is_err());
        // A member this format does not have.
        let extra = sample().to_json().replace("\"halo\"", "\"hello\"");
        assert!(Manifest::parse(&extra).unwrap_err().contains("`hello`"));
        // Trailing garbage.
        let mut s = sample().to_json();
        s.push('x');
        assert!(Manifest::parse(&s).is_err());
    }

    #[test]
    fn a_version_1_manifest_is_refused_as_an_unsupported_format() {
        // As the previous format was written, partitioner and bucket table
        // included.
        let v1 = r#"{"format":"turbohom-shards/1","shards":2,"halo":2,"partitioner":"hash","buckets":[],"shard_files":["a.shard0.snap","a.shard1.snap"],"shard_triples":[5,6],"global_triples":9}"#;
        let message = Manifest::parse(v1).unwrap_err();
        assert!(
            message.contains("unsupported manifest format \"turbohom-shards/1\""),
            "{message}"
        );
    }

    #[test]
    fn shard_files_must_be_plain_file_names() {
        for hostile in ["../x.snap", "sub/x.snap", "/etc/passwd", "..", ".", ""] {
            let mut m = sample();
            m.shard_files[2] = hostile.into();
            let message = Manifest::parse(&m.to_json()).unwrap_err();
            assert!(message.contains("not a plain file name"), "{message}");
            assert!(message.contains(&format!("{hostile:?}")), "{message}");
        }
    }

    #[test]
    fn file_names_with_escapes_round_trip() {
        let mut m = sample();
        m.shard_files[0] = "we\"ird\\name.snap".into();
        m.shard_files[1] = "unicode-Ω.snap".into();
        let parsed = Manifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed.shard_files, m.shard_files);
    }
}
