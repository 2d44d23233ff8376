//! The sharded-snapshot manifest: a small JSON file describing a saved set
//! of per-shard snapshots.
//!
//! Saving a sharded store to `base` writes one ordinary snapshot per shard
//! (`base.shard{i}.snap`, the same container format `docs/STORAGE.md`
//! specifies) plus this manifest at `base` itself. Booting reads the
//! manifest, maps each shard snapshot, and rebuilds the summaries by
//! scanning the shard datasets — summaries are derived data and are never
//! persisted. The greedy partitioner's bucket table *is* persisted: it
//! depends on the full dataset, which no longer exists at boot time.
//!
//! The file is JSON with a fixed schema identified by [`MANIFEST_FORMAT`],
//! written with the workspace's `JsonWriter` and read back by a scanner of
//! its own: the file arrives from outside the program, so every byte of it
//! is checked here.

use crate::partitioner::{Ownership, PartitionerKind, GREEDY_BUCKETS};

/// Schema identifier of the manifest format.
pub const MANIFEST_FORMAT: &str = "turbohom-shards/1";

/// A parsed (or to-be-written) shard manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Number of shards.
    pub shards: usize,
    /// Halo radius the shards were partitioned with.
    pub halo: usize,
    /// Which partitioner assigned ownership.
    pub partitioner: PartitionerKind,
    /// The greedy bucket table (empty for the hash partitioner).
    pub buckets: Vec<u16>,
    /// Per-shard snapshot file names, relative to the manifest's directory.
    pub shard_files: Vec<String>,
    /// Per-shard triple counts (for `ls`-level sanity checks and load logs).
    pub shard_triples: Vec<u64>,
    /// Distinct triples in the original, unpartitioned dataset.
    pub global_triples: u64,
}

impl Manifest {
    /// Reconstructs the ownership assignment this manifest describes.
    pub fn ownership(&self) -> Result<Ownership, String> {
        match self.partitioner {
            PartitionerKind::Hash => Ok(Ownership::hash(self.shards)),
            PartitionerKind::Greedy => Ownership::greedy(self.shards, self.buckets.clone())
                .ok_or_else(|| {
                    format!(
                        "greedy bucket table must have {GREEDY_BUCKETS} entries in 0..{}",
                        self.shards
                    )
                }),
        }
    }

    /// Serializes the manifest as JSON.
    pub fn to_json(&self) -> String {
        turbohom_json::document(|w| {
            w.begin_object()
                .field("format", MANIFEST_FORMAT)
                .field("shards", self.shards)
                .field("halo", self.halo)
                .field("partitioner", self.partitioner.name())
                .field("buckets", &self.buckets)
                .field("shard_files", &self.shard_files)
                .field("shard_triples", &self.shard_triples)
                .field("global_triples", self.global_triples)
                .end_object();
        })
    }

    /// Parses a manifest, validating the schema identifier and the
    /// cross-field invariants (list lengths, bucket-table shape).
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let mut format = None;
        let mut shards = None;
        let mut halo = None;
        let mut partitioner = None;
        let mut buckets = Vec::new();
        let mut shard_files = Vec::new();
        let mut shard_triples = Vec::new();
        let mut global_triples = None;

        p.expect(b'{')?;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "format" => format = Some(p.string()?),
                "shards" => shards = Some(p.number()? as usize),
                "halo" => halo = Some(p.number()? as usize),
                "partitioner" => {
                    let name = p.string()?;
                    partitioner = Some(name.parse::<PartitionerKind>().map_err(|e| e.to_string())?);
                }
                "buckets" => {
                    buckets = p
                        .number_array()?
                        .into_iter()
                        .map(|n| u16::try_from(n).map_err(|_| "bucket id out of range".to_string()))
                        .collect::<Result<_, _>>()?;
                }
                "shard_files" => shard_files = p.string_array()?,
                "shard_triples" => shard_triples = p.number_array()?,
                "global_triples" => global_triples = Some(p.number()?),
                other => return Err(format!("unknown manifest key `{other}`")),
            }
            if !p.comma_or(b'}')? {
                break;
            }
        }
        p.end()?;

        if format.as_deref() != Some(MANIFEST_FORMAT) {
            return Err(format!(
                "unsupported manifest format {:?} (expected {MANIFEST_FORMAT:?})",
                format.unwrap_or_default()
            ));
        }
        let shards = shards.ok_or("manifest is missing `shards`")?;
        let manifest = Manifest {
            shards,
            halo: halo.ok_or("manifest is missing `halo`")?,
            partitioner: partitioner.ok_or("manifest is missing `partitioner`")?,
            buckets,
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
        manifest.ownership()?;
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

    fn sample(partitioner: PartitionerKind) -> Manifest {
        Manifest {
            shards: 4,
            halo: 2,
            partitioner,
            buckets: match partitioner {
                PartitionerKind::Hash => Vec::new(),
                PartitionerKind::Greedy => (0..GREEDY_BUCKETS).map(|b| (b % 4) as u16).collect(),
            },
            shard_files: (0..4).map(|i| format!("lubm.shard{i}.snap")).collect(),
            shard_triples: vec![100, 120, 90, 110],
            global_triples: 300,
        }
    }

    #[test]
    fn round_trips_for_both_partitioners() {
        for kind in [PartitionerKind::Hash, PartitionerKind::Greedy] {
            let m = sample(kind);
            let parsed = Manifest::parse(&m.to_json()).unwrap();
            assert_eq!(parsed, m);
            parsed.ownership().unwrap();
        }
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(Manifest::parse("").is_err());
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("not json").is_err());
        // Wrong format tag.
        let wrong = sample(PartitionerKind::Hash)
            .to_json()
            .replace("turbohom-shards/1", "turbohom-shards/99");
        assert!(Manifest::parse(&wrong).unwrap_err().contains("format"));
        // File-count mismatch.
        let mut m = sample(PartitionerKind::Hash);
        m.shard_files.pop();
        assert!(Manifest::parse(&m.to_json()).is_err());
        // Greedy without a bucket table.
        let mut m = sample(PartitionerKind::Greedy);
        m.buckets.clear();
        assert!(Manifest::parse(&m.to_json()).is_err());
        // Trailing garbage.
        let mut s = sample(PartitionerKind::Hash).to_json();
        s.push('x');
        assert!(Manifest::parse(&s).is_err());
    }

    #[test]
    fn file_names_with_escapes_round_trip() {
        let mut m = sample(PartitionerKind::Hash);
        m.shard_files[0] = "we\"ird\\name.snap".into();
        m.shard_files[1] = "unicode-Ω.snap".into();
        let parsed = Manifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed.shard_files, m.shard_files);
    }
}
