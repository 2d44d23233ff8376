//! The streamed HTTP responses against the embedded API: on a heap, a
//! snapshot-backed and a 4-shard server the chunked bodies must be
//! byte-identical to what the served store's own `execute(..)` renders with
//! `to_sparql_json()` (one store at one worker thread enumerates in a stable
//! order) and, with the rows sorted, to the heap store's answer; `HEAD /query`
//! must carry no body, and `profile=1` / `analyze=1` responses must still be
//! one JSON document with their extra members in it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use turbohom_bench::{canonical_json, lubm_store, sharded_lubm_store};
use turbohom_datasets::lubm;
use turbohom_engine::{AnyStore, EngineKind, Store};
use turbohom_service::{HttpServer, QueryService, ServiceConfig};

const PREFIXES: &str = "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> \
                        PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> ";

/// The paper's increasing-solution queries plus one query per pattern shape
/// the result path treats differently: unbound cells, several union
/// branches, a variable predicate (edge-label cells, direct graph).
fn queries() -> Vec<(String, String)> {
    let mut queries: Vec<(String, String)> = lubm::queries()
        .into_iter()
        .filter(|q| ["Q6", "Q14", "Q2", "Q9"].contains(&q.id.as_str()))
        .map(|q| (q.id, q.sparql))
        .collect();
    assert_eq!(queries.len(), 4);
    for (id, body) in [
        (
            "optional",
            "SELECT ?x ?a WHERE { ?x rdf:type ub:FullProfessor . OPTIONAL { ?x ub:advisor ?a . } }",
        ),
        (
            "union",
            "SELECT ?x WHERE { { ?x rdf:type ub:FullProfessor . } UNION { ?x rdf:type ub:Lecturer . } }",
        ),
        (
            "variable-predicate",
            "SELECT ?p ?o WHERE { <http://www.Department0.University0.edu/FullProfessor0> ?p ?o . }",
        ),
    ] {
        queries.push((id.to_string(), format!("{PREFIXES}{body}")));
    }
    queries
}

struct Response {
    status: u16,
    headers: String,
    /// The bytes after the head, as they came off the wire.
    wire_body: Vec<u8>,
}

impl Response {
    fn chunked(&self) -> bool {
        self.headers.contains("Transfer-Encoding: chunked")
    }

    /// The body, reassembled when chunked.
    fn body(&self) -> Vec<u8> {
        if !self.chunked() {
            return self.wire_body.clone();
        }
        let mut body = Vec::new();
        let mut wire = &self.wire_body[..];
        loop {
            let line_end = wire.windows(2).position(|w| w == b"\r\n").unwrap();
            let size = std::str::from_utf8(&wire[..line_end]).unwrap();
            let size = usize::from_str_radix(size, 16).unwrap();
            wire = &wire[line_end + 2..];
            if size == 0 {
                assert_eq!(wire, b"\r\n", "bytes after the terminal chunk");
                return body;
            }
            body.extend_from_slice(&wire[..size]);
            assert_eq!(&wire[size..size + 2], b"\r\n");
            wire = &wire[size + 2..];
        }
    }
}

fn request(addr: SocketAddr, method: &str, target: &str, sparql: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    let message = if method == "POST" {
        format!(
            "POST {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{sparql}",
            sparql.len()
        )
    } else {
        let encoded: String = sparql
            .bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' => (b as char).to_string(),
                _ => format!("%{b:02X}"),
            })
            .collect();
        format!(
            "{method} {target}?query={encoded} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
    };
    stream.write_all(message.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let head = std::str::from_utf8(&raw[..head_end]).unwrap();
    let (status_line, headers) = head.split_once("\r\n").unwrap();
    Response {
        status: status_line.split(' ').nth(1).unwrap().parse().unwrap(),
        headers: headers.to_string(),
        wire_body: raw[head_end + 4..].to_vec(),
    }
}

/// Checks that `text` is exactly one well-formed JSON object and returns the
/// names of its members.
fn top_level_members(text: &str) -> Result<Vec<String>, String> {
    struct Cursor<'a>(&'a [u8], usize);
    impl Cursor<'_> {
        fn peek(&self) -> Option<u8> {
            self.0.get(self.1).copied()
        }
        fn expect(&mut self, byte: u8) -> Result<(), String> {
            if self.peek() != Some(byte) {
                return Err(format!("expected `{}` at byte {}", byte as char, self.1));
            }
            self.1 += 1;
            Ok(())
        }
        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let start = self.1;
            while let Some(byte) = self.peek() {
                match byte {
                    b'"' => {
                        self.1 += 1;
                        return Ok(String::from_utf8_lossy(&self.0[start..self.1 - 1]).into());
                    }
                    b'\\' => self.1 += 2,
                    0..=0x1f => return Err(format!("raw control byte at {}", self.1)),
                    _ => self.1 += 1,
                }
            }
            Err("unterminated string".into())
        }
        /// Skips one value; for an object, returns its member names.
        fn value(&mut self) -> Result<Vec<String>, String> {
            let mut members = Vec::new();
            match self.peek() {
                Some(b'"') => drop(self.string()?),
                Some(open @ (b'{' | b'[')) => {
                    let close = if open == b'{' { b'}' } else { b']' };
                    self.1 += 1;
                    while self.peek() != Some(close) {
                        if open == b'{' {
                            members.push(self.string()?);
                            self.expect(b':')?;
                        }
                        self.value()?;
                        if self.peek() == Some(b',') {
                            self.1 += 1;
                            if self.peek() == Some(close) {
                                return Err(format!("trailing comma at byte {}", self.1));
                            }
                        } else if self.peek() != Some(close) {
                            return Err(format!("expected `,` at byte {}", self.1));
                        }
                    }
                    self.1 += 1;
                }
                _ => {
                    let start = self.1;
                    while self.peek().is_some_and(|b| !b",]}".contains(&b)) {
                        self.1 += 1;
                    }
                    let scalar = std::str::from_utf8(&self.0[start..self.1]).unwrap();
                    if !["null", "true", "false"].contains(&scalar)
                        && scalar.parse::<f64>().is_err()
                    {
                        return Err(format!("bad scalar `{scalar}` at byte {start}"));
                    }
                }
            }
            Ok(members)
        }
    }
    let mut cursor = Cursor(text.as_bytes(), 0);
    if cursor.peek() != Some(b'{') {
        return Err("not an object".into());
    }
    let members = cursor.value()?;
    if cursor.1 != text.len() {
        return Err(format!("bytes after the document at {}", cursor.1));
    }
    Ok(members)
}

#[test]
fn streamed_bodies_equal_the_embedded_api_on_every_store_flavour() {
    let heap = Arc::new(lubm_store(1));
    let dir = std::env::temp_dir().join("turbohom-bench-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join(format!("lubm1-http-{}.snap", std::process::id()));
    heap.save_snapshot(&snapshot_path).unwrap();
    let flavours = [
        ("heap", AnyStore::Single(Arc::clone(&heap))),
        (
            "snapshot",
            AnyStore::Single(Arc::new(Store::from_snapshot(&snapshot_path).unwrap())),
        ),
        (
            "shards-4",
            AnyStore::Sharded(Arc::new(sharded_lubm_store(1, 4))),
        ),
    ];
    for (flavour, store) in flavours {
        let service = Arc::new(QueryService::with_any_store(
            store.clone(),
            ServiceConfig::default(),
        ));
        let handle = HttpServer::bind("127.0.0.1:0", service)
            .unwrap()
            .spawn()
            .unwrap();
        let addr = handle.addr();
        let mut compared = 0;
        for (id, sparql) in queries() {
            let response = request(addr, "POST", "/query", &sparql);
            if flavour == "shards-4" && id == "union" {
                // Outside the sharded scope: refused, not answered wrongly.
                assert_eq!(response.status, 400, "{flavour} {id}");
                continue;
            }
            let expected = match &store {
                AnyStore::Single(s) => s.execute(&sparql, EngineKind::TurboHomPlusPlus),
                AnyStore::Sharded(s) => s.execute(&sparql, EngineKind::TurboHomPlusPlus),
            }
            .unwrap();
            assert!(!expected.is_empty(), "{id} should have solutions");
            assert_eq!(response.status, 200, "{flavour} {id}");
            assert!(response.chunked(), "{flavour} {id}: {}", response.headers);
            assert!(
                !response.headers.contains("Content-Length"),
                "{flavour} {id}"
            );
            assert_eq!(
                String::from_utf8(response.body()).unwrap(),
                expected.to_sparql_json(),
                "{flavour} {id}"
            );
            // Across flavours the enumeration order differs, the rows and
            // their rendering must not.
            let on_heap = heap.execute(&sparql, EngineKind::TurboHomPlusPlus).unwrap();
            assert_eq!(
                canonical_json(expected.clone()),
                canonical_json(on_heap),
                "{flavour} {id}"
            );
            compared += 1;

            // HEAD: the same head, no body at all — not even a chunk.
            let head = request(addr, "HEAD", "/query", &sparql);
            assert_eq!(head.status, 200, "{flavour} {id}");
            assert!(head.chunked(), "{flavour} {id}: {}", head.headers);
            assert!(head.headers.contains("X-Cache: HIT"), "{flavour} {id}");
            assert!(head.wire_body.is_empty(), "{flavour} {id}");

            // The extra members are written before the closing brace of the
            // same document.
            for (flag, member) in [("profile", "profile"), ("analyze", "explain")] {
                let response = request(addr, "POST", &format!("/query?{flag}=1"), &sparql);
                assert_eq!(response.status, 200, "{flavour} {id} {flag}");
                let body = String::from_utf8(response.body()).unwrap();
                let members = top_level_members(&body)
                    .unwrap_or_else(|e| panic!("{flavour} {id} {flag}=1 is not JSON: {e}"));
                assert_eq!(members, ["head", "results", member], "{flavour} {id}");
                // Up to those members the document is the plain response.
                let plain = expected.to_sparql_json();
                assert!(
                    body.starts_with(&plain[..plain.len() - 1]),
                    "{flavour} {id} {flag}"
                );
            }
        }
        assert!(compared >= 6, "{flavour}: only {compared} queries compared");
        handle.shutdown();
    }
    std::fs::remove_file(&snapshot_path).ok();
}

#[test]
fn an_http_1_0_client_gets_the_same_bytes_unframed() {
    let heap = Arc::new(lubm_store(1));
    let service = Arc::new(QueryService::new(Arc::clone(&heap)));
    let handle = HttpServer::bind("127.0.0.1:0", service)
        .unwrap()
        .spawn()
        .unwrap();
    let (_, sparql) = queries().swap_remove(0);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let message = format!(
        "POST /query HTTP/1.0\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{sparql}",
        sparql.len()
    );
    stream.write_all(message.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(!head.contains("Transfer-Encoding"), "{head}");
    let expected = heap.execute(&sparql, EngineKind::TurboHomPlusPlus).unwrap();
    assert_eq!(body, expected.to_sparql_json());
    handle.shutdown();
}
