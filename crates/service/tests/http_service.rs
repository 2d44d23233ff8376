//! End-to-end service tests: a real `HttpServer` on a LUBM(1) store, hit by
//! concurrent clients over TCP, checked byte-for-byte against the embedded
//! `Store::execute` API (the ISSUE 2 acceptance criterion).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use turbohom_datasets::lubm::{self, LubmConfig, LubmGenerator};
use turbohom_engine::{EngineKind, Store};
use turbohom_service::{HttpServer, QueryOptions, QueryService, ServerHandle, ServiceConfig};

fn lubm_service() -> (Arc<QueryService>, ServerHandle) {
    lubm_service_with(ServiceConfig::default())
}

fn lubm_service_with(config: ServiceConfig) -> (Arc<QueryService>, ServerHandle) {
    let dataset = LubmGenerator::new(LubmConfig::scale(1)).generate();
    let store = Arc::new(Store::from_dataset(dataset));
    let service = Arc::new(QueryService::with_config(store, config).with_dataset_label("lubm-1"));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let handle = server.spawn().unwrap();
    (service, handle)
}

/// A service over 40,000 students with long IRIs, each a member of one of 25
/// departments: LUBM Q6 is a scan with a body of several MB, and the members
/// of a department are a lookup.
fn student_scan_service() -> (Arc<QueryService>, ServerHandle) {
    let mut dataset = turbohom_rdf::Dataset::new();
    for i in 0..40_000 {
        let student = format!("http://www.Department{}.University{}.edu/a/rather/long/path/to/keep/the/response/body/large/UndergraduateStudent{i}", i % 25, i % 640);
        dataset.insert_iris(
            &student,
            turbohom_rdf::vocab::RDF_TYPE,
            "http://swat.cse.lehigh.edu/onto/univ-bench.owl#Student",
        );
        if i % 400 == 0 {
            dataset.insert_iris(
                &student,
                "http://swat.cse.lehigh.edu/onto/univ-bench.owl#memberOf",
                &format!("http://www.Department{}.edu", i % 25),
            );
        }
    }
    let service = Arc::new(QueryService::new(Arc::new(Store::from_dataset(dataset))));
    let handle = HttpServer::bind("127.0.0.1:0", Arc::clone(&service))
        .unwrap()
        .spawn()
        .unwrap();
    (service, handle)
}

/// A client that keeps its connection: it reads each response by its
/// framing, not to the end of the stream.
struct Connection(BufReader<TcpStream>);

impl Connection {
    fn open(addr: SocketAddr) -> Connection {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Connection(BufReader::new(stream))
    }

    /// Sends `request` and returns the bytes of its response exactly as
    /// they came: the head, then a `Content-Length` body or every chunk up
    /// to the terminal one (none of either for a `HEAD`).
    fn exchange(&mut self, request: &str) -> Vec<u8> {
        self.0.get_mut().write_all(request.as_bytes()).unwrap();
        let reader = &mut self.0;
        let mut wire = Vec::new();
        fn line(reader: &mut impl BufRead, wire: &mut Vec<u8>) -> String {
            let at = wire.len();
            assert!(
                reader.read_until(b'\n', wire).unwrap() > 0,
                "connection closed"
            );
            String::from_utf8(wire[at..].to_vec()).unwrap()
        }
        let (mut length, mut chunked) = (0usize, false);
        loop {
            let header = line(reader, &mut wire);
            if header == "\r\n" {
                break;
            }
            if let Some(value) = header.strip_prefix("Content-Length: ") {
                length = value.trim().parse().unwrap();
            }
            chunked |= header == "Transfer-Encoding: chunked\r\n";
        }
        if request.starts_with("HEAD ") {
            return wire;
        }
        while chunked {
            let size = usize::from_str_radix(line(reader, &mut wire).trim(), 16).unwrap();
            let at = wire.len();
            wire.resize(at + size + 2, 0);
            reader.read_exact(&mut wire[at..]).unwrap();
            assert!(wire.ends_with(b"\r\n"), "no CRLF after the chunk");
            chunked = size > 0;
        }
        let at = wire.len();
        wire.resize(at + length, 0);
        reader.read_exact(&mut wire[at..]).unwrap();
        wire
    }

    /// Half-closes the connection and returns what the server still sends
    /// before it closes its side.
    fn finish(mut self) -> Vec<u8> {
        self.0
            .get_ref()
            .shutdown(std::net::Shutdown::Write)
            .unwrap();
        let mut rest = Vec::new();
        self.0.read_to_end(&mut rest).unwrap();
        rest
    }
}

/// Sends one raw HTTP request and returns (status line, headers, body); a
/// `Transfer-Encoding: chunked` body comes back reassembled.
fn http_request(addr: std::net::SocketAddr, request: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    let body = if headers.contains("Transfer-Encoding: chunked") {
        dechunk(body)
    } else {
        body.to_string()
    };
    (status.to_string(), headers.to_string(), body)
}

/// Reassembles a chunked body, checking its framing on the way: hexadecimal
/// sizes, a CRLF after every chunk, and nothing after the terminal chunk.
fn dechunk(mut wire: &str) -> String {
    let mut body = String::new();
    loop {
        let (size, rest) = wire.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size, 16).expect("hexadecimal chunk size");
        if size == 0 {
            assert_eq!(rest, "\r\n", "bytes after the terminal chunk");
            return body;
        }
        body.push_str(&rest[..size]);
        wire = rest[size..]
            .strip_prefix("\r\n")
            .expect("CRLF after the chunk");
    }
}

/// Percent-encodes a query so it survives a GET query string.
fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn get_query(addr: std::net::SocketAddr, sparql: &str, engine: &str) -> (String, String, String) {
    let request = format!(
        "GET /query?query={}&engine={} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        urlencode(sparql),
        urlencode(engine),
    );
    http_request(addr, &request)
}

#[test]
fn concurrent_clients_get_results_identical_to_the_embedded_api() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();

    // Expected bytes come from the embedded API on the same store.
    let queries: Vec<_> = lubm::queries().into_iter().take(7).collect();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| {
            let results = service
                .store()
                .store()
                .execute(&q.sparql, EngineKind::TurboHomPlusPlus)
                .unwrap();
            assert!(!results.is_empty(), "{} should have solutions", q.id);
            results.to_sparql_json()
        })
        .collect();

    // Four clients, each issuing Q1–Q7 twice (the second sweep hits the
    // plan cache), all against the shared service.
    std::thread::scope(|scope| {
        for _client in 0..4 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for _round in 0..2 {
                    for (q, want) in queries.iter().zip(expected) {
                        let (status, headers, body) = get_query(addr, &q.sparql, "turbohom++");
                        assert_eq!(status, "HTTP/1.1 200 OK", "{}: {body}", q.id);
                        assert!(
                            headers.contains("application/sparql-results+json"),
                            "{}: {headers}",
                            q.id
                        );
                        assert_eq!(&body, want, "{} differs over HTTP", q.id);
                    }
                }
            });
        }
    });

    // 4 clients × 2 rounds × 7 queries = 56 requests over 7 distinct plans:
    // at least the whole second sweep hit the cache.
    let stats = service.stats();
    assert_eq!(
        stats.engines[EngineKind::TurboHomPlusPlus.index()].queries,
        56
    );
    assert!(stats.cache_hits >= 28, "hits = {}", stats.cache_hits);
    assert_eq!(stats.cache_size, 7);
    // Concurrent misses on the same fresh key may each prepare once, but
    // never more than once per request of the first sweep.
    assert!(stats.plans_prepared >= 7 && stats.plans_prepared <= 28);

    handle.shutdown();
}

#[test]
fn warm_requests_skip_parse_and_transform() {
    let (service, handle) = lubm_service();
    let q = &lubm::queries()[0].sparql;

    let cold = service.query(q, QueryOptions::default()).unwrap();
    assert!(!cold.cache_hit);
    assert_eq!(service.stats().plans_prepared, 1);

    // Ten warm runs: the prepare counter must not move.
    for _ in 0..10 {
        let warm = service.query(q, QueryOptions::default()).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.results.to_sparql_json(), cold.results.to_sparql_json());
    }
    let stats = service.stats();
    assert_eq!(stats.plans_prepared, 1);
    assert_eq!(stats.cache_hits, 10);

    handle.shutdown();
}

#[test]
fn http_engine_parameter_and_stats_endpoint() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;

    // The same query through two engines gives the same bindings.
    let (s1, h1, b1) = get_query(addr, q, "turbohom++");
    let (s2, h2, b2) = get_query(addr, q, "MERGE-JOIN");
    assert_eq!(s1, "HTTP/1.1 200 OK");
    assert_eq!(s2, "HTTP/1.1 200 OK");
    assert!(h1.contains("X-Engine: turbohom++"), "{h1}");
    assert!(h2.contains("X-Engine: mergejoin"), "{h2}");
    assert!(h1.contains("X-Cache: MISS"));
    assert_eq!(b1, b2);

    // Repeat → cache hit surfaces in the header and in /stats.
    let (_, h3, _) = get_query(addr, q, "turbohom++");
    assert!(h3.contains("X-Cache: HIT"), "{h3}");

    let (status, _, stats_body) = http_request(
        addr,
        "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(stats_body.contains("\"hits\":1"), "{stats_body}");
    assert!(stats_body.contains("\"mergejoin\""));

    let (status, _, health) = http_request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(health.contains("\"status\":\"ok\""));

    // HEAD gets the same headers (including Content-Length) but no body.
    let (status, headers, body) = http_request(
        addr,
        "HEAD /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Content-Length"), "{headers}");
    assert!(body.is_empty(), "HEAD must not carry content: {body:?}");

    handle.shutdown();
}

#[test]
fn post_bodies_and_error_statuses() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();

    // POST with a urlencoded form body.
    let form = format!("query={}", urlencode("SELECT ?s WHERE { ?s ?p ?o . }"));
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{form}",
        form.len(),
    );
    let (status, _, body) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

    // POST with a raw SPARQL body.
    let sparql = "SELECT ?s WHERE { ?s ?p ?o . }";
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{sparql}",
        sparql.len(),
    );
    let (status, _, _) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 200 OK");

    // Malformed SPARQL → 400 with a JSON error.
    let (status, _, body) = get_query(addr, "SELECT WHERE {", "turbohom++");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"error\""));

    // ORDER BY → 400 naming it (refused, not ignored), counted and journaled
    // like any other failed query.
    let errors = || service.stats().engines[0].errors;
    let before = errors();
    let ordered = format!("{} ORDER BY ?X", lubm::queries()[5].sparql);
    let (status, _, body) = get_query(addr, &ordered, "turbohom++");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("ORDER BY"), "{body}");
    assert_eq!(errors(), before + 1);
    let (_, _, events) = http_request(
        addr,
        "GET /debug/events HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    let failed = events.lines().rfind(|l| l.contains("query_failed"));
    assert!(failed.is_some_and(|l| l.contains("ORDER BY")), "{events}");

    // LIMIT n OFFSET m → the n rows after the first m.
    let q6 = &lubm::queries()[5].sparql;
    let all = service.query(q6, QueryOptions::default()).unwrap().results;
    let window = format!("{q6} LIMIT 2 OFFSET 1");
    let (status, _, body) = get_query(addr, &window, "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(body.matches("\"type\":\"uri\"").count(), 2, "{body}");
    let rows = all.decode().rows;
    for row in &rows[1..3] {
        let iri = row[0].as_ref().unwrap().as_iri().unwrap();
        assert!(body.contains(iri), "{iri} missing from {body}");
    }

    // Unknown engine → 400, a misspelt one too (`turbohom--` is not
    // `turbohom`: nothing is stripped from the name).
    for engine in ["sparqlotron", "turbohom--"] {
        let (status, _, body) = get_query(addr, "SELECT ?s WHERE { ?s ?p ?o . }", engine);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{engine}");
        assert!(body.contains(engine), "{body}");
    }

    // Unknown path → 404; bad method → 405.
    let (status, _, _) = http_request(
        addr,
        "GET /nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _, _) = http_request(
        addr,
        "DELETE /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

    // Missing query parameter → 400.
    let (status, _, body) = http_request(
        addr,
        "GET /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("missing `query`"));

    handle.shutdown();
}

#[test]
fn distinct_is_refused_and_reduced_is_answered() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();
    let q6 = &lubm::queries()[5].sparql;
    assert!(q6.contains("SELECT ?X"), "{q6}");

    // DISTINCT → 400 naming it: nothing removes duplicates, so the query is
    // refused, counted and journaled rather than answered with them.
    let errors = || service.stats().engines[0].errors;
    let before = errors();
    let distinct = q6.replace("SELECT ?X", "SELECT DISTINCT ?X");
    let (status, _, body) = get_query(addr, &distinct, "turbohom++");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(
        body.starts_with("{\"error\":\"") && body.contains("DISTINCT"),
        "{body}"
    );
    assert_eq!(errors(), before + 1);
    let events = service.journal().to_jsonl();
    let failed = events.lines().rfind(|l| l.contains("query_failed"));
    assert!(failed.is_some_and(|l| l.contains("DISTINCT")), "{events}");
    // EXPLAIN refuses alike: it plans through the same entry point.
    let request = format!(
        "GET /query?explain=1&query={} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(&distinct)
    );
    let (status, _, body) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("DISTINCT"), "{body}");

    // REDUCED permits duplicates, so it is answered — with the plain answer.
    let reduced = q6.replace("SELECT ?X", "SELECT REDUCED ?X");
    let (status, _, plain) = get_query(addr, q6, "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (status, _, body) = get_query(addr, &reduced, "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(body, plain);

    handle.shutdown();
}

#[test]
fn a_regex_outside_the_dialect_is_a_400() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();
    let errors = || service.stats().engines[0].errors;
    let before = errors();
    // An alternation would match nothing if taken as literal text; it is
    // refused at parse time instead, before anything runs.
    let query = format!(
        "PREFIX ub: <{}> SELECT ?X ?N WHERE {{ ?X ub:name ?N . FILTER regex(?N, \"Course1|Course2\") }}",
        lubm::UB
    );
    let (status, _, body) = get_query(addr, &query, "turbohom++");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(
        body.starts_with("{\"error\":\"") && body.contains("REGEX pattern uses `|`"),
        "{body}"
    );
    assert_eq!(errors(), before + 1);
    // The same pattern with the bar escaped is answered.
    let (status, _, body) = get_query(addr, &query.replace('|', "\\\\|"), "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    handle.shutdown();
}

/// Extracts the first JSON number following `"key":` in `json`.
fn json_number(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle).map(|i| i + needle.len()).unwrap();
    let rest = &json[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

#[test]
fn profile_mode_returns_stage_timings_that_cover_the_request() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();
    // Q2: a triangle query, real matching work. Q6: a type scan, where the
    // time goes into the result path instead.
    for q in [&lubm::queries()[1].sparql, &lubm::queries()[5].sparql] {
        profile_covers_the_request(addr, q);
    }

    let q = &lubm::queries()[1].sparql;
    // Without profile=…, no profile block (and the response still carries a
    // trace id — coarse tracing is always on).
    let (status, headers, body) = get_query(addr, q, "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("X-Trace-Id: "));
    assert!(!body.contains("\"profile\""));

    // A non-boolean profile value → 400.
    let request = format!(
        "GET /query?query={}&profile=maybe HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q),
    );
    let (status, _, _) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    handle.shutdown();
}

/// Two `profile=1` requests for `q`, a cold one and a warm one. The profile
/// block is there and names every stage from the fingerprint to the socket
/// write (parse and transform only when cold). Its `stages` are the root
/// spans summed by name; the stages that run inside the process follow one
/// another, and together they take no longer than the request.
fn profile_covers_the_request(addr: std::net::SocketAddr, q: &str) {
    let request = format!(
        "GET /query?query={}&profile=1&threads=2 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q),
    );
    for cold in [true, false] {
        let (status, headers, body) = http_request(addr, &request);
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");

        // The SPARQL-JSON body gained a top-level profile block with the
        // span tree and per-stage timings, before its closing brace.
        assert!(body.contains("\"head\"") && body.contains("\"results\""));
        assert!(body.ends_with("}}"), "{body}");
        let profile_at = body.find(",\"profile\":{").expect("profile block present");
        let profile = &body[profile_at..];
        let spans = spans(profile);
        // Detailed spans from the matching core, parented under execute.
        for detail in ["candidate_regions", "matching_order", "enumeration"] {
            assert!(spans.iter().any(|s| s.name == detail), "missing {detail}");
        }

        let stages_start = profile.find("\"stages\":{").unwrap() + "\"stages\":{".len();
        let stages_end = stages_start + profile[stages_start..].find('}').unwrap();
        let stages: Vec<(&str, f64)> = profile[stages_start..stages_end]
            .split(',')
            .map(|pair| {
                let (name, us) = pair.split_once(':').unwrap();
                (name.trim_matches('"'), us.parse().unwrap())
            })
            .collect();
        let in_process: &[&str] = if cold {
            &[
                "fingerprint",
                "cache_lookup",
                "parse",
                "transform",
                "execute",
                "materialise",
            ]
        } else {
            &["fingerprint", "cache_lookup", "execute", "materialise"]
        };
        for stage in in_process.iter().chain(&["serialise", "write"]) {
            assert!(
                stages.iter().any(|(name, _)| name == stage),
                "missing {stage}"
            );
        }
        assert_eq!(
            stages.iter().any(|(name, _)| *name == "parse"),
            cold,
            "a plan-cache hit neither parses nor transforms"
        );

        // Each stage is the sum of its root spans, up to the rounding of
        // every number to the nanosecond.
        let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
        for &(stage, us) in &stages {
            let of_stage: Vec<f64> = roots
                .iter()
                .filter(|s| s.name == stage)
                .map(|s| s.dur_us)
                .collect();
            let sum: f64 = of_stage.iter().sum();
            let rounding = 0.001 * (of_stage.len() + 1) as f64;
            assert!(
                (us - sum).abs() <= rounding,
                "{stage}: {us} µs vs its spans' {sum} µs"
            );
        }

        // The in-process stages start one after another, in pipeline order.
        let starts: Vec<f64> = in_process
            .iter()
            .map(|&stage| roots.iter().find(|s| s.name == stage).unwrap().start_us)
            .collect();
        assert!(
            starts.windows(2).all(|pair| pair[0] <= pair[1]),
            "{in_process:?} start at {starts:?} µs"
        );

        // The stages add up to no more than the request.
        let total_us = json_number(profile, "total_us");
        let stage_sum: f64 = stages.iter().map(|(_, us)| us).sum();
        assert!(
            stage_sum <= 1.01 * total_us,
            "stage sum {stage_sum}µs vs total {total_us}µs"
        );

        // The trace id in the header matches the one in the body.
        let header_id = headers
            .lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .unwrap();
        assert!(profile.contains(&format!("\"trace_id\":\"{header_id}\"")));
    }
}

/// One span of a `profile=1` body.
struct Span<'a> {
    id: u64,
    parent: Option<u64>,
    name: &'a str,
    start_us: f64,
    dur_us: f64,
}

/// The span list of a `profile=1` body, in id order.
fn spans(body: &str) -> Vec<Span<'_>> {
    let spans_at = body.find("\"spans\":[").expect("span list present");
    // One piece per span: `{"id":N,"parent":P,"name":"…","start_us":S,"dur_us":D,…}`.
    body[spans_at..]
        .split("{\"id\":")
        .skip(1)
        .map(|span| {
            let parent = span.split_once("\"parent\":").unwrap().1;
            let name = span.split_once("\"name\":\"").unwrap().1;
            Span {
                id: span[..span.find(',').unwrap()].parse().unwrap(),
                parent: parent[..parent.find(',').unwrap()].parse().ok(),
                name: &name[..name.find('"').unwrap()],
                start_us: json_number(span, "start_us"),
                dur_us: json_number(span, "dur_us"),
            }
        })
        .collect()
}

/// The matcher's stages are the children of `execute`, in the order they are
/// written. Each is the laps of one stopwatch credited to it, which ran
/// inside `execute` and never two at once: every child lies within
/// `execute`, and together they take no longer than it (the rollups are
/// back-dated from when they are written, so they are not laid end to end).
#[test]
fn the_children_of_execute_account_for_it() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();
    // Q1: an anchored lookup, four candidate regions — whatever the matcher
    // does once per request shows here. Q9: a triangle over three classes.
    for q in [&lubm::queries()[0].sparql, &lubm::queries()[8].sparql] {
        let request = format!(
            "GET /query?query={}&profile=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            urlencode(q),
        );
        let (status, _, body) = http_request(addr, &request);
        assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
        let spans = spans(&body);
        let [execute] = &spans
            .iter()
            .filter(|s| s.name == "execute")
            .collect::<Vec<_>>()[..]
        else {
            panic!("one execute span: {body}");
        };
        let children: Vec<&Span> = (spans.iter())
            .filter(|s| s.parent == Some(execute.id))
            .collect();
        let names: Vec<&str> = children.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "start_vertex",
                "candidate_regions",
                "matching_order",
                "enumeration"
            ]
        );
        // Every number is rounded to the nanosecond.
        let rounding = 0.002;
        let end = execute.start_us + execute.dur_us;
        for child in &children {
            assert!(
                child.start_us + rounding >= execute.start_us
                    && child.start_us + child.dur_us <= end + rounding,
                "{} at {} µs for {} µs, outside execute at {} µs for {} µs",
                child.name,
                child.start_us,
                child.dur_us,
                execute.start_us,
                execute.dur_us
            );
        }
        let sum: f64 = children.iter().map(|s| s.dur_us).sum();
        assert!(
            sum <= execute.dur_us + rounding * children.len() as f64,
            "the children of execute take {sum} µs of its {} µs",
            execute.dur_us
        );
    }
    handle.shutdown();
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;
    get_query(addr, q, "turbohom++");
    get_query(addr, q, "turbohom++");

    let (status, headers, body) = http_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE turbohom_queries_total counter"));
    assert!(body.contains("turbohom_queries_total{engine=\"turbohom++\",store=\"single\"} 2"));
    assert!(body.contains("# TYPE turbohom_query_latency_seconds histogram"));
    assert!(body.contains("le=\"+Inf\""));
    assert!(body.contains("turbohom_plan_cache_hits_total 1"));
    assert!(body.contains("turbohom_stage_seconds_total{stage=\"execute\"}"));
    assert!(body.contains("turbohom_triples "));

    handle.shutdown();
}

#[test]
fn debug_slow_is_a_view_of_the_journal_and_metrics_serve_every_matcher_counter() {
    // Threshold zero: every query is kept.
    let (_service, handle) = lubm_service_with(ServiceConfig {
        slow_query: Some(Duration::ZERO),
        ..ServiceConfig::default()
    });
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;
    let (_, headers, _) = get_query(addr, q, "turbohom++");
    let trace_id = headers
        .lines()
        .find_map(|l| l.strip_prefix("X-Trace-Id: "))
        .unwrap()
        .to_string();
    let get = |path: &str| {
        let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        let (status, _, body) = http_request(addr, &request);
        assert_eq!(status, "HTTP/1.1 200 OK", "{path}");
        body
    };

    // The offender's one record: its `query_completed` line in
    // `/debug/events`, stage breakdown and text included …
    let events = get("/debug/events");
    let completed: Vec<&str> = (events.lines())
        .filter(|l| l.contains(&format!("\"trace\":\"{trace_id}\"")))
        .filter(|l| l.contains("\"event\":\"query_completed\""))
        .collect();
    assert_eq!(completed.len(), 1, "{events}");
    let line = completed[0];
    assert!(line.contains("\"engine\":\"turbohom++\",\"mode\":\"query\""));
    assert!(line.contains("\"slow\":true,\"stages_ms\":{"));
    assert!(line.contains("\"execute\":") && line.contains("\"write\":"));
    assert!(line.contains("\"query\":\"SELECT"));
    // … and `/debug/slow` shows that line, byte for byte, in its envelope.
    let slow = get("/debug/slow");
    let envelope = "{\"threshold_ms\":0.000,\"capacity\":32,\"recorded\":1,\"entries\":[";
    assert_eq!(slow, format!("{envelope}{line}]}}"));

    // `/metrics` has one family per matcher counter; the one the hand-copied
    // lists had lost is among them.
    let metrics = get("/metrics");
    assert!(metrics
        .contains("turbohom_signature_pruned_total{engine=\"turbohom++\",store=\"single\"} "));
    assert!(
        metrics.contains("turbohom_nlf_filtered_total{engine=\"turbohom++\",store=\"single\"} ")
    );
    assert!(metrics.contains("turbohom_slow_queries_total 1\n"));

    handle.shutdown();
}

#[test]
fn healthz_reports_identity_and_head_works_everywhere() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();

    let (status, _, health) = http_request(
        addr,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(health.contains("\"status\":\"ok\""));
    assert!(health.contains("\"uptime_secs\":"));
    assert!(health.contains("\"engine\":\"turbohom++\""));
    assert!(health.contains("\"dataset\":\"lubm-1\""));
    assert!(health.contains("\"backend\":\"heap\""));
    assert!(health.contains("\"snapshot\":null"));
    assert!(json_number(&health, "uptime_secs") >= 0.0);

    // HEAD returns headers + Content-Length and no body, on every GET
    // endpoint (the satellite hardening check: `/` and `/stats` included).
    let content_length = |headers: &str| -> usize {
        headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap()
    };
    for path in [
        "/",
        "/healthz",
        "/stats",
        "/metrics",
        "/debug/slow",
        "/debug/events",
    ] {
        let (status, headers, body) = http_request(
            addr,
            &format!("HEAD {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        );
        assert_eq!(status, "HTTP/1.1 200 OK", "{path}");
        assert!(
            content_length(&headers) > 0,
            "{path} must advertise its body length"
        );
        assert!(body.is_empty(), "HEAD {path} must not carry content");
        // A GET's advertised length matches its own body. (Not compared to
        // the HEAD's length: bodies embedding the uptime legitimately change
        // width between two requests.)
        let (_, get_headers, get_body) = http_request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        );
        assert_eq!(get_body.len(), content_length(&get_headers), "{path}");
    }

    // The root endpoint lists the new surfaces.
    let (_, _, root) = http_request(
        addr,
        "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(root.contains("/metrics") && root.contains("/debug/slow"));
    assert!(root.contains("/debug/events"));

    handle.shutdown();
}

#[test]
fn explain_over_http_returns_the_plan_tree_without_executing() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;

    let request = format!(
        "GET /query?query={}&engine={}&explain=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q),
        urlencode("turbohom++"),
    );
    let (status, headers, body) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(headers.contains("X-Trace-Id: "));
    assert!(headers.contains("X-Engine: turbohom++"));
    assert!(body.contains("\"schema\":\"turbohom-explain/1\""));
    assert!(body.contains("\"mode\":\"explain\""));
    assert!(body.contains("\"store\":\"single\""));
    assert!(body.contains("\"steps\":[{\"position\":0"));
    assert!(body.contains("\"estimate\":"));
    // Nothing executed: no SPARQL bindings, no execution counters moved.
    assert!(!body.contains("\"bindings\""));
    let stats = service.stats();
    assert_eq!(
        stats.engines[EngineKind::TurboHomPlusPlus.index()].queries,
        0
    );
    assert_eq!(stats.plans_prepared, 0);
    assert_eq!(stats.cache_size, 0);

    // explain and analyze together are rejected.
    let request = format!(
        "GET /query?query={}&explain=1&analyze=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q),
    );
    let (status, _, _) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    handle.shutdown();
}

#[test]
fn analyze_over_http_splices_actuals_and_feeds_qerror_metrics() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[1].sparql; // Q2: multi-step plan with real joins

    let request = format!(
        "GET /query?query={}&engine={}&analyze=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q),
        urlencode("turbohom++"),
    );
    let (status, _, body) = http_request(addr, &request);
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    // The SPARQL-JSON body carries the bindings plus the annotated tree.
    assert!(body.contains("\"bindings\""));
    assert!(body.contains(",\"explain\":{"));
    assert!(body.contains("\"mode\":\"analyze\""));
    assert!(body.contains("\"actual\""));
    // The actuals match what the embedded API returns for the same query.
    let want = service
        .store()
        .store()
        .execute(q, EngineKind::TurboHomPlusPlus)
        .unwrap()
        .len();
    assert!(
        body.contains(&format!("\"actual\":{{\"solutions\":{want}")),
        "{body}"
    );

    // One analyze query is enough to populate the q-error histogram.
    let (_, _, metrics) = http_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(metrics.contains("# TYPE turbohom_estimate_qerror histogram"));
    assert!(metrics.contains("turbohom_estimate_qerror_count"));
    assert!(!metrics.contains("turbohom_estimate_qerror_count 0\n"));

    handle.shutdown();
}

#[test]
fn debug_events_serves_the_journal_as_jsonl_with_trace_ids() {
    let (_service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;
    let (_, headers, _) = get_query(addr, q, "turbohom++");
    let trace_id = headers
        .lines()
        .find_map(|l| l.strip_prefix("X-Trace-Id: "))
        .unwrap()
        .to_string();

    let (status, headers, body) = http_request(
        addr,
        "GET /debug/events HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Content-Type: application/x-ndjson"));
    // One JSON object per line, each carrying a monotone sequence number.
    assert!(body.ends_with('\n'));
    for line in body.lines() {
        assert!(
            line.starts_with("{\"seq\":") && line.ends_with('}'),
            "{line}"
        );
    }
    // The lifecycle is there, correlated by the request's trace id.
    assert!(body.contains("\"event\":\"store_loaded\""));
    assert!(body.contains("\"event\":\"query_admitted\""));
    assert!(body.contains("\"event\":\"plan_cached\""));
    assert!(body.contains("\"event\":\"query_completed\""));
    let correlated = body
        .lines()
        .filter(|l| l.contains(&format!("\"trace\":\"{trace_id}\"")))
        .count();
    assert!(
        correlated >= 3,
        "{correlated} events for {trace_id}:\n{body}"
    );

    handle.shutdown();
}

#[test]
fn a_client_that_hangs_up_mid_body_ends_the_serialisation_and_is_journaled() {
    // A Q6-shaped type scan whose body (several MB) cannot fit the socket
    // buffers, so the server is still writing when the client goes away.
    let (service, handle) = student_scan_service();
    let addr = handle.addr();
    let q6 = &lubm::queries()[5].sparql;

    let mut stream = TcpStream::connect(addr).unwrap();
    let request = format!(
        "GET /query?query={} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        urlencode(q6)
    );
    stream.write_all(request.as_bytes()).unwrap();
    let mut first_kilobyte = [0u8; 1024];
    stream.read_exact(&mut first_kilobyte).unwrap();
    assert!(first_kilobyte.starts_with(b"HTTP/1.1 200 OK\r\n"));
    // Unread data is pending, so this close resets the connection.
    drop(stream);

    // The request ends as a failure: one `query_failed` event with its trace
    // id, no `query_completed`, and the error counter moved.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let journal = loop {
        let journal = service.journal().to_jsonl();
        if journal.contains("\"event\":\"query_failed\"") {
            break journal;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no query_failed event:\n{journal}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let failed: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"event\":\"query_failed\""))
        .collect();
    assert_eq!(failed.len(), 1, "{journal}");
    assert!(failed[0].contains("response not delivered"), "{journal}");
    assert!(failed[0].contains("\"trace\":\"00"), "{journal}");
    assert!(
        !journal.contains("\"event\":\"query_completed\""),
        "{journal}"
    );
    let stats = service.stats();
    let engine = &stats.engines[EngineKind::TurboHomPlusPlus.index()];
    assert_eq!((engine.queries, engine.errors), (0, 1));

    // The server carries on: the next client gets the whole answer.
    let (status, headers, body) = get_query(addr, q6, "turbohom++");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Transfer-Encoding: chunked"), "{headers}");
    assert!(body.len() > 4_000_000 && body.ends_with("]}}"));
    assert_eq!(body.matches("\"type\":\"uri\"").count(), 40_000);

    handle.shutdown();
}

#[test]
fn requests_on_one_connection_get_the_bytes_they_get_on_one_each() {
    let ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
    let scan = &lubm::queries()[5].sparql;
    let lookup = format!("SELECT ?x WHERE {{ ?x <{ub}memberOf> <http://www.Department3.edu> . }}");
    let post = |content_type: &str, body: &str| {
        format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let get = |target: &str| format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n");
    let templates = [
        get(&format!("/query?query={}", urlencode(&lookup))),
        post("application/sparql-query", &lookup),
        post(
            "application/x-www-form-urlencoded",
            &format!("engine=mergejoin&query={}", urlencode(&lookup)),
        ),
        format!(
            "HEAD /query?query={} HTTP/1.1\r\nHost: x\r\n\r\n",
            urlencode(scan)
        ),
        // A body of several MB in chunks, and a lookup right behind it.
        post("application/sparql-query", scan),
        post("application/sparql-query", &lookup),
        get(&format!(
            "/query?query={}&engine=sparqlotron",
            urlencode(&lookup)
        )),
        post("application/sparql-query", "SELECT WHERE {"),
        get("/"),
        get("/nope"),
    ];
    let requests: Vec<&String> = templates.iter().cycle().take(50).collect();

    // Two fresh services, so that both passes see the same plan-cache
    // states and hand out the same trace ids.
    let (kept_service, kept_handle) = student_scan_service();
    let mut connection = Connection::open(kept_handle.addr());
    let kept: Vec<Vec<u8>> = requests.iter().map(|r| connection.exchange(r)).collect();
    assert!(connection.finish().is_empty());

    let (each_service, each_handle) = student_scan_service();
    let each: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| Connection::open(each_handle.addr()).exchange(r))
        .collect();

    for ((request, kept), each) in requests.iter().zip(&kept).zip(&each) {
        let line = request.lines().next().unwrap();
        assert!(kept == each, "{line}: the responses differ");
        assert!(!kept.windows(11).any(|w| w == b"Connection:"), "{line}");
    }
    let status = |response: &[u8]| String::from_utf8_lossy(&response[..12]).into_owned();
    assert_eq!(status(&kept[4]), "HTTP/1.1 200");
    assert!(kept[4].len() > 4_000_000 && kept[4].ends_with(b"]}}\r\n0\r\n\r\n"));
    assert!(kept[3].ends_with(b"\r\n\r\n") && kept[3].len() < 400);
    assert_eq!(status(&kept[6]), "HTTP/1.1 400");
    assert_eq!(status(&kept[9]), "HTTP/1.1 404");

    // What told them apart is in the counters: one connection against fifty.
    let counted = |service: &QueryService| {
        let stats = service.stats();
        (stats.connections, stats.requests)
    };
    assert_eq!(counted(&kept_service), (1, 50));
    assert_eq!(counted(&each_service), (50, 50));
    let (_, _, stats) = http_request(
        kept_handle.addr(),
        "GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    assert!(
        stats.contains("\"connections\":2,\"requests\":51,"),
        "{stats}"
    );
    let (_, _, metrics) = http_request(
        kept_handle.addr(),
        "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    );
    for series in [
        "# TYPE turbohom_http_connections_total counter\nturbohom_http_connections_total 3\n",
        "# TYPE turbohom_http_requests_total counter\nturbohom_http_requests_total 52\n",
        "# TYPE turbohom_http_connections_rejected_total counter\nturbohom_http_connections_rejected_total 0\n",
    ] {
        assert!(metrics.contains(series), "{series} missing from:\n{metrics}");
    }
    // This connection is open; the threads of the two before it may be just
    // about to give their slots back.
    let open = metrics
        .split("# TYPE turbohom_http_connections_open gauge\nturbohom_http_connections_open ")
        .nth(1)
        .and_then(|rest| rest.lines().next()?.parse::<u64>().ok());
    assert!(matches!(open, Some(1..=3)), "{metrics}");

    kept_handle.shutdown();
    each_handle.shutdown();
}

#[test]
fn a_close_is_asked_for_announced_and_carried_out() {
    let (service, handle) = lubm_service();
    let addr = handle.addr();
    let q = &lubm::queries()[0].sparql;
    let target = format!("/query?query={}", urlencode(q));

    // `http_request` reads to the end of the stream, so each of these
    // returns only because the server closed the connection.
    let (status, headers, _) = http_request(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Connection: close"), "{headers}");
    assert!(headers.contains("Transfer-Encoding: chunked"), "{headers}");
    let (status, headers, body) = http_request(addr, &format!("GET {target} HTTP/1.0\r\n\r\n"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Connection: close"), "{headers}");
    assert!(!headers.contains("Transfer-Encoding"), "{headers}");
    assert!(
        body.starts_with("{\"head\":") && body.ends_with("]}}"),
        "{body}"
    );
    let (status, headers, _) = http_request(addr, "GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("Connection: close"), "{headers}");

    // A connection left open says nothing about closing; when the client
    // is done with it — before any request, or after one — the server
    // closes its side without another byte and without an event.
    assert!(Connection::open(addr).finish().is_empty());
    let mut connection = Connection::open(addr);
    let response = connection.exchange(&format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n"));
    let response = String::from_utf8(response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(!response.contains("Connection:"), "{response}");
    assert!(connection.finish().is_empty());
    let journal = service.journal().to_jsonl();
    assert!(!journal.contains("query_failed"), "{journal}");
    assert_eq!(journal.matches("\"event\":\"query_completed\"").count(), 3);

    handle.shutdown();
}
