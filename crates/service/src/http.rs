//! A minimal HTTP/1.1 front-end for the [`QueryService`] — `std::net` only,
//! no external dependencies (the build environment is offline).
//!
//! Endpoints (mirroring the SPARQL-protocol shape oxigraph's server exposes):
//!
//! * `GET /query?query=…&engine=…&threads=…&profile=…&explain=…&analyze=…`
//!   — execute a query; returns `application/sparql-results+json` plus
//!   `X-Cache: HIT|MISS`, `X-Engine`, `X-Fingerprint` and `X-Trace-Id`
//!   headers. The results are streamed: ids are decoded and escaped into a
//!   buffer of at most about 64 KB that goes out as one
//!   `Transfer-Encoding: chunked` piece at a time (an HTTP/1.0 client gets
//!   the same bytes unframed, ended by the close), so a response is never
//!   held as rendered text, and a client that hangs up ends the
//!   serialisation at the next piece. With `profile=1` the JSON gains a
//!   top-level `"profile"` object, written before the closing brace: the
//!   request's span tree and per-stage timings. With
//!   `explain=1` the query is **not executed**: the response is the
//!   structured plan tree (`turbohom-explain/1` JSON). With `analyze=1`
//!   the query executes outside the plan cache and the SPARQL-JSON gains a
//!   top-level `"explain"` object: the plan tree annotated with actuals
//!   (per-step rows and q-errors, per-shard rows, matcher counters).
//! * `POST /query` — same; the query comes either as an
//!   `application/x-www-form-urlencoded` body (`query=…`) or raw as
//!   `application/sparql-query`.
//! * `GET /healthz` — liveness probe (`200` once the store is loaded) with
//!   uptime and engine/dataset identity.
//! * `GET /stats` — the [`StatsSnapshot`](crate::StatsSnapshot) as JSON.
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4).
//! * `GET /debug/slow` — the slow-query recorder ring as JSON.
//! * `GET /debug/events` — the structured event journal as JSONL (one JSON
//!   object per line, oldest first, each carrying a trace id where one
//!   exists).
//!
//! Every endpoint also answers `HEAD` with the same headers (including
//! `Content-Length`, or `Transfer-Encoding` for query results) and no body. The optional access log writes one stderr
//! line per request: method, path, status, duration and trace id.
//!
//! Concurrency model: blocking accept loop, one thread per connection,
//! connections closed after each response. That is deliberately boring —
//! the interesting shared state (store, plan cache, metrics) is all inside
//! `QueryService`, which is what the concurrency tests hammer.

use crate::service::{InFlight, QueryOptions, QueryService};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use turbohom_engine::{escape_json_into, format_trace_id, EngineKind, ExtraMembers};

/// Maximum accepted size of a request head or body (1 MiB, like oxigraph's
/// `MAX_SPARQL_BODY_SIZE`).
const MAX_REQUEST_SIZE: usize = 1 << 20;

/// The HTTP server: a bound listener plus the shared service.
pub struct HttpServer {
    listener: TcpListener,
    service: Arc<QueryService>,
    access_log: bool,
}

/// Handle to a server running in background threads (used by tests and by
/// graceful shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:7878"`; port `0` picks a free one).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<QueryService>) -> io::Result<HttpServer> {
        Ok(HttpServer {
            listener: TcpListener::bind(addr)?,
            service,
            access_log: false,
        })
    }

    /// Enables the per-request access log (one stderr line per request:
    /// method, path, status, duration, trace id).
    pub fn with_access_log(mut self, enabled: bool) -> Self {
        self.access_log = enabled;
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever on the current thread (the `turbohom-server` binary).
    pub fn run(self) -> io::Result<()> {
        let access_log = self.access_log;
        for stream in self.listener.incoming() {
            // A failed accept (EMFILE under load, ECONNABORTED on a reset
            // connection) sheds that one connection, not the server.
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&self.service);
            std::thread::spawn(move || handle_connection(stream, &service, access_log));
        }
        Ok(())
    }

    /// Serves on a background accept thread and returns a stoppable handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let access_log = self.access_log;
        let accept_thread = std::thread::spawn(move || {
            for stream in self.listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&self.service);
                std::thread::spawn(move || handle_connection(stream, &service, access_log));
            }
        });
        Ok(ServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread. In-flight
    /// request threads finish on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// One parsed request.
struct Request {
    method: String,
    /// An HTTP/1.0 client: it cannot read a chunked body.
    http10: bool,
    path: String,
    query_string: String,
    content_type: String,
    body: Vec<u8>,
}

/// One routed response plus the metadata the access log needs.
struct Routed {
    bytes: Vec<u8>,
    status: u16,
    /// Set only by `/query` (the one endpoint that runs under a trace).
    trace_id: Option<u64>,
}

impl Routed {
    fn new(status: u16, bytes: Vec<u8>) -> Routed {
        Routed {
            bytes,
            status,
            trace_id: None,
        }
    }
}

/// What an endpoint answers with.
enum Reply<'s> {
    /// A finished response.
    Buffered(Routed),
    /// An executed query whose results are streamed to the client.
    Results(Box<InFlight<'s>>),
}

fn handle_connection(stream: TcpStream, service: &QueryService, access_log: bool) {
    let started = Instant::now();
    // A stalled or malicious client must not pin this thread (slowloris) …
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(30)));
    // Results go out in pieces of tens of kilobytes followed by a few bytes
    // of chunk framing, which must not wait for an acknowledgement.
    let _ = stream.set_nodelay(true);
    let reading = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // … and an endless request line must not buffer unboundedly: `take`
    // bounds the total bytes one request may occupy before parsing rejects
    // it via the head/body size checks.
    let mut reader = BufReader::new(reading.take(2 * MAX_REQUEST_SIZE as u64));
    let mut stream = stream;
    let (reply, head_only, http10, method, path) = match read_request(&mut reader) {
        Ok(request) => (
            respond(&request, service),
            request.method == "HEAD",
            request.http10,
            request.method,
            request.path,
        ),
        Err(e) => (
            Reply::Buffered(Routed::new(
                400,
                error_response(400, &format!("bad request: {e}")),
            )),
            false,
            false,
            "-".to_string(),
            "-".to_string(),
        ),
    };
    let (status, trace_id) = match reply {
        Reply::Buffered(mut response) => {
            if head_only {
                // RFC 9110: a HEAD response carries the headers (including
                // Content-Length) but no content.
                truncate_to_head(&mut response.bytes);
            }
            // The response is complete either way: if the client is gone
            // there is nothing left to stop.
            let _ = stream
                .write_all(&response.bytes)
                .and_then(|()| stream.flush());
            (response.status, response.trace_id)
        }
        Reply::Results(request) => {
            let trace_id = request.trace_id;
            let framing = if http10 {
                Framing::UntilClose
            } else {
                Framing::Chunked
            };
            match stream_results(&mut stream, &request, framing, head_only) {
                Ok(()) => drop(service.complete(*request)),
                Err(e) => service.abandon(*request, &e),
            }
            (200, Some(trace_id))
        }
    };
    if access_log {
        eprintln!(
            "access method={method} path={path} status={status} dur_ms={:.3} trace={}",
            started.elapsed().as_secs_f64() * 1000.0,
            trace_id.map_or_else(|| "-".into(), format_trace_id),
        );
    }
}

/// How a response tells the client where its body ends.
#[derive(Clone, Copy, PartialEq)]
enum Framing {
    /// `Content-Length`: a body that is already rendered.
    Length(usize),
    /// `Transfer-Encoding: chunked`, one chunk per piece the results
    /// serialiser hands over.
    Chunked,
    /// Neither: the close of the connection ends the body (streaming to an
    /// HTTP/1.0 client).
    UntilClose,
}

/// Pieces below this size are copied behind the bytes already waiting and
/// sent with them; larger ones go out in place.
const COALESCE_BELOW: usize = 16 * 1024;

/// The socket as the results serialiser sees it: every piece written becomes
/// one HTTP chunk, and the time spent in socket writes is added to `writing`.
///
/// A short response — head, one small chunk, the terminal chunk — leaves in
/// a single write; a large piece is never copied: it goes out in one
/// vectored write between its chunk framing.
struct BodyWriter<'a> {
    stream: &'a mut TcpStream,
    framing: Framing,
    writing: &'a Cell<Duration>,
    /// Bytes waiting for the next write: the head at first, then chunk
    /// framing and small pieces.
    pending: Vec<u8>,
}

impl BodyWriter<'_> {
    /// Sends what is pending, then `piece` and `after`, in one vectored
    /// write where the kernel takes them whole.
    fn send(&mut self, piece: &[u8], after: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let pending = std::mem::take(&mut self.pending);
        let mut parts = [&pending[..], piece, after];
        let sent = loop {
            if parts.iter().all(|part| part.is_empty()) {
                break Ok(());
            }
            let slices = parts.map(IoSlice::new);
            let mut written = match self.stream.write_vectored(&slices) {
                Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            for part in &mut parts {
                let taken = written.min(part.len());
                *part = &part[taken..];
                written -= taken;
            }
        };
        self.pending = pending;
        self.pending.clear();
        self.writing.set(self.writing.get() + started.elapsed());
        sent
    }

    /// Ends the body: the terminal chunk, where the body is chunked, and
    /// whatever is still pending.
    fn finish(mut self) -> io::Result<()> {
        if self.framing == Framing::Chunked {
            self.pending.extend_from_slice(b"0\r\n\r\n");
        }
        self.send(b"", b"")?;
        self.stream.flush()
    }
}

impl Write for BodyWriter<'_> {
    fn write(&mut self, piece: &[u8]) -> io::Result<usize> {
        let after: &[u8] = match self.framing {
            // An empty chunk would end the body.
            _ if piece.is_empty() => return Ok(0),
            Framing::Chunked => {
                write!(self.pending, "{:x}\r\n", piece.len())?;
                b"\r\n"
            }
            Framing::UntilClose | Framing::Length(_) => b"",
        };
        if piece.len() < COALESCE_BELOW {
            self.pending.extend_from_slice(piece);
            self.pending.extend_from_slice(after);
        } else {
            self.send(piece, after)?;
        }
        Ok(piece.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Streams an executed query's results to the client: the head, then —
/// unless the request was a `HEAD` — the SPARQL-JSON body piece by piece as
/// the serialiser fills its buffer. The `profile`/`explain` members are
/// written before the closing brace. Records the `serialise` and `write`
/// stages on the request's trace; the first failed socket write ends the
/// serialisation and is returned.
fn stream_results(
    stream: &mut TcpStream,
    request: &InFlight<'_>,
    framing: Framing,
    head_only: bool,
) -> io::Result<()> {
    let started = Instant::now();
    let writing = Cell::new(Duration::ZERO);
    let record_stages = || {
        let write = writing.get();
        let serialise = started.elapsed().saturating_sub(write);
        request
            .trace
            .record_rollup("serialise", None, serialise, &[]);
        request.trace.record_rollup("write", None, write, &[]);
    };
    let cache = if request.cache_hit { "HIT" } else { "MISS" };
    let head = response_head(
        200,
        "application/sparql-results+json",
        framing,
        &[
            ("X-Cache", cache.to_string()),
            ("X-Engine", request.engine.to_string()),
            (
                "X-Fingerprint",
                format!("{:016x}", request.fingerprint.hash),
            ),
            ("X-Trace-Id", format_trace_id(request.trace_id)),
        ],
    );
    let mut body = BodyWriter {
        stream,
        framing,
        writing: &writing,
        pending: head.into_bytes(),
    };
    if head_only {
        return body.send(b"", b"");
    }
    // The reports are top-level members next to the standard
    // "head"/"results" pair. The bindings have gone out when they are
    // written, so the profile covers serialising and writing them (not
    // itself).
    let reports = request.profile || request.explain.is_some();
    let mut members = |out: &mut Vec<u8>| {
        record_stages();
        if request.profile {
            out.extend_from_slice(b",\"profile\":");
            out.extend_from_slice(request.trace.finish().to_json().as_bytes());
        }
        if let Some(report) = &request.explain {
            out.extend_from_slice(b",\"explain\":");
            out.extend_from_slice(report.to_json().as_bytes());
        }
    };
    let members: Option<ExtraMembers<'_>> = if reports { Some(&mut members) } else { None };
    let delivered = request
        .results
        .write_sparql_json(&mut body, members)
        .and_then(|()| body.finish());
    if !reports {
        record_stages();
    }
    delivered
}

/// Cuts a serialized response after the blank line separating head and body.
fn truncate_to_head(response: &mut Vec<u8>) {
    if let Some(end) = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
    {
        response.truncate(end);
    }
}

/// Reads and parses one HTTP/1.1 request (head + Content-Length body).
fn read_request(reader: &mut BufReader<io::Take<TcpStream>>) -> Result<Request, String> {
    let mut request_line = String::new();
    reader
        .read_line(&mut request_line)
        .map_err(|e| e.to_string())?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("missing request target")?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version}"));
    }
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    let mut content_length = 0usize;
    let mut content_type = String::new();
    let mut head_size = request_line.len();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        head_size += line.len();
        if head_size > MAX_REQUEST_SIZE {
            return Err("request head too large".into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => {
                    content_length = value.parse().map_err(|_| "bad Content-Length")?;
                }
                "content-type" => {
                    content_type = value.to_ascii_lowercase();
                }
                _ => {}
            }
        }
    }
    if content_length > MAX_REQUEST_SIZE {
        return Err("request body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(Request {
        method,
        http10: version == "HTTP/1.0",
        path,
        query_string,
        content_type,
        body,
    })
}

/// Routes one request to its endpoint.
fn respond<'s>(request: &Request, service: &'s QueryService) -> Reply<'s> {
    if request.path == "/query" && matches!(request.method.as_str(), "GET" | "POST" | "HEAD") {
        return respond_query(request, service);
    }
    Reply::Buffered(match (request.method.as_str(), request.path.as_str()) {
        ("GET" | "HEAD", "/healthz") => {
            let shards = service
                .store()
                .shard_count()
                .map_or_else(|| "null".into(), |n| n.to_string());
            let partitioning = service
                .store()
                .partitioner_name()
                .map_or_else(|| "null".into(), |p| format!("\"{p}\""));
            let mut body = format!(
                "{{\"status\":\"ok\",\"triples\":{},\"uptime_secs\":{:.3},\"engine\":\"{}\",\"dataset\":\"",
                service.store().triple_count(),
                service.uptime().as_secs_f64(),
                service.config().default_engine.name(),
            )
            .into_bytes();
            escape_json_into(&mut body, service.dataset_label());
            body.extend_from_slice(
                format!(
                    "\",\"backend\":\"{}\",\"snapshot\":",
                    service.store().backend_name()
                )
                .as_bytes(),
            );
            match service.store().snapshot_path() {
                Some(path) => {
                    body.push(b'"');
                    escape_json_into(&mut body, &path.display().to_string());
                    body.push(b'"');
                }
                None => body.extend_from_slice(b"null"),
            }
            body.extend_from_slice(
                format!(",\"shards\":{shards},\"partitioning\":{partitioning}}}").as_bytes(),
            );
            Routed::new(200, build_response(200, "application/json", &body, &[]))
        }
        ("GET" | "HEAD", "/stats") => {
            Routed::new(200, json_response(200, &service.stats().to_json(), &[]))
        }
        ("GET" | "HEAD", "/metrics") => Routed::new(
            200,
            build_response(
                200,
                "text/plain; version=0.0.4",
                service.prometheus().as_bytes(),
                &[],
            ),
        ),
        ("GET" | "HEAD", "/debug/slow") => {
            Routed::new(200, json_response(200, &service.slow_log().to_json(), &[]))
        }
        ("GET" | "HEAD", "/debug/events") => Routed::new(
            200,
            build_response(
                200,
                "application/x-ndjson",
                service.journal().to_jsonl().as_bytes(),
                &[],
            ),
        ),
        ("GET" | "HEAD", "/") => Routed::new(
            200,
            json_response(
                200,
                "{\"service\":\"turbohom\",\"endpoints\":[\"/query\",\"/healthz\",\"/stats\",\"/metrics\",\"/debug/slow\",\"/debug/events\"]}",
                &[],
            ),
        ),
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/debug/slow" | "/debug/events" | "/query" | "/",
        ) => Routed::new(
            405,
            error_response(405, &format!("method {} not allowed", request.method)),
        ),
        _ => Routed::new(
            404,
            error_response(404, &format!("no such endpoint: {}", request.path)),
        ),
    })
}

/// The `/query` endpoint: parameter extraction + execution. A query that
/// executed comes back in flight, for its results to be streamed.
fn respond_query<'s>(request: &Request, service: &'s QueryService) -> Reply<'s> {
    let bad = |message: &str| Reply::Buffered(Routed::new(400, error_response(400, message)));
    let mut params = parse_query_string(&request.query_string);
    if request.method == "POST" {
        if request
            .content_type
            .starts_with("application/x-www-form-urlencoded")
        {
            let body = String::from_utf8_lossy(&request.body).into_owned();
            params.extend(parse_query_string(&body));
        } else {
            // Raw query body (application/sparql-query or unspecified).
            match String::from_utf8(request.body.clone()) {
                Ok(q) => params.push(("query".into(), q)),
                Err(_) => return bad("query body is not valid UTF-8"),
            }
        }
    }
    let param = |name: &str| {
        params
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let Some(sparql) = param("query") else {
        return bad("missing `query` parameter");
    };
    let engine = match param("engine") {
        None => None,
        Some(name) => match name.parse::<EngineKind>() {
            Ok(kind) => Some(kind),
            Err(e) => return bad(&e.to_string()),
        },
    };
    let threads = match param("threads") {
        None => None,
        Some(t) => match t.parse::<usize>() {
            Ok(t) if t >= 1 => Some(t),
            _ => return bad("`threads` must be a positive integer"),
        },
    };
    let bool_param = |name: &str| match param(name).map(str::to_ascii_lowercase).as_deref() {
        None | Some("0") | Some("false") | Some("no") | Some("") => Ok(false),
        Some("1") | Some("true") | Some("yes") => Ok(true),
        Some(_) => Err(format!(
            "`{name}` must be a boolean (1/0, true/false, yes/no)"
        )),
    };
    let (profile, explain, analyze) = match (
        bool_param("profile"),
        bool_param("explain"),
        bool_param("analyze"),
    ) {
        (Ok(p), Ok(e), Ok(a)) => (p, e, a),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return bad(&e),
    };
    if explain && analyze {
        return bad("`explain` and `analyze` are mutually exclusive (explain never executes)");
    }
    if explain {
        // EXPLAIN: build and return the plan tree without executing.
        return match service.explain(
            sparql,
            QueryOptions {
                engine,
                threads,
                ..QueryOptions::default()
            },
        ) {
            Ok(response) => {
                let headers = [
                    ("X-Engine", response.engine.to_string()),
                    ("X-Fingerprint", format!("{:016x}", response.fingerprint)),
                    ("X-Trace-Id", format_trace_id(response.trace_id)),
                ];
                Reply::Buffered(Routed {
                    bytes: json_response(200, &response.report.to_json(), &headers),
                    status: 200,
                    trace_id: Some(response.trace_id),
                })
            }
            Err(e) => bad(&e.to_string()),
        };
    }
    match service.begin(
        sparql,
        QueryOptions {
            engine,
            threads,
            profile,
            analyze,
        },
    ) {
        Ok(request) => Reply::Results(Box::new(request)),
        Err(e) => bad(&e.to_string()),
    }
}

/// Splits and percent-decodes an `application/x-www-form-urlencoded` string.
pub fn parse_query_string(qs: &str) -> Vec<(String, String)> {
    qs.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Builds a full HTTP response with a JSON body.
fn json_response(status: u16, body: &str, extra_headers: &[(&str, String)]) -> Vec<u8> {
    build_response(status, "application/json", body.as_bytes(), extra_headers)
}

/// Builds an error response with a JSON `{"error": …}` body.
fn error_response(status: u16, message: &str) -> Vec<u8> {
    let mut body = b"{\"error\":\"".to_vec();
    escape_json_into(&mut body, message);
    body.extend_from_slice(b"\"}");
    build_response(status, "application/json", &body, &[])
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    }
}

/// The status line and headers of a response, blank line included.
fn response_head(
    status: u16,
    content_type: &str,
    framing: Framing,
    extra_headers: &[(&str, String)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        status_text(status),
    );
    match framing {
        Framing::Length(bytes) => head.push_str(&format!("Content-Length: {bytes}\r\n")),
        Framing::Chunked => head.push_str("Transfer-Encoding: chunked\r\n"),
        Framing::UntilClose => {}
    }
    head.push_str("Connection: close\r\nServer: turbohom\r\n");
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Builds a full response around a body that is already rendered (the small
/// JSON and text endpoints; query results are streamed instead).
fn build_response(
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let framing = Framing::Length(body.len());
    let mut out = response_head(status, content_type, framing, extra_headers).into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_string_parsing_decodes_escapes() {
        let params = parse_query_string("query=SELECT%20%3Fx&engine=turbohom%2B%2B&a=b+c");
        assert_eq!(
            params,
            vec![
                ("query".into(), "SELECT ?x".into()),
                ("engine".into(), "turbohom++".into()),
                ("a".into(), "b c".into()),
            ]
        );
        assert!(parse_query_string("").is_empty());
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%2Bb"), "a+b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%3f"), "?");
    }

    #[test]
    fn responses_have_correct_framing() {
        let r = String::from_utf8(json_response(200, "{}", &[])).unwrap();
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 2\r\n"));
        assert!(r.ends_with("\r\n\r\n{}"));
        let e = String::from_utf8(error_response(404, "nope \"x\"")).unwrap();
        assert!(e.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(e.contains(r#"{"error":"nope \"x\""}"#));
    }
}
