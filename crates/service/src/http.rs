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
//! * `GET /debug/slow` — the journal's slow completions as JSON, slowest
//!   first; each entry is its `/debug/events` line.
//! * `GET /debug/events` — the structured event journal as JSONL (one JSON
//!   object per line, oldest first, each carrying a trace id where one
//!   exists).
//!
//! Every endpoint also answers `HEAD` with the same headers (including
//! `Content-Length`, or `Transfer-Encoding` for query results) and no body.
//! The optional access log writes one stderr line per request: method, path,
//! status, duration, trace id and the request's ordinal on its connection.
//!
//! Concurrency model: a blocking accept loop and one thread per
//! *connection*, which serves request after request from it (HTTP/1.1
//! persistent connections; pipelined requests are simply the next bytes in
//! the read buffer) until the client asks for `Connection: close`, speaks
//! HTTP/1.0, sends something unparseable, stops reading, or stays idle for
//! 30 seconds. The thread owns its read buffer, request-head and body
//! buffers, the response's pending bytes and the serialiser's buffer for
//! that long, so a request on an open connection costs one read, one write
//! and, for a lookup, no allocation in this layer. At most [`MAX_CONNECTIONS`] connections
//! are open at once; the accept thread answers further ones `503` itself.
//! The interesting shared state (store, plan cache, metrics) is all inside
//! `QueryService`, which is what the concurrency tests hammer.
//!
//! A request's body is always read in full before it is answered, and a
//! request whose framing this server cannot follow (`Transfer-Encoding`,
//! conflicting or unparseable `Content-Length`, a malformed header line)
//! closes the connection with its `501`/`400`: bytes left unread would be
//! parsed as the next request.

use crate::service::{InFlight, QueryOptions, QueryService};
use std::cell::Cell;
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use turbohom_engine::{format_trace_id, EngineKind, ExtraMembers};
use turbohom_json::Fixed3;

/// Maximum accepted size of a request head or body (1 MiB, like oxigraph's
/// `MAX_SPARQL_BODY_SIZE`).
const MAX_REQUEST_SIZE: usize = 1 << 20;

/// The endpoints, as `GET /` lists them.
const ENDPOINTS: [&str; 6] = [
    "/query",
    "/healthz",
    "/stats",
    "/metrics",
    "/debug/slow",
    "/debug/events",
];

/// Connections open at once (each is a thread); the accept thread refuses
/// further ones with `503`.
pub const MAX_CONNECTIONS: usize = 1024;

/// A stalled or malicious client must not pin a connection thread
/// (slowloris): reads and writes give up after this long, and so does an
/// idle connection.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

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

/// One open connection's place among the [`MAX_CONNECTIONS`]: given back
/// when the connection thread ends, however it ends.
struct Slot(Arc<QueryService>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.metrics().http().open.fetch_sub(1, Ordering::SeqCst);
    }
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
    /// method, path, status, duration, trace id, ordinal on its connection).
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
        self.accept(&AtomicBool::new(false), MAX_CONNECTIONS);
        Ok(())
    }

    /// Serves on a background accept thread and returns a stoppable handle.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || self.accept(&stop_flag, MAX_CONNECTIONS));
        Ok(ServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The accept routine: one thread per connection while fewer than
    /// `limit` are open, a `503` from this thread otherwise. Returns once
    /// `stop` is set and a further connection arrives.
    fn accept(&self, stop: &AtomicBool, limit: usize) {
        for stream in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A failed accept (EMFILE under load, ECONNABORTED on a reset
            // connection) sheds that one connection, not the server.
            let Ok(stream) = stream else { continue };
            let http = self.service.metrics().http();
            let slot = Slot(Arc::clone(&self.service));
            if http.open.fetch_add(1, Ordering::SeqCst) >= limit as u64 {
                http.rejected.fetch_add(1, Ordering::Relaxed);
                refuse(stream);
                continue;
            }
            http.connections.fetch_add(1, Ordering::Relaxed);
            let access_log = self.access_log;
            // When no thread can be had the closure is dropped, and with it
            // the connection and its slot.
            let _ = std::thread::Builder::new()
                .spawn(move || serve_stream(stream, &slot.0, access_log));
        }
    }
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread. Open
    /// connections are served until their clients close them or go idle.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Answers a connection beyond the limit `503` and closes it. The response
/// fits any socket buffer, so the accept thread is not held up.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let body = error_body("too many open connections");
    let mut response = Vec::new();
    write_head(
        &mut response,
        503,
        "application/json",
        Framing::Length(body.len()),
        true,
        None,
    );
    response.extend_from_slice(&body);
    let _ = stream.write_all(&response);
}

/// Serves one TCP connection until it ends.
fn serve_stream(stream: TcpStream, service: &QueryService, access_log: bool) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Results go out in pieces of tens of kilobytes followed by a few bytes
    // of chunk framing, which must not wait for an acknowledgement.
    let _ = stream.set_nodelay(true);
    let Ok(reading) = stream.try_clone() else {
        return;
    };
    let mut writing = stream;
    serve_connection(reading, &mut writing, service, access_log);
}

/// One parsed request, borrowing the connection's head and body buffers.
struct Request<'b> {
    method: &'b str,
    /// An HTTP/1.0 client: it cannot read a chunked body.
    http10: bool,
    /// The connection ends with this request's response: the client asked
    /// for it or speaks HTTP/1.0.
    close: bool,
    path: &'b str,
    query_string: &'b str,
    content_type: &'b str,
    body: &'b [u8],
}

impl Request<'static> {
    /// What the access log and the connection loop see of a request that
    /// could not be read: the stream cannot be resynchronised behind it.
    const UNREADABLE: Self = Request {
        method: "-",
        http10: false,
        close: true,
        path: "-",
        query_string: "",
        content_type: "",
        body: b"",
    };
}

/// A request that cannot be answered because it cannot be read; its
/// response closes the connection.
struct Unreadable {
    status: u16,
    message: String,
}

impl Unreadable {
    fn bad_request(message: impl std::fmt::Display) -> Unreadable {
        Unreadable {
            status: 400,
            message: format!("bad request: {message}"),
        }
    }
}

/// The `X-…` headers of a `/query` response.
struct QueryHead {
    /// `X-Cache`; absent from an `explain=1` response, which bypasses the
    /// plan cache.
    cache_hit: Option<bool>,
    engine: EngineKind,
    fingerprint: u64,
    trace_id: u64,
}

/// A response whose body is already rendered.
struct Routed {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    /// Set only by `/query` (the one endpoint that runs under a trace).
    query: Option<QueryHead>,
}

impl Routed {
    fn new(status: u16, content_type: &'static str, body: Vec<u8>) -> Routed {
        Routed {
            status,
            content_type,
            body,
            query: None,
        }
    }

    fn json(status: u16, body: String) -> Routed {
        Routed::new(status, "application/json", body.into_bytes())
    }

    /// An error response with a JSON `{"error": …}` body.
    fn error(status: u16, message: &str) -> Routed {
        Routed::new(status, "application/json", error_body(message))
    }
}

/// What an endpoint answers with.
enum Reply<'s> {
    /// A finished response.
    Buffered(Routed),
    /// An executed query whose results are streamed to the client.
    Results(Box<InFlight<'s>>),
}

/// Serves one connection: reads request after request from `input` and
/// writes each response to `output`, until the client ends the connection
/// (`Connection: close`, HTTP/1.0, end of input or a read time-out between
/// requests), a request cannot be read (its `400`/`501` is the last
/// response) or a write fails. An end of input or time-out before the first
/// byte of a request is the client being done: nothing is written for it.
///
/// [`HttpServer`] runs this on a thread per TCP connection; any other byte
/// stream (a Unix socket, a test's byte slice) is served the same way.
/// `access_log` writes one stderr line per request.
pub fn serve_connection<R: Read, W: Write>(
    input: R,
    output: &mut W,
    service: &QueryService,
    access_log: bool,
) {
    // … and an endless request line must not buffer unboundedly: `take`
    // bounds the total bytes one request may occupy before parsing rejects
    // it via the head/body size checks. It is re-armed for every request.
    let mut reader = BufReader::new(input.take(0));
    // The connection's buffers: the request head and body as read, the
    // bytes waiting for the next write, and the results serialiser's piece.
    let (mut head, mut body) = (Vec::new(), Vec::new());
    let (mut pending, mut piece) = (Vec::new(), Vec::new());
    for ordinal in 1u64.. {
        reader.get_mut().set_limit(2 * MAX_REQUEST_SIZE as u64);
        if !request_begins(&mut reader) {
            return;
        }
        let started = Instant::now();
        let requests = &service.metrics().http().requests;
        requests.fetch_add(1, Ordering::Relaxed);
        let (request, reply) = match read_request(&mut reader, &mut head, &mut body) {
            Ok(request) => {
                let reply = respond(&request, service);
                (request, reply)
            }
            Err(unreadable) => (
                Request::UNREADABLE,
                Reply::Buffered(Routed::error(unreadable.status, &unreadable.message)),
            ),
        };
        let (head_only, close) = (request.method == "HEAD", request.close);
        let writing = Cell::new(Duration::ZERO);
        let mut writer = BodyWriter {
            stream: &mut *output,
            framing: match &reply {
                Reply::Buffered(response) => Framing::Length(response.body.len()),
                Reply::Results(_) if request.http10 => Framing::UntilClose,
                Reply::Results(_) => Framing::Chunked,
            },
            writing: &writing,
            pending: &mut pending,
        };
        let (status, trace_id, delivered) = match reply {
            Reply::Buffered(response) => {
                write_head(
                    writer.pending,
                    response.status,
                    response.content_type,
                    writer.framing,
                    close,
                    response.query.as_ref(),
                );
                // RFC 9110: a HEAD response carries the headers (including
                // Content-Length) but no content.
                let body: &[u8] = if head_only { b"" } else { &response.body };
                let delivered = writer.write_all(body).and_then(|()| writer.finish());
                let trace_id = response.query.map(|query| query.trace_id);
                (response.status, trace_id, delivered.is_ok())
            }
            Reply::Results(query) => {
                let trace_id = query.trace_id;
                let delivered = stream_results(writer, &mut piece, &query, head_only, close);
                let ok = delivered.is_ok();
                match delivered {
                    Ok(()) => drop(service.complete(*query)),
                    Err(e) => service.abandon(*query, &e),
                }
                (200, Some(trace_id), ok)
            }
        };
        if access_log {
            eprintln!(
                "access method={} path={} status={status} dur_ms={:.3} trace={} conn={ordinal}",
                request.method,
                request.path,
                started.elapsed().as_secs_f64() * 1000.0,
                trace_id.map_or_else(|| "-".into(), format_trace_id),
            );
        }
        if close || !delivered {
            return;
        }
    }
}

/// Waits for the first byte of the next request. `false` when there will be
/// none: the client closed the connection or left it idle past the read
/// time-out.
fn request_begins(reader: &mut impl BufRead) -> bool {
    loop {
        match reader.fill_buf() {
            Ok(bytes) => return !bytes.is_empty(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
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

/// The connection as a response body sees it: every piece written becomes
/// one HTTP chunk (where the body is chunked), and the time spent in writes
/// to the connection is added to `writing`.
///
/// A short response — head, one small chunk, the terminal chunk — leaves in
/// a single write; a large piece is never copied: it goes out in one
/// vectored write between its chunk framing.
struct BodyWriter<'a, W: Write> {
    stream: &'a mut W,
    framing: Framing,
    writing: &'a Cell<Duration>,
    /// Bytes waiting for the next write: the head at first, then chunk
    /// framing and small pieces. The connection's buffer, empty again once
    /// they are sent.
    pending: &'a mut Vec<u8>,
}

impl<W: Write> BodyWriter<'_, W> {
    /// Sends what is pending, then `piece` and `after`, in one vectored
    /// write where the kernel takes them whole.
    fn send(&mut self, piece: &[u8], after: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let mut parts = [&self.pending[..], piece, after];
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

impl<W: Write> Write for BodyWriter<'_, W> {
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
/// the serialiser fills `piece`, the connection's buffer for it. The
/// `profile`/`explain` members are written before the closing brace.
/// Records the `serialise` and `write` stages on the request's trace; the
/// first failed write ends the serialisation and is returned.
fn stream_results<W: Write>(
    mut body: BodyWriter<'_, W>,
    piece: &mut Vec<u8>,
    request: &InFlight<'_>,
    head_only: bool,
    close: bool,
) -> io::Result<()> {
    let started = Instant::now();
    let writing = body.writing;
    let record_stages = || {
        let write = writing.get();
        let serialise = started.elapsed().saturating_sub(write);
        request
            .trace
            .record_rollup("serialise", None, serialise, &[]);
        request.trace.record_rollup("write", None, write, &[]);
    };
    write_head(
        body.pending,
        200,
        "application/sparql-results+json",
        body.framing,
        close,
        Some(&QueryHead {
            cache_hit: Some(request.cache_hit),
            engine: request.engine,
            fingerprint: request.fingerprint.hash,
            trace_id: request.trace_id,
        }),
    );
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
        .write_sparql_json(&mut body, piece, members)
        .and_then(|()| body.finish());
    if !reports {
        record_stages();
    }
    delivered
}

/// Reads one request into the connection's buffers — the head into `head`,
/// a `Content-Length` body into `body` — and parses it in place.
fn read_request<'b>(
    reader: &mut impl BufRead,
    head: &'b mut Vec<u8>,
    body: &'b mut Vec<u8>,
) -> Result<Request<'b>, Unreadable> {
    head.clear();
    loop {
        let line_start = head.len();
        reader
            .read_until(b'\n', head)
            .map_err(Unreadable::bad_request)?;
        if head.len() > MAX_REQUEST_SIZE {
            return Err(Unreadable::bad_request("request head too large"));
        }
        match &head[line_start..] {
            b"\r\n" | b"\n" => break,
            line if line.ends_with(b"\n") => {}
            _ => return Err(Unreadable::bad_request("request head ends early")),
        }
    }
    let head: &'b str = std::str::from_utf8(head)
        .map_err(|_| Unreadable::bad_request("request head is not valid UTF-8"))?;
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let bad = |message: &str| Unreadable::bad_request(message);
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(Unreadable::bad_request(format!(
            "unsupported protocol {version}"
        )));
    }
    let (path, query_string) = target.split_once('?').unwrap_or((target, ""));

    let http10 = version == "HTTP/1.0";
    let mut close = http10;
    let mut content_length: Option<usize> = None;
    let mut content_type = "";
    for line in lines.take_while(|line| !line.is_empty()) {
        // A name runs up to the colon with no blank in or before it; a line
        // that starts with one would continue the previous header. Reading
        // either leniently would let two parsers disagree on the framing.
        let Some((name, value)) = line
            .split_once(':')
            .filter(|(name, _)| !name.is_empty() && !name.contains([' ', '\t']))
        else {
            return Err(bad("malformed header line"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let length: usize = value.parse().map_err(|_| bad("bad Content-Length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(bad("conflicting Content-Length headers"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // The body's extent is the chunk framing this server does not
            // read.
            return Err(Unreadable {
                status: 501,
                message: "Transfer-Encoding is not supported: send the body with Content-Length"
                    .into(),
            });
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = value;
        } else if name.eq_ignore_ascii_case("connection") {
            close |= value
                .split(',')
                .any(|option| option.trim().eq_ignore_ascii_case("close"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_REQUEST_SIZE {
        return Err(bad("request body too large"));
    }
    body.clear();
    body.resize(content_length, 0);
    reader.read_exact(body).map_err(Unreadable::bad_request)?;
    Ok(Request {
        method,
        http10,
        close,
        path,
        query_string,
        content_type,
        body,
    })
}

/// Routes one request to its endpoint.
fn respond<'s>(request: &Request<'_>, service: &'s QueryService) -> Reply<'s> {
    if request.path == "/query" && matches!(request.method, "GET" | "POST" | "HEAD") {
        return respond_query(request, service);
    }
    Reply::Buffered(match (request.method, request.path) {
        ("GET" | "HEAD", "/healthz") => {
            let store = service.store();
            let snapshot = store
                .store()
                .snapshot_path()
                .map(|p| p.display().to_string());
            let body = turbohom_json::document(|w| {
                w.begin_object()
                    .field("status", "ok")
                    .field("triples", store.store().triple_count())
                    .field("uptime_secs", Fixed3(service.uptime().as_secs_f64()))
                    .field("engine", service.config().default_engine.name())
                    .field("dataset", service.dataset_label())
                    .field("backend", store.backend_name())
                    .field("snapshot", snapshot)
                    .field("shards", store.sharded().map(|s| s.shard_count()))
                    .end_object();
            });
            Routed::json(200, body)
        }
        ("GET" | "HEAD", "/stats") => Routed::json(200, service.stats().to_json()),
        ("GET" | "HEAD", "/metrics") => Routed::new(
            200,
            "text/plain; version=0.0.4",
            service.prometheus().into_bytes(),
        ),
        ("GET" | "HEAD", "/debug/slow") => Routed::json(200, service.journal().slow_to_json()),
        ("GET" | "HEAD", "/debug/events") => Routed::new(
            200,
            "application/x-ndjson",
            service.journal().to_jsonl().into_bytes(),
        ),
        ("GET" | "HEAD", "/") => {
            let body = turbohom_json::document(|w| {
                w.begin_object()
                    .field("service", "turbohom")
                    .field("endpoints", ENDPOINTS.as_slice())
                    .end_object();
            });
            Routed::json(200, body)
        }
        (_, path) if path == "/" || ENDPOINTS.contains(&path) => {
            Routed::error(405, &format!("method {} not allowed", request.method))
        }
        _ => Routed::error(404, &format!("no such endpoint: {}", request.path)),
    })
}

/// Whether `text` starts with `prefix`, ASCII case aside.
fn starts_with_ignore_ascii_case(text: &str, prefix: &str) -> bool {
    text.len() >= prefix.len()
        && text.as_bytes()[..prefix.len()].eq_ignore_ascii_case(prefix.as_bytes())
}

/// The `/query` endpoint: parameter extraction + execution. A query that
/// executed comes back in flight, for its results to be streamed.
fn respond_query<'s>(request: &Request<'_>, service: &'s QueryService) -> Reply<'s> {
    let bad = |message: &str| Reply::Buffered(Routed::error(400, message));
    let mut params = parse_query_string(request.query_string);
    // A raw query body (application/sparql-query or unspecified) is read
    // where it lies; it goes before a `query=` parameter.
    let mut raw_query = None;
    if request.method == "POST" {
        if starts_with_ignore_ascii_case(request.content_type, "application/x-www-form-urlencoded")
        {
            params.extend(parse_query_string(&String::from_utf8_lossy(request.body)));
        } else {
            match std::str::from_utf8(request.body) {
                Ok(q) => raw_query = Some(q),
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
    let Some(sparql) = raw_query.or_else(|| param("query")) else {
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
            Ok(response) => Reply::Buffered(Routed {
                query: Some(QueryHead {
                    cache_hit: None,
                    engine: response.engine,
                    fingerprint: response.fingerprint,
                    trace_id: response.trace_id,
                }),
                ..Routed::json(200, response.report.to_json())
            }),
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

/// The body of an error response: a JSON `{"error": …}` object.
fn error_body(message: &str) -> Vec<u8> {
    let body = turbohom_json::document(|w| {
        w.begin_object().field("error", message).end_object();
    });
    body.into_bytes()
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Appends the status line and headers of a response, blank line included,
/// to `out`. `close` announces that the connection ends with this response.
fn write_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    framing: Framing,
    close: bool,
    query: Option<&QueryHead>,
) {
    // Writing to a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
        status_text(status)
    );
    match framing {
        Framing::Length(bytes) => {
            let _ = write!(out, "Content-Length: {bytes}\r\n");
        }
        Framing::Chunked => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
        Framing::UntilClose => {}
    }
    if close || framing == Framing::UntilClose {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"Server: turbohom\r\n");
    if let Some(query) = query {
        if let Some(hit) = query.cache_hit {
            let _ = write!(out, "X-Cache: {}\r\n", if hit { "HIT" } else { "MISS" });
        }
        let _ = write!(
            out,
            "X-Engine: {}\r\nX-Fingerprint: {:016x}\r\nX-Trace-Id: {:016x}\r\n",
            query.engine, query.fingerprint, query.trace_id
        );
    }
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use turbohom_engine::Store;

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
    fn response_heads_frame_the_body_and_announce_a_close() {
        let mut head = Vec::new();
        write_head(
            &mut head,
            200,
            "application/json",
            Framing::Length(2),
            false,
            None,
        );
        assert_eq!(
            String::from_utf8(head).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nServer: turbohom\r\n\r\n"
        );
        let mut head = Vec::new();
        let query = QueryHead {
            cache_hit: Some(true),
            engine: EngineKind::MergeJoin,
            fingerprint: 0xabc,
            trace_id: 7,
        };
        write_head(
            &mut head,
            503,
            "text/plain",
            Framing::Chunked,
            true,
            Some(&query),
        );
        assert_eq!(
            String::from_utf8(head).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\nServer: turbohom\r\n\
             X-Cache: HIT\r\nX-Engine: mergejoin\r\nX-Fingerprint: 0000000000000abc\r\n\
             X-Trace-Id: 0000000000000007\r\n\r\n"
        );
        // A body that only the close ends announces the close by itself.
        let mut head = Vec::new();
        write_head(&mut head, 501, "a/b", Framing::UntilClose, false, None);
        let head = String::from_utf8(head).unwrap();
        assert!(
            head.starts_with("HTTP/1.1 501 Not Implemented\r\n"),
            "{head}"
        );
        assert!(head.contains("Connection: close\r\n"), "{head}");
        assert_eq!(
            String::from_utf8(error_body("nope \"x\"")).unwrap(),
            r#"{"error":"nope \"x\""}"#
        );
    }

    /// A service over three triples, shared by the tests that only read it.
    fn service() -> &'static QueryService {
        static SERVICE: OnceLock<QueryService> = OnceLock::new();
        SERVICE.get_or_init(fresh_service)
    }

    fn fresh_service() -> QueryService {
        let store = Store::from_ntriples(
            "<http://x/a> <http://x/p> <http://x/b> .\n\
             <http://x/b> <http://x/p> <http://x/c> .\n\
             <http://x/c> <http://x/q> \"v\" .\n",
        )
        .unwrap();
        QueryService::new(Arc::new(store))
    }

    /// Serves `input` as one connection and returns what was written.
    fn serve(service: &QueryService, input: &[u8]) -> Vec<u8> {
        let mut output = Vec::new();
        serve_connection(input, &mut output, service, false);
        output
    }

    /// One response as read back off the wire.
    #[derive(Debug)]
    struct Response {
        status: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    }

    impl Response {
        fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }

        fn closes(&self) -> bool {
            self.header("connection") == Some("close")
        }
    }

    /// Splits `wire` into the responses it holds, checking their framing:
    /// a `Content-Length` body of that length (none after a `HEAD`),
    /// well-formed chunks up to the terminal one, or — with neither — a body
    /// that runs to the end. `head_only[i]` says whether response `i`
    /// answers a `HEAD`. Bytes that are no response are an error.
    fn parse_responses(mut wire: &[u8], head_only: &[bool]) -> Result<Vec<Response>, String> {
        let mut responses = Vec::new();
        while !wire.is_empty() {
            let head_end = wire
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .ok_or("no blank line after the head")?;
            let head = std::str::from_utf8(&wire[..head_end]).map_err(|e| e.to_string())?;
            wire = &wire[head_end + 4..];
            let mut lines = head.split("\r\n");
            let status_line = lines.next().ok_or("no status line")?;
            let status = status_line
                .strip_prefix("HTTP/1.1 ")
                .and_then(|rest| rest.get(..3))
                .and_then(|code| code.parse().ok())
                .ok_or_else(|| format!("bad status line {status_line:?}"))?;
            let headers = lines
                .map(|line| {
                    let (name, value) = line
                        .split_once(": ")
                        .ok_or_else(|| format!("bad header line {line:?}"))?;
                    Ok((name.to_string(), value.to_string()))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut response = Response {
                status,
                headers,
                body: Vec::new(),
            };
            let head_only = head_only.get(responses.len()).copied().unwrap_or(false);
            if head_only {
                // No content, whatever the framing headers promise a GET.
            } else if response.header("transfer-encoding") == Some("chunked") {
                loop {
                    let line_end = wire
                        .windows(2)
                        .position(|w| w == b"\r\n")
                        .ok_or("no chunk size line")?;
                    let size = std::str::from_utf8(&wire[..line_end])
                        .ok()
                        .and_then(|size| usize::from_str_radix(size, 16).ok())
                        .ok_or("bad chunk size")?;
                    wire = &wire[line_end + 2..];
                    let chunk = wire.get(..size).ok_or("chunk cut short")?;
                    response.body.extend_from_slice(chunk);
                    wire = wire[size..]
                        .strip_prefix(b"\r\n")
                        .ok_or("no CRLF after the chunk")?;
                    if size == 0 {
                        break;
                    }
                }
            } else if let Some(length) = response.header("content-length") {
                let length: usize = length.parse().map_err(|_| "bad Content-Length")?;
                response.body = wire.get(..length).ok_or("body cut short")?.to_vec();
                wire = &wire[length..];
            } else {
                if !response.closes() {
                    return Err("an unframed body on a connection that stays open".into());
                }
                response.body = wire.to_vec();
                wire = b"";
            }
            responses.push(response);
        }
        Ok(responses)
    }

    const LOOKUP: &str = "SELECT ?x WHERE { ?x <http://x/p> <http://x/c> . }";

    fn post_query(sparql: &str, extra_headers: &str) -> String {
        format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/sparql-query\r\n{extra_headers}Content-Length: {}\r\n\r\n{sparql}",
            sparql.len()
        )
    }

    #[test]
    fn healthz_escapes_a_hostile_dataset_label() {
        let service = fresh_service().with_dataset_label("we\"ird\\set\n\u{1}é");
        let get = |path: &str| {
            let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
            let output = serve(&service, request.as_bytes());
            let mut responses = parse_responses(&output, &[false]).unwrap();
            String::from_utf8(responses.remove(0).body).unwrap()
        };
        let body = get("/healthz");
        let (head, tail) = body.split_once(",\"engine\":").expect("an engine member");
        assert!(
            head.starts_with(r#"{"status":"ok","triples":3,"uptime_secs":"#),
            "{body}"
        );
        assert_eq!(
            tail,
            r#""turbohom++","dataset":"we\"ird\\set\n\u0001é","backend":"heap","snapshot":null,"shards":null}"#
        );
        assert_eq!(
            get("/"),
            r#"{"service":"turbohom","endpoints":["/query","/healthz","/stats","/metrics","/debug/slow","/debug/events"]}"#
        );
    }

    #[test]
    fn requests_on_one_connection_are_answered_in_turn_until_one_closes_it() {
        let service = fresh_service();
        let wire = [
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_string(),
            post_query(LOOKUP, ""),
            "HEAD /stats HTTP/1.1\r\nHost: x\r\n\r\n".into(),
            post_query(LOOKUP, "Connection: Keep-Alive, Close\r\n"),
            // Never read: the request before it closed the connection.
            "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".into(),
        ]
        .concat();
        let output = serve(&service, wire.as_bytes());
        let responses = parse_responses(&output, &[false, false, true, false]).unwrap();
        let statuses: Vec<u16> = responses.iter().map(|r| r.status).collect();
        assert_eq!(statuses, [200, 200, 200, 200]);
        let closes: Vec<bool> = responses.iter().map(Response::closes).collect();
        assert_eq!(closes, [false, false, false, true]);
        assert_eq!(responses[1].header("x-cache"), Some("MISS"));
        assert_eq!(responses[3].header("x-cache"), Some("HIT"));
        assert_eq!(responses[1].body, responses[3].body);
        assert!(responses[1]
            .body
            .ends_with(b"\"value\":\"http://x/b\"}}]}}"));
        assert!(responses[2].body.is_empty());
        let http = service.metrics().http();
        assert_eq!(http.requests.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn an_http10_request_gets_an_unframed_body_and_the_close() {
        let request = format!(
            "POST /query HTTP/1.0\r\nContent-Length: {}\r\n\r\n{LOOKUP}GET / HTTP/1.1\r\n\r\n",
            LOOKUP.len()
        );
        let output = serve(service(), request.as_bytes());
        let responses = parse_responses(&output, &[false]).unwrap();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].closes());
        assert_eq!(responses[0].header("transfer-encoding"), None);
        assert_eq!(responses[0].header("content-length"), None);
        assert!(responses[0]
            .body
            .starts_with(b"{\"head\":{\"vars\":[\"x\"]}"));
    }

    #[test]
    fn a_body_this_server_cannot_delimit_closes_the_connection() {
        // A chunked body would otherwise be parsed as the next request.
        let chunked = "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                       1d\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n";
        let responses = parse_responses(&serve(service(), chunked.as_bytes()), &[]).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].status, 501);
        assert!(responses[0].closes());

        for (headers, status) in [
            ("Content-Length: 3\r\nContent-Length: 4\r\n", 400),
            ("Content-Length: 3, 3\r\n", 400),
            ("Content-Length: -1\r\n", 400),
            ("Content-Length : 3\r\n", 400),
            ("Content-Length: 3\r\n folded: 1\r\n", 400),
            ("no colon here\r\n", 400),
            // The same length twice is one length.
            ("Content-Length: 3\r\nContent-Length: 3\r\n", 404),
        ] {
            let request = format!("POST /nope HTTP/1.1\r\n{headers}\r\nabcGET / HTTP/1.1\r\n\r\n");
            let responses = parse_responses(&serve(service(), request.as_bytes()), &[]).unwrap();
            assert_eq!(responses[0].status, status, "{headers:?}");
            // Only a request that was read whole leaves the connection open
            // for the one behind it.
            assert_eq!(responses.len(), if status == 404 { 2 } else { 1 });
            assert_eq!(responses[0].closes(), status == 400, "{headers:?}");
        }
    }

    #[test]
    fn a_connection_that_ends_between_requests_is_not_answered() {
        let service = fresh_service();
        assert!(serve(&service, b"").is_empty());
        let output = serve(&service, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(parse_responses(&output, &[]).unwrap().len(), 1);
        assert_eq!(service.metrics().http().requests.load(Ordering::Relaxed), 1);
        // One that ends inside a request is told so.
        let output = serve(&service, b"GET / HTTP/1.1\r\nHost:");
        let responses = parse_responses(&output, &[]).unwrap();
        assert_eq!((responses[0].status, responses[0].closes()), (400, true));
        assert!(!service.journal().to_jsonl().contains("query_failed"));
    }

    #[test]
    fn connections_beyond_the_limit_are_refused_and_slots_come_back() {
        let service = Arc::new(fresh_service());
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accepting = std::thread::spawn(move || server.accept(&stop_flag, 1));
        let exchange = |stream: &mut TcpStream| {
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut response = [0u8; 12];
            stream.read_exact(&mut response).unwrap();
            response
        };
        let http = service.metrics().http();

        let mut first = TcpStream::connect(addr).unwrap();
        assert_eq!(&exchange(&mut first), b"HTTP/1.1 200");
        assert_eq!(http.open.load(Ordering::SeqCst), 1);
        // The one slot is taken: the accept thread answers by itself.
        let mut second = TcpStream::connect(addr).unwrap();
        let mut refusal = String::new();
        second.read_to_string(&mut refusal).unwrap();
        assert!(
            refusal.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{refusal}"
        );
        assert!(refusal.contains("Connection: close\r\n"), "{refusal}");
        assert!(refusal.ends_with("{\"error\":\"too many open connections\"}"));
        assert_eq!(http.rejected.load(Ordering::Relaxed), 1);

        // Closing the first connection ends its thread, which frees the slot.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(20);
        while http.open.load(Ordering::SeqCst) != 0 {
            assert!(Instant::now() < deadline, "the slot never came back");
            std::thread::yield_now();
        }
        let mut third = TcpStream::connect(addr).unwrap();
        assert_eq!(&exchange(&mut third), b"HTTP/1.1 200");
        assert_eq!(http.connections.load(Ordering::Relaxed), 2);

        stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(addr));
        accepting.join().unwrap();
    }

    /// A reader that hands out its bytes a few at a time, as a socket may.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buffer: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buffer.len()).min(self.bytes.len());
            buffer[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// What a generated request is expected to be answered with.
    struct Expected {
        status: u16,
        head_only: bool,
        closes: bool,
    }

    /// The requests the property draws from: whole ones that leave the
    /// connection open, whole ones that close it, and unreadable ones.
    fn request(kind: usize) -> (String, Expected) {
        let expect = |status, head_only, closes| Expected {
            status,
            head_only,
            closes,
        };
        let get = |target: &str, headers: &str| {
            format!("GET {target} HTTP/1.1\r\nHost: x\r\n{headers}\r\n")
        };
        match kind {
            0 => (get("/healthz", ""), expect(200, false, false)),
            1 => (post_query(LOOKUP, ""), expect(200, false, false)),
            2 => (
                get(
                    "/query?query=SELECT%20*%20%7B%3Fs%20%3Fp%20%3Fo%7D&engine=mergejoin",
                    "",
                ),
                expect(200, false, false),
            ),
            3 => (
                "HEAD /query?query=SELECT%20*%20%7B%3Fs%20%3Fp%20%3Fo%7D HTTP/1.1\r\n\r\n".into(),
                expect(200, true, false),
            ),
            4 => (
                post_query(
                    "SELECT WHERE {",
                    "X-Long: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n",
                ),
                expect(400, false, false),
            ),
            5 => (
                get("/query?query=x&engine=sparqlotron", ""),
                expect(400, false, false),
            ),
            6 => (get("/nope", ""), expect(404, false, false)),
            7 => (
                "DELETE /stats HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody".into(),
                expect(405, false, false),
            ),
            8 => (
                get("/stats", "Connection: close\r\n"),
                expect(200, false, true),
            ),
            9 => (
                format!(
                    "POST /query HTTP/1.0\r\nContent-Length: {}\r\n\r\n{LOOKUP}",
                    LOOKUP.len()
                ),
                expect(200, false, true),
            ),
            10 => (
                post_query(LOOKUP, "Transfer-Encoding: chunked\r\n"),
                expect(501, false, true),
            ),
            11 => (
                "POST /query HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab".into(),
                expect(400, false, true),
            ),
            12 => ("\u{0}\u{1}garbage\r\n\r\n".into(), expect(400, false, true)),
            13 => ("GET / SPDY/3\r\n\r\n".into(), expect(400, false, true)),
            _ => (
                "GET / HTTP/1.1\r\nbroken header\r\n\r\n".into(),
                expect(400, false, true),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Whatever mix of whole, pipelined, cut-off and malformed requests
        /// a connection carries: no panic, exactly one well-framed response
        /// per request up to and including the first that ends the
        /// connection, and not a byte after that one.
        #[test]
        fn every_request_gets_one_framed_response_and_a_close_is_final(
            kinds in proptest::collection::vec(0usize..15, 0..8),
            cut_off in proptest::option::of((0usize..10, 0usize..400)),
            step in 1usize..96,
        ) {
            let mut wire = String::new();
            let mut expected = Vec::new();
            let mut open = true;
            for &kind in &kinds {
                let (text, answer) = request(kind);
                wire.push_str(&text);
                if open {
                    open = !answer.closes;
                    expected.push(answer);
                }
            }
            // A last request of which only the first `keep` bytes arrive.
            if let Some((kind, keep)) = cut_off {
                let (text, _) = request(kind);
                let keep = keep % text.len();
                wire.push_str(&text[..keep]);
                if open && keep > 0 {
                    expected.push(Expected { status: 400, head_only: false, closes: true });
                }
            }
            let mut output = Vec::new();
            let input = Trickle { bytes: wire.as_bytes(), step };
            serve_connection(input, &mut output, service(), false);
            let head_only: Vec<bool> = expected.iter().map(|e| e.head_only).collect();
            let responses = parse_responses(&output, &head_only)
                .unwrap_or_else(|e| panic!("{e} in {:?} for {wire:?}", String::from_utf8_lossy(&output)));
            let got: Vec<(u16, bool)> = responses.iter().map(|r| (r.status, r.closes())).collect();
            let want: Vec<(u16, bool)> = expected.iter().map(|e| (e.status, e.closes)).collect();
            prop_assert_eq!(got, want, "for {:?}", wire);
        }
    }
}
