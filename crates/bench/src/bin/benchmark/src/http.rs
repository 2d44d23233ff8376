//! A std-only HTTP/1.1 client, just enough for a SPARQL endpoint.
//!
//! It keeps a connection open whenever the response allows it and reads both
//! `Content-Length` and `Transfer-Encoding: chunked` bodies, so a server that
//! later learns keep-alive or streaming shows its gain without this file
//! changing. Connections opened and requests sent are counted; their ratio is
//! the `service.connections_per_request` metric.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Largest response body accepted (a length read from the wire is bounded
/// before anything is allocated for it).
const MAX_BODY: usize = 1 << 30;

/// A stalled server must fail the request, not hang the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server will close (or has closed) the connection after this
    /// response, so it must not be reused.
    pub close: bool,
}

/// A client bound to one server address.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connections: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connections: 0,
        }
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        let head = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.addr);
        self.roundtrip(head.as_bytes()).map(|(r, _)| r)
    }

    /// `POST /query` with the SPARQL text as an `application/sparql-query`
    /// body. Returns the response and the client-side latency: from connect
    /// (or from send, on a reused connection) to the last body byte.
    pub fn query(&mut self, sparql: &str) -> io::Result<(Response, Duration)> {
        let mut message = format!(
            "POST /query HTTP/1.1\r\nHost: {}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            sparql.len()
        )
        .into_bytes();
        message.extend_from_slice(sparql.as_bytes());
        self.roundtrip(&message)
    }

    fn roundtrip(&mut self, message: &[u8]) -> io::Result<(Response, Duration)> {
        let started = Instant::now();
        // A kept connection may have been closed by the server while idle;
        // that shows as an error before any response byte, and the request
        // is then repeated once on a fresh connection (the clock keeps
        // running). A fresh connection that fails is a real failure.
        if let Some(mut conn) = self.conn.take() {
            if let Ok(response) = exchange(&mut conn, message) {
                return Ok(self.finish(conn, response, started));
            }
        }
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.connections += 1;
        let mut conn = BufReader::with_capacity(64 * 1024, stream);
        let response = exchange(&mut conn, message)?;
        Ok(self.finish(conn, response, started))
    }

    fn finish(
        &mut self,
        conn: BufReader<TcpStream>,
        response: Response,
        started: Instant,
    ) -> (Response, Duration) {
        let latency = started.elapsed();
        if !response.close {
            self.conn = Some(conn);
        }
        (response, latency)
    }
}

fn exchange(conn: &mut BufReader<TcpStream>, message: &[u8]) -> io::Result<Response> {
    conn.get_mut().write_all(message)?;
    read_response(conn)
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads one response: status line, headers, then a body framed by
/// `Transfer-Encoding: chunked`, by `Content-Length`, or (neither given) by
/// the end of the stream.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().ok_or_else(|| bad("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("not an HTTP/1.x response: {version}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("status line without a status code"))?;

    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    // HTTP/1.0 closes unless told otherwise; HTTP/1.1 keeps alive.
    let mut close = version == "HTTP/1.0";
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header line: {header}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize = value.parse().map_err(|_| bad("bad Content-Length"))?;
                if n > MAX_BODY {
                    return Err(bad("Content-Length above the client's limit"));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => chunked = value.to_ascii_lowercase().contains("chunked"),
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    close = true;
                } else if v.contains("keep-alive") {
                    close = false;
                }
            }
            _ => {}
        }
    }

    let body = if chunked {
        read_chunked(reader)?
    } else if let Some(n) = content_length {
        let mut body = vec![0u8; n];
        reader.read_exact(&mut body)?;
        body
    } else {
        close = true;
        let mut body = Vec::new();
        reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
        body
    };
    Ok(Response {
        status,
        body,
        close,
    })
}

fn read_chunked(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside a chunked body"));
        }
        // A chunk-size line may carry `;extensions`.
        let size = line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size, 16).map_err(|_| bad("bad chunk size"))?;
        if size > MAX_BODY - body.len() {
            return Err(bad("chunked body above the client's limit"));
        }
        if size == 0 {
            // Trailer fields, then the blank line that ends the message.
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                    return Ok(body);
                }
            }
        }
        let at = body.len();
        body.resize(at + size, 0);
        reader.read_exact(&mut body[at..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk not followed by CRLF"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> io::Result<Response> {
        read_response(&mut Cursor::new(raw.to_vec()))
    }

    #[test]
    fn content_length_body_and_connection_close() {
        let r =
            parse(b"HTTP/1.1 200 OK\r\ncontent-LENGTH: 5\r\nConnection: close\r\n\r\nhelloEXTRA")
                .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"hello");
        assert!(r.close);
    }

    #[test]
    fn http11_without_connection_header_is_reusable() {
        let r = parse(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 2\r\n\r\nno").unwrap();
        assert_eq!(r.status, 400);
        assert!(!r.close);
        let r = parse(b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert!(r.close);
        let r = parse(b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert!(!r.close);
    }

    #[test]
    fn chunked_body_with_extension_and_trailer() {
        let r = parse(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              4;ext=1\r\nWiki\r\n5\r\npedia\r\n0\r\nX-Trailer: 1\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body, b"Wikipedia");
        assert!(!r.close);
    }

    #[test]
    fn body_without_framing_runs_to_end_of_stream() {
        let r = parse(b"HTTP/1.1 200 OK\r\n\r\nall of it").unwrap();
        assert_eq!(r.body, b"all of it");
        assert!(r.close);
    }

    #[test]
    fn malformed_responses_are_errors() {
        assert!(parse(b"").is_err());
        assert!(parse(b"SPDY/3 200\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n").is_err());
        assert!(parse(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX").is_err());
    }
}
