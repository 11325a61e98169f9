//! Incremental HTTP/1.1 parsing.
//!
//! A push parser: the simulated connection feeds whatever bytes arrived;
//! [`RequestParser::feed`] returns `Ok(Some(_))` once a complete message is
//! buffered. Bodies are delimited by `Content-Length` (mesh traffic in the
//! reproduction never uses chunked encoding; a `chunked` message is rejected
//! explicitly rather than misparsed).

use crate::message::{HeaderMap, Method, Request, Response, StatusCode};
use bytes::{Bytes, BytesMut};

/// Parse failures (connection should be reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line is not valid HTTP/1.x.
    BadStartLine,
    /// Unknown request method token.
    BadMethod,
    /// Header line missing the `:` separator.
    BadHeader,
    /// Content-Length not a number.
    BadContentLength,
    /// Chunked transfer encoding (unsupported by design).
    ChunkedUnsupported,
    /// Header section exceeded the hard cap (64 KiB).
    HeadersTooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ParseError {}

const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Find `\r\n\r\n`; returns the offset *after* it. `scanned` is how far
/// earlier calls on this (only ever appended-to) buffer got without finding
/// it: the search resumes three bytes before, where a terminator split
/// across two feeds would start, so a header section that trickles in is
/// scanned once overall, not once per feed.
fn find_header_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let start = scanned.saturating_sub(3);
    match buf[start..].windows(4).position(|w| w == b"\r\n\r\n") {
        Some(p) => {
            // A later call (body still in flight) finds it again at once.
            *scanned = start + p;
            Some(start + p + 4)
        }
        None => {
            *scanned = buf.len();
            None
        }
    }
}

fn parse_headers(block: &str) -> Result<HeaderMap, ParseError> {
    let mut headers = HeaderMap::new();
    for line in block.split("\r\n").filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadHeader);
        }
        headers.insert(name, value.trim());
    }
    Ok(headers)
}

fn body_length(headers: &HeaderMap) -> Result<usize, ParseError> {
    if let Some(te) = headers.get("transfer-encoding") {
        if te.to_ascii_lowercase().contains("chunked") {
            return Err(ParseError::ChunkedUnsupported);
        }
    }
    match headers.get("content-length") {
        Some(v) => v.trim().parse().map_err(|_| ParseError::BadContentLength),
        None => Ok(0),
    }
}

/// Incremental request parser for one connection.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: BytesMut,
    /// See [`find_header_end`]; reset when a message leaves `buf`.
    scanned: usize,
}

impl RequestParser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feed newly received bytes; returns a complete request if one is now
    /// available (leftover bytes are retained for pipelined requests).
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Request>, ParseError> {
        self.buf.extend_from_slice(data);
        self.try_parse()
    }

    /// Attempt to extract the next pipelined request from the buffer.
    pub fn try_parse(&mut self) -> Result<Option<Request>, ParseError> {
        let Some(header_end) = find_header_end(&self.buf, &mut self.scanned) else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(ParseError::HeadersTooLarge);
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..header_end - 4])
            .map_err(|_| ParseError::BadStartLine)?;
        let mut lines = head.splitn(2, "\r\n");
        let start = lines.next().unwrap_or("");
        let mut parts = start.split(' ');
        let method = parts.next().ok_or(ParseError::BadStartLine)?;
        let path = parts.next().ok_or(ParseError::BadStartLine)?;
        let version = parts.next().ok_or(ParseError::BadStartLine)?;
        if parts.next().is_some() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::BadStartLine);
        }
        let method = Method::parse(method).ok_or(ParseError::BadMethod)?;
        let path = path.to_string();
        let headers = parse_headers(lines.next().unwrap_or(""))?;
        let body_len = body_length(&headers)?;
        if self.buf.len() < header_end + body_len {
            return Ok(None); // body still in flight
        }
        let mut msg = self.buf.split_to(header_end + body_len);
        self.scanned = 0;
        let body: Bytes = msg.split_off(header_end).freeze();
        Ok(Some(Request {
            method,
            path,
            headers,
            body,
        }))
    }
}

/// Incremental response parser for one connection.
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: BytesMut,
    /// See [`find_header_end`]; reset when a message leaves `buf`.
    scanned: usize,
}

impl ResponseParser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed newly received bytes; returns a complete response if available.
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Response>, ParseError> {
        self.buf.extend_from_slice(data);
        let Some(header_end) = find_header_end(&self.buf, &mut self.scanned) else {
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(ParseError::HeadersTooLarge);
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..header_end - 4])
            .map_err(|_| ParseError::BadStartLine)?;
        let mut lines = head.splitn(2, "\r\n");
        let start = lines.next().unwrap_or("");
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().ok_or(ParseError::BadStartLine)?;
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::BadStartLine);
        }
        let code: u16 = parts
            .next()
            .ok_or(ParseError::BadStartLine)?
            .parse()
            .map_err(|_| ParseError::BadStartLine)?;
        let headers = parse_headers(lines.next().unwrap_or(""))?;
        let body_len = body_length(&headers)?;
        if self.buf.len() < header_end + body_len {
            return Ok(None);
        }
        let mut msg = self.buf.split_to(header_end + body_len);
        self.scanned = 0;
        let body: Bytes = msg.split_off(header_end).freeze();
        Ok(Some(Response {
            status: StatusCode(code),
            headers,
            body,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;

    #[test]
    fn parses_complete_request() {
        let mut p = RequestParser::new();
        let req = p
            .feed(b"GET /hello HTTP/1.1\r\nHost: a\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/hello");
        assert_eq!(req.headers.get("host"), Some("a"));
        assert!(req.body.is_empty());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn parses_incrementally_byte_by_byte() {
        let wire = Request::post("/x", &b"payload"[..])
            .with_header("Host", "h")
            .encode();
        let mut p = RequestParser::new();
        let mut got = None;
        for &b in wire.iter() {
            if let Some(r) = p.feed(&[b]).unwrap() {
                assert!(got.is_none(), "only one message expected");
                got = Some(r);
            }
        }
        let req = got.expect("request completes at final byte");
        assert_eq!(req.body.as_ref(), b"payload");
    }

    #[test]
    fn encode_parse_round_trip() {
        let original = Request::post("/api/orders?id=9", &b"{\"qty\":3}"[..])
            .with_header("Host", "orders.svc")
            .with_header("X-Trace", "abc123");
        let mut p = RequestParser::new();
        let parsed = p.feed(&original.encode()).unwrap().unwrap();
        assert_eq!(parsed.method, original.method);
        assert_eq!(parsed.path, original.path);
        assert_eq!(parsed.body, original.body);
        assert_eq!(parsed.headers.get("x-trace"), Some("abc123"));
        // Serializer added Content-Length; everything else preserved.
        assert_eq!(parsed.headers.get("content-length"), Some("9"));
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut wire = Request::get("/a").encode().to_vec();
        wire.extend_from_slice(&Request::get("/b").encode());
        let mut p = RequestParser::new();
        let first = p.feed(&wire).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let second = p.try_parse().unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(p.try_parse().unwrap().is_none());
    }

    /// A 32 KiB header section fed one byte at a time: every feed before
    /// the last is incomplete, and the scan resumes where it stopped.
    #[test]
    fn large_header_section_trickles_in() {
        let mut wire = b"GET /big HTTP/1.1\r\n".to_vec();
        let mut i = 0;
        while wire.len() < 32 * 1024 {
            wire.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(50)).as_bytes());
            i += 1;
        }
        wire.extend_from_slice(b"\r\n");
        let mut p = RequestParser::new();
        let (last, head) = wire.split_last().unwrap();
        for &b in head {
            assert_eq!(p.feed(&[b]), Ok(None));
        }
        assert_eq!(p.scanned, head.len(), "the scan never restarts from byte 0");
        let req = p.feed(&[*last]).unwrap().expect("complete at the final byte");
        assert_eq!(req.headers.len(), i);
        assert_eq!(req.headers.get(&format!("x-pad-{}", i - 1)), Some("v".repeat(50).as_str()));
        assert_eq!(p.buffered(), 0);

        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        wire.extend_from_slice(&head[20..]);
        wire.push(*last);
        let mut p = ResponseParser::new();
        let (last, head) = wire.split_last().unwrap();
        for &b in head {
            assert_eq!(p.feed(&[b]), Ok(None));
        }
        assert_eq!(p.feed(&[*last]).unwrap().unwrap().headers.len(), i);
    }

    /// The terminator split across two feeds at each of its four positions
    /// (0 = it arrives whole in the second feed), with and without a body.
    #[test]
    fn terminator_split_across_feeds() {
        let wire = b"POST /u HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
        let end = wire.len() - 3;
        for cut in (end - 4)..=end {
            let mut p = RequestParser::new();
            assert_eq!(p.feed(&wire[..cut]), Ok(None), "cut {cut}");
            let req = p.feed(&wire[cut..]).unwrap().expect("complete");
            assert_eq!(req.body.as_ref(), b"abc");
            // The same with the body arriving in a third feed.
            let mut p = RequestParser::new();
            assert_eq!(p.feed(&wire[..cut]), Ok(None));
            assert_eq!(p.feed(&wire[cut..end + 1]), Ok(None), "body in flight");
            assert_eq!(p.feed(&wire[end + 1..]).unwrap().unwrap().body.as_ref(), b"abc");
        }
        let wire = Response::ok(&b"xy"[..]).encode();
        let end = wire.len() - 2;
        for cut in (end - 4)..=end {
            let mut p = ResponseParser::new();
            assert_eq!(p.feed(&wire[..cut]), Ok(None), "cut {cut}");
            assert_eq!(p.feed(&wire[cut..]).unwrap().unwrap().body.as_ref(), b"xy");
        }
    }

    /// Two pipelined requests in one buffer, the second longer than the
    /// first: the scan position must not survive the first one's removal.
    #[test]
    fn pipelined_requests_rescan_from_the_new_front() {
        let first = Request::post("/a", &b"0123456789"[..]).with_header("X-Long", &"h".repeat(200));
        let second = Request::get("/b").with_header("Host", "h");
        let mut wire = first.encode().to_vec();
        wire.extend_from_slice(&second.encode());
        wire.extend_from_slice(&Request::get("/c").encode());
        let mut p = RequestParser::new();
        // Everything but the last byte: two complete requests and a partial.
        let (last, head) = wire.split_last().unwrap();
        assert_eq!(p.feed(head).unwrap().unwrap().path, "/a");
        assert_eq!(p.try_parse().unwrap().unwrap().path, "/b");
        assert_eq!(p.try_parse(), Ok(None));
        assert_eq!(p.feed(&[*last]).unwrap().unwrap().path, "/c");
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn waits_for_body() {
        let mut p = RequestParser::new();
        assert!(p
            .feed(b"POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nab")
            .unwrap()
            .is_none());
        let req = p.feed(b"cde").unwrap().unwrap();
        assert_eq!(req.body.as_ref(), b"abcde");
    }

    #[test]
    fn rejects_bad_method_and_start_line() {
        assert_eq!(
            RequestParser::new().feed(b"BREW /pot HTTP/1.1\r\n\r\n"),
            Err(ParseError::BadMethod)
        );
        assert_eq!(
            RequestParser::new().feed(b"GET /x SPDY/9\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
        assert_eq!(
            RequestParser::new().feed(b"GET/x\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
    }

    #[test]
    fn rejects_bad_headers() {
        assert_eq!(
            RequestParser::new().feed(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
            Err(ParseError::BadHeader)
        );
        assert_eq!(
            RequestParser::new().feed(b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(ParseError::BadContentLength)
        );
    }

    #[test]
    fn rejects_chunked() {
        assert_eq!(
            RequestParser::new()
                .feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::ChunkedUnsupported)
        );
    }

    #[test]
    fn oversized_headers_rejected() {
        let mut p = RequestParser::new();
        let huge = vec![b'a'; MAX_HEADER_BYTES + 10];
        assert_eq!(p.feed(&huge), Err(ParseError::HeadersTooLarge));
    }

    #[test]
    fn response_round_trip() {
        let original = Response::ok(&b"body!"[..]).with_header("X-Cache", "hit");
        let mut p = ResponseParser::new();
        let parsed = p.feed(&original.encode()).unwrap().unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.body.as_ref(), b"body!");
        assert_eq!(parsed.headers.get("x-cache"), Some("hit"));
    }

    #[test]
    fn response_error_codes_parse() {
        let wire = Response::new(StatusCode::SERVICE_UNAVAILABLE, &b""[..]).encode();
        let parsed = ResponseParser::new().feed(&wire).unwrap().unwrap();
        assert_eq!(parsed.status, StatusCode::SERVICE_UNAVAILABLE);
        assert!(parsed.status.is_error());
    }
}
