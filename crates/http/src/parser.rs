//! Incremental HTTP/1.1 parsing.
//!
//! A push parser: the simulated connection feeds whatever bytes arrived;
//! [`RequestParser::feed`] returns `Ok(Some(_))` once a complete message is
//! buffered. Bodies are delimited by `Content-Length` (mesh traffic in the
//! reproduction never uses chunked encoding; a `chunked` message is rejected
//! explicitly rather than misparsed).
//!
//! Both parsers frame a message with one function, [`frame`]: find the blank
//! line, check the header section, parse the start line, check every field
//! line and size the body (RFC 9112 §2-6). A complete message is then copied
//! once into a buffer of its own, and the message handed out is spans of
//! that copy: the request target, the header section and the body (see
//! [`crate::message`]). When the parser holds nothing and one feed brings
//! the whole message, which is how a one-shot L7 hop parses, that copy is
//! the only allocation the parse makes.

use crate::message::{HeaderMap, Method, Request, Response, StatusCode, Utf8Bytes};
use bytes::{Buf, Bytes, BytesMut};
use std::ops::Range;

/// Parse failures (connection should be reset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line is not valid HTTP/1.x.
    BadStartLine,
    /// Unknown request method token.
    BadMethod,
    /// Header line missing the `:` separator.
    BadHeader,
    /// Content-Length not a number, or two that disagree.
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

/// Offset of the first LF in `bytes` at or after `from`, eight bytes a
/// step: a word XORed with eight LFs has a zero byte where `bytes` has an
/// LF, and the lowest zero byte is the lowest bit the borrow trick flags.
fn find_lf(bytes: &[u8], from: usize) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut at = from;
    while let Some(word) = bytes.get(at..at + 8) {
        let x = u64::from_le_bytes(word.try_into().ok()?) ^ (ONES * u64::from(b'\n'));
        let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
        if zero != 0 {
            return Some(at + zero.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes.get(at..)?.iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// `text` cut at every CRLF, which is dropped: what `text.split("\r\n")`
/// gives, with the LFs found by [`find_lf`]. A bare CR or LF stays inside
/// its line.
pub(crate) fn crlf_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let line = rest?;
        let mut from = 0;
        while let Some(lf) = find_lf(line.as_bytes(), from) {
            if lf > 0 && line.as_bytes()[lf - 1] == b'\r' {
                rest = line.get(lf + 1..);
                return line.get(..lf - 1);
            }
            from = lf + 1;
        }
        rest = None;
        Some(line)
    })
}

/// Find `\r\n\r\n`; returns the offset *after* it. `scanned` is where
/// earlier calls on this (only ever appended-to) buffer stopped looking: an
/// LF before it either ended no terminator or is the one found, so a header
/// section that trickles in is scanned once overall, not once per feed.
fn find_header_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let mut from = (*scanned).max(3);
    while let Some(lf) = find_lf(buf, from) {
        if buf[lf - 3..lf] == *b"\r\n\r" {
            // A later call (body still in flight) finds it again at once.
            *scanned = lf;
            return Some(lf + 1);
        }
        from = lf + 1;
    }
    *scanned = buf.len();
    None
}

/// Check every field line (`name:value`, the name non-empty and without a
/// space) and size the body: none without `Content-Length`, a chunked
/// `Transfer-Encoding` refused, and `Content-Length` only as `1*DIGIT`,
/// every copy of it the same (RFC 9112 §6.3: two that differ are how a
/// request is smuggled past a proxy that frames by the other one).
fn body_length(fields: &str) -> Result<usize, ParseError> {
    let mut transfer_encoding = None;
    let mut content_length: Option<&str> = None;
    let mut conflicting = false;
    for line in crlf_lines(fields).filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadHeader);
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            conflicting |= content_length.is_some_and(|first| first != value);
            content_length.get_or_insert(value);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_encoding.get_or_insert(value);
        }
    }
    let chunked = |te: &str| te.as_bytes().windows(7).any(|w| w.eq_ignore_ascii_case(b"chunked"));
    if transfer_encoding.is_some_and(chunked) {
        return Err(ParseError::ChunkedUnsupported);
    }
    match content_length {
        None => Ok(0),
        Some(v) if !conflicting && !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()) => {
            v.parse().map_err(|_| ParseError::BadContentLength)
        }
        Some(_) => Err(ParseError::BadContentLength),
    }
}

/// Where one message's parts lie in the buffer it was framed in.
struct Frame<S> {
    /// What the start line said.
    start: S,
    /// Where the header section starts: its field lines, then the blank
    /// line.
    fields: usize,
    /// Where the body starts.
    body: usize,
    /// The whole message's length.
    len: usize,
}

/// Frame the message at the front of `buf`: `Ok(None)` until its header
/// section is complete, then its [`Frame`] (the body may still be in
/// flight). `start_line` parses the first line; everything else is the same
/// for requests and responses.
fn frame<S>(
    buf: &[u8],
    scanned: &mut usize,
    start_line: impl FnOnce(&str) -> Result<S, ParseError>,
) -> Result<Option<Frame<S>>, ParseError> {
    let Some(body) = find_header_end(buf, scanned) else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ParseError::HeadersTooLarge);
        }
        return Ok(None);
    };
    if body > MAX_HEADER_BYTES {
        return Err(ParseError::HeadersTooLarge);
    }
    let head = std::str::from_utf8(&buf[..body - 4]).map_err(|_| ParseError::BadStartLine)?;
    let line = crlf_lines(head).next().unwrap_or(head);
    let start = start_line(line)?;
    let fields = line.len() + 2;
    let body_len = body_length(head.get(fields..).unwrap_or(""))?;
    let len = body.checked_add(body_len).ok_or(ParseError::BadContentLength)?;
    Ok(Some(Frame { start, fields, body, len }))
}

/// The request line: the method and where the target sits in it.
fn request_line(line: &str) -> Result<(Method, Range<usize>), ParseError> {
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(ParseError::BadStartLine)?;
    let path = parts.next().ok_or(ParseError::BadStartLine)?;
    let version = parts.next().ok_or(ParseError::BadStartLine)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadStartLine);
    }
    let at = method.len() + 1;
    let method = Method::parse(method).ok_or(ParseError::BadMethod)?;
    Ok((method, at..at + path.len()))
}

/// The status line's code (the reason phrase is not kept).
fn status_line(line: &str) -> Result<StatusCode, ParseError> {
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().ok_or(ParseError::BadStartLine)?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadStartLine);
    }
    let code = parts.next().ok_or(ParseError::BadStartLine)?;
    code.parse().map(StatusCode).map_err(|_| ParseError::BadStartLine)
}

/// What a connection has received and not yet handed out as a message.
#[derive(Debug, Default)]
struct Input {
    buf: BytesMut,
    /// See [`find_header_end`]; reset when a message leaves `buf`.
    scanned: usize,
}

impl Input {
    /// Append `data` and take the next complete message off the front: its
    /// frame and its bytes, copied once into a [`Bytes`] of their own. With
    /// nothing buffered the message is framed and copied straight out of
    /// `data`, which is buffered only for what is left over.
    fn next<S>(
        &mut self,
        data: &[u8],
        start_line: impl FnOnce(&str) -> Result<S, ParseError>,
    ) -> Result<Option<(Frame<S>, Bytes)>, ParseError> {
        let direct = self.buf.is_empty();
        if !direct {
            self.buf.extend_from_slice(data);
        }
        let src: &[u8] = if direct { data } else { &self.buf };
        let frame = match frame(src, &mut self.scanned, start_line) {
            Ok(Some(frame)) if frame.len <= src.len() => frame,
            incomplete_or_err => {
                if direct {
                    self.buf.extend_from_slice(data);
                }
                return incomplete_or_err.map(|_| None);
            }
        };
        let message = Bytes::copy_from_slice(&src[..frame.len]);
        if direct {
            self.buf.extend_from_slice(&data[frame.len..]);
        } else {
            drop(self.buf.split_to(frame.len));
        }
        self.scanned = 0;
        Ok(Some((frame, message)))
    }
}

/// Cut a message [`Input::next`] copied into its header section (from
/// `fields`) and its body (from `body`), both spans of the copy.
fn headers_and_body(mut message: Bytes, fields: usize, body: usize) -> (HeaderMap, Bytes) {
    let body = message.split_off(body);
    message.advance(fields);
    (HeaderMap::parsed(Utf8Bytes::checked(message)), body)
}

/// Incremental request parser for one connection.
#[derive(Debug, Default)]
pub struct RequestParser {
    input: Input,
}

impl RequestParser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed newly received bytes; returns a complete request if one is now
    /// available (leftover bytes are retained for pipelined requests).
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Request>, ParseError> {
        let Some((frame, message)) = self.input.next(data, request_line)? else {
            return Ok(None);
        };
        let (method, target) = frame.start;
        let path = Utf8Bytes::checked(message.slice(target));
        let (headers, body) = headers_and_body(message, frame.fields, frame.body);
        Ok(Some(Request { method, path, headers, body }))
    }

    /// Attempt to extract the next pipelined request from the buffer.
    pub fn try_parse(&mut self) -> Result<Option<Request>, ParseError> {
        self.feed(&[])
    }
}

/// Incremental response parser for one connection.
#[derive(Debug, Default)]
pub struct ResponseParser {
    input: Input,
}

impl ResponseParser {
    /// Fresh parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed newly received bytes; returns a complete response if available.
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<Response>, ParseError> {
        let Some((frame, message)) = self.input.next(data, status_line)? else {
            return Ok(None);
        };
        let (headers, body) = headers_and_body(message, frame.fields, frame.body);
        Ok(Some(Response { status: frame.start, headers, body }))
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
        assert_eq!(p.input.buf.len(), 0);
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
        assert_eq!(p.input.scanned, head.len(), "the scan never restarts from byte 0");
        let req = p.feed(&[*last]).unwrap().expect("complete at the final byte");
        assert_eq!(req.headers.iter().count(), i);
        assert_eq!(req.headers.get(&format!("x-pad-{}", i - 1)), Some("v".repeat(50).as_str()));
        assert_eq!(p.input.buf.len(), 0);

        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        wire.extend_from_slice(&head[20..]);
        wire.push(*last);
        let mut p = ResponseParser::new();
        let (last, head) = wire.split_last().unwrap();
        for &b in head {
            assert_eq!(p.feed(&[b]), Ok(None));
        }
        assert_eq!(p.feed(&[*last]).unwrap().unwrap().headers.iter().count(), i);
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
        let wire = Response::new(StatusCode::OK, &b"xy"[..]).encode();
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
        assert_eq!(p.input.buf.len(), 0);
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

    /// RFC 9112 §6.3: `Content-Length` is `1*DIGIT`. `usize::from_str`
    /// alone would take `+5` as 5.
    #[test]
    fn content_length_is_digits_only() {
        for bad in ["+5", "-5", "5, 5", "0x5", "5x", "", " "] {
            let wire = format!("POST /u HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhello");
            assert_eq!(RequestParser::new().feed(wire.as_bytes()), Err(ParseError::BadContentLength), "{bad:?}");
            let wire = format!("HTTP/1.1 200 OK\r\nContent-Length: {bad}\r\n\r\nhello");
            assert_eq!(ResponseParser::new().feed(wire.as_bytes()), Err(ParseError::BadContentLength), "{bad:?}");
        }
        let req = RequestParser::new().feed(b"POST /u HTTP/1.1\r\nContent-Length:  005 \r\n\r\nhello");
        assert_eq!(req.unwrap().unwrap().body.as_ref(), b"hello");
    }

    /// Two `Content-Length` fields that disagree are refused rather than
    /// framed by the first: a proxy framing by the other would see a
    /// different request. Identical copies stay accepted.
    #[test]
    fn conflicting_content_lengths_are_rejected() {
        let wire = b"POST /u HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(RequestParser::new().feed(wire), Err(ParseError::BadContentLength));
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello";
        assert_eq!(ResponseParser::new().feed(wire), Err(ParseError::BadContentLength));
        let wire = b"POST /u HTTP/1.1\r\nContent-Length: 5\r\nCONTENT-LENGTH: 5\r\n\r\nhello";
        assert_eq!(RequestParser::new().feed(wire).unwrap().unwrap().body.as_ref(), b"hello");
    }

    /// A length no buffer can reach is refused, not added up to a wrap.
    #[test]
    fn unreachable_content_length_is_rejected() {
        let wire = format!("POST /u HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(RequestParser::new().feed(wire.as_bytes()), Err(ParseError::BadContentLength));
    }

    /// The header cap holds whether the section arrives in pieces or whole:
    /// a section of exactly `MAX_HEADER_BYTES` (blank line included) is the
    /// largest accepted, one byte more is refused in one feed as in many.
    #[test]
    fn complete_oversized_head_is_rejected() {
        let head = |start: &str, total: usize| {
            let mut wire = format!("{start}\r\nX-Pad: ").into_bytes();
            wire.resize(total - 4, b'v');
            wire.extend_from_slice(b"\r\n\r\n");
            wire
        };
        let fits = head("GET /big HTTP/1.1", MAX_HEADER_BYTES);
        assert!(RequestParser::new().feed(&fits).unwrap().is_some());
        let over = head("GET /big HTTP/1.1", MAX_HEADER_BYTES + 1);
        assert_eq!(RequestParser::new().feed(&over), Err(ParseError::HeadersTooLarge));
        let mut p = RequestParser::new();
        let (first, rest) = over.split_at(MAX_HEADER_BYTES);
        assert_eq!(p.feed(first), Ok(None));
        assert_eq!(p.feed(rest), Err(ParseError::HeadersTooLarge));
        let over = head("HTTP/1.1 200 OK", MAX_HEADER_BYTES + 1);
        assert_eq!(ResponseParser::new().feed(&over), Err(ParseError::HeadersTooLarge));
    }

    /// A message that arrives whole in one feed on an empty parser is
    /// copied once, and the request is spans of that copy.
    #[test]
    fn one_feed_leaves_nothing_buffered() {
        let wire = Request::post("/a?b", &b"xyz"[..]).with_header("Host", "h").encode();
        let mut p = RequestParser::new();
        let req = p.feed(&wire).unwrap().unwrap();
        assert_eq!((req.path.as_ref(), req.path_only()), ("/a?b", "/a"));
        assert_eq!(req.headers.iter().collect::<Vec<_>>(), [("Host", "h"), ("Content-Length", "3")]);
        assert_eq!(req.body.as_ref(), b"xyz");
        assert_eq!((p.input.buf.len(), p.input.scanned), (0, 0));
    }

    #[test]
    fn response_round_trip() {
        let original = Response::new(StatusCode::OK, &b"body!"[..]).with_header("X-Cache", "hit");
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
