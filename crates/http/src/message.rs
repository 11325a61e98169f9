//! HTTP/1.1 messages: methods, status codes, headers, request/response
//! structs and their byte serializers.
//!
//! There is one representation of a message, whether it was parsed or
//! built: the method or status is a field, and the target, the header
//! section and the body are [`Bytes`] spans. The parser hands out spans of
//! the one copy it made of the message; the builders write spans of their
//! own, and [`Request::encode`] / [`Response::encode`] read either the same
//! way. Header lookups walk the header section in place.

use crate::parser::crlf_lines;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::ops::Deref;

/// HTTP request method (the subset mesh traffic uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
    /// HEAD
    Head,
    /// OPTIONS
    Options,
    /// PATCH
    Patch,
}

impl Method {
    /// Canonical token.
    pub const fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
            Method::Patch => "PATCH",
        }
    }

    /// Parse a token (case-sensitive, per RFC 9110).
    pub(crate) fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            "OPTIONS" => Method::Options,
            "PATCH" => Method::Patch,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 403 Forbidden (authorization denials)
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found (no route matched)
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 429 Too Many Requests (rate limiting / throttling)
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 503 Service Unavailable (no healthy backend)
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Whether this is a 4xx/5xx code (the "error codes" of Fig. 20).
    pub const fn is_error(self) -> bool {
        self.0 >= 400
    }

    /// Reason phrase for serialization.
    pub(crate) fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// UTF-8 text held as a span of a message buffer: a request's target, a
/// message's header section. Only ever built from text known to be UTF-8
/// (a `&str`, or bytes the parser has checked), so it reads as a `str`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Utf8Bytes(Bytes);

impl Utf8Bytes {
    /// `bytes`, which the caller has checked are UTF-8.
    pub(crate) fn checked(bytes: Bytes) -> Self {
        Utf8Bytes(bytes)
    }

    /// The text's bytes, read without checking them again.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

impl From<&str> for Utf8Bytes {
    fn from(s: &str) -> Self {
        Utf8Bytes(Bytes::from(s))
    }
}

impl Deref for Utf8Bytes {
    type Target = str;

    fn deref(&self) -> &str {
        // Every constructor holds UTF-8, so the fallback is never taken.
        std::str::from_utf8(&self.0).unwrap_or_default()
    }
}

impl fmt::Debug for Utf8Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Utf8Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl PartialEq<&str> for Utf8Bytes {
    fn eq(&self, other: &&str) -> bool {
        **self == **other
    }
}

/// A message's header fields, read in place from its header section: the
/// `name:value` lines after the start line, each ending in CRLF (a parsed
/// section also holds the blank line). Names compare case-insensitively,
/// duplicates are kept in order, and a value is reported without the
/// whitespace around it.
#[derive(Clone, Default)]
pub struct HeaderMap {
    section: Utf8Bytes,
}

impl HeaderMap {
    /// A header section the parser has checked: every line but the blank
    /// one holds a `:`.
    pub(crate) fn parsed(section: Utf8Bytes) -> Self {
        HeaderMap { section }
    }

    /// This section with a `name: value` line appended.
    fn with(&self, name: &str, value: &str) -> Self {
        let section = [&*self.section, name, ": ", value, "\r\n"].concat();
        HeaderMap { section: Utf8Bytes(Bytes::from(section)) }
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v)
    }

    /// All values for `name`, case-insensitive.
    pub(crate) fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Iterate `(name, value)` pairs in the order they were sent or added.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        crlf_lines(&self.section)
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name, value.trim()))
    }

    /// Cookie value by key from any `Cookie:` header (`k=v; k2=v2` format),
    /// as used by A/B-testing predicates.
    pub(crate) fn cookie(&self, key: &str) -> Option<&str> {
        for cookies in self.get_all("cookie") {
            for pair in cookies.split(';') {
                let pair = pair.trim();
                if let Some((k, v)) = pair.split_once('=') {
                    if k == key {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// Serialize as field lines, each `name: value` and CRLF-terminated.
    fn encode_into(&self, buf: &mut BytesMut) {
        for (n, v) in self.iter() {
            buf.put_slice(n.as_bytes());
            buf.put_slice(b": ");
            buf.put_slice(v.as_bytes());
            buf.put_slice(b"\r\n");
        }
    }
}

impl PartialEq for HeaderMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for HeaderMap {}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The part of a request target before any `?`.
pub(crate) fn before_query(path: &[u8]) -> &[u8] {
    path.split(|&b| b == b'?').next().unwrap_or(path)
}

/// An HTTP/1.1 request. A parsed one's target, headers and body are spans
/// of the one buffer the parser copied the message into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (origin-form path, possibly with query).
    pub path: Utf8Bytes,
    /// Headers.
    pub headers: HeaderMap,
    /// Body bytes (empty when absent).
    pub body: Bytes,
}

impl Request {
    /// A GET request with no body.
    pub fn get(path: &str) -> Self {
        Request {
            method: Method::Get,
            ..Self::post(path, Bytes::new())
        }
    }

    /// A POST request with a body (Content-Length added at serialization).
    pub fn post(path: &str, body: impl Into<Bytes>) -> Self {
        Request {
            method: Method::Post,
            path: Utf8Bytes::from(path),
            headers: HeaderMap::default(),
            body: body.into(),
        }
    }

    /// Builder-style header attachment.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers = self.headers.with(name, value);
        self
    }

    /// Path without the query string.
    pub fn path_only(&self) -> &str {
        // Cut at an ASCII byte, so the part before it is UTF-8 as well.
        std::str::from_utf8(before_query(self.path.as_bytes())).unwrap_or_default()
    }

    /// Serialize to wire bytes (Content-Length emitted when a body exists or
    /// the method conventionally carries one).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.body.len());
        buf.put_slice(self.method.as_str().as_bytes());
        buf.put_u8(b' ');
        buf.put_slice(self.path.as_bytes());
        buf.put_slice(b" HTTP/1.1\r\n");
        self.headers.encode_into(&mut buf);
        if !self.body.is_empty() || matches!(self.method, Method::Post | Method::Put | Method::Patch)
        {
            buf.put_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        }
        buf.put_slice(b"\r\n");
        buf.put_slice(&self.body);
        buf.freeze()
    }
}

/// An HTTP/1.1 response, laid out like [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Headers.
    pub headers: HeaderMap,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// A response with the given status and body.
    pub fn new(status: StatusCode, body: impl Into<Bytes>) -> Self {
        Response {
            status,
            headers: HeaderMap::default(),
            body: body.into(),
        }
    }

    /// Builder-style header attachment.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers = self.headers.with(name, value);
        self
    }

    /// Serialize to wire bytes (Content-Length always emitted).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.body.len());
        buf.put_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status.0, self.status.reason()).as_bytes(),
        );
        self.headers.encode_into(&mut buf);
        buf.put_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        buf.put_slice(b"\r\n");
        buf.put_slice(&self.body);
        buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Head,
            Method::Options,
            Method::Patch,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("get"), None); // case-sensitive
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn status_categories() {
        assert!(!StatusCode::OK.is_error());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_error());
        assert!(StatusCode::TOO_MANY_REQUESTS.is_error());
        assert_eq!(StatusCode(200).reason(), "OK");
        assert_eq!(StatusCode(599).reason(), "Unknown");
    }

    #[test]
    fn header_map_case_insensitive() {
        let h = Request::get("/")
            .with_header("Content-Type", "text/plain")
            .with_header("X-Canary", "true")
            .headers;
        assert_eq!(h.get("content-type"), Some("text/plain"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        assert_eq!(h.get("x-canary"), Some("true"));
        assert_eq!(h.get("absent"), None);
        assert_eq!(h.iter().count(), 2);
        assert!(Request::get("/").headers.iter().next().is_none());
    }

    #[test]
    fn header_map_duplicates_preserved() {
        let h = Response::new(StatusCode::OK, Bytes::new())
            .with_header("Set-Cookie", "a=1")
            .with_header("set-cookie", "b=2")
            .headers;
        let all: Vec<&str> = h.get_all("Set-Cookie").collect();
        assert_eq!(all, vec!["a=1", "b=2"]);
        assert_eq!(h.get("set-cookie"), Some("a=1"));
    }

    #[test]
    fn cookie_extraction() {
        let h = Request::get("/")
            .with_header("Cookie", "session=abc; user_group=beta; theme=dark")
            .headers;
        assert_eq!(h.cookie("user_group"), Some("beta"));
        assert_eq!(h.cookie("session"), Some("abc"));
        assert_eq!(h.cookie("absent"), None);
    }

    /// A built request and the same request parsed from its bytes are the
    /// same value, and encode to the same bytes.
    #[test]
    fn built_and_parsed_requests_are_one_representation() {
        let built = Request::get("/a/b?q=1")
            .with_header("Host", "h")
            .with_header("X-Empty", "");
        let wire = built.encode();
        let parsed = crate::RequestParser::new().feed(&wire).unwrap().unwrap();
        assert_eq!(parsed, built);
        assert_eq!(parsed.path, "/a/b?q=1");
        assert_eq!(parsed.encode(), wire);
        assert_eq!(format!("{:?}", parsed.headers), r#"[("Host", "h"), ("X-Empty", "")]"#);
    }

    #[test]
    fn request_encoding() {
        let req = Request::get("/api/v1/items?limit=10").with_header("Host", "svc.example");
        let wire = req.encode();
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.starts_with("GET /api/v1/items?limit=10 HTTP/1.1\r\n"));
        assert!(text.contains("Host: svc.example\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
        assert_eq!(req.path_only(), "/api/v1/items");
    }

    #[test]
    fn post_gets_content_length() {
        let req = Request::post("/submit", &b"x=1"[..]);
        let text = String::from_utf8(req.encode().to_vec()).unwrap();
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nx=1"));
    }

    #[test]
    fn response_encoding() {
        let resp = Response::new(StatusCode::OK, &b"hello"[..]).with_header("X-Served-By", "gateway");
        let text = String::from_utf8(resp.encode().to_vec()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("X-Served-By: gateway\r\n"));
        assert!(text.ends_with("hello"));
    }
}
