//! HTTP/1.1 requests and responses.
//!
//! Messages have both a structured form (used by the browser, caches and the
//! parasite logic) and an HTTP/1.1 wire form (used when a message travels
//! across a simulated TCP connection, where the master's injector races
//! spoofed wire bytes against the genuine server).

use crate::body::{Body, ResourceKind};
use crate::error::HttpError;
use crate::headers::{names, HeaderMap};
use crate::url::{Scheme, Url};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// HTTP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// GET — the only method browser subresource fetches use here.
    Get,
    /// POST — used by login forms and the C&C upstream channel.
    Post,
    /// HEAD.
    Head,
}

impl Method {
    /// Wire name of the method.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }

    /// Parses a method token.
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 304 Not Modified — what the parasite must *prevent* the server from
    /// sending, because a 304 would revalidate the genuine object.
    pub const NOT_MODIFIED: StatusCode = StatusCode(304);
    /// 301 Moved Permanently.
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    /// 302 Found.
    pub const FOUND: StatusCode = StatusCode(302);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 500 Internal Server Error.
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);

    /// Returns `true` for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Returns `true` for 3xx codes.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// The standard reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Full target URL.
    pub url: Url,
    /// Headers.
    pub headers: HeaderMap,
    /// Body (empty for GET).
    pub body: Body,
}

impl Request {
    /// Creates a GET request for `url` with a `Host` header.
    pub fn get(url: Url) -> Self {
        let mut headers = HeaderMap::new();
        headers.set(names::HOST, url.host.clone());
        Request {
            method: Method::Get,
            url,
            headers,
            body: Body::empty(),
        }
    }

    /// Creates a POST request with a body.
    pub fn post(url: Url, body: Body) -> Self {
        let mut headers = HeaderMap::new();
        headers.set(names::HOST, url.host.clone());
        headers.set(names::CONTENT_LENGTH, body.len().to_string());
        Request {
            method: Method::Post,
            url,
            headers,
            body,
        }
    }

    /// Adds a conditional-request validator (`If-None-Match`).
    pub fn with_etag_validator(mut self, etag: &str) -> Self {
        self.headers.set(names::IF_NONE_MATCH, etag);
        self
    }

    /// Returns `true` if the request carries any conditional validators.
    pub fn is_conditional(&self) -> bool {
        self.headers.contains(names::IF_NONE_MATCH) || self.headers.contains(names::IF_MODIFIED_SINCE)
    }

    /// Removes all conditional validators. The master applies this to
    /// forwarded revalidation requests so the server answers with a full
    /// `200` body instead of `304 Not Modified` (paper §VI-A, "requesting the
    /// infected objects").
    pub fn strip_validators(&mut self) {
        self.headers.remove(names::IF_NONE_MATCH);
        self.headers.remove(names::IF_MODIFIED_SINCE);
    }

    /// Serialises the request to its HTTP/1.1 wire form.
    pub fn to_wire(&self) -> Vec<u8> {
        let target = match &self.url.query {
            Some(q) => format!("{}?{}", self.url.path, q),
            None => self.url.path.clone(),
        };
        let mut out = format!("{} {} HTTP/1.1\r\n{}\r\n", self.method, target, self.headers.to_wire()).into_bytes();
        out.extend_from_slice(&self.body.bytes);
        out
    }

    /// Parses a request from its wire form (assumes the full message is
    /// present, as the simulator delivers complete streams).
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::MalformedMessage`] when the request line or
    /// headers cannot be parsed.
    pub fn from_wire(bytes: &[u8], scheme: Scheme) -> Result<Self, HttpError> {
        let (head, body_bytes) = split_head(bytes)?;
        let mut lines = head.lines();
        let request_line = lines.next().ok_or_else(|| HttpError::MalformedMessage {
            reason: "missing request line".into(),
        })?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| HttpError::MalformedMessage {
                reason: format!("bad method in request line {request_line:?}"),
            })?;
        let target = parts.next().ok_or_else(|| HttpError::MalformedMessage {
            reason: "missing request target".into(),
        })?;

        let mut headers = HeaderMap::new();
        for_each_header(lines, |name, value| headers.append(name, value.to_string()))?;
        let host = headers.get(names::HOST).unwrap_or("unknown.host").to_string();
        let url = Url::parse(&format!("{}://{}{}", scheme.as_str(), host, target))?;
        let kind = headers
            .get(names::CONTENT_TYPE)
            .map(ResourceKind::from_content_type)
            .unwrap_or(ResourceKind::Other);
        Ok(Request {
            method,
            url,
            headers,
            body: Body::binary(kind, body_bytes.to_vec()),
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Headers.
    pub headers: HeaderMap,
    /// Body.
    pub body: Body,
}

impl Response {
    /// Creates a `200 OK` response carrying `body`.
    pub fn ok(body: Body) -> Self {
        let mut headers = HeaderMap::new();
        headers.set(names::CONTENT_TYPE, body.kind.content_type());
        headers.set(names::CONTENT_LENGTH, body.len().to_string());
        Response {
            status: StatusCode::OK,
            headers,
            body,
        }
    }

    /// Creates a `304 Not Modified` response.
    pub fn not_modified() -> Self {
        Response {
            status: StatusCode::NOT_MODIFIED,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// Creates a `404 Not Found` response.
    pub fn not_found() -> Self {
        Response {
            status: StatusCode::NOT_FOUND,
            headers: HeaderMap::new(),
            body: Body::text(ResourceKind::Html, "<html><body>404</body></html>"),
        }
    }

    /// Sets the `Cache-Control` header (builder style).
    pub fn with_cache_control(mut self, value: &str) -> Self {
        self.headers.set(names::CACHE_CONTROL, value);
        self
    }

    /// Sets an `ETag` (builder style).
    pub fn with_etag(mut self, etag: &str) -> Self {
        self.headers.set(names::ETAG, etag);
        self
    }

    /// Sets an arbitrary header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.set(name, value);
        self
    }

    /// Serialises the response to its HTTP/1.1 wire form.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = format!(
            "HTTP/1.1 {}\r\n{}\r\n",
            self.status,
            self.headers.to_wire()
        )
        .into_bytes();
        out.extend_from_slice(&self.body.bytes);
        out
    }

    /// Parses a response from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::MalformedMessage`] when the status line or headers
    /// cannot be parsed.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, HttpError> {
        let mut headers = HeaderMap::new();
        let frame = frame_response(bytes, |name, value| headers.append(name, value.to_string()))?;
        let kind = headers
            .get(names::CONTENT_TYPE)
            .map(ResourceKind::from_content_type)
            .unwrap_or(ResourceKind::Other);
        Ok(Response {
            status: frame.status,
            headers,
            body: Body::binary(kind, frame.body.to_vec()),
        })
    }

    /// Frames a response on the wire without copying it: the same status
    /// and header validation as [`Response::from_wire`], and the same body,
    /// borrowed. Nothing is allocated when the head is valid UTF-8.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`Response::from_wire`] does.
    pub fn frame(bytes: &[u8]) -> Result<ResponseFrame<'_>, HttpError> {
        frame_response(bytes, |_, _| {})
    }
}

/// A response framed in place by [`Response::frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame<'a> {
    /// Status code.
    pub status: StatusCode,
    /// The body bytes `Content-Length` delimits (all the bytes after the
    /// head when the header is absent or unparseable).
    pub body: &'a [u8],
}

/// The one response head parser: validates the status line and the header
/// lines, hands each header to `on_header` as a trimmed `(name, value)` pair,
/// and frames the body by the first `Content-Length` header.
fn frame_response<'a>(
    bytes: &'a [u8],
    mut on_header: impl FnMut(&str, &str),
) -> Result<ResponseFrame<'a>, HttpError> {
    let (head, body_bytes) = split_head(bytes)?;
    let mut lines = head.lines();
    let status_line = lines.next().ok_or_else(|| HttpError::MalformedMessage {
        reason: "missing status line".into(),
    })?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::MalformedMessage {
            reason: format!("unsupported version in status line {status_line:?}"),
        });
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| HttpError::MalformedMessage {
            reason: format!("bad status code in {status_line:?}"),
        })?;
    // Respect Content-Length framing: bytes beyond the declared length do
    // not belong to this message. This matters for the injection-race
    // experiments, where a losing attacker's late segments can trail the
    // genuine response in the byte stream. Like `HeaderMap::get`, the first
    // header of that name decides.
    let mut content_length: Option<Option<usize>> = None;
    for_each_header(lines, |name, value| {
        if content_length.is_none() && name.eq_ignore_ascii_case(names::CONTENT_LENGTH) {
            content_length = Some(value.parse().ok());
        }
        on_header(name, value);
    })?;
    let body_len = content_length
        .flatten()
        .unwrap_or(body_bytes.len())
        .min(body_bytes.len());
    Ok(ResponseFrame {
        status: StatusCode(code),
        body: &body_bytes[..body_len],
    })
}

/// Splits a message at its blank line. The head is decoded lossily, and
/// borrowed whenever it is valid UTF-8.
fn split_head(bytes: &[u8]) -> Result<(Cow<'_, str>, &[u8]), HttpError> {
    let window = bytes.windows(4).position(|w| w == b"\r\n\r\n");
    match window {
        Some(idx) => Ok((String::from_utf8_lossy(&bytes[..idx]), &bytes[idx + 4..])),
        None => Err(HttpError::MalformedMessage {
            reason: "missing header/body separator".into(),
        }),
    }
}

/// Validates header lines (blank lines are skipped, every other line needs a
/// colon) and hands each trimmed `(name, value)` pair to `on_header`.
fn for_each_header<'a>(
    lines: impl Iterator<Item = &'a str>,
    mut on_header: impl FnMut(&str, &str),
) -> Result<(), HttpError> {
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| HttpError::MalformedMessage {
            reason: format!("header line without colon: {line:?}"),
        })?;
        on_header(name.trim(), value.trim());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_request_wire_round_trip() {
        let url = Url::parse("http://somesite.com/my.js?v=3").unwrap();
        let request = Request::get(url.clone());
        let wire = request.to_wire();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("GET /my.js?v=3 HTTP/1.1\r\n"));
        assert!(text.contains("Host: somesite.com\r\n"));

        let parsed = Request::from_wire(&wire, Scheme::Http).unwrap();
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(parsed.url, url);
    }

    #[test]
    fn post_request_carries_body_and_length() {
        let url = Url::parse("https://mail.example/send").unwrap();
        let body = Body::text(ResourceKind::Other, "to=alice&subject=hi");
        let request = Request::post(url, body);
        assert_eq!(request.headers.get("content-length"), Some("19"));
        let parsed = Request::from_wire(&request.to_wire(), Scheme::Https).unwrap();
        assert_eq!(parsed.body.as_text(), "to=alice&subject=hi");
        assert_eq!(parsed.method, Method::Post);
    }

    #[test]
    fn response_wire_round_trip_preserves_headers_and_body() {
        let body = Body::text(ResourceKind::JavaScript, "console.log('hi');");
        let response = Response::ok(body)
            .with_cache_control("public, max-age=31536000")
            .with_etag("\"v1\"");
        let wire = response.to_wire();
        let parsed = Response::from_wire(&wire).unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.headers.get("cache-control"), Some("public, max-age=31536000"));
        assert_eq!(parsed.headers.get("etag"), Some("\"v1\""));
        assert_eq!(parsed.body.kind, ResourceKind::JavaScript);
        assert_eq!(parsed.body.as_text(), "console.log('hi');");
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Response::from_wire(b"not http at all").is_err());
        assert!(Response::from_wire(b"SPDY/3 200 OK\r\n\r\n").is_err());
        assert!(Request::from_wire(b"FETCH / HTTP/1.1\r\n\r\n", Scheme::Http).is_err());
        assert!(Request::from_wire(b"GET /\r\nbroken", Scheme::Http).is_err());
    }

    #[test]
    fn conditional_request_detection_and_stripping() {
        let url = Url::parse("http://top1.com/persistent.js").unwrap();
        let mut request = Request::get(url).with_etag_validator("\"abc\"");
        assert!(request.is_conditional());
        request.strip_validators();
        assert!(!request.is_conditional());
    }

    #[test]
    fn status_code_classification() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::OK.is_redirect());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(!StatusCode::NOT_MODIFIED.is_success());
        assert_eq!(StatusCode::NOT_MODIFIED.to_string(), "304 Not Modified");
    }

    #[test]
    fn not_modified_and_not_found_constructors() {
        assert_eq!(Response::not_modified().status, StatusCode::NOT_MODIFIED);
        assert!(Response::not_modified().body.is_empty());
        assert_eq!(Response::not_found().status, StatusCode::NOT_FOUND);
    }
}

#[cfg(test)]
mod framing_tests {
    use super::*;

    #[test]
    fn trailing_bytes_beyond_content_length_are_not_part_of_the_body() {
        let body = Body::text(ResourceKind::JavaScript, "function genuine(){}");
        let response = Response::ok(body);
        let mut wire = response.to_wire();
        wire.extend_from_slice(b";TRAILING_GARBAGE_FROM_A_LATE_SEGMENT;");
        let parsed = Response::from_wire(&wire).unwrap();
        assert_eq!(parsed.body.as_text(), "function genuine(){}");
    }

    #[test]
    fn framing_in_place_matches_the_parsed_response() {
        let body = Body::text(ResourceKind::JavaScript, "function genuine(){}");
        let mut wire = Response::ok(body).to_wire();
        wire.extend_from_slice(b";late segment");
        let frame = Response::frame(&wire).unwrap();
        let parsed = Response::from_wire(&wire).unwrap();
        assert_eq!(frame.status, parsed.status);
        assert_eq!(frame.body, &parsed.body.bytes[..]);
        // The first Content-Length decides, as `HeaderMap::get` does.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\ncontent-length: 5\r\n\r\nabcdefg";
        assert_eq!(Response::frame(wire).unwrap().body, b"abc");
        assert_eq!(Response::from_wire(wire).unwrap().body.bytes, b"abc");
        assert!(Response::frame(b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n").is_err());
    }

    #[test]
    fn responses_without_content_length_keep_all_bytes() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n<html>all of this</html>";
        let parsed = Response::from_wire(wire).unwrap();
        assert_eq!(parsed.body.as_text(), "<html>all of this</html>");
    }
}
