//! HTTP/1.1 message types.
//!
//! Requests and responses pass between the simulated browser and the virtual
//! servers as these structs; nothing serializes them. Each message knows its
//! HTTP/1.1 size (`wire_len`), which is what the link model in
//! [`crate::sim`] charges virtual time for. A response carries its payload
//! as a [`Body`], so a server can hand one rendered body to every fetch.

use crate::url::Url;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

/// Response status code (newtype over the numeric code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 500 Internal Server Error
    pub const SERVER_ERROR: StatusCode = StatusCode(500);

    /// Whether this is a 2xx code.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            403 => "Forbidden",
            404 => "Not Found",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// What kind of resource a request is for — the classification blockers use
/// (`$script`, `$image`, `$subdocument`, ... options in ABP filter syntax).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceType {
    /// Top-level HTML document.
    Document,
    /// Embedded frame document.
    SubDocument,
    /// JavaScript.
    Script,
    /// Image or tracking pixel.
    Image,
    /// CSS.
    Stylesheet,
    /// Web font.
    Font,
    /// Audio/video media.
    Media,
    /// XMLHttpRequest / fetch.
    Xhr,
    /// `navigator.sendBeacon` / ping.
    Beacon,
    /// WebSocket handshake.
    WebSocket,
    /// Anything else.
    Other,
}

impl ResourceType {
    /// The ABP option name for this type.
    pub fn abp_option(self) -> &'static str {
        match self {
            ResourceType::Document => "document",
            ResourceType::SubDocument => "subdocument",
            ResourceType::Script => "script",
            ResourceType::Image => "image",
            ResourceType::Stylesheet => "stylesheet",
            ResourceType::Font => "font",
            ResourceType::Media => "media",
            ResourceType::Xhr => "xmlhttprequest",
            ResourceType::Beacon => "ping",
            ResourceType::WebSocket => "websocket",
            ResourceType::Other => "other",
        }
    }
}

/// An HTTP GET request bound for a virtual server.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Absolute target URL.
    pub url: Url,
    /// Resource classification for blockers.
    pub resource_type: ResourceType,
    /// URL of the document that initiated the request (None for the
    /// top-level navigation itself). Drives third-party determination.
    pub initiator: Option<Url>,
}

impl HttpRequest {
    /// A GET request for `url` of the given resource type.
    pub fn get(url: Url, resource_type: ResourceType) -> Self {
        HttpRequest {
            url,
            resource_type,
            initiator: None,
        }
    }

    /// Set the initiating document (builder style).
    pub fn with_initiator(mut self, initiator: Url) -> Self {
        self.initiator = Some(initiator);
        self
    }

    /// Whether this request is third-party relative to its initiator.
    pub fn is_third_party(&self) -> bool {
        match &self.initiator {
            Some(init) => init.is_third_party_to(&self.url),
            None => false,
        }
    }

    /// Size in bytes of this request as HTTP/1.1:
    /// `GET {target} HTTP/1.1\r\nhost: {host}\r\ncontent-length: 0\r\n\r\n`,
    /// where the target is the path and query and the host carries no port.
    pub(crate) fn wire_len(&self) -> usize {
        "GET  HTTP/1.1\r\nhost: \r\ncontent-length: 0\r\n\r\n".len()
            + self.url.request_target().len()
            + self.url.host().len()
    }
}

/// A response body: shared, immutable bytes. Cloning one, or serving one
/// to many fetches, copies a pointer, never the bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Body(Arc<[u8]>);

impl Body {
    /// The allocation holding the bytes, for consumers that keep the body
    /// past the response (the compile cache stores served scripts this way).
    pub fn shared(&self) -> &Arc<[u8]> {
        &self.0
    }

    /// The body as text: borrowed when it is valid UTF-8, else decoded as
    /// [`String::from_utf8_lossy`] decodes it. The strict check comes first
    /// because it validates ASCII a word at a time, where the lossy decoder
    /// walks every byte (~2 µs against ~36 µs for a 47 KB script on a
    /// 2-vCPU VM).
    pub fn text(&self) -> Cow<'_, str> {
        match std::str::from_utf8(&self.0) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(&self.0),
        }
    }
}

impl Deref for Body {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Body {
    fn from(bytes: Vec<u8>) -> Self {
        Body(bytes.into())
    }
}

impl From<&[u8]> for Body {
    fn from(bytes: &[u8]) -> Self {
        Body(bytes.into())
    }
}

impl From<String> for Body {
    fn from(text: String) -> Self {
        text.into_bytes().into()
    }
}

impl From<&str> for Body {
    fn from(text: &str) -> Self {
        text.as_bytes().into()
    }
}

/// An HTTP response from a virtual server.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: StatusCode,
    /// Header map (lowercased names).
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with a content type and body.
    pub fn ok(content_type: &str, body: impl Into<Body>) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert("content-type".to_owned(), content_type.to_owned());
        HttpResponse {
            status: StatusCode::OK,
            headers,
            body: body.into(),
        }
    }

    /// An HTML document response.
    pub fn html(body: impl Into<Body>) -> Self {
        Self::ok("text/html; charset=utf-8", body)
    }

    /// A JavaScript response.
    pub fn javascript(body: impl Into<Body>) -> Self {
        Self::ok("application/javascript", body)
    }

    /// An empty response with the given status.
    pub fn status(status: StatusCode) -> Self {
        HttpResponse {
            status,
            headers: BTreeMap::new(),
            body: Body::default(),
        }
    }

    /// The `content-type` header value, if any.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("content-type").map(String::as_str)
    }

    /// Size in bytes of this response as HTTP/1.1: the status line
    /// `HTTP/1.1 {code} {reason}\r\n`, a `{name}: {value}\r\n` line per
    /// header, `content-length: {len}\r\n`, a blank line, then the body.
    pub(crate) fn wire_len(&self) -> usize {
        let status_line =
            "HTTP/1.1  \r\n".len() + decimal_len(self.status.0.into()) + self.status.reason().len();
        let headers: usize = self
            .headers
            .iter()
            .map(|(name, value)| name.len() + ": \r\n".len() + value.len())
            .sum();
        let length = "content-length: \r\n\r\n".len() + decimal_len(self.body.len());
        status_line + headers + length + self.body.len()
    }
}

/// Number of decimal digits in `n`.
fn decimal_len(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    /// Byte counts of the HTTP/1.1 serializations the link model charges
    /// for, as an encoder writing each message out would produce them.
    #[test]
    fn wire_len_matches_http11_encoding() {
        let get = |u: &str| HttpRequest::get(url(u), ResourceType::Document).wire_len();
        assert_eq!(get("http://example.com/hello"), 61);
        assert_eq!(get("http://cdn.example.com/assets/app.js?p=2"), 77);
        assert_eq!(get("https://example.com:8443/a/b?q=1#frag"), 63);

        assert_eq!(HttpResponse::html("<html>hi</html>").wire_len(), 94);
        assert_eq!(HttpResponse::status(StatusCode::NOT_FOUND).wire_len(), 45);
        assert_eq!(HttpResponse::status(StatusCode(503)).wire_len(), 55);
        assert_eq!(HttpResponse::status(StatusCode(299)).wire_len(), 43);
        assert_eq!(
            HttpResponse::javascript("x".repeat(2_000)).wire_len(),
            2_079
        );
        assert_eq!(HttpResponse::ok("image/gif", "GIF89a").wire_len(), 69);
    }

    #[test]
    fn body_text_borrows_valid_utf8_and_decodes_the_rest_lossily() {
        let valid = Body::from("var s = 'é';");
        assert!(matches!(valid.text(), Cow::Borrowed("var s = 'é';")));
        for bytes in [&b"a\xffb"[..], b"\xe2\x82", b"ok\xc3(\xa9"] {
            let body = Body::from(bytes);
            assert_eq!(body.text(), String::from_utf8_lossy(bytes));
        }
    }

    #[test]
    fn third_party_detection() {
        let req = HttpRequest::get(url("http://ads.net/pixel.gif"), ResourceType::Image)
            .with_initiator(url("http://news.com/"));
        assert!(req.is_third_party());
        let own = HttpRequest::get(url("http://cdn.news.com/app.js"), ResourceType::Script)
            .with_initiator(url("http://news.com/"));
        assert!(!own.is_third_party());
        let nav = HttpRequest::get(url("http://news.com/"), ResourceType::Document);
        assert!(!nav.is_third_party());
    }

    #[test]
    fn status_helpers() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert_eq!(StatusCode(503).reason(), "Service Unavailable");
    }

    #[test]
    fn resource_type_abp_names() {
        assert_eq!(ResourceType::Script.abp_option(), "script");
        assert_eq!(ResourceType::Xhr.abp_option(), "xmlhttprequest");
        assert_eq!(ResourceType::Beacon.abp_option(), "ping");
    }
}
