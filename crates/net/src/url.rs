//! URL parsing, resolution, and origin logic.
//!
//! A from-scratch implementation of the subset of the WHATWG URL model the
//! study needs: absolute `http`/`https` URLs, relative reference resolution
//! against a base, path normalization (`.` / `..`), query strings, and the
//! origin / registrable-domain comparisons that advertising and tracking
//! blockers use to decide whether a request is *third-party*.

use std::fmt;

/// A parsed absolute URL (scheme, host, port, path, query).
///
/// Fragments are parsed and discarded (they never reach the network). User
/// info is not supported — the crawl never authenticates (the paper measures
/// the *open* web only, §4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: String,
    host: String,
    port: Option<u16>,
    path: String,
    query: Option<String>,
}

/// Error from [`Url::parse`] / [`Url::join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlError(pub String);

impl fmt::Display for UrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL: {}", self.0)
    }
}

impl std::error::Error for UrlError {}

impl Url {
    /// Parse an absolute URL. Only `http` and `https` schemes are accepted.
    pub fn parse(input: &str) -> Result<Url, UrlError> {
        let input = input.trim();
        let (scheme, rest) = input
            .split_once("://")
            .ok_or_else(|| UrlError(format!("missing scheme in {input:?}")))?;
        let scheme = scheme.to_ascii_lowercase();
        if scheme != "http" && scheme != "https" {
            return Err(UrlError(format!("unsupported scheme {scheme:?}")));
        }
        // Strip fragment first: it never reaches the network. The authority
        // then ends at the path or, when there is none, at the query.
        let rest = rest.split('#').next().unwrap_or(rest);
        let (authority, path_query) = match rest.find(['/', '?']) {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(UrlError(format!("empty host in {input:?}")));
        }
        if authority.contains('@') {
            return Err(UrlError("userinfo not supported".into()));
        }
        let (host, port) = match authority.rsplit_once(':') {
            // An empty port is the scheme's default, as if it were absent.
            Some((h, "")) => (h, None),
            Some((h, p)) => {
                let port: u16 = p.parse().map_err(|_| UrlError(format!("bad port {p:?}")))?;
                (h, Some(port))
            }
            None => (authority, None),
        };
        let host = host.to_ascii_lowercase();
        if host.is_empty()
            || !host
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-')
        {
            return Err(UrlError(format!("bad host {host:?}")));
        }
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_owned())),
            None => (path_query, None),
        };
        Ok(Url {
            scheme,
            host,
            port,
            path: normalize_path(path),
            query,
        })
    }

    /// Resolve a (possibly relative) reference against this URL as base.
    ///
    /// Supports absolute URLs, protocol-relative (`//host/...`),
    /// root-relative (`/path`), relative paths, and query-only (`?q`)
    /// references.
    pub fn join(&self, reference: &str) -> Result<Url, UrlError> {
        let reference = reference.trim();
        let reference = reference.split('#').next().unwrap_or("");
        if reference.is_empty() {
            return Ok(self.clone());
        }
        if has_scheme(reference) {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme, rest));
        }
        if let Some(q) = reference.strip_prefix('?') {
            let mut out = self.clone();
            out.query = Some(q.to_owned());
            return Ok(out);
        }
        let mut out = self.clone();
        if let Some(root) = reference.strip_prefix('/') {
            let (path, query) = split_path_query(root);
            out.path = normalize_path(&format!("/{path}"));
            out.query = query;
        } else {
            let (path, query) = split_path_query(reference);
            let base_dir = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            out.path = normalize_path(&format!("{base_dir}{path}"));
            out.query = query;
        }
        Ok(out)
    }

    /// The scheme (`http` or `https`).
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Lowercased host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Explicit port, if any.
    pub fn port(&self) -> Option<u16> {
        self.port
    }

    /// Port in effect (explicit, or the scheme default).
    pub fn effective_port(&self) -> u16 {
        self.port
            .unwrap_or(if self.scheme == "https" { 443 } else { 80 })
    }

    /// Normalized path, always beginning with `/`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Raw query string (without `?`), if present.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// Path plus query, as sent on the request line.
    pub fn request_target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// `scheme://host[:port]`, the origin triple used for same-origin checks.
    pub fn origin(&self) -> String {
        match self.port {
            Some(p) => format!("{}://{}:{}", self.scheme, self.host, p),
            None => format!("{}://{}", self.scheme, self.host),
        }
    }

    /// The registrable domain: the last two labels of the host
    /// (`cdn.ads.example.com` → `example.com`).
    ///
    /// Real browsers consult the Public Suffix List; our synthetic web only
    /// mints two-label registrable domains, so last-two-labels is exact here.
    pub fn registrable_domain(&self) -> &str {
        registrable_domain_of(&self.host)
    }

    /// Whether `other` is third-party relative to `self` (different
    /// registrable domain) — the test blockers apply to requests.
    pub fn is_third_party_to(&self, other: &Url) -> bool {
        self.registrable_domain() != other.registrable_domain()
    }

    /// Path segments, excluding empty ones: `/a/b/` → `["a", "b"]`.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// First path segment (the "directory" the paper's crawl strategy uses
    /// to prefer structurally novel URLs), or `""` for the root.
    pub fn first_segment(&self) -> &str {
        self.path_segments().first().copied().unwrap_or("")
    }
}

/// Registrable domain of a bare host string (last two labels). Trailing
/// dots are dropped first: `www.a.com.` names the same site as `www.a.com`.
pub fn registrable_domain_of(host: &str) -> &str {
    let host = host.trim_end_matches('.');
    let mut dots = 0;
    for (i, b) in host.bytes().enumerate().rev() {
        if b == b'.' {
            dots += 1;
            if dots == 2 {
                return &host[i + 1..];
            }
        }
    }
    host
}

/// Whether `reference` is absolute: a scheme (`[A-Za-z][A-Za-z0-9+.-]*`)
/// followed by `://`. A `://` later on, as in `/out?u=http://b.com/`, is
/// part of a relative reference.
fn has_scheme(reference: &str) -> bool {
    let Some((scheme, _)) = reference.split_once("://") else {
        return false;
    };
    let mut chars = scheme.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
}

fn split_path_query(s: &str) -> (String, Option<String>) {
    match s.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (s.to_owned(), None),
    }
}

/// Normalize `.` and `..` segments and collapse duplicate slashes.
fn normalize_path(path: &str) -> String {
    let trailing_slash = path.ends_with('/') && path.len() > 1;
    let mut stack: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                stack.pop();
            }
            other => stack.push(other),
        }
    }
    let mut out = String::from("/");
    out.push_str(&stack.join("/"));
    if trailing_slash && out.len() > 1 {
        out.push('/');
    }
    out
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        write!(f, "{}", self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic() {
        let u = Url::parse("http://www.Example.com/a/b?x=1#frag").unwrap();
        assert_eq!(u.scheme(), "http");
        assert_eq!(u.host(), "www.example.com");
        assert_eq!(u.path(), "/a/b");
        assert_eq!(u.query(), Some("x=1"));
        assert_eq!(u.port(), None);
        assert_eq!(u.effective_port(), 80);
    }

    #[test]
    fn parses_port_and_https_default() {
        let u = Url::parse("https://example.com:8443/").unwrap();
        assert_eq!(u.port(), Some(8443));
        assert_eq!(
            Url::parse("https://example.com/").unwrap().effective_port(),
            443
        );
    }

    #[test]
    fn bare_host_gets_root_path() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path(), "/");
    }

    #[test]
    fn query_or_port_right_after_the_host() {
        let u = Url::parse("http://a.com?q=1").unwrap();
        assert_eq!((u.host(), u.path(), u.query()), ("a.com", "/", Some("q=1")));
        assert_eq!(u.to_string(), "http://a.com/?q=1");
        let u = Url::parse("http://a.com:8080?q").unwrap();
        assert_eq!(u.port(), Some(8080));
        assert_eq!((u.path(), u.query()), ("/", Some("q")));
        let base = Url::parse("https://a.com/x/y").unwrap();
        assert_eq!(
            base.join("//b.com?q=1").unwrap().to_string(),
            "https://b.com/?q=1"
        );
        // An empty port is the scheme's default.
        let u = Url::parse("http://a.com:/x").unwrap();
        assert_eq!((u.port(), u.effective_port()), (None, 80));
        assert_eq!(u.to_string(), "http://a.com/x");
        assert_eq!(
            base.join("//b.com:/x").unwrap().to_string(),
            "https://b.com/x"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Url::parse("ftp://example.com/").is_err());
        assert!(Url::parse("example.com/").is_err());
        assert!(Url::parse("http:///path").is_err());
        assert!(Url::parse("http://user@example.com/").is_err());
        assert!(Url::parse("http://exa mple.com/").is_err());
        assert!(Url::parse("http://example.com:notaport/").is_err());
    }

    #[test]
    fn join_absolute_and_protocol_relative() {
        let base = Url::parse("https://a.com/x/y").unwrap();
        assert_eq!(
            base.join("http://b.com/z").unwrap().to_string(),
            "http://b.com/z"
        );
        assert_eq!(
            base.join("//c.com/w").unwrap().to_string(),
            "https://c.com/w"
        );
    }

    #[test]
    fn join_root_and_relative() {
        let base = Url::parse("http://a.com/dir/page.html?q=1").unwrap();
        assert_eq!(base.join("/top").unwrap().to_string(), "http://a.com/top");
        assert_eq!(
            base.join("other.html").unwrap().to_string(),
            "http://a.com/dir/other.html"
        );
        assert_eq!(
            base.join("../up.html").unwrap().to_string(),
            "http://a.com/up.html"
        );
        assert_eq!(
            base.join("?only=query").unwrap().to_string(),
            "http://a.com/dir/page.html?only=query"
        );
        assert_eq!(base.join("").unwrap(), base);
        assert_eq!(base.join("#frag").unwrap(), base);
    }

    #[test]
    fn join_relative_references_that_carry_a_url() {
        let base = Url::parse("http://a.com/dir/page.html").unwrap();
        assert_eq!(
            base.join("/out?u=http://b.com/x").unwrap().to_string(),
            "http://a.com/out?u=http://b.com/x"
        );
        assert_eq!(
            base.join("track?ref=https://c.com/").unwrap().to_string(),
            "http://a.com/dir/track?ref=https://c.com/"
        );
        assert_eq!(
            base.join("?next=http://d.com").unwrap().to_string(),
            "http://a.com/dir/page.html?next=http://d.com"
        );
        assert!(base.join("ftp://e.com/").is_err(), "still absolute");
    }

    #[test]
    fn path_normalization() {
        let u = Url::parse("http://a.com/a//b/./c/../d/").unwrap();
        assert_eq!(u.path(), "/a/b/d/");
        let dotdot = Url::parse("http://a.com/../..").unwrap();
        assert_eq!(dotdot.path(), "/");
    }

    #[test]
    fn origin_and_third_party() {
        let a = Url::parse("http://www.shop.com/p").unwrap();
        let b = Url::parse("http://cdn.shop.com/img.png").unwrap();
        let c = Url::parse("http://ads.tracker.net/pixel").unwrap();
        assert_eq!(a.origin(), "http://www.shop.com");
        assert_eq!(a.registrable_domain(), "shop.com");
        assert_eq!(b.registrable_domain(), "shop.com");
        assert!(!a.is_third_party_to(&b), "same registrable domain");
        assert!(a.is_third_party_to(&c));
    }

    #[test]
    fn registrable_domain_of_short_hosts() {
        assert_eq!(registrable_domain_of("localhost"), "localhost");
        assert_eq!(registrable_domain_of("a.b"), "a.b");
        assert_eq!(registrable_domain_of("x.y.z.w"), "z.w");
        assert_eq!(registrable_domain_of("www.a.com."), "a.com");
        let dotted = Url::parse("http://www.a.com./x").unwrap();
        assert!(!dotted.is_third_party_to(&Url::parse("http://www.a.com/x").unwrap()));
        assert!(dotted.is_third_party_to(&Url::parse("http://b.com./x").unwrap()));
    }

    #[test]
    fn segments() {
        let u = Url::parse("http://a.com/news/2016/may/").unwrap();
        assert_eq!(u.path_segments(), vec!["news", "2016", "may"]);
        assert_eq!(u.first_segment(), "news");
        assert_eq!(Url::parse("http://a.com/").unwrap().first_segment(), "");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for s in [
            "http://a.com/",
            "https://a.b.c.com:8080/x/y?q=1",
            "http://a.com/x/",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn request_target_includes_query() {
        let u = Url::parse("http://a.com/x?b=2").unwrap();
        assert_eq!(u.request_target(), "/x?b=2");
    }
}
