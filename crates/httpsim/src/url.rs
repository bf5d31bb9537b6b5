//! URLs, schemes and origins.
//!
//! Origins are the unit of the Same Origin Policy that the parasite has to
//! work around: a script cached under `https://bank.example/app.js` runs with
//! the bank's origin, which is exactly why camouflaging the parasite as that
//! file (rather than serving it from an attacker domain) bypasses SOP.

use crate::error::HttpError;
use std::fmt;
use std::str::FromStr;

/// URL scheme. Only the web schemes the paper cares about are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Cleartext HTTP — injectable by the eavesdropping master.
    Http,
    /// HTTPS — injectable only when the site's TLS deployment is broken
    /// (vulnerable SSL version, fraudulent certificate, or stripped).
    Https,
}

impl Scheme {
    /// Default TCP port for the scheme.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// String form (`"http"` / `"https"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A web origin: scheme, host and port — the SOP isolation boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Origin {
    /// Scheme.
    pub scheme: Scheme,
    /// Hostname (lowercase).
    pub host: String,
    /// Port.
    pub port: u16,
}

impl Origin {
    /// Creates an origin with the scheme's default port.
    pub fn new(scheme: Scheme, host: impl Into<String>) -> Self {
        let host = host.into().to_ascii_lowercase();
        Origin {
            scheme,
            port: scheme.default_port(),
            host,
        }
    }

    /// Creates an origin with an explicit port.
    pub fn with_port(scheme: Scheme, host: impl Into<String>, port: u16) -> Self {
        Origin {
            scheme,
            host: host.into().to_ascii_lowercase(),
            port,
        }
    }

    /// Returns the registrable domain heuristic used for cookie scoping and
    /// cache partitioning: the last two labels of the hostname.
    pub fn site(&self) -> String {
        let labels: Vec<&str> = self.host.split('.').collect();
        if labels.len() <= 2 {
            self.host.clone()
        } else {
            labels[labels.len() - 2..].join(".")
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.port == self.scheme.default_port() {
            write!(f, "{}://{}", self.scheme, self.host)
        } else {
            write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
        }
    }
}

/// A parsed URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Url {
    /// Scheme.
    pub scheme: Scheme,
    /// Hostname (lowercase).
    pub host: String,
    /// Port (explicit or the scheme default).
    pub port: u16,
    /// Path, always beginning with `/`.
    pub path: String,
    /// Query string without the leading `?`, if any.
    pub query: Option<String>,
}

impl Url {
    /// Parses a URL from a string.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::InvalidUrl`] when the scheme is missing/unknown or
    /// the host is empty.
    pub fn parse(input: &str) -> Result<Self, HttpError> {
        let (scheme, rest) = if let Some(rest) = input.strip_prefix("https://") {
            (Scheme::Https, rest)
        } else if let Some(rest) = input.strip_prefix("http://") {
            (Scheme::Http, rest)
        } else {
            return Err(HttpError::InvalidUrl {
                input: input.to_string(),
                reason: "missing or unsupported scheme".into(),
            });
        };

        let (authority, path_and_query) = match rest.find('/') {
            Some(idx) => (&rest[..idx], &rest[idx..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(HttpError::InvalidUrl {
                input: input.to_string(),
                reason: "empty host".into(),
            });
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) if p.chars().all(|c| c.is_ascii_digit()) && !p.is_empty() => {
                let port = p.parse().map_err(|_| HttpError::InvalidUrl {
                    input: input.to_string(),
                    reason: "invalid port".into(),
                })?;
                (h.to_string(), port)
            }
            _ => (authority.to_string(), scheme.default_port()),
        };
        if host.is_empty() {
            return Err(HttpError::InvalidUrl {
                input: input.to_string(),
                reason: "empty host".into(),
            });
        }

        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (path_and_query.to_string(), None),
        };

        Ok(Url {
            scheme,
            host: host.to_ascii_lowercase(),
            port,
            path,
            query,
        })
    }

    /// Builds a URL from parts without parsing.
    pub fn from_parts(scheme: Scheme, host: impl Into<String>, path: impl Into<String>) -> Self {
        let host = host.into().to_ascii_lowercase();
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            scheme,
            port: scheme.default_port(),
            host,
            path,
            query: None,
        }
    }

    /// Returns the URL's origin.
    pub fn origin(&self) -> Origin {
        Origin::with_port(self.scheme, self.host.clone(), self.port)
    }

    /// Returns the cache key the paper's browsers use: scheme, host, port,
    /// path and query (i.e. the full URL without fragments).
    pub fn cache_key(&self) -> String {
        self.to_string()
    }

    /// Returns a copy of the URL with a different query string. Passing
    /// `None` removes the query.
    ///
    /// The parasite uses this (`?t=500198` style) to re-fetch the *original*
    /// object under a different cache key so the page keeps working after the
    /// infected copy replaced it (paper §V, steps 3–4), and the random-query
    /// countermeasure in §VIII is the same operation applied defensively.
    pub fn with_query(&self, query: Option<&str>) -> Url {
        Url {
            query: query.map(|q| q.to_string()),
            ..self.clone()
        }
    }

    /// Returns the file name portion of the path, if any.
    pub fn file_name(&self) -> Option<&str> {
        self.path.rsplit('/').next().filter(|s| !s.is_empty())
    }

    /// Returns `true` if both URLs share an origin (SOP check).
    pub fn same_origin(&self, other: &Url) -> bool {
        self.origin() == other.origin()
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.origin(), self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = HttpError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_http_url() {
        let url = Url::parse("http://somesite.com/my.js").unwrap();
        assert_eq!(url.scheme, Scheme::Http);
        assert_eq!(url.host, "somesite.com");
        assert_eq!(url.port, 80);
        assert_eq!(url.path, "/my.js");
        assert_eq!(url.query, None);
        assert_eq!(url.to_string(), "http://somesite.com/my.js");
    }

    #[test]
    fn parse_https_with_port_query_and_case() {
        let url = Url::parse("https://Bank.Example:8443/login?next=/account").unwrap();
        assert_eq!(url.scheme, Scheme::Https);
        assert_eq!(url.host, "bank.example");
        assert_eq!(url.port, 8443);
        assert_eq!(url.query.as_deref(), Some("next=/account"));
        assert_eq!(url.to_string(), "https://bank.example:8443/login?next=/account");
    }

    #[test]
    fn parse_rejects_missing_scheme_and_empty_host() {
        assert!(Url::parse("ftp://example.org/x").is_err());
        assert!(Url::parse("somesite.com/my.js").is_err());
        assert!(Url::parse("http:///my.js").is_err());
    }

    #[test]
    fn host_without_path_gets_root() {
        let url = Url::parse("http://example.org").unwrap();
        assert_eq!(url.path, "/");
    }

    #[test]
    fn origin_and_same_origin_policy() {
        let a = Url::parse("http://a.example.com/x.js").unwrap();
        let b = Url::parse("http://a.example.com/other/path.js").unwrap();
        let c = Url::parse("https://a.example.com/x.js").unwrap();
        let d = Url::parse("http://b.example.com/x.js").unwrap();
        assert!(a.same_origin(&b));
        assert!(!a.same_origin(&c), "scheme is part of the origin");
        assert!(!a.same_origin(&d), "host is part of the origin");
        assert_eq!(a.origin().site(), "example.com");
    }

    #[test]
    fn with_query_changes_cache_key() {
        let url = Url::parse("http://somesite.com/my.js").unwrap();
        let busted = url.with_query(Some("t=500198"));
        assert_eq!(busted.to_string(), "http://somesite.com/my.js?t=500198");
        assert_ne!(url.cache_key(), busted.cache_key());
        assert_eq!(busted.with_query(None), url);
    }

    #[test]
    fn file_name_extraction() {
        assert_eq!(
            Url::parse("http://x.com/static/js/jquery.js").unwrap().file_name(),
            Some("jquery.js")
        );
        assert_eq!(Url::parse("http://x.com/").unwrap().file_name(), None);
    }

    #[test]
    fn display_omits_default_port_only() {
        let implicit = Url::parse("https://x.com/a").unwrap();
        assert_eq!(implicit.to_string(), "https://x.com/a");
        let explicit = Url::parse("https://x.com:444/a").unwrap();
        assert_eq!(explicit.to_string(), "https://x.com:444/a");
    }

    #[test]
    fn from_parts_normalises_path() {
        let url = Url::from_parts(Scheme::Http, "Example.COM", "app.js");
        assert_eq!(url.to_string(), "http://example.com/app.js");
    }
}
