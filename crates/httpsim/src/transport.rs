//! HTTP exchange abstraction.
//!
//! Everything in the reproduction that answers HTTP requests — origin web
//! servers, the victim applications, network caches sitting on the path, and
//! the master's injection layer — implements [`Exchange`]. Browsers talk to a
//! boxed `Exchange`, so the same browser code runs against a clean origin, an
//! origin behind a poisoned proxy, or an origin reached across the simulated
//! WiFi with the attacker racing responses.

use crate::body::{Body, ResourceKind};
use crate::message::{Request, Response};
use crate::url::Url;
use std::collections::BTreeMap;

/// Something that can answer HTTP requests.
pub trait Exchange: Send {
    /// Performs one request/response exchange.
    fn exchange(&mut self, request: &Request) -> Response;
}

impl<T: Exchange + ?Sized> Exchange for Box<T> {
    fn exchange(&mut self, request: &Request) -> Response {
        (**self).exchange(request)
    }
}

/// A static origin server: a host name plus a map from path to response.
#[derive(Debug, Clone, Default)]
pub struct StaticOrigin {
    host: String,
    objects: BTreeMap<String, Response>,
}

impl StaticOrigin {
    /// Creates an empty origin for `host`.
    pub fn new(host: impl Into<String>) -> Self {
        StaticOrigin {
            host: host.into().to_ascii_lowercase(),
            objects: BTreeMap::new(),
        }
    }

    /// The host this origin serves.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Adds (or replaces) an object at `path`.
    pub fn put(&mut self, path: impl Into<String>, response: Response) -> &mut Self {
        self.objects.insert(normalise_path(path.into()), response);
        self
    }

    /// Convenience: adds a text object of the given kind with a cache policy.
    pub fn put_text(
        &mut self,
        path: &str,
        kind: ResourceKind,
        content: &str,
        cache_control: &str,
    ) -> &mut Self {
        let response = Response::ok(Body::text(kind, content)).with_cache_control(cache_control);
        self.put(path, response)
    }

    /// Returns the stored object for `path`, if any.
    pub fn get(&self, path: &str) -> Option<&Response> {
        self.objects.get(&normalise_path(path.to_string()))
    }

    /// Returns a mutable reference to the stored object for `path`, if any.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Response> {
        self.objects.get_mut(&normalise_path(path.to_string()))
    }
}

fn normalise_path(mut path: String) -> String {
    if !path.starts_with('/') {
        path.insert(0, '/');
    }
    path
}

impl Exchange for StaticOrigin {
    fn exchange(&mut self, request: &Request) -> Response {
        if !request.url.host.eq_ignore_ascii_case(&self.host) {
            return Response::not_found();
        }
        // Query strings address the same underlying object: the paper's
        // cache-busting reload (`my.js?t=500198`) must reach the genuine file.
        match self.objects.get(&request.url.path) {
            Some(response) => {
                let policy = crate::caching::CachePolicy::private_cache();
                if request.is_conditional() && policy.validators_match(request, response) {
                    Response::not_modified()
                } else {
                    response.clone()
                }
            }
            None => Response::not_found(),
        }
    }
}

/// Routes requests to per-host origins: a miniature Internet.
#[derive(Default)]
pub struct Internet {
    origins: BTreeMap<String, Box<dyn Exchange>>,
}

impl std::fmt::Debug for Internet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Internet")
            .field("hosts", &self.origins.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Internet {
    /// Creates an empty Internet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an exchange to answer for `host`.
    pub fn register(&mut self, host: impl Into<String>, exchange: Box<dyn Exchange>) {
        self.origins.insert(host.into().to_ascii_lowercase(), exchange);
    }

    /// Registers a static origin under its own host name.
    pub fn register_origin(&mut self, origin: StaticOrigin) {
        let host = origin.host().to_string();
        self.origins.insert(host, Box::new(origin));
    }

    /// Returns `true` if a handler exists for `host`.
    pub fn knows(&self, host: &str) -> bool {
        self.origins.contains_key(&host.to_ascii_lowercase())
    }

    /// Lists registered hosts.
    pub fn hosts(&self) -> Vec<String> {
        self.origins.keys().cloned().collect()
    }
}

impl Exchange for Internet {
    fn exchange(&mut self, request: &Request) -> Response {
        match self.origins.get_mut(&request.url.host) {
            Some(exchange) => exchange.exchange(request),
            None => Response::not_found(),
        }
    }
}

/// Builds a GET request for a URL string (test/helper convenience).
///
/// # Panics
///
/// Panics if the URL does not parse; intended for statically known URLs in
/// examples and tests.
pub fn get(url: &str) -> Request {
    Request::get(Url::parse(url).expect("valid url literal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::StatusCode;

    #[test]
    fn static_origin_serves_and_404s() {
        let mut origin = StaticOrigin::new("somesite.com");
        origin.put_text("/my.js", ResourceKind::JavaScript, "function f(){}", "max-age=86400");
        let ok = origin.exchange(&get("http://somesite.com/my.js"));
        assert_eq!(ok.status, StatusCode::OK);
        assert_eq!(ok.body.as_text(), "function f(){}");
        let missing = origin.exchange(&get("http://somesite.com/nope.js"));
        assert_eq!(missing.status, StatusCode::NOT_FOUND);
        let wrong_host = origin.exchange(&get("http://other.com/my.js"));
        assert_eq!(wrong_host.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn query_string_reaches_the_same_object() {
        let mut origin = StaticOrigin::new("somesite.com");
        origin.put_text("/my.js", ResourceKind::JavaScript, "original()", "max-age=60");
        let busted = origin.exchange(&get("http://somesite.com/my.js?t=500198"));
        assert_eq!(busted.body.as_text(), "original()");
    }

    #[test]
    fn conditional_request_with_matching_etag_gets_304() {
        let mut origin = StaticOrigin::new("top1.com");
        let response = Response::ok(Body::text(ResourceKind::JavaScript, "persistent"))
            .with_cache_control("max-age=60")
            .with_etag("\"v1\"");
        origin.put("/persistent.js", response);
        let request = get("http://top1.com/persistent.js").with_etag_validator("\"v1\"");
        assert_eq!(origin.exchange(&request).status, StatusCode::NOT_MODIFIED);
        let request = get("http://top1.com/persistent.js").with_etag_validator("\"v0\"");
        assert_eq!(origin.exchange(&request).status, StatusCode::OK);
    }

    #[test]
    fn internet_routes_by_host() {
        let mut net = Internet::new();
        let mut a = StaticOrigin::new("a.example");
        a.put_text("/x.js", ResourceKind::JavaScript, "a", "max-age=1");
        let mut b = StaticOrigin::new("b.example");
        b.put_text("/x.js", ResourceKind::JavaScript, "b", "max-age=1");
        net.register_origin(a);
        net.register_origin(b);
        assert!(net.knows("a.example"));
        assert!(!net.knows("c.example"));
        assert_eq!(net.exchange(&get("http://a.example/x.js")).body.as_text(), "a");
        assert_eq!(net.exchange(&get("http://b.example/x.js")).body.as_text(), "b");
        assert_eq!(net.exchange(&get("http://c.example/x.js")).status, StatusCode::NOT_FOUND);
        assert_eq!(net.hosts().len(), 2);
    }
}
