//! Shared (multi-client) HTTP caches.
//!
//! Network caches — transparent proxies, web filters, firewall proxies, CDN
//! edges, ISP caches — serve many clients from one store and provide no
//! per-client isolation (paper §VI-B2). That design is exactly what turns a
//! single injected response into an infection of *every* client behind the
//! cache: the poisoned entry is stored once and then handed to everyone who
//! asks for the same URL.

use crate::taxonomy::CacheInstance;
use mp_httpsim::caching::{CachePolicy, Freshness};
use mp_httpsim::message::{Request, Response, StatusCode};
use mp_httpsim::url::Scheme;
use std::collections::BTreeMap;

/// Statistics a shared cache keeps about its own behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Requests answered from the store.
    pub hits: u64,
    /// Requests forwarded upstream.
    pub misses: u64,
    /// Responses stored.
    pub stored: u64,
}

/// A shared cache positioned between a set of clients and an upstream
/// [`mp_httpsim::transport::Exchange`].
pub struct SharedCache<U> {
    /// The Table IV row this cache instantiates.
    instance: CacheInstance,
    upstream: U,
    policy: CachePolicy,
    // The mp-lint audit found only keyed lookups here (no iteration), but
    // an ordered store keeps any future drain deterministic by construction.
    store: BTreeMap<String, (Response, u64)>,
    now_secs: u64,
    /// Whether this deployment terminates/inspects TLS so HTTPS responses are
    /// visible to it (e.g. an enterprise web filter doing interception or a
    /// CDN terminating TLS).
    sees_https: bool,
    stats: SharedCacheStats,
}

impl<U: std::fmt::Debug> std::fmt::Debug for SharedCache<U> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("instance", &self.instance.name)
            .field("entries", &self.store.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<U: mp_httpsim::transport::Exchange> SharedCache<U> {
    /// Creates a shared cache for a taxonomy row in front of `upstream`.
    ///
    /// `sees_https` should reflect the deployment (TLS interception or
    /// offload); it is combined with the row's HTTPS caching support.
    pub fn new(instance: CacheInstance, upstream: U, sees_https: bool) -> Self {
        SharedCache {
            instance,
            upstream,
            policy: CachePolicy::shared_cache(),
            store: BTreeMap::new(),
            now_secs: 0,
            sees_https,
            stats: SharedCacheStats::default(),
        }
    }

    /// The taxonomy row this cache models.
    pub fn instance(&self) -> &CacheInstance {
        &self.instance
    }

    /// Cache statistics.
    pub fn stats(&self) -> SharedCacheStats {
        self.stats
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The path behind the cache, for an experiment that changes it between
    /// clients (the attacker leaving the network).
    pub fn upstream_mut(&mut self) -> &mut U {
        &mut self.upstream
    }

    /// Advances the cache clock.
    pub fn advance_time(&mut self, secs: u64) {
        self.now_secs += secs;
    }

    /// Returns `true` if this cache will handle (and potentially store)
    /// traffic for the given scheme.
    pub fn caches_scheme(&self, scheme: Scheme) -> bool {
        match scheme {
            Scheme::Http => self.instance.http.possible(),
            Scheme::Https => self.sees_https && self.instance.https.possible(),
        }
    }

    /// Directly plants a poisoned entry (used to model an infected object that
    /// already traversed the cache before the experiment starts).
    #[cfg(test)]
    fn poison(&mut self, url: &mp_httpsim::url::Url, response: Response) {
        self.store.insert(url.cache_key(), (response, self.now_secs));
        self.stats.stored += 1;
    }

    /// Removes every stored entry (operator flushing the cache).
    pub fn flush(&mut self) {
        self.store.clear();
    }
}

impl<U: mp_httpsim::transport::Exchange> mp_httpsim::transport::Exchange for SharedCache<U> {
    fn exchange(&mut self, request: &Request) -> Response {
        // Traffic the cache cannot see or store is passed straight through.
        if !self.caches_scheme(request.url.scheme) {
            return self.upstream.exchange(request);
        }

        let key = request.url.cache_key();
        if let Some((stored, stored_at)) = self.store.get(&key) {
            let age = self.now_secs.saturating_sub(*stored_at);
            if let Freshness::Fresh { .. } = self.policy.freshness(stored, age) {
                self.stats.hits += 1;
                return stored.clone();
            }
        }

        self.stats.misses += 1;
        let response = self.upstream.exchange(request);
        if response.status == StatusCode::OK && self.policy.is_storable(&response) {
            self.store.insert(key, (response.clone(), self.now_secs));
            self.stats.stored += 1;
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::table4_entries;
    use mp_httpsim::body::{Body, ResourceKind};
    use mp_httpsim::transport::{Exchange, StaticOrigin};
    use mp_httpsim::url::Url;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn get(s: &str) -> Request {
        Request::get(url(s))
    }

    fn origin_with_script() -> StaticOrigin {
        let mut origin = StaticOrigin::new("top1.com");
        origin.put_text(
            "/persistent.js",
            ResourceKind::JavaScript,
            "genuine()",
            "public, max-age=86400",
        );
        origin
    }

    fn squid() -> CacheInstance {
        table4_entries().into_iter().find(|e| e.name == "Squid").unwrap()
    }

    #[test]
    fn miss_then_hit() {
        let mut cache = SharedCache::new(squid(), origin_with_script(), false);
        let r1 = cache.exchange(&get("http://top1.com/persistent.js"));
        assert_eq!(r1.body.as_text(), "genuine()");
        let r2 = cache.exchange(&get("http://top1.com/persistent.js"));
        assert_eq!(r2.body.as_text(), "genuine()");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn one_poisoned_entry_infects_every_client_behind_the_proxy() {
        let mut cache = SharedCache::new(squid(), origin_with_script(), false);
        let infected = Response::ok(Body::text(ResourceKind::JavaScript, "genuine();PARASITE();"))
            .with_cache_control("public, max-age=31536000, immutable");
        cache.poison(&url("http://top1.com/persistent.js"), infected);

        // Three different victims behind the same proxy all get the parasite.
        for _ in 0..3 {
            let response = cache.exchange(&get("http://top1.com/persistent.js"));
            assert!(response.body.as_text().contains("PARASITE"));
        }
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn infected_upstream_response_poisons_the_cache_for_later_clients() {
        // The upstream here models the path segment where the attacker's
        // spoofed response is what actually arrives.
        let mut infected_origin = StaticOrigin::new("top1.com");
        infected_origin.put_text(
            "/persistent.js",
            ResourceKind::JavaScript,
            "genuine();PARASITE();",
            "public, max-age=31536000",
        );
        let mut cache = SharedCache::new(squid(), infected_origin, false);
        // Victim A's request pulls the infected object through the proxy.
        let a = cache.exchange(&get("http://top1.com/persistent.js"));
        assert!(a.body.as_text().contains("PARASITE"));
        // Victim B never touched the attacker's network segment but is served
        // the poisoned copy from the shared store.
        let b = cache.exchange(&get("http://top1.com/persistent.js"));
        assert!(b.body.as_text().contains("PARASITE"));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn https_handling_depends_on_row_and_deployment() {
        // Squid with no TLS interception: HTTPS passes through uncached.
        let mut passthrough = SharedCache::new(squid(), origin_with_script(), false);
        passthrough.exchange(&get("https://top1.com/persistent.js"));
        passthrough.exchange(&get("https://top1.com/persistent.js"));
        assert_eq!(passthrough.len(), 0);
        assert!(!passthrough.caches_scheme(Scheme::Https));

        // Squid *with* interception (HTTPS optional in Table IV): cached.
        let mut intercepting = SharedCache::new(squid(), origin_with_script(), true);
        intercepting.exchange(&get("https://top1.com/persistent.js"));
        assert_eq!(intercepting.len(), 1);

        // Blue Coat ProxySG: HTTPS not supported even with offload in front.
        let bluecoat = table4_entries().into_iter().find(|e| e.name == "Blue Coat ProxySG").unwrap();
        let bc = SharedCache::new(bluecoat, origin_with_script(), true);
        assert!(!bc.caches_scheme(Scheme::Https));
    }

    #[test]
    fn stale_entries_are_refetched_and_flush_clears_the_store() {
        let mut cache = SharedCache::new(squid(), origin_with_script(), false);
        cache.exchange(&get("http://top1.com/persistent.js"));
        cache.advance_time(100_000);
        cache.exchange(&get("http://top1.com/persistent.js"));
        assert_eq!(cache.stats().misses, 2, "expired entry must be refetched");
        cache.flush();
        assert!(cache.is_empty());
    }
}
