//! The script-visible Cache API (`caches.open(...)`).
//!
//! Table III of the paper shows why this storage matters: objects a script
//! stores through the Cache API survive Ctrl-F5 and "clear cache", and are
//! only removed when cookies / site data are cleared (and the API does not
//! exist at all in Internet Explorer). The parasite uses it as a second,
//! sturdier persistence layer.

use mp_httpsim::message::Response;
use mp_httpsim::url::Url;
use std::collections::BTreeMap;

/// Per-origin, script-controlled response storage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheApiStorage {
    /// origin string -> cache name -> url key -> response
    stores: BTreeMap<String, BTreeMap<String, BTreeMap<String, Response>>>,
    /// Whether the API exists in this browser at all.
    supported: bool,
}

impl CacheApiStorage {
    /// Creates storage; `supported` mirrors the browser profile capability.
    pub fn new(supported: bool) -> Self {
        CacheApiStorage {
            stores: BTreeMap::new(),
            supported,
        }
    }

    /// Stores a response under `(origin, cache_name, url)`.
    ///
    /// Returns `false` (and stores nothing) when the API is unsupported.
    pub fn put(&mut self, origin: &str, cache_name: &str, url: &Url, response: Response) -> bool {
        if !self.supported {
            return false;
        }
        self.stores
            .entry(origin.to_string())
            .or_default()
            .entry(cache_name.to_string())
            .or_default()
            .insert(url.cache_key(), response);
        true
    }

    /// Looks up a stored response (`caches.match`).
    pub fn get(&self, origin: &str, url: &Url) -> Option<&Response> {
        let caches = self.stores.get(origin)?;
        for cache in caches.values() {
            if let Some(response) = cache.get(&url.cache_key()) {
                return Some(response);
            }
        }
        None
    }

    /// Number of stored responses across all origins.
    pub fn len(&self) -> usize {
        self.stores
            .values()
            .flat_map(|caches| caches.values())
            .map(|c| c.len())
            .sum()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deletes everything — this is what happens when the user clears
    /// cookies / site data, the only effective removal method in Table III.
    pub fn clear_all(&mut self) {
        self.stores.clear();
    }

    /// Lists origins that currently have stored responses.
    pub fn origins(&self) -> Vec<String> {
        self.stores
            .iter()
            .filter(|(_, caches)| caches.values().any(|c| !c.is_empty()))
            .map(|(o, _)| o.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_httpsim::body::{Body, ResourceKind};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn parasite_response() -> Response {
        Response::ok(Body::text(ResourceKind::JavaScript, "original();PARASITE_CODE;"))
    }

    #[test]
    fn put_and_get_round_trip() {
        let mut storage = CacheApiStorage::new(true);
        let target = url("http://top1.com/persistent.js");
        assert!(storage.put("http://top1.com", "parasite-cache", &target, parasite_response()));
        assert!(storage.get("http://top1.com", &target).is_some());
        assert!(storage.get("http://other.com", &target).is_none());
        assert_eq!(storage.len(), 1);
        assert_eq!(storage.origins(), vec!["http://top1.com".to_string()]);
    }

    #[test]
    fn unsupported_api_stores_nothing() {
        let mut storage = CacheApiStorage::new(false);
        let target = url("http://top1.com/persistent.js");
        assert!(!storage.put("http://top1.com", "parasite-cache", &target, parasite_response()));
        assert!(storage.is_empty());
    }

    #[test]
    fn clear_origin_is_scoped_and_clear_all_is_total() {
        let mut storage = CacheApiStorage::new(true);
        storage.put("http://a.example", "c", &url("http://a.example/x.js"), parasite_response());
        storage.put("http://b.example", "c", &url("http://b.example/y.js"), parasite_response());
        storage.clear_all();
        assert!(storage.is_empty());
    }
}
