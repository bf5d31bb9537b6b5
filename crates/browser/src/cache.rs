//! The browser HTTP cache.
//!
//! This is the battlefield of the paper: the attacker first *evicts* the
//! victim's cached copies of target objects by flooding the cache with junk
//! (§IV, Figure 1, Table I), then *re-fills* it with infected copies whose
//! headers pin them for as long as possible (§V–§VI). The cache model
//! therefore needs: a size budget, LRU eviction, per-domain accounting (to
//! tell whether junk from `attacker.com` can push out `bank.example`),
//! partitioning by top-level site (the §VIII defence), and the
//! unbounded-growth failure mode that Table I reports for Internet Explorer.

use crate::profile::{BrowserProfile, EvictionBehaviour};
use mp_httpsim::caching::{CachePolicy, Freshness};
use mp_httpsim::message::Response;
use mp_httpsim::url::Url;
use std::collections::BTreeMap;

/// A stored cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The cached response.
    pub response: Response,
    /// When the response was stored (simulation seconds).
    pub stored_at: u64,
    /// When the entry was last read.
    pub last_used: u64,
    /// Monotone counter used to break LRU ties deterministically.
    pub use_sequence: u64,
    /// Size charged against the cache budget.
    pub size_bytes: u64,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheLookup {
    /// Nothing stored under this key (for this partition).
    Miss,
    /// A fresh entry that may be used without revalidation.
    Fresh(Response),
    /// A stored but stale entry that requires revalidation; the stored
    /// response is returned so the caller can build a conditional request.
    Stale(Response),
}

/// The browser HTTP cache.
#[derive(Debug, Clone)]
pub struct HttpCache {
    profile: BrowserProfile,
    policy: CachePolicy,
    // Keyed storage is ordered (BTreeMap) so every iteration — budget sums,
    // eviction scans, per-host accounting — is deterministic by construction
    // rather than by hash-seed accident.
    entries: BTreeMap<String, CacheEntry>,
    use_counter: u64,
    /// Peak bytes ever held — the quantity that matters for the IE
    /// unbounded-growth failure mode.
    peak_bytes: u64,
    /// Number of entries evicted over the cache's lifetime.
    evicted_entries: u64,
}

impl HttpCache {
    /// Creates a cache configured for `profile`.
    pub fn new(profile: BrowserProfile) -> Self {
        HttpCache {
            profile,
            policy: CachePolicy::private_cache(),
            entries: BTreeMap::new(),
            use_counter: 0,
            peak_bytes: 0,
            evicted_entries: 0,
        }
    }

    /// The profile this cache models.
    pub fn profile(&self) -> &BrowserProfile {
        &self.profile
    }

    fn partition_prefix(&self, top_level_site: &str) -> String {
        if self.profile.cache_partitioning {
            format!("{top_level_site}|")
        } else {
            String::new()
        }
    }

    /// The key an object is stored under: the full URL, optionally prefixed by
    /// the top-level site when cache partitioning is enabled.
    pub fn key_for(&self, url: &Url, top_level_site: &str) -> String {
        format!("{}{}", self.partition_prefix(top_level_site), url.cache_key())
    }

    /// Stores a response if its headers allow it. Returns `true` if stored.
    pub fn store(&mut self, url: &Url, top_level_site: &str, response: Response, now: u64) -> bool {
        if !self.policy.is_storable(&response) {
            return false;
        }
        let size = (response.body.len() + 512) as u64;
        let key = self.key_for(url, top_level_site);
        self.use_counter += 1;
        self.entries.insert(
            key,
            CacheEntry {
                response,
                stored_at: now,
                last_used: now,
                use_sequence: self.use_counter,
                size_bytes: size,
            },
        );
        self.enforce_budget();
        self.peak_bytes = self.peak_bytes.max(self.used_bytes());
        true
    }

    /// Looks up a URL, updating recency on a hit.
    pub fn lookup(&mut self, url: &Url, top_level_site: &str, now: u64) -> CacheLookup {
        let key = self.key_for(url, top_level_site);
        self.use_counter += 1;
        let use_sequence = self.use_counter;
        let policy = self.policy;
        match self.entries.get_mut(&key) {
            None => CacheLookup::Miss,
            Some(entry) => {
                entry.last_used = now;
                entry.use_sequence = use_sequence;
                let age = now.saturating_sub(entry.stored_at);
                match policy.freshness(&entry.response, age) {
                    Freshness::Fresh { .. } => CacheLookup::Fresh(entry.response.clone()),
                    Freshness::Stale { .. } | Freshness::AlwaysRevalidate => {
                        CacheLookup::Stale(entry.response.clone())
                    }
                    Freshness::Uncacheable => CacheLookup::Miss,
                }
            }
        }
    }

    /// Returns the stored entry (regardless of freshness) without touching
    /// recency — used by experiments to inspect cache contents.
    pub fn peek(&self, url: &Url, top_level_site: &str) -> Option<&CacheEntry> {
        self.entries.get(&self.key_for(url, top_level_site))
    }

    /// Returns `true` if any partition holds an entry for this URL.
    pub fn contains_any_partition(&self, url: &Url) -> bool {
        let suffix = url.cache_key();
        self.entries
            .keys()
            .any(|k| k == &suffix || k.ends_with(&format!("|{suffix}")))
    }

    /// Removes the entry for a URL. Returns `true` if something was removed.
    pub fn remove(&mut self, url: &Url, top_level_site: &str) -> bool {
        self.entries.remove(&self.key_for(url, top_level_site)).is_some()
    }

    /// Empties the whole HTTP cache (the "clear cache" browser action).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Bytes currently charged against the budget.
    pub fn used_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.size_bytes).sum()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries evicted so far.
    pub fn evicted_entries(&self) -> u64 {
        self.evicted_entries
    }

    /// Memory pressure indicator for the IE failure mode: ratio of peak bytes
    /// to the nominal capacity. Values well above 1.0 mean the host OS would
    /// be running out of memory (Table I, "DOS on memory").
    pub fn memory_pressure(&self) -> f64 {
        if self.profile.cache_capacity_bytes == 0 {
            return 0.0;
        }
        self.peak_bytes as f64 / self.profile.cache_capacity_bytes as f64
    }

    fn enforce_budget(&mut self) {
        match self.profile.eviction {
            EvictionBehaviour::UnboundedGrowth => {
                // No eviction: the cache (and the host's memory use) just grows.
            }
            EvictionBehaviour::Lru | EvictionBehaviour::LruWithSlowdown => {
                while self.used_bytes() > self.profile.cache_capacity_bytes && !self.entries.is_empty() {
                    let victim_key = self
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| (e.last_used, e.use_sequence))
                        .map(|(k, _)| k.clone())
                        .expect("non-empty cache has a minimum");
                    self.entries.remove(&victim_key);
                    self.evicted_entries += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BrowserProfile;
    use mp_httpsim::body::{Body, ResourceKind};

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn response(content: &str, cache_control: &str) -> Response {
        Response::ok(Body::text(ResourceKind::JavaScript, content)).with_cache_control(cache_control)
    }

    fn small_profile(capacity: u64) -> BrowserProfile {
        BrowserProfile {
            cache_capacity_bytes: capacity,
            ..BrowserProfile::chrome()
        }
    }

    #[test]
    fn store_and_fresh_lookup() {
        let mut cache = HttpCache::new(BrowserProfile::chrome());
        let target = url("http://top1.com/persistent.js");
        assert!(cache.store(&target, "top1.com", response("a", "max-age=100"), 0));
        match cache.lookup(&target, "top1.com", 50) {
            CacheLookup::Fresh(r) => assert_eq!(r.body.as_text(), "a"),
            other => panic!("expected fresh hit, got {other:?}"),
        }
        let other = url("http://top1.com/other.js");
        assert!(matches!(cache.lookup(&other, "top1.com", 50), CacheLookup::Miss));
    }

    #[test]
    fn stale_entries_are_flagged_for_revalidation() {
        let mut cache = HttpCache::new(BrowserProfile::chrome());
        let target = url("http://top1.com/persistent.js");
        cache.store(&target, "top1.com", response("a", "max-age=10"), 0);
        assert!(matches!(cache.lookup(&target, "top1.com", 50), CacheLookup::Stale(_)));
    }

    #[test]
    fn no_store_responses_are_never_cached() {
        let mut cache = HttpCache::new(BrowserProfile::chrome());
        let target = url("http://bank.example/app.js");
        assert!(!cache.store(&target, "bank.example", response("a", "no-store"), 0));
        assert!(matches!(cache.lookup(&target, "bank.example", 0), CacheLookup::Miss));
    }

    #[test]
    fn lru_eviction_under_junk_flood() {
        // Capacity fits ~4 small objects (each body ~100 B + 512 B overhead).
        let mut cache = HttpCache::new(small_profile(2500));
        let victim = url("http://bank.example/app.js");
        cache.store(&victim, "bank.example", response(&"v".repeat(100), "max-age=86400"), 0);
        assert!(cache.peek(&victim, "bank.example").is_some());

        // The attacker's inline script loads junk images until the victim entry is gone.
        for i in 0..10 {
            let junk = url(&format!("http://attacker.com/junk{i:02}.jpg"));
            cache.store(&junk, "bank.example", response(&"j".repeat(100), "max-age=86400"), i + 1);
        }
        assert!(cache.peek(&victim, "bank.example").is_none(), "victim object must be evicted");
        assert!(cache.evicted_entries() > 0);
        assert!(cache.used_bytes() <= 2500);
    }

    #[test]
    fn unbounded_growth_models_the_ie_memory_dos() {
        let profile = BrowserProfile {
            cache_capacity_bytes: 2_000,
            ..BrowserProfile::internet_explorer()
        };
        let mut cache = HttpCache::new(profile);
        let victim = url("http://bank.example/app.js");
        cache.store(&victim, "bank.example", response(&"v".repeat(100), "max-age=86400"), 0);
        for i in 0..50 {
            let junk = url(&format!("http://attacker.com/junk{i:02}.jpg"));
            cache.store(&junk, "bank.example", response(&"j".repeat(100), "max-age=86400"), i + 1);
        }
        // Nothing is evicted; memory pressure grows far past the budget.
        assert!(cache.peek(&victim, "bank.example").is_some());
        assert_eq!(cache.evicted_entries(), 0);
        assert!(cache.memory_pressure() > 10.0);
    }

    #[test]
    fn lru_prefers_to_evict_least_recently_used() {
        let mut cache = HttpCache::new(small_profile(1500));
        let a = url("http://a.example/a.js");
        let b = url("http://b.example/b.js");
        cache.store(&a, "a.example", response(&"a".repeat(100), "max-age=86400"), 0);
        cache.store(&b, "b.example", response(&"b".repeat(100), "max-age=86400"), 1);
        // Touch `a` so `b` becomes the LRU victim.
        let _ = cache.lookup(&a, "a.example", 2);
        let c = url("http://c.example/c.js");
        cache.store(&c, "c.example", response(&"c".repeat(100), "max-age=86400"), 3);
        assert!(cache.peek(&a, "a.example").is_some());
        assert!(cache.peek(&b, "b.example").is_none());
        assert!(cache.peek(&c, "c.example").is_some());
    }

    #[test]
    fn cache_partitioning_isolates_top_level_sites() {
        let mut cache = HttpCache::new(BrowserProfile::chrome().with_cache_partitioning());
        let shared = url("http://analytics.example/ga.js");
        cache.store(&shared, "news.example", response("ga", "max-age=86400"), 0);
        // Same URL fetched from a different top-level site: separate entry.
        assert!(matches!(cache.lookup(&shared, "bank.example", 1), CacheLookup::Miss));
        assert!(!matches!(cache.lookup(&shared, "news.example", 1), CacheLookup::Miss));
        assert!(cache.contains_any_partition(&shared));
    }

    #[test]
    fn without_partitioning_the_entry_is_shared_across_sites() {
        let mut cache = HttpCache::new(BrowserProfile::chrome());
        let shared = url("http://analytics.example/ga.js");
        cache.store(&shared, "news.example", response("ga", "max-age=86400"), 0);
        assert!(!matches!(cache.lookup(&shared, "bank.example", 1), CacheLookup::Miss));
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = HttpCache::new(BrowserProfile::chrome());
        cache.store(&url("http://a.example/a.js"), "a.example", response("a", "max-age=1000"), 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }
}
