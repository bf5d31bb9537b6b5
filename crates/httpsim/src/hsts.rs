//! HTTP Strict Transport Security (HSTS) and SSL stripping.
//!
//! The paper measured that of 13 419 HTTP(S) responders in the 15K-top Alexa
//! list, 67.92 % sent no HSTS header at all and only 545 appeared in Chrome's
//! preload list, leaving up to 96.59 % of domains strippable to HTTP where the
//! TCP injection applies (§V, Discussion). This module models the HSTS header,
//! a browser-side HSTS store with preload entries, and the stripping decision.

use crate::headers::{names, HeaderMap};
use std::collections::HashMap;

/// A parsed `Strict-Transport-Security` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HstsPolicy {
    /// `max-age` in seconds.
    pub max_age: u64,
    /// Whether subdomains are covered.
    pub include_subdomains: bool,
    /// Whether the site requests preloading.
    pub preload: bool,
}

impl HstsPolicy {
    /// Parses a `Strict-Transport-Security` header value.
    ///
    /// Returns `None` if the mandatory `max-age` directive is missing.
    pub fn parse(value: &str) -> Option<Self> {
        let mut max_age = None;
        let mut include_subdomains = false;
        let mut preload = false;
        for token in value.split(';') {
            let token = token.trim().to_ascii_lowercase();
            if let Some(arg) = token.strip_prefix("max-age=") {
                max_age = arg.trim_matches('"').parse().ok();
            } else if token == "includesubdomains" {
                include_subdomains = true;
            } else if token == "preload" {
                preload = true;
            }
        }
        Some(HstsPolicy {
            max_age: max_age?,
            include_subdomains,
            preload,
        })
    }

    /// Extracts the policy from response headers.
    pub fn from_headers(headers: &HeaderMap) -> Option<Self> {
        headers
            .get(names::STRICT_TRANSPORT_SECURITY)
            .and_then(HstsPolicy::parse)
    }

    /// Renders the header value.
    pub fn to_header_value(&self) -> String {
        let mut value = format!("max-age={}", self.max_age);
        if self.include_subdomains {
            value.push_str("; includeSubDomains");
        }
        if self.preload {
            value.push_str("; preload");
        }
        value
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StoredPolicy {
    policy: HstsPolicy,
    /// Absolute expiry, simulation seconds.
    expires_at: u64,
}

/// Browser-side HSTS state: dynamic entries learnt from headers plus the
/// built-in preload list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HstsStore {
    dynamic: HashMap<String, StoredPolicy>,
    preload: Vec<String>,
}

impl HstsStore {
    /// Creates an empty store with no preload entries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with the given preloaded hosts.
    pub fn with_preload(hosts: impl IntoIterator<Item = String>) -> Self {
        HstsStore {
            dynamic: HashMap::new(),
            preload: hosts.into_iter().map(|h| h.to_ascii_lowercase()).collect(),
        }
    }

    /// Records a policy received from `host` at time `now` (seconds).
    ///
    /// Important nuance the attack depends on: HSTS headers are only honoured
    /// when received over HTTPS. A spoofed HTTP response cannot plant *or*
    /// refresh HSTS state, and conversely the attacker strips the header from
    /// responses it forges.
    pub fn observe(&mut self, host: &str, policy: HstsPolicy, now: u64, over_https: bool) {
        if !over_https {
            return;
        }
        let host = host.to_ascii_lowercase();
        if policy.max_age == 0 {
            self.dynamic.remove(&host);
            return;
        }
        self.dynamic.insert(
            host,
            StoredPolicy {
                policy,
                expires_at: now.saturating_add(policy.max_age),
            },
        );
    }

    /// Returns `true` if requests to `host` must be upgraded to HTTPS at `now`.
    pub fn must_upgrade(&self, host: &str, now: u64) -> bool {
        let host = host.to_ascii_lowercase();
        if self.preload.iter().any(|p| {
            *p == host || host.ends_with(&format!(".{p}"))
        }) {
            return true;
        }
        // Exact-host dynamic match.
        if let Some(stored) = self.dynamic.get(&host) {
            if stored.expires_at > now {
                return true;
            }
        }
        // Parent-domain matches with includeSubDomains.
        let mut labels: Vec<&str> = host.split('.').collect();
        while labels.len() > 2 {
            labels.remove(0);
            let parent = labels.join(".");
            if let Some(stored) = self.dynamic.get(&parent) {
                if stored.expires_at > now && stored.policy.include_subdomains {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_policy_variants() {
        let p = HstsPolicy::parse("max-age=63072000; includeSubDomains; preload").unwrap();
        assert_eq!(p.max_age, 63_072_000);
        assert!(p.include_subdomains && p.preload);
        assert!(HstsPolicy::parse("includeSubDomains").is_none(), "max-age is mandatory");
        let roundtrip = HstsPolicy::parse(&p.to_header_value()).unwrap();
        assert_eq!(roundtrip, p);
    }

    #[test]
    fn https_only_observation() {
        let mut store = HstsStore::new();
        let policy = HstsPolicy { max_age: 1000, include_subdomains: false, preload: false };
        store.observe("bank.example", policy, 0, false);
        assert!(!store.must_upgrade("bank.example", 10), "HSTS over HTTP must be ignored");
        store.observe("bank.example", policy, 0, true);
        assert!(store.must_upgrade("bank.example", 10));
    }

    #[test]
    fn dynamic_entries_expire() {
        let mut store = HstsStore::new();
        let policy = HstsPolicy { max_age: 100, include_subdomains: false, preload: false };
        store.observe("shop.example", policy, 1000, true);
        assert!(store.must_upgrade("shop.example", 1050));
        assert!(!store.must_upgrade("shop.example", 1101));
    }

    #[test]
    fn preload_list_always_wins() {
        let store = HstsStore::with_preload(vec!["paypal.example".to_string()]);
        assert!(store.must_upgrade("paypal.example", 0));
        assert!(store.must_upgrade("www.paypal.example", u64::MAX / 2));
        assert!(!store.must_upgrade("other.example", 0));
    }

    #[test]
    fn include_subdomains_covers_children_only_when_set() {
        let mut store = HstsStore::new();
        store.observe(
            "example.com",
            HstsPolicy { max_age: 1000, include_subdomains: true, preload: false },
            0,
            true,
        );
        assert!(store.must_upgrade("login.example.com", 10));
        store.observe(
            "narrow.org",
            HstsPolicy { max_age: 1000, include_subdomains: false, preload: false },
            0,
            true,
        );
        assert!(!store.must_upgrade("sub.narrow.org", 10));
    }

    #[test]
    fn max_age_zero_deletes_the_entry() {
        let mut store = HstsStore::new();
        store.observe("a.example", HstsPolicy { max_age: 1000, include_subdomains: false, preload: false }, 0, true);
        store.observe("a.example", HstsPolicy { max_age: 0, include_subdomains: false, preload: false }, 5, true);
        assert!(!store.must_upgrade("a.example", 6));
    }
}
