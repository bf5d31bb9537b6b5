//! The cache taxonomy of Table IV.
//!
//! The paper surveys where HTTP(S) caches sit between a victim and the web —
//! on the victim host, on the victim's network (transparent proxies, web
//! filters, firewalls, in-flight/maritime link caches) and remotely (reverse
//! proxies/CDNs, WAFs, ISP and mobile-network caches) — and records, for each
//! product class, whether caching is enabled by default, optional, absent or
//! undocumented, separately for HTTP and HTTPS. Those classifications drive
//! which caches the parasite can persist in.

use std::fmt;

/// Where the cache sits relative to the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheLocation {
    /// On the victim host itself (browser caches).
    VictimHost,
    /// On the victim's network (client-side middleboxes).
    VictimNetwork,
    /// Remote: backbone and server-side caches.
    Remote,
}

impl fmt::Display for CacheLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CacheLocation::VictimHost => "Caches on Victim Host",
            CacheLocation::VictimNetwork => "Caches on Victim Network",
            CacheLocation::Remote => "Remote Caches",
        };
        f.write_str(name)
    }
}

/// The product class a cache instance belongs to (Table IV "Type" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CacheClass {
    /// Client-internal browser cache.
    BrowserCache,
    /// Transparent proxy on the client side.
    TransparentProxy,
    /// Web filter appliance.
    WebFilter,
    /// Firewall with caching/proxy features.
    Firewall,
    /// Transport-link cache (in-flight or maritime connectivity).
    Transport,
    /// Reverse proxy / HTTP accelerator / CDN edge.
    ReverseProxy,
    /// Web application firewall.
    WebApplicationFirewall,
    /// ISP-operated forward cache.
    IspCache,
    /// Mobile network cache (LTE, 5G MEC).
    MobileNetwork,
}

impl fmt::Display for CacheClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CacheClass::BrowserCache => "Browser Cache",
            CacheClass::TransparentProxy => "Transparent Proxy",
            CacheClass::WebFilter => "Web Filter",
            CacheClass::Firewall => "Firewall",
            CacheClass::Transport => "Transport",
            CacheClass::ReverseProxy => "Reverse Proxy",
            CacheClass::WebApplicationFirewall => "Web Application Firewall",
            CacheClass::IspCache => "ISP",
            CacheClass::MobileNetwork => "Mobile Network",
        };
        f.write_str(name)
    }
}

/// Whether a product caches traffic of a given scheme (the cell values of
/// Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachingSupport {
    /// Caching enabled by default (filled circle).
    Default,
    /// Caching available but must be enabled (half circle).
    Optional,
    /// Not supported (×).
    NotSupported,
    /// Supported by the architecture but not publicly documented /
    /// implementation dependent (‡).
    Undocumented,
}

impl CachingSupport {
    /// Returns `true` if an operator *could* have this cache caching the
    /// scheme (default, optional or undocumented-but-architecturally-there).
    pub fn possible(self) -> bool {
        !matches!(self, CachingSupport::NotSupported)
    }

    /// The symbol used in the paper's table.
    pub fn symbol(self) -> &'static str {
        match self {
            CachingSupport::Default => "●",
            CachingSupport::Optional => "◐",
            CachingSupport::NotSupported => "×",
            CachingSupport::Undocumented => "‡",
        }
    }
}

/// One row of Table IV: a concrete product or deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheInstance {
    /// Where the cache sits.
    pub location: CacheLocation,
    /// Product class.
    pub class: CacheClass,
    /// Product / deployment name ("Squid", "Cisco Web Security Appliances", ...).
    pub name: String,
    /// Caching support for plain HTTP.
    pub http: CachingSupport,
    /// Caching support for HTTPS (after TLS interception/offload, if any).
    pub https: CachingSupport,
    /// Remark from the table, if any.
    pub comment: Option<String>,
}

impl CacheInstance {
    fn new(
        location: CacheLocation,
        class: CacheClass,
        name: &str,
        http: CachingSupport,
        https: CachingSupport,
        comment: Option<&str>,
    ) -> Self {
        CacheInstance {
            location,
            class,
            name: name.to_string(),
            http,
            https,
            comment: comment.map(str::to_string),
        }
    }

    /// Returns `true` if the cache is shared between multiple clients, so one
    /// poisoned entry propagates to every client behind it. Everything except
    /// the per-device browser caches is shared.
    pub fn shared_between_clients(&self) -> bool {
        self.class != CacheClass::BrowserCache
    }
}

/// The full Table IV, in the paper's row order.
pub fn table4_entries() -> Vec<CacheInstance> {
    use CacheClass::*;
    use CacheLocation::*;
    use CachingSupport::*;
    vec![
        CacheInstance::new(VictimHost, BrowserCache, "Desktop", Default, Default, None),
        CacheInstance::new(VictimHost, BrowserCache, "Smartphones", Default, Default, None),
        CacheInstance::new(VictimNetwork, TransparentProxy, "Squid", Default, Optional, None),
        CacheInstance::new(
            VictimNetwork,
            WebFilter,
            "Cisco Web Security Appliances",
            Default,
            Optional,
            Some("AsyncOS 9.1.1"),
        ),
        CacheInstance::new(VictimNetwork, WebFilter, "McAfee Web Gateway", Default, Optional, None),
        CacheInstance::new(VictimNetwork, WebFilter, "Citrix NetScaler", Default, Undocumented, None),
        CacheInstance::new(VictimNetwork, WebFilter, "Barracuda Web Filter", Default, NotSupported, None),
        CacheInstance::new(VictimNetwork, WebFilter, "Blue Coat ProxySG", Default, NotSupported, None),
        CacheInstance::new(
            VictimNetwork,
            Firewall,
            "Sophos UTM",
            Optional,
            Optional,
            Some("community-documented"),
        ),
        CacheInstance::new(VictimNetwork, Firewall, "Fortigate", Default, Optional, None),
        CacheInstance::new(VictimNetwork, Firewall, "Barracuda F-Series", Default, NotSupported, None),
        CacheInstance::new(VictimNetwork, Firewall, "Cisco ASA", Optional, NotSupported, Some("via redirect")),
        CacheInstance::new(VictimNetwork, Firewall, "pfSense", Optional, NotSupported, Some("via squid module")),
        CacheInstance::new(VictimNetwork, Transport, "Airplanes", Default, Undocumented, None),
        CacheInstance::new(VictimNetwork, Transport, "(Cruise) Vessels", Default, Undocumented, None),
        CacheInstance::new(Remote, ReverseProxy, "CDNs", Default, Default, None),
        CacheInstance::new(
            Remote,
            ReverseProxy,
            "Varnish HTTP Cache",
            Default,
            Optional,
            Some("when used with separate SSL offloader"),
        ),
        CacheInstance::new(
            Remote,
            ReverseProxy,
            "F5 Big-IP WebAccelerator",
            Default,
            Optional,
            Some("when used with separate SSL offloader"),
        ),
        CacheInstance::new(
            Remote,
            ReverseProxy,
            "SiteCelerate",
            Default,
            Optional,
            Some("when used with separate SSL offloader"),
        ),
        CacheInstance::new(Remote, WebApplicationFirewall, "GoDaddy WAF", Default, Undocumented, None),
        CacheInstance::new(Remote, IspCache, "CacheMara", Default, NotSupported, None),
        CacheInstance::new(Remote, MobileNetwork, "LTE Network", Undocumented, NotSupported, None),
        CacheInstance::new(Remote, MobileNetwork, "5G Networks", Undocumented, NotSupported, Some("with MEC")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_all_rows() {
        let entries = table4_entries();
        assert_eq!(entries.len(), 23);
        // Every location section is represented.
        for location in [CacheLocation::VictimHost, CacheLocation::VictimNetwork, CacheLocation::Remote] {
            assert!(entries.iter().any(|e| e.location == location));
        }
    }

    #[test]
    fn squid_and_cdn_rows_match_the_paper() {
        let entries = table4_entries();
        let squid = entries.iter().find(|e| e.name == "Squid").unwrap();
        assert_eq!(squid.class, CacheClass::TransparentProxy);
        assert_eq!(squid.http, CachingSupport::Default);
        assert_eq!(squid.https, CachingSupport::Optional);

        let cdn = entries.iter().find(|e| e.name == "CDNs").unwrap();
        assert_eq!((cdn.http, cdn.https), (CachingSupport::Default, CachingSupport::Default));
        assert!(cdn.shared_between_clients());
    }

    #[test]
    fn https_is_harder_than_http_across_the_board() {
        let entries = table4_entries();
        let count = |keep: fn(&CacheInstance) -> bool| entries.iter().filter(|e| keep(e)).count();
        let http_infectable = count(|e| e.http.possible());
        assert_eq!(entries.len(), 23);
        assert!(http_infectable > count(|e| e.https.possible()));
        // Every single class can cache plain HTTP in some configuration.
        assert_eq!(http_infectable, entries.len());
        // Most rows are shared infrastructure (only the two browser caches are not).
        assert_eq!(count(CacheInstance::shared_between_clients), entries.len() - 2);
    }

    #[test]
    fn not_supported_cells_block_infection() {
        let entries = table4_entries();
        let bluecoat = entries.iter().find(|e| e.name == "Blue Coat ProxySG").unwrap();
        assert!(bluecoat.http.possible());
        assert!(!bluecoat.https.possible());
        let lte = entries.iter().find(|e| e.name == "LTE Network").unwrap();
        assert!(lte.http.possible(), "undocumented still counts as architecturally possible");
        assert!(!lte.https.possible());
    }

    #[test]
    fn symbols_render_like_the_paper() {
        assert_eq!(CachingSupport::Default.symbol(), "●");
        assert_eq!(CachingSupport::Optional.symbol(), "◐");
        assert_eq!(CachingSupport::NotSupported.symbol(), "×");
        assert_eq!(CachingSupport::Undocumented.symbol(), "‡");
    }
}
