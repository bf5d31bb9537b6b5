//! Browser profiles.
//!
//! Tables I–III of the paper are parameterised by browser: default cache
//! size, whether eviction can be driven across domains, whether the Cache API
//! exists, and how the browser behaves under a cache-filling attack
//! (Chromium-family and Firefox evict cleanly, Internet Explorer grows its
//! memory use until the OS starts killing processes). [`BrowserProfile`]
//! captures those published parameters so the experiments run against the
//! same decision logic the paper measured.

use std::fmt;

/// The browser families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BrowserKind {
    /// Google Chrome (Chromium cache backend).
    Chrome,
    /// Chrome in incognito mode (memory-only cache).
    ChromeIncognito,
    /// Microsoft Edge (Chromium based).
    Edge,
    /// Internet Explorer 11.
    InternetExplorer,
    /// Mozilla Firefox.
    Firefox,
    /// Opera (Chromium based).
    Opera,
    /// Apple Safari.
    Safari,
}

impl fmt::Display for BrowserKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BrowserKind::Chrome => "Chrome",
            BrowserKind::ChromeIncognito => "Chrome (incognito)",
            BrowserKind::Edge => "Edge",
            BrowserKind::InternetExplorer => "IE",
            BrowserKind::Firefox => "Firefox",
            BrowserKind::Opera => "Opera",
            BrowserKind::Safari => "Safari",
        };
        f.write_str(name)
    }
}

/// Operating systems from the Table II injection matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OperatingSystem {
    /// Windows 10.
    Windows10,
    /// macOS.
    MacOs,
    /// Desktop Linux.
    Linux,
    /// Android.
    Android,
    /// iOS.
    Ios,
}

impl OperatingSystem {
    /// All operating systems in Table II, in the paper's row order.
    pub const ALL: [OperatingSystem; 5] = [
        OperatingSystem::Windows10,
        OperatingSystem::MacOs,
        OperatingSystem::Linux,
        OperatingSystem::Android,
        OperatingSystem::Ios,
    ];
}

impl fmt::Display for OperatingSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OperatingSystem::Windows10 => "Win10",
            OperatingSystem::MacOs => "MacOS",
            OperatingSystem::Linux => "Linux",
            OperatingSystem::Android => "Android",
            OperatingSystem::Ios => "iOS",
        };
        f.write_str(name)
    }
}

/// How the cache behaves when the attacker floods it with junk objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionBehaviour {
    /// Least-recently-used entries are evicted once the size budget is hit
    /// (Chromium family, Opera, Edge).
    Lru,
    /// Like [`EvictionBehaviour::Lru`] but eviction pressure also degrades
    /// responsiveness (the Firefox observation in Table I).
    LruWithSlowdown,
    /// The cache keeps growing: memory fills up until the operating system
    /// kills processes — the Internet Explorer "DOS on memory" row.
    UnboundedGrowth,
}

/// Static description of one browser build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowserProfile {
    /// Which browser this is.
    pub kind: BrowserKind,
    /// Version string used in the paper's Table I.
    pub version: String,
    /// Default HTTP cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Whether cache capacity is shared across domains, so junk objects from
    /// `attacker.com` can evict `bank.example` entries (Table I "I.D.").
    pub inter_domain_eviction: bool,
    /// How the cache reacts to a junk-object flood.
    pub eviction: EvictionBehaviour,
    /// Whether the script-visible Cache API exists (Table III: not in IE).
    pub cache_api_supported: bool,
    /// Whether the browser partitions its HTTP cache by top-level site
    /// (the defence discussed in §VIII; off in the evaluated builds).
    pub cache_partitioning: bool,
    /// Operating systems this browser ships on (Table II rows; `n/a` cells).
    pub supported_os: Vec<OperatingSystem>,
}

const MIB: u64 = 1024 * 1024;
const MB: u64 = 1_000_000;

impl BrowserProfile {
    /// Chrome 81 profile (Table I row 1).
    pub fn chrome() -> Self {
        BrowserProfile {
            kind: BrowserKind::Chrome,
            version: "81.0.4044.122".to_string(),
            cache_capacity_bytes: 320 * MIB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::Lru,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: OperatingSystem::ALL.to_vec(),
        }
    }

    /// Chrome 81 in incognito mode (memory cache only, same behaviour).
    pub fn chrome_incognito() -> Self {
        BrowserProfile {
            kind: BrowserKind::ChromeIncognito,
            version: "81.0.4044.122".to_string(),
            cache_capacity_bytes: 64 * MIB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::Lru,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: OperatingSystem::ALL.to_vec(),
        }
    }

    /// Edge 84 profile.
    pub fn edge() -> Self {
        BrowserProfile {
            kind: BrowserKind::Edge,
            version: "84.0.522.59".to_string(),
            cache_capacity_bytes: 320 * MIB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::Lru,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: vec![OperatingSystem::Windows10],
        }
    }

    /// Internet Explorer 11 profile.
    pub fn internet_explorer() -> Self {
        BrowserProfile {
            kind: BrowserKind::InternetExplorer,
            version: "11.1365.17134.0".to_string(),
            cache_capacity_bytes: 330 * MB,
            inter_domain_eviction: false,
            eviction: EvictionBehaviour::UnboundedGrowth,
            cache_api_supported: false,
            cache_partitioning: false,
            supported_os: vec![OperatingSystem::Windows10],
        }
    }

    /// Firefox 75 profile.
    pub fn firefox() -> Self {
        BrowserProfile {
            kind: BrowserKind::Firefox,
            version: "75.0".to_string(),
            cache_capacity_bytes: 256 * MB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::LruWithSlowdown,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: OperatingSystem::ALL.to_vec(),
        }
    }

    /// Opera 68 profile.
    pub fn opera() -> Self {
        BrowserProfile {
            kind: BrowserKind::Opera,
            version: "68.0.3618.56".to_string(),
            cache_capacity_bytes: 320 * MIB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::Lru,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: vec![
                OperatingSystem::Windows10,
                OperatingSystem::MacOs,
                OperatingSystem::Linux,
                OperatingSystem::Android,
            ],
        }
    }

    /// Safari profile (Table II only; not part of the Table I eviction runs).
    pub fn safari() -> Self {
        BrowserProfile {
            kind: BrowserKind::Safari,
            version: "13.1".to_string(),
            cache_capacity_bytes: 256 * MIB,
            inter_domain_eviction: true,
            eviction: EvictionBehaviour::Lru,
            cache_api_supported: true,
            cache_partitioning: false,
            supported_os: vec![OperatingSystem::MacOs, OperatingSystem::Ios],
        }
    }

    /// The browsers evaluated in Table I, in row order.
    pub fn table1_browsers() -> Vec<BrowserProfile> {
        vec![
            Self::chrome(),
            Self::chrome_incognito(),
            Self::edge(),
            Self::internet_explorer(),
            Self::firefox(),
            Self::opera(),
        ]
    }

    /// The browsers evaluated in Table II, in column order.
    pub fn table2_browsers() -> Vec<BrowserProfile> {
        vec![
            Self::chrome(),
            Self::firefox(),
            Self::internet_explorer(),
            Self::edge(),
            Self::safari(),
            Self::opera(),
        ]
    }

    /// Returns `true` if the browser ships on `os` (a `n/a` cell in Table II
    /// when false).
    pub fn runs_on(&self, os: OperatingSystem) -> bool {
        self.supported_os.contains(&os)
    }

    /// Returns a copy of the profile with cache partitioning enabled, for the
    /// §VIII countermeasure ablation.
    pub fn with_cache_partitioning(mut self) -> Self {
        self.cache_partitioning = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_parameters_match_the_paper() {
        let chrome = BrowserProfile::chrome();
        assert_eq!(chrome.cache_capacity_bytes, 320 * 1024 * 1024);
        assert!(chrome.inter_domain_eviction);
        assert_eq!(chrome.eviction, EvictionBehaviour::Lru);

        let firefox = BrowserProfile::firefox();
        assert_eq!(firefox.cache_capacity_bytes, 256_000_000);
        assert_eq!(firefox.eviction, EvictionBehaviour::LruWithSlowdown);

        let ie = BrowserProfile::internet_explorer();
        assert_eq!(ie.cache_capacity_bytes, 330_000_000);
        assert_eq!(ie.eviction, EvictionBehaviour::UnboundedGrowth);
        assert!(!ie.inter_domain_eviction);
        assert!(!ie.cache_api_supported);
    }

    #[test]
    fn table1_has_six_rows_and_table2_six_columns() {
        assert_eq!(BrowserProfile::table1_browsers().len(), 6);
        assert_eq!(BrowserProfile::table2_browsers().len(), 6);
    }

    #[test]
    fn os_support_matrix_matches_table2_na_cells() {
        assert!(BrowserProfile::chrome().runs_on(OperatingSystem::Linux));
        assert!(!BrowserProfile::internet_explorer().runs_on(OperatingSystem::MacOs));
        assert!(!BrowserProfile::edge().runs_on(OperatingSystem::Android));
        assert!(BrowserProfile::safari().runs_on(OperatingSystem::Ios));
        assert!(!BrowserProfile::safari().runs_on(OperatingSystem::Linux));
        assert!(!BrowserProfile::opera().runs_on(OperatingSystem::Ios));
    }

    #[test]
    fn partitioning_ablation_flag() {
        let chrome = BrowserProfile::chrome().with_cache_partitioning();
        assert!(chrome.cache_partitioning);
        assert!(!BrowserProfile::chrome().cache_partitioning);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(BrowserKind::InternetExplorer.to_string(), "IE");
        assert_eq!(OperatingSystem::Windows10.to_string(), "Win10");
    }
}
