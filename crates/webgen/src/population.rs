//! Synthetic web population.
//!
//! The paper's measurement studies run over the Alexa top lists: 15K pages
//! for the persistency crawl (Figure 3) and the CSP/HSTS scans (Figure 5 and
//! the §V discussion), 100K for the HTTPS adoption numbers, 1M for the Google
//! Analytics share. Those lists and the live sites are not available offline,
//! so the reproduction generates a synthetic population whose *marginals* are
//! calibrated to the published numbers; the experiments then re-measure the
//! marginals from the generated population exactly the way the paper's
//! crawler and scanner would.

use crate::churn::{ChurningObject, StabilityClass};
use mp_httpsim::csp::CspVersion;
use mp_httpsim::hsts::HstsPolicy;
use mp_httpsim::tls::{TlsDeployment, TlsVersion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Marginal distributions used to generate the population. Defaults are the
/// paper's published measurement results.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of sites to generate (the paper uses 15 000 for most studies).
    pub size: usize,
    /// RNG seed; the same seed regenerates the identical population.
    pub seed: u64,
    /// Fraction of sites reachable over HTTPS at all (paper: 21 % HTTP-only).
    pub https_adoption: f64,
    /// Fraction of all sites still offering a broken SSL version (≈7 %).
    pub vulnerable_ssl: f64,
    /// Fraction of HTTP(S) responders sending an HSTS header (paper: 67.92 %
    /// send none, so 32.08 % do).
    pub hsts_adoption: f64,
    /// Fraction of sites present in the browser preload list
    /// (paper: 545 of 13 419 responders).
    pub hsts_preload: f64,
    /// Fraction of pages supplying any CSP header (paper: ≈4.7 %).
    pub csp_supplied: f64,
    /// Fraction of pages whose CSP actually contains directives (≈4.33 %).
    pub csp_with_rules: f64,
    /// Of pages with CSP, fraction using a deprecated header name (15.3 %).
    pub csp_deprecated: f64,
    /// Of pages with CSP rules, fraction using `connect-src`
    /// (paper: 160 uses across the 15K scan).
    pub csp_connect_src: f64,
    /// Of `connect-src` users, fraction configuring a wildcard (17 of 160).
    pub csp_connect_src_wildcard: f64,
    /// Fraction of sites embedding the shared analytics script (63 %).
    pub google_analytics: f64,
    /// Fraction of sites with at least one JavaScript object (Figure 3
    /// "Any .js", ≈88 %).
    pub sites_with_js: f64,
    /// Fraction of sites whose most stable object is never renamed during the
    /// study (Figure 3 name-persistency plateau, ≈75.3 %).
    pub permanent_best_object: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            size: 15_000,
            seed: 2021,
            https_adoption: 0.79,
            vulnerable_ssl: 0.07,
            hsts_adoption: 1.0 - 0.6792,
            hsts_preload: 545.0 / 13_419.0,
            csp_supplied: 0.047,
            csp_with_rules: 0.0433,
            csp_deprecated: 0.153,
            csp_connect_src: 160.0 / (0.047 * 15_000.0),
            csp_connect_src_wildcard: 17.0 / 160.0,
            google_analytics: 0.63,
            sites_with_js: 0.88,
            permanent_best_object: 0.753,
        }
    }
}

impl PopulationConfig {
    /// A small population for unit tests and quick examples.
    pub fn small(size: usize, seed: u64) -> Self {
        PopulationConfig {
            size,
            seed,
            ..Self::default()
        }
    }
}

/// One generated website.
#[derive(Debug, Clone, PartialEq)]
pub struct Website {
    /// Popularity rank (1-based).
    pub rank: usize,
    /// Host name.
    pub host: String,
    /// TLS deployment.
    pub tls: TlsDeployment,
    /// HSTS policy the site sends, if any.
    pub hsts: Option<HstsPolicy>,
    /// Whether the site is in the browser preload list.
    pub hsts_preloaded: bool,
    /// CSP header: which header name variant and the policy string, if any.
    pub csp: Option<(CspVersion, String)>,
    /// Whether the site embeds the shared analytics script.
    pub uses_google_analytics: bool,
    /// The site's JavaScript objects (may be empty).
    pub objects: Vec<ChurningObject>,
}

impl Website {
    /// Advances all of the site's objects by one day.
    pub fn advance_day(&mut self, rng: &mut StdRng) {
        for object in &mut self.objects {
            object.advance_day(rng);
        }
    }
}

/// A generated population of websites.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// The configuration it was generated from.
    pub config: PopulationConfig,
    /// The sites, ordered by rank.
    pub sites: Vec<Website>,
}

impl Population {
    /// Generates a population from the configured marginals.
    pub fn generate(config: PopulationConfig) -> Population {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sites = Vec::with_capacity(config.size);
        for rank in 1..=config.size {
            sites.push(Self::generate_site(&config, rank, &mut rng));
        }
        Population { config, sites }
    }

    fn generate_site(config: &PopulationConfig, rank: usize, rng: &mut StdRng) -> Website {
        let host = format!("site{rank:05}.example");

        let tls = if rng.gen_bool(config.https_adoption) {
            if rng.gen_bool(config.vulnerable_ssl / config.https_adoption) {
                TlsDeployment::legacy_ssl(if rng.gen_bool(0.4) {
                    TlsVersion::Ssl2
                } else {
                    TlsVersion::Ssl3
                })
            } else {
                TlsDeployment::modern()
            }
        } else {
            TlsDeployment::plaintext()
        };

        // `hsts_adoption` is a marginal over all responders; HSTS can only be
        // sent by HTTPS sites, so condition the per-site draw on that.
        let hsts_given_https = (config.hsts_adoption / config.https_adoption).min(1.0);
        let hsts = if tls.version != TlsVersion::None && rng.gen_bool(hsts_given_https) {
            Some(HstsPolicy {
                max_age: 31_536_000,
                include_subdomains: rng.gen_bool(0.5),
                preload: false,
            })
        } else {
            None
        };
        let hsts_preloaded = hsts.is_some() && rng.gen_bool(config.hsts_preload / config.hsts_adoption);

        let csp = if rng.gen_bool(config.csp_supplied) {
            let version = if rng.gen_bool(config.csp_deprecated) {
                if rng.gen_bool(0.5) {
                    CspVersion::XContentSecurityPolicy
                } else {
                    CspVersion::XWebkitCsp
                }
            } else {
                CspVersion::Standard
            };
            let with_rules = rng.gen_bool(config.csp_with_rules / config.csp_supplied);
            let value = if !with_rules {
                // Supplied but no enforceable directives.
                "upgrade-insecure-requests".to_string()
            } else {
                let mut policy = String::from("default-src 'self'; script-src 'self' 'unsafe-inline'");
                if rng.gen_bool(config.csp_connect_src) {
                    if rng.gen_bool(config.csp_connect_src_wildcard) {
                        policy.push_str("; connect-src *");
                    } else {
                        policy.push_str("; connect-src 'self'");
                    }
                }
                policy
            };
            Some((version, value))
        } else {
            None
        };

        let uses_google_analytics = rng.gen_bool(config.google_analytics);

        let mut objects = Vec::new();
        if rng.gen_bool(config.sites_with_js) {
            // The site's "anchor" (most stable) object.
            let anchor_permanent = rng.gen_bool(config.permanent_best_object / config.sites_with_js);
            let anchor = if anchor_permanent {
                ChurningObject::new("/static/js/main.js", StabilityClass::Permanent, rng.gen())
            } else {
                // Renamed at a uniformly random point of the 100-day study,
                // which yields Figure 3's gradual decline between day 5 and
                // day 100.
                let rename_day = rng.gen_range(1..=100);
                ChurningObject::new("/static/js/main.js", StabilityClass::SlowChurn, rng.gen())
                    .with_scheduled_rename(rename_day)
            };
            objects.push(anchor);
            // A few additional, less stable scripts.
            let extra = rng.gen_range(0..4);
            for i in 0..extra {
                let class = if rng.gen_bool(0.5) {
                    StabilityClass::SlowChurn
                } else {
                    StabilityClass::FastChurn
                };
                objects.push(ChurningObject::new(
                    format!("/static/js/extra{i}.js"),
                    class,
                    rng.gen(),
                ));
            }
        }

        Website {
            rank,
            host,
            tls,
            hsts,
            hsts_preloaded,
            csp,
            uses_google_analytics,
            objects,
        }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Returns `true` if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Website {
        /// Returns `true` if the site has at least one JavaScript object.
        fn has_js(&self) -> bool {
            !self.objects.is_empty()
        }
    }

    fn population(size: usize) -> Population {
        Population::generate(PopulationConfig::small(size, 7))
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = population(200);
        let b = population(200);
        assert_eq!(a, b);
        let c = Population::generate(PopulationConfig::small(200, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn marginals_are_roughly_calibrated() {
        let pop = population(4000);
        let n = pop.len() as f64;
        let https = pop.sites.iter().filter(|s| s.tls.version != TlsVersion::None).count() as f64 / n;
        assert!((https - 0.79).abs() < 0.05, "https adoption {https}");
        let with_js = pop.sites.iter().filter(|s| s.has_js()).count() as f64 / n;
        assert!((with_js - 0.88).abs() < 0.05, "sites with js {with_js}");
        let ga = pop.sites.iter().filter(|s| s.uses_google_analytics).count() as f64 / n;
        assert!((ga - 0.63).abs() < 0.05, "google analytics {ga}");
        let csp = pop.sites.iter().filter(|s| s.csp.is_some()).count() as f64 / n;
        assert!((csp - 0.047).abs() < 0.03, "csp adoption {csp}");
    }

    #[test]
    fn hsts_only_on_https_sites() {
        let pop = population(1000);
        for site in &pop.sites {
            if site.hsts.is_some() {
                assert!(site.tls.version != TlsVersion::None, "{} has HSTS without TLS", site.host);
            }
        }
        assert!(pop.sites.iter().any(|s| s.hsts_preloaded));
    }
}
