//! Security-policy scanner: HTTPS/SSL adoption, HSTS coverage and CSP usage.
//!
//! Reproduces the measurement numbers quoted in §V (Discussion) and §VIII /
//! Figure 5 of the paper by scanning a generated [`Population`] the same way
//! the authors scanned the Alexa top lists.

use crate::population::Population;
use mp_httpsim::csp::{ContentSecurityPolicy, CspVersion, Directive};
use mp_httpsim::tls::TlsVersion;

/// HTTPS / SSL-version adoption statistics (§V: "21 % of the 100,000-top
/// Alexa websites do not use HTTPS and almost 7 % use vulnerable SSL
/// versions").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TlsStats {
    /// Total sites scanned.
    pub total: usize,
    /// Sites with no TLS at all.
    pub http_only: usize,
    /// Sites still offering SSL 2.0 or 3.0.
    pub vulnerable_ssl: usize,
    /// Sites injectable at the transport layer (HTTP-only, broken SSL).
    pub transport_injectable: usize,
}

impl TlsStats {
    /// Percentage of sites without HTTPS.
    pub fn http_only_pct(&self) -> f64 {
        percentage(self.http_only, self.total)
    }

    /// Percentage of sites with vulnerable SSL versions.
    pub fn vulnerable_ssl_pct(&self) -> f64 {
        percentage(self.vulnerable_ssl, self.total)
    }
}

/// HSTS statistics (§V: of 13 419 responders, 67.92 % without HSTS, 545
/// preloaded, up to 96.59 % strippable).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HstsStats {
    /// HTTP(S) responders considered.
    pub responders: usize,
    /// Responders sending no HSTS header.
    pub without_hsts: usize,
    /// Responders in the browser preload list.
    pub preloaded: usize,
}

impl HstsStats {
    /// Percentage of responders without HSTS.
    pub fn without_hsts_pct(&self) -> f64 {
        percentage(self.without_hsts, self.responders)
    }

    /// Percentage of responders vulnerable to SSL stripping: everything that
    /// is not preloaded (a dynamic HSTS header does not protect the first
    /// visit).
    pub fn strippable_pct(&self) -> f64 {
        percentage(self.responders - self.preloaded, self.responders)
    }
}

/// CSP statistics (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CspStats {
    /// Pages scanned.
    pub total: usize,
    /// Pages supplying any CSP header.
    pub supplied: usize,
    /// Pages whose CSP contains at least one directive we enforce.
    pub with_rules: usize,
    /// Pages using the standard header name.
    pub standard_header: usize,
    /// Pages using `X-Content-Security-Policy`.
    pub x_csp_header: usize,
    /// Pages using `X-Webkit-CSP`.
    pub x_webkit_header: usize,
    /// Number of `connect-src` directives seen.
    pub connect_src_uses: usize,
    /// Of those, how many use a bare wildcard.
    pub connect_src_wildcards: usize,
}

impl CspStats {
    /// Percentage of pages supplying a CSP header.
    pub fn supplied_pct(&self) -> f64 {
        percentage(self.supplied, self.total)
    }

    /// Percentage of pages with enforceable rules.
    pub fn with_rules_pct(&self) -> f64 {
        percentage(self.with_rules, self.total)
    }

    /// Percentage of CSP-supplying pages using a deprecated header name.
    pub fn deprecated_pct(&self) -> f64 {
        percentage(self.x_csp_header + self.x_webkit_header, self.supplied)
    }
}

/// All policy measurements for one population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyScan {
    /// TLS adoption numbers.
    pub tls: TlsStats,
    /// HSTS numbers.
    pub hsts: HstsStats,
    /// CSP numbers.
    pub csp: CspStats,
    /// Sites embedding the shared analytics script (the 63 % statistic).
    pub google_analytics: usize,
    /// Total sites.
    pub total: usize,
}

impl PolicyScan {
    /// Percentage of sites embedding the shared analytics script.
    pub fn google_analytics_pct(&self) -> f64 {
        percentage(self.google_analytics, self.total)
    }
}

fn percentage(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Scans a population and computes every policy statistic.
pub fn scan(population: &Population) -> PolicyScan {
    let mut result = PolicyScan {
        total: population.len(),
        ..Default::default()
    };

    for site in &population.sites {
        // TLS.
        result.tls.total += 1;
        match site.tls.version {
            TlsVersion::None => result.tls.http_only += 1,
            TlsVersion::Ssl2 | TlsVersion::Ssl3 => result.tls.vulnerable_ssl += 1,
            _ => {}
        }
        if site.tls.injectable() {
            result.tls.transport_injectable += 1;
        }

        // HSTS (every generated site responds, so every site is a responder).
        result.hsts.responders += 1;
        if site.hsts.is_none() {
            result.hsts.without_hsts += 1;
        }
        if site.hsts_preloaded {
            result.hsts.preloaded += 1;
        }

        // CSP.
        result.csp.total += 1;
        if let Some((version, value)) = &site.csp {
            result.csp.supplied += 1;
            match version {
                CspVersion::Standard => result.csp.standard_header += 1,
                CspVersion::XContentSecurityPolicy => result.csp.x_csp_header += 1,
                CspVersion::XWebkitCsp => result.csp.x_webkit_header += 1,
            }
            let policy = ContentSecurityPolicy::parse(*version, value);
            if !policy.is_empty() {
                result.csp.with_rules += 1;
            }
            if policy.defines(Directive::ConnectSrc) {
                result.csp.connect_src_uses += 1;
                if policy.has_wildcard(Directive::ConnectSrc) {
                    result.csp.connect_src_wildcards += 1;
                }
            }
        }

        if site.uses_google_analytics {
            result.google_analytics += 1;
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn scanned(size: usize) -> PolicyScan {
        scan(&Population::generate(PopulationConfig::small(size, 99)))
    }

    #[test]
    fn tls_stats_match_the_papers_marginals() {
        let s = scanned(5000);
        assert!((s.tls.http_only_pct() - 21.0).abs() < 3.0, "{}", s.tls.http_only_pct());
        assert!((s.tls.vulnerable_ssl_pct() - 7.0).abs() < 2.5, "{}", s.tls.vulnerable_ssl_pct());
        // Everything HTTP-only or on broken SSL is transport-injectable.
        assert!(s.tls.transport_injectable >= s.tls.http_only + s.tls.vulnerable_ssl - 5);
    }

    #[test]
    fn hsts_stats_match_the_papers_marginals() {
        let s = scanned(5000);
        assert!((s.hsts.without_hsts_pct() - 67.92).abs() < 4.0, "{}", s.hsts.without_hsts_pct());
        assert!(s.hsts.strippable_pct() > 90.0);
        assert!(s.hsts.preloaded > 0);
    }

    #[test]
    fn csp_stats_match_figure5() {
        let s = scanned(8000);
        assert!((s.csp.supplied_pct() - 4.7).abs() < 1.5, "{}", s.csp.supplied_pct());
        assert!(s.csp.with_rules <= s.csp.supplied);
        assert!((s.csp.deprecated_pct() - 15.3).abs() < 8.0, "{}", s.csp.deprecated_pct());
        assert!(s.csp.connect_src_uses > 0);
        assert!(s.csp.connect_src_wildcards <= s.csp.connect_src_uses);
    }

    #[test]
    fn google_analytics_share_is_calibrated() {
        let s = scanned(4000);
        assert!((s.google_analytics_pct() - 63.0).abs() < 4.0, "{}", s.google_analytics_pct());
    }

    #[test]
    fn percentages_handle_empty_populations() {
        let s = scan(&Population::generate(PopulationConfig::small(0, 1)));
        assert_eq!(s.tls.http_only_pct(), 0.0);
        assert_eq!(s.hsts.strippable_pct(), 0.0);
        assert_eq!(s.csp.supplied_pct(), 0.0);
    }
}
