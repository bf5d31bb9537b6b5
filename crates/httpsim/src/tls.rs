//! TLS/SSL deployment model.
//!
//! The paper's measurement (§V, Discussion) found that 21 % of the 100K-top
//! Alexa sites served plain HTTP and almost 7 % still offered SSL 2.0/3.0,
//! and notes that even HTTPS sites can be attacked when the attacker holds a
//! fraudulently issued certificate. This module models exactly those axes:
//! protocol version, certificate authenticity, and whether the combination
//! leaves the transport injectable by the eavesdropping master.

use std::fmt;

/// Protocol version offered by a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TlsVersion {
    /// Plain HTTP, no TLS at all.
    None,
    /// SSL 2.0 — broken.
    Ssl2,
    /// SSL 3.0 — broken.
    Ssl3,
    /// TLS 1.0 — legacy but not trivially injectable.
    Tls10,
    /// TLS 1.1.
    Tls11,
    /// TLS 1.2.
    Tls12,
    /// TLS 1.3.
    Tls13,
}

impl TlsVersion {
    /// Returns `true` if the version provides no effective transport
    /// confidentiality/integrity against an active network attacker
    /// (plain HTTP or a broken SSL version).
    pub fn is_vulnerable(self) -> bool {
        matches!(self, TlsVersion::None | TlsVersion::Ssl2 | TlsVersion::Ssl3)
    }
}

impl fmt::Display for TlsVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TlsVersion::None => "none",
            TlsVersion::Ssl2 => "SSLv2",
            TlsVersion::Ssl3 => "SSLv3",
            TlsVersion::Tls10 => "TLSv1.0",
            TlsVersion::Tls11 => "TLSv1.1",
            TlsVersion::Tls12 => "TLSv1.2",
            TlsVersion::Tls13 => "TLSv1.3",
        };
        f.write_str(name)
    }
}

/// Certificate state for a domain, from the point of view of a client that
/// trusts the public CA ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertificateState {
    /// Valid certificate held only by the legitimate operator.
    Valid,
    /// No certificate (HTTP-only site).
    Absent,
    /// A fraudulent certificate for the domain has been issued to the
    /// attacker (e.g. via the off-path domain-validation attacks the paper
    /// cites), so the attacker can impersonate the site over HTTPS too.
    FraudulentlyIssued,
    /// Certificate errors the user has been conditioned to click through.
    InvalidButIgnoredByUser,
}

/// TLS deployment of one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlsDeployment {
    /// Best protocol version the site offers.
    pub version: TlsVersion,
    /// Certificate situation.
    pub certificate: CertificateState,
}

impl TlsDeployment {
    /// A plain-HTTP site.
    pub fn plaintext() -> Self {
        TlsDeployment {
            version: TlsVersion::None,
            certificate: CertificateState::Absent,
        }
    }

    /// A modern, correctly configured HTTPS site.
    pub fn modern() -> Self {
        TlsDeployment {
            version: TlsVersion::Tls13,
            certificate: CertificateState::Valid,
        }
    }

    /// A site still offering a broken SSL version.
    pub fn legacy_ssl(version: TlsVersion) -> Self {
        TlsDeployment {
            version,
            certificate: CertificateState::Valid,
        }
    }

    /// Returns `true` if an eavesdropping attacker can inject spoofed
    /// application data into connections to this site, given the deployment
    /// alone (HSTS/stripping is evaluated separately in [`crate::hsts`]).
    pub fn injectable(&self) -> bool {
        if self.version.is_vulnerable() {
            return true;
        }
        matches!(
            self.certificate,
            CertificateState::FraudulentlyIssued | CertificateState::InvalidButIgnoredByUser
        )
    }
}

impl Default for TlsDeployment {
    fn default() -> Self {
        Self::modern()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vulnerable_versions() {
        assert!(TlsVersion::None.is_vulnerable());
        assert!(TlsVersion::Ssl2.is_vulnerable());
        assert!(TlsVersion::Ssl3.is_vulnerable());
        assert!(!TlsVersion::Tls12.is_vulnerable());
        assert!(!TlsVersion::Tls13.is_vulnerable());
    }

    #[test]
    fn plaintext_and_legacy_deployments_are_injectable() {
        assert!(TlsDeployment::plaintext().injectable());
        assert!(TlsDeployment::legacy_ssl(TlsVersion::Ssl3).injectable());
        assert!(!TlsDeployment::modern().injectable());
    }

    #[test]
    fn fraudulent_certificate_defeats_modern_tls() {
        let deployment = TlsDeployment {
            version: TlsVersion::Tls13,
            certificate: CertificateState::FraudulentlyIssued,
        };
        assert!(deployment.injectable());
        let ignored = TlsDeployment {
            version: TlsVersion::Tls12,
            certificate: CertificateState::InvalidButIgnoredByUser,
        };
        assert!(ignored.injectable());
    }

    #[test]
    fn version_ordering_allows_min_version_policies() {
        assert!(TlsVersion::Tls12 > TlsVersion::Ssl3);
        assert!(TlsVersion::None < TlsVersion::Ssl2);
    }
}
