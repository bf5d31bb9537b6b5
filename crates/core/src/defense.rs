//! Countermeasures and their effect on each attack stage (paper §VIII).
//!
//! The paper's recommendations are evaluated here as an ablation: each
//! defence is modelled as a switch on the relevant substrate, and
//! [`stage_survives`] reports whether each stage of the attack pipeline
//! (active injection, cache persistence, cross-domain propagation, C&C,
//! application attacks) remains possible with that defence deployed;
//! [`ablation_matrix`] tabulates it for every defence. The headline finding
//! — CSP/SRI/HSTS help against persistence and C&C but none of them stop the
//! *active* injection phase — falls out of the model.

use std::fmt;

/// The countermeasures discussed in §VIII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defense {
    /// No defence (baseline).
    None,
    /// Disable caching of scripts by appending a random query string to every
    /// request, so a fresh copy is loaded each time.
    RandomQueryString,
    /// Partition the browser cache by top-level site.
    CachePartitioning,
    /// A correctly configured CSP (`default-src 'self'`, no wildcard
    /// `connect-src`).
    StrictCsp,
    /// Subresource Integrity on script tags.
    SubresourceIntegrity,
    /// HSTS with preloading (forces HTTPS before the first request).
    HstsPreload,
    /// Out-of-band transaction detail confirmation on a second device.
    OutOfBandConfirmation,
}

impl Defense {
    /// All defences, baseline first (the row order of the ablation report).
    pub const ALL: [Defense; 7] = [
        Defense::None,
        Defense::RandomQueryString,
        Defense::CachePartitioning,
        Defense::StrictCsp,
        Defense::SubresourceIntegrity,
        Defense::HstsPreload,
        Defense::OutOfBandConfirmation,
    ];
}

impl fmt::Display for Defense {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Defense::None => "no defence",
            Defense::RandomQueryString => "random query string (no script caching)",
            Defense::CachePartitioning => "cache partitioning",
            Defense::StrictCsp => "strict CSP",
            Defense::SubresourceIntegrity => "subresource integrity",
            Defense::HstsPreload => "HSTS + preload",
            Defense::OutOfBandConfirmation => "out-of-band transaction confirmation",
        };
        f.write_str(name)
    }
}

/// The stages of the attack pipeline the ablation scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackStage {
    /// Injecting a spoofed response while the victim shares a network with
    /// the attacker.
    ActiveInjection,
    /// The infected object staying in the cache after the victim leaves the
    /// hostile network.
    CachePersistence,
    /// Spreading to other domains on the same device.
    CrossDomainPropagation,
    /// The covert command-and-control channel.
    CommandAndControl,
    /// Manipulating transactions / bypassing 2FA in applications.
    TransactionManipulation,
}

impl AttackStage {
    /// All stages in pipeline order.
    pub const ALL: [AttackStage; 5] = [
        AttackStage::ActiveInjection,
        AttackStage::CachePersistence,
        AttackStage::CrossDomainPropagation,
        AttackStage::CommandAndControl,
        AttackStage::TransactionManipulation,
    ];
}

impl fmt::Display for AttackStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttackStage::ActiveInjection => "active injection",
            AttackStage::CachePersistence => "cache persistence",
            AttackStage::CrossDomainPropagation => "cross-domain propagation",
            AttackStage::CommandAndControl => "command & control",
            AttackStage::TransactionManipulation => "transaction manipulation",
        };
        f.write_str(name)
    }
}

/// Whether a given stage remains possible when a defence is deployed.
///
/// The mapping encodes the paper's analysis:
/// * nothing stops the active injection phase while the victim shares a
///   network with the attacker — except HSTS preloading, which removes the
///   plaintext window entirely (for preloaded domains),
/// * random query strings and (to a lesser degree) cache partitioning attack
///   the persistence and propagation stages,
/// * CSP limits propagation and the C&C channel once the victim is off the
///   hostile network; SRI blocks re-use of a cached, tampered script,
/// * out-of-band confirmation defeats the 2FA/transaction attacks only.
pub fn stage_survives(defense: Defense, stage: AttackStage) -> bool {
    use AttackStage::*;
    use Defense::*;
    match (defense, stage) {
        (None, _) => true,

        (RandomQueryString, ActiveInjection) => true,
        (RandomQueryString, CachePersistence) => false,
        (RandomQueryString, CrossDomainPropagation) => false,
        (RandomQueryString, CommandAndControl) => true,
        (RandomQueryString, TransactionManipulation) => true,

        (CachePartitioning, ActiveInjection) => true,
        (CachePartitioning, CachePersistence) => true,
        (CachePartitioning, CrossDomainPropagation) => false,
        (CachePartitioning, CommandAndControl) => true,
        (CachePartitioning, TransactionManipulation) => true,

        (StrictCsp, ActiveInjection) => true,
        (StrictCsp, CachePersistence) => true,
        (StrictCsp, CrossDomainPropagation) => false,
        (StrictCsp, CommandAndControl) => false,
        (StrictCsp, TransactionManipulation) => true,

        (SubresourceIntegrity, ActiveInjection) => true,
        (SubresourceIntegrity, CachePersistence) => false,
        (SubresourceIntegrity, CrossDomainPropagation) => false,
        (SubresourceIntegrity, CommandAndControl) => true,
        (SubresourceIntegrity, TransactionManipulation) => true,

        (HstsPreload, ActiveInjection) => false,
        (HstsPreload, CachePersistence) => false,
        (HstsPreload, CrossDomainPropagation) => false,
        (HstsPreload, CommandAndControl) => true,
        (HstsPreload, TransactionManipulation) => true,

        (OutOfBandConfirmation, TransactionManipulation) => false,
        (OutOfBandConfirmation, _) => true,
    }
}

/// One row of the ablation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AblationRow {
    /// The defence deployed.
    pub defense: Defense,
    /// Which stages still succeed.
    pub surviving_stages: Vec<AttackStage>,
}

/// Runs the full defence-versus-stage ablation.
pub fn ablation_matrix() -> Vec<AblationRow> {
    Defense::ALL
        .iter()
        .map(|&defense| AblationRow {
            defense,
            surviving_stages: AttackStage::ALL
                .iter()
                .copied()
                .filter(|&stage| stage_survives(defense, stage))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_lets_everything_through() {
        for stage in AttackStage::ALL {
            assert!(stage_survives(Defense::None, stage));
        }
    }

    #[test]
    fn no_single_header_defence_stops_active_injection() {
        for defense in [
            Defense::RandomQueryString,
            Defense::CachePartitioning,
            Defense::StrictCsp,
            Defense::SubresourceIntegrity,
            Defense::OutOfBandConfirmation,
        ] {
            assert!(
                stage_survives(defense, AttackStage::ActiveInjection),
                "{defense} should not stop the active phase"
            );
        }
        assert!(!stage_survives(Defense::HstsPreload, AttackStage::ActiveInjection));
    }

    #[test]
    fn csp_limits_persistence_era_capabilities() {
        assert!(!stage_survives(Defense::StrictCsp, AttackStage::CommandAndControl));
        assert!(!stage_survives(Defense::StrictCsp, AttackStage::CrossDomainPropagation));
        assert!(stage_survives(Defense::StrictCsp, AttackStage::TransactionManipulation));
    }

    #[test]
    fn out_of_band_confirmation_only_touches_transactions() {
        assert!(!stage_survives(Defense::OutOfBandConfirmation, AttackStage::TransactionManipulation));
        assert!(stage_survives(Defense::OutOfBandConfirmation, AttackStage::CachePersistence));
    }

    #[test]
    fn matrix_rows_agree_with_stage_gating() {
        // The report rows must be exactly the stages `stage_survives` admits,
        // in pipeline order — the renderer relies on both properties.
        for row in ablation_matrix() {
            let expected: Vec<AttackStage> = AttackStage::ALL
                .iter()
                .copied()
                .filter(|&stage| stage_survives(row.defense, stage))
                .collect();
            assert_eq!(row.surviving_stages, expected, "{}", row.defense);
        }
    }

    #[test]
    fn hsts_preload_blocks_the_whole_injection_pipeline() {
        // With no plaintext window there is nothing to inject, persist or
        // propagate — but an already-infected client's C&C still works.
        assert!(!stage_survives(Defense::HstsPreload, AttackStage::ActiveInjection));
        assert!(!stage_survives(Defense::HstsPreload, AttackStage::CachePersistence));
        assert!(!stage_survives(Defense::HstsPreload, AttackStage::CrossDomainPropagation));
        assert!(stage_survives(Defense::HstsPreload, AttackStage::CommandAndControl));
        assert!(stage_survives(Defense::HstsPreload, AttackStage::TransactionManipulation));
    }

    #[test]
    fn caching_defences_remove_persistence_not_cnc() {
        for defense in [Defense::RandomQueryString, Defense::SubresourceIntegrity] {
            assert!(!stage_survives(defense, AttackStage::CachePersistence), "{defense}");
            assert!(!stage_survives(defense, AttackStage::CrossDomainPropagation), "{defense}");
            assert!(stage_survives(defense, AttackStage::CommandAndControl), "{defense}");
        }
        // Partitioning only stops cross-site reuse, not same-site persistence.
        assert!(stage_survives(Defense::CachePartitioning, AttackStage::CachePersistence));
        assert!(!stage_survives(Defense::CachePartitioning, AttackStage::CrossDomainPropagation));
    }

    #[test]
    fn display_labels_are_unique_report_keys() {
        let mut labels: Vec<String> = Defense::ALL.iter().map(|d| d.to_string()).collect();
        labels.extend(AttackStage::ALL.iter().map(|s| s.to_string()));
        let total = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), total, "defence/stage labels must be distinct");
    }

    #[test]
    fn ablation_matrix_has_one_row_per_defence() {
        let matrix = ablation_matrix();
        assert_eq!(matrix.len(), Defense::ALL.len());
        assert_eq!(matrix[0].surviving_stages.len(), AttackStage::ALL.len());
        // Every defence other than the baseline removes at least one stage.
        for row in &matrix[1..] {
            assert!(row.surviving_stages.len() < AttackStage::ALL.len(), "{}", row.defense);
        }
    }
}
