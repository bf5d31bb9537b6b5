//! Seeded sampling distributions for heterogeneous link parameters.
//!
//! The campaign experiments model a *fleet* of café access points. Real APs
//! are not identical: latency, jitter and how many clients sit behind each
//! one vary. This module provides the small set of integer distributions the
//! fleet draws those parameters from — deterministic under a seeded
//! [`Rng`], so a heterogeneous million-client campaign replays byte-for-byte
//! from its seed. The samples feed [`crate::sim::Simulator::add_medium`] and
//! [`crate::sim::Simulator::set_medium_jitter`].

use rand::Rng;

/// An integer-valued sampling distribution (values are microseconds when used
/// for link timing, plain counts when used for population weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Always the same value.
    Const(u64),
    /// Uniform over the inclusive range `[lo, hi]`.
    Uniform {
        /// Smallest sampled value.
        lo: u64,
        /// Largest sampled value (inclusive).
        hi: u64,
    },
    /// Triangular over `[lo, hi]` with the given mode (sampled by inverse
    /// CDF): mass concentrates around `mode` with a linear tail — a
    /// reasonable stand-in for "most APs are ordinary, a few are slow"
    /// without pulling in a full log-normal implementation.
    Triangular {
        /// Smallest sampled value.
        lo: u64,
        /// Most likely value.
        mode: u64,
        /// Largest sampled value (inclusive).
        hi: u64,
    },
}

impl Dist {
    /// Draws one sample.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's bounds are inverted (`lo > hi`, or the
    /// mode outside `[lo, hi]`).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        match *self {
            Dist::Const(value) => value,
            Dist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi}]");
                if lo == hi {
                    lo
                } else {
                    lo + rng.gen_range(0..=(hi - lo))
                }
            }
            Dist::Triangular { lo, mode, hi } => {
                assert!(
                    lo <= mode && mode <= hi,
                    "triangular bounds inverted: [{lo}, {mode}, {hi}]"
                );
                if lo == hi {
                    return lo;
                }
                // Inverse CDF of the triangular distribution. The continuous
                // support is widened by half a unit on each side so that
                // rounding gives every integer — endpoints included — a
                // full-width bin: sampling on [lo, hi] directly would leave
                // `lo` and `hi` half-width bins and pile the clamped tail
                // mass onto them.
                let (lo_f, mode_f, hi_f) = (lo as f64 - 0.5, mode as f64, hi as f64 + 0.5);
                let span = hi_f - lo_f;
                let cut = (mode_f - lo_f) / span;
                let u: f64 = rng.gen();
                let sample = if u < cut {
                    lo_f + (u * span * (mode_f - lo_f)).sqrt()
                } else {
                    hi_f - ((1.0 - u) * span * (hi_f - mode_f)).sqrt()
                };
                sample.round().clamp(lo as f64, hi as f64) as u64
            }
        }
    }

    /// The smallest value the distribution can produce.
    pub fn min(&self) -> u64 {
        match *self {
            Dist::Const(value) => value,
            Dist::Uniform { lo, .. } | Dist::Triangular { lo, .. } => lo,
        }
    }

    /// The largest value the distribution can produce.
    pub fn max(&self) -> u64 {
        match *self {
            Dist::Const(value) => value,
            Dist::Uniform { hi, .. } | Dist::Triangular { hi, .. } => hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_always_returns_its_value() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(Dist::Const(42).sample(&mut rng), 42);
        }
    }

    #[test]
    fn uniform_stays_in_bounds_and_covers_the_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = Dist::Uniform { lo: 10, hi: 13 };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = dist.sample(&mut rng);
            assert!((10..=13).contains(&v), "out of bounds: {v}");
            seen.insert(v);
        }
        assert_eq!(seen.len(), 4, "all four values should appear in 200 draws");
        assert_eq!(Dist::Uniform { lo: 5, hi: 5 }.sample(&mut rng), 5);
    }

    #[test]
    fn triangular_stays_in_bounds_and_prefers_the_mode_side() {
        let mut rng = StdRng::seed_from_u64(11);
        let dist = Dist::Triangular { lo: 0, mode: 100, hi: 1_000 };
        let mut below = 0usize;
        for _ in 0..2_000 {
            let v = dist.sample(&mut rng);
            assert!(v <= 1_000);
            if v < 300 {
                below += 1;
            }
        }
        // Mass concentrates near the mode (100): P(X < 300) ≈ 0.456 for this
        // triangle, well above the 0.3 a uniform distribution would put there.
        assert!(below > 750, "only {below} of 2000 samples near the mode");
        // Degenerate spans behave.
        assert_eq!(Dist::Triangular { lo: 9, mode: 9, hi: 9 }.sample(&mut rng), 9);
    }

    #[test]
    fn triangular_endpoint_bins_get_full_width_mass() {
        // With the mode sitting on an endpoint, that endpoint's bin must get
        // the full-width mass of the widened support, not the half-width bin
        // (plus clamped tail) the old `[lo, hi]` sampling produced. For
        // Triangular{0, 0, 10} the exact mass of 0 is
        // F(0.5) = 1 − 10² / (11 · 10.5) ≈ 0.1342, so 10 000 draws put
        // ≈ 1342 samples there (σ ≈ 34); the half-width bucketing puts only
        // ≈ 975 (σ ≈ 30). The 1150 threshold separates the two by > 5σ.
        let count_at = |dist: Dist, value: u64| {
            let mut rng = StdRng::seed_from_u64(2021);
            (0..10_000).filter(|_| dist.sample(&mut rng) == value).count()
        };
        let at_lo = count_at(Dist::Triangular { lo: 0, mode: 0, hi: 10 }, 0);
        assert!(at_lo > 1150, "lo-mode endpoint underweighted: {at_lo} of 10000");
        // Mirror case: the mode on the upper endpoint.
        let at_hi = count_at(Dist::Triangular { lo: 0, mode: 10, hi: 10 }, 10);
        assert!(at_hi > 1150, "hi-mode endpoint underweighted: {at_hi} of 10000");
        // Interior bins keep a consistent share: the first off-mode bin of
        // the lo-mode triangle holds F(1.5) − F(0.5) = 19 / 115.5 ≈ 0.1645
        // of the mass.
        let mut rng = StdRng::seed_from_u64(2021);
        let dist = Dist::Triangular { lo: 0, mode: 0, hi: 10 };
        let mut counts = [0usize; 11];
        for _ in 0..10_000 {
            counts[dist.sample(&mut rng) as usize] += 1;
        }
        assert!((1450..1850).contains(&counts[1]), "interior bin drifted: {}", counts[1]);
        // No mass escapes the integer support.
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dist = Dist::Triangular { lo: 500, mode: 2_000, hi: 8_000 };
            (0..16).map(|_| dist.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn min_max_report_the_support() {
        assert_eq!(Dist::Const(7).min(), 7);
        assert_eq!(Dist::Const(7).max(), 7);
        let u = Dist::Uniform { lo: 2, hi: 9 };
        assert_eq!((u.min(), u.max()), (2, 9));
        let t = Dist::Triangular { lo: 1, mode: 4, hi: 8 };
        assert_eq!((t.min(), t.max()), (1, 8));
    }
}
