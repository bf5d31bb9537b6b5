//! The daily crawler and the persistency analysis of Figure 3.
//!
//! The paper ran a crawler daily for 100 days over the 15K-top pages,
//! recording every object's name and content hash, and then computed — for
//! each measurement day *d* — the fraction of sites that (a) serve any
//! JavaScript at all, (b) still serve at least one JavaScript object under
//! its day-zero *name*, and (c) still serve at least one object with its
//! day-zero *content hash*. This module replays that pipeline over a
//! generated [`Population`].

use crate::population::Population;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The three series plotted in Figure 3, as percentages of all sites.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersistencySeries {
    /// Measurement day for each data point (1-based).
    pub days: Vec<u32>,
    /// Percentage of sites serving at least one `.js` object on that day.
    pub any_js: Vec<f64>,
    /// Percentage of sites with ≥1 object name-persistent since day zero.
    pub name_persistent: Vec<f64>,
    /// Percentage of sites with ≥1 object hash-persistent since day zero.
    pub hash_persistent: Vec<f64>,
}

impl PersistencySeries {
    /// The value of a series at a given day (if that day was measured).
    pub fn at(&self, day: u32) -> Option<PersistencyPoint> {
        let idx = self.days.iter().position(|&d| d == day)?;
        Some(PersistencyPoint {
            day,
            any_js: self.any_js[idx],
            name_persistent: self.name_persistent[idx],
            hash_persistent: self.hash_persistent[idx],
        })
    }

    /// The final measurement.
    pub fn last(&self) -> Option<PersistencyPoint> {
        self.days.last().and_then(|&d| self.at(d))
    }
}

/// One point of the Figure 3 curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistencyPoint {
    /// Measurement day.
    pub day: u32,
    /// Percentage of sites with any JavaScript.
    pub any_js: f64,
    /// Percentage of sites with a name-persistent object.
    pub name_persistent: f64,
    /// Percentage of sites with a hash-persistent object.
    pub hash_persistent: f64,
}

/// Snapshot of one site on one day, as the crawler records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// The site host.
    pub host: String,
    /// Observed objects: path → content hash. Ordered so snapshot
    /// comparisons and any future serialisation are deterministic.
    pub objects: BTreeMap<String, u64>,
}

/// The crawler: replays `days` daily snapshots over a copy of a population.
#[derive(Debug, Clone)]
pub struct Crawler {
    population: Population,
    rng: StdRng,
}

impl Crawler {
    /// Creates a crawler over (a copy of) the population. The churn draws use
    /// a seed derived from the population's own seed so a given population
    /// always produces the same crawl.
    pub fn new(population: Population) -> Self {
        let seed = population.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Crawler {
            population,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Takes today's snapshot of every site.
    pub fn snapshot(&self) -> Vec<SiteSnapshot> {
        self.population
            .sites
            .iter()
            .map(|site| SiteSnapshot {
                host: site.host.clone(),
                objects: site
                    .objects
                    .iter()
                    .map(|o| {
                        let obs = o.observe();
                        (obs.path, obs.content_hash)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Advances the population by one day of churn.
    pub fn advance_day(&mut self) {
        for site in &mut self.population.sites {
            site.advance_day(&mut self.rng);
        }
    }

    /// Runs a `days`-long daily crawl and computes the Figure 3 series.
    ///
    /// Day 1 is the baseline crawl; persistency on day *d* compares day *d*'s
    /// snapshot against the baseline.
    pub fn run(&mut self, days: u32) -> PersistencySeries {
        let baseline = self.snapshot();
        let total_sites = baseline.len() as f64;
        let mut series = PersistencySeries::default();

        for day in 1..=days {
            if day > 1 {
                self.advance_day();
            }
            let today = self.snapshot();
            let mut any_js = 0usize;
            let mut name_persistent = 0usize;
            let mut hash_persistent = 0usize;
            for (base, now) in baseline.iter().zip(today.iter()) {
                if !now.objects.is_empty() {
                    any_js += 1;
                }
                if base.objects.keys().any(|path| now.objects.contains_key(path)) {
                    name_persistent += 1;
                }
                if base
                    .objects
                    .iter()
                    .any(|(path, hash)| now.objects.get(path) == Some(hash))
                {
                    hash_persistent += 1;
                }
            }
            series.days.push(day);
            series.any_js.push(100.0 * any_js as f64 / total_sites);
            series.name_persistent.push(100.0 * name_persistent as f64 / total_sites);
            series.hash_persistent.push(100.0 * hash_persistent as f64 / total_sites);
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;

    fn series(sites: usize, days: u32) -> PersistencySeries {
        let population = Population::generate(PopulationConfig::small(sites, 42));
        Crawler::new(population).run(days)
    }

    #[test]
    fn series_has_one_point_per_day() {
        let s = series(300, 20);
        assert_eq!(s.days.len(), 20);
        assert_eq!(s.any_js.len(), 20);
        assert_eq!(s.name_persistent.len(), 20);
        assert_eq!(s.hash_persistent.len(), 20);
        assert_eq!(s.days[0], 1);
        assert_eq!(s.days[19], 20);
    }

    #[test]
    fn persistency_is_monotonically_non_increasing() {
        let s = series(500, 40);
        for window in s.name_persistent.windows(2) {
            assert!(window[1] <= window[0] + 1e-9);
        }
        for window in s.hash_persistent.windows(2) {
            assert!(window[1] <= window[0] + 1e-9);
        }
    }

    #[test]
    fn hash_persistence_never_exceeds_name_persistence() {
        let s = series(500, 40);
        for (hash, name) in s.hash_persistent.iter().zip(s.name_persistent.iter()) {
            assert!(hash <= name);
        }
    }

    #[test]
    fn day_one_name_persistence_matches_any_js() {
        let s = series(400, 5);
        // On the baseline day every site with js is trivially persistent.
        assert!((s.name_persistent[0] - s.any_js[0]).abs() < 1e-9);
    }

    #[test]
    fn figure3_shape_emerges_at_scale() {
        let s = series(3000, 100);
        let day5 = s.at(5).unwrap();
        let day100 = s.at(100).unwrap();
        // Any-js stays roughly flat around 88 %.
        assert!((day5.any_js - 88.0).abs() < 4.0, "any_js at day 5 = {}", day5.any_js);
        // Name persistency ≈87.5 % at five days, declining to ≈75.3 % at 100.
        assert!((day5.name_persistent - 87.5).abs() < 4.0, "day5 = {}", day5.name_persistent);
        assert!((day100.name_persistent - 75.3).abs() < 4.0, "day100 = {}", day100.name_persistent);
        assert!(day5.name_persistent > day100.name_persistent);
        // Hash persistency sits below name persistency.
        assert!(day100.hash_persistent < day100.name_persistent);
    }

    #[test]
    fn at_returns_none_for_unmeasured_days() {
        let s = series(100, 10);
        assert!(s.at(50).is_none());
        assert!(s.last().is_some());
        assert_eq!(s.last().unwrap().day, 10);
    }
}
