//! What a valid run is. [`RunConfig::validate`] checks every field's range;
//! [`RunConfig::validate_checkpointed`] and [`RunConfig::validate_sharded`]
//! add the rules of the two campaign modes on top. Every door into the
//! experiment layer calls one of these before any work starts — the registry
//! runner, the checkpoint and shard entry points, the service daemon's
//! `submit`, `distribute` and the `paper-report` CLI — so each rule has
//! exactly one home and a bad configuration fails fast with the same typed
//! error on every path.
//!
//! The over-packing rule (no AP may seat more clients than its address space
//! holds) depends on the heterogeneity weight draw, so the campaign planner
//! checks it where the plan is made.

use super::campaign::MAX_CLIENTS_PER_AP;
use super::surface::MAX_AXIS_STEPS;
use super::{ExperimentError, ExperimentId, RunConfig, SurfaceVector};
use std::fmt;

/// Why a [`RunConfig`] does not describe a valid run: the rejected field, by
/// its `RunConfig` (and JSON) name, and what is wrong with its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The rejected field; `"experiment"` when a mode rule rejects the
    /// experiment the run would execute.
    pub field: &'static str,
    /// What is wrong, phrased to follow the field name.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for ExperimentError {
    fn from(error: ConfigError) -> Self {
        ExperimentError::Config(error.to_string())
    }
}

fn reject(field: &'static str, reason: String) -> Result<(), ConfigError> {
    Err(ConfigError { field, reason })
}

fn at_least<T>(field: &'static str, value: T, min: T) -> Result<(), ConfigError>
where
    T: PartialOrd + fmt::Display,
{
    if value < min {
        return reject(field, format!("must be at least {min}, got {value}"));
    }
    Ok(())
}

fn within(field: &'static str, value: usize, max: usize) -> Result<(), ConfigError> {
    at_least(field, value, 1)?;
    if value > max {
        return reject(field, format!("must be at most {max}, got {value}"));
    }
    Ok(())
}

/// A JSON number carries every integer below 2^53 exactly; one at or above
/// it may come back rounded from a config echo, a daemon submit or a shard
/// assignment, so no integer field may reach it.
const JSON_EXACT_LIMIT: u64 = 1 << 53;

/// The most worker threads a run may ask for: far more than any machine's
/// cores, far fewer than the operating system's thread limit. A campaign
/// starts `min(fleet_jobs, tasks)` threads and a task is one AP, so without
/// this bound one config line could ask for a million threads. The
/// daemon's `--serve-workers` and `distribute --workers` share the cap.
pub const MAX_FLEET_JOBS: usize = 1024;

fn ordered(start: (&'static str, u64), end: (&'static str, u64)) -> Result<(), ConfigError> {
    if start.1 > end.1 {
        let reason = format!("exceeds {}: the range [{}, {}] is inverted", end.0, start.1, end.1);
        return reject(start.0, reason);
    }
    Ok(())
}

impl RunConfig {
    /// Checks that every field is in range: positive event budget, Table I
    /// cache-size divisor, Figure 5 and Figure 3 population sizes, Figure 3
    /// crawl length, and fleet AP and day counts; at most 1,024 worker
    /// threads (`fleet_jobs`, 0 = one per core); a churn fraction in
    /// `[0, 1]` and a visit probability in `(0, 1]`; attack-surface trials
    /// and axis lengths from 1 up to what one race world and the seed-lane
    /// layout hold; surface ranges that are not inverted; and a vector mask
    /// naming only known vectors; and no integer at or above 2^53, which
    /// JSON cannot carry exactly. Costs O(1).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("seed", self.seed),
            ("scale", self.scale),
            ("sites", self.sites as u64),
            ("crawl_sites", self.crawl_sites as u64),
            ("event_budget", self.event_budget),
            ("jitter_us", self.jitter_us),
            ("fleet_clients", self.fleet_clients as u64),
            ("fleet_aps", self.fleet_aps as u64),
            ("fleet_jobs", self.fleet_jobs as u64),
            ("global_event_budget", self.global_event_budget),
            ("surface_delay_start_us", self.surface_delay_start_us),
            ("surface_delay_end_us", self.surface_delay_end_us),
            ("surface_wan_start_us", self.surface_wan_start_us),
            ("surface_wan_end_us", self.surface_wan_end_us),
        ] {
            if value >= JSON_EXACT_LIMIT {
                return reject(field, format!("must be below 2^53, got {value}"));
            }
        }
        at_least("event_budget", self.event_budget, 1)?;
        at_least("scale", self.scale, 1)?;
        at_least("sites", self.sites, 1)?;
        at_least("crawl_sites", self.crawl_sites, 1)?;
        at_least("days", self.days, 1)?;
        at_least("fleet_aps", self.fleet_aps, 1)?;
        at_least("fleet_days", self.fleet_days, 1)?;
        if self.fleet_jobs > MAX_FLEET_JOBS {
            let reason = format!("must be at most {MAX_FLEET_JOBS}, got {}", self.fleet_jobs);
            return reject("fleet_jobs", reason);
        }
        if !(0.0..=1.0).contains(&self.fleet_churn) {
            let reason = format!("must be a fraction in [0, 1], got {}", self.fleet_churn);
            return reject("fleet_churn", reason);
        }
        if !(self.fleet_visit_prob > 0.0 && self.fleet_visit_prob <= 1.0) {
            let reason = format!("must be a probability in (0, 1], got {}", self.fleet_visit_prob);
            return reject("fleet_visit_prob", reason);
        }
        within("surface_trials", self.surface_trials, MAX_CLIENTS_PER_AP)?;
        within("surface_delay_steps", self.surface_delay_steps, MAX_AXIS_STEPS)?;
        within("surface_adoption_steps", self.surface_adoption_steps, MAX_AXIS_STEPS)?;
        within("surface_wan_steps", self.surface_wan_steps, MAX_AXIS_STEPS)?;
        ordered(
            ("surface_delay_start_us", self.surface_delay_start_us),
            ("surface_delay_end_us", self.surface_delay_end_us),
        )?;
        ordered(
            ("surface_wan_start_us", self.surface_wan_start_us),
            ("surface_wan_end_us", self.surface_wan_end_us),
        )?;
        if self.surface_vectors >> SurfaceVector::ALL.len() != 0 {
            let (mask, known) = (self.surface_vectors, SurfaceVector::ALL.len());
            let reason = format!("mask {mask:#x} has bits beyond the {known} known vectors");
            return reject("surface_vectors", reason);
        }
        Ok(())
    }

    /// [`RunConfig::validate`] plus the checkpoint rule: only a
    /// `campaign_fleet` run has days to checkpoint.
    pub fn validate_checkpointed(&self, experiment: ExperimentId) -> Result<(), ConfigError> {
        self.validate()?;
        if experiment != ExperimentId::CampaignFleet {
            let reason = format!("must be campaign_fleet for a checkpointed run, not {experiment}");
            return reject("experiment", reason);
        }
        Ok(())
    }

    /// [`RunConfig::validate`] plus the shard rule: a sharded run has no
    /// `global_event_budget`, whose pool shared across shards would make the
    /// merged result depend on scheduling.
    pub fn validate_sharded(&self) -> Result<(), ConfigError> {
        self.validate()?;
        if self.global_event_budget > 0 {
            return reject(
                "global_event_budget",
                "must be 0 for a sharded run: a budget pool shared across shards would \
                 make the merged result depend on worker scheduling"
                    .to_string(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default config with one edit applied.
    fn with(edit: impl FnOnce(&mut RunConfig)) -> RunConfig {
        let mut config = RunConfig::default();
        edit(&mut config);
        config
    }

    #[test]
    fn the_default_config_is_valid_in_every_mode_it_can_run() {
        // A one-day campaign is day 1 of the churn loop: it checkpoints and
        // shards like any longer one.
        let config = RunConfig::default();
        assert_eq!(config.validate(), Ok(()));
        assert_eq!(config.validate_checkpointed(ExperimentId::CampaignFleet), Ok(()));
        assert_eq!(config.validate_sharded(), Ok(()));
    }

    #[test]
    fn every_range_rule_names_its_field() {
        for (config, field) in [
            (with(|c| c.event_budget = 0), "event_budget"),
            (with(|c| c.scale = 0), "scale"),
            (with(|c| c.sites = 0), "sites"),
            (with(|c| c.crawl_sites = 0), "crawl_sites"),
            (with(|c| c.days = 0), "days"),
            (with(|c| c.fleet_aps = 0), "fleet_aps"),
            (with(|c| c.fleet_days = 0), "fleet_days"),
            (with(|c| c.fleet_jobs = MAX_FLEET_JOBS + 1), "fleet_jobs"),
            (with(|c| c.fleet_jobs = 1_000_000), "fleet_jobs"),
            (with(|c| c.fleet_churn = 1.5), "fleet_churn"),
            (with(|c| c.fleet_churn = f64::NAN), "fleet_churn"),
            (with(|c| c.fleet_visit_prob = 0.0), "fleet_visit_prob"),
            (with(|c| c.fleet_visit_prob = 1.01), "fleet_visit_prob"),
            (with(|c| c.surface_trials = 0), "surface_trials"),
            (with(|c| c.surface_trials = MAX_CLIENTS_PER_AP + 1), "surface_trials"),
            (with(|c| c.surface_delay_steps = 0), "surface_delay_steps"),
            (with(|c| c.surface_adoption_steps = MAX_AXIS_STEPS + 1), "surface_adoption_steps"),
            (with(|c| c.surface_wan_steps = 0), "surface_wan_steps"),
            (with(|c| c.surface_delay_start_us = 200_000), "surface_delay_start_us"),
            (with(|c| c.surface_wan_start_us = 50_000), "surface_wan_start_us"),
            (with(|c| c.surface_vectors = 0b1_0000), "surface_vectors"),
            (with(|c| c.seed = (1 << 53) + 1), "seed"),
            (with(|c| c.fleet_clients = 1 << 53), "fleet_clients"),
            (with(|c| c.surface_wan_end_us = u64::MAX), "surface_wan_end_us"),
        ] {
            assert_eq!(config.validate().map_err(|error| error.field), Err(field));
        }
        // The edges of every range are valid.
        for config in [
            with(|c| (c.fleet_churn, c.fleet_visit_prob) = (1.0, f64::MIN_POSITIVE)),
            with(|c| (c.scale, c.sites, c.crawl_sites, c.days) = (1, 1, 1, 1)),
            with(|c| (c.surface_trials, c.surface_wan_steps) = (MAX_CLIENTS_PER_AP, MAX_AXIS_STEPS)),
            with(|c| (c.surface_delay_start_us, c.surface_vectors) = (160_000, 0b1111)),
            with(|c| (c.seed, c.jitter_us) = ((1 << 53) - 1, (1 << 53) - 1)),
            with(|c| c.fleet_jobs = MAX_FLEET_JOBS),
        ] {
            assert_eq!(config.validate(), Ok(()));
        }
    }

    #[test]
    fn the_mode_rules_reject_pooled_runs_and_other_experiments() {
        let config = RunConfig::default();
        assert_eq!(
            config.validate_checkpointed(ExperimentId::Fig4).unwrap_err().to_string(),
            "experiment must be campaign_fleet for a checkpointed run, not fig4"
        );
        let pooled = RunConfig { global_event_budget: 10, ..config };
        assert_eq!(pooled.validate_sharded().unwrap_err().field, "global_event_budget");
        assert_eq!(pooled.validate_checkpointed(ExperimentId::CampaignFleet), Ok(()));

        // The mode rules include the range rules.
        let broken = RunConfig { event_budget: 0, ..config };
        assert_eq!(broken.validate_sharded().unwrap_err().field, "event_budget");
        let error = broken.validate_checkpointed(ExperimentId::CampaignFleet).unwrap_err();
        assert_eq!(
            ExperimentError::from(error),
            ExperimentError::Config("event_budget must be at least 1, got 0".to_string())
        );
    }
}
