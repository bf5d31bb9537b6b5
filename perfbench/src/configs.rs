//! Workload inputs generated from `--seed`, and the recorded canaries they
//! are checked against.
//!
//! A seed selects one of [`VARIANTS`] input variants; variant `v` runs every
//! workload under `RunConfig::seed = 2021 + v` (variant 0 is the default
//! report exactly). `recorded.json` holds, per workload and variant, the
//! deterministic output the unmodified program produces — the report digest,
//! and the campaigns' event totals, day-1 events and infected seats. A
//! changed canary is a change in behaviour, not in speed; the run reports it
//! as a failed check.

use parasite::experiments::RunConfig;
use parasite::json::{Json, ToJson};

/// Number of input variants a seed selects from.
pub const VARIANTS: u64 = 16;

/// Access points of the `campaign` fleet. The per-AP population
/// is the 1M-clients-over-128-APs campaign's (≈7.8k); only the AP count is
/// scaled down to set the run length.
pub const CAMPAIGN_APS: usize = 8;

/// The `campaign` population: 1,000,000 / 128 per AP.
pub const CAMPAIGN_CLIENTS: usize = 1_000_000 * CAMPAIGN_APS / 128;

/// Worker processes of the traced `paper-report distribute` run, and shards
/// of the traced in-process split (one thread each).
pub const DISTRIBUTE_WORKERS: usize = 2;

/// Daemon worker threads, and client connections driving it.
pub const DAEMON_WORKERS: usize = 2;

/// The campaign seed of variant `v`.
pub fn variant_seed(seed: u64) -> u64 {
    2021 + seed % VARIANTS
}

/// `report`: the default eleven-artifact report, one job.
pub fn report_config(seed: u64) -> RunConfig {
    RunConfig {
        seed: variant_seed(seed),
        ..RunConfig::default()
    }
}

/// `campaign` (and the traced shard component): a 3-day churn campaign, one
/// thread per process.
pub fn campaign_config(seed: u64) -> RunConfig {
    RunConfig {
        seed: variant_seed(seed),
        fleet_clients: CAMPAIGN_CLIENTS,
        fleet_aps: CAMPAIGN_APS,
        fleet_days: 3,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

/// `daemon`: the small campaign each submission runs (≈25 ms of compute),
/// so the service layer is most of the round trip.
pub fn daemon_config(seed: u64) -> RunConfig {
    RunConfig {
        seed: variant_seed(seed),
        fleet_clients: 2_000,
        fleet_aps: 8,
        fleet_days: 3,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

/// The deterministic counters of one campaign artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Canary {
    /// Simulator events over all days.
    pub total_events: u64,
    /// Simulator events of day 1.
    pub day1_events: u64,
    /// Infected seats at the end.
    pub infected: u64,
}

impl Canary {
    /// The canary of a campaign artifact's data.
    pub fn of(result: &parasite::experiments::CampaignFleetResult) -> Canary {
        Canary {
            total_events: result.total_events,
            day1_events: result.day_stats.first().map_or(0, |day| day.events),
            infected: result.infected_clients as u64,
        }
    }

    fn to_json(self, seed: u64) -> Json {
        Json::obj([
            ("seed", seed.to_json()),
            ("total_events", self.total_events.to_json()),
            ("day1_events", self.day1_events.to_json()),
            ("infected", self.infected.to_json()),
        ])
    }
}

const RECORDED: &str = include_str!("../recorded.json");

fn recorded() -> Json {
    Json::parse(RECORDED).expect("recorded.json is valid JSON")
}

fn variant_entry(workload: &str, seed: u64) -> Option<Json> {
    let seed = variant_seed(seed);
    recorded()
        .get(workload)?
        .get("variants")?
        .as_array()?
        .iter()
        .find(|entry| entry.get("seed").and_then(Json::as_u64) == Some(seed))
        .cloned()
}

/// The recorded digest of the `report` variant's text report.
pub fn recorded_digest(seed: u64) -> Option<String> {
    variant_entry("report", seed)?
        .get("digest")?
        .as_str()
        .map(str::to_string)
}

/// The recorded canary of a campaign workload's variant (`campaign` for the
/// campaign fleet and its shards, `daemon` for the daemon's submissions).
pub fn recorded_canary(workload: &str, seed: u64) -> Option<Canary> {
    let entry = variant_entry(workload, seed)?;
    let field = |key: &str| entry.get(key).and_then(Json::as_u64);
    Some(Canary {
        total_events: field("total_events")?,
        day1_events: field("day1_events")?,
        infected: field("infected")?,
    })
}

/// Renders `recorded.json` from freshly computed digests and canaries (the
/// `perfbench record` subcommand; run it only on a commit whose output is
/// known to be right).
pub fn render_recorded(
    digests: &[(u64, String)],
    campaign: &[(u64, Canary)],
    daemon: &[(u64, Canary)],
) -> String {
    let workload = |threads: usize, config: RunConfig, variants: Vec<Json>| {
        Json::obj([
            ("threads", (threads as u64).to_json()),
            ("config", config.to_json()),
            ("variants", Json::Arr(variants)),
        ])
    };
    let document = Json::obj([
        (
            "about",
            "Deterministic outputs of the unmodified program per input variant: \
             RunConfig.seed = 2021 + (--seed mod 16); config shows variant 0."
                .to_json(),
        ),
        (
            "report",
            workload(
                1,
                report_config(0),
                digests
                    .iter()
                    .map(|(seed, digest)| {
                        Json::obj([("seed", seed.to_json()), ("digest", digest.to_json())])
                    })
                    .collect(),
            ),
        ),
        (
            "campaign",
            workload(
                1,
                campaign_config(0),
                campaign.iter().map(|(s, c)| c.to_json(*s)).collect(),
            ),
        ),
        (
            "daemon",
            workload(
                DAEMON_WORKERS,
                daemon_config(0),
                daemon.iter().map(|(s, c)| c.to_json(*s)).collect(),
            ),
        ),
    ]);
    document.to_string()
}
