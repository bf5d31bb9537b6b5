//! Regression pins against goldens captured from the release binary before
//! the fleet's seed streams were last re-keyed (the captures ran with a
//! since-deleted shard-count option, whose echo is dropped from them):
//!
//! 1. a one-day fleet gives the golden's summary (at jitter 0 the race is
//!    decided by deterministic timing, so the per-day seed streams change
//!    nothing) and its one day is day 1 of the 3-day golden;
//! 2. the multi-day campaign is byte-identical to its golden;
//! 3. a checkpoint written by that older binary still resumes, because the
//!    config fingerprint never included shard scheduling, and the resumed
//!    report is byte-identical to the golden.

use parasite::experiments::{run_campaign_with_checkpoint, ExperimentId, Registry, RunConfig};
use parasite::json::{Json, ToJson};

/// `paper-report --json --only campaign_fleet --fleet-clients 2048
/// --fleet-aps 8`, artifact `data` object, pre-migration.
const GOLDEN_SHARDED_DATA: &str = "{\"aps\":8,\"clients\":2048,\
\"infected_clients\":1792,\"clean_clients\":256,\"failed_aps\":0,\
\"infection_rate\":0.875,\"total_events\":17920,\"payload_bytes\":921344,\
\"injected_events\":1792,\"pending_bytes_dropped\":0}";

/// The same capture for the 3-day churn campaign (`--fleet-days 3
/// --fleet-churn 0.2`), pre-migration.
const GOLDEN_MULTIDAY_DATA: &str = "{\"aps\":8,\"clients\":2048,\
\"infected_clients\":1792,\"clean_clients\":256,\"failed_aps\":0,\
\"infection_rate\":0.875,\"total_events\":28470,\"payload_bytes\":1389942,\
\"injected_events\":2566,\"pending_bytes_dropped\":0,\"days\":[\
{\"day\":1,\"departures\":417,\"arrivals\":417,\"cache_clears\":0,\
\"object_rotated\":false,\"rotation_cured\":0,\"exposed\":2048,\
\"newly_infected\":1792,\"failed_aps\":0,\"infected\":1792,\"clean\":256,\
\"events\":17920},\
{\"day\":2,\"departures\":430,\"arrivals\":430,\"cache_clears\":16,\
\"object_rotated\":false,\"rotation_cured\":0,\"exposed\":660,\
\"newly_infected\":404,\"failed_aps\":0,\"infected\":1792,\"clean\":256,\
\"events\":5428},\
{\"day\":3,\"departures\":405,\"arrivals\":405,\"cache_clears\":20,\
\"object_rotated\":false,\"rotation_cured\":0,\"exposed\":626,\
\"newly_infected\":370,\"failed_aps\":0,\"infected\":1792,\"clean\":256,\
\"events\":5122}]}";

/// A complete v2 checkpoint written by the pre-migration binary for that
/// 3-day campaign.
const PRE_MIGRATION_CHECKPOINT: &str = include_str!("fixtures/pre_migration_checkpoint.json");

fn fleet_config() -> RunConfig {
    RunConfig {
        fleet_clients: 2048,
        fleet_aps: 8,
        ..RunConfig::default()
    }
}

#[test]
fn sharded_sweep_is_byte_identical_to_the_pre_migration_golden() {
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run(&fleet_config())
        .expect("the one-day fleet runs");
    let json = artifact.data.to_json().to_string();
    let (summary, days) = json.split_once(",\"days\":").expect("the day series");
    assert_eq!(format!("{summary}}}"), GOLDEN_SHARDED_DATA);
    // Its one day is day 1 of the 3-day golden, but for the churn that
    // golden runs (no one departs here).
    let golden = Json::parse(GOLDEN_MULTIDAY_DATA).expect("golden JSON");
    let golden_day = &golden.get("days").and_then(Json::as_array).expect("golden days")[0];
    let days = Json::parse(days.strip_suffix('}').expect("closing brace")).expect("day JSON");
    let [day] = days.as_array().expect("day array") else { panic!("one day, got {days}") };
    for key in ["day", "object_rotated", "exposed", "newly_infected", "infected", "clean", "events"] {
        assert_eq!(day.get(key), golden_day.get(key), "{key}");
    }
    assert_eq!(day.get("departures").and_then(Json::as_u64), Some(0));
}

#[test]
fn multiday_campaign_is_byte_identical_to_the_pre_migration_golden() {
    let config = RunConfig { fleet_days: 3, fleet_churn: 0.2, ..fleet_config() };
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run(&config)
        .expect("the multi-day campaign runs");
    assert_eq!(artifact.data.to_json().to_string(), GOLDEN_MULTIDAY_DATA);
}

#[test]
fn pre_migration_checkpoint_still_resumes_byte_identically() {
    // The fingerprint covers the campaign's logical configuration, not the
    // shard scheduling or the tag constants, so a checkpoint written by the
    // old binary must be accepted verbatim and replay to the same report.
    let path = std::env::temp_dir().join(format!(
        "mp-shard-tag-migration-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, PRE_MIGRATION_CHECKPOINT).expect("checkpoint fixture written");
    let config = RunConfig { fleet_days: 3, fleet_churn: 0.2, ..fleet_config() };
    let result = run_campaign_with_checkpoint(&config, &path);
    let _ = std::fs::remove_file(&path);
    let result = result.expect("the pre-migration checkpoint is accepted");
    assert_eq!(result.to_json().to_string(), GOLDEN_MULTIDAY_DATA);
}
