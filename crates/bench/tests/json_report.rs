//! Machine-readability smoke test: the `--json` report must parse as JSON
//! and contain one structured artifact per experiment id, and the parallel
//! batch runner must produce exactly the sequential results.

use mp_bench::{render_report, report_json, run_all};
use parasite::experiments::{try_run_many, ExperimentId, RunConfig};
use parasite::json::Json;

/// A configuration small enough to run the full suite in seconds.
fn quick_config() -> RunConfig {
    RunConfig {
        sites: 1_500,
        crawl_sites: 400,
        days: 20,
        ..RunConfig::default()
    }
}

#[test]
fn json_report_parses_and_covers_all_eleven_experiments() {
    let config = quick_config();
    let artifacts = run_all(&config, 4);
    let text = report_json(&config, &artifacts).to_string();
    let parsed = Json::parse(&text).expect("the JSON report must parse");

    let ids: Vec<&str> = parsed
        .get("artifacts")
        .and_then(Json::as_array)
        .expect("report carries an artifact array")
        .iter()
        .map(|a| a.get("id").and_then(Json::as_str).expect("artifact has an id"))
        .collect();
    let expected: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.as_str()).collect();
    assert_eq!(ids, expected, "one artifact per experiment, in the paper's order");

    // Every artifact carries the config it ran under and a structured body.
    for artifact in parsed.get("artifacts").and_then(Json::as_array).unwrap() {
        assert_eq!(
            artifact.get("config").and_then(|c| c.get("crawl_sites")).and_then(Json::as_u64),
            Some(400)
        );
        assert!(artifact.get("data").is_some(), "artifact has structured data");
    }
}

#[test]
fn campaign_fleet_json_is_structured_and_opt_in() {
    let config = RunConfig {
        fleet_clients: 640,
        fleet_aps: 8,
        ..quick_config()
    };
    // The default report does not include the extension experiment...
    assert!(!ExperimentId::ALL.contains(&ExperimentId::CampaignFleet));
    // ...but selecting it explicitly yields a parseable structured artifact.
    let results = try_run_many(&[ExperimentId::CampaignFleet], std::slice::from_ref(&config), 1);
    let artifact = results[0].as_ref().expect("small fleet completes");
    let parsed = Json::parse(&report_json(&config, std::slice::from_ref(artifact)).to_string())
        .expect("campaign JSON parses");
    let entry = &parsed.get("artifacts").and_then(Json::as_array).unwrap()[0];
    assert_eq!(entry.get("id").and_then(Json::as_str), Some("campaign_fleet"));
    let data = entry.get("data").expect("structured data");
    assert_eq!(data.get("clients").and_then(Json::as_u64), Some(640));
    let infected = data.get("infected_clients").and_then(Json::as_u64).unwrap();
    let clean = data.get("clean_clients").and_then(Json::as_u64).unwrap();
    assert_eq!(infected + clean, 640);
    assert_eq!(data.get("failed_aps").and_then(Json::as_u64), Some(0));
}

#[test]
fn starved_experiment_reports_an_error_without_sinking_the_report() {
    let config = RunConfig {
        event_budget: 3,
        ..quick_config()
    };
    let ids = [ExperimentId::Fig2, ExperimentId::Ablation];
    let results = try_run_many(&ids, std::slice::from_ref(&config), 2);
    assert!(results[0].is_err(), "three events cannot complete a handshake");
    assert!(results[1].is_ok(), "the sibling experiment still completes");
}

#[test]
fn parallel_report_matches_sequential_report() {
    let config = quick_config();
    let sequential = run_all(&config, 1);
    let parallel = run_all(&config, 8);
    assert_eq!(sequential, parallel);
    assert_eq!(render_report(&sequential), render_report(&parallel));
}
