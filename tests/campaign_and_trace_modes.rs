//! Integration coverage for the bounded simulator hot path: the campaign
//! fleet scales without retaining per-packet memory, and starved scenarios
//! fail as per-artifact errors instead of sinking their batch.

use master_parasite::netsim::error::NetError;
use parasite::experiments::{
    try_run_many, ExperimentError, ExperimentId, Registry, RunConfig,
};

fn quick_config() -> RunConfig {
    RunConfig {
        sites: 1_500,
        crawl_sites: 400,
        days: 20,
        ..RunConfig::default()
    }
}

#[test]
fn campaign_fleet_is_deterministic_and_loses_no_clients() {
    let config = RunConfig {
        fleet_clients: 1_000,
        fleet_aps: 16,
        jitter_us: 250,
        ..quick_config()
    };
    let first = Registry::get(ExperimentId::CampaignFleet).run(&config);
    let second = Registry::get(ExperimentId::CampaignFleet).run(&config);
    assert_eq!(first, second, "same seed, same fleet, same artifact");

    let result = first.data.as_campaign_fleet().expect("campaign artifact");
    assert_eq!(result.infected_clients + result.clean_clients, 1_000);
    assert_eq!(result.failed_aps, 0);
    assert!(result.infected_clients > result.clean_clients);
}

#[test]
fn starved_task_fails_alone_in_a_mixed_sweep() {
    let healthy = quick_config();
    let starved = RunConfig {
        event_budget: 2,
        ..quick_config()
    };
    let results = try_run_many(&[ExperimentId::Table2], &[starved, healthy], 2);
    assert_eq!(results.len(), 2);
    assert_eq!(
        results[0],
        Err(ExperimentError::Net(NetError::EventBudgetExhausted { budget: 2 }))
    );
    let artifact = results[1].as_ref().expect("the healthy config completes");
    assert_eq!(artifact.id, ExperimentId::Table2);
}

#[test]
fn multiday_campaign_runs_through_the_registry_and_batch_engine() {
    let config = RunConfig {
        fleet_clients: 600,
        fleet_aps: 6,
        fleet_days: 4,
        fleet_churn: 0.25,
        fleet_jobs: 1,
        ..quick_config()
    };
    let sequential = try_run_many(&[ExperimentId::CampaignFleet], &[config], 1);
    let parallel = try_run_many(&[ExperimentId::CampaignFleet], &[config], 4);
    assert_eq!(sequential, parallel, "batch scheduling must not perturb the day loop");
    let artifact = sequential[0].as_ref().expect("campaign completes");
    let result = artifact.data.as_campaign_fleet().expect("campaign artifact");
    assert_eq!(result.day_stats.len(), 4);
    assert_eq!(result.infected_clients + result.clean_clients, 600);
    // Day one races the whole clean population; infected seats then persist
    // without touching the network, so later exposure is the clean remainder
    // plus churned-in arrivals.
    assert_eq!(result.day_stats[0].exposed, 600);
    assert!(result.day_stats[1].exposed < 600);
    // The JSON wire form carries the day series for machine consumers.
    use parasite::json::{Json, ToJson};
    let json = Json::parse(&artifact.to_json().to_string()).expect("artifact JSON parses");
    let days = json
        .get("data")
        .and_then(|d| d.get("days"))
        .and_then(Json::as_array)
        .expect("day series present");
    assert_eq!(days.len(), 4);
    assert_eq!(days[0].get("exposed").and_then(Json::as_u64), Some(600));
}

#[test]
fn exhausted_global_budget_is_a_typed_error() {
    // Ten events shared across *all* simulators of the run cannot even carry
    // one handshake: the typed error must name the global pool, not the
    // (huge) per-simulator budget.
    let starved = RunConfig {
        global_event_budget: 10,
        ..quick_config()
    };
    let results = try_run_many(&[ExperimentId::Table2], &[starved], 1);
    assert_eq!(
        results[0],
        Err(ExperimentError::Net(NetError::EventBudgetExhausted { budget: 10 }))
    );

    // The campaign fleet fails the same way instead of silently reporting a
    // partial merge when the pool drains mid-sweep.
    let campaign = RunConfig {
        fleet_clients: 400,
        fleet_aps: 4,
        fleet_jobs: 1,
        global_event_budget: 10,
        ..quick_config()
    };
    match Registry::get(ExperimentId::CampaignFleet).try_run(&campaign) {
        Err(ExperimentError::Net(NetError::EventBudgetExhausted { budget: 10 })) => {}
        other => panic!("expected the global pool's typed error, got {other:?}"),
    }
}

#[test]
fn generous_global_budget_leaves_results_untouched() {
    // A pool larger than the run needs must not change any artifact byte.
    let plain = quick_config();
    let budgeted = RunConfig {
        global_event_budget: 50_000_000,
        ..quick_config()
    };
    let reference = Registry::get(ExperimentId::Table2).run(&plain);
    let budgeted_run = Registry::get(ExperimentId::Table2).run(&budgeted);
    assert_eq!(reference.render_text(), budgeted_run.render_text());
    assert_eq!(reference.data, budgeted_run.data);
}
