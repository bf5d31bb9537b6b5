//! The benchmark's own checks: metric names, the day-1 mirror against the
//! campaign artifact, and seed (in)dependence of the campaign's days.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use parasite::experiments::{ExperimentId, Registry, RunConfig};
use parasite::json::Json;
use perfbench::layers::metric_names;
use perfbench::mirror;
use perfbench::trace::Tracer;
use perfbench::valid_metric_name;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(json: &Json, key: &str) -> Vec<String> {
    json.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|metric| {
            metric
                .get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_metric_name_is_well_formed_and_declared() {
    let declared = benchmark_json();
    let end_to_end = names(&declared, "end_to_end");
    let per_layer = names(&declared, "per_layer");
    for name in end_to_end.iter().chain(&per_layer).chain(&metric_names()) {
        assert!(
            valid_metric_name(name),
            "metric name {name:?} is not [A-Za-z0-9_.-]+"
        );
    }
    assert_eq!(
        per_layer,
        metric_names(),
        "BENCHMARK.json per_layer must list what the traced run prints"
    );
    assert!(end_to_end.contains(&"setup_s".to_string()));
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name(""));
}

/// The small campaign the self-tests run: 20k clients over 32 APs.
fn small(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        fleet_clients: 20_000,
        fleet_aps: 32,
        fleet_days: 3,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

fn day_stats(config: &RunConfig) -> Vec<parasite::experiments::DayStats> {
    let artifact = Registry::get(ExperimentId::CampaignFleet).run(config);
    artifact
        .data
        .as_campaign_fleet()
        .expect("campaign artifact")
        .day_stats
        .clone()
}

#[test]
fn the_day_one_mirror_reproduces_the_artifacts_day_one_events() {
    let config = small(2021);
    let days = day_stats(&config);
    let mut tracer = Tracer::new(true);
    let mirrored = mirror::day1(&config, &mut tracer).expect("mirror runs");
    assert_eq!(
        mirrored.events, days[0].events,
        "mirror events == artifact day-1 events"
    );
    assert_eq!(mirrored.infected, days[0].newly_infected);
    assert_eq!(mirrored.clients, days[0].exposed);
    for phase in [
        "campaign.world_build_s",
        "campaign.client_setup_s",
        "netsim.event_loop_s",
        "campaign.classify_s",
    ] {
        assert_eq!(tracer.durations(phase).len(), 32, "one {phase} span per AP");
    }
}

#[test]
fn a_second_seed_moves_later_days_but_not_day_one_events() {
    let (first, second) = (small(2021), small(2022));
    assert!(!mirror::day1_rotates(&first) && !mirror::day1_rotates(&second));
    let (a, b) = (day_stats(&first), day_stats(&second));
    assert_eq!(
        a[0].events, b[0].events,
        "day-1 outcomes are seed-independent at jitter 0"
    );
    assert_ne!(a[1], b[1], "day 2 churn follows the seed");
    assert_ne!(a[2], b[2], "day 3 churn follows the seed");
    let mut tracer = Tracer::new(false);
    assert_eq!(
        mirror::day1(&second, &mut tracer)
            .expect("mirror runs")
            .events,
        a[0].events,
        "the mirror agrees across seeds too"
    );
}
