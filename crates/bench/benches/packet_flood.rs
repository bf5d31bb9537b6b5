//! Packet-flood microbenchmark for the simulator hot path.
//!
//! Floods one client→server connection with pipelined requests (the server
//! answering each with an MSS-sized response) and measures how many simulator
//! events per second the transmit → trace → deliver path sustains under each
//! trace recorder mode. `cargo bench -p mp-bench --bench packet_flood` prints
//! an explicit events/sec line per mode (best of three passes over a 10k
//! request flood, after a warm-up run), times a single-day and a 5-day
//! campaign-fleet sweep, the 5-day sweep split into three merged shards, and
//! an attack-surface grid, and writes the whole set of numbers to
//! `BENCH_packet_flood.json` so CI can archive the perf trajectory and gate on
//! regressions against a rolling same-runner baseline.

use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, Simulator};
use mp_netsim::time::Duration;
use parasite::experiments::{
    run_campaign_shard, ExperimentId, Registry, RunConfig, RunCtx, ShardOutcome, ShardPlan,
};
use parasite::json::{Json, ToJson};

/// Flood size for the warm-up run.
const WARMUP_REQUESTS: usize = 2_000;

/// Flood size for the explicit events/sec measurement: large enough that one
/// pass runs for tens of milliseconds, drowning scheduling noise.
const MEASURE_REQUESTS: usize = 10_000;

/// Throughput passes per mode; the best is reported (standard practice for a
/// canary: the minimum-interference pass is the one that measures the code).
const MEASURE_PASSES: usize = 3;

/// Builds the flood world, pushes `requests` pipelined requests through it and
/// returns the number of events the simulator processed.
fn flood(requests: usize, mode: TraceMode) -> u64 {
    let mut sim = Simulator::new(7).with_trace_mode(mode);
    let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
    let wan = sim.add_medium(MediumKind::WideArea, 40_000);
    let client = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), wifi);
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    let response = vec![b'x'; 1_400];
    sim.set_service(server, Box::new(FixedResponder::new(response, Duration::from_micros(100))));

    let conn = sim.connect(client, server, 80).expect("hosts exist");
    sim.run_until_idle().expect("flood stays within the event budget");
    for _ in 0..requests {
        sim.send(client, conn, b"GET /flood HTTP/1.1\r\nHost: flood.example\r\n\r\n")
            .expect("established");
    }
    sim.run_until_idle().expect("flood stays within the event budget");
    sim.events_processed()
}

/// Best events/sec over [`MEASURE_PASSES`] floods of [`MEASURE_REQUESTS`].
fn measure(mode: TraceMode) -> (u64, f64) {
    let mut events = 0u64;
    let mut best = 0f64;
    for _ in 0..MEASURE_PASSES {
        let start = std::time::Instant::now();
        events = flood(MEASURE_REQUESTS, mode);
        let rate = events as f64 / start.elapsed().as_secs_f64();
        best = best.max(rate);
    }
    (events, best)
}

/// Times one campaign-fleet sweep (20k clients over 32 APs — a CI-sized
/// stand-in for the million-client run) and returns `(seconds, events)`.
fn fleet_timing(days: u32, churn: f64) -> (f64, u64) {
    let config = RunConfig {
        fleet_clients: 20_000,
        fleet_aps: 32,
        fleet_jobs: 1,
        fleet_days: days,
        fleet_churn: churn,
        ..RunConfig::default()
    };
    let start = std::time::Instant::now();
    let artifact = Registry::get(ExperimentId::CampaignFleet).run(&config);
    let seconds = start.elapsed().as_secs_f64();
    let events = artifact
        .data
        .as_campaign_fleet()
        .expect("campaign artifact")
        .total_events;
    (seconds, events)
}

/// Times the same multi-day campaign as `fleet_multiday_5d`, decomposed
/// into shard runs executed concurrently on scoped threads and merged back
/// into the fleet result — the in-process cost model of `paper-report
/// distribute` (without the per-assignment process spawn), so the shard
/// decomposition's overhead over the fused loop rides the trajectory file.
fn fleet_distributed_timing(workers: usize, days: u32, churn: f64) -> (f64, u64) {
    let config = RunConfig {
        fleet_clients: 20_000,
        fleet_aps: 32,
        fleet_jobs: 1,
        fleet_days: days,
        fleet_churn: churn,
        ..RunConfig::default()
    };
    let start = std::time::Instant::now();
    let plans = ShardPlan::split(&config, workers);
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let config = &config;
                scope.spawn(move || {
                    run_campaign_shard(config, *plan, &RunCtx::default()).expect("shard runs")
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("shard thread")).collect()
    });
    let merged = outcomes
        .into_iter()
        .reduce(|left, right| left.merge(right).expect("disjoint shards merge"))
        .expect("at least one shard");
    let result = merged.into_fleet_result(&config).expect("full coverage");
    let seconds = start.elapsed().as_secs_f64();
    (seconds, result.total_events)
}

/// Times one attack-surface sweep (a CI-sized grid: 4 vectors x 6 delays,
/// 64 race trials per cell) and returns `(seconds, events)`.
fn surface_timing() -> (f64, u64) {
    let config = RunConfig {
        surface_trials: 64,
        surface_delay_steps: 6,
        fleet_jobs: 1,
        ..RunConfig::default()
    };
    let start = std::time::Instant::now();
    let artifact = Registry::get(ExperimentId::AttackSurface).run(&config);
    let seconds = start.elapsed().as_secs_f64();
    let events = artifact
        .data
        .as_attack_surface()
        .expect("surface artifact")
        .total_events;
    (seconds, events)
}

const MODES: [(&str, TraceMode); 3] = [
    ("full_trace", TraceMode::Full),
    ("ring_1024", TraceMode::Ring(1024)),
    ("summary_only", TraceMode::SummaryOnly),
];

fn main() {
    // Warm-up: fault in the binary and the allocator before measuring.
    let _ = flood(WARMUP_REQUESTS, TraceMode::SummaryOnly);

    // Explicit throughput lines: events per wall-clock second per mode.
    let mut mode_entries: Vec<(&str, Json)> = Vec::new();
    for (label, mode) in MODES {
        let (events, rate) = measure(mode);
        println!("packet_flood/{label}: {events} events ({rate:.0} events/sec)");
        mode_entries.push((
            label,
            Json::obj([
                ("events", events.to_json()),
                ("events_per_sec", rate.to_json()),
            ]),
        ));
    }

    // Fleet timing: the campaign experiment end to end — the single-day
    // sweep and the multi-day churn loop — so the JSON artifact tracks
    // population-scale cost alongside raw hot-path throughput.
    let mut fleet_entries: Vec<(&str, Json)> = Vec::new();
    for (label, days, churn) in [
        ("fleet_unsharded", 1u32, 0.0f64),
        ("fleet_multiday_5d", 5, 0.2),
    ] {
        let (seconds, events) = fleet_timing(days, churn);
        println!(
            "packet_flood/{label}: {events} events in {seconds:.3}s ({:.0} events/sec)",
            events as f64 / seconds
        );
        fleet_entries.push((
            label,
            Json::obj([
                ("days", days.to_json()),
                ("churn", churn.to_json()),
                ("clients", 20_000u64.to_json()),
                ("aps", 32u64.to_json()),
                ("seconds", seconds.to_json()),
                ("events", events.to_json()),
                ("events_per_sec", (events as f64 / seconds).to_json()),
            ]),
        ));
    }

    // The distributed decomposition of the same 5-day campaign: three
    // shards on concurrent threads, merged — tracks what the shard refactor
    // costs (or saves) against the fused fleet_multiday_5d loop above.
    let (dist_seconds, dist_events) = fleet_distributed_timing(3, 5, 0.2);
    println!(
        "packet_flood/fleet_distributed: {dist_events} events in {dist_seconds:.3}s ({:.0} events/sec)",
        dist_events as f64 / dist_seconds
    );
    fleet_entries.push((
        "fleet_distributed",
        Json::obj([
            ("workers", 3u64.to_json()),
            ("days", 5u32.to_json()),
            ("churn", 0.2f64.to_json()),
            ("clients", 20_000u64.to_json()),
            ("aps", 32u64.to_json()),
            ("seconds", dist_seconds.to_json()),
            ("events", dist_events.to_json()),
            ("events_per_sec", (dist_events as f64 / dist_seconds).to_json()),
        ]),
    ));

    // Surface timing: the attack-surface grid end to end, so the sweep's
    // cost rides the same trajectory file as the fleet numbers.
    let (surface_seconds, surface_events) = surface_timing();
    println!(
        "packet_flood/surface_sweep: {surface_events} events in {surface_seconds:.3}s ({:.0} events/sec)",
        surface_events as f64 / surface_seconds
    );
    let surface_entry = Json::obj([
        ("vectors", 4u64.to_json()),
        ("delay_steps", 6u64.to_json()),
        ("trials", 64u64.to_json()),
        ("seconds", surface_seconds.to_json()),
        ("events", surface_events.to_json()),
        ("events_per_sec", (surface_events as f64 / surface_seconds).to_json()),
    ]);

    // Machine-readable artifact for CI (uploaded per run; the workflow
    // hard-fails if summary_only regresses >20% against a rolling baseline
    // cached per runner class, and prints an advisory note against the
    // committed dev-machine reference in crates/bench/baselines/). Cargo
    // runs benches with the package as working directory, so anchor the path
    // at the workspace root where CI expects it.
    let report = Json::obj([
        ("bench", "packet_flood".to_json()),
        ("measure_requests", (MEASURE_REQUESTS as u64).to_json()),
        ("modes", Json::obj(mode_entries)),
        ("fleet", Json::obj(fleet_entries)),
        ("surface", Json::obj([("surface_sweep", surface_entry)])),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_packet_flood.json");
    if let Err(error) = std::fs::write(&path, format!("{report}\n")) {
        eprintln!("warning: could not write {}: {error}", path.display());
    }
}
