//! The traced run: per-layer metrics from spans around each layer's public
//! functions.
//!
//! Every traced run measures all four layer components in rounds, so every
//! per-layer metric is a real measurement on every workload:
//!
//! 0. report — each experiment through `Registry::get(id).run`, the text
//!    rendering, and Figure 3 split into `Population::generate` and
//!    `Crawler::run`;
//! 1. campaign — the day-1 mirror of the campaign fleet (see `mirror`);
//! 2. shards — `run_campaign_shard` over a two-way split, the checkpoint
//!    codec, the merge, and one real `paper-report distribute`;
//! 3. service — a fresh daemon answering fresh-connection and session
//!    submissions, `status` and shard halves.
//!
//! The component the workload exercises runs twice per round, once with the
//! tracer disabled (the same calls, no clock reads), so the tracing overhead
//! is traced minus untraced wall time on the same workload (best of the
//! rounds on each side, like `wall_ms`).

use crate::configs::{campaign_config, recorded_canary};
use crate::report::EXPERIMENT_SPANS;
use crate::stats::{best, median};
use crate::trace::Tracer;
use crate::{daemon, fleet, mirror, report, Env, Outcome};
use std::time::Instant;

/// Fewest rounds a traced run makes, however short `--seconds` is.
const MIN_ROUNDS: u32 = 3;

/// The component index a workload exercises.
fn primary(workload: &str) -> usize {
    match workload {
        "campaign" => 1,
        _ => 3,
    }
}

/// Runs component `component` once; returns whether its outputs checked.
fn component(env: &Env, component: usize, round: u32, tracer: &mut Tracer) -> bool {
    match component {
        0 => report::traced(env.seed, tracer),
        1 => {
            let config = campaign_config(env.seed);
            match mirror::day1(&config, tracer) {
                Ok(result) => {
                    tracer.record_count("netsim.events", result.events as f64);
                    tracer.record_count("campaign.clients", result.clients as f64);
                    recorded_canary("campaign", env.seed).map(|canary| canary.day1_events)
                        == Some(result.events)
                }
                Err(_) => false,
            }
        }
        2 => fleet::traced(env.seed, env.paper_report.as_deref(), tracer),
        _ => daemon::traced(env.seed, &env.run_dir, 1_000 + round as usize, tracer),
    }
}

/// The traced run of `workload`.
pub fn run(env: &Env, workload: &str) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(true);
    let primary = primary(workload);
    let (mut traced_walls, mut untraced_walls) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0u32;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < env.seconds {
        tracer.set_round(round);
        for index in 0..4 {
            let passes: &[bool] = match (index == primary, round % 2) {
                (false, _) => &[true],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &enabled in passes {
                tracer.set_enabled(enabled);
                let op = Instant::now();
                let ok = component(env, index, round, &mut tracer);
                let wall = op.elapsed().as_secs_f64();
                if index == primary {
                    if enabled {
                        &mut traced_walls
                    } else {
                        &mut untraced_walls
                    }
                    .push(wall);
                }
                outcome.check(ok, || {
                    format!("traced component {index} output check failed")
                });
            }
        }
        tracer.set_enabled(true);
        round += 1;
    }

    let trace_path = env
        .run_dir
        .join(format!("trace-{workload}-{}.jsonl", env.seed));
    match tracer.write_jsonl(&trace_path) {
        Ok(()) => outcome.note(format!("spans written to {}", trace_path.display())),
        Err(error) => outcome.note(format!("cannot write spans: {error}")),
    }
    outcome.note(format!("{round} traced rounds"));
    outcome.metrics = metrics(&tracer, best(&traced_walls) - best(&untraced_walls));
    let share = outcome
        .metrics
        .iter()
        .find(|m| m.name == "campaign.phase_share")
        .map(|m| m.value);
    outcome.note(format!(
        "day-1 mirror phases cover {:.1}% of its wall time",
        share.unwrap_or(0.0) * 100.0
    ));
    outcome
}

/// Median over rounds of a per-round figure.
fn per_round_median(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<f64>>())
}

/// Every per-layer metric, from the recorded spans.
pub fn metrics(tracer: &Tracer, overhead_s: f64) -> Vec<crate::Metric> {
    use crate::Metric;
    let round_median = |name: &str| median(&tracer.per_round(name));
    let mut out = Vec::new();
    for name in EXPERIMENT_SPANS.into_iter().chain([
        "report.render_s",
        "webgen.population_s",
        "webgen.crawl_s",
    ]) {
        out.push(Metric::new(name, round_median(name), "s"));
    }

    // The day-1 mirror: four phases, their share of its wall time (dropping
    // the simulators, timed apart as teardown, is most of the rest), and
    // the per-client cost of the HTTP and script calls.
    let phases = [
        "campaign.world_build_s",
        "campaign.client_setup_s",
        "netsim.event_loop_s",
        "campaign.classify_s",
    ];
    for name in phases {
        out.push(Metric::new(name, round_median(name), "s"));
    }
    let mirror = tracer.per_round("campaign.mirror_s");
    let phase_totals: Vec<Vec<f64>> = phases.iter().map(|name| tracer.per_round(name)).collect();
    let share = per_round_median(mirror.iter().enumerate().map(|(round, wall)| {
        let phases: f64 = phase_totals.iter().filter_map(|p| p.get(round)).sum();
        phases / wall
    }));
    out.push(Metric::new("campaign.phase_share", share, "ratio"));
    out.push(Metric::new(
        "campaign.teardown_s",
        round_median("campaign.teardown_s"),
        "s",
    ));
    let events = tracer.count_per_round("netsim.events");
    let clients = tracer.count_per_round("campaign.clients");
    let event_loop = tracer.per_round("netsim.event_loop_s");
    out.push(Metric::new("netsim.events", median(&events), "count"));
    out.push(Metric::new(
        "netsim.events_per_s",
        per_round_median(events.iter().zip(&event_loop).map(|(e, s)| e / s)),
        "1/s",
    ));
    for (metric, span) in [
        ("httpsim.request_encode_ns", "httpsim.request_encode"),
        ("httpsim.response_decode_ns", "httpsim.response_decode"),
        ("script.detect_ns", "script.detect"),
    ] {
        let totals = tracer.per_round(span);
        out.push(Metric::new(
            metric,
            per_round_median(totals.iter().zip(&clients).map(|(s, c)| s / c * 1e9)),
            "ns",
        ));
    }

    // Shards: slowest shard, straggler ratio, codec and merge.
    let shards = tracer.by_round("distrib.shard_s");
    let slowest: Vec<f64> = shards
        .iter()
        .map(|s| s.iter().copied().fold(0.0, f64::max))
        .collect();
    out.push(Metric::new("distrib.shard_s", median(&slowest), "s"));
    out.push(Metric::new(
        "distrib.straggler_ratio",
        per_round_median(shards.iter().zip(&slowest).map(|(s, max)| max / median(s))),
        "ratio",
    ));
    for (metric, span) in [
        ("distrib.encode_ms", "distrib.encode"),
        ("distrib.decode_ms", "distrib.decode"),
        ("distrib.merge_ms", "distrib.merge"),
    ] {
        out.push(Metric::new(metric, round_median(span) * 1e3, "ms"));
    }
    out.push(Metric::new(
        "distrib.result_bytes",
        median(&tracer.count_per_round("distrib.result_bytes")),
        "bytes",
    ));
    // The pinned coordinator runs its shards one after the other, so what
    // distribution adds is its wall time minus the shards' sum.
    let distribute = tracer.per_round("distribute.run_s");
    let shard_sums = tracer.per_round("distrib.shard_s");
    out.push(Metric::new(
        "distribute.overhead_s",
        per_round_median(
            distribute
                .iter()
                .zip(&shard_sums)
                .map(|(wall, shards)| wall - shards),
        ),
        "s",
    ));

    // Service: where a watched submission's round trip goes.
    let ms = |name: &str| median(&tracer.durations(name)) * 1e3;
    for (metric, span) in [
        ("service.accepted_fresh_ms", "service.accepted_fresh"),
        ("service.accepted_session_ms", "service.accepted_session"),
        ("service.first_day_ms", "service.first_day"),
        ("service.tail_ms", "service.tail"),
        ("service.compute_ms", "service.compute"),
        ("service.fresh_rt_ms", "service.fresh_rt"),
        ("service.session_rt_ms", "service.session_rt"),
        ("service.shard_rt_ms", "service.shard_rt"),
    ] {
        out.push(Metric::new(metric, ms(span), "ms"));
    }
    out.push(Metric::new(
        "service.overhead_ms",
        ms("service.fresh_rt") - ms("service.compute"),
        "ms",
    ));
    out.push(Metric::new(
        "protocol.done_bytes",
        median(&tracer.count_per_round("protocol.done_bytes")),
        "bytes",
    ));
    out.push(Metric::new(
        "protocol.decode_us",
        median(&tracer.durations("protocol.decode")) / daemon::DECODES as f64 * 1e6,
        "us",
    ));
    out.push(Metric::new("trace.overhead_s", overhead_s, "s"));
    out
}

/// Every per-layer metric name, in result-line order.
pub fn metric_names() -> Vec<String> {
    metrics(&Tracer::new(false), 0.0)
        .into_iter()
        .map(|metric| metric.name)
        .collect()
}
