//! The `daemon` workload: an in-process `mp_service` daemon (two worker
//! threads) on a fresh unix socket, driven by two client connections.
//!
//! * The *fresh* connection opens a new socket per `submit` with `watch` —
//!   the `paper-report submit` pattern — so every round trip pays the
//!   daemon's accept poll.
//! * The *session* connection keeps one socket and interleaves `submit`
//!   (watched), `status`, and a `shard_submit` for each half of the AP range.
//!
//! Every `done` artifact must equal the in-process registry artifact, and
//! the two merged shard halves must equal an in-process `run_campaign_shard`
//! of the full plan.

use crate::configs::{daemon_config, recorded_canary, Canary, DAEMON_WORKERS};
use crate::stats::{best, median, quantile};
use crate::trace::Tracer;
use crate::{Env, Outcome};
use mp_service::{Client, Daemon, Endpoint, Request, Response, RunOutcome, ServeOptions};
use parasite::experiments::{
    run_campaign_shard, CampaignFleetResult, ExperimentId, Registry, RunConfig, RunCtx,
    ShardOutcome, ShardPlan,
};
use parasite::json::ToJson;
use std::path::Path;
use std::time::{Duration, Instant};

/// What every daemon answer is checked against, computed in-process.
pub struct Expected {
    /// The registry artifact's JSON, as `done` must carry it.
    pub artifact: String,
    /// The full-plan shard run, as a campaign result.
    pub shards: CampaignFleetResult,
}

/// Computes the in-process reference outputs for `config`.
pub fn expected(config: &RunConfig) -> Result<Expected, String> {
    let artifact = Registry::get(ExperimentId::CampaignFleet)
        .try_run(config)
        .map_err(|error| error.to_string())?;
    let shards = run_campaign_shard(config, ShardPlan::full(config), &RunCtx::default())
        .and_then(|outcome| outcome.into_fleet_result(config))
        .map_err(|error| error.to_string())?;
    Ok(Expected {
        artifact: artifact.to_json().to_string(),
        shards,
    })
}

/// A running daemon and its endpoint.
pub struct Running {
    daemon: Daemon,
    /// Where it listens.
    pub endpoint: Endpoint,
}

/// Starts a daemon on a fresh socket under `run_dir`. The path is relative
/// to the checkout, which keeps it under the unix socket path limit however
/// deep the checkout lives.
pub fn start(run_dir: &Path, index: usize) -> Result<Running, String> {
    let socket = run_dir.join(format!("daemon-{}-{index}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let options = ServeOptions {
        workers: DAEMON_WORKERS,
        ..ServeOptions::new(&socket)
    };
    let daemon = Daemon::start(options).map_err(|error| format!("daemon start: {error}"))?;
    Ok(Running {
        daemon,
        endpoint: Endpoint::Unix(socket),
    })
}

impl Running {
    /// Sends `shutdown` and joins every daemon thread.
    pub fn stop(self) -> Result<(), String> {
        let mut client = Client::connect(&self.endpoint).map_err(|error| error.to_string())?;
        match client.request(&Request::Shutdown) {
            Ok(Response::ShuttingDown { .. }) => {}
            other => return Err(format!("unexpected shutdown reply: {other:?}")),
        }
        drop(client);
        self.daemon.wait().map_err(|error| error.to_string())
    }
}

/// Host-time stamps of one watched submission.
pub struct RoundTrip {
    /// Request sent (for a fresh connection: before connecting).
    pub start: Instant,
    /// `accepted` read.
    pub accepted: Instant,
    /// First `day` read.
    pub first_day: Option<Instant>,
    /// Last `day` read.
    pub last_day: Option<Instant>,
    /// `done` read.
    pub done: Instant,
    /// The `done` message, re-rendered (the wire line minus its newline).
    pub done_line: String,
    /// Whether the `done` artifact equals the expected one.
    pub ok: bool,
}

impl RoundTrip {
    /// Submit → `done`, seconds.
    pub fn seconds(&self) -> f64 {
        (self.done - self.start).as_secs_f64()
    }
}

/// Submits `config` with `watch` on `client` and reads up to `done`.
pub fn watched_submit(
    client: &mut Client,
    config: &RunConfig,
    start: Instant,
    expected: &Expected,
) -> Result<RoundTrip, String> {
    let request = Request::Submit {
        experiment: ExperimentId::CampaignFleet,
        config: Box::new(*config),
        checkpoint: None,
        watch: true,
    };
    client.send(&request).map_err(|error| error.to_string())?;
    let accepted = match client.read_response() {
        Ok(Response::Accepted { .. }) => Instant::now(),
        other => return Err(format!("expected accepted, got {other:?}")),
    };
    let (mut first_day, mut last_day) = (None, None);
    loop {
        match client.read_response() {
            Ok(Response::Day { .. }) => {
                let now = Instant::now();
                first_day.get_or_insert(now);
                last_day = Some(now);
            }
            Ok(Response::Done { run, outcome }) => {
                let done = Instant::now();
                let ok = matches!(&outcome, RunOutcome::Ok { artifact }
                    if artifact.to_string() == expected.artifact);
                let done_line = Response::Done { run, outcome }.to_json().to_string();
                return Ok(RoundTrip {
                    start,
                    accepted,
                    first_day,
                    last_day,
                    done,
                    done_line,
                    ok,
                });
            }
            other => return Err(format!("expected day or done, got {other:?}")),
        }
    }
}

/// One `shard_submit` round trip: the decoded outcome and its seconds.
pub fn shard_submit(
    client: &mut Client,
    config: &RunConfig,
    plan: ShardPlan,
) -> Result<(ShardOutcome, f64), String> {
    let start = Instant::now();
    let request = Request::ShardSubmit {
        config: Box::new(*config),
        first_ap: plan.first_ap,
        aps: plan.aps,
    };
    match client.request(&request) {
        Ok(Response::ShardResult { outcome, .. }) => {
            let seconds = start.elapsed().as_secs_f64();
            ShardOutcome::from_checkpoint_json(&outcome, config).map(|outcome| (outcome, seconds))
        }
        other => Err(format!("expected shard_result, got {other:?}")),
    }
}

/// Whether two shard halves merge into the expected full-plan result.
pub fn halves_match(config: &RunConfig, halves: Vec<ShardOutcome>, expected: &Expected) -> bool {
    let merged = halves
        .into_iter()
        .try_fold(None::<ShardOutcome>, |merged, next| match merged {
            None => Ok(Some(next)),
            Some(merged) => merged.merge(next).map(Some),
        });
    match merged {
        Ok(Some(merged)) => merged.into_fleet_result(config).as_ref() == Ok(&expected.shards),
        _ => false,
    }
}

/// Whether a `status` reply lists at least `runs` runs and no failed one.
fn status_ok(client: &mut Client, runs: usize) -> bool {
    match client.request(&Request::Status { run: None }) {
        Ok(Response::Status { runs: rows }) => {
            rows.len() >= runs
                && rows
                    .iter()
                    .all(|row| row.outcome.as_deref().is_none_or(|o| o == "ok"))
        }
        _ => false,
    }
}

/// Samples one client connection collected.
#[derive(Default)]
struct Samples {
    submits: Vec<f64>,
    shards: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Samples {
    fn extend(&mut self, other: Samples) {
        self.submits.extend(other.submits);
        self.shards.extend(other.shards);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn fresh_loop(
    endpoint: &Endpoint,
    config: &RunConfig,
    expected: &Expected,
    deadline: Instant,
) -> Samples {
    let mut samples = Samples::default();
    while Instant::now() < deadline {
        let start = Instant::now();
        let trip = Client::connect(endpoint)
            .map_err(|error| error.to_string())
            .and_then(|mut client| watched_submit(&mut client, config, start, expected));
        match trip {
            Ok(trip) => {
                samples.submits.push(trip.seconds());
                samples.check(trip.ok, || "fresh-connection done artifact differs".into());
            }
            Err(error) => samples.check(false, || error),
        }
    }
    samples
}

fn session_loop(
    endpoint: &Endpoint,
    config: &RunConfig,
    expected: &Expected,
    deadline: Instant,
) -> Samples {
    let mut samples = Samples::default();
    let mut client = match Client::connect(endpoint) {
        Ok(client) => client,
        Err(error) => {
            samples.check(false, || error.to_string());
            return samples;
        }
    };
    let plans = ShardPlan::split(config, 2);
    let mut submitted = 0usize;
    while Instant::now() < deadline {
        match watched_submit(&mut client, config, Instant::now(), expected) {
            Ok(trip) => {
                samples.submits.push(trip.seconds());
                samples.check(trip.ok, || "session done artifact differs".into());
            }
            Err(error) => samples.check(false, || error),
        }
        submitted += 1;
        let listed = status_ok(&mut client, submitted);
        samples.check(listed, || "status reply is wrong".into());
        let mut halves = Vec::new();
        for plan in &plans {
            match shard_submit(&mut client, config, *plan) {
                Ok((outcome, seconds)) => {
                    samples.shards.push(seconds);
                    halves.push(outcome);
                }
                Err(error) => samples.check(false, || error),
            }
        }
        submitted += plans.len();
        let merged = halves.len() == plans.len() && halves_match(config, halves, expected);
        samples.check(merged, || {
            "merged shard halves differ from the full plan".into()
        });
    }
    samples
}

/// The untraced measured run.
pub fn measure(env: &Env, setups: usize) -> Outcome {
    let mut outcome = Outcome::default();
    let config = daemon_config(env.seed);

    // Set-up: a fresh daemon plus the in-process reference outputs. The
    // first serves the measurement; the measurement is then split into
    // segments, each followed by one more (timed) set-up of a throwaway
    // daemon, so a burst of outside load skews few of them. Readiness is
    // probed after the timing, because the first reply waits for the accept
    // loop's poll and would make set-up bimodal.
    let started = Instant::now();
    let set_up = start(&env.run_dir, 0).and_then(|daemon| Ok((daemon, expected(&config)?)));
    let mut setup_times = vec![started.elapsed().as_secs_f64()];
    let (running, expected) = match set_up {
        Ok(set_up) => set_up,
        Err(error) => {
            outcome.check(false, || format!("daemon set-up failed: {error}"));
            return outcome;
        }
    };
    let canary = Canary::of(&expected.shards);
    let recorded = recorded_canary("daemon", env.seed);
    outcome.check(recorded == Some(canary), || {
        format!("behaviour changed: canary {canary:?} != recorded {recorded:?}")
    });
    let ready = Client::connect(&running.endpoint)
        .map(|mut client| status_ok(&mut client, 0))
        .unwrap_or(false);
    outcome.check(ready, || "daemon did not answer status".into());

    let (mut fresh, mut session) = (Samples::default(), Samples::default());
    let mut elapsed = 0.0;
    let segments = setups.saturating_sub(1).max(1);
    for segment in 1..=segments {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(env.seconds / segments as f64);
        std::thread::scope(|scope| {
            let fresh_run =
                scope.spawn(|| fresh_loop(&running.endpoint, &config, &expected, deadline));
            let session_run =
                scope.spawn(|| session_loop(&running.endpoint, &config, &expected, deadline));
            fresh.extend(fresh_run.join().expect("fresh-connection client thread"));
            session.extend(session_run.join().expect("session client thread"));
        });
        elapsed += started.elapsed().as_secs_f64();

        let started = Instant::now();
        let set_up =
            start(&env.run_dir, segment).and_then(|daemon| Ok((daemon, self::expected(&config)?)));
        setup_times.push(started.elapsed().as_secs_f64());
        let ok = match set_up {
            Ok((daemon, computed)) => {
                computed.artifact == expected.artifact && daemon.stop().is_ok()
            }
            Err(_) => false,
        };
        outcome.check(ok, || "repeated daemon set-up failed".into());
    }
    let stopped = running.stop();
    outcome.check(stopped.is_ok(), || format!("daemon shutdown: {stopped:?}"));

    for samples in [&fresh, &session] {
        outcome.attempted += samples.attempted;
        outcome.failed += samples.failures.len() as u64;
        for failure in samples.failures.iter().take(3) {
            outcome.note(format!("CHECK FAILED: {failure}"));
        }
    }
    let runs = fresh.submits.len() + session.submits.len();
    let setup_s = median(&setup_times);
    let rt_p50 = median(&fresh.submits) * 1e3;
    outcome.metric("setup_s", setup_s, "s");
    // The fresh-connection median, not best-of-N: the accept poll sets most
    // of it, and a lucky poll phase would hide that from the fastest trip.
    outcome.metric("wall_ms", rt_p50, "ms");
    outcome.metric(
        "peak_rss_mib",
        crate::rss::self_peak_mib().unwrap_or(f64::NAN),
        "MiB",
    );
    outcome.note(format!("setup_s = {setup_s:.6} s (median of {setups})"));
    outcome.note(format!(
        "rt_p50_ms = {rt_p50:.3} ms, rt_p90_ms = {:.3} ms, best {:.3} ms ({} fresh-connection submits)",
        quantile(&fresh.submits, 0.9) * 1e3,
        best(&fresh.submits) * 1e3,
        fresh.submits.len()
    ));
    outcome.note(format!(
        "session_rt_p50_ms = {:.3} ms, session_rt_p90_ms = {:.3} ms, best {:.3} ms ({} session submits)",
        median(&session.submits) * 1e3,
        quantile(&session.submits, 0.9) * 1e3,
        best(&session.submits) * 1e3,
        session.submits.len()
    ));
    outcome.note(format!(
        "shard_rt_p50_ms = {:.3} ms ({} shard submits)",
        median(&session.shards) * 1e3,
        session.shards.len()
    ));
    outcome.note(format!("runs_per_s = {:.3} 1/s", runs as f64 / elapsed));
    outcome
}

/// The traced component of the service layer: a fresh daemon, three
/// fresh-connection and three session submissions with per-message stamps,
/// a `status`, both shard halves, the same config run in-process, and the
/// `done` line's size and decode time. Returns whether every answer matched.
pub fn traced(seed: u64, run_dir: &Path, index: usize, tracer: &mut Tracer) -> bool {
    let config = daemon_config(seed);
    tracer.span("service.total_s", |tracer| {
        let Ok(expected) = expected(&config) else {
            return false;
        };
        let computed = tracer.span("service.compute", |_| {
            Registry::get(ExperimentId::CampaignFleet).try_run(&config)
        });
        let mut ok =
            computed.is_ok_and(|artifact| artifact.to_json().to_string() == expected.artifact);
        let Ok(running) = start(run_dir, index) else {
            return false;
        };
        let mut done_line = String::new();
        for _ in 0..3 {
            let start = Instant::now();
            let trip = Client::connect(&running.endpoint)
                .map_err(|error| error.to_string())
                .and_then(|mut client| watched_submit(&mut client, &config, start, &expected));
            match trip {
                Ok(trip) => {
                    ok &= trip.ok;
                    stamp(tracer, &trip, "service.accepted_fresh");
                    tracer.record("service.fresh_rt", Some(trip.start), Some(trip.done));
                    done_line = trip.done_line;
                }
                Err(_) => ok = false,
            }
        }
        match Client::connect(&running.endpoint) {
            Ok(mut client) => {
                for _ in 0..3 {
                    match watched_submit(&mut client, &config, Instant::now(), &expected) {
                        Ok(trip) => {
                            ok &= trip.ok;
                            stamp(tracer, &trip, "service.accepted_session");
                            tracer.record("service.session_rt", Some(trip.start), Some(trip.done));
                        }
                        Err(_) => ok = false,
                    }
                }
                ok &= tracer.span("service.status", |_| status_ok(&mut client, 6));
                let mut halves = Vec::new();
                for plan in ShardPlan::split(&config, 2) {
                    match tracer.span("service.shard_rt", |_| {
                        shard_submit(&mut client, &config, plan)
                    }) {
                        Ok((outcome, _)) => halves.push(outcome),
                        Err(_) => ok = false,
                    }
                }
                ok &= halves.len() == 2 && halves_match(&config, halves, &expected);
            }
            Err(_) => ok = false,
        }
        ok &= running.stop().is_ok();
        tracer.record_count("protocol.done_bytes", done_line.len() as f64);
        let decoded = tracer.span("protocol.decode", |_| {
            (0..DECODES).all(|_| Response::parse_line(&done_line).is_ok())
        });
        ok && decoded
    })
}

/// `Response::parse_line` repetitions timed for `protocol.decode_us`.
pub const DECODES: usize = 20;

/// Records the accepted / first-day / tail intervals of one round trip.
fn stamp(tracer: &mut Tracer, trip: &RoundTrip, accepted_name: &'static str) {
    tracer.record(accepted_name, Some(trip.start), Some(trip.accepted));
    tracer.record("service.first_day", Some(trip.accepted), trip.first_day);
    tracer.record("service.tail", trip.last_day, Some(trip.done));
}
