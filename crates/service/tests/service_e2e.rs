//! End-to-end tests for the campaign service daemon: a real daemon on a real
//! unix socket, driven by the [`Client`] over the newline-JSON protocol.

use mp_service::{Client, Daemon, Endpoint, Request, Response, RunOutcome, RunState, ServeOptions};
use parasite::experiments::{
    run_campaign_with_checkpoint, Artifact, ArtifactData, DayStats, ExperimentId, Registry,
    RunConfig, ShardOutcome, ShardPlan,
};
use parasite::json::ToJson;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-service-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn connect(socket: &Path) -> Client {
    Client::connect(&Endpoint::Unix(socket.to_path_buf())).expect("connect to daemon")
}

fn campaign_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        fleet_clients: 2_000,
        fleet_aps: 4,
        fleet_days: 12,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    }
}

fn submit(client: &mut Client, config: RunConfig, checkpoint: Option<PathBuf>) -> u64 {
    let request = Request::Submit {
        experiment: ExperimentId::CampaignFleet,
        config: Box::new(config),
        checkpoint,
        watch: true,
    };
    match client.request(&request).expect("submission response") {
        Response::Accepted { run, experiment } => {
            assert_eq!(experiment, ExperimentId::CampaignFleet);
            run
        }
        other => panic!("expected accepted, got {other:?}"),
    }
}

/// Reads a watch stream to its end: the day messages, then the outcome.
fn drain_stream(client: &mut Client, run: u64) -> (Vec<DayStats>, RunOutcome) {
    let mut days = Vec::new();
    loop {
        match client.read_response().expect("stream response") {
            Response::Day { run: id, stats } => {
                assert_eq!(id, run);
                days.push(stats);
            }
            Response::Done { run: id, outcome } => {
                assert_eq!(id, run);
                return (days, outcome);
            }
            other => panic!("unexpected message in run {run}'s stream: {other:?}"),
        }
    }
}

fn shutdown_and_wait(daemon: Daemon, socket: &Path) {
    let mut client = connect(socket);
    match client.request(&Request::Shutdown).expect("shutdown response") {
        Response::ShuttingDown { .. } => {}
        other => panic!("expected shutting_down, got {other:?}"),
    }
    daemon.wait().expect("daemon joins cleanly");
    assert!(!socket.exists(), "socket file must be removed on clean shutdown");
}

#[test]
fn concurrent_submissions_with_isolated_budgets_match_batch_runs() {
    let dir = temp_dir("budgets");
    let socket = dir.join("daemon.sock");

    // Size each run's private budget off an unlimited probe: enough for one
    // run plus slack, but nowhere near enough for two runs from one pool. If
    // the daemon (incorrectly) pooled the two submissions, the shared budget
    // would exhaust and the artifacts would diverge from the batch baseline.
    let probe = Registry::get(ExperimentId::CampaignFleet).run(&campaign_config(11));
    let total_events: u64 = match &probe.data {
        ArtifactData::CampaignFleet(result) => result.day_stats.iter().map(|d| d.events).sum(),
        other => panic!("expected a campaign artifact, got {other:?}"),
    };
    let configs = [11, 29].map(|seed| RunConfig {
        global_event_budget: total_events + 1_000,
        ..campaign_config(seed)
    });
    let references: Vec<String> = configs
        .iter()
        .map(|config| {
            Registry::get(ExperimentId::CampaignFleet).run(config).to_json().to_string()
        })
        .collect();

    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let mut clients: Vec<Client> = (0..2).map(|_| connect(&socket)).collect();
    let runs: Vec<u64> = clients
        .iter_mut()
        .zip(configs)
        .map(|(client, config)| submit(client, config, None))
        .collect();

    for ((client, run), reference) in clients.iter_mut().zip(runs).zip(&references) {
        let (days, outcome) = drain_stream(client, run);
        assert_eq!(days.len(), 12, "every campaign day must be streamed");
        assert!(days.iter().enumerate().all(|(i, d)| d.day == i as u32 + 1));
        match outcome {
            RunOutcome::Ok { artifact } => assert_eq!(
                artifact.to_string(),
                *reference,
                "served artifact must be byte-identical to the batch run"
            ),
            other => panic!("expected an ok outcome, got {other:?}"),
        }
    }
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_run_leaves_checkpoint_and_resubmission_matches_batch() {
    let dir = temp_dir("cancel");
    let socket = dir.join("daemon.sock");
    let config = campaign_config(7);

    // The uninterrupted batch reference, wrapped exactly as the daemon wraps
    // checkpoint runs.
    let reference_path = dir.join("reference.ckpt.json");
    let reference = Artifact {
        id: ExperimentId::CampaignFleet,
        config,
        data: ArtifactData::CampaignFleet(
            run_campaign_with_checkpoint(&config, &reference_path).expect("reference run"),
        ),
    }
    .to_json()
    .to_string();

    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let checkpoint = dir.join("served.ckpt.json");

    // Pre-connect the canceller so its request is served the moment it is
    // sent, then cancel as soon as the watcher has seen the first day.
    let mut canceller = connect(&socket);
    let mut watcher = connect(&socket);
    let run = submit(&mut watcher, config, Some(checkpoint.clone()));
    let first = watcher.read_response().expect("first day");
    assert!(matches!(first, Response::Day { stats, .. } if stats.day == 1));
    match canceller.request(&Request::Cancel { run }).expect("cancel response") {
        Response::Cancelling { run: id } => assert_eq!(id, run),
        other => panic!("expected cancelling, got {other:?}"),
    }
    let (days, outcome) = drain_stream(&mut watcher, run);
    let completed = match outcome {
        RunOutcome::Cancelled { days_completed } => days_completed,
        other => panic!("expected a cancelled outcome, got {other:?}"),
    };
    // Day 1 was streamed before the token was set, and twelve fast days
    // could not all have elapsed in the few-millisecond cancel latency.
    assert!((1..12).contains(&completed), "cancel must stop mid-campaign, got {completed}");
    assert_eq!(days.len() + 1, completed as usize, "stream covered every completed day");
    assert!(checkpoint.exists(), "cancelled run must leave its checkpoint");

    // Status shows the run as done/cancelled.
    match canceller.request(&Request::Status { run: Some(run) }).expect("status") {
        Response::Status { runs } => {
            assert_eq!(runs.len(), 1);
            assert_eq!(runs[0].state, RunState::Done);
            assert_eq!(runs[0].days, completed);
            assert_eq!(runs[0].outcome.as_deref(), Some("cancelled"));
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Resubmit the identical config and checkpoint: the daemon resumes from
    // the completed days, replays them into the stream, finishes the
    // campaign, and the final artifact is byte-identical to the batch run.
    let resumed = submit(&mut watcher, config, Some(checkpoint.clone()));
    let (days, outcome) = drain_stream(&mut watcher, resumed);
    assert_eq!(days.len(), 12, "replayed checkpoint days plus fresh days");
    assert!(days.iter().enumerate().all(|(i, d)| d.day == i as u32 + 1));
    match outcome {
        RunOutcome::Ok { artifact } => assert_eq!(
            artifact.to_string(),
            reference,
            "cancel + resume must be byte-identical to one uninterrupted run"
        ),
        other => panic!("expected an ok outcome, got {other:?}"),
    }
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_run_cancelled_before_execution_resolves_with_zero_days() {
    let dir = temp_dir("queued");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions {
        workers: 1,
        ..ServeOptions::new(&socket)
    })
    .expect("daemon starts");

    // With one worker the second submission sits in the queue while the
    // first runs; cancelling it must resolve it without executing a day.
    // The first campaign is ten times the usual size so that it outlasts
    // the submit and cancel round trips (the usual one finishes in ~20 ms).
    let mut first = connect(&socket);
    let mut second = connect(&socket);
    let long = RunConfig { fleet_clients: 20_000, ..campaign_config(3) };
    let running = submit(&mut first, long, None);
    let queued = submit(&mut second, campaign_config(5), None);
    let mut control = connect(&socket);
    match control.request(&Request::Cancel { run: queued }).expect("cancel response") {
        Response::Cancelling { run } => assert_eq!(run, queued),
        other => panic!("expected cancelling, got {other:?}"),
    }
    let (days, outcome) = drain_stream(&mut second, queued);
    assert!(days.is_empty(), "a queued-cancelled run must never execute");
    assert!(matches!(outcome, RunOutcome::Cancelled { days_completed: 0 }));

    // The running submission is untouched by its neighbour's cancellation.
    let (days, outcome) = drain_stream(&mut first, running);
    assert_eq!(days.len(), 12);
    assert!(matches!(outcome, RunOutcome::Ok { .. }));
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_submissions_merge_to_the_batch_artifact() {
    let dir = temp_dir("shards");
    let socket = dir.join("daemon.sock");
    let config = RunConfig { fleet_days: 3, ..campaign_config(13) };
    let reference =
        Registry::get(ExperimentId::CampaignFleet).run(&config).to_json().to_string();

    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");

    // A shard submission runs synchronously on its connection: one request,
    // one shard_result reply carrying the mergeable partial checkpoint.
    let mut merged: Option<ShardOutcome> = None;
    for plan in ShardPlan::split(&config, 3) {
        let mut client = connect(&socket);
        let request = Request::ShardSubmit {
            config: Box::new(config),
            first_ap: plan.first_ap,
            aps: plan.aps,
        };
        let outcome = match client.request(&request).expect("shard response") {
            Response::ShardResult { outcome, .. } => outcome,
            other => panic!("expected shard_result, got {other:?}"),
        };
        let outcome =
            ShardOutcome::from_checkpoint_json(&outcome, &config).expect("partial decodes");
        merged = Some(match merged {
            None => outcome,
            Some(accumulated) => accumulated.merge(outcome).expect("disjoint shards merge"),
        });
    }
    let artifact = Artifact {
        id: ExperimentId::CampaignFleet,
        config,
        data: ArtifactData::CampaignFleet(
            merged
                .expect("three shards ran")
                .into_fleet_result(&config)
                .expect("full coverage converts"),
        ),
    };
    assert_eq!(
        artifact.to_json().to_string(),
        reference,
        "merged shard submissions must be byte-identical to the batch run"
    );

    // Shards reject configurations whose merged result could depend on the
    // scheduling of the shards.
    let mut client = connect(&socket);
    let error_for = |client: &mut Client, request: &Request| {
        match client.request(request).expect("response") {
            Response::Error { message, .. } => message,
            other => panic!("expected an error response, got {other:?}"),
        }
    };
    let message = error_for(
        &mut client,
        &Request::ShardSubmit {
            config: Box::new(RunConfig { global_event_budget: 1_000, ..config }),
            first_ap: 0,
            aps: 1,
        },
    );
    assert!(message.contains("global_event_budget"), "got: {message}");
    // A one-day campaign is day 1 of the same shard loop: its shard runs.
    let one_day = Request::ShardSubmit {
        config: Box::new(RunConfig { fleet_days: 1, ..config }),
        first_ap: 0,
        aps: 1,
    };
    match client.request(&one_day).expect("shard response") {
        Response::ShardResult { .. } => {}
        other => panic!("expected shard_result, got {other:?}"),
    }

    // The shard runs appear in the scheduler table as done/ok.
    match client.request(&Request::Status { run: None }).expect("status") {
        Response::Status { runs } => {
            let done_ok = runs
                .iter()
                .filter(|row| {
                    row.state == RunState::Done && row.outcome.as_deref() == Some("ok")
                })
                .count();
            assert!(done_ok >= 3, "expected three finished shard runs, got {runs:?}");
        }
        other => panic!("expected status, got {other:?}"),
    }
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bounded_queue_rejects_overflow_with_a_typed_error() {
    let dir = temp_dir("queue-limit");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions {
        workers: 1,
        queue_limit: 1,
        ..ServeOptions::new(&socket)
    })
    .expect("daemon starts");

    // A long campaign occupies the single worker for the whole test (it is
    // cancelled by the shutdown at the end, never run to completion).
    let mut first = connect(&socket);
    let occupant = match first
        .request(&Request::Submit {
            experiment: ExperimentId::CampaignFleet,
            config: Box::new(RunConfig { fleet_days: 600, ..campaign_config(17) }),
            checkpoint: None,
            watch: false,
        })
        .expect("submission response")
    {
        Response::Accepted { run, .. } => run,
        other => panic!("expected accepted, got {other:?}"),
    };
    // Wait until the worker has dequeued it, so the queue is empty again.
    let mut control = connect(&socket);
    loop {
        match control.request(&Request::Status { run: Some(occupant) }).expect("status") {
            Response::Status { runs } if runs[0].state == RunState::Running => break,
            Response::Status { .. } => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            other => panic!("expected status, got {other:?}"),
        }
    }

    // The queue (bound 1) takes exactly one more submission; the next one
    // is rejected with the machine-readable queue_full error.
    let mut second = connect(&socket);
    match second
        .request(&Request::Submit {
            experiment: ExperimentId::CampaignFleet,
            config: Box::new(campaign_config(19)),
            checkpoint: None,
            watch: false,
        })
        .expect("submission response")
    {
        Response::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    let mut third = connect(&socket);
    match third
        .request(&Request::Submit {
            experiment: ExperimentId::CampaignFleet,
            config: Box::new(campaign_config(23)),
            checkpoint: None,
            watch: false,
        })
        .expect("response")
    {
        Response::Error { message, code } => {
            assert_eq!(code.as_deref(), Some("queue_full"), "message: {message}");
            assert!(message.contains("limit 1"), "got: {message}");
        }
        other => panic!("expected a queue_full error, got {other:?}"),
    }
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_violations_get_pointed_error_responses() {
    let dir = temp_dir("errors");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let mut client = connect(&socket);

    // Every daemon-originated error now carries a machine-readable code.
    let error_for = |client: &mut Client, request: &Request| {
        match client.request(request).expect("response") {
            Response::Error { message, code } => {
                (message, code.expect("every daemon error carries a code"))
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    };
    let (message, code) = error_for(&mut client, &Request::Cancel { run: 99 });
    assert!(message.contains("unknown run 99"));
    assert_eq!(code, "bad_request");
    let (message, code) = error_for(&mut client, &Request::Watch { run: 42 });
    assert!(message.contains("unknown run 42"));
    assert_eq!(code, "bad_request");
    let (message, code) = error_for(&mut client, &Request::Status { run: Some(7) });
    assert!(message.contains("unknown run 7"));
    assert_eq!(code, "bad_request");
    // Checkpoints are a campaign_fleet contract, and a checkpointed config
    // is validated like any other, mirrored from the CLI's batch mode.
    let (message, code) = error_for(
        &mut client,
        &Request::Submit {
            experiment: ExperimentId::Fig4,
            config: Box::new(RunConfig::default()),
            checkpoint: Some(dir.join("nope.ckpt.json")),
            watch: false,
        },
    );
    assert!(message.contains("campaign_fleet"), "got: {message}");
    assert_eq!(code, "bad_request");
    let (message, code) = error_for(
        &mut client,
        &Request::Submit {
            experiment: ExperimentId::CampaignFleet,
            config: Box::new(RunConfig { fleet_days: 0, ..RunConfig::default() }),
            checkpoint: Some(dir.join("nope.ckpt.json")),
            watch: false,
        },
    );
    assert!(message.contains("fleet_days must be at least 1"), "got: {message}");
    assert_eq!(code, "bad_request");

    // A non-JSON line gets an error response instead of killing the
    // connection: the next request on the same socket still works.
    use std::io::Write;
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    let mut reader = std::io::BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    writeln!(raw, "this is not json").expect("write garbage");
    std::io::BufRead::read_line(&mut reader, &mut line).expect("error line");
    assert!(line.contains("not valid JSON"), "got: {line}");
    assert!(line.contains("\"code\":\"bad_request\""), "got: {line}");
    writeln!(raw, "{}", Request::Status { run: None }.to_json()).expect("write status");
    line.clear();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("status line");
    assert!(line.contains("\"type\":\"status\""), "got: {line}");

    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stale_socket_is_recovered_but_a_live_daemon_is_not_clobbered() {
    let dir = temp_dir("stale-socket");
    let socket = dir.join("daemon.sock");

    // Fake an unclean death: bind a socket and drop the listener without
    // removing the file (what a kill -9 leaves behind).
    let stale = std::os::unix::net::UnixListener::bind(&socket).expect("first bind");
    drop(stale);
    assert!(socket.exists(), "the stale socket file must be left behind");

    // A new daemon detects that nobody answers, removes the stale file and
    // binds; a second daemon on the same path is refused — the first one is
    // alive and answering.
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("stale socket recovered");
    let error = match Daemon::start(ServeOptions::new(&socket)) {
        Err(error) => error,
        Ok(_) => panic!("a live daemon's socket must not be clobbered"),
    };
    assert!(
        error.to_string().contains("already listening"),
        "got: {error}"
    );
    // The live daemon survived the probe and still serves.
    let mut client = connect(&socket);
    match client.request(&Request::Status { run: None }).expect("status response") {
        Response::Status { runs } => assert!(runs.is_empty()),
        other => panic!("expected status, got {other:?}"),
    }
    shutdown_and_wait(daemon, &socket);

    // A non-socket file at the path is someone's data: never removed.
    std::fs::write(&socket, "precious").expect("plant a regular file");
    let error = match Daemon::start(ServeOptions::new(&socket)) {
        Err(error) => error,
        Ok(_) => panic!("a regular file must not be clobbered"),
    };
    assert_eq!(error.kind(), std::io::ErrorKind::AddrInUse);
    assert_eq!(std::fs::read_to_string(&socket).expect("file survives"), "precious");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_over_long_line_is_rejected_without_disturbing_other_runs() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp_dir("long-line");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");

    // A watched run on another connection is in flight throughout.
    let config = RunConfig { fleet_days: 3, ..campaign_config(5) };
    let mut watcher = connect(&socket);
    let run = submit(&mut watcher, config, None);

    // One line past the cap, in one write: the daemon answers once the cap
    // is reached, drops the rest of the line, and keeps the connection.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut long = vec![b'x'; mp_service::protocol::MAX_LINE_BYTES + 4096];
    long.push(b'\n');
    raw.write_all(&long).expect("write the long line");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    let limit = format!("{}-byte limit", mp_service::protocol::MAX_LINE_BYTES);
    assert!(line.contains(&limit), "got: {line}");
    assert!(line.contains("\"code\":\"bad_request\""), "got: {line}");
    writeln!(raw, "{}", Request::Status { run: None }.to_json()).expect("write status");
    line.clear();
    reader.read_line(&mut line).expect("status line");
    assert!(line.contains("\"type\":\"status\""), "got: {line}");

    // A line exactly at the cap (newline included) is still read as a
    // request: here it is not JSON, so the error is about that instead.
    let mut at_cap = vec![b' '; mp_service::protocol::MAX_LINE_BYTES - 2];
    at_cap.extend_from_slice(b"x\n");
    raw.write_all(&at_cap).expect("write the capped line");
    line.clear();
    reader.read_line(&mut line).expect("error line");
    assert!(line.contains("not valid JSON"), "got: {line}");

    let (days, outcome) = drain_stream(&mut watcher, run);
    assert_eq!(days.len(), 3);
    let reference = Registry::get(ExperimentId::CampaignFleet).run(&config).to_json().to_string();
    match outcome {
        RunOutcome::Ok { artifact } => assert_eq!(artifact.to_string(), reference),
        other => panic!("expected an ok outcome, got {other:?}"),
    }
    drop(raw);
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_lines_are_rejected_without_disturbing_other_runs() {
    use std::io::{BufRead, BufReader, Write};
    let dir = temp_dir("hostile-lines");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");

    // A watched run on another connection is in flight throughout.
    let config = RunConfig { fleet_days: 3, ..campaign_config(9) };
    let mut watcher = connect(&socket);
    let run = submit(&mut watcher, config, None);

    // 200k `[` (under the line cap, far past the parser's depth cap), then a
    // non-UTF-8 line: each gets a bad_request reply, and the connection and
    // the daemon stay up.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("raw connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    let mut reply_to = |request: &[u8]| {
        raw.write_all(request).expect("write the line");
        line.clear();
        reader.read_line(&mut line).expect("reply line");
        line.clone()
    };
    let nested = reply_to(format!("{}\n", "[".repeat(200_000)).as_bytes());
    assert!(nested.contains("nesting deeper than"), "got: {nested}");
    assert!(nested.contains("\"code\":\"bad_request\""), "got: {nested}");
    let invalid = reply_to(b"\xff\xfe{\"op\":\"status\"}\n");
    assert!(invalid.contains("not valid UTF-8"), "got: {invalid}");
    assert!(invalid.contains("\"code\":\"bad_request\""), "got: {invalid}");
    // Configurations the validator or the decoder rejects: a shard gets
    // bad_request before it runs, a submit before it gets a run id.
    for (config, expected) in [
        (r#"{"fleet_clients":2000,"fleet_aps":4,"fleet_days":3,"event_budget":0}"#, "event_budget"),
        (r#"{"fleet_clients":2000,"fleet_aps":0,"fleet_days":3}"#, "fleet_aps"),
        (r#"{"fleet_clients":2000,"fleet_aps":4,"fleet_days":3,"fleet_visit_prob":0}"#, "fleet_visit_prob"),
        (r#"{"fleet_clients":2000,"fleet_aps":4,"fleet_days":4294967298}"#, "run configuration"),
        (r#"{"fleet_aps":64,"fleet_days":2,"fleet_clientz":10}"#, "fleet_clientz"),
    ] {
        let line = format!("{{\"op\":\"shard_submit\",\"config\":{config},\"first_ap\":0,\"aps\":1}}\n");
        let reply = reply_to(line.as_bytes());
        assert!(reply.contains("\"code\":\"bad_request\"") && reply.contains(expected), "got: {reply}");
    }
    for (config, expected) in [
        (r#"{"fleet_clients":2000,"fleet_aps":4,"fleet_days":3,"fleet_churn":1.5}"#, "fleet_churn"),
        (r#"{"fleet_clients":2000,"fleet_aps":4,"event_budget":0}"#, "event_budget"),
        (r#"{"scale":0}"#, "scale"),
        (r#"{"sites":0}"#, "sites"),
        (r#"{"crawl_sites":0}"#, "crawl_sites"),
        (r#"{"days":0}"#, "days"),
        (r#"{"fleet_days":4294967298}"#, "run configuration"),
        (r#"{"seed":9007199254740993}"#, "run configuration"),
    ] {
        let line = format!("{{\"op\":\"submit\",\"experiment\":\"campaign_fleet\",\"config\":{config}}}\n");
        let reply = reply_to(line.as_bytes());
        assert!(reply.contains("\"code\":\"bad_request\"") && reply.contains(expected), "got: {reply}");
        assert!(!reply.contains("\"run\""), "a rejected submit gets no run id: {reply}");
    }
    let status = reply_to(format!("{}\n", Request::Status { run: None }.to_json()).as_bytes());
    assert!(status.contains("\"type\":\"status\""), "got: {status}");

    let (days, outcome) = drain_stream(&mut watcher, run);
    assert_eq!(days.len(), 3);
    let reference = Registry::get(ExperimentId::CampaignFleet).run(&config).to_json().to_string();
    match outcome {
        RunOutcome::Ok { artifact } => assert_eq!(artifact.to_string(), reference),
        other => panic!("expected an ok outcome, got {other:?}"),
    }
    drop(raw);
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs [`Daemon::wait`] on a thread and fails the test if it has not
/// returned within 5 s: a shutdown that hangs must fail, not stall the suite.
fn wait_within_limit(daemon: Daemon) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(daemon.wait()));
    finished
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("Daemon::wait returned within 5 s")
        .expect("daemon joins cleanly");
}

fn request_shutdown(client: &mut Client) {
    match client.request(&Request::Shutdown).expect("shutdown response") {
        Response::ShuttingDown { .. } => {}
        other => panic!("expected shutting_down, got {other:?}"),
    }
}

#[test]
fn fresh_connections_are_served_without_an_accept_timer() {
    let dir = temp_dir("fresh");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    // A daemon that polled its listener every 50 ms would take about 1 s
    // here: each connection would wait for the next poll.
    let started = std::time::Instant::now();
    for _ in 0..20 {
        match connect(&socket).request(&Request::Status { run: None }).expect("status") {
            Response::Status { .. } => {}
            other => panic!("expected status, got {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "20 fresh status trips took {elapsed:?}"
    );
    shutdown_and_wait(daemon, &socket);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_returns_while_a_second_connection_sits_idle() {
    let dir = temp_dir("idle");
    let socket = dir.join("daemon.sock");
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let _idle = connect(&socket);
    request_shutdown(&mut connect(&socket));
    wait_within_limit(daemon);
    assert!(!socket.exists(), "socket file must be removed on clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_wakes_a_tcp_listener_that_served_a_submit() {
    let dir = temp_dir("tcp");
    let socket = dir.join("daemon.sock");
    // An unspecified bind address is woken over loopback.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let options = ServeOptions { tcp: Some(bind.to_string()), ..ServeOptions::new(&socket) };
        let daemon = Daemon::start(options).expect("daemon starts");
        let port = daemon.tcp_addr().expect("a bound TCP address").port();
        let endpoint = Endpoint::Tcp(format!("127.0.0.1:{port}"));
        let mut client = Client::connect(&endpoint).expect("connect over TCP");
        let config = RunConfig { fleet_days: 3, ..campaign_config(5) };
        let run = submit(&mut client, config, None);
        let (days, outcome) = drain_stream(&mut client, run);
        assert_eq!(days.len(), 3);
        assert!(matches!(outcome, RunOutcome::Ok { .. }), "got {outcome:?}");
        request_shutdown(&mut Client::connect(&endpoint).expect("reconnect"));
        wait_within_limit(daemon);
        assert!(!socket.exists(), "socket file must be removed on clean shutdown");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_returns_after_the_socket_file_was_unlinked_or_replaced() {
    let dir = temp_dir("unlinked");
    let socket = dir.join("daemon.sock");

    // Unlinked: the wake-up connect finds no socket file.
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let mut client = connect(&socket);
    std::fs::remove_file(&socket).expect("unlink the socket file");
    request_shutdown(&mut client);
    wait_within_limit(daemon);

    // Replaced: someone else now listens at the path. The daemon must not
    // take their socket for its own, neither to wake itself nor to remove.
    let daemon = Daemon::start(ServeOptions::new(&socket)).expect("daemon starts");
    let mut client = connect(&socket);
    std::fs::remove_file(&socket).expect("unlink the socket file");
    let _other = std::os::unix::net::UnixListener::bind(&socket).expect("another listener");
    request_shutdown(&mut client);
    wait_within_limit(daemon);
    assert!(socket.exists(), "the other listener's socket file is left alone");
    let _ = std::fs::remove_dir_all(&dir);
}
