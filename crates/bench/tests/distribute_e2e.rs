//! End-to-end tests for the distributed campaign mode: the `distribute`
//! coordinator and its `shard-worker` child processes, driven through the
//! real binary. The contract under test is the determinism guarantee of the
//! shard decomposition — a campaign split across worker processes merges to
//! the byte-identical single-process report, including after a worker is
//! killed mid-assignment and its range is retried.

use std::io::{Read, Write};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long one `paper-report` process may run before the test fails
/// instead of hanging the suite: a coordinator without a shard timeout
/// waits on a silent worker forever.
const RUN_LIMIT: Duration = Duration::from_secs(120);

/// A fast multi-day campaign: small enough for a test, big enough that
/// every one of three shards owns at least one AP.
const CAMPAIGN: [&str; 12] = [
    "--only",
    "campaign_fleet",
    "--seed",
    "13",
    "--fleet-clients",
    "2000",
    "--fleet-aps",
    "4",
    "--fleet-days",
    "3",
    "--fleet-churn",
    "0.2",
];

fn paper_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper-report")).args(args).output_within()
}

trait OutputWithin {
    /// `Command::output`, bounded by [`RUN_LIMIT`].
    fn output_within(&mut self) -> Output;
}

impl OutputWithin for Command {
    fn output_within(&mut self) -> Output {
        let child = self
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("paper-report spawns");
        finish_within(child)
    }
}

/// Collects a spawned child's exit status and piped stdout/stderr; kills
/// it and fails the test if it (or a worker still holding its pipes) is
/// not done within [`RUN_LIMIT`].
fn finish_within(mut child: Child) -> Output {
    fn drain(pipe: Option<impl Read + Send + 'static>) -> mpsc::Receiver<Vec<u8>> {
        let (sender, receiver) = mpsc::channel();
        let mut pipe = pipe.expect("piped output");
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            let _ = pipe.read_to_end(&mut bytes);
            let _ = sender.send(bytes);
        });
        receiver
    }
    let deadline = Instant::now() + RUN_LIMIT;
    let stdout = drain(child.stdout.take());
    let stderr = drain(child.stderr.take());
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the child") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("paper-report ran past the {RUN_LIMIT:?} test limit; killed");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let collect = |receiver: mpsc::Receiver<Vec<u8>>| {
        let left = deadline.saturating_duration_since(Instant::now());
        receiver
            .recv_timeout(left)
            .unwrap_or_else(|_| panic!("a child kept paper-report's output open past the limit"))
    };
    Output { status, stdout: collect(stdout), stderr: collect(stderr) }
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "exit {:?}; stderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("utf-8 report")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mp-distribute-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn distribute_matches_the_batch_report_byte_for_byte() {
    let batch_json = stdout_of(&paper_report(&[CAMPAIGN.as_slice(), &["--json"]].concat()));
    let distributed_json = stdout_of(&paper_report(
        &[&["distribute", "--workers", "3"], CAMPAIGN.as_slice(), &["--json"]].concat(),
    ));
    assert_eq!(
        distributed_json, batch_json,
        "three workers must merge to the single-process JSON report"
    );

    // The human-readable rendering goes through the same merged artifact.
    let batch_text = stdout_of(&paper_report(&CAMPAIGN));
    let distributed_text = stdout_of(&paper_report(
        &[&["distribute", "--workers", "3"], CAMPAIGN.as_slice()].concat(),
    ));
    assert_eq!(distributed_text, batch_text);

    // More workers than APs: the split caps at one AP per shard and the
    // report is still identical.
    let many = stdout_of(&paper_report(
        &[&["distribute", "--workers", "9"], CAMPAIGN.as_slice(), &["--json"]].concat(),
    ));
    assert_eq!(many, batch_json);
}

#[test]
fn a_killed_worker_is_retried_and_the_report_still_matches() {
    let dir = temp_dir("crash");
    let claims = dir.join("claims");
    let batch = stdout_of(&paper_report(&[CAMPAIGN.as_slice(), &["--json"]].concat()));

    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args([&["distribute", "--workers", "3"], CAMPAIGN.as_slice(), &["--json"]].concat())
        .env("MP_FAULT_PLAN", "crash@1")
        .env("MP_FAULT_DIR", &claims)
        .output_within();
    assert!(
        claims.join("assign-000001").exists(),
        "the crash fault must have been claimed — no worker actually died"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("retrying"),
        "the coordinator must report the retried range; stderr: {stderr}"
    );
    assert_eq!(
        stdout_of(&output),
        batch,
        "a killed worker's range must be retried and the merged report must \
         still match the batch run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chaos_plan_with_crash_hang_and_garble_still_matches_the_batch_report() {
    let dir = temp_dir("chaos");
    let claims = dir.join("claims");
    let batch = stdout_of(&paper_report(&[CAMPAIGN.as_slice(), &["--json"]].concat()));

    // One worker crashes before replying, one garbles its reply line, one
    // hangs until the shard timeout kills it; every range retries and the
    // merged report is still byte-identical.
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(
            [
                &["distribute", "--workers", "3", "--shard-timeout", "2"],
                CAMPAIGN.as_slice(),
                &["--json"],
            ]
            .concat(),
        )
        .env("MP_FAULT_PLAN", "crash@1,garble@2,hang@3")
        .env("MP_FAULT_DIR", &claims)
        .output_within();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert_eq!(stdout_of(&output), batch, "chaos must not change the report; stderr: {stderr}");
    assert!(
        stderr.contains("exited without replying"),
        "the crash must be reported: {stderr}"
    );
    assert!(stderr.contains("not valid JSON"), "the garble must be reported: {stderr}");
    assert!(stderr.contains("shard timeout"), "the hang must be reported: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_plans_are_deterministic_across_runs() {
    let dir = temp_dir("determinism");
    let run = |tag: &str| {
        let claims = dir.join(tag);
        let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(
                [&["distribute", "--workers", "1"], CAMPAIGN.as_slice(), &["--json"]].concat(),
            )
            .env("MP_FAULT_PLAN", "crash@1,garble@2,seed=42")
            .env("MP_FAULT_DIR", &claims)
            .output_within();
        (stdout_of(&output), String::from_utf8_lossy(&output.stderr).to_string())
    };
    // The same plan + seed over a single worker yields the identical
    // retry/requeue sequence (stderr warnings) and the identical report.
    let (first_out, first_err) = run("first");
    let (second_out, second_err) = run("second");
    assert_eq!(first_out, second_out);
    let warnings = |stderr: &str| {
        stderr
            .lines()
            .filter(|line| line.starts_with("warning:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        warnings(&first_err),
        warnings(&second_err),
        "the retry sequence must replay identically"
    );
    assert!(warnings(&first_err).contains("attempt 1/"), "faults must have fired");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_journal_write_is_discarded_on_resume_and_the_report_matches() {
    let dir = temp_dir("journal");
    let journal = dir.join("journal");
    let claims = dir.join("claims");
    let batch = stdout_of(&paper_report(&[CAMPAIGN.as_slice(), &["--json"]].concat()));

    // First attempt: the coordinator tears its first journal entry and dies.
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(
            [
                &["distribute", "--workers", "2", "--journal", journal.to_str().unwrap()],
                CAMPAIGN.as_slice(),
                &["--json"],
            ]
            .concat(),
        )
        .env("MP_FAULT_PLAN", "torn@1")
        .env("MP_FAULT_DIR", &claims)
        .output_within();
    assert_eq!(
        output.status.code(),
        Some(17),
        "the torn-write fault kills the coordinator; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // Resume without faults: the torn entry is discarded, its range re-runs,
    // and the merged report is byte-identical to the batch run.
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(
            [
                &["distribute", "--workers", "2", "--journal", journal.to_str().unwrap()],
                CAMPAIGN.as_slice(),
                &["--json"],
            ]
            .concat(),
        )
        .output_within();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        stderr.contains("discarded damaged journal entry"),
        "the torn entry must be reported: {stderr}"
    );
    assert_eq!(stdout_of(&output), batch, "journal resume must be byte-identical");

    // A third run resumes from a complete journal: nothing re-runs, and the
    // report is still byte-identical.
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(
            [
                &["distribute", "--workers", "2", "--journal", journal.to_str().unwrap()],
                CAMPAIGN.as_slice(),
                &["--json"],
            ]
            .concat(),
        )
        .output_within();
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(
        stderr.contains("resuming from journal"),
        "the resume must be reported: {stderr}"
    );
    assert_eq!(stdout_of(&output), batch, "a fully-journaled campaign replays byte-identically");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_exhausted_retry_limit_names_the_poisoned_range() {
    let dir = temp_dir("retry-limit");
    let claims = dir.join("claims");
    // Every assignment crashes; with --retry-limit 1 the first range fails
    // after two attempts and the run aborts with an error naming it.
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(
            [
                &["distribute", "--workers", "1", "--retry-limit", "1"],
                CAMPAIGN.as_slice(),
                &["--json"],
            ]
            .concat(),
        )
        .env("MP_FAULT_PLAN", "crash@1,crash@2,crash@3,crash@4")
        .env("MP_FAULT_DIR", &claims)
        .output_within();
    assert_eq!(output.status.code(), Some(1), "an exhausted range fails the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("distributed shard failed")
            && stderr.contains("exhausting --retry-limit 1")
            && stderr.contains("range ["),
        "the error must be typed and name the range: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_bad_request_rejection_fails_fast_without_retrying() {
    let dir = temp_dir("rejected");
    let attempts = dir.join("attempts");
    // A worker that rejects every assignment as malformed: the rejection is
    // deterministic, so the coordinator must fail on the first attempt
    // instead of burning its retry budget.
    let worker_cmd = format!(
        "read line; echo attempt >> {}; \
         echo '{{\"type\":\"error\",\"message\":\"assignment refused\",\"code\":\"bad_request\"}}'",
        attempts.display()
    );
    let output = paper_report(
        &[
            &["distribute", "--workers", "1", "--worker-cmd", worker_cmd.as_str()],
            CAMPAIGN.as_slice(),
            &["--json"],
        ]
        .concat(),
    );
    assert_eq!(output.status.code(), Some(1), "a rejected range fails the run");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("distributed shard failed")
            && stderr.contains("range [0, 4)")
            && stderr.contains("assignment refused"),
        "the error must be typed and name the range: {stderr}"
    );
    assert!(!stderr.contains("retrying"), "a rejection is never retried: {stderr}");
    let attempts = std::fs::read_to_string(&attempts).expect("the worker ran");
    assert_eq!(attempts.lines().count(), 1, "exactly one attempt");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs a `shard-worker` with `input` on its stdin, then EOF.
fn shard_worker(input: &[u8]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("shard-worker spawns");
    child.stdin.take().expect("worker stdin").write_all(input).expect("write the worker's input");
    finish_within(child)
}

#[test]
fn shard_worker_speaks_the_newline_json_protocol() {
    let assignment = |fleet_days: u32, global_event_budget: u64| {
        format!(
            concat!(
                "{{\"op\":\"shard_submit\",\"config\":{{\"seed\":13,",
                "\"fleet_clients\":2000,\"fleet_aps\":4,\"fleet_days\":{},",
                "\"fleet_churn\":0.2,\"global_event_budget\":{}}},",
                "\"first_ap\":1,\"aps\":2}}"
            ),
            fleet_days, global_event_budget
        )
    };
    // One valid assignment (APs [1, 3) of the 4-AP campaign), two
    // assignments whose merged result would depend on the sharding, then
    // two malformed lines; the worker must answer all five and exit on EOF.
    let input = [
        assignment(3, 0),
        assignment(3, 100_000),
        assignment(1, 0),
        "{\"op\":\"fly\"}".to_string(),
        "not json".to_string(),
    ]
    .map(|line| line + "\n")
    .concat();
    let output = shard_worker(input.as_bytes());
    assert!(output.status.success(), "EOF is a clean exit");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 replies");
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 5, "one reply line per assignment: {stdout}");
    assert!(
        replies[0].contains("\"type\":\"shard_result\"")
            && replies[0].contains("\"run\":1")
            && replies[0].contains("\"kind\":\"mp-campaign-checkpoint\""),
        "got: {}",
        replies[0]
    );
    let bad_request = |reply: &str, expected: &str| {
        assert!(
            reply.contains("\"type\":\"error\"")
                && reply.contains("\"code\":\"bad_request\"")
                && reply.contains(expected),
            "expected a bad_request error mentioning {expected:?}, got: {reply}"
        );
    };
    bad_request(replies[1], "global_event_budget");
    bad_request(replies[2], "fleet_days");
    bad_request(replies[3], "unknown op");
    bad_request(replies[4], "not valid JSON");
}

#[test]
fn a_shard_worker_answers_hostile_lines_and_keeps_serving() {
    // A 3 MiB line, a non-UTF-8 line, a line nested far past the JSON depth
    // cap, then a valid assignment: one reply each, in order.
    let mut input = vec![b'x'; 3 << 20];
    input.extend_from_slice(b"\n\xff\xfe{\"op\":\"shard_submit\"}\n");
    input.extend_from_slice(format!("{}\n", "[".repeat(200_000)).as_bytes());
    input.extend_from_slice(concat!(
        "{\"op\":\"shard_submit\",\"config\":{\"seed\":13,\"fleet_clients\":2000,",
        "\"fleet_aps\":4,\"fleet_days\":3,\"fleet_churn\":0.2},\"first_ap\":1,\"aps\":2}\n"
    ).as_bytes());
    let output = shard_worker(&input);
    assert!(output.status.success(), "EOF is a clean exit");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 replies");
    let replies: Vec<&str> = stdout.lines().collect();
    assert_eq!(replies.len(), 4, "one reply line per input line: {stdout}");
    let bad_request = |reply: &str, expected: &str| {
        assert!(
            reply.contains("\"type\":\"error\"")
                && reply.contains("\"code\":\"bad_request\"")
                && reply.contains(expected),
            "expected a bad_request error mentioning {expected:?}, got: {reply}"
        );
    };
    bad_request(replies[0], "request line exceeds the 1048576-byte limit");
    bad_request(replies[1], "not valid UTF-8");
    bad_request(replies[2], "nesting deeper than");
    assert!(
        replies[3].contains("\"type\":\"shard_result\"") && replies[3].contains("\"run\":4"),
        "got: {}",
        replies[3]
    );
}

#[test]
fn distribute_rejects_undistributable_configurations() {
    let assert_rejected = |args: &[&str], expected: &str| {
        let output = paper_report(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?} should be a usage error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(expected),
            "args {args:?}: stderr {stderr:?} does not mention {expected:?}"
        );
    };
    // distribute is a dedicated multi-day campaign_fleet operation.
    assert_rejected(&["distribute", "--workers", "3"], "--only campaign_fleet");
    assert_rejected(
        &["distribute", "--workers", "3", "--only", "campaign_fleet"],
        "--fleet-days",
    );
    assert_rejected(
        &[&["distribute", "--workers", "0"], CAMPAIGN.as_slice()].concat(),
        "--workers must be at least 1",
    );
    assert_rejected(
        &[
            &["distribute", "--workers", "3"],
            CAMPAIGN.as_slice(),
            &["--global-event-budget", "1000"],
        ]
        .concat(),
        "--global-event-budget",
    );
    // The scheduling-only flags never reach the batch parser...
    assert_rejected(&[CAMPAIGN.as_slice(), &["--workers", "3"]].concat(), "distribute");
}
