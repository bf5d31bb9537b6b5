//! Byte-identity goldens for the `paper-report` binary: the default report
//! text, the `--json` report, a single-day hetero fleet, a checkpointed
//! multi-day campaign (its JSON and the checkpoint file it writes), the
//! small-grid `attack_surface` JSON that CI validates, one `distribute
//! --journal` entry, one `shard-worker` reply and one daemon session
//! transcript must equal the files committed under `tests/goldens/` at the
//! repository root, byte for byte.
//!
//! `MP_GOLDEN_BLESS=1 cargo test -p mp-bench --test goldens` rewrites the
//! files from the current binary; review the diff before committing.

use std::io::Write as _;
use std::os::unix::fs::FileTypeExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// perfbench's recorded FNV-1a-64 digest of the default report text (seed
/// 2021, variant 0), without its trailing newline.
const REPORT_DIGEST: u64 = 0x0cee_b8d8_715a_482d;

const CAMPAIGN: [&str; 14] = [
    "--only",
    "campaign_fleet",
    "--fleet-clients",
    "10000",
    "--fleet-aps",
    "16",
    "--fleet-days",
    "3",
    "--fleet-churn",
    "0.2",
    "--fleet-hetero",
    "--json",
    "--fleet-checkpoint",
    "<checkpoint>",
];

/// The checkpointed campaign's configuration as `distribute` flags.
const DISTRIBUTED: [&str; 11] = [
    "--only",
    "campaign_fleet",
    "--fleet-clients",
    "10000",
    "--fleet-aps",
    "16",
    "--fleet-days",
    "3",
    "--fleet-churn",
    "0.2",
    "--fleet-hetero",
];

/// One assignment of the same campaign on the shard-worker wire.
const SHARD_SUBMIT: &str = r#"{"op":"shard_submit","config":{"fleet_clients":10000,"fleet_aps":16,"fleet_days":3,"fleet_churn":0.2,"fleet_hetero":true},"first_ap":4,"aps":4}"#;

/// The campaign of PROTOCOL.md's "A complete session" as `submit` flags.
const SESSION: [&str; 9] = [
    "--only",
    "campaign_fleet",
    "--fleet-clients",
    "2000",
    "--fleet-days",
    "3",
    "--fleet-churn",
    "0.2",
    "--watch",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn paper_report(args: &[&str]) -> Vec<u8> {
    let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(args)
        .output()
        .expect("paper-report spawns");
    assert!(
        output.status.success(),
        "args {args:?}: exit {:?}; stderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    output.stdout
}

/// Compares `actual` with the golden `name`, or rewrites the golden when
/// `MP_GOLDEN_BLESS` is set.
fn check(name: &str, actual: &[u8]) {
    let path = golden_dir().join(name);
    if std::env::var_os("MP_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, actual)
            .unwrap_or_else(|error| panic!("golden {} is writable: {error}", path.display()));
    }
    let expected = std::fs::read(&path)
        .unwrap_or_else(|error| panic!("golden {} is readable: {error}", path.display()));
    assert!(
        actual == expected.as_slice(),
        "output drifted from {}:\n{}",
        path.display(),
        String::from_utf8_lossy(actual)
    );
}

/// A `paper-report serve` child, killed when dropped: a failing test must
/// not leave a daemon running.
struct DaemonProcess(Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A fresh per-process scratch directory named after `label`.
fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-goldens-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn the_default_report_matches_its_golden_and_the_recorded_digest() {
    let report = paper_report(&[]);
    check("report.txt", &report);
    let text = report.strip_suffix(b"\n").expect("report ends in a newline");
    assert_eq!(format!("{:016x}", fnv1a64(text)), format!("{REPORT_DIGEST:016x}"));
}

#[test]
fn the_json_report_matches_its_golden() {
    check("report.json", &paper_report(&["--json", "--jobs", "2"]));
}

#[test]
fn a_single_day_campaign_json_matches_its_golden() {
    check(
        "campaign_snapshot.json",
        &paper_report(&[
            "--only",
            "campaign_fleet",
            "--fleet-clients",
            "20000",
            "--fleet-aps",
            "16",
            "--fleet-hetero",
            "--jitter-us",
            "300",
            "--json",
        ]),
    );
}

#[test]
fn a_checkpointed_campaign_and_its_checkpoint_match_their_goldens() {
    let dir = scratch_dir("checkpoint");
    let checkpoint = dir.join("checkpoint.json");
    let checkpoint_arg = checkpoint.to_str().expect("utf-8 temp path");
    let args = CAMPAIGN.map(|arg| if arg == "<checkpoint>" { checkpoint_arg } else { arg });
    check("campaign_checkpointed.json", &paper_report(&args));
    check(
        "campaign_checkpoint.json",
        &std::fs::read(&checkpoint).expect("the campaign wrote its checkpoint"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_small_grid_attack_surface_json_matches_its_golden() {
    check(
        "attack_surface.json",
        &paper_report(&[
            "--only",
            "attack_surface",
            "--surface-trials",
            "16",
            "--surface-delays",
            "300:160000:4",
            "--surface-adoption",
            "3",
            "--surface-wan",
            "5000:120000:3",
            "--json",
            "--jobs",
            "2",
        ]),
    );
}

#[test]
fn a_distribute_journal_entry_matches_its_golden() {
    let dir = scratch_dir("journal");
    let journal = dir.join("journal");
    let journal_arg = journal.to_str().expect("utf-8 temp path");
    let mut args = vec!["distribute", "--workers", "2", "--journal", journal_arg];
    args.extend(DISTRIBUTED);
    paper_report(&args);
    check(
        "distribute_journal_entry.json",
        &std::fs::read(journal.join("shard-000000-000008.json"))
            .expect("distribute journaled the first range"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_shard_worker_reply_matches_its_golden() {
    let mut worker = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .arg("shard-worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("shard-worker spawns");
    let mut stdin = worker.stdin.take().expect("piped stdin");
    writeln!(stdin, "{SHARD_SUBMIT}").expect("the worker reads its assignment");
    drop(stdin);
    let output = worker.wait_with_output().expect("shard-worker exits");
    assert!(output.status.success(), "shard-worker exit {:?}", output.status.code());
    check("shard_worker_reply.jsonl", &output.stdout);
}

#[test]
fn a_daemon_session_transcript_matches_its_golden() {
    let dir = scratch_dir("session");
    let socket = dir.join("daemon.sock");
    let socket_arg = socket.to_str().expect("utf-8 temp path");
    let mut daemon = DaemonProcess(
        Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(["serve", "--socket", socket_arg])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("the daemon spawns"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !std::fs::symlink_metadata(&socket).is_ok_and(|meta| meta.file_type().is_socket()) {
        assert!(Instant::now() < deadline, "the daemon never created its socket");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut submit = vec!["submit", "--socket", socket_arg, "--json"];
    submit.extend(SESSION);
    let mut transcript = paper_report(&submit);
    transcript.extend(paper_report(&["shutdown", "--socket", socket_arg, "--json"]));
    let deadline = Instant::now() + Duration::from_secs(60);
    while daemon.0.try_wait().expect("poll the daemon").is_none() {
        assert!(Instant::now() < deadline, "the daemon did not exit after shutdown");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut served = Vec::new();
    std::io::Read::read_to_end(
        &mut daemon.0.stdout.take().expect("piped stdout"),
        &mut served,
    )
    .expect("the daemon's stdout is readable");
    transcript.extend(served);
    check("daemon_session.jsonl", &transcript);
    let _ = std::fs::remove_dir_all(&dir);
}
