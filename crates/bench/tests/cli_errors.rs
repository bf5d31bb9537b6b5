//! CLI contract of `paper-report`: bad flag combinations must exit with
//! code 2 and a pointed diagnostic, never run with silently inert flags —
//! an extension flag without its experiment selected used to parse fine and
//! then do nothing, masking typos and misread sweeps.

use std::process::{Command, Stdio};

fn paper_report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(args)
        .output()
        .expect("paper-report spawns")
}

/// Runs `paper-report` with `args`, asserting exit code 2 and that the
/// diagnostic names the offending flag.
fn assert_rejected(args: &[&str], expected_in_stderr: &str) {
    let output = paper_report(args);
    assert_eq!(
        output.status.code(),
        Some(2),
        "args {args:?} should be a usage error; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(expected_in_stderr),
        "args {args:?}: stderr {stderr:?} does not mention {expected_in_stderr:?}"
    );
}

#[test]
fn inert_fleet_flags_without_campaign_fleet_are_rejected() {
    assert_rejected(&["--fleet-hetero"], "--fleet-hetero");
    assert_rejected(&["--fleet-clients", "1000"], "--only campaign_fleet");
    assert_rejected(&["--fleet-days", "5", "--only", "fig2"], "--fleet-days");
}

#[test]
fn inert_surface_flags_without_attack_surface_are_rejected() {
    assert_rejected(&["--surface-trials", "16"], "--only attack_surface");
    assert_rejected(
        &["--surface-vectors", "race_vs_csp", "--only", "campaign_fleet"],
        "--surface-vectors",
    );
    assert_rejected(&["--surface-delays", "300:1000:2", "--only", "fig1"], "--surface-delays");
    assert_rejected(&["--surface-adoption", "3"], "--surface-adoption");
}

#[test]
fn inert_churn_and_checkpoint_combos_are_rejected() {
    // --fleet-churn without a campaign or a surface does nothing.
    assert_rejected(&["--fleet-churn", "0.2", "--only", "fig2"], "campaign_fleet / attack_surface");
    // --fleet-checkpoint without the campaign selected is refused, not
    // ignored.
    assert_rejected(&["--fleet-checkpoint", "x.json"], "--only campaign_fleet");
    // Shared flags need at least one consuming experiment.
    assert_rejected(&["--jitter-us", "200"], "campaign_fleet / attack_surface");
}

#[test]
fn malformed_surface_axes_are_rejected() {
    let surface = ["--only", "attack_surface"];
    assert_rejected(&[&surface[..], &["--surface-delays", "300:200:4"]].concat(), "inverted");
    assert_rejected(&[&surface[..], &["--surface-delays", "300-200-4"]].concat(), "start:end:steps");
    assert_rejected(&[&surface[..], &["--surface-trials", "0"]].concat(), "--surface-trials");
    assert_rejected(&[&surface[..], &["--surface-adoption", "0"]].concat(), "--surface-adoption");
    assert_rejected(
        &[&surface[..], &["--surface-vectors", "race_vs_nothing"]].concat(),
        "unknown attack vector",
    );
    // The WAN-latency axis follows the same contract as the delay axis.
    assert_rejected(&[&surface[..], &["--surface-wan", "9000:3000:2"]].concat(), "inverted");
    assert_rejected(&[&surface[..], &["--surface-wan", "9000-3000-2"]].concat(), "start:end:steps");
    assert_rejected(&[&surface[..], &["--surface-wan", "3000:9000:0"]].concat(), "at least 1");
    assert_rejected(&["--surface-wan", "3000:9000:2"], "--only attack_surface");
}

#[test]
fn a_fleet_jobs_above_the_thread_cap_is_rejected_before_any_run() {
    // One config line must not ask for a million OS threads; validation
    // rejects it before a campaign starts.
    assert_rejected(
        &["--only", "campaign_fleet", "--fleet-jobs", "1000000"],
        "--fleet-jobs: fleet_jobs must be at most 1024, got 1000000",
    );
}

#[test]
fn a_zero_scale_is_rejected_not_clamped() {
    // Table I divides its cache sizes by --scale: 0 is no divisor.
    assert_rejected(&["--scale", "0"], "--scale: scale must be at least 1, got 0");
    assert_rejected(&["--only", "table1", "--scale", "0"], "--scale");
}

#[test]
fn integers_json_cannot_carry_exactly_are_rejected_not_rounded() {
    // 2^53 + 1 used to run under the seed 2^53, the value its JSON echo
    // rounds to; a distributed run sent that echo to every worker.
    let seed = ["--seed", "9007199254740993"];
    assert_rejected(&seed, "--seed: seed must be below 2^53");
    let campaign = ["--only", "campaign_fleet", "--fleet-days", "3", "--fleet-churn", "0.2"];
    assert_rejected(&[&["distribute"][..], &campaign, &seed].concat(), "--seed");
    assert_rejected(&["--only", "table1", "--scale", "9007199254740992"], "--scale");
}

#[test]
fn zero_population_sizes_and_crawl_lengths_are_rejected() {
    // Figure 3 over no sites printed NaN rows, over no days an empty
    // figure, and Figure 5 over no sites 0.00 % against every paper figure.
    assert_rejected(
        &["--only", "fig3", "--crawl-sites", "0"],
        "--crawl-sites: crawl_sites must be at least 1, got 0",
    );
    assert_rejected(&["--only", "fig3", "--days", "0"], "--days: days must be at least 1, got 0");
    assert_rejected(
        &["--only", "fig5", "--sites", "0"],
        "--sites: sites must be at least 1, got 0",
    );
}

#[test]
fn visit_probability_needs_a_campaign() {
    // Outside [0, 1] (and exactly 0, which would freeze the campaign).
    let fleet = ["--only", "campaign_fleet", "--fleet-days", "5"];
    assert_rejected(&[&fleet[..], &["--fleet-visit-prob", "1.5"]].concat(), "(0, 1]");
    assert_rejected(&[&fleet[..], &["--fleet-visit-prob", "0"]].concat(), "(0, 1]");
    // Inert without the campaign.
    assert_rejected(&["--fleet-visit-prob", "0.5"], "--only campaign_fleet");
}

#[test]
fn distribute_flags_outside_the_subcommand_are_rejected() {
    // The coordinator's scheduling knobs mean nothing in batch mode; point
    // at the distribute subcommand instead of ignoring them.
    assert_rejected(&["--journal", "/tmp/j"], "distribute");
    assert_rejected(&["--shard-timeout", "30"], "distribute");
    assert_rejected(&["--retry-limit", "2"], "distribute");
}

#[test]
fn malformed_distribute_values_are_rejected() {
    let campaign = [
        "distribute",
        "--only",
        "campaign_fleet",
        "--fleet-clients",
        "2000",
        "--fleet-aps",
        "4",
        "--fleet-days",
        "3",
        "--fleet-churn",
        "0.2",
    ];
    assert_rejected(&[&campaign[..], &["--retry-limit", "many"]].concat(), "--retry-limit");
    assert_rejected(&[&campaign[..], &["--retry-limit"]].concat(), "requires a value");
    assert_rejected(&[&campaign[..], &["--shard-timeout", "soon"]].concat(), "--shard-timeout");
    assert_rejected(&[&campaign[..], &["--journal"]].concat(), "requires a value");
}

#[test]
fn service_flags_outside_a_subcommand_are_rejected() {
    // Service flags mean nothing in batch mode; point at the subcommands
    // instead of ignoring them.
    assert_rejected(&["--socket", "/tmp/mp.sock"], "use a subcommand");
    assert_rejected(&["--tcp", "127.0.0.1:7071"], "use a subcommand");
    assert_rejected(&["--serve-workers", "4"], "use a subcommand");
    assert_rejected(&["--watch"], "service client flag");
    assert_rejected(&["--run", "3"], "service client flag");
}

#[test]
fn service_subcommand_usage_errors_are_pointed() {
    assert_rejected(&["serve"], "--socket");
    assert_rejected(&["serve", "--socket", "/tmp/x.sock", "--fleet-days", "5"], "submit");
    assert_rejected(&["submit"], "--socket");
    assert_rejected(&["status"], "--socket");
    assert_rejected(&["watch", "--socket", "/tmp/x.sock", "--bogus"], "--bogus");
    // The retired recorder flag is an unknown argument, not a silent no-op.
    assert_rejected(&["--trace-mode", "full"], "unknown argument \"--trace-mode\"");
    assert_rejected(
        &["submit", "--socket", "/tmp/x.sock", "--only", "fig1", "--jobs", "4"],
        "--serve-workers",
    );
    assert_rejected(
        &["submit", "--socket", "/tmp/x.sock", "--only", "fig1,fig2"],
        "exactly one experiment",
    );
}

#[test]
fn service_subcommands_reject_flags_that_do_nothing_there() {
    // Each subcommand accepts only the service flags it uses; an inert one
    // is a usage error naming it, before any connection is tried.
    let socket = ["--socket", "/tmp/mp-cli-inert.sock"];
    for (args, flag) in [
        (&["status", "--serve-workers", "4"][..], "--serve-workers"),
        (&["shutdown", "--run", "3", "--watch"], "--run"),
        (&["shutdown", "--watch"], "--watch"),
        (&["cancel", "--run", "1", "--serve-queue-limit", "9"], "--serve-queue-limit"),
        (&["watch", "--run", "1", "--watch"], "--watch"),
        (&["submit", "--only", "fig1", "--run", "2"], "--run"),
        (&["serve", "--run", "1"], "--run"),
        (&["serve", "--watch"], "--watch"),
        (&["serve", "--json"], "--json"),
    ] {
        let args = [args, &socket[..]].concat();
        assert_rejected(&args, &format!("{flag} has no effect on {}", args[0]));
    }
}

#[test]
fn client_subcommands_without_a_daemon_exit_2_with_a_hint() {
    let socket = std::env::temp_dir()
        .join(format!("mp-cli-no-daemon-{}.sock", std::process::id()));
    let socket = socket.to_str().expect("utf-8 temp path");
    // No daemon is listening: every client subcommand fails to connect with
    // exit 2 and points at how to start one.
    assert_rejected(&["submit", "--socket", socket, "--only", "fig1"], "is the daemon running?");
    assert_rejected(&["status", "--socket", socket], "paper-report serve --socket");
    assert_rejected(&["watch", "--socket", socket, "--run", "1"], "is the daemon running?");
    assert_rejected(&["cancel", "--socket", socket, "--run", "1"], "is the daemon running?");
    assert_rejected(&["shutdown", "--socket", socket], "is the daemon running?");
}

#[test]
fn lint_usage_errors_exit_2_with_the_lint_usage_hint() {
    // Unknown lint flags are refused with the lint subcommand's own usage
    // block, not the batch-mode usage.
    assert_rejected(&["lint", "--bogus"], "unknown lint flag \"--bogus\"");
    assert_rejected(&["lint", "--bogus"], "paper-report lint [--json]");
    assert_rejected(&["lint", "--fix"], "unknown lint flag \"--fix\"");
    // --root needs its directory argument, and the directory must be a
    // workspace root (Cargo.toml + crates/).
    assert_rejected(&["lint", "--root"], "requires a directory");
    let empty = std::env::temp_dir().join(format!("mp-lint-not-a-root-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("temp dir");
    assert_rejected(
        &["lint", "--root", empty.to_str().expect("utf-8 temp path")],
        "workspace root",
    );
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn lint_runs_clean_on_this_workspace_and_emits_json() {
    // The shipped workspace must lint clean through the public CLI — the
    // same contract CI enforces with a blocking job.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let output = paper_report(&["lint", "--json", "--root", root]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "lint found diagnostics:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"clean\":true"));
    assert!(stdout.contains("\"seed_tags\""));
    assert!(stdout.contains("DAY_TAG"));
}

#[test]
fn a_report_that_cannot_be_written_exits_1_with_an_error_line() {
    // Every write to /dev/full fails with ENOSPC.
    let full = std::fs::OpenOptions::new().write(true).open("/dev/full").expect("open /dev/full");
    for json in [false, true] {
        let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(if json { &["--only", "table1", "--json"][..] } else { &["--only", "table1"] })
            .stdout(full.try_clone().expect("clone the handle"))
            .output()
            .expect("paper-report spawns");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "json {json}; stderr: {stderr}");
        assert!(stderr.starts_with("error: cannot write the report"), "stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    }
    // The listing, the usage and the lint report take the same path.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for args in [&["--list"][..], &["--help"], &["lint", "--root", root]] {
        let output = Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(args)
            .stdout(full.try_clone().expect("clone the handle"))
            .output()
            .expect("paper-report spawns");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "args {args:?}; stderr: {stderr}");
        assert!(stderr.starts_with("error: cannot write"), "args {args:?}; stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "args {args:?}; stderr: {stderr}");
    }
}

#[test]
fn a_one_day_checkpointed_campaign_reruns_to_the_same_bytes() {
    // A one-day campaign is day 1 of the churn loop, so it checkpoints; the
    // rerun resumes from the finished checkpoint without running a day.
    let dir = std::env::temp_dir().join(format!("mp-cli-one-day-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let checkpoint = dir.join("campaign.ckpt.json");
    let args = [
        "--only",
        "campaign_fleet",
        "--fleet-clients",
        "400",
        "--fleet-aps",
        "4",
        "--json",
        "--fleet-checkpoint",
        checkpoint.to_str().expect("utf-8 temp path"),
    ];
    let first = paper_report(&args);
    assert_eq!(first.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&first.stderr));
    let written = std::fs::read_to_string(&checkpoint).expect("the campaign wrote its checkpoint");
    assert!(written.contains("\"completed_days\":1"), "checkpoint: {written}");
    let rerun = paper_report(&args);
    assert_eq!(rerun.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&rerun.stderr));
    assert_eq!(rerun.stdout, first.stdout, "the rerun returns the same bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_closes_the_pipe_early_is_no_error() {
    // The reader goes away before the report is written, as `| head -c 50`
    // does once it has its bytes: the write fails with a broken pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_paper-report"))
        .args(["--only", "table1", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("paper-report spawns");
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("paper-report exits");
    assert_eq!(output.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    assert!(output.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&output.stderr));
}

#[test]
fn valid_extension_combos_run_and_exit_zero() {
    // The same flags accept once their experiment is selected: a tiny
    // surface grid runs to completion with exit code 0 and JSON output.
    let output = paper_report(&[
        "--only",
        "attack_surface",
        "--surface-trials",
        "4",
        "--surface-delays",
        "300:1000:2",
        "--surface-adoption",
        "2",
        "--surface-vectors",
        "race_vs_csp",
        "--json",
    ]);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"attack_surface\""));
    assert!(stdout.contains("\"success_vs_delay\""));
}
