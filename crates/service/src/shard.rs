//! The one shard-serving path: the daemon's `shard_submit` handler and the
//! `paper-report shard-worker` stdin loop ([`serve_shard_lines`]) both serve
//! an assignment through [`serve_shard`], so the two transports share one
//! validation, one fault hook and one reply codec.

use crate::protocol::{codes, Line, LineReader, Request, Response, RunOutcome};
use parasite::experiments::{
    panic_message, run_campaign_shard, ExperimentError, FaultKind, FaultPlan, RunConfig, RunCtx,
    ShardPlan,
};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// One served shard assignment.
#[derive(Debug)]
pub struct ShardReply {
    /// The reply line, without its newline: a `shard_result` or an `error`
    /// response — or a strict prefix of one when a garble fault fired.
    pub line: String,
    /// How the shard run ended (the daemon records it in its run table).
    pub outcome: RunOutcome,
}

/// Serves one shard assignment as run `run`: validates the configuration,
/// claims the assignment's fault from `faults` (see `MP_FAULT_PLAN` in
/// PROTOCOL.md), runs APs `[plan.first_ap, plan.first_ap + plan.aps)` of the
/// campaign under `ctx`, and renders the reply line.
///
/// A configuration that fails [`RunConfig::validate_sharded`] replies
/// `bad_request` before any fault is claimed, as does one the campaign
/// itself rejects (an over-packed fleet); a cancelled shard replies
/// `cancelled`, and any other failure (including a panic) `internal`. A `crash` fault exits the process with code 3 and a
/// `hang` fault sleeps forever, both before replying.
pub fn serve_shard(
    run: u64,
    config: &RunConfig,
    plan: ShardPlan,
    ctx: &RunCtx,
    faults: Option<&FaultPlan>,
) -> ShardReply {
    let failed = |message: String, code: &str| {
        (
            Response::Error { message: message.clone(), code: Some(code.to_string()) },
            RunOutcome::Failed { message },
        )
    };
    if let Err(error) = config.validate_sharded() {
        let (response, outcome) =
            failed(ExperimentError::from(error).to_string(), codes::BAD_REQUEST);
        return ShardReply { line: response.to_json().to_string(), outcome };
    }

    let fault = faults.and_then(FaultPlan::claim_assignment);
    match fault {
        Some(FaultKind::Crash) => std::process::exit(3),
        // Hang until the coordinator's shard timeout kills this process.
        Some(FaultKind::Hang) => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        _ => {}
    }

    let (response, outcome) =
        match catch_unwind(AssertUnwindSafe(|| run_campaign_shard(config, plan, ctx))) {
            Ok(Ok(shard)) => {
                let document = shard.to_checkpoint_json(config);
                (
                    Response::ShardResult { run, outcome: document.clone() },
                    RunOutcome::Ok { artifact: document },
                )
            }
            Ok(Err(ExperimentError::Cancelled { completed_days })) => (
                Response::Error {
                    message: format!("shard run {run} was cancelled after {completed_days} days"),
                    code: Some(codes::CANCELLED.to_string()),
                },
                RunOutcome::Cancelled { days_completed: completed_days },
            ),
            // A configuration the campaign rejects is the client's fault;
            // everything else failed while serving.
            Ok(Err(error @ ExperimentError::Config(_))) => {
                failed(error.to_string(), codes::BAD_REQUEST)
            }
            Ok(Err(error)) => failed(error.to_string(), codes::INTERNAL),
            Err(panic) => failed(
                format!("shard run panicked: {}", panic_message(panic)),
                codes::INTERNAL,
            ),
        };
    let mut line = response.to_json().to_string();
    if fault == Some(FaultKind::Garble) {
        // A garbled line and a torn pipe write look the same to the reader:
        // a strict prefix that can never parse whole.
        let mut cut = faults.expect("a fault implies a plan").garble_point(line.len());
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        line.truncate(cut);
    }
    ShardReply { line, outcome }
}

/// The `shard-worker` loop: serves every `shard_submit` line of `input`
/// through [`serve_shard`], with the line's ordinal as its run id, and
/// writes one reply line per request line to `output` until EOF. Any other
/// request, and a line that does not parse, gets a `bad_request` error.
/// Returns the first read or write error.
pub fn serve_shard_lines(
    input: &mut impl BufRead,
    output: &mut impl Write,
    faults: Option<&FaultPlan>,
) -> io::Result<()> {
    let mut lines = LineReader::default();
    let mut run = 0u64;
    loop {
        let request = match lines.read(input)? {
            Line::Eof => return Ok(()),
            Line::Text(text) => Request::parse_line(&text),
            Line::Rejected(message) => Err(message),
        };
        run += 1;
        let rejected = |message: String| {
            Response::Error { message, code: Some(codes::BAD_REQUEST.to_string()) }
                .to_json()
                .to_string()
        };
        let reply = match request {
            Ok(Request::ShardSubmit { config, first_ap, aps }) => {
                let plan = ShardPlan { first_ap, aps };
                serve_shard(run, &config, plan, &RunCtx::default(), faults).line
            }
            Ok(_) => rejected("a shard-worker serves only shard_submit requests".to_string()),
            Err(message) => rejected(message),
        };
        writeln!(output, "{reply}")?;
        output.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_worker_loop_replies_once_per_line_until_eof() {
        let config = RunConfig {
            fleet_clients: 400,
            fleet_aps: 4,
            fleet_days: 3,
            fleet_churn: 0.2,
            ..RunConfig::default()
        };
        let plan = ShardPlan { first_ap: 1, aps: 2 };
        let submit = Request::ShardSubmit { config: Box::new(config), first_ap: 1, aps: 2 };
        let input = format!("{}\nnot json\n{}\n", submit.to_json(), Request::Shutdown.to_json());
        let mut output = Vec::new();
        serve_shard_lines(&mut input.as_bytes(), &mut output, None).expect("buffers never fail");

        let output = String::from_utf8(output).expect("utf-8 replies");
        let replies: Vec<&str> = output.lines().collect();
        let served = serve_shard(1, &config, plan, &RunCtx::default(), None).line;
        assert_eq!(replies.len(), 3, "{output}");
        assert_eq!(replies[0], served, "the first line is run 1");
        for rejected in &replies[1..] {
            match Response::parse_line(rejected) {
                Ok(Response::Error { code, .. }) => {
                    assert_eq!(code.as_deref(), Some(codes::BAD_REQUEST));
                }
                other => panic!("expected a bad_request error, got {other:?}"),
            }
        }
        assert!(replies[2].contains("only shard_submit"), "{}", replies[2]);
    }
}
