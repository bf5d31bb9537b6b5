//! Multi-day persistent campaigns: the Figure 3 churn model applied to the
//! population-scale café-AP fleet.
//!
//! The paper's core claim is *persistence* — a parasite that survives across
//! browsing sessions and days. The classic `campaign_fleet` experiment is a
//! single homogeneous snapshot; this module runs it longitudinally:
//!
//! * **Seats, not sessions.** The campaign tracks `fleet_clients` *seats*.
//!   Each simulated day a `fleet_churn` fraction of every seat's occupants
//!   departs and is replaced by a fresh (clean-cached) arrival, and a small
//!   share of infected residents clears their browser cache (Table III says
//!   only "clear cookies / site data" actually removes the parasite — most
//!   refreshes do not, which is why the daily clear rate is low).
//! * **Figure 3 object churn.** The campaign's target object is a
//!   [`ChurningObject`] in the [`StabilityClass::SlowChurn`] class: each day
//!   it may be renamed by its site, which breaks every parasite riding on it
//!   (the infection population collapses and the master has to re-prepare
//!   the new name — the rise-and-fall dynamics of Figure 3).
//! * **Daily exposure.** Every seat whose cache is clean browses through the
//!   hostile café AP again and goes through the packet-level injection race
//!   (the same per-AP simulations the snapshot fleet runs, optionally under
//!   per-AP heterogeneity profiles). Infected seats carry their parasite
//!   forward without touching the network — persistence costs no packets.
//! * **Checkpoint/resume.** Day state is a pure function of the campaign
//!   seed and the previous day's state (per-day RNG streams are *derived*,
//!   never carried), so a compact JSON checkpoint written after each day
//!   allows a killed N-day campaign to resume and produce a byte-identical
//!   final artifact.
//!
//! The day loop itself lives in the `distrib` module as the full-coverage
//! special case of a *shard*: each AP owns a statically pinned seat slice
//! and a private per-day RNG stream, so any contiguous AP range runs
//! independently (on worker processes or machines) and partial outcomes
//! merge back into the identical artifact.
//!
//! [`ChurningObject`]: mp_webgen::ChurningObject
//! [`StabilityClass::SlowChurn`]: mp_webgen::StabilityClass::SlowChurn

use super::campaign::{mix_seed, CampaignFleetResult};
use super::distrib::{
    load_checkpoint, run_shard, validate_campaign, ShardOutcome, ShardPlan,
};
use super::{ExperimentError, RunConfig, RunCtx};
use crate::json::{Json, ToJson};
use mp_netsim::dist::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Seed-stream tag for per-day RNG streams: day `d` draws from
/// `mix_seed(campaign_seed, DAY_TAG ^ d)`, disjoint from the per-AP, shard
/// and profile streams of the campaign module.
pub(super) const DAY_TAG: u64 = 0xda75_0000_0000_0000;

/// Seed-stream tag for the target object's initial content hash.
pub(super) const TARGET_TAG: u64 = 0x7a26_e700_0000_0000;

/// Seed-stream tag for the per-seat daily-visit probability draw
/// (`fleet_visit_prob < 1`): one [`Dist::Triangular`] sample per seat,
/// disjoint from the day/target/AP/profile/shard streams (collision-tested
/// alongside them in the campaign module).
pub(super) const VISIT_TAG: u64 = 0x7151_7000_0000_0000;

/// Daily probability that an *infected* seat clears its browser cache (the
/// only Table III refresh method that removes a Cache-API parasite). Kept
/// deliberately low: the paper's point is that ordinary refreshing does not
/// help. Shared with the attack-surface sweep, whose steady-state fixed
/// point uses the same daily cure rate.
pub(super) const DAILY_CACHE_CLEAR: f64 = 0.01;

// ---------------------------------------------------------------------------
// Day statistics
// ---------------------------------------------------------------------------

/// What happened on one simulated day of a multi-day campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayStats {
    /// The day number (1-based).
    pub day: u32,
    /// Seats whose occupant departed (their cache leaves with them).
    pub departures: usize,
    /// Fresh clean arrivals (equals `departures`: the café stays full).
    pub arrivals: usize,
    /// Infected residents who cleared their browser cache today.
    pub cache_clears: usize,
    /// Whether the target object was renamed by its site today (Figure 3
    /// churn): a rotation breaks every parasite riding on the old name.
    pub object_rotated: bool,
    /// Infections broken by today's object rotation.
    pub rotation_cured: usize,
    /// Clean seats that browsed through the hostile AP and were raced.
    pub exposed: usize,
    /// Seats that newly picked up the parasite today.
    pub newly_infected: usize,
    /// AP simulations that failed today (event budget); their exposed seats
    /// stay clean.
    pub failed_aps: usize,
    /// Infected population at the end of the day.
    pub infected: usize,
    /// Clean population at the end of the day.
    pub clean: usize,
    /// Simulator events spent on today's exposures.
    pub events: u64,
}

impl ToJson for DayStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("day", self.day.to_json()),
            ("departures", self.departures.to_json()),
            ("arrivals", self.arrivals.to_json()),
            ("cache_clears", self.cache_clears.to_json()),
            ("object_rotated", self.object_rotated.to_json()),
            ("rotation_cured", self.rotation_cured.to_json()),
            ("exposed", self.exposed.to_json()),
            ("newly_infected", self.newly_infected.to_json()),
            ("failed_aps", self.failed_aps.to_json()),
            ("infected", self.infected.to_json()),
            ("clean", self.clean.to_json()),
            ("events", self.events.to_json()),
        ])
    }
}

impl DayStats {
    /// Reads a day back from its [`ToJson`] form. The [`ToJson`] output is
    /// the per-day wire format shared by the checkpoint codec and the
    /// service daemon's `day` stream messages, so clients (`mp_service`)
    /// decode with this too.
    pub fn from_json(json: &Json) -> Option<DayStats> {
        let usize_of = |key: &str| json.get(key).and_then(Json::as_u64).map(|n| n as usize);
        Some(DayStats {
            day: json.get("day").and_then(Json::as_u64)? as u32,
            departures: usize_of("departures")?,
            arrivals: usize_of("arrivals")?,
            cache_clears: usize_of("cache_clears")?,
            object_rotated: json.get("object_rotated").and_then(Json::as_bool)?,
            rotation_cured: usize_of("rotation_cured")?,
            exposed: usize_of("exposed")?,
            newly_infected: usize_of("newly_infected")?,
            failed_aps: usize_of("failed_aps")?,
            infected: usize_of("infected")?,
            clean: usize_of("clean")?,
            events: json.get("events").and_then(Json::as_u64)?,
        })
    }
}

// ---------------------------------------------------------------------------
// The (single-process) campaign loop
// ---------------------------------------------------------------------------

/// Runs a multi-day churn campaign, optionally checkpointing after every
/// completed day. Called from the registry runner (`fleet_days > 1`, no
/// checkpoint) and from [`run_campaign_with_checkpoint`]. This is the
/// full-coverage special case of the shard engine: one [`ShardPlan`]
/// spanning every AP, run to the configured horizon in this process.
pub(super) fn run_multiday(
    config: &RunConfig,
    ctx: &RunCtx,
    checkpoint: Option<&Path>,
) -> Result<CampaignFleetResult, ExperimentError> {
    validate_campaign(config)?;
    let plan = ShardPlan::full(config);
    let mut outcome = match checkpoint {
        Some(path) if path.exists() => load_checkpoint(path, config)?,
        _ => ShardOutcome::fresh(config, plan)?,
    };
    run_shard(config, plan, ctx, &mut outcome, checkpoint, config.fleet_days.max(1))?;
    outcome.into_fleet_result(config)
}

/// Draws the per-seat daily-visit probabilities, or `None` at the default
/// `fleet_visit_prob = 1.0` (every clean seat browses every day — the
/// classic trajectory, byte-identical to pre-visit-model campaigns).
///
/// `fleet_visit_prob` is the *typical* (modal) habit; individual seats
/// spread around it with a seeded [`Dist::Triangular`] draw in per-mille
/// resolution — lo at half the mode, hi at 1.5× capped at certainty — so
/// regulars and rare visitors coexist. The draw composes with
/// `--fleet-hetero` (per-AP profiles) because the streams are disjoint:
/// seats own *whether* they show up, APs own *how* the race plays out.
/// Indexed by global seat, so every shard computes the same habits.
pub(super) fn seat_visit_probs(config: &RunConfig) -> Option<Vec<f64>> {
    if config.fleet_visit_prob >= 1.0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, VISIT_TAG));
    let mode = (config.fleet_visit_prob * 1_000.0).round() as u64;
    let dist = Dist::Triangular {
        lo: mode / 2,
        mode,
        hi: (mode + mode / 2).min(1_000),
    };
    Some(
        (0..config.fleet_clients)
            .map(|_| dist.sample(&mut rng) as f64 / 1_000.0)
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Checkpointed entry points
// ---------------------------------------------------------------------------

/// Runs a multi-day campaign with per-day checkpointing: after every
/// completed day the full campaign state is written to `checkpoint`
/// (atomically: temp file + rename), and a run finding an existing
/// checkpoint resumes from it — killing an N-day campaign after day *k* and
/// rerunning with the same configuration yields a byte-identical final
/// artifact.
///
/// This entry point *always* runs the churn model, even at `fleet_days = 1`
/// (one churn day is not the classic single-snapshot sweep: it draws from
/// the per-day seed streams and the target object may rotate). The
/// `paper-report` CLI therefore requires `--fleet-days >= 2` with
/// `--fleet-checkpoint`.
///
/// The checkpoint is a compact hand-rolled JSON document (`parasite::json`):
/// the campaign configuration fingerprint, the completed-day count, the
/// Figure 3 target-object state, per-AP-range seat bitmaps (hex-encoded
/// 64-seat words) and the day-by-day statistics — the same partial-
/// checkpoint codec shard workers emit, restricted to full coverage. A
/// checkpoint written under a different configuration is rejected with
/// [`ExperimentError::Checkpoint`].
pub fn run_campaign_with_checkpoint(
    config: &RunConfig,
    checkpoint: &Path,
) -> Result<CampaignFleetResult, ExperimentError> {
    let ctx = RunCtx::for_sweep(std::slice::from_ref(config));
    run_campaign_with_checkpoint_ctx(config, checkpoint, &ctx)
}

/// [`run_campaign_with_checkpoint`] with a caller-supplied execution
/// context: the campaign service daemon routes its shared budget, the
/// per-run cancel token and the per-day streaming sink through here. A
/// cancelled run returns [`ExperimentError::Cancelled`] at the next day
/// boundary, leaving the checkpoint of the last completed day on disk —
/// resubmitting the same config against that checkpoint resumes
/// byte-identically.
pub fn run_campaign_with_checkpoint_ctx(
    config: &RunConfig,
    checkpoint: &Path,
    ctx: &RunCtx,
) -> Result<CampaignFleetResult, ExperimentError> {
    run_multiday(config, ctx, Some(checkpoint))
}

#[cfg(test)]
mod tests {
    use super::super::distrib::{
        decode_bitmap, encode_bitmap, load_checkpoint, run_shard, write_checkpoint, ShardOutcome,
        ShardPlan,
    };
    use super::super::{CancelToken, DaySink, ExperimentId, Registry, RunConfig};
    use super::*;

    fn churn_config() -> RunConfig {
        RunConfig {
            seed: 7,
            fleet_clients: 400,
            fleet_aps: 4,
            fleet_days: 5,
            fleet_churn: 0.2,
            fleet_jobs: 1,
            ..RunConfig::default()
        }
    }

    /// Runs the full-coverage shard to `days` completed days — the state a
    /// kill after day `days` would have left checkpointed.
    fn snapshot_after(config: &RunConfig, days: u32) -> ShardOutcome {
        let plan = ShardPlan::full(config);
        let mut outcome = ShardOutcome::fresh(config, plan).expect("fresh state");
        run_shard(config, plan, &RunCtx::default(), &mut outcome, None, days)
            .expect("days run");
        outcome
    }

    #[test]
    fn multiday_campaign_carries_infections_forward() {
        let artifact = Registry::get(ExperimentId::CampaignFleet).run(&churn_config());
        let result = artifact.data.as_campaign_fleet().expect("campaign artifact");
        assert_eq!(result.day_stats.len(), 5);
        assert_eq!(result.clients, 400);
        // Day one exposes the whole (clean) population.
        assert_eq!(result.day_stats[0].exposed, 400);
        // Later days only race the clean remainder: persistence costs no
        // packets, so exposure shrinks once most seats are infected.
        assert!(result.day_stats[1].exposed < 400);
        for day in &result.day_stats {
            assert_eq!(day.infected + day.clean, 400);
            assert_eq!(day.arrivals, day.departures);
        }
        // The final population matches the last day's snapshot.
        let last = result.day_stats.last().expect("five days");
        assert_eq!(result.infected_clients, last.infected);
        assert_eq!(result.clean_clients, last.clean);
        // The day table renders and the JSON carries the day series.
        assert!(artifact.render_text().contains("day-by-day churn dynamics"));
        assert!(artifact.to_json().to_string().contains("\"days\""));
    }

    #[test]
    fn multiday_campaign_is_deterministic_and_shard_independent() {
        let config = churn_config();
        let first = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let second = Registry::get(ExperimentId::CampaignFleet).run(&config);
        assert_eq!(first, second);
        // Per-AP seat slices and RNG streams make fleet_shards a scheduling
        // hint for the multi-day loop: every number in the artifact is
        // identical across shard counts (only the reported `shards` field
        // echoes the request).
        let sharded = Registry::get(ExperimentId::CampaignFleet)
            .run(&RunConfig { fleet_shards: 4, ..config });
        let (a, b) = (
            first.data.as_campaign_fleet().expect("campaign artifact"),
            sharded.data.as_campaign_fleet().expect("campaign artifact"),
        );
        assert_eq!(b.shards, 4);
        assert_eq!(a.day_stats, b.day_stats);
        assert_eq!(a.infected_clients, b.infected_clients);
        assert_eq!(a.total_events, b.total_events);
    }

    #[test]
    fn heterogeneous_multiday_campaign_runs_deterministically() {
        let hetero = RunConfig { fleet_hetero: true, ..churn_config() };
        let first = Registry::get(ExperimentId::CampaignFleet).run(&hetero);
        let drawn = first.data.as_campaign_fleet().expect("campaign artifact");
        // Heterogeneity redistributes clients and can flip race outcomes,
        // but conservation still holds and the attack still lands somewhere.
        assert_eq!(drawn.infected_clients + drawn.clean_clients, 400);
        assert!(drawn.infected_clients > 0);
        assert_eq!(drawn.day_stats.len(), 5);
        // Deterministic per seed, byte for byte.
        let again = Registry::get(ExperimentId::CampaignFleet).run(&hetero);
        assert_eq!(first, again);
        assert_eq!(first.to_json().to_string(), again.to_json().to_string());
    }

    #[test]
    fn invalid_churn_fraction_is_a_config_error() {
        let config = RunConfig { fleet_churn: 1.5, ..churn_config() };
        match Registry::get(ExperimentId::CampaignFleet).try_run(&config) {
            Err(ExperimentError::Config(message)) => assert!(message.contains("fleet_churn")),
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn bitmap_round_trips_and_rejects_bad_padding() {
        let seats: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let encoded = encode_bitmap(&seats);
        assert_eq!(decode_bitmap(&encoded, 130), Some(seats.clone()));
        // Wrong population size: word count no longer matches.
        assert_eq!(decode_bitmap(&encoded, 64), None);
        // Set a padding bit beyond the population: rejected.
        let mut words: Vec<Json> = encoded.as_array().expect("array").to_vec();
        words[2] = Json::Str(format!("{:016x}", u64::MAX));
        assert_eq!(decode_bitmap(&Json::Arr(words), 130), None);
    }

    #[test]
    fn checkpoint_kill_and_resume_is_byte_identical() {
        let dir = std::env::temp_dir().join(format!(
            "mp-checkpoint-test-{}-{}",
            std::process::id(),
            "resume"
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let config = churn_config();
        // The uninterrupted reference.
        let reference = run_campaign_with_checkpoint(&config, &path).expect("reference run");
        // "Kill after day 2": run only two days, leaving the checkpoint.
        let _ = std::fs::remove_file(&path);
        let partial = RunConfig { fleet_days: 2, ..config };
        let two_days = run_campaign_with_checkpoint(&partial, &path).expect("partial run");
        assert_eq!(two_days.day_stats.len(), 2);
        // Resuming under the full configuration must not accept the partial
        // run's checkpoint (different fleet_days fingerprint)...
        match run_campaign_with_checkpoint(&config, &path) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(message.contains("different campaign configuration"));
            }
            other => panic!("expected a checkpoint mismatch, got {other:?}"),
        }

        // ...so simulate the real kill: run the full config, snapshot the
        // checkpoint after day 2, then resume from that snapshot.
        let _ = std::fs::remove_file(&path);
        let full = run_campaign_with_checkpoint(&config, &path).expect("full run");
        assert_eq!(full, reference);
        // Rewind the checkpoint to day 2 by re-running the day loop fresh
        // under the *full* fingerprint and capturing the intermediate state.
        let _ = std::fs::remove_file(&path);
        let snapshot_path = dir.join("campaign.day2.json");
        write_checkpoint(&snapshot_path, &config, &snapshot_after(&config, 2))
            .expect("snapshot written");
        std::fs::rename(&snapshot_path, &path).expect("install snapshot");
        let resumed = run_campaign_with_checkpoint(&config, &path).expect("resumed run");
        assert_eq!(resumed, reference, "resume must be byte-identical");
        assert_eq!(
            resumed.to_json().to_string(),
            reference.to_json().to_string(),
            "down to the JSON wire form"
        );

        // A checkpoint at the horizon resumes to the same result without
        // re-running any day.
        let finished = run_campaign_with_checkpoint(&config, &path).expect("finished resume");
        assert_eq!(finished, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_accepts_different_scheduling_hints() {
        // fleet_jobs and fleet_shards are pure scheduling hints — the
        // fingerprint must not pin them, so a checkpoint written under
        // `--jobs 1` resumes under a thread pool and different shard counts
        // with byte-identical output.
        let dir = std::env::temp_dir().join(format!(
            "mp-checkpoint-test-{}-hints",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let config = churn_config();
        let reference = run_campaign_with_checkpoint(&config, &path).expect("reference run");

        // Snapshot day 2 under the single-threaded config...
        write_checkpoint(&path, &config, &snapshot_after(&config, 2))
            .expect("snapshot written");

        // ...and resume under different jobs/shards. Only the echoed
        // `shards` field may differ from the reference.
        let hinted = RunConfig { fleet_jobs: 4, fleet_shards: 2, ..config };
        let resumed = run_campaign_with_checkpoint(&hinted, &path).expect("hinted resume");
        assert_eq!(resumed.shards, 2);
        let normalized = CampaignFleetResult { shards: reference.shards, ..resumed };
        assert_eq!(normalized, reference, "scheduling hints must not change the trajectory");
        assert_eq!(
            normalized.to_json().to_string(),
            reference.to_json().to_string(),
            "down to the JSON wire form"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_checkpoint_writers_do_not_collide() {
        // Two writers pointed at the same path race; unique temp names keep
        // every rename whole-file, so the survivor is always one writer's
        // complete document — never an interleaving — and no temp files leak.
        let dir = std::env::temp_dir().join(format!(
            "mp-checkpoint-test-{}-writers",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("campaign.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let config = churn_config();
        let one_day = snapshot_after(&config, 1);
        let two_days = snapshot_after(&config, 2);

        std::thread::scope(|scope| {
            for _ in 0..4 {
                for state in [&one_day, &two_days] {
                    scope.spawn(|| {
                        for _ in 0..8 {
                            write_checkpoint(&path, &config, state).expect("write succeeds");
                        }
                    });
                }
            }
        });

        // The surviving file is a valid, complete checkpoint of one of the
        // two states.
        let resumed = load_checkpoint(&path, &config).expect("valid checkpoint survives");
        assert!(resumed.completed_days() == 1 || resumed.completed_days() == 2);
        let expected = if resumed.completed_days() == 1 { &one_day } else { &two_days };
        assert_eq!(&resumed, expected);
        // No orphaned temp files remain.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir listing")
            .filter_map(|entry| entry.ok())
            .filter(|entry| entry.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        let dir = std::env::temp_dir().join(format!("mp-checkpoint-test-{}-bad", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("bad.ckpt.json");
        std::fs::write(&path, "{\"kind\": \"something else\"}").expect("write");
        match run_campaign_with_checkpoint(&churn_config(), &path) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(message.contains("not a valid campaign checkpoint"));
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        std::fs::write(&path, "not json at all").expect("write");
        assert!(matches!(
            run_campaign_with_checkpoint(&churn_config(), &path),
            Err(ExperimentError::Checkpoint(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn visit_probability_is_deterministic_and_reduces_exposure() {
        let config = RunConfig { fleet_visit_prob: 0.4, ..churn_config() };
        let first = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let second = Registry::get(ExperimentId::CampaignFleet).run(&config);
        assert_eq!(first, second);
        assert_eq!(first.to_json().to_string(), second.to_json().to_string());

        // With a ~40% daily habit, day one races only the visiting subset —
        // strictly fewer than the whole clean population, but not nobody.
        let partial = first.data.as_campaign_fleet().expect("campaign artifact");
        let full = Registry::get(ExperimentId::CampaignFleet).run(&churn_config());
        let everyone = full.data.as_campaign_fleet().expect("campaign artifact");
        assert_eq!(everyone.day_stats[0].exposed, 400);
        assert!(partial.day_stats[0].exposed < 400);
        assert!(partial.day_stats[0].exposed > 0);

        // The draw composes with per-AP heterogeneity deterministically:
        // the streams are disjoint, so turning hetero on does not reshuffle
        // anything except through the simulated races themselves.
        let hetero = RunConfig { fleet_hetero: true, ..config };
        let drawn = Registry::get(ExperimentId::CampaignFleet).run(&hetero);
        assert_eq!(drawn, Registry::get(ExperimentId::CampaignFleet).run(&hetero));

        // An explicit 1.0 is the classic trajectory, byte for byte.
        let certain = RunConfig { fleet_visit_prob: 1.0, ..churn_config() };
        let classic = Registry::get(ExperimentId::CampaignFleet).run(&certain);
        assert_eq!(classic.to_json().to_string(), full.to_json().to_string());
    }

    #[test]
    fn invalid_visit_probability_is_a_config_error() {
        for bad in [1.5, -0.1] {
            let config = RunConfig { fleet_visit_prob: bad, ..churn_config() };
            match Registry::get(ExperimentId::CampaignFleet).try_run(&config) {
                Err(ExperimentError::Config(message)) => {
                    assert!(message.contains("fleet_visit_prob"));
                }
                other => panic!("expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_campaign_resumes_byte_identically() {
        // Cancel lands on a day boundary and leaves the last completed day's
        // checkpoint; resubmitting the same config resumes to an artifact
        // byte-identical to the uninterrupted reference run.
        let dir = std::env::temp_dir().join(format!(
            "mp-checkpoint-test-{}-cancel",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let reference_path = dir.join("reference.ckpt.json");
        let path = dir.join("cancelled.ckpt.json");
        let _ = std::fs::remove_file(&reference_path);
        let _ = std::fs::remove_file(&path);

        let config = churn_config();
        let reference =
            run_campaign_with_checkpoint(&config, &reference_path).expect("reference run");

        // Cancel from inside the day sink after day 2 completes: the request
        // is observed at the top of the day-3 iteration.
        let cancel = CancelToken::new();
        let trigger = cancel.clone();
        let ctx = RunCtx {
            day_sink: Some(DaySink::new(move |stats| {
                if stats.day == 2 {
                    trigger.cancel();
                }
            })),
            cancel: cancel.clone(),
            ..RunCtx::default()
        };
        match run_campaign_with_checkpoint_ctx(&config, &path, &ctx) {
            Err(ExperimentError::Cancelled { completed_days }) => {
                assert_eq!(completed_days, 2);
            }
            other => panic!("expected cancellation after day 2, got {other:?}"),
        }

        // The checkpoint left behind is the valid day-2 state...
        let resumable = load_checkpoint(&path, &config).expect("valid checkpoint");
        assert_eq!(resumable.completed_days(), 2);
        // ...and a plain resubmission resumes byte-identically.
        let resumed = run_campaign_with_checkpoint(&config, &path).expect("resumed run");
        assert_eq!(resumed, reference);
        assert_eq!(resumed.to_json().to_string(), reference.to_json().to_string());

        // A token cancelled before day one stops the run before any work.
        let _ = std::fs::remove_file(&path);
        let stillborn = CancelToken::new();
        stillborn.cancel();
        let ctx = RunCtx { cancel: stillborn, ..RunCtx::default() };
        match run_campaign_with_checkpoint_ctx(&config, &path, &ctx) {
            Err(ExperimentError::Cancelled { completed_days: 0 }) => {}
            other => panic!("expected immediate cancellation, got {other:?}"),
        }
        assert!(!path.exists(), "no checkpoint before the first completed day");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn day_sink_streams_every_day_and_replays_on_resume() {
        let dir = std::env::temp_dir().join(format!(
            "mp-checkpoint-test-{}-sink",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sink.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let config = churn_config();
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_ctx = |seen: &std::sync::Arc<std::sync::Mutex<Vec<u32>>>| {
            let seen = seen.clone();
            RunCtx {
                day_sink: Some(DaySink::new(move |stats: &DayStats| {
                    seen.lock().expect("sink lock").push(stats.day);
                })),
                ..RunCtx::default()
            }
        };

        // A fresh run streams each day exactly once, in order.
        run_multiday(&config, &sink_ctx(&seen), None).expect("fresh run");
        assert_eq!(*seen.lock().expect("sink lock"), vec![1, 2, 3, 4, 5]);

        // A resumed run first replays the checkpointed days so the stream is
        // complete from the watcher's point of view.
        write_checkpoint(&path, &config, &snapshot_after(&config, 2))
            .expect("snapshot written");
        seen.lock().expect("sink lock").clear();
        run_campaign_with_checkpoint_ctx(&config, &path, &sink_ctx(&seen))
            .expect("resumed run");
        assert_eq!(*seen.lock().expect("sink lock"), vec![1, 2, 3, 4, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
