//! Shards as first-class work units: distributed campaign execution with
//! mergeable partial checkpoints.
//!
//! The campaign trajectory is a pure function of the campaign
//! configuration: every RNG stream is splitmix-derived from
//! `(campaign_seed, tag)`, per-AP heterogeneity profiles are pinned to
//! *global* AP indices, and each AP owns a statically pinned contiguous
//! slice of the fleet's seats. That makes any contiguous AP range — a
//! [`ShardPlan`] — an independently executable unit of work: a worker
//! process (or machine) given only the configuration and its AP range
//! reproduces exactly the seat trajectories the single-process run would
//! have produced for those APs, over all days, without communicating with
//! anyone.
//!
//! A shard's result is a [`ShardOutcome`]: the partial per-day
//! [`DayStats`] series, the final seat bitmap for its slice, and the
//! budget spent. Outcomes [`merge`](ShardOutcome::merge) associatively and
//! order-insensitively, so a coordinator can fold worker results in any
//! completion order; an outcome covering the whole fleet converts into the
//! standard [`CampaignFleetResult`] artifact — byte-identical to the
//! single-process run by construction, which is the acceptance bar for
//! distribution (worker count is a pure scheduling hint, like
//! `fleet_jobs`).
//!
//! The same type is the checkpoint codec: a whole-campaign checkpoint is
//! simply a full-coverage `ShardOutcome` serialised to JSON, and a partial
//! checkpoint is the same document with a narrower shard list. The
//! single-process day loop in the `multiday` module now runs a
//! full-coverage shard through [`run_shard`]; the `paper-report
//! shard-worker` / `distribute` modes and the service daemon's
//! `shard_submit` run narrower ones. A shard day races each AP's visiting
//! seats through `race_clients` (the `tables` module), the runner it shares
//! with the attack-surface grid.

use super::campaign::{
    ap_client_counts, ap_task, fleet_jobs, mix_seed, requests_unprepared_object, share,
    CampaignFleetResult,
};
use super::multiday::{seat_visit_probs, DAILY_CACHE_CLEAR, DAY_TAG, TARGET_TAG};
use super::records::{Cumulative, DayStats};
use super::tables::{race_clients, RaceTask};
use super::{parallel_tasks, ExperimentError, RunConfig, RunCtx};
use crate::json::{Json, ToJson};
use mp_netsim::error::NetError;
use mp_netsim::sim::SharedBudget;
use mp_webgen::{ChurningObject, StabilityClass};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Seed-stream tag for the per-(day, AP) seat streams: on day `d`, AP `a`
/// draws its slice's churn/cache-clear/visit decisions from
/// `mix_seed(day_seed, SEAT_TAG ^ a)` where
/// `day_seed = mix_seed(campaign_seed, DAY_TAG ^ d)`. Giving every AP a
/// private stream (instead of one global per-day stream) is what makes an
/// AP range an independent unit of work; collision-tested alongside the
/// other streams in the campaign module.
pub(super) const SEAT_TAG: u64 = 0x5ea7_0000_0000_0000;

/// Checkpoint format version written by [`write_checkpoint`]. Version 2
/// replaced the single whole-fleet `"infected"` bitmap with a `"shards"`
/// list of per-range bitmaps, so partial checkpoints and whole-campaign
/// checkpoints share one codec.
const CHECKPOINT_VERSION: u64 = 2;

/// The `"kind"` discriminator of every campaign checkpoint document.
const CHECKPOINT_KIND: &str = "mp-campaign-checkpoint";

/// Error suffix of every structurally damaged checkpoint document (callers
/// prefix the document's origin).
const CORRUPT: &str = "is not a valid campaign checkpoint";

/// Error suffix of a checkpoint whose configuration fingerprint does not
/// match the current campaign.
const MISMATCH: &str = "was written under a different campaign configuration; \
     delete it or rerun with the original flags";

// ---------------------------------------------------------------------------
// Shard plans
// ---------------------------------------------------------------------------

/// A contiguous AP range of one campaign: the unit of work a worker is
/// assigned. The configuration (and with it every derived seed stream) is
/// carried separately; two plans under the same configuration with
/// disjoint ranges produce mergeable, non-overlapping outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// First global AP index of the range.
    pub first_ap: usize,
    /// Number of APs in the range.
    pub aps: usize,
}

impl ShardPlan {
    /// The plan covering the whole fleet (the single-process day loop).
    pub fn full(config: &RunConfig) -> ShardPlan {
        ShardPlan { first_ap: 0, aps: config.fleet_aps.max(1) }
    }

    /// Splits the fleet into (at most) `workers` contiguous AP ranges,
    /// earlier ranges taking the remainder — the coordinator's default
    /// assignment. Never returns an empty range.
    pub fn split(config: &RunConfig, workers: usize) -> Vec<ShardPlan> {
        ShardPlan::split_range(0, config.fleet_aps.max(1), workers)
    }

    /// Splits one contiguous AP range into (at most) `workers` plans,
    /// earlier plans taking the remainder.
    fn split_range(first_ap: usize, aps: usize, workers: usize) -> Vec<ShardPlan> {
        let total = aps.max(1);
        let parts = workers.max(1).min(total);
        let mut plans = Vec::with_capacity(parts);
        let mut start = first_ap;
        for index in 0..parts {
            let aps = share(total, parts, index);
            plans.push(ShardPlan { first_ap: start, aps });
            start += aps;
        }
        plans
    }

    /// Plans the AP ranges no outcome in `done` covers: each contiguous
    /// uncovered run is split across the workers exactly as
    /// [`split`](Self::split) splits the whole fleet, so with nothing done
    /// this is `split`, and a journal-resumed plan never depends on where
    /// the previous coordinator died.
    pub fn uncovered(config: &RunConfig, done: &[ShardOutcome], workers: usize) -> Vec<ShardPlan> {
        let total = config.fleet_aps.max(1);
        let mut covered = vec![false; total];
        for part in done.iter().flat_map(|outcome| &outcome.parts) {
            for flag in covered.iter_mut().skip(part.first_ap).take(part.aps) {
                *flag = true;
            }
        }
        let mut plans = Vec::new();
        let mut ap = 0;
        while ap < total {
            if covered[ap] {
                ap += 1;
                continue;
            }
            let start = ap;
            while ap < total && !covered[ap] {
                ap += 1;
            }
            plans.extend(ShardPlan::split_range(start, ap - start, workers));
        }
        plans
    }

    /// Whether this plan covers the whole fleet (and may therefore apply
    /// fleet-wide abort semantics live instead of at merge time).
    fn is_full(&self, config: &RunConfig) -> bool {
        self.first_ap == 0 && self.aps == config.fleet_aps.max(1)
    }
}

// ---------------------------------------------------------------------------
// The static seat layout
// ---------------------------------------------------------------------------

/// The fleet's static seat layout: AP `a` owns the contiguous seat range
/// `offsets[a]..offsets[a + 1]`. A pure function of the configuration
/// (uniform split, or weight-distributed under `fleet_hetero`), so every
/// worker computes the identical layout without coordination.
struct SeatLayout {
    /// Seat-range start offset per AP; `offsets[aps]` is the fleet size.
    offsets: Vec<usize>,
}

impl SeatLayout {
    /// The global seat range AP `ap` owns.
    fn seats_of(&self, ap: usize) -> std::ops::Range<usize> {
        self.offsets[ap]..self.offsets[ap + 1]
    }
}

/// Computes the static seat layout (surfacing an overpacked fleet as the
/// same config error the planner raises).
fn seat_layout(config: &RunConfig) -> Result<SeatLayout, ExperimentError> {
    let counts = ap_client_counts(config)?;
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut start = 0usize;
    for clients in counts {
        offsets.push(start);
        start += clients;
    }
    offsets.push(start);
    Ok(SeatLayout { offsets })
}

// ---------------------------------------------------------------------------
// Shard outcomes
// ---------------------------------------------------------------------------

/// One contiguous AP range's seat bitmap: the final infection state of the
/// seats its APs own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPart {
    /// First global AP index covered.
    pub(super) first_ap: usize,
    /// Number of APs covered.
    pub(super) aps: usize,
    /// Global seat index of `infected[0]`.
    pub(super) seat_lo: usize,
    /// Per-seat infection state of the covered range.
    pub(super) infected: Vec<bool>,
}

impl ShardPart {
    /// The global seat range this part covers.
    fn seat_range(&self) -> std::ops::Range<usize> {
        self.seat_lo..self.seat_lo + self.infected.len()
    }

    /// The global AP range this part covers.
    fn ap_range(&self) -> std::ops::Range<usize> {
        self.first_ap..self.first_ap + self.aps
    }
}

/// The (partial) result of running a shard of a multi-day campaign: the
/// per-day statistics restricted to the shard's seats, the shard's final
/// seat bitmaps, and the budget it spent. A full-coverage outcome is
/// exactly the resumable whole-campaign state; outcomes of disjoint shards
/// [`merge`](Self::merge) associatively.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Completed days.
    pub(super) completed_days: u32,
    /// The target object under Figure 3 churn — a pure function of the
    /// campaign seed and the day, identical on every shard (asserted on
    /// merge).
    pub(super) target: ChurningObject,
    /// Seat bitmaps, sorted by `first_ap`, pairwise disjoint.
    pub(super) parts: Vec<ShardPart>,
    /// Per-day statistics restricted to this outcome's seats.
    pub(super) days: Vec<DayStats>,
    /// Budget counters restricted to this outcome's seats.
    pub(super) cumulative: Cumulative,
}

impl ShardOutcome {
    /// Day-zero state of one shard: every covered seat clean, the target
    /// object fresh.
    pub fn fresh(config: &RunConfig, plan: ShardPlan) -> Result<ShardOutcome, ExperimentError> {
        let layout = seat_layout(config)?;
        let total_aps = config.fleet_aps.max(1);
        if plan.aps == 0 || plan.first_ap + plan.aps > total_aps {
            return Err(ExperimentError::Config(format!(
                "shard plan [{}, {}) exceeds the fleet's {} APs",
                plan.first_ap,
                plan.first_ap + plan.aps,
                total_aps
            )));
        }
        let seat_lo = layout.offsets[plan.first_ap];
        let seat_hi = layout.offsets[plan.first_ap + plan.aps];
        Ok(ShardOutcome {
            completed_days: 0,
            target: ChurningObject::new(
                "/my.js",
                StabilityClass::SlowChurn,
                mix_seed(config.seed, TARGET_TAG),
            ),
            parts: vec![ShardPart {
                first_ap: plan.first_ap,
                aps: plan.aps,
                seat_lo,
                infected: vec![false; seat_hi - seat_lo],
            }],
            days: Vec::new(),
            cumulative: Cumulative::default(),
        })
    }

    /// Completed days of this outcome.
    pub fn completed_days(&self) -> u32 {
        self.completed_days
    }

    /// The (partial) per-day statistics of this outcome.
    pub fn days(&self) -> &[DayStats] {
        &self.days
    }

    /// The single contiguous `(first_ap, aps)` range this outcome covers,
    /// or an error if its parts leave gaps (a journal entry names its file
    /// after this range, so it must be one range).
    pub fn covered_range(&self) -> Result<(usize, usize), String> {
        let first = self
            .parts
            .first()
            .ok_or_else(|| "shard outcome covers no APs".to_string())?;
        let mut end = first.ap_range().end;
        for part in &self.parts[1..] {
            if part.first_ap != end {
                return Err(format!(
                    "shard outcome is not contiguous: gap before AP {}",
                    part.first_ap
                ));
            }
            end = part.ap_range().end;
        }
        Ok((first.first_ap, end - first.first_ap))
    }

    /// Merges two outcomes of *disjoint* shards of the same campaign.
    /// Associative and order-insensitive: counters add, part lists take
    /// their sorted disjoint union, so any fold order over any permutation
    /// of worker results produces the identical merged outcome (proptested
    /// below).
    pub fn merge(self, other: ShardOutcome) -> Result<ShardOutcome, String> {
        if self.completed_days != other.completed_days {
            return Err(format!(
                "cannot merge shard outcomes of different horizons ({} vs {} completed days)",
                self.completed_days, other.completed_days
            ));
        }
        if self.target != other.target {
            return Err("cannot merge shard outcomes with diverged target objects; \
                 the campaign configurations differ"
                .to_string());
        }
        if self.days.len() != other.days.len() {
            return Err("cannot merge shard outcomes with different day series lengths".to_string());
        }
        let days = self
            .days
            .iter()
            .zip(&other.days)
            .map(|(a, b)| a.merged(b))
            .collect::<Result<Vec<DayStats>, String>>()?;
        let mut parts = self.parts;
        parts.extend(other.parts);
        parts.sort_by_key(|part| part.first_ap);
        for window in parts.windows(2) {
            if window[0].ap_range().end > window[1].ap_range().start
                || window[0].seat_range().end > window[1].seat_range().start
            {
                return Err(format!(
                    "cannot merge overlapping shard outcomes (APs [{}, {}) and [{}, {}))",
                    window[0].ap_range().start,
                    window[0].ap_range().end,
                    window[1].ap_range().start,
                    window[1].ap_range().end
                ));
            }
        }
        Ok(ShardOutcome {
            completed_days: self.completed_days,
            target: self.target,
            parts,
            days,
            cumulative: self.cumulative.merged(&other.cumulative)?,
        })
    }

    /// Converts a *full-coverage* outcome into the standard campaign
    /// artifact — the same conversion the single-process run performs, so
    /// a merged distributed run is byte-identical to it. Applies the
    /// fleet-wide abort semantics the single-process day loop applies
    /// live: a day on which every AP failed while seats were exposed is
    /// the typed budget error, not an artifact.
    pub fn into_fleet_result(
        self,
        config: &RunConfig,
    ) -> Result<CampaignFleetResult, ExperimentError> {
        let layout = seat_layout(config)?;
        let aps = config.fleet_aps.max(1);
        self.expect_full_coverage(config, &layout).map_err(ExperimentError::Checkpoint)?;
        for day in &self.days {
            if day.failed_aps == aps && day.exposed > 0 {
                return Err(ExperimentError::Net(NetError::EventBudgetExhausted {
                    budget: config.event_budget,
                }));
            }
        }
        let infected_clients: usize = self
            .parts
            .iter()
            .map(|part| part.infected.iter().filter(|&&seat| seat).count())
            .sum();
        Ok(CampaignFleetResult {
            aps,
            clients: config.fleet_clients,
            infected_clients,
            clean_clients: config.fleet_clients - infected_clients,
            failed_aps: self.cumulative.failed_aps,
            total_events: self.cumulative.total_events,
            payload_bytes: self.cumulative.payload_bytes,
            injected_events: self.cumulative.injected_events,
            pending_bytes_dropped: self.cumulative.pending_bytes_dropped,
            day_stats: self.days,
        })
    }

    /// Checks that this outcome's parts tile the whole fleet exactly.
    fn expect_full_coverage(
        &self,
        config: &RunConfig,
        layout: &SeatLayout,
    ) -> Result<(), String> {
        let aps = config.fleet_aps.max(1);
        let mut next_ap = 0usize;
        for part in &self.parts {
            if part.first_ap != next_ap
                || part.seat_lo != layout.offsets[part.first_ap]
                || part.seat_range().end != layout.offsets[part.first_ap + part.aps]
            {
                return Err(format!(
                    "shard outcome does not cover the fleet: gap before AP {next_ap}"
                ));
            }
            next_ap = part.ap_range().end;
        }
        if next_ap != aps {
            return Err(format!(
                "shard outcome does not cover the fleet: APs [{next_ap}, {aps}) missing"
            ));
        }
        Ok(())
    }

    /// Flattens a full-coverage outcome's parts into one part (the shape
    /// the single-process resume loop runs on).
    fn coalesce(mut self, config: &RunConfig, layout: &SeatLayout) -> Result<Self, String> {
        self.expect_full_coverage(config, layout)?;
        let mut infected = Vec::with_capacity(config.fleet_clients);
        for part in &self.parts {
            infected.extend_from_slice(&part.infected);
        }
        self.parts = vec![ShardPart {
            first_ap: 0,
            aps: config.fleet_aps.max(1),
            seat_lo: 0,
            infected,
        }];
        Ok(self)
    }
}

// ---------------------------------------------------------------------------
// The shard day loop
// ---------------------------------------------------------------------------

/// Runs one shard of a multi-day campaign from a fresh day-zero state to
/// the configured horizon: the entry point for worker processes and the
/// daemon's `shard_submit`. The outcome is the shard's mergeable partial
/// result.
pub fn run_campaign_shard(
    config: &RunConfig,
    plan: ShardPlan,
    ctx: &RunCtx,
) -> Result<ShardOutcome, ExperimentError> {
    config.validate_sharded()?;
    let mut outcome = ShardOutcome::fresh(config, plan)?;
    run_shard(config, plan, ctx, &mut outcome, None, config.fleet_days)?;
    Ok(outcome)
}

/// Advances one shard's outcome day by day until `until_day` completed
/// days, optionally checkpointing after every day. The single-process
/// campaign is the special case `plan = ShardPlan::full(config)`.
pub(super) fn run_shard(
    config: &RunConfig,
    plan: ShardPlan,
    ctx: &RunCtx,
    outcome: &mut ShardOutcome,
    checkpoint: Option<&Path>,
    until_day: u32,
) -> Result<(), ExperimentError> {
    let layout = seat_layout(config)?;
    debug_assert_eq!(outcome.parts.len(), 1, "a running shard owns exactly one part");
    let shared = ctx.budget_for(config);
    // Per-seat visit probabilities are a pure function of the campaign seed,
    // so every shard recomputes the same habits (indexed by global seat).
    let visit_probs = seat_visit_probs(config);

    // Replay checkpoint-restored days through the sink so a streaming
    // watcher always sees the complete day series, resumed or not.
    if let Some(sink) = &ctx.day_sink {
        for day in &outcome.days {
            sink.emit(day);
        }
    }

    while outcome.completed_days < until_day {
        // Cooperative cancellation lands exactly on a day boundary: the
        // checkpoint written after the last completed day stays valid, so a
        // cancelled campaign resumes byte-identically.
        if ctx.cancel.is_cancelled() {
            return Err(ExperimentError::Cancelled { completed_days: outcome.completed_days });
        }
        let day = outcome.completed_days + 1;
        run_shard_day(config, plan, &layout, outcome, day, shared.as_ref(), visit_probs.as_deref())?;
        if let Some(path) = checkpoint {
            write_checkpoint(path, config, outcome)?;
        }
        if let Some(sink) = &ctx.day_sink {
            sink.emit(outcome.days.last().expect("day just completed"));
        }
    }
    Ok(())
}

/// One AP's slice of a day's exposure sweep: the AP's race plus the global
/// seat indices of the clean seats it races today.
struct DayApTask {
    task: RaceTask,
    seats: Vec<u32>,
}

/// Advances one shard by one day: object churn, per-AP seat churn, cache
/// clears, then the packet-level exposure sweep for every clean seat that
/// visits. Every random decision about AP `a`'s seats comes from that AP's
/// private per-day stream, so disjoint shards never consume each other's
/// randomness — the decomposition that makes outcomes mergeable.
fn run_shard_day(
    config: &RunConfig,
    plan: ShardPlan,
    layout: &SeatLayout,
    outcome: &mut ShardOutcome,
    day: u32,
    shared: Option<&SharedBudget>,
    visit_probs: Option<&[f64]>,
) -> Result<(), ExperimentError> {
    let day_seed = mix_seed(config.seed, DAY_TAG ^ day as u64);
    let ShardOutcome { completed_days, target, parts, days, cumulative } = outcome;
    let part = &mut parts[0];

    // 1. Figure 3 object churn: a *global* fact, derived from the day seed
    //    alone, so every shard computes the same rotation schedule. The
    //    master only discovers a rotation on its next crawl, so today's
    //    races are armed with the *stale* object and miss; re-infection
    //    resumes tomorrow — the collapse-and-recover dynamics of Figure 3.
    let renames_before = target.renames;
    target.advance_day(&mut StdRng::seed_from_u64(day_seed));
    let object_rotated = target.renames != renames_before;

    // 2–4. Per-AP seat phase: rotation cures, seat churn (departures take
    //    their cache with them; fresh clean arrivals replace them), cache
    //    clears (the only Table III refresh that removes the parasite),
    //    then the daily-visit draw for every clean seat.
    let mut rotation_cured = 0usize;
    let mut departures = 0usize;
    let mut cache_clears = 0usize;
    let mut exposed = 0usize;
    let mut ap_days = Vec::with_capacity(plan.aps);
    for ap in plan.first_ap..plan.first_ap + plan.aps {
        let seat_range = layout.seats_of(ap);
        let slice =
            &mut part.infected[seat_range.start - part.seat_lo..seat_range.end - part.seat_lo];
        let mut rng = StdRng::seed_from_u64(mix_seed(day_seed, SEAT_TAG ^ ap as u64));
        if object_rotated {
            for seat in slice.iter_mut() {
                if *seat {
                    *seat = false;
                    rotation_cured += 1;
                }
            }
        }
        if config.fleet_churn > 0.0 {
            for seat in slice.iter_mut() {
                if rng.gen_bool(config.fleet_churn) {
                    departures += 1;
                    *seat = false;
                }
            }
        }
        for seat in slice.iter_mut() {
            if *seat && rng.gen_bool(DAILY_CACHE_CLEAR) {
                *seat = false;
                cache_clears += 1;
            }
        }
        // Infected seats serve from cache and draw nothing — persistence
        // costs neither packets nor randomness.
        let seats: Vec<u32> = slice
            .iter()
            .enumerate()
            .filter(|(local, &infected)| {
                !infected
                    && visit_probs
                        .is_none_or(|probs| rng.gen_bool(probs[seat_range.start + local]))
            })
            .map(|(local, _)| (seat_range.start + local) as u32)
            .collect();
        exposed += seats.len();
        let task = ap_task(config, ap, mix_seed(day_seed, ap as u64), seats.len());
        ap_days.push(DayApTask { task, seats });
    }

    // 5. Exposure: every visiting clean seat browses through its hostile
    //    AP and goes through the injection race.
    let jobs = fleet_jobs(config, ap_days.len());
    let outcomes = parallel_tasks(&ap_days, jobs, |ap_day| {
        // A seat keeps its browsing habit across days: the unprepared-object
        // trait is pinned to the campaign seat, not to today's local index.
        // On a rotation day every request is effectively "unprepared" — the
        // master's forged response still carries the stale object name, so
        // no race lands until it re-crawls overnight.
        let unprepared = |local: usize| {
            object_rotated || requests_unprepared_object(ap_day.seats[local] as usize)
        };
        race_clients(&ap_day.task, config.event_budget, shared, &unprepared)
    });

    let mut newly_infected = 0usize;
    let mut failed_aps = 0usize;
    let mut events = 0u64;
    for (ap_outcome, ap_day) in outcomes.into_iter().zip(&ap_days) {
        match ap_outcome {
            Ok(ap) => {
                events += ap.events;
                let summary = ap.trace.summary();
                cumulative.payload_bytes += summary.payload_bytes;
                cumulative.injected_events += summary.injected_events;
                cumulative.pending_bytes_dropped += summary.pending_bytes_dropped;
                for (&seat, _) in ap_day.seats.iter().zip(&ap.wins).filter(|(_, &win)| win) {
                    part.infected[seat as usize - part.seat_lo] = true;
                    newly_infected += 1;
                }
            }
            // A failed AP leaves its exposed seats clean; they are raced
            // again tomorrow.
            Err(_) => failed_aps += 1,
        }
    }
    cumulative.total_events += events;
    cumulative.failed_aps += failed_aps;

    // Fleet-wide abort semantics only apply when this shard *is* the
    // fleet; a partial shard reports its failures in its outcome and the
    // merge-time conversion re-applies the same rules globally.
    if plan.is_full(config) {
        if failed_aps == plan.aps && exposed > 0 {
            return Err(ExperimentError::Net(NetError::EventBudgetExhausted {
                budget: shared.map(SharedBudget::total).unwrap_or(config.event_budget),
            }));
        }
        if let Some(shared) = shared {
            // A drained global pool means part of today's fleet starved:
            // fail the campaign with the typed error instead of limping on.
            if failed_aps > 0 && shared.exhausted() {
                return Err(ExperimentError::Net(NetError::EventBudgetExhausted {
                    budget: shared.total(),
                }));
            }
        }
    }

    let infected = part.infected.iter().filter(|&&seat| seat).count();
    *completed_days = day;
    days.push(DayStats {
        day,
        departures,
        arrivals: departures,
        cache_clears,
        object_rotated,
        rotation_cured,
        exposed,
        newly_infected,
        failed_aps,
        infected,
        clean: part.infected.len() - infected,
        events,
    });
    Ok(())
}

// ---------------------------------------------------------------------------
// The partial-checkpoint codec
// ---------------------------------------------------------------------------

/// The configuration fields a checkpoint pins. Anything that changes the
/// campaign's deterministic trajectory must appear here — and *nothing*
/// else: pure scheduling hints (`fleet_jobs`, worker counts and shard
/// assignments) and fields other experiments own (`scale`, `sites`, the
/// surface axes, …) are deliberately excluded, so a campaign can resume
/// under different `--fleet-jobs`/`--workers` and still produce
/// byte-identical output (pinned by
/// `resume_accepts_different_scheduling_hints` and the worker-count
/// regression test).
pub(super) fn config_fingerprint(config: &RunConfig) -> Json {
    Json::obj([
        ("seed", config.seed.to_json()),
        ("fleet_clients", config.fleet_clients.to_json()),
        ("fleet_aps", config.fleet_aps.to_json()),
        ("fleet_days", config.fleet_days.to_json()),
        ("fleet_churn", config.fleet_churn.to_json()),
        ("fleet_hetero", config.fleet_hetero.to_json()),
        ("fleet_visit_prob", config.fleet_visit_prob.to_json()),
        ("jitter_us", config.jitter_us.to_json()),
        ("event_budget", config.event_budget.to_json()),
    ])
}

/// Hex-encodes a seat bitmap as 64-seat words.
pub(super) fn encode_bitmap(infected: &[bool]) -> Json {
    let words = infected.chunks(64).map(|chunk| {
        let mut word = 0u64;
        for (bit, &seat) in chunk.iter().enumerate() {
            if seat {
                word |= 1 << bit;
            }
        }
        Json::Str(format!("{word:016x}"))
    });
    Json::Arr(words.collect())
}

/// Decodes [`encode_bitmap`] output back into `seats` booleans.
pub(super) fn decode_bitmap(json: &Json, seats: usize) -> Option<Vec<bool>> {
    let words = json.as_array()?;
    if words.len() != seats.div_ceil(64) {
        return None;
    }
    let mut infected = Vec::with_capacity(seats);
    for word in words {
        let word = u64::from_str_radix(word.as_str()?, 16).ok()?;
        for bit in 0..64 {
            if infected.len() == seats {
                // Bits beyond the population must be zero padding.
                if word >> bit != 0 {
                    return None;
                }
                break;
            }
            infected.push(word & (1 << bit) != 0);
        }
    }
    (infected.len() == seats).then_some(infected)
}

impl ShardOutcome {
    /// Serialises this outcome as a (partial) checkpoint document: the
    /// campaign configuration fingerprint, the completed-day count, the
    /// Figure 3 target-object state, one seat bitmap per covered AP range,
    /// the budget counters and the day-by-day statistics. The same
    /// document is the on-disk whole-campaign checkpoint and the worker
    /// protocol's `shard_result` payload.
    pub fn to_checkpoint_json(&self, config: &RunConfig) -> Json {
        Json::obj([
            ("version", CHECKPOINT_VERSION.to_json()),
            ("kind", CHECKPOINT_KIND.to_json()),
            ("config", config_fingerprint(config)),
            ("completed_days", self.completed_days.to_json()),
            (
                "target",
                Json::obj([
                    ("day", self.target.day.to_json()),
                    ("renames", self.target.renames.to_json()),
                    ("content_changes", self.target.content_changes.to_json()),
                    ("current_path", self.target.current_path.to_json()),
                    ("current_hash", Json::Str(format!("{:016x}", self.target.current_hash))),
                ]),
            ),
            (
                "shards",
                Json::Arr(
                    self.parts
                        .iter()
                        .map(|part| {
                            Json::obj([
                                ("first_ap", part.first_ap.to_json()),
                                ("aps", part.aps.to_json()),
                                ("seat_lo", part.seat_lo.to_json()),
                                ("seats", part.infected.len().to_json()),
                                ("infected", encode_bitmap(&part.infected)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cumulative", self.cumulative.to_json()),
            ("days", self.days.to_json()),
        ])
    }

    /// Reads a (partial) checkpoint document back, validating it against
    /// the configuration: the kind/version discriminators, the
    /// configuration fingerprint, and every part's consistency with the
    /// static seat layout. The error strings are stable (callers prefix
    /// them with the document's origin).
    pub fn from_checkpoint_json(json: &Json, config: &RunConfig) -> Result<ShardOutcome, String> {
        let corrupt = || CORRUPT.to_string();
        if json.get("kind").and_then(Json::as_str) != Some(CHECKPOINT_KIND) {
            return Err(corrupt());
        }
        match json.get("version").and_then(Json::as_u64) {
            Some(CHECKPOINT_VERSION) => {}
            // A recognised checkpoint of a codec this build does not speak
            // is its own failure: "corrupt" would invite deleting a
            // perfectly good file written by a newer build.
            Some(other) => {
                return Err(format!(
                    "uses unsupported checkpoint codec version {other} \
                     (this build reads version {CHECKPOINT_VERSION})"
                ));
            }
            None => return Err(corrupt()),
        }
        if json.get("config") != Some(&config_fingerprint(config)) {
            return Err(MISMATCH.to_string());
        }
        let layout = seat_layout(config).map_err(|_| corrupt())?;
        let total_aps = config.fleet_aps.max(1);

        let completed_days: u32 =
            json.get("completed_days").and_then(Json::as_int).ok_or_else(corrupt)?;

        let target_json = json.get("target").ok_or_else(corrupt)?;
        let mut target = ChurningObject::new(
            "/my.js",
            StabilityClass::SlowChurn,
            mix_seed(config.seed, TARGET_TAG),
        );
        let counter = |key: &str| target_json.get(key).and_then(Json::as_int).ok_or_else(corrupt);
        target.day = counter("day")?;
        target.renames = counter("renames")?;
        target.content_changes = counter("content_changes")?;
        target.current_path = target_json
            .get("current_path")
            .and_then(Json::as_str)
            .ok_or_else(corrupt)?
            .to_string();
        target.current_hash = target_json
            .get("current_hash")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(corrupt)?;

        let mut parts = Vec::new();
        for part_json in json.get("shards").and_then(Json::as_array).ok_or_else(corrupt)? {
            let index = |key: &str| part_json.get(key).and_then(Json::as_int).ok_or_else(corrupt);
            let (first_ap, aps, seat_lo, seats): (usize, usize, usize, usize) =
                (index("first_ap")?, index("aps")?, index("seat_lo")?, index("seats")?);
            if aps == 0
                || first_ap + aps > total_aps
                || seat_lo != layout.offsets[first_ap]
                || seat_lo + seats != layout.offsets[first_ap + aps]
            {
                return Err(corrupt());
            }
            let infected = part_json
                .get("infected")
                .and_then(|bitmap| decode_bitmap(bitmap, seats))
                .ok_or_else(corrupt)?;
            parts.push(ShardPart { first_ap, aps, seat_lo, infected });
        }
        for window in parts.windows(2) {
            if window[0].ap_range().end > window[1].ap_range().start {
                return Err(corrupt());
            }
        }

        let record_error = |error| format!("{CORRUPT}: {error}");
        let cumulative = Cumulative::from_json(json.get("cumulative").ok_or_else(corrupt)?)
            .map_err(record_error)?;
        let days = json
            .get("days")
            .and_then(Json::as_array)
            .ok_or_else(corrupt)?
            .iter()
            .map(DayStats::from_json)
            .collect::<Result<Vec<DayStats>, String>>()
            .map_err(record_error)?;
        if days.len() != completed_days as usize {
            return Err(corrupt());
        }

        Ok(ShardOutcome { completed_days, target, parts, days, cumulative })
    }
}

/// Writes the checkpoint atomically (temp file in the same directory, then
/// rename), so a kill mid-write leaves the previous day's checkpoint intact.
///
/// The temp name carries the pid and a process-wide counter: two writers
/// pointed at the same checkpoint path (concurrent runs, or shard workers
/// sharing a staging directory) must not scribble into one shared temp
/// file — with a fixed `.tmp` suffix, writer A's rename could publish
/// writer B's half-written document. Unique temp names keep every rename
/// atomic and whole-file.
pub(super) fn write_checkpoint(
    path: &Path,
    config: &RunConfig,
    outcome: &ShardOutcome,
) -> Result<(), ExperimentError> {
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let document = outcome.to_checkpoint_json(config).to_string();
    let mut temp = path.to_path_buf();
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    temp.set_file_name(name);
    std::fs::write(&temp, document)
        .and_then(|()| std::fs::rename(&temp, path))
        .map_err(|error| {
            // Leave no orphan behind if the rename (not the write) failed.
            let _ = std::fs::remove_file(&temp);
            ExperimentError::Checkpoint(format!("writing {} failed: {error}", path.display()))
        })
}

/// Loads and validates a *full-coverage* checkpoint written by
/// [`write_checkpoint`] (the single-process resume path), coalescing its
/// parts into the flat shape the day loop runs on.
pub(super) fn load_checkpoint(
    path: &Path,
    config: &RunConfig,
) -> Result<ShardOutcome, ExperimentError> {
    let text = std::fs::read_to_string(path).map_err(|error| {
        ExperimentError::Checkpoint(format!("reading {} failed: {error}", path.display()))
    })?;
    let json = Json::parse(&text)
        .map_err(|_| CORRUPT.to_string())
        .and_then(|json| ShardOutcome::from_checkpoint_json(&json, config));
    let outcome = match json {
        Ok(outcome) => outcome,
        Err(message) => {
            return Err(ExperimentError::Checkpoint(format!("{} {message}", path.display())))
        }
    };
    let layout = seat_layout(config)?;
    outcome
        .coalesce(config, &layout)
        .map_err(|message| ExperimentError::Checkpoint(format!("{} {message}", path.display())))
}

// ---------------------------------------------------------------------------
// The coordinator journal
// ---------------------------------------------------------------------------
//
// A journal directory is the coordinator's durable state: one finished
// `ShardOutcome` per file, in the ordinary checkpoint codec, written
// atomically through `write_checkpoint` as each worker's range completes.
// A coordinator that dies (kill -9, power cut, torn write) restarts with
// `--journal <dir>`, scans the directory, keeps every entry that validates
// against the campaign fingerprint, re-runs only the AP ranges with no
// valid entry, and merges — `merge`'s associativity makes the result
// byte-identical to an uninterrupted run by construction.

/// The result of scanning a journal directory.
#[derive(Debug)]
pub struct JournalScan {
    /// Validated, completed shard outcomes, sorted by first AP and
    /// pairwise disjoint.
    pub outcomes: Vec<ShardOutcome>,
    /// Entries discarded as damaged (torn writes, truncated JSON, bad seat
    /// bitmaps, incomplete horizons): the path and the reason. The files
    /// have been deleted — their ranges are simply re-run.
    pub discarded: Vec<(PathBuf, String)>,
}

/// Why one journal entry could not be used.
enum JournalEntryError {
    /// The file is damaged; discarding it is safe (the range re-runs).
    Corrupt(String),
    /// The file is intact but belongs to a different campaign (fingerprint
    /// mismatch) or codec version: the scan aborts instead of silently
    /// destroying another run's durable progress.
    Foreign(String),
}

/// Whether a decode failure means "intact but not ours" (abort the scan)
/// rather than "damaged" (discard and re-run).
fn is_foreign_entry(message: &str) -> bool {
    message == MISMATCH || message.contains("unsupported checkpoint codec version")
}

/// The canonical journal file name of a shard range: derived from the range
/// alone, so a retried shard overwrites (atomically) rather than duplicates
/// its entry, and a resumed coordinator with a different worker count still
/// recognises completed ranges.
fn journal_file_name(first_ap: usize, aps: usize) -> String {
    format!("shard-{first_ap:06}-{aps:06}.json")
}

/// Writes one completed shard outcome into the journal directory
/// (atomically, via the checkpoint writer's temp+rename), returning the
/// entry's path.
pub fn write_journal_entry(
    dir: &Path,
    config: &RunConfig,
    outcome: &ShardOutcome,
) -> Result<PathBuf, ExperimentError> {
    let (first_ap, aps) = outcome.covered_range().map_err(ExperimentError::Checkpoint)?;
    std::fs::create_dir_all(dir).map_err(|error| {
        ExperimentError::Checkpoint(format!(
            "cannot create the journal directory {}: {error}",
            dir.display()
        ))
    })?;
    let path = dir.join(journal_file_name(first_ap, aps));
    write_checkpoint(&path, config, outcome)?;
    Ok(path)
}

/// Loads and validates one journal entry: the ordinary checkpoint decode
/// plus the journal's own contract — the entry must cover one contiguous
/// range and must have reached the campaign's full horizon (the journal
/// records *finished* shards only).
fn load_journal_entry(
    path: &Path,
    config: &RunConfig,
) -> Result<ShardOutcome, JournalEntryError> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| JournalEntryError::Corrupt(format!("cannot be read: {error}")))?;
    let json =
        Json::parse(&text).map_err(|_| JournalEntryError::Corrupt(CORRUPT.to_string()))?;
    let outcome = ShardOutcome::from_checkpoint_json(&json, config).map_err(|message| {
        if is_foreign_entry(&message) {
            JournalEntryError::Foreign(message)
        } else {
            JournalEntryError::Corrupt(message)
        }
    })?;
    let horizon = config.fleet_days.max(1);
    if outcome.completed_days != horizon {
        return Err(JournalEntryError::Corrupt(format!(
            "covers only {} of {horizon} campaign days",
            outcome.completed_days
        )));
    }
    outcome.covered_range().map_err(JournalEntryError::Corrupt)?;
    Ok(outcome)
}

/// Scans a journal directory: validates every `*.json` entry against the
/// campaign configuration, deletes (and reports) damaged entries, and
/// returns the valid outcomes sorted and checked disjoint. A missing
/// directory is an empty scan (first run); an entry from a *different*
/// campaign or codec version aborts with a typed error instead of being
/// deleted; overlapping entries (a journal shared by incompatible splits)
/// abort likewise.
pub fn scan_journal(dir: &Path, config: &RunConfig) -> Result<JournalScan, ExperimentError> {
    let mut scan = JournalScan { outcomes: Vec::new(), discarded: Vec::new() };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(error) => {
            return Err(ExperimentError::Checkpoint(format!(
                "cannot scan the journal {}: {error}",
                dir.display()
            )));
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|name| name.to_str()).unwrap_or("");
            // Skip in-flight temp files: a concurrent (or killed) writer's
            // `.tmp.` files are not entries.
            name.ends_with(".json") && !name.contains(".tmp.")
        })
        .collect();
    paths.sort();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for path in paths {
        match load_journal_entry(&path, config) {
            Ok(outcome) => {
                // `load_journal_entry` validated contiguity above.
                if let Ok(range) = outcome.covered_range() {
                    ranges.push(range);
                }
                scan.outcomes.push(outcome);
            }
            Err(JournalEntryError::Corrupt(message)) => {
                let _ = std::fs::remove_file(&path);
                scan.discarded.push((path, message));
            }
            Err(JournalEntryError::Foreign(message)) => {
                return Err(ExperimentError::Checkpoint(format!(
                    "journal entry {} {message}",
                    path.display()
                )));
            }
        }
    }
    scan.outcomes.sort_by_key(|outcome| outcome.parts[0].first_ap);
    ranges.sort_unstable();
    for pair in ranges.windows(2) {
        let ((a_first, a_aps), (b_first, b_aps)) = (pair[0], pair[1]);
        if a_first + a_aps > b_first {
            return Err(ExperimentError::Checkpoint(format!(
                "journal {} holds overlapping shard ranges [{a_first}, {}) and \
                 [{b_first}, {}); it mixes incompatible runs — delete the \
                 directory and restart",
                dir.display(),
                a_first + a_aps,
                b_first + b_aps
            )));
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::super::{ExperimentId, Registry};
    use super::*;
    use proptest::prelude::*;

    fn small_config() -> RunConfig {
        RunConfig {
            seed: 7,
            fleet_clients: 400,
            fleet_aps: 4,
            fleet_days: 3,
            fleet_churn: 0.2,
            fleet_jobs: 1,
            ..RunConfig::default()
        }
    }

    /// Synthetic disjoint shard outcomes sharing one campaign skeleton:
    /// random counters, no simulations — merge algebra only.
    fn synthetic_outcomes(seed: u64, shards: usize, days: u32) -> Vec<ShardOutcome> {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = ChurningObject::new("/my.js", StabilityClass::SlowChurn, seed);
        let rotated: Vec<bool> = (0..days).map(|_| rng.gen_bool(0.3)).collect();
        (0..shards)
            .map(|shard| {
                let infected: Vec<bool> = (0..100).map(|_| rng.gen_bool(0.5)).collect();
                ShardOutcome {
                    completed_days: days,
                    target: target.clone(),
                    parts: vec![ShardPart {
                        first_ap: shard * 4,
                        aps: 4,
                        seat_lo: shard * 100,
                        infected,
                    }],
                    days: (0..days)
                        .map(|day| DayStats {
                            day: day + 1,
                            departures: rng.gen_range(0..50),
                            arrivals: rng.gen_range(0..50),
                            cache_clears: rng.gen_range(0..10),
                            object_rotated: rotated[day as usize],
                            rotation_cured: rng.gen_range(0..20),
                            exposed: rng.gen_range(0..100),
                            newly_infected: rng.gen_range(0..100),
                            failed_aps: rng.gen_range(0..4),
                            infected: rng.gen_range(0..100),
                            clean: rng.gen_range(0..100),
                            events: rng.gen_range(0..100_000),
                        })
                        .collect(),
                    cumulative: Cumulative {
                        total_events: rng.gen_range(0..1_000_000),
                        payload_bytes: rng.gen_range(0..1_000_000),
                        injected_events: rng.gen_range(0..10_000),
                        pending_bytes_dropped: rng.gen_range(0..10_000),
                        failed_aps: rng.gen_range(0..8),
                    },
                }
            })
            .collect()
    }

    fn fold_merge(outcomes: &[ShardOutcome]) -> ShardOutcome {
        let mut merged = outcomes[0].clone();
        for outcome in &outcomes[1..] {
            merged = merged.merge(outcome.clone()).expect("disjoint outcomes merge");
        }
        merged
    }

    proptest! {
        #[test]
        fn merge_is_associative_and_order_insensitive(
            seed in any::<u64>(),
            shards in 2usize..6,
            days in 0u32..5,
            perm_seed in any::<u64>(),
        ) {
            let outcomes = synthetic_outcomes(seed, shards, days);
            // Left fold == right fold (associativity across the whole list).
            let left = fold_merge(&outcomes);
            let mut right = outcomes.last().expect("nonempty").clone();
            for outcome in outcomes.iter().rev().skip(1) {
                right = outcome.clone().merge(right).expect("disjoint outcomes merge");
            }
            prop_assert_eq!(&left, &right);
            // Any permutation folds to the identical outcome...
            let mut shuffled = outcomes.clone();
            let mut perm_rng = StdRng::seed_from_u64(perm_seed);
            for index in (1..shuffled.len()).rev() {
                shuffled.swap(index, perm_rng.gen_range(0..=index));
            }
            let permuted = fold_merge(&shuffled);
            prop_assert_eq!(&left, &permuted);
            // ...down to the serialised wire form.
            let config = small_config();
            prop_assert_eq!(
                left.to_checkpoint_json(&config).to_string(),
                permuted.to_checkpoint_json(&config).to_string()
            );
        }
    }

    #[test]
    fn merge_rejects_overlaps_and_mismatched_horizons() {
        let outcomes = synthetic_outcomes(11, 2, 3);
        // Overlap: merging an outcome with itself covers the same APs twice.
        let error = outcomes[0].clone().merge(outcomes[0].clone()).expect_err("overlap");
        assert!(error.contains("overlapping"), "got: {error}");
        // Horizon mismatch: different completed-day counts cannot merge.
        let mut short = outcomes[1].clone();
        short.completed_days = 2;
        short.days.pop();
        let error = outcomes[0].clone().merge(short).expect_err("horizon mismatch");
        assert!(error.contains("horizons"), "got: {error}");
        // Target divergence means the configs differed.
        let mut diverged = outcomes[1].clone();
        diverged.target.renames += 1;
        let error = outcomes[0].clone().merge(diverged).expect_err("target divergence");
        assert!(error.contains("target"), "got: {error}");
    }

    #[test]
    fn distributed_split_merges_to_the_single_process_artifact() {
        // A one-day campaign is day 1 of the same shard loop.
        for config in &[small_config(), RunConfig { fleet_days: 1, ..small_config() }] {
            let reference = Registry::get(ExperimentId::CampaignFleet).run(config);
            let reference = reference.data.as_campaign_fleet().expect("campaign artifact");
            for workers in [2usize, 3, 4] {
                let plans = ShardPlan::split(config, workers);
                assert_eq!(plans.iter().map(|p| p.aps).sum::<usize>(), 4);
                let partials: Vec<ShardOutcome> = plans
                    .iter()
                    .map(|&plan| {
                        let outcome = run_campaign_shard(config, plan, &RunCtx::default())
                            .expect("shard runs");
                        // Round-trip through the wire form, as a worker would.
                        let wire = outcome.to_checkpoint_json(config).to_string();
                        let parsed = Json::parse(&wire).expect("wire form parses");
                        ShardOutcome::from_checkpoint_json(&parsed, config)
                            .expect("wire form decodes")
                    })
                    .collect();
                let merged = fold_merge(&partials)
                    .into_fleet_result(config)
                    .expect("full coverage converts");
                assert_eq!(&merged, reference, "{workers} workers");
                assert_eq!(
                    merged.to_json().to_string(),
                    reference.to_json().to_string(),
                    "byte-identical under {workers} workers"
                );
            }
        }
    }

    #[test]
    fn worker_count_never_enters_the_checkpoint_fingerprint() {
        // The fingerprint must pin the trajectory and nothing else: no
        // scheduling hints, no worker counts, no shard assignments.
        let config = small_config();
        let fingerprint = config_fingerprint(&config).to_string();
        assert!(!fingerprint.contains("fleet_jobs"));
        let hinted = RunConfig { fleet_jobs: 8, ..config };
        assert_eq!(config_fingerprint(&hinted), config_fingerprint(&config));

        // A checkpoint assembled from a 4-worker run's merged partials
        // resumes byte-identically under 1 or 8 workers' worth of hints.
        let dir = std::env::temp_dir()
            .join(format!("mp-distrib-test-{}-fingerprint", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("merged.ckpt.json");
        let _ = std::fs::remove_file(&path);

        let reference = super::super::multiday::run_campaign_with_checkpoint(&config, &path)
            .expect("reference run");
        let _ = std::fs::remove_file(&path);

        let partials: Vec<ShardOutcome> = ShardPlan::split(&config, 4)
            .into_iter()
            .map(|plan| {
                let mut outcome = ShardOutcome::fresh(&config, plan).expect("fresh shard");
                run_shard(&config, plan, &RunCtx::default(), &mut outcome, None, 2)
                    .expect("shard runs to day 2");
                outcome
            })
            .collect();
        assert_eq!(partials.len(), 4);
        let merged = fold_merge(&partials);
        write_checkpoint(&path, &config, &merged).expect("merged checkpoint written");

        for hints in [
            RunConfig { fleet_jobs: 1, ..config },
            RunConfig { fleet_jobs: 4, ..config },
        ] {
            let resumed = super::super::multiday::run_campaign_with_checkpoint(&hints, &path)
                .expect("resumed run");
            assert_eq!(resumed, reference, "resume under different worker hints");
            assert_eq!(
                resumed.to_json().to_string(),
                reference.to_json().to_string(),
                "down to the JSON wire form"
            );
            // Resuming consumed the checkpoint's day-2 state; restore it.
            write_checkpoint(&path, &config, &merged).expect("checkpoint restored");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_documents_yield_typed_errors() {
        let config = small_config();
        let dir = std::env::temp_dir()
            .join(format!("mp-distrib-test-{}-corrupt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let outcome = ShardOutcome::fresh(&config, ShardPlan { first_ap: 0, aps: 4 })
            .expect("fresh outcome");
        let path = dir.join("seed.ckpt.json");
        write_checkpoint(&path, &config, &outcome).expect("seed checkpoint");
        let text = std::fs::read_to_string(&path).expect("seed text");

        let expect_checkpoint_error = |name: &str, body: &str, probe: &RunConfig, want: &str| {
            let mutated = dir.join(name);
            std::fs::write(&mutated, body).expect("mutated checkpoint");
            match load_checkpoint(&mutated, probe) {
                Err(ExperimentError::Checkpoint(message)) => {
                    assert!(message.contains(want), "{name}: got {message:?}, want {want:?}");
                }
                other => panic!("{name}: expected a checkpoint error, got {other:?}"),
            }
        };

        // Truncated JSON: a torn write that lost its tail.
        expect_checkpoint_error(
            "truncated.json",
            &text[..text.len() / 2],
            &config,
            "is not a valid campaign checkpoint",
        );
        // A seat bitmap with non-hex digits.
        assert!(text.contains("0000000000000000"), "fresh bitmaps are zero words");
        expect_checkpoint_error(
            "bad-hex.json",
            &text.replacen("0000000000000000", "zz00000000000000", 1),
            &config,
            "is not a valid campaign checkpoint",
        );
        // Counters a u32 cannot hold are corrupt, not wrapped to day zero.
        for (field, wide) in [
            ("\"completed_days\":0", "\"completed_days\":4294967296"),
            ("\"day\":0", "\"day\":4294967296"),
            ("\"renames\":0", "\"renames\":4294967296"),
        ] {
            assert!(text.contains(field), "fresh checkpoints carry {field}");
            expect_checkpoint_error(
                "wide.json",
                &text.replacen(field, wide, 1),
                &config,
                "is not a valid campaign checkpoint",
            );
        }
        // A day or counter record with a bad key is corrupt, naming the key.
        let day = DayStats::default().to_json().to_string();
        let with_day = |day: &str| text.replacen("\"days\":[]", &format!("\"days\":[{day}]"), 1);
        assert!(text.contains("\"days\":[]") && text.contains("\"payload_bytes\":0"));
        let mistyped_day = day.replacen("\"exposed\":0", "\"exposed\":\"x\"", 1);
        let unknown_key = day.replacen('}', ",\"bogus\":1}", 1);
        let mistyped_counter = text.replacen("\"payload_bytes\":0", "\"payload_bytes\":true", 1);
        for (name, body, key) in [
            ("day-type.json", with_day(&mistyped_day), "key \"exposed\""),
            ("day-key.json", with_day(&unknown_key), "unknown key \"bogus\""),
            ("counter-type.json", mistyped_counter, "key \"payload_bytes\""),
        ] {
            let want = format!("is not a valid campaign checkpoint: {key}");
            expect_checkpoint_error(name, &body, &config, &want);
        }
        // An intact checkpoint from a different campaign.
        expect_checkpoint_error(
            "mismatch.json",
            &text,
            &RunConfig { seed: config.seed + 1, ..config },
            "different campaign configuration",
        );
        // A future codec version names both versions instead of guessing.
        expect_checkpoint_error(
            "future.json",
            &text.replacen("\"version\":2", "\"version\":99", 1),
            &config,
            "unsupported checkpoint codec version 99",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_scan_merges_discards_and_aborts() {
        let config = small_config();
        let dir = std::env::temp_dir()
            .join(format!("mp-distrib-test-{}-journal", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // A missing directory is a first run: an empty scan, not an error.
        let scan = scan_journal(&dir, &config).expect("missing dir scans");
        assert!(scan.outcomes.is_empty() && scan.discarded.is_empty());

        // Two completed shards journal and scan back to the byte-identical
        // single-process artifact.
        let reference = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let reference = reference.data.as_campaign_fleet().expect("campaign artifact");
        for &plan in &ShardPlan::split(&config, 2) {
            let outcome =
                run_campaign_shard(&config, plan, &RunCtx::default()).expect("shard runs");
            write_journal_entry(&dir, &config, &outcome).expect("journal entry");
        }
        let scan = scan_journal(&dir, &config).expect("clean journal scans");
        assert_eq!(scan.outcomes.len(), 2);
        assert!(scan.discarded.is_empty());
        let merged =
            fold_merge(&scan.outcomes).into_fleet_result(&config).expect("full coverage");
        assert_eq!(
            merged.to_json().to_string(),
            reference.to_json().to_string(),
            "journal resume must be byte-identical"
        );

        // Damaged entries are discarded (and deleted) with a reason; the
        // surviving shards still scan.
        let good = dir.join(journal_file_name(0, 2));
        let good_text = std::fs::read_to_string(&good).expect("good entry text");
        let torn = dir.join("shard-000009-000001.json");
        std::fs::write(&torn, &good_text[..good_text.len() / 2]).expect("torn entry");
        let unfinished = ShardOutcome::fresh(&config, ShardPlan { first_ap: 0, aps: 4 })
            .expect("fresh outcome");
        let unfinished_path =
            write_journal_entry(&dir, &config, &unfinished).expect("unfinished entry");
        let scan = scan_journal(&dir, &config).expect("scan survives damage");
        assert_eq!(scan.outcomes.len(), 2, "the two finished shards survive");
        assert_eq!(scan.discarded.len(), 2, "torn + unfinished are discarded");
        assert!(!torn.exists() && !unfinished_path.exists(), "damaged entries are deleted");
        assert!(
            scan.discarded.iter().any(|(_, why)| why.contains("covers only 0 of 3")),
            "got: {:?}",
            scan.discarded
        );

        // An intact entry from a different campaign aborts the scan — it is
        // someone else's durable progress, not ours to delete.
        let foreign_config = RunConfig { seed: config.seed + 1, ..config };
        let foreign = run_campaign_shard(
            &foreign_config,
            ShardPlan { first_ap: 3, aps: 1 },
            &RunCtx::default(),
        )
        .expect("foreign shard runs");
        let foreign_path =
            write_journal_entry(&dir, &foreign_config, &foreign).expect("foreign entry");
        match scan_journal(&dir, &config) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(message.contains("different campaign configuration"), "got: {message}");
            }
            other => panic!("expected a foreign-entry abort, got {other:?}"),
        }
        assert!(foreign_path.exists(), "foreign entries are never deleted");
        std::fs::remove_file(&foreign_path).expect("clear foreign entry");

        // So does an entry written by a future codec version.
        let future = dir.join("shard-000009-000001.json");
        std::fs::write(&future, good_text.replacen("\"version\":2", "\"version\":99", 1))
            .expect("future entry");
        match scan_journal(&dir, &config) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(message.contains("unsupported checkpoint codec version"), "got: {message}");
            }
            other => panic!("expected a version abort, got {other:?}"),
        }
        assert!(future.exists(), "future-version entries are never deleted");
        std::fs::remove_file(&future).expect("clear future entry");

        // Overlapping valid entries mean the journal mixes incompatible
        // splits: abort rather than double-count seats.
        let overlap = dir.join("shard-000001-000002.json");
        std::fs::write(&overlap, &good_text).expect("overlap entry");
        match scan_journal(&dir, &config) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(
                    message.contains("overlapping shard ranges"),
                    "got: {message}"
                );
            }
            other => panic!("expected an overlap abort, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_outcomes_refuse_fleet_conversion() {
        let config = small_config();
        let plan = ShardPlan { first_ap: 0, aps: 2 };
        let outcome = run_campaign_shard(&config, plan, &RunCtx::default()).expect("shard runs");
        match outcome.into_fleet_result(&config) {
            Err(ExperimentError::Checkpoint(message)) => {
                assert!(message.contains("does not cover the fleet"), "got: {message}");
            }
            other => panic!("expected a coverage error, got {other:?}"),
        }
    }
}
