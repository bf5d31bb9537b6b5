//! The attack-surface registry experiment: probability surfaces over
//! (attack vector × master reaction latency × WAN latency × jitter ×
//! defense adoption).
//!
//! The paper's core quantitative claim is a *probability*: the parasite wins
//! the injection race against the genuine server with likelihood set by the
//! master's reaction latency, per-packet jitter and the defenses the victim
//! population deploys. The repo has every ingredient — the Figure 2 race
//! world, the §VIII defense matrix, seeded distributions — and this
//! experiment maps them: a dense seeded grid sweep running hundreds of race
//! trials per cell and emitting figure-style curves (race success vs.
//! reaction delay, steady-state infection vs. defense adoption) with Wilson
//! 95% intervals, as both a rendered table and a JSON series. Each grid cell
//! is one `race_clients` run (the `tables` module's multi-client race
//! runner, shared with the campaign fleet): `surface_trials` victims racing
//! the master under the cell's timing and jitter.
//!
//! Determinism contract: per-cell seeds come from dedicated splitmix streams
//! ([`SURFACE_TAG`] for the race worlds, [`ADOPT_TAG`] for the adoption
//! draws), cells run on the same order-preserving thread pool as the fleet
//! sweep, and the defended-trial draws never depend on the adoption fraction
//! itself — so the artifact is byte-identical across `fleet_jobs` /
//! `fleet_shards` values and the adoption curve is monotone non-increasing
//! *by construction* (common random numbers: raising adoption only grows the
//! defended set).

use super::campaign::{fleet_jobs, mix_seed};
use super::multiday::DAILY_CACHE_CLEAR;
use super::tables::{race_clients, RaceTask, RaceTiming};
use super::{parallel_tasks, ExperimentError, RunConfig, RunCtx};
use crate::defense::{stage_survives, AttackStage, Defense};
use crate::json::{Json, ToJson};
use mp_netsim::capture::TraceMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed-stream tag for per-cell race worlds: cell `(v, d, w, j)` simulates
/// under `mix_seed(seed, SURFACE_TAG ^ cell_tag(v, d, w, j))`, a stream
/// disjoint from the campaign module's per-AP, shard, profile and day
/// streams.
pub(super) const SURFACE_TAG: u64 = 0x5caf_ace0_0000_0000;

/// Seed-stream tag for the defense-adoption draws. Deliberately separate from
/// [`SURFACE_TAG`]: the adoption gate must not perturb the race RNG, and the
/// per-trial draw must not depend on the adoption fraction (common random
/// numbers keep the adoption curve monotone).
pub(super) const ADOPT_TAG: u64 = 0xad07_7000_0000_0000;

/// Hard cap on grid-axis lengths so [`cell_tag`] bit fields cannot overlap.
pub(super) const MAX_AXIS_STEPS: usize = 1 << 16;

/// Packs one grid cell's coordinates into the seed-stream index: vector in
/// bits 48+, delay in bits 32–47, WAN latency in bits 16–31, jitter in bits
/// 0–15. [`RunConfig::validate`] caps axis lengths at [`MAX_AXIS_STEPS`], so the
/// 16-bit lanes never overlap.
pub(super) fn cell_tag(vector: usize, delay_idx: usize, wan_idx: usize, jitter_idx: usize) -> u64 {
    ((vector as u64) << 48)
        | ((delay_idx as u64) << 32)
        | ((wan_idx as u64) << 16)
        | jitter_idx as u64
}

// ---------------------------------------------------------------------------
// Attack vectors
// ---------------------------------------------------------------------------

/// One attack vector of the surface sweep: an injection-race campaign paired
/// with the attack stage it must complete and the §VIII countermeasure the
/// defended share of the population deploys against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceVector {
    /// The active injection race against HSTS-preloaded victims: preloading
    /// removes the plaintext window, so adoption directly removes victims.
    RaceVsHsts,
    /// The same race scored against a *strict CSP* population — the paper's
    /// headline: CSP does **not** stop active injection, so the adoption
    /// curve stays flat.
    RaceVsCsp,
    /// Cache persistence vs. Subresource Integrity: SRI blocks re-use of the
    /// cached, tampered script, so adopted victims shed the parasite.
    PersistVsSri,
    /// Cross-domain propagation vs. cache partitioning: partitioned caches
    /// stop the cross-site spread.
    PropagateVsPartitioning,
}

impl SurfaceVector {
    /// All vectors, in the report's row order.
    pub const ALL: [SurfaceVector; 4] = [
        SurfaceVector::RaceVsHsts,
        SurfaceVector::RaceVsCsp,
        SurfaceVector::PersistVsSri,
        SurfaceVector::PropagateVsPartitioning,
    ];

    /// The canonical id string (used by `--surface-vectors` and the JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            SurfaceVector::RaceVsHsts => "race_vs_hsts",
            SurfaceVector::RaceVsCsp => "race_vs_csp",
            SurfaceVector::PersistVsSri => "persist_vs_sri",
            SurfaceVector::PropagateVsPartitioning => "propagate_vs_partitioning",
        }
    }

    /// The countermeasure the defended population share deploys.
    pub fn defense(&self) -> Defense {
        match self {
            SurfaceVector::RaceVsHsts => Defense::HstsPreload,
            SurfaceVector::RaceVsCsp => Defense::StrictCsp,
            SurfaceVector::PersistVsSri => Defense::SubresourceIntegrity,
            SurfaceVector::PropagateVsPartitioning => Defense::CachePartitioning,
        }
    }

    /// The attack stage the vector must complete after winning the race.
    pub fn stage(&self) -> AttackStage {
        match self {
            SurfaceVector::RaceVsHsts | SurfaceVector::RaceVsCsp => AttackStage::ActiveInjection,
            SurfaceVector::PersistVsSri => AttackStage::CachePersistence,
            SurfaceVector::PropagateVsPartitioning => AttackStage::CrossDomainPropagation,
        }
    }

    /// Whether the vector's defense actually blocks its stage (§VIII matrix).
    pub fn defense_blocks_stage(&self) -> bool {
        !stage_survives(self.defense(), self.stage())
    }

    /// Parses a comma-separated vector list into the [`RunConfig`] bitmask
    /// (`0` means "all vectors").
    pub fn parse_mask(list: &str) -> Result<u8, String> {
        let mut mask = 0u8;
        for part in list.split(',') {
            let needle = part.trim();
            let position = SurfaceVector::ALL
                .iter()
                .position(|vector| vector.as_str() == needle)
                .ok_or_else(|| {
                    format!(
                        "unknown attack vector {:?} (expected one of: {})",
                        needle,
                        SurfaceVector::ALL.map(|v| v.as_str()).join(", ")
                    )
                })?;
            mask |= 1 << position;
        }
        Ok(mask)
    }

    /// Expands the [`RunConfig::surface_vectors`] bitmask (`0` = all);
    /// [`RunConfig::validate`] rejects bits beyond the known vectors.
    fn from_mask(mask: u8) -> Vec<SurfaceVector> {
        SurfaceVector::ALL
            .into_iter()
            .enumerate()
            .filter(|(bit, _)| mask == 0 || mask & (1 << bit) != 0)
            .map(|(_, vector)| vector)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Result types
// ---------------------------------------------------------------------------

/// One point of a figure-style curve: raw counts plus the success rate and
/// its Wilson 95% interval, plot-ready.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// The x coordinate (reaction delay in µs, or adoption fraction).
    pub x: f64,
    /// Successful trials at this point.
    pub successes: u64,
    /// Total trials at this point.
    pub trials: u64,
    /// `successes / trials`.
    pub rate: f64,
    /// Wilson 95% interval, lower bound.
    pub wilson_lo: f64,
    /// Wilson 95% interval, upper bound.
    pub wilson_hi: f64,
}

impl ToJson for CurvePoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("x", self.x.to_json()),
            ("successes", self.successes.to_json()),
            ("trials", self.trials.to_json()),
            ("rate", self.rate.to_json()),
            ("wilson_lo", self.wilson_lo.to_json()),
            ("wilson_hi", self.wilson_hi.to_json()),
        ])
    }
}

/// The Wilson score interval at 95% confidence.
fn wilson95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959963984540054_f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    ((center - half).max(0.0), (center + half).min(1.0))
}

fn curve_point(x: f64, successes: u64, trials: u64) -> CurvePoint {
    let (wilson_lo, wilson_hi) = wilson95(successes, trials);
    CurvePoint {
        x,
        successes,
        trials,
        rate: if trials == 0 { 0.0 } else { successes as f64 / trials as f64 },
        wilson_lo,
        wilson_hi,
    }
}

/// One attack vector's slice of the surface: the raw per-cell grid plus the
/// two derived curves.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSurface {
    /// The vector id ([`SurfaceVector::as_str`]).
    pub vector: String,
    /// The countermeasure the defended population deploys.
    pub defense: String,
    /// The attack stage the vector must complete.
    pub stage: String,
    /// Whether that defense blocks that stage (§VIII). When `false` the
    /// adoption curve is flat — the paper's CSP headline.
    pub defense_blocks_stage: bool,
    /// Race wins per `(delay, wan, jitter)` cell, delay-major.
    pub race_wins: Vec<u64>,
    /// Post-adoption-gate successes per `(delay, wan, jitter, adoption)`
    /// cell, delay-major, then WAN, then jitter, then adoption.
    pub successes: Vec<u64>,
    /// Race success vs. reaction delay (aggregated over the WAN and jitter
    /// axes).
    pub success_vs_delay: Vec<CurvePoint>,
    /// Race success vs. genuine-server WAN latency (aggregated over the
    /// delay and jitter axes): the race gets *easier* as the real response
    /// travels further, so this curve is monotone non-decreasing.
    pub success_vs_wan: Vec<CurvePoint>,
    /// Per-exposure success vs. defense adoption (aggregated over delay and
    /// jitter).
    pub infection_vs_adoption: Vec<CurvePoint>,
    /// Steady-state infected fraction per adoption point, from the multi-day
    /// churn fixed point `f* = p / (p + q - p·q)` with `p` the per-exposure
    /// success rate and `q` the daily cure rate.
    pub steady_state: Vec<f64>,
}

impl ToJson for VectorSurface {
    fn to_json(&self) -> Json {
        Json::obj([
            ("vector", self.vector.to_json()),
            ("defense", self.defense.to_json()),
            ("stage", self.stage.to_json()),
            ("defense_blocks_stage", self.defense_blocks_stage.to_json()),
            ("race_wins", self.race_wins.to_json()),
            ("successes", self.successes.to_json()),
            ("success_vs_delay", self.success_vs_delay.to_json()),
            ("success_vs_wan", self.success_vs_wan.to_json()),
            ("infection_vs_adoption", self.infection_vs_adoption.to_json()),
            ("steady_state", self.steady_state.to_json()),
        ])
    }
}

/// Result of the attack-surface sweep: the grid axes and one
/// [`VectorSurface`] per requested vector.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceResult {
    /// Master reaction delays swept, in microseconds.
    pub delays_us: Vec<u64>,
    /// Genuine-server WAN one-way latencies swept, in microseconds.
    pub wans_us: Vec<u64>,
    /// Per-packet WiFi jitter bounds swept, in microseconds.
    pub jitters_us: Vec<u64>,
    /// Defense-adoption fractions swept.
    pub adoption: Vec<f64>,
    /// Seeded race trials per grid cell.
    pub trials: usize,
    /// Daily cure rate `q` feeding the steady-state fixed point (cache
    /// clears plus `fleet_churn` turnover).
    pub daily_cure_rate: f64,
    /// One surface per attack vector.
    pub vectors: Vec<VectorSurface>,
    /// Simulator events processed across every cell of the sweep.
    pub total_events: u64,
}

impl SurfaceResult {
    /// Renders the two figure-style tables per vector.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Attack surface - race x defense probability sweep\n\
             grid: {} vectors x {} delays x {} wans x {} jitters x {} adoption points, \
             {} trials/cell ({} events)\n",
            self.vectors.len(),
            self.delays_us.len(),
            self.wans_us.len(),
            self.jitters_us.len(),
            self.adoption.len(),
            self.trials,
            self.total_events,
        );
        for vector in &self.vectors {
            out.push_str(&format!(
                "\nvector {} - {} vs {} ({})\n",
                vector.vector,
                vector.stage,
                vector.defense,
                if vector.defense_blocks_stage {
                    "defense blocks the stage"
                } else {
                    "defense does NOT block the stage"
                },
            ));
            out.push_str("  reaction delay us | success rate [wilson 95%]\n");
            for point in &vector.success_vs_delay {
                out.push_str(&format!(
                    "  {:>17} | {:>6.1} %  [{:>5.1}, {:>5.1}]\n",
                    point.x as u64,
                    point.rate * 100.0,
                    point.wilson_lo * 100.0,
                    point.wilson_hi * 100.0,
                ));
            }
            if self.wans_us.len() > 1 {
                out.push_str("  server wan us | success rate [wilson 95%]\n");
                for point in &vector.success_vs_wan {
                    out.push_str(&format!(
                        "  {:>13} | {:>6.1} %  [{:>5.1}, {:>5.1}]\n",
                        point.x as u64,
                        point.rate * 100.0,
                        point.wilson_lo * 100.0,
                        point.wilson_hi * 100.0,
                    ));
                }
            }
            out.push_str("  adoption | per-exposure success | steady-state infected\n");
            for (point, steady) in vector.infection_vs_adoption.iter().zip(&vector.steady_state) {
                out.push_str(&format!(
                    "  {:>7.0} % | {:>18.1} % | {:>19.1} %\n",
                    point.x * 100.0,
                    point.rate * 100.0,
                    steady * 100.0,
                ));
            }
        }
        out
    }
}

impl ToJson for SurfaceResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("delays_us", self.delays_us.to_json()),
            ("wans_us", self.wans_us.to_json()),
            ("jitters_us", self.jitters_us.to_json()),
            ("adoption", self.adoption.to_json()),
            ("trials", self.trials.to_json()),
            ("daily_cure_rate", self.daily_cure_rate.to_json()),
            ("vectors", self.vectors.to_json()),
            ("total_events", self.total_events.to_json()),
        ])
    }
}

// ---------------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------------

/// `steps` linearly spaced points from `start` to `end` (the reaction-delay
/// and WAN-latency axes); one point when `steps` is 1 or the range is empty.
fn linear_axis(start: u64, end: u64, steps: usize) -> Vec<u64> {
    if steps == 1 || start == end {
        return vec![start];
    }
    (0..steps)
        .map(|i| start + (end - start) * i as u64 / (steps - 1) as u64)
        .collect()
}

/// The adoption axis: `steps` evenly spaced fractions covering `[0, 1]`.
fn adoption_axis(config: &RunConfig) -> Vec<f64> {
    let steps = config.surface_adoption_steps;
    if steps == 1 {
        return vec![0.0];
    }
    (0..steps).map(|i| i as f64 / (steps - 1) as f64).collect()
}

/// Per-trial defense-adoption coordinates for one cell: a uniform draw in
/// `[0, 1)` per trial from the [`ADOPT_TAG`] stream. A trial is defended
/// under adoption `a` iff its coordinate is below `a` — the draw never sees
/// `a`, so raising adoption only ever grows the defended set (the curve is
/// monotone by construction).
fn adoption_coordinates(config: &RunConfig, tag: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix_seed(config.seed, ADOPT_TAG ^ tag));
    (0..config.surface_trials).map(|_| rng.gen::<f64>()).collect()
}

/// Runs the attack-surface sweep (see the module docs).
pub(super) fn attack_surface(
    config: &RunConfig,
    ctx: &RunCtx,
) -> Result<SurfaceResult, ExperimentError> {
    let vectors = SurfaceVector::from_mask(config.surface_vectors);
    let delays = linear_axis(
        config.surface_delay_start_us,
        config.surface_delay_end_us,
        config.surface_delay_steps,
    );
    // The default single WAN point is the paper's 40 ms internet path.
    let wans = linear_axis(
        config.surface_wan_start_us,
        config.surface_wan_end_us,
        config.surface_wan_steps,
    );
    let jitters = if config.jitter_us == 0 { vec![0] } else { vec![0, config.jitter_us] };
    let adoption = adoption_axis(config);
    let shared = ctx.budget_for(config);

    // One race world per (vector, delay, wan, jitter) cell, each under its
    // own seed stream; the full task list runs on the order-preserving pool,
    // so jobs=1 and parallel runs produce identical artifacts. The adoption
    // axis is applied afterwards: it gates outcomes, it does not change the
    // packet-level race.
    let tasks: Vec<RaceTask> = vectors
        .iter()
        .enumerate()
        .flat_map(|(v, _)| {
            let delays = &delays;
            let wans = &wans;
            let jitters = &jitters;
            delays.iter().enumerate().flat_map(move |(d, &delay_us)| {
                wans.iter().enumerate().flat_map(move |(w, &wan_us)| {
                    jitters.iter().enumerate().map(move |(j, &jitter_us)| RaceTask {
                        seed: mix_seed(config.seed, SURFACE_TAG ^ cell_tag(v, d, w, j)),
                        timing: RaceTiming {
                            attacker_reaction_us: delay_us,
                            server_one_way_us: wan_us,
                            ..RaceTiming::PAPER
                        },
                        jitter_us,
                        clients: config.surface_trials,
                        trace: TraceMode::SummaryOnly,
                    })
                })
            })
        })
        .collect();
    let jobs = fleet_jobs(config, tasks.len());
    let outcomes = parallel_tasks(&tasks, jobs, |task| {
        race_clients(task, config.event_budget, shared.as_ref(), &|_| false)
    });
    let q = DAILY_CACHE_CLEAR + config.fleet_churn - DAILY_CACHE_CLEAR * config.fleet_churn;

    let mut total_events = 0u64;
    let mut surfaces = Vec::with_capacity(vectors.len());
    let cells_per_vector = delays.len() * wans.len() * jitters.len();
    for (v, vector) in vectors.iter().enumerate() {
        let blocked = vector.defense_blocks_stage();
        let mut race_wins = Vec::with_capacity(cells_per_vector);
        let mut successes = Vec::with_capacity(cells_per_vector * adoption.len());
        let mut delay_wins = vec![0u64; delays.len()];
        let mut wan_wins = vec![0u64; wans.len()];
        let mut adoption_successes = vec![0u64; adoption.len()];
        for (d, d_wins) in delay_wins.iter_mut().enumerate() {
            for (w, w_wins) in wan_wins.iter_mut().enumerate() {
                for j in 0..jitters.len() {
                    let cell = (d * wans.len() + w) * jitters.len() + j;
                    let outcome = outcomes[v * cells_per_vector + cell]
                        .as_ref()
                        .map_err(|error| ExperimentError::Net(error.clone()))?;
                    total_events += outcome.events;
                    let wins = outcome.wins.iter().filter(|&&win| win).count() as u64;
                    race_wins.push(wins);
                    *d_wins += wins;
                    *w_wins += wins;
                    let coordinates = adoption_coordinates(config, cell_tag(v, d, w, j));
                    for (k, &a) in adoption.iter().enumerate() {
                        let survived = outcome
                            .wins
                            .iter()
                            .zip(&coordinates)
                            .filter(|&(&win, &u)| win && !(blocked && u < a))
                            .count() as u64;
                        successes.push(survived);
                        adoption_successes[k] += survived;
                    }
                }
            }
        }
        let per_delay_trials = (wans.len() * jitters.len() * config.surface_trials) as u64;
        let per_wan_trials = (delays.len() * jitters.len() * config.surface_trials) as u64;
        let per_adoption_trials = (cells_per_vector * config.surface_trials) as u64;
        let infection_vs_adoption: Vec<CurvePoint> = adoption
            .iter()
            .zip(&adoption_successes)
            .map(|(&a, &s)| curve_point(a, s, per_adoption_trials))
            .collect();
        surfaces.push(VectorSurface {
            vector: vector.as_str().to_string(),
            defense: vector.defense().to_string(),
            stage: vector.stage().to_string(),
            defense_blocks_stage: blocked,
            race_wins,
            successes,
            success_vs_delay: delays
                .iter()
                .zip(&delay_wins)
                .map(|(&delay, &wins)| curve_point(delay as f64, wins, per_delay_trials))
                .collect(),
            success_vs_wan: wans
                .iter()
                .zip(&wan_wins)
                .map(|(&wan, &wins)| curve_point(wan as f64, wins, per_wan_trials))
                .collect(),
            steady_state: infection_vs_adoption
                .iter()
                .map(|point| {
                    let p = point.rate;
                    if p + q - p * q == 0.0 { 0.0 } else { p / (p + q - p * q) }
                })
                .collect(),
            infection_vs_adoption,
        });
    }

    Ok(SurfaceResult {
        delays_us: delays,
        wans_us: wans,
        jitters_us: jitters,
        adoption,
        trials: config.surface_trials,
        daily_cure_rate: q,
        vectors: surfaces,
        total_events,
    })
}

#[cfg(test)]
mod tests {
    use super::super::campaign::MAX_CLIENTS_PER_AP;
    use super::super::{ExperimentId, Registry, RunConfig};
    use super::*;
    use crate::json::Json;

    fn small_config() -> RunConfig {
        RunConfig {
            seed: 7,
            surface_trials: 32,
            surface_delay_start_us: 300,
            surface_delay_end_us: 160_000,
            surface_delay_steps: 5,
            surface_adoption_steps: 5,
            fleet_jobs: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn surface_curves_are_monotone_in_delay_and_adoption() {
        // The acceptance property: success probability is monotonically
        // non-increasing in master reaction delay (at jitter 0 the race is a
        // deterministic step function of the delay) and in defense adoption
        // (common random numbers make this hold by construction).
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&small_config());
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        assert_eq!(result.vectors.len(), 4);
        for vector in &result.vectors {
            for pair in vector.success_vs_delay.windows(2) {
                assert!(
                    pair[1].successes <= pair[0].successes,
                    "{}: success must not increase with reaction delay",
                    vector.vector
                );
            }
            for pair in vector.infection_vs_adoption.windows(2) {
                assert!(
                    pair[1].successes <= pair[0].successes,
                    "{}: success must not increase with adoption",
                    vector.vector
                );
            }
            for pair in vector.steady_state.windows(2) {
                assert!(pair[1] <= pair[0], "{}: steady state must not rise", vector.vector);
            }
        }
        // The paper's timing wins at 300 µs reaction and loses at 160 ms —
        // the curve actually spans the crossover.
        let hsts = &result.vectors[0];
        assert_eq!(hsts.success_vs_delay.first().unwrap().rate, 1.0);
        assert_eq!(hsts.success_vs_delay.last().unwrap().rate, 0.0);
    }

    #[test]
    fn csp_adoption_curve_is_flat_and_blocking_defenses_reach_zero() {
        // The paper's §VIII headline, measured: strict CSP does not stop the
        // active injection race (flat adoption curve), while full HSTS
        // preloading removes every victim.
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&small_config());
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        let by_name = |name: &str| {
            result.vectors.iter().find(|v| v.vector == name).expect("vector present")
        };
        let csp = by_name("race_vs_csp");
        assert!(!csp.defense_blocks_stage);
        let baseline = csp.infection_vs_adoption[0].successes;
        assert!(baseline > 0);
        for point in &csp.infection_vs_adoption {
            assert_eq!(point.successes, baseline, "CSP adoption must not change the race");
        }
        let hsts = by_name("race_vs_hsts");
        assert!(hsts.defense_blocks_stage);
        assert!(hsts.infection_vs_adoption[0].successes > 0);
        assert_eq!(
            hsts.infection_vs_adoption.last().unwrap().successes,
            0,
            "full HSTS adoption leaves no plaintext window"
        );
    }

    #[test]
    fn surface_is_deterministic_across_jobs_and_shards() {
        let config = small_config();
        let sequential = Registry::get(ExperimentId::AttackSurface).run(&config);
        for variant in [
            RunConfig { fleet_jobs: 4, ..config },
            RunConfig { fleet_jobs: 0, ..config },
            RunConfig { fleet_shards: 8, ..config },
        ] {
            let other = Registry::get(ExperimentId::AttackSurface).run(&variant);
            assert_eq!(sequential.data, other.data);
            assert_eq!(
                sequential.data.to_json().to_string(),
                other.data.to_json().to_string(),
                "byte-identical down to the JSON wire form"
            );
        }
    }

    #[test]
    fn vector_mask_round_trips_and_rejects_unknowns() {
        assert_eq!(SurfaceVector::parse_mask("race_vs_hsts"), Ok(0b0001));
        assert_eq!(
            SurfaceVector::parse_mask("race_vs_csp, persist_vs_sri"),
            Ok(0b0110)
        );
        assert!(SurfaceVector::parse_mask("race_vs_nothing").is_err());
        assert_eq!(SurfaceVector::from_mask(0), SurfaceVector::ALL.to_vec());
        assert_eq!(
            SurfaceVector::from_mask(0b0101),
            vec![SurfaceVector::RaceVsHsts, SurfaceVector::PersistVsSri]
        );
        let unknown = RunConfig { surface_vectors: 0b1_0000, ..small_config() };
        assert_eq!(unknown.validate().map_err(|error| error.field), Err("surface_vectors"));
        // A single-vector sweep carries exactly that vector.
        let config = RunConfig { surface_vectors: 0b0010, ..small_config() };
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&config);
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        assert_eq!(result.vectors.len(), 1);
        assert_eq!(result.vectors[0].vector, "race_vs_csp");
    }

    #[test]
    fn invalid_surface_configs_are_typed_errors() {
        let experiment = Registry::get(ExperimentId::AttackSurface);
        for bad in [
            RunConfig { surface_trials: 0, ..small_config() },
            RunConfig { surface_trials: MAX_CLIENTS_PER_AP + 1, ..small_config() },
            RunConfig {
                surface_delay_start_us: 10_000,
                surface_delay_end_us: 300,
                ..small_config()
            },
            RunConfig { surface_delay_steps: MAX_AXIS_STEPS + 1, ..small_config() },
            RunConfig {
                surface_wan_start_us: 100_000,
                surface_wan_end_us: 10_000,
                ..small_config()
            },
            RunConfig { surface_wan_steps: MAX_AXIS_STEPS + 1, ..small_config() },
        ] {
            match experiment.try_run(&bad) {
                Err(ExperimentError::Config(_)) => {}
                other => panic!("expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn jitter_axis_and_wilson_intervals_are_well_formed() {
        let config = RunConfig { jitter_us: 400, ..small_config() };
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&config);
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        assert_eq!(result.jitters_us, vec![0, 400]);
        for vector in &result.vectors {
            assert_eq!(vector.race_wins.len(), result.delays_us.len() * 2);
            assert_eq!(
                vector.successes.len(),
                result.delays_us.len() * 2 * result.adoption.len()
            );
            for point in vector.success_vs_delay.iter().chain(&vector.infection_vs_adoption) {
                assert!(point.wilson_lo <= point.rate && point.rate <= point.wilson_hi);
                assert!((0.0..=1.0).contains(&point.wilson_lo));
                assert!((0.0..=1.0).contains(&point.wilson_hi));
                assert!(point.successes <= point.trials);
            }
        }
        // The JSON wire form parses and carries the grid axes.
        let parsed = Json::parse(&artifact.to_json().to_string()).expect("valid JSON");
        let data = parsed.get("data").expect("data");
        assert_eq!(data.get("trials").and_then(Json::as_u64), Some(32));
        assert_eq!(
            data.get("vectors").and_then(Json::as_array).map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn wan_axis_defaults_to_the_paper_point_and_sweeps_monotonically() {
        // Default grid: one WAN point — the paper's 40 ms internet path —
        // and a single-point success_vs_wan curve per vector.
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&small_config());
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        assert_eq!(result.wans_us, vec![40_000]);
        for vector in &result.vectors {
            assert_eq!(vector.success_vs_wan.len(), 1);
        }

        // Swept: the race only gets easier as the genuine response travels
        // further, so success is monotone non-DEcreasing in WAN latency
        // (the mirror image of the reaction-delay axis).
        let config = RunConfig {
            surface_wan_start_us: 5_000,
            surface_wan_end_us: 120_000,
            surface_wan_steps: 4,
            ..small_config()
        };
        let artifact = Registry::get(ExperimentId::AttackSurface).run(&config);
        let result = artifact.data.as_attack_surface().expect("surface artifact");
        assert_eq!(result.wans_us.len(), 4);
        assert_eq!(result.wans_us, {
            let mut sorted = result.wans_us.clone();
            sorted.sort_unstable();
            sorted
        });
        for vector in &result.vectors {
            assert_eq!(
                vector.race_wins.len(),
                result.delays_us.len() * result.wans_us.len()
            );
            assert_eq!(vector.success_vs_wan.len(), 4);
            for pair in vector.success_vs_wan.windows(2) {
                assert!(
                    pair[1].successes >= pair[0].successes,
                    "{}: success must not drop as the genuine server moves further away",
                    vector.vector
                );
            }
            // Delay monotonicity survives aggregation over the WAN axis.
            for pair in vector.success_vs_delay.windows(2) {
                assert!(pair[1].successes <= pair[0].successes);
            }
        }
        // A slow master that loses against a nearby server wins against a
        // distant one: the WAN curve actually moves.
        let hsts = &result.vectors[0];
        assert!(
            hsts.success_vs_wan.last().unwrap().successes
                > hsts.success_vs_wan.first().unwrap().successes,
            "the swept WAN range must span a race crossover"
        );

        // Deterministic across scheduling hints, like every other axis.
        let parallel = Registry::get(ExperimentId::AttackSurface)
            .run(&RunConfig { fleet_jobs: 4, ..config });
        assert_eq!(artifact.data, parallel.data);
        assert_eq!(
            artifact.data.to_json().to_string(),
            parallel.data.to_json().to_string()
        );
    }

    #[test]
    fn wilson_interval_matches_reference_values() {
        // Reference: Wilson (1927) at z = 1.96 for 8/10.
        let (lo, hi) = wilson95(8, 10);
        assert!((lo - 0.4901).abs() < 1e-3, "lo = {lo}");
        assert!((hi - 0.9433).abs() < 1e-3, "hi = {hi}");
        // Degenerate cases stay in [0, 1].
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson95(10, 10);
        assert!(lo > 0.6 && hi > 1.0 - 1e-12);
    }
}
