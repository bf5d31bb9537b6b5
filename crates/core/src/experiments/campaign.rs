//! The population-scale campaign experiment: a fleet of café access points.
//!
//! The paper demonstrates the attack against one victim in one café; its
//! measurements (Figures 3–5) presume the attacker operating a *campaign*
//! over many victims. This experiment scales the Figure 2 packet-level race
//! world to a fleet of café APs — `RunConfig::fleet_clients` simulated clients
//! spread over `RunConfig::fleet_aps` independent shared-WiFi simulations,
//! each with its own master tap racing the genuine server — and aggregates
//! infection outcomes and trace summaries across the fleet.
//!
//! The campaign runs day by day through the shard day loop (the `multiday`
//! and `distrib` modules); a one-day campaign is day 1 of that churn model.
//! Every AP races its clients through `race_clients` (the `tables` module),
//! the one multi-client race runner, whose simulator keeps only a
//! `SummaryOnly` trace, so a 100k-client sweep retains **no per-packet
//! memory**: only the bounded summary counters and one win flag per client
//! survive each AP. APs run in parallel on scoped worker threads, and an AP
//! that exhausts its event budget is isolated (counted in `failed_aps`)
//! instead of aborting the sweep. This module holds what every day shares:
//! the per-AP heterogeneity profiles, the client-to-AP plan, the per-AP race
//! task, the seed-stream derivation and the result type.

use super::records::DayStats;
use super::tables::{RaceTask, RaceTiming};
use super::{ExperimentError, RunConfig};
use crate::json::{Json, ToJson};
use mp_netsim::capture::TraceMode;
use mp_netsim::dist::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One AP addresses its clients out of `10.x.y.2`, so a single simulation
/// holds at most a /16 of them.
pub(super) const MAX_CLIENTS_PER_AP: usize = 65_536;

/// Seed-stream tag for per-AP heterogeneity profiles: profiles are drawn from
/// `mix_seed(campaign_seed, PROFILE_TAG ^ ap_index)`, a stream disjoint from
/// the per-day AP simulation seeds, so heterogeneity never perturbs the race
/// RNG itself.
pub(super) const PROFILE_TAG: u64 = 0x00f1_7e00_ab5e_ed00;

// ---------------------------------------------------------------------------
// Per-AP heterogeneity
// ---------------------------------------------------------------------------

/// Per-AP heterogeneity: link and attacker timing plus a client-population
/// weight, drawn from seeded [`Dist`] distributions when
/// [`RunConfig::fleet_hetero`] is set. Real café APs are not identical —
/// latency, jitter, how fast the resident master reacts and how many clients
/// sit behind each AP all vary; the profile captures one AP's draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApProfile {
    /// Master-tap reaction delay in microseconds.
    pub attacker_reaction_us: u64,
    /// One-way shared-WiFi latency in microseconds.
    pub wifi_latency_us: u64,
    /// One-way WAN latency to the genuine server in microseconds.
    pub wan_latency_us: u64,
    /// Extra per-packet WiFi jitter bound in microseconds (added on top of
    /// `RunConfig::jitter_us`).
    pub jitter_us: u64,
    /// Relative client-population weight: clients are distributed over the
    /// fleet's APs proportionally to this weight (largest-remainder rounding).
    pub client_weight: u64,
}

impl ApProfile {
    /// The distributions one AP's parameters are drawn from: "most APs are
    /// ordinary, a few are slow", centred on the paper's Figure 2 timing.
    /// The reaction and WAN supports deliberately overlap — the master's
    /// spoofed response beats the genuine one iff `reaction < 2·wan + 500 µs`
    /// (the WiFi hop cancels out), so a slow master behind a fast-WAN café
    /// *loses* the race and that AP's clients stay clean. Heterogeneity
    /// changes outcomes, not just timestamps.
    const REACTION: Dist = Dist::Triangular { lo: 150, mode: 300, hi: 15_000 };
    const WIFI: Dist = Dist::Triangular { lo: 800, mode: 2_000, hi: 8_000 };
    const WAN: Dist = Dist::Triangular { lo: 5_000, mode: 40_000, hi: 120_000 };
    const JITTER: Dist = Dist::Uniform { lo: 0, hi: 400 };
    const WEIGHT: Dist = Dist::Uniform { lo: 1, hi: 4 };

    /// Draws one AP's profile from its seed (deterministic per seed).
    pub fn draw(seed: u64) -> ApProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        ApProfile {
            attacker_reaction_us: Self::REACTION.sample(&mut rng),
            wifi_latency_us: Self::WIFI.sample(&mut rng),
            wan_latency_us: Self::WAN.sample(&mut rng),
            jitter_us: Self::JITTER.sample(&mut rng),
            client_weight: Self::WEIGHT.sample(&mut rng),
        }
    }

    /// The profile of AP `ap_index` under `campaign_seed` (the stable,
    /// day-independent heterogeneity stream).
    pub fn for_ap(campaign_seed: u64, ap_index: usize) -> ApProfile {
        ApProfile::draw(mix_seed(campaign_seed, PROFILE_TAG ^ ap_index as u64))
    }

    /// The race-world timing this profile induces.
    pub(super) fn timing(&self) -> RaceTiming {
        RaceTiming {
            attacker_reaction_us: self.attacker_reaction_us,
            wifi_latency_us: self.wifi_latency_us,
            server_one_way_us: self.wan_latency_us,
        }
    }
}

impl ToJson for ApProfile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("attacker_reaction_us", self.attacker_reaction_us.to_json()),
            ("wifi_latency_us", self.wifi_latency_us.to_json()),
            ("wan_latency_us", self.wan_latency_us.to_json()),
            ("jitter_us", self.jitter_us.to_json()),
            ("client_weight", self.client_weight.to_json()),
        ])
    }
}

/// Distributes `total` clients over APs proportionally to `weights` using
/// largest-remainder rounding (deterministic; counts sum to exactly `total`).
pub(super) fn distribute_by_weight(total: usize, weights: &[u64]) -> Vec<usize> {
    let total_weight: u128 = weights.iter().map(|&w| w.max(1) as u128).sum();
    if total_weight == 0 || weights.is_empty() {
        return vec![0; weights.len()];
    }
    let mut counts: Vec<usize> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (index, &weight) in weights.iter().enumerate() {
        let product = total as u128 * weight.max(1) as u128;
        counts.push((product / total_weight) as usize);
        remainders.push((product % total_weight, index));
        assigned += *counts.last().expect("just pushed");
    }
    // Hand the leftover slots to the largest remainders (ties: lowest index).
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, index) in remainders.iter().take(total - assigned) {
        counts[index] += 1;
    }
    counts
}

/// Result of the campaign fleet experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignFleetResult {
    /// Access points simulated.
    pub aps: usize,
    /// Total simulated clients across the fleet.
    pub clients: usize,
    /// Clients that ended up executing the parasite.
    pub infected_clients: usize,
    /// Clients that kept the genuine object (they requested an object the
    /// master had not prepared, lost the race, or were never raced).
    pub clean_clients: usize,
    /// AP simulations that failed (event budget exhausted), summed over the
    /// days; the seats a failed AP raced stay clean.
    pub failed_aps: usize,
    /// Simulator events processed across the whole fleet.
    pub total_events: u64,
    /// Application payload bytes that crossed the fleet's networks.
    pub payload_bytes: u64,
    /// Spoofed transmissions injected by the masters.
    pub injected_events: u64,
    /// Pre-handshake send buffers evicted fleet-wide (failed connections).
    pub pending_bytes_dropped: u64,
    /// Day-by-day statistics, one entry per [`RunConfig::fleet_days`].
    pub day_stats: Vec<DayStats>,
}

impl CampaignFleetResult {
    /// Fraction of simulated clients that ended up infected.
    pub fn infection_rate(&self) -> f64 {
        if self.clients == 0 {
            0.0
        } else {
            self.infected_clients as f64 / self.clients as f64
        }
    }

    /// Renders the campaign summary and the Figure 3-style day table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Campaign - population-scale cafe-AP fleet sweep\n\
             access points:            {:>10}\n\
             simulated clients:        {:>10}\n\
             infected clients:         {:>10}  ({:.1} %)\n\
             clean clients:            {:>10}\n\
             failed APs:               {:>10}\n\
             simulator events:         {:>10}\n\
             payload bytes:            {:>10}\n\
             injected responses:       {:>10}\n\
             pending bytes dropped:    {:>10}\n",
            self.aps,
            self.clients,
            self.infected_clients,
            self.infection_rate() * 100.0,
            self.clean_clients,
            self.failed_aps,
            self.total_events,
            self.payload_bytes,
            self.injected_events,
            self.pending_bytes_dropped,
        );
        out.push_str("\nday-by-day churn dynamics (Figure 3 model)\n");
        out.push_str(
            "day | arrivals | cleared | rotated | exposed | newly infected | infected | rate %\n",
        );
        for day in &self.day_stats {
            out.push_str(&format!(
                "{:>3} | {:>8} | {:>7} | {:>7} | {:>7} | {:>14} | {:>8} | {:>6.1}\n",
                day.day,
                day.arrivals,
                day.cache_clears + day.rotation_cured,
                if day.object_rotated { "yes" } else { "no" },
                day.exposed,
                day.newly_infected,
                day.infected,
                if self.clients == 0 {
                    0.0
                } else {
                    day.infected as f64 / self.clients as f64 * 100.0
                },
            ));
        }
        out
    }
}

impl ToJson for CampaignFleetResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("aps", self.aps.to_json()),
            ("clients", self.clients.to_json()),
            ("infected_clients", self.infected_clients.to_json()),
            ("clean_clients", self.clean_clients.to_json()),
            ("failed_aps", self.failed_aps.to_json()),
            ("infection_rate", self.infection_rate().to_json()),
            ("total_events", self.total_events.to_json()),
            ("payload_bytes", self.payload_bytes.to_json()),
            ("injected_events", self.injected_events.to_json()),
            ("pending_bytes_dropped", self.pending_bytes_dropped.to_json()),
            ("days", self.day_stats.to_json()),
        ])
    }
}

/// SplitMix64 finaliser, used to derive well-mixed per-AP, per-seat and
/// per-day seed streams from `(campaign_seed, stream ^ index)`.
pub(super) fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e3779b97f4a7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Every eighth seat (by global seat index) asks for an object the master
/// has *not* prepared, so the fleet exercises both the winning race and the
/// passthrough path; a seat keeps this browsing habit across churn.
pub(super) fn requests_unprepared_object(client_index: usize) -> bool {
    client_index % 8 == 7
}

/// Divides `total` into `parts` nearly equal slices (earlier slices take the
/// remainder). The shard planner (`distrib`) splits AP ranges with it.
pub(super) fn share(total: usize, parts: usize, index: usize) -> usize {
    total / parts + usize::from(index < total % parts)
}

/// The fleet's per-AP client counts: uniform, or weight-distributed when
/// heterogeneity is on (the weights are drawn from the campaign seed, so an
/// AP keeps its share across days). Fails when one AP would seat more than
/// [`MAX_CLIENTS_PER_AP`].
pub(super) fn ap_client_counts(config: &RunConfig) -> Result<Vec<usize>, ExperimentError> {
    let aps = config.fleet_aps.max(1);
    let total_clients = config.fleet_clients;
    let counts: Vec<usize> = if config.fleet_hetero {
        let weights: Vec<u64> =
            (0..aps).map(|ap| ApProfile::for_ap(config.seed, ap).client_weight).collect();
        distribute_by_weight(total_clients, &weights)
    } else {
        (0..aps).map(|ap| share(total_clients, aps, ap)).collect()
    };
    let largest_ap = counts.iter().copied().max().unwrap_or(0);
    if largest_ap > MAX_CLIENTS_PER_AP {
        return Err(ExperimentError::Config(format!(
            "{total_clients} clients over {aps} APs puts {largest_ap} on one AP; \
             one AP holds at most {MAX_CLIENTS_PER_AP} — raise fleet_aps"
        )));
    }
    Ok(counts)
}

/// AP `ap`'s race of `clients` clients under the simulation seed `seed`:
/// the paper's Figure 2 timing, or under `fleet_hetero` the AP's profile
/// (always drawn from the campaign seed, so an AP keeps its character
/// across days) with its extra jitter on top of `RunConfig::jitter_us`.
pub(super) fn ap_task(config: &RunConfig, ap: usize, seed: u64, clients: usize) -> RaceTask {
    let profile = config.fleet_hetero.then(|| ApProfile::for_ap(config.seed, ap));
    RaceTask {
        seed,
        timing: profile.map_or(RaceTiming::PAPER, |p| p.timing()),
        jitter_us: config.jitter_us + profile.map_or(0, |p| p.jitter_us),
        clients,
        trace: TraceMode::SummaryOnly,
    }
}

/// Resolves the worker-thread count for a fleet sweep of `tasks` tasks.
pub(super) fn fleet_jobs(config: &RunConfig, tasks: usize) -> usize {
    if config.fleet_jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        config.fleet_jobs
    }
    .min(tasks.max(1))
}

#[cfg(test)]
mod tests {
    use super::super::tables::race_clients;
    use super::super::{ExperimentId, Registry};
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shard_seed_streams_cannot_collide_with_each_other_or_with_ap_seeds() {
        // The splitmix-derived streams must be pairwise disjoint for any
        // realistic campaign. The stream families are swept from
        // SEED_TAG_REGISTRY — the same source of truth the mp-lint seed-tag
        // rule extracts statically — so a tag added anywhere in the
        // workspace is collision-checked here without editing this test.
        // The old additive offsets collided as soon as offsets overlapped;
        // hashed streams do not.
        use super::super::distrib::SEAT_TAG;
        use super::super::multiday::DAY_TAG;
        use super::super::surface::{cell_tag, ADOPT_TAG, SURFACE_TAG};
        use super::super::SEED_TAG_REGISTRY;
        let mut seen = HashSet::new();
        let mut expected = 0usize;
        for campaign_seed in [0u64, 1, 2021, u64::MAX] {
            // First generation: the untagged per-AP stream plus every
            // registered tag stream, over a realistic index range.
            for index in 0..512u64 {
                seen.insert(mix_seed(campaign_seed, index));
                expected += 1;
                for (_name, tag) in SEED_TAG_REGISTRY {
                    seen.insert(mix_seed(campaign_seed, tag ^ index));
                    expected += 1;
                }
            }
            // The per-day streams derive a second generation of seeds: each
            // day's seed (covered by the DAY_TAG sweep above) feeds
            // per-(day, AP) seat streams (SEAT_TAG) and per-(day, AP)
            // simulation seeds (untagged). All of them must stay disjoint
            // from each other and from the first generation.
            for day in 1..=8u64 {
                let day_seed = mix_seed(campaign_seed, DAY_TAG ^ day);
                for ap in 0..64u64 {
                    seen.insert(mix_seed(day_seed, SEAT_TAG ^ ap));
                    seen.insert(mix_seed(day_seed, ap));
                    expected += 2;
                }
            }
            // Surface grid cells use packed (vector, delay, wan, jitter)
            // coordinates; sweep a grid larger than any realistic run.
            // Cells whose packed tag is below 512 are already covered by
            // the registry index sweep.
            for vector in 0..4usize {
                for delay in 0..16usize {
                    for wan in 0..4usize {
                        for jitter in 0..2usize {
                            let tag = cell_tag(vector, delay, wan, jitter);
                            if tag < 512 {
                                continue;
                            }
                            seen.insert(mix_seed(campaign_seed, SURFACE_TAG ^ tag));
                            seen.insert(mix_seed(campaign_seed, ADOPT_TAG ^ tag));
                            expected += 2;
                        }
                    }
                }
            }
        }
        assert_eq!(seen.len(), expected, "all derived seeds pairwise distinct");
    }

    #[test]
    fn heterogeneous_fleet_is_byte_identical_across_shard_counts() {
        // Profiles, weights and seat streams are pinned to global AP
        // indices, so a jittered heterogeneous one-day fleet split into AP
        // ranges merges back into the unsharded artifact, whatever the
        // split. Jitter flips individual races, so a seed that depended on
        // the split would show in the counts.
        use super::super::distrib::{run_campaign_shard, ShardPlan};
        use super::super::RunCtx;
        let config = RunConfig {
            seed: 11,
            fleet_clients: 1_024,
            fleet_aps: 8,
            fleet_hetero: true,
            jitter_us: 100_000,
            fleet_jobs: 1,
            ..RunConfig::default()
        };
        let unsharded = Registry::get(ExperimentId::CampaignFleet).run(&config);
        let unsharded = unsharded.data.as_campaign_fleet().expect("campaign artifact");
        for workers in [2usize, 4, 8] {
            let merged = ShardPlan::split(&config, workers)
                .into_iter()
                .map(|plan| run_campaign_shard(&config, plan, &RunCtx::default()).expect("shard runs"))
                .reduce(|a, b| a.merge(b).expect("disjoint shards merge"))
                .expect("at least one shard")
                .into_fleet_result(&config)
                .expect("full coverage converts");
            assert_eq!(merged.to_json().to_string(), unsharded.to_json().to_string(), "{workers} shards");
        }
    }

    #[test]
    fn distribute_by_weight_conserves_and_follows_weights() {
        let counts = distribute_by_weight(1_000, &[1, 1, 1, 1]);
        assert_eq!(counts, vec![250, 250, 250, 250]);
        let counts = distribute_by_weight(1_000, &[1, 3]);
        assert_eq!(counts.iter().sum::<usize>(), 1_000);
        assert_eq!(counts, vec![250, 750]);
        // Remainders land deterministically (largest remainder, then index).
        let counts = distribute_by_weight(10, &[1, 1, 1]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts, vec![4, 3, 3]);
        // Zero weights are clamped to one instead of dividing by zero.
        let counts = distribute_by_weight(9, &[0, 0, 0]);
        assert_eq!(counts.iter().sum::<usize>(), 9);
    }

    #[test]
    fn ap_profiles_are_deterministic_and_heterogeneous() {
        let first = ApProfile::for_ap(2021, 3);
        assert_eq!(first, ApProfile::for_ap(2021, 3));
        // Across a fleet, the draws actually vary.
        let profiles: Vec<ApProfile> = (0..32).map(|ap| ApProfile::for_ap(2021, ap)).collect();
        let wifi: HashSet<u64> = profiles.iter().map(|p| p.wifi_latency_us).collect();
        assert!(wifi.len() > 8, "32 APs should draw many distinct WiFi latencies");
        for profile in &profiles {
            assert!((800..=8_000).contains(&profile.wifi_latency_us));
            assert!((5_000..=120_000).contains(&profile.wan_latency_us));
            assert!((150..=15_000).contains(&profile.attacker_reaction_us));
            assert!((1..=4).contains(&profile.client_weight));
        }
    }

    /// The per-client wins of [`race_clients`], recomputed on the full HTTP
    /// path: a freshly encoded request per client, a copied delivered
    /// stream, `Response::from_wire` and `Parasite::detect` on the body text.
    fn oracle_flags(task: &RaceTask, unprepared: &dyn Fn(usize) -> bool) -> Vec<bool> {
        use super::super::tables::{build_race_world, RaceWorld};
        use crate::script::Parasite;
        use mp_httpsim::{message::{Request, Response}, url::Url};
        use mp_netsim::addr::IpAddr;
        let budget = RunConfig::default().event_budget;
        let RaceWorld { mut sim, wifi, server, .. } = build_race_world(task, budget, None);
        let target = Url::parse("http://somesite.com/my.js").unwrap();
        let other = Url::parse("http://somesite.com/weather.js").unwrap();
        let connections: Vec<_> = (0..task.clients)
            .map(|index| {
                let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
                let client = sim.add_host("client", ip, wifi);
                let conn = sim.connect(client, server, 80).unwrap();
                let url = if unprepared(index) { &other } else { &target };
                sim.send(client, conn, &Request::get(url.clone()).to_wire()).unwrap();
                (client, conn)
            })
            .collect();
        sim.run_until_idle().unwrap();
        connections
            .into_iter()
            .map(|(client, conn)| {
                Response::from_wire(&sim.received(client, conn))
                    .ok()
                    .map(|r| Parasite::detect(&r.body.as_text()).is_some())
                    .unwrap_or(false)
            })
            .collect()
    }

    /// A master that needs 30 ms to forge a response, behind a café whose
    /// genuine server answers over a 5 ms WAN.
    const SLOW_MASTER: RaceTiming = RaceTiming {
        attacker_reaction_us: 30_000,
        wifi_latency_us: 2_000,
        server_one_way_us: 5_000,
    };

    #[test]
    fn per_seat_flags_match_the_full_http_oracle() {
        let rotated = |_: usize| true;
        let mut outcomes = HashSet::new();
        for seed in [1u64, 42, 2021] {
            for jitter_us in [0u64, 250] {
                let uniform = RunConfig { seed, jitter_us, ..RunConfig::default() };
                let hetero = RunConfig { fleet_hetero: true, ..uniform };
                let tasks = [
                    ap_task(&uniform, 0, seed, 48),
                    ap_task(&hetero, 0, seed, 48),
                    ap_task(&hetero, 5, seed, 48),
                    RaceTask { seed, timing: SLOW_MASTER, jitter_us, clients: 48, trace: TraceMode::SummaryOnly },
                ];
                let profile = ApProfile::for_ap(seed, 5);
                let (timing, jitter) = (profile.timing(), jitter_us + profile.jitter_us);
                assert_eq!((tasks[2].timing, tasks[2].jitter_us), (timing, jitter));
                for task in tasks {
                    let days: [&dyn Fn(usize) -> bool; 2] =
                        [&requests_unprepared_object, &rotated];
                    for unprepared in days {
                        let outcome = race_clients(&task, uniform.event_budget, None, unprepared)
                            .expect("simulation completes");
                        let oracle = oracle_flags(&task, unprepared);
                        assert_eq!(outcome.wins, oracle, "seed {seed}, task {task:?}");
                        outcomes.extend(oracle);
                    }
                }
            }
        }
        assert_eq!(outcomes.len(), 2, "the cases cover both infected and clean seats");
    }

    #[test]
    fn a_slow_master_behind_a_fast_wan_loses_the_race() {
        // The heterogeneity point: outcomes change, not just timestamps. A
        // master that needs 30 ms to forge a response while the genuine
        // server answers over a 5 ms WAN never wins the injection race.
        let budget = RunConfig::default().event_budget;
        let slow = RaceTask { timing: SLOW_MASTER, clients: 16, ..RaceTask::paper(42, TraceMode::SummaryOnly) };
        let outcome = race_clients(&slow, budget, None, &requests_unprepared_object)
            .expect("simulation completes");
        assert_eq!(outcome.wins, vec![false; 16], "the genuine response always arrives first");

        // The paper's timing, for contrast, wins for every prepared request.
        let paper = RaceTask { timing: RaceTiming::PAPER, ..slow };
        let outcome = race_clients(&paper, budget, None, &requests_unprepared_object)
            .expect("simulation completes");
        let expected: Vec<bool> = (0..16).map(|index| !requests_unprepared_object(index)).collect();
        assert_eq!(outcome.wins, expected, "every prepared request is infected");
    }
}
