//! The day-1 mirror of the multi-day campaign.
//!
//! The campaign's per-AP simulation (`simulate_ap_with`) and its race world
//! (`build_race_world`) are private to `parasite`, so the traced run rebuilds
//! day 1 of a uniform, jitter-free campaign from public calls only — the
//! master's packet tap, the simulator, `FixedResponder`, `Request::to_wire`,
//! `Response::from_wire` and `Parasite::detect` — in the same order and with
//! the same seeds. Every call is timed in one of four phases:
//!
//! * `campaign.world_build_s`: media, genuine server, responder and tap;
//! * `campaign.client_setup_s`: request encoding, then host/connect/send;
//! * `netsim.event_loop_s`: `run_until_idle`;
//! * `campaign.classify_s`: `received` + response decoding, then parasite
//!   detection.
//!
//! Dropping each AP's simulator is timed apart, as `campaign.teardown_s`.
//!
//! Request encoding and response decoding run as batches (all of an AP's
//! clients at once) so their per-client cost is timed without a clock read
//! per client; encoding and decoding are pure, so batching them leaves the
//! simulation unchanged. The mirror's event total must equal the campaign
//! artifact's day-1 `events`.

use crate::trace::Tracer;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::url::Url;
use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::endpoint::{ConnId, HostId};
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, Simulator};
use mp_netsim::time::Duration as SimDuration;
use mp_webgen::{ChurningObject, StabilityClass};
use parasite::experiments::{RunConfig, MASTER_HOST, SEED_TAG_REGISTRY};
use parasite::{Master, Parasite};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the mirror produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorResult {
    /// Clients raced on day 1 (every seat: all start clean).
    pub clients: usize,
    /// Simulator events over all APs.
    pub events: u64,
    /// Clients whose delivered response carried the parasite.
    pub infected: usize,
}

/// The paper's Figure 2 timing (the campaign's uniform profile).
const REACTION_US: u64 = 300;
const WIFI_US: u64 = 2_000;
const WAN_US: u64 = 40_000;
const SERVER_DELAY_US: u64 = 500;

/// SplitMix64 finaliser: the campaign's seed-stream derivation.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn tag(name: &str) -> u64 {
    SEED_TAG_REGISTRY
        .iter()
        .find(|(tag, _)| *tag == name)
        .map(|(_, value)| *value)
        .expect("the seed-tag registry names every campaign stream")
}

/// Whether day 1 of the campaign renames its target object (every race then
/// misses, which changes the day's events).
pub fn day1_rotates(config: &RunConfig) -> bool {
    let day_seed = mix_seed(config.seed, tag("DAY_TAG") ^ 1);
    let mut target = ChurningObject::new(
        "/my.js",
        StabilityClass::SlowChurn,
        mix_seed(config.seed, tag("TARGET_TAG")),
    );
    let before = target.renames;
    target.advance_day(&mut StdRng::seed_from_u64(day_seed));
    target.renames != before
}

/// Runs day 1 of the campaign described by `config` (uniform profile, every
/// visit certain), recording phase spans into `tracer`.
pub fn day1(config: &RunConfig, tracer: &mut Tracer) -> Result<MirrorResult, String> {
    if config.fleet_hetero || config.fleet_visit_prob < 1.0 {
        return Err("the day-1 mirror covers uniform campaigns with certain visits".to_string());
    }
    tracer.span("campaign.mirror_s", |tracer| {
        let day_seed = mix_seed(config.seed, tag("DAY_TAG") ^ 1);
        let rotated = day1_rotates(config);
        let aps = config.fleet_aps.max(1);
        let mut result = MirrorResult {
            clients: config.fleet_clients,
            events: 0,
            infected: 0,
        };
        let mut first_seat = 0usize;
        for ap in 0..aps {
            let clients = config.fleet_clients / aps + usize::from(ap < config.fleet_clients % aps);
            let outcome = simulate_ap(
                config,
                mix_seed(day_seed, ap as u64),
                first_seat,
                clients,
                rotated,
                tracer,
            )?;
            result.events += outcome.0;
            result.infected += outcome.1;
            first_seat += clients;
        }
        Ok(result)
    })
}

/// One AP's day-1 race; returns (events, infected).
fn simulate_ap(
    config: &RunConfig,
    seed: u64,
    first_seat: usize,
    clients: usize,
    rotated: bool,
    tracer: &mut Tracer,
) -> Result<(u64, usize), String> {
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let other = Url::parse("http://somesite.com/weather.js").expect("static url");

    let (mut sim, wifi, server) = tracer.span("campaign.world_build_s", |_| {
        let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
            .with_cache_control("public, max-age=86400");
        let (tap, _stats) = Master::new(MASTER_HOST).packet_tap(
            &[(target.clone(), genuine.clone())],
            SimDuration::from_micros(REACTION_US),
        );
        let mut sim = Simulator::new(seed)
            .with_event_budget(config.event_budget)
            .with_trace_mode(TraceMode::SummaryOnly);
        let wifi = sim.add_medium(MediumKind::SharedWireless, WIFI_US);
        let wan = sim.add_medium(MediumKind::WideArea, WAN_US);
        let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
        sim.listen(server, 80);
        sim.set_service(
            server,
            Box::new(FixedResponder::new(
                genuine.to_wire(),
                SimDuration::from_micros(SERVER_DELAY_US),
            )),
        );
        sim.add_tap(wifi, Box::new(tap));
        if config.jitter_us > 0 {
            sim.set_medium_jitter(wifi, SimDuration::from_micros(config.jitter_us));
        }
        (sim, wifi, server)
    });

    let connections: Vec<(HostId, ConnId)> = tracer.span("campaign.client_setup_s", |tracer| {
        let wires: Vec<Vec<u8>> = tracer.span("httpsim.request_encode", |_| {
            (0..clients)
                .map(|local| {
                    let unprepared = rotated || (first_seat + local) % 8 == 7;
                    let url = if unprepared { &other } else { &target };
                    Request::get(url.clone()).to_wire()
                })
                .collect()
        });
        tracer.span("netsim.connect_send", |_| {
            let mut connections = Vec::with_capacity(clients);
            for (index, wire) in wires.iter().enumerate() {
                let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
                let client = sim.add_host("client", ip, wifi);
                let conn = sim.connect(client, server, 80).map_err(|e| e.to_string())?;
                sim.send(client, conn, wire).map_err(|e| e.to_string())?;
                connections.push((client, conn));
            }
            Ok::<_, String>(connections)
        })
    })?;

    tracer
        .span("netsim.event_loop_s", |_| sim.run_until_idle())
        .map_err(|e| e.to_string())?;

    let infected = tracer.span("campaign.classify_s", |tracer| {
        let responses: Vec<Option<Response>> = tracer.span("httpsim.response_decode", |_| {
            connections
                .iter()
                .map(|&(client, conn)| Response::from_wire(&sim.received(client, conn)).ok())
                .collect()
        });
        tracer.span("script.detect", |_| {
            responses
                .iter()
                .filter(|response| {
                    response
                        .as_ref()
                        .is_some_and(|r| Parasite::detect(&r.body.as_text()).is_some())
                })
                .count()
        })
    });
    let events = sim.events_processed();
    tracer.span("campaign.teardown_s", |_| drop(sim));
    Ok((events, infected))
}
