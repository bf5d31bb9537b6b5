//! Heap-allocation budget of the injection race world.
//!
//! A counting global allocator measures three things: a small multi-day
//! churn campaign run through the experiment registry must cost at most two
//! heap allocations per exposure (one victim joining one AP's race world on
//! one day); `run_until_idle` on a built race world must allocate a bounded
//! number of times however many events it processes, i.e. only for amortised
//! growth of the simulator's own buffers, never per event; and a world sized
//! for its clients before they join, as `race_clients` sizes it, must
//! allocate less in `run_until_idle` than one that grows as they arrive.
//!
//! The file holds a single test so no other test's allocations are counted.

use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::message::{Request, Response};
use mp_httpsim::url::Url;
use mp_netsim::addr::IpAddr;
use mp_netsim::capture::TraceMode;
use mp_netsim::link::MediumKind;
use mp_netsim::sim::{FixedResponder, Simulator};
use mp_netsim::time::Duration;
use parasite::experiments::{ExperimentId, Registry, RunConfig};
use parasite::master::Master;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Builds the paper's race world (master tap on the shared WiFi, genuine
/// server across the WAN) with `clients` victims attached and their
/// requests sent, runs it, and returns (events, allocations of the run).
/// With `reserve`, the world is sized for its clients first: the host slab,
/// the address index and the server's connection slab and demux table.
fn race_world_run(clients: usize, reserve: bool) -> (u64, u64) {
    let target = Url::parse("http://somesite.com/my.js").expect("static url");
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "function genuine(){}"))
        .with_cache_control("public, max-age=86400");
    let (tap, _stats) = Master::new("master.attacker.example").packet_tap(
        &[(target.clone(), genuine.clone())],
        Duration::from_micros(300),
    );
    let mut sim = Simulator::new(7).with_trace_mode(TraceMode::SummaryOnly);
    let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
    let wan = sim.add_medium(MediumKind::WideArea, 40_000);
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    sim.set_service(
        server,
        Box::new(FixedResponder::new(
            genuine.to_wire(),
            Duration::from_micros(500),
        )),
    );
    sim.add_tap(wifi, Box::new(tap));
    if reserve {
        sim.reserve_hosts(clients);
        sim.host_mut(server).reserve_connections(clients);
    }
    let request = Request::get(target).to_wire();
    for index in 0..clients {
        let ip = IpAddr::new(10, (index >> 8) as u8, (index & 0xff) as u8, 2);
        let client = sim.add_host("client", ip, wifi);
        let conn = sim.connect(client, server, 80).expect("hosts exist");
        sim.send(client, conn, &request).expect("connection exists");
    }
    let ((), allocations) = counting(|| sim.run_until_idle().expect("within the event budget"));
    (sim.events_processed(), allocations)
}

#[test]
fn the_race_world_allocates_per_client_not_per_event() {
    let config = RunConfig {
        fleet_clients: 4_000,
        fleet_aps: 4,
        fleet_days: 3,
        fleet_churn: 0.2,
        fleet_jobs: 1,
        ..RunConfig::default()
    };
    let (artifact, allocations) = counting(|| {
        Registry::get(ExperimentId::CampaignFleet)
            .try_run(&config)
            .expect("the campaign runs")
    });
    let result = artifact
        .data
        .as_campaign_fleet()
        .expect("a campaign artifact");
    let exposures: usize = result.day_stats.iter().map(|day| day.exposed).sum();
    assert_eq!(result.day_stats.len(), 3);
    eprintln!("campaign: {allocations} allocations for {exposures} exposures");
    assert!(
        allocations <= 2 * exposures as u64,
        "{allocations} allocations for {exposures} exposures: more than two per exposure"
    );

    let (small_events, small_allocations) = race_world_run(500, false);
    let (large_events, large_allocations) = race_world_run(4_000, false);
    eprintln!(
        "run_until_idle: {small_allocations} allocations for {small_events} events, \
         {large_allocations} for {large_events}"
    );
    assert!(
        large_events >= 7 * small_events,
        "{small_events} -> {large_events} events"
    );
    assert!(
        large_allocations <= small_allocations + 64,
        "run_until_idle allocated {small_allocations} times for {small_events} events \
         but {large_allocations} times for {large_events}: it allocates per event"
    );

    let (sized_small_events, sized_small_allocations) = race_world_run(500, true);
    let (sized_events, sized_allocations) = race_world_run(4_000, true);
    eprintln!(
        "run_until_idle, pre-sized: {sized_small_allocations} allocations for \
         {sized_small_events} events, {sized_allocations} for {sized_events}"
    );
    assert_eq!((sized_small_events, sized_events), (small_events, large_events));
    assert!(
        sized_allocations < large_allocations,
        "a world sized for its 4,000 clients allocated {sized_allocations} times in \
         run_until_idle, an unsized one {large_allocations} times"
    );
}
