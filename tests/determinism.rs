//! Determinism contract of the simulator and the batch engine.
//!
//! The data-structure refactors behind the hot path (slab hosts, calendar
//! event queue, the copy-free service path) are only acceptable if they
//! preserve the old-order contract: same seed, same configuration ⇒ the full
//! `Trace` render and the `TraceSummary` are byte-for-byte identical, run
//! after run — with and without medium jitter — and a `run_many` sweep
//! produces the same artifacts at `--jobs 1` as on a thread pool.

use master_parasite::httpsim::body::{Body, ResourceKind};
use master_parasite::httpsim::message::{Request, Response};
use master_parasite::httpsim::url::Url;
use master_parasite::netsim::addr::IpAddr;
use master_parasite::netsim::capture::{TraceMode, TraceSummary};
use master_parasite::netsim::error::NetError;
use master_parasite::netsim::link::MediumKind;
use master_parasite::netsim::sim::{FixedResponder, Simulator};
use master_parasite::netsim::time::Duration;
use parasite::experiments::{run_many, ExperimentId, RunConfig};
use parasite::json::ToJson;
use parasite::master::Master;

/// The representative scenario: a café access point (shared WiFi) with the
/// master's tap on it, the genuine server across the WAN, and a handful of
/// victims — most requesting the object the master races for, some an
/// unprepared one. Returns the wired-up simulator, ready to run.
fn cafe_world(seed: u64, jitter_us: u64, mode: TraceMode) -> Simulator {
    let mut sim = Simulator::new(seed).with_trace_mode(mode);
    let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
    let wan = sim.add_medium(MediumKind::WideArea, 40_000);
    if jitter_us > 0 {
        sim.set_medium_jitter(wifi, Duration::from_micros(jitter_us));
        sim.set_medium_jitter(wan, Duration::from_micros(jitter_us * 4));
    }
    let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
    sim.listen(server, 80);
    let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "genuine-script();"));
    sim.set_service(
        server,
        Box::new(FixedResponder::new(genuine.to_wire(), Duration::from_micros(500))),
    );
    let prepared = url("/my.js");
    let (tap, _stats) = Master::new("master.attacker.example")
        .packet_tap(&[(prepared, genuine)], Duration::from_micros(300));
    sim.add_tap(wifi, Box::new(tap));

    for index in 0..8u8 {
        let name = format!("victim{index}");
        let client = sim.add_host(&name, IpAddr::new(10, 0, 0, 10 + index), wifi);
        let conn = sim.connect(client, server, 80).expect("hosts exist");
        let path = if index % 3 == 0 { "/weather.js" } else { "/my.js" };
        sim.send(client, conn, &Request::get(url(path)).to_wire())
            .expect("connection exists");
    }
    sim
}

fn url(path: &str) -> Url {
    Url::parse(&format!("http://somesite.com{path}")).expect("static url")
}

/// Runs the café scenario to completion under a full trace and returns the
/// rendered trace plus the summary counters.
fn cafe_run(seed: u64, jitter_us: u64) -> (String, TraceSummary) {
    let mut sim = cafe_world(seed, jitter_us, TraceMode::Full);
    sim.run_until_idle().expect("scenario stays within the event budget");
    (sim.trace().render(), *sim.trace().summary())
}

#[test]
fn cafe_trace_is_byte_identical_across_runs_without_jitter() {
    let (first_render, first_summary) = cafe_run(2021, 0);
    let (second_render, second_summary) = cafe_run(2021, 0);
    assert_eq!(first_render, second_render);
    assert_eq!(first_summary, second_summary);
    // The scenario is the paper's: the tap wins races for the prepared object.
    assert!(first_render.contains("[ATTACK]"));
    assert!(first_summary.injected_events > 0);
    assert!(first_summary.payload_events > 0);
}

#[test]
fn cafe_trace_is_byte_identical_across_runs_with_jitter() {
    let (first_render, first_summary) = cafe_run(2021, 300);
    let (second_render, second_summary) = cafe_run(2021, 300);
    assert_eq!(first_render, second_render, "same seed + jitter must replay exactly");
    assert_eq!(first_summary, second_summary);
    // A different seed draws different jitter, so the timeline moves.
    let (other_render, _) = cafe_run(2022, 300);
    assert_ne!(first_render, other_render);
    // Jitter only shifts timings; the message complement is unchanged.
    let (calm_render, calm_summary) = cafe_run(2021, 0);
    assert_eq!(first_summary.total_events, calm_summary.total_events);
    assert_ne!(first_render, calm_render);
}

#[test]
fn run_many_parallel_matches_jobs_one_for_flows_and_fleet() {
    let ids = [ExperimentId::Fig2, ExperimentId::CampaignFleet];
    let configs = [
        RunConfig {
            fleet_clients: 800,
            fleet_aps: 8,
            fleet_jobs: 1,
            ..RunConfig::default()
        },
        RunConfig {
            fleet_clients: 800,
            fleet_aps: 8,
            jitter_us: 250,
            fleet_jobs: 1,
            ..RunConfig::default()
        },
    ];
    let sequential = run_many(&ids, &configs, 1);
    let parallel = run_many(&ids, &configs, 4);
    assert_eq!(sequential.len(), 4);
    assert_eq!(sequential, parallel);
    for (a, b) in sequential.iter().zip(&parallel) {
        // Byte-for-byte equal down to the rendered text and the JSON wire
        // form, not just structural equality.
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
    // The Figure 2 flow retains its exact timeline (full trace render).
    assert!(sequential[0].render_text().contains("[ATTACK]"));
}

#[test]
fn attack_surface_is_byte_identical_across_jobs_shards_and_batch_runners() {
    // The surface sweep's determinism contract, end to end: the same grid
    // produces byte-for-byte identical artifacts whether the cells run
    // sequentially, on a thread pool, or inside a parallel run_many batch.
    let base = RunConfig {
        surface_trials: 24,
        surface_delay_steps: 4,
        jitter_us: 300,
        fleet_jobs: 1,
        ..RunConfig::default()
    };
    let ids = [ExperimentId::AttackSurface];
    let sequential = run_many(&ids, &[base], 1);
    for variant in [
        RunConfig { fleet_jobs: 4, ..base },
        RunConfig { fleet_jobs: 0, ..base },
    ] {
        let parallel = run_many(&ids, &[variant], 4);
        assert_eq!(sequential[0].data, parallel[0].data);
        assert_eq!(sequential[0].render_text(), parallel[0].render_text());
        assert_eq!(
            sequential[0].data.to_json().to_string(),
            parallel[0].data.to_json().to_string()
        );
    }
    // The acceptance property holds on the emitted grid: success never rises
    // with reaction delay or defense adoption.
    let result = sequential[0].data.as_attack_surface().expect("surface artifact");
    for vector in &result.vectors {
        for pair in vector.success_vs_delay.windows(2) {
            assert!(pair[1].successes <= pair[0].successes);
        }
        for pair in vector.infection_vs_adoption.windows(2) {
            assert!(pair[1].successes <= pair[0].successes);
        }
    }
}

#[test]
fn trace_summary_is_byte_identical_across_recorder_modes() {
    // The TraceSummary describes the workload, not the recorder: the same
    // café run must produce bit-for-bit equal counters whether the trace
    // retains everything, a bounded ring (including events evicted from it),
    // or nothing at all. Only the recorder-metadata drop counter may differ.
    let run = |mode: TraceMode| {
        let mut sim = cafe_world(2021, 300, mode);
        sim.run_until_idle().expect("scenario stays within the event budget");
        (*sim.trace().summary(), sim.trace().recorder_dropped(), sim.trace().len())
    };
    let (full, full_dropped, full_len) = run(TraceMode::Full);
    assert_eq!(full_dropped, 0);
    for mode in [TraceMode::Ring(3), TraceMode::Ring(1024), TraceMode::SummaryOnly] {
        let (summary, dropped, retained) = run(mode);
        assert_eq!(summary, full, "summary drifted under {mode:?}");
        // retained = total - recorder_dropped holds on every path.
        assert_eq!(retained as u64 + dropped, summary.total_events);
    }
    assert_eq!(full_len as u64, full.total_events);
}

#[test]
fn budget_exhaustion_then_raise_resumes_byte_identically() {
    // The reference: the same café run with no budget pressure at all.
    let (reference_render, reference_summary) = cafe_run(2021, 300);

    // Starve the run: the typed error fires before the in-flight event is
    // popped, so raising the budget and calling step()/run_until_idle()
    // again continues exactly where the run stopped.
    let mut sim = cafe_world(2021, 300, TraceMode::Full);
    sim.set_event_budget(5);
    let err = sim.run_until_idle().expect_err("five events cannot finish the cafe");
    assert_eq!(err, NetError::EventBudgetExhausted { budget: 5 });
    assert_eq!(sim.events_processed(), 5);

    // Raise a little and single-step: still resumable, still typed.
    sim.set_event_budget(8);
    while sim.step().expect("within the raised budget") {
        if sim.events_processed() == 8 {
            break;
        }
    }
    assert_eq!(
        sim.run_until_idle().expect_err("eight events are still not enough"),
        NetError::EventBudgetExhausted { budget: 8 }
    );

    // Lift the cap entirely: the finished trace is byte-identical to the
    // never-budgeted run.
    sim.set_event_budget(u64::MAX);
    sim.run_until_idle().expect("uncapped run finishes");
    assert_eq!(sim.trace().render(), reference_render);
    assert_eq!(*sim.trace().summary(), reference_summary);
}
