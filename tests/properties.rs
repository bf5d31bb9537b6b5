//! Property-based tests over the reproduction's core invariants.

use mp_browser::cache::HttpCache;
use mp_browser::profile::BrowserProfile;
use mp_httpsim::body::{Body, ResourceKind};
use mp_httpsim::caching::CacheDirectives;
use mp_httpsim::message::Response;
use mp_httpsim::url::Url;
use bytes::Bytes;
use mp_netsim::addr::{IpAddr, SocketAddr};
use mp_netsim::packet::{Segment, TcpFlags};
use mp_netsim::seq::SeqNum;
use mp_netsim::tcp::{Reassembler, TcpConnection};
use parasite::cnc::{decode_dimensions, decode_upstream, encode_dimensions, encode_upstream};
use parasite::experiments::{ExperimentId, RunConfig};
use parasite::infect::Infector;
use parasite::json::{Json, ToJson};
use parasite::script::{Parasite, ParasiteModule};
use proptest::prelude::*;

proptest! {
    /// The C&C downstream image encoding is lossless for arbitrary payloads.
    #[test]
    fn cnc_downstream_encoding_round_trips(message in proptest::collection::vec(any::<u8>(), 0..512)) {
        let images = encode_dimensions(&message);
        let decoded = decode_dimensions(&images).expect("complete sequences always decode");
        prop_assert_eq!(decoded, message);
    }

    /// The C&C upstream URL encoding is lossless for arbitrary payloads.
    #[test]
    fn cnc_upstream_encoding_round_trips(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let url = encode_upstream("master.attacker.example", "campaign-0", &data);
        let (campaign, decoded) = decode_upstream(&url).expect("well-formed exfil url");
        prop_assert_eq!(campaign, "campaign-0");
        prop_assert_eq!(decoded, data);
    }

    /// Infecting a JavaScript object always preserves the original code as a
    /// prefix and always yields a detectable parasite.
    #[test]
    fn infection_preserves_original_and_is_detectable(original in "[ -~]{0,200}") {
        let infector = Infector::new(Parasite::standard("master.attacker.example"));
        let clean = Response::ok(Body::text(ResourceKind::JavaScript, original.clone()))
            .with_cache_control("max-age=60");
        let infected = infector.infect_response(&clean);
        let text = infected.body.as_text();
        prop_assert!(text.starts_with(&original));
        prop_assert!(Parasite::detect(&text).is_some());
        // Infection is idempotent in the detection sense: re-detecting the
        // campaign from a doubly-infected body still works.
        let twice = infector.infect_response(&infected);
        prop_assert!(infector.is_infected(&twice.body.as_text()));
    }

    /// Parasite payload serialisation round-trips arbitrary module subsets.
    #[test]
    fn parasite_modules_round_trip(mask in 0u16..(1 << 14)) {
        let all = [
            ParasiteModule::CommandControl, ParasiteModule::ReadBrowserData,
            ParasiteModule::ExtractProtectedData, ParasiteModule::ExtractLoginData,
            ParasiteModule::ReadDomData, ParasiteModule::Propagate,
            ParasiteModule::Phishing, ParasiteModule::StealComputation,
            ParasiteModule::ManipulateTransactions, ParasiteModule::FakeLogin,
            ParasiteModule::AdInjection, ParasiteModule::Ddos,
            ParasiteModule::InternalNetworkRecon, ParasiteModule::SideChannels,
        ];
        let modules: Vec<_> = all.iter().enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, m)| *m)
            .collect();
        let parasite = Parasite::with_modules("c2.example", modules.clone());
        let recovered = Parasite::detect(&parasite.payload_snippet()).expect("payload detectable");
        prop_assert_eq!(recovered.modules, modules);
    }

    /// First-segment-wins: whatever bytes are offered first for an offset are
    /// what the application sees, regardless of later writes.
    #[test]
    fn reassembler_first_write_wins(
        first in proptest::collection::vec(1u8..255, 1..64),
        second in proptest::collection::vec(1u8..255, 1..64),
    ) {
        let mut reassembler = Reassembler::new();
        reassembler.offer_bytes(0, &Bytes::from(first.clone()));
        reassembler.offer_bytes(0, &Bytes::from(second));
        prop_assert_eq!(&reassembler.assembled()[..first.len()], &first[..]);
    }

    /// The shared-stream reassembler agrees with a first-write-wins byte
    /// array on any sequence of `(offset, data)` writes: in order, out of
    /// order, partially overlapping, and extending a stream one segment
    /// built (the switch from a shared slice to an owned buffer). Driven through a TCP connection, `take_new_bytes` between
    /// writes returns exactly the bytes added since the previous read.
    #[test]
    fn reassembler_offer_bytes_matches_offer_and_a_byte_model(
        offsets in proptest::collection::vec(0u64..48, 1..12),
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..12),
        reads in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let client = SocketAddr::new(IpAddr::new(10, 0, 0, 2), 51000);
        let server_addr = SocketAddr::new(IpAddr::new(203, 0, 113, 10), 80);
        let irs = SeqNum::new(7_000);
        let mut server = TcpConnection::listen(server_addr, SeqNum::new(1_000));
        let mut responses = Vec::new();
        server.on_segment_into(client, &Segment::control(51000, 80, irs, SeqNum::new(0), TcpFlags::SYN), &mut responses);
        server.on_segment_into(client, &Segment::control(51000, 80, irs + 1, SeqNum::new(1_001), TcpFlags::ACK), &mut responses);
        prop_assert!(server.is_established());

        let mut shared = Reassembler::new();
        let mut model: Vec<Option<u8>> = vec![None; 48 + 12 * 24];
        let mut taken = 0usize;
        for ((&raw_offset, payload), &read) in offsets.iter().zip(&payloads).zip(&reads) {
            // Raw offsets from 36 on stand for "at the contiguous end", so a
            // quarter of the writes arrive in order: a shared stream forms
            // and later writes extend it.
            let end = shared.assembled_len();
            let offset = if raw_offset >= 36 { end } else { raw_offset };
            // The payload as a window of a larger buffer, like a segment's
            // view of a wire packet.
            let wire = Bytes::from([&b"hdr"[..], payload].concat());
            let data = wire.slice(3..);
            // Nothing stored yet: no stream and no pending out-of-order range.
            let shares = model.iter().all(Option::is_none) && offset == 0 && !data.is_empty();
            let fresh = shared.offer_bytes(offset, &data);
            if shares {
                // One in-order segment built the stream: it is that segment.
                prop_assert_eq!(shared.assembled().as_ptr(), data.as_ptr());
            }
            let mut model_fresh = 0;
            for (slot, &byte) in model[offset as usize..].iter_mut().zip(payload) {
                if slot.is_none() {
                    *slot = Some(byte);
                    model_fresh += 1;
                }
            }
            prop_assert_eq!(fresh, model_fresh);
            let contiguous: Vec<u8> = model.iter().map_while(|byte| *byte).collect();
            prop_assert_eq!(shared.assembled(), &contiguous[..]);

            let seq = irs + 1 + offset as u32;
            server.on_segment_into(client, &Segment::data(51000, 80, seq, SeqNum::new(1_001), data), &mut responses);
            prop_assert_eq!(server.received(), &contiguous[..]);
            if read {
                let new = server.take_new_bytes();
                prop_assert_eq!(&new[..], &contiguous[taken..]);
                taken = contiguous.len();
            }
        }
        let rest = server.take_new_bytes();
        prop_assert_eq!(&rest[..], &server.received()[taken..]);
        prop_assert!(server.take_new_bytes().is_empty());
    }

    /// TCP sequence-number window membership is consistent with distance.
    #[test]
    fn seq_window_membership_matches_distance(base in any::<u32>(), offset in 0u32..100_000, window in 1u32..100_000) {
        let start = SeqNum::new(base);
        let candidate = start + offset;
        prop_assert_eq!(candidate.in_window(start, window), offset < window);
    }

    /// The browser cache never exceeds its capacity for LRU profiles, no
    /// matter the insertion pattern.
    #[test]
    fn lru_cache_respects_its_budget(sizes in proptest::collection::vec(1usize..5_000, 1..40)) {
        let profile = BrowserProfile { cache_capacity_bytes: 20_000, ..BrowserProfile::chrome() };
        let mut cache = HttpCache::new(profile);
        for (index, size) in sizes.iter().enumerate() {
            let url = Url::parse(&format!("http://site{index}.example/object.js")).unwrap();
            let response = Response::ok(Body::binary(ResourceKind::JavaScript, vec![0u8; *size]))
                .with_cache_control("max-age=86400");
            cache.store(&url, "site.example", response, index as u64);
            prop_assert!(cache.used_bytes() <= 20_000);
        }
    }

    /// Cache-Control parsing and re-rendering is a fixpoint.
    #[test]
    fn cache_directives_render_parse_fixpoint(max_age in proptest::option::of(0u64..10_000_000), flags in 0u8..32) {
        let directives = CacheDirectives {
            max_age,
            s_maxage: None,
            no_store: flags & 1 != 0,
            no_cache: flags & 2 != 0,
            private: flags & 4 != 0,
            public: flags & 8 != 0,
            must_revalidate: flags & 16 != 0,
            immutable: false,
        };
        let rendered = directives.to_header_value();
        let reparsed = CacheDirectives::parse(&rendered);
        prop_assert_eq!(directives, reparsed);
    }

    /// URL parsing round-trips through Display for simple host/path/query forms.
    #[test]
    fn url_display_parse_round_trip(host_index in 0usize..5, path in "/[a-z]{1,12}(\\.js)?", query in proptest::option::of("[a-z]{1,8}=[a-z0-9]{1,8}")) {
        let hosts = ["example.com", "bank.example", "a.b.example.org", "site1.example", "x.y"];
        let mut url_string = format!("http://{}{}", hosts[host_index], path);
        if let Some(q) = &query {
            url_string.push('?');
            url_string.push_str(q);
        }
        let parsed = Url::parse(&url_string).expect("constructed urls parse");
        prop_assert_eq!(parsed.to_string(), url_string);
    }

    /// `ExperimentId` survives a Display → FromStr round trip for every
    /// variant (paper set plus extensions), including case-mangled and
    /// whitespace-padded spellings.
    #[test]
    fn experiment_id_display_from_str_round_trips(index in 0usize..12, mangle in 0u8..4) {
        let id = ExperimentId::EXTENDED[index];
        let rendered = id.to_string();
        let spelled = match mangle {
            0 => rendered.clone(),
            1 => rendered.to_uppercase(),
            2 => format!("  {rendered}"),
            _ => format!("{rendered}\t"),
        };
        prop_assert_eq!(spelled.parse::<ExperimentId>(), Ok(id));
    }

    /// `RunConfig` survives a JSON serialize → parse → deserialize round trip
    /// for arbitrary field values (JSON numbers are doubles, so integers are
    /// exact up to 2^53 — the same contract JavaScript consumers get).
    #[test]
    fn run_config_json_round_trips(
        seed in 0u64..(1u64 << 53),
        scale in 1u64..1_000_000,
        sites in 0usize..1_000_000,
        crawl_sites in 0usize..1_000_000,
        days in 0u32..10_000,
        event_budget in 1u64..100_000_000,
        jitter_us in 0u64..1_000_000,
        fleet_clients in 0usize..1_000_000,
        fleet_aps in 1usize..10_000,
        fleet_jobs in 0usize..64,
        fleet_days in 1u32..400,
        fleet_churn_millis in 0u64..1_000,
        fleet_hetero_pick in 0u8..2,
        fleet_visit_prob_millis in 1u64..=1_024,
        global_event_budget in 0u64..100_000_000,
        surface_trials in 1usize..100_000,
        surface_delay_start_us in 0u64..1_000_000,
        surface_delay_end_us in 0u64..1_000_000,
        surface_delay_steps in 1usize..10_000,
        surface_wan_start_us in 0u64..1_000_000,
        surface_wan_end_us in 0u64..1_000_000,
        surface_wan_steps in 1usize..10_000,
        surface_adoption_steps in 1usize..10_000,
        surface_vectors in 0u8..16,
    ) {
        let fleet_hetero = fleet_hetero_pick == 1;
        // Dyadic fractions in [0, 1] that are exact in both f64 and JSON.
        let fleet_churn = fleet_churn_millis as f64 / 1_024.0;
        let fleet_visit_prob = fleet_visit_prob_millis as f64 / 1_024.0;
        let config = RunConfig {
            seed, scale, sites, crawl_sites, days, event_budget,
            jitter_us, fleet_clients, fleet_aps, fleet_jobs,
            fleet_days, fleet_churn, fleet_hetero, fleet_visit_prob, global_event_budget,
            surface_trials, surface_delay_start_us, surface_delay_end_us,
            surface_delay_steps, surface_wan_start_us, surface_wan_end_us,
            surface_wan_steps, surface_adoption_steps, surface_vectors,
        };
        let text = config.to_json().to_string();
        let parsed = Json::parse(&text).expect("config JSON parses");
        prop_assert_eq!(RunConfig::from_json(&parsed), Ok(config));
    }
}
