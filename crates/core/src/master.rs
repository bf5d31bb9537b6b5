//! The master: the attacker that injects, controls and harvests.
//!
//! [`Master`] bundles the pieces the paper's attacker is made of — the
//! parasite template, the infection engine, the target list and the C&C
//! server — and hands out the two attack surfaces used by the experiments:
//! an [`InjectingExchange`] for HTTP-level scenarios and a [`MasterTap`] for
//! packet-level scenarios.

use crate::cnc::CncServer;
use crate::infect::{InfectionConfig, Infector};
use crate::injection::{InjectingExchange, MasterTap, SharedInjectionStats};
use crate::script::Parasite;
use mp_httpsim::transport::Exchange;
use mp_httpsim::url::Url;
use mp_netsim::time::Duration;

/// The master attacker.
#[derive(Debug, Clone, PartialEq)]
pub struct Master {
    /// The parasite template injected into targets.
    pub parasite: Parasite,
    /// Infection options.
    pub infection: InfectionConfig,
    /// Target objects prepared for injection.
    pub targets: Vec<Url>,
    /// The C&C server.
    pub cnc: CncServer,
}

impl Master {
    /// Creates a master with its C&C host and the standard parasite modules.
    pub fn new(cnc_host: &str) -> Self {
        Master {
            parasite: Parasite::standard(cnc_host),
            infection: InfectionConfig::default(),
            targets: Vec::new(),
            cnc: CncServer::new(cnc_host),
        }
    }

    /// Adds a target object (a persistent script selected per §VI-A).
    pub fn add_target(&mut self, url: Url) -> &mut Self {
        self.targets.push(url);
        self
    }

    /// The infector built from this master's parasite and options.
    pub fn infector(&self) -> Infector {
        Infector {
            parasite: self.parasite.clone(),
            config: self.infection.clone(),
        }
    }

    /// Builds the HTTP-level on-path attacker wrapping `upstream`.
    pub fn injecting_exchange<U: Exchange>(&self, upstream: U) -> InjectingExchange<U> {
        let mut exchange = InjectingExchange::new(upstream, self.infector());
        for target in &self.targets {
            exchange.add_target(target);
        }
        exchange
    }

    /// Builds the packet-level tap, pre-loading it with infected copies of the
    /// prepared objects.
    pub fn packet_tap(
        &self,
        prepared: &[(Url, mp_httpsim::message::Response)],
        reaction: Duration,
    ) -> (MasterTap, SharedInjectionStats) {
        let (mut tap, stats) = MasterTap::new(self.infector(), reaction);
        for (url, genuine) in prepared {
            tap.prepare_object(url, genuine.clone());
        }
        (tap, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_httpsim::body::{Body, ResourceKind};
    use mp_httpsim::message::{Request, Response};
    use mp_httpsim::transport::StaticOrigin;
    use mp_netsim::addr::IpAddr;
    use mp_netsim::attacker::Tap;
    use mp_netsim::packet::{Packet, Segment};
    use mp_netsim::seq::SeqNum;
    use mp_netsim::time::Instant;

    #[test]
    fn master_builds_an_injecting_exchange_for_its_targets() {
        let mut master = Master::new("master.attacker.example");
        master.add_target(Url::parse("http://top1.com/persistent.js").unwrap());

        let mut origin = StaticOrigin::new("top1.com");
        origin.put_text("/persistent.js", ResourceKind::JavaScript, "lib()", "max-age=600");
        let mut path = master.injecting_exchange(origin);
        let response = path.exchange(&Request::get(Url::parse("http://top1.com/persistent.js").unwrap()));
        assert!(Parasite::detect(&response.body.as_text()).is_some());
    }

    #[test]
    fn master_builds_a_packet_tap_with_prepared_objects() {
        let master = Master::new("master.attacker.example");
        let url = Url::parse("http://somesite.com/my.js").unwrap();
        let genuine = Response::ok(Body::text(ResourceKind::JavaScript, "f()"));
        let request = Request::get(url.clone()).to_wire();
        let (mut tap, stats) = master.packet_tap(&[(url, genuine)], Duration::from_micros(300));
        assert_eq!(stats.lock().unwrap().responses_injected, 0);
        let segment = Segment::data(51000, 80, SeqNum::new(1), SeqNum::new(1), request);
        let observed = Packet::new(IpAddr::new(10, 0, 0, 2), IpAddr::new(203, 0, 113, 10), segment);
        let mut injections = Vec::new();
        tap.observe(&observed, Instant::ZERO, &mut injections);
        assert!(!injections.is_empty());
        assert_eq!(stats.lock().unwrap().responses_injected, 1);
    }
}
