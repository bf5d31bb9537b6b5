//! # mp-netsim
//!
//! A deterministic, packet-level network simulator used by the
//! *Master and Parasite Attack* reproduction.
//!
//! The crate models exactly the parts of the network stack that the paper's
//! transport-layer attack depends on:
//!
//! * IPv4/TCP segments with sequence/acknowledgement numbers
//!   ([`packet`], [`seq`]),
//! * a per-connection TCP state machine with **first-segment-wins**
//!   reassembly ([`tcp`]) — the property the injection attack exploits,
//! * links with latency and an optional *shared medium* (public WiFi) on
//!   which an eavesdropper receives a copy of every frame ([`link`]),
//! * hosts with a socket-like API ([`endpoint`]),
//! * a discrete-event simulator that delivers packets in timestamp order
//!   ([`sim`]),
//! * the attacker's interface ([`attacker`]): a [`attacker::Tap`] on a
//!   shared medium observes every client segment, and an
//!   [`attacker::Injector`] crafts the spoofed server segments it races
//!   against the genuine response. The master itself is the `parasite`
//!   crate's `MasterTap`.
//!
//! Everything is deterministic: there is no wall-clock time and all
//! randomness is injected by the caller through seeded RNGs.
//!
//! ## Example
//!
//! ```rust
//! use mp_netsim::sim::Simulator;
//! use mp_netsim::link::MediumKind;
//! use mp_netsim::addr::IpAddr;
//!
//! # fn main() -> Result<(), mp_netsim::NetError> {
//! let mut sim = Simulator::new(42);
//! let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
//! let client = sim.add_host("client", IpAddr::new(10, 0, 0, 2), wifi);
//! let server = sim.add_host("server", IpAddr::new(93, 184, 216, 34), wifi);
//! sim.listen(server, 80);
//! let conn = sim.connect(client, server, 80)?;
//! sim.send(client, conn, b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n")?;
//! sim.run_until_idle()?;
//! let server_conn = sim.connections(server)[0];
//! let delivered = sim.received(server, server_conn);
//! assert!(delivered.starts_with(b"GET /"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod attacker;
pub mod capture;
pub mod dist;
pub mod endpoint;
pub mod error;
pub mod fasthash;
pub mod link;
pub mod packet;
mod queue;
pub mod seq;
pub mod sim;
pub mod tcp;
pub mod time;

pub use addr::{IpAddr, SocketAddr};
pub use capture::{Trace, TraceMode, TraceSummary};
pub use error::NetError;
pub use packet::{Packet, Segment, TcpFlags};
pub use sim::Simulator;
pub use time::{Duration, Instant};
