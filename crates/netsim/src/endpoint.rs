//! Hosts: endpoints with a socket-like TCP API.
//!
//! A [`Host`] owns a set of [`TcpConnection`]s and demultiplexes incoming
//! packets onto them. Server hosts can attach a [`Service`] that is invoked
//! whenever new application data arrives; the service's reply bytes are sent
//! back on the same connection by the simulator.

use crate::addr::{IpAddr, SocketAddr};
use crate::error::NetError;
use crate::fasthash::FxHashMap;
use crate::link::MediumId;
use crate::packet::{Packet, Segment};
use crate::seq::SeqNum;
use crate::tcp::{AcceptOutcome, TcpConnection, TcpState};
use bytes::Bytes;
use std::fmt;

/// Identifier of a host within a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u64);

/// Identifier of a TCP connection within a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Application logic attached to a server host.
///
/// The simulator calls [`Service::on_data`] whenever new contiguous bytes
/// arrive on a connection to a listening port; every response chunk the
/// service appends is transmitted back to the peer as application data, and
/// the service's processing delay is applied before the reply leaves the
/// host.
pub trait Service: Send {
    /// Handles newly arrived request bytes, appending response chunks to
    /// `out`.
    ///
    /// Both directions are [`Bytes`]: `data` is every byte that arrived since
    /// the previous call, as one slice of the connection's received stream —
    /// zero-copy while a single segment has built that stream (a request
    /// that fits in one segment, the common case), a copy once several
    /// segments have. Every response chunk shares one buffer with the
    /// outgoing segments, trace and receiver instead of being copied per
    /// reply. `out` is caller-owned and reused across every invocation, so a
    /// reply costs no allocation of its own.
    fn on_data(&mut self, conn: ConnId, data: &Bytes, out: &mut Vec<Bytes>);

    /// Server-side think time applied before responses are emitted.
    fn processing_delay(&self) -> crate::time::Duration {
        crate::time::Duration::from_micros(200)
    }
}

/// Outcome of delivering one packet to a host, reported to the simulator.
#[derive(Debug, Default)]
pub struct DeliveryResult {
    /// Segments the host wants transmitted in response (ACKs, SYN-ACKs, RSTs).
    pub responses: Vec<Segment>,
    /// Connections on which new application data became available.
    pub data_ready: Vec<ConnId>,
    /// What the TCP layer did with the payload (for measurement).
    pub outcome: Option<AcceptOutcome>,
}

impl DeliveryResult {
    /// Empties the result for reuse, keeping the allocated capacity. The
    /// simulator owns one `DeliveryResult` scratch and recycles it across
    /// every delivered event.
    pub fn clear(&mut self) {
        self.responses.clear();
        self.data_ready.clear();
        self.outcome = None;
    }
}

/// Connection count up to which [`Host`] demultiplexes by scanning its
/// connection slab; past it, the host builds a hash table.
const DEMUX_SCAN_LIMIT: usize = 8;

/// A simulated host.
///
/// Connections are stored in a dense slab indexed by [`ConnId`] (ids are
/// allocated sequentially from 1 and never freed), so the per-event state
/// machine advance is a direct vector index instead of a hash lookup. The
/// wire-driven demultiplexing step scans the slab while the host has at most
/// eight connections (`DEMUX_SCAN_LIMIT`), which covers every client of a
/// café. Only a host that grows past that, in practice the server, builds a
/// hash table keyed with the crate's fast internal hasher. A client host
/// therefore costs one heap allocation: its one-slot connection slab. Its
/// trace name is interned by the simulator, not stored here.
pub struct Host {
    id: HostId,
    ip: IpAddr,
    medium: MediumId,
    /// Connection slab: `ConnId(n)` lives at index `n - 1`.
    connections: Vec<TcpConnection>,
    /// Demultiplexing table: (local port, remote endpoint) -> connection.
    /// Empty (and unallocated) until the slab outgrows `DEMUX_SCAN_LIMIT`.
    demux: FxHashMap<(u16, SocketAddr), ConnId>,
    listeners: Vec<u16>,
    next_ephemeral_port: u16,
    next_iss: u32,
    service: Option<Box<dyn Service>>,
}

impl fmt::Debug for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Host")
            .field("id", &self.id)
            .field("ip", &self.ip)
            .field("connections", &self.connections.len())
            .field("listeners", &self.listeners)
            .finish()
    }
}

impl Host {
    /// Creates a host attached to `medium`.
    pub fn new(id: HostId, ip: IpAddr, medium: MediumId) -> Self {
        Host {
            id,
            ip,
            medium,
            connections: Vec::new(),
            demux: FxHashMap::default(),
            listeners: Vec::new(),
            next_ephemeral_port: 49152,
            // Deterministic but distinct per host so sequence numbers differ.
            next_iss: ip.to_u32().wrapping_mul(2654435761),
            service: None,
        }
    }

    /// Host identifier.
    pub fn id(&self) -> HostId {
        self.id
    }

    /// Host IP address.
    pub fn ip(&self) -> IpAddr {
        self.ip
    }

    /// Medium the host is attached to.
    pub fn medium(&self) -> MediumId {
        self.medium
    }

    /// Attaches an application service (server behaviour) to the host.
    pub fn set_service(&mut self, service: Box<dyn Service>) {
        self.service = Some(service);
    }

    /// Returns a mutable reference to the attached service, if any.
    pub fn service_mut(&mut self) -> Option<&mut Box<dyn Service>> {
        self.service.as_mut()
    }

    /// Starts listening on a TCP port.
    pub fn listen(&mut self, port: u16) {
        if !self.listeners.contains(&port) {
            self.listeners.push(port);
        }
    }

    /// Returns `true` if the host listens on `port`.
    pub fn is_listening(&self, port: u16) -> bool {
        self.listeners.contains(&port)
    }

    /// The slab index a connection id maps to, if it names a live connection.
    #[inline]
    fn conn_index(&self, conn: ConnId) -> Option<usize> {
        (conn.0 as usize)
            .checked_sub(1)
            .filter(|&index| index < self.connections.len())
    }

    #[inline]
    fn conn(&self, conn: ConnId) -> Option<&TcpConnection> {
        self.conn_index(conn).map(|index| &self.connections[index])
    }

    #[inline]
    fn conn_mut(&mut self, conn: ConnId) -> Option<&mut TcpConnection> {
        self.conn_index(conn).map(move |index| &mut self.connections[index])
    }

    /// Appends a connection to the slab and returns its id (`len` after the
    /// push, so ids start at 1 and `ConnId(0)` stays invalid). The first
    /// connection gets a one-slot slab (a client never opens a second); the
    /// push that takes the slab past [`DEMUX_SCAN_LIMIT`] builds the
    /// demultiplexing table from every connection, later pushes add to it.
    fn push_conn(&mut self, conn: TcpConnection) -> ConnId {
        if self.connections.is_empty() {
            self.connections.reserve_exact(1);
        }
        self.connections.push(conn);
        let count = self.connections.len();
        if count == DEMUX_SCAN_LIMIT + 1 {
            for index in 0..count {
                let key = Self::demux_key(&self.connections[index]);
                self.demux.insert(key, ConnId(index as u64 + 1));
            }
        } else if count > DEMUX_SCAN_LIMIT {
            let key = Self::demux_key(&self.connections[count - 1]);
            self.demux.insert(key, ConnId(count as u64));
        }
        ConnId(count as u64)
    }

    /// A connection's demultiplexing key: (local port, remote endpoint).
    fn demux_key(conn: &TcpConnection) -> (u16, SocketAddr) {
        (conn.local().port, conn.remote())
    }

    /// The connection a packet for `key` belongs to. The newest match wins,
    /// as a re-inserted table key would.
    fn demux(&self, key: (u16, SocketAddr)) -> Option<ConnId> {
        if self.connections.len() > DEMUX_SCAN_LIMIT {
            return self.demux.get(&key).copied();
        }
        self.connections
            .iter()
            .rposition(|conn| Self::demux_key(conn) == key)
            .map(|index| ConnId(index as u64 + 1))
    }

    fn alloc_iss(&mut self) -> SeqNum {
        // Simple deterministic ISS generator; good enough for a simulator
        // where the attacker *observes* sequence numbers rather than guessing.
        self.next_iss = self.next_iss.wrapping_mul(1103515245).wrapping_add(12345);
        SeqNum::new(self.next_iss)
    }

    fn alloc_ephemeral_port(&mut self) -> u16 {
        let port = self.next_ephemeral_port;
        self.next_ephemeral_port = if port == u16::MAX { 49152 } else { port + 1 };
        port
    }

    /// Opens a connection to `remote`, returning the connection id and the
    /// SYN segment to transmit.
    pub fn connect(&mut self, remote: SocketAddr) -> (ConnId, Segment) {
        let local = SocketAddr::new(self.ip, self.alloc_ephemeral_port());
        let iss = self.alloc_iss();
        let (conn, syn) = TcpConnection::connect(local, remote, iss);
        (self.push_conn(conn), syn)
    }

    /// Sends application data on an established connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownConnection`] for an unknown id and
    /// [`NetError::InvalidState`] if the connection is not established.
    pub fn send(&mut self, conn: ConnId, data: &[u8]) -> Result<Vec<Segment>, NetError> {
        self.send_bytes(conn, Bytes::copy_from_slice(data))
    }

    /// [`Host::send`] without the copy: MSS segmentation slices the shared
    /// buffer instead of copying each chunk.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownConnection`] for an unknown id and
    /// [`NetError::InvalidState`] if the connection is not established.
    pub fn send_bytes(&mut self, conn: ConnId, data: Bytes) -> Result<Vec<Segment>, NetError> {
        let connection = self
            .conn_mut(conn)
            .ok_or(NetError::UnknownConnection(conn.0))?;
        connection.send_bytes(data)
    }

    /// [`Host::send_bytes`] into a caller-owned segment buffer (see
    /// [`TcpConnection::send_bytes_into`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownConnection`] for an unknown id and
    /// [`NetError::InvalidState`] if the connection is not established.
    pub fn send_bytes_into(
        &mut self,
        conn: ConnId,
        data: Bytes,
        out: &mut Vec<Segment>,
    ) -> Result<(), NetError> {
        let connection = self
            .conn_mut(conn)
            .ok_or(NetError::UnknownConnection(conn.0))?;
        connection.send_bytes_into(data, out)
    }

    /// Closes a connection, returning the FIN segment.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownConnection`] for an unknown id and
    /// [`NetError::InvalidState`] if the connection cannot be closed.
    pub fn close(&mut self, conn: ConnId) -> Result<Segment, NetError> {
        let connection = self
            .conn_mut(conn)
            .ok_or(NetError::UnknownConnection(conn.0))?;
        connection.close()
    }

    /// Returns the connection state, if the connection exists.
    pub fn connection_state(&self, conn: ConnId) -> Option<TcpState> {
        self.conn(conn).map(|c| c.state())
    }

    /// Returns the remote endpoint of a connection.
    pub fn connection_remote(&self, conn: ConnId) -> Option<SocketAddr> {
        self.conn(conn).map(|c| c.remote())
    }

    /// Returns all application bytes received on a connection so far.
    pub fn received(&self, conn: ConnId) -> &[u8] {
        self.conn(conn).map(|c| c.received()).unwrap_or(&[])
    }

    /// Returns application bytes that arrived since the previous call.
    pub fn read_new(&mut self, conn: ConnId) -> Vec<u8> {
        self.conn_mut(conn).map(|c| c.read_new()).unwrap_or_default()
    }

    /// [`Host::read_new`] as a shared [`Bytes`] slice of the received
    /// stream (see [`TcpConnection::take_new_bytes`]); empty when nothing new
    /// arrived or the connection does not exist.
    pub fn read_new_bytes(&mut self, conn: ConnId) -> Bytes {
        self.conn_mut(conn)
            .map(TcpConnection::take_new_bytes)
            .unwrap_or_default()
    }

    /// Returns `true` once the connection has completed its handshake.
    pub fn is_established(&self, conn: ConnId) -> bool {
        self.conn(conn).map(|c| c.is_established()).unwrap_or(false)
    }

    /// Lists ids of all connections on this host (in creation order).
    pub fn connection_ids(&self) -> Vec<ConnId> {
        (1..=self.connections.len() as u64).map(ConnId).collect()
    }

    /// Delivers a packet to this host, advancing the owning connection's state
    /// machine (creating a server-side connection for SYNs to listening ports).
    /// The result is caller-owned, so the simulator's event loop reuses one
    /// `DeliveryResult` (and its buffers) for every event instead of
    /// allocating two vectors per delivery. `result` is cleared first.
    pub fn deliver_into(&mut self, packet: &Packet, result: &mut DeliveryResult) {
        result.clear();
        let remote = SocketAddr::new(packet.src_ip, packet.segment.src_port);
        let local_port = packet.segment.dst_port;
        let key = (local_port, remote);

        let conn_id = match self.demux(key) {
            Some(id) => Some(id),
            None => {
                if packet.segment.flags.syn && !packet.segment.flags.ack && self.is_listening(local_port)
                {
                    let local = SocketAddr::new(self.ip, local_port);
                    let iss = self.alloc_iss();
                    Some(self.push_conn(TcpConnection::accept(local, remote, iss)))
                } else {
                    None
                }
            }
        };

        let Some(conn_id) = conn_id else {
            // No matching connection and not a connectable SYN: answer with RST
            // as a real stack would (unless the stray packet is itself an RST).
            if !packet.segment.flags.rst {
                result.responses.push(Segment::control(
                    local_port,
                    remote.port,
                    packet.segment.ack,
                    packet.segment.seq_end(),
                    crate::packet::TcpFlags::RST,
                ));
            }
            return;
        };

        let connection = self
            .conn_mut(conn_id)
            .expect("demuxed connection must exist");
        let before = connection.received().len();
        let outcome = connection.on_segment_into(remote, &packet.segment, &mut result.responses);
        let after = connection.received().len();

        result.outcome = Some(outcome);
        if after > before {
            result.data_ready.push(conn_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    fn make_hosts() -> (Host, Host) {
        let client = Host::new(HostId(1), IpAddr::new(10, 0, 0, 2), MediumId(0));
        let mut server = Host::new(HostId(2), IpAddr::new(203, 0, 113, 10), MediumId(0));
        server.listen(80);
        (client, server)
    }

    /// Delivers a segment from `from` to `to`, returning the responses.
    fn ship(from: &Host, to: &mut Host, seg: Segment) -> DeliveryResult {
        let pkt = Packet::new(from.ip(), to.ip(), seg);
        let mut result = DeliveryResult::default();
        to.deliver_into(&pkt, &mut result);
        result
    }

    fn establish(client: &mut Host, server: &mut Host) -> ConnId {
        let (conn, syn) = client.connect(SocketAddr::new(server.ip(), 80));
        let r1 = ship(client, server, syn);
        let r2 = ship(server, client, r1.responses[0].clone());
        ship(client, server, r2.responses[0].clone());
        assert!(client.is_established(conn));
        conn
    }

    #[test]
    fn connect_and_exchange_data() {
        let (mut client, mut server) = make_hosts();
        let conn = establish(&mut client, &mut server);
        let segs = client.send(conn, b"GET /index.html HTTP/1.1\r\n\r\n").unwrap();
        for seg in segs {
            let result = ship(&client, &mut server, seg);
            assert!(result.outcome.is_some());
        }
        let server_conn = server.connection_ids()[0];
        assert_eq!(server.received(server_conn), b"GET /index.html HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let (client, mut server) = make_hosts();
        let syn = Segment::control(50000, 8080, SeqNum::new(7), SeqNum::new(0), TcpFlags::SYN);
        let result = ship(&client, &mut server, syn);
        assert_eq!(result.responses.len(), 1);
        assert!(result.responses[0].flags.rst);
    }

    #[test]
    fn stray_data_to_unknown_connection_gets_rst() {
        let (client, mut server) = make_hosts();
        let data = Segment::data(50001, 80, SeqNum::new(100), SeqNum::new(1), &b"hi"[..]);
        let result = ship(&client, &mut server, data);
        assert_eq!(result.responses.len(), 1);
        assert!(result.responses[0].flags.rst);
    }

    #[test]
    fn data_ready_reports_connection_with_new_bytes() {
        let (mut client, mut server) = make_hosts();
        let conn = establish(&mut client, &mut server);
        let segs = client.send(conn, b"ping").unwrap();
        let result = ship(&client, &mut server, segs[0].clone());
        assert_eq!(result.data_ready.len(), 1);
        let sconn = result.data_ready[0];
        assert_eq!(server.read_new(sconn), b"ping");
        assert!(server.read_new(sconn).is_empty());
    }

    #[test]
    fn demultiplexing_survives_the_switch_from_scan_to_table() {
        let (mut client, mut server) = make_hosts();
        let conns: Vec<ConnId> = (0..DEMUX_SCAN_LIMIT + 4)
            .map(|_| establish(&mut client, &mut server))
            .collect();
        for (index, &conn) in conns.iter().enumerate() {
            let request = format!("request {index}");
            let segs = client.send(conn, request.as_bytes()).unwrap();
            let sconn = ship(&client, &mut server, segs[0].clone()).data_ready[0];
            assert_eq!(sconn, ConnId(index as u64 + 1));
            assert_eq!(server.received(sconn), request.as_bytes());
            let reply = format!("reply {index}");
            let segs = server.send(sconn, reply.as_bytes()).unwrap();
            ship(&server, &mut client, segs[0].clone());
            assert_eq!(client.received(conn), reply.as_bytes());
        }
    }

    #[test]
    fn ephemeral_ports_are_unique_per_connection() {
        let (mut client, server) = make_hosts();
        let (c1, s1) = client.connect(SocketAddr::new(server.ip(), 80));
        let (c2, s2) = client.connect(SocketAddr::new(server.ip(), 80));
        assert_ne!(c1, c2);
        assert_ne!(s1.src_port, s2.src_port);
    }

    #[test]
    fn unknown_connection_operations_error() {
        let (mut client, _server) = make_hosts();
        assert!(matches!(
            client.send(ConnId(99), b"x"),
            Err(NetError::UnknownConnection(99))
        ));
        assert!(matches!(
            client.close(ConnId(99)),
            Err(NetError::UnknownConnection(99))
        ));
    }
}
