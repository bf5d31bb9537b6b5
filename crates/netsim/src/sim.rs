//! The discrete-event simulator tying hosts, media and attacker taps together.
//!
//! The hot path is built for throughput: hosts and media live in dense
//! `Vec`-backed slabs indexed directly by [`HostId`] / [`MediumId`], queued
//! events are compact keys in a calendar queue backed by a recycling payload
//! pool (see the `queue` module), and one set of simulator-owned scratch
//! buffers is reused across deliveries. Two hash lookups remain per packet:
//! `transmit` finds the destination host by its address in `ip_index`, and a
//! host with more than eight connections (a race world's server)
//! demultiplexes through its table; both tables use [`crate::fasthash`].
//!
//! The event loop allocates nothing per event; it allocates only when one of
//! its own buffers grows. Payload-less segments (SYN, ACK, RST) carry an
//! empty [`Bytes`], which owns no storage. Taps and services append into
//! scratch vectors. A one-segment stream is a slice of that segment (see
//! [`crate::tcp::Reassembler`]). Adding a client host costs one allocation,
//! its one-slot connection slab: the host's name is interned here, a host
//! with few connections demultiplexes by scanning them, and its first
//! pre-handshake send is held inline in its slab entry.
//!
//! A world that knows its population up front sizes its tables once:
//! [`Simulator::reserve_hosts`] reserves the host slab and `ip_index`, and
//! [`Host::reserve_connections`] a server's connection slab and demux table,
//! so a café of thousands of clients does not grow them one doubling at a
//! time. A run of hosts that share a name (a café's victims) interns it by
//! one comparison with the last name interned, not a hash per host.

use crate::addr::{IpAddr, SocketAddr};
use crate::attacker::{Injection, Tap};
use crate::capture::{NameId, Trace, TraceEvent, TraceMode};
use crate::endpoint::{ConnId, DeliveryResult, Host, HostId, Service};
use crate::error::NetError;
use crate::fasthash::FxHashMap;
use crate::link::{Medium, MediumId, MediumKind};
use crate::packet::{Packet, Segment};
use crate::queue::{CalendarQueue, EventBody, EventKey, EventPool};
use crate::tcp::TcpState;
use crate::time::{Duration, Instant, SimClock};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default cap on processed events, guarding against runaway feedback loops
/// between a buggy tap and a host. Large batch sweeps can raise the budget
/// per simulator via [`Simulator::with_event_budget`].
pub const DEFAULT_EVENT_BUDGET: u64 = 5_000_000;

/// A *global* event budget shared by any number of simulators (typically the
/// per-AP simulations of one campaign, or every packet-level experiment of a
/// whole report run). Cloning the handle shares the same pool; each processed
/// event on any attached simulator debits it by one.
///
/// When the pool is empty, [`Simulator::step`] reports the same typed
/// [`NetError::EventBudgetExhausted`] as the per-simulator budget — *before*
/// popping the in-flight event — so a caller that attaches a fresh pool can
/// resume the simulator without losing a packet, and a fleet shard can no
/// longer burn the whole machine silently.
#[derive(Debug, Clone)]
pub struct SharedBudget {
    /// Events left in the pool.
    remaining: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// The pool's initial size, for error messages.
    total: u64,
}

impl SharedBudget {
    /// Creates a pool of `budget` events.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: u64) -> Self {
        assert!(budget > 0, "shared event budget must be positive");
        SharedBudget {
            remaining: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(budget)),
            total: budget,
        }
    }

    /// Events left in the pool.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The pool's initial size.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns `true` once the pool has been drained to zero.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Debits one event; `false` (and no debit) when the pool is empty.
    fn try_consume(&self) -> bool {
        let mut current = self.remaining.load(std::sync::atomic::Ordering::Relaxed);
        loop {
            if current == 0 {
                return false;
            }
            match self.remaining.compare_exchange_weak(
                current,
                current - 1,
                std::sync::atomic::Ordering::Relaxed,
                std::sync::atomic::Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }
}

struct TapEntry {
    medium: MediumId,
    /// Whether `medium` is observable, precomputed at registration so the
    /// per-packet tap scan never consults the media table.
    observable: bool,
    tap: Box<dyn Tap>,
}

/// One host's slab entry: the host itself plus the per-host state the event
/// loop consults on every delivery, kept inline so `step()` reads it by
/// index. (`step()` still hashes: `transmit` looks up `dst_ip` in
/// `ip_index` for every packet, and the server demultiplexes through a
/// table.)
struct HostSlot {
    host: Host,
    /// Interned trace name.
    name: NameId,
    /// The medium the host is attached to (cached from the host).
    medium: MediumId,
    /// Pre-handshake sends. `step()` checks plain emptiness before running
    /// the flush / eviction passes.
    pending: PendingSends,
}

/// One host's pre-handshake sends, in send order. The first is held inline,
/// so a client that buffers its one request before the handshake completes
/// costs no allocation; only a host with two or more buffered sends at once
/// spills into `rest`.
#[derive(Default)]
struct PendingSends {
    first: Option<(ConnId, Bytes)>,
    rest: Vec<(ConnId, Bytes)>,
}

impl PendingSends {
    fn is_empty(&self) -> bool {
        self.first.is_none() && self.rest.is_empty()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn push(&mut self, conn: ConnId, data: Bytes) {
        if self.is_empty() {
            self.first = Some((conn, data));
        } else {
            self.rest.push((conn, data));
        }
    }

    /// Moves the sends whose connection satisfies `take` into `out`, in send
    /// order.
    fn take_where(&mut self, mut take: impl FnMut(ConnId) -> bool, out: &mut Vec<(ConnId, Bytes)>) {
        if self.first.as_ref().is_some_and(|(conn, _)| take(*conn)) {
            out.extend(self.first.take());
        }
        out.extend(self.rest.extract_if(.., |(conn, _)| take(*conn)));
    }
}

/// Discrete-event network simulator.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Simulator {
    clock: SimClock,
    /// Medium slab; `MediumId(n)` lives at index `n`.
    media: Vec<Medium>,
    /// Host slab; `HostId(n)` lives at index `n`.
    hosts: Vec<HostSlot>,
    ip_index: FxHashMap<IpAddr, HostId>,
    taps: Vec<TapEntry>,
    queue: CalendarQueue,
    /// Payload slab behind the queue's compact keys; slots are recycled
    /// through a free list as events are delivered.
    pool: EventPool,
    trace: Trace,
    foreign_names: FxHashMap<IpAddr, NameId>,
    attacker_name: NameId,
    unknown_name: NameId,
    next_seq: u64,
    events_processed: u64,
    event_budget: u64,
    /// Optional global budget shared with other simulators; `None` (the
    /// default) keeps the hot path free of atomic traffic.
    shared_budget: Option<SharedBudget>,
    /// `true` once any medium has non-zero jitter; with it `false` (the
    /// default) the delivery path skips the jitter draw entirely.
    any_jitter: bool,
    /// Seeded RNG driving optional medium jitter (see
    /// [`Simulator::set_medium_jitter`]). With all jitter at zero — the
    /// default — it is never consulted, so output stays byte-identical to the
    /// jitter-free simulator.
    rng: StdRng,
    // --- reusable scratch, so the steady state allocates nothing per event ---
    delivery_scratch: DeliveryResult,
    response_scratch: Vec<Bytes>,
    segment_scratch: Vec<Segment>,
    pending_scratch: Vec<(ConnId, Bytes)>,
    injection_scratch: Vec<Injection>,
    /// The tap medium of each entry of `injection_scratch`.
    injection_media: Vec<MediumId>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.clock.now())
            .field("hosts", &self.hosts.len())
            .field("media", &self.media.len())
            .field("taps", &self.taps.len())
            .field("queued_events", &self.queue.len())
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        let mut trace = Trace::new();
        let attacker_name = trace.intern("attacker");
        let unknown_name = trace.intern("?");
        Simulator {
            clock: SimClock::new(),
            media: Vec::new(),
            hosts: Vec::new(),
            ip_index: FxHashMap::default(),
            taps: Vec::new(),
            queue: CalendarQueue::new(),
            pool: EventPool::default(),
            trace,
            foreign_names: FxHashMap::default(),
            attacker_name,
            unknown_name,
            next_seq: 0,
            events_processed: 0,
            event_budget: DEFAULT_EVENT_BUDGET,
            shared_budget: None,
            any_jitter: false,
            rng: StdRng::seed_from_u64(seed),
            delivery_scratch: DeliveryResult::default(),
            response_scratch: Vec::new(),
            segment_scratch: Vec::new(),
            pending_scratch: Vec::new(),
            injection_scratch: Vec::new(),
            injection_media: Vec::new(),
        }
    }

    /// Sets the event budget (builder form): the maximum number of events one
    /// run may process before the simulator assumes a feedback loop and
    /// reports [`NetError::EventBudgetExhausted`]. Defaults to
    /// [`DEFAULT_EVENT_BUDGET`]; long batch sweeps can raise it deliberately.
    #[must_use]
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.set_event_budget(budget);
        self
    }

    /// Sets the event budget on an existing simulator.
    pub fn set_event_budget(&mut self, budget: u64) {
        assert!(budget > 0, "event budget must be positive");
        self.event_budget = budget;
    }

    /// The configured event budget.
    pub fn event_budget(&self) -> u64 {
        self.event_budget
    }

    /// Attaches a [`SharedBudget`]: every processed event also debits the
    /// shared pool, and an empty pool stops the run with the typed
    /// [`NetError::EventBudgetExhausted`] — before the in-flight event is
    /// popped, so attaching a fresh pool resumes the run losslessly.
    pub fn set_shared_budget(&mut self, budget: SharedBudget) {
        self.shared_budget = Some(budget);
    }

    /// Sets the trace recorder mode (builder form, before anything is
    /// recorded). [`TraceMode::Full`] (the default) retains every
    /// transmission; [`TraceMode::Ring`] bounds the trace to the most recent
    /// *n*; [`TraceMode::SummaryOnly`] retains nothing but the running
    /// counters.
    #[must_use]
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace.set_mode(mode);
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.clock.now()
    }

    /// Adds a transmission medium with the given one-way latency in
    /// microseconds and returns its id.
    pub fn add_medium(&mut self, kind: MediumKind, latency_micros: u64) -> MediumId {
        let id = MediumId(self.media.len() as u64);
        self.media.push(Medium::new(id, kind, Duration::from_micros(latency_micros)));
        id
    }

    fn medium(&self, id: MediumId) -> Option<&Medium> {
        self.media.get(id.0 as usize)
    }

    /// Enables per-packet jitter on a medium: every traversal draws an extra
    /// delay uniformly from `[0, jitter]` using the simulator's seeded RNG.
    /// The default is zero (no jitter, no RNG draws), which keeps delivery
    /// times byte-identical to the jitter-free simulator; with jitter enabled,
    /// two simulators built with the same seed and the same workload still
    /// produce identical traces.
    ///
    /// # Panics
    ///
    /// Panics if the medium does not exist.
    pub fn set_medium_jitter(&mut self, medium: MediumId, jitter: Duration) {
        self.media
            .get_mut(medium.0 as usize)
            .expect("unknown medium id")
            .jitter = jitter;
        self.any_jitter = self.media.iter().any(|m| m.jitter > Duration::ZERO);
    }

    /// Reserves room for `additional` more hosts in the host slab and the
    /// address index, so a world that knows its population before adding it
    /// (a café's race world) sizes both tables once instead of growing them
    /// one doubling at a time. Changes no event, byte or random draw.
    pub fn reserve_hosts(&mut self, additional: usize) {
        self.hosts.reserve(additional);
        self.ip_index.reserve(additional);
    }

    /// Adds a host attached to `medium` and returns its id. `name` labels
    /// the host in the trace; it is interned once, so a thousand hosts named
    /// `"client"` share one copy, and a host named like the one added before
    /// it reuses that name's id without hashing the name again. Call
    /// [`Simulator::reserve_hosts`] first when adding many hosts.
    ///
    /// # Panics
    ///
    /// Panics if another host already uses `ip` or the medium does not exist.
    pub fn add_host(&mut self, name: &str, ip: IpAddr, medium: MediumId) -> HostId {
        assert!(
            (medium.0 as usize) < self.media.len(),
            "unknown medium {medium:?}"
        );
        assert!(
            !self.ip_index.contains_key(&ip),
            "duplicate host IP address {ip}"
        );
        let id = HostId(self.hosts.len() as u64);
        let name_id = self.trace.intern(name);
        self.hosts.push(HostSlot {
            host: Host::new(id, ip, medium),
            name: name_id,
            medium,
            pending: PendingSends::default(),
        });
        self.ip_index.insert(ip, id);
        id
    }

    fn slot(&self, id: HostId) -> Option<&HostSlot> {
        self.hosts.get(id.0 as usize)
    }

    /// Returns a reference to a host.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist.
    pub fn host(&self, id: HostId) -> &Host {
        &self.slot(id).expect("unknown host id").host
    }

    /// Returns a mutable reference to a host.
    ///
    /// # Panics
    ///
    /// Panics if the host does not exist.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts.get_mut(id.0 as usize).expect("unknown host id").host
    }

    /// Starts a host listening on a TCP port.
    pub fn listen(&mut self, host: HostId, port: u16) {
        self.host_mut(host).listen(port);
    }

    /// Attaches an application service (server behaviour) to a host.
    pub fn set_service(&mut self, host: HostId, service: Box<dyn Service>) {
        self.host_mut(host).set_service(service);
    }

    /// Registers an attacker tap on a medium. Taps only observe traffic on
    /// observable (shared wireless) media.
    pub fn add_tap(&mut self, medium: MediumId, tap: Box<dyn Tap>) {
        let observable = self.medium(medium).map(Medium::observable).unwrap_or(false);
        self.taps.push(TapEntry {
            medium,
            observable,
            tap,
        });
    }

    /// Opens a TCP connection from `client` to `server` on `port`.
    ///
    /// The SYN is scheduled immediately; the handshake completes as the
    /// simulation runs. Data passed to [`Simulator::send`] before the
    /// handshake finishes is buffered and flushed once established.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownHost`] if either host id is invalid.
    pub fn connect(&mut self, client: HostId, server: HostId, port: u16) -> Result<ConnId, NetError> {
        let server_ip = self
            .slot(server)
            .ok_or_else(|| NetError::UnknownHost(format!("{server:?}")))?
            .host
            .ip();
        let remote = SocketAddr::new(server_ip, port);
        let host = &mut self
            .hosts
            .get_mut(client.0 as usize)
            .ok_or_else(|| NetError::UnknownHost(format!("{client:?}")))?
            .host;
        let client_ip = host.ip();
        let (conn, syn) = host.connect(remote);
        let packet = Packet::new(client_ip, remote.ip, syn);
        self.transmit(client, packet, false, Duration::ZERO);
        Ok(conn)
    }

    /// Sends application data on a connection, buffering it if the handshake
    /// has not completed yet.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownHost`] / [`NetError::UnknownConnection`] for
    /// invalid identifiers.
    pub fn send(&mut self, host: HostId, conn: ConnId, data: &[u8]) -> Result<(), NetError> {
        self.send_bytes(host, conn, Bytes::copy_from_slice(data))
    }

    /// [`Simulator::send`] without the copy: the buffer is shared (not cloned)
    /// across MSS segmentation, the packet trace and delivery.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownHost`] / [`NetError::UnknownConnection`] for
    /// invalid identifiers.
    pub fn send_bytes(&mut self, host: HostId, conn: ConnId, data: Bytes) -> Result<(), NetError> {
        let slot = self
            .hosts
            .get_mut(host.0 as usize)
            .ok_or_else(|| NetError::UnknownHost(format!("{host:?}")))?;
        let state = slot
            .host
            .connection_state(conn)
            .ok_or(NetError::UnknownConnection(conn.0))?;
        // A dead connection can never flush a buffer: reject instead of
        // buffering it, where (with no further events for the host) nothing
        // would ever evict it.
        if matches!(state, TcpState::Closed | TcpState::Reset) {
            return Err(NetError::InvalidState {
                reason: format!("cannot send in state {state:?}"),
            });
        }
        if slot.host.is_established(conn) {
            let remote = slot.host.connection_remote(conn).expect("established has remote");
            let ip = slot.host.ip();
            let mut segments = std::mem::take(&mut self.segment_scratch);
            segments.clear();
            if let Err(error) = slot.host.send_bytes_into(conn, data, &mut segments) {
                self.segment_scratch = segments;
                return Err(error);
            }
            for seg in segments.drain(..) {
                let packet = Packet::new(ip, remote.ip, seg);
                self.transmit(host, packet, false, Duration::ZERO);
            }
            self.segment_scratch = segments;
        } else {
            slot.pending.push(conn, data);
        }
        Ok(())
    }

    /// Closes a connection (sends FIN).
    ///
    /// # Errors
    ///
    /// Propagates host/connection lookup and state errors.
    pub fn close(&mut self, host: HostId, conn: ConnId) -> Result<(), NetError> {
        let h = &mut self
            .hosts
            .get_mut(host.0 as usize)
            .ok_or_else(|| NetError::UnknownHost(format!("{host:?}")))?
            .host;
        let remote = h
            .connection_remote(conn)
            .ok_or(NetError::UnknownConnection(conn.0))?;
        let ip = h.ip();
        let fin = h.close(conn)?;
        let packet = Packet::new(ip, remote.ip, fin);
        self.transmit(host, packet, false, Duration::ZERO);
        Ok(())
    }

    /// Application bytes received so far on a connection.
    pub fn received(&self, host: HostId, conn: ConnId) -> Bytes {
        Bytes::copy_from_slice(self.host(host).received(conn))
    }

    /// Connection ids present on a host (in creation order).
    pub fn connections(&self, host: HostId) -> Vec<ConnId> {
        self.host(host).connection_ids()
    }

    /// The packet trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes ownership of the recorded trace, leaving an empty one (same
    /// recorder mode and name table) behind.
    pub fn take_trace(&mut self) -> Trace {
        let fresh = self.trace.fresh_like();
        std::mem::replace(&mut self.trace, fresh)
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pre-handshake sends currently buffered. Buffers are flushed
    /// on establishment and evicted (with a note in the trace summary) when
    /// their connection closes or resets first.
    #[cfg(test)]
    fn pending_send_buffers(&self) -> usize {
        self.hosts.iter().map(|slot| slot.pending.len()).sum()
    }

    fn path_latency(&self, from_medium: MediumId, to_medium: MediumId) -> Duration {
        let from = self.medium(from_medium).map(|m| m.latency).unwrap_or(Duration::ZERO);
        if from_medium == to_medium {
            from
        } else {
            let to = self.medium(to_medium).map(|m| m.latency).unwrap_or(Duration::ZERO);
            from.saturating_add(to)
        }
    }

    /// Draws the jitter for one traversal of the given media pair. With all
    /// jitter configured to zero (the default) this never touches the RNG.
    fn path_jitter(&mut self, from_medium: Option<MediumId>, to_medium: Option<MediumId>) -> Duration {
        let jitter_of = |media: &[Medium], id: Option<MediumId>| {
            id.and_then(|id| media.get(id.0 as usize))
                .map(|m| m.jitter.as_micros())
                .unwrap_or(0)
        };
        let total = match (from_medium, to_medium) {
            (Some(a), Some(b)) if a == b => jitter_of(&self.media, Some(a)),
            (a, b) => jitter_of(&self.media, a) + jitter_of(&self.media, b),
        };
        if total == 0 {
            Duration::ZERO
        } else {
            Duration::from_micros(self.rng.gen_range(0..=total))
        }
    }

    /// Interned trace name for an address outside the simulation: the textual
    /// address, interned on first use.
    fn foreign_name(&mut self, ip: IpAddr) -> NameId {
        if let Some(&id) = self.foreign_names.get(&ip) {
            return id;
        }
        let id = self.trace.intern(&ip.to_string());
        self.foreign_names.insert(ip, id);
        id
    }

    /// Records one transmission in the trace. In [`TraceMode::SummaryOnly`]
    /// only the counters move — no event (and no packet clone) is created.
    fn record(&mut self, sent_at: Instant, delivered_at: Instant, from: NameId, to: NameId, injected: bool, packet: &Packet) {
        if self.trace.retains_events() {
            self.trace.push(TraceEvent {
                sent_at,
                delivered_at,
                from,
                to,
                injected,
                packet: packet.clone(),
            });
        } else {
            self.trace.note(injected, packet.segment.payload.len());
        }
    }

    /// Moves a packet into the event pool and queues its delivery, assigning
    /// the next global sequence number. Packets addressed outside the
    /// simulation are dropped (they were already recorded).
    fn enqueue(&mut self, dst: Option<HostId>, at: Instant, packet: Packet) {
        if let Some(to) = dst {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = self.pool.insert(EventBody { to, packet });
            self.queue.push(EventKey { at, seq, slot });
        }
    }

    /// Schedules delivery of a packet emitted by `from`, notifying taps.
    fn transmit(&mut self, from: HostId, packet: Packet, injected: bool, extra_delay: Duration) {
        let now = self.clock.now();
        let (from_medium, from_name) = match self.slot(from) {
            Some(slot) => (Some(slot.medium), slot.name),
            None => (None, self.unknown_name),
        };
        let dst_host = self.ip_index.get(&packet.dst_ip).copied();
        let (to_medium, to_name) = match dst_host.and_then(|id| self.slot(id)) {
            Some(slot) => (Some(slot.medium), Some(slot.name)),
            None => (None, None),
        };
        let to_name = match to_name {
            Some(name) => name,
            None => self.foreign_name(packet.dst_ip),
        };

        let latency = match (from_medium, to_medium) {
            (Some(a), Some(b)) => self.path_latency(a, b),
            (Some(a), None) => self.medium(a).map(|m| m.latency).unwrap_or(Duration::ZERO),
            _ => Duration::ZERO,
        };
        let jitter = if self.any_jitter {
            self.path_jitter(from_medium, to_medium)
        } else {
            Duration::ZERO
        };
        let deliver_at = now + extra_delay + latency + jitter;

        self.record(now + extra_delay, deliver_at, from_name, to_name, injected, &packet);

        // Attacker taps observe genuine traffic on observable media. Injected
        // packets are not re-observed, which both matches reality (the
        // attacker knows its own traffic) and prevents feedback loops. With no
        // taps registered — the population-scale common case — the scan is
        // skipped outright; otherwise taps append requested injections to a
        // reusable scratch buffer.
        if !injected && !self.taps.is_empty() {
            let mut injections = std::mem::take(&mut self.injection_scratch);
            let mut media = std::mem::take(&mut self.injection_media);
            for entry in &mut self.taps {
                if !entry.observable {
                    continue;
                }
                let on_path =
                    Some(entry.medium) == from_medium || Some(entry.medium) == to_medium;
                if !on_path {
                    continue;
                }
                entry.tap.observe(&packet, now, &mut injections);
                media.resize(injections.len(), entry.medium);
            }
            // The observed packet queues first, then its injections, so
            // sequence numbers match the pre-calendar-queue simulator exactly.
            self.enqueue(dst_host, deliver_at, packet);
            for (injection, tap_medium) in injections.drain(..).zip(media.drain(..)) {
                self.schedule_injection(tap_medium, injection);
            }
            self.injection_scratch = injections;
            self.injection_media = media;
        } else {
            self.enqueue(dst_host, deliver_at, packet);
        }
    }

    /// Schedules delivery of an attacker-injected packet from a tap attached
    /// to `tap_medium`.
    fn schedule_injection(&mut self, tap_medium: MediumId, injection: Injection) {
        let now = self.clock.now();
        let dst_host = self.ip_index.get(&injection.packet.dst_ip).copied();
        let (to_medium, to_name) = match dst_host.and_then(|id| self.slot(id)) {
            Some(slot) => (Some(slot.medium), Some(slot.name)),
            None => (None, None),
        };
        let to_medium = to_medium.unwrap_or(tap_medium);
        let latency = self.path_latency(tap_medium, to_medium);
        let jitter = if self.any_jitter {
            self.path_jitter(Some(tap_medium), Some(to_medium))
        } else {
            Duration::ZERO
        };
        let deliver_at = now + injection.delay + latency + jitter;

        let to_name = match to_name {
            Some(name) => name,
            None => self.foreign_name(injection.packet.dst_ip),
        };
        let attacker = self.attacker_name;
        self.record(now + injection.delay, deliver_at, attacker, to_name, true, &injection.packet);
        self.enqueue(dst_host, deliver_at, injection.packet);
    }

    /// Processes a single queued event. Returns `Ok(false)` if the queue is
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EventBudgetExhausted`] once the run has consumed
    /// its event budget — typically a feedback loop between a tap and a host.
    /// The error is typed (not a panic) so batch sweeps can fail one scenario
    /// without aborting their siblings.
    pub fn step(&mut self) -> Result<bool, NetError> {
        if self.queue.is_empty() {
            return Ok(false);
        }
        // Budget checks before the pop: the in-flight event stays queued, so a
        // caller that raises (or replaces) the budget can resume without losing
        // packets.
        if self.events_processed >= self.event_budget {
            return Err(NetError::EventBudgetExhausted {
                budget: self.event_budget,
            });
        }
        if let Some(shared) = &self.shared_budget {
            if !shared.try_consume() {
                return Err(NetError::EventBudgetExhausted {
                    budget: shared.total(),
                });
            }
        }
        let key = self.queue.pop().expect("checked non-empty above");
        let EventBody { to, packet } = self.pool.take(key.slot);
        self.events_processed += 1;
        self.clock.advance_to(key.at);

        let index = to.0 as usize;
        if index >= self.hosts.len() {
            return Ok(true);
        }
        let mut delivery = std::mem::take(&mut self.delivery_scratch);
        let host_ip = self.hosts[index].host.ip();
        self.hosts[index].host.deliver_into(&packet, &mut delivery);

        // Protocol responses (SYN-ACK, ACK, RST) go back to the packet source.
        for seg in delivery.responses.drain(..) {
            let response = Packet::new(host_ip, packet.src_ip, seg);
            self.transmit(to, response, false, Duration::ZERO);
        }

        // Run the attached service for any connection with fresh data.
        for conn in delivery.data_ready.drain(..) {
            self.run_service(to, conn);
        }
        self.delivery_scratch = delivery;

        // Flush sends that were waiting for the handshake to finish, then
        // evict buffers whose connection died before establishing. The slab's
        // pending map makes the no-pending case — every event, in steady
        // state — a single emptiness check.
        if !self.hosts[index].pending.is_empty() {
            self.flush_pending(to);
            self.evict_dead_pending(to);
        }
        Ok(true)
    }

    fn run_service(&mut self, host_id: HostId, conn: ConnId) {
        let index = host_id.0 as usize;
        let mut responses = std::mem::take(&mut self.response_scratch);
        let reply = self
            .hosts
            .get_mut(index)
            .and_then(|slot| Self::serve(&mut slot.host, conn, &mut responses));
        if let Some((delay, remote, ip)) = reply {
            let mut segments = std::mem::take(&mut self.segment_scratch);
            for chunk in responses.drain(..) {
                segments.clear();
                if self.hosts[index].host.send_bytes_into(conn, chunk, &mut segments).is_err() {
                    break;
                }
                for seg in segments.drain(..) {
                    let pkt = Packet::new(ip, remote.ip, seg);
                    self.transmit(host_id, pkt, false, delay);
                }
            }
            self.segment_scratch = segments;
        }
        responses.clear();
        self.response_scratch = responses;
    }

    /// Hands the bytes that arrived on `conn` since the last read to the
    /// host's service as one shared slice of the received stream, collecting
    /// its reply chunks in `out`. Returns the service's processing delay and
    /// the reply's addressing (remote endpoint, local IP), or `None` when the
    /// host has no service or nothing new arrived.
    fn serve(
        host: &mut Host,
        conn: ConnId,
        out: &mut Vec<Bytes>,
    ) -> Option<(Duration, SocketAddr, IpAddr)> {
        host.service_mut()?;
        let data = host.read_new_bytes(conn);
        if data.is_empty() {
            return None;
        }
        let service = host.service_mut()?;
        service.on_data(conn, &data, out);
        let delay = service.processing_delay();
        Some((delay, host.connection_remote(conn)?, host.ip()))
    }

    fn flush_pending(&mut self, host_id: HostId) {
        let mut ready = std::mem::take(&mut self.pending_scratch);
        let HostSlot { host, pending, .. } = &mut self.hosts[host_id.0 as usize];
        pending.take_where(|conn| host.is_established(conn), &mut ready);
        // Connection order, each connection's sends in send order (the sort
        // is stable).
        ready.sort_by_key(|(conn, _)| *conn);
        for (conn, data) in ready.drain(..) {
            // Established now, so this sends immediately.
            let _ = self.send_bytes(host_id, conn, data);
        }
        self.pending_scratch = ready;
    }

    /// Evicts pre-handshake send buffers whose connection on `host_id` was
    /// reset or closed without ever establishing, so a failed connection can
    /// never leak its buffered data for the simulator's lifetime. The dropped
    /// volume is surfaced in the trace summary.
    fn evict_dead_pending(&mut self, host_id: HostId) {
        let mut dead = std::mem::take(&mut self.pending_scratch);
        let HostSlot { host, pending, .. } = &mut self.hosts[host_id.0 as usize];
        pending.take_where(
            |conn| {
                matches!(
                    host.connection_state(conn),
                    None | Some(TcpState::Closed) | Some(TcpState::Reset)
                )
            },
            &mut dead,
        );
        if !dead.is_empty() {
            let bytes: usize = dead.iter().map(|(_, data)| data.len()).sum();
            self.trace
                .note_dropped_pending(dead.len() as u64, bytes as u64);
        }
        dead.clear();
        self.pending_scratch = dead;
    }

    /// Runs the simulation until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::EventBudgetExhausted`] if the event budget runs out
    /// before the queue drains.
    pub fn run_until_idle(&mut self) -> Result<(), NetError> {
        while self.step()? {}
        Ok(())
    }
}

/// A convenience service that answers every request chunk with a fixed byte
/// string: the race world's genuine server, and a stand-in in tests.
///
/// The response is held as [`Bytes`]: every reply shares the one buffer with
/// the segments on the wire, the packet trace and the receiver.
#[derive(Debug, Clone)]
pub struct FixedResponder {
    response: Bytes,
    delay: Duration,
}

impl FixedResponder {
    /// Creates a responder that always replies with `response` after `delay`.
    pub fn new(response: impl Into<Bytes>, delay: Duration) -> Self {
        FixedResponder {
            response: response.into(),
            delay,
        }
    }
}

impl Service for FixedResponder {
    fn on_data(&mut self, _conn: ConnId, _data: &Bytes, out: &mut Vec<Bytes>) {
        out.push(self.response.clone());
    }

    fn processing_delay(&self) -> Duration {
        self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacker::Injector;
    use crate::link::MediumKind;

    /// A tap that answers every observed `GET /my.js` with a spoofed
    /// `parasite();` response.
    struct MyJsTap(Injector);

    impl Tap for MyJsTap {
        fn observe(&mut self, packet: &Packet, _now: Instant, out: &mut Vec<Injection>) {
            if packet.segment.payload.starts_with(b"GET /my.js") {
                let response = Bytes::from_static(b"HTTP/1.1 200 OK\r\n\r\nparasite();");
                self.0.forge_response_bytes(packet, response, out);
            }
        }
    }

    fn basic_world() -> (Simulator, HostId, HostId, MediumId, MediumId) {
        world_on(Simulator::new(7))
    }

    /// [`basic_world`] built on a caller-configured simulator.
    fn world_on(mut sim: Simulator) -> (Simulator, HostId, HostId, MediumId, MediumId) {
        // 2 ms WiFi hop, 40 ms WAN hop: the geometry of the paper's scenario.
        let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
        let wan = sim.add_medium(MediumKind::WideArea, 40_000);
        let client = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), wifi);
        let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
        sim.listen(server, 80);
        (sim, client, server, wifi, wan)
    }

    #[test]
    fn request_response_round_trip() {
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"HTTP/1.1 200 OK\r\n\r\nhello"[..], Duration::from_micros(500))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"GET / HTTP/1.1\r\nHost: example.org\r\n\r\n")
            .unwrap();
        sim.run_until_idle().unwrap();

        // Server saw the request.
        let sconn = sim.connections(server)[0];
        assert!(sim.received(server, sconn).starts_with(b"GET /"));
        // Client got the canned response.
        assert_eq!(sim.received(client, conn), b"HTTP/1.1 200 OK\r\n\r\nhello");
        // Round trip took at least two WAN traversals.
        assert!(sim.now().as_micros() >= 2 * 40_000);
    }

    #[test]
    fn eavesdropper_wins_injection_race_on_shared_wifi() {
        let (mut sim, client, server, wifi, _) = basic_world();
        sim.set_service(
            server,
            Box::new(FixedResponder::new(
                &b"HTTP/1.1 200 OK\r\n\r\ngenuine-script();"[..],
                Duration::from_micros(500),
            )),
        );
        let tap = MyJsTap(Injector::default());
        sim.add_tap(wifi, Box::new(tap));

        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"GET /my.js HTTP/1.1\r\nHost: somesite.com\r\n\r\n")
            .unwrap();
        sim.run_until_idle().unwrap();

        let body = sim.received(client, conn);
        let text = String::from_utf8_lossy(&body);
        assert!(text.contains("parasite()"), "victim should have accepted the spoofed payload: {text}");
        assert!(!text.contains("genuine-script"), "genuine response must be dropped as duplicate: {text}");
        // The trace shows at least one injected transmission.
        assert!(sim.trace().injected().count() >= 1);
    }

    #[test]
    fn a_pre_sized_world_runs_exactly_like_an_unsized_one() {
        // Enough victims that the server outgrows its scan and demultiplexes
        // through its table; every third one asks for an object the tap
        // ignores.
        let clients = 3 * crate::endpoint::DEMUX_SCAN_LIMIT + 5;
        let run = |reserve: bool| {
            let (mut sim, _, server, wifi, _) = basic_world();
            sim.set_service(
                server,
                Box::new(FixedResponder::new(
                    &b"HTTP/1.1 200 OK\r\n\r\ngenuine-script();"[..],
                    Duration::from_micros(500),
                )),
            );
            sim.add_tap(wifi, Box::new(MyJsTap(Injector::default())));
            if reserve {
                sim.reserve_hosts(clients);
                sim.host_mut(server).reserve_connections(clients);
            }
            let mut conns = Vec::new();
            for index in 0..clients {
                let ip = IpAddr::new(10, 0, 1, index as u8);
                let client = sim.add_host("victim", ip, wifi);
                let conn = sim.connect(client, server, 80).unwrap();
                let path: &[u8] = if index % 3 == 0 { b"/other.js" } else { b"/my.js" };
                let request = [&b"GET "[..], path, b" HTTP/1.1\r\nHost: somesite.com\r\n\r\n"].concat();
                sim.send(client, conn, &request).unwrap();
                conns.push((client, conn));
            }
            sim.run_until_idle().unwrap();
            let mut received: Vec<Bytes> =
                conns.iter().map(|&(client, conn)| sim.received(client, conn)).collect();
            received.extend(sim.connections(server).into_iter().map(|conn| sim.received(server, conn)));
            (sim.trace().render(), *sim.trace().summary(), received)
        };
        let unsized_world = run(false);
        assert_eq!(run(true), unsized_world);
        assert_eq!(unsized_world.2.len(), 2 * clients);
        assert!(unsized_world.1.injected_events > 0);
    }

    #[test]
    fn no_injection_on_switched_network() {
        let mut sim = Simulator::new(7);
        let lan = sim.add_medium(MediumKind::Switched, 2_000);
        let wan = sim.add_medium(MediumKind::WideArea, 40_000);
        let client = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), lan);
        let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
        sim.listen(server, 80);
        sim.set_service(
            server,
            Box::new(FixedResponder::new(
                &b"HTTP/1.1 200 OK\r\n\r\ngenuine-script();"[..],
                Duration::from_micros(500),
            )),
        );
        let tap = MyJsTap(Injector::default());
        sim.add_tap(lan, Box::new(tap));

        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"GET /my.js HTTP/1.1\r\n\r\n").unwrap();
        sim.run_until_idle().unwrap();

        let text = String::from_utf8_lossy(&sim.received(client, conn)).to_string();
        assert!(text.contains("genuine-script"));
        assert!(!text.contains("parasite"));
        assert_eq!(sim.trace().injected().count(), 0);
    }

    #[test]
    fn pending_send_is_flushed_after_handshake() {
        let (mut sim, client, server, _, _) = basic_world();
        let conn = sim.connect(client, server, 80).unwrap();
        // Queued before the handshake completes.
        sim.send(client, conn, b"early data").unwrap();
        assert_eq!(sim.pending_send_buffers(), 1);
        sim.run_until_idle().unwrap();
        assert_eq!(sim.pending_send_buffers(), 0);
        let sconn = sim.connections(server)[0];
        assert_eq!(sim.received(server, sconn), b"early data");
        // Flushed, not dropped.
        assert_eq!(sim.trace().summary().pending_chunks_dropped, 0);
    }

    #[test]
    fn several_pending_sends_flush_per_connection_in_send_order() {
        let (mut sim, client, server, _, _) = basic_world();
        let first = sim.connect(client, server, 80).unwrap();
        let second = sim.connect(client, server, 80).unwrap();
        let doomed = sim.connect(client, server, 8080).unwrap();
        sim.send(client, second, b"b1").unwrap();
        sim.send(client, doomed, b"lost").unwrap();
        sim.send(client, first, b"a1").unwrap();
        sim.send(client, second, b"b2").unwrap();
        sim.send(client, doomed, b"gone").unwrap();
        assert_eq!(sim.pending_send_buffers(), 5);
        sim.run_until_idle().unwrap();
        assert_eq!(sim.pending_send_buffers(), 0);
        let server_conns = sim.connections(server);
        assert_eq!(sim.received(server, server_conns[0]), b"a1");
        assert_eq!(sim.received(server, server_conns[1]), b"b1b2");
        let summary = sim.trace().summary();
        assert_eq!(summary.pending_chunks_dropped, 2);
        assert_eq!(summary.pending_bytes_dropped, 8);
    }

    #[test]
    fn connect_to_closed_port_is_reset() {
        let (mut sim, client, server, _, _) = basic_world();
        let conn = sim.connect(client, server, 8080).unwrap();
        sim.run_until_idle().unwrap();
        assert!(!sim.host(client).is_established(conn));
    }

    #[test]
    fn send_on_a_dead_connection_is_rejected_not_buffered() {
        let (mut sim, client, server, _, _) = basic_world();
        let conn = sim.connect(client, server, 8080).unwrap();
        sim.run_until_idle().unwrap();
        // The RST has landed and the queue is idle: a late send must error
        // instead of parking a buffer nothing will ever evict.
        let err = sim.send(client, conn, b"late data").unwrap_err();
        assert!(matches!(err, NetError::InvalidState { .. }));
        assert_eq!(sim.pending_send_buffers(), 0);
    }

    #[test]
    fn reset_connection_evicts_pending_sends() {
        let (mut sim, client, server, _, _) = basic_world();
        // Nobody listens on 8080: the SYN is answered with RST, so the
        // buffered early data can never be flushed and must be evicted.
        let conn = sim.connect(client, server, 8080).unwrap();
        sim.send(client, conn, b"doomed payload").unwrap();
        assert_eq!(sim.pending_send_buffers(), 1);
        sim.run_until_idle().unwrap();
        assert!(!sim.host(client).is_established(conn));
        assert_eq!(sim.pending_send_buffers(), 0, "pending buffer leaked past the RST");
        let summary = sim.trace().summary();
        assert_eq!(summary.pending_chunks_dropped, 1);
        assert_eq!(summary.pending_bytes_dropped, b"doomed payload".len() as u64);
    }

    #[test]
    fn trace_records_flow_in_order() {
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        sim.run_until_idle().unwrap();
        let trace = sim.trace();
        assert!(trace.len() >= 5, "handshake + data + ack should be recorded, got {}", trace.len());
        assert!(trace.render().contains("victim"));
    }

    #[test]
    fn summary_only_trace_counts_without_retaining() {
        let (mut sim, client, server, _, _) =
            world_on(Simulator::new(7).with_trace_mode(TraceMode::SummaryOnly));
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        sim.run_until_idle().unwrap();
        let trace = sim.trace();
        assert!(trace.is_empty());
        assert!(trace.summary().total_events >= 5);
        assert!(trace.summary().payload_bytes >= 7);
        // Nothing retained: every event seen counts as recorder-dropped.
        assert_eq!(trace.recorder_dropped(), trace.summary().total_events);
    }

    #[test]
    fn ring_trace_is_bounded_and_keeps_the_tail() {
        let (mut sim, client, server, _, _) =
            world_on(Simulator::new(7).with_trace_mode(TraceMode::Ring(3)));
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        sim.run_until_idle().unwrap();
        let trace = sim.trace();
        assert_eq!(trace.len(), 3);
        let total = trace.summary().total_events;
        assert!(total > 3);
        assert_eq!(trace.recorder_dropped(), total - 3);
        // The retained tail is the most recent transmissions.
        let last = trace.events().last().unwrap();
        assert_eq!(last.delivered_at.as_micros(), sim.now().as_micros());
    }

    #[test]
    fn take_trace_keeps_interned_names_valid() {
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        sim.run_until_idle().unwrap();
        let first = sim.take_trace();
        assert!(first.render().contains("victim"));
        // A second exchange records into the fresh trace with the same names.
        sim.send(client, conn, b"again").unwrap();
        sim.run_until_idle().unwrap();
        assert!(sim.trace().render().contains("victim -> server"));
    }

    #[test]
    fn event_budget_defaults_and_is_configurable() {
        let sim = Simulator::new(1);
        assert_eq!(sim.event_budget(), DEFAULT_EVENT_BUDGET);
        let sim = Simulator::new(1).with_event_budget(10_000_000);
        assert_eq!(sim.event_budget(), 10_000_000);
        let mut sim = Simulator::new(1);
        sim.set_event_budget(42);
        assert_eq!(sim.event_budget(), 42);
    }

    #[test]
    fn tiny_event_budget_reports_a_typed_error() {
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_event_budget(2);
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        // The handshake alone takes more than two events.
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        let err = sim.run_until_idle().unwrap_err();
        assert_eq!(err, NetError::EventBudgetExhausted { budget: 2 });
        assert_eq!(sim.events_processed(), 2);
        // The simulator survives the error instead of poisoning the process.
        assert!(err.to_string().contains("event budget exhausted"));
    }

    #[test]
    fn exhausted_run_resumes_without_losing_events() {
        // The budget error leaves the in-flight event queued: raising the
        // budget and resuming completes the exchange as if never interrupted.
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_event_budget(2);
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        assert!(sim.run_until_idle().is_err());
        sim.set_event_budget(DEFAULT_EVENT_BUDGET);
        sim.run_until_idle().unwrap();
        assert_eq!(sim.received(client, conn), b"resp");
    }

    #[test]
    fn shared_budget_is_debited_across_simulators() {
        let shared = SharedBudget::new(1_000);
        let run_one = |shared: &SharedBudget| {
            let (mut sim, client, server, _, _) = basic_world();
            sim.set_shared_budget(shared.clone());
            let conn = sim.connect(client, server, 80).unwrap();
            sim.send(client, conn, b"req").unwrap();
            sim.run_until_idle().unwrap();
            sim.events_processed()
        };
        let first = run_one(&shared);
        let second = run_one(&shared);
        assert_eq!(shared.total(), 1_000);
        assert_eq!(shared.remaining(), 1_000 - first - second);
        assert!(!shared.exhausted());
    }

    #[test]
    fn exhausted_shared_budget_is_typed_and_refill_resumes_losslessly() {
        // Reference: the same scenario with no budget pressure at all.
        let reference = {
            let (mut sim, client, server, _, _) = basic_world();
            sim.set_service(
                server,
                Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
            );
            let conn = sim.connect(client, server, 80).unwrap();
            sim.send(client, conn, b"req").unwrap();
            sim.run_until_idle().unwrap();
            (sim.trace().render(), *sim.trace().summary(), sim.events_processed())
        };

        let shared = SharedBudget::new(3);
        let (mut sim, client, server, _, _) = basic_world();
        sim.set_shared_budget(shared.clone());
        sim.set_service(
            server,
            Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
        );
        let conn = sim.connect(client, server, 80).unwrap();
        sim.send(client, conn, b"req").unwrap();
        let err = sim.run_until_idle().unwrap_err();
        assert_eq!(err, NetError::EventBudgetExhausted { budget: 3 });
        assert!(shared.exhausted());
        assert_eq!(sim.events_processed(), 3);

        // Refill with a fresh pool and resume: the interrupted run replays to
        // a byte-identical trace, because the budget check fires before the
        // pop.
        let refill = SharedBudget::new(10_000);
        sim.set_shared_budget(refill.clone());
        sim.run_until_idle().unwrap();
        assert_eq!(sim.trace().render(), reference.0);
        assert_eq!(*sim.trace().summary(), reference.1);
        assert_eq!(sim.events_processed(), reference.2);
        assert_eq!(refill.remaining(), 10_000 - (reference.2 - 3));
    }

    #[test]
    fn zero_jitter_keeps_delivery_times_identical() {
        let run = |jitter: Option<Duration>| {
            let (mut sim, client, server, wifi, _) = basic_world();
            if let Some(j) = jitter {
                sim.set_medium_jitter(wifi, j);
            }
            sim.set_service(
                server,
                Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
            );
            let conn = sim.connect(client, server, 80).unwrap();
            sim.send(client, conn, b"req").unwrap();
            sim.run_until_idle().unwrap();
            sim.trace().render()
        };
        assert_eq!(run(None), run(Some(Duration::ZERO)));
    }

    #[test]
    fn jittered_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            let wifi = sim.add_medium(MediumKind::SharedWireless, 2_000);
            let wan = sim.add_medium(MediumKind::WideArea, 40_000);
            sim.set_medium_jitter(wifi, Duration::from_micros(700));
            sim.set_medium_jitter(wan, Duration::from_micros(4_000));
            let client = sim.add_host("victim", IpAddr::new(10, 0, 0, 2), wifi);
            let server = sim.add_host("server", IpAddr::new(203, 0, 113, 10), wan);
            sim.listen(server, 80);
            sim.set_service(
                server,
                Box::new(FixedResponder::new(&b"resp"[..], Duration::from_micros(100))),
            );
            let conn = sim.connect(client, server, 80).unwrap();
            sim.send(client, conn, b"req").unwrap();
            sim.run_until_idle().unwrap();
            sim.trace().render()
        };
        // Same seed, same workload: byte-identical traces despite jitter.
        assert_eq!(run(11), run(11));
        // A different seed draws different jitter.
        assert_ne!(run(11), run(12));
    }
}
