//! The benchmark's one door into the system under test.
//!
//! Every call into the repository's crates goes through this file, so
//! an API rename elsewhere touches only this adapter. The rest of the
//! benchmark sees plain data (tables, packets, replies) and the few
//! handles defined here.
//!
//! Every layer runs at its `Default` configuration: the benchmark
//! measures the stack as it ships.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vr_control::{ControlConfig, ControlPlane};
use vr_engine::service::lookup_batch_mixed;
use vr_engine::{LookupService, ServiceConfig};
use vr_net::synth::{FamilySpec, PAPER_TABLE_PREFIXES};
use vr_net::{SkewedSpec, SkewedTraffic, UpdateMix, UpdateStream};
use vr_telemetry::MetricsRegistry;
use vr_wire::{FrameDecoder, Message, ServerConfig, WireClient, WireServer};

pub use vr_net::{Ipv4Prefix, NextHop, RouteUpdate, RoutingTable, VnId};

/// One packet as the lookup path consumes it: `(virtual network, dst)`.
pub type Packet = (VnId, u32);

/// Prefixes per table in the paper's worst-case family.
pub const PAPER_PREFIXES: usize = PAPER_TABLE_PREFIXES;

/// Virtual networks per family (the paper's K = 4 case).
const FAMILY_K: usize = 4;
/// Shared-core fraction of the family generator.
const SHARED_FRACTION: f64 = 0.5;
/// Next-hop pool of the family generator, reused by the update stream.
const NEXT_HOPS: NextHop = 16;
/// Bits per stored next-hop index (`JumpTrie` keeps them as `u16`).
const NHI_BITS: u64 = 16;
/// Bound on how long one reply may take before it counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Generates the paper's K = 4 family with `prefixes` routes per table.
///
/// # Errors
/// Generator failure, as text.
pub fn family(prefixes: usize, seed: u64) -> Result<Vec<RoutingTable>, String> {
    let mut spec = FamilySpec::paper_worst_case(FAMILY_K, SHARED_FRACTION, seed);
    spec.prefixes_per_table = prefixes;
    spec.generate()
        .map_err(|e| format!("family generation: {e}"))
}

/// The prefix of length `len` that covers `ip`.
#[must_use]
pub fn covering_prefix(ip: u32, len: u8) -> Ipv4Prefix {
    let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
    Ipv4Prefix::must(ip & mask, len)
}

/// The `(network, prefix)` an update targets.
#[must_use]
pub fn update_target(update: &RouteUpdate) -> (VnId, Ipv4Prefix) {
    match *update {
        RouteUpdate::Announce { vnid, prefix, .. } | RouteUpdate::Withdraw { vnid, prefix } => {
            (vnid, prefix)
        }
    }
}

/// Applies one update to a table mirror, exactly as the control plane's
/// last-writer-wins batch semantics define it.
pub fn apply_to_mirror(mirror: &mut [RoutingTable], update: &RouteUpdate) {
    match *update {
        RouteUpdate::Announce {
            vnid,
            prefix,
            next_hop,
        } => {
            mirror[usize::from(vnid)].insert(prefix, next_hop);
        }
        RouteUpdate::Withdraw { vnid, prefix } => {
            mirror[usize::from(vnid)].remove(&prefix);
        }
    }
}

/// Seeded lookup traffic: Zipf(`s`) over one concrete destination per
/// prefix of every table (`s = 0` is uniform).
pub struct Traffic(SkewedTraffic);

impl Traffic {
    /// # Errors
    /// Traffic-model construction failure, as text.
    pub fn new(tables: &[RoutingTable], s: f64, seed: u64) -> Result<Self, String> {
        SkewedTraffic::new(SkewedSpec::zipf(tables.len(), s, seed), tables)
            .map(Self)
            .map_err(|e| format!("traffic model: {e}"))
    }

    /// Draws one frame of `n` packets.
    pub fn frame(&mut self, n: usize) -> Vec<Packet> {
        self.0.pairs(n)
    }
}

/// Seeded route churn over a table family (the default BGP-like mix).
pub struct Updates(UpdateStream);

impl Updates {
    /// # Errors
    /// Update-stream construction failure, as text.
    pub fn new(tables: &[RoutingTable], seed: u64) -> Result<Self, String> {
        UpdateStream::new(tables.to_vec(), UpdateMix::default(), NEXT_HOPS, seed)
            .map(Self)
            .map_err(|e| format!("update stream: {e}"))
    }

    /// Draws one batch of `n` updates.
    pub fn batch(&mut self, n: usize) -> Vec<RouteUpdate> {
        self.0.batch(n)
    }
}

/// When each step of one stack set-up finished.
#[derive(Debug, Clone, Copy)]
pub struct SetupStamps {
    /// Tables handed to `LookupService::new`.
    pub start: Instant,
    /// `LookupService::new` returned.
    pub built: Instant,
    /// `ControlPlane::new` returned.
    pub planed: Instant,
    /// `WireServer::serve_tcp` returned.
    pub serving: Instant,
    /// The first `Pong` arrived.
    pub ponged: Instant,
}

/// A serving stack: `WireServer::serve_tcp` → `ControlPlane` →
/// `LookupService` → `JumpTrie`, on a loopback port.
pub struct Stack {
    server: WireServer<ControlPlane>,
    registry: Arc<MetricsRegistry>,
    addr: SocketAddr,
    batch_width: usize,
}

impl Stack {
    /// Builds and starts a stack over `tables`, then waits for the
    /// first `Pong` on a throwaway connection.
    ///
    /// # Errors
    /// Any construction, bind, connect or ping failure, as text.
    pub fn start(tables: Vec<RoutingTable>) -> Result<(Self, SetupStamps), String> {
        let start = Instant::now();
        let service = LookupService::new(tables, ServiceConfig::default())
            .map_err(|e| format!("lookup service: {e}"))?;
        let built = Instant::now();
        let batch_width = service.batch_width();
        let plane = ControlPlane::new(service, ControlConfig::default())
            .map_err(|e| format!("control plane: {e}"))?;
        let planed = Instant::now();
        let registry = Arc::new(MetricsRegistry::new(1));
        let server = WireServer::serve_tcp(
            "127.0.0.1:0",
            plane,
            ServerConfig::default(),
            Some(&registry),
        )
        .map_err(|e| format!("serve_tcp: {e}"))?;
        let serving = Instant::now();
        let addr = server
            .local_addr()
            .ok_or_else(|| "server has no TCP address".to_string())?;
        let stack = Self {
            server,
            registry,
            addr,
            batch_width,
        };
        stack.connect()?.ping()?;
        let ponged = Instant::now();
        let stamps = SetupStamps {
            start,
            built,
            planed,
            serving,
            ponged,
        };
        Ok((stack, stamps))
    }

    /// Batch width the service's construction sweep picked.
    #[must_use]
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Opens a client connection.
    ///
    /// # Errors
    /// Connect failure, as text.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr)
    }

    /// Stops the server and hands back its backend plus the wire
    /// layer's shed count.
    ///
    /// # Errors
    /// The backend thread did not come back.
    pub fn shutdown(self) -> Result<Served, String> {
        let shed = self
            .registry
            .snapshot()
            .counters
            .iter()
            .filter(|c| c.name.starts_with("vr_wire_shed_"))
            .map(|c| c.value)
            .sum();
        let plane = self
            .server
            .shutdown()
            .ok_or_else(|| "wire backend thread panicked".to_string())?;
        Ok(Served { plane, shed })
    }
}

/// What a request came back with.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Lookup answers, in request order, and the generation they used.
    Lookup {
        /// Snapshot generation.
        generation: u64,
        /// Per-packet next hops.
        results: Vec<Option<NextHop>>,
    },
    /// A route-update batch was applied.
    Ack {
        /// Generation now live.
        generation: u64,
    },
    /// Admission control shed the request.
    Overloaded,
    /// The server refused the request.
    Error(String),
}

/// One blocking client connection.
pub struct Client(WireClient);

impl Client {
    /// Connects to a `VRW1` server.
    ///
    /// # Errors
    /// Connect failure, as text.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut inner = WireClient::connect_tcp(addr).map_err(|e| format!("connect: {e}"))?;
        inner
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Self(inner))
    }

    fn reply(result: Result<Message, vr_wire::WireError>) -> Result<Reply, String> {
        Ok(match result.map_err(|e| format!("transport: {e}"))? {
            Message::LookupResponse {
                generation,
                results,
                ..
            } => Reply::Lookup {
                generation,
                results,
            },
            Message::UpdateAck { generation, .. } => Reply::Ack { generation },
            Message::Overloaded { .. } => Reply::Overloaded,
            Message::ErrorReply { message, .. } => Reply::Error(message),
            other => Reply::Error(format!("unexpected frame type {}", other.frame_type())),
        })
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    /// Transport failure or a wrong reply, as text.
    pub fn ping(&mut self) -> Result<(), String> {
        self.0.ping().map(|_| ()).map_err(|e| format!("ping: {e}"))
    }

    /// Looks one frame up.
    ///
    /// # Errors
    /// Transport or framing failure, as text.
    pub fn lookup(&mut self, packets: &[Packet]) -> Result<Reply, String> {
        Self::reply(self.0.lookup(packets))
    }

    /// Sends one route-update batch.
    ///
    /// # Errors
    /// Transport or framing failure, as text.
    pub fn apply(&mut self, updates: &[RouteUpdate]) -> Result<Reply, String> {
        Self::reply(self.0.apply_updates(updates))
    }
}

/// Counts the service's own registry holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounts {
    /// Worker batches (`vr_service_batches_total`).
    pub batches: u64,
    /// Snapshot swaps (`vr_service_swaps_total`).
    pub swaps: u64,
    /// Swaps that went through the incremental patch path.
    pub incremental: u64,
    /// Control-plane re-merges (`vr_control_remerges_total`).
    pub remerges: u64,
}

fn service_counts(service: &LookupService) -> ServiceCounts {
    let Some(snap) = service.telemetry_snapshot() else {
        return ServiceCounts::default();
    };
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    ServiceCounts {
        batches: count("vr_service_batches_total"),
        swaps: count("vr_service_swaps_total"),
        incremental: count("vr_service_incremental_publishes_total"),
        remerges: count("vr_control_remerges_total"),
    }
}

/// The backend a stopped server handed back.
pub struct Served {
    plane: ControlPlane,
    shed: u64,
}

impl Served {
    /// Frames shed by admission control (sum of `vr_wire_shed_*`).
    #[must_use]
    pub fn shed_frames(&self) -> u64 {
        self.shed
    }

    /// The service registry's counts.
    #[must_use]
    pub fn counts(&self) -> ServiceCounts {
        service_counts(self.plane.service())
    }

    /// `LookupService::process` on one frame.
    pub fn process(&mut self, packets: &[Packet]) -> Vec<Option<NextHop>> {
        self.plane.service_mut().process(packets)
    }

    /// `service::lookup_batch_mixed` on the served snapshot.
    pub fn walk(&self, packets: &[Packet], out: &mut [Option<NextHop>]) {
        let snapshot = self.plane.service().snapshot();
        lookup_batch_mixed(&snapshot.trie, packets, out);
    }

    /// A `JumpTrie::lookup_vn` loop on the served snapshot.
    pub fn scalar(&self, packets: &[Packet], out: &mut [Option<NextHop>]) {
        let snapshot = self.plane.service().snapshot();
        for (slot, &(vn, dst)) in out.iter_mut().zip(packets) {
            *slot = snapshot.trie.lookup_vn(usize::from(vn), dst);
        }
    }

    /// The served trie's footprint (`JumpTrie::memory_bits`), MiB.
    #[must_use]
    pub fn trie_memory_mib(&self) -> f64 {
        let (root, words, nhis) = self.plane.service().snapshot().trie.memory_bits(NHI_BITS);
        (root + words + nhis) as f64 / 8.0 / (1024.0 * 1024.0)
    }
}

/// A control plane built outside any server, for timing publishes.
pub struct Plane(ControlPlane);

impl Plane {
    /// # Errors
    /// Construction failure, as text.
    pub fn new(tables: Vec<RoutingTable>) -> Result<Self, String> {
        let service = LookupService::new(tables, ServiceConfig::default())
            .map_err(|e| format!("lookup service: {e}"))?;
        ControlPlane::new(service, ControlConfig::default())
            .map(Self)
            .map_err(|e| format!("control plane: {e}"))
    }

    /// `ControlPlane::apply_batch`; returns the live generation.
    ///
    /// # Errors
    /// The plane refused the batch, as text.
    pub fn apply_batch(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        self.0
            .apply_batch(updates)
            .map(|outcome| outcome.generation)
            .map_err(|e| format!("apply_batch: {e}"))
    }

    /// The plane's service registry counts.
    #[must_use]
    pub fn counts(&self) -> ServiceCounts {
        service_counts(self.0.service())
    }
}

/// A lookup service built outside any server, for timing publishes.
pub struct Service(LookupService);

impl Service {
    /// # Errors
    /// Construction failure, as text.
    pub fn new(tables: Vec<RoutingTable>) -> Result<Self, String> {
        LookupService::new(tables, ServiceConfig::default())
            .map(Self)
            .map_err(|e| format!("lookup service: {e}"))
    }

    /// `LookupService::apply_updates`; returns the live generation.
    ///
    /// # Errors
    /// The service refused the batch, as text.
    pub fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        self.0
            .apply_updates(updates)
            .map_err(|e| format!("apply_updates: {e}"))
    }
}

/// Encodes a `LookupRequest` frame.
#[must_use]
pub fn encode_request(id: u64, packets: &[Packet]) -> Vec<u8> {
    vr_wire::frame::encode(&Message::LookupRequest {
        id,
        packets: packets.to_vec(),
    })
}

/// Encodes a `LookupResponse` frame.
#[must_use]
pub fn encode_response(id: u64, generation: u64, results: &[Option<NextHop>]) -> Vec<u8> {
    vr_wire::frame::encode(&Message::LookupResponse {
        id,
        generation,
        results: results.to_vec(),
    })
}

/// Decodes one complete frame with a fresh `FrameDecoder`; returns how
/// many items (packets or results) it carried.
///
/// # Errors
/// The bytes do not hold exactly one lookup frame.
pub fn decode(bytes: &[u8]) -> Result<usize, String> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    match decoder.next_message() {
        Ok(Some(Message::LookupRequest { packets, .. })) => Ok(packets.len()),
        Ok(Some(Message::LookupResponse { results, .. })) => Ok(results.len()),
        Ok(Some(other)) => Err(format!("decoded frame type {}", other.frame_type())),
        Ok(None) => Err("incomplete frame".into()),
        Err(e) => Err(format!("decode: {e}")),
    }
}

/// Validates a Chrome trace-event document with the observability
/// plane's checker; returns its event count.
///
/// # Errors
/// The checker's complaint.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    vr_obs::check_chrome_trace(text)
}

/// Exact-match next hop of `prefix` (`RoutingTable::get`).
#[must_use]
pub fn exact(table: &RoutingTable, prefix: &Ipv4Prefix) -> Option<NextHop> {
    table.get(prefix)
}

/// The table's own linear-scan LPM (`RoutingTable::lookup`).
#[must_use]
pub fn scan_lookup(table: &RoutingTable, ip: u32) -> Option<NextHop> {
    table.lookup(ip)
}

/// Whether `prefix` covers `ip`.
#[must_use]
pub fn covers(prefix: &Ipv4Prefix, ip: u32) -> bool {
    prefix.contains(ip)
}

/// Builds a table from `(address, length, next hop)` routes.
#[cfg(test)]
#[must_use]
pub fn table_from(routes: &[(u32, u8, NextHop)]) -> RoutingTable {
    let mut table = RoutingTable::new();
    for &(addr, len, next_hop) in routes {
        table.insert(covering_prefix(addr, len), next_hop);
    }
    table
}

/// A scripted stand-in server for tests: every lookup frame on the one
/// connection it accepts gets the same canned reply.
#[cfg(test)]
pub mod canned {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;

    use vr_wire::{FrameDecoder, Message, OverloadReason};

    use super::NextHop;

    /// What the stand-in answers.
    #[derive(Debug, Clone, Copy)]
    pub enum Canned {
        /// `Overloaded(QueueFull)` for every frame.
        Overloaded,
        /// A generation-0 response with this next hop for every packet.
        Answer(NextHop),
    }

    /// Binds a loopback port and serves one connection until it closes.
    pub fn serve(canned: Canned) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let handle = std::thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    return;
                }
                decoder.feed(&buf[..n]);
                while let Ok(Some(Message::LookupRequest { id, packets })) = decoder.next_message()
                {
                    let reply = match canned {
                        Canned::Overloaded => Message::Overloaded {
                            id,
                            reason: OverloadReason::QueueFull,
                            retry_after_ms: 1,
                        },
                        Canned::Answer(nh) => Message::LookupResponse {
                            id,
                            generation: 0,
                            results: vec![Some(nh); packets.len()],
                        },
                    };
                    if stream.write_all(&vr_wire::frame::encode(&reply)).is_err() {
                        return;
                    }
                }
            }
        });
        Ok((addr, handle))
    }
}
