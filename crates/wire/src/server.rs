//! Blocking socket server for the `VRW1` protocol.
//!
//! Shape: an accept loop per listener (TCP and/or Unix-domain) admits
//! connections through the shared [`vr_obs::AcceptGate`]; each admitted
//! connection gets one thread that runs every request to completion:
//! read → decode → admit → resolve → encode → write. There is no
//! backend thread and no queue between threads.
//!
//! * **Lookups** resolve through the backend's read handle
//!   ([`WireBackend::reader`]), which pins the live RCU snapshot once
//!   per frame. The `(results, generation)` pair comes from that one
//!   pin, so a response can never straddle a publish — torn-free by
//!   construction, extending the engine's never-torn batch guarantee
//!   across the wire. Connection threads never wait on each other to
//!   read.
//! * **Route-update batches** lock the backend; they are the only
//!   requests that serialize.
//!
//! A connection has at most one frame in progress, so at most
//! `max_connections` frames are in progress server-wide. Admission
//! control answers in-protocol instead of queueing:
//!
//! 1. **Connection gate** — past `max_connections`, the socket gets an
//!    `Overloaded(Connections)` frame via the shared half-close-drain
//!    helper and is closed.
//! 2. **VN check** — a frame naming a virtual network the backend does
//!    not host gets `ErrorReply(UnknownVn)` before it reaches the walk.
//! 3. **Token bucket** — per-connection packets-per-second budget;
//!    over-budget frames get `Overloaded(RateLimited)`, and a frame
//!    larger than the whole burst (which no wait could admit) gets
//!    `ErrorReply(BadRequest)`. The connection stays open either way.
//! 4. **Slow reader** — a reply write that does not finish within
//!    `write_timeout_ms` (the peer stopped reading) disconnects the
//!    peer, freeing its thread and its gate slot.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use vr_engine::LookupReader;
use vr_net::{NextHop, RouteUpdate, VnId};
use vr_obs::{shed_with, AcceptGate, ShedStream};
use vr_telemetry::{Counter, MetricsRegistry, Stopwatch};

use crate::frame::{encode, encode_into, ErrorCode, Message, OverloadReason};
use crate::FrameDecoder;

/// Reader poll granularity: the read timeout that lets an idle
/// connection notice a stopping server.
const READER_TICK: Duration = Duration::from_millis(100);

/// Tuning for [`WireServer`]. Every shipped caller serves with
/// `Default`; the rate-limit phase of the `wire_smoke` harness and the
/// unit tests override fields to force each admission stage.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection bound enforced by the accept gate — and,
    /// with one frame in progress per connection, the bound on frames
    /// in progress server-wide.
    pub max_connections: usize,
    /// Per-connection token-bucket rate in packets/updates per second;
    /// `0` disables rate limiting.
    pub rate_limit_pps: u64,
    /// Token-bucket burst capacity in packets; `0` means one second's
    /// worth of `rate_limit_pps`. A frame larger than the burst is
    /// refused with `BadRequest`.
    pub rate_burst: u64,
    /// Back-off hint stamped into `Overloaded` frames.
    pub retry_after_ms: u32,
    /// Socket write timeout: a reply that cannot be written within it
    /// marks the peer a slow reader and closes the connection.
    pub write_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            rate_limit_pps: 0,
            rate_burst: 0,
            retry_after_ms: 20,
            write_timeout_ms: 2_000,
        }
    }
}

/// What the server needs from a lookup/control engine: a read handle
/// for lookups and the update path.
pub trait WireBackend: Send + 'static {
    /// The read handle every connection thread resolves lookups through.
    type Reader: WireReader;
    /// Hands out the read handle; called once when the server starts.
    fn reader(&self) -> Self::Reader;
    /// Applies a route-update batch atomically (one publish); returns
    /// the generation now live, or a human-readable refusal. Runs under
    /// the server's backend lock, so update batches serialize.
    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String>;
}

/// The read side of a [`WireBackend`], shared by every connection
/// thread without locking the backend.
pub trait WireReader: Send + Sync + 'static {
    /// Virtual networks hosted. The server refuses any frame naming a
    /// VN at or above this count before it reaches [`Self::lookup`].
    fn networks(&self) -> usize;
    /// Resolves a packet batch against one pinned snapshot; returns
    /// per-packet next hops in input order plus that snapshot's
    /// generation.
    fn lookup(&self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64);
}

impl WireReader for LookupReader {
    fn networks(&self) -> usize {
        LookupReader::networks(self)
    }

    fn lookup(&self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
        LookupReader::lookup(self, packets)
    }
}

impl WireBackend for vr_control::ControlPlane {
    type Reader = LookupReader;

    fn reader(&self) -> LookupReader {
        self.service().reader()
    }

    fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
        self.apply_batch(updates)
            .map(|outcome| outcome.generation)
            .map_err(|e| e.to_string())
    }
}

/// A socket both listeners produce: readable, writable, sheddable, and
/// able to take the connection's read tick and write timeout.
trait WireStream: ShedStream + Send + 'static {
    fn set_timeouts(&self, read: Duration, write: Duration);
}

macro_rules! wire_stream {
    ($ty:ty) => {
        impl WireStream for $ty {
            fn set_timeouts(&self, read: Duration, write: Duration) {
                let _ = self.set_read_timeout(Some(read));
                let _ = self.set_write_timeout(Some(write));
            }
        }
    };
}

wire_stream!(TcpStream);
#[cfg(unix)]
wire_stream!(UnixStream);

/// Counters the server publishes when given a registry. Handles are
/// cheap clones.
struct WireMetrics {
    connections: Option<Counter>,
    shed_connections: Option<Counter>,
    shed_rate_limited: Option<Counter>,
    slow_reader_disconnects: Option<Counter>,
    requests: Option<Counter>,
    lookup_packets: Option<Counter>,
    updates: Option<Counter>,
    decode_errors: Option<Counter>,
}

impl WireMetrics {
    fn new(registry: Option<&Arc<MetricsRegistry>>) -> Self {
        let c = |name: &str| registry.map(|r| r.counter(name));
        Self {
            connections: c("vr_wire_connections_total"),
            shed_connections: c("vr_wire_shed_connections_total"),
            shed_rate_limited: c("vr_wire_shed_rate_limited_total"),
            slow_reader_disconnects: c("vr_wire_slow_reader_disconnects_total"),
            requests: c("vr_wire_requests_total"),
            lookup_packets: c("vr_wire_lookup_packets_total"),
            updates: c("vr_wire_updates_total"),
            decode_errors: c("vr_wire_decode_errors_total"),
        }
    }

    fn bump(counter: &Option<Counter>, n: u64) {
        if let Some(c) = counter {
            c.add(0, n);
        }
    }
}

/// Outcome of a token-bucket draw.
enum Draw {
    Granted,
    /// Not enough budget now; a later frame may be admitted.
    Empty,
    /// The frame costs more than the whole burst: no wait admits it.
    Oversized {
        burst: u64,
    },
}

/// Per-connection token bucket over the monotonic `Stopwatch` clock.
/// Budget is tracked in token-nanoseconds (one token = 1e9 units) so
/// refill needs no floating point and loses no fractional tokens.
struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    available_tok_ns: u64,
    clock: Stopwatch,
    last_ns: u64,
}

const TOK_NS: u64 = 1_000_000_000;

impl TokenBucket {
    fn new(rate_pps: u64, burst: u64) -> Self {
        let burst = if burst == 0 { rate_pps } else { burst };
        Self {
            rate_pps,
            burst,
            // Start full so a fresh connection can send immediately.
            available_tok_ns: burst.saturating_mul(TOK_NS),
            clock: Stopwatch::start(),
            last_ns: 0,
        }
    }

    /// Takes `cost` tokens if the refilled budget covers them.
    fn try_take(&mut self, cost: u64) -> Draw {
        if self.rate_pps == 0 {
            return Draw::Granted;
        }
        if cost > self.burst {
            return Draw::Oversized { burst: self.burst };
        }
        let now = self.clock.elapsed_ns();
        let gained = now
            .saturating_sub(self.last_ns)
            .saturating_mul(self.rate_pps);
        self.last_ns = now;
        self.available_tok_ns = self
            .available_tok_ns
            .saturating_add(gained)
            .min(self.burst.saturating_mul(TOK_NS));
        let need = cost.saturating_mul(TOK_NS);
        if self.available_tok_ns >= need {
            self.available_tok_ns -= need;
            Draw::Granted
        } else {
            Draw::Empty
        }
    }
}

/// Server state the accept loops and connection threads share.
struct Shared<B: WireBackend> {
    gate: Arc<AcceptGate>,
    stopping: Mutex<bool>,
    cfg: ServerConfig,
    metrics: WireMetrics,
    reader: B::Reader,
    /// Locked by route-update batches only; taken at shutdown.
    backend: Mutex<Option<B>>,
    /// Connection threads, joined at shutdown; finished ones are pruned
    /// on every admit.
    connections: Mutex<Vec<JoinHandle<()>>>,
}

impl<B: WireBackend> Shared<B> {
    fn stopping(&self) -> bool {
        *self.stopping.lock()
    }
}

/// A running `VRW1` server. Dropping it (or calling
/// [`WireServer::shutdown`]) stops the accept loops and joins every
/// connection thread.
pub struct WireServer<B: WireBackend> {
    addr: Option<SocketAddr>,
    #[cfg(unix)]
    uds_path: Option<std::path::PathBuf>,
    shared: Arc<Shared<B>>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl<B: WireBackend> WireServer<B> {
    /// Binds a TCP listener (use port 0 for an OS-chosen port) and
    /// starts serving `backend`.
    ///
    /// # Errors
    /// Bind, `local_addr`, or thread-spawn failure.
    pub fn serve_tcp<A: ToSocketAddrs>(
        addr: A,
        backend: B,
        cfg: ServerConfig,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut server = Self::new(backend, cfg, registry);
        server.addr = Some(local);
        server.spawn_acceptor("vr-wire-tcp", move |shared| {
            accept_loop(|| listener.accept().map(|(s, _)| s), &shared)
        })?;
        Ok(server)
    }

    /// Binds a Unix-domain listener at `path` (removing a stale socket
    /// file first) and starts serving `backend`.
    ///
    /// # Errors
    /// Bind or thread-spawn failure.
    #[cfg(unix)]
    pub fn serve_uds<P: AsRef<std::path::Path>>(
        path: P,
        backend: B,
        cfg: ServerConfig,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let mut server = Self::new(backend, cfg, registry);
        server.uds_path = Some(path);
        server.spawn_acceptor("vr-wire-uds", move |shared| {
            accept_loop(|| listener.accept().map(|(s, _)| s), &shared)
        })?;
        Ok(server)
    }

    fn new(backend: B, cfg: ServerConfig, registry: Option<&Arc<MetricsRegistry>>) -> Self {
        Self {
            addr: None,
            #[cfg(unix)]
            uds_path: None,
            shared: Arc::new(Shared {
                gate: AcceptGate::new(cfg.max_connections),
                stopping: Mutex::new(false),
                cfg,
                metrics: WireMetrics::new(registry),
                reader: backend.reader(),
                backend: Mutex::new(Some(backend)),
                connections: Mutex::new(Vec::new()),
            }),
            accept_threads: Vec::new(),
        }
    }

    fn spawn_acceptor(
        &mut self,
        name: &str,
        run: impl FnOnce(Arc<Shared<B>>) + Send + 'static,
    ) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || run(shared))?;
        self.accept_threads.push(handle);
        Ok(())
    }

    /// The bound TCP address (with the OS-chosen port when bound to
    /// `:0`); `None` for a UDS-only server.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Live connection count (accept-gate view).
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.shared.gate.active()
    }

    /// Stops accepting, joins every connection thread (each notices
    /// within a reader tick, or a write timeout if it is blocked on a
    /// slow reader), and returns the backend (so a test can compare the
    /// served state against an oracle).
    #[must_use = "the returned backend carries final state; drop it explicitly if unwanted"]
    pub fn shutdown(mut self) -> Option<B> {
        self.stop();
        self.shared.backend.lock().take()
    }

    fn stop(&mut self) {
        *self.shared.stopping.lock() = true;
        if !self.accept_threads.is_empty() {
            // Poke each blocked accept() awake with a throwaway connection.
            if let Some(addr) = self.addr {
                let _ = TcpStream::connect(addr);
            }
            #[cfg(unix)]
            if let Some(path) = &self.uds_path {
                let _ = UnixStream::connect(path);
            }
        }
        for handle in self.accept_threads.drain(..) {
            let _ = handle.join();
        }
        // No acceptor is left to admit more, so this drains them all.
        let connections = std::mem::take(&mut *self.shared.connections.lock());
        for handle in connections {
            let _ = handle.join();
        }
    }
}

impl<B: WireBackend> Drop for WireServer<B> {
    fn drop(&mut self) {
        self.stop();
        #[cfg(unix)]
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl<B: WireBackend> std::fmt::Debug for WireServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireServer")
            .field("addr", &self.addr)
            .field("active_connections", &self.shared.gate.active())
            .field("max_connections", &self.shared.gate.max_connections())
            .finish()
    }
}

/// Accepts until the server stops; works for either listener kind.
fn accept_loop<S, B>(mut accept: impl FnMut() -> io::Result<S>, shared: &Arc<Shared<B>>)
where
    S: WireStream,
    B: WireBackend,
{
    loop {
        let accepted = accept();
        if shared.stopping() {
            return;
        }
        if let Ok(stream) = accepted {
            admit(stream, shared);
        }
    }
}

/// Gate + spawn for one fresh connection.
fn admit<S: WireStream, B: WireBackend>(stream: S, shared: &Arc<Shared<B>>) {
    let Some(permit) = shared.gate.try_admit() else {
        WireMetrics::bump(&shared.metrics.shed_connections, 1);
        let refusal = encode(&Message::Overloaded {
            id: 0,
            reason: OverloadReason::Connections,
            retry_after_ms: shared.cfg.retry_after_ms,
        });
        shed_with(
            stream,
            &refusal,
            Duration::from_millis(shared.cfg.write_timeout_ms),
        );
        return;
    };
    WireMetrics::bump(&shared.metrics.connections, 1);
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("vr-wire-conn".into())
        .spawn(move || {
            let _permit = permit;
            serve_connection(stream, &conn_shared);
        });
    // Spawn failure (resource exhaustion): the permit already dropped
    // with the closure; the socket closes unreplied, which the client
    // sees as a refused connection.
    if let Ok(handle) = spawned {
        let mut connections = shared.connections.lock();
        connections.retain(|h| !h.is_finished());
        connections.push(handle);
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// One connection, run to completion frame by frame: read, decode,
/// serve, write the reply, repeat.
fn serve_connection<S: WireStream, B: WireBackend>(mut stream: S, shared: &Shared<B>) {
    stream.set_timeouts(
        READER_TICK,
        Duration::from_millis(shared.cfg.write_timeout_ms),
    );
    let mut decoder = FrameDecoder::new();
    let mut bucket = TokenBucket::new(shared.cfg.rate_limit_pps, shared.cfg.rate_burst);
    let mut read_buf = [0u8; 16 * 1024];
    let mut out = Vec::with_capacity(4 * 1024);
    while !shared.stopping() {
        match stream.read(&mut read_buf) {
            Ok(0) => return,
            Ok(n) => decoder.feed(&read_buf[..n]),
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
        loop {
            let (reply, fatal) = match decoder.next_message() {
                Ok(Some(msg)) => (serve_frame(msg, shared, &mut bucket), false),
                Ok(None) => break,
                // Framing is unrecoverable: report once, then close the
                // connection (fail-stop, no resync).
                Err(err) => {
                    WireMetrics::bump(&shared.metrics.decode_errors, 1);
                    (error_reply(0, ErrorCode::BadRequest, err.to_string()), true)
                }
            };
            out.clear();
            encode_into(&reply, &mut out);
            if let Err(e) = stream.write_all(&out) {
                if is_timeout(&e) {
                    WireMetrics::bump(&shared.metrics.slow_reader_disconnects, 1);
                }
                return;
            }
            if fatal {
                return;
            }
        }
    }
}

/// Answers one decoded frame.
fn serve_frame<B: WireBackend>(
    msg: Message,
    shared: &Shared<B>,
    bucket: &mut TokenBucket,
) -> Message {
    let metrics = &shared.metrics;
    match msg {
        Message::LookupRequest { id, packets } => {
            let vns = packets.iter().map(|&(vn, _)| vn);
            if let Some(refusal) = admit_frame(id, vns, packets.len(), shared, bucket) {
                return refusal;
            }
            WireMetrics::bump(&metrics.lookup_packets, packets.len() as u64);
            let (results, generation) = shared.reader.lookup(&packets);
            Message::LookupResponse {
                id,
                generation,
                results,
            }
        }
        Message::RouteUpdateBatch { id, updates } => {
            let vns = updates.iter().map(RouteUpdate::vnid);
            if let Some(refusal) = admit_frame(id, vns, updates.len(), shared, bucket) {
                return refusal;
            }
            WireMetrics::bump(&metrics.updates, updates.len() as u64);
            let applied = match shared.backend.lock().as_mut() {
                Some(backend) => backend.apply_updates(&updates),
                None => Err("server is shutting down".into()),
            };
            match applied {
                Ok(generation) => Message::UpdateAck { id, generation },
                Err(message) => error_reply(id, ErrorCode::Internal, message),
            }
        }
        Message::Ping { id } => Message::Pong { id },
        other => error_reply(
            other.id(),
            ErrorCode::BadRequest,
            format!("unexpected client frame type 0x{:02x}", other.frame_type()),
        ),
    }
}

/// Admission for one work frame of `cost` items: the VN check, then the
/// token bucket. `None` admits the frame; `Some` is the refusal.
fn admit_frame<B: WireBackend>(
    id: u64,
    mut vns: impl Iterator<Item = VnId>,
    cost: usize,
    shared: &Shared<B>,
    bucket: &mut TokenBucket,
) -> Option<Message> {
    WireMetrics::bump(&shared.metrics.requests, 1);
    let networks = shared.reader.networks();
    if let Some(vn) = vns.find(|&vn| usize::from(vn) >= networks) {
        return Some(error_reply(
            id,
            ErrorCode::UnknownVn,
            format!("virtual network {vn} is not hosted (this server hosts {networks})"),
        ));
    }
    match bucket.try_take((cost as u64).max(1)) {
        Draw::Granted => None,
        Draw::Empty => {
            WireMetrics::bump(&shared.metrics.shed_rate_limited, 1);
            Some(Message::Overloaded {
                id,
                reason: OverloadReason::RateLimited,
                retry_after_ms: shared.cfg.retry_after_ms,
            })
        }
        Draw::Oversized { burst } => Some(error_reply(
            id,
            ErrorCode::BadRequest,
            format!("frame of {cost} items exceeds the rate-limit burst of {burst}; split it"),
        )),
    }
}

fn error_reply(id: u64, code: ErrorCode, message: String) -> Message {
    Message::ErrorReply { id, code, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// VNs the fake hosts.
    const FAKE_NETWORKS: usize = 8;

    /// Deterministic engine stand-in: next hop = low byte of (vn + dst),
    /// zero dst = no route; updates bump the shared generation.
    struct FakeBackend {
        reader: FakeReader,
    }

    /// The fake's read side. `lookup_delay` simulates a slow walk;
    /// `in_progress` tracks `(lookups running now, most ever at once)`.
    #[derive(Clone)]
    struct FakeReader {
        generation: Arc<Mutex<u64>>,
        lookup_delay: Duration,
        in_progress: Arc<Mutex<(usize, usize)>>,
    }

    impl FakeBackend {
        fn new() -> Self {
            Self::with_delay(Duration::ZERO)
        }

        fn with_delay(lookup_delay: Duration) -> Self {
            Self {
                reader: FakeReader {
                    generation: Arc::new(Mutex::new(1)),
                    lookup_delay,
                    in_progress: Arc::new(Mutex::new((0, 0))),
                },
            }
        }

        fn generation(&self) -> u64 {
            *self.reader.generation.lock()
        }

        fn expected(vn: VnId, dst: u32) -> Option<NextHop> {
            if dst == 0 {
                None
            } else {
                Some((u32::from(vn).wrapping_add(dst) & 0xFF) as u8)
            }
        }
    }

    impl WireReader for FakeReader {
        fn networks(&self) -> usize {
            FAKE_NETWORKS
        }

        fn lookup(&self, packets: &[(VnId, u32)]) -> (Vec<Option<NextHop>>, u64) {
            {
                let mut progress = self.in_progress.lock();
                progress.0 += 1;
                progress.1 = progress.1.max(progress.0);
            }
            if !self.lookup_delay.is_zero() {
                std::thread::sleep(self.lookup_delay);
            }
            let results = packets
                .iter()
                .map(|&(vn, dst)| FakeBackend::expected(vn, dst))
                .collect();
            let generation = *self.generation.lock();
            self.in_progress.lock().0 -= 1;
            (results, generation)
        }
    }

    impl WireBackend for FakeBackend {
        type Reader = FakeReader;

        fn reader(&self) -> FakeReader {
            self.reader.clone()
        }

        fn apply_updates(&mut self, updates: &[RouteUpdate]) -> Result<u64, String> {
            if updates.is_empty() {
                return Err("empty update batch".into());
            }
            let mut generation = self.reader.generation.lock();
            *generation += 1;
            Ok(*generation)
        }
    }

    fn start_tcp(cfg: ServerConfig) -> (WireServer<FakeBackend>, SocketAddr) {
        let server =
            WireServer::serve_tcp("127.0.0.1:0", FakeBackend::new(), cfg, None).expect("bind");
        let addr = server.local_addr().expect("tcp addr");
        (server, addr)
    }

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        registry.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn ping_lookup_and_update_round_trip_over_tcp() {
        let (server, addr) = start_tcp(ServerConfig::default());
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        client.ping().expect("ping");

        let packets = vec![(0u16, 9u32), (3, 0), (7, 200)];
        let reply = client.lookup(&packets).expect("lookup");
        let Message::LookupResponse {
            generation,
            results,
            ..
        } = reply
        else {
            panic!("expected LookupResponse, got {reply:?}");
        };
        assert_eq!(generation, 1);
        let want: Vec<_> = packets
            .iter()
            .map(|&(vn, dst)| FakeBackend::expected(vn, dst))
            .collect();
        assert_eq!(results, want);

        let update = vr_net::RouteUpdate::Announce {
            vnid: 2,
            prefix: vr_net::Ipv4Prefix::new(0x0A00_0000, 8).expect("prefix"),
            next_hop: 4,
        };
        let ack = client.apply_updates(&[update]).expect("update");
        assert!(
            matches!(ack, Message::UpdateAck { generation: 2, .. }),
            "got {ack:?}"
        );

        // Lookups after the ack see the new generation.
        let reply = client.lookup(&packets).expect("lookup 2");
        assert!(matches!(
            reply,
            Message::LookupResponse { generation: 2, .. }
        ));

        let backend = server.shutdown().expect("backend returns");
        assert_eq!(backend.generation(), 2);
    }

    #[test]
    fn connection_gate_sheds_with_overloaded_frame() {
        let cfg = ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut first = crate::WireClient::connect_tcp(addr).expect("first");
        first.ping().expect("first connection serves");

        let mut second = crate::WireClient::connect_tcp(addr).expect("second connects");
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let refusal = second.recv().expect("refusal frame");
        assert!(
            matches!(
                refusal,
                Message::Overloaded {
                    id: 0,
                    reason: OverloadReason::Connections,
                    ..
                }
            ),
            "got {refusal:?}"
        );
        // The shed socket then closes; the admitted one keeps working.
        assert!(second.recv().is_err());
        first.ping().expect("first connection still live");
        drop(server);
    }

    #[test]
    fn rate_limit_sheds_but_connection_survives() {
        let cfg = ServerConfig {
            rate_limit_pps: 1,
            rate_burst: 1,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let ok = client.lookup(&[(0, 1)]).expect("first admitted");
        assert!(matches!(ok, Message::LookupResponse { .. }), "got {ok:?}");
        let shed = client.lookup(&[(0, 2)]).expect("second replied");
        assert!(
            matches!(
                shed,
                Message::Overloaded {
                    reason: OverloadReason::RateLimited,
                    ..
                }
            ),
            "got {shed:?}"
        );
        // Pings are free and the connection is still open.
        client.ping().expect("connection survived the shed");
        drop(server);
    }

    #[test]
    fn frame_beyond_the_burst_is_a_bad_request_not_a_retry() {
        let cfg = ServerConfig {
            rate_limit_pps: 1_000,
            rate_burst: 4,
            ..ServerConfig::default()
        };
        let (server, addr) = start_tcp(cfg);
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let eight: Vec<(VnId, u32)> = (1..=8).map(|d| (0, d)).collect();
        match client.lookup(&eight).expect("oversized frame replied") {
            Message::ErrorReply {
                code: ErrorCode::BadRequest,
                message,
                ..
            } => assert!(
                message.contains('8') && message.contains('4'),
                "names frame size and burst: {message}"
            ),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        let four = client.lookup(&eight[..4]).expect("burst-sized frame");
        assert!(
            matches!(four, Message::LookupResponse { .. }),
            "got {four:?}"
        );
        client.ping().expect("connection stays open");
        drop(server);
    }

    /// A real two-VN control plane: VN ids must be refused at the wire,
    /// before they index the trie.
    fn two_vn_plane() -> vr_control::ControlPlane {
        let tables: Vec<vr_net::RoutingTable> = ["10.0.0.0/8 1\n", "10.1.1.0/24 3\n"]
            .iter()
            .map(|t| t.parse().expect("table"))
            .collect();
        let service = vr_engine::LookupService::new(tables, vr_engine::ServiceConfig::default())
            .expect("service");
        vr_control::ControlPlane::new(service, vr_control::ControlConfig::default())
            .expect("control plane")
    }

    #[test]
    fn unknown_vn_gets_a_typed_error_and_serving_continues() {
        let server =
            WireServer::serve_tcp("127.0.0.1:0", two_vn_plane(), ServerConfig::default(), None)
                .expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let is_unknown_vn = |m: &Message| {
            matches!(
                m,
                Message::ErrorReply {
                    code: ErrorCode::UnknownVn,
                    ..
                }
            )
        };
        for vn in [2u16, 500] {
            let reply = client
                .lookup(&[(0, 0x0A01_0101), (vn, 0x0A01_0101)])
                .expect("reply");
            assert!(is_unknown_vn(&reply), "vn {vn}: got {reply:?}");
        }
        let update = RouteUpdate::Withdraw {
            vnid: 2,
            prefix: vr_net::Ipv4Prefix::new(0x0A00_0000, 8).expect("prefix"),
        };
        let reply = client.apply_updates(&[update]).expect("update reply");
        assert!(is_unknown_vn(&reply), "update: got {reply:?}");
        let want = Message::LookupResponse {
            id: 0,
            generation: 0,
            results: vec![Some(1), Some(3)],
        };
        let packets = [(0, 0x0A01_0101), (1, 0x0A01_0101)];
        for mut conn in [
            client,
            crate::WireClient::connect_tcp(addr).expect("reconnect"),
        ] {
            let Message::LookupResponse {
                generation,
                results,
                ..
            } = conn.lookup(&packets).expect("still served")
            else {
                panic!("expected a LookupResponse");
            };
            assert_eq!(
                Message::LookupResponse {
                    id: 0,
                    generation,
                    results
                },
                want
            );
        }
        let plane = server.shutdown().expect("backend");
        assert_eq!(
            plane.service().generation(),
            0,
            "refused update never applied"
        );
    }

    #[test]
    fn pipelined_burst_is_answered_in_order_without_shedding() {
        let cfg = ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        };
        let backend = FakeBackend::with_delay(Duration::from_millis(10));
        let progress = Arc::clone(&backend.reader.in_progress);
        let server = WireServer::serve_tcp("127.0.0.1:0", backend, cfg, None).expect("bind");
        let addr = server.local_addr().expect("addr");
        // Two connections each send a burst without reading, then read
        // every reply: each burst comes back whole, in request order.
        let bursts: Vec<_> = (0..2u32)
            .map(|conn| {
                std::thread::spawn(move || {
                    let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .expect("timeout");
                    let burst = 8u64;
                    for i in 0..burst {
                        let packets = vec![(0, conn * 100 + i as u32 + 1)];
                        client
                            .send(&Message::LookupRequest {
                                id: 100 + i,
                                packets,
                            })
                            .expect("send");
                    }
                    for i in 0..burst {
                        match client.recv().expect("reply") {
                            Message::LookupResponse { id, results, .. } => {
                                assert_eq!(id, 100 + i, "replies in request order");
                                let dst = conn * 100 + i as u32 + 1;
                                assert_eq!(results, vec![FakeBackend::expected(0, dst)]);
                            }
                            other => panic!("burst frame not served: {other:?}"),
                        }
                    }
                    client.ping().expect("live after the burst");
                })
            })
            .collect();
        for burst in bursts {
            burst.join().expect("burst client");
        }
        // One frame in progress per connection bounds the server-wide
        // in-progress count by the connection bound.
        let (now, most) = *progress.lock();
        assert_eq!(now, 0);
        assert!((1..=2).contains(&most), "{most} lookups ran at once");
        drop(server);
    }

    #[test]
    fn slow_reader_is_disconnected_and_others_keep_being_served() {
        let registry = Arc::new(MetricsRegistry::new(1));
        let cfg = ServerConfig {
            write_timeout_ms: 200,
            ..ServerConfig::default()
        };
        let server = WireServer::serve_tcp("127.0.0.1:0", FakeBackend::new(), cfg, Some(&registry))
            .expect("bind");
        let addr = server.local_addr().expect("addr");
        // Pipeline large lookups and never read a reply: once the socket
        // buffers fill, the server's reply write times out.
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.set_write_timeout(Some(Duration::from_secs(10)))
            .expect("write timeout");
        let frame = encode(&Message::LookupRequest {
            id: 1,
            packets: (1..=60_000).map(|d| (0, d)).collect(),
        });
        let sent = (0..2_000)
            .take_while(|_| peer.write_all(&frame).is_ok())
            .count();
        // The peer's write fails only once the server closed the socket,
        // which it does right after counting the disconnect.
        assert!(sent < 2_000, "the server never stopped reading");
        assert_eq!(
            counter(&registry, "vr_wire_slow_reader_disconnects_total"),
            1
        );
        let mut other = crate::WireClient::connect_tcp(addr).expect("second connection");
        let reply = other.lookup(&[(1, 5)]).expect("served");
        assert!(
            matches!(reply, Message::LookupResponse { .. }),
            "got {reply:?}"
        );
        drop(peer);
        drop(server);
    }

    #[cfg(unix)]
    #[test]
    fn uds_round_trip() {
        let path = std::env::temp_dir().join(format!("vr-wire-test-{}.sock", std::process::id()));
        let server =
            WireServer::serve_uds(&path, FakeBackend::new(), ServerConfig::default(), None)
                .expect("bind uds");
        let mut client = crate::WireClient::connect_uds(&path).expect("connect uds");
        let reply = client.lookup(&[(1, 5), (2, 0)]).expect("lookup");
        let Message::LookupResponse { results, .. } = reply else {
            panic!("expected LookupResponse, got {reply:?}");
        };
        assert_eq!(
            results,
            vec![FakeBackend::expected(1, 5), FakeBackend::expected(2, 0)]
        );
        drop(server);
        assert!(!path.exists(), "socket file cleaned up on drop");
    }

    #[test]
    fn shutdown_returns_backend_and_metrics_count() {
        let registry = Arc::new(MetricsRegistry::new(4));
        let server = WireServer::serve_tcp(
            "127.0.0.1:0",
            FakeBackend::new(),
            ServerConfig::default(),
            Some(&registry),
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let mut client = crate::WireClient::connect_tcp(addr).expect("connect");
        let _ = client.lookup(&[(0, 1)]).expect("lookup");
        drop(client);
        let backend = server.shutdown().expect("backend");
        assert_eq!(backend.generation(), 1);
        assert_eq!(counter(&registry, "vr_wire_connections_total"), 1);
        assert_eq!(counter(&registry, "vr_wire_requests_total"), 1);
        assert_eq!(counter(&registry, "vr_wire_lookup_packets_total"), 1);
    }
}
