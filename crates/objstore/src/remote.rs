//! The remote object-store client: retries, backoff, deadlines, reconnect.
//!
//! [`RemoteObjectStore`] implements [`ObjectStore`] by exchanging wire
//! frames with an [`crate::ObjectServer`] through a pluggable
//! [`Transport`]. Two transports exist:
//!
//! - [`SimTransport`] — deterministic: an in-memory server plus a
//!   [`bfu_net::WireFaultPlan`], with every latency, stall, and backoff
//!   paid from a shared [`VirtualClock`] at the [`bfu_net::transfer_ms`]
//!   link model's prices. This is the transport the torture suite drives,
//!   because a seed fully determines the run.
//! - [`TcpTransport`] — real loopback TCP against
//!   [`crate::spawn_tcp_server`], used by the cross-process fabric.
//!
//! Retry discipline (the part the faults exist to exercise):
//!
//! - Each logical op picks one request id and re-sends it verbatim on
//!   every retry, so the server's idempotency cache absorbs "response
//!   lost after the mutation applied".
//! - Only [`RemoteError::retryable`] failures and transport breakage are
//!   retried; `NotFound` / `CasConflict` / `InvalidInput` surface
//!   immediately — retrying a lost CAS race would just lose it again.
//! - A response whose `(client, id)` echo does not match the outstanding
//!   request is a reordered frame: discarded and retried, never
//!   misattributed.
//! - Backoff is capped exponential with deterministic jitter, paid from
//!   the clock ([`RemoteClock::Virtual`] advances the shared clock;
//!   `Wall` sleeps), and every attempt checks the per-op deadline.

use crate::object::{ObjectStore, RemoteTotals};
use crate::server::{read_frame, ObjectServer};
use crate::wire::{
    decode_response, encode_request, unframe, RemoteError, Request, RequestOp, RespBody,
};
use bfu_net::{transfer_ms, WireFaultPlan};
use bfu_util::{fault_choice, VirtualClock};
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a client pays for waiting: on the shared virtual clock
/// (deterministic tests) or the wall clock (real TCP).
#[derive(Debug, Clone)]
pub enum RemoteClock {
    /// Sleep for real, capped so a retry storm cannot hang a test.
    Wall,
    /// Advance a shared virtual clock; no real time passes.
    Virtual(Arc<Mutex<VirtualClock>>),
}

impl RemoteClock {
    fn pause(&self, ms: u64) {
        match self {
            RemoteClock::Wall => std::thread::sleep(Duration::from_millis(ms.min(250))),
            RemoteClock::Virtual(clock) => {
                if let Ok(mut c) = clock.lock() {
                    c.advance(ms);
                }
            }
        }
    }

    fn now_ms(&self) -> u64 {
        match self {
            // Wall deadlines are enforced against attempt counts instead
            // (see `RemotePolicy::max_attempts`); report monotone zero.
            RemoteClock::Wall => 0,
            RemoteClock::Virtual(clock) => clock.lock().map(|c| c.now().millis()).unwrap_or(0),
        }
    }
}

/// Retry/backoff/deadline policy for one client.
#[derive(Debug, Clone, Copy)]
pub struct RemotePolicy {
    /// Attempts per logical op before giving up (first try included).
    pub max_attempts: u32,
    /// First backoff, doubled each retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Per-op deadline on the virtual clock; exceeded → `TimedOut`.
    pub op_deadline_ms: u64,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for RemotePolicy {
    fn default() -> RemotePolicy {
        RemotePolicy {
            max_attempts: 10,
            base_backoff_ms: 5,
            max_backoff_ms: 320,
            op_deadline_ms: 30_000,
            seed: 0,
        }
    }
}

/// One request/response exchange over some medium.
///
/// `exchange` sends a complete request frame and returns the complete
/// response frame the peer sent back — or an error for a broken stream,
/// after which the transport must present a *fresh* connection on the
/// next call (counting it in [`Transport::reconnects`]).
pub trait Transport: fmt::Debug + Send {
    /// Send one frame, receive one frame.
    fn exchange(&mut self, frame: &[u8]) -> io::Result<Vec<u8>>;
    /// Connections (re-)established so far, the first included.
    fn reconnects(&self) -> u64;
    /// Human-readable peer description.
    fn describe(&self) -> String;
}

/// An [`ObjectStore`] client speaking the wire protocol over a transport.
pub struct RemoteObjectStore {
    client_id: u64,
    transport: Mutex<Box<dyn Transport>>,
    clock: RemoteClock,
    policy: RemotePolicy,
    next_id: AtomicU64,
    ops: AtomicU64,
    retries: AtomicU64,
}

impl fmt::Debug for RemoteObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteObjectStore")
            .field("client_id", &self.client_id)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl RemoteObjectStore {
    /// A client with identity `client_id` (must be unique among clients
    /// of one server — it namespaces the idempotency cache).
    pub fn new(
        client_id: u64,
        transport: Box<dyn Transport>,
        clock: RemoteClock,
        policy: RemotePolicy,
    ) -> RemoteObjectStore {
        RemoteObjectStore {
            client_id,
            transport: Mutex::new(transport),
            clock,
            policy,
            next_id: AtomicU64::new(1),
            ops: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// The backoff-jitter seed: the shared policy seed with this client's
    /// identity folded in, so no two clients share a retry schedule.
    fn jitter_seed(&self) -> u64 {
        self.policy.seed ^ self.client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn op(&self, op: RequestOp) -> io::Result<RespBody> {
        self.ops.fetch_add(1, Ordering::Relaxed);
        // Ops that are idempotent by content may be re-issued under a fresh
        // id if the server evicted the original id from its replay window;
        // a CAS may not — its outcome under the old id is unknowable.
        let refreshable = !matches!(op, RequestOp::PutIf { .. });
        let mut id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut frame = encode_request(&Request {
            client: self.client_id,
            id,
            op: op.clone(),
        });
        let started = self.clock.now_ms();
        let mut attempt: u32 = 0;
        loop {
            let outcome = {
                let mut t = self
                    .transport
                    .lock()
                    .map_err(|_| io::Error::other("remote transport poisoned"))?;
                t.exchange(&frame)
            };
            let retryable = match outcome {
                Ok(resp_frame) => match unframe(&resp_frame).and_then(decode_response) {
                    Ok(resp) if resp.client == self.client_id && resp.id == id => match resp.body {
                        Ok(body) => return Ok(body),
                        Err(RemoteError::ReplayEvicted) if refreshable => {
                            // The server can no longer dedupe this id. The
                            // op is idempotent by content, so re-issue it
                            // as a brand-new request.
                            id = self.next_id.fetch_add(1, Ordering::Relaxed);
                            frame = encode_request(&Request {
                                client: self.client_id,
                                id,
                                op: op.clone(),
                            });
                            true
                        }
                        Err(err) if err.retryable() => true,
                        Err(err) => return Err(err.into_io()),
                    },
                    // Someone else's (or an earlier) response: reordered
                    // delivery. Discard and re-ask.
                    Ok(_) => true,
                    // Damaged in flight.
                    Err(_) => true,
                },
                // Broken stream; transport reconnects on the next call.
                Err(_) => true,
            };
            debug_assert!(retryable);
            attempt += 1;
            if attempt >= self.policy.max_attempts {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "remote op {id}: gave up after {attempt} attempts against {}",
                        self.describe()
                    ),
                ));
            }
            let exp = self
                .policy
                .base_backoff_ms
                .saturating_mul(1u64 << attempt.min(16))
                .min(self.policy.max_backoff_ms)
                .max(1);
            // Jitter is seeded per client (the id folded into the seed), so
            // N workers retrying the same fault spread out instead of
            // backing off in lockstep and re-colliding.
            let jitter = fault_choice(
                self.jitter_seed(),
                self.client_id,
                "remote-backoff",
                id,
                attempt as u64,
                (exp / 2) as usize,
            ) as u64;
            self.clock.pause(exp + jitter);
            self.retries.fetch_add(1, Ordering::Relaxed);
            let elapsed = self.clock.now_ms().saturating_sub(started);
            if elapsed >= self.policy.op_deadline_ms {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "remote op {id}: deadline {}ms exceeded",
                        self.policy.op_deadline_ms
                    ),
                ));
            }
        }
    }
}

impl ObjectStore for RemoteObjectStore {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        match self.op(RequestOp::Put {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        })? {
            RespBody::Unit => Ok(()),
            other => Err(io::Error::other(format!("put: bad body {other:?}"))),
        }
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        match self.op(RequestOp::Get {
            name: name.to_string(),
        })? {
            RespBody::Bytes(b) => Ok(b),
            other => Err(io::Error::other(format!("get: bad body {other:?}"))),
        }
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        match self.op(RequestOp::Delete {
            name: name.to_string(),
        })? {
            RespBody::Unit => Ok(()),
            other => Err(io::Error::other(format!("delete: bad body {other:?}"))),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        match self.op(RequestOp::List)? {
            RespBody::Names(names) => Ok(names),
            other => Err(io::Error::other(format!("list: bad body {other:?}"))),
        }
    }

    fn describe(&self) -> String {
        let peer = self
            .transport
            .lock()
            .map(|t| t.describe())
            .unwrap_or_else(|_| "poisoned".to_string());
        format!("remote({peer})")
    }

    fn head(&self, name: &str) -> io::Result<u64> {
        match self.op(RequestOp::Head {
            name: name.to_string(),
        })? {
            RespBody::Gen(g) => Ok(g),
            other => Err(io::Error::other(format!("head: bad body {other:?}"))),
        }
    }

    fn put_if(&self, name: &str, expected: u64, bytes: &[u8]) -> io::Result<u64> {
        match self.op(RequestOp::PutIf {
            name: name.to_string(),
            expected,
            bytes: bytes.to_vec(),
        })? {
            RespBody::Gen(g) => Ok(g),
            other => Err(io::Error::other(format!("put_if: bad body {other:?}"))),
        }
    }

    fn put_at(&self, name: &str, gen: u64, bytes: &[u8]) -> io::Result<()> {
        match self.op(RequestOp::PutAt {
            name: name.to_string(),
            gen,
            bytes: bytes.to_vec(),
        })? {
            RespBody::Unit => Ok(()),
            other => Err(io::Error::other(format!("put_at: bad body {other:?}"))),
        }
    }

    fn get_at(&self, name: &str, gen: u64) -> io::Result<Vec<u8>> {
        match self.op(RequestOp::GetAt {
            name: name.to_string(),
            gen,
        })? {
            RespBody::Bytes(b) => Ok(b),
            other => Err(io::Error::other(format!("get_at: bad body {other:?}"))),
        }
    }

    fn remote_totals(&self) -> Option<RemoteTotals> {
        let reconnects = self.transport.lock().map(|t| t.reconnects()).unwrap_or(0);
        Some(RemoteTotals {
            ops: self.ops.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects,
        })
    }
}

/// Deterministic in-memory transport: a server behind a faulty wire, all
/// time paid on a shared virtual clock: one RTT per connect, then
/// [`transfer_ms`] per frame in either direction.
pub struct SimTransport {
    server: Arc<ObjectServer>,
    plan: WireFaultPlan,
    clock: Arc<Mutex<VirtualClock>>,
    rtt_ms: u64,
    connected: bool,
    exchange_ix: u64,
    reconnects: u64,
    /// Response delivered by the most recent completed exchange; a
    /// reorder fault serves this instead of the fresh one.
    last_delivered: Option<Vec<u8>>,
}

impl fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimTransport")
            .field("exchange_ix", &self.exchange_ix)
            .field("reconnects", &self.reconnects)
            .finish_non_exhaustive()
    }
}

impl SimTransport {
    /// A transport to `server` over a wire governed by `plan`, with
    /// `rtt_ms` of simulated round-trip latency.
    pub fn new(
        server: Arc<ObjectServer>,
        plan: WireFaultPlan,
        clock: Arc<Mutex<VirtualClock>>,
        rtt_ms: u64,
    ) -> SimTransport {
        SimTransport {
            server,
            plan,
            clock,
            rtt_ms,
            connected: false,
            exchange_ix: 0,
            reconnects: 0,
            last_delivered: None,
        }
    }

    /// Exchanges attempted so far (the wire-op count a torture sweep
    /// enumerates to place its forced faults).
    pub fn exchanges(&self) -> u64 {
        self.exchange_ix
    }

    fn pay(&self, ms: u64) {
        if let Ok(mut c) = self.clock.lock() {
            c.advance(ms);
        }
    }

    /// Pay for one frame of `bytes` crossing the wire.
    fn pay_frame(&self, bytes: usize) {
        self.pay(transfer_ms(bytes, self.rtt_ms));
    }

    fn broken(&mut self, what: &str) -> io::Error {
        self.connected = false;
        io::Error::new(io::ErrorKind::BrokenPipe, format!("sim wire: {what}"))
    }
}

impl Transport for SimTransport {
    fn exchange(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        use bfu_net::WireFault;
        if !self.connected {
            self.pay(self.rtt_ms);
            self.connected = true;
            self.reconnects += 1;
        }
        let ix = self.exchange_ix;
        self.exchange_ix += 1;
        let fault = self.plan.outcome(ix);
        self.pay_frame(frame.len());
        let deliver = |me: &mut SimTransport, resp: Vec<u8>| -> io::Result<Vec<u8>> {
            me.pay_frame(resp.len());
            me.last_delivered = Some(resp.clone());
            Ok(resp)
        };
        match fault {
            Some((WireFault::DropRequest, _)) => {
                // Server never saw it.
                Err(self.broken("request dropped"))
            }
            Some((WireFault::DropResponse, _)) => {
                // Server executed; the answer evaporated.
                let _ = self.server.handle_frame(frame);
                Err(self.broken("response dropped"))
            }
            Some((WireFault::TruncateResponse, _)) => {
                let resp = self.server.handle_frame(frame);
                let keep = resp.len().saturating_sub(3).max(1);
                let truncated = resp[..keep].to_vec();
                // Damaged bytes still cross the wire and cost time, and a
                // stream that lost bytes is no longer frame-aligned.
                self.pay_frame(truncated.len());
                let _ = self.broken("response truncated");
                Ok(truncated)
            }
            Some((WireFault::Stall, ms)) => {
                self.pay(ms);
                let resp = self.server.handle_frame(frame);
                deliver(self, resp)
            }
            Some((WireFault::Duplicate, _)) => {
                // The request arrives twice; the server must dedupe.
                let _ = self.server.handle_frame(frame);
                let resp = self.server.handle_frame(frame);
                deliver(self, resp)
            }
            Some((WireFault::ReorderResponse, _)) => {
                let fresh = self.server.handle_frame(frame);
                match self.last_delivered.take() {
                    Some(stale) => {
                        // An earlier response surfaces instead; the fresh
                        // one becomes the next candidate for reordering.
                        self.pay_frame(stale.len());
                        self.last_delivered = Some(fresh);
                        Ok(stale)
                    }
                    // Nothing earlier to reorder with: delivered as-is.
                    None => deliver(self, fresh),
                }
            }
            None => {
                let resp = self.server.handle_frame(frame);
                deliver(self, resp)
            }
        }
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn describe(&self) -> String {
        format!("sim:{}", self.server.describe_inner())
    }
}

/// Real loopback TCP transport for the cross-process fabric.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    reconnects: u64,
}

impl TcpTransport {
    /// A transport that dials `addr` lazily and redials after breakage.
    pub fn new(addr: SocketAddr) -> TcpTransport {
        TcpTransport {
            addr,
            stream: None,
            reconnects: 0,
        }
    }
}

impl Transport for TcpTransport {
    fn exchange(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            let _ = stream.set_nodelay(true);
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            self.stream = Some(stream);
            self.reconnects += 1;
        }
        let result = (|| {
            let stream = self
                .stream
                .as_mut()
                .ok_or_else(|| io::Error::other("no stream"))?;
            stream.write_all(frame)?;
            read_frame(stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::ConnectionReset, "server closed mid-exchange")
            })
        })();
        if result.is_err() {
            // Whatever state the stream is in, it is not frame-aligned.
            self.stream = None;
        }
        result
    }

    fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn describe(&self) -> String {
        format!("tcp:{}", self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::DirObjectStore;
    use bfu_net::WireFault;
    use bfu_store::as_cas_conflict;

    fn rig(
        tag: &str,
        plan: WireFaultPlan,
    ) -> (
        RemoteObjectStore,
        Arc<ObjectServer>,
        Arc<Mutex<VirtualClock>>,
    ) {
        let dir = std::env::temp_dir().join(format!("bfu-remote-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirObjectStore::open(dir).expect("open dir store");
        let server = Arc::new(ObjectServer::new(Arc::new(store)));
        let clock = Arc::new(Mutex::new(VirtualClock::new()));
        let transport = SimTransport::new(Arc::clone(&server), plan, Arc::clone(&clock), 20);
        let client = RemoteObjectStore::new(
            1,
            Box::new(transport),
            RemoteClock::Virtual(Arc::clone(&clock)),
            RemotePolicy::default(),
        );
        (client, server, clock)
    }

    #[test]
    fn healthy_wire_full_contract() {
        let (client, _server, clock) = rig("healthy", WireFaultPlan::none());
        client.put("a", b"one").expect("put");
        assert_eq!(client.get("a").expect("get"), b"one");
        assert_eq!(client.list().expect("list"), vec!["a".to_string()]);
        let g = client.head("a").expect("head");
        let g2 = client.put_if("a", g, b"two").expect("cas");
        assert!(g2 > g);
        assert_eq!(client.get("a").expect("get"), b"two");
        client.delete("a").expect("delete");
        assert_eq!(
            client.get("a").expect_err("gone").kind(),
            io::ErrorKind::NotFound
        );
        // Latency was paid on the virtual clock, not the wall clock.
        assert!(clock.lock().expect("clock").now().millis() > 0);
        let totals = client.remote_totals().expect("totals");
        assert_eq!(totals.retries, 0);
        assert_eq!(totals.reconnects, 1);
        assert!(totals.ops >= 7);
    }

    #[test]
    fn every_fault_class_is_survived_per_op() {
        for fault in WireFault::ALL {
            for at in 0..3u64 {
                let plan = WireFaultPlan::none().with_fault_at(at, fault);
                let (client, _server, _clock) = rig(&format!("fault-{fault:?}-{at}"), plan);
                client.put("k", b"v").expect("put survives");
                assert_eq!(
                    client
                        .get("k")
                        .unwrap_or_else(|e| panic!("get after {fault:?}@{at}: {e}")),
                    b"v"
                );
            }
        }
    }

    #[test]
    fn lost_response_on_cas_is_not_a_self_conflict() {
        // The canonical retry hazard: the CAS applies, the response drops,
        // the retry must win via server replay, not lose to itself.
        let plan = WireFaultPlan::none().with_fault_at(0, WireFault::DropResponse);
        let (client, server, _clock) = rig("cas-lost-resp", plan);
        let g = client
            .put_if("COORD", 0, b"leader")
            .expect("cas wins via replay");
        assert!(g > 0);
        assert_eq!(server.replayed(), 1, "the win was replayed, not re-run");
        let totals = client.remote_totals().expect("totals");
        assert_eq!(totals.retries, 1);
        assert_eq!(totals.reconnects, 2, "broken stream forced a redial");
    }

    #[test]
    fn fatal_errors_do_not_retry() {
        let (client, _server, _clock) = rig("fatal", WireFaultPlan::none());
        assert_eq!(
            client.get("missing").expect_err("absent").kind(),
            io::ErrorKind::NotFound
        );
        client.put("c", b"x").expect("put");
        let err = client.put_if("c", 999, b"y").expect_err("stale cas");
        let conflict = as_cas_conflict(&err).expect("typed conflict");
        assert_eq!(conflict.expected, 999);
        let totals = client.remote_totals().expect("totals");
        assert_eq!(totals.retries, 0, "fatal classes must not burn retries");
    }

    #[test]
    fn chaos_wire_converges_deterministically() {
        let run = |seed: u64| {
            let (client, _server, clock) =
                rig(&format!("chaos-{seed}"), WireFaultPlan::chaos(seed));
            for i in 0..30 {
                let name = format!("obj{i:02}");
                client.put(&name, name.as_bytes()).expect("put under chaos");
            }
            let mut names = client.list().expect("list under chaos");
            names.sort();
            assert_eq!(names.len(), 30);
            let totals = client.remote_totals().expect("totals");
            let ms = clock.lock().expect("clock").now().millis();
            (names, totals, ms)
        };
        let (names_a, totals_a, ms_a) = run(11);
        let (names_b, totals_b, ms_b) = run(11);
        assert_eq!(names_a, names_b);
        assert_eq!(totals_a, totals_b, "same seed, same effort");
        assert_eq!(ms_a, ms_b, "same seed, same virtual duration");
        assert!(totals_a.retries > 0, "chaos plan must actually bite");
    }

    #[test]
    fn unreachable_wire_times_out_with_budget() {
        // A plan that drops every request: the client must give up with
        // TimedOut after max_attempts, having paid backoff on the clock.
        let plan = WireFaultPlan {
            drop_request_chance: 1.0,
            ..WireFaultPlan::none()
        };
        let (client, _server, clock) = rig("unreachable", plan);
        let err = client.get("x").expect_err("unreachable");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let paid = clock.lock().expect("clock").now().millis();
        assert!(paid > 0, "backoff must be paid from the clock");
        let totals = client.remote_totals().expect("totals");
        assert_eq!(
            totals.retries,
            u64::from(RemotePolicy::default().max_attempts) - 1
        );
    }

    /// Satellite regression: two clients retrying the same fault must not
    /// back off in lockstep. Same policy seed, same fault schedule, same
    /// rig shape — only the client id differs — and the total backoff each
    /// pays on its own virtual clock must diverge.
    #[test]
    fn retry_jitter_diverges_per_client() {
        let paid_by = |client_id: u64| {
            let dir = std::env::temp_dir().join(format!(
                "bfu-remote-{}-jitter-{client_id}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let store = DirObjectStore::open(dir).expect("open dir store");
            let server = Arc::new(ObjectServer::new(Arc::new(store)));
            let clock = Arc::new(Mutex::new(VirtualClock::new()));
            let plan = WireFaultPlan {
                drop_request_chance: 1.0,
                ..WireFaultPlan::none()
            };
            let transport = SimTransport::new(Arc::clone(&server), plan, Arc::clone(&clock), 20);
            let client = RemoteObjectStore::new(
                client_id,
                Box::new(transport),
                RemoteClock::Virtual(Arc::clone(&clock)),
                RemotePolicy::default(),
            );
            client.get("x").expect_err("wire drops everything");
            let guard = clock.lock().expect("clock");
            guard.now().millis()
        };
        let a = paid_by(1);
        let b = paid_by(2);
        assert_ne!(a, b, "clients 1 and 2 paid identical backoff schedules");
    }

    /// A transport that answers the first exchange with `ReplayEvicted`
    /// and forwards everything after to the real server.
    struct EvictFirstTransport {
        inner: SimTransport,
        evicted_once: bool,
    }

    impl fmt::Debug for EvictFirstTransport {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("EvictFirstTransport")
                .finish_non_exhaustive()
        }
    }

    impl Transport for EvictFirstTransport {
        fn exchange(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
            if !self.evicted_once {
                self.evicted_once = true;
                let req = crate::wire::decode_request(unframe(frame).expect("frame"))
                    .expect("decode request");
                return Ok(crate::wire::encode_response(&crate::wire::Response {
                    client: req.client,
                    id: req.id,
                    body: Err(RemoteError::ReplayEvicted),
                }));
            }
            self.inner.exchange(frame)
        }

        fn reconnects(&self) -> u64 {
            self.inner.reconnects()
        }

        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    fn evict_first_rig(tag: &str) -> (RemoteObjectStore, Arc<ObjectServer>) {
        let dir = std::env::temp_dir().join(format!("bfu-remote-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirObjectStore::open(dir).expect("open dir store");
        let server = Arc::new(ObjectServer::new(Arc::new(store)));
        let clock = Arc::new(Mutex::new(VirtualClock::new()));
        let inner = SimTransport::new(
            Arc::clone(&server),
            WireFaultPlan::none(),
            Arc::clone(&clock),
            20,
        );
        let client = RemoteObjectStore::new(
            1,
            Box::new(EvictFirstTransport {
                inner,
                evicted_once: false,
            }),
            RemoteClock::Virtual(clock),
            RemotePolicy::default(),
        );
        (client, server)
    }

    /// Satellite: a put whose id fell out of the replay window is re-issued
    /// under a fresh id (idempotent by content) and converges.
    #[test]
    fn evicted_put_reissues_under_fresh_id() {
        let (client, _server) = evict_first_rig("evict-put");
        client.put("k", b"v").expect("put converges via fresh id");
        assert_eq!(client.get("k").expect("get"), b"v");
        let totals = client.remote_totals().expect("totals");
        assert_eq!(totals.retries, 1, "the re-issue is counted as a retry");
    }

    /// Satellite: a CAS whose id fell out of the replay window must surface
    /// the typed eviction error — its outcome under the old id is
    /// unknowable, so the client must not guess.
    #[test]
    fn evicted_cas_surfaces_typed_error() {
        let (client, server) = evict_first_rig("evict-cas");
        let err = client
            .put_if("seat", 0, b"claim")
            .expect_err("eviction must surface");
        assert!(
            crate::wire::is_replay_evicted(&err),
            "error must carry the typed eviction class: {err:?}"
        );
        assert_eq!(server.replayed(), 0);
    }

    #[test]
    fn tcp_transport_end_to_end_with_reconnect() {
        let dir = std::env::temp_dir().join(format!("bfu-remote-{}-tcp", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DirObjectStore::open(dir).expect("open dir store");
        let server = Arc::new(ObjectServer::new(Arc::new(store)));
        let handle = crate::server::spawn_tcp_server(Arc::clone(&server)).expect("spawn");
        let client = RemoteObjectStore::new(
            5,
            Box::new(TcpTransport::new(handle.addr)),
            RemoteClock::Wall,
            RemotePolicy::default(),
        );
        client.put("t", b"tcp").expect("put");
        assert_eq!(client.get("t").expect("get"), b"tcp");
        let g = client.head("t").expect("head");
        assert!(client.put_if("t", g, b"tcp2").expect("cas") > g);
        let totals = client.remote_totals().expect("totals");
        assert_eq!(totals.reconnects, 1);
        drop(handle);
    }
}
