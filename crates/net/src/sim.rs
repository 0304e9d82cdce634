//! The network simulator: DNS, virtual servers, latency, and `fetch`.
//!
//! [`SimNet`] owns a table of virtual hosts, each backed by a [`Server`]
//! implementation (the synthetic web registers one server per origin). A
//! fetch hands the request to the host's server and returns its response,
//! advancing the caller's virtual clock by the [`transfer_ms`] link model:
//! one RTT for the handshake, then one transfer per message, sized as its
//! HTTP/1.1 encoding.

use crate::fault::{FaultOutcome, FaultPlan};
use crate::http::{HttpRequest, HttpResponse, StatusCode};
use bfu_util::{SimRng, VirtualClock};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A virtual origin server: receives requests, returns responses.
///
/// Implementations must be pure functions of the request (plus their own
/// immutable state) so crawls stay deterministic and can run in parallel.
pub trait Server: Send + Sync {
    /// Handle one request.
    fn handle(&self, req: &HttpRequest) -> HttpResponse;
}

impl<F> Server for F
where
    F: Fn(&HttpRequest) -> HttpResponse + Send + Sync,
{
    fn handle(&self, req: &HttpRequest) -> HttpResponse {
        self(req)
    }
}

/// Network-level failure of a fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No DNS entry for the host.
    NameNotResolved(String),
    /// Host refused the connection (dead host).
    ConnectionRefused(String),
    /// Exchange reset mid-flight.
    ConnectionReset(String),
    /// Exchange stalled past the timeout without a response.
    Stalled(String),
    /// The response ended before the advertised body was complete.
    Truncated(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NameNotResolved(h) => write!(f, "could not resolve {h}"),
            NetError::ConnectionRefused(h) => write!(f, "{h} refused the connection"),
            NetError::ConnectionReset(h) => write!(f, "connection to {h} reset"),
            NetError::Stalled(h) => write!(f, "exchange with {h} stalled past the timeout"),
            NetError::Truncated(h) => write!(f, "response from {h} was truncated"),
        }
    }
}

impl std::error::Error for NetError {}

/// Virtual milliseconds one message of `bytes` takes on a link with round
/// trip `rtt_ms`: half an RTT of propagation plus serialization at a
/// nominal 1 MB/s (1 ms per whole KiB, at least 1 ms). Opening a connection
/// costs one full RTT on top. [`SimNet`] charges it per HTTP message and
/// the object store's simulated transport per frame, so both price an
/// exchange alike.
pub fn transfer_ms(bytes: usize, rtt_ms: u64) -> u64 {
    rtt_ms / 2 + (bytes as u64 / 1024).max(1)
}

/// The deterministic in-memory network.
pub struct SimNet {
    hosts: HashMap<String, Arc<dyn Server>>,
    /// Base RTT per host, assigned at registration from the latency model.
    rtt: HashMap<String, u64>,
    faults: FaultPlan,
    rng: SimRng,
    /// Fault context (reset per site-visit by the crawler) and per-host
    /// exchange counters within it — the coordinates of hash-derived fault
    /// sampling, so faults are identical regardless of thread layout.
    fault_ctx: u64,
    exchange_counts: HashMap<String, u64>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("hosts", &self.hosts.len())
            .field("faults", &self.faults)
            .finish()
    }
}

impl SimNet {
    /// An empty network with the given RNG stream (drives latency jitter and
    /// fault sampling).
    pub fn new(rng: SimRng) -> Self {
        SimNet {
            hosts: HashMap::new(),
            rtt: HashMap::new(),
            faults: FaultPlan::none(),
            rng,
            fault_ctx: 0,
            exchange_counts: HashMap::new(),
        }
    }

    /// Install a fault plan.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Enter a new fault context (e.g. one `(site, profile, round)` visit),
    /// clearing the per-host exchange counters. Fault sampling is a pure
    /// function of `(plan seed, context, host, exchange index)`, so any two
    /// nets replaying the same context see identical faults.
    pub fn set_fault_context(&mut self, ctx: u64) {
        self.fault_ctx = ctx;
        self.exchange_counts.clear();
    }

    /// The current fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Register a server for `host`. The host gets a base RTT sampled from
    /// an exponential distribution with a 40 ms mean, clamped to 5-400 ms —
    /// a rough model of real-world origin diversity.
    pub fn register(&mut self, host: &str, server: Arc<dyn Server>) {
        let host = host.to_ascii_lowercase();
        let rtt = (self.rng.exp(40.0) as u64).clamp(5, 400);
        self.rtt.insert(host.clone(), rtt);
        self.hosts.insert(host, server);
    }

    /// Whether `host` resolves.
    pub fn resolves(&self, host: &str) -> bool {
        self.hosts.contains_key(&host.to_ascii_lowercase())
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Perform one fetch, advancing `clock` by handshake + transfer time.
    pub fn fetch(
        &mut self,
        req: &HttpRequest,
        clock: &mut VirtualClock,
    ) -> Result<HttpResponse, NetError> {
        let host = req.url.host().to_owned();
        let Some(server) = self.hosts.get(&host).cloned() else {
            clock.advance(30); // failed DNS lookup still costs time
            return Err(NetError::NameNotResolved(host));
        };
        let exchange_ix = {
            let c = self.exchange_counts.entry(host.clone()).or_insert(0);
            let ix = *c;
            *c += 1;
            ix
        };
        let rtt = self.rtt[&host] + self.faults.extra_rtt_ms;
        clock.advance(rtt);
        if self.faults.is_dead(&host) {
            return Err(NetError::ConnectionRefused(host));
        }
        clock.advance(transfer_ms(req.wire_len(), rtt));

        let fault = self.faults.decide(&host, exchange_ix, self.fault_ctx);
        let mut response = match fault {
            FaultOutcome::Reset => return Err(NetError::ConnectionReset(host)),
            FaultOutcome::Stall(ms) => {
                clock.advance(ms);
                return Err(NetError::Stalled(host));
            }
            FaultOutcome::ErrorStatus(code) => HttpResponse::status(StatusCode(code)),
            _ => server.handle(req),
        };
        if fault == FaultOutcome::CorruptBody {
            // Garble the body: valid HTTP, broken payload (scripts served
            // this way no longer parse).
            response.body = b")]}' bfu-corrupted {{{ ;;; <<<".to_vec();
        }
        // A truncated response still crossed the link in full.
        clock.advance(transfer_ms(response.wire_len(), rtt));
        if fault == FaultOutcome::Truncate {
            return Err(NetError::Truncated(host));
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResourceType;
    use crate::url::Url;

    fn simple_net() -> SimNet {
        let mut net = SimNet::new(SimRng::new(7));
        net.register(
            "example.com",
            Arc::new(|req: &HttpRequest| match req.url.path() {
                "/hello" => HttpResponse::html("<html>hi</html>"),
                "/big" => HttpResponse::html("x".repeat(3_000)),
                _ => HttpResponse::status(StatusCode::NOT_FOUND),
            }),
        );
        net
    }

    fn get(url: &str) -> HttpRequest {
        HttpRequest::get(Url::parse(url).unwrap(), ResourceType::Document)
    }

    #[test]
    fn fetch_roundtrip_advances_clock() {
        let mut net = simple_net();
        let mut clock = VirtualClock::new();
        let resp = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(&resp.body[..], b"<html>hi</html>");
        assert!(clock.now().millis() > 0, "time must pass");
    }

    /// Virtual ms one fetch of `url` costs on a fresh [`simple_net`] under
    /// `faults`, whether or not it succeeds.
    fn fetch_ms(faults: FaultPlan, url: &str) -> u64 {
        let mut net = simple_net();
        net.set_faults(faults);
        let mut clock = VirtualClock::new();
        let _ = net.fetch(&get(url), &mut clock);
        clock.now().millis()
    }

    #[test]
    fn fetch_clock_costs_are_pinned() {
        use crate::fault::{FaultKind, HostFault};
        let once = |fault: HostFault| FaultPlan::none().with_program("example.com", fault);
        let flaky = |kind| once(HostFault::flaky(kind, 1));
        let (hello, big) = ("http://example.com/hello", "http://example.com/big");
        assert_eq!(fetch_ms(FaultPlan::none(), hello), 31);
        assert_eq!(fetch_ms(FaultPlan::none(), big), 33);
        assert_eq!(fetch_ms(flaky(FaultKind::Reset), hello), 23);
        let stall = HostFault::flaky(FaultKind::Stall, 1).with_stall_ms(4_000);
        assert_eq!(fetch_ms(once(stall), hello), 4_023);
        assert_eq!(fetch_ms(flaky(FaultKind::Truncate), hello), 31);
        assert_eq!(fetch_ms(flaky(FaultKind::Truncate), big), 33);
        assert_eq!(fetch_ms(flaky(FaultKind::ErrorStatus(503)), hello), 31);
        assert_eq!(fetch_ms(FaultPlan::none().with_extra_rtt(15), hello), 62);
        assert_eq!(fetch_ms(FaultPlan::none(), "http://nowhere.test/"), 30);
    }

    #[test]
    fn server_routing_by_path() {
        let mut net = simple_net();
        let mut clock = VirtualClock::new();
        let resp = net
            .fetch(&get("http://example.com/missing"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn unresolvable_host_fails() {
        let mut net = simple_net();
        let mut clock = VirtualClock::new();
        let err = net
            .fetch(&get("http://nowhere.test/"), &mut clock)
            .unwrap_err();
        assert!(matches!(err, NetError::NameNotResolved(_)));
    }

    #[test]
    fn dead_host_refuses() {
        let mut net = simple_net();
        let mut faults = FaultPlan::none();
        faults.kill_host("example.com");
        net.set_faults(faults);
        let mut clock = VirtualClock::new();
        let err = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap_err();
        assert!(matches!(err, NetError::ConnectionRefused(_)));
    }

    #[test]
    fn reset_chance_one_always_resets() {
        let mut net = simple_net();
        net.set_faults(FaultPlan::none().with_reset_chance(1.0));
        let mut clock = VirtualClock::new();
        let err = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap_err();
        assert!(matches!(err, NetError::ConnectionReset(_)));
    }

    #[test]
    fn deterministic_latency_per_seed() {
        let run = |seed| {
            let mut net = SimNet::new(SimRng::new(seed));
            net.register("a.com", Arc::new(|_: &HttpRequest| HttpResponse::html("x")));
            let mut clock = VirtualClock::new();
            net.fetch(&get("http://a.com/"), &mut clock).unwrap();
            clock.now().millis()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn stall_program_burns_clock_then_fails() {
        use crate::fault::{FaultKind, HostFault};
        let mut net = simple_net();
        net.set_faults(FaultPlan::none().with_program(
            "example.com",
            HostFault::flaky(FaultKind::Stall, 1).with_stall_ms(4_000),
        ));
        let mut clock = VirtualClock::new();
        let err = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap_err();
        assert!(matches!(err, NetError::Stalled(_)));
        assert!(
            clock.now().millis() >= 4_000,
            "stall must consume its budget"
        );
        // Second exchange recovers (fail_first = 1).
        let resp = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn truncate_program_yields_truncated_error() {
        use crate::fault::{FaultKind, HostFault};
        let mut net = simple_net();
        net.set_faults(
            FaultPlan::none().with_program("example.com", HostFault::flaky(FaultKind::Truncate, 1)),
        );
        let mut clock = VirtualClock::new();
        let err = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap_err();
        assert!(matches!(err, NetError::Truncated(_)));
    }

    #[test]
    fn error_status_program_answers_without_server() {
        use crate::fault::{FaultKind, HostFault};
        let mut net = simple_net();
        net.set_faults(FaultPlan::none().with_program(
            "example.com",
            HostFault::flaky(FaultKind::ErrorStatus(503), 1),
        ));
        let mut clock = VirtualClock::new();
        let resp = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode(503));
        let resp = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn corrupt_body_program_garbles_payload() {
        use crate::fault::{FaultKind, HostFault};
        let mut net = simple_net();
        net.set_faults(
            FaultPlan::none()
                .with_program("example.com", HostFault::flaky(FaultKind::CorruptBody, 1)),
        );
        let mut clock = VirtualClock::new();
        let resp = net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .unwrap();
        assert_eq!(resp.status, StatusCode::OK);
        assert_ne!(&resp.body[..], b"<html>hi</html>");
    }

    #[test]
    fn fault_context_resets_exchange_counters() {
        use crate::fault::{FaultKind, HostFault};
        let mut net = simple_net();
        net.set_faults(
            FaultPlan::none().with_program("example.com", HostFault::flaky(FaultKind::Reset, 1)),
        );
        let mut clock = VirtualClock::new();
        // Context A: first exchange faults, second recovers.
        net.set_fault_context(1);
        assert!(net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .is_err());
        assert!(net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .is_ok());
        // New context: the schedule replays from exchange zero.
        net.set_fault_context(2);
        assert!(net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .is_err());
        assert!(net
            .fetch(&get("http://example.com/hello"), &mut clock)
            .is_ok());
    }

    #[test]
    fn faults_identical_across_nets_given_same_context() {
        let plan = FaultPlan::none().with_reset_chance(0.4).with_seed(0xFA117);
        let run = |net_seed: u64| {
            let mut net = SimNet::new(SimRng::new(net_seed));
            net.register("a.com", Arc::new(|_: &HttpRequest| HttpResponse::html("x")));
            net.set_faults(plan.clone());
            net.set_fault_context(0xC0FFEE);
            let mut clock = VirtualClock::new();
            (0..32)
                .map(|_| net.fetch(&get("http://a.com/"), &mut clock).is_ok())
                .collect::<Vec<_>>()
        };
        // Different SimNet RNG seeds (different thread-local streams) must
        // not change which exchanges fault.
        assert_eq!(run(1), run(999));
    }

    #[test]
    fn initiator_metadata_reaches_server() {
        let mut net = SimNet::new(SimRng::new(1));
        net.register(
            "srv.com",
            Arc::new(|req: &HttpRequest| {
                assert_eq!(req.resource_type, ResourceType::Script);
                assert!(req.initiator.is_some());
                HttpResponse::javascript("1")
            }),
        );
        let mut clock = VirtualClock::new();
        let req = HttpRequest::get(
            Url::parse("http://srv.com/app.js").unwrap(),
            ResourceType::Script,
        )
        .with_initiator(Url::parse("http://page.com/").unwrap());
        net.fetch(&req, &mut clock).unwrap();
    }
}
