//! # bfu-net
//!
//! A deterministic, in-memory network substrate for the crawler.
//!
//! The paper's measurement rig sits between a browser and the live web; ours
//! sits between the simulated browser (`bfu-browser`) and the synthetic web
//! (`bfu-webgen`). Following the sans-IO style of embedded TCP/IP stacks,
//! everything here is event-driven over *virtual* time — no sockets, no
//! threads, no wall clock — which makes every crawl reproducible bit-for-bit
//! from a seed.
//!
//! Layers, bottom up:
//!
//! - [`url`] — a from-scratch URL parser/resolver (absolute + relative),
//!   with origin and registrable-domain logic used by the blockers'
//!   `third-party` rules.
//! - [`http`] — HTTP/1.1 request/response types, each knowing its size on
//!   the wire, with shared [`Body`] payloads.
//! - [`fault`] — fault injection: dead hosts, per-host fault programs
//!   (flaky, stall, truncate, error status, corrupt body), background
//!   resets, extra latency.
//! - [`sim`] — [`sim::SimNet`]: DNS, registered virtual servers, the
//!   [`transfer_ms`] link model, and the `fetch` entry point the browser
//!   uses.
//! - [`wire`] — fault schedules for framed request/response exchanges
//!   (dropped/truncated/stalled/duplicated/reordered frames), consumed by
//!   the remote object-store transport in `bfu-objstore`.

pub mod fault;
pub mod http;
pub mod sim;
pub mod url;
pub mod wire;

pub use fault::{FaultKind, FaultOutcome, FaultPlan, HostFault};
pub use http::{Body, HttpRequest, HttpResponse, ResourceType, StatusCode};
pub use sim::{transfer_ms, NetError, Server, SimNet};
pub use url::Url;
pub use wire::{WireFault, WireFaultPlan};
