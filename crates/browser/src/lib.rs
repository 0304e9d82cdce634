//! # bfu-browser
//!
//! The simulated browser engine: page loading, the Web API surface, the
//! event loop, and — centrally — the measuring extension from §4.2 of the
//! paper.
//!
//! A [`page::Page`] is loaded through the full pipeline: fetch the document
//! over `bfu-net`, parse HTML into a `bfu-dom` tree, fetch subresources
//! (scripts, images, frames) subject to any installed [`RequestPolicy`]
//! (blockers), start the page in its own copy-on-write clone of the browser's
//! booted `bfu-script` realm — the 1,392-feature Web API surface with the
//! instrumentation extension already injected *before* page scripts run (the
//! paper injects at the start of `<head>`) — execute scripts, and then run
//! timers and dispatched events on a virtual clock.
//!
//! - [`api`] — Web API bindings: every registry feature becomes a callable
//!   method or watchable property on the right prototype object.
//! - [`cache`] — survey-wide compilation cache (scripts + frame documents).
//! - [`instrument`] — the measuring extension: prototype patching and
//!   watchpoints producing [`log::FeatureLog`] records.
//! - [`page`] — the load pipeline and interaction surface.
//! - [`timers`] — `setTimeout`-style virtual timer queue.
//! - [`log`] — invocation records (the paper's Fig. 2 log lines).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod api;
pub mod cache;
pub mod instrument;
pub mod log;
pub mod page;
pub mod timers;

pub use api::{ApiSurface, HostEnv};
pub use bfu_script::Engine;
pub use cache::CompileCache;
pub use instrument::{Instrumentation, PropIndex};
pub use log::{FeatureLog, LogRecord};
pub use page::{
    AllowAll, Browser, BrowserConfig, ClickOutcome, LoadError, LoadStats, Page, RequestPolicy,
};
