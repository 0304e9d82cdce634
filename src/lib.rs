//! # browser-feature-usage
//!
//! A from-scratch Rust reproduction of *"Browser Feature Usage on the
//! Modern Web"* (Snyder, Ansari, Taylor, Kanich — IMC 2016).
//!
//! This facade re-exports the whole workspace. Start with [`Study`]:
//!
//! ```no_run
//! use browser_feature_usage::{Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::quick(300, 2016));
//! println!("{}", study.report().headline_text());
//! ```
//!
//! The subsystem crates are available under their own names for direct use:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`bfu_webidl`] | WebIDL parser, 75-standard catalog, 1,392-feature registry |
//! | [`bfu_net`] | deterministic network: URL, HTTP/1.1 messages, fault injection |
//! | [`bfu_dom`] | arena DOM, CSS selectors, events, HTML parser |
//! | [`bfu_script`] | mini-JS engine: prototypes, closures, watchpoints |
//! | [`bfu_browser`] | page pipeline, Web API surface, the measuring extension |
//! | [`bfu_blocker`] | ABP filter engine + Ghostery-style tracker DB |
//! | [`bfu_webgen`] | calibrated synthetic Alexa-10k web |
//! | [`bfu_monkey`] | gremlins + path-novelty crawl planner + human profile |
//! | [`bfu_crawler`] | parallel survey: profiles × rounds × pages |
//! | [`bfu_analysis`] | every table and figure of the paper |
//! | [`bfu_store`] | crash-safe dataset shards: crawl resumption, memoized analysis |

pub use bfu_core::*;

pub use bfu_analysis;
pub use bfu_blocker;
pub use bfu_browser;
pub use bfu_crawler;
pub use bfu_dom;
pub use bfu_monkey;
pub use bfu_net;
pub use bfu_script;
pub use bfu_store;
pub use bfu_util;
pub use bfu_webgen;
pub use bfu_webidl;
