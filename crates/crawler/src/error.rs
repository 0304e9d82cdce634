//! The crawl fault taxonomy.
//!
//! The paper reports losing 267 of the Alexa 10k to "non-responsive domains
//! and sites that contained syntax errors in their JavaScript" (§4.3.3) —
//! one undifferentiated bucket. The supervision layer classifies every lost
//! site instead, so the loss breakdown is itself a measurement:
//!
//! | class              | source                                  | retried? |
//! |--------------------|-----------------------------------------|----------|
//! | `DeadHost`         | DNS failure / connection refused        | no       |
//! | `ConnectionReset`  | exchange reset mid-flight               | yes      |
//! | `Stall`            | exchange timed out (budget consumed)    | yes      |
//! | `Truncated`        | response cut short / protocol garbage   | yes      |
//! | `HttpError`        | non-success status on the document      | no       |
//! | `ScriptSyntax`     | every home-page script failed to parse  | no       |
//! | `ScriptBudget`     | every home-page script tripped a budget | no       |
//! | `WatchdogExpired`  | page watchdog fired before any page     | no       |
//! | `CircuitOpen`      | host circuit breaker skipped the round  | no       |

use bfu_browser::LoadError;
use bfu_net::NetError;
use std::fmt;

/// Why a site (or one round of it) could not be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrawlError {
    /// Host never answers: DNS dead or connection refused.
    DeadHost,
    /// Connection reset mid-exchange.
    ConnectionReset,
    /// Exchange stalled past its timeout, consuming clock budget.
    Stall,
    /// Response cut short mid-transfer.
    Truncated,
    /// Document answered with a non-success HTTP status.
    HttpError(u16),
    /// Every script on the home page failed to parse (the paper's "syntax
    /// errors in their JavaScript").
    ScriptSyntax,
    /// Every script on the home page tripped a resource budget (steps,
    /// heap, string, depth, or size).
    ScriptBudget,
    /// The per-round watchdog expired before a single page was measured.
    WatchdogExpired,
    /// The per-host circuit breaker was open: the round was skipped without
    /// touching the host (its cool-down had not yet been paid off).
    CircuitOpen,
}

impl CrawlError {
    /// Number of classes (all `HttpError` statuses share one bucket).
    pub const CLASS_COUNT: usize = 9;

    /// Dense index of this error's class, for histogram buckets.
    pub fn class_ix(self) -> usize {
        match self {
            CrawlError::DeadHost => 0,
            CrawlError::ConnectionReset => 1,
            CrawlError::Stall => 2,
            CrawlError::Truncated => 3,
            CrawlError::HttpError(_) => 4,
            CrawlError::ScriptSyntax => 5,
            CrawlError::ScriptBudget => 6,
            CrawlError::WatchdogExpired => 7,
            CrawlError::CircuitOpen => 8,
        }
    }

    /// Class label for reports (one per `class_ix`).
    pub fn class_name(self) -> &'static str {
        CrawlError::class_names()[self.class_ix()]
    }

    /// All class labels, indexed by `class_ix`.
    pub fn class_names() -> [&'static str; CrawlError::CLASS_COUNT] {
        [
            "dead host",
            "connection reset",
            "stall",
            "truncated",
            "http error",
            "script syntax",
            "script budget",
            "watchdog",
            "circuit open",
        ]
    }

    /// Wire encoding: `(class index, extra)` where `extra` carries the HTTP
    /// status for [`CrawlError::HttpError`] and is zero elsewhere. Stable
    /// across versions — the dataset store depends on it.
    pub fn to_parts(self) -> (u8, u16) {
        let extra = match self {
            CrawlError::HttpError(status) => status,
            _ => 0,
        };
        (self.class_ix() as u8, extra)
    }

    /// Inverse of [`CrawlError::to_parts`]; `None` for unknown classes.
    pub fn from_parts(class: u8, extra: u16) -> Option<CrawlError> {
        Some(match class {
            0 => CrawlError::DeadHost,
            1 => CrawlError::ConnectionReset,
            2 => CrawlError::Stall,
            3 => CrawlError::Truncated,
            4 => CrawlError::HttpError(extra),
            5 => CrawlError::ScriptSyntax,
            6 => CrawlError::ScriptBudget,
            7 => CrawlError::WatchdogExpired,
            8 => CrawlError::CircuitOpen,
            _ => return None,
        })
    }

    /// Whether a retry could plausibly succeed. Permanent classes (dead
    /// hosts, HTTP errors, script failures) are never retried.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            CrawlError::ConnectionReset | CrawlError::Stall | CrawlError::Truncated
        )
    }

    /// Classify a browser-level load failure.
    pub fn from_load(e: &LoadError) -> CrawlError {
        match e {
            LoadError::Network(NetError::NameNotResolved(_))
            | LoadError::Network(NetError::ConnectionRefused(_)) => CrawlError::DeadHost,
            LoadError::Network(NetError::ConnectionReset(_)) => CrawlError::ConnectionReset,
            LoadError::Network(NetError::Stalled(_)) => CrawlError::Stall,
            LoadError::Network(NetError::Truncated(_)) => CrawlError::Truncated,
            LoadError::Http(status) => CrawlError::HttpError(*status),
        }
    }
}

impl fmt::Display for CrawlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrawlError::HttpError(s) => write!(f, "http error {s}"),
            other => f.write_str(other.class_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_dense_and_distinct() {
        let all = [
            CrawlError::DeadHost,
            CrawlError::ConnectionReset,
            CrawlError::Stall,
            CrawlError::Truncated,
            CrawlError::HttpError(503),
            CrawlError::ScriptSyntax,
            CrawlError::ScriptBudget,
            CrawlError::WatchdogExpired,
            CrawlError::CircuitOpen,
        ];
        let mut seen = [false; CrawlError::CLASS_COUNT];
        for e in all {
            assert!(!seen[e.class_ix()], "duplicate index for {e}");
            seen[e.class_ix()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(
            CrawlError::HttpError(404).class_ix(),
            CrawlError::HttpError(503).class_ix()
        );
    }

    #[test]
    fn wire_parts_roundtrip_every_class() {
        let all = [
            CrawlError::DeadHost,
            CrawlError::ConnectionReset,
            CrawlError::Stall,
            CrawlError::Truncated,
            CrawlError::HttpError(418),
            CrawlError::ScriptSyntax,
            CrawlError::ScriptBudget,
            CrawlError::WatchdogExpired,
            CrawlError::CircuitOpen,
        ];
        for e in all {
            let (class, extra) = e.to_parts();
            assert_eq!(CrawlError::from_parts(class, extra), Some(e), "{e}");
        }
        assert_eq!(CrawlError::from_parts(200, 0), None);
    }

    #[test]
    fn transience_matches_retry_matrix() {
        assert!(CrawlError::ConnectionReset.is_transient());
        assert!(CrawlError::Stall.is_transient());
        assert!(CrawlError::Truncated.is_transient());
        assert!(!CrawlError::DeadHost.is_transient());
        assert!(!CrawlError::HttpError(500).is_transient());
        assert!(!CrawlError::ScriptSyntax.is_transient());
        assert!(!CrawlError::ScriptBudget.is_transient());
        assert!(!CrawlError::WatchdogExpired.is_transient());
        assert!(!CrawlError::CircuitOpen.is_transient());
    }

    #[test]
    fn load_errors_classify() {
        use bfu_net::NetError::*;
        let net = |e| CrawlError::from_load(&LoadError::Network(e));
        assert_eq!(net(NameNotResolved("x".into())), CrawlError::DeadHost);
        assert_eq!(net(ConnectionRefused("x".into())), CrawlError::DeadHost);
        assert_eq!(
            net(ConnectionReset("x".into())),
            CrawlError::ConnectionReset
        );
        assert_eq!(net(Stalled("x".into())), CrawlError::Stall);
        assert_eq!(net(Truncated("x".into())), CrawlError::Truncated);
        assert_eq!(
            CrawlError::from_load(&LoadError::Http(503)),
            CrawlError::HttpError(503)
        );
    }
}
