//! Fault injection for the simulated network.
//!
//! The paper could not measure 267 of the Alexa 10k domains ("non-responsive
//! domains and sites that contained syntax errors in their JavaScript",
//! §4.3.3). The fault plan reproduces a full taxonomy of those losses:
//!
//! - **dead hosts** — refuse every connection (permanent);
//! - **per-host fault programs** ([`HostFault`]) — scheduled faults such as
//!   "fail the first N exchanges then recover" (flaky hosts), stalls that
//!   burn virtual-clock budget, truncated responses, HTTP error statuses,
//!   and corrupted bodies (the paper's syntax-error sites);
//! - **background resets** — a global per-exchange reset probability;
//! - **latency inflation** — extra RTT on every host.
//!
//! Fault sampling is [`bfu_util::fault_sample`] over `(plan seed, fault
//! context, host, per-host exchange index)` — *not* the shared `SimNet` RNG
//! stream — so a given exchange faults identically no matter how sites are
//! sharded across threads. The same sampler drives the dataset store's
//! fault-injecting backend, so storage and network fault schedules share
//! one audited primitive. The fault context is reset by the crawler per
//! `(site, profile, round)` via
//! [`SimNet::set_fault_context`](crate::sim::SimNet::set_fault_context),
//! which also clears the per-host exchange counters.

use bfu_util::fault_sample;
use std::collections::{HashMap, HashSet};

/// What a scheduled fault does to an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Reset the connection after the request is sent.
    Reset,
    /// Stall: consume virtual-clock time, then time the exchange out.
    Stall,
    /// Truncate the response mid-body.
    Truncate,
    /// Answer with this HTTP status instead of the real response.
    ErrorStatus(u16),
    /// Serve a garbled body (scripts served this way fail to parse — the
    /// paper's "syntax errors in their JavaScript" class).
    CorruptBody,
}

/// A per-host fault program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostFault {
    /// Fault kind this program injects.
    pub kind: FaultKind,
    /// Deterministically fail the first `fail_first` exchanges in each fault
    /// context, then recover (a flaky host a retry policy can beat).
    pub fail_first: u64,
    /// Probability that exchanges *after* the scheduled window still fault.
    pub chance: f64,
    /// Virtual milliseconds a [`FaultKind::Stall`] consumes before failing.
    pub stall_ms: u64,
}

impl HostFault {
    /// A program that fails the first `n` exchanges with `kind`, then
    /// recovers completely.
    pub fn flaky(kind: FaultKind, n: u64) -> Self {
        HostFault {
            kind,
            fail_first: n,
            chance: 0.0,
            stall_ms: 5_000,
        }
    }

    /// A program that faults every exchange with probability `chance`.
    pub fn random(kind: FaultKind, chance: f64) -> Self {
        HostFault {
            kind,
            fail_first: 0,
            chance: chance.clamp(0.0, 1.0),
            stall_ms: 5_000,
        }
    }

    /// Builder: set the stall duration.
    pub fn with_stall_ms(mut self, ms: u64) -> Self {
        self.stall_ms = ms;
        self
    }
}

/// The fault to apply to one specific exchange, as decided by the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Exchange proceeds normally.
    None,
    /// Connection reset after the request is sent.
    Reset,
    /// Stall for this many virtual ms, then fail.
    Stall(u64),
    /// Response truncated mid-body.
    Truncate,
    /// Server answers with this status code.
    ErrorStatus(u16),
    /// Response body garbled.
    CorruptBody,
}

/// Plan describing which faults the simulator should inject.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Hosts that refuse every connection.
    dead_hosts: HashSet<String>,
    /// Scheduled per-host fault programs.
    programs: HashMap<String, HostFault>,
    /// Probability that any single exchange is reset mid-flight.
    pub reset_chance: f64,
    /// Extra milliseconds of RTT added to all hosts (network congestion).
    pub extra_rtt_ms: u64,
    /// Seed for hash-derived fault sampling (thread-count invariant).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan injecting no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Mark a host as dead (refuses all connections).
    pub fn kill_host(&mut self, host: &str) {
        self.dead_hosts.insert(host.to_ascii_lowercase());
    }

    /// Whether a host is dead.
    pub fn is_dead(&self, host: &str) -> bool {
        self.dead_hosts.contains(&host.to_ascii_lowercase())
    }

    /// Number of dead hosts.
    pub fn dead_host_count(&self) -> usize {
        self.dead_hosts.len()
    }

    /// Install a fault program for a host, replacing any existing one.
    pub fn set_program(&mut self, host: &str, program: HostFault) {
        self.programs.insert(host.to_ascii_lowercase(), program);
    }

    /// The fault program for a host, if any.
    pub fn program(&self, host: &str) -> Option<&HostFault> {
        self.programs.get(&host.to_ascii_lowercase())
    }

    /// Number of hosts with fault programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Builder: set the reset probability.
    pub fn with_reset_chance(mut self, p: f64) -> Self {
        self.reset_chance = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: add RTT inflation.
    pub fn with_extra_rtt(mut self, ms: u64) -> Self {
        self.extra_rtt_ms = ms;
        self
    }

    /// Builder: set the fault-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: install a fault program for a host.
    pub fn with_program(mut self, host: &str, program: HostFault) -> Self {
        self.set_program(host, program);
        self
    }

    /// Merge `overlay` into this plan: dead hosts union, overlay programs
    /// win on conflict, scalar knobs take the larger value, a nonzero
    /// overlay seed wins.
    pub fn merge(mut self, overlay: FaultPlan) -> FaultPlan {
        self.dead_hosts.extend(overlay.dead_hosts);
        self.programs.extend(overlay.programs);
        self.reset_chance = self.reset_chance.max(overlay.reset_chance);
        self.extra_rtt_ms = self.extra_rtt_ms.max(overlay.extra_rtt_ms);
        if overlay.seed != 0 {
            self.seed = overlay.seed;
        }
        self
    }

    /// Stable digest of the whole plan, independent of hash-map iteration
    /// order: two plans that inject the same faults digest identically on
    /// every run. The dataset store keys resumable crawls on this, so a
    /// crawl resumed under a *different* fault plan is refused instead of
    /// silently mixing measurements.
    pub fn digest(&self) -> u64 {
        let mut f = bfu_util::Fnv64::new();
        f.write(b"fault-plan-v1");
        let mut dead: Vec<&str> = self.dead_hosts.iter().map(String::as_str).collect();
        dead.sort_unstable();
        f.write_u64(dead.len() as u64);
        for host in dead {
            f.write_str(host);
        }
        let mut programs: Vec<(&str, &HostFault)> =
            self.programs.iter().map(|(h, p)| (h.as_str(), p)).collect();
        programs.sort_unstable_by_key(|(h, _)| *h);
        f.write_u64(programs.len() as u64);
        for (host, p) in programs {
            f.write_str(host);
            let (kind_tag, kind_extra) = match p.kind {
                FaultKind::Reset => (0u64, 0u64),
                FaultKind::Stall => (1, 0),
                FaultKind::Truncate => (2, 0),
                FaultKind::ErrorStatus(code) => (3, u64::from(code)),
                FaultKind::CorruptBody => (4, 0),
            };
            f.write_u64(kind_tag);
            f.write_u64(kind_extra);
            f.write_u64(p.fail_first);
            f.write_u64(p.chance.to_bits());
            f.write_u64(p.stall_ms);
        }
        f.write_u64(self.reset_chance.to_bits());
        f.write_u64(self.extra_rtt_ms);
        f.write_u64(self.seed);
        f.finish()
    }

    /// Decide the fault (if any) for exchange number `exchange_ix` to `host`
    /// within fault context `ctx`.
    ///
    /// Pure function of `(seed, ctx, host, exchange_ix)`: the crawl's thread
    /// layout cannot change which exchanges fault.
    pub fn decide(&self, host: &str, exchange_ix: u64, ctx: u64) -> FaultOutcome {
        if let Some(program) = self.programs.get(host) {
            if exchange_ix < program.fail_first {
                return outcome_of(program);
            }
            if program.chance > 0.0
                && fault_sample(self.seed, ctx, host, exchange_ix, 0x50C) < program.chance
            {
                return outcome_of(program);
            }
        }
        if self.reset_chance > 0.0
            && fault_sample(self.seed, ctx, host, exchange_ix, 0x2E5E7) < self.reset_chance
        {
            return FaultOutcome::Reset;
        }
        FaultOutcome::None
    }
}

fn outcome_of(program: &HostFault) -> FaultOutcome {
    match program.kind {
        FaultKind::Reset => FaultOutcome::Reset,
        FaultKind::Stall => FaultOutcome::Stall(program.stall_ms),
        FaultKind::Truncate => FaultOutcome::Truncate,
        FaultKind::ErrorStatus(code) => FaultOutcome::ErrorStatus(code),
        FaultKind::CorruptBody => FaultOutcome::CorruptBody,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_hosts_case_insensitive() {
        let mut plan = FaultPlan::none();
        plan.kill_host("WWW.Dead.com");
        assert!(plan.is_dead("www.dead.com"));
        assert!(plan.is_dead("WWW.DEAD.COM"));
        assert!(!plan.is_dead("www.alive.com"));
        assert_eq!(plan.dead_host_count(), 1);
    }

    #[test]
    fn builders_clamp() {
        let plan = FaultPlan::none().with_reset_chance(7.0).with_extra_rtt(5);
        assert_eq!(plan.reset_chance, 1.0);
        assert_eq!(plan.extra_rtt_ms, 5);
    }

    #[test]
    fn flaky_program_fails_then_recovers() {
        let plan =
            FaultPlan::none().with_program("flaky.com", HostFault::flaky(FaultKind::Reset, 2));
        assert_eq!(plan.decide("flaky.com", 0, 1), FaultOutcome::Reset);
        assert_eq!(plan.decide("flaky.com", 1, 1), FaultOutcome::Reset);
        assert_eq!(plan.decide("flaky.com", 2, 1), FaultOutcome::None);
        assert_eq!(plan.decide("other.com", 0, 1), FaultOutcome::None);
    }

    #[test]
    fn stall_program_carries_duration() {
        let plan = FaultPlan::none().with_program(
            "slow.com",
            HostFault::flaky(FaultKind::Stall, 1).with_stall_ms(2_500),
        );
        assert_eq!(plan.decide("slow.com", 0, 9), FaultOutcome::Stall(2_500));
    }

    #[test]
    fn decide_is_pure_in_its_coordinates() {
        let plan = FaultPlan::none().with_reset_chance(0.5).with_seed(42);
        for ix in 0..50 {
            assert_eq!(
                plan.decide("a.com", ix, 7),
                plan.decide("a.com", ix, 7),
                "exchange {ix} must fault identically on re-ask"
            );
        }
        // Different contexts sample independently.
        let faults_ctx = |ctx: u64| {
            (0..200)
                .filter(|&ix| plan.decide("a.com", ix, ctx) != FaultOutcome::None)
                .count()
        };
        let (a, b) = (faults_ctx(1), faults_ctx(2));
        assert!(a > 50 && b > 50, "~half should reset: {a}, {b}");
    }

    #[test]
    fn reset_chance_one_always_faults() {
        let plan = FaultPlan::none().with_reset_chance(1.0);
        for ix in 0..20 {
            assert_eq!(plan.decide("x.com", ix, 0), FaultOutcome::Reset);
        }
    }

    #[test]
    fn merge_unions_and_overlay_wins() {
        let mut base = FaultPlan::none().with_reset_chance(0.1);
        base.kill_host("dead.com");
        base.set_program("a.com", HostFault::flaky(FaultKind::Reset, 1));
        let overlay = FaultPlan::none()
            .with_seed(99)
            .with_program("a.com", HostFault::flaky(FaultKind::Truncate, 3))
            .with_program("b.com", HostFault::random(FaultKind::Stall, 0.2));
        let merged = base.merge(overlay);
        assert!(merged.is_dead("dead.com"));
        assert_eq!(merged.program("a.com").unwrap().kind, FaultKind::Truncate);
        assert_eq!(merged.program_count(), 2);
        assert_eq!(merged.reset_chance, 0.1);
        assert_eq!(merged.seed, 99);
    }

    #[test]
    fn digest_is_order_insensitive_and_content_sensitive() {
        let build = |order: &[&str]| {
            let mut p = FaultPlan::none().with_reset_chance(0.2).with_seed(5);
            for host in order {
                p.kill_host(host);
                p.set_program(host, HostFault::flaky(FaultKind::Reset, 2));
            }
            p
        };
        let a = build(&["a.com", "b.com", "c.com"]);
        let b = build(&["c.com", "a.com", "b.com"]);
        assert_eq!(a.digest(), b.digest(), "insertion order must not matter");
        let mut c = build(&["a.com", "b.com", "c.com"]);
        c.set_program("a.com", HostFault::flaky(FaultKind::Truncate, 2));
        assert_ne!(a.digest(), c.digest(), "program kind must matter");
        let d = build(&["a.com", "b.com"]);
        assert_ne!(a.digest(), d.digest(), "host set must matter");
    }
}
