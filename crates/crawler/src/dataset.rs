//! The measurement dataset every analysis consumes.
//!
//! Raw crawl output: per site, per browser profile, per round — the feature
//! log the instrumented browser produced, plus enough metadata (traffic
//! weights, failures, page counts) for Tables 1/3 and Figs. 3-9.

use crate::config::BrowserProfile;
use crate::error::CrawlError;
use bfu_browser::FeatureLog;
use bfu_util::Fnv64;
use bfu_webgen::SiteId;
use bfu_webidl::{FeatureId, FeatureRegistry, StandardId};
use std::collections::HashSet;

/// One measurement round of one site under one profile.
#[derive(Debug, Clone)]
pub struct RoundMeasurement {
    /// Round index (0-based).
    pub round: u32,
    /// Merged feature log across the round's pages.
    pub log: FeatureLog,
    /// Pages successfully interacted with.
    pub pages_visited: u32,
    /// Virtual interaction time spent, in ms.
    pub interaction_ms: u64,
    /// Why the round measured nothing, or `None` if it did.
    pub error: Option<CrawlError>,
    /// Page-load attempts made across the round.
    pub attempts: u32,
    /// Retries among those attempts.
    pub retries: u32,
    /// Virtual ms paid in retry backoff.
    pub backoff_ms: u64,
    /// Scripts that tripped the step budget or the script-size cap.
    pub script_budget_errors: u32,
    /// Scripts that tripped the heap-cell or string-byte budget.
    pub script_heap_errors: u32,
    /// Scripts that tripped the call-depth budget.
    pub script_depth_errors: u32,
}

impl RoundMeasurement {
    /// Whether the round failed to measure the site at all.
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// An empty, healthy round — test/builder convenience.
    pub fn empty(round: u32) -> Self {
        RoundMeasurement {
            round,
            log: FeatureLog::new(),
            pages_visited: 0,
            interaction_ms: 0,
            error: None,
            attempts: 0,
            retries: 0,
            backoff_ms: 0,
            script_budget_errors: 0,
            script_heap_errors: 0,
            script_depth_errors: 0,
        }
    }

    /// A round lost to `error`, with nothing measured.
    pub fn failed_with(round: u32, error: CrawlError) -> Self {
        RoundMeasurement {
            error: Some(error),
            ..RoundMeasurement::empty(round)
        }
    }
}

/// How one site fared across the whole crawl.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteOutcome {
    /// At least one round measured the site.
    Completed,
    /// Every round failed; the dominant failure class.
    Failed(CrawlError),
    /// The crawl worker panicked on this site; nothing was measured.
    Panicked,
}

impl SiteOutcome {
    /// Derive the outcome from a site's rounds: completed if any round
    /// measured, otherwise the most frequent failure class (ties break
    /// toward the lower class index). Sites with no rounds at all count as
    /// completed vacuously — panics are recorded explicitly by the survey.
    pub fn from_rounds(rounds: &[(BrowserProfile, Vec<RoundMeasurement>)]) -> SiteOutcome {
        let mut counts = [0usize; CrawlError::CLASS_COUNT];
        let mut first: [Option<CrawlError>; CrawlError::CLASS_COUNT] =
            [None; CrawlError::CLASS_COUNT];
        let mut any_round = false;
        for r in rounds.iter().flat_map(|(_, rs)| rs) {
            any_round = true;
            match r.error {
                None => return SiteOutcome::Completed,
                Some(e) => {
                    let ix = e.class_ix();
                    counts[ix] += 1;
                    first[ix].get_or_insert(e);
                }
            }
        }
        if !any_round {
            return SiteOutcome::Completed;
        }
        let mut best = 0;
        for ix in 1..CrawlError::CLASS_COUNT {
            if counts[ix] > counts[best] {
                best = ix;
            }
        }
        SiteOutcome::Failed(first[best].unwrap_or(CrawlError::DeadHost))
    }
}

/// All measurements for one site.
#[derive(Debug, Clone)]
pub struct SiteMeasurement {
    /// Site identity.
    pub site: SiteId,
    /// Registrable domain.
    pub domain: String,
    /// Normalized traffic share (for Fig. 5 weighting).
    pub traffic_weight: f64,
    /// How the site fared overall (completed / failed / panicked).
    pub outcome: SiteOutcome,
    /// Rounds per profile, in config order.
    pub rounds: Vec<(BrowserProfile, Vec<RoundMeasurement>)>,
}

impl SiteMeasurement {
    /// Rounds for one profile, if crawled.
    pub fn rounds_for(&self, profile: BrowserProfile) -> Option<&[RoundMeasurement]> {
        self.rounds
            .iter()
            .find(|(p, _)| *p == profile)
            .map(|(_, r)| r.as_slice())
    }

    /// Whether the site was measurable under a profile (any round's home
    /// page loaded).
    pub fn measured(&self, profile: BrowserProfile) -> bool {
        self.rounds_for(profile)
            .is_some_and(|rs| rs.iter().any(|r| !r.failed()))
    }

    /// Union of features observed across all rounds of a profile.
    pub fn features_used(&self, profile: BrowserProfile) -> HashSet<FeatureId> {
        let mut out = HashSet::new();
        if let Some(rounds) = self.rounds_for(profile) {
            for r in rounds {
                out.extend(r.log.features());
            }
        }
        out
    }

    /// Union of standards observed across all rounds of a profile.
    pub fn standards_used(
        &self,
        profile: BrowserProfile,
        registry: &FeatureRegistry,
    ) -> HashSet<StandardId> {
        self.features_used(profile)
            .into_iter()
            .map(|f| registry.standard_of(f))
            .collect()
    }

    /// Standards observed in rounds `0..=round` of a profile (for Table 3's
    /// convergence analysis).
    pub fn standards_through_round(
        &self,
        profile: BrowserProfile,
        round: u32,
        registry: &FeatureRegistry,
    ) -> HashSet<StandardId> {
        let mut out = HashSet::new();
        if let Some(rounds) = self.rounds_for(profile) {
            for r in rounds.iter().filter(|r| r.round <= round) {
                out.extend(
                    r.log
                        .features()
                        .into_iter()
                        .map(|f| registry.standard_of(f)),
                );
            }
        }
        out
    }

    /// Total invocations across all profiles and rounds.
    pub fn total_invocations(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|(_, rs)| rs)
            .map(|r| r.log.total_invocations())
            .sum()
    }
}

/// Survey-level compilation-cache totals, read from the shared cache's
/// counters after the crawl. Diagnostics only: the totals are deterministic
/// for a fixed visit plan (misses count unique sources exactly — see
/// `bfu_script::cache`), but they describe *effort saved*, not anything
/// measured, so they are excluded from [`Dataset::fingerprint`]. A resumed
/// crawl that skipped already-stored sites reports smaller totals than an
/// uninterrupted one while fingerprinting identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Whether the survey ran with a shared compilation cache at all.
    pub enabled: bool,
    /// Script probes, by either engine, that reused a cached tree or chunk.
    pub script_hits: u64,
    /// Script probes that did their engine's work afresh: parsed the source
    /// (tree-walk) or compiled it (VM).
    pub script_misses: u64,
    /// Script probes that replayed a cached parse error, or for the VM a
    /// source with no chunk.
    pub script_negative_hits: u64,
    /// Distinct script sources seen (== the cache's entries, one per
    /// source).
    pub unique_scripts: u64,
    /// Distinct iframe bodies whose script lists were extracted.
    pub unique_frames: u64,
    /// VM probes that reused a compiled chunk.
    pub chunk_hits: u64,
    /// VM probes that compiled a source (the first VM probe of it).
    pub chunk_misses: u64,
    /// VM probes of a source with no chunk (a parse or compile error).
    pub chunk_negative_hits: u64,
    /// Distinct sources a VM probe has reached (== compiles attempted).
    pub unique_chunks: u64,
}

impl CacheTotals {
    /// Fraction of script probes served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.script_hits + self.script_misses + self.script_negative_hits;
        if total == 0 {
            return 0.0;
        }
        (self.script_hits + self.script_negative_hits) as f64 / total as f64
    }
}

/// The whole survey's output.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Profiles crawled, in order.
    pub profiles: Vec<BrowserProfile>,
    /// Rounds per profile.
    pub rounds_per_profile: u32,
    /// One entry per ranked site.
    pub sites: Vec<SiteMeasurement>,
    /// Compilation-cache totals for the run (never fingerprinted).
    pub cache: CacheTotals,
}

impl Dataset {
    /// Sites where the default-profile crawl succeeded (the paper's 9,733).
    pub fn measured_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.measured(BrowserProfile::Default))
            .count()
    }

    /// Total pages visited across everything (Table 1).
    pub fn total_pages(&self) -> u64 {
        self.sites
            .iter()
            .flat_map(|s| &s.rounds)
            .flat_map(|(_, rs)| rs)
            .map(|r| u64::from(r.pages_visited))
            .sum()
    }

    /// Total feature invocations recorded (Table 1).
    pub fn total_invocations(&self) -> u64 {
        self.sites
            .iter()
            .map(SiteMeasurement::total_invocations)
            .sum()
    }

    /// Total virtual interaction time in ms (Table 1's "480 days").
    pub fn total_interaction_ms(&self) -> u64 {
        self.sites
            .iter()
            .flat_map(|s| &s.rounds)
            .flat_map(|(_, rs)| rs)
            .map(|r| r.interaction_ms)
            .sum()
    }

    /// Number of sites using `feature` under `profile`.
    pub fn sites_using_feature(&self, feature: FeatureId, profile: BrowserProfile) -> usize {
        self.sites
            .iter()
            .filter(|s| s.features_used(profile).contains(&feature))
            .count()
    }

    /// Number of sites using ≥1 feature of `standard` under `profile`.
    pub fn sites_using_standard(
        &self,
        standard: StandardId,
        profile: BrowserProfile,
        registry: &FeatureRegistry,
    ) -> usize {
        self.sites
            .iter()
            .filter(|s| s.standards_used(profile, registry).contains(&standard))
            .count()
    }

    /// Supervision summary: per-class loss counts and retry effort — the
    /// paper's "267 unreachable domains", classified.
    pub fn health(&self) -> CrawlHealth {
        let mut health = CrawlHealth {
            sites_total: self.sites.len(),
            cache: self.cache,
            ..CrawlHealth::default()
        };
        for s in &self.sites {
            match s.outcome {
                SiteOutcome::Completed => health.sites_completed += 1,
                SiteOutcome::Failed(e) => {
                    health.sites_failed += 1;
                    health.failures_by_class[e.class_ix()] += 1;
                }
                SiteOutcome::Panicked => health.sites_panicked += 1,
            }
            for r in s.rounds.iter().flat_map(|(_, rs)| rs) {
                health.total_attempts += u64::from(r.attempts);
                health.total_retries += u64::from(r.retries);
                health.total_backoff_ms += r.backoff_ms;
                health.total_script_budget_errors += u64::from(r.script_budget_errors);
                health.total_script_heap_errors += u64::from(r.script_heap_errors);
                health.total_script_depth_errors += u64::from(r.script_depth_errors);
                if r.error == Some(CrawlError::CircuitOpen) {
                    health.rounds_circuit_skipped += 1;
                }
            }
        }
        health
    }

    /// Order-sensitive digest of every measurement in the dataset. Two
    /// crawls that measured the same things — same outcomes, same failure
    /// classes, same logs, same retry effort — fingerprint identically,
    /// which is how the determinism tests compare thread counts.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv64::new();
        f.write_u64(self.rounds_per_profile.into());
        f.write_u64(self.sites.len() as u64);
        for s in &self.sites {
            f.write(s.domain.as_bytes());
            f.write_u64(s.traffic_weight.to_bits());
            f.write_u64(match s.outcome {
                SiteOutcome::Completed => 0,
                SiteOutcome::Failed(e) => 1 + e.class_ix() as u64,
                SiteOutcome::Panicked => 0xFF,
            });
            for (profile, rounds) in &s.rounds {
                f.write(profile.label().as_bytes());
                for r in rounds {
                    f.write_u64(r.round.into());
                    f.write_u64(r.pages_visited.into());
                    f.write_u64(r.interaction_ms);
                    f.write_u64(r.error.map_or(0xFFFF, |e| e.class_ix() as u64));
                    f.write_u64(r.attempts.into());
                    f.write_u64(r.retries.into());
                    f.write_u64(r.backoff_ms);
                    f.write_u64(r.script_budget_errors.into());
                    f.write_u64(r.script_heap_errors.into());
                    f.write_u64(r.script_depth_errors.into());
                    for rec in r.log.records() {
                        f.write_u64(u64::from(rec.feature.raw()));
                        f.write_u64(rec.count);
                    }
                }
            }
        }
        f.finish()
    }
}

/// Lease accounting from a multi-worker survey fabric run. Zeroed (with
/// `enabled: false`) for single-process surveys. Like [`CacheTotals`] these
/// are *effort and loss* counters, not measurements: they describe how the
/// dataset was assembled, so they live in [`CrawlHealth`] and the provenance
/// sidecar but are excluded from [`Dataset::fingerprint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricTotals {
    /// Whether the dataset was assembled by the survey fabric at all.
    pub enabled: bool,
    /// Worker slots the fabric ran with.
    pub workers: u64,
    /// Leases the site list was partitioned into.
    pub leases_total: u64,
    /// Lease issues, counting reissues after reclamation.
    pub leases_issued: u64,
    /// Leases completed (publish accepted at the merge point).
    pub leases_completed: u64,
    /// Lease deadlines that expired on the virtual clock.
    pub leases_expired: u64,
    /// Expired leases reclaimed and returned to the pool (epoch bumped).
    pub leases_reclaimed: u64,
    /// Worker publishes fenced off for carrying a stale epoch or targeting
    /// a non-issued lease (zombie workers, duplicate issues, replays).
    pub publishes_fenced: u64,
    /// Workers that died mid-lease (their partial output was discarded and
    /// the lease re-crawled — never silently dropped sites).
    pub workers_died: u64,
    /// Records absorbed from worker staging shards into the canonical store.
    pub records_absorbed: u64,
    /// Coordinator elections won (CAS on the coordinator record), counting
    /// the initial election. Zero when the run used a static coordinator.
    pub elections_won: u64,
    /// Coordinator writes rejected by the generation fence — a deposed
    /// coordinator (or a zombie replay of one) tried to write after a
    /// standby took over.
    pub coordinators_deposed: u64,
}

/// Storage-backend op accounting for the run that assembled a dataset.
/// Zeroed (with `enabled: false`) for backends that don't count — LocalFs
/// and FaultFs report nothing; the object-store adapter fills every field.
/// Like [`FabricTotals`] these are effort counters describing *how* the
/// bytes moved, so they live in [`CrawlHealth`] and the provenance sidecar
/// but are excluded from [`Dataset::fingerprint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTotals {
    /// Whether the backend reported op counters at all.
    pub enabled: bool,
    /// Whole-object puts acknowledged (every durable publish is one put).
    pub puts: u64,
    /// Whole-object gets served, counting visibility-retry re-reads.
    pub gets: u64,
    /// Object deletes issued.
    pub deletes: u64,
    /// Listings taken.
    pub lists: u64,
    /// Bytes written into the backend across all puts.
    pub bytes_in: u64,
    /// Bytes read out of the backend across all gets.
    pub bytes_out: u64,
    /// Extra attempts spent waiting out delayed visibility — a get/list
    /// that contradicted our own acknowledged writes and was re-issued.
    pub retries: u64,
    /// Read-after-write visibility checks that exhausted their retry
    /// budget without the backend converging.
    pub visibility_failures: u64,
    /// Conditional (compare-and-swap) puts attempted.
    pub cas_puts: u64,
    /// Conditional puts that lost their race (generation mismatch).
    pub cas_conflicts: u64,
    /// Logical operations issued over a network wire, when the object
    /// store was remote. Zero for local stores.
    pub remote_ops: u64,
    /// Wire-level request re-sends (dropped/stalled/damaged exchanges).
    pub remote_retries: u64,
    /// Connections (re-)established to the remote store.
    pub remote_reconnects: u64,
    /// Replica count behind the store, when it was replicated. Zero for
    /// single-copy stores — and the gate on every `replica_*` field below.
    pub replicas: u64,
    /// Mutations acknowledged at write quorum.
    pub replica_quorum_writes: u64,
    /// Reads that settled a generation at read quorum.
    pub replica_quorum_reads: u64,
    /// Lagging replicas caught up inline by a quorum read.
    pub replica_read_repairs: u64,
    /// Per-replica op failures absorbed by the quorum (the survived-fault
    /// count: each is one replica down or misbehaving at one op).
    pub replica_errors: u64,
    /// Compare-and-swap ops routed to a promoted replica because the
    /// deterministic primary was unreachable.
    pub replica_cas_promotions: u64,
    /// Objects copied by anti-entropy scrubs to heal lagging replicas.
    pub replica_anti_entropy_copies: u64,
}

/// Aggregate crawl-supervision statistics over a [`Dataset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlHealth {
    /// Sites attempted.
    pub sites_total: usize,
    /// Sites with at least one measured round.
    pub sites_completed: usize,
    /// Sites lost, every round failed.
    pub sites_failed: usize,
    /// Sites lost to worker panics.
    pub sites_panicked: usize,
    /// Lost sites per failure class, indexed by [`CrawlError::class_ix`].
    pub failures_by_class: [usize; CrawlError::CLASS_COUNT],
    /// Page-load attempts across the crawl.
    pub total_attempts: u64,
    /// Retries among those attempts.
    pub total_retries: u64,
    /// Virtual ms paid in retry backoff.
    pub total_backoff_ms: u64,
    /// Scripts that tripped the step budget or the script-size cap.
    pub total_script_budget_errors: u64,
    /// Scripts that tripped the heap-cell or string-byte budget.
    pub total_script_heap_errors: u64,
    /// Scripts that tripped the call-depth budget.
    pub total_script_depth_errors: u64,
    /// Rounds skipped because a host's circuit breaker was open.
    pub rounds_circuit_skipped: u64,
    /// Compilation-cache totals (zeroed when the cache was disabled).
    pub cache: CacheTotals,
    /// Survey-fabric lease totals (zeroed for single-process runs).
    /// [`Dataset::health`] cannot know them — the coordinator that drove
    /// the fabric fills them in before writing provenance.
    pub fabric: FabricTotals,
    /// Storage-backend op totals (zeroed for backends that don't count).
    /// Filled in by whoever holds the backend before writing provenance.
    pub backend: BackendTotals,
}

impl CrawlHealth {
    /// `(class name, lost sites)` pairs for every failure class, in
    /// `class_ix` order.
    pub fn breakdown(&self) -> Vec<(&'static str, usize)> {
        CrawlError::class_names()
            .into_iter()
            .zip(self.failures_by_class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(features: &[u32]) -> FeatureLog {
        let mut log = FeatureLog::new();
        for &f in features {
            log.record(FeatureId::new(f));
        }
        log
    }

    fn round_with(round: u32, features: &[u32]) -> RoundMeasurement {
        RoundMeasurement {
            log: log_with(features),
            pages_visited: 13,
            interaction_ms: 390_000,
            attempts: 13,
            ..RoundMeasurement::empty(round)
        }
    }

    fn measurement() -> SiteMeasurement {
        SiteMeasurement {
            site: SiteId::new(0),
            domain: "a.test".into(),
            traffic_weight: 0.1,
            outcome: SiteOutcome::Completed,
            rounds: vec![
                (
                    BrowserProfile::Default,
                    vec![round_with(0, &[1, 2]), round_with(1, &[2, 3])],
                ),
                (BrowserProfile::Blocking, vec![round_with(0, &[2])]),
            ],
        }
    }

    #[test]
    fn features_union_across_rounds() {
        let m = measurement();
        let used = m.features_used(BrowserProfile::Default);
        assert_eq!(used.len(), 3);
        assert!(used.contains(&FeatureId::new(3)));
        assert_eq!(m.features_used(BrowserProfile::Blocking).len(), 1);
        assert!(m.features_used(BrowserProfile::AdblockOnly).is_empty());
    }

    #[test]
    fn dataset_aggregates() {
        let ds = Dataset {
            profiles: vec![BrowserProfile::Default, BrowserProfile::Blocking],
            rounds_per_profile: 2,
            sites: vec![measurement()],
            cache: CacheTotals::default(),
        };
        assert_eq!(ds.measured_sites(), 1);
        assert_eq!(ds.total_pages(), 39);
        assert_eq!(ds.total_invocations(), 5);
        assert_eq!(ds.total_interaction_ms(), 3 * 390_000);
        assert_eq!(
            ds.sites_using_feature(FeatureId::new(2), BrowserProfile::Default),
            1
        );
        assert_eq!(
            ds.sites_using_feature(FeatureId::new(9), BrowserProfile::Default),
            0
        );
    }

    #[test]
    fn failed_rounds_dont_count_as_measured() {
        let rounds = vec![(
            BrowserProfile::Default,
            vec![RoundMeasurement::failed_with(0, CrawlError::DeadHost)],
        )];
        let m = SiteMeasurement {
            site: SiteId::new(1),
            domain: "dead.test".into(),
            traffic_weight: 0.0,
            outcome: SiteOutcome::from_rounds(&rounds),
            rounds,
        };
        assert!(!m.measured(BrowserProfile::Default));
        assert_eq!(m.outcome, SiteOutcome::Failed(CrawlError::DeadHost));
    }

    #[test]
    fn outcome_prefers_dominant_class() {
        let rounds = vec![(
            BrowserProfile::Default,
            vec![
                RoundMeasurement::failed_with(0, CrawlError::Stall),
                RoundMeasurement::failed_with(1, CrawlError::DeadHost),
                RoundMeasurement::failed_with(2, CrawlError::Stall),
            ],
        )];
        assert_eq!(
            SiteOutcome::from_rounds(&rounds),
            SiteOutcome::Failed(CrawlError::Stall)
        );
        let mixed = vec![(
            BrowserProfile::Default,
            vec![
                RoundMeasurement::failed_with(0, CrawlError::Stall),
                RoundMeasurement::empty(1),
            ],
        )];
        assert_eq!(SiteOutcome::from_rounds(&mixed), SiteOutcome::Completed);
    }

    #[test]
    fn health_classifies_every_lost_site() {
        let lost = |site: u32, domain: &str, error| {
            let rounds = vec![(
                BrowserProfile::Default,
                vec![RoundMeasurement {
                    retries: 2,
                    attempts: 3,
                    backoff_ms: 750,
                    ..RoundMeasurement::failed_with(0, error)
                }],
            )];
            SiteMeasurement {
                site: SiteId::new(site),
                domain: domain.into(),
                traffic_weight: 0.0,
                outcome: SiteOutcome::from_rounds(&rounds),
                rounds,
            }
        };
        let ds = Dataset {
            profiles: vec![BrowserProfile::Default],
            rounds_per_profile: 1,
            sites: vec![
                measurement(),
                lost(1, "dead.test", CrawlError::DeadHost),
                lost(2, "slow.test", CrawlError::Stall),
            ],
            cache: CacheTotals::default(),
        };
        let health = ds.health();
        assert_eq!(health.sites_total, 3);
        assert_eq!(health.sites_completed, 1);
        assert_eq!(health.sites_failed, 2);
        assert_eq!(health.sites_panicked, 0);
        assert_eq!(health.failures_by_class.iter().sum::<usize>(), 2);
        assert_eq!(health.failures_by_class[CrawlError::DeadHost.class_ix()], 1);
        assert_eq!(health.failures_by_class[CrawlError::Stall.class_ix()], 1);
        assert_eq!(health.total_retries, 4);
        assert_eq!(health.total_backoff_ms, 1_500);
        let named: Vec<_> = health
            .breakdown()
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .collect();
        assert_eq!(named, vec![("dead host", 1), ("stall", 1)]);
    }

    #[test]
    fn fingerprint_sensitive_to_outcome_and_log() {
        let base = Dataset {
            profiles: vec![BrowserProfile::Default],
            rounds_per_profile: 1,
            sites: vec![measurement()],
            cache: CacheTotals::default(),
        };
        let mut other = base.clone();
        assert_eq!(base.fingerprint(), other.fingerprint());
        other.sites[0].outcome = SiteOutcome::Panicked;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut third = base.clone();
        third.sites[0].rounds[0].1[0].log.record(FeatureId::new(40));
        assert_ne!(base.fingerprint(), third.fingerprint());
        let mut fourth = base.clone();
        fourth.sites[0].rounds[0].1[0].script_heap_errors += 1;
        assert_ne!(base.fingerprint(), fourth.fingerprint());
    }

    #[test]
    fn health_counts_budget_trips_and_circuit_skips() {
        let mut m = measurement();
        m.rounds[0].1[0].script_budget_errors = 2;
        m.rounds[0].1[0].script_heap_errors = 1;
        m.rounds[0].1[1].script_depth_errors = 3;
        m.rounds[1]
            .1
            .push(RoundMeasurement::failed_with(1, CrawlError::CircuitOpen));
        let ds = Dataset {
            profiles: vec![BrowserProfile::Default, BrowserProfile::Blocking],
            rounds_per_profile: 2,
            sites: vec![m],
            cache: CacheTotals::default(),
        };
        let health = ds.health();
        assert_eq!(health.total_script_budget_errors, 2);
        assert_eq!(health.total_script_heap_errors, 1);
        assert_eq!(health.total_script_depth_errors, 3);
        assert_eq!(health.rounds_circuit_skipped, 1);
    }

    #[test]
    fn cache_totals_surface_in_health_but_not_fingerprint() {
        let mut ds = Dataset {
            profiles: vec![BrowserProfile::Default],
            rounds_per_profile: 1,
            sites: vec![measurement()],
            cache: CacheTotals::default(),
        };
        let bare = ds.fingerprint();
        ds.cache = CacheTotals {
            enabled: true,
            script_hits: 90,
            script_misses: 10,
            script_negative_hits: 20,
            unique_scripts: 10,
            unique_frames: 3,
            chunk_hits: 80,
            chunk_misses: 9,
            chunk_negative_hits: 18,
            unique_chunks: 9,
        };
        assert_eq!(ds.fingerprint(), bare, "cache totals are effort, not data");
        let health = ds.health();
        assert!(health.cache.enabled);
        assert_eq!(health.cache.script_hits, 90);
        assert_eq!(health.cache.chunk_hits, 80);
        assert_eq!(health.cache.unique_chunks, 9);
        assert!((ds.cache.hit_rate() - 110.0 / 120.0).abs() < 1e-12);
        assert_eq!(CacheTotals::default().hit_rate(), 0.0);
    }

    #[test]
    fn standards_through_round_grows_monotonically() {
        let registry = FeatureRegistry::build();
        let m = measurement();
        let r0 = m.standards_through_round(BrowserProfile::Default, 0, &registry);
        let r1 = m.standards_through_round(BrowserProfile::Default, 1, &registry);
        assert!(r0.is_subset(&r1));
    }
}
