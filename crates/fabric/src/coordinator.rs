//! The fabric coordinator: lease issue, reclaim, and the merge point.
//!
//! The coordinator owns the two durable artifacts — the lease table and
//! the canonical [`DatasetStore`] — and is the only actor that writes
//! either. Workers only ever touch the staging namespace.
//!
//! The ordering discipline that makes coordinator crashes safe:
//!
//! - **Issue** persists the lease as `Issued` *before* any worker sees the
//!   grant. A crash before the write simply never issued; a crash after
//!   leaves an issued lease with no worker, which expires at its deadline
//!   and is reclaimed.
//! - **Merge** absorbs staged records into the store *before* persisting
//!   `Completed`. A crash in between leaves the lease issued with its
//!   records already (partially) in the store; on reissue the range is
//!   re-crawled and re-absorbed, and the store's first-record-wins scan
//!   collapses the duplicates — determinism makes the copies identical,
//!   so nothing is double-counted.
//! - **Reclaim** bumps the epoch in the same durable write that returns
//!   the lease to the pool, so the fence is in place before any reissue
//!   can happen.
//!
//! The fence itself lives at the top of [`Coordinator::merge_publish`]:
//! a publish is absorbed only while its lease is still `Issued` under the
//! exact epoch the publish carries. Anything else — reclaimed, completed,
//! double-issued and already merged — is [`MergeOutcome::Fenced`] and its
//! staging shards are discarded unread.

use crate::election::ElectionHandle;
use crate::lease::{LeaseState, LeaseTable};
use crate::worker::{LeaseGrant, Probe, StepOutcome, WorkerPublish};
use bfu_crawler::{
    retry_interrupted, CacheTotals, CrawlHealth, Dataset, FabricTotals, Provenance, Survey,
};
use bfu_store::scrub::ScrubReport;
use bfu_store::{decode_site, read_shard, DatasetStore, StorageBackend, StoreError, StoreMeta};
use bfu_util::Instant;
use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};

/// Errors surfaced by fabric operations.
#[derive(Debug)]
pub enum FabricError {
    /// Underlying store failure (I/O, fingerprint mismatch, bad table).
    Store(StoreError),
    /// The torture probe killed the coordinator at the named step. Real
    /// deployments never see this; the torture driver catches it, reopens
    /// the coordinator from durable state (or, under an elected term, lets
    /// a standby take over), and proves recovery.
    CoordinatorKilled(String),
    /// A fabric invariant was violated (a bug, not an environment fault).
    Fabric(String),
    /// This coordinator lost its term: a standby won an election while it
    /// was silent, and the store's CAS fence rejected its write. The only
    /// correct response is to stop writing — a successor owns the fabric.
    Deposed(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Store(e) => write!(f, "fabric store error: {e}"),
            FabricError::CoordinatorKilled(step) => {
                write!(f, "coordinator killed at step {step}")
            }
            FabricError::Fabric(msg) => write!(f, "fabric invariant violated: {msg}"),
            FabricError::Deposed(msg) => write!(f, "coordinator deposed: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<StoreError> for FabricError {
    fn from(e: StoreError) -> FabricError {
        FabricError::Store(e)
    }
}

impl From<io::Error> for FabricError {
    fn from(e: io::Error) -> FabricError {
        FabricError::Store(StoreError::Io(e))
    }
}

/// What the merge point did with a publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The publish was live: its records are now in the canonical store
    /// and the lease is completed.
    Accepted {
        /// Records absorbed from the staged shards.
        records: usize,
    },
    /// The publish was stale (reclaimed epoch, already-completed lease,
    /// unknown lease): nothing entered the store; staging was discarded.
    Fenced,
}

/// A finished fabric survey: the dataset plus the full accounting.
#[derive(Debug)]
pub struct FabricOutcome {
    /// The complete dataset, fingerprint-identical to a single-process run.
    pub dataset: Dataset,
    /// Supervision summary, with [`CrawlHealth::fabric`] filled in.
    pub health: CrawlHealth,
    /// The fabric counters (also embedded in `health`).
    pub stats: FabricTotals,
    /// What the final scrub found and repaired.
    pub scrub: ScrubReport,
}

fn coord_step(probe: &dyn Probe, label: &str) -> Result<(), FabricError> {
    if probe.step(label) == StepOutcome::Die {
        return Err(FabricError::CoordinatorKilled(label.to_owned()));
    }
    Ok(())
}

/// The coordinator: the only writer of the lease table and the canonical
/// store. Single-threaded by construction — the multi-worker driver in
/// [`crate::run`] serializes access through a mutex, which is the point:
/// the merge point is *the* coordination point, so its checks need no
/// further locking. The same goes for its counters: every issue, reclaim,
/// merge and election is counted where it happens.
#[derive(Debug)]
pub struct Coordinator {
    backend: Arc<dyn StorageBackend>,
    store: DatasetStore,
    table: LeaseTable,
    lease_ms: u64,
    stats: FabricTotals,
    /// Election fence, when this coordinator holds an elected term. Every
    /// durable table write refreshes it first; a deposed coordinator's
    /// refresh loses its CAS and the write never happens.
    fence: Option<ElectionHandle>,
}

impl Coordinator {
    /// Open (or recover) the fabric on `backend` for `survey`.
    ///
    /// An existing lease table is adopted as-is — that *is* crash
    /// recovery: issued leases whose workers died simply expire and
    /// reclaim. A table written under a different survey fingerprint is
    /// refused, same as the store manifest.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        survey: &Survey,
        meta: StoreMeta,
        sites_per_lease: usize,
        lease_ms: u64,
    ) -> Result<Coordinator, FabricError> {
        let store = DatasetStore::open_on(Arc::clone(&backend), meta)?;
        let fingerprint = survey.fingerprint();
        let table = match LeaseTable::read(backend.as_ref())? {
            Some(existing) => {
                if existing.fingerprint != fingerprint {
                    return Err(FabricError::Store(StoreError::FingerprintMismatch {
                        expected: fingerprint,
                        found: existing.fingerprint,
                    }));
                }
                existing
            }
            None => {
                let table =
                    LeaseTable::partition(fingerprint, survey.web().site_count(), sites_per_lease);
                table.write_atomic(backend.as_ref())?;
                retry_interrupted(|| backend.sync_dir())?;
                table
            }
        };
        Ok(Coordinator {
            backend,
            store,
            table,
            lease_ms,
            stats: FabricTotals {
                enabled: true,
                ..FabricTotals::default()
            },
            fence: None,
        })
    }

    /// [`Coordinator::open`] under an elected term: the handle from a won
    /// [`crate::election::try_elect`] becomes this coordinator's fence,
    /// and the term is stamped into the lease table so the takeover is
    /// durable before any lease is touched.
    pub fn open_elected(
        backend: Arc<dyn StorageBackend>,
        survey: &Survey,
        meta: StoreMeta,
        sites_per_lease: usize,
        lease_ms: u64,
        handle: ElectionHandle,
    ) -> Result<Coordinator, FabricError> {
        let mut coord = Coordinator::open(backend, survey, meta, sites_per_lease, lease_ms)?;
        coord.table.coord_term = handle.term();
        coord.fence = Some(handle);
        coord.persist_table()?;
        coord.stats.elections_won += 1;
        Ok(coord)
    }

    /// Advance this coordinator's heartbeat to `now` (no-op without an
    /// elected term). Standbys take over when the heartbeat goes stale, so
    /// the driver loop calls this every iteration.
    pub fn heartbeat(&mut self, now: Instant) -> Result<(), FabricError> {
        match &mut self.fence {
            Some(h) => h.heartbeat(self.backend.as_ref(), now),
            None => Ok(()),
        }
    }

    /// Durably persist the lease table, fenced by the elected term when
    /// one is held. This is the single choke point for table writes: the
    /// fence refresh is a CAS on the `COORD` record, so a deposed
    /// coordinator errors *before* the table write — zombie state never
    /// reaches the store.
    pub fn persist_table(&mut self) -> Result<(), FabricError> {
        if let Some(h) = &mut self.fence {
            h.refresh(self.backend.as_ref())?;
        }
        self.table.write_atomic(self.backend.as_ref())?;
        Ok(())
    }

    /// The lease table as this coordinator sees it.
    pub fn table(&self) -> &LeaseTable {
        &self.table
    }

    /// The canonical store.
    pub fn store(&self) -> &DatasetStore {
        &self.store
    }

    /// The fabric counters. The coordinator counts its own issues,
    /// reclaims, merges and election; a driver fills in what only it
    /// sees (`workers`, `workers_died`, `coordinators_deposed`).
    pub fn stats_mut(&mut self) -> &mut FabricTotals {
        &mut self.stats
    }

    /// Whether every lease has completed.
    pub fn all_completed(&self) -> bool {
        self.table.all_completed()
    }

    /// Earliest deadline among issued leases (see
    /// [`LeaseTable::next_deadline`]).
    pub fn next_deadline(&self) -> Option<Instant> {
        self.table.next_deadline()
    }

    /// Return every expired lease to the pool, bumping its epoch — the
    /// durable write that fences the previous holder. Returns how many
    /// were reclaimed.
    pub fn reclaim_expired(
        &mut self,
        now: Instant,
        probe: &dyn Probe,
    ) -> Result<usize, FabricError> {
        let expired: Vec<u32> = self
            .table
            .leases
            .iter()
            .filter(|l| l.expired(now))
            .map(|l| l.id)
            .collect();
        if expired.is_empty() {
            return Ok(0);
        }
        let label = format!(
            "coord:reclaim:{}",
            expired
                .iter()
                .map(|id| format!("l{id}"))
                .collect::<Vec<_>>()
                .join("+")
        );
        coord_step(probe, &label)?;
        for id in &expired {
            if let Some(l) = self.table.lease_mut(*id) {
                l.state = LeaseState::Pending;
                l.epoch += 1;
                l.deadline = Instant::ZERO;
            }
        }
        self.persist_table()?;
        self.stats.leases_expired += expired.len() as u64;
        self.stats.leases_reclaimed += expired.len() as u64;
        Ok(expired.len())
    }

    /// Claim the first pending lease, persisting it as issued with a
    /// deadline of `now + lease_ms` *before* handing out the grant.
    /// `Ok(None)` when nothing is pending (all issued or completed).
    pub fn claim(
        &mut self,
        now: Instant,
        probe: &dyn Probe,
    ) -> Result<Option<LeaseGrant>, FabricError> {
        self.claim_for(now, 0, probe)
    }

    /// [`Coordinator::claim`], routing the lease to worker `owner` (the
    /// process-mode scheduler's primitive; `0` = any worker). The owner is
    /// advisory routing state — the epoch stays the only fence.
    pub fn claim_for(
        &mut self,
        now: Instant,
        owner: u32,
        probe: &dyn Probe,
    ) -> Result<Option<LeaseGrant>, FabricError> {
        let Some(pos) = self
            .table
            .leases
            .iter()
            .position(|l| l.state == LeaseState::Pending)
        else {
            return Ok(None);
        };
        let id = self.table.leases[pos].id;
        // Kill point *before* the durable write: a crash here models dying
        // between deciding to issue and persisting the issue — the lease
        // must still be pending on recovery.
        coord_step(probe, &format!("coord:issue:l{id}"))?;
        let deadline = now.plus(self.lease_ms);
        let grant = {
            let l = &mut self.table.leases[pos];
            l.state = LeaseState::Issued;
            l.deadline = deadline;
            l.owner = owner;
            LeaseGrant {
                lease: l.id,
                start: l.start,
                end: l.end,
                epoch: l.epoch,
            }
        };
        self.persist_table()?;
        self.stats.leases_issued += 1;
        Ok(Some(grant))
    }

    /// Force-expire every issued lease owned by `owner` — the process-mode
    /// response to a worker known dead (its process exited). The epoch
    /// bump in the same durable write fences anything it left behind, so
    /// this is reclaim without waiting out the deadline. Returns how many
    /// leases were reclaimed.
    pub fn reclaim_owner(&mut self, owner: u32, probe: &dyn Probe) -> Result<usize, FabricError> {
        let held: Vec<u32> = self
            .table
            .leases
            .iter()
            .filter(|l| l.state == LeaseState::Issued && l.owner == owner)
            .map(|l| l.id)
            .collect();
        if held.is_empty() {
            return Ok(0);
        }
        let label = format!(
            "coord:reclaim-owner:w{owner}:{}",
            held.iter()
                .map(|id| format!("l{id}"))
                .collect::<Vec<_>>()
                .join("+")
        );
        coord_step(probe, &label)?;
        for id in &held {
            if let Some(l) = self.table.lease_mut(*id) {
                l.state = LeaseState::Pending;
                l.epoch += 1;
                l.deadline = Instant::ZERO;
                l.owner = 0;
            }
        }
        self.persist_table()?;
        self.stats.leases_reclaimed += held.len() as u64;
        Ok(held.len())
    }

    /// The merge point: absorb a worker's publish into the canonical
    /// store, or fence it.
    ///
    /// The fence check runs first and is the *only* admission control in
    /// the fabric: the lease must still be `Issued` under exactly the
    /// epoch the publish carries. A fenced publish's staging shards are
    /// removed without being read.
    pub fn merge_publish(
        &mut self,
        publish: &WorkerPublish,
        probe: &dyn Probe,
    ) -> Result<MergeOutcome, FabricError> {
        // Election fence first, before a single staged byte is read: a
        // deposed coordinator must not absorb records its successor may be
        // re-issuing right now.
        if let Some(h) = &mut self.fence {
            h.refresh(self.backend.as_ref())?;
        }
        let live = self
            .table
            .lease(publish.lease)
            .is_some_and(|l| l.state == LeaseState::Issued && l.epoch == publish.epoch);
        if !live {
            self.discard_staging(&publish.shards);
            self.stats.publishes_fenced += 1;
            return Ok(MergeOutcome::Fenced);
        }
        let (start, end) = {
            // Fence passed, so the lease exists; re-borrow for the range.
            let l = self
                .table
                .lease(publish.lease)
                .ok_or_else(|| FabricError::Fabric("lease vanished after fence check".into()))?;
            (l.start, l.end)
        };
        coord_step(probe, &format!("coord:merge-absorb:l{}", publish.lease))?;
        let mut records = 0usize;
        for name in &publish.shards {
            let contents = match read_shard(self.backend.as_ref(), name) {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A crashed earlier merge attempt may have absorbed and
                    // cleaned some shards already; re-absorption tolerates
                    // the gap — the records are in the store.
                    continue;
                }
                Err(e) => return Err(FabricError::from(e)),
            };
            for payload in &contents.payloads {
                let Ok(m) = decode_site(payload) else {
                    continue; // corrupt staging record: the range re-crawls
                };
                let ix = m.site.index();
                if ix < start || ix >= end {
                    continue; // out-of-range record can't enter the store
                }
                self.store.append(&m)?;
                records += 1;
            }
        }
        // THE crash window: records absorbed, completion not yet durable.
        // Recovery reissues the lease; determinism + first-record-wins
        // dedup make the re-absorbed copies harmless.
        coord_step(probe, &format!("coord:merge-commit:l{}", publish.lease))?;
        if let Some(l) = self.table.lease_mut(publish.lease) {
            l.state = LeaseState::Completed;
        }
        self.persist_table()?;
        coord_step(probe, &format!("coord:merge-clean:l{}", publish.lease))?;
        self.discard_staging(&publish.shards);
        self.stats.leases_completed += 1;
        self.stats.records_absorbed += records as u64;
        Ok(MergeOutcome::Accepted { records })
    }

    /// Best-effort staging cleanup; leftovers are swept by
    /// [`Coordinator::finish`] and are invisible to the store regardless.
    fn discard_staging(&self, names: &[String]) {
        for name in names {
            let _ = retry_interrupted(|| self.backend.remove(name));
        }
    }

    /// Close out the fabric: sweep the staging namespace, scrub, scan, and
    /// assemble the final dataset — healing any residual gaps by
    /// re-crawling exactly like [`bfu_store::resume_survey_on`].
    ///
    /// The returned dataset is fingerprint-identical to a single-process
    /// run of the same survey; the counters land in
    /// [`CrawlHealth::fabric`] and the provenance sidecar.
    pub fn finish(self, survey: &Survey) -> Result<FabricOutcome, FabricError> {
        // Sweep every staging object, including debris from dead workers
        // whose publish never arrived. Listings come back in unspecified
        // (possibly backend-shuffled) order — sort before folding so the
        // sweep's op sequence is identical whatever the backend served.
        let mut staged: Vec<String> = retry_interrupted(|| self.backend.list())?
            .into_iter()
            .filter(|name| name.starts_with("stage-"))
            .collect();
        staged.sort_unstable();
        let swept = !staged.is_empty();
        for name in &staged {
            let _ = retry_interrupted(|| self.backend.remove(name));
        }
        if swept {
            retry_interrupted(|| self.backend.sync_dir())?;
        }
        let scrub = self.store.scrub()?;
        let scan = self.store.scan()?;
        let dataset = if scan.recovered == scan.sites.len() {
            Dataset {
                profiles: survey.config().profiles.clone(),
                rounds_per_profile: survey.config().rounds_per_profile,
                sites: scan.sites.into_iter().flatten().collect(),
                cache: CacheTotals::default(),
            }
        } else {
            // Residual gaps (records lost to damage, or a range whose every
            // absorption attempt crashed) self-heal by re-crawling, exactly
            // like single-process resumption.
            let write_error: Mutex<Option<io::Error>> = Mutex::new(None);
            let dataset = survey.run_partial(scan.sites, &|m| {
                if let Err(e) = self.store.append(m) {
                    if let Ok(mut slot) = write_error.lock() {
                        slot.get_or_insert(e);
                    }
                }
            });
            if let Some(e) = write_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
                return Err(FabricError::Store(StoreError::Io(e)));
            }
            dataset
        };
        let stats = FabricTotals {
            leases_total: self.table.leases.len() as u64,
            ..self.stats
        };
        let mut provenance = Provenance::of(survey, &dataset);
        provenance.health.fabric = stats;
        provenance.health.backend = self.backend.op_totals().unwrap_or_default();
        self.store.finish_with_scrub(&provenance, Some(&scrub))?;
        Ok(FabricOutcome {
            dataset,
            health: provenance.health,
            stats,
            scrub,
        })
    }
}
