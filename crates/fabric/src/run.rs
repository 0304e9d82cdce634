//! The production fabric driver: N worker threads, one coordinator.
//!
//! Workers loop claim → crawl → publish against a mutex-held
//! [`Coordinator`]; the mutex *is* the fabric's serialization guarantee
//! (the merge point and lease table are single-writer by construction).
//! Crawling — all the actual work — runs outside the lock, so workers
//! overlap on the expensive part and serialize only on the cheap
//! bookkeeping.
//!
//! Time is a shared virtual clock advanced by crawl work (each finished
//! lease advances it by `sites ×` [`SITE_MS`]), the same currency the torture
//! driver uses — so lease expiry behaves identically under test and in
//! production. The default [`FabricConfig::lease_ms`] is deliberately
//! generous: in-process workers don't die on their own, so expiry exists
//! for crash recovery (a *restarted* fabric reclaiming a dead run's
//! leases), not for pacing live workers.

use crate::coordinator::{Coordinator, FabricError, FabricOutcome};
use crate::worker::{run_worker, NoProbe, WorkerRun};
use bfu_crawler::Survey;
use bfu_store::{StorageBackend, StoreMeta, DEFAULT_SHARD_CAPACITY};
use bfu_util::Instant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Virtual milliseconds one site's crawl advances the fabric clock.
pub const SITE_MS: u64 = 1_000;

/// Shape of a fabric run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker threads.
    pub workers: usize,
    /// Sites per lease (the work-unit granularity).
    pub sites_per_lease: usize,
    /// Lease lifetime in virtual milliseconds. Must dwarf
    /// `sites_per_lease ×` [`SITE_MS`] `× workers`, or live workers' leases
    /// expire under them while other workers advance the clock.
    pub lease_ms: u64,
    /// Records per staging/canonical shard before rollover.
    pub shard_capacity: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 4,
            sites_per_lease: 25,
            lease_ms: 1_000_000,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
        }
    }
}

/// Run `survey` across `cfg.workers` threads on `backend`.
///
/// Restartable: killing the process and calling this again on the same
/// backend adopts the persisted lease table and store, reclaims expired
/// leases, and finishes the remaining ranges. The result is
/// fingerprint-identical to `survey.run()` in a single process — the
/// fabric's core contract, enforced by `fabric_torture`.
pub fn run_survey_fabric(
    survey: &Survey,
    backend: Arc<dyn StorageBackend>,
    cfg: &FabricConfig,
) -> Result<FabricOutcome, FabricError> {
    let mut meta = StoreMeta::for_survey(survey);
    meta.shard_capacity = cfg.shard_capacity.max(1);
    let mut coordinator = Coordinator::open(
        Arc::clone(&backend),
        survey,
        meta,
        cfg.sites_per_lease,
        cfg.lease_ms,
    )?;
    coordinator.stats_mut().workers = cfg.workers.max(1) as u64;
    let coordinator = Mutex::new(coordinator);
    let clock = AtomicU64::new(0);
    let in_flight = AtomicU64::new(0);
    let failure: Mutex<Option<FabricError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1) {
            scope.spawn(|| {
                if let Err(e) = worker_loop(
                    survey,
                    backend.as_ref(),
                    &coordinator,
                    &clock,
                    &in_flight,
                    &failure,
                    cfg,
                ) {
                    if let Ok(mut slot) = failure.lock() {
                        slot.get_or_insert(e);
                    }
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let coordinator = coordinator.into_inner().unwrap_or_else(|p| p.into_inner());
    coordinator.finish(survey)
}

fn worker_loop(
    survey: &Survey,
    backend: &dyn StorageBackend,
    coordinator: &Mutex<Coordinator>,
    clock: &AtomicU64,
    in_flight: &AtomicU64,
    failure: &Mutex<Option<FabricError>>,
    cfg: &FabricConfig,
) -> Result<(), FabricError> {
    loop {
        if failure.lock().map_or(true, |slot| slot.is_some()) {
            return Ok(()); // another worker already failed; stand down
        }
        let now = Instant(clock.load(Ordering::SeqCst));
        let (grant, next_deadline) = {
            let mut coord = coordinator.lock().unwrap_or_else(|p| p.into_inner());
            coord.reclaim_expired(now, &NoProbe)?;
            if coord.all_completed() {
                return Ok(());
            }
            let grant = coord.claim(now, &NoProbe)?;
            if grant.is_some() {
                // Inside the lock, so a sibling observing `None` below sees
                // this holder and never fast-forwards the clock under it.
                in_flight.fetch_add(1, Ordering::SeqCst);
            }
            (grant, coord.next_deadline())
        };
        let Some(grant) = grant else {
            // Nothing pending but not all completed: the outstanding leases
            // are either held by sibling workers (wait for their publishes)
            // or orphans adopted from a crashed run — nobody in-process
            // holds them, so nobody will advance the clock past their
            // deadlines. Fast-forward so they expire and reclaim.
            if in_flight.load(Ordering::SeqCst) == 0 {
                if let Some(deadline) = next_deadline {
                    clock.fetch_max(deadline.0, Ordering::SeqCst);
                    continue;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            continue;
        };
        let run = run_worker(survey, backend, grant, cfg.shard_capacity.max(1), &NoProbe);
        clock.fetch_add(
            (grant.end.saturating_sub(grant.start) as u64) * SITE_MS,
            Ordering::SeqCst,
        );
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
        };
        let WorkerRun::Published(publish) = run else {
            // NoProbe never kills; Died here is unreachable.
            in_flight.fetch_sub(1, Ordering::SeqCst);
            return Err(FabricError::Fabric("worker died under NoProbe".into()));
        };
        let mut coord = coordinator.lock().unwrap_or_else(|p| p.into_inner());
        let merged = coord.merge_publish(&publish, &NoProbe);
        in_flight.fetch_sub(1, Ordering::SeqCst);
        merged?;
    }
}
