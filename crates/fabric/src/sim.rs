//! The deterministic fabric simulator — `fabric_torture`'s engine.
//!
//! One thread plays every role: the coordinator, each worker, and the
//! virtual clock. Every crawl/seal/publish/issue/merge step announces
//! itself to a [`StepProbe`], which kills the acting process at exactly
//! one chosen step — so a sweep over `kill_at = 0..steps(healthy run)`
//! exercises a kill at *every* step the fabric can take:
//!
//! - a **worker** step dying models a worker process crash: its staging
//!   debris is orphaned, its lease expires on the virtual clock, reclaim
//!   bumps the epoch, and the range reissues;
//! - a **coordinator** step dying models a coordinator crash between
//!   lease-table writes: the simulator reopens a fresh [`Coordinator`]
//!   from durable state (exactly what a restarted process would do) and
//!   carries on — or, when the plan runs the coordinator under an elected
//!   term, a standby wins the next term and finishes, and the dead
//!   incumbent's last write must come back [`FabricError::Deposed`];
//! - a kill at the *publish* step produces a zombie publish — complete,
//!   undelivered. The simulator stashes every zombie and replays them all
//!   after the table has drained, asserting each one is **fenced**: by
//!   then the lease is completed (or reissued under a bumped epoch), so
//!   acceptance would mean double-counting.
//!
//! The end state of every schedule must fingerprint identically to an
//! uninterrupted single-process survey — the recovery invariant.

use crate::coordinator::{Coordinator, FabricError, FabricOutcome, MergeOutcome};
use crate::election::{try_elect, ElectionHandle};
use crate::run::{FabricConfig, SITE_MS};
use crate::worker::{run_worker, NoProbe, Probe, StepOutcome, WorkerPublish, WorkerRun};
use bfu_crawler::Survey;
use bfu_store::{StorageBackend, StoreMeta};
use bfu_util::VirtualClock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fault schedule for one simulated fabric run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricFaultPlan {
    /// Kill the acting process (worker or coordinator) at this global
    /// step ordinal, once. `None` runs healthy.
    pub kill_at: Option<u64>,
    /// Issue every lease to *two* sequential workers before merging —
    /// the double-issue schedule. The second publish must fence.
    pub double_issue: bool,
    /// Run the coordinator under an elected term with this heartbeat
    /// window in virtual milliseconds; `None` runs it without one. A term
    /// needs a backend with native conditional puts (see
    /// [`crate::election::election_supported`]).
    pub heartbeat_ms: Option<u64>,
}

/// The counting, killing probe behind the simulator. Also records the
/// step trace of a healthy run, which is how the torture sweep learns
/// how many steps there are to kill at.
#[derive(Debug, Default)]
pub struct StepProbe {
    count: AtomicU64,
    kill_at: Option<u64>,
    fired: AtomicBool,
    trace: Mutex<Vec<String>>,
}

impl StepProbe {
    /// A probe that kills at `kill_at` (never, when `None`).
    pub fn new(kill_at: Option<u64>) -> StepProbe {
        StepProbe {
            kill_at,
            ..StepProbe::default()
        }
    }

    /// Steps announced so far.
    pub fn steps(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// The labels announced so far, in order.
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().map(|t| t.clone()).unwrap_or_default()
    }
}

impl Probe for StepProbe {
    fn step(&self, label: &str) -> StepOutcome {
        let k = self.count.fetch_add(1, Ordering::SeqCst);
        if let Ok(mut t) = self.trace.lock() {
            t.push(label.to_owned());
        }
        if Some(k) == self.kill_at && !self.fired.swap(true, Ordering::SeqCst) {
            return StepOutcome::Die;
        }
        StepOutcome::Continue
    }
}

/// What one simulated schedule did, and how it ended.
#[derive(Debug)]
pub struct SimOutcome {
    /// The finished fabric outcome — dataset, health, stats, scrub.
    pub outcome: FabricOutcome,
    /// Total steps announced (healthy runs: the sweep's kill range).
    pub steps: u64,
    /// The full step trace, in order.
    pub trace: Vec<String>,
    /// Workers killed mid-lease.
    pub worker_deaths: u64,
    /// Coordinator kills (at `coord:` steps) recovered from, by a restart
    /// or, under a term, by a standby's takeover.
    pub coordinator_crashes: u64,
    /// Elections won across the schedule: none without a term, else the
    /// initial claim plus one per takeover.
    pub elections_won: u64,
    /// Killed coordinators whose end-of-run replay was CAS-fenced.
    pub coordinators_deposed: u64,
    /// Stashed zombie publishes replayed at the end — every one fenced.
    pub fenced_replays: u64,
}

/// Win an election or die trying: advance the clock past the incumbent's
/// heartbeat deadline until the CAS lands.
fn elect_or_wait(
    backend: &dyn StorageBackend,
    owner: u32,
    clock: &mut VirtualClock,
    heartbeat_ms: u64,
) -> Result<ElectionHandle, FabricError> {
    for _ in 0..1_000 {
        if let Some(h) = try_elect(backend, owner, clock.now(), heartbeat_ms)? {
            return Ok(h);
        }
        clock.advance(heartbeat_ms.max(1));
    }
    Err(FabricError::Fabric(
        "standby failed to win an election in 1000 heartbeat windows".into(),
    ))
}

/// Run one simulated fabric schedule to completion.
///
/// Deterministic: same survey, config, and plan → same trace, same
/// dataset, same fingerprint. Time is a [`VirtualClock`] advanced by
/// crawl work (`sites ×` [`SITE_MS`] per attempt) and fast-forwarded to
/// the next lease deadline when every remaining lease is orphaned.
///
/// Under an elected term ([`FabricFaultPlan::heartbeat_ms`]) the
/// coordinator heartbeats every loop iteration and after every crawl, and
/// every durable write is fenced by the `COORD` record's CAS generation.
/// A killed coordinator is then *not* reopened: a **standby** (next owner
/// id) waits out its heartbeat, wins the term and finishes the survey.
/// After the table drains, every dead incumbent replays its in-memory
/// lease table via [`Coordinator::persist_table`], and every one must
/// come back [`FabricError::Deposed`] — the CAS fence rejecting stale
/// leadership at the store, with no cooperation from the zombie required.
pub fn run_sim(
    survey: &Survey,
    backend: Arc<dyn StorageBackend>,
    cfg: &FabricConfig,
    plan: &FabricFaultPlan,
) -> Result<SimOutcome, FabricError> {
    let mut meta = StoreMeta::for_survey(survey);
    meta.shard_capacity = cfg.shard_capacity.max(1);
    let probe = StepProbe::new(plan.kill_at);
    let mut clock = VirtualClock::new();
    let mut elections_won = 0u64;
    let mut next_owner = 1u32;
    let mut open = |clock: &mut VirtualClock| -> Result<Coordinator, FabricError> {
        let Some(heartbeat_ms) = plan.heartbeat_ms else {
            return Coordinator::open(
                Arc::clone(&backend),
                survey,
                meta.clone(),
                cfg.sites_per_lease,
                cfg.lease_ms,
            );
        };
        let handle = elect_or_wait(backend.as_ref(), next_owner, clock, heartbeat_ms)?;
        next_owner += 1;
        elections_won += 1;
        Coordinator::open_elected(
            Arc::clone(&backend),
            survey,
            meta.clone(),
            cfg.sites_per_lease,
            cfg.lease_ms,
            handle,
        )
    };
    let mut coordinator = open(&mut clock)?;
    coordinator.stats_mut().workers = 1;
    let mut coordinator_crashes = 0u64;
    let mut dead_coordinators: Vec<Coordinator> = Vec::new();
    let mut zombies: Vec<WorkerPublish> = Vec::new();
    let mut guard = 0u32;
    'sim: loop {
        guard += 1;
        if guard > 100_000 {
            return Err(FabricError::Fabric(
                "simulated fabric failed to converge".into(),
            ));
        }
        // Coordinator crash model: the kill surfaces as CoordinatorKilled.
        // Without a term the simulator "restarts the process" by reopening
        // from durable state; in-memory table changes that were never
        // written are lost, exactly like a real crash. Under a term a
        // standby takes over instead, and the corpse is kept to prove, at
        // the end, that the fence rejects everything it may yet write.
        // Either way the counters carry over to the successor.
        macro_rules! crash {
            () => {{
                coordinator_crashes += 1;
                let successor = open(&mut clock)?;
                let mut dead = std::mem::replace(&mut coordinator, successor);
                *coordinator.stats_mut() = std::mem::take(dead.stats_mut());
                if plan.heartbeat_ms.is_some() {
                    dead_coordinators.push(dead);
                }
                continue 'sim;
            }};
        }
        coordinator.heartbeat(clock.now())?;
        match coordinator.reclaim_expired(clock.now(), &probe) {
            Err(FabricError::CoordinatorKilled(_)) => crash!(),
            reclaimed => reclaimed?,
        };
        if coordinator.all_completed() {
            break;
        }
        let grant = match coordinator.claim(clock.now(), &probe) {
            Err(FabricError::CoordinatorKilled(_)) => crash!(),
            grant => grant?,
        };
        let Some(grant) = grant else {
            // Everything outstanding is issued to dead workers (the
            // simulator runs them to completion synchronously, so a live
            // holder can't exist here). Fast-forward to the next deadline.
            let Some(deadline) = coordinator.next_deadline() else {
                return Err(FabricError::Fabric(
                    "no pending leases, no deadlines, not complete".into(),
                ));
            };
            clock.advance_to(deadline);
            continue;
        };
        let attempts = if plan.double_issue { 2 } else { 1 };
        for _ in 0..attempts {
            let run = run_worker(
                survey,
                backend.as_ref(),
                grant,
                cfg.shard_capacity.max(1),
                &probe,
            )?;
            clock.advance((grant.end.saturating_sub(grant.start) as u64) * SITE_MS);
            // Crawling took virtual time; prove liveness before merging so
            // the next standby's takeover clockwork stays honest.
            coordinator.heartbeat(clock.now())?;
            let publish = match run {
                WorkerRun::Published(p) => p,
                WorkerRun::Died(orphan) => {
                    coordinator.stats_mut().workers_died += 1;
                    // A kill at the publish step leaves a zombie message;
                    // replay it at the end to prove the fence holds.
                    zombies.extend(orphan);
                    continue;
                }
            };
            match coordinator.merge_publish(&publish, &probe) {
                Err(FabricError::CoordinatorKilled(_)) => {
                    // Crashed mid-merge: the publish itself is now stale
                    // from the successor's point of view (its lease either
                    // completed durably or will reissue under a new
                    // epoch). Keep it around as a zombie replay.
                    zombies.push(publish);
                    crash!()
                }
                merged => merged?,
            };
        }
    }
    // The table has drained. Replay every zombie publish: each one's lease
    // is Completed (or Issued under a bumped epoch it doesn't carry), so
    // the merge point MUST fence it — acceptance here would be the
    // double-count the fabric exists to prevent.
    let mut fenced_replays = 0u64;
    for publish in &zombies {
        match coordinator.merge_publish(publish, &NoProbe)? {
            MergeOutcome::Fenced => fenced_replays += 1,
            MergeOutcome::Accepted { .. } => {
                return Err(FabricError::Fabric(format!(
                    "stale publish for lease {} epoch {} was accepted after drain",
                    publish.lease, publish.epoch
                )));
            }
        }
    }
    // Zombie COORDINATOR replays: every killed incumbent still holds an
    // in-memory lease table and an election handle; let each one try the
    // durable write it would make if it woke up now. The store's CAS fence
    // must reject every single one.
    let mut coordinators_deposed = 0u64;
    for dead in &mut dead_coordinators {
        match dead.persist_table() {
            Err(FabricError::Deposed(_)) => coordinators_deposed += 1,
            Err(e) => return Err(e),
            Ok(()) => {
                return Err(FabricError::Fabric(
                    "deposed coordinator's table write reached the store".into(),
                ));
            }
        }
    }
    let stats = coordinator.stats_mut();
    stats.elections_won = elections_won;
    stats.coordinators_deposed = coordinators_deposed;
    let worker_deaths = stats.workers_died;
    let steps = probe.steps();
    let trace = probe.trace();
    let outcome = coordinator.finish(survey)?;
    Ok(SimOutcome {
        outcome,
        steps,
        trace,
        worker_deaths,
        coordinator_crashes,
        elections_won,
        coordinators_deposed,
        fenced_replays,
    })
}
