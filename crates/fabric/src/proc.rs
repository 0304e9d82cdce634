//! The cross-process fabric driver: one coordinator process, N worker
//! OS processes, coordinating **only** through the storage backend.
//!
//! The in-process driver ([`crate::run`]) serializes through a mutex; here
//! there is no shared memory at all. The coordinator assigns leases by
//! writing `owner=` into the durable lease table ([`Coordinator::claim_for`]);
//! workers poll the table, crawl the ranges routed to them, and hand back
//! results as *publish objects* — small text manifests named
//! `publish-lNNNN-eNNNN` listing the sealed staging shards. The
//! coordinator sweeps publish objects (sorted, so the op sequence is
//! backend-order-independent), absorbs each through the same epoch-fenced
//! [`Coordinator::merge_publish`] the thread driver uses, and deletes the
//! object. A publish from a fenced epoch — a zombie worker whose lease was
//! reclaimed — is discarded exactly like a replayed thread publish.
//!
//! Failure model: a worker process dying is detected by the `worker_alive`
//! callback (process exit), and its issued leases are force-reclaimed with
//! an epoch bump ([`Coordinator::reclaim_owner`]) — no need to wait out the
//! wall-clock deadline, though expiry still covers a *hung* (alive but
//! stuck) worker. If every worker dies, the coordinator crawls the
//! remaining ranges inline, so the fabric always terminates with the
//! complete, fingerprint-identical dataset.
//!
//! Time here is wall-clock milliseconds since the coordinator started (the
//! virtual [`Instant`] currency is just relabeled), so `lease_ms` must
//! comfortably exceed a real lease's crawl time.

use crate::coordinator::{Coordinator, FabricError, FabricOutcome};
use crate::election::{election_supported, try_elect};
use crate::worker::{run_worker, LeaseGrant, NoProbe, WorkerPublish, WorkerRun};
use crate::{LeaseState, LeaseTable};
use bfu_crawler::{retry_interrupted, Survey};
use bfu_store::{StorageBackend, StoreMeta, DEFAULT_SHARD_CAPACITY};
use bfu_util::Instant;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Name of the completion marker object the coordinator writes after the
/// dataset is sealed; workers exit when they see it.
pub const DONE_NAME: &str = "FABRIC_DONE";

/// Header line of a publish object.
const PUBLISH_HEADER: &str = "bfu-fabric-publish v1";

/// Prefix shared by all publish objects.
pub const PUBLISH_PREFIX: &str = "publish-";

/// Shape of a cross-process fabric run.
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// Worker processes the coordinator expects (ids `1..=workers`).
    pub workers: u32,
    /// Sites per lease (the work-unit granularity).
    pub sites_per_lease: usize,
    /// Lease lifetime in wall-clock milliseconds. Covers hung workers;
    /// dead ones are reclaimed immediately via `worker_alive`.
    pub lease_ms: u64,
    /// Coordinator/worker polling interval in wall-clock milliseconds.
    pub poll_ms: u64,
    /// Records per staging/canonical shard before rollover.
    pub shard_capacity: u32,
    /// Coordinator heartbeat window in wall-clock milliseconds. Only
    /// meaningful on backends with native conditional puts, where the
    /// coordinator runs under an elected, CAS-fenced term; a standby
    /// coordinator may take over once the heartbeat goes this stale.
    pub heartbeat_ms: u64,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            workers: 2,
            sites_per_lease: 25,
            lease_ms: 600_000,
            poll_ms: 10,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
            heartbeat_ms: 60_000,
        }
    }
}

/// The publish object's name for `lease` under `epoch`. Epoch is part of
/// the name so a zombie's stale publish can never clobber the reissued
/// holder's — they are different objects, and the fence at merge sorts
/// them out.
pub fn publish_name(lease: u32, epoch: u32) -> String {
    format!("{PUBLISH_PREFIX}l{lease:04}-e{epoch:04}")
}

/// Render a [`WorkerPublish`] as a publish object body.
fn render_publish(p: &WorkerPublish) -> String {
    let mut out = String::new();
    out.push_str(PUBLISH_HEADER);
    out.push('\n');
    out.push_str(&format!(
        "lease={} epoch={} sites={}\n",
        p.lease, p.epoch, p.sites_crawled
    ));
    for shard in &p.shards {
        out.push_str("shard=");
        out.push_str(shard);
        out.push('\n');
    }
    out
}

/// Parse a publish object body; `None` for anything malformed (a torn or
/// foreign object is skipped, never fatal — the lease just reissues).
fn parse_publish(bytes: &[u8]) -> Option<WorkerPublish> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut lines = text.lines();
    if lines.next()? != PUBLISH_HEADER {
        return None;
    }
    let mut lease = None;
    let mut epoch = None;
    let mut sites = None;
    for field in lines.next()?.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "lease" => lease = value.parse::<u32>().ok(),
            "epoch" => epoch = value.parse::<u32>().ok(),
            "sites" => sites = value.parse::<usize>().ok(),
            _ => return None,
        }
    }
    let mut shards = Vec::new();
    for line in lines {
        let name = line.strip_prefix("shard=")?;
        if name.is_empty() {
            return None;
        }
        shards.push(name.to_string());
    }
    Some(WorkerPublish {
        lease: lease?,
        epoch: epoch?,
        shards,
        sites_crawled: sites?,
    })
}

/// What ended a worker process's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Saw the [`DONE_NAME`] marker: the dataset is sealed.
    Done,
    /// Hit the `max_leases` cap (torture harnesses use this to model a
    /// worker dying after a fixed amount of work).
    LeaseCap,
    /// `max_polls` elapsed without the done marker appearing — the
    /// coordinator is presumed gone; exit rather than spin forever.
    Orphaned,
}

/// Worker-process entry point: poll the lease table on `backend`, crawl
/// every lease routed to `worker_id`, and hand each result back as a
/// publish object. Returns when the done marker appears, after
/// `max_leases` leases (if `Some` — the torture knob for "die after N"),
/// or after `max_polls` empty polls.
///
/// The worker never mutates the lease table — ownership flows one way
/// (coordinator writes, worker reads), and results flow back only through
/// publish objects, so there is exactly one writer per object name.
pub fn run_fabric_worker(
    survey: &Survey,
    backend: Arc<dyn StorageBackend>,
    worker_id: u32,
    cfg: &ProcConfig,
    max_leases: Option<usize>,
    max_polls: usize,
) -> Result<WorkerExit, FabricError> {
    let fingerprint = survey.fingerprint();
    let mut done_leases = 0usize;
    let mut published: Vec<(u32, u32)> = Vec::new();
    for _ in 0..max_polls.max(1) {
        if retry_interrupted(|| backend.exists(DONE_NAME)).unwrap_or(false) {
            return Ok(WorkerExit::Done);
        }
        let Some(table) = LeaseTable::read(backend.as_ref())? else {
            std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
            continue;
        };
        if table.fingerprint != fingerprint {
            return Err(FabricError::Fabric(format!(
                "lease table fingerprint {:016x} is not this survey's {:016x}",
                table.fingerprint, fingerprint
            )));
        }
        let mut worked = false;
        for lease in &table.leases {
            if lease.state != LeaseState::Issued || lease.owner != worker_id {
                continue;
            }
            if published.contains(&(lease.id, lease.epoch)) {
                continue; // crawled under this exact epoch already
            }
            let name = publish_name(lease.id, lease.epoch);
            if retry_interrupted(|| backend.exists(&name)).unwrap_or(false) {
                continue; // a previous incarnation already published this
            }
            let grant = LeaseGrant {
                lease: lease.id,
                start: lease.start,
                end: lease.end,
                epoch: lease.epoch,
            };
            let run = run_worker(
                survey,
                backend.as_ref(),
                grant,
                cfg.shard_capacity.max(1),
                &NoProbe,
            )?;
            let WorkerRun::Published(publish) = run else {
                return Err(FabricError::Fabric("worker died under NoProbe".into()));
            };
            // `replace` (not `put`): last-writer-wins whole-object publish,
            // safe against a concurrent zombie only because the epoch in
            // the name makes same-name writers same-epoch — identical
            // content by determinism.
            backend
                .replace(&name, render_publish(&publish).as_bytes())
                .map_err(FabricError::from)?;
            published.push((lease.id, lease.epoch));
            worked = true;
            done_leases += 1;
            if max_leases.is_some_and(|cap| done_leases >= cap) {
                return Ok(WorkerExit::LeaseCap);
            }
        }
        if !worked {
            std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        }
    }
    Ok(WorkerExit::Orphaned)
}

/// Coordinator-process driver: assign leases to live workers, absorb their
/// publish objects, reclaim dead owners' leases, and finish the store.
///
/// `worker_alive(id)` reports whether worker process `id` (1-based) is
/// still running; the spawner owns that knowledge (child handles), the
/// fabric just reacts to it. When no worker is alive and ranges remain,
/// the coordinator crawls them inline so the run always completes.
pub fn run_fabric_coordinator(
    survey: &Survey,
    backend: Arc<dyn StorageBackend>,
    cfg: &ProcConfig,
    worker_alive: &mut dyn FnMut(u32) -> bool,
) -> Result<FabricOutcome, FabricError> {
    let mut meta = StoreMeta::for_survey(survey);
    meta.shard_capacity = cfg.shard_capacity.max(1);
    let started = std::time::Instant::now();
    // On a CAS-capable backend the coordinator runs under an elected,
    // generation-fenced term: win it before touching any durable state.
    // The wait is bounded — a stale COORD record from a previous process
    // (whose wall-clock relabeling doesn't align with ours) must not wedge
    // the run, so after one full heartbeat window we proceed unelected.
    let mut elected = None;
    if election_supported(backend.as_ref()) {
        let give_up = std::time::Instant::now()
            + Duration::from_millis(cfg.heartbeat_ms.saturating_add(cfg.poll_ms.max(1) * 4));
        loop {
            let now = Instant(started.elapsed().as_millis() as u64);
            match try_elect(backend.as_ref(), 1, now, cfg.heartbeat_ms)? {
                Some(h) => {
                    elected = Some(h);
                    break;
                }
                None if std::time::Instant::now() >= give_up => break,
                None => std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1))),
            }
        }
    }
    let mut coord = match elected {
        Some(handle) => Coordinator::open_elected(
            Arc::clone(&backend),
            survey,
            meta,
            cfg.sites_per_lease,
            cfg.lease_ms,
            handle,
        )?,
        None => Coordinator::open(
            Arc::clone(&backend),
            survey,
            meta,
            cfg.sites_per_lease,
            cfg.lease_ms,
        )?,
    };
    coord.stats_mut().workers = u64::from(cfg.workers.max(1));
    let mut next_worker = 0u32;
    while !coord.all_completed() {
        let now = Instant(started.elapsed().as_millis() as u64);
        // Prove liveness every sweep; a standby takes the term the moment
        // this goes a heartbeat window stale. A Deposed error here is the
        // correct way for this process to learn it lost — stop writing.
        coord.heartbeat(now)?;

        // 1. Absorb every visible publish object, in sorted name order so
        //    the op sequence is identical whatever order the backend
        //    listed them in. Fenced publishes are discarded by the merge
        //    point; the object is removed either way.
        let mut publishes: Vec<String> = retry_interrupted(|| backend.list())?
            .into_iter()
            .filter(|n| n.starts_with(PUBLISH_PREFIX))
            .collect();
        publishes.sort_unstable();
        for name in &publishes {
            let bytes = match retry_interrupted(|| backend.get(name)) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(FabricError::from(e)),
            };
            if let Some(publish) = parse_publish(&bytes) {
                coord.merge_publish(&publish, &NoProbe)?;
            }
            let _ = retry_interrupted(|| backend.remove(name));
        }

        // 2. Reclaim: wall-clock expiry first (covers hung-but-alive
        //    workers), then force-reclaim dead owners — their unmerged
        //    work is gone, waiting out the deadline buys nothing.
        coord.reclaim_expired(now, &NoProbe)?;
        let mut alive: Vec<u32> = Vec::new();
        for id in 1..=cfg.workers.max(1) {
            if worker_alive(id) {
                alive.push(id);
            } else {
                coord.reclaim_owner(id, &NoProbe)?;
            }
        }

        // 3. Assign every pending lease round-robin over live workers —
        //    or crawl inline when nobody is left to route to.
        if alive.is_empty() {
            while let Some(grant) = coord.claim_for(now, 0, &NoProbe)? {
                let run = run_worker(
                    survey,
                    backend.as_ref(),
                    grant,
                    cfg.shard_capacity.max(1),
                    &NoProbe,
                )?;
                let WorkerRun::Published(publish) = run else {
                    return Err(FabricError::Fabric("worker died under NoProbe".into()));
                };
                coord.merge_publish(&publish, &NoProbe)?;
            }
            continue;
        }
        let mut assigned = false;
        loop {
            let owner = alive[(next_worker as usize) % alive.len()];
            if coord.claim_for(now, owner, &NoProbe)?.is_none() {
                break;
            }
            next_worker = next_worker.wrapping_add(1);
            assigned = true;
        }
        if !assigned && publishes.is_empty() {
            std::thread::sleep(Duration::from_millis(cfg.poll_ms.max(1)));
        }
    }

    // Leftover publish objects (fenced zombies that raced the last merge
    // sweep) are debris; remove them before sealing so the store holds
    // only canonical names. Sorted for the same order-independence reason.
    let mut leftovers: Vec<String> = retry_interrupted(|| backend.list())?
        .into_iter()
        .filter(|n| n.starts_with(PUBLISH_PREFIX))
        .collect();
    leftovers.sort_unstable();
    for name in &leftovers {
        let _ = retry_interrupted(|| backend.remove(name));
    }
    let outcome = coord.finish(survey)?;
    // The done marker releases polling workers. Best-effort: if this
    // write dies the workers exit via their poll cap instead.
    let fp = format!("{:016x}", outcome.dataset.fingerprint());
    let _ = backend.replace(DONE_NAME, fp.as_bytes());
    Ok(outcome)
}

/// Run `survey` across real OS worker processes on `backend`.
///
/// `spawn_worker(id)` launches worker process `id` (which must end up
/// calling [`run_fabric_worker`] with the same survey and an equivalent
/// backend — typically the same directory via `bfu-objstore`'s
/// `DirObjectStore`); the returned [`std::process::Child`] handles are
/// polled for liveness and reaped on exit. Worker deaths are tolerated:
/// their leases are fenced and reassigned, and if every worker dies the
/// coordinator finishes the crawl inline.
pub fn run_survey_fabric_processes(
    survey: &Survey,
    backend: Arc<dyn StorageBackend>,
    cfg: &ProcConfig,
    spawn_worker: &mut dyn FnMut(u32) -> io::Result<std::process::Child>,
) -> Result<FabricOutcome, FabricError> {
    let mut children: Vec<(u32, Option<std::process::Child>)> = Vec::new();
    for id in 1..=cfg.workers.max(1) {
        match spawn_worker(id) {
            Ok(child) => children.push((id, Some(child))),
            // A worker that never started is just a dead worker.
            Err(_) => children.push((id, None)),
        }
    }
    let mut alive = move |id: u32| -> bool {
        children
            .iter_mut()
            .find(|(cid, _)| *cid == id)
            .and_then(|(_, slot)| {
                let done = slot.as_mut()?.try_wait().map_or(true, |s| s.is_some());
                if done {
                    *slot = None; // reaped
                }
                slot.as_ref()
            })
            .is_some()
    };
    run_fabric_coordinator(survey, backend, cfg, &mut alive)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_publish() -> WorkerPublish {
        WorkerPublish {
            lease: 3,
            epoch: 2,
            shards: vec![
                "stage-l0003-e0002-00000.bfu".into(),
                "stage-l0003-e0002-00001.bfu".into(),
            ],
            sites_crawled: 25,
        }
    }

    #[test]
    fn publish_roundtrips() {
        let p = sample_publish();
        let rendered = render_publish(&p);
        assert_eq!(parse_publish(rendered.as_bytes()), Some(p));
    }

    #[test]
    fn publish_with_no_shards_roundtrips() {
        let p = WorkerPublish {
            shards: Vec::new(),
            ..sample_publish()
        };
        let rendered = render_publish(&p);
        assert_eq!(parse_publish(rendered.as_bytes()), Some(p));
    }

    #[test]
    fn malformed_publishes_parse_as_none() {
        assert_eq!(parse_publish(b""), None);
        assert_eq!(parse_publish(b"not a publish\n"), None);
        assert_eq!(parse_publish(b"bfu-fabric-publish v1\n"), None);
        assert_eq!(
            parse_publish(b"bfu-fabric-publish v1\nlease=1 epoch=2\n"),
            None,
            "missing sites field"
        );
        assert_eq!(
            parse_publish(b"bfu-fabric-publish v1\nlease=1 epoch=2 sites=5\nbogus line\n"),
            None
        );
        assert_eq!(parse_publish(&[0xFF, 0xFE, 0x00]), None, "not UTF-8");
    }

    #[test]
    fn publish_names_sort_by_lease_then_epoch() {
        let mut names = vec![
            publish_name(10, 1),
            publish_name(2, 3),
            publish_name(2, 1),
            publish_name(1, 2),
        ];
        names.sort_unstable();
        assert_eq!(
            names,
            vec![
                "publish-l0001-e0002",
                "publish-l0002-e0001",
                "publish-l0002-e0003",
                "publish-l0010-e0001",
            ]
        );
    }
}
