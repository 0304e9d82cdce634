//! Fabric torture: kill the survey fabric at every step and prove the
//! finished dataset always fingerprints identically to a single-process
//! run.
//!
//! The harness mirrors `store_torture`, one layer up: where that suite
//! power-cuts the *storage backend* at every I/O boundary, this one kills
//! the *fabric actors* — workers mid-crawl, mid-seal, at the very publish
//! step; the coordinator between lease-table writes, mid-merge — via the
//! deterministic step simulator in `bfu_fabric::sim`. A fault-free run
//! enumerates the step trace; the sweep re-runs the whole schedule once
//! per step with a kill at exactly that point.
//!
//! Beyond the kill sweep, the dedicated schedules: the double-issue run
//! (every lease handed to two workers — the loser must fence), and the
//! zombie-publish replay baked into every sim (a publish orphaned by a
//! kill is replayed after the table drains and must be fenced).
//!
//! Default is a bounded deterministic subset (CI-fast); set
//! `BFU_TORTURE_FULL=1` to sweep every step (any other value keeps it
//! bounded). `scripts/ci.sh` passes the variable on to its workspace test
//! step.

mod common;

use bfu_crawler::{CrawlConfig, Survey};
use bfu_fabric::{
    run_sim, run_survey_fabric, FabricConfig, FabricError, FabricFaultPlan, SimOutcome,
};
use bfu_objstore::{ObjFaultPlan, ObjectBackend, ReplicatedObjectStore, SimObjectStore};
use bfu_store::{
    load_survey_dataset_on, FaultFs, LoadOutcome, StorageBackend, StoreFaultPlan, PROVENANCE_NAME,
};
use bfu_webgen::{SyntheticWeb, WebConfig};
use common::sweep_points;
use std::sync::{Arc, OnceLock};

const SITES: usize = 8;
const SEED: u64 = 137;
/// Kill and partition points per sweep in the bounded run.
const BUDGET: u64 = 48;
/// The elected coordinator's heartbeat window, in virtual milliseconds.
const HEARTBEAT_MS: u64 = 2_000;

struct Fixture {
    survey: Survey,
    /// Fingerprint of the uninterrupted single-process dataset — the bar
    /// every tortured schedule must clear.
    baseline_fingerprint: u64,
    /// Step trace of one fault-free simulated fabric run.
    trace: Vec<String>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn survey_for(sites: usize, seed: u64) -> Survey {
    let web = SyntheticWeb::generate(WebConfig {
        sites,
        seed,
        script_weight: 0,
    });
    let mut config = CrawlConfig::quick(seed ^ 0xFAB);
    // One crawl thread: measurements are thread-invariant (a tested
    // crawler property), and it keeps each simulated schedule cheap —
    // the sweep runs the whole survey once per kill point.
    config.threads = 1;
    config.rounds_per_profile = 1;
    config.pages_per_site = 2;
    config.page_budget_ms = 2_000;
    Survey::new(web, config)
}

/// Small leases + tiny shards: every lifecycle edge (multi-shard leases,
/// mid-lease seals, multiple merges) shows up even at 8 sites.
fn torture_config() -> FabricConfig {
    FabricConfig {
        workers: 1,
        sites_per_lease: 3,
        lease_ms: 10_000,
        shard_capacity: 2,
    }
}

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let survey = survey_for(SITES, SEED);
        let baseline = survey.run();
        let sim = sim_with(&survey, &FabricFaultPlan::default()).expect("fault-free sim");
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            baseline.fingerprint(),
            "fabric must match the direct run before any torture"
        );
        assert!(sim.steps > 0, "a healthy run announces steps to kill at");
        Fixture {
            survey,
            baseline_fingerprint: baseline.fingerprint(),
            trace: sim.trace,
        }
    })
}

fn sim_with(survey: &Survey, plan: &FabricFaultPlan) -> Result<SimOutcome, FabricError> {
    let backend: Arc<dyn StorageBackend> = Arc::new(FaultFs::new(StoreFaultPlan::none()));
    run_sim(survey, backend, &torture_config(), plan)
}

/// The elected schedule: the coordinator holds a term, heartbeating every
/// [`HEARTBEAT_MS`], and is killed at `kill_at`.
fn elected(kill_at: Option<u64>) -> FabricFaultPlan {
    FabricFaultPlan {
        kill_at,
        heartbeat_ms: Some(HEARTBEAT_MS),
        ..FabricFaultPlan::default()
    }
}

#[test]
fn healthy_fabric_matches_single_process() {
    let fx = fixture();
    let sim = sim_with(&fx.survey, &FabricFaultPlan::default()).expect("healthy sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert_eq!(sim.worker_deaths, 0);
    assert_eq!(sim.coordinator_crashes, 0);
    assert_eq!(sim.fenced_replays, 0);
    let stats = sim.outcome.stats;
    assert!(stats.enabled);
    assert_eq!(stats.leases_total, SITES.div_ceil(3) as u64);
    assert_eq!(stats.leases_completed, stats.leases_total);
    assert_eq!(stats.leases_expired, 0);
    assert_eq!(stats.records_absorbed as usize, SITES);
    assert_eq!(sim.outcome.health.fabric, stats, "stats land in health");
}

#[test]
fn kill_at_every_step_recovers_to_identical_fingerprint() {
    let fx = fixture();
    let total = fx.trace.len() as u64;
    for k in sweep_points(total, BUDGET) {
        let plan = FabricFaultPlan {
            kill_at: Some(k),
            ..FabricFaultPlan::default()
        };
        let sim = sim_with(&fx.survey, &plan)
            .unwrap_or_else(|e| panic!("kill point {k} ({}): {e}", fx.trace[k as usize]));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "kill point {k} ({}) diverged",
            fx.trace[k as usize]
        );
        assert!(
            sim.worker_deaths + sim.coordinator_crashes == 1,
            "kill point {k} ({}) must kill exactly one actor",
            fx.trace[k as usize]
        );
        // Losses are typed, not silent: a worker death shows up in the
        // health counters, a coordinator crash in recovered lease churn.
        let stats = sim.outcome.stats;
        if sim.worker_deaths > 0 {
            assert_eq!(stats.workers_died, sim.worker_deaths);
        }
        // The single kill can cost at most one lease's *accounting* (a
        // coordinator crash after the completion write but before the
        // counter bump); the table itself always drains — `run_sim` only
        // returns once every lease is durably completed.
        assert!(stats.leases_completed + sim.coordinator_crashes >= stats.leases_total);
    }
}

#[test]
fn stale_publish_after_worker_death_is_fenced() {
    let fx = fixture();
    // Kill exactly at a publish step: the worker dies with its publish in
    // hand, the lease expires and reissues, and the zombie message replays
    // after the drain — where the fence must reject it.
    let k = fx
        .trace
        .iter()
        .position(|l| l.starts_with("worker:publish:"))
        .expect("healthy trace has publish steps") as u64;
    let plan = FabricFaultPlan {
        kill_at: Some(k),
        ..FabricFaultPlan::default()
    };
    let sim = sim_with(&fx.survey, &plan).expect("publish-kill schedule");
    assert_eq!(sim.worker_deaths, 1);
    assert_eq!(sim.fenced_replays, 1, "the zombie publish must be fenced");
    assert!(sim.outcome.stats.publishes_fenced >= 1);
    assert!(sim.outcome.stats.leases_expired >= 1, "the lease expired");
    assert_eq!(
        sim.outcome.dataset.fingerprint(),
        fx.baseline_fingerprint,
        "fenced replay must not perturb the dataset"
    );
}

#[test]
fn double_issued_lease_never_double_counts() {
    let fx = fixture();
    for heartbeat_ms in [None, Some(HEARTBEAT_MS)] {
        let plan = FabricFaultPlan {
            double_issue: true,
            heartbeat_ms,
            ..FabricFaultPlan::default()
        };
        // A term needs conditional puts, which the object store has.
        let sim = match heartbeat_ms {
            None => sim_with(&fx.survey, &plan),
            Some(_) => obj_sim_with(&fx.survey, &plan, ObjFaultPlan::none()).0,
        }
        .unwrap_or_else(|e| panic!("double-issue schedule, term {heartbeat_ms:?}: {e}"));
        let leases = sim.outcome.stats.leases_total;
        assert_eq!(
            sim.outcome.stats.publishes_fenced, leases,
            "term {heartbeat_ms:?}: every lease's second publish must fence"
        );
        assert_eq!(sim.outcome.stats.leases_completed, leases);
        assert_eq!(sim.elections_won, u64::from(heartbeat_ms.is_some()));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "term {heartbeat_ms:?}: double issue must not double count"
        );
    }
}

#[test]
fn coordinator_crash_between_lease_table_writes_recovers() {
    let fx = fixture();
    for prefix in ["coord:issue:", "coord:merge-absorb:", "coord:merge-commit:"] {
        let k = fx
            .trace
            .iter()
            .position(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("healthy trace has {prefix} steps")) as u64;
        let plan = FabricFaultPlan {
            kill_at: Some(k),
            ..FabricFaultPlan::default()
        };
        let sim = sim_with(&fx.survey, &plan)
            .unwrap_or_else(|e| panic!("coordinator kill at {prefix}: {e}"));
        assert_eq!(sim.coordinator_crashes, 1, "{prefix} kills the coordinator");
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "coordinator crash at {prefix} diverged"
        );
    }
}

#[test]
fn multi_worker_fabric_matches_single_process() {
    // The real thing: four worker threads racing over one coordinator.
    let survey = survey_for(12, SEED ^ 0x4D);
    let baseline_fp = survey.run().fingerprint();
    let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
    let backend: Arc<dyn StorageBackend> = fs.clone();
    let cfg = FabricConfig {
        workers: 4,
        sites_per_lease: 2,
        shard_capacity: 2,
        ..FabricConfig::default()
    };
    let outcome = run_survey_fabric(&survey, backend, &cfg).expect("4-worker fabric");
    assert_eq!(outcome.dataset.fingerprint(), baseline_fp);
    let stats = outcome.stats;
    assert!(stats.enabled);
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.leases_total, 6);
    assert_eq!(stats.leases_completed, 6);
    assert_eq!(stats.records_absorbed, 12);
    // The provenance sidecar carries the fabric block.
    let provenance = String::from_utf8(fs.get(PROVENANCE_NAME).expect("provenance written"))
        .expect("provenance is UTF-8");
    assert!(provenance.contains("\"fabric\""));
    assert!(provenance.contains("\"workers\": 4"));
    assert!(provenance.contains("\"publishes_fenced\": 0"));
    // No staging debris survives the merge + finish sweep.
    assert!(
        fs.visible_names().iter().all(|n| !n.starts_with("stage-")),
        "staging namespace must be empty after finish"
    );
}

// ---------------------------------------------------------------------
// Object-store partition torture: the same fabric schedules, but the
// backend is `ObjectBackend<SimObjectStore>` — whole-object puts with
// delayed visibility, read-your-writes violations, lost-then-replayed
// puts, and stale/shuffled listings. The adapter's visibility retries
// must heal every partition, and the fabric's fences must absorb what
// retries can't, so every schedule still lands on the baseline
// fingerprint.
// ---------------------------------------------------------------------

/// Run the simulated fabric over a faulted object store; hand back the
/// sim outcome plus the store (for op counts and traces).
fn obj_sim_with(
    survey: &Survey,
    plan: &FabricFaultPlan,
    obj_plan: ObjFaultPlan,
) -> (Result<SimOutcome, FabricError>, Arc<SimObjectStore>) {
    let store = Arc::new(SimObjectStore::new(obj_plan));
    let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(store.clone()));
    (run_sim(survey, backend, &torture_config(), plan), store)
}

#[test]
fn healthy_fabric_over_object_store_matches_single_process() {
    let fx = fixture();
    let (sim, store) = obj_sim_with(
        &fx.survey,
        &FabricFaultPlan::default(),
        ObjFaultPlan::none(),
    );
    let sim = sim.expect("healthy object-store sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert!(store.ops() > 0, "the fabric drove backend ops");
    // The coordinator's finish fills health.backend from the adapter's
    // counters: an object-store run is visibly an object-store run.
    let backend = sim.outcome.health.backend;
    assert!(backend.enabled);
    assert!(backend.puts > 0 && backend.gets > 0 && backend.lists > 0);
    assert!(backend.bytes_out > 0);
    assert_eq!(
        backend.visibility_failures, 0,
        "no partitions injected, so nothing may time out healing"
    );
}

#[test]
fn partition_at_every_backend_op_recovers_to_identical_fingerprint() {
    let fx = fixture();
    // A fault-free run enumerates the backend op schedule; the sweep
    // partitions each op (worst-case full-window delayed visibility for
    // puts/deletes, stale reads and listings in the window).
    let (healthy, store) = obj_sim_with(
        &fx.survey,
        &FabricFaultPlan::default(),
        ObjFaultPlan::none(),
    );
    healthy.expect("healthy object-store sim");
    let total_ops = store.ops();
    for p in sweep_points(total_ops, BUDGET) {
        let (sim, store) = obj_sim_with(
            &fx.survey,
            &FabricFaultPlan::default(),
            ObjFaultPlan::none().with_partition_at(p),
        );
        let sim = sim.unwrap_or_else(|e| panic!("partition at op {p}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "partition at op {p} ({:?}) diverged",
            store.op_trace().get(p as usize)
        );
    }
}

#[test]
fn kill_and_partition_together_recover() {
    // The diagonal: every fabric kill point paired with a backend
    // partition at a derived op — a worker dies *while* the store is
    // serving stale views. Exhaustive under `BFU_TORTURE_FULL=1`.
    let fx = fixture();
    let (healthy, store) = obj_sim_with(
        &fx.survey,
        &FabricFaultPlan::default(),
        ObjFaultPlan::none(),
    );
    healthy.expect("healthy object-store sim");
    let total_ops = store.ops().max(1);
    let total_steps = fx.trace.len() as u64;
    for k in sweep_points(total_steps, BUDGET) {
        // Derived, deterministic, and spread across the op schedule so
        // the pairing isn't always "partition right at the start".
        let p = (k.wrapping_mul(7) + 3) % total_ops;
        let plan = FabricFaultPlan {
            kill_at: Some(k),
            ..FabricFaultPlan::default()
        };
        let (sim, _) = obj_sim_with(&fx.survey, &plan, ObjFaultPlan::none().with_partition_at(p));
        let sim = sim.unwrap_or_else(|e| panic!("kill {k} + partition {p}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "kill {k} ({}) + partition {p} diverged",
            fx.trace[k as usize]
        );
        assert_eq!(sim.worker_deaths + sim.coordinator_crashes, 1);
    }
}

#[test]
fn chaos_partitions_converge_to_identical_fingerprint() {
    // Seeded chaos: delayed puts, lost-then-replayed puts (resurrecting
    // stale LEASES/MANIFEST versions), read-your-writes violations, and
    // stale shuffled listings, all at once, across several seeds.
    let fx = fixture();
    for seed in [1u64, 0xC4A05, 0xDEAD_BEEF] {
        let (sim, _) = obj_sim_with(
            &fx.survey,
            &FabricFaultPlan::default(),
            ObjFaultPlan::chaos(seed),
        );
        let sim = sim.unwrap_or_else(|e| panic!("chaos seed {seed:#x}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "chaos seed {seed:#x} diverged"
        );
        let backend = sim.outcome.health.backend;
        assert!(
            backend.enabled && backend.retries > 0,
            "chaos forced retries"
        );
    }
}

#[test]
fn chaos_partitions_plus_kill_converge() {
    // Worst of both worlds: a worker killed at a publish step while the
    // backend is under full chaos, zombie replay included.
    let fx = fixture();
    let k = fx
        .trace
        .iter()
        .position(|l| l.starts_with("worker:publish:"))
        .expect("healthy trace has publish steps") as u64;
    let plan = FabricFaultPlan {
        kill_at: Some(k),
        ..FabricFaultPlan::default()
    };
    let (sim, _) = obj_sim_with(&fx.survey, &plan, ObjFaultPlan::chaos(0x0B5));
    let sim = sim.expect("chaos + publish-kill schedule");
    assert_eq!(sim.worker_deaths, 1);
    assert_eq!(
        sim.outcome.dataset.fingerprint(),
        fx.baseline_fingerprint,
        "chaos + kill diverged"
    );
}

#[test]
fn shuffled_listings_never_change_the_dataset() {
    // Satellite regression: every list() consumer must sort before
    // folding. The sim store shuffles each listing deterministically;
    // any order-sensitive fold shows up as a fingerprint change.
    let fx = fixture();
    let (sim, _) = obj_sim_with(
        &fx.survey,
        &FabricFaultPlan::default(),
        ObjFaultPlan::none().with_shuffled_lists(),
    );
    let sim = sim.expect("shuffled-listing sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
}

#[test]
fn restarted_fabric_adopts_orphaned_leases() {
    // A "crashed run": issue every lease durably, crawl nothing, drop the
    // coordinator. A fresh fabric over the same backend must reclaim the
    // orphans (fast-forwarding its clock past their deadlines) and finish.
    let survey = survey_for(6, SEED ^ 0x2E);
    let baseline_fp = survey.run().fingerprint();
    let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
    let backend: Arc<dyn StorageBackend> = fs.clone();
    let cfg = FabricConfig {
        workers: 2,
        sites_per_lease: 2,
        shard_capacity: 2,
        ..FabricConfig::default()
    };
    {
        use bfu_fabric::{Coordinator, NoProbe};
        use bfu_store::StoreMeta;
        use bfu_util::Instant;
        let mut meta = StoreMeta::for_survey(&survey);
        meta.shard_capacity = cfg.shard_capacity;
        let mut coord = Coordinator::open(
            fs.clone() as Arc<dyn StorageBackend>,
            &survey,
            meta,
            cfg.sites_per_lease,
            cfg.lease_ms,
        )
        .expect("first fabric opens");
        while coord
            .claim(Instant::ZERO, &NoProbe)
            .expect("claim")
            .is_some()
        {}
        // Dropped here: every lease is Issued, none completed, no worker
        // will ever publish.
    }
    let outcome = run_survey_fabric(&survey, backend, &cfg).expect("restarted fabric");
    assert_eq!(outcome.dataset.fingerprint(), baseline_fp);
    assert_eq!(outcome.stats.leases_reclaimed, 3, "all orphans reclaimed");
    assert_eq!(outcome.stats.leases_completed, 3);
}

// ---------------------------------------------------------------------
// Network torture: the same fabric schedules, but every backend op now
// crosses a *wire* — `RemoteObjectStore` → framed/checksummed protocol →
// `ObjectServer` → `SimObjectStore` — and the wire is hostile: dropped
// requests, dropped responses (the op executed, the ack died), truncated
// frames, stalls, duplicated delivery, reordered responses. The client's
// idempotent retry (stable request ids + the server's replay cache) must
// make every schedule land on the same baseline fingerprint, with every
// retry and reconnect visible in the provenance counters.
// ---------------------------------------------------------------------

use bfu_net::{WireFault, WireFaultPlan};
use bfu_objstore::{
    ObjectServer, ObjectStore, RemoteClock, RemoteObjectStore, RemotePolicy, SimTransport,
};
use bfu_util::VirtualClock;
use std::sync::Mutex;

struct RemoteRig {
    backend: Arc<dyn StorageBackend>,
    server: Arc<ObjectServer>,
    remote: Arc<RemoteObjectStore>,
}

/// The full remote stack over a simulated wire: client retries pay a
/// shared virtual clock, the server fronts a partition-free sim store
/// (wire faults are the dimension under test here).
fn remote_rig(wire: WireFaultPlan) -> RemoteRig {
    let inner = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
    let server = Arc::new(ObjectServer::new(inner));
    let clock = Arc::new(Mutex::new(VirtualClock::new()));
    let remote = Arc::new(RemoteObjectStore::new(
        1,
        Box::new(SimTransport::new(
            Arc::clone(&server),
            wire,
            Arc::clone(&clock),
            2,
        )),
        RemoteClock::Virtual(Arc::clone(&clock)),
        RemotePolicy::default(),
    ));
    let store: Arc<dyn ObjectStore> = Arc::clone(&remote) as Arc<dyn ObjectStore>;
    let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::with_clock(store, clock));
    RemoteRig {
        backend,
        server,
        remote,
    }
}

#[test]
fn healthy_fabric_over_the_wire_matches_single_process() {
    let fx = fixture();
    let rig = remote_rig(WireFaultPlan::none());
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &FabricFaultPlan::default(),
    )
    .expect("healthy remote sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert!(rig.server.served() > 0, "every op crossed the wire");
    let backend = sim.outcome.health.backend;
    assert!(backend.enabled);
    assert!(backend.remote_ops > 0, "remote effort lands in provenance");
    assert_eq!(backend.remote_retries, 0, "a clean wire needs no retries");
}

#[test]
fn every_wire_fault_class_at_swept_exchanges_recovers() {
    // A fault-free run enumerates the exchange schedule; then each wire
    // fault class is forced at a sweep of exchange positions. Every
    // schedule must recover to the baseline fingerprint, and the forced
    // fault's cost must be visible as retries (a dropped *request* and a
    // dropped *response* alike — the latter is the case the request-id
    // replay cache exists for).
    let fx = fixture();
    let rig = remote_rig(WireFaultPlan::none());
    run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &FabricFaultPlan::default(),
    )
    .expect("healthy remote sim");
    let totals = rig.remote.remote_totals().expect("remote totals");
    assert_eq!(totals.retries, 0);
    let total_exchanges = totals.ops; // clean wire: one exchange per op
    for (i, p) in sweep_points(total_exchanges, BUDGET)
        .into_iter()
        .enumerate()
    {
        // Rotate through the fault classes across the swept positions so
        // the bounded run still exercises all six; `BFU_TORTURE_FULL=1`
        // sweeps every position (still rotating).
        let fault = WireFault::ALL[i % WireFault::ALL.len()];
        let rig = remote_rig(WireFaultPlan::none().with_fault_at(p, fault));
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .unwrap_or_else(|e| panic!("{fault:?} at exchange {p}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "{fault:?} at exchange {p} diverged"
        );
        let totals = rig.remote.remote_totals().expect("remote totals");
        match fault {
            // Stalls delay but deliver; duplicates execute twice on the
            // server (idempotently) but still answer the client.
            WireFault::Stall | WireFault::Duplicate => {}
            _ => assert!(
                totals.retries > 0,
                "{fault:?} at exchange {p} must cost a visible retry"
            ),
        }
    }
}

#[test]
fn wire_chaos_converges_to_identical_fingerprint() {
    // Seeded chaos on every exchange: drops both ways, truncation,
    // stalls, duplication, reordering, across several seeds.
    let fx = fixture();
    for seed in [3u64, 0x31E7, 0xFEED_F00D] {
        let rig = remote_rig(WireFaultPlan::chaos(seed));
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .unwrap_or_else(|e| panic!("wire chaos seed {seed:#x}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "wire chaos seed {seed:#x} diverged"
        );
        let backend = sim.outcome.health.backend;
        assert!(
            backend.remote_retries > 0,
            "chaos seed {seed:#x} forced wire retries"
        );
    }
}

#[test]
fn wire_chaos_plus_worker_kill_converges() {
    // A worker killed at its publish step while the wire is under chaos:
    // the zombie replay, the lease reissue, and the retry machinery all
    // compose.
    let fx = fixture();
    let k = fx
        .trace
        .iter()
        .position(|l| l.starts_with("worker:publish:"))
        .expect("healthy trace has publish steps") as u64;
    let plan = FabricFaultPlan {
        kill_at: Some(k),
        ..FabricFaultPlan::default()
    };
    let rig = remote_rig(WireFaultPlan::chaos(0xA11));
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &plan,
    )
    .expect("wire chaos + publish-kill schedule");
    assert_eq!(sim.worker_deaths, 1);
    assert_eq!(sim.fenced_replays, 1);
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
}

// ---------------------------------------------------------------------
// Coordinator election torture: the coordinator holds a CAS-fenced
// elected term over the remote stack. Kill it at every step — a standby
// must win the next term and finish the survey, and the killed
// incumbent's replayed table write must be rejected at the store.
// ---------------------------------------------------------------------

#[test]
fn healthy_elected_fabric_matches_single_process() {
    let fx = fixture();
    let rig = remote_rig(WireFaultPlan::none());
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &elected(None),
    )
    .expect("healthy elected sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert_eq!(sim.elections_won, 1, "exactly the initial claim");
    assert_eq!(sim.coordinators_deposed, 0);
    assert_eq!(sim.outcome.stats.elections_won, 1, "counter reaches health");
}

#[test]
fn coordinator_killed_at_every_step_standby_wins_and_finishes() {
    // The tentpole invariant: kill the elected coordinator at every
    // coordinator step; a standby must take the term, finish the survey to
    // the identical fingerprint, and the dead incumbent's replayed write
    // must come back Deposed — rejected by the store's CAS fence, not by
    // any cooperation from the zombie. A kill at a worker step needs no
    // takeover: the incumbent keeps its term and the lease reissues.
    let fx = fixture();
    let rig = remote_rig(WireFaultPlan::none());
    let healthy = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &elected(None),
    )
    .expect("healthy elected sim");
    // The elected schedule announces the unelected fixture's labels in
    // the same order, so the fixture trace enumerates its kill points.
    assert_eq!(healthy.trace, fx.trace);
    assert!(
        fx.trace.iter().any(|l| l.starts_with("coord:")),
        "the trace has coordinator steps to kill"
    );
    for (k, label) in fx.trace.iter().enumerate() {
        let rig = remote_rig(WireFaultPlan::none());
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &elected(Some(k as u64)),
        )
        .unwrap_or_else(|e| panic!("elected kill at step {k} ({label}): {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "elected kill at step {k} ({label}) diverged"
        );
        if label.starts_with("coord:") {
            assert_eq!(sim.coordinator_crashes, 1, "step {k} kills the incumbent");
            assert_eq!(
                sim.elections_won, 2,
                "step {k}: initial claim + the standby's takeover"
            );
            assert_eq!(
                sim.coordinators_deposed, 1,
                "step {k}: the zombie's replayed write must be CAS-fenced"
            );
            assert_eq!(sim.outcome.stats.coordinators_deposed, 1);
        } else {
            assert_eq!(sim.worker_deaths, 1, "step {k} ({label}) kills a worker");
            assert_eq!(
                sim.elections_won, 1,
                "step {k}: the incumbent keeps its term"
            );
            assert_eq!(sim.coordinators_deposed, 0);
        }
    }
}

// ---------------------------------------------------------------------
// Replica torture: the backend is an `ObjectBackend` over a
// `ReplicatedObjectStore` spanning three `SimObjectStore` replicas with
// majority quorums (W = R = 2). The replication layer must absorb any
// single replica dying at any of its ops — quorum continues, nothing
// resumes, no error ever reaches the fabric — and an anti-entropy scrub
// must catch a crashed-and-rejoined replica back up to a state that can
// serve the complete dataset alone.
// ---------------------------------------------------------------------

use bfu_util::fnv64;

struct ReplicaRig {
    backend: Arc<dyn StorageBackend>,
    store: Arc<ReplicatedObjectStore>,
    sims: Vec<Arc<SimObjectStore>>,
}

fn replica_rig(plans: [ObjFaultPlan; 3]) -> ReplicaRig {
    let sims: Vec<Arc<SimObjectStore>> = plans
        .iter()
        .map(|p| Arc::new(SimObjectStore::new(*p)))
        .collect();
    let replicas: Vec<Arc<dyn ObjectStore>> = sims
        .iter()
        .map(|s| Arc::clone(s) as Arc<dyn ObjectStore>)
        .collect();
    let store = Arc::new(ReplicatedObjectStore::majority(replicas).expect("replicated store"));
    let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(
        Arc::clone(&store) as Arc<dyn ObjectStore>
    ));
    ReplicaRig {
        backend,
        store,
        sims,
    }
}

/// Per-replica op counts of one fault-free replicated fabric run — each
/// replica's own coordinate space for the kill/partition sweeps.
fn healthy_replica_ops() -> &'static Vec<u64> {
    static OPS: OnceLock<Vec<u64>> = OnceLock::new();
    OPS.get_or_init(|| {
        let fx = fixture();
        let rig = replica_rig([ObjFaultPlan::none(); 3]);
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .expect("healthy replicated sim");
        assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
        rig.sims.iter().map(|s| s.ops()).collect()
    })
}

#[test]
fn healthy_fabric_over_replicated_store_matches_single_process() {
    let fx = fixture();
    let rig = replica_rig([ObjFaultPlan::none(); 3]);
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &FabricFaultPlan::default(),
    )
    .expect("healthy replicated sim");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    for (i, s) in rig.sims.iter().enumerate() {
        assert!(s.ops() > 0, "replica {i} saw traffic");
    }
    // The replication counters reach the provenance health block.
    let backend = sim.outcome.health.backend;
    assert!(backend.enabled);
    assert_eq!(backend.replicas, 3);
    assert!(backend.replica_quorum_writes > 0, "writes acked at quorum");
    assert!(backend.replica_quorum_reads > 0, "reads settled at quorum");
    assert_eq!(
        backend.replica_errors, 0,
        "healthy replicas, no absorbed failures: {backend:?}"
    );
    assert_eq!(backend.replica_cas_promotions, 0, "primaries never skipped");
}

#[test]
fn full_survey_completes_with_any_one_replica_down_the_entire_run() {
    // The acceptance bar: for each choice of victim, the whole survey runs
    // with that replica dead from the very first op. No resume, no retry
    // loop at the fabric layer — the quorum just keeps answering.
    let fx = fixture();
    for dead in 0..3usize {
        let mut plans = [ObjFaultPlan::none(); 3];
        plans[dead] = ObjFaultPlan::none().with_crash_at(0);
        let rig = replica_rig(plans);
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .unwrap_or_else(|e| panic!("replica {dead} down for the whole run: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "replica {dead} down diverged"
        );
        let backend = sim.outcome.health.backend;
        assert!(
            backend.replica_errors > 0,
            "replica {dead}'s failures are counted, not hidden: {backend:?}"
        );
        assert!(backend.replica_quorum_writes > 0);
    }
}

#[test]
fn kill_any_one_replica_at_any_of_its_ops_quorum_continues() {
    // The tentpole sweep: for every replica, kill it at (a sweep of) its
    // own globally-numbered ops. It stays dead for the rest of the run.
    // The schedule must complete to the identical fingerprint with the
    // deaths absorbed inside the replication layer — the fabric never
    // sees an error, nothing is resumed.
    let fx = fixture();
    let ops = healthy_replica_ops();
    for (r, &total) in ops.iter().enumerate() {
        assert!(total > 10, "replica {r} workload too small: {total} ops");
        for k in sweep_points(total, 16) {
            let mut plans = [ObjFaultPlan::none(); 3];
            plans[r] = ObjFaultPlan::none().with_crash_at(k);
            let rig = replica_rig(plans);
            let sim = run_sim(
                &fx.survey,
                Arc::clone(&rig.backend),
                &torture_config(),
                &FabricFaultPlan::default(),
            )
            .unwrap_or_else(|e| panic!("replica {r} killed at its op {k}: {e}"));
            assert_eq!(
                sim.outcome.dataset.fingerprint(),
                fx.baseline_fingerprint,
                "replica {r} killed at its op {k} diverged"
            );
            let t = rig.store.replica_totals().expect("totals");
            assert!(
                t.replica_errors > 0,
                "replica {r} op {k}: the death left a counted trace"
            );
        }
    }
}

#[test]
fn partition_any_one_replica_at_any_of_its_ops_recovers() {
    // The partition dimension: one replica serves its worst-case stale
    // view at a swept op (delayed put/delete visibility, stale reads and
    // listings for the full window) while the other two stay honest. The
    // replicated read path settles generations via per-replica `head`
    // (strongly consistent) and verifiable `get_at`, and listings union
    // across replicas — so staleness on one member must never surface.
    let fx = fixture();
    let ops = healthy_replica_ops();
    for (r, &total) in ops.iter().enumerate() {
        for p in sweep_points(total, 8) {
            let mut plans = [ObjFaultPlan::none(); 3];
            plans[r] = ObjFaultPlan::none().with_partition_at(p);
            let rig = replica_rig(plans);
            let sim = run_sim(
                &fx.survey,
                Arc::clone(&rig.backend),
                &torture_config(),
                &FabricFaultPlan::default(),
            )
            .unwrap_or_else(|e| panic!("replica {r} partitioned at its op {p}: {e}"));
            assert_eq!(
                sim.outcome.dataset.fingerprint(),
                fx.baseline_fingerprint,
                "replica {r} partitioned at its op {p} diverged"
            );
        }
    }
}

#[test]
fn kill_replica_and_kill_worker_together_recover() {
    // The diagonal: every fabric kill point paired with one replica dying
    // at a derived op — a worker death and a replica death in the same
    // schedule, the replica staying down through the recovery.
    let fx = fixture();
    let ops = healthy_replica_ops();
    let total_steps = fx.trace.len() as u64;
    for k in sweep_points(total_steps, BUDGET) {
        let r = (k % 3) as usize;
        let p = (k.wrapping_mul(7) + 3) % ops[r].max(1);
        let mut plans = [ObjFaultPlan::none(); 3];
        plans[r] = ObjFaultPlan::none().with_crash_at(p);
        let rig = replica_rig(plans);
        let plan = FabricFaultPlan {
            kill_at: Some(k),
            ..FabricFaultPlan::default()
        };
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &plan,
        )
        .unwrap_or_else(|e| panic!("fabric kill {k} + replica {r} dead at {p}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "fabric kill {k} ({}) + replica {r} dead at {p} diverged",
            fx.trace[k as usize]
        );
        assert_eq!(sim.worker_deaths + sim.coordinator_crashes, 1);
    }
}

#[test]
fn replica_chaos_on_every_member_converges() {
    // Every replica under its own seeded chaos plan at once: stale and
    // shuffled listings, delayed plain-op visibility, the works. The
    // replicated protocol leans only on the strongly consistent per-
    // replica ops (`head`, `put_if`, `put_at`, `get_at`) plus unioned
    // listings, so chaos on the eventually-consistent surface must not
    // perturb anything.
    let fx = fixture();
    for base in [5u64, 0x3E9, 0xCAFE_D00D] {
        let plans = [
            ObjFaultPlan::chaos(base),
            ObjFaultPlan::chaos(base ^ 0x1111),
            ObjFaultPlan::chaos(base ^ 0x2222),
        ];
        let rig = replica_rig(plans);
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .unwrap_or_else(|e| panic!("replica chaos base {base:#x}: {e}"));
        assert_eq!(
            sim.outcome.dataset.fingerprint(),
            fx.baseline_fingerprint,
            "replica chaos base {base:#x} diverged"
        );
    }
}

#[test]
fn killed_replica_rejoins_and_anti_entropy_catches_it_up() {
    // Crash one replica mid-run, finish on the surviving majority, then
    // power-cycle the corpse and run the anti-entropy scrub. The healed
    // replica must be able to serve the *complete* dataset entirely by
    // itself — the real contract behind "caught up".
    let fx = fixture();
    let ops = healthy_replica_ops();
    for r in 0..3usize {
        let k = ops[r] / 2;
        let mut plans = [ObjFaultPlan::none(); 3];
        plans[r] = ObjFaultPlan::none().with_crash_at(k);
        let rig = replica_rig(plans);
        let sim = run_sim(
            &fx.survey,
            Arc::clone(&rig.backend),
            &torture_config(),
            &FabricFaultPlan::default(),
        )
        .unwrap_or_else(|e| panic!("replica {r} crashed at {k}: {e}"));
        assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);

        rig.sims[r].power_cycle();
        let report = rig.store.scrub().expect("anti-entropy scrub");
        assert!(
            report.copies > 0,
            "replica {r}: the rejoiner missed writes the scrub must copy"
        );
        assert!(report.names > 0);
        let t = rig.store.replica_totals().expect("totals");
        assert!(t.anti_entropy_copies >= report.copies);

        // The healed replica alone — no quorum, no peers — holds the
        // complete canonical dataset.
        let solo: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(
            Arc::clone(&rig.sims[r]) as Arc<dyn ObjectStore>
        ));
        match load_survey_dataset_on(&fx.survey, solo).expect("load from healed replica") {
            LoadOutcome::Complete { dataset, .. } => {
                assert_eq!(
                    dataset.fingerprint(),
                    fx.baseline_fingerprint,
                    "replica {r}: healed replica serves a diverged dataset"
                );
            }
            LoadOutcome::Incomplete {
                present, missing, ..
            } => panic!("replica {r}: healed replica incomplete {present}/{missing}"),
        }
    }
}

#[test]
fn elected_fabric_over_replicated_store_with_dead_cas_primary() {
    // The election's CAS fence over replicas, with the COORD record's
    // deterministic primary dead the whole run: every claim and heartbeat
    // must route through a promoted acting replica, and the fencing
    // semantics (exactly one elected term, zero depositions) must hold.
    let fx = fixture();
    let primary = (fnv64(bfu_fabric::COORD_NAME.as_bytes()) % 3) as usize;
    let mut plans = [ObjFaultPlan::none(); 3];
    plans[primary] = ObjFaultPlan::none().with_crash_at(0);
    let rig = replica_rig(plans);
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &elected(None),
    )
    .expect("elected sim over replicas with dead primary");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert_eq!(sim.elections_won, 1);
    assert_eq!(sim.coordinators_deposed, 0);
    let backend = sim.outcome.health.backend;
    assert_eq!(backend.replicas, 3);
    assert!(
        backend.replica_cas_promotions > 0,
        "the dead primary forced CAS promotions: {backend:?}"
    );
}

#[test]
fn elected_fabric_survives_wire_chaos() {
    let fx = fixture();
    let rig = remote_rig(WireFaultPlan::chaos(0xE1EC));
    let sim = run_sim(
        &fx.survey,
        Arc::clone(&rig.backend),
        &torture_config(),
        &elected(None),
    )
    .expect("elected sim under wire chaos");
    assert_eq!(sim.outcome.dataset.fingerprint(), fx.baseline_fingerprint);
    assert!(sim.outcome.health.backend.remote_retries > 0);
}
