//! Cross-process fabric: a real coordinator process driving real worker
//! OS processes that coordinate only through a `DirObjectStore` directory —
//! no shared memory, no pipes, just whole-object puts and gets.
//!
//! The worker side re-enters this same test binary: `worker_entry` is a
//! no-op under normal `cargo test`, but when spawned with
//! `BFU_FABRIC_WORKER=1` it reconstructs the survey from env parameters
//! and runs [`bfu_fabric::run_fabric_worker`] against the shared store
//! directory. The parent asserts the merged dataset fingerprints
//! identically to a single-process run — the fabric's core contract, now
//! across process boundaries — and that a worker dying after a capped
//! number of leases has its remaining leases fenced and reassigned.

use bfu_crawler::{CrawlConfig, Survey};
use bfu_fabric::{run_fabric_worker, run_survey_fabric_processes, ProcConfig, WorkerExit};
use bfu_objstore::{
    spawn_tcp_server, DirObjectStore, ObjectBackend, ObjectServer, ObjectStore, RemoteClock,
    RemoteObjectStore, RemotePolicy, ReplicatedObjectStore, TcpTransport,
};
use bfu_store::{resume_survey_on, LocalFs, StorageBackend, PROVENANCE_NAME};
use bfu_webgen::{SyntheticWeb, WebConfig};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

fn survey_for(sites: usize, seed: u64) -> Survey {
    let web = SyntheticWeb::generate(WebConfig {
        sites,
        seed,
        script_weight: 0,
    });
    let mut config = CrawlConfig::quick(seed ^ 0xFAB);
    config.threads = 1;
    config.rounds_per_profile = 1;
    config.pages_per_site = 2;
    config.page_budget_ms = 2_000;
    Survey::new(web, config)
}

fn proc_config() -> ProcConfig {
    ProcConfig {
        workers: 2,
        sites_per_lease: 2,
        lease_ms: 600_000,
        poll_ms: 5,
        shard_capacity: 2,
        heartbeat_ms: 60_000,
    }
}

fn dir_backend(root: &Path) -> Arc<dyn StorageBackend> {
    let store = Arc::new(DirObjectStore::open(root).expect("open dir store"));
    Arc::new(ObjectBackend::new(store as Arc<_>))
}

/// A backend that reaches the store over a real localhost TCP socket:
/// `RemoteObjectStore` dialing the [`spawn_tcp_server`] listener. Each
/// process picks a distinct `client_id` — it namespaces the server's
/// idempotent-retry cache.
fn tcp_backend(addr: &str, client_id: u64) -> Arc<dyn StorageBackend> {
    let addr: std::net::SocketAddr = addr.parse().expect("server address");
    let remote = Arc::new(RemoteObjectStore::new(
        client_id,
        Box::new(TcpTransport::new(addr)),
        RemoteClock::Wall,
        RemotePolicy::default(),
    ));
    Arc::new(ObjectBackend::new(remote as Arc<dyn ObjectStore>))
}

/// A backend over *replicated* TCP object servers: one `RemoteObjectStore`
/// per comma-separated address, fronted by a majority-quorum
/// `ReplicatedObjectStore`. The wire policy fails fast — a dead replica is
/// the replication layer's problem (absorbed by the quorum), not something
/// worth a full wall-clock backoff schedule per op.
fn replicated_tcp_backend(addrs: &str, client_id: u64) -> Arc<dyn StorageBackend> {
    let policy = RemotePolicy {
        max_attempts: 2,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        ..RemotePolicy::default()
    };
    let replicas: Vec<Arc<dyn ObjectStore>> = addrs
        .split(',')
        .map(|a| {
            let addr: std::net::SocketAddr = a.parse().expect("replica address");
            Arc::new(RemoteObjectStore::new(
                client_id,
                Box::new(TcpTransport::new(addr)),
                RemoteClock::Wall,
                policy,
            )) as Arc<dyn ObjectStore>
        })
        .collect();
    let store = Arc::new(ReplicatedObjectStore::majority(replicas).expect("replicated store"));
    Arc::new(ObjectBackend::new(store as Arc<dyn ObjectStore>))
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bfu-fabric-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Spawn this test binary back into itself as fabric worker `id`.
fn spawn_worker(
    root: &Path,
    sites: usize,
    seed: u64,
    id: u32,
    max_leases: Option<usize>,
) -> std::io::Result<std::process::Child> {
    spawn_worker_on(root, None, sites, seed, id, max_leases)
}

/// [`spawn_worker`], optionally routing the worker's store traffic over a
/// TCP socket to `addr` instead of the shared directory.
fn spawn_worker_on(
    root: &Path,
    addr: Option<&str>,
    sites: usize,
    seed: u64,
    id: u32,
    max_leases: Option<usize>,
) -> std::io::Result<std::process::Child> {
    let exe = std::env::current_exe().expect("current test binary");
    let mut cmd = Command::new(exe);
    cmd.args(["worker_entry", "--exact", "--nocapture"])
        .env("BFU_FABRIC_WORKER", "1")
        .env("BFU_FABRIC_DIR", root)
        .env("BFU_FABRIC_WORKER_ID", id.to_string())
        .env("BFU_FABRIC_SITES", sites.to_string())
        .env("BFU_FABRIC_SEED", seed.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if let Some(addr) = addr {
        cmd.env("BFU_FABRIC_ADDR", addr);
    }
    if let Some(cap) = max_leases {
        cmd.env("BFU_FABRIC_MAX_LEASES", cap.to_string());
    }
    cmd.spawn()
}

/// The worker process body. Under plain `cargo test` (no env) this is an
/// instant pass; spawned by the tests below it polls the shared store
/// directory and crawls whatever leases are routed to it.
#[test]
fn worker_entry() {
    if std::env::var("BFU_FABRIC_WORKER").as_deref() != Ok("1") {
        return;
    }
    let root = PathBuf::from(std::env::var("BFU_FABRIC_DIR").expect("BFU_FABRIC_DIR"));
    let id: u32 = std::env::var("BFU_FABRIC_WORKER_ID")
        .expect("BFU_FABRIC_WORKER_ID")
        .parse()
        .expect("worker id");
    let sites: usize = std::env::var("BFU_FABRIC_SITES")
        .expect("BFU_FABRIC_SITES")
        .parse()
        .expect("sites");
    let seed: u64 = std::env::var("BFU_FABRIC_SEED")
        .expect("BFU_FABRIC_SEED")
        .parse()
        .expect("seed");
    let max_leases: Option<usize> = std::env::var("BFU_FABRIC_MAX_LEASES")
        .ok()
        .map(|v| v.parse().expect("max leases"));
    let survey = survey_for(sites, seed);
    // With BFU_FABRIC_ADDR set the worker never touches the directory:
    // every byte crosses the TCP wire to the parent's object server(s) —
    // a comma-separated list means a quorum over replicated servers.
    let backend = match std::env::var("BFU_FABRIC_ADDR") {
        Ok(addrs) if addrs.contains(',') => replicated_tcp_backend(&addrs, u64::from(id)),
        Ok(addr) => tcp_backend(&addr, u64::from(id)),
        Err(_) => dir_backend(&root),
    };
    let exit = run_fabric_worker(&survey, backend, id, &proc_config(), max_leases, 20_000)
        .expect("worker run");
    assert_ne!(exit, WorkerExit::Orphaned, "worker never saw completion");
}

#[test]
fn two_worker_processes_match_single_process() {
    const SITES: usize = 10;
    const SEED: u64 = 211;
    let survey = survey_for(SITES, SEED);
    // The bar: an uninterrupted single-process LocalFs run.
    let local_root = temp_root("local");
    let local: Arc<dyn StorageBackend> = Arc::new(LocalFs::open(&local_root).expect("local fs"));
    let baseline = resume_survey_on(&survey, local)
        .expect("single-process LocalFs run")
        .dataset
        .fingerprint();
    let _ = std::fs::remove_dir_all(&local_root);

    let root = temp_root("two");
    let backend = dir_backend(&root);
    let cfg = proc_config();
    let outcome = run_survey_fabric_processes(&survey, backend.clone(), &cfg, &mut |id| {
        spawn_worker(&root, SITES, SEED, id, None)
    })
    .expect("cross-process fabric");
    assert_eq!(
        outcome.dataset.fingerprint(),
        baseline,
        "cross-process fabric must fingerprint identically to one process"
    );
    let stats = outcome.stats;
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.leases_total, (SITES as u64).div_ceil(2));
    assert_eq!(stats.leases_completed, stats.leases_total);
    assert_eq!(stats.records_absorbed, SITES as u64);
    // The provenance sidecar proves which backend did the work.
    let provenance =
        String::from_utf8(backend.get(PROVENANCE_NAME).expect("provenance")).expect("UTF-8");
    assert!(provenance.contains("\"backend\""));
    assert!(provenance.contains("\"enabled\": true"));
    assert!(provenance.contains("\"workers\": 2"));
    // No staging or publish debris outlives the run.
    let names = backend.list().expect("list");
    assert!(
        names
            .iter()
            .all(|n| !n.starts_with("stage-") && !n.starts_with("publish-")),
        "debris survived: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn networked_fabric_over_real_tcp_matches_single_process() {
    const SITES: usize = 8;
    const SEED: u64 = 229;
    let survey = survey_for(SITES, SEED);
    let baseline = survey.run().fingerprint();

    // The store lives behind a real TCP listener: an `ObjectServer`
    // fronting a `DirObjectStore`, serving the framed wire protocol on
    // localhost. Coordinator and workers are separate clients of it —
    // nobody touches the directory directly.
    let root = temp_root("tcp");
    let inner = Arc::new(DirObjectStore::open(&root).expect("open dir store"));
    let server = Arc::new(ObjectServer::new(inner as Arc<dyn ObjectStore>));
    let mut handle = spawn_tcp_server(Arc::clone(&server)).expect("bind localhost");
    let addr = handle.addr.to_string();

    let backend = tcp_backend(&addr, 999);
    let cfg = proc_config();
    let outcome = run_survey_fabric_processes(&survey, backend.clone(), &cfg, &mut |id| {
        spawn_worker_on(&root, Some(&addr), SITES, SEED, id, None)
    })
    .expect("networked cross-process fabric");
    assert_eq!(
        outcome.dataset.fingerprint(),
        baseline,
        "the TCP fabric must fingerprint identically to one process"
    );
    assert!(server.served() > 0, "ops actually crossed the socket");
    let stats = outcome.stats;
    assert_eq!(stats.leases_completed, stats.leases_total);
    assert_eq!(stats.records_absorbed, SITES as u64);
    assert_eq!(
        stats.elections_won, 1,
        "a CAS-capable backend runs the coordinator under an elected term"
    );
    // Remote effort is visible in the provenance sidecar: the run is
    // auditable as a networked run from the durable record alone.
    let health = outcome.health.backend;
    assert!(health.remote_ops > 0, "remote ops counted: {health:?}");
    let provenance =
        String::from_utf8(backend.get(PROVENANCE_NAME).expect("provenance")).expect("UTF-8");
    assert!(provenance.contains("\"remote_ops\""));
    assert!(provenance.contains("\"elections_won\": 1"));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn replicated_tcp_fabric_completes_with_one_replica_down_the_entire_run() {
    const SITES: usize = 8;
    const SEED: u64 = 233;
    let survey = survey_for(SITES, SEED);
    let baseline = survey.run().fingerprint();

    // Three independent object servers, each fronting its own directory —
    // three genuinely separate failure domains on localhost TCP.
    let roots: Vec<PathBuf> = (0..3).map(|i| temp_root(&format!("rep{i}"))).collect();
    let mut servers = Vec::new();
    let mut handles = Vec::new();
    for root in &roots {
        let inner = Arc::new(DirObjectStore::open(root).expect("open dir store"));
        let server = Arc::new(ObjectServer::new(inner as Arc<dyn ObjectStore>));
        let handle = spawn_tcp_server(Arc::clone(&server)).expect("bind localhost");
        servers.push(server);
        handles.push(handle);
    }
    let addrs = handles
        .iter()
        .map(|h| h.addr.to_string())
        .collect::<Vec<_>>()
        .join(",");

    // Kill the third replica before a single byte is written: the entire
    // survey — election, leases, publishes, merge, seal — must complete
    // over the surviving write/read majority.
    let mut dead = handles.pop().expect("three handles");
    dead.shutdown();

    let backend = replicated_tcp_backend(&addrs, 999);
    let cfg = proc_config();
    let outcome = run_survey_fabric_processes(&survey, backend.clone(), &cfg, &mut |id| {
        spawn_worker_on(&roots[0], Some(&addrs), SITES, SEED, id, None)
    })
    .expect("replicated fabric with one replica down");
    assert_eq!(
        outcome.dataset.fingerprint(),
        baseline,
        "a dead replica must never change the dataset"
    );
    assert!(servers[0].served() > 0 && servers[1].served() > 0);
    assert_eq!(servers[2].served(), 0, "the dead replica served nothing");
    let stats = outcome.stats;
    assert_eq!(stats.leases_completed, stats.leases_total);
    assert_eq!(stats.records_absorbed, SITES as u64);
    assert_eq!(
        stats.elections_won, 1,
        "the coordinator still runs under an elected term over replicas"
    );
    // The replication effort is auditable from the run's durable record.
    let health = outcome.health.backend;
    assert_eq!(health.replicas, 3, "replica count in health: {health:?}");
    assert!(
        health.replica_quorum_writes > 0,
        "quorum writes: {health:?}"
    );
    assert!(health.replica_quorum_reads > 0, "quorum reads: {health:?}");
    assert!(
        health.replica_errors > 0,
        "the dead replica's failures are counted, not hidden: {health:?}"
    );
    let provenance =
        String::from_utf8(backend.get(PROVENANCE_NAME).expect("provenance")).expect("UTF-8");
    assert!(provenance.contains("\"replicas\": 3"));
    assert!(provenance.contains("\"replica_quorum_writes\""));
    for mut handle in handles {
        handle.shutdown();
    }
    for root in &roots {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn dead_worker_process_is_fenced_and_its_leases_reassigned() {
    const SITES: usize = 12;
    const SEED: u64 = 223;
    let survey = survey_for(SITES, SEED);
    let baseline = survey.run().fingerprint();

    let root = temp_root("dead");
    let backend = dir_backend(&root);
    let cfg = proc_config();
    // Worker 1 exits after a single lease — a crash with work still
    // routed to it. Worker 2 runs to completion.
    let outcome = run_survey_fabric_processes(&survey, backend, &cfg, &mut |id| {
        spawn_worker(&root, SITES, SEED, id, if id == 1 { Some(1) } else { None })
    })
    .expect("fabric with a dying worker");
    assert_eq!(
        outcome.dataset.fingerprint(),
        baseline,
        "a dead worker must never change the dataset"
    );
    let stats = outcome.stats;
    assert_eq!(stats.leases_total, (SITES as u64).div_ceil(2));
    assert_eq!(stats.leases_completed, stats.leases_total);
    assert_eq!(stats.records_absorbed, SITES as u64);
    assert!(
        stats.leases_reclaimed >= 1,
        "the dead worker's remaining leases were force-reclaimed: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
