//! Object-store torture: run the survey store over whole-object storage —
//! no rename, no directory sync, eventual visibility — and prove the same
//! crash-consistency and identity bars the POSIX backend clears.
//!
//! Three layers of proof:
//!
//! - **Identity.** A store-backed survey over `ObjectBackend<SimObjectStore>`
//!   (and over the real `DirObjectStore`) fingerprints identically to the
//!   uninterrupted in-memory run.
//! - **Crash sweep.** The simulated object store is killed at every
//!   backend op (bounded subset in CI, exhaustive under
//!   `BFU_TORTURE_FULL=1`); after a power cycle and a *fresh adapter*
//!   (process-restart semantics: the visibility bookkeeping is gone),
//!   resume must recover the baseline fingerprint.
//! - **Publish windows.** The manifest's atomic-replace contract holds on
//!   both object-store publish paths: the native versioned put, and the
//!   POSIX idiom's rename lowered to copy+delete — including a crash
//!   *between* the copy and the delete, which leaves both names behind.
//!
//! Plus the listing-order regression: a backend that shuffles every
//! listing must not change any dataset, because every `list()` consumer
//! sorts before folding.

mod common;

use bfu_crawler::{CrawlConfig, Survey};
use bfu_objstore::{DirObjectStore, ObjFaultPlan, ObjectBackend, SimObjectStore};
use bfu_store::{
    load_survey_dataset_on, resume_survey_on, FaultFs, LoadOutcome, Manifest, ResumeOutcome,
    StorageBackend, StorageFile, StoreError, StoreFaultPlan, MANIFEST_NAME, PROVENANCE_NAME,
};
use bfu_util::fnv64;
use bfu_webgen::{SyntheticWeb, WebConfig};
use common::sweep_points;
use std::io;
use std::sync::{Arc, OnceLock};

const SITES: usize = 6;
const SEED: u64 = 173;

struct Fixture {
    survey: Survey,
    baseline_fingerprint: u64,
    /// Op trace of one fault-free object-store-backed run.
    trace: Vec<String>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let web = SyntheticWeb::generate(WebConfig {
            sites: SITES,
            seed: SEED,
            script_weight: 0,
        });
        let mut config = CrawlConfig::quick(SEED ^ 0x0B1);
        config.threads = 1;
        config.rounds_per_profile = 1;
        config.pages_per_site = 2;
        config.page_budget_ms = 2_000;
        let survey = Survey::new(web, config);
        let baseline_fingerprint = survey.run().fingerprint();
        let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
        let outcome = resume_on(&store, &survey).expect("fault-free enumeration run");
        assert_eq!(
            outcome.dataset.fingerprint(),
            baseline_fingerprint,
            "object-store-backed run must match the direct run before any torture"
        );
        Fixture {
            survey,
            baseline_fingerprint,
            trace: store.op_trace(),
        }
    })
}

/// Resume the survey through a *fresh* adapter over `store` — each call
/// models a new process attaching to the same remote store, with none of
/// the previous process's visibility bookkeeping.
fn resume_on(store: &Arc<SimObjectStore>, survey: &Survey) -> Result<ResumeOutcome, StoreError> {
    let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(store.clone()));
    resume_survey_on(survey, backend)
}

fn assert_is_crash(err: &StoreError, k: u64, label: &str) {
    match err {
        StoreError::Io(e) => assert!(
            SimObjectStore::is_crash(e),
            "crash point {k} ({label}): expected power cut, got {e}"
        ),
        other => panic!("crash point {k} ({label}): unexpected error class {other}"),
    }
}

#[test]
fn object_store_run_matches_the_direct_run() {
    let f = fixture();
    let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
    let outcome = resume_on(&store, &f.survey).expect("object-store run");
    assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
    // The provenance sidecar carries the backend block: an object-store
    // run is visibly an object-store run.
    let backend = ObjectBackend::new(store.clone() as Arc<_>);
    let provenance =
        String::from_utf8(backend.get(PROVENANCE_NAME).expect("provenance")).expect("UTF-8");
    assert!(provenance.contains("\"backend\""));
    assert!(provenance.contains("\"enabled\": true"));
    assert!(provenance.contains("\"visibility_failures\": 0"));
}

#[test]
fn every_crash_point_in_an_object_store_run_recovers() {
    let f = fixture();
    // Whole-object semantics collapse the POSIX backend's hundreds of
    // write/sync ops into a few puts — the schedule is short, so the
    // sweep is exhaustive even in CI.
    let total = f.trace.len() as u64;
    assert!(
        total > 10,
        "workload too small to be interesting: {total} ops"
    );
    for k in sweep_points(total, 48) {
        let label = &f.trace[k as usize];
        let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none().with_crash_at(k)));
        let err = resume_on(&store, &f.survey)
            .err()
            .unwrap_or_else(|| panic!("crash point {k} ({label}) never fired"));
        assert_is_crash(&err, k, label);
        store.power_cycle();
        let recovered = resume_on(&store, &f.survey)
            .unwrap_or_else(|e| panic!("crash point {k} ({label}): recovery failed: {e}"));
        assert_eq!(
            recovered.dataset.fingerprint(),
            f.baseline_fingerprint,
            "crash point {k} ({label}): recovered dataset diverged"
        );
        let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(store.clone()));
        match load_survey_dataset_on(&f.survey, backend).expect("post-recovery load") {
            LoadOutcome::Complete { dataset, .. } => {
                assert_eq!(dataset.fingerprint(), f.baseline_fingerprint);
            }
            LoadOutcome::Incomplete {
                present, missing, ..
            } => {
                panic!("crash point {k} ({label}): store left incomplete {present}/{missing}")
            }
        }
    }
}

/// Render a minimal-but-valid manifest body so `Manifest::read`'s torn
/// detection is the oracle for "old or new, never torn".
fn manifest_body(f: &Fixture, sites: usize) -> String {
    format!(
        "bfu-store-manifest v1\nfingerprint={:016x}\nsites={sites}\nrounds_per_profile=1\n",
        f.survey.fingerprint()
    )
}

/// Satellite: the native object-store publish — `replace` as one versioned
/// put — crashed at every op. A reader after power-cycle must see the old
/// manifest or the new one; a torn read would fail `Manifest::read`.
#[test]
fn versioned_put_manifest_publish_is_old_or_new_never_torn() {
    let f = fixture();
    let old = manifest_body(f, 1);
    let new = manifest_body(f, 2);
    // Enumerate the publish workload's ops once, fault-free.
    let publish = |backend: &ObjectBackend| -> io::Result<()> {
        backend.replace(MANIFEST_NAME, old.as_bytes())?;
        backend.replace(MANIFEST_NAME, new.as_bytes())
    };
    let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
    publish(&ObjectBackend::new(store.clone() as Arc<_>)).expect("fault-free publish");
    let total = store.ops();
    for k in 0..total {
        let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none().with_crash_at(k)));
        let backend = ObjectBackend::new(store.clone() as Arc<_>);
        publish(&backend).expect_err("crash must surface");
        store.power_cycle();
        let reader = ObjectBackend::new(store.clone() as Arc<_>);
        let manifest = Manifest::read(&reader as &dyn StorageBackend)
            .unwrap_or_else(|e| panic!("crash point {k}: torn manifest: {e}"));
        match manifest {
            None => assert_eq!(k, 0, "only a crash before the first ack may lose both"),
            Some(m) => assert_eq!(m.fingerprint, f.survey.fingerprint()),
        }
        if let Ok(bytes) = reader.get(MANIFEST_NAME) {
            assert!(
                bytes == old.as_bytes() || bytes == new.as_bytes(),
                "crash point {k}: manifest is neither old nor new"
            );
        }
    }
}

/// Satellite: the POSIX publish idiom — put tmp, rename, sync dir — where
/// rename is lowered to copy+delete. Crashed at every op, including
/// *between the copy and the delete* (both names left behind): the
/// canonical name must still read old-or-new.
#[test]
fn copy_plus_delete_rename_publish_is_old_or_new() {
    let f = fixture();
    let old = manifest_body(f, 1);
    let new = manifest_body(f, 2);
    let publish = |backend: &ObjectBackend, body: &str| -> io::Result<()> {
        // The default `StorageBackend::replace` body, spelled out so the
        // sweep exercises the copy+delete lowering op by op.
        let tmp = format!("{MANIFEST_NAME}.tmp");
        backend.put(&tmp, body.as_bytes())?;
        backend.rename(&tmp, MANIFEST_NAME)?;
        backend.sync_dir()
    };
    let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
    let backend = ObjectBackend::new(store.clone() as Arc<_>);
    publish(&backend, &old).expect("publish old");
    let before_new = store.ops();
    publish(&backend, &new).expect("publish new");
    let total = store.ops();
    let mut saw_both_names = false;
    // Sweep only the second publish: the first must have committed, so
    // "old" is always a valid observation.
    for k in before_new..total {
        let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none().with_crash_at(k)));
        let backend = ObjectBackend::new(store.clone() as Arc<_>);
        publish(&backend, &old).expect("publish old");
        publish(&backend, &new).expect_err("crash must surface");
        store.power_cycle();
        let reader = ObjectBackend::new(store.clone() as Arc<_>);
        let bytes = reader
            .get(MANIFEST_NAME)
            .unwrap_or_else(|e| panic!("crash point {k}: manifest unreadable: {e}"));
        assert!(
            bytes == old.as_bytes() || bytes == new.as_bytes(),
            "crash point {k}: manifest is neither old nor new"
        );
        // The window this test exists for: crashed after the copy
        // committed the new manifest but before the delete swept the tmp
        // name — both names present, canonical already new. (A leftover
        // tmp with the *old* manifest is the other window — crashed
        // before the copy — equally legal.)
        let names = reader.list().expect("list");
        if names.iter().any(|n| n.ends_with(".tmp")) && bytes == new.as_bytes() {
            saw_both_names = true;
        }
    }
    assert!(
        saw_both_names,
        "the sweep must hit the window between copy and delete"
    );
}

#[test]
fn chaos_partitions_during_store_runs_converge() {
    let f = fixture();
    for seed in [3u64, 0x0B57, 0xFEED] {
        let store = Arc::new(SimObjectStore::new(ObjFaultPlan::chaos(seed)));
        let outcome = resume_on(&store, &f.survey)
            .unwrap_or_else(|e| panic!("chaos seed {seed:#x} broke the run: {e}"));
        assert_eq!(
            outcome.dataset.fingerprint(),
            f.baseline_fingerprint,
            "chaos seed {seed:#x} diverged"
        );
    }
}

#[test]
fn dir_object_store_round_trips_a_real_survey() {
    let f = fixture();
    let root = std::env::temp_dir().join(format!("bfu-objtorture-{}-{SEED}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = Arc::new(DirObjectStore::open(&root).expect("open dir store"));
    let backend: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(dir.clone() as Arc<_>));
    let outcome = resume_survey_on(&f.survey, backend).expect("dir-backed run");
    assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
    // A second process attaches to the same directory: everything resumes
    // from disk, nothing is re-crawled.
    let dir2 = Arc::new(DirObjectStore::open(&root).expect("reopen dir store"));
    let backend2: Arc<dyn StorageBackend> = Arc::new(ObjectBackend::new(dir2 as Arc<_>));
    let resumed = resume_survey_on(&f.survey, backend2).expect("dir-backed resume");
    assert_eq!(resumed.dataset.fingerprint(), f.baseline_fingerprint);
    assert_eq!(resumed.resumed_sites, SITES, "all sites came from disk");
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------
// Listing-order regression (satellite): every list() consumer must sort
// before folding. This wrapper shuffles every listing of an otherwise
// well-behaved POSIX backend — any order-sensitive fold in scan, scrub,
// or the staging sweep shows up as a changed dataset or a failed resume.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct ShuffledListing {
    inner: Arc<FaultFs>,
    salt: u64,
}

impl StorageBackend for ShuffledListing {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        self.inner.create(name)
    }
    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.get(name)
    }
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = self.inner.list()?;
        // Deterministic adversarial order: keyed hash, never lexicographic.
        names.sort_unstable_by_key(|n| fnv64(format!("{}:{n}", self.salt).as_bytes()));
        Ok(names)
    }
    fn sync_dir(&self) -> io::Result<()> {
        self.inner.sync_dir()
    }
    fn describe(&self) -> String {
        format!("shuffled:{}", self.inner.describe())
    }
}

// ---------------------------------------------------------------------
// Replica dimension: the same survey over a ReplicatedObjectStore front.
// Quorum writes must absorb the death of any single replica *without an
// error ever reaching the store layer*, stale sub-quorum reads must be
// caught by the adapter's visibility bookkeeping, and a replayed mutation
// that outlived the server's replay window must be refused typed.
// ---------------------------------------------------------------------

use bfu_objstore::{
    ObjectServer, ObjectStore, RemoteError, ReplicaPolicy, ReplicatedObjectStore, Request,
    RequestOp, RespBody, Response, ScrubReport, REPLAY_WINDOW,
};

fn replica_sims(plans: [ObjFaultPlan; 3]) -> Vec<Arc<SimObjectStore>> {
    plans
        .into_iter()
        .map(|p| Arc::new(SimObjectStore::new(p)))
        .collect()
}

fn replicated_over(sims: &[Arc<SimObjectStore>]) -> Arc<ReplicatedObjectStore> {
    let replicas: Vec<Arc<dyn ObjectStore>> = sims
        .iter()
        .map(|s| s.clone() as Arc<dyn ObjectStore>)
        .collect();
    Arc::new(ReplicatedObjectStore::majority(replicas).expect("replicated store"))
}

/// Per-replica op counts from one healthy replicated run — the sweep
/// coordinates for the kill tests below.
fn healthy_replica_op_counts() -> &'static Vec<u64> {
    static COUNTS: OnceLock<Vec<u64>> = OnceLock::new();
    COUNTS.get_or_init(|| {
        let f = fixture();
        let sims = replica_sims([
            ObjFaultPlan::none(),
            ObjFaultPlan::none(),
            ObjFaultPlan::none(),
        ]);
        let rep = replicated_over(&sims);
        let backend: Arc<dyn StorageBackend> =
            Arc::new(ObjectBackend::new(rep as Arc<dyn ObjectStore>));
        let outcome = resume_survey_on(&f.survey, backend).expect("healthy replicated run");
        assert_eq!(
            outcome.dataset.fingerprint(),
            f.baseline_fingerprint,
            "replicated run must match the direct run before any torture"
        );
        sims.iter().map(|s| s.ops()).collect()
    })
}

/// Kill any one replica at any of its ops: the survey must complete with
/// *no error surfacing at all* — W = R = 2 of 3 absorbs a single death —
/// and fingerprint identically to the direct run.
#[test]
fn survey_survives_killing_any_one_replica_at_any_of_its_ops() {
    let f = fixture();
    let counts = healthy_replica_op_counts();
    for (r, &total) in counts.iter().enumerate() {
        assert!(total > 10, "replica {r} saw only {total} ops");
        for k in sweep_points(total, 12) {
            let mut plans = [
                ObjFaultPlan::none(),
                ObjFaultPlan::none(),
                ObjFaultPlan::none(),
            ];
            plans[r] = ObjFaultPlan::none().with_crash_at(k);
            let sims = replica_sims(plans);
            let rep = replicated_over(&sims);
            let backend: Arc<dyn StorageBackend> =
                Arc::new(ObjectBackend::new(rep.clone() as Arc<dyn ObjectStore>));
            let outcome = resume_survey_on(&f.survey, backend)
                .unwrap_or_else(|e| panic!("replica {r} killed at its op {k}: survey failed: {e}"));
            assert_eq!(
                outcome.dataset.fingerprint(),
                f.baseline_fingerprint,
                "replica {r} killed at its op {k}: dataset diverged"
            );
            let totals = rep.replica_totals().expect("replica totals");
            assert!(
                totals.replica_errors > 0,
                "replica {r} killed at its op {k}: the quorum never noticed the death"
            );
            assert!(totals.quorum_writes > 0);
        }
    }
}

/// Satellite: sub-quorum read staleness is the adapter's problem, and the
/// adapter solves it. W=2 R=1 deliberately breaks read/write overlap; a
/// replica that revives empty serves NotFound for objects the quorum
/// holds. The adapter's read-your-write expectation retries, exhausts,
/// and counts a `visibility_failures` — then anti-entropy scrub heals the
/// member and a fresh process resumes the whole survey from the store.
#[test]
fn stale_r1_reads_exhaust_visibility_retries_and_scrub_heals() {
    let f = fixture();
    // Replica 0 is dead from its first op: it acknowledges nothing, so a
    // power cycle revives it *empty* — the worst rejoin.
    let sims = replica_sims([
        ObjFaultPlan::none().with_crash_at(0),
        ObjFaultPlan::none(),
        ObjFaultPlan::none(),
    ]);
    let replicas: Vec<Arc<dyn ObjectStore>> = sims
        .iter()
        .map(|s| s.clone() as Arc<dyn ObjectStore>)
        .collect();
    let policy = ReplicaPolicy {
        write_quorum: 2,
        read_quorum: 1,
    };
    let rep = Arc::new(ReplicatedObjectStore::new(replicas, policy).expect("W=2 R=1 store"));
    let survey_backend: Arc<dyn StorageBackend> =
        Arc::new(ObjectBackend::new(rep.clone() as Arc<dyn ObjectStore>));
    // The survey completes with the replica down: R=1 probes rotate past
    // the dead member, writes ack at W=2.
    let outcome = resume_survey_on(&f.survey, survey_backend).expect("survey with replica 0 dead");
    assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
    // Write an object whose read probe *starts at* replica 0 (rotation
    // order begins at the name's deterministic primary).
    let name = (0..u64::MAX)
        .map(|i| format!("stale-probe-{i}"))
        .find(|n| fnv64(n.as_bytes()).is_multiple_of(3))
        .expect("a name with primary 0 exists");
    let backend = ObjectBackend::new(rep.clone() as Arc<dyn ObjectStore>);
    backend
        .put(&name, b"payload")
        .expect("put acks at W=2 with the primary dead");
    // The member revives empty and reachable: an R=1 probe of `name` now
    // *succeeds* at replica 0 and reports the object does not exist.
    sims[0].power_cycle();
    let err = backend
        .get(&name)
        .expect_err("stale R=1 read must surface as NotFound after retries");
    assert_eq!(err.kind(), io::ErrorKind::NotFound, "got {err}");
    let totals = backend.op_totals().expect("totals");
    assert_eq!(
        totals.visibility_failures, 1,
        "retry exhaustion must be counted: {totals:?}"
    );
    assert!(
        totals.retries > 8,
        "the adapter must have fought before conceding: {totals:?}"
    );
    // Anti-entropy catches the member up on everything it slept through.
    let report: ScrubReport = rep.scrub().expect("scrub");
    assert!(report.copies > 0, "scrub found nothing to copy: {report:?}");
    assert_eq!(report.errors, 0, "all replicas reachable: {report:?}");
    assert_eq!(backend.get(&name).expect("healed read"), b"payload");
    // The macro bar: a fresh process resumes the survey over the healed
    // R=1 store entirely from disk.
    let resumed_backend: Arc<dyn StorageBackend> =
        Arc::new(ObjectBackend::new(rep.clone() as Arc<dyn ObjectStore>));
    let resumed = resume_survey_on(&f.survey, resumed_backend).expect("resume over healed store");
    assert_eq!(resumed.dataset.fingerprint(), f.baseline_fingerprint);
    assert_eq!(resumed.resumed_sites, SITES, "nothing may be re-crawled");
}

/// Satellite: a retried mutation whose request id was pruned from the
/// server's replay window is refused with a *typed* `ReplayEvicted` — not
/// silently re-executed. Re-executing the CAS below would return
/// `CasConflict{expected: 0, found: 1}`: the client would conclude it
/// lost a race it actually won.
#[test]
fn replayed_mutation_past_the_replay_window_is_refused_not_reexecuted() {
    let store = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
    let server = ObjectServer::new(store.clone() as Arc<dyn ObjectStore>);
    let exchange = |req: &Request| -> Response {
        let resp = server.handle_frame(&bfu_objstore::wire::encode_request(req));
        bfu_objstore::wire::decode_response(bfu_objstore::wire::unframe(&resp).expect("frame"))
            .expect("decode")
    };
    // A CAS that wins: generation 0 -> 1.
    let cas = Request {
        client: 7,
        id: 1,
        op: RequestOp::PutIf {
            name: "seat".into(),
            expected: 0,
            bytes: b"v1".to_vec(),
        },
    };
    let first = exchange(&cas);
    assert!(
        matches!(first.body, Ok(RespBody::Gen(1))),
        "CAS must win: {:?}",
        first.body
    );
    // More in-flight mutations than the replay window holds: id 1 falls
    // off the back of the cache and onto the eviction floor.
    let depth = REPLAY_WINDOW as u64 + 8;
    for i in 0..depth {
        let put = Request {
            client: 7,
            id: 2 + i,
            op: RequestOp::Put {
                name: format!("fill-{i}"),
                bytes: b"x".to_vec(),
            },
        };
        assert!(matches!(exchange(&put).body, Ok(RespBody::Unit)));
    }
    // The network delivers a duplicate of the original CAS frame late.
    let replay = exchange(&cas);
    assert!(
        matches!(replay.body, Err(RemoteError::ReplayEvicted)),
        "evicted replay must be refused typed, got {:?}",
        replay.body
    );
    // Refused means *not executed*: the seat is untouched.
    assert_eq!(store.head("seat").expect("head"), 1);
    assert_eq!(store.get("seat").expect("get"), b"v1");
    // An id still inside the window replays from cache, byte-identical.
    let last = Request {
        client: 7,
        id: 1 + depth,
        op: RequestOp::Put {
            name: format!("fill-{}", depth - 1),
            bytes: b"x".to_vec(),
        },
    };
    let replayed_before = server.replayed();
    assert!(matches!(exchange(&last).body, Ok(RespBody::Unit)));
    assert_eq!(server.replayed(), replayed_before + 1, "cache must answer");
}

#[test]
fn shuffled_listings_on_a_posix_backend_never_change_the_dataset() {
    let f = fixture();
    for salt in [1u64, 99, 0x5AFE] {
        let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
        let backend: Arc<dyn StorageBackend> = Arc::new(ShuffledListing {
            inner: fs.clone(),
            salt,
        });
        let outcome = resume_survey_on(&f.survey, backend.clone())
            .unwrap_or_else(|e| panic!("salt {salt}: shuffled run failed: {e}"));
        assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
        // Resume over the existing store: the scan now folds a shuffled
        // listing of real shard files.
        let resumed = resume_survey_on(&f.survey, backend.clone())
            .unwrap_or_else(|e| panic!("salt {salt}: shuffled resume failed: {e}"));
        assert_eq!(resumed.dataset.fingerprint(), f.baseline_fingerprint);
        assert_eq!(resumed.resumed_sites, SITES);
        match load_survey_dataset_on(&f.survey, backend).expect("shuffled load") {
            LoadOutcome::Complete { dataset, .. } => {
                assert_eq!(dataset.fingerprint(), f.baseline_fingerprint);
            }
            LoadOutcome::Incomplete {
                present, missing, ..
            } => panic!("salt {salt}: shuffled store incomplete {present}/{missing}"),
        }
    }
}
