//! Crash-consistency torture: kill the store at every I/O boundary and
//! prove recovery reconstructs the uninterrupted dataset.
//!
//! The harness leans on `FaultFs`, the deterministic fault-injecting
//! backend: a fault-free enumeration run records the label of every backend
//! operation a workload performs; the sweep then re-runs the workload once
//! per operation with a simulated power cut at exactly that point, power
//! cycles, resumes, and asserts the final dataset fingerprint equals the
//! uninterrupted run's — no silent data loss, no panics, at *any* crash
//! point.
//!
//! By default the sweep is bounded (a deterministic stride subset, CI-fast);
//! set `BFU_TORTURE_FULL=1` for the exhaustive every-single-op sweep (any
//! other value keeps it bounded). `scripts/ci.sh` passes the variable on to
//! its workspace test step.

mod common;

use bfu_crawler::{CrawlConfig, Provenance, Survey};
use bfu_store::{
    load_survey_dataset_on, resume_survey_on, DatasetStore, FaultFs, LoadOutcome, Manifest,
    ResumeOutcome, StorageBackend, StoreError, StoreFaultPlan, StoreMeta,
};
use bfu_webgen::{SyntheticWeb, WebConfig};
use common::sweep_points;
use std::sync::{Arc, OnceLock};

const SITES: usize = 6;
const SEED: u64 = 91;

struct Fixture {
    survey: Survey,
    /// Fingerprint of the uninterrupted dataset — the invariance bar.
    baseline_fingerprint: u64,
    baseline: bfu_crawler::Dataset,
    /// Operation labels of one fault-free store-backed run, in order.
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
        let mut config = CrawlConfig::quick(9);
        // One worker: measurements are thread-invariant (a tested crawler
        // property), and a single thread makes the backend op sequence — the
        // crash-point coordinate system — identical across runs.
        config.threads = 1;
        // The sweep re-runs this crawl hundreds of times; shrink each run
        // while keeping two profiles (the store encodes per-profile data).
        config.rounds_per_profile = 1;
        config.pages_per_site = 2;
        config.page_budget_ms = 2_000;
        let survey = Survey::new(web, config);
        let baseline = survey.run();
        let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
        let outcome = resume_on(&fs, &survey).expect("fault-free enumeration run");
        assert_eq!(
            outcome.dataset.fingerprint(),
            baseline.fingerprint(),
            "store-backed run must match the direct run before any torture"
        );
        Fixture {
            survey,
            baseline_fingerprint: baseline.fingerprint(),
            baseline,
            trace: fs.op_trace(),
        }
    })
}

fn resume_on(fs: &Arc<FaultFs>, survey: &Survey) -> Result<ResumeOutcome, StoreError> {
    let backend: Arc<dyn StorageBackend> = fs.clone();
    resume_survey_on(survey, backend)
}

/// Crash points per sweep in the bounded run.
const BUDGET: u64 = 48;

/// Assert `err` is the simulated power cut (possibly wrapped in
/// [`StoreError::Io`]), not some other failure leaking out of the crash.
fn assert_is_crash(err: &StoreError, k: u64, label: &str) {
    match err {
        StoreError::Io(e) => assert!(
            FaultFs::is_crash(e),
            "crash point {k} ({label}): expected power cut, got {e}"
        ),
        other => panic!("crash point {k} ({label}): unexpected error class {other}"),
    }
}

/// The tentpole sweep: a fresh survey-to-store run killed at every backend
/// operation, then power cycled and resumed. The resumed dataset must be
/// fingerprint-identical to the uninterrupted run's, and a follow-up load
/// must be complete — whatever the crash tore.
#[test]
fn every_crash_point_in_a_fresh_run_recovers() {
    let f = fixture();
    let total = f.trace.len() as u64;
    assert!(
        total > 40,
        "workload too small to be interesting: {total} ops"
    );
    for k in sweep_points(total, BUDGET) {
        let label = &f.trace[k as usize];
        let plan = StoreFaultPlan::none()
            .with_seed(0xC4A5 ^ k)
            .with_crash_at(k);
        let fs = Arc::new(FaultFs::new(plan));
        let err = resume_on(&fs, &f.survey)
            .err()
            .unwrap_or_else(|| panic!("crash point {k} ({label}) never fired"));
        assert_is_crash(&err, k, label);
        fs.power_cycle();
        let recovered = resume_on(&fs, &f.survey)
            .unwrap_or_else(|e| panic!("crash point {k} ({label}): recovery failed: {e}"));
        assert_eq!(
            recovered.dataset.fingerprint(),
            f.baseline_fingerprint,
            "crash point {k} ({label}): recovered dataset diverged"
        );
        // And the healed store now loads complete, with zero crawling.
        let backend: Arc<dyn StorageBackend> = fs.clone();
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

/// Build a battle-scarred store on `fs`: two fragmented sealed shards (from
/// two interrupted sessions), plus a garbage object squatting on a shard
/// name. Returns the op count consumed, so sweeps can start after it.
fn build_fragmented(fs: &Arc<FaultFs>, f: &Fixture) -> u64 {
    let mut meta = StoreMeta::for_survey(&f.survey);
    meta.shard_capacity = 4;
    for range in [0..2, 2..3] {
        let backend: Arc<dyn StorageBackend> = fs.clone();
        let store = DatasetStore::open_on(backend, meta.clone()).expect("open session");
        for m in &f.baseline.sites[range] {
            store.append(m).expect("append");
        }
        store
            .finish(&Provenance::of(&f.survey, &f.baseline))
            .expect("finish session");
    }
    fs.put("shard-00031.bfu", b"squatter: not a shard")
        .expect("plant garbage");
    fs.sync_dir().expect("sync garbage");
    fs.ops()
}

/// The scrub-repair sweep: resuming over a fragmented store with a corrupt
/// squatter exercises quarantine, compaction, manifest fix-up, and
/// self-healing re-crawl — killed at every op of *that* pass.
#[test]
fn every_crash_point_during_scrub_and_heal_recovers() {
    let f = fixture();
    // Enumerate the repair workload's ops.
    let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
    let setup_ops = build_fragmented(&fs, f);
    let outcome = resume_on(&fs, &f.survey).expect("fault-free repair run");
    assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
    assert_eq!(outcome.resumed_sites, 3, "three sites lived in fragments");
    assert!(outcome.scrub.shards_quarantined >= 1, "{:?}", outcome.scrub);
    assert!(outcome.scrub.shards_compacted >= 2, "{:?}", outcome.scrub);
    let trace = fs.op_trace();
    let total = fs.ops();
    for k in sweep_points(total - setup_ops, BUDGET) {
        let k = setup_ops + k;
        let label = &trace[k as usize];
        let plan = StoreFaultPlan::none()
            .with_seed(0x5C2B ^ k)
            .with_crash_at(k);
        let fs = Arc::new(FaultFs::new(plan));
        let built = build_fragmented(&fs, f);
        assert_eq!(built, setup_ops, "setup op sequence must be deterministic");
        let err = resume_on(&fs, &f.survey)
            .err()
            .unwrap_or_else(|| panic!("crash point {k} ({label}) never fired"));
        assert_is_crash(&err, k, label);
        fs.power_cycle();
        let recovered = resume_on(&fs, &f.survey)
            .unwrap_or_else(|e| panic!("crash point {k} ({label}): recovery failed: {e}"));
        assert_eq!(
            recovered.dataset.fingerprint(),
            f.baseline_fingerprint,
            "crash point {k} ({label}): recovered dataset diverged"
        );
        // Quarantine moves aside, never deletes: the squatter's bytes must
        // still exist *somewhere* after full recovery.
        assert!(
            fs.visible_names()
                .iter()
                .any(|n| n.contains(".quarantined")),
            "crash point {k} ({label}): quarantined evidence vanished"
        );
    }
}

/// Satellite: the manifest's two publish crash windows — between writing
/// the temp file and the rename, and between the rename and the directory
/// sync. After a kill in either window, a reader must see the old manifest
/// or the new one: parseable, right fingerprint, never torn.
#[test]
fn manifest_publish_windows_never_tear() {
    let f = fixture();
    let mut windows: Vec<u64> = Vec::new();
    for (i, label) in f.trace.iter().enumerate() {
        if label.contains("MANIFEST") {
            windows.push(i as u64);
            if label.starts_with("rename:") {
                // The dir-sync completing this publish: first syncdir after.
                if let Some(j) = f.trace[i..].iter().position(|l| l == "syncdir") {
                    windows.push((i + j) as u64);
                }
            }
        }
    }
    assert!(
        windows.len() >= 8,
        "expected several manifest ops, got {windows:?}"
    );
    for k in windows {
        let label = &f.trace[k as usize];
        let plan = StoreFaultPlan::none()
            .with_seed(0x7EA6 ^ k)
            .with_crash_at(k);
        let fs = Arc::new(FaultFs::new(plan));
        let err = resume_on(&fs, &f.survey)
            .err()
            .unwrap_or_else(|| panic!("crash point {k} ({label}) never fired"));
        assert_is_crash(&err, k, label);
        fs.power_cycle();
        // Old manifest, new manifest, or (before the very first publish
        // committed) none at all — but never a torn one: `read` would
        // return BadManifest and this expect would fail the test.
        let manifest = Manifest::read(fs.as_ref() as &dyn StorageBackend)
            .unwrap_or_else(|e| panic!("crash point {k} ({label}): torn manifest: {e}"));
        if let Some(m) = manifest {
            assert_eq!(m.fingerprint, f.survey.fingerprint());
        }
    }
}

/// Satellite: a signal storm plus a miserly kernel — spurious `EINTR` on a
/// quarter of all operations and every multi-byte write split in half —
/// must slow the store down, never corrupt it.
#[test]
fn eintr_storms_and_short_writes_never_corrupt() {
    let f = fixture();
    for seed in [1u64, 2, 3] {
        let plan = StoreFaultPlan::none()
            .with_seed(seed)
            .with_eintr_chance(0.25)
            .with_short_writes();
        let fs = Arc::new(FaultFs::new(plan));
        let outcome = resume_on(&fs, &f.survey)
            .unwrap_or_else(|e| panic!("seed {seed}: transient faults broke the run: {e}"));
        assert_eq!(outcome.dataset.fingerprint(), f.baseline_fingerprint);
        assert!(!outcome.report.any_loss());
    }
}

/// Satellite: a full disk fails the run with a clean `ENOSPC` error — no
/// panic, no torn store — and the very next resume completes the dataset.
#[test]
fn enospc_surfaces_cleanly_and_the_next_resume_heals() {
    let f = fixture();
    let writes: Vec<u64> = f
        .trace
        .iter()
        .enumerate()
        .filter(|(_, l)| l.starts_with("write:") || l.starts_with("create:"))
        .map(|(i, _)| i as u64)
        .collect();
    assert!(writes.len() > 10, "workload writes: {}", writes.len());
    // A bounded, spread-out subset: ENOSPC is cheaper to prove than crashes.
    for &k in writes.iter().step_by(writes.len().div_ceil(12).max(1)) {
        let label = &f.trace[k as usize];
        let plan = StoreFaultPlan::none()
            .with_seed(0xD15C ^ k)
            .with_enospc_at(k);
        let fs = Arc::new(FaultFs::new(plan));
        let err = resume_on(&fs, &f.survey)
            .err()
            .unwrap_or_else(|| panic!("ENOSPC at {k} ({label}) never surfaced"));
        match &err {
            StoreError::Io(e) => {
                assert!(!FaultFs::is_crash(e), "ENOSPC is an error, not a crash");
                assert!(e.to_string().contains("ENOSPC"), "op {k}: {e}");
            }
            other => panic!("ENOSPC at {k} ({label}): unexpected class {other}"),
        }
        // No power cycle needed — the machine never died. Resume heals.
        let recovered = resume_on(&fs, &f.survey)
            .unwrap_or_else(|e| panic!("ENOSPC at {k} ({label}): re-resume failed: {e}"));
        assert_eq!(recovered.dataset.fingerprint(), f.baseline_fingerprint);
    }
}
