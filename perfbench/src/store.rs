//! The `store-roundtrip` workload: a dataset crawled once per set-up is
//! written into a fresh on-disk store, loaded back through
//! `Study::from_store` and rendered, in a closed loop. The crawl does no
//! work here; the store's write path and the analysis read path do it all.
//!
//! Flush policy (the store's own, unchanged): `DatasetStore::append` writes
//! each record and flushes it to the OS without an fsync; a shard seals at
//! 256 records with a file fsync, a directory fsync and an atomic manifest
//! publish (temporary file + fsync, rename, directory fsync); `finish` seals
//! the open shard and publishes the manifest and the provenance sidecar the
//! same way.

use crate::crawl::{crawl_layers, registry_build, traced_replay};
use crate::json::J;
use crate::layers::{replicated_sims, ObjStats, StoreStats, TimedBackend};
use crate::{
    out_dir, peak_during, secs, stats, table2_digest, timed, Args, Run, Samples, Shape, Size,
};
use bfu_core::crawler::{BackendTotals, Dataset, Provenance, Survey};
use bfu_core::objstore::ObjectBackend;
use bfu_core::store::{
    load_survey_dataset_on, DatasetStore, LoadOutcome, LocalFs, StorageBackend, StoreMeta,
};
use bfu_core::{Study, StudyConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

const FLUSH_POLICY: &str = "append: write + flush to the OS per record, no fsync; seal every \
     256 records: file fsync, directory fsync, atomic manifest publish (tmp put + fsync, \
     rename, directory fsync); finish: seal, then manifest and provenance published the same way";

fn shape(args: &Args) -> Shape {
    Shape {
        sites: if args.size == Size::Tiny { 10 } else { 600 },
        rounds: 1,
        pages: 2,
        page_budget_ms: 10_000,
        all_profiles: false,
        script_weight: 0,
        threads: 2,
    }
}

/// A traced round trip and the backend operations it made.
type TracedTrip = (Trip, Arc<StoreStats>);

/// One write-load-render round trip.
struct Trip {
    wall_s: f64,
    tables_s: f64,
    append_ms: Vec<f64>,
    finish_ms: f64,
    load_ms: f64,
    report_ms: f64,
    render_ms: f64,
    /// Fingerprint and failed-site share of the dataset read back.
    loaded_fp: u64,
    failed_share: f64,
    table2: u64,
}

/// Write `ds` into a fresh store on `backend`, then load and render it.
/// Without a backend the store lives on `LocalFs` at `dir` and is read back
/// through `Study::from_store`; with one, the same steps run through
/// `load_survey_dataset_on` so every backend call is seen.
fn round_trip(
    study: &StudyConfig,
    shape: &Shape,
    survey: &Survey,
    ds: &Dataset,
    dir: &Path,
    backend: Option<Arc<dyn StorageBackend>>,
) -> Result<Trip, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let meta = StoreMeta::for_survey(survey);
    let store = match &backend {
        Some(b) => DatasetStore::open_on(Arc::clone(b), meta),
        None => DatasetStore::open(dir, meta),
    }
    .map_err(|e| format!("open store: {e}"))?;
    let mut append_ms = Vec::with_capacity(ds.sites.len());
    for m in &ds.sites {
        let (r, s) = timed(|| store.append(m));
        r.map_err(|e| format!("append: {e}"))?;
        append_ms.push(s * 1e3);
    }
    let (r, finish) = timed(|| store.finish(&Provenance::of(survey, ds)));
    r.map_err(|e| format!("finish: {e}"))?;
    drop(store);
    let t_tables = Instant::now();
    let (study_obj, load_ms) = match backend {
        None => {
            let stored =
                Study::from_store(study.clone(), dir).map_err(|e| format!("from_store: {e}"))?;
            if stored.crawled_sites != 0 {
                return Err(format!("loading crawled {} sites", stored.crawled_sites));
            }
            (stored.study, 0.0)
        }
        Some(b) => {
            let web = shape.web(study.seed);
            let loader = Survey::new(web.clone(), study.crawl_config());
            let (outcome, load) = timed(|| load_survey_dataset_on(&loader, b));
            let dataset = match outcome.map_err(|e| format!("load: {e}"))? {
                LoadOutcome::Complete { dataset, .. } => dataset,
                LoadOutcome::Incomplete { missing, .. } => {
                    return Err(format!("store lost {missing} sites"))
                }
            };
            (Study::from_parts(web, dataset, study.clone()), load * 1e3)
        }
    };
    let (report, report_s) = timed(|| study_obj.report());
    let (text, render_s) = timed(|| report.render_all());
    std::hint::black_box(text);
    let tables_s = secs(t_tables);
    let wall_s = secs(t0);
    let _ = std::fs::remove_dir_all(dir);
    Ok(Trip {
        wall_s,
        tables_s,
        append_ms,
        finish_ms: finish * 1e3,
        load_ms,
        report_ms: report_s * 1e3,
        render_ms: render_s * 1e3,
        table2: table2_digest(&report),
        loaded_fp: study_obj.dataset().fingerprint(),
        failed_share: crate::failed_site_share(study_obj.dataset()),
    })
}

/// Check one round trip: the loaded dataset is the written one, and the
/// Table 2 digest repeats (and matches the pin at the default seed).
fn check_trip(run: &mut Run, args: &Args, written: &Dataset, trip: &Trip, first_table2: u64) {
    let n = written.sites.len() as u64;
    let (w, l) = (written.fingerprint(), trip.loaded_fp);
    run.check(w == l, n, || {
        format!("loaded fingerprint {l:016x} != written {w:016x}")
    });
    run.check(trip.table2 == first_table2, n, || {
        format!(
            "Table 2 digest {:016x} differs from the first repetition's {first_table2:016x}",
            trip.table2
        )
    });
    if let Some(pin) = args.pin() {
        run.check(trip.table2 == pin, n, || {
            format!("Table 2 digest {:016x} != pinned {pin:016x}", trip.table2)
        });
    }
}

/// The set-up: generate the web and pre-crawl it. Returns the survey, its
/// dataset and the seconds web generation took.
fn setup_once(shape: &Shape, study: &StudyConfig) -> (Survey, Dataset, f64) {
    let (web, generate) = timed(|| shape.web(study.seed));
    let survey = Survey::new(web, study.crawl_config());
    let ds = survey.run();
    (survey, ds, generate)
}

pub fn run(args: &Args) -> Run {
    let shape = shape(args);
    let study = shape.study(args.seed);
    let mut run = Run::default();
    run.note("shape", shape.record());
    run.note("flush_policy", J::Str(FLUSH_POLICY.to_owned()));
    if args.trace {
        registry_build(&mut run);
    }
    let mut samples = Samples::default();
    let ((survey, ds, generate), setup) = timed(|| setup_once(&shape, &study));
    samples.setup_s.push(setup);
    run.metric("webgen.generate_ms", generate * 1e3);
    let n = ds.sites.len();
    let fingerprint = ds.fingerprint();
    run.note("fingerprint", J::Str(format!("{fingerprint:016x}")));
    if args.trace {
        let ((), w) = timed(|| drop(survey.site_crawler()));
        run.metric("crawler.world_build_ms", w * 1e3);
        let (replayed, _) = traced_replay(&mut run, &survey, &ds);
        crawl_layers(&mut run, args, &replayed);
        persist_probe(&mut run, &survey, &ds);
    }

    let scratch: PathBuf = out_dir().join(format!("store-{}", std::process::id()));
    let untraced_dir = scratch.join("untraced");
    let traced_dir = scratch.join("traced");
    let start = Instant::now();
    let deadline = args.deadline(start);
    // Two more set-ups, a third and two thirds of the way through the
    // window, so `setup_s` spans the run.
    let mut extra_setups = 0u32;
    let mut traced_trips: Vec<TracedTrip> = Vec::new();
    let mut traced_rates = Vec::new();
    let mut first_table2 = None;
    let mut failed = 1.0;
    while samples.rates.len() < 2 || Instant::now() < deadline {
        run.attempted += n as u64;
        let (trip, rss) =
            peak_during(|| round_trip(&study, &shape, &survey, &ds, &untraced_dir, None));
        let trip = match trip {
            Ok(t) => t,
            Err(e) => {
                run.check(false, n as u64, || e);
                break;
            }
        };
        let digest = *first_table2.get_or_insert(trip.table2);
        check_trip(&mut run, args, &ds, &trip, digest);
        samples.peak_rss_mb.push(rss);
        samples.rates.push(n as f64 / trip.wall_s);
        samples.tables_s.push(trip.tables_s);
        samples.latency(&trip.append_ms);
        // The round trip runs on this one thread.
        samples.calib.sample(1);
        failed = trip.failed_share;
        if args.trace {
            let stats = Arc::new(StoreStats::default());
            let backend = LocalFs::open(&traced_dir).map(|fs| TimedBackend {
                inner: Arc::new(fs),
                stats: Arc::clone(&stats),
            });
            run.attempted += n as u64;
            let trip = backend
                .map_err(|e| format!("open traced store: {e}"))
                .and_then(|b| {
                    round_trip(&study, &shape, &survey, &ds, &traced_dir, Some(Arc::new(b)))
                });
            match trip {
                Ok(trip) => {
                    check_trip(&mut run, args, &ds, &trip, digest);
                    traced_rates.push(n as f64 / trip.wall_s);
                    traced_trips.push((trip, stats));
                }
                Err(e) => {
                    run.check(false, n as u64, || e);
                    break;
                }
            }
        } else if extra_setups < 2
            && Instant::now() >= start + (deadline - start) * (extra_setups + 1) / 3
        {
            extra_setups += 1;
            let ((_, again, _), setup) = timed(|| setup_once(&shape, &study));
            samples.setup_s.push(setup);
            let fp = again.fingerprint();
            run.check(fp == fingerprint, n as u64, || {
                format!("pre-crawl fingerprint {fp:016x} differs from the first set-up's {fingerprint:016x}")
            });
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    run.metric("completed_site_share", 1.0 - failed);
    run.note("failed_site_share", J::Num(failed));
    run.note(
        "table2_digest",
        J::Str(format!("{:016x}", first_table2.unwrap_or(0))),
    );
    if args.trace {
        store_layers(&mut run, n, &traced_trips);
        let overhead = 1.0 - stats::median(&traced_rates) / stats::median(&samples.rates);
        run.metric("trace.overhead_share", overhead);
        run.note("untraced_sites_per_s", J::nums(&samples.rates));
        run.note("traced_sites_per_s", J::nums(&traced_rates));
    } else {
        samples.finish(&mut run, "one DatasetStore::append call");
    }
    run
}

/// Per-layer store and analysis metrics, medians over the traced trips.
fn store_layers(run: &mut Run, n: usize, trips: &[TracedTrip]) {
    let med =
        |f: &dyn Fn(&TracedTrip) -> f64| stats::median(&trips.iter().map(f).collect::<Vec<_>>());
    let per_site = n.max(1) as f64;
    run.metric(
        "store.append_us",
        med(&|(t, _)| t.append_ms.iter().sum::<f64>() * 1e3 / per_site),
    );
    run.metric("store.finish_ms", med(&|(t, _)| t.finish_ms));
    run.metric("store.load_ms", med(&|(t, _)| t.load_ms));
    run.metric("analysis.report_ms", med(&|(t, _)| t.report_ms));
    run.metric("analysis.render_ms", med(&|(t, _)| t.render_ms));
    if let Some((_, s)) = trips.last() {
        store_op_metrics(run, n, s);
    }
}

/// Backend-operation metrics of one store session.
pub fn store_op_metrics(run: &mut Run, n: usize, s: &StoreStats) {
    let per_site = n.max(1) as f64;
    run.metric(
        "store.sync_ms",
        s.sync.ns.load(Ordering::Relaxed) as f64 / 1e6,
    );
    run.metric(
        "store.bytes_per_site",
        s.bytes_written.load(Ordering::Relaxed) as f64 / per_site,
    );
    run.metric("store.creates", s.create.count() as f64);
    run.metric("store.gets", s.get.count() as f64);
    run.metric("store.lists", s.list.count() as f64);
    run.metric("store.replaces", s.replace.count() as f64);
    run.metric("store.syncs", s.sync.count() as f64);
}

/// Object-store metrics from the timed replicas and the replication
/// counters the adapter reports.
pub fn objstore_metrics(run: &mut Run, n: usize, obj: &ObjStats, backend: &BackendTotals) {
    run.metric("objstore.put_us", obj.put.mean(1e3));
    run.metric("objstore.get_us", obj.get.mean(1e3));
    run.metric("objstore.puts", obj.put.count() as f64);
    run.metric("objstore.gets", obj.get.count() as f64);
    run.metric("objstore.heads", obj.head.count() as f64);
    run.metric("objstore.lists", obj.list.count() as f64);
    run.metric("objstore.deletes", obj.delete.count() as f64);
    run.metric(
        "objstore.bytes_per_site",
        obj.bytes_put.load(Ordering::Relaxed) as f64 / n.max(1) as f64,
    );
    run.metric(
        "objstore.quorum_writes",
        backend.replica_quorum_writes as f64,
    );
    run.metric("objstore.quorum_reads", backend.replica_quorum_reads as f64);
    run.metric("objstore.read_repairs", backend.replica_read_repairs as f64);
}

/// The traced run's probe of the storage layers: write `ds` into a fresh
/// dataset store on a replicated object store, read it back and check it.
/// It sets every `store.*` and `objstore.*` metric; a workload that drives
/// those layers itself overwrites them with its own numbers afterwards.
pub fn persist_probe(run: &mut Run, survey: &Survey, ds: &Dataset) {
    let n = ds.sites.len();
    let obj = Arc::new(ObjStats::default());
    let stats = Arc::new(StoreStats::default());
    let probe = || -> Result<(Vec<f64>, f64, f64, Dataset, BackendTotals), String> {
        let replicated = replicated_sims(Some(&obj)).map_err(|e| format!("replicated: {e}"))?;
        let backend: Arc<dyn StorageBackend> = Arc::new(TimedBackend {
            inner: Arc::new(ObjectBackend::new(Arc::new(replicated))),
            stats: Arc::clone(&stats),
        });
        let store = DatasetStore::open_on(Arc::clone(&backend), StoreMeta::for_survey(survey))
            .map_err(|e| format!("open: {e}"))?;
        let mut appends = Vec::with_capacity(n);
        for m in &ds.sites {
            let (r, s) = timed(|| store.append(m));
            r.map_err(|e| format!("append: {e}"))?;
            appends.push(s * 1e6);
        }
        let (r, finish) = timed(|| store.finish(&Provenance::of(survey, ds)));
        r.map_err(|e| format!("finish: {e}"))?;
        drop(store);
        let totals = backend.op_totals().unwrap_or_default();
        let (loaded, load) = timed(|| load_survey_dataset_on(survey, Arc::clone(&backend)));
        match loaded.map_err(|e| format!("load: {e}"))? {
            LoadOutcome::Complete { dataset, .. } => {
                Ok((appends, finish * 1e3, load * 1e3, dataset, totals))
            }
            LoadOutcome::Incomplete { missing, .. } => Err(format!("lost {missing} sites")),
        }
    };
    match probe() {
        Ok((appends, finish_ms, load_ms, loaded, totals)) => {
            let (w, l) = (ds.fingerprint(), loaded.fingerprint());
            run.check(w == l, n as u64, || {
                format!("replicated store returned fingerprint {l:016x} for {w:016x}")
            });
            run.metric("store.append_us", stats::median(&appends));
            run.metric("store.finish_ms", finish_ms);
            run.metric("store.load_ms", load_ms);
            store_op_metrics(run, n, &stats);
            objstore_metrics(run, n, &obj, &totals);
        }
        Err(e) => run.check(false, n as u64, || format!("storage probe: {e}")),
    }
}
