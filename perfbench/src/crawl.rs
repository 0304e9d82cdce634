//! The crawl workloads, `paper-light` and `script-heavy`: the study's own
//! survey shape (all four profiles, a few rounds of a few pages) crawled in
//! a closed loop through `Survey::run_partial`, plus the traced replay that
//! the per-layer metrics come from.

use crate::json::J;
use crate::replay::{self, Replayed};
use crate::{
    analysis_layers, crawl_once, failed_site_share, out_dir, peak_during, repeat, report_stages,
    stats, timed, trace, Args, Run, Samples, Shape, Size, LAYER_MIN_S, SIDE_SAMPLES,
};
use bfu_core::crawler::{Dataset, Survey};
use bfu_core::webidl::FeatureRegistry;
use bfu_core::StudyConfig;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// What a crawl workload's per-site latency is.
pub const OBSERVER_LATENCY: &str =
    "gap between consecutive run_partial observer calls on the same worker thread";

fn shape(args: &Args) -> Shape {
    let heavy = args.workload == "script-heavy";
    let sites = match (args.size, heavy) {
        (Size::Tiny, _) => 8,
        (Size::Full, false) => 120,
        (Size::Full, true) => 50,
    };
    Shape {
        sites,
        rounds: 2,
        pages: 3,
        page_budget_ms: 10_000,
        all_profiles: true,
        // Weight 400 prepends an inert library bundle to every script, so
        // parse and compile dominate; weight 0 leaves per-page fixed cost
        // (realm boot) dominant.
        script_weight: if heavy { 400 } else { 0 },
        threads: 2,
    }
}

/// The crawl workloads' set-up: generate the web and build one crawl world.
/// Returns the survey and the seconds spent generating and building.
fn setup_once(shape: &Shape, study: &StudyConfig) -> (Survey, f64, f64) {
    let (web, generate) = timed(|| shape.web(study.seed));
    let survey = Survey::new(web, study.crawl_config());
    let ((), build) = timed(|| drop(survey.site_crawler()));
    (survey, generate, build)
}

/// After a timed repetition: timed set-ups, dataset-to-report timings and
/// host-speed kernels, so their quartiles span the whole run.
fn side_samples(samples: &mut Samples, shape: &Shape, study: &StudyConfig, ds: &Dataset) {
    for _ in 0..SIDE_SAMPLES {
        let ((survey, _, _), setup) = timed(|| setup_once(shape, study));
        samples.setup_s.push(setup);
        let (stages, _) = report_stages(survey.web(), ds, study);
        samples.tables_s.push(stages.iter().sum());
        samples.calib.sample(shape.threads);
    }
}

/// The set-up layers for the traced run, from repeated set-ups.
fn setup_layers(run: &mut Run, shape: &Shape, study: &StudyConfig) -> Survey {
    let mut generate = Vec::new();
    let mut build = Vec::new();
    let (survey, _) = repeat(LAYER_MIN_S, || {
        let (survey, g, b) = setup_once(shape, study);
        generate.push(g * 1e3);
        build.push(b * 1e3);
        survey
    });
    run.metric("webgen.generate_ms", stats::median(&generate));
    run.metric("crawler.world_build_ms", stats::median(&build));
    survey
}

pub fn registry_build(run: &mut Run) {
    let (_, samples) = repeat(LAYER_MIN_S, || {
        drop(std::hint::black_box(FeatureRegistry::build()))
    });
    run.metric("webidl.registry_build_ms", stats::median(&samples) * 1e3);
}

pub fn run(args: &Args) -> Run {
    let shape = shape(args);
    let study = shape.study(args.seed);
    let mut run = Run::default();
    run.note("shape", shape.record());
    if args.trace {
        registry_build(&mut run);
        let survey = setup_layers(&mut run, &shape, &study);
        traced(args, &mut run, &survey, &study);
    } else {
        untraced(args, &mut run, &shape, &study);
    }
    run
}

/// Check a dataset's fingerprint against the first repetition's and the
/// pin; a mismatch counts the repetition's sites as failed.
pub fn check_fingerprint(run: &mut Run, args: &Args, first: u64, ds: &Dataset) {
    let fp = ds.fingerprint();
    let n = ds.sites.len() as u64;
    run.check(fp == first, n, || {
        format!("fingerprint {fp:016x} differs from the first repetition's {first:016x}")
    });
    if let Some(pin) = args.pin() {
        run.check(fp == pin, n, || {
            format!("fingerprint {fp:016x} differs from the pinned {pin:016x}")
        });
    }
}

fn untraced(args: &Args, run: &mut Run, shape: &Shape, study: &StudyConfig) {
    let mut samples = Samples::default();
    let ((survey, _, _), setup) = timed(|| setup_once(shape, study));
    samples.setup_s.push(setup);
    let n = survey.web().site_count();
    // An untimed first crawl faults in the heap every later one reuses and
    // fixes the fingerprint the timed repetitions must repeat.
    let (warmup, _, _) = crawl_once(&survey);
    run.attempted += n as u64;
    let first = warmup.fingerprint();
    check_fingerprint(run, args, first, &warmup);
    drop(warmup);
    let deadline = args.deadline(Instant::now());
    let mut last = None;
    while samples.rates.len() < 2 || Instant::now() < deadline {
        let ((ds, wall, gaps), rss) = peak_during(|| crawl_once(&survey));
        run.attempted += n as u64;
        check_fingerprint(run, args, first, &ds);
        samples.peak_rss_mb.push(rss);
        samples.rates.push(n as f64 / wall);
        samples.latency(&gaps);
        side_samples(&mut samples, shape, study, &ds);
        last = Some(ds);
    }
    let ds = last.expect("at least one repetition");
    samples.finish(run, OBSERVER_LATENCY);
    let failed = failed_site_share(&ds);
    run.metric("completed_site_share", 1.0 - failed);
    run.note("fingerprint", J::Str(format!("{first:016x}")));
    run.note("failed_site_share", J::Num(failed));
    run.note("cache_hit_rate", J::Num(ds.cache.hit_rate()));
}

/// Describe how two datasets differ in the work they measured, if at all:
/// per-round pages and feature-log totals, then the full fingerprint.
pub fn same_work(untraced: &Dataset, replayed: &Dataset) -> Result<(), String> {
    let shape = |ds: &Dataset| -> Vec<(u32, u64, usize)> {
        ds.sites
            .iter()
            .flat_map(|s| &s.rounds)
            .flat_map(|(_, rounds)| rounds)
            .map(|r| {
                (
                    r.pages_visited,
                    r.log.total_invocations(),
                    r.log.distinct_features(),
                )
            })
            .collect()
    };
    let (a, b) = (shape(untraced), shape(replayed));
    if a != b {
        let at = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        return Err(format!(
            "replay rounds differ from the untraced crawl's at round {at} of {}",
            a.len()
        ));
    }
    let (fa, fb) = (untraced.fingerprint(), replayed.fingerprint());
    if fa != fb {
        return Err(format!(
            "replay fingerprint {fb:016x} != untraced {fa:016x}"
        ));
    }
    let (ca, cb) = (untraced.cache, replayed.cache);
    if (ca.chunk_hits, ca.chunk_misses, ca.chunk_negative_hits)
        != (cb.chunk_hits, cb.chunk_misses, cb.chunk_negative_hits)
    {
        return Err(format!(
            "replay cache probes (hit/miss/negative {}/{}/{}) differ from the untraced \
             crawl's ({}/{}/{})",
            cb.chunk_hits,
            cb.chunk_misses,
            cb.chunk_negative_hits,
            ca.chunk_hits,
            ca.chunk_misses,
            ca.chunk_negative_hits
        ));
    }
    Ok(())
}

/// Replay `survey` traced, check it against `reference` (an untraced crawl
/// of the same survey) and return the replay and its sites per second.
pub fn traced_replay(run: &mut Run, survey: &Survey, reference: &Dataset) -> (Replayed, f64) {
    let n = survey.web().site_count();
    let (r, wall) = timed(|| replay::replay(survey));
    run.attempted += n as u64;
    let verdict = same_work(reference, &r.dataset);
    run.check(verdict.is_ok(), n as u64, || {
        verdict.err().unwrap_or_default()
    });
    (r, n as f64 / wall)
}

/// The crawl-layer metrics of one traced replay; writes its spans out.
pub fn crawl_layers(run: &mut Run, args: &Args, r: &Replayed) {
    let t = trace::totals(&r.spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let mean = |name: &str, unit_ns: f64| {
        let s = get(name);
        if s.count == 0 {
            0.0
        } else {
            s.total_ns as f64 / s.count as f64 / unit_ns
        }
    };
    let site = get("crawler.site");
    let round = get("crawler.round");
    let boot_ns: u64 = [
        "browser.boot.interp",
        "browser.boot.api",
        "browser.boot.instrument",
    ]
    .iter()
    .map(|n| get(n).total_ns)
    .sum();
    let boots = get("browser.boot.api").count.max(1);
    let health = r.dataset.health();
    let hits = r.memo.hits.load(Ordering::Relaxed);
    let negative = r.memo.negative_hits.load(Ordering::Relaxed);
    let probes = hits + negative + r.memo.misses.load(Ordering::Relaxed);
    let decides = r.policy.decide.count();
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    run.metric("crawler.site_ms", mean("crawler.site", 1e6));
    run.metric("crawler.round_ms", mean("crawler.round", 1e6));
    run.metric("crawler.attempts", health.total_attempts as f64);
    run.metric("crawler.retries", health.total_retries as f64);
    run.metric(
        "crawler.unattributed_share",
        share(round.self_ns as f64, round.total_ns as f64),
    );
    run.metric(
        "crawler.failed_site_share",
        crate::failed_site_share(&r.dataset),
    );
    run.metric("net.fetch_us", mean("net.fetch", 1e3));
    run.metric("net.fetch_count", get("net.fetch").count as f64);
    run.metric(
        "net.fetch_failed",
        r.counters.fetch_failed.load(Ordering::Relaxed) as f64,
    );
    run.metric("dom.parse_us", mean("dom.parse", 1e3));
    run.metric("browser.realm_boot_us", boot_ns as f64 / boots as f64 / 1e3);
    run.metric("browser.load_ms", mean("browser.load", 1e6));
    run.metric("browser.load_count", get("browser.load").count as f64);
    run.metric(
        "browser.boot_share",
        share(boot_ns as f64, site.total_ns as f64),
    );
    run.metric("script.parse_us", mean("script.parse", 1e3));
    run.metric("script.compile_us", mean("script.compile", 1e3));
    run.metric("script.execute_us", mean("script.execute", 1e3));
    run.metric(
        "script.count",
        r.counters.scripts.load(Ordering::Relaxed) as f64,
    );
    run.metric(
        "script.errors",
        r.counters.script_errors.load(Ordering::Relaxed) as f64,
    );
    run.metric("script.cache_hits", hits as f64);
    run.metric("script.cache_probes", probes as f64);
    run.metric(
        "script.cache_hit_ratio",
        share((hits + negative) as f64, probes as f64),
    );
    run.metric("blocker.decide_ns", r.policy.decide.mean(1.0));
    run.metric("blocker.decide_count", decides as f64);
    run.metric(
        "blocker.blocked_ratio",
        share(
            r.policy.blocked.load(Ordering::Relaxed) as f64,
            decides as f64,
        ),
    );
    run.metric("monkey.interact_ms", mean("monkey.interact", 1e6));
    run.metric(
        "monkey.listeners_fired",
        r.counters.listeners_fired.load(Ordering::Relaxed) as f64,
    );
    let spans: usize = r.spans.iter().map(Vec::len).sum();
    run.metric("trace.spans", spans as f64);
    let self_ms: Vec<(String, J)> = t
        .iter()
        .map(|(name, s)| {
            (
                (*name).to_owned(),
                J::obj([
                    ("count", J::Int(s.count)),
                    ("total_ms", J::Num(s.total_ns as f64 / 1e6)),
                    ("self_ms", J::Num(s.self_ns as f64 / 1e6)),
                ]),
            )
        })
        .collect();
    run.note("spans", J::Obj(self_ms));
    let path = out_dir().join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, trace::render(&r.spans)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Alternate untraced crawls and traced replays until the deadline; the
/// per-layer metrics come from the last replay, then the storage and (for
/// `paper-light`) fabric probes run on its dataset.
fn traced(args: &Args, run: &mut Run, survey: &Survey, study: &StudyConfig) {
    let deadline = args.deadline(Instant::now());
    let n = survey.web().site_count() as f64;
    let mut untraced_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut first = None;
    let mut last = None;
    while traced_rates.is_empty() || Instant::now() < deadline {
        let (ds, wall, _) = crawl_once(survey);
        run.attempted += n as u64;
        let fp = *first.get_or_insert(ds.fingerprint());
        check_fingerprint(run, args, fp, &ds);
        untraced_rates.push(n / wall);
        let (r, rate) = traced_replay(run, survey, &ds);
        traced_rates.push(rate);
        last = Some(r);
    }
    let r = last.expect("at least one traced replay");
    crawl_layers(run, args, &r);
    analysis_layers(run, survey.web(), &r.dataset, study);
    crate::store::persist_probe(run, survey, &r.dataset);
    // The fabric layers ride on the light crawl only, which keeps the
    // script-heavy traced run (~1 GB resident already) short.
    if args.workload == "paper-light" {
        crate::fabric::probe(run, args, survey, study, &r.dataset);
    }
    let overhead = 1.0 - stats::median(&traced_rates) / stats::median(&untraced_rates);
    run.metric("trace.overhead_share", overhead);
    run.note("untraced_sites_per_s", J::nums(&untraced_rates));
    run.note("traced_sites_per_s", J::nums(&traced_rates));
}
