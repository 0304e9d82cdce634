//! The survey benchmark: one workload per invocation, timed from outside
//! through the library's public entry points in the shipped configuration
//! (bytecode VM, compile cache on, default budgets).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-light --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is the run record (seed, threads, core count, commit, rustc,
//! raw per-repetition samples). The run record and, for traced runs, the
//! span dump are also written under `.perfbench/`. Any failed output check
//! makes the process exit with status 1. Timings are reported as the
//! fast-side quartile of their samples across the run (`stats::fast_time`),
//! adjusted to the reference host's speed (`calib`). `--size tiny` runs a
//! tiny web for the self-test (`perfbench/selftest.py`). See
//! `perfbench/README.md` for the workloads and what each metric should move.

mod calib;
mod crawl;
mod fabric;
mod json;
mod layers;
mod replay;
mod stats;
mod store;
mod trace;

use bfu_core::crawler::{Dataset, Survey};
use bfu_core::webgen::{SyntheticWeb, WebConfig};
use bfu_core::{Study, StudyConfig};
use json::J;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sites_per_s", "1/s"),
    ("site_p50_ms", "ms"),
    ("site_tail_ms", "ms"),
    ("tables_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_site_share", "share"),
];

/// The per-layer metrics every workload prints with `--trace 1`; a count a
/// workload's traced run does not produce (fabric leases outside the
/// `paper-light` fabric probe) reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("webidl.registry_build_ms", "ms"),
    ("webgen.generate_ms", "ms"),
    ("crawler.world_build_ms", "ms"),
    ("crawler.site_ms", "ms"),
    ("crawler.round_ms", "ms"),
    ("crawler.attempts", "count"),
    ("crawler.retries", "count"),
    ("crawler.unattributed_share", "share"),
    ("crawler.failed_site_share", "share"),
    ("net.fetch_us", "us"),
    ("net.fetch_count", "count"),
    ("net.fetch_failed", "count"),
    ("dom.parse_us", "us"),
    ("browser.realm_boot_us", "us"),
    ("browser.load_ms", "ms"),
    ("browser.load_count", "count"),
    ("browser.boot_share", "share"),
    ("script.parse_us", "us"),
    ("script.compile_us", "us"),
    ("script.execute_us", "us"),
    ("script.count", "count"),
    ("script.errors", "count"),
    ("script.cache_hit_ratio", "share"),
    ("script.cache_hits", "count"),
    ("script.cache_probes", "count"),
    ("blocker.decide_ns", "ns"),
    ("blocker.decide_count", "count"),
    ("blocker.blocked_ratio", "share"),
    ("monkey.interact_ms", "ms"),
    ("monkey.listeners_fired", "count"),
    ("store.append_us", "us"),
    ("store.finish_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.sync_ms", "ms"),
    ("store.bytes_per_site", "bytes"),
    ("store.creates", "count"),
    ("store.gets", "count"),
    ("store.lists", "count"),
    ("store.replaces", "count"),
    ("store.syncs", "count"),
    ("objstore.put_us", "us"),
    ("objstore.get_us", "us"),
    ("objstore.puts", "count"),
    ("objstore.gets", "count"),
    ("objstore.heads", "count"),
    ("objstore.lists", "count"),
    ("objstore.deletes", "count"),
    ("objstore.bytes_per_site", "bytes"),
    ("objstore.quorum_writes", "count"),
    ("objstore.quorum_reads", "count"),
    ("objstore.read_repairs", "count"),
    ("fabric.leases_completed", "count"),
    ("fabric.publishes_fenced", "count"),
    ("analysis.report_ms", "ms"),
    ("analysis.render_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Set-up and dataset-to-report timings taken after each timed crawl
/// repetition, so that `setup_s` and `tables_s` span the whole run.
pub const SIDE_SAMPLES: usize = 8;

/// The traced run repeats set-up-layer timings at least three times and
/// until this many seconds have been spent on each.
pub const LAYER_MIN_S: f64 = 0.5;

/// The seed the pinned output values belong to, and a held-out seed that
/// was not used while tuning the benchmark.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 1001;

/// Pinned full-size outputs: `(workload, seed, value)`. Crawl workloads pin
/// the dataset fingerprint; `store-roundtrip` pins the Table 2 digest.
pub const PINS: [(&str, u64, u64); 6] = [
    ("paper-light", DEFAULT_SEED, 0xdb70_e765_2d9c_9357),
    ("paper-light", HELD_OUT_SEED, 0xd1ac_f688_3c92_57c2),
    ("script-heavy", DEFAULT_SEED, 0x475a_381d_6f2b_436c),
    ("script-heavy", HELD_OUT_SEED, 0xd63a_b996_f5be_36e9),
    ("store-roundtrip", DEFAULT_SEED, 0xa9a3_0de8_53c4_82a7),
    ("store-roundtrip", HELD_OUT_SEED, 0x24b2_82c8_ae42_c94a),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut size = Size::Full;
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("bad --trace {other:?}: expected 0 or 1")),
                    };
                }
                "--size" => {
                    size = match value()?.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        other => {
                            return Err(format!("bad --size {other:?}: expected full or tiny"))
                        }
                    };
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            size,
        })
    }

    /// When the measuring loop stops taking new repetitions.
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds.max(0.0))
    }

    /// The pinned value for this workload and seed, at full size.
    pub fn pin(&self) -> Option<u64> {
        if self.size != Size::Full {
            return None;
        }
        PINS.iter()
            .find(|(w, s, _)| *w == self.workload && *s == self.seed)
            .map(|p| p.2)
    }
}

/// The survey shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub sites: usize,
    pub rounds: u32,
    pub pages: usize,
    pub page_budget_ms: u64,
    /// Crawl all four profiles (default, blocking, adblock-only,
    /// ghostery-only) rather than the first two.
    pub all_profiles: bool,
    pub script_weight: u32,
    pub threads: usize,
}

impl Shape {
    pub fn study(&self, seed: u64) -> StudyConfig {
        StudyConfig {
            sites: self.sites,
            seed,
            rounds: self.rounds,
            pages_per_site: self.pages,
            page_budget_ms: self.page_budget_ms,
            fig7_profiles: self.all_profiles,
            threads: self.threads,
        }
    }

    pub fn web(&self, seed: u64) -> SyntheticWeb {
        SyntheticWeb::generate(WebConfig {
            sites: self.sites,
            seed,
            script_weight: self.script_weight,
        })
    }

    pub fn record(&self) -> J {
        J::obj([
            ("sites", J::Int(self.sites as u64)),
            ("rounds", J::Int(u64::from(self.rounds))),
            ("pages_per_site", J::Int(self.pages as u64)),
            ("page_budget_ms", J::Int(self.page_budget_ms)),
            ("all_profiles", J::Bool(self.all_profiles)),
            ("script_weight", J::Int(u64::from(self.script_weight))),
            ("crawl_threads", J::Int(self.threads as u64)),
        ])
    }
}

/// What one run produced: output checks, metrics and the run record.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub record: Vec<(String, J)>,
}

impl Run {
    /// Record an output check; a failure counts `sites` as failed.
    pub fn check(&mut self, ok: bool, sites: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += sites;
            self.problems.push(what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: J) {
        self.record.push((key.to_owned(), value));
    }
}

pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Run `f` at least three times and until `min_secs` have been spent (at
/// most 50 times). Returns the last output and the seconds each call took.
pub fn repeat<T>(min_secs: f64, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, s) = timed(&mut f);
        times.push(s);
        if times.len() >= 3 && (secs(t0) >= min_secs || times.len() >= 50) {
            return (out, times);
        }
    }
}

/// Time `f`, returning its output and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f` and return its output and the peak resident set size while it
/// ran, in MB. The peak is first reset to the current size (value 5 to
/// `/proc/self/clear_refs`); where that is refused the peak spans the whole
/// process so far.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = f();
    (out, peak_rss_mb())
}

/// `(failed + panicked) / total` from the dataset's health.
pub fn failed_site_share(ds: &Dataset) -> f64 {
    let h = ds.health();
    (h.sites_failed + h.sites_panicked) as f64 / h.sites_total.max(1) as f64
}

/// End-to-end timings gathered across a run's whole measuring window, so
/// that each reported quartile spans the same stretch of machine time.
#[derive(Debug, Default)]
pub struct Samples {
    /// Sites per second of each timed repetition.
    pub rates: Vec<f64>,
    /// Per repetition: the median and the tail of its per-site latencies.
    pub p50_ms: Vec<f64>,
    pub tail_ms: Vec<f64>,
    /// Per repetition: latency samples and the tail's percentile.
    pub latency_n: Vec<u64>,
    pub tail_pct: Vec<f64>,
    pub tables_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Peak resident memory during each repetition, in MB.
    pub peak_rss_mb: Vec<f64>,
    /// The host-speed kernel, timed between repetitions.
    pub calib: calib::Calibration,
}

impl Samples {
    /// Add one repetition's per-site latencies.
    pub fn latency(&mut self, rep_ms: &[f64]) {
        let (pct, tail) = stats::tail(rep_ms);
        self.p50_ms.push(stats::median(rep_ms));
        self.tail_ms.push(tail);
        self.tail_pct.push(pct);
        self.latency_n.push(rep_ms.len() as u64);
    }

    /// Set the end-to-end timing metrics (the fast-side quartile of each
    /// one's samples, see [`stats::fast_time`], adjusted to the reference
    /// host's speed, see [`calib`]) and put every raw sample in the run
    /// record. Repetition timings use the slowdown of all the workload's
    /// cores together, the single-threaded set-up and report timings that
    /// of one core.
    pub fn finish(self, run: &mut Run, latency_basis: &str) {
        let (cores, core) = (self.calib.cores_slowdown(), self.calib.core_slowdown());
        let rate = stats::fast_rate(&self.rates);
        let times = [
            ("site_p50_ms", stats::fast_time(&self.p50_ms), cores),
            ("site_tail_ms", stats::fast_time(&self.tail_ms), cores),
            ("tables_s", stats::fast_time(&self.tables_s), core),
            ("setup_s", stats::fast_time(&self.setup_s), core),
        ];
        run.metric("sites_per_s", rate * cores);
        for (name, t, slowdown) in times {
            run.metric(name, t / slowdown);
        }
        // The whole run's peak would be the largest of noisy per-repetition
        // peaks (allocator fragmentation moves each by up to ~10 %).
        run.metric("peak_rss_mb", stats::median(&self.peak_rss_mb));
        run.note("peak_rss_mb_per_rep", J::nums(&self.peak_rss_mb));
        let unadjusted =
            std::iter::once(("sites_per_s", rate)).chain(times.map(|(k, t, _)| (k, t)));
        run.note(
            "unadjusted",
            J::Obj(unadjusted.map(|(k, v)| (k.to_owned(), J::Num(v))).collect()),
        );
        run.note(
            "host_slowdown",
            J::obj([("cores", J::Num(cores)), ("core", J::Num(core))]),
        );
        run.note("calibration_s_samples", J::nums(&self.calib.sample_s));
        run.note("repetitions", J::Int(self.rates.len() as u64));
        run.note("rep_sites_per_s", J::nums(&self.rates));
        run.note(
            "site_latency",
            J::obj([
                ("basis", J::Str(latency_basis.to_owned())),
                (
                    "method",
                    J::Str(
                        "per repetition: median and tail (the highest percentile with at \
                         least ten samples beyond it) of the per-site latencies; reported: \
                         the lower quartile of each over repetitions"
                            .to_owned(),
                    ),
                ),
                (
                    "samples_per_rep",
                    J::Arr(self.latency_n.iter().map(|&n| J::Int(n)).collect()),
                ),
                ("tail_percentile_per_rep", J::nums(&self.tail_pct)),
                ("p50_ms_per_rep", J::nums(&self.p50_ms)),
                ("tail_ms_per_rep", J::nums(&self.tail_ms)),
            ]),
        );
        run.note("tables_s_samples", J::nums(&self.tables_s));
        run.note("setup_s_samples", J::nums(&self.setup_s));
    }
}

/// Crawl `survey` through the public `run_partial` entry point. Returns the
/// dataset, the wall seconds and each site's latency in ms: the gap
/// between consecutive observer calls on the same worker thread.
pub fn crawl_once(survey: &Survey) -> (Dataset, f64, Vec<f64>) {
    let marks = layers::SiteMarks::new(Instant::now());
    let (dataset, wall) = timed(|| survey.run_partial(Vec::new(), &|_| marks.mark()));
    (dataset, wall, marks.gaps_ms())
}

/// Time the path from a dataset to the rendered report: assemble the study,
/// compute every analysis and render every table and figure. Returns the
/// seconds taken per stage `(assemble, report, render)` and a digest of
/// the rendered Table 2.
pub fn report_stages(
    web: &SyntheticWeb,
    dataset: &Dataset,
    study: &StudyConfig,
) -> ([f64; 3], u64) {
    let (study, assemble) =
        timed(|| Study::from_parts(web.clone(), dataset.clone(), study.clone()));
    let (report, compute) = timed(|| study.report());
    let (text, render) = timed(|| report.render_all());
    std::hint::black_box(text);
    ([assemble, compute, render], table2_digest(&report))
}

pub fn table2_digest(report: &bfu_core::StudyReport) -> u64 {
    bfu_core::util::fnv64(bfu_core::analysis::report::render_table2(&report.table2).as_bytes())
}

/// Median per-stage dataset-to-report times in ms, for the traced run.
pub fn analysis_layers(run: &mut Run, web: &SyntheticWeb, dataset: &Dataset, study: &StudyConfig) {
    let mut stages = [Vec::new(), Vec::new(), Vec::new()];
    repeat(LAYER_MIN_S, || {
        let (s, _) = report_stages(web, dataset, study);
        for (acc, v) in stages.iter_mut().zip(s) {
            acc.push(v);
        }
    });
    run.metric("analysis.report_ms", stats::median(&stages[1]) * 1e3);
    run.metric("analysis.render_ms", stats::median(&stages[2]) * 1e3);
}

/// Where run records, span dumps and scratch stores go.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".perfbench");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| String::from("unknown"))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload <paper-light|script-heavy|store-roundtrip> \
                 [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut run = match args.workload.as_str() {
        "paper-light" | "script-heavy" => crawl::run(&args),
        "store-roundtrip" => store::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = J::Obj(
        wanted
            .iter()
            .map(|&(name, unit)| {
                let value = run.metrics.get(name).copied().unwrap_or(0.0);
                (
                    name.to_owned(),
                    J::obj([("value", J::Num(value)), ("unit", J::Str(unit.to_owned()))]),
                )
            })
            .collect(),
    );
    let correct = run.problems.is_empty();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = vec![
        ("workload".to_owned(), J::Str(args.workload.clone())),
        ("seed".to_owned(), J::Int(args.seed)),
        ("default_seed".to_owned(), J::Int(DEFAULT_SEED)),
        ("held_out_seed".to_owned(), J::Int(HELD_OUT_SEED)),
        ("trace".to_owned(), J::Bool(args.trace)),
        ("seconds".to_owned(), J::Num(args.seconds)),
        (
            "size".to_owned(),
            J::Str(format!("{:?}", args.size).to_lowercase()),
        ),
        ("nproc".to_owned(), J::Int(nproc as u64)),
        (
            "git_commit".to_owned(),
            J::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_owned(),
            J::Str(command_line("rustc", &["--version"])),
        ),
        ("wall_s".to_owned(), J::Num(secs(started))),
        ("correct".to_owned(), J::Bool(correct)),
        (
            "problems".to_owned(),
            J::Arr(run.problems.iter().cloned().map(J::Str).collect()),
        ),
    ];
    record.append(&mut run.record);
    let record = J::Obj(record).render();
    let path = out_dir().join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    for p in &run.problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    println!("{record}");
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(run.attempted.max(1))),
        ("failed", J::Int(run.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
