//! `crawl_bench` — wall-clock comparison of the same survey across the
//! engine × cache grid, written to `BENCH_crawl.json`:
//!
//! - **engine**: the tree-walk interpreter (the differential oracle) vs the
//!   bytecode VM (the production default);
//! - **cache**: scratch (every page visit re-lexes, re-parses, and — under
//!   the VM — re-compiles every script) vs cached (one shared
//!   [`bfu_browser::CompileCache`] across all sites, rounds, profiles, and
//!   worker threads, so each distinct source is parsed/compiled exactly
//!   once for the whole survey).
//!
//! All four datasets must fingerprint identically (engine and cache are
//! execution strategy and memoization, not measurement — the run aborts if
//! any cell diverges), so the only reported difference is wall time plus
//! the cache's own hit/miss accounting. The headline `vm_speedup` compares
//! the shipped configuration (VM + chunk cache) against the original
//! baseline (tree-walk, scratch).
//!
//! The benchmark web is generated with a non-zero `script_weight`: every
//! script carries an inert library bundle (syntax-checked, never executed),
//! the payload shape real pages ship and the reason production engines have
//! compilation caches at all. `--script-weight 0` measures the generator's
//! minimal scripts instead, where parse time is a much smaller slice.
//!
//! ```text
//! cargo run -p bfu-bench --release --bin crawl_bench -- \
//!     [--sites N] [--seed N] [--rounds N] [--threads N] \
//!     [--script-weight N] [--out PATH]
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bfu_browser::Engine;
use bfu_crawler::{CrawlConfig, Dataset, Survey};
use bfu_webgen::{SyntheticWeb, WebConfig};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    sites: usize,
    seed: u64,
    rounds: u32,
    threads: usize,
    script_weight: u32,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut sites = 48usize;
    let mut seed = 0xC4A7_BE7Cu64;
    let mut rounds = 4u32;
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut script_weight = 400u32;
    let mut out = std::path::PathBuf::from("BENCH_crawl.json");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--sites" => {
                sites = argv
                    .next()
                    .ok_or("--sites needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --sites: {e}"))?;
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--rounds" => {
                rounds = argv
                    .next()
                    .ok_or("--rounds needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --rounds: {e}"))?;
            }
            "--threads" => {
                threads = argv
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--script-weight" => {
                script_weight = argv
                    .next()
                    .ok_or("--script-weight needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --script-weight: {e}"))?;
            }
            "--out" => {
                out = std::path::PathBuf::from(argv.next().ok_or("--out needs a value")?);
            }
            "--help" | "-h" => {
                return Err(String::from(
                    "usage: crawl_bench [--sites N] [--seed N] [--rounds N] [--threads N] \
                     [--script-weight N] [--out PATH]",
                ));
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(Args {
        sites,
        seed,
        rounds,
        threads,
        script_weight,
        out,
    })
}

fn config(args: &Args, engine: Engine, compile_cache: bool) -> CrawlConfig {
    let mut config = CrawlConfig::quick(args.seed);
    config.rounds_per_profile = args.rounds;
    config.threads = args.threads;
    config.compile_cache = compile_cache;
    config.browser.engine = engine;
    config
}

fn engine_label(engine: Engine) -> &'static str {
    match engine {
        Engine::TreeWalk => "treewalk",
        Engine::Vm => "vm",
    }
}

/// Crawl the benchmark web once, returning the dataset and elapsed seconds.
fn crawl(args: &Args, engine: Engine, compile_cache: bool) -> (Dataset, f64) {
    let web = SyntheticWeb::generate(WebConfig {
        sites: args.sites,
        seed: args.seed,
        script_weight: args.script_weight,
    });
    let survey = Survey::new(web, config(args, engine, compile_cache));
    let t0 = Instant::now();
    let dataset = survey.run();
    (dataset, t0.elapsed().as_secs_f64())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    // Untimed warmup at the heaviest configuration: the first heavy crawl
    // in a process pays for faulting in every fresh heap page from the OS,
    // a cost that belongs to no grid cell. After it, every timed run
    // recycles warm memory.
    eprintln!(
        "# warmup: {} sites x {} rounds, untimed…",
        args.sites, args.rounds
    );
    let (warmup, _) = crawl(&args, Engine::Vm, true);
    let fingerprint = warmup.fingerprint();

    // The full engine × cache grid, every cell checked against the warmup
    // fingerprint before any timing is trusted.
    let mut times = [[0f64; 2]; 2]; // [engine][cache]
    let mut vm_cached_dataset = None;
    for (ei, engine) in [Engine::TreeWalk, Engine::Vm].into_iter().enumerate() {
        for (ci, cache_on) in [false, true].into_iter().enumerate() {
            let label = engine_label(engine);
            let mode = if cache_on { "cached" } else { "scratch" };
            eprintln!("# {label} / {mode}: same survey…");
            let (ds, secs) = crawl(&args, engine, cache_on);
            if ds.fingerprint() != fingerprint {
                return Err(format!(
                    "{label}/{mode} dataset fingerprint diverged from warmup run"
                ));
            }
            if cache_on && !ds.cache.enabled {
                return Err(format!("{label}/{mode} run reports the cache as disabled"));
            }
            times[ei][ci] = secs;
            if engine == Engine::Vm && cache_on {
                vm_cached_dataset = Some(ds);
            }
        }
    }
    let Some(vm_cached) = vm_cached_dataset else {
        return Err("grid did not produce a vm/cached dataset".into());
    };
    let totals = vm_cached.cache;
    if totals.chunk_misses == 0 {
        return Err("vm/cached run never compiled a chunk".into());
    }

    let [[tree_scratch_s, tree_cached_s], [vm_scratch_s, vm_cached_s]] = times;
    // Headline: the shipped configuration (VM + chunk cache) against the
    // original baseline (tree-walk from scratch).
    let vm_speedup = tree_scratch_s / vm_cached_s.max(1e-9);
    let cached_speedup = tree_scratch_s / tree_cached_s.max(1e-9);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"sites\": {},", args.sites);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"rounds_per_profile\": {},", args.rounds);
    let _ = writeln!(json, "  \"threads\": {},", args.threads);
    let _ = writeln!(json, "  \"script_weight\": {},", args.script_weight);
    let _ = writeln!(json, "  \"fingerprint\": \"{fingerprint:016x}\",");
    let _ = writeln!(json, "  \"fingerprints_match\": true,");
    json.push_str("  \"engines\": {\n");
    let _ = writeln!(
        json,
        "    \"treewalk\": {{ \"scratch_s\": {tree_scratch_s:.3}, \"cached_s\": {tree_cached_s:.3} }},"
    );
    let _ = writeln!(
        json,
        "    \"vm\": {{ \"scratch_s\": {vm_scratch_s:.3}, \"cached_s\": {vm_cached_s:.3} }}"
    );
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"survey_scratch_s\": {tree_scratch_s:.3},");
    let _ = writeln!(json, "  \"survey_cached_s\": {tree_cached_s:.3},");
    let _ = writeln!(json, "  \"cached_speedup\": {cached_speedup:.2},");
    let _ = writeln!(json, "  \"vm_speedup\": {vm_speedup:.2},");
    json.push_str("  \"script_cache\": {\n");
    let _ = writeln!(json, "    \"hits\": {},", totals.script_hits);
    let _ = writeln!(json, "    \"misses\": {},", totals.script_misses);
    let _ = writeln!(
        json,
        "    \"negative_hits\": {},",
        totals.script_negative_hits
    );
    let _ = writeln!(json, "    \"unique_scripts\": {},", totals.unique_scripts);
    let _ = writeln!(json, "    \"unique_frames\": {},", totals.unique_frames);
    let _ = writeln!(json, "    \"chunk_hits\": {},", totals.chunk_hits);
    let _ = writeln!(json, "    \"chunk_misses\": {},", totals.chunk_misses);
    let _ = writeln!(
        json,
        "    \"chunk_negative_hits\": {},",
        totals.chunk_negative_hits
    );
    let _ = writeln!(json, "    \"unique_chunks\": {},", totals.unique_chunks);
    let _ = writeln!(json, "    \"hit_rate\": {:.6}", totals.hit_rate());
    json.push_str("  }\n}\n");
    std::fs::write(&args.out, &json).map_err(|e| e.to_string())?;
    eprintln!(
        "# treewalk {tree_scratch_s:.2}s/{tree_cached_s:.2}s | \
         vm {vm_scratch_s:.2}s/{vm_cached_s:.2}s (scratch/cached) | \
         vm_speedup {vm_speedup:.2}x | {} unique chunks, {:.1}% hit rate → {}",
        totals.unique_chunks,
        100.0 * totals.hit_rate(),
        args.out.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
