//! The fabric probe of the traced `paper-light` run: the workload's survey
//! crawled once through `run_survey_fabric` with two worker threads, over a
//! replicated object store (three simulated replicas, majority quorums)
//! behind the object-store adapter. It gives the `fabric.*` metrics and
//! checks that the fabric's dataset equals the single-process crawl's.

use crate::json::J;
use crate::layers::{replicated_sims, REPLICAS};
use crate::{timed, Args, Run, Size};
use bfu_core::crawler::{Dataset, Survey};
use bfu_core::fabric::{run_survey_fabric, FabricConfig, FabricOutcome};
use bfu_core::objstore::ObjectBackend;
use bfu_core::StudyConfig;
use std::sync::Arc;

const WORKERS: usize = 2;

fn fabric_config(args: &Args) -> FabricConfig {
    FabricConfig {
        workers: WORKERS,
        sites_per_lease: if args.size == Size::Tiny { 2 } else { 10 },
        ..FabricConfig::default()
    }
}

/// One fabric run over fresh replicas. Returns the outcome and its wall
/// time in seconds.
fn fabric_once(survey: &Survey, cfg: &FabricConfig) -> Result<(FabricOutcome, f64), String> {
    let replicated = replicated_sims(None).map_err(|e| format!("replicated store: {e}"))?;
    let backend = Arc::new(ObjectBackend::new(Arc::new(replicated)));
    let (outcome, wall) = timed(|| run_survey_fabric(survey, backend, cfg));
    Ok((outcome.map_err(|e| format!("fabric run: {e}"))?, wall))
}

/// Crawl `survey`'s web through the fabric and check the dataset against
/// `reference`, an untraced single-process crawl of the same survey.
pub fn probe(
    run: &mut Run,
    args: &Args,
    survey: &Survey,
    study: &StudyConfig,
    reference: &Dataset,
) {
    // The fabric's workers are the parallelism; each crawls alone.
    let single = StudyConfig {
        threads: 1,
        ..study.clone()
    };
    let survey = Survey::new(survey.web().clone(), single.crawl_config());
    let n = survey.web().site_count() as u64;
    let cfg = fabric_config(args);
    run.attempted += n;
    match fabric_once(&survey, &cfg) {
        Ok((outcome, wall)) => {
            let (fp, want) = (outcome.dataset.fingerprint(), reference.fingerprint());
            run.check(fp == want, n, || {
                format!("fabric fingerprint {fp:016x} != single-process {want:016x}")
            });
            run.metric(
                "fabric.leases_completed",
                outcome.stats.leases_completed as f64,
            );
            run.metric(
                "fabric.publishes_fenced",
                outcome.stats.publishes_fenced as f64,
            );
            run.note(
                "fabric_probe",
                J::obj([
                    ("workers", J::Int(WORKERS as u64)),
                    ("sites_per_lease", J::Int(cfg.sites_per_lease as u64)),
                    ("replicas", J::Int(REPLICAS as u64)),
                    ("sites_per_s", J::Num(n as f64 / wall)),
                ]),
            );
        }
        Err(e) => run.check(false, n, || e),
    }
}
