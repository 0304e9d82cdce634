//! Golden fingerprints: behaviour pinned across history, not only within
//! one build.
//!
//! Every other equivalence suite compares two runs of the same build, so a
//! change that shifts both sides together passes them. These tests pin the
//! dataset fingerprint and a digest of the rendered Table 2 at three small
//! points — the benchmark's `paper-light` crawl shape, a script-heavy web
//! (inert library bundles at weight 400), and a hostile web under tight
//! budgets — to values recorded from an earlier commit. A change that moves
//! a measurement must update the pins here, in its own diff, and say why.

use bfu_analysis::report::render_table2;
use bfu_core::{Study, StudyConfig};
use bfu_crawler::{BrowserConfig, BrowserProfile, Dataset, Survey};
use bfu_util::fnv64;
use bfu_webgen::{HostilePlan, SyntheticWeb, WebConfig};

/// The study shape of the `paper-light` benchmark workload (all four
/// profiles, 2 rounds of 3 pages) at `sites` sites.
fn paper_shape(sites: usize, seed: u64) -> StudyConfig {
    StudyConfig {
        sites,
        seed,
        rounds: 2,
        pages_per_site: 3,
        page_budget_ms: 10_000,
        fig7_profiles: true,
        threads: 2,
    }
}

fn web(config: &StudyConfig, script_weight: u32) -> SyntheticWeb {
    SyntheticWeb::generate(WebConfig {
        sites: config.sites,
        seed: config.seed,
        script_weight,
    })
}

/// `(dataset fingerprint, Table 2 digest)` of one crawled survey.
fn pin_of(survey: &Survey, dataset: Dataset, config: StudyConfig) -> (u64, u64) {
    let fingerprint = dataset.fingerprint();
    let study = Study::from_parts(survey.web().clone(), dataset, config);
    let table2 = fnv64(render_table2(&study.report().table2).as_bytes());
    (fingerprint, table2)
}

fn assert_pinned(name: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{name}: (fingerprint, table2) = ({:#018x}, {:#018x}), pinned ({:#018x}, {:#018x})",
        got.0, got.1, want.0, want.1
    );
}

#[test]
fn paper_light_shape_is_pinned() {
    let config = paper_shape(20, 1);
    let survey = Survey::new(web(&config, 0), config.crawl_config());
    assert_pinned(
        "paper-light",
        pin_of(&survey, survey.run(), config),
        (0x7fda_19f0_fa16_ae52, 0x42ec_3e4b_8098_7b27),
    );
}

#[test]
fn script_heavy_web_is_pinned() {
    let config = paper_shape(10, 2);
    let survey = Survey::new(web(&config, 400), config.crawl_config());
    assert_pinned(
        "script-heavy",
        pin_of(&survey, survey.run(), config),
        (0xba45_1f01_ebb5_74c3, 0x36d1_3807_531b_5efa),
    );
}

#[test]
fn hostile_web_is_pinned() {
    let config = StudyConfig {
        rounds: 3,
        fig7_profiles: false,
        ..paper_shape(24, 3)
    };
    let mut crawl = config.crawl_config();
    crawl.profiles = vec![BrowserProfile::Default];
    crawl.browser = BrowserConfig {
        script_fuel: 120_000,
        callback_fuel: 20_000,
        max_heap_cells: 4_000,
        max_string_bytes: 64_000,
        max_call_depth: 48,
        max_timer_callbacks: 500,
        ..BrowserConfig::default()
    };
    let survey =
        Survey::new(web(&config, 0), crawl).with_hostility(HostilePlan::new(0xBAD5EED, 500));
    let dataset = survey.run();
    let health = dataset.health();
    let trips = health.total_script_budget_errors
        + health.total_script_heap_errors
        + health.total_script_depth_errors;
    assert!(trips > 0, "the hostile web must trip the resource governor");
    assert_pinned(
        "hostile",
        pin_of(&survey, dataset, config),
        (0x73e4_fd9b_3bcb_ad21, 0x8572_961b_2a86_d41b),
    );
}
