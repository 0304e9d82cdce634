//! Golden fingerprints: behaviour pinned across history, not only within
//! one build.
//!
//! Every other equivalence suite compares two runs of the same build, so a
//! change that shifts both sides together passes them. These tests pin the
//! dataset fingerprint and a digest of the rendered Table 2 at four small
//! points — the benchmark's `paper-light` crawl shape, a script-heavy web
//! (inert library bundles at weight 400), a hostile web under tight
//! budgets, and a web whose network resets, stalls, truncates and garbles
//! exchanges — to values recorded from an earlier commit. A fifth pin hashes
//! the parser's output on every script a small web serves, including the
//! bundle code a crawl never runs and so no fingerprint sees. A change that
//! moves a measurement must update the pins here, in its own diff, and say
//! why.

use bfu_analysis::report::render_table2;
use bfu_core::{Study, StudyConfig};
use bfu_crawler::{BrowserConfig, BrowserProfile, CrawlError, Dataset, Survey};
use bfu_net::{FaultKind, FaultPlan, HostFault};
use bfu_script::parser;
use bfu_util::{fnv64, Fnv64};
use bfu_webgen::script_gen::generate_script;
use bfu_webgen::site::Party;
use bfu_webgen::{HostileClass, HostilePlan, SiteId, SyntheticWeb, WebConfig};

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

#[test]
fn network_faults_are_pinned() {
    let config = paper_shape(16, 4);
    let web = web(&config, 0);
    let hosts: Vec<String> = (0..web.site_count())
        .map(SiteId::from_usize)
        .filter(|&s| !web.plan(s).dead)
        .map(|s| web.plan(s).site.domain.clone())
        .take(6)
        .collect();
    let mut faults = FaultPlan::none()
        .with_seed(41)
        .with_reset_chance(0.01)
        .with_extra_rtt(15);
    let programs = [
        HostFault::flaky(FaultKind::Reset, 2),
        HostFault::flaky(FaultKind::Truncate, 1),
        HostFault::random(FaultKind::Truncate, 1.0),
        HostFault::random(FaultKind::Stall, 1.0).with_stall_ms(3_000),
        HostFault::flaky(FaultKind::ErrorStatus(503), 1),
        HostFault::random(FaultKind::CorruptBody, 0.5),
    ];
    for (host, program) in hosts.iter().zip(programs) {
        faults.set_program(host, program);
    }
    let survey = Survey::new(web, config.crawl_config()).with_faults(faults);
    let dataset = survey.run();
    let health = dataset.health();
    for class in [
        CrawlError::Stall,
        CrawlError::Truncated,
        CrawlError::HttpError(503),
    ] {
        assert!(
            health.failures_by_class[class.class_ix()] > 0,
            "the overlay must cost a site to {class}"
        );
    }
    assert!(health.total_retries > 0, "the overlay must force retries");
    assert_pinned(
        "network-faults",
        pin_of(&survey, dataset, config),
        (0x1c4c_9e8f_8601_1f10, 0xd8c7_b9be_0523_a888),
    );
}

/// Every script the first three pages of each site serve, as the site and
/// party servers generate them, in plan order.
fn served_scripts(sites: usize, seed: u64, script_weight: u32) -> Vec<String> {
    let web = SyntheticWeb::generate(WebConfig {
        sites,
        seed,
        script_weight,
    });
    let core = web.core();
    let mut out = Vec::new();
    for plan in &core.plans {
        for page in 0..plan.pages.len().min(3) {
            let script = |party, host| {
                generate_script(plan, page, party, host, &core.registry, script_weight)
            };
            out.push(script(Party::First, None));
            for party in plan.embedded_parties() {
                let host = &core.ecosystem.party(party).host;
                out.push(script(Party::Third(party), Some(host)));
            }
        }
    }
    out
}

#[test]
fn script_front_end_is_pinned() {
    let mut sources = served_scripts(20, 1, 0);
    sources.extend(served_scripts(4, 2, 400));
    sources.extend(HostileClass::ALL.iter().map(|class| class.script()));
    // The depth guard's edges: the first of each pair is the deepest
    // source that parses, the second the shallowest that fails.
    for depth in [62, 63] {
        let (open, close) = ("(".repeat(depth), ")".repeat(depth));
        sources.push(format!("var x = {open}1{close};"));
        let (open, close) = ("[".repeat(depth), "]".repeat(depth));
        sources.push(format!("var a = {open}1{close};"));
    }
    for depth in [125, 126] {
        sources.push(format!("var n = {}1;", "!".repeat(depth)));
    }
    for depth in [128, 129] {
        sources.push(format!("{}{}", "{".repeat(depth), "}".repeat(depth)));
    }
    let mut digest = Fnv64::new();
    let mut errors = 0;
    for src in &sources {
        let parsed = parser::parse(src);
        errors += usize::from(parsed.is_err());
        digest.write_str(&format!("{parsed:?}"));
    }
    let got = (sources.len(), errors, digest.finish());
    assert_eq!(
        got,
        (433, 6, 0x98af_68fc_66be_e623),
        "script front end: (sources, parse errors, digest) = ({}, {}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}
