//! Blocking comparison: crawl the same site under all four browser
//! configurations and show what the blockers change (§5.7 at one-site
//! granularity).
//!
//! ```text
//! cargo run --release --example blocking_comparison
//! ```

use bfu_browser::Browser;
use bfu_crawler::{policy_for, visit_site_round, BrowserProfile, CrawlConfig};
use bfu_net::SimNet;
use bfu_util::SimRng;
use bfu_webgen::{SiteId, SyntheticWeb, WebConfig};
use std::collections::HashSet;
use std::rc::Rc;

fn main() {
    let web = SyntheticWeb::generate(WebConfig {
        sites: 60,
        seed: 44,
        script_weight: 0,
    });
    let mut net = SimNet::new(SimRng::new(1));
    web.install_into(&mut net);
    let registry = Rc::new((**web.registry()).clone());
    let browser = Browser::new(registry.clone());
    let config = CrawlConfig {
        rounds_per_profile: 1,
        pages_per_site: 8,
        fanout: 3,
        page_budget_ms: 15_000,
        profiles: vec![],
        threads: 1,
        seed: 9,
        retry: bfu_crawler::RetryPolicy::default(),
        breaker: bfu_crawler::BreakerPolicy::default(),
        browser: bfu_crawler::BrowserConfig::default(),
        compile_cache: true,
    };

    // Pick an ad-heavy site (a news site with third parties).
    let site = (0..web.site_count())
        .map(SiteId::from_usize)
        .find(|&s| {
            let p = web.plan(s);
            !p.dead && !p.no_js && p.ad_parties.len() >= 2 && p.tracker_parties.len() >= 2
        })
        .expect("an ad-heavy site exists");
    let plan = web.plan(site);
    println!(
        "Site under test: {} ({:?}, {} ad networks, {} trackers embedded)\n",
        plan.site.domain,
        plan.site.category,
        plan.ad_parties.len(),
        plan.tracker_parties.len()
    );

    let profiles = [
        BrowserProfile::Default,
        BrowserProfile::AdblockOnly,
        BrowserProfile::GhosteryOnly,
        BrowserProfile::Blocking,
    ];
    let mut default_standards: HashSet<&str> = HashSet::new();
    for profile in profiles {
        let policy = policy_for(&web, profile);
        let mut rng = SimRng::new(777);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            profile,
            &plan.site.domain,
            &config,
            0,
            &mut rng,
        );
        let standards: HashSet<&str> = m
            .log
            .features()
            .iter()
            .map(|&f| registry.standard(registry.standard_of(f)).abbrev)
            .collect();
        println!(
            "{:13}  {:3} distinct features, {:2} standards, {:7} invocations",
            profile.label(),
            m.log.distinct_features(),
            standards.len(),
            m.log.total_invocations()
        );
        if profile == BrowserProfile::Default {
            default_standards = standards;
        } else {
            let mut gone: Vec<&&str> = default_standards.difference(&standards).collect();
            gone.sort();
            if !gone.is_empty() {
                println!(
                    "               standards silenced vs default: {}",
                    gone.iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }

    println!(
        "\nThe combined profile should silence at least as much as either blocker\n\
         alone — the paper's §5.7 story: blockers change *which kinds* of\n\
         features run, not just how many."
    );
}
