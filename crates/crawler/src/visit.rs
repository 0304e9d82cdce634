//! One site-round: the paper's 13-page, 390-second measurement procedure.
//!
//! Visit the home page, monkey-test it for 30 virtual seconds, intercept the
//! navigations, BFS to 3 structurally novel same-site pages, repeat — up to
//! 13 pages per round — merging every page's feature log.

use crate::breaker::{Admission, HostBreaker};
use crate::config::{BrowserProfile, CrawlConfig};
use crate::dataset::RoundMeasurement;
use crate::error::CrawlError;
use crate::retry::load_with_retry;
use bfu_blocker::{BlockDecision, BlockerStack, FilterEngine, TrackerCategory, TrackerDb};
use bfu_browser::{Browser, FeatureLog, LoadStats, RequestPolicy};
use bfu_monkey::{CrawlPlanner, GremlinHorde, Interactor};
use bfu_net::{HttpRequest, SimNet, Url};
use bfu_util::{hash_label, SimRng, VirtualClock};
use bfu_webgen::{PartyKind, SyntheticWeb};

/// Adapter: a [`BlockerStack`] as the browser's [`RequestPolicy`].
///
/// Lives here (not in `bfu-blocker`) so the blocker crate stays independent
/// of the browser engine.
#[derive(Debug, Clone, Default)]
pub struct PolicyAdapter(pub BlockerStack);

impl RequestPolicy for PolicyAdapter {
    fn decide(&self, req: &HttpRequest) -> Option<String> {
        match self.0.decide(req) {
            BlockDecision::Allow => None,
            BlockDecision::BlockedByAdblock(rule) => Some(format!("abp:{rule}")),
            BlockDecision::BlockedByTracker(cat) => Some(format!("ghostery:{cat}")),
        }
    }

    fn hiding_selectors(&self, domain: &str) -> Vec<String> {
        self.0.hiding_selectors(domain)
    }
}

/// Build the request policy for a browser profile from the synthetic web's
/// generated blocklists.
pub fn policy_for(web: &SyntheticWeb, profile: BrowserProfile) -> PolicyAdapter {
    let abp = || std::sync::Arc::new(FilterEngine::from_list(&web.lists().easylist));
    let ghostery = || {
        let mut db = TrackerDb::new();
        for (domain, kind) in &web.lists().tracker_entries {
            let cat = match kind {
                PartyKind::Tracker => TrackerCategory::Tracking,
                PartyKind::Analytics => TrackerCategory::Analytics,
                PartyKind::AdNetwork => TrackerCategory::AdTracking,
                PartyKind::Cdn => TrackerCategory::Exempt,
            };
            db.add(domain, cat);
        }
        std::sync::Arc::new(db)
    };
    let stack = match profile {
        BrowserProfile::Default => BlockerStack::none(),
        BrowserProfile::Blocking => BlockerStack::none()
            .with_adblock(abp())
            .with_ghostery(ghostery()),
        BrowserProfile::AdblockOnly => BlockerStack::none().with_adblock(abp()),
        BrowserProfile::GhosteryOnly => BlockerStack::none().with_ghostery(ghostery()),
    };
    PolicyAdapter(stack)
}

/// Crawl one site for one round under one profile.
///
/// Never fails hard: a lost site produces a round carrying its classified
/// [`CrawlError`], mirroring how the paper lost 267 domains — except here
/// the loss itself is a measurement. Supervision per round:
///
/// - the fault context is derived from `(domain, profile, round)`, so the
///   simulated network faults identically however sites are sharded across
///   threads;
/// - every page load goes through the retry policy, paying backoff from the
///   same virtual clock that pays for interaction;
/// - a watchdog bounds the round at twice its nominal interaction budget,
///   so stalls can't hang a worker — the round keeps whatever it measured.
#[allow(clippy::too_many_arguments)]
pub fn visit_site_round(
    browser: &Browser,
    net: &mut SimNet,
    policy: &PolicyAdapter,
    profile: BrowserProfile,
    domain: &str,
    config: &CrawlConfig,
    round: u32,
    rng: &mut SimRng,
) -> RoundMeasurement {
    let mut breaker = HostBreaker::new(config.breaker);
    visit_site_round_supervised(
        browser,
        net,
        policy,
        profile,
        domain,
        config,
        round,
        rng,
        &mut breaker,
    )
}

/// The time slot one round forfeits when its host's breaker skips it: the
/// round watchdog allowance (nominal interaction budget with 2x headroom).
fn round_slot_ms(config: &CrawlConfig) -> u64 {
    config
        .page_budget_ms
        .saturating_mul(config.pages_per_site as u64)
        .saturating_mul(2)
        .max(config.page_budget_ms)
}

/// [`visit_site_round`] under an externally owned circuit breaker.
///
/// The survey creates one [`HostBreaker`] per site crawl and threads it
/// through every profile and round in order, so consecutive trap-class
/// rounds open the breaker and subsequent rounds are skipped as
/// [`CrawlError::CircuitOpen`] losses until the cool-down — paid from the
/// rounds' own virtual time slots — expires and a half-open probe runs.
#[allow(clippy::too_many_arguments)]
pub fn visit_site_round_supervised(
    browser: &Browser,
    net: &mut SimNet,
    policy: &PolicyAdapter,
    profile: BrowserProfile,
    domain: &str,
    config: &CrawlConfig,
    round: u32,
    rng: &mut SimRng,
    breaker: &mut HostBreaker,
) -> RoundMeasurement {
    let wait_ms = match breaker.admit(round_slot_ms(config)) {
        Admission::Skip => {
            return RoundMeasurement::failed_with(round, CrawlError::CircuitOpen);
        }
        Admission::Proceed { wait_ms, .. } => wait_ms,
    };
    let mut clock = VirtualClock::new();
    let start = clock.now();
    // A half-open probe pays the residual cool-down before touching the
    // host; the wait is part of the round's measured interaction time.
    clock.advance(wait_ms);
    let mut merged = FeatureLog::new();
    let mut planner = CrawlPlanner::new(domain);
    let mut pages_visited = 0u32;
    let mut measurement = RoundMeasurement::empty(round);

    net.set_fault_context(
        hash_label(domain) ^ hash_label(profile.label()).rotate_left(17) ^ u64::from(round),
    );

    let Ok(home) = Url::parse(&format!("http://{domain}/")) else {
        return RoundMeasurement::failed_with(round, CrawlError::DeadHost);
    };

    // Watchdog: the round's nominal budget with 2x headroom for page loads,
    // retries, and stalls. Expiry keeps whatever was already measured. Based
    // at the post-wait clock so a half-open probe gets a full window.
    let watchdog = clock.now().plus(round_slot_ms(config));

    // Breadth-first frontier, starting at the home page.
    let mut frontier = vec![home];
    let mut error: Option<CrawlError> = None;
    while let Some(url) = frontier.pop() {
        if pages_visited as usize >= config.pages_per_site {
            break;
        }
        if clock.now() > watchdog {
            if pages_visited == 0 && error.is_none() {
                error = Some(CrawlError::WatchdogExpired);
            }
            break;
        }
        planner.mark_visited(&url);
        let (page, trace) = load_with_retry(
            browser,
            net,
            &url,
            policy,
            &mut clock,
            watchdog,
            &config.retry,
        );
        measurement.attempts += trace.attempts;
        measurement.retries += trace.retries;
        measurement.backoff_ms += trace.backoff_ms;
        let Some(mut page) = page else {
            if pages_visited == 0 {
                error = trace.error; // the home page itself was lost
            }
            continue;
        };
        if pages_visited == 0 {
            if let Some(fatal) = fatal_script_class(&page.stats) {
                // The home page "loaded" but its scripts are unusable — the
                // paper dropped these sites alongside the unreachable ones.
                harvest_budget_stats(&mut measurement, &page.stats);
                error = Some(fatal);
                break;
            }
        }
        pages_visited += 1;

        let mut horde = GremlinHorde::new(rng.fork_idx(u64::from(pages_visited)));
        let report = horde.interact(&mut page, net, policy, &mut clock, config.page_budget_ms);

        merged.merge(&page.log.borrow());
        // Interaction can trip callback budgets too, so harvest after it.
        harvest_budget_stats(&mut measurement, &page.stats);

        // Candidates: intercepted navigations plus static links.
        let mut candidates = report.navigations;
        candidates.extend(page.links());
        let next = planner.select(&candidates, config.fanout, rng);
        // Depth-first order of a bounded frontier equals BFS here because
        // every level fans out the same amount; keep insertion order stable.
        for n in next {
            frontier.insert(0, n);
        }
    }

    measurement.log = merged;
    measurement.pages_visited = pages_visited;
    measurement.interaction_ms = clock.now().since(start);
    measurement.error = error;
    breaker.observe(measurement.error);
    measurement
}

/// Fold one page's budget-trip counters into the round's measurement.
fn harvest_budget_stats(m: &mut RoundMeasurement, stats: &LoadStats) {
    m.script_budget_errors += stats.script_budget_errors + stats.script_oversize_errors;
    m.script_heap_errors += stats.script_heap_errors;
    m.script_depth_errors += stats.script_depth_errors;
}

/// A script failure class that makes the whole page unusable: every script
/// on it failed the same fatal way.
fn fatal_script_class(stats: &LoadStats) -> Option<CrawlError> {
    if stats.scripts_run == 0 {
        return None;
    }
    if stats.script_parse_errors == stats.scripts_run {
        return Some(CrawlError::ScriptSyntax);
    }
    if stats.budget_trips() == stats.scripts_run {
        return Some(CrawlError::ScriptBudget);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfu_webgen::{SiteId, WebConfig};
    use bfu_webidl::FeatureRegistry;
    use std::rc::Rc;

    fn rig() -> (SyntheticWeb, Browser, SimNet) {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 30,
            seed: 5,
            script_weight: 0,
        });
        let mut net = SimNet::new(SimRng::new(2));
        web.install_into(&mut net);
        let registry = Rc::new((**web.registry()).clone());
        (web, Browser::new(registry), net)
    }

    fn live_site(web: &SyntheticWeb) -> SiteId {
        (0..web.site_count())
            .map(SiteId::from_usize)
            .find(|&s| !web.plan(s).dead && !web.plan(s).no_js)
            .expect("live site exists")
    }

    #[test]
    fn default_round_measures_features() {
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let domain = web.plan(site).site.domain.clone();
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(10);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        assert!(!m.failed());
        assert_eq!(m.pages_visited as usize, config.pages_per_site);
        assert!(m.log.distinct_features() > 0, "features observed");
        assert!(m.interaction_ms >= config.page_budget_ms * m.pages_visited as u64);
    }

    #[test]
    fn blocking_round_sees_fewer_or_equal_features() {
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let domain = web.plan(site).site.domain.clone();
        let config = CrawlConfig::quick(1);
        let mut rng_a = SimRng::new(10);
        let mut rng_b = SimRng::new(10);
        let default = visit_site_round(
            &browser,
            &mut net,
            &policy_for(&web, BrowserProfile::Default),
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng_a,
        );
        let blocking = visit_site_round(
            &browser,
            &mut net,
            &policy_for(&web, BrowserProfile::Blocking),
            BrowserProfile::Blocking,
            &domain,
            &config,
            0,
            &mut rng_b,
        );
        assert!(
            blocking.log.distinct_features() <= default.log.distinct_features(),
            "blocking: {} vs default: {}",
            blocking.log.distinct_features(),
            default.log.distinct_features()
        );
    }

    #[test]
    fn dead_site_round_is_failed() {
        let (web, browser, mut net) = rig();
        let dead = (0..web.site_count())
            .map(SiteId::from_usize)
            .find(|&s| web.plan(s).dead);
        let Some(dead) = dead else { return }; // none in this tiny web
        let domain = web.plan(dead).site.domain.clone();
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(3);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        assert!(m.failed());
        assert_eq!(m.error, Some(CrawlError::DeadHost));
        assert_eq!(m.pages_visited, 0);
        assert_eq!(m.retries, 0, "dead hosts are permanent, never retried");
    }

    #[test]
    fn rounds_are_seed_deterministic() {
        let run = || {
            let (web, browser, mut net) = rig();
            let site = live_site(&web);
            let domain = web.plan(site).site.domain.clone();
            let config = CrawlConfig::quick(1);
            let policy = policy_for(&web, BrowserProfile::Default);
            let mut rng = SimRng::new(42);
            let m = visit_site_round(
                &browser,
                &mut net,
                &policy,
                BrowserProfile::Default,
                &domain,
                &config,
                0,
                &mut rng,
            );
            (m.log.total_invocations(), m.pages_visited, m.interaction_ms)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flaky_host_recovers_via_retry() {
        use bfu_net::{FaultKind, HostFault};
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let domain = web.plan(site).site.domain.clone();
        let faults = net
            .faults()
            .clone()
            .with_program(&domain, HostFault::flaky(FaultKind::Reset, 2));
        net.set_faults(faults);
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(10);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        assert!(
            !m.failed(),
            "retry must beat a twice-flaky host: {:?}",
            m.error
        );
        assert_eq!(m.retries, 2);
        assert_eq!(m.backoff_ms, 250 + 500, "exponential backoff paid in full");
        assert_eq!(m.pages_visited as usize, config.pages_per_site);
    }

    #[test]
    fn flaky_host_without_retries_is_lost() {
        use crate::retry::RetryPolicy;
        use bfu_net::{FaultKind, HostFault};
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let domain = web.plan(site).site.domain.clone();
        let faults = net
            .faults()
            .clone()
            .with_program(&domain, HostFault::flaky(FaultKind::Reset, 2));
        net.set_faults(faults);
        let mut config = CrawlConfig::quick(1);
        config.retry = RetryPolicy::none();
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(10);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        assert_eq!(m.error, Some(CrawlError::ConnectionReset));
        assert_eq!(m.retries, 0);
    }

    #[test]
    fn stalls_consume_budget_and_classify() {
        use crate::retry::RetryPolicy;
        use bfu_net::{FaultKind, HostFault};
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let domain = web.plan(site).site.domain.clone();
        let faults = net.faults().clone().with_program(
            &domain,
            HostFault::flaky(FaultKind::Stall, 99).with_stall_ms(5_000),
        );
        net.set_faults(faults);
        let mut config = CrawlConfig::quick(1);
        config.retry = RetryPolicy::none();
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(10);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        assert_eq!(m.error, Some(CrawlError::Stall));
        assert!(m.interaction_ms >= 5_000, "the stall burned virtual time");
        assert_eq!(m.pages_visited, 0);
    }

    #[test]
    fn all_scripts_unparseable_classifies_as_script_syntax() {
        use bfu_net::HttpResponse;
        let (web, browser, _) = rig();
        let mut net = SimNet::new(SimRng::new(1));
        net.register(
            "broken.test",
            std::sync::Arc::new(|_: &HttpRequest| {
                HttpResponse::html(
                    "<html><head><script>)]]] this is not javascript</script></head>\
                     <body><p>hi</p></body></html>",
                )
            }),
        );
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(4);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            "broken.test",
            &config,
            0,
            &mut rng,
        );
        assert_eq!(m.error, Some(CrawlError::ScriptSyntax));
        assert_eq!(m.pages_visited, 0, "syntax-error sites are dropped whole");
    }

    #[test]
    fn runaway_scripts_classify_as_script_budget() {
        use bfu_net::HttpResponse;
        let (web, browser, _) = rig();
        let mut net = SimNet::new(SimRng::new(1));
        net.register(
            "spin.test",
            std::sync::Arc::new(|_: &HttpRequest| {
                HttpResponse::html(
                    "<html><head><script>while (true) { var x = 1; }</script></head>\
                     <body></body></html>",
                )
            }),
        );
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(4);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            "spin.test",
            &config,
            0,
            &mut rng,
        );
        assert_eq!(m.error, Some(CrawlError::ScriptBudget));
    }

    #[test]
    fn registry_features_match_planned_standards_roughly() {
        // Features the crawl observes must be a subset of the site's planned
        // features plus the documented createElement-style scaffolding.
        let (web, browser, mut net) = rig();
        let site = live_site(&web);
        let plan = web.plan(site);
        let domain = plan.site.domain.clone();
        let config = CrawlConfig::quick(1);
        let policy = policy_for(&web, BrowserProfile::Default);
        let mut rng = SimRng::new(7);
        let m = visit_site_round(
            &browser,
            &mut net,
            &policy,
            BrowserProfile::Default,
            &domain,
            &config,
            0,
            &mut rng,
        );
        let registry = FeatureRegistry::build();
        let planned: std::collections::HashSet<_> =
            plan.placements.iter().map(|p| p.feature).collect();
        let scaffolding = ["createElement", "appendChild"];
        for f in m.log.features() {
            let info = registry.feature(f);
            assert!(
                planned.contains(&f) || scaffolding.contains(&info.member.as_str()),
                "unplanned feature observed: {}",
                info.name
            );
        }
    }
}
