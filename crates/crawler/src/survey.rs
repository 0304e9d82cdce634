//! The full survey: every site × every profile × every round, in parallel.
//!
//! Sites are independent virtual worlds, so the survey shards them across
//! worker threads (std scoped threads + an atomic work counter). Each
//! worker builds its own network, browser, and policies; per-site randomness
//! is derived from `(crawl seed, site, profile, round)` and fault sampling
//! from `(fault seed, site context, host, exchange index)`, so results are
//! identical regardless of thread count or scheduling.
//!
//! The survey never panics out from under the caller: each site crawl runs
//! under `catch_unwind`, a panicking site is recorded as
//! [`SiteOutcome::Panicked`] and the rest of the crawl proceeds. The
//! returned [`Dataset`] is therefore *partial by construction* — consult
//! [`Dataset::health`] for the loss breakdown.

use crate::breaker::HostBreaker;
use crate::config::{BrowserProfile, CrawlConfig};
use crate::dataset::{CacheTotals, Dataset, SiteMeasurement, SiteOutcome};
use crate::visit::{policy_for, visit_site_round_supervised, PolicyAdapter};
use bfu_browser::{Browser, CompileCache};
use bfu_monkey::{HumanProfile, Interactor};
use bfu_net::{FaultPlan, SimNet, Url};
use bfu_util::{hash_label, SimRng};
use bfu_webgen::{HostilePlan, SiteId, SyntheticWeb};
use bfu_webidl::StandardId;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The survey driver.
#[derive(Debug, Clone)]
pub struct Survey {
    web: SyntheticWeb,
    config: CrawlConfig,
    fault_overlay: Option<FaultPlan>,
    hostility: Option<HostilePlan>,
}

/// Outcome of [`Survey::external_validation`]: per-site standards the human
/// profile saw that the automated crawl missed, plus how far short the
/// weighted sample fell of the requested size.
#[derive(Debug, Clone, Default)]
pub struct ValidationRun {
    /// `(site, standards the human saw that automation missed)`.
    pub sites: Vec<(SiteId, usize)>,
    /// Sites requested.
    pub requested: usize,
    /// Requested minus delivered (dead sites, exhausted sampling, bad
    /// weights) — surfaced instead of silently under-sampling.
    pub shortfall: usize,
}

/// [`Survey::fingerprint`] computed from raw parts, without generating the
/// web. Lets configuration layers (e.g. `StudyConfig`) key a dataset store
/// before paying for web generation; must stay in lockstep with what
/// `Survey` would hash.
pub fn survey_fingerprint(
    web_seed: u64,
    sites: usize,
    config: &CrawlConfig,
    overlay: Option<&FaultPlan>,
) -> u64 {
    let mut f = bfu_util::Fnv64::new();
    f.write(b"bfu-survey-v1");
    f.write_u64(web_seed);
    f.write_u64(sites as u64);
    config.fingerprint_into(&mut f);
    match overlay {
        None => f.write_u64(0),
        Some(overlay) => {
            f.write_u64(1);
            f.write_u64(overlay.digest());
        }
    }
    f.finish()
}

impl Survey {
    /// A survey over `web` with `config`.
    pub fn new(web: SyntheticWeb, config: CrawlConfig) -> Self {
        Survey {
            web,
            config,
            fault_overlay: None,
            hostility: None,
        }
    }

    /// Overlay extra faults on top of the web's own plan (dead hosts from
    /// generation stay dead; the overlay adds programs, resets, latency).
    pub fn with_faults(mut self, overlay: FaultPlan) -> Self {
        self.fault_overlay = Some(overlay);
        self
    }

    /// Replace a seeded fraction of sites with adversarial pages (infinite
    /// loops, allocation bombs, timer storms — see [`HostilePlan`]). The
    /// hostile overlay is part of the survey's fingerprint.
    pub fn with_hostility(mut self, plan: HostilePlan) -> Self {
        self.hostility = Some(plan);
        self
    }

    /// The web under survey.
    pub fn web(&self) -> &SyntheticWeb {
        &self.web
    }

    /// The configuration.
    pub fn config(&self) -> &CrawlConfig {
        &self.config
    }

    /// Stable identity of everything that shapes this survey's
    /// measurements: the web's generation config, every crawl parameter
    /// except thread count, and the fault overlay. Two surveys with equal
    /// fingerprints produce byte-identical datasets, which is what lets the
    /// dataset store resume one survey's crawl from another run's shards.
    pub fn fingerprint(&self) -> u64 {
        let web_config = &self.web.core().config;
        let base = survey_fingerprint(
            web_config.seed,
            web_config.sites,
            &self.config,
            self.fault_overlay.as_ref(),
        );
        // Benign surveys stay in lockstep with `survey_fingerprint` (the
        // store keys datasets by it before generating the web); a hostile
        // overlay folds its digest on top.
        match &self.hostility {
            None => base,
            Some(plan) => {
                let mut f = bfu_util::Fnv64::new();
                f.write(b"bfu-survey-hostile-v1");
                f.write_u64(base);
                f.write_u64(plan.digest());
                f.finish()
            }
        }
    }

    /// The effective fault plan a worker's network runs under.
    fn effective_faults(&self, net: &SimNet) -> FaultPlan {
        let mut plan = net.faults().clone();
        if let Some(overlay) = &self.fault_overlay {
            plan = plan.merge(overlay.clone());
        }
        if plan.seed == 0 {
            plan.seed = self.config.seed;
        }
        plan
    }

    /// Build one worker's private world: network (with faults applied),
    /// browser, and one policy per profile. When the survey runs with a
    /// shared compilation cache, every worker's browser gets the same one.
    fn build_world(
        &self,
        cache: Option<&Arc<CompileCache>>,
    ) -> (SimNet, Browser, Vec<(BrowserProfile, PolicyAdapter)>) {
        let mut net = SimNet::new(SimRng::new(self.config.seed ^ 0x5EED));
        self.web.install_into(&mut net);
        if let Some(plan) = &self.hostility {
            plan.install_into(&self.web, &mut net);
        }
        net.set_faults(self.effective_faults(&net));
        let registry = Rc::new((**self.web.registry()).clone());
        let mut browser = Browser::with_config(registry, self.config.browser.clone());
        if let Some(cache) = cache {
            browser.set_compile_cache(Arc::clone(cache));
        }
        let policies: Vec<(BrowserProfile, PolicyAdapter)> = self
            .config
            .profiles
            .iter()
            .map(|&p| (p, policy_for(&self.web, p)))
            .collect();
        (net, browser, policies)
    }

    /// Run the whole crawl, returning the (possibly partial) dataset.
    pub fn run(&self) -> Dataset {
        self.run_partial(Vec::new(), &|_| {})
    }

    /// Build a reusable single-site crawler over one private world — the
    /// survey-fabric worker's crawl engine. The world (network, browser,
    /// policies, optional compile cache) is built once and reused across
    /// every [`SiteCrawler::crawl`] call, exactly as [`Survey::run_partial`]
    /// reuses a worker thread's world; per-site measurements depend only on
    /// `(survey fingerprint, site)`, so the results are identical to a full
    /// run's. The crawler is not `Send` (the browser holds `Rc` internals):
    /// build one per worker.
    pub fn site_crawler(&self) -> SiteCrawler<'_> {
        let cache = self
            .config
            .compile_cache
            .then(|| Arc::new(CompileCache::new()));
        let (net, browser, policies) = self.build_world(cache.as_ref());
        SiteCrawler {
            survey: self,
            net,
            browser,
            policies,
        }
    }

    /// Run the crawl, skipping sites already measured and streaming each
    /// fresh measurement to `observer` as it completes.
    ///
    /// `prefilled[ix] = Some(m)` means site `ix` was already measured (e.g.
    /// recovered from a dataset store's shards) and must not be recrawled;
    /// its measurement is carried into the returned [`Dataset`] verbatim.
    /// A `prefilled` shorter than the site count is treated as `None`-padded.
    /// `observer` is invoked from worker threads, once per *newly crawled*
    /// site, in completion order — this is the dataset store's shard-writer
    /// hook. Because per-site measurements depend only on
    /// `(survey fingerprint, site)`, a resumed run and an uninterrupted run
    /// fingerprint identically.
    pub fn run_partial(
        &self,
        mut prefilled: Vec<Option<SiteMeasurement>>,
        observer: &(dyn Fn(&SiteMeasurement) + Sync),
    ) -> Dataset {
        let n_sites = self.web.site_count();
        prefilled.truncate(n_sites);
        prefilled.resize_with(n_sites, || None);
        let done: Vec<bool> = prefilled.iter().map(Option::is_some).collect();
        let results: Mutex<Vec<Option<SiteMeasurement>>> = Mutex::new(prefilled);
        let next = AtomicUsize::new(0);
        let threads = self.config.threads.max(1).min(n_sites.max(1));
        // One compilation cache for the whole survey: every worker's browser
        // shares it, so a third-party script parsed on one thread is a hit
        // everywhere else. Purely memoization — the dataset fingerprint is
        // identical with the cache on or off (the determinism suite asserts
        // this), which is why `compile_cache` stays out of the config
        // fingerprint.
        let cache = self
            .config
            .compile_cache
            .then(|| Arc::new(CompileCache::new()));

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut world = None;
                    loop {
                        let ix = next.fetch_add(1, Ordering::Relaxed);
                        if ix >= n_sites {
                            break;
                        }
                        if done[ix] {
                            continue;
                        }
                        // Worlds are expensive; build one only if this
                        // worker actually has sites left to crawl.
                        let (net, browser, policies) =
                            world.get_or_insert_with(|| self.build_world(cache.as_ref()));
                        // A panicking site must not take the worker (or the
                        // survey) down with it; it becomes a Panicked entry.
                        let m = catch_unwind(AssertUnwindSafe(|| {
                            self.crawl_site(ix, browser, net, policies)
                        }))
                        .unwrap_or_else(|_| self.panicked_site(ix));
                        observer(&m);
                        let mut slots = results.lock().unwrap_or_else(|poison| poison.into_inner());
                        slots[ix] = Some(m);
                    }
                });
            }
        });

        let slots = results
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        let cache_totals = match &cache {
            Some(cache) => {
                let scripts = cache.script_stats();
                // `script_*` sum both engines' probe counters, so they count
                // the configured engine's probes, whichever it is.
                CacheTotals {
                    enabled: true,
                    script_hits: scripts.hits + scripts.chunk_hits,
                    script_misses: scripts.misses + scripts.chunk_misses,
                    script_negative_hits: scripts.negative_hits + scripts.chunk_negative_hits,
                    unique_scripts: scripts.unique_sources,
                    unique_frames: cache.unique_frames() as u64,
                    chunk_hits: scripts.chunk_hits,
                    chunk_misses: scripts.chunk_misses,
                    chunk_negative_hits: scripts.chunk_negative_hits,
                    unique_chunks: scripts.unique_chunks,
                }
            }
            None => CacheTotals::default(),
        };
        Dataset {
            profiles: self.config.profiles.clone(),
            rounds_per_profile: self.config.rounds_per_profile,
            sites: slots
                .into_iter()
                .enumerate()
                .map(|(ix, m)| m.unwrap_or_else(|| self.panicked_site(ix)))
                .collect(),
            cache: cache_totals,
        }
    }

    /// The record for a site whose crawl panicked (or was never filled in):
    /// nothing measured, outcome marked so `health()` can count it.
    fn panicked_site(&self, site_ix: usize) -> SiteMeasurement {
        let site = SiteId::from_usize(site_ix);
        let plan = self.web.plan(site);
        SiteMeasurement {
            site,
            domain: plan.site.domain.clone(),
            traffic_weight: plan.site.traffic_weight,
            outcome: SiteOutcome::Panicked,
            rounds: Vec::new(),
        }
    }

    fn crawl_site(
        &self,
        site_ix: usize,
        browser: &Browser,
        net: &mut SimNet,
        policies: &[(BrowserProfile, PolicyAdapter)],
    ) -> SiteMeasurement {
        let site = SiteId::from_usize(site_ix);
        let plan = self.web.plan(site);
        let base_rng = SimRng::new(self.config.seed).fork_idx(site_ix as u64);
        let mut rounds = Vec::new();
        // One breaker per site crawl, threaded through every profile and
        // round in config order: the skip/probe pattern depends only on the
        // deterministic round sequence, never on thread scheduling.
        let mut breaker = HostBreaker::new(self.config.breaker);
        for (profile, policy) in policies {
            let mut per_round = Vec::new();
            for round in 0..self.config.rounds_per_profile {
                let mut rng = base_rng.fork(profile.label()).fork_idx(u64::from(round));
                per_round.push(visit_site_round_supervised(
                    browser,
                    net,
                    policy,
                    *profile,
                    &plan.site.domain,
                    &self.config,
                    round,
                    &mut rng,
                    &mut breaker,
                ));
            }
            rounds.push((*profile, per_round));
        }
        let outcome = SiteOutcome::from_rounds(&rounds);
        SiteMeasurement {
            site,
            domain: plan.site.domain.clone(),
            traffic_weight: plan.site.traffic_weight,
            outcome,
            rounds,
        }
    }

    /// §6.2 external validation: visit `n` traffic-weighted sites with the
    /// human profile (3 pages × 30 s each) and report, per site, how many
    /// standards the human saw that the automated dataset missed. A sample
    /// that comes up short (dead sites, degenerate weights) reports its
    /// shortfall rather than silently shrinking.
    pub fn external_validation(&self, dataset: &Dataset, n: usize) -> ValidationRun {
        let mut rng = SimRng::new(self.config.seed).fork("external-validation");
        let registry_arc = self.web.registry().clone();
        let registry = Rc::new((*registry_arc).clone());
        let browser = Browser::with_config(registry.clone(), self.config.browser.clone());
        let mut net = SimNet::new(SimRng::new(self.config.seed ^ 0x5EED));
        self.web.install_into(&mut net);
        if let Some(plan) = &self.hostility {
            plan.install_into(&self.web, &mut net);
        }
        net.set_faults(self.effective_faults(&net));
        let policy = policy_for(&self.web, BrowserProfile::Default);

        // Traffic-weighted sample without replacement.
        let weights: Vec<f64> = self
            .web
            .core()
            .plans
            .iter()
            .map(|p| p.site.traffic_weight)
            .collect();
        let Some(dist) = bfu_util::WeightedIndex::new(&weights) else {
            return ValidationRun {
                sites: Vec::new(),
                requested: n,
                shortfall: n,
            };
        };
        let want = n.min(self.web.site_count());
        let mut chosen: Vec<usize> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        let mut guard = 0;
        while chosen.len() < want && guard < n.saturating_mul(50) {
            let pick = dist.sample(&mut rng);
            if seen.insert(pick) && !self.web.plan(SiteId::from_usize(pick)).dead {
                chosen.push(pick);
            }
            guard += 1;
        }

        let mut sites = Vec::new();
        for site_ix in chosen {
            let site = SiteId::from_usize(site_ix);
            let domain = &self.web.plan(site).site.domain;
            let Ok(mut url) = Url::parse(&format!("http://{domain}/")) else {
                continue;
            };
            net.set_fault_context(
                hash_label(domain).rotate_left(7) ^ hash_label("external-validation"),
            );
            let mut human_standards: HashSet<StandardId> = HashSet::new();
            let mut human = HumanProfile::new(rng.fork_idx(site_ix as u64));
            let mut clock = bfu_util::VirtualClock::new();
            // Home plus up to two prominently-linked pages, 30 s each.
            for _ in 0..3 {
                let Ok(mut page) = browser.load(&mut net, &url, &policy, &mut clock) else {
                    break;
                };
                let report = human.interact(&mut page, &mut net, &policy, &mut clock, 30_000);
                human_standards.extend(
                    page.log
                        .borrow()
                        .features()
                        .into_iter()
                        .map(|f| registry.standard_of(f)),
                );
                match report.navigations.first() {
                    Some(next) if next.registrable_domain() == url.registrable_domain() => {
                        url = next.clone();
                    }
                    _ => break,
                }
            }
            let automated =
                dataset.sites[site_ix].standards_used(BrowserProfile::Default, &registry);
            let new = human_standards.difference(&automated).count();
            sites.push((site, new));
        }
        let shortfall = n.saturating_sub(sites.len());
        ValidationRun {
            sites,
            requested: n,
            shortfall,
        }
    }
}

/// A reusable single-site crawler over one worker-private world, built by
/// [`Survey::site_crawler`]. Panics are contained exactly as in the full
/// survey: a panicking site comes back as a [`SiteOutcome::Panicked`]
/// measurement, never an unwind into the caller.
pub struct SiteCrawler<'s> {
    survey: &'s Survey,
    net: SimNet,
    browser: Browser,
    policies: Vec<(BrowserProfile, PolicyAdapter)>,
}

impl SiteCrawler<'_> {
    /// Measure site `site_ix` (which must be within the survey's site
    /// count). Deterministic in `(survey fingerprint, site_ix)` — call order
    /// and prior crawls through this world do not affect the result.
    pub fn crawl(&mut self, site_ix: usize) -> SiteMeasurement {
        let SiteCrawler {
            survey,
            net,
            browser,
            policies,
        } = self;
        catch_unwind(AssertUnwindSafe(|| {
            survey.crawl_site(site_ix, browser, net, policies)
        }))
        .unwrap_or_else(|_| survey.panicked_site(site_ix))
    }
}
