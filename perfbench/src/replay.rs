//! The traced replay of a survey crawl.
//!
//! `Survey::run_partial` runs the whole per-page pipeline inside
//! `Browser::load` and `SiteCrawler::crawl`, which expose no hooks. To time
//! each layer from outside, this module drives the same pipeline through the
//! layers' public functions, in the same order and with the same seeds, and
//! opens a span around each call: `SimNet::fetch`, `html::parse`, the three
//! realm-boot calls, `parser::parse`, `compile`, `run_chunk`,
//! `Interactor::interact`, the retrying load and the per-site crawl. It
//! mirrors the shipped configuration only (bytecode VM, shared compile
//! cache). The traced run checks that the replay measured exactly what the
//! untraced crawl measured, so the spans describe the same work.

use crate::layers::{PolicyStats, TimedPolicy};
use crate::trace::{self, enter};
use bfu_core::browser::cache::FrameScript;
use bfu_core::browser::{
    api, ApiSurface, BrowserConfig, CompileCache, Engine, FeatureLog, HostEnv, Instrumentation,
    LoadError, LoadStats, Page, PropIndex, RequestPolicy,
};
use bfu_core::crawler::{
    policy_for, Admission, AttemptTrace, BrowserProfile, CacheTotals, CrawlConfig, CrawlError,
    Dataset, HostBreaker, RetryPolicy, RoundMeasurement, SiteMeasurement, SiteOutcome, Survey,
};
use bfu_core::dom::html;
use bfu_core::monkey::{CrawlPlanner, GremlinHorde, Interactor};
use bfu_core::net::{HttpRequest, HttpResponse, NetError, ResourceType, SimNet, Url};
use bfu_core::script::ast::Program;
use bfu_core::script::interp::Interpreter;
use bfu_core::script::{
    compile, parser, run_chunk, CacheOutcome, Chunk, RuntimeError, ScriptCache,
};
use bfu_core::util::{hash_label, Instant, SimRng, VirtualClock};
use bfu_core::webgen::SiteId;
use bfu_core::webidl::FeatureRegistry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A memoized compile: the shipped cache's chunk family, with the parse and
/// the compile as separate calls so each gets its own span.
#[derive(Clone)]
enum Compiled {
    Chunk(Arc<Chunk>),
    /// Parsed but would not lower: executed by the tree-walk, as shipped.
    Fallback(Arc<Program>),
    ParseError,
}

/// Content-addressed compile memo with the shipped `ScriptCache`'s keying,
/// striping and compile-under-lock, so misses count unique sources exactly.
#[derive(Default)]
pub struct ChunkMemo {
    stripes: [Mutex<HashMap<u64, Compiled>>; 16],
    /// Every parsed program, kept alive for the survey as the shipped cache
    /// keeps its AST family, so both hold the same memory.
    asts: Mutex<Vec<Arc<Program>>>,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub negative_hits: AtomicU64,
}

impl ChunkMemo {
    fn lookup(&self, src: &str) -> (Compiled, CacheOutcome) {
        let key = ScriptCache::content_hash(src);
        let mut map = self.stripes[(key as usize) & 15]
            .lock()
            .expect("memo lock poisoned");
        if let Some(cached) = map.get(&key) {
            let outcome = if matches!(cached, Compiled::Chunk(_)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CacheOutcome::Hit
            } else {
                self.negative_hits.fetch_add(1, Ordering::Relaxed);
                CacheOutcome::NegativeHit
            };
            return (cached.clone(), outcome);
        }
        let parsed = {
            let _s = enter("script.parse");
            parser::parse(src)
        };
        let entry = match parsed {
            Ok(program) => {
                let program = Arc::new(program);
                self.asts
                    .lock()
                    .expect("memo lock poisoned")
                    .push(Arc::clone(&program));
                let chunk = {
                    let _s = enter("script.compile");
                    compile(&program)
                };
                match chunk {
                    Ok(chunk) => Compiled::Chunk(Arc::new(chunk)),
                    Err(_) => Compiled::Fallback(program),
                }
            }
            Err(_) => Compiled::ParseError,
        };
        map.insert(key, entry.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        (entry, CacheOutcome::Miss)
    }
}

/// Counters the spans do not carry, summed over every replay world.
#[derive(Debug, Default)]
pub struct ReplayCounters {
    pub fetch_failed: AtomicU64,
    pub scripts: AtomicU64,
    pub script_errors: AtomicU64,
    pub listeners_fired: AtomicU64,
}

/// Everything one replay produced.
pub struct Replayed {
    pub dataset: Dataset,
    /// One span buffer per worker thread.
    pub spans: Vec<Vec<trace::Span>>,
    pub memo: ChunkMemo,
    pub policy: Arc<PolicyStats>,
    pub counters: ReplayCounters,
}

/// Replay `survey` with spans on, over `config.threads` workers pulling
/// sites from a shared counter, exactly as `Survey::run_partial` schedules.
pub fn replay(survey: &Survey) -> Replayed {
    let config = survey.config();
    assert!(
        config.compile_cache && config.browser.engine == Engine::Vm,
        "the replay mirrors the shipped configuration: VM with the compile cache"
    );
    let n_sites = survey.web().site_count();
    let threads = config.threads.max(1).min(n_sites.max(1));
    let next = AtomicUsize::new(0);
    let memo = ChunkMemo::default();
    let frames = CompileCache::new();
    let policy = Arc::new(PolicyStats::default());
    let counters = ReplayCounters::default();
    let mut sites: Vec<Option<SiteMeasurement>> = Vec::new();
    sites.resize_with(n_sites, || None);
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    trace::enable();
                    let mut world = None;
                    let mut done = Vec::new();
                    loop {
                        let ix = next.fetch_add(1, Ordering::Relaxed);
                        if ix >= n_sites {
                            break;
                        }
                        let (world, policies) = world.get_or_insert_with(|| {
                            let _s = enter("crawler.world_build");
                            World::build(survey, &memo, &frames, &policy, &counters)
                        });
                        let m = catch_unwind(AssertUnwindSafe(|| world.crawl_site(ix, policies)))
                            .unwrap_or_else(|_| panicked_site(survey, ix));
                        done.push(m);
                    }
                    (done, trace::take())
                })
            })
            .collect();
        for worker in workers {
            let (done, buffer) = worker.join().expect("replay worker panicked");
            for m in done {
                let ix = m.site.index();
                sites[ix] = Some(m);
            }
            spans.push(buffer);
        }
    });
    let cache = CacheTotals {
        enabled: true,
        script_hits: memo.hits.load(Ordering::Relaxed),
        script_misses: memo.misses.load(Ordering::Relaxed),
        script_negative_hits: memo.negative_hits.load(Ordering::Relaxed),
        chunk_hits: memo.hits.load(Ordering::Relaxed),
        chunk_misses: memo.misses.load(Ordering::Relaxed),
        chunk_negative_hits: memo.negative_hits.load(Ordering::Relaxed),
        unique_frames: frames.unique_frames() as u64,
        ..CacheTotals::default()
    };
    let dataset = Dataset {
        profiles: config.profiles.clone(),
        rounds_per_profile: config.rounds_per_profile,
        sites: sites
            .into_iter()
            .enumerate()
            .map(|(ix, m)| m.unwrap_or_else(|| panicked_site(survey, ix)))
            .collect(),
        cache,
    };
    Replayed {
        dataset,
        spans,
        memo,
        policy,
        counters,
    }
}

fn panicked_site(survey: &Survey, ix: usize) -> SiteMeasurement {
    let plan = survey.web().plan(SiteId::from_usize(ix));
    SiteMeasurement {
        site: SiteId::from_usize(ix),
        domain: plan.site.domain.clone(),
        traffic_weight: plan.site.traffic_weight,
        outcome: SiteOutcome::Panicked,
        rounds: Vec::new(),
    }
}

/// One worker's private world (without its policies, which are passed
/// alongside, as `Survey` passes its own), built as `Survey` builds it.
struct World<'a> {
    survey: &'a Survey,
    net: SimNet,
    registry: Rc<FeatureRegistry>,
    prop_index: PropIndex,
    browser: BrowserConfig,
    memo: &'a ChunkMemo,
    frames: &'a CompileCache,
    counters: &'a ReplayCounters,
}

type Policies = Vec<(BrowserProfile, TimedPolicy)>;

enum Resource {
    InlineScript(String),
    External(String, ResourceType),
}

impl<'a> World<'a> {
    fn build(
        survey: &'a Survey,
        memo: &'a ChunkMemo,
        frames: &'a CompileCache,
        policy: &Arc<PolicyStats>,
        counters: &'a ReplayCounters,
    ) -> (Self, Policies) {
        let config = survey.config();
        let web = survey.web();
        let mut net = SimNet::new(SimRng::new(config.seed ^ 0x5EED));
        web.install_into(&mut net);
        let mut faults = net.faults().clone();
        if faults.seed == 0 {
            faults.seed = config.seed;
        }
        net.set_faults(faults);
        let registry = Rc::new((**web.registry()).clone());
        let prop_index = PropIndex::build(&registry);
        let policies = config
            .profiles
            .iter()
            .map(|&p| {
                let timed = TimedPolicy {
                    inner: policy_for(web, p),
                    stats: Arc::clone(policy),
                };
                (p, timed)
            })
            .collect();
        let world = World {
            survey,
            net,
            registry,
            prop_index,
            browser: config.browser.clone(),
            memo,
            frames,
            counters,
        };
        (world, policies)
    }

    fn crawl_site(&mut self, site_ix: usize, policies: &Policies) -> SiteMeasurement {
        let _s = enter("crawler.site");
        let survey = self.survey;
        let config = survey.config();
        let site = SiteId::from_usize(site_ix);
        let plan = survey.web().plan(site);
        let base_rng = SimRng::new(config.seed).fork_idx(site_ix as u64);
        let mut breaker = HostBreaker::new(config.breaker);
        let mut rounds = Vec::new();
        for (profile, policy) in policies {
            let mut per_round = Vec::new();
            for round in 0..config.rounds_per_profile {
                let mut rng = base_rng.fork(profile.label()).fork_idx(u64::from(round));
                per_round.push(self.round(
                    policy,
                    *profile,
                    &plan.site.domain,
                    config,
                    round,
                    &mut rng,
                    &mut breaker,
                ));
            }
            rounds.push((*profile, per_round));
        }
        SiteMeasurement {
            site,
            domain: plan.site.domain.clone(),
            traffic_weight: plan.site.traffic_weight,
            outcome: SiteOutcome::from_rounds(&rounds),
            rounds,
        }
    }

    /// Mirror of `visit_site_round_supervised`.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        policy: &TimedPolicy,
        profile: BrowserProfile,
        domain: &str,
        config: &CrawlConfig,
        round: u32,
        rng: &mut SimRng,
        breaker: &mut HostBreaker,
    ) -> RoundMeasurement {
        let _s = enter("crawler.round");
        let slot_ms = config
            .page_budget_ms
            .saturating_mul(config.pages_per_site as u64)
            .saturating_mul(2)
            .max(config.page_budget_ms);
        let wait_ms = match breaker.admit(slot_ms) {
            Admission::Skip => {
                return RoundMeasurement::failed_with(round, CrawlError::CircuitOpen)
            }
            Admission::Proceed { wait_ms, .. } => wait_ms,
        };
        let mut clock = VirtualClock::new();
        let start = clock.now();
        clock.advance(wait_ms);
        let mut merged = FeatureLog::new();
        let mut planner = CrawlPlanner::new(domain);
        let mut pages_visited = 0u32;
        let mut measurement = RoundMeasurement::empty(round);
        self.net.set_fault_context(
            hash_label(domain) ^ hash_label(profile.label()).rotate_left(17) ^ u64::from(round),
        );
        let Ok(home) = Url::parse(&format!("http://{domain}/")) else {
            return RoundMeasurement::failed_with(round, CrawlError::DeadHost);
        };
        let watchdog = clock.now().plus(slot_ms);
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
            let (page, trace) =
                self.load_with_retry(&url, policy, &mut clock, watchdog, &config.retry);
            measurement.attempts += trace.attempts;
            measurement.retries += trace.retries;
            measurement.backoff_ms += trace.backoff_ms;
            let Some(mut page) = page else {
                if pages_visited == 0 {
                    error = trace.error;
                }
                continue;
            };
            if pages_visited == 0 {
                if let Some(fatal) = fatal_script_class(&page.stats) {
                    harvest_budget_stats(&mut measurement, &page.stats);
                    error = Some(fatal);
                    break;
                }
            }
            pages_visited += 1;
            let report = {
                let _s = enter("monkey.interact");
                let mut horde = GremlinHorde::new(rng.fork_idx(u64::from(pages_visited)));
                horde.interact(
                    &mut page,
                    &mut self.net,
                    policy,
                    &mut clock,
                    config.page_budget_ms,
                )
            };
            self.counters
                .listeners_fired
                .fetch_add(u64::from(report.listeners_fired), Ordering::Relaxed);
            merged.merge(&page.log.borrow());
            harvest_budget_stats(&mut measurement, &page.stats);
            let mut candidates = report.navigations;
            candidates.extend(page.links());
            for n in planner.select(&candidates, config.fanout, rng) {
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

    /// Mirror of `bfu_crawler::load_with_retry`.
    fn load_with_retry(
        &mut self,
        url: &Url,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
        deadline: Instant,
        retry: &RetryPolicy,
    ) -> (Option<Page>, AttemptTrace) {
        let _s = enter("crawler.load");
        let mut trace = AttemptTrace::default();
        loop {
            trace.attempts += 1;
            match self.load(url, policy, clock) {
                Ok(page) => {
                    trace.error = None;
                    return (Some(page), trace);
                }
                Err(e) => {
                    let error = CrawlError::from_load(&e);
                    trace.error = Some(error);
                    if !retry.should_retry(error, trace.attempts) {
                        return (None, trace);
                    }
                    let backoff = retry.backoff_ms(trace.retries);
                    if clock.now().plus(backoff) > deadline {
                        return (None, trace);
                    }
                    clock.advance(backoff);
                    trace.backoff_ms += backoff;
                    trace.retries += 1;
                }
            }
        }
    }

    fn fetch(
        &mut self,
        req: &HttpRequest,
        clock: &mut VirtualClock,
    ) -> Result<HttpResponse, NetError> {
        let out = {
            let _s = enter("net.fetch");
            self.net.fetch(req, clock)
        };
        if !matches!(&out, Ok(r) if r.status.is_success()) {
            self.counters.fetch_failed.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Mirror of `Browser::load`.
    fn load(
        &mut self,
        url: &Url,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
    ) -> Result<Page, LoadError> {
        let _s = enter("browser.load");
        let mut stats = LoadStats::default();
        stats.requests_attempted += 1;
        let doc_req = HttpRequest::get(url.clone(), ResourceType::Document);
        let resp = self.fetch(&doc_req, clock).map_err(LoadError::Network)?;
        if !resp.status.is_success() {
            return Err(LoadError::Http(resp.status.0));
        }
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        let doc = {
            let _s = enter("dom.parse");
            html::parse(&body)
        };
        let host = Rc::new(RefCell::new(HostEnv::new(doc, url.clone())));
        host.borrow_mut().now = clock.now();

        let mut interp = {
            let _s = enter("browser.boot.interp");
            Interpreter::new()
        };
        let api = {
            let _s = enter("browser.boot.api");
            api::install(&mut interp, &self.registry, host.clone())
        };
        let log = Rc::new(RefCell::new(FeatureLog::new()));
        if self.browser.instrument {
            let _s = enter("browser.boot.instrument");
            Instrumentation::install_with_index(
                &mut interp,
                &api,
                &self.registry,
                log.clone(),
                &self.prop_index,
            );
        }
        bind_document_tree_globals(&mut interp, &api);

        let domain = url.registrable_domain().to_owned();
        for sel_src in policy.hiding_selectors(&domain) {
            let compiled = api.host.borrow_mut().compile_selector(&sel_src);
            if let Some(sel) = compiled {
                let targets = sel.query_all(&api.host.borrow().doc);
                let mut h = api.host.borrow_mut();
                for t in targets {
                    h.doc.set_attr(t, "data-bfu-hidden", "1");
                }
            }
        }

        for res in collect_resources(&api)
            .into_iter()
            .take(self.browser.max_subresources)
        {
            match res {
                Resource::InlineScript(src) => {
                    host.borrow_mut().now = clock.now();
                    self.run_script(&mut interp, &src, &mut stats);
                }
                Resource::External(target, rtype) => {
                    let Ok(res_url) = url.join(&target) else {
                        continue;
                    };
                    stats.requests_attempted += 1;
                    let req = HttpRequest::get(res_url.clone(), rtype).with_initiator(url.clone());
                    if policy.decide(&req).is_some() {
                        stats.requests_blocked += 1;
                        continue;
                    }
                    match self.fetch(&req, clock) {
                        Err(_) => stats.requests_failed += 1,
                        Ok(resp) if !resp.status.is_success() => stats.requests_failed += 1,
                        Ok(resp) => match rtype {
                            ResourceType::Script => {
                                let src = String::from_utf8_lossy(&resp.body).into_owned();
                                host.borrow_mut().now = clock.now();
                                self.run_script(&mut interp, &src, &mut stats);
                            }
                            ResourceType::SubDocument => {
                                let body = String::from_utf8_lossy(&resp.body).into_owned();
                                self.load_subdocument(
                                    &res_url,
                                    &body,
                                    policy,
                                    clock,
                                    &mut interp,
                                    &host,
                                    &mut stats,
                                );
                            }
                            _ => {}
                        },
                    }
                }
            }
        }

        Ok(Page {
            url: url.clone(),
            config: self.browser.clone(),
            interp,
            api,
            log,
            stats,
        })
    }

    /// Mirror of `Browser::load_subdocument` with the cache installed.
    #[allow(clippy::too_many_arguments)]
    fn load_subdocument(
        &mut self,
        frame_url: &Url,
        frame_body: &str,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
        interp: &mut Interpreter,
        host: &Rc<RefCell<HostEnv>>,
        stats: &mut LoadStats,
    ) {
        let scripts = self.frames.frame_scripts(frame_body);
        for s in scripts.iter() {
            match s {
                FrameScript::Inline(src) => self.run_script(interp, src, stats),
                FrameScript::External(target) => {
                    let Ok(u) = frame_url.join(target) else {
                        continue;
                    };
                    stats.requests_attempted += 1;
                    let req =
                        HttpRequest::get(u, ResourceType::Script).with_initiator(frame_url.clone());
                    if policy.decide(&req).is_some() {
                        stats.requests_blocked += 1;
                        continue;
                    }
                    match self.fetch(&req, clock) {
                        Ok(r) if r.status.is_success() => {
                            let src = String::from_utf8_lossy(&r.body).into_owned();
                            host.borrow_mut().now = clock.now();
                            self.run_script(interp, &src, stats);
                        }
                        _ => stats.requests_failed += 1,
                    }
                }
            }
        }
    }

    /// Mirror of the cached VM path of `run_page_script`.
    fn run_script(&self, interp: &mut Interpreter, src: &str, stats: &mut LoadStats) {
        stats.scripts_run += 1;
        self.counters.scripts.fetch_add(1, Ordering::Relaxed);
        let errors_before = stats.script_errors;
        if src.len() > self.browser.max_script_bytes {
            stats.script_errors += 1;
            stats.script_oversize_errors += 1;
        } else {
            let (compiled, outcome) = self.memo.lookup(src);
            match outcome {
                CacheOutcome::Hit => stats.script_cache_hits += 1,
                CacheOutcome::Miss => stats.script_cache_misses += 1,
                CacheOutcome::NegativeHit => stats.script_cache_negative_hits += 1,
            }
            let run = match compiled {
                Compiled::ParseError => {
                    stats.script_errors += 1;
                    stats.script_parse_errors += 1;
                    Ok(())
                }
                Compiled::Chunk(chunk) => {
                    interp.set_budget(&self.browser.run_budget());
                    let _s = enter("script.execute");
                    run_chunk(interp, &chunk).map(drop)
                }
                Compiled::Fallback(program) => {
                    interp.set_budget(&self.browser.run_budget());
                    let _s = enter("script.execute");
                    interp.run(&program).map(drop)
                }
            };
            if let Err(e) = run {
                stats.script_errors += 1;
                classify_runtime(stats, &e);
            }
        }
        let errors = stats.script_errors - errors_before;
        self.counters
            .script_errors
            .fetch_add(u64::from(errors), Ordering::Relaxed);
    }
}

fn bind_document_tree_globals(interp: &mut Interpreter, api: &ApiSurface) {
    let Some(doc_obj) = api
        .singletons
        .iter()
        .find(|(n, _)| n == "document")
        .map(|(_, o)| *o)
    else {
        return;
    };
    let (body, head, html_el) = {
        let h = api.host.borrow();
        (
            h.doc.first_by_tag("body"),
            h.doc.first_by_tag("head"),
            h.doc.first_by_tag("html"),
        )
    };
    for (prop, node) in [("body", body), ("head", head), ("documentElement", html_el)] {
        if let Some(n) = node {
            let v = api::wrap_node(interp, &api.host, &api.prototypes, n);
            interp.heap.set_prop_raw(doc_obj, prop, v);
        }
    }
}

fn collect_resources(api: &ApiSurface) -> Vec<Resource> {
    let h = api.host.borrow();
    let mut out = Vec::new();
    for node in h.doc.elements() {
        match h.doc.tag(node) {
            Some("script") => match h.doc.attr(node, "src") {
                Some(src) => out.push(Resource::External(src.to_owned(), ResourceType::Script)),
                None => out.push(Resource::InlineScript(h.doc.text_content(node))),
            },
            Some("img") => {
                if let Some(src) = h.doc.attr(node, "src") {
                    out.push(Resource::External(src.to_owned(), ResourceType::Image));
                }
            }
            Some("iframe") => {
                if let Some(src) = h.doc.attr(node, "src") {
                    out.push(Resource::External(
                        src.to_owned(),
                        ResourceType::SubDocument,
                    ));
                }
            }
            Some("link") if h.doc.attr(node, "rel") == Some("stylesheet") => {
                if let Some(href) = h.doc.attr(node, "href") {
                    out.push(Resource::External(
                        href.to_owned(),
                        ResourceType::Stylesheet,
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

fn classify_runtime(stats: &mut LoadStats, e: &RuntimeError) {
    match e {
        RuntimeError::OutOfFuel => stats.script_budget_errors += 1,
        RuntimeError::HeapExhausted | RuntimeError::StringOverflow => {
            stats.script_heap_errors += 1;
        }
        RuntimeError::StackOverflow => stats.script_depth_errors += 1,
        RuntimeError::TypeError(_) | RuntimeError::ReferenceError(_) => {}
    }
}

fn harvest_budget_stats(m: &mut RoundMeasurement, stats: &LoadStats) {
    m.script_budget_errors += stats.script_budget_errors + stats.script_oversize_errors;
    m.script_heap_errors += stats.script_heap_errors;
    m.script_depth_errors += stats.script_depth_errors;
}

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
