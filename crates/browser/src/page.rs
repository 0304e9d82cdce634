//! Page loading and interaction: the browser engine proper.
//!
//! [`Browser::load`] runs the full pipeline — fetch the document, parse it,
//! start the page's script realm with the API surface and the
//! instrumentation already in place *before page scripts run* (the paper's
//! extension injects at the start of `<head>`), apply the blockers'
//! element-hiding rules, then fetch and execute subresources in document
//! order, consulting the [`RequestPolicy`] for every request the way AdBlock
//! Plus and Ghostery intercept loads.
//!
//! Booting a realm — a fresh interpreter, [`api::install`] over all 1,392
//! features, then [`Instrumentation::install_with_index`] — is the same for
//! every page, so a [`Browser`] does it once, on its first load, and starts
//! each page from a clone of that booted realm. The clone shares the booted
//! heap copy-on-write and copies only the heap chunks the page writes (two,
//! on a generated page), so nothing a page writes reaches the booted realm
//! or another page. Natives reach the page's host and log through the
//! interpreter that calls them (see [`crate::api`]).
//!
//! The resulting [`Page`] exposes the interaction surface the monkey
//! (`bfu-monkey`) drives: event dispatch, virtual timers, link extraction,
//! and script-issued network traffic.

use crate::api::{self, ApiSurface, HostEnv};
use crate::cache::{extract_frame_scripts, CompileCache, FrameScript};
use crate::instrument::{Instrumentation, PropIndex};
use crate::log::FeatureLog;
use bfu_dom::{html, Document, NodeId};
use bfu_net::{HttpRequest, HttpResponse, NetError, ResourceType, SimNet, Url};
use bfu_script::interp::Interpreter;
use bfu_script::{CacheOutcome, Engine, ResourceBudget, RuntimeError, Script, Source, Value};
use bfu_util::{Instant, VirtualClock};
use bfu_webidl::FeatureRegistry;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Decides whether requests load — the hook blockers install.
pub trait RequestPolicy {
    /// `Some(reason)` blocks the request; `None` allows it.
    fn decide(&self, req: &HttpRequest) -> Option<String>;

    /// Element-hiding selectors for pages on `domain`.
    fn hiding_selectors(&self, _domain: &str) -> Vec<String> {
        Vec::new()
    }
}

/// The default configuration: everything loads.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl RequestPolicy for AllowAll {
    fn decide(&self, _req: &HttpRequest) -> Option<String> {
        None
    }
}

/// Engine configuration.
///
/// Script execution is governed per *phase*: the initial run of each page
/// script, each event-listener dispatch, and each timer callback all get a
/// fresh [`ResourceBudget`], so one hostile phase cannot starve the others
/// and every page degrades to partial feature logs instead of a lost visit.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserConfig {
    /// Step budget per executed script (initial-run phase).
    pub script_fuel: u64,
    /// Step budget per event-listener or timer callback.
    pub callback_fuel: u64,
    /// Parse-phase budget: scripts larger than this many bytes are rejected
    /// before the parser sees them.
    pub max_script_bytes: usize,
    /// Heap cells a single execution phase may allocate.
    pub max_heap_cells: usize,
    /// String bytes a single execution phase may concatenate.
    pub max_string_bytes: u64,
    /// Interpreter call-depth cap.
    pub max_call_depth: u32,
    /// Timer-drain budget: callbacks per [`Page::run_timers`] drain (guards
    /// against interval storms that reschedule themselves forever).
    pub max_timer_callbacks: u32,
    /// Whether to install the measuring extension.
    pub instrument: bool,
    /// Cap on subresource fetches per page (defense against generator bugs).
    pub max_subresources: usize,
    /// Which script engine executes page scripts. The bytecode VM is the
    /// default; the tree-walk interpreter remains the differential oracle.
    /// Either engine produces bit-identical feature logs and fingerprints.
    pub engine: Engine,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            script_fuel: 400_000,
            callback_fuel: 400_000,
            max_script_bytes: 1 << 20,
            max_heap_cells: 1 << 20,
            max_string_bytes: 16 << 20,
            max_call_depth: 64,
            max_timer_callbacks: 10_000,
            instrument: true,
            max_subresources: 256,
            engine: Engine::default(),
        }
    }
}

impl BrowserConfig {
    /// The budget installed before each page script's initial run.
    pub fn run_budget(&self) -> ResourceBudget {
        ResourceBudget {
            max_steps: self.script_fuel,
            max_heap_cells: self.max_heap_cells,
            max_string_bytes: self.max_string_bytes,
            max_call_depth: self.max_call_depth,
        }
    }

    /// The budget installed before each event or timer callback.
    pub fn callback_budget(&self) -> ResourceBudget {
        ResourceBudget {
            max_steps: self.callback_fuel,
            ..self.run_budget()
        }
    }
}

/// The browser: a registry plus configuration; `load` produces pages.
///
/// A browser boots its instrumented realm once, on the first load, and
/// starts every page from a copy-on-write clone of it (see
/// [`Interpreter`]); the realm is rebooted when `config.instrument` has
/// changed since.
#[derive(Debug, Clone)]
pub struct Browser {
    /// The instrumented feature universe.
    pub registry: Rc<FeatureRegistry>,
    /// Engine configuration.
    pub config: BrowserConfig,
    /// Shared compilation cache, when the embedder opted in. `None` means
    /// every script is parsed from scratch (identical measurements, more
    /// CPU — see [`crate::cache`]).
    compile_cache: Option<Arc<CompileCache>>,
    /// The booted realm every page starts from (built by the first load).
    realm: RefCell<Option<Rc<Realm>>>,
}

/// A booted realm: the interpreter with the API surface (and, when
/// `instrument` is set, the measuring extension) installed against a
/// placeholder host. No page code ever runs in it; pages run in copies.
#[derive(Debug)]
struct Realm {
    /// The `config.instrument` value the realm was booted under.
    instrument: bool,
    interp: Interpreter,
    api: ApiSurface,
}

/// Counters from one page load + interaction session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Requests attempted (including the document and blocked ones).
    pub requests_attempted: u32,
    /// Requests blocked by the policy.
    pub requests_blocked: u32,
    /// Requests that failed at the network layer.
    pub requests_failed: u32,
    /// Scripts that aborted with a runtime/parse error.
    pub script_errors: u32,
    /// Subset of `script_errors` that failed to parse at all (the paper's
    /// "syntax errors in their JavaScript" class).
    pub script_parse_errors: u32,
    /// Subset of `script_errors` that exhausted their step budget.
    pub script_budget_errors: u32,
    /// Subset of `script_errors` that exceeded the heap-cell or string-byte
    /// allocation budget (allocation/string bombs).
    pub script_heap_errors: u32,
    /// Subset of `script_errors` that exceeded the call-depth budget
    /// (unbounded recursion).
    pub script_depth_errors: u32,
    /// Scripts rejected before parsing for exceeding the size budget.
    pub script_oversize_errors: u32,
    /// Scripts executed (at least partially).
    pub scripts_run: u32,
    /// Compilation-cache probes that reused a parsed program.
    pub script_cache_hits: u32,
    /// Compilation-cache probes that parsed fresh source.
    pub script_cache_misses: u32,
    /// Compilation-cache probes that replayed a cached parse error.
    pub script_cache_negative_hits: u32,
}

impl LoadStats {
    /// Scripts stopped by any resource-governor axis (steps, heap, string,
    /// depth, or source size) — the trap-class total the crawler uses to
    /// attribute a site loss to the `ScriptBudget` class.
    pub fn budget_trips(&self) -> u32 {
        self.script_budget_errors
            + self.script_heap_errors
            + self.script_depth_errors
            + self.script_oversize_errors
    }
}

/// Why a page failed to load at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Network-level failure fetching the document.
    Network(NetError),
    /// Non-success HTTP status for the document.
    Http(u16),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Network(e) => write!(f, "document fetch failed: {e}"),
            LoadError::Http(s) => write!(f, "document returned HTTP {s}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Result of a click interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClickOutcome {
    /// Navigation the click would have caused (intercepted, per §4.3.1).
    pub navigation: Option<Url>,
    /// Listener invocations performed.
    pub listeners_fired: u32,
}

/// A loaded page.
pub struct Page {
    /// Final page URL.
    pub url: Url,
    /// The engine configuration this page was loaded under; event dispatch
    /// and timer drains draw their budgets from here.
    pub config: BrowserConfig,
    /// The script engine with the API surface installed.
    pub interp: Interpreter,
    /// The installed API surface (prototypes, singletons, host state).
    pub api: ApiSurface,
    /// The instrumentation log (empty log if instrumentation disabled).
    pub log: Rc<RefCell<FeatureLog>>,
    /// Load/interaction counters.
    pub stats: LoadStats,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("url", &self.url.to_string())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Browser {
    /// A browser over the given feature registry with default config.
    pub fn new(registry: Rc<FeatureRegistry>) -> Self {
        Self::with_config(registry, BrowserConfig::default())
    }

    /// A browser with an explicit engine configuration (crawlers route
    /// their `CrawlConfig.browser` budgets through here).
    pub fn with_config(registry: Rc<FeatureRegistry>, config: BrowserConfig) -> Self {
        Browser {
            registry,
            config,
            compile_cache: None,
            realm: RefCell::new(None),
        }
    }

    /// Share a compilation cache with this browser. The survey driver hands
    /// every worker thread's browser the same `Arc`, so a script parsed on
    /// any thread is never parsed again anywhere.
    pub fn set_compile_cache(&mut self, cache: Arc<CompileCache>) {
        self.compile_cache = Some(cache);
    }

    /// The shared compilation cache, if one is installed.
    pub fn compile_cache(&self) -> Option<&Arc<CompileCache>> {
        self.compile_cache.as_ref()
    }

    /// Load `url`, execute its resources, and return the interactive page.
    pub fn load(
        &self,
        net: &mut SimNet,
        url: &Url,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
    ) -> Result<Page, LoadError> {
        let mut stats = LoadStats::default();

        // 1. Fetch the document.
        stats.requests_attempted += 1;
        let doc_req = HttpRequest::get(url.clone(), ResourceType::Document);
        let resp = net.fetch(&doc_req, clock).map_err(LoadError::Network)?;
        if !resp.status.is_success() {
            return Err(LoadError::Http(resp.status.0));
        }
        let body = resp.body.text();

        // 2. Parse.
        let doc = html::parse(&body);
        let host = Rc::new(RefCell::new(HostEnv::new(doc, url.clone())));
        host.borrow_mut().now = clock.now();

        // 3. A clone of the booted realm — engine, API and instrumentation
        //    already installed, before any page script runs, like the
        //    paper's <head> injection — pointed at this page. It shares the
        //    booted heap until the page writes it, one chunk at a time.
        let realm = self.realm(url);
        let mut interp = realm.interp.clone();
        let log = Rc::new(RefCell::new(FeatureLog::new()));
        let api = api::attach_page(&mut interp, &realm.api, host.clone(), log.clone());
        Self::bind_document_tree_globals(&mut interp, &api);

        // 4. Element hiding. Selector compilation is memoized per page load
        //    in the host env (the same memo querySelector and __listen use).
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

        // 5. Subresources in document order.
        let resources = Self::collect_resources(&api);
        for res in resources.into_iter().take(self.config.max_subresources) {
            let (target, rtype) = match res {
                Resource::InlineScript(src) => {
                    self.run_script(&mut interp, &host, clock, src.as_str().into(), &mut stats);
                    continue;
                }
                Resource::External(target, rtype) => (target, rtype),
            };
            let Some((res_url, resp)) =
                fetch_subresource(net, url, &target, rtype, policy, clock, &mut stats)
            else {
                continue;
            };
            match rtype {
                ResourceType::Script => {
                    let src = resp.body.text();
                    let src = Source::decoded(&src, resp.body.shared());
                    self.run_script(&mut interp, &host, clock, src, &mut stats);
                }
                ResourceType::SubDocument => {
                    let frame_body = resp.body.text();
                    self.load_subdocument(
                        net,
                        &res_url,
                        &frame_body,
                        policy,
                        clock,
                        &mut interp,
                        &host,
                        &mut stats,
                    );
                }
                _ => {}
            }
        }

        Ok(Page {
            url: url.clone(),
            config: self.config.clone(),
            interp,
            api,
            log,
            stats,
        })
    }

    /// The booted realm for the current configuration, booting it on first
    /// use or after `config.instrument` changed. The placeholder host is an
    /// empty document at `url`; [`api::attach_page`] repoints every copy,
    /// including the first page's.
    fn realm(&self, url: &Url) -> Rc<Realm> {
        let mut slot = self.realm.borrow_mut();
        if let Some(realm) = slot
            .as_ref()
            .filter(|r| r.instrument == self.config.instrument)
        {
            return Rc::clone(realm);
        }
        let host = Rc::new(RefCell::new(HostEnv::new(Document::new(), url.clone())));
        let mut interp = Interpreter::new();
        let api = api::install(&mut interp, &self.registry, host);
        if self.config.instrument {
            let log = Rc::new(RefCell::new(FeatureLog::new()));
            Instrumentation::install_with_index(
                &mut interp,
                &api,
                &self.registry,
                log,
                &PropIndex::build(&self.registry),
            );
        }
        let realm = Rc::new(Realm {
            instrument: self.config.instrument,
            interp,
            api,
        });
        *slot = Some(Rc::clone(&realm));
        realm
    }

    /// Fetch an iframe's document and execute its scripts (one level deep).
    /// Requests from inside the frame are attributed to the frame's URL, so
    /// third-party logic matches real browsers.
    #[allow(clippy::too_many_arguments)]
    fn load_subdocument(
        &self,
        net: &mut SimNet,
        frame_url: &Url,
        frame_body: &str,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
        interp: &mut Interpreter,
        host: &RefCell<HostEnv>,
        stats: &mut LoadStats,
    ) {
        // Ad frames are served from a small template pool, so identical
        // frame bodies recur constantly; with a cache installed the body is
        // HTML-parsed once per distinct content and the extracted script
        // list is shared. Execution still happens per visit, in this
        // engine (features from ads in frames count toward the page, as in
        // the paper's measurements).
        let scripts: Arc<Vec<FrameScript>> = match &self.compile_cache {
            Some(cache) => cache.frame_scripts(frame_body),
            None => Arc::new(extract_frame_scripts(frame_body)),
        };
        for s in scripts.iter() {
            match s {
                FrameScript::Inline(src) => {
                    self.run_script(interp, host, clock, src.as_str().into(), stats);
                }
                FrameScript::External(target) => {
                    let rtype = ResourceType::Script;
                    if let Some((_, resp)) =
                        fetch_subresource(net, frame_url, target, rtype, policy, clock, stats)
                    {
                        let src = resp.body.text();
                        let src = Source::decoded(&src, resp.body.shared());
                        self.run_script(interp, host, clock, src, stats);
                    }
                }
            }
        }
    }

    /// Run one page script at the current virtual time: every script a page
    /// or its frames carry goes through here.
    fn run_script(
        &self,
        interp: &mut Interpreter,
        host: &RefCell<HostEnv>,
        clock: &VirtualClock,
        src: Source<'_>,
        stats: &mut LoadStats,
    ) {
        host.borrow_mut().now = clock.now();
        let cache = self.compile_cache.as_deref();
        run_page_script(interp, src, &self.config, stats, cache);
    }

    fn bind_document_tree_globals(interp: &mut Interpreter, api: &ApiSurface) {
        // `api::install` always registers the document singleton; without it
        // there is simply nothing to bind.
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
}

enum Resource {
    InlineScript(String),
    External(String, ResourceType),
}

/// Tally a runtime failure into the per-axis governor counters (plain
/// language errors like `TypeError` only count toward `script_errors`).
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

/// Fetch `target`, resolved against `base`, as a subresource `base` asked
/// for: one attempted request, tallied as blocked or failed when it does not
/// load. Returns the resolved URL and the successful response.
fn fetch_subresource(
    net: &mut SimNet,
    base: &Url,
    target: &str,
    rtype: ResourceType,
    policy: &dyn RequestPolicy,
    clock: &mut VirtualClock,
    stats: &mut LoadStats,
) -> Option<(Url, HttpResponse)> {
    let url = base.join(target).ok()?;
    stats.requests_attempted += 1;
    let req = HttpRequest::get(url, rtype).with_initiator(base.clone());
    if policy.decide(&req).is_some() {
        stats.requests_blocked += 1;
        return None;
    }
    match net.fetch(&req, clock) {
        Ok(resp) if resp.status.is_success() => Some((req.url, resp)),
        _ => {
            stats.requests_failed += 1;
            None
        }
    }
}

/// Execute one page script, classifying any failure into the stats counters
/// (parse failures and each budget axis get their own tallies so the
/// crawler can attribute a site loss to the right fault class).
fn run_page_script(
    interp: &mut Interpreter,
    src: Source<'_>,
    config: &BrowserConfig,
    stats: &mut LoadStats,
    cache: Option<&CompileCache>,
) {
    stats.scripts_run += 1;
    if src.text().len() > config.max_script_bytes {
        // Parse-phase budget: don't even lex a source bomb. Checked before
        // the cache probe so oversize handling is cache-invariant.
        stats.script_errors += 1;
        stats.script_oversize_errors += 1;
        return;
    }
    // Parsing and compiling burn no interpreter fuel (budgets are installed
    // per execution phase), so a cached tree, chunk or parse error is
    // observably identical to a fresh one, under either engine.
    let prepared = match cache {
        Some(cache) => {
            let (prepared, outcome) = cache.scripts().prepare_counted(src, config.engine);
            match outcome {
                CacheOutcome::Hit => stats.script_cache_hits += 1,
                CacheOutcome::Miss => stats.script_cache_misses += 1,
                CacheOutcome::NegativeHit => stats.script_cache_negative_hits += 1,
            }
            prepared
        }
        None => Script::prepare(src.text(), config.engine),
    };
    let Ok(script) = prepared else {
        stats.script_errors += 1;
        stats.script_parse_errors += 1;
        return;
    };
    interp.set_budget(&config.run_budget());
    if let Err(e) = script.run(interp) {
        stats.script_errors += 1;
        classify_runtime(stats, &e);
    }
}

impl Page {
    /// Dispatch a DOM event at `target`, invoking listeners in spec order.
    /// Returns the number of listeners fired.
    pub fn dispatch_event(&mut self, target: NodeId, event_type: &str) -> u32 {
        let order = {
            let h = self.api.host.borrow();
            h.events.dispatch_order(&h.doc, target, event_type)
        };
        let mut fired = 0;
        for inv in order {
            let (cb, this) = {
                let cb = self.api.host.borrow().listeners[inv.handle as usize].clone();
                let this = api::wrap_node(
                    &mut self.interp,
                    &self.api.host,
                    &self.api.prototypes,
                    inv.node,
                );
                (cb, this)
            };
            let event = self.make_event_object(event_type, target);
            self.interp.set_budget(&self.config.callback_budget());
            if let Err(e) = self.interp.call_value(&cb, this, &[event]) {
                self.stats.script_errors += 1;
                classify_runtime(&mut self.stats, &e);
            }
            fired += 1;
        }
        fired
    }

    fn make_event_object(&mut self, event_type: &str, target: NodeId) -> Value {
        let target_v = api::wrap_node(
            &mut self.interp,
            &self.api.host,
            &self.api.prototypes,
            target,
        );
        let ev = self.interp.heap.alloc(None);
        self.interp
            .heap
            .set_prop_raw(ev, "type", Value::str(event_type));
        self.interp.heap.set_prop_raw(ev, "target", target_v);
        Value::Obj(ev)
    }

    /// Click an element: dispatch `click`, and if the element (or an
    /// ancestor) is a link, report the navigation it would have caused —
    /// intercepted rather than followed, exactly like the paper's crawler.
    pub fn click(&mut self, target: NodeId) -> ClickOutcome {
        let listeners_fired = self.dispatch_event(target, "click");
        let navigation = {
            let h = self.api.host.borrow();
            let mut cur = Some(target);
            let mut nav = None;
            while let Some(n) = cur {
                if h.doc.tag(n) == Some("a") {
                    if let Some(href) = h.doc.attr(n, "href") {
                        nav = self.url.join(href).ok();
                    }
                    break;
                }
                cur = h.doc.parent(n);
            }
            nav
        };
        ClickOutcome {
            navigation,
            listeners_fired,
        }
    }

    /// Dispatch a scroll event at the document root.
    pub fn scroll(&mut self) -> u32 {
        let root = self.api.host.borrow().doc.root();
        self.dispatch_event(root, "scroll")
    }

    /// Type into an element: dispatch `input` at it.
    pub fn type_into(&mut self, target: NodeId) -> u32 {
        self.dispatch_event(target, "input")
    }

    /// Run all timers due up to `until`, advancing the shared clock to each
    /// timer's fire time. Returns the number of callbacks run.
    pub fn run_timers(&mut self, clock: &mut VirtualClock, until: Instant) -> u32 {
        let mut ran = 0;
        loop {
            let next = {
                let mut h = self.api.host.borrow_mut();
                h.timers.pop_due(until)
            };
            let Some((at, cb)) = next else { break };
            clock.advance_to(at);
            self.api.host.borrow_mut().now = at;
            self.interp.set_budget(&self.config.callback_budget());
            if let Err(e) = self.interp.call_value(&cb, Value::Undefined, &[]) {
                self.stats.script_errors += 1;
                classify_runtime(&mut self.stats, &e);
            }
            ran += 1;
            if ran >= self.config.max_timer_callbacks {
                break; // timer-drain budget: runaway interval guard
            }
        }
        ran
    }

    /// Issue the network requests scripts queued (XHR, beacons), subject to
    /// the policy. Returns `(allowed, blocked)` counts.
    pub fn pump_network(
        &mut self,
        net: &mut SimNet,
        policy: &dyn RequestPolicy,
        clock: &mut VirtualClock,
    ) -> (u32, u32) {
        let pending: Vec<(Url, ResourceType)> =
            std::mem::take(&mut self.api.host.borrow_mut().pending_requests);
        let (mut allowed, mut blocked) = (0, 0);
        for (url, rtype) in pending {
            self.stats.requests_attempted += 1;
            let req = HttpRequest::get(url, rtype).with_initiator(self.url.clone());
            if policy.decide(&req).is_some() {
                self.stats.requests_blocked += 1;
                blocked += 1;
                continue;
            }
            if net.fetch(&req, clock).is_err() {
                self.stats.requests_failed += 1;
            }
            allowed += 1;
        }
        (allowed, blocked)
    }

    /// Same-document links, resolved absolute.
    pub fn links(&self) -> Vec<Url> {
        let h = self.api.host.borrow();
        h.doc
            .elements()
            .into_iter()
            .filter(|&n| h.doc.tag(n) == Some("a"))
            .filter_map(|n| h.doc.attr(n, "href").map(str::to_owned))
            .filter_map(|href| self.url.join(&href).ok())
            .collect()
    }

    /// Visible elements a user could plausibly interact with, in document
    /// order — the monkey's click/type candidates.
    pub fn interactive_elements(&self) -> Vec<NodeId> {
        let h = self.api.host.borrow();
        h.doc
            .elements()
            .into_iter()
            .filter(|&n| h.doc.is_visible(n))
            .filter(|&n| {
                matches!(
                    h.doc.tag(n),
                    Some(
                        "a" | "button"
                            | "input"
                            | "select"
                            | "textarea"
                            | "div"
                            | "span"
                            | "li"
                            | "img"
                            | "p"
                            | "h1"
                            | "h2"
                            | "h3"
                    )
                )
            })
            .collect()
    }

    /// Elements that currently have listeners for `event_type`.
    pub fn listening_elements(&self, event_type: &str) -> Vec<NodeId> {
        self.api.host.borrow().events.nodes_listening(event_type)
    }
}
