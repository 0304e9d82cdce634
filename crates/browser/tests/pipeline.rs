//! Full-pipeline tests: HTML over the simulated network → parse → API →
//! instrumentation → script execution → interaction → feature log.

use bfu_browser::cache::{extract_frame_scripts, FrameScript};
use bfu_browser::{
    api, AllowAll, Browser, BrowserConfig, FeatureLog, HostEnv, Instrumentation, LoadStats, Page,
    PropIndex, RequestPolicy,
};
use bfu_dom::html;
use bfu_net::{HttpRequest, HttpResponse, ResourceType, SimNet, Url};
use bfu_script::interp::Interpreter;
use bfu_script::{compile, run_chunk, RuntimeError};
use bfu_util::{Instant, SimRng, VirtualClock};
use bfu_webgen::{HostilePlan, SyntheticWeb, WebConfig};
use bfu_webidl::FeatureRegistry;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

const PAGE: &str = r#"
<html><head>
<script src="/app.js"></script>
</head><body>
<div id="content"><a id="next" href="/news/story1">Story</a></div>
<div class="ad-slot"><img src="http://ads.adnet.test/banner.png"></div>
<script>
  var el = document.createElement('section');
  document.body.appendChild(el);
  var btn = document.querySelector('#next');
  btn.addEventListener('click', function(ev) {
    var x = new XMLHttpRequest();
    x.open('GET', '/api/click');
  });
  setTimeout(function() { navigator.sendBeacon('http://metrics.test/b'); }, 2000);
</script>
</body></html>
"#;

const APP_JS: &str = r#"
var boxes = document.querySelectorAll('div');
var i = 0;
while (i < boxes.length) { i = i + 1; }
"#;

fn build_net() -> SimNet {
    let mut net = SimNet::new(SimRng::new(11));
    net.register(
        "site.test",
        Arc::new(|req: &HttpRequest| match req.url.path() {
            "/" => HttpResponse::html(PAGE),
            "/app.js" => HttpResponse::javascript(APP_JS),
            _ => HttpResponse::html("<html><body>inner</body></html>"),
        }),
    );
    net.register(
        "ads.adnet.test",
        Arc::new(|_: &HttpRequest| HttpResponse::ok("image/png", "PNGDATA")),
    );
    net.register(
        "metrics.test",
        Arc::new(|_: &HttpRequest| HttpResponse::ok("text/plain", "ok")),
    );
    net
}

fn load_default() -> (bfu_browser::Page, SimNet, VirtualClock) {
    let registry = Rc::new(FeatureRegistry::build());
    let browser = Browser::new(registry);
    let mut net = build_net();
    let mut clock = VirtualClock::new();
    let url = Url::parse("http://site.test/").unwrap();
    let page = browser.load(&mut net, &url, &AllowAll, &mut clock).unwrap();
    (page, net, clock)
}

#[test]
fn load_executes_scripts_and_counts_features() {
    let (page, _, _) = load_default();
    assert_eq!(page.stats.script_errors, 0, "{:?}", page.stats);
    assert_eq!(page.stats.scripts_run, 2);
    let registry = FeatureRegistry::build();
    let log = page.log.borrow();
    for name in [
        "Document.prototype.createElement",
        "Node.prototype.appendChild",
        "Document.prototype.querySelector",
        "Document.prototype.querySelectorAll",
        "EventTarget.prototype.addEventListener",
    ] {
        let fid = registry.by_name(name).unwrap();
        assert!(log.saw(fid), "{name} not logged");
    }
}

#[test]
fn click_fires_listener_and_reports_navigation() {
    let (mut page, mut net, mut clock) = load_default();
    let link = page
        .interactive_elements()
        .into_iter()
        .find(|&n| page.api.host.borrow().doc.tag(n) == Some("a"))
        .unwrap();
    let outcome = page.click(link);
    assert_eq!(outcome.listeners_fired, 1);
    assert_eq!(
        outcome.navigation.unwrap().to_string(),
        "http://site.test/news/story1"
    );
    // The listener queued an XHR; pump it.
    let (allowed, blocked) = page.pump_network(&mut net, &AllowAll, &mut clock);
    assert_eq!((allowed, blocked), (1, 0));
    let registry = FeatureRegistry::build();
    assert!(page
        .log
        .borrow()
        .saw(registry.by_name("XMLHttpRequest.prototype.open").unwrap()));
}

#[test]
fn timers_fire_on_virtual_clock() {
    let (mut page, mut net, mut clock) = load_default();
    let start = clock.now();
    let ran = page.run_timers(&mut clock, start.plus(30_000));
    assert_eq!(ran, 1, "the 2s beacon timer fires within the 30s budget");
    let (allowed, _) = page.pump_network(&mut net, &AllowAll, &mut clock);
    assert_eq!(allowed, 1, "beacon request issued");
    let registry = FeatureRegistry::build();
    assert!(page
        .log
        .borrow()
        .saw(registry.by_name("Navigator.prototype.sendBeacon").unwrap()));
}

#[test]
fn timers_do_not_fire_before_due() {
    let (mut page, _, mut clock) = load_default();
    let start = clock.now();
    assert_eq!(page.run_timers(&mut clock, start.plus(100)), 0);
}

/// A policy blocking the ad host and hiding `.ad-slot`.
struct TestBlocker;

impl RequestPolicy for TestBlocker {
    fn decide(&self, req: &HttpRequest) -> Option<String> {
        (req.url.host() == "ads.adnet.test").then(|| "||adnet.test^".to_owned())
    }

    fn hiding_selectors(&self, _domain: &str) -> Vec<String> {
        vec![".ad-slot".to_owned()]
    }
}

#[test]
fn blocking_policy_stops_requests_and_hides_elements() {
    let registry = Rc::new(FeatureRegistry::build());
    let browser = Browser::new(registry);
    let mut net = build_net();
    let mut clock = VirtualClock::new();
    let url = Url::parse("http://site.test/").unwrap();
    let page = browser
        .load(&mut net, &url, &TestBlocker, &mut clock)
        .unwrap();
    assert_eq!(page.stats.requests_blocked, 1, "ad image blocked");
    // The hidden ad container is no longer an interaction candidate.
    let host = page.api.host.borrow();
    let hidden = bfu_dom::Selector::parse(".ad-slot")
        .unwrap()
        .query_first(&host.doc)
        .unwrap();
    assert!(!host.doc.is_visible(hidden));
}

#[test]
fn dead_document_host_is_a_load_error() {
    let registry = Rc::new(FeatureRegistry::build());
    let browser = Browser::new(registry);
    let mut net = build_net();
    let mut clock = VirtualClock::new();
    let url = Url::parse("http://gone.test/").unwrap();
    assert!(browser.load(&mut net, &url, &AllowAll, &mut clock).is_err());
}

#[test]
fn uninstrumented_load_logs_nothing_but_behaves_the_same() {
    let registry = Rc::new(FeatureRegistry::build());
    let mut browser = Browser::new(registry);
    browser.config.instrument = false;
    let mut net = build_net();
    let mut clock = VirtualClock::new();
    let url = Url::parse("http://site.test/").unwrap();
    let page = browser.load(&mut net, &url, &AllowAll, &mut clock).unwrap();
    assert_eq!(page.stats.script_errors, 0);
    assert_eq!(page.log.borrow().total_invocations(), 0);
}

#[test]
fn load_is_deterministic() {
    let run = || {
        let (page, net, clock) = load_default();
        let invocations = page.log.borrow().total_invocations();
        (invocations, page.stats, net.stats(), clock.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn clock_advances_during_load() {
    let (_, _, clock) = load_default();
    assert!(clock.now() > Instant::ZERO);
}

// ---- realm isolation: every page starts from a clean copy of one realm ----

/// Page code that tampers with everything a shared realm could leak: a
/// singleton's method (page code cannot name `Document.prototype`, so it
/// shadows `createElement` on `document`), a prototype method, singleton
/// properties, globals.
const DIRTY: &str = r#"<html><body><script>
  document.createElement = function(tag) { return 7; };
  Node.prototype.appendChild = function(child) { return 0; };
  window.dirty = 1;
  navigator.dirty = 2;
  var leaked = 3;
  function leakedFn() { return 4; }
</script></body></html>"#;

const CLEAN: &str = r#"<html><body><script>
  var el = document.createElement('section');
  document.body.appendChild(el);
  setTimeout(function() {}, 10);
  setTimeout(function() {}, 20);
</script></body></html>"#;

fn isolation_net() -> SimNet {
    let mut net = build_net();
    net.register(
        "dirty.test",
        Arc::new(|_: &HttpRequest| HttpResponse::html(DIRTY)),
    );
    net.register(
        "clean.test",
        Arc::new(|_: &HttpRequest| HttpResponse::html(CLEAN)),
    );
    net
}

fn load(browser: &Browser, net: &mut SimNet, url: &str) -> Page {
    let url = Url::parse(url).unwrap();
    browser
        .load(net, &url, &AllowAll, &mut VirtualClock::new())
        .unwrap()
}

fn eval(page: &mut Page, src: &str) -> String {
    page.interp.run_source(src).unwrap().to_display()
}

fn count(page: &Page, feature: &str) -> u64 {
    let registry = FeatureRegistry::build();
    page.log.borrow().count(registry.by_name(feature).unwrap())
}

fn body_tags(page: &Page) -> Vec<String> {
    let h = page.api.host.borrow();
    let body = h.doc.first_by_tag("body").unwrap();
    h.doc
        .children(body)
        .iter()
        .filter_map(|&n| h.doc.tag(n).map(str::to_owned))
        .collect()
}

#[test]
fn page_code_cannot_leak_into_the_next_page() {
    let browser = Browser::new(Rc::new(FeatureRegistry::build()));
    let mut net = isolation_net();
    let mut dirty = load(&browser, &mut net, "http://dirty.test/");
    assert_eq!(dirty.stats.script_errors, 0, "{:?}", dirty.stats);
    // The tampering took effect on its own page...
    assert_eq!(eval(&mut dirty, "document.createElement('p');"), "7");
    assert_eq!(eval(&mut dirty, "document.body.appendChild(1);"), "0");
    assert_eq!(eval(&mut dirty, "typeof leaked;"), "number");
    assert_eq!(count(&dirty, "Document.prototype.createElement"), 0);

    // ...and on none after it.
    let mut clean = load(&browser, &mut net, "http://clean.test/");
    assert_eq!(clean.stats.script_errors, 0, "{:?}", clean.stats);
    assert_eq!(count(&clean, "Document.prototype.createElement"), 1);
    assert_eq!(count(&clean, "Node.prototype.appendChild"), 1);
    assert!(body_tags(&clean).contains(&"section".to_owned()));
    for probe in [
        "typeof leaked;",
        "typeof leakedFn;",
        "typeof window.dirty;",
        "typeof navigator.dirty;",
    ] {
        assert_eq!(eval(&mut clean, probe), "undefined", "{probe}");
    }
    assert_eq!(
        eval(&mut clean, "typeof document.createElement;"),
        "function"
    );
}

#[test]
fn pages_alive_at_once_share_no_state() {
    let browser = Browser::new(Rc::new(FeatureRegistry::build()));
    let mut net = isolation_net();
    let mut site = load(&browser, &mut net, "http://site.test/");
    let mut clean = load(&browser, &mut net, "http://clean.test/");

    assert_eq!(eval(&mut site, "location.href;"), "http://site.test/");
    assert_eq!(eval(&mut clean, "location.href;"), "http://clean.test/");
    assert_eq!(site.api.host.borrow().timers.len(), 1);
    assert_eq!(clean.api.host.borrow().timers.len(), 2);

    // Script run on the first page after the second loaded lands in the
    // first page's DOM and log only.
    let site_creates = count(&site, "Document.prototype.createElement");
    let clean_creates = count(&clean, "Document.prototype.createElement");
    eval(
        &mut site,
        "document.body.appendChild(document.createElement('aside'));",
    );
    assert!(body_tags(&site).contains(&"aside".to_owned()));
    assert!(!body_tags(&clean).contains(&"aside".to_owned()));
    assert_eq!(
        count(&site, "Document.prototype.createElement"),
        site_creates + 1
    );
    assert_eq!(
        count(&clean, "Document.prototype.createElement"),
        clean_creates
    );

    // Each page's timers drain its own queue into its own log.
    let mut clock = VirtualClock::new();
    let until = clock.now().plus(30_000);
    assert_eq!(clean.run_timers(&mut clock, until), 2);
    assert_eq!(site.api.host.borrow().timers.len(), 1);
    assert_eq!(site.run_timers(&mut clock, until), 1);
    assert_eq!(count(&site, "Navigator.prototype.sendBeacon"), 1);
    assert_eq!(count(&clean, "Navigator.prototype.sendBeacon"), 0);
}

#[test]
fn flipping_instrumentation_takes_effect_on_the_next_load() {
    let mut browser = Browser::new(Rc::new(FeatureRegistry::build()));
    let mut net = build_net();
    let instrumented = load(&browser, &mut net, "http://site.test/");
    assert!(instrumented.log.borrow().total_invocations() > 0);

    browser.config.instrument = false;
    let bare = load(&browser, &mut net, "http://site.test/");
    assert_eq!(bare.log.borrow().total_invocations(), 0);
    assert_eq!(bare.stats, instrumented.stats);

    browser.config.instrument = true;
    let again = load(&browser, &mut net, "http://site.test/");
    assert_eq!(
        again.log.borrow().total_invocations(),
        instrumented.log.borrow().total_invocations()
    );
}

enum Resource {
    Inline(String),
    External(String, ResourceType),
}

/// The load path with a realm booted from scratch for the page — a new
/// interpreter, `api::install`, `install_with_index` — and otherwise the
/// steps of `Browser::load` with no compile cache under [`AllowAll`]. The
/// reference the browser's copied realms are held to.
fn load_booting_from_scratch(
    browser: &Browser,
    prop_index: &PropIndex,
    net: &mut SimNet,
    url: &Url,
    clock: &mut VirtualClock,
) -> Option<Page> {
    let config = &browser.config;
    let mut stats = LoadStats {
        requests_attempted: 1,
        ..LoadStats::default()
    };
    let resp = net
        .fetch(
            &HttpRequest::get(url.clone(), ResourceType::Document),
            clock,
        )
        .ok()
        .filter(|r| r.status.is_success())?;
    let doc = html::parse(&String::from_utf8_lossy(&resp.body));
    let host = Rc::new(RefCell::new(HostEnv::new(doc, url.clone())));
    host.borrow_mut().now = clock.now();
    let mut interp = Interpreter::new();
    let api = api::install(&mut interp, &browser.registry, host.clone());
    let log = Rc::new(RefCell::new(FeatureLog::new()));
    Instrumentation::install_with_index(
        &mut interp,
        &api,
        &browser.registry,
        log.clone(),
        prop_index,
    );
    let doc_obj = api.singletons[1].1;
    for (prop, tag) in [
        ("body", "body"),
        ("head", "head"),
        ("documentElement", "html"),
    ] {
        let node = host.borrow().doc.first_by_tag(tag);
        if let Some(n) = node {
            let v = api::wrap_node(&mut interp, &host, &api.prototypes, n);
            interp.heap.set_prop_raw(doc_obj, prop, v);
        }
    }

    let run = |interp: &mut Interpreter, src: &str, stats: &mut LoadStats| {
        stats.scripts_run += 1;
        if src.len() > config.max_script_bytes {
            stats.script_errors += 1;
            stats.script_oversize_errors += 1;
            return;
        }
        let Ok(program) = bfu_script::parser::parse(src) else {
            stats.script_errors += 1;
            stats.script_parse_errors += 1;
            return;
        };
        interp.set_budget(&config.run_budget());
        let result = match compile(&program) {
            Ok(chunk) => run_chunk(interp, &chunk),
            Err(_) => interp.run(&program),
        };
        if let Err(e) = result {
            stats.script_errors += 1;
            match e {
                RuntimeError::OutOfFuel => stats.script_budget_errors += 1,
                RuntimeError::HeapExhausted | RuntimeError::StringOverflow => {
                    stats.script_heap_errors += 1;
                }
                RuntimeError::StackOverflow => stats.script_depth_errors += 1,
                RuntimeError::TypeError(_) | RuntimeError::ReferenceError(_) => {}
            }
        }
    };
    let resources: Vec<Resource> = {
        let h = host.borrow();
        let external = |n, attr, rtype| {
            h.doc
                .attr(n, attr)
                .map(|t| Resource::External(t.to_owned(), rtype))
        };
        h.doc
            .elements()
            .into_iter()
            .filter_map(|n| match h.doc.tag(n)? {
                "script" => external(n, "src", ResourceType::Script)
                    .or_else(|| Some(Resource::Inline(h.doc.text_content(n)))),
                "img" => external(n, "src", ResourceType::Image),
                "iframe" => external(n, "src", ResourceType::SubDocument),
                "link" if h.doc.attr(n, "rel") == Some("stylesheet") => {
                    external(n, "href", ResourceType::Stylesheet)
                }
                _ => None,
            })
            .collect()
    };
    for res in resources.into_iter().take(config.max_subresources) {
        let (target, rtype) = match res {
            Resource::Inline(src) => {
                host.borrow_mut().now = clock.now();
                run(&mut interp, &src, &mut stats);
                continue;
            }
            Resource::External(target, rtype) => (target, rtype),
        };
        let Ok(res_url) = url.join(&target) else {
            continue;
        };
        stats.requests_attempted += 1;
        let req = HttpRequest::get(res_url.clone(), rtype).with_initiator(url.clone());
        let body = match net.fetch(&req, clock) {
            Ok(r) if r.status.is_success() => String::from_utf8_lossy(&r.body).into_owned(),
            _ => {
                stats.requests_failed += 1;
                continue;
            }
        };
        match rtype {
            ResourceType::Script => {
                host.borrow_mut().now = clock.now();
                run(&mut interp, &body, &mut stats);
            }
            ResourceType::SubDocument => {
                for script in extract_frame_scripts(&body) {
                    match script {
                        FrameScript::Inline(src) => run(&mut interp, &src, &mut stats),
                        FrameScript::External(target) => {
                            let Ok(u) = res_url.join(&target) else {
                                continue;
                            };
                            stats.requests_attempted += 1;
                            let req = HttpRequest::get(u, ResourceType::Script)
                                .with_initiator(res_url.clone());
                            match net.fetch(&req, clock) {
                                Ok(r) if r.status.is_success() => {
                                    let src = String::from_utf8_lossy(&r.body).into_owned();
                                    host.borrow_mut().now = clock.now();
                                    run(&mut interp, &src, &mut stats);
                                }
                                _ => stats.requests_failed += 1,
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Some(Page {
        url: url.clone(),
        config: config.clone(),
        interp,
        api,
        log,
        stats,
    })
}

/// Load and interact the same way with either path; returns what a crawl
/// keeps from the page.
fn visit(
    mut page: Page,
    net: &mut SimNet,
    clock: &mut VirtualClock,
) -> (LoadStats, Vec<(bfu_webidl::FeatureId, u64)>, Vec<Url>) {
    let start = clock.now();
    for target in page.interactive_elements().into_iter().take(8) {
        page.click(target);
    }
    page.scroll();
    page.run_timers(clock, start.plus(5_000));
    page.pump_network(net, &AllowAll, clock);
    let log = page.log.borrow();
    let counts = log
        .features()
        .into_iter()
        .map(|f| (f, log.count(f)))
        .collect();
    (page.stats, counts, page.links())
}

#[test]
fn copied_realms_measure_exactly_like_realms_booted_from_scratch() {
    let web = SyntheticWeb::generate(WebConfig {
        sites: 36,
        seed: 0x5EA1,
        script_weight: 0,
    });
    let registry = Rc::new((**web.registry()).clone());
    let browser = Browser::with_config(
        registry.clone(),
        BrowserConfig {
            script_fuel: 40_000,
            callback_fuel: 10_000,
            max_heap_cells: 4_000,
            max_string_bytes: 64_000,
            max_call_depth: 48,
            max_timer_callbacks: 200,
            ..BrowserConfig::default()
        },
    );
    let prop_index = PropIndex::build(&registry);
    // Two identical worlds, so both paths see the same network draws.
    let world = || {
        let mut net = SimNet::new(SimRng::new(7));
        web.install_into(&mut net);
        HostilePlan::new(0xBAD, 300).install_into(&web, &mut net);
        (net, VirtualClock::new())
    };
    let (mut net_a, mut clock_a) = world();
    let (mut net_b, mut clock_b) = world();
    let mut compared = 0;
    let mut trips = 0;
    for plan in &web.core().plans {
        let mut frontier = vec![Url::parse(&format!("http://{}/", plan.site.domain)).unwrap()];
        for _ in 0..2 {
            let Some(url) = frontier.pop() else { break };
            let copied = browser.load(&mut net_a, &url, &AllowAll, &mut clock_a);
            let scratch =
                load_booting_from_scratch(&browser, &prop_index, &mut net_b, &url, &mut clock_b);
            let (Ok(copied), Some(scratch)) = (copied, scratch) else {
                continue;
            };
            let a = visit(copied, &mut net_a, &mut clock_a);
            let b = visit(scratch, &mut net_b, &mut clock_b);
            assert_eq!(a, b, "{url}");
            trips += a.0.budget_trips();
            assert_eq!(clock_a.now(), clock_b.now(), "{url}");
            compared += 1;
            frontier = a.2.into_iter().rev().take(1).collect();
        }
    }
    assert!(compared >= 36, "only {compared} pages compared");
    assert!(trips > 0, "the hostile pages must trip the governor");
}
