//! Materializing the synthetic web: plans → virtual origin servers.
//!
//! [`SyntheticWeb::generate`] builds the ranking, ecosystem, blocklists and
//! every site plan; [`SyntheticWeb::install_into`] registers one server per
//! site domain and per third-party host on a [`SimNet`], and marks the dead
//! sites (the paper's 267 unmeasurable domains) in the fault plan.
//!
//! Servers answer from the immutable [`WebCore`], so crawls parallelize
//! across threads. A crawl fetches each script many times: once per
//! browser profile and round, plus retries. The core therefore renders each
//! (site, page, party) script once, on its first request, under a lock per
//! site, and every later fetch of it is served that same allocation. The
//! bytes served never change, only when they are rendered. The memo lives
//! as long as the web and holds every script fetched so far: 54 MB after
//! a 50-site crawl at script weight 400 (perfbench's `script-heavy`, seed
//! 1), ~35 KB per crawled site at weight 0. The compile cache keeps these
//! same allocations as its sources, so they are not stored twice.

use crate::alexa::{AlexaRanking, SiteId};
use crate::calibrate::{self, StandardPrior};
use crate::ecosystem::{Ecosystem, PartyKind};
use crate::filters::{self, BlocklistBundle};
use crate::script_gen;
use crate::site::{self, Party, SitePlan};
use bfu_net::{Body, FaultPlan, HttpRequest, HttpResponse, SimNet, StatusCode};
use bfu_util::SimRng;
use bfu_webidl::FeatureRegistry;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Number of ranked sites (the paper: 10,000).
    pub sites: usize,
    /// Master seed: same seed → byte-identical web.
    pub seed: u64,
    /// Number of inert library functions prepended to every non-empty
    /// generated script, modelling the bundled library code real pages ship
    /// (parsed in full, mostly never executed). The preamble is wrapped in a
    /// single never-called function, so it costs the engine parsing only —
    /// feature measurements are unaffected. `0` (the default) emits scripts
    /// byte-identical to a web generated before this knob existed; the crawl
    /// benchmark raises it to give scripts production-like parse weight.
    pub script_weight: u32,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            sites: 10_000,
            seed: 0xB40_53ED,
            script_weight: 0,
        }
    }
}

/// Immutable core shared by every virtual server.
#[derive(Debug)]
pub struct WebCore {
    /// Configuration used.
    pub config: WebConfig,
    /// The ranking.
    pub ranking: AlexaRanking,
    /// The third-party world.
    pub ecosystem: Ecosystem,
    /// Calibration priors.
    pub priors: Vec<StandardPrior>,
    /// Every site's plan, in rank order.
    pub plans: Vec<SitePlan>,
    /// The feature universe.
    pub registry: Arc<FeatureRegistry>,
    /// Generated blocklists.
    pub lists: BlocklistBundle,
    /// Every script rendered so far.
    scripts: ScriptMemo,
}

/// Rendered scripts, per site, keyed by page index and party.
struct ScriptMemo(Vec<Mutex<HashMap<(usize, Party), Body>>>);

impl fmt::Debug for ScriptMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScriptMemo({} sites)", self.0.len())
    }
}

impl WebCore {
    /// The script `party` serves on page `page_ix` of site `site_ix`,
    /// rendered on its first request and shared by every later one.
    fn script(&self, site_ix: usize, page_ix: usize, party: Party) -> Body {
        let mut site = match self.scripts.0[site_ix].lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        let body = site.entry((page_ix, party)).or_insert_with(|| {
            let host = match party {
                Party::First => None,
                Party::Third(ix) => Some(self.ecosystem.party(ix).host.as_str()),
            };
            let plan = &self.plans[site_ix];
            let weight = self.config.script_weight;
            script_gen::generate_script(plan, page_ix, party, host, &self.registry, weight).into()
        });
        body.clone()
    }
}

/// The synthetic web.
#[derive(Debug, Clone)]
pub struct SyntheticWeb {
    core: Arc<WebCore>,
}

impl SyntheticWeb {
    /// Generate everything from a config.
    pub fn generate(config: WebConfig) -> SyntheticWeb {
        let rng = SimRng::new(config.seed);
        let registry = Arc::new(FeatureRegistry::build());
        let ranking = AlexaRanking::generate(config.sites, &rng);
        let ecosystem = Ecosystem::generate(&rng);
        let priors = calibrate::priors();
        let lists = filters::generate_lists(&ecosystem, &rng);
        let plans: Vec<SitePlan> = ranking
            .sites()
            .iter()
            .map(|s| site::generate_site(s, &ranking, &priors, &ecosystem, &registry, &rng))
            .collect();
        let scripts = ScriptMemo(plans.iter().map(|_| Mutex::default()).collect());
        SyntheticWeb {
            core: Arc::new(WebCore {
                config,
                ranking,
                ecosystem,
                priors,
                plans,
                registry,
                lists,
                scripts,
            }),
        }
    }

    /// Shared core.
    pub fn core(&self) -> &Arc<WebCore> {
        &self.core
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.core.plans.len()
    }

    /// One site's plan.
    pub fn plan(&self, id: SiteId) -> &SitePlan {
        &self.core.plans[id.index()]
    }

    /// The feature registry.
    pub fn registry(&self) -> &Arc<FeatureRegistry> {
        &self.core.registry
    }

    /// Generated blocklists.
    pub fn lists(&self) -> &BlocklistBundle {
        &self.core.lists
    }

    /// Register every site and third-party server on `net` and mark dead
    /// hosts in the fault plan. Returns the number of hosts registered.
    pub fn install_into(&self, net: &mut SimNet) -> usize {
        let mut faults = FaultPlan::none();
        let mut hosts = 0;
        for (ix, plan) in self.core.plans.iter().enumerate() {
            let core = self.core.clone();
            let host = plan.site.domain.clone();
            net.register(
                &host,
                Arc::new(move |req: &HttpRequest| site_server(&core, ix, req)),
            );
            if plan.dead {
                faults.kill_host(&plan.site.domain);
            }
            hosts += 1;
        }
        for (pix, party) in self.core.ecosystem.parties.iter().enumerate() {
            let core = self.core.clone();
            net.register(
                &party.host,
                Arc::new(move |req: &HttpRequest| party_server(&core, pix, req)),
            );
            hosts += 1;
        }
        net.set_faults(faults);
        hosts
    }

    /// The HTML a site serves for one of its pages (exposed for tests).
    pub fn html_for(&self, site: SiteId, page_ix: usize) -> String {
        render_page(&self.core, site.index(), page_ix)
    }
}

/// Parse `k=v&k2=v2` query strings.
fn query_param(req: &HttpRequest, key: &str) -> Option<usize> {
    req.url.query()?.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == key).then(|| v.parse().ok())?
    })
}

fn site_server(core: &WebCore, site_ix: usize, req: &HttpRequest) -> HttpResponse {
    let plan = &core.plans[site_ix];
    let path = req.url.path();
    if path == "/assets/app.js" {
        let page_ix = query_param(req, "p").unwrap_or(0).min(plan.pages.len() - 1);
        return HttpResponse::javascript(core.script(site_ix, page_ix, Party::First));
    }
    if path == "/favicon.ico" {
        return HttpResponse::ok("image/x-icon", "ICO");
    }
    match plan.pages.iter().position(|p| p.path == path) {
        Some(page_ix) => HttpResponse::html(render_page(core, site_ix, page_ix)),
        None => HttpResponse::status(StatusCode::NOT_FOUND),
    }
}

fn party_server(core: &WebCore, party_ix: usize, req: &HttpRequest) -> HttpResponse {
    let path = req.url.path();
    match path {
        "/serve.js" => {
            let site_ix = query_param(req, "s").unwrap_or(0).min(core.plans.len() - 1);
            let pages = core.plans[site_ix].pages.len();
            let page_ix = query_param(req, "p").unwrap_or(0).min(pages - 1);
            HttpResponse::javascript(core.script(site_ix, page_ix, Party::Third(party_ix)))
        }
        "/frame" => {
            let s = query_param(req, "s").unwrap_or(0);
            let p = query_param(req, "p").unwrap_or(0);
            HttpResponse::html(format!(
                "<html><body><div class=\"ad-creative\">ad</div>\
                 <script src=\"/serve.js?s={s}&p={p}\"></script></body></html>"
            ))
        }
        "/px.gif" | "/banner.png" => HttpResponse::ok("image/gif", "GIF89a"),
        "/collect" | "/beacon" | "/data" => HttpResponse::ok("text/plain", "ok"),
        _ => HttpResponse::status(StatusCode::NOT_FOUND),
    }
}

/// Render a page's HTML: nav links, content, forms, and third-party embeds.
fn render_page(core: &WebCore, site_ix: usize, page_ix: usize) -> String {
    let plan = &core.plans[site_ix];
    let page = &plan.pages[page_ix];
    let mut html = String::with_capacity(2048);
    let _ = write!(
        html,
        "<!DOCTYPE html><html><head><title>{} — {}</title>",
        plan.site.domain, page.path
    );
    if !plan.no_js {
        let _ = write!(html, "<script src=\"/assets/app.js?p={page_ix}\"></script>");
    }
    html.push_str("</head><body>");

    // Navigation: links to the page's plan neighbours plus one offsite link.
    html.push_str("<nav>");
    for &target in &page.links_to {
        let _ = write!(
            html,
            "<a href=\"{}\">{}</a> ",
            plan.pages[target].path,
            if plan.pages[target].section.is_empty() {
                "home"
            } else {
                &plan.pages[target].section
            }
        );
    }
    let offsite = &core.plans[(site_ix + 1) % core.plans.len()].site.domain;
    let _ = write!(html, "<a href=\"http://{offsite}/\">partner</a>");
    html.push_str("</nav>");

    // Content: headings, paragraphs, a form — monkey fodder.
    let _ = write!(
        html,
        "<main><h1>{}</h1><p>Section {} of {}.</p>\
         <div id=\"content\"><p>Lorem ipsum telemetry dolor sit.</p>\
         <button id=\"more\">more</button></div>\
         <form action=\"/search\"><input type=\"text\" name=\"q\"></form>",
        if page.section.is_empty() {
            "Home"
        } else {
            &page.section
        },
        page.path,
        plan.site.domain
    );

    // Third-party embeds, but only for parties with something to run here
    // (others contribute pixels, as trackers commonly do).
    if !plan.no_js {
        let with_placements: Vec<usize> = plan
            .embedded_parties()
            .into_iter()
            .filter(|&ix| {
                plan.placements
                    .iter()
                    .any(|p| p.party == Party::Third(ix) && plan.applies_on(p, page_ix))
            })
            .collect();
        for &party_ix in &with_placements {
            let party = core.ecosystem.party(party_ix);
            // A third of ad placements arrive inside frames (the iframe ad
            // path the paper's H-CM discussion concerns).
            let framed =
                party.kind == PartyKind::AdNetwork && (site_ix + party_ix).is_multiple_of(3);
            if framed {
                let _ = write!(
                    html,
                    "<div class=\"ad-slot\"><iframe src=\"http://{}/frame?s={site_ix}&p={page_ix}\"></iframe></div>",
                    party.host
                );
            } else {
                let class = match party.kind {
                    PartyKind::AdNetwork => "ad-slot",
                    _ => "embed",
                };
                let _ = write!(
                    html,
                    "<div class=\"{class}\"><script src=\"http://{}/serve.js?s={site_ix}&p={page_ix}\"></script></div>",
                    party.host
                );
            }
        }
        // Pixels from every embedded tracker (even placement-less ones).
        for &t in &plan.tracker_parties {
            let _ = write!(
                html,
                "<img src=\"http://{}/px.gif?s={site_ix}\" width=\"1\" height=\"1\">",
                core.ecosystem.party(t).host
            );
        }
    }
    html.push_str("</main></body></html>");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfu_net::{ResourceType, Url};
    use bfu_util::VirtualClock;

    fn small_web() -> SyntheticWeb {
        SyntheticWeb::generate(WebConfig {
            sites: 40,
            seed: 77,
            script_weight: 0,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_web();
        let b = small_web();
        assert_eq!(a.html_for(SiteId::new(3), 0), b.html_for(SiteId::new(3), 0));
        assert_eq!(a.lists().easylist, b.lists().easylist);
    }

    #[test]
    fn install_registers_all_hosts() {
        let web = small_web();
        let mut net = SimNet::new(SimRng::new(1));
        let hosts = web.install_into(&mut net);
        assert_eq!(hosts, 40 + 105);
        assert!(net.resolves(&web.plan(SiteId::new(0)).site.domain));
    }

    #[test]
    fn dead_sites_marked_in_fault_plan() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 2000,
            seed: 9,
            script_weight: 0,
        });
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let dead_planned = web.core().plans.iter().filter(|p| p.dead).count();
        assert_eq!(net.faults().dead_host_count(), dead_planned);
        // ~2.67% of sites: allow a generous band.
        assert!(
            (20..=90).contains(&dead_planned),
            "dead sites: {dead_planned}/2000"
        );
    }

    #[test]
    fn pages_serve_html_and_scripts() {
        let web = small_web();
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let mut clock = VirtualClock::new();
        let domain = &web.plan(SiteId::new(1)).site.domain;
        let resp = net
            .fetch(
                &HttpRequest::get(
                    Url::parse(&format!("http://{domain}/")).unwrap(),
                    ResourceType::Document,
                ),
                &mut clock,
            )
            .unwrap();
        assert!(resp.status.is_success());
        let body = String::from_utf8_lossy(&resp.body);
        assert!(body.contains("app.js"));
        let js = net
            .fetch(
                &HttpRequest::get(
                    Url::parse(&format!("http://{domain}/assets/app.js?p=0")).unwrap(),
                    ResourceType::Script,
                ),
                &mut clock,
            )
            .unwrap();
        assert_eq!(js.content_type(), Some("application/javascript"));
    }

    #[test]
    fn party_servers_serve_site_specific_scripts() {
        let web = small_web();
        // Find a site with a third-party placement.
        let (site_ix, party_ix) = web
            .core()
            .plans
            .iter()
            .enumerate()
            .find_map(|(i, p)| {
                p.placements.iter().find_map(|pl| match pl.party {
                    Party::Third(t) => Some((i, t)),
                    Party::First => None,
                })
            })
            .expect("some third-party placement exists");
        let host = &web.core().ecosystem.party(party_ix).host;
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let mut clock = VirtualClock::new();
        let resp = net
            .fetch(
                &HttpRequest::get(
                    Url::parse(&format!("http://{host}/serve.js?s={site_ix}&p=0")).unwrap(),
                    ResourceType::Script,
                ),
                &mut clock,
            )
            .unwrap();
        let body = String::from_utf8_lossy(&resp.body);
        assert!(resp.status.is_success());
        // Script mentions the site it was generated for.
        let domain = &web.plan(SiteId::from_usize(site_ix)).site.domain;
        assert!(
            body.is_empty() || body.contains(domain.as_str()),
            "script not site-specific: {body}"
        );
    }

    #[test]
    fn scripts_render_once_and_match_the_generator() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 40,
            seed: 77,
            script_weight: 3,
        });
        let core = web.core();
        let render = |site: usize, page: usize, party: Party| {
            let host = match party {
                Party::First => None,
                Party::Third(ix) => Some(core.ecosystem.party(ix).host.as_str()),
            };
            let plan = &core.plans[site];
            script_gen::generate_script(plan, page, party, host, &core.registry, 3)
        };
        // A site whose first party runs script on pages 0 and 1 and whose
        // first third-party placement runs on page 0.
        let (site, party) = (0..core.plans.len())
            .find_map(|s| {
                let plan = &core.plans[s];
                let party = plan.placements.iter().find_map(|p| match p.party {
                    Party::Third(t) => Some(Party::Third(t)),
                    Party::First => None,
                })?;
                let scripted = [(0, Party::First), (1, Party::First), (0, party)]
                    .iter()
                    .all(|&(page, who)| !render(s, page, who).is_empty());
                scripted.then_some((s, party))
            })
            .expect("some site scripts both parties");
        let Party::Third(party_ix) = party else {
            unreachable!()
        };
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let mut clock = VirtualClock::new();
        let mut fetch = |url: String| {
            let req = HttpRequest::get(Url::parse(&url).unwrap(), ResourceType::Script);
            net.fetch(&req, &mut clock).unwrap().body
        };
        let domain = &core.plans[site].site.domain;
        let host = &core.ecosystem.party(party_ix).host;
        let first = fetch(format!("http://{domain}/assets/app.js?p=0"));
        let again = fetch(format!("http://{domain}/assets/app.js?p=0"));
        let page1 = fetch(format!("http://{domain}/assets/app.js?p=1"));
        let third = fetch(format!("http://{host}/serve.js?s={site}&p=0"));
        let third_again = fetch(format!("http://{host}/serve.js?s={site}&p=0"));
        assert_eq!(&first[..], render(site, 0, Party::First).as_bytes());
        assert_eq!(&page1[..], render(site, 1, Party::First).as_bytes());
        assert_eq!(&third[..], render(site, 0, party).as_bytes());
        assert!(Arc::ptr_eq(first.shared(), again.shared()));
        assert!(Arc::ptr_eq(third.shared(), third_again.shared()));
        assert_ne!(first, page1);
        assert_ne!(first, third);
        // Out-of-range queries are clamped before the memo is consulted.
        let last = core.plans[site].pages.len() - 1;
        let clamped = fetch(format!("http://{domain}/assets/app.js?p=999"));
        let direct = fetch(format!("http://{domain}/assets/app.js?p={last}"));
        assert!(Arc::ptr_eq(clamped.shared(), direct.shared()));
    }

    #[test]
    fn unknown_paths_404() {
        let web = small_web();
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let mut clock = VirtualClock::new();
        let domain = &web.plan(SiteId::new(0)).site.domain;
        let resp = net
            .fetch(
                &HttpRequest::get(
                    Url::parse(&format!("http://{domain}/no/such/page")).unwrap(),
                    ResourceType::Document,
                ),
                &mut clock,
            )
            .unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn no_js_sites_have_no_scripts() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 500,
            seed: 3,
            script_weight: 0,
        });
        let no_js = web
            .core()
            .plans
            .iter()
            .position(|p| p.no_js)
            .expect("some no-js site in 500");
        let html = web.html_for(SiteId::from_usize(no_js), 0);
        assert!(!html.contains("<script"));
    }
}
