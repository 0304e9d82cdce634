//! Adversarial web mode: seeded hostile-page generation.
//!
//! The benign synthetic web is calibrated to the paper's Table 2; this
//! module is its stress-test twin. A [`HostilePlan`] deterministically
//! replaces a seeded fraction of live sites with pages drawn from a small
//! taxonomy of real-world pathologies ([`HostileClass`]): infinite loops,
//! unbounded recursion, allocation and string bombs, prototype-chain abuse,
//! parser nesting bombs, malformed source, and timer storms.
//!
//! Every hostile page performs one *benign* instrumented call before it
//! turns hostile, so a correctly governed browser still harvests a partial
//! feature log from the visit — the chaos suite asserts exactly that.
//! Installation re-registers the chosen sites' servers on the simulated
//! network *after* [`SyntheticWeb::install_into`], leaving dead hosts and
//! the fault plan untouched.

use crate::web::SyntheticWeb;
use bfu_net::{Body, HttpRequest, HttpResponse, SimNet};
use bfu_util::Fnv64;
use std::sync::Arc;

/// One family of hostile page behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostileClass {
    /// `while (true)` — burns the step budget.
    InfiniteLoop,
    /// Self-recursion without a base case — trips the call-depth budget.
    DeepRecursion,
    /// Allocates objects forever — trips the heap-cell budget.
    AllocBomb,
    /// Doubles a string each iteration — trips the string-byte budget.
    StringBomb,
    /// Builds pathological prototype chains and hammers misses on them.
    ProtoCycle,
    /// Thousands of nested parentheses — trips the parser depth guard.
    DeepNesting,
    /// Token soup — a plain parse error.
    MalformedSource,
    /// Schedules hundreds of 1 ms intervals — stresses the timer-drain cap.
    TimerStorm,
}

impl HostileClass {
    /// Every class, in stable order (selection indexes into this).
    pub const ALL: [HostileClass; 8] = [
        HostileClass::InfiniteLoop,
        HostileClass::DeepRecursion,
        HostileClass::AllocBomb,
        HostileClass::StringBomb,
        HostileClass::ProtoCycle,
        HostileClass::DeepNesting,
        HostileClass::MalformedSource,
        HostileClass::TimerStorm,
    ];

    /// Diagnostic label.
    pub fn label(self) -> &'static str {
        match self {
            HostileClass::InfiniteLoop => "infinite-loop",
            HostileClass::DeepRecursion => "deep-recursion",
            HostileClass::AllocBomb => "alloc-bomb",
            HostileClass::StringBomb => "string-bomb",
            HostileClass::ProtoCycle => "proto-cycle",
            HostileClass::DeepNesting => "deep-nesting",
            HostileClass::MalformedSource => "malformed-source",
            HostileClass::TimerStorm => "timer-storm",
        }
    }

    /// The hostile script body (after the benign prefix).
    fn payload(self) -> String {
        match self {
            HostileClass::InfiniteLoop => "var i = 0; while (true) { i = i + 1; }".to_owned(),
            HostileClass::DeepRecursion => "function r(n) { return r(n + 1); } r(0);".to_owned(),
            HostileClass::AllocBomb => {
                "var a = []; var i = 0; while (true) { a[i] = { x: i }; i = i + 1; }".to_owned()
            }
            HostileClass::StringBomb => {
                "var s = 'xxxxxxxxxxxxxxxx'; while (true) { s = s + s; }".to_owned()
            }
            HostileClass::ProtoCycle => {
                // Constructor-built chains plus a miss-lookup loop: every
                // read walks the whole chain, so lookups dominate the step
                // budget (the heap itself bounds cyclic walks).
                "function C() {} var o = new C(); var i = 0; \
                 while (true) { C.prototype = o; o = new C(); var m = o.missing; i = i + 1; }"
                    .to_owned()
            }
            HostileClass::DeepNesting => {
                format!("var x = {}1{};", "(".repeat(3_000), ")".repeat(3_000))
            }
            HostileClass::MalformedSource => ")]} var ;; = = 7 ((( function".to_owned(),
            HostileClass::TimerStorm => {
                "var k = 0; while (k < 400) { setInterval(function () { var w = 1; }, 1); \
                 k = k + 1; }"
                    .to_owned()
            }
        }
    }

    /// The full page script: one instrumented call first, so a governed
    /// browser keeps a partial feature log even when the payload traps.
    pub fn script(self) -> String {
        format!(
            "var benign = document.createElement('div');\n{}",
            self.payload()
        )
    }
}

/// A seeded plan for which sites turn hostile and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostilePlan {
    /// Selection/assignment seed (independent of the web's own seed).
    pub seed: u64,
    /// Sites made hostile, per thousand (1000 = the whole web).
    pub fraction_per_mille: u32,
}

impl HostilePlan {
    /// A plan converting `fraction_per_mille`/1000 of sites, seeded.
    pub fn new(seed: u64, fraction_per_mille: u32) -> Self {
        HostilePlan {
            seed,
            fraction_per_mille: fraction_per_mille.min(1000),
        }
    }

    /// A plan that converts every site.
    pub fn total(seed: u64) -> Self {
        HostilePlan::new(seed, 1000)
    }

    fn site_hash(&self, site_ix: usize) -> u64 {
        let mut f = Fnv64::new();
        f.write(b"bfu-hostile-site");
        f.write_u64(self.seed);
        f.write_u64(site_ix as u64);
        f.finish()
    }

    /// The hostile class assigned to `site_ix`, or `None` if the site stays
    /// benign. Depends only on `(seed, site_ix)` — never on thread layout.
    pub fn class_for(&self, site_ix: usize) -> Option<HostileClass> {
        let h = self.site_hash(site_ix);
        if h % 1000 >= u64::from(self.fraction_per_mille) {
            return None;
        }
        let pick = (h >> 32) as usize % HostileClass::ALL.len();
        Some(HostileClass::ALL[pick])
    }

    /// Re-register every selected live site's server with a hostile page.
    /// Dead sites keep their DeadHost fault; the fault plan is untouched
    /// (call after [`SyntheticWeb::install_into`]). Returns the number of
    /// sites converted.
    pub fn install_into(&self, web: &SyntheticWeb, net: &mut SimNet) -> usize {
        let mut converted = 0;
        for (ix, plan) in web.core().plans.iter().enumerate() {
            if plan.dead {
                continue;
            }
            let Some(class) = self.class_for(ix) else {
                continue;
            };
            let body = Body::from(hostile_page(class));
            net.register(
                &plan.site.domain,
                Arc::new(move |_req: &HttpRequest| HttpResponse::html(body.clone())),
            );
            converted += 1;
        }
        converted
    }

    /// Stable identity of the plan, mixed into survey fingerprints.
    pub fn digest(&self) -> u64 {
        let mut f = Fnv64::new();
        f.write(b"bfu-hostile-plan-v1");
        f.write_u64(self.seed);
        f.write_u64(u64::from(self.fraction_per_mille));
        f.finish()
    }
}

/// The HTML every path of a hostile site serves: one inline hostile script
/// and a same-site link so crawl planners still find a frontier.
fn hostile_page(class: HostileClass) -> String {
    format!(
        "<html><head><script>{}</script></head>\
         <body><p>{}</p><a href=\"/next\">next</a></body></html>",
        class.script(),
        class.label()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::WebConfig;
    use bfu_net::Url;
    use bfu_util::SimRng;

    #[test]
    fn selection_is_deterministic_and_fraction_bounded() {
        let plan = HostilePlan::new(7, 250);
        let again = HostilePlan::new(7, 250);
        let picks: Vec<_> = (0..2_000).map(|ix| plan.class_for(ix)).collect();
        let picks_again: Vec<_> = (0..2_000).map(|ix| again.class_for(ix)).collect();
        assert_eq!(picks, picks_again);
        let hostile = picks.iter().filter(|c| c.is_some()).count();
        // 250/1000 of 2000 = 500 expected; allow generous hash slack.
        assert!((350..650).contains(&hostile), "hostile sites: {hostile}");
    }

    #[test]
    fn total_plan_uses_every_class() {
        let plan = HostilePlan::total(3);
        let mut seen = std::collections::HashSet::new();
        for ix in 0..200 {
            seen.insert(plan.class_for(ix));
        }
        assert!(!seen.contains(&None));
        assert_eq!(seen.len(), HostileClass::ALL.len(), "all classes drawn");
    }

    #[test]
    fn zero_fraction_converts_nothing() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 20,
            seed: 9,
            script_weight: 0,
        });
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        assert_eq!(HostilePlan::new(1, 0).install_into(&web, &mut net), 0);
    }

    #[test]
    fn install_replaces_live_sites_and_spares_dead_ones() {
        let web = SyntheticWeb::generate(WebConfig {
            sites: 40,
            seed: 9,
            script_weight: 0,
        });
        let mut net = SimNet::new(SimRng::new(1));
        web.install_into(&mut net);
        let plan = HostilePlan::total(5);
        let live = web.core().plans.iter().filter(|p| !p.dead).count();
        assert_eq!(plan.install_into(&web, &mut net), live);
        // A converted site now serves the hostile page on every path.
        let victim = web
            .core()
            .plans
            .iter()
            .find(|p| !p.dead)
            .expect("live site");
        let url = Url::parse(&format!("http://{}/any/path", victim.site.domain)).unwrap();
        let mut clock = bfu_util::VirtualClock::new();
        let req = HttpRequest::get(url, bfu_net::ResourceType::Document);
        let resp = net.fetch(&req, &mut clock).unwrap();
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(body.contains("<script>"), "hostile page served");
    }

    #[test]
    fn digest_distinguishes_plans() {
        assert_ne!(
            HostilePlan::new(1, 100).digest(),
            HostilePlan::new(2, 100).digest()
        );
        assert_ne!(
            HostilePlan::new(1, 100).digest(),
            HostilePlan::new(1, 200).digest()
        );
    }
}
