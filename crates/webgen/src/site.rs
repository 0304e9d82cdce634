//! Per-site plans: page graphs, third parties, and feature placements.
//!
//! A [`SitePlan`] is the generator's ground truth for one site: which pages
//! exist and how they link, which third parties the site embeds, and — the
//! heart of the calibration — which features execute, from which party's
//! scripts, under which trigger. The crawler then *measures* all of this
//! through the instrumented browser; nothing below is fed to the analysis
//! directly.

use crate::alexa::{AlexaRanking, RankedSite, SiteCategory};
use crate::calibrate::StandardPrior;
use crate::ecosystem::{Ecosystem, PartyKind};
use bfu_util::SimRng;
use bfu_webidl::{FeatureId, FeatureRegistry};

/// Who serves the script that invokes a feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// The site's own scripts.
    First,
    /// A third party (index into [`Ecosystem::parties`]).
    Third(usize),
}

/// When a placement's code runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// During page load.
    OnLoad,
    /// After a `setTimeout` of this many virtual milliseconds.
    Timer(u64),
    /// Inside a click/scroll/input handler.
    Interaction,
}

/// Which pages carry a placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageScope {
    /// Every page of the site.
    All,
    /// Only non-home pages (found by the crawl's BFS, not the first visit).
    SubpagesOnly,
    /// Only pages of one section (e.g. `/sports/...`). These drive the
    /// paper's Table 3: a crawl round that never BFS-es into the section
    /// misses the feature, so repeated rounds keep discovering new
    /// standards until coverage saturates.
    SectionOnly(String),
}

/// One planned feature use.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The feature invoked.
    pub feature: FeatureId,
    /// Whose script invokes it.
    pub party: Party,
    /// When it runs.
    pub trigger: Trigger,
    /// On which pages.
    pub scope: PageScope,
    /// Invocations per execution (1-5).
    pub intensity: u8,
}

impl Placement {
    /// Whether this placement only runs on a subset of the site's pages.
    pub fn is_page_scoped(&self) -> bool {
        !matches!(self.scope, PageScope::All)
    }
}

/// One page of a site.
#[derive(Debug, Clone)]
pub struct PagePlan {
    /// Path, e.g. `/world/story-2`.
    pub path: String,
    /// Section (first path segment; empty for home).
    pub section: String,
    /// Indices of pages this page links to.
    pub links_to: Vec<usize>,
}

/// The full plan for one site.
#[derive(Debug, Clone)]
pub struct SitePlan {
    /// Ranked-site identity (domain, category, rank).
    pub site: RankedSite,
    /// Unreachable during the crawl (the paper's 267 failed domains).
    pub dead: bool,
    /// A script-free site (the Fig. 8 mode at zero standards).
    pub no_js: bool,
    /// Pages; index 0 is the home page (`/`).
    pub pages: Vec<PagePlan>,
    /// Ad networks the site embeds (ecosystem indices).
    pub ad_parties: Vec<usize>,
    /// Trackers the site embeds.
    pub tracker_parties: Vec<usize>,
    /// Analytics providers the site embeds.
    pub analytics_parties: Vec<usize>,
    /// Feature placements.
    pub placements: Vec<Placement>,
}

impl SitePlan {
    /// Placements served by `party`.
    pub fn placements_of(&self, party: Party) -> Vec<&Placement> {
        self.placements
            .iter()
            .filter(|p| p.party == party)
            .collect()
    }

    /// Whether a placement applies on page `page_ix`.
    pub fn applies_on(&self, p: &Placement, page_ix: usize) -> bool {
        match &p.scope {
            PageScope::All => true,
            PageScope::SubpagesOnly => page_ix != 0,
            PageScope::SectionOnly(section) => &self.pages[page_ix].section == section,
        }
    }

    /// Every distinct third party with at least one placement or embed.
    pub fn embedded_parties(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .ad_parties
            .iter()
            .chain(&self.tracker_parties)
            .chain(&self.analytics_parties)
            .copied()
            .collect();
        for p in &self.placements {
            if let Party::Third(ix) = p.party {
                out.push(ix);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Fraction of sites that are script-free.
const NO_JS_RATE: f64 = 0.035;
/// Fraction of sites that are dead/unmeasurable (267 / 10,000 in the paper).
const DEAD_RATE: f64 = 0.0267;

/// Generate the plan for one ranked site.
pub fn generate_site(
    ranked: &RankedSite,
    ranking: &AlexaRanking,
    priors: &[StandardPrior],
    eco: &Ecosystem,
    registry: &FeatureRegistry,
    root_rng: &SimRng,
) -> SitePlan {
    let mut rng = root_rng.fork_idx(ranked.id.index() as u64).fork("site");
    let dead = rng.chance(DEAD_RATE);
    let no_js = rng.chance(NO_JS_RATE);

    let pages = generate_pages(ranked.category, &mut rng);
    let sections: Vec<String> = {
        let mut secs: Vec<String> = pages
            .iter()
            .map(|p| p.section.clone())
            .filter(|s| !s.is_empty())
            .collect();
        secs.sort_unstable();
        secs.dedup();
        secs
    };

    // Third parties: ad appetite scales with category.
    let appetite = ranked.category.ad_appetite();
    let n_ads = ((1.0 + 2.0 * rng.f64()) * appetite).round() as usize;
    let n_trackers = ((0.5 + 2.0 * rng.f64()) * appetite).round() as usize;
    let n_analytics = usize::from(rng.chance(0.8));
    let mut ad_parties = eco.pick(PartyKind::AdNetwork, n_ads.max(1), &mut rng);
    let mut tracker_parties = eco.pick(PartyKind::Tracker, n_trackers.max(1), &mut rng);
    let analytics_parties = eco.pick(PartyKind::Analytics, n_analytics, &mut rng);

    let mut placements = Vec::new();
    if !no_js {
        let boost = ranking.usage_boost(ranked.id);
        for prior in priors {
            if prior.used_features == 0 {
                continue;
            }
            let p_use = (prior.p_site * boost).min(1.0);
            if !rng.chance(p_use) {
                continue;
            }
            let blocked_only = rng.chance(prior.block_rate);
            let party = if blocked_only {
                let use_ad = rng.chance(prior.ad_affinity);
                let pool = if use_ad {
                    &mut ad_parties
                } else {
                    &mut tracker_parties
                };
                if pool.is_empty() {
                    let kind = if use_ad {
                        PartyKind::AdNetwork
                    } else {
                        PartyKind::Tracker
                    };
                    pool.extend(eco.pick(kind, 1, &mut rng));
                }
                Party::Third(pool[rng.below_usize(pool.len())])
            } else {
                Party::First
            };
            // Tail features of first-party standards frequently arrive via
            // ad/tracker libraries on real pages (fingerprinting helpers live
            // in otherwise-mundane standards), which is how the paper finds
            // individual features blocked ≥90% inside lightly-blocked
            // standards. Offer the emitter a blockable alternate host.
            let alt_party = {
                let use_ad = rng.chance(prior.ad_affinity);
                let pool = if use_ad {
                    &ad_parties
                } else {
                    &tracker_parties
                };
                pool.first().map(|&ix| Party::Third(ix))
            };
            // Some standards live entirely in one corner of a site (a video
            // player only on /watch pages, a map widget only on /contact):
            // the whole standard — flagship included — is then scoped to one
            // section. These are what later crawl rounds keep discovering
            // (the paper's Table 3 decay).
            // Core APIs (DOM, HTML, selectors) appear on every page of a
            // real site; only niche standards live in one corner of it.
            let std_scope = if prior.p_site < 0.5 && !sections.is_empty() && rng.chance(0.30) {
                Some(sections[rng.below_usize(sections.len())].clone())
            } else {
                None
            };
            emit_standard_placements(
                prior,
                party,
                alt_party,
                std_scope,
                &sections,
                registry,
                &mut rng,
                &mut placements,
            );
            // First-party users of a standard sometimes *also* load it from a
            // third party (e.g. an analytics lib using the same API): the
            // standard still survives blocking on this site.
            if !blocked_only && rng.chance(0.2) && !analytics_parties.is_empty() {
                let extra = Party::Third(analytics_parties[0]);
                let flagship = registry.features_of(prior.std)[0];
                placements.push(Placement {
                    feature: flagship,
                    party: extra,
                    trigger: Trigger::OnLoad,
                    scope: PageScope::All,
                    intensity: 1,
                });
            }
        }
    }

    SitePlan {
        site: ranked.clone(),
        dead,
        no_js,
        pages,
        ad_parties,
        tracker_parties,
        analytics_parties,
        placements,
    }
}

/// Choose which of a standard's features this site uses and how.
#[allow(clippy::too_many_arguments)]
fn emit_standard_placements(
    prior: &StandardPrior,
    party: Party,
    alt_party: Option<Party>,
    std_scope: Option<String>,
    sections: &[String],
    registry: &FeatureRegistry,
    rng: &mut SimRng,
    out: &mut Vec<Placement>,
) {
    let features = registry.features_of(prior.std);
    let used = &features[..(prior.used_features as usize).min(features.len())];
    for (i, &fid) in used.iter().enumerate() {
        // Flagship always; tail features with geometrically decaying odds —
        // this is what makes feature popularity decay inside a standard.
        let p = prior.feature_decay.powi(i as i32);
        if i > 0 && !rng.chance(p) {
            continue;
        }
        // Deep-tail features of first-party standards often ride in on
        // blockable third-party libraries instead.
        let party = match (party, alt_party) {
            (Party::First, Some(alt)) if i >= 2 && rng.chance(0.35) => alt,
            _ => party,
        };
        let trigger = match party {
            Party::First => {
                let u = rng.f64();
                if u < 0.70 {
                    Trigger::OnLoad
                } else if u < 0.85 {
                    Trigger::Timer(500 + rng.below(15_000))
                } else {
                    Trigger::Interaction
                }
            }
            Party::Third(_) => {
                if rng.chance(0.75) {
                    Trigger::OnLoad
                } else {
                    Trigger::Timer(500 + rng.below(10_000))
                }
            }
        };
        // Most placements are in site-wide scripts; some live only on
        // subpages, and a slice only on one *section* of the site. Flagships
        // stay site-wide so a standard's popularity is robust to page
        // sampling; the section-scoped tail is what each extra crawl round
        // keeps discovering (Table 3).
        let scope = if let Some(section) = &std_scope {
            PageScope::SectionOnly(section.clone())
        } else if i > 0 && !sections.is_empty() && rng.chance(0.18) {
            PageScope::SectionOnly(sections[rng.below_usize(sections.len())].clone())
        } else if i > 0 && rng.chance(0.10) {
            PageScope::SubpagesOnly
        } else {
            PageScope::All
        };
        out.push(Placement {
            feature: fid,
            party,
            trigger,
            scope,
            intensity: 1 + rng.below(5) as u8,
        });
    }
}

/// Build the page graph: home → sections → stories, cross-linked.
fn generate_pages(category: SiteCategory, rng: &mut SimRng) -> Vec<PagePlan> {
    let sections = category.sections();
    let n_sections =
        (4 + rng.below_usize(sections.len().saturating_sub(3).max(1))).min(sections.len());
    let mut pages = vec![PagePlan {
        path: "/".to_owned(),
        section: String::new(),
        links_to: Vec::new(),
    }];
    let mut section_pages = Vec::new();
    for &sec in sections.iter().take(n_sections) {
        let sec_ix = pages.len();
        section_pages.push(sec_ix);
        pages.push(PagePlan {
            path: format!("/{sec}/"),
            section: sec.to_owned(),
            links_to: Vec::new(),
        });
        let stories = 3 + rng.below_usize(3);
        for s in 0..stories {
            let story_ix = pages.len();
            pages.push(PagePlan {
                path: format!("/{sec}/item-{s}"),
                section: sec.to_owned(),
                links_to: Vec::new(),
            });
            pages[sec_ix].links_to.push(story_ix);
            pages[story_ix].links_to.push(sec_ix);
            pages[story_ix].links_to.push(0);
        }
    }
    // Home links to every section and a sample of stories.
    let mut home_links = section_pages.clone();
    for _ in 0..3 {
        let t = 1 + rng.below_usize(pages.len() - 1);
        home_links.push(t);
    }
    home_links.sort_unstable();
    home_links.dedup();
    pages[0].links_to = home_links;
    // Sections cross-link.
    for i in 0..section_pages.len() {
        let a = section_pages[i];
        let b = section_pages[(i + 1) % section_pages.len()];
        if a != b {
            pages[a].links_to.push(b);
        }
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate;

    fn fixture() -> (
        AlexaRanking,
        Vec<StandardPrior>,
        Ecosystem,
        FeatureRegistry,
        SimRng,
    ) {
        let rng = SimRng::new(42);
        (
            AlexaRanking::generate(100, &rng),
            calibrate::priors(),
            Ecosystem::generate(&rng),
            FeatureRegistry::build(),
            rng,
        )
    }

    #[test]
    fn site_plans_deterministic() {
        let (ranking, priors, eco, registry, rng) = fixture();
        let a = generate_site(
            ranking.site(crate::SiteId::new(5)),
            &ranking,
            &priors,
            &eco,
            &registry,
            &rng,
        );
        let b = generate_site(
            ranking.site(crate::SiteId::new(5)),
            &ranking,
            &priors,
            &eco,
            &registry,
            &rng,
        );
        assert_eq!(a.placements.len(), b.placements.len());
        assert_eq!(a.pages.len(), b.pages.len());
        assert_eq!(a.dead, b.dead);
    }

    #[test]
    fn page_graph_connected_from_home() {
        let (ranking, priors, eco, registry, rng) = fixture();
        for ix in 0..20 {
            let plan = generate_site(
                ranking.site(crate::SiteId::new(ix)),
                &ranking,
                &priors,
                &eco,
                &registry,
                &rng,
            );
            assert!(
                plan.pages.len() >= 7,
                "site graph big enough for a 13-page crawl"
            );
            // BFS from home reaches every page.
            let mut seen = vec![false; plan.pages.len()];
            let mut queue = vec![0usize];
            seen[0] = true;
            while let Some(p) = queue.pop() {
                for &t in &plan.pages[p].links_to {
                    if !seen[t] {
                        seen[t] = true;
                        queue.push(t);
                    }
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "unreachable pages in {}",
                plan.site.domain
            );
        }
    }

    #[test]
    fn flagship_always_placed_for_used_standards() {
        let (ranking, priors, eco, registry, rng) = fixture();
        let plan = generate_site(
            ranking.site(crate::SiteId::new(0)),
            &ranking,
            &priors,
            &eco,
            &registry,
            &rng,
        );
        // Every standard that appears in placements must include its rank-0
        // feature (the flagship defines standard popularity).
        use std::collections::HashSet;
        let mut stds = HashSet::new();
        let mut flagships = HashSet::new();
        for p in &plan.placements {
            let std = registry.standard_of(p.feature);
            stds.insert(std);
            if registry.feature(p.feature).rank_in_standard == 0 {
                flagships.insert(std);
            }
        }
        assert_eq!(stds, flagships);
    }

    #[test]
    fn popular_standards_placed_on_most_sites() {
        let (ranking, priors, eco, registry, rng) = fixture();
        let (dom1, _) = bfu_webidl::catalog::by_abbrev("DOM1").unwrap();
        let mut count = 0;
        for ix in 0..60 {
            let plan = generate_site(
                ranking.site(crate::SiteId::new(ix)),
                &ranking,
                &priors,
                &eco,
                &registry,
                &rng,
            );
            if plan
                .placements
                .iter()
                .any(|p| registry.standard_of(p.feature) == dom1)
            {
                count += 1;
            }
        }
        assert!(count >= 48, "DOM1 placed on {count}/60 sites (paper: ~94%)");
    }

    #[test]
    fn blocked_party_assignment_responds_to_block_rate() {
        let (ranking, priors, eco, registry, rng) = fixture();
        // PT2 has a 93.7% block rate: most sites using it should host it on
        // a third party.
        let (pt2, _) = bfu_webidl::catalog::by_abbrev("PT2").unwrap();
        let (mut third, mut first) = (0, 0);
        for ix in 0..100 {
            let plan = generate_site(
                ranking.site(crate::SiteId::new(ix)),
                &ranking,
                &priors,
                &eco,
                &registry,
                &rng,
            );
            for p in &plan.placements {
                if registry.standard_of(p.feature) == pt2 {
                    match p.party {
                        Party::Third(_) => third += 1,
                        Party::First => first += 1,
                    }
                }
            }
        }
        assert!(
            third + first == 0 || third >= first,
            "PT2 should mostly be third-party ({third} third vs {first} first)"
        );
    }

    #[test]
    fn scopes_and_triggers_varied() {
        let (ranking, priors, eco, registry, rng) = fixture();
        let mut triggers = std::collections::HashSet::new();
        for ix in 0..20 {
            let plan = generate_site(
                ranking.site(crate::SiteId::new(ix)),
                &ranking,
                &priors,
                &eco,
                &registry,
                &rng,
            );
            for p in &plan.placements {
                triggers.insert(std::mem::discriminant(&p.trigger));
            }
        }
        assert_eq!(triggers.len(), 3, "all trigger kinds appear");
    }
}
