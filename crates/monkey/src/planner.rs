//! Crawl planning: navigation interception + path-novelty BFS.
//!
//! §4.3.1: from the URLs the monkey would have navigated to, pick 3 on the
//! same (or related) domain, "giving preference to URLs where the directory
//! structure of the URL had not been previously seen", then recurse — 13
//! pages per site in total (1 + 3 + 9).

use bfu_net::Url;
use bfu_util::SimRng;
use std::collections::HashSet;

/// Selects which intercepted URLs to visit next.
#[derive(Debug)]
pub struct CrawlPlanner {
    domain: String,
    seen_signatures: HashSet<String>,
    visited: HashSet<String>,
}

impl CrawlPlanner {
    /// A planner for one site, keyed by its registrable domain.
    pub fn new(domain: &str) -> Self {
        CrawlPlanner {
            domain: domain.to_ascii_lowercase(),
            seen_signatures: HashSet::new(),
            visited: HashSet::new(),
        }
    }

    /// Record that `url` was visited (its signature becomes "seen").
    pub fn mark_visited(&mut self, url: &Url) {
        self.visited.insert(url.to_string());
        self.seen_signatures.insert(signature(url));
    }

    /// Whether a URL belongs to this site (same registrable domain).
    pub fn same_site(&self, url: &Url) -> bool {
        url.registrable_domain() == self.domain
    }

    /// Pick up to `count` next pages from `candidates`:
    /// same-site, unvisited, structurally novel first; randomness only
    /// breaks ties within a novelty class.
    pub fn select(&mut self, candidates: &[Url], count: usize, rng: &mut SimRng) -> Vec<Url> {
        let mut pool: Vec<&Url> = candidates
            .iter()
            .filter(|u| self.same_site(u))
            .filter(|u| !self.visited.contains(&u.to_string()))
            .collect();
        // Dedup by full URL keeping first occurrence.
        let mut seen_urls = HashSet::new();
        pool.retain(|u| seen_urls.insert(u.to_string()));

        let (mut novel, mut known): (Vec<&Url>, Vec<&Url>) = pool
            .into_iter()
            .partition(|u| !self.seen_signatures.contains(&signature(u)));
        rng.shuffle(&mut novel);
        rng.shuffle(&mut known);

        let mut out: Vec<Url> = Vec::new();
        for u in novel.into_iter().chain(known) {
            if out.len() >= count {
                break;
            }
            // No two picks in one batch share a signature, novel or seen.
            if out.iter().any(|p| signature(p) == signature(u)) {
                continue;
            }
            out.push(u.clone());
        }
        // If the signature constraint starved us, top up with anything left.
        if out.len() < count {
            for u in candidates
                .iter()
                .filter(|u| self.same_site(u))
                .filter(|u| !self.visited.contains(&u.to_string()))
            {
                if out.len() >= count {
                    break;
                }
                if !out.contains(u) {
                    out.push(u.clone());
                }
            }
        }
        for u in &out {
            self.seen_signatures.insert(signature(u));
        }
        out
    }

    /// Pages visited so far.
    pub fn visited_count(&self) -> usize {
        self.visited.len()
    }
}

/// The "directory structure" signature of a URL: its path with trailing
/// item names collapsed, so `/world/item-1` and `/world/item-2` look alike
/// but `/sports/...` is novel.
fn signature(url: &Url) -> String {
    let segs = url.path_segments();
    match segs.len() {
        0 => "/".to_owned(),
        1 => format!("/{}", collapse(segs[0])),
        _ => format!("/{}/{}", segs[0], collapse(segs[segs.len() - 1])),
    }
}

/// Collapse trailing digits so enumerated items share a signature.
fn collapse(seg: &str) -> String {
    let trimmed = seg.trim_end_matches(|c: char| c.is_ascii_digit());
    format!("{trimmed}#")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn filters_offsite_and_visited() {
        let mut p = CrawlPlanner::new("site.test");
        p.mark_visited(&u("http://site.test/"));
        let picks = p.select(
            &[
                u("http://site.test/"),          // visited
                u("http://other.test/x"),        // offsite
                u("http://www.site.test/news/"), // subdomain of same site
            ],
            3,
            &mut SimRng::new(1),
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].to_string(), "http://www.site.test/news/");
    }

    #[test]
    fn prefers_novel_path_structure() {
        let mut p = CrawlPlanner::new("site.test");
        p.mark_visited(&u("http://site.test/news/item-1"));
        let picks = p.select(
            &[
                u("http://site.test/news/item-2"), // same structure as visited
                u("http://site.test/sports/"),     // novel section
            ],
            1,
            &mut SimRng::new(2),
        );
        assert_eq!(picks[0].to_string(), "http://site.test/sports/");
    }

    #[test]
    fn batch_avoids_duplicate_signatures_when_possible() {
        let mut p = CrawlPlanner::new("site.test");
        let picks = p.select(
            &[
                u("http://site.test/a/item-1"),
                u("http://site.test/a/item-2"),
                u("http://site.test/b/"),
                u("http://site.test/c/"),
            ],
            3,
            &mut SimRng::new(3),
        );
        assert_eq!(picks.len(), 3);
        let sigs: HashSet<String> = picks.iter().map(signature).collect();
        assert_eq!(sigs.len(), 3, "{picks:?}");
    }

    #[test]
    fn tops_up_when_novelty_starves() {
        let mut p = CrawlPlanner::new("site.test");
        let picks = p.select(
            &[
                u("http://site.test/a/item-1"),
                u("http://site.test/a/item-2"),
                u("http://site.test/a/item-3"),
            ],
            3,
            &mut SimRng::new(4),
        );
        assert_eq!(picks.len(), 3, "still fills the quota");
    }

    #[test]
    fn selection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = CrawlPlanner::new("site.test");
            p.select(
                &[
                    u("http://site.test/a/"),
                    u("http://site.test/b/"),
                    u("http://site.test/c/"),
                    u("http://site.test/d/"),
                ],
                2,
                &mut SimRng::new(seed),
            )
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn signature_collapses_item_numbers() {
        assert_eq!(
            signature(&u("http://s.test/news/item-1")),
            signature(&u("http://s.test/news/item-2"))
        );
        assert_ne!(
            signature(&u("http://s.test/news/")),
            signature(&u("http://s.test/sports/"))
        );
    }
}
