//! Blocking analyses: Fig. 4 (popularity vs block rate) and Fig. 7
//! (ad-blocking vs tracking-blocking decomposition).

use crate::popularity::StandardPopularity;
use bfu_crawler::BrowserProfile;
use bfu_webidl::{FeatureRegistry, StandardId};

/// One standard's point on Fig. 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Standard.
    pub std: StandardId,
    /// Abbreviation (e.g. `CSS-OM`).
    pub abbrev: &'static str,
    /// Sites using the standard by default.
    pub sites: u32,
    /// Block rate in `[0, 1]`.
    pub block_rate: f64,
}

/// Which quadrant of Fig. 4 a standard falls into (§5.4's narrative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quadrant {
    /// Frequently used, rarely blocked (e.g. CSS-OM).
    PopularUnblocked,
    /// Frequently used, frequently blocked (e.g. H-CM).
    PopularBlocked,
    /// Rarely used, frequently blocked (e.g. ALS).
    UnpopularBlocked,
    /// Rarely used, rarely blocked (e.g. Encodings).
    UnpopularUnblocked,
}

/// Fig. 4: every default-used standard with its block rate.
pub fn fig4_points(sp: &StandardPopularity, registry: &FeatureRegistry) -> Vec<Fig4Point> {
    registry
        .standard_ids()
        .filter_map(|std| {
            let sites = sp.sites_using(std, BrowserProfile::Default);
            let block_rate = sp.block_rate(std)?;
            (sites > 0).then(|| Fig4Point {
                std,
                abbrev: registry.standard(std).abbrev,
                sites,
                block_rate,
            })
        })
        .collect()
}

/// Quadrant classification with the paper's implicit thresholds: popularity
/// splits at 10% of measured sites, blocking at a 50% block rate.
pub fn quadrant(point: &Fig4Point, measured_sites: usize) -> Quadrant {
    let popular = f64::from(point.sites) >= 0.10 * measured_sites as f64;
    let blocked = point.block_rate >= 0.5;
    match (popular, blocked) {
        (true, false) => Quadrant::PopularUnblocked,
        (true, true) => Quadrant::PopularBlocked,
        (false, true) => Quadrant::UnpopularBlocked,
        (false, false) => Quadrant::UnpopularUnblocked,
    }
}

/// One standard's point on Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Standard.
    pub std: StandardId,
    /// Abbreviation.
    pub abbrev: &'static str,
    /// Sites using the standard by default (point size in the paper).
    pub sites: u32,
    /// Block rate with only the ad blocker installed (x-axis).
    pub ad_block_rate: f64,
    /// Block rate with only the tracking blocker installed (y-axis).
    pub tracker_block_rate: f64,
}

/// Fig. 7: ad-only vs tracker-only block rates. Empty if those profiles
/// weren't crawled.
pub fn fig7_points(sp: &StandardPopularity, registry: &FeatureRegistry) -> Vec<Fig7Point> {
    registry
        .standard_ids()
        .filter_map(|std| {
            let sites = sp.sites_using(std, BrowserProfile::Default);
            let ad = sp.block_rate_against(std, BrowserProfile::AdblockOnly)?;
            let tr = sp.block_rate_against(std, BrowserProfile::GhosteryOnly)?;
            (sites > 0).then(|| Fig7Point {
                std,
                abbrev: registry.standard(std).abbrev,
                sites,
                ad_block_rate: ad,
                tracker_block_rate: tr,
            })
        })
        .collect()
}

/// §5.7: standards whose usage drops by at least `rate` under blocking
/// (paper: 16 standards blocked over 75% of the time).
pub fn standards_blocked_at_least(
    sp: &StandardPopularity,
    registry: &FeatureRegistry,
    rate: f64,
) -> Vec<StandardId> {
    registry
        .standard_ids()
        .filter(|&std| sp.block_rate(std).is_some_and(|br| br >= rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::StandardPopularity;
    use crate::test_support::tiny_dataset;

    #[test]
    fn fig4_covers_used_standards_only() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let points = fig4_points(&sp, &registry);
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.sites > 0);
            assert!((0.0..=1.0).contains(&p.block_rate));
        }
    }

    #[test]
    fn quadrants_partition_sensibly() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let points = fig4_points(&sp, &registry);
        let measured = sp.measured_sites;
        // The DOM core must land popular-unblocked; a high-block-rate
        // standard like PT2 (93.7% in the paper) must land blocked.
        let dom1 = points
            .iter()
            .find(|p| p.abbrev == "DOM1")
            .expect("DOM1 used");
        assert_eq!(quadrant(dom1, measured), Quadrant::PopularUnblocked);
        if let Some(pt2) = points.iter().find(|p| p.abbrev == "PT2") {
            assert!(
                pt2.block_rate > 0.5,
                "PT2 block rate {} should be high",
                pt2.block_rate
            );
        }
    }

    #[test]
    fn fig7_axes_bounded() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let points = fig7_points(&sp, &registry);
        assert!(
            !points.is_empty(),
            "fixture crawls ad-only and ghostery-only"
        );
        for p in &points {
            assert!((0.0..=1.0).contains(&p.ad_block_rate));
            assert!((0.0..=1.0).contains(&p.tracker_block_rate));
        }
    }

    #[test]
    fn core_dom_rarely_blocked_in_fig7() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let points = fig7_points(&sp, &registry);
        let dom1 = points.iter().find(|p| p.abbrev == "DOM1").expect("DOM1");
        assert!(dom1.ad_block_rate < 0.3, "{}", dom1.ad_block_rate);
        assert!(dom1.tracker_block_rate < 0.3, "{}", dom1.tracker_block_rate);
    }

    #[test]
    fn blocked_list_sorted_by_threshold() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let hi = standards_blocked_at_least(&sp, &registry, 0.75);
        let lo = standards_blocked_at_least(&sp, &registry, 0.25);
        assert!(hi.len() <= lo.len());
    }
}
