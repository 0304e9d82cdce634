//! CSV export of datasets and analyses.
//!
//! The paper's artifacts are tables and figures; downstream users often want
//! the underlying rows for their own plotting. These writers emit plain
//! RFC-4180-ish CSV (quoted only where needed) so output drops straight into
//! R / pandas / gnuplot — the toolchain the original figures were drawn with.

use crate::blocking::{Fig4Point, Fig7Point};
use crate::tables::Table2Row;
use crate::traffic::Fig5Point;
use bfu_crawler::{Dataset, Provenance};
use bfu_webidl::FeatureRegistry;
use std::fmt::Write as _;

/// Quote a CSV field if it contains a comma or quote.
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Per-feature usage: `feature,standard,kind,<one column per profile>`.
pub fn features_csv(dataset: &Dataset, registry: &FeatureRegistry) -> String {
    let fp = crate::popularity::FeaturePopularity::compute(dataset, registry);
    let mut out = String::from("feature,standard,kind");
    for p in &fp.profiles {
        let _ = write!(out, ",sites_{}", p.label().replace('-', "_"));
    }
    out.push('\n');
    for (ix, info) in registry.features().iter().enumerate() {
        let fid = bfu_webidl::FeatureId::from_usize(ix);
        let _ = write!(
            out,
            "{},{},{:?}",
            field(&info.name),
            registry.standard(info.standard).abbrev,
            info.kind
        );
        for &p in &fp.profiles {
            let _ = write!(out, ",{}", fp.sites_using(fid, p));
        }
        out.push('\n');
    }
    out
}

/// Table 2 rows as CSV.
pub fn table2_csv(rows: &[Table2Row]) -> String {
    let mut out = String::from("name,abbrev,features,sites,block_rate,cves\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            field(r.name),
            r.abbrev,
            r.features,
            r.sites,
            r.block_rate.map_or(String::new(), |b| format!("{b:.4}")),
            r.cves
        );
    }
    out
}

/// Fig. 4 points as CSV.
pub fn fig4_csv(points: &[Fig4Point]) -> String {
    let mut out = String::from("abbrev,sites,block_rate\n");
    for p in points {
        let _ = writeln!(out, "{},{},{:.4}", p.abbrev, p.sites, p.block_rate);
    }
    out
}

/// Fig. 5 points as CSV.
pub fn fig5_csv(points: &[Fig5Point]) -> String {
    let mut out = String::from("abbrev,site_fraction,visit_fraction\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6}",
            p.abbrev, p.site_fraction, p.visit_fraction
        );
    }
    out
}

/// Fig. 7 points as CSV.
pub fn fig7_csv(points: &[Fig7Point]) -> String {
    let mut out = String::from("abbrev,sites,ad_block_rate,tracker_block_rate\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4}",
            p.abbrev, p.sites, p.ad_block_rate, p.tracker_block_rate
        );
    }
    out
}

/// Per-site measurements: `domain,traffic_weight,<features per profile>`.
pub fn sites_csv(dataset: &Dataset) -> String {
    let mut out = String::from("site,domain,traffic_weight");
    for p in &dataset.profiles {
        let _ = write!(out, ",features_{}", p.label().replace('-', "_"));
    }
    out.push('\n');
    for s in &dataset.sites {
        let _ = write!(
            out,
            "{},{},{:.8}",
            s.site.index(),
            field(&s.domain),
            s.traffic_weight
        );
        for &p in &dataset.profiles {
            let _ = write!(out, ",{}", s.features_used(p).len());
        }
        out.push('\n');
    }
    out
}

/// Dataset provenance as JSON — the one place provenance is rendered.
///
/// Every artifact that records where a dataset came from (the store's
/// `provenance.json` sidecar, bench reports) calls this, so the seed,
/// configuration fingerprint, and crawl-health breakdown are serialized by
/// exactly one piece of code and cannot drift between consumers.
pub fn provenance_json(p: &Provenance) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", p.fingerprint);
    let _ = writeln!(out, "  \"crawl_seed\": {},", p.crawl_seed);
    let _ = writeln!(out, "  \"web_seed\": {},", p.web_seed);
    let _ = writeln!(out, "  \"sites\": {},", p.sites);
    let _ = writeln!(out, "  \"rounds_per_profile\": {},", p.rounds_per_profile);
    let labels: Vec<String> = p
        .profiles
        .iter()
        .map(|prof| format!("\"{}\"", prof.label()))
        .collect();
    let _ = writeln!(out, "  \"profiles\": [{}],", labels.join(", "));
    let h = &p.health;
    out.push_str("  \"health\": {\n");
    let _ = writeln!(out, "    \"sites_total\": {},", h.sites_total);
    let _ = writeln!(out, "    \"sites_completed\": {},", h.sites_completed);
    let _ = writeln!(out, "    \"sites_failed\": {},", h.sites_failed);
    let _ = writeln!(out, "    \"sites_panicked\": {},", h.sites_panicked);
    out.push_str("    \"failures_by_class\": {");
    let classes: Vec<String> = h
        .breakdown()
        .into_iter()
        .map(|(name, lost)| format!("\"{name}\": {lost}"))
        .collect();
    let _ = writeln!(out, "{}}},", classes.join(", "));
    let _ = writeln!(out, "    \"total_attempts\": {},", h.total_attempts);
    let _ = writeln!(out, "    \"total_retries\": {},", h.total_retries);
    let _ = writeln!(out, "    \"total_backoff_ms\": {},", h.total_backoff_ms);
    let _ = writeln!(
        out,
        "    \"script_budget_trips\": {},",
        h.total_script_budget_errors
    );
    let _ = writeln!(
        out,
        "    \"script_heap_trips\": {},",
        h.total_script_heap_errors
    );
    let _ = writeln!(
        out,
        "    \"script_depth_trips\": {},",
        h.total_script_depth_errors
    );
    let _ = writeln!(
        out,
        "    \"rounds_circuit_skipped\": {},",
        h.rounds_circuit_skipped
    );
    out.push_str("    \"compile_cache\": {\n");
    let _ = writeln!(out, "      \"enabled\": {},", h.cache.enabled);
    let _ = writeln!(out, "      \"script_hits\": {},", h.cache.script_hits);
    let _ = writeln!(out, "      \"script_misses\": {},", h.cache.script_misses);
    let _ = writeln!(
        out,
        "      \"script_negative_hits\": {},",
        h.cache.script_negative_hits
    );
    let _ = writeln!(out, "      \"unique_scripts\": {},", h.cache.unique_scripts);
    let _ = writeln!(out, "      \"unique_frames\": {},", h.cache.unique_frames);
    let _ = writeln!(out, "      \"chunk_hits\": {},", h.cache.chunk_hits);
    let _ = writeln!(out, "      \"chunk_misses\": {},", h.cache.chunk_misses);
    let _ = writeln!(
        out,
        "      \"chunk_negative_hits\": {},",
        h.cache.chunk_negative_hits
    );
    let _ = writeln!(out, "      \"unique_chunks\": {},", h.cache.unique_chunks);
    let _ = writeln!(out, "      \"hit_rate\": {:.6}", h.cache.hit_rate());
    out.push_str("    },\n");
    out.push_str("    \"fabric\": {\n");
    let _ = writeln!(out, "      \"enabled\": {},", h.fabric.enabled);
    let _ = writeln!(out, "      \"workers\": {},", h.fabric.workers);
    let _ = writeln!(out, "      \"leases_total\": {},", h.fabric.leases_total);
    let _ = writeln!(out, "      \"leases_issued\": {},", h.fabric.leases_issued);
    let _ = writeln!(
        out,
        "      \"leases_completed\": {},",
        h.fabric.leases_completed
    );
    let _ = writeln!(
        out,
        "      \"leases_expired\": {},",
        h.fabric.leases_expired
    );
    let _ = writeln!(
        out,
        "      \"leases_reclaimed\": {},",
        h.fabric.leases_reclaimed
    );
    let _ = writeln!(
        out,
        "      \"publishes_fenced\": {},",
        h.fabric.publishes_fenced
    );
    let _ = writeln!(out, "      \"workers_died\": {},", h.fabric.workers_died);
    let _ = writeln!(
        out,
        "      \"records_absorbed\": {},",
        h.fabric.records_absorbed
    );
    let _ = writeln!(out, "      \"elections_won\": {},", h.fabric.elections_won);
    let _ = writeln!(
        out,
        "      \"coordinators_deposed\": {}",
        h.fabric.coordinators_deposed
    );
    out.push_str("    },\n");
    out.push_str("    \"backend\": {\n");
    let _ = writeln!(out, "      \"enabled\": {},", h.backend.enabled);
    let _ = writeln!(out, "      \"puts\": {},", h.backend.puts);
    let _ = writeln!(out, "      \"gets\": {},", h.backend.gets);
    let _ = writeln!(out, "      \"deletes\": {},", h.backend.deletes);
    let _ = writeln!(out, "      \"lists\": {},", h.backend.lists);
    let _ = writeln!(out, "      \"bytes_in\": {},", h.backend.bytes_in);
    let _ = writeln!(out, "      \"bytes_out\": {},", h.backend.bytes_out);
    let _ = writeln!(out, "      \"retries\": {},", h.backend.retries);
    let _ = writeln!(
        out,
        "      \"visibility_failures\": {},",
        h.backend.visibility_failures
    );
    let _ = writeln!(out, "      \"cas_puts\": {},", h.backend.cas_puts);
    let _ = writeln!(out, "      \"cas_conflicts\": {},", h.backend.cas_conflicts);
    let _ = writeln!(out, "      \"remote_ops\": {},", h.backend.remote_ops);
    let _ = writeln!(
        out,
        "      \"remote_retries\": {},",
        h.backend.remote_retries
    );
    let _ = writeln!(
        out,
        "      \"remote_reconnects\": {},",
        h.backend.remote_reconnects
    );
    let _ = writeln!(out, "      \"replicas\": {},", h.backend.replicas);
    let _ = writeln!(
        out,
        "      \"replica_quorum_writes\": {},",
        h.backend.replica_quorum_writes
    );
    let _ = writeln!(
        out,
        "      \"replica_quorum_reads\": {},",
        h.backend.replica_quorum_reads
    );
    let _ = writeln!(
        out,
        "      \"replica_read_repairs\": {},",
        h.backend.replica_read_repairs
    );
    let _ = writeln!(
        out,
        "      \"replica_errors\": {},",
        h.backend.replica_errors
    );
    let _ = writeln!(
        out,
        "      \"replica_cas_promotions\": {},",
        h.backend.replica_cas_promotions
    );
    let _ = writeln!(
        out,
        "      \"replica_anti_entropy_copies\": {}",
        h.backend.replica_anti_entropy_copies
    );
    out.push_str("    }\n  }\n}\n");
    out
}

/// [`provenance_json`] with extra top-level sections spliced in before the
/// closing brace — each `(key, value)` pair becomes `"key": value`, where
/// `value` is already-rendered JSON indented to nest at depth one.
///
/// This keeps provenance rendering in one place while letting downstream
/// crates (the dataset store folds its scrub report in this way) attach
/// sections the crawler layer knows nothing about.
pub fn provenance_json_with_extra(p: &Provenance, extra: &[(&str, String)]) -> String {
    let mut out = provenance_json(p);
    if extra.is_empty() {
        return out;
    }
    let Some(close) = out.rfind('}') else {
        return out;
    };
    out.truncate(close);
    if out.ends_with('\n') {
        out.pop();
    }
    out.push_str(",\n");
    let rendered: Vec<String> = extra
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::StandardPopularity;
    use crate::test_support::tiny_dataset;

    #[test]
    fn features_csv_has_header_and_all_rows() {
        let (dataset, registry) = tiny_dataset();
        let csv = features_csv(&dataset, &registry);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 1392);
        assert!(lines[0].starts_with("feature,standard,kind"));
        assert!(lines[0].contains("sites_default"));
    }

    #[test]
    fn table2_csv_parses_back() {
        let (dataset, registry) = tiny_dataset();
        let sp = StandardPopularity::compute(&dataset, &registry);
        let rows = crate::tables::table2_full(&sp, &registry);
        let csv = table2_csv(&rows);
        assert_eq!(csv.lines().count(), 76);
        // Every data line has exactly 6 columns (names with commas quoted).
        for line in csv.lines().skip(1) {
            let mut cols = 0;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cols += 1,
                    _ => {}
                }
            }
            assert_eq!(cols, 5, "{line}");
        }
    }

    #[test]
    fn sites_csv_rows_match_dataset() {
        let (dataset, _) = tiny_dataset();
        let csv = sites_csv(&dataset);
        assert_eq!(csv.lines().count(), 1 + dataset.sites.len());
    }

    #[test]
    fn quoting() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn provenance_json_is_well_formed() {
        let (dataset, _) = tiny_dataset();
        let p = Provenance {
            fingerprint: 0xDEAD_BEEF,
            crawl_seed: 7,
            web_seed: 9,
            sites: dataset.sites.len(),
            rounds_per_profile: dataset.rounds_per_profile,
            profiles: dataset.profiles.clone(),
            health: dataset.health(),
        };
        let json = provenance_json(&p);
        assert!(json.contains("\"fingerprint\": \"00000000deadbeef\""));
        assert!(json.contains("\"crawl_seed\": 7"));
        assert!(json.contains("\"profiles\": [\"default\""));
        assert!(json.contains("\"failures_by_class\""));
        assert!(json.contains("\"compile_cache\""));
        assert!(json.contains("\"hit_rate\""));
        assert!(json.contains("\"fabric\""));
        assert!(json.contains("\"publishes_fenced\""));
        assert!(json.contains("\"backend\""));
        assert!(json.contains("\"visibility_failures\""));
        assert!(json.contains("\"elections_won\""));
        assert!(json.contains("\"coordinators_deposed\""));
        assert!(json.contains("\"cas_puts\""));
        assert!(json.contains("\"remote_ops\""));
        assert!(json.contains("\"remote_reconnects\""));
        assert!(json.contains("\"replicas\""));
        assert!(json.contains("\"replica_quorum_writes\""));
        assert!(json.contains("\"replica_read_repairs\""));
        assert!(json.contains("\"replica_cas_promotions\""));
        assert!(json.contains("\"replica_anti_entropy_copies\""));
        // Balanced braces and brackets (cheap structural sanity check).
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
