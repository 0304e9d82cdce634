//! The store scrubber: verify, quarantine, compact.
//!
//! A long-lived store accumulates scar tissue: shards torn by crashes,
//! records flipped by disk rot, small tail shards left by every interrupted
//! session, manifest entries pointing at files that no longer exist. The
//! scan layer *tolerates* all of that (it recovers every intact record and
//! reports the rest); the scrubber *repairs* it, so damage does not
//! accumulate across sessions:
//!
//! - every shard is re-read and re-verified against its own checksums and
//!   against the manifest's record of it;
//! - damaged shards have their intact records salvaged, then the file is
//!   **quarantined** — renamed aside with a `.quarantined` suffix, never
//!   deleted, so a forensic eye can still look at what the scrubber saw;
//! - fragmented stores (several small sealed shards, or salvage from damaged
//!   ones) are **compacted** into fresh full shards, dropping superseded
//!   duplicate records; a *single* small sealed tail shard is the legitimate
//!   end of a dataset and is left alone, which makes scrubbing idempotent;
//! - the manifest is fixed up: entries for vanished shards dropped, entries
//!   disagreeing with an internally-valid shard corrected (the shard is
//!   self-verifying; the manifest line is only a copy), sealed-but-unlisted
//!   shards adopted.
//!
//! The repair sequence is crash-safe in the same way the writer is: new
//! compacted shards are written and synced *before* the manifest publishes
//! them, and originals are quarantined/removed only *after* — so a power cut
//! mid-scrub leaves, at worst, duplicate records that first-record-wins
//! scanning and the next scrub clean up. Nothing intact is ever lost, which
//! the torture suite proves by killing the scrubber at every I/O boundary.
//!
//! Records that *are* lost (corrupt beyond salvage) simply leave their
//! site's slot empty, and [`crate::resume_survey`] re-crawls exactly those
//! sites: the store self-heals.

use crate::backend::StorageBackend;
use crate::shard::{read_shard, shard_file_name, SealedShard, ShardContents, ShardWriter};
use crate::store::{shard_names, DatasetStore, StoreError};
use bfu_crawler::retry_interrupted;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default scrubber fan-out: the machine's parallelism, capped — per-shard
/// verification is read + checksum work that saturates a handful of cores.
fn default_scrub_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
}

/// What one scrub pass found and did. Folded into the provenance sidecar so
/// a dataset's repair history is part of its identity record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Shard objects examined.
    pub shards_examined: usize,
    /// Shards kept exactly as they were.
    pub shards_kept: usize,
    /// Damaged shards moved aside (never deleted) after salvage.
    pub shards_quarantined: usize,
    /// Intact small shards absorbed into compacted shards and removed.
    pub shards_compacted: usize,
    /// New full/tail shards written by compaction.
    pub shards_written: usize,
    /// Manifest entries corrected to match an internally-valid shard.
    pub manifest_entries_fixed: usize,
    /// Manifest entries dropped because their shard no longer exists.
    pub manifest_entries_dropped: usize,
    /// Sealed shards present on the backend but missing from the manifest,
    /// adopted into it.
    pub manifest_entries_adopted: usize,
    /// Records carried from damaged or absorbed shards into new ones.
    pub records_salvaged: usize,
    /// Records discarded: checksum-bad, undecodable, or out of range.
    pub records_dropped: usize,
    /// Superseded duplicate records dropped during compaction.
    pub records_deduplicated: usize,
}

impl ScrubReport {
    /// Whether the pass found nothing to repair.
    pub fn clean(&self) -> bool {
        self.shards_quarantined == 0
            && self.shards_compacted == 0
            && self.shards_written == 0
            && self.manifest_entries_fixed == 0
            && self.manifest_entries_dropped == 0
            && self.manifest_entries_adopted == 0
            && self.records_dropped == 0
    }

    /// Render as a JSON object, each line indented by `indent` spaces (for
    /// splicing into the provenance document).
    pub fn render_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut out = String::from("{\n");
        let fields: [(&str, usize); 12] = [
            ("shards_examined", self.shards_examined),
            ("shards_kept", self.shards_kept),
            ("shards_quarantined", self.shards_quarantined),
            ("shards_compacted", self.shards_compacted),
            ("shards_written", self.shards_written),
            ("manifest_entries_fixed", self.manifest_entries_fixed),
            ("manifest_entries_dropped", self.manifest_entries_dropped),
            ("manifest_entries_adopted", self.manifest_entries_adopted),
            ("records_salvaged", self.records_salvaged),
            ("records_dropped", self.records_dropped),
            ("records_deduplicated", self.records_deduplicated),
            ("clean", usize::from(self.clean())),
        ];
        for (i, (name, value)) in fields.iter().enumerate() {
            let comma = if i + 1 == fields.len() { "" } else { "," };
            if *name == "clean" {
                let _ = writeln!(out, "{pad}  \"{name}\": {}{comma}", *value == 1);
            } else {
                let _ = writeln!(out, "{pad}  \"{name}\": {value}{comma}");
            }
        }
        let _ = write!(out, "{pad}}}");
        out
    }
}

/// How the scrubber classified one existing shard.
enum Verdict {
    /// Intact, full (or the only small tail): keep as-is.
    Keep,
    /// Intact but small/fragmented: absorb into a compacted shard, then
    /// remove the (now superseded) original.
    Absorb,
    /// Damaged: salvage intact records, then move the file aside.
    Quarantine,
}

struct Examined {
    name: String,
    contents: Option<ShardContents>, // None: not readable as a shard at all
    /// Decoded site index per intact payload (`None`: undecodable record),
    /// computed during the parallel examine so the sequential passes never
    /// re-parse a payload.
    decoded: Vec<Option<usize>>,
    verdict: Verdict,
}

/// Read and classify one shard object — the per-shard unit of work the
/// scrubber fans out across its thread pool. Pure with respect to store
/// state: touches the backend only, never the store lock.
fn examine_one(backend: &dyn StorageBackend, name: &str) -> Result<Examined, StoreError> {
    match read_shard(backend, name) {
        Ok(contents) => {
            let decoded = contents
                .payloads
                .iter()
                .map(|p| crate::encode::decode_site(p).ok().map(|m| m.site.index()))
                .collect();
            let verdict = if contents.pristine() {
                // Self-verified; a disagreeing manifest line is the
                // manifest's problem, fixed in the true-up pass.
                Verdict::Keep // may demote to Absorb during compaction
            } else {
                Verdict::Quarantine
            };
            Ok(Examined {
                name: name.to_owned(),
                contents: Some(contents),
                decoded,
                verdict,
            })
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // Not readable as a shard (smashed header): quarantine with
            // nothing to salvage.
            Ok(Examined {
                name: name.to_owned(),
                contents: None,
                decoded: Vec::new(),
                verdict: Verdict::Quarantine,
            })
        }
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Examine `names` across up to `threads` workers. Results land in
/// name-order slots, so the merged output — and every report counter
/// derived from it — is identical whatever the thread count or scheduling.
fn examine_shards(
    backend: &dyn StorageBackend,
    names: &[(u32, String)],
    threads: usize,
) -> Result<Vec<Examined>, StoreError> {
    let threads = threads.max(1).min(names.len().max(1));
    let slots: Vec<Mutex<Option<Result<Examined, StoreError>>>> =
        names.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, name)) = names.get(i) else {
                    break;
                };
                let result = examine_one(backend, name);
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| {
                    Err(StoreError::Io(io::Error::other(
                        "scrub examine slot never filled",
                    )))
                })
        })
        .collect()
}

impl DatasetStore {
    /// Run one scrub pass with the default thread-pool width. See
    /// [`DatasetStore::scrub_with_threads`].
    pub fn scrub(&self) -> Result<ScrubReport, StoreError> {
        self.scrub_with_threads(default_scrub_threads())
    }

    /// Run one scrub pass: re-verify every shard, quarantine damage,
    /// compact fragmentation, and true up the manifest. Idempotent on a
    /// healthy store (the second pass reports [`ScrubReport::clean`]).
    ///
    /// Per-shard verification fans out across up to `threads` workers and —
    /// deliberately — runs *outside* the store lock: appenders keep making
    /// progress while the scrubber reads, which matters when a resuming
    /// survey scrubs a store other workers are already writing into. The
    /// lock is taken only for four short critical sections (seal + snapshot,
    /// index reservation, manifest true-up), and the report is deterministic
    /// in everything but `threads` (1 thread and 8 produce identical
    /// reports, quarantine sets, and compaction output — a tested
    /// property).
    ///
    /// Shards created after the opening snapshot (a concurrent appender's
    /// live output) are left untouched: only shards that existed when the
    /// scrub began are verified, repaired, or quarantined.
    pub fn scrub_with_threads(&self, threads: usize) -> Result<ScrubReport, StoreError> {
        let backend = self.backend().clone();
        // Short lock: flush any open writer so every record this pass can
        // see is in a sealed, examinable shard (resume calls scrub before
        // writing, so this is normally a no-op), and snapshot the bounds.
        // `ix_floor` fences this pass off from concurrent appenders: any
        // shard index at or above it was created after the snapshot and
        // belongs to a live writer, not to us.
        let (capacity, sites_limit, ix_floor) = {
            let inner = &mut *self.lock();
            self.seal_current(inner)?;
            (
                inner.manifest.shard_capacity.max(1),
                inner.manifest.sites,
                inner.next_shard_ix,
            )
        };
        let mut report = ScrubReport::default();

        // Pass 1 (unlocked, parallel): examine every shard object and
        // classify it.
        let names: Vec<(u32, String)> = shard_names(backend.as_ref())?
            .into_iter()
            .filter(|(ix, _)| *ix < ix_floor)
            .collect();
        report.shards_examined = names.len();
        let mut examined = examine_shards(backend.as_ref(), &names, threads)?;
        let mut small_intact = 0usize;
        let mut damage = false;
        for e in &examined {
            match (&e.verdict, &e.contents) {
                (Verdict::Keep, Some(c)) => {
                    if c.seal.map(|s| s.records) < Some(capacity) {
                        small_intact += 1;
                    }
                }
                _ => damage = true,
            }
        }

        // Pass 2: decide compaction. Fragmentation alone needs ≥ 2 small
        // shards (a single small sealed tail is the legitimate end of a
        // dataset — leaving it alone is what makes scrubbing idempotent);
        // any damage with salvageable records also compacts.
        let compact = small_intact >= 2
            || (damage
                && examined.iter().any(|e| {
                    matches!(e.verdict, Verdict::Quarantine)
                        && e.contents.as_ref().is_some_and(|c| !c.payloads.is_empty())
                }));
        if compact {
            for e in &mut examined {
                let small = e
                    .contents
                    .as_ref()
                    .is_some_and(|c| c.pristine() && c.seal.map(|s| s.records) < Some(capacity));
                if matches!(e.verdict, Verdict::Keep) && small {
                    e.verdict = Verdict::Absorb;
                }
            }
        }

        // Pass 3 (unlocked): build the salvage set (records from absorbed +
        // damaged shards, first-record-wins against kept shards and each
        // other), then write it into fresh shards whose indices are
        // reserved under one brief lock — the writing itself happens with
        // the lock released.
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        for e in &examined {
            if let (Verdict::Keep, Some(_)) = (&e.verdict, &e.contents) {
                covered.extend(e.decoded.iter().flatten());
            }
        }
        let mut salvage: Vec<Vec<u8>> = Vec::new();
        for e in &examined {
            let salvaging = matches!(e.verdict, Verdict::Absorb | Verdict::Quarantine);
            let Some(c) = e.contents.as_ref().filter(|_| salvaging) else {
                continue;
            };
            report.records_dropped += c.records_corrupt;
            for (payload, site_ix) in c.payloads.iter().zip(&e.decoded) {
                match site_ix {
                    Some(site_ix) if *site_ix < sites_limit => {
                        if covered.insert(*site_ix) {
                            salvage.push(payload.clone());
                        } else {
                            report.records_deduplicated += 1;
                        }
                    }
                    _ => report.records_dropped += 1,
                }
            }
        }
        let chunks: Vec<&[Vec<u8>]> = salvage.chunks(capacity as usize).collect();
        let mut new_seals: Vec<SealedShard> = Vec::new();
        if !chunks.is_empty() {
            let base_ix = {
                let inner = &mut *self.lock();
                let base = inner.next_shard_ix;
                inner.next_shard_ix = base + chunks.len() as u32;
                base
            };
            for (i, chunk) in chunks.iter().enumerate() {
                let mut writer = ShardWriter::create(backend.as_ref(), base_ix + i as u32)?;
                for payload in *chunk {
                    writer.append(payload)?;
                }
                new_seals.push(writer.seal()?);
                report.records_salvaged += chunk.len();
            }
            // Make the new shards' names durable before the manifest (whose
            // own rewrite syncs again) references them.
            retry_interrupted(|| backend.sync_dir())?;
            report.shards_written = new_seals.len();
        }

        // Pass 4 (short lock): true up the manifest — kept shards' own
        // seals (fixing stale or missing entries), plus the freshly written
        // ones — and publish it before any original is touched. Entries a
        // concurrent appender sealed since the snapshot (ix at or above the
        // floor) are carried over untouched.
        let mut kept_seals: Vec<SealedShard> = Vec::new();
        for e in &examined {
            if let (Verdict::Keep, Some(c)) = (&e.verdict, &e.contents) {
                report.shards_kept += 1;
                if let Some(seal) = c.seal {
                    kept_seals.push(seal);
                }
            }
        }
        {
            let inner = &mut *self.lock();
            let old_shards = inner.manifest.shards.clone();
            let mut shards: Vec<SealedShard> = Vec::new();
            for seal in &kept_seals {
                match old_shards.iter().find(|s| s.ix == seal.ix) {
                    Some(listed) if *listed == *seal => {}
                    Some(_) => report.manifest_entries_fixed += 1,
                    None => report.manifest_entries_adopted += 1,
                }
                shards.push(*seal);
            }
            shards.extend(new_seals.iter().copied());
            for s in &old_shards {
                if s.ix >= ix_floor && !shards.iter().any(|n| n.ix == s.ix) {
                    shards.push(*s);
                }
            }
            report.manifest_entries_dropped = old_shards
                .iter()
                .filter(|s| !shards.iter().any(|n| n.ix == s.ix))
                .filter(|s| {
                    // Dropped for a reason other than quarantine/absorption
                    // below counts as "entry pointed at nothing".
                    !examined.iter().any(|e| {
                        e.contents.as_ref().map(|c| c.ix) == Some(s.ix)
                            || e.name == shard_file_name(s.ix)
                    })
                })
                .count();
            if shards != old_shards || !new_seals.is_empty() {
                inner.manifest.shards = shards;
                inner.manifest.write_atomic(backend.as_ref())?;
            }
        }

        // Pass 5: move damaged originals aside and drop absorbed ones. Safe
        // now — everything worth keeping is sealed, synced, and published.
        for e in &examined {
            match e.verdict {
                Verdict::Keep => {}
                Verdict::Absorb => {
                    retry_interrupted(|| backend.remove(&e.name))?;
                    report.shards_compacted += 1;
                }
                Verdict::Quarantine => {
                    let to = quarantine_name(backend.as_ref(), &e.name)?;
                    retry_interrupted(|| backend.rename(&e.name, &to))?;
                    report.shards_quarantined += 1;
                }
            }
        }
        if report.shards_compacted > 0 || report.shards_quarantined > 0 {
            retry_interrupted(|| backend.sync_dir())?;
        }
        Ok(report)
    }
}

/// First unused quarantine name for `name`: `<name>.quarantined`, then
/// numbered variants — an existing quarantine file is *evidence* and is
/// never overwritten.
fn quarantine_name(backend: &dyn StorageBackend, name: &str) -> io::Result<String> {
    let base = format!("{name}.quarantined");
    if !retry_interrupted(|| backend.exists(&base))? {
        return Ok(base);
    }
    for k in 1u32.. {
        let candidate = format!("{base}-{k}");
        if !retry_interrupted(|| backend.exists(&candidate))? {
            return Ok(candidate);
        }
    }
    unreachable!("u32 quarantine suffixes exhausted")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DatasetStore, StoreMeta};
    use bfu_crawler::{CrawlConfig, Provenance, Survey};
    use bfu_webgen::{SyntheticWeb, WebConfig};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bfu-scrub-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn survey(sites: usize) -> Survey {
        let web = SyntheticWeb::generate(WebConfig {
            sites,
            seed: 33,
            script_weight: 0,
        });
        Survey::new(web, CrawlConfig::quick(9))
    }

    fn full_store(dir: &std::path::Path, survey: &Survey, capacity: u32) -> DatasetStore {
        let dataset = survey.run();
        let mut meta = StoreMeta::for_survey(survey);
        meta.shard_capacity = capacity;
        let store = DatasetStore::open(dir, meta).expect("open");
        for m in &dataset.sites {
            store.append(m).expect("append");
        }
        store
            .finish(&Provenance::of(survey, &dataset))
            .expect("finish");
        store
    }

    #[test]
    fn healthy_store_scrubs_clean_and_idempotent() {
        let dir = temp_dir("clean");
        let survey = survey(6);
        // Capacity 4 → one full shard + one small tail: legitimate shape.
        let store = full_store(&dir, &survey, 4);
        let first = store.scrub().expect("scrub");
        assert!(first.clean(), "nothing to repair: {first:?}");
        assert_eq!(first.shards_examined, 2);
        assert_eq!(first.shards_kept, 2);
        let second = store.scrub().expect("scrub again");
        assert!(second.clean(), "scrub must be idempotent: {second:?}");
        let scan = store.scan().expect("scan");
        assert_eq!(scan.recovered, 6);
        assert!(!scan.report.any_loss());
    }

    #[test]
    fn corrupt_shard_is_quarantined_not_deleted() {
        let dir = temp_dir("quarantine");
        let survey = survey(6);
        let store = full_store(&dir, &survey, 3);
        // Flip a payload byte in the first shard.
        let name = shard_file_name(0);
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[40] ^= 0x10;
        std::fs::write(&path, bytes).expect("write");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.shards_quarantined, 1);
        assert!(report.records_dropped >= 1, "the flipped record is gone");
        assert!(report.records_salvaged >= 1, "intact neighbours salvaged");
        assert!(!path.exists(), "original name vacated");
        assert!(
            dir.join(format!("{name}.quarantined")).exists(),
            "moved aside, not deleted"
        );
        // Post-scrub scan is loss-free; only the flipped record's site is
        // missing.
        let scan = store.scan().expect("scan");
        assert!(!scan.report.any_loss(), "{:?}", scan.report);
        assert_eq!(scan.recovered, 5);
        // And the pass after repair is clean.
        assert!(store.scrub().expect("rescrub").clean());
    }

    #[test]
    fn fragmented_small_shards_compact_into_full_ones() {
        let dir = temp_dir("compact");
        let survey = survey(8);
        let dataset = survey.run();
        let mut meta = StoreMeta::for_survey(&survey);
        meta.shard_capacity = 4;
        // Simulate four interrupted sessions: 2 records each, sealed by
        // reopening (finish seals the open shard).
        for pair in dataset.sites.chunks(2) {
            let store = DatasetStore::open(&dir, meta.clone()).expect("open");
            for m in pair {
                store.append(m).expect("append");
            }
            store
                .finish(&Provenance::of(&survey, &dataset))
                .expect("finish");
        }
        let store = DatasetStore::open(&dir, meta).expect("reopen");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.shards_compacted, 4, "four fragments absorbed");
        assert_eq!(report.shards_written, 2, "8 records / capacity 4");
        assert_eq!(report.records_salvaged, 8);
        assert_eq!(report.records_dropped, 0, "compaction loses nothing");
        let scan = store.scan().expect("scan");
        assert_eq!(scan.recovered, 8);
        assert!(!scan.report.any_loss());
        assert!(store.scrub().expect("rescrub").clean());
    }

    #[test]
    fn duplicates_across_fragments_are_deduplicated() {
        let dir = temp_dir("dedup");
        let survey = survey(5);
        let dataset = survey.run();
        let mut meta = StoreMeta::for_survey(&survey);
        meta.shard_capacity = 8;
        // Two sessions, both writing the same first two sites.
        for _ in 0..2 {
            let store = DatasetStore::open(&dir, meta.clone()).expect("open");
            store.append(&dataset.sites[0]).expect("append");
            store.append(&dataset.sites[1]).expect("append");
            store
                .finish(&Provenance::of(&survey, &dataset))
                .expect("finish");
        }
        let store = DatasetStore::open(&dir, meta).expect("reopen");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.records_deduplicated, 2);
        assert_eq!(report.records_salvaged, 2, "one copy of each site");
        let scan = store.scan().expect("scan");
        assert_eq!(scan.recovered, 2);
        assert_eq!(scan.report.records_duplicate, 0, "duplicates are gone");
    }

    #[test]
    fn unsealed_crash_artifact_is_salvaged_and_quarantined() {
        let dir = temp_dir("unsealed");
        let survey = survey(4);
        let dataset = survey.run();
        let meta = StoreMeta::for_survey(&survey);
        let store = DatasetStore::open(&dir, meta.clone()).expect("open");
        store.append(&dataset.sites[0]).expect("append");
        store.append(&dataset.sites[1]).expect("append");
        drop(store); // kill before sealing
        let store = DatasetStore::open(&dir, meta).expect("reopen");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.shards_quarantined, 1);
        assert_eq!(report.records_salvaged, 2, "flushed records survive");
        let scan = store.scan().expect("scan");
        assert_eq!(scan.recovered, 2);
        assert!(!scan.report.any_loss());
    }

    #[test]
    fn manifest_entry_for_missing_shard_is_dropped() {
        let dir = temp_dir("missing");
        let survey = survey(4);
        let store = full_store(&dir, &survey, 2);
        std::fs::remove_file(dir.join(shard_file_name(0))).expect("remove");
        let report = store.scrub().expect("scrub");
        assert_eq!(report.manifest_entries_dropped, 1);
        let scan = store.scan().expect("scan");
        assert!(!scan.report.any_loss());
        assert_eq!(scan.recovered, 2, "other shard intact");
    }

    /// Build two byte-identical damaged stores and prove scrubbing one with
    /// 1 thread and the other with 8 produces the same report, the same
    /// surviving/quarantined object names, and the same recovered records.
    #[test]
    fn scrub_is_thread_count_invariant() {
        let survey = survey(8);
        let dataset = survey.run();
        let mut meta = StoreMeta::for_survey(&survey);
        meta.shard_capacity = 3;
        let mut dirs = Vec::new();
        for tag in ["t1", "t8"] {
            let dir = temp_dir(&format!("threads-{tag}"));
            // Fragmented sessions plus one corrupt shard and one unsealed
            // crash artifact: every verdict class is on the table.
            for pair in dataset.sites.chunks(2) {
                let store = DatasetStore::open(&dir, meta.clone()).expect("open");
                for m in pair {
                    store.append(m).expect("append");
                }
                store
                    .finish(&Provenance::of(&survey, &dataset))
                    .expect("finish");
            }
            let shard0 = dir.join(shard_file_name(0));
            let mut bytes = std::fs::read(&shard0).expect("read shard");
            bytes[40] ^= 0x08;
            std::fs::write(&shard0, bytes).expect("corrupt shard");
            let store = DatasetStore::open(&dir, meta.clone()).expect("reopen");
            store.append(&dataset.sites[0]).expect("append dup");
            drop(store); // unsealed crash artifact
            dirs.push(dir);
        }
        let open = |dir: &std::path::Path| DatasetStore::open(dir, meta.clone()).expect("open");
        let r1 = open(&dirs[0]).scrub_with_threads(1).expect("scrub 1");
        let r8 = open(&dirs[1]).scrub_with_threads(8).expect("scrub 8");
        assert_eq!(r1, r8, "reports must not depend on thread count");
        assert!(!r1.clean(), "the damage must actually exercise repair");
        let names = |dir: &std::path::Path| {
            let mut v: Vec<String> = std::fs::read_dir(dir)
                .expect("read dir")
                .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(names(&dirs[0]), names(&dirs[1]));
        let scan1 = open(&dirs[0]).scan().expect("scan 1");
        let scan8 = open(&dirs[1]).scan().expect("scan 8");
        assert_eq!(scan1.recovered, scan8.recovered);
        assert_eq!(scan1.report, scan8.report);
    }

    /// The narrowed-lock regression: while the scrubber is mid-verification
    /// (blocked inside a shard read), an `append` on another thread must
    /// complete — the store lock is not held across shard verification.
    #[test]
    fn scrub_verification_runs_outside_the_store_lock() {
        use crate::backend::{LocalFs, StorageFile};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc, Condvar, Mutex};

        #[derive(Debug)]
        struct GatedFs {
            inner: LocalFs,
            armed: AtomicBool,
            entered: Mutex<Option<mpsc::Sender<()>>>,
            release: Mutex<bool>,
            cv: Condvar,
        }
        impl StorageBackend for GatedFs {
            fn create(&self, name: &str) -> std::io::Result<Box<dyn StorageFile>> {
                self.inner.create(name)
            }
            fn get(&self, name: &str) -> std::io::Result<Vec<u8>> {
                // First shard read while armed: announce entry, then block
                // until the appender has made progress.
                if name.starts_with("shard-") && self.armed.swap(false, Ordering::SeqCst) {
                    if let Some(tx) = self.entered.lock().expect("entered lock").take() {
                        let _ = tx.send(());
                    }
                    let mut released = self.release.lock().expect("release lock");
                    while !*released {
                        released = self.cv.wait(released).expect("cv wait");
                    }
                }
                self.inner.get(name)
            }
            fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
                self.inner.rename(from, to)
            }
            fn remove(&self, name: &str) -> std::io::Result<()> {
                self.inner.remove(name)
            }
            fn exists(&self, name: &str) -> std::io::Result<bool> {
                self.inner.exists(name)
            }
            fn list(&self) -> std::io::Result<Vec<String>> {
                self.inner.list()
            }
            fn sync_dir(&self) -> std::io::Result<()> {
                self.inner.sync_dir()
            }
            fn describe(&self) -> String {
                self.inner.describe()
            }
        }

        let dir = temp_dir("lock-narrow");
        let survey = survey(6);
        let dataset = survey.run();
        let mut meta = StoreMeta::for_survey(&survey);
        meta.shard_capacity = 2;
        let seed_store = DatasetStore::open(&dir, meta.clone()).expect("open");
        for m in &dataset.sites[..4] {
            seed_store.append(m).expect("append");
        }
        seed_store
            .finish(&Provenance::of(&survey, &dataset))
            .expect("finish");
        drop(seed_store);

        let (tx, entered_rx) = mpsc::channel();
        let gated = Arc::new(GatedFs {
            inner: LocalFs::open(&dir).expect("open backend"),
            armed: AtomicBool::new(false),
            entered: Mutex::new(Some(tx)),
            release: Mutex::new(false),
            cv: Condvar::new(),
        });
        let backend: Arc<dyn StorageBackend> = gated.clone();
        let store = Arc::new(DatasetStore::open_on(backend, meta).expect("open on gated"));
        gated.armed.store(true, Ordering::SeqCst);

        let scrub_store = store.clone();
        let scrubber = std::thread::spawn(move || scrub_store.scrub_with_threads(2));
        entered_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("scrubber never reached shard verification");

        // Scrubber is now parked inside a shard read. If it held the store
        // lock across verification (the old behaviour), this append would
        // deadlock until the gate opens; the watchdog channel catches that.
        let (done_tx, done_rx) = mpsc::channel();
        let append_store = store.clone();
        let m = dataset.sites[4].clone();
        let appender = std::thread::spawn(move || {
            let r = append_store.append(&m);
            let _ = done_tx.send(());
            r
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("append blocked behind the scrubber: store lock held across verification");

        *gated.release.lock().expect("release lock") = true;
        gated.cv.notify_all();
        appender.join().expect("appender").expect("append ok");
        let report = scrubber.join().expect("scrubber").expect("scrub ok");
        assert_eq!(report.shards_examined, 2, "only pre-snapshot shards");
        // The concurrently appended record (an unsealed post-snapshot
        // shard) must have survived the scrub untouched.
        let scan = store.scan().expect("scan");
        assert_eq!(scan.recovered, 5);
    }

    #[test]
    fn scrub_report_json_is_well_formed() {
        let report = ScrubReport {
            shards_examined: 3,
            shards_quarantined: 1,
            records_salvaged: 7,
            ..ScrubReport::default()
        };
        let json = report.render_json(2);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"shards_quarantined\": 1,"));
        assert!(json.contains("\"clean\": false"));
        assert_eq!(json.matches(':').count(), 12);
    }
}
