//! Crash-safe on-disk dataset shards for survey results.
//!
//! The paper's crawl is the expensive step: measuring feature usage across
//! the Alexa 10k under multiple blocking profiles takes orders of magnitude
//! longer than any analysis over the result. This crate makes that cost
//! pay-once: survey results stream to an append-only, sharded on-disk format
//! as the crawl progresses, so an interrupted crawl resumes from where it
//! died, and every table and figure can be regenerated from a stored dataset
//! with zero crawl activity.
//!
//! The format is deliberately boring:
//!
//! - [`backend`]: the [`backend::StorageBackend`] trait every byte of store
//!   I/O goes through — [`backend::LocalFs`] in production (with `EINTR`
//!   retry, short-write resumption, and fsync-before-publish), and
//! - [`faultfs`]: a deterministic, seeded fault-injecting backend with an
//!   explicit crash model, so the torture suite can kill the store at every
//!   I/O boundary and prove recovery.
//! - [`shard`]: fixed-capacity shard files of length-prefixed, per-record
//!   checksummed site measurements, sealed with a chained footer checksum
//!   and an `fsync`. Writers flush per record; readers recover every intact
//!   record from damaged files and report (never fail on) the rest.
//! - [`encode`]: the compact little-endian record encoding of one
//!   [`bfu_crawler::SiteMeasurement`], fingerprint-exact on round-trip.
//! - [`manifest`]: a small durably-and-atomically rewritten text file keyed
//!   by the survey fingerprint — the identity check that stops two different
//!   configurations from mixing in one directory.
//! - [`scrub`]: the verify/quarantine/compact pass that repairs accumulated
//!   damage (corrupt shards move aside, never deleted; fragments compact
//!   into full shards) and reports what it did in the provenance sidecar.
//! - [`store`]: the [`DatasetStore`] tying those together, plus the two
//!   consumers the store exists for: [`resume_survey`] (scrub, then crawl
//!   only the sites the store is missing — lost sites self-heal) and
//!   [`load_survey_dataset`] (memoized analysis, no crawling).
//!
//! Determinism is what makes resumption sound: per-site measurements depend
//! only on the survey fingerprint and the site — a tested invariant of the
//! crawler — so a dataset assembled from stored and fresh halves is
//! fingerprint-identical to an uninterrupted run's.

// The store guards the only copy of an expensive crawl: an unwrap/expect
// outside tests is a latent panic standing between a survey and its data.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod encode;
pub mod faultfs;
pub mod manifest;
pub mod scrub;
pub mod shard;
pub mod store;

pub use backend::{
    as_cas_conflict, cas_conflict_error, write_all_retrying, CasConflict, LocalFs, StorageBackend,
    StorageFile,
};
pub use encode::{decode_site, encode_site};
pub use faultfs::{FaultFs, StoreFaultPlan};
pub use manifest::{Manifest, MANIFEST_NAME};
pub use scrub::ScrubReport;
pub use shard::{read_shard, SealedShard, ShardContents, ShardWriter};
pub use store::{
    load_survey_dataset, load_survey_dataset_on, resume_survey, resume_survey_on, DatasetStore,
    LoadOutcome, ReadReport, ResumeOutcome, StoreError, StoreMeta, StoreScan,
    DEFAULT_SHARD_CAPACITY, PROVENANCE_NAME,
};
