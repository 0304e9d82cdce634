//! # bfu-fabric
//!
//! The lease-based multi-worker survey fabric: how one survey scales past
//! one process without ever double-counting or silently dropping a site.
//!
//! The paper's crawl ran from a single orchestrated host; the roadmap's
//! million-site target needs many workers surveying disjoint ranges, and
//! the follow-up measurement literature makes crawl *completeness* a
//! validity requirement — a worker dying mid-range must never silently
//! lose its sites. The fabric gets there with three pieces:
//!
//! - [`lease`] — the site list partitioned into leases: a site range, a
//!   **fencing epoch**, and a deadline on the virtual clock. The lease
//!   table persists through [`bfu_store::StorageBackend`] with the same
//!   atomic-publish discipline as the store manifest, so the coordinator's
//!   own state is crash-safe.
//! - [`worker`] — a worker crawls its leased range through
//!   [`bfu_crawler::SiteCrawler`] into *staging* shards whose names live
//!   outside the canonical `shard-NNNNN.bfu` namespace: a zombie worker
//!   can write all it likes without the store's scan or scrub ever seeing
//!   the bytes.
//! - [`coordinator`] — issues leases, reclaims expired ones (bumping the
//!   epoch, which fences every publish the previous holder might still
//!   attempt), and runs the **merge point**: the single place staged
//!   records enter the canonical store. A publish is absorbed only if its
//!   lease is still issued under the same epoch; anything else is fenced.
//!
//! Recovery invariant, proven by the `fabric_torture` suite: kill any
//! worker at any crawl/seal/publish step, crash the coordinator between
//! lease-table writes, double-issue a lease, replay a stale publish — the
//! finished dataset fingerprints identically to an uninterrupted
//! single-process run. Duplicate absorbed records collapse under the
//! store's first-record-wins scan; records lost to a death re-crawl when
//! the lease expires and reissues; the final scrub + heal pass closes any
//! residual gap.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coordinator;
pub mod election;
pub mod lease;
pub mod proc;
pub mod run;
pub mod sim;
pub mod worker;

pub use coordinator::{Coordinator, FabricError, FabricOutcome, MergeOutcome};
pub use election::{election_supported, try_elect, CoordRecord, ElectionHandle, COORD_NAME};
pub use lease::{Lease, LeaseState, LeaseTable, LEASES_NAME};
pub use proc::{
    publish_name, run_fabric_coordinator, run_fabric_worker, run_survey_fabric_processes,
    ProcConfig, WorkerExit, DONE_NAME, PUBLISH_PREFIX,
};
pub use run::{run_survey_fabric, FabricConfig};
pub use sim::{run_sim, FabricFaultPlan, SimOutcome, StepProbe};
pub use worker::WorkerPublish;
pub use worker::{run_worker, stage_name, LeaseGrant, NoProbe, Probe, StepOutcome, WorkerRun};
