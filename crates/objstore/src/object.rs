//! The narrow object contract every object store implements.

use std::fmt;
use std::io;

/// A flat namespace of whole, immutable-once-written byte objects.
///
/// Semantics (the contract [`crate::ObjectBackend`] builds on):
///
/// - [`ObjectStore::put`] is **atomic and durable on acknowledgement**:
///   after `Ok`, a reader sees either the complete new object or an older
///   complete version — never a prefix, never a mixture — and the new
///   version survives a crash. Visibility may lag acknowledgement.
/// - [`ObjectStore::get`] returns one complete version of the object.
///   It is *allowed* to be stale: an acknowledged put may take bounded time
///   to become visible, and a reader may briefly see an older version.
/// - [`ObjectStore::list`] enumerates names in **no particular order** and
///   may reflect a slightly stale view of the namespace.
/// - [`ObjectStore::delete`] removes the object; like puts, tombstones may
///   take bounded time to become visible.
/// - [`ObjectStore::head`] and [`ObjectStore::put_if`] speak **generations**:
///   every visible version of a name has a generation, distinct versions
///   never share one, and 0 is reserved for "absent". Unlike plain gets,
///   these are the store's *strongly consistent* ops — real object stores
///   grew exactly this split (eventual reads, linearizable conditional
///   writes), and the coordinator-election fence depends on it.
///
/// There is no rename, no partial write, no directory sync. Anything the
/// store layer needs beyond this is synthesized by the adapter.
pub trait ObjectStore: fmt::Debug + Send + Sync {
    /// Atomically write the whole object `name`. Durable on `Ok`.
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Read one complete (possibly stale) version of object `name`.
    /// [`io::ErrorKind::NotFound`] if no version is visible.
    fn get(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Delete object `name`. [`io::ErrorKind::NotFound`] if no version is
    /// visible.
    fn delete(&self, name: &str) -> io::Result<()>;

    /// All visible object names, in unspecified order, possibly stale.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Human-readable location for error messages and provenance.
    fn describe(&self) -> String;

    /// The current generation of `name` (never 0), read strongly
    /// consistently; [`io::ErrorKind::NotFound`] if absent.
    fn head(&self, name: &str) -> io::Result<u64>;

    /// Conditional put: write `bytes` to `name` only if its current
    /// generation equals `expected` (0 = must be absent). The compare and
    /// the write are one atomic step, which the election fence requires.
    /// Returns the new generation; a lost race is a
    /// [`bfu_store::CasConflict`]-carrying error (recover it with
    /// [`bfu_store::as_cas_conflict`]).
    fn put_if(&self, name: &str, expected: u64, bytes: &[u8]) -> io::Result<u64>;

    /// Wire-level op accounting, if this store is a network client.
    ///
    /// `None` for local stores; [`crate::RemoteObjectStore`] reports the
    /// requests, retries, and reconnects it spent, which the adapter folds
    /// into [`bfu_crawler::BackendTotals`] for the provenance sidecar.
    fn remote_totals(&self) -> Option<RemoteTotals> {
        None
    }

    /// Write `bytes` at **exactly** generation `gen` — the replication
    /// primitive. Generations are immutable once written: if `gen` already
    /// exists the call is an idempotent no-op (the replication layer only
    /// ever re-sends the same content for the same generation). The store's
    /// head must become at least `gen` afterwards.
    ///
    /// Only stores that participate in replication implement this; the
    /// default refuses with [`io::ErrorKind::Unsupported`], the same
    /// pattern as election support elsewhere in the stack.
    fn put_at(&self, name: &str, gen: u64, bytes: &[u8]) -> io::Result<()> {
        let _ = (name, gen, bytes);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "store does not support exact-generation writes",
        ))
    }

    /// Read **exactly** generation `gen` of `name` — the verifiable read.
    /// Because a generation's content is immutable, any replica serving
    /// generation `gen` serves *the* content of that generation; the call
    /// is immune to the staleness plain `get` is allowed. `NotFound` if
    /// that generation is absent on this store.
    fn get_at(&self, name: &str, gen: u64) -> io::Result<Vec<u8>> {
        let _ = (name, gen);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "store does not support exact-generation reads",
        ))
    }

    /// Replication-layer accounting, if this store is a replicated front.
    ///
    /// `None` for plain stores; [`crate::ReplicatedObjectStore`] reports
    /// quorum writes/reads, read repairs, absorbed replica errors, CAS
    /// primary promotions, and anti-entropy copies, which the adapter folds
    /// into [`bfu_crawler::BackendTotals`] for the provenance sidecar.
    fn replica_totals(&self) -> Option<ReplicaTotals> {
        None
    }
}

/// Effort counters for a replicated store front: how much quorum work it
/// did and how much repair traffic the replica set needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaTotals {
    /// Replicas in the set.
    pub replicas: u64,
    /// Mutations acknowledged at write quorum.
    pub quorum_writes: u64,
    /// Reads served at read quorum.
    pub quorum_reads: u64,
    /// Stale replicas repaired inline by a quorum read.
    pub read_repairs: u64,
    /// Individual replica failures absorbed by the quorum (the op still
    /// succeeded).
    pub replica_errors: u64,
    /// CAS ops routed through a promoted primary because the deterministic
    /// primary was unreachable.
    pub cas_promotions: u64,
    /// Object generations copied to lagging replicas by anti-entropy scrub.
    pub anti_entropy_copies: u64,
}

/// Effort counters for a store that talks over a wire: how many requests
/// it issued and how much of that was spent re-sending.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteTotals {
    /// Logical operations issued over the wire.
    pub ops: u64,
    /// Extra request attempts beyond the first (drops, stalls, truncated
    /// or reordered responses, transient server errors).
    pub retries: u64,
    /// Connections re-established after a broken stream.
    pub reconnects: u64,
}
