//! Timing decorators around the layers' public seams: the blocker (through
//! [`RequestPolicy`]), the dataset store (through [`StorageBackend`]) and the
//! object store (through [`ObjectStore`]). Each forwards every call to the
//! wrapped value unchanged and adds only counters.

use bfu_core::browser::RequestPolicy;
use bfu_core::crawler::PolicyAdapter;
use bfu_core::net::HttpRequest;
use bfu_core::objstore::{
    ObjFaultPlan, ObjectStore, RemoteTotals, ReplicaTotals, ReplicatedObjectStore, SimObjectStore,
};
use bfu_core::store::{StorageBackend, StorageFile};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A call count and the wall time spent in those calls.
#[derive(Debug, Default)]
pub struct OpStat {
    pub count: AtomicU64,
    pub ns: AtomicU64,
}

impl OpStat {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.ns.fetch_add(elapsed_ns(t0), Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean wall time per call in `unit_ns` units (0 when never called).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.ns.load(Ordering::Relaxed) as f64 / n as f64 / unit_ns
    }
}

/// Blocker decisions seen by a [`TimedPolicy`].
#[derive(Debug, Default)]
pub struct PolicyStats {
    pub decide: OpStat,
    pub blocked: AtomicU64,
}

/// The crawler's [`PolicyAdapter`] with every decision timed.
#[derive(Debug, Clone)]
pub struct TimedPolicy {
    pub inner: PolicyAdapter,
    pub stats: Arc<PolicyStats>,
}

impl RequestPolicy for TimedPolicy {
    fn decide(&self, req: &HttpRequest) -> Option<String> {
        let out = self.stats.decide.time(|| self.inner.decide(req));
        if out.is_some() {
            self.stats.blocked.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn hiding_selectors(&self, domain: &str) -> Vec<String> {
        self.inner.hiding_selectors(domain)
    }
}

/// Per-worker completion marks: the gap between consecutive marks on one
/// thread is one site's latency as that worker saw it.
#[derive(Debug)]
pub struct SiteMarks {
    start: Instant,
    last: Mutex<HashMap<ThreadId, Instant>>,
    gaps_ms: Mutex<Vec<f64>>,
}

impl SiteMarks {
    pub fn new(start: Instant) -> Self {
        SiteMarks {
            start,
            last: Mutex::new(HashMap::new()),
            gaps_ms: Mutex::new(Vec::new()),
        }
    }

    /// Record one completion on the calling thread.
    pub fn mark(&self) {
        let now = Instant::now();
        let prev = self
            .last
            .lock()
            .expect("marks lock poisoned")
            .insert(std::thread::current().id(), now)
            .unwrap_or(self.start);
        let gap = now.duration_since(prev).as_secs_f64() * 1e3;
        self.gaps_ms.lock().expect("marks lock poisoned").push(gap);
    }

    pub fn gaps_ms(&self) -> Vec<f64> {
        self.gaps_ms.lock().expect("marks lock poisoned").clone()
    }
}

/// Dataset-store backend ops seen by a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct StoreStats {
    pub create: OpStat,
    pub get: OpStat,
    pub rename: OpStat,
    pub remove: OpStat,
    pub exists: OpStat,
    pub list: OpStat,
    pub put: OpStat,
    /// Atomic whole-object publishes (`replace` and `replace_if`).
    pub replace: OpStat,
    /// File `sync_all` plus namespace `sync_dir`.
    pub sync: OpStat,
    pub bytes_written: AtomicU64,
}

/// A [`StorageBackend`] decorator counting and timing every operation.
#[derive(Debug)]
pub struct TimedBackend {
    pub inner: Arc<dyn StorageBackend>,
    pub stats: Arc<StoreStats>,
}

#[derive(Debug)]
struct TimedFile {
    inner: Box<dyn StorageFile>,
    stats: Arc<StoreStats>,
}

impl StorageFile for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.stats
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.stats.sync.time(|| self.inner.sync_all())
    }
}

impl StorageBackend for TimedBackend {
    fn create(&self, name: &str) -> io::Result<Box<dyn StorageFile>> {
        let inner = self.stats.create.time(|| self.inner.create(name))?;
        Ok(Box::new(TimedFile {
            inner,
            stats: Arc::clone(&self.stats),
        }))
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.stats.get.time(|| self.inner.get(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.stats.rename.time(|| self.inner.rename(from, to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.stats.remove.time(|| self.inner.remove(name))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.stats.exists.time(|| self.inner.exists(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.stats.list.time(|| self.inner.list())
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.stats.sync.time(|| self.inner.sync_dir())
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    // The remaining methods have defaults built from the ones above; the
    // wrapped backend may override them (the object-store adapter publishes
    // with one versioned put), so forward rather than re-derive.

    fn put(&self, name: &str, contents: &[u8]) -> io::Result<()> {
        self.stats
            .bytes_written
            .fetch_add(contents.len() as u64, Ordering::Relaxed);
        self.stats.put.time(|| self.inner.put(name, contents))
    }

    fn replace(&self, name: &str, contents: &[u8]) -> io::Result<()> {
        self.stats
            .bytes_written
            .fetch_add(contents.len() as u64, Ordering::Relaxed);
        self.stats
            .replace
            .time(|| self.inner.replace(name, contents))
    }

    fn op_totals(&self) -> Option<bfu_core::crawler::BackendTotals> {
        self.inner.op_totals()
    }

    fn generation(&self, name: &str) -> io::Result<u64> {
        self.inner.generation(name)
    }

    fn replace_if(&self, name: &str, expected: u64, contents: &[u8]) -> io::Result<u64> {
        self.stats
            .bytes_written
            .fetch_add(contents.len() as u64, Ordering::Relaxed);
        self.stats
            .replace
            .time(|| self.inner.replace_if(name, expected, contents))
    }
}

/// Object-store ops seen by [`TimedObjectStore`]s (shared by all replicas).
#[derive(Debug, Default)]
pub struct ObjStats {
    /// `put`, `put_if` and `put_at`.
    pub put: OpStat,
    /// `get` and `get_at`.
    pub get: OpStat,
    pub head: OpStat,
    pub list: OpStat,
    pub delete: OpStat,
    pub bytes_put: AtomicU64,
}

/// An [`ObjectStore`] decorator counting and timing every operation.
#[derive(Debug)]
pub struct TimedObjectStore {
    pub inner: Arc<dyn ObjectStore>,
    pub stats: Arc<ObjStats>,
}

impl TimedObjectStore {
    fn put_bytes(&self, bytes: &[u8]) {
        self.stats
            .bytes_put
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }
}

impl ObjectStore for TimedObjectStore {
    fn put(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.put_bytes(bytes);
        self.stats.put.time(|| self.inner.put(name, bytes))
    }

    fn get(&self, name: &str) -> io::Result<Vec<u8>> {
        self.stats.get.time(|| self.inner.get(name))
    }

    fn delete(&self, name: &str) -> io::Result<()> {
        self.stats.delete.time(|| self.inner.delete(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.stats.list.time(|| self.inner.list())
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn head(&self, name: &str) -> io::Result<u64> {
        self.stats.head.time(|| self.inner.head(name))
    }

    fn put_if(&self, name: &str, expected: u64, bytes: &[u8]) -> io::Result<u64> {
        self.put_bytes(bytes);
        self.stats
            .put
            .time(|| self.inner.put_if(name, expected, bytes))
    }

    fn remote_totals(&self) -> Option<RemoteTotals> {
        self.inner.remote_totals()
    }

    fn put_at(&self, name: &str, gen: u64, bytes: &[u8]) -> io::Result<()> {
        self.put_bytes(bytes);
        self.stats.put.time(|| self.inner.put_at(name, gen, bytes))
    }

    fn get_at(&self, name: &str, gen: u64) -> io::Result<Vec<u8>> {
        self.stats.get.time(|| self.inner.get_at(name, gen))
    }

    fn replica_totals(&self) -> Option<ReplicaTotals> {
        self.inner.replica_totals()
    }
}

/// Replicas behind every replicated store the benchmark builds.
pub const REPLICAS: usize = 3;

/// A replicated object store over [`REPLICAS`] fault-free simulated
/// replicas with majority quorums; each replica is timed into `stats` when
/// given.
pub fn replicated_sims(stats: Option<&Arc<ObjStats>>) -> io::Result<ReplicatedObjectStore> {
    let replicas = (0..REPLICAS)
        .map(|_| {
            let sim: Arc<dyn ObjectStore> = Arc::new(SimObjectStore::new(ObjFaultPlan::none()));
            match stats {
                Some(stats) => Arc::new(TimedObjectStore {
                    inner: sim,
                    stats: Arc::clone(stats),
                }),
                None => sim,
            }
        })
        .collect();
    ReplicatedObjectStore::majority(replicas)
}
