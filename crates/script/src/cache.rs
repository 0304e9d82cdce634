//! Content-addressed script compilation cache.
//!
//! A crawl executes the same script sources over and over: every page is
//! visited once per round per browser profile, and third-party scripts are
//! shared across thousands of sites. Lexing + parsing is pure — the output
//! depends only on the source text — so the crawl re-derives identical ASTs
//! millions of times. This module memoizes that work survey-wide.
//!
//! Design:
//!
//! - **Keying.** Scripts are keyed by [`ScriptCache::content_hash`], a
//!   word-at-a-time hash of the source bytes, and every entry keeps its
//!   source. A probe is a hit only if the stored source is the probe's own
//!   allocation (same pointer and length) or holds equal bytes, so a key
//!   collision, chance or crafted, costs a second entry and a second parse,
//!   never another script's program. The stored source is the allocation
//!   the embedder passed in ([`Source::decoded`]), so a served script body
//!   is kept, not copied.
//! - **Negative caching.** Parse *errors* are cached alongside successes.
//!   [`ParseError`] is a plain value (`Clone + PartialEq`), so a hostile
//!   malformed script is diagnosed once and every later encounter replays
//!   the identical error — hit and miss behave bit-identically.
//! - **Striping.** Each map is striped across sixteen mutexes chosen by the
//!   hash's low bits, so worker threads parsing different scripts rarely
//!   contend. Parsing happens *under* the stripe lock: two threads racing on
//!   the same new script serialize, and exactly one parse per unique source
//!   ever runs. That makes the miss counter deterministic (== unique sources
//!   seen), not scheduling-dependent.
//! - **Determinism.** Parsing consumes no interpreter fuel (budgets are
//!   installed per execution phase, after parsing), so replaying a cached
//!   AST burns exactly the fuel a fresh parse-then-run would. Cached ASTs
//!   are immutable `Arc<Program>`s shared by all threads.

use crate::ast::Program;
use crate::compile::{Chunk, CompileError};
use crate::parser::{parse, ParseError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of lock stripes. Power of two so stripe selection is a mask; 16
/// comfortably exceeds the crawler's worker-thread counts.
const STRIPES: usize = 16;

/// What a cache entry holds: a shared parsed program, or the diagnosed
/// parse error replayed on every later encounter (negative caching).
pub type ParseOutcome = Result<Arc<Program>, ParseError>;

/// Why a source has no bytecode chunk: it never parsed, or it parsed but
/// would not lower. Both are plain values cached negatively, so every later
/// encounter replays the identical diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// The source failed to parse (same error the AST family caches).
    Parse(ParseError),
    /// The source parsed but the bytecode compiler rejected it; the
    /// embedder falls back to tree-walk execution of the cached AST.
    Compile(CompileError),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Parse(e) => write!(f, "{e}"),
            ChunkError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ChunkError {}

/// What a chunk-cache entry holds: a shared compiled chunk, or the cached
/// reason there is none.
pub type ChunkOutcome = Result<Arc<Chunk>, ChunkError>;

/// A script source as the cache sees it: the text, plus the shared
/// allocation holding exactly those bytes when the embedder has one.
#[derive(Debug, Clone, Copy)]
pub struct Source<'a> {
    text: &'a str,
    shared: Option<&'a Arc<[u8]>>,
}

impl<'a> Source<'a> {
    /// `text` as decoded from `bytes`. When decoding borrowed the bytes
    /// (they were valid UTF-8), a cache miss keeps `bytes` instead of
    /// copying the text; when it replaced invalid bytes, the text is copied.
    pub fn decoded(text: &'a str, bytes: &'a Arc<[u8]>) -> Self {
        let borrowed = std::ptr::eq(text.as_bytes(), &bytes[..]);
        Source {
            text,
            shared: borrowed.then_some(bytes),
        }
    }

    /// The source text.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Whether `stored` holds this source: the same allocation, or else
    /// equal bytes.
    fn is(&self, stored: &[u8]) -> bool {
        std::ptr::eq(stored, self.text.as_bytes()) || stored == self.text.as_bytes()
    }

    /// The allocation a new entry keeps: the shared one, else a copy.
    fn to_shared(self) -> Arc<[u8]> {
        match self.shared {
            Some(bytes) => Arc::clone(bytes),
            None => Arc::from(self.text.as_bytes()),
        }
    }
}

impl<'a> From<&'a str> for Source<'a> {
    fn from(text: &'a str) -> Self {
        Source { text, shared: None }
    }
}

/// One cached source: the bytes every later hit is confirmed against, and
/// what they produced.
#[derive(Debug)]
struct Entry<T> {
    source: Arc<[u8]>,
    outcome: T,
}

/// One lock stripe: content hash → every distinct source with that hash
/// (one, barring a collision).
type Stripe<T> = Mutex<HashMap<u64, Vec<Entry<T>>>>;

/// Lock one stripe. A poisoned stripe is still consistent (entries are
/// inserted whole), so its guard is taken as is.
fn lock<T>(stripe: &Stripe<T>) -> MutexGuard<'_, HashMap<u64, Vec<Entry<T>>>> {
    match stripe.lock() {
        Ok(m) => m,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The stripe the low bits of `key` select.
fn stripe<T>(stripes: &[Stripe<T>; STRIPES], key: u64) -> &Stripe<T> {
    &stripes[(key as usize) & (STRIPES - 1)]
}

/// The entry for `src` under `key`, if one is resident.
fn find<'m, T>(
    map: &'m HashMap<u64, Vec<Entry<T>>>,
    key: u64,
    src: &Source<'_>,
) -> Option<&'m Entry<T>> {
    map.get(&key)?.iter().find(|e| src.is(&e.source))
}

/// Number of entries resident across `stripes`.
fn entries<T>(stripes: &[Stripe<T>; STRIPES]) -> u64 {
    let n: usize = stripes
        .iter()
        .map(|s| lock(s).values().map(Vec::len).sum::<usize>())
        .sum();
    n as u64
}

/// The 128-bit product of `a` and `b`, its high half folded onto its low.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// What one cache probe observed (for the embedder's per-page stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Source was parsed for the first time (cache filled).
    Miss,
    /// A previously parsed program was reused.
    Hit,
    /// A previously diagnosed parse error was replayed.
    NegativeHit,
}

/// Survey-wide totals, read from atomics after a run. Hits and negative
/// hits are deterministic given a fixed visit plan (every probe after the
/// first for a given source is a hit, regardless of which thread gets
/// there first); misses equal the number of unique sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that reused a parsed program.
    pub hits: u64,
    /// Probes that parsed fresh source.
    pub misses: u64,
    /// Probes that replayed a cached parse error.
    pub negative_hits: u64,
    /// Distinct sources currently resident (== successful + failed parses).
    pub unique_sources: u64,
    /// Chunk probes that reused a compiled chunk.
    pub chunk_hits: u64,
    /// Chunk probes that compiled fresh (== unique sources probed as chunks).
    pub chunk_misses: u64,
    /// Chunk probes that replayed a cached parse/compile error.
    pub chunk_negative_hits: u64,
    /// Distinct sources resident in the chunk map.
    pub unique_chunks: u64,
}

impl CacheStats {
    /// Fraction of probes (both families) served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.negative_hits + self.chunk_hits + self.chunk_negative_hits;
        let total = served + self.misses + self.chunk_misses;
        if total == 0 {
            return 0.0;
        }
        served as f64 / total as f64
    }
}

/// A thread-safe, content-addressed map from script source to parse result.
///
/// Shared via `Arc` across every page, site, round, profile, and worker
/// thread of a survey. See the module docs for the determinism argument.
///
/// # Examples
///
/// ```
/// use bfu_script::cache::ScriptCache;
/// let cache = ScriptCache::new();
/// let a = cache.lookup_or_parse("var x = 1;").expect("parses");
/// let b = cache.lookup_or_parse("var x = 1;").expect("parses");
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Default)]
pub struct ScriptCache {
    stripes: [Stripe<ParseOutcome>; STRIPES],
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    chunk_stripes: [Stripe<ChunkOutcome>; STRIPES],
    chunk_hits: AtomicU64,
    chunk_misses: AtomicU64,
    chunk_negative_hits: AtomicU64,
}

impl ScriptCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScriptCache::default()
    }

    /// The cache key for `src`: its bytes hashed eight at a time, each word
    /// mixed in by a folded 128-bit multiply, so the low bits that pick a
    /// stripe depend on every input bit.
    pub fn content_hash(src: &str) -> u64 {
        // 2^64 divided by the golden ratio: odd, with no bit pattern.
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let (words, tail) = src.as_bytes().as_chunks::<8>();
        let mut h = src.len() as u64;
        for word in words {
            h = fold_mul(h ^ u64::from_le_bytes(*word), K);
        }
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        fold_mul(h ^ u64::from_le_bytes(last), K)
    }

    /// Parse `src`, or reuse the cached result for identical source.
    ///
    /// Returns the shared program on success, or a replay of the cached
    /// [`ParseError`] for source already known to be malformed.
    pub fn lookup_or_parse<'a>(&self, src: impl Into<Source<'a>>) -> ParseOutcome {
        self.lookup_or_parse_counted(src).0
    }

    /// [`ScriptCache::lookup_or_parse`] plus what the probe observed.
    pub fn lookup_or_parse_counted<'a>(
        &self,
        src: impl Into<Source<'a>>,
    ) -> (ParseOutcome, CacheOutcome) {
        let src = src.into();
        self.parse_keyed(ScriptCache::content_hash(src.text), src)
    }

    /// [`ScriptCache::lookup_or_parse_counted`] under a given key.
    fn parse_keyed(&self, key: u64, src: Source<'_>) -> (ParseOutcome, CacheOutcome) {
        let mut map = lock(stripe(&self.stripes, key));
        if let Some(cached) = find(&map, key, &src) {
            let outcome = match cached.outcome {
                Ok(_) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::Hit
                }
                Err(_) => {
                    self.negative_hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::NegativeHit
                }
            };
            return (cached.outcome.clone(), outcome);
        }
        // Parse under the stripe lock: a second thread racing on the same
        // source waits here and then hits, so misses count unique sources
        // exactly and no parse ever runs twice.
        let result = parse(src.text).map(Arc::new);
        map.entry(key).or_default().push(Entry {
            source: src.to_shared(),
            outcome: result.clone(),
        });
        self.misses.fetch_add(1, Ordering::Relaxed);
        (result, CacheOutcome::Miss)
    }

    /// Compile `src` to a bytecode chunk, or reuse the cached result for
    /// identical source.
    ///
    /// The chunk family is layered over the AST family: a chunk miss first
    /// fills the AST map (without charging AST probe counters — one probe,
    /// one count), then lowers the program. Parse *and* compile failures are
    /// cached negatively, so a malformed or uncompilable source is diagnosed
    /// once and every later encounter replays the identical [`ChunkError`].
    pub fn lookup_or_compile<'a>(&self, src: impl Into<Source<'a>>) -> ChunkOutcome {
        self.lookup_or_compile_counted(src).0
    }

    /// [`ScriptCache::lookup_or_compile`] plus what the probe observed.
    pub fn lookup_or_compile_counted<'a>(
        &self,
        src: impl Into<Source<'a>>,
    ) -> (ChunkOutcome, CacheOutcome) {
        let src = src.into();
        self.compile_keyed(ScriptCache::content_hash(src.text), src)
    }

    /// [`ScriptCache::lookup_or_compile_counted`] under a given key.
    fn compile_keyed(&self, key: u64, src: Source<'_>) -> (ChunkOutcome, CacheOutcome) {
        let mut map = lock(stripe(&self.chunk_stripes, key));
        if let Some(cached) = find(&map, key, &src) {
            let outcome = match cached.outcome {
                Ok(_) => {
                    self.chunk_hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::Hit
                }
                Err(_) => {
                    self.chunk_negative_hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::NegativeHit
                }
            };
            return (cached.outcome.clone(), outcome);
        }
        // Compile under the chunk-stripe lock (same argument as parsing:
        // misses == unique sources, exactly one compile each). The AST map
        // is filled en route so a compile-error fallback — or a later
        // tree-walk engine probing the same source — reuses the parse. Lock
        // order is chunk stripe → AST stripe only, and the AST-only path
        // never takes a chunk lock, so no cycle exists.
        let (source, parsed) = self.parse_for_chunk(key, src);
        let result = match parsed {
            Ok(program) => match crate::compile::compile(&program) {
                Ok(chunk) => Ok(Arc::new(chunk)),
                Err(e) => Err(ChunkError::Compile(e)),
            },
            Err(e) => Err(ChunkError::Parse(e)),
        };
        map.entry(key).or_default().push(Entry {
            source,
            outcome: result.clone(),
        });
        self.chunk_misses.fetch_add(1, Ordering::Relaxed);
        (result, CacheOutcome::Miss)
    }

    /// Probe-or-fill the AST family for the chunk path, without ticking the
    /// AST probe counters (the chunk counters already record this probe).
    /// Returns the AST entry's source too, so both families keep one
    /// allocation.
    fn parse_for_chunk(&self, key: u64, src: Source<'_>) -> (Arc<[u8]>, ParseOutcome) {
        let mut map = lock(stripe(&self.stripes, key));
        if let Some(cached) = find(&map, key, &src) {
            return (Arc::clone(&cached.source), cached.outcome.clone());
        }
        let source = src.to_shared();
        let result = parse(src.text).map(Arc::new);
        map.entry(key).or_default().push(Entry {
            source: Arc::clone(&source),
            outcome: result.clone(),
        });
        (source, result)
    }

    /// Current totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            unique_sources: entries(&self.stripes),
            chunk_hits: self.chunk_hits.load(Ordering::Relaxed),
            chunk_misses: self.chunk_misses.load(Ordering::Relaxed),
            chunk_negative_hits: self.chunk_negative_hits.load(Ordering::Relaxed),
            unique_chunks: entries(&self.chunk_stripes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_program() {
        let cache = ScriptCache::new();
        let (a, o1) = cache.lookup_or_parse_counted("var a = 1 + 2;");
        let (b, o2) = cache.lookup_or_parse_counted("var a = 1 + 2;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.negative_hits), (1, 1, 0));
        assert_eq!(s.unique_sources, 1);
    }

    #[test]
    fn negative_cache_replays_identical_error() {
        let cache = ScriptCache::new();
        let fresh = crate::parser::parse("var = ;").unwrap_err();
        let (first, o1) = cache.lookup_or_parse_counted("var = ;");
        let (second, o2) = cache.lookup_or_parse_counted("var = ;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::NegativeHit);
        assert_eq!(first.unwrap_err(), fresh);
        assert_eq!(second.unwrap_err(), fresh);
        assert_eq!(cache.stats().negative_hits, 1);
    }

    /// The global `x` after running `program` in a fresh interpreter.
    fn x_after(run: impl FnOnce(&mut crate::Interpreter)) -> f64 {
        let mut interp = crate::Interpreter::new();
        run(&mut interp);
        match interp.get_global("x") {
            crate::Value::Num(n) => n,
            other => panic!("x is {other:?}"),
        }
    }

    #[test]
    fn colliding_keys_parse_and_run_each_source() {
        let cache = ScriptCache::new();
        let (a, b) = ("var x = 1;", "var x = 2;");
        let (pa, oa) = cache.parse_keyed(7, a.into());
        let (pb, ob) = cache.parse_keyed(7, b.into());
        assert_eq!((oa, ob), (CacheOutcome::Miss, CacheOutcome::Miss));
        let (pa, pb) = (pa.unwrap(), pb.unwrap());
        assert_eq!(x_after(|i| drop(i.run(&pa).unwrap())), 1.0);
        assert_eq!(x_after(|i| drop(i.run(&pb).unwrap())), 2.0);
        // Later probes under the shared key find their own entries.
        let (again, o) = cache.parse_keyed(7, b.into());
        assert_eq!(o, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&again.unwrap(), &pb));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.unique_sources), (1, 2, 2));
    }

    #[test]
    fn colliding_keys_compile_and_run_each_source() {
        let cache = ScriptCache::new();
        let (a, b) = ("var x = 1;", "var x = 2;");
        let (ca, oa) = cache.compile_keyed(7, a.into());
        let (cb, ob) = cache.compile_keyed(7, b.into());
        assert_eq!((oa, ob), (CacheOutcome::Miss, CacheOutcome::Miss));
        let (ca, cb) = (ca.unwrap(), cb.unwrap());
        assert_eq!(x_after(|i| drop(crate::run_chunk(i, &ca).unwrap())), 1.0);
        assert_eq!(x_after(|i| drop(crate::run_chunk(i, &cb).unwrap())), 2.0);
        let (again, o) = cache.compile_keyed(7, a.into());
        assert_eq!(o, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&again.unwrap(), &ca));
        let s = cache.stats();
        assert_eq!((s.chunk_hits, s.chunk_misses, s.unique_chunks), (1, 2, 2));
        assert_eq!(s.unique_sources, 2, "each filled its own AST entry");
    }

    #[test]
    fn hits_are_confirmed_by_allocation_or_bytes() {
        let cache = ScriptCache::new();
        let body: Arc<[u8]> = Arc::from(&b"var x = 3;"[..]);
        let text = std::str::from_utf8(&body).unwrap();
        let (_, o) = cache.lookup_or_parse_counted(Source::decoded(text, &body));
        assert_eq!(o, CacheOutcome::Miss);
        // The miss kept the body's allocation, not a copy.
        let key = ScriptCache::content_hash(text);
        let kept = Arc::clone(&lock(stripe(&cache.stripes, key))[&key][0].source);
        assert!(Arc::ptr_eq(&kept, &body));
        // Equal bytes in another allocation hit too.
        let copy = String::from("var x = 3;");
        assert_eq!(
            cache.lookup_or_parse_counted(copy.as_str()).1,
            CacheOutcome::Hit
        );
    }

    #[test]
    fn lossy_decoding_keeps_a_copy_of_the_text() {
        let body: Arc<[u8]> = Arc::from("var x = 'é';".as_bytes());
        let bad: Arc<[u8]> = Arc::from(&b"var x = '\xff';"[..]);
        let text = std::str::from_utf8(&body).unwrap();
        assert!(Source::decoded(text, &body).shared.is_some());
        let lossy = String::from_utf8_lossy(&bad);
        assert!(Source::decoded(&lossy, &bad).shared.is_none());
    }

    #[test]
    fn content_hash_spreads_over_stripes() {
        // Sources differing in one late byte still spread over every stripe.
        let mut seen = [0u32; STRIPES];
        for i in 0..1_024 {
            let src = format!("{}var v = {i};", "/* pad */".repeat(40));
            seen[(ScriptCache::content_hash(&src) as usize) & (STRIPES - 1)] += 1;
        }
        assert!(seen.iter().all(|&n| (32..=96).contains(&n)), "{seen:?}");
        assert_ne!(
            ScriptCache::content_hash("ab"),
            ScriptCache::content_hash("ab\0")
        );
        assert_ne!(
            ScriptCache::content_hash(""),
            ScriptCache::content_hash("\0")
        );
    }

    #[test]
    fn distinct_sources_do_not_collide() {
        let cache = ScriptCache::new();
        let a = cache.lookup_or_parse("var a = 1;").unwrap();
        let b = cache.lookup_or_parse("var b = 2;").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().unique_sources, 2);
    }

    #[test]
    fn cached_programs_match_fresh_parse() {
        let src = "function f(x) { return x * 2; } var y = f(21);";
        let cache = ScriptCache::new();
        let cached = cache.lookup_or_parse(src).unwrap();
        let fresh = crate::parser::parse(src).unwrap();
        assert_eq!(*cached, fresh);
    }

    #[test]
    fn concurrent_probes_parse_once() {
        let cache = Arc::new(ScriptCache::new());
        let srcs: Vec<String> = (0..8).map(|i| format!("var v{i} = {i};")).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let srcs = srcs.clone();
                scope.spawn(move || {
                    for s in &srcs {
                        cache.lookup_or_parse(s.as_str()).unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 8, "one parse per unique source");
        assert_eq!(s.hits, 4 * 8 - 8);
        assert_eq!(s.unique_sources, 8);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 6,
            misses: 2,
            negative_hits: 2,
            unique_sources: 2,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        // Chunk probes count into the same rate.
        let c = CacheStats {
            chunk_hits: 3,
            chunk_misses: 1,
            unique_chunks: 1,
            ..CacheStats::default()
        };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn chunk_hit_returns_same_chunk() {
        let cache = ScriptCache::new();
        let (a, o1) = cache.lookup_or_compile_counted("var a = 1 + 2;");
        let (b, o2) = cache.lookup_or_compile_counted("var a = 1 + 2;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let s = cache.stats();
        assert_eq!(
            (s.chunk_hits, s.chunk_misses, s.chunk_negative_hits),
            (1, 1, 0)
        );
        assert_eq!(s.unique_chunks, 1);
        // The chunk path fills the AST family without charging its probe
        // counters: one probe, one count.
        assert_eq!(s.unique_sources, 1);
        assert_eq!((s.hits, s.misses, s.negative_hits), (0, 0, 0));
    }

    #[test]
    fn negative_chunk_cache_replays_identical_parse_error() {
        let cache = ScriptCache::new();
        let fresh = crate::parser::parse("var = ;").unwrap_err();
        let (first, o1) = cache.lookup_or_compile_counted("var = ;");
        let (second, o2) = cache.lookup_or_compile_counted("var = ;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::NegativeHit);
        assert_eq!(first.unwrap_err(), ChunkError::Parse(fresh.clone()));
        assert_eq!(second.unwrap_err(), ChunkError::Parse(fresh));
        assert_eq!(cache.stats().chunk_negative_hits, 1);
    }

    #[test]
    fn chunk_cache_reuses_prior_ast_entry() {
        let cache = ScriptCache::new();
        let src = "function f(x) { return x * 2; } var y = f(21);";
        let ast = cache.lookup_or_parse(src).unwrap();
        cache.lookup_or_compile(src).unwrap();
        let s = cache.stats();
        assert_eq!(s.unique_sources, 1, "chunk probe reused the parsed AST");
        assert_eq!(s.misses, 1);
        assert_eq!(s.chunk_misses, 1);
        // And the AST family still serves the same program afterwards.
        let again = cache.lookup_or_parse(src).unwrap();
        assert!(Arc::ptr_eq(&ast, &again));
    }

    #[test]
    fn concurrent_chunk_probes_compile_once() {
        let cache = Arc::new(ScriptCache::new());
        let srcs: Vec<String> = (0..8).map(|i| format!("var v{i} = {i};")).collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let srcs = srcs.clone();
                scope.spawn(move || {
                    for s in &srcs {
                        cache.lookup_or_compile(s.as_str()).unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.chunk_misses, 8, "one compile per unique source");
        assert_eq!(s.chunk_hits, 4 * 8 - 8);
        assert_eq!(s.unique_chunks, 8);
        assert_eq!(s.unique_sources, 8);
    }
}
