//! Content-addressed script compilation cache, and the runnable [`Script`]
//! it hands out.
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
//! - **One entry per source.** An entry holds the parse outcome and, once a
//!   VM probe has reached it, the chunk or the fact that there is none. Each
//!   engine counts only its own probes: a tree-walk probe misses when it
//!   parses the source, a VM probe when it compiles it (its first probe of
//!   the source, even if a tree-walk probe parsed it before).
//! - **Negative caching.** Parse *errors* are cached alongside successes.
//!   [`ParseError`] is a plain value (`Clone + PartialEq`), so a hostile
//!   malformed script is diagnosed once and every later encounter replays
//!   the identical error — hit and miss behave bit-identically.
//! - **Striping.** The map is striped across sixteen mutexes chosen by the
//!   hash's low bits, so worker threads parsing different scripts rarely
//!   contend. Parsing and compiling happen *under* the stripe lock: two
//!   threads racing on the same new script serialize, and exactly one parse
//!   and at most one compile per unique source ever run. That makes the
//!   miss counters deterministic (== unique sources each engine saw), not
//!   scheduling-dependent.
//! - **Determinism.** Parsing and compiling consume no interpreter fuel
//!   (budgets are installed per execution phase, after parsing), so
//!   replaying a cached tree or chunk burns exactly the fuel a fresh
//!   prepare-then-run would. Cached ASTs are `Arc<Program>`s shared by all
//!   threads. Their function bodies are spans of the entry's own source
//!   allocation, parsed on first call ([`crate::ast::Body`]); that parse
//!   burns no fuel either and is not a cache event, so misses still equal
//!   unique sources.

use crate::ast::Program;
use crate::compile::{compile, Chunk};
use crate::interp::{Interpreter, RuntimeError};
use crate::parser::{parse, parse_shared, ParseError};
use crate::value::Value;
use crate::vm::{run_chunk, Engine};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of lock stripes. Power of two so stripe selection is a mask; 16
/// comfortably exceeds the crawler's worker-thread counts.
const STRIPES: usize = 16;

/// A parsed program shared by every probe of its source, or the diagnosed
/// parse error replayed on every later encounter (negative caching).
pub type ParseOutcome = Result<Arc<Program>, ParseError>;

/// A page script ready to run: its parsed tree, plus its bytecode chunk
/// when it was prepared for the VM and the compiler accepted it.
#[derive(Debug, Clone)]
pub struct Script {
    program: Arc<Program>,
    /// Present only when prepared for [`Engine::Vm`], and then compiled
    /// from `program`.
    chunk: Option<Arc<Chunk>>,
}

impl Script {
    /// Parse `src`, and compile it when `engine` is the VM, without a cache.
    pub fn prepare(src: &str, engine: Engine) -> Result<Script, ParseError> {
        let program = Arc::new(parse(src)?);
        let chunk = lower(&program, engine);
        Ok(Script { program, chunk })
    }

    /// Run the script in `interp`'s global scope: the chunk if there is one,
    /// otherwise the tree.
    ///
    /// A program the compiler rejected (a pool or code offset past `u32`)
    /// has no chunk and runs its tree, so a compiler limit slows a page down
    /// but never loses it.
    pub fn run(&self, interp: &mut Interpreter) -> Result<Value, RuntimeError> {
        match &self.chunk {
            Some(chunk) => run_chunk(interp, chunk),
            None => interp.run(&self.program),
        }
    }
}

/// The chunk `engine` runs `program` from: none for the tree-walk, and none
/// for the VM when the compiler rejects the program.
fn lower(program: &Program, engine: Engine) -> Option<Arc<Chunk>> {
    match engine {
        Engine::TreeWalk => None,
        Engine::Vm => compile(program).ok().map(Arc::new),
    }
}

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
struct Entry {
    source: Arc<[u8]>,
    program: ParseOutcome,
    /// `None` until a VM probe reaches the entry; then its chunk, or `None`
    /// inside when it has none (it failed to parse or to compile).
    chunk: Option<Option<Arc<Chunk>>>,
}

/// Content hash → every distinct source with that hash (one, barring a
/// collision).
type Entries = HashMap<u64, Vec<Entry>>;

/// Lock one stripe. A poisoned stripe is still consistent (an entry is
/// pushed whole and its chunk slot set in one store), so its guard is taken
/// as is.
fn lock(stripe: &Mutex<Entries>) -> MutexGuard<'_, Entries> {
    stripe.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One engine's probe counters.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
}

impl Counters {
    fn count(&self, outcome: CacheOutcome) {
        let counter = match outcome {
            CacheOutcome::Hit => &self.hits,
            CacheOutcome::Miss => &self.misses,
            CacheOutcome::NegativeHit => &self.negative_hits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Hits, misses and negative hits so far.
    fn read(&self) -> [u64; 3] {
        [&self.hits, &self.misses, &self.negative_hits].map(|c| c.load(Ordering::Relaxed))
    }
}

/// The 128-bit product of `a` and `b`, its high half folded onto its low.
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// What one cache probe observed (for the embedder's per-page stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The probe did its engine's work for the first time: parsed the
    /// source (tree-walk) or compiled it (VM).
    Miss,
    /// A previously parsed program or compiled chunk was reused.
    Hit,
    /// A previously diagnosed failure was replayed: a parse error, or for
    /// the VM a source that has no chunk.
    NegativeHit,
}

/// Survey-wide totals, read from atomics after a run. Hits and negative
/// hits are deterministic given a fixed visit plan (every probe after the
/// first for a given source is a hit, regardless of which thread gets
/// there first); misses equal the number of unique sources.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Tree-walk probes that reused a parsed program.
    pub hits: u64,
    /// Tree-walk probes that parsed fresh source.
    pub misses: u64,
    /// Tree-walk probes that replayed a cached parse error.
    pub negative_hits: u64,
    /// Distinct sources resident (== successful + failed parses).
    pub unique_sources: u64,
    /// VM probes that reused a compiled chunk.
    pub chunk_hits: u64,
    /// VM probes that compiled a source (== unique sources the VM probed).
    pub chunk_misses: u64,
    /// VM probes of a source with no chunk (a parse or compile error).
    pub chunk_negative_hits: u64,
    /// Distinct sources a VM probe has reached.
    pub unique_chunks: u64,
}

impl CacheStats {
    /// Fraction of probes (both engines) served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.negative_hits + self.chunk_hits + self.chunk_negative_hits;
        let total = served + self.misses + self.chunk_misses;
        if total == 0 {
            return 0.0;
        }
        served as f64 / total as f64
    }
}

/// A thread-safe, content-addressed map from script source to parse result
/// and, for the VM, compiled chunk.
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
    stripes: [Mutex<Entries>; STRIPES],
    /// Tree-walk probes: the AST counters of [`CacheStats`].
    tree_walk: Counters,
    /// VM probes: the chunk counters of [`CacheStats`].
    vm: Counters,
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

    /// Parse `src`, or reuse the cached result for identical source (a
    /// tree-walk probe).
    ///
    /// Returns the shared program on success, or a replay of the cached
    /// [`ParseError`] for source already known to be malformed.
    pub fn lookup_or_parse<'a>(&self, src: impl Into<Source<'a>>) -> ParseOutcome {
        let (script, _) = self.prepare_counted(src, Engine::TreeWalk);
        script.map(|script| script.program)
    }

    /// [`Script::prepare`] through the cache, plus what the probe observed.
    ///
    /// The first probe of a source parses it; the first VM probe also
    /// compiles it. Every later probe reuses the entry, and a malformed
    /// source replays its identical [`ParseError`].
    pub fn prepare_counted<'a>(
        &self,
        src: impl Into<Source<'a>>,
        engine: Engine,
    ) -> (Result<Script, ParseError>, CacheOutcome) {
        let src = src.into();
        self.prepare_keyed(ScriptCache::content_hash(src.text), src, engine)
    }

    /// [`ScriptCache::prepare_counted`] under a given key.
    fn prepare_keyed(
        &self,
        key: u64,
        src: Source<'_>,
        engine: Engine,
    ) -> (Result<Script, ParseError>, CacheOutcome) {
        let mut stripe = self.stripe(key);
        let entries = stripe.entry(key).or_default();
        let found = entries.iter().position(|e| src.is(&e.source));
        let i = found.unwrap_or_else(|| {
            // Parse under the stripe lock: a second thread racing on the
            // same source waits here and then hits, so misses count unique
            // sources exactly and no parse ever runs twice.
            let source = src.to_shared();
            let program = parse_shared(src.text, &source).map(Arc::new);
            entries.push(Entry {
                source,
                program,
                chunk: None,
            });
            entries.len() - 1
        });
        let entry = &mut entries[i];
        let outcome = match engine {
            Engine::TreeWalk if found.is_none() => CacheOutcome::Miss,
            Engine::TreeWalk if entry.program.is_ok() => CacheOutcome::Hit,
            Engine::TreeWalk => CacheOutcome::NegativeHit,
            Engine::Vm => match &entry.chunk {
                // Compile under the stripe lock too, once per unique source.
                None => {
                    let program = entry.program.as_deref().ok();
                    entry.chunk = Some(program.and_then(|p| lower(p, engine)));
                    CacheOutcome::Miss
                }
                Some(Some(_)) => CacheOutcome::Hit,
                Some(None) => CacheOutcome::NegativeHit,
            },
        };
        let counters = match engine {
            Engine::TreeWalk => &self.tree_walk,
            Engine::Vm => &self.vm,
        };
        counters.count(outcome);
        let chunk = match engine {
            // The tree-walk runs the tree even when a VM probe left a chunk.
            Engine::TreeWalk => None,
            Engine::Vm => entry.chunk.clone().flatten(),
        };
        let program = entry.program.clone();
        (program.map(|program| Script { program, chunk }), outcome)
    }

    /// The locked stripe the low bits of `key` select.
    fn stripe(&self, key: u64) -> MutexGuard<'_, Entries> {
        lock(&self.stripes[(key as usize) & (STRIPES - 1)])
    }

    /// Current totals.
    pub fn stats(&self) -> CacheStats {
        let (mut unique_sources, mut unique_chunks) = (0, 0);
        for stripe in &self.stripes {
            for entry in lock(stripe).values().flatten() {
                unique_sources += 1;
                unique_chunks += u64::from(entry.chunk.is_some());
            }
        }
        let [hits, misses, negative_hits] = self.tree_walk.read();
        let [chunk_hits, chunk_misses, chunk_negative_hits] = self.vm.read();
        CacheStats {
            hits,
            misses,
            negative_hits,
            unique_sources,
            chunk_hits,
            chunk_misses,
            chunk_negative_hits,
            unique_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;

    /// A tree-walk probe: the program, and what the probe observed.
    fn tree<'a>(cache: &ScriptCache, src: impl Into<Source<'a>>) -> (ParseOutcome, CacheOutcome) {
        let (script, outcome) = cache.prepare_counted(src, Engine::TreeWalk);
        let program = script.map(|s| {
            assert!(s.chunk.is_none(), "the tree-walk runs the tree");
            s.program
        });
        (program, outcome)
    }

    /// A VM probe: the chunk, and what the probe observed.
    fn vm<'a>(
        cache: &ScriptCache,
        src: impl Into<Source<'a>>,
    ) -> (Result<Arc<Chunk>, ParseError>, CacheOutcome) {
        let (script, outcome) = cache.prepare_counted(src, Engine::Vm);
        (script.map(|s| s.chunk.expect("lowers")), outcome)
    }

    #[test]
    fn hit_returns_same_program() {
        let cache = ScriptCache::new();
        let (a, o1) = tree(&cache, "var a = 1 + 2;");
        let (b, o2) = tree(&cache, "var a = 1 + 2;");
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
        let (first, o1) = tree(&cache, "var = ;");
        let (second, o2) = tree(&cache, "var = ;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::NegativeHit);
        assert_eq!(first.unwrap_err(), fresh);
        assert_eq!(second.unwrap_err(), fresh);
        assert_eq!(cache.stats().negative_hits, 1);
    }

    /// The global `x` after running `script` in a fresh interpreter.
    fn x_after(script: &Script) -> f64 {
        let mut interp = crate::Interpreter::new();
        script.run(&mut interp).unwrap();
        match interp.get_global("x") {
            crate::Value::Num(n) => n,
            other => panic!("x is {other:?}"),
        }
    }

    #[test]
    fn colliding_keys_parse_and_run_each_source() {
        let cache = ScriptCache::new();
        let (a, b) = ("var x = 1;", "var x = 2;");
        let (sa, oa) = cache.prepare_keyed(7, a.into(), Engine::TreeWalk);
        let (sb, ob) = cache.prepare_keyed(7, b.into(), Engine::TreeWalk);
        assert_eq!((oa, ob), (CacheOutcome::Miss, CacheOutcome::Miss));
        let (sa, sb) = (sa.unwrap(), sb.unwrap());
        assert_eq!(x_after(&sa), 1.0);
        assert_eq!(x_after(&sb), 2.0);
        // Later probes under the shared key find their own entries.
        let (again, o) = cache.prepare_keyed(7, b.into(), Engine::TreeWalk);
        assert_eq!(o, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&again.unwrap().program, &sb.program));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.unique_sources), (1, 2, 2));
    }

    #[test]
    fn colliding_keys_compile_and_run_each_source() {
        let cache = ScriptCache::new();
        let (a, b) = ("var x = 1;", "var x = 2;");
        let (sa, oa) = cache.prepare_keyed(7, a.into(), Engine::Vm);
        let (sb, ob) = cache.prepare_keyed(7, b.into(), Engine::Vm);
        assert_eq!((oa, ob), (CacheOutcome::Miss, CacheOutcome::Miss));
        let (sa, sb) = (sa.unwrap(), sb.unwrap());
        assert_eq!(x_after(&sa), 1.0);
        assert_eq!(x_after(&sb), 2.0);
        let (again, o) = cache.prepare_keyed(7, a.into(), Engine::Vm);
        assert_eq!(o, CacheOutcome::Hit);
        let (again, ca) = (again.unwrap().chunk.unwrap(), sa.chunk.unwrap());
        assert!(Arc::ptr_eq(&again, &ca));
        let s = cache.stats();
        assert_eq!((s.chunk_hits, s.chunk_misses, s.unique_chunks), (1, 2, 2));
        assert_eq!(s.unique_sources, 2, "one entry per source");
    }

    #[test]
    fn hits_are_confirmed_by_allocation_or_bytes() {
        let src = "function f() { return 3; } var x = 3;";
        for compiled in [false, true] {
            let cache = ScriptCache::new();
            let body: Arc<[u8]> = Arc::from(src.as_bytes());
            let text = std::str::from_utf8(&body).unwrap();
            let source = Source::decoded(text, &body);
            if compiled {
                vm(&cache, source).0.unwrap();
            }
            let (program, o) = tree(&cache, source);
            // A VM probe fills the source's one entry on its way.
            let want = if compiled {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            };
            assert_eq!(o, want);
            // The miss kept the body's allocation, not a copy, and the
            // program's deferred function body shares it.
            let key = ScriptCache::content_hash(text);
            let kept = Arc::clone(&cache.stripe(key)[&key][0].source);
            assert!(Arc::ptr_eq(&kept, &body));
            let Stmt::FunctionDecl(f) = &program.unwrap().body[0] else {
                panic!("a function first");
            };
            assert!(Arc::ptr_eq(f.body.source(), &body));
            // Equal bytes in another allocation hit too.
            let copy = String::from(src);
            assert_eq!(tree(&cache, copy.as_str()).1, CacheOutcome::Hit);
        }
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
        // Without a cache, only the VM's script carries a chunk, and both
        // run to the same global.
        let vm = Script::prepare(src, Engine::Vm).unwrap();
        let walk = Script::prepare(src, Engine::TreeWalk).unwrap();
        assert!(vm.chunk.is_some());
        assert!(walk.chunk.is_none());
        for script in [vm, walk] {
            assert_eq!(*script.program, fresh);
            let mut interp = crate::Interpreter::new();
            script.run(&mut interp).unwrap();
            assert_eq!(interp.get_global("y").to_number(), 42.0);
        }
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
    fn concurrent_first_calls_parse_a_body_once() {
        let src = "function f(n) { return n * 2; } var x = f(21);";
        let cache = ScriptCache::new();
        let program = cache.lookup_or_parse(src).unwrap();
        let Stmt::FunctionDecl(f) = &program.body[0] else {
            panic!("a function first");
        };
        assert!(f.body.parsed().is_none());
        let start = std::sync::Barrier::new(4);
        let seen: Vec<&[Stmt]> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let program = cache.lookup_or_parse(src).unwrap();
                        let mut interp = crate::Interpreter::new();
                        start.wait();
                        interp.run(&program).unwrap();
                        assert_eq!(interp.get_global("x").to_number(), 42.0);
                        f.body.parsed()
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().unwrap().expect("called"))
                .collect()
        });
        // One parse: every thread sees the same statements.
        assert!(seen.iter().all(|&stmts| std::ptr::eq(stmts, seen[0])));
        assert_eq!(cache.stats().misses, 1);
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
        let (a, o1) = vm(&cache, "var a = 1 + 2;");
        let (b, o2) = vm(&cache, "var a = 1 + 2;");
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        let s = cache.stats();
        assert_eq!(
            (s.chunk_hits, s.chunk_misses, s.chunk_negative_hits),
            (1, 1, 0)
        );
        assert_eq!(s.unique_chunks, 1);
        // The VM probe parsed into the source's one entry without charging
        // the tree-walk's counters: one probe, one count.
        assert_eq!(s.unique_sources, 1);
        assert_eq!((s.hits, s.misses, s.negative_hits), (0, 0, 0));
    }

    #[test]
    fn negative_chunk_cache_replays_identical_parse_error() {
        let cache = ScriptCache::new();
        let fresh = crate::parser::parse("var = ;").unwrap_err();
        // The tree-walk parses first; the VM's first probe still misses.
        let (parsed, o0) = tree(&cache, "var = ;");
        let (first, o1) = vm(&cache, "var = ;");
        let (second, o2) = vm(&cache, "var = ;");
        assert_eq!(o0, CacheOutcome::Miss);
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::NegativeHit);
        assert_eq!(parsed.unwrap_err(), fresh);
        assert_eq!(first.unwrap_err(), fresh);
        assert_eq!(second.unwrap_err(), fresh);
        let s = cache.stats();
        assert_eq!((s.misses, s.chunk_misses, s.chunk_negative_hits), (1, 1, 1));
        assert_eq!((s.unique_sources, s.unique_chunks), (1, 1));
    }

    #[test]
    fn chunk_cache_reuses_prior_ast_entry() {
        let cache = ScriptCache::new();
        let src = "function f(x) { return x * 2; } var y = f(21);";
        let ast = cache.lookup_or_parse(src).unwrap();
        vm(&cache, src).0.unwrap();
        let s = cache.stats();
        assert_eq!(s.unique_sources, 1, "chunk probe reused the parsed AST");
        assert_eq!(s.misses, 1);
        assert_eq!(s.chunk_misses, 1);
        // And the tree-walk still gets the same program afterwards.
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
                        vm(&cache, s.as_str()).0.unwrap();
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
