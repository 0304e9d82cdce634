//! Property-based tests over the core data structures: URL parsing and
//! resolution, the filter engine (token index vs naive scan), the selector
//! engine and HTML parser (total on arbitrary input), the mini-JS
//! lexer/parser/interpreter (total and terminating under a resource budget
//! on arbitrary and mutated input), and the statistics utilities.

use bfu_blocker::FilterEngine;
use bfu_net::{HttpRequest, ResourceType, Url};
use bfu_util::{cdf_points, Histogram, SimRng};
use proptest::prelude::*;

// ---------- URL ----------

fn host_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z][a-z0-9]{0,6}", 1..4).prop_map(|labels| labels.join("."))
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_-]{1,8}", 0..5)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    #[test]
    fn url_display_reparses_identically(
        host in host_strategy(),
        path in path_strategy(),
        port in proptest::option::of(1u16..65535),
        query in proptest::option::of("[a-z]=[a-z0-9]{1,5}"),
    ) {
        let mut s = format!("http://{host}");
        if let Some(p) = port {
            s.push_str(&format!(":{p}"));
        }
        s.push_str(&path);
        if let Some(q) = &query {
            s.push('?');
            s.push_str(q);
        }
        let u = Url::parse(&s).unwrap();
        let reparsed = Url::parse(&u.to_string()).unwrap();
        prop_assert_eq!(u, reparsed);
    }

    #[test]
    fn url_join_always_yields_same_scheme_family(
        host in host_strategy(),
        base_path in path_strategy(),
        reference in "[a-zA-Z0-9_/.?=-]{0,24}",
    ) {
        let base = Url::parse(&format!("http://{host}{base_path}")).unwrap();
        if let Ok(joined) = base.join(&reference) {
            prop_assert!(joined.scheme() == "http" || joined.scheme() == "https");
            prop_assert!(joined.path().starts_with('/'));
        }
    }

    #[test]
    fn url_parse_never_panics(input in ".{0,60}") {
        let _ = Url::parse(&input);
    }

    #[test]
    fn normalized_paths_contain_no_dot_segments(
        host in host_strategy(),
        segs in proptest::collection::vec(prop_oneof![Just(".".to_owned()), Just("..".to_owned()), "[a-z]{1,5}".prop_map(String::from)], 0..6),
    ) {
        let path = format!("/{}", segs.join("/"));
        let u = Url::parse(&format!("http://{host}{path}")).unwrap();
        for seg in u.path_segments() {
            prop_assert!(seg != "." && seg != "..", "{}", u.path());
        }
    }
}

// ---------- Filter engine: index must agree with the naive scan ----------

fn rule_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        host_strategy().prop_map(|h| format!("||{h}^")),
        host_strategy().prop_map(|h| format!("||{h}^$script,third-party")),
        "[a-z]{3,8}".prop_map(|s| format!("/{s}/*/unit^")),
        "[a-z]{4,10}".prop_map(|s| s),
        host_strategy().prop_map(|h| format!("@@||{h}/ok^")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn token_index_matches_naive_scan(
        rules in proptest::collection::vec(rule_strategy(), 1..40),
        req_host in host_strategy(),
        req_path in path_strategy(),
        init_host in host_strategy(),
    ) {
        let engine = FilterEngine::from_list(&rules.join("\n"));
        let req = HttpRequest::get(
            Url::parse(&format!("http://{req_host}{req_path}")).unwrap(),
            ResourceType::Script,
        )
        .with_initiator(Url::parse(&format!("http://{init_host}/")).unwrap());
        prop_assert_eq!(
            engine.match_request(&req).is_some(),
            engine.match_request_naive(&req).is_some(),
            "index and naive scan disagree on {}", req.url
        );
    }
}

// ---------- DOM: selector + HTML parser totality ----------

proptest! {
    #[test]
    fn selector_parse_never_panics(input in ".{0,40}") {
        let _ = bfu_dom::Selector::parse(&input);
    }

    #[test]
    fn html_parse_total_and_visible_subset(input in ".{0,300}") {
        let doc = bfu_dom::html::parse(&input);
        // Tree invariants hold on arbitrary soup.
        for node in doc.iter_tree() {
            for &child in doc.children(node) {
                prop_assert_eq!(doc.parent(child), Some(node));
            }
        }
    }

    #[test]
    fn html_serialize_reparse_preserves_tags(
        tags in proptest::collection::vec("[a-z]{1,6}", 1..6),
        text in "[a-zA-Z ]{0,12}",
    ) {
        let mut src = String::new();
        for t in &tags {
            src.push_str(&format!("<{t}>"));
        }
        src.push_str(&text);
        for t in tags.iter().rev() {
            src.push_str(&format!("</{t}>"));
        }
        let doc = bfu_dom::html::parse(&src);
        let out = bfu_dom::html::serialize(&doc, doc.root());
        let doc2 = bfu_dom::html::parse(&out);
        let names = |d: &bfu_dom::Document| -> Vec<String> {
            d.elements().iter().map(|&n| d.tag(n).unwrap().to_owned()).collect()
        };
        prop_assert_eq!(names(&doc), names(&doc2));
    }
}

// ---------- mini-JS lexer/parser totality ----------

proptest! {
    #[test]
    fn script_lexer_never_panics(input in ".{0,120}") {
        let _ = bfu_script::token::lex(&input);
    }

    #[test]
    fn script_parser_never_panics(input in "[a-z0-9 +\\-*/(){};=.,'\"<>!&|]{0,120}") {
        let _ = format!("{:?}", bfu_script::parser::parse(&input));
    }

    #[test]
    fn numeric_expressions_evaluate(a in -1000i32..1000, b in 1i32..1000) {
        let mut interp = bfu_script::Interpreter::new();
        let v = interp
            .run_source(&format!("({a}) + ({b});"))
            .unwrap()
            .to_number();
        prop_assert_eq!(v, f64::from(a) + f64::from(b));
        let m = interp
            .run_source(&format!("({a}) % ({b});"))
            .unwrap()
            .to_number();
        prop_assert_eq!(m, f64::from(a) % f64::from(b));
    }
}

// ---------- script governor totality ----------
//
// The hostile-web invariant, in miniature: whatever bytes reach the script
// engine, parsing is total (errors, never panics or unbounded recursion)
// and execution under a [`ResourceBudget`] always terminates.

/// A tight budget: any runaway program traps on some axis within ~50k steps.
fn tight_budget() -> bfu_script::ResourceBudget {
    bfu_script::ResourceBudget {
        max_steps: 50_000,
        max_heap_cells: 2_000,
        max_string_bytes: 50_000,
        max_call_depth: 16,
    }
}

/// One plausible-JS token, for soup that often parses.
fn js_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("var".to_owned()),
        Just("function".to_owned()),
        Just("while".to_owned()),
        Just("if".to_owned()),
        Just("return".to_owned()),
        Just("true".to_owned()),
        Just("new".to_owned()),
        Just("{".to_owned()),
        Just("}".to_owned()),
        Just("(".to_owned()),
        Just(")".to_owned()),
        Just("[".to_owned()),
        Just("]".to_owned()),
        Just(";".to_owned()),
        Just("=".to_owned()),
        Just("+".to_owned()),
        Just(",".to_owned()),
        Just(".".to_owned()),
        Just("x".to_owned()),
        Just("f".to_owned()),
        Just("1".to_owned()),
        Just("'s'".to_owned()),
    ]
}

proptest! {
    #[test]
    fn parser_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let src = String::from_utf8_lossy(&bytes);
        let _ = format!("{:?}", bfu_script::parser::parse(&src));
    }

    #[test]
    fn parser_depth_guard_is_an_error_not_a_crash(depth in 150usize..3000, which in 0usize..4) {
        let bomb = match which {
            0 => format!("var x = {}1{};", "(".repeat(depth), ")".repeat(depth)),
            1 => format!("var a = {}1{};", "[".repeat(depth), "]".repeat(depth)),
            2 => format!("var n = {}1;", "!".repeat(depth)),
            _ => "{".repeat(depth),
        };
        prop_assert!(bfu_script::parser::parse(&bomb).is_err());
    }

    #[test]
    fn interpreter_terminates_on_token_soup(
        tokens in proptest::collection::vec(js_token(), 0..60),
    ) {
        let src = tokens.join(" ");
        let mut interp = bfu_script::Interpreter::new();
        interp.set_budget(&tight_budget());
        // Parse errors and budget traps are fine; returning at all is the
        // property (the budget makes non-termination impossible).
        let _ = interp.run_source(&src);
    }

    #[test]
    fn interpreter_terminates_on_mutated_valid_programs(
        seed in any::<u64>(),
        flips in 1usize..8,
    ) {
        const TEMPLATE: &str = "var a = []; var i = 0; \
            function f(n) { if (n > 3) { return n; } return f(n + 1); } \
            while (i < 10) { a[i] = { x: f(i), s: 'ab' + 'cd' }; i = i + 1; } \
            a;";
        let mut bytes = TEMPLATE.as_bytes().to_vec();
        let mut rng = SimRng::new(seed);
        for _ in 0..flips {
            let ix = rng.below(bytes.len() as u64) as usize;
            bytes[ix] = (rng.below(94) + 32) as u8; // printable ASCII
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let mut interp = bfu_script::Interpreter::new();
        interp.set_budget(&tight_budget());
        let _ = interp.run_source(&src);
    }
}

// ---------- engine differential: tree-walk oracle vs bytecode VM ----------
//
// The bytecode VM must be *observationally identical* to the tree-walk
// interpreter on every axis a survey can measure: result value, the exact
// typed error, fuel consumed, heap cells allocated, and string bytes
// charged. The tree-walk engine is kept alive precisely to serve as this
// oracle.

/// Everything a survey could observe from one script execution.
#[derive(Debug, Clone, PartialEq)]
struct EngineTrace {
    outcome: Result<String, bfu_script::ScriptError>,
    fuel_left: u64,
    heap_len: usize,
    string_bytes: u64,
}

fn trace_treewalk(budget: &bfu_script::ResourceBudget, src: &str) -> EngineTrace {
    let mut interp = bfu_script::Interpreter::new();
    interp.set_budget(budget);
    let outcome = interp.run_source(src).map(|v| v.to_display());
    EngineTrace {
        outcome,
        fuel_left: interp.fuel(),
        heap_len: interp.heap.len(),
        string_bytes: interp.string_bytes_allocated(),
    }
}

fn trace_vm(budget: &bfu_script::ResourceBudget, src: &str) -> EngineTrace {
    let mut interp = bfu_script::Interpreter::new();
    interp.set_budget(budget);
    let outcome = match bfu_script::parser::parse(src) {
        Err(e) => Err(bfu_script::ScriptError::Parse(e)),
        Ok(program) => match bfu_script::compile(&program) {
            Ok(chunk) => bfu_script::run_chunk(&mut interp, &chunk)
                .map(|v| v.to_display())
                .map_err(bfu_script::ScriptError::Runtime),
            // Production falls back to the oracle on a compiler limit.
            Err(_) => interp
                .run(&program)
                .map(|v| v.to_display())
                .map_err(bfu_script::ScriptError::Runtime),
        },
    };
    EngineTrace {
        outcome,
        fuel_left: interp.fuel(),
        heap_len: interp.heap.len(),
        string_bytes: interp.string_bytes_allocated(),
    }
}

proptest! {
    #[test]
    fn engines_agree_on_token_soup(
        tokens in proptest::collection::vec(js_token(), 0..60),
    ) {
        let src = tokens.join(" ");
        let budget = tight_budget();
        prop_assert_eq!(
            trace_treewalk(&budget, &src),
            trace_vm(&budget, &src),
            "engine divergence on: {}", src
        );
    }

    #[test]
    fn engines_agree_on_mutated_valid_programs(
        seed in any::<u64>(),
        flips in 0usize..8,
    ) {
        const TEMPLATE: &str = "var a = []; var i = 0; \
            function f(n) { if (n > 3) { return n; } return f(n + 1); } \
            while (i < 10) { a[i] = { x: f(i), s: 'ab' + 'cd' }; i = i + 1; } \
            a;";
        let mut bytes = TEMPLATE.as_bytes().to_vec();
        let mut rng = SimRng::new(seed);
        for _ in 0..flips {
            let ix = rng.below(bytes.len() as u64) as usize;
            bytes[ix] = (rng.below(94) + 32) as u8; // printable ASCII
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let budget = tight_budget();
        prop_assert_eq!(
            trace_treewalk(&budget, &src),
            trace_vm(&budget, &src),
            "engine divergence on: {}", src
        );
    }
}

// ---------- compilation-cache determinism ----------
//
// The survey-wide script compilation cache is memoization, not measurement:
// for any web seed, the dataset fingerprint and Table 1 come out identical
// with the cache on or off, at 1 vs 8 worker threads, and under either
// script engine. The only Table 1 difference the cache may make is its own
// (effort-only) health block.

fn tiny_crawl(web_seed: u64, threads: usize, compile_cache: bool) -> bfu_crawler::Dataset {
    tiny_crawl_with_engine(
        web_seed,
        threads,
        compile_cache,
        bfu_browser::Engine::default(),
    )
}

fn tiny_crawl_with_engine(
    web_seed: u64,
    threads: usize,
    compile_cache: bool,
    engine: bfu_browser::Engine,
) -> bfu_crawler::Dataset {
    let web = bfu_webgen::SyntheticWeb::generate(bfu_webgen::WebConfig {
        sites: 12,
        seed: web_seed,
        script_weight: 0,
    });
    let mut config = bfu_crawler::CrawlConfig::quick(web_seed ^ 0xCAFE);
    config.rounds_per_profile = 1;
    config.pages_per_site = 3;
    config.threads = threads;
    config.compile_cache = compile_cache;
    config.browser.engine = engine;
    bfu_crawler::Survey::new(web, config).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn compile_cache_and_threads_never_change_measurements(web_seed in 0u64..1_000) {
        let cached_1 = tiny_crawl(web_seed, 1, true);
        let cached_8 = tiny_crawl(web_seed, 8, true);
        let scratch = tiny_crawl(web_seed, 1, false);
        prop_assert_eq!(cached_1.fingerprint(), cached_8.fingerprint());
        prop_assert_eq!(cached_1.fingerprint(), scratch.fingerprint());
        // Cache totals themselves are thread-invariant (misses == unique
        // sources, by parse-under-lock), and the cache did real work.
        prop_assert_eq!(cached_1.cache, cached_8.cache);
        prop_assert!(cached_1.cache.enabled);
        prop_assert!(cached_1.cache.script_hits > 0);
        prop_assert!(!scratch.cache.enabled);
        // Table 1 agrees exactly across thread counts, and across cache
        // on/off once the effort-only cache block is normalized away.
        let t_cached_1 = bfu_analysis::table1(&cached_1);
        let t_cached_8 = bfu_analysis::table1(&cached_8);
        let mut t_scratch = bfu_analysis::table1(&scratch);
        prop_assert_eq!(t_cached_1, t_cached_8);
        t_scratch.health.cache = cached_1.cache;
        prop_assert_eq!(t_cached_1, t_scratch);
    }

    #[test]
    fn engine_never_changes_measurements(web_seed in 0u64..1_000) {
        use bfu_browser::Engine;
        let vm = tiny_crawl_with_engine(web_seed, 1, true, Engine::Vm);
        let tree = tiny_crawl_with_engine(web_seed, 1, true, Engine::TreeWalk);
        let vm_scratch = tiny_crawl_with_engine(web_seed, 1, false, Engine::Vm);
        prop_assert_eq!(vm.fingerprint(), tree.fingerprint(),
            "VM and tree-walk must fingerprint identically");
        prop_assert_eq!(vm.fingerprint(), vm_scratch.fingerprint(),
            "chunk cache must not change VM measurements");
        // Same loss breakdown, not just the same features: typed script
        // errors and budget trips agree site by site (cache totals are the
        // one legitimate difference — the engines consult different cache
        // families — so normalize that block before comparing).
        let mut vm_health = vm.health();
        let mut tree_health = tree.health();
        vm_health.cache = bfu_crawler::CacheTotals::default();
        tree_health.cache = bfu_crawler::CacheTotals::default();
        prop_assert_eq!(vm_health, tree_health);
        // The engines consult different cache families.
        prop_assert!(vm.cache.chunk_misses > 0);
        prop_assert_eq!(tree.cache.chunk_hits + tree.cache.chunk_misses, 0);
        prop_assert_eq!(t1(&vm), t1(&tree));
    }
}

/// Table 1 with the effort-only cache block zeroed, for cross-engine
/// comparison (the engines consult different cache families).
fn t1(ds: &bfu_crawler::Dataset) -> bfu_analysis::Table1 {
    let mut t = bfu_analysis::table1(ds);
    t.health.cache = bfu_crawler::CacheTotals::default();
    t
}

// ---------- statistics ----------

proptest! {
    #[test]
    fn cdf_monotone_on_arbitrary_data(xs in proptest::collection::vec(-1e6f64..1e6, 0..80)) {
        let cdf = cdf_points(&xs);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        if !xs.is_empty() {
            prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn histogram_conserves_samples(xs in proptest::collection::vec(-10f64..70.0, 0..200)) {
        let mut h = Histogram::new(0.0, 60.0, 30);
        h.extend(xs.iter().copied());
        prop_assert_eq!(h.total() + h.outliers(), xs.len() as u64);
    }

    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }
}

// ---------- store scrub ----------

/// Shared survey + dataset for the scrub invariance property: built once,
/// re-persisted (cheap) per case — only the *damage* varies with the seed.
fn scrub_fixture() -> &'static (bfu_crawler::Survey, bfu_crawler::Dataset) {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<(bfu_crawler::Survey, bfu_crawler::Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let web = bfu_webgen::SyntheticWeb::generate(bfu_webgen::WebConfig {
            sites: 6,
            seed: 0x5C,
            script_weight: 0,
        });
        let mut config = bfu_crawler::CrawlConfig::quick(0x5C0B);
        config.threads = 1;
        config.rounds_per_profile = 1;
        config.pages_per_site = 2;
        config.page_budget_ms = 2_000;
        let survey = bfu_crawler::Survey::new(web, config);
        let dataset = survey.run();
        (survey, dataset)
    })
}

/// A freshly persisted store with seed-derived damage: fragmented writer
/// sessions, one byte-flip somewhere in one shard (possibly its header),
/// and — on odd seeds — an unsealed duplicate-append crash artifact.
/// Same seed → byte-identical store.
fn damaged_store(seed: u64) -> std::sync::Arc<bfu_store::FaultFs> {
    use bfu_store::{DatasetStore, FaultFs, StorageBackend, StoreFaultPlan, StoreMeta};
    use std::sync::Arc;
    let (survey, dataset) = scrub_fixture();
    let fs = Arc::new(FaultFs::new(StoreFaultPlan::none()));
    let mut meta = StoreMeta::for_survey(survey);
    meta.shard_capacity = 3;
    let fragment = 1 + (seed % 3) as usize;
    for chunk in dataset.sites.chunks(fragment) {
        let store = DatasetStore::open_on(fs.clone() as Arc<dyn StorageBackend>, meta.clone())
            .expect("open session");
        for m in chunk {
            store.append(m).expect("append");
        }
        store
            .finish(&bfu_crawler::Provenance::of(survey, dataset))
            .expect("finish session");
    }
    let shards: Vec<String> = fs
        .visible_names()
        .into_iter()
        .filter(|n| n.starts_with("shard-") && n.ends_with(".bfu"))
        .collect();
    let victim = &shards[(seed / 3) as usize % shards.len()];
    let mut bytes = fs.get(victim).expect("read victim shard");
    let pos = (seed / 7) as usize % bytes.len();
    bytes[pos] ^= 1 << (seed % 8).max(1);
    fs.put(victim, &bytes).expect("write damage");
    if seed % 2 == 1 {
        let store =
            DatasetStore::open_on(fs.clone() as Arc<dyn StorageBackend>, meta).expect("reopen");
        store.append(&dataset.sites[0]).expect("duplicate append");
        drop(store); // unsealed crash artifact
    }
    fs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn scrub_report_and_repair_are_thread_count_invariant(seed in any::<u64>()) {
        use bfu_store::{DatasetStore, StorageBackend, StoreMeta};
        use std::sync::Arc;
        let (survey, _) = scrub_fixture();
        let mut meta = StoreMeta::for_survey(survey);
        meta.shard_capacity = 3;
        let fs1 = damaged_store(seed);
        let fs8 = damaged_store(seed);
        prop_assert_eq!(fs1.visible_names(), fs8.visible_names(),
            "identical seeds must build identical stores");
        let open = |fs: &Arc<bfu_store::FaultFs>| {
            DatasetStore::open_on(fs.clone() as Arc<dyn StorageBackend>, meta.clone())
                .expect("open damaged store")
        };
        let r1 = open(&fs1).scrub_with_threads(1).expect("scrub with 1 thread");
        let r8 = open(&fs8).scrub_with_threads(8).expect("scrub with 8 threads");
        prop_assert_eq!(&r1, &r8, "scrub reports must not depend on thread count");
        // Repair output — surviving objects, quarantine set, compaction —
        // must be identical too, not just the report.
        let mut names1 = fs1.visible_names();
        let mut names8 = fs8.visible_names();
        names1.sort();
        names8.sort();
        prop_assert_eq!(names1, names8);
        let scan1 = open(&fs1).scan().expect("scan 1");
        let scan8 = open(&fs8).scan().expect("scan 8");
        prop_assert_eq!(scan1.recovered, scan8.recovered);
        prop_assert_eq!(scan1.report, scan8.report);
    }
}
