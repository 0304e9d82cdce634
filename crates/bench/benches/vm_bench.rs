//! Engine microbenchmarks: tree-walk interpreter vs bytecode VM on the
//! script shapes that dominate page execution — arithmetic dispatch loops,
//! prototype-chain property access, and call-heavy closure code — plus the
//! compile-vs-parse pipeline costs the chunk cache amortizes.
//!
//! These isolate the raw dispatch win. The survey-level picture (where
//! parse/compile time dominates scratch crawls and the chunk cache carries
//! most of the speedup) lives in `crawl_bench` / `BENCH_crawl.json`.

use bfu_script::{compile, parser, run_chunk, Interpreter, ResourceBudget};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A budget generous enough that no benchmark workload traps.
fn bench_budget() -> ResourceBudget {
    ResourceBudget {
        max_steps: 50_000_000,
        max_heap_cells: 1 << 20,
        max_string_bytes: 64 << 20,
        max_call_depth: 64,
    }
}

/// Tight arithmetic loop inside a function: pure dispatch over slot-resolved
/// locals, no allocation — the shape of real hot loops, and where the VM's
/// compile-time local resolution pays.
const DISPATCH_LOOP: &str = "\
    function hot() { \
        var acc = 0; var i = 0; \
        while (i < 20000) { acc = acc + i * 3 - (i / 2); i = i + 1; } \
        return acc; \
    } \
    hot();";

/// The same loop at top level: globals resolve through the environment
/// chain in both engines (top-level code closes over the live global scope,
/// so the compiler cannot slot it), isolating pure stack-machine overhead.
const GLOBAL_LOOP: &str = "\
    var acc = 0; var i = 0; \
    while (i < 20000) { acc = acc + i * 3 - (i / 2); i = i + 1; } \
    acc;";

/// Prototype-chain property traffic: reads and writes through `this`.
const PROPERTY_ACCESS: &str = "\
    function Point(x, y) { this.x = x; this.y = y; } \
    Point.prototype = { \
        norm: function () { return this.x * this.x + this.y * this.y; }, \
        shift: function (d) { this.x = this.x + d; this.y = this.y - d; } \
    }; \
    var p = new Point(3, 4); var total = 0; var i = 0; \
    while (i < 4000) { p.shift(1); total = total + p.norm(); i = i + 1; } \
    total;";

/// Call-heavy closure code: the call protocol and environment capture.
const CALL_LOOP: &str = "\
    function adder(n) { return function (x) { return x + n; }; } \
    var add3 = adder(3); var add7 = adder(7); \
    var total = 0; var i = 0; \
    while (i < 5000) { total = add3(add7(total)) % 100000; i = i + 1; } \
    total;";

fn bench_workload(c: &mut Criterion, name: &str, src: &str) {
    let program = parser::parse(src).expect("benchmark source parses");
    let chunk = compile(&program).expect("benchmark source compiles");
    let mut group = c.benchmark_group(name);
    group.bench_function("treewalk", |b| {
        b.iter(|| {
            let mut interp = Interpreter::new();
            interp.set_budget(&bench_budget());
            black_box(interp.run(black_box(&program)).expect("treewalk run"));
        })
    });
    group.bench_function("vm", |b| {
        b.iter(|| {
            let mut interp = Interpreter::new();
            interp.set_budget(&bench_budget());
            black_box(run_chunk(&mut interp, black_box(&chunk)).expect("vm run"));
        })
    });
    group.finish();
}

fn bench_dispatch_loop(c: &mut Criterion) {
    bench_workload(c, "vm_dispatch_loop", DISPATCH_LOOP);
}

fn bench_global_loop(c: &mut Criterion) {
    bench_workload(c, "vm_global_loop", GLOBAL_LOOP);
}

fn bench_property_access(c: &mut Criterion) {
    bench_workload(c, "vm_property_access", PROPERTY_ACCESS);
}

fn bench_call_loop(c: &mut Criterion) {
    bench_workload(c, "vm_call_loop", CALL_LOOP);
}

/// The pipeline costs the chunk cache amortizes: parse alone (what the AST
/// cache saves the tree-walk engine: lexing, a syntax check of every
/// function body and the top-level tree), parse + compile (the eager cost
/// the VM pays per unique source: top-level lowering only — inner bodies
/// are parsed and lowered lazily on first call), and parse + compile +
/// force-every-body (what building and lowering every body would cost on
/// a library bundle that never runs).
fn bench_pipeline(c: &mut Criterion) {
    // A library-bundle-shaped source: many small functions, never
    // executed — the payload `script_weight` models.
    let mut src = String::new();
    for i in 0..200 {
        src.push_str(&format!(
            "function lib{i}(a, b) {{ var t = a + b * {i}; \
             if (t > 10) {{ return t - {i}; }} return t; }} "
        ));
    }
    fn force_all(f: &bfu_script::FuncChunk) {
        for lazy in f.funcs.iter() {
            force_all(lazy.force().expect("lowers"));
        }
    }
    let mut group = c.benchmark_group("vm_pipeline");
    group.bench_function("parse", |b| {
        b.iter(|| black_box(parser::parse(black_box(&src)).expect("parses")))
    });
    group.bench_function("parse_and_compile", |b| {
        b.iter(|| {
            let program = parser::parse(black_box(&src)).expect("parses");
            black_box(compile(&program).expect("compiles"))
        })
    });
    group.bench_function("parse_compile_force_all", |b| {
        b.iter(|| {
            let program = parser::parse(black_box(&src)).expect("parses");
            let chunk = compile(&program).expect("compiles");
            force_all(&chunk.main);
            black_box(chunk)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch_loop,
    bench_global_loop,
    bench_property_access,
    bench_call_loop,
    bench_pipeline
);
criterion_main!(benches);
