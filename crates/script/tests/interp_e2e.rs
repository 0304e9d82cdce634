//! End-to-end interpreter tests: the language semantics the instrumentation
//! technique (prototype patching + watchpoints) depends on.

use bfu_script::interp::{Interpreter, RuntimeError, ScriptError};
use bfu_script::object::Callable;
use bfu_script::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

fn eval_num(src: &str) -> f64 {
    let mut i = Interpreter::new();
    i.run_source(src).unwrap().to_number()
}

#[test]
fn arithmetic_and_precedence() {
    assert_eq!(eval_num("1 + 2 * 3;"), 7.0);
    assert_eq!(eval_num("(1 + 2) * 3;"), 9.0);
    assert_eq!(eval_num("10 % 4;"), 2.0);
    assert_eq!(eval_num("7 / 2;"), 3.5);
}

#[test]
fn string_concat_and_comparison() {
    let mut i = Interpreter::new();
    assert_eq!(i.run_source("'a' + 1;").unwrap().to_display(), "a1");
    assert!(i.run_source("'abc' < 'abd';").unwrap().truthy());
    assert!(i.run_source("'2' == 2;").unwrap().truthy());
    assert!(!i.run_source("'2' === 2;").unwrap().truthy());
}

#[test]
fn variables_functions_and_closures() {
    let src = r#"
        function makeCounter() {
            var n = 0;
            return function() { n = n + 1; return n; };
        }
        var c = makeCounter();
        c(); c();
        c();
    "#;
    assert_eq!(eval_num(src), 3.0);
}

#[test]
fn recursion() {
    let src = r#"
        function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        fib(10);
    "#;
    assert_eq!(eval_num(src), 55.0);
}

#[test]
fn loops_break_continue() {
    let src = r#"
        var total = 0;
        for (var i = 0; i < 10; i++) {
            if (i % 2 == 0) { continue; }
            if (i > 7) { break; }
            total += i;
        }
        total;
    "#;
    assert_eq!(eval_num(src), 1.0 + 3.0 + 5.0 + 7.0);
}

#[test]
fn while_loop() {
    assert_eq!(eval_num("var i = 0; while (i < 5) { i++; } i;"), 5.0);
}

#[test]
fn objects_arrays_and_this() {
    let src = r#"
        var o = { x: 2, get: function() { return this.x * 10; } };
        var arr = [1, 2, 3];
        o.get() + arr[1] + arr.length;
    "#;
    assert_eq!(eval_num(src), 25.0);
}

#[test]
fn prototype_chain_method_lookup() {
    // The load-bearing semantics: a method installed on a prototype object
    // is found through instances, and *overwriting it on the prototype*
    // changes what instances see — the paper's shimming technique.
    let mut i = Interpreter::new();
    let proto = i.heap.alloc(None);
    let m = i.register_native(Rc::new(|_, _, _| Ok(Value::Num(1.0))));
    i.heap.set_prop_raw(proto, "probe", m);

    // A constructor whose .prototype is `proto`.
    let ctor = i.register_native(Rc::new(|_, _this, _| Ok(Value::Undefined)));
    let ctor_obj = ctor.as_obj().unwrap();
    i.heap
        .set_prop_raw(ctor_obj, "prototype", Value::Obj(proto));
    i.set_global("Widget", ctor);

    assert_eq!(
        i.run_source("var w = new Widget(); w.probe();")
            .unwrap()
            .to_number(),
        1.0
    );

    // Patch the prototype method (as the instrumentation extension does).
    let patched = i.register_native(Rc::new(|_, _, _| Ok(Value::Num(42.0))));
    i.heap.set_prop_raw(proto, "probe", patched);
    assert_eq!(
        i.run_source("w.probe();").unwrap().to_number(),
        42.0,
        "existing instances observe the patched prototype"
    );
}

#[test]
fn a_clone_shares_the_realm_but_never_the_writes() {
    // An embedder boots a realm once and starts each run from a clone of it
    // (the browser does this per page). Whatever the clone patches, binds,
    // allocates or registers stays in the clone.
    let mut base = Interpreter::new();
    let proto = base.heap.alloc(None);
    let m = base.register_native(Rc::new(|_, _, _| Ok(Value::Num(1.0))));
    base.heap.set_prop_raw(proto, "probe", m);
    let ctor = base.register_native(Rc::new(|_, _, _| Ok(Value::Undefined)));
    base.heap
        .set_prop_raw(ctor.as_obj().unwrap(), "prototype", Value::Obj(proto));
    base.set_global("Widget", ctor);
    base.set_global("mode", Value::str("booted"));
    base.run_source("var w = new Widget();").unwrap();
    let len = base.heap.len();

    let mut page = base.clone();
    let patched = page.register_native(Rc::new(|_, _, _| Ok(Value::Num(42.0))));
    page.heap.set_prop_raw(proto, "probe", patched);
    page.set_global("mode", Value::str("page"));
    page.run_source("var junk = []; for (var k = 0; k < 300; k++) { junk[k] = {}; }")
        .unwrap();
    assert!(page.heap.len() > len + 300);
    let fresh = page.register_native(Rc::new(|_, _, args| Ok(Value::Num(args.len() as f64))));
    page.set_global("fresh", fresh);
    assert_eq!(page.run_source("w.probe();").unwrap().to_number(), 42.0);
    assert_eq!(page.run_source("fresh(1, 2, 3);").unwrap().to_number(), 3.0);

    assert_eq!(base.heap.len(), len);
    assert!(format!("{base:?}").contains("natives: 2"), "{base:?}");
    assert_eq!(base.get_global("mode").to_display(), "booted");
    assert!(matches!(base.get_global("junk"), Value::Undefined));
    assert!(matches!(base.get_global("fresh"), Value::Undefined));
    assert_eq!(base.run_source("w.probe();").unwrap().to_number(), 1.0);
}

#[test]
fn closures_capture_originals_after_patching() {
    // The extension keeps the original method reachable only through its
    // wrapper's closure; page code cannot recover it. Model that in-language.
    let src = r#"
        var obj = { real: function() { return 7; } };
        var original = obj.real;
        obj.real = function() { return 100 + original(); };
        obj.real();
    "#;
    assert_eq!(eval_num(src), 107.0);
}

#[test]
fn watchpoints_fire_on_property_writes() {
    let mut i = Interpreter::new();
    let singleton = i.heap.alloc(None);
    i.set_global("navigator", Value::Obj(singleton));

    let log: Rc<RefCell<Vec<(String, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let log2 = log.clone();
    let handler = i.register_native(Rc::new(move |_, _, args| {
        log2.borrow_mut().push((
            args[0].to_display(),
            args.get(2).map(|v| v.to_display()).unwrap_or_default(),
        ));
        Ok(Value::Undefined)
    }));
    i.heap.watch(singleton, handler.as_obj().unwrap());

    i.run_source("navigator.onLine = true; navigator.appName = 'bfu';")
        .unwrap();
    let seen = log.borrow();
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0], ("onLine".to_owned(), "true".to_owned()));
    assert_eq!(seen[1], ("appName".to_owned(), "bfu".to_owned()));
}

#[test]
fn natives_receive_this_and_args() {
    let mut i = Interpreter::new();
    let f = i.register_native(Rc::new(|interp, this, args| {
        let this_obj = this.as_obj().expect("method call binds this");
        let tag = interp.heap.get_prop(this_obj, "tag").to_display();
        Ok(Value::str(format!("{tag}:{}", args[0].to_display())))
    }));
    let obj = i.heap.alloc(None);
    i.heap.set_prop_raw(obj, "tag", Value::str("X"));
    i.heap.set_prop_raw(obj, "go", f);
    i.set_global("o", Value::Obj(obj));
    assert_eq!(i.run_source("o.go('hi');").unwrap().to_display(), "X:hi");
}

#[test]
fn fuel_exhaustion_aborts_infinite_loop() {
    let mut i = Interpreter::new();
    i.set_fuel(10_000);
    let err = i.run_source("while (true) { var x = 1; }").unwrap_err();
    assert!(matches!(err, ScriptError::Runtime(RuntimeError::OutOfFuel)));
}

#[test]
fn stack_overflow_detected() {
    let mut i = Interpreter::new();
    let err = i
        .run_source("function f() { return f(); } f();")
        .unwrap_err();
    assert!(matches!(
        err,
        ScriptError::Runtime(RuntimeError::StackOverflow)
    ));
}

#[test]
fn type_errors_are_reported() {
    let mut i = Interpreter::new();
    assert!(matches!(
        i.run_source("var x = null; x.prop;").unwrap_err(),
        ScriptError::Runtime(RuntimeError::TypeError(_))
    ));
    assert!(matches!(
        i.run_source("var y = 5; y();").unwrap_err(),
        ScriptError::Runtime(RuntimeError::TypeError(_))
    ));
    assert!(matches!(
        i.run_source("missing_variable;").unwrap_err(),
        ScriptError::Runtime(RuntimeError::ReferenceError(_))
    ));
}

#[test]
fn typeof_does_not_throw_on_missing() {
    let mut i = Interpreter::new();
    assert_eq!(
        i.run_source("typeof not_defined;").unwrap().to_display(),
        "undefined"
    );
    assert_eq!(i.run_source("typeof 'x';").unwrap().to_display(), "string");
    assert_eq!(
        i.run_source("typeof function(){};").unwrap().to_display(),
        "function"
    );
}

#[test]
fn ternary_and_logical_shortcircuit() {
    assert_eq!(eval_num("true ? 1 : 2;"), 1.0);
    assert_eq!(eval_num("false ? 1 : 2;"), 2.0);
    // RHS must not evaluate when short-circuited (would throw).
    let mut i = Interpreter::new();
    assert!(i.run_source("false && missing_fn();").is_ok());
    assert!(i.run_source("true || missing_fn();").is_ok());
}

#[test]
fn assignment_to_undeclared_creates_global() {
    let mut i = Interpreter::new();
    i.run_source("function f() { leaked = 9; } f();").unwrap();
    assert_eq!(i.get_global("leaked").to_number(), 9.0);
}

#[test]
fn index_access_and_write() {
    let src = r#"
        var o = {};
        o['a'] = 1;
        o.b = 2;
        var key = 'a';
        o[key] + o['b'];
    "#;
    assert_eq!(eval_num(src), 3.0);
}

#[test]
fn new_returns_explicit_object_if_constructor_returns_one() {
    let mut i = Interpreter::new();
    let other = i.heap.alloc(None);
    i.heap.set_prop_raw(other, "marker", Value::Num(5.0));
    let ctor = i.register_native(Rc::new(move |_, _, _| Ok(Value::Obj(other))));
    i.set_global("C", ctor);
    assert_eq!(eval_with(&mut i, "var c = new C(); c.marker;"), 5.0);
}

fn eval_with(i: &mut Interpreter, src: &str) -> f64 {
    i.run_source(src).unwrap().to_number()
}

#[test]
fn script_callables_cloneable_between_heap_slots() {
    // A script function stored as a prototype method keeps its captured env.
    let mut i = Interpreter::new();
    i.run_source(
        r#"
        var base = 10;
        var proto = { scaled: function(k) { return base * k; } };
        var method = proto.scaled;
        var out = method(3);
    "#,
    )
    .unwrap();
    assert_eq!(i.get_global("out").to_number(), 30.0);
    // Verify the callable is a script closure.
    let proto = i.get_global("proto").as_obj().unwrap();
    let m = i.heap.get_prop(proto, "scaled").as_obj().unwrap();
    assert!(matches!(
        i.heap.get(m).callable,
        Some(Callable::Script { .. })
    ));
}

#[test]
fn function_declarations_are_hoisted() {
    // Forward calls at program top level.
    let mut i = Interpreter::new();
    let v = i
        .run_source("var x = later(); function later() { return 7; } x;")
        .unwrap();
    assert_eq!(v.to_number(), 7.0);
    // And inside function bodies.
    let v = i
        .run_source(
            "function outer() { return inner() + 1; function inner() { return 1; } } outer();",
        )
        .unwrap();
    assert_eq!(v.to_number(), 2.0);
}
