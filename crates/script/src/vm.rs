//! Bytecode dispatch loop for compiled [`Chunk`]s.
//!
//! Executes the instruction stream [`crate::compile`](mod@crate::compile)
//! produces against the *same* interpreter state the tree-walk uses: the
//! same [`Heap`] (prototype chains, watchpoints, host tags), the same
//! environment chain for captured scopes, the same native-function
//! registry, and the same multi-axis resource accounting. The VM is a drop-in execution strategy, not a
//! parallel runtime — a compiled closure and a tree-walk closure can call
//! each other freely through [`Interpreter::call_value`], which is how host
//! callbacks (timers, event dispatch, watch handlers) reach compiled code.
//!
//! Equivalence contract (held by the differential suites in `tests/`):
//! same result value, same typed [`RuntimeError`], same remaining fuel,
//! same heap length (allocation-for-allocation), and same string-byte
//! accounting as the tree-walk on any program.
//!
//! [`Heap`]: crate::object::Heap

use crate::compile::{Chunk, ChunkMode, FuncChunk, LazyFunc, Op};
use crate::interp::{Interpreter, RuntimeError};
use crate::object::{Callable, EnvId};
use crate::value::Value;
use std::rc::Rc;
use std::sync::Arc;

/// Which execution engine runs page scripts.
///
/// The tree-walk interpreter remains fully supported as the differential
/// oracle and baseline; the VM is the production default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The original tree-walking interpreter over the AST.
    TreeWalk,
    /// The bytecode VM over compiled chunks.
    #[default]
    Vm,
}

/// Identifier resolution state for one VM frame.
enum Scope {
    /// Real environment chain (top level and closure-creating bodies).
    Env {
        /// The innermost environment.
        cur: EnvId,
        /// Environments saved by [`Op::PushLoopEnv`], innermost last.
        saved: Vec<EnvId>,
    },
    /// Compile-time slots (leaf functions). `None` = not declared (yet).
    Slot {
        slots: Vec<Option<Value>>,
        this: Value,
        captured: EnvId,
    },
}

/// Run a compiled top-level chunk in the global scope.
///
/// Mirrors [`Interpreter::run`]: function declarations are hoisted first
/// (burning no fuel), and the value of the last top-level expression
/// statement — or an explicit top-level `return` — is returned.
pub fn run_chunk(interp: &mut Interpreter, chunk: &Chunk) -> Result<Value, RuntimeError> {
    let global = interp.global;
    hoist(interp, &chunk.main, global);
    let mut scope = Scope::Env {
        cur: global,
        saved: Vec::new(),
    };
    exec(interp, &chunk.main, &mut scope)
}

/// Hoist a body's function declarations into `env`, allocating compiled
/// closures in body order (the same heap-id order the tree-walk produces).
fn hoist(interp: &mut Interpreter, f: &FuncChunk, env: EnvId) {
    for &fi in f.hoisted.iter() {
        let func = f.funcs[fi as usize].clone();
        let Some(name) = func.name() else { continue };
        let id = interp
            .heap
            .alloc_callable(Callable::Compiled { func, env }, None);
        interp.envs[env.index()].vars.insert(name, Value::Obj(id));
    }
}

/// Invoke a compiled closure. Called from [`Interpreter::call_value`],
/// which has already type-checked the callee and charged call depth.
///
/// This is where lazy lowering happens: the first call forces the body
/// through [`LazyFunc::force`] (pure, burns no fuel); every later call —
/// from any page or thread sharing the chunk — reuses the memoized body.
/// A lowering failure (pool/offset overflow past `u32`, unreachable for
/// any source that fits the string budget) surfaces as a typed error
/// rather than a panic.
pub(crate) fn call_compiled(
    interp: &mut Interpreter,
    lazy: &Arc<LazyFunc>,
    env: EnvId,
    this: Value,
    args: &[Value],
    callee: &Value,
) -> Result<Value, RuntimeError> {
    let func = lazy
        .force()
        .map_err(|e| RuntimeError::TypeError(e.to_string()))?;
    match func.mode {
        ChunkMode::Env => {
            // Same setup order as the tree-walk's script-call path: push the
            // call environment, hoist declarations, bind parameters, then
            // the self name (which shadows a same-named parameter).
            let call_env = interp.push_env(Some(env), this);
            hoist(interp, func, call_env);
            for (i, p) in func.params.iter().enumerate() {
                let v = args.get(i).cloned().unwrap_or(Value::Undefined);
                interp.envs[call_env.index()].vars.insert(*p, v);
            }
            if let Some(name) = func.name {
                interp.envs[call_env.index()]
                    .vars
                    .insert(name, callee.clone());
            }
            let mut scope = Scope::Env {
                cur: call_env,
                saved: Vec::new(),
            };
            exec(interp, func, &mut scope)
        }
        ChunkMode::Slot => {
            let mut slots: Vec<Option<Value>> = vec![None; func.n_slots as usize];
            for (i, &s) in func.param_slots.iter().enumerate() {
                slots[s as usize] = Some(args.get(i).cloned().unwrap_or(Value::Undefined));
            }
            if let Some(s) = func.self_slot {
                slots[s as usize] = Some(callee.clone());
            }
            let mut scope = Scope::Slot {
                slots,
                this,
                captured: env,
            };
            exec(interp, func, &mut scope)
        }
    }
}

/// Charge `n` merged fuel units. Exactly equivalent to `n` consecutive
/// tree-walk `burn()` calls given that nothing (in particular no heap
/// allocation) happens between them — which the compiler guarantees by
/// only merging literally adjacent burn points within a basic block.
fn burn(interp: &mut Interpreter, n: u32) -> Result<(), RuntimeError> {
    if interp.fuel == 0 {
        return Err(RuntimeError::OutOfFuel);
    }
    if interp.heap.len() > interp.heap_ceiling {
        // The first sequential burn would decrement before noticing.
        interp.fuel -= 1;
        return Err(RuntimeError::HeapExhausted);
    }
    let n = u64::from(n);
    if interp.fuel < n {
        // Sequential burns would drain to zero and trip on the next one.
        interp.fuel = 0;
        return Err(RuntimeError::OutOfFuel);
    }
    interp.fuel -= n;
    Ok(())
}

/// A malformed instruction stream (wrong-mode op, stack underflow). The
/// compiler cannot emit one; surfacing a typed error instead of panicking
/// keeps the no-panic contract even if a chunk were corrupted.
fn bad_chunk() -> RuntimeError {
    RuntimeError::TypeError("malformed bytecode chunk".into())
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, RuntimeError> {
    stack.pop().ok_or_else(bad_chunk)
}

/// The dispatch loop: one frame, one instruction stream.
#[allow(clippy::too_many_lines)]
fn exec(interp: &mut Interpreter, f: &FuncChunk, scope: &mut Scope) -> Result<Value, RuntimeError> {
    let code = &f.code;
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    // Per-frame lazy Rc cache for string literals: the pool stores plain
    // `Box<str>`; a literal evaluated in a loop shares one allocation.
    let mut strcache: Vec<Option<Rc<str>>> = vec![None; f.strs.len()];
    let mut last = Value::Undefined;
    let mut ip = 0usize;
    while let Some(op) = code.get(ip) {
        ip += 1;
        match *op {
            Op::Burn(n) => burn(interp, n)?,
            Op::Num(i) => stack.push(Value::Num(f.nums[i as usize])),
            Op::Str(i) => {
                let i = i as usize;
                let rc = match &strcache[i] {
                    Some(rc) => rc.clone(),
                    None => {
                        let rc: Rc<str> = Rc::from(&*f.strs[i]);
                        strcache[i] = Some(rc.clone());
                        rc
                    }
                };
                stack.push(Value::Str(rc));
            }
            Op::True => stack.push(Value::Bool(true)),
            Op::False => stack.push(Value::Bool(false)),
            Op::Null => stack.push(Value::Null),
            Op::Undefined => stack.push(Value::Undefined),
            Op::This => match scope {
                Scope::Env { cur, .. } => stack.push(interp.this_of(*cur)),
                Scope::Slot { this, captured, .. } => {
                    if matches!(this, Value::Undefined) {
                        stack.push(interp.this_of(*captured));
                    } else {
                        stack.push(this.clone());
                    }
                }
            },
            Op::LoadName(name) => {
                let Scope::Env { cur, .. } = scope else {
                    return Err(bad_chunk());
                };
                stack.push(interp.lookup(name, *cur)?);
            }
            Op::StoreName(name) => {
                let Scope::Env { cur, .. } = scope else {
                    return Err(bad_chunk());
                };
                let v = pop(&mut stack)?;
                interp.assign_name(name, *cur, v);
            }
            Op::DeclName(name) => {
                let Scope::Env { cur, .. } = scope else {
                    return Err(bad_chunk());
                };
                let v = pop(&mut stack)?;
                interp.envs[cur.index()].vars.insert(name, v);
            }
            Op::TypeofName(name) => {
                let Scope::Env { cur, .. } = scope else {
                    return Err(bad_chunk());
                };
                let v = interp.lookup(name, *cur).unwrap_or(Value::Undefined);
                let heap = &interp.heap;
                stack.push(Value::str(v.type_of(|id| heap.is_callable(id))));
            }
            Op::LoadPath(i) => {
                let Scope::Slot {
                    slots, captured, ..
                } = scope
                else {
                    return Err(bad_chunk());
                };
                let path = &f.paths[i as usize];
                match resolve_path(slots, &path.slots) {
                    Some(v) => stack.push(v),
                    None => stack.push(interp.lookup(path.atom, *captured)?),
                }
            }
            Op::StorePath(i) => {
                let Scope::Slot {
                    slots, captured, ..
                } = scope
                else {
                    return Err(bad_chunk());
                };
                let v = pop(&mut stack)?;
                let path = &f.paths[i as usize];
                match path.slots.iter().find(|&&s| slots[s as usize].is_some()) {
                    Some(&s) => slots[s as usize] = Some(v),
                    None => interp.assign_name(path.atom, *captured, v),
                }
            }
            Op::TypeofPath(i) => {
                let Scope::Slot {
                    slots, captured, ..
                } = scope
                else {
                    return Err(bad_chunk());
                };
                let path = &f.paths[i as usize];
                let v = match resolve_path(slots, &path.slots) {
                    Some(v) => v,
                    None => interp
                        .lookup(path.atom, *captured)
                        .unwrap_or(Value::Undefined),
                };
                let heap = &interp.heap;
                stack.push(Value::str(v.type_of(|id| heap.is_callable(id))));
            }
            Op::DeclSlot(s) => {
                let Scope::Slot { slots, .. } = scope else {
                    return Err(bad_chunk());
                };
                slots[s as usize] = Some(pop(&mut stack)?);
            }
            Op::ResetScope(i) => {
                let Scope::Slot { slots, .. } = scope else {
                    return Err(bad_chunk());
                };
                for &s in f.scopes[i as usize].iter() {
                    slots[s as usize] = None;
                }
            }
            Op::GetMember(prop) => {
                let base = pop(&mut stack)?;
                stack.push(interp.get_member_atom(&base, prop)?);
            }
            Op::GetIndex => {
                let key = pop(&mut stack)?;
                let base = pop(&mut stack)?;
                let k = key.to_display();
                stack.push(interp.get_member(&base, &k)?);
            }
            Op::SetMember(prop) => {
                let base = pop(&mut stack)?;
                let value = pop(&mut stack)?;
                interp.set_member_atom(&base, prop, value)?;
            }
            Op::SetIndex => {
                let key = pop(&mut stack)?;
                let base = pop(&mut stack)?;
                let value = pop(&mut stack)?;
                let k = key.to_display();
                interp.set_member(&base, &k, value)?;
            }
            Op::SetPropRaw(key) => {
                let v = pop(&mut stack)?;
                let target = stack.last().and_then(Value::as_obj).ok_or_else(bad_chunk)?;
                interp.heap.set_prop_raw_atom(target, key, v);
            }
            Op::AllocObject => {
                let id = interp.heap.alloc(None);
                stack.push(Value::Obj(id));
            }
            Op::Dup => {
                let v = stack.last().cloned().ok_or_else(bad_chunk)?;
                stack.push(v);
            }
            Op::Swap => {
                let a = pop(&mut stack)?;
                let b = pop(&mut stack)?;
                stack.push(a);
                stack.push(b);
            }
            Op::Pop => {
                pop(&mut stack)?;
            }
            Op::Call(argc) => {
                let n = argc as usize;
                if stack.len() < n + 2 {
                    return Err(bad_chunk());
                }
                let args = stack.split_off(stack.len() - n);
                let this = pop(&mut stack)?;
                let fval = pop(&mut stack)?;
                stack.push(interp.call_value(&fval, this, &args)?);
            }
            Op::NewAlloc => {
                let ctor = pop(&mut stack)?;
                let Some(ctor_obj) = ctor.as_obj() else {
                    return Err(RuntimeError::TypeError(
                        "constructor is not an object".into(),
                    ));
                };
                let proto = interp.heap.get_prop(ctor_obj, "prototype").as_obj();
                let instance = interp.heap.alloc(proto);
                stack.push(ctor);
                stack.push(Value::Obj(instance));
            }
            Op::NewCall(argc) => {
                let n = argc as usize;
                if stack.len() < n + 2 {
                    return Err(bad_chunk());
                }
                let args = stack.split_off(stack.len() - n);
                let instance = pop(&mut stack)?;
                let ctor = pop(&mut stack)?;
                let result = interp.call_value(&ctor, instance.clone(), &args)?;
                stack.push(match result {
                    Value::Obj(o) => Value::Obj(o),
                    _ => instance,
                });
            }
            Op::MakeClosure(fi) => {
                let Scope::Env { cur, .. } = scope else {
                    return Err(bad_chunk());
                };
                let func = f.funcs[fi as usize].clone();
                let id = interp
                    .heap
                    .alloc_callable(Callable::Compiled { func, env: *cur }, None);
                stack.push(Value::Obj(id));
            }
            Op::Jump(t) => ip = t as usize,
            Op::JumpIfFalse(t) => {
                if !pop(&mut stack)?.truthy() {
                    ip = t as usize;
                }
            }
            Op::AndJump(t) => {
                let top = stack.last().ok_or_else(bad_chunk)?;
                if top.truthy() {
                    stack.pop();
                } else {
                    ip = t as usize;
                }
            }
            Op::OrJump(t) => {
                let top = stack.last().ok_or_else(bad_chunk)?;
                if top.truthy() {
                    ip = t as usize;
                } else {
                    stack.pop();
                }
            }
            Op::Bin(op) => {
                let r = pop(&mut stack)?;
                let l = pop(&mut stack)?;
                stack.push(interp.binary(op, &l, &r)?);
            }
            Op::Neg => {
                let v = pop(&mut stack)?;
                stack.push(Value::Num(-v.to_number()));
            }
            Op::Not => {
                let v = pop(&mut stack)?;
                stack.push(Value::Bool(!v.truthy()));
            }
            Op::TypeofVal => {
                let v = pop(&mut stack)?;
                let heap = &interp.heap;
                stack.push(Value::str(v.type_of(|id| heap.is_callable(id))));
            }
            Op::ToNumber => {
                let v = pop(&mut stack)?;
                stack.push(Value::Num(v.to_number()));
            }
            Op::IncNum => {
                let v = pop(&mut stack)?;
                stack.push(Value::Num(v.to_number() + 1.0));
            }
            Op::DecNum => {
                let v = pop(&mut stack)?;
                stack.push(Value::Num(v.to_number() - 1.0));
            }
            Op::Return => return pop(&mut stack),
            Op::PopLastExpr => {
                interp.last_expr_value = Some(pop(&mut stack)?);
            }
            Op::TakeLastExpr => {
                interp.last_expr_value = None;
                last = pop(&mut stack)?;
            }
            Op::PushLoopEnv => {
                let Scope::Env { cur, saved } = scope else {
                    return Err(bad_chunk());
                };
                saved.push(*cur);
                let this = interp.this_of(*cur);
                *cur = interp.push_env(Some(*cur), this);
            }
            Op::PopLoopEnv => {
                let Scope::Env { cur, saved } = scope else {
                    return Err(bad_chunk());
                };
                *cur = saved.pop().ok_or_else(bad_chunk)?;
            }
            Op::BreakOutside => {
                return Err(RuntimeError::TypeError(
                    "break/continue outside a loop".into(),
                ));
            }
        }
    }
    Ok(last)
}

/// First declared slot along a path, cloned.
fn resolve_path(slots: &[Option<Value>], path: &[u32]) -> Option<Value> {
    path.iter()
        .find_map(|&s| slots.get(s as usize).and_then(Clone::clone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ResourceBudget;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::ScriptError;

    /// Run `src` through both engines under the same budget and demand
    /// bit-identical outcomes: result/error, remaining fuel, heap length,
    /// and string-byte accounting.
    fn diff_with(budget: ResourceBudget, src: &str) -> Result<Value, RuntimeError> {
        let mut tw = Interpreter::new();
        tw.set_budget(&budget);
        let tw_result = match tw.run_source(src) {
            Ok(v) => Ok(v),
            Err(ScriptError::Runtime(e)) => Err(e),
            Err(ScriptError::Parse(e)) => panic!("differential source must parse: {e}"),
        };

        let mut vm = Interpreter::new();
        vm.set_budget(&budget);
        let program = parse(src).expect("parses");
        let chunk = compile(&program).expect("compiles");
        let vm_result = run_chunk(&mut vm, &chunk);

        match (&tw_result, &vm_result) {
            (Ok(a), Ok(b)) => assert!(
                a.strict_eq(b),
                "value divergence on {src:?}: tree-walk {a:?}, vm {b:?}"
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "error divergence on {src:?}"),
            (a, b) => panic!("outcome divergence on {src:?}: tree-walk {a:?}, vm {b:?}"),
        }
        assert_eq!(tw.fuel(), vm.fuel(), "fuel divergence on {src:?}");
        assert_eq!(
            tw.heap.len(),
            vm.heap.len(),
            "heap-shape divergence on {src:?}"
        );
        assert_eq!(
            tw.string_bytes_allocated(),
            vm.string_bytes_allocated(),
            "string accounting divergence on {src:?}"
        );
        vm_result
    }

    fn diff(src: &str) -> Result<Value, RuntimeError> {
        diff_with(ResourceBudget::default(), src)
    }

    fn diff_ok(src: &str) -> Value {
        diff(src).expect("runs")
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(diff_ok("1 + 2 * 3;").to_display(), "7");
        assert_eq!(diff_ok("'a' + 'b' + 3;").to_display(), "ab3");
        assert_eq!(diff_ok("10 % 4 - 1 / 2;").to_display(), "1.5");
        assert_eq!(diff_ok("!0;").to_display(), "true");
        assert_eq!(diff_ok("-'3';").to_display(), "-3");
        assert_eq!(diff_ok("null == undefined;").to_display(), "true");
        assert_eq!(diff_ok("1 === '1';").to_display(), "false");
        assert_eq!(diff_ok("'b' > 'a';").to_display(), "true");
    }

    #[test]
    fn vars_functions_and_closures() {
        assert_eq!(diff_ok("var x = 3; x = x + 1; x;").to_display(), "4");
        assert_eq!(
            diff_ok("function add(a, b) { return a + b; } add(2, 40);").to_display(),
            "42"
        );
        assert_eq!(
            diff_ok(
                "function mk(n) { return function (m) { return n + m; }; } \
                 var f = mk(40); f(2);"
            )
            .to_display(),
            "42"
        );
        // Self-name binding of named function expressions.
        assert_eq!(
            diff_ok("var f = function fact(n) { return n < 2 ? 1 : n * fact(n - 1); }; f(5);")
                .to_display(),
            "120"
        );
        // Forward call via hoisting.
        assert_eq!(
            diff_ok("var r = f(); function f() { return 9; } r;").to_display(),
            "9"
        );
    }

    #[test]
    fn control_flow() {
        assert_eq!(
            diff_ok("var s = 0; for (var i = 0; i < 5; i = i + 1) { s = s + i; } s;").to_display(),
            "10"
        );
        assert_eq!(
            diff_ok(
                "var s = 0; var i = 0; while (i < 10) { i = i + 1; \
                 if (i == 3) { continue; } if (i > 6) { break; } s = s + i; } s;"
            )
            .to_display(),
            "18"
        );
        assert_eq!(
            diff_ok("var x = 5; if (x > 3) { x = 1; } else { x = 2; } x;").to_display(),
            "1"
        );
        assert_eq!(diff_ok("true && 'y' || 'n';").to_display(), "y");
        assert_eq!(diff_ok("0 || '' || 'fallback';").to_display(), "fallback");
        // `for` scope is fresh per statement execution.
        assert_eq!(
            diff_ok(
                "function f() { var t = 0; \
                 for (var i = 0; i < 2; i = i + 1) { var k = i + 1; t = t + k; } \
                 return t; } f();"
            )
            .to_display(),
            "3"
        );
    }

    #[test]
    fn objects_arrays_and_prototypes() {
        assert_eq!(
            diff_ok("var o = { a: 1, b: 2 }; o.c = o.a + o['b']; o.c;").to_display(),
            "3"
        );
        assert_eq!(
            diff_ok("var a = [10, 20, 30]; a[1] = a[0] + a[2]; a.length + a[1];").to_display(),
            "43"
        );
        assert_eq!(
            diff_ok(
                "function Dog(name) { this.name = name; } \
                 Dog.prototype = { speak: function () { return this.name + '!'; } }; \
                 var d = new Dog('rex'); d.speak();"
            )
            .to_display(),
            "rex!"
        );
        assert_eq!(diff_ok("'hello'.length;").to_display(), "5");
        assert_eq!(
            diff_ok("typeof x + ' ' + typeof 1 + ' ' + typeof {};").to_display(),
            "undefined number object"
        );
    }

    #[test]
    fn incdec_and_compound_assignment() {
        assert_eq!(
            diff_ok("var i = 5; var a = i++; a + ' ' + i;").to_display(),
            "5 6"
        );
        assert_eq!(
            diff_ok("var i = 5; var a = ++i; a + ' ' + i;").to_display(),
            "6 6"
        );
        assert_eq!(diff_ok("var i = 5; i--; --i; i;").to_display(), "3");
        assert_eq!(
            diff_ok("var o = { n: 3 }; o.n += 4; o.n;").to_display(),
            "7"
        );
        assert_eq!(
            diff_ok("var a = [1]; a[0] *= 5; a[0]++; a[0];").to_display(),
            "6"
        );
    }

    #[test]
    fn typed_errors_match() {
        assert!(matches!(
            diff("nosuchvar + 1;"),
            Err(RuntimeError::ReferenceError(_))
        ));
        assert!(matches!(
            diff("null.prop;"),
            Err(RuntimeError::TypeError(_))
        ));
        assert!(matches!(
            diff("var x = 1; x();"),
            Err(RuntimeError::TypeError(_))
        ));
        assert!(matches!(diff("new 5();"), Err(RuntimeError::TypeError(_))));
        assert!(matches!(diff("break;"), Err(RuntimeError::TypeError(_))));
        assert!(matches!(
            diff("undefined.x = 1;"),
            Err(RuntimeError::TypeError(_))
        ));
    }

    #[test]
    fn budget_traps_match_exactly() {
        // Fuel: both engines must trap at the same remaining-fuel point.
        let tight = ResourceBudget::steps_only(1_000);
        assert!(matches!(
            diff_with(tight, "while (true) { var x = 1; }"),
            Err(RuntimeError::OutOfFuel)
        ));
        // Heap.
        let heap = ResourceBudget {
            max_heap_cells: 100,
            ..ResourceBudget::default()
        };
        assert!(matches!(
            diff_with(
                heap,
                "var a = []; var i = 0; while (true) { a[i] = { x: i }; i = i + 1; }"
            ),
            Err(RuntimeError::HeapExhausted)
        ));
        // Strings.
        let strings = ResourceBudget {
            max_string_bytes: 1 << 12,
            ..ResourceBudget::default()
        };
        assert!(matches!(
            diff_with(strings, "var s = 'xxxxxxxx'; while (true) { s = s + s; }"),
            Err(RuntimeError::StringOverflow)
        ));
        // Depth.
        let depth = ResourceBudget {
            max_call_depth: 24,
            ..ResourceBudget::default()
        };
        assert!(matches!(
            diff_with(depth, "function r(n) { return r(n + 1); } r(0);"),
            Err(RuntimeError::StackOverflow)
        ));
    }

    #[test]
    fn fuel_parity_on_mixed_workload() {
        // A program touching every construct: the assert inside diff_with
        // demands remaining fuel matches to the unit.
        diff_ok(
            "var total = 0; \
             function helper(n) { var acc = 0; \
               for (var i = 0; i < n; i++) { acc += i; } return acc; } \
             function Maker(v) { this.v = v; } \
             Maker.prototype = { get: function () { return this.v; } }; \
             var objs = []; \
             for (var j = 0; j < 5; j = j + 1) { \
               objs[j] = new Maker(helper(j)); \
               total += objs[j].get(); \
             } \
             var s = ''; var k = 0; \
             while (k < 3) { s = s + total; k++; } \
             typeof s == 'string' ? s.length : -1;",
        );
    }

    #[test]
    fn watchpoints_fire_identically() {
        // Property interception via Heap::watch drives the paper's
        // instrumentation; handlers must fire (reentrantly) under the VM.
        fn run(engine: Engine) -> (Vec<String>, Value) {
            let mut interp = Interpreter::new();
            let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let log2 = log.clone();
            let handler = interp.register_native(std::rc::Rc::new(move |_, _, args| {
                let name = args.first().map(Value::to_display).unwrap_or_default();
                let new = args.get(2).map(Value::to_display).unwrap_or_default();
                log2.borrow_mut().push(format!("{name}={new}"));
                Ok(Value::Undefined)
            }));
            let target = interp.heap.alloc(None);
            if let Some(h) = handler.as_obj() {
                interp.heap.watch(target, h);
            }
            interp.set_global("tgt", Value::Obj(target));
            let src = "tgt.a = 1; tgt.b = 'x'; tgt.a = 2; tgt['c'] = true; tgt.b;";
            let out = match engine {
                Engine::TreeWalk => interp.run_source(src).expect("tree-walk runs"),
                Engine::Vm => {
                    let chunk = compile(&parse(src).expect("parses")).expect("compiles");
                    run_chunk(&mut interp, &chunk).expect("vm runs")
                }
            };
            let fired = log.borrow().clone();
            (fired, out)
        }
        let (tw_log, tw_out) = run(Engine::TreeWalk);
        let (vm_log, vm_out) = run(Engine::Vm);
        assert_eq!(tw_log, vm_log);
        assert_eq!(tw_log, vec!["a=1", "b=x", "a=2", "c=true"]);
        assert!(tw_out.strict_eq(&vm_out));
    }

    #[test]
    fn sloppy_globals_and_shadowing() {
        assert_eq!(
            diff_ok("function f() { leak = 7; } f(); leak;").to_display(),
            "7"
        );
        assert_eq!(
            diff_ok("var x = 'outer'; function f(x) { x = 'inner'; return x; } f(1) + ' ' + x;")
                .to_display(),
            "inner outer"
        );
        // var with no initializer clobbers a same-named parameter.
        assert_eq!(
            diff_ok("function f(a) { var a; return typeof a; } f(5);").to_display(),
            "undefined"
        );
        // Write-before-var inside a function leaks to the global.
        assert_eq!(
            diff_ok("function f() { y = 5; var y = 1; return y; } f() + ' ' + y;").to_display(),
            "1 5"
        );
    }

    #[test]
    fn this_binding() {
        assert_eq!(
            diff_ok(
                "var o = { v: 41, m: function () { return this.v + 1; } }; \
                 o.m();"
            )
            .to_display(),
            "42"
        );
        // Plain calls get undefined `this` (host default).
        assert_eq!(
            diff_ok("function f() { return typeof this; } f();").to_display(),
            "undefined"
        );
        // `this` visible through a for-loop scope.
        assert_eq!(
            diff_ok(
                "var o = { v: 2, m: function () { var t = 0; \
                 for (var i = 0; i < 3; i++) { t = t + this.v; } return t; } }; o.m();"
            )
            .to_display(),
            "6"
        );
    }

    #[test]
    fn callbacks_into_compiled_closures() {
        // A compiled closure stored by script, invoked later from host code
        // (the browser's timer/event path).
        let mut interp = Interpreter::new();
        let chunk =
            compile(&parse("var n = 10; cb = function (x) { return x + n; };").expect("parses"))
                .expect("compiles");
        run_chunk(&mut interp, &chunk).expect("runs");
        let cb = interp.get_global("cb");
        let out = interp
            .call_value(&cb, Value::Undefined, &[Value::Num(32.0)])
            .expect("callback runs");
        assert_eq!(out.to_display(), "42");
    }

    #[test]
    fn last_expression_value_semantics() {
        // Only *direct* top-level expression statements feed the program
        // result; nested ones (inside if/for) do not.
        assert_eq!(diff_ok("1; 2; 3;").to_display(), "3");
        assert_eq!(diff_ok("9; if (true) { 5; }").to_display(), "9");
        assert_eq!(
            diff_ok("var i = 0; 7; while (i < 2) { i = i + 1; 42; }").to_display(),
            "7"
        );
        // Top-level return halts and yields its value.
        assert_eq!(diff_ok("1; return 33; 2;").to_display(), "33");
    }

    #[test]
    fn deep_member_chains_and_calls() {
        assert_eq!(
            diff_ok(
                "var a = { b: { c: { d: function () { return 'deep'; } } } }; \
                 a.b.c.d();"
            )
            .to_display(),
            "deep"
        );
        assert_eq!(
            diff_ok(
                "var k = 'b'; var o = { b: { f: function (x) { return x * 2; } } }; o[k].f(21);"
            )
            .to_display(),
            "42"
        );
    }
}
