//! The tree-walking interpreter.
//!
//! Execution is *step-budgeted*: every expression/statement evaluation burns
//! one unit of fuel, and exhausting the budget aborts the script with
//! [`RuntimeError::OutOfFuel`]. The crawler uses this as its per-page script
//! budget (a runaway ad script can't stall the crawl), mirroring how the
//! paper bounded per-page interaction time.
//!
//! Host integration happens through *native functions*: Rust closures
//! registered with [`Interpreter::register_native`], wrapped in callable
//! heap objects. The browser crate uses these to implement the entire Web
//! API surface and the instrumentation wrappers.

use crate::ast::*;
use crate::budget::ResourceBudget;
use crate::object::{Callable, EnvId, Heap};
use crate::parser::{parse, ParseError};
use crate::value::Value;
use bfu_util::Atom;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Errors surfaced while running a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Wrong kind of value for an operation.
    TypeError(String),
    /// Unresolved identifier.
    ReferenceError(String),
    /// Step budget exhausted.
    OutOfFuel,
    /// Call stack too deep.
    StackOverflow,
    /// Heap-cell allowance exhausted (allocation bomb).
    HeapExhausted,
    /// String-byte allowance exhausted (string bomb).
    StringOverflow,
}

impl RuntimeError {
    /// Whether this error is a resource-governor trap (as opposed to an
    /// ordinary language error like a `TypeError`). Trap-class errors mean
    /// the script was forcibly stopped and its feature log is partial.
    pub fn is_budget_trap(&self) -> bool {
        matches!(
            self,
            RuntimeError::OutOfFuel
                | RuntimeError::StackOverflow
                | RuntimeError::HeapExhausted
                | RuntimeError::StringOverflow
        )
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::TypeError(m) => write!(f, "TypeError: {m}"),
            RuntimeError::ReferenceError(m) => write!(f, "ReferenceError: {m}"),
            RuntimeError::OutOfFuel => write!(f, "script exceeded its step budget"),
            RuntimeError::StackOverflow => write!(f, "call stack exceeded"),
            RuntimeError::HeapExhausted => write!(f, "script exceeded its heap budget"),
            RuntimeError::StringOverflow => write!(f, "script exceeded its string budget"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A host function: `(interpreter, this, args) -> value`.
pub type NativeFn = Rc<dyn Fn(&mut Interpreter, Value, &[Value]) -> Result<Value, RuntimeError>>;

#[derive(Debug, Default, Clone)]
pub(crate) struct Env {
    pub(crate) vars: HashMap<Atom, Value>,
    pub(crate) parent: Option<EnvId>,
    pub(crate) this: Value,
}

/// Statement completion.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The interpreter: heap, scopes, natives, and fuel.
///
/// Cloning starts an independent run from the same realm, so an embedder
/// can build an expensive realm once and start many runs from clones of it.
/// A clone shares the heap's chunks copy-on-write (see [`Heap`]) and the
/// native table, and copies the scopes (globals included). Each side copies
/// a heap chunk the first time it writes one, and the native table the
/// first time it registers a native, so neither ever sees the other's
/// writes. A native that must act on per-run state reaches it through
/// [`Interpreter::host`], never through its own captures, or every clone
/// would act on the same state.
#[derive(Clone)]
pub struct Interpreter {
    /// The object heap (public: the embedder builds prototypes directly).
    pub heap: Heap,
    pub(crate) envs: Vec<Env>,
    /// Shared between clones until one registers a native.
    natives: Rc<Vec<NativeFn>>,
    pub(crate) global: EnvId,
    pub(crate) fuel: u64,
    depth: u32,
    max_depth: u32,
    /// Absolute `heap.len()` ceiling for the current budget phase.
    pub(crate) heap_ceiling: usize,
    /// String bytes produced by concatenation this budget phase.
    string_bytes: u64,
    /// String-byte allowance for the current budget phase.
    string_budget: u64,
    /// Set by `Stmt::Expr` so `run` can return the last expression value.
    pub(crate) last_expr_value: Option<Value>,
    /// Embedder state natives read back through the interpreter they are
    /// called with (see [`Interpreter::set_host`]).
    host: Option<Rc<dyn Any>>,
}

impl fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("heap_objects", &self.heap.len())
            .field("envs", &self.envs.len())
            .field("natives", &self.natives.len())
            .field("fuel", &self.fuel)
            .finish()
    }
}

const DEFAULT_FUEL: u64 = 5_000_000;

impl Interpreter {
    /// A fresh interpreter with an empty global scope and default fuel.
    pub fn new() -> Self {
        let mut interp = Interpreter {
            heap: Heap::new(),
            envs: Vec::new(),
            natives: Rc::default(),
            global: EnvId::new(0),
            fuel: DEFAULT_FUEL,
            depth: 0,
            max_depth: 64,
            heap_ceiling: usize::MAX,
            string_bytes: 0,
            string_budget: u64::MAX,
            last_expr_value: None,
            host: None,
        };
        interp.global = interp.push_env(None, Value::Undefined);
        interp
    }

    pub(crate) fn push_env(&mut self, parent: Option<EnvId>, this: Value) -> EnvId {
        let id = EnvId::from_usize(self.envs.len());
        self.envs.push(Env {
            vars: HashMap::new(),
            parent,
            this,
        });
        id
    }

    /// Set the script step budget (other resource axes are untouched).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Remaining fuel.
    pub fn fuel(&self) -> u64 {
        self.fuel
    }

    /// Install a full [`ResourceBudget`] for the next execution phase.
    ///
    /// Heap-cell and string-byte accounting restart from this call: cells
    /// already on the heap (the embedder's API surface, earlier scripts) are
    /// not charged against the new phase.
    pub fn set_budget(&mut self, budget: &ResourceBudget) {
        self.fuel = budget.max_steps;
        self.max_depth = budget.max_call_depth;
        self.heap_ceiling = self.heap.len().saturating_add(budget.max_heap_cells);
        self.string_bytes = 0;
        self.string_budget = budget.max_string_bytes;
    }

    /// String bytes produced by concatenation since the budget was set.
    pub fn string_bytes_allocated(&self) -> u64 {
        self.string_bytes
    }

    /// Register a native function; returns a callable [`Value`].
    pub fn register_native(&mut self, f: NativeFn) -> Value {
        Value::Obj(self.register_native_obj(f))
    }

    /// Register a native function; returns the callable's heap id directly
    /// (for embedders that need to manipulate the object, e.g. to attach a
    /// `prototype` property).
    pub fn register_native_obj(&mut self, f: NativeFn) -> crate::object::ObjId {
        // Native counts are embedder-bounded (a few thousand); saturating
        // keeps this total without a panic path.
        let idx = u32::try_from(self.natives.len()).unwrap_or(u32::MAX);
        Rc::make_mut(&mut self.natives).push(f);
        self.heap.alloc_callable(Callable::Native(idx), None)
    }

    /// Install the embedder state natives read back with
    /// [`Interpreter::host`], replacing any earlier one. A clone of this
    /// interpreter shares the state until either side installs its own.
    pub fn set_host<T: 'static>(&mut self, host: Rc<T>) {
        self.host = Some(host);
    }

    /// The embedder state installed with [`Interpreter::set_host`], if it is
    /// a `T`.
    pub fn host<T: 'static>(&self) -> Option<Rc<T>> {
        self.host.clone()?.downcast().ok()
    }

    /// Define (or overwrite) a global variable.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.envs[self.global.index()]
            .vars
            .insert(Atom::intern(name), value);
    }

    /// Read a global variable. Never grows the atom table: a name nobody
    /// interned cannot be bound anywhere.
    pub fn get_global(&self, name: &str) -> Value {
        Atom::get(name)
            .and_then(|a| self.envs[self.global.index()].vars.get(&a).cloned())
            .unwrap_or(Value::Undefined)
    }

    /// Parse and run source text in the global scope.
    pub fn run_source(&mut self, src: &str) -> Result<Value, ScriptError> {
        let program = parse(src).map_err(ScriptError::Parse)?;
        self.run(&program).map_err(ScriptError::Runtime)
    }

    /// Run a parsed program in the global scope. Returns the value of the
    /// last expression statement (useful for tests and the REPL example).
    pub fn run(&mut self, program: &Program) -> Result<Value, RuntimeError> {
        let mut last = Value::Undefined;
        self.hoist_functions(&program.body, self.global);
        for stmt in &program.body {
            match self.exec(stmt, self.global)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => {
                    return Err(RuntimeError::TypeError(
                        "break/continue outside a loop".into(),
                    ))
                }
            }
            if let Stmt::Expr(_) = stmt {
                last = self.last_expr_value.take().unwrap_or(Value::Undefined);
            }
        }
        Ok(last)
    }

    /// Call a callable value from host code (event dispatch, timers,
    /// watch handlers).
    pub fn call_value(
        &mut self,
        callee: &Value,
        this: Value,
        args: &[Value],
    ) -> Result<Value, RuntimeError> {
        let Some(obj) = callee.as_obj() else {
            return Err(RuntimeError::TypeError(format!(
                "{} is not a function",
                callee.to_display()
            )));
        };
        let callable = self
            .heap
            .get(obj)
            .callable
            .clone()
            .ok_or_else(|| RuntimeError::TypeError("called a non-callable object".into()))?;
        if self.depth >= self.max_depth {
            return Err(RuntimeError::StackOverflow);
        }
        self.depth += 1;
        let result = match callable {
            Callable::Native(idx) => {
                let f = self.natives[idx as usize].clone();
                f(self, this, args)
            }
            Callable::Compiled { func, env } => {
                crate::vm::call_compiled(self, &func, env, this, args, callee)
            }
            Callable::Script { def, env } => {
                let call_env = self.push_env(Some(env), this);
                let body = def.body.stmts();
                self.hoist_functions(body, call_env);
                for (i, p) in def.params.iter().enumerate() {
                    let v = args.get(i).cloned().unwrap_or(Value::Undefined);
                    self.envs[call_env.index()].vars.insert(*p, v);
                }
                // Named function expressions can refer to themselves.
                if let Some(name) = def.name {
                    self.envs[call_env.index()]
                        .vars
                        .insert(name, callee.clone());
                }
                let mut out = Value::Undefined;
                let mut err = None;
                for stmt in body {
                    match self.exec(stmt, call_env) {
                        Ok(Flow::Normal) => {}
                        Ok(Flow::Return(v)) => {
                            out = v;
                            break;
                        }
                        Ok(Flow::Break | Flow::Continue) => {
                            err = Some(RuntimeError::TypeError(
                                "break/continue outside a loop".into(),
                            ));
                            break;
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                match err {
                    Some(e) => Err(e),
                    None => Ok(out),
                }
            }
        };
        self.depth -= 1;
        result
    }

    /// Function-declaration hoisting: declarations at the top level of a
    /// program or function body are defined before any statement runs, so
    /// forward calls work as in JavaScript.
    fn hoist_functions(&mut self, stmts: &[Stmt], env: EnvId) {
        for stmt in stmts {
            if let Stmt::FunctionDecl(def) = stmt {
                // The parser only emits named declarations; an anonymous one
                // (impossible today) would simply not be hoisted.
                let Some(name) = def.name else {
                    continue;
                };
                let f = self.make_closure(def.clone(), env);
                self.envs[env.index()].vars.insert(name, f);
            }
        }
    }

    fn burn(&mut self) -> Result<(), RuntimeError> {
        if self.fuel == 0 {
            return Err(RuntimeError::OutOfFuel);
        }
        self.fuel -= 1;
        if self.heap.len() > self.heap_ceiling {
            return Err(RuntimeError::HeapExhausted);
        }
        Ok(())
    }

    // ---- statements ----

    fn exec(&mut self, stmt: &Stmt, env: EnvId) -> Result<Flow, RuntimeError> {
        self.burn()?;
        match stmt {
            Stmt::Expr(e) => {
                let v = self.eval(e, env)?;
                self.last_expr_value = Some(v);
                Ok(Flow::Normal)
            }
            Stmt::Var(name, init) => {
                let v = match init {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Undefined,
                };
                self.envs[env.index()].vars.insert(*name, v);
                Ok(Flow::Normal)
            }
            Stmt::FunctionDecl(def) => {
                if let Some(name) = def.name {
                    let f = self.make_closure(def.clone(), env);
                    self.envs[env.index()].vars.insert(name, f);
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let branch = if self.eval(cond, env)?.truthy() {
                    then
                } else {
                    otherwise
                };
                self.exec_block(branch, env)
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, env)?.truthy() {
                    match self.exec_block(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let loop_env = self.push_env(Some(env), self.this_of(env));
                if let Some(init) = init {
                    self.exec(init, loop_env)?;
                }
                loop {
                    let go = match cond {
                        Some(c) => self.eval(c, loop_env)?.truthy(),
                        None => true,
                    };
                    if !go {
                        break;
                    }
                    match self.exec_block(body, loop_env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                    if let Some(u) = update {
                        self.eval(u, loop_env)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Block(stmts) => self.exec_block(stmts, env),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: EnvId) -> Result<Flow, RuntimeError> {
        for s in stmts {
            match self.exec(s, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    pub(crate) fn this_of(&self, env: EnvId) -> Value {
        let mut cur = Some(env);
        while let Some(e) = cur {
            match &self.envs[e.index()].this {
                Value::Undefined => cur = self.envs[e.index()].parent,
                v => return v.clone(),
            }
        }
        Value::Undefined
    }

    fn make_closure(&mut self, def: Arc<FunctionDef>, env: EnvId) -> Value {
        Value::Obj(
            self.heap
                .alloc_callable(Callable::Script { def, env }, None),
        )
    }

    // ---- expressions ----

    fn eval(&mut self, expr: &Expr, env: EnvId) -> Result<Value, RuntimeError> {
        self.burn()?;
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::This => Ok(self.this_of(env)),
            Expr::Ident(name) => self.lookup(*name, env),
            Expr::Member(obj, prop) => {
                let base = self.eval(obj, env)?;
                self.get_member_atom(&base, *prop)
            }
            Expr::Index(obj, key) => {
                let base = self.eval(obj, env)?;
                let k = self.eval(key, env)?.to_display();
                self.get_member(&base, &k)
            }
            Expr::Call { callee, args } => {
                // Method calls bind `this` to the receiver.
                let (f, this) = match &**callee {
                    Expr::Member(obj, prop) => {
                        let base = self.eval(obj, env)?;
                        let f = self.get_member_atom(&base, *prop)?;
                        (f, base)
                    }
                    Expr::Index(obj, key) => {
                        let base = self.eval(obj, env)?;
                        let k = self.eval(key, env)?.to_display();
                        let f = self.get_member(&base, &k)?;
                        (f, base)
                    }
                    other => (self.eval(other, env)?, Value::Undefined),
                };
                let argv = self.eval_args(args, env)?;
                self.call_value(&f, this, &argv)
            }
            Expr::New { callee, args } => {
                let ctor = self.eval(callee, env)?;
                let Some(ctor_obj) = ctor.as_obj() else {
                    return Err(RuntimeError::TypeError(
                        "constructor is not an object".into(),
                    ));
                };
                let proto = self.heap.get_prop(ctor_obj, "prototype").as_obj();
                let instance = self.heap.alloc(proto);
                let argv = self.eval_args(args, env)?;
                let result = self.call_value(&ctor, Value::Obj(instance), &argv)?;
                Ok(match result {
                    Value::Obj(o) => Value::Obj(o),
                    _ => Value::Obj(instance),
                })
            }
            Expr::Assign { place, op, value } => {
                let rhs = self.eval(value, env)?;
                let newval = match op {
                    None => rhs,
                    Some(binop) => {
                        let old = self.read_place(place, env)?;
                        self.binary(*binop, &old, &rhs)?
                    }
                };
                self.write_place(place, newval.clone(), env)?;
                Ok(newval)
            }
            Expr::IncDec {
                place,
                is_inc,
                postfix,
            } => {
                let old = self.read_place(place, env)?.to_number();
                let delta = if *is_inc { 1.0 } else { -1.0 };
                let new = Value::Num(old + delta);
                self.write_place(place, new.clone(), env)?;
                Ok(if *postfix { Value::Num(old) } else { new })
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                self.binary(*op, &l, &r)
            }
            Expr::Logical { op, lhs, rhs } => {
                let l = self.eval(lhs, env)?;
                match op {
                    LogicalOp::And => {
                        if l.truthy() {
                            self.eval(rhs, env)
                        } else {
                            Ok(l)
                        }
                    }
                    LogicalOp::Or => {
                        if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval(rhs, env)
                        }
                    }
                }
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => Ok(Value::Num(-self.eval(expr, env)?.to_number())),
                UnaryOp::Not => Ok(Value::Bool(!self.eval(expr, env)?.truthy())),
                UnaryOp::Typeof => {
                    // typeof on an unresolved identifier yields "undefined"
                    // rather than throwing, per JS.
                    let v = match &**expr {
                        Expr::Ident(name) => self.lookup(*name, env).unwrap_or(Value::Undefined),
                        other => self.eval(other, env)?,
                    };
                    let heap = &self.heap;
                    Ok(Value::str(v.type_of(|id| heap.is_callable(id))))
                }
            },
            Expr::Cond {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond, env)?.truthy() {
                    self.eval(then, env)
                } else {
                    self.eval(otherwise, env)
                }
            }
            Expr::Function(def) => Ok(self.make_closure(def.clone(), env)),
            Expr::ObjectLit(props) => {
                let obj = self.heap.alloc(None);
                for (k, v) in props {
                    let val = self.eval(v, env)?;
                    self.heap.set_prop_raw_atom(obj, *k, val);
                }
                Ok(Value::Obj(obj))
            }
            Expr::ArrayLit(items) => {
                let arr = self.heap.alloc(None);
                for (i, item) in items.iter().enumerate() {
                    let v = self.eval(item, env)?;
                    self.heap.set_prop_raw(arr, &i.to_string(), v);
                }
                self.heap
                    .set_prop_raw(arr, "length", Value::Num(items.len() as f64));
                Ok(Value::Obj(arr))
            }
        }
    }

    fn eval_args(&mut self, args: &[Expr], env: EnvId) -> Result<Vec<Value>, RuntimeError> {
        args.iter().map(|a| self.eval(a, env)).collect()
    }

    pub(crate) fn lookup(&self, name: Atom, env: EnvId) -> Result<Value, RuntimeError> {
        let mut cur = Some(env);
        while let Some(e) = cur {
            if let Some(v) = self.envs[e.index()].vars.get(&name) {
                return Ok(v.clone());
            }
            cur = self.envs[e.index()].parent;
        }
        Err(RuntimeError::ReferenceError(format!(
            "{name} is not defined"
        )))
    }

    /// Read a member by atom (the hot path: `obj.prop` in source).
    pub(crate) fn get_member_atom(
        &mut self,
        base: &Value,
        prop: Atom,
    ) -> Result<Value, RuntimeError> {
        match base {
            Value::Obj(id) => Ok(self.heap.get_prop_atom(*id, prop)),
            _ => self.member_of_primitive(base, prop.as_str()),
        }
    }

    /// Read a member by runtime-computed string key (`obj[expr]`).
    pub(crate) fn get_member(&mut self, base: &Value, prop: &str) -> Result<Value, RuntimeError> {
        match base {
            Value::Obj(id) => Ok(self.heap.get_prop(*id, prop)),
            _ => self.member_of_primitive(base, prop),
        }
    }

    /// Member semantics shared by both key forms for non-object bases:
    /// strings expose `length`; null/undefined throw.
    fn member_of_primitive(&self, base: &Value, prop: &str) -> Result<Value, RuntimeError> {
        match base {
            Value::Str(s) if prop == "length" => Ok(Value::Num(s.len() as f64)),
            Value::Str(_) => Ok(Value::Undefined),
            Value::Null | Value::Undefined => Err(RuntimeError::TypeError(format!(
                "cannot read property {prop:?} of {}",
                base.to_display()
            ))),
            _ => Ok(Value::Undefined),
        }
    }

    fn read_place(&mut self, place: &Place, env: EnvId) -> Result<Value, RuntimeError> {
        match place {
            Place::Var(name) => self.lookup(*name, env),
            Place::Member(obj, prop) => {
                let base = self.eval(obj, env)?;
                self.get_member_atom(&base, *prop)
            }
            Place::Index(obj, key) => {
                let base = self.eval(obj, env)?;
                let k = self.eval(key, env)?.to_display();
                self.get_member(&base, &k)
            }
        }
    }

    /// Assign `name` to the nearest scope in `env`'s chain that declares it,
    /// else create a global (sloppy-mode JS). Shared by the tree-walk's
    /// variable places and the VM's `StoreName`/`StorePath` fall-through.
    pub(crate) fn assign_name(&mut self, name: Atom, env: EnvId, value: Value) {
        let mut cur = Some(env);
        while let Some(e) = cur {
            if let std::collections::hash_map::Entry::Occupied(mut slot) =
                self.envs[e.index()].vars.entry(name)
            {
                slot.insert(value);
                return;
            }
            cur = self.envs[e.index()].parent;
        }
        self.envs[self.global.index()].vars.insert(name, value);
    }

    fn write_place(&mut self, place: &Place, value: Value, env: EnvId) -> Result<(), RuntimeError> {
        match place {
            Place::Var(name) => {
                self.assign_name(*name, env, value);
                Ok(())
            }
            Place::Member(obj, prop) => {
                let base = self.eval(obj, env)?;
                self.set_member_atom(&base, *prop, value)
            }
            Place::Index(obj, key) => {
                let base = self.eval(obj, env)?;
                let k = self.eval(key, env)?.to_display();
                self.set_member(&base, &k, value)
            }
        }
    }

    pub(crate) fn binary(
        &mut self,
        op: BinOp,
        l: &Value,
        r: &Value,
    ) -> Result<Value, RuntimeError> {
        Ok(match op {
            BinOp::Add => match (l, r) {
                (Value::Str(_), _) | (_, Value::Str(_)) => {
                    // Concatenation is the only unbounded allocator in the
                    // language subset — charge it against the string budget
                    // so `s = s + s` bombs trip in O(log budget) steps.
                    let s = format!("{}{}", l.to_display(), r.to_display());
                    self.string_bytes = self.string_bytes.saturating_add(s.len() as u64);
                    if self.string_bytes > self.string_budget {
                        return Err(RuntimeError::StringOverflow);
                    }
                    Value::str(s)
                }
                _ => Value::Num(l.to_number() + r.to_number()),
            },
            BinOp::Sub => Value::Num(l.to_number() - r.to_number()),
            BinOp::Mul => Value::Num(l.to_number() * r.to_number()),
            BinOp::Div => Value::Num(l.to_number() / r.to_number()),
            BinOp::Rem => Value::Num(l.to_number() % r.to_number()),
            BinOp::Eq => Value::Bool(l.loose_eq(r)),
            BinOp::Ne => Value::Bool(!l.loose_eq(r)),
            BinOp::StrictEq => Value::Bool(l.strict_eq(r)),
            BinOp::StrictNe => Value::Bool(!l.strict_eq(r)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let res = match (l, r) {
                    (Value::Str(a), Value::Str(b)) => match op {
                        BinOp::Lt => a < b,
                        BinOp::Le => a <= b,
                        BinOp::Gt => a > b,
                        _ => a >= b,
                    },
                    _ => {
                        let (a, b) = (l.to_number(), r.to_number());
                        match op {
                            BinOp::Lt => a < b,
                            BinOp::Le => a <= b,
                            BinOp::Gt => a > b,
                            _ => a >= b,
                        }
                    }
                };
                Value::Bool(res)
            }
        })
    }

    /// Write a member, firing any watch handler installed on the object.
    pub fn set_member(
        &mut self,
        base: &Value,
        prop: &str,
        value: Value,
    ) -> Result<(), RuntimeError> {
        self.set_member_atom(base, Atom::intern(prop), value)
    }

    /// Write a member by atom, firing any watch handler on the object.
    pub fn set_member_atom(
        &mut self,
        base: &Value,
        prop: Atom,
        value: Value,
    ) -> Result<(), RuntimeError> {
        let Some(id) = base.as_obj() else {
            return Err(RuntimeError::TypeError(format!(
                "cannot set property {:?} on {}",
                prop.as_str(),
                base.to_display()
            )));
        };
        let (old, handler) = self.heap.set_prop_atom(id, prop, value.clone());
        if let Some(h) = handler {
            let hv = Value::Obj(h);
            self.call_value(
                &hv,
                Value::Obj(id),
                &[Value::str(prop.as_str()), old, value],
            )?;
        }
        Ok(())
    }
}

/// Error from [`Interpreter::run_source`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptError {
    /// Source failed to parse.
    Parse(ParseError),
    /// Script aborted at runtime.
    Runtime(RuntimeError),
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "{e}"),
            ScriptError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}
