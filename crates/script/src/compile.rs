//! Bytecode compiler: lowers [`Program`] trees into compact [`Chunk`]s.
//!
//! The tree-walk interpreter re-discovers everything about a script on every
//! execution: identifier resolution hashes through environment maps, fuel is
//! charged by recursive `match` dispatch, and literals are re-boxed per
//! evaluation. This pass does that discovery once, at compile time, and
//! emits a flat `Vec<Op>` the [`crate::vm`] dispatch loop can replay:
//!
//! - **Constant pools.** Number and string literals live in per-function
//!   pools indexed by `u32`; property names and identifiers are carried as
//!   interned [`Atom`]s directly inside ops.
//! - **Slot resolution.** Function bodies that contain no inner functions
//!   (the overwhelmingly common case for generated page scripts) are
//!   compiled in *slot mode*: every `var`, parameter, and self-name gets a
//!   compile-time slot index, and identifier access becomes an indexed load
//!   through a [`NamePath`] — the chain of slots a lookup would traverse,
//!   ending in a dynamic fall-through to the captured environment for free
//!   variables. Bodies that create closures (and all top-level code) use
//!   *env mode*, which drives the same environment chain the tree-walk
//!   uses, so captured-variable semantics are shared by construction.
//! - **Fuel pre-aggregation.** The tree-walk burns one fuel unit per
//!   statement/expression node entered. The compiler emits a [`Op::Burn`]
//!   at exactly those points and then merges *adjacent* burns within a
//!   basic block (never across a jump target), so straight-line code pays
//!   its fuel in one branch instead of n. Merged burns are observably
//!   identical to sequential ones: no allocation or side effect can occur
//!   between two adjacent burn points, so the trap point, trap type, and
//!   remaining fuel all match the tree-walk bit for bit.
//!
//! Everything else — evaluation order, `this` binding, property
//! interception via `Heap::watch`, typed [`crate::RuntimeError`] traps,
//! heap/string budgets — is preserved exactly; the differential suite in
//! `tests/` holds the VM to tree-walk equality on full survey corpora.

use crate::ast::{BinOp, Expr, FunctionDef, Place, Program, Stmt, UnaryOp};
use bfu_util::Atom;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One bytecode instruction. `u32` operands index per-function pools
/// ([`FuncChunk::nums`], [`FuncChunk::strs`], [`FuncChunk::paths`],
/// [`FuncChunk::funcs`], [`FuncChunk::scopes`]) or code offsets; `Atom`
/// operands are process-interned names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Charge `n` fuel units (with the heap-ceiling check), exactly as `n`
    /// consecutive tree-walk `burn()` calls would.
    Burn(u32),
    /// Push a number from the constant pool.
    Num(u32),
    /// Push a string literal from the constant pool.
    Str(u32),
    /// Push `true`.
    True,
    /// Push `false`.
    False,
    /// Push `null`.
    Null,
    /// Push `undefined`.
    Undefined,
    /// Push the `this` binding visible at this point.
    This,
    /// Push a variable resolved through the environment chain (env mode).
    LoadName(Atom),
    /// Pop a value and assign through the environment chain (env mode);
    /// creates a global if the name is nowhere declared (sloppy mode).
    StoreName(Atom),
    /// Pop a value and declare it in the current environment (env mode).
    DeclName(Atom),
    /// Push `typeof name`, yielding `"undefined"` for unresolved names.
    TypeofName(Atom),
    /// Push a variable through a [`NamePath`] (slot mode).
    LoadPath(u32),
    /// Pop a value and store through a [`NamePath`] (slot mode).
    StorePath(u32),
    /// Push `typeof` of a path-resolved variable (slot mode).
    TypeofPath(u32),
    /// Pop a value and declare it into a local slot (slot mode `var`).
    DeclSlot(u32),
    /// Reset every slot of one `for`-statement scope to undeclared
    /// (slot mode; emitted at loop entry and exit, mirroring the fresh
    /// environment the tree-walk pushes per `for` execution).
    ResetScope(u32),
    /// Pop a base, push `base.prop`.
    GetMember(Atom),
    /// Pop key then base, push `base[key]`.
    GetIndex,
    /// Pop base then value, store `base.prop = value` (fires watch).
    SetMember(Atom),
    /// Pop key, base, then value, store `base[key] = value` (fires watch).
    SetIndex,
    /// Pop a value, write it raw into the object left on the stack
    /// (object/array literal construction; no watch, like the tree-walk).
    SetPropRaw(Atom),
    /// Allocate a plain object and push it.
    AllocObject,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the top two stack values.
    Swap,
    /// Discard the top of stack.
    Pop,
    /// Pop `argc` args, then `this`, then the callee; push the call result.
    Call(u32),
    /// Pop the constructor; type-check it, allocate the instance with the
    /// constructor's `prototype`, push constructor then instance back.
    NewAlloc,
    /// Pop `argc` args, the instance, and the constructor; invoke and push
    /// the constructed value (the return if it is an object).
    NewCall(u32),
    /// Allocate a closure over [`FuncChunk::funcs`]`[i]` capturing the
    /// current environment, and push it (env mode).
    MakeClosure(u32),
    /// Unconditional jump to a code offset.
    Jump(u32),
    /// Pop; jump if the value is falsy.
    JumpIfFalse(u32),
    /// `&&`: if the top of stack is falsy jump (keeping it), else pop.
    AndJump(u32),
    /// `||`: if the top of stack is truthy jump (keeping it), else pop.
    OrJump(u32),
    /// Pop rhs then lhs, push the binary result (string `+` charges the
    /// string budget exactly as the tree-walk does).
    Bin(BinOp),
    /// Pop, push numeric negation.
    Neg,
    /// Pop, push logical negation.
    Not,
    /// Pop, push its `typeof` string.
    TypeofVal,
    /// Pop, push `Num(to_number(v))`.
    ToNumber,
    /// Pop, push `Num(to_number(v) + 1)`.
    IncNum,
    /// Pop, push `Num(to_number(v) - 1)`.
    DecNum,
    /// Pop and return from the current frame.
    Return,
    /// Pop; record it as the interpreter's last expression value
    /// (expression statements anywhere but the direct top level).
    PopLastExpr,
    /// Pop; make it the program result and clear the last-expression
    /// register (direct top-level expression statements, mirroring
    /// `Interpreter::run`).
    TakeLastExpr,
    /// Push a fresh loop environment (env-mode `for` entry).
    PushLoopEnv,
    /// Restore the environment saved by the matching [`Op::PushLoopEnv`].
    PopLoopEnv,
    /// Trap: `break`/`continue` executed outside any loop.
    BreakOutside,
}

/// How a function body resolves identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkMode {
    /// Real environment chain (top level, and bodies containing closures).
    Env,
    /// Compile-time slots with [`NamePath`] fall-through (leaf functions).
    Slot,
}

/// The slot chain one identifier would traverse in slot mode: every
/// enclosing scope's slot for the name, innermost first, then the interned
/// name for the dynamic fall-through into the captured environment chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamePath {
    /// Slot indices to probe, innermost scope first. A slot holding `None`
    /// at runtime means "not yet declared here" and falls through.
    pub slots: Box<[u32]>,
    /// The name, for the captured-environment / global fall-through.
    pub atom: Atom,
}

/// One compiled function body (or the top-level program).
///
/// Self-contained and immutable: `Send + Sync`, shared across worker
/// threads by the content-addressed chunk cache exactly like parsed
/// programs were.
#[derive(Debug, PartialEq)]
pub struct FuncChunk {
    /// Function name, if any (declarations and named expressions).
    pub name: Option<Atom>,
    /// Parameter names in declaration order.
    pub params: Box<[Atom]>,
    /// Identifier-resolution strategy for this body.
    pub mode: ChunkMode,
    /// Total local slots (slot mode).
    pub n_slots: u32,
    /// Slot for each parameter, parallel to `params` (slot mode).
    pub param_slots: Box<[u32]>,
    /// Slot binding the function's own name, if named (slot mode).
    pub self_slot: Option<u32>,
    /// The instruction stream.
    pub code: Box<[Op]>,
    /// Number constant pool.
    pub nums: Box<[f64]>,
    /// String-literal constant pool.
    pub strs: Box<[Box<str>]>,
    /// Name paths for slot-mode identifier access.
    pub paths: Box<[NamePath]>,
    /// Per-`for`-scope slot lists for [`Op::ResetScope`] (slot mode).
    pub scopes: Box<[Box<[u32]>]>,
    /// Inner functions (env mode), lowered lazily on first call.
    pub funcs: Box<[Arc<LazyFunc>]>,
    /// Indices into `funcs` hoisted at body entry, in body order.
    pub hoisted: Box<[u32]>,
}

/// An inner function carried by a chunk: the shared parsed definition plus
/// a body that is lowered to bytecode **on first call** and memoized.
///
/// Real pages ship large library bundles that are mostly never executed;
/// production engines respond with exactly this split — eager top-level
/// compilation, lazy inner-function compilation, and a code cache that
/// persists whatever did get compiled. Allocating a closure (or hoisting a
/// declaration) only clones the `Arc`; the body is compiled the first time
/// the closure is *invoked*, by whichever thread gets there first, and every
/// later call — on any page sharing the chunk through the content-addressed
/// cache — reuses the lowered body. Lowering reads the definition's
/// [`Body`](crate::ast::Body), so the first call also builds its tree.
///
/// Laziness is semantically invisible: parsing and compilation are pure and
/// burn no fuel, so *when* they happen cannot change what a script observes.
pub struct LazyFunc {
    /// The parsed definition (shared with the AST the chunk came from).
    def: Arc<FunctionDef>,
    /// The lowered body, produced by the first call.
    body: OnceLock<Result<Arc<FuncChunk>, CompileError>>,
}

impl LazyFunc {
    fn new(def: Arc<FunctionDef>) -> LazyFunc {
        LazyFunc {
            def,
            body: OnceLock::new(),
        }
    }

    /// The function's name, available without lowering the body.
    pub fn name(&self) -> Option<Atom> {
        self.def.name
    }

    /// The lowered body, compiling it on first use (thread-safe, memoized).
    pub fn force(&self) -> Result<&Arc<FuncChunk>, CompileError> {
        self.body
            .get_or_init(|| FnCompiler::compile_function(&self.def).map(Arc::new))
            .as_ref()
            .map_err(CompileError::clone)
    }

    /// The lowered body, if some call has already forced it.
    pub fn compiled(&self) -> Option<&Arc<FuncChunk>> {
        self.body.get().and_then(|r| r.as_ref().ok())
    }
}

/// Structural equality on the definition: lowering is deterministic, so two
/// `LazyFunc`s over equal trees produce equal bodies whenever forced.
impl PartialEq for LazyFunc {
    fn eq(&self, other: &Self) -> bool {
        self.def == other.def
    }
}

impl fmt::Debug for LazyFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LazyFunc({}, {})",
            self.def.name.map(Atom::as_str).unwrap_or("<anon>"),
            if self.body.get().is_some() {
                "lowered"
            } else {
                "pending"
            }
        )
    }
}

/// A compiled program: the top-level body plus its nested function chunks.
#[derive(Debug, PartialEq)]
pub struct Chunk {
    /// The top-level code, always [`ChunkMode::Env`] over the global scope.
    pub main: FuncChunk,
}

impl Chunk {
    /// Total instructions across the lowered chunk tree (diagnostics).
    /// Counts only bodies some call has actually forced — never-called
    /// functions have no instructions to count.
    pub fn op_count(&self) -> usize {
        fn count(f: &FuncChunk) -> usize {
            f.code.len()
                + f.funcs
                    .iter()
                    .filter_map(|l| l.compiled())
                    .map(|c| count(c))
                    .sum::<usize>()
        }
        count(&self.main)
    }
}

/// Why a program could not be lowered to bytecode. Plain value (`Clone +
/// PartialEq`) so the chunk cache can replay it bit-identically, like
/// [`crate::parser::ParseError`]. The embedder falls back to tree-walk
/// execution of the AST when it sees one, so compile limits never change
/// what a survey measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

fn err(message: impl Into<String>) -> CompileError {
    CompileError {
        message: message.into(),
    }
}

/// Compile a parsed program into a bytecode chunk.
///
/// Pure: the output depends only on the tree, so chunks are safe to share
/// through the content-addressed cache. Never panics; pathological inputs
/// (pool or code-offset overflow past `u32`) surface as [`CompileError`].
pub fn compile(program: &Program) -> Result<Chunk, CompileError> {
    let main = FnCompiler::compile_top_level(&program.body)?;
    Ok(Chunk { main })
}

/// Does this statement list contain any function (declaration or
/// expression), at any nesting depth short of entering inner function
/// bodies? Presence forces env mode: closures capture real environments.
fn stmts_contain_function(stmts: &[Stmt]) -> bool {
    stmts.iter().any(stmt_contains_function)
}

fn stmt_contains_function(s: &Stmt) -> bool {
    match s {
        Stmt::FunctionDecl(_) => true,
        Stmt::Expr(e) | Stmt::Var(_, Some(e)) => expr_contains_function(e),
        Stmt::Var(_, None) | Stmt::Break | Stmt::Continue => false,
        Stmt::Return(e) => e.as_ref().is_some_and(expr_contains_function),
        Stmt::If {
            cond,
            then,
            otherwise,
        } => {
            expr_contains_function(cond)
                || stmts_contain_function(then)
                || stmts_contain_function(otherwise)
        }
        Stmt::While { cond, body } => expr_contains_function(cond) || stmts_contain_function(body),
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            init.as_deref().is_some_and(stmt_contains_function)
                || cond.as_ref().is_some_and(expr_contains_function)
                || update.as_ref().is_some_and(expr_contains_function)
                || stmts_contain_function(body)
        }
        Stmt::Block(b) => stmts_contain_function(b),
    }
}

fn expr_contains_function(e: &Expr) -> bool {
    match e {
        Expr::Function(_) => true,
        Expr::Num(_)
        | Expr::Str(_)
        | Expr::Bool(_)
        | Expr::Null
        | Expr::Undefined
        | Expr::Ident(_)
        | Expr::This => false,
        Expr::Member(o, _) => expr_contains_function(o),
        Expr::Index(o, k) => expr_contains_function(o) || expr_contains_function(k),
        Expr::Call { callee, args } | Expr::New { callee, args } => {
            expr_contains_function(callee) || args.iter().any(expr_contains_function)
        }
        Expr::Assign { place, value, .. } => {
            place_contains_function(place) || expr_contains_function(value)
        }
        Expr::IncDec { place, .. } => place_contains_function(place),
        Expr::Binary { lhs, rhs, .. } | Expr::Logical { lhs, rhs, .. } => {
            expr_contains_function(lhs) || expr_contains_function(rhs)
        }
        Expr::Unary { expr, .. } => expr_contains_function(expr),
        Expr::Cond {
            cond,
            then,
            otherwise,
        } => {
            expr_contains_function(cond)
                || expr_contains_function(then)
                || expr_contains_function(otherwise)
        }
        Expr::ObjectLit(props) => props.iter().any(|(_, v)| expr_contains_function(v)),
        Expr::ArrayLit(items) => items.iter().any(expr_contains_function),
    }
}

fn place_contains_function(p: &Place) -> bool {
    match p {
        Place::Var(_) => false,
        Place::Member(o, _) => expr_contains_function(o),
        Place::Index(o, k) => expr_contains_function(o) || expr_contains_function(k),
    }
}

/// Slot assignment for a slot-mode body, computed by a pre-pass so uses
/// that precede their `var` textually still resolve to the right slot.
struct SlotPlan {
    /// `maps[0]` is the function scope; `maps[i + 1]` is the scope of the
    /// i-th `for` statement in pre-order.
    maps: Vec<HashMap<Atom, u32>>,
    n_slots: u32,
}

impl SlotPlan {
    fn build(def_params: &[Atom], self_name: Option<Atom>, body: &[Stmt]) -> SlotPlan {
        let mut plan = SlotPlan {
            maps: vec![HashMap::new()],
            n_slots: 0,
        };
        for &p in def_params {
            plan.declare(0, p);
        }
        if let Some(n) = self_name {
            plan.declare(0, n);
        }
        let mut open = vec![0usize];
        plan.walk_stmts(body, &mut open);
        plan
    }

    fn declare(&mut self, scope: usize, name: Atom) -> u32 {
        let next = self.n_slots;
        let slot = *self.maps[scope].entry(name).or_insert(next);
        if slot == next {
            self.n_slots += 1;
        }
        slot
    }

    /// Mirrors the emit pass's traversal order exactly: `for` statements
    /// are numbered pre-order, and `var` declares into the innermost open
    /// scope — the environment the tree-walk would insert into.
    fn walk_stmts(&mut self, stmts: &[Stmt], open: &mut Vec<usize>) {
        for s in stmts {
            self.walk_stmt(s, open);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt, open: &mut Vec<usize>) {
        match s {
            Stmt::Var(name, _) => {
                let innermost = open.last().copied().unwrap_or(0);
                self.declare(innermost, *name);
            }
            Stmt::If {
                then, otherwise, ..
            } => {
                self.walk_stmts(then, open);
                self.walk_stmts(otherwise, open);
            }
            Stmt::While { body, .. } => self.walk_stmts(body, open),
            Stmt::For { init, body, .. } => {
                let scope = self.maps.len();
                self.maps.push(HashMap::new());
                open.push(scope);
                if let Some(init) = init {
                    self.walk_stmt(init, open);
                }
                self.walk_stmts(body, open);
                open.pop();
            }
            Stmt::Block(b) => self.walk_stmts(b, open),
            Stmt::Expr(_)
            | Stmt::Return(_)
            | Stmt::Break
            | Stmt::Continue
            | Stmt::FunctionDecl(_) => {}
        }
    }
}

/// Break/continue patch sites for one enclosing loop.
#[derive(Default)]
struct LoopCtx {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

/// Per-function compilation state.
struct FnCompiler {
    code: Vec<Op>,
    nums: Vec<f64>,
    num_ix: HashMap<u64, u32>,
    strs: Vec<Box<str>>,
    str_ix: HashMap<Box<str>, u32>,
    paths: Vec<NamePath>,
    path_ix: HashMap<(Box<[u32]>, Atom), u32>,
    funcs: Vec<Arc<LazyFunc>>,
    mode: ChunkMode,
    /// Slot-mode scope maps from the pre-pass (`[0]` = function scope).
    slot_maps: Vec<HashMap<Atom, u32>>,
    /// Indices into `slot_maps` currently open, outermost first.
    open_scopes: Vec<usize>,
    /// Next pre-order `for`-scope id (slot mode).
    next_for: usize,
    loops: Vec<LoopCtx>,
    /// First code offset at which burn-merging is allowed: reset to the
    /// current position whenever a jump target is bound, so fuel charges
    /// never merge across a basic-block boundary.
    barrier: usize,
    /// The next emitted statement is a direct child of `Program::body`.
    direct_top: bool,
}

impl FnCompiler {
    fn new(mode: ChunkMode) -> FnCompiler {
        FnCompiler {
            code: Vec::new(),
            nums: Vec::new(),
            num_ix: HashMap::new(),
            strs: Vec::new(),
            str_ix: HashMap::new(),
            paths: Vec::new(),
            path_ix: HashMap::new(),
            funcs: Vec::new(),
            mode,
            slot_maps: Vec::new(),
            open_scopes: Vec::new(),
            next_for: 0,
            loops: Vec::new(),
            barrier: 0,
            direct_top: false,
        }
    }

    fn compile_top_level(body: &[Stmt]) -> Result<FuncChunk, CompileError> {
        let mut c = FnCompiler::new(ChunkMode::Env);
        let hoisted = c.precompile_hoisted(body)?;
        for (i, s) in body.iter().enumerate() {
            c.direct_top = true;
            c.emit_body_stmt(s, hoisted.get(&i).copied())?;
        }
        c.finish(None, &[], None, hoisted.into_values().collect())
    }

    fn compile_function(def: &FunctionDef) -> Result<FuncChunk, CompileError> {
        let body = def.body.stmts();
        if stmts_contain_function(body) {
            let mut c = FnCompiler::new(ChunkMode::Env);
            let hoisted = c.precompile_hoisted(body)?;
            for (i, s) in body.iter().enumerate() {
                c.emit_body_stmt(s, hoisted.get(&i).copied())?;
            }
            c.finish(def.name, &def.params, None, hoisted.into_values().collect())
        } else {
            let mut c = FnCompiler::new(ChunkMode::Slot);
            let plan = SlotPlan::build(&def.params, def.name, body);
            c.slot_maps = plan.maps;
            c.open_scopes = vec![0];
            for s in body {
                c.stmt(s)?;
            }
            c.finish(def.name, &def.params, Some(plan.n_slots), Vec::new())
        }
    }

    /// Compile every direct `function` declaration ahead of the body (the
    /// hoisting set), returning body-position → chunk index so the
    /// declaration statements reuse the same compiled chunk.
    fn precompile_hoisted(
        &mut self,
        body: &[Stmt],
    ) -> Result<std::collections::BTreeMap<usize, u32>, CompileError> {
        let mut hoisted = std::collections::BTreeMap::new();
        for (i, s) in body.iter().enumerate() {
            if let Stmt::FunctionDecl(def) = s {
                if def.name.is_some() {
                    let fi = self.child(def)?;
                    hoisted.insert(i, fi);
                }
            }
        }
        Ok(hoisted)
    }

    fn finish(
        self,
        name: Option<Atom>,
        params: &[Atom],
        n_slots: Option<u32>,
        hoisted: Vec<u32>,
    ) -> Result<FuncChunk, CompileError> {
        if self.code.len() >= u32::MAX as usize {
            return Err(err("function body exceeds the bytecode size limit"));
        }
        let (param_slots, self_slot, scopes) = match self.mode {
            ChunkMode::Env => (Vec::new(), None, Vec::new()),
            ChunkMode::Slot => {
                let fn_scope = self.slot_maps.first().ok_or_else(|| err("missing plan"))?;
                let mut param_slots = Vec::with_capacity(params.len());
                for p in params {
                    let slot = fn_scope
                        .get(p)
                        .copied()
                        .ok_or_else(|| err("parameter missing from slot plan"))?;
                    param_slots.push(slot);
                }
                let self_slot = match name {
                    Some(n) => Some(
                        fn_scope
                            .get(&n)
                            .copied()
                            .ok_or_else(|| err("self name missing from slot plan"))?,
                    ),
                    None => None,
                };
                let scopes: Vec<Box<[u32]>> = self.slot_maps[1..]
                    .iter()
                    .map(|m| {
                        let mut slots: Vec<u32> = m.values().copied().collect();
                        slots.sort_unstable();
                        slots.into_boxed_slice()
                    })
                    .collect();
                (param_slots, self_slot, scopes)
            }
        };
        Ok(FuncChunk {
            name,
            params: params.to_vec().into_boxed_slice(),
            mode: self.mode,
            n_slots: n_slots.unwrap_or(0),
            param_slots: param_slots.into_boxed_slice(),
            self_slot,
            code: self.code.into_boxed_slice(),
            nums: self.nums.into_boxed_slice(),
            strs: self.strs.into_boxed_slice(),
            paths: self.paths.into_boxed_slice(),
            scopes: scopes.into_boxed_slice(),
            funcs: self.funcs.into_boxed_slice(),
            hoisted: hoisted.into_boxed_slice(),
        })
    }

    // ---- emission helpers ----

    fn push(&mut self, op: Op) {
        self.code.push(op);
    }

    /// Charge one fuel unit, merging into an immediately preceding burn
    /// when no basic-block boundary intervenes.
    fn burn(&mut self) {
        let at = self.code.len();
        if at > self.barrier {
            if let Some(Op::Burn(n)) = self.code.last_mut() {
                if *n < u32::MAX {
                    *n += 1;
                    return;
                }
            }
        }
        self.code.push(Op::Burn(1));
    }

    /// Bind a label here: returns the offset and fences burn-merging.
    fn here(&mut self) -> u32 {
        self.barrier = self.code.len();
        self.code.len() as u32
    }

    /// Emit a forward jump with a placeholder target; returns the patch site.
    fn emit_jump(&mut self, make: fn(u32) -> Op) -> usize {
        let at = self.code.len();
        self.code.push(make(u32::MAX));
        at
    }

    fn patch(&mut self, site: usize, target: u32) -> Result<(), CompileError> {
        let op = match self.code.get(site).copied() {
            Some(Op::Jump(_)) => Op::Jump(target),
            Some(Op::JumpIfFalse(_)) => Op::JumpIfFalse(target),
            Some(Op::AndJump(_)) => Op::AndJump(target),
            Some(Op::OrJump(_)) => Op::OrJump(target),
            _ => return Err(err("patch site is not a jump")),
        };
        self.code[site] = op;
        Ok(())
    }

    fn bind(&mut self, sites: &[usize]) -> Result<u32, CompileError> {
        let target = self.here();
        for &s in sites {
            self.patch(s, target)?;
        }
        Ok(target)
    }

    fn num(&mut self, n: f64) -> Result<u32, CompileError> {
        if let Some(&i) = self.num_ix.get(&n.to_bits()) {
            return Ok(i);
        }
        let i = u32::try_from(self.nums.len()).map_err(|_| err("number pool overflow"))?;
        self.nums.push(n);
        self.num_ix.insert(n.to_bits(), i);
        Ok(i)
    }

    fn str_const(&mut self, s: &str) -> Result<u32, CompileError> {
        if let Some(&i) = self.str_ix.get(s) {
            return Ok(i);
        }
        let i = u32::try_from(self.strs.len()).map_err(|_| err("string pool overflow"))?;
        let boxed: Box<str> = s.into();
        self.strs.push(boxed.clone());
        self.str_ix.insert(boxed, i);
        Ok(i)
    }

    /// Register an inner function. Its body is *not* lowered here — only on
    /// first call (see [`LazyFunc`]) — so a chunk's compile cost scales with
    /// the code a page actually runs, not with every library bundle it ships.
    fn child(&mut self, def: &Arc<FunctionDef>) -> Result<u32, CompileError> {
        let i = u32::try_from(self.funcs.len()).map_err(|_| err("function pool overflow"))?;
        self.funcs.push(Arc::new(LazyFunc::new(def.clone())));
        Ok(i)
    }

    /// The [`NamePath`] for `name` under the currently open slot scopes.
    fn path(&mut self, name: Atom) -> Result<u32, CompileError> {
        let mut slots = Vec::new();
        for &scope in self.open_scopes.iter().rev() {
            if let Some(&slot) = self.slot_maps[scope].get(&name) {
                slots.push(slot);
            }
        }
        let key = (slots.into_boxed_slice(), name);
        if let Some(&i) = self.path_ix.get(&key) {
            return Ok(i);
        }
        let i = u32::try_from(self.paths.len()).map_err(|_| err("path pool overflow"))?;
        self.paths.push(NamePath {
            slots: key.0.clone(),
            atom: name,
        });
        self.path_ix.insert(key, i);
        Ok(i)
    }

    fn load_name(&mut self, name: Atom) -> Result<(), CompileError> {
        match self.mode {
            ChunkMode::Env => self.push(Op::LoadName(name)),
            ChunkMode::Slot => {
                let p = self.path(name)?;
                self.push(Op::LoadPath(p));
            }
        }
        Ok(())
    }

    fn store_name(&mut self, name: Atom) -> Result<(), CompileError> {
        match self.mode {
            ChunkMode::Env => self.push(Op::StoreName(name)),
            ChunkMode::Slot => {
                let p = self.path(name)?;
                self.push(Op::StorePath(p));
            }
        }
        Ok(())
    }

    fn decl_name(&mut self, name: Atom) -> Result<(), CompileError> {
        match self.mode {
            ChunkMode::Env => self.push(Op::DeclName(name)),
            ChunkMode::Slot => {
                let innermost = self.open_scopes.last().copied().unwrap_or(0);
                let slot = self.slot_maps[innermost]
                    .get(&name)
                    .copied()
                    .ok_or_else(|| err("var missing from slot plan"))?;
                self.push(Op::DeclSlot(slot));
            }
        }
        Ok(())
    }

    // ---- statements ----

    /// Emit a direct body statement, reusing the precompiled chunk for
    /// hoisted function declarations.
    fn emit_body_stmt(&mut self, s: &Stmt, hoisted_fi: Option<u32>) -> Result<(), CompileError> {
        if let (Stmt::FunctionDecl(def), Some(fi)) = (s, hoisted_fi) {
            self.direct_top = false;
            self.burn();
            if let Some(name) = def.name {
                self.push(Op::MakeClosure(fi));
                self.push(Op::DeclName(name));
            }
            return Ok(());
        }
        self.stmt(s)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        let direct = std::mem::take(&mut self.direct_top);
        self.burn();
        match s {
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.push(if direct {
                    Op::TakeLastExpr
                } else {
                    Op::PopLastExpr
                });
            }
            Stmt::Var(name, init) => {
                match init {
                    Some(e) => self.expr(e)?,
                    None => self.push(Op::Undefined),
                }
                self.decl_name(*name)?;
            }
            Stmt::FunctionDecl(def) => {
                // A non-hoisted (nested) declaration: allocates a fresh
                // closure when executed, like the tree-walk.
                if self.mode == ChunkMode::Slot {
                    return Err(err("function declaration in slot-mode body"));
                }
                if let Some(name) = def.name {
                    let fi = self.child(def)?;
                    self.push(Op::MakeClosure(fi));
                    self.push(Op::DeclName(name));
                }
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(e)?,
                    None => self.push(Op::Undefined),
                }
                self.push(Op::Return);
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                for s in then {
                    self.stmt(s)?;
                }
                if otherwise.is_empty() {
                    self.bind(&[jf])?;
                } else {
                    let jend = self.emit_jump(Op::Jump);
                    self.bind(&[jf])?;
                    for s in otherwise {
                        self.stmt(s)?;
                    }
                    self.bind(&[jend])?;
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                self.expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                self.loops.push(LoopCtx::default());
                for s in body {
                    self.stmt(s)?;
                }
                self.push(Op::Jump(start));
                let ctx = self.loops.pop().unwrap_or_default();
                let end = self.bind(&[jf])?;
                for b in ctx.breaks {
                    self.patch(b, end)?;
                }
                for c in ctx.continues {
                    self.patch(c, start)?;
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => self.for_stmt(init.as_deref(), cond.as_ref(), update.as_ref(), body)?,
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.stmt(s)?;
                }
            }
            Stmt::Break => {
                if self.loops.is_empty() {
                    self.push(Op::BreakOutside);
                } else {
                    let j = self.emit_jump(Op::Jump);
                    if let Some(ctx) = self.loops.last_mut() {
                        ctx.breaks.push(j);
                    }
                }
            }
            Stmt::Continue => {
                if self.loops.is_empty() {
                    self.push(Op::BreakOutside);
                } else {
                    let j = self.emit_jump(Op::Jump);
                    if let Some(ctx) = self.loops.last_mut() {
                        ctx.continues.push(j);
                    }
                }
            }
        }
        Ok(())
    }

    fn for_stmt(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        update: Option<&Expr>,
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        // Scope entry: a fresh environment (env mode) or a slot-scope reset
        // (slot mode) per execution of the `for` statement.
        let scope_id = match self.mode {
            ChunkMode::Env => {
                self.push(Op::PushLoopEnv);
                None
            }
            ChunkMode::Slot => {
                self.next_for += 1;
                let map_ix = self.next_for; // slot_maps[0] is the fn scope
                let id = u32::try_from(map_ix - 1).map_err(|_| err("scope overflow"))?;
                self.push(Op::ResetScope(id));
                self.open_scopes.push(map_ix);
                Some(id)
            }
        };
        if let Some(init) = init {
            self.stmt(init)?;
        }
        let cond_pos = self.here();
        let jf = match cond {
            Some(c) => {
                self.expr(c)?;
                Some(self.emit_jump(Op::JumpIfFalse))
            }
            None => None,
        };
        self.loops.push(LoopCtx::default());
        for s in body {
            self.stmt(s)?;
        }
        let cont = self.here();
        if let Some(u) = update {
            self.expr(u)?;
            self.push(Op::Pop);
        }
        self.push(Op::Jump(cond_pos));
        let ctx = self.loops.pop().unwrap_or_default();
        let mut exits = ctx.breaks;
        if let Some(jf) = jf {
            exits.push(jf);
        }
        self.bind(&exits)?;
        for c in ctx.continues {
            self.patch(c, cont)?;
        }
        match self.mode {
            ChunkMode::Env => self.push(Op::PopLoopEnv),
            ChunkMode::Slot => {
                if let Some(id) = scope_id {
                    self.push(Op::ResetScope(id));
                }
                self.open_scopes.pop();
            }
        }
        Ok(())
    }

    // ---- expressions ----

    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        self.burn();
        match e {
            Expr::Num(n) => {
                let i = self.num(*n)?;
                self.push(Op::Num(i));
            }
            Expr::Str(s) => {
                let i = self.str_const(s)?;
                self.push(Op::Str(i));
            }
            Expr::Bool(true) => self.push(Op::True),
            Expr::Bool(false) => self.push(Op::False),
            Expr::Null => self.push(Op::Null),
            Expr::Undefined => self.push(Op::Undefined),
            Expr::This => self.push(Op::This),
            Expr::Ident(name) => self.load_name(*name)?,
            Expr::Member(o, p) => {
                self.expr(o)?;
                self.push(Op::GetMember(*p));
            }
            Expr::Index(o, k) => {
                self.expr(o)?;
                self.expr(k)?;
                self.push(Op::GetIndex);
            }
            Expr::Call { callee, args } => {
                // Method calls bind `this` to the receiver; the callee is
                // fetched before arguments evaluate (so `null.f(...)`
                // throws without touching the args), exactly like the
                // tree-walk. The receiver expression evaluates once.
                match &**callee {
                    Expr::Member(o, p) => {
                        self.expr(o)?;
                        self.push(Op::Dup);
                        self.push(Op::GetMember(*p));
                        self.push(Op::Swap);
                    }
                    Expr::Index(o, k) => {
                        self.expr(o)?;
                        self.push(Op::Dup);
                        self.expr(k)?;
                        self.push(Op::GetIndex);
                        self.push(Op::Swap);
                    }
                    other => {
                        self.expr(other)?;
                        self.push(Op::Undefined);
                    }
                }
                for a in args {
                    self.expr(a)?;
                }
                let argc = u32::try_from(args.len()).map_err(|_| err("too many arguments"))?;
                self.push(Op::Call(argc));
            }
            Expr::New { callee, args } => {
                self.expr(callee)?;
                // Type-check + instance allocation happen before argument
                // evaluation, matching the tree-walk's order.
                self.push(Op::NewAlloc);
                for a in args {
                    self.expr(a)?;
                }
                let argc = u32::try_from(args.len()).map_err(|_| err("too many arguments"))?;
                self.push(Op::NewCall(argc));
            }
            Expr::Assign { place, op, value } => {
                self.expr(value)?;
                match op {
                    None => {
                        self.push(Op::Dup);
                        self.write_place(place)?;
                    }
                    Some(binop) => {
                        // Compound assignment re-evaluates the place's base
                        // (and key) for the write, like read_place +
                        // write_place in the tree-walk.
                        self.read_place(place)?;
                        self.push(Op::Swap);
                        self.push(Op::Bin(*binop));
                        self.push(Op::Dup);
                        self.write_place(place)?;
                    }
                }
            }
            Expr::IncDec {
                place,
                is_inc,
                postfix,
            } => {
                self.read_place(place)?;
                let step = if *is_inc { Op::IncNum } else { Op::DecNum };
                if *postfix {
                    self.push(Op::ToNumber);
                    self.push(Op::Dup);
                    self.push(step);
                } else {
                    self.push(step);
                    self.push(Op::Dup);
                }
                self.write_place(place)?;
            }
            Expr::Binary { op, lhs, rhs } => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                self.push(Op::Bin(*op));
            }
            Expr::Logical { op, lhs, rhs } => {
                self.expr(lhs)?;
                let j = self.emit_jump(match op {
                    crate::ast::LogicalOp::And => Op::AndJump,
                    crate::ast::LogicalOp::Or => Op::OrJump,
                });
                self.expr(rhs)?;
                self.bind(&[j])?;
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    self.expr(expr)?;
                    self.push(Op::Neg);
                }
                UnaryOp::Not => {
                    self.expr(expr)?;
                    self.push(Op::Not);
                }
                UnaryOp::Typeof => match &**expr {
                    // typeof on a bare identifier doesn't burn for (or
                    // throw on) the lookup, per the tree-walk.
                    Expr::Ident(name) => match self.mode {
                        ChunkMode::Env => self.push(Op::TypeofName(*name)),
                        ChunkMode::Slot => {
                            let p = self.path(*name)?;
                            self.push(Op::TypeofPath(p));
                        }
                    },
                    other => {
                        self.expr(other)?;
                        self.push(Op::TypeofVal);
                    }
                },
            },
            Expr::Cond {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond)?;
                let jf = self.emit_jump(Op::JumpIfFalse);
                self.expr(then)?;
                let jend = self.emit_jump(Op::Jump);
                self.bind(&[jf])?;
                self.expr(otherwise)?;
                self.bind(&[jend])?;
            }
            Expr::Function(def) => {
                if self.mode == ChunkMode::Slot {
                    return Err(err("function expression in slot-mode body"));
                }
                let fi = self.child(def)?;
                self.push(Op::MakeClosure(fi));
            }
            Expr::ObjectLit(props) => {
                self.push(Op::AllocObject);
                for (k, v) in props {
                    self.expr(v)?;
                    self.push(Op::SetPropRaw(*k));
                }
            }
            Expr::ArrayLit(items) => {
                self.push(Op::AllocObject);
                let mut index_key = String::new();
                for (i, item) in items.iter().enumerate() {
                    self.expr(item)?;
                    index_key.clear();
                    let _ = fmt::Write::write_fmt(&mut index_key, format_args!("{i}"));
                    self.push(Op::SetPropRaw(Atom::intern(&index_key)));
                }
                let len = self.num(items.len() as f64)?;
                self.push(Op::Num(len));
                self.push(Op::SetPropRaw(Atom::intern("length")));
            }
        }
        Ok(())
    }

    /// Read a place's current value onto the stack. Unlike `expr`, charges
    /// no fuel of its own — the tree-walk's `read_place` doesn't either
    /// (only the base/key sub-expressions burn).
    fn read_place(&mut self, place: &Place) -> Result<(), CompileError> {
        match place {
            Place::Var(name) => self.load_name(*name)?,
            Place::Member(o, p) => {
                self.expr(o)?;
                self.push(Op::GetMember(*p));
            }
            Place::Index(o, k) => {
                self.expr(o)?;
                self.expr(k)?;
                self.push(Op::GetIndex);
            }
        }
        Ok(())
    }

    /// Pop the value under the place's base/key operands and store it.
    fn write_place(&mut self, place: &Place) -> Result<(), CompileError> {
        match place {
            Place::Var(name) => self.store_name(*name)?,
            Place::Member(o, p) => {
                self.expr(o)?;
                self.push(Op::SetMember(*p));
            }
            Place::Index(o, k) => {
                self.expr(o)?;
                self.expr(k)?;
                self.push(Op::SetIndex);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> Chunk {
        compile(&parse(src).expect("parses")).expect("compiles")
    }

    #[test]
    fn straight_line_burns_merge() {
        let chunk = compile_src("var a = 1; var b = 2;");
        // Each statement's burn merges with its initializer's burn (they are
        // literally adjacent), so two ops charge four tree-walk burns.
        let burns: Vec<u32> = chunk
            .main
            .code
            .iter()
            .filter_map(|op| match op {
                Op::Burn(n) => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(burns, vec![2, 2], "stmt+expr burn pairs merge");
    }

    #[test]
    fn burns_do_not_merge_across_jump_targets() {
        let chunk = compile_src("var i = 0; while (i < 3) { i = i + 1; }");
        // The while-condition burn is a jump target: the backward edge
        // re-enters there, so it must stay its own op.
        let total: u32 = chunk
            .main
            .code
            .iter()
            .map(|op| match op {
                Op::Burn(n) => *n,
                _ => 0,
            })
            .sum();
        assert!(total > 0);
        let has_jump_back = chunk
            .main
            .code
            .iter()
            .any(|op| matches!(op, Op::Jump(t) if (*t as usize) < chunk.main.code.len()));
        assert!(has_jump_back);
    }

    #[test]
    fn leaf_functions_compile_to_slot_mode() {
        let chunk = compile_src("function f(x) { var y = x + 1; return y; } f(1);");
        assert_eq!(chunk.main.mode, ChunkMode::Env);
        assert_eq!(chunk.main.funcs.len(), 1);
        let f = chunk.main.funcs[0].force().expect("lowers");
        assert_eq!(f.mode, ChunkMode::Slot);
        assert_eq!(f.n_slots, 3, "param x + self name f + var y");
        assert!(f.code.iter().any(|op| matches!(op, Op::LoadPath(_))));
        assert!(!f.code.iter().any(|op| matches!(op, Op::LoadName(_))));
    }

    #[test]
    fn closure_bodies_stay_in_env_mode() {
        let chunk =
            compile_src("function outer() { var n = 1; return function () { return n; }; }");
        let outer = chunk.main.funcs[0].force().expect("lowers");
        assert_eq!(outer.mode, ChunkMode::Env);
        assert_eq!(outer.funcs.len(), 1);
        assert_eq!(
            outer.funcs[0].force().expect("lowers").mode,
            ChunkMode::Slot
        );
    }

    #[test]
    fn for_scopes_get_reset_ops_in_slot_mode() {
        let chunk =
            compile_src("function f() { for (var i = 0; i < 2; i = i + 1) { var t = i; } }");
        let f = chunk.main.funcs[0].force().expect("lowers");
        assert_eq!(f.mode, ChunkMode::Slot);
        assert_eq!(f.scopes.len(), 1);
        assert_eq!(f.scopes[0].len(), 2, "i and t live in the loop scope");
        let resets = f
            .code
            .iter()
            .filter(|op| matches!(op, Op::ResetScope(0)))
            .count();
        assert_eq!(resets, 2, "reset at entry and exit");
    }

    #[test]
    fn constant_pools_deduplicate() {
        let chunk = compile_src("var a = 1 + 1 + 1; var s = 'x' + 'x';");
        assert_eq!(chunk.main.nums.len(), 1);
        assert_eq!(chunk.main.strs.len(), 1);
    }

    #[test]
    fn hoisted_declarations_share_one_chunk() {
        let chunk = compile_src("function g() { return 1; } g();");
        assert_eq!(chunk.main.funcs.len(), 1, "hoist + statement reuse");
        assert_eq!(chunk.main.hoisted.len(), 1);
    }

    #[test]
    fn inner_bodies_lower_lazily_and_memoize() {
        let chunk = compile_src("function f(x) { return x + 1; } f(1);");
        let lazy = &chunk.main.funcs[0];
        assert!(
            lazy.compiled().is_none(),
            "compile() must not lower inner bodies"
        );
        let first = Arc::clone(lazy.force().expect("lowers"));
        let second = Arc::clone(lazy.force().expect("memoized"));
        assert!(
            Arc::ptr_eq(&first, &second),
            "forcing twice shares one body"
        );
        assert!(lazy.compiled().is_some());
        assert!(chunk.op_count() > chunk.main.code.len());
    }

    #[test]
    fn compile_is_deterministic() {
        let src =
            "function f(a, b) { for (var i = 0; i < b; i++) { a = a + i; } return a; } f(0, 4);";
        let p = parse(src).expect("parses");
        let a = compile(&p).expect("compiles");
        let b = compile(&p).expect("compiles");
        assert_eq!(a, b);
    }
}
