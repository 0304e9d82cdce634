//! # bfu-script
//!
//! A miniature JavaScript-like language: the substrate that makes the
//! paper's instrumentation technique *real* rather than simulated.
//!
//! The paper's extension works by (a) overwriting methods on DOM prototypes
//! with logging wrappers that close over the originals, and (b) watching
//! property writes on singleton objects via `Object.watch`. Reproducing that
//! requires an object model with genuine prototype chains, closures, and
//! interceptable property access — so this crate implements one, with a
//! lexer, recursive-descent parser, and step-budgeted tree-walking
//! interpreter. Synthetic sites' scripts are authored in this language by
//! `bfu-webgen`.
//!
//! - [`token`] — lexer.
//! - [`ast`] — syntax tree.
//! - [`parser`] — recursive-descent parser.
//! - [`value`] — runtime values.
//! - [`object`] — heap, objects, prototype chains, watchpoints.
//! - [`interp`] — the tree-walk interpreter and host-function registry.
//! - [`compile`](mod@compile) — AST → bytecode chunk lowering.
//! - [`vm`] — the bytecode dispatch loop (the production engine).
//! - [`budget`] — multi-axis execution resource budgets.
//! - [`cache`] — survey-wide content-addressed compilation cache, and the
//!   runnable [`Script`] it and [`Script::prepare`] hand out.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod budget;
pub mod cache;
pub mod compile;
pub mod interp;
pub mod object;
pub mod parser;
pub mod token;
pub mod value;
pub mod vm;

pub use budget::ResourceBudget;
pub use cache::{CacheOutcome, CacheStats, Script, ScriptCache, Source};
pub use compile::{compile, Chunk, CompileError, FuncChunk, LazyFunc};
pub use interp::{Interpreter, NativeFn, RuntimeError, ScriptError};
pub use object::{Heap, ObjId, PropKey};
pub use value::Value;
pub use vm::{run_chunk, Engine};
