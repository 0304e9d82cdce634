//! Recursive-descent parser for the mini-JS language.
//!
//! Standard precedence-climbing expression parser; statements cover the
//! subset `bfu-webgen` emits and a bit more (so hand-written page scripts in
//! tests and examples are pleasant to write).
//!
//! The grammar is written once, generic over a builder: the tree builder
//! makes syntax-tree nodes and the checker makes nothing. The tree builder
//! reads each function body with the checker, so a syntax error anywhere
//! still fails the parse, and keeps the body as an [`ast::Body`](Body)
//! whose statements are built on its first use.
//!
//! Tokens carry no values. The tree builder reads a name, number or string
//! from the source when it builds the node that holds it, and resolves
//! names through a map of its own parse, so the process-wide atom table
//! (behind an `RwLock` every crawl thread shares) is consulted once per
//! distinct name. The checker reads no value at all.

use crate::ast::*;
use crate::token::{lex, lex_at, Keyword, Kind, LexError, Op, Tok, Token};
use bfu_util::Atom;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// 1-based line (0 at EOF).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn lex_error(e: LexError) -> ParseError {
    ParseError {
        message: e.message,
        line: e.line,
    }
}

/// Parse a program. Function bodies are checked now and built on first
/// use; if the script defines a function, its bodies share one copy of
/// `src`.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    parse_source(src, None)
}

/// [`parse`] `text`, whose bytes `shared` holds: the program's function
/// bodies share that allocation instead of a copy.
pub(crate) fn parse_shared(text: &str, shared: &Arc<[u8]>) -> Result<Program, ParseError> {
    parse_source(text, Some(shared))
}

fn parse_source(text: &str, shared: Option<&Arc<[u8]>>) -> Result<Program, ParseError> {
    let toks = lex(text).map_err(lex_error)?;
    let program = |eager| {
        let mut p = Parser::new(&toks, text, 0, 0, shared.cloned());
        p.eager = eager;
        let mut body = Vec::new();
        while p.peek().is_some() {
            body.push(p.statement::<Tree>()?);
        }
        Ok(Program { body })
    };
    // The checker has no tree to print in its errors, so a failed parse
    // runs again with every body built, and reports the tree builder's own
    // message and line. Only malformed sources pay.
    program(false).or_else(|_| program(true))
}

/// The statements of the function body at `span` of `src`, opened on
/// `line` at parser `depth`. The parser already checked these bytes at
/// this depth with the same grammar, so a failure here is a bug.
pub(crate) fn parse_body(src: &Arc<[u8]>, span: Range<u32>, line: u32, depth: u32) -> Vec<Stmt> {
    let parsed = (|| -> Result<Vec<Stmt>, String> {
        let bytes = src.get(span.start as usize..span.end as usize);
        let text = std::str::from_utf8(bytes.ok_or("span outside the source")?)
            .map_err(|e| e.to_string())?;
        let toks = lex_at(text, line, span.start).map_err(|e| e.to_string())?;
        let mut p = Parser::new(&toks, text, span.start, depth, Some(Arc::clone(src)));
        let stmts = p.block::<Tree>().map_err(|e| e.to_string())?;
        match p.peek() {
            None => Ok(stmts),
            Some(kind) => Err(format!("{kind:?} after the body")),
        }
    })();
    parsed.unwrap_or_else(|e| panic!("bug: a checked function body failed to parse: {e}"))
}

/// The node a binary operator builds.
#[derive(Clone, Copy)]
enum Infix {
    Logical(LogicalOp),
    Binary(BinOp),
}

/// The node binary operator `op` builds and its precedence, loosest 0.
fn infix(op: Op) -> Option<(u8, Infix)> {
    Some(match op {
        Op::Or => (0, Infix::Logical(LogicalOp::Or)),
        Op::And => (1, Infix::Logical(LogicalOp::And)),
        Op::Eq => (2, Infix::Binary(BinOp::Eq)),
        Op::Ne => (2, Infix::Binary(BinOp::Ne)),
        Op::StrictEq => (2, Infix::Binary(BinOp::StrictEq)),
        Op::StrictNe => (2, Infix::Binary(BinOp::StrictNe)),
        Op::Lt => (3, Infix::Binary(BinOp::Lt)),
        Op::Le => (3, Infix::Binary(BinOp::Le)),
        Op::Gt => (3, Infix::Binary(BinOp::Gt)),
        Op::Ge => (3, Infix::Binary(BinOp::Ge)),
        Op::Add => (4, Infix::Binary(BinOp::Add)),
        Op::Sub => (4, Infix::Binary(BinOp::Sub)),
        Op::Mul => (5, Infix::Binary(BinOp::Mul)),
        Op::Div => (5, Infix::Binary(BinOp::Div)),
        Op::Rem => (5, Infix::Binary(BinOp::Rem)),
        _ => return None,
    })
}

/// Maximum grammar-recursion depth. Each level costs about ten native
/// stack frames (assignment down to primary), so this bounds parser stack
/// use far below any thread's stack while accepting any plausible real
/// script.
const MAX_PARSE_DEPTH: u32 = 128;

/// What the grammar makes of what it reads: one constructor per node.
trait Build {
    type Expr: fmt::Debug;
    type Stmt;
    /// A variable, parameter, property or object-key name.
    type Name;
    /// An assignment or `++`/`--` target.
    type Place;
    /// A function definition.
    type Func;
    /// A sequence of nodes.
    type List<T>: Default + Extend<T> + FromIterator<T>;

    /// The name identifier token `t` spells.
    fn name(p: &mut Parser<'_>, t: Token) -> Self::Name;
    /// The object key an identifier, string or number token spells.
    fn key(p: &mut Parser<'_>, t: Token) -> Self::Name;
    /// The expression an identifier, number or string token stands for.
    fn value(p: &mut Parser<'_>, t: Token) -> Self::Expr;
    /// A node with no children: a keyword literal or `this`.
    fn leaf(e: Expr) -> Self::Expr;
    fn member(obj: Self::Expr, prop: Self::Name) -> Self::Expr;
    fn index(obj: Self::Expr, key: Self::Expr) -> Self::Expr;
    /// A call, or with `new` a construction.
    fn call(callee: Self::Expr, args: Self::List<Self::Expr>, new: bool) -> Self::Expr;
    /// `e` as a target, or `e` back if it cannot be assigned to.
    fn place(e: Self::Expr) -> Result<Self::Place, Self::Expr>;
    fn assign(place: Self::Place, op: Option<BinOp>, value: Self::Expr) -> Self::Expr;
    fn inc_dec(place: Self::Place, is_inc: bool, postfix: bool) -> Self::Expr;
    fn infix(op: Infix, lhs: Self::Expr, rhs: Self::Expr) -> Self::Expr;
    fn unary(op: UnaryOp, expr: Self::Expr) -> Self::Expr;
    fn cond(cond: Self::Expr, then: Self::Expr, otherwise: Self::Expr) -> Self::Expr;
    fn object(props: Self::List<(Self::Name, Self::Expr)>) -> Self::Expr;
    fn array(items: Self::List<Self::Expr>) -> Self::Expr;
    fn function_expr(def: Self::Func) -> Self::Expr;
    /// Read a function's `{ … }` body and define the function.
    fn function(
        p: &mut Parser<'_>,
        name: Option<Self::Name>,
        params: Self::List<Self::Name>,
    ) -> Result<Self::Func, ParseError>;
    fn var(name: Self::Name, init: Option<Self::Expr>) -> Self::Stmt;
    fn function_decl(def: Self::Func) -> Self::Stmt;
    fn ret(value: Option<Self::Expr>) -> Self::Stmt;
    fn if_else(
        cond: Self::Expr,
        then: Self::List<Self::Stmt>,
        otherwise: Self::List<Self::Stmt>,
    ) -> Self::Stmt;
    fn while_loop(cond: Self::Expr, body: Self::List<Self::Stmt>) -> Self::Stmt;
    fn for_loop(
        init: Option<Self::Stmt>,
        cond: Option<Self::Expr>,
        update: Option<Self::Expr>,
        body: Self::List<Self::Stmt>,
    ) -> Self::Stmt;
    fn block(body: Self::List<Self::Stmt>) -> Self::Stmt;
    fn expr(e: Self::Expr) -> Self::Stmt;
    /// A statement with no children: `break` or `continue`.
    fn jump(s: Stmt) -> Self::Stmt;
}

/// Builds the syntax tree, with every function body deferred.
struct Tree;

impl Build for Tree {
    type Expr = Expr;
    type Stmt = Stmt;
    type Name = Atom;
    type Place = Place;
    type Func = Arc<FunctionDef>;
    type List<T> = Vec<T>;

    fn name(p: &mut Parser<'_>, t: Token) -> Atom {
        p.atom(t)
    }
    fn key(p: &mut Parser<'_>, t: Token) -> Atom {
        match t.kind {
            Kind::Str => Atom::intern(&p.string(t)),
            Kind::Num => Atom::intern(&format!("{}", p.number(t))),
            _ => p.atom(t),
        }
    }
    fn value(p: &mut Parser<'_>, t: Token) -> Expr {
        match t.kind {
            Kind::Str => Expr::Str(p.string(t)),
            Kind::Num => Expr::Num(p.number(t)),
            _ => Expr::Ident(p.atom(t)),
        }
    }
    fn leaf(e: Expr) -> Expr {
        e
    }
    fn member(obj: Expr, prop: Atom) -> Expr {
        Expr::Member(Box::new(obj), prop)
    }
    fn index(obj: Expr, key: Expr) -> Expr {
        Expr::Index(Box::new(obj), Box::new(key))
    }
    fn call(callee: Expr, args: Vec<Expr>, new: bool) -> Expr {
        let callee = Box::new(callee);
        if new {
            Expr::New { callee, args }
        } else {
            Expr::Call { callee, args }
        }
    }
    fn place(e: Expr) -> Result<Place, Expr> {
        match e {
            Expr::Ident(name) => Ok(Place::Var(name)),
            Expr::Member(obj, prop) => Ok(Place::Member(obj, prop)),
            Expr::Index(obj, key) => Ok(Place::Index(obj, key)),
            other => Err(other),
        }
    }
    fn assign(place: Place, op: Option<BinOp>, value: Expr) -> Expr {
        let value = Box::new(value);
        Expr::Assign { place, op, value }
    }
    fn inc_dec(place: Place, is_inc: bool, postfix: bool) -> Expr {
        Expr::IncDec {
            place,
            is_inc,
            postfix,
        }
    }
    fn infix(op: Infix, lhs: Expr, rhs: Expr) -> Expr {
        let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
        match op {
            Infix::Logical(op) => Expr::Logical { op, lhs, rhs },
            Infix::Binary(op) => Expr::Binary { op, lhs, rhs },
        }
    }
    fn unary(op: UnaryOp, expr: Expr) -> Expr {
        let expr = Box::new(expr);
        Expr::Unary { op, expr }
    }
    fn cond(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Cond {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }
    fn object(props: Vec<(Atom, Expr)>) -> Expr {
        Expr::ObjectLit(props)
    }
    fn array(items: Vec<Expr>) -> Expr {
        Expr::ArrayLit(items)
    }
    fn function_expr(def: Arc<FunctionDef>) -> Expr {
        Expr::Function(def)
    }
    /// Checks the body where it stands and keeps its span; only the retry
    /// after a failed parse builds it now.
    fn function(
        p: &mut Parser<'_>,
        name: Option<Atom>,
        params: Vec<Atom>,
    ) -> Result<Arc<FunctionDef>, ParseError> {
        let (open, line, depth) = (p.offset(), p.line(), p.depth);
        let stmts = if p.eager {
            Some(p.block::<Tree>()?)
        } else {
            p.block::<Check>()?;
            None
        };
        // The block ended on its `}`.
        let close = p.toks[p.pos - 1].offset + 1;
        let body = Body::new(p.shared(), open..close, line, depth, stmts);
        Ok(Arc::new(FunctionDef { name, params, body }))
    }
    fn var(name: Atom, init: Option<Expr>) -> Stmt {
        Stmt::Var(name, init)
    }
    fn function_decl(def: Arc<FunctionDef>) -> Stmt {
        Stmt::FunctionDecl(def)
    }
    fn ret(value: Option<Expr>) -> Stmt {
        Stmt::Return(value)
    }
    fn if_else(cond: Expr, then: Vec<Stmt>, otherwise: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then,
            otherwise,
        }
    }
    fn while_loop(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }
    fn for_loop(
        init: Option<Stmt>,
        cond: Option<Expr>,
        update: Option<Expr>,
        body: Vec<Stmt>,
    ) -> Stmt {
        let init = init.map(Box::new);
        Stmt::For {
            init,
            cond,
            update,
            body,
        }
    }
    fn block(body: Vec<Stmt>) -> Stmt {
        Stmt::Block(body)
    }
    fn expr(e: Expr) -> Stmt {
        Stmt::Expr(e)
    }
    fn jump(s: Stmt) -> Stmt {
        s
    }
}

/// Builds nothing and reads no token's value: accepts exactly what
/// [`Tree`] accepts. An expression is only whether it can be assigned to,
/// the one property of a tree the grammar tests; parentheses pass it
/// through, as they pass `Tree`'s node.
struct Check;

/// A list that keeps nothing.
#[derive(Default)]
struct Nothing;

impl<T> Extend<T> for Nothing {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        items.into_iter().for_each(drop);
    }
}

impl<T> FromIterator<T> for Nothing {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        items.into_iter().for_each(drop);
        Nothing
    }
}

impl Build for Check {
    type Expr = bool;
    type Stmt = ();
    type Name = ();
    type Place = ();
    type Func = ();
    type List<T> = Nothing;

    fn name(_: &mut Parser<'_>, _: Token) {}
    fn key(_: &mut Parser<'_>, _: Token) {}
    fn value(_: &mut Parser<'_>, t: Token) -> bool {
        t.kind == Kind::Ident
    }
    fn leaf(_: Expr) -> bool {
        false
    }
    fn member(_: bool, _: ()) -> bool {
        true
    }
    fn index(_: bool, _: bool) -> bool {
        true
    }
    fn call(_: bool, _: Nothing, _: bool) -> bool {
        false
    }
    fn place(e: bool) -> Result<(), bool> {
        e.then_some(()).ok_or(e)
    }
    fn assign(_: (), _: Option<BinOp>, _: bool) -> bool {
        false
    }
    fn inc_dec(_: (), _: bool, _: bool) -> bool {
        false
    }
    fn infix(_: Infix, _: bool, _: bool) -> bool {
        false
    }
    fn unary(_: UnaryOp, _: bool) -> bool {
        false
    }
    fn cond(_: bool, _: bool, _: bool) -> bool {
        false
    }
    fn object(_: Nothing) -> bool {
        false
    }
    fn array(_: Nothing) -> bool {
        false
    }
    fn function_expr(_: ()) -> bool {
        false
    }
    fn function(p: &mut Parser<'_>, _: Option<()>, _: Nothing) -> Result<(), ParseError> {
        p.block::<Check>().map(drop)
    }
    fn var(_: (), _: Option<bool>) {}
    fn function_decl(_: ()) {}
    fn ret(_: Option<bool>) {}
    fn if_else(_: bool, _: Nothing, _: Nothing) {}
    fn while_loop(_: bool, _: Nothing) {}
    fn for_loop(_: Option<()>, _: Option<bool>, _: Option<bool>, _: Nothing) {}
    fn block(_: Nothing) {}
    fn expr(_: bool) {}
    fn jump(_: Stmt) {}
}

/// Add `item` to `list`.
fn push<T>(list: &mut impl Extend<T>, item: T) {
    list.extend(Some(item));
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Current grammar-recursion depth (statements, expressions, unary
    /// chains). Deeply nested hostile source (`((((…`, `[[[[…`, `!!!!…`)
    /// must fail with a [`ParseError`], not overflow the native stack.
    depth: u32,
    /// The text being parsed.
    text: &'a str,
    /// Byte offset of `text` in the whole source, which token offsets
    /// count from.
    base: u32,
    /// The atom of each name the tree builder has read. The default
    /// hasher, because script text is outside input.
    atoms: HashMap<&'a str, Atom>,
    /// The whole source function bodies are spans of: the caller's
    /// allocation, or a copy of `text` made at the first function.
    shared: Option<Arc<[u8]>>,
    /// Build every function body now instead of deferring it. Only the
    /// retry after a failed parse sets this.
    eager: bool,
}

impl<'a> Parser<'a> {
    /// A parser over `toks`, lexed from `text`, which starts at byte `base`
    /// of the whole source and is read at grammar `depth`.
    fn new(
        toks: &'a [Token],
        text: &'a str,
        base: u32,
        depth: u32,
        shared: Option<Arc<[u8]>>,
    ) -> Parser<'a> {
        Parser {
            toks,
            pos: 0,
            depth,
            text,
            base,
            atoms: HashMap::new(),
            shared,
            eager: false,
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<Kind> {
        self.toks.get(self.pos).map(|t| t.kind)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    /// Byte offset of the current token (0 at EOF).
    fn offset(&self) -> u32 {
        self.toks.get(self.pos).map_or(0, |t| t.offset)
    }

    /// The allocation function bodies share, made on first use if the
    /// caller had none.
    fn shared(&mut self) -> Arc<[u8]> {
        let text = self.text;
        Arc::clone(
            self.shared
                .get_or_insert_with(|| Arc::from(text.as_bytes())),
        )
    }

    /// The current token; the parser moves past it.
    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).copied();
        self.pos += 1;
        t
    }

    // ---- token values, read from the source ----

    /// The source text of `t`.
    fn slice(&self, t: Token) -> &'a str {
        let start = (t.offset - self.base) as usize;
        &self.text[start..start + t.len as usize]
    }

    /// The atom of identifier `t`.
    fn atom(&mut self, t: Token) -> Atom {
        let name = self.slice(t);
        *self.atoms.entry(name).or_insert_with(|| Atom::intern(name))
    }

    /// The value of number `t`. The lexer admits a digit run with at most
    /// one `.`, and every such text parses.
    fn number(&self, t: Token) -> f64 {
        let text = self.slice(t);
        text.parse()
            .unwrap_or_else(|_| panic!("bug: the lexer admitted the number {text:?}"))
    }

    /// The value of string `t`: its text between the quotes, with `\n` and
    /// `\t` mapped and any other escaped character standing for itself.
    fn string(&self, t: Token) -> String {
        let quoted = self.slice(t);
        let mut rest = &quoted[1..quoted.len() - 1];
        let mut s = String::with_capacity(rest.len());
        while let Some(k) = rest.find('\\') {
            s.push_str(&rest[..k]);
            let mut escaped = rest[k + 1..].chars();
            // The lexer saw a character after every backslash.
            s.extend(escaped.next().map(|c| match c {
                'n' => '\n',
                't' => '\t',
                other => other,
            }));
            rest = escaped.as_str();
        }
        s.push_str(rest);
        s
    }

    /// `t` with its value, as an error message prints it.
    fn tok(&self, t: Option<Token>) -> Option<Tok> {
        let t = t?;
        Some(match t.kind {
            Kind::Ident => Tok::Ident(Atom::intern(self.slice(t))),
            Kind::Kw(kw) => Tok::Kw(kw),
            Kind::Num => Tok::Num(self.number(t)),
            Kind::Str => Tok::Str(self.string(t)),
            Kind::Op(op) => Tok::Op(op.text()),
        })
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line(),
        }
    }

    fn eat_op(&mut self, op: Op) -> bool {
        if self.peek() == Some(Kind::Op(op)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: Op) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            let (op, found) = (op.text(), self.tok(self.toks.get(self.pos).copied()));
            Err(self.err(format!("expected `{op}`, found {found:?}")))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if self.peek() == Some(Kind::Kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident<B: Build>(&mut self) -> Result<B::Name, ParseError> {
        match self.bump() {
            Some(t) if t.kind == Kind::Ident => Ok(B::name(self, t)),
            other => {
                let other = self.tok(other);
                Err(self.err(format!("expected identifier, found {other:?}")))
            }
        }
    }

    /// `e` as an assignment target, or the error naming it.
    fn place<B: Build>(&self, e: B::Expr, what: &str) -> Result<B::Place, ParseError> {
        B::place(e).map_err(|other| self.err(format!("invalid {what} target {other:?}")))
    }

    // ---- statements ----

    fn statement<B: Build>(&mut self) -> Result<B::Stmt, ParseError> {
        self.enter()?;
        let stmt = self.statement_inner::<B>();
        self.depth -= 1;
        stmt
    }

    fn statement_inner<B: Build>(&mut self) -> Result<B::Stmt, ParseError> {
        match self.peek() {
            Some(Kind::Kw(Keyword::Var)) => {
                self.bump();
                let name = self.expect_ident::<B>()?;
                let init = if self.eat_op(Op::Assign) {
                    Some(self.expression::<B>()?)
                } else {
                    None
                };
                self.expect_op(Op::Semi)?;
                Ok(B::var(name, init))
            }
            Some(Kind::Kw(Keyword::Function)) => {
                self.bump();
                let name = self.expect_ident::<B>()?;
                let def = self.function_rest::<B>(Some(name))?;
                Ok(B::function_decl(def))
            }
            Some(Kind::Kw(Keyword::Return)) => {
                self.bump();
                let value = if self.peek() == Some(Kind::Op(Op::Semi)) {
                    None
                } else {
                    Some(self.expression::<B>()?)
                };
                self.expect_op(Op::Semi)?;
                Ok(B::ret(value))
            }
            Some(Kind::Kw(Keyword::If)) => {
                self.bump();
                self.expect_op(Op::LParen)?;
                let cond = self.expression::<B>()?;
                self.expect_op(Op::RParen)?;
                let then = self.block_or_single::<B>()?;
                let otherwise = if self.eat_kw(Keyword::Else) {
                    if self.peek() == Some(Kind::Kw(Keyword::If)) {
                        std::iter::once(self.statement::<B>()?).collect()
                    } else {
                        self.block_or_single::<B>()?
                    }
                } else {
                    B::List::default()
                };
                Ok(B::if_else(cond, then, otherwise))
            }
            Some(Kind::Kw(Keyword::While)) => {
                self.bump();
                self.expect_op(Op::LParen)?;
                let cond = self.expression::<B>()?;
                self.expect_op(Op::RParen)?;
                let body = self.block_or_single::<B>()?;
                Ok(B::while_loop(cond, body))
            }
            Some(Kind::Kw(Keyword::For)) => {
                self.bump();
                self.expect_op(Op::LParen)?;
                let init = if self.eat_op(Op::Semi) {
                    None
                } else if self.peek() == Some(Kind::Kw(Keyword::Var)) {
                    Some(self.statement::<B>()?) // consumes its ';'
                } else {
                    let e = self.expression::<B>()?;
                    self.expect_op(Op::Semi)?;
                    Some(B::expr(e))
                };
                let cond = if self.eat_op(Op::Semi) {
                    None
                } else {
                    let c = self.expression::<B>()?;
                    self.expect_op(Op::Semi)?;
                    Some(c)
                };
                let update = if self.peek() == Some(Kind::Op(Op::RParen)) {
                    None
                } else {
                    Some(self.expression::<B>()?)
                };
                self.expect_op(Op::RParen)?;
                let body = self.block_or_single::<B>()?;
                Ok(B::for_loop(init, cond, update, body))
            }
            Some(Kind::Kw(Keyword::Break)) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(B::jump(Stmt::Break))
            }
            Some(Kind::Kw(Keyword::Continue)) => {
                self.bump();
                self.expect_op(Op::Semi)?;
                Ok(B::jump(Stmt::Continue))
            }
            Some(Kind::Op(Op::LBrace)) => Ok(B::block(self.block::<B>()?)),
            _ => {
                let e = self.expression::<B>()?;
                self.expect_op(Op::Semi)?;
                Ok(B::expr(e))
            }
        }
    }

    fn block<B: Build>(&mut self) -> Result<B::List<B::Stmt>, ParseError> {
        self.expect_op(Op::LBrace)?;
        let mut stmts = B::List::default();
        while !self.eat_op(Op::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            push(&mut stmts, self.statement::<B>()?);
        }
        Ok(stmts)
    }

    fn block_or_single<B: Build>(&mut self) -> Result<B::List<B::Stmt>, ParseError> {
        if self.peek() == Some(Kind::Op(Op::LBrace)) {
            self.block::<B>()
        } else {
            Ok(std::iter::once(self.statement::<B>()?).collect())
        }
    }

    fn function_rest<B: Build>(&mut self, name: Option<B::Name>) -> Result<B::Func, ParseError> {
        self.expect_op(Op::LParen)?;
        let mut params = B::List::default();
        if !self.eat_op(Op::RParen) {
            loop {
                push(&mut params, self.expect_ident::<B>()?);
                if self.eat_op(Op::RParen) {
                    break;
                }
                self.expect_op(Op::Comma)?;
            }
        }
        B::function(self, name, params)
    }

    // ---- expressions, precedence climbing ----

    fn expression<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        self.assignment::<B>()
    }

    fn assignment<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        self.enter()?;
        let expr = self.assignment_inner::<B>();
        self.depth -= 1;
        expr
    }

    fn assignment_inner<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        let lhs = self.conditional::<B>()?;
        let op = match self.peek() {
            Some(Kind::Op(Op::Assign)) => None,
            Some(Kind::Op(Op::AddAssign)) => Some(BinOp::Add),
            Some(Kind::Op(Op::SubAssign)) => Some(BinOp::Sub),
            Some(Kind::Op(Op::MulAssign)) => Some(BinOp::Mul),
            Some(Kind::Op(Op::DivAssign)) => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let place = self.place::<B>(lhs, "assignment")?;
        let value = self.assignment::<B>()?;
        Ok(B::assign(place, op, value))
    }

    fn conditional<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        let cond = self.binary::<B>(0)?;
        if self.eat_op(Op::Question) {
            let then = self.assignment::<B>()?;
            self.expect_op(Op::Colon)?;
            let otherwise = self.assignment::<B>()?;
            Ok(B::cond(cond, then, otherwise))
        } else {
            Ok(cond)
        }
    }

    /// Precedence climbing: a run of binary operators that bind at least as
    /// tightly as `min`, left associative, over unary operands.
    fn binary<B: Build>(&mut self, min: u8) -> Result<B::Expr, ParseError> {
        let mut lhs = self.unary::<B>()?;
        loop {
            let Some(Kind::Op(op)) = self.peek() else {
                return Ok(lhs);
            };
            let Some((prec, infix)) = infix(op).filter(|&(prec, _)| prec >= min) else {
                return Ok(lhs);
            };
            self.pos += 1;
            let rhs = self.binary::<B>(prec + 1)?;
            lhs = B::infix(infix, lhs, rhs);
        }
    }

    fn unary<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        self.enter()?;
        let expr = self.unary_inner::<B>();
        self.depth -= 1;
        expr
    }

    fn unary_inner<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        if self.eat_op(Op::Sub) {
            return Ok(B::unary(UnaryOp::Neg, self.unary::<B>()?));
        }
        if self.eat_op(Op::Not) {
            return Ok(B::unary(UnaryOp::Not, self.unary::<B>()?));
        }
        if self.eat_kw(Keyword::Typeof) {
            return Ok(B::unary(UnaryOp::Typeof, self.unary::<B>()?));
        }
        let is_inc = match self.peek() {
            Some(Kind::Op(Op::Inc)) => true,
            Some(Kind::Op(Op::Dec)) => false,
            _ => return self.postfix::<B>(),
        };
        self.bump();
        let place = self.place_from_postfix::<B>()?;
        Ok(B::inc_dec(place, is_inc, false))
    }

    fn place_from_postfix<B: Build>(&mut self) -> Result<B::Place, ParseError> {
        let e = self.postfix::<B>()?;
        self.place::<B>(e, "++/--")
    }

    fn postfix<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        let mut expr = self.call_member::<B>()?;
        loop {
            let is_inc = match self.peek() {
                Some(Kind::Op(Op::Inc)) => true,
                Some(Kind::Op(Op::Dec)) => false,
                _ => return Ok(expr),
            };
            self.bump();
            let place = self.place::<B>(expr, "++/--")?;
            expr = B::inc_dec(place, is_inc, true);
        }
    }

    fn call_member<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        let mut expr = if self.eat_kw(Keyword::New) {
            let callee = self.primary::<B>()?;
            // member chain before the argument list: new a.b.C(...)
            let callee = self.member_chain_only::<B>(callee)?;
            self.expect_op(Op::LParen)?;
            let args = self.arguments::<B>()?;
            B::call(callee, args, true)
        } else {
            self.primary::<B>()?
        };
        loop {
            if self.eat_op(Op::Dot) {
                let prop = self.expect_ident::<B>()?;
                expr = B::member(expr, prop);
            } else if self.eat_op(Op::LBracket) {
                let key = self.expression::<B>()?;
                self.expect_op(Op::RBracket)?;
                expr = B::index(expr, key);
            } else if self.eat_op(Op::LParen) {
                let args = self.arguments::<B>()?;
                expr = B::call(expr, args, false);
            } else {
                return Ok(expr);
            }
        }
    }

    fn member_chain_only<B: Build>(&mut self, mut expr: B::Expr) -> Result<B::Expr, ParseError> {
        while self.eat_op(Op::Dot) {
            let prop = self.expect_ident::<B>()?;
            expr = B::member(expr, prop);
        }
        Ok(expr)
    }

    fn arguments<B: Build>(&mut self) -> Result<B::List<B::Expr>, ParseError> {
        let mut args = B::List::default();
        if self.eat_op(Op::RParen) {
            return Ok(args);
        }
        loop {
            push(&mut args, self.expression::<B>()?);
            if self.eat_op(Op::RParen) {
                return Ok(args);
            }
            self.expect_op(Op::Comma)?;
        }
    }

    fn primary<B: Build>(&mut self) -> Result<B::Expr, ParseError> {
        let tok = self.bump();
        if let Some(t) = tok.filter(|t| matches!(t.kind, Kind::Ident | Kind::Num | Kind::Str)) {
            return Ok(B::value(self, t));
        }
        match tok.map(|t| t.kind) {
            Some(Kind::Kw(Keyword::True)) => Ok(B::leaf(Expr::Bool(true))),
            Some(Kind::Kw(Keyword::False)) => Ok(B::leaf(Expr::Bool(false))),
            Some(Kind::Kw(Keyword::Null)) => Ok(B::leaf(Expr::Null)),
            Some(Kind::Kw(Keyword::Undefined)) => Ok(B::leaf(Expr::Undefined)),
            Some(Kind::Kw(Keyword::This)) => Ok(B::leaf(Expr::This)),
            Some(Kind::Kw(Keyword::Function)) => {
                let name = if self.peek() == Some(Kind::Ident) {
                    Some(self.expect_ident::<B>()?)
                } else {
                    None
                };
                let def = self.function_rest::<B>(name)?;
                Ok(B::function_expr(def))
            }
            Some(Kind::Op(Op::LParen)) => {
                let e = self.expression::<B>()?;
                self.expect_op(Op::RParen)?;
                Ok(e)
            }
            Some(Kind::Op(Op::LBrace)) => {
                let mut props = B::List::default();
                if !self.eat_op(Op::RBrace) {
                    loop {
                        let key = match self.bump() {
                            Some(t) if matches!(t.kind, Kind::Ident | Kind::Str | Kind::Num) => {
                                B::key(self, t)
                            }
                            other => {
                                let other = self.tok(other);
                                return Err(self.err(format!("bad object key {other:?}")));
                            }
                        };
                        self.expect_op(Op::Colon)?;
                        push(&mut props, (key, self.expression::<B>()?));
                        if self.eat_op(Op::RBrace) {
                            break;
                        }
                        self.expect_op(Op::Comma)?;
                    }
                }
                Ok(B::object(props))
            }
            Some(Kind::Op(Op::LBracket)) => {
                let mut items = B::List::default();
                if !self.eat_op(Op::RBracket) {
                    loop {
                        push(&mut items, self.expression::<B>()?);
                        if self.eat_op(Op::RBracket) {
                            break;
                        }
                        self.expect_op(Op::Comma)?;
                    }
                }
                Ok(B::array(items))
            }
            _ => {
                let other = self.tok(tok);
                Err(self.err(format!("unexpected token {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_var_and_arithmetic_precedence() {
        let prog = parse("var x = 1 + 2 * 3;").unwrap();
        let Stmt::Var(
            name,
            Some(Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            }),
        ) = &prog.body[0]
        else {
            panic!("{:?}", prog.body[0]);
        };
        assert_eq!(name.as_str(), "x");
        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_member_call_chain() {
        let prog = parse("document.body.appendChild(el);").unwrap();
        let Stmt::Expr(Expr::Call { callee, args }) = &prog.body[0] else {
            panic!();
        };
        assert_eq!(args.len(), 1);
        assert!(matches!(**callee, Expr::Member(_, ref p) if p.as_str() == "appendChild"));
    }

    #[test]
    fn parses_new_with_member_constructor() {
        let prog = parse("var x = new XMLHttpRequest(); var y = new ns.Thing(1);").unwrap();
        assert!(matches!(
            &prog.body[0],
            Stmt::Var(_, Some(Expr::New { args, .. })) if args.is_empty()
        ));
        assert!(matches!(
            &prog.body[1],
            Stmt::Var(_, Some(Expr::New { args, .. })) if args.len() == 1
        ));
    }

    #[test]
    fn parses_function_decl_and_expr() {
        let prog =
            parse("function f(a, b) { return a + b; } var g = function() { return 1; };").unwrap();
        let Stmt::FunctionDecl(def) = &prog.body[0] else {
            panic!()
        };
        assert_eq!(def.name.map(Atom::as_str), Some("f"));
        assert_eq!(
            def.params.iter().map(|p| p.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert!(matches!(
            &prog.body[1],
            Stmt::Var(_, Some(Expr::Function(_)))
        ));
    }

    #[test]
    fn parses_control_flow() {
        parse("if (x) { y(); } else if (z) { w(); } else { v(); }").unwrap();
        parse("while (i < 10) { i = i + 1; }").unwrap();
        parse("for (var i = 0; i < 3; i++) { f(i); }").unwrap();
        parse("for (;;) { break; }").unwrap();
        parse("while (1) { continue; }").unwrap();
    }

    #[test]
    fn parses_compound_assign_and_incdec() {
        let prog = parse("x += 2; y.count++; --z;").unwrap();
        assert!(matches!(
            &prog.body[0],
            Stmt::Expr(Expr::Assign {
                op: Some(BinOp::Add),
                ..
            })
        ));
        assert!(matches!(
            &prog.body[1],
            Stmt::Expr(Expr::IncDec {
                postfix: true,
                is_inc: true,
                ..
            })
        ));
        assert!(matches!(
            &prog.body[2],
            Stmt::Expr(Expr::IncDec {
                postfix: false,
                is_inc: false,
                ..
            })
        ));
    }

    #[test]
    fn parses_literals() {
        parse("var o = { a: 1, 'b c': 2, 3: x }; var arr = [1, 'two', f()];").unwrap();
        parse("var t = cond ? a : b;").unwrap();
        parse("var n = -x + !y; var ty = typeof z;").unwrap();
    }

    #[test]
    fn parses_logical_and_equality() {
        parse("if (a == null && b !== undefined || !c) { d(); }").unwrap();
    }

    #[test]
    fn index_and_assignment_targets() {
        let prog = parse("obj['key'] = 1; obj.prop = 2; arr[0] = 3;").unwrap();
        assert_eq!(prog.body.len(), 3);
        assert!(matches!(
            &prog.body[0],
            Stmt::Expr(Expr::Assign {
                place: Place::Index(..),
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse("var ;").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("if x { }").is_err());
        assert!(parse("function () {}").is_err(), "decl needs a name");
        assert!(parse("1 = 2;").is_err(), "bad assignment target");
        assert!(parse("{ unterminated").is_err());
    }

    #[test]
    fn this_in_methods() {
        parse("var o = { m: function() { return this.x; } };").unwrap();
    }

    #[test]
    fn function_bodies_parse_on_first_call() {
        // Two bundles of helpers, as the web generator emits them: the
        // script calls one bundle and one of its helpers.
        let mut src = String::new();
        for bundle in ["used", "unused"] {
            src.push_str(&format!("function {bundle}() {{\n"));
            for i in 0..8 {
                src.push_str(&format!("  function helper{i}(x) {{ return x + {i}; }}\n"));
            }
            src.push_str("  return helper3;\n}\n");
        }
        src.push_str("var x = used()(1);");
        let decls = |stmts: &[Stmt]| -> Vec<Arc<FunctionDef>> {
            let decls = stmts.iter().filter_map(|s| match s {
                Stmt::FunctionDecl(def) => Some(Arc::clone(def)),
                _ => None,
            });
            decls.collect()
        };
        let runs: [fn(&Program) -> f64; 2] = [
            |program| {
                let mut interp = crate::Interpreter::new();
                interp.run(program).unwrap();
                interp.get_global("x").to_number()
            },
            |program| {
                let mut vm = crate::Interpreter::new();
                crate::run_chunk(&mut vm, &crate::compile(program).unwrap()).unwrap();
                vm.get_global("x").to_number()
            },
        ];
        for run in runs {
            let program = parse(&src).unwrap();
            let [used, unused] = &decls(&program.body)[..] else {
                panic!("two bundles");
            };
            assert!(used.body.parsed().is_none() && unused.body.parsed().is_none());
            assert_eq!(run(&program), 4.0);
            assert!(unused.body.parsed().is_none(), "never called");
            let helpers = decls(used.body.parsed().expect("called once"));
            let parsed: Vec<bool> = helpers.iter().map(|h| h.body.parsed().is_some()).collect();
            assert_eq!(parsed, (0..8).map(|i| i == 3).collect::<Vec<_>>());
        }
    }
}
