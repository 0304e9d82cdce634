//! Syntax tree for the mini-JS language.
//!
//! Identifiers and property names are interned [`Atom`]s, so a parsed
//! [`Program`] carries no owned identifier strings and comparisons during
//! interpretation are `u32` equality. Function definitions are `Arc`-shared
//! (not `Rc`): the compilation cache hands the *same* parsed program to every
//! worker thread, so the tree must be `Send + Sync`.
//!
//! A function's statements are built on its first call, not at parse time:
//! the parser checks the body's syntax and keeps it as a [`Body`], a span of
//! the script's shared source. Scripts ship far more functions than a visit
//! calls, so most bodies never get a tree.

use bfu_util::Atom;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Binary arithmetic/comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (number addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==` (loose: `null == undefined`)
    Eq,
    /// `!=`
    Ne,
    /// `===`
    StrictEq,
    /// `!==`
    StrictNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Short-circuiting logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalOp {
    /// `&&`
    And,
    /// `||`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `typeof`
    Typeof,
}

/// Assignment target: a variable, member, or index place.
#[derive(Debug, Clone, PartialEq)]
pub enum Place {
    /// `x = ...`
    Var(Atom),
    /// `obj.prop = ...`
    Member(Box<Expr>, Atom),
    /// `obj[key] = ...`
    Index(Box<Expr>, Box<Expr>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Num(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// `null`
    Null,
    /// `undefined`
    Undefined,
    /// Variable reference.
    Ident(Atom),
    /// `this`
    This,
    /// `obj.prop`
    Member(Box<Expr>, Atom),
    /// `obj[key]`
    Index(Box<Expr>, Box<Expr>),
    /// Call. When the callee is a `Member`, the receiver becomes `this`.
    Call {
        /// Callee expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new Ctor(args)`
    New {
        /// Constructor expression.
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Assignment, optionally compound (`+=` carries `Some(BinOp::Add)`).
    Assign {
        /// Where to store.
        place: Place,
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// Prefix/postfix `++`/`--` desugared: `is_inc`, returns the *old* value
    /// when `postfix`.
    IncDec {
        /// The place mutated.
        place: Place,
        /// `true` for `++`.
        is_inc: bool,
        /// `true` for postfix position.
        postfix: bool,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Short-circuit logical operation.
    Logical {
        /// Operator.
        op: LogicalOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Ternary conditional.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Then branch.
        then: Box<Expr>,
        /// Else branch.
        otherwise: Box<Expr>,
    },
    /// Function expression (closure).
    Function(Arc<FunctionDef>),
    /// Object literal.
    ObjectLit(Vec<(Atom, Expr)>),
    /// Array literal.
    ArrayLit(Vec<Expr>),
}

/// A function definition (shared between declaration and expression forms).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Optional name (for declarations and recursion).
    pub name: Option<Atom>,
    /// Parameter names.
    pub params: Vec<Atom>,
    /// Body statements, parsed on first use.
    pub body: Body,
}

/// A function body: a span of the script's source whose statements are
/// parsed on first use, once, by whichever thread asks first.
///
/// The parser has already checked the span's syntax at the same depth, so
/// that parse cannot fail. Functions nested in the body are deferred again.
/// `Debug` and `PartialEq` see the statements, and so parse the body.
#[derive(Clone)]
pub struct Body {
    /// The whole script's source, shared by every body in it.
    src: Arc<[u8]>,
    /// Bytes from `{` through `}`.
    span: Range<u32>,
    /// Line of the `{`.
    line: u32,
    /// Parser depth at the body, so the depth guard trips where it did.
    depth: u32,
    stmts: OnceLock<Vec<Stmt>>,
}

impl Body {
    /// A body over `span` of `src`, opened on `line` at parser `depth`;
    /// `stmts` when the parser built them already.
    pub(crate) fn new(
        src: Arc<[u8]>,
        span: Range<u32>,
        line: u32,
        depth: u32,
        stmts: Option<Vec<Stmt>>,
    ) -> Body {
        Body {
            src,
            span,
            line,
            depth,
            stmts: stmts.map_or_else(OnceLock::new, OnceLock::from),
        }
    }

    /// The statements, parsing them on first use (thread-safe, memoized).
    pub fn stmts(&self) -> &[Stmt] {
        self.stmts.get_or_init(|| {
            crate::parser::parse_body(&self.src, self.span.clone(), self.line, self.depth)
        })
    }

    /// The statements, if some use has already parsed them.
    pub fn parsed(&self) -> Option<&[Stmt]> {
        self.stmts.get().map(Vec::as_slice)
    }

    /// The shared source the body is a span of.
    #[cfg(test)]
    pub(crate) fn source(&self) -> &Arc<[u8]> {
        &self.src
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.stmts(), f)
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.stmts() == other.stmts()
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Expression statement.
    Expr(Expr),
    /// `var name = init;`
    Var(Atom, Option<Expr>),
    /// `function name(...) { ... }`
    FunctionDecl(Arc<FunctionDef>),
    /// `return expr;`
    Return(Option<Expr>),
    /// `if (cond) { ... } else { ... }`
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        otherwise: Vec<Stmt>,
    },
    /// `while (cond) { ... }`
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; update) { ... }`
    For {
        /// Initializer (a statement: `var` or expression).
        init: Option<Box<Stmt>>,
        /// Condition (default true).
        cond: Option<Expr>,
        /// Update expression.
        update: Option<Expr>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Bare block.
    Block(Vec<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A parsed program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements.
    pub body: Vec<Stmt>,
}
