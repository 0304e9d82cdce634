//! Recursive-descent parser for the mini-JS language.
//!
//! Standard precedence-climbing expression parser; statements cover the
//! subset `bfu-webgen` emits and a bit more (so hand-written page scripts in
//! tests and examples are pleasant to write).

use crate::ast::*;
use crate::token::{lex, Keyword, SpannedTok, Tok};
use bfu_util::Atom;
use std::fmt;
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

/// Parse a program.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut body = Vec::new();
    while p.peek().is_some() {
        body.push(p.statement()?);
    }
    Ok(Program { body })
}

/// The node a binary operator builds.
#[derive(Clone, Copy)]
enum Infix {
    Logical(LogicalOp),
    Binary(BinOp),
}

/// The binary operators with their precedence, loosest first.
const BINARY: [(&str, u8, Infix); 15] = [
    ("||", 0, Infix::Logical(LogicalOp::Or)),
    ("&&", 1, Infix::Logical(LogicalOp::And)),
    ("==", 2, Infix::Binary(BinOp::Eq)),
    ("!=", 2, Infix::Binary(BinOp::Ne)),
    ("===", 2, Infix::Binary(BinOp::StrictEq)),
    ("!==", 2, Infix::Binary(BinOp::StrictNe)),
    ("<", 3, Infix::Binary(BinOp::Lt)),
    ("<=", 3, Infix::Binary(BinOp::Le)),
    (">", 3, Infix::Binary(BinOp::Gt)),
    (">=", 3, Infix::Binary(BinOp::Ge)),
    ("+", 4, Infix::Binary(BinOp::Add)),
    ("-", 4, Infix::Binary(BinOp::Sub)),
    ("*", 5, Infix::Binary(BinOp::Mul)),
    ("/", 5, Infix::Binary(BinOp::Div)),
    ("%", 5, Infix::Binary(BinOp::Rem)),
];

/// Maximum grammar-recursion depth. Each level costs about ten native
/// stack frames (assignment down to primary), so this bounds parser stack
/// use far below any thread's stack while accepting any plausible real
/// script.
const MAX_PARSE_DEPTH: u32 = 128;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// Current grammar-recursion depth (statements, expressions, unary
    /// chains). Deeply nested hostile source (`((((…`, `[[[[…`, `!!!!…`)
    /// must fail with a [`ParseError`], not overflow the native stack.
    depth: u32,
}

impl Parser {
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).map_or(0, |t| t.line)
    }

    /// Move the current token out: the parser never reads a consumed token
    /// again, only its line.
    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get_mut(self.pos);
        self.pos += 1;
        t.map(|t| std::mem::replace(&mut t.tok, Tok::Op("")))
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line(),
        }
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Op(o)) if *o == op) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &str) -> Result<(), ParseError> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{op}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: Keyword) -> bool {
        if matches!(self.peek(), Some(Tok::Kw(k)) if *k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<Atom, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let stmt = self.statement_inner();
        self.depth -= 1;
        stmt
    }

    fn statement_inner(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Kw(Keyword::Var)) => {
                self.bump();
                let name = self.expect_ident()?;
                let init = if self.eat_op("=") {
                    Some(self.expression()?)
                } else {
                    None
                };
                self.expect_op(";")?;
                Ok(Stmt::Var(name, init))
            }
            Some(Tok::Kw(Keyword::Function)) => {
                self.bump();
                let name = self.expect_ident()?;
                let def = self.function_rest(Some(name))?;
                Ok(Stmt::FunctionDecl(Arc::new(def)))
            }
            Some(Tok::Kw(Keyword::Return)) => {
                self.bump();
                let value = if matches!(self.peek(), Some(Tok::Op(";"))) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_op(";")?;
                Ok(Stmt::Return(value))
            }
            Some(Tok::Kw(Keyword::If)) => {
                self.bump();
                self.expect_op("(")?;
                let cond = self.expression()?;
                self.expect_op(")")?;
                let then = self.block_or_single()?;
                let otherwise = if self.eat_kw(Keyword::Else) {
                    if matches!(self.peek(), Some(Tok::Kw(Keyword::If))) {
                        vec![self.statement()?]
                    } else {
                        self.block_or_single()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    otherwise,
                })
            }
            Some(Tok::Kw(Keyword::While)) => {
                self.bump();
                self.expect_op("(")?;
                let cond = self.expression()?;
                self.expect_op(")")?;
                let body = self.block_or_single()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Tok::Kw(Keyword::For)) => {
                self.bump();
                self.expect_op("(")?;
                let init = if self.eat_op(";") {
                    None
                } else if matches!(self.peek(), Some(Tok::Kw(Keyword::Var))) {
                    Some(Box::new(self.statement()?)) // consumes its ';'
                } else {
                    let e = self.expression()?;
                    self.expect_op(";")?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if self.eat_op(";") {
                    None
                } else {
                    let c = self.expression()?;
                    self.expect_op(";")?;
                    Some(c)
                };
                let update = if matches!(self.peek(), Some(Tok::Op(")"))) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_op(")")?;
                let body = self.block_or_single()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    update,
                    body,
                })
            }
            Some(Tok::Kw(Keyword::Break)) => {
                self.bump();
                self.expect_op(";")?;
                Ok(Stmt::Break)
            }
            Some(Tok::Kw(Keyword::Continue)) => {
                self.bump();
                self.expect_op(";")?;
                Ok(Stmt::Continue)
            }
            Some(Tok::Op("{")) => Ok(Stmt::Block(self.block()?)),
            _ => {
                let e = self.expression()?;
                self.expect_op(";")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_op("{")?;
        let mut stmts = Vec::new();
        while !self.eat_op("}") {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if matches!(self.peek(), Some(Tok::Op("{"))) {
            self.block()
        } else {
            Ok(vec![self.statement()?])
        }
    }

    fn function_rest(&mut self, name: Option<Atom>) -> Result<FunctionDef, ParseError> {
        self.expect_op("(")?;
        let mut params = Vec::new();
        if !self.eat_op(")") {
            loop {
                params.push(self.expect_ident()?);
                if self.eat_op(")") {
                    break;
                }
                self.expect_op(",")?;
            }
        }
        let body = self.block()?;
        Ok(FunctionDef { name, params, body })
    }

    // ---- expressions, precedence climbing ----

    fn expression(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let expr = self.assignment_inner();
        self.depth -= 1;
        expr
    }

    fn assignment_inner(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.conditional()?;
        let op = match self.peek() {
            Some(Tok::Op("=")) => None,
            Some(Tok::Op("+=")) => Some(BinOp::Add),
            Some(Tok::Op("-=")) => Some(BinOp::Sub),
            Some(Tok::Op("*=")) => Some(BinOp::Mul),
            Some(Tok::Op("/=")) => Some(BinOp::Div),
            _ => return Ok(lhs),
        };
        self.bump();
        let place = match lhs {
            Expr::Ident(name) => Place::Var(name),
            Expr::Member(obj, prop) => Place::Member(obj, prop),
            Expr::Index(obj, key) => Place::Index(obj, key),
            other => return Err(self.err(format!("invalid assignment target {other:?}"))),
        };
        let value = Box::new(self.assignment()?);
        Ok(Expr::Assign { place, op, value })
    }

    fn conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_op("?") {
            let then = self.assignment()?;
            self.expect_op(":")?;
            let otherwise = self.assignment()?;
            Ok(Expr::Cond {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            })
        } else {
            Ok(cond)
        }
    }

    /// Precedence climbing: a run of binary operators that bind at least as
    /// tightly as `min`, left associative, over unary operands.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let Some(Tok::Op(op)) = self.peek() else {
                return Ok(lhs);
            };
            let Some(&(_, prec, infix)) = BINARY.iter().find(|&&(o, p, _)| o == *op && p >= min)
            else {
                return Ok(lhs);
            };
            self.pos += 1;
            let (lhs_box, rhs) = (Box::new(lhs), Box::new(self.binary(prec + 1)?));
            lhs = match infix {
                Infix::Logical(op) => Expr::Logical {
                    op,
                    lhs: lhs_box,
                    rhs,
                },
                Infix::Binary(op) => Expr::Binary {
                    op,
                    lhs: lhs_box,
                    rhs,
                },
            };
        }
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let expr = self.unary_inner();
        self.depth -= 1;
        expr
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        if self.eat_op("-") {
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(self.unary()?),
            });
        }
        if self.eat_op("!") {
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.unary()?),
            });
        }
        if self.eat_kw(Keyword::Typeof) {
            return Ok(Expr::Unary {
                op: UnaryOp::Typeof,
                expr: Box::new(self.unary()?),
            });
        }
        if self.eat_op("++") || {
            if matches!(self.peek(), Some(Tok::Op("--"))) {
                self.bump();
                let place = self.place_from_postfix()?;
                return Ok(Expr::IncDec {
                    place,
                    is_inc: false,
                    postfix: false,
                });
            }
            false
        } {
            let place = self.place_from_postfix()?;
            return Ok(Expr::IncDec {
                place,
                is_inc: true,
                postfix: false,
            });
        }
        self.postfix()
    }

    fn place_from_postfix(&mut self) -> Result<Place, ParseError> {
        match self.postfix()? {
            Expr::Ident(name) => Ok(Place::Var(name)),
            Expr::Member(obj, prop) => Ok(Place::Member(obj, prop)),
            Expr::Index(obj, key) => Ok(Place::Index(obj, key)),
            other => Err(self.err(format!("invalid ++/-- target {other:?}"))),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.call_member()?;
        loop {
            if matches!(self.peek(), Some(Tok::Op("++")))
                || matches!(self.peek(), Some(Tok::Op("--")))
            {
                let is_inc = matches!(self.peek(), Some(Tok::Op("++")));
                self.bump();
                let place = match expr {
                    Expr::Ident(name) => Place::Var(name),
                    Expr::Member(obj, prop) => Place::Member(obj, prop),
                    Expr::Index(obj, key) => Place::Index(obj, key),
                    other => return Err(self.err(format!("invalid ++/-- target {other:?}"))),
                };
                expr = Expr::IncDec {
                    place,
                    is_inc,
                    postfix: true,
                };
            } else {
                return Ok(expr);
            }
        }
    }

    fn call_member(&mut self) -> Result<Expr, ParseError> {
        let mut expr = if self.eat_kw(Keyword::New) {
            let callee = self.primary()?;
            // member chain before the argument list: new a.b.C(...)
            let callee = self.member_chain_only(callee)?;
            self.expect_op("(")?;
            let args = self.arguments()?;
            Expr::New {
                callee: Box::new(callee),
                args,
            }
        } else {
            self.primary()?
        };
        loop {
            if self.eat_op(".") {
                let prop = self.expect_ident()?;
                expr = Expr::Member(Box::new(expr), prop);
            } else if self.eat_op("[") {
                let key = self.expression()?;
                self.expect_op("]")?;
                expr = Expr::Index(Box::new(expr), Box::new(key));
            } else if self.eat_op("(") {
                let args = self.arguments()?;
                expr = Expr::Call {
                    callee: Box::new(expr),
                    args,
                };
            } else {
                return Ok(expr);
            }
        }
    }

    fn member_chain_only(&mut self, mut expr: Expr) -> Result<Expr, ParseError> {
        while self.eat_op(".") {
            let prop = self.expect_ident()?;
            expr = Expr::Member(Box::new(expr), prop);
        }
        Ok(expr)
    }

    fn arguments(&mut self) -> Result<Vec<Expr>, ParseError> {
        let mut args = Vec::new();
        if self.eat_op(")") {
            return Ok(args);
        }
        loop {
            args.push(self.expression()?);
            if self.eat_op(")") {
                return Ok(args);
            }
            self.expect_op(",")?;
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok(Expr::Num(n)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Kw(Keyword::True)) => Ok(Expr::Bool(true)),
            Some(Tok::Kw(Keyword::False)) => Ok(Expr::Bool(false)),
            Some(Tok::Kw(Keyword::Null)) => Ok(Expr::Null),
            Some(Tok::Kw(Keyword::Undefined)) => Ok(Expr::Undefined),
            Some(Tok::Kw(Keyword::This)) => Ok(Expr::This),
            Some(Tok::Ident(name)) => Ok(Expr::Ident(name)),
            Some(Tok::Kw(Keyword::Function)) => {
                let name = if let Some(Tok::Ident(_)) = self.peek() {
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                let def = self.function_rest(name)?;
                Ok(Expr::Function(Arc::new(def)))
            }
            Some(Tok::Op("(")) => {
                let e = self.expression()?;
                self.expect_op(")")?;
                Ok(e)
            }
            Some(Tok::Op("{")) => {
                let mut props = Vec::new();
                if !self.eat_op("}") {
                    loop {
                        let key = match self.bump() {
                            Some(Tok::Ident(a)) => a,
                            Some(Tok::Str(s)) => Atom::intern(&s),
                            Some(Tok::Num(n)) => Atom::intern(&format!("{n}")),
                            other => return Err(self.err(format!("bad object key {other:?}"))),
                        };
                        self.expect_op(":")?;
                        props.push((key, self.expression()?));
                        if self.eat_op("}") {
                            break;
                        }
                        self.expect_op(",")?;
                    }
                }
                Ok(Expr::ObjectLit(props))
            }
            Some(Tok::Op("[")) => {
                let mut items = Vec::new();
                if !self.eat_op("]") {
                    loop {
                        items.push(self.expression()?);
                        if self.eat_op("]") {
                            break;
                        }
                        self.expect_op(",")?;
                    }
                }
                Ok(Expr::ArrayLit(items))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
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
}
