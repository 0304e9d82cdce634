//! Lexer for the mini-JS language.
//!
//! One pass over the source that dispatches on each token's lead byte;
//! operators are matched on up to three bytes of lookahead, longest first.
//!
//! A [`Token`] carries no value, only its [`Kind`] and where its text lies:
//! line, byte offset and byte length. The lexer rejects an unclosed string
//! or comment, a number with two dots and a stray character, but it interns
//! no name, copies no string and parses no number. The parser reads a value
//! from the source only when it builds a node that holds one, so a function
//! body it only checks costs one scan and a walk over integers.

use bfu_util::Atom;
use std::fmt;

/// Keywords of the language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `var`
    Var,
    /// `function`
    Function,
    /// `return`
    Return,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `true`
    True,
    /// `false`
    False,
    /// `null`
    Null,
    /// `undefined`
    Undefined,
    /// `new`
    New,
    /// `this`
    This,
    /// `typeof`
    Typeof,
    /// `break`
    Break,
    /// `continue`
    Continue,
}

impl Keyword {
    fn from_bytes(word: &[u8]) -> Option<Keyword> {
        Some(match word {
            b"var" => Keyword::Var,
            b"function" => Keyword::Function,
            b"return" => Keyword::Return,
            b"if" => Keyword::If,
            b"else" => Keyword::Else,
            b"while" => Keyword::While,
            b"for" => Keyword::For,
            b"true" => Keyword::True,
            b"false" => Keyword::False,
            b"null" => Keyword::Null,
            b"undefined" => Keyword::Undefined,
            b"new" => Keyword::New,
            b"this" => Keyword::This,
            b"typeof" => Keyword::Typeof,
            b"break" => Keyword::Break,
            b"continue" => Keyword::Continue,
            _ => return None,
        })
    }
}

/// An operator or punctuation mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `===`
    StrictEq,
    /// `!==`
    StrictNe,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
    /// `/=`
    DivAssign,
    /// `++`
    Inc,
    /// `--`
    Dec,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Assign,
    /// `!`
    Not,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `?`
    Question,
}

impl Op {
    /// The operator's source text.
    pub fn text(self) -> &'static str {
        match self {
            Op::StrictEq => "===",
            Op::StrictNe => "!==",
            Op::Eq => "==",
            Op::Ne => "!=",
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::And => "&&",
            Op::Or => "||",
            Op::AddAssign => "+=",
            Op::SubAssign => "-=",
            Op::MulAssign => "*=",
            Op::DivAssign => "/=",
            Op::Inc => "++",
            Op::Dec => "--",
            Op::Add => "+",
            Op::Sub => "-",
            Op::Mul => "*",
            Op::Div => "/",
            Op::Rem => "%",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Assign => "=",
            Op::Not => "!",
            Op::LParen => "(",
            Op::RParen => ")",
            Op::LBrace => "{",
            Op::RBrace => "}",
            Op::LBracket => "[",
            Op::RBracket => "]",
            Op::Comma => ",",
            Op::Semi => ";",
            Op::Dot => ".",
            Op::Colon => ":",
            Op::Question => "?",
        }
    }
}

/// What a token is, without its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier.
    Ident,
    /// Keyword.
    Kw(Keyword),
    /// Numeric literal: a digit, then digits and at most one `.`.
    Num,
    /// String literal, quotes and escapes included.
    Str,
    /// Operator or punctuation.
    Op(Op),
}

/// A token: its kind and where its text lies in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: Kind,
    /// 1-based source line.
    pub line: u32,
    /// Byte offset of the token's first byte.
    pub offset: u32,
    /// Length of the token's text in bytes.
    pub len: u32,
}

/// A token with its value, as a parse error prints it.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier (interned).
    Ident(Atom),
    /// Keyword.
    Kw(Keyword),
    /// Numeric literal.
    Num(f64),
    /// String literal (content, unescaped).
    Str(String),
    /// Operator or punctuation, as a short string (`"=="`, `"{"`, ...).
    Op(&'static str),
}

/// Lexer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description.
    pub message: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize mini-JS source. A source longer than `u32::MAX` bytes is an
/// error, since token offsets and lengths are `u32`.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    lex_at(src, 1, 0)
}

/// Tokenize `src` as the part of a larger source that starts on line
/// `first_line` at byte `base`: token lines and offsets count from there.
pub(crate) fn lex_at(src: &str, first_line: u32, base: u32) -> Result<Vec<Token>, LexError> {
    if u32::try_from(src.len()).map_or(true, |n| n.checked_add(base).is_none()) {
        return Err(LexError {
            message: "source longer than u32::MAX bytes".into(),
            line: first_line,
        });
    }
    let bytes = src.as_bytes();
    // Past the end reads as NUL, which no dispatch arm below matches.
    let at = |k: usize| bytes.get(k).copied().unwrap_or(0);
    // Bundle-shaped scripts run about 2.6 bytes per token.
    let mut out = Vec::with_capacity(src.len() / 2);
    let mut i = 0;
    let mut line = first_line;
    while i < bytes.len() {
        let start = i;
        let kind = match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' | b'\x0c' => {
                i += 1;
                continue;
            }
            b'/' if at(i + 1) == b'/' => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len() - i);
                continue;
            }
            b'/' if at(i + 1) == b'*' => {
                let body = &bytes[i + 2..];
                let Some(end) = body.windows(2).position(|w| w == b"*/") else {
                    return Err(LexError {
                        message: "unterminated comment".into(),
                        line,
                    });
                };
                line += body[..end].iter().filter(|&&b| b == b'\n').count() as u32;
                i += end + 4;
                continue;
            }
            quote @ (b'"' | b'\'') => {
                i += 1;
                loop {
                    i += bytes[i..]
                        .iter()
                        .position(|&b| b == quote || b == b'\\' || b == b'\n')
                        .unwrap_or(bytes.len() - i);
                    let message = match at(i) {
                        b if b == quote => {
                            i += 1;
                            break;
                        }
                        // An escape stands for the character after the
                        // backslash, whatever it is.
                        b'\\' => match src[i + 1..].chars().next() {
                            Some(esc) => {
                                i += 1 + esc.len_utf8();
                                continue;
                            }
                            None => "unterminated string",
                        },
                        b'\n' => "newline in string",
                        _ => "unterminated string",
                    };
                    return Err(LexError {
                        message: message.into(),
                        line,
                    });
                }
                Kind::Str
            }
            b'0'..=b'9' => {
                // A run of digits and dots that starts with a digit parses
                // as an `f64` exactly when it has at most one dot.
                let mut dots = 0;
                while let b @ (b'0'..=b'9' | b'.') = at(i) {
                    dots += usize::from(b == b'.');
                    i += 1;
                }
                if dots > 1 {
                    return Err(LexError {
                        message: format!("bad number {:?}", &src[start..i]),
                        line,
                    });
                }
                Kind::Num
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                while matches!(at(i), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$') {
                    i += 1;
                }
                Keyword::from_bytes(&bytes[start..i]).map_or(Kind::Ident, Kind::Kw)
            }
            lead => {
                let op = match (lead, at(i + 1), at(i + 2)) {
                    (b'=', b'=', b'=') => Op::StrictEq,
                    (b'!', b'=', b'=') => Op::StrictNe,
                    (b'=', b'=', _) => Op::Eq,
                    (b'!', b'=', _) => Op::Ne,
                    (b'<', b'=', _) => Op::Le,
                    (b'>', b'=', _) => Op::Ge,
                    (b'&', b'&', _) => Op::And,
                    (b'|', b'|', _) => Op::Or,
                    (b'+', b'=', _) => Op::AddAssign,
                    (b'-', b'=', _) => Op::SubAssign,
                    (b'*', b'=', _) => Op::MulAssign,
                    (b'/', b'=', _) => Op::DivAssign,
                    (b'+', b'+', _) => Op::Inc,
                    (b'-', b'-', _) => Op::Dec,
                    (b'+', ..) => Op::Add,
                    (b'-', ..) => Op::Sub,
                    (b'*', ..) => Op::Mul,
                    (b'/', ..) => Op::Div,
                    (b'%', ..) => Op::Rem,
                    (b'<', ..) => Op::Lt,
                    (b'>', ..) => Op::Gt,
                    (b'=', ..) => Op::Assign,
                    (b'!', ..) => Op::Not,
                    (b'(', ..) => Op::LParen,
                    (b')', ..) => Op::RParen,
                    (b'{', ..) => Op::LBrace,
                    (b'}', ..) => Op::RBrace,
                    (b'[', ..) => Op::LBracket,
                    (b']', ..) => Op::RBracket,
                    (b',', ..) => Op::Comma,
                    (b';', ..) => Op::Semi,
                    (b'.', ..) => Op::Dot,
                    (b':', ..) => Op::Colon,
                    (b'?', ..) => Op::Question,
                    _ => {
                        let c = src[i..].chars().next().unwrap_or(char::from(lead));
                        return Err(LexError {
                            message: format!("unexpected character {c:?}"),
                            line,
                        });
                    }
                };
                i += op.text().len();
                Kind::Op(op)
            }
        };
        // The length check above keeps both within `u32`.
        out.push(Token {
            kind,
            line,
            offset: base + start as u32,
            len: (i - start) as u32,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};

    fn kinds(src: &str) -> Vec<Kind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    /// The expression of each statement of `src`, with the values the
    /// parser read from the source.
    fn values(src: &str) -> Vec<Expr> {
        let program = crate::parser::parse(src).unwrap();
        let expr = |stmt| match stmt {
            Stmt::Expr(e) => e,
            other => panic!("{other:?}"),
        };
        program.body.into_iter().map(expr).collect()
    }

    fn err(message: &str, line: u32) -> Result<Vec<Token>, LexError> {
        Err(LexError {
            message: message.into(),
            line,
        })
    }

    fn id(s: &str) -> Expr {
        Expr::Ident(Atom::intern(s))
    }

    #[test]
    fn tokens_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Token>(), 16);
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("var x = 1.5;"),
            vec![
                Kind::Kw(Keyword::Var),
                Kind::Ident,
                Kind::Op(Op::Assign),
                Kind::Num,
                Kind::Op(Op::Semi),
            ]
        );
        assert_eq!(
            crate::parser::parse("var x = 1.5;").unwrap().body,
            vec![Stmt::Var(Atom::intern("x"), Some(Expr::Num(1.5)))]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            kinds("a === b == c = d"),
            vec![
                Kind::Ident,
                Kind::Op(Op::StrictEq),
                Kind::Ident,
                Kind::Op(Op::Eq),
                Kind::Ident,
                Kind::Op(Op::Assign),
                Kind::Ident,
            ]
        );
        assert_eq!(kinds("i++"), vec![Kind::Ident, Kind::Op(Op::Inc)]);
    }

    #[test]
    fn strings_with_escapes() {
        let src = r#"'a\'b'; "c\nd";"#;
        let spans: Vec<(Kind, u32, u32)> = lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.offset, t.len))
            .collect();
        let semi = Kind::Op(Op::Semi);
        assert_eq!(
            spans,
            vec![
                (Kind::Str, 0, 6),
                (semi, 6, 1),
                (Kind::Str, 8, 6),
                (semi, 14, 1)
            ]
        );
        assert_eq!(
            values(src),
            vec![Expr::Str("a'b".into()), Expr::Str("c\nd".into())]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("a // comment\n/* block */ b").unwrap();
        let want = [(Kind::Ident, 1, 0, 1), (Kind::Ident, 2, 25, 1)];
        let got: Vec<_> = toks
            .iter()
            .map(|t| (t.kind, t.line, t.offset, t.len))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn keywords_recognized() {
        assert_eq!(
            kinds("function typeof new"),
            vec![
                Kind::Kw(Keyword::Function),
                Kind::Kw(Keyword::Typeof),
                Kind::Kw(Keyword::New),
            ]
        );
        // A keyword's prefix or extension is a name.
        assert_eq!(kinds("fun newer"), vec![Kind::Ident, Kind::Ident]);
    }

    #[test]
    fn dollar_identifiers() {
        let lens: Vec<(Kind, u32)> = lex("$x _y")
            .unwrap()
            .iter()
            .map(|t| (t.kind, t.len))
            .collect();
        assert_eq!(lens, vec![(Kind::Ident, 2), (Kind::Ident, 2)]);
        assert_eq!(values("$x; _y;"), vec![id("$x"), id("_y")]);
    }

    #[test]
    fn lead_byte_edge_cases() {
        let (ident, num) = (Kind::Ident, Kind::Num);
        let op = Kind::Op;
        let ok = |toks: Vec<(Kind, u32, u32, u32)>| {
            Ok(toks
                .into_iter()
                .map(|(kind, line, offset, len)| Token {
                    kind,
                    line,
                    offset,
                    len,
                })
                .collect())
        };
        let cases: Vec<(&str, Result<Vec<Token>, LexError>)> = vec![
            (
                "a/b",
                ok(vec![
                    (ident, 1, 0, 1),
                    (op(Op::Div), 1, 1, 1),
                    (ident, 1, 2, 1),
                ]),
            ),
            (
                "a /= 2",
                ok(vec![
                    (ident, 1, 0, 1),
                    (op(Op::DivAssign), 1, 2, 2),
                    (num, 1, 5, 1),
                ]),
            ),
            ("a // c\nb", ok(vec![(ident, 1, 0, 1), (ident, 2, 7, 1)])),
            ("/**/x", ok(vec![(ident, 1, 4, 1)])),
            ("/*/", err("unterminated comment", 1)),
            (
                "x ===",
                ok(vec![(ident, 1, 0, 1), (op(Op::StrictEq), 1, 2, 3)]),
            ),
            (
                "x !==",
                ok(vec![(ident, 1, 0, 1), (op(Op::StrictNe), 1, 2, 3)]),
            ),
            (
                "a<=b>=c",
                ok(vec![
                    (ident, 1, 0, 1),
                    (op(Op::Le), 1, 1, 2),
                    (ident, 1, 3, 1),
                    (op(Op::Ge), 1, 4, 2),
                    (ident, 1, 6, 1),
                ]),
            ),
            (".5", ok(vec![(op(Op::Dot), 1, 0, 1), (num, 1, 1, 1)])),
            ("1.2.3", err(r#"bad number "1.2.3""#, 1)),
            ("a\r\n\x0cb", ok(vec![(ident, 1, 0, 1), (ident, 2, 4, 1)])),
            (r"'a\qb'", ok(vec![(Kind::Str, 1, 0, 6)])),
            // An escaped newline belongs to the string and starts no line.
            (
                "'a\\\nb' c",
                ok(vec![(Kind::Str, 1, 0, 6), (ident, 1, 7, 1)]),
            ),
            ("'a\nb'", err("newline in string", 1)),
            ("'a\\", err("unterminated string", 1)),
        ];
        for (src, want) in cases {
            assert_eq!(lex(src), want, "{src:?}");
        }
        assert_eq!(values(r"'a\qb';"), vec![Expr::Str("aqb".into())]);
        // A slice of a larger source counts lines and offsets from where
        // the slice starts.
        assert_eq!(
            lex_at("{ x\n y }", 5, 10),
            ok(vec![
                (op(Op::LBrace), 5, 10, 1),
                (ident, 5, 12, 1),
                (ident, 6, 15, 1),
                (op(Op::RBrace), 6, 17, 1),
            ])
        );
        assert_eq!(lex_at("{\n @", 5, 10), err("unexpected character '@'", 6));
    }

    #[test]
    fn non_ascii_text_is_kept_whole() {
        let src = r#"'é'; "日本"; '\é'; 'a\日b';"#;
        let lens: Vec<u32> = lex(src)
            .unwrap()
            .iter()
            .filter(|t| t.kind == Kind::Str)
            .map(|t| t.len)
            .collect();
        assert_eq!(lens, vec![4, 8, 5, 8]);
        assert_eq!(
            values(src),
            vec![
                Expr::Str("é".into()),
                Expr::Str("日本".into()),
                Expr::Str("é".into()),
                Expr::Str("a日b".into()),
            ]
        );
        assert_eq!(
            lex("var x;\nvar é = 1;"),
            err("unexpected character 'é'", 2)
        );
    }

    #[test]
    fn errors_carry_line() {
        let err = lex("ok\n  @").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(lex("'unterminated").is_err());
        assert!(lex("/* open").is_err());
    }

    /// Counting dots decides what `str::parse::<f64>` would: over the
    /// digits `0 1 9` and `.`, every text of up to six characters that
    /// starts with a digit lexes as one number exactly when it parses.
    #[test]
    fn number_rule_matches_f64_parse() {
        let mut texts = vec![String::new()];
        let mut checked = 0;
        for _ in 0..6 {
            texts = texts
                .iter()
                .flat_map(|t| ['0', '1', '9', '.'].map(|c| format!("{t}{c}")))
                .collect();
            for text in texts.iter().filter(|t| !t.starts_with('.')) {
                let whole = Token {
                    kind: Kind::Num,
                    line: 1,
                    offset: 0,
                    len: text.len() as u32,
                };
                match text.parse::<f64>() {
                    Ok(n) => {
                        assert_eq!(lex(text), Ok(vec![whole]), "{text:?}");
                        assert_eq!(values(&format!("{text};")), vec![Expr::Num(n)]);
                    }
                    Err(_) => assert_eq!(lex(text), err(&format!("bad number {text:?}"), 1)),
                }
                checked += 1;
            }
        }
        // Three lead digits, then any of the four characters.
        assert_eq!(checked, (0..6).map(|n| 3 * 4usize.pow(n)).sum::<usize>());
        // A run too long for an `f64` reads as infinity, not as an error.
        assert_eq!(
            values(&format!("{};", "9".repeat(400))),
            vec![Expr::Num(f64::INFINITY)]
        );
    }

    /// Offsets and lengths are `u32`: a source that would end past
    /// `u32::MAX` bytes into the whole is refused, with no 4 GiB text.
    #[test]
    fn length_cap_keeps_offsets_in_u32() {
        let refused = lex_at("ab", 1, u32::MAX - 1).unwrap_err();
        assert_eq!(refused.message, "source longer than u32::MAX bytes");
        let last = lex_at("ab", 1, u32::MAX - 2).unwrap();
        let want = Token {
            kind: Kind::Ident,
            line: 1,
            offset: u32::MAX - 2,
            len: 2,
        };
        assert_eq!(last, vec![want]);
    }
}
