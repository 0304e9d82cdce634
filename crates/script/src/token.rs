//! Lexer for the mini-JS language.
//!
//! One pass over the source that dispatches on each token's lead byte;
//! operators are matched on up to three bytes of lookahead, longest first.
//!
//! Identifiers are interned into the process-wide atom table, so everything
//! downstream (parser, interpreter, heap) works with `u32` atoms instead of
//! owned strings. Each call resolves names through a map of its own and
//! consults the global table once per distinct name: that table sits behind
//! an `RwLock` that every crawl thread shares, and a bundle-shaped script
//! repeats a few dozen names thousands of times, so interning every
//! occurrence left two crawl threads contending on the lock.

use bfu_util::Atom;
use std::collections::HashMap;
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
    fn from_str(s: &str) -> Option<Keyword> {
        Some(match s {
            "var" => Keyword::Var,
            "function" => Keyword::Function,
            "return" => Keyword::Return,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "while" => Keyword::While,
            "for" => Keyword::For,
            "true" => Keyword::True,
            "false" => Keyword::False,
            "null" => Keyword::Null,
            "undefined" => Keyword::Undefined,
            "new" => Keyword::New,
            "this" => Keyword::This,
            "typeof" => Keyword::Typeof,
            "break" => Keyword::Break,
            "continue" => Keyword::Continue,
            _ => return None,
        })
    }
}

/// A lexical token.
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

/// Token with line info.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    /// The token.
    pub tok: Tok,
    /// 1-based source line.
    pub line: u32,
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

/// Tokenize mini-JS source.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let bytes = src.as_bytes();
    // Past the end reads as NUL, which no dispatch arm below matches.
    let at = |k: usize| bytes.get(k).copied().unwrap_or(0);
    // Bundle-shaped scripts run about 2.6 bytes per token.
    let mut out = Vec::with_capacity(src.len() / 2);
    let mut atoms: HashMap<&str, Atom> = HashMap::new();
    let mut i = 0;
    let mut line = 1u32;
    while i < bytes.len() {
        let start = i;
        let tok = match bytes[i] {
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
                let mut s = String::new();
                loop {
                    let run = bytes[i..]
                        .iter()
                        .position(|&b| b == quote || b == b'\\' || b == b'\n')
                        .unwrap_or(bytes.len() - i);
                    s.push_str(&src[i..i + run]);
                    i += run;
                    let message = match (at(i), src[i..].chars().nth(1)) {
                        (b, _) if b == quote => {
                            i += 1;
                            break;
                        }
                        (b'\\', Some(esc)) => {
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                other => other,
                            });
                            i += 1 + esc.len_utf8();
                            continue;
                        }
                        (b'\n', _) => "newline in string",
                        _ => "unterminated string",
                    };
                    return Err(LexError {
                        message: message.into(),
                        line,
                    });
                }
                Tok::Str(s)
            }
            b'0'..=b'9' => {
                while matches!(at(i), b'0'..=b'9' | b'.') {
                    i += 1;
                }
                let text = &src[start..i];
                Tok::Num(text.parse().map_err(|_| LexError {
                    message: format!("bad number {text:?}"),
                    line,
                })?)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                while matches!(at(i), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' | b'$') {
                    i += 1;
                }
                let word = &src[start..i];
                match Keyword::from_str(word) {
                    Some(kw) => Tok::Kw(kw),
                    None => Tok::Ident(*atoms.entry(word).or_insert_with(|| Atom::intern(word))),
                }
            }
            lead => {
                let op = match (lead, at(i + 1), at(i + 2)) {
                    (b'=', b'=', b'=') => "===",
                    (b'!', b'=', b'=') => "!==",
                    (b'=', b'=', _) => "==",
                    (b'!', b'=', _) => "!=",
                    (b'<', b'=', _) => "<=",
                    (b'>', b'=', _) => ">=",
                    (b'&', b'&', _) => "&&",
                    (b'|', b'|', _) => "||",
                    (b'+', b'=', _) => "+=",
                    (b'-', b'=', _) => "-=",
                    (b'*', b'=', _) => "*=",
                    (b'/', b'=', _) => "/=",
                    (b'+', b'+', _) => "++",
                    (b'-', b'-', _) => "--",
                    (b'+', ..) => "+",
                    (b'-', ..) => "-",
                    (b'*', ..) => "*",
                    (b'/', ..) => "/",
                    (b'%', ..) => "%",
                    (b'<', ..) => "<",
                    (b'>', ..) => ">",
                    (b'=', ..) => "=",
                    (b'!', ..) => "!",
                    (b'(', ..) => "(",
                    (b')', ..) => ")",
                    (b'{', ..) => "{",
                    (b'}', ..) => "}",
                    (b'[', ..) => "[",
                    (b']', ..) => "]",
                    (b',', ..) => ",",
                    (b';', ..) => ";",
                    (b'.', ..) => ".",
                    (b':', ..) => ":",
                    (b'?', ..) => "?",
                    _ => {
                        let c = src[i..].chars().next().unwrap_or(char::from(lead));
                        return Err(LexError {
                            message: format!("unexpected character {c:?}"),
                            line,
                        });
                    }
                };
                i += op.len();
                Tok::Op(op)
            }
        };
        out.push(SpannedTok { tok, line });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("var x = 1.5;"),
            vec![
                Tok::Kw(Keyword::Var),
                Tok::Ident(Atom::intern("x")),
                Tok::Op("="),
                Tok::Num(1.5),
                Tok::Op(";"),
            ]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            toks("a === b == c = d"),
            vec![
                Tok::Ident(Atom::intern("a")),
                Tok::Op("==="),
                Tok::Ident(Atom::intern("b")),
                Tok::Op("=="),
                Tok::Ident(Atom::intern("c")),
                Tok::Op("="),
                Tok::Ident(Atom::intern("d")),
            ]
        );
        assert_eq!(
            toks("i++"),
            vec![Tok::Ident(Atom::intern("i")), Tok::Op("++")]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#"'a\'b' "c\nd""#),
            vec![Tok::Str("a'b".into()), Tok::Str("c\nd".into())]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // comment\n/* block */ b"),
            vec![Tok::Ident(Atom::intern("a")), Tok::Ident(Atom::intern("b"))]
        );
    }

    #[test]
    fn keywords_recognized() {
        assert_eq!(
            toks("function typeof new"),
            vec![
                Tok::Kw(Keyword::Function),
                Tok::Kw(Keyword::Typeof),
                Tok::Kw(Keyword::New),
            ]
        );
    }

    #[test]
    fn dollar_identifiers() {
        assert_eq!(
            toks("$x _y"),
            vec![
                Tok::Ident(Atom::intern("$x")),
                Tok::Ident(Atom::intern("_y"))
            ]
        );
    }

    #[test]
    fn lead_byte_edge_cases() {
        let id = |s| Tok::Ident(Atom::intern(s));
        let ok = |toks: Vec<(Tok, u32)>| {
            Ok(toks
                .into_iter()
                .map(|(tok, line)| SpannedTok { tok, line })
                .collect())
        };
        let err = |message: &str, line| {
            Err(LexError {
                message: message.into(),
                line,
            })
        };
        let cases: Vec<(&str, Result<Vec<SpannedTok>, LexError>)> = vec![
            (
                "a/b",
                ok(vec![(id("a"), 1), (Tok::Op("/"), 1), (id("b"), 1)]),
            ),
            (
                "a /= 2",
                ok(vec![(id("a"), 1), (Tok::Op("/="), 1), (Tok::Num(2.0), 1)]),
            ),
            ("a // c\nb", ok(vec![(id("a"), 1), (id("b"), 2)])),
            ("/**/x", ok(vec![(id("x"), 1)])),
            ("/*/", err("unterminated comment", 1)),
            ("x ===", ok(vec![(id("x"), 1), (Tok::Op("==="), 1)])),
            ("x !==", ok(vec![(id("x"), 1), (Tok::Op("!=="), 1)])),
            (
                "a<=b>=c",
                ok(vec![
                    (id("a"), 1),
                    (Tok::Op("<="), 1),
                    (id("b"), 1),
                    (Tok::Op(">="), 1),
                    (id("c"), 1),
                ]),
            ),
            (".5", ok(vec![(Tok::Op("."), 1), (Tok::Num(5.0), 1)])),
            ("1.2.3", err(r#"bad number "1.2.3""#, 1)),
            ("a\r\n\x0cb", ok(vec![(id("a"), 1), (id("b"), 2)])),
            (r"'a\qb'", ok(vec![(Tok::Str("aqb".into()), 1)])),
        ];
        for (src, want) in cases {
            assert_eq!(lex(src), want, "{src:?}");
        }
    }

    #[test]
    fn non_ascii_text_is_kept_whole() {
        assert_eq!(
            toks(r#"'é' "日本" '\é' 'a\日b'"#),
            vec![
                Tok::Str("é".into()),
                Tok::Str("日本".into()),
                Tok::Str("é".into()),
                Tok::Str("a日b".into()),
            ]
        );
        assert_eq!(
            lex("var x;\nvar é = 1;"),
            Err(LexError {
                message: "unexpected character 'é'".into(),
                line: 2,
            })
        );
    }

    #[test]
    fn errors_carry_line() {
        let err = lex("ok\n  @").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(lex("'unterminated").is_err());
        assert!(lex("/* open").is_err());
    }
}
