//! Tokens and the lexer for SIR source text.

use crate::span::Span;
use std::borrow::Cow;
use std::fmt;

/// A lexical token. Identifiers, and string literals without escapes,
/// borrow their text from the source; only a literal with escapes owns
/// its unescaped text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok<'a> {
    // literals / identifiers
    Ident(&'a str),
    Int(i64),
    Str(Cow<'a, str>),
    // keywords
    Struct,
    Global,
    Fn,
    Let,
    If,
    Else,
    While,
    For,
    In,
    Return,
    Assert,
    Sync,
    Throw,
    New,
    True,
    False,
    Null,
    // type keywords
    TyInt,
    TyBool,
    TyStr,
    TyMap,
    TyList,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Dot,
    Arrow,
    Assign,
    // operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(v) => write!(f, "integer `{v}`"),
            Tok::Str(s) => write!(f, "string {s:?}"),
            other => {
                let s = match other {
                    Tok::Struct => "struct",
                    Tok::Global => "global",
                    Tok::Fn => "fn",
                    Tok::Let => "let",
                    Tok::If => "if",
                    Tok::Else => "else",
                    Tok::While => "while",
                    Tok::For => "for",
                    Tok::In => "in",
                    Tok::Return => "return",
                    Tok::Assert => "assert",
                    Tok::Sync => "sync",
                    Tok::Throw => "throw",
                    Tok::New => "new",
                    Tok::True => "true",
                    Tok::False => "false",
                    Tok::Null => "null",
                    Tok::TyInt => "int",
                    Tok::TyBool => "bool",
                    Tok::TyStr => "str",
                    Tok::TyMap => "map",
                    Tok::TyList => "list",
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::LBrace => "{",
                    Tok::RBrace => "}",
                    Tok::LBracket => "[",
                    Tok::RBracket => "]",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Colon => ":",
                    Tok::Dot => ".",
                    Tok::Arrow => "->",
                    Tok::Assign => "=",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::Star => "*",
                    Tok::Slash => "/",
                    Tok::Percent => "%",
                    Tok::EqEq => "==",
                    Tok::NotEq => "!=",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::AndAnd => "&&",
                    Tok::OrOr => "||",
                    Tok::Bang => "!",
                    Tok::Eof => "<eof>",
                    _ => unreachable!(),
                };
                write!(f, "`{s}`")
            }
        }
    }
}

/// A lex error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub offset: usize,
    pub message: String,
}

/// Source bytes per token to reserve for. Corpus modules run from 3.3
/// to 5.3 bytes a token, so one reservation holds every token of
/// ordinary SIR and the vector never grows while lexing it.
const BYTES_PER_TOKEN: usize = 3;

/// Tokenize SIR source text. `//` line comments and `/* */` block
/// comments are skipped.
pub fn lex(src: &str) -> Result<Vec<(Tok<'_>, Span)>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / BYTES_PER_TOKEN + 1);
    let mut i = 0usize;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i] as char;
        macro_rules! push1 {
            ($tok:expr) => {{
                out.push(($tok, Span::new(start, start + 1)));
                i += 1;
            }};
        }
        macro_rules! push2 {
            ($tok:expr) => {{
                out.push(($tok, Span::new(start, start + 2)));
                i += 2;
            }};
        }
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                while i < bytes.len() && matches!(bytes[i], b' ' | b'\t' | b'\r' | b'\n') {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '(' => push1!(Tok::LParen),
            ')' => push1!(Tok::RParen),
            '{' => push1!(Tok::LBrace),
            '}' => push1!(Tok::RBrace),
            '[' => push1!(Tok::LBracket),
            ']' => push1!(Tok::RBracket),
            ',' => push1!(Tok::Comma),
            ';' => push1!(Tok::Semi),
            ':' => push1!(Tok::Colon),
            '.' => push1!(Tok::Dot),
            '+' => push1!(Tok::Plus),
            '*' => push1!(Tok::Star),
            '/' => push1!(Tok::Slash),
            '%' => push1!(Tok::Percent),
            '-' if bytes.get(i + 1) == Some(&b'>') => push2!(Tok::Arrow),
            '-' => push1!(Tok::Minus),
            '=' if bytes.get(i + 1) == Some(&b'=') => push2!(Tok::EqEq),
            '=' => push1!(Tok::Assign),
            '!' if bytes.get(i + 1) == Some(&b'=') => push2!(Tok::NotEq),
            '!' => push1!(Tok::Bang),
            '<' if bytes.get(i + 1) == Some(&b'=') => push2!(Tok::Le),
            '<' => push1!(Tok::Lt),
            '>' if bytes.get(i + 1) == Some(&b'=') => push2!(Tok::Ge),
            '>' => push1!(Tok::Gt),
            '&' if bytes.get(i + 1) == Some(&b'&') => push2!(Tok::AndAnd),
            '|' if bytes.get(i + 1) == Some(&b'|') => push2!(Tok::OrOr),
            '"' => {
                i += 1;
                // A literal without escapes borrows its text from the
                // source; the first escape starts an owned copy, which
                // takes the unescaped text a run at a time: the
                // delimiters are ASCII, so every run boundary is a char
                // boundary and multi-byte UTF-8 survives intact.
                let mut owned: Option<String> = None;
                let mut run = i;
                let text = loop {
                    match bytes.get(i) {
                        Some(b'"') => {
                            let tail = &src[run..i];
                            i += 1;
                            break match owned {
                                None => Cow::Borrowed(tail),
                                Some(mut s) => {
                                    s.push_str(tail);
                                    Cow::Owned(s)
                                }
                            };
                        }
                        Some(b'\\') => {
                            let s = owned.get_or_insert_with(String::new);
                            s.push_str(&src[run..i]);
                            match bytes.get(i + 1) {
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                other => {
                                    return Err(LexError {
                                        offset: i,
                                        message: format!("bad escape {other:?}"),
                                    })
                                }
                            }
                            i += 2;
                            run = i;
                        }
                        Some(_) => i += 1,
                        None => {
                            return Err(LexError {
                                offset: start,
                                message: "unterminated string literal".into(),
                            })
                        }
                    }
                };
                out.push((Tok::Str(text), Span::new(start, i)));
            }
            '0'..='9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let value: i64 = text.parse().map_err(|_| LexError {
                    offset: start,
                    message: format!("integer literal {text:?} out of range"),
                })?;
                out.push((Tok::Int(value), Span::new(start, i)));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                    .unwrap_or(bytes.len() - i);
                let word = &src[start..i];
                let tok = match word {
                    "struct" => Tok::Struct,
                    "global" => Tok::Global,
                    "fn" => Tok::Fn,
                    "let" => Tok::Let,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "in" => Tok::In,
                    "return" => Tok::Return,
                    "assert" => Tok::Assert,
                    "sync" => Tok::Sync,
                    "throw" => Tok::Throw,
                    "new" => Tok::New,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    "int" => Tok::TyInt,
                    "bool" => Tok::TyBool,
                    "str" => Tok::TyStr,
                    "map" => Tok::TyMap,
                    "list" => Tok::TyList,
                    _ => Tok::Ident(word),
                };
                out.push((tok, Span::new(start, i)));
            }
            _ => {
                let other = src[i..].chars().next().unwrap_or(c);
                return Err(LexError {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    out.push((Tok::Eof, Span::new(src.len(), src.len())));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).expect("lex").into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lexes_function_header() {
        assert_eq!(
            toks("fn touch_session(sid: int) -> bool {"),
            vec![
                Tok::Fn,
                Tok::Ident("touch_session"),
                Tok::LParen,
                Tok::Ident("sid"),
                Tok::Colon,
                Tok::TyInt,
                Tok::RParen,
                Tok::Arrow,
                Tok::TyBool,
                Tok::LBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // line\n/* block\nmore */ b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn operators_disambiguate() {
        assert_eq!(
            toks("a==b != c<=d<e >= > = ->-"),
            vec![
                Tok::Ident("a"),
                Tok::EqEq,
                Tok::Ident("b"),
                Tok::NotEq,
                Tok::Ident("c"),
                Tok::Le,
                Tok::Ident("d"),
                Tok::Lt,
                Tok::Ident("e"),
                Tok::Ge,
                Tok::Gt,
                Tok::Assign,
                Tok::Arrow,
                Tok::Minus,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r#""a\n\"b\"""#), vec![Tok::Str("a\n\"b\"".into()), Tok::Eof]);
    }

    #[test]
    fn non_ascii_string_literals_keep_their_utf8() {
        assert_eq!(toks("log(\"café ✓\")")[2], Tok::Str("café ✓".into()));
        assert_eq!(toks(r#""é\n→""#), vec![Tok::Str("é\n→".into()), Tok::Eof]);
    }

    #[test]
    fn stray_non_ascii_is_reported_as_itself() {
        let err = lex("a é").expect_err("stray char");
        assert_eq!(err.offset, 2);
        assert_eq!(err.message, "unexpected character 'é'");
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn spans_track_offsets() {
        let lexed = lex("ab cd").expect("lex");
        assert_eq!(lexed[0].1, Span::new(0, 2));
        assert_eq!(lexed[1].1, Span::new(3, 5));
    }
}
