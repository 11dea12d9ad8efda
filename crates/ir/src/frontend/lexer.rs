//! Lexer for the SPMD mini language.

use std::fmt;

/// Source position (1-based line and column) for diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Lexical token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum Tok {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Identifier or keyword (keywords are distinguished by the parser via
    /// [`Token::is_kw`]).
    Ident(String),
    /// `@`-prefixed attribute (`@spmd`, `@init`, `@fini`).
    Attr(String),
    /// Punctuation and operators.
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
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `!`
    Not,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Attr(s) => write!(f, "@{s}"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBrace => f.write_str("{"),
            Tok::RBrace => f.write_str("}"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Colon => f.write_str(":"),
            Tok::Assign => f.write_str("="),
            Tok::Arrow => f.write_str("->"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
            Tok::EqEq => f.write_str("=="),
            Tok::NotEq => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::Amp => f.write_str("&"),
            Tok::Pipe => f.write_str("|"),
            Tok::Caret => f.write_str("^"),
            Tok::Shl => f.write_str("<<"),
            Tok::Shr => f.write_str(">>"),
            Tok::Not => f.write_str("!"),
            Tok::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token kind.
    pub tok: Tok,
    /// Where it starts.
    pub pos: Pos,
}

impl Token {
    /// Whether this token is the identifier/keyword `kw`.
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s == kw)
    }
}

/// A lexing error.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `source` into a vector ending with an [`Tok::Eof`] token.
///
/// # Errors
///
/// Returns a [`LexError`] on unrecognized characters or malformed literals.
pub fn lex(source: &str) -> Result<Vec<Token>, LexError> {
    let mut tokens = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let pos = Pos { line, col };

        // Skip whitespace.
        if c.is_ascii_whitespace() {
            bump!();
            continue;
        }
        // Skip line comments.
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                bump!();
            }
            continue;
        }
        // Skip block comments.
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            bump!();
            bump!();
            loop {
                if i + 1 >= bytes.len() {
                    return Err(LexError { message: "unterminated block comment".into(), pos });
                }
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    bump!();
                    bump!();
                    break;
                }
                bump!();
            }
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                bump!();
            }
            let mut is_float = false;
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                is_float = true;
                bump!();
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    bump!();
                }
            }
            // Exponent.
            if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    is_float = true;
                    while i < j {
                        bump!();
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        bump!();
                    }
                }
            }
            let text = &source[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| LexError {
                    message: format!("malformed float literal `{text}`"),
                    pos,
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| LexError {
                    message: format!("integer literal `{text}` out of range"),
                    pos,
                })?)
            };
            tokens.push(Token { tok, pos });
            continue;
        }

        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                bump!();
            }
            tokens.push(Token { tok: Tok::Ident(source[start..i].to_string()), pos });
            continue;
        }

        // Attributes.
        if c == b'@' {
            bump!();
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                bump!();
            }
            if start == i {
                return Err(LexError { message: "empty attribute after `@`".into(), pos });
            }
            tokens.push(Token { tok: Tok::Attr(source[start..i].to_string()), pos });
            continue;
        }

        // Operators and punctuation, matched on bytes: the two bytes at
        // `i` may end inside a multi-byte character.
        let tok2 = match bytes.get(i..i + 2) {
            Some(b"->") => Some(Tok::Arrow),
            Some(b"==") => Some(Tok::EqEq),
            Some(b"!=") => Some(Tok::NotEq),
            Some(b"<=") => Some(Tok::Le),
            Some(b">=") => Some(Tok::Ge),
            Some(b"&&") => Some(Tok::AndAnd),
            Some(b"||") => Some(Tok::OrOr),
            Some(b"<<") => Some(Tok::Shl),
            Some(b">>") => Some(Tok::Shr),
            _ => None,
        };
        if let Some(tok) = tok2 {
            bump!();
            bump!();
            tokens.push(Token { tok, pos });
            continue;
        }
        let tok1 = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b',' => Tok::Comma,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b'=' => Tok::Assign,
            b'+' => Tok::Plus,
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'%' => Tok::Percent,
            b'<' => Tok::Lt,
            b'>' => Tok::Gt,
            b'&' => Tok::Amp,
            b'|' => Tok::Pipe,
            b'^' => Tok::Caret,
            b'!' => Tok::Not,
            _ => {
                // A token starts on a character boundary: every token before
                // it ends on an ASCII byte.
                let other = source[i..].chars().next().unwrap_or_default();
                return Err(LexError { message: format!("unexpected character `{other}`"), pos });
            }
        };
        bump!();
        tokens.push(Token { tok: tok1, pos });
    }

    tokens.push(Token { tok: Tok::Eof, pos: Pos { line, col } });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("3.5"), vec![Tok::Float(3.5), Tok::Eof]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0), Tok::Eof]);
        assert_eq!(toks("2.5e-1"), vec![Tok::Float(0.25), Tok::Eof]);
    }

    #[test]
    fn dot_without_digit_is_not_float() {
        // `1.` is not a float in this language; the dot is an error char.
        assert!(lex("1.").is_err());
    }

    #[test]
    fn lexes_identifiers_and_attrs() {
        assert_eq!(
            toks("@spmd func f_1"),
            vec![
                Tok::Attr("spmd".into()),
                Tok::Ident("func".into()),
                Tok::Ident("f_1".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            toks("== != <= >= && || << >> ->"),
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Shl,
                Tok::Shr,
                Tok::Arrow,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(toks("a // comment\n b /* x\ny */ c"), vec![
            Tok::Ident("a".into()),
            Tok::Ident("b".into()),
            Tok::Ident("c".into()),
            Tok::Eof
        ]);
    }

    #[test]
    fn tracks_positions() {
        let tokens = lex("a\n  b").unwrap();
        assert_eq!(tokens[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(tokens[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("/* never ends").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        let err = lex("a $ b").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn a_multi_byte_character_is_a_positioned_error() {
        for (src, col) in [("—", 1), ("a—", 2), ("1—", 2), ("@spmd func f() { x — }", 20)] {
            let err = lex(src).unwrap_err();
            assert_eq!((err.message.as_str(), err.pos.col), ("unexpected character `—`", col));
        }
    }

    #[test]
    fn int_out_of_range_errors() {
        assert!(lex("99999999999999999999999999").is_err());
    }
}
