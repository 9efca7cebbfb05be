//! Tokenizer for Stan source text.
//!
//! Handles `//`, `#` and `/* ... */` comments, integer and real literals
//! (including scientific notation), string literals, identifiers, and the
//! full operator set used by Stan programs.

use crate::error::{FrontendError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are recognized by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Punctuation or operator, e.g. `"+"`, `"<="`, `"~"`.
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl Tok {
    /// Text form, used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(v) => format!("integer `{v}`"),
            Tok::Real(v) => format!("real `{v}`"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Sym(s) => format!("`{s}`"),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

/// A token together with its source location.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Where it starts.
    pub span: Span,
}

/// All multi-character symbols, longest first so maximal munch works.
const SYMBOLS: &[&str] = &[
    "...", "+=", "-=", "*=", "/=", "==", "!=", "<=", ">=", "&&", "||", ".*", "./", "+", "-", "*",
    "/", "%", "^", "=", "<", ">", "!", "?", ":", ";", ",", "~", "|", "(", ")", "[", "]", "{", "}",
    ".",
];

/// Tokenizes Stan source text.
///
/// Works on the UTF-8 bytes in place: symbols are matched against the
/// source, identifier and number text is sliced out of it, and only a
/// non-ASCII character (in a comment, a string, or as an error) is decoded.
/// Spans count lines and *characters*, so a column after non-ASCII text
/// is the same as in a char-by-char scan.
///
/// # Errors
/// Returns a lexical error for unknown characters or malformed literals.
pub fn lex(source: &str) -> Result<Vec<Token>, FrontendError> {
    let bytes = source.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Steps over the character at byte `i`, counting its line and column.
    let advance = |i: &mut usize, line: &mut u32, col: &mut u32| {
        let c = char_at(source, *i);
        *i += c.len_utf8();
        if c == '\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
    };

    while i < bytes.len() {
        let c = char_at(source, i);
        let span = Span::new(line, col);

        // Whitespace
        if c.is_whitespace() {
            advance(&mut i, &mut line, &mut col);
            continue;
        }

        // Line comments: `//` and `#` (but not `#include`, which we skip too).
        if c == '#' || (c == '/' && at(i + 1) == Some(b'/')) {
            while i < bytes.len() && bytes[i] != b'\n' {
                advance(&mut i, &mut line, &mut col);
            }
            continue;
        }

        // Block comments.
        if c == '/' && at(i + 1) == Some(b'*') {
            i += 2;
            col += 2;
            loop {
                if i >= bytes.len() {
                    return Err(FrontendError::lex("unterminated block comment", span));
                }
                if bytes[i] == b'*' && at(i + 1) == Some(b'/') {
                    i += 2;
                    col += 2;
                    break;
                }
                advance(&mut i, &mut line, &mut col);
            }
            continue;
        }

        // String literals.
        if c == '"' {
            i += 1;
            col += 1;
            let start = i;
            loop {
                if i >= bytes.len() {
                    return Err(FrontendError::lex("unterminated string literal", span));
                }
                if bytes[i] == b'"' {
                    break;
                }
                advance(&mut i, &mut line, &mut col);
            }
            tokens.push(Token {
                tok: Tok::Str(source[start..i].to_string()),
                span,
            });
            i += 1;
            col += 1;
            continue;
        }

        let digit = |i: usize| at(i).is_some_and(|b| b.is_ascii_digit());

        // Numbers.
        if c.is_ascii_digit() || (c == '.' && digit(i + 1)) {
            let start = i;
            let mut is_real = false;
            while digit(i) {
                i += 1;
            }
            if at(i) == Some(b'.') && at(i + 1) != Some(b'*') && at(i + 1) != Some(b'/') {
                is_real = true;
                i += 1;
                while digit(i) {
                    i += 1;
                }
            }
            if matches!(at(i), Some(b'e' | b'E')) {
                let mut j = i + 1;
                if matches!(at(j), Some(b'+' | b'-')) {
                    j += 1;
                }
                if digit(j) {
                    is_real = true;
                    i = j;
                    while digit(i) {
                        i += 1;
                    }
                }
            }
            let text = &source[start..i];
            col += (i - start) as u32;
            let tok = if is_real {
                Tok::Real(text.parse().map_err(|_| {
                    FrontendError::lex(format!("malformed real literal `{text}`"), span)
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    FrontendError::lex(format!("malformed integer literal `{text}`"), span)
                })?)
            };
            tokens.push(Token { tok, span });
            continue;
        }

        // Identifiers (may contain dots for DeepStan network parameters such
        // as `mlp.l1.weight`).
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            let word = |b: u8| b.is_ascii_alphabetic() || b == b'_';
            while let Some(b) = at(i) {
                let dotted = b == b'.' && at(i + 1).is_some_and(word);
                if !(b.is_ascii_alphanumeric() || b == b'_' || dotted) {
                    break;
                }
                i += 1;
            }
            col += (i - start) as u32;
            tokens.push(Token {
                tok: Tok::Ident(source[start..i].to_string()),
                span,
            });
            continue;
        }

        // Symbols / operators, longest first.
        if let Some(sym) = SYMBOLS
            .iter()
            .find(|s| bytes[i..].starts_with(s.as_bytes()))
        {
            tokens.push(Token {
                tok: Tok::Sym(sym),
                span,
            });
            i += sym.len();
            col += sym.len() as u32;
            continue;
        }

        return Err(FrontendError::lex(
            format!("unexpected character `{c}`"),
            span,
        ));
    }

    tokens.push(Token {
        tok: Tok::Eof,
        span: Span::new(line, col),
    });
    Ok(tokens)
}

/// The character starting at byte `i` of `source` (a char boundary).
fn char_at(source: &str, i: usize) -> char {
    match source.as_bytes()[i] {
        b if b.is_ascii() => b as char,
        _ => source[i..]
            .chars()
            .next()
            .expect("a char boundary inside the source"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_simple_statement() {
        let t = toks("z ~ beta(1, 1);");
        assert_eq!(
            t,
            vec![
                Tok::Ident("z".into()),
                Tok::Sym("~"),
                Tok::Ident("beta".into()),
                Tok::Sym("("),
                Tok::Int(1),
                Tok::Sym(","),
                Tok::Int(1),
                Tok::Sym(")"),
                Tok::Sym(";"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_reals_and_scientific_notation() {
        assert_eq!(toks("0.001")[0], Tok::Real(0.001));
        assert_eq!(toks("1e-3")[0], Tok::Real(0.001));
        assert_eq!(toks("2.5E2")[0], Tok::Real(250.0));
        assert_eq!(toks("42")[0], Tok::Int(42));
    }

    #[test]
    fn comments_are_skipped() {
        let t = toks("x // trailing\n# old style\n/* block\n comment */ y");
        assert_eq!(
            t,
            vec![Tok::Ident("x".into()), Tok::Ident("y".into()), Tok::Eof]
        );
    }

    #[test]
    fn compound_operators_use_maximal_munch() {
        let t = toks("a += b .* c <= d && e");
        assert!(t.contains(&Tok::Sym("+=")));
        assert!(t.contains(&Tok::Sym(".*")));
        assert!(t.contains(&Tok::Sym("<=")));
        assert!(t.contains(&Tok::Sym("&&")));
    }

    #[test]
    fn dotted_identifiers_for_network_parameters() {
        let t = toks("mlp.l1.weight ~ normal(0, 1);");
        assert_eq!(t[0], Tok::Ident("mlp.l1.weight".into()));
    }

    #[test]
    fn element_wise_ops_do_not_absorb_numbers() {
        // `x ./ 2` must lex as ident, ./, int — not a malformed real.
        let t = toks("x ./ 2");
        assert_eq!(
            t,
            vec![
                Tok::Ident("x".into()),
                Tok::Sym("./"),
                Tok::Int(2),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn error_location_is_reported() {
        let err = lex("x @ y").unwrap_err();
        assert_eq!(err.span.unwrap(), Span::new(1, 3));
    }

    #[test]
    fn every_symbol_lexes_to_itself() {
        for sym in SYMBOLS {
            assert_eq!(toks(sym), vec![Tok::Sym(sym), Tok::Eof], "{sym}");
        }
    }

    #[test]
    fn dotted_symbols_next_to_leading_dot_reals() {
        assert_eq!(
            toks("x .* .5 ./ y ... .5"),
            vec![
                Tok::Ident("x".into()),
                Tok::Sym(".*"),
                Tok::Real(0.5),
                Tok::Sym("./"),
                Tok::Ident("y".into()),
                Tok::Sym("..."),
                Tok::Real(0.5),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks(".5.*x"),
            vec![
                Tok::Real(0.5),
                Tok::Sym(".*"),
                Tok::Ident("x".into()),
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("2./.5"),
            vec![Tok::Int(2), Tok::Sym("./"), Tok::Real(0.5), Tok::Eof]
        );
    }

    #[test]
    fn error_columns_count_characters_after_non_ascii_text() {
        // Line 2 is `"ü" @`: the `@` is the fifth character, the sixth byte.
        let err = lex("// é comment\n\"ü\" @").unwrap_err();
        assert_eq!(err.span.unwrap(), Span::new(2, 5));
        let err = lex("/* ééé */ x £").unwrap_err();
        assert_eq!(err.span.unwrap(), Span::new(1, 13));
        assert!(err.message.contains("`£`"), "{}", err.message);
        assert_eq!(toks("\"ü\"")[0], Tok::Str("ü".into()));
    }

    #[test]
    fn string_literals() {
        let t = toks("print(\"hello world\");");
        assert!(t.contains(&Tok::Str("hello world".into())));
    }
}
