//! A minimal Rust lexer: just enough token structure for the lint rules
//! to reason about *code* while never being fooled by comments, string
//! contents, char literals, or lifetimes.
//!
//! Hand-rolled (the container is offline — no `syn`, no `proc-macro2`)
//! and deliberately small: the rules only need identifier/punctuation
//! streams with line numbers plus the comment text (for `lint:allow`
//! pragmas), so the lexer does not classify keywords, parse numbers
//! beyond "a number", or build a syntax tree.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `fn`, `HashMap`, `r#async`).
    Ident,
    /// A single punctuation byte (`.`, `!`, `[`, `#`, ...).
    Punct,
    /// String literal of any flavor: `"..."`, `r"..."`, `r#"..."#`,
    /// `b"..."`, `br#"..."#`. The token's `text` is the *unquoted*
    /// content.
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (integers and floats, any base, with suffixes).
    Num,
    /// A lifetime (`'a`, `'static`). Distinguished from [`TokenKind::Char`]
    /// so a `'s` in generics is never misread as an unterminated char.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The token text (unquoted content for [`TokenKind::Str`]).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// The text of a punctuation token, `""` for any other: a bracket in
    /// a string or char literal (`"{"`, `'['`) never opens or closes one.
    pub(crate) fn punct(&self) -> &str {
        match self.kind {
            TokenKind::Punct => &self.text,
            _ => "",
        }
    }
}

/// A comment (the rules scan these for `lint:allow` pragmas).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text without the `//` / `/* */` delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// True for `//` comments (pragmas are only honored in these:
    /// a pragma buried in a block comment is almost certainly stale
    /// documentation, not an annotation).
    pub is_line: bool,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src`. Unterminated constructs (string or block comment running
/// to EOF) terminate the token silently: the linter must degrade
/// gracefully on in-progress code, and rustc will report the real error.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let n = bytes.len();

    // Advances `k` chars from position `i`, counting newlines.
    macro_rules! advance {
        ($k:expr) => {{
            let k: usize = $k;
            for off in 0..k {
                if bytes[i + off] == '\n' {
                    line += 1;
                }
            }
            i += k;
        }};
    }

    while i < n {
        let c = bytes[i];

        // Whitespace.
        if c.is_whitespace() {
            advance!(1);
            continue;
        }

        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            let start_line = line;
            let mut j = i + 2;
            while j < n && bytes[j] != '\n' {
                j += 1;
            }
            out.comments.push(Comment {
                text: bytes[i + 2..j].iter().collect(),
                line: start_line,
                is_line: true,
            });
            advance!(j - i);
            continue;
        }

        // Block comment, with nesting (Rust block comments nest).
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            let start_line = line;
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if bytes[j] == '/' && j + 1 < n && bytes[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == '*' && j + 1 < n && bytes[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let end = if depth == 0 { j - 2 } else { j };
            out.comments.push(Comment {
                text: bytes[i + 2..end].iter().collect(),
                line: start_line,
                is_line: false,
            });
            advance!(j - i);
            continue;
        }

        // Raw strings and raw/byte identifiers: r"..", r#".."#, br".."
        // b"..", r#ident.
        if c == 'r' || c == 'b' {
            // Look ahead past an optional second prefix char (`br`/`rb`
            // is not legal Rust but `br` is).
            let mut p = i + 1;
            let mut is_raw = c == 'r';
            if c == 'b' && p < n && bytes[p] == 'r' {
                is_raw = true;
                p += 1;
            }
            if is_raw && p < n && (bytes[p] == '#' || bytes[p] == '"') {
                // Count hashes.
                let mut hashes = 0usize;
                while p < n && bytes[p] == '#' {
                    hashes += 1;
                    p += 1;
                }
                if p < n && bytes[p] == '"' {
                    // A raw string. Find closing quote + same hash count.
                    let start_line = line;
                    let content_start = p + 1;
                    let mut j = content_start;
                    'scan: while j < n {
                        if bytes[j] == '"' {
                            let mut h = 0usize;
                            while h < hashes && j + 1 + h < n && bytes[j + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    let content_end = j.min(n);
                    out.tokens.push(Token {
                        kind: TokenKind::Str,
                        text: bytes[content_start..content_end].iter().collect(),
                        line: start_line,
                    });
                    let total = (content_end + 1 + hashes).min(n) - i;
                    advance!(total);
                    continue;
                }
                if hashes > 0 && c == 'r' && p < n && is_ident_start(bytes[p]) {
                    // Raw identifier `r#ident`.
                    let mut j = p;
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: bytes[p..j].iter().collect(),
                        line,
                    });
                    advance!(j - i);
                    continue;
                }
                // `r#` / `b#` followed by something else: fall through and
                // lex as ident + punct.
            }
            if c == 'b' && i + 1 < n && (bytes[i + 1] == '"' || bytes[i + 1] == '\'') {
                // Byte string / byte char: skip the `b` and let the
                // ordinary string/char lexing below handle the rest.
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: "b".to_string(),
                    line,
                });
                advance!(1);
                continue;
            }
        }

        // Ordinary string literal with escapes.
        if c == '"' {
            let start_line = line;
            let mut j = i + 1;
            while j < n {
                match bytes[j] {
                    '\\' if j + 1 < n => j += 2,
                    '"' => break,
                    _ => j += 1,
                }
            }
            let content_end = j.min(n);
            out.tokens.push(Token {
                kind: TokenKind::Str,
                text: bytes[i + 1..content_end].iter().collect(),
                line: start_line,
            });
            advance!((content_end + 1).min(n) - i);
            continue;
        }

        // Char literal vs lifetime. `'` starts a lifetime when followed by
        // an ident char NOT followed by a closing `'` ('a, in `<'a>`), and
        // a char literal otherwise ('x', '\n', '\'').
        if c == '\'' {
            let next_is_ident = i + 1 < n && is_ident_continue(bytes[i + 1]);
            let closes_as_char = i + 2 < n && bytes[i + 2] == '\'';
            if next_is_ident && !closes_as_char {
                // Lifetime (or 'static etc.).
                let mut j = i + 1;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: bytes[i + 1..j].iter().collect(),
                    line,
                });
                advance!(j - i);
                continue;
            }
            // Char literal: handle escapes ('\'' , '\\', '\u{1F600}').
            let start_line = line;
            let mut j = i + 1;
            while j < n {
                match bytes[j] {
                    '\\' if j + 1 < n => j += 2,
                    '\'' => break,
                    _ => j += 1,
                }
            }
            let content_end = j.min(n);
            out.tokens.push(Token {
                kind: TokenKind::Char,
                text: bytes[i + 1..content_end].iter().collect(),
                line: start_line,
            });
            advance!((content_end + 1).min(n) - i);
            continue;
        }

        // Identifier / keyword.
        if is_ident_start(c) {
            let mut j = i + 1;
            while j < n && is_ident_continue(bytes[j]) {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: bytes[i..j].iter().collect(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Number (decimal/hex/octal/binary, floats, `_` separators,
        // suffixes). A leading digit is enough — exact grammar does not
        // matter to the rules, only "this is one numeric token".
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n
                && (bytes[j].is_ascii_alphanumeric()
                    || bytes[j] == '_'
                    || (bytes[j] == '.' && j + 1 < n && bytes[j + 1].is_ascii_digit()))
            {
                j += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Num,
                text: bytes[i..j].iter().collect(),
                line,
            });
            advance!(j - i);
            continue;
        }

        // Everything else: one punctuation char per token.
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        advance!(1);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_hide_code() {
        let src = "// x.unwrap()\n/* y.expect(\"no\") */\nlet z = 1;";
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "z"]);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].is_line);
        assert!(!lexed.comments[1].is_line);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner.unwrap() */ still comment */ real";
        assert_eq!(idents(src), vec!["real"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        let src = r#"let s = "x.unwrap() // not a comment"; after"#;
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            1
        );
        assert!(lexed.comments.is_empty(), "// inside a string is content");
        assert!(idents(src).contains(&"after".to_string()));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"contains "quotes" and unwrap()"#; done"###;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("unwrap()"));
        assert!(idents(src).contains(&"done".to_string()));
        assert!(!idents(src).contains(&"unwrap".to_string()));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, vec!["x", "\\'"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "a\n/* two\nlines */\nb\n\"str\nover lines\"\nc";
        let lexed = lex(src);
        let find = |name: &str| lexed.tokens.iter().find(|t| t.text == name).map(|t| t.line);
        assert_eq!(find("a"), Some(1));
        assert_eq!(find("b"), Some(4));
        assert_eq!(find("c"), Some(7));
    }

    #[test]
    fn raw_identifiers() {
        assert!(idents("let r#fn = 1;").contains(&"fn".to_string()));
    }

    #[test]
    fn byte_strings() {
        let lexed = lex(r#"w.write_all(b"ESTABLISH 0 3 1").unwrap()"#);
        let s: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].text, "ESTABLISH 0 3 1");
        // ...and the unwrap after it is still seen as code.
        assert!(lexed.tokens.iter().any(|t| t.text == "unwrap"));
    }

    #[test]
    fn numbers_including_floats() {
        let kinds: Vec<TokenKind> = lex("1_000 0xFF 2.5f64 3usize")
            .tokens
            .iter()
            .map(|t| t.kind)
            .collect();
        assert_eq!(kinds, vec![TokenKind::Num; 4]);
    }

    #[test]
    fn unterminated_string_does_not_panic_or_loop() {
        let lexed = lex("let s = \"never closed");
        assert_eq!(lexed.tokens.last().map(|t| t.kind), Some(TokenKind::Str));
    }
}
