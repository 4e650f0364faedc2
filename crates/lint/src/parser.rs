//! An item-level parser on top of [`crate::lexer`]: functions, impl
//! blocks, and the call expressions inside each function body.
//!
//! Still not a real Rust parser — no types, no expressions, no name
//! resolution — just enough item structure for the interprocedural rules
//! in [`crate::interproc`] to build a workspace call graph:
//!
//! * every `fn` with its name, enclosing `impl` type (if any), body token
//!   range, and `#[cfg(test)]` status;
//! * every call expression in each body, classified as a path call
//!   (`foo(..)`, `a::b::foo(..)`, `Type::method(..)`), a method call
//!   (`recv.method(..)`, with a receiver hint when the receiver is a
//!   plain identifier), or a macro invocation (`name!(..)`);
//! * every *panic site* — `.unwrap()` / `.expect()` / the `panic!` macro
//!   family / slice-index expressions — so reachability analysis can use
//!   functions containing them as sinks;
//! * every non-test `HashMap` / `HashSet` name in the file, inside a body
//!   or not (`use` lines and types too), for `determinism-taint`'s
//!   byte-pinned files.
//!
//! The parser is loss-tolerant by design: anything it cannot classify is
//! simply not an item or a call, never an error. The non-vacuity gate in
//! [`crate::interproc`] protects against this tolerance silently eating
//! the whole workspace.

use crate::lexer::{Lexed, Token, TokenKind};

/// How a call names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)`, `a::b::foo(..)`, `Type::assoc(..)` — the full segment
    /// path as written (turbofish stripped).
    Path(Vec<String>),
    /// `recv.name(..)`. The hint is the receiver token when it is a plain
    /// identifier (`self`, a local, a field chain's last segment), used
    /// by the resolver's receiver-type heuristic.
    Method {
        /// Method name.
        name: String,
        /// Receiver identifier, when the receiver is one (`self`, `net`).
        receiver: Option<String>,
    },
    /// `name!(..)` macro invocation (panic-family macros are classified
    /// as panic sites instead and do not appear here).
    Macro(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The callee as written.
    pub callee: Callee,
    /// 1-based source line.
    pub line: u32,
}

/// What kind of panic a panic site is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!` /
    /// `assert!`-family is *not* included (assertions are contract
    /// checks, not error handling).
    PanicMacro,
    /// A slice/array index expression (`xs[i]`).
    Index,
}

impl PanicKind {
    /// Human name used in diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect()",
            PanicKind::PanicMacro => "a panic!-family macro",
            PanicKind::Index => "slice indexing",
        }
    }
}

/// A direct panic site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Which panic primitive.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
}

/// One parsed function (free function or method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's own name (`establish_wave`).
    pub name: String,
    /// Enclosing `impl` type's last path segment (`ShardedNetwork`),
    /// `None` for free functions.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (tests may panic at will).
    pub is_test: bool,
    /// Call expressions in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Direct panic sites in the body, in source order.
    pub panics: Vec<PanicSite>,
}

impl FnDef {
    /// `Type::name` for methods, bare `name` for free functions.
    pub(crate) fn qualified_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the interprocedural rules need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions in source order.
    pub fns: Vec<FnDef>,
    /// Every non-test `HashMap` / `HashSet` token, as `(line, name)`.
    pub hash_names: Vec<(u32, &'static str)>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "in", "as", "fn", "let", "else", "loop", "move",
    "mut", "ref", "pub", "where", "use", "impl", "dyn", "box", "break", "continue", "await",
    "unsafe", "const", "static", "crate", "super", "self", "Self", "true", "false",
];

/// Panic-family macro names.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// Idents that legitimately precede `[` without it being an index
/// expression (`impl [T]`, `dyn [..]` are contrived, but `mut`, `in`,
/// `return`, `else`, `match` arms binding arrays are real).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "async",
    "await", "true", "false", "vec",
];

use crate::rules::mark_test_tokens;

/// Finds the token index of the `{` opening the body of the item whose
/// introducing keyword is at `kw`, skipping the signature. Returns `None`
/// for braceless items (`fn` in a trait without a default body, ended by
/// `;`).
fn find_body_open(toks: &[Token], kw: usize) -> Option<usize> {
    let mut j = kw + 1;
    let mut angle = 0i32;
    while j < toks.len() {
        match toks[j].punct() {
            "<" => angle += 1,
            ">"
                // `->` is not a closing angle.
                if !(j > 0 && toks[j - 1].text == "-") => {
                    angle -= 1;
                }
            "{" if angle <= 0 => return Some(j),
            ";" if angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Finds the token index one past the `}` matching the `{` at `open`.
fn find_body_end(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        match toks[j].punct() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Extracts the self type from the tokens of an `impl` header
/// (`impl<T> Foo<T>`, `impl Display for ScenarioKind`): the last path
/// segment of the implementing type.
fn impl_self_type(toks: &[Token], start: usize, open: usize) -> Option<String> {
    // If a `for` appears at angle-depth 0 (not `for<'a>`), the self type
    // follows the last such `for`; otherwise it follows the generics.
    let mut angle = 0i32;
    let mut type_start = start + 1;
    for j in start + 1..open {
        match toks[j].text.as_str() {
            "<" => angle += 1,
            ">" if !(j > 0 && toks[j - 1].text == "-") => angle -= 1,
            "for" if angle <= 0 && toks.get(j + 1).map(|t| t.text.as_str()) != Some("<") => {
                type_start = j + 1;
            }
            _ => {}
        }
    }
    // Walk `A :: B :: C` and return the last ident before `<`/`where`/`{`.
    let mut last = None;
    let mut j = type_start;
    let mut angle = 0i32;
    while j < open {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" if !(j > 0 && toks[j - 1].text == "-") => angle -= 1,
            "where" if angle <= 0 => break,
            _ => {
                if angle <= 0 && t.kind == TokenKind::Ident && t.text != "where" {
                    last = Some(t.text.clone());
                }
            }
        }
        j += 1;
    }
    last
}

/// After an ident at `i`, skips an optional turbofish (`::<..>`); returns
/// the index of the token that should be `(` for this to be a call.
fn skip_turbofish(toks: &[Token], i: usize) -> usize {
    if toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
        && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
        && toks.get(i + 3).map(|t| t.text.as_str()) == Some("<")
    {
        let mut depth = 0i32;
        let mut j = i + 3;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" if !(j > 0 && toks[j - 1].text == "-") => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        return j;
    }
    i + 1
}

/// Collects the `::`-separated path ending at the ident at `i`, walking
/// backwards (`a :: b :: c` with `i` on `c` yields `["a","b","c"]`).
fn path_segments_ending_at(toks: &[Token], i: usize) -> (usize, Vec<String>) {
    let mut segs = vec![toks[i].text.clone()];
    let mut first = i;
    let mut j = i;
    while j >= 2
        && toks[j - 1].text == ":"
        && toks[j - 2].text == ":"
        && j >= 3
        && toks[j - 3].kind == TokenKind::Ident
    {
        j -= 3;
        first = j;
        segs.push(toks[j].text.clone());
    }
    segs.reverse();
    (first, segs)
}

/// Scans a body token range for call expressions and panic sites,
/// skipping the tokens `gated` marks (`#[cfg(test)]` blocks).
fn scan_body(
    toks: &[Token],
    range: (usize, usize),
    gated: &[bool],
    calls: &mut Vec<CallSite>,
    panics: &mut Vec<PanicSite>,
) {
    let (start, end) = range;
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if gated.get(i) == Some(&true) {
            i += 1;
            continue;
        }
        if t.kind != TokenKind::Ident {
            // Index expression: `[` whose previous token ends a value.
            if t.punct() == "[" && i > start {
                let prev = &toks[i - 1];
                let indexes_value = match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                    TokenKind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexes_value {
                    panics.push(PanicSite {
                        kind: PanicKind::Index,
                        line: t.line,
                    });
                }
            }
            i += 1;
            continue;
        }
        let after_dot = i > start && toks[i - 1].text == ".";
        // `.unwrap()` / `.expect(..)`.
        if after_dot && (t.text == "unwrap" || t.text == "expect") {
            if toks.get(i + 1).is_some_and(|n| n.text == "(") {
                panics.push(PanicSite {
                    kind: if t.text == "unwrap" {
                        PanicKind::Unwrap
                    } else {
                        PanicKind::Expect
                    },
                    line: t.line,
                });
            }
            i += 1;
            continue;
        }
        // Macro invocation `name!(..)` / `name![..]` / `name!{..}`.
        if toks.get(i + 1).is_some_and(|n| n.text == "!")
            && toks
                .get(i + 2)
                .is_some_and(|n| matches!(n.text.as_str(), "(" | "[" | "{"))
        {
            if PANIC_MACROS.contains(&t.text.as_str()) {
                panics.push(PanicSite {
                    kind: PanicKind::PanicMacro,
                    line: t.line,
                });
            } else {
                calls.push(CallSite {
                    callee: Callee::Macro(t.text.clone()),
                    line: t.line,
                });
            }
            i += 2;
            continue;
        }
        // Call: ident (possibly a path, possibly turbofished) before `(`.
        let paren_at = skip_turbofish(toks, i);
        let is_call = toks.get(paren_at).is_some_and(|n| n.text == "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str());
        if is_call {
            if after_dot {
                // Method call; receiver hint when it is a plain ident.
                let receiver = (i >= 2)
                    .then(|| &toks[i - 2])
                    .filter(|r| r.kind == TokenKind::Ident)
                    .map(|r| r.text.clone());
                calls.push(CallSite {
                    callee: Callee::Method {
                        name: t.text.clone(),
                        receiver,
                    },
                    line: t.line,
                });
            } else {
                let (first, segs) = path_segments_ending_at(toks, i);
                // Struct-literal-ish guard: `Foo (` where Foo is consumed
                // as a call is fine (tuple constructors resolve to
                // nothing); but skip paths opening generic args, which
                // `path_segments_ending_at` already cannot produce.
                let _ = first;
                calls.push(CallSite {
                    callee: Callee::Path(segs),
                    line: t.line,
                });
            }
        }
        i += 1;
    }
}

/// Parses one lexed file into its functions and hash names.
pub(crate) fn parse_file(lexed: &Lexed) -> ParsedFile {
    let toks = &lexed.tokens;
    let in_test = mark_test_tokens(toks);
    let mut out = ParsedFile::default();
    let live = toks
        .iter()
        .zip(&in_test)
        .filter(|(t, test)| !**test && t.kind == TokenKind::Ident);
    for (t, _) in live {
        match t.text.as_str() {
            "HashMap" => out.hash_names.push((t.line, "HashMap")),
            "HashSet" => out.hash_names.push((t.line, "HashSet")),
            _ => {}
        }
    }

    // Impl context: a stack of (self_type, body_end_token).
    let mut impl_stack: Vec<(Option<String>, usize)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(_, end)) = impl_stack.last() {
            if i >= end {
                impl_stack.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "impl" => {
                if let Some(open) = find_body_open(toks, i) {
                    let end = find_body_end(toks, open);
                    let self_ty = impl_self_type(toks, i, open);
                    impl_stack.push((self_ty, end));
                    i = open + 1;
                    continue;
                }
            }
            "fn" => {
                let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                    i += 1;
                    continue;
                };
                let Some(open) = find_body_open(toks, i) else {
                    i += 2;
                    continue;
                };
                let end = find_body_end(toks, open);
                let is_test = in_test.get(i).copied().unwrap_or(false);
                // A live fn skips its `#[cfg(test)]` blocks; a test fn is
                // all test.
                let gated: &[bool] = if is_test { &[] } else { &in_test };
                let mut calls = Vec::new();
                let mut panics = Vec::new();
                scan_body(
                    toks,
                    (open + 1, end.saturating_sub(1)),
                    gated,
                    &mut calls,
                    &mut panics,
                );
                out.fns.push(FnDef {
                    name: name_tok.text.clone(),
                    self_type: impl_stack.last().and_then(|(t, _)| t.clone()),
                    line: t.line,
                    is_test,
                    calls,
                    panics,
                });
                i = end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src))
    }

    #[test]
    fn free_functions_and_methods_are_extracted() {
        let p = parse(
            r#"
            fn free() { helper(); }
            impl Engine {
                fn handle(&mut self) { self.dispatch(); }
            }
            impl Display for Kind {
                fn fmt(&self) -> String { render(self) }
            }
            "#,
        );
        let names: Vec<String> = p.fns.iter().map(|f| f.qualified_name()).collect();
        assert_eq!(names, vec!["free", "Engine::handle", "Kind::fmt"]);
    }

    #[test]
    fn method_calls_carry_receiver_hints() {
        let p = parse("fn f(net: &Network) { net.establish(a, b); self.commit(); chain().go(); }");
        let calls = &p.fns[0].calls;
        assert_eq!(
            calls[0].callee,
            Callee::Method {
                name: "establish".into(),
                receiver: Some("net".into())
            }
        );
        assert_eq!(
            calls[1].callee,
            Callee::Method {
                name: "commit".into(),
                receiver: Some("self".into())
            }
        );
        // `chain()` itself is a path call; its `.go()` has no ident receiver.
        assert_eq!(calls[2].callee, Callee::Path(vec!["chain".into()]));
        assert_eq!(
            calls[3].callee,
            Callee::Method {
                name: "go".into(),
                receiver: None
            }
        );
    }

    #[test]
    fn path_calls_keep_their_segments() {
        let p = parse(
            "fn f() { crate::experiment::warm_up(); drqos_core::env::threads(); Type::assoc(); }",
        );
        let paths: Vec<Vec<String>> = p.fns[0]
            .calls
            .iter()
            .filter_map(|c| match &c.callee {
                Callee::Path(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            paths,
            vec![
                vec!["crate".to_string(), "experiment".into(), "warm_up".into()],
                vec!["drqos_core".to_string(), "env".into(), "threads".into()],
                vec!["Type".to_string(), "assoc".into()],
            ]
        );
    }

    #[test]
    fn ufcs_and_turbofish_calls_parse() {
        let p = parse("fn f() { let v = xs.iter().collect::<Vec<_>>(); Pareto::from_mean(m, s); <T as Tr>::go(); }");
        let calls = &p.fns[0].calls;
        assert!(calls.iter().any(|c| matches!(
            &c.callee,
            Callee::Method { name, .. } if name == "collect"
        )));
        assert!(calls
            .iter()
            .any(|c| c.callee == Callee::Path(vec!["Pareto".into(), "from_mean".into()])));
        // UFCS `<T as Tr>::go()` degrades to a short path — never a crash.
        assert!(calls.iter().any(
            |c| matches!(&c.callee, Callee::Path(s) if s.last().map(String::as_str) == Some("go"))
        ));
    }

    #[test]
    fn macro_calls_are_classified_and_panic_macros_are_panic_sites() {
        let p = parse(r#"fn f() { writeln!(w, "{}", x.render()); panic!("boom"); vec![1]; }"#);
        let f = &p.fns[0];
        assert!(f
            .calls
            .iter()
            .any(|c| c.callee == Callee::Macro("writeln".into())));
        assert!(f
            .calls
            .iter()
            .any(|c| c.callee == Callee::Macro("vec".into())));
        // The call inside the macro args is still seen.
        assert!(f.calls.iter().any(|c| matches!(
            &c.callee,
            Callee::Method { name, .. } if name == "render"
        )));
        assert_eq!(f.panics.len(), 1);
        assert_eq!(f.panics[0].kind, PanicKind::PanicMacro);
    }

    #[test]
    fn panic_sites_cover_unwrap_expect_and_indexing() {
        let p = parse(r#"fn f() { a.unwrap(); b.expect("x"); let y = xs[i]; let arr = [1, 2]; }"#);
        let kinds: Vec<PanicKind> = p.fns[0].panics.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![PanicKind::Unwrap, PanicKind::Expect, PanicKind::Index]
        );
    }

    #[test]
    fn literal_brackets_and_test_blocks_are_not_code() {
        let p = parse(
            "fn open() { let s = \"{\"; if x == Some(b'[') {} }\n\
             fn live() { a.unwrap(); #[cfg(test)] { b.unwrap(); } }",
        );
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].panics.is_empty());
        assert_eq!(p.fns[1].panics.len(), 1);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let p = parse("fn live() {}\n#[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }\n");
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
    }

    #[test]
    fn nested_functions_and_closures_do_not_break_attribution() {
        let p = parse(
            r#"
            fn outer() {
                inner_call();
                let c = |x| x.mapped();
            }
            fn next_fn() { other(); }
            "#,
        );
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path(vec!["inner_call".into()])));
        assert!(p.fns[1]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path(vec!["other".into()])));
    }

    #[test]
    fn fn_with_where_clause_and_generic_signature_parses() {
        let p = parse(
            "fn generic<T: Fn() -> u64, U>(x: T, y: U) -> Vec<u64> where U: Clone { body_call(); }",
        );
        assert_eq!(p.fns.len(), 1);
        assert!(p.fns[0]
            .calls
            .iter()
            .any(|c| c.callee == Callee::Path(vec!["body_call".into()])));
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let p =
            parse("trait T { fn required(&self) -> u64; fn with_default(&self) { a_call(); } }");
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "with_default");
    }

    #[test]
    fn impl_self_type_handles_generics_and_trait_impls() {
        let p = parse(
            r#"
            impl<'a> FileView<'a> { fn new() { a(); } }
            impl<T: Clone> Wrapper<T> { fn get_inner() { b(); } }
            impl fmt::Display for ScenarioKind { fn fmt() { c(); } }
            "#,
        );
        let types: Vec<Option<&str>> = p.fns.iter().map(|f| f.self_type.as_deref()).collect();
        assert_eq!(
            types,
            vec![Some("FileView"), Some("Wrapper"), Some("ScenarioKind")]
        );
    }
}
