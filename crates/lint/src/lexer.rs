//! A small line lexer for Rust sources.
//!
//! Rules must not fire on words inside comments, doc comments or string
//! literals ("never call `Instant::now` here" in a doc comment is advice,
//! not a violation). [`mask_source`] rewrites a file so that the contents
//! of every comment and string literal become spaces while line/column
//! positions of real code are preserved; rule matching then runs over the
//! masked text. The lexer also extracts `lint:allow` suppression comments
//! and computes which lines sit inside `#[cfg(test)]` blocks.

/// One extracted suppression annotation: `// lint:allow(rule) reason=...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Suppression {
    /// 1-based line the comment appears on.
    pub line: usize,
    /// Rule id inside the parentheses.
    pub rule: String,
    /// Free-text justification after `reason=` (may be empty — the
    /// suppression-hygiene rule rejects that).
    pub reason: String,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub(crate) struct LexedFile {
    /// Source with comment/string contents blanked, split into lines.
    pub code_lines: Vec<String>,
    /// All `lint:allow` annotations found in comments.
    pub suppressions: Vec<Suppression>,
    /// `in_test[i]` is true when 0-based line `i` is inside a
    /// `#[cfg(test)]` item (including the attribute line itself).
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment,
    Str,
    RawStr,
    Char,
}

/// Blank out comments and string/char literal *contents*, keeping newlines
/// (and therefore line numbers) intact. Returns the masked text and the raw
/// comment text per line (for suppression extraction).
fn mask(source: &str) -> (String, Vec<(usize, String)>) {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments: Vec<(usize, String)> = Vec::new();
    let mut cur_comment = String::new();
    let mut cur_comment_line = 0usize;
    let mut line = 1usize;
    let mut state = State::Code;
    let mut block_depth = 0usize;
    let mut raw_hashes = 0usize;
    let mut i = 0usize;

    macro_rules! keep {
        ($c:expr) => {
            out.push($c)
        };
    }
    macro_rules! blank {
        ($c:expr) => {
            out.push(if $c == '\n' { '\n' } else { ' ' })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
        }
        match state {
            State::Code => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    cur_comment.clear();
                    cur_comment_line = line;
                    blank!(c);
                    blank!('/');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment;
                    block_depth = 1;
                    cur_comment.clear();
                    cur_comment_line = line;
                    blank!(c);
                    blank!('*');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Str;
                    keep!(c);
                    i += 1;
                    continue;
                }
                // Raw strings r"..." / r#"..."# (and br variants; the `b`
                // was already copied as code, which is fine).
                if c == 'r' && matches!(next, Some('"') | Some('#')) {
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        keep!('r');
                        for _ in 0..hashes {
                            keep!('#');
                        }
                        keep!('"');
                        raw_hashes = hashes;
                        state = State::RawStr;
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Distinguish char literal from lifetime: a char literal
                    // closes with ' after one (possibly escaped) character.
                    let is_char = match bytes.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => bytes.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        state = State::Char;
                        keep!(c);
                        i += 1;
                        continue;
                    }
                }
                keep!(c);
                i += 1;
            }
            State::LineComment => {
                if c == '\n' {
                    comments.push((cur_comment_line, std::mem::take(&mut cur_comment)));
                    state = State::Code;
                    keep!('\n');
                } else {
                    cur_comment.push(c);
                    blank!(c);
                }
                i += 1;
            }
            State::BlockComment => {
                let next = bytes.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    block_depth += 1;
                    blank!(c);
                    blank!('*');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    block_depth -= 1;
                    blank!(c);
                    blank!('/');
                    i += 2;
                    if block_depth == 0 {
                        comments.push((cur_comment_line, std::mem::take(&mut cur_comment)));
                        state = State::Code;
                    }
                    continue;
                }
                cur_comment.push(c);
                blank!(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    blank!(c);
                    if let Some(&n) = bytes.get(i + 1) {
                        if n == '\n' {
                            line += 1;
                        }
                        blank!(n);
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    keep!(c);
                    state = State::Code;
                } else {
                    blank!(c);
                }
                i += 1;
            }
            State::RawStr => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut hashes = 0usize;
                    while hashes < raw_hashes && bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if hashes == raw_hashes {
                        keep!('"');
                        for _ in 0..raw_hashes {
                            keep!('#');
                        }
                        state = State::Code;
                        i = j;
                        continue;
                    }
                }
                blank!(c);
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    blank!(c);
                    if let Some(&n) = bytes.get(i + 1) {
                        blank!(n);
                    }
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    keep!(c);
                    state = State::Code;
                } else {
                    blank!(c);
                }
                i += 1;
            }
        }
    }
    // Flush a comment the file ends inside (no trailing newline after a
    // line comment; rustc rejects an unterminated block comment but the
    // lexer must still not lose the body it saw).
    if matches!(state, State::LineComment | State::BlockComment) {
        comments.push((cur_comment_line, cur_comment));
    }
    (out, comments)
}

/// Whether a collected comment body marks a *doc* comment. Matches rustc's
/// definition: `///` and `/**` open doc comments but `////` and `/***` are
/// ordinary comments again, and `//!`/`/*!` are inner doc comments. The
/// body we get has the opening `//` or `/*` already stripped.
fn is_doc_comment(body: &str) -> bool {
    let mut chars = body.chars();
    match chars.next() {
        Some('!') => true,
        Some('/') => chars.next() != Some('/'),
        Some('*') => chars.next() != Some('*'),
        _ => false,
    }
}

/// Parse `lint:allow(rule) reason=...` out of a comment body. Doc comments
/// (`///`, `//!`, `/** */`, `/*! */`) are documentation, not directives:
/// prose about the annotation syntax must not register as a suppression.
fn parse_suppression(line: usize, comment: &str) -> Option<Suppression> {
    if is_doc_comment(comment) {
        return None;
    }
    let idx = comment.find("lint:allow(")?;
    let rest = &comment[idx + "lint:allow(".len()..];
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = &rest[close + 1..];
    let reason = tail
        .find("reason=")
        .map(|r| tail[r + "reason=".len()..].trim().to_string())
        .unwrap_or_default();
    Some(Suppression { line, rule, reason })
}

/// Mark every line belonging to an item annotated `#[cfg(test)]` (the
/// conventional `mod tests` block, a test-only fn, ...). Works on masked
/// text: find the attribute, then brace-match the item that follows.
fn test_regions(code_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code_lines.len()];
    let mut i = 0usize;
    while i < code_lines.len() {
        let trimmed = code_lines[i].trim_start();
        let is_test_attr = trimmed.starts_with("#[cfg(test)]")
            || trimmed.starts_with("#[cfg(all(test")
            || trimmed.starts_with("#[cfg(any(test");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Scan forward to the item's opening brace, then to its close.
        in_test[i] = true;
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        'outer: while j < code_lines.len() {
            in_test[j] = true;
            for ch in code_lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    // An attribute that decorates a braceless item
                    // (`#[cfg(test)] use x;`) ends at the semicolon.
                    ';' if !opened && depth == 0 => break 'outer,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

/// Lex one source file into masked code lines, suppressions and test
/// region flags.
pub(crate) fn lex(source: &str) -> LexedFile {
    let (masked, comments) = mask(source);
    let code_lines: Vec<String> = masked.lines().map(|l| l.to_string()).collect();
    let suppressions = comments
        .iter()
        .filter_map(|(line, body)| parse_suppression(*line, body))
        .collect();
    let in_test = test_regions(&code_lines);
    LexedFile {
        code_lines,
        suppressions,
        in_test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let x = "Instant::now"; // Instant::now in comment
let y = 1; /* HashMap */ let z = 2;
"#;
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("Instant"));
        assert!(lexed.code_lines[0].contains("let x ="));
        assert!(!lexed.code_lines[1].contains("HashMap"));
        assert!(lexed.code_lines[1].contains("let z = 2;"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "let s = r#\"panic!(x)\"#; let c = '\"'; let l: &'static str = \"unwrap()\";";
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("panic!"));
        assert!(!lexed.code_lines[0].contains("unwrap"));
        assert!(lexed.code_lines[0].contains("&'static str"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* nested */ still comment */ let real = 1;";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains("let real = 1;"));
        assert!(!lexed.code_lines[0].contains("nested"));
    }

    #[test]
    fn suppressions_are_extracted() {
        let src = "foo(); // lint:allow(panic) reason=startup config is mandatory\n";
        let lexed = lex(src);
        assert_eq!(lexed.suppressions.len(), 1);
        let s = &lexed.suppressions[0];
        assert_eq!(s.line, 1);
        assert_eq!(s.rule, "panic");
        assert_eq!(s.reason, "startup config is mandatory");
    }

    #[test]
    fn suppression_without_reason_has_empty_reason() {
        let lexed = lex("bar(); // lint:allow(stdout)\n");
        assert_eq!(lexed.suppressions[0].reason, "");
    }

    #[test]
    fn doc_comments_never_register_suppressions() {
        let src = "/// Write `// lint:allow(panic) reason=x` to suppress.\n//! Also lint:allow(stdout) here.\n/** and lint:allow(panic) reason=y */\nfn f() {}\n";
        let lexed = lex(src);
        assert!(lexed.suppressions.is_empty(), "{:?}", lexed.suppressions);
    }

    #[test]
    fn cfg_test_regions_cover_the_module() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn lib2() {}\n";
        let lexed = lex(src);
        assert_eq!(
            lexed.in_test,
            vec![false, true, true, true, true, false],
            "{:?}",
            lexed.in_test
        );
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } // unwrap()\nlet y = x.unwrap();";
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("unwrap"));
        assert!(lexed.code_lines[1].contains(".unwrap()"));
    }

    #[test]
    fn multi_hash_raw_strings_ignore_shorter_terminators() {
        // The embedded "# must not close an r##"..."## string.
        let src = "let s = r##\"panic!() \"# unwrap()\"##; let ok = after();";
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("panic"));
        assert!(!lexed.code_lines[0].contains("unwrap"));
        assert!(lexed.code_lines[0].contains("let ok = after();"));
    }

    #[test]
    fn raw_byte_strings_are_blanked() {
        let src = "let b = br#\"Instant::now()\"#; let c = b\"HashMap\"; real();";
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("Instant"));
        assert!(!lexed.code_lines[0].contains("HashMap"));
        assert!(lexed.code_lines[0].contains("real();"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        // r#fn is a raw identifier, not an unterminated raw string: the
        // unwrap() after it is real code and must survive masking.
        let src = "let r#fn = 1; x.unwrap();";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains("r#fn"));
        assert!(lexed.code_lines[0].contains(".unwrap()"));
    }

    #[test]
    fn multi_line_strings_preserve_line_numbers() {
        // Both the backslash-continuation form and a plain embedded newline
        // must keep later lines aligned so findings point at real lines.
        let src = "let a = \"one \\\n  two\";\nlet b = \"three\nfour\";\nx.unwrap(); // lint:allow(panic) reason=r\n";
        let lexed = lex(src);
        assert_eq!(lexed.code_lines.len(), 5);
        assert!(!lexed.code_lines[0].contains("one"));
        assert!(!lexed.code_lines[1].contains("two"));
        assert!(!lexed.code_lines[3].contains("four"));
        assert!(lexed.code_lines[4].contains(".unwrap()"));
        assert_eq!(lexed.suppressions.len(), 1);
        assert_eq!(lexed.suppressions[0].line, 5);
    }

    #[test]
    fn char_and_byte_escapes_are_contained() {
        // Multi-character escapes must not let the literal swallow the
        // code after it.
        let src =
            "let a = '\\n'; let b = '\\''; let c = '\\\\'; let d = '\\x41'; let e = '\\u{1F600}'; let f = b'\\xFF'; tail();";
        let lexed = lex(src);
        assert!(!lexed.code_lines[0].contains("x41"));
        assert!(!lexed.code_lines[0].contains("1F600"));
        assert!(!lexed.code_lines[0].contains("xFF"));
        assert!(lexed.code_lines[0].contains("tail();"));
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        let src = "let q = '\"'; x.unwrap();";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains(".unwrap()"));
    }

    #[test]
    fn deeply_nested_block_comments_balance() {
        let src = "/* 1 /* 2 /* 3 */ 2 */ 1 */ live(); /* plain */ more();";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains("live();"));
        assert!(lexed.code_lines[0].contains("more();"));
        assert!(!lexed.code_lines[0].contains('1'));
        assert!(!lexed.code_lines[0].contains("plain"));
    }

    #[test]
    fn comment_openers_inside_strings_are_inert() {
        let src = "let url = \"http://example/*x\"; live();\nnext.unwrap();";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains("live();"));
        assert!(lexed.code_lines[1].contains(".unwrap()"));
    }

    #[test]
    fn escaped_backslash_then_quote_closes_the_string() {
        // "x\\" ends at the second quote; the unwrap after it is code.
        let src = "let s = \"x\\\\\"; y.unwrap();";
        let lexed = lex(src);
        assert!(lexed.code_lines[0].contains(".unwrap()"));
    }

    #[test]
    fn four_slash_comments_are_not_doc_comments() {
        // `////` and `/***` are ordinary comments in Rust (doc comments are
        // exactly `///`, `//!`, `/**`, `/*!`), so directives inside them
        // must still register.
        let src = "//// lint:allow(panic) reason=quad slash is a plain comment\nf();\n/*** lint:allow(stdout) reason=triple star is a plain comment */\ng();\n";
        let lexed = lex(src);
        let rules: Vec<&str> = lexed.suppressions.iter().map(|s| s.rule.as_str()).collect();
        assert_eq!(rules, ["panic", "stdout"], "{:?}", lexed.suppressions);
    }

    #[test]
    fn unterminated_trailing_comments_still_yield_suppressions() {
        // No trailing newline after a line comment; rustc would reject an
        // unterminated block comment but the lexer must not lose its body.
        let lexed = lex("f(); // lint:allow(panic) reason=tail");
        assert_eq!(lexed.suppressions.len(), 1);
        let lexed = lex("g(); /* lint:allow(stdout) reason=tail");
        assert_eq!(lexed.suppressions.len(), 1);
    }

    #[test]
    fn same_line_cfg_test_items_end_at_the_semicolon() {
        let src = "#[cfg(test)] use foo::bar;\nfn live() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.in_test, vec![true, false]);
    }
}
