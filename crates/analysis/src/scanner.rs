//! A lightweight Rust-source scanner: splits every line of a source file
//! into its **code** text and its **comment** text, with string/char
//! literal contents blanked out of the code channel.
//!
//! This is deliberately *not* a parser. The invariant rules in
//! [`crate::rules`] only need to know, per line, (a) what tokens appear in
//! executable code (so `unsafe` inside a doc example or a panic-message
//! string never counts) and (b) what annotations appear in comments (so
//! `// SAFETY:` / `// INVARIANT:` markers can be checked for adjacency).
//! A hand-rolled state machine over the byte stream delivers exactly that
//! with no dependencies, which is what the offline shim policy
//! (`shims/README.md`) demands of in-tree tooling.
//!
//! Handled lexical shapes: line comments (`//`, `///`, `//!`), nested
//! block comments (`/* /* */ */`, including `/** */` and `/*! */`),
//! string literals with escapes, raw strings `r"…"` / `r#"…"#` (any hash
//! depth, plus `b`/`br` prefixes), char literals vs. lifetimes, and
//! multi-line literals/comments carrying state across lines.

/// One physical source line, split into channels by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The raw line, verbatim (used for `//!`-header detection).
    pub raw: String,
    /// Code text: everything outside comments, with the *contents* of
    /// string and char literals replaced by spaces (delimiters kept).
    pub code: String,
    /// Comment text: the contents of every comment on this line,
    /// including the `//`/`/*` markers.
    pub comment: String,
}

impl Line {
    fn new(raw: &str) -> Self {
        Line {
            raw: raw.to_string(),
            code: String::new(),
            comment: String::new(),
        }
    }

    /// `true` when the code channel holds nothing but whitespace — a
    /// blank, comment-only, or literal-interior line.
    pub fn code_is_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// `true` when the code channel is only an attribute (`#[…]` /
    /// `#![…]`), possibly spilling to the next line.
    pub fn code_is_attribute(&self) -> bool {
        let t = self.code.trim();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nesting depth ≥ 1.
    BlockComment(u32),
    Str,
    /// Raw string with this many `#`s in the delimiter.
    RawStr(u32),
}

/// Scan a full source text into per-line channel splits.
pub fn scan(src: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut state = State::Code;
    for raw in src.lines() {
        let mut line = Line::new(raw);
        scan_line(raw, &mut state, &mut line);
        // A `//` comment never crosses a newline.
        if state == State::LineComment {
            state = State::Code;
        }
        lines.push(line);
    }
    lines
}

fn scan_line(raw: &str, state: &mut State, line: &mut Line) {
    let b: Vec<char> = raw.chars().collect();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match *state {
            State::Code => {
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    *state = State::LineComment;
                    line.comment.push_str(&raw_from(&b, i));
                    return;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    *state = State::BlockComment(1);
                    line.comment.push_str("/*");
                    i += 2;
                    continue;
                }
                if c == '"' {
                    *state = State::Str;
                    line.code.push('"');
                    i += 1;
                    continue;
                }
                // Raw-string openers: r"…", r#"…"#, b r variants. The
                // prefix char itself was already pushed as code if it was
                // part of an identifier — so detect at the `r`.
                if (c == 'r' || c == 'b') && !prev_is_ident(&line.code) {
                    if let Some((hashes, consumed)) = raw_string_open(&b, i) {
                        *state = State::RawStr(hashes);
                        for ch in &b[i..i + consumed] {
                            line.code.push(*ch);
                        }
                        i += consumed;
                        continue;
                    }
                }
                if c == '\'' {
                    if let Some(consumed) = char_literal_len(&b, i) {
                        // Blank the interior, keep the delimiters.
                        line.code.push('\'');
                        for _ in 0..consumed.saturating_sub(2) {
                            line.code.push(' ');
                        }
                        line.code.push('\'');
                        i += consumed;
                        continue;
                    }
                    // A lifetime: emit as code.
                    line.code.push('\'');
                    i += 1;
                    continue;
                }
                line.code.push(c);
                i += 1;
            }
            State::LineComment => unreachable!("line comments consume the rest of the line"),
            State::BlockComment(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    line.comment.push_str("*/");
                    i += 2;
                    *state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    continue;
                }
                if c == '/' && b.get(i + 1) == Some(&'*') {
                    line.comment.push_str("/*");
                    i += 2;
                    *state = State::BlockComment(depth + 1);
                    continue;
                }
                line.comment.push(c);
                i += 1;
            }
            State::Str => {
                if c == '\\' {
                    // Escape: swallow the next char (covers \" and \\; a
                    // trailing \ continues the string across the newline).
                    line.code.push(' ');
                    if i + 1 < b.len() {
                        line.code.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    *state = State::Code;
                    line.code.push('"');
                } else {
                    line.code.push(' ');
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&b, i, hashes) {
                    line.code.push('"');
                    for _ in 0..hashes {
                        line.code.push('#');
                    }
                    i += 1 + hashes as usize;
                    *state = State::Code;
                } else {
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
}

fn raw_from(b: &[char], i: usize) -> String {
    b[i..].iter().collect()
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// At `b[i]` sitting on `r` or `b`: if this begins a raw-string opener
/// (`r"`, `r#"`, `br"`, …), return `(hash_count, chars_consumed_incl_quote)`.
fn raw_string_open(b: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

fn closes_raw(b: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| b.get(i + k) == Some(&'#'))
}

/// At `b[i]` sitting on `'`: if this is a char literal (not a lifetime),
/// return its total length in chars. `'a'` → 3, `'\n'` → 4, `'\''` → 4.
fn char_literal_len(b: &[char], i: usize) -> Option<usize> {
    match b.get(i + 1) {
        Some('\\') => {
            // Escaped char: scan to the closing quote (handles \', \u{…}).
            let mut j = i + 2;
            let mut prev_escape = true;
            while let Some(&c) = b.get(j) {
                if c == '\'' && !prev_escape {
                    return Some(j - i + 1);
                }
                prev_escape = c == '\\' && !prev_escape;
                j += 1;
            }
            None
        }
        Some(_) if b.get(i + 2) == Some(&'\'') => Some(3),
        _ => None, // a lifetime like 'a or '_
    }
}

/// Per-line flags for `#[cfg(test)]` regions (and `#[test]` functions):
/// `true` means the line belongs to test-only code. Brace depth is
/// tracked on the code channel, so braces inside strings and comments
/// never confuse the region tracker.
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Some(open_depth): inside a test region that ends when depth returns
    // to open_depth.
    let mut region: Option<i64> = None;
    // Saw a test attribute; the next braced item opens the region.
    let mut armed = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if region.is_none() && (code.contains("#[cfg(test)]") || code.contains("#[test]")) {
            armed = true;
        }
        if armed || region.is_some() {
            flags[idx] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    if armed {
                        region = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if region.is_some_and(|open| depth <= open) {
                        region = None;
                    }
                }
                // `#[cfg(test)] use …;` — an unbraced item ends the
                // armed attribute's scope at the semicolon.
                ';' if armed && region.is_none() => armed = false,
                _ => {}
            }
        }
    }
    flags
}

/// Walk upward from `idx` through the contiguous block of comment-only,
/// blank, and attribute lines directly above it (plus `idx`'s own
/// trailing comment) and report whether any carries `marker`.
///
/// This is the *adjacency* grammar every annotation rule shares: the
/// justification must sit on the site's line or in the comment block
/// immediately above it — a marker further away (or below) does not count.
pub fn has_adjacent_marker(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &lines[j];
        if line.code_is_blank() || line.code_is_attribute() {
            if line.comment.contains(marker) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// `true` when the file opens with (or contains) a module-level doc
/// header line — `//! …` — carrying `marker`. Used for the
/// `//! atomics:` audit-header rule.
pub fn has_module_header(lines: &[Line], marker: &str) -> bool {
    lines.iter().any(|l| {
        let t = l.raw.trim_start();
        t.starts_with("//!") && t.contains(marker)
    })
}

/// Every code-channel occurrence of `needle` as a standalone token (not a
/// substring of a larger identifier), as `(line_index, column)` pairs.
pub fn code_token_sites(lines: &[Line], needle: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(needle) {
            let at = from + pos;
            let before_ok = at == 0 || !is_ident_char(code[..at].chars().last());
            let after = code[at + needle.len()..].chars().next();
            let after_ok = !is_ident_char(after);
            if before_ok && after_ok {
                sites.push((idx, at));
            }
            from = at + needle.len();
        }
    }
    sites
}

fn is_ident_char(c: Option<char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_code_split_cleanly() {
        let src = "let x = 1; // trailing note\n// full-line note\nlet y = 2;";
        let lines = scan(src);
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("trailing note"));
        assert!(lines[1].code_is_blank());
        assert!(lines[1].comment.contains("full-line note"));
        assert_eq!(lines[2].code.trim(), "let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked_from_code() {
        let src = r#"panic!("unsafe // not a comment");"#;
        let lines = scan(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.is_empty());
        assert!(lines[0].code.contains("panic!"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = "let s = r#\"has \"quotes\" and unsafe\"#; let t = 1;";
        let lines = scan(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("let t = 1;"));
    }

    #[test]
    fn multiline_block_comment_carries_state() {
        let src = "/* start\nstill comment unsafe\n*/ let x = 1;";
        let lines = scan(src);
        assert!(lines[1].code_is_blank());
        assert!(lines[1].comment.contains("unsafe"));
        assert_eq!(lines[2].code.trim(), "let x = 1;");
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ still */ let x = 1;";
        let lines = scan(src);
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("still"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }";
        let lines = scan(src);
        assert!(lines[0].code.contains("fn f<'a>"));
        // The quote chars inside the literals must not open strings.
        assert!(lines[0].code.contains('}'));
    }

    #[test]
    fn multiline_string_carries_state() {
        let src = "let s = \"line one\nline two unsafe\";\nlet x = 1;";
        let lines = scan(src);
        assert!(lines[1].code.trim().ends_with("\";"));
        assert!(!lines[1].code.contains("unsafe"));
        assert_eq!(lines[2].code.trim(), "let x = 1;");
    }

    #[test]
    fn test_region_tracking() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn live2() {}";
        let lines = scan(src);
        let flags = test_regions(&lines);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_unbraced_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}";
        let lines = scan(src);
        let flags = test_regions(&lines);
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn adjacency_walks_comment_blocks_and_attributes() {
        let src = "// SAFETY: fine\n// more words\n#[allow(dead_code)]\nunsafe { x() }";
        let lines = scan(src);
        assert!(has_adjacent_marker(&lines, 3, "SAFETY:"));
        let src2 = "// SAFETY: fine\nlet y = 1;\nunsafe { x() }";
        let lines2 = scan(src2);
        assert!(!has_adjacent_marker(&lines2, 2, "SAFETY:"));
    }

    #[test]
    fn token_sites_respect_word_boundaries() {
        let src = "let not_unsafe_ident = 1; unsafe { } // unsafe in comment";
        let lines = scan(src);
        let sites = code_token_sites(&lines, "unsafe");
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn module_header_detection() {
        let src = "//! Module docs.\n//! atomics: all Relaxed uses audited.\nfn f() {}";
        let lines = scan(src);
        assert!(has_module_header(&lines, "atomics:"));
        assert!(!has_module_header(&lines, "nonexistent:"));
    }
}
