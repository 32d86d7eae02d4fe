//! A hand-written, dependency-free Rust lexer producing spanned tokens.
//!
//! The lint engine needs exactly one guarantee the old line-regex scanner
//! could not give: *where strings and comments end*. This lexer provides
//! it with a lossless token stream — every byte of the input belongs to
//! exactly one token, so concatenating `Token::text` over the stream
//! reproduces the source and spans can be trusted for suppression,
//! reporting, and SARIF regions. It recognises the token classes the lint
//! passes care about:
//!
//! * line (`//`) and block (`/* */`, nested) comments — pragma carriers;
//! * string-ish literals: `"…"`, raw `r#"…"#`, byte `b"…"`/`br#"…"#`;
//! * char literals vs lifetimes (`'a'` vs `'a`), including escapes;
//! * identifiers/keywords (raw `r#ident` included), numbers, and
//!   single-character punctuation.
//!
//! It is deliberately *not* a full Rust lexer: multi-character operators
//! come out as adjacent `Punct` tokens and numeric suffixes stay glued to
//! their literal. That is enough for token-pattern lints, and keeps the
//! lexer total — malformed input (unterminated strings, stray bytes)
//! still lexes, it just produces a trailing literal or punct token.

/// The class of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword, including raw identifiers (`r#type`).
    Ident,
    /// A lifetime such as `'a` (never a char literal).
    Lifetime,
    /// Integer or float literal, suffix included (`42u8`, `1e-3`).
    Number,
    /// Any string-like literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A `// …` comment (newline not included).
    LineComment,
    /// A `/* … */` comment, nesting handled.
    BlockComment,
    /// One punctuation character.
    Punct,
    /// A run of whitespace (newlines included).
    Whitespace,
}

impl TokenKind {
    /// Trivia tokens carry no code semantics (comments still carry pragmas).
    pub fn is_trivia(self) -> bool {
        matches!(self, TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// One spanned token. Text is borrowed from the source via [`Token::text`]
/// so the stream itself stays small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Length in bytes.
    pub len: usize,
    /// 1-based line of the token's first byte.
    pub line: u32,
    /// 1-based byte column of the token's first byte within its line.
    pub col: u32,
}

impl Token {
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.start + self.len]
    }

    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lex `src` into a lossless token stream.
///
/// Invariants (enforced by the proptest suite):
/// * tokens are contiguous: `tok[i].end() == tok[i+1].start`;
/// * the concatenation of all token texts equals `src`;
/// * every token's `line`/`col` matches an independent recount.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks: Vec<Token> = Vec::with_capacity(src.len() / 4 + 8);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;
    while i < b.len() {
        let start = i;
        let kind = next_token(b, &mut i);
        debug_assert!(i > start, "lexer must always make progress");
        // Re-align to a char boundary if a single-byte consumer landed
        // inside a multi-byte char (defensive; only reachable for stray
        // non-ASCII punct).
        while i < b.len() && (b[i] & 0xC0) == 0x80 {
            i += 1;
        }
        toks.push(Token { kind, start, len: i - start, line, col });
        for &c in &b[start..i] {
            if c == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
    }
    toks
}

/// Consume one token starting at `*i`, advancing it; returns the kind.
fn next_token(b: &[u8], i: &mut usize) -> TokenKind {
    let c = b[*i];
    if c.is_ascii_whitespace() {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
        return TokenKind::Whitespace;
    }
    if c == b'/' && b.get(*i + 1) == Some(&b'/') {
        while *i < b.len() && b[*i] != b'\n' {
            *i += 1;
        }
        return TokenKind::LineComment;
    }
    if c == b'/' && b.get(*i + 1) == Some(&b'*') {
        *i += 2;
        let mut depth = 1u32;
        while *i < b.len() && depth > 0 {
            if b[*i] == b'/' && b.get(*i + 1) == Some(&b'*') {
                depth += 1;
                *i += 2;
            } else if b[*i] == b'*' && b.get(*i + 1) == Some(&b'/') {
                depth -= 1;
                *i += 2;
            } else {
                *i += 1;
            }
        }
        return TokenKind::BlockComment;
    }
    if c == b'"' {
        consume_quoted(b, i);
        return TokenKind::Str;
    }
    if c == b'\'' {
        return consume_quote_or_lifetime(b, i);
    }
    if c.is_ascii_digit() {
        consume_number(b, i);
        return TokenKind::Number;
    }
    if is_ident_start(c) {
        let word_start = *i;
        *i += 1;
        while *i < b.len() && is_ident_continue(b[*i]) {
            *i += 1;
        }
        return classify_after_ident(b, i, word_start);
    }
    // Anything else: one punctuation byte.
    *i += 1;
    TokenKind::Punct
}

/// After lexing an identifier, decide whether it is actually the prefix of
/// a raw/byte string (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`), a byte char
/// (`b'x'`), or a raw identifier (`r#name`).
fn classify_after_ident(b: &[u8], i: &mut usize, word_start: usize) -> TokenKind {
    let word = &b[word_start..*i];
    let next = b.get(*i).copied();
    match (word, next) {
        (b"r" | b"br" | b"b", Some(b'"')) => {
            if word == b"b" {
                consume_quoted(b, i);
            } else {
                consume_raw_string(b, i, 0);
            }
            TokenKind::Str
        }
        (b"r" | b"br", Some(b'#')) => {
            // Count the hashes; a following quote means raw string, an
            // ident char after `r#` means raw identifier.
            let mut hashes = 0usize;
            while b.get(*i + hashes) == Some(&b'#') {
                hashes += 1;
            }
            match b.get(*i + hashes) {
                Some(&b'"') => {
                    *i += hashes;
                    consume_raw_string(b, i, hashes);
                    TokenKind::Str
                }
                Some(&c2) if word == b"r" && hashes == 1 && is_ident_start(c2) => {
                    *i += 1; // the '#'
                    while *i < b.len() && is_ident_continue(b[*i]) {
                        *i += 1;
                    }
                    TokenKind::Ident
                }
                _ => TokenKind::Ident,
            }
        }
        (b"b", Some(b'\'')) => {
            consume_char_body(b, i);
            TokenKind::Char
        }
        _ => TokenKind::Ident,
    }
}

/// Consume a `"…"` body (opening quote at `*i`), honouring `\` escapes.
fn consume_quoted(b: &[u8], i: &mut usize) {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'\\' => *i = (*i + 2).min(b.len()),
            b'"' => {
                *i += 1;
                return;
            }
            _ => *i += 1,
        }
    }
}

/// Consume a raw string body starting at the `"` (hashes already consumed),
/// terminated by `"` followed by `hashes` `#`s.
fn consume_raw_string(b: &[u8], i: &mut usize, hashes: usize) {
    *i += 1; // opening quote
    while *i < b.len() {
        if b[*i] == b'"' && b[*i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
        {
            *i += 1 + hashes;
            return;
        }
        *i += 1;
    }
}

/// At a `'`: disambiguate char literal from lifetime.
fn consume_quote_or_lifetime(b: &[u8], i: &mut usize) -> TokenKind {
    // `'` then escape → char. `'x'` → char. `'ident` not followed by a
    // closing quote → lifetime.
    let after = b.get(*i + 1).copied();
    match after {
        Some(b'\\') => {
            consume_char_body(b, i);
            TokenKind::Char
        }
        Some(c2) if is_ident_start(c2) => {
            // Look past the ident run: a `'` right after means char
            // literal ('a'), otherwise a lifetime ('a, 'static).
            let mut j = *i + 2;
            while j < b.len() && is_ident_continue(b[j]) {
                j += 1;
            }
            if j == *i + 2 && b.get(j) == Some(&b'\'') {
                consume_char_body(b, i);
                TokenKind::Char
            } else {
                *i = j;
                TokenKind::Lifetime
            }
        }
        Some(_) => {
            consume_char_body(b, i);
            TokenKind::Char
        }
        None => {
            *i += 1;
            TokenKind::Punct
        }
    }
}

/// Consume a char/byte-char literal body: from the opening `'` through the
/// closing `'` (or end of line/input for malformed literals).
fn consume_char_body(b: &[u8], i: &mut usize) {
    *i += 1; // opening quote
    while *i < b.len() {
        match b[*i] {
            b'\\' => *i = (*i + 2).min(b.len()),
            b'\'' => {
                *i += 1;
                return;
            }
            b'\n' => return, // malformed; don't eat the rest of the file
            _ => *i += 1,
        }
    }
}

/// Consume a numeric literal: digits, `_`, suffixes, one `.` fraction
/// (but never `..`), and signed exponents.
fn consume_number(b: &[u8], i: &mut usize) {
    *i += 1;
    loop {
        match b.get(*i) {
            Some(&c) if c.is_ascii_alphanumeric() || c == b'_' => {
                // `1e-3` / `2E+8`: sign directly after an exponent marker.
                *i += 1;
                if (c == b'e' || c == b'E')
                    && matches!(b.get(*i), Some(b'+') | Some(b'-'))
                    && b.get(*i + 1).is_some_and(|d| d.is_ascii_digit())
                {
                    *i += 1;
                }
            }
            Some(b'.')
                if b.get(*i + 1).is_some_and(|d| d.is_ascii_digit())
                    && !b[..*i].ends_with(b".") =>
            {
                *i += 1;
            }
            _ => return,
        }
    }
}

/// A "code view" of the source: same byte length and line structure, but
/// with comment bodies and string/char interiors blanked to spaces. Line
/// heuristics (map-iter's declaration chasing) run on this view and can no
/// longer be fooled by multi-line strings — the exact failure mode of the
/// old line scanner.
pub fn code_view(src: &str, toks: &[Token]) -> String {
    let mut out = Vec::with_capacity(src.len());
    for t in toks {
        let text = t.text(src).as_bytes();
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                out.extend(text.iter().map(|&c| if c == b'\n' { b'\n' } else { b' ' }));
            }
            TokenKind::Str | TokenKind::Char => {
                // Keep the delimiters, blank the interior. An unterminated
                // literal can end mid-multibyte-char, so only ASCII bytes
                // may be kept — anything else would leave a stray
                // continuation byte and break the view's UTF-8 validity.
                for (k, &c) in text.iter().enumerate() {
                    if (k == 0 || k + 1 == text.len()) && c.is_ascii() {
                        out.push(c);
                    } else {
                        out.push(if c == b'\n' { b'\n' } else { b' ' });
                    }
                }
            }
            _ => out.extend_from_slice(text),
        }
    }
    // The view only ever rewrites ASCII bytes to spaces inside literals
    // and comments; multi-byte chars elsewhere pass through untouched.
    String::from_utf8(out)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    fn reassemble(src: &str) -> String {
        lex(src).iter().map(|t| t.text(src)).collect()
    }

    #[test]
    fn stream_is_lossless() {
        let srcs = [
            "fn main() { let x = 1; }",
            "let s = \"multi\nline \\\" with // not a comment\";",
            "let r = r#\"raw \"quoted\" body\"#; // trailing",
            "/* block /* nested */ still comment */ fn f() {}",
            "let c = 'x'; let nl = '\\n'; let lt: &'static str = \"\";",
            "let b = b\"bytes\"; let bc = b'q'; let raw = r\"no escapes \\\";",
            "for i in 0..10 { x += 1e-3; y = 2.5f64; }",
            "let r#type = 1; 'outer: loop { break 'outer; }",
            "não_ascii_идент(); // comment\n\"unterminated",
        ];
        for src in srcs {
            assert_eq!(reassemble(src), src, "lossy lex of {src:?}");
        }
    }

    #[test]
    fn spans_are_contiguous_and_positions_consistent() {
        let src = "fn f() {\n    let s = \"two\nlines\";\n    s\n}\n";
        let toks = lex(src);
        let mut expect_start = 0usize;
        let (mut line, mut col) = (1u32, 1u32);
        for t in &toks {
            assert_eq!(t.start, expect_start);
            assert_eq!((t.line, t.col), (line, col), "token {:?}", t.text(src));
            for c in t.text(src).bytes() {
                if c == b'\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            expect_start = t.end();
        }
        assert_eq!(expect_start, src.len());
    }

    #[test]
    fn strings_hide_code_like_content() {
        let src = "let s = \"Instant::now() and } braces { and // slashes\";";
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        // No Ident token named Instant escapes the literal.
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text(src) == "Instant"));
    }

    #[test]
    fn multiline_strings_stay_one_token() {
        let src = "let fixture = \"fn f() {\n    Instant::now();\n}\";\nreal();";
        let toks = lex(src);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).expect("string token");
        assert!(s.text(src).contains("Instant::now"));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Ident && t.text(src) == "real"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = "let a = r#\"has \"quotes\" inside\"#; let b = r##\"and \"# twice\"##;";
        let strs: Vec<_> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(strs.len(), 2, "{strs:?}");
        assert!(strs[0].starts_with("r#\"") && strs[0].ends_with("\"#"));
        assert!(strs[1].starts_with("r##\"") && strs[1].ends_with("\"##"));
    }

    #[test]
    fn chars_vs_lifetimes() {
        let src = "let c = 'a'; let e = '\\u{1F600}'; fn f<'a>(x: &'a str) -> &'static str { x }";
        let k = kinds(src);
        let chars: Vec<_> = k.iter().filter(|(kk, _)| *kk == TokenKind::Char).collect();
        let lifes: Vec<_> = k.iter().filter(|(kk, _)| *kk == TokenKind::Lifetime).collect();
        assert_eq!(chars.len(), 2, "{k:?}");
        assert_eq!(lifes.len(), 3, "{k:?}"); // 'a decl, 'a use, 'static
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* a /* b */ c */ident";
        let k = kinds(src);
        assert_eq!(k[0].0, TokenKind::BlockComment);
        assert_eq!(k[1], (TokenKind::Ident, "ident".into()));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let src = "let r#fn = 1; let x = r#type;";
        let idents: Vec<_> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Ident)
            .map(|(_, t)| t)
            .collect();
        assert!(idents.contains(&"r#fn".to_string()), "{idents:?}");
        assert!(idents.contains(&"r#type".to_string()), "{idents:?}");
    }

    #[test]
    fn numbers_with_ranges_and_exponents() {
        let src = "for i in 0..10 { let x = 1.5e-3 + 2.0f64; let y = 0xff_u32; }";
        let nums: Vec<_> = kinds(src)
            .into_iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(nums, vec!["0", "10", "1.5e-3", "2.0f64", "0xff_u32"], "{nums:?}");
    }

    #[test]
    fn code_view_blanks_strings_and_comments_but_keeps_lines() {
        let src = "let s = \"Instant::now()\"; // thread_rng\nlet t = 1;";
        let view = code_view(src, &lex(src));
        assert_eq!(view.len(), src.len());
        assert_eq!(view.lines().count(), src.lines().count());
        assert!(!view.contains("Instant"));
        assert!(!view.contains("thread_rng"));
        assert!(view.contains("let t = 1;"));
    }
}
