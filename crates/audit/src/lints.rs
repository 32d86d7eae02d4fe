//! The lint registry and the token-level passes.
//!
//! Every rule is declared once in [`RULES`] (name, severity, summary,
//! remediation help) — the text/JSON/SARIF renderers and the pragma
//! parser key off this table, so adding a lint is one registry entry plus
//! one pass.
//!
//! Passes run over the spanned token stream from [`crate::lexer`], which
//! is what lets them see through multi-line strings, raw strings, and
//! nested block comments — the blind spots of the old line-regex scanner.
//! Suppression is explicit, local and counted: the one way to silence a
//! finding is a pragma comment naming the rule on the finding's line or
//! the line above. A pragma that no longer suppresses anything is itself
//! a finding (`stale-pragma`), so the suppression surface ratchets down
//! with the findings.

use crate::detlint::FileContext;
use crate::finding::Severity;
use crate::lexer::{self, Token, TokenKind};

/// One registered lint rule.
#[derive(Debug, Clone, Copy)]
pub struct LintRule {
    pub name: &'static str,
    pub severity: Severity,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// How to fix or legitimately suppress a finding.
    pub help: &'static str,
}

/// Every rule the engine knows, in severity-then-name order. The
/// `wire-drift` rule is emitted by the wire-format freeze pass
/// ([`crate::wirefreeze`]) but registered here so all diagnostic output
/// shares one rule table.
pub const RULES: &[LintRule] = &[
    LintRule {
        name: "nondet-time",
        severity: Severity::Error,
        summary: "Instant::now/SystemTime::now outside cloudy-obs",
        help: "derive timestamps from the campaign's virtual hours; wall clocks belong to \
               the obs layer (read one via `Obs::now`)",
    },
    LintRule {
        name: "obs-in-wire",
        severity: Severity::Error,
        summary: "observability type inside a derive(Serialize) wire shape",
        help: "metrics and traces must never reach wire bytes; keep cloudy-obs types out of \
               serialized structs and surface them via --metrics / --trace-out instead",
    },
    LintRule {
        name: "thread-rng",
        severity: Severity::Error,
        summary: "thread_rng draws OS entropy",
        help: "derive randomness from the study seed via FlowRng/StdRng",
    },
    LintRule {
        name: "wire-drift",
        severity: Severity::Error,
        summary: "serialized record shape differs from wire.lock",
        help: "wire formats are frozen; if the change is intentional regenerate the lock with \
               `cloudy-repro audit lint --update-lock` and call it out in review",
    },
    LintRule {
        name: "map-iter",
        severity: Severity::Warning,
        summary: "HashMap/HashSet iteration order is nondeterministic",
        help: "collect and sort before iterating, or use a BTreeMap/BTreeSet",
    },
    LintRule {
        name: "unwrap",
        severity: Severity::Warning,
        summary: ".unwrap() in library code",
        help: "return a typed error or document the invariant and suppress with a pragma",
    },
    LintRule {
        name: "expect",
        severity: Severity::Warning,
        summary: ".expect() in library code",
        help: "return a typed error or document the invariant and suppress with a pragma",
    },
    LintRule {
        name: "panic",
        severity: Severity::Warning,
        summary: "panic! in library code",
        help: "return a typed error; panics are for unreachable states only",
    },
    LintRule {
        name: "as-truncate",
        severity: Severity::Warning,
        summary: "truncating `as` cast in wire-path code",
        help: "wire fields must not silently truncate; use try_from or document the value bound",
    },
    LintRule {
        name: "result-string",
        severity: Severity::Warning,
        summary: "Result<_, String> in a public signature",
        help: "public APIs carry typed errors (see MeasureError/StoreError/AuditError)",
    },
    LintRule {
        name: "print-stdout",
        severity: Severity::Warning,
        summary: "println!/eprintln! in non-CLI code",
        help: "library crates return data; printing belongs to src/bin",
    },
    LintRule {
        name: "stale-pragma",
        severity: Severity::Warning,
        summary: "audit:allow pragma that suppresses nothing",
        help: "delete the pragma (or fix its rule name); dead suppressions hide future findings",
    },
];

/// Look a rule up by name.
pub fn rule(name: &str) -> Option<&'static LintRule> {
    RULES.iter().find(|r| r.name == name)
}

/// One spanned finding from the lint engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LintFinding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line; 0 for file-level findings.
    pub line: u32,
    /// 1-based byte column; 0 when unknown.
    pub col: u32,
    pub message: String,
}

impl LintFinding {
    /// The `path:line: message [rule]` rendering of the text output.
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: {} [{}]", self.path, self.message, self.rule)
        } else {
            format!("{}:{}: {} [{}]", self.path, self.line, self.message, self.rule)
        }
    }
}

/// The engine's report: every finding across the scanned files plus scan
/// accounting (how many files, so an accidentally-empty walk is loud).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub findings: Vec<LintFinding>,
    pub files_scanned: usize,
}

impl LintReport {
    /// Deterministic ordering: path, then line/col, then rule.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
    }

    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
        self.files_scanned += other.files_scanned;
    }
}

/// An `// audit:allow(rule, …)` pragma found in a comment token.
#[derive(Debug)]
struct Pragma {
    line: u32,
    rules: Vec<String>,
    /// Per-rule: did it suppress at least one finding?
    used: Vec<bool>,
}

/// Parse the pragma out of a *non-doc* comment's text. Doc comments
/// (`///`, `//!`, `/** */`, `/*! */`) are documentation — a pragma
/// example inside one must neither suppress nor count as stale.
fn parse_pragma(text: &str) -> Option<Vec<String>> {
    let is_doc = text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!");
    if is_doc {
        return None;
    }
    let pos = text.find("audit:allow(")?;
    let rest = &text[pos + "audit:allow(".len()..];
    let end = rest.find(')')?;
    Some(
        rest[..end]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    )
}

/// Non-trivia view over the token stream with text helpers.
pub(crate) struct Code<'a> {
    src: &'a str,
    toks: &'a [Token],
    /// Indices of non-trivia tokens.
    ix: Vec<usize>,
}

impl<'a> Code<'a> {
    pub(crate) fn new(src: &'a str, toks: &'a [Token]) -> Code<'a> {
        Code {
            src,
            toks,
            ix: toks
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.kind.is_trivia())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ix.len()
    }

    pub(crate) fn tok(&self, k: usize) -> Option<&Token> {
        self.ix.get(k).map(|&i| &self.toks[i])
    }

    pub(crate) fn text(&self, k: usize) -> &str {
        self.tok(k).map(|t| t.text(self.src)).unwrap_or("")
    }

    pub(crate) fn kind(&self, k: usize) -> Option<TokenKind> {
        self.tok(k).map(|t| t.kind)
    }

    pub(crate) fn is(&self, k: usize, s: &str) -> bool {
        self.text(k) == s
    }

    pub(crate) fn is_ident(&self, k: usize, s: &str) -> bool {
        self.kind(k) == Some(TokenKind::Ident) && self.text(k) == s
    }

    pub(crate) fn line(&self, k: usize) -> u32 {
        self.tok(k).map(|t| t.line).unwrap_or(0)
    }

    pub(crate) fn col(&self, k: usize) -> u32 {
        self.tok(k).map(|t| t.col).unwrap_or(0)
    }
}

/// Line ranges covered by `#[cfg(test)]` items, tracked by brace depth
/// over *code* tokens — braces inside strings or comments cannot confuse
/// the tracker.
fn cfg_test_ranges(code: &Code) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut k = 0usize;
    while k + 2 < code.len() {
        if !(code.is(k, "#") && code.is(k + 1, "[") && code.is_ident(k + 2, "cfg")) {
            k += 1;
            continue;
        }
        // Scan the attribute's bracket group for a `test` ident.
        let mut j = k + 3;
        let mut depth = 1i32; // inside the `[`
        let mut saw_test = false;
        while j < code.len() && depth > 0 {
            match code.text(j) {
                "[" | "(" => depth += 1,
                "]" | ")" => depth -= 1,
                "test" if code.kind(j) == Some(TokenKind::Ident) => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test {
            k = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while code.is(j, "#") && code.is(j + 1, "[") {
            let mut d = 1i32;
            j += 2;
            while j < code.len() && d > 0 {
                match code.text(j) {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Walk the item header to its body; a `;` first means no body.
        let mut open = None;
        while j < code.len() {
            match code.text(j) {
                "{" => {
                    open = Some(j);
                    break;
                }
                ";" => break,
                _ => j += 1,
            }
        }
        let Some(open) = open else {
            k = j + 1;
            continue;
        };
        let start_line = code.line(open);
        let mut d = 1i32;
        let mut m = open + 1;
        while m < code.len() && d > 0 {
            match code.text(m) {
                "{" => d += 1,
                "}" => d -= 1,
                _ => {}
            }
            m += 1;
        }
        let end_line = code.line(m.saturating_sub(1)).max(start_line);
        ranges.push((start_line, end_line));
        k = m;
    }
    ranges
}

/// Narrowing integer targets for the `as-truncate` rule.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Type names from `cloudy-obs` that must never appear inside a
/// serialized shape — metrics are diagnostics, not data.
const OBS_TYPES: &[&str] =
    &["Obs", "LocalShard", "MetricsSnapshot", "HistSnapshot", "TraceEvent"];

/// The `obs-in-wire` pass: find every `#[derive(.. Serialize ..)]` item
/// and flag observability types anywhere in its header or body (struct
/// fields, tuple fields, enum variant payloads). Tracked over code
/// tokens, so braces in strings or comments cannot desync the walk.
fn obs_in_wire(code: &Code, raw: &mut Vec<(&'static str, u32, u32, String)>) {
    let mut k = 0usize;
    while k + 2 < code.len() {
        if !(code.is(k, "#") && code.is(k + 1, "[") && code.is_ident(k + 2, "derive")) {
            k += 1;
            continue;
        }
        // Scan the attribute's bracket group for a `Serialize` ident.
        let mut j = k + 3;
        let mut depth = 1i32; // inside the `[`
        let mut saw_serialize = false;
        while j < code.len() && depth > 0 {
            match code.text(j) {
                "[" | "(" => depth += 1,
                "]" | ")" => depth -= 1,
                "Serialize" if code.kind(j) == Some(TokenKind::Ident) => saw_serialize = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_serialize {
            k = j;
            continue;
        }
        // Skip any further attributes on the same item.
        while code.is(j, "#") && code.is(j + 1, "[") {
            let mut d = 1i32;
            j += 2;
            while j < code.len() && d > 0 {
                match code.text(j) {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        // Walk the item to the end of its body (`{ … }`) or its `;`
        // terminator (unit/tuple structs), flagging obs idents on the way.
        let mut d = 0i32;
        while j < code.len() {
            let t = code.text(j);
            match t {
                "{" => d += 1,
                "}" => {
                    d -= 1;
                    if d <= 0 {
                        j += 1;
                        break;
                    }
                }
                ";" if d == 0 => {
                    j += 1;
                    break;
                }
                _ => {
                    if code.kind(j) == Some(TokenKind::Ident)
                        && (OBS_TYPES.contains(&t) || t == "cloudy_obs")
                    {
                        raw.push((
                            "obs-in-wire",
                            code.line(j),
                            code.col(j),
                            format!("observability type `{t}` in a serialized wire shape"),
                        ));
                    }
                }
            }
            j += 1;
        }
        k = j;
    }
}

/// Lint one file's source and return its unsuppressed findings. Pure (no
/// I/O) so fixtures and tests feed it strings directly.
pub fn lint_source(ctx: &FileContext, src: &str) -> Vec<LintFinding> {
    let toks = lexer::lex(src);
    let code = Code::new(src, &toks);
    let mut pragmas: Vec<Pragma> = toks
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .filter_map(|t| {
            parse_pragma(t.text(src)).map(|rules| Pragma {
                line: t.line,
                used: vec![false; rules.len()],
                rules,
            })
        })
        .collect();
    let test_ranges = cfg_test_ranges(&code);
    let in_test =
        |line: u32| ctx.is_test || test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
    // Library context: abort- and print-style rules skip tests and
    // binaries.
    let lib_ctx = |line: u32| !ctx.is_bin && !in_test(line);

    // Raw findings before suppression: (rule, line, col, message).
    let mut raw: Vec<(&'static str, u32, u32, String)> = Vec::new();

    for k in 0..code.len() {
        let line = code.line(k);
        let col = code.col(k);

        // nondet-time: `Instant::now` / `SystemTime::now` anywhere but
        // the obs crate (whose `Obs::now` is the sanctioned wall-clock read
        // for everything else).
        if !ctx.is_obs
            && (code.is_ident(k, "Instant") || code.is_ident(k, "SystemTime"))
            && code.is(k + 1, ":")
            && code.is(k + 2, ":")
            && code.is_ident(k + 3, "now")
        {
            raw.push((
                "nondet-time",
                line,
                col,
                "wall-clock read in deterministic code".into(),
            ));
        }

        // thread-rng: any use of the OS-entropy RNG.
        if code.is_ident(k, "thread_rng") {
            raw.push(("thread-rng", line, col, "OS-entropy RNG; derive from the study seed".into()));
        }

        // unwrap / expect: `.unwrap()` / `.expect(` in library code.
        if lib_ctx(line) && code.is(k, ".") {
            if code.is_ident(k + 1, "unwrap") && code.is(k + 2, "(") && code.is(k + 3, ")") {
                raw.push(("unwrap", line, col, "unwrap in library code".into()));
            }
            if code.is_ident(k + 1, "expect") && code.is(k + 2, "(") {
                raw.push(("expect", line, col, "expect in library code".into()));
            }
        }

        // panic!: the macro invocation, not the `panic` path segment.
        if lib_ctx(line) && code.is_ident(k, "panic") && code.is(k + 1, "!") {
            raw.push(("panic", line, col, "panic in library code".into()));
        }

        // print-stdout: println!/eprintln!/print!/eprint! outside CLI code.
        if lib_ctx(line)
            && code.is(k + 1, "!")
            && ["println", "eprintln", "print", "eprint"]
                .iter()
                .any(|m| code.is_ident(k, m))
        {
            raw.push((
                "print-stdout",
                line,
                col,
                format!("{}! in non-CLI code", code.text(k)),
            ));
        }

        // as-truncate: narrowing `as` casts in wire-path files.
        if ctx.is_wire && !in_test(line) && code.is_ident(k, "as") {
            let target = code.text(k + 1);
            if NARROW_INTS.contains(&target) {
                raw.push((
                    "as-truncate",
                    line,
                    col,
                    format!("`as {target}` can silently truncate a wire value"),
                ));
            }
        }

        // result-string: `Result<_, String>` in a `pub fn` signature.
        if !in_test(line) && code.is_ident(k, "pub") {
            if let Some((rk, rline, rcol)) = pub_fn_returns_string_err(&code, k) {
                raw.push((
                    "result-string",
                    rline,
                    rcol,
                    format!("public `{}` returns Result<_, String>; use a typed error", rk),
                ));
            }
        }
    }

    // obs-in-wire: observability types inside derive(Serialize) shapes.
    obs_in_wire(&code, &mut raw);

    // map-iter runs on the blanked per-line code view: the declaration-
    // chasing heuristic is line-shaped, but the view is built from the
    // token stream so multi-line strings are already blanked.
    let view = lexer::code_view(src, &toks);
    let view_lines: Vec<&str> = view.lines().collect();
    let mut map_idents: Vec<String> = Vec::new();
    for l in &view_lines {
        if let Some(ident) = map_decl_ident(l) {
            if !map_idents.contains(&ident) {
                map_idents.push(ident);
            }
        }
    }
    for (ln, l) in view_lines.iter().enumerate() {
        if line_sorts(l) {
            continue;
        }
        for ident in &map_idents {
            if iterates_map(l, ident) {
                raw.push((
                    "map-iter",
                    (ln + 1) as u32,
                    1,
                    format!("iteration over map/set `{ident}` has nondeterministic order"),
                ));
                break;
            }
        }
    }

    // Suppression resolution: a pragma on the same line or the line
    // above. Everything else becomes a finding.
    let mut findings = Vec::new();
    for (rule_name, line, col, message) in raw {
        let mut suppressed = false;
        for p in pragmas.iter_mut() {
            if p.line == line || p.line + 1 == line {
                for (ri, r) in p.rules.iter().enumerate() {
                    if r == rule_name {
                        p.used[ri] = true;
                        suppressed = true;
                    }
                }
            }
        }
        if suppressed {
            continue;
        }
        let r = match rule(rule_name) {
            Some(r) => r,
            None => continue, // unreachable: passes only emit registered names
        };
        findings.push(LintFinding {
            rule: r.name,
            severity: r.severity,
            path: ctx.rel_path.clone(),
            line,
            col,
            message,
        });
    }

    // Stale pragmas: every listed rule must have suppressed something.
    for p in &pragmas {
        for (ri, r) in p.rules.iter().enumerate() {
            if p.used[ri] {
                continue;
            }
            let message = match rule(r) {
                Some(_) => format!(
                    "pragma allows `{r}` but nothing on this or the next line triggers it"
                ),
                None => format!("pragma names unknown rule `{r}`"),
            };
            findings.push(LintFinding {
                rule: "stale-pragma",
                severity: Severity::Warning,
                path: ctx.rel_path.clone(),
                line: p.line,
                col: 1,
                message,
            });
        }
    }
    findings
}

/// From a `pub` token, decide whether it opens a `pub fn` whose return
/// type is `Result<_, E>` with `String` inside `E`. Returns the function
/// name and the `Result` token's position.
fn pub_fn_returns_string_err(code: &Code, k: usize) -> Option<(String, u32, u32)> {
    let mut j = k + 1;
    // Visibility payload: pub(crate), pub(super), pub(in path).
    if code.is(j, "(") {
        let mut d = 1i32;
        j += 1;
        while j < code.len() && d > 0 {
            match code.text(j) {
                "(" => d += 1,
                ")" => d -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    // Qualifiers before `fn`.
    while ["const", "async", "unsafe", "extern"].iter().any(|q| code.is_ident(j, q))
        || code.kind(j) == Some(TokenKind::Str)
    {
        j += 1;
    }
    if !code.is_ident(j, "fn") {
        return None;
    }
    let name = code.text(j + 1).to_string();
    // Find the arrow, stopping at the body/terminator at depth zero.
    let mut depth = 0i32;
    let mut m = j + 2;
    let mut arrow = None;
    while m < code.len() {
        match code.text(m) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth == 0 => break,
            ">" if depth == 0 && code.is(m.saturating_sub(1), "-") => {
                arrow = Some(m + 1);
                break;
            }
            _ => {}
        }
        m += 1;
    }
    let start = arrow?;
    // Return-type region: until `{`, `;`, or a top-level `where`.
    let mut end = start;
    let mut d = 0i32;
    while end < code.len() {
        match code.text(end) {
            "(" | "[" | "<" => d += 1,
            ")" | "]" => d -= 1,
            ">" if d > 0 => d -= 1,
            "{" | ";" if d <= 0 => break,
            "where" if d <= 0 && code.kind(end) == Some(TokenKind::Ident) => break,
            _ => {}
        }
        end += 1;
    }
    // Inside the region: Result < ok , err > with String in err.
    let mut p = start;
    while p < end {
        if code.is_ident(p, "Result") && code.is(p + 1, "<") {
            let mut depth = 1i32;
            let mut q = p + 2;
            let mut comma = None;
            while q < end && depth > 0 {
                match code.text(q) {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "," if depth == 1 && comma.is_none() => comma = Some(q),
                    _ => {}
                }
                q += 1;
            }
            if let Some(c) = comma {
                for e in c + 1..q {
                    if code.is_ident(e, "String") {
                        return Some((name, code.line(p), code.col(p)));
                    }
                }
            }
        }
        p += 1;
    }
    None
}

// ---- map-iter heuristics (line-shaped, run over the blanked view) ----

/// Whether `code[idx]` starts a standalone occurrence of `ident`.
fn at_word(code: &str, idx: usize, len: usize) -> bool {
    let before_ok = idx == 0
        || !code[..idx]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
    let after = &code[idx + len..];
    let after_ok = !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Extract the identifier a line declares as a `HashMap`/`HashSet`, if any.
fn map_decl_ident(code: &str) -> Option<String> {
    if code.contains("fn ") || code.contains("->") {
        // Signatures declare parameters, not iterable locals.
        return None;
    }
    let pos = code.find("HashMap").or_else(|| code.find("HashSet"))?;
    let before = &code[..pos];
    let sep = before.rfind([':', '='])?;
    let head = before[..sep].trim_end().trim_end_matches(':');
    let ident: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if ident.is_empty() || ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(ident)
    }
}

/// Whether `code` iterates `ident` in an order-sensitive way.
fn iterates_map(code: &str, ident: &str) -> bool {
    const METHODS: &[&str] = &[".iter()", ".keys()", ".values()", ".into_iter()", ".drain("];
    let mut from = 0;
    while let Some(off) = code[from..].find(ident) {
        let idx = from + off;
        from = idx + ident.len();
        if !at_word(code, idx, ident.len()) {
            continue;
        }
        let after = &code[idx + ident.len()..];
        if METHODS.iter().any(|m| after.starts_with(m)) {
            return true;
        }
        // `for x in map` / `for x in &map` / `for x in &mut map`.
        let before = code[..idx].trim_end();
        let before = before.strip_suffix("&mut").unwrap_or(before).trim_end();
        let before = before.strip_suffix('&').unwrap_or(before).trim_end();
        if before.ends_with(" in") || before.ends_with("\tin") {
            let next = after.trim_start();
            if next.is_empty() || next.starts_with('{') || next.starts_with('.') {
                if after.trim_start().starts_with('.') {
                    // already handled by METHODS (e.g. `in map.keys()`)
                    continue;
                }
                return true;
            }
        }
    }
    false
}

/// Signals the line orders the iteration result, defusing `map-iter`.
fn line_sorts(code: &str) -> bool {
    code.contains("sort") || code.contains("BTreeMap") || code.contains("BTreeSet")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileContext {
        FileContext::classify("crates/demo/src/lib.rs")
    }

    fn scan(src: &str) -> Vec<LintFinding> {
        lint_source(&lib_ctx(), src)
    }

    fn rules_of(findings: &[LintFinding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn registry_is_unique_and_self_consistent() {
        for r in RULES {
            assert!(rule(r.name).is_some());
            assert!(!r.summary.is_empty() && !r.help.is_empty());
        }
        let mut names: Vec<_> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RULES.len(), "duplicate rule names");
        assert_eq!(rule("nondet-time").map(|r| r.severity), Some(Severity::Error));
        assert_eq!(rule("wire-drift").map(|r| r.severity), Some(Severity::Error));
        assert_eq!(rule("unwrap").map(|r| r.severity), Some(Severity::Warning));
    }

    #[test]
    fn multiline_fixture_strings_no_longer_trip_rules() {
        // The old line scanner's blind spot: a violation pattern inside a
        // multi-line string literal.
        let src = "fn f() -> String {\n    let fixture = \"fn g() {\n        let t = \
                   Instant::now();\n        let mut r = thread_rng();\n    }\";\n    \
                   fixture.to_string()\n}\n";
        assert_eq!(scan(src), vec![], "strings are data, not code");
    }

    #[test]
    fn spans_point_at_the_token() {
        let src = "fn f() {\n    let t = Instant::now();\n}\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), vec!["nondet-time"]);
        assert_eq!((f[0].line, f[0].col), (2, 13));
    }

    #[test]
    fn abort_rules_skip_tests_and_bins() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   pub fn g(x: Option<u8>) -> u8 { x.expect(\"set\") }\n\
                   pub fn h() { panic!(\"boom\"); }\n";
        assert_eq!(rules_of(&scan(src)), vec!["unwrap", "expect", "panic"]);
        for path in ["crates/demo/tests/it.rs", "src/bin/tool.rs"] {
            let ctx = FileContext::classify(path);
            let f = lint_source(&ctx, src);
            assert_eq!(f, vec![], "{path} should be exempt");
        }
    }

    #[test]
    fn cfg_test_regions_tracked_by_token_braces() {
        let src = "pub fn lib(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       const S: &str = \"}\"; // brace inside a string\n\
                       #[test]\n\
                       fn t() { Some(1).unwrap(); }\n\
                   }\n\
                   pub fn lib2(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), vec!["unwrap", "unwrap"]);
        assert_eq!(f[0].line, 1);
        assert_eq!(f[1].line, 8, "the string-brace must not desync the tracker");
    }

    #[test]
    fn unwrap_variants_do_not_match() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   pub fn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        assert_eq!(scan(src), vec![]);
    }

    #[test]
    fn print_macros_flagged_outside_cli() {
        let src = "pub fn f() { println!(\"x\"); eprintln!(\"y\"); }\n";
        assert_eq!(rules_of(&scan(src)), vec!["print-stdout", "print-stdout"]);
        let bin = FileContext::classify("src/bin/cloudy-repro.rs");
        assert_eq!(lint_source(&bin, src), vec![]);
    }

    #[test]
    fn as_truncate_only_in_wire_files() {
        let src = "pub fn tag(x: u64) -> u8 { x as u8 }\n";
        assert_eq!(scan(src), vec![], "non-wire files are exempt");
        let wire = FileContext::classify("crates/store/src/codec.rs");
        assert!(wire.is_wire);
        let f = lint_source(&wire, src);
        assert_eq!(rules_of(&f), vec!["as-truncate"]);
        // Widening casts never flag.
        let widen = "pub fn up(x: u8) -> u64 { x as u64 }\n";
        assert_eq!(lint_source(&wire, widen), vec![]);
    }

    #[test]
    fn result_string_in_public_signatures() {
        let src = "pub fn parse(s: &str) -> Result<u32, String> { s.parse().map_err(|_| \
                   format!(\"bad\")) }\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), vec!["result-string"]);
        assert!(f[0].message.contains("parse"), "{}", f[0].message);
        // Ok-position String is fine; typed errors are fine; private fns are fine.
        for ok in [
            "pub fn name() -> Result<String, Error> { todo() }\n",
            "pub fn go() -> Result<(), MeasureError> { Ok(()) }\n",
            "fn private() -> Result<(), String> { Ok(()) }\n",
        ] {
            assert_eq!(scan(ok), vec![], "{ok}");
        }
    }

    #[test]
    fn obs_types_flagged_only_in_serialize_shapes() {
        let src = "#[derive(Debug, Clone, Serialize)]\n\
                   pub struct Report {\n\
                       pub records: u64,\n\
                       pub snap: MetricsSnapshot,\n\
                   }\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), vec!["obs-in-wire"]);
        assert_eq!((f[0].line, f[0].col), (4, 11));
        assert_eq!(rule("obs-in-wire").map(|r| r.severity), Some(Severity::Error));
        // A qualified path flags both the crate name and the type.
        let tuple = "#[derive(Serialize, Deserialize)]\nstruct T(cloudy_obs::Obs);\n";
        assert_eq!(rules_of(&scan(tuple)), vec!["obs-in-wire", "obs-in-wire"]);
        // Enum variant payloads are inside the tracked body too.
        let en = "#[derive(Serialize)]\nenum E { A(u64), B(LocalShard) }\n";
        assert_eq!(rules_of(&scan(en)), vec!["obs-in-wire"]);
        // No Serialize derive, no wire shape: holding obs types is fine.
        for ok in [
            "pub struct Holder { pub obs: Obs, pub snap: MetricsSnapshot }\n",
            "#[derive(Debug, Clone)]\npub struct Holder { pub obs: Obs }\n",
            "#[derive(Deserialize)]\npub struct In { pub n: u64 }\n",
            "#[derive(Serialize)]\npub struct Clean { pub rows: u64, pub label: String }\n",
        ] {
            assert_eq!(scan(ok), vec![], "{ok}");
        }
        // A brace inside a field's default-string cannot desync the walk.
        let tricky = "#[derive(Serialize)]\n\
                      pub struct S { pub s: &'static str }\n\
                      const X: &str = \"}\";\n\
                      pub struct Free { pub obs: Obs }\n";
        assert_eq!(scan(tricky), vec![]);
    }

    #[test]
    fn obs_crate_may_read_the_wall_clock() {
        let src = "pub fn now() -> Instant { Instant::now() }\n";
        assert_eq!(rules_of(&scan(src)), vec!["nondet-time"]);
        let obs = FileContext::classify("crates/obs/src/registry.rs");
        assert_eq!(lint_source(&obs, src), vec![]);
    }

    #[test]
    fn map_iteration_flagged_unless_sorted() {
        let src = "fn f() {\n\
                       let mut index: HashMap<u32, u8> = HashMap::new();\n\
                       for (k, v) in &index { emit(k, v); }\n\
                       let mut ks: Vec<_> = index.keys().collect();\n\
                       ks.sort();\n\
                   }\n";
        let f = scan(src);
        assert!(rules_of(&f).contains(&"map-iter"), "{f:?}");
        let sorted = "fn f() {\n\
                          let mut index: HashMap<u32, u8> = HashMap::new();\n\
                          let mut keys: Vec<_> = index.keys().copied().collect::<Vec<_>>(); \
                      keys.sort();\n\
                          for k in keys { emit(k); }\n\
                      }\n";
        assert_eq!(scan(sorted), vec![]);
    }

    #[test]
    fn pragmas_suppress_same_and_next_line_and_go_stale() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // audit:allow(unwrap)\n\
                   // audit:allow(panic)\n\
                   pub fn g() { panic!(\"documented invariant\"); }\n";
        assert_eq!(scan(src), vec![]);
        // A pragma with nothing to suppress is itself a finding.
        let stale = "// audit:allow(unwrap)\npub fn ok() {}\n";
        let f = scan(stale);
        assert_eq!(rules_of(&f), vec!["stale-pragma"]);
        assert_eq!(f[0].line, 1);
        // And so is a pragma naming a rule that does not exist.
        let unknown = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // audit:allow(unwrappp)\n";
        let f = scan(unknown);
        assert_eq!(rules_of(&f), vec!["unwrap", "stale-pragma"]);
    }

    #[test]
    fn pragma_does_not_leak_past_one_line() {
        let src = "// audit:allow(unwrap)\n\
                   pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   pub fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let f = scan(src);
        assert_eq!(rules_of(&f), vec!["unwrap"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn doc_comment_pragma_examples_are_inert() {
        let src = "//! Suppress with `// audit:allow(unwrap)` on the line.\n\
                   /// Or `// audit:allow(expect)` like so.\n\
                   pub fn ok() {}\n";
        assert_eq!(scan(src), vec![], "doc comments neither suppress nor go stale");
    }

    #[test]
    fn report_orders_and_counts() {
        let mut r = LintReport::default();
        r.findings.push(LintFinding {
            rule: "unwrap",
            severity: Severity::Warning,
            path: "b.rs".into(),
            line: 2,
            col: 1,
            message: "m".into(),
        });
        r.findings.push(LintFinding {
            rule: "panic",
            severity: Severity::Warning,
            path: "a.rs".into(),
            line: 9,
            col: 1,
            message: "m".into(),
        });
        r.sort();
        let order: Vec<_> = r.findings.iter().map(|f| (f.path.as_str(), f.line)).collect();
        assert_eq!(order, vec![("a.rs", 9), ("b.rs", 2)], "sorted by path, every finding kept");
    }
}
