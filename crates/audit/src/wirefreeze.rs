//! The wire-format freeze pass.
//!
//! PRs 2–4 made the serialized record and store shapes a wire-level
//! contract: hand-written serde impls keep zero-fault exports byte-
//! identical to pre-fault datasets, and the chunk store's magics and tag
//! bytes are load-bearing. This pass makes that contract *static*: it
//! extracts the shape of every serialized entity in the wire-path files
//! (`crates/measure/src/record.rs`, `crates/store/src/`, and the serve
//! report shapes in `crates/serve/src/report.rs`) —
//!
//! * `#[derive(Serialize)]` structs and enums → field/variant names,
//!   order, and types (the compat `serde_derive` serializes named structs
//!   in declaration order, so declaration order *is* the wire order);
//! * hand-written `impl Serialize for T` blocks → the ordered object keys
//!   (the `("key".to_string(), …)` literals, in emission order);
//! * `pub const` byte-string magics and integer tag bytes → their values
//!
//! — and compares the result against the committed `wire.lock`. Any
//! drift (renamed field, reordered key, changed magic, new serialized
//! type) is a `wire-drift` **error** finding, caught at `cargo test` time
//! instead of by a determinism sha mismatch three layers later.
//!
//! Intentional format changes regenerate the lock with
//! `cloudy-repro audit lint --update-lock`; the diff to `wire.lock` then
//! documents the break in review.

use crate::detlint;
use crate::error::AuditError;
use crate::lexer::{self, TokenKind};
use crate::lints::{Code, LintFinding, LintReport};
use crate::finding::Severity;
use std::path::Path;

/// The committed lock file's name, at the workspace root.
pub const LOCK_FILE: &str = "wire.lock";

/// What kind of serialized entity an entry freezes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    DeriveStruct,
    DeriveEnum,
    ManualSerialize,
    Const,
}

impl WireKind {
    pub fn tag(self) -> &'static str {
        match self {
            WireKind::DeriveStruct => "derive-struct",
            WireKind::DeriveEnum => "derive-enum",
            WireKind::ManualSerialize => "manual-serialize",
            WireKind::Const => "const",
        }
    }

    fn from_tag(tag: &str) -> Option<WireKind> {
        match tag {
            "derive-struct" => Some(WireKind::DeriveStruct),
            "derive-enum" => Some(WireKind::DeriveEnum),
            "manual-serialize" => Some(WireKind::ManualSerialize),
            "const" => Some(WireKind::Const),
            _ => None,
        }
    }
}

/// One frozen entity: its identity plus the ordered item list that *is*
/// the wire shape (fields, variants, keys, or the const's value).
#[derive(Debug, Clone, PartialEq)]
pub struct WireEntry {
    pub kind: WireKind,
    /// Workspace-relative path of the defining file.
    pub path: String,
    pub name: String,
    pub items: Vec<String>,
    /// 1-based line of the definition (0 for entries parsed from the lock).
    pub line: u32,
}

impl WireEntry {
    fn key(&self) -> (&'static str, &str, &str) {
        (self.kind.tag(), &self.path, &self.name)
    }
}

/// Extract every wire entity from one file's source.
pub fn extract_file(rel_path: &str, src: &str) -> Vec<WireEntry> {
    let toks = lexer::lex(src);
    let code = Code::new(src, &toks);
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < code.len() {
        if code.is(k, "#") && code.is(k + 1, "[") {
            if let Some((next, entry)) = derive_entry(rel_path, &code, k) {
                if let Some(e) = entry {
                    out.push(e);
                }
                k = next;
                continue;
            }
        }
        if code.is_ident(k, "impl") {
            if let Some((next, entry)) = manual_serialize_entry(rel_path, &code, k) {
                out.push(entry);
                k = next;
                continue;
            }
        }
        if code.is_ident(k, "pub") && code.is_ident(k + 1, "const") {
            if let Some((next, entry)) = const_entry(rel_path, &code, k) {
                out.push(entry);
                k = next;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// From an attribute opener, recognise `#[derive(.. Serialize ..)]` and
/// freeze the item it decorates. Returns `(index past the item, entry)`;
/// the entry is `None` when the attribute is not a Serialize derive.
fn derive_entry(
    rel_path: &str,
    code: &Code,
    k: usize,
) -> Option<(usize, Option<WireEntry>)> {
    // Walk the attribute group, noting whether it is derive(..Serialize..).
    let mut depth = 1i32;
    let mut j = k + 2;
    let mut is_derive = false;
    let mut has_serialize = false;
    while j < code.len() && depth > 0 {
        match code.text(j) {
            "[" | "(" => depth += 1,
            "]" | ")" => depth -= 1,
            "derive" if code.kind(j) == Some(TokenKind::Ident) => is_derive = true,
            "Serialize" if code.kind(j) == Some(TokenKind::Ident) => has_serialize = true,
            _ => {}
        }
        j += 1;
    }
    if !(is_derive && has_serialize) {
        return Some((j, None));
    }
    // Skip further attributes, then visibility, to the item keyword.
    loop {
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
        if code.is_ident(j, "pub") {
            j += 1;
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
            continue;
        }
        break;
    }
    let kind = if code.is_ident(j, "struct") {
        WireKind::DeriveStruct
    } else if code.is_ident(j, "enum") {
        WireKind::DeriveEnum
    } else {
        return Some((j, None));
    };
    let name = code.text(j + 1).to_string();
    let line = code.line(j + 1);
    // Skip generics to the body opener.
    let mut b = j + 2;
    if code.is(b, "<") {
        let mut d = 1i32;
        b += 1;
        while b < code.len() && d > 0 {
            match code.text(b) {
                "<" => d += 1,
                ">" => d -= 1,
                _ => {}
            }
            b += 1;
        }
    }
    let (end, items) = match code.text(b) {
        "{" if kind == WireKind::DeriveStruct => struct_fields(code, b),
        "(" => tuple_fields(code, b),
        "{" => enum_variants(code, b),
        _ => (b + 1, Vec::new()), // unit struct
    };
    Some((end, Some(WireEntry { kind, path: rel_path.to_string(), name, items, line })))
}

/// Named struct body `{ pub a: T, … }` → `["a: T", …]`.
fn struct_fields(code: &Code, open: usize) -> (usize, Vec<String>) {
    let mut items = Vec::new();
    let mut j = open + 1;
    loop {
        j = skip_attrs_and_vis(code, j);
        if code.is(j, "}") || j >= code.len() {
            return (j + 1, items);
        }
        let fname = code.text(j).to_string();
        j += 1; // past the name
        if code.is(j, ":") {
            j += 1;
        }
        let (next, ty) = type_until_comma(code, j);
        items.push(format!("{fname}: {ty}"));
        j = next;
        if code.is(j, ",") {
            j += 1;
        }
    }
}

/// Tuple body `(T, U)` → `["0: T", "1: U"]`.
fn tuple_fields(code: &Code, open: usize) -> (usize, Vec<String>) {
    let mut items = Vec::new();
    let mut j = open + 1;
    let mut ix = 0usize;
    loop {
        j = skip_attrs_and_vis(code, j);
        if code.is(j, ")") || j >= code.len() {
            // A tuple *struct* ends `);` — consume the semicolon too.
            let mut end = j + 1;
            if code.is(end, ";") {
                end += 1;
            }
            return (end, items);
        }
        let (next, ty) = type_until_comma(code, j);
        items.push(format!("{ix}: {ty}"));
        ix += 1;
        j = next;
        if code.is(j, ",") {
            j += 1;
        }
    }
}

/// Enum body → `["Ok(f64)", "Lost", …]` in declaration order.
fn enum_variants(code: &Code, open: usize) -> (usize, Vec<String>) {
    let mut items = Vec::new();
    let mut j = open + 1;
    loop {
        j = skip_attrs_and_vis(code, j);
        if code.is(j, "}") || j >= code.len() {
            return (j + 1, items);
        }
        let vname = code.text(j).to_string();
        j += 1;
        if code.is(j, "(") {
            let (next, fields) = tuple_fields(code, j);
            let tys: Vec<String> =
                fields.iter().map(|f| f.split_once(": ").map(|(_, t)| t).unwrap_or(f).to_string()).collect();
            items.push(format!("{vname}({})", tys.join(", ")));
            j = next;
        } else if code.is(j, "{") {
            let (next, fields) = struct_fields(code, j);
            items.push(format!("{vname}{{{}}}", fields.join(", ")));
            j = next;
        } else {
            items.push(vname);
        }
        // Discriminant (`= N`) would matter for the wire, so keep it.
        if code.is(j, "=") {
            let disc = code.text(j + 1).to_string();
            if let Some(last) = items.last_mut() {
                last.push_str(&format!(" = {disc}"));
            }
            j += 2;
        }
        if code.is(j, ",") {
            j += 1;
        }
    }
}

/// Skip field/variant attributes and `pub`/`pub(..)` visibility.
fn skip_attrs_and_vis(code: &Code, mut j: usize) -> usize {
    loop {
        if code.is(j, "#") && code.is(j + 1, "[") {
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
            continue;
        }
        if code.is_ident(j, "pub") {
            j += 1;
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
            continue;
        }
        return j;
    }
}

/// Collect a type's tokens until a top-level `,`, `}`, or `)`.
fn type_until_comma(code: &Code, start: usize) -> (usize, String) {
    let mut depth = 0i32;
    let mut j = start;
    let mut parts: Vec<&str> = Vec::new();
    while j < code.len() {
        let t = code.text(j);
        match t {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" if depth > 0 => depth -= 1,
            "," | "}" | ")" | ";" if depth == 0 => break,
            _ => {}
        }
        parts.push(t);
        j += 1;
    }
    // Join compactly; keep a space between adjacent word-like tokens
    // (`dyn Trait`, `impl Fn`) so the rendering stays readable.
    let mut ty = String::new();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            let prev = parts[i - 1];
            let wordish = |s: &str| {
                s.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
            };
            if wordish(prev) && wordish(p) {
                ty.push(' ');
            }
        }
        ty.push_str(p);
    }
    (j, ty)
}

/// Recognise `impl Serialize for Name { … }` and freeze the ordered
/// object keys emitted inside — every `"key".to_string()` literal, in
/// source order, first occurrence wins.
fn manual_serialize_entry(rel_path: &str, code: &Code, k: usize) -> Option<(usize, WireEntry)> {
    if !(code.is_ident(k + 1, "Serialize") && code.is_ident(k + 2, "for")) {
        return None;
    }
    let name = code.text(k + 3).to_string();
    let line = code.line(k + 3);
    // Find the impl body and walk it.
    let mut j = k + 4;
    while j < code.len() && !code.is(j, "{") {
        j += 1;
    }
    let mut depth = 1i32;
    let mut items: Vec<String> = Vec::new();
    let mut m = j + 1;
    while m < code.len() && depth > 0 {
        match code.text(m) {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {
                if code.kind(m) == Some(TokenKind::Str)
                    && code.is(m + 1, ".")
                    && code.is_ident(m + 2, "to_string")
                    && code.is(m + 3, "(")
                    && code.is(m + 4, ")")
                {
                    let raw = code.text(m);
                    let key = raw.trim_matches('"').to_string();
                    if !items.contains(&key) {
                        items.push(key);
                    }
                }
            }
        }
        m += 1;
    }
    Some((m, WireEntry { kind: WireKind::ManualSerialize, path: rel_path.to_string(), name, items, line }))
}

/// Recognise `pub const NAME: … = <literal>;` where the literal is a
/// string/byte-string or number — the magics and tag bytes.
fn const_entry(rel_path: &str, code: &Code, k: usize) -> Option<(usize, WireEntry)> {
    let name = code.text(k + 2).to_string();
    let line = code.line(k + 2);
    // Walk the type annotation to the `=`; a `;` can appear *inside* the
    // type (`&[u8; 8]`), so only a depth-zero one terminates.
    let mut j = k + 3;
    let mut depth = 0i32;
    while j < code.len() {
        match code.text(j) {
            "[" | "(" | "<" => depth += 1,
            "]" | ")" => depth -= 1,
            ">" if depth > 0 => depth -= 1,
            "=" | ";" if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if !code.is(j, "=") {
        return None;
    }
    // Value must be a single literal token followed by `;`.
    let v = j + 1;
    let lit = match code.kind(v) {
        Some(TokenKind::Str) | Some(TokenKind::Number) if code.is(v + 1, ";") => {
            code.text(v).to_string()
        }
        _ => return None,
    };
    Some((v + 2, WireEntry { kind: WireKind::Const, path: rel_path.to_string(), name, items: vec![lit], line }))
}

/// Extract every wire entity across the workspace's wire-path files,
/// in deterministic (path, line) order.
pub fn extract_workspace(root: &Path) -> Result<Vec<WireEntry>, AuditError> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        detlint::collect_rs_files(&crates, &mut files)?;
    }
    files.sort();
    let mut entries = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .map_err(|e| AuditError::config(format!("{}: {e}", f.display())))?
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = detlint::FileContext::classify(&rel);
        if !ctx.is_wire || ctx.is_test {
            continue;
        }
        let src = std::fs::read_to_string(f).map_err(|e| AuditError::io(rel.clone(), e))?;
        entries.extend(extract_file(&rel, &src));
    }
    entries.sort_by(|a, b| (&a.path, a.line, &a.name).cmp(&(&b.path, b.line, &b.name)));
    Ok(entries)
}

/// 64-bit FNV-1a over the canonical lock body — cheap, dependency-free,
/// and stable across platforms.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The canonical body: one `[kind path name]` header per entry, one item
/// per line, a blank line between entries.
fn render_body(entries: &[WireEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str(&format!("[{} {} {}]\n", e.kind.tag(), e.path, e.name));
        for item in &e.items {
            out.push_str(item);
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Render the complete lock file (header comments, fingerprint, body).
pub fn render_lock(entries: &[WireEntry]) -> String {
    let body = render_body(entries);
    format!(
        "# wire.lock — frozen serialized shapes of the measurement records and the\n\
         # chunk store format. Regenerate with `cloudy-repro audit lint --update-lock`\n\
         # after an *intentional* wire change; the diff to this file is the review\n\
         # record of the break. Any other mismatch is a wire-drift audit error.\n\
         fingerprint = {:016x}\n\n{body}",
        fnv1a(&body),
    )
}

/// Parse a lock file, verifying its fingerprint.
pub fn parse_lock(text: &str) -> Result<Vec<WireEntry>, AuditError> {
    let mut entries: Vec<WireEntry> = Vec::new();
    let mut fingerprint: Option<u64> = None;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim_start().starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("fingerprint") {
            let hex = rest.trim_start().strip_prefix('=').map(str::trim).ok_or_else(|| {
                AuditError::config(format!("wire.lock:{}: malformed fingerprint line", ln + 1))
            })?;
            fingerprint = Some(u64::from_str_radix(hex, 16).map_err(|e| {
                AuditError::config(format!("wire.lock:{}: bad fingerprint: {e}", ln + 1))
            })?);
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let parts: Vec<&str> = header.splitn(3, ' ').collect();
            let [tag, path, name] = parts.as_slice() else {
                return Err(AuditError::config(format!(
                    "wire.lock:{}: header wants `[kind path name]`",
                    ln + 1
                )));
            };
            let kind = WireKind::from_tag(tag).ok_or_else(|| {
                AuditError::config(format!("wire.lock:{}: unknown kind {tag:?}", ln + 1))
            })?;
            entries.push(WireEntry {
                kind,
                path: path.to_string(),
                name: name.to_string(),
                items: Vec::new(),
                line: 0,
            });
            continue;
        }
        let entry = entries.last_mut().ok_or_else(|| {
            AuditError::config(format!("wire.lock:{}: item before any header", ln + 1))
        })?;
        entry.items.push(line.to_string());
    }
    let recorded = fingerprint
        .ok_or_else(|| AuditError::config("wire.lock: missing fingerprint line"))?;
    let actual = fnv1a(&render_body(&entries));
    if recorded != actual {
        return Err(AuditError::config(format!(
            "wire.lock: fingerprint mismatch (recorded {recorded:016x}, body hashes to \
             {actual:016x}); the lock was hand-edited — regenerate with --update-lock"
        )));
    }
    Ok(entries)
}

/// Diff current extraction against the lock; every divergence is one
/// `wire-drift` error finding.
pub fn compare(current: &[WireEntry], locked: &[WireEntry]) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let drift = |path: &str, line: u32, message: String| LintFinding {
        rule: "wire-drift",
        severity: Severity::Error,
        path: path.to_string(),
        line,
        col: 1,
        message,
        baselined: false,
    };
    for l in locked {
        match current.iter().find(|c| c.key() == l.key()) {
            None => findings.push(drift(
                &l.path,
                0,
                format!(
                    "frozen {} `{}` is gone from {}; wire shapes cannot silently disappear",
                    l.kind.tag(),
                    l.name,
                    l.path
                ),
            )),
            Some(c) if c.items != l.items => {
                let detail = first_divergence(&l.items, &c.items);
                findings.push(drift(
                    &c.path,
                    c.line,
                    format!("{} `{}` drifted from wire.lock: {detail}", c.kind.tag(), c.name),
                ));
            }
            Some(_) => {}
        }
    }
    for c in current {
        if !locked.iter().any(|l| l.key() == c.key()) {
            findings.push(drift(
                &c.path,
                c.line,
                format!(
                    "new serialized {} `{}` is not frozen; add it with --update-lock",
                    c.kind.tag(),
                    c.name
                ),
            ));
        }
    }
    findings
}

fn first_divergence(lock: &[String], tree: &[String]) -> String {
    for (i, (l, t)) in lock.iter().zip(tree.iter()).enumerate() {
        if l != t {
            return format!("item {} was `{l}`, tree has `{t}`", i + 1);
        }
    }
    if lock.len() < tree.len() {
        format!("tree adds `{}`", tree[lock.len()])
    } else {
        format!("tree drops `{}`", lock[tree.len()])
    }
}

/// Run the freeze check: extract, load `<root>/wire.lock`, diff. A
/// missing lock is itself a drift finding (the formats are unfrozen), not
/// an error — first-run repos see one actionable finding, not a crash.
pub fn check_workspace(root: &Path) -> Result<LintReport, AuditError> {
    let current = extract_workspace(root)?;
    let lock_path = root.join(LOCK_FILE);
    // files_scanned stays 0: this pass scans wire *entities*, not files,
    // so merging into a detlint report must not inflate its file count.
    let mut report = LintReport { findings: Vec::new(), files_scanned: 0 };
    match std::fs::read_to_string(&lock_path) {
        Ok(text) => {
            let locked = parse_lock(&text)?;
            report.findings = compare(&current, &locked);
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            report.findings.push(LintFinding {
                rule: "wire-drift",
                severity: Severity::Error,
                path: LOCK_FILE.into(),
                line: 0,
                col: 0,
                message: "wire.lock missing; freeze the wire formats with \
                          `cloudy-repro audit lint --update-lock`"
                    .into(),
                baselined: false,
            });
        }
        Err(e) => return Err(AuditError::io(LOCK_FILE, e)),
    }
    report.sort();
    Ok(report)
}

/// Regenerate `<root>/wire.lock` from the tree. Returns the rendered
/// lock text (also written to disk).
pub fn update_lock(root: &Path) -> Result<String, AuditError> {
    let entries = extract_workspace(root)?;
    let text = render_lock(&entries);
    std::fs::write(root.join(LOCK_FILE), &text).map_err(|e| AuditError::io(LOCK_FILE, e))?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD_SRC: &str = r#"
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskOutcome {
    Ok(f64),
    Lost,
    Timeout(f64),
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HopRecord {
    pub ttl: u8,
    pub ip: Option<Ipv4Addr>,
    pub rtt_ms: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct NotSerialized {
    pub x: u8,
}

impl Serialize for PingRecord {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("probe".to_string(), self.probe.to_value()),
            ("platform".to_string(), self.platform.to_value()),
        ];
        match self.outcome {
            TaskOutcome::Ok(rtt) => fields.push(("rtt_ms".to_string(), rtt.to_value())),
            ref failed => fields.push(("outcome".to_string(), failed.to_value())),
        }
        fields.push(("hour".to_string(), self.hour.to_value()));
        serde::Value::Object(fields)
    }
}

pub const MAGIC: &[u8; 8] = b"CLDYSTO1";
pub const RTT_MICROS: u8 = 0;
"#;

    #[test]
    fn extracts_derives_impls_and_consts() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let names: Vec<(&str, &str)> =
            entries.iter().map(|e| (e.kind.tag(), e.name.as_str())).collect();
        assert_eq!(
            names,
            vec![
                ("derive-enum", "TaskOutcome"),
                ("derive-struct", "HopRecord"),
                ("manual-serialize", "PingRecord"),
                ("const", "MAGIC"),
                ("const", "RTT_MICROS"),
            ],
            "{entries:#?}"
        );
        assert_eq!(entries[0].items, vec!["Ok(f64)", "Lost", "Timeout(f64)"]);
        assert_eq!(
            entries[1].items,
            vec!["ttl: u8", "ip: Option<Ipv4Addr>", "rtt_ms: Option<f64>"]
        );
        assert_eq!(
            entries[2].items,
            vec!["probe", "platform", "rtt_ms", "outcome", "hour"],
            "keys in emission order"
        );
        assert_eq!(entries[3].items, vec!["b\"CLDYSTO1\""]);
        assert_eq!(entries[4].items, vec!["0"]);
    }

    #[test]
    fn lock_round_trips_with_fingerprint() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let text = render_lock(&entries);
        let parsed = parse_lock(&text).expect("lock parses");
        assert_eq!(parsed.len(), entries.len());
        for (p, e) in parsed.iter().zip(entries.iter()) {
            assert_eq!(p.kind, e.kind);
            assert_eq!(p.name, e.name);
            assert_eq!(p.items, e.items);
        }
        assert_eq!(compare(&entries, &parsed), vec![], "round trip is drift-free");
    }

    #[test]
    fn hand_edited_lock_is_rejected() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let text = render_lock(&entries).replace("Ok(f64)", "Ok(f32)");
        let err = parse_lock(&text).expect_err("fingerprint mismatch");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn renamed_field_is_drift() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let locked = parse_lock(&render_lock(&entries)).expect("parses");
        let mutated = RECORD_SRC.replace("pub rtt_ms: Option<f64>", "pub rtt: Option<f64>");
        let current = extract_file("crates/measure/src/record.rs", &mutated);
        let findings = compare(&current, &locked);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "wire-drift");
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("rtt_ms"), "{}", findings[0].message);
    }

    #[test]
    fn reordered_keys_and_changed_magic_are_drift() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let locked = parse_lock(&render_lock(&entries)).expect("parses");
        let reordered = RECORD_SRC
            .replace("(\"probe\".to_string()", "(\"zprobe\".to_string()")
            .replace("b\"CLDYSTO1\"", "b\"CLDYSTO2\"");
        let current = extract_file("crates/measure/src/record.rs", &reordered);
        let findings = compare(&current, &locked);
        let rules: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 2, "{rules:#?}");
    }

    #[test]
    fn removed_and_added_types_are_drift() {
        let entries = extract_file("crates/measure/src/record.rs", RECORD_SRC);
        let locked = parse_lock(&render_lock(&entries)).expect("parses");
        let shrunk: Vec<WireEntry> =
            entries.iter().filter(|e| e.name != "HopRecord").cloned().collect();
        let gone = compare(&shrunk, &locked);
        assert_eq!(gone.len(), 1);
        assert!(gone[0].message.contains("gone"), "{}", gone[0].message);
        let grown = RECORD_SRC.to_string()
            + "#[derive(Serialize)]\npub struct NewRec { pub a: u8 }\n";
        let current = extract_file("crates/measure/src/record.rs", &grown);
        let added = compare(&current, &locked);
        assert_eq!(added.len(), 1);
        assert!(added[0].message.contains("not frozen"), "{}", added[0].message);
    }
}
