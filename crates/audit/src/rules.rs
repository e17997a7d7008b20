//! The audit rules and the suppression machinery.
//!
//! Every rule works on the token stream of one file (comments and
//! string literals are first-class tokens, so rules never match inside
//! them by accident) plus the file's workspace-relative path, which is
//! what scopes a rule to "digest-feeding crates" or "the service
//! layer". Findings carry exact `file:line` positions.
//!
//! | id | severity | scope | invariant |
//! |----|----------|-------|-----------|
//! | D1 | deny | engine crates | no unordered `HashMap`/`HashSet` iteration |
//! | D2 | deny | everywhere | no wall-clock / entropy / env reads |
//! | D3 | deny | engine crates | no `std::fs` outside `dcsim/src/checkpoint.rs` |
//! | R1 | deny | service layer | no `.unwrap()` / `.expect(` / panicking macros |
//! | S1 | deny | everywhere | `unsafe` requires a `// SAFETY:` comment |
//! | A0 | deny | everywhere | suppression comments must be well-formed |
//! | A1 | deny | everywhere | suppressions must suppress something |
//!
//! Suppression syntax — inline only, same line or the line above:
//!
//! ```text
//! // audit:allow(D2): wall-clock guard in a test; never feeds state
//! ```
//!
//! The reason is mandatory (empty reasons are an A0 violation), and a
//! suppression that matches no finding is an A1 violation, so stale
//! allows rot loudly instead of silently.

use crate::lexer::{Token, TokenKind};
use std::collections::BTreeSet;
use std::fmt;

/// Stable rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Unordered hash-container iteration in digest-feeding crates.
    D1,
    /// Wall-clock, entropy or environment reads in engine code.
    D2,
    /// Filesystem access in engine crates outside the checkpoint module.
    D3,
    /// Panicking calls in the long-running service layer.
    R1,
    /// `unsafe` without a `// SAFETY:` comment.
    S1,
    /// Malformed `audit:allow` suppression.
    A0,
    /// Unused `audit:allow` suppression.
    A1,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 7] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::R1,
        RuleId::S1,
        RuleId::A0,
        RuleId::A1,
    ];

    /// The id as printed in findings and written in suppressions.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::R1 => "R1",
            RuleId::S1 => "S1",
            RuleId::A0 => "A0",
            RuleId::A1 => "A1",
        }
    }

    /// Parses a suppression's rule name.
    pub fn parse(text: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.as_str() == text)
    }

    /// One-line description for `--list-rules` and the docs table.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no unordered HashMap/HashSet iteration in digest-feeding crates \
                 (iteration order would leak into reports)"
            }
            RuleId::D2 => {
                "no SystemTime/Instant/entropy/env reads without an inline \
                 audit:allow(D2) (runs must be input-determined)"
            }
            RuleId::D3 => {
                "no std::fs in engine crates outside dcsim/src/checkpoint.rs \
                 (file I/O belongs to the harness and checkpoint layers)"
            }
            RuleId::R1 => {
                "no .unwrap()/.expect(/panic-family macros in the service layer \
                 (malformed input must never kill the session)"
            }
            RuleId::S1 => "every `unsafe` needs a `// SAFETY:` comment on or above it",
            RuleId::A0 => "audit:allow suppressions must name a known rule and a non-empty reason",
            RuleId::A1 => "audit:allow suppressions must suppress an actual finding",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violation, pinned to a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A parsed, well-formed `audit:allow` comment.
#[derive(Debug, Clone)]
struct Suppression {
    rule: RuleId,
    line: u32,
}

/// Crates whose state feeds `SimulationReport::digest()`. Anything here
/// iterating an unordered container can silently change the goldens.
const D1_SCOPE: [&str; 8] = [
    "crates/types/",
    "crates/workload/",
    "crates/energy/",
    "crates/network/",
    "crates/dcsim/",
    "crates/scenarios/",
    "crates/core/",
    "crates/baselines/",
];

/// Engine crates: pure functions of config + seed. File I/O belongs to
/// the bench harness and the checkpoint layer, never to simulation
/// state transitions.
const D3_SCOPE: [&str; 5] = [
    "crates/core/",
    "crates/dcsim/",
    "crates/workload/",
    "crates/energy/",
    "crates/network/",
];

/// The one engine module whose whole job is file I/O: `.gpck`
/// checkpoint save/load (tmp-and-rename writes, strict reads).
const D3_EXEMPT: [&str; 1] = ["crates/dcsim/src/checkpoint.rs"];

/// The long-running service layer: the protocol promise is that no
/// input — malformed, mistimed or hostile — ever kills the session.
const R1_SCOPE: [&str; 3] = [
    "crates/bench/src/serve.rs",
    "crates/bench/src/json.rs",
    "crates/bench/src/bin/geoplace_serve.rs",
];

/// Hash-container methods whose visit order is the hasher's business.
/// (`retain` mutates per-entry but still observes the order through a
/// caller-supplied closure, so it is in.)
const UNORDERED_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
    "retain",
];

/// Audits one file: runs every applicable rule, applies suppressions,
/// reports malformed (A0) and unused (A1) suppressions.
pub fn audit_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let tokens = crate::lexer::lex(src);
    let (suppressions, mut findings) = collect_suppressions(rel_path, src, &tokens);

    if D1_SCOPE.iter().any(|p| rel_path.starts_with(p)) {
        findings.extend(check_d1(rel_path, src, &tokens));
    }
    findings.extend(check_d2(rel_path, src, &tokens));
    if D3_SCOPE.iter().any(|p| rel_path.starts_with(p)) && !D3_EXEMPT.contains(&rel_path) {
        findings.extend(check_d3(rel_path, src, &tokens));
    }
    if R1_SCOPE.contains(&rel_path) {
        findings.extend(check_r1(rel_path, src, &tokens));
    }
    findings.extend(check_s1(rel_path, src, &tokens));

    // A suppression covers findings of its rule on its own line or the
    // line below (comment-above style).
    let mut used = vec![false; suppressions.len()];
    findings.retain(|f| {
        let mut keep = true;
        for (i, s) in suppressions.iter().enumerate() {
            if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                used[i] = true;
                keep = false;
            }
        }
        keep
    });
    for (s, used) in suppressions.iter().zip(used) {
        if !used {
            findings.push(Finding {
                rule: RuleId::A1,
                path: rel_path.to_owned(),
                line: s.line,
                message: format!(
                    "unused suppression: no {} finding on this or the next line — \
                     delete it or move it next to the violation",
                    s.rule
                ),
            });
        }
    }
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

/// Extracts suppressions from comments; malformed ones become A0
/// findings immediately.
fn collect_suppressions(
    rel_path: &str,
    src: &str,
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut suppressions = Vec::new();
    let mut findings = Vec::new();
    for token in tokens {
        let text = token.text(src);
        // Only plain comments can suppress: doc comments (`///`, `//!`,
        // `/**`, `/*!`) merely *talk about* code — their example
        // snippets must not silence anything.
        let content = match token.kind {
            TokenKind::LineComment => {
                let body = text.strip_prefix("//").unwrap_or(text);
                if body.starts_with('/') || body.starts_with('!') {
                    continue;
                }
                body
            }
            TokenKind::BlockComment => {
                let body = text.strip_prefix("/*").unwrap_or(text);
                if body.starts_with('*') || body.starts_with('!') {
                    continue;
                }
                body.strip_suffix("*/").unwrap_or(body)
            }
            _ => continue,
        };
        // Anchored: the suppression must be the comment's content, not
        // a prose mention of the syntax.
        let content = content.trim();
        if !content.starts_with("audit:allow") {
            continue;
        }
        let at = 0;
        let text = content;
        let mut fail = |message: String| {
            findings.push(Finding {
                rule: RuleId::A0,
                path: rel_path.to_owned(),
                line: token.line,
                message,
            });
        };
        let rest = &text[at + "audit:allow".len()..];
        let Some(rest) = rest.strip_prefix('(') else {
            fail("malformed suppression: expected `audit:allow(<rule>): <reason>`".to_owned());
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("malformed suppression: missing `)` after the rule id".to_owned());
            continue;
        };
        let rule_name = rest[..close].trim();
        let Some(rule) = RuleId::parse(rule_name) else {
            fail(format!(
                "unknown rule {rule_name:?} in suppression (known: D1, D2, D3, R1, S1)"
            ));
            continue;
        };
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => suppressions.push(Suppression {
                rule,
                line: token.line,
            }),
            _ => fail(format!(
                "suppression of {rule} needs a non-empty reason: `audit:allow({rule}): <why>`"
            )),
        }
    }
    (suppressions, findings)
}

/// Is this token an identifier with the given text?
fn is_ident(token: &Token, src: &str, text: &str) -> bool {
    token.kind == TokenKind::Ident && token.text(src) == text
}

/// The code-only view: comments dropped, original indices kept so
/// findings can still point at real lines.
fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect()
}

/// D1 — unordered iteration over `HashMap`/`HashSet` values.
///
/// Pass 1 marks, per file, every identifier *declared* with a hash
/// type: `name: HashMap<…>` (fields, params, typed lets) and
/// `let name = HashMap::new()`-style initializers (including
/// `collect::<HashMap<…>>()` turbofish in the initializer). Pass 2
/// flags `name.iter()` & friends and `for … in &name` loops on marked
/// names (the last path segment, so `self.name` matches too).
///
/// Lookups (`get`, `contains_key`, `insert`, `entry`, `len`) never
/// match: a hash map used as a keyed index is exactly what the type is
/// for. Cross-file knowledge is out of scope by design — a map that
/// escapes its file should be a `BTreeMap` if anyone iterates it.
fn check_d1(rel_path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let code = code_tokens(tokens);
    let mut hashed: BTreeSet<&str> = BTreeSet::new();

    // Pass 1a: `name : … HashMap/HashSet …` up to a depth-0 delimiter.
    for i in 0..code.len() {
        if code[i].kind != TokenKind::Ident {
            continue;
        }
        if !matches!(code.get(i + 1), Some(t) if t.kind == TokenKind::Punct && t.text(src) == ":") {
            continue;
        }
        // `::` paths are two adjacent `:` puncts — skip those.
        if matches!(code.get(i + 2), Some(t) if t.kind == TokenKind::Punct && t.text(src) == ":") {
            continue;
        }
        if i > 0 && code[i - 1].kind == TokenKind::Punct && code[i - 1].text(src) == ":" {
            continue;
        }
        let mut depth = 0i32;
        for t in code.iter().skip(i + 2).take(64) {
            let text = t.text(src);
            match text {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," | ";" | "=" | "{" | "}" if depth == 0 => break,
                "HashMap" | "HashSet" if t.kind == TokenKind::Ident => {
                    hashed.insert(code[i].text(src));
                    break;
                }
                _ => {}
            }
            let _ = text;
        }
    }

    // Pass 1b: `let [mut] name = … HashMap/HashSet … ;`
    for i in 0..code.len() {
        if !is_ident(code[i], src, "let") {
            continue;
        }
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| is_ident(t, src, "mut")) {
            j += 1;
        }
        let Some(name) = code.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !matches!(code.get(j + 1), Some(t) if t.kind == TokenKind::Punct && t.text(src) == "=") {
            continue;
        }
        for t in code.iter().skip(j + 2).take(96) {
            let text = t.text(src);
            if text == ";" {
                break;
            }
            if t.kind == TokenKind::Ident && (text == "HashMap" || text == "HashSet") {
                hashed.insert(name.text(src));
                break;
            }
        }
    }

    if hashed.is_empty() {
        return Vec::new();
    }

    let mut findings = Vec::new();
    let mut flag = |line: u32, name: &str, how: &str| {
        findings.push(Finding {
            rule: RuleId::D1,
            path: rel_path.to_owned(),
            line,
            message: format!(
                "unordered iteration over hash container `{name}` via {how} — \
                 visit order depends on the hasher; use BTreeMap/BTreeSet or \
                 sort before iterating"
            ),
        });
    };

    for i in 0..code.len() {
        // `name.method(` with method in the unordered set.
        if code[i].kind == TokenKind::Ident && hashed.contains(code[i].text(src)) {
            let dot = matches!(code.get(i + 1), Some(t) if t.text(src) == ".");
            if dot
                && matches!(code.get(i + 2), Some(m) if m.kind == TokenKind::Ident
                    && UNORDERED_METHODS.contains(&m.text(src)))
                && matches!(code.get(i + 3), Some(t) if t.text(src) == "(")
            {
                let method = code[i + 2].text(src);
                flag(code[i + 2].line, code[i].text(src), &format!(".{method}()"));
            }
        }
        // `for pat in [& [mut]] [self.]name {`
        if is_ident(code[i], src, "for") {
            // Find the `in` within a short window (patterns are small).
            let Some(in_at) =
                (i + 1..(i + 12).min(code.len())).find(|&k| is_ident(code[k], src, "in"))
            else {
                continue;
            };
            // The iterated expression must be a plain path ending in a
            // marked name, terminated by `{`.
            let mut k = in_at + 1;
            let mut last_ident: Option<&Token> = None;
            let mut simple = true;
            while let Some(t) = code.get(k) {
                let text = t.text(src);
                if text == "{" {
                    break;
                }
                match t.kind {
                    TokenKind::Ident => last_ident = Some(t),
                    TokenKind::Punct if matches!(text, "&" | ".") => {}
                    _ => {
                        simple = false;
                        break;
                    }
                }
                k += 1;
            }
            if simple {
                if let Some(name) = last_ident {
                    if hashed.contains(name.text(src)) {
                        flag(name.line, name.text(src), "a `for … in` loop");
                    }
                }
            }
        }
    }
    findings
}

/// D2 — wall-clock, entropy and environment reads.
fn check_d2(rel_path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let code = code_tokens(tokens);
    let mut findings = Vec::new();
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        let offence: Option<String> = match text {
            // `Instant::now` / `SystemTime::now`
            "Instant" | "SystemTime"
                if matches!(code.get(i + 1), Some(c) if c.text(src) == ":")
                    && matches!(code.get(i + 2), Some(c) if c.text(src) == ":")
                    && matches!(code.get(i + 3), Some(n) if is_ident(n, src, "now")) =>
            {
                Some(format!("{text}::now() reads the wall clock"))
            }
            // `env::var` / `env::var_os`
            "env"
                if matches!(code.get(i + 1), Some(c) if c.text(src) == ":")
                    && matches!(code.get(i + 2), Some(c) if c.text(src) == ":")
                    && matches!(code.get(i + 3), Some(n) if n.kind == TokenKind::Ident
                    && matches!(n.text(src), "var" | "var_os")) =>
            {
                Some("env::var reads the process environment".to_owned())
            }
            "thread_rng" => Some("thread_rng() is OS-entropy-seeded".to_owned()),
            "from_entropy" => Some("from_entropy() seeds from OS entropy".to_owned()),
            "RandomState" => Some("RandomState hashes with a per-process random key".to_owned()),
            "available_parallelism" => {
                Some("available_parallelism() depends on the host machine".to_owned())
            }
            _ => None,
        };
        if let Some(what) = offence {
            findings.push(Finding {
                rule: RuleId::D2,
                path: rel_path.to_owned(),
                line: t.line,
                message: format!(
                    "{what} — engine behavior must be a function of config + seed only"
                ),
            });
        }
    }
    findings
}

/// D3 — filesystem access in engine crates.
///
/// Matches the `fs` path segment followed by `::` — this catches both
/// fully-qualified `std::fs::read(...)` calls and `use std::fs::…`
/// imports (and the `fs::read(...)` call sites such an import
/// enables). `crates/dcsim/src/checkpoint.rs` is exempted by path: it
/// is the designated save/load boundary.
fn check_d3(rel_path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let code = code_tokens(tokens);
    let mut findings = Vec::new();
    for i in 0..code.len() {
        if !is_ident(code[i], src, "fs") {
            continue;
        }
        let qualifies = matches!(code.get(i + 1), Some(c) if c.text(src) == ":")
            && matches!(code.get(i + 2), Some(c) if c.text(src) == ":");
        if qualifies {
            findings.push(Finding {
                rule: RuleId::D3,
                path: rel_path.to_owned(),
                line: code[i].line,
                message: "std::fs in an engine crate — file I/O belongs to the bench \
                          harness or dcsim/src/checkpoint.rs, not simulation code"
                    .to_owned(),
            });
        }
    }
    findings
}

/// R1 — panicking calls in the service layer.
fn check_r1(rel_path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let code = code_tokens(tokens);
    let mut findings = Vec::new();
    let mut flag = |line: u32, what: &str| {
        findings.push(Finding {
            rule: RuleId::R1,
            path: rel_path.to_owned(),
            line,
            message: format!(
                "{what} can panic — the serve protocol promises malformed input \
                 never kills the session; return a structured error instead"
            ),
        });
    };
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        match text {
            // `.unwrap(` / `.expect(` — require the leading dot so `fn
            // unwrap` definitions and free fns don't match.
            "unwrap" | "expect"
                if i > 0
                    && code[i - 1].text(src) == "."
                    && matches!(code.get(i + 1), Some(p) if p.text(src) == "(") =>
            {
                flag(t.line, &format!(".{text}()"));
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if matches!(code.get(i + 1), Some(p) if p.text(src) == "!") =>
            {
                flag(t.line, &format!("{text}!"));
            }
            _ => {}
        }
    }
    findings
}

/// S1 — `unsafe` requires a `// SAFETY:` comment on it or just above.
fn check_s1(rel_path: &str, src: &str, tokens: &[Token]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !is_ident(t, src, "unsafe") {
            continue;
        }
        // A SAFETY: comment anywhere on the same line or the two lines
        // above satisfies the rule.
        let documented = tokens.iter().take(i).rev().any(|c| {
            matches!(c.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && c.line + 2 >= t.line
                && c.text(src).contains("SAFETY:")
        });
        if !documented {
            findings.push(Finding {
                rule: RuleId::S1,
                path: rel_path.to_owned(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment — state the invariant \
                          that makes this sound, directly above the block"
                    .to_owned(),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit_at(path: &str, src: &str) -> Vec<Finding> {
        audit_file(path, src)
    }

    #[test]
    fn d1_flags_iteration_but_not_lookup() {
        let src = r#"
            use std::collections::HashMap;
            struct S { index: HashMap<u32, u32> }
            fn f(s: &S) -> Vec<u32> {
                let ok = s.index.get(&1); // lookup: fine
                let mut m: HashMap<u32, u32> = HashMap::new();
                m.insert(1, 2);
                for (k, v) in &m { println!("{k}{v}"); }
                m.keys().copied().collect()
            }
        "#;
        let f = audit_at("crates/workload/src/x.rs", src);
        let d1: Vec<&Finding> = f.iter().filter(|f| f.rule == RuleId::D1).collect();
        assert_eq!(d1.len(), 2, "{f:?}");
        assert!(d1[0].message.contains("for"), "{}", d1[0]);
        assert!(d1[1].message.contains(".keys()"), "{}", d1[1]);
    }

    #[test]
    fn d1_is_scoped_to_engine_crates() {
        let src = "fn f(m: std::collections::HashMap<u32,u32>) { for x in &m { let _ = x; } }";
        assert!(audit_at("crates/bench/src/x.rs", src).is_empty());
        assert_eq!(audit_at("crates/dcsim/src/x.rs", src).len(), 1);
    }

    #[test]
    fn d2_flags_clock_and_entropy_and_suppression_works() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = audit_at("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::D2);
        assert_eq!(f[0].line, 1);

        let suppressed = "// audit:allow(D2): test-only timing guard\n\
                          fn f() { let t = std::time::Instant::now(); }";
        assert!(audit_at("crates/core/src/x.rs", suppressed).is_empty());
    }

    #[test]
    fn d3_forbids_fs_in_engine_crates_except_the_checkpoint_module() {
        let src = r#"fn f() { let _ = std::fs::read("x"); }"#;
        let f = audit_at("crates/workload/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::D3);
        assert!(f[0].message.contains("checkpoint"), "{}", f[0]);

        // The designated I/O boundary and non-engine crates are exempt.
        assert!(audit_at("crates/dcsim/src/checkpoint.rs", src).is_empty());
        assert!(audit_at("crates/bench/src/x.rs", src).is_empty());

        // An import counts too — it is what enables the call sites.
        let imported = "use std::fs::read;\nfn f() {}";
        let f = audit_at("crates/energy/src/x.rs", imported);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::D3);
    }

    #[test]
    fn r1_flags_only_the_service_layer() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(audit_at("crates/bench/src/serve.rs", src).len(), 1);
        assert!(audit_at("crates/bench/src/table.rs", src).is_empty());
    }

    #[test]
    fn r1_ignores_result_returning_expect_methods_without_dot() {
        let src =
            "impl P { fn expect(&mut self, b: u8) -> Result<(), String> { Err(String::new()) } }";
        assert!(audit_at("crates/bench/src/json.rs", src).is_empty());
    }

    #[test]
    fn s1_requires_safety_comment() {
        let bare = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let f = audit_at("crates/bench/src/x.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::S1);

        let documented = "// SAFETY: caller guarantees the pointer is live\n\
                          fn f() { unsafe { do_it() } }";
        assert!(audit_at("crates/bench/src/x.rs", documented).is_empty());
    }

    #[test]
    fn empty_reason_is_a_hard_error() {
        let src = "// audit:allow(D2):\nfn f() {}";
        let f = audit_at("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::A0);
        assert!(f[0].message.contains("non-empty reason"));
    }

    #[test]
    fn unknown_rule_and_unused_suppression_are_findings() {
        let f = audit_at("crates/core/src/x.rs", "// audit:allow(Z9): whatever\n");
        assert_eq!(f[0].rule, RuleId::A0);

        let f = audit_at(
            "crates/core/src/x.rs",
            "// audit:allow(D2): nothing here actually reads the clock\nfn f() {}",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::A1);
    }

    #[test]
    fn matches_inside_strings_and_comments_do_not_fire() {
        let src = r#"
            fn f() -> &'static str {
                // Instant::now() would be bad here, says this comment.
                "thread_rng() and x.unwrap() are just text"
            }
        "#;
        assert!(audit_at("crates/bench/src/serve.rs", src).is_empty());
    }
}
