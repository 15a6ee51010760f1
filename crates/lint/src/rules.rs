//! The invariant rule table and the two-phase checking pipeline.
//!
//! Each rule has an ID (`R1`..`R12`), a *scope* (which files or graph
//! regions it governs), and a detector. R1–R7 are per-file token-pattern
//! rules (phase 1); R8–R12 run on the workspace symbol graph built from
//! every file's parsed model (phase 2, see [`crate::graph`] and
//! [`crate::taint`]). The scopes encode the architecture DESIGN.md
//! documents: wall-clock reads belong to the observability layer,
//! hash-ordered containers never touch result paths, panics never cross
//! a library boundary, every narrowing cast outside the audited
//! fixed-point module is either rewritten or carries an auditable
//! justification, and the determinism contract (served predictions
//! bit-equal to offline evaluation) is closed under the call graph.

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{self, ident_at, is_punct, parse_file, test_item_regions, FileModel};
use crate::report::Report;
use crate::{graph, taint};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The PR this tree is being prepared for; waivers with
/// `expires = "PR<n>"` stop suppressing (and become findings) once
/// `CURRENT_PR >= n`. Bumped at the start of each PR.
pub const CURRENT_PR: u32 = 8;

/// Identifier of one invariant rule (or the meta-rule that audits the
/// suppression comments themselves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `f32`/`f64` types or float literals in fixed-point datapath modules.
    R1,
    /// No bare narrowing `as` casts outside the audited fixed-point module.
    R2,
    /// No wall-clock reads (`Instant`, `SystemTime`) outside nc-obs/nc-bench.
    R3,
    /// No `HashMap`/`HashSet` anywhere a deterministic output could observe.
    R4,
    /// No `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code.
    R5,
    /// No thread creation outside the engine's worker pool.
    R6,
    /// No entropy-sourced RNG construction; seeds flow in explicitly.
    R7,
    /// No clock/entropy source reachable from a determinism root (cross-file).
    R8,
    /// No lock-order cycles; no lock held across dyn dispatch (cross-file).
    R9,
    /// No heap allocation on `nc_substrate::kernel` hot paths (cross-file).
    R10,
    /// Seed arguments derive from seeded streams or named constants (cross-file).
    R11,
    /// Every library `pub fn` is reached from a deliverable target (cross-file).
    R12,
    /// Suppression comments must parse, carry a reason, and not expire.
    Suppress,
}

impl RuleId {
    /// Every enforced rule, in report order.
    pub const ALL: [RuleId; 13] = [
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::R5,
        RuleId::R6,
        RuleId::R7,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
        RuleId::R11,
        RuleId::R12,
        RuleId::Suppress,
    ];

    /// The rule's name as written in reports and suppression comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
            RuleId::R7 => "R7",
            RuleId::R8 => "R8",
            RuleId::R9 => "R9",
            RuleId::R10 => "R10",
            RuleId::R11 => "R11",
            RuleId::R12 => "R12",
            RuleId::Suppress => "SUPPRESS",
        }
    }

    /// Parses a rule name from a suppression comment.
    pub fn parse(name: &str) -> Option<RuleId> {
        match name {
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R6" => Some(RuleId::R6),
            "R7" => Some(RuleId::R7),
            "R8" => Some(RuleId::R8),
            "R9" => Some(RuleId::R9),
            "R10" => Some(RuleId::R10),
            "R11" => Some(RuleId::R11),
            "R12" => Some(RuleId::R12),
            _ => None,
        }
    }

    /// One-line statement of the invariant, for reports and docs.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::R1 => "float type/literal in a fixed-point datapath module",
            RuleId::R2 => "bare narrowing `as` cast outside the audited fixed-point module",
            RuleId::R3 => "wall-clock read outside the observability crates",
            RuleId::R4 => "hash-ordered collection on a deterministic-output path",
            RuleId::R5 => "panic path in library code",
            RuleId::R6 => "thread creation outside the engine pool",
            RuleId::R7 => "entropy-sourced RNG construction",
            RuleId::R8 => "clock/entropy source reachable from a determinism root",
            RuleId::R9 => "lock-order cycle or lock held across dyn dispatch",
            RuleId::R10 => "heap allocation on a kernel hot path",
            RuleId::R11 => "seed argument not derived from a seeded stream or named constant",
            RuleId::R12 => "library `pub fn` that no binary, bench or example reaches",
            RuleId::Suppress => "malformed, unused, or expired suppression",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation (or suppression audit failure) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

/// What kind of build target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `src/` code built into a library.
    Library,
    /// `src/bin/`, `src/main.rs`: a binary entry point.
    Binary,
    /// `tests/`, `benches/`, `examples/`: never linked into a deliverable.
    TestOrBench,
}

/// Path-derived facts the scopes key on.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Which target family the file builds into.
    pub target: TargetKind,
}

impl FileContext {
    /// Classifies a workspace-relative path (`crates/core/src/engine.rs`).
    pub fn classify(path: &str) -> FileContext {
        let normalized = path.replace('\\', "/");
        let target = if normalized.contains("/tests/")
            || normalized.starts_with("tests/")
            || normalized.contains("/benches/")
            || normalized.contains("/examples/")
            || normalized.starts_with("examples/")
        {
            TargetKind::TestOrBench
        } else if normalized.contains("/src/bin/") || normalized.ends_with("/src/main.rs") {
            TargetKind::Binary
        } else {
            TargetKind::Library
        };
        FileContext {
            path: normalized,
            target,
        }
    }

    fn in_crate(&self, name: &str) -> bool {
        let prefix = format!("crates/{name}/");
        self.path.starts_with(&prefix)
    }
}

/// Files where R1 bans floats: the integer datapath modules whose whole
/// point is bit-faithful narrow arithmetic (paper §4.2). Everything else
/// may use floats freely — the software reference models are float by
/// design.
const R1_DATAPATH_FILES: [&str; 2] = ["crates/hw/src/sim.rs", "crates/snn/src/wot.rs"];

/// The audited fixed-point module where bare narrowing casts are the
/// implementation technique rather than a hazard.
const R2_EXEMPT_FILE: &str = "crates/substrate/src/fixed.rs";

/// The one file allowed to create threads: the engine's worker pool.
const R6_POOL_FILE: &str = "crates/core/src/engine.rs";

/// Cast targets R2 considers narrowing. Token-level linting cannot see
/// the source type, so every cast *to* a ≤32-bit or pointer-width integer
/// is flagged; lossless ones are rewritten to `From`/`try_from` (which
/// also documents the intent) and lossy-by-design ones carry a reason.
const NARROW_TARGETS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// Does a phase-1 `rule` govern `file` at all? (Test regions are handled
/// separately; phase-2 rules scope themselves on the graph.)
fn rule_applies(rule: RuleId, file: &FileContext) -> bool {
    if file.target == TargetKind::TestOrBench {
        return false;
    }
    match rule {
        RuleId::R1 => R1_DATAPATH_FILES.contains(&file.path.as_str()),
        RuleId::R2 => file.path != R2_EXEMPT_FILE,
        RuleId::R3 => !file.in_crate("obs") && !file.in_crate("bench"),
        RuleId::R4 | RuleId::R7 => true,
        RuleId::R5 => file.target == TargetKind::Library,
        RuleId::R6 => file.path != R6_POOL_FILE,
        RuleId::R8 | RuleId::R9 | RuleId::R10 | RuleId::R11 | RuleId::R12 => false,
        RuleId::Suppress => true,
    }
}

/// A parsed `// nc-lint: allow(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Line the comment sits on.
    pub line: u32,
    /// Rules it waives.
    pub rules: Vec<RuleId>,
    /// `allow-file(...)` — covers the whole file.
    pub file_wide: bool,
    /// `expires = "PR<n>"`, if given.
    pub expires: Option<u32>,
    /// The code line a line-level waiver covers (the next line holding
    /// any code), resolved at scan time.
    pub covered: Option<u32>,
    /// Whether it silenced at least one finding (set during resolution).
    pub used: bool,
}

impl Suppression {
    /// Expired waivers no longer suppress and are findings themselves.
    pub fn expired(&self) -> bool {
        self.expires.is_some_and(|n| CURRENT_PR >= n)
    }
}

/// Result of parsing one suppression comment.
enum ParsedSuppression {
    Ok(Suppression),
    Malformed { line: u32, message: String },
}

/// Parses an `allow(R4, ...)` / `allow-file(R1, ...)` waiver out of a
/// comment, if present. Only plain `//` comments carry waivers: doc
/// comments (`///`, `//!`) and block comments are documentation and may
/// legitimately *mention* the directive syntax without enacting it.
fn parse_suppression(text: &str, line: u32) -> Option<ParsedSuppression> {
    let body = text.strip_prefix("//")?;
    if body.starts_with('/') || body.starts_with('!') {
        return None;
    }
    let marker = "nc-lint:";
    let trimmed = body.trim_start();
    // The directive must lead the comment; prose mentioning it does not count.
    let rest = trimmed.strip_prefix(marker)?.trim_start();
    let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow") {
        (false, r)
    } else {
        return Some(ParsedSuppression::Malformed {
            line,
            message: format!(
                "unrecognized nc-lint directive (expected `allow(...)` or `allow-file(...)`): `{}`",
                rest.trim()
            ),
        });
    };
    let rest = rest.trim_start();
    let Some(inner) = rest
        .strip_prefix('(')
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
    else {
        return Some(ParsedSuppression::Malformed {
            line,
            message: String::from("suppression is missing its `(...)` argument list"),
        });
    };
    let mut rules = Vec::new();
    let mut reason: Option<&str> = None;
    let mut expires: Option<u32> = None;
    for part in split_top_level_commas(inner) {
        let part = part.trim();
        if let Some(value) = part.strip_prefix("reason") {
            let value = value.trim_start();
            let value = value.strip_prefix('=').unwrap_or(value).trim();
            let unquoted = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or(value);
            reason = Some(unquoted);
        } else if let Some(value) = part.strip_prefix("expires") {
            let value = value.trim_start();
            let value = value.strip_prefix('=').unwrap_or(value).trim();
            let unquoted = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or(value);
            match unquoted
                .strip_prefix("PR")
                .and_then(|n| n.parse::<u32>().ok())
            {
                Some(n) => expires = Some(n),
                None => {
                    return Some(ParsedSuppression::Malformed {
                        line,
                        message: format!("bad `expires` value `{unquoted}` (expected `\"PR<n>\"`)"),
                    })
                }
            }
        } else if let Some(rule) = RuleId::parse(part) {
            rules.push(rule);
        } else {
            return Some(ParsedSuppression::Malformed {
                line,
                message: format!("unknown rule `{part}` in suppression"),
            });
        }
    }
    if rules.is_empty() {
        return Some(ParsedSuppression::Malformed {
            line,
            message: String::from("suppression names no rule"),
        });
    }
    match reason {
        Some(r) if !r.trim().is_empty() => Some(ParsedSuppression::Ok(Suppression {
            line,
            rules,
            file_wide,
            expires,
            covered: None,
            used: false,
        })),
        _ => Some(ParsedSuppression::Malformed {
            line,
            message: String::from(
                "suppression must carry a non-empty `reason = \"...\"` justification",
            ),
        }),
    }
}

/// Splits on commas that are not inside a quoted reason string.
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// A file's live (well-formed, unexpired) waivers, queryable by rule and
/// line. Phase-2 analyses consult this: an R3/R7 waiver on a source line
/// sanctions the source for R8 as well.
#[derive(Debug, Default, Clone)]
pub struct FileWaivers {
    lines: BTreeMap<u32, Vec<RuleId>>,
    file_wide: BTreeSet<RuleId>,
}

impl FileWaivers {
    /// Registers a line-level waiver for `rule` covering `line`.
    pub fn add_line(&mut self, rule: RuleId, line: u32) {
        self.lines.entry(line).or_default().push(rule);
    }

    /// Registers a file-wide waiver for `rule`.
    pub fn add_file_wide(&mut self, rule: RuleId) {
        self.file_wide.insert(rule);
    }

    /// Does a waiver for `rule` cover `line`?
    pub fn covers(&self, rule: RuleId, line: u32) -> bool {
        self.file_wide.contains(&rule)
            || self
                .lines
                .get(&line)
                .is_some_and(|rules| rules.contains(&rule))
    }
}

/// Everything phase 1 extracts from one file: the parsed model (for the
/// graph), the raw phase-1 findings (not yet suppressed), and the
/// suppression table. Pure per-file data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScan {
    /// Workspace-relative path.
    pub path: String,
    /// Which target family the file builds into.
    pub target: TargetKind,
    /// The parsed item/scope model.
    pub model: FileModel,
    /// Raw phase-1 findings, before suppression resolution.
    pub raw: Vec<Finding>,
    /// `Suppress` findings from malformed directives.
    pub malformed: Vec<Finding>,
    /// Well-formed waivers (resolution marks them used).
    pub suppressions: Vec<Suppression>,
}

impl FileScan {
    /// The live waiver table phase 2 consults.
    pub fn waivers(&self) -> FileWaivers {
        let mut table = FileWaivers::default();
        for s in &self.suppressions {
            if s.expired() {
                continue;
            }
            for &rule in &s.rules {
                if s.file_wide {
                    table.add_file_wide(rule);
                } else if let Some(line) = s.covered {
                    table.add_line(rule, line);
                }
            }
        }
        table
    }
}

/// Phase 1 for one file: lex, split comments from code, parse the item
/// model, run the per-file rules, and collect suppressions. Pure (no
/// filesystem), so fixtures share the exact code path the CLI uses.
pub fn scan_file(path: &str, source: &str) -> FileScan {
    let file = FileContext::classify(path);
    let tokens = lex(source);

    // Separate code tokens from comments, remembering which lines hold
    // any code at all (suppression comments attach across blank/comment
    // lines to the next code line).
    let mut code: Vec<&Token> = Vec::new();
    let mut code_lines: BTreeSet<u32> = BTreeSet::new();
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut malformed: Vec<Finding> = Vec::new();
    for token in &tokens {
        match &token.kind {
            TokenKind::Comment(text) => match parse_suppression(text, token.line) {
                Some(ParsedSuppression::Ok(s)) => suppressions.push(s),
                Some(ParsedSuppression::Malformed { line, message }) => malformed.push(Finding {
                    file: file.path.clone(),
                    line,
                    rule: RuleId::Suppress,
                    message,
                }),
                None => {}
            },
            _ => {
                code.push(token);
                code_lines.insert(token.line);
            }
        }
    }
    for s in &mut suppressions {
        if !s.file_wide {
            s.covered = code_lines.range(s.line..).next().copied();
        }
    }

    let test_regions = test_item_regions(&code);
    let raw = scan_rules(&file, &code, &test_regions);
    let model = parse_file(&file.path, &code);
    FileScan {
        path: file.path,
        target: file.target,
        model,
        raw,
        malformed,
        suppressions,
    }
}

/// Phase 2: links every non-test file's model into the workspace symbol
/// graph and runs the cross-file rules (R8–R11). R12 also runs when the
/// tree's targets are known: `nested` then holds the models of the
/// nested workspaces the walk skipped, whose call sites are roots.
/// Returns raw findings; suppression resolution happens in
/// [`resolve_workspace`].
pub fn run_phase2(scans: &[FileScan], nested: Option<&[FileModel]>) -> Vec<Finding> {
    let units: Vec<graph::Unit<'_>> = scans
        .iter()
        .filter(|s| s.target != TargetKind::TestOrBench)
        .map(|s| graph::Unit {
            path: &s.path,
            model: &s.model,
        })
        .collect();
    if units.is_empty() {
        return Vec::new();
    }
    let waivers: BTreeMap<String, FileWaivers> = scans
        .iter()
        .filter(|s| s.target != TargetKind::TestOrBench)
        .map(|s| (s.path.clone(), s.waivers()))
        .collect();
    let graph = graph::SymbolGraph::build(units);
    let mut findings = taint::check_determinism_taint(&graph, &waivers);
    findings.extend(graph::check_lock_order(&graph));
    findings.extend(graph::check_kernel_allocs(&graph));
    findings.extend(taint::check_seed_discipline(&graph));
    if let Some(nested) = nested {
        let roots: Vec<&parse::FnDef> = scans
            .iter()
            .filter(|s| {
                s.target == TargetKind::TestOrBench
                    && s.path
                        .split('/')
                        .any(|dir| dir == "benches" || dir == "examples")
            })
            .map(|s| &s.model)
            .chain(nested)
            .flat_map(|m| &m.fns)
            .collect();
        findings.extend(graph::check_reachability(&graph, &roots));
    }
    findings
}

/// Resolves suppressions across the whole workspace: folds raw phase-1
/// and phase-2 findings through each file's waiver table, then reports
/// malformed, expired, and unused waivers as `SUPPRESS` findings.
pub fn resolve_workspace(mut scans: Vec<FileScan>, phase2: Vec<Finding>) -> Report {
    let index: BTreeMap<String, usize> = scans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.path.clone(), i))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut raw: Vec<Finding> = Vec::new();
    for s in &mut scans {
        raw.append(&mut s.raw);
        findings.append(&mut s.malformed);
    }
    raw.extend(phase2);

    for f in raw {
        let Some(&i) = index.get(&f.file) else {
            findings.push(f);
            continue;
        };
        let scan = &mut scans[i];
        let mut suppressed = false;
        for s in scan.suppressions.iter_mut() {
            if s.expired() || !s.rules.contains(&f.rule) {
                continue;
            }
            let hit = if s.file_wide {
                true
            } else {
                s.covered == Some(f.line)
            };
            if hit {
                s.used = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    // Expired and unused suppressions are findings too: a stale allow is
    // an invariant hole waiting to be widened silently.
    let mut suppressions_total = 0usize;
    let mut suppressions_used = 0usize;
    for scan in &scans {
        suppressions_total += scan.suppressions.len();
        suppressions_used += scan.suppressions.iter().filter(|s| s.used).count();
        for s in &scan.suppressions {
            let names: Vec<&str> = s.rules.iter().map(|r| r.name()).collect();
            if s.expired() {
                let at = s.expires.unwrap_or(0);
                findings.push(Finding {
                    file: scan.path.clone(),
                    line: s.line,
                    rule: RuleId::Suppress,
                    message: format!(
                        "suppression for {} expired at PR{at} (current PR{CURRENT_PR}); \
                         fix the violation or renew the waiver with a fresh audit",
                        names.join(", ")
                    ),
                });
            } else if !s.used {
                findings.push(Finding {
                    file: scan.path.clone(),
                    line: s.line,
                    rule: RuleId::Suppress,
                    message: format!(
                        "unused suppression for {} (nothing on the covered line trips it)",
                        names.join(", ")
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Report {
        findings,
        files_scanned: scans.len(),
        suppressions_total,
        suppressions_used,
    }
}

/// Runs every applicable phase-1 rule's detector over the comment-free
/// tokens.
fn scan_rules(
    file: &FileContext,
    code: &[&Token],
    test_regions: &[(usize, usize)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_test = |i: usize| test_regions.iter().any(|&(s, e)| i >= s && i <= e);
    let applies: Vec<RuleId> = RuleId::ALL
        .iter()
        .copied()
        .filter(|&r| r != RuleId::Suppress && rule_applies(r, file))
        .collect();
    if applies.is_empty() {
        return findings;
    }
    let mut push = |line: u32, rule: RuleId, message: String| {
        findings.push(Finding {
            file: file.path.clone(),
            line,
            rule,
            message,
        });
    };

    for (i, token) in code.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        match &token.kind {
            TokenKind::Number { is_float: true } if applies.contains(&RuleId::R1) => {
                push(
                    token.line,
                    RuleId::R1,
                    String::from("float literal in a fixed-point datapath module"),
                );
            }
            TokenKind::Ident(name) => {
                let name = name.as_str();
                match name {
                    "f32" | "f64" if applies.contains(&RuleId::R1) => push(
                        token.line,
                        RuleId::R1,
                        format!("`{name}` in a fixed-point datapath module"),
                    ),
                    "as" if applies.contains(&RuleId::R2) => {
                        if let Some(target) = ident_at(code, i + 1) {
                            if NARROW_TARGETS.contains(&target) {
                                push(
                                    token.line,
                                    RuleId::R2,
                                    format!(
                                        "bare `as {target}` cast; use `{target}::from`/`try_from` \
                                         or a saturating fixed-point helper"
                                    ),
                                );
                            }
                        }
                    }
                    "Instant" | "SystemTime" if applies.contains(&RuleId::R3) => push(
                        token.line,
                        RuleId::R3,
                        format!("`{name}` wall-clock access outside nc-obs/nc-bench"),
                    ),
                    "HashMap" | "HashSet" if applies.contains(&RuleId::R4) => push(
                        token.line,
                        RuleId::R4,
                        format!("`{name}` iterates in hash order; use the BTree equivalent"),
                    ),
                    "unwrap" | "expect"
                        if applies.contains(&RuleId::R5)
                            && is_punct(code, i.wrapping_sub(1), '.')
                            && is_punct(code, i + 1, '(') =>
                    {
                        push(
                            token.line,
                            RuleId::R5,
                            format!("`.{name}()` can panic in library code"),
                        );
                    }
                    "panic" | "todo" | "unimplemented"
                        if applies.contains(&RuleId::R5) && is_punct(code, i + 1, '!') =>
                    {
                        push(
                            token.line,
                            RuleId::R5,
                            format!("`{name}!` in library code; return a typed error"),
                        );
                    }
                    "spawn" if applies.contains(&RuleId::R6) => push(
                        token.line,
                        RuleId::R6,
                        String::from("thread creation outside the engine pool"),
                    ),
                    _ if applies.contains(&RuleId::R7) && parse::ENTROPY_IDENTS.contains(&name) => {
                        push(
                            token.line,
                            RuleId::R7,
                            format!(
                                "`{name}` draws ambient entropy; construct RNGs from explicit seeds"
                            ),
                        )
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-file lint statistics, folded into the workspace report.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct FileStats {
        /// Suppression comments seen (well-formed ones).
        suppressions_total: usize,
        /// Suppressions that silenced at least one finding.
        suppressions_used: usize,
    }

    /// Lints one file's source text through the full two-phase pipeline
    /// (phase 2 degenerates to a single-file graph). Pure: no filesystem
    /// access, so fixture tests can feed synthetic sources through the
    /// identical code path the CLI uses.
    fn check_source(path: &str, source: &str) -> (Vec<Finding>, FileStats) {
        let scan = scan_file(path, source);
        let phase2 = run_phase2(std::slice::from_ref(&scan), None);
        let report = resolve_workspace(vec![scan], phase2);
        let stats = FileStats {
            suppressions_total: report.suppressions_total,
            suppressions_used: report.suppressions_used,
        };
        (report.findings, stats)
    }

    fn rules_hit(path: &str, src: &str) -> Vec<RuleId> {
        check_source(path, src)
            .0
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn classify_targets() {
        let lib = FileContext::classify("crates/core/src/engine.rs");
        assert_eq!(lib.target, TargetKind::Library);
        let bin = FileContext::classify("crates/bench/src/bin/fig3.rs");
        assert_eq!(bin.target, TargetKind::Binary);
        let test = FileContext::classify("crates/core/tests/determinism.rs");
        assert_eq!(test.target, TargetKind::TestOrBench);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "
            pub fn lib() -> u8 { 0 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        ";
        assert!(rules_hit("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "
            #[cfg(not(test))]
            pub fn lib() { Some(1).unwrap(); }
        ";
        assert_eq!(rules_hit("crates/core/src/x.rs", src), vec![RuleId::R5]);
    }

    #[test]
    fn suppression_silences_and_is_counted() {
        let src = "
            // nc-lint: allow(R4, reason = \"bounded scratch map, drained before output\")
            use std::collections::HashMap;
        ";
        let (findings, stats) = check_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.suppressions_total, 1);
        assert_eq!(stats.suppressions_used, 1);
    }

    #[test]
    fn reasonless_suppression_is_a_finding() {
        let src = "
            // nc-lint: allow(R4)
            use std::collections::HashMap;
        ";
        let rules = rules_hit("crates/core/src/x.rs", src);
        assert!(rules.contains(&RuleId::Suppress), "{rules:?}");
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let src = "
            // nc-lint: allow(R4, reason = \"nothing here\")
            pub fn f() {}
        ";
        let rules = rules_hit("crates/core/src/x.rs", src);
        assert_eq!(rules, vec![RuleId::Suppress]);
    }

    #[test]
    fn trailing_same_line_suppression_works() {
        let src = "use std::collections::HashMap; // nc-lint: allow(R4, reason = \"scratch\")\n";
        let (findings, _) = check_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unexpired_waiver_still_suppresses() {
        let src = "
            // nc-lint: allow(R4, reason = \"scratch\", expires = \"PR99\")
            use std::collections::HashMap;
        ";
        let (findings, stats) = check_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.suppressions_used, 1);
    }

    #[test]
    fn expired_waiver_surfaces_both_findings() {
        let src = "
            // nc-lint: allow(R4, reason = \"scratch\", expires = \"PR8\")
            use std::collections::HashMap;
        ";
        let (findings, stats) = check_source("crates/core/src/x.rs", src);
        let rules: Vec<RuleId> = findings.iter().map(|f| f.rule).collect();
        // Sorted by line: the expired waiver (line 2) precedes the
        // resurfaced R4 (line 3).
        assert_eq!(rules, vec![RuleId::Suppress, RuleId::R4], "{findings:?}");
        assert!(
            findings[0].message.contains("expired at PR8"),
            "{findings:?}"
        );
        assert_eq!(stats.suppressions_used, 0);
    }

    #[test]
    fn malformed_expires_is_a_finding() {
        let src = "
            // nc-lint: allow(R4, reason = \"scratch\", expires = \"v2\")
            use std::collections::HashMap;
        ";
        let rules = rules_hit("crates/core/src/x.rs", src);
        assert!(rules.contains(&RuleId::Suppress), "{rules:?}");
    }

    #[test]
    fn phase2_findings_can_be_waived_and_count_used() {
        let src = "
            impl Gate {
                pub fn spin(&self) {
                    let g = lock_or_recover(&self.state);
                    // nc-lint: allow(R9, reason = \"re-entrant by design in this fixture\")
                    lock_or_recover(&self.state).clear();
                }
            }
        ";
        let (findings, stats) = check_source("crates/serve/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(stats.suppressions_used, 1);
    }

    #[test]
    fn self_deadlock_is_found_single_file() {
        let src = "
            impl Gate {
                pub fn spin(&self) {
                    let g = lock_or_recover(&self.state);
                    lock_or_recover(&self.state).clear();
                }
            }
        ";
        let rules = rules_hit("crates/serve/src/x.rs", src);
        assert_eq!(rules, vec![RuleId::R9], "{rules:?}");
    }
}
