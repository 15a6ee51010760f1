//! Phase 1 of the two-phase workspace analysis: per-file parsing of the
//! token stream into a lightweight item/scope model.
//!
//! The build is offline (no `syn`), so this is not a Rust parser — it is
//! a fact extractor tuned to what the cross-file rules (R8–R12) consume:
//!
//! * which functions a file defines, and inside which `impl`/`trait`;
//! * which functions each body *references* (free calls, `Type::assoc`
//!   paths, `.method(...)` calls, each with or without a turbofish, and
//!   `<T as Trait>::f(...)`, resolved by method name), with the argument
//!   token text the seed-discipline rule inspects, and which
//!   `Type::name` paths it names without calling them;
//! * which functions are declared plain `pub` (R12's candidates);
//! * where locks are acquired (`Mutex::lock`, `RwLock::read/write`, the
//!   workspace's `lock_or_recover` helper) and which locks are already
//!   held at every acquisition and call site;
//! * direct uses of wall-clock and entropy identifiers (taint sources);
//! * heap-allocation sites (`Vec::new`, `push`, `format!`, ...).
//!
//! Everything is approximate in the direction the rules can tolerate:
//! call references over-approximate (they resolve by name, filtered
//! through a std-collision deny list in [`crate::graph`]), and guard
//! scopes under-approximate statement temporaries (a temporary guard is
//! assumed dead at the next `;`), which loses edges but never invents
//! deadlocks that cannot happen.

use crate::lexer::{Token, TokenKind};

/// Identifiers whose presence is a wall-clock read.
pub const CLOCK_IDENTS: [&str; 2] = ["Instant", "SystemTime"];

/// Identifiers whose presence means ambient entropy is being drawn
/// (mirrors rule R7's table).
pub const ENTROPY_IDENTS: [&str; 8] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "StdRng",
    "getrandom",
    "RandomState",
];

/// Path-call allocation constructors (`Type::fn`).
const ALLOC_PATHS: [(&str, &str); 6] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
];

/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Allocating (or reallocating) method names.
const ALLOC_METHODS: [&str; 9] = [
    "push",
    "extend",
    "resize",
    "reserve",
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "insert",
];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "loop", "return", "let", "in", "as", "move", "ref", "mut",
    "else", "fn",
];

/// What kind of item owns a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerKind {
    /// A free function at module scope.
    Free,
    /// A method or associated function inside an inherent `impl` block.
    Impl,
    /// A method inside an `impl Trait for Type` block.
    TraitImpl,
    /// A method declared (or defaulted) inside a `trait` block.
    Trait,
}

/// One call reference inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The `Type`/module segment immediately before `::`, if any.
    pub qualifier: Option<String>,
    /// The called identifier.
    pub name: String,
    /// `true` for `.name(...)` method syntax.
    pub is_method: bool,
    /// 1-based source line.
    pub line: u32,
    /// Lock names held when the call is made.
    pub held: Vec<String>,
    /// Per-argument token text (idents/numbers joined by spaces), for
    /// the seed-discipline rule.
    pub args: Vec<String>,
}

/// One lock acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    /// Canonical lock name: `Owner.field` for `self.field`, `.field`
    /// for a path through another binding, `fn/name` for a local.
    pub lock: String,
    /// 1-based source line.
    pub line: u32,
    /// Lock names already held when this one is acquired.
    pub held: Vec<String>,
}

/// One direct taint-source identifier use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceUse {
    /// The identifier (`Instant`, `thread_rng`, ...).
    pub ident: String,
    /// `true` for a wall-clock read, `false` for entropy.
    pub clock: bool,
    /// 1-based source line.
    pub line: u32,
}

/// One heap-allocation site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// What allocated (`Vec::new`, `push`, `format!`, ...).
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// A `let NAME = ...;` binding, kept one level deep so the
/// seed-discipline rule can see through simple locals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LetBind {
    /// The bound identifier.
    pub name: String,
    /// Ident/number token text of the right-hand side.
    pub rhs: String,
}

/// One function definition with the facts the cross-file rules need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function's identifier.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// What kind of item owns it.
    pub owner_kind: OwnerKind,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[test]`/`#[cfg(test)]` region.
    pub is_test: bool,
    /// Declared plain `pub` (`pub(crate)` and narrower do not count).
    pub is_pub: bool,
    /// Parameter names in order, `self` excluded.
    pub params: Vec<String>,
    /// Takes a `self` receiver (which a UFCS call passes explicitly).
    pub receiver: bool,
    /// Call references in body order.
    pub calls: Vec<CallSite>,
    /// `Type::name` paths the body names without calling them
    /// (`map(Self::decode)`): uses that R12 counts, no call edge.
    pub mentions: Vec<CallSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockSite>,
    /// Clock/entropy identifier uses.
    pub sources: Vec<SourceUse>,
    /// Heap allocation sites.
    pub allocs: Vec<AllocSite>,
    /// Simple local bindings.
    pub lets: Vec<LetBind>,
}

/// A `trait NAME { ... }` declaration and its method names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraitDecl {
    /// The trait's name.
    pub name: String,
    /// Methods it declares (with or without default bodies).
    pub methods: Vec<String>,
}

/// Everything phase 1 extracts from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileModel {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Function definitions, file order.
    pub fns: Vec<FnDef>,
    /// Trait declarations.
    pub traits: Vec<TraitDecl>,
    /// Trait names referenced as `dyn Trait` anywhere in the file.
    pub dyn_refs: Vec<String>,
}

/// Token-index ranges (over a comment-free stream) belonging to
/// `#[test]` / `#[cfg(test)]` items — exempt from every rule.
pub fn test_item_regions(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !is_punct(code, i, '#') {
            i += 1;
            continue;
        }
        // `#[...]` or `#![...]`: collect the attribute's identifiers.
        let mut j = i + 1;
        if is_punct(code, j, '!') {
            j += 1;
        }
        if !is_punct(code, j, '[') {
            i += 1;
            continue;
        }
        let Some((attr_end, is_test_attr)) = scan_attribute(code, j) else {
            break;
        };
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then span the annotated item.
        let mut k = attr_end + 1;
        while is_punct(code, k, '#') {
            let mut b = k + 1;
            if is_punct(code, b, '!') {
                b += 1;
            }
            match scan_attribute(code, b) {
                Some((end, _)) if is_punct(code, b, '[') => k = end + 1,
                _ => break,
            }
        }
        let end = item_end(code, k);
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// Scans a `[...]` group starting at `open` (which must be `[`); returns
/// the index of the matching `]` and whether the attribute marks
/// test-only code (`test` present without `not`).
pub fn scan_attribute(code: &[&Token], open: usize) -> Option<(usize, bool)> {
    if !is_punct(code, open, '[') {
        return None;
    }
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut i = open;
    while i < code.len() {
        match &code[i].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((i, has_test && !has_not));
                }
            }
            TokenKind::Ident(s) if s == "test" => has_test = true,
            TokenKind::Ident(s) if s == "not" => has_not = true,
            _ => {}
        }
        i += 1;
    }
    None
}

/// The token index where the item starting at `start` ends: at a
/// top-level `;` (e.g. `use`/`static` items) or at the `}` matching the
/// first `{` (fn bodies, mod blocks, impls).
pub fn item_end(code: &[&Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < code.len() {
        match &code[i].kind {
            TokenKind::Punct(';') if depth == 0 => return i,
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

/// Is the token at `i` the punctuation `c`?
pub fn is_punct(code: &[&Token], i: usize, c: char) -> bool {
    matches!(code.get(i), Some(t) if t.kind == TokenKind::Punct(c))
}

/// Identifier text at token index `i`, if any.
pub fn ident_at<'a>(code: &[&'a Token], i: usize) -> Option<&'a str> {
    code.get(i).and_then(|t| t.kind.ident())
}

/// Parses the comment-free token stream of one file into a
/// [`FileModel`]. `path` is the workspace-relative key; `code` must be
/// the comment-free token slice (the caller separates suppression
/// comments first).
pub fn parse_file(path: &str, code: &[&Token]) -> FileModel {
    let test_regions = test_item_regions(code);
    let in_test = |i: usize| test_regions.iter().any(|&(s, e)| i >= s && i <= e);
    let mut model = FileModel {
        path: path.to_string(),
        ..FileModel::default()
    };

    // `dyn Trait` references, wherever they occur.
    for i in 0..code.len() {
        if ident_at(code, i) == Some("dyn") {
            if let Some(name) = ident_at(code, i + 1) {
                if name.chars().next().is_some_and(char::is_uppercase) {
                    model.dyn_refs.push(name.to_string());
                }
            }
        }
    }
    model.dyn_refs.sort();
    model.dyn_refs.dedup();

    let has_rwlock = code.iter().any(|t| t.kind.ident() == Some("RwLock"));
    let cx = ScanCx {
        has_rwlock,
        in_test: &in_test,
    };
    scan_items(code, 0, code.len(), None, OwnerKind::Free, &mut model, &cx);

    // Trait method tables come from the fns parsed inside trait blocks.
    let mut traits: Vec<TraitDecl> = Vec::new();
    for f in &model.fns {
        if f.owner_kind == OwnerKind::Trait {
            if let Some(owner) = &f.owner {
                match traits.iter_mut().find(|t| &t.name == owner) {
                    Some(t) => t.methods.push(f.name.clone()),
                    None => traits.push(TraitDecl {
                        name: owner.clone(),
                        methods: vec![f.name.clone()],
                    }),
                }
            }
        }
    }
    model.traits = traits;
    model
}

/// File-level context threaded through the item scan.
struct ScanCx<'a> {
    /// Whether the file mentions `RwLock` (gates `.read()`/`.write()`
    /// lock detection).
    has_rwlock: bool,
    /// Whether a token index falls inside a test-only item.
    in_test: &'a dyn Fn(usize) -> bool,
}

/// Scans items in `code[start..end]`, recursing into `mod`/`impl`/
/// `trait` blocks and extracting every `fn`.
#[allow(clippy::too_many_arguments)]
fn scan_items(
    code: &[&Token],
    start: usize,
    end: usize,
    owner: Option<&str>,
    owner_kind: OwnerKind,
    model: &mut FileModel,
    cx: &ScanCx<'_>,
) {
    let mut i = start;
    while i < end {
        match ident_at(code, i) {
            Some("impl" | "trait") => {
                let is_trait = ident_at(code, i) == Some("trait");
                let Some((type_name, body_open, for_trait)) = impl_header(code, i, end) else {
                    i += 1;
                    continue;
                };
                let body_close = matching_brace(code, body_open, end);
                scan_items(
                    code,
                    body_open + 1,
                    body_close,
                    Some(&type_name),
                    match (is_trait, for_trait) {
                        (true, _) => OwnerKind::Trait,
                        (false, true) => OwnerKind::TraitImpl,
                        (false, false) => OwnerKind::Impl,
                    },
                    model,
                    cx,
                );
                i = body_close + 1;
            }
            Some("mod") => {
                // `mod name { ... }` — recurse with the same owner;
                // `mod name;` — skip.
                let mut j = i + 1;
                while j < end && !is_punct(code, j, '{') && !is_punct(code, j, ';') {
                    j += 1;
                }
                if is_punct(code, j, '{') {
                    let close = matching_brace(code, j, end);
                    scan_items(code, j + 1, close, owner, owner_kind, model, cx);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            Some("fn") => {
                let fn_index = i;
                let Some(name) = ident_at(code, i + 1) else {
                    i += 1;
                    continue;
                };
                let (params, receiver, after_sig) = fn_params(code, i + 2, end);
                // Find the body `{` (or `;` for bodyless trait decls),
                // skipping the return type and where clause.
                let mut j = after_sig;
                while j < end && !is_punct(code, j, '{') && !is_punct(code, j, ';') {
                    j += 1;
                }
                let mut def = FnDef {
                    name: name.to_string(),
                    owner: owner.map(str::to_string),
                    owner_kind: if owner.is_some() {
                        owner_kind
                    } else {
                        OwnerKind::Free
                    },
                    line: code[fn_index].line,
                    is_test: (cx.in_test)(fn_index),
                    is_pub: is_plain_pub(code, fn_index),
                    params,
                    receiver,
                    calls: Vec::new(),
                    mentions: Vec::new(),
                    locks: Vec::new(),
                    sources: Vec::new(),
                    allocs: Vec::new(),
                    lets: Vec::new(),
                };
                if is_punct(code, j, '{') {
                    let close = matching_brace(code, j, end);
                    scan_body(code, j + 1, close, owner, cx.has_rwlock, &mut def);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
                model.fns.push(def);
            }
            _ => i += 1,
        }
    }
}

/// Is the `fn` keyword at `kw` declared plain `pub`, past any
/// `const`/`unsafe`/`async`/`extern "ABI"` qualifiers?
fn is_plain_pub(code: &[&Token], kw: usize) -> bool {
    let mut k = kw;
    while k > 0 {
        k -= 1;
        match &code[k].kind {
            TokenKind::Ident(s) if s == "pub" => return true,
            TokenKind::Ident(s)
                if matches!(s.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            TokenKind::StrLit => {}
            _ => return false,
        }
    }
    false
}

/// Extracts the subject type name of an `impl`/`trait` header starting
/// at `kw`, the index of the opening `{`, and whether the header is
/// `impl Trait for Type` (whose subject is `Type`).
fn impl_header(code: &[&Token], kw: usize, end: usize) -> Option<(String, usize, bool)> {
    let mut i = kw + 1;
    let mut angle = 0i32;
    let mut first: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < end {
        match &code[i].kind {
            TokenKind::Punct('{') if angle <= 0 => {
                let name = after_for.or(first)?;
                return Some((name, i, saw_for));
            }
            TokenKind::Punct(';') if angle <= 0 => return None, // `trait X: Y;` — malformed
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Ident(s) if angle <= 0 => {
                if s == "for" {
                    saw_for = true;
                } else if saw_for {
                    if after_for.is_none() {
                        after_for = Some(s.clone());
                    }
                } else if first.is_none() && s != "where" {
                    first = Some(s.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses a parameter list starting at (or just before) its `(`;
/// returns the names (excluding `self`), whether `self` is among them,
/// and the index after `)`.
fn fn_params(code: &[&Token], from: usize, end: usize) -> (Vec<String>, bool, usize) {
    let mut i = from;
    // Skip generics between the name and `(`.
    let mut angle = 0i32;
    while i < end {
        match &code[i].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('(') if angle <= 0 => break,
            _ => {}
        }
        i += 1;
    }
    if i >= end {
        return (Vec::new(), false, end);
    }
    let close = matching_paren(code, i, end);
    let mut params = Vec::new();
    let mut receiver = false;
    // Split on top-level commas; each parameter's name is its first
    // identifier that is not `mut`/`self`.
    let mut j = i + 1;
    let mut depth = 0i32;
    let mut seg_start = j;
    while j <= close {
        let at_comma = depth == 0 && is_punct(code, j, ',');
        if at_comma || j == close {
            let mut k = seg_start;
            while k < j {
                if let Some(name) = ident_at(code, k) {
                    if name == "mut" {
                        k += 1;
                        continue;
                    }
                    if name == "self" {
                        receiver = true;
                    } else if is_punct(code, k + 1, ':') {
                        params.push(name.to_string());
                    }
                    break;
                }
                k += 1;
            }
            seg_start = j + 1;
        } else {
            match &code[j].kind {
                TokenKind::Punct('(' | '[' | '<' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '>' | '}') => depth -= 1,
                _ => {}
            }
        }
        j += 1;
    }
    (params, receiver, close + 1)
}

/// Index of the `}` matching the `{` at `open` (bounded by `end`).
fn matching_brace(code: &[&Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        match &code[i].kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Index of the `)` matching the `(` at `open` (bounded by `end`).
fn matching_paren(code: &[&Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < end {
        match &code[i].kind {
            TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.saturating_sub(1)
}

/// Index of the angle bracket matching the `<` or `>` at `from`, walking
/// forward from a `<` and back from a `>` within `lo..hi`; the `>` of a
/// `->` is no bracket. `None` past a statement or block boundary.
fn matching_angle(code: &[&Token], from: usize, lo: usize, hi: usize) -> Option<usize> {
    let forward = is_punct(code, from, '<');
    let mut depth = 0i32;
    let mut i = from;
    while (lo..hi).contains(&i) {
        let delta = match code[i].kind {
            TokenKind::Punct('<') => 1,
            TokenKind::Punct('>') if !is_punct(code, i.wrapping_sub(1), '-') => -1,
            TokenKind::Punct(';' | '{' | '}') => return None,
            _ => 0,
        };
        depth += if forward { delta } else { -delta };
        if depth == 0 {
            return (i != from).then_some(i);
        }
        i = if forward { i + 1 } else { i.wrapping_sub(1) };
    }
    None
}

/// The path segment in front of the `::` that ends at `at`, as the call
/// resolver reads it: `Type` and `Type::<T>` both name `Type`. A
/// qualified self type, `<T as Trait>`, names its impl only through the
/// method, so the call resolves by method name: `(None, true)`.
fn path_qualifier(code: &[&Token], start: usize, at: usize) -> (Option<String>, bool) {
    if !is_punct(code, at, '>') {
        return (ident_at(code, at).map(str::to_string), false);
    }
    match matching_angle(code, at, start, at + 1) {
        Some(lt)
            if lt >= start + 3 && is_punct(code, lt - 1, ':') && is_punct(code, lt - 2, ':') =>
        {
            (ident_at(code, lt - 3).map(str::to_string), false)
        }
        Some(_) => (None, true),
        None => (None, false),
    }
}

/// An active lock guard during the body scan.
struct Guard {
    lock: String,
    /// Binding name for `let g = <acquire>;`, `None` for a statement
    /// temporary.
    var: Option<String>,
    /// Brace depth the guard was bound at (guards die when the scan
    /// leaves their block).
    depth: i32,
}

/// Scans one function body (`code[start..end]`, inside the braces),
/// extracting calls, lock sites, sources, allocations, and simple lets.
fn scan_body(
    code: &[&Token],
    start: usize,
    end: usize,
    owner: Option<&str>,
    has_rwlock: bool,
    def: &mut FnDef,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // `let NAME =` seen on the current statement, if any.
    let mut pending_let: Option<String> = None;
    let mut let_rhs_from: Option<usize> = None;
    let mut i = start;
    while i < end {
        let tok = code[i];
        match &tok.kind {
            TokenKind::Punct('{') => {
                // Statement temporaries do not outlive the condition or
                // expression that produced them.
                guards.retain(|g| g.var.is_some());
                depth += 1;
                i += 1;
            }
            TokenKind::Punct('}') => {
                // Close any `let`-binding before leaving its block; every
                // guard bound at or inside this block dies with it.
                flush_let(code, let_rhs_from.take(), i, pending_let.take(), def);
                guards.retain(|g| g.var.is_some() && g.depth < depth);
                depth -= 1;
                i += 1;
            }
            TokenKind::Punct(';') => {
                flush_let(code, let_rhs_from.take(), i, pending_let.take(), def);
                guards.retain(|g| g.var.is_some()); // statement temporaries die
                i += 1;
            }
            TokenKind::Ident(name) => {
                let name = name.as_str();
                // `let [mut] NAME =` — remember the binding.
                if name == "let" {
                    let mut j = i + 1;
                    if ident_at(code, j) == Some("mut") {
                        j += 1;
                    }
                    if let Some(bound) = ident_at(code, j) {
                        if is_punct(code, j + 1, '=') && !is_punct(code, j + 2, '=') {
                            pending_let = Some(bound.to_string());
                            let_rhs_from = Some(j + 2);
                            i = j + 2;
                            continue;
                        }
                    }
                    i += 1;
                    continue;
                }
                // `drop(g)` — release a named guard.
                if name == "drop" && is_punct(code, i + 1, '(') {
                    if let Some(dropped) = ident_at(code, i + 2) {
                        if is_punct(code, i + 3, ')') {
                            guards.retain(|g| g.var.as_deref() != Some(dropped));
                        }
                    }
                    i += 4.min(end - i);
                    continue;
                }
                // Taint sources.
                if CLOCK_IDENTS.contains(&name) || ENTROPY_IDENTS.contains(&name) {
                    def.sources.push(SourceUse {
                        ident: name.to_string(),
                        clock: CLOCK_IDENTS.contains(&name),
                        line: tok.line,
                    });
                    i += 1;
                    continue;
                }
                // Lock acquisition via the workspace helper.
                if name == "lock_or_recover" && is_punct(code, i + 1, '(') {
                    let close = matching_paren(code, i + 1, end);
                    let lock = lock_name_forward(code, i + 2, close, owner);
                    record_acquisition(
                        lock,
                        tok.line,
                        close,
                        code,
                        end,
                        depth,
                        &mut guards,
                        &mut pending_let,
                        &mut let_rhs_from,
                        def,
                    );
                    i = close + 1;
                    continue;
                }
                // Allocation macros and calls.
                if is_punct(code, i + 1, '!') && ALLOC_MACROS.contains(&name) {
                    def.allocs.push(AllocSite {
                        what: format!("{name}!"),
                        line: tok.line,
                    });
                    i += 2;
                    continue;
                }
                // A call? `name (` or the turbofish `name::<T> (`, with an
                // optional path/method prefix.
                let open = if is_punct(code, i + 1, ':')
                    && is_punct(code, i + 2, ':')
                    && is_punct(code, i + 3, '<')
                {
                    matching_angle(code, i + 3, start, end).map_or(i + 1, |close| close + 1)
                } else {
                    i + 1
                };
                if is_punct(code, open, '(') && !NON_CALL_KEYWORDS.contains(&name) {
                    let (qualifier, qualified_self) = if i >= start + 2
                        && is_punct(code, i - 1, ':')
                        && is_punct(code, i - 2, ':')
                    {
                        path_qualifier(code, start, i.wrapping_sub(3))
                    } else {
                        (None, false)
                    };
                    let is_method = qualified_self || (i > start && is_punct(code, i - 1, '.'));
                    // `.lock()` always acquires; `.read()`/`.write()` only
                    // count in files that actually use an `RwLock` (plain
                    // IO methods share the names).
                    if is_method
                        && (name == "lock" || (has_rwlock && (name == "read" || name == "write")))
                    {
                        let close = matching_paren(code, open, end);
                        let lock = lock_name_backward(code, start, i - 1, owner);
                        record_acquisition(
                            lock,
                            tok.line,
                            close,
                            code,
                            end,
                            depth,
                            &mut guards,
                            &mut pending_let,
                            &mut let_rhs_from,
                            def,
                        );
                        i = close + 1;
                        continue;
                    }
                    if let Some((q, n)) = qualifier.as_deref().zip(Some(name)) {
                        if ALLOC_PATHS.contains(&(q, n)) {
                            def.allocs.push(AllocSite {
                                what: format!("{q}::{n}"),
                                line: tok.line,
                            });
                        }
                    }
                    if is_method && ALLOC_METHODS.contains(&name) {
                        def.allocs.push(AllocSite {
                            what: name.to_string(),
                            line: tok.line,
                        });
                    }
                    let close = matching_paren(code, open, end);
                    let args = call_args(code, open, close);
                    let mut held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
                    held.sort();
                    held.dedup();
                    def.calls.push(CallSite {
                        qualifier,
                        name: name.to_string(),
                        is_method,
                        line: tok.line,
                        held,
                        args,
                    });
                    // Scan *inside* the argument list too (nested calls).
                    i = open + 1;
                    continue;
                }
                // `Type::name` not followed by a call, macro bang or
                // further path segment: a function named as a value.
                if name.starts_with(|c: char| c.is_ascii_lowercase())
                    && i >= start + 3
                    && is_punct(code, i - 1, ':')
                    && is_punct(code, i - 2, ':')
                    && !is_punct(code, i + 1, '!')
                    && !is_punct(code, i + 1, ':')
                {
                    if let Some(q) = ident_at(code, i - 3) {
                        def.mentions.push(CallSite {
                            qualifier: Some(q.to_string()),
                            name: name.to_string(),
                            is_method: false,
                            line: tok.line,
                            held: Vec::new(),
                            args: Vec::new(),
                        });
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Tail statement without `;` (expression position).
    flush_let(code, let_rhs_from, end, pending_let, def);
}

/// Finishes a pending `let` binding: records the ident/number text of
/// its right-hand side.
fn flush_let(
    code: &[&Token],
    rhs_from: Option<usize>,
    rhs_end: usize,
    name: Option<String>,
    def: &mut FnDef,
) {
    let (Some(from), Some(name)) = (rhs_from, name) else {
        return;
    };
    let rhs = span_text(code, from, rhs_end);
    def.lets.push(LetBind { name, rhs });
}

/// Ident/number token text of `code[from..to]`, space-joined.
fn span_text(code: &[&Token], from: usize, to: usize) -> String {
    let mut out = String::new();
    for t in &code[from..to.min(code.len())] {
        match &t.kind {
            TokenKind::Ident(s) => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(s);
            }
            TokenKind::Number { .. } => {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push('#');
            }
            _ => {}
        }
    }
    out
}

/// Splits a call's argument list (between the parens at `open` and its
/// match) on top-level commas, returning each argument's ident/number
/// text.
fn call_args(code: &[&Token], open: usize, close: usize) -> Vec<String> {
    if close <= open + 1 {
        return Vec::new();
    }
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut seg = open + 1;
    let mut j = open + 1;
    while j <= close {
        let at_comma = depth == 0 && is_punct(code, j, ',');
        if at_comma || j == close {
            // A segment with no tokens at all is a trailing comma, not
            // an argument (string-literal args still occupy tokens, so
            // they count — their recorded text is just empty).
            if !(j == close && seg == close) {
                args.push(span_text(code, seg, j));
            }
            seg = j + 1;
        } else {
            match &code[j].kind {
                TokenKind::Punct('(' | '[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                _ => {}
            }
        }
        j += 1;
    }
    args
}

/// Canonical lock name from the receiver tokens of
/// `lock_or_recover( <recv> )`: `Owner.field` for `self.field`, the
/// bare name for a single ident, `.field` for other paths.
fn lock_name_forward(code: &[&Token], from: usize, to: usize, owner: Option<&str>) -> String {
    let mut idents: Vec<&str> = Vec::new();
    let mut bracket = 0i32;
    for token in code.iter().take(to).skip(from) {
        match &token.kind {
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Ident(s) if bracket == 0 => idents.push(s),
            _ => {}
        }
    }
    canonical_lock(&idents, owner)
}

/// Canonical lock name from the tokens *before* a `.lock()` call: walks
/// left over the `a.b.c` receiver chain ending at `dot`.
fn lock_name_backward(code: &[&Token], start: usize, dot: usize, owner: Option<&str>) -> String {
    let mut idents: Vec<&str> = Vec::new();
    let mut j = dot; // index of the `.` before `lock`
    loop {
        if j <= start {
            break;
        }
        // Expect ident before the dot, possibly with an index suffix.
        let mut k = j - 1;
        if is_punct(code, k, ']') {
            // Skip `[...]`.
            let mut depth = 0i32;
            while k > start {
                match &code[k].kind {
                    TokenKind::Punct(']') => depth += 1,
                    TokenKind::Punct('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k -= 1;
            }
            if k == start {
                break;
            }
            k -= 1;
        }
        let Some(name) = ident_at(code, k) else {
            break;
        };
        idents.push(name);
        if k == start || !is_punct(code, k - 1, '.') {
            break;
        }
        j = k - 1;
    }
    idents.reverse();
    canonical_lock(&idents, owner)
}

/// Collapses a receiver ident chain to a canonical lock identity.
fn canonical_lock(idents: &[&str], owner: Option<&str>) -> String {
    match idents {
        [] => String::from("?"),
        ["self", rest @ ..] if !rest.is_empty() => {
            let field = rest.last().copied().unwrap_or("?");
            match owner {
                Some(o) => format!("{o}.{field}"),
                None => format!("self.{field}"),
            }
        }
        [single] => (*single).to_string(),
        path => format!(".{}", path.last().copied().unwrap_or("?")),
    }
}

/// Records one lock acquisition: decides binding vs temporary guard and
/// pushes the [`LockSite`].
#[allow(clippy::too_many_arguments)]
fn record_acquisition(
    lock: String,
    line: u32,
    close: usize,
    code: &[&Token],
    end: usize,
    depth: i32,
    guards: &mut Vec<Guard>,
    pending_let: &mut Option<String>,
    let_rhs_from: &mut Option<usize>,
    def: &mut FnDef,
) {
    let mut held: Vec<String> = guards.iter().map(|g| g.lock.clone()).collect();
    held.sort();
    held.dedup();
    def.locks.push(LockSite {
        lock: lock.clone(),
        line,
        held,
    });
    // `let g = <acquire>;` binds the guard: the very next token after
    // the closing paren must end the statement.
    let bound = pending_let.is_some() && close + 1 < end && is_punct(code, close + 1, ';');
    if bound {
        let var = pending_let.take();
        *let_rhs_from = None;
        guards.push(Guard { lock, var, depth });
    } else {
        guards.push(Guard {
            lock,
            var: None,
            depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        let tokens = lex(src);
        let code: Vec<&Token> = tokens
            .iter()
            .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
            .collect();
        parse_file("crates/x/src/a.rs", &code)
    }

    #[test]
    fn fns_and_owners_are_extracted() {
        let m = model(
            "
            pub fn free(a: u32, seed: u64) -> u64 { a as u64 ^ seed }
            impl Server {
                pub fn drain(&self) -> usize { 0 }
            }
            trait Recorder {
                fn add(&self, c: &str, d: u64);
                fn enabled(&self) -> bool { true }
            }
            ",
        );
        assert_eq!(m.fns.len(), 4);
        assert_eq!(m.fns[0].name, "free");
        assert_eq!(m.fns[0].params, vec!["a", "seed"]);
        assert_eq!(m.fns[1].owner.as_deref(), Some("Server"));
        assert_eq!(m.fns[1].owner_kind, OwnerKind::Impl);
        assert_eq!(m.fns[2].owner_kind, OwnerKind::Trait);
        assert_eq!(m.traits.len(), 1);
        assert_eq!(m.traits[0].methods, vec!["add", "enabled"]);
    }

    #[test]
    fn impl_trait_for_type_owner_is_the_type() {
        let m = model("impl Model for WotSnn { fn predict(&mut self) -> usize { 1 } }");
        assert_eq!(m.fns[0].owner.as_deref(), Some("WotSnn"));
        assert_eq!(m.fns[0].owner_kind, OwnerKind::TraitImpl);
    }

    #[test]
    fn calls_record_kind_qualifier_and_args() {
        let m = model(
            "
            fn f(seed: u64) {
                let rng = SplitMix64::new(seed ^ 0x9E);
                helper(rng.next_u64());
                self.engine.run_jobs(jobs);
            }
            ",
        );
        let calls = &m.fns[0].calls;
        let new = calls.iter().find(|c| c.name == "new").unwrap();
        assert_eq!(new.qualifier.as_deref(), Some("SplitMix64"));
        assert_eq!(new.args, vec!["seed #"]);
        let helper = calls.iter().find(|c| c.name == "helper").unwrap();
        assert!(!helper.is_method);
        assert_eq!(helper.args, vec!["rng next_u64"]);
        let run = calls.iter().find(|c| c.name == "run_jobs").unwrap();
        assert!(run.is_method);
    }

    #[test]
    fn turbofish_calls_are_recorded() {
        let m = model(
            "
            fn f(x: &[f64], out: &mut [f64]) {
                let col = sum_columns::<16>(x, out, 0);
                let v = Vec::<Vec<u8>>::with_capacity(col);
                x.iter().map(|&y| y as u64).sum::<u64>();
                let g = <Gauge as Probe<fn() -> u8>>::read(seed);
                let b = a < c && d > e;
            }
            ",
        );
        let calls = &m.fns[0].calls;
        let find = |name: &str| calls.iter().find(|c| c.name == name).unwrap();
        let free = find("sum_columns");
        assert_eq!((free.qualifier.as_deref(), free.is_method), (None, false));
        assert_eq!(free.args, vec!["x", "out", "#"]);
        assert_eq!(find("with_capacity").qualifier.as_deref(), Some("Vec"));
        assert_eq!(m.fns[0].allocs[0].what, "Vec::with_capacity");
        assert!(find("sum").is_method);
        let read = find("read");
        assert_eq!((read.qualifier.as_deref(), read.is_method), (None, true));
        assert_eq!(read.args, vec!["seed"]);
        assert_eq!(calls.len(), 6, "{calls:#?}");
    }

    #[test]
    fn trailing_commas_add_no_phantom_argument() {
        let m = model("fn f() { search(train, budget.min(8), PLAN_SEED,); }");
        let call = m.fns[0].calls.iter().find(|c| c.name == "search").unwrap();
        assert_eq!(call.args, vec!["train", "budget min #", "PLAN_SEED"]);
    }

    #[test]
    fn let_bound_guards_are_held_until_drop() {
        let m = model(
            "
            impl Server {
                fn drain(&self) {
                    let mut state = lock_or_recover(&self.state);
                    self.recorder.add(1);
                    drop(state);
                    self.recorder.observe(2);
                }
            }
            ",
        );
        let f = &m.fns[0];
        assert_eq!(f.locks.len(), 1);
        assert_eq!(f.locks[0].lock, "Server.state");
        let add = f.calls.iter().find(|c| c.name == "add").unwrap();
        assert_eq!(add.held, vec!["Server.state"]);
        let obs = f.calls.iter().find(|c| c.name == "observe").unwrap();
        assert!(obs.held.is_empty());
    }

    #[test]
    fn temporary_guards_die_at_statement_end() {
        let m = model(
            "
            impl Cache {
                fn get(&self) {
                    lock_or_recover(&self.map).get(&key);
                    other_call();
                }
            }
            ",
        );
        let f = &m.fns[0];
        let get = f.calls.iter().find(|c| c.name == "get").unwrap();
        assert_eq!(get.held, vec!["Cache.map"]);
        let other = f.calls.iter().find(|c| c.name == "other_call").unwrap();
        assert!(other.held.is_empty());
    }

    #[test]
    fn dot_lock_receivers_are_canonicalized() {
        let m = model(
            "
            impl Pool {
                fn take(&self) {
                    let g = self.inner.lock();
                    g.use_it();
                }
                fn local(&self) {
                    let slot = make();
                    slot.lock();
                }
            }
            ",
        );
        assert_eq!(m.fns[0].locks[0].lock, "Pool.inner");
        assert_eq!(m.fns[1].locks[0].lock, "slot");
    }

    #[test]
    fn nested_acquisition_records_held_set() {
        let m = model(
            "
            impl S {
                fn both(&self) {
                    let a = lock_or_recover(&self.first);
                    let b = lock_or_recover(&self.second);
                    use_both(a, b);
                }
            }
            ",
        );
        let f = &m.fns[0];
        assert_eq!(f.locks[1].lock, "S.second");
        assert_eq!(f.locks[1].held, vec!["S.first"]);
    }

    #[test]
    fn sources_and_allocs_are_recorded() {
        let m = model(
            "
            fn f() {
                let t = Instant::now();
                let v = Vec::new();
                v.push(1);
                let s = format!(\"x\");
                let r = thread_rng();
            }
            ",
        );
        let f = &m.fns[0];
        assert_eq!(f.sources.len(), 2);
        assert!(f.sources[0].clock);
        assert!(!f.sources[1].clock);
        let whats: Vec<&str> = f.allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(whats, vec!["Vec::new", "push", "format!"]);
    }

    #[test]
    fn test_items_are_marked() {
        let m = model(
            "
            fn lib() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
            ",
        );
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
        assert!(m.fns[2].is_test);
    }

    #[test]
    fn dyn_refs_are_collected() {
        let m = model("fn f(r: &dyn Recorder, m: Box<dyn Model>) {}");
        assert_eq!(m.dyn_refs, vec!["Model", "Recorder"]);
    }

    #[test]
    fn lets_capture_rhs_text() {
        let m = model("fn f(sm: &mut SplitMix64) { let first = sm.next_u64(); use_it(first); }");
        let f = &m.fns[0];
        assert_eq!(f.lets.len(), 1);
        assert_eq!(f.lets[0].name, "first");
        assert!(f.lets[0].rhs.contains("next_u64"));
    }
}
