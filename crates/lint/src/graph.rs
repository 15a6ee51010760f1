//! The workspace symbol graph and the cross-file lock/allocation rules.
//!
//! Phase 2 input is every non-test file's [`FileModel`]. This module
//! links call references to definitions (name resolution with a
//! std-collision deny list), computes transitive lock-acquisition sets,
//! and runs:
//!
//! * **R9 lock-order** — build the may-hold-while-acquiring graph across
//!   the whole workspace and flag every edge that participates in a
//!   cycle (including self-cycles: re-acquiring a held mutex), plus the
//!   dyn-dispatch variant: a lock held across a call to a method of a
//!   trait the workspace uses as `dyn Trait`, whose implementations may
//!   block or re-enter the holder.
//! * **R10 no-alloc-in-kernel** — no heap allocation in
//!   `nc_substrate::kernel` hot functions or anything they transitively
//!   call (constructors `new`/`ensure`/`with_capacity`/`default` are
//!   setup paths, not hot loops, and are exempt as roots).
//! * **R12 reachability** — every library `pub fn` is reached from a
//!   binary, bench, example or nested-workspace call site. Here a name
//!   match is enough: the deny-listed methods and `Type::f` paths named
//!   without a call both count as uses, because a false edge only
//!   hides dead code while a missed one reports live code as dead.
//!
//! Everything iterates in sorted order over `BTree` containers so the
//! produced findings are byte-identical regardless of the order files
//! were discovered in.

use crate::parse::{CallSite, FileModel, FnDef, OwnerKind};
use crate::rules::{FileContext, Finding, RuleId, TargetKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names that shadow std collection/iterator/IO methods, or that
/// several unrelated workspace types implement: a bare `.get(...)` is
/// overwhelmingly a `BTreeMap` or slice access, a `.flush()` is usually
/// `io::Write`, and `.record(...)` lands on three unrelated stats types
/// — so resolving them to same-named workspace methods would invent
/// call edges (and from them, phantom deadlocks). Calls to these names
/// never resolve; workspace APIs that must participate in the graph
/// (e.g. `Server::drain`) simply avoid these names.
pub const METHOD_DENY: [&str; 46] = [
    "all",
    "and_then",
    "any",
    "chain",
    "clear",
    "clone",
    "collect",
    "contains",
    "count",
    "dedup",
    "entry",
    "extend",
    "filter",
    "find",
    "first",
    "flat_map",
    "flush",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "position",
    "push",
    "record",
    "remove",
    "retain",
    "rev",
    "skip",
    "sort",
    "take",
    "to_string",
    "to_vec",
    "zip",
];

/// Kernel functions whose names mark them as setup/constructor paths
/// rather than hot loops (allowed to allocate).
const KERNEL_SETUP_FNS: [&str; 4] = ["new", "ensure", "with_capacity", "default"];

/// One analysis unit: a lintable (non-test-target) file.
#[derive(Debug)]
pub struct Unit<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Its parsed model.
    pub model: &'a FileModel,
}

/// A function definition inside the workspace graph.
#[derive(Debug, Clone, Copy)]
pub struct Def<'a> {
    /// Index into the unit list.
    pub unit: usize,
    /// The function's parsed facts.
    pub f: &'a FnDef,
}

/// The linked workspace symbol graph.
#[derive(Debug)]
pub struct SymbolGraph<'a> {
    /// The analysis units, sorted by path.
    pub units: Vec<Unit<'a>>,
    /// Every non-test function definition.
    pub defs: Vec<Def<'a>>,
    free: BTreeMap<&'a str, Vec<usize>>,
    assoc: BTreeMap<(&'a str, &'a str), Vec<usize>>,
    methods: BTreeMap<&'a str, Vec<usize>>,
    /// Method name → trait name, for traits used as `dyn Trait`.
    dyn_methods: BTreeMap<&'a str, &'a str>,
    /// Resolved callee def-ids per def.
    callees: Vec<Vec<usize>>,
    /// Lock field name → owning types (for canonicalizing `x.field`
    /// receivers that are not `self`).
    field_owners: BTreeMap<String, BTreeSet<String>>,
}

impl<'a> SymbolGraph<'a> {
    /// Links `units` (any order; they are sorted internally) into a
    /// workspace graph.
    pub fn build(mut units: Vec<Unit<'a>>) -> SymbolGraph<'a> {
        units.sort_by(|a, b| a.path.cmp(b.path));
        let mut defs: Vec<Def<'a>> = Vec::new();
        for (u, unit) in units.iter().enumerate() {
            for f in &unit.model.fns {
                if !f.is_test {
                    defs.push(Def { unit: u, f });
                }
            }
        }
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (d, def) in defs.iter().enumerate() {
            match &def.f.owner {
                None => free.entry(&def.f.name).or_default().push(d),
                Some(owner) => {
                    assoc
                        .entry((owner.as_str(), def.f.name.as_str()))
                        .or_default()
                        .push(d);
                    methods.entry(&def.f.name).or_default().push(d);
                }
            }
        }
        // Traits the workspace dispatches dynamically: declared in one
        // unit, referenced as `dyn Trait` in any unit.
        let mut dyn_names: BTreeSet<&str> = BTreeSet::new();
        for unit in &units {
            for name in &unit.model.dyn_refs {
                dyn_names.insert(name);
            }
        }
        let mut dyn_methods: BTreeMap<&str, &str> = BTreeMap::new();
        for unit in &units {
            for t in &unit.model.traits {
                if dyn_names.contains(t.name.as_str()) {
                    for m in &t.methods {
                        dyn_methods.entry(m).or_insert(&t.name);
                    }
                }
            }
        }
        // `Owner.field` lock names seen via `self.field` receivers tell
        // us which types own which lock fields.
        let mut field_owners: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for def in &defs {
            for l in &def.f.locks {
                if let Some((owner, field)) = l.lock.split_once('.') {
                    if !owner.is_empty() {
                        field_owners
                            .entry(field.to_string())
                            .or_default()
                            .insert(owner.to_string());
                    }
                }
            }
        }
        let mut graph = SymbolGraph {
            units,
            defs,
            free,
            assoc,
            methods,
            dyn_methods,
            callees: Vec::new(),
            field_owners,
        };
        graph.callees = graph
            .defs
            .iter()
            .map(|def| {
                let mut out: Vec<usize> = def
                    .f
                    .calls
                    .iter()
                    .flat_map(|c| graph.resolve(c, def.f))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        graph
    }

    /// Resolves one call reference made inside `caller` to candidate
    /// definitions; a `Self::` qualifier names the caller's own type.
    pub fn resolve(&self, call: &CallSite, caller: &FnDef) -> Vec<usize> {
        match (&call.qualifier, call.is_method) {
            (Some(q), _) => {
                let q = match (q.as_str(), caller.owner.as_deref()) {
                    ("Self", Some(owner)) => owner,
                    (q, _) => q,
                };
                if q.chars().next().is_some_and(char::is_uppercase) {
                    self.assoc
                        .get(&(q, call.name.as_str()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // `module::helper(...)` — resolve as a free fn.
                    self.free
                        .get(call.name.as_str())
                        .cloned()
                        .unwrap_or_default()
                }
            }
            (None, true) => {
                if METHOD_DENY.contains(&call.name.as_str()) {
                    Vec::new()
                } else {
                    self.methods
                        .get(call.name.as_str())
                        .cloned()
                        .unwrap_or_default()
                }
            }
            (None, false) => self
                .free
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
        }
    }

    /// Every def `f` may use, matched by name: its calls, including the
    /// deny-listed method names [`Self::resolve`] drops, plus its
    /// `Type::name` mentions.
    fn uses_of(&self, f: &FnDef) -> Vec<usize> {
        f.calls
            .iter()
            .chain(&f.mentions)
            .flat_map(|c| match c.qualifier {
                None if c.is_method => self
                    .methods
                    .get(c.name.as_str())
                    .cloned()
                    .unwrap_or_default(),
                _ => self.resolve(c, f),
            })
            .collect()
    }

    /// `Owner::name` (or bare name) for messages.
    pub fn qualname(&self, d: usize) -> String {
        let f = self.defs[d].f;
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// The file path a def lives in.
    pub fn path_of(&self, d: usize) -> &str {
        self.units[self.defs[d].unit].path
    }

    /// Is `name` a method of a trait the workspace uses via `dyn`?
    pub fn dyn_trait_of(&self, name: &str) -> Option<&str> {
        self.dyn_methods.get(name).copied()
    }

    /// Breadth-first reachability from `roots` over call edges; returns
    /// the visited set and a parent map for path reconstruction.
    pub fn reach(&self, roots: &[usize]) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
        Self::bfs(&self.callees, roots)
    }

    fn bfs(edges: &[Vec<usize>], roots: &[usize]) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
        let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = roots.iter().copied().collect();
        while let Some(d) = queue.pop_front() {
            for &c in &edges[d] {
                if seen.insert(c) {
                    parent.insert(c, d);
                    queue.push_back(c);
                }
            }
        }
        (seen, parent)
    }

    /// The call chain `root → ... → target` as qualified names.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut names = vec![self.qualname(target)];
        let mut at = target;
        while let Some(&p) = parent.get(&at) {
            names.push(self.qualname(p));
            at = p;
        }
        names.reverse();
        names
    }

    /// Canonicalizes a raw lock name recorded in def `d`:
    ///
    /// * `Owner.field` stays as-is;
    /// * `.field` / `self.field` (receiver through another binding, or
    ///   `self` in a free fn) collapses to `Owner.field` when exactly one
    ///   type owns a lock field of that name;
    /// * a lowercase bare name is a local and gets scoped to its
    ///   function (`file:fn/name`) so same-named locals in different
    ///   functions stay distinct;
    /// * an UPPERCASE bare name is a global/static and stays as-is.
    pub fn canon_lock(&self, d: usize, raw: &str) -> String {
        if let Some((owner, field)) = raw.split_once('.') {
            if !owner.is_empty() && owner != "self" {
                return raw.to_string();
            }
            if let Some(owners) = self.field_owners.get(field) {
                if let (1, Some(owner)) = (owners.len(), owners.iter().next()) {
                    return format!("{owner}.{field}");
                }
            }
            return format!(".{field}");
        }
        if raw.chars().next().is_some_and(char::is_lowercase) {
            let def = self.defs[d];
            format!("{}:{}/{raw}", self.units[def.unit].path, def.f.name)
        } else {
            raw.to_string()
        }
    }

    /// Transitive lock-acquisition sets (canonical names) per def.
    pub fn transitive_locks(&self) -> Vec<BTreeSet<String>> {
        let mut acq: Vec<BTreeSet<String>> = self
            .defs
            .iter()
            .enumerate()
            .map(|(d, def)| {
                def.f
                    .locks
                    .iter()
                    .map(|l| self.canon_lock(d, &l.lock))
                    .collect()
            })
            .collect();
        // Fixpoint: propagate callee acquisitions up to callers. The
        // graph is small (hundreds of defs), so iterate to stability.
        loop {
            let mut changed = false;
            for d in 0..self.defs.len() {
                let mut grown: Vec<String> = Vec::new();
                for &c in &self.callees[d] {
                    if c == d {
                        continue;
                    }
                    for l in &acq[c] {
                        if !acq[d].contains(l) {
                            grown.push(l.clone());
                        }
                    }
                }
                if !grown.is_empty() {
                    changed = true;
                    acq[d].extend(grown);
                }
            }
            if !changed {
                return acq;
            }
        }
    }
}

/// One may-hold-while-acquiring edge with its provenance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: Option<String>,
}

/// Runs R9 (lock-order cycles + dyn-dispatch-under-lock) over the graph.
pub fn check_lock_order(graph: &SymbolGraph<'_>) -> Vec<Finding> {
    let acq = graph.transitive_locks();
    let mut edges: BTreeSet<LockEdge> = BTreeSet::new();
    let mut findings = Vec::new();

    for (d, def) in graph.defs.iter().enumerate() {
        let file = graph.path_of(d).to_string();
        for l in &def.f.locks {
            let to = graph.canon_lock(d, &l.lock);
            for h in &l.held {
                edges.insert(LockEdge {
                    from: graph.canon_lock(d, h),
                    to: to.clone(),
                    file: file.clone(),
                    line: l.line,
                    via: None,
                });
            }
        }
        for call in &def.f.calls {
            if call.held.is_empty() {
                continue;
            }
            // Dyn-dispatch hazard: holding a lock across a method of a
            // trait the workspace calls through `dyn` — implementations
            // are open-ended and may block or call back into the holder.
            if call.is_method {
                if let Some(trait_name) = graph.dyn_trait_of(&call.name) {
                    let held: Vec<String> =
                        call.held.iter().map(|h| graph.canon_lock(d, h)).collect();
                    findings.push(Finding {
                        file: file.clone(),
                        line: call.line,
                        rule: RuleId::R9,
                        message: format!(
                            "`{}` held across dyn-dispatched `{trait_name}::{}` — \
                             implementations may block or re-enter the holder; move the \
                             call outside the critical section",
                            held.join("`, `"),
                            call.name
                        ),
                    });
                }
            }
            for &c in &graph.resolve(call, def.f) {
                for to in &acq[c] {
                    for h in &call.held {
                        edges.insert(LockEdge {
                            from: graph.canon_lock(d, h),
                            to: to.clone(),
                            file: file.clone(),
                            line: call.line,
                            via: Some(graph.qualname(c)),
                        });
                    }
                }
            }
        }
    }

    // Cycle detection over the lock-order graph: an edge is reported
    // when its target can reach its source again.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(at) = stack.pop() {
            if at == to {
                return true;
            }
            if let Some(next) = adj.get(at) {
                for n in next {
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        false
    };
    for e in &edges {
        if e.from == e.to {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: RuleId::R9,
                message: format!(
                    "`{}` acquired while already held{} — self-deadlock",
                    e.to,
                    via_note(&e.via)
                ),
            });
        } else if reaches(&e.to, &e.from) {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                rule: RuleId::R9,
                message: format!(
                    "lock-order cycle: `{}` acquired while holding `{}`{}, but elsewhere \
                     `{}` is acquired while `{}` is held",
                    e.to,
                    e.from,
                    via_note(&e.via),
                    e.from,
                    e.to
                ),
            });
        }
    }
    findings
}

fn via_note(via: &Option<String>) -> String {
    match via {
        Some(callee) => format!(" (via call to `{callee}`)"),
        None => String::new(),
    }
}

/// Runs R10 (no heap allocation on kernel hot paths) over the graph.
pub fn check_kernel_allocs(graph: &SymbolGraph<'_>) -> Vec<Finding> {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, def)| {
            graph.units[def.unit]
                .path
                .ends_with("substrate/src/kernel.rs")
                && !KERNEL_SETUP_FNS.contains(&def.f.name.as_str())
        })
        .map(|(d, _)| d)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let (reached, parent) = graph.reach(&roots);
    let mut findings = Vec::new();
    for &d in &reached {
        let def = graph.defs[d];
        if def.f.allocs.is_empty() {
            continue;
        }
        let chain = graph.chain(&parent, d);
        let root = chain.first().cloned().unwrap_or_else(|| graph.qualname(d));
        for a in &def.f.allocs {
            findings.push(Finding {
                file: graph.path_of(d).to_string(),
                line: a.line,
                rule: RuleId::R10,
                message: format!(
                    "`{}` allocates on a kernel hot path (reachable from `{root}`); \
                     use caller-provided scratch buffers",
                    a.what
                ),
            });
        }
    }
    findings
}

/// Runs R12 (every library `pub fn` is reached from a deliverable
/// target) over the graph. The roots are every fn of a binary unit,
/// every trait-impl method (`Display::fmt` or `FromIterator::from_iter`
/// run without a call by name), and everything `roots` (bench, example
/// and nested-workspace fns) uses. Tests are no roots: a `pub fn` only
/// tests call is a finding too.
pub fn check_reachability(graph: &SymbolGraph<'_>, roots: &[&FnDef]) -> Vec<Finding> {
    let mut root_defs: Vec<usize> = roots.iter().flat_map(|f| graph.uses_of(f)).collect();
    root_defs.extend((0..graph.defs.len()).filter(|&d| {
        graph.defs[d].f.owner_kind == OwnerKind::TraitImpl
            || FileContext::classify(graph.path_of(d)).target == TargetKind::Binary
    }));
    let uses: Vec<Vec<usize>> = graph.defs.iter().map(|def| graph.uses_of(def.f)).collect();
    let (reached, _) = SymbolGraph::bfs(&uses, &root_defs);
    (0..graph.defs.len())
        .filter(|&d| {
            graph.defs[d].f.is_pub
                && !reached.contains(&d)
                && FileContext::classify(graph.path_of(d)).target == TargetKind::Library
        })
        .map(|d| Finding {
            file: graph.path_of(d).to_string(),
            line: graph.defs[d].f.line,
            rule: RuleId::R12,
            message: format!(
                "`{}` is public but no binary, bench, example or nested workspace reaches \
                 it; delete it, make it private, or move it into the tests that call it",
                graph.qualname(d)
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, Token, TokenKind};
    use crate::parse::parse_file;

    fn models(files: &[(&str, &str)]) -> Vec<FileModel> {
        files
            .iter()
            .map(|(path, src)| {
                let tokens = lex(src);
                let code: Vec<&Token> = tokens
                    .iter()
                    .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
                    .collect();
                parse_file(path, &code)
            })
            .collect()
    }

    fn graph(models: &[FileModel]) -> SymbolGraph<'_> {
        SymbolGraph::build(
            models
                .iter()
                .map(|m| Unit {
                    path: &m.path,
                    model: m,
                })
                .collect(),
        )
    }

    #[test]
    fn cross_file_lock_cycle_is_found() {
        let ms = models(&[
            (
                "crates/a/src/fwd.rs",
                "impl Gate {
                    pub fn forward(&self) {
                        let g = lock_or_recover(&self.admission);
                        lock_or_recover(&self.completion).clear();
                    }
                }",
            ),
            (
                "crates/a/src/back.rs",
                "impl Gate {
                    pub fn backward(&self) {
                        let g = lock_or_recover(&self.completion);
                        lock_or_recover(&self.admission).clear();
                    }
                }",
            ),
        ]);
        let findings = check_lock_order(&graph(&ms));
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == RuleId::R9));
        assert!(findings[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let ms = models(&[(
            "crates/a/src/ok.rs",
            "impl Gate {
                pub fn forward(&self) {
                    let g = lock_or_recover(&self.admission);
                    lock_or_recover(&self.completion).clear();
                }
                pub fn again(&self) {
                    let g = lock_or_recover(&self.admission);
                    lock_or_recover(&self.completion).clear();
                }
            }",
        )]);
        assert!(check_lock_order(&graph(&ms)).is_empty());
    }

    #[test]
    fn cycle_through_a_callee_is_found() {
        let ms = models(&[(
            "crates/a/src/x.rs",
            "impl Gate {
                pub fn outer(&self) {
                    let g = lock_or_recover(&self.admission);
                    self.helper();
                }
                fn helper(&self) {
                    lock_or_recover(&self.completion).clear();
                }
                pub fn reversed(&self) {
                    let g = lock_or_recover(&self.completion);
                    lock_or_recover(&self.admission).clear();
                }
            }",
        )]);
        let findings = check_lock_order(&graph(&ms));
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("via call to `Gate::helper`")),
            "{findings:?}"
        );
    }

    #[test]
    fn cycle_through_a_self_path_callee_is_found() {
        let ms = models(&[(
            "crates/a/src/x.rs",
            "impl Gate {
                pub fn outer(&self) {
                    let g = lock_or_recover(&self.admission);
                    Self::helper(self);
                }
                fn helper(&self) {
                    lock_or_recover(&self.completion).clear();
                }
                pub fn reversed(&self) {
                    let g = lock_or_recover(&self.completion);
                    lock_or_recover(&self.admission).clear();
                }
            }",
        )]);
        let findings = check_lock_order(&graph(&ms));
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("via call to `Gate::helper`")),
            "{findings:?}"
        );
    }

    #[test]
    fn dyn_dispatch_under_lock_is_flagged() {
        let ms = models(&[
            (
                "crates/a/src/obs.rs",
                "pub trait Telemetry { fn emit(&self, v: u64); }",
            ),
            (
                "crates/a/src/gate.rs",
                "impl Gate {
                    pub fn flush(&self, rec: &dyn Telemetry) {
                        let g = lock_or_recover(&self.state);
                        rec.emit(1);
                    }
                }",
            ),
        ]);
        let findings = check_lock_order(&graph(&ms));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("Telemetry::emit"),
            "{findings:?}"
        );
    }

    #[test]
    fn dropping_the_guard_before_dyn_dispatch_is_clean() {
        let ms = models(&[
            (
                "crates/a/src/obs.rs",
                "pub trait Telemetry { fn emit(&self, v: u64); }",
            ),
            (
                "crates/a/src/gate.rs",
                "impl Gate {
                    pub fn flush(&self, rec: &dyn Telemetry) {
                        let g = lock_or_recover(&self.state);
                        drop(g);
                        rec.emit(1);
                    }
                }",
            ),
        ]);
        assert!(check_lock_order(&graph(&ms)).is_empty());
    }

    #[test]
    fn deny_listed_methods_create_no_edges() {
        // `.get(...)` under a temp guard must not resolve to the
        // workspace `get` and invent a self-cycle.
        let ms = models(&[(
            "crates/a/src/cache.rs",
            "impl Cache {
                pub fn get(&self, key: u64) -> u64 {
                    lock_or_recover(&self.map).get(&key).copied().unwrap_or(0)
                }
            }",
        )]);
        assert!(check_lock_order(&graph(&ms)).is_empty());
    }

    #[test]
    fn kernel_alloc_through_helper_is_flagged() {
        let ms = models(&[(
            "crates/substrate/src/kernel.rs",
            "pub fn gemv_hot(x: &[i8]) -> i32 { accumulate(x) }
             fn accumulate(x: &[i8]) -> i32 {
                 let mut v = Vec::new();
                 v.push(1);
                 0
             }",
        )]);
        let findings = check_kernel_allocs(&graph(&ms));
        assert_eq!(findings.len(), 2, "{findings:?}");
        // `accumulate` sits in kernel.rs, so it is itself a hot root —
        // the shortest chain to the alloc starts there.
        assert!(findings[0].message.contains("accumulate"), "{findings:?}");
        assert!(
            findings[0].message.contains("kernel hot path"),
            "{findings:?}"
        );
    }

    #[test]
    fn kernel_constructors_may_allocate() {
        let ms = models(&[(
            "crates/substrate/src/kernel.rs",
            "impl Lut {
                pub fn new(n: usize) -> Lut {
                    let mut table = Vec::with_capacity(n);
                    table.push(0);
                    Lut { table }
                }
            }",
        )]);
        assert!(check_kernel_allocs(&graph(&ms)).is_empty());
    }
}
