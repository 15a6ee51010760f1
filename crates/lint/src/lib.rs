//! `nc-lint` — the workspace invariant checker.
//!
//! The paper comparison this repository reproduces rests on bit-faithful
//! narrow fixed-point datapaths and byte-reproducible experiment runs
//! (`threads = 1` must equal `threads = 4` exactly). Those properties
//! depend on source-level invariants that `rustc` does not enforce and
//! that only fail *silently* — as accuracy drift or flaky golden
//! snapshots. This crate enforces them mechanically, in two phases:
//!
//! **Phase 1** lexes each file ([`lexer`]) and runs the per-file rules
//! over the token stream, while also parsing a lightweight item/scope
//! model ([`parse`]) of what the file defines, calls, locks, and
//! allocates. **Phase 2** links every file's model into a workspace
//! symbol graph ([`graph`]) and runs the cross-file rules on it
//! ([`graph`], [`taint`]) — so a clock read laundered through a helper
//! in another crate, or a mutex pair acquired in opposite orders by two
//! different modules, is still caught.
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | R1 | per-file | no `f32`/`f64` in fixed-point datapath modules |
//! | R2 | per-file | no bare narrowing `as` casts outside the audited fixed-point module |
//! | R3 | per-file | no wall-clock reads outside the observability crates |
//! | R4 | per-file | no `HashMap`/`HashSet` (hash iteration order) anywhere |
//! | R5 | per-file | no `unwrap`/`expect`/`panic!`/`todo!` in library code |
//! | R6 | per-file | no thread creation outside the engine pool |
//! | R7 | per-file | no entropy-sourced RNG construction |
//! | R8 | graph | no clock/entropy source reachable from a determinism root |
//! | R9 | graph | no lock-order cycles; no lock held across dyn dispatch |
//! | R10 | graph | no heap allocation on `nc_substrate::kernel` hot paths |
//! | R11 | graph | seed arguments derive from seeded streams or named constants |
//! | R12 | graph | every library `pub fn` is reached from a binary, bench or example |
//!
//! Violations that are intentional carry an inline, auditable waiver:
//!
//! ```text
//! // nc-lint: allow(R3, reason = "job wall-clock feeds the stats table, never results")
//! ```
//!
//! (`allow-file(...)` at any line waives a rule for the whole file; an
//! optional `expires = "PR<n>"` field makes the waiver lapse at PR *n*.)
//! A waiver without a non-empty `reason`, one that stops matching
//! anything, or one past its expiry is itself a finding — the
//! suppression set can only shrink unless someone writes down *why* it
//! grew.
//!
//! The crate is std-only and dependency-free: there is no `syn` because
//! the build is offline. Run it as `cargo run -p nc-lint` (`--json` for
//! the machine-readable report, `--sarif FILE` for SARIF 2.1.0). A cold
//! run over the whole workspace is fast enough that nothing is cached.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod taint;
pub mod walk;

pub use report::Report;
pub use rules::{scan_file, Finding, RuleId};

use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of in-memory sources (`(workspace-relative path, text)`)
/// through the full two-phase pipeline. R12 runs only when `nested` is
/// given: the sources of the nested workspaces whose call sites are its
/// roots, which only a tree's targets supply. Pure and
/// order-insensitive: the same set of files produces a byte-identical
/// report whatever order they arrive in.
pub fn lint_sources(files: &[(String, String)], nested: Option<&[(String, String)]>) -> Report {
    let scan = |(path, source): &(String, String)| rules::scan_file(path, source);
    let mut scans: Vec<_> = files.iter().map(scan).collect();
    // Sort before building the graph so the report is byte-identical
    // regardless of the order files were discovered in.
    scans.sort_by(|a, b| a.path.cmp(&b.path));
    let nested: Option<Vec<_>> = nested.map(|n| n.iter().map(|f| scan(f).model).collect());
    let phase2 = rules::run_phase2(&scans, nested.as_deref());
    rules::resolve_workspace(scans, phase2)
}

/// Lints every `.rs` file under `root` (skipping `target/`, hidden
/// directories, fixture corpora and nested workspaces) and folds the
/// results into one [`Report`]. When `root` is a Cargo workspace, R12
/// runs too, with the skipped nested workspaces' call sites as roots.
///
/// # Errors
///
/// Returns an I/O error if the tree cannot be walked or a source file
/// cannot be read.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let tree = walk::rust_files(root)?;
    let read = |paths: &[PathBuf]| -> io::Result<Vec<(String, String)>> {
        paths
            .iter()
            .map(|p| Ok((walk::relative_key(root, p), std::fs::read_to_string(p)?)))
            .collect()
    };
    let files = read(&tree.own)?;
    let nested = if walk::is_workspace_root(root) {
        Some(read(&tree.nested)?)
    } else {
        None
    };
    Ok(lint_sources(&files, nested.as_deref()))
}
