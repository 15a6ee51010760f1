//! The `nc-lint` CLI.
//!
//! ```text
//! cargo run -p nc-lint                  # human-readable report, exit 1 on findings
//! cargo run -p nc-lint -- --json        # machine-readable report (schema v3)
//! cargo run -p nc-lint -- --sarif out.sarif   # also write SARIF 2.1.0
//! cargo run -p nc-lint -- --root path/to/tree
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O failure.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => match args.next() {
                Some(path) => sarif_out = Some(PathBuf::from(path)),
                None => return usage("--sarif needs an output path argument"),
            },
            "--root" => match args.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => return usage("--root needs a path argument"),
            },
            "--help" | "-h" => {
                println!("usage: nc-lint [--json] [--sarif FILE] [--root DIR]");
                println!(
                    "Checks workspace invariants R1-R11; see DESIGN.md \"Static invariants\"."
                );
                return ExitCode::SUCCESS;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(PathBuf::from(other));
            }
            other => return usage(&format!("unrecognized argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => match find_workspace_root() {
            Some(r) => r,
            None => return usage("no Cargo workspace found above the current directory"),
        },
    };

    match nc_lint::lint_tree(&root) {
        Ok(report) => {
            if let Some(path) = sarif_out {
                let doc = nc_lint::sarif::render_sarif(&report);
                if let Err(err) = std::fs::write(&path, doc) {
                    eprintln!("nc-lint: cannot write SARIF to {}: {err}", path.display());
                    return ExitCode::from(2);
                }
            }
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("nc-lint: I/O error under {}: {err}", root.display());
            ExitCode::from(2)
        }
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("nc-lint: {problem}");
    eprintln!("usage: nc-lint [--json] [--sarif FILE] [--root DIR]");
    ExitCode::from(2)
}

/// Walks upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir: PathBuf = std::env::current_dir().ok()?;
    loop {
        if nc_lint::walk::is_workspace_root(&dir) {
            return Some(dir);
        }
        if !pop(&mut dir) {
            return None;
        }
    }
}

fn pop(dir: &mut PathBuf) -> bool {
    let parent: Option<PathBuf> = Path::new(dir).parent().map(Path::to_path_buf);
    match parent {
        Some(p) if p != *dir => {
            *dir = p;
            true
        }
        _ => false,
    }
}
