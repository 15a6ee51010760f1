//! Fixture corpora driven through the exact code path the CLI uses.
//!
//! `tests/fixtures/violations/` mirrors the workspace layout with one
//! deliberately violating file per rule plus a suppression-audit file;
//! `tests/fixtures/clean/` holds the near-misses (casts in strings and
//! comments, test-only floats, scoped exemptions, justified waivers)
//! that must never produce a finding; `tests/fixtures/nested_workspace/`
//! holds a nested Cargo workspace the walker must skip;
//! `tests/fixtures/reach_violations/` and `reach_clean/` are workspace
//! roots for R12, which needs a tree's targets. The real
//! `cargo run -p nc-lint` never sees any corpus: the walker skips
//! `fixtures/` directories.

use nc_lint::rules::{Finding, RuleId};
use nc_lint::Report;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Read at run time, not through `env!`: a test binary built in a target
/// dir shared with another checkout must read this checkout's fixtures.
fn fixture(name: &str) -> PathBuf {
    PathBuf::from(
        std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo test sets CARGO_MANIFEST_DIR"),
    )
    .join("tests/fixtures")
    .join(name)
}

fn lint(name: &str) -> Report {
    nc_lint::lint_tree(&fixture(name)).expect("fixture tree is readable")
}

/// The findings of one rule, in report order.
fn findings_for(report: &Report, rule: RuleId) -> Vec<&Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

fn count(report: &Report, rule: RuleId) -> usize {
    findings_for(report, rule).len()
}

#[test]
fn violations_corpus_trips_every_rule() {
    let report = lint("violations");
    assert_eq!(count(&report, RuleId::R1), 2, "{report:#?}");
    assert_eq!(count(&report, RuleId::R2), 1, "{report:#?}");
    assert_eq!(count(&report, RuleId::R3), 4, "{report:#?}");
    assert_eq!(count(&report, RuleId::R4), 5, "{report:#?}");
    assert_eq!(count(&report, RuleId::R5), 2, "{report:#?}");
    assert_eq!(count(&report, RuleId::R6), 1, "{report:#?}");
    assert_eq!(count(&report, RuleId::R7), 3, "{report:#?}");
    assert_eq!(count(&report, RuleId::Suppress), 3, "{report:#?}");
    assert_eq!(report.findings.len(), 21);
    assert!(!report.is_clean());
}

#[test]
fn violations_land_on_the_expected_lines() {
    let report = lint("violations");
    let at = |rule: RuleId, file: &str, line: u32| {
        assert!(
            findings_for(&report, rule)
                .iter()
                .any(|f| f.file == file && f.line == line),
            "missing {rule} at {file}:{line}: {report:#?}"
        );
    };
    at(RuleId::R1, "crates/hw/src/sim.rs", 3);
    at(RuleId::R1, "crates/hw/src/sim.rs", 4);
    at(RuleId::R2, "crates/mlp/src/quant.rs", 4);
    at(RuleId::R3, "crates/core/src/clock.rs", 6);
    at(RuleId::R3, "crates/serve/src/admission.rs", 5);
    at(RuleId::R4, "crates/core/src/cache.rs", 3);
    at(RuleId::R5, "crates/snn/src/panics.rs", 4);
    at(RuleId::R5, "crates/snn/src/panics.rs", 8);
    at(RuleId::R6, "crates/core/src/workers.rs", 4);
    at(RuleId::R7, "crates/faults/src/entropy.rs", 4);
    at(RuleId::R7, "crates/serve/src/admission.rs", 10);
    at(RuleId::R7, "crates/substrate/src/entropy.rs", 4);
    // Suppression audit: reasonless waiver, unknown rule, stale waiver.
    at(RuleId::Suppress, "crates/core/src/suppress.rs", 3);
    at(RuleId::Suppress, "crates/core/src/suppress.rs", 6);
    at(RuleId::Suppress, "crates/core/src/suppress.rs", 9);
}

#[test]
fn malformed_suppressions_do_not_silence_the_line_below() {
    let report = lint("violations");
    // Both HashMap uses under the broken waivers in suppress.rs still fire.
    let r4_in_suppress: Vec<u32> = findings_for(&report, RuleId::R4)
        .iter()
        .filter(|f| f.file == "crates/core/src/suppress.rs")
        .map(|f| f.line)
        .collect();
    assert_eq!(r4_in_suppress, vec![4, 7], "{report:#?}");
    // The only well-formed suppression in the corpus is the stale one.
    assert_eq!(report.suppressions_total, 1);
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn findings_are_sorted_by_file_line_rule() {
    let report = lint("violations");
    let keys: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn clean_corpus_produces_no_findings() {
    let report = lint("clean");
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.files_scanned, 13);
    // Every waiver in the corpus is justified AND load-bearing.
    assert_eq!(report.suppressions_total, 4);
    assert_eq!(report.suppressions_used, 4);
}

#[test]
fn json_report_round_trips_the_verdict() {
    let bad = lint("violations").render_json();
    assert!(bad.contains("\"version\": 3"), "{bad}");
    assert!(bad.contains("\"clean\": false"), "{bad}");
    assert!(bad.contains("\"rule\": \"R6\""), "{bad}");
    assert!(bad.contains("\"rule\": \"SUPPRESS\""), "{bad}");
    assert!(bad.contains("\"file\": \"crates/hw/src/sim.rs\""), "{bad}");

    let good = lint("clean").render_json();
    assert!(good.contains("\"clean\": true"), "{good}");
    assert!(good.contains("\"findings\": []"), "{good}");
    assert!(
        good.contains("\"suppressions\": { \"total\": 4, \"used\": 4 }"),
        "{good}"
    );
}

#[test]
fn cli_exit_codes_and_json_match_the_library() {
    let exe = env!("CARGO_BIN_EXE_nc-lint");

    let bad = Command::new(exe)
        .args(["--json", "--root"])
        .arg(fixture("violations"))
        .output()
        .expect("spawn nc-lint");
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
    let stdout = String::from_utf8(bad.stdout).expect("utf8 stdout");
    assert!(stdout.contains("\"clean\": false"), "{stdout}");
    assert!(stdout.contains("\"rule\": \"R2\""), "{stdout}");

    let good = Command::new(exe)
        .arg("--root")
        .arg(fixture("clean"))
        .output()
        .expect("spawn nc-lint");
    assert_eq!(good.status.code(), Some(0), "{good:?}");
    let stdout = String::from_utf8(good.stdout).expect("utf8 stdout");
    assert!(
        stdout.contains("0 finding(s) across 13 file(s); 4/4 suppression(s) in use"),
        "{stdout}"
    );

    let usage = Command::new(exe)
        .arg("--no-such-flag")
        .output()
        .expect("spawn nc-lint");
    assert_eq!(usage.status.code(), Some(2), "{usage:?}");
}

// ---------------------------------------------------------------------
// Phase-2 corpora: tests/fixtures/graph_violations/ trips every
// cross-file rule (R8–R11) plus an expired waiver; graph_clean/ holds
// the near-misses (obs-quarantined clocks, consistent lock order,
// dropped guards, setup-only allocation, derived seeds) and the two
// waiver flavours that must still suppress.

#[test]
fn graph_violations_corpus_trips_every_phase2_rule() {
    let report = lint("graph_violations");
    assert_eq!(count(&report, RuleId::R3), 1, "{report:#?}");
    assert_eq!(count(&report, RuleId::R4), 1, "{report:#?}");
    assert_eq!(count(&report, RuleId::R7), 2, "{report:#?}");
    assert_eq!(count(&report, RuleId::R8), 3, "{report:#?}");
    assert_eq!(count(&report, RuleId::R9), 4, "{report:#?}");
    assert_eq!(count(&report, RuleId::R10), 2, "{report:#?}");
    assert_eq!(count(&report, RuleId::R11), 2, "{report:#?}");
    assert_eq!(count(&report, RuleId::Suppress), 1, "{report:#?}");
    assert_eq!(report.findings.len(), 16);
    assert_eq!(report.files_scanned, 15);
    // The corpus's only suppression is the expired one, which never
    // counts as used.
    assert_eq!(report.suppressions_total, 1);
    assert_eq!(report.suppressions_used, 0);
}

#[test]
fn phase2_violations_land_on_the_expected_lines() {
    let report = lint("graph_violations");
    let at = |rule: RuleId, file: &str, line: u32| {
        assert!(
            findings_for(&report, rule)
                .iter()
                .any(|f| f.file == file && f.line == line),
            "missing {rule} at {file}:{line}: {report:#?}"
        );
    };
    // R3: the chaos delay that reads the wall clock instead of ticks.
    at(RuleId::R3, "crates/serve/src/chaos.rs", 6);
    // R8: a clock two hops from `evaluate_batch`, entropy one hop from
    // a figure writer.
    at(RuleId::R8, "crates/bench/src/timing.rs", 6);
    at(RuleId::R8, "crates/core/src/noise.rs", 6);
    // R9: self-deadlock, both halves of the ALPHA/BETA cycle, and a
    // dyn dispatch under the registry lock.
    at(RuleId::R9, "crates/serve/src/queue.rs", 12);
    at(RuleId::R9, "crates/serve/src/ab.rs", 6);
    at(RuleId::R9, "crates/core/src/ba.rs", 7);
    at(RuleId::R9, "crates/serve/src/sink.rs", 18);
    // R10: the hot fn's own temporary plus the helper it reaches.
    at(RuleId::R10, "crates/substrate/src/kernel.rs", 6);
    at(RuleId::R10, "crates/substrate/src/scratch.rs", 6);
    // R11: the magic literal seed.
    at(RuleId::R11, "crates/snn/src/net.rs", 18);
    // The mesh corpus: entropy-jittered placement (R7), the same draw
    // reached from the fig_mesh writer root (R8), and a magic fabric
    // seed (R11).
    at(RuleId::R7, "crates/hw/src/mesh_deploy.rs", 17);
    at(RuleId::R8, "crates/hw/src/mesh_deploy.rs", 17);
    at(RuleId::R11, "crates/hw/src/mesh_deploy.rs", 23);
    // The expired waiver surfaces itself AND the R4 it used to hide.
    at(RuleId::Suppress, "crates/core/src/stale.rs", 5);
    at(RuleId::R4, "crates/core/src/stale.rs", 6);
}

#[test]
fn phase2_findings_carry_call_chains_and_canonical_locks() {
    let report = lint("graph_violations");
    let m = |rule: RuleId, file: &str| {
        findings_for(&report, rule)
            .iter()
            .find(|f| f.file == file)
            .map(|f| f.message.clone())
            .unwrap_or_default()
    };
    let r8 = m(RuleId::R8, "crates/bench/src/timing.rs");
    assert!(r8.contains("Mlp::evaluate_batch"), "{r8}");
    assert!(r8.contains("→ timed_len"), "{r8}");
    let r9 = m(RuleId::R9, "crates/serve/src/queue.rs");
    assert!(r9.contains("Queue.state"), "{r9}");
    assert!(r9.contains("self-deadlock"), "{r9}");
    let dyn_r9 = m(RuleId::R9, "crates/serve/src/sink.rs");
    assert!(dyn_r9.contains("Sink::emit"), "{dyn_r9}");
    let expired = m(RuleId::Suppress, "crates/core/src/stale.rs");
    assert!(expired.contains("expired at PR7"), "{expired}");
}

#[test]
fn graph_clean_corpus_produces_no_findings() {
    let report = lint("graph_clean");
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.files_scanned, 11);
    // Both waivers — the explicit allow(R8) on the probe's clock and
    // the future-dated R4 one — suppress something real.
    assert_eq!(report.suppressions_total, 2);
    assert_eq!(report.suppressions_used, 2);
}

#[test]
fn sarif_output_matches_the_corpus_reports() {
    let bad = nc_lint::sarif::render_sarif(&lint("graph_violations"));
    assert!(bad.contains("\"version\": \"2.1.0\""), "{bad}");
    assert!(bad.contains("sarif-2.1.0.json"), "{bad}");
    assert!(bad.contains("\"name\": \"nc-lint\""), "{bad}");
    assert!(bad.contains("\"ruleId\": \"R9\""), "{bad}");
    assert!(bad.contains("\"ruleId\": \"R11\""), "{bad}");
    assert!(
        bad.contains("\"uri\": \"crates/serve/src/queue.rs\""),
        "{bad}"
    );
    assert!(bad.contains("\"startLine\": 12"), "{bad}");

    let good = nc_lint::sarif::render_sarif(&lint("graph_clean"));
    assert!(good.contains("\"results\": []"), "{good}");
    // The rule table ships even when nothing fired.
    assert!(good.contains("\"id\": \"R10\""), "{good}");
}

#[test]
fn cli_writes_sarif_alongside_the_terminal_report() {
    let exe = env!("CARGO_BIN_EXE_nc-lint");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-sarif.sarif");
    let run = Command::new(exe)
        .args(["--sarif"])
        .arg(&out)
        .args(["--root"])
        .arg(fixture("graph_violations"))
        .output()
        .expect("spawn nc-lint");
    // Findings still drive the exit code; the SARIF file is a side
    // output for upload.
    assert_eq!(run.status.code(), Some(1), "{run:?}");
    let doc = std::fs::read_to_string(&out).expect("SARIF file written");
    assert!(doc.contains("\"ruleId\": \"R8\""), "{doc}");
    assert!(doc.contains("\"ruleId\": \"R10\""), "{doc}");
}

#[test]
fn nested_workspaces_are_skipped() {
    // `perf/` declares its own `[workspace]`; the member crate under
    // `crates/` does not, so only the member's file is scanned.
    let report = lint("nested_workspace");
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.files_scanned, 1);
    // Linted as a tree of its own, the nested workspace does trip the
    // rules, so the clean verdict above comes from the skip.
    let nested = nc_lint::lint_tree(&fixture("nested_workspace").join("perf"))
        .expect("fixture tree is readable");
    assert_eq!(nested.files_scanned, 1);
    assert!(count(&nested, RuleId::R4) > 0, "{nested:#?}");
}

// ---------------------------------------------------------------------
// R12 corpora: each root declares `[workspace]`, so the walk knows the
// tree's targets. reach_violations/ holds a test-only `pub fn` and an
// unreached chain; reach_clean/ reaches every `pub fn` from a binary, a
// bench, an example, a nested workspace, a deny-listed method name, a
// `map(Self::f)` path and a trait impl, and waives a test reference.

#[test]
fn reach_violations_corpus_flags_test_only_and_unreached_pub_fns() {
    let report = lint("reach_violations");
    assert_eq!(count(&report, RuleId::R12), 3, "{report:#?}");
    assert_eq!(report.findings.len(), 3, "{report:#?}");
    assert_eq!(report.files_scanned, 3);
    let message = |line: u32| {
        findings_for(&report, RuleId::R12)
            .iter()
            .find(|f| f.file == "crates/snn/src/helpers.rs" && f.line == line)
            .map(|f| f.message.clone())
            .unwrap_or_default()
    };
    // A test call is no root.
    assert!(message(4).contains("`test_only`"), "{report:#?}");
    // Both ends of the unreached chain `outer → inner`.
    assert!(message(10).contains("`outer`"), "{report:#?}");
    assert!(message(15).contains("`inner`"), "{report:#?}");
    // Below the workspace root the tree's targets are unknown: no R12.
    let below = nc_lint::lint_tree(&fixture("reach_violations").join("crates"))
        .expect("fixture tree is readable");
    assert_eq!(count(&below, RuleId::R12), 0, "{below:#?}");
}

#[test]
fn reach_clean_corpus_produces_no_findings() {
    let report = lint("reach_clean");
    assert!(report.is_clean(), "{report:#?}");
    // The nested `perf/` workspace is read for its call sites only.
    assert_eq!(report.files_scanned, 5);
    assert_eq!(report.suppressions_total, 1);
    assert_eq!(report.suppressions_used, 1);
}

// ---------------------------------------------------------------------
// Turbofish corpora: turbofish_violations/ reaches a clock from a batch
// root through each generic call form (`f::<T>(`, `Type::<T>::f(`,
// `x.m::<T>(`, `<T as Trait>::f(`); turbofish_clean/ reaches every
// `pub fn` only through those forms, and calls std methods with a
// turbofish next to same-named workspace functions that read the clock.

#[test]
fn every_turbofish_call_form_carries_the_determinism_taint() {
    let report = lint("turbofish_violations");
    assert_eq!(count(&report, RuleId::R8), 4, "{report:#?}");
    assert_eq!(report.findings.len(), 4, "{report:#?}");
    let chain = |line: u32| {
        findings_for(&report, RuleId::R8)
            .iter()
            .find(|f| f.file == "crates/bench/src/generic.rs" && f.line == line)
            .map(|f| f.message.clone())
            .unwrap_or_default()
    };
    assert!(
        chain(7).contains("Mlp::evaluate_batch → sum_columns"),
        "{report:#?}"
    );
    assert!(
        chain(16).contains("Mlp::evaluate_batch → Block::fill"),
        "{report:#?}"
    );
    assert!(
        chain(26).contains("Mlp::evaluate_batch → Meter::tally"),
        "{report:#?}"
    );
    assert!(
        chain(40).contains("Mlp::evaluate_batch → Gauge::read"),
        "{report:#?}"
    );
}

#[test]
fn turbofish_calls_reach_their_targets_and_std_ones_add_no_edge() {
    let report = lint("turbofish_clean");
    assert!(report.is_clean(), "{report:#?}");
    assert_eq!(report.files_scanned, 4);
}
