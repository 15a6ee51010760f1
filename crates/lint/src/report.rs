//! Rendering a lint run: rustc-style text and a versioned JSON document.

use crate::rules::{Finding, RuleId};
use std::fmt::Write as _;

/// The outcome of linting a file tree.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Report {
    /// Every unsuppressed finding, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Well-formed suppression comments seen across the tree.
    pub suppressions_total: usize,
    /// Suppressions that actually silenced a finding.
    pub suppressions_used: usize,
}

impl Report {
    /// Whether the tree satisfies every invariant.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report: one `file:line: rule: message`
    /// line per finding plus a summary trailer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "nc-lint: {} finding(s) across {} file(s); {}/{} suppression(s) in use",
            self.findings.len(),
            self.files_scanned,
            self.suppressions_used,
            self.suppressions_total,
        );
        out
    }

    /// Renders the machine-readable report (schema `version` 3; v3
    /// dropped v2's `files_reparsed`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 3,\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"suppressions\": {{ \"total\": {}, \"used\": {} }},",
            self.suppressions_total, self.suppressions_used
        );
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{ \"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {} }}",
                json_string(&f.file),
                f.line,
                json_string(f.rule.name()),
                json_string(&f.message),
            );
        }
        if self.findings.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Findings for one rule, for tests and tooling.
    pub fn findings_for(&self, rule: RuleId) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }
}

/// Escapes a string as a JSON literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let report = Report {
            findings: vec![Finding {
                file: String::from("crates/x/src/a.rs"),
                line: 3,
                rule: RuleId::R4,
                message: String::from("say \"no\"\tplease"),
            }],
            files_scanned: 1,
            suppressions_total: 2,
            suppressions_used: 1,
        };
        let json = report.render_json();
        assert!(json.contains("\"version\": 3"));
        assert!(!json.contains("files_reparsed"));
        assert!(json.contains("\"rule\": \"R4\""));
        assert!(json.contains("say \\\"no\\\"\\tplease"));
        assert!(json.contains("\"clean\": false"));
        let empty = Report::default();
        assert!(empty.render_json().contains("\"findings\": []"));
        assert!(empty
            .render_text()
            .contains("0 finding(s) across 0 file(s); 0/0 suppression(s) in use"));
        assert!(empty.is_clean());
    }
}
