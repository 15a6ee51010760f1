//! Phase-2 taint rules over the workspace symbol graph.
//!
//! * **R8 determinism-taint** — wall-clock and entropy identifiers are
//!   taint *sources*; `Model::evaluate_batch` / `predict_batch`,
//!   `Server::drain`, and every figure-CSV writer (anything calling
//!   `write_results`) are determinism *roots*. A source inside any
//!   function transitively reachable from a root is a finding, even when
//!   the source hides behind helpers in another crate. The observability
//!   crate (`crates/obs/`) is the sanctioned quarantine: its gated
//!   stopwatches are how timing is *supposed* to be read. A source whose
//!   line carries an R3/R7 waiver (or an explicit R8 one) is sanctioned
//!   too — the waiver is the audit point.
//! * **R11 seed-discipline** — every argument passed to a seed-named
//!   parameter must visibly derive from a seeded stream
//!   (`SplitMix64`-style `next_*` draws), a seed-carrying identifier, or
//!   a named ALL-CAPS plan constant; bare magic literals and opaque
//!   locals are findings. Checked along the call graph: the callee's
//!   parameter names decide which arguments are seeds, wherever the call
//!   lives.

use crate::graph::SymbolGraph;
use crate::rules::{FileWaivers, Finding, RuleId};
use std::collections::{BTreeMap, BTreeSet};

/// The directory whose gated stopwatches are the sanctioned way to read
/// time: sources here are quarantined, not findings.
const OBS_QUARANTINE: &str = "crates/obs/";

/// Runs R8 over the graph. `waivers` maps file path → that file's
/// waiver table (R3/R7/R8 waivers sanction sources on their line).
pub fn check_determinism_taint(
    graph: &SymbolGraph<'_>,
    waivers: &BTreeMap<String, FileWaivers>,
) -> Vec<Finding> {
    let roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, def)| {
            let f = def.f;
            let batch_entry =
                f.owner.is_some() && (f.name == "evaluate_batch" || f.name == "predict_batch");
            let drain = f.owner.as_deref() == Some("Server") && f.name == "drain";
            let csv_writer = f.calls.iter().any(|c| c.name == "write_results");
            batch_entry || drain || csv_writer
        })
        .map(|(d, _)| d)
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let (reached, parent) = graph.reach(&roots);
    let root_set: BTreeSet<usize> = roots.iter().copied().collect();

    let mut findings = Vec::new();
    for &d in &reached {
        let def = graph.defs[d];
        let path = graph.path_of(d);
        if path.starts_with(OBS_QUARANTINE) {
            continue;
        }
        let table = waivers.get(path);
        // The first unsanctioned source in the function carries the
        // finding; one finding per tainted function keeps the report
        // actionable.
        // An R3/R7 waiver on the source line sanctions it for R8 too —
        // the waiver is the audit point. (An explicit `allow(R8)` is
        // instead resolved downstream like any other suppression, so it
        // is counted as used.)
        let Some(src) = def.f.sources.iter().find(|s| {
            let sanction = if s.clock { RuleId::R3 } else { RuleId::R7 };
            !table.is_some_and(|t| t.covers(sanction, s.line))
        }) else {
            continue;
        };
        let chain = graph.chain(&parent, d);
        let root = if root_set.contains(&d) {
            graph.qualname(d)
        } else {
            chain.first().cloned().unwrap_or_else(|| graph.qualname(d))
        };
        let kind = if src.clock { "wall-clock" } else { "entropy" };
        findings.push(Finding {
            file: path.to_string(),
            line: src.line,
            rule: RuleId::R8,
            message: format!(
                "`{}` ({kind} source) is reachable from determinism root `{root}` \
                 (call path: {}); route timing through gated nc-obs stopwatches or \
                 thread an explicit seed",
                src.ident,
                chain.join(" → ")
            ),
        });
    }
    findings
}

/// Is this parameter name a seed by convention?
fn is_seed_param(name: &str) -> bool {
    name == "seed" || name.ends_with("_seed")
}

/// Does one argument token visibly derive from a seeded stream or a
/// named constant? Tokens are the space-joined ident/number text
/// recorded by phase 1 (`#` stands for a numeric literal).
fn token_is_marker(tok: &str) -> bool {
    let lower = tok.to_ascii_lowercase();
    if lower.contains("seed") {
        return true;
    }
    if tok.starts_with("next_") {
        return true;
    }
    // Named ALL-CAPS constant, e.g. `EVAL_STREAM` or `DEFAULT_PLAN`.
    tok.len() >= 4
        && tok
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && tok.chars().any(|c| c.is_ascii_uppercase())
}

/// Runs R11 over the graph.
pub fn check_seed_discipline(graph: &SymbolGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (d, def) in graph.defs.iter().enumerate() {
        for call in &def.f.calls {
            let candidates = graph.resolve(call, def.f);
            // UFCS calls (`Model::predict(&mut self.mlp, x)`) pass the
            // receiver explicitly, and parameter lists never include
            // `self`: a method called so takes one argument more than
            // its parameters.
            let ufcs = !call.is_method && call.qualifier.is_some();
            let passes_receiver = |c: usize| ufcs && graph.defs[c].f.receiver;
            let fits = |c: usize| {
                graph.defs[c].f.params.len() + usize::from(passes_receiver(c)) == call.args.len()
            };
            // Deterministic choice among candidates: prefer one whose
            // arity matches this call (same-named free fns can have
            // different signatures), else the lowest-id one (candidates
            // are sorted by construction).
            let callee = candidates
                .iter()
                .copied()
                .find(|&c| fits(c))
                .or_else(|| candidates.first().copied());
            let Some(callee) = callee else { continue };
            let params = &graph.defs[callee].f.params;
            // Drop the explicit receiver to keep args and params aligned.
            let args: &[String] = match call.args.split_first() {
                Some((_, rest)) if passes_receiver(callee) => rest,
                _ => &call.args,
            };
            for (k, param) in params.iter().enumerate() {
                if !is_seed_param(param) {
                    continue;
                }
                let Some(arg) = args.get(k) else {
                    continue;
                };
                let tokens: Vec<&str> = arg.split(' ').filter(|t| !t.is_empty()).collect();
                if tokens.is_empty() {
                    continue;
                }
                let mut ok = tokens.iter().any(|t| token_is_marker(t));
                // One level of local propagation: `let first =
                // sm.next_u64(); f(first)` is derived even though the
                // binding's name carries no marker.
                if !ok && tokens.len() == 1 {
                    if let Some(bind) = def.f.lets.iter().find(|b| b.name == tokens[0]) {
                        ok = bind
                            .rhs
                            .split(' ')
                            .filter(|t| !t.is_empty())
                            .any(token_is_marker);
                    }
                }
                if !ok {
                    let shown = if arg.is_empty() {
                        "<literal>"
                    } else {
                        arg.as_str()
                    };
                    findings.push(Finding {
                        file: graph.path_of(d).to_string(),
                        line: call.line,
                        rule: RuleId::R11,
                        message: format!(
                            "seed argument `{shown}` of `{}` is not derived from a seeded \
                             stream or a named plan constant; draw it from a `SplitMix64` \
                             stream or name the constant",
                            graph.qualname(callee)
                        ),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Unit;
    use crate::lexer::{lex, Token, TokenKind};
    use crate::parse::{parse_file, FileModel};

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

    fn no_waivers() -> BTreeMap<String, FileWaivers> {
        BTreeMap::new()
    }

    #[test]
    fn clock_behind_a_helper_taints_the_batch_root() {
        let ms = models(&[
            (
                "crates/m/src/model.rs",
                "impl Net {
                    pub fn evaluate_batch(&mut self, n: u64) -> u64 { stamp(n) }
                }",
            ),
            (
                "crates/bench/src/util.rs",
                "pub fn stamp(n: u64) -> u64 {
                    let t = Instant::now();
                    n
                }",
            ),
        ]);
        let findings = check_determinism_taint(&graph(&ms), &no_waivers());
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.rule, RuleId::R8);
        assert_eq!(f.file, "crates/bench/src/util.rs");
        assert!(f.message.contains("Net::evaluate_batch"), "{}", f.message);
        assert!(f.message.contains("→ stamp"), "{}", f.message);
    }

    #[test]
    fn obs_quarantine_and_unreachable_sources_are_clean() {
        let ms = models(&[
            (
                "crates/m/src/model.rs",
                "impl Net { pub fn evaluate_batch(&mut self) -> u64 { tick() } }",
            ),
            (
                // Quarantined: the sanctioned timing layer.
                "crates/obs/src/hist.rs",
                "pub fn tick() -> u64 { let t = Instant::now(); 0 }",
            ),
            (
                // A source nothing reaches from a root.
                "crates/bench/src/micro.rs",
                "pub fn orphan() -> u64 { let t = Instant::now(); 0 }",
            ),
        ]);
        assert!(check_determinism_taint(&graph(&ms), &no_waivers()).is_empty());
    }

    #[test]
    fn waived_clock_is_sanctioned() {
        let ms = models(&[
            (
                "crates/m/src/model.rs",
                "impl Net { pub fn evaluate_batch(&mut self) -> u64 { span() } }",
            ),
            (
                "crates/core/src/engine.rs",
                "pub fn span() -> u64 { let t = Instant::now(); 0 }",
            ),
        ]);
        let mut waivers = BTreeMap::new();
        let mut table = FileWaivers::default();
        table.add_line(RuleId::R3, 1); // the `Instant` line
        waivers.insert(String::from("crates/core/src/engine.rs"), table);
        assert!(check_determinism_taint(&graph(&ms), &waivers).is_empty());
    }

    #[test]
    fn entropy_reaching_a_csv_writer_is_flagged() {
        let ms = models(&[(
            "crates/bench/src/bin/fig9.rs",
            "fn main() {
                let rows = sample();
                write_results(rows);
            }
            fn sample() -> u64 { thread_rng() }",
        )]);
        let findings = check_determinism_taint(&graph(&ms), &no_waivers());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("entropy"), "{findings:?}");
    }

    #[test]
    fn literal_seed_argument_is_flagged() {
        let ms = models(&[(
            "crates/r/src/rng.rs",
            "impl Mixer {
                pub fn new(seed: u64) -> Mixer { Mixer { s: seed } }
            }
            pub fn disabled() -> Mixer { Mixer::new(0) }",
        )]);
        let findings = check_seed_discipline(&graph(&ms));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::R11);
        assert!(findings[0].message.contains("Mixer::new"), "{findings:?}");
    }

    #[test]
    fn derived_and_named_seeds_pass() {
        let ms = models(&[(
            "crates/r/src/rng.rs",
            "impl Mixer {
                pub fn new(seed: u64) -> Mixer { Mixer { s: seed } }
            }
            pub fn streams(master_seed: u64) -> Mixer {
                let sm = Mixer::new(master_seed ^ 0x9E37);
                Mixer::new(DEFAULT_PLAN ^ 1)
            }
            pub fn forked(sm: &mut Mixer) -> Mixer {
                let first = sm.next_u64();
                Mixer::new(first)
            }",
        )]);
        let findings = check_seed_discipline(&graph(&ms));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn ufcs_self_receiver_keeps_args_aligned() {
        let ms = models(&[(
            "crates/m/src/model.rs",
            "impl Net {
                pub fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize { 0 }
            }
            impl Model for Net {
                fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
                    Net::predict(self, pixels, presentation_seed)
                }
            }",
        )]);
        assert!(check_seed_discipline(&graph(&ms)).is_empty());
    }

    #[test]
    fn ufcs_field_receiver_keeps_args_aligned() {
        let ms = models(&[(
            "crates/m/src/model.rs",
            "impl Model for Net {
                fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize { 0 }
            }
            impl Model for Wrapped {
                fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
                    Model::predict(&mut self.net, pixels, presentation_seed)
                }
            }
            impl Wrapped {
                pub fn first(&mut self, pixels: &[u8]) -> usize {
                    Self::predict(self, pixels, 7)
                }
            }",
        )]);
        let findings = check_seed_discipline(&graph(&ms));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 11);
        assert!(
            findings[0].message.contains("`Wrapped::predict`"),
            "{findings:?}"
        );
    }

    #[test]
    fn arity_selects_among_same_named_free_fns() {
        let ms = models(&[
            (
                "crates/b/src/search.rs",
                "pub fn random_search(train: u64, budget: u64, seed: u64) -> u64 { seed }
                 pub fn run(train: u64) -> u64 { random_search(train, 100, SEARCH_SEED) }",
            ),
            (
                "crates/c/src/search.rs",
                "pub fn random_search(a: u64, b: u64, c: u64, d: u64, seed: u64) -> u64 { seed }
                 pub fn run2(a: u64, b: u64) -> u64 { random_search(a, b, 100, 5, OTHER_SEED) }",
            ),
        ]);
        assert!(check_seed_discipline(&graph(&ms)).is_empty());
    }

    #[test]
    fn opaque_local_seed_is_flagged() {
        let ms = models(&[(
            "crates/r/src/rng.rs",
            "impl Mixer {
                pub fn new(seed: u64) -> Mixer { Mixer { s: seed } }
            }
            pub fn sneaky(x: u64) -> Mixer {
                let salt = x;
                Mixer::new(salt)
            }",
        )]);
        let findings = check_seed_discipline(&graph(&ms));
        assert_eq!(findings.len(), 1, "{findings:?}");
    }
}
