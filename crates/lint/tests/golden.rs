//! Golden-file tests for the linter.
//!
//! Every defect fixture in `workflows/bad/` fires its rule with a
//! stable code, an exact source span, and an exact message; every
//! shipped workflow in `workflows/` lints without errors; and the
//! fixture set jointly exercises every rule in the registry.

use wrm_lint::{lint_ast, lint_errors, lint_source, Diagnostic, Severity, RULES};

fn workflows_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows")
}

fn lint_file(rel: &str) -> (String, Vec<Diagnostic>) {
    let path = workflows_dir().join(rel);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let diags = lint_source(&source);
    (source, diags)
}

/// One expected diagnostic: fixture file, code, 1-based line:col, and
/// the exact message.
struct Golden {
    file: &'static str,
    code: &'static str,
    line: usize,
    col: usize,
    message: &'static str,
}

const GOLDENS: &[Golden] = &[
    Golden {
        file: "bad/syntax_error.wrm",
        code: "E000",
        line: 5,
        col: 3,
        message: "syntax error: nodes: expected a number, found `}`",
    },
    Golden {
        file: "bad/unknown_machine.wrm",
        code: "E001",
        line: 2,
        col: 15,
        message: "unknown machine `summit`",
    },
    Golden {
        file: "bad/undeclared_dep.wrm",
        code: "E002",
        line: 6,
        col: 11,
        message: "task `a` depends on undeclared task `ghost`",
    },
    Golden {
        file: "bad/replica_index.wrm",
        code: "E003",
        line: 10,
        col: 11,
        message: "task `b` references `a[2]` but only 2 replica(s) exist",
    },
    Golden {
        file: "bad/cycle.wrm",
        code: "E004",
        line: 11,
        col: 11,
        message: "dependency cycle: a -> b -> a",
    },
    Golden {
        file: "bad/task_too_large.wrm",
        code: "E005",
        line: 5,
        col: 11,
        message: "task `huge` needs 4000 nodes but machine `Perlmutter CPU` has only 3072",
    },
    Golden {
        file: "bad/bad_eff.wrm",
        code: "E006",
        line: 5,
        col: 25,
        message: "eff must be in (0, 1], got 1.5",
    },
    Golden {
        file: "bad/zero_replicas.wrm",
        code: "E007",
        line: 3,
        col: 10,
        message: "task `a` declares 0 replicas",
    },
    Golden {
        file: "bad/duplicate_task.wrm",
        code: "E008",
        line: 7,
        col: 8,
        message: "task `a` is declared twice",
    },
    Golden {
        file: "bad/dead_ceiling.wrm",
        code: "W001",
        line: 6,
        col: 5,
        message: "machine `Perlmutter CPU` has no node resource `hbm`; this `node_bytes` phase \
                  imposes no ceiling",
    },
    Golden {
        file: "bad/unused_machine.wrm",
        code: "W002",
        line: 2,
        col: 9,
        message: "machine `spare` is declared but never used",
    },
    Golden {
        file: "bad/zero_volume.wrm",
        code: "W003",
        line: 5,
        col: 5,
        message: "`compute` in task `a` has non-positive volume (0); the phase imposes no ceiling",
    },
    Golden {
        file: "bad/zero_nodes.wrm",
        code: "W004",
        line: 4,
        col: 11,
        message: "task `a` declares `nodes 0`; the compiler treats it as 1 node",
    },
    Golden {
        file: "bad/redundant_edge.wrm",
        code: "W006",
        line: 7,
        col: 20,
        message: "`after a` on task `c` is redundant: `a` already precedes `c` through other \
                  dependencies",
    },
    Golden {
        file: "bad/infeasible_interval.wrm",
        code: "W009",
        line: 7,
        col: 22,
        message: "makespan target 1500s is infeasible: the dependency chain fetch -> \
                  crunch[0] alone needs at least 2000.000s",
    },
    Golden {
        file: "bad/certified_interval.wrm",
        code: "W010",
        line: 9,
        col: 22,
        message: "makespan target 60s is undetermined: it falls inside the certified interval \
                  [40.000s, 82.000s]",
    },
    Golden {
        file: "bad/pool_bound.wrm",
        code: "W012",
        line: 9,
        col: 24,
        message: "workflow is node-pool/chain-bound: with every channel infinitely fast the \
                  certified makespan lower bound is still 250.000s (currently 250.000s); \
                  channel capacity sweeps provably cannot help",
    },
    Golden {
        file: "bad/infeasible_floor.wrm",
        code: "E010",
        line: 7,
        col: 22,
        message: "makespan target 50s is infeasible under any channel provisioning: with every \
                  channel infinitely fast, fixed phases alone still need 100.000s",
    },
    Golden {
        file: "bad/negative_sigma.wrm",
        code: "E011",
        line: 5,
        col: 13,
        message: "invalid distribution in task `a`: sigma must be >= 0, got -0.5",
    },
    Golden {
        file: "bad/empty_empirical.wrm",
        code: "E011",
        line: 5,
        col: 21,
        message: "invalid distribution in task `a`: empirical distribution needs at least one \
                  sample",
    },
];

#[test]
fn every_defect_fixture_fires_its_rule_exactly() {
    for g in GOLDENS {
        let (_, diags) = lint_file(g.file);
        assert_eq!(
            diags.len(),
            1,
            "{}: expected exactly one diagnostic, got {diags:?}",
            g.file
        );
        let d = &diags[0];
        assert_eq!(d.code, g.code, "{}: wrong code", g.file);
        assert_eq!(
            (d.span.line, d.span.col),
            (g.line, g.col),
            "{}: wrong span for {}",
            g.file,
            g.code
        );
        assert_eq!(d.message, g.message, "{}: wrong message", g.file);
    }
}

#[test]
fn infeasible_target_fixture_names_the_binding_ceiling() {
    let (_, diags) = lint_file("bad/infeasible_target.wrm");
    let shape: Vec<(&str, usize, usize)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.span.line, d.span.col))
        .collect();
    assert_eq!(
        shape,
        vec![
            ("W005", 5, 22), // makespan below the roofline lower bound
            ("W009", 5, 22), // ...and below the certified critical-path bound
            ("W005", 5, 38), // throughput above the envelope
            ("W008", 8, 5),  // the shared link also starves each replica
        ],
        "{diags:?}"
    );
    for d in &diags {
        assert_eq!(d.severity, Severity::Warning);
    }
    let w005: Vec<_> = diags.iter().filter(|d| d.code == "W005").collect();
    for d in &w005 {
        let help = d.help.as_deref().expect("W005 carries a help line");
        assert!(
            help.contains("binding ceiling: System External"),
            "help must name the binding ceiling, got: {help}"
        );
    }
    // The makespan diagnostic quotes the theoretical lower bound
    // (4 tasks x 1 TB over 5 GB/s = 800 s) and the throughput one the
    // attainable cap (5 GB/s / 1 TB = 0.005 tasks/s).
    assert!(w005[0].message.contains("lower bound 800.000s"));
    assert!(w005[1].message.contains("caps at 0.005000 tasks/s"));
}

#[test]
fn interval_pass_certifies_a_bound_above_the_roofline() {
    // The chain fetch -> crunch needs 1000 s + 1000 s = 2000 s, while
    // the aggregate roofline bound is only 1000 s: W009 flags the
    // 1500 s target, W005 stays quiet, and the fix-it raises the
    // target past the certified bound.
    let (source, diags) = lint_file("bad/infeasible_interval.wrm");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, "W009");
    assert!(
        d.message.contains("at least 2000.000s"),
        "critical-path lower bound must be certified: {}",
        d.message
    );
    let help = d.help.as_deref().expect("W009 carries a help line");
    assert!(help.contains("[2000.000, 2000.000]"), "{help}");
    assert!(help.contains("roofline lower bound is 1000.000s"), "{help}");
    assert_eq!(d.fixes.len(), 1);
    let fix = &d.fixes[0];
    assert_eq!(fix.replacement, "2000s");
    assert_eq!(&source[fix.offset..fix.offset + fix.len], "1500s");
}

#[test]
fn unsaturable_channel_is_also_provably_overprovisioned() {
    // The same capped-stream geometry triggers both statements: W007
    // (the contention ceiling can never bind) and W011 (re-certifying
    // at the cap sum provably leaves the makespan interval in place).
    let (_, diags) = lint_file("bad/unsaturable_channel.wrm");
    let shape: Vec<(&str, usize, usize)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.span.line, d.span.col))
        .collect();
    assert_eq!(shape, vec![("W007", 6, 26), ("W011", 6, 26)], "{diags:?}");
    assert_eq!(
        diags[1].message,
        "channel `fs` is over-provisioned: reducing its capacity from 100.00 GB/s to \
         4.00 GB/s provably leaves the certified makespan interval [10.000s, 12.500s] unchanged"
    );
}

#[test]
fn overprovisioned_fixture_proves_reduction_by_recertification() {
    let (_, diags) = lint_file("bad/overprovisioned_channel.wrm");
    let shape: Vec<(&str, usize, usize)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.span.line, d.span.col))
        .collect();
    assert_eq!(shape, vec![("W007", 8, 23), ("W011", 8, 23)], "{diags:?}");
    let w011 = &diags[1];
    assert_eq!(
        w011.message,
        "channel `fs` is over-provisioned: reducing its capacity from 100.00 GB/s to \
         2.00 GB/s provably leaves the certified makespan interval [10.000s, 15.000s] unchanged"
    );
    let help = w011.help.as_deref().expect("W011 carries a help line");
    assert!(help.contains("spare 98.00 GB/s"), "{help}");
}

#[test]
fn starved_channel_target_is_also_inside_the_certified_interval() {
    // W008's starvation diagnosis stands, and the certificate adds the
    // two-sided view: 150 s sits between the 100.9 s aggregate floor
    // and the 1009 s contended upper bound, so the target is
    // undetermined rather than provably missed.
    let (_, diags) = lint_file("bad/starved_channel.wrm");
    let shape: Vec<(&str, usize, usize)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.span.line, d.span.col))
        .collect();
    assert_eq!(shape, vec![("W010", 7, 22), ("W008", 9, 23)], "{diags:?}");
    assert_eq!(
        diags[0].message,
        "makespan target 150s is undetermined: it falls inside the certified interval \
         [100.900s, 1009.000s]"
    );
}

#[test]
fn w010_report_is_byte_identical_across_runs() {
    let (_, first) = lint_file("bad/certified_interval.wrm");
    for _ in 0..3 {
        let (_, again) = lint_file("bad/certified_interval.wrm");
        assert_eq!(first, again);
    }
    let help = first[0].help.as_deref().expect("W010 carries the witness");
    // The witness decomposition names both ends' terms and the binding
    // strengths from the attribution lattice.
    assert!(help.contains("chain a[0] = 11.000s"), "{help}");
    assert!(help.contains("`fs` 40.000s"), "{help}");
    assert!(help.contains("node pool 11.000s"), "{help}");
    assert!(
        help.contains("min(serial 164.000s, chain 41.000s"),
        "{help}"
    );
    assert!(
        help.contains("chain=may, system-channel `fs`=may"),
        "{help}"
    );
}

#[test]
fn e010_suppresses_w009_and_carries_a_fix() {
    let (source, diags) = lint_file("bad/infeasible_floor.wrm");
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, "E010");
    assert_eq!(d.severity, Severity::Error);
    // W009 would have fired on its own (50 s < the 100 s chain bound)
    // but the strictly stronger E010 replaces it.
    assert!(!diags.iter().any(|x| x.code == "W009"));
    assert_eq!(d.fixes.len(), 1);
    let fix = &d.fixes[0];
    assert_eq!(fix.replacement, "100s");
    assert_eq!(&source[fix.offset..fix.offset + fix.len], "50s");
}

#[test]
fn w009_fires_without_e010_when_channels_drive_the_infeasibility() {
    // infeasible_interval's 2000 s chain bound is half transfer time:
    // with channels zeroed only the 1000 s compute remains, which the
    // 1500 s target clears — so E010 must stay quiet and the weaker
    // (but still certified) W009 does the talking.
    let (_, diags) = lint_file("bad/infeasible_interval.wrm");
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["W009"], "{diags:?}");
}

#[test]
fn replica_edge_into_a_chain_waits_for_one_replica_only() {
    // `early` waits for iter[0] alone, so the chain bound is
    // 10 s + 100 s = 110 s, not the whole 50 s chain plus 100 s. The
    // 120 s target sits inside the certified [110 s, 128.75 s]: W010,
    // never a W009 claiming 150 s.
    let diags = lint_source(
        "machine m { nodes 8 node compute 1TFLOPS }
         workflow w on m {
           targets { makespan 120s }
           task iter[5] chain { overhead step 10s }
           task early { overhead wait 100s after iter[0] }
         }",
    );
    let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
    assert_eq!(codes, vec!["W010"], "{diags:?}");
    assert!(
        diags[0].message.ends_with("[110.000s, 128.750s]"),
        "{}",
        diags[0].message
    );
}

#[test]
fn w010_names_the_chain_that_attains_the_lower_bound() {
    // `a` takes 80 s; each capped `b` replica takes 60 s alone but up
    // to 90 s contended. The lower-bound chain is `a`, the upper-bound
    // chain a `b` replica.
    let diags = lint_source(
        "machine m { nodes 8 node compute 1TFLOPS system ext 2GB/s }
         workflow w on m {
           targets { makespan 100s }
           task a { overhead think 80s }
           task b[3] { system_bytes ext 60GB cap 1GB/s }
         }",
    );
    let w010 = diags
        .iter()
        .find(|d| d.code == "W010")
        .unwrap_or_else(|| panic!("no W010: {diags:?}"));
    let help = w010.help.as_deref().expect("W010 carries the witness");
    assert!(help.contains("chain a = 80.000s"), "{help}");
    assert!(help.contains("chain 90.000s + "), "{help}");
}

#[test]
fn distributions_price_e010_at_the_low_end_of_their_support() {
    // The setup time is triangular on [3 s, 10 s] with mean 6 s; about
    // 29% of samples finish under the 5 s target, so it is not
    // infeasible.
    let diags = lint_source(
        "workflow w on pm-cpu {
           targets { makespan 5s }
           task a { overhead setup triangular(3s, 5s, 10s) }
         }",
    );
    assert!(
        !diags.iter().any(|d| d.code == "E010" || d.code == "W009"),
        "{diags:?}"
    );
}

#[test]
fn unreachable_task_rides_along_with_the_cycle() {
    let (_, diags) = lint_file("bad/unreachable_task.wrm");
    let shape: Vec<(&str, usize, usize)> = diags
        .iter()
        .map(|d| (d.code.as_str(), d.span.line, d.span.col))
        .collect();
    assert_eq!(shape, vec![("E004", 6, 18), ("E009", 7, 8)], "{diags:?}");
    assert!(diags[1].message.contains("task `report` can never start"));
}

#[test]
fn fixture_set_covers_every_rule_in_the_registry() {
    let mut fired = std::collections::BTreeSet::new();
    let dir = workflows_dir().join("bad");
    for entry in std::fs::read_dir(&dir).expect("read workflows/bad") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("wrm") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        for d in lint_source(&source) {
            assert!(
                d.span.is_known(),
                "{}: {} has an unknown span",
                path.display(),
                d.code
            );
            fired.insert(d.code.clone());
        }
    }
    let registry: std::collections::BTreeSet<String> =
        RULES.iter().map(|r| r.code.to_owned()).collect();
    assert_eq!(
        fired, registry,
        "workflows/bad/ must exercise exactly the registered rules"
    );
}

#[test]
fn shipped_workflows_lint_without_errors() {
    let mut seen = 0;
    for entry in std::fs::read_dir(workflows_dir()).expect("read workflows/") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("wrm") {
            continue;
        }
        seen += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        let diags = lint_source(&source);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "{} has lint errors: {errors:?}",
            path.display()
        );
        for d in &diags {
            assert!(
                d.span.is_known(),
                "{}: {} has an unknown span",
                path.display(),
                d.code
            );
        }
        let name = path.file_name().unwrap().to_str().unwrap();
        let codes: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        if name == "lcls_cori.wrm" {
            // The paper's own finding: even the good-day external link
            // cannot meet the 2020 LCLS targets. W005 names the link,
            // the analyzer adds the chain bound (W009) and the fair-share
            // starvation of each analyze replica (W008).
            assert_eq!(codes, vec!["W005", "W009", "W005", "W008"], "{diags:?}");
            for d in diags.iter().filter(|d| d.code == "W005") {
                assert!(
                    d.help.as_deref().unwrap().contains("System External"),
                    "lcls W005 must name the External binding ceiling"
                );
            }
        } else if name == "gptune_rci.wrm" {
            // The DB channel's per-stream caps sum far below the shared
            // filesystem capacity: contention never materializes.
            assert_eq!(codes, vec!["W007"], "{diags:?}");
        } else {
            assert!(diags.is_empty(), "{name} should be clean: {diags:?}");
        }
    }
    assert!(seen >= 4, "expected the four shipped workflows, saw {seen}");
}

/// Every `.wrm` file under `dir`, recursively.
fn wrm_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            wrm_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "wrm") {
            out.push(path);
        }
    }
}

#[test]
fn the_error_gate_matches_the_full_lint_on_every_repo_spec() {
    let mut files = Vec::new();
    wrm_files(&workflows_dir(), &mut files);
    files.sort();
    let mut with_errors = 0;
    for path in &files {
        let source = std::fs::read_to_string(path).unwrap();
        let Ok(ast) = wrm_lang::parse(&source) else {
            continue; // E000 comes from the parser, not from either run
        };
        let full: Vec<Diagnostic> = lint_ast(&ast)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        with_errors += usize::from(!full.is_empty());
        assert_eq!(lint_errors(&ast), full, "{}", path.display());
    }
    assert!(
        with_errors >= 10,
        "only {with_errors} of {} specs have errors",
        files.len()
    );
}

#[test]
fn diagnostics_round_trip_through_json() {
    let (_, diags) = lint_file("bad/unknown_machine.wrm");
    let json = serde_json::to_string_pretty(&diags).unwrap();
    let back: Vec<Diagnostic> = serde_json::from_str(&json).unwrap();
    assert_eq!(diags, back);
    // And the same for a warning-bearing file with help text.
    let (_, diags) = lint_file("bad/infeasible_target.wrm");
    let back: Vec<Diagnostic> =
        serde_json::from_str(&serde_json::to_string(&diags).unwrap()).unwrap();
    assert_eq!(diags, back);
}

#[test]
fn certification_fixtures_render_to_valid_sarif() {
    // One golden SARIF check per certification rule: the log validates
    // against the subset schema, the result carries the expected
    // ruleId, and E010's machine-applicable fix survives the
    // conversion.
    for (file, code, level) in [
        ("bad/certified_interval.wrm", "W010", "warning"),
        ("bad/overprovisioned_channel.wrm", "W011", "warning"),
        ("bad/pool_bound.wrm", "W012", "warning"),
        ("bad/infeasible_floor.wrm", "E010", "error"),
    ] {
        let (_, diags) = lint_file(file);
        let log = wrm_lint::to_sarif(&[(file.to_owned(), diags)]);
        wrm_lint::validate_sarif(&log).unwrap_or_else(|e| panic!("{file}: {e}"));
        let results = log["runs"][0]["results"]
            .as_array()
            .unwrap_or_else(|| panic!("{file}: results array"));
        let hit = results
            .iter()
            .find(|r| r["ruleId"].as_str() == Some(code))
            .unwrap_or_else(|| panic!("{file}: no SARIF result with ruleId {code}"));
        assert_eq!(hit["level"].as_str(), Some(level), "{file}");
        let region = &hit["locations"][0]["physicalLocation"]["region"];
        assert!(region["startLine"].as_u64().is_some(), "{file}: region");
        if code == "E010" {
            let text = hit["fixes"][0]["artifactChanges"][0]["replacements"][0]["insertedContent"]
                ["text"]
                .as_str();
            assert_eq!(text, Some("100s"), "{file}: fix-it replacement");
        }
    }
}

#[test]
fn rendered_snippets_point_at_the_offending_column() {
    let (source, diags) = lint_file("bad/unknown_machine.wrm");
    let rendered = diags[0].render(&wrm_lint::LineIndex::new(&source));
    assert!(rendered.contains("error[E001] 2:15: unknown machine `summit`"));
    assert!(rendered.contains("workflow w on summit {"));
    // The caret sits under column 15, where `summit` starts. The
    // snippet gutter is `<line-number> | `, so subtract its width.
    let caret_line = rendered
        .lines()
        .find(|l| l.trim_end().ends_with('^'))
        .expect("render includes a caret line");
    let gutter_width = "2".len() + " | ".len();
    assert_eq!(caret_line.find('^').unwrap() - gutter_width + 1, 15);
}
