//! Bracketing oracle over every `.wrm` spec in the repository.
//!
//! The lint pass prints certified intervals for user-authored specs, so
//! the guarantee has to hold for exactly what the compiler hands the
//! simulator: for every spec under `workflows/` (shipped and defect
//! fixtures alike) that compiles onto a resolved machine,
//! `lo * (1 - 1e-6) <= DES makespan <= hi` with `hi` finite. Specs
//! that fail to parse, compile, or simulate (that is what many of the
//! defect fixtures are for) are skipped — but the certificate must
//! fail on exactly the specs the simulator fails on, never certify an
//! unrunnable workflow.

use wrm_sim::{certify, simulate_summary, Scenario, SimOptions};

fn workflows_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows")
}

fn wrm_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wrm"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_compilable_spec_is_bracketed() {
    let dir = workflows_dir();
    let mut checked = 0usize;
    let mut paths = wrm_files(&dir);
    paths.extend(wrm_files(&dir.join("bad")));
    assert!(paths.len() >= 20, "expected the full fixture set");
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let source = std::fs::read_to_string(&path).unwrap();
        let Ok(compiled) = wrm_lang::compile_source(&source) else {
            continue; // syntax/semantic defect fixtures
        };
        let Some(machine) = compiled.machine else {
            continue; // unknown machine (E001 fixture)
        };
        let scenario = Scenario::new(machine.clone(), compiled.spec.clone());
        match certify(&machine, &compiled.spec, &SimOptions::default()) {
            Ok(cert) => {
                let makespan = simulate_summary(&scenario)
                    .unwrap_or_else(|e| panic!("{name}: sim: {e}"))
                    .makespan;
                assert!(cert.hi.is_finite(), "{name}: hi is not finite");
                assert!(
                    cert.lo * (1.0 - 1e-6) <= makespan && makespan <= cert.hi * (1.0 + 1e-9) + 1e-9,
                    "{name}: bracket {} <= {} <= {} violated",
                    cert.lo,
                    makespan,
                    cert.hi
                );
                checked += 1;
            }
            Err(cert_err) => {
                let sim_err = simulate_summary(&scenario)
                    .expect_err(&format!("{name}: certify failed but the DES ran"));
                assert_eq!(cert_err, sim_err, "{name}: error parity");
            }
        }
    }
    assert!(
        checked >= 10,
        "only {checked} specs certified — harness broken?"
    );
}
