//! The `experiments` binary refuses an unknown experiment name before it
//! builds anything, as it refuses an unknown `--engines` name.

use std::process::Command;

#[test]
fn an_unknown_experiment_is_refused_before_any_workload_is_built() {
    for args in [
        &["tabel3"][..],
        &["table3", "figure99"],
        &["--engines=turbohom++", "Nope"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("the experiments binary runs");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown experiment"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("table1..table7, figure6, figure15, figure16, all"),
            "{args:?}: {stderr}"
        );
        assert!(!stdout.contains("building"), "{args:?}: {stdout}");
    }
}

#[test]
fn an_unknown_engine_is_refused_likewise() {
    // `turbohom--` is a misspelling, not `turbohom` with its dashes dropped.
    for engines in ["--engines=nosuchengine", "--engines=turbohom--"] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([engines, "table3"])
            .output()
            .expect("the experiments binary runs");
        assert_eq!(out.status.code(), Some(2), "{engines}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("building"));
    }
}
