//! Smoke test: every example in `examples/` must build and run to
//! completion.
//!
//! The examples double as executable documentation of the public API, so a
//! change that breaks one of them is a regression even when the unit tests
//! still pass.  Each example is run through the same `cargo` binary driving
//! this test; the harness builds them first (`cargo build --examples` is
//! part of `--all-targets`), so the per-example cost here is dominated by
//! the simulations the examples run, not by compilation.

use std::path::Path;
use std::process::Command;

/// The name of every `examples/*.rs`, sorted: the directory itself is the
/// list, so an example cannot drop out of this test unnoticed.
fn examples(manifest_dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(Path::new(manifest_dir).join("examples"))
        .expect("examples/ is readable")
        .map(|entry| entry.expect("examples/ entries are readable").path())
        .filter(|path| path.extension().is_some_and(|extension| extension == "rs"))
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
        .collect();
    names.sort();
    names
}

#[test]
fn all_examples_run_to_completion() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let examples = examples(manifest_dir);
    assert!(!examples.is_empty(), "no examples found");
    for example in &examples {
        let output = Command::new(&cargo)
            .args(["run", "--quiet", "--example", example])
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|error| panic!("failed to spawn cargo for `{example}`: {error}"));
        assert!(
            output.status.success(),
            "example `{example}` exited with {:?}\nstdout:\n{}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example `{example}` produced no output"
        );
    }
}
