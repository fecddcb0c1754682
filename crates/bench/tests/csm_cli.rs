//! Exit codes of the `csm` binary on update files.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Write `text` to a file in the temp dir, unique to this process and test.
fn temp_file(tag: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("csm_cli_{}_{tag}", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn run_csm(graph: &Path, updates: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_csm"))
        .args(["--graph", graph.to_str().unwrap(), "--updates", updates.to_str().unwrap()])
        .args(["--query", "triangle", "--engine", "cpu"])
        .output()
        .unwrap()
}

#[test]
fn huge_vertex_id_in_updates_exits_2_naming_the_line() {
    let graph = temp_file("huge.el", "0 1\n1 2\n");
    let updates = temp_file("huge.upd", "# header\n+ 0 2\n+ 0 4294967295\n");
    let out = run_csm(&graph, &updates);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--updates") && stderr.contains("line 3:"), "{stderr}");

    // The same stream with a dense new id runs to completion.
    let dense = temp_file("dense.upd", "# header\n+ 0 2\n+ 0 3\n");
    let ok = run_csm(&graph, &dense);
    assert_eq!(ok.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&ok.stderr));

    for p in [graph, updates, dense] {
        let _ = std::fs::remove_file(p);
    }
}
