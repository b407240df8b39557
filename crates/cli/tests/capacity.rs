//! The CLI turns an oversized QASM register into a typed error.
//!
//! `qreg q[4000000000]` on the default 10×10 device must exit 1 with
//! the `ProgramTooLarge` message, not abort on a per-qubit allocation.

use std::process::Command;

#[test]
fn huge_qasm_register_exits_with_the_typed_error() {
    let dir = std::env::temp_dir().join(format!("natoms-capacity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let qasm = dir.join("huge.qasm");
    std::fs::write(
        &qasm,
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4000000000];\ncx q[0],q[1];\n",
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_natoms"))
        .args(["compile", "--qasm"])
        .arg(&qasm)
        .args(["--mid", "3"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("program needs 4000000000 qubits but only 100 atoms are usable"),
        "stderr: {stderr}"
    );
}
