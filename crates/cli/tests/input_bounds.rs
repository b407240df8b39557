//! Bad MIDs, sizes, grids, job timeouts, figure names and QASM inputs
//! end in exit 1 with a typed message, and huge MIDs compile promptly,
//! instead of panicking, overflowing the stack, aborting or hanging.
//!
//! Before the shared MID parser and the clamped stencil radius,
//! `--mid nan` panicked in `CompilerConfig::new` (exit 101), `--mid
//! inf` and `--mid 1e9` looped over a ~2⁶⁴-entry neighbour stencil,
//! `--mids -3` printed a bogus compiled row, and `--mids 0,nan`
//! failed every row as "other".

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `natoms args…`, failing the test instead of hanging if the
/// process outlives a generous budget.
fn natoms(args: &[&str], faults: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_natoms"));
    command
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    match faults {
        Some(plan) => command.env("NATOMS_FAULTS", plan),
        None => command.env_remove("NATOMS_FAULTS"),
    };
    let mut child = command.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().unwrap();
            panic!("natoms {args:?} still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().unwrap()
}

fn assert_rejected(args: &[&str], message: &str) {
    let output = natoms(args, None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed rows");
}

#[test]
fn non_finite_and_sub_unit_mids_are_rejected() {
    let bad = "--mid must be a finite number >= 1";
    assert_rejected(&["compile", "--mid", "nan"], bad);
    assert_rejected(&["compile", "--mid", "inf"], bad);
    assert_rejected(&["compile", "--mid", "0.5"], bad);
    assert_rejected(&["success", "--mid", "nan"], bad);
    assert_rejected(&["tolerance", "--mid", "inf"], bad);
    assert_rejected(
        &["compile", "--mid", "three"],
        "invalid value \"three\" for --mid",
    );
    let bad = "--mids must be a finite number >= 1";
    assert_rejected(&["sweep", "--size", "12", "--mids", "-3"], bad);
    assert_rejected(&["sweep", "--size", "12", "--mids", "0,nan"], bad);
    assert_rejected(&["sweep", "--size", "12", "--mids", "2,inf"], bad);
}

#[test]
fn small_sizes_huge_grids_and_timeouts_are_rejected_promptly() {
    // Checked before any circuit or grid is built: the generators
    // assert size >= 4, `Duration` cannot hold 1e300 s, and 65536² and
    // 100000² sites overflow u32.
    let probes: [(&[&str], &str); 5] = [
        (
            &["compile", "--size", "0"],
            "--size must be at least 4 qubits",
        ),
        (
            &["compile", "--size", "3"],
            "--size must be at least 4 qubits",
        ),
        (
            &["sweep", "--job-timeout", "1e300"],
            "--job-timeout must be a non-negative number of seconds",
        ),
        (
            &["compile", "--grid", "65536x65536"],
            "exceeds the cap of 1048576 sites",
        ),
        (
            &["compile", "--grid", "100000x100000"],
            "exceeds the cap of 1048576 sites",
        ),
    ];
    for (args, message) in probes {
        let start = Instant::now();
        assert_rejected(args, message);
        assert!(start.elapsed() < Duration::from_secs(5), "{args:?}");
    }
}

#[test]
fn huge_mid_compiles_like_a_grid_covering_mid() {
    let schedule = |mid: &str| {
        let output = natoms(&["compile", "--size", "16", "--mid", mid], None);
        assert!(output.status.success(), "MID {mid}");
        // Drop the header line, which echoes the MID.
        let stdout = String::from_utf8(output.stdout).unwrap();
        stdout.lines().skip(1).collect::<Vec<_>>().join("\n")
    };
    // 14 exceeds the 10×10 grid's diagonal: full connectivity.
    assert_eq!(schedule("1e9"), schedule("14"));
}

#[test]
fn unknown_figure_names_are_rejected_up_front() {
    let output = natoms(&["reproduce", "validation_mid1", "nosuchfig"], None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown figure \"nosuchfig\""), "{stderr}");
    assert!(stderr.contains("fig03, fig04"), "{stderr}");
    assert!(output.stdout.is_empty(), "ran figures before rejecting");
}

#[test]
fn a_failed_figure_is_reported_and_the_rest_still_run() {
    // validation_mid1 has 6 jobs, so only ablation_lookahead's job 20
    // panics; it runs first, and validation_mid1 still renders.
    let output = natoms(
        &["reproduce", "ablation_lookahead", "validation_mid1"],
        Some("engine.execute_job#job20=panic@1"),
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("ablation_lookahead: row 20"), "{stderr}");
    assert!(stderr.contains("1/35 rows failed: 1 panicked"), "{stderr}");
    assert!(!stdout.contains("Ablation: lookahead"), "{stdout}");
    assert!(stdout.starts_with("== Validation: MID 1"), "{stdout}");
}

/// Writes `src` to a fresh file and compiles it through `--qasm`.
fn compile_qasm(name: &str, src: &str) -> (Output, Duration) {
    let path = std::env::temp_dir().join(format!("natoms-{}-{name}.qasm", std::process::id()));
    std::fs::write(&path, src).unwrap();
    let start = Instant::now();
    let output = natoms(
        &["compile", "--qasm", path.to_str().unwrap(), "--mid", "3"],
        None,
    );
    let elapsed = start.elapsed();
    std::fs::remove_file(&path).unwrap();
    (output, elapsed)
}

const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n";

#[test]
fn deep_qasm_expressions_and_macro_blow_ups_are_typed_errors() {
    let n = 200_000;
    let probes = [
        (
            "parens-1e4",
            format!("rz({}1{}) q[0];", "(".repeat(10_000), ")".repeat(10_000)),
            "expression nests deeper than",
        ),
        (
            "parens-2e5",
            format!("rz({}1{}) q[0];", "(".repeat(n), ")".repeat(n)),
            "expression nests deeper than",
        ),
        (
            "minus-2e5",
            format!("rz({}1) q[0];", "-".repeat(n)),
            "expression nests deeper than",
        ),
        (
            "sum-2e5",
            format!("rz(1{}) q[0];", "+1".repeat(n - 1)),
            "expression nests deeper than",
        ),
        (
            "macro-chain",
            (1..40).fold("gate g0 a { h a; h a; }\n".to_string(), |src, i| {
                src + &format!("gate g{i} a {{ g{} a; g{} a; }}\n", i - 1, i - 1)
            }) + "g39 q[0];",
            "would expand the program past",
        ),
    ];
    for (name, body, message) in probes {
        let (output, elapsed) = compile_qasm(name, &format!("{HEADER}{body}\n"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(message), "{name}: {stderr}");
        assert!(output.stdout.is_empty(), "{name} printed a schedule");
        // Generous for a debug binary; the release CLI takes ~10 ms.
        assert!(elapsed < Duration::from_secs(10), "{name} took {elapsed:?}");
    }
}
