//! OpenQASM 2.0 import and export.
//!
//! The toolkit speaks the OpenQASM 2.0 dialect its own exporter fixes:
//! one-line header, `include` tolerance, `qreg`/`creg` declarations,
//! the qelib1 gates the exporter emits (`x y z h s sdg t tdg rx ry rz
//! cx cz cu1 swap ccx`, plus `id`/`u1` accepted on import),
//! user-defined `gate` macros, `barrier`, and `measure`. Import
//! ([`parse_qasm`]) turns a source string into a [`Circuit`] whose
//! gates are already in the compiler's gate set — macro calls are
//! lowered by expansion, and anything wider lowers through
//! [`crate::decompose`] exactly like the built-in benchmarks. Export
//! ([`to_qasm`]) renders a circuit back; the two are inverse enough
//! that `parse ∘ to_qasm` preserves [`Circuit::fingerprint`] for every
//! circuit built from round-trippable gates (everything the benchmark
//! generators emit), and preserves the *unitary* for all supported
//! circuits (`Ccz` re-imports as its H-conjugated `ccx` form).
//!
//! Both directions report failures as a typed [`QasmError`] carrying a
//! 1-based line and column.
//!
//! # Example
//!
//! ```
//! use na_circuit::qasm::{parse_qasm, to_qasm};
//! use na_circuit::{Circuit, Qubit};
//!
//! let mut c = Circuit::new(2);
//! c.h(Qubit(0));
//! c.cnot(Qubit(0), Qubit(1));
//! let text = to_qasm(&c).unwrap();
//! let back = parse_qasm(&text).unwrap();
//! assert_eq!(back.fingerprint(), c.fingerprint());
//! ```

mod lexer;
mod parser;

pub use parser::parse_qasm;

use crate::{Circuit, CircuitError, Gate};
use std::error::Error;
use std::fmt;
use std::fmt::Write;

/// What went wrong while importing or exporting OpenQASM.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmErrorKind {
    /// A character the lexer cannot start a token with.
    UnexpectedChar(char),
    /// A string literal with no closing quote.
    UnterminatedString,
    /// The parser expected something else here.
    UnexpectedToken {
        /// What was found, rendered for the message.
        found: String,
        /// What the grammar required.
        expected: String,
    },
    /// The header names a version other than 2.0.
    UnsupportedVersion(String),
    /// A well-formed construct the subset does not support
    /// (`opaque`, `if`, `reset`, …).
    Unsupported(String),
    /// A gate call on a name that is neither built in nor a previously
    /// defined macro.
    UnknownGate(String),
    /// A gate call with the wrong number of classical parameters.
    ParamCountMismatch {
        /// Gate name.
        name: String,
        /// Parameters the gate takes.
        expected: usize,
        /// Parameters the call supplied.
        found: usize,
    },
    /// A gate call with the wrong number of qubit operands.
    OperandCountMismatch {
        /// Gate name.
        name: String,
        /// Operands the gate takes.
        expected: usize,
        /// Operands the call supplied.
        found: usize,
    },
    /// A register name with no matching `qreg`/`creg` declaration.
    UnknownRegister(String),
    /// `reg[i]` with `i` outside the register.
    IndexOutOfRange {
        /// Register name.
        register: String,
        /// The offending index.
        index: u32,
        /// Declared register size.
        size: u32,
    },
    /// Whole-register operands of different lengths in one broadcast
    /// call.
    BroadcastMismatch(String),
    /// A register or gate name declared twice.
    DuplicateDefinition(String),
    /// An identifier in an angle expression that is neither `pi` nor a
    /// formal parameter of the enclosing `gate`.
    UnknownParameter(String),
    /// Macro expansion exceeded the nesting limit.
    MacroTooDeep(String),
    /// An angle expression nests deeper than the parser's limit.
    ExprTooDeep {
        /// The nesting limit.
        limit: u32,
    },
    /// A macro call would expand the program past the gate budget.
    ExpansionTooLarge {
        /// The macro called.
        name: String,
        /// Gates a program may expand to.
        limit: u64,
    },
    /// The assembled gate failed [`Circuit`] validation (duplicate
    /// operand, out-of-range qubit).
    InvalidGate(CircuitError),
    /// Export hit a gate with no OpenQASM 2.0 rendering (a `Cnx` with
    /// more than two controls); lower it first with
    /// [`crate::decompose_circuit`].
    ExportUnsupported {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// Number of controls on the offending `Cnx`.
        controls: usize,
    },
    /// Export hit a rotation whose angle is infinite or NaN — such a
    /// value would render as `inf`/`NaN`, which no QASM parser (ours
    /// included) reads back, so the round-trip contract fails at
    /// export time instead of silently producing dead text.
    NonFiniteAngle {
        /// Index of the offending gate in the circuit.
        gate_index: usize,
        /// The offending angle.
        angle: f64,
    },
    /// A numeric literal that does not parse as a number.
    InvalidNumber(String),
}

impl fmt::Display for QasmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            QasmErrorKind::UnterminatedString => f.write_str("unterminated string literal"),
            QasmErrorKind::UnexpectedToken { found, expected } => {
                write!(f, "expected {expected}, found {found}")
            }
            QasmErrorKind::UnsupportedVersion(v) => {
                write!(f, "unsupported OpenQASM version {v} (only 2.0)")
            }
            QasmErrorKind::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            QasmErrorKind::UnknownGate(name) => write!(f, "unknown gate {name:?}"),
            QasmErrorKind::ParamCountMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "gate {name:?} takes {expected} parameter(s), got {found}"
            ),
            QasmErrorKind::OperandCountMismatch {
                name,
                expected,
                found,
            } => write!(f, "gate {name:?} takes {expected} operand(s), got {found}"),
            QasmErrorKind::UnknownRegister(name) => write!(f, "unknown register {name:?}"),
            QasmErrorKind::IndexOutOfRange {
                register,
                index,
                size,
            } => write!(
                f,
                "index {index} out of range for register {register:?} of size {size}"
            ),
            QasmErrorKind::BroadcastMismatch(name) => write!(
                f,
                "broadcast operands of gate {name:?} have mismatched register lengths"
            ),
            QasmErrorKind::DuplicateDefinition(name) => {
                write!(f, "duplicate definition of {name:?}")
            }
            QasmErrorKind::UnknownParameter(name) => {
                write!(
                    f,
                    "unknown identifier {name:?} in expression (not pi or a parameter)"
                )
            }
            QasmErrorKind::MacroTooDeep(name) => {
                write!(f, "gate macro {name:?} expands too deeply")
            }
            QasmErrorKind::ExprTooDeep { limit } => {
                write!(f, "expression nests deeper than {limit} levels")
            }
            QasmErrorKind::ExpansionTooLarge { name, limit } => write!(
                f,
                "gate macro {name:?} would expand the program past {limit} gates"
            ),
            QasmErrorKind::InvalidGate(e) => write!(f, "invalid gate: {e}"),
            QasmErrorKind::ExportUnsupported {
                gate_index,
                controls,
            } => write!(
                f,
                "gate {gate_index} is a {controls}-control Cnx with no OpenQASM 2.0 primitive; \
                 lower it with decompose_circuit first"
            ),
            QasmErrorKind::NonFiniteAngle { gate_index, angle } => write!(
                f,
                "gate {gate_index} has non-finite angle {angle}, which has no QASM rendering"
            ),
            QasmErrorKind::InvalidNumber(text) => {
                write!(f, "invalid numeric literal {text:?}")
            }
        }
    }
}

/// A typed OpenQASM import/export error with a source position.
///
/// `line` and `column` are 1-based. For [`to_qasm`] failures the
/// position is in the *output* text: the line the offending gate would
/// have been rendered on.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub column: u32,
    /// What went wrong.
    pub kind: QasmErrorKind,
}

impl QasmError {
    pub(crate) fn new(line: u32, column: u32, kind: QasmErrorKind) -> Self {
        QasmError { line, column, kind }
    }
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.kind
        )
    }
}

impl Error for QasmError {}

/// Renders a circuit as an OpenQASM 2.0 program.
///
/// `Cnx` gates with more than two controls have no single QASM-2
/// primitive; lower them first with
/// [`decompose_circuit`](crate::decompose_circuit).
///
/// # Errors
///
/// Returns a [`QasmError`] with kind
/// [`QasmErrorKind::ExportUnsupported`] (carrying the gate index, with
/// the error position on the output line the gate would occupy) if the
/// circuit still contains a `Cnx` with more than two controls.
///
/// # Example
///
/// ```
/// use na_circuit::{qasm::to_qasm, Circuit, Qubit};
///
/// let mut c = Circuit::new(2);
/// c.h(Qubit(0));
/// c.cnot(Qubit(0), Qubit(1));
/// let text = to_qasm(&c).unwrap();
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0],q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> Result<String, QasmError> {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    let needs_creg = circuit.iter().any(Gate::is_measure);
    if needs_creg {
        let _ = writeln!(out, "creg c[{}];", circuit.num_qubits());
    }
    for (i, gate) in circuit.iter().enumerate() {
        // A non-finite angle would render as `inf`/`NaN`, which no
        // QASM parser reads back; fail here rather than emit text the
        // importer is guaranteed to reject.
        if let Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::Cphase(_, _, a) = gate {
            if !a.is_finite() {
                let line = out.lines().count() as u32 + 1;
                return Err(QasmError::new(
                    line,
                    1,
                    QasmErrorKind::NonFiniteAngle {
                        gate_index: i,
                        angle: *a,
                    },
                ));
            }
        }
        match gate {
            Gate::X(q) => writeln!(out, "x q[{}];", q.0),
            Gate::Y(q) => writeln!(out, "y q[{}];", q.0),
            Gate::Z(q) => writeln!(out, "z q[{}];", q.0),
            Gate::H(q) => writeln!(out, "h q[{}];", q.0),
            Gate::S(q) => writeln!(out, "s q[{}];", q.0),
            Gate::Sdg(q) => writeln!(out, "sdg q[{}];", q.0),
            Gate::T(q) => writeln!(out, "t q[{}];", q.0),
            Gate::Tdg(q) => writeln!(out, "tdg q[{}];", q.0),
            Gate::Rx(q, a) => writeln!(out, "rx({a}) q[{}];", q.0),
            Gate::Ry(q, a) => writeln!(out, "ry({a}) q[{}];", q.0),
            Gate::Rz(q, a) => writeln!(out, "rz({a}) q[{}];", q.0),
            Gate::Cnot { control, target } => {
                writeln!(out, "cx q[{}],q[{}];", control.0, target.0)
            }
            Gate::Cz(a, b) => writeln!(out, "cz q[{}],q[{}];", a.0, b.0),
            Gate::Cphase(a, b, t) => writeln!(out, "cu1({t}) q[{}],q[{}];", a.0, b.0),
            Gate::Swap(a, b) => writeln!(out, "swap q[{}],q[{}];", a.0, b.0),
            Gate::Toffoli { controls, target } => writeln!(
                out,
                "ccx q[{}],q[{}],q[{}];",
                controls[0].0, controls[1].0, target.0
            ),
            Gate::Ccz(a, b, c) => {
                // CCZ = H(c) CCX H(c); qelib1 has no ccz primitive.
                let _ = writeln!(out, "h q[{}];", c.0);
                let _ = writeln!(out, "ccx q[{}],q[{}],q[{}];", a.0, b.0, c.0);
                writeln!(out, "h q[{}];", c.0)
            }
            Gate::Cnx { controls, target } => match controls.len() {
                1 => writeln!(out, "cx q[{}],q[{}];", controls[0].0, target.0),
                2 => writeln!(
                    out,
                    "ccx q[{}],q[{}],q[{}];",
                    controls[0].0, controls[1].0, target.0
                ),
                _ => {
                    // The error points at the output line this gate
                    // would have started on.
                    let line = out.lines().count() as u32 + 1;
                    return Err(QasmError::new(
                        line,
                        1,
                        QasmErrorKind::ExportUnsupported {
                            gate_index: i,
                            controls: controls.len(),
                        },
                    ));
                }
            },
            Gate::Measure(q) => writeln!(out, "measure q[{0}] -> c[{0}];", q.0),
        }
        .expect("writing to String cannot fail");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose_circuit, DecomposeLevel, Qubit};

    #[test]
    fn header_and_register() {
        let c = Circuit::new(3);
        let q = to_qasm(&c).unwrap();
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
        assert!(!q.contains("creg"), "no creg without measurements");
    }

    #[test]
    fn all_gate_kinds_render() {
        let mut c = Circuit::new(4);
        c.x(Qubit(0))
            .y(Qubit(1))
            .z(Qubit(2))
            .h(Qubit(0))
            .s(Qubit(0))
            .sdg(Qubit(0))
            .t(Qubit(0))
            .tdg(Qubit(0))
            .rx(Qubit(1), 0.5)
            .ry(Qubit(1), 0.5)
            .rz(Qubit(1), 0.5)
            .cnot(Qubit(0), Qubit(1))
            .cz(Qubit(1), Qubit(2))
            .cphase(Qubit(0), Qubit(3), 0.25)
            .swap(Qubit(2), Qubit(3))
            .toffoli(Qubit(0), Qubit(1), Qubit(2))
            .ccz(Qubit(1), Qubit(2), Qubit(3))
            .measure(Qubit(0));
        let q = to_qasm(&c).unwrap();
        for needle in [
            "x q[0];",
            "rx(0.5) q[1];",
            "cx q[0],q[1];",
            "cu1(0.25) q[0],q[3];",
            "swap q[2],q[3];",
            "ccx q[0],q[1],q[2];",
            "creg c[4];",
            "measure q[0] -> c[0];",
        ] {
            assert!(q.contains(needle), "missing {needle:?} in:\n{q}");
        }
    }

    #[test]
    fn ccz_renders_as_h_conjugated_ccx() {
        let mut c = Circuit::new(3);
        c.ccz(Qubit(0), Qubit(1), Qubit(2));
        let q = to_qasm(&c).unwrap();
        assert_eq!(q.matches("h q[2];").count(), 2);
        assert_eq!(q.matches("ccx").count(), 1);
    }

    #[test]
    fn large_cnx_is_rejected_until_lowered() {
        let mut c = Circuit::new(6);
        c.cnx((0..4).map(Qubit).collect(), Qubit(4));
        let err = to_qasm(&c).unwrap_err();
        assert_eq!(
            err.kind,
            QasmErrorKind::ExportUnsupported {
                gate_index: 0,
                controls: 4
            }
        );
        // Header (2 lines) + qreg: the gate would land on line 4.
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("decompose_circuit"));
        let lowered = decompose_circuit(&c, DecomposeLevel::ThreeQubit);
        assert!(to_qasm(&lowered).is_ok());
    }

    #[test]
    fn non_finite_angles_fail_export() {
        // `rx(inf)` would be text no QASM parser reads back; the
        // round-trip contract demands the failure at export time.
        for angle in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut c = Circuit::new(1);
            c.h(Qubit(0)).rz(Qubit(0), angle);
            let err = to_qasm(&c).unwrap_err();
            match err.kind {
                QasmErrorKind::NonFiniteAngle { gate_index, .. } => assert_eq!(gate_index, 1),
                other => panic!("expected NonFiniteAngle, got {other:?}"),
            }
        }
    }

    #[test]
    fn small_cnx_maps_to_primitives() {
        let mut c = Circuit::new(3);
        c.cnx(vec![Qubit(0)], Qubit(1));
        c.cnx(vec![Qubit(0), Qubit(1)], Qubit(2));
        let q = to_qasm(&c).unwrap();
        assert!(q.contains("cx q[0],q[1];"));
        assert!(q.contains("ccx q[0],q[1],q[2];"));
    }

    #[test]
    fn benchmark_circuits_export() {
        // Every line ends with a semicolon: a cheap well-formedness
        // check across a real generator output.
        let mut c = Circuit::new(4);
        c.h(Qubit(0))
            .cnot(Qubit(0), Qubit(1))
            .toffoli(Qubit(1), Qubit(2), Qubit(3));
        let q = to_qasm(&c).unwrap();
        for line in q.lines().skip(1) {
            assert!(line.ends_with(';'), "unterminated line {line:?}");
        }
    }
}
